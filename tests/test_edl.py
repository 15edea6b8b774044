import glob
import math
import os
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesim import circuit, edl, elements as el
from qesim.circuit import (
    Choice,
    Circuit,
    evolve,
    evolve_rows,
    joint_distribution,
    joint_probs,
)
from qesim.qstate import Dof, StateStack, StateVector, ValidationError, phase_deviations
from test_kernel_oracle import reference_evolve

GOLDEN = sorted(glob.glob(os.path.join(os.path.dirname(edl.__file__), "golden", "*.edl")))

MINIMAL = """\
EXPERIMENT tiny

DOF arm : t r

SOURCE 1+0i |arm=t>

STAGE bs1 : bs arm t r
DETECT D : arm basis=path
"""


class TestComplexLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1", 1 + 0j),
            ("-2.5", -2.5 + 0j),
            ("0.5i", 0.5j),
            ("-1i", -1j),
            ("1+2i", 1 + 2j),
            ("1-2i", 1 - 2j),
            ("3e-2+1.5e1i", 0.03 + 15j),
        ],
    )
    def test_valid(self, text, value):
        assert edl.parse_complex(text) == value

    @pytest.mark.parametrize("text", ["", "i", "1+i", "1+2j", "(1+2i)", "one", "1 + 2i"])
    def test_invalid(self, text):
        assert edl.parse_complex(text) is None

    def test_format_round_trip(self):
        for z in (1 + 0j, -0.5j, 0.25 - 0.75j, 0.7071067811865476 + 0j):
            assert edl.parse_complex(edl.format_complex(z)) == z


class TestParser:
    def test_minimal_document(self):
        res = edl.parse(MINIMAL)
        assert res.ok
        assert res.document.name == "tiny"
        assert res.document.dofs == (("arm", ("t", "r")),)

    def test_comments_and_blank_lines_ignored(self):
        res = edl.parse("# header\n\n" + MINIMAL + "\n# trailer\n")
        assert res.ok

    def test_missing_experiment_is_error(self):
        res = edl.parse("DOF arm : t r\n")
        assert not res.ok
        assert any("EXPERIMENT" in d.message for d in res.diagnostics)

    def test_diagnostics_carry_positions(self):
        res = edl.parse("EXPERIMENT x\nDOF arm :\n")
        bad = [d for d in res.diagnostics if d.severity == edl.ERROR]
        assert bad and bad[0].line == 2 and bad[0].col >= 1

    def test_unclosed_choice_reported(self):
        res = edl.parse(MINIMAL + "CHOICE c : a {\n")
        assert not res.ok
        assert any("never closed" in d.message for d in res.diagnostics)

    def test_unmatched_brace_reported(self):
        res = edl.parse(MINIMAL + "}\n")
        assert any("unmatched" in d.message for d in res.diagnostics)

    def test_duplicate_alternative_names_rejected(self):
        text = MINIMAL + "CHOICE c : a {\n} | a {\n}\n"
        res = edl.parse(text)
        assert not res.ok

    def test_when_clause(self):
        text = (
            "EXPERIMENT w\nDOF slit : s1 s2\nDOF pol : v h\n"
            "SOURCE 1+0i |slit=s1, pol=v>\n"
            "STAGE p : pol pol 45 when slit=s1\n"
            "DETECT D : pol basis=path\n"
        )
        res = edl.parse(text)
        assert res.ok
        stage = res.document.stages[0]
        assert stage.when == ("slit", "s1")

    def test_when_on_unsupported_element_rejected(self):
        res = edl.parse(MINIMAL.replace("bs arm t r", "bs arm t r when arm=t"))
        assert not res.ok


class TestCompiler:
    def test_minimal_compiles(self):
        res = edl.compile_text(MINIMAL)
        assert res.ok
        st = evolve(res.circuit)
        assert abs(abs(st.amps[0, st.dofs[0].index("t")]) ** 2 - 0.5) < 1e-12

    def test_source_is_normalized(self):
        text = MINIMAL.replace("1+0i |arm=t>", "3+0i |arm=t> ; 4+0i |arm=r>")
        res = edl.compile_text(text)
        assert res.ok
        source = res.circuit.source
        assert abs(source.amps[source.dofs[0].index("t")] - 0.6) < 1e-12

    @pytest.mark.parametrize("amp", ["1e-20+0i", "1e-200+0i", "1e200+0i"])
    def test_tiny_and_huge_sources_are_normalized(self, amp):
        text = MINIMAL.replace("1+0i |arm=t>", f"{amp} |arm=t> ; {amp} |arm=r>")
        res = edl.compile_text(text)
        assert res.ok, res.diagnostics
        assert np.allclose(res.circuit.source.amps, [2**-0.5] * 2, rtol=0, atol=1e-15)

    def test_all_zero_source_is_a_compile_error(self):
        res = edl.compile_text(MINIMAL.replace("1+0i |arm=t>", "0+0i |arm=t>"))
        assert not res.ok
        assert "bad source: amplitudes are not normalizable (all zero" in str(res.diagnostics[0])

    def test_unknown_dof_reported(self):
        res = edl.compile_text(MINIMAL.replace("bs arm t r", "bs ghost t r"))
        assert not res.ok
        assert any("unknown dof" in d.message for d in res.diagnostics)

    def test_bad_label_reported(self):
        res = edl.compile_text(MINIMAL.replace("|arm=t>", "|arm=q>"))
        assert not res.ok

    def test_incomplete_source_ket_reported(self):
        text = (
            "EXPERIMENT w\nDOF a : x y\nDOF b : x y\n"
            "SOURCE 1+0i |a=x>\nDETECT D : a basis=path\n"
        )
        res = edl.compile_text(text)
        assert not res.ok
        assert any("every dof" in d.message for d in res.diagnostics)

    def test_load_circuit_raises_with_diagnostics(self, tmp_path):
        p = tmp_path / "bad.edl"
        p.write_text("EXPERIMENT x\nDOF a :\n")
        with pytest.raises(ValidationError) as exc:
            edl.load_document(str(p))
        assert "2:1" in str(exc.value)

    def test_load_names_the_first_byte_that_is_not_utf8(self, tmp_path):
        # past the chunk a text-mode reader decodes at a time
        p = tmp_path / "bad.edl"
        p.write_bytes(b"#" * 20000 + b"\n\xff" + MINIMAL.encode())
        with pytest.raises(ValidationError) as exc:
            edl.load_document(str(p))
        assert str(exc.value) == f"cannot read {p}: byte 20001 is not UTF-8"

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_load_reads_any_line_end(self, tmp_path, end):
        text = golden_text("wheeler")
        p = tmp_path / "w.edl"
        p.write_bytes(text.replace("\n", end).encode())
        assert edl.load_document(str(p)) == edl.parse(text).document



TWO_DOFS = "EXPERIMENT x\nDOF arm : t r\nDOF pol : h v\nSOURCE 1+0i |arm=t, pol=h>\n"


class TestDiagnostics:
    """The exact diagnostics of one bad STAGE or DETECT line (line 5)."""

    @pytest.mark.parametrize("line, want", [
        ("STAGE s : bs arm t", ["element 'bs' takes 3 argument(s), got 2"]),
        ("STAGE s : mirror arm", ["unknown element keyword 'mirror'"]),
        ("STAGE s : bs arm t r when pol=h", ["element 'bs' does not accept a when clause"]),
        ("STAGE s : phase ghost t abc",
         ["unknown dof 'ghost'", "bad angle 'abc' (degrees or a declared PARAM)"]),
        ("STAGE s : qwp ghost xyz",
         ["unknown dof 'ghost'", "bad angle 'xyz' (degrees or a declared PARAM)"]),
        ("STAGE s : analyzer ghost spook", ["unknown dof 'ghost'", "unknown dof 'spook'"]),
        ("STAGE s : pol ghost xyz when nope=h", ["unknown dof 'nope'", "unknown dof 'ghost'",
                                                 "bad angle 'xyz' (degrees or a declared PARAM)"]),
        ("STAGE s : pol pol 45 when arm=x", ["dof 'arm' has no label 'x'"]),
        ("STAGE s : bs arm t x", ["stage 's': dof 'arm' has no label 'x'"]),
        ("STAGE s : sg arm pol", ["stage 's': stern_gerlach needs 3-dim spin and path dofs"]),
        ("DETECT D : arm basis=polar", ["unknown basis 'polar'"]),
        ("STAGE s : analyzer pol pol", ["stage 's': element targets a dof twice: ['pol', 'pol']"]),
    ])
    def test_bad_line(self, line, want):
        res = edl.compile_text(TWO_DOFS + line + "\nDETECT E : pol basis=path\n")
        assert not res.ok
        assert [str(d) for d in res.diagnostics] == [f"5:1: error: {m}" for m in want]

    def test_stern_gerlach_on_one_dof(self):
        text = "EXPERIMENT x\nDOF s : a b c\nDOF p : t m b\nSOURCE 1+0i |s=a, p=t>\nSTAGE g : sg s s\n"
        res = edl.compile_text(text + "DETECT D : s basis=path\n")
        assert [str(d) for d in res.diagnostics] == ["5:1: error: stage 'g': element targets a dof twice: ['s', 's']"]


def test_screen_named_like_another_dof_is_a_compile_error():
    # its bin axis would share the name of the pol axis
    res = edl.compile_text(TWO_DOFS + "DETECT pol : screen arm\nDETECT D : pol basis=path\n")
    assert [str(d) for d in res.diagnostics] == [
        "1:1: error: circuit assembly failed: screen 'pol' is named like another dof"
    ]
    res = edl.compile_text(TWO_DOFS + "DETECT arm : screen arm\nDETECT D : pol basis=path\n")
    assert res.ok and joint_distribution(res.circuit).axes == ("arm", "pol")


class TestBases:
    TEXT = TWO_DOFS + (
        "STAGE b : bs arm t r\nSTAGE q : qwp pol 30\n"
        "DETECT D : arm basis={0}, pol basis={0}\n"
    )

    def distribution(self, basis):
        res = edl.compile_text(self.TEXT.format(basis))
        assert res.ok, res.diagnostics
        return joint_distribution(res.circuit)

    @pytest.mark.parametrize("alias, name", [
        ("comp", "path"), ("computational", "path"), ("diag", "pm45"),
    ])
    def test_alias_measures_like_its_basis(self, alias, name):
        got, want = self.distribution(alias), self.distribution(name)
        assert got.labels == want.labels
        assert np.array_equal(got.probs, want.probs)
        assert not np.array_equal(self.distribution("path").probs, self.distribution("pm45").probs)

    def test_every_basis_name_compiles(self):
        for basis in el.BASIS_NAMES:
            self.distribution(basis)


def golden_text(name):
    return Path(os.path.dirname(edl.__file__), "golden", f"{name}.edl").read_text()


class TestParamsAndDelays:
    def test_param_value_reaches_element_in_radians(self):
        doc = edl.parse(golden_text("mz_two_bs")).document
        assert doc.params == (("phi", 0.0),)
        circuit = edl.build_template(doc, {"phi": 1.2345}).circuit
        arm = circuit.dofs[0]
        want = el.phase_shifter(arm, "t", 1.2345).matrix
        assert (circuit.stages[1].matrix == want).all()
        default = edl.build_template(doc).circuit.stages[1].matrix
        assert (default == el.phase_shifter(arm, "t", 0.0).matrix).all()

    def test_undeclared_param_rejected(self):
        doc = edl.parse(golden_text("mz_two_bs")).document
        res = edl.compile_document(doc, {"theta": 1.0})
        assert not res.ok
        assert any("undeclared PARAM 'theta'" in d.message for d in res.diagnostics)
        with pytest.raises(ValidationError):
            edl.build_template(edl.parse(MINIMAL).document, {"phi": 1.0})

    @pytest.mark.parametrize("line", [
        "PARAM phi", "PARAM 1x = 0", "PARAM phi = abc", "PARAM phi = 1e999",
        "PARAM phi = 0\nPARAM phi = 1",
    ])
    def test_bad_param_lines(self, line):
        assert not edl.parse(MINIMAL + line + "\n").ok

    def test_undeclared_angle_name_rejected(self):
        res = edl.compile_text(MINIMAL.replace("bs arm t r", "phase arm t phi"))
        assert not res.ok
        assert any("bad angle 'phi'" in d.message for d in res.diagnostics)

    def test_delay_sets_time_offset(self):
        circuit = edl.compile_text(golden_text("walborn_delayed")).circuit
        assert {s.name: s.time_offset for s in circuit.detectors()} == {"D_s": 0.0, "D_p": 1e9}
        text = MINIMAL.replace("DETECT D : arm basis=path", "DETECT D : screen arm delay=-2.5")
        spec = edl.compile_text(text).circuit.detectors()[0]
        assert spec.screen_of == "arm" and spec.time_offset == -2.5
        assert "DETECT D : screen arm delay=-2.5\n" in edl.format_text(text)

    @pytest.mark.parametrize("delay", ["delay=", "delay=x", "delay=1e999", "delay=nan"])
    def test_bad_delay_rejected(self, delay):
        assert not edl.parse(MINIMAL.replace("basis=path", f"basis=path {delay}")).ok

    def test_repeated_choice_name_is_reported_at_the_second_choice(self):
        # one setting would switch both; the second is found in _walk order,
        # where a choice comes before the stages of its alternatives
        one = "CHOICE c : one {\n    STAGE s : bs arm t r\n} | two {\n}\n"
        res = edl.compile_text(TWO_DOFS + one + one.replace("bs arm t r", "pol pol 45") + "DETECT D : arm basis=path\n")
        assert [str(d) for d in res.diagnostics] == ["9:1: error: choice name 'c' is used twice"]
        nested = "CHOICE c : one {\n    " + one.replace("\n", "\n    ").rstrip() + "\n} | two {\n}\n"
        res = edl.compile_text(TWO_DOFS + nested + "DETECT D : arm basis=path\n")
        assert [str(d) for d in res.diagnostics] == ["6:1: error: choice name 'c' is used twice"]

    def test_detector_name_may_repeat_across_alternatives(self):
        text = golden_text("wheeler").replace("DETECT counters", "DETECT wall")
        assert edl.compile_text(text).ok


#: PARAM-named angles inside CHOICE alternatives, on when-conditioned elements
BOUND_IN_CHOICE = TWO_DOFS.replace("SOURCE", "PARAM phi = 0.5\nPARAM theta = -1\nSOURCE") + """\
STAGE b1 : bs arm t r
STAGE shift : phase arm t phi
CHOICE plate : wave {
    STAGE q : qwp pol theta when arm=t
    DETECT D : arm basis=path, pol basis=pm45
} | pol {
    STAGE p : pol pol theta when arm=r
    STAGE back : phase arm r phi
    DETECT D : arm basis=path, pol basis=circular
} | none {
    DETECT D : arm basis=path
}
"""

BIND_DOCS = {n: golden_text(n) for n in ("mz_one_bs", "mz_two_bs", "mz_recombine_single_detector")}
BIND_DOCS["bound_in_choice"] = BOUND_IN_CHOICE

#: finite radians: zero, signs, multiples of 2 pi and large magnitudes
ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, 2 * math.pi, -2 * math.pi, 64 * math.pi, 1e6, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def assert_same_stages(a, b):
    """Equal stage structure, element matrices equal to the bit."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert type(x) is type(y)
        if isinstance(x, el.ElementOp):
            assert (x.kind, x.target_dofs, x.condition, x.name) == \
                (y.kind, y.target_dofs, y.condition, y.name)
            assert np.array_equal(x.matrix, y.matrix)
            assert x.matrix.tobytes() == y.matrix.tobytes()
        elif isinstance(x, Choice):
            assert x.name == y.name and list(x.alternatives) == list(y.alternatives)
            for alt in x.alternatives:
                assert_same_stages(x.alternatives[alt], y.alternatives[alt])
        else:
            assert x == y


def bound(template, name, value):
    """``template``'s circuit compiled again with PARAM ``name`` at ``value``."""
    return edl.build_template(template.doc, {**template.params, name: value}).circuit


def assert_same_circuit(a, b):
    assert a.dofs == b.dofs
    assert np.array_equal(a.source.amps, b.source.amps) and a.source.weight == b.source.weight
    assert_same_stages(a.stages, b.stages)
    combos = [{}]
    for cn in a.choice_names():
        combos = [{**c, cn: alt} for c in combos for alt in a.find_choice(cn).alternatives]
    for settings in combos:
        da, db = joint_distribution(a, settings), joint_distribution(b, settings)
        assert da.axes == db.axes and da.labels == db.labels
        assert (da.probs == db.probs).all(), settings


class TestBind:
    """``build_template(doc, params)`` binds PARAMs: it gives what
    ``compile_document`` gives, or raises its diagnostics."""

    @pytest.mark.parametrize("name", BIND_DOCS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bind_matches_fresh_compile(self, name, data):
        doc = edl.parse(BIND_DOCS[name]).document
        names = [n for n, _ in doc.params]
        chosen = data.draw(st.lists(st.sampled_from(names), unique=True))
        params = {n: data.draw(ANGLES) for n in chosen}
        fresh = edl.compile_document(doc, params)
        if not fresh.ok:
            with pytest.raises(ValidationError) as exc:
                edl.build_template(doc, params)
            assert str(exc.value) == f"cannot compile experiment {doc.name!r}:\n" + "\n".join(
                str(d) for d in fresh.diagnostics)
            return
        assert_same_circuit(edl.build_template(doc, params).circuit, fresh.circuit)

    @pytest.mark.parametrize("name", BIND_DOCS)
    def test_binding_leaves_the_template_alone(self, name):
        template = edl.build_template(edl.parse(BIND_DOCS[name]).document)
        names = [n for n, _ in template.doc.params]
        first = edl.build_template(template.doc, dict.fromkeys(names, 1.25)).circuit
        edl.build_template(template.doc, dict.fromkeys(names, -3.0))
        for n in names:
            template.rows(n, [1.25, -3.0])
        assert_same_circuit(edl.build_template(template.doc, dict.fromkeys(names, 1.25)).circuit, first)
        assert_same_circuit(template.circuit, edl.compile_document(template.doc).circuit)

    def test_undeclared_name_raises_the_compile_message(self):
        template = edl.build_template(edl.parse(golden_text("mz_two_bs")).document)
        with pytest.raises(ValidationError) as exc:
            edl.build_template(template.doc, {**template.params, "theta": 1.0})
        assert str(exc.value) == (
            "cannot compile experiment 'mz_two_bs':\n"
            "1:1: error: undeclared PARAM 'theta' (declared: phi)"
        )

    def test_each_undeclared_name_lists_only_the_declared(self):
        template = edl.build_template(edl.parse(golden_text("mz_two_bs")).document)
        with pytest.raises(ValidationError) as exc:
            edl.build_template(template.doc, {**template.params, "a": 1.0, "b": 2.0})
        assert str(exc.value) == (
            "cannot compile experiment 'mz_two_bs':\n"
            "1:1: error: undeclared PARAM 'a' (declared: phi)\n"
            "1:1: error: undeclared PARAM 'b' (declared: phi)"
        )

    def test_failed_compile_cannot_be_bound(self):
        with pytest.raises(ValidationError, match="cannot compile document:\n.*bad angle 'phi'"):
            edl.compile_text(MINIMAL.replace("bs arm t r", "phase arm t phi")).rows("phi", [1.0])


#: stage lines a generated sweep document draws from; {a} is the swept PARAM
#: or a fixed angle, on phase, qwp and pol, with and without ``when``
SWEPT_STAGES = (
    "bs arm t r",
    "phase arm t {a}",
    "qwp pol {a}",
    "qwp pol {a} when arm=t",
    "pol pol {a}",
    "pol pol {a} when arm=r",
)
SWEPT_DETECTORS = (
    "arm basis=path, pol basis=pm45",
    "pol basis=circular",
    "arm basis=pm45",
    "screen arm",
)


@st.composite
def sweep_documents(draw):
    """A two-dof document whose PARAM ``theta`` some stages name, with
    optionally a CHOICE of two stage lists and a detector inside it."""

    def stages(indent):
        lines = []
        for _ in range(draw(st.integers(1, 4))):
            angle = draw(st.sampled_from(["theta", "theta", "30", "-45"]))
            lines.append(f"{indent}STAGE s{len(lines)} : " + draw(st.sampled_from(SWEPT_STAGES)).format(a=angle))
        return lines

    source = draw(st.sampled_from(["1+0i |arm=t, pol=h>", "1+0i |arm=t, pol=h> ; 0+1i |arm=r, pol=v>"]))
    lines = ["EXPERIMENT swept", "DOF arm : t r", "DOF pol : h v", "PARAM theta = 0", f"SOURCE {source}"]
    lines += stages("")
    detector = "DETECT D : " + draw(st.sampled_from(SWEPT_DETECTORS))
    if draw(st.booleans()):
        inside = draw(st.booleans())
        lines.append("CHOICE c : one {")
        lines += stages("    ") + (["    " + detector] if inside else [])
        lines.append("} | two {")
        lines += stages("    ") + (["    " + detector] if inside else [])
        lines.append("}")
        if not inside:
            lines.append(detector)
    else:
        lines.append(detector)
    return "\n".join(lines) + "\n"


#: swept values: any finite radians, and the angles at which pol blocks |h>
STEP_ANGLES = st.one_of(ANGLES, st.sampled_from([math.pi / 2, 3 * math.pi / 2, -math.pi / 2]))


def all_settings(c):
    combos = [{}]
    for cn in c.choice_names():
        combos = [{**s, cn: alt} for s in combos for alt in c.find_choice(cn).alternatives]
    return combos


def assert_rows_match_bind(doc, data):
    """Row i of ``joint_probs`` and ``evolve_rows`` is what the compile of value
    i gives ``joint_distribution`` and ``reference_evolve``, to the bit, under every
    setting and with blocks of any size; a row ``joint_distribution`` finds
    all blocked is marked blocked, with probabilities and mass 0."""
    template = edl.build_template(doc)
    name = data.draw(st.sampled_from([n for n, _ in doc.params]))
    values = data.draw(st.lists(STEP_ANGLES, min_size=1, max_size=10))
    block = data.draw(st.sampled_from([circuit.BLOCK_AMPS, 1, 4, 8]))
    for settings in all_settings(template.circuit):
        try:
            want = [joint_distribution(bound(template, name, v), settings) for v in values]
        except ValidationError as e:
            with pytest.raises(ValidationError) as exc:
                list(joint_probs(template.circuit, len(values), template.rows(name, values), settings))
            assert str(exc.value) == str(e)
            continue
        with mock.patch.object(circuit, "BLOCK_AMPS", block):
            got = list(joint_probs(template.circuit, len(values), template.rows(name, values), settings))
        per = max(1, block // template.circuit.source.dim)
        assert [len(p) for _, _, p, _, _ in got] == [min(per, len(values) - i) for i in range(0, len(values), per)]
        rows = [(axes, labels, row, mass, b) for axes, labels, p, masses, blocked in got
                for row, mass, b in zip(p, masses.tolist(), blocked)]
        assert len(rows) == len(want)
        for (axes, labels, row, mass, b), w in zip(rows, want):
            assert axes == w.axes and b == (w.probs.size == 0), settings
            if b:
                assert mass == w.total_mass == 0.0 and not row.any(), settings
            else:
                assert (labels, mass) == (w.labels, w.total_mass), settings
                assert row.shape == w.probs.shape and row.tobytes() == w.probs.tobytes(), settings
        stack = evolve_rows(template.circuit, len(values), template.rows(name, values), settings)
        for i, v in enumerate(values):
            state = reference_evolve(bound(template, name, v), settings)
            assert stack.blocked[i] == (state is None)
            if not stack.blocked[i]:
                assert stack.amps[i].tobytes() == state.tensor_view().tobytes()
                assert stack.weights[i] == state.weight


#: one real part of a source amplitude: often zero, so that a mask may block
#: a whole source
AMPLITUDE_PART = st.one_of(st.just(0.0), st.floats(-1, 1, allow_subnormal=False))


def stack_of(dofs, states):
    """``states`` over ``dofs`` as one StateStack, row i with state i's bytes."""
    n = len(states)
    amps = np.array([s.tensor_view() for s in states]).reshape((n, *(d.dim for d in dofs)))
    return StateStack(dofs, amps, np.array([s.weight for s in states]), np.zeros(n, dtype=bool))


def random_sources(data, dofs, n, extra=()):
    """The stack of ``n`` random states over ``dofs``, of random weights, then
    the states ``extra``."""
    dim = math.prod(d.dim for d in dofs)
    out = []
    for _ in range(n):
        parts = np.array(data.draw(st.lists(AMPLITUDE_PART, min_size=2 * dim, max_size=2 * dim)))
        a = parts[:dim] + 1j * parts[dim:]
        if np.linalg.norm(a) < 1e-3:
            a = np.eye(dim)[data.draw(st.integers(0, dim - 1))]
        weight = data.draw(st.one_of(st.just(1.0), st.floats(0, 1)))
        out.append(StateVector(dofs, a / np.linalg.norm(a), weight))
    return stack_of(dofs, out + list(extra))


def assert_sources_match_evolve(template, data, extra=()):
    """Row i of ``evolve_rows`` given sources is what ``reference_evolve``
    gives the circuit of row i fed with source i, to the bit, under every setting: the
    amplitudes, the weight and whether it is blocked."""
    c = template.circuit
    n = data.draw(st.integers(1, 8))
    sources = random_sources(data, c.dofs, n, extra)
    m = len(sources.amps)
    if template.params:
        name = data.draw(st.sampled_from(sorted(template.params)))
        values = data.draw(st.lists(STEP_ANGLES, min_size=m, max_size=m))
        stacks = template.rows(name, values)
        circuits = [bound(template, name, v) for v in values]
    else:
        stacks, circuits = {}, [c] * m
    for settings in all_settings(c):
        stack = evolve_rows(c, m, stacks, settings, sources)
        assert stack.amps.shape == (m,) + c.source.dims
        for i, circ in enumerate(circuits):
            source = StateVector(c.dofs, sources.amps[i], sources.weights[i])
            state = reference_evolve(replace(circ, source=source), settings)
            assert stack.blocked[i] == (state is None), settings
            if stack.blocked[i]:
                assert not stack.amps[i].any() and stack.weights[i] == 0.0
            else:
                assert stack.amps[i].tobytes() == state.tensor_view().tobytes(), settings
                assert stack.weights[i] == state.weight, settings


class TestRows:
    """A sweep evaluated as one batched evolution has the bytes of one
    compile and ``joint_distribution`` per step."""

    @pytest.mark.parametrize("name", BIND_DOCS)
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_rows_match_bind(self, name, data):
        assert_rows_match_bind(edl.parse(BIND_DOCS[name]).document, data)

    @given(text=sweep_documents(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_generated_rows_match_bind(self, text, data):
        parsed = edl.parse(text)
        assert parsed.ok, text
        assert_rows_match_bind(parsed.document, data)

    @pytest.mark.parametrize("name", ["analyzer_loop", "sg_loop"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_sources_match_evolve_on_loops(self, name, data):
        template = edl.build_template(edl.parse(golden_text(name)).document)
        # the spin plus state alone, which keep_mid and keep_bot block entirely
        dofs = template.circuit.dofs
        plus = StateVector.from_amplitudes(dofs, {(dofs[0].labels[0], dofs[1].labels[0]): 1.0})
        assert_sources_match_evolve(template, data, extra=[plus])

    @given(text=sweep_documents(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_generated_sources_match_evolve(self, text, data):
        assert_sources_match_evolve(edl.build_template(edl.parse(text).document), data)

    def test_sources_must_fit_the_rows_and_the_circuit(self):
        c = edl.compile_text(golden_text("analyzer_loop")).circuit
        with pytest.raises(circuit.ContractError, match=r"one source per row \(2\)"):
            evolve_rows(c, 2, {}, {"mask": "open"}, stack_of(c.dofs, [c.source]))
        other = StateVector.from_amplitudes((Dof("arm", ("t", "r")),), {("t",): 1.0})
        with pytest.raises(circuit.ContractError, match=r"one source per row \(1\), each over the circuit.s dofs"):
            evolve_rows(c, 1, {}, {"mask": "open"}, stack_of(other.dofs, [other]))
        with pytest.raises(circuit.ContractError, match=r"needs 3 matrices in each stack"):
            evolve_rows(c, 3, {0: np.zeros((2, 2, 2))}, {"mask": "open"})

    def test_rows_of_another_circuit_are_rejected(self):
        # a circuit compiled again has a new ElementOp for its phase stage, which
        # would evolve every row with its own matrix if the rows' key were ignored
        template = edl.build_template(edl.parse(golden_text("mz_two_bs")).document)
        rows = template.rows("phi", [0.0, math.pi])
        for c in (bound(template, "phi", 1.0), edl.compile_text(golden_text("mz_two_bs")).circuit):
            with pytest.raises(circuit.ContractError, match="not an element of this circuit"):
                evolve_rows(c, 2, rows)
            with pytest.raises(circuit.ContractError, match="not an element of this circuit"):
                list(joint_probs(c, 2, rows))
        ((_, _, p, _, _),) = joint_probs(template.circuit, 2, rows)
        assert np.allclose(p, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    @pytest.mark.parametrize(
        "name,settings", [("mz_two_bs", {}), ("sg_loop", {"mask": "keep_top"})]
    )
    def test_empty_stack(self, name, settings):
        c = edl.compile_text(golden_text(name)).circuit
        for stack in (evolve_rows(c, 0, {}, settings), evolve_rows(c, 0, {}, settings, stack_of(c.dofs, []))):
            assert stack.amps.shape == (0,) + c.source.dims
            assert list(stack.weights) == [] and list(stack.blocked) == []

    def test_rows_are_renormalized_as_evolve_does(self):
        # three nearly unitary steps push the norm 1.47e-12 off 1, past
        # NORM_TOL, so one state is renormalized; each row must be renormalized alike
        arm = Dof("arm", ("t", "r"))
        near = el.ElementOp(el.UNITARY, ("arm",), np.diag([1 + 4.9e-13] * 2))
        shift = el.phase_shifter(arm, "r", 0.0)
        c = Circuit(
            (arm,),
            StateVector.from_amplitudes((arm,), {("t",): 0.6, ("r",): 0.8}),
            (near, near, near, shift),
        )
        values = [0.1, 1.0, 2.5]
        ops = [el.phase_shifter(arm, "r", v) for v in values]
        stack = evolve_rows(c, len(values), {id(shift): np.stack([op.matrix for op in ops])})
        for i, op in enumerate(ops):
            state = reference_evolve(replace(c, stages=c.stages[:3] + (op,)))
            assert stack.amps[i].tobytes() == state.amps.tobytes()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_angle_not_finite_is_a_stage_error_of_bind_and_rows(self, value):
        template = edl.build_template(edl.parse(BOUND_IN_CHOICE).document)
        # theta drives a qwp and a pol, phi two phase stages
        for param, stages in (("theta", ("q", "p")), ("phi", ("shift", "back"))):
            with pytest.raises(ValidationError) as want:
                bound(template, param, value)
            for stage in stages:
                assert f"error: stage {stage!r}: angle {value} is not finite" in str(want.value)
            with pytest.raises(ValidationError) as got:
                template.rows(param, [0.5, value, 1.0])
            assert str(got.value) == str(want.value)

    def test_rows_bind_one_param_and_raise_bind_errors(self):
        template = edl.build_template(edl.parse(golden_text("mz_two_bs")).document)
        (shift,) = (s for s in template.circuit.stages if isinstance(s, el.ElementOp) and s.name == "phase")
        stacks = template.rows("phi", [0.5, 1.5])
        assert list(stacks) == [id(shift)] and stacks[id(shift)].shape == (2, 2, 2)
        for v, m in zip([0.5, 1.5], stacks[id(shift)]):
            (shifted,) = (s for s in bound(template, "phi", v).stages if isinstance(s, el.ElementOp) and s.name == "phase")
            assert m.tobytes() == shifted.matrix.tobytes()
        with pytest.raises(ValidationError) as exc:
            template.rows("theta", [1.0])
        assert str(exc.value) == (
            "cannot compile experiment 'mz_two_bs':\n"
            "1:1: error: undeclared PARAM 'theta' (declared: phi)"
        )


class TestFormatter:
    def test_idempotent_on_goldens(self):
        for path in GOLDEN:
            text = Path(path).read_text()
            once = edl.format_text(text)
            assert edl.format_text(once) == once, path

    def test_format_preserves_behavior(self):
        for path in GOLDEN:
            text = Path(path).read_text()
            a = edl.compile_text(text).circuit
            b = edl.compile_text(edl.format_text(text)).circuit
            settings_sets = [{}]
            for cn in a.choice_names():
                alts = a.find_choice(cn).alternatives
                settings_sets = [
                    {**s, cn: alt} for s in settings_sets for alt in alts
                ]
            for s in settings_sets:
                sa, sb = evolve(a, dict(s)), evolve(b, dict(s))
                assert not sa.blocked.any() and not sb.blocked.any()
                assert phase_deviations(sa.amps, sb.amps)[0] < 1e-12
                assert abs(sa.weights[0] - sb.weights[0]) < 1e-12

    def test_canonical_complex_rendering(self):
        res = edl.parse(MINIMAL.replace("1+0i", "1"))
        out = edl.format_document(res.document)
        assert "SOURCE 1+0i |arm=t>" in out

    def test_angles_are_canonical_and_labels_verbatim(self):
        text = TWO_DOFS + (
            "STAGE a : phase arm t 1.50\n"
            "STAGE b : qwp pol 1.50\n"
            "STAGE c : pol pol 1.50 when arm=t\n"
            "STAGE d : bs arm 1.50 r\n"
            "DETECT D : arm basis=path\n"
        )
        assert edl.format_text(text) == (
            "EXPERIMENT x\n\nDOF arm : t r\nDOF pol : h v\n\n"
            "SOURCE 1+0i |arm=t, pol=h>\n\n"
            "STAGE a : phase arm t 1.5\n"
            "STAGE b : qwp pol 1.5\n"
            "STAGE c : pol pol 1.5 when arm=t\n"
            "STAGE d : bs arm 1.50 r\n"
            "DETECT D : arm basis=path\n"
        )


class TestTotality:
    @given(st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_parser_never_raises_on_arbitrary_text(self, text):
        edl.parse(text)  # must not raise

    @given(
        st.lists(
            st.sampled_from(
                [
                    "EXPERIMENT x",
                    "DOF a : x y",
                    "SOURCE 1+0i |a=x>",
                    "STAGE s : split a",
                    "CHOICE c : alt {",
                    "} | other {",
                    "}",
                    "DETECT D : a basis=path",
                    "garbage line",
                    "STAGE : :",
                    "|a=x>",
                ]
            ),
            max_size=12,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_shuffled_statement_soup_never_raises(self, lines):
        res = edl.parse("\n".join(lines))
        if res.ok:
            edl.compile_document(res.document)  # must not raise either
