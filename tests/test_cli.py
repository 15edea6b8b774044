import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qesim
from qesim import circuit, edl, elements as el, events, scenarios
from qesim.cli import build_parser, main
from qesim.measure import OutcomeDistribution
from qesim.qstate import ValidationError
from test_sample_pin import chain_edl

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "qesim", "golden")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_python_m_qesim_runs_the_cli(capsys):
    env = {**os.environ, "PYTHONPATH": str(Path(qesim.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "qesim", "verify", "two_slit"],
                          capture_output=True, text=True, env=env, timeout=120)
    code, out, _ = run_cli(capsys, "verify", "two_slit")
    assert proc.returncode == code == 0
    assert proc.stdout == out


@pytest.mark.parametrize("argv", ["sample walborn_delayed --setting p_pol=absent -n 100000",
                                  "run chain16.edl --format csv", "run chain14.edl --format csv",
                                  "sweep mz_two_bs --steps 100000"])
def test_a_reader_that_leaves_early_ends_the_command_quietly(tmp_path, argv):
    # each output has a block larger than a pipe holds, so the writer meets the
    # closed pipe; the 14-dof chain is one block, whose one write the closing
    # cuts short: the writer must write the rest again to see it
    for dofs in (14, 16):
        (tmp_path / f"chain{dofs}.edl").write_text(chain_edl(dofs))
    env = {**os.environ, "PYTHONPATH": str(Path(qesim.__file__).resolve().parent.parent)}
    proc = subprocess.Popen([sys.executable, "-m", "qesim", *argv.split()], cwd=tmp_path, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait(timeout=120) == 1


class TestRun:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "run", "mz_two_bs")
        assert code == 0
        doc = json.loads(out)
        assert doc["axes"] == ["arm"]
        probs = {tuple(o["labels"]): o["p"] for o in doc["outcomes"]}
        assert abs(probs[("r",)] - 1.0) < 1e-12

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "run", "mz_two_bs", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "arm,p"

    def test_edl_target_with_setting(self, capsys):
        path = os.path.join(GOLDEN_DIR, "analyzer_loop.edl")
        code, out, _ = run_cli(
            capsys, "run", path, "--setting", "mask=block_L", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["totalMass"] - 0.5) < 1e-12

    def test_unknown_target_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "not_a_scenario")
        assert code == 2 and "unknown target" in err

    def test_bad_setting_reported(self, capsys):
        code, _, err = run_cli(capsys, "run", "wheeler", "--setting", "screen")
        assert code == 2 and "expected name=value" in err

    def test_missing_setting_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "wheeler")
        assert code == 1 and "missing settings" in err

    def test_unwritable_out_is_a_one_line_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "run", "mz_two_bs", "--out", str(path))
        assert code == 1 and out == ""
        assert err.startswith("qesim: ") and err.count("\n") == 1 and str(path) in err

    def test_out_file_and_determinism(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "run", "walborn", "--setting", "p_pol=absent", "--out", str(p1))
        run_cli(capsys, "run", "walborn", "--setting", "p_pol=absent", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_ascii_bins_follow_the_detector_geometry(self, capsys):
        code, _, err = run_cli(capsys, "run", "walborn", "--setting", "p_pol=absent", "--ascii")
        assert code == 0
        lines = err.splitlines()
        assert lines[0] == "-- D_s --" and len(lines) == 1 + 256
        assert max(map(len, lines[1:])) == 60

    def test_ascii_of_all_blocked_screen_is_empty(self, capsys, tmp_path):
        path = tmp_path / "blocked.edl"
        path.write_text(
            "EXPERIMENT blocked\nDOF slit : s1 s2\nSOURCE 1+0i |slit=s1>\n"
            "STAGE stop : block slit s1\nDETECT D_s : screen slit\n"
        )
        code, out, err = run_cli(capsys, "run", str(path), "--ascii")
        assert code == 0 and json.loads(out)["outcomes"] == []
        assert err == "-- D_s --\n" + "\n" * 256


class TestVerify:
    def test_single_scenario_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "mz_two_bs")
        assert code == 0
        assert "PASS mz_two_bs.p_d2_cos2_half_phi" in out
        assert out.strip().endswith("0 failing check(s)")

    def test_loop_checks_evolve_their_inputs_stacked(self, capsys):
        # the random-input loop checks run one stacked evolution per setting;
        # one ``evolve`` per input would make about 750 ``apply_op`` calls.
        # A scenario's checks share each evolved state (137 and 37 calls
        # when each check evolved its own)
        evolve_rows = mock.Mock(wraps=circuit.evolve_rows)
        with mock.patch.object(el, "apply_op", wraps=el.apply_op) as apply_op, \
                mock.patch.object(circuit, "evolve_rows", evolve_rows), \
                mock.patch.object(scenarios, "evolve_rows", evolve_rows):
            code, out, _ = run_cli(capsys, "verify")
        assert code == 0 and out.endswith("OK: 0 failing check(s)\n")
        assert apply_op.call_count <= 110
        assert evolve_rows.call_count <= 24

    def test_a_check_above_its_tol_fails_verify(self, capsys):
        # the two-slit fringes measured against visibility 0 read about 1
        rows = scenarios._CATALOG["two_slit"]
        flat = (("fringe_visibility_1", 1e-9, lambda t: scenarios._vis_gap(t, 0.0, {})),)
        with mock.patch.dict(scenarios._CATALOG, {"two_slit": flat + rows[1:]}):
            code, out, _ = run_cli(capsys, "verify", "two_slit")
        assert code == 1
        assert out == (
            "FAIL two_slit.fringe_visibility_1: measured 1.000e+00 (tol 1e-09)\n"
            "PASS two_slit.pattern_is_1_plus_cos: measured 8.882e-16 (tol 1e-10)\n"
            "FAILED: 1 failing check(s)\n"
        )

    def test_unknown_name_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "bogus")
        assert code == 2
        assert err.startswith("qesim: unknown scenario 'bogus'; valid names: two_slit, ")

    @pytest.mark.parametrize("path", [os.path.join(GOLDEN_DIR, "two_slit.edl"), "missing.edl"])
    def test_a_file_is_usage_error(self, capsys, path):
        code, out, err = run_cli(capsys, "verify", "two_slit", path)
        assert code == 2 and out == ""
        assert err == (
            f"qesim: verify takes catalog scenario names, not the file {path!r}:"
            " checks declared in .edl files are not supported yet\n"
        )


def counted(cls):
    """Patch ``cls.__post_init__`` to count the objects of ``cls`` made."""
    return mock.patch.object(cls, "__post_init__", autospec=True, side_effect=cls.__post_init__)


class TestSweep:
    def test_steps_build_no_objects(self, capsys):
        # a sweep's matrices and probabilities are arrays: the ElementOps and
        # OutcomeDistributions it makes do not grow with --steps
        run_cli(capsys, "sweep", "mz_two_bs", "--steps", "2")  # warm the catalog
        counts = []
        for steps in (2, 1024):
            with counted(el.ElementOp) as ops, counted(OutcomeDistribution) as dists:
                code, out, _ = run_cli(capsys, "sweep", "mz_two_bs", "--steps", str(steps))
            assert code == 0 and len(out.splitlines()) == steps + 1
            counts.append((ops.call_count, dists.call_count))
        assert counts[0] == counts[1]

    def test_rows_raise_what_bind_of_the_first_bad_value_raises(self):
        template = scenarios.build("mz_two_bs").template
        with pytest.raises(ValidationError) as want:
            edl.build_template(template.doc, {**template.params, "phi": math.nan})
        with pytest.raises(ValidationError) as got:
            template.rows("phi", [0.0, 1.0, math.nan, 2.0])
        assert "stage 'shift'" in str(want.value) and str(got.value) == str(want.value)

    def test_phase_sweep_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "mz_two_bs", "--steps", "3", "--stop", "3.141592653589793"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "phi,P(r),P(t)"
        assert len(lines) == 4

    def test_sweep_of_edl_file(self, capsys, tmp_path):
        # any file, any declared PARAM: mz_two_bs with its phase renamed
        text = Path(GOLDEN_DIR, "mz_two_bs.edl").read_text()
        path = tmp_path / "mz.edl"
        path.write_text(text.replace("phi", "theta"))
        code, out, _ = run_cli(
            capsys, "sweep", str(path), "--param", "theta",
            "--steps", "3", "--stop", "3.141592653589793",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,P(r),P(t)"
        assert [float(x) for x in lines[3].split(",")[1:]] == pytest.approx([0, 1], abs=1e-12)

    def test_sweep_starting_all_blocked_keeps_its_columns(self, capsys, tmp_path):
        path = tmp_path / "p.edl"
        path.write_text(
            "EXPERIMENT p\nDOF pol : h v\nPARAM theta = 0\nSOURCE 1+0i |pol=h>\n"
            "STAGE p : pol pol theta\nDETECT D : pol basis=path\n"
        )
        code, out, _ = run_cli(
            capsys, "sweep", str(path), "--param", "theta",
            "--start", "1.5707963267948966", "--stop", "0", "--steps", "3",
        )
        assert code == 0
        assert out.splitlines() == [
            "theta,P(h),P(v)",
            "1.57079632679,0,0",
            "0.785398163397,0.25,0.25",
            "0,1,0",
        ]

    def test_missing_setting_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "c.edl"
        path.write_text(
            "EXPERIMENT c\nDOF arm : t r\nPARAM phi = 0\nSOURCE 1+0i |arm=t>\n"
            "STAGE shift : phase arm t phi\n"
            "CHOICE c : a {\n    DETECT D : arm basis=path\n} | b {\n    DETECT E : arm basis=path\n}\n"
        )
        code, out, err = run_cli(capsys, "sweep", str(path), "--param", "phi")
        assert code == 1 and out == ""
        assert err == "qesim: missing settings for choices ['c']\n"

    @pytest.mark.parametrize("argv", [
        ("two_slit",),
        ("mz_two_bs", "--param", "theta"),
        (os.path.join(GOLDEN_DIR, "mz_two_bs.edl"), "--param", "theta"),
    ])
    def test_undeclared_param_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert code == 2 and out == ""
        assert "declares no PARAM" in err

    @pytest.mark.parametrize("flag, value", [("--start", "nan"), ("--stop", "inf"), ("--start", "-inf")])
    def test_non_finite_bound_is_usage_error(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "sweep", "mz_two_bs", f"{flag}={value}")
        assert code == 2 and out == ""
        assert err == f"qesim: {flag} must be finite, not {float(value)!r}\n"

    def test_steps_below_one_is_usage_error(self, capsys):
        # rejected before the target is read, as the bounds are
        code, out, err = run_cli(capsys, "sweep", "no_such.edl", "--steps", "0")
        assert code == 2 and out == ""
        assert err == "qesim: --steps must be >= 1\n"

    @pytest.mark.parametrize("target, start, stop", [
        ("mz_two_bs", "-1e308", "1e308"),  # stop - start is inf
        ("mz_two_bs", "-1e308", "5e307"),  # the last step's (stop - start) * 2 is inf
        ("no_such.edl", "-1e308", "1e308"),  # rejected before the target is read
    ])
    def test_overflowing_steps_are_usage_error(self, capsys, target, start, stop):
        code, out, err = run_cli(
            capsys, "sweep", target, f"--start={start}", f"--stop={stop}", "--steps", "3"
        )
        assert code == 2 and out == ""
        assert err == "qesim: --start and --stop are too far apart: a step overflows\n"


class TestSample:
    def test_jsonl_events(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "mz_two_bs", "-n", "10", "--seed", "1"
        )
        assert code == 0
        rows = [json.loads(l) for l in out.strip().splitlines()]
        assert len(rows) == 10
        assert all(r["det"] == "arms" for r in rows)

    def test_seed_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("QESIM_SEED", "77")
        _, out1, _ = run_cli(capsys, "sample", "mz_one_bs", "-n", "20")
        monkeypatch.delenv("QESIM_SEED")
        _, out2, _ = run_cli(capsys, "sample", "mz_one_bs", "-n", "20", "--seed", "77")
        assert out1 == out2

    def test_coincidence_histogram(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sample", "walborn_delayed", "-n", "2000", "--seed", "3",
            "--setting", "p_pol=absent",
            "--pairs", "D_s,D_p", "--offset", "D_p=1e9", "--given", "+",
        )
        assert code == 0
        assert out.splitlines()[0] == "x,intensity"
        assert "pairs" in err

    def test_sample_byte_determinism(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for p in (p1, p2):
            run_cli(
                capsys, "sample", "walborn", "-n", "200", "--seed", "5",
                "--setting", "p_pol=absent", "--out", str(p),
            )
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("flags, message", [
        (["--pairs", "D_s,D_x"], "unknown detector 'D_x' in --pairs"),
        (["--delay", "D_x=5"], "unknown detector 'D_x' in --delay"),
        (["--pairs", "D_s,D_p", "--offset", "D_x=5"], "unknown detector 'D_x' in --offset"),
        (["--delay", "D_p=nan"], "bad --delay value 'nan'"),
        (["--pairs", "D_s,D_p", "--window", "-1"], "--window must be >= 0"),
        (["--given", "+"], "--given needs --pairs"),
        (["--offset", "D_p=5"], "--offset needs --pairs"),
        (["--window", "2000"], "--window needs --pairs"),
        (["--setting", "p_pol=plus45"], "--setting 'p_pol' given twice"),
        (["-n", "-3"], "--shots must be >= 0"),
        (["--pairs", "D_s,D_p", "--given", "nosuch"],
         "--given 'nosuch' is no outcome of D_p; its outcomes: +, -"),
        (["--pairs", "D_s,D_s"], "--pairs needs two different detectors, got 'D_s' twice"),
        (["--pairs", "D_s,D_p", "--format", "jsonl"], "--format is for the event log; --pairs writes CSV"),
    ])
    def test_bad_sample_arguments_are_usage_errors(self, capsys, flags, message):
        code, out, err = run_cli(
            capsys, "sample", "walborn", "-n", "10", "--setting", "p_pol=absent", *flags
        )
        assert code == 2
        assert out == ""
        assert message in err
        if "unknown detector" in message:
            assert "active detectors: D_s, D_p" in err

    def test_given_outcome_without_pairs_is_a_check_error(self, capsys):
        # the +45 polarizer never lets D_p register -
        code, out, err = run_cli(
            capsys, "sample", "walborn", "-n", "10", "--setting", "p_pol=plus45",
            "--pairs", "D_s,D_p", "--given", "-",
        )
        assert code == 1 and out == ""
        assert err == "qesim: no pairs satisfy the condition\n"

    def test_given_needs_a_screen_as_a(self, capsys):
        # D_p measures polarisation: its events are no screen bins to histogram
        with mock.patch.object(events, "generate_events", side_effect=AssertionError("sampled")):
            code, out, err = run_cli(
                capsys, "sample", "walborn", "-n", "1000", "--setting", "p_pol=absent",
                "--pairs", "D_p,D_s", "--given", "bin000",
            )
        assert code == 2 and out == ""
        assert err == "qesim: --given needs a screen detector as A; 'D_p' is not a screen\n"

    def test_duplicate_detector_name_fails(self, capsys, tmp_path):
        # two detectors named D_s under one setting would log indistinguishable events
        text = Path(GOLDEN_DIR, "walborn.edl").read_text()
        path = tmp_path / "twin.edl"
        path.write_text(text.replace("DETECT D_p", "DETECT D_s"))
        code, out, err = run_cli(
            capsys, "sample", str(path), "-n", "2", "--setting", "p_pol=absent"
        )
        assert code == 1 and out == ""
        assert "circuit assembly failed" in err
        assert "detector name 'D_s' is used twice" in err

    def test_bad_seed_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("QESIM_SEED", "abc")
        code, out, err = run_cli(capsys, "sample", "mz_one_bs", "-n", "5")
        assert code == 2 and out == ""
        assert "QESIM_SEED" in err
        # only a sample that needs the variable reads it
        assert run_cli(capsys, "sample", "mz_one_bs", "-n", "5", "--seed", "1")[0] == 0
        assert run_cli(capsys, "verify", "mz_one_bs")[0] == 0

    def test_negative_seed(self, capsys):
        code, out, err = run_cli(capsys, "sample", "two_slit", "-n", "3", "--seed", "-1")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "--seed" in err and "non-negative" in err

    def test_negative_seed_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("QESIM_SEED", "-5")
        code, out, err = run_cli(capsys, "sample", "two_slit", "-n", "3")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "QESIM_SEED" in err and "non-negative" in err
        # --seed overrides the variable, so its value is never read
        assert run_cli(capsys, "sample", "two_slit", "-n", "3", "--seed", "0")[0] == 0


# compiles, but under every setting no DETECT stage is active
NO_DETECTOR = """EXPERIMENT dark
DOF arm : t r
PARAM phi = 0
SOURCE 1+0i |arm=t>
STAGE b1 : bs arm t r
STAGE shift : phase arm t phi
"""


@pytest.mark.parametrize("argv", [["run"], ["sample", "-n", "5"], ["sweep", "--steps", "3"]])
def test_no_detector_is_a_one_line_error(capsys, tmp_path, argv):
    path = tmp_path / "dark.edl"
    path.write_text(NO_DETECTOR)
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 1 and out == ""
    assert err == "qesim: circuit has no Detect stage under these settings\n"


@pytest.mark.parametrize("argv", [["run"], ["sweep"], ["sample", "-n", "5"]])
def test_a_file_that_is_not_utf8_is_a_one_line_error(capsys, tmp_path, argv):
    path = tmp_path / "bad.edl"
    path.write_bytes(b"EXPERIMENT caf\xe9\n" + NO_DETECTOR.encode())
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 1 and out == ""
    assert err == f"qesim: cannot read {path}: byte 14 is not UTF-8\n"


GOLDEN_BYTES = [Path(p).read_bytes() for p in sorted(Path(GOLDEN_DIR).glob("*.edl"))]


@st.composite
def edl_bytes(draw):
    """Any bytes, or a golden file with a few of its bytes replaced by any
    bytes or by encoded text."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    data = draw(st.sampled_from(GOLDEN_BYTES))
    at = draw(st.integers(0, len(data)))
    spliced = draw(st.one_of(st.binary(max_size=8), st.text(max_size=8).map(str.encode)))
    return data[:at] + spliced + data[at + draw(st.integers(0, 8)):]


@given(data=edl_bytes())
@settings(max_examples=200, deadline=None)
def test_run_of_any_file_bytes_exits_0_1_or_2(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.edl"
    path.write_bytes(data)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["run", str(path)]) in (0, 1, 2)


def _all_settings(name):
    """Every combination of choice alternatives of a catalog circuit, as flags."""
    circuit = scenarios.build(name).circuit
    combos = [[]]
    for choice in circuit.choice_names():
        alts = circuit.find_choice(choice).alternatives
        combos = [c + ["--setting", f"{choice}={alt}"] for c in combos for alt in alts]
    return combos


@pytest.mark.parametrize("name", scenarios.list_names())
class TestCatalogMatchesGoldenFile:
    """A catalog name and its golden file are the same experiment: every
    command prints the same bytes for both (``run`` differs only in the
    ``target`` it echoes)."""

    def path(self, name):
        return os.path.join(GOLDEN_DIR, f"{name}.edl")

    def test_run(self, capsys, name):
        for flags in _all_settings(name):
            by_name = run_cli(capsys, "run", name, *flags)
            by_file = run_cli(capsys, "run", self.path(name), *flags)
            assert by_name[0] == by_file[0] == 0
            docs = [json.loads(out) for _, out, _ in (by_name, by_file)]
            for doc in docs:
                del doc["target"]
            assert json.dumps(docs[0]) == json.dumps(docs[1]), flags

    def test_sample(self, capsys, name):
        for flags in _all_settings(name):
            argv = ("-n", "300", "--seed", "4", *flags)
            by_name = run_cli(capsys, "sample", name, *argv)
            assert by_name[0] == 0
            assert run_cli(capsys, "sample", self.path(name), *argv) == by_name, flags

    def test_sweep(self, capsys, name):
        argv = ("--steps", "9", "--start", "0.3")
        by_name = run_cli(capsys, "sweep", name, *argv)
        assert run_cli(capsys, "sweep", self.path(name), *argv) == by_name



@pytest.mark.parametrize("dofs, stage", [
    ("DOF pol : v h\nDOF chan : U L\nSOURCE 1+0i |pol=v, chan=U>\n", "STAGE an : analyzer pol pol"),
    ("DOF pol : a b c\nDOF chan : t m b\nSOURCE 1+0i |pol=a, chan=t>\n", "STAGE an : sg pol pol"),
])
def test_element_on_one_dof_twice_is_a_compile_error(capsys, tmp_path, dofs, stage):
    # it used to compile and then fail in evolution with a numpy traceback
    path = tmp_path / "twice.edl"
    path.write_text(f"EXPERIMENT twice\n{dofs}{stage}\nDETECT D : pol basis=path\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 1 and out == ""
    assert err == ("qesim: cannot compile experiment 'twice':\n"
                   "5:1: error: stage 'an': element targets a dof twice: ['pol', 'pol']\n")


class TestOneParser:
    """``main`` parses with one parser per process, which must hold no value
    of an earlier call."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_append_flags_start_empty_on_every_call(self, capsys):
        base = ("sample", "walborn_delayed", "-n", "50", "--seed", "2", "--setting", "p_pol=absent")
        marked = (*base, "--delay", "D_p=7")
        paired = (*marked, "--pairs", "D_s,D_p", "--offset", "D_p=7")
        first = [run_cli(capsys, *argv) for argv in (base, marked, paired)]
        # a value kept from the call before would be given twice: a usage error
        again = [run_cli(capsys, *argv) for argv in (paired, marked, base)][::-1]
        assert [code for code, _, _ in first] == [0, 0, 0]
        assert again == first
        args = build_parser().parse_args(["sample", "walborn_delayed"])
        assert (args.setting, args.delay, args.offset) == ([], [], [])

    @pytest.mark.parametrize("command", [[], ["run"], ["verify"], ["sweep"], ["sample"]])
    def test_help_is_that_of_a_fresh_parser(self, capsys, command):
        fresh = build_parser.__wrapped__()
        for _ in range(2):
            with pytest.raises(SystemExit) as e:
                main([*command, "--help"])
            assert e.value.code == 0
            got = capsys.readouterr().out
            with pytest.raises(SystemExit):
                fresh.parse_args([*command, "--help"])
            assert got == capsys.readouterr().out

    def test_usage_error_after_a_good_call_exits_2(self, capsys):
        assert run_cli(capsys, "verify", "two_slit")[0] == 0
        with pytest.raises(SystemExit) as e:
            main(["sample", "walborn_delayed", "--no-such-flag"])
        assert e.value.code == 2
        code, _, err = run_cli(capsys, "sample", "walborn_delayed", "--setting", "p_pol=absent",
                               "--given", "+")
        assert code == 2 and "--given needs --pairs" in err
