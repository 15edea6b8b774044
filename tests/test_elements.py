import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesim import elements as el
from qesim.qstate import Dof, StateStack, StateVector, ValidationError, is_unitary

POL = Dof("pol", ("v", "h"))
ARM = Dof("arm", ("t", "r"))
CHAN = Dof("chan", ("U", "L"))
SPIN = Dof("spin", ("plus", "zero", "minus"))
PATH3 = Dof("path", ("top", "mid", "bot"))


def all_unitary_elements():
    return [
        el.beam_splitter(ARM, "t", "r"),
        el.phase_shifter(ARM, "t", 0.7),
        el.analyzer(POL, CHAN),
        el.inverse_analyzer(POL, CHAN),
        el.stern_gerlach(SPIN, PATH3),
        el.inverse_stern_gerlach(SPIN, PATH3),
        el.quarter_wave_plate(POL, math.pi / 4),
        el.quarter_wave_plate(POL, -math.pi / 4),
        el.recombiner(ARM, "t"),
        el.splitter(ARM),
    ]


class TestElementOp:
    def test_every_unitary_element_is_unitary(self):
        for op in all_unitary_elements():
            assert is_unitary(op.matrix), op.name

    def test_filters_are_projectors(self):
        for op in (el.linear_polarizer(POL, 0.3), el.blocker(ARM, "t")):
            m = op.matrix
            assert np.max(np.abs(m @ m - m)) < 1e-12
            assert np.max(np.abs(m.conj().T - m)) < 1e-12

    def test_rejects_nonunitary_matrix(self):
        with pytest.raises(ValidationError):
            el.ElementOp(el.UNITARY, ("arm",), np.array([[1, 1], [0, 1]]))

    def test_rejects_nonprojector_filter(self):
        with pytest.raises(ValidationError):
            el.ElementOp(el.FILTER, ("arm",), np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_condition_cannot_target_itself(self):
        with pytest.raises(ValidationError):
            el.ElementOp(el.UNITARY, ("pol",), np.eye(2), condition=("pol", "v"))

    def test_rejects_a_repeated_target_dof(self):
        with pytest.raises(ValidationError, match=r"element targets a dof twice: \['pol', 'pol'\]"):
            el.analyzer(POL, POL)
        with pytest.raises(ValidationError, match="element targets a dof twice"):
            el.ElementOp(el.UNITARY, ("arm", "arm"), np.eye(4))

    def test_acts_on_includes_condition(self):
        op = el.linear_polarizer(POL, 0.0, condition=("arm", "t"))
        assert set(op.acts_on()) == {"pol", "arm"}


#: angles the array-form constructors must build to the bit as the scalar
#: ones do: signed zeros, multiples of pi/4, large magnitudes, seeded uniforms
STACK_ANGLES = np.concatenate([
    [0.0, -0.0, 1e6, -1e6, 1e12, -1e12, 1e300, -1e300],
    [k * math.pi / 4 for k in range(-64, 65)],
    np.random.default_rng(20261018).uniform(-50, 50, 10_000),
])


def rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def one_phase(x):
    m = np.eye(2, dtype=complex)
    m[1, 1] = np.exp(1j * x)
    return m


def one_pol(x):
    v = np.array([math.cos(x), math.sin(x)], dtype=complex)
    return np.outer(v, v.conj())


class TestStacks:
    @pytest.mark.parametrize("stack,scalar,one", [
        (lambda a: el.phase_shifter_stack(ARM, "r", a), lambda x: el.phase_shifter(ARM, "r", x), one_phase),
        (lambda a: el.quarter_wave_plate_stack(POL, a), lambda x: el.quarter_wave_plate(POL, x),
         lambda x: rot(x) @ np.diag([1.0, -1.0j]) @ rot(-x)),
        (lambda a: el.linear_polarizer_stack(POL, a), lambda x: el.linear_polarizer(POL, x), one_pol),
    ], ids=["phase", "qwp", "pol"])
    def test_stack_is_the_scalar_constructor_to_the_bit(self, stack, scalar, one):
        # ``one`` builds a single matrix by the arithmetic the golden pins were
        # made with; the scalar constructor is a stack of one
        got = stack(STACK_ANGLES)
        assert got.shape == (len(STACK_ANGLES), 2, 2) and got.flags.c_contiguous
        bad = [x for x, m in zip(STACK_ANGLES.tolist(), got)
               if not m.tobytes() == scalar(x).matrix.tobytes() == one(x).tobytes()]
        assert not bad, f"{len(bad)} angles build other bytes, the first {bad[0]!r}"

    def test_rejected_is_what_element_op_rejects(self):
        # e^{i phi} of a nan and of an infinite phi is nan+nanj: the matrices
        # the phase constructors built before they rejected such angles
        phases = np.stack([one_phase(0.3), one_phase(0.0), one_phase(0.0), one_phase(-1.0)])
        phases[1:3, 1, 1] = complex(math.nan, math.nan)
        assert el.rejected(el.UNITARY, phases).tolist() == [False, True, True, False]
        with pytest.raises(ValidationError, match="^angle nan is not finite$"):
            el.phase_shifter(ARM, "t", math.nan)
        shear, half = np.array([[1, 1], [0, 1]], dtype=complex), np.full((2, 2), 0.5j)
        assert el.rejected(el.UNITARY, np.stack([np.eye(2), shear])).tolist() == [False, True]
        assert el.rejected(el.FILTER, np.stack([one_pol(0.3), shear, half])).tolist() == [False, True, True]

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_plate_and_polarizer_reject_an_angle_not_finite(self, angle):
        stacks = (el.quarter_wave_plate_stack, el.linear_polarizer_stack,
                  lambda dof, a: el.phase_shifter_stack(dof, "h", a))
        for make in stacks:
            with pytest.raises(ValidationError, match=f"^angle {angle} is not finite$"):
                make(POL, [0.3, angle, 1.0])
        for make in (el.quarter_wave_plate, el.linear_polarizer, lambda dof, a: el.phase_shifter(dof, "h", a)):
            with pytest.raises(ValidationError, match=f"^angle {angle} is not finite$"):
                make(POL, angle)


def applied(s, op):
    """``apply_op`` on the one-row stack of ``s``."""
    stack = StateStack(s.dofs, s.tensor_view()[None], np.array([s.weight]), np.zeros(1, dtype=bool))
    return el.apply_op(stack, op)


def amp(stack, *labels):
    """Row 0's amplitude at one label of each dof."""
    return complex(stack.amps[0][tuple(d.index(label) for d, label in zip(stack.dofs, labels))])


class TestApply:
    def test_beam_splitter_amplitudes(self):
        s = StateVector.from_amplitudes((ARM,), {("t",): 1.0})
        out = applied(s, el.beam_splitter(ARM, "t", "r"))
        assert abs(amp(out, "t") - 1 / math.sqrt(2)) < 1e-12
        assert abs(amp(out, "r") - 1j / math.sqrt(2)) < 1e-12

    def test_phase_shifter_targets_one_label(self):
        s = StateVector.from_amplitudes((ARM,), {("t",): 1, ("r",): 1})
        out = applied(s, el.phase_shifter(ARM, "t", math.pi))
        ratio = amp(out, "t") / amp(out, "r")
        assert abs(ratio + 1) < 1e-12

    def test_analyzer_tags_polarization(self):
        s = StateVector.from_amplitudes(
            (POL, CHAN), {("v", "U"): 0.6, ("h", "U"): 0.8}
        )
        out = applied(s, el.analyzer(POL, CHAN))
        assert abs(amp(out, "v", "U") - 0.6) < 1e-12
        assert abs(amp(out, "h", "L") - 0.8) < 1e-12
        assert abs(amp(out, "h", "U")) < 1e-15

    def test_inverse_analyzer_undoes_analyzer(self):
        s = StateVector.from_amplitudes(
            (POL, CHAN), {("v", "U"): 0.6, ("h", "U"): 0.8j}
        )
        out = el.apply_op(applied(s, el.analyzer(POL, CHAN)), el.inverse_analyzer(POL, CHAN))
        assert np.max(np.abs(out.amps[0] - s.tensor_view())) < 1e-12

    def test_filter_folds_probability_into_weight(self):
        s = StateVector.from_amplitudes((POL,), {("v",): 0.6, ("h",): 0.8})
        out = applied(s, el.linear_polarizer(POL, 0.0))  # project onto v
        assert abs(out.weights[0] - 0.36) < 1e-12
        assert abs(amp(out, "v") - 1.0) < 1e-12

    def test_fully_blocked_row_is_blocked(self):
        s = StateVector.from_amplitudes((ARM,), {("t",): 1.0})
        out = applied(s, el.blocker(ARM, "t"))
        assert out.blocked[0] and not out.amps[0].any() and out.weights[0] == 0.0

    def test_conditioned_op_leaves_other_branch_alone(self):
        slit = Dof("slit", ("s1", "s2"))
        s = StateVector.from_amplitudes(
            (slit, POL), {("s1", "v"): 1, ("s2", "v"): 1}
        )
        out = applied(
            s, el.quarter_wave_plate(POL, math.pi / 4, condition=("slit", "s1"))
        )
        # s2 branch untouched
        assert abs(amp(out, "s2", "v") - 1 / math.sqrt(2)) < 1e-12
        assert abs(amp(out, "s2", "h")) < 1e-15
        # s1 branch rotated by the plate
        assert abs(amp(out, "s1", "h")) > 0.1

    def test_conditioned_filter_weight(self):
        slit = Dof("slit", ("s1", "s2"))
        s = StateVector.from_amplitudes(
            (slit, POL), {("s1", "v"): 1, ("s1", "h"): 1, ("s2", "v"): 1, ("s2", "h"): 1}
        )
        out = applied(s, el.linear_polarizer(POL, 0.0, condition=("slit", "s1")))
        # of the 4 equal branches only (s1, h) is absorbed
        assert abs(out.weights[0] - 0.75) < 1e-12


class TestQwpConventions:
    def test_fast_axis_eigenvalue_one(self):
        op = el.quarter_wave_plate(POL, 0.0)
        v = np.array([1.0, 0.0])
        assert np.allclose(op.matrix @ v, v)

    def test_slow_axis_eigenvalue_minus_i(self):
        op = el.quarter_wave_plate(POL, 0.0)
        v = np.array([0.0, 1.0])
        assert np.allclose(op.matrix @ v, -1j * v)

    def test_45_plate_maps_x_to_circular(self):
        # fast axis at +45: |x> goes to a circular state (equal magnitudes,
        # quarter-turn relative phase)
        op = el.quarter_wave_plate(POL, math.pi / 4)
        out = op.matrix @ np.array([1.0, 0.0])
        assert abs(abs(out[0]) - abs(out[1])) < 1e-12
        assert abs(abs((out[1] / out[0]).imag) - abs(out[1] / out[0])) < 1e-12

    @given(st.one_of(
        st.sampled_from([0.0, -0.0, math.pi / 4, -math.pi / 2, math.pi, 2 * math.pi]),
        st.floats(allow_nan=False, allow_infinity=False),
    ))
    @settings(max_examples=300, deadline=None)
    def test_no_global_phase_factor_keeps_every_bit(self, angle):
        # the matrix once was multiplied by a unit phase 1+0j; leaving the
        # factor out must not even flip the sign of a zero
        with_factor = (1.0 + 0.0j) * (rot(angle) @ np.diag([1.0, -1.0j]) @ rot(-angle))
        assert el.quarter_wave_plate(POL, angle).matrix.tobytes() == with_factor.tobytes()


class TestBasisChange:
    def test_named_bases_resolve(self):
        assert el.basis_change("path", ARM) is None
        pm = el.basis_change("pm45", POL)
        assert pm.new_labels == ("+", "-")
        lr = el.basis_change("circular", POL)
        assert lr.new_labels == ("L", "R")

    def test_unknown_basis_rejected(self):
        with pytest.raises(ValidationError):
            el.basis_change("elliptic", POL)

    def test_circular_rows_match_conventions(self):
        lr = el.basis_change("circular", POL)
        # <L|x> amplitude for |x> = (1, 0)
        assert abs(lr.matrix[0, 0] - 1 / math.sqrt(2)) < 1e-12
        assert abs(lr.matrix[0, 1] + 1j / math.sqrt(2)) < 1e-12
