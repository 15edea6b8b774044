import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesim import scenarios
from qesim.circuit import evolve, evolve_rows
from qesim.elements import apply_op, beam_splitter
from qesim.qstate import (
    CompositionError,
    Dof,
    StateStack,
    StateVector,
    ValidationError,
    contract,
    phase_deviations,
    rebase,
)
from test_kernel_oracle import stack_of

RNG = np.random.default_rng(12345)


def random_state(dofs, rng=RNG, weight=1.0):
    n = int(np.prod([d.dim for d in dofs]))
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return StateVector(tuple(dofs), v / np.linalg.norm(v), weight)


def random_unitary(n, rng=RNG):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


AB = (Dof("a", ("a0", "a1")), Dof("b", ("b0", "b1", "b2")))


class TestDof:
    def test_labels_and_index(self):
        d = Dof("pol", ("v", "h"))
        assert d.dim == 2 and d.index("h") == 1

    def test_rejects_single_label(self):
        with pytest.raises(ValidationError):
            Dof("x", ("only",))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError):
            Dof("x", ("l", "l"))


class TestStateVector:
    def test_basis_state_amplitudes(self):
        s = StateVector.from_amplitudes(AB, {("a1", "b2"): 1.0})
        assert s.tensor_view()[1, 2] == 1.0
        assert s.tensor_view()[0, 0] == 0.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            StateVector(AB[:1], np.array([1.0, 1.0]))

    def test_silently_fixes_tiny_norm_drift(self):
        eps = 1e-11
        s = StateVector(AB[:1], np.array([1.0 + eps, 0.0]))
        assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-14

    def test_from_amplitudes_normalizes(self):
        s = StateVector.from_amplitudes(AB[:1], {("a0",): 3.0, ("a1",): 4.0})
        assert abs(s.amps[0] - 0.6) < 1e-15

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_from_amplitudes_divides_by_the_plain_norm(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        s = StateVector.from_amplitudes(AB, dict(zip([(a, b) for a in AB[0].labels for b in AB[1].labels], v)))
        assert s.amps.tobytes() == (v / np.linalg.norm(v)).tobytes()

    @pytest.mark.parametrize("scale", [1e-20, 1e-200, 1e-320, 1e200, 1e307])
    def test_from_amplitudes_normalizes_tiny_and_huge_sources(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = StateVector.from_amplitudes(AB[:1], {("a0",): scale, ("a1",): scale})
        assert np.allclose(s.amps, [2**-0.5, 2**-0.5], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("amps", [{}, {("a0",): 0.0}, {("a0",): math.inf}, {("a1",): complex(1, math.nan)}])
    def test_from_amplitudes_rejects_all_zero_or_not_finite(self, amps):
        with pytest.raises(ValidationError, match="not normalizable"):
            StateVector.from_amplitudes(AB[:1], amps)

    def test_a_nan_amplitude_is_rejected(self):
        with pytest.raises(ValidationError, match="not normalized"):
            StateVector(AB[:1], np.array([math.nan, 0]))

    def test_apply_op_rejects_a_nan_row(self):
        # row 1 is NaN; row 0 is a unit state, and row 2 is blocked
        amps = np.array([[1, 0], [math.nan, 0], [0, 0]], dtype=complex)
        stack = StateStack(AB[:1], amps, np.array([1.0, 1.0, 0.0]), np.array([False, False, True]))
        with pytest.raises(ValidationError, match="not normalized"):
            apply_op(stack, beam_splitter(AB[0], "a0", "a1"))

    def test_duplicate_dof_names_rejected(self):
        with pytest.raises(CompositionError):
            StateVector((Dof("x", ("0", "1")), Dof("x", ("2", "3"))), np.eye(4)[0])

    def test_weight_bounds(self):
        with pytest.raises(ValidationError):
            StateVector(AB[:1], np.array([1.0, 0.0]), weight=1.5)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_random_states_are_normalized(self, seed):
        s = random_state(AB, np.random.default_rng(seed))
        assert abs(np.vdot(s.amps, s.amps).real - 1.0) < 1e-12


class TestRebase:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_with_random_unitaries(self, seed):
        rng = np.random.default_rng(seed)
        s = random_state(AB, rng)
        u = random_unitary(3, rng)
        fwd = rebase(stack_of([s], [False]), "b", u, ("n0", "n1", "n2"))
        s2 = rebase(fwd, "b", u.conj().T, AB[1].labels)
        assert s2.dofs == s.dofs
        assert np.max(np.abs(s2.amps[0] - s.tensor_view())) < 1e-12

    def test_rebase_preserves_norm_and_weight(self):
        s = random_state(AB, weight=0.25)
        u = random_unitary(2)
        s2 = rebase(stack_of([s], [False]), "a", u, ("p", "m"))
        assert abs(np.vdot(s2.amps, s2.amps).real - 1.0) < 1e-12
        assert s2.weights[0] == 0.25


@pytest.mark.parametrize("dof, matrix, labels, message", [
    ("a", np.ones((2, 3)), ("p", "m"), "basis-change matrix must be square"),
    ("a", np.ones(2), ("p", "m"), "basis-change matrix must be square"),
    ("b", np.eye(2), ("p", "m"), "basis change dimension 2 != dof dim 3"),
    ("a", np.eye(2), ("p", "m", "z"), "label count must match matrix dimension"),
    ("a", np.array([[1, 1], [0, 1]]), ("p", "m"), "basis-change matrix is not unitary"),
], ids=["non_square", "not_a_matrix", "wrong_dimension", "wrong_label_count", "not_unitary"])
def test_rebase_rejects_an_invalid_basis_change(dof, matrix, labels, message):
    stack = stack_of([random_state(AB)], [False])
    with pytest.raises(ValidationError, match=f"^{message}$"):
        rebase(stack, dof, matrix, labels)


class TestContract:
    def test_leading_axes_of_m_take_the_contracted_places(self):
        t = RNG.normal(size=(2, 3, 4, 2)) + 1j * RNG.normal(size=(2, 3, 4, 2))
        m = RNG.normal(size=(5, 6, 2, 4)) + 1j * RNG.normal(size=(5, 6, 2, 4))
        got = contract(t[None], m[None], (4, 3))[0]
        assert got.shape == (2, 3, 6, 5)
        assert np.allclose(got, np.einsum("xyab,iqba->iqyx", m, t), atol=1e-12)

    def test_single_axis_is_a_matrix_on_that_axis(self):
        t = RNG.normal(size=(3, 2, 3))
        m = RNG.normal(size=(7, 2))
        assert np.allclose(contract(t[None], m[None], (2,))[0], np.einsum("ka,iaj->ikj", m, t))

    def test_empty_stack_of_matrices(self):
        assert contract(np.zeros((0, 2, 3)), np.zeros((0, 7, 2)), (1,)).shape == (0, 7, 3)


def phase_deviation(a, b):
    """``phase_deviations`` of two amplitude arrays of one shape, as stacks of one."""
    return float(phase_deviations(a[None], b[None])[0])


class TestGlobalPhase:
    @given(st.floats(0, 2 * math.pi, allow_nan=False), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_phase_rotation_is_equivalent(self, theta, seed):
        s = random_state(AB, np.random.default_rng(seed))
        rotated = s.amps * np.exp(1j * theta)
        assert phase_deviation(s.amps, rotated) < 1e-10
        assert phase_deviation(rotated, s.amps) < 1e-10

    def test_distinct_states_are_not_equivalent(self):
        a = StateVector.from_amplitudes(AB, {("a0", "b0"): 1.0}).amps
        b = StateVector.from_amplitudes(AB, {("a1", "b0"): 1.0}).amps
        assert not phase_deviation(a, b) < 1e-10
        assert phase_deviation(a, b) > 0.5

    def test_relative_phase_is_detected(self):
        d = AB[:1]
        a = StateVector.from_amplitudes(d, {("a0",): 1, ("a1",): 1}).amps
        b = StateVector.from_amplitudes(d, {("a0",): 1, ("a1",): -1}).amps
        assert not phase_deviation(a, b) < 1e-10

    def test_an_all_zero_b_gives_the_largest_magnitude_of_a(self):
        # |a_k - c * 0| is |a_k| for every phase c; no 0/0, so no RuntimeWarning
        a = np.array([0.6, -0.8j])
        assert phase_deviation(a, np.zeros(2, complex)) == 0.8
        assert phase_deviation(np.zeros(2, complex), np.zeros(2, complex)) == 0.0

    def test_comparison_requires_one_shape(self):
        with pytest.raises(CompositionError):
            phase_deviation(random_state(AB[:1]).amps, random_state(AB[1:]).amps)


def test_array_holders_compare_by_identity():
    # dataclass equality over an ndarray field, or hash() over a dict field
    # (a CHOICE's alternatives), would raise instead of answering
    circuit = scenarios.build("mz_two_bs").circuit
    walborn = scenarios.build("walborn").circuit
    op = circuit.stages[0]
    state = evolve(circuit, {})
    stack = evolve_rows(circuit, 2, {}, {})
    for obj, twin in [
        (state, evolve(circuit, {})),
        (stack, evolve_rows(circuit, 2, {}, {})),
        (op, scenarios.build("mz_two_bs").circuit.stages[0]),
        (circuit, scenarios.build("mz_two_bs").circuit),
        (walborn, scenarios.build("walborn").circuit),
        (walborn.find_choice("p_pol"), scenarios.build("walborn").circuit.find_choice("p_pol")),
    ]:
        assert obj == obj and not obj != obj
        assert obj != twin and not obj == twin
        assert hash(obj) == hash(obj)
