import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesim import scenarios
from qesim.circuit import evolve, evolve_rows
from qesim.qstate import (
    BasisChange,
    CompositionError,
    Dof,
    StateVector,
    ValidationError,
    contract,
    global_phase_deviation,
    inner,
    rebase,
)

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
        s = StateVector.basis_state(AB, ("a1", "b2"))
        assert s.amplitude(("a1", "b2")) == 1.0
        assert s.amplitude(("a0", "b0")) == 0.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            StateVector(AB[:1], np.array([1.0, 1.0]))

    def test_silently_fixes_tiny_norm_drift(self):
        eps = 1e-11
        s = StateVector(AB[:1], np.array([1.0 + eps, 0.0]))
        assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-14

    def test_from_amplitudes_normalizes(self):
        s = StateVector.from_amplitudes(AB[:1], {("a0",): 3.0, ("a1",): 4.0})
        assert abs(s.amplitude(("a0",)) - 0.6) < 1e-15

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


class TestTensorInner:
    def test_inner_self_is_one(self):
        s = random_state(AB)
        assert abs(inner(s, s) - 1.0) < 1e-12

    def test_inner_requires_same_space(self):
        with pytest.raises(CompositionError):
            inner(random_state(AB[:1]), random_state(AB[1:]))


class TestRebase:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_with_random_unitaries(self, seed):
        rng = np.random.default_rng(seed)
        s = random_state(AB, rng)
        u = random_unitary(3, rng)
        fwd = BasisChange("b", u, ("n0", "n1", "n2"))
        back = BasisChange("b", u.conj().T, AB[1].labels)
        s2 = rebase(rebase(s, fwd), back)
        assert s2.dofs == s.dofs
        assert np.max(np.abs(s2.amps - s.amps)) < 1e-12

    def test_rebase_preserves_norm_and_weight(self):
        s = random_state(AB, weight=0.25)
        u = random_unitary(2)
        s2 = rebase(s, BasisChange("a", u, ("p", "m")))
        assert abs(np.vdot(s2.amps, s2.amps).real - 1.0) < 1e-12
        assert s2.weight == 0.25

    def test_nonunitary_matrix_rejected(self):
        with pytest.raises(ValidationError):
            BasisChange("a", np.array([[1, 1], [0, 1]]), ("p", "m"))


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


class TestGlobalPhase:
    @given(st.floats(0, 2 * math.pi, allow_nan=False), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_phase_rotation_is_equivalent(self, theta, seed):
        s = random_state(AB, np.random.default_rng(seed))
        rotated = StateVector(s.dofs, s.amps * np.exp(1j * theta), s.weight)
        assert global_phase_deviation(s, rotated) < 1e-10
        assert global_phase_deviation(rotated, s) < 1e-10

    def test_distinct_states_are_not_equivalent(self):
        a = StateVector.basis_state(AB, ("a0", "b0"))
        b = StateVector.basis_state(AB, ("a1", "b0"))
        assert not global_phase_deviation(a, b) < 1e-10
        assert global_phase_deviation(a, b) > 0.5

    def test_relative_phase_is_detected(self):
        d = AB[:1]
        a = StateVector.from_amplitudes(d, {("a0",): 1, ("a1",): 1})
        b = StateVector.from_amplitudes(d, {("a0",): 1, ("a1",): -1})
        assert not global_phase_deviation(a, b) < 1e-10


def test_array_holders_compare_by_identity():
    # dataclass equality over an ndarray field would raise instead of answering
    circuit = scenarios.build("mz_two_bs").circuit
    op = circuit.stages[0].op
    state = evolve(circuit, {})
    stack = evolve_rows(circuit, 2, {}, {})
    change = BasisChange("a", np.eye(2), ("x", "y"))
    for obj, twin in [
        (state, evolve(circuit, {})),
        (stack, evolve_rows(circuit, 2, {}, {})),
        (change, BasisChange("a", np.eye(2), ("x", "y"))),
        (op, scenarios.build("mz_two_bs").circuit.stages[0].op),
        (circuit, scenarios.build("mz_two_bs").circuit),
    ]:
        assert obj == obj and not obj != obj
        assert obj != twin and not obj == twin
        assert hash(obj) == hash(obj)
