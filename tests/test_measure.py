from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesim import scenarios
from qesim.circuit import Circuit, DetectorSpec, distribution_from_state, joint_distribution
from qesim.events import generate_events
from qesim.measure import (
    ConditioningError,
    OutcomeDistribution,
    ValidationError,
    conditional,
    marginal,
    rng_for,
    total_variation,
)
from qesim.qstate import Dof, StateVector
from test_kernel_oracle import stack_of

A = Dof("a", ("a0", "a1"))
B = Dof("b", ("b0", "b1", "b2"))


def random_state(seed, weight=1.0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    return StateVector((A, B), v / np.linalg.norm(v), weight)


def born(s, measured):
    """The Born distribution of ``s`` over ``measured`` (dof, basis) pairs,
    one detector per dof; unmeasured dofs are summed out."""
    return distribution_from_state(
        stack_of([s], [False]), [DetectorSpec(f"D_{dof}", measured=((dof, basis),)) for dof, basis in measured]
    )


def sampled_counts(s, measured, shots, seed):
    """Outcome counts of ``shots`` sampled events of one detector measuring
    ``measured`` on a circuit whose source is ``s``."""
    c = Circuit(s.dofs, s, (DetectorSpec("D", measured=tuple(measured)),))
    log = generate_events(c, shots=shots, seed=seed)
    return {log.labels[k][1]: n for k, n in Counter(log._runs["D"].label.tolist()).items()}


ALL = [("a", "path"), ("b", "path")]


class TestOutcomeDistribution:
    def test_mass_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            OutcomeDistribution(("a",), (("a0",),), [0.5], 0.9)

    def test_negative_probability_rejected(self):
        with pytest.raises(ValidationError):
            OutcomeDistribution(("a",), (("a0", "a1"),), [-0.1, 1.1], 1.0)

    def test_rounding_negatives_clipped_to_zero(self):
        d = OutcomeDistribution(("a",), (("a0", "a1"),), [-1e-13, 1.0], 1.0)
        assert d.probs.tolist() == [0.0, 1.0]

    def test_fortran_ordered_probabilities_are_clipped_as_c_ordered(self):
        labels = (("x", "y"), ("u", "v"))
        probs = [[-1e-13, 0.5], [0.25, 0.25 + 1e-13]]
        f = OutcomeDistribution(("a", "b"), labels, np.asfortranarray(probs), 1.0)
        c = OutcomeDistribution(("a", "b"), labels, np.array(probs), 1.0)
        assert f.probs.min() == 0.0
        assert f.probs.tobytes() == c.probs.tobytes() and f.to_csv() == c.to_csv()

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            OutcomeDistribution(("a",), (("a0", "a1"),), [float("nan"), 1.0], 1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            OutcomeDistribution(("a",), (("a0", "a1"),), [[0.5, 0.5]], 1.0)

    def test_prob_of_a_label_tuple_of_the_wrong_arity_raises(self):
        # it used to answer 0.0
        d = joint_distribution(scenarios.build("mz_two_bs").circuit)
        with pytest.raises(ValidationError, match=r"no outcome \('t', 'r'\) over axes \('arm',\)"):
            d.prob(("t", "r"))

    def test_prob_of_a_label_the_axis_does_not_have_raises(self):
        # it used to answer 0.0
        d = joint_distribution(scenarios.build("mz_two_bs").circuit)
        assert d.prob("t") + d.prob(("r",)) == pytest.approx(1.0)
        with pytest.raises(ValidationError, match=r"no outcome \('x',\) over axes \('arm',\)"):
            d.prob("x")

    def test_prob_of_the_all_absorbed_distribution_is_zero(self):
        d = OutcomeDistribution(("a", "b"), ((), ()), np.zeros((0, 0)), 0.0)
        assert d.prob(("a0", "b0")) == 0.0
        with pytest.raises(ValidationError):
            d.prob("a0")

    def test_renormalized(self):
        d = OutcomeDistribution(("a",), (("a0",),), [0.25], 0.25)
        one = OutcomeDistribution(("a",), (("a0",),), [1.0], 1.0)
        assert abs(total_variation(d, one)) < 1e-15


class TestBorn:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_probabilities_sum_to_weight(self, seed):
        s = random_state(seed, weight=0.5)
        d = born(s, ALL)
        assert abs(sum(d.outcomes.values()) - 0.5) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_axis_order_invariance(self, seed):
        s = random_state(seed)
        ab = born(s, ALL)
        ba = born(s, ALL[::-1])
        for (x, y), p in ab.outcomes.items():
            assert abs(ba.prob((y, x)) - p) < 1e-12

    def test_rebased_measurement(self):
        s = StateVector.from_amplitudes((A,), {("a0",): 1, ("a1",): 1})
        d = born(s, [("a", "pm45")])
        assert abs(d.prob(("+",)) - 1.0) < 1e-12
        assert d.prob(("-",)) < 1e-15

    def test_marginal_consistency(self):
        s = random_state(7)
        joint = born(s, ALL)
        only_a = born(s, [("a", "path")])
        m = marginal(joint, ["a"])
        for k in only_a.outcomes:
            assert abs(m.prob(k) - only_a.prob(k)) < 1e-12


class TestConditional:
    def test_conditional_renormalizes(self):
        joint = born(random_state(3), ALL)
        c = conditional(joint, ("a", "a0"))
        assert abs(sum(c.outcomes.values()) - 1.0) < 1e-12
        assert c.axes == ("b",)

    def test_conditioning_on_null_outcome_raises(self):
        s = StateVector.from_amplitudes((A,), {("a0",): 1.0})
        d = born(s, [("a", "path")])
        with pytest.raises(ConditioningError):
            conditional(d, ("a", "a1"))

    def test_conditioning_on_a_label_the_axis_does_not_have_raises(self):
        # it used to raise ConditioningError: P(ppol=zz) = 0
        d = joint_distribution(scenarios.build("walborn").circuit, {"p_pol": "absent"})
        with pytest.raises(ValidationError, match=r"^axis 'ppol' has no label 'zz'; its labels: \+, -$"):
            conditional(d, ("ppol", "zz"))

    def test_conditioning_the_all_absorbed_distribution_raises_conditioning_error(self):
        # its label tuples are empty, so no label is missing: P(a=a0) is 0, as prob says
        d = OutcomeDistribution(("a", "b"), ((), ()), np.zeros((0, 0)), 0.0)
        with pytest.raises(ConditioningError, match=r"P\(a=a0\) = 0"):
            conditional(d, ("a", "a0"))


class TestMarginal:
    def test_a_repeated_axis_raises(self):
        # numpy's transpose used to raise a bare ValueError: axes don't match array
        d = joint_distribution(scenarios.build("walborn").circuit, {"p_pol": "absent"})
        with pytest.raises(ValidationError, match="axis 'ppol' is named twice"):
            marginal(d, ["ppol", "ppol"])
        with pytest.raises(ValidationError, match="axis 'ppol' is named twice"):
            marginal(d, ["ppol", "D_s", "ppol"])


class TestTotalVariation:
    def test_identical_distributions(self):
        d = born(random_state(5), [("a", "path")])
        assert total_variation(d, d) < 1e-15

    def test_disjoint_distributions(self):
        a = OutcomeDistribution(("x",), (("0", "1"),), [1.0, 0.0], 1.0)
        b = OutcomeDistribution(("x",), (("0", "1"),), [0.0, 1.0], 1.0)
        assert abs(total_variation(a, b) - 1.0) < 1e-15

    def test_mass_is_renormalized_away(self):
        a = OutcomeDistribution(("x",), (("0", "1"),), [0.3, 0.3], 0.6)
        b = OutcomeDistribution(("x",), (("0", "1"),), [0.5, 0.5], 1.0)
        assert total_variation(a, b) < 1e-15

    @pytest.mark.parametrize("mass", [0.0, 0.5e-15])
    def test_an_empty_side_cannot_be_renormalized(self, mass):
        empty = OutcomeDistribution(("x",), (("0", "1"),), [mass, 0.0], mass)
        full = OutcomeDistribution(("x",), (("0", "1"),), [0.5, 0.5], 1.0)
        for a, b in ((empty, full), (full, empty)):
            with pytest.raises(ConditioningError, match="^cannot renormalize an empty distribution$"):
                total_variation(a, b)


class TestSampling:
    def test_identical_seed_identical_counts(self):
        s = random_state(11)
        assert sampled_counts(s, ALL, 5000, seed=42) == sampled_counts(s, ALL, 5000, seed=42)

    def test_different_seeds_differ(self):
        s = random_state(11)
        measured = [("a", "path")]
        assert sampled_counts(s, measured, 5000, seed=1) != sampled_counts(s, measured, 5000, seed=2)

    def test_counts_sum_to_shots(self):
        counts = sampled_counts(random_state(13), [("b", "path")], 1234, seed=0)
        assert sum(counts.values()) == 1234

    def test_frequencies_within_5_sigma(self):
        s = random_state(17)
        d = born(s, ALL)
        shots = 100_000
        counts = sampled_counts(s, ALL, shots, seed=99)
        for k, p in d.outcomes.items():
            sigma = max(np.sqrt(shots * p * (1 - p)), 1.0)
            assert abs(counts.get(k, 0) - shots * p) < 5 * sigma

    def test_rng_streams_are_independent_named_algorithm(self):
        a = rng_for(7).random(4)
        b = rng_for(8).random(4)
        assert not np.allclose(a, b)
        assert np.allclose(a, rng_for(7).random(4))
        pcg64 = np.random.Generator(np.random.PCG64(np.random.SeedSequence((7, 0))))
        assert np.array_equal(a, pcg64.random(4))
