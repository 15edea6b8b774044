import math

import numpy as np
import pytest

from qesim.qstate import Dof, StateStack, StateVector, ValidationError
from qesim.screen import (
    BIN_LABELS,
    BINS,
    DELTA,
    Pattern,
    fringe_visibility,
    pattern_from_bin_probs,
    pattern_from_state,
    sum_patterns,
)
from test_kernel_oracle import stack_of

SLIT = Dof("slit", ("s1", "s2"))
POL = Dof("pol", ("v", "h"))


def one(dofs, amps):
    """The stack of the one state with amplitudes ``amps`` (normalized)."""
    return stack_of([StateVector.from_amplitudes(dofs, amps)], [False])


class TestGeometry:
    def test_delta_is_linear_in_x(self):
        # equal bins centered on x = 0: equal phase steps, odd about the middle
        steps = np.diff(DELTA)
        assert np.ptp(steps) < 1e-12 * steps[0]
        assert np.max(np.abs(DELTA + DELTA[::-1])) < 1e-12

    def test_bin_labels_are_stable(self):
        assert len(BIN_LABELS) == BINS
        assert BIN_LABELS[7] == "bin007"


class TestPatterns:
    def test_coherent_pattern_is_one_plus_cos(self):
        s = one((SLIT,), {("s1",): 1, ("s2",): 1})
        p = pattern_from_state(s, "slit")
        expect = 1 + np.cos(DELTA)
        assert np.max(np.abs(np.array(p.intensities) - expect)) < 1e-12

    def test_marked_pattern_is_flat(self):
        # which-slit marking on an auxiliary dof removes the cross term
        s = one(
            (SLIT, POL), {("s1", "v"): 1, ("s2", "h"): 1}
        )
        p = pattern_from_state(s, "slit")
        assert np.max(np.abs(np.array(p.intensities) - 1.0)) < 1e-12

    def test_relative_phase_shifts_fringes(self):
        s = one((SLIT,), {("s1",): 1, ("s2",): 1j})
        p = pattern_from_state(s, "slit")
        expect = 1 + np.sin(DELTA)
        assert np.max(np.abs(np.array(p.intensities) - expect)) < 1e-12

    def test_csv_round_shape(self):
        p = pattern_from_state(one((SLIT,), {("s1",): 1.0}), "slit")
        lines = p.to_csv().strip().split("\n")
        assert lines[0] == "x,intensity"
        assert len(lines) == BINS + 1


    def test_pattern_reads_a_stack_of_one(self):
        s = one((SLIT,), {("s1",): 1, ("s2",): 1})
        two = StateStack(s.dofs, s.amps.repeat(2, axis=0), s.weights.repeat(2), s.blocked.repeat(2))
        with pytest.raises(ValidationError, match="expected a stack of one state, got 2"):
            pattern_from_state(two, "slit")


class TestVisibility:
    def test_full_visibility(self):
        s = one((SLIT,), {("s1",): 1, ("s2",): 1})
        p = pattern_from_state(s, "slit")
        assert abs(fringe_visibility(p) - 1.0) < 1e-12

    def test_zero_visibility(self):
        p = Pattern(np.ones(BINS))
        assert fringe_visibility(p) < 1e-12

    def test_partial_visibility(self):
        # amplitudes sqrt(3)/2 and 1/2 give coherence 2*(sqrt(3)/4) = sin(60)
        s = one(
            (SLIT,), {("s1",): math.sqrt(3) / 2, ("s2",): 0.5}
        )
        p = pattern_from_state(s, "slit")
        assert abs(fringe_visibility(p) - math.sin(math.pi / 3)) < 1e-12

    def test_fitted_visibility_ignores_bin_placement(self):
        # fringes shifted so that no bin center sits on an extremum still
        # report visibility 1, though the largest bin is below 2
        s = one((SLIT,), {("s1",): 1, ("s2",): np.exp(0.37j)})
        p = pattern_from_state(s, "slit")
        assert p.intensities.max() < 2 - 1e-6
        assert abs(fringe_visibility(p) - 1.0) < 1e-9

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-9])
    def test_non_finite_or_negative_intensity_rejected(self, bad):
        v = np.ones(BINS)
        v[7] = bad
        with pytest.raises(ValidationError, match="finite and non-negative"):
            Pattern(v)

    def test_intensities_are_one_read_only_value_per_bin(self):
        with pytest.raises(ValidationError, match="expected 256 intensities"):
            Pattern(np.ones(255))
        p = Pattern(np.ones(BINS))
        with pytest.raises(ValueError):
            p.intensities[0] = 2.0


class TestPatternAlgebra:
    def test_fringe_plus_antifringe_is_flat(self):
        a = one((SLIT,), {("s1",): 1, ("s2",): 1})
        b = one((SLIT,), {("s1",): 1, ("s2",): -1})
        total = sum_patterns(
            pattern_from_state(a, "slit"), pattern_from_state(b, "slit"), (0.5, 0.5)
        )
        assert np.max(np.abs(np.array(total.intensities) - 1.0)) < 1e-12

    def test_histogram_normalization(self):
        p = pattern_from_bin_probs(
            {BIN_LABELS[i]: c for i, c in enumerate([2.0, 4.0, 2.0, 0.0])}
        )
        assert abs(sum(p.intensities) / BINS - 1.0) < 1e-12
