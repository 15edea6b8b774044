"""Row-wise array forms against the per-row code they replaced.

``reference_phase_deviation`` is the earlier scalar global-phase deviation;
``reference_weight`` and ``reference_post_select`` are the earlier
``qstate._weight`` and ``elements._post_select``, which took one ``np.vdot``
and one ``_weight`` per row; ``reference_loop_runs`` is the earlier
``scenarios._loop_runs``, one ``np.linalg.norm`` per row, and
``reference_regrouped_gaps`` the per-phase loop of the earlier
``scenarios._regrouped_dev``.  They stay here as the definition of what
``phase_deviations``, ``_weight``, ``_post_select`` and the loop checks of
``scenarios`` compute, bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesim import elements as el
from qesim import scenarios
from qesim.circuit import evolve_rows
from qesim.measure import rng_for
from qesim.qstate import (
    NORM_TOL,
    CompositionError,
    StateStack,
    StateVector,
    ValidationError,
    _normalize_rows,
    _weight,
    phase_deviations,
)


def reference_phase_deviation(a, b):
    k = int(np.argmax(np.abs(b)))
    if b.flat[k] == 0:
        return float(np.max(np.abs(a)))
    c = a.flat[k] / b.flat[k]
    if abs(c) < 1e-15:
        return float(np.max(np.abs(a - b)))
    c = c / abs(c)
    return float(np.max(np.abs(a - c * b)))


def reference_weight(w):
    if not (-NORM_TOL <= w <= 1.0 + NORM_TOL):
        raise ValidationError(f"weight {w} outside [0, 1]")
    return float(min(max(w, 0.0), 1.0))


def reference_post_select(flat, weights):
    pass_prob = np.array([np.vdot(row, row).real for row in flat])
    blocked = pass_prob < el.ALL_BLOCKED_EPS
    flat[blocked] = 0.0
    flat[~blocked] /= np.sqrt(pass_prob[~blocked])[:, None]
    weights = np.array([0.0 if b else reference_weight(w) for w, b in zip((weights * pass_prob).tolist(), blocked.tolist())])
    _normalize_rows(flat, blocked)
    return weights, blocked


def reference_loop_runs(circ, top_label, seed, n, *masks):
    parts = rng_for(seed).normal(size=(n, 2, circ.dofs[0].dim))
    vs = [v / np.linalg.norm(v) for v in parts[:, 0] + 1j * parts[:, 1]]
    amps = np.zeros((n, *(d.dim for d in circ.dofs)), dtype=complex)
    amps[:, :, circ.dofs[1].index(top_label)] = vs
    for row in amps:
        row /= np.linalg.norm(row)
    sources = StateStack(circ.dofs, amps, np.ones(n), np.zeros(n, dtype=bool))
    return vs, sources, [evolve_rows(circ, n, {}, {"mask": mask}, sources) for mask in masks]


def reference_regrouped_gaps(stack):
    t_amp, r_amp = 1 / math.sqrt(2), 1j / math.sqrt(2)
    arm = stack.dofs[0]
    gaps = []
    for ph, amps in zip(scenarios.PHI_GRID, stack.amps):
        e = np.exp(1j * ph)
        port_t = t_amp * e * t_amp + r_amp * r_amp
        port_r = t_amp * e * r_amp + r_amp * t_amp
        gaps += [abs(complex(amps[arm.index("t")]) - port_t), abs(complex(amps[arm.index("r")]) - port_r)]
    return gaps


def same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_rows_match(a, b):
    want = np.array([reference_phase_deviation(x, y) for x, y in zip(a, b)])
    assert same_bytes(phase_deviations(a, b), want)
    assert [float(phase_deviations(x[None], y[None])[0]) for x, y in zip(a, b)] == want.tolist()


class TestPhaseDeviations:
    def test_an_argmax_tie_takes_the_first_index(self):
        # three components of b share the largest magnitude; each gives another c
        b = np.array([[0.5, 0.5j, -0.5, 0.1 + 0.2j]] * 2)
        a = np.array([[0.3, 0.7j, 0.1, 0.2], [-0.5j, 0.5, 0.5j, 0.1j]])
        assert_rows_match(a, b)

    def test_an_all_zero_b_row_gives_the_largest_magnitude_of_a(self):
        a = np.array([[0.6, -0.8j], [0.6, 0.8]])
        b = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        assert_rows_match(a, b)
        assert phase_deviations(a, b)[0] == 0.8

    def test_a_tiny_phase_compares_without_one(self):
        # |c| = |a_k / b_k| < 1e-15: max |a - b| is taken, not |a - c b / |c||
        a = np.array([[1e-17, 0.3 + 0.1j, -0.2j], [0.0, 0.5, 0.5j]])
        b = np.array([[0.9, 0.1, 0.1j], [0.8j, 0.3, 0.1]])
        assert_rows_match(a, b)

    def test_an_empty_stack(self):
        assert phase_deviations(np.zeros((0, 3), complex), np.zeros((0, 3), complex)).shape == (0,)

    def test_stacks_of_two_shapes_are_rejected(self):
        with pytest.raises(CompositionError):
            phase_deviations(np.zeros((2, 3), complex), np.zeros((3, 3), complex))

    # parts on a coarse grid (ties and zeros), on a fine one, and 1e-17 (|c| < 1e-15)
    part = st.one_of(
        st.integers(-2, 2).map(lambda k: k / 2),
        st.integers(-1024, 1024).map(lambda k: k / 1024),
        st.sampled_from([1e-17, -1e-17]),
    )

    @given(st.data(), st.integers(1, 6), st.integers(1, 9))
    @settings(max_examples=100, deadline=None)
    def test_drawn_rows(self, data, n, d):
        p = np.array(data.draw(st.lists(self.part, min_size=4 * n * d, max_size=4 * n * d))).reshape(2, n, d, 2)
        a, b = p[..., 0] + 1j * p[..., 1]
        assert_rows_match(a, b)

    def test_one_row_broadcast_against_a_stack(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(50, 3, 3)) + 1j * rng.normal(size=(50, 3, 3))
        b = np.broadcast_to(rng.normal(size=(3, 3)) + 0j, a.shape)
        assert_rows_match(a, b)


class TestWeight:
    def test_edges_clamp(self):
        assert _weight(-1e-13) == 0.0 and _weight(1 + 1e-13) == 1.0
        w = np.array([-1e-13, -0.0, 0.0, 0.25, 1.0, 1 + 1e-13])
        assert same_bytes(_weight(w), np.array([reference_weight(x) for x in w.tolist()]))

    @pytest.mark.parametrize("w", [float("nan"), 1 + 1e-11, -1e-11])
    def test_out_of_range_has_the_reference_text(self, w):
        with pytest.raises(ValidationError) as want:
            reference_weight(w)
        for weights in (w, np.array([0.5, w, 2.0])):  # the first one outside is named
            with pytest.raises(ValidationError) as got:
                _weight(weights)
            assert str(got.value) == str(want.value)


def sg_sources(n):
    """``n`` sources of ``sg_loop`` with random weights: random spins held in
    ``top``, rows 0, 5, 10, ... with no plus component and rows 2, 7, 12, ...
    with only one, so that each keep mask blocks some rows."""
    circ = scenarios.build("sg_loop").circuit
    rng = np.random.default_rng(20260901)
    v = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    v[::5, 0] = 0
    v[2::5, 1:] = 0
    amps = np.zeros((n, 3, 3), dtype=complex)
    amps[:, :, 0] = v / np.linalg.norm(v, axis=1)[:, None]
    return circ, StateStack(circ.dofs, amps, rng.uniform(0.5, 1.0, n), np.zeros(n, dtype=bool))


@pytest.mark.parametrize("mask", ["open", "keep_top", "keep_mid", "keep_bot"])
def test_post_select_matches_per_row(mask, monkeypatch):
    circ, sources = sg_sources(1000)
    got = evolve_rows(circ, 1000, {}, {"mask": mask}, sources)
    monkeypatch.setattr(el, "_post_select", reference_post_select)
    want = evolve_rows(circ, 1000, {}, {"mask": mask}, sources)
    assert mask == "open" or 0 < want.blocked.sum() < 1000
    for field in ("amps", "weights", "blocked"):
        assert same_bytes(getattr(got, field), getattr(want, field)), field


@pytest.mark.parametrize(("name", "top", "seed", "n", "masks"), [
    ("analyzer_loop", "U", 20260824, 100, ("open",)),
    ("sg_loop", "top", 20260825, 100, ("open",)),
    ("sg_loop", "top", 20260826, 20, ("keep_top", "keep_mid", "keep_bot")),
])
def test_loop_runs_match_per_row(name, top, seed, n, masks):
    circ = scenarios.build(name).circuit
    vs, sources, outs = scenarios._loop_runs(circ, top, seed, n, *masks)
    ref_vs, ref_sources, ref_outs = reference_loop_runs(circ, top, seed, n, *masks)
    assert same_bytes(vs, np.array(ref_vs))
    assert same_bytes(sources.amps, ref_sources.amps)
    for out, ref in zip(outs, ref_outs):
        assert same_bytes(out.amps, ref.amps) and same_bytes(out.weights, ref.weights)


def test_analyzer_identity_rows_match_per_row():
    _, sources, (outs,) = scenarios._loop_runs(scenarios.build("analyzer_loop").circuit, "U", 20260824, 100, "open")
    assert_rows_match(outs.amps, sources.amps)


def test_sg_fidelity_rows_match_per_row():
    _, sources, (outs,) = scenarios._loop_runs(scenarios.build("sg_loop").circuit, "top", 20260825, 100, "open")
    overlaps = np.vecdot(sources.amps.reshape(100, 9), outs.amps.reshape(100, 9))
    want = [abs(1.0 - abs(np.vdot(v, out)) ** 2) for v, out in zip(sources.amps, outs.amps)]
    assert same_bytes(np.abs(1.0 - scenarios._abs_squared(overlaps)), np.array(want))


def test_sg_masked_rows_match_per_row():
    circ = scenarios.build("sg_loop").circuit
    vs, _, outs = scenarios._loop_runs(circ, "top", 20260826, 20, "keep_top", "keep_mid", "keep_bot")
    for i, (stack, spin) in enumerate(zip(outs, ("plus", "zero", "minus"))):
        want = StateVector.from_amplitudes(circ.dofs, {(spin, "top"): 1.0}).tensor_view()
        assert_rows_match(stack.amps, np.broadcast_to(want, stack.amps.shape))
        gaps = [abs(w - abs(v[i]) ** 2) for v, w in zip(vs, stack.weights)]
        assert same_bytes(np.abs(stack.weights - scenarios._abs_squared(vs[:, i])), np.array(gaps))


def test_regrouped_amplitudes_match_per_phase():
    s = scenarios._Shared(scenarios.build("mz_two_bs").template)
    stack = evolve_rows(s.circuit, len(scenarios.PHI_GRID), s(scenarios._phi_rows))
    assert scenarios._regrouped_dev(s) == max(reference_regrouped_gaps(stack)) == 0.0
