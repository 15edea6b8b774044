"""The dense Born path against the dict-per-outcome original.

``reference_distribution`` is the earlier ``circuit.distribution_from_state``,
which built one tuple-keyed dict entry per outcome and had
``OutcomeDistribution`` clip each entry to be non-negative.
``reference_marginal`` and ``reference_conditional`` are the earlier dict
loops of ``measure.marginal`` and ``measure.conditional``, and
``reference_intensity`` the earlier per-branch loop of
``screen.pattern_from_state``.  They stay here as the definition of what the
array code computes, bit for bit, on a stack of one state.  Detector bases
are applied with the earlier single-state ``qstate.rebase``, kept in
``test_kernel_oracle``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qesim import elements as el
from qesim.circuit import DetectorSpec, distribution_from_state
from qesim.measure import NULL_EPS, ConditioningError, conditional, marginal
from qesim.qstate import Dof, StateVector
from qesim.screen import BIN_LABELS, BINS, DELTA, pattern_from_state
from test_kernel_oracle import axis, dof, reference_rebase, stack_of


def reference_screen_matrix():
    return np.stack([np.exp(1j * DELTA / 2), np.exp(-1j * DELTA / 2)], axis=1)


def reference_distribution(state, detectors):
    """(axes, outcomes, total_mass) as the dict-building code gave them."""
    for spec in detectors:
        if spec.screen_of is None:
            for dn, basis in spec.measured:
                change = el.basis_change(basis, dof(state, dn))
                if change is not None:
                    state = reference_rebase(state, change)

    t = state.tensor_view()
    dof_axis = {d.name: i for i, d in enumerate(state.dofs)}
    n_dofs = len(state.dofs)
    screens = [s for s in detectors if s.screen_of is not None]
    for spec in screens:
        ax = dof_axis[spec.screen_of]
        m = reference_screen_matrix()
        t = np.moveaxis(np.tensordot(m, np.moveaxis(t, ax, 0), axes=([1], [0])), 0, -1)
        for name in list(dof_axis):
            if dof_axis[name] > ax:
                dof_axis[name] -= 1
        del dof_axis[spec.screen_of]

    n_plain = n_dofs - len(screens)
    screen_axis = {spec.name: n_plain + i for i, spec in enumerate(screens)}
    axis_info = []
    for spec in detectors:
        if spec.screen_of is not None:
            axis_info.append((spec.name, BIN_LABELS, screen_axis[spec.name]))
        else:
            for dn, _basis in spec.measured:
                axis_info.append((dn, dof(state, dn).labels, dof_axis[dn]))

    probs = np.abs(t) ** 2
    keep = [ax for _, _, ax in axis_info]
    drop = tuple(i for i in range(probs.ndim) if i not in keep)
    p = probs.sum(axis=drop) if drop else probs
    if keep:
        p = np.transpose(p, np.argsort(np.argsort(keep)))
    total = float(p.sum())
    if total > 0:
        p = p * (state.weight / total)
    out = {}
    label_sets = [labels for _, labels, _ in axis_info]
    for idx in np.ndindex(*p.shape):
        out[tuple(label_sets[i][j] for i, j in enumerate(idx))] = max(float(p[idx]), 0.0)
    mass = state.weight if total > 0 else 0.0
    return tuple(name for name, _, _ in axis_info), out, mass


def reference_marginal(axes, outcomes, subset):
    idxs = [axes.index(a) for a in subset]
    out = {}
    for k, p in outcomes.items():
        key = tuple(k[i] for i in idxs)
        out[key] = out.get(key, 0.0) + p
    return out


def reference_conditional(axes, outcomes, given):
    axis_name, label = given
    i = axes.index(axis_name)
    mass = sum(p for k, p in outcomes.items() if k[i] == label)
    if mass < NULL_EPS:
        return None
    out = {}
    for k, p in outcomes.items():
        if k[i] != label or p < NULL_EPS:
            continue
        key = tuple(lab for j, lab in enumerate(k) if j != i)
        out[key] = out.get(key, 0.0) + p / mass
    return out


def reference_intensity(s, path_dof):
    t = np.moveaxis(s.tensor_view(), axis(s, path_dof), 0).reshape(2, -1)
    e1, e2 = reference_screen_matrix().T
    total = np.zeros(BINS)
    for i in range(t.shape[1]):
        total += np.abs(complex(t[0, i]) * e1 + complex(t[1, i]) * e2) ** 2
    return total


@st.composite
def states(draw):
    """A random state of 1-5 dofs of dimension 2 or 3, with weight <= 1."""
    dims = draw(st.lists(st.integers(2, 3), min_size=1, max_size=5))
    dofs = tuple(
        Dof(f"d{i}", tuple(f"d{i}_{j}" for j in range(dim))) for i, dim in enumerate(dims)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(np.prod(dims))
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    # about half the amplitudes exactly zero (as after a blocker) or tiny, so
    # that probabilities fall below NULL_EPS
    v[rng.random(n) < 0.5] *= draw(st.sampled_from([1.0, 0.0, 1e-9]))
    if not v.any():
        v[0] = 1.0
    weight = draw(st.one_of(st.just(1.0), st.floats(1e-6, 1.0, exclude_max=True)))
    return StateVector(dofs, v / np.linalg.norm(v), weight)


@st.composite
def measurements(draw):
    """A state and detectors over a random subset of its dofs, in random
    order and grouping: screens on two-level dofs, the rest in random bases;
    dofs left out are summed over."""
    s = draw(states())
    names = draw(st.permutations([d.name for d in s.dofs]))
    measured = names[: draw(st.integers(1, len(names)))]
    detectors, plain = [], []
    for name in measured:
        d = dof(s, name)
        if d.dim == 2 and draw(st.integers(0, 3)) == 0:
            detectors.append(DetectorSpec(f"S_{name}", screen_of=name))
            continue
        bases = ("path", "pm45", "circular") if d.dim == 2 else ("path",)
        plain.append((name, draw(st.sampled_from(bases))))
    # two screens and three 3-level dofs would make 1.8M outcomes
    size = np.prod([dof(s, name).dim for name, _ in plain], dtype=float)
    assume(size * float(BINS) ** len(detectors) <= 70_000)
    while plain:
        k = draw(st.integers(1, len(plain)))
        detectors.append(DetectorSpec(f"D{len(detectors)}", measured=tuple(plain[:k])))
        plain = plain[k:]
    return s, draw(st.permutations(detectors))


@given(measurements())
@settings(max_examples=150, deadline=None)
def test_distribution_matches_dict_building_reference(case):
    s, detectors = case
    axes, outcomes, mass = reference_distribution(s, detectors)
    d = distribution_from_state(stack_of([s], [False]), detectors)
    assert d.axes == axes
    assert list(d.outcomes.items()) == list(outcomes.items())
    assert d.total_mass == mass


@given(measurements(), st.data())
@settings(max_examples=100, deadline=None)
def test_marginal_and_conditional_match_dict_loops(case, data):
    s, detectors = case
    axes, outcomes, _ = reference_distribution(s, detectors)
    d = distribution_from_state(stack_of([s], [False]), detectors)
    subset = data.draw(st.permutations(axes))[: data.draw(st.integers(1, len(axes)))]
    assert marginal(d, subset).outcomes == reference_marginal(axes, outcomes, subset)

    axis = data.draw(st.sampled_from(axes))
    label = data.draw(st.sampled_from(d.labels[axes.index(axis)]))
    want = reference_conditional(axes, outcomes, (axis, label))
    if want is None:
        with pytest.raises(ConditioningError):
            conditional(d, (axis, label))
    else:
        got = conditional(d, (axis, label)).outcomes
        # the dict loop left out outcomes below NULL_EPS; the array holds 0
        assert {k: p for k, p in got.items() if p != 0.0} == want


@given(states(), st.data())
@settings(max_examples=100, deadline=None)
def test_pattern_from_state_matches_branch_loop(s, data):
    two_level = [d.name for d in s.dofs if d.dim == 2]
    assume(two_level)
    path = data.draw(st.sampled_from(two_level))
    got = pattern_from_state(stack_of([s], [False]), path).intensities
    assert np.array_equal(got, reference_intensity(s, path))
