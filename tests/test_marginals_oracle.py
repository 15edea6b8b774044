"""``compare_marginals`` against the per-branch original.

``reference_compare_marginals`` is the earlier ``circuit.compare_marginals``:
``reference_branched_evolve`` keeps the pass and the absorbed branch of every
filter as one ``StateVector`` each, and the marginal of each alternative is
the running sum of one validated ``OutcomeDistribution`` per branch.  It
stays here as the definition of what ``compare_marginals`` computes, bit for
bit, on random circuits with filters, conditioned or not, before, inside and
after the compared choice, probed on dofs and on a screen.  The branch stack
``circuit._branches`` holds the reference's branches, in its order and with
its bytes.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesim import elements as el
from qesim.circuit import (
    Apply,
    Choice,
    Circuit,
    ContractError,
    Detect,
    DetectorSpec,
    _branches,
    _walk,
    compare_marginals,
    distribution_from_state,
    validate_settings,
)
from qesim.measure import OutcomeDistribution, total_variation
from qesim.qstate import Dof, StateVector
from test_kernel_oracle import dof, reference_apply_op, stack_of

SLIT = Dof("slit", ("s1", "s2"))
POL = Dof("pol", ("h", "v"))
ARM = Dof("arm", ("t", "r"))
DOFS = (SLIT, POL, ARM)
WALL = Detect(DetectorSpec("wall", screen_of="slit"))


def reference_branched_evolve(c, settings):
    validate_settings(c, settings)
    branches = [c.source]
    for s in _walk(c.stages, settings):
        if not isinstance(s, Apply):
            continue
        op = s.op
        nxt = []
        for st_ in branches:
            if op.kind == el.UNITARY:
                nxt.append(reference_apply_op(st_, op))
                continue
            raw = el._act(st_.tensor_view()[None], st_.dofs, op)[0].reshape(-1)
            blocked = st_.amps - raw
            for arr in (raw, blocked):
                p = float(np.vdot(arr, arr).real)
                if p < el.ALL_BLOCKED_EPS:
                    continue
                nxt.append(StateVector(st_.dofs, arr / np.sqrt(p), st_.weight * p))
        branches = nxt
    return branches


def reference_compare_marginals(c, axis_subset, choice_name, base_settings=None):
    axis_subset = [axis_subset] if isinstance(axis_subset, str) else list(axis_subset)
    choice = c.find_choice(choice_name)
    specs = c.detectors(None)
    common_screens = {s.name: s for s in specs if s.screen_of is not None}
    choice_detnames = {s.spec.name for s in _walk((choice,)) if isinstance(s, Detect)}

    subset_dofs = set()
    probes = []
    dof_names = {d.name for d in c.dofs}
    for ax in axis_subset:
        if ax in common_screens and ax not in choice_detnames:
            probes.append(common_screens[ax])
            subset_dofs.add(common_screens[ax].screen_of)
        elif ax in choice_detnames and ax not in dof_names:
            raise ContractError(
                f"detector {ax!r} belongs to the compared choice {choice_name!r},"
                " so not every alternative has it"
            )
        elif any(s.name == ax for s in specs) and ax not in dof_names:
            raise ContractError(
                f"detector {ax!r} measures dofs; only screens and dofs can be compared"
            )
        else:
            d = dof(c.source, ax)
            probes.append(DetectorSpec(name=f"_probe_{ax}", measured=((ax, "path"),)))
            subset_dofs.add(d.name)

    for alt_stages in choice.alternatives.values():
        touched = {
            d for s in _walk(alt_stages) if isinstance(s, Apply) for d in s.op.acts_on()
        }
        overlap = touched & subset_dofs
        if overlap:
            raise ContractError(
                f"choice {choice_name!r} acts on subset dofs {sorted(overlap)}"
            )

    base = dict(base_settings or {})
    mixtures = []
    for alt in choice.alternatives:
        settings_ = {**base, choice_name: alt}
        dist, acc, mass = None, 0.0, 0.0
        for branch in reference_branched_evolve(c, settings_):
            dist = distribution_from_state(stack_of([branch], [False]), probes)
            acc = acc + dist.probs
            mass += dist.total_mass
        if dist is None:
            raise ContractError("all branches blocked; marginal undefined")
        mixtures.append(OutcomeDistribution(dist.axes, dist.labels, acc, mass))

    worst = 0.0
    for i in range(len(mixtures)):
        for j in range(i + 1, len(mixtures)):
            worst = max(worst, total_variation(mixtures[i], mixtures[j]))
    return worst


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - both sides must fail alike
        return type(e), str(e)


ANGLES = st.one_of(
    st.sampled_from([0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]),
    st.floats(-2 * math.pi, 2 * math.pi),
)


#: True four times in five
MOSTLY = st.sampled_from([True, True, True, True, False])


@st.composite
def elements(draw, names):
    """An element acting on the dofs ``names`` only: a unitary, or a ``pol``
    or ``block`` filter, each filter maybe conditioned on another dof."""
    kinds = [k for k, needs in (
        ("split", {"slit"}), ("bs", {"arm"}), ("phase", {"arm"}), ("qwp", {"pol"}),
        ("analyzer", {"pol", "arm"}), ("pol", {"pol"}), ("block", {"slit"}), ("block", {"arm"}),
    ) if needs <= names]
    kind = draw(st.sampled_from(kinds))
    if kind == "split":
        return el.splitter(SLIT)
    if kind == "bs":
        return el.beam_splitter(ARM, "t", "r")
    if kind == "phase":
        return el.phase_shifter(ARM, "r", draw(ANGLES))
    if kind == "analyzer":
        return el.analyzer(POL, ARM)
    if kind == "block":
        dof = draw(st.sampled_from([d for d in (SLIT, ARM) if d.name in names]))
        op = el.blocker(dof, draw(st.sampled_from(dof.labels)))
    else:
        maker = el.quarter_wave_plate if kind == "qwp" else el.linear_polarizer
        op = maker(POL, draw(ANGLES))
    others = [d for d in DOFS if d.name in names and d.name not in op.target_dofs]
    if others and draw(st.booleans()):
        cd = draw(st.sampled_from(others))
        return el.ElementOp(op.kind, op.target_dofs, op.matrix, (cd.name, draw(st.sampled_from(cd.labels))))
    return op


@st.composite
def stage_lists(draw, names, max_size=3):
    if not names:
        return ()
    return tuple(Apply(op) for op in draw(st.lists(elements(names), max_size=max_size)))


@st.composite
def cases(draw):
    """A circuit with a CHOICE ``c`` of 1-3 alternatives between stage lists,
    maybe a later CHOICE ``d`` fixed by the base settings, and the axes to
    compare: mostly ones no alternative of ``c`` acts on."""
    axes = draw(st.lists(st.sampled_from(["wall", "slit", "pol", "arm"]), min_size=1, max_size=2, unique=True))
    all_names = {d.name for d in DOFS}
    probed = {"slit" if a == "wall" else a for a in axes}
    free = all_names - probed if draw(MOSTLY) else all_names
    screen_inside = not draw(MOSTLY)
    alts = {}
    for i in range(draw(st.integers(1, 3))):
        alts[f"a{i}"] = draw(stage_lists(free)) + ((WALL,) if screen_inside else ())
    stages = draw(stage_lists(all_names)) + (Choice("c", alts),) + draw(stage_lists(all_names))
    base = {}
    if draw(st.booleans()):
        stages += (Choice("d", {"x": draw(stage_lists(all_names, 2)), "y": ()}),)
        base = {"d": draw(st.sampled_from(["x", "y"]))}
    if not screen_inside and draw(MOSTLY):
        stages += (WALL,)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v[rng.random(8) < draw(st.sampled_from([0.0, 0.5]))] = 0.0
    if not v.any():
        v[draw(st.integers(0, 7))] = 1.0
    weight = draw(st.one_of(st.sampled_from([1.0, 0.5]), st.floats(0.0, 1.0)))
    source = StateVector(DOFS, v / np.linalg.norm(v), weight)
    return Circuit(DOFS, source, stages), axes, base


@given(cases())
@settings(max_examples=300, deadline=None)
def test_compare_marginals_matches_reference(case):
    c, axes, base = case
    want = outcome(reference_compare_marginals, c, axes, "c", base)
    assert outcome(compare_marginals, c, axes, "c", base) == want


@given(cases())
@settings(max_examples=200, deadline=None)
def test_branch_stack_matches_reference(case):
    c, _, base = case
    for alt in c.find_choice("c").alternatives:
        want = reference_branched_evolve(c, {**base, "c": alt})
        branches = _branches(c, {**base, "c": alt})
        assert len(branches.amps) == len(branches.weights) == len(want)
        assert branches.dofs == c.dofs and not branches.blocked.any()
        for amps, weight, branch in zip(branches.amps, branches.weights, want):
            assert amps.tobytes() == branch.tensor_view().tobytes()
            assert weight == branch.weight


@given(cases())
@settings(max_examples=60, deadline=None)
def test_all_blocked_alternative_matches_reference(case):
    # with every filter branch counted as blocked, an alternative that meets
    # a filter has no branch left
    c, axes, base = case
    with mock.patch.object(el, "ALL_BLOCKED_EPS", 2.0):
        want = outcome(reference_compare_marginals, c, axes, "c", base)
        assert outcome(compare_marginals, c, axes, "c", base) == want


def test_all_blocked_alternative_raises():
    c = Circuit(DOFS, StateVector.from_amplitudes(DOFS, {("s1", "h", "t"): 1.0}), (
        Apply(el.splitter(SLIT)),
        Apply(el.beam_splitter(ARM, "t", "r")),
        Choice("c", {"open": (), "masked": (Apply(el.blocker(ARM, "r")),)}),
        WALL,
    ))
    value = compare_marginals(c, ["wall"], "c")
    assert value == reference_compare_marginals(c, ["wall"], "c") and value < 1e-12
    with mock.patch.object(el, "ALL_BLOCKED_EPS", 2.0):
        with pytest.raises(ContractError, match="all branches blocked; marginal undefined"):
            compare_marginals(c, ["wall"], "c")
