"""The columnar pairing and histogram against the object-per-event originals.

``reference_coincidences`` and ``reference_histogram`` are the earlier
implementations, which walked ``DetectionEvent`` objects one by one.  They
stay here as the definition of what ``events.coincidences`` and
``events.conditioned_histogram`` compute.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesim import events, scenarios
from qesim.events import CoincidencePair, EventLog, coincidences, conditioned_histogram
from qesim.qstate import ValidationError
from qesim.screen import DEFAULT_GEOMETRY, pattern_from_bin_probs

WALBORN = scenarios.build("walborn").circuit
PERIOD = events.DEFAULT_PERIOD_NS


def reference_coincidences(log, det_a, det_b, window, offsets):
    offsets = offsets or {}

    def shifted(e):
        return e.time - offsets.get(e.detector, 0.0)

    a_events = sorted(log.for_detector(det_a), key=shifted)
    b_events = sorted(log.for_detector(det_b), key=shifted)
    pairs = []
    j = 0
    for ea in a_events:
        ta = shifted(ea)
        while j < len(b_events) and shifted(b_events[j]) < ta - window:
            j += 1
        if j < len(b_events) and abs(shifted(b_events[j]) - ta) <= window:
            pairs.append(CoincidencePair(ea, b_events[j]))
            j += 1
    return pairs


def reference_histogram(pairs, partner_outcome, geometry=DEFAULT_GEOMETRY):
    if isinstance(partner_outcome, str):
        partner_outcome = (partner_outcome,)
    counts = {}
    for p in pairs:
        if partner_outcome is not None and p.b.outcome != partner_outcome:
            continue
        if len(p.a.outcome) != 1:
            raise ValidationError("screen events must carry a single bin label")
        key = p.a.outcome[0]
        counts[key] = counts.get(key, 0.0) + 1.0
    if not counts:
        raise ValidationError("no pairs satisfy the condition")
    return pattern_from_bin_probs(counts, geometry)


def outcome_of(fn, *args):
    try:
        return fn(*args)
    except ValidationError as e:
        return str(e)


# delays and offsets: zero, whole and half periods, and arbitrary
# (incommensurate, possibly negative) values
NS = st.one_of(
    st.sampled_from([0.0, PERIOD, -PERIOD, 0.5 * PERIOD, -700.0, 1e9]),
    st.floats(-3 * PERIOD, 3 * PERIOD, allow_nan=False),
)
# windows from 0 to past the period, so that both the vectorised pairing and
# the sequential fallback (a window of half the event spacing or more) run
WINDOWS = st.one_of(
    st.sampled_from([0.0, 1e3, 0.5 * PERIOD, PERIOD, 2.5 * PERIOD]),
    st.floats(0.0, 3 * PERIOD, allow_nan=False),
)


@st.composite
def logs(draw):
    log = events.generate_events(
        WALBORN,
        {"p_pol": draw(st.sampled_from(["absent", "plus45", "minus45"]))},
        shots=draw(st.integers(0, 40)),
        seed=draw(st.integers(0, 2**32 - 1)),
        delays={"D_s": draw(NS), "D_p": draw(NS)},
    )
    if draw(st.booleans()):
        # a log read back in another row order: pairing must sort by time itself
        lines = draw(st.permutations(log.to_jsonl().splitlines()))
        log = EventLog.from_jsonl("\n".join(lines), seed=log.seed, shots=log.shots)
    return log


@settings(max_examples=300, deadline=None)
@given(
    log=logs(),
    dets=st.sampled_from([("D_s", "D_p"), ("D_p", "D_s"), ("D_s", "D_s")]),
    window=WINDOWS,
    offsets=st.dictionaries(st.sampled_from(["D_s", "D_p"]), NS),
)
def test_coincidences_match_reference(log, dets, window, offsets):
    got = list(coincidences(log, *dets, window=window, offsets=offsets))
    assert got == reference_coincidences(log, *dets, window, offsets)


@settings(max_examples=100, deadline=None)
@given(
    log=logs(),
    window=WINDOWS,
    partner=st.sampled_from([None, "+", ("-",), ("no_such_outcome",)]),
    swap=st.booleans(),
)
def test_conditioned_histogram_matches_dict_count(log, window, partner, swap):
    dets = ("D_p", "D_s") if swap else ("D_s", "D_p")
    pairs = coincidences(log, *dets, window=window)
    # swapped, the A side carries polarisation outcomes: with partner None
    # that is still one label per event, so both versions accept it
    assert outcome_of(conditioned_histogram, pairs, partner) == outcome_of(
        reference_histogram, list(pairs), partner
    )


@pytest.mark.parametrize("window, sequential", [(1e3, False), (0.49 * PERIOD, False), (2.5 * PERIOD, True)])
def test_fallback_runs_only_when_candidates_collide(monkeypatch, window, sequential):
    calls = []
    real = events._greedy
    monkeypatch.setattr(events, "_greedy", lambda *a: calls.append(a) or real(*a))
    log = events.generate_events(WALBORN, {"p_pol": "absent"}, shots=200, seed=3)
    pairs = coincidences(log, "D_s", "D_p", window=window)
    assert bool(calls) == sequential
    assert list(pairs) == reference_coincidences(log, "D_s", "D_p", window, {})
