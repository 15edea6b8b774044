"""The columnar pairing and histogram against the object-per-event originals.

``reference_coincidences`` and ``reference_histogram`` are the earlier
implementations, which walked ``DetectionEvent`` objects one by one.  They
stay here as the definition of what ``events.coincidences`` and
``events.conditioned_histogram`` compute; a pair is named by the log rows of
its two events.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesim import events, scenarios
from qesim.events import EventLog, coincidences, conditioned_histogram
from qesim.qstate import ValidationError
from qesim.screen import DEFAULT_GEOMETRY, pattern_from_bin_probs

WALBORN = scenarios.build("walborn").circuit
PERIOD = events.DEFAULT_PERIOD_NS


def reference_coincidences(log, det_a, det_b, window, offsets):
    """(row of a, row of b) for each pair, in pairing order."""
    offsets = offsets or {}
    events = log.events

    def shifted(i):
        return events[i].time - offsets.get(events[i].detector, 0.0)

    def rows(det):
        return sorted((i for i, e in enumerate(events) if e.detector == det), key=shifted)

    a_rows, b_rows = rows(det_a), rows(det_b)
    pairs = []
    j = 0
    for ia in a_rows:
        ta = shifted(ia)
        while j < len(b_rows) and shifted(b_rows[j]) < ta - window:
            j += 1
        if j < len(b_rows) and abs(shifted(b_rows[j]) - ta) <= window:
            pairs.append((ia, b_rows[j]))
            j += 1
    return pairs


def row_pairs(pairs):
    return list(zip(pairs.a.tolist(), pairs.b.tolist()))


def reference_histogram(log, pairs, partner_outcome, geometry=DEFAULT_GEOMETRY):
    if isinstance(partner_outcome, str):
        partner_outcome = (partner_outcome,)
    counts = {}
    for ia, ib in pairs:
        a, b = log.events[ia], log.events[ib]
        if partner_outcome is not None and b.outcome != partner_outcome:
            continue
        if len(a.outcome) != 1:
            raise ValidationError("screen events must carry a single bin label")
        key = a.outcome[0]
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
        # the same events in another row order: pairing must sort by time itself
        order = draw(st.permutations(range(len(log.shot))))
        log = EventLog(
            log.seed, log.shots, log.shot[order], log.time[order], log.label[order], log.labels
        )
    return log


@settings(max_examples=300, deadline=None)
@given(
    log=logs(),
    dets=st.sampled_from([("D_s", "D_p"), ("D_p", "D_s"), ("D_s", "D_s")]),
    window=WINDOWS,
    offsets=st.dictionaries(st.sampled_from(["D_s", "D_p"]), NS),
)
def test_coincidences_match_reference(log, dets, window, offsets):
    got = row_pairs(coincidences(log, *dets, window=window, offsets=offsets))
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
        reference_histogram, log, row_pairs(pairs), partner
    )


@pytest.mark.parametrize("window, sequential", [(1e3, False), (0.49 * PERIOD, False), (2.5 * PERIOD, True)])
def test_fallback_runs_only_when_candidates_collide(monkeypatch, window, sequential):
    calls = []
    real = events._greedy
    monkeypatch.setattr(events, "_greedy", lambda *a: calls.append(a) or real(*a))
    log = events.generate_events(WALBORN, {"p_pol": "absent"}, shots=200, seed=3)
    pairs = coincidences(log, "D_s", "D_p", window=window)
    assert bool(calls) == sequential
    assert row_pairs(pairs) == reference_coincidences(log, "D_s", "D_p", window, {})
