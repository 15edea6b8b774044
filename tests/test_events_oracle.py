"""The event layer against earlier implementations kept as references.

``reference_coincidences`` and ``reference_histogram`` are the earlier
implementations, which walked ``DetectionEvent`` objects one by one.  They
stay here as the definition of what ``events.coincidences`` and
``events.conditioned_histogram`` compute; a pair is named by the log rows of
its two events.  ``reference_generate_events`` is the generator that searched
the whole CDF for every shot and ordered rows by a lexsort on (time, detector
name, shot); ``events.generate_events`` must give the same columns, to the bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesim import events, scenarios
from qesim.circuit import joint_distribution
from qesim.events import EventLog, coincidences, conditioned_histogram
from qesim.measure import rng_for
from qesim.qstate import ValidationError
from qesim.screen import DEFAULT_GEOMETRY, pattern_from_bin_probs
from test_edl import all_settings

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


def reference_generate_events(c, settings=None, shots=1000, seed=0, delays=None,
                              period=events.DEFAULT_PERIOD_NS):
    if shots < 0:
        raise ValidationError("shots must be >= 0")
    settings = settings or {}
    delays = delays or {}
    dist = joint_distribution(c, settings)
    specs = c.detectors(settings)

    keys = list(dist.outcomes)
    cdf = np.cumsum(dist.probs.ravel())
    survive = cdf[-1] if len(keys) else 0.0
    if survive < dist.total_mass - 1e-9 or dist.total_mass > 1 + 1e-9:
        raise ValidationError("inconsistent distribution mass")
    if survive < 1.0 - 1e-12:
        cdf = np.append(cdf, 1.0)
    cdf[-1] = 1.0
    picks = np.searchsorted(cdf, rng_for(seed).random(shots), side="right")
    survivors = np.flatnonzero(picks < len(keys))
    picks = picks[survivors]

    index = {}
    shot_parts, time_parts, label_parts = [], [], []
    pos = 0
    for spec in specs:
        span = slice(pos, pos + len(spec.axis_names()))
        pos = span.stop
        offset = delays.get(spec.name, spec.time_offset)
        label_of_key = np.array(
            [index.setdefault((spec.name, k[span]), len(index)) for k in keys],
            dtype=np.int32,
        )
        shot_parts.append(survivors)
        time_parts.append(survivors * period + offset)
        label_parts.append(label_of_key[picks])
    shot = np.concatenate(shot_parts)
    time = np.concatenate(time_parts)
    label = np.concatenate(label_parts)

    names = sorted({det for det, _ in index})
    name_rank = np.array([names.index(det) for det, _ in index], dtype=np.int32)
    order = np.lexsort((shot, name_rank[label], time))
    return EventLog(seed, shots, shot[order], time[order], label[order], index)


#: every catalog circuit under every combination of choice alternatives
TARGETS = [
    (circuit, chosen)
    for name in scenarios.list_names()
    for circuit in [scenarios.build(name).circuit]
    for chosen in all_settings(circuit)
]


@settings(max_examples=300, deadline=None)
@given(
    target=st.sampled_from(TARGETS),
    shots=st.integers(0, 300),
    seed=st.integers(0, 2**64 - 1),
    period=st.sampled_from([events.DEFAULT_PERIOD_NS, 0.0, -PERIOD, 1.5]),
    data=st.data(),
)
def test_generate_events_matches_reference(target, shots, seed, period, data):
    circuit, chosen = target
    active = [spec.name for spec in circuit.detectors(chosen)]
    delays = data.draw(st.dictionaries(st.sampled_from(active), NS))
    got = events.generate_events(circuit, chosen, shots, seed, delays, period)
    want = reference_generate_events(circuit, chosen, shots, seed, delays, period)
    assert np.array_equal(got.shot, want.shot)
    assert np.array_equal(got.time, want.time)
    assert np.array_equal(got.label, want.label)
    assert got.labels == want.labels


CELLS = events.DRAW_CELLS
EDGES = np.arange(CELLS) / CELLS
UNIFORM = rng_for(7).random(20000)


def around(values):
    """Each value and the floats one step below and above it."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([np.nextafter(values, -1.0), values, np.nextafter(values, 2.0)])


RUNNING_SUM = np.cumsum(rng_for(8).random(65536))

DRAW_CDFS = {
    # entries on cell edges, and one step either side of them
    "cell_edges": np.append(
        np.sort(around([1 / CELLS, 2 / CELLS, 0.25, 0.5, 0.75, (CELLS - 1) / CELLS])), 1.0
    ),
    # runs of equal entries: leading zeros, repeats inside, and a run of 1.0
    "runs": np.array([0.0, 0.0, 0.0, 0.25, 0.25, 0.3, 0.3, 0.3, 0.5, 1.0, 1.0, 1.0]),
    "single": np.array([1.0]),
    # 65536 entries, a running sum scaled to end at 1.0: four per cell on
    # average, so almost no cell is sure
    "dense": RUNNING_SUM / RUNNING_SUM[-1],
    # rounding left running-sum entries above 1 before the last, set to 1.0
    "over_one": np.array([0.25, 0.5, 1.0000000000000002, 1.0000000000000002, 1.0]),
}


@pytest.mark.parametrize("name", sorted(DRAW_CDFS))
def test_draw_matches_searchsorted(name):
    cdf = DRAW_CDFS[name]
    inner = cdf[(cdf >= 0.0) & (cdf < 1.0)]
    u = np.concatenate([[0.0], EDGES, [1 - 2**-53], UNIFORM, around(inner)])
    u = u[(u >= 0.0) & (u < 1.0)]
    assert np.array_equal(events._draw(cdf, u), np.searchsorted(cdf, u, side="right"))
