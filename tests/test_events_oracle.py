"""The event layer against earlier implementations kept as references.

``reference_coincidences`` and ``reference_histogram`` are the earlier
implementations, which walked ``DetectionEvent`` objects one by one.  They
stay here as the definition of what ``events.coincidences`` and
``events.conditioned_histogram`` compute.  A generated log holds one event per
detector per shot, so a pair is named by the shots of its two events
(``pair_shots``).  ``reference_histogram`` also rejects a counted ``a`` outcome
that is no screen bin, where the earlier loop counted nothing for it and
reported an all-zero histogram.  ``reference_generate_events`` is the generator that searched
the whole CDF for every shot, and ``time_ordered`` reads a log's rows from
its runs by a lexsort on (time, detector name, place in the run);
``events.generate_events`` must give the same rows, to the bit, and its log
must merge its runs into them.

``log_of_columns`` is the earlier column constructor of ``EventLog``: it
splits shot, time and label columns, in any row order, into one run per
detector by a stable sort on (detector, time).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesim import edl, events, scenarios
from qesim.circuit import joint_distribution
from qesim.cli import main
from qesim.events import EventLog, _Run, coincidences, conditioned_histogram
from qesim.measure import rng_for
from qesim.qstate import ValidationError
from qesim.screen import BIN_LABELS, pattern_from_bin_probs
from test_edl import all_settings

WALBORN = scenarios.build("walborn").circuit
PERIOD = events.PERIOD_NS


def log_of_columns(shots, shot, time, label, labels):
    """The log of the events of rows ``shot[i]``, ``time[i]``, ``labels[label[i]]``."""
    labels = tuple(labels)
    columns = _Run(np.asarray(shot, dtype=np.int64),
                   np.asarray(time, dtype=np.float64),
                   np.asarray(label, dtype=np.int32))
    if not len(columns.shot) == len(columns.time) == len(columns.label):
        raise ValidationError("shot, time and label columns differ in length")
    if columns.label.size and not 0 <= columns.label.min() <= columns.label.max() < len(labels):
        raise ValidationError(f"label indices must lie in [0, {len(labels)})")
    if not np.isfinite(columns.time).all():
        raise ValidationError("event times must be finite")
    names = sorted({det for det, _ in labels})
    det = np.array([names.index(d) for d, _ in labels], np.intp)[columns.label]
    # a stable sort on (detector, time): each detector's rows in time order, ties in row order
    rows = np.split(np.lexsort((columns.time, det)),
                    np.cumsum(np.bincount(det, minlength=len(names)))[:-1])
    return EventLog(shots, labels, {name: _Run(*(column[r] for column in columns))
                                    for name, r in zip(names, rows)})


def time_ordered(log):
    """The rows that a log's merge must give: its runs' events by one lexsort
    on (time, detector name, place in the run).  Not (time, name, shot): a
    log built from columns may repeat a shot, or not follow shot order."""
    runs = [log._runs[name] for name in sorted(log._runs)]
    shot, time, label = (np.concatenate(column) for column in zip(*runs))
    rank = np.repeat(np.arange(len(runs)), [len(run.time) for run in runs])
    place = np.concatenate([np.arange(len(run.time)) for run in runs])
    return _Run(*(column[np.lexsort((place, rank, time))] for column in (shot, time, label)))


def merged(log):
    """The log's own merge of its runs: every row, as its writers take them."""
    return log._slice(0, None)


def pair_shots(pairs):
    """(shot of a, shot of b) for each pair, in pairing order."""
    return list(zip(*(run.shot[index].tolist() for run, index in pairs._sides)))


def shots_of_rows(log, row_pairs):
    """(shot of a, shot of b) for each pair of log rows."""
    return [(log.events[ia].shot, log.events[ib].shot) for ia, ib in row_pairs]


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


def reference_histogram(log, dets, pairs, partner_outcome):
    """The pattern of ``pairs``, (shot of a, shot of b) of detectors ``dets``."""
    if isinstance(partner_outcome, str):
        partner_outcome = (partner_outcome,)
    event = {(e.detector, e.shot): e for e in log.events}
    counts = {}
    for sa, sb in pairs:
        a, b = event[dets[0], sa], event[dets[1], sb]
        if partner_outcome is not None and b.outcome != partner_outcome:
            continue
        if len(a.outcome) != 1 or a.outcome[0] not in BIN_LABELS:
            raise ValidationError("screen events must carry a single bin label")
        key = a.outcome[0]
        counts[key] = counts.get(key, 0.0) + 1.0
    if not counts:
        raise ValidationError("no pairs satisfy the condition")
    return pattern_from_bin_probs(counts)


def pattern_key(result):
    """An error message as it is, a pattern as its bytes."""
    return result if isinstance(result, str) else result.intensities.tobytes()


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
        # the same events as columns in another row order, which the log must not keep
        rows = time_ordered(log)
        order = draw(st.permutations(range(len(rows.shot))))
        log = log_of_columns(log.shots, rows.shot[order], rows.time[order], rows.label[order], log.labels)
    return log


@settings(max_examples=300, deadline=None)
@given(
    log=logs(),
    dets=st.sampled_from([("D_s", "D_p"), ("D_p", "D_s"), ("D_s", "D_s")]),
    window=WINDOWS,
    offsets=st.dictionaries(st.sampled_from(["D_s", "D_p"]), NS),
)
def test_coincidences_match_reference(log, dets, window, offsets):
    if dets[0] == dets[1]:
        # the reference paired a detector's events with themselves
        with pytest.raises(ValidationError, match="with itself"):
            coincidences(log, *dets, window=window, offsets=offsets)
        return
    got = pair_shots(coincidences(log, *dets, window=window, offsets=offsets))
    assert got == shots_of_rows(log, reference_coincidences(log, *dets, window, offsets))


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
    # swapped, the A side carries polarisation outcomes: one label per event,
    # but no bin label, so both versions reject any pair they count
    assert pattern_key(outcome_of(conditioned_histogram, pairs, partner)) == pattern_key(
        outcome_of(reference_histogram, log, dets, pair_shots(pairs), partner)
    )


@pytest.mark.parametrize("window, sequential", [(1e3, False), (0.49 * PERIOD, False), (2.5 * PERIOD, True)])
def test_fallback_runs_only_when_candidates_collide(monkeypatch, window, sequential):
    calls = []
    real = events._greedy
    monkeypatch.setattr(events, "_greedy", lambda *a: calls.append(a) or real(*a))
    log = events.generate_events(WALBORN, {"p_pol": "absent"}, shots=200, seed=3)
    pairs = coincidences(log, "D_s", "D_p", window=window)
    assert bool(calls) == sequential
    assert pair_shots(pairs) == shots_of_rows(log, reference_coincidences(log, "D_s", "D_p", window, {}))


def reference_generate_events(c, settings=None, shots=1000, seed=0, delays=None):
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
        time_parts.append(survivors * PERIOD + offset)
        label_parts.append(label_of_key[picks])
    shot = np.concatenate(shot_parts)
    time = np.concatenate(time_parts)
    label = np.concatenate(label_parts)
    return log_of_columns(shots, shot, time, label, index)


#: three detectors, the middle one measuring two dofs, one of them in pm45:
#: its axes are neither the first nor a single one
THREE_DETECTORS = edl.compile_text("""\
EXPERIMENT three_detectors
DOF a : x y
DOF b : p q r
DOF c : h v
DOF d : u w
SOURCE 1+0i |a=x, b=p, c=h, d=u> ; 0+1i |a=y, b=q, c=v, d=w> ; 2+0i |a=x, b=r, c=v, d=u> ; 1-1i |a=y, b=p, c=h, d=w>
STAGE q : qwp c 30
STAGE s : bs a x y
CHOICE f : open {
} | polarizer {
    STAGE p : pol c 20
}
DETECT A : a basis=path
DETECT M : b basis=path, c basis=pm45
DETECT Z : d basis=circular
""").circuit

#: every catalog circuit, and THREE_DETECTORS, under every combination of
#: choice alternatives
TARGETS = [
    (circuit, chosen)
    for circuit in [scenarios.build(name).circuit for name in scenarios.list_names()] + [THREE_DETECTORS]
    for chosen in all_settings(circuit)
]


@settings(max_examples=300, deadline=None)
@given(
    target=st.sampled_from(TARGETS),
    shots=st.integers(0, 300),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_generate_events_matches_reference(target, shots, seed, data):
    circuit, chosen = target
    active = [spec.name for spec in circuit.detectors(chosen)]
    delays = data.draw(st.dictionaries(st.sampled_from(active), NS))
    log = events.generate_events(circuit, chosen, shots, seed, delays)
    want = reference_generate_events(circuit, chosen, shots, seed, delays)
    got, rows = merged(log), time_ordered(want)
    assert np.array_equal(got.shot, rows.shot)
    assert np.array_equal(got.time, rows.time)
    assert np.array_equal(got.label, rows.label)
    assert log.labels == want.labels


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
    assert np.array_equal(events._drawer(cdf)(u), np.searchsorted(cdf, u, side="right"))


#: block sizes at which a log of up to 300 shots crosses many block edges
SMALL_BLOCKS = [1, 5]


@pytest.mark.parametrize("block", SMALL_BLOCKS)
@settings(max_examples=100, deadline=None)
@given(
    target=st.sampled_from(TARGETS),
    shots=st.integers(0, 300),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_generate_events_matches_reference_across_blocks(block, target, shots, seed, data):
    with mock.patch.object(events, "BLOCK_ROWS", block):
        test_generate_events_matches_reference.hypothesis.inner_test(target, shots, seed, data)


@pytest.mark.parametrize("block", SMALL_BLOCKS)
@settings(max_examples=100, deadline=None)
@given(
    log=logs(),
    dets=st.sampled_from([("D_s", "D_p"), ("D_p", "D_s")]),
    window=WINDOWS,
    offsets=st.dictionaries(st.sampled_from(["D_s", "D_p"]), NS),
)
def test_coincidences_match_reference_across_blocks(block, log, dets, window, offsets):
    with mock.patch.object(events, "BLOCK_ROWS", block):
        test_coincidences_match_reference.hypothesis.inner_test(log, dets, window, offsets)


@pytest.mark.parametrize("block", SMALL_BLOCKS)
@settings(max_examples=50, deadline=None)
@given(
    log=logs(),
    window=WINDOWS,
    partner=st.sampled_from([None, "+", ("-",), ("no_such_outcome",)]),
    swap=st.booleans(),
)
def test_conditioned_histogram_matches_dict_count_across_blocks(block, log, window, partner, swap):
    with mock.patch.object(events, "BLOCK_ROWS", block):
        test_conditioned_histogram_matches_dict_count.hypothesis.inner_test(log, window, partner, swap)


@pytest.mark.parametrize("block", SMALL_BLOCKS + [7])
@pytest.mark.parametrize("delays", [{"D_s": PERIOD}, {"D_p": -PERIOD}, {"D_p": 1e9}])
def test_rows_at_the_horizon_wait_for_an_earlier_name(block, delays):
    # with the first two delays, D_s's row of the last shot of a block ties with
    # D_p's row of the next shot, which must come first: D_p sorts before D_s;
    # the third is walborn_delayed's, whose D_p rows come 1000 shots late
    with mock.patch.object(events, "BLOCK_ROWS", block):
        got = merged(events.generate_events(WALBORN, {"p_pol": "absent"}, 40, 9, delays))
    rows = time_ordered(reference_generate_events(WALBORN, {"p_pol": "absent"}, 40, 9, delays))
    assert np.array_equal(got.time, rows.time)
    assert np.array_equal(got.shot, rows.shot)
    assert np.array_equal(got.label, rows.label)


def test_collision_at_a_block_edge_runs_the_fallback(monkeypatch):
    # a window of 2.5 periods makes A events take each other's candidates; a
    # block of one log row holds one A event at most, so every collision lies
    # across a block edge
    calls = []
    real = events._greedy
    monkeypatch.setattr(events, "_greedy", lambda *a: calls.append(a) or real(*a))
    monkeypatch.setattr(events, "BLOCK_ROWS", 1)
    log = events.generate_events(WALBORN, {"p_pol": "absent"}, shots=20, seed=3)
    pairs = coincidences(log, "D_s", "D_p", window=2.5 * PERIOD)
    assert calls
    assert pair_shots(pairs) == shots_of_rows(log, reference_coincidences(log, "D_s", "D_p", 2.5 * PERIOD, {}))


SAMPLE = "sample walborn_delayed -n 3000 --setting p_pol=absent --seed 5"


@pytest.mark.parametrize("flags", [
    "--format jsonl",
    "--format csv",
    "--pairs D_s,D_p --offset D_p=1e9",
    "--pairs D_s,D_p --offset D_p=1e9 --given +",
])
def test_sample_bytes_do_not_depend_on_the_block_size(flags, capsys):
    outputs = []
    for block in (events.BLOCK_ROWS, 7):
        with mock.patch.object(events, "BLOCK_ROWS", block):
            assert main(f"{SAMPLE} {flags}".split()) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].out.count("\n") > 256


def test_chunked_draws_are_one_stream():
    whole = rng_for(11).random(6 * 16384 + 1000)
    rng = rng_for(11)
    chunks = [rng.random(16384) for _ in range(6)] + [rng.random(1000)]
    assert np.array_equal(np.concatenate(chunks), whole)
