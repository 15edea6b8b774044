"""A generated log keeps each detector's events as one run, and its
time-ordered rows are merged only as the writers take them.

The same events given as columns to ``log_of_columns``, in time order or in
any other row order, must give the same runs, and pair, write and count
exactly as the generated log does; pairing and counting must never merge the
runs, and writing in order must merge each row once.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesim import events, scenarios
from qesim.events import EventLog, coincidences, conditioned_histogram
from qesim.qstate import ValidationError
from test_edl import all_settings
from test_events_oracle import THREE_DETECTORS, log_of_columns, pair_shots, time_ordered

PERIOD = events.PERIOD_NS

#: the (circuit, settings) cases with two or more active detectors: the two
#: Walborn erasers of the catalog, and three detectors, so that a run has
#: others before and after it in name order
CASES = [
    (circuit, chosen)
    for circuit in [scenarios.build(name).circuit for name in scenarios.list_names()] + [THREE_DETECTORS]
    for chosen in all_settings(circuit)
    if len(circuit.detectors(chosen)) >= 2
]
NS = st.one_of(
    st.sampled_from([0.0, PERIOD, -PERIOD, 0.5 * PERIOD, -700.0, 1e9]),
    st.floats(-3 * PERIOD, 3 * PERIOD, allow_nan=False),
)
# windows of half the event spacing or more make the pairing fall back to _greedy
WINDOWS = st.one_of(
    st.sampled_from([0.0, 1e3, 0.5 * PERIOD, PERIOD, 2.5 * PERIOD]),
    st.floats(0.0, 3 * PERIOD, allow_nan=False),
)


def written(write, rows):
    return "".join(events.blocks(write, rows))


def histogram(pairs, partner):
    """The conditioned pattern's bytes, or the error message."""
    try:
        return conditioned_histogram(pairs, partner).intensities.tobytes()
    except ValidationError as e:
        return str(e)


def test_the_cases_include_three_detectors():
    assert len(CASES) == 6 + len(all_settings(THREE_DETECTORS))
    assert max(len(c.detectors(chosen)) for c, chosen in CASES) == 3


@settings(max_examples=150, deadline=None)
@given(
    case=st.sampled_from(CASES),
    shots=st.integers(0, 120),
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([1, 5, events.BLOCK_ROWS]),
    window=WINDOWS,
    data=st.data(),
)
def test_runs_pair_write_and_count_as_their_columns(case, shots, seed, block, window, data):
    circuit, chosen = case
    active = [spec.name for spec in circuit.detectors(chosen)]
    delays = data.draw(st.dictionaries(st.sampled_from(active), NS))
    offsets = data.draw(st.dictionaries(st.sampled_from(active), NS))
    det_a, det_b = data.draw(st.permutations(active))[:2]
    with mock.patch.object(events, "BLOCK_ROWS", block):
        generated = events.generate_events(circuit, chosen, shots, seed, delays)
        streamed = events.generate_events(circuit, chosen, shots, seed, delays)
        jsonl = written(streamed.to_jsonl, len(streamed))
        rows = time_ordered(generated)
        rebuilt = log_of_columns(generated.shots, *rows, generated.labels)
        order = np.array(data.draw(st.permutations(range(len(rebuilt)))), dtype=np.intp)
        permuted = log_of_columns(rebuilt.shots, rows.shot[order], rows.time[order],
                                  rows.label[order], rebuilt.labels)
        assert streamed._cursor == (len(streamed), [len(run.time) for run in streamed._runs.values()])
        assert jsonl == written(rebuilt.to_jsonl, len(rebuilt))

        outcomes = [o for det, o in generated.labels if det == det_b]
        partner = data.draw(st.sampled_from([None, *outcomes]))
        results = []
        for log in (generated, rebuilt, permuted):
            pairs = coincidences(log, det_a, det_b, window=window, offsets=offsets)
            results.append((written(log.to_jsonl, len(log)), written(log.to_csv, len(log)), pair_shots(pairs),
                            written(pairs.to_csv, len(pairs)), histogram(pairs, partner)))
    assert results[0] == results[1] == results[2]
    for log in (rebuilt, permuted):
        assert generated.labels == log.labels and list(generated._runs) == list(log._runs)
        for run, other in zip(generated._runs.values(), log._runs.values()):
            assert all(map(np.array_equal, run, other))


def test_pairing_counting_and_writing_build_no_columns(monkeypatch):
    def merge(log, taken, n):
        raise AssertionError("the log's events were merged into time order")

    circuit = scenarios.build("walborn_delayed").circuit
    log = events.generate_events(circuit, {"p_pol": "absent"}, shots=3000, seed=1)
    with monkeypatch.context() as m:
        m.setattr(EventLog, "_merge", merge)
        pairs = coincidences(log, "D_s", "D_p", offsets={"D_p": 1e9})
        conditioned_histogram(pairs, "+")
        written(pairs.to_csv, len(pairs))
    assert len(pairs) == 3000
    # the writers merge as they go, block by block, each range from the last one's end
    asked = []
    real = EventLog._merge
    monkeypatch.setattr(EventLog, "_merge", lambda log, taken, n: asked.append((list(taken), n)) or real(log, taken, n))
    with mock.patch.object(events, "BLOCK_ROWS", 1000):
        assert written(log.to_csv, len(log)).count("\n") == 6001
    assert [n for _, n in asked] == [1000] * 6 and asked[0][0] == [0, 0] and sum(asked[-1][0]) == 5000


@pytest.mark.parametrize("delays", [{}, {"D_p": 1e9}, {"D_s": PERIOD}, {"D_p": -2.5 * PERIOD}])
def test_pairs_join_events_of_the_time_ordered_log(delays):
    log = events.generate_events(scenarios.build("walborn").circuit, {"p_pol": "absent"}, 500, 2, delays)
    pairs = coincidences(log, "D_s", "D_p", offsets=delays)
    logged = {(e.detector, e.shot) for e in log.events}
    assert len(pairs) == 500
    assert all(("D_s", sa) in logged and ("D_p", sb) in logged and sa == sb for sa, sb in pair_shots(pairs))
