import json

import numpy as np
import pytest

from qesim import scenarios
from qesim.events import Coincidences, EventLog, coincidences, conditioned_histogram, generate_events
from qesim.qstate import ValidationError
from qesim.screen import fringe_visibility


def walborn_log(shots=2000, seed=5, delays=None):
    sc = scenarios.build("walborn")
    return generate_events(
        sc.circuit, {"p_pol": "absent"}, shots=shots, seed=seed, delays=delays or {}
    )


def events_of(log, detector):
    return [e for e in log.events if e.detector == detector]


def event_pairs(pairs):
    events = pairs.log.events
    return [(events[i], events[j]) for i, j in zip(pairs.a.tolist(), pairs.b.tolist())]


class TestGeneration:
    def test_one_event_per_detector_per_shot(self):
        log = walborn_log(shots=100)
        assert len(log.events) == 200
        assert len(events_of(log, "D_s")) == 100
        assert len(events_of(log, "D_p")) == 100

    def test_same_seed_same_events(self):
        a, b = walborn_log(seed=9), walborn_log(seed=9)
        assert a.to_jsonl() == b.to_jsonl()

    def test_different_seed_differs(self):
        assert walborn_log(seed=1).to_jsonl() != walborn_log(seed=2).to_jsonl()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer, not -1"):
            walborn_log(shots=3, seed=-1)

    def test_filtered_shots_drop_out(self):
        sc = scenarios.build("walborn")
        log = generate_events(sc.circuit, {"p_pol": "plus45"}, shots=4000, seed=0)
        # half the ensemble is absorbed by the polarizer
        n = len(events_of(log, "D_s"))
        assert 1800 < n < 2200

    def test_delays_shift_times_only(self):
        plain = walborn_log(seed=4)
        delayed = walborn_log(seed=4, delays={"D_p": 1e9})
        assert [
            (e.shot, e.outcome) for e in events_of(plain, "D_s")
        ] == [(e.shot, e.outcome) for e in events_of(delayed, "D_s")]
        tp = {e.shot: e.time for e in events_of(plain, "D_p")}
        td = {e.shot: e.time for e in events_of(delayed, "D_p")}
        assert all(td[s] - tp[s] == 1e9 for s in tp)

    def test_jsonl_round_trip(self):
        log = walborn_log(shots=50)
        rows = [json.loads(line) for line in log.to_jsonl().splitlines()]
        assert rows == [
            {"shot": e.shot, "t": e.time, "det": e.detector, "outcome": list(e.outcome)}
            for e in log.events
        ]

    def test_csv_header(self):
        log = walborn_log(shots=3)
        assert log.to_csv().splitlines()[0] == "shot,t,det,outcome"


class TestCoincidences:
    def test_same_shot_pairs_without_delay(self):
        log = walborn_log(shots=500)
        pairs = coincidences(log, "D_s", "D_p")
        assert len(pairs) == 500
        assert all(a.shot == b.shot for a, b in event_pairs(pairs))

    def test_each_event_used_once(self):
        log = walborn_log(shots=300)
        pairs = coincidences(log, "D_s", "D_p")
        assert len({(b.shot, b.detector) for _, b in event_pairs(pairs)}) == len(pairs)

    def test_delay_defeats_naive_window(self):
        # a delay much larger than the window and incommensurate with the
        # shot period leaves nothing to pair
        log = walborn_log(shots=200, delays={"D_p": 5e8 + 12345})
        assert len(coincidences(log, "D_s", "D_p")) == 0

    def test_offset_compensation_restores_pairs(self):
        delay = 5e8 + 12345
        log = walborn_log(shots=200, delays={"D_p": delay})
        pairs = coincidences(log, "D_s", "D_p", offsets={"D_p": delay})
        assert len(pairs) == 200
        assert all(a.shot == b.shot for a, b in event_pairs(pairs))

    def test_negative_window_rejected(self):
        with pytest.raises(ValidationError):
            coincidences(walborn_log(shots=2), "D_s", "D_p", window=-1)

    def test_a_detector_is_not_paired_with_itself(self):
        # each event is used at most once, so it cannot be its own partner
        with pytest.raises(ValidationError, match="cannot pair detector 'D_s' with itself"):
            coincidences(walborn_log(shots=2), "D_s", "D_s")

    @pytest.mark.parametrize("det_a, det_b", [("D_s", "D_x"), ("D_x", "D_p")])
    def test_a_detector_not_in_the_log_is_rejected(self, det_a, det_b):
        # it used to pair nothing and return 0 pairs
        circuit = scenarios.build("walborn_delayed").circuit
        log = generate_events(circuit, {"p_pol": "absent"}, shots=20, seed=1)
        with pytest.raises(ValidationError, match="no detector 'D_x' in the log"):
            coincidences(log, det_a, det_b)

    def test_offsets_may_name_any_detector(self):
        # scripts/walborn_demo.py passes every declared delay, paired or not
        log = walborn_log(shots=20)
        plain = coincidences(log, "D_s", "D_p")
        extra = coincidences(log, "D_s", "D_p", offsets={"D_x": 5.0})
        assert (extra.a.tolist(), extra.b.tolist()) == (plain.a.tolist(), plain.b.tolist())


class TestConditionedHistogram:
    def test_conditioned_fringes_and_flat_total(self):
        log = walborn_log(shots=20000)
        pairs = coincidences(log, "D_s", "D_p")
        vis_plus = fringe_visibility(conditioned_histogram(pairs, ("+",)))
        vis_minus = fringe_visibility(conditioned_histogram(pairs, ("-",)))
        vis_all = fringe_visibility(conditioned_histogram(pairs, None))
        assert vis_plus > 0.9 and vis_minus > 0.9
        assert vis_all < 0.1

    def test_empty_condition_rejected(self):
        log = walborn_log(shots=10)
        pairs = coincidences(log, "D_s", "D_p")
        with pytest.raises(ValidationError):
            conditioned_histogram(pairs, ("no_such_outcome",))

    def test_a_side_without_bin_labels_rejected(self):
        # D_p's outcomes are polarisations, one label each but no screen bin
        pairs = coincidences(walborn_log(shots=10), "D_p", "D_s")
        _, first_bin = pairs.log.labels[pairs.log.label[pairs.b[0]]]
        for given in (None, first_bin):
            with pytest.raises(ValidationError, match="single bin label"):
                conditioned_histogram(pairs, given)


TWO_LABELS = [("D", ("x",)), ("E", ("y",))]


class TestColumnsAreChecked:
    """A log or a pair list whose columns disagree raises, rather than being
    written with rows cut short or labels read from the end of the table."""

    @pytest.mark.parametrize("shot, time, label", [
        ([7, 8], [1.0], [0, 1]),
        ([7], [1.0, 2.0], [0]),
        ([7, 8], [1.0, 2.0], [0]),
    ], ids=["short_time", "short_shot", "short_label"])
    def test_columns_of_unequal_length_are_rejected(self, shot, time, label):
        with pytest.raises(ValidationError, match="differ in length"):
            EventLog(2, shot, time, label, TWO_LABELS)

    @pytest.mark.parametrize("label", [-1, 2, 2**31 - 1], ids=repr)
    def test_a_label_outside_the_table_is_rejected(self, label):
        with pytest.raises(ValidationError, match=r"label indices must lie in \[0, 2\)"):
            EventLog(1, [7], [1.0], [label], TWO_LABELS)

    def test_labels_at_both_ends_of_the_table_are_kept(self):
        log = EventLog(2, [7, 8], [1.0, 2.0], [0, 1], TWO_LABELS)
        assert log.to_csv() == "shot,t,det,outcome\n7,1,D,x\n8,2,E,y\n"

    def test_pair_columns_of_unequal_length_are_rejected(self):
        log = EventLog(2, [7, 8], [1.0, 2.0], [0, 1], TWO_LABELS)
        with pytest.raises(ValidationError, match="differ in length"):
            Coincidences(log, np.array([0, 1]), np.array([1]))

    @pytest.mark.parametrize("a, b", [([-1], [1]), ([0], [2]), ([0, 1], [1, -2])], ids=repr)
    def test_a_pair_row_outside_the_log_is_rejected(self, a, b):
        log = EventLog(2, [7, 8], [1.0, 2.0], [0, 1], TWO_LABELS)
        with pytest.raises(ValidationError, match=r"pair row indices must lie in \[0, 2\)"):
            Coincidences(log, np.array(a), np.array(b))

    def test_an_empty_pair_list_of_an_empty_log_is_accepted(self):
        log = EventLog(0, [], [], [], TWO_LABELS)
        assert len(Coincidences(log, np.zeros(0, int), np.zeros(0, int))) == 0
