import json

import numpy as np
import pytest

from qesim import scenarios
from qesim.events import Coincidences, EventLog, _Run, blocks, coincidences, conditioned_histogram, generate_events
from qesim.qstate import ValidationError
from qesim.screen import fringe_visibility
from test_events_oracle import pair_shots


def walborn_log(shots=2000, seed=5, delays=None):
    sc = scenarios.build("walborn")
    return generate_events(
        sc.circuit, {"p_pol": "absent"}, shots=shots, seed=seed, delays=delays or {}
    )


def events_of(log, detector):
    return [e for e in log.events if e.detector == detector]


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
        assert all(sa == sb for sa, sb in pair_shots(pairs))

    def test_each_event_used_once(self):
        log = walborn_log(shots=300)
        pairs = coincidences(log, "D_s", "D_p")
        assert len({sb for _, sb in pair_shots(pairs)}) == len(pairs)

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
        assert all(sa == sb for sa, sb in pair_shots(pairs))

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
        assert pair_shots(extra) == pair_shots(plain)


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
        log = walborn_log(shots=10)
        pairs = coincidences(log, "D_p", "D_s")
        first_bin = next(e.outcome for e in events_of(log, "D_s") if e.shot == pair_shots(pairs)[0][1])
        for given in (None, first_bin):
            with pytest.raises(ValidationError, match="single bin label"):
                conditioned_histogram(pairs, given)


TWO_LABELS = [("D", ("x",)), ("E", ("y",))]


def run(shot, time, label):
    return _Run(np.array(shot, np.int64), np.array(time, np.float64), np.array(label, np.int32))


class TestLogsOfRuns:
    def test_labels_at_both_ends_of_the_table_are_kept(self):
        log = EventLog(2, TWO_LABELS, {"D": run([7], [1.0], [0]), "E": run([8], [2.0], [1])})
        assert log.to_csv() == "shot,t,det,outcome\n7,1,D,x\n8,2,E,y\n"

    def test_an_empty_pair_list_of_an_empty_log_is_accepted(self):
        log = EventLog(0, TWO_LABELS, {"D": run([], [], []), "E": run([], [], [])})
        assert len(Coincidences(log, "D", [], "E", [])) == 0

    # label 1 is E's; the others lie outside the table, where a writer would clip or wrap them
    @pytest.mark.parametrize("label", [1, 2, 5, -1], ids=repr)
    def test_a_label_not_of_the_run_is_rejected(self, label):
        with pytest.raises(ValidationError, match="'D' has an event whose label is not one of its own"):
            EventLog(2, TWO_LABELS, {"D": run([0, 1], [1.0, 2.0], [0, label]), "E": run([0], [3.0], [1])})

    @pytest.mark.parametrize("columns", [([0, 1], [1.0], [0]), ([0], [1.0, 2.0], [0]), ([0], [1.0], [0, 0])])
    def test_columns_of_unequal_length_are_rejected(self, columns):
        with pytest.raises(ValidationError, match="columns of 'D' differ in length"):
            EventLog(2, TWO_LABELS, {"D": _Run(*map(np.array, columns)), "E": run([], [], [])})

    @pytest.mark.parametrize("time", [[2.0, 1.0], [1.0, np.nan]], ids=repr)
    def test_times_out_of_order_are_rejected(self, time):
        with pytest.raises(ValidationError, match="events of 'E' are not in time order"):
            EventLog(2, TWO_LABELS, {"D": run([0], [1.0], [0]), "E": run([0, 1], time, [1, 1])})

    def test_a_detector_s_labels_need_not_be_one_span_of_the_table(self):
        labels = [("D", ("x",)), ("E", ("y",)), ("D", ("z",))]
        log = EventLog(2, labels, {"D": run([0, 1], [1.0, 4.0], [2, 0]), "E": run([0], [2.0], [1])})
        assert log.to_csv() == "shot,t,det,outcome\n0,1,D,z\n0,2,E,y\n1,4,D,x\n"
        with pytest.raises(ValidationError, match="'D' has an event whose label is not one of its own"):
            EventLog(2, labels, {"D": run([0, 1], [1.0, 4.0], [2, 1]), "E": run([0], [2.0], [1])})

    def test_equal_times_are_in_order(self):
        log = EventLog(2, TWO_LABELS, {"D": run([1, 0], [5.0, 5.0], [0, 0]), "E": run([], [], [])})
        assert log.to_csv() == "shot,t,det,outcome\n1,5,D,x\n0,5,D,x\n"

    def test_a_log_of_no_detectors_writes_only_its_header(self):
        log = EventLog(3, (), {})
        assert len(log) == 0 and log.events == ()
        assert "".join(blocks(log.to_jsonl, len(log))) == ""
        assert "".join(blocks(log.to_csv, len(log))) == "shot,t,det,outcome\n"


@pytest.mark.parametrize("delay", [np.inf, -np.inf, np.nan], ids=repr)
def test_event_times_must_be_finite(delay):
    circuit = scenarios.build("walborn_delayed").circuit
    with pytest.raises(ValidationError, match="event times must be finite"):
        generate_events(circuit, {"p_pol": "absent"}, shots=5, delays={"D_p": delay})
