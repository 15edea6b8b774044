"""Working memory of the event pipeline, measured with ``tracemalloc``.

``tracemalloc`` counts the bytes Python allocates, numpy's arrays included,
and those counts repeat exactly from run to run.  Sampling and pairing run in
blocks of ``events.BLOCK_ROWS``, so what grows with the shot count is the
result alone: each detector's run (the surviving shots, 8 B per shot and
shared by the runs, and 12 B per event of times and labels, two events per
shot here) and the two index columns of the pairs (16 B per pair).  The
blocks, and the B detector's compensated times that pairing keeps whole,
come on top.
"""

import tracemalloc

from qesim import events, scenarios

SHOTS = 200_000
#: peak bytes per shot of generate_events, and of generate_events then
#: coincidences then conditioned_histogram
GENERATE_BOUND = 46
PIPELINE_BOUND = 72


def test_event_pipeline_working_memory():
    circuit = scenarios.build("walborn_delayed").circuit
    settings, offsets = {"p_pol": "absent"}, {"D_p": 1e9}
    # a first small run fills whatever is built once per process
    small = events.generate_events(circuit, settings, shots=10, seed=1)
    events.conditioned_histogram(events.coincidences(small, "D_s", "D_p", offsets=offsets), "+")
    tracemalloc.start()
    try:
        log = events.generate_events(circuit, settings, shots=SHOTS, seed=1)
        generate_peak = tracemalloc.get_traced_memory()[1]
        pairs = events.coincidences(log, "D_s", "D_p", offsets=offsets)
        events.conditioned_histogram(pairs, "+")
        pipeline_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == SHOTS
    assert generate_peak / SHOTS <= GENERATE_BOUND
    assert pipeline_peak / SHOTS <= PIPELINE_BOUND
