#!/usr/bin/env python3
"""Delayed-erasure demo: sample the two-photon eraser with the p detector
delayed by a full millisecond, then recover fringe/antifringe patterns from
delay-compensated coincidences."""
import sys

from qesim import events, scenarios
from qesim.screen import fringe_visibility

def main() -> int:
    shots = int(sys.argv[1]) if len(sys.argv) > 1 else 40000
    sc = scenarios.build("walborn_delayed")
    delays = {s.name: s.time_offset for s in sc.circuit.detectors()}
    log = events.generate_events(sc.circuit, {"p_pol": "absent"}, shots=shots, seed=1)
    pairs = events.coincidences(log, "D_s", "D_p", offsets=delays)
    print(f"{shots} shots, {len(pairs)} compensated coincidence pairs")
    for outcome in ("+", "-"):
        pat = events.conditioned_histogram(pairs, (outcome,))
        print(f"D_p={outcome}: fitted visibility {fringe_visibility(pat):.4f}")
    total = events.conditioned_histogram(pairs, None)
    print(f"all pairs: fitted visibility {fringe_visibility(total):.4f}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
