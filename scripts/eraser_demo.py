#!/usr/bin/env python3
"""One-photon eraser demo: show visibility with marking polarizers in place,
then with each orientation of the erasing polarizer."""
import sys

from qesim import scenarios
from qesim.circuit import evolve
from qesim.screen import fringe_visibility, pattern_from_state

def main() -> int:
    sc = scenarios.build("one_photon_eraser")
    for setting in ("absent", "plus45", "minus45"):
        st = evolve(sc.circuit, {"eraser": setting})
        pat = pattern_from_state(st, "slit")
        print(
            f"eraser={setting:8s} weight={st.weights[0]:.4f} "
            f"visibility={fringe_visibility(pat):.4f}"
        )
    return 0

if __name__ == "__main__":
    sys.exit(main())
