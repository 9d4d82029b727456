"""Regenerate the Monte Carlo reference means that `mc_bounds` checks against.

Usage, from the repository root:

    python3 perfbench/reference.py

It runs `monte_carlo_information` for every M >= 4 cell of the `mc_bounds`
workload with many trials and a seed far from any workload seed, and writes
the per-trial mean and standard deviation of each cell to
perfbench/mc_reference.json.  Takes about ten minutes at the default size.
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from phaseinfo import bounds  # noqa: E402

from workloads import MC_MODES, MC_STATES  # noqa: E402

REFERENCE_SEED = 2**40 + 7
REFERENCE_TRIALS = 300


def main():
    cells = []
    for label, make_state in MC_STATES:
        state = make_state()
        for modes in MC_MODES:
            if modes == 1:
                continue
            mean, stderr = bounds.monte_carlo_information(
                state, modes, REFERENCE_TRIALS, seed=REFERENCE_SEED
            )
            sd = stderr * math.sqrt(REFERENCE_TRIALS)
            cells.append({"state": label, "modes": modes, "mean": mean, "sd": sd})
            print(label, modes, mean, sd, flush=True)
    doc = {"trials": REFERENCE_TRIALS, "seed": REFERENCE_SEED, "cells": cells}
    with open(HERE / "mc_reference.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
