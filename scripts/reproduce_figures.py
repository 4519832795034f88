#!/usr/bin/env python3
"""Run the full experiment set with stock settings.

Produces, under results/:
  track/             true-vs-estimated trajectory (CSV + SVG overlay)
  sweep_distance/    P_d and P_m vs attacker distance, one curve per SNR
  sweep_roc/         P_d vs achieved P_fa per SNR at the ROC distance
  compare_baseline/  proposed detector vs static-reference RSS baseline

The default of 500 trials per cell reproduces the committed results/ byte
for byte.  Output paths are given relative to the repository root, so each
manifest records a machine-independent `out =` line.

Usage: python scripts/reproduce_figures.py [trials-per-cell]
"""

import os
import sys
from pathlib import Path

from puedet.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run() -> int:
    trials = sys.argv[1] if len(sys.argv) > 1 else "500"
    os.chdir(ROOT)
    for command in ("track", "sweep-distance", "sweep-roc", "compare-baseline"):
        out = f"results/{command.replace('-', '_')}"
        print(f">>> puedet {command} --out {out} --trials {trials}")
        rc = main([command, "--out", out, "--trials", trials])
        if rc != 0:
            return rc
    print(f"done; artifacts under {ROOT / 'results'}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
