#!/usr/bin/env python3
"""Print how the threshold trades detections against false alarms.

Sweeps tau at a fixed attacker distance and SNR on the stock scenario and
tabulates P_d / P_fa / P_m per threshold.

Usage: python scripts/tau_sensitivity.py [snr_db] [distance_m]
"""

import sys

import numpy as np

from puedet import DetectorConfig, attacker_positions, default_scenario, run_cell, sigma_from_snr
from puedet.config import LinkConfig

SEED = 2024
TRIALS = 8000


def run() -> int:
    snr = float(sys.argv[1]) if len(sys.argv) > 1 else 0.0
    distance = float(sys.argv[2]) if len(sys.argv) > 2 else 50.0

    scen = default_scenario(rss_noise=sigma_from_snr(snr, LinkConfig.snr_calibration))
    is_pue = np.arange(TRIALS) < TRIALS // 2
    # one cell, scored at every threshold in one pass; the trial streams are shared
    cell = run_cell(scen, is_pue, attacker_positions(scen, distance), SEED)
    configs = [DetectorConfig(tau) for tau in (5.0, 10.0, 15.0, 20.0, 25.0, 35.0, 50.0, 75.0, 100.0)]

    print(f"snr = {snr:g} dB, d_pu_pue = {distance:g} m, {TRIALS} trials")
    print(f"{'tau_m':>6}  {'pd':>6}  {'pfa':>6}  {'pm':>6}")
    for c, r in zip(configs, cell.scores(configs)):
        print(f"{c.tau:6.1f}  {r.pd:6.3f}  {r.pfa:6.3f}  {r.pm:6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
