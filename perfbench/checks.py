"""Correctness checks on a command's artifacts.

None of them depends on the random stream: they check counts, identities and
ranges exactly, and the detection rates against an expected table within a
binomial tolerance, so a change that re-seeds the engine on purpose still
passes while a change that alters the statistics does not.
"""

from __future__ import annotations

import bisect
import csv
import math
import random
from dataclasses import replace
from pathlib import Path

# A rate passes when it lies within Z_TOL standard deviations of the expected
# rate; the variance adds the table's own sampling error, and p(1-p) is
# floored at 1/n so that an expected rate of exactly 0 or 1 still allows a few
# rare events.  At Z_TOL = 6 a correct program fails one check with
# probability of order 1e-9 (normal approximation), so the ~10^5 checks of a
# full set of benchmark runs raise no false alarm.
Z_TOL = 6.0

# track_long: position RMSE of the estimate against truth.  The measurements
# alone have an RMSE of ~7.07 m (5 m per axis); the filter reaches 3.08-3.15 m
# over 20 000 steps at every seed tried, so 3.5 m leaves room for the
# stream but not for a filter that tracks materially worse.
TRACK_RMSE_BOUND_M = 3.5

# reference agreement: trials run by both routes, and how many are compared.
REFERENCE_TRIALS = 64
REFERENCE_SAMPLE = 4


class Tally:
    """Counts checks attempted and failed, keeping the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def within_table(p: float, expected: float, n: int, n_table: int) -> bool:
    var = max(expected * (1.0 - expected), 1.0 / n) * (1.0 / n + 1.0 / n_table)
    return abs(p - expected) <= Z_TOL * math.sqrt(var)


def cell_key(*values: str) -> str:
    return ",".join(format(float(v), "g") for v in values)


def check_rate_rows(tally: Tally, rows: list[dict[str, str]], trials: int, expected_of) -> None:
    """Per-cell checks shared by the sweep commands' CSVs; `expected_of(row)`
    gives the expected {pd, pfa, n_attack, n_legit} of a row, or None."""
    for i, row in enumerate(rows):
        where = f"row {i + 1}"
        n_att, n_leg = int(row["n_attack"]), int(row["n_legit"])
        pd, pfa, pm = float(row["pd"]), float(row["pfa"]), float(row["pm"])
        tally.check(n_att + n_leg == trials, f"{where}: n_attack + n_legit = {n_att + n_leg} != {trials}")
        tally.check(abs(pm - (1.0 - pd)) <= 1e-8, f"{where}: pm {pm} != 1 - pd {pd}")
        tally.check(all(0.0 <= v <= 1.0 for v in (pd, pfa, pm)), f"{where}: rate outside [0, 1]")
        exp = expected_of(row)
        if not tally.check(exp is not None, f"{where}: no expected rates for {row}"):
            continue
        tally.check(
            within_table(pd, exp["pd"], n_att, exp["n_attack"]),
            f"{where}: pd {pd} vs expected {exp['pd']:.4f}",
        )
        tally.check(
            within_table(pfa, exp["pfa"], n_leg, exp["n_legit"]),
            f"{where}: pfa {pfa} vs expected {exp['pfa']:.4f}",
        )


def check_sweep_distance(tally: Tally, out: Path, trials: int, n_cells: int, table: dict) -> None:
    rows = read_csv(out / "sweep_distance.csv")
    tally.check(len(rows) == n_cells, f"sweep_distance.csv has {len(rows)} rows, expected {n_cells}")
    cells = table["cells"]
    check_rate_rows(tally, rows, trials, lambda r: cells.get(cell_key(r["d_pu_pue_m"], r["snr_db"])))


def on_curve(curve: list[dict], tau: float) -> dict | None:
    """Expected rates at threshold `tau`, linear between the curve's points
    (sorted by tau); None outside the curve."""
    taus = [c["tau"] for c in curve]
    if not taus[0] <= tau <= taus[-1]:
        return None
    i = min(bisect.bisect_right(taus, tau) - 1, len(curve) - 2)
    lo, hi = curve[i], curve[i + 1]
    span = hi["tau"] - lo["tau"]
    w = (tau - lo["tau"]) / span if span > 0 else 0.0
    return {
        "pd": lo["pd"] + w * (hi["pd"] - lo["pd"]),
        "pfa": lo["pfa"] + w * (hi["pfa"] - lo["pfa"]),
        "n_attack": min(lo["n_attack"], hi["n_attack"]),
        "n_legit": min(lo["n_legit"], hi["n_legit"]),
    }


def check_sweep_roc(tally: Tally, out: Path, trials: int, n_cells: int, table: dict) -> None:
    """The calibrated threshold varies with the calibration sample, so each
    row's rates are compared with the expected ROC curve at the row's own
    tau: given tau, the held-out trials make both rates plain binomials.
    Tau must also fall as the false-alarm target rises."""
    rows = read_csv(out / "roc.csv")
    tally.check(len(rows) == n_cells, f"roc.csv has {len(rows)} rows, expected {n_cells}")
    curves = table["curves"]
    check_rate_rows(
        tally, rows, trials,
        lambda r: on_curve(curves[cell_key(r["snr_db"])], float(r["tau_m"])),
    )
    by_snr: dict[str, list[tuple[float, float]]] = {}
    for r in rows:
        by_snr.setdefault(r["snr_db"], []).append((float(r["target_pfa"]), float(r["tau_m"])))
    for snr, points in by_snr.items():
        taus = [tau for _, tau in sorted(points)]
        tally.check(all(a >= b for a, b in zip(taus, taus[1:])), f"snr {snr}: tau rises with target")


def track_rmse(out: Path) -> tuple[float, int]:
    """Position RMSE of the estimate against truth (inf with no rows), and the
    row count.  Read row by row, so that the check adds little to the peak RSS
    the benchmark reports."""
    with open(out / "track.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        col = {name: i for i, name in enumerate(next(reader))}
        ex, ey, tx, ty = (col[k] for k in ("est_x", "est_y", "true_x", "true_y"))
        total, n = 0.0, 0
        for r in reader:
            total += (float(r[ex]) - float(r[tx])) ** 2 + (float(r[ey]) - float(r[ty])) ** 2
            n += 1
    return (math.sqrt(total / n) if n else math.inf), n


def check_track(tally: Tally, out: Path, steps: int) -> None:
    rmse, n_rows = track_rmse(out)
    tally.check(n_rows == steps, f"track.csv has {n_rows} rows, expected {steps}")
    tally.check(rmse < TRACK_RMSE_BOUND_M, f"track position RMSE {rmse:.3f} m >= {TRACK_RMSE_BOUND_M} m")


def check_reference_agreement(tally: Tally, puedet, cfg, seed: int) -> None:
    """The batched engine and the per-step reference route give the same
    outcome on a seeded sample of trial indices."""
    noise = puedet.sigma_from_snr(cfg.sweep.snr_db[0], cfg.link.snr_calibration)
    scenario = replace(puedet.config.build_scenario(cfg), rss_noise=noise)
    detector = puedet.config.build_detector(cfg)
    outcomes = puedet.run_trials(scenario, detector, REFERENCE_TRIALS, cfg.sweep.schedule_mix, seed)
    for i in random.Random(seed).sample(range(REFERENCE_TRIALS), REFERENCE_SAMPLE):
        batched = outcomes[i]
        ref = puedet.experiments.reference_trial(scenario, detector, seed, i, batched.scheduled)
        same = (
            ref.verdict == batched.verdict
            and ref.seed == batched.seed
            and math.isclose(ref.residual, batched.residual, rel_tol=1e-9, abs_tol=1e-9)
        )
        tally.check(same, f"trial {i}: engine {batched} != reference {ref}")
