"""Regenerate the expected rate tables that the benchmark checks against.

Runs each sweep workload's command once at a large trial count and stores
the rates it measured.  For ``sweep-distance`` that is every cell.  For
``sweep-roc`` it is, per SNR, the ROC curve over a fine grid of false-alarm
targets (tau, P_d, P_fa), so that a benchmark row can be compared at its own
calibrated tau.  The tables describe the detector's statistics, not one
random stream, so they stay valid when the engine is re-seeded; regenerate
them only when the model itself changes on purpose.

    python3 perfbench/make_expected.py [--trials 20000] [--seed 987654321]
"""

from __future__ import annotations

import argparse
import json
import shutil
from dataclasses import replace

import checks
import run

# Fine enough that linear interpolation between points stays well inside the
# binomial tolerance, and wide enough to hold every tau that a calibration on
# the benchmark's trial count picks for targets 0.01..0.2.
ROC_GRID = tuple(
    [k / 1000 for k in range(1, 10)]
    + [k / 400 for k in range(4, 20)]
    + [k / 200 for k in range(10, 81)]
)


def rates(row: dict) -> dict:
    return {"pd": float(row["pd"]), "pfa": float(row["pfa"]),
            "n_attack": int(row["n_attack"]), "n_legit": int(row["n_legit"])}


def run_command(puedet, command: str, config, seed: int, trials: int, out) -> None:
    code = puedet.cli.main([command, "--config", str(config), "--seed", str(seed),
                            "--trials", str(trials), "--out", str(out)])
    if code != 0:
        raise SystemExit(f"{command} failed with exit code {code}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=987654321)
    args = parser.parse_args()
    puedet = run.import_puedet()
    work = run.OUT_ROOT / "expected"
    work.mkdir(parents=True, exist_ok=True)
    for w in run.WORKLOADS.values():
        table = {"trials": args.trials, "seed": args.seed}
        if w.command == "sweep-distance":
            run_command(puedet, w.command, w.config, args.seed, args.trials, work)
            table["cells"] = {
                checks.cell_key(r["d_pu_pue_m"], r["snr_db"]): rates(r)
                for r in checks.read_csv(work / "sweep_distance.csv")
            }
        elif w.command == "sweep-roc":
            cfg = puedet.config.load_config(str(w.config))
            fine = replace(cfg, sweep=replace(cfg.sweep, pfa_targets=ROC_GRID))
            config = work / "roc_grid.cfg"
            config.write_text(puedet.config.serialize_config(fine))
            run_command(puedet, w.command, config, args.seed, args.trials, work)
            curves: dict[str, list] = {}
            for r in checks.read_csv(work / "roc.csv"):
                curves.setdefault(checks.cell_key(r["snr_db"]), []).append(
                    dict(rates(r), tau=float(r["tau_m"]))
                )
            table["curves"] = {snr: sorted(c, key=lambda p: p["tau"]) for snr, c in curves.items()}
        else:
            continue
        w.expected.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"{w.name} -> {w.expected.name}")
    shutil.rmtree(work)


if __name__ == "__main__":
    main()
