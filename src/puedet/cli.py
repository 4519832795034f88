"""Command-line front end: run scenarios and sweeps, write CSV tables,
self-rendered SVG charts, and a manifest that reproduces the run exactly.

Subcommands: track, sweep-distance, sweep-roc, compare-baseline.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import experiments
from .config import (
    ExperimentConfig,
    build_detector,
    build_scenario,
    load_config,
    serialize_config,
    validate_config,
)
from .errors import ConfigError, InvalidInputError, NumericalDegeneracyError
from .experiments import cell_streams
from .svgplot import line_chart


_BLOCK_ROWS = 4096
_SWEEP_SPECS = ["%.9g"] * 3 + ["%d"] * 2 + ["%.9g"] * 3


def _write_csv(path: Path, header: list[str], rows, specs: list[str]) -> None:
    """Write `rows` (lists or a 2-D array) under `header`, each column in its
    %-spec of `specs`, an absent (None) cell empty.  Every value is checked
    finite before the file is opened; rows are formatted a block at a time."""
    table = np.array(rows, dtype=float).reshape(len(rows), len(specs))  # an absent cell reads as nan
    absent = ~np.isfinite(table)
    if any(rows[i][j] is not None for i, j in np.argwhere(absent)):
        raise InvalidInputError(f"refusing to write a non-finite value to {path.name}")
    formats = [",".join(specs) + "\n"] * len(table)
    for i in np.flatnonzero(absent.any(axis=1)):
        # "%.0s" prints an absent cell's nan as nothing.
        formats[i] = ",".join(np.where(absent[i], "%.0s", specs)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            fh.write("".join(map(str.__mod__, formats[block], map(tuple, table[block].tolist()))))


def _write_chart(path: Path, series, title: str, xlabel: str, ylabel: str) -> None:
    """Write the line chart of the (label, xs, ys) `series` at the points where
    x and y are both present: a rate is absent (None) in a cell without trials
    of its kind.  A series with no such point is left out, and a chart with no
    series is not written."""
    kept = []
    for label, xs, ys in series:
        points = [(x, y) for x, y in zip(xs, ys) if x is not None and y is not None]
        if points:
            kept.append((label, *zip(*points)))
    if kept:
        path.write_text(line_chart(kept, title, xlabel, ylabel), encoding="utf-8")


def _write_manifest(out: Path, command: str, cfg: ExperimentConfig) -> None:
    # The manifest is itself a loadable config file; the command is a comment.
    text = f"# command: {command}\n{serialize_config(cfg)}"
    (out / "manifest.txt").write_text(text, encoding="utf-8")


def _resolve_detector(cfg: ExperimentConfig, scenario):
    """Fixed tau, or tau calibrated to the configured false-alarm target."""
    if cfg.detector.target_pfa is None:
        return build_detector(cfg)
    n_cal = cfg.sweep.calibration_trials or cfg.run.trials
    return experiments.calibrated_config(
        scenario, cfg.detector.target_pfa, n_cal, cfg.run.seed, cfg.detector.fusion
    )


def cmd_track(cfg: ExperimentConfig, out: Path) -> None:
    scenario = build_scenario(cfg)
    n = scenario.n_steps
    # Columns: step, time, truth (2), measurement (2), estimate (4).
    table = np.empty((n, 10))
    table[:, 0] = np.arange(n)
    table[:, 1] = scenario.step_times(n - 1)
    table[:, 2:4] = scenario.truth_path(n - 1)
    # The measurement noise is the first (n, 2) draws of the position
    # generator of the seed's Monte Carlo cell.
    _, gen, _ = cell_streams(cfg.run.seed)
    table[:, 4:6] = table[:, 2:4] + scenario.meas_noise_std * gen.standard_normal((n, 2))
    table[:, 6:] = scenario.track(table[:, 4:6])
    _write_csv(
        out / "track.csv",
        ["step", "time_s", "true_x", "true_y", "meas_x", "meas_y", "est_x", "est_y", "est_vx", "est_vy"],
        table,
        ["%d"] + ["%.9g"] * 9,
    )
    svg = line_chart(
        [
            ("true trajectory", table[:, 2], table[:, 3]),
            ("measurements", table[:, 4], table[:, 5]),
            ("filter estimate", table[:, 6], table[:, 7]),
        ],
        "Primary-user tracking", "x (m)", "y (m)",
    )
    (out / "track.svg").write_text(svg, encoding="utf-8")


def _report_row(report: experiments.MetricsReport) -> list:
    coords = report.sweep_coords or (None, None, None)
    return [*coords, report.n_attack_trials, report.n_legit_trials, report.pd, report.pfa, report.pm]


def _per_snr_series(reports, snr_list, x_of, y_of):
    series = []
    for snr in snr_list:
        cells = [r for r in reports if r.sweep_coords.snr_db == snr]
        series.append((f"SNR {snr:g} dB", [x_of(r) for r in cells], [y_of(r) for r in cells]))
    return series


def cmd_sweep_distance(cfg: ExperimentConfig, out: Path) -> None:
    scenario = build_scenario(cfg)
    detector = _resolve_detector(cfg, scenario)
    reports = experiments.sweep_distance(
        scenario,
        cfg.sweep.distances,
        cfg.sweep.snr_db,
        detector,
        cfg.run.trials,
        cfg.run.seed,
        snr_calibration=cfg.link.snr_calibration,
        bearings=cfg.sweep.bearings or None,
        schedule_mix=cfg.sweep.schedule_mix,
    )
    _write_csv(
        out / "sweep_distance.csv",
        ["d_pu_pue_m", "snr_db", "tau_m", "n_attack", "n_legit", "pd", "pfa", "pm"],
        [_report_row(r) for r in reports],
        _SWEEP_SPECS,
    )
    x = lambda r: r.sweep_coords.d_pu_pue
    _write_chart(
        out / "pd_vs_distance.svg",
        _per_snr_series(reports, cfg.sweep.snr_db, x, lambda r: r.pd),
        "Detection probability vs attacker distance", "d_pu_pue (m)", "P_d",
    )
    _write_chart(
        out / "pm_vs_distance.svg",
        _per_snr_series(reports, cfg.sweep.snr_db, x, lambda r: r.pm),
        "Miss probability vs attacker distance", "d_pu_pue (m)", "P_m",
    )


def cmd_sweep_roc(cfg: ExperimentConfig, out: Path) -> None:
    scenario = build_scenario(cfg)
    reports = experiments.sweep_roc(
        scenario,
        cfg.sweep.roc_distance,
        cfg.sweep.snr_db,
        cfg.sweep.pfa_targets,
        cfg.run.trials,
        cfg.run.seed,
        snr_calibration=cfg.link.snr_calibration,
        n_calibration=cfg.sweep.calibration_trials or None,
        bearings=cfg.sweep.bearings or None,
        schedule_mix=cfg.sweep.schedule_mix,
        fusion=cfg.detector.fusion,
    )
    # Reports are target-major within each SNR, matching this zip.
    targets = list(cfg.sweep.pfa_targets) * len(cfg.sweep.snr_db)
    _write_csv(
        out / "roc.csv",
        ["snr_db", "target_pfa", "tau_m", "n_attack", "n_legit", "pd", "pfa", "pm"],
        [[r.sweep_coords.snr_db, target] + _report_row(r)[2:] for target, r in zip(targets, reports)],
        _SWEEP_SPECS,
    )
    _write_chart(
        out / "roc.svg",
        _per_snr_series(reports, cfg.sweep.snr_db, lambda r: r.pfa, lambda r: r.pd),
        f"ROC at d_pu_pue = {cfg.sweep.roc_distance:g} m", "P_fa", "P_d",
    )


def cmd_compare_baseline(cfg: ExperimentConfig, out: Path) -> None:
    scenario = build_scenario(cfg)
    detector = _resolve_detector(cfg, scenario)
    rows = experiments.compare_baseline(
        scenario,
        detector,
        cfg.run.trials,
        cfg.run.seed,
        distances=cfg.sweep.distances,
        schedule_mix=cfg.sweep.schedule_mix,
    )
    _write_csv(
        out / "compare_baseline.csv",
        [
            "distance_m", "actual_distance_m", "tau_m",
            "proposed_pd", "proposed_pfa", "proposed_pm",
            "baseline_pd", "baseline_pfa", "baseline_pm",
            "n_attack", "n_legit",
        ],
        [
            [
                r.distance, r.actual_distance, detector.tau,
                r.proposed.pd, r.proposed.pfa, r.proposed.pm,
                r.baseline.pd, r.baseline.pfa, r.baseline.pm,
                r.proposed.n_attack_trials, r.proposed.n_legit_trials,
            ]
            for r in rows
        ],
        ["%.9g"] * 9 + ["%d"] * 2,
    )
    dist = [r.distance for r in rows]
    _write_chart(
        out / "pd_comparison.svg",
        [
            ("proposed (tracking)", dist, [r.proposed.pd for r in rows]),
            ("RSS baseline", dist, [r.baseline.pd for r in rows]),
        ],
        "Detection probability: proposed vs RSS baseline", "d_pu_pue (m)", "P_d",
    )
    _write_chart(
        out / "pm_comparison.svg",
        [
            ("proposed (tracking)", dist, [r.proposed.pm for r in rows]),
            ("RSS baseline", dist, [r.baseline.pm for r in rows]),
        ],
        "Miss probability: proposed vs RSS baseline", "d_pu_pue (m)", "P_m",
    )


_COMMANDS = {
    "track": cmd_track,
    "sweep-distance": cmd_sweep_distance,
    "sweep-roc": cmd_sweep_roc,
    "compare-baseline": cmd_compare_baseline,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="puedet",
        description="Primary-user-emulation attack detection experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="config file path")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        p.add_argument("--out", type=str, default=None, help="output directory (overrides config)")
        p.add_argument("--trials", type=int, default=None, help="trials per cell (overrides config)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        run = cfg.run
        if args.seed is not None:
            run = replace(run, seed=args.seed)
        if args.trials is not None:
            run = replace(run, trials=args.trials)
        if args.out is not None:
            run = replace(run, out=args.out)
        cfg = replace(cfg, run=run)
        validate_config(cfg)

        out = Path(cfg.run.out)
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](cfg, out)
        _write_manifest(out, args.command, cfg)
    except (ConfigError, InvalidInputError, NumericalDegeneracyError, OSError) as exc:
        print(f"puedet: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
