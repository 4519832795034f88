"""Command-line front end: run scenarios and sweeps, write CSV tables,
self-rendered SVG charts, and a manifest that reproduces the run exactly.

Subcommands: track, sweep-distance, sweep-roc, compare-baseline.
"""

from __future__ import annotations

import argparse
import csv
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
)
from .errors import ConfigError, InvalidInputError
from .experiments import block_streams
from .scenario import emit_position_measurement
from .svgplot import line_chart
from .tracking import initial_estimate, track
from .experiments import _filter_models, _step_accels  # shared model construction


def _cell(value) -> str:
    """One CSV cell: floats at 9 significant digits, empty for absent."""
    if value is None:
        return ""
    if isinstance(value, float):
        if not np.isfinite(value):
            raise InvalidInputError("refusing to write a non-finite value to CSV")
        return format(value, ".9g")
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


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
    # The measurements of trial 0 of the seed's Monte Carlo stream.
    _, gen, _ = block_streams(cfg.run.seed, 0)
    n = scenario.n_steps
    times = [scenario.step_time(k) for k in range(n)]
    zs = [emit_position_measurement(scenario, k, gen) for k in range(n)]
    motion, meas_model = _filter_models(scenario)
    init = initial_estimate(zs[0], meas_model, scenario.v_max)
    estimates = track(times, zs, motion, meas_model, init=init, accels=_step_accels(scenario, n - 1))

    rows = []
    for k in range(n):
        truth = scenario.trajectory.state_at(times[k])
        s = estimates[k].state
        rows.append(
            [k, times[k], truth.x, truth.y, float(zs[k][0]), float(zs[k][1]), s.x, s.y, s.vx, s.vy]
        )
    _write_csv(
        out / "track.csv",
        ["step", "time_s", "true_x", "true_y", "meas_x", "meas_y", "est_x", "est_y", "est_vx", "est_vy"],
        rows,
    )
    svg = line_chart(
        [
            ("true trajectory", [r[2] for r in rows], [r[3] for r in rows]),
            ("measurements", [r[4] for r in rows], [r[5] for r in rows]),
            ("filter estimate", [r[6] for r in rows], [r[7] for r in rows]),
        ],
        "Primary-user tracking", "x (m)", "y (m)",
    )
    (out / "track.svg").write_text(svg, encoding="utf-8")


def _report_row(report: experiments.MetricsReport) -> list:
    c = report.sweep_coords
    return [
        c.d_pu_pue if c else None,
        c.snr_db if c else None,
        c.tau if c else None,
        report.n_attack_trials,
        report.n_legit_trials,
        report.pd,
        report.pfa,
        report.pm,
    ]


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
    )
    x = lambda r: r.sweep_coords.d_pu_pue
    (out / "pd_vs_distance.svg").write_text(
        line_chart(
            _per_snr_series(reports, cfg.sweep.snr_db, x, lambda r: r.pd),
            "Detection probability vs attacker distance", "d_pu_pue (m)", "P_d",
        ),
        encoding="utf-8",
    )
    (out / "pm_vs_distance.svg").write_text(
        line_chart(
            _per_snr_series(reports, cfg.sweep.snr_db, x, lambda r: r.pm),
            "Miss probability vs attacker distance", "d_pu_pue (m)", "P_m",
        ),
        encoding="utf-8",
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
    rows = []
    for target, report in zip(targets, reports):
        rows.append([report.sweep_coords.snr_db, target] + _report_row(report)[2:])
    _write_csv(
        out / "roc.csv",
        ["snr_db", "target_pfa", "tau_m", "n_attack", "n_legit", "pd", "pfa", "pm"],
        rows,
    )
    (out / "roc.svg").write_text(
        line_chart(
            _per_snr_series(reports, cfg.sweep.snr_db, lambda r: r.pfa, lambda r: r.pd),
            f"ROC at d_pu_pue = {cfg.sweep.roc_distance:g} m", "P_fa", "P_d",
        ),
        encoding="utf-8",
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
    )
    dist = [r.distance for r in rows]
    (out / "pd_comparison.svg").write_text(
        line_chart(
            [
                ("proposed (tracking)", dist, [r.proposed.pd for r in rows]),
                ("RSS baseline", dist, [r.baseline.pd for r in rows]),
            ],
            "Detection probability: proposed vs RSS baseline", "d_pu_pue (m)", "P_d",
        ),
        encoding="utf-8",
    )
    (out / "pm_comparison.svg").write_text(
        line_chart(
            [
                ("proposed (tracking)", dist, [r.proposed.pm for r in rows]),
                ("RSS baseline", dist, [r.baseline.pm for r in rows]),
            ],
            "Miss probability: proposed vs RSS baseline", "d_pu_pue (m)", "P_m",
        ),
        encoding="utf-8",
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
        if cfg.run.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {cfg.run.seed}")
        if cfg.run.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {cfg.run.trials}")

        out = Path(cfg.run.out)
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](cfg, out)
        _write_manifest(out, args.command, cfg)
    except (ConfigError, InvalidInputError, OSError) as exc:
        print(f"puedet: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
