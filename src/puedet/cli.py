"""Command-line front end: run scenarios and sweeps, write CSV tables,
self-rendered SVG charts, and a manifest that reproduces the run exactly.

Commands: track, sweep-distance, sweep-roc, compare-baseline.  Each runs the
scenario that `validate_config` built (a failure only some keys decide is named
by `config_error`) and returns its files by name, every table checked and every
chart built, each as a function that formats and writes it, and only then is
any file written, so a failing command writes none.  A file that formats at
least _FORK_VALUES values, while those listed after it format as many, is
written by a forked child as the parent writes the rest (in practice a long
track's chart); without os.fork every file is written in this process.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import experiments
from .config import ExperimentConfig, build_detector, config_error, read_config, serialize_config, validate_config
from .errors import ConfigError, InvalidInputError, NumericalDegeneracyError
from .experiments import cell_streams
from .propagation import check_ranging_noise, sigma_from_snr
from .svgplot import line_chart


_BLOCK_ROWS = 4096
# Forking and reaping a child costs about 2-3 ms in a 60-80 MB numpy process
# on a 2-CPU x86 host, the time of some 12 000 "%.2f" values.
_FORK_VALUES = 12_000
_SWEEP_SPECS = ["%.9g"] * 3 + ["%d"] * 2 + ["%.9g"] * 3


def _csv(name: str, header: list[str], rows, specs: list[str]):
    """The text of CSV file `name` as a function that writes it to a file:
    `rows` (lists or a 2-D array) under `header`, each column in its %-spec of
    `specs`, an absent (None) cell empty.  Every value is checked finite here,
    before any file is opened; each block of rows is formatted by one %.  The
    function's `values` counts the values it formats."""
    table = np.array(rows, dtype=float).reshape(len(rows), len(specs))  # an absent cell reads as nan
    absent = ~np.isfinite(table)
    if any(rows[i][j] is not None for i, j in np.argwhere(absent)):
        raise InvalidInputError(f"refusing to write a non-finite value to {name}")
    formats = [",".join(specs) + "\n"] * len(table)
    for i in np.flatnonzero(absent.any(axis=1)):
        # "%.0s" prints an absent cell's nan as nothing.
        formats[i] = ",".join(np.where(absent[i], "%.0s", specs)) + "\n"

    def write(fh) -> None:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            # One % per block: each row's format takes exactly len(specs) values.
            fh.write("".join(formats[block]) % tuple(table[block].ravel().tolist()))

    write.values = table.size
    return write


def _chart(series, title: str, xlabel: str, ylabel: str) -> str | None:
    """The line chart of the (label, xs, ys) `series` at the points where x and
    y are both present: a rate is absent (None) in a cell without trials of
    its kind.  A series with no such point is left out, and a chart with no
    series is None, which is not written."""
    kept = []
    for label, xs, ys in series:
        points = [(x, y) for x, y in zip(xs, ys) if x is not None and y is not None]
        if points:
            kept.append((label, *zip(*points)))
    return line_chart(kept, title, xlabel, ylabel) if kept else None


def _check_ranging(cfg: ExperimentConfig, scenario) -> None:
    """Refuse, naming its keys, a link whose RSS noise at some SNR of the
    sweep fails ranging whatever the draws (see check_ranging_noise)."""
    with config_error("[link] alpha, snr_calibration, [sweep] snr_db"):
        for snr in cfg.sweep.snr_db:
            check_ranging_noise(scenario.link, sigma_from_snr(snr, cfg.link.snr_calibration))


def _resolve_detector(cfg: ExperimentConfig, scenario):
    """Fixed tau, or tau calibrated to the configured false-alarm target."""
    if cfg.detector.target_pfa is None:
        return build_detector(cfg)
    n_cal = cfg.sweep.calibration_trials or cfg.run.trials
    return experiments.calibrated_config(
        scenario, cfg.detector.target_pfa, n_cal, cfg.run.seed, cfg.detector.fusion
    )


def cmd_track(cfg: ExperimentConfig, scenario) -> dict:
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
    header = ["step", "time_s", "true_x", "true_y", "meas_x", "meas_y", "est_x", "est_y", "est_vx", "est_vy"]
    # `track` refuses a non-finite measurement or estimate, so the chart fails
    # only if the track lies too far out for its span to be scaled.
    with config_error("[scenario] start_x, start_y"):
        chart = line_chart(
            [
                ("true trajectory", table[:, 2], table[:, 3]),
                ("measurements", table[:, 4], table[:, 5]),
                ("filter estimate", table[:, 6], table[:, 7]),
            ],
            "Primary-user tracking", "x (m)", "y (m)",
        )
    # The chart comes first: on a long track it goes to a forked child while
    # this process writes the table.
    return {"track.svg": chart, "track.csv": _csv("track.csv", header, table, ["%d"] + ["%.9g"] * 9)}


def _report_row(report: experiments.MetricsReport) -> list:
    coords = report.sweep_coords or (None, None, None)
    return [*coords, report.n_attack_trials, report.n_legit_trials, report.pd, report.pfa, report.pm]


def _per_snr_series(reports, snr_list, x_of, y_of):
    series = []
    for snr in snr_list:
        cells = [r for r in reports if r.sweep_coords.snr_db == snr]
        series.append((f"SNR {snr:g} dB", [x_of(r) for r in cells], [y_of(r) for r in cells]))
    return series


def cmd_sweep_distance(cfg: ExperimentConfig, scenario) -> dict:
    _check_ranging(cfg, scenario)
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
    header = ["d_pu_pue_m", "snr_db", "tau_m", "n_attack", "n_legit", "pd", "pfa", "pm"]
    x = lambda r: r.sweep_coords.d_pu_pue
    csv_file = _csv("sweep_distance.csv", header, [_report_row(r) for r in reports], _SWEEP_SPECS)
    # A chart's rates lie in [0, 1], so only its distance axis can fail.
    with config_error("[sweep] distances"):
        return {
            "sweep_distance.csv": csv_file,
            "pd_vs_distance.svg": _chart(
                _per_snr_series(reports, cfg.sweep.snr_db, x, lambda r: r.pd),
                "Detection probability vs attacker distance", "d_pu_pue (m)", "P_d",
            ),
            "pm_vs_distance.svg": _chart(
                _per_snr_series(reports, cfg.sweep.snr_db, x, lambda r: r.pm),
                "Miss probability vs attacker distance", "d_pu_pue (m)", "P_m",
            ),
        }


def cmd_sweep_roc(cfg: ExperimentConfig, scenario) -> dict:
    _check_ranging(cfg, scenario)
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
    header = ["snr_db", "target_pfa", "tau_m", "n_attack", "n_legit", "pd", "pfa", "pm"]
    rows = [[r.sweep_coords.snr_db, target] + _report_row(r)[2:] for target, r in zip(targets, reports)]
    return {
        "roc.csv": _csv("roc.csv", header, rows, _SWEEP_SPECS),
        "roc.svg": _chart(
            _per_snr_series(reports, cfg.sweep.snr_db, lambda r: r.pfa, lambda r: r.pd),
            f"ROC at d_pu_pue = {cfg.sweep.roc_distance:g} m", "P_fa", "P_d",
        ),
    }


def cmd_compare_baseline(cfg: ExperimentConfig, scenario) -> dict:
    with config_error("[sweep] distances"):
        experiments.baseline_eval_steps(scenario, cfg.sweep.distances)
    detector = _resolve_detector(cfg, scenario)
    rows = experiments.compare_baseline(
        scenario,
        detector,
        cfg.run.trials,
        cfg.run.seed,
        distances=cfg.sweep.distances,
        schedule_mix=cfg.sweep.schedule_mix,
    )
    csv_file = _csv(
        "compare_baseline.csv",
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
    with config_error("[sweep] distances"):
        return {
            "compare_baseline.csv": csv_file,
            "pd_comparison.svg": _chart(
                [
                    ("proposed (tracking)", dist, [r.proposed.pd for r in rows]),
                    ("RSS baseline", dist, [r.baseline.pd for r in rows]),
                ],
                "Detection probability: proposed vs RSS baseline", "d_pu_pue (m)", "P_d",
            ),
            "pm_comparison.svg": _chart(
                [
                    ("proposed (tracking)", dist, [r.proposed.pm for r in rows]),
                    ("RSS baseline", dist, [r.baseline.pm for r in rows]),
                ],
                "Miss probability: proposed vs RSS baseline", "d_pu_pue (m)", "P_m",
            ),
        }


_COMMANDS = {
    "track": cmd_track,
    "sweep-distance": cmd_sweep_distance,
    "sweep-roc": cmd_sweep_roc,
    "compare-baseline": cmd_compare_baseline,
}


def _build_parser() -> argparse.ArgumentParser:
    # One parser: every command takes the same options, before or after it.
    parser = argparse.ArgumentParser(
        prog="puedet",
        description="Primary-user-emulation attack detection experiments",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", type=str, default=None, help="config file path")
    parser.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    parser.add_argument("--out", type=str, default=None, help="output directory (overrides config)")
    parser.add_argument("--trials", type=int, default=None, help="trials per cell (overrides config)")
    return parser


def _write(path: Path, body) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(body) if isinstance(body, str) else body(fh)


def _forked_name(files: dict) -> str | None:
    """The file to write in a forked child: the first that formats at least
    _FORK_VALUES values, when the files after it, which this process writes
    meanwhile, format as many; None if there is none."""
    # A manifest (str) or a chart with nothing to plot (None) formats none.
    sizes = [getattr(body, "values", 0) for body in files.values()]
    for i, name in enumerate(files):
        if sizes[i] >= _FORK_VALUES and sum(sizes[i + 1:]) >= _FORK_VALUES:
            return name
    return None


def _fork_write(path: Path, body) -> int | None:
    """Fork a child that writes `body` to `path` and leaves by os._exit, never
    returning into the caller: its exit status is 0, the errno of an OSError,
    or 255 for any other failure.  Returns the child's pid, or None where
    os.fork does not exist or fails, and the caller writes `body` itself."""
    fork = getattr(os, "fork", None)
    if fork is None:
        return None
    with warnings.catch_warnings():
        # Python >= 3.12 warns on fork in a process with more than one
        # thread, and importing numpy starts one (the BLAS pool).  The child
        # only formats and writes: it calls no BLAS and takes no lock that
        # thread could hold.
        warnings.filterwarnings(
            "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)", DeprecationWarning
        )
        try:
            pid = fork()
        except OSError:
            return None
    if pid:
        return pid
    status = 255
    try:
        _write(path, body)
        status = 0
    except OSError as exc:
        if exc.errno and exc.errno < 255:
            status = exc.errno
    finally:
        os._exit(status)


def _child_error(status: int, path: Path) -> OSError:
    """The error of a child that left writing `path` with wait status `status`."""
    code = os.waitstatus_to_exitcode(status)
    if 0 < code < 255:
        return OSError(code, os.strerror(code), str(path))
    return OSError(f"writing {path} failed in a child process (exit status {code})")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # Validated once, after the command line's overrides.
        cfg = read_config(args.config) if args.config else ExperimentConfig()
        run = cfg.run
        if args.seed is not None:
            run = replace(run, seed=args.seed)
        if args.trials is not None:
            run = replace(run, trials=args.trials)
        if args.out is not None:
            run = replace(run, out=args.out)
        cfg = replace(cfg, run=run)
        scenario = validate_config(cfg)

        out = Path(cfg.run.out)
        out.mkdir(parents=True, exist_ok=True)
        files = _COMMANDS[args.command](cfg, scenario)
        # The manifest is itself a loadable config file; the command is a comment.
        files["manifest.txt"] = f"# command: {args.command}\n{serialize_config(cfg)}"
        forked, pid, status = _forked_name(files), None, 0
        try:
            # Each file is dropped once written or handed to the child, so a
            # chart listed before a table is not held while the table streams.
            for name in list(files):
                body = files.pop(name)
                if name == forked and (pid := _fork_write(out / name, body)):
                    continue
                if body is not None:  # None is a chart with nothing to plot
                    _write(out / name, body)
        finally:
            # Reaped even when this process's own write fails, whose error
            # then stands.
            if pid is not None:
                status = os.waitpid(pid, 0)[1]
        if status:
            raise _child_error(status, out / forked)
    except (ConfigError, InvalidInputError, NumericalDegeneracyError, OSError, MemoryError) as exc:
        print(f"puedet: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
