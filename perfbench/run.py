"""Benchmark of the puedet CLI: one workload per invocation, end to end or traced.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark imports puedet from ``src/`` of the checkout and runs the
workload's command through ``puedet.cli.main`` in this process, again and
again with seeds derived from ``--seed``, until ``--seconds`` have passed.
Every run's artifacts are checked for correctness outside the timed region.

``--trace 0`` reports the end-to-end metrics: set-up time (median over fresh
interpreters that import the CLI, load the config and build the scenario,
one launched after each command run), the median wall time of the command
relative to a fixed reference computation timed around it, filter steps per
reference time, peak RSS and the share of correctness checks passed.

``--trace 1`` spends half the time untraced and half with every public
callable of each puedet module wrapped by :mod:`tracer`, and reports the
per-layer metrics.  It also checks that tracing leaves the artifacts
byte-identical and that every wrapped name is restored.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records provenance.  A copy of both is written under ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_build" / "perfbench"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # puedet subcommand
    config: Path
    trials: int  # trials per cell; `track` runs one trial whatever this is
    expected: Path | None = None  # expected P_d/P_fa table of a sweep


WORKLOADS = {
    w.name: w
    for w in (
        # The main command: 35 cells at the stock config.  Time goes to
        # per-trial seeding and the batched recursion in `experiments`.
        Workload(
            "sweep_distance_stock", "sweep-distance",
            HERE / "workloads" / "sweep_distance_stock.cfg", 1000,
            HERE / "workloads" / "sweep_distance_stock.expected.json",
        ),
        # The same engine used differently: 10 cells on 4 anchors with
        # or-fusion, each SNR rescored for 20 targets, so scoring and
        # `detection.calibrate_tau` carry a large share.
        Workload(
            "roc_fine_or4", "sweep-roc",
            HERE / "workloads" / "roc_fine_or4.cfg", 1500,
            HERE / "workloads" / "roc_fine_or4.expected.json",
        ),
        # The per-step predict/update API, trajectory evaluation and CSV/SVG
        # output; no per-trial seeding and no scoring, so it stays flat when
        # the engine changes.
        Workload("track_long", "track", HERE / "workloads" / "track_long.cfg", 1),
    )
}


def import_puedet():
    """Import puedet from this checkout's sources, never from elsewhere."""
    if not (SRC / "puedet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no puedet sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import puedet
    import puedet.cli
    import puedet.config

    if Path(puedet.__file__).resolve().parent != SRC / "puedet":
        raise SystemExit(f"perfbench: imported puedet from {puedet.__file__}, not {SRC}")
    return puedet


def rep_seed(seed: int, rep: int) -> int:
    """Seed of one command run, derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}/{rep}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def setup_seconds(config: Path) -> tuple[float, bool]:
    """Wall time from starting a fresh interpreter until it has imported the
    CLI, loaded the config and built the scenario."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import puedet.cli\n"
        "from puedet.config import build_scenario, load_config\n"
        f"build_scenario(load_config({str(config)!r}))\n"
        "print(repr(time.time()))\n"
    )
    t0 = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60
        )
    except subprocess.TimeoutExpired:
        return time.time() - t0, False
    if proc.returncode != 0:
        return time.time() - t0, False
    return float(proc.stdout.strip().splitlines()[-1]) - t0, True


class Runner:
    """Runs one workload's command repeatedly and checks every run's output."""

    def __init__(self, puedet, workload: Workload, seed: int, out_dir: Path):
        self.puedet = puedet
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.tally = checks.Tally()
        self.attempted = 0
        self.failed = 0
        self.cfg = None
        self.bytes_written = 0  # artifacts of the latest run
        try:
            self.cfg = puedet.config.load_config(str(workload.config))
        except puedet.ConfigError as exc:
            self.tally.check(False, f"config {workload.config.name}: {exc}")
        self.table = json.loads(workload.expected.read_text()) if workload.expected else None

    def run_once(self, rep: int, tag: str) -> tuple[float, float, Path]:
        """One timed command run; returns (wall s, cpu s, output dir).

        Every run writes to the same directory, so the manifest (which records
        it) is the same for runs at the same seed."""
        out = self.out_dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        argv = [
            self.workload.command, "--config", str(self.workload.config),
            "--seed", str(rep_seed(self.seed, rep)), "--trials", str(self.workload.trials),
            "--out", str(out),
        ]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                code = self.puedet.cli.main(argv)
            except Exception:  # a crashing run is a failed operation, not a crashed benchmark
                code = traceback.format_exc(limit=3)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.attempted += 1
        before = self.tally.failed
        if self.tally.check(code == 0, f"{tag}{rep}: exit code {code}: {stderr.getvalue().strip()}"):
            try:
                self.check_output(out)
            except Exception as exc:  # malformed artifacts fail the run's checks
                self.tally.check(False, f"{tag}{rep}: unreadable output: {exc!r}")
        if self.tally.failed > before:
            self.failed += 1
        self.bytes_written = sum(f.stat().st_size for f in out.glob("*") if f.is_file())
        return wall, cpu, out

    def check_output(self, out: Path) -> None:
        cfg, tally = self.cfg, self.tally
        command = self.workload.command
        if command == "track":
            checks.check_track(tally, out, cfg.scenario.steps)
        elif command == "sweep-distance":
            n_cells = len(cfg.sweep.distances) * len(cfg.sweep.snr_db)
            checks.check_sweep_distance(tally, out, self.workload.trials, n_cells, self.table)
        elif command == "sweep-roc":
            n_cells = len(cfg.sweep.snr_db) * len(cfg.sweep.pfa_targets)
            checks.check_sweep_roc(tally, out, self.workload.trials, n_cells, self.table)

    def trials_per_run(self) -> int:
        """Trials one command run performs, summed over its cells."""
        cfg, command, trials = self.cfg, self.workload.command, self.workload.trials
        if cfg is None or command == "track":
            return 1
        if command == "sweep-distance":
            return len(cfg.sweep.distances) * len(cfg.sweep.snr_db) * trials
        return len(cfg.sweep.snr_db) * ((cfg.sweep.calibration_trials or trials) + trials)

    def filter_steps(self) -> int:
        """Filter steps one command run performs: trials x (eval_step + 1),
        summed over cells; `track` filters the whole schedule once."""
        cfg = self.cfg
        if cfg is None:
            return 0
        if self.workload.command == "track":
            return cfg.scenario.steps
        eval_step = cfg.scenario.eval_step if cfg.scenario.eval_step >= 0 else cfg.scenario.steps - 1
        return self.trials_per_run() * (eval_step + 1)

    def loop(self, seconds: float, tag: str, before=None, after=None) -> tuple[list[float], list[float]]:
        """Run until `seconds` have passed, at least once; return the runs'
        wall and CPU times.  Rep 0's artifacts are kept as `<tag>0`."""
        walls, cpus = [], []
        deadline = time.perf_counter() + seconds
        rep = 0
        while rep == 0 or time.perf_counter() < deadline:
            if before:
                before()
            wall, cpu, out = self.run_once(rep, tag)
            if after:
                after()
            walls.append(wall)
            cpus.append(cpu)
            if rep == 0 and out.is_dir():
                out.rename(self.out_dir / f"{tag}0")
            shutil.rmtree(out, ignore_errors=True)
            rep += 1
        return walls, cpus

    def reference_check(self) -> None:
        if self.cfg is not None and self.workload.command != "track":
            checks.check_reference_agreement(self.tally, self.puedet, self.cfg, self.seed)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def same_tree(a: Path, b: Path) -> bool:
    if not (a.is_dir() and b.is_dir()):
        return False
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


# The reference computation's constant-velocity model.
REF_F = np.eye(4)
REF_F[0, 2] = REF_F[1, 3] = 0.1
REF_Q, REF_H, REF_R = 0.01 * np.eye(4), np.eye(2, 4), np.eye(2)


def reference_seconds() -> float:
    """Wall time of a fixed computation in the style of puedet's own work, in
    three parts, about 0.2 s in all: a Kalman filter on 4x4 numpy arrays with
    CSV-style formatting (like `track`), one seeded generator per trial
    drawing that trial's noise (like the engine's seeding), and a recursion
    batched over 1000 trials with strided reads (like the engine's filter).
    It uses nothing of puedet, so no change to the program moves it; timed
    next to a command run, it gauges the core's speed at that time."""
    t0 = time.perf_counter()
    x, p, lines = np.zeros(4), np.eye(4), []
    for k in range(2500):
        x, p = REF_F @ x, REF_F @ p @ REF_F.T + REF_Q
        gain = p @ REF_H.T @ np.linalg.inv(REF_H @ p @ REF_H.T + REF_R)
        x = x + gain @ (np.array([0.01 * k, -0.02 * k]) - REF_H @ x)
        p = (np.eye(4) - gain @ REF_H) @ p
        lines.append(f"{k},{x[0]:.6f},{x[1]:.6f}")
    "\n".join(lines)
    for i in range(2500):
        np.random.default_rng(np.random.SeedSequence([12345, i])).standard_normal((200, 2))
    noise = np.random.default_rng(7).standard_normal((1000, 200, 2))
    x, y, vx, vy = np.zeros((4, 1000))
    for k in range(1400):
        px, py = x + 0.1 * vx, y + 0.1 * vy
        ix, iy = noise[:, k % 200, 0] - px, noise[:, k % 200, 1] - py
        x, y = px + 0.5 * ix + 0.1 * iy, py + 0.1 * ix + 0.5 * iy
        vx, vy = vx + 0.2 * ix, vy + 0.2 * iy
    return time.perf_counter() - t0


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    # Each command run is bracketed by two runs of the reference computation;
    # the command's time is reported in units of their mean.  The speed of a
    # shared host's cores drifts by up to 2x over seconds to minutes, and the
    # ratio cancels most of that drift where raw seconds cannot.
    # One set-up launch follows each command run, outside its timed region,
    # so that set-up is sampled across the whole run like the command is.
    refs, setups = [], []

    def after() -> None:
        refs[-1] = (refs[-1] + reference_seconds()) / 2
        setup_s, ok = setup_seconds(runner.workload.config)
        runner.tally.check(ok, "set-up interpreter failed")
        setups.append(setup_s)

    walls, cpus = runner.loop(seconds, "run", before=lambda: refs.append(reference_seconds()), after=after)
    runner.reference_check()
    run_rel = statistics.median(w / r for w, r in zip(walls, refs))
    t = runner.tally
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_rel": (run_rel, "x"),
        "filter_steps_per_ref": (runner.filter_steps() / run_rel, "1/ref"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "check_pass_frac": ((t.attempted - t.failed) / t.attempted, "frac"),
    }, {"reps": len(walls), "run_s_samples": walls, "ref_s_samples": refs, "cpu_s_samples": cpus,
        "setup_s_samples": setups}


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict]:
    plain_walls, plain_cpus = runner.loop(seconds / 2, "plain")
    tr = tracer.Tracer()
    layers = []
    tr.install()
    wrapped = tr.wrapped_names
    try:
        traced_walls, _ = runner.loop(
            seconds / 2, "traced",
            before=tr.reset, after=lambda: layers.append(layer_values(tr, runner.bytes_written)),
        )
    finally:
        unrestored = tr.uninstall()
    t = runner.tally
    t.check(wrapped > 0, "tracer wrapped no names")
    t.check(not unrestored, f"names not restored after tracing: {unrestored}")
    t.check(
        same_tree(runner.out_dir / "plain0", runner.out_dir / "traced0"),
        "traced and untraced runs at the same seed wrote different artifacts",
    )
    runner.reference_check()

    trials = runner.trials_per_run()
    run_s = statistics.median(plain_walls)
    cpu_s = statistics.median(plain_cpus)
    med = {k: statistics.median(v[k] for v in layers) for k in layers[0]}
    metrics = {
        "experiments.seed.calls": (med["experiments.seed.calls"], "count"),
        "experiments.seed.self_s": (med["experiments.seed.self_s"], "s"),
        "experiments.seed.calls_per_trial": (med["seed_sequences"] / trials, "1/trial"),
        "experiments.engine.self_s": (med["experiments.engine.self_s"], "s"),
        "experiments.score.calls": (med["experiments.score.calls"], "count"),
        "experiments.score.self_s": (med["experiments.score.self_s"], "s"),
        "detection.calls": (med["detection.calls"], "count"),
        "detection.self_s": (med["detection.self_s"], "s"),
        "tracking.calls": (med["tracking.calls"], "count"),
        "tracking.self_s": (med["tracking.self_s"], "s"),
        "tracking.cycle_us": (med["tracking.cycle_us"], "us"),
        "scenario.calls": (med["scenario.calls"], "count"),
        "scenario.self_s": (med["scenario.self_s"], "s"),
        "propagation.calls": (med["propagation.calls"], "count"),
        "propagation.self_s": (med["propagation.self_s"], "s"),
        "svgplot.calls": (med["svgplot.calls"], "count"),
        "svgplot.points": (med["svgplot.points"], "count"),
        "svgplot.self_s": (med["svgplot.self_s"], "s"),
        "cli.self_s": (med["cli.self_s"], "s"),
        "cli.bytes_written": (med["cli.bytes_written"], "B"),
        "config.self_s": (med["config.self_s"], "s"),
        "run.cpu_s": (cpu_s, "s"),
        "run.parallel_eff": (cpu_s / (run_s * os.cpu_count()), "frac"),
        "trace.overhead_s": (statistics.median(traced_walls) - run_s, "s"),
    }
    return metrics, {"reps": len(plain_walls), "traced_reps": len(traced_walls), "wrapped_names": wrapped}


def layer_values(tr: tracer.Tracer, bytes_written: int) -> dict[str, float]:
    """One traced command run's per-layer totals."""
    cycles = max(tr.fn_calls["tracking.predict"], tr.fn_calls["tracking.update"])
    values = {"cli.bytes_written": bytes_written}
    for layer in ("config", "scenario", "tracking", "propagation", "detection", "svgplot", "cli",
                  "experiments.seed", "experiments.score", "experiments.engine"):
        values[f"{layer}.calls"] = tr.calls[layer]
        values[f"{layer}.self_s"] = tr.self_s[layer]
    values["svgplot.points"] = tr.counts["svgplot.points"]
    values["seed_sequences"] = tr.fn_calls["experiments.trial_seed_sequence"]
    values["tracking.cycle_us"] = 1e6 * tr.self_s["tracking"] / cycles if cycles else 0.0
    return values


def provenance(puedet, workload: Workload, seed: int, trace: int, seconds: float) -> dict:
    commit = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "puedet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "trials_per_cell": workload.trials,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def measure(workload: Workload, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run one workload; return (result line, provenance)."""
    puedet = import_puedet()
    out_dir = OUT_ROOT / f"{workload.name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        runner = Runner(puedet, workload, seed, out_dir)
        metrics, counts = (per_layer if trace else end_to_end)(runner, seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    info = provenance(puedet, workload, seed, trace, seconds)
    info.update(counts, checks_attempted=runner.tally.attempted, checks_failed=runner.tally.failed,
                check_failures=runner.tally.messages)
    result = {
        "correct": runner.tally.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    result, info = measure(workload, args.seed, args.seconds, args.trace)
    record = OUT_ROOT / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"provenance": info, "result": result}, indent=2) + "\n")
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
