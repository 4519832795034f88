import csv
import errno
import io
import json
import math
import os
import re
import tempfile
import warnings
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from puedet import cli, config, experiments
from puedet import scenario as scenario_module
from puedet.cli import main
from puedet.config import ExperimentConfig, build_scenario, loads_config, validate_config
from puedet.errors import ConfigError
from puedet.experiments import MetricsReport, SweepCoords, cell_streams
from puedet.scenario import Scenario, emit_position_measurement, truth_at

SVG_NS = "{http://www.w3.org/2000/svg}"
COMMANDS = ["track", "sweep-distance", "sweep-roc", "compare-baseline"]
# Every key that one number can set; segments, anchors, fusion and out take
# other text.
NUMBER_KEYS = [
    (section.name, key.name)
    for section in fields(ExperimentConfig)
    for key in fields(section.default_factory)
    if key.name not in ("segments", "anchors", "fusion", "out")
]
EXTREME_NUMBERS = ["1e300", "-1e300", "1e150", "1e-300", "0", "-1", "nan", "inf", "-inf"]
RESULTS = Path(__file__).resolve().parent.parent / "results"

SMALL_SWEEP = """
[scenario]
steps = 40

[sweep]
distances = 30 90
snr_db = -5 5

[run]
trials = 60
seed = 7
"""

TRACK_NOISELESS = """
[scenario]
steps = 50
meas_noise_std = 0.0
"""


def run_cli(tmp_path, command, config_text, *extra):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(config_text)
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg_path), "--out", str(out), *extra])
    return rc, out


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def per_step_track_rows(text, seed):
    """The data rows of track.csv stated one step at a time: the position
    generator of the seed's Monte Carlo cell, read step by step."""
    scen = build_scenario(loads_config(text))
    _, gen, _ = cell_streams(seed)
    zs = [emit_position_measurement(scen, k, gen) for k in range(scen.n_steps)]
    states = scen.track(zs)
    rows = []
    for k in range(scen.n_steps):
        truth, z = truth_at(scen, k), zs[k]
        values = [k * scen.dt, truth.x, truth.y, z[0], z[1], *states[k]]
        rows.append([str(k)] + [format(float(v), ".9g") for v in values])
    return rows


class TestTrack:
    def test_noiseless_estimate_matches_truth_in_csv(self, tmp_path):
        rc, out = run_cli(tmp_path, "track", TRACK_NOISELESS)
        assert rc == 0
        header, rows = read_csv(out / "track.csv")
        ix, iy = header.index("true_x"), header.index("true_y")
        ex, ey = header.index("est_x"), header.index("est_y")
        for row in rows:
            assert row[ix] == row[ex]
            assert row[iy] == row[ey]

    def test_all_cells_finite(self, tmp_path):
        rc, out = run_cli(tmp_path, "track", "[scenario]\nsteps = 30\n")
        assert rc == 0
        header, rows = read_csv(out / "track.csv")
        for row in rows:
            for cell in row:
                assert math.isfinite(float(cell))

    def test_csv_equals_per_step_route(self, tmp_path):
        text = "[scenario]\nsteps = 60\n\n[run]\nseed = 11\n"
        rc, out = run_cli(tmp_path, "track", text)
        assert rc == 0
        _, rows = read_csv(out / "track.csv")
        assert rows == per_step_track_rows(text, 11)

    def test_long_run_crosses_csv_blocks(self, tmp_path):
        # The long benchmark schedule cut to 5000 steps: more rows than one
        # block of the CSV writer.
        text = (
            "[scenario]\nsteps = 5000\nsegments = 5000.0 0.0001 0.0002; 5000.0 -0.0002 0.0001; "
            "5000.0 -0.0001 -0.0002; 5000.0 -0.0003 -0.0001\n\n[run]\nseed = 3\n"
        )
        rc, out = run_cli(tmp_path, "track", text)
        assert rc == 0
        _, rows = read_csv(out / "track.csv")
        assert len(rows) == 5000
        assert rows == per_step_track_rows(text, 3)
        polylines = ET.fromstring((out / "track.svg").read_text()).findall(f"{SVG_NS}polyline")
        assert [len(p.get("points").split()) for p in polylines] == [5000] * 3

    def test_svg_overlay_has_three_series(self, tmp_path):
        rc, out = run_cli(tmp_path, "track", TRACK_NOISELESS)
        root = ET.fromstring((out / "track.svg").read_text())
        assert len(root.findall(f"{SVG_NS}polyline")) == 3


class TestSweepDistance:
    def test_row_count_is_grid_size(self, tmp_path):
        rc, out = run_cli(tmp_path, "sweep-distance", SMALL_SWEEP)
        assert rc == 0
        header, rows = read_csv(out / "sweep_distance.csv")
        assert header[:3] == ["d_pu_pue_m", "snr_db", "tau_m"]
        assert len(rows) == 2 * 2

    def test_rerun_is_byte_identical(self, tmp_path):
        _, out1 = run_cli(tmp_path, "sweep-distance", SMALL_SWEEP)
        first = (out1 / "sweep_distance.csv").read_bytes()
        svg1 = (out1 / "pd_vs_distance.svg").read_bytes()
        _, out2 = run_cli(tmp_path, "sweep-distance", SMALL_SWEEP, "--out", str(tmp_path / "o2"))
        assert (tmp_path / "o2" / "sweep_distance.csv").read_bytes() == first
        assert (tmp_path / "o2" / "pd_vs_distance.svg").read_bytes() == svg1

    def test_different_seed_changes_output(self, tmp_path):
        _, out1 = run_cli(tmp_path, "sweep-distance", SMALL_SWEEP)
        _, out2 = run_cli(
            tmp_path, "sweep-distance", SMALL_SWEEP, "--seed", "8", "--out", str(tmp_path / "o2")
        )
        a = (out1 / "sweep_distance.csv").read_bytes()
        b = (tmp_path / "o2" / "sweep_distance.csv").read_bytes()
        assert a != b

    def test_emits_pd_and_pm_charts(self, tmp_path):
        _, out = run_cli(tmp_path, "sweep-distance", SMALL_SWEEP)
        for name in ("pd_vs_distance.svg", "pm_vs_distance.svg"):
            root = ET.fromstring((out / name).read_text())
            assert len(root.findall(f"{SVG_NS}polyline")) == 2  # one per SNR


    def test_absent_rate_is_an_empty_cell(self, tmp_path):
        # Every trial is an attack, so no cell has a false-alarm rate.
        config = SMALL_SWEEP.replace("[run]", "schedule_mix = 1\n\n[run]")
        rc, out = run_cli(tmp_path, "sweep-distance", config)
        assert rc == 0
        header, rows = read_csv(out / "sweep_distance.csv")
        ipfa = header.index("pfa")
        for row in rows:
            assert row[ipfa] == ""
            assert all(cell for i, cell in enumerate(row) if i != ipfa)

    def test_block_format_equals_per_row_format(self, tmp_path, monkeypatch):
        # The writer formats a block of 4096 rows with one %.  The oracle is
        # the per-row form: one format and one tuple per row.  5000 planted
        # rows cross the block boundary with absent cells on both sides of
        # it, and hold signed zeros, extremes, values just below powers of
        # ten (which %.9g rounds up) and large counts in the %d columns.
        specials = [-0.0, 1e-300, 1e300, -1e300, 9.9999999996, 0.99999999996, 99999.99999,
                    999999999.7, 9.9999999996e-5, 123.456, 0.0]
        reports = []
        for i in range(5000):
            v = specials[i % len(specials)]
            # Not 5 dB, the config's only SNR, so no row reaches a chart.
            coords = SweepCoords(v, specials[(i + 3) % len(specials)], specials[(i + 5) % len(specials)])
            absent = i % 7 == 0 or 4093 <= i <= 4098
            pd = None if absent else v
            pfa = None if i % 3 == 0 or i == 4096 else 1.0 - v
            pm = None if absent else specials[(i + 1) % len(specials)]
            reports.append(MetricsReport(pd, pfa, pm, (i * 7919) % 10**6, 10**15 + i, coords))
        monkeypatch.setattr(experiments, "sweep_distance", lambda *args, **kwargs: reports)
        config = SMALL_SWEEP.replace("distances = 30 90", "distances = 30").replace("snr_db = -5 5", "snr_db = 5")
        rc, out = run_cli(tmp_path, "sweep-distance", config)
        assert rc == 0
        specs = ["%.9g"] * 3 + ["%d"] * 2 + ["%.9g"] * 3
        rows = [[*r.sweep_coords, r.n_attack_trials, r.n_legit_trials, r.pd, r.pfa, r.pm] for r in reports]
        formats = [",".join("%.0s" if v is None else s for v, s in zip(row, specs)) + "\n" for row in rows]
        table = np.array(rows, dtype=float)
        expected = "d_pu_pue_m,snr_db,tau_m,n_attack,n_legit,pd,pfa,pm\n" + "".join(
            map(str.__mod__, formats, map(tuple, table.tolist()))
        )
        assert (out / "sweep_distance.csv").read_text() == expected
        assert sorted(p.name for p in out.iterdir()) == ["manifest.txt", "sweep_distance.csv"]


# Rows at which TestTableRows cuts a 5000-row table.
TABLE_CUTS = [0, 1, cli._BLOCK_ROWS - 1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1, 5000]


class TestTableRows:
    @pytest.mark.parametrize("cut", TABLE_CUTS)
    def test_two_row_ranges_write_the_whole_table(self, cut):
        # Rows [0, cut) and then [cut, n) are the bytes of the whole table
        # and of the per-row oracle, with absent cells in the rows on both
        # sides of every cut.
        specs = ["%d", "%.9g", "%.9g"]
        near = {c + d for c in TABLE_CUTS for d in (-2, -1, 0, 1)}
        rows = [[(i * 7919) % 10**6, None if i in near else i / 7, None if i % 5 == 0 else -1e300 * (i % 2)]
                for i in range(5000)]
        write = cli._csv("t.csv", ["n", "a", "b"], rows, specs)
        whole, head, tail = io.StringIO(), io.StringIO(), io.StringIO()
        write(whole)
        write(head, stop=cut)
        write(tail, start=cut)
        formats = [",".join("%.0s" if v is None else f for v, f in zip(row, specs)) + "\n" for row in rows]
        values = np.array(rows, dtype=float).tolist()
        expected = "n,a,b\n" + "".join(map(str.__mod__, formats, map(tuple, values)))
        assert head.getvalue() + tail.getvalue() == whole.getvalue() == expected
        assert head.getvalue().count("\n") == 1 + cut


class TestSweepRoc:
    def test_columns_and_targets(self, tmp_path):
        cfg = """
[scenario]
steps = 40

[sweep]
distances = 30
snr_db = -5 5
pfa_targets = 0.1 0.3
roc_distance = 30
calibration_trials = 400

[run]
trials = 200
seed = 7
"""
        rc, out = run_cli(tmp_path, "sweep-roc", cfg)
        assert rc == 0
        header, rows = read_csv(out / "roc.csv")
        assert header[:2] == ["snr_db", "target_pfa"]
        assert len(rows) == 2 * 2
        assert {r[1] for r in rows} == {"0.1", "0.3"}


class TestCompareBaseline:
    def test_paired_columns(self, tmp_path):
        cfg = """
[scenario]
steps = 60

[sweep]
distances = 30 90

[run]
trials = 100
seed = 5
"""
        rc, out = run_cli(tmp_path, "compare-baseline", cfg)
        assert rc == 0
        header, rows = read_csv(out / "compare_baseline.csv")
        assert "proposed_pd" in header and "baseline_pd" in header
        assert len(rows) == 2
        for name in ("pd_comparison.svg", "pm_comparison.svg"):
            root = ET.fromstring((out / name).read_text())
            assert len(root.findall(f"{SVG_NS}polyline")) == 2


@pytest.mark.parametrize(
    "command, csv_name, charts, mix",
    [
        ("sweep-distance", "sweep_distance.csv", ("pd_vs_distance.svg", "pm_vs_distance.svg"), 0),
        ("sweep-roc", "roc.csv", ("roc.svg",), 0),
        ("sweep-roc", "roc.csv", ("roc.svg",), 1),
        ("compare-baseline", "compare_baseline.csv", ("pd_comparison.svg", "pm_comparison.svg"), 0),
    ],
)
def test_chart_of_absent_rates_is_skipped(tmp_path, command, csv_name, charts, mix):
    # At schedule_mix 0 no cell has attack trials, so P_d and P_m are absent;
    # at 1 none has legitimate trials, so P_fa, the ROC's x-axis, is.
    config = SMALL_SWEEP.replace("[run]", f"schedule_mix = {mix}\n\n[run]")
    rc, out = run_cli(tmp_path, command, config)
    assert rc == 0
    assert (out / csv_name).is_file() and (out / "manifest.txt").is_file()
    assert not [c for c in charts if (out / c).exists()]


class TestManifest:
    def test_manifest_reloads_to_resolved_config(self, tmp_path):
        rc, out = run_cli(tmp_path, "track", TRACK_NOISELESS, "--seed", "123", "--trials", "9")
        assert rc == 0
        text = (out / "manifest.txt").read_text()
        assert text.startswith("# command: track\n")
        cfg = loads_config(text)
        assert cfg.run.seed == 123
        assert cfg.run.trials == 9
        assert cfg.scenario.meas_noise_std == 0.0


class TestCommandLine:
    """One parser: the command and the same four options, in any order."""

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("options_first", [False, True], ids=["command-first", "options-first"])
    def test_every_option_reaches_the_run(self, tmp_path, command, options_first):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMALL_SWEEP)
        out = tmp_path / "given out"
        options = ["--config", str(cfg_path), "--seed", "17", "--out", str(out), "--trials", "120"]
        assert main(options + [command] if options_first else [command] + options) == 0
        text = (out / "manifest.txt").read_text()
        assert text.startswith(f"# command: {command}\n")
        cfg = loads_config(text)
        assert (cfg.run.seed, cfg.run.trials, cfg.run.out) == (17, 120, str(out))
        # Read from --config: the stock config has 200 steps.
        assert cfg.scenario.steps == 40

    @pytest.mark.parametrize("argv", [[], ["frobnicate"], ["--seed", "3"], ["track", "sweep-roc"]])
    def test_missing_or_unknown_command_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: puedet ")

    @pytest.mark.parametrize("argv", [["-h"], ["--help"]] + [[command, "--help"] for command in COMMANDS])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith("usage: puedet ")
        assert all(option in text for option in ("--config", "--seed", "--out", "--trials"))


class TestCommittedResults:
    @pytest.mark.parametrize("name", ["track", "sweep_distance", "sweep_roc", "compare_baseline"])
    def test_rerun_from_manifest_is_byte_identical(self, tmp_path, name):
        committed = RESULTS / name
        manifest = committed / "manifest.txt"
        command = manifest.read_text().splitlines()[0].removeprefix("# command: ")
        assert main([command, "--config", str(manifest), "--out", str(tmp_path)]) == 0
        artifacts = sorted(p.name for p in committed.iterdir() if p.suffix in (".csv", ".svg"))
        assert artifacts
        assert sorted(p.name for p in tmp_path.iterdir() if p.suffix in (".csv", ".svg")) == artifacts
        for artifact in artifacts:
            assert (tmp_path / artifact).read_bytes() == (committed / artifact).read_bytes(), artifact


class TestErrors:
    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        rc, _ = run_cli(tmp_path, "track", "[detector]\ntau = -4\n")
        assert rc == 1
        assert "tau" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["track", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"\xff\xfe[run]\nseed = 1\n")
        rc = main(["track", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("puedet: error:")

    def test_snr_beyond_float_range_is_an_error(self, tmp_path, capsys):
        config = SMALL_SWEEP.replace("snr_db = -5 5", "snr_db = -5 -8000")
        rc, _ = run_cli(tmp_path, "sweep-distance", config)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("puedet: error:")
        assert "-8000" in err

    @pytest.mark.parametrize("command", ["sweep-distance", "sweep-roc"])
    def test_repeated_snr_value_is_refused_writing_nothing(self, tmp_path, capsys, command):
        # The charts draw one series per SNR value; a repeated value drew two
        # series of one label, each through every cell of both.
        config = SMALL_SWEEP.replace("snr_db = -5 5", "snr_db = 0 0").replace("30 90", "30 60")
        rc, out = run_cli(tmp_path, command, config)
        assert rc == 1
        assert capsys.readouterr().err == "puedet: error: [sweep] snr_db: values must be distinct, got (0.0, 0.0)\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, config",
        [
            # The RSS inversion overflows at an alpha of 0.01 and -40 dB SNR.
            (
                "sweep-distance",
                "[scenario]\nsteps = 20\n[link]\nalpha = 0.01\n"
                "[sweep]\nsnr_db = -40\n[run]\ntrials = 50\n",
            ),
            # With no noise at all the innovation covariance collapses to 0.
            ("track", "[scenario]\nmeas_noise_std = 0.0\n[tracking]\nprocess_noise_std = 0.0\n"),
        ],
    )
    def test_numerical_degeneracy_is_an_error(self, tmp_path, capsys, command, config):
        rc, _ = run_cli(tmp_path, command, config)
        assert rc == 1
        assert capsys.readouterr().err.startswith("puedet: error:")

    @pytest.mark.parametrize(
        "config",
        [
            "[scenario]\nmeas_noise_std = 1e150\n",
            "[tracking]\nprocess_noise_std = 1e150\n",
            "[tracking]\nv_max = 1e154\n",
        ],
    )
    def test_tracker_overflow_is_a_config_error(self, tmp_path, capsys, config):
        rc, _ = run_cli(tmp_path, "track", config)
        assert rc == 1
        assert capsys.readouterr().err.startswith("puedet: error: [")

    def test_non_finite_measurement_is_an_error(self, tmp_path, capsys, monkeypatch):
        # No valid config yields a non-finite measurement, so one is planted
        # in the ground truth, past the tracker's covariance fixed point.
        truth_path = Scenario.truth_path

        def planted(self, upto):
            truth = truth_path(self, upto)
            truth[150] = np.nan
            return truth

        monkeypatch.setattr(Scenario, "truth_path", planted)
        rc, _ = run_cli(tmp_path, "track", "")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("puedet: error:")
        assert "measurement 150" in err

    def test_non_finite_csv_value_is_refused_before_writing(self, tmp_path, capsys, monkeypatch):
        # No valid config yields a non-finite rate, so a producer returns one.
        def planted(*args, **kwargs):
            coords = SweepCoords(30.0, 5.0, 25.0)
            return [MetricsReport(0.5, math.inf, 0.5, 10, 10, coords)]

        monkeypatch.setattr(experiments, "sweep_distance", planted)
        config = SMALL_SWEEP.replace("distances = 30 90", "distances = 30").replace("snr_db = -5 5", "snr_db = 5")
        rc, out = run_cli(tmp_path, "sweep-distance", config)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("puedet: error:")
        assert "sweep_distance.csv" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("bearings", ["inf", "0.5 nan"])
    def test_non_finite_bearing_is_a_config_error(self, tmp_path, capsys, bearings):
        config = SMALL_SWEEP.replace("[run]", f"bearings = {bearings}\n\n[run]")
        rc, _ = run_cli(tmp_path, "sweep-distance", config)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("puedet: error:")
        assert "[sweep] bearings" in err

    @pytest.mark.parametrize("command", ["sweep-distance", "sweep-roc", "compare-baseline"])
    @pytest.mark.parametrize("wavelength", ["1e-300", "1e300"])
    def test_extreme_wavelength_runs_or_names_its_key(self, tmp_path, capsys, command, wavelength):
        # The link budget cancels in every residual, so [link] dropped
        # wavelength with pt, gt and gr.  A config that still sets it is
        # refused by name, not run as if the setting took effect.
        rc, out = run_cli(tmp_path, command, f"[link]\nwavelength = {wavelength}\n", "--trials", "500")
        assert rc == 1
        assert capsys.readouterr().err == "puedet: error: unknown key 'wavelength' in section [link]\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, setting",
        [
            ("track", "start_x = 1e150"),
            ("sweep-distance", "[sweep]\ndistances = 1e150"),
            ("compare-baseline", "dt = 1e-300"),
            ("sweep-distance", "[link]\nalpha = 1e-300"),
            ("track", "meas_noise_std = 1e150"),
            ("sweep-distance", "[link]\nwavelength = 1e-300"),
        ],
        ids=["start_x", "distances", "dt", "alpha", "meas_noise_std", "wavelength"],
    )
    def test_extreme_value_runs_or_fails_writing_nothing(self, tmp_path, capsys, command, setting):
        # A chart that cannot be drawn must not leave its command's CSV behind.
        rc, out = run_cli(tmp_path, command, f"[scenario]\nsteps = 30\n{setting}\n", "--trials", "40")
        if rc != 0:
            assert rc == 1
            assert capsys.readouterr().err.startswith("puedet: error:")
            assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "command, setting, key",
        [
            ("track", "start_x = 1e150", "[scenario] start_x"),
            ("track", "start_y = -1e150", "start_y"),
            ("sweep-distance", "[sweep]\ndistances = 1e150", "[sweep] distances"),
            ("compare-baseline", "[sweep]\ndistances = 1e150", "[sweep] distances"),
            ("compare-baseline", "dt = 1e-300", "[sweep] distances"),
        ],
        ids=["start_x", "start_y", "distances", "baseline-distances", "dt"],
    )
    def test_config_decided_failure_names_its_key(self, tmp_path, capsys, command, setting, key):
        # The chart's span, or the trajectory's reach, is set by the config alone.
        rc, out = run_cli(tmp_path, command, f"[scenario]\nsteps = 30\n{setting}\n", "--trials", "40")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("puedet: error: [") and key in err, err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["sweep-distance", "sweep-roc", "compare-baseline", "track"])
    @pytest.mark.parametrize(
        "link", ["alpha = 1e-300", "alpha = 1e-12", "snr_calibration = 1e150", "snr_calibration = 1e300"]
    )
    def test_ranging_overflow_names_its_keys(self, tmp_path, capsys, command, link):
        # A one-sigma dB draw scales the RSS-implied distance past the float
        # range, so the sweeps refuse the config before any cell runs.
        # track does not range, and compare-baseline ranges without RSS
        # noise, so both run.
        rc, out = run_cli(tmp_path, command, f"[scenario]\nsteps = 30\n[link]\n{link}\n", "--trials", "40")
        err = capsys.readouterr().err
        if command in ("compare-baseline", "track"):
            assert rc == 0, err
            return
        assert rc == 1
        assert err.startswith("puedet: error: [link] alpha, snr_calibration, [sweep] snr_db: "), err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("alpha", ["5e-324", "1e308"])
    def test_path_loss_that_loses_the_distance_fails_writing_nothing(self, tmp_path, capsys, command, alpha):
        # The received power at 200 m is subnormal, so 200 m ranges to
        # 199.5 m, or it is not finite.
        rc, out = run_cli(tmp_path, command, f"[scenario]\nsteps = 30\n[link]\nalpha = {alpha}\n", "--trials", "40")
        assert rc == 1
        assert capsys.readouterr().err.startswith("puedet: error: [link] alpha: noiseless ranging of 200 m ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, setting, trials",
        [
            ("sweep-distance", "", "100000000000000000000"),
            ("sweep-roc", "", "100000000000000000000"),
            ("compare-baseline", "", "100000000000000000000"),
            ("sweep-roc", "[sweep]\ncalibration_trials = 100000000000000000000", "40"),
            ("sweep-distance", "[sweep]\ncalibration_trials = 100000000000000000000\n[detector]\ntarget_pfa = 0.1", "40"),
            # 2**45 trials pass the count check, and the first array of them
            # fails to allocate (256 TiB) before any memory is touched.
            ("sweep-distance", "", str(2**45)),
            ("sweep-roc", "", str(2**45)),
            ("compare-baseline", "", str(2**45)),
        ],
        ids=["distance-1e20", "roc-1e20", "baseline-1e20", "roc-calibration-1e20", "distance-calibration-1e20",
             "distance-2**45", "roc-2**45", "baseline-2**45"],
    )
    def test_trial_count_beyond_memory_is_one_error_line(self, tmp_path, capsys, command, setting, trials):
        rc, out = run_cli(tmp_path, command, f"[scenario]\nsteps = 30\n{setting}\n", "--trials", trials)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("puedet: error:") and err.count("\n") == 1, err
        assert list(out.iterdir()) == []

    def test_negative_seed_rejected(self, tmp_path, capsys):
        rc, _ = run_cli(tmp_path, "track", "", "--seed", "-1")
        assert rc == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", NUMBER_KEYS, ids=[f"{s}-{k}" for s, k in NUMBER_KEYS])
    def test_extreme_number_is_refused_or_runs_clean(self, tmp_path, capsys, section, key):
        # A value the config refuses is a ConfigError; one it accepts runs
        # every command to rc 0, or to one config-named error line and an
        # output directory with nothing in it.
        for value in EXTREME_NUMBERS:
            settings = {"scenario": {"steps": "30"}}
            settings.setdefault(section, {})[key] = value
            text = "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items()) for s, kv in settings.items())
            try:
                loads_config(text)
            except ConfigError:
                continue
            for command in COMMANDS:
                run_dir = tmp_path / f"{value}-{command}"
                run_dir.mkdir()
                with warnings.catch_warnings():
                    # Five calibration trials resolve no false-alarm rate below 1/5.
                    warnings.filterwarnings("ignore", "calibrated tau=", RuntimeWarning)
                    rc, out = run_cli(run_dir, command, text, "--trials", "5")
                err = capsys.readouterr().err
                case = f"{key} = {value}, {command}: {err}"
                if rc != 0:
                    assert rc == 1 and err.startswith("puedet: error: [") and err.count("\n") == 1, case
                    assert not out.exists() or list(out.iterdir()) == [], case

    @given(
        values=st.dictionaries(st.sampled_from(NUMBER_KEYS), st.sampled_from(EXTREME_NUMBERS), min_size=2, max_size=3)
    )
    # Loads, and track's chart cannot be scaled: "[scenario] start_x, start_y".
    @example(values={("scenario", "start_x"): "1e150", ("sweep", "roc_distance"): "0"})
    # Refused: with neither noise the tracker's covariance collapses, which
    # every command once reported without naming a key.
    @example(values={("scenario", "meas_noise_std"): "1e-300", ("tracking", "process_noise_std"): "0"})
    # Refused under the label "[scenario/link]", which named neither key.
    @example(values={("tracking", "process_noise_std"): "1e200", ("sweep", "roc_distance"): "0"})
    @example(values={("tracking", "v_max"): "-1", ("run", "seed"): "0"})
    @settings(max_examples=500, deadline=None)
    def test_extreme_numbers_together_are_refused_or_run_clean(self, values):
        # The loop above with two or three keys set at once, which also leaves
        # no forked child behind.  A refusal names a key that was set.
        sections = {"scenario": {"steps": "30"}}
        for (section, key), value in values.items():
            sections.setdefault(section, {})[key] = value
        text = "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items()) for s, kv in sections.items())
        try:
            loads_config(text)
        except ConfigError as exc:
            label = str(exc).split(": ", 1)[0]
            named = [key for s, kv in sections.items() for key in kv if re.search(rf"\b{key}\b", label)]
            assert label.startswith("[") and named, f"{values}: {exc}"
            return
        with tempfile.TemporaryDirectory() as tmp:
            for command in COMMANDS:
                run_dir = Path(tmp) / command
                run_dir.mkdir()
                stderr = io.StringIO()
                with warnings.catch_warnings(), redirect_stderr(stderr):
                    # Five calibration trials resolve no false-alarm rate below 1/5.
                    warnings.filterwarnings("ignore", "calibrated tau=", RuntimeWarning)
                    rc, out = run_cli(run_dir, command, text, "--trials", "5")
                err = stderr.getvalue()
                case = f"{values}, {command}: {err}"
                if rc != 0:
                    assert rc == 1 and err.startswith("puedet: error: [") and err.count("\n") == 1, case
                    assert not out.exists() or list(out.iterdir()) == [], case
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# The stock trajectory at 2500 steps, whose chart formats 6 x 2500 = 15 000
# values and whose table 25 000: above the 2 x 12 000 at which the writing is
# shared with a forked child, which takes the chart and the table's first rows.
LONG_TRACK = "[scenario]\nsteps = 2500\ndt = 0.08\n\n[run]\nseed = 5\n"


# The CPUs this process may run on; empty where they cannot be read.
ALLOWED_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()


def long_track_files(tmp_path):
    """The bytes, by name, of the files of a LONG_TRACK run into an emptied
    tmp_path / "out", so that every run writes the same manifest."""
    for p in (tmp_path / "out").glob("*"):
        p.unlink()
    rc, out = run_cli(tmp_path, "track", LONG_TRACK)
    assert rc == 0
    return {p.name: p.read_bytes() for p in out.iterdir()}


def long_track_cut():
    """The files of a LONG_TRACK run by name, and the cut (i, rows) of cli._cut."""
    cfg = loads_config(LONG_TRACK)
    files = cli.cmd_track(cfg, validate_config(cfg))
    return files, cli._cut(files)


@pytest.fixture
def counted_forks(monkeypatch):
    """os.fork, recording in the parent the pid of each child it starts.  On
    a host that allows one CPU, where the CLI forks no child, this process
    is shown two."""
    if len(ALLOWED_CPUS) < 2:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def refuse_fork(monkeypatch):
    def refused():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", refused)


class TestForkedWrite:
    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_fork_and_in_process_write_the_same_bytes(self, tmp_path, monkeypatch, counted_forks):
        forked = long_track_files(tmp_path)
        assert len(counted_forks) == 1
        assert sorted(forked) == ["manifest.txt", "track.csv", "track.svg"]
        monkeypatch.delattr(os, "fork")
        assert long_track_files(tmp_path) == forked

    @pytest.mark.skipif(len(ALLOWED_CPUS) < 2, reason="needs two CPUs")
    def test_child_runs_off_the_parents_cpu(self, tmp_path, monkeypatch, counted_forks):
        # The child writes the CPUs it may run on as its chart; the parent's
        # CPU is the one that the CLI read before it forked.
        line_chart, running_cpu, parent_cpus = cli.line_chart, cli._running_cpu, []

        def affinity_chart(*args):
            def write(fh):
                fh.write(json.dumps(sorted(os.sched_getaffinity(0))))

            write.values = line_chart(*args).values
            return write

        def recorded_cpu():
            parent_cpus.append(running_cpu())
            return parent_cpus[-1]

        monkeypatch.setattr(cli, "line_chart", affinity_chart)
        monkeypatch.setattr(cli, "_running_cpu", recorded_cpu)
        rc, out = run_cli(tmp_path, "track", LONG_TRACK)
        assert rc == 0 and len(counted_forks) == 1
        assert len(parent_cpus) == 1 and parent_cpus[0] in ALLOWED_CPUS
        assert set(json.loads((out / "track.svg").read_text())) == ALLOWED_CPUS - {parent_cpus[0]}
        assert os.sched_getaffinity(0) == ALLOWED_CPUS

    @pytest.mark.parametrize("pinning", ["refused", "missing"])
    def test_unpinned_child_writes_the_same_bytes(self, tmp_path, monkeypatch, counted_forks, pinning):
        # Pinning is best effort: a child that cannot pin itself writes where
        # it is, and no exit status reports it.
        pinned = long_track_files(tmp_path)

        def refused(pid, cpus):
            raise PermissionError(errno.EPERM, "planted")

        if pinning == "refused":
            monkeypatch.setattr(os, "sched_setaffinity", refused, raising=False)
        else:
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        assert long_track_files(tmp_path) == pinned
        assert len(counted_forks) == 2

    def test_one_cpu_writes_in_process(self, tmp_path, monkeypatch, counted_forks):
        # On one CPU a child would only share its parent's: no fork.
        two_cpus = os.sched_getaffinity
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one_cpu = long_track_files(tmp_path)
        assert counted_forks == []
        monkeypatch.setattr(os, "sched_getaffinity", two_cpus)
        assert long_track_files(tmp_path) == one_cpu
        assert len(counted_forks) == 1

    def test_fork_warns_of_nothing(self, tmp_path, counted_forks):
        # Python >= 3.12 warns on fork in a process with a second thread, as
        # numpy's BLAS pool is; the CLI's fork is silent.  Under the suite's
        # "error" filter os.fork would swallow the raised warning, so the
        # warnings are recorded instead.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, _ = run_cli(tmp_path, "track", LONG_TRACK)
        assert rc == 0 and len(counted_forks) == 1
        assert [str(w.message) for w in caught] == []

    def test_chart_span_fails_before_any_fork(self, tmp_path, capsys, monkeypatch):
        refuse_fork(monkeypatch)
        rc, out = run_cli(tmp_path, "track", LONG_TRACK.replace("dt =", "start_x = 1e150\ndt ="))
        assert rc == 1
        assert capsys.readouterr().err.startswith("puedet: error: [scenario] start_x, start_y: ")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("blocked", ["track.svg", "track.csv"])
    def test_unwritable_file_is_one_error_line_on_either_route(self, tmp_path, capsys, monkeypatch, counted_forks, blocked):
        # The child writes track.svg and the head of track.csv, which this
        # process finishes; either one failing reports that file's OSError,
        # as an in-process write does.
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        rc, _ = run_cli(tmp_path, "track", LONG_TRACK)
        assert rc == 1 and len(counted_forks) == 1
        err = capsys.readouterr().err
        assert err.startswith("puedet: error: ") and err.count("\n") == 1, err
        assert blocked in err and "Traceback" not in err
        monkeypatch.delattr(os, "fork")
        assert run_cli(tmp_path, "track", LONG_TRACK)[0] == 1
        assert capsys.readouterr().err == err

    def test_child_failure_other_than_os_error(self, tmp_path, capsys, monkeypatch, counted_forks):
        line_chart = cli.line_chart

        def broken_chart(*args):
            def write(fh):
                raise RuntimeError("planted")

            write.values = line_chart(*args).values
            return write

        monkeypatch.setattr(cli, "line_chart", broken_chart)
        rc, out = run_cli(tmp_path, "track", LONG_TRACK)
        assert rc == 1 and len(counted_forks) == 1
        err = capsys.readouterr().err
        assert err == f"puedet: error: writing {out / 'track.svg'} failed in a child process (exit status 255)\n"

    def test_child_failure_in_its_table_rows(self, tmp_path, capsys, monkeypatch, counted_forks):
        # The child fails after writing the header and its rows of track.csv:
        # one error line names the table, and this process appends nothing.
        write, parent = cli._write, os.getpid()

        def failing(path, body, mode="w"):
            if os.getpid() != parent and path.name == "track.csv":

                def rows_then_full(fh):
                    body(fh)
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

                return write(path, rows_then_full, mode)
            return write(path, body, mode)

        monkeypatch.setattr(cli, "_write", failing)
        rc, out = run_cli(tmp_path, "track", LONG_TRACK)
        assert rc == 1 and len(counted_forks) == 1
        err = capsys.readouterr().err
        assert err == f"puedet: error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{out / 'track.csv'}'\n"
        _, (_, rows) = long_track_cut()
        head = (out / "track.csv").read_text()
        monkeypatch.undo()
        monkeypatch.delattr(os, "fork")
        whole = long_track_files(tmp_path)["track.csv"].decode()
        assert head == "".join(whole.splitlines(keepends=True)[: 1 + rows])

    def test_long_track_is_cut_evenly_inside_its_table(self):
        files, (i, rows) = long_track_cut()
        assert list(files)[i] == "track.csv" and 0 < rows < 2500
        table = files["track.csv"]
        child = files["track.svg"].values + rows * table.row_values
        total = files["track.svg"].values + table.values
        assert min(child, total - child) >= cli._FORK_VALUES
        assert abs(2 * child - total) < 2 * table.row_values

    @pytest.mark.parametrize("command", COMMANDS)
    def test_stock_outputs_are_written_in_process(self, tmp_path, monkeypatch, command):
        # Stock track's chart formats 1 200 values, and a sweep's far fewer.
        refuse_fork(monkeypatch)
        assert main([command, "--trials", "50", "--out", str(tmp_path / "out")]) == 0


class TestValidation:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_is_validated_once_per_run(self, tmp_path, monkeypatch, command):
        calls = []

        def counted(cfg):
            calls.append(cfg)
            return validate(cfg)

        validate = config.validate_config
        monkeypatch.setattr(config, "validate_config", counted)
        monkeypatch.setattr(cli, "validate_config", counted)
        rc, _ = run_cli(tmp_path, command, "[scenario]\nsteps = 30\n", "--trials", "100", "--seed", "3")
        assert rc == 0
        assert len(calls) == 1 and calls[0].run.trials == 100

    @pytest.mark.parametrize("command", COMMANDS)
    def test_scenario_is_built_once_per_run(self, tmp_path, monkeypatch, command):
        # The command runs the scenario that validation built.
        calls = []

        def counted(cfg):
            calls.append(cfg)
            return build(cfg)

        build = config.build_scenario
        monkeypatch.setattr(config, "build_scenario", counted)
        monkeypatch.setattr(cli, "build_scenario", counted, raising=False)
        rc, _ = run_cli(tmp_path, command, "[scenario]\nsteps = 30\n", "--trials", "100", "--seed", "3")
        assert rc == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("command", COMMANDS)
    def test_covariance_recursion_runs_once_per_run(self, tmp_path, monkeypatch, command):
        # Validation reads the scenario's gains, and the command reuses them.
        calls = []

        def counted(*args):
            calls.append(args)
            return run(*args)

        run = scenario_module.gains
        monkeypatch.setattr(scenario_module, "gains", counted)
        rc, _ = run_cli(tmp_path, command, "[scenario]\nsteps = 30\n", "--trials", "100", "--seed", "3")
        assert rc == 0
        assert len(calls) == 1 and calls[0][3] == 29

    def test_override_is_validated(self, tmp_path, capsys):
        rc, _ = run_cli(tmp_path, "track", "", "--trials", "0")
        assert rc == 1
        assert capsys.readouterr().err == "puedet: error: [run] trials: must be >= 1, got 0\n"
        # The override replaces the file's value before the one validation.
        rc, _ = run_cli(tmp_path, "track", "[run]\ntrials = 0\n", "--trials", "5")
        assert rc == 0
