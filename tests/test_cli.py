import csv
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from puedet import experiments
from puedet.cli import main
from puedet.config import build_scenario, loads_config
from puedet.experiments import MetricsReport, SweepCoords, cell_streams
from puedet.scenario import Scenario, emit_position_measurement, truth_at

SVG_NS = "{http://www.w3.org/2000/svg}"
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
        # The product pt * gt * gr * wavelength^2 under- or overflows; the
        # link constant must not.
        rc, _ = run_cli(tmp_path, command, f"[link]\nwavelength = {wavelength}\n", "--trials", "500")
        err = capsys.readouterr().err
        assert rc == 0 or err.startswith("puedet: error: [link] wavelength"), err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        rc, _ = run_cli(tmp_path, "track", "", "--seed", "-1")
        assert rc == 1
        assert "seed" in capsys.readouterr().err
