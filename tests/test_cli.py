import csv
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from puedet.cli import main
from puedet.config import loads_config

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

    def test_negative_seed_rejected(self, tmp_path, capsys):
        rc, _ = run_cli(tmp_path, "track", "", "--seed", "-1")
        assert rc == 1
        assert "seed" in capsys.readouterr().err
