import re
from pathlib import Path

import pytest

from puedet.config import (
    ExperimentConfig,
    build_detector,
    build_scenario,
    config_error,
    load_config,
    loads_config,
    serialize_config,
    validate_config,
)
from puedet.errors import ConfigError, InvalidInputError, NumericalDegeneracyError

FULL_CONFIG = """
[scenario]
dt = 0.5
steps = 120
meas_noise_std = 4.0
start_x = 50
start_y = 60
vel_x = 4.0
vel_y = 2.0
segments = 30 0.01 0.0; 30 -0.01 0.02
anchors = a1 400 0; a2 0 400
attacker_x = 50
attacker_y = 60
eval_step = 100

[tracking]
process_noise_std = 0.3
v_max = 12

[link]
alpha = 2.2
snr_calibration = 0.2

[detector]
tau = 30
fusion = or
target_pfa = 0.1

[sweep]
distances = 40 80 120
snr_db = -10 0 10
pfa_targets = 0.05 0.1
bearings = 0.0 3.141592653589793
roc_distance = 40
schedule_mix = 0.5
calibration_trials = 2000

[run]
trials = 500
seed = 99
out = myresults
"""


class TestLoad:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        assert load_config(str(path)) == ExperimentConfig()

    def test_full_config_parses(self):
        cfg = loads_config(FULL_CONFIG)
        assert cfg.scenario.steps == 120
        assert cfg.scenario.segments == ((30.0, 0.01, 0.0), (30.0, -0.01, 0.02))
        assert cfg.scenario.anchors == (("a1", 400.0, 0.0), ("a2", 0.0, 400.0))
        assert cfg.detector.fusion == "or"
        assert cfg.detector.target_pfa == 0.1
        assert cfg.sweep.distances == (40.0, 80.0, 120.0)
        assert cfg.run.out == "myresults"

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/nowhere.cfg")

    def test_parse_error_carries_line_info(self):
        with pytest.raises(ConfigError, match="line"):
            loads_config("[scenario]\ndt 1.0\n")


class TestValidation:
    def test_negative_tau_names_key(self):
        with pytest.raises(ConfigError, match="tau"):
            loads_config("[detector]\ntau = -1\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown key 'taus'"):
            loads_config("[detector]\ntaus = 5\n")

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match=r"unknown section \[detectors\]"):
            loads_config("[detectors]\ntau = 5\n")

    def test_bad_fusion(self):
        with pytest.raises(ConfigError, match="fusion"):
            loads_config("[detector]\nfusion = vote\n")

    def test_bad_target_pfa(self):
        with pytest.raises(ConfigError, match="target_pfa"):
            loads_config("[detector]\ntarget_pfa = 1.5\n")

    def test_bad_segment_shape(self):
        with pytest.raises(ConfigError, match="segments"):
            loads_config("[scenario]\nsegments = 10 0.1\n")

    def test_schedule_exceeding_trajectory(self):
        with pytest.raises(ConfigError, match="trajectory ends"):
            loads_config("[scenario]\nsegments = 10 0 0\nsteps = 100\n")

    def test_trajectory_beyond_float_range(self):
        # Finite segments whose derived waypoint overflows.
        with pytest.raises(ConfigError, match="trajectory values must be finite"):
            loads_config("[scenario]\nsegments = 1e200 1e200 0\n")

    @pytest.mark.parametrize(
        "section, key", [("scenario", "meas_noise_std"), ("tracking", "process_noise_std"), ("tracking", "v_max")]
    )
    def test_tracker_square_beyond_float_range(self, section, key):
        # The tracker squares each of these; 1e200 is finite, its square is not.
        with pytest.raises(ConfigError, match=rf"\[scenario/link\]: {key} must have a finite square"):
            loads_config(f"[{section}]\n{key} = 1e200\n")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("scenario", "meas_noise_std", "1e100"),
            ("scenario", "meas_noise_std", "1e150"),
            ("tracking", "process_noise_std", "1e140"),
            ("tracking", "process_noise_std", "1e150"),
            ("tracking", "v_max", "1e154"),
        ],
    )
    def test_tracker_overflow_names_the_tracker_keys(self, section, key, value):
        # Each square is finite, but the filter's first step overflows.
        with pytest.raises(
            ConfigError, match=r"^\[scenario\] meas_noise_std, \[tracking\] process_noise_std and v_max: "
        ):
            loads_config(f"[{section}]\n{key} = {value}\n")

    @pytest.mark.parametrize("meas, process", [("0", "0"), ("1e-300", "0"), ("0", "1e-300"), ("1e-300", "1e-300")])
    def test_collapsed_tracker_names_the_tracker_keys(self, meas, process):
        # With neither noise (each square is 0) the covariance collapses and
        # the innovation covariance turns singular at the second step.
        with pytest.raises(
            ConfigError,
            match=r"^\[scenario\] meas_noise_std, \[tracking\] process_noise_std and v_max: innovation covariance is singular",
        ):
            loads_config(f"[scenario]\nsteps = 30\nmeas_noise_std = {meas}\n[tracking]\nprocess_noise_std = {process}\n")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("sweep", "roc_distance", "nan"),
            ("link", "snr_calibration", "inf"),
            ("sweep", "distances", "30 nan"),
            ("sweep", "distances", "-10"),
            ("sweep", "snr_db", "inf"),
            ("sweep", "snr_db", "0 nan"),
        ],
    )
    def test_out_of_range_value_names_its_key(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: .*finite"):
            loads_config(f"[{section}]\n{key} = {value}\n")

    @pytest.mark.parametrize(
        "text, match",
        [
            ("[sweep]\nsnr_db = -5 -8000\n", r"\[sweep\] snr_db: .*beyond the float range"),
            ("[sweep]\npfa_targets =\n", r"\[sweep\] pfa_targets: must be non-empty"),
            ("[scenario]\neval_step = -7\n", r"\[scenario\] eval_step: "),
        ],
        ids=["snr_db=-8000", "empty pfa_targets", "eval_step=-7"],
    )
    def test_rejected_value_names_its_key(self, text, match):
        with pytest.raises(ConfigError, match=match):
            loads_config(text)

    @pytest.mark.parametrize("alpha", ["5e-324", "1e-320", "1e308"])
    def test_path_loss_that_loses_the_distance_names_alpha(self, alpha):
        # At 5e-324 200 m ranges to 199.5 m, and at 1e-320 it is off by
        # 2e-5: the power is subnormal.  At 1e308 it is not finite.
        with pytest.raises(ConfigError, match=r"^\[link\] alpha: noiseless ranging of 200 m "):
            loads_config(f"[link]\nalpha = {alpha}\n")

    @pytest.mark.parametrize("alpha", ["1e-300", "1e-17", "1e-12", "1e-10", "0.01", "2.0", "1e300"])
    def test_path_loss_that_keeps_the_distance_loads(self, alpha):
        # The power is relative to 1 m, so no constant term swamps
        # -10 alpha log10(d), even at an alpha of 1e-300.
        assert loads_config(f"[link]\nalpha = {alpha}\n").link.alpha == float(alpha)

    @pytest.mark.parametrize("snr_db", ["0 0", "0 -0", "-5 5 -5"])
    def test_repeated_snr_value_is_refused(self, snr_db):
        # The charts draw one series per SNR value.
        snrs = tuple(float(v) for v in snr_db.split())
        with pytest.raises(ConfigError) as info:
            loads_config(f"[sweep]\nsnr_db = {snr_db}\n")
        assert str(info.value) == f"[sweep] snr_db: values must be distinct, got {snrs}"

    def test_validation_returns_the_scenario_it_checked(self):
        cfg = loads_config(FULL_CONFIG)
        assert validate_config(cfg) == build_scenario(cfg)

    def test_zero_trials(self):
        with pytest.raises(ConfigError, match="trials"):
            loads_config("[run]\ntrials = 0\n")

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            loads_config("[run]\nseed = -1\n")


class TestConfigError:
    @pytest.mark.parametrize("error", [InvalidInputError, NumericalDegeneracyError])
    def test_library_error_names_the_keys(self, error):
        with pytest.raises(ConfigError) as info:
            with config_error("[link] alpha, [sweep] snr_db"):
                raise error("cannot range")
        assert str(info.value) == "[link] alpha, [sweep] snr_db: cannot range"

    @pytest.mark.parametrize("error", [ValueError("other"), OSError(2, "missing"), MemoryError()])
    def test_other_error_passes_through(self, error):
        with pytest.raises(type(error)) as info:
            with config_error("[link] alpha"):
                raise error
        assert info.value is error


class TestRoundTrip:
    def test_defaults_round_trip(self):
        cfg = ExperimentConfig()
        assert loads_config(serialize_config(cfg)) == cfg

    def test_readme_states_the_defaults(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        assert loads_config(re.sub(r"[ \t]*#.*", "", block)) == ExperimentConfig()

    def test_full_config_round_trips(self):
        cfg = loads_config(FULL_CONFIG)
        text = serialize_config(cfg)
        assert loads_config(text) == cfg

    def test_serialization_is_deterministic(self):
        cfg = loads_config(FULL_CONFIG)
        assert serialize_config(cfg) == serialize_config(cfg)


class TestBuilders:
    def test_build_scenario_reflects_config(self):
        cfg = loads_config(FULL_CONFIG)
        scen = build_scenario(cfg)
        assert scen.n_steps == 120
        assert scen.dt == 0.5
        assert len(scen.anchors) == 2
        assert scen.eval_step == 100
        assert scen.link.alpha == 2.2
        assert scen.process_noise_std == 0.3

    def test_build_detector(self):
        cfg = loads_config(FULL_CONFIG)
        det = build_detector(cfg)
        assert det.tau == 30.0 and det.fusion == "or"

    def test_default_eval_step_is_final(self):
        scen = build_scenario(ExperimentConfig())
        assert scen.eval_step is None
        assert scen.evaluation_step == scen.n_steps - 1
