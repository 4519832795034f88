"""Experiment configuration: plain-text sectioned key=value files.

Every key has a documented default (an empty file is a valid config); unknown
sections or keys are rejected by name, and `config_error` names the keys of
every failure that only they decide.  `serialize_config` emits text that
parses back to an equal config, which is also what run manifests contain.
"""

from __future__ import annotations

import configparser
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace

from .detection import SINGLE_ANCHOR, DetectorConfig
from .errors import ConfigError, InvalidInputError, NumericalDegeneracyError
from .experiments import SCHEDULE_MIX
from .propagation import LinkModel, NoiseModel, check_path_loss, sigma_from_snr
from .scenario import AnchorNode, Scenario, Trajectory
from .tracking import check_covariance_recursion, initial_estimate


@dataclass(frozen=True)
class ScenarioConfig:
    dt: float = 1.0
    steps: int = 200
    meas_noise_std: float = 5.0
    start_x: float = 100.0
    start_y: float = 100.0
    vel_x: float = 5.0
    vel_y: float = 3.0
    segments: tuple[tuple[float, float, float], ...] = (
        (50.0, 0.01, 0.02),
        (50.0, -0.02, 0.01),
        (50.0, -0.01, -0.02),
        (50.0, -0.03, -0.01),
    )
    anchors: tuple[tuple[str, float, float], ...] = (("a1", 500.0, 0.0),)
    attacker_x: float = 100.0
    attacker_y: float = 100.0
    eval_step: int = -1


@dataclass(frozen=True)
class TrackingConfig:
    process_noise_std: float = Scenario.process_noise_std
    v_max: float = Scenario.v_max


@dataclass(frozen=True)
class LinkConfig:
    alpha: float = LinkModel.alpha
    # Desk-scale default for the SNR -> dB-noise mapping; at the stock geometry
    # it keeps the -10..10 dB grid inside the detector's informative range.
    snr_calibration: float = 0.15


@dataclass(frozen=True)
class DetectorSettings:
    tau: float = 25.0
    fusion: str = SINGLE_ANCHOR
    target_pfa: float | None = None


@dataclass(frozen=True)
class SweepSettings:
    distances: tuple[float, ...] = (30.0, 50.0, 70.0, 90.0, 110.0, 130.0, 150.0)
    snr_db: tuple[float, ...] = (-10.0, -5.0, 0.0, 5.0, 10.0)
    pfa_targets: tuple[float, ...] = (0.02, 0.05, 0.1, 0.2, 0.3)
    bearings: tuple[float, ...] = ()
    roc_distance: float = 30.0
    schedule_mix: float = SCHEDULE_MIX
    calibration_trials: int = 0


@dataclass(frozen=True)
class RunSettings:
    trials: int = 10000
    seed: int = 12345
    out: str = "results"


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    tracking: TrackingConfig = field(default_factory=TrackingConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    detector: DetectorSettings = field(default_factory=DetectorSettings)
    sweep: SweepSettings = field(default_factory=SweepSettings)
    run: RunSettings = field(default_factory=RunSettings)


_SECTIONS = {f.name: f.default_factory for f in fields(ExperimentConfig)}


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split())


def _parse_segments(text: str) -> tuple[tuple[float, float, float], ...]:
    out = []
    for chunk in filter(None, (c.strip() for c in text.split(";"))):
        parts = chunk.split()
        if len(parts) != 3:
            raise ValueError(f"segment needs 'duration ax ay', got {chunk!r}")
        out.append(tuple(float(p) for p in parts))
    if not out:
        raise ValueError("need at least one segment")
    return tuple(out)


def _parse_anchors(text: str) -> tuple[tuple[str, float, float], ...]:
    out = []
    for chunk in filter(None, (c.strip() for c in text.split(";"))):
        parts = chunk.split()
        if len(parts) != 3:
            raise ValueError(f"anchor needs 'id x y', got {chunk!r}")
        out.append((parts[0], float(parts[1]), float(parts[2])))
    if not out:
        raise ValueError("need at least one anchor")
    return tuple(out)


def _parse_optional_float(text: str) -> float | None:
    return None if text.strip() == "" else float(text)


_PARSERS = {
    ("scenario", "segments"): _parse_segments,
    ("scenario", "anchors"): _parse_anchors,
    ("detector", "target_pfa"): _parse_optional_float,
    ("sweep", "distances"): _parse_floats,
    ("sweep", "snr_db"): _parse_floats,
    ("sweep", "pfa_targets"): _parse_floats,
    ("sweep", "bearings"): _parse_floats,
}


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a config file; missing keys take their defaults."""
    cfg = read_config(path)
    validate_config(cfg)
    return cfg


def loads_config(text: str) -> ExperimentConfig:
    """Parse and validate config text; missing keys take their defaults."""
    cfg = _parse_config(text)
    validate_config(cfg)
    return cfg


def read_config(path: str) -> ExperimentConfig:
    """Read and parse a config file but leave it unvalidated, for a caller
    that replaces some values and then runs `validate_config` once."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return _parse_config(text)


def _parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file(io.StringIO(text), source="<string>")
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    groups = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        cls = _SECTIONS[section]
        defaults = {f.name: f.default for f in fields(cls)}
        values = {}
        for key, raw in parser.items(section):
            if key not in defaults:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            parse = _PARSERS.get((section, key), type(defaults[key]))
            try:
                values[key] = parse(raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
        groups[section] = cls(**values)
    return ExperimentConfig(**{name: groups.get(name, cls()) for name, cls in _SECTIONS.items()})


@contextmanager
def config_error(keys: str):
    """Report an InvalidInputError or NumericalDegeneracyError of the block as
    a ConfigError naming `keys`, for a step that only the values of those keys
    can make fail."""
    try:
        yield
    except (InvalidInputError, NumericalDegeneracyError) as exc:
        raise ConfigError(f"{keys}: {exc}") from None


def validate_config(cfg: ExperimentConfig) -> Scenario:
    """Enforce the domain invariants, naming the offending key; return the Scenario checked."""
    with config_error("[scenario/link]"):
        scenario = build_scenario(cfg)
    with config_error("[link] alpha"):
        check_path_loss(scenario.link)
    # Noise levels and v_max with finite squares can still overflow the filter's
    # covariance recursion, and two (nearly) zero noise levels collapse it.
    motion, meas_model = scenario.filter_models()
    with config_error("[scenario] meas_noise_std, [tracking] process_noise_std and v_max"):
        init = initial_estimate(scenario.trajectory.start, meas_model, scenario.v_max)
        check_covariance_recursion(init.covariance, motion, meas_model, scenario.n_steps - 1)
    if cfg.scenario.eval_step < -1:
        raise ConfigError(f"[scenario] eval_step: must be -1 (the final step) or >= 0, got {cfg.scenario.eval_step}")
    if cfg.detector.target_pfa is not None and not 0.0 < cfg.detector.target_pfa < 1.0:
        raise ConfigError(
            f"[detector] target_pfa: must be in (0, 1), got {cfg.detector.target_pfa}"
        )
    with config_error("[detector]"):
        build_detector(cfg)
    if not (math.isfinite(cfg.link.snr_calibration) and cfg.link.snr_calibration > 0):
        raise ConfigError(
            f"[link] snr_calibration: must be finite and > 0, got {cfg.link.snr_calibration}"
        )
    if not cfg.sweep.distances:
        raise ConfigError("[sweep] distances: must be non-empty")
    if not all(math.isfinite(d) and d >= 0 for d in cfg.sweep.distances):
        raise ConfigError(f"[sweep] distances: every distance must be finite and >= 0, got {cfg.sweep.distances}")
    if not cfg.sweep.snr_db:
        raise ConfigError("[sweep] snr_db: must be non-empty")
    with config_error("[sweep] snr_db"):
        for snr in cfg.sweep.snr_db:
            sigma_from_snr(snr, cfg.link.snr_calibration)
    # The charts draw one series per SNR value.
    if len(set(cfg.sweep.snr_db)) < len(cfg.sweep.snr_db):
        raise ConfigError(f"[sweep] snr_db: values must be distinct, got {cfg.sweep.snr_db}")
    if not cfg.sweep.pfa_targets:
        raise ConfigError("[sweep] pfa_targets: must be non-empty")
    if any(not 0.0 < t < 1.0 for t in cfg.sweep.pfa_targets):
        raise ConfigError("[sweep] pfa_targets: every target must lie in (0, 1)")
    if not 0.0 <= cfg.sweep.schedule_mix <= 1.0:
        raise ConfigError(
            f"[sweep] schedule_mix: must be in [0, 1], got {cfg.sweep.schedule_mix}"
        )
    if not all(math.isfinite(b) for b in cfg.sweep.bearings):
        raise ConfigError(f"[sweep] bearings: every bearing must be finite, got {cfg.sweep.bearings}")
    if not (math.isfinite(cfg.sweep.roc_distance) and cfg.sweep.roc_distance >= 0):
        raise ConfigError(f"[sweep] roc_distance: must be finite and >= 0, got {cfg.sweep.roc_distance}")
    if cfg.sweep.calibration_trials < 0:
        raise ConfigError("[sweep] calibration_trials: must be >= 0 (0 = same as trials)")
    if cfg.run.trials < 1:
        raise ConfigError(f"[run] trials: must be >= 1, got {cfg.run.trials}")
    if cfg.run.seed < 0:
        raise ConfigError(f"[run] seed: must be >= 0, got {cfg.run.seed}")
    return scenario


def _format_value(key: str, value) -> str:
    if value is None:
        return ""
    if key == "segments":
        return "; ".join(f"{repr(d)} {repr(ax)} {repr(ay)}" for d, ax, ay in value)
    if key == "anchors":
        return "; ".join(f"{aid} {repr(x)} {repr(y)}" for aid, x, y in value)
    if isinstance(value, tuple):
        return " ".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Deterministic text form; floats use repr so round-trips are exact."""
    lines = []
    for section, cls in _SECTIONS.items():
        lines.append(f"[{section}]")
        group = getattr(cfg, section)
        for f in fields(cls):
            lines.append(f"{f.name} = {_format_value(f.name, getattr(group, f.name))}")
        lines.append("")
    return "\n".join(lines)


def build_scenario(cfg: ExperimentConfig) -> Scenario:
    """Materialize the Scenario described by a config."""
    sc = cfg.scenario
    traj = Trajectory.from_segments(
        (sc.start_x, sc.start_y), (sc.vel_x, sc.vel_y), sc.segments
    )
    return Scenario(
        trajectory=traj,
        attacker_pos=(sc.attacker_x, sc.attacker_y),
        anchors=tuple(AnchorNode(aid, x, y) for aid, x, y in sc.anchors),
        dt=sc.dt,
        meas_noise_std=sc.meas_noise_std,
        link=LinkModel(cfg.link.alpha),
        rss_noise=NoiseModel(0.0),
        n_steps=sc.steps,
        process_noise_std=cfg.tracking.process_noise_std,
        v_max=cfg.tracking.v_max,
        eval_step=None if sc.eval_step < 0 else sc.eval_step,
    )


def build_detector(cfg: ExperimentConfig) -> DetectorConfig:
    return DetectorConfig(cfg.detector.tau, cfg.detector.fusion)


def default_scenario(**overrides) -> Scenario:
    """The stock experiment world, ``build_scenario(ExperimentConfig())``,
    with the given :class:`Scenario` fields replaced."""
    return replace(build_scenario(ExperimentConfig()), **overrides)
