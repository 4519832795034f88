"""Detection of primary-user-emulation attacks against a mobile primary user.

A Kalman filter tracks the primary user from position measurements; received
signal strength at anchor nodes is inverted through a log-distance path-loss
model into a second distance estimate; a transmitter whose two distance
estimates disagree by at least tau is flagged as an attacker.  A seeded Monte
Carlo harness measures detection, false-alarm, and miss probabilities across
distance / SNR / threshold sweeps.
"""

from .detection import (
    ATTACKER,
    LEGITIMATE,
    DetectorConfig,
    Verdict,
    anchor_distance,
    calibrate_taus,
    decide,
    detect_step,
    rss_baseline_decide,
)
from .config import default_scenario
from .errors import ConfigError, InvalidInputError, NumericalDegeneracyError
from .experiments import (
    BaselineComparison,
    Cell,
    MetricsReport,
    SweepCoords,
    TrialOutcome,
    attacker_positions,
    compare_baseline,
    metrics,
    run_cell,
    run_trials,
    sweep_distance,
    sweep_roc,
)
from .propagation import (
    LinkModel,
    NoiseModel,
    RssSample,
    distance_from_rss,
    received_power_db,
    sample_rss,
    sigma_from_snr,
)
from .scenario import (
    PU,
    PUE,
    AnchorNode,
    Scenario,
    Trajectory,
    emit_position_measurement,
    emit_rss,
    truth_at,
)
from .tracking import (
    FilterEstimate,
    MeasurementModel,
    MotionModel,
    TargetState,
    initial_estimate,
    predict,
    track,
    update,
)

__version__ = "0.1.0"
