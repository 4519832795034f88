"""Decision core: compare the tracker-implied transmitter-anchor distance with
the RSS-implied one and flag an attacker when they disagree by >= tau.

Also provides the static-reference RSS baseline (blind to PU mobility) and
empirical threshold calibration from legitimate residual samples.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, NumericalDegeneracyError
from .propagation import LinkModel, RssSample, distance_from_rss
from .scenario import AnchorNode

LEGITIMATE = "Legitimate"
ATTACKER = "Attacker"

SINGLE_ANCHOR = "single"
OR_ACROSS_ANCHORS = "or"


def check_fusion(fusion: str) -> None:
    """Raise InvalidInputError unless `fusion` names a fusion mode."""
    if fusion not in (SINGLE_ANCHOR, OR_ACROSS_ANCHORS):
        raise InvalidInputError(f"unknown fusion mode {fusion!r}")


@dataclass(frozen=True)
class DetectorConfig:
    tau: float
    fusion: str = SINGLE_ANCHOR

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau >= 0.0):
            raise InvalidInputError(f"tau must be >= 0, got {self.tau}")
        check_fusion(self.fusion)


@dataclass(frozen=True)
class Verdict:
    label: str
    d_kf: float
    d_rss: float
    residual: float


def anchor_distance(position, anchor: AnchorNode) -> float:
    """Euclidean distance from the estimated PU position (x, y) to the anchor."""
    x, y = position
    return math.hypot(x - anchor.x, y - anchor.y)


def decide(d_kf: float, d_rss: float, config: DetectorConfig) -> Verdict:
    """Attacker iff |d_kf - d_rss| >= tau; equality counts as an attack."""
    if not (math.isfinite(d_kf) and d_kf >= 0.0 and math.isfinite(d_rss) and d_rss >= 0.0):
        raise InvalidInputError(f"distances must be finite and >= 0, got {d_kf}, {d_rss}")
    residual = abs(d_kf - d_rss)
    label = ATTACKER if residual >= config.tau else LEGITIMATE
    return Verdict(label, d_kf, d_rss, residual)


def detect_step(
    position,
    rss_samples: Sequence[RssSample],
    anchors: Sequence[AnchorNode],
    link: LinkModel,
    config: DetectorConfig,
) -> Verdict:
    """One detection decision from the estimated PU position (x, y) and per-anchor RSS.

    Every anchor is ranged and decided, whatever the fusion, so an anchor
    whose RSS cannot be inverted fails the step under either.  Single-anchor
    fusion then keeps the first (designated) anchor's verdict; or-fusion keeps
    the verdict of the largest residual, an attacker if any anchor flags one.
    """
    if not anchors or not rss_samples:
        raise InvalidInputError("need at least one (anchor, rss) pair")
    if len(anchors) != len(rss_samples):
        raise InvalidInputError("anchors and rss_samples must be parallel sequences")
    verdicts = []
    for a, s in zip(anchors, rss_samples):
        try:
            d_rss = distance_from_rss(link, s.pr_db)
        except NumericalDegeneracyError as e:
            raise NumericalDegeneracyError(f"anchor {a.id!r}: {e}") from None
        verdicts.append(decide(anchor_distance(position, a), d_rss, config))
    if config.fusion == SINGLE_ANCHOR:
        return verdicts[0]
    # Any residual >= tau makes the largest one >= tau too.
    return max(verdicts, key=lambda v: v.residual)


def rss_baseline_decide(
    reference_pos,
    anchor: AnchorNode,
    rss: RssSample,
    link: LinkModel,
    config: DetectorConfig,
) -> Verdict:
    """Static-reference comparator: the assumed PU position never moves, so the
    baseline is blind to PU mobility by construction."""
    rx, ry = (float(c) for c in reference_pos)
    d_ref = math.hypot(rx - anchor.x, ry - anchor.y)
    return decide(d_ref, distance_from_rss(link, rss.pr_db), config)


def calibrate_taus(
    legitimate_residuals: Sequence[float],
    targets: Sequence[float],
    fusion: str = SINGLE_ANCHOR,
) -> list[DetectorConfig]:
    """One config per false-alarm target, in the order given: tau is the
    smallest legitimate residual whose false-alarm rate on the sample, the
    share of residuals >= tau, is at most the target.

    One sort of the sample serves every target.  When no residual meets a
    target -- the largest is tied, or the sample has fewer than 1 / target
    residuals -- its tau is the largest residual, and a warning names the
    cause and the rate it yields, at the line that called this function.
    """
    residuals = np.asarray(legitimate_residuals, dtype=float)
    if residuals.size == 0:
        raise InvalidInputError("need a non-empty residual sample")
    if not np.isfinite(residuals).all():
        raise InvalidInputError("residual sample must be finite")
    for target in targets:
        if not 0.0 < target < 1.0:
            raise InvalidInputError(f"target_pfa must be in (0, 1), got {target}")
    ranked = np.sort(residuals)
    n = ranked.size
    # The false-alarm rate with tau at each residual: the share at or above it.
    # It never increases, so the first residual that meets a target is where
    # the target would enter -rates.
    rates = (n - np.searchsorted(ranked, ranked, side="left")) / n
    first = np.searchsorted(-rates, -np.asarray(targets, dtype=float), side="left").tolist()
    configs = []
    for target, i in zip(targets, first):
        if i == n:
            cause = f"a sample of {n} resolves no rate below 1/{n}" if n * target < 1 else "tied residuals"
            warnings.warn(
                f"calibrated tau={ranked[-1]:.6g} yields false-alarm rate {rates[-1]:.4f} on the "
                f"calibration sample, above the target {target:.4f} ({cause})",
                RuntimeWarning,
                stacklevel=2,
            )
        configs.append(DetectorConfig(tau=float(ranked[min(i, n - 1)]), fusion=fusion))
    return configs
