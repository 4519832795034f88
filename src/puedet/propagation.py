"""Free-space path-loss radio model.

Forward direction: received power in dB at a given transmitter-receiver
distance, optionally perturbed by Gaussian dB-domain noise.  Inverse
direction: distance recovered from a received-power reading.  The dB
expression carries no reference-power offset; every comparison in this
package happens in the same convention, so the offset cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalDegeneracyError


@dataclass(frozen=True)
class LinkModel:
    """Radio link parameters.

    pt: transmit power (W); gt/gr: antenna gains; wavelength (m);
    alpha: path-loss exponent (2 = free space).
    """

    pt: float = 1.0
    gt: float = 1.0
    gr: float = 1.0
    wavelength: float = 0.333
    alpha: float = 2.0

    def __post_init__(self):
        vals = (self.pt, self.gt, self.gr, self.wavelength, self.alpha)
        if not all(math.isfinite(v) and v > 0.0 for v in vals):
            raise InvalidInputError(f"link parameters must be positive and finite, got {self}")

    @property
    def link_constant_db(self) -> float:
        """The distance-independent dB term of the path-loss law, summed as
        logs so that no product of the parameters can overflow or underflow."""
        logs = math.log10(self.pt) + math.log10(self.gt) + math.log10(self.gr) + 2.0 * math.log10(self.wavelength)
        return 10.0 * logs - 20.0 * math.log10(4.0 * math.pi)


@dataclass(frozen=True)
class NoiseModel:
    """Standard deviation of the dB-domain noise added to RSS readings."""

    sigma_db: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma_db) and self.sigma_db >= 0.0):
            raise InvalidInputError(f"sigma_db must be >= 0, got {self.sigma_db}")


@dataclass(frozen=True)
class RssSample:
    """One received-signal-strength reading at an anchor."""

    pr_db: float

    def __post_init__(self):
        if not math.isfinite(self.pr_db):
            raise InvalidInputError(f"pr_db must be finite, got {self.pr_db}")


def received_power_db(link: LinkModel, distance: float) -> float:
    """Noiseless received power in dB at the given distance (m)."""
    if not (math.isfinite(distance) and distance > 0.0):
        raise InvalidInputError(f"distance must be > 0, got {distance}")
    return -10.0 * link.alpha * math.log10(distance) + link.link_constant_db


def sample_rss(
    link: LinkModel,
    distance: float,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> RssSample:
    """Received power with one Gaussian dB-domain noise draw from `rng`.

    The draw happens even at sigma_db = 0 so that a caller's stream advances
    identically regardless of the noise setting.
    """
    n = noise.sigma_db * rng.standard_normal()
    return RssSample(received_power_db(link, distance) + n)


def distance_from_rss(link: LinkModel, pr_db: float) -> float:
    """Distance (m) that would produce the given received power; exact inverse
    of :func:`received_power_db` in the noiseless case.  Raises
    NumericalDegeneracyError when that distance is beyond the float range."""
    if not math.isfinite(pr_db):
        raise InvalidInputError(f"pr_db must be finite, got {pr_db}")
    try:
        d = 10.0 ** ((link.link_constant_db - pr_db) / (10.0 * link.alpha))
    except OverflowError:
        d = math.inf
    if not math.isfinite(d):
        raise NumericalDegeneracyError(f"RSS-implied distance left the finite range (pr_db={pr_db})")
    return d


def check_path_loss(link: LinkModel) -> None:
    """Refuse a path-loss exponent at which noiseless ranging loses the
    distance: one so small that ``-10 alpha log10(d)`` vanishes against the
    link constant, so that every distance ranges to about 1 m, or so large
    that the received power leaves the float range.  Ranging 100 m and back
    must hold to 1e-6 relative."""
    try:
        ranged = distance_from_rss(link, received_power_db(link, 100.0))
    except (InvalidInputError, NumericalDegeneracyError) as exc:
        raise InvalidInputError(f"noiseless ranging of 100 m fails at alpha = {link.alpha:g}: {exc}") from None
    if abs(ranged / 100.0 - 1.0) > 1e-6:
        raise InvalidInputError(f"noiseless ranging of 100 m returns {ranged:.6g} m at alpha = {link.alpha:g}")


def check_ranging_noise(link: LinkModel, noise: NoiseModel) -> None:
    """Refuse dB noise of which a draw of one standard deviation already
    scales the RSS-implied distance, by ``10^(sigma_db / (10 alpha))``, past
    the float range: a run would then fail in ranging whatever its draws.
    Fainter tails are left to the draw (see :func:`distance_from_rss`)."""
    try:
        factor = 10.0 ** (noise.sigma_db / (10.0 * link.alpha))
    except OverflowError:
        factor = math.inf
    if not math.isfinite(factor):
        raise InvalidInputError(
            f"RSS noise of {noise.sigma_db:g} dB at alpha = {link.alpha:g} scales the RSS-implied "
            "distance beyond the float range at one standard deviation"
        )


def sigma_from_snr(snr_db: float, calibration: float) -> NoiseModel:
    """Map an SNR setting to a dB-domain noise level: sigma = c * 10^(-snr/20).

    This mapping is a modeling choice of this package, not a physical law; it
    is monotone (higher SNR, less noise) and equals `calibration` at 0 dB.
    """
    if not (math.isfinite(calibration) and calibration > 0.0):
        raise InvalidInputError(f"calibration must be > 0, got {calibration}")
    if not math.isfinite(snr_db):
        raise InvalidInputError(f"snr_db must be finite, got {snr_db}")
    try:
        sigma = calibration * 10.0 ** (-snr_db / 20.0)
    except OverflowError:
        sigma = math.inf
    if not math.isfinite(sigma):
        raise InvalidInputError(f"snr_db = {snr_db} puts the noise level beyond the float range")
    return NoiseModel(sigma)
