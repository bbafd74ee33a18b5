"""Fibre link, collection optics and detection-stage scalar model.

Everything between the source output and the classical click record is
collapsed into one transmission budget: fibre loss at a fixed dB/km figure,
a lumped setup efficiency for collection + coupling + detector quantum
efficiency, dark counts per gate, and a polarisation misalignment error.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .sources import photon_number_distribution

__all__ = [
    "LinkSpec",
    "fibre_transmission",
    "click_probability",
    "exact_click_probability",
    "error_rate_model",
]


def fibre_transmission(
    distance_km: float | np.ndarray, attenuation_db_per_km: float
) -> float | np.ndarray:
    """Power transmission of ``distance_km`` of fibre, a float or an array."""
    if np.any(np.less(distance_km, 0)):
        raise ValueError("distance_km must be non-negative")
    return 10.0 ** (-attenuation_db_per_km * distance_km / 10.0)


@dataclass(frozen=True)
class LinkSpec:
    """Scalar loss and noise budget for one arm of the apparatus.

    ``setup_efficiency`` lumps everything distance-independent (collection,
    coupling, filter and detector efficiency).  ``dark_count_prob`` is the
    total accidental-click probability per gate summed over both detectors of
    the receiving basis.  ``misalignment`` is the probability that a photon
    which does arrive is registered in the wrong detector of a matched basis.
    """

    distance_km: float = 0.0
    attenuation_db_per_km: float = 0.4
    setup_efficiency: float = 0.31
    dark_count_prob: float = 2.4e-5
    misalignment: float = 0.03

    def __post_init__(self) -> None:
        for name in ("distance_km", "attenuation_db_per_km"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.distance_km < 0:
            raise ValueError("distance_km must be non-negative")
        if self.attenuation_db_per_km < 0:
            raise ValueError("attenuation_db_per_km must be non-negative")
        if not 0 < self.setup_efficiency <= 1:
            raise ValueError("setup_efficiency must be in (0, 1]")
        if not 0 <= self.dark_count_prob < 1:
            raise ValueError("dark_count_prob must be in [0, 1)")
        if not 0 <= self.misalignment <= 0.5:
            raise ValueError("misalignment must be in [0, 0.5]")

    @property
    def transmission(self) -> float:
        return fibre_transmission(self.distance_km, self.attenuation_db_per_km)

    @property
    def total_efficiency(self) -> float:
        return self.setup_efficiency * self.transmission

    def at_distance(self, distance_km: float) -> "LinkSpec":
        """Same link budget evaluated at a different fibre length."""
        return dataclasses.replace(self, distance_km=distance_km)


def click_probability(
    mu: float | np.ndarray, link: LinkSpec, eta: float | np.ndarray | None = None
) -> float | np.ndarray:
    """Per-gate click probability min(1, mu * eta + p_dark).

    ``eta`` is the link's total efficiency unless given, as a float or an
    array of efficiencies (a distance sweep); a float in gives a float out.
    """
    eta = link.total_efficiency if eta is None else eta
    p = np.minimum(1.0, mu * eta + link.dark_count_prob)
    return p if p.ndim else float(p)


def exact_click_probability(source, link: LinkSpec) -> float:
    """Click probability without the small-mu linearization.

    Expands over the full photon-number distribution: a gate stays dark
    only if every emitted photon is lost and neither detector fires on its
    own.  Agrees with click_probability to first order in mu * eta; the gap
    grows to a few percent for attenuated-laser intensities, which matters
    when binding Monte-Carlo counts at high statistics.
    """
    probs = photon_number_distribution(source)
    eta = link.total_efficiency
    survive_none = float(np.dot(probs, (1.0 - eta) ** np.arange(probs.size)))
    no_dark = (1.0 - link.dark_count_prob / 2.0) ** 2
    return 1.0 - survive_none * no_dark


def error_rate_model(
    mu: float | np.ndarray, link: LinkSpec, eta: float | np.ndarray | None = None
) -> float | np.ndarray:
    """Expected QBER: misaligned signal plus half the dark clicks.

    Darks land in either detector with equal probability, so they contribute
    errors at 50%.  Clamped to 0.5; a link that can never click at all is
    reported at the uninformative 0.5.  ``eta`` is read as by
    ``click_probability``.
    """
    eta = link.total_efficiency if eta is None else eta
    num = link.misalignment * mu * eta + 0.5 * link.dark_count_prob
    # num >= 0, so only a link that cannot click divides to nan, which fmin reads as 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.fmin(0.5, np.divide(num, click_probability(mu, link, eta)))
    return e if e.ndim else float(e)
