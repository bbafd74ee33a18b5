"""Photon-number statistics and emission timing for pulsed light sources.

Three families are supported: sub-Poissonian emitters characterised by a
measured second-order correlation g2(0) < 1, attenuated-laser (Poissonian)
sources, and Poissonian sources driven at several intensity levels for
decoy-state operation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SourceKind",
    "SourceSpec",
    "PRESETS",
    "get_preset",
    "photon_number_distribution",
    "sample_photon_numbers",
    "multiphoton_probability",
    "subpoissonian_multiphoton",
    "poissonian_multiphoton",
]

# Poisson tables are extended until the missing tail is below this, which keeps
# both the normalisation and the mean identity good to well under 1e-12.
_POISSON_TAIL = 1e-15
_POISSON_MAX_TERMS = 512


class SourceKind(enum.Enum):
    SUB_POISSONIAN = "sub_poissonian"
    POISSONIAN = "poissonian"
    DECOY_POISSONIAN = "decoy_poissonian"


@dataclass(frozen=True)
class SourceSpec:
    """Static description of a pulsed source.

    Parameters
    ----------
    kind:
        Photon-number statistics family.
    mu:
        Mean photon number per pulse.  For decoy sources this is the mean over
        the level mixture and must match ``decoy_levels``.
    g2_zero:
        Zero-delay autocorrelation, sub-Poissonian sources only.  Poissonian
        statistics imply g2(0) = 1, so the field must be left unset there.
    lifetime_ns:
        Excited-state lifetime; emission delays are exponential with this scale.
    rep_rate_hz:
        Pulsed excitation repetition rate.
    decoy_levels:
        Tuple of (mu_i, weight_i) intensity levels, decoy sources only.
    """

    kind: SourceKind
    mu: float
    g2_zero: float | None = None
    lifetime_ns: float = 1.0
    rep_rate_hz: float = 1e6
    decoy_levels: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("mu", "g2_zero", "lifetime_ns", "rep_rate_hz"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.lifetime_ns <= 0:
            raise ValueError("lifetime_ns must be positive")
        if self.rep_rate_hz <= 0:
            raise ValueError("rep_rate_hz must be positive")
        if self.kind is SourceKind.SUB_POISSONIAN:
            # mu = 1 with g2 = 0 is the ideal on-demand limit, still a valid
            # distribution, so the upper bound is inclusive
            if not 0 < self.mu <= 1:
                raise ValueError("sub-Poissonian sources require 0 < mu <= 1")
            if self.g2_zero is None or self.g2_zero < 0:
                raise ValueError("sub-Poissonian sources require g2_zero >= 0")
            if self.mu * self.g2_zero > 1:
                raise ValueError(
                    "invalid photon statistics: mu * g2_zero > 1 gives p1 < 0"
                )
            if self.mu * self.g2_zero / 2 + self.mu > 1:
                raise ValueError(
                    "invalid photon statistics: mu * g2_zero / 2 + mu exceeds 1"
                )
            if self.decoy_levels:
                raise ValueError("decoy_levels only apply to decoy sources")
        else:
            if self.g2_zero is not None:
                raise ValueError(
                    "g2_zero is meaningful for sub-Poissonian sources only; "
                    "Poissonian statistics imply g2(0) = 1"
                )
            if self.mu <= 0:
                raise ValueError("mu must be positive")
        if self.kind is SourceKind.DECOY_POISSONIAN:
            self._validate_levels()
        elif self.kind is SourceKind.POISSONIAN and self.decoy_levels:
            raise ValueError("decoy_levels only apply to decoy sources")

    def _validate_levels(self) -> None:
        if not self.decoy_levels:
            raise ValueError("decoy sources require at least one intensity level")
        weights = [w for _, w in self.decoy_levels]
        mus = [m for m, _ in self.decoy_levels]
        if not all(math.isfinite(x) for x in weights + mus):
            raise ValueError("decoy level intensities and weights must be finite")
        if any(w <= 0 for w in weights):
            raise ValueError("decoy level weights must be positive")
        if any(m < 0 for m in mus):
            raise ValueError("decoy level intensities must be non-negative")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError("decoy level weights must sum to 1")
        mean = sum(m * w for m, w in self.decoy_levels)
        if abs(mean - self.mu) > 1e-9:
            raise ValueError(
                "mu must equal the weighted mean intensity of decoy_levels"
            )

    @property
    def g2_effective(self) -> float:
        """g2(0) implied by the configured statistics."""
        if self.kind is SourceKind.SUB_POISSONIAN:
            assert self.g2_zero is not None
            return self.g2_zero
        if self.kind is SourceKind.POISSONIAN:
            return 1.0
        # Mixture of Poissonians: E[n(n-1)] = sum w_i mu_i^2.
        second = sum(w * m * m for m, w in self.decoy_levels)
        return second / (self.mu * self.mu)

    @property
    def rep_period_ns(self) -> float:
        return 1e9 / self.rep_rate_hz


def _poisson_table(mu: float) -> np.ndarray:
    probs = [math.exp(-mu)]
    cum = probs[0]
    n = 0
    while 1.0 - cum > _POISSON_TAIL and n < _POISSON_MAX_TERMS:
        probs.append(probs[-1] * mu / (n + 1))
        cum += probs[-1]
        n += 1
    return np.asarray(probs)


def photon_number_distribution(spec: SourceSpec) -> np.ndarray:
    """Per-pulse photon-number probabilities, index = photon count.

    Sub-Poissonian sources are restricted to {0, 1, 2} photons with the
    two-photon weight saturating the multiphoton bound p2 = mu^2 g2(0) / 2.
    Poissonian tables are truncated once the remaining tail is negligible.
    """
    if spec.kind is SourceKind.SUB_POISSONIAN:
        p2 = spec.mu**2 * spec.g2_zero / 2
        p1 = spec.mu - 2 * p2
        return np.array([1.0 - p1 - p2, p1, p2])
    if spec.kind is SourceKind.POISSONIAN:
        return _poisson_table(spec.mu)
    tables = [_poisson_table(m) if m > 0 else np.array([1.0]) for m, _ in spec.decoy_levels]
    width = max(len(t) for t in tables)
    mixed = np.zeros(width)
    for table, (_, w) in zip(tables, spec.decoy_levels):
        mixed[: len(table)] += w * table
    return mixed


def multiphoton_probability(spec: SourceSpec) -> float:
    """Probability that a pulse carries two or more photons."""
    if spec.kind is SourceKind.SUB_POISSONIAN:
        return subpoissonian_multiphoton(spec.mu, spec.g2_zero)
    if spec.kind is SourceKind.POISSONIAN:
        return poissonian_multiphoton(spec.mu)
    return sum(w * poissonian_multiphoton(m) for m, w in spec.decoy_levels)


def subpoissonian_multiphoton(mu: float, g2_zero: float) -> float:
    """Multiphoton bound p_m = mu^2 g2(0) / 2 for a sub-Poissonian pulse."""
    return mu * mu * g2_zero / 2


def poissonian_multiphoton(mu: float) -> float:
    """P(n >= 2) = 1 - (1 + mu) exp(-mu) for Poissonian pulses."""
    if mu < 0:
        raise ValueError("mu must be non-negative")
    return -math.expm1(-mu) - mu * math.exp(-mu)


def sample_photon_numbers(
    spec: SourceSpec, n_pulses: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw per-pulse photon counts for ``n_pulses`` consecutive pulses."""
    if n_pulses < 0:
        raise ValueError("n_pulses must be non-negative")
    if spec.kind is SourceKind.SUB_POISSONIAN:
        _, p1, p2 = photon_number_distribution(spec)
        u = rng.random(n_pulses)
        # 0/1/2 photons by stacked threshold comparison; cheap and exact.
        return (u < p1 + p2).astype(np.int64) + (u < p2)
    if spec.kind is SourceKind.POISSONIAN:
        return rng.poisson(spec.mu, n_pulses)
    mus = np.array([m for m, _ in spec.decoy_levels])
    weights = np.array([w for _, w in spec.decoy_levels])
    level = rng.choice(len(mus), size=n_pulses, p=weights)
    return rng.poisson(mus[level])


def _sub(mu: float, g2: float, lifetime: float, rep: float) -> SourceSpec:
    return SourceSpec(
        SourceKind.SUB_POISSONIAN,
        mu=mu,
        g2_zero=g2,
        lifetime_ns=lifetime,
        rep_rate_hz=rep,
    )


# Named configurations used throughout the CLI and the test bench.
#
# nv / siv mirror the measured defect-centre emitters (source efficiency,
# pulsed g2(0), lifetime at a 1 MHz excitation clock).  ideal10 / ideal95 are
# next-generation emitters with 10% / 95% per-pulse yield at an 80 MHz clock.
# siv80 is the fast-clock silicon-vacancy regime: yield tuned so detection at
# unit efficiency lands near 230 kcps, with the short lifetime such emitters
# need for clean 12.5 ns pulse separation.  wcp is an attenuated laser with
# intensity matched to the default setup transmission at zero distance, and
# decoy adds vacuum + weak intensity levels around a 0.5-photon signal.
PRESETS: dict[str, SourceSpec] = {
    "nv": _sub(0.029, 0.09, 28.5, 1e6),
    "siv": _sub(0.012, 0.04, 3.0, 1e6),
    "ideal10": _sub(0.10, 0.005, 0.5, 80e6),
    "ideal95": _sub(0.95, 0.0005, 0.5, 80e6),
    "siv80": _sub(2.875e-3, 0.09, 0.8, 80e6),
    "wcp": SourceSpec(SourceKind.POISSONIAN, mu=0.31, lifetime_ns=0.1, rep_rate_hz=1e6),
    "decoy": SourceSpec(
        SourceKind.DECOY_POISSONIAN,
        mu=0.415,
        lifetime_ns=0.1,
        rep_rate_hz=1e6,
        decoy_levels=((0.5, 0.8), (0.1, 0.15), (0.0, 0.05)),
    ),
}


def get_preset(name: str) -> SourceSpec:
    """Look up a named source configuration."""
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r}; available: {known}") from None
