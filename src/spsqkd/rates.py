"""Closed-form secure key rate estimates.

The workhorse is the tagged-fraction bound for BB84 with an imperfect
source: multiphoton pulses are assumed fully tagged, privacy amplification
runs only on the untagged remainder, and error correction is charged at a
fixed inefficiency above the Shannon limit,

    R = q * rep * p_click * [ -f h2(E) + (1 - delta) (1 - h2(E / (1 - delta))) ]

with delta the multiphoton fraction of detected pulses.  Attenuated-laser
comparisons come in two flavours: the same bound applied to Poissonian
statistics (all multiphoton pulses tagged), and the asymptotic decoy-state
bound where the single-photon yield is known exactly.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .channel import LinkSpec, click_probability, error_rate_model
from .sources import SourceSpec, multiphoton_probability, poissonian_multiphoton

__all__ = [
    "binary_entropy",
    "RateInputs",
    "gllp_rate",
    "critical_efficiency",
    "OptimalRate",
    "wcp_rate",
    "decoy_optimal_rate",
    "RateVariant",
    "default_variants",
    "sweep_variants",
    "crossover_distance",
    "cutoff_distance",
    "format_rate_csv",
]

# Intensity search grid for attenuated-laser optimisation: 0.005 steps, and
# the endpoint lands exactly on mu = 1.
_MU_GRID = np.linspace(0.005, 1.0, 200)


def binary_entropy(x: float) -> float:
    """Shannon entropy of a bit with bias ``x``, in bits."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("binary_entropy argument must be in [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


@dataclass(frozen=True)
class RateInputs:
    """Everything the tagged-fraction bound needs to know about one setup.

    ``multiphoton`` is the per-pulse probability of emitting two or more
    photons; for sub-Poissonian sources this is the saturated bound
    mu^2 g2(0) / 2.  ``q`` is the sifting factor (1/2 for symmetric basis
    choice) and ``f_ec`` the error-correction inefficiency.
    """

    mu: float
    multiphoton: float
    link: LinkSpec
    rep_rate_hz: float = 1e6
    f_ec: float = 1.22
    q: float = 0.5

    def __post_init__(self) -> None:
        for name in ("mu", "rep_rate_hz", "f_ec"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.mu < 0:
            raise ValueError("mu must be non-negative")
        if not 0 <= self.multiphoton <= 1:
            raise ValueError("multiphoton must be a probability")
        if self.rep_rate_hz <= 0:
            raise ValueError("rep_rate_hz must be positive")
        if self.f_ec < 1.0:
            raise ValueError("f_ec below 1 would beat the Shannon limit")
        if not 0 < self.q <= 1:
            raise ValueError("q must be in (0, 1]")

    @classmethod
    def from_source(
        cls,
        source: SourceSpec,
        link: LinkSpec,
        rep_rate_hz: float | None = None,
        f_ec: float = 1.22,
        q: float = 0.5,
    ) -> "RateInputs":
        return cls(
            mu=source.mu,
            multiphoton=multiphoton_probability(source),
            link=link,
            rep_rate_hz=source.rep_rate_hz if rep_rate_hz is None else rep_rate_hz,
            f_ec=f_ec,
            q=q,
        )

    def at_distance(self, distance_km: float) -> "RateInputs":
        return dataclasses.replace(self, link=self.link.at_distance(distance_km))

    def attenuated(self, factor: float) -> "RateInputs":
        """Insert loss ``factor`` at the source output.

        Each photon survives independently, so the mean scales linearly and
        the pair probability quadratically; g2(0) is loss-invariant.
        """
        if not 0 < factor <= 1:
            raise ValueError("attenuation factor must be in (0, 1]")
        return dataclasses.replace(
            self, mu=factor * self.mu, multiphoton=factor**2 * self.multiphoton
        )


def gllp_rate(inputs: RateInputs, e_mu: float | None = None) -> float:
    """Secure rate (bit/s) from the tagged-fraction bound, floored at zero.

    ``e_mu`` overrides the signal error rate; by default the link's intrinsic
    misalignment is used, i.e. dark-count errors are not folded in.  Pass
    ``error_rate_model(mu, link)`` to include them.
    """
    link = inputs.link
    p_click = click_probability(inputs.mu, link)
    if p_click <= 0.0:
        return 0.0
    e = link.misalignment if e_mu is None else e_mu
    delta = min(1.0, inputs.multiphoton / p_click)
    if delta >= 1.0:
        return 0.0
    e_phase = e / (1.0 - delta)
    if e_phase >= 1.0:
        return 0.0
    inner = -inputs.f_ec * binary_entropy(e) + (1.0 - delta) * (
        1.0 - binary_entropy(e_phase)
    )
    return max(0.0, inputs.q * inputs.rep_rate_hz * p_click * inner)


def critical_efficiency(g2_zero: float, dark_count_prob: float) -> float:
    """Detection efficiency at which multiphoton leakage matches dark noise.

    Below sqrt(2 p_dark / g2) the tagged fraction eats the whole key even at
    zero error rate; a background-free source (g2 = 0) has no threshold.
    """
    if dark_count_prob < 0:
        raise ValueError("dark_count_prob must be non-negative")
    if g2_zero < 0:
        raise ValueError("g2_zero must be non-negative")
    if g2_zero == 0.0:
        return math.inf
    return math.sqrt(2.0 * dark_count_prob / g2_zero)


class OptimalRate(NamedTuple):
    rate_bps: float
    mu: float


def wcp_rate(
    link: LinkSpec,
    rep_rate_hz: float = 1e6,
    f_ec: float = 1.22,
    q: float = 0.5,
) -> float:
    """Attenuated-laser rate with every multiphoton pulse tagged.

    The intensity is pinned at mu = eta_total, the near-optimal working point
    for this bound: brighter pulses are mostly tagged away, dimmer ones drown
    in dark counts.  The signal error rate includes the dark contribution, so
    the rate dies at the dark-count cutoff as the channel closes.
    """
    mu = link.total_efficiency
    if mu <= 0.0:
        return 0.0
    inputs = RateInputs(
        mu=mu,
        multiphoton=poissonian_multiphoton(mu),
        link=link,
        rep_rate_hz=rep_rate_hz,
        f_ec=f_ec,
        q=q,
    )
    return gllp_rate(inputs, e_mu=error_rate_model(mu, link))


def _decoy_rate_at(
    mu: float, link: LinkSpec, rep_rate_hz: float, f_ec: float, q: float
) -> float:
    eta = link.total_efficiency
    dark = link.dark_count_prob
    p_click = click_probability(mu, link)
    if p_click <= 0.0:
        return 0.0
    # asymptotic decoy analysis: the single-photon yield and error rate are
    # pinned exactly, so only true single-photon detections feed the key
    y1 = 1.0 - (1.0 - eta) * (1.0 - dark)
    if y1 <= 0.0:
        return 0.0
    q1 = mu * math.exp(-mu) * y1
    e1 = min(0.5, (link.misalignment * eta + 0.5 * dark) / y1)
    e_mu = error_rate_model(mu, link)
    inner = -p_click * f_ec * binary_entropy(e_mu) + q1 * (1.0 - binary_entropy(e1))
    return max(0.0, q * rep_rate_hz * inner)


def decoy_optimal_rate(
    link: LinkSpec,
    rep_rate_hz: float = 1e6,
    f_ec: float = 1.22,
    q: float = 0.5,
    mu_grid: np.ndarray | None = None,
) -> OptimalRate:
    """Best asymptotic decoy-state rate over the intensity grid."""
    grid = _MU_GRID if mu_grid is None else mu_grid
    best = OptimalRate(0.0, float(grid[0]))
    for mu in grid:
        rate = _decoy_rate_at(float(mu), link, rep_rate_hz, f_ec, q)
        if rate > best.rate_bps:
            best = OptimalRate(rate, float(mu))
    return best


@dataclass(frozen=True)
class RateVariant:
    """One curve in a rate-vs-distance comparison."""

    name: str
    mode: str  # "fixed" | "wcp" | "decoy"
    source: SourceSpec | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("fixed", "wcp", "decoy"):
            raise ValueError("mode must be one of fixed, wcp, decoy")
        if self.mode == "fixed" and self.source is None:
            raise ValueError("fixed variants need a source")


def default_variants() -> tuple[RateVariant, ...]:
    from .sources import PRESETS

    return (
        RateVariant("nv", "fixed", PRESETS["nv"]),
        RateVariant("siv", "fixed", PRESETS["siv"]),
        RateVariant("ideal10", "fixed", PRESETS["ideal10"]),
        RateVariant("ideal95", "fixed", PRESETS["ideal95"]),
        RateVariant("wcp", "wcp"),
        RateVariant("decoy", "decoy"),
    )


def sweep_variants(
    variants: tuple[RateVariant, ...],
    distances: np.ndarray,
    link: LinkSpec,
    rep_rate_hz: float = 1e6,
    f_ec: float = 1.22,
    q: float = 0.5,
    flat_error: bool = False,
) -> dict[str, np.ndarray]:
    """Rate-vs-distance curves for each variant at a common clock.

    A single repetition rate is applied to every variant so the comparison
    isolates photon statistics from engineering clock speed.  By default the
    signal error rate includes the dark-count contribution at each distance;
    ``flat_error`` pins it at the link misalignment instead.
    """
    curves = {v.name: np.zeros(len(distances)) for v in variants}
    for i, d in enumerate(distances):
        link_d = link.at_distance(float(d))
        for v in variants:
            if v.mode == "wcp":
                curves[v.name][i] = wcp_rate(link_d, rep_rate_hz, f_ec, q)
            elif v.mode == "decoy":
                curves[v.name][i] = decoy_optimal_rate(link_d, rep_rate_hz, f_ec, q).rate_bps
            else:
                inputs = RateInputs.from_source(
                    v.source, link_d, rep_rate_hz=rep_rate_hz, f_ec=f_ec, q=q
                )
                e_mu = None if flat_error else error_rate_model(v.source.mu, link_d)
                curves[v.name][i] = gllp_rate(inputs, e_mu=e_mu)
    return curves


def crossover_distance(
    distances: np.ndarray, rates_a: np.ndarray, rates_b: np.ndarray
) -> float:
    """First grid distance where curve a reaches curve b while alive, else nan."""
    ahead = (rates_a >= rates_b) & (rates_a > 0)
    idx = np.flatnonzero(ahead)
    if idx.size == 0:
        return math.nan
    return float(distances[idx[0]])


def cutoff_distance(
    inputs: RateInputs,
    max_km: float = 500.0,
    tol_km: float = 1e-3,
    e_mu_fn: Callable[[float, LinkSpec], float] | None = None,
) -> float:
    """Largest distance with a positive rate, by bisection up to ``max_km``.

    ``e_mu_fn(mu, link)`` supplies a distance-dependent error rate when the
    flat-misalignment default is not wanted.
    """

    def rate_at(d: float) -> float:
        at_d = inputs.at_distance(d)
        e = None if e_mu_fn is None else e_mu_fn(at_d.mu, at_d.link)
        return gllp_rate(at_d, e_mu=e)

    if rate_at(0.0) <= 0.0:
        return 0.0
    if rate_at(max_km) > 0.0:
        return max_km
    lo, hi = 0.0, max_km
    while hi - lo > tol_km:
        mid = 0.5 * (lo + hi)
        if rate_at(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def format_rate_csv(
    distances: np.ndarray,
    curves: dict[str, np.ndarray],
    metadata: dict[str, str] | None = None,
) -> str:
    """Comment-headed CSV: `# key=value` lines, then one column per curve."""
    lines = []
    for key, value in (metadata or {}).items():
        lines.append(f"# {key}={value}")
    names = list(curves)
    lines.append(",".join(["distance_km"] + names))
    for i, d in enumerate(distances):
        row = [f"{float(d):.6g}"] + [f"{curves[n][i]:.6g}" for n in names]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
