"""Closed-form secure key rate estimates.

The workhorse is the tagged-fraction bound for BB84 with an imperfect
source: multiphoton pulses are assumed fully tagged, privacy amplification
runs only on the untagged remainder, and error correction is charged at a
fixed inefficiency above the Shannon limit,

    R = q * rep * p_click * [ -f h2(E) + (1 - delta) (1 - h2(E / (1 - delta))) ]

with delta the multiphoton fraction of detected pulses.  The sifting factor
q is fixed at 1/2, since both parties pick each basis with probability 1/2.
The attenuated-laser rivals in ``RIVALS`` come in two flavours: ``"wcp"``
applies the same bound to Poissonian statistics (all multiphoton pulses
tagged), and ``"decoy"`` is the asymptotic decoy-state bound where the
single-photon yield is known exactly.

Each formula is evaluated as a numpy array over the link efficiencies of a
whole distance sweep, with the click probability and signal error rate from
``channel``.  The decoy optimum searches (intensity x efficiency) tiles and
evaluates only the intensities a bound cannot rule out: the rate is a
concave single-photon gain less a concave error-correction cost, so between
two evaluated intensities it lies under the gain's end tangents less the
cost's chord (``_decoy_optimum`` gives the proof and its rounding slack).
The scalar entry points are one-point calls into the same kernels.  The
module only computes; its callers write the curves.

Two formulas keep a scalar twin, because merging either would change
output bytes: numpy's exp and log2 can differ from math's in the last bit.
On an x86-64 Xeon with numpy 2.4, exp differed for 9,581 of 200,005
uniform draws in (-1, 0], and log2 for 390 of 200,005 in (0, 1).  The
Poisson multiphoton probability is inlined in ``_wcp_rate`` in numpy,
while ``sources.poissonian_multiphoton`` uses math; and ``_entropy`` is the
array form of ``binary_entropy``, from which key lengths are floored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import LinkSpec, click_probability, error_rate_model, fibre_transmission
from .sources import SourceSpec, multiphoton_probability

__all__ = [
    "binary_entropy",
    "RateInputs",
    "gllp_rate",
    "critical_efficiency",
    "OptimalRate",
    "wcp_rate",
    "decoy_optimal_rate",
    "RIVALS",
    "distance_grid",
    "sweep_variants",
    "crossover_distance",
]

# sifting factor: symmetric basis choice keeps half of the clicks
_Q = 0.5

# Intensity search grid for attenuated-laser optimisation: 0.005 steps, and
# the endpoint lands exactly on mu = 1.
_MU_GRID = np.linspace(0.005, 1.0, 200)
# each grid intensity's single-photon weight mu e^-mu, taken with math.exp
_MU_WEIGHT = np.array([mu * math.exp(-mu) for mu in map(float, _MU_GRID)])[:, None]

# elements of a decoy search tile: the knot intensities (or as many other
# rows) x 780 efficiencies
_TILE = 1 << 14

# the decoy search's knots, every 10th intensity and the last; each interior
# row, ascending, and the segment between two knots it lies in
_KNOT_STEP = 10
_KNOTS = np.r_[0 : _MU_GRID.size : _KNOT_STEP, _MU_GRID.size - 1]
_KNOT_MU, _KNOT_WEIGHT = _MU_GRID[_KNOTS, None], _MU_WEIGHT[_KNOTS]
_INTERIOR = np.delete(np.arange(_MU_GRID.size), _KNOTS)
_INTERIOR_SEGMENT = _INTERIOR // _KNOT_STEP


def _tangent_crossings() -> tuple[np.ndarray, np.ndarray]:
    """Per segment, the height where mu e^-mu's two end tangents cross, and
    how far along the segment they cross, as columns."""
    a, b = _MU_GRID[_KNOTS[:-1]], _MU_GRID[_KNOTS[1:]]
    wa, wb = _KNOT_WEIGHT[:-1, 0], _KNOT_WEIGHT[1:, 0]
    da, db = np.exp(-a) * (1.0 - a), np.exp(-b) * (1.0 - b)
    cross = (wb - wa + da * a - db * b) / (da - db)
    return (wa + da * (cross - a))[:, None], ((cross - a) / (b - a))[:, None]


_SEGMENT_W, _SEGMENT_T = _tangent_crossings()

# the laser curves a sweep can set against its sources, as the module docstring names them
RIVALS = ("wcp", "decoy")

# most distance points one rate sweep may hold; a finer grid is a mistyped
# step, not a measurement
_MAX_POINTS = 1 << 20


def binary_entropy(x: float) -> float:
    """Shannon entropy of a bit with bias ``x``, in bits."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("binary_entropy argument must be in [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def _entropy(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``binary_entropy`` over an array, read as 0 outside (0, 1), into ``out`` if given.

    numpy's log2 can differ from math.log2 in the last bit, so the scalar,
    which key lengths are floored from, stays its own function.
    """
    x = np.asarray(x)
    h = np.subtract(1.0, x, out=np.empty(x.shape) if out is None else out)
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = np.log2(h)
        rest *= h  # (1 - x) log2(1 - x)
        h = np.multiply(np.log2(x, out=h), x, out=h)
        h += rest
    np.negative(h, out=h)
    np.copyto(h, 0.0, where=~((x > 0.0) & (x < 1.0)))
    return h


def _positive(x: np.ndarray) -> np.ndarray:
    """``max(0.0, x)`` elementwise, in place on an array the caller owns."""
    np.copyto(x, 0.0, where=~(x > 0.0))
    return x


def _check_clock(rep_rate_hz: float, f_ec: float) -> None:
    """Refuse a clock or error-correction inefficiency out of range."""
    for name, value in (("rep_rate_hz", rep_rate_hz), ("f_ec", f_ec)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if rep_rate_hz <= 0:
        raise ValueError("rep_rate_hz must be positive")
    if f_ec < 1.0:
        raise ValueError("f_ec below 1 would beat the Shannon limit")


@dataclass(frozen=True)
class RateInputs:
    """Everything the tagged-fraction bound needs to know about one setup.

    ``multiphoton`` is the per-pulse probability of emitting two or more
    photons; for sub-Poissonian sources this is the saturated bound
    mu^2 g2(0) / 2.  ``f_ec`` is the error-correction inefficiency.  The
    clock and ``f_ec`` defaults here are those of every rate function.
    """

    mu: float
    multiphoton: float
    link: LinkSpec
    rep_rate_hz: float = 1e6
    f_ec: float = 1.22

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if self.mu < 0:
            raise ValueError("mu must be non-negative")
        if not 0 <= self.multiphoton <= 1:
            raise ValueError("multiphoton must be a probability")
        _check_clock(self.rep_rate_hz, self.f_ec)

    @classmethod
    def from_source(
        cls,
        source: SourceSpec,
        link: LinkSpec,
        rep_rate_hz: float | None = None,
    ) -> "RateInputs":
        return cls(
            mu=source.mu,
            multiphoton=multiphoton_probability(source),
            link=link,
            rep_rate_hz=source.rep_rate_hz if rep_rate_hz is None else rep_rate_hz,
        )


def _tagged_rate(p_click, multiphoton, e, rep_rate_hz: float, f_ec: float):
    """Tagged-fraction bound, elementwise over aligned arrays or scalars."""
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.minimum(1.0, np.divide(multiphoton, p_click))
        e_phase = e / (1.0 - delta)
    inner = -f_ec * _entropy(e) + (1.0 - delta) * (1.0 - _entropy(e_phase))
    alive = (p_click > 0.0) & (delta < 1.0) & (e_phase < 1.0)
    with np.errstate(over="ignore"):  # a huge f_ec reads -inf, which _positive floors to 0
        return np.where(alive, _positive(np.asarray(_Q * rep_rate_hz * p_click * inner)), 0.0)


def _wcp_rate(eta, link: LinkSpec, rep_rate_hz: float, f_ec: float):
    """Attenuated laser at mu = eta with every multiphoton pulse tagged."""
    mu = eta
    multiphoton = -np.expm1(-mu) - mu * np.exp(-mu)  # poissonian_multiphoton
    p_click = click_probability(mu, link, eta)
    e_mu = error_rate_model(mu, link, eta)
    return _tagged_rate(p_click, multiphoton, e_mu, rep_rate_hz, f_ec)


def _decoy_optimum(
    eta: np.ndarray, link: LinkSpec, rep_rate_hz: float, f_ec: float
) -> tuple[np.ndarray, np.ndarray]:
    """Best decoy-state rate over ``_MU_GRID`` at each efficiency, and its intensity.

    The intensity is the first grid value reaching the maximum, and
    ``_MU_GRID[0]`` where every rate is 0.  The search runs over tiles of at
    most ``_TILE`` (intensity x efficiency) elements, and evaluates only the
    intensities a bound cannot rule out.  Each rate it evaluates is computed
    in place, with the operands of the one-point formula in its order, so it
    is the same to the bit.

    The bound.  Before the clock's ``Q rep``, the rate is ``A W - f phi``,
    with ``A = y1 (1 - h2(e1))``, ``W = mu e^-mu`` and ``phi = p h2(e)``.
    W is concave on the grid, since ``W'' = e^-mu (mu - 2)``.  phi is concave
    too.  It is the perspective ``p hc(x / p)`` of the capped entropy
    ``hc(t) = h2(min(t, 1/2))``, taken at ``x = mis mu eta + dark / 2`` and
    ``p = min(mu eta + dark, 1)``.  That perspective is jointly concave, and
    it does not fall as p grows, since ``hc(t) - t hc'(t) >= hc(0) = 0``.
    x is affine in mu and p concave, so phi is concave.  So between two
    knots a < b, W lies under both of its end tangents, and phi lies over its
    chord.  The rate there is at most the greater of its two knot values and
    ``A W* - f chord(mu*)``, where mu* is the point where W's tangents cross
    and W* is their height there (``_segment_bounds``).

    The skip.  The knots are every 10th intensity and the last.  A segment's
    interior is skipped only if its bound, raised by a rounding slack, then
    scaled by ``Q rep``, is finite and strictly below the best knot rate in
    every column of the tile.  The slack is 2^-40 of the largest term,
    ``A e^-1 + f min(eta + dark, 1)``, plus the smallest normal float; the
    rates and the bound round by a few dozen ulps of that term, or a few
    subnormal steps.  So each skipped rate is at most the bound before the
    scaling, and rounding is monotone, so after it too: every skipped rate
    is below the maximum.  The first row reaching the maximum is then among
    the rows evaluated: the knots, then the open interiors, as whole rows in
    chunks of the tile.  Memory is the two curves and a tile.
    """
    # asymptotic decoy analysis: the single-photon yield and error rate are
    # pinned exactly, so only true single-photon detections feed the key
    dark, mis = link.dark_count_prob, link.misalignment
    scale = _Q * rep_rate_hz
    best_rate, best_mu = np.empty(eta.shape), np.empty(eta.shape)
    width = _TILE // _KNOTS.size
    depth = _TILE // width
    buffers = np.empty((3, _TILE))

    def row_rates(mu, weight, eta_c, y1, secure1):
        """The rates of intensities ``mu`` (a column) over ``eta_c`` before
        the clock's scale and the floor at 0, and their p h2(e)."""
        p, e, h = (b[: mu.size * eta_c.size].reshape(mu.size, -1) for b in buffers)
        # channel.click_probability, then channel.error_rate_model over it
        np.minimum(np.add(np.multiply(mu, eta_c, out=p), dark, out=p), 1.0, out=p)
        np.add(np.multiply(mis * mu, eta_c, out=e), 0.5 * dark, out=e)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.fmin(np.divide(e, p, out=e), 0.5, out=e)
        phi = np.multiply(p, _entropy(e, out=h), out=e)
        # (-p f) h2(e) + q1 (1 - h2(e1)), as p (-f) is (-p) f to the bit; a
        # link that cannot click has q1 = 0, so its rate floors at 0
        p *= -f_ec
        p *= h
        q1 = np.multiply(weight, y1, out=h)
        q1 *= secure1
        p += q1
        return p, phi

    def scaled(x):
        with np.errstate(over="ignore"):  # -inf, floored to 0 as in _tagged_rate
            return np.multiply(x, scale, out=x)

    for c in range(0, eta.size, width):
        eta_c = eta[c : c + width]
        cols = np.arange(eta_c.size)
        y1 = 1.0 - (1.0 - eta_c) * (1.0 - dark)
        with np.errstate(divide="ignore", invalid="ignore"):
            e1 = np.minimum(0.5, (mis * eta_c + 0.5 * dark) / y1)
        secure1 = 1.0 - _entropy(e1)
        knots, phi = row_rates(_KNOT_MU, _KNOT_WEIGHT, eta_c, y1, secure1)
        bound = scaled(_segment_bounds(knots, phi, y1 * secure1, eta_c + dark, f_ec))
        top = _positive(scaled(knots)).argmax(axis=0)
        best, row = knots[top, cols], _KNOTS[top]
        shut = np.isfinite(bound) & (bound < best)
        rows = _INTERIOR[~shut.all(axis=1)[_INTERIOR_SEGMENT]]
        for r in range(0, rows.size, depth):
            chunk = rows[r : r + depth]
            rate, _ = row_rates(_MU_GRID[chunk, None], _MU_WEIGHT[chunk], eta_c, y1, secure1)
            rate = _positive(scaled(rate))
            top = rate.argmax(axis=0)
            rival, rival_row = rate[top, cols], chunk[top]
            # the first row on a tie, as over all the rows evaluated, ascending
            take = (rival > best) | ((rival == best) & (rival_row < row))
            best, row = np.where(take, rival, best), np.where(take, rival_row, row)
        best_rate[c : c + width] = best
        best_mu[c : c + width] = _MU_GRID[row]
    return best_rate, best_mu


def _segment_bounds(knots, phi, a, reach, f_ec: float) -> np.ndarray:
    """Bound on each segment's rates before the clock's scale, per column,
    with the rounding slack added, written over ``phi``'s rows but the last.

    ``knots`` holds the knot rates before the scale, ``phi`` their
    ``p h2(e)``, ``a`` each column's ``y1 (1 - h2(e1))`` and ``reach`` its
    ``eta + dark``, which bounds p.  On a segment the rate is at most the
    greater of its end values and ``a W* - f chord(mu*)``; the slack is
    ``2^-40 (a e^-1 + f min(reach, 1))`` and the smallest normal float.  See
    ``_decoy_optimum`` for the proof.
    """
    bound, step = phi[:-1], np.subtract(phi[1:], phi[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        step *= _SEGMENT_T
        bound += step
        bound *= -f_ec
        bound += np.multiply(_SEGMENT_W, a, out=step)
        np.maximum(bound, knots[1:], out=bound)
        np.maximum(bound, knots[:-1], out=bound)
        slack = a * math.exp(-1.0)
        slack += f_ec * np.minimum(reach, 1.0)
        slack *= 2.0**-40
        slack += 2.0**-1022
        bound += slack
    return bound


def gllp_rate(inputs: RateInputs, e_mu: float | None = None) -> float:
    """Secure rate (bit/s) from the tagged-fraction bound, floored at zero.

    ``e_mu`` overrides the signal error rate; by default the link's intrinsic
    misalignment is used, i.e. dark-count errors are not folded in.  Pass
    ``error_rate_model(mu, link)`` to include them.
    """
    link = inputs.link
    e = link.misalignment if e_mu is None else e_mu
    if not e >= 0.0:
        raise ValueError(f"e_mu must be a non-negative error rate, got {e}")
    p_click = click_probability(inputs.mu, link)
    return float(
        _tagged_rate(p_click, inputs.multiphoton, e, inputs.rep_rate_hz, inputs.f_ec)
    )


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
    rep_rate_hz: float = RateInputs.rep_rate_hz,
    f_ec: float = RateInputs.f_ec,
) -> float:
    """Attenuated-laser rate with every multiphoton pulse tagged.

    The intensity is pinned at mu = eta_total, the near-optimal working point
    for this bound: brighter pulses are mostly tagged away, dimmer ones drown
    in dark counts.  The signal error rate includes the dark contribution, so
    the rate dies at the dark-count cutoff as the channel closes.
    """
    _check_clock(rep_rate_hz, f_ec)
    return float(_wcp_rate(link.total_efficiency, link, rep_rate_hz, f_ec))


def decoy_optimal_rate(
    link: LinkSpec,
    rep_rate_hz: float = RateInputs.rep_rate_hz,
    f_ec: float = RateInputs.f_ec,
) -> OptimalRate:
    """Best asymptotic decoy-state rate over the intensity grid."""
    _check_clock(rep_rate_hz, f_ec)
    eta = np.array([link.total_efficiency])
    rate, mu = _decoy_optimum(eta, link, rep_rate_hz, f_ec)
    return OptimalRate(float(rate[0]), float(mu[0]))


def distance_grid(dmax_km: float, step_km: float) -> np.ndarray:
    """Sweep distances 0, step, 2 step, ... up to ``dmax_km``, its end included.

    Refuses a step that is not positive and finite, an end that is negative
    or not finite, and a grid of more than ``_MAX_POINTS`` points.
    """
    if not (math.isfinite(step_km) and step_km > 0):
        raise ValueError(f"step must be positive and finite, got {step_km}")
    if not (math.isfinite(dmax_km) and dmax_km >= 0):
        raise ValueError(f"dmax must be non-negative and finite, got {dmax_km}")
    if dmax_km / step_km + 1 > _MAX_POINTS:
        raise ValueError(
            f"step = {step_km:g} over dmax = {dmax_km:g} needs "
            f"{dmax_km / step_km + 1:.3g} points, over {_MAX_POINTS}"
        )
    return np.arange(0.0, dmax_km + step_km / 2, step_km)


def sweep_variants(
    sources: dict[str, SourceSpec],
    rivals: tuple[str, ...],
    distances: np.ndarray,
    link: LinkSpec,
    rep_rate_hz: float = RateInputs.rep_rate_hz,
    f_ec: float = RateInputs.f_ec,
    flat_error: bool = False,
) -> dict[str, np.ndarray]:
    """Rate-vs-distance curves for each named source, then each rival in ``RIVALS``.

    A single repetition rate is applied to every curve so the comparison
    isolates photon statistics from engineering clock speed.  By default the
    signal error rate includes the dark-count contribution at each distance;
    ``flat_error`` pins it at the link misalignment instead.  ``link`` supplies
    everything but the distance, and each curve is one array evaluation over
    the efficiencies of all ``distances``.  Curves come back by name, sources
    first, then rivals as asked; an unknown, repeated or source-named rival is refused.
    """
    for i, name in enumerate(rivals):
        if name not in RIVALS:
            raise ValueError(f"unknown rival {name!r}; available: {', '.join(RIVALS)}")
        if name in rivals[:i]:
            raise ValueError(f"rival {name!r} asked for twice")
        if name in sources:
            raise ValueError(f"curve {name!r} is both a source and a rival")
    _check_clock(rep_rate_hz, f_ec)
    distances = np.asarray(distances, dtype=np.float64)
    if not np.all(np.isfinite(distances) & (distances >= 0.0)):
        raise ValueError("distances must be finite and non-negative")
    eta = link.setup_efficiency * fibre_transmission(distances, link.attenuation_db_per_km)
    curves = {}
    for name, source in sources.items():
        p_click = click_probability(source.mu, link, eta)
        e = link.misalignment if flat_error else error_rate_model(source.mu, link, eta)
        curves[name] = _tagged_rate(
            p_click, multiphoton_probability(source), e, rep_rate_hz, f_ec
        )
    for name in rivals:
        if name == "wcp":
            curves[name] = _wcp_rate(eta, link, rep_rate_hz, f_ec)
        else:
            curves[name] = _decoy_optimum(eta, link, rep_rate_hz, f_ec)[0]
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
