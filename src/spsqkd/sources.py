"""Photon-number statistics and emission timing for pulsed light sources.

Three families are supported: sub-Poissonian emitters characterised by a
measured second-order correlation g2(0) < 1, attenuated-laser (Poissonian)
sources, and Poissonian sources driven at several intensity levels for
decoy-state operation.

Sampling is event-driven.  Faint sources leave most pulses empty, so
``sample_events`` draws only the pulses whose outcome is not the null one:
the gaps between them are geometric, and each one's outcome comes from the
table conditioned on being non-null.  Its cost and memory grow with the
events drawn, not with the pulse count.  Loss and dark clicks go into the
table too, so a run draws only the pulses that click.  A gap at event
probability p is ceil(E / -log1p(-p)) with E from numpy's
``standard_exponential``; below p = 1/3 these are the numbers
``Generator.geometric`` gives, which draws them this way one at a time.
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
    "PhotonEvents",
    "thinned_distribution",
    "sample_events",
    "sample_photon_numbers",
    "multiphoton_probability",
    "subpoissonian_multiphoton",
    "poissonian_multiphoton",
]

# Poisson tables are extended until the missing tail is below this, which keeps
# both the normalisation and the mean identity good to well under 1e-12.
_POISSON_TAIL = 1e-15
_POISSON_MAX_TERMS = 512

# most geometric gaps drawn at once
_MAX_BATCH = 1 << 20


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
        if not math.isfinite(self.rep_period_ns):
            raise ValueError(
                f"rep_rate_hz = {self.rep_rate_hz:g} gives an infinite repetition period"
            )
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
        p2 = subpoissonian_multiphoton(spec.mu, spec.g2_zero)
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


def thinned_distribution(probs: np.ndarray, efficiency: float) -> np.ndarray:
    """q_k = sum_n p_n C(n, k) eta^k (1 - eta)^(n - k), eta = ``efficiency``.

    The binomial rows follow Pascal's rule, B_n = (1 - eta) [B_(n-1), 0] +
    eta [0, B_(n-1)], so every term stays a probability up to 512 terms.
    """
    probs = np.asarray(probs, dtype=np.float64)
    row = np.zeros(probs.size)  # row[k]: k of n photons survive
    row[0] = 1.0
    thinned = probs[0] * row
    for n in range(1, probs.size):
        row[1 : n + 1] = (1.0 - efficiency) * row[1 : n + 1] + efficiency * row[:n]
        row[0] *= 1.0 - efficiency
        thinned += probs[n] * row
    return thinned


def sample_events(
    probs: np.ndarray, n_pulses: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Pulses out of ``n_pulses`` whose outcome class is not 0.

    ``probs[c]`` is the probability of class ``c`` for every pulse, pulses
    being independent.  Returns the ascending pulse indices (int64) and each
    one's class in 1..len(probs)-1, never one of probability 0, in the
    smallest unsigned type that holds len(probs).  The gaps between event
    pulses are geometric at p = sum(probs[1:]), drawn in batches until they
    pass the last pulse; the classes then come from the table conditioned
    on class > 0.  Below p = 1/3 the gaps are the numbers
    ``rng.geometric(p)`` would give; from there up the law is the same but
    the stream is not.

    Each batch's gaps are summed in place in one index array reserved for
    the expected count and 6 sigmas more, grown by an eighth if a run draws
    past that, and a batch ends the run at the ``np.searchsorted`` of
    ``n_pulses`` in its sums.  Where those int64 sums could wrap, which
    takes a run of 2^43 pulses or more, the batch is summed as uint64 steps
    from the latest event instead, exact up to the first past the end.  The
    class uniforms are drawn a batch at a time once every gap is drawn, so
    memory peaks near the index array and one batch, and the draws are those
    of one ``rng.random`` over the run.
    """
    if n_pulses < 0:
        raise ValueError("n_pulses must be non-negative")
    if n_pulses >= 2**63:
        raise ValueError("n_pulses must be below 2^63, the range of an int64 pulse index")
    probs = np.asarray(probs, dtype=np.float64)
    class_type = np.min_scalar_type(probs.size)
    p = min(1.0, float(probs[1:].sum()))
    if n_pulses == 0 or p <= 0.0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=class_type)
    expected = n_pulses * p
    reserve = int(expected + 6.0 * math.sqrt(expected) + 16.0)
    batch = min(reserve, _MAX_BATCH)
    # numpy's geometric below p = 1/3, vectorized: ceil(E / -log1p(-p)), with
    # E its ziggurat exponential, in a true division as numpy does it
    scale = -math.log1p(-p) if p < 1.0 else math.inf
    index = np.empty(reserve, dtype=np.int64)
    filled = 0
    last = -1  # index of the latest event drawn
    while True:
        gaps = rng.standard_exponential(batch)
        gaps /= scale
        np.ceil(gaps, out=gaps)
        # at least 1, also for p = 1 and an exponential of exactly 0; a gap
        # reaching past the last pulse ends the run, so clipping it there
        # changes nothing and bounds the batch's sums by last + batch * bound.
        # Past 2^53 pulses the float can round n_pulses - last down; it is
        # raised an ulp then, so a clipped gap still reaches the end
        bound = float(n_pulses - last)
        if bound < n_pulses - last:
            bound = math.nextafter(bound, math.inf)
        np.clip(gaps, 1.0, bound, out=gaps)
        fits = filled + batch <= index.size
        if last + batch * int(bound) < 2**63:
            # no sum wraps in int64, so they ascend and one search finds the
            # first past the end.  They are summed where they are kept if the
            # batch fits, else in its own buffer, cast in place (a forward
            # one-dimensional copy)
            sums = index[filled:filled + batch] if fits else gaps.view(np.int64)
            np.copyto(sums, gaps, casting="unsafe")
            sums[0] += last  # carried through the sums
            np.cumsum(sums, out=sums)
            kept = int(np.searchsorted(sums, n_pulses))
        else:
            # the steps from the latest event, summed in uint64, are exact up
            # to the first past the end, which is below 2 * 2^63
            steps = gaps.astype(np.uint64)
            np.cumsum(steps, out=steps)
            past = steps >= n_pulses - last
            kept = int(np.argmax(past)) if past.any() else batch
            sums = steps[:kept].view(np.int64)  # below n_pulses - last
            sums += last
            del steps, past
            fits = False
        if not fits:
            if filled + kept > index.size:
                grown = np.empty((filled + kept) * 9 // 8, dtype=np.int64)
                grown[:filled] = index[:filled]
                index = grown
                del grown
            index[filled:filled + kept] = sums[:kept]
        del gaps, sums
        filled += kept
        if kept < batch:
            break
        last = int(index[filled - 1])
    index = index[:filled]
    # every event starts in the likeliest class; only the u outside its
    # interval [cdf[top - 1], cdf[top]) are searched, for the same class
    # searchsorted gives: the first with cdf > u
    cdf = np.cumsum(probs[1:])
    top = int(np.argmax(probs[1:]))
    classes = np.full(index.size, top + 1, dtype=class_type)
    for start in range(0, index.size, _MAX_BATCH):
        u = rng.random(min(_MAX_BATCH, index.size - start))
        u *= cdf[-1]  # below cdf[-1], so past every class of nonzero probability
        off = u >= cdf[top]
        if top:
            off |= u < cdf[top - 1]
        off = np.flatnonzero(off)
        classes[off + start] = np.searchsorted(cdf, u[off], side="right") + 1
    return index, classes


@dataclass(frozen=True)
class PhotonEvents:
    """The clicking pulses of a run: ascending index, arrived photons, darks.

    ``dark`` has bit 0 set for a dark click in detector 0, bit 1 for one in
    detector 1.  ``pulse_index`` is int64; ``photons`` and ``dark`` are the
    smallest unsigned type that holds the class count (uint8 for every
    preset).  As an array it is its photon counts, so ``np.count_nonzero``
    of it is the number of pulses with an arrived photon.
    """

    pulse_index: np.ndarray
    photons: np.ndarray
    dark: np.ndarray

    def __array__(self, dtype=None, copy=None):
        return np.array(self.photons, dtype=dtype, copy=copy)


def _click_table(spec: SourceSpec, efficiency: float, dark_count_prob: float) -> np.ndarray:
    """P(k photons arrive, dark pattern d) of one pulse, indexed [k, d]."""
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError("efficiency must be in [0, 1]")
    if not 0.0 <= dark_count_prob < 1.0:
        raise ValueError("dark_count_prob must be in [0, 1)")
    h = dark_count_prob / 2.0
    dark = np.array([(1.0 - h) ** 2, h * (1.0 - h), h * (1.0 - h), h * h])
    return np.outer(thinned_distribution(photon_number_distribution(spec), efficiency), dark)


def sample_photon_numbers(
    spec: SourceSpec,
    n_pulses: int,
    rng: np.random.Generator,
    efficiency: float = 1.0,
    dark_count_prob: float = 0.0,
) -> PhotonEvents:
    """The pulses among ``n_pulses`` with a photon arrived or a dark click.

    One ``sample_events`` call over the classes (k photons arrived after
    loss at ``efficiency``, dark pattern d of two detectors that each fire
    at ``dark_count_prob / 2``).  The defaults give the emitted photons of
    every non-vacuum pulse; decoy mixtures use the mixed table.
    """
    # class 4 k + d, so class 0 is the pulse where nothing happens
    table = _click_table(spec, efficiency, dark_count_prob).ravel()
    index, classes = sample_events(table, n_pulses, rng)
    dark_bits = (classes & 3).astype(np.uint8, copy=False)
    classes >>= 2
    return PhotonEvents(index, classes, dark_bits)


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
