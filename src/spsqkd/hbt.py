"""Hanbury Brown-Twiss simulation and g2/lifetime estimation.

A pulsed source feeds a 50/50 splitter with two ideal timing detectors.
Photon emission times are the excitation clock plus an exponential delay,
so the cross-correlation histogram shows pulse-spaced peaks; for a genuine
single-photon stream the tau = 0 peak is missing.  g2(0) is estimated as
the center-peak area over the mean side-peak area, and the excited-state
lifetime by a log-linear fit to the decaying flank of the phase histogram.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .sources import SourceSpec, sample_photon_numbers

__all__ = [
    "InsufficientDataError",
    "TimeTagStream",
    "CorrelationHistogram",
    "LifetimeFit",
    "simulate_hbt",
    "correlation_histogram",
    "g2_at_zero",
    "fit_lifetime",
]

# pulses simulated per vectorized block; fixed so a seed gives the same
# stream no matter how the total pulse count is reached
_CHUNK_PULSES = 1 << 22

# histogram bins below this fraction of the peak end the lifetime fit region
_FIT_FLOOR_COUNTS = 5

# most bins one histogram may hold (32 MiB of counts); a finer binning is a
# mistyped width, not a measurement
_MAX_BINS = 1 << 22

# one raw tag record: u64 LE picoseconds, u8 detector, packed to 9 bytes
_TAG_RECORD = np.dtype([("t", "<u8"), ("d", "u1")])


class InsufficientDataError(RuntimeError):
    """Raised when a stream holds too little data for the requested estimate."""


@dataclass(frozen=True)
class TimeTagStream:
    """Detector click times (ns) with detector ids, sorted ascending."""

    times_ns: np.ndarray
    detectors: np.ndarray
    duration_ns: float
    rep_period_ns: float

    def __post_init__(self) -> None:
        if self.times_ns.shape != self.detectors.shape:
            raise ValueError("times and detectors must align")
        if self.duration_ns <= 0 or self.rep_period_ns <= 0:
            raise ValueError("duration_ns and rep_period_ns must be positive")
        if self.times_ns.size:
            if np.any(np.diff(self.times_ns) < 0):
                raise ValueError("tags must be sorted by time")
            if self.times_ns[0] < 0 or self.times_ns[-1] >= self.duration_ns:
                raise ValueError("tags must lie within [0, duration_ns)")
        if self.detectors.size and self.detectors.max() > 1:
            raise ValueError("detector ids must be 0 or 1")

    def __len__(self) -> int:
        return int(self.times_ns.size)

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        buf.write(f"# duration_ns={self.duration_ns:.3f}\n")
        buf.write(f"# rep_period_ns={self.rep_period_ns:.6f}\n")
        buf.write("time_ns,detector\n")
        for t, d in zip(self.times_ns, self.detectors):
            buf.write(f"{t:.3f},{d}\n")
        return buf.getvalue()

    @classmethod
    def from_csv_text(cls, text: str) -> "TimeTagStream":
        meta = {}
        times, dets = [], []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value.strip()
                continue
            if line.startswith("time_ns"):
                continue
            t, _, d = line.partition(",")
            times.append(float(t))
            dets.append(int(d))
        return cls(
            times_ns=np.asarray(times, dtype=np.float64),
            detectors=np.asarray(dets, dtype=np.uint8),
            duration_ns=float(meta["duration_ns"]),
            rep_period_ns=float(meta["rep_period_ns"]),
        )

    def to_bytes(self) -> bytes:
        """Raw record stream: u64 LE picoseconds, u8 detector, per tag."""
        records = np.empty(len(self), dtype=_TAG_RECORD)
        records["t"] = np.round(self.times_ns * 1000.0).astype(np.uint64)
        records["d"] = self.detectors
        return records.tobytes()

    @classmethod
    def from_bytes(
        cls, data: bytes, duration_ns: float, rep_period_ns: float
    ) -> "TimeTagStream":
        if len(data) % _TAG_RECORD.itemsize:
            raise ValueError("tag record stream length must be a multiple of 9")
        records = np.frombuffer(data, dtype=_TAG_RECORD)
        times = records["t"] / 1000.0
        return cls(times, records["d"].astype(np.uint8), duration_ns, rep_period_ns)


def simulate_hbt(
    source: SourceSpec,
    n_pulses: int,
    rng: np.random.Generator,
    splitter_ratio: float = 0.5,
    detection_eff: float = 1.0,
) -> TimeTagStream:
    """Time tags from ``n_pulses`` excitation gates into the splitter.

    Per pulse: photon count from the source statistics, one exponential
    emission delay per photon, Bernoulli detection at ``detection_eff``,
    routing to detector 0 with ``splitter_ratio``.  Random draws happen in
    that order per fixed-size pulse block, so a seed pins the stream.
    """
    if n_pulses < 1:
        raise ValueError("n_pulses must be at least 1")
    if not 0.0 <= splitter_ratio <= 1.0:
        raise ValueError("splitter_ratio must be in [0, 1]")
    if not 0.0 <= detection_eff <= 1.0:
        raise ValueError("detection_eff must be in [0, 1]")

    period = source.rep_period_ns
    duration = n_pulses * period
    times_parts: list[np.ndarray] = []
    det_parts: list[np.ndarray] = []
    for start in range(0, n_pulses, _CHUNK_PULSES):
        m = min(_CHUNK_PULSES, n_pulses - start)
        counts = sample_photon_numbers(source, m, rng)
        pulse_idx = np.repeat(np.arange(start, start + m), counts)
        if pulse_idx.size == 0:
            continue
        k = pulse_idx.size
        delays = rng.exponential(source.lifetime_ns, k)
        detected = rng.random(k) < detection_eff
        to_det0 = rng.random(k) < splitter_ratio
        t = pulse_idx[detected] * period + delays[detected]
        times_parts.append(t)
        det_parts.append(np.where(to_det0[detected], 0, 1).astype(np.uint8))

    if times_parts:
        times = np.concatenate(times_parts)
        dets = np.concatenate(det_parts)
    else:
        times = np.zeros(0, dtype=np.float64)
        dets = np.zeros(0, dtype=np.uint8)
    # a delay can spill past the end of the measurement window
    inside = times < duration
    times = times[inside]
    dets = dets[inside]
    order = np.argsort(times, kind="stable")
    return TimeTagStream(times[order], dets[order], duration, period)


@dataclass(frozen=True)
class CorrelationHistogram:
    """Cross-detector delay histogram over a symmetric multi-period window."""

    counts: np.ndarray
    bin_edges_ns: np.ndarray
    bin_width_ns: float
    window_periods: int
    rep_period_ns: float

    def __post_init__(self) -> None:
        if self.window_periods < 5:
            raise ValueError(
                "window_periods must be at least 5 to cover the side peaks"
            )
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")

    @property
    def tau_centers_ns(self) -> np.ndarray:
        return 0.5 * (self.bin_edges_ns[:-1] + self.bin_edges_ns[1:])


def _bin_count(span_ns: float, bin_width_ns: float) -> int:
    """Number of ``bin_width_ns`` bins across ``span_ns``, at most _MAX_BINS."""
    if not (math.isfinite(bin_width_ns) and bin_width_ns > 0):
        raise ValueError(f"bin_width_ns must be positive and finite, got {bin_width_ns}")
    n_bins = span_ns / bin_width_ns
    if n_bins > _MAX_BINS:
        raise ValueError(
            f"bin_width_ns = {bin_width_ns:g} needs {n_bins:.3g} bins, over {_MAX_BINS}"
        )
    return int(round(n_bins))


def correlation_histogram(
    stream: TimeTagStream,
    bin_width_ns: float = 1.0,
    window_periods: int = 5,
) -> CorrelationHistogram:
    """Histogram of t(detector 1) - t(detector 0) pair delays.

    Every cross-detector pair within +-window_periods repetition periods is
    counted once.  Total counts therefore equal the number of such pairs.
    """
    window = window_periods * stream.rep_period_ns
    n_bins = _bin_count(2.0 * window, bin_width_ns)
    t0 = stream.times_ns[stream.detectors == 0]
    t1 = stream.times_ns[stream.detectors == 1]
    if t0.size == 0 or t1.size == 0:
        raise InsufficientDataError("need tags on both detectors")

    lo = np.searchsorted(t1, t0 - window, side="left")
    hi = np.searchsorted(t1, t0 + window, side="right")
    per_tag = hi - lo
    total = int(per_tag.sum())
    # indices of the paired detector-1 tags, flattened without a Python loop
    base = np.repeat(lo, per_tag)
    offsets = np.arange(total) - np.repeat(np.cumsum(per_tag) - per_tag, per_tag)
    taus = t1[base + offsets] - np.repeat(t0, per_tag)

    edges = np.linspace(-window, window, n_bins + 1)
    counts, _ = np.histogram(taus, bins=edges)
    return CorrelationHistogram(
        counts=counts,
        bin_edges_ns=edges,
        bin_width_ns=bin_width_ns,
        window_periods=window_periods,
        rep_period_ns=stream.rep_period_ns,
    )


def _peak_areas(hist: CorrelationHistogram) -> tuple[int, list[int]]:
    period = hist.rep_period_ns
    centers = hist.tau_centers_ns
    half = period / 2.0
    center_area = int(hist.counts[np.abs(centers) < half].sum())
    side_areas = []
    # outermost peaks sit on the window edge with clipped tails; skip them
    for k in range(1, hist.window_periods):
        for sign in (1, -1):
            mask = np.abs(centers - sign * k * period) < half
            side_areas.append(int(hist.counts[mask].sum()))
    return center_area, side_areas


def g2_at_zero(hist: CorrelationHistogram) -> float:
    """Center-peak area normalized by the mean full side-peak area."""
    center_area, side_areas = _peak_areas(hist)
    if sum(1 for a in side_areas if a > 0) < 4:
        raise InsufficientDataError("need at least 4 side peaks with counts")
    return center_area / float(np.mean(side_areas))


@dataclass(frozen=True)
class LifetimeFit:
    tau_ns: float
    sigma_ns: float
    reliable: bool


def fit_lifetime(
    stream: TimeTagStream,
    bin_width_ns: float = 1.0,
    detector: int = 0,
) -> LifetimeFit:
    """Exponential lifetime from the pulse-phase histogram of one detector.

    Log-linear least squares on the decaying flank, starting one bin past
    the peak and stopping at the first sparse bin.  Flagged unreliable when
    the fitted constant is not comfortably inside the repetition period,
    since phase wraparound then flattens the decay.
    """
    period = stream.rep_period_ns
    n_bins = max(4, _bin_count(period, bin_width_ns))
    phases = stream.times_ns[stream.detectors == detector] % period
    counts, edges = np.histogram(phases, bins=n_bins, range=(0.0, period))
    centers = 0.5 * (edges[:-1] + edges[1:])

    peak = int(np.argmax(counts))
    start = peak + 1
    stop = start
    while stop < n_bins and counts[stop] >= _FIT_FLOOR_COUNTS:
        stop += 1
    region = slice(start, stop)
    if int(counts[region].sum()) < 100:
        raise InsufficientDataError("need at least 100 counts past the peak")
    if stop - start < 3:
        raise InsufficientDataError("decay region spans too few bins")

    x = centers[region]
    y = np.log(counts[region].astype(np.float64))
    (slope, _), cov = np.polyfit(x, y, 1, cov=True)
    if slope >= 0:
        return LifetimeFit(math.inf, math.inf, False)
    tau = -1.0 / slope
    sigma = math.sqrt(cov[0, 0]) / slope**2
    return LifetimeFit(tau, sigma, reliable=tau < period / 3.0)
