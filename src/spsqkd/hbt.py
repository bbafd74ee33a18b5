"""Hanbury Brown-Twiss simulation and g2/lifetime estimation.

A pulsed source feeds a 50/50 splitter with two ideal timing detectors.
Photon emission times are the excitation clock plus an exponential delay,
so the cross-correlation histogram shows pulse-spaced peaks; for a genuine
single-photon stream the tau = 0 peak is missing.  g2(0) is estimated as
the center-peak area over the mean side-peak area, and the excited-state
lifetime by a log-linear fit to the decaying flank of the phase histogram.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from ._threads import _on_two_threads
from .config import check_events
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

# histogram bins below this fraction of the peak end the lifetime fit region
_FIT_FLOOR_COUNTS = 5

# most bins one histogram may hold (32 MiB of counts); a finer binning is a
# mistyped width, not a measurement
_MAX_BINS = 1 << 22

# the histogram bin both the g2 and the lifetime estimate default to
_BIN_WIDTH_NS = 1.0

# most tag pairs expanded at once (about 40 MB of index and delay arrays),
# unless a single detector-0 tag has more
_PAIR_CHUNK = 1 << 20

# expected tags per window of simulate_hbt, each window drawn from its own
# stream.  On 2 cores a g2-nv op (3e7 pulses, 870k tags) took 0.78 of its
# unwindowed time at 2^15, 0.69 at 2^16 and 0.70 at 2^17 (12 paired runs;
# 2^16 beat 2^15 in 11), with peak RSS 62-65 MB against 75
_WINDOW_TAGS = 1 << 16

# tags fit_lifetime histograms at once.  A g2 run at the tag cap (nv, 5.7e8
# pulses) read 344 MB max RSS with blocks of 2^16 or 2^18, 355 with 2^20
# and 420 with one block over the whole stream
_PHASE_BLOCK = 1 << 18

# sigmas of room over the mean tag count reserved for a windowed stream
_RESERVE_SIGMAS = 6.0


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
            if (self.times_ns[1:] < self.times_ns[:-1]).any():
                raise ValueError("tags must be sorted by time")
            if self.times_ns[0] < 0 or self.times_ns[-1] >= self.duration_ns:
                raise ValueError("tags must lie within [0, duration_ns)")
        if self.detectors.size and self.detectors.max() > 1:
            raise ValueError("detector ids must be 0 or 1")

    def __len__(self) -> int:
        return int(self.times_ns.size)


def simulate_hbt(
    source: SourceSpec,
    n_pulses: int,
    rng: np.random.Generator,
    splitter_ratio: float = 0.5,
    detection_eff: float = 1.0,
) -> TimeTagStream:
    """Time tags from ``n_pulses`` excitation gates into the splitter.

    The run is cut into windows of whole pulses, each expecting
    ``_WINDOW_TAGS`` tags.  In a window, one draw gives the pulses with a
    detected photon, loss at ``detection_eff`` inside the photon-number
    table, and how many each has.  Then one exponential emission delay per
    photon; after the window's tags are sorted, each goes to detector 0
    with ``splitter_ratio`` (the routing does not depend on the time, so
    drawing it last spares a permutation).

    Window 0 draws from ``rng`` and window w from the w-th generator
    ``rng.spawn`` gives, so a run of one window draws as an unwindowed run
    would, and a seed pins the stream whichever thread builds a window: the
    calling thread and one more share the windows.  Finished windows are
    appended in window order to one stream reserved for the expected tag
    count.  A delay can carry a tag past the next window's first ones; that
    stretch is merged by a stable sort, so each tag keeps its detector.

    The tags come out of the pulse order nearly sorted, since a delay
    rarely reaches the next pulse, so a stable sort (a timsort merge of
    the sorted runs) is several times faster than the default quicksort;
    a float sort gives the same array whichever algorithm runs it.

    After the settings, ``ValueError`` refuses ``n_pulses`` expecting over MAX_EVENTS tags.
    """
    if n_pulses < 1:
        raise ValueError("n_pulses must be at least 1")
    if not 0.0 <= splitter_ratio <= 1.0:
        raise ValueError("splitter_ratio must be in [0, 1]")
    if not 0.0 <= detection_eff <= 1.0:
        raise ValueError("detection_eff must be in [0, 1]")
    check_events("pulses", n_pulses, n_pulses * source.mu * detection_eff, "tags")

    period = source.rep_period_ns
    duration = n_pulses * period
    rate = source.mu * detection_eff
    size = max(1, math.floor(_WINDOW_TAGS / rate)) if rate > 0 else n_pulses
    n_windows = -(-n_pulses // size)
    rngs = [rng, *rng.spawn(n_windows - 1)] if n_windows > 1 else [rng]

    def window(w: int) -> tuple[np.ndarray, np.ndarray]:
        start = w * size
        detected = sample_photon_numbers(
            source, min(size, n_pulses - start), rngs[w], detection_eff)
        # built in place once the events are gone: a few arrays of tags at most
        index = np.repeat(detected.pulse_index, detected.photons)
        del detected
        index += start
        times = index * period
        del index
        times += rngs[w].exponential(source.lifetime_ns, times.size)
        times.sort(kind="stable")
        # a delay can spill past the end of the measurement window
        times = times[: np.searchsorted(times, duration)]
        return times, (rngs[w].random(times.size) >= splitter_ratio).view(np.uint8)

    # the stream is reserved for the mean tag count and _RESERVE_SIGMAS
    # Poisson sigmas more, and grown by an eighth if a run draws past that
    expected = n_pulses * rate
    times = np.empty(max(0, math.ceil(expected + _RESERVE_SIGMAS * math.sqrt(expected))))
    dets = np.empty(times.size, dtype=np.uint8)
    filled = 0

    def append(part_times: np.ndarray, part_dets: np.ndarray) -> None:
        nonlocal times, dets, filled
        b, e = filled, filled + part_times.size
        if e > times.size:
            times, dets = np.resize(times, e + e // 8), np.resize(dets, e + e // 8)
        times[b:e] = part_times
        dets[b:e] = part_dets
        filled = e
        # times[:b] is sorted; a delay that carried a tag past this window's
        # first tags leaves a stretch to merge
        if 0 < b < e and times[b] < times[b - 1]:
            lo = int(np.searchsorted(times[:b], times[b], side="right"))
            hi = b + int(np.searchsorted(times[b:e], times[b - 1], side="left"))
            order = np.argsort(times[lo:hi], kind="stable")
            times[lo:hi] = times[lo:hi][order]
            dets[lo:hi] = dets[lo:hi][order]

    # each thread claims the next window until none is left, and a window is
    # appended once every window before it is, so only the windows finished
    # ahead of order wait beside the stream.  A failure leaves the rest
    # unclaimed, so the other thread stops after its window
    claims = iter(range(n_windows))
    finished: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    appended = 0
    lock = threading.Lock()

    def run_windows() -> None:
        nonlocal claims, appended
        try:
            while True:
                with lock:
                    w = next(claims, None)
                if w is None:
                    return
                part = window(w)
                with lock:
                    finished[w] = part
                    while appended in finished:
                        append(*finished.pop(appended))
                        appended += 1
        except BaseException:
            with lock:
                claims = iter(())
            raise

    _on_two_threads(run_windows, run_windows, threaded=n_windows > 1)
    return TimeTagStream(times[:filled], dets[:filled], duration, period)


@dataclass(frozen=True)
class CorrelationHistogram:
    """Cross-detector delay histogram over a symmetric multi-period window."""

    counts: np.ndarray
    bin_edges_ns: np.ndarray
    bin_width_ns: float
    window_periods: int
    rep_period_ns: float

    def __post_init__(self) -> None:
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")

    @property
    def tau_centers_ns(self) -> np.ndarray:
        return 0.5 * (self.bin_edges_ns[:-1] + self.bin_edges_ns[1:])


def _bin_count(span_ns: float, bin_width_ns: float, setting: str, value: float) -> int:
    """Number of ``bin_width_ns`` bins across ``span_ns``, at most _MAX_BINS.

    More are refused by the name of the ``setting`` that asked for them, at its ``value``.
    """
    if not (math.isfinite(bin_width_ns) and bin_width_ns > 0):
        raise ValueError(f"bin_width_ns must be positive and finite, got {bin_width_ns}")
    n_bins = span_ns / bin_width_ns
    if n_bins > _MAX_BINS:
        raise ValueError(f"{setting} = {value:g} needs {n_bins:.3g} bins, over {_MAX_BINS}")
    return int(round(n_bins))


def correlation_histogram(
    stream: TimeTagStream,
    bin_width_ns: float = _BIN_WIDTH_NS,
    window_periods: int = 5,
) -> CorrelationHistogram:
    """Histogram of t(detector 1) - t(detector 0) pair delays.

    Every cross-detector pair within +-window_periods repetition periods is
    counted once.  Total counts therefore equal the number of such pairs,
    which may not exceed ``MAX_EVENTS``.

    Only tags with a neighbour inside the window are searched: since the
    times are sorted, a tag whose next and previous tags both lie outside
    it (by the same float tests the searches make) has no partner on
    either detector.  The pairs are then expanded and histogrammed over
    runs of detector-0 tags holding at most ``_PAIR_CHUNK`` pairs each, so
    memory grows with the chunk and the bins, not with the pair count.
    """
    if window_periods < 5:
        raise ValueError("window_periods must be at least 5 to cover the side peaks")
    # the narrowest window fixes how fine a bin may be; a wider window that
    # then needs too many bins is refused by its own name
    _bin_count(10.0 * stream.rep_period_ns, bin_width_ns, "bin_width_ns", bin_width_ns)
    window = window_periods * stream.rep_period_ns
    n_bins = _bin_count(2.0 * window, bin_width_ns, "window_periods", window_periods)
    times, dets = stream.times_ns, stream.detectors
    n_one = int(np.count_nonzero(dets))
    if n_one == 0 or n_one == dets.size:
        raise InsufficientDataError("need tags on both detectors")

    # t[i + 1] <= t[i] + window is the upper search's test, and
    # t[i] >= t[i + 1] - window the lower one's.  Float rounding is
    # monotone, so a pair that passes a search passes its test at every
    # step between its two tags, and both tags are kept
    near = times[1:] <= times[:-1] + window
    near |= times[:-1] >= times[1:] - window
    keep = np.zeros(times.size, dtype=bool)
    keep[1:] = near
    keep[:-1] |= near
    times = np.compress(keep, times)
    one = np.compress(keep, dets) != 0
    t0 = np.compress(~one, times)
    t1 = np.compress(one, times)
    del times, one, keep

    lo = np.searchsorted(t1, t0 - window, side="left")
    per_tag = np.searchsorted(t1, t0 + window, side="right")
    per_tag -= lo
    # pairs before each tag; the last entry is the total
    before = np.zeros(t0.size + 1, dtype=np.intp)
    np.cumsum(per_tag, out=before[1:])
    # a wide window over a bright stream pairs each tag with thousands;
    # refuse by count before any pair array exists
    check_events("window_periods", window_periods, int(before[-1]), "tag pairs")

    edges = np.linspace(-window, window, n_bins + 1)
    counts = np.zeros(n_bins, dtype=np.intp)
    # pair k (numbered across all tags) of tag i pairs with t1[k + lo[i] - before[i]]
    lo -= before[:-1]
    start = 0
    while start < t0.size:
        # the longest run from start that holds at most _PAIR_CHUNK pairs
        stop = int(np.searchsorted(before, before[start] + _PAIR_CHUNK, side="right")) - 1
        stop = max(stop, start + 1)
        n_pairs = per_tag[start:stop]
        pairs = np.arange(before[start], before[stop])
        pairs += np.repeat(lo[start:stop], n_pairs)
        taus = t1[pairs]
        taus -= np.repeat(t0[start:stop], n_pairs)
        counts += np.histogram(taus, bins=edges)[0]
        start = stop
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
    bin_width_ns: float = _BIN_WIDTH_NS,
) -> LifetimeFit:
    """Exponential lifetime from the pulse-phase histogram of detector 0.

    Log-linear least squares on the decaying flank, starting one bin past
    the peak and stopping at the first sparse bin.  Flagged unreliable when
    the fitted constant is not comfortably inside the repetition period,
    since phase wraparound then flattens the decay.

    The phases are histogrammed in blocks of ``_PHASE_BLOCK`` tags, so
    memory grows with the block, not with the stream.
    """
    period = stream.rep_period_ns
    n_bins = max(4, _bin_count(period, bin_width_ns, "bin_width_ns", bin_width_ns))
    # the edges np.histogram gives over range=(0, period)
    edges = np.linspace(0.0, period, n_bins + 1)
    counts = np.zeros(n_bins, dtype=np.intp)
    for start in range(0, len(stream), _PHASE_BLOCK):
        block = slice(start, start + _PHASE_BLOCK)
        phases = stream.times_ns[block][stream.detectors[block] == 0]
        phases %= period
        counts += np.histogram(phases, bins=n_bins, range=(0.0, period))[0]
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
