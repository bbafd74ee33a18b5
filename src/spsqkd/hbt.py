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
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._threads import _in_order
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

# the first bin past the phase histogram's peak holding fewer counts than
# this ends the lifetime fit region
_FIT_FLOOR_COUNTS = 5

# most bins one histogram may hold (32 MiB of counts); a finer binning is a
# mistyped width, not a measurement
_MAX_BINS = 1 << 22

# the histogram bin both the g2 and the lifetime estimate default to
_BIN_WIDTH_NS = 1.0

# most tag-pair delays histogrammed at once (8 MB), and most held while the
# pairs are counted
_PAIR_CHUNK = 1 << 20

# tags per block of the histogram's pair walk, so no array of a step holds
# more.  On 2 cores the histogram of 3e7 nv pulses (870k tags) took 11.2 ms
# at 2^16, 15.2 at 2^14 and 11.0-11.3 at 2^17-2^19, and of 4e6 ideal95
# pulses 0.25 s, against 0.29-0.35 s at 2^17-2^19 (medians of 40 and of 3
# interleaved calls)
_WALK_BLOCK = 1 << 16

# a block's walk reads its live tags through their indices, not as slices,
# once fewer than one in _SPARSE is live.  Each read pays on one side: on
# 2 cores the g2-nv benchmark (every block under 1 in 7 live after step 1)
# ran 7.61e8 pulses/s against 6.96e8 with slices only (10 of 10 pairs),
# and `g2 --preset ideal95 --pulses 8e6` (most tags live for several
# steps) 0.85-1.55 s against 1.29-2.17 s with indices only (8 of 8 runs)
_SPARSE = 4

# offsets per tag, on the stream's average, the counting walk may step
# through before the spans' searches count the pairs instead.  The walk
# steps about 1.1 times per nv tag, 3.3 per wcp tag and 6 per ideal95 tag;
# over a window wider than the stream it would step about as many times as
# there are tags
_WALK_BUDGET = 16

# expected tags per window of simulate_hbt, each window drawn from its own
# stream.  On 2 cores a g2-nv op (3e7 pulses, 870k tags) took 0.78 of its
# unwindowed time at 2^15, 0.69 at 2^16 and 0.70 at 2^17 (12 paired runs;
# 2^16 beat 2^15 in 11), with peak RSS 62-65 MB against 75
_WINDOW_TAGS = 1 << 16

# tags fit_lifetime bins at once.  On 2 cores a g2 run at the tag cap (nv,
# 5.7e8 pulses) read 342-344 MB max RSS with blocks of 2^16 and 350 with
# 2^18, and g2-nv ops, beside the histogram, 61 MB peak RSS against 71-74
_PHASE_BLOCK = 1 << 16

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
    table, and how many each has.  A window copies that event index once and
    inserts the copies of its events of several photons; the times are made
    in the index's buffer.  Then one emission delay per
    photon, drawn as ``lifetime * standard_exponential``, which are the
    numbers ``exponential(lifetime)`` gives; after the window's tags are
    sorted, each goes to detector 0 with ``splitter_ratio`` (the routing
    does not depend on the time, so drawing it last spares a permutation).

    Window 0 draws from ``rng`` and window w from the w-th generator
    ``rng.spawn`` gives, so a run of one window draws as an unwindowed run
    would, and a seed pins the stream whichever thread builds a window:
    ``_threads._in_order`` makes the windows on the calling thread and one
    more, and the calling thread appends them in window order to one stream
    reserved for the expected tag count.  A delay can carry a tag past the
    next window's first ones; that stretch is merged by a stable sort, so
    each tag keeps its detector.

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
    rngs = [rng, *rng.spawn(n_windows - 1)]

    def window(w: int) -> tuple[np.ndarray, np.ndarray]:
        start = w * size
        detected = sample_photon_numbers(
            source, min(size, n_pulses - start), rngs[w], detection_eff)
        index, photons = detected.pulse_index, detected.photons
        del detected
        # one tag per photon, np.repeat(index, photons).  With no dark
        # counts every event holds a photon, so the copies of the events
        # that hold more are inserted into one copy of the index
        multi = np.flatnonzero(photons > 1)
        extra = photons[multi] - 1
        index = np.insert(index, np.repeat(multi, extra), np.repeat(index[multi], extra))
        del photons, multi, extra
        index += start
        # the times take the index's buffer: cast in place, then scaled
        times = index.view(np.float64)
        np.copyto(times, index, casting="unsafe")
        del index
        times *= period
        # lifetime * E, the numbers exponential(lifetime) gives
        delays = rngs[w].standard_exponential(times.size)
        delays *= source.lifetime_ns
        times += delays
        del delays
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
            # one new buffer each and a copy of the filled part; np.resize
            # would tile the whole old array into twice its size
            grown_times, grown_dets = np.empty(e + e // 8), np.empty(e + e // 8, np.uint8)
            grown_times[:b], grown_dets[:b] = times[:b], dets[:b]
            times, dets = grown_times, grown_dets
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

    _in_order(n_windows, window, lambda w, part: append(*part))
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


def _offset_steps(
    times: np.ndarray, dets: np.ndarray, window: float, start: int, stop: int,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The steps k = 1, 2, ... of the pair walk over tags i in [start, stop).

    Step k yields ``(later, earlier, earlier_dets, pairs)``: the times of the
    tags i + k and i, the detectors of the tags i, and which of them make a
    cross-detector pair inside the window by the float tests the window
    searches make, ``t1 <= t0 + window`` when detector 0's tag comes first
    and ``t1 >= t0 - window`` when detector 1's does.  The times are sorted
    and float rounding is monotone, so a tag i that passes neither test at
    offset k passes neither at any later one; it is dropped, and the walk
    stops when no tag is left.

    Where the tags lie further apart than ``window`` on the block's mean,
    step 1 first takes as candidates the tags whose next one lies within
    ``window`` and a few ulps of the largest time, by one subtraction; that
    slack covers the rounding of both tests, so every tag that passes one
    is a candidate.  If fewer than one in ``_SPARSE`` is, step 1 yields the
    candidates alone, read through their indices, and so do the later
    steps; otherwise the tags are read as slices until fewer than one in
    ``_SPARSE`` is live, then through their indices.
    """
    n = times.size
    hi = min(stop, n - 1)
    if hi <= start:
        return
    live = None
    # the filter runs where the block's mean tag spacing is wider than the
    # window; where it is not, most tags are candidates and it would only
    # add a pass
    if window * (hi - start) < times[hi] - times[start]:
        # a tag that passes either test has later - earlier at most window
        # and half an ulp of T + window, T the largest time compared; the
        # subtraction and window + slack each round by at most half an ulp
        # more, so with four ulps of slack every such tag is a candidate
        slack = 4.0 * np.spacing(times[hi] + window)
        near = times[start + 1:hi + 1] - times[start:hi]
        near = near <= window + slack
        if np.count_nonzero(near) * _SPARSE < near.size:
            live = np.flatnonzero(near)
            live += start
        del near
    k = 1
    while True:
        if live is None:
            hi = min(stop, n - k)
            if hi <= start:
                return
            earlier, later = times[start:hi], times[start + k:hi + k]
            earlier_dets, later_dets = dets[start:hi], dets[start + k:hi + k]
        else:
            live = live[: np.searchsorted(live, n - k)]
            earlier, later = times.take(live), times[k:].take(live)
            earlier_dets, later_dets = dets.take(live), dets[k:].take(live)
        up = later <= earlier + window
        down = earlier >= later - window
        pairs = up & (earlier_dets < later_dets)
        pairs |= down & (earlier_dets > later_dets)
        yield later, earlier, earlier_dets, pairs
        up |= down
        if live is None:
            n_live = np.count_nonzero(up)
            if n_live == 0:
                return
            if n_live * _SPARSE < up.size:
                live = np.flatnonzero(up)
                live += start
        else:
            live = live[up]
            if live.size == 0:
                return
        k += 1


def _delays(later: np.ndarray, earlier: np.ndarray, earlier_dets: np.ndarray,
            pairs: np.ndarray) -> np.ndarray:
    """t1 - t0 of the pairs of one walk step."""
    index = np.flatnonzero(pairs)
    taus = later.take(index)
    taus -= earlier.take(index)
    # negated, exactly, where detector 1's tag comes first
    sign = earlier_dets.take(index) * -2.0
    sign += 1.0
    taus *= sign
    return taus


def _spans(
    times: np.ndarray, dets: np.ndarray, window: float, side: int,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Detector ``side``'s tags, a block of the stream at a time, with the
    span of the other detector's tags each pairs with.

    Yields ``(tags, other, lo, hi)``: a tag ``tags[i]`` pairs with
    ``other[lo[i]:hi[i]]``, the other detector's sorted tags.  A pair is
    ``t1 >= t0 - window`` and ``t1 <= t0 + window``, the float tests the
    offset walk makes.  From detector 0, t0 - window and t0 + window are
    searched in detector 1's tags; from detector 1, t1 is searched in
    detector 0's t0 + window and t0 - window, since t1 - window and
    t1 + window would round differently.
    """
    other = times[dets != side]
    if side == 0:
        lower = upper = other
        shift = window
    else:
        lower, upper = other + window, other - window
        shift = 0.0
    for start in range(0, times.size, _WALK_BLOCK):
        block = slice(start, start + _WALK_BLOCK)
        tags = times[block].take(np.flatnonzero(dets[block] == side))
        lo = np.searchsorted(lower, tags - shift, side="left")
        hi = np.searchsorted(upper, tags + shift, side="right")
        yield tags, other, lo, hi


def _span_steps(times: np.ndarray, dets: np.ndarray, window: float) -> Iterator[np.ndarray]:
    """t1 - t0 of every cross-detector pair, by a walk through the spans.

    Step j of a block takes each tag of the more numerous detector with the
    j-th tag of its ``_spans`` span, and a tag leaves at the end of its
    span; so the steps hold as many tags, over all, as there are pairs, and
    a block's steps number the most pairs one of its tags makes with the
    fewer detector's tags.
    """
    side = int(2 * np.count_nonzero(dets) > dets.size)
    for tags, other, lo, hi in _spans(times, dets, window, side):
        keep = np.flatnonzero(hi > lo)
        while keep.size:
            tags, lo, hi = tags.take(keep), lo.take(keep), hi.take(keep)
            taus = other.take(lo)
            taus -= tags
            if side:
                np.negative(taus, out=taus)
            yield taus
            lo += 1
            keep = np.flatnonzero(lo < hi)


def correlation_histogram(
    stream: TimeTagStream,
    bin_width_ns: float = _BIN_WIDTH_NS,
    window_periods: int = 5,
) -> CorrelationHistogram:
    """Histogram of t(detector 1) - t(detector 0) pair delays.

    Every cross-detector pair within +-window_periods repetition periods is
    counted once, and their number may not exceed ``MAX_EVENTS``.  A pair
    whose delay rounds past +-window is counted but falls outside the bins,
    so the counts can total a little less.

    The pairs are found by a walk over neighbour offsets of the sorted tags
    (``_offset_steps``), in blocks of ``_WALK_BLOCK`` tags.  Every pair is
    counted before any delay is histogrammed: the counting walk holds the
    delays while they number at most ``_PAIR_CHUNK``, and if they number
    more, the walk is made again after the count.  A walk that steps past
    ``_WALK_BUDGET`` offsets a tag, a window wide for the stream, stops:
    its near pairs may be mostly same-detector ones, which the cap does not
    count.  Two searches per tag then count the cross pairs (``_spans``),
    and after the count a walk through those spans (``_span_steps``) steps
    once per cross pair.  The delays are histogrammed in batches of at most
    ``_PAIR_CHUNK``, the held ones in one and the others a walk step at a
    time, by ``np.histogram`` over ``range=(-window, window)``, whose bins
    are the ``np.linspace`` edges; so memory grows with the block, the
    batch and the bins, not with the pair count.
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

    def walk():
        # each step with the tags it compared: step 1 compares the whole
        # block, though a sparse block's yields only its candidates
        for start in range(0, times.size - 1, _WALK_BLOCK):
            steps = _offset_steps(times, dets, window, start, start + _WALK_BLOCK)
            yield min(_WALK_BLOCK, times.size - 1 - start), next(steps)
            for step in steps:
                yield step[3].size, step

    # n_steps counts the tags the walk has compared, over every offset
    held: list[np.ndarray] | None = []
    n_pairs = n_steps = 0
    for compared, step in walk():
        n_steps += compared
        if n_steps > _WALK_BUDGET * times.size:
            n_pairs = sum(int((hi - lo).sum()) for _, _, lo, hi in _spans(times, dets, window, 0))
            break
        n_found = int(np.count_nonzero(step[3]))
        n_pairs += n_found
        if n_pairs > _PAIR_CHUNK:
            held = None
        elif n_found:
            held.append(_delays(*step))
    # a wide window over a bright stream pairs each tag with thousands;
    # refuse by count before any delay is histogrammed
    check_events("window_periods", window_periods, n_pairs, "tag pairs")

    if n_steps > _WALK_BUDGET * times.size:
        delays = _span_steps(times, dets, window)
    elif held is None:
        delays = (_delays(*step) for _, step in walk())
    else:
        delays = [np.concatenate(held)] if held else []
    counts = np.zeros(n_bins, dtype=np.intp)
    for taus in delays:
        for start in range(0, taus.size, _PAIR_CHUNK):
            batch = taus[start:start + _PAIR_CHUNK]
            counts += np.histogram(batch, bins=n_bins, range=(-window, window))[0]
    return CorrelationHistogram(
        counts=counts,
        bin_edges_ns=np.linspace(-window, window, n_bins + 1),
        bin_width_ns=bin_width_ns,
        window_periods=window_periods,
        rep_period_ns=stream.rep_period_ns,
    )


def _run_start(centers: np.ndarray, inside, index: np.ndarray) -> np.ndarray:
    """First index of the sorted ``centers`` from which ``inside(centers)`` holds.

    ``inside`` takes one centre per peak and, along the sorted centres, once
    true stays true.  ``index`` is a guess the float rounding may have left a
    bin or so off either way; each step moves every guess one bin toward the
    first centre that passes the exact test.
    """
    last = centers.size - 1
    while True:
        back = (index > 0) & inside(centers[np.maximum(index - 1, 0)])
        ahead = (index <= last) & ~inside(centers[np.minimum(index, last)])
        if not (back.any() or ahead.any()):
            return index
        index = index - back + ahead


def _peak_areas(hist: CorrelationHistogram) -> tuple[int, np.ndarray]:
    """The centre-peak area, and the side-peak areas at +1, -1, +2, -2, ... periods.

    The peak at x holds the bins whose centre c has ``|c - x| < period / 2``.
    ``c - x`` rounds monotonically in c, so over the sorted centres each
    peak is one run of bins: a search finds both ends of every run to within
    the rounding, the exact test settles them, and one cumulative sum of the
    counts gives every area.
    """
    period = hist.rep_period_ns
    centers = hist.tau_centers_ns
    half = period / 2.0
    # outermost peaks sit on the window edge with clipped tails; skip them
    k = np.arange(1, hist.window_periods)
    x = np.concatenate(([0.0], np.stack((k, -k), axis=1).ravel() * period))
    lo = _run_start(centers, lambda c: c - x > -half,
                    np.searchsorted(centers, x - half, side="right"))
    hi = _run_start(centers, lambda c: c - x >= half,
                    np.searchsorted(centers, x + half, side="left"))
    sums = np.concatenate(([0], np.cumsum(hist.counts)))
    areas = sums[hi] - sums[lo]
    return int(areas[0]), areas[1:]


def g2_at_zero(hist: CorrelationHistogram) -> float:
    """Center-peak area normalized by the mean full side-peak area."""
    center_area, side_areas = _peak_areas(hist)
    if np.count_nonzero(side_areas) < 4:
        raise InsufficientDataError("need at least 4 side peaks with counts")
    return center_area / float(np.mean(side_areas))


@dataclass(frozen=True)
class LifetimeFit:
    tau_ns: float
    sigma_ns: float
    reliable: bool


def _phase_counts(stream: TimeTagStream, n_bins: int) -> np.ndarray:
    """``np.histogram`` counts of the detector-0 phases ``t % period`` in ``n_bins``.

    A tag is binned as ``floor(t * n_bins / period) mod n_bins``, a
    multiply and a floor in place of the remainder and the search, with the
    mod folded as ``b - (b // n_bins) * n_bins``, a floor division by a
    scalar being a multiply and a shift where the remainder divides.  Only a
    tag whose product lies within ``eps`` of a whole number, next to a bin
    edge, takes the remainder and ``np.histogram``: on the 3e7 nv pulses of
    the g2-nv benchmark about one tag in five thousand.  The tags are read
    in blocks of ``_PHASE_BLOCK``, and the edge tags histogrammed once a
    block of them is held, so memory grows with the block, not the stream.
    """
    period = stream.rep_period_ns
    counts = np.zeros(n_bins, dtype=np.intp)
    # With U = t * n_bins / period exact and u its float product, |u - U|
    # is two roundings, about 2^-52 * U; linspace's edge i, in bins, lies
    # within about 2^-52 * n_bins of i, and np.histogram bins a phase by
    # those edges.  So a product farther than their sum from a whole number
    # has floor(u) = floor(U), and floor(U) mod n_bins is the bin of the
    # exact phase t - k * period by the float edges.  eps is that sum with
    # 16 times the room, t bounded by the duration; when eps >= 1/2 every
    # tag takes the remainder
    scale = n_bins / period
    eps = 16 * 2.0**-52 * (stream.duration_ns * scale + n_bins)
    held: list[np.ndarray] = []
    n_held = 0
    for start in range(0, len(stream), _PHASE_BLOCK):
        block = slice(start, start + _PHASE_BLOCK)
        # a take through the indices, not a boolean-mask gather, which pays a
        # branch miss per tag
        phases = stream.times_ns[block].take(np.flatnonzero(stream.detectors[block] == 0))
        if eps < 0.5:
            u = phases * scale
            bins = u.astype(np.intp)  # the floor, since u >= 0
            # bins mod n_bins by a floor division, which numpy runs by one
            # multiply and shift for a scalar divisor, unlike the remainder
            q = bins // n_bins
            q *= n_bins
            bins -= q
            del q
            u -= np.rint(u)
            np.abs(u, out=u)
            edge = np.flatnonzero(u < eps)
            counts += np.bincount(bins, minlength=n_bins)
            counts -= np.bincount(bins[edge], minlength=n_bins)
            phases = phases[edge]
        held.append(phases)
        n_held += phases.size
        if n_held >= _PHASE_BLOCK or start + _PHASE_BLOCK >= len(stream):
            phases = np.concatenate(held)
            phases %= period
            counts += np.histogram(phases, bins=n_bins, range=(0.0, period))[0]
            held, n_held = [], 0
    return counts


def fit_lifetime(
    stream: TimeTagStream,
    bin_width_ns: float = _BIN_WIDTH_NS,
) -> LifetimeFit:
    """Exponential lifetime from the pulse-phase histogram of detector 0.

    Log-linear least squares on the decaying flank, starting one bin past
    the peak and stopping at the first sparse bin.  Flagged unreliable when
    the fitted constant is not comfortably inside the repetition period,
    since phase wraparound then flattens the decay.  The histogram is
    ``_phase_counts``: the counts of ``t % period`` by ``np.histogram``,
    most tags binned by a multiply and a floor.
    """
    period = stream.rep_period_ns
    n_bins = max(4, _bin_count(period, bin_width_ns, "bin_width_ns", bin_width_ns))
    counts = _phase_counts(stream, n_bins)
    # the edges np.histogram gives over range=(0, period)
    edges = np.linspace(0.0, period, n_bins + 1)
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
