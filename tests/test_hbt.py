"""HBT simulation, correlation histogram, g2 and lifetime estimators."""

import hashlib
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spsqkd import _threads, hbt
from spsqkd.config import MAX_EVENTS
from spsqkd.hbt import (
    CorrelationHistogram,
    InsufficientDataError,
    LifetimeFit,
    TimeTagStream,
    correlation_histogram,
    fit_lifetime,
    g2_at_zero,
    simulate_hbt,
)
from spsqkd.sources import SourceKind, SourceSpec, get_preset, photon_number_distribution


def _rng(*words):
    return np.random.default_rng(np.random.SeedSequence(list(words)))


@pytest.fixture(scope="module")
def nv_stream_1e7():
    return simulate_hbt(get_preset("nv"), 10_000_000, _rng(101, 1))


@pytest.fixture(scope="module")
def nv_hist_1e7(nv_stream_1e7):
    return correlation_histogram(nv_stream_1e7)


def test_tag_count_matches_source_throughput():
    # mu * eff * n = 0.029 * 0.31 * 1e6 = 8990 expected tags
    stream = simulate_hbt(
        get_preset("nv"), 1_000_000, _rng(101, 0), detection_eff=0.31
    )
    assert abs(len(stream) - 8990) <= 300


def test_tag_count_follows_the_thinned_photon_number():
    # each photon is kept with the detection efficiency: mean n mu eta, and
    # per-pulse variance eta (1 - eta) mu + eta^2 Var(photon number)
    spec, n, eta = get_preset("nv"), 3_000_000, 0.3
    stream = simulate_hbt(spec, n, _rng(101, 2), detection_eff=eta)
    dist = photon_number_distribution(spec)
    var_n = float(np.arange(dist.size) ** 2 @ dist) - spec.mu**2
    sigma = math.sqrt(n * (eta * (1 - eta) * spec.mu + eta**2 * var_n))
    assert abs(len(stream) - n * spec.mu * eta) < 4 * sigma


def test_zero_efficiency_gives_empty_stream():
    stream = simulate_hbt(get_preset("nv"), 10_000, _rng(1), detection_eff=0.0)
    assert len(stream) == 0
    with pytest.raises(InsufficientDataError):
        correlation_histogram(stream)


def test_stream_invariants_hold(nv_stream_1e7):
    s = nv_stream_1e7
    assert np.all(np.diff(s.times_ns) >= 0)
    assert s.times_ns[0] >= 0.0
    assert s.times_ns[-1] < s.duration_ns
    assert set(np.unique(s.detectors)) <= {0, 1}
    # 50/50 splitter: detector shares balanced to a few sigma
    n0 = int(np.sum(s.detectors == 0))
    assert abs(n0 - len(s) / 2) < 4 * np.sqrt(len(s) / 4)


def test_same_seed_same_stream():
    a = simulate_hbt(get_preset("siv"), 50_000, _rng(5, 5))
    b = simulate_hbt(get_preset("siv"), 50_000, _rng(5, 5))
    c = simulate_hbt(get_preset("siv"), 50_000, _rng(5, 6))
    assert np.array_equal(a.times_ns, b.times_ns)
    assert np.array_equal(a.detectors, b.detectors)
    assert not np.array_equal(a.times_ns, c.times_ns)


def test_a_one_window_stream_keeps_its_bytes():
    # siv80 expects 28,750 tags from 1e7 pulses, one window
    stream = simulate_hbt(get_preset("siv80"), 10_000_000, _rng(7, 1))
    assert len(stream) == 28_586 < hbt._WINDOW_TAGS
    data = stream.times_ns.tobytes() + stream.detectors.tobytes()
    assert hashlib.sha256(data).hexdigest() == (
        "195de7e138ac9b13c75a9f5c1396237e8f6040cc767877678f036128d83e1d72"
    )


class _InlineThread:
    """A thread whose start() runs its target on the calling thread."""

    def __init__(self, target, name=None):
        self._target = target

    def start(self):
        self._target()

    def join(self, timeout=None):
        pass


def test_windows_give_the_same_bytes_on_one_thread(monkeypatch):
    # 3e6 nv pulses expect 87k tags, two windows; 2^9 tags a window make 170
    nv = get_preset("nv")
    for window_tags in (hbt._WINDOW_TAGS, 1 << 9):
        monkeypatch.setattr(hbt, "_WINDOW_TAGS", window_tags)
        threaded = simulate_hbt(nv, 3_000_000, _rng(5, 7))
        with monkeypatch.context() as mp:
            mp.setattr(_threads.threading, "Thread", _InlineThread)
            inline = simulate_hbt(nv, 3_000_000, _rng(5, 7))
        assert len(threaded) > 80_000
        assert np.array_equal(threaded.times_ns, inline.times_ns)
        assert np.array_equal(threaded.detectors, inline.detectors)


def test_windows_give_the_same_bytes_under_fast_switching(monkeypatch):
    # several callers at once, each with its own window thread, more threads
    # than cores, and the GIL handed over every 10 us
    monkeypatch.setattr(hbt, "_WINDOW_TAGS", 1 << 8)
    nv = get_preset("nv")
    expected = [simulate_hbt(nv, 500_000, _rng(6, i)).times_ns for i in range(3)]
    results = [None] * len(expected)

    def run(i):
        results[i] = simulate_hbt(nv, 500_000, _rng(6, i)).times_ns

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=run, args=(i,)) for i in range(len(expected))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert all(np.array_equal(r, e) for r, e in zip(results, expected))


def _windows_alone(source, n_pulses, rng, window_tags, splitter_ratio):
    """Each window's sorted tags and their detectors, built alone from its
    own generator, joined in window order."""
    period = source.rep_period_ns
    duration = n_pulses * period
    size = max(1, math.floor(window_tags / source.mu))
    starts = range(0, n_pulses, size)
    times, dets = [], []
    for start, gen in zip(starts, [rng, *rng.spawn(len(starts) - 1)]):
        events = hbt.sample_photon_numbers(source, min(size, n_pulses - start), gen)
        t = (np.repeat(events.pulse_index, events.photons) + start) * period
        t = np.sort(t + gen.exponential(source.lifetime_ns, t.size), kind="stable")
        t = t[t < duration]
        times.append(t)
        dets.append((gen.random(t.size) >= splitter_ratio).astype(np.uint8))
    return np.concatenate(times), np.concatenate(dets)


@pytest.mark.parametrize("reserve_sigmas", [hbt._RESERVE_SIGMAS, -1e9],
                         ids=["reserved", "grown"])
def test_tags_spilled_across_windows_keep_their_detectors(monkeypatch, reserve_sigmas):
    # delays of 5 periods over windows of 8 pulses: a tag often lands past
    # the next window's first tags.  With no room reserved, the stream grows
    # as the windows are appended
    slow = SourceSpec(kind=SourceKind.SUB_POISSONIAN, mu=0.5, g2_zero=0.0,
                      lifetime_ns=5000.0)
    monkeypatch.setattr(hbt, "_WINDOW_TAGS", 4)
    monkeypatch.setattr(hbt, "_RESERVE_SIGMAS", reserve_sigmas)
    stream = simulate_hbt(slow, 4_000, _rng(8, 1), splitter_ratio=0.3)
    joined, dets = _windows_alone(slow, 4_000, _rng(8, 1), 4, splitter_ratio=0.3)
    assert np.count_nonzero(np.diff(joined) < 0) > 100
    # the stream is the joined windows put in order by one stable sort
    order = np.argsort(joined, kind="stable")
    assert np.all(np.diff(stream.times_ns) >= 0)
    assert np.array_equal(stream.times_ns, joined[order])
    assert np.array_equal(stream.detectors, dets[order])


class _Injected(Exception):
    pass


@pytest.mark.parametrize("failing", ["spsqkd-worker", "MainThread"])
def test_a_failed_window_is_raised_by_the_caller_after_the_join(monkeypatch, failing):
    sample = hbt.sample_photon_numbers

    def fail_on(*args, **kwargs):
        if threading.current_thread().name == failing:
            raise _Injected
        return sample(*args, **kwargs)

    monkeypatch.setattr(hbt, "sample_photon_numbers", fail_on)
    monkeypatch.setattr(hbt, "_WINDOW_TAGS", 1 << 8)
    live = threading.active_count()
    with pytest.raises(_Injected):
        simulate_hbt(get_preset("nv"), 1_000_000, _rng(9, 9))
    assert threading.active_count() == live


def test_lifetime_phase_blocks_add_up_to_one_pass(monkeypatch):
    # blocks of 7 tags: integer counts add exactly, so the fit is that of
    # one block over the stream, and the counts those of every detector-0 phase
    stream = simulate_hbt(get_preset("nv"), 1_000_000, _rng(10, 1))
    assert 7 < len(stream) < hbt._PHASE_BLOCK
    whole = fit_lifetime(stream)
    blocks = []

    def keep_counts(*args, **kwargs):
        counts, edges = histogram(*args, **kwargs)
        blocks.append(counts.copy())
        return counts, edges

    histogram = np.histogram
    monkeypatch.setattr(hbt, "_PHASE_BLOCK", 7)
    with mock.patch.object(np, "histogram", keep_counts):
        assert fit_lifetime(stream) == whole
    period = stream.rep_period_ns
    phases = stream.times_ns[stream.detectors == 0] % period
    oracle = histogram(phases, bins=int(period), range=(0.0, period))[0]
    assert len(blocks) == -(-len(stream) // 7)
    assert np.array_equal(np.sum(blocks, axis=0), oracle)
    # no block at all: empty counts, refused like any sparse stream
    empty = TimeTagStream(np.zeros(0), np.zeros(0, dtype=np.uint8), 1e6, period)
    with pytest.raises(InsufficientDataError, match="100 counts"):
        fit_lifetime(empty)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_pulses=0),
        dict(splitter_ratio=1.5),
        dict(splitter_ratio=-0.1),
        dict(detection_eff=1.01),
    ],
)
def test_simulate_rejects_bad_arguments(kwargs):
    args = dict(n_pulses=100, splitter_ratio=0.5, detection_eff=1.0)
    args.update(kwargs)
    with pytest.raises(ValueError):
        simulate_hbt(get_preset("nv"), args["n_pulses"], _rng(0),
                     splitter_ratio=args["splitter_ratio"],
                     detection_eff=args["detection_eff"])


def test_simulate_refuses_a_run_over_the_tag_cap_before_sampling(monkeypatch):
    def must_not_sample(*args, **kwargs):
        raise AssertionError("photons were sampled past the tag cap")

    monkeypatch.setattr(hbt, "sample_photon_numbers", must_not_sample)
    nv = get_preset("nv")
    over = math.floor(MAX_EVENTS / (nv.mu * 0.5)) + 1
    with pytest.raises(ValueError, match=rf"^pulses = .* tags, over {MAX_EVENTS}$"):
        simulate_hbt(nv, over, _rng(0), detection_eff=0.5)
    # a bad efficiency is refused by its own name, even at a size past the cap
    with pytest.raises(ValueError, match="^detection_eff"):
        simulate_hbt(nv, 10**12, _rng(0), detection_eff=1.5)


def test_stream_type_rejects_malformed_tags():
    t = np.array([1.0, 2.0])
    d = np.array([0, 1], dtype=np.uint8)
    with pytest.raises(ValueError):
        TimeTagStream(t, d[:1], 10.0, 1.0)
    with pytest.raises(ValueError):
        TimeTagStream(t[::-1].copy(), d, 10.0, 1.0)
    with pytest.raises(ValueError):
        TimeTagStream(t, d, 1.5, 1.0)  # tag past the end of the window
    with pytest.raises(ValueError):
        TimeTagStream(t, np.array([0, 2], dtype=np.uint8), 10.0, 1.0)


def test_histogram_rejects_narrow_window(nv_stream_1e7):
    with pytest.raises(ValueError):
        correlation_histogram(nv_stream_1e7, window_periods=3)
    with pytest.raises(ValueError):
        correlation_histogram(nv_stream_1e7, bin_width_ns=0.0)


def test_histogram_bins_are_capped():
    # a mistyped width asks for ~1e11 bins; it is refused before allocating
    stream = TimeTagStream(np.array([10.0, 20.0]), np.array([0, 1], dtype=np.uint8),
                           1000.0, 100.0)
    for width in (1e-9, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="bin_width_ns"):
            correlation_histogram(stream, bin_width_ns=width)
        with pytest.raises(ValueError, match="bin_width_ns"):
            fit_lifetime(stream, bin_width_ns=width)


def test_histogram_pairs_are_capped():
    # 4097 tags per detector inside one nanosecond: every tag pairs with
    # every other, 4097^2 > 2^24 pairs, refused before any pair array exists
    n = 4097
    times = np.arange(2 * n) / (2.0 * n)
    dets = np.tile(np.array([0, 1], dtype=np.uint8), n)
    stream = TimeTagStream(times, dets, 10_000.0, 1000.0)
    with pytest.raises(ValueError, match="window_periods = 5 expects 1.68e[+]07 tag pairs"):
        correlation_histogram(stream)


def test_histogram_counts_every_cross_pair_once():
    stream = simulate_hbt(get_preset("nv"), 200_000, _rng(202, 3))
    hist = correlation_histogram(stream)
    t0 = stream.times_ns[stream.detectors == 0]
    t1 = stream.times_ns[stream.detectors == 1]
    window = hist.window_periods * stream.rep_period_ns
    brute = sum(int(np.sum(np.abs(t1 - t) <= window)) for t in t0)
    assert int(hist.counts.sum()) == brute


# a 2 ns lattice divides the 40 ns window of 5 periods, so lattice pairs
# land exactly on +-window; lonely tags sit at the ends, far outside it
_PERIOD, _DURATION, _LONELY = 8.0, 2000.0, (0.0, 1999.5)
_lattice = st.integers(50, 150).map(lambda k: 2.0 * k)
_anywhere = st.floats(100.0, 1900.0, allow_nan=False)


@st.composite
def _tag_streams(draw):
    # (time, detector, copies): copies > 1 is a burst of equal times
    tags = draw(st.lists(
        st.tuples(st.one_of(_lattice, _anywhere), st.integers(0, 1), st.integers(1, 12)),
        max_size=40,
    ))
    times = [t for t, _, copies in tags for _ in range(copies)]
    dets = [d for _, d, copies in tags for _ in range(copies)]
    for end in _LONELY:
        if draw(st.booleans()):
            times.append(end)
            dets.append(draw(st.integers(0, 1)))
    if times and draw(st.booleans()):
        # one detector holds a single tag
        lone = draw(st.integers(0, len(times) - 1))
        side = draw(st.integers(0, 1))
        dets = [side if i == lone else 1 - side for i in range(len(times))]
    order = np.argsort(times, kind="stable")
    return TimeTagStream(np.asarray(times, dtype=np.float64)[order],
                         np.asarray(dets, dtype=np.uint8)[order], _DURATION, _PERIOD)


def _oracle(stream, edges, window):
    """Pairs of each detector-0 tag and histogram counts, testing every
    (t0, t1) pair."""
    t0 = stream.times_ns[stream.detectors == 0][:, None]
    t1 = stream.times_ns[stream.detectors == 1][None, :]
    inside = (t1 >= t0 - window) & (t1 <= t0 + window)
    return inside.sum(axis=1), np.histogram((t1 - t0)[inside], bins=edges)[0]


@given(
    stream=_tag_streams(),
    window_periods=st.integers(5, 7),
    bin_width=st.sampled_from([0.5, 1.0, 3.0]),
    chunk=st.sampled_from([1, 2, 5, 1 << 20]),
)
# a pair exactly at each edge of the window, and equal times across detectors
@example(
    stream=TimeTagStream(np.array([0.0, 100.0, 140.0, 180.0, 180.0, 1999.5]),
                         np.array([1, 0, 1, 0, 1, 0], dtype=np.uint8), _DURATION, _PERIOD),
    window_periods=5, bin_width=1.0, chunk=1,
)
# pairs inside the window by one neighbour test and not by the other.  Here
# t1 <= t0 + w holds but t0 >= t1 - w does not, and t1 - t0 rounds to w, so
# the pair lands in the last bin ...
@example(
    stream=TimeTagStream(np.array([11.939645736564932, 51.939645736564934]),
                         np.array([0, 1], dtype=np.uint8), _DURATION, _PERIOD),
    window_periods=5, bin_width=1.0, chunk=1 << 20,
)
# ... and here t1 >= t0 - w holds but t0 <= t1 + w does not (w = 40 + 2^-43
# and t0 - t1 = w + 2^-43 are both ties, rounded to even).  Its delay lies
# past -w, as it must for any such pair, so only the pair count shows it
@example(
    stream=TimeTagStream(np.array([1024.0, 1064.0 + 2.0**-42]),
                         np.array([1, 0], dtype=np.uint8), _DURATION, 8.000000000000023),
    window_periods=5, bin_width=1.0, chunk=1 << 20,
)
@settings(max_examples=300, deadline=None)
def test_histogram_matches_the_all_pairs_oracle(stream, window_periods, bin_width, chunk):
    n_one = int(stream.detectors.sum())
    with mock.patch.object(hbt, "_PAIR_CHUNK", chunk):
        if n_one in (0, len(stream)):
            with pytest.raises(InsufficientDataError):
                correlation_histogram(stream, bin_width, window_periods)
            return
        with (mock.patch.object(hbt, "check_events", wraps=hbt.check_events) as cap,
              mock.patch.object(np, "histogram", wraps=np.histogram) as runs):
            hist = correlation_histogram(stream, bin_width, window_periods)
    window = window_periods * stream.rep_period_ns
    n_bins = int(round(2.0 * window / bin_width))
    assert np.array_equal(hist.bin_edges_ns, np.linspace(-window, window, n_bins + 1))
    per_tag, counts = _oracle(stream, hist.bin_edges_ns, window)
    # the cap sees the exact pair count, and the histogram every pair in range
    assert cap.call_args.args[2] == per_tag.sum()
    assert np.array_equal(hist.counts, counts)
    # no run expands more pairs than the chunk, unless one tag has more
    assert sum(c.args[0].size for c in runs.call_args_list) == per_tag.sum()
    assert max((c.args[0].size for c in runs.call_args_list), default=0) <= max(
        chunk, per_tag.max())


def test_one_detector_stream_has_no_histogram():
    # a dense burst, every tag within the window of the next, on one detector
    times = np.arange(50, dtype=np.float64)
    for det in (0, 1):
        stream = TimeTagStream(times, np.full(50, det, dtype=np.uint8), 1000.0, 100.0)
        with pytest.raises(InsufficientDataError, match="both detectors"):
            correlation_histogram(stream)


def test_peaks_sit_on_pulse_lattice(nv_hist_1e7):
    # emission delays are tens of ns against a 1000 ns period, so counts
    # between lattice points should be a trickle compared to the peak cores
    hist = nv_hist_1e7
    period = hist.rep_period_ns
    centers = hist.tau_centers_ns
    frac = np.abs(((centers + period / 2) % period) - period / 2)
    core = int(hist.counts[frac < 150.0].sum())
    gaps = int(hist.counts[frac > 300.0].sum())
    assert gaps < 0.01 * core


def test_g2_recovery_nv(nv_hist_1e7):
    assert g2_at_zero(nv_hist_1e7) == pytest.approx(0.09, abs=0.02)


def test_g2_recovery_siv():
    # siv's centre peak expects N mu^2 g2 / 4 = 144 coincidences at 1e8
    # pulses, so the estimate's sigma is 0.0034 and the band is 4.4 sigma
    # (at 1e7 pulses it was 1.4 sigma: one stream in seven fell outside)
    stream = simulate_hbt(get_preset("siv"), 100_000_000, _rng(101, 2))
    assert g2_at_zero(correlation_histogram(stream)) == pytest.approx(0.04, abs=0.015)


def test_g2_of_pure_single_photon_stream_vanishes():
    pure = SourceSpec(kind=SourceKind.SUB_POISSONIAN, mu=0.1, g2_zero=0.0)
    stream = simulate_hbt(pure, 10_000_000, _rng(202, 1))
    assert g2_at_zero(correlation_histogram(stream)) <= 0.01


def test_g2_of_poissonian_light_is_flat():
    stream = simulate_hbt(get_preset("wcp"), 1_000_000, _rng(101, 4))
    assert g2_at_zero(correlation_histogram(stream)) == pytest.approx(1.0, abs=0.05)


def test_g2_estimate_tightens_with_more_pulses():
    coarse = simulate_hbt(get_preset("nv"), 1_000_000, _rng(303, 0))
    g_coarse = g2_at_zero(correlation_histogram(coarse))
    assert g_coarse == pytest.approx(0.09, abs=0.04)


def test_g2_needs_populated_side_peaks():
    # one coincident pair and nothing else: side peaks are all empty
    stream = TimeTagStream(
        np.array([5.0, 5.5]), np.array([0, 1], dtype=np.uint8), 20_000.0, 1000.0
    )
    with pytest.raises(InsufficientDataError):
        g2_at_zero(correlation_histogram(stream))


def test_lifetime_recovery_nv(nv_stream_1e7):
    fit = fit_lifetime(nv_stream_1e7)
    assert fit.reliable
    assert fit.tau_ns == pytest.approx(28.5, abs=1.0)
    assert 0 < fit.sigma_ns < 0.5


def test_lifetime_recovery_siv():
    stream = simulate_hbt(get_preset("siv"), 10_000_000, _rng(101, 2))
    fit = fit_lifetime(stream)
    assert fit.reliable
    assert fit.tau_ns == pytest.approx(3.0, abs=0.3)


def test_lifetime_beyond_period_flagged_unreliable():
    slow = SourceSpec(
        kind=SourceKind.SUB_POISSONIAN, mu=0.5, g2_zero=0.0, lifetime_ns=3000.0
    )
    stream = simulate_hbt(slow, 200_000, _rng(202, 2))
    fit = fit_lifetime(stream)
    assert not fit.reliable


def test_lifetime_needs_counts():
    stream = simulate_hbt(get_preset("nv"), 2_000, _rng(9), detection_eff=0.05)
    with pytest.raises(InsufficientDataError):
        fit_lifetime(stream)
