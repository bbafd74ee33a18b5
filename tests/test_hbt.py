"""HBT simulation, correlation histogram, g2 and lifetime estimators."""

import hashlib
import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spsqkd import _threads, cli, hbt
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


def _windows_alone(source, n_pulses, rng, window_tags, splitter_ratio, detection_eff=1.0):
    """Each window's sorted tags and their detectors, built alone from its
    own generator, joined in window order."""
    period = source.rep_period_ns
    duration = n_pulses * period
    size = max(1, math.floor(window_tags / (source.mu * detection_eff)))
    starts = range(0, n_pulses, size)
    times, dets = [], []
    for start, gen in zip(starts, [rng, *rng.spawn(len(starts) - 1)]):
        events = hbt.sample_photon_numbers(
            source, min(size, n_pulses - start), gen, detection_eff)
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
    simulate_hbt(slow, 4_000, _rng(8, 1), splitter_ratio=0.3)  # first-call caches
    tracemalloc.start()
    try:
        stream = simulate_hbt(slow, 4_000, _rng(8, 1), splitter_ratio=0.3)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    joined, dets = _windows_alone(slow, 4_000, _rng(8, 1), 4, splitter_ratio=0.3)
    assert np.count_nonzero(np.diff(joined) < 0) > 100
    # the stream is the joined windows put in order by one stable sort
    order = np.argsort(joined, kind="stable")
    assert np.all(np.diff(stream.times_ns) >= 0)
    assert np.array_equal(stream.times_ns, joined[order])
    assert np.array_equal(stream.detectors, dets[order])
    if reserve_sigmas < 0:
        # each growth copies the filled part into buffers an eighth larger, so
        # the stream holds at most 9/8 of its tags; np.resize tiled the old
        # buffer into twice its size, and held 35.6 KB here for 17.5 KB of tags
        tags = stream.times_ns.nbytes + stream.detectors.nbytes
        assert held <= 9 / 8 * tags + 8192


@pytest.mark.parametrize("ratio", [0.5, 0.3])
@pytest.mark.parametrize("eff", [1.0, 0.37])
@pytest.mark.parametrize("preset", ["nv", "siv", "siv80", "ideal10", "ideal95", "wcp", "decoy"])
def test_windows_are_the_repeated_index_and_its_delays(preset, eff, ratio, monkeypatch):
    # about 8,000 tags in windows of 2^8: each window inserts the copies of
    # its multiphoton events, few for the emitters and 14-23% of events for
    # the Poisson sources, and must give the tags of np.repeat and
    # exponential(lifetime)
    source = get_preset(preset)
    n = math.ceil(8_000 / (source.mu * eff))
    monkeypatch.setattr(hbt, "_WINDOW_TAGS", 1 << 8)
    stream = simulate_hbt(source, n, _rng(8, 2), splitter_ratio=ratio, detection_eff=eff)
    joined, dets = _windows_alone(source, n, _rng(8, 2), 1 << 8, ratio, eff)
    order = np.argsort(joined, kind="stable")
    assert len(stream) > 7_000
    assert np.array_equal(stream.times_ns, joined[order])
    assert np.array_equal(stream.detectors, dets[order])


@pytest.mark.parametrize("lifetime", [0.1, 0.8, 3.0, 28.5])
def test_scaled_standard_exponentials_are_numpys_exponentials(lifetime):
    # the windows draw their delays as lifetime * E; numpy's exponential
    # makes the same product from the same draws
    scaled = _rng(8, 3).standard_exponential(100_000)
    scaled *= lifetime
    assert np.array_equal(scaled, _rng(8, 3).exponential(lifetime, 100_000))


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


def _reference_phase_counts(stream, n_bins):
    """Every detector-0 phase by ``% period`` and one ``np.histogram``."""
    period = stream.rep_period_ns
    phases = stream.times_ns[stream.detectors == 0] % period
    return np.histogram(phases, bins=n_bins, range=(0.0, period))[0]


def _reference_fit(stream, bin_width_ns, monkeypatch):
    """fit_lifetime on the reference counts: its LifetimeFit or its refusal."""
    with monkeypatch.context() as mp:
        mp.setattr(hbt, "_phase_counts", _reference_phase_counts)
        try:
            return fit_lifetime(stream, bin_width_ns)
        except InsufficientDataError as exc:
            return str(exc)


def test_lifetime_phase_blocks_add_up_to_one_pass(monkeypatch):
    # blocks of 7 tags: integer counts add exactly, so the fit is that of
    # one block over the stream, and the counts those of every detector-0 phase
    stream = simulate_hbt(get_preset("nv"), 1_000_000, _rng(10, 1))
    assert 7 < len(stream) < hbt._PHASE_BLOCK
    n_bins = int(stream.rep_period_ns)
    oracle = _reference_phase_counts(stream, n_bins)
    whole = fit_lifetime(stream)
    assert whole == _reference_fit(stream, 1.0, monkeypatch)
    assert np.array_equal(hbt._phase_counts(stream, n_bins), oracle)
    monkeypatch.setattr(hbt, "_PHASE_BLOCK", 7)
    with (mock.patch.object(np, "bincount", wraps=np.bincount) as binned,
          mock.patch.object(np, "histogram", wraps=np.histogram) as exact):
        assert np.array_equal(hbt._phase_counts(stream, n_bins), oracle)
        assert fit_lifetime(stream) == whole
    # per block, one bincount of its tags and one of its edge tags taken
    # back out, in each of the two passes (np.histogram's own bincount
    # passes weights); the edge tags are histogrammed once 7 are held, so
    # fewer than two blocks of them at a time
    blocks = [c.args[0].size for c in binned.call_args_list if "weights" not in c.kwargs]
    assert len(blocks) == 2 * 2 * -(-len(stream) // 7) and max(blocks) <= 7
    assert max(c.args[0].size for c in exact.call_args_list) < 2 * 7
    # no block at all: empty counts, refused like any sparse stream
    period = stream.rep_period_ns
    empty = TimeTagStream(np.zeros(0), np.zeros(0, dtype=np.uint8), 1e6, period)
    with pytest.raises(InsufficientDataError, match="100 counts"):
        fit_lifetime(empty)


def _edge_stream(period, n_bins, duration, rng):
    """Tags on every float bin edge of pulses spread up to ``duration``, and
    one and two ulps either side, among tags decaying from the pulses."""
    edges = np.linspace(0.0, period, n_bins + 1)
    top = int(duration // period) - 2
    pulses = np.unique(np.r_[0, 1, 2, np.geomspace(3, top, 30).astype(np.int64), top])
    on = (pulses[:, None] * period + edges).ravel()
    around = [on]
    up = down = on
    for _ in range(2):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        around += [up, down]
    decay = rng.choice(pulses, 20_000) * period + rng.exponential(period / 8, 20_000)
    times = np.concatenate([*around, decay])
    times = times[(times >= 0) & (times < duration)]
    order = np.argsort(times, kind="stable")
    dets = rng.integers(0, 2, times.size).astype(np.uint8)
    return TimeTagStream(times[order], dets, duration, period)


def test_lifetime_counts_are_exact_at_the_bin_edges(monkeypatch):
    # tags at and next to the float edges np.histogram bins by, up to the
    # 5.7e11-ns tag cap, for periods exact and not exact in binary
    rng = _rng(10, 2)
    misbinned = 0
    for period in (1000.0, 12.5, 1e9 / 3e6):
        for width in (1.0, 0.37, period / 7):
            n_bins = max(4, int(round(period / width)))
            stream = _edge_stream(period, n_bins, 5.7e11, rng)
            oracle = _reference_phase_counts(stream, n_bins)
            assert np.array_equal(hbt._phase_counts(stream, n_bins), oracle)
            with monkeypatch.context() as mp:
                mp.setattr(hbt, "_PHASE_BLOCK", 1 << 10)
                assert np.array_equal(hbt._phase_counts(stream, n_bins), oracle)
            try:
                fit = fit_lifetime(stream, width)
            except InsufficientDataError as exc:
                fit = str(exc)
            assert fit == _reference_fit(stream, width, monkeypatch)
            # the stream reaches where the product alone bins wrong
            zero = stream.times_ns[stream.detectors == 0]
            naive = np.floor(zero * (n_bins / period)).astype(np.int64) % n_bins
            misbinned += not np.array_equal(np.bincount(naive, minlength=n_bins), oracle)
    assert misbinned > 0


@pytest.mark.parametrize("period, width", [(1000.0, 1.0), (1e9 / 3e6, 0.37), (12.5, 0.37)])
def test_lifetime_counts_fold_products_past_two_to_the_31(period, width):
    # products t * n_bins / period up to 2^33, past the int32 range, with
    # bin counts that divide the period and that do not
    n_bins = int(round(period / width))
    stream = _edge_stream(period, n_bins, 2.0**33 * period / n_bins, _rng(10, 4))
    products = stream.times_ns * (n_bins / period)
    assert products.max() > 2.0**32 and np.count_nonzero(products > 2.0**31) > 1000
    assert np.array_equal(hbt._phase_counts(stream, n_bins),
                          _reference_phase_counts(stream, n_bins))


def test_lifetime_counts_take_the_remainder_when_the_product_is_too_coarse():
    # over 2^48 ns of 1-ns bins a product's rounding reaches half a bin, so
    # every detector-0 tag takes the remainder and np.histogram
    period = 1000.0
    stream = _edge_stream(period, 1000, 2.0**48, _rng(10, 3))
    with mock.patch.object(np, "histogram", wraps=np.histogram) as exact:
        counts = hbt._phase_counts(stream, 1000)
    assert np.array_equal(counts, _reference_phase_counts(stream, 1000))
    assert sum(c.args[0].size for c in exact.call_args_list) == \
        np.count_nonzero(stream.detectors == 0)


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


def _burst():
    """4097 tags per detector inside one nanosecond: every tag pairs with
    every other, 4097^2 > 2^24 pairs."""
    n = 4097
    times = np.arange(2 * n) / (2.0 * n)
    dets = np.tile(np.array([0, 1], dtype=np.uint8), n)
    return TimeTagStream(times, dets, 10_000.0, 1000.0)


def test_histogram_pairs_are_capped():
    with pytest.raises(ValueError, match="window_periods = 5 expects 1.68e[+]07 tag pairs"):
        correlation_histogram(_burst())


@pytest.mark.parametrize("run", ["burst", "cli-ideal95"])
def test_a_refused_stream_histograms_no_delay(run, tmp_path, monkeypatch, capsys):
    # both walks would step through thousands of offsets a tag, so the
    # spans' searches count the pairs; the cap refuses before any delay is
    # binned or any span walked
    with (mock.patch.object(np, "histogram", wraps=np.histogram) as binned,
          mock.patch.object(hbt, "_spans", wraps=hbt._spans) as searched):
        if run == "burst":
            with pytest.raises(ValueError, match="expects 1.68e[+]07 tag pairs"):
                correlation_histogram(_burst())
        else:
            monkeypatch.chdir(tmp_path)
            assert cli.main(["g2", "--preset", "ideal95", "--pulses", "100000",
                             "--window-periods", "100000", "--quiet"]) == 2
            assert "expects 2.25e+09 tag pairs" in capsys.readouterr().err
    assert searched.call_count == 1
    # no histogram over a delay window; the fit bins its phases over (0, period)
    assert [c for c in binned.call_args_list if c.kwargs["range"][0] < 0] == []


def _recording_walk(name="_offset_steps"):
    """A stand-in for ``hbt._offset_steps`` (or ``hbt._span_steps``), and the
    list in which it records, for each walk, the largest array of each step."""
    walks = []
    steps = getattr(hbt, name)

    def recorded(*args):
        walks.append([])
        for step in steps(*args):
            walks[-1].append(max(a.size for a in step) if isinstance(step, tuple) else step.size)
            yield step

    return recorded, walks


def _brute_pair_count(stream, window):
    t0 = stream.times_ns[stream.detectors == 0]
    t1 = stream.times_ns[stream.detectors == 1]
    return sum(int(np.sum(np.abs(t1 - t) <= window)) for t in t0)


def test_histogram_counts_every_cross_pair_once():
    stream = simulate_hbt(get_preset("nv"), 200_000, _rng(202, 3))
    hist = correlation_histogram(stream)
    window = hist.window_periods * stream.rep_period_ns
    assert int(hist.counts.sum()) == _brute_pair_count(stream, window)


@pytest.mark.parametrize("preset, n_pulses, offsets",
                         [("ideal95", 20_000, 7), ("wcp", 30_000, 10)])
def test_dense_histograms_count_every_cross_pair_once(preset, n_pulses, offsets, monkeypatch):
    # a tag per pulse, or a Poisson 0.31, keeps the walk going for several
    # offsets past the nv stream's three
    stream = simulate_hbt(get_preset(preset), n_pulses, _rng(202, 3))
    recorded, walks = _recording_walk()
    monkeypatch.setattr(hbt, "_offset_steps", recorded)
    hist = correlation_histogram(stream)
    window = hist.window_periods * stream.rep_period_ns
    assert int(hist.counts.sum()) == _brute_pair_count(stream, window)
    assert max(len(walk) for walk in walks) == offsets


@pytest.mark.parametrize("ratio", [0.999, 0.001])
def test_a_lopsided_wide_window_walks_in_step_with_its_pairs(ratio, monkeypatch):
    # nearly every tag on one detector and a window over the whole stream:
    # almost every near pair is on one detector, so the offset walk stops at
    # its budget, and the span walk takes each cross pair once, stepping from
    # the more numerous detector's tags as often as the fewer detector has tags
    stream = simulate_hbt(get_preset("ideal95"), 20_000, _rng(202, 4), splitter_ratio=ratio)
    offset_steps, offset_walks = _recording_walk()
    span_steps, span_walks = _recording_walk("_span_steps")
    monkeypatch.setattr(hbt, "_offset_steps", offset_steps)
    monkeypatch.setattr(hbt, "_span_steps", span_steps)
    hist = correlation_histogram(stream, window_periods=20_000)
    n, n_one = len(stream), int(stream.detectors.sum())
    pairs = _brute_pair_count(stream, hist.window_periods * stream.rep_period_ns)
    assert int(hist.counts.sum()) == pairs
    assert sum(map(sum, offset_walks)) <= hbt._WALK_BUDGET * n + hbt._WALK_BLOCK
    [span_walk] = span_walks
    assert sum(span_walk) == pairs
    assert len(span_walk) <= min(n_one, n - n_one) < 50


def test_the_walk_budget_counts_step_one_over_the_whole_block(monkeypatch):
    # step 1 compares every tag of an nv stream (one block) with its next,
    # though only about one in seven is a candidate it yields; at a budget
    # of one step a tag, step 2 trips the budget, and the spans count the pairs
    stream = simulate_hbt(get_preset("nv"), 2_000_000, _rng(202, 5))
    offset_steps, walks = _recording_walk()
    span_steps, span_walks = _recording_walk("_span_steps")
    monkeypatch.setattr(hbt, "_offset_steps", offset_steps)
    monkeypatch.setattr(hbt, "_span_steps", span_steps)
    monkeypatch.setattr(hbt, "_WALK_BUDGET", 1)
    hist = correlation_histogram(stream)
    [walk] = walks
    assert len(stream) < hbt._WALK_BLOCK and walk[0] * 4 < len(stream)
    assert len(walk) == 2 and len(span_walks) == 1
    assert int(hist.counts.sum()) == _brute_pair_count(stream, 5 * stream.rep_period_ns)


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
    block=st.sampled_from([1, 2, 5, hbt._WALK_BLOCK]),
    budget=st.sampled_from([0, hbt._WALK_BUDGET]),
)
# a pair exactly at each edge of the window, and equal times across detectors
@example(
    stream=TimeTagStream(np.array([0.0, 100.0, 140.0, 180.0, 180.0, 1999.5]),
                         np.array([1, 0, 1, 0, 1, 0], dtype=np.uint8), _DURATION, _PERIOD),
    window_periods=5, bin_width=1.0, chunk=1, block=hbt._WALK_BLOCK, budget=hbt._WALK_BUDGET,
)
# pairs straddling a block seam: in blocks of 2, the tags at 100 and 120
# pair with the one at 130, the first tag of the next block
@example(
    stream=TimeTagStream(np.array([100.0, 120.0, 130.0]),
                         np.array([0, 0, 1], dtype=np.uint8), _DURATION, _PERIOD),
    window_periods=5, bin_width=1.0, chunk=1 << 20, block=2, budget=hbt._WALK_BUDGET,
)
# pairs inside the window by one neighbour test and not by the other.  Here
# t1 <= t0 + w holds but t0 >= t1 - w does not, and t1 - t0 rounds to w, so
# the pair lands in the last bin ...
@example(
    stream=TimeTagStream(np.array([11.939645736564932, 51.939645736564934]),
                         np.array([0, 1], dtype=np.uint8), _DURATION, _PERIOD),
    window_periods=5, bin_width=1.0, chunk=1 << 20, block=hbt._WALK_BLOCK,
    budget=hbt._WALK_BUDGET,
)
# ... and here t1 >= t0 - w holds but t0 <= t1 + w does not (w = 40 + 2^-43
# and t0 - t1 = w + 2^-43 are both ties, rounded to even).  Its delay lies
# past -w, as it must for any such pair, so only the pair count shows it
@example(
    stream=TimeTagStream(np.array([1024.0, 1064.0 + 2.0**-42]),
                         np.array([1, 0], dtype=np.uint8), _DURATION, 8.000000000000023),
    window_periods=5, bin_width=1.0, chunk=1 << 20, block=hbt._WALK_BLOCK,
    budget=hbt._WALK_BUDGET,
)
# pairs whose delay t1 - t0 rounds past w while one neighbour test passes:
# step 1's filter by the subtraction alone, with no slack, would drop them.
# Here t0 + w rounds up to t1 ...
@example(
    stream=TimeTagStream(np.array([509.1733452896346, 549.1733452896347]),
                         np.array([0, 1], dtype=np.uint8), _DURATION, _PERIOD),
    window_periods=5, bin_width=1.0, chunk=1 << 20, block=hbt._WALK_BLOCK,
    budget=hbt._WALK_BUDGET,
)
# ... and here t0 - w rounds down to t1, detector 1's tag coming first
@example(
    stream=TimeTagStream(np.array([1677.1225282239693, 1717.1225282239695]),
                         np.array([1, 0], dtype=np.uint8), _DURATION, 8.000000000000023),
    window_periods=5, bin_width=1.0, chunk=1 << 20, block=hbt._WALK_BLOCK,
    budget=hbt._WALK_BUDGET,
)
# ... and the same pairs through the spans, each walked from the detector
# with more tags: from detector 1's search in t0 + w and t0 - w
@example(
    stream=TimeTagStream(np.array([11.939645736564932, 51.939645736564934, 1999.5]),
                         np.array([0, 1, 0], dtype=np.uint8), _DURATION, _PERIOD),
    window_periods=5, bin_width=1.0, chunk=1 << 20, block=hbt._WALK_BLOCK, budget=0,
)
@example(
    stream=TimeTagStream(np.array([1024.0, 1064.0 + 2.0**-42, 1999.5]),
                         np.array([1, 0, 1], dtype=np.uint8), _DURATION, 8.000000000000023),
    window_periods=5, bin_width=1.0, chunk=1 << 20, block=hbt._WALK_BLOCK, budget=0,
)
@settings(max_examples=300, deadline=None)
def test_histogram_matches_the_all_pairs_oracle(stream, window_periods, bin_width, chunk,
                                               block, budget):
    n_one = int(stream.detectors.sum())
    offset_steps, walks = _recording_walk()
    span_steps, span_walks = _recording_walk("_span_steps")
    with (mock.patch.object(hbt, "_PAIR_CHUNK", chunk),
          mock.patch.object(hbt, "_WALK_BLOCK", block),
          mock.patch.object(hbt, "_WALK_BUDGET", budget),
          mock.patch.object(hbt, "_offset_steps", offset_steps),
          mock.patch.object(hbt, "_span_steps", span_steps)):
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
    # every pair's delay is binned once, in batches of at most the chunk,
    # and no step of either walk holds more tags than the block
    assert sum(c.args[0].size for c in runs.call_args_list) == per_tag.sum()
    assert max((c.args[0].size for c in runs.call_args_list), default=0) <= chunk
    assert max((size for walk in walks + span_walks for size in walk), default=0) <= block


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


def _masked_peak_areas(hist):
    # one mask over every bin centre per peak, O(window x bins): the scan
    # _peak_areas replaced, kept as its oracle
    period = hist.rep_period_ns
    centers = hist.tau_centers_ns
    half = period / 2.0
    center_area = int(hist.counts[np.abs(centers) < half].sum())
    side_areas = []
    for k in range(1, hist.window_periods):
        for sign in (1, -1):
            mask = np.abs(centers - sign * k * period) < half
            side_areas.append(int(hist.counts[mask].sum()))
    return center_area, side_areas


@given(
    period=st.sampled_from([12.5, 1e9 / 3e6]),
    # bins a period: whole numbers give widths that divide the period
    bins_per_period=st.sampled_from([2, 5, 8, 25, 2.5, 7.3, 12.5, 33.3]),
    window_periods=st.integers(5, 300),
    seed=st.integers(0, 2**32 - 1),
)
@example(period=12.5, bins_per_period=12.5, window_periods=5, seed=0)
@example(period=1e9 / 3e6, bins_per_period=33.3, window_periods=300, seed=1)
@settings(max_examples=200, deadline=None)
def test_peak_areas_match_the_mask_oracle(period, bins_per_period, window_periods, seed):
    # edges as correlation_histogram lays them out; odd bin counts a period
    # put centres on the peak boundaries, where the float test decides
    window = window_periods * period
    n_bins = int(round(2.0 * window / (period / bins_per_period)))
    counts = np.random.default_rng(seed).integers(0, 4, n_bins)
    hist = CorrelationHistogram(counts, np.linspace(-window, window, n_bins + 1),
                                period / bins_per_period, window_periods, period)
    center_area, side_areas = hbt._peak_areas(hist)
    assert (center_area, side_areas.tolist()) == _masked_peak_areas(hist)


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
