"""HBT simulation, correlation histogram, g2 and lifetime estimators."""

import struct

import numpy as np
import pytest

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
from spsqkd.sources import SourceKind, SourceSpec, get_preset


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


def test_histogram_counts_every_cross_pair_once():
    stream = simulate_hbt(get_preset("nv"), 200_000, _rng(202, 3))
    hist = correlation_histogram(stream)
    t0 = stream.times_ns[stream.detectors == 0]
    t1 = stream.times_ns[stream.detectors == 1]
    window = hist.window_periods * stream.rep_period_ns
    brute = sum(int(np.sum(np.abs(t1 - t) <= window)) for t in t0)
    assert int(hist.counts.sum()) == brute


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
    stream = simulate_hbt(get_preset("siv"), 10_000_000, _rng(101, 2))
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


def test_csv_round_trip():
    stream = simulate_hbt(get_preset("nv"), 50_000, _rng(404, 0))
    back = TimeTagStream.from_csv_text(stream.to_csv_text())
    assert np.allclose(back.times_ns, stream.times_ns, atol=5e-4)
    assert np.array_equal(back.detectors, stream.detectors)
    assert back.duration_ns == stream.duration_ns
    assert back.rep_period_ns == stream.rep_period_ns


def test_binary_round_trip():
    stream = simulate_hbt(get_preset("nv"), 50_000, _rng(404, 1))
    blob = stream.to_bytes()
    # the record layout, packed tag by tag as the reference
    ps = np.round(stream.times_ns * 1000.0).astype(np.uint64)
    records = zip(ps.tolist(), stream.detectors.tolist())
    assert blob == b"".join(struct.pack("<QB", t, d) for t, d in records)
    back = TimeTagStream.from_bytes(blob, stream.duration_ns, stream.rep_period_ns)
    assert np.allclose(back.times_ns, stream.times_ns, atol=5e-4)
    assert np.array_equal(back.detectors, stream.detectors)
    # picosecond quantization is idempotent
    assert back.to_bytes() == blob


def test_binary_rejects_ragged_payload():
    with pytest.raises(ValueError):
        TimeTagStream.from_bytes(b"\x00" * 10, 100.0, 1.0)
