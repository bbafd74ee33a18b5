"""Distribution checks of the event-driven samplers against closed forms.

The samplers draw only the pulses where something happens, so a seed no
longer pins per-pulse bytes worth freezing.  These tests pin the
distributions instead: chi-square statistics of the sampled class counts
against the photon-number table and the click model, and the ordering of
the event indices.  A session's coin flips are the bits of the generator's
bytes, and CASCADE's confirmation subsets are drawn as packed random words,
so both are held to fair, independent coins here too.
"""

import math
import tracemalloc

import numpy as np
import pytest

from spsqkd import bb84, hbt, reconciliation, sources
from spsqkd.bb84 import _detector_clicks, run_session
from spsqkd.channel import LinkSpec, exact_click_probability
from spsqkd.sources import (
    get_preset,
    photon_number_distribution,
    sample_events,
    thinned_distribution,
)


def _chi2_limit(dof: int) -> float:
    """Chi-square value 4 sigma out (Wilson-Hilferty normal approximation)."""
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c + 4.0 * math.sqrt(c)) ** 3


def _chi2(observed: np.ndarray, expected: np.ndarray) -> tuple[float, int]:
    """Statistic and degrees of freedom, after pooling bins below 5 expected.

    Bins are pooled from the last one backwards, so a thin tail joins its
    neighbour; the expected counts must already sum to the observed total.
    """
    obs, exp = [], []
    o_acc = e_acc = 0.0
    for o, e in zip(observed[::-1], expected[::-1]):
        o_acc, e_acc = o_acc + o, e_acc + e
        if e_acc >= 5.0:
            obs.append(o_acc)
            exp.append(e_acc)
            o_acc = e_acc = 0.0
    if obs:
        obs[-1] += o_acc
        exp[-1] += e_acc
    obs_a, exp_a = np.array(obs), np.array(exp)
    return float(np.sum((obs_a - exp_a) ** 2 / exp_a)), len(obs) - 1


@pytest.mark.parametrize("preset", ["nv", "siv80", "wcp", "decoy"])
def test_photon_number_counts_match_the_table(preset):
    spec = get_preset(preset)
    n = 20_000_000
    seed = ["nv", "siv80", "wcp", "decoy"].index(preset)
    events = sources.sample_photon_numbers(spec, n, np.random.default_rng([31, seed]))
    dist = photon_number_distribution(spec)
    counts = np.bincount(events.photons, minlength=dist.size).astype(np.float64)
    assert counts.size == dist.size and counts[0] == 0
    counts[0] = n - events.photons.size  # the vacuum pulses are the ones not drawn
    stat, dof = _chi2(counts, n * dist)
    assert dof >= 2
    assert stat < _chi2_limit(dof), (preset, stat, dof)


@pytest.mark.parametrize("preset", ["wcp", "decoy"])
def test_arrived_photons_and_dark_patterns_match_the_joint_table(preset):
    # every class (k arrived, dark pattern d) of a lossy, noisy link, with
    # the expected counts from the loss-thinned table times the dark pattern
    # of two detectors each firing at half the dark probability
    spec, n, eta, dark = get_preset(preset), 2_000_000, 0.4, 0.02
    seed = ["wcp", "decoy"].index(preset)
    events = sources.sample_photon_numbers(spec, n, np.random.default_rng([53, seed]),
                                           efficiency=eta, dark_count_prob=dark)
    q = sources.thinned_distribution(photon_number_distribution(spec), eta)
    h = dark / 2.0
    expected = n * np.outer(q, [(1 - h) ** 2, h * (1 - h), h * (1 - h), h * h]).ravel()
    counts = np.bincount(4 * events.photons + events.dark, minlength=expected.size)
    counts = counts.astype(np.float64)
    assert counts.size == expected.size and counts[0] == 0
    counts[0] = n - events.pulse_index.size
    stat, dof = _chi2(counts, expected)
    assert dof >= 8
    assert stat < _chi2_limit(dof), (preset, stat, dof)


def _click_pattern_probs(spec, link: LinkSpec, misalignment: float) -> np.ndarray:
    """P(no click, one detector, both detectors) for one basis relation.

    A photon emitted reaches Bob's right detector with probability
    eta (1 - e) and the wrong one with eta e; each detector also fires dark
    at half the per-gate dark probability.  The no-click term is the one
    ``exact_click_probability`` complements.
    """
    dist = photon_number_distribution(spec)
    eta = link.total_efficiency
    quiet = 1.0 - link.dark_count_prob / 2.0

    def silent(p_photon):  # generating function of the photon number
        return float(np.dot(dist, (1.0 - p_photon) ** np.arange(dist.size))) * quiet

    none = silent(eta) * quiet
    right = silent(eta * (1.0 - misalignment))
    wrong = silent(eta * misalignment)
    return np.array([none, right + wrong - 2.0 * none, 1.0 - right - wrong + none])


# nv double clicks are rare (two-photon pulses and dark coincidences), so
# its run is long enough to expect a few dozen of them; the siv case is dark
# dominated, with dark coincidences as its double clicks
_CLICK_CASES = [
    ("wcp", 0.0, 2.4e-5, 2_000_000),
    ("decoy", 5.0, 2.4e-5, 2_000_000),
    ("nv", 0.0, 2.4e-5, 20_000_000),
    ("siv", 50.0, 0.02, 2_000_000),
]


@pytest.mark.parametrize("preset, distance_km, dark_count_prob, n", _CLICK_CASES)
def test_click_patterns_match_the_click_model(preset, distance_km, dark_count_prob, n):
    spec = get_preset(preset)
    link = LinkSpec(distance_km=distance_km, dark_count_prob=dark_count_prob)
    seed = [case[0] for case in _CLICK_CASES].index(preset)
    bit_rng = np.random.default_rng([37, seed])
    stat, dof = 0.0, 0
    for relation, e in (("matched", link.misalignment), ("mismatched", 0.5)):
        bits = bit_rng.integers(0, 2, (n, 3), dtype=np.uint8)
        bits[:, 2] = bits[:, 1] if relation == "matched" else 1 - bits[:, 1]
        res = run_session(spec, link, n, np.random.default_rng([41, seed]),
                          protocol_bits=np.packbits(bits.ravel()))
        counts = np.array([n - res.detected_count,
                           res.detected_count - res.double_click_count,
                           res.double_click_count], dtype=np.float64)
        probs = _click_pattern_probs(spec, link, e)
        assert probs[0] == pytest.approx(1.0 - exact_click_probability(spec, link), rel=1e-12)
        s, d = _chi2(counts, n * probs)
        stat, dof = stat + s, dof + d
    assert dof >= 3
    assert stat < _chi2_limit(dof), (preset, stat, dof)


_ROUTED_K = (0, 1, 2, 3, 8, 64)


def _routing_oracle(k: int, p: float, h: float) -> np.ndarray:
    """P(neither, detector 0 only, detector 1 only, both) from the binomial.

    j of the k photons land in detector 1, each with chance p; each detector
    also fires dark with chance h on its own.
    """
    probs = np.zeros(4)
    for j in range(k + 1):
        weight = math.comb(k, j) * p**j * (1.0 - p) ** (k - j)
        for d0 in (0, 1):
            for d1 in (0, 1):
                w = weight * (h if d0 else 1.0 - h) * (h if d1 else 1.0 - h)
                probs[((k - j > 0) | d0) + 2 * ((j > 0) | d1)] += w
    return probs


@pytest.mark.parametrize("photon_type", [np.uint8, np.int64])
@pytest.mark.parametrize("h", [0.0, 0.1], ids=["no-darks", "darks"])
@pytest.mark.parametrize("e", [0.0, 0.03])
def test_routing_matches_the_binomial_oracle(e, h, photon_type):
    # one call over a block of n pulses for every (k, kind): kind 0 is a
    # mismatched basis, kinds 1 and 2 matched ones with Alice's bit 0 and 1
    n = 20_000
    cases = [(k, kind) for k in _ROUTED_K for kind in range(3)]
    rng = np.random.default_rng([73, int(e > 0), int(h > 0), np.dtype(photon_type).itemsize])
    n_arrived = np.repeat([k for k, _ in cases], n).astype(photon_type)
    kinds = np.repeat([kind for _, kind in cases], n)
    alice_bit = (kinds == 2).astype(np.uint8)
    matched = kinds > 0
    dark0, dark1 = rng.random((2, kinds.size)) < h
    dark = (dark0 | dark1 << 1).astype(np.uint8)
    click0, click1 = _detector_clicks(n_arrived, alice_bit, matched, dark,
                                      LinkSpec(misalignment=e), rng)
    patterns = (click0 + 2 * click1).reshape(len(cases), n)
    stat, dof = 0.0, 0
    for (k, kind), block in zip(cases, patterns):
        probs = _routing_oracle(k, (0.5, e, 1.0 - e)[kind], h)
        counts = np.bincount(block, minlength=4).astype(np.float64)
        assert np.all(counts[probs == 0.0] == 0), (k, kind, counts)
        s, d = _chi2(counts, n * probs)
        stat, dof = stat + s, dof + d
    assert dof >= 7  # e = 0 without darks: only mismatched k = 1, 2, 3, 8 vary
    assert stat < _chi2_limit(dof), (stat, dof)


def _session_coins(bitgen, seeds, monkeypatch) -> tuple[np.ndarray, np.ndarray]:
    """The (Alice's bit, Alice's basis, Bob's basis) triplets and the
    double-click flips that sessions drew, pooled over one session a seed.

    wcp with a dark probability of 0.2 clicks on about a quarter of the
    pulses, 2% of them double clicks.
    """
    drawn = []
    coin_flips = bb84._coin_flips

    def record(rng, count):
        flips = coin_flips(rng, count)
        drawn.append(flips)
        return flips

    monkeypatch.setattr(bb84, "_coin_flips", record)
    link = LinkSpec(dark_count_prob=0.2)
    for seed in seeds:
        run_session(get_preset("wcp"), link, 1_000_000,
                    np.random.Generator(bitgen(np.random.SeedSequence([79, seed]))))
    assert len(drawn) == 2 * len(seeds)
    return np.concatenate(drawn[0::2]).reshape(-1, 3), np.concatenate(drawn[1::2])


def _fair_within_4_sigma(bits: np.ndarray) -> bool:
    return abs(float(bits.sum()) - bits.size / 2.0) < 4.0 * math.sqrt(bits.size / 4.0)


@pytest.mark.parametrize(
    "bitgen",
    [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.PCG64DXSM,
     np.random.SFC64],
)
def test_session_coins_are_fair_and_independent(bitgen, monkeypatch):
    # about 1.06e6 clicking pulses and 2.1e4 double clicks over four seeds
    triplets, doubles = _session_coins(bitgen, range(4), monkeypatch)
    assert triplets.shape[0] > 1_000_000 and doubles.size > 20_000
    for position in range(3):
        assert _fair_within_4_sigma(triplets[:, position]), position
    patterns = np.bincount(triplets @ np.array([4, 2, 1]), minlength=8)
    stat, dof = _chi2(patterns.astype(np.float64), np.full(8, triplets.shape[0] / 8.0))
    assert dof == 7
    assert stat < _chi2_limit(dof), (stat, patterns)
    assert _fair_within_4_sigma(doubles)


@pytest.mark.parametrize(
    "probs, n",
    [
        ([0.5, 0.5], 1_000),
        ([0.0, 1.0], 1_000),
        ([1.0 - 3e-5, 1e-5, 2e-5], 1_000_000),
        ([0.7, 0.2, 0.1], 5_000_000),
        ([1.0, 0.0], 1_000),
        ([1.0, 1e-300], 10**12),
        # every gap clipped to the run, 2^62 exactly, so a batch's int64 sums wrap
        ([1.0, 1e-300], 2**62 - 1),
        # a first gap of 2^63, past int64 but not uint64
        ([1.0, 1e-300], 2**63 - 1),
    ],
    ids=["half", "every-pulse", "rare", "multi-batch", "never", "vanishing", "wrapping",
         "int64-max"],
)
def test_event_indices_increase_within_the_run(probs, n):
    rng = np.random.default_rng(43)
    index, classes = sample_events(np.array(probs), n, rng)
    assert index.size == classes.size
    assert np.all(np.diff(index) > 0)
    assert index.size == 0 or (index[0] >= 0 and index[-1] < n)
    assert np.all((classes >= 1) & (classes < len(probs)))
    p = 1.0 - probs[0]
    if p == 1.0:
        assert np.array_equal(index, np.arange(n))
    else:
        assert abs(index.size - n * p) <= 4 * math.sqrt(n * p * (1 - p))


def test_small_batches_keep_the_gap_statistics(monkeypatch):
    # many short batches must chain into one memoryless sequence: event count
    # and class split as for one long batch, with no pulse lost at a seam
    monkeypatch.setattr(sources, "_MAX_BATCH", 16)
    n, probs = 200_000, np.array([0.5, 0.3, 0.2])
    index, classes = sample_events(probs, n, np.random.default_rng(47))
    assert np.all(np.diff(index) > 0) and index[-1] < n
    counts = np.array([n - index.size, np.sum(classes == 1), np.sum(classes == 2)])
    stat, dof = _chi2(counts.astype(np.float64), n * probs)
    assert stat < _chi2_limit(dof)


@pytest.mark.parametrize("p", [1e-4, 0.029, 0.0916, 0.33])
def test_gaps_are_numpys_geometric_below_a_third(p):
    # the gaps come from numpy's own exponential kernel, so below p = 1/3 the
    # events are the ones rng.geometric gives at the same seed, cut where the
    # next one would pass the last pulse
    n = 20_000_000 if p < 1e-3 else 2_000_000
    index, _ = sample_events(np.array([1.0 - p, p]), n, np.random.default_rng([59, 7]))
    gaps = np.random.default_rng([59, 7]).geometric(p, index.size + 1)
    assert index.size > 1000
    assert np.array_equal(index, np.cumsum(gaps[:-1]) - 1)
    assert index[-1] + gaps[-1] >= n


@pytest.mark.parametrize("p", [0.5, 0.95])
def test_gaps_follow_the_geometric_law_from_a_third_up(p):
    # above p = 1/3 the stream is not numpy's geometric, the law still is
    n = 1_000_000
    index, _ = sample_events(np.array([1.0 - p, p]), n, np.random.default_rng([61, 0]))
    gaps = np.diff(index, prepend=-1)
    counts = np.bincount(gaps).astype(np.float64)[1:]  # gap k at k - 1
    k = np.arange(1, counts.size + 1)
    expected = gaps.size * (1.0 - p) ** (k - 1) * p
    expected[-1] = gaps.size * (1.0 - p) ** (counts.size - 1)  # the tail past the longest
    stat, dof = _chi2(counts, expected)
    assert dof >= 3
    assert stat < _chi2_limit(dof), (p, stat, dof)


def _gap_counts(gaps: np.ndarray, law) -> tuple[float, int]:
    """Chi-square of positive integer gaps against ``law(k)``, the chance of
    gap k, with every gap past the longest observed in the last bin."""
    counts = np.bincount(gaps).astype(np.float64)[1:]  # gap k at k - 1
    k = np.arange(1, counts.size + 1)
    expected = gaps.size * law(k)
    expected[-1] = gaps.size - expected[:-1].sum()
    return _chi2(counts, expected)


def test_tag_streams_keep_their_laws_across_windows(monkeypatch):
    # windows of 412 pulses, each drawn from its own stream: 2427 seams in
    # 1e6 pulses.  Tag count, the gaps between tagged pulses (all of them,
    # and those holding a seam), and the splitter share must be those of
    # one memoryless run.  A bright source keeps the gaps short, so a seam
    # that lost a pulse, lengthening each seam gap by one, fails the test
    monkeypatch.setattr(hbt, "_WINDOW_TAGS", 64)
    wcp, n, eta, ratio = get_preset("wcp"), 1_000_000, 0.5, 0.3
    size = math.floor(64 / (wcp.mu * eta))
    stream = hbt.simulate_hbt(wcp, n, np.random.default_rng([79, 0]),
                              splitter_ratio=ratio, detection_eff=eta)
    q = thinned_distribution(photon_number_distribution(wcp), eta)
    mean = n * wcp.mu * eta
    var = n * (float(np.arange(q.size) ** 2 @ q) - (wcp.mu * eta) ** 2)
    assert abs(len(stream) - mean) < 4 * math.sqrt(var)

    # wcp's delays are 1e-4 periods, so a tag's pulse is the one its time
    # falls in
    pulses = np.unique(np.floor(stream.times_ns / wcp.rep_period_ns).astype(np.int64))
    p = 1.0 - q[0]
    stat, dof = _gap_counts(np.diff(pulses), lambda k: p * (1 - p) ** (k - 1))
    assert dof >= 20
    assert stat < _chi2_limit(dof), ("gaps", stat, dof)
    # a gap holding a fixed pulse is length-biased: k p^2 (1 - p)^(k - 1)
    seams = np.arange(size, n, size)
    after = np.searchsorted(pulses, seams)
    ok = (after > 0) & (after < pulses.size)
    spans = pulses[after[ok]] - pulses[after[ok] - 1]
    assert spans.size > 2400
    stat, dof = _gap_counts(spans, lambda k: k * p * p * (1 - p) ** (k - 1))
    assert dof >= 10
    assert stat < _chi2_limit(dof), ("seams", stat, dof)

    ones = float(stream.detectors.sum())
    stat, dof = _chi2(np.array([len(stream) - ones, ones]),
                      len(stream) * np.array([ratio, 1.0 - ratio]))
    assert stat < _chi2_limit(dof), ("splitter", stat)


class _UniformRecorder:
    """A generator that keeps a copy of the uniforms it hands out."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.uniforms = []

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def random(self, size):
        u = self._rng.random(size)
        self.uniforms.append(u.copy())
        return u


def test_classes_off_the_likeliest_are_the_full_search():
    # the likeliest class (3) is neither first nor last, and classes of
    # probability 0 sit on both sides of it; events outside its interval are
    # searched, the rest skip the search, and both must give the class a
    # search over every event gives
    probs = np.array([0.6, 0.05, 0.0, 0.2, 0.0, 0.1, 0.0, 0.05])
    rng = _UniformRecorder(np.random.default_rng(67))
    _, classes = sample_events(probs, 200_000, rng)
    (u,) = rng.uniforms
    cdf = np.cumsum(probs[1:])
    assert classes.dtype == np.uint8
    assert np.array_equal(classes, np.searchsorted(cdf, u * cdf[-1], "right") + 1)
    assert set(np.unique(classes)) == {1, 3, 5, 7}


def _events_by_parts(probs, n_pulses, rng, max_batch):
    """sample_events as batches in a list joined by np.concatenate, with
    one uniform per event drawn at once: the same draws, held whole."""
    probs = np.asarray(probs, dtype=np.float64)
    p = min(1.0, float(probs[1:].sum()))
    expected = n_pulses * p
    batch = int(min(expected + 6.0 * math.sqrt(expected) + 16.0, max_batch))
    scale = -math.log1p(-p) if p < 1.0 else math.inf
    parts, last = [], -1
    while True:
        gaps = np.ceil(rng.standard_exponential(batch) / scale)
        index = np.cumsum(np.clip(gaps, 1.0, n_pulses - last).astype(np.int64)) + last
        past = index >= n_pulses
        if past.any():
            parts.append(index[: np.argmax(past)])
            break
        parts.append(index)
        last = int(index[-1])
    index = np.concatenate(parts)
    cdf = np.cumsum(probs[1:])
    u = rng.random(index.size) * cdf[-1]
    classes = np.searchsorted(cdf, u, side="right") + 1
    return index, classes.astype(np.min_scalar_type(probs.size))


class _ShortGaps:
    """A generator whose exponentials are 0.9 of its own, so a run draws
    about 11% more events than the table expects."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_exponential(self, size):
        gaps = self._rng.standard_exponential(size)
        gaps *= 0.9
        return gaps


@pytest.mark.parametrize("short", [False, True], ids=["reserved", "grown"])
def test_event_memory_is_one_index_and_one_batch(short, monkeypatch):
    # 2^12-gap batches over about 3e5 events.  With gaps drawn short the
    # run passes its reserve (expected count and 6 sigmas) and grows it
    batch = 1 << 12
    monkeypatch.setattr(sources, "_MAX_BATCH", batch)
    probs, n = np.array([0.7, 0.2, 0.1]), 1_000_000
    wrap = _ShortGaps if short else (lambda rng: rng)
    tracemalloc.start()
    try:
        index, classes = sample_events(probs, n, wrap(np.random.default_rng([73, 1])))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    oracle = _events_by_parts(probs, n, wrap(np.random.default_rng([73, 1])), batch)
    assert index.size > (320_000 if short else 290_000)  # the reserve is 303,303
    assert np.array_equal(index, oracle[0]) and np.array_equal(classes, oracle[1])
    assert classes.dtype == oracle[1].dtype
    # the int64 index, its class bytes, and one float batch of gaps or
    # uniforms with its masks; while it grows, the old index is live too
    held = 8 * index.size * (2.2 if short else 1.0) + index.size + 32 * batch
    assert peak < held + 100_000


def _events_exactly(probs, n_pulses, rng, batch):
    """sample_events in Python ints, which cannot wrap, with each batch's
    reach: the latest event before it, and that plus its gaps, each
    clipped to the run as sample_events clips them."""
    probs = np.asarray(probs, dtype=np.float64)
    scale = -math.log1p(-float(probs[1:].sum()))
    index, reaches, last = [], [], -1
    while last < n_pulses:
        gaps = np.ceil(rng.standard_exponential(batch) / scale).tolist()
        gaps = [max(1, int(min(gap, n_pulses - last))) for gap in gaps]
        reaches.append((last, last + sum(gaps)))
        for gap in gaps:
            last += gap
            if last >= n_pulses:
                break
            index.append(last)
    cdf = np.cumsum(probs[1:])
    u = rng.random(len(index)) * cdf[-1]
    classes = np.searchsorted(cdf, u, side="right") + 1
    return np.array(index, dtype=np.int64), classes, reaches


@pytest.mark.parametrize("n", [3 * 2**61, 2**63 - 1])
def test_runs_near_int64_max_end_at_the_last_pulse(n, monkeypatch):
    # batches of 8 gaps of about 1e18 pulses, over 40 seeds.  Some batch
    # starts within 2^59 of the end and its 8 gaps, clipped to the run,
    # carry its sums past 2^63; at 2^63 - 1 every sum past the end is past
    # it; and a distance to the end that a float rounds down must still be
    # reached by a clipped gap
    monkeypatch.setattr(sources, "_MAX_BATCH", 8)
    probs = np.array([1.0, 1e-18])
    near_the_end = False
    for seed in range(40):
        index, classes = sample_events(probs, n, np.random.default_rng([79, seed]))
        oracle, oracle_classes, reaches = _events_exactly(
            probs, n, np.random.default_rng([79, seed]), 8)
        near_the_end |= any(n - last < 2**59 and end >= 2**63 for last, end in reaches)
        assert index.size == oracle.size > 0, seed
        assert np.array_equal(index, oracle) and np.array_equal(classes, oracle_classes)
        assert index[0] >= 0 and index[-1] < n
    assert near_the_end


def test_pulse_counts_past_an_int64_index_are_refused():
    with pytest.raises(ValueError, match="n_pulses must be below 2"):
        sample_events(np.array([0.5, 0.5]), 2**63, np.random.default_rng(0))


def test_negative_pulse_count_is_refused():
    with pytest.raises(ValueError, match="n_pulses"):
        sample_events(np.array([0.5, 0.5]), -1, np.random.default_rng(0))


def _subset_bits(n: int, rounds: int, seed: int) -> np.ndarray:
    """rounds x n confirmation-subset bits, as CASCADE unpacks each round."""
    stream = np.random.SeedSequence([seed, reconciliation._VERIFY_STREAM])
    bitgen = np.random.PCG64(stream)
    bits = np.zeros((rounds, n), dtype=np.uint8)
    for r in range(rounds):
        words = bitgen.random_raw(-(-n // 64))
        bits[r, reconciliation._subset_positions(words, n)] = 1
    return bits


def _pair_counts(first: np.ndarray, second: np.ndarray) -> tuple[float, int]:
    """Chi-square of the four (first, second) bit pairs against 1/4 each."""
    counts = np.bincount(2 * first.ravel() + second.ravel(), minlength=4)
    return _chi2(counts.astype(np.float64), np.full(4, first.size / 4.0))


def test_confirmation_subset_bits_are_fair_coins():
    # 1000 bits is 15 whole words and a part word, 400 rounds pool 4e5 bits
    bits = _subset_bits(1000, 400, seed=61)
    ones = float(bits.sum())
    stat, dof = _chi2(np.array([bits.size - ones, ones]), np.full(2, bits.size / 2.0))
    assert dof == 1
    assert stat < _chi2_limit(dof), stat


@pytest.mark.parametrize("offset", [0, 1], ids=["even-pairs", "odd-pairs"])
def test_neighbouring_subset_bits_are_independent(offset):
    # disjoint (i, i + 1) pairs; the odd offset puts a pair across every
    # byte and word seam
    bits = _subset_bits(1001, 400, seed=67)[:, offset:]
    width = bits.shape[1] // 2 * 2
    stat, dof = _pair_counts(bits[:, 0:width:2], bits[:, 1:width:2])
    assert dof == 3
    assert stat < _chi2_limit(dof), stat


def test_successive_rounds_are_independent_at_each_position():
    # disjoint (round r, round r + 1) pairs, each at one fixed position,
    # pooled over the positions of three words
    bits = _subset_bits(192, 2000, seed=71)
    stat, dof = _pair_counts(bits[0::2], bits[1::2])
    assert dof == 3
    assert stat < _chi2_limit(dof), stat
