"""Closed-form rate bound checks.

The two zero-distance anchors (2.544 and 1.063 kbit/s at f = 1.22, 1 MHz)
were derived by hand through the full arithmetic chain before this module
existed; the attenuated-laser value 8781.6 bit/s likewise.  They are
regression-frozen here at tight tolerance.  The sifting factor q is fixed
at 1/2 (symmetric basis choice) throughout, so the oracles take it as 0.5.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spsqkd import rates
from spsqkd.channel import LinkSpec, click_probability, error_rate_model, fibre_transmission
from spsqkd.config import format_csv
from spsqkd.rates import (
    _INTERIOR,
    _INTERIOR_SEGMENT,
    _KNOTS,
    _MU_GRID,
    _MU_WEIGHT,
    _TILE,
    RIVALS,
    RateInputs,
    _decoy_optimum,
    _segment_bounds,
    binary_entropy,
    critical_efficiency,
    crossover_distance,
    decoy_optimal_rate,
    gllp_rate,
    sweep_variants,
    wcp_rate,
)
from spsqkd.sources import get_preset, multiphoton_probability, subpoissonian_multiphoton


def _nv_inputs(link=None):
    return RateInputs.from_source(get_preset("nv"), link or LinkSpec())


def _siv_inputs(link=None):
    return RateInputs.from_source(get_preset("siv"), link or LinkSpec())


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.03) == pytest.approx(0.1943919, abs=1e-6)
    with pytest.raises(ValueError):
        binary_entropy(1.2)


@given(x=st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_symmetry(x):
    assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


def test_gllp_zero_distance_anchors():
    assert gllp_rate(_nv_inputs()) == pytest.approx(2543.9, abs=0.5)
    assert gllp_rate(_siv_inputs()) == pytest.approx(1062.8, abs=0.5)


def test_gllp_with_dark_shifted_error():
    link = LinkSpec()
    rate = gllp_rate(_nv_inputs(), e_mu=error_rate_model(0.029, link))
    assert rate == pytest.approx(2481.5, abs=1.0)


def test_gllp_clamps_at_half_error():
    assert gllp_rate(_nv_inputs(), e_mu=0.5) == 0.0


def test_gllp_zero_when_fully_tagged():
    inputs = RateInputs(mu=0.01, multiphoton=0.009, link=LinkSpec(distance_km=60.0))
    # far enough out that p_click < multiphoton
    assert gllp_rate(inputs) == 0.0


def test_gllp_zero_on_a_link_that_cannot_click():
    # p_click is a float 0 here, so the tagged fraction must not divide by it in Python
    inputs = RateInputs(mu=0.0, multiphoton=0.0, link=LinkSpec(dark_count_prob=0.0))
    assert gllp_rate(inputs) == 0.0


@given(
    e_lo=st.floats(min_value=0.0, max_value=0.25),
    e_hi=st.floats(min_value=0.0, max_value=0.25),
)
@settings(max_examples=200)
def test_gllp_monotone_in_error_rate(e_lo, e_hi):
    if e_lo > e_hi:
        e_lo, e_hi = e_hi, e_lo
    inputs = _nv_inputs()
    assert gllp_rate(inputs, e_mu=e_lo) >= gllp_rate(inputs, e_mu=e_hi) - 1e-9


@given(
    mu=st.floats(min_value=1e-3, max_value=0.5),
    e=st.floats(min_value=0.0, max_value=0.4),
)
@settings(max_examples=100)
def test_gllp_untagged_unit_f_identity(mu, e):
    # with no tagging and f = 1 the bracket collapses to 1 - 2 h2(E)
    link = LinkSpec()
    inputs = RateInputs(mu=mu, multiphoton=0.0, link=link, f_ec=1.0)
    expected = max(
        0.0,
        0.5 * 1e6 * min(1.0, mu * 0.31 + 2.4e-5) * (1.0 - 2.0 * binary_entropy(e)),
    )
    assert gllp_rate(inputs, e_mu=e) == pytest.approx(expected, rel=1e-12, abs=1e-9)


def test_critical_efficiency_anchors():
    assert critical_efficiency(0.04, 2.4e-5) == pytest.approx(0.034641, abs=1e-6)
    assert critical_efficiency(0.09, 2.4e-5) == pytest.approx(0.023094, abs=1e-6)
    assert critical_efficiency(0.04, 0.0) == 0.0
    assert critical_efficiency(0.0, 2.4e-5) == math.inf


@given(
    g2=st.floats(min_value=1e-4, max_value=1.0),
    dark=st.floats(min_value=0.0, max_value=1e-2),
)
@settings(max_examples=100)
def test_critical_efficiency_identity(g2, dark):
    mu_c = critical_efficiency(g2, dark)
    assume(mu_c <= 1.0)
    assert subpoissonian_multiphoton(mu_c, g2) == pytest.approx(dark, rel=1e-12, abs=1e-18)


def test_wcp_rate_anchor():
    # hand value at mu = eta_total = 0.31 with the dark-shifted error model
    assert wcp_rate(LinkSpec()) == pytest.approx(8781.6, abs=1.0)


def test_wcp_rate_dies_at_dark_cutoff():
    assert wcp_rate(LinkSpec(distance_km=200.0)) == 0.0


def test_decoy_dominates_wcp():
    for dist in (0.0, 10.0, 25.0):
        link = LinkSpec(distance_km=dist)
        assert decoy_optimal_rate(link).rate_bps >= wcp_rate(link)


def test_decoy_noiseless_optimum_at_unit_intensity():
    link = LinkSpec(dark_count_prob=0.0, misalignment=0.0)
    best = decoy_optimal_rate(link)
    assert best.mu == 1.0
    assert best.rate_bps == pytest.approx(0.5 * 1e6 * math.exp(-1.0) * 0.31, rel=1e-9)


def test_decoy_outlives_wcp():
    # attenuated laser without decoy closes at ~25.6 km on the default budget
    for dist in (26.0, 30.0):
        link = LinkSpec(distance_km=dist)
        assert wcp_rate(link) == 0.0
        assert decoy_optimal_rate(link).rate_bps > 0.0


def test_sweep_flat_vs_shifted_error():
    dist = np.array([0.0])
    sources = {"nv": get_preset("nv")}
    flat = sweep_variants(sources, (), dist, LinkSpec(), flat_error=True)
    shifted = sweep_variants(sources, (), dist, LinkSpec())
    assert flat["nv"][0] == pytest.approx(2543.9, abs=0.5)
    assert shifted["nv"][0] == pytest.approx(2481.5, abs=1.0)


# ---- scalar oracle for the array kernels, one distance at a time, in math.*


def _h2(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def _oracle_error(mu, eta, dark, mis):
    p_click = min(1.0, mu * eta + dark)
    if p_click == 0.0:
        return 0.5
    return min(0.5, max(0.0, (mis * mu * eta + 0.5 * dark) / p_click))


def _oracle_tagged(mu, multiphoton, eta, dark, e, rep, f_ec, q):
    p_click = min(1.0, mu * eta + dark)
    if p_click <= 0.0:
        return 0.0
    delta = min(1.0, multiphoton / p_click)
    if delta >= 1.0 or e / (1.0 - delta) >= 1.0:
        return 0.0
    inner = -f_ec * _h2(e) + (1.0 - delta) * (1.0 - _h2(e / (1.0 - delta)))
    return max(0.0, q * rep * p_click * inner)


def _oracle_decoy_rates(eta, dark, mis, rep, f_ec, q, grid):
    y1 = 1.0 - (1.0 - eta) * (1.0 - dark)
    rates = []
    for mu in grid:
        p_click = min(1.0, mu * eta + dark)
        if p_click <= 0.0 or y1 <= 0.0:
            rates.append(0.0)
            continue
        e1 = min(0.5, (mis * eta + 0.5 * dark) / y1)
        q1 = mu * math.exp(-mu) * y1
        inner = (-p_click * f_ec * _h2(_oracle_error(mu, eta, dark, mis))
                 + q1 * (1.0 - _h2(e1)))
        rates.append(max(0.0, q * rep * inner))
    return rates


_MU = [float(mu) for mu in np.linspace(0.005, 1.0, 200)]


@given(
    distances=st.lists(st.floats(min_value=0.0, max_value=300.0), min_size=1, max_size=4),
    attenuation=st.floats(min_value=0.0, max_value=1.0),
    setup=st.floats(min_value=1e-3, max_value=1.0),
    dark=st.floats(min_value=0.0, max_value=1e-3),
    mis=st.floats(min_value=0.0, max_value=0.5),
    f_ec=st.floats(min_value=1.0, max_value=2.0),
    rep=st.floats(min_value=1e3, max_value=1e10),
    preset=st.sampled_from(["nv", "siv", "ideal10", "ideal95"]),
    flat_error=st.booleans(),
)
@example(distances=[0.0, 25.0, 80.0], attenuation=0.4, setup=0.31, dark=0.0, mis=0.0,
         f_ec=1.22, rep=1e6, preset="nv", flat_error=False)
@example(distances=[250.0, 300.0], attenuation=0.4, setup=0.31, dark=2.4e-5, mis=0.03,
         f_ec=1.22, rep=1e6, preset="ideal95", flat_error=False)
@example(distances=[12.5], attenuation=0.2, setup=0.5, dark=1e-4, mis=0.1,
         f_ec=1.1, rep=8e7, preset="siv", flat_error=True)
@settings(max_examples=60, deadline=None)
def test_rate_kernels_match_scalar_oracle(distances, attenuation, setup, dark, mis, f_ec,
                                          rep, preset, flat_error):
    link = LinkSpec(attenuation_db_per_km=attenuation, setup_efficiency=setup,
                    dark_count_prob=dark, misalignment=mis)
    source = get_preset(preset)
    curves = sweep_variants({preset: source}, RIVALS, np.array(distances), link,
                            rep_rate_hz=rep, f_ec=f_ec, flat_error=flat_error)
    # the bracket cancels near each cutoff, so the tolerance scales with
    # the largest possible rate, q * rep, not with the value
    tol = 1e-9 * 0.5 * rep
    for i, d in enumerate(distances):
        link_d = link.at_distance(d)
        eta = link_d.total_efficiency
        e = mis if flat_error else _oracle_error(source.mu, eta, dark, mis)
        fixed = _oracle_tagged(source.mu, multiphoton_probability(source), eta, dark, e,
                               rep, f_ec, 0.5)
        assert abs(curves[preset][i] - fixed) <= tol
        wcp_mp = -math.expm1(-eta) - eta * math.exp(-eta)
        wcp = _oracle_tagged(eta, wcp_mp, eta, dark, _oracle_error(eta, eta, dark, mis),
                             rep, f_ec, 0.5)
        assert abs(curves["wcp"][i] - wcp) <= tol
        assert abs(wcp_rate(link_d, rep, f_ec) - wcp) <= tol
        rates = _oracle_decoy_rates(eta, dark, mis, rep, f_ec, 0.5, _MU)
        top = max(rates)
        assert abs(curves["decoy"][i] - top) <= tol
        best = decoy_optimal_rate(link_d, rep, f_ec)
        assert abs(best.rate_bps - top) <= tol
        runner_up = sorted(rates)[-2]
        if top - runner_up > tol:
            assert best.mu == _MU[rates.index(top)]
        if best.rate_bps == 0.0:
            # past every cutoff: nothing to choose, so the first intensity
            assert top == 0.0 and best.mu == _MU[0]


# ---- the decoy search one intensity at a time, with vectors over the whole
# sweep, as the module ran it before the tiles: the tiles must match it to the bit


def _decoy_by_intensity(eta, link, rep, f_ec):
    def entropy(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            h = -(x * np.log2(x) + (1.0 - x) * np.log2(1.0 - x))
        return np.where((x > 0.0) & (x < 1.0), h, 0.0)

    dark = link.dark_count_prob
    y1 = 1.0 - (1.0 - eta) * (1.0 - dark)
    with np.errstate(divide="ignore", invalid="ignore"):
        e1 = np.minimum(0.5, (link.misalignment * eta + 0.5 * dark) / y1)
    secure1 = 1.0 - entropy(e1)
    best_rate = np.zeros(eta.shape)
    best_mu = np.full(eta.shape, _MU[0])
    for mu in _MU:
        p_click = click_probability(mu, link, eta)
        e_mu = error_rate_model(mu, link, eta)
        q1 = mu * math.exp(-mu) * y1
        rate = 0.5 * rep * (-p_click * f_ec * entropy(e_mu) + q1 * secure1)
        rate = np.where(rate > 0.0, rate, 0.0)
        better = rate > best_rate
        best_rate[better] = rate[better]
        best_mu[better] = mu
    return best_rate, best_mu


def _assert_decoy_search_exact(eta, link, rep=1e6, f_ec=1.22):
    rate, mu = _decoy_optimum(eta, link, rep, f_ec)
    want_rate, want_mu = _decoy_by_intensity(eta, link, rep, f_ec)
    assert np.array_equal(rate, want_rate) and rate.tobytes() == want_rate.tobytes()
    assert np.array_equal(mu, want_mu)
    return rate, mu


# the dense search's tile spanned every intensity and _TILE // 200
# efficiencies: one tile, one either side of its width, and many tiles with
# a remainder
_WIDTH = _TILE // _MU_GRID.size
_SWEEP_LENGTHS = [1, _WIDTH - 1, _WIDTH, _WIDTH + 1, 40 * _WIDTH + 17]


@pytest.mark.parametrize("n", _SWEEP_LENGTHS)
@pytest.mark.parametrize(
    "link",
    [LinkSpec(), LinkSpec(dark_count_prob=0.0), LinkSpec(misalignment=0.0),
     LinkSpec(dark_count_prob=1e-3, misalignment=0.1, attenuation_db_per_km=0.2)],
    ids=["default", "no-darks", "no-misalignment", "noisy"],
)
def test_decoy_tiles_match_the_per_intensity_search(n, link):
    distances = np.linspace(0.0, 150.0, n)
    eta = link.setup_efficiency * fibre_transmission(distances, link.attenuation_db_per_km)
    _assert_decoy_search_exact(eta, link)


@pytest.mark.parametrize("n", _SWEEP_LENGTHS)
def test_decoy_tiles_where_no_rate_is_positive(n):
    # misalignment 0.5 pins e1 at 0.5, so no intensity keys; nor does eta = 0
    eta = 0.31 * fibre_transmission(np.linspace(0.0, 150.0, n), 0.4)
    for link, eta in ((LinkSpec(misalignment=0.5), eta), (LinkSpec(), np.zeros(n)),
                      (LinkSpec(dark_count_prob=0.0), np.zeros(n))):
        rate, mu = _assert_decoy_search_exact(eta, link)
        assert not rate.any() and np.all(mu == _MU_GRID[0])


@given(
    n=st.sampled_from(_SWEEP_LENGTHS),
    dmax=st.floats(min_value=0.0, max_value=300.0),
    attenuation=st.floats(min_value=0.0, max_value=1.0),
    setup=st.floats(min_value=1e-3, max_value=1.0),
    dark=st.floats(min_value=0.0, max_value=1e-2),
    mis=st.floats(min_value=0.0, max_value=0.5),
    f_ec=st.floats(min_value=1.0, max_value=2.0),
    rep=st.floats(min_value=1e3, max_value=1e10),
)
@settings(max_examples=40, deadline=None)
def test_decoy_tiles_match_the_per_intensity_search_on_any_link(
    n, dmax, attenuation, setup, dark, mis, f_ec, rep
):
    link = LinkSpec(attenuation_db_per_km=attenuation, setup_efficiency=setup,
                    dark_count_prob=dark, misalignment=mis)
    eta = setup * fibre_transmission(np.linspace(0.0, dmax, n), attenuation)
    _assert_decoy_search_exact(eta, link, rep, f_ec)


def test_decoy_search_memory_is_the_curves_and_a_tile():
    # walking the grid with sweep-length vectors held about 7.6 times the two
    # curves at this size; the tiles hold the curves and a few tile buffers
    eta = 0.31 * fibre_transmission(np.linspace(0.0, 100.0, 1 << 18), 0.4)
    tile_bytes = 8 * _TILE
    tracemalloc.start()
    try:
        _decoy_optimum(eta, LinkSpec(), 1e6, 1.22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * eta.nbytes + 8 * tile_bytes


# ---- the certified search: knots, segment bounds, and the rows a bound
# cannot rule out


_LINKS = [LinkSpec(), LinkSpec(dark_count_prob=0.0), LinkSpec(misalignment=0.0),
          LinkSpec(dark_count_prob=1e-3, misalignment=0.1, attenuation_db_per_km=0.2)]
_LINK_IDS = ["default", "no-darks", "no-misalignment", "noisy"]
# a tile of the certified search spans the knots and _TILE // 21 efficiencies
_KNOT_WIDTH = _TILE // _KNOTS.size


def _eta(link, dmax, n):
    return link.setup_efficiency * fibre_transmission(np.linspace(0.0, dmax, n),
                                                      link.attenuation_db_per_km)


@pytest.mark.parametrize("n", [_KNOT_WIDTH - 1, _KNOT_WIDTH, _KNOT_WIDTH + 1,
                               3 * _KNOT_WIDTH + 17])
@pytest.mark.parametrize("link", _LINKS, ids=_LINK_IDS)
def test_decoy_search_matches_around_its_tile_width(n, link):
    # out to 300 km, so tiles hold live and dead columns side by side
    _assert_decoy_search_exact(_eta(link, 300.0, n), link)


@pytest.mark.parametrize("n", [1, 5, _KNOT_WIDTH + 1])
@pytest.mark.parametrize("rep, f_ec", [(1e300, 1.22), (1e6, 1e300), (1e300, 1e300),
                                       (1.7e308, 1.7e308)])
@pytest.mark.parametrize("link", _LINKS, ids=_LINK_IDS)
def test_decoy_search_at_clocks_that_overflow(n, rep, f_ec, link, monkeypatch):
    # near 1e300 the error-correction cost scales past the float range: the
    # rates overflow to -inf (floored to 0), and where f_ec * rep does, so do
    # bounds, which keep their segments.  The search warns of nothing; the
    # oracle's overflow is its own
    scaled = []
    real = rates._segment_bounds

    def spy(*args):
        bound = real(*args)
        with np.errstate(over="ignore"):
            scaled.append(bound * (0.5 * rep))
        return bound

    monkeypatch.setattr(rates, "_segment_bounds", spy)
    eta = _eta(link, 150.0, n)
    rate, mu = _decoy_optimum(eta, link, rep, f_ec)
    with np.errstate(over="ignore"):
        want_rate, want_mu = _decoy_by_intensity(eta, link, rep, f_ec)
    assert rate.tobytes() == want_rate.tobytes() and np.array_equal(mu, want_mu)
    if f_ec * rep > 1e310:
        assert not all(np.isfinite(b).all() for b in scaled)


def test_decoy_optimum_at_the_grid_ends():
    # no noise: the rate is the single-photon gain, rising to mu = 1
    link = LinkSpec(dark_count_prob=0.0, misalignment=0.0)
    rate, mu = _assert_decoy_search_exact(_eta(link, 150.0, 301), link)
    assert rate.all() and np.all(mu == 1.0)
    # without darks the rate is mu eta (e^-mu (1 - h2(m)) - f h2(m)), which
    # peaks where (1 - mu) e^-mu = f h2(m) / (1 - h2(m)), here 0.99: mu 0.005
    link = LinkSpec(dark_count_prob=0.0, misalignment=0.1)
    f_ec = 0.99 * (1.0 - binary_entropy(0.1)) / binary_entropy(0.1)
    rate, mu = _assert_decoy_search_exact(_eta(link, 150.0, 301), link, f_ec=f_ec)
    assert rate.all() and np.all(mu == _MU_GRID[0])


def _rates_by_row(eta, link, f_ec):
    """Every grid intensity's rate before the clock and the floor, and its
    p h2(e), in the search's operand order, one intensity at a time."""
    dark, mis = link.dark_count_prob, link.misalignment
    y1 = 1.0 - (1.0 - eta) * (1.0 - dark)
    with np.errstate(divide="ignore", invalid="ignore"):
        e1 = np.minimum(0.5, (mis * eta + 0.5 * dark) / y1)
    secure1 = 1.0 - rates._entropy(e1)
    raw, phi = np.empty((2, _MU_GRID.size, eta.size))
    for r, mu in enumerate(_MU_GRID):
        p = np.minimum(mu * eta + dark, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            e = np.fmin((mis * mu * eta + 0.5 * dark) / p, 0.5)
        h = rates._entropy(e)
        phi[r] = p * h
        raw[r] = p * -f_ec * h + _MU_WEIGHT[r] * y1 * secure1
    return raw, phi, y1 * secure1


@pytest.mark.parametrize("rep", [1e-320, 3e-321])
@pytest.mark.parametrize("link", _LINKS[:3], ids=_LINK_IDS[:3])  # the noisy link never keys
def test_decoy_search_keeps_the_first_of_tied_maxima(rep, link):
    # a clock this slow rounds every rate to a few subnormal steps, so many
    # intensities tie at each maximum; the search must keep the first
    eta = _eta(link, 60.0, 2 * _KNOT_WIDTH + 5)
    rate, mu = _assert_decoy_search_exact(eta, link, rep)
    raw = _rates_by_row(eta, link, 1.22)[0] * (0.5 * rep)
    ties = np.count_nonzero(raw == rate, axis=0)
    assert (ties[rate > 0] > 1).mean() > 0.5


def test_decoy_search_where_the_clock_rounds_every_rate_to_zero():
    # half the smallest subnormal clock: every rate reads 0, a flat maximum
    eta = _eta(LinkSpec(), 60.0, _KNOT_WIDTH + 3)
    rate, mu = _assert_decoy_search_exact(eta, LinkSpec(), 5e-324)
    assert not rate.any() and np.all(mu == _MU_GRID[0])


@given(
    n=st.integers(min_value=1, max_value=40),
    dmax=st.floats(min_value=0.0, max_value=300.0),
    attenuation=st.floats(min_value=0.0, max_value=1.0),
    setup=st.floats(min_value=1e-3, max_value=1.0),
    dark=st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=0.5)),
    mis=st.floats(min_value=0.0, max_value=0.5),
    f_ec=st.one_of(st.floats(min_value=1.0, max_value=2.0),
                   st.floats(min_value=1.0, max_value=1e300)),
)
@example(n=40, dmax=150.0, attenuation=0.4, setup=0.31, dark=2.4e-5, mis=0.03, f_ec=1.22)
@example(n=40, dmax=150.0, attenuation=0.4, setup=0.31, dark=0.0, mis=0.0, f_ec=1.22)
@example(n=3, dmax=0.0, attenuation=0.0, setup=1.0, dark=0.0, mis=0.5, f_ec=1e300)
@settings(max_examples=150, deadline=None)
def test_every_interior_rate_lies_below_its_segment_bound(n, dmax, attenuation, setup,
                                                          dark, mis, f_ec):
    # the certificate itself: each rate between two knots, in the search's
    # rounding, is below its segment's bound wherever the bound is finite,
    # and so stays below it once both are scaled by the clock
    link = LinkSpec(attenuation_db_per_km=attenuation, setup_efficiency=setup,
                    dark_count_prob=dark, misalignment=mis)
    eta = _eta(link, dmax, n)
    raw, phi, a = _rates_by_row(eta, link, f_ec)
    bound = _segment_bounds(raw[_KNOTS], phi[_KNOTS].copy(), a, eta + dark, f_ec)
    inner, inner_bound = raw[_INTERIOR], bound[_INTERIOR_SEGMENT]
    finite = np.isfinite(inner_bound)
    assert np.all(inner[finite] < inner_bound[finite])


@pytest.mark.parametrize(
    "link, interior",
    [(LinkSpec(), 18), (LinkSpec(dark_count_prob=0.0, misalignment=0.0), 8), (_LINKS[3], 0)],
    ids=["default", "noiseless", "dead"],
)
def test_decoy_search_evaluates_the_knots_and_the_segments_beside_the_optimum(
    link, interior, monkeypatch
):
    # on the benchmark's sweep (0-60 km in 0.05 km steps) every optimum lies
    # at mu 0.49-0.51, so of the 20 segments only the two around the knot at
    # mu = 0.505 are evaluated, 18 interior rows; at mu = 1 only the last
    # segment, 8 rows; and where no rate is positive, none
    sizes = []
    real = rates._entropy

    def spy(x, out=None):
        sizes.append(np.size(x))
        return real(x, out)

    monkeypatch.setattr(rates, "_entropy", spy)
    eta = _eta(link, 60.0, 1201)
    _decoy_optimum(eta, link, 1e6, 1.22)
    # one entropy of e1 per efficiency, then the rows
    assert (sum(sizes) - eta.size) / eta.size == _KNOTS.size + interior


def test_crossover_semantics():
    d = np.array([0.0, 1.0, 2.0])
    assert crossover_distance(d, np.array([0.0, 1.0, 3.0]), np.array([2.0, 2.0, 2.0])) == 2.0
    assert math.isnan(crossover_distance(d, np.zeros(3), np.ones(3)))
    # dead curves never cross
    assert math.isnan(crossover_distance(d, np.zeros(3), np.zeros(3)))


def test_rate_inputs_validation():
    with pytest.raises(ValueError, match="multiphoton"):
        RateInputs(mu=0.1, multiphoton=1.5, link=LinkSpec())
    with pytest.raises(ValueError, match="f_ec"):
        RateInputs(mu=0.1, multiphoton=0.0, link=LinkSpec(), f_ec=0.9)
    for name in ("mu", "rep_rate_hz", "f_ec"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            RateInputs(**{"mu": 0.1, "multiphoton": 0.0, "link": LinkSpec(),
                          name: float("nan")})


def test_sweep_orders_sources_then_rivals_as_asked():
    sources = {"siv": get_preset("siv"), "nv": get_preset("nv")}
    curves = sweep_variants(sources, ("decoy", "wcp"), np.array([0.0]), LinkSpec())
    assert list(curves) == ["siv", "nv", "decoy", "wcp"]


@pytest.mark.parametrize(
    "sources, rivals, match",
    [
        ({}, ("laser",), "unknown rival 'laser'"),
        ({}, ("wcp", "wcp"), "rival 'wcp' asked for twice"),
        ({"wcp": get_preset("wcp")}, ("wcp",), "'wcp' is both a source and a rival"),
        ({"decoy": get_preset("decoy")}, ("decoy",), "'decoy' is both"),
    ],
)
def test_sweep_refuses_bad_rivals(sources, rivals, match):
    with pytest.raises(ValueError, match=match):
        sweep_variants(sources, rivals, np.array([0.0]), LinkSpec())


def test_format_rate_csv_golden():
    text = format_csv(
        {"config_hash": "deadbeef"},
        {"distance_km": np.array([0.0, 0.5]), "a": np.array([1.0, 2.25]),
         "b": np.array([3.0, 0.000123456789])},
        "%.6g,%.6g,%.6g",
    )
    assert text == (
        "# config_hash=deadbeef\n"
        "distance_km,a,b\n"
        "0,1,3\n"
        "0.5,2.25,0.000123457\n"
    )
