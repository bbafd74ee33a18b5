"""Link budget arithmetic.

Anchors: 15 km at 0.4 dB/km is -6 dB, i.e. T = 10^-0.6 = 0.2511886; the
default setup gives click probabilities 9.014e-3 (mu = 0.029) and 3.744e-3
(mu = 0.012) at zero distance, with model QBERs 3.1251% and 3.3013%.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spsqkd.bb84 import run_session
from spsqkd.channel import (
    LinkSpec,
    click_probability,
    error_rate_model,
    exact_click_probability,
    fibre_transmission,
)
from spsqkd.sources import PRESETS, SourceKind, SourceSpec
from test_rates import _oracle_error


def test_fibre_transmission_anchors():
    assert fibre_transmission(0.0, 0.4) == 1.0
    assert fibre_transmission(15.0, 0.4) == pytest.approx(0.2511886432, rel=1e-9)
    assert fibre_transmission(25.0, 0.4) == pytest.approx(0.1, rel=1e-12)


def test_total_efficiency_default_setup():
    link = LinkSpec()
    assert link.total_efficiency == pytest.approx(0.31)
    assert link.at_distance(15.0).total_efficiency == pytest.approx(
        0.31 * 0.2511886432, rel=1e-9
    )


def test_click_probability_anchors():
    link = LinkSpec()
    assert click_probability(0.029, link) == pytest.approx(9.014e-3, rel=1e-9)
    assert click_probability(0.012, link) == pytest.approx(3.744e-3, rel=1e-9)
    # saturates instead of exceeding 1
    hot = LinkSpec(setup_efficiency=1.0, dark_count_prob=0.5)
    assert click_probability(5.0, hot) == 1.0


def test_exact_click_probability_poissonian_closed_form():
    # no-photon-survives probability for Poisson statistics is e^(-mu eta),
    # darks miss with (1 - p_dc/2)^2 across the two detectors
    link = LinkSpec()
    spec = PRESETS["wcp"]
    expect = 1.0 - math.exp(-spec.mu * 0.31) * (1.0 - 1.2e-5) ** 2
    assert exact_click_probability(spec, link) == pytest.approx(expect, rel=1e-9)


def test_exact_click_probability_decoy_mixture():
    link = LinkSpec()
    spec = PRESETS["decoy"]
    survive = sum(w * math.exp(-m * 0.31) for m, w in spec.decoy_levels)
    expect = 1.0 - survive * (1.0 - 1.2e-5) ** 2
    assert exact_click_probability(spec, link) == pytest.approx(expect, rel=1e-9)


def test_exact_click_probability_three_level_source():
    link = LinkSpec()
    spec = PRESETS["nv"]
    p2 = spec.mu**2 * spec.g2_zero / 2.0
    p1 = spec.mu - 2.0 * p2
    survive = (1.0 - p1 - p2) + p1 * 0.69 + p2 * 0.69**2
    expect = 1.0 - survive * (1.0 - 1.2e-5) ** 2
    assert exact_click_probability(spec, link) == pytest.approx(expect, rel=1e-9)
    # at this intensity the first-order form agrees to five decimals
    assert abs(exact_click_probability(spec, link) - click_probability(spec.mu, link)) < 1e-5


@given(
    mu=st.floats(min_value=1e-4, max_value=0.9),
    g2=st.floats(min_value=0.0, max_value=1.0),
    dist=st.floats(min_value=0.0, max_value=100.0),
)
@settings(max_examples=150)
def test_exact_click_never_exceeds_first_order(mu, g2, dist):
    # the linear form union-bounds the exact one from above
    assume(mu * g2 <= 1.0 and mu * g2 / 2 + mu <= 1.0)
    link = LinkSpec(distance_km=dist)
    spec = SourceSpec(SourceKind.SUB_POISSONIAN, mu=mu, g2_zero=g2)
    exact = exact_click_probability(spec, link)
    assert 0.0 <= exact <= click_probability(mu, link) + 1e-12


def test_error_rate_model_anchors():
    link = LinkSpec()
    assert error_rate_model(0.029, link) == pytest.approx(0.031251, abs=2e-6)
    assert error_rate_model(0.012, link) == pytest.approx(0.033013, abs=2e-6)


def test_error_rate_dark_dominated_limit():
    # signal far below darks: errors approach 1/2
    link = LinkSpec(distance_km=400.0)
    assert error_rate_model(0.029, link) == pytest.approx(0.5, abs=0.01)


def test_error_rate_degenerate_link():
    link = LinkSpec(dark_count_prob=0.0)
    assert error_rate_model(0.0, link) == 0.5


def test_at_distance_keeps_other_fields():
    link = LinkSpec(misalignment=0.01)
    far = link.at_distance(30.0)
    assert far.distance_km == 30.0
    assert far.misalignment == 0.01
    assert link.distance_km == 0.0


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(distance_km=-1.0), "distance_km"),
        (dict(attenuation_db_per_km=-0.1), "attenuation"),
        (dict(setup_efficiency=0.0), "setup_efficiency"),
        (dict(setup_efficiency=1.2), "setup_efficiency"),
        (dict(dark_count_prob=1.0), "dark_count_prob"),
        (dict(misalignment=0.6), "misalignment"),
        (dict(distance_km=float("inf")), "distance_km must be finite"),
        (dict(attenuation_db_per_km=float("nan")), "attenuation_db_per_km must be finite"),
    ],
)
def test_link_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        LinkSpec(**kwargs)


@given(
    mu=st.floats(min_value=0.0, max_value=2.0),
    dist=st.floats(min_value=0.0, max_value=200.0),
    dark=st.floats(min_value=0.0, max_value=1e-3),
)
@settings(max_examples=200)
def test_click_probability_bounds(mu, dist, dark):
    link = LinkSpec(distance_km=dist, dark_count_prob=dark)
    p = click_probability(mu, link)
    assert 0.0 <= p <= 1.0
    # more fibre never helps
    assert p >= click_probability(mu, link.at_distance(dist + 10.0)) - 1e-15


@given(
    mu=st.floats(min_value=1e-6, max_value=1.0),
    dist=st.floats(min_value=0.0, max_value=100.0),
    e=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=200)
def test_error_rate_bounds_and_monotonicity(mu, dist, e):
    link = LinkSpec(distance_km=dist, misalignment=e)
    q = error_rate_model(mu, link)
    assert 0.0 <= q <= 0.5
    # below click saturation, a brighter pulse dilutes the darks
    assume(2 * mu * link.total_efficiency + link.dark_count_prob < 1.0)
    assert error_rate_model(2 * mu, link) <= q + 1e-12


def _with_edges(strategy, *edges):
    return st.sampled_from(edges) | strategy


@given(
    mu=_with_edges(st.floats(min_value=0.0, max_value=2.0), 0.0, 1.0),
    etas=st.lists(_with_edges(st.floats(min_value=0.0, max_value=1.0), 0.0, 1.0),
                  min_size=1, max_size=8),
    dark=_with_edges(st.floats(min_value=0.0, max_value=1e-3), 0.0),
    mis=_with_edges(st.floats(min_value=0.0, max_value=0.5), 0.0, 0.5),
)
@example(mu=0.029, etas=[0.0, 1.0, 0.31], dark=0.0, mis=0.5)
@example(mu=0.0, etas=[0.0, 0.5], dark=0.0, mis=0.0)
@settings(max_examples=200)
def test_array_calls_match_float_calls_bit_for_bit(mu, etas, dark, mis):
    # a sweep's efficiencies as one array give, element by element, the same
    # doubles as one float call each and as the math oracle; a float call
    # gives a float, which the report writer prints with %.6g
    link = LinkSpec(dark_count_prob=dark, misalignment=mis)
    eta = np.array(etas)
    clicks = click_probability(mu, link, eta)
    errors = error_rate_model(mu, link, eta)
    # an attenuated laser run at mu = eta
    laser_clicks = click_probability(eta, link, eta)
    laser_errors = error_rate_model(eta, link, eta)
    for i, e in enumerate(etas):
        p = click_probability(mu, link, e)
        q = error_rate_model(mu, link, e)
        assert type(p) is float and type(q) is float
        assert clicks[i] == p == min(1.0, mu * e + dark)
        assert errors[i] == q == _oracle_error(mu, e, dark, mis)
        assert laser_clicks[i] == click_probability(e, link, e) == min(1.0, e * e + dark)
        assert laser_errors[i] == error_rate_model(e, link, e) == _oracle_error(e, e, dark, mis)
    if dark == 0.0 and 0.0 in etas:
        assert errors[etas.index(0.0)] == 0.5
    # no eta: the link's own total efficiency
    own = link.total_efficiency
    assert type(click_probability(mu, link)) is float
    assert click_probability(mu, link) == click_probability(mu, link, own)
    assert error_rate_model(mu, link) == _oracle_error(mu, own, dark, mis)


def test_transmit_photons_statistics():
    # one photon per pulse, no darks: a click is a photon that survived the
    # binomial thinning, so the click rate is the link efficiency
    link = LinkSpec(distance_km=5.0, setup_efficiency=0.6, dark_count_prob=0.0)
    eta = link.total_efficiency
    n = 200_000
    bits = np.packbits(np.zeros(3 * n, dtype=np.uint8))
    res = run_session(SourceSpec(SourceKind.SUB_POISSONIAN, mu=1.0, g2_zero=0.0),
                      link, n, np.random.default_rng(19), protocol_bits=bits)
    assert abs(res.detected_count / n - eta) < 4 * math.sqrt(eta * (1 - eta) / n)
