"""Closed-form rate bound checks.

The two zero-distance anchors (2.544 and 1.063 kbit/s at f = 1.22, q = 0.5,
1 MHz) were derived by hand through the full arithmetic chain before this
module existed; the attenuated-laser value 8781.6 bit/s likewise.  They are
regression-frozen here at tight tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spsqkd.channel import LinkSpec, error_rate_model
from spsqkd.rates import (
    RateInputs,
    RateVariant,
    binary_entropy,
    critical_efficiency,
    crossover_distance,
    cutoff_distance,
    decoy_optimal_rate,
    default_variants,
    format_rate_csv,
    gllp_rate,
    sweep_variants,
    wcp_rate,
)
from spsqkd.sources import get_preset, subpoissonian_multiphoton


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
    variants = (RateVariant("nv", "fixed", get_preset("nv")),)
    flat = sweep_variants(variants, dist, LinkSpec(), flat_error=True)
    shifted = sweep_variants(variants, dist, LinkSpec())
    assert flat["nv"][0] == pytest.approx(2543.9, abs=0.5)
    assert shifted["nv"][0] == pytest.approx(2481.5, abs=1.0)


def test_crossover_semantics():
    d = np.array([0.0, 1.0, 2.0])
    assert crossover_distance(d, np.array([0.0, 1.0, 3.0]), np.array([2.0, 2.0, 2.0])) == 2.0
    assert math.isnan(crossover_distance(d, np.zeros(3), np.ones(3)))
    # dead curves never cross
    assert math.isnan(crossover_distance(d, np.zeros(3), np.zeros(3)))


def test_attenuation_extends_reach():
    nv = _nv_inputs()
    base = cutoff_distance(nv)
    assert base == pytest.approx(59.35, abs=0.1)
    farther = cutoff_distance(nv.attenuated(0.8))
    assert farther == pytest.approx(66.53, abs=0.1)
    assert farther > base


@given(factor=st.floats(min_value=0.3, max_value=0.95))
@settings(max_examples=10, deadline=None)
def test_attenuation_never_shortens_reach(factor):
    # the multiphoton fraction falls faster than the click rate, so inserting
    # loss at a bright source's output trades rate for distance
    nv = _nv_inputs()
    assert cutoff_distance(nv.attenuated(factor)) >= cutoff_distance(nv) - 1e-3


def test_rate_inputs_validation():
    with pytest.raises(ValueError, match="multiphoton"):
        RateInputs(mu=0.1, multiphoton=1.5, link=LinkSpec())
    with pytest.raises(ValueError, match="f_ec"):
        RateInputs(mu=0.1, multiphoton=0.0, link=LinkSpec(), f_ec=0.9)
    for name in ("mu", "rep_rate_hz", "f_ec"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            RateInputs(**{"mu": 0.1, "multiphoton": 0.0, "link": LinkSpec(),
                          name: float("nan")})
    with pytest.raises(ValueError, match="mode"):
        RateVariant("x", "laser")
    with pytest.raises(ValueError, match="source"):
        RateVariant("x", "fixed")
    with pytest.raises(ValueError, match="factor"):
        _nv_inputs().attenuated(1.5)


def test_default_variants_roster():
    names = [v.name for v in default_variants()]
    assert names == ["nv", "siv", "ideal10", "ideal95", "wcp", "decoy"]


def test_format_rate_csv_golden():
    text = format_rate_csv(
        np.array([0.0, 0.5]),
        {"a": np.array([1.0, 2.25]), "b": np.array([3.0, 0.000123456789])},
        metadata={"config_hash": "deadbeef"},
    )
    assert text == (
        "# config_hash=deadbeef\n"
        "distance_km,a,b\n"
        "0,1,3\n"
        "0.5,2.25,0.000123457\n"
    )
