"""Photon-number distribution and sampling checks.

Reference values were computed by hand from the closed-form expressions
(p2 = mu^2 g2 / 2 with p1 = mu - 2 p2 for sub-Poissonian pulses, the usual
Poisson series otherwise) and are frozen here as regression anchors.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spsqkd.hbt import simulate_hbt
from spsqkd.sources import (
    PRESETS,
    SourceKind,
    SourceSpec,
    get_preset,
    multiphoton_probability,
    photon_number_distribution,
    poissonian_multiphoton,
    sample_photon_numbers,
    subpoissonian_multiphoton,
)


def test_nv_distribution_frozen_values():
    dist = photon_number_distribution(get_preset("nv"))
    assert dist.shape == (3,)
    assert dist[2] == pytest.approx(3.7845e-5, abs=1e-12)
    assert dist[1] == pytest.approx(0.02892431, abs=1e-10)
    assert dist[0] == pytest.approx(0.971037845, abs=1e-10)


def test_siv_distribution_frozen_values():
    dist = photon_number_distribution(get_preset("siv"))
    assert dist[2] == pytest.approx(2.88e-6, abs=1e-13)
    assert dist[1] == pytest.approx(0.01199424, abs=1e-10)
    assert dist[0] == pytest.approx(0.98800288, abs=1e-10)


def test_poisson_low_order_terms():
    dist = photon_number_distribution(get_preset("wcp"))
    assert dist[0] == pytest.approx(math.exp(-0.31), rel=1e-12)
    assert dist[1] == pytest.approx(0.31 * math.exp(-0.31), rel=1e-12)
    # table long enough that the truncated tail is negligible
    assert dist.sum() == pytest.approx(1.0, abs=1e-13)
    mean = np.arange(len(dist)) @ dist
    assert mean == pytest.approx(0.31, abs=1e-13)


def test_poisson_table_handles_large_mu():
    spec = SourceSpec(SourceKind.POISSONIAN, mu=2.0)
    dist = photon_number_distribution(spec)
    assert dist.sum() == pytest.approx(1.0, abs=1e-13)
    assert np.arange(len(dist)) @ dist == pytest.approx(2.0, abs=1e-12)


def test_decoy_mixture_distribution():
    spec = get_preset("decoy")
    dist = photon_number_distribution(spec)
    p0 = 0.8 * math.exp(-0.5) + 0.15 * math.exp(-0.1) + 0.05
    assert dist[0] == pytest.approx(p0, rel=1e-12)
    assert dist.sum() == pytest.approx(1.0, abs=1e-13)
    assert np.arange(len(dist)) @ dist == pytest.approx(0.415, abs=1e-12)


def test_multiphoton_oracles():
    assert subpoissonian_multiphoton(0.029, 0.09) == pytest.approx(3.7845e-5, abs=1e-12)
    assert subpoissonian_multiphoton(0.012, 0.04) == pytest.approx(2.88e-6, abs=1e-13)
    assert poissonian_multiphoton(0.31) == pytest.approx(0.03918448, abs=1e-6)
    assert poissonian_multiphoton(0.0) == 0.0


def test_decoy_multiphoton_is_mixture_tail():
    spec = get_preset("decoy")
    dist = photon_number_distribution(spec)
    assert multiphoton_probability(spec) == pytest.approx(dist[2:].sum(), abs=1e-12)


def test_g2_effective():
    assert get_preset("nv").g2_effective == 0.09
    assert get_preset("wcp").g2_effective == 1.0
    # mixture second moment over squared mean
    assert get_preset("decoy").g2_effective == pytest.approx(1.16998, abs=1e-4)


@given(
    mu=st.floats(min_value=1e-4, max_value=0.999),
    g2=st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=200)
def test_subpoissonian_distribution_identities(mu, g2):
    assume(mu * g2 <= 1.0)
    assume(mu + mu * g2 / 2 <= 1.0)
    spec = SourceSpec(SourceKind.SUB_POISSONIAN, mu=mu, g2_zero=g2)
    dist = photon_number_distribution(spec)
    assert np.all(dist >= -1e-15)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)
    assert dist[1] + 2 * dist[2] == pytest.approx(mu, abs=1e-12)
    # E[n(n-1)] = mu^2 g2(0) by construction
    assert 2 * dist[2] == pytest.approx(mu * mu * g2, abs=1e-12)
    assert multiphoton_probability(spec) == pytest.approx(dist[2], abs=1e-15)


@given(mu=st.floats(min_value=1e-3, max_value=5.0))
@settings(max_examples=100)
def test_poisson_multiphoton_matches_table(mu):
    spec = SourceSpec(SourceKind.POISSONIAN, mu=mu)
    dist = photon_number_distribution(spec)
    assert multiphoton_probability(spec) == pytest.approx(dist[2:].sum(), abs=1e-12)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(kind=SourceKind.SUB_POISSONIAN, mu=1.2, g2_zero=0.1), "0 < mu <= 1"),
        (dict(kind=SourceKind.SUB_POISSONIAN, mu=-0.1, g2_zero=0.1), "0 < mu <= 1"),
        (dict(kind=SourceKind.SUB_POISSONIAN, mu=0.1), "g2_zero"),
        (dict(kind=SourceKind.SUB_POISSONIAN, mu=0.1, g2_zero=-0.5), "g2_zero"),
        (
            dict(kind=SourceKind.SUB_POISSONIAN, mu=0.6, g2_zero=2.0),
            "p1 < 0",
        ),
        (
            dict(kind=SourceKind.SUB_POISSONIAN, mu=0.9, g2_zero=1.0),
            "exceeds 1",
        ),
        (dict(kind=SourceKind.POISSONIAN, mu=0.3, g2_zero=0.1), "Poissonian"),
        (dict(kind=SourceKind.POISSONIAN, mu=0.0), "mu must be positive"),
        (dict(kind=SourceKind.SUB_POISSONIAN, mu=0.1, g2_zero=0.1, lifetime_ns=0.0), "lifetime"),
        (dict(kind=SourceKind.SUB_POISSONIAN, mu=0.1, g2_zero=0.1, rep_rate_hz=-1.0), "rep_rate"),
        (dict(kind=SourceKind.DECOY_POISSONIAN, mu=0.5), "at least one"),
        (
            dict(
                kind=SourceKind.DECOY_POISSONIAN,
                mu=0.5,
                decoy_levels=((0.5, 0.7), (0.1, 0.2)),
            ),
            "sum to 1",
        ),
        (
            dict(
                kind=SourceKind.DECOY_POISSONIAN,
                mu=0.5,
                decoy_levels=((0.5, 0.8), (0.1, 0.2)),
            ),
            "weighted mean",
        ),
        (
            dict(
                kind=SourceKind.POISSONIAN,
                mu=0.5,
                decoy_levels=((0.5, 1.0),),
            ),
            "decoy sources",
        ),
        (
            dict(
                kind=SourceKind.DECOY_POISSONIAN,
                mu=0.5,
                decoy_levels=((float("nan"), 1.0),),
            ),
            "finite",
        ),
        (dict(kind=SourceKind.SUB_POISSONIAN, mu=0.1, g2_zero=float("nan")), "finite"),
        (dict(kind=SourceKind.POISSONIAN, mu=0.3, lifetime_ns=float("inf")), "finite"),
    ],
)
def test_source_spec_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SourceSpec(**kwargs)


def test_on_demand_limit_is_valid():
    spec = SourceSpec(SourceKind.SUB_POISSONIAN, mu=1.0, g2_zero=0.0)
    assert np.allclose(photon_number_distribution(spec), [0.0, 1.0, 0.0])


def test_subpoissonian_sampling_statistics():
    spec = get_preset("nv")
    rng = np.random.default_rng(7)
    n = 400_000
    draws = sample_photon_numbers(spec, n, rng)
    dist = photon_number_distribution(spec)
    ones = int((draws == 1).sum())
    sigma = math.sqrt(n * dist[1] * (1 - dist[1]))
    assert abs(ones - n * dist[1]) < 4 * sigma
    assert draws.max() <= 2


def test_poisson_sampling_mean():
    spec = get_preset("wcp")
    rng = np.random.default_rng(11)
    n = 200_000
    draws = sample_photon_numbers(spec, n, rng)
    sigma = math.sqrt(spec.mu / n)
    assert abs(draws.mean() - spec.mu) < 4 * sigma


def test_decoy_sampling_mean():
    spec = get_preset("decoy")
    rng = np.random.default_rng(13)
    n = 200_000
    draws = sample_photon_numbers(spec, n, rng)
    # mixture variance = mu + mu^2 (g2_eff - 1)
    var = spec.mu + spec.mu**2 * (spec.g2_effective - 1)
    assert abs(draws.mean() - spec.mu) < 4 * math.sqrt(var / n)


def test_emission_delay_mean():
    # at a 1 us period the 28.5 ns decay never wraps, so a tag's phase within
    # its period is its emission delay
    spec = get_preset("nv")
    stream = simulate_hbt(spec, 3_000_000, np.random.default_rng(5))
    delays = stream.times_ns % spec.rep_period_ns
    n = delays.size
    assert n > 50_000
    assert abs(delays.mean() - 28.5) < 4 * 28.5 / math.sqrt(n)


def test_preset_lookup():
    assert set(PRESETS) == {"nv", "siv", "ideal10", "ideal95", "siv80", "wcp", "decoy"}
    with pytest.raises(ValueError, match="unknown preset"):
        get_preset("nb")
    assert get_preset("siv80").rep_rate_hz == 80e6
    assert get_preset("nv").rep_period_ns == pytest.approx(1000.0)
