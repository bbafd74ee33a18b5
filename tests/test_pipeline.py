"""End-to-end experiment runner semantics."""

import dataclasses
import math

import numpy as np
import pytest

from spsqkd import pipeline
from spsqkd.channel import LinkSpec, exact_click_probability
from spsqkd.config import MAX_EVENTS, format_report
from spsqkd.pipeline import derive_seed, run_cascade_trial, run_experiment_detailed, run_g2
from spsqkd.sources import get_preset


def test_derive_seed_is_stable_and_word_dependent():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    assert derive_seed(42, 0) != derive_seed(42, 1)
    assert derive_seed(43, 0) != derive_seed(42, 0)
    assert 0 <= derive_seed(7, 3) < 2**32


def test_experiment_is_deterministic_in_master_seed():
    link = LinkSpec()
    a, _ = run_experiment_detailed(get_preset("nv"), link, 200_000, master_seed=5)
    b, _ = run_experiment_detailed(get_preset("nv"), link, 200_000, master_seed=5)
    c, _ = run_experiment_detailed(get_preset("nv"), link, 200_000, master_seed=6)
    assert a == b
    assert a != c


def test_secured_key_accounting_hangs_together():
    summary, _ = run_experiment_detailed(get_preset("nv"), LinkSpec(), 500_000, master_seed=2)
    assert summary.verified and not summary.aborted
    assert 0 < summary.secret_bits < summary.sifted_count
    assert summary.leaked_bits >= summary.corrections_made
    assert summary.secured_rate_bps == summary.secret_bits / summary.duration_s
    assert 0.0 < summary.delta < 0.05
    assert summary.est_qber >= summary.qber or summary.est_qber == 0.005


def test_dead_link_aborts_cleanly():
    summary, _ = run_experiment_detailed(
        get_preset("nv"), LinkSpec(distance_km=200.0), 20_000, master_seed=1
    )
    assert summary.aborted
    assert summary.secret_bits == 0
    assert summary.secured_rate_bps == 0.0


def test_sampled_disclosure_mode_still_distills():
    # 10 % of the sifted key spent on the error estimate instead of the
    # simulation-privileged full comparison
    summary, session = run_experiment_detailed(
        get_preset("nv"), LinkSpec(), 500_000, master_seed=3, disclose_fraction=0.1
    )
    assert session.disclosed_count == int(0.1 * session.sifted_count)
    assert summary.verified and not summary.aborted
    assert summary.secret_bits > 0
    # the distilled key came out of the reduced, undisclosed remainder
    assert summary.secret_bits < session.sifted_count - session.disclosed_count


def test_summary_text_round_trips_fields():
    summary, _ = run_experiment_detailed(get_preset("siv"), LinkSpec(), 300_000, master_seed=4)
    text = format_report({"config_hash": "deadbeef0123"}, dataclasses.asdict(summary))
    assert text.startswith("# config_hash=deadbeef0123\n")
    parsed = {}
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        parsed[key.strip()] = value.strip()
    assert int(parsed["secret_bits"]) == summary.secret_bits
    assert float(parsed["qber"]) == pytest.approx(summary.qber, abs=1e-6)
    assert parsed["verified"] == "True"


def test_zero_click_run_reports_nan_qber():
    dead = LinkSpec(distance_km=400.0, dark_count_prob=0.0)
    summary, _ = run_experiment_detailed(get_preset("siv80"), dead, 5_000, master_seed=9)
    assert summary.aborted
    assert math.isnan(summary.qber) or summary.sifted_count < 8


class _Reached(Exception):
    """Raised by the run_session spy: the run got past its size checks."""


def _spy_on_run_session(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise _Reached

    monkeypatch.setattr(pipeline, "run_session", spy)
    return calls


def test_session_over_the_detections_cap_is_refused_before_sampling(monkeypatch):
    calls = _spy_on_run_session(monkeypatch)
    wcp, link = get_preset("wcp"), LinkSpec()
    p_click = exact_click_probability(wcp, link)
    under = math.floor(MAX_EVENTS / p_click)
    over = under + 1
    assert under * p_click <= MAX_EVENTS < over * p_click
    with pytest.raises(ValueError, match=rf"^pulses = .* detections, over {MAX_EVENTS}$"):
        run_experiment_detailed(wcp, link, over, master_seed=1)
    assert calls == []
    # one pulse fewer is let through; the spy stops it before any sampling
    with pytest.raises(_Reached):
        run_experiment_detailed(wcp, link, under, master_seed=1)
    assert len(calls) == 1 and calls[0][2] == under


def test_session_over_the_shuffle_budget_is_refused_before_sampling(monkeypatch):
    # about 4.6e5 expected sifted bits, shuffled 253 times
    calls = _spy_on_run_session(monkeypatch)
    with pytest.raises(ValueError, match=r"^n_passes = 253 over .* shuffled bits"):
        run_experiment_detailed(get_preset("wcp"), LinkSpec(), 10_000_000, master_seed=1,
                                n_passes=253)
    assert calls == []


def test_session_over_the_confirmation_budget_is_refused_before_sampling(monkeypatch):
    # about 4.6e6 expected sifted bits, confirmed over 65535 rounds
    calls = _spy_on_run_session(monkeypatch)
    with pytest.raises(ValueError, match=r"^verify_bits = 65535 over .* confirmation words"):
        run_experiment_detailed(get_preset("wcp"), LinkSpec(), 100_000_000, master_seed=1,
                                verify_bits=65535)
    assert calls == []


def test_cascade_trial_over_the_confirmation_budget_is_refused_before_any_key(monkeypatch):
    def must_not_draw(*args, **kwargs):
        raise AssertionError("a key was drawn past the confirmation budget")

    monkeypatch.setattr(np.random, "default_rng", must_not_draw)
    with pytest.raises(ValueError, match=r"^verify_bits = 65535 over 16000000 key bits"):
        run_cascade_trial(16_000_000, 0.03, master_seed=1, verify_bits=65535)



@pytest.mark.parametrize(
    "kwargs, setting",
    [
        ({"qber": float("nan")}, "qber"),
        ({"qber": 0.5}, "qber"),
        ({"est_qber": 0.6}, "est_qber"),
        ({"n_passes": 1}, "n_passes"),
        ({"verify_bits": 65536}, "verify_bits"),
    ],
)
def test_cascade_trial_refuses_settings_before_reading_keys(kwargs, setting):
    def read_keys():
        raise AssertionError("the key pair was read before the settings were checked")

    with pytest.raises(ValueError, match=setting):
        run_cascade_trial(**{"n_bits": 1000, "qber": 0.03, "master_seed": 1, **kwargs},
                          read_keys=read_keys)


def test_cascade_trial_reconciles_a_given_pair():
    rng = np.random.default_rng(3)
    alice = rng.integers(0, 2, 2000, dtype=np.uint8)
    bob = alice ^ (rng.random(alice.size) < 0.02).astype(np.uint8)
    summary, outcome = run_cascade_trial(0, 0.0, master_seed=4, est_qber=0.02,
                                         read_keys=lambda: (alice, bob))
    assert summary.n_bits == alice.size and summary.verified
    assert summary.corrections_made == int((alice != bob).sum())
    assert summary.leaked_bits == outcome.leaked_bits and summary.residual_error_rate == 0
    assert math.isnan(summary.true_qber) and math.isnan(summary.shannon_ratio)


def test_g2_run_is_deterministic_and_reads_a_sparse_fit_as_nan():
    nv = get_preset("nv")
    a, hist = run_g2(nv, 300_000, master_seed=2)
    b, _ = run_g2(nv, 300_000, master_seed=2)
    assert a == b and a.n_tags > 0
    assert a.count_rate_cps == a.n_tags / a.duration_s
    assert int(hist.counts.sum()) > 0
    # too few tags to fit a lifetime, enough for the histogram's side peaks
    sparse, _ = run_g2(nv, 300_000, master_seed=2, detection_eff=0.05, window_periods=60)
    assert math.isnan(sparse.lifetime_ns) and not sparse.lifetime_reliable
