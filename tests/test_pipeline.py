"""End-to-end experiment runner semantics."""

import math

import numpy as np
import pytest

from spsqkd.channel import LinkSpec
from spsqkd.pipeline import (
    derive_seed,
    format_summary_text,
    run_experiment_detailed,
)
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
    text = format_summary_text(summary, {"config_hash": "deadbeef0123"})
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
