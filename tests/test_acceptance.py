"""End-to-end acceptance gate, one criterion per test.

Each test prints a single PASS line with the measured numbers once its
asserts clear, so `pytest -v -s tests/test_acceptance.py` reads as a
checklist: the two table rows, the closed-form anchors, crossover and
ordering properties of the rate curves, the reconciliation suite, the
autocorrelation estimator recoveries, Monte-Carlo vs closed-form
consistency, and byte-level determinism of the command line.
"""

import filecmp
import math
import subprocess
import sys
import time
from itertools import combinations

import numpy as np
import pytest

from spsqkd.channel import (
    LinkSpec,
    click_probability,
    error_rate_model,
    exact_click_probability,
)
from spsqkd.hbt import correlation_histogram, fit_lifetime, g2_at_zero, simulate_hbt
from spsqkd.pipeline import run_experiment_detailed
from spsqkd.rates import (
    RateInputs,
    binary_entropy,
    critical_efficiency,
    crossover_distance,
    default_variants,
    gllp_rate,
    sweep_variants,
)
from spsqkd.reconciliation import ReconciliationConfig, cascade
from spsqkd.sources import PRESETS, SourceKind, SourceSpec

TABLE_LINK = LinkSpec()  # 0.4 dB/km, eta 0.31, darks 2.4e-5, misalignment 3%


def _table_row(preset: str, n_seeds: int = 10, n_pulses: int = 1_000_000):
    det, sif, qber, sec = [], [], [], []
    for s in range(n_seeds):
        summary, _ = run_experiment_detailed(
            PRESETS[preset], TABLE_LINK, n_pulses, master_seed=1000 + s
        )
        assert not summary.aborted
        det.append(summary.detected_rate_cps)
        sif.append(summary.sifted_rate_bps)
        qber.append(summary.qber)
        sec.append(summary.secured_rate_bps)
    return np.mean(det), np.mean(sif), np.mean(qber), np.mean(sec)


def test_criterion_1_nv_table_row():
    t0 = time.monotonic()
    det, sif, qber, sec = _table_row("nv")
    elapsed = time.monotonic() - t0
    assert det == pytest.approx(8900, rel=0.10)
    assert 3800 <= sif <= 5000
    assert qber == pytest.approx(0.03, abs=0.005)
    assert sec == pytest.approx(2600, rel=0.15)
    assert elapsed < 30.0
    print(
        f"\nacceptance 1 PASS: nv 10-seed means {det:.0f} cps, {sif:.0f} bit/s sifted, "
        f"QBER {qber:.4f}, {sec:.0f} bit/s secured ({elapsed:.1f} s)"
    )


def test_criterion_2_siv_table_row():
    det, sif, qber, sec = _table_row("siv")
    assert det == pytest.approx(3700, rel=0.10)
    assert 1300 <= sif <= 2000
    assert qber == pytest.approx(0.03, abs=0.005)
    assert sec == pytest.approx(1000, rel=0.15)
    print(
        f"\nacceptance 2 PASS: siv 10-seed means {det:.0f} cps, {sif:.0f} bit/s sifted, "
        f"QBER {qber:.4f}, {sec:.0f} bit/s secured"
    )


def test_criterion_3_closed_form_anchors():
    t0 = time.monotonic()
    nv = gllp_rate(RateInputs.from_source(PRESETS["nv"], TABLE_LINK))
    siv = gllp_rate(RateInputs.from_source(PRESETS["siv"], TABLE_LINK))
    eta_c = critical_efficiency(0.04, 2.4e-5)
    elapsed = time.monotonic() - t0
    assert nv == pytest.approx(2540, abs=10)
    assert siv == pytest.approx(1060, abs=10)
    assert eta_c == pytest.approx(0.0346, abs=0.0005)
    assert elapsed < 1.0
    print(
        f"\nacceptance 3 PASS: zero-distance rates nv {nv:.1f} bit/s, siv {siv:.1f} bit/s, "
        f"critical efficiency {eta_c:.4f}"
    )


def test_criterion_4_crossover_distances():
    distances = np.arange(0.0, 30.0 + 1e-9, 0.1)
    curves = sweep_variants(default_variants(), distances, TABLE_LINK)
    nv_x = crossover_distance(distances, curves["nv"], curves["wcp"])
    siv_x = crossover_distance(distances, curves["siv"], curves["wcp"])
    assert 5.0 <= nv_x <= 11.0
    assert 11.0 <= siv_x <= 21.0
    print(
        f"\nacceptance 4 PASS: nv overtakes the optimized attenuated laser at {nv_x:.1f} km, "
        f"siv at {siv_x:.1f} km"
    )


def test_criterion_5_curve_orderings():
    distances = np.arange(0.0, 60.0 + 1e-9, 0.2)
    curves = sweep_variants(default_variants(), distances, TABLE_LINK)
    assert np.all(curves["decoy"] >= curves["wcp"] - 1e-9)
    alive95 = curves["ideal95"] > 0.0
    assert np.all(curves["ideal95"][alive95] > curves["decoy"][alive95])
    contested = (curves["ideal10"] > 0.0) | (curves["nv"] > 0.0)
    assert np.all(curves["ideal10"][contested] > curves["nv"][contested])
    print(
        f"\nacceptance 5 PASS: decoy >= wcp at all {distances.size} points, ideal95 beats decoy "
        f"at {int(alive95.sum())} live points, ideal10 beats nv wherever either is alive"
    )


def test_criterion_6_reconciliation_suite():
    t0 = time.monotonic()
    # (a) every two-error pattern on a 32-bit key is corrected exactly
    rng = np.random.default_rng(np.random.SeedSequence([9100, 0]))
    alice = rng.integers(0, 2, 32, dtype=np.uint8)
    cfg = ReconciliationConfig(est_qber=0.06, shuffle_seed=11)
    for i, j in combinations(range(32), 2):
        bob = alice.copy()
        bob[[i, j]] ^= 1
        out = cascade(alice, bob, cfg)
        assert np.array_equal(out.corrected_bob_key, alice), (i, j)
        assert out.verified_equal

    # (b) residual error and leakage over 100 seeded runs at 3% QBER
    n = 10_000
    budget = 1.3 * n * binary_entropy(0.03)
    leaks, residual = [], 0
    for s in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([9000, s]))
        a = rng.integers(0, 2, n, dtype=np.uint8)
        b = a ^ (rng.random(n) < 0.03).astype(np.uint8)
        out = cascade(a, b, ReconciliationConfig(est_qber=0.03, shuffle_seed=s))
        leaks.append(out.leaked_bits)
        residual += int(np.sum(out.corrected_bob_key != a))
    residual_ber = residual / (100 * n)
    assert residual_ber < 1e-3
    assert np.mean(leaks) <= budget

    # (c) all announced block parities match on the corrected key
    for s in (0, 1, 2):
        rng = np.random.default_rng(np.random.SeedSequence([9200, s]))
        a = rng.integers(0, 2, 3000, dtype=np.uint8)
        b = a ^ (rng.random(3000) < 0.03).astype(np.uint8)
        cfg = ReconciliationConfig(est_qber=0.03, shuffle_seed=s)
        corrected = cascade(a, b, cfg).corrected_bob_key
        for p in range(cfg.n_passes):
            if p == 0:
                perm = np.arange(3000)
            else:
                prng = np.random.default_rng(np.random.SeedSequence([cfg.shuffle_seed, p]))
                perm = prng.permutation(3000)
            k = min(3000, cfg.initial_block * (1 << p))
            for lo in range(0, 3000, k):
                block = perm[lo : lo + k]
                assert int(np.bitwise_xor.reduce(a[block])) == int(
                    np.bitwise_xor.reduce(corrected[block])
                )
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(
        f"\nacceptance 6 PASS: 496/496 two-error patterns corrected, residual BER "
        f"{residual_ber:.1e}, mean leakage {np.mean(leaks):.0f} <= {budget:.0f} bits "
        f"({elapsed:.1f} s)"
    )


def test_criterion_7_autocorrelation_recovery():
    def estimate(source, n_pulses, seed, bin_width_ns=1.0):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        stream = simulate_hbt(source, n_pulses, rng)
        hist = correlation_histogram(stream, bin_width_ns=bin_width_ns)
        return stream, g2_at_zero(hist)

    stream_nv, g2_nv = estimate(PRESETS["nv"], 10_000_000, [7000, 0])
    fit_nv = fit_lifetime(stream_nv)
    assert g2_nv == pytest.approx(0.09, abs=0.02)
    assert fit_nv.reliable and fit_nv.tau_ns == pytest.approx(28.5, abs=1.0)

    stream_siv, g2_siv = estimate(PRESETS["siv"], 10_000_000, [7000, 1])
    fit_siv = fit_lifetime(stream_siv)
    assert g2_siv == pytest.approx(0.04, abs=0.02)
    assert fit_siv.reliable and fit_siv.tau_ns == pytest.approx(3.0, abs=0.3)

    pure = SourceSpec(SourceKind.SUB_POISSONIAN, mu=0.1, g2_zero=0.0)
    _, g2_pure = estimate(pure, 10_000_000, [7000, 2])
    assert g2_pure == pytest.approx(0.0, abs=0.02)

    _, g2_wcp = estimate(PRESETS["wcp"], 1_000_000, [7001, 0])
    assert g2_wcp == pytest.approx(1.0, abs=0.05)

    stream80, g2_80 = estimate(PRESETS["siv80"], 1_000_000_000, [7002, 0], bin_width_ns=0.5)
    rate_kcps = stream80.times_ns.size / (stream80.duration_ns * 1e-9) / 1e3
    assert g2_80 < 0.1
    assert rate_kcps == pytest.approx(230, rel=0.05)
    print(
        f"\nacceptance 7 PASS: recovered g2 {g2_nv:.3f}/{g2_siv:.3f}/{g2_pure:.3f} "
        f"for 0.09/0.04/0, poissonian control {g2_wcp:.3f}, lifetimes "
        f"{fit_nv.tau_ns:.2f}/{fit_siv.tau_ns:.2f} ns, fast clock g2 {g2_80:.3f} "
        f"at {rate_kcps:.0f} kcps"
    )


def test_criterion_8_monte_carlo_matches_closed_form():
    n = 500_000
    worst = 0.0
    for i, name in enumerate(sorted(PRESETS)):
        source = PRESETS[name]
        for j, dist in enumerate((0.0, 5.0, 15.0)):
            link = LinkSpec(distance_km=dist)
            master = int(np.random.SeedSequence([8000, i, j]).generate_state(1)[0])
            s, _ = run_experiment_detailed(source, link, n, master_seed=master)

            # detected clicks against the photon-number expansion, and for
            # the three-level sources also against the first-order model
            # used by the rate analysis (their difference is < 1e-5 there)
            p = exact_click_probability(source, link)
            z = abs(s.detected_count - n * p) / math.sqrt(n * p * (1 - p))
            assert z < 4.0, (name, dist, "clicks", z)
            worst = max(worst, z)
            if source.kind is SourceKind.SUB_POISSONIAN:
                p_lin = click_probability(source.mu, link)
                z = abs(s.detected_count - n * p_lin) / math.sqrt(n * p_lin * (1 - p_lin))
                assert z < 4.0, (name, dist, "clicks-linear", z)
                worst = max(worst, z)

            e_model = error_rate_model(source.mu, link)
            assert s.sifted_count > 0 and not math.isnan(s.qber), (name, dist)
            z = abs(s.qber - e_model) / math.sqrt(e_model * (1 - e_model) / s.sifted_count)
            assert z < 4.0, (name, dist, "qber", z)
            worst = max(worst, z)
    print(
        f"\nacceptance 8 PASS: detected rate and QBER within 4 sigma of the click and "
        f"error models for all {len(PRESETS)} presets at 0/5/15 km (worst z {worst:.2f})"
    )


def test_criterion_9_cli_byte_determinism(tmp_path):
    base = [sys.executable, "-m", "spsqkd.cli"]
    commands = {
        "session": ["session", "--preset", "nv", "--pulses", "200000", "--seed", "11"],
        "rates": ["rates", "--preset", "nv", "--wcp", "--decoy", "--dmax", "12",
                  "--step", "0.5", "--seed", "1"],
        "cascade": ["cascade", "--n-bits", "10000", "--qber", "0.03", "--seed", "5"],
        "g2": ["g2", "--preset", "nv", "--pulses", "1000000", "--seed", "1"],
    }
    checked = 0
    for label, args in commands.items():
        outs = []
        for run in ("a", "b"):
            prefix = tmp_path / f"{label}_{run}" / "out"
            prefix.parent.mkdir()
            proc = subprocess.run(
                base + args + ["--out", str(prefix), "--quiet"],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, (label, proc.stderr)
            outs.append(sorted(prefix.parent.iterdir()))
        assert [p.name for p in outs[0]] == [p.name for p in outs[1]]
        assert outs[0], label
        for fa, fb in zip(*outs):
            assert filecmp.cmp(fa, fb, shallow=False), (label, fa.name)
            checked += 1
    print(
        f"\nacceptance 9 PASS: {checked} output files byte-identical across "
        f"repeat runs of all four commands"
    )
