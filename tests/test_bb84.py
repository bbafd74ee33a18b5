"""Protocol engine checks: encoding, measurement statistics, sifting."""

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from spsqkd import cli
from spsqkd.bb84 import _detector_clicks, run_session
from spsqkd.channel import LinkSpec, error_rate_model
from spsqkd.sources import SourceKind, SourceSpec, get_preset


def _perfect_source():
    return SourceSpec(SourceKind.SUB_POISSONIAN, mu=1.0, g2_zero=0.0)


def _perfect_link():
    return LinkSpec(setup_efficiency=1.0, dark_count_prob=0.0, misalignment=0.0)


def _pinned_bits(alice_bit, alice_basis, bob_basis, n):
    """Packed protocol bits giving every pulse the same bit and bases."""
    return np.packbits(np.tile(np.array([alice_bit, alice_basis, bob_basis], dtype=np.uint8), n))


def test_bob_measure_matched_noiseless():
    # one photon per pulse, every one arrives: Bob reads Alice's bit in
    # either basis, so each of the four states is sifted without error
    for bit in (0, 1):
        for basis in (0, 1):
            res = run_session(_perfect_source(), _perfect_link(), 50,
                              np.random.default_rng(1),
                              protocol_bits=_pinned_bits(bit, basis, basis, 50))
            assert res.sifted_count == 50
            assert np.all(res.sift_basis == basis)
            assert np.all(res.sift_bob_bits == bit)


def test_bob_measure_bright_mismatch_double_clicks():
    # 64 photons into a 50/50 split: odds of a single-sided outcome are 2^-63
    n = 200
    click0, click1 = _detector_clicks(np.full(n, 64), np.zeros(n, dtype=np.uint8),
                                      np.zeros(n, dtype=bool), np.zeros(n, dtype=np.uint8),
                                      _perfect_link(), np.random.default_rng(2))
    assert click0.all() and click1.all()


def test_bob_measure_mismatch_is_unbiased():
    n = 100_000
    click0, click1 = _detector_clicks(np.ones(n, dtype=np.int64),
                                      np.zeros(n, dtype=np.uint8),
                                      np.zeros(n, dtype=bool), np.zeros(n, dtype=np.uint8),
                                      _perfect_link(), np.random.default_rng(3))
    # a lone photon fires exactly one detector
    assert np.array_equal(click0, ~click1)
    assert abs(click0.mean() - 0.5) < 0.01


def test_bob_measure_misalignment_rate():
    link = LinkSpec(setup_efficiency=1.0, dark_count_prob=0.0, misalignment=0.1)
    n = 50_000
    res = run_session(_perfect_source(), link, n, np.random.default_rng(4),
                      protocol_bits=_pinned_bits(0, 0, 0, n))
    assert res.sifted_count == n
    assert abs(res.qber_measured - 0.1) < 4 * math.sqrt(0.1 * 0.9 / n)


def test_bob_measure_dark_counts_only():
    # a link that delivers no photons: every click is a dark count
    link = LinkSpec(distance_km=10_000.0, dark_count_prob=0.2)
    n = 50_000
    res = run_session(_perfect_source(), link, n, np.random.default_rng(5),
                      protocol_bits=_pinned_bits(0, 0, 0, n))
    # each detector fires at half the per-gate dark probability
    p_click = 1.0 - 0.9**2
    assert abs(res.detected_count / n - p_click) < 4 * math.sqrt(p_click * (1 - p_click) / n)
    # darks land in either detector alike, so half the resolved bits are wrong
    sigma = 0.5 / math.sqrt(res.sifted_count)
    assert abs(res.qber_measured - 0.5) < 4 * sigma


def test_run_session_validation():
    src, link = _perfect_source(), _perfect_link()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="n_pulses"):
        run_session(src, link, 0, rng)
    with pytest.raises(ValueError, match="disclose_fraction"):
        run_session(src, link, 10, rng, disclose_fraction=1.0)
    with pytest.raises(ValueError, match="policy"):
        run_session(src, link, 10, rng, double_click_policy="drop")
    with pytest.raises(ValueError, match="three per pulse"):
        run_session(src, link, 10, rng, protocol_bits=np.zeros(3, dtype=np.uint8))
    # packed bytes are always valid bits, so the unpacked 0/1 form is refused
    with pytest.raises(ValueError, match="uint8"):
        run_session(src, link, 1, rng, protocol_bits=np.array([0, 1, 2]))


@pytest.mark.parametrize(
    "bitgen", [np.random.MT19937, np.random.Philox, np.random.PCG64DXSM, np.random.SFC64]
)
def test_sessions_on_any_bit_generator_repeat_per_seed(bitgen):
    # every array and count of the result, disclosure draw included
    def run(seed):
        res = run_session(get_preset("wcp"), LinkSpec(dark_count_prob=0.05), 200_000,
                          np.random.Generator(bitgen(seed)), disclose_fraction=0.1)
        return [np.asarray(getattr(res, f.name)).tobytes() for f in fields(res)]

    first = run(3)
    assert run(3) == first
    assert run(4) != first


def test_noiseless_limit():
    rng = np.random.default_rng(11)
    res = run_session(_perfect_source(), _perfect_link(), 50_000, rng)
    assert res.qber_measured == 0.0
    assert res.detected_count == 50_000
    assert abs(res.sifted_count / res.n_pulses - 0.5) < 0.01
    assert res.disclosed_count == 0
    assert len(res.sifted_alice) == res.sifted_count


def test_nv_session_rates():
    src, link = get_preset("nv"), LinkSpec()
    res = run_session(src, link, 1_000_000, np.random.default_rng(42))
    assert res.sifted_rate_bps == pytest.approx(4500, rel=0.15)
    assert res.detected_rate_cps == pytest.approx(8900, rel=0.10)
    # one run sifts about 4.5k bits, so its QBER has sigma about 0.0026;
    # pooled over 40 runs it has sigma about 0.0004, and must lie within
    # 4 sigma of the model
    errors = sifted = 0
    for i in range(40):
        res = run_session(src, link, 1_000_000, np.random.default_rng([42, i]))
        errors += int(np.count_nonzero(res.sift_alice_bits != res.sift_bob_bits))
        sifted += res.sifted_count
    model = error_rate_model(src.mu, link)
    assert abs(errors / sifted - model) < 4 * math.sqrt(model * (1 - model) / sifted)


def test_siv_detected_rate():
    rng = np.random.default_rng(43)
    res = run_session(get_preset("siv"), LinkSpec(), 1_000_000, rng)
    assert res.detected_rate_cps == pytest.approx(3700, rel=0.10)


def test_sift_fraction_of_detected():
    rng = np.random.default_rng(44)
    res = run_session(get_preset("nv"), LinkSpec(), 1_000_000, rng)
    frac = res.sifted_count / res.detected_count
    sigma = 0.5 / math.sqrt(res.detected_count)
    assert abs(frac - 0.5) < 4 * sigma


def test_matched_errors_vanish_without_noise():
    # loss only: multiphoton partners carry the same polarization, so
    # surviving photons can never flip the matched-basis outcome
    src = get_preset("nv")
    link = LinkSpec(distance_km=15.0, dark_count_prob=0.0, misalignment=0.0)
    rng = np.random.default_rng(45)
    res = run_session(src, link, 500_000, rng)
    assert res.sifted_count > 0
    assert res.qber_measured == 0.0


def test_session_memory_per_click():
    # about 1.8e6 clicks; the peak comes while routing, which holds one
    # float64 uniform and one gathered table entry per click on top of the
    # session's own arrays, about 33 bytes per click in all
    tracemalloc.start()
    try:
        res = run_session(get_preset("wcp"), LinkSpec(), 20_000_000, np.random.default_rng(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.detected_count > 1_700_000
    assert peak < 37 * res.detected_count


def test_determinism_and_seed_sensitivity():
    src, link = get_preset("nv"), LinkSpec()
    a, b, c = (run_session(src, link, 20_000, np.random.default_rng(seed),
                           disclose_fraction=0.1) for seed in (7, 7, 8))
    assert np.array_equal(a.sift_alice_bits, b.sift_alice_bits)
    assert np.array_equal(a.sift_bob_bits, b.sift_bob_bits)
    # the disclosed sample is drawn from the seed too
    assert a.disclosed_mask.any()
    assert np.array_equal(a.disclosed_mask, b.disclosed_mask)
    assert a.qber_measured == b.qber_measured
    assert not np.array_equal(a.sift_alice_bits, c.sift_alice_bits)


def test_disclosure_bookkeeping():
    rng = np.random.default_rng(9)
    res = run_session(_perfect_source(), _perfect_link(), 10_000, rng,
                      disclose_fraction=0.1)
    assert res.disclosed_count == int(0.1 * res.sifted_count)
    assert len(res.sifted_alice) == res.sifted_count - res.disclosed_count
    assert not np.isnan(res.qber_measured)
    assert 0.0 <= res.qber_measured <= 1.0


def test_zero_disclosure_flags_undefined_qber():
    rng = np.random.default_rng(10)
    res = run_session(_perfect_source(), _perfect_link(), 100, rng,
                      disclose_fraction=0.001)
    assert res.disclosed_count == 0
    assert math.isnan(res.qber_measured)


def test_double_click_policies():
    # bright pulses with misalignment split between both matched detectors
    n = 5_000
    src = SourceSpec(SourceKind.POISSONIAN, mu=8.0)
    link = LinkSpec(setup_efficiency=1.0, dark_count_prob=0.0, misalignment=0.2)
    bits = _pinned_bits(0, 0, 0, n)
    kept = run_session(src, link, n, np.random.default_rng(12), protocol_bits=bits)
    dropped = run_session(src, link, n, np.random.default_rng(12),
                          double_click_policy="discard", protocol_bits=bits)
    # "random" resolves every click to a bit; "discard" keeps single clicks only
    assert kept.sifted_count == kept.detected_count
    assert dropped.detected_count == kept.detected_count
    p_single = math.exp(-8.0 * 0.2) + math.exp(-8.0 * 0.8) - 2 * math.exp(-8.0)
    sigma = math.sqrt(p_single * (1 - p_single) / n)
    assert abs(dropped.sifted_count / n - p_single) < 4 * sigma


def test_pulse_record_invariants():
    # a pulse is sifted iff the bases match and its clicks resolved to a bit
    n = 5_000
    src, link = get_preset("nv"), LinkSpec(dark_count_prob=0.05)
    bits = np.random.default_rng(13).integers(0, 2, 3 * n, dtype=np.uint8)
    alice_bit, alice_basis, bob_basis = bits.reshape(n, 3).T
    res = run_session(src, link, n, np.random.default_rng(14),
                      protocol_bits=np.packbits(bits))
    idx = res.sift_pulse_index
    assert res.sifted_count > 0
    assert np.array_equal(alice_basis[idx], bob_basis[idx])
    assert np.array_equal(res.sift_basis, alice_basis[idx])
    assert np.array_equal(res.sift_alice_bits, alice_bit[idx])
    # all bases matched: every detection is sifted; none matched: none is
    for bob, expect_all in ((1, True), (0, False)):
        res = run_session(src, link, n, np.random.default_rng(15),
                          protocol_bits=_pinned_bits(0, 1, bob, n))
        assert res.detected_count > 0
        assert res.sifted_count == (res.detected_count if expect_all else 0)


def test_external_protocol_bits():
    n = 200
    bits = np.packbits(np.zeros(3 * n, dtype=np.uint8))
    res = run_session(_perfect_source(), _perfect_link(), n,
                      np.random.default_rng(15), protocol_bits=bits)
    # all-zero stream: bit 0, both bases linear, every pulse matched
    assert res.sifted_count == n
    assert not res.sift_alice_bits.any()
    assert not res.sift_bob_bits.any()
    assert res.qber_measured == 0.0


def _bits_csv(tmp_path, monkeypatch, n, disclose, seed):
    """The bits.csv and summary.txt lines of a wcp session run by the CLI."""
    monkeypatch.chdir(tmp_path)
    cli.main(["session", "--preset", "wcp", "--pulses", str(n), "--seed", str(seed),
              "--disclose-fraction", str(disclose), "--bits-csv", "--quiet"])
    return ((tmp_path / "session.bits.csv").read_text(),
            (tmp_path / "session.summary.txt").read_text().splitlines())


def test_session_csv_shape(tmp_path, monkeypatch):
    text, summary = _bits_csv(tmp_path, monkeypatch, 4000, 0.25, 16)
    header = [line for line in summary if line.startswith("# ")]
    fields = dict(line.split(" = ") for line in summary if not line.startswith("# "))
    # the summary's settings header, the column names, one row per sifted bit
    lines = text.splitlines()
    assert lines[0].startswith("# config_hash=") and lines[:len(header)] == header
    assert lines[len(header)] == "pulse_index,basis,alice_bit,bob_bit,disclosed"
    rows = lines[len(header) + 1:]
    sifted = int(fields["sifted_count"])
    assert len(rows) == sifted > 0
    disclosed = sum(int(line.split(",")[4]) for line in rows)
    assert disclosed == int(0.25 * sifted)


def _session_csv_by_rows(result, metadata):
    """The per-row writer the column writer replaced, kept as its reference."""
    lines = [f"# {k}={v}" for k, v in metadata.items()]
    lines.append("pulse_index,basis,alice_bit,bob_bit,disclosed")
    for i in range(result.sifted_count):
        lines.append(
            f"{result.sift_pulse_index[i]},{result.sift_basis[i]},"
            f"{result.sift_alice_bits[i]},{result.sift_bob_bits[i]},"
            f"{int(result.disclosed_mask[i])}"
        )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n, disclose", [(1, 0.1), (300_000, 0.25), (2_000_000, 0.0)])
def test_session_csv_matches_the_row_writer(n, disclose, tmp_path, monkeypatch):
    # large pulse indices, both bases and bits, disclosed rows, and an empty key
    text, _ = _bits_csv(tmp_path, monkeypatch, n, disclose, 17)
    # the CLI draws its session from seed word 0 of the master seed
    rng = np.random.default_rng(np.random.SeedSequence([17, 0]))
    res = run_session(get_preset("wcp"), LinkSpec(), n, rng, disclose_fraction=disclose)
    meta = dict(line[2:].split("=", 1) for line in text.splitlines() if line.startswith("# "))
    assert text == _session_csv_by_rows(res, meta)
