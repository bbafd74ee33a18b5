"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
from harness import Workload, run_op  # noqa: E402

SESSION = Workload("t-session", "session", {"preset": "nv", "pulses": 200_000},
                   200_000, "pulses", checks.check_session)
CASCADE = Workload("t-cascade", "cascade", {"n_bits": 5_000, "qber": 0.03},
                   5_000, "bits", checks.check_cascade)
G2 = Workload("t-g2", "g2", {"preset": "nv", "pulses": 3_000_000},
              3_000_000, "pulses", checks.check_g2)
RATES = Workload("t-rates", "rates", {"preset": "nv", "wcp": True, "decoy": True,
                                      "dmax": 3, "step": 0.5},
                 7, "points", checks.check_rates)


def _rewrite(path: Path, key: str, change) -> None:
    lines = []
    for line in path.read_text().splitlines():
        if line.startswith(f"{key} = "):
            line = f"{key} = {change(line.partition(' = ')[2])}"
        lines.append(line)
    path.write_text("\n".join(lines) + "\n")


def _check(workload, prefix, seed=1):
    workload.check(prefix, workload.params, np.random.default_rng(seed))


@pytest.mark.parametrize("workload", [SESSION, CASCADE, G2, RATES], ids=lambda w: w.name)
def test_op_passes_its_check(tmp_path, workload):
    op = run_op(workload, 7, tmp_path / "op")
    assert op.failure is None and op.seconds > 0


@pytest.mark.parametrize("key, change", [
    ("secret_bits", lambda v: int(v) + 1),
    ("detected_count", lambda v: int(v) + 500),
    ("qber", lambda v: f"{float(v) * 1.5:.6g}"),
    ("verified", lambda v: "False"),
])
def test_tampered_session_fails(tmp_path, key, change):
    assert run_op(SESSION, 7, tmp_path / "op").failure is None
    _rewrite(tmp_path / "op" / "out.summary.txt", key, change)
    with pytest.raises(checks.CheckFailed):
        _check(SESSION, tmp_path / "op" / "out")


def test_tampered_cascade_fails(tmp_path):
    assert run_op(CASCADE, 3, tmp_path / "op").failure is None
    prefix = tmp_path / "op" / "out"
    _rewrite(Path(f"{prefix}.cascade.txt"), "leaked_bits", lambda v: int(v) - 1)
    with pytest.raises(checks.CheckFailed):
        _check(CASCADE, prefix)


def test_tampered_transcript_fails(tmp_path):
    assert run_op(CASCADE, 3, tmp_path / "op").failure is None
    prefix = tmp_path / "op" / "out"
    path = Path(f"{prefix}.transcript.bin")
    data = path.read_bytes()
    # drop the first parity request and its reply: 5 + 9 and 5 + 1 bytes
    shuffle = 5 + 8
    path.write_bytes(data[:shuffle] + data[shuffle + 20:])
    with pytest.raises(checks.CheckFailed):
        _check(CASCADE, prefix)


def test_tampered_g2_fails(tmp_path):
    assert run_op(G2, 5, tmp_path / "op").failure is None
    _rewrite(tmp_path / "op" / "out.g2.txt", "n_tags", lambda v: int(v) + 3000)
    with pytest.raises(checks.CheckFailed):
        _check(G2, tmp_path / "op" / "out")


def test_tampered_rates_fails(tmp_path):
    assert run_op(RATES, 5, tmp_path / "op").failure is None
    path = tmp_path / "op" / "out.rates.csv"
    lines = path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("0,"))
    cells = lines[row].split(",")
    cells[1] = f"{float(cells[1]) * (1 + 1e-5):.6g}"
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed):
        _check(RATES, tmp_path / "op" / "out")


def test_rerun_must_match(tmp_path):
    run_op(CASCADE, 3, tmp_path / "a")
    run_op(CASCADE, 3, tmp_path / "b")
    checks.compare_outputs(tmp_path / "a", tmp_path / "b")
    run_op(CASCADE, 4, tmp_path / "c")
    with pytest.raises(checks.CheckFailed):
        checks.compare_outputs(tmp_path / "a", tmp_path / "c")


def test_leakage_split_adds_up():
    from spsqkd.reconciliation import ReconciliationConfig, cascade

    rng = np.random.default_rng(2)
    alice = rng.integers(0, 2, 4000, dtype=np.uint8)
    bob = alice ^ (rng.random(4000) < 0.05).astype(np.uint8)
    out = cascade(alice, bob, ReconciliationConfig(est_qber=0.05, shuffle_seed=9))
    split = checks.leakage_split(out.transcript)
    checks.check_leakage(split, out.leaked_bits)
    assert split["pass0"] > split["pass1"] > 0
    assert split["confirm_rounds"] >= 50


def test_missing_binding_is_reported_not_fatal(tmp_path):
    bindings = spans.BINDINGS + (
        ("spsqkd.bb84", "run_session_renamed", "bb84.run_session"),
        ("spsqkd.no_such_layer", "f", "x.f"),
    )
    tracer = spans.Tracer(bindings)
    try:
        op = run_op(SESSION, 7, tmp_path / "op", tracer, op_id=1)
    finally:
        tracer.restore()
    assert op.failure is None
    assert tracer.missing == ["spsqkd.bb84.run_session_renamed", "spsqkd.no_such_layer.f"]
    metrics = spans.span_metrics(list(spans.by_op(tracer.spans).values()))
    assert metrics["bb84.sifted"] > 0


def test_self_times_account_for_the_op(tmp_path):
    tracer = spans.Tracer()
    try:
        assert run_op(SESSION, 7, tmp_path / "op", tracer, op_id=1).failure is None
    finally:
        tracer.restore()
    import spsqkd.pipeline

    assert not hasattr(spsqkd.pipeline.run_session, "__wrapped__")
    assert not tracer.missing
    assert tracer.split_transcripts() == []
    (op,) = spans.by_op(tracer.spans).values()
    assert {"cli.main", "pipeline.run_experiment_detailed", "bb84.run_session",
            "sources.sample_photon_numbers", "reconciliation.cascade",
            "reconciliation.privacy_amplify"} <= set(op.calls)
    # self times plus the tracer's own count-taking (between a wrapped call's
    # return and its wrapper's) add up to the traced op exactly
    counting = sum((s.leave - s.enter) - (s.end - s.start) for s in tracer.spans[1:])
    assert sum(op.own.values()) + counting == pytest.approx(op.s("cli.main"), rel=1e-9)
    assert counting < 0.25 * op.s("cli.main")
    assert all(v >= 0 for v in op.own.values())
    assert op.count("reconciliation.cascade", "pass0") > 0


def test_tiny_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "CURVES", {
        "reconciliation.cascade": ((1_000, 2_000), harness._curve_cascade),
        "bb84.run_session": ((10_000, 20_000), harness._curve_session),
    })
    monkeypatch.setattr(harness, "SETUP_SAMPLES", 1)
    plain = harness.run_workload(SESSION, 11, 0.05, False, ROOT, tmp_path)
    assert plain.failed == 0 and plain.attempted == harness.MIN_OPS + 1
    assert list(plain.metrics) == [name for name, _ in harness.END_TO_END]
    assert all(value > 0 for value, _ in plain.metrics.values())

    traced = harness.run_workload(SESSION, 11, 0.05, True, ROOT, tmp_path)
    assert traced.failed == 0 and traced.attempted == 2 * harness.MIN_OPS + 1
    assert list(traced.metrics) == [name for name, _ in harness.per_layer_units()]
    assert traced.metrics["bb84.sift_yield"][0] > 0
    assert traced.metrics["trace.overhead_ratio"][0] > 0
    assert traced.record["missing"] == []
    assert (tmp_path / "t-session-seed11.spans.jsonl").is_file()


def test_failed_ops_are_not_timed(tmp_path, monkeypatch):
    def check(prefix, params, rng):
        raise checks.CheckFailed("tampered")

    monkeypatch.setattr(harness, "SETUP_SAMPLES", 1)
    broken = Workload("t-broken", "cascade", CASCADE.params, CASCADE.units, "bits", check)
    with pytest.raises(harness.RunFailed, match="only 0 untraced ops passed"):
        harness.run_workload(broken, 11, 0.05, False, ROOT, tmp_path)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == harness.per_layer_units()


def test_checkout_without_source_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "g2-nv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
