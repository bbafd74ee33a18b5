"""Workloads, the op loop and the metrics of one benchmark run.

An op is one ``spsqkd.cli.main([...])`` call in this process, with a seed
derived from the run's seed, writing into a temporary directory that the
op's output check then reads.  Ops run one at a time (a closed loop with
one client).  An untraced run reports the end-to-end metrics; a traced run
alternates untraced and traced ops and reports the per-layer metrics from
the traced ones, plus the layer size curves.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import checks
import spans


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    params: dict
    units: int  # work units per op: pulses, key bits or distance points
    unit: str
    check: Callable

    def argv(self, seed: int, prefix: Path) -> list[str]:
        args = [self.command]
        for key, value in self.params.items():
            flag = "--" + key.replace("_", "-")
            args += [flag] if value is True else [flag, str(value)]
        return args + ["--seed", str(seed), "--out", str(prefix), "--quiet"]


_RATES = {"preset": "nv", "wcp": True, "decoy": True, "ideal10": True, "ideal95": True,
          "dmax": 60, "step": 0.05}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("session-nv-25km", "session",
                 {"preset": "nv", "distance_km": 25, "pulses": 10_000_000},
                 10_000_000, "pulses", checks.check_session),
        Workload("session-wcp", "session", {"preset": "wcp", "pulses": 1_000_000},
                 1_000_000, "pulses", checks.check_session),
        Workload("cascade-300k", "cascade", {"n_bits": 300_000, "qber": 0.03},
                 300_000, "bits", checks.check_cascade),
        Workload("g2-nv", "g2", {"preset": "nv", "pulses": 30_000_000},
                 30_000_000, "pulses", checks.check_g2),
        Workload("rates-sweep", "rates", _RATES,
                 int(checks.rate_distances(_RATES).size), "points", checks.check_rates),
    )
}

END_TO_END = (("throughput", "1/s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

# fewest timed ops per run, whatever --seconds allows
MIN_OPS = 3
SETUP_SAMPLES = 7

SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import spsqkd.cli; "
    "print(time.perf_counter() - t0)"
)


# The machine this runs on changes speed by up to 2x over minutes (other
# tenants share its cores), which no run length averages away.  So each
# timed op and set-up sample is divided by the time of a fixed reference
# kernel run just before it, and reported in seconds of a machine on which
# that kernel takes REF_S (about its median on a shared 2-core Xeon VM with
# Python 3.11 and numpy 2.4).  Span times of a traced op take the factor of
# their op, and each size-curve point times the kernel before it too.  Raw
# wall times of ops and set-up are kept in the run record.
REF_S = 0.04


def reference_s() -> float:
    """Wall time of the reference kernel: Python float loop plus numpy work."""
    t0 = perf_counter()
    total = 0.0
    for i in range(1, 100_000):
        total += math.log2(i) * math.exp(-i * 1e-5)
    rng = np.random.default_rng(12345)
    for _ in range(5):  # small arrays, so the kernel adds little to peak RSS
        np.count_nonzero(rng.random(200_000) < 0.3)
        rng.binomial(3, 0.3, 100_000)
    np.convolve(rng.integers(0, 2, 3000), rng.integers(0, 2, 3000))
    return perf_counter() - t0


def op_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Op:
    seconds: float
    failure: str | None
    ref_s: float = REF_S  # reference kernel time just before the op

    @property
    def scale(self) -> float:
        return REF_S / self.ref_s

    @property
    def scaled_s(self) -> float:
        return self.seconds * self.scale


def run_op(workload: Workload, seed: int, out_dir: Path, tracer=None, op_id=0) -> Op:
    """One CLI call into ``out_dir``, timed, then checked."""
    import spsqkd.cli as cli

    out_dir.mkdir()
    prefix = out_dir / "out"
    argv = workload.argv(seed, prefix)
    failure = None
    t0 = perf_counter()
    try:
        code = tracer.call(op_id, cli.main, argv) if tracer else cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = None
        failure = "raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
    seconds = perf_counter() - t0
    if failure is None and code != 0:
        failure = f"exit code {code}"
    if failure is None:
        try:
            workload.check(prefix, workload.params, np.random.default_rng(seed))
        except Exception as exc:  # any check error fails the op, never the run
            failure = f"check: {exc}"
    return Op(seconds, failure)


def measure_setup(src: Path, samples: int) -> tuple[float, float]:
    """Median (raw, reference-scaled) time for a fresh interpreter to import spsqkd.cli."""
    env = dict(os.environ, PYTHONPATH=str(src))
    raw, scaled = [], []
    for _ in range(samples):
        ref = reference_s()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * REF_S / ref)
    return statistics.median(raw), statistics.median(scaled)


def _curve_cascade(n: int, rng: np.random.Generator):
    from spsqkd import reconciliation as r

    alice = rng.integers(0, 2, n, dtype=np.uint8)
    bob = alice ^ (rng.random(n) < 0.03).astype(np.uint8)
    cfg = r.ReconciliationConfig(est_qber=0.03, shuffle_seed=int(rng.integers(2**32)))
    return lambda: r.cascade(alice, bob, cfg)


def _curve_hash(n: int, rng: np.random.Generator):
    from spsqkd import reconciliation as r

    key = rng.integers(0, 2, n, dtype=np.uint8)
    # leakage of a 1.15-efficient CASCADE at 3% QBER, as in a wcp session
    leaked = round(1.15 * n * checks.h2(0.03))
    seed = int(rng.integers(2**32))
    return lambda: r.privacy_amplify(key, leaked, 0.0, 0.03, hash_seed=seed)


def _curve_session(n: int, rng: np.random.Generator):
    from spsqkd import bb84
    from spsqkd.channel import LinkSpec
    from spsqkd.sources import get_preset

    source, link = get_preset("nv"), LinkSpec()
    state = np.random.SeedSequence(int(rng.integers(2**32)))
    return lambda: bb84.run_session(source, link, n, np.random.default_rng(state))


# layer -> (sizes, input builder): each layer timed on its own over input size
CURVES = {
    "reconciliation.cascade": ((10_000, 100_000, 300_000), _curve_cascade),
    "reconciliation.privacy_amplify": ((10_000, 30_000), _curve_hash),
    "bb84.run_session": ((1_000_000, 10_000_000), _curve_session),
}
CURVE_REPEAT_S = 0.5  # repeat a point (up to 3 times) until this much is timed


def curve_metrics(seed: int, missing: list[str]) -> dict[str, float]:
    """Time each layer directly at fixed sizes, and its log-log slope.

    Each timing is scaled by the reference kernel run just before it.
    """
    rng = np.random.default_rng([seed, 0xC0])
    out = {}
    for layer, (sizes, build) in CURVES.items():
        times = []
        for n in sizes:
            try:
                fn = build(n, rng)
                runs = []
                while len(runs) < 3 and sum(runs) < CURVE_REPEAT_S:
                    ref = reference_s()
                    t0 = perf_counter()
                    fn()
                    runs.append((perf_counter() - t0) * REF_S / ref)
            except Exception as exc:  # a renamed layer loses its curve only
                missing.append(f"curve:{layer}: {exc!r}")
                runs = [0.0]
            times.append(statistics.median(runs))
            out[f"{layer}.s.n{n}"] = times[-1]
        ok = times[0] > 0 and times[-1] > 0
        slope = math.log(times[-1] / times[0]) / math.log(sizes[-1] / sizes[0]) if ok else 0.0
        out[f"{layer}.scaling_exp"] = slope
    return out


def per_layer_units() -> list[tuple[str, str]]:
    names = [(name, unit) for name, unit, _ in spans.SPAN_METRICS]
    names.append(("trace.overhead_ratio", "ratio"))
    for layer, (sizes, _) in CURVES.items():
        names += [(f"{layer}.s.n{n}", "s") for n in sizes]
        names.append((f"{layer}.scaling_exp", "slope"))
    return names


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_context(root: Path, workload: str, seed: int, seconds: int, trace: int,
                caps: dict[str, str]) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(root),
        "thread_caps": caps,
    }


class RunFailed(Exception):
    """Too few ops passed their checks to time the workload."""


def passed(ops: list, traced: bool) -> list[tuple[int, Op]]:
    """(op id, op) of each timed op of one kind that passed its checks.

    The warm-up op 0 is never timed.  Raises RunFailed below MIN_OPS.
    """
    ok = [(i, op) for i, t, op in ops if i > 0 and t == traced and op.failure is None]
    if len(ok) < MIN_OPS:
        kind = "traced" if traced else "untraced"
        failures = "; ".join(f"op {i}: {op.failure}" for i, _, op in ops if op.failure)
        raise RunFailed(f"only {len(ok)} {kind} ops passed, {MIN_OPS} needed ({failures})")
    return ok


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    record: dict


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 root: Path, out_root: Path) -> Result:
    """Warm-up op, then timed ops for ``seconds``; the first timed op reruns the warm-up."""
    reference_s()  # first call pays numpy's lazy set-up
    setup = None if trace else measure_setup(root / "src", SETUP_SAMPLES)
    tracer = spans.Tracer() if trace else None
    t_run = perf_counter()
    ops: list[tuple[int, bool, Op]] = []  # (op id, traced, result)
    try:
        with tempfile.TemporaryDirectory(dir=out_root) as tmp:
            tmp = Path(tmp)
            ops.append((0, False, run_op(workload, op_seed(seed, 0), tmp / "op0")))
            deadline = perf_counter() + seconds
            i = 1
            while perf_counter() < deadline or i <= (2 * MIN_OPS if trace else MIN_OPS):
                traced = trace and i % 2 == 0
                ref = reference_s()
                # op 1 reruns op 0's seed, and must write byte-identical files
                op = run_op(workload, op_seed(seed, 0 if i == 1 else i), tmp / f"op{i}",
                            tracer if traced else None, op_id=i)
                op.ref_s = ref
                if i == 1 and op.failure is None:
                    try:
                        checks.compare_outputs(tmp / "op0", tmp / "op1")
                    except checks.CheckFailed as exc:
                        op.failure = str(exc)
                ops.append((i, traced, op))
                shutil.rmtree(tmp / f"op{i}")
                i += 1
        layer = {}
        if trace:
            layer = layer_metrics(tracer, ops, seed)
            tracer.write(out_root / f"{workload.name}-seed{seed}.spans.jsonl", t_run)
    finally:
        if tracer:
            tracer.restore()

    timed = [op for _, op in passed(ops, traced=False)]
    op_s = statistics.median(op.scaled_s for op in timed)
    failed = sum(op.failure is not None for _, _, op in ops)
    record = {
        "ops": [{"op": i, "traced": t, "seconds": op.seconds, "ref_s": op.ref_s,
                 "failure": op.failure} for i, t, op in ops],
        "op_s_median": op_s,
        "op_s_median_raw": statistics.median(op.seconds for op in timed),
        "setup_s_raw": setup[0] if setup else None,
        "timed_ops": len(timed),
        "fail_frac": failed / len(ops),
        "missing": tracer.missing if tracer else [],
    }
    if trace:
        metrics = {name: (layer[name], unit) for name, unit in per_layer_units()}
    else:
        values = {
            "throughput": workload.units / op_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup[1],
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return Result(len(ops), failed, metrics, record)


def layer_metrics(tracer: spans.Tracer, ops: list, seed: int) -> dict[str, float]:
    for op_id, reason in tracer.split_transcripts():
        for i, _, op in ops:
            if i == op_id and op.failure is None:
                op.failure = f"trace: {reason}"
    per_op = spans.by_op(tracer.spans)
    traced = passed(ops, traced=True)
    out = spans.span_metrics([per_op[i] for i, _ in traced], [op.scale for _, op in traced])
    plain = statistics.median(op.scaled_s for _, op in passed(ops, traced=False))
    out["trace.overhead_ratio"] = statistics.median(op.scaled_s for _, op in traced) / plain
    out.update(curve_metrics(seed, tracer.missing))
    return out
