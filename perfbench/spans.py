"""Outside-in spans around the layers of spsqkd, and the per-layer metrics.

The tracer replaces each layer's public function under the name its caller
looks it up by (``spsqkd.pipeline.cascade``, ``spsqkd.cli.simulate_hbt``,
...) with a wrapper that records one span per call: name, start, end,
parent span and op id.  Spans stay in memory until the run writes them
out.  Nothing under ``src/`` changes; a binding that no longer exists is
reported as missing instead of stopping the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import CheckFailed, check_leakage, h2, leakage_split

ROOT = "cli.main"

# (module, attribute the caller reads, span name).  Time spent in cli.main
# outside these calls, including config parsing and hashing, is cli's self
# time; the channel layer is inline numpy inside run_session.
BINDINGS = (
    ("spsqkd.cli", "run_experiment_detailed", "pipeline.run_experiment_detailed"),
    ("spsqkd.pipeline", "run_session", "bb84.run_session"),
    ("spsqkd.bb84", "sample_photon_numbers", "sources.sample_photon_numbers"),
    ("spsqkd.hbt", "sample_photon_numbers", "sources.sample_photon_numbers"),
    ("spsqkd.cli", "cascade", "reconciliation.cascade"),
    ("spsqkd.pipeline", "cascade", "reconciliation.cascade"),
    ("spsqkd.pipeline", "privacy_amplify", "reconciliation.privacy_amplify"),
    ("spsqkd.cli", "simulate_hbt", "hbt.simulate_hbt"),
    ("spsqkd.cli", "correlation_histogram", "hbt.correlation_histogram"),
    ("spsqkd.cli", "fit_lifetime", "hbt.fit_lifetime"),
    ("spsqkd.cli", "g2_at_zero", "hbt.g2_at_zero"),
    ("spsqkd.cli", "sweep_variants", "rates.sweep_variants"),
    ("spsqkd.rates", "decoy_optimal_rate", "rates.decoy_optimal_rate"),
    ("spsqkd.rates", "wcp_rate", "rates.wcp_rate"),
    ("spsqkd.rates", "gllp_rate", "rates.gllp_rate"),
)


def _count_photons(args, result):
    return {"pulses": int(args["n_pulses"]), "nonvacuum": int(np.count_nonzero(result))}


def _count_session(args, result):
    return {
        "pulses": result.n_pulses,
        "detected": result.detected_count,
        "sifted": result.sifted_count,
    }


def _count_cascade(args, result):
    alice = np.asarray(args["alice_key"])
    qber = float(np.mean(alice != np.asarray(args["bob_key"])))
    return {
        "bits": int(alice.size),
        "leaked": result.leaked_bits,
        "corrections": result.corrections_made,
        "shannon_bits": alice.size * h2(qber),
    }


def _count_hash(args, result):
    n, m = int(np.asarray(args["key"]).size), len(result)
    return {"in_bits": n, "out_bits": m, "ops": n * m}


# counts taken from a call's arguments and result, after its end time
COUNTERS = {
    "sources.sample_photon_numbers": _count_photons,
    "bb84.run_session": _count_session,
    "reconciliation.cascade": _count_cascade,
    "reconciliation.privacy_amplify": _count_hash,
    "hbt.simulate_hbt": lambda args, result: {"tags": len(result)},
    "hbt.correlation_histogram": lambda args, result: {"pairs": int(result.counts.sum())},
}


@dataclass
class Span:
    name: str
    op: int
    parent: int
    enter: float = 0.0  # wrapper entered
    start: float = 0.0  # wrapped call made
    end: float = 0.0  # wrapped call returned
    leave: float = 0.0  # counts taken, wrapper returns
    counts: dict = field(default_factory=dict)
    transcript: bytes | None = None  # CASCADE transcript, split after the run


class Tracer:
    """Records spans while ``active``; calls pass straight through otherwise."""

    def __init__(self, bindings=BINDINGS):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.active = False
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []
        for module_name, attr, name in bindings:
            self._wrap(module_name, attr, name)

    def _wrap(self, module_name: str, attr: str, name: str) -> None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(f"{module_name}.{attr}")
            return
        counter = COUNTERS.get(name)
        signature = inspect.signature(original) if counter else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            enter = perf_counter()
            span = Span(name, self._op, self._stack[-1], enter)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.counts = counter(bound.arguments, result)
                    if name == "reconciliation.cascade":
                        span.transcript = result.transcript
                except Exception:  # a changed signature or result loses the counts only
                    if f"counts:{name}" not in self.missing:
                        self.missing.append(f"counts:{name}")
            span.leave = perf_counter()
            return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))

    def call(self, op: int, fn, *args):
        """Run ``fn(*args)`` as op ``op`` under a root span named cli.main."""
        span = Span(ROOT, op, -1)
        self._op = op
        self._stack = [len(self.spans)]
        self.spans.append(span)
        self.active = True
        span.enter = span.start = perf_counter()
        try:
            return fn(*args)
        finally:
            span.end = span.leave = perf_counter()
            self.active = False

    def restore(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def split_transcripts(self) -> list[tuple[int, str]]:
        """Decode each CASCADE transcript into per-pass reply counts.

        Returns (op, reason) for every transcript whose split does not add
        up to the leakage the call reported.
        """
        bad = []
        for span in self.spans:
            if span.transcript is None:
                continue
            split = leakage_split(span.transcript)
            span.transcript = None
            try:
                check_leakage(split, span.counts["leaked"])
            except CheckFailed as exc:
                bad.append((span.op, str(exc)))
            split.pop("other")
            split.pop("replies")
            span.counts.update(split)
        return bad

    def write(self, path: Path, t0: float) -> None:
        with open(path, "w") as out:
            for i, s in enumerate(self.spans):
                record = {
                    "op": s.op, "id": i, "parent": s.parent, "name": s.name,
                    "start": s.start - t0, "end": s.end - t0, "counts": s.counts,
                }
                out.write(json.dumps(record) + "\n")


class OpSpans:
    """Per-name totals over the spans of one op."""

    def __init__(self, spans: list[Span], ids: list[int]):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.own: dict[str, float] = {}
        self.counts: dict[str, dict[str, float]] = {}
        covered = {i: 0.0 for i in ids}
        for i in ids:
            s = spans[i]
            if s.parent >= 0:
                covered[s.parent] += s.leave - s.enter
        for i in ids:
            s = spans[i]
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            self.total[s.name] = self.total.get(s.name, 0.0) + s.end - s.start
            own = s.end - s.start - covered[i]
            self.own[s.name] = self.own.get(s.name, 0.0) + own
            bucket = self.counts.setdefault(s.name, {})
            for key, value in s.counts.items():
                bucket[key] = bucket.get(key, 0) + value

    def s(self, name: str) -> float:
        return self.total.get(name, 0.0)

    def self_s(self, name: str) -> float:
        return self.own.get(name, 0.0)

    def n(self, name: str) -> int:
        return self.calls.get(name, 0)

    def count(self, name: str, key: str) -> float:
        return self.counts.get(name, {}).get(key, 0)

    def ratio(self, name: str, key: str, base_name: str, base_key: str) -> float:
        base = self.count(base_name, base_key)
        return self.count(name, key) / base if base else 0.0


_SPS = "sources.sample_photon_numbers"
_CAS = "reconciliation.cascade"
_PA = "reconciliation.privacy_amplify"

# per-op metrics from the spans of one op; the run reports each one's median
SPAN_METRICS = (
    ("cli.self_s", "s", lambda a: a.self_s(ROOT)),
    ("pipeline.run_experiment_detailed.self_s", "s",
     lambda a: a.self_s("pipeline.run_experiment_detailed")),
    ("bb84.run_session.self_s", "s", lambda a: a.self_s("bb84.run_session")),
    ("bb84.pulses", "count", lambda a: a.count("bb84.run_session", "pulses")),
    ("bb84.detected", "count", lambda a: a.count("bb84.run_session", "detected")),
    ("bb84.sifted", "count", lambda a: a.count("bb84.run_session", "sifted")),
    ("bb84.sift_yield", "ratio",
     lambda a: a.ratio("bb84.run_session", "sifted", "bb84.run_session", "pulses")),
    (f"{_SPS}.s", "s", lambda a: a.s(_SPS)),
    (f"{_SPS}.pulses", "count", lambda a: a.count(_SPS, "pulses")),
    (f"{_SPS}.nonvacuum_frac", "ratio", lambda a: a.ratio(_SPS, "nonvacuum", _SPS, "pulses")),
    (f"{_CAS}.s", "s", lambda a: a.s(_CAS)),
    (f"{_CAS}.bits", "count", lambda a: a.count(_CAS, "bits")),
    (f"{_CAS}.parity_replies", "count", lambda a: a.count(_CAS, "leaked")),
    (f"{_CAS}.replies_pass0", "count", lambda a: a.count(_CAS, "pass0")),
    (f"{_CAS}.replies_pass1", "count", lambda a: a.count(_CAS, "pass1")),
    (f"{_CAS}.replies_pass2", "count", lambda a: a.count(_CAS, "pass2")),
    (f"{_CAS}.replies_pass3", "count", lambda a: a.count(_CAS, "pass3")),
    (f"{_CAS}.confirm_rounds", "count", lambda a: a.count(_CAS, "confirm_rounds")),
    (f"{_CAS}.repair_replies", "count", lambda a: a.count(_CAS, "repair_replies")),
    (f"{_CAS}.corrections", "count", lambda a: a.count(_CAS, "corrections")),
    (f"{_CAS}.leak_ratio", "ratio", lambda a: a.ratio(_CAS, "leaked", _CAS, "shannon_bits")),
    (f"{_PA}.s", "s", lambda a: a.s(_PA)),
    (f"{_PA}.in_bits", "count", lambda a: a.count(_PA, "in_bits")),
    (f"{_PA}.out_bits", "count", lambda a: a.count(_PA, "out_bits")),
    (f"{_PA}.ops", "count", lambda a: a.count(_PA, "ops")),
    ("hbt.simulate_hbt.self_s", "s", lambda a: a.self_s("hbt.simulate_hbt")),
    ("hbt.tags", "count", lambda a: a.count("hbt.simulate_hbt", "tags")),
    ("hbt.correlation_histogram.s", "s", lambda a: a.s("hbt.correlation_histogram")),
    ("hbt.correlation_histogram.pairs", "count",
     lambda a: a.count("hbt.correlation_histogram", "pairs")),
    ("hbt.fit_lifetime.s", "s", lambda a: a.s("hbt.fit_lifetime")),
    ("hbt.g2_at_zero.s", "s", lambda a: a.s("hbt.g2_at_zero")),
    ("rates.sweep_variants.self_s", "s", lambda a: a.self_s("rates.sweep_variants")),
    ("rates.decoy_optimal_rate.s", "s", lambda a: a.s("rates.decoy_optimal_rate")),
    ("rates.decoy_optimal_rate.calls", "count", lambda a: a.n("rates.decoy_optimal_rate")),
    ("rates.gllp_rate.calls", "count", lambda a: a.n("rates.gllp_rate")),
    ("rates.wcp_rate.calls", "count", lambda a: a.n("rates.wcp_rate")),
    ("trace.op_s", "s", lambda a: a.s(ROOT)),
    ("trace.self_sum_frac", "ratio", lambda a: sum(a.own.values()) / a.s(ROOT)),
)


def by_op(spans: list[Span]) -> dict[int, OpSpans]:
    ids: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        ids.setdefault(s.op, []).append(i)
    return {op: OpSpans(spans, members) for op, members in ids.items()}


def span_metrics(ops: list[OpSpans], scales: list[float] | None = None) -> dict[str, float]:
    """Median over ops of every SPAN_METRICS entry.

    ``scales`` gives one factor per op that its times (unit ``s``) are
    multiplied by, as the harness does to take out machine speed drift.
    """
    scales = scales or [1.0] * len(ops)
    return {
        name: float(statistics.median(
            fn(a) * (k if unit == "s" else 1.0) for a, k in zip(ops, scales)))
        for name, unit, fn in SPAN_METRICS
    }
