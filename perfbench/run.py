"""Benchmark of the spsqkd command line: one workload, one run.

    python3 perfbench/run.py --workload session-wcp --seed 1 --seconds 18 --trace 0

Runs the package from ``src/`` of the checkout this file sits in.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer ones.  Op, set-up, span and size-curve times are scaled by a
reference kernel timed just before each op, sample or curve point, to take
out the speed drift of a shared machine (see harness.REF_S); the raw wall
times of ops and set-up are printed and recorded too.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the run context and each metric by name and unit.  The full record, and in
a traced run every span, goes to ``perfbench/out/``.  Exits 2 without a
result if the package source is missing, and 1 if fewer than harness.MIN_OPS
timed ops pass their checks (failed ops are never timed).

Tests of the benchmark itself: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# BLAS / OpenMP pools, capped before numpy loads; spsqkd is single-threaded
THREAD_CAPS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "spsqkd" / "__init__.py").is_file():
        print(f"error: no spsqkd package under {src}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_CAPS)
    sys.path.insert(0, str(src))

    import harness  # imports numpy, so only after the caps are set

    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")
    out_root = HERE / "out"
    out_root.mkdir(exist_ok=True)
    workload = harness.WORKLOADS[args.workload]
    context = harness.run_context(ROOT, args.workload, args.seed, args.seconds,
                                  args.trace, THREAD_CAPS)
    print("context " + json.dumps(context), flush=True)
    try:
        result = harness.run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                      ROOT, out_root)
    except harness.RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = {"context": context, "metrics": result.metrics, **result.record}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_root / name).write_text(json.dumps(record, indent=1) + "\n")
    for i, failure in ((o["op"], o["failure"]) for o in result.record["ops"]):
        if failure:
            print(f"op {i} FAILED: {failure}")
    for missing in result.record["missing"]:
        print(f"missing span or curve: {missing}")
    print(f"ops {result.attempted} timed {result.record['timed_ops']} "
          f"median {result.record['op_s_median']:.4f} s at reference speed "
          f"({result.record['op_s_median_raw']:.4f} s wall)  "
          f"fail_frac {result.record['fail_frac']:.3g}  ({workload.unit} per op: {workload.units})")
    for metric, (value, unit) in result.metrics.items():
        print(f"{metric:48s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
