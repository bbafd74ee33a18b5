"""Run every workload once and print its metrics as one table.

    python3 perfbench/report.py --seed 1 [--trace 1]

Each workload runs in its own process through run.py, exactly as a single
benchmark run, for the run_seconds that BENCHMARK.json sets.  The table
lists each metric by name and unit, plus fail_frac (failed ops over
attempted ops).  Exits 1 if any run fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"]
        print(f"{workload}  correct={result['correct']}  "
              f"fail_frac={result['failed'] / result['attempted']:.3g} "
              f"({result['failed']}/{result['attempted']} ops)")
        for name, metric in result["metrics"].items():
            print(f"    {name:48s} {metric['value']:12.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
