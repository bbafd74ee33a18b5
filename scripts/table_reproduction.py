"""Reproduce the two summary-table rows from seeded end-to-end sessions.

Runs the full Monte-Carlo chain (emission, loss, detection, sifting,
reconciliation, distillation) for the nv and siv presets, averages over
seeds, and prints the measured rates next to the closed-form prediction
at the same operating point.

    python3 scripts/table_reproduction.py --seeds 10 --pulses 1000000
"""

import argparse

import numpy as np

from spsqkd.channel import LinkSpec
from spsqkd.pipeline import run_experiment_detailed
from spsqkd.rates import RateInputs, gllp_rate
from spsqkd.sources import PRESETS


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--pulses", type=int, default=1_000_000)
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()
    for name in ("seeds", "pulses"):
        if getattr(args, name) < 1:
            ap.error(f"{name} must be at least 1, got {getattr(args, name)}")
    if args.seed_base < 0:
        ap.error(f"seed_base must be non-negative, got {args.seed_base}")

    link = LinkSpec()
    table = []
    for name in ("nv", "siv"):
        source = PRESETS[name]
        rows = []
        for s in range(args.seeds):
            try:
                summary, _ = run_experiment_detailed(
                    source, link, args.pulses, master_seed=args.seed_base + s
                )
            except ValueError as exc:
                # a run refuses a bad setting or size before any pulse; any ValueError counts as one
                ap.error(str(exc))
            if summary.aborted:
                raise SystemExit(f"{name} run with seed {args.seed_base + s} aborted")
            rows.append(
                (
                    summary.detected_rate_cps,
                    summary.sifted_rate_bps,
                    summary.qber,
                    summary.secured_rate_bps,
                )
            )
        pred = gllp_rate(RateInputs.from_source(source, link))
        table.append((name, *np.mean(rows, axis=0), pred))
    # printed once every run is in, so a refused or aborted run prints no table
    header = f"{'preset':<8}{'detected':>10}{'sifted':>10}{'QBER':>8}{'secured':>10}{'closed form':>13}"
    print(header)
    print("-" * len(header))
    for name, det, sif, qber, sec, pred in table:
        print(f"{name:<8}{det:>9.0f} {sif:>9.0f} {qber:>7.2%} {sec:>9.0f} {pred:>12.0f}")
    print(f"\n{args.seeds} seeds x {args.pulses} pulses per row, rates per second of wall-clock source time")


if __name__ == "__main__":
    main()
