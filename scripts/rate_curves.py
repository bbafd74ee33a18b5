"""Secure-rate-vs-distance curves for the single-photon presets and both lasers, as CSV.

Sweeps the closed-form rate for the presets in SOURCES and for the rivals,
the per-distance optimized attenuated laser and its decoy-state version,
over a fibre span, printing where each preset overtakes the laser.

    python3 scripts/rate_curves.py --dmax 60 --step 0.2 --out curves.csv
"""

import argparse
import inspect
import sys

import numpy as np

from spsqkd.channel import LinkSpec
from spsqkd.config import format_csv
from spsqkd.rates import RIVALS, crossover_distance, distance_grid, sweep_variants
from spsqkd.sources import PRESETS

# the single-photon presets, each set against every rival
SOURCES = ("nv", "siv", "ideal10", "ideal95")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dmax", type=float, default=60.0)
    ap.add_argument("--step", type=float, default=0.2)
    rep_rate = inspect.signature(sweep_variants).parameters["rep_rate_hz"].default
    ap.add_argument("--rep-rate", type=float, default=rep_rate)
    ap.add_argument("--out", default=None, help="CSV path (default: stdout)")
    args = ap.parse_args()

    sources = {name: PRESETS[name] for name in SOURCES}
    try:
        distances = distance_grid(args.dmax, args.step)
        curves = sweep_variants(sources, RIVALS, distances, LinkSpec(), rep_rate_hz=args.rep_rate)
    except ValueError as exc:
        ap.error(str(exc))

    columns = {"distance_km": distances, **curves}
    csv_text = format_csv({}, columns, ",".join(["%.6g"] * len(columns)))
    if args.out is None:
        sys.stdout.write(csv_text)
    else:
        try:
            with open(args.out, "w") as fh:
                fh.write(csv_text)
        except OSError as exc:
            ap.error(f"out: {exc}")
        print(f"wrote {distances.size} distances to {args.out}")

    for name in SOURCES:
        x = crossover_distance(distances, curves[name], curves["wcp"])
        label = f"{x:.1f} km" if np.isfinite(x) else "never"
        print(f"{name} reaches the optimized attenuated laser at: {label}")


if __name__ == "__main__":
    main()
