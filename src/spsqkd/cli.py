"""Command-line front end: sessions, rate sweeps, reconciliation, g2 runs.

Settings resolve in three layers: built-in defaults, then a `--config`
key = value file, then explicit flags.  Exit codes: 0 success, 2 bad
configuration or arguments, 3 insufficient data or protocol abort.  Output
files carry a `# config_hash=` header binding them to the effective
settings, and a fixed seed makes reruns byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .bb84 import format_session_csv
from .channel import LinkSpec
from .config import coerce_value, config_hash, format_value, load_config_file
from .hbt import (
    InsufficientDataError,
    correlation_histogram,
    fit_lifetime,
    g2_at_zero,
    simulate_hbt,
)
from .pipeline import derive_seed, format_summary_text, run_experiment_detailed
from .rates import (
    RateVariant,
    binary_entropy,
    crossover_distance,
    format_rate_csv,
    sweep_variants,
)
from .reconciliation import ReconciliationConfig, cascade
from .sources import get_preset

__all__ = ["main", "entry", "build_parser"]


class Setting(NamedTuple):
    """One setting: config key, value kind, default (None: not set), help."""

    key: str
    kind: type
    default: object
    help: str | None = None


# command -> dest -> setting; each dest is also the flag `--dest-with-dashes`
_SCHEMAS = {
    "session": {
        "preset": Setting("source.preset", str, "nv"),
        "pulses": Setting("session.pulses", int, 1_000_000),
        "distance_km": Setting("link.distance_km", float, 0.0),
        "attenuation_db_per_km": Setting("link.attenuation_db_per_km", float, 0.4),
        "setup_efficiency": Setting("link.setup_efficiency", float, 0.31),
        "dark_count_prob": Setting("link.dark_count_prob", float, 2.4e-5),
        "misalignment": Setting("link.misalignment", float, 0.03),
        "disclose_fraction": Setting("session.disclose_fraction", float, 0.0),
        "double_click_policy": Setting("session.double_click_policy", str, "random"),
        "n_passes": Setting("recon.n_passes", int, 4),
        "verify_bits": Setting("recon.verify_bits", int, 50),
        "safety_margin": Setting("recon.safety_margin", int, 30),
        "entropy_file": Setting(
            "session.entropy_file", str, "", "raw bytes supplying protocol bits"
        ),
        "bits_csv": Setting(
            "session.bits_csv", bool, False, "also write the per-bit sifted-key CSV"
        ),
    },
    "rates": {
        "preset": Setting("source.preset", str, "nv"),
        "dmax": Setting("rates.dmax_km", float, 30.0, "sweep end in km"),
        "step": Setting("rates.step_km", float, 0.1, "sweep step in km"),
        "rep_rate": Setting("rates.rep_rate_hz", float, 1e6),
        "f_ec": Setting("rates.f_ec", float, 1.22),
        "flat_error": Setting("rates.flat_error", bool, False),
        "wcp": Setting("rates.wcp", bool, False),
        "decoy": Setting("rates.decoy", bool, False),
        "ideal10": Setting("rates.ideal10", bool, False),
        "ideal95": Setting("rates.ideal95", bool, False),
        "attenuation_db_per_km": Setting("link.attenuation_db_per_km", float, 0.4),
        "setup_efficiency": Setting("link.setup_efficiency", float, 0.31),
        "dark_count_prob": Setting("link.dark_count_prob", float, 2.4e-5),
        "misalignment": Setting("link.misalignment", float, 0.03),
    },
    "cascade": {
        "n_bits": Setting("cascade.n_bits", int, 10_000),
        "qber": Setting("cascade.qber", float, 0.03),
        "est_qber": Setting("cascade.est_qber", float, None),
        "n_passes": Setting("recon.n_passes", int, 4),
        "verify_bits": Setting("recon.verify_bits", int, 50),
        "alice_file": Setting("cascade.alice_file", str, "", "text file of 0/1 characters"),
        "bob_file": Setting("cascade.bob_file", str, "", "text file of 0/1 characters"),
    },
    "g2": {
        "preset": Setting("source.preset", str, "nv"),
        "pulses": Setting("g2.pulses", int, 10_000_000),
        "mu": Setting("source.mu", float, None),
        "g2_zero": Setting("source.g2_zero", float, None),
        "lifetime_ns": Setting("source.lifetime_ns", float, None),
        "rep_rate": Setting("source.rep_rate_hz", float, None),
        "splitter_ratio": Setting("g2.splitter_ratio", float, 0.5),
        "detection_eff": Setting("g2.detection_eff", float, 1.0),
        "bin_width_ns": Setting("g2.bin_width_ns", float, 1.0),
        "window_periods": Setting("g2.window_periods", int, 5),
    },
}
# every subcommand takes the master seed
for _schema in _SCHEMAS.values():
    _schema["seed"] = Setting("seed", int, 0, "master seed")

# out and quiet are read by main and stay out of the hashed settings
_KNOWN_KEYS = {s.key for schema in _SCHEMAS.values() for s in schema.values()}
_KNOWN_KEYS |= {"out", "quiet"}


def _int_arg(text: str) -> int:
    return coerce_value("argument", text, int)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value settings file")
    common.add_argument("--out", default=None, help="output file prefix")
    common.add_argument("--quiet", action="store_const", const=True, default=None)

    parser = argparse.ArgumentParser(
        prog="spsqkd",
        description="Single-photon QKD bench simulator and rate analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in _SCHEMAS.items():
        p = sub.add_parser(command, parents=[common], help=_COMMANDS[command][1])
        for dest, setting in schema.items():
            flag = "--" + dest.replace("_", "-")
            if setting.kind is bool:
                p.add_argument(flag, action="store_const", const=True, help=setting.help)
            else:
                kind = _int_arg if setting.kind is int else setting.kind
                p.add_argument(flag, type=kind, help=setting.help)
    return parser


def _resolve(command: str, args: argparse.Namespace, file_cfg: dict) -> dict:
    """Defaults, then config file, then flags.  Returns dest -> value."""
    for key in file_cfg:
        if key not in _KNOWN_KEYS:
            raise ValueError(f"unknown config key: {key}")
    settings = {}
    for dest, (key, kind, default, _) in _SCHEMAS[command].items():
        value = default
        if key in file_cfg:
            value = coerce_value(key, file_cfg[key], kind)
        flag = getattr(args, dest)
        if flag is not None:
            value = flag
        settings[dest] = value
    return settings


def _effective(command: str, settings: dict) -> dict:
    eff = {"command": command}
    for dest, setting in _SCHEMAS[command].items():
        value = settings[dest]
        eff[setting.key] = "" if value is None else format_value(value)
    return eff


def _metadata(effective: dict) -> dict:
    meta = {"config_hash": config_hash(effective)}
    for key in sorted(effective):
        meta[key] = effective[key]
    return meta


def _link_from(settings: dict, distance: float = 0.0) -> LinkSpec:
    return LinkSpec(
        distance_km=distance,
        attenuation_db_per_km=settings["attenuation_db_per_km"],
        setup_efficiency=settings["setup_efficiency"],
        dark_count_prob=settings["dark_count_prob"],
        misalignment=settings["misalignment"],
    )


def _emit(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _load_protocol_bits(path: str, n_pulses: int) -> np.ndarray:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"entropy file not found: {path}")
    bits = np.unpackbits(np.frombuffer(p.read_bytes(), dtype=np.uint8))
    need = 3 * n_pulses
    if bits.size < need:
        raise ValueError(
            f"entropy file too short: need {need} bits, have {bits.size}"
        )
    return bits[:need]


def _load_key_file(path: str) -> np.ndarray:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"key file not found: {path}")
    text = "".join(p.read_text().split())
    if not text or set(text) - {"0", "1"}:
        raise ValueError(f"key file must hold only 0/1 characters: {path}")
    return np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")


def cmd_session(settings: dict, out: str, quiet: bool) -> int:
    source = get_preset(settings["preset"])
    link = _link_from(settings, distance=settings["distance_km"])
    protocol_bits = None
    if settings["entropy_file"]:
        protocol_bits = _load_protocol_bits(settings["entropy_file"], settings["pulses"])
    summary, session = run_experiment_detailed(
        source,
        link,
        settings["pulses"],
        master_seed=settings["seed"],
        disclose_fraction=settings["disclose_fraction"],
        double_click_policy=settings["double_click_policy"],
        n_passes=settings["n_passes"],
        verify_bits=settings["verify_bits"],
        safety_margin=settings["safety_margin"],
        protocol_bits=protocol_bits,
    )
    meta = _metadata(_effective("session", settings))
    Path(f"{out}.summary.txt").write_text(format_summary_text(summary, meta))
    if settings["bits_csv"]:
        Path(f"{out}.bits.csv").write_text(format_session_csv(session, meta))
    _emit(
        quiet,
        f"sifted {summary.sifted_rate_bps:.6g} bit/s  qber {summary.qber:.4f}  "
        f"secured {summary.secured_rate_bps:.6g} bit/s -> {out}.summary.txt",
    )
    if summary.aborted or not summary.verified:
        print("protocol aborted: zero-length key", file=sys.stderr)
        return 3
    return 0


def cmd_rates(settings: dict, out: str, quiet: bool) -> int:
    step, dmax = settings["step"], settings["dmax"]
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step}")
    if not (math.isfinite(dmax) and dmax >= 0):
        raise ValueError(f"dmax must be non-negative and finite, got {dmax}")
    link = _link_from(settings)
    distances = np.arange(0.0, dmax + step / 2, step)

    variants = [RateVariant(settings["preset"], "fixed", get_preset(settings["preset"]))]
    if settings["ideal10"] and settings["preset"] != "ideal10":
        variants.append(RateVariant("ideal10", "fixed", get_preset("ideal10")))
    if settings["ideal95"] and settings["preset"] != "ideal95":
        variants.append(RateVariant("ideal95", "fixed", get_preset("ideal95")))
    if settings["wcp"]:
        variants.append(RateVariant("wcp", "wcp"))
    if settings["decoy"]:
        variants.append(RateVariant("decoy", "decoy"))

    curves = sweep_variants(
        variants,
        distances,
        link,
        rep_rate_hz=settings["rep_rate"],
        f_ec=settings["f_ec"],
        flat_error=settings["flat_error"],
    )
    meta = _metadata(_effective("rates", settings))
    for variant in variants:
        if variant.mode != "fixed":
            continue
        for rival in ("wcp", "decoy"):
            if rival in curves:
                d = crossover_distance(distances, curves[variant.name], curves[rival])
                meta[f"crossover_{variant.name}_{rival}_km"] = f"{d:.6g}"
    Path(f"{out}.rates.csv").write_text(format_rate_csv(distances, curves, meta))
    fields = [f"{k}={v}" for k, v in meta.items() if k.startswith("crossover_")]
    _emit(quiet, f"wrote {out}.rates.csv  " + "  ".join(fields))
    return 0


def cmd_cascade(settings: dict, out: str, quiet: bool) -> int:
    if bool(settings["alice_file"]) != bool(settings["bob_file"]):
        raise ValueError("provide both --alice-file and --bob-file, or neither")
    if settings["alice_file"]:
        alice = _load_key_file(settings["alice_file"])
        bob = _load_key_file(settings["bob_file"])
        qber_true = float("nan")
    else:
        rng_a = np.random.default_rng(np.random.SeedSequence([settings["seed"], 0]))
        rng_b = np.random.default_rng(np.random.SeedSequence([settings["seed"], 1]))
        alice = rng_a.integers(0, 2, settings["n_bits"], dtype=np.uint8)
        flips = (rng_b.random(settings["n_bits"]) < settings["qber"]).astype(np.uint8)
        bob = alice ^ flips
        qber_true = float(flips.mean())

    est = settings["est_qber"]
    if est is None:
        est = max(settings["qber"], 0.005)
    cfg = ReconciliationConfig(
        est_qber=est,
        n_passes=settings["n_passes"],
        shuffle_seed=derive_seed(settings["seed"], 2),
        verify_bits=settings["verify_bits"],
    )
    outcome = cascade(alice, bob, cfg)
    residual = float(np.mean(alice != outcome.corrected_bob_key))
    n = alice.size
    shannon = n * binary_entropy(qber_true) if qber_true > 0 else float("nan")
    ratio = outcome.leaked_bits / shannon if shannon > 0 else float("nan")

    meta = _metadata(_effective("cascade", settings))
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines += [
        f"n_bits = {n}",
        f"true_qber = {qber_true:.6g}",
        f"est_qber = {est:.6g}",
        f"corrections_made = {outcome.corrections_made}",
        f"leaked_bits = {outcome.leaked_bits}",
        f"shannon_ratio = {ratio:.6g}",
        f"verified = {outcome.verified_equal}",
        f"residual_error_rate = {residual:.6g}",
    ]
    Path(f"{out}.cascade.txt").write_text("\n".join(lines) + "\n")
    Path(f"{out}.transcript.bin").write_bytes(outcome.transcript)
    _emit(
        quiet,
        f"corrected {outcome.corrections_made} errors, leaked {outcome.leaked_bits} bits, "
        f"verified={outcome.verified_equal} -> {out}.cascade.txt",
    )
    if not outcome.verified_equal:
        print("verification failed: keys still differ", file=sys.stderr)
        return 3
    return 0


def cmd_g2(settings: dict, out: str, quiet: bool) -> int:
    # settings that, when set, override a field of the preset source
    fields = {"mu": "mu", "g2_zero": "g2_zero", "lifetime_ns": "lifetime_ns",
              "rep_rate": "rep_rate_hz"}
    overrides = {f: settings[d] for d, f in fields.items() if settings[d] is not None}
    source = dataclasses.replace(get_preset(settings["preset"]), **overrides)

    rng = np.random.default_rng(np.random.SeedSequence([settings["seed"], 0]))
    stream = simulate_hbt(
        source,
        settings["pulses"],
        rng,
        splitter_ratio=settings["splitter_ratio"],
        detection_eff=settings["detection_eff"],
    )
    if len(stream) == 0:
        raise InsufficientDataError("insufficient counts: empty tag stream")
    hist = correlation_histogram(
        stream,
        bin_width_ns=settings["bin_width_ns"],
        window_periods=settings["window_periods"],
    )
    g2 = g2_at_zero(hist)
    try:
        fit = fit_lifetime(stream, bin_width_ns=settings["bin_width_ns"])
        tau, sigma, reliable = fit.tau_ns, fit.sigma_ns, fit.reliable
    except InsufficientDataError:
        tau, sigma, reliable = float("nan"), float("nan"), False

    meta = _metadata(_effective("g2", settings))
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(f"# rep_period_ns={source.rep_period_ns:.6g}")
    lines.append("tau_ns,counts")
    centers = hist.tau_centers_ns
    for i in range(centers.size):
        lines.append(f"{centers[i]:.6g},{int(hist.counts[i])}")
    Path(f"{out}.hist.csv").write_text("\n".join(lines) + "\n")

    rate_cps = len(stream) / (stream.duration_ns * 1e-9)
    report = [f"# {k}={v}" for k, v in meta.items()]
    report += [
        f"n_tags = {len(stream)}",
        f"duration_s = {stream.duration_ns * 1e-9:.6g}",
        f"count_rate_cps = {rate_cps:.6g}",
        f"g2_zero = {g2:.6g}",
        f"lifetime_ns = {tau:.6g}",
        f"lifetime_sigma_ns = {sigma:.6g}",
        f"lifetime_reliable = {reliable}",
    ]
    Path(f"{out}.g2.txt").write_text("\n".join(report) + "\n")
    _emit(
        quiet,
        f"g2(0) = {g2:.4f}  lifetime = {tau:.4g} ns  "
        f"rate = {rate_cps / 1e3:.1f} kcps -> {out}.g2.txt",
    )
    return 0


# command -> (runner, help line)
_COMMANDS = {
    "session": (cmd_session, "one BB84 run to secured key"),
    "rates": (cmd_rates, "secure rate vs distance sweep"),
    "cascade": (cmd_cascade, "error correction on a key pair"),
    "g2": (cmd_g2, "HBT run with g2 and lifetime fits"),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_cfg = load_config_file(args.config) if args.config else {}
        settings = _resolve(args.command, args, file_cfg)
        out = args.out
        if out is None:
            out = file_cfg.get("out", args.command)
        quiet = args.quiet
        if quiet is None:
            quiet = coerce_value("quiet", file_cfg.get("quiet", "false"), bool)
        run, _ = _COMMANDS[args.command]
        return run(settings, out, quiet)
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
