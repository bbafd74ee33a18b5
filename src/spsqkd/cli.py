"""Command-line front end: sessions, rate sweeps, reconciliation, g2 runs.

Settings resolve in three layers: built-in defaults, then a `--config`
key = value file, then explicit flags.  Exit codes: 0 success, 2 bad
configuration, arguments or an unwritable output file, 3 insufficient data
or protocol abort.  Output files are laid out by the `config` writers, under
a `# config_hash=` header binding them to the effective settings, and a
fixed seed makes reruns byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .channel import LinkSpec
from .config import (
    check_events,
    coerce_value,
    config_hash,
    format_csv,
    format_report,
    format_value,
    load_config_file,
)
from .hbt import (
    InsufficientDataError,
    correlation_histogram,
    fit_lifetime,
    g2_at_zero,
    simulate_hbt,
)
from .pipeline import EST_QBER_FLOOR, derive_seed, run_experiment_detailed
from .rates import RIVALS, binary_entropy, crossover_distance, distance_grid, sweep_variants
from .reconciliation import ROUND_BUDGET, ReconciliationConfig, cascade, check_shuffle_budget
from .sources import get_preset

__all__ = ["main", "entry", "build_parser"]


class Setting(NamedTuple):
    """One setting: config key, value kind, default (None: not set), help."""

    key: str
    kind: type
    default: object
    help: str | None = None


# settings shared by two commands, declared once with the library's defaults
_LINK = {
    dest: Setting(f"link.{dest}", float, getattr(LinkSpec, dest))
    for dest in ("attenuation_db_per_km", "setup_efficiency", "dark_count_prob",
                 "misalignment")
}
_RECON = {
    dest: Setting(f"recon.{dest}", int, getattr(ReconciliationConfig, dest))
    for dest in ("n_passes", "verify_bits")
}
# the session's, sweep's and g2 run's own defaults, read where the library declares them
_SESSION = inspect.signature(run_experiment_detailed).parameters
_RATES = inspect.signature(sweep_variants).parameters
_HBT = {**inspect.signature(simulate_hbt).parameters,
        **inspect.signature(correlation_histogram).parameters}

# command -> dest -> setting; each dest is also the flag `--dest-with-dashes`
_SCHEMAS = {
    "session": {
        "preset": Setting("source.preset", str, "nv"),
        "pulses": Setting("session.pulses", int, 1_000_000),
        "distance_km": Setting("link.distance_km", float, LinkSpec.distance_km),
        **_LINK,
        "disclose_fraction": Setting(
            "session.disclose_fraction", float, _SESSION["disclose_fraction"].default
        ),
        "double_click_policy": Setting(
            "session.double_click_policy", str, _SESSION["double_click_policy"].default
        ),
        **_RECON,
        "safety_margin": Setting(
            "recon.safety_margin", int, _SESSION["safety_margin"].default
        ),
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
        "rep_rate": Setting("rates.rep_rate_hz", float, _RATES["rep_rate_hz"].default),
        "f_ec": Setting("rates.f_ec", float, _RATES["f_ec"].default),
        "flat_error": Setting("rates.flat_error", bool, _RATES["flat_error"].default),
        "wcp": Setting("rates.wcp", bool, False),
        "decoy": Setting("rates.decoy", bool, False),
        "ideal10": Setting("rates.ideal10", bool, False),
        "ideal95": Setting("rates.ideal95", bool, False),
        **_LINK,
    },
    "cascade": {
        "n_bits": Setting("cascade.n_bits", int, 10_000),
        "qber": Setting("cascade.qber", float, 0.03),
        "est_qber": Setting("cascade.est_qber", float, None),
        **_RECON,
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
        "splitter_ratio": Setting("g2.splitter_ratio", float, _HBT["splitter_ratio"].default),
        "detection_eff": Setting("g2.detection_eff", float, _HBT["detection_eff"].default),
        "bin_width_ns": Setting("g2.bin_width_ns", float, _HBT["bin_width_ns"].default),
        "window_periods": Setting("g2.window_periods", int, _HBT["window_periods"].default),
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


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The program's parser for ``argv``, the arguments it will parse.

    Every subcommand is registered with its help line, but only the one
    being run, the first token of ``argv`` that is not an option, gets its
    flags: with every command's flags, building and parsing a session's
    argv took 1.2 ms against 0.7 (best of 200 calls, 2 cores).
    """
    chosen = next((token for token in argv if not token.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="spsqkd",
        description="Single-photon QKD bench simulator and rate analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in _SCHEMAS.items():
        p = sub.add_parser(command, help=_COMMANDS[command][1])
        if command != chosen:
            continue
        p.add_argument("--config", help="key = value settings file")
        p.add_argument("--out", default=None, help="output file prefix")
        p.add_argument("--quiet", action="store_const", const=True, default=None)
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


def _metadata(command: str, settings: dict) -> dict:
    effective = _effective(command, settings)
    meta = {"config_hash": config_hash(effective)}
    for key in sorted(effective):
        meta[key] = effective[key]
    return meta


def _link_from(settings: dict, distance: float = 0.0) -> LinkSpec:
    return LinkSpec(distance_km=distance, **{dest: settings[dest] for dest in _LINK})


def _emit(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _load_protocol_bits(path: str, n_pulses: int) -> np.ndarray:
    """The packed bytes holding three protocol bits per pulse, still packed."""
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"entropy file not found: {path}")
    need = -(-3 * n_pulses // 8)
    have = p.stat().st_size
    if have < need:
        raise ValueError(
            f"entropy file too short: need {3 * n_pulses} bits, have {8 * have}"
        )
    if need < 1:  # no pulse to read for: the session refuses n_pulses by name
        return np.empty(0, dtype=np.uint8)
    # mapped, not read: only bytes of clicking pulses are paged in, none if refused
    return np.memmap(p, dtype=np.uint8, mode="r", shape=(need,))


def _load_key_file(path: str) -> np.ndarray:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"key file not found: {path}")
    if not p.is_file():
        raise ValueError(f"key file is not a regular file: {path}")
    try:
        text = "".join(p.read_text(encoding="utf-8").split())
    except UnicodeDecodeError:
        raise ValueError(f"key file is not UTF-8 text: {path}") from None
    if not text:
        raise ValueError(f"key file is empty: {path}")
    if set(text) - {"0", "1"}:
        raise ValueError(f"key file must hold only 0/1 characters: {path}")
    return np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")


def cmd_session(settings: dict, meta: dict, out: str, quiet: bool) -> int:
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
    Path(f"{out}.summary.txt").write_text(format_report(meta, dataclasses.asdict(summary)))
    if settings["bits_csv"]:
        columns = {
            "pulse_index": session.sift_pulse_index,
            "basis": session.sift_basis,
            "alice_bit": session.sift_alice_bits,
            "bob_bit": session.sift_bob_bits,
            "disclosed": session.disclosed_mask.astype(np.uint8),
        }
        Path(f"{out}.bits.csv").write_text(format_csv(meta, columns, "%d,%d,%d,%d,%d"))
    _emit(
        quiet,
        f"sifted {summary.sifted_rate_bps:.6g} bit/s  qber {summary.qber:.4f}  "
        f"secured {summary.secured_rate_bps:.6g} bit/s -> {out}.summary.txt",
    )
    if summary.aborted or not summary.verified:
        print("protocol aborted: zero-length key", file=sys.stderr)
        return 3
    return 0


def cmd_rates(settings: dict, meta: dict, out: str, quiet: bool) -> int:
    distances = distance_grid(settings["dmax"], settings["step"])
    link = _link_from(settings)

    # a preset that is also set by its ideal flag is one curve
    names = [settings["preset"]] + [n for n in ("ideal10", "ideal95") if settings[n]]
    sources = {name: get_preset(name) for name in names}
    rivals = tuple(rival for rival in RIVALS if settings[rival])
    curves = sweep_variants(
        sources,
        rivals,
        distances,
        link,
        rep_rate_hz=settings["rep_rate"],
        f_ec=settings["f_ec"],
        flat_error=settings["flat_error"],
    )
    for name in sources:
        for rival in rivals:
            d = crossover_distance(distances, curves[name], curves[rival])
            meta[f"crossover_{name}_{rival}_km"] = f"{d:.6g}"
    row_format = ",".join(["%.6g"] * (1 + len(curves)))
    csv_text = format_csv(meta, {"distance_km": distances, **curves}, row_format)
    Path(f"{out}.rates.csv").write_text(csv_text)
    fields = [f"{k}={v}" for k, v in meta.items() if k.startswith("crossover_")]
    _emit(quiet, f"wrote {out}.rates.csv  " + "  ".join(fields))
    return 0


def cmd_cascade(settings: dict, meta: dict, out: str, quiet: bool) -> int:
    qber = settings["qber"]
    if not (math.isfinite(qber) and 0.0 <= qber < 0.5):
        raise ValueError(f"qber must be finite and in [0, 0.5), got {qber}")
    if bool(settings["alice_file"]) != bool(settings["bob_file"]):
        raise ValueError("provide both --alice-file and --bob-file, or neither")
    # the reconciliation settings are refused before any key is drawn
    est = settings["est_qber"]
    if est is None:
        est = max(qber, EST_QBER_FLOOR)
    cfg = ReconciliationConfig(
        est_qber=est,
        n_passes=settings["n_passes"],
        shuffle_seed=derive_seed(settings["seed"], 2),
        verify_bits=settings["verify_bits"],
    )
    if settings["alice_file"]:
        alice = _load_key_file(settings["alice_file"])
        check_events("alice_file", alice.size, alice.size, "key bits")
        bob = _load_key_file(settings["bob_file"])
        qber_true = float("nan")
    else:
        if settings["n_bits"] < 8:
            raise ValueError(f"n_bits must be at least 8, got {settings['n_bits']}")
        check_events("n_bits", settings["n_bits"], settings["n_bits"], "key bits")
        check_shuffle_budget(settings["n_bits"], cfg.n_passes)
        rng_a = np.random.default_rng(np.random.SeedSequence([settings["seed"], 0]))
        rng_b = np.random.default_rng(np.random.SeedSequence([settings["seed"], 1]))
        alice = rng_a.integers(0, 2, settings["n_bits"], dtype=np.uint8)
        flips = (rng_b.random(settings["n_bits"]) < qber).astype(np.uint8)
        bob = alice ^ flips
        qber_true = float(flips.mean())

    outcome = cascade(alice, bob, cfg)
    residual = float(np.mean(alice != outcome.corrected_bob_key))
    n = alice.size
    shannon = n * binary_entropy(qber_true) if qber_true > 0 else float("nan")
    ratio = outcome.leaked_bits / shannon if shannon > 0 else float("nan")

    report = {
        "n_bits": n,
        "true_qber": qber_true,
        "est_qber": est,
        "corrections_made": outcome.corrections_made,
        "leaked_bits": outcome.leaked_bits,
        "shannon_ratio": ratio,
        "verified": outcome.verified_equal,
        "residual_error_rate": residual,
    }
    Path(f"{out}.cascade.txt").write_text(format_report(meta, report))
    Path(f"{out}.transcript.bin").write_bytes(outcome.transcript)
    _emit(
        quiet,
        f"corrected {outcome.corrections_made} errors, leaked {outcome.leaked_bits} bits, "
        f"verified={outcome.verified_equal} -> {out}.cascade.txt",
    )
    if not outcome.verified_equal:
        # the only way a confirmation stage ends unverified: its round count
        # is a u16, and the agreeing streak did not fit in it
        differ = int(np.count_nonzero(alice != outcome.corrected_bob_key))
        print(
            f"verification failed: the {ROUND_BUDGET}-round confirmation budget ran out "
            f"before verify_bits = {cfg.verify_bits} rounds in a row agreed; "
            f"{differ} of {n} bits still differ",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_g2(settings: dict, meta: dict, out: str, quiet: bool) -> int:
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

    hist_meta = {**meta, "rep_period_ns": f"{source.rep_period_ns:.6g}"}
    columns = {"tau_ns": hist.tau_centers_ns, "counts": hist.counts}
    Path(f"{out}.hist.csv").write_text(format_csv(hist_meta, columns, "%.6g,%d"))

    rate_cps = len(stream) / (stream.duration_ns * 1e-9)
    report = {
        "n_tags": len(stream),
        "duration_s": stream.duration_ns * 1e-9,
        "count_rate_cps": rate_cps,
        "g2_zero": g2,
        "lifetime_ns": tau,
        "lifetime_sigma_ns": sigma,
        "lifetime_reliable": reliable,
    }
    Path(f"{out}.g2.txt").write_text(format_report(meta, report))
    _emit(
        quiet,
        f"g2(0) = {g2:.4f}  lifetime = {tau:.4g} ns  "
        f"rate = {rate_cps / 1e3:.1f} kcps -> {out}.g2.txt",
    )
    return 0


# command -> (runner, help line, suffix of the first file it writes)
_COMMANDS = {
    "session": (cmd_session, "one BB84 run to secured key", "summary.txt"),
    "rates": (cmd_rates, "secure rate vs distance sweep", "rates.csv"),
    "cascade": (cmd_cascade, "error correction on a key pair", "cascade.txt"),
    "g2": (cmd_g2, "HBT run with g2 and lifetime fits", "hist.csv"),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        file_cfg = load_config_file(args.config) if args.config else {}
        settings = _resolve(args.command, args, file_cfg)
        if settings["seed"] < 0:
            raise ValueError(f"seed must be non-negative, got {settings['seed']}")
        out = args.out
        if out is None:
            out = file_cfg.get("out", args.command)
        quiet = args.quiet
        if quiet is None:
            quiet = coerce_value("quiet", file_cfg.get("quiet", "false"), bool)
        run, _, first = _COMMANDS[args.command]
        folder = Path(f"{out}.{first}").parent  # every output file lands here
        if not (folder.is_dir() and os.access(folder, os.W_OK | os.X_OK)):
            raise ValueError(f"cannot write {out}.{first}: {folder} is not a writable directory")
        return run(settings, _metadata(args.command, settings), out, quiet)
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
