"""Command-line front end: sessions, rate sweeps, reconciliation, g2 runs.

Each command resolves its settings, makes one library call and writes what
it returns: the CLI starts no thread, draws no number and runs no estimator.
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
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .channel import LinkSpec
from .config import (
    MAX_EVENTS,
    coerce_value,
    config_hash,
    format_csv,
    format_report,
    format_value,
    load_config_file,
)
from .hbt import InsufficientDataError
from .pipeline import run_cascade_trial, run_experiment_detailed, run_g2
from .rates import RIVALS, crossover_distance, distance_grid, sweep_variants
from .reconciliation import ROUND_BUDGET, ReconciliationConfig
from .sources import get_preset

# never called here: the benchmark's tracer patches these names on this module
from .hbt import correlation_histogram, fit_lifetime, g2_at_zero, simulate_hbt  # noqa: F401
from .reconciliation import cascade  # noqa: F401

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
# the library calls' own parameters: their defaults are the settings' defaults,
# and a setting named like a parameter is passed to it by that name
_LINKSPEC = inspect.signature(LinkSpec).parameters
_SESSION = inspect.signature(run_experiment_detailed).parameters
_RATES = inspect.signature(sweep_variants).parameters
_CASCADE = inspect.signature(run_cascade_trial).parameters
_G2 = inspect.signature(run_g2).parameters

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
        "preset": Setting("source.preset", str, "nv", "a preset, or several joined by commas"),
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
        "splitter_ratio": Setting("g2.splitter_ratio", float, _G2["splitter_ratio"].default),
        "detection_eff": Setting("g2.detection_eff", float, _G2["detection_eff"].default),
        "bin_width_ns": Setting("g2.bin_width_ns", float, _G2["bin_width_ns"].default),
        "window_periods": Setting("g2.window_periods", int, _G2["window_periods"].default),
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
    argv took 1.2 ms against 0.7 (best of 200 calls, 2 cores).  argparse
    makes a help formatter for each flag it adds, and each would ask the
    terminal for its width, so the first formatter of a build asks, as
    argparse would, and hands its width to the rest.
    """
    chosen = next((token for token in argv if not token.startswith("-")), None)
    width = None

    def formatter(prog: str) -> argparse.HelpFormatter:
        nonlocal width
        made = argparse.HelpFormatter(prog, width=width)
        width = made._width
        return made

    parser = argparse.ArgumentParser(
        prog="spsqkd",
        description="Single-photon QKD bench simulator and rate analysis.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in _SCHEMAS.items():
        p = sub.add_parser(command, help=_COMMANDS[command][1], formatter_class=formatter)
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


def _by_name(params, settings: dict) -> dict:
    return {name: settings[name] for name in params if name in settings}


def _emit(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _regular_file(what: str, path: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{what} not found: {path}")
    if not p.is_file():
        raise ValueError(f"{what} is not a regular file: {path}")
    return p


def _load_protocol_bits(path: str, n_pulses: int) -> np.ndarray:
    """The packed bytes holding three protocol bits per pulse, still packed."""
    p = _regular_file("entropy file", path)
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


def _load_key_file(name: str, path: str) -> np.ndarray:
    """The bits of the 0/1 text file that setting ``name`` gives."""
    blocks, count = [], 0
    try:
        with _regular_file("key file", path).open(encoding="utf-8") as f:
            while block := f.read(1 << 20):  # an oversized file is never read whole
                bits = "".join(block.split())
                ones_and_zeros = bits.count("0") + bits.count("1")
                count += ones_and_zeros
                if count > MAX_EVENTS:
                    raise ValueError(f"{name} = {path} holds over {MAX_EVENTS} key bits")
                if ones_and_zeros < len(bits):
                    raise ValueError(f"key file must hold only 0/1 characters: {path}")
                blocks.append(bits)
    except UnicodeDecodeError:
        raise ValueError(f"key file is not UTF-8 text: {path}") from None
    if not count:
        raise ValueError(f"key file is empty: {path}")
    return np.frombuffer("".join(blocks).encode(), dtype=np.uint8) - ord("0")


def cmd_session(settings: dict, meta: dict, out: str, quiet: bool) -> int:
    source = get_preset(settings["preset"])
    link = LinkSpec(**_by_name(_LINKSPEC, settings))
    protocol_bits = None
    if settings["entropy_file"]:
        protocol_bits = _load_protocol_bits(settings["entropy_file"], settings["pulses"])
    summary, session = run_experiment_detailed(
        source, link, settings["pulses"], master_seed=settings["seed"],
        protocol_bits=protocol_bits, **_by_name(_SESSION, settings),
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
    link = LinkSpec(**_by_name(_LINKSPEC, settings))  # at 0 km: the sweep sets distances

    # a preset named twice, or also set by its ideal flag, is one curve
    names = settings["preset"].split(",") + [n for n in ("ideal10", "ideal95") if settings[n]]
    sources = {name: get_preset(name) for name in names}
    rivals = tuple(rival for rival in RIVALS if settings[rival])
    curves = sweep_variants(
        sources, rivals, distances, link, rep_rate_hz=settings["rep_rate"],
        **_by_name(_RATES, settings),
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
    alice_file, bob_file = settings["alice_file"], settings["bob_file"]
    if bool(alice_file) != bool(bob_file):
        raise ValueError("provide both --alice-file and --bob-file, or neither")

    def read_keys():
        return _load_key_file("alice_file", alice_file), _load_key_file("bob_file", bob_file)

    summary, outcome = run_cascade_trial(
        master_seed=settings["seed"], read_keys=read_keys if alice_file else None,
        **_by_name(_CASCADE, settings),
    )
    Path(f"{out}.cascade.txt").write_text(format_report(meta, dataclasses.asdict(summary)))
    Path(f"{out}.transcript.bin").write_bytes(outcome.transcript)
    _emit(
        quiet,
        f"corrected {summary.corrections_made} errors, leaked {summary.leaked_bits} bits, "
        f"verified={summary.verified} -> {out}.cascade.txt",
    )
    if not summary.verified:
        # the only way a confirmation stage ends unverified: its round count
        # is a u16, and the agreeing streak did not fit in it
        differ = round(summary.residual_error_rate * summary.n_bits)
        print(
            f"verification failed: the {ROUND_BUDGET}-round confirmation budget ran out "
            f"before verify_bits = {settings['verify_bits']} rounds in a row agreed; "
            f"{differ} of {summary.n_bits} bits still differ",
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
    summary, hist = run_g2(
        source, settings["pulses"], master_seed=settings["seed"], **_by_name(_G2, settings)
    )
    hist_meta = {**meta, "rep_period_ns": f"{source.rep_period_ns:.6g}"}
    columns = {"tau_ns": hist.tau_centers_ns, "counts": hist.counts}
    Path(f"{out}.hist.csv").write_text(format_csv(hist_meta, columns, "%.6g,%d"))
    Path(f"{out}.g2.txt").write_text(format_report(meta, dataclasses.asdict(summary)))
    _emit(
        quiet,
        f"g2(0) = {summary.g2_zero:.4f}  lifetime = {summary.lifetime_ns:.4g} ns  "
        f"rate = {summary.count_rate_cps / 1e3:.1f} kcps -> {out}.g2.txt",
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
