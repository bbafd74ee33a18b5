"""Flat dotted key = value run configuration, and the output file format.

The file format is one assignment per line, dotted section keys, `#`
comments, e.g.::

    link.distance_km = 2.0
    session.pulses = 1000000

Command-line flags override file values, which override built-in defaults.
Every output file starts with `# key=value` lines led by a short hash of the
effective settings, so a file can always be traced back to the run that
produced it.  The two writers here are the only code that lays out an output
file: `format_report` for `name = value` reports, `format_csv` for tables.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

__all__ = [
    "parse_config_text",
    "load_config_file",
    "config_hash",
    "coerce_value",
    "format_value",
    "format_report",
    "format_csv",
    "MAX_EVENTS",
    "check_events",
]

# most events one run may keep: session detections, g2 tags or cascade key
# bits.  At the cap a wcp session (1.8e8 pulses) takes 4-5 s and 0.7 GB max
# RSS, an nv one (1.85e9 pulses) 3.9 s and 0.8 GB, a cascade 3.7 s and
# 0.83 GB (2-core VM; CHANGES.md, the session-coins entry, and ROADMAP's
# "Caps" table), so a larger expected count is a mistyped size
MAX_EVENTS = 1 << 24

# rows format_csv lays out with one format string and one tuple, so a
# table's values are Python objects a block at a time.  A wcp session at
# the detections cap with --bits-csv read 858 MB max RSS, against 1,490
# MB with every row's objects and string held until one join
_CSV_BLOCK = 1 << 16

_BOOL_WORDS = {
    "true": True,
    "yes": True,
    "on": True,
    "1": True,
    "false": False,
    "no": False,
    "off": False,
    "0": False,
}


def parse_config_text(text: str) -> dict[str, str]:
    """Raw key -> value strings; duplicate keys keep the last assignment."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValueError(f"config line {lineno}: empty key")
        entries[key] = value
    return entries


def load_config_file(path: str) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    return parse_config_text(p.read_text())


def coerce_value(key: str, raw: str, kind: type):
    """Parse a config string into kind; bools accept yes/no style words."""
    try:
        if kind is bool:
            word = raw.strip().lower()
            if word not in _BOOL_WORDS:
                raise ValueError(raw)
            return _BOOL_WORDS[word]
        if kind is int:
            if raw.strip().lstrip("+-").isdigit():
                return int(raw)  # exact at any size, unlike a float
            # tolerate scientific notation for counts, e.g. pulses = 1e6
            as_float = float(raw)
            as_int = int(as_float)
            if as_int != as_float:
                raise ValueError(raw)
            return as_int
        return kind(raw)
    except (ValueError, OverflowError):  # int(inf) overflows
        raise ValueError(f"config key {key}: cannot parse {raw!r} as {kind.__name__}")


def format_value(value) -> str:
    """Canonical string form used for hashing and echo lines."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def config_hash(effective: dict) -> str:
    """12 hex chars binding an output file to its effective settings."""
    blob = "\n".join(f"{k}={format_value(v)}" for k, v in sorted(effective.items()))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _header(metadata: dict) -> list[str]:
    return [f"# {k}={v}" for k, v in metadata.items()]


def format_report(metadata: dict, fields: dict) -> str:
    """`# key=value` header, then `name = value` lines; floats print as %.6g."""
    lines = _header(metadata)
    for name, value in fields.items():
        text = "%.6g" % value if isinstance(value, float) else str(value)
        lines.append(f"{name} = {text}")
    return "\n".join(lines) + "\n"


def format_csv(metadata: dict, columns: dict, row_format: str) -> str:
    """`# key=value` header, a row of column names, one `row_format` line per row.

    The rows are laid out ``_CSV_BLOCK`` at a time by one ``%`` over the row
    format repeated for the block: one format string and one tuple per
    block, not per row, and never one format string for a whole long table.
    """
    lines = _header(metadata)
    lines.append(",".join(columns))
    width = len(columns)
    # as many rows as the shortest column, as a zip of the columns gives
    n_rows = min((len(c) for c in columns.values()), default=0)
    for start in range(0, n_rows, _CSV_BLOCK):
        stop = min(start + _CSV_BLOCK, n_rows)
        values = [None] * ((stop - start) * width)
        for j, column in enumerate(columns.values()):
            values[j::width] = column[start:stop].tolist()
        lines.append("\n".join([row_format] * (stop - start)) % tuple(values))
    return "\n".join(lines) + "\n"


def check_events(name: str, value: float, expected: float, what: str) -> None:
    """Refuse a size setting whose run expects more than MAX_EVENTS events."""
    if expected > MAX_EVENTS:
        raise ValueError(
            f"{name} = {value:g} expects {expected:.3g} {what}, over {MAX_EVENTS}"
        )
