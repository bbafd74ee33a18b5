"""Output checks for one benchmark op, and the CASCADE leakage split.

Every check holds for any correct implementation of the command, including
one that draws its random numbers differently: Monte-Carlo counts are
compared with the closed forms at Z_LIMIT standard deviations, exact
identities are checked exactly, and nothing is compared with stored bytes.
A check raises CheckFailed with a one-line reason.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# The test suite compares Monte-Carlo with closed forms at 4 sigma.  A set of
# ~100 benchmark runs makes ~3000 such comparisons, where 4 sigma would fail
# a correct program with probability ~0.2; 5 sigma keeps that below 0.002.
Z_LIMIT = 5.0

# reserved CASCADE pass bytes for the confirmation stage
ROUND_TAG = 0xFE
REPAIR_TAG = 0xFF
MSG_PARITY_REQUEST = 0x01
MSG_PARITY_REPLY = 0x02


class CheckFailed(Exception):
    """An op's output disagrees with what a correct program must produce."""


def read_report(path: Path) -> tuple[dict[str, str], dict[str, str]]:
    """(`# key=value` header, `key = value` body) of a CLI report file."""
    meta: dict[str, str] = {}
    fields: dict[str, str] = {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif "=" in line:
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
    return meta, fields


def h2(x: float) -> float:
    """Binary entropy in bits."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def _g6_interval(text: str) -> tuple[float, float]:
    """Interval of reals that print as ``text`` under the CLI's %.6g."""
    value = float(text)
    if value == 0.0:
        return 0.0, 0.0
    half = 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 5)
    return value - half, value + half


def _within(label: str, observed: float, expected: float, sigma: float) -> None:
    if not sigma > 0.0:
        raise CheckFailed(f"{label}: no spread to test against (sigma={sigma})")
    z = (observed - expected) / sigma
    if abs(z) > Z_LIMIT:
        raise CheckFailed(
            f"{label} = {observed:.6g}, expected {expected:.6g} +- {sigma:.3g} (z={z:.1f})"
        )


def expected_secret_range(n: int, errors: int, delta_text: str, leaked: int, margin: int):
    """Secret-key lengths allowed by floor(n(1-d)(1-h2(q/(1-d)))) - leak - margin.

    ``delta`` is known only to the six digits the summary prints; the length
    falls as delta grows, so the two ends of its interval bound the answer.
    """
    q = errors / n

    def length(delta: float) -> int:
        secure = n * (1.0 - delta) * (1.0 - h2(q / (1.0 - delta)))
        return max(0, math.floor(secure) - leaked - margin)

    lo, hi = _g6_interval(delta_text)
    return length(hi), length(lo)


def check_session(prefix: Path, params: dict, rng: np.random.Generator) -> None:
    from spsqkd.channel import LinkSpec, error_rate_model, exact_click_probability
    from spsqkd.sources import get_preset

    meta, f = read_report(Path(f"{prefix}.summary.txt"))
    if f.get("verified") != "True" or f.get("aborted") != "False":
        raise CheckFailed(f"verified={f.get('verified')} aborted={f.get('aborted')}")
    pulses = params["pulses"]
    if int(f["n_pulses"]) != pulses:
        raise CheckFailed(f"n_pulses = {f['n_pulses']}, asked for {pulses}")

    n = int(f["sifted_count"])
    # full-compare QBER is errors / n exactly; recover the integer
    errors = round(float(f["qber"]) * n)
    lo, hi = _g6_interval(f["qber"])
    if not lo <= errors / n <= hi:
        raise CheckFailed(f"qber {f['qber']} is not a count over {n} sifted bits")
    leaked = int(f["leaked_bits"])
    secret = int(f["secret_bits"])
    low, high = expected_secret_range(
        n, errors, f["delta"], leaked, int(meta["recon.safety_margin"])
    )
    if not low <= secret <= high:
        raise CheckFailed(f"secret_bits = {secret}, key-length formula gives {low}..{high}")

    source = get_preset(params["preset"])
    link = LinkSpec(distance_km=float(params.get("distance_km", 0.0)))
    e = error_rate_model(source.mu, link)
    _within("qber", errors / n, e, math.sqrt(e * (1.0 - e) / n))
    p = exact_click_probability(source, link)
    _within(
        "detected_count",
        int(f["detected_count"]),
        pulses * p,
        math.sqrt(pulses * p * (1.0 - p)),
    )


def leakage_split(transcript: bytes) -> dict[str, int]:
    """Parity replies in a CASCADE transcript, by the request they answer.

    ``pass0``..``pass3`` are the pass-block bisections, ``confirm_rounds``
    the 0xFE subset parities and ``repair_replies`` the 0xFF bisections
    inside a failed subset.  ``replies`` counts every 0x02 frame.
    """
    from spsqkd.reconciliation import iter_transcript

    split = dict.fromkeys(
        ("pass0", "pass1", "pass2", "pass3", "confirm_rounds", "repair_replies", "other"),
        0,
    )
    names = {0: "pass0", 1: "pass1", 2: "pass2", 3: "pass3",
             ROUND_TAG: "confirm_rounds", REPAIR_TAG: "repair_replies"}
    replies = 0
    for msg_type, payload in iter_transcript(transcript):
        if msg_type == MSG_PARITY_REQUEST:
            split[names.get(payload[0], "other")] += 1
        elif msg_type == MSG_PARITY_REPLY:
            replies += 1
    split["replies"] = replies
    return split


def check_leakage(split: dict[str, int], leaked_bits: int) -> None:
    """Replies, and requests by pass, both add up to the leakage charged."""
    if split["replies"] != leaked_bits:
        raise CheckFailed(
            f"leaked_bits = {leaked_bits}, transcript holds {split['replies']} replies"
        )
    asked = sum(v for k, v in split.items() if k != "replies")
    if asked != leaked_bits or split["other"]:
        raise CheckFailed(f"requests by pass {split} do not add up to {leaked_bits}")


def check_cascade(prefix: Path, params: dict, rng: np.random.Generator) -> None:
    _, f = read_report(Path(f"{prefix}.cascade.txt"))
    if int(f["n_bits"]) != params["n_bits"]:
        raise CheckFailed(f"n_bits = {f['n_bits']}, asked for {params['n_bits']}")
    if f.get("verified") != "True" or float(f["residual_error_rate"]) != 0.0:
        raise CheckFailed(
            f"verified={f.get('verified')} residual={f.get('residual_error_rate')}"
        )
    split = leakage_split(Path(f"{prefix}.transcript.bin").read_bytes())
    check_leakage(split, int(f["leaked_bits"]))


def check_g2(prefix: Path, params: dict, rng: np.random.Generator) -> None:
    """Tag count, g2(0) and lifetime against the preset's photon statistics.

    Photon numbers are 0/1/2 with p2 = mu^2 g2 / 2.  With a splitter ratio
    r = 1/2 and ideal detectors, the centre peak holds N p2 / 2 pairs and
    each side peak N mu^2 / 4; sigma of g2 takes both as Poisson counts.
    The log-linear lifetime fit reports a sigma that understates its own
    spread (over 120 seeds at 3e7 pulses: 1.3x, with tails to 4.4x, since
    its fit window ends at a random sparse bin), so that sigma is doubled.
    """
    from spsqkd.sources import get_preset

    _, f = read_report(Path(f"{prefix}.g2.txt"))
    source = get_preset(params["preset"])
    n = params["pulses"]
    mu, g2 = source.mu, source.g2_zero
    p2 = mu * mu * g2 / 2.0
    p1 = mu - 2.0 * p2
    _within("n_tags", int(f["n_tags"]), n * mu, math.sqrt(n * (p1 + 4.0 * p2 - mu * mu)))

    centre = n * p2 / 2.0
    side = n * mu * mu / 4.0
    _within("g2_zero", float(f["g2_zero"]), g2, g2 * math.sqrt(1.0 / centre + 1.0 / side))

    if f.get("lifetime_reliable") != "True":
        raise CheckFailed("lifetime fit flagged unreliable")
    _within("lifetime_ns", float(f["lifetime_ns"]), source.lifetime_ns,
            2.0 * float(f["lifetime_sigma_ns"]))


def rate_distances(params: dict) -> np.ndarray:
    """The sweep grid exactly as the rates command builds it."""
    step = params["step"]
    return np.arange(0.0, params["dmax"] + step / 2, step)


RATE_SAMPLES = 8


def check_rates(prefix: Path, params: dict, rng: np.random.Generator) -> None:
    """Recompute every curve at RATE_SAMPLES grid points plus both ends."""
    from spsqkd.channel import LinkSpec, error_rate_model
    from spsqkd.rates import RateInputs, decoy_optimal_rate, gllp_rate, wcp_rate
    from spsqkd.sources import get_preset

    lines = [
        line for line in Path(f"{prefix}.rates.csv").read_text().splitlines()
        if not line.startswith("#")
    ]
    names = lines[0].split(",")[1:]
    rows = [line.split(",") for line in lines[1:]]
    distances = rate_distances(params)
    if len(rows) != distances.size:
        raise CheckFailed(f"{len(rows)} rows for {distances.size} distances")
    expected_names = [params["preset"]] + [
        name for name in ("ideal10", "ideal95", "wcp", "decoy") if params.get(name)
    ]
    if names != expected_names:
        raise CheckFailed(f"columns {names}, expected {expected_names}")

    link = LinkSpec()
    picks = {0, distances.size - 1}
    picks.update(int(i) for i in rng.integers(0, distances.size, RATE_SAMPLES))
    for i in sorted(picks):
        d = float(distances[i])
        link_d = link.at_distance(d)
        if rows[i][0] != f"{d:.6g}":
            raise CheckFailed(f"row {i} distance {rows[i][0]}, expected {d:.6g}")
        for name, text in zip(names, rows[i][1:]):
            if name == "wcp":
                want = wcp_rate(link_d)
            elif name == "decoy":
                want = decoy_optimal_rate(link_d).rate_bps
            else:
                source = get_preset(name)
                inputs = RateInputs.from_source(source, link_d, rep_rate_hz=1e6)
                want = gllp_rate(inputs, e_mu=error_rate_model(source.mu, link_d))
            got, printed = float(text), float(f"{want:.6g}")
            if abs(got - printed) > 1e-9 * max(abs(got), abs(printed)):
                raise CheckFailed(f"{name} at {d:.6g} km: csv {text}, recomputed {want!r}")


def compare_outputs(first: Path, again: Path) -> None:
    """A rerun with the same seed must write byte-identical files."""
    names = sorted(p.name for p in first.iterdir())
    if names != sorted(p.name for p in again.iterdir()):
        raise CheckFailed("rerun wrote a different set of files")
    for name in names:
        if (first / name).read_bytes() != (again / name).read_bytes():
            raise CheckFailed(f"rerun with the same seed changed {name}")
