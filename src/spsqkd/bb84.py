"""Per-pulse Monte-Carlo of the polarization BB84 protocol.

Alice encodes a random bit in a random basis (H/V linear or L/R circular),
the pulse is thinned photon-by-photon through the link budget, and Bob's
analyzer routes each arriving photon to one of two detectors of his randomly
chosen basis.  Matched-basis photons land in the wrong detector with the
misalignment probability; mismatched-basis photons split 50/50.  Dark counts
fire each detector independently at half the per-gate dark probability, so
the per-pulse accidental rate matches the scalar link model.

Sifting keeps pulses where the bases match and the click pattern resolved to
a bit.  A disclosed subsample estimates the QBER and is struck from the keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LinkSpec
from .sources import SourceSpec, sample_photon_numbers

__all__ = [
    "SessionResult",
    "run_session",
    "format_session_csv",
]


@dataclass(frozen=True)
class SessionResult:
    """Outcome of one Monte-Carlo BB84 run.

    The per-sifted-bit arrays retain disclosed positions (flagged in
    ``disclosed_mask``); the key properties strike them.
    """

    n_pulses: int
    rep_rate_hz: float
    detected_count: int
    sifted_count: int
    disclosed_count: int
    qber_measured: float  # nan when no bits were disclosed/compared
    sift_pulse_index: np.ndarray
    sift_basis: np.ndarray
    sift_alice_bits: np.ndarray
    sift_bob_bits: np.ndarray
    disclosed_mask: np.ndarray

    @property
    def sifted_alice(self) -> np.ndarray:
        return self.sift_alice_bits[~self.disclosed_mask]

    @property
    def sifted_bob(self) -> np.ndarray:
        return self.sift_bob_bits[~self.disclosed_mask]

    @property
    def qber_defined(self) -> bool:
        return not np.isnan(self.qber_measured)

    @property
    def duration_s(self) -> float:
        return self.n_pulses / self.rep_rate_hz

    @property
    def detected_rate_cps(self) -> float:
        return self.detected_count / self.duration_s

    @property
    def sifted_rate_bps(self) -> float:
        return self.sifted_count / self.duration_s


def _detector_clicks(
    n_arrived: np.ndarray,
    alice_bit: np.ndarray,
    matched: np.ndarray,
    link: LinkSpec,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Click patterns (detector0, detector1) of Bob's analyzer, per pulse.

    ``n_arrived`` is the photon count reaching the analyzer, loss already
    applied.  Detector index is the bit value in Bob's basis.
    """
    # probability an arriving photon lands in detector 1 of Bob's basis
    e = link.misalignment
    p_det1 = np.where(matched, np.where(alice_bit == 1, 1.0 - e, e), 0.5)
    n_to_1 = rng.binomial(n_arrived, p_det1)

    half_dark = link.dark_count_prob / 2.0
    dark0 = rng.random(n_arrived.size) < half_dark
    dark1 = rng.random(n_arrived.size) < half_dark
    click0 = ((n_arrived - n_to_1) > 0) | dark0
    click1 = (n_to_1 > 0) | dark1
    return click0, click1


def run_session(
    source: SourceSpec,
    link: LinkSpec,
    n_pulses: int,
    rng: np.random.Generator,
    disclose_fraction: float = 0.1,
    double_click_policy: str = "random",
    full_compare: bool = False,
    protocol_bits: np.ndarray | None = None,
) -> SessionResult:
    """Simulate ``n_pulses`` excitation gates end to end.

    Protocol randomness (Alice's bit and basis, Bob's basis) comes from
    ``protocol_bits`` when given: a 0/1 array consumed three bits per pulse
    in that order.  Physical randomness (emission, loss, routing, darks,
    double-click resolution, disclosure choice) always comes from ``rng``,
    drawn in that fixed order so a seed pins the whole run.

    ``full_compare`` computes the QBER over every sifted bit and discloses
    nothing, for test benches that want the exact error count.
    """
    if n_pulses < 1:
        raise ValueError("n_pulses must be at least 1")
    if not 0.0 <= disclose_fraction < 1.0:
        raise ValueError("disclose_fraction must be in [0, 1)")
    if double_click_policy not in ("random", "discard"):
        raise ValueError("double_click_policy must be 'random' or 'discard'")

    n_emitted = sample_photon_numbers(source, n_pulses, rng)

    if protocol_bits is None:
        alice_bit = rng.integers(0, 2, n_pulses, dtype=np.uint8)
        alice_basis = rng.integers(0, 2, n_pulses, dtype=np.uint8)
        bob_basis = rng.integers(0, 2, n_pulses, dtype=np.uint8)
    else:
        bits = np.asarray(protocol_bits, dtype=np.uint8)
        if bits.size < 3 * n_pulses:
            raise ValueError(
                f"protocol_bits supplies {bits.size} bits, "
                f"need {3 * n_pulses} (three per pulse)"
            )
        if np.any(bits > 1):
            raise ValueError("protocol_bits must be 0/1 valued")
        triplets = bits[: 3 * n_pulses].reshape(n_pulses, 3)
        alice_bit = triplets[:, 0]
        alice_basis = triplets[:, 1]
        bob_basis = triplets[:, 2]

    n_arrived = rng.binomial(n_emitted, link.total_efficiency)

    matched = alice_basis == bob_basis
    click0, click1 = _detector_clicks(n_arrived, alice_bit, matched, link, rng)

    detected = click0 | click1
    single = click0 ^ click1
    double = click0 & click1

    bob_bit = np.where(click1 & ~click0, 1, 0).astype(np.uint8)
    n_double = int(double.sum())
    if double_click_policy == "random":
        bob_bit[double] = rng.integers(0, 2, n_double, dtype=np.uint8)
        resolved = detected
    else:
        resolved = single

    sift = matched & resolved
    sift_idx = np.flatnonzero(sift)
    sift_alice = alice_bit[sift]
    sift_bob = bob_bit[sift]
    sift_bases = alice_basis[sift]
    n_sifted = sift_idx.size

    disclosed_mask = np.zeros(n_sifted, dtype=bool)
    if full_compare:
        disclosed_count = 0
        qber = float(np.mean(sift_alice != sift_bob)) if n_sifted else float("nan")
    else:
        disclosed_count = int(disclose_fraction * n_sifted)
        if disclosed_count > 0:
            chosen = rng.permutation(n_sifted)[:disclosed_count]
            disclosed_mask[chosen] = True
            qber = float(
                np.mean(sift_alice[disclosed_mask] != sift_bob[disclosed_mask])
            )
        else:
            qber = float("nan")

    return SessionResult(
        n_pulses=n_pulses,
        rep_rate_hz=source.rep_rate_hz,
        detected_count=int(detected.sum()),
        sifted_count=n_sifted,
        disclosed_count=disclosed_count,
        qber_measured=qber,
        sift_pulse_index=sift_idx,
        sift_basis=sift_bases,
        sift_alice_bits=sift_alice,
        sift_bob_bits=sift_bob,
        disclosed_mask=disclosed_mask,
    )


def format_session_csv(
    result: SessionResult, metadata: dict[str, str] | None = None
) -> str:
    """One row per sifted bit: pulse index, basis, both bits, disclosed flag."""
    lines = [f"# {k}={v}" for k, v in (metadata or {}).items()]
    lines.append("pulse_index,basis,alice_bit,bob_bit,disclosed")
    for i in range(result.sifted_count):
        lines.append(
            f"{result.sift_pulse_index[i]},{result.sift_basis[i]},"
            f"{result.sift_alice_bits[i]},{result.sift_bob_bits[i]},"
            f"{int(result.disclosed_mask[i])}"
        )
    return "\n".join(lines) + "\n"
