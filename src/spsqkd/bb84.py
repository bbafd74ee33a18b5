"""Event-driven Monte-Carlo of the polarization BB84 protocol.

Alice encodes a random bit in a random basis (H/V linear or L/R circular),
the pulse is thinned photon-by-photon through the link budget, and Bob's
analyzer routes each arriving photon to one of two detectors of his randomly
chosen basis.  Matched-basis photons land in the wrong detector with the
misalignment probability; mismatched-basis photons split 50/50.  Dark counts
fire each detector independently at half the per-gate dark probability, so
the per-pulse accidental rate matches the scalar link model.

Only pulses that click are simulated.  One draw over the whole run picks
them out of a table of classes (photons arrived after the link's loss, dark
pattern of the two detectors), so lost photons and quiet pulses are never
drawn.  Protocol bits, routing and double-click resolution are drawn for the
clicking pulses alone, so a run costs in proportion to its clicks, not its
pulses or its emitted photons.  Routing compares one uniform per clicking
pulse with a table, over (photons arrived, basis relation, Alice's bit), of
the chances that every arrived photon lands in one detector: the only events
the click pattern depends on.

Sifting keeps pulses where the bases match and the click pattern resolved to
a bit.  A disclosed subsample estimates the QBER and is struck from the keys.
The module only computes; the command line writes the sifted bits out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LinkSpec
from .sources import SourceSpec, sample_photon_numbers

__all__ = [
    "SessionResult",
    "run_session",
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
    double_click_count: int
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
    dark: np.ndarray,
    link: LinkSpec,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Click patterns (detector0, detector1) of Bob's analyzer, per pulse.

    ``n_arrived`` is the photon count reaching the analyzer, loss already
    applied; ``dark`` holds each pulse's dark clicks, bit 0 for detector 0
    and bit 1 for detector 1.  Detector index is the bit value in Bob's
    basis.

    Each of the k arrived photons lands in detector 1 with chance p: 1/2 in
    a mismatched basis, e or 1 - e in a matched one with Alice's bit 0 or 1.
    The pattern depends only on whether none of them does, chance
    (1 - p)^k, or all of them do, chance p^k.  So one uniform u per pulse
    routes them all: detector 1 stays quiet for u < (1 - p)^k, detector 0
    for u >= 1 - p^k.  For k >= 1 the two ranges are disjoint, and for k = 1
    they cover [0, 1), so exactly one detector fires; for k = 0 neither
    does.  A dark click makes its detector fire whatever u is, so both
    comparisons read small tables indexed by (k, kind, dark pattern).
    """
    # chance a photon lands in detector 1, by kind: 0 mismatched bases,
    # 1 + Alice's bit in matched ones
    e = link.misalignment
    p_det1 = np.array([0.5, e, 1.0 - e])[:, None]
    k = np.arange(int(n_arrived.max(initial=0)) + 1)[:, None, None]
    dark_bits = np.arange(4)
    fires0 = np.where(dark_bits & 1, 1.0, 1.0 - p_det1**k).ravel()
    quiet1 = np.where(dark_bits & 2, 0.0, (1.0 - p_det1) ** k).ravel()
    # index (3 k + kind) 4 + dark into the [k, kind, dark] tables
    row = n_arrived.astype(np.min_scalar_type(fires0.size - 1))
    row *= 3
    row += (alice_bit + 1) * matched
    row <<= 2
    row |= dark
    u = rng.random(row.size)
    return u < fires0[row], u >= quiet1[row]


def _coin_flips(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` fair coin flips as uint8 0/1: the bits of ``rng.bytes``,
    most significant first, one bit per flip."""
    return np.unpackbits(np.frombuffer(rng.bytes(-(-count // 8)), np.uint8), count=count)


def run_session(
    source: SourceSpec,
    link: LinkSpec,
    n_pulses: int,
    rng: np.random.Generator,
    disclose_fraction: float = 0.0,
    double_click_policy: str = "random",
    protocol_bits: np.ndarray | None = None,
) -> SessionResult:
    """Simulate ``n_pulses`` excitation gates end to end.

    Protocol randomness (Alice's bit and basis, Bob's basis) comes from
    ``protocol_bits`` when given: uint8 bytes holding three bits per pulse
    in that order, packed most significant bit first as ``np.packbits``
    writes them, and read only at the pulses that click.  Physical randomness
    (the clicking pulses with their arrived photons and dark clicks, in one
    draw; then routing, double-click resolution, disclosure choice) always
    comes from ``rng``, drawn in that fixed order, with the protocol bits
    drawn right after the clicking pulses when not given, so a seed pins the
    whole run.

    A ``disclose_fraction`` of zero discloses nothing and reads the QBER off
    every sifted bit, standing in for an authenticated sample.
    """
    if n_pulses < 1:
        raise ValueError("n_pulses must be at least 1")
    if not 0.0 <= disclose_fraction < 1.0:
        raise ValueError("disclose_fraction must be in [0, 1)")
    if double_click_policy not in ("random", "discard"):
        raise ValueError("double_click_policy must be 'random' or 'discard'")
    if protocol_bits is not None:
        packed = np.asarray(protocol_bits)
        if packed.dtype != np.uint8 or packed.ndim != 1:
            raise ValueError("protocol_bits must be a 1-D uint8 array of packed bits")
        need = -(-3 * n_pulses // 8)
        if packed.size < need:
            raise ValueError(
                f"protocol_bits supplies {packed.size} bytes, need {need} "
                f"for {3 * n_pulses} bits (three per pulse)"
            )

    clicks = sample_photon_numbers(source, n_pulses, rng, link.total_efficiency,
                                   link.dark_count_prob)
    pulse_index = clicks.pulse_index
    if protocol_bits is None:
        triplets = _coin_flips(rng, 3 * pulse_index.size).reshape(-1, 3)
    else:
        # bit j of pulse i is bit 3i + j of the stream, most significant first
        pos = 3 * pulse_index[:, None] + np.arange(3)
        shift = (7 - (pos & 7)).astype(np.uint8)
        triplets = (packed[pos >> 3] >> shift) & np.uint8(1)
    alice_bit, alice_basis, bob_basis = triplets.T

    matched = alice_basis == bob_basis
    click0, click1 = _detector_clicks(clicks.photons, alice_bit, matched, clicks.dark, link, rng)

    # every pulse here has an arrived photon or a dark click, so one detector fired
    single = click0 ^ click1
    double = click0 & click1

    bob_bit = (click1 & ~click0).astype(np.uint8)
    n_double = int(double.sum())
    if double_click_policy == "random":
        bob_bit[double] = _coin_flips(rng, n_double)
        sift = matched
    else:
        sift = matched & single

    # one index, four takes: a gather through a random, half-set boolean mask
    # pays a branch miss per element, four times over
    kept = np.flatnonzero(sift)
    sift_idx = pulse_index.take(kept)
    sift_alice = alice_bit.take(kept)
    sift_bob = bob_bit.take(kept)
    sift_bases = alice_basis.take(kept)
    n_sifted = sift_idx.size

    disclosed_mask = np.zeros(n_sifted, dtype=bool)
    disclosed_count = int(disclose_fraction * n_sifted)
    if disclosed_count > 0:
        disclosed_mask[rng.permutation(n_sifted)[:disclosed_count]] = True
    qber = float("nan")
    if disclosed_count > 0:
        qber = float(np.mean(sift_alice[disclosed_mask] != sift_bob[disclosed_mask]))
    elif disclose_fraction == 0.0 and n_sifted > 0:
        qber = np.count_nonzero(sift_alice != sift_bob) / n_sifted

    return SessionResult(
        n_pulses=n_pulses,
        rep_rate_hz=source.rep_rate_hz,
        detected_count=int(pulse_index.size),
        double_click_count=n_double,
        sifted_count=n_sifted,
        disclosed_count=disclosed_count,
        qber_measured=qber,
        sift_pulse_index=sift_idx,
        sift_basis=sift_bases,
        sift_alice_bits=sift_alice,
        sift_bob_bits=sift_bob,
        disclosed_mask=disclosed_mask,
    )
