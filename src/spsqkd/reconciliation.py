"""CASCADE parity reconciliation and universal-hash privacy amplification.

The two parties are logical roles inside one process: Alice answers parity
queries over her (static) key, Bob drives the protocol against his error
burdened copy.  Every disclosed parity goes into a length-prefixed binary
transcript, so the leakage number used downstream is exactly what crossed
the classical channel, not an estimate.

Frame layout: u32 LE payload length, u8 message type, payload.  Types:
0x01 parity request (u8 pass, u32 lo, u32 hi, permuted coordinates),
0x02 parity reply (u8), 0x03 shuffle seed (u64), 0x04 verification
summary (u64 subset seed, u16 round count, packed parity bits).  The
confirmation stage reuses 0x01 with two reserved pass bytes: 0xFE asks
for the parity of round ``lo``'s random subset, 0xFF bisects inside the
current round's subset (lo/hi index its positions in ascending order).

The subsets follow from the 0x04 seed alone, so a transcript can be
checked on its own: each round of an n-bit key draws ceil(n / 64) raw
64-bit words from PCG64(SeedSequence([seed, 0x5EC])), and key position i
is in the round's subset iff bit 7 - i % 8 of byte i // 8 of the words'
little-endian bytes is set (``np.unpackbits`` order).  The bits past n
select nothing.
"""

from __future__ import annotations

import heapq
import math
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._threads import _on_two_threads
from .config import MAX_EVENTS
from .rates import binary_entropy

__all__ = [
    "ReconciliationConfig",
    "ReconciliationOutcome",
    "SecretKey",
    "cascade",
    "check_shuffle_budget",
    "privacy_amplify",
    "iter_transcript",
]

MSG_PARITY_REQUEST = 0x01
MSG_PARITY_REPLY = 0x02
MSG_SHUFFLE_SEED = 0x03
MSG_VERIFY = 0x04

# stream index for the verification subset generator, distinct from the
# per-pass shuffle streams (which use the pass number)
_VERIFY_STREAM = 0x5EC

# reserved pass bytes for confirmation-stage frames
_ROUND_TAG = 0xFE
_REPAIR_TAG = 0xFF

# hard ceiling on confirmation rounds, set by the u16 round count in the
# 0x04 frame.  Every round counts, mismatching ones too, so the agreeing
# streak must fit in the rounds left after the last mismatch; a run that
# needs this many rounds is hopeless, and verify_bits is capped by it
ROUND_BUDGET = 0xFFFF

# the pass number is the u8 pass byte of a request, below the reserved tags
_MAX_PASSES = _ROUND_TAG - 1

# most key bits times passes one run may shuffle, at 9 bytes each: the
# default 4 passes at the key cap, 0.85 GB in all
_SHUFFLE_BUDGET = 4 * MAX_EVENTS

# most halving searches whose queries a drain writes at once: a batch holds
# about 60 bytes per query, so it stays under 10 MB whatever the key size
_SEARCH_BATCH = 1 << 14

# keys from this many bits up have passes 3 and later shuffled on a second
# thread while passes 1 and 2 run.  Below it the saving is a few ms, about
# what the thread loses waiting up to the 5 ms GIL switch interval to take
# the lock back from the drains after each table kernel: on 2 cores at 3%
# errors it won in each of four paired curves from 2^17 bits up (time
# ratio 0.71-0.84), but lost in one at 2^16 (1.08, against 0.76-0.77)
_THREAD_FROM = 1 << 17

# most raw words the confirmation stage draws and checks at once: a block of
# rounds is 256 KiB, and a block of 2^18 words raised the peak RSS of a
# 3e5-bit cascade by 1.5-3.4 MB
_ROUND_BLOCK_WORDS = 1 << 15

# parity queries as sent: each a 0x01 request frame (pass byte, lo, hi)
# and its 0x02 reply frame, 20 bytes
_QUERIES = np.dtype(
    [
        ("req_len", "<u4"),
        ("req_type", "u1"),
        ("pass_byte", "u1"),
        ("lo", "<u4"),
        ("hi", "<u4"),
        ("rep_len", "<u4"),
        ("rep_type", "u1"),
        ("parity", "u1"),
    ]
)


@dataclass(frozen=True)
class ReconciliationConfig:
    """CASCADE knobs.

    Pass 1 uses the canonical block size ceil(0.73 / est_qber); block sizes
    double each pass and are clamped at the key length.  The passes are
    followed by a confirmation stage: random-subset parities are compared
    one at a time, a mismatching subset is bisected to a correction (with
    backtracking into the pass blocks), and the keys are declared equal
    after ``verify_bits`` consecutive agreements.  All rounds share the
    ``ROUND_BUDGET`` of 65535, so the agreeing streak must fit in the rounds
    left after the last mismatch.  Every disclosed parity, confirmation
    rounds included, is charged to the leakage.
    """

    est_qber: float
    n_passes: int = 4
    shuffle_seed: int = 0
    verify_bits: int = 50

    def __post_init__(self) -> None:
        if not 0.0 < self.est_qber < 0.5:
            raise ValueError("est_qber must be in (0, 0.5)")
        if not 2 <= self.n_passes <= _MAX_PASSES:
            raise ValueError(
                f"n_passes must be in [2, {_MAX_PASSES}], got {self.n_passes}"
            )
        if self.shuffle_seed < 0:
            raise ValueError("shuffle_seed must be non-negative")
        if not 0 <= self.verify_bits <= ROUND_BUDGET:
            raise ValueError(
                f"verify_bits must be in [0, {ROUND_BUDGET}], got {self.verify_bits}"
            )

    @property
    def initial_block(self) -> int:
        return math.ceil(0.73 / self.est_qber)


@dataclass(frozen=True)
class ReconciliationOutcome:
    corrected_bob_key: np.ndarray
    leaked_bits: int
    corrections_made: int
    verified_equal: bool
    transcript: bytes


@dataclass(frozen=True)
class SecretKey:
    """Privacy-amplified key plus the inputs that fixed its length."""

    bits: np.ndarray
    length_formula_inputs: tuple[int, float, float, int, int]
    aborted: bool

    def __len__(self) -> int:
        return int(self.bits.size)


def _frame(msg_type: int, payload: bytes) -> bytes:
    return struct.pack("<IB", len(payload), msg_type) + payload


def _query_frames(
    pass_byte: int | np.ndarray,
    lo: np.ndarray,
    hi: int | np.ndarray,
    parity: np.ndarray | list[int],
) -> bytes:
    frames = np.empty(lo.size, dtype=_QUERIES)
    frames["req_len"] = 9
    frames["req_type"] = MSG_PARITY_REQUEST
    frames["pass_byte"] = pass_byte
    frames["lo"] = lo
    frames["hi"] = hi
    frames["rep_len"] = 1
    frames["rep_type"] = MSG_PARITY_REPLY
    frames["parity"] = parity
    return frames.tobytes()


def iter_transcript(data: bytes) -> Iterator[tuple[int, bytes]]:
    """Yield (message type, payload) frames; raises on truncation."""
    off = 0
    while off < len(data):
        if off + 5 > len(data):
            raise ValueError("truncated frame header")
        length, msg_type = struct.unpack_from("<IB", data, off)
        off += 5
        if off + length > len(data):
            raise ValueError("truncated frame payload")
        yield msg_type, data[off : off + length]
        off += length


def _as_bits(key, name: str) -> np.ndarray:
    arr = np.asarray(key, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise ValueError(f"{name} must be 0/1 valued")
    return arr


def _prefix_parities(bits: np.ndarray) -> np.ndarray:
    # entry i is the parity of bits[:i], so a range parity is two lookups
    prefix = np.zeros(bits.size + 1, dtype=np.uint8)
    np.bitwise_xor.accumulate(bits, out=prefix[1:])
    return prefix


def _shuffle_tables(alice: np.ndarray, natural: np.ndarray, seed: int, p: int):
    # pass p's shuffle, its inverse and Alice's prefix parities in shuffled
    # order.  The pass has its own stream, so any thread builds the same bytes;
    # shuffling an int32 arange gives the same order, but slower
    rng = np.random.default_rng(np.random.SeedSequence([seed, p]))
    perm = rng.permutation(alice.size).astype(np.int32)
    inv = np.empty(alice.size, dtype=np.int32)
    inv[perm] = natural
    return perm, inv, _prefix_parities(alice[perm])


def _key_words(bits: np.ndarray) -> np.ndarray:
    # key bit i at bit 7 - i % 8 of little-endian byte i // 8, zero padded
    # to whole 64-bit words, so the pad bits join no subset parity
    packed = np.zeros(-(-bits.size // 64) * 8, dtype=np.uint8)
    packed[: -(-bits.size // 8)] = np.packbits(bits)
    return packed.view("<u8")


def _parity(key_words: np.ndarray, subset_words: np.ndarray) -> np.ndarray:
    # the subset parity of each round, one round per row of subset_words
    return np.bitwise_count(np.bitwise_xor.reduce(key_words & subset_words, axis=-1)) & 1


def _subset_positions(subset_words: np.ndarray, n: int) -> np.ndarray:
    # the key positions a round's words select, ascending; the inverse of
    # the _key_words layout
    little = subset_words.astype("<u8", copy=False).view(np.uint8)
    return np.flatnonzero(np.unpackbits(little, count=n))


def _halvings(lo: np.ndarray, hi: np.ndarray, goes_left) -> tuple[np.ndarray, ...]:
    # halving searches over many inclusive ranges at once, one level per
    # step; goes_left(lo, mid) tells each range whether the bit it ends on
    # lies in [lo, mid].  Returns the lo and mid of every query in (range,
    # level) order, as the u32 the frames hold, the count of queries per
    # range, and the bit each range ends on
    levels = int((hi - lo).max()).bit_length() if lo.size else 0
    q_lo = np.empty((lo.size, levels), dtype=np.uint32)
    q_mid = np.empty_like(q_lo)
    asked = np.empty(q_lo.shape, dtype=bool)
    for level in range(levels):
        active = lo < hi
        mid = (lo + hi) // 2
        q_lo[:, level] = lo
        q_mid[:, level] = mid
        asked[:, level] = active
        # a converged range stays put: lo == hi == mid, so it goes left
        left = goes_left(lo, mid)
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid + 1)
    return q_lo[asked], q_mid[asked], asked.sum(axis=1), lo


def _bisect(pass_byte: int, lo: np.ndarray, hi: np.ndarray, a_prefix: np.ndarray,
            diff_prefix: np.ndarray) -> tuple[bytes, np.ndarray]:
    # bisect ranges that each hold an odd number of bit differences, where
    # diff_prefix[i] is the parity of the first i of them: every half whose
    # differences are odd holds the bit.  Returns the queries and Alice's
    # replies, from her prefix parities a_prefix in the same coordinates, in
    # (range, level) order, and the bit each range ends on
    q_lo, q_mid, _, final = _halvings(
        lo, hi, lambda lo, mid: diff_prefix[mid + 1] != diff_prefix[lo]
    )
    return _query_frames(pass_byte, q_lo, q_mid, a_prefix[q_mid + 1] ^ a_prefix[q_lo]), final


def _odd_bit(mask: int, width: int) -> int:
    # the offset a halving search over [0, width) ends on, when the set bits
    # of mask are the offsets that differ (an odd number of them): it keeps
    # the half holding an odd number, until one bit is left
    base = 0
    while mask & (mask - 1):
        half = (width + 1) // 2
        left = mask & ((1 << half) - 1)
        if left.bit_count() & 1:
            mask, width = left, half
        else:
            mask, width, base = mask >> half, width - half, base + half
    return base + mask.bit_length() - 1


def _block_masks(coords: np.ndarray, size: int) -> dict[int, int]:
    # block id -> bitmask of the offsets inside it, for positions coords in
    # a partition into blocks of size bits
    masks: dict[int, int] = {}
    blocks, offsets = np.divmod(coords, size)
    for block_id, offset in zip(blocks.tolist(), offsets.tolist()):
        masks[block_id] = masks.get(block_id, 0) | 1 << offset
    return masks


def _search_frames(searches: list[tuple[int, int, int, int]], prefixes) -> bytes:
    # the queries and Alice's replies of halving searches given in order as
    # (pass byte, lo, hi, target): a search goes left exactly when the bit
    # it ends on is <= mid, so its queries follow from that bit.
    # prefixes[pass byte] holds Alice's prefix parities in its coordinates
    pass_byte, lo, hi, target = np.array(searches, dtype=np.int64).T
    q_lo, q_mid, queries, _ = _halvings(lo, hi, lambda lo, mid: target <= mid)
    q_pass = np.repeat(pass_byte.astype(np.uint8), queries)
    parity = np.empty(q_lo.size, dtype=np.uint8)
    # the passes as a set: np.unique's first call alone adds 1.6 MB of RSS
    for p in set(pass_byte.tolist()):
        mine = q_pass == p
        parity[mine] = prefixes[p][q_mid[mine] + 1] ^ prefixes[p][q_lo[mine]]
    return _query_frames(q_pass, q_lo, q_mid, parity)


def check_shuffle_budget(n_bits: int, n_passes: int) -> None:
    """Refuse ``n_passes`` passes over ``n_bits`` key bits past ``_SHUFFLE_BUDGET``."""
    if n_bits * n_passes > _SHUFFLE_BUDGET:
        raise ValueError(
            f"n_passes = {n_passes} over {n_bits} key bits needs {n_bits * n_passes:.3g} "
            f"shuffled bits, over {_SHUFFLE_BUDGET}"
        )


def cascade(alice_key, bob_key, cfg: ReconciliationConfig) -> ReconciliationOutcome:
    """Run CASCADE, returning Bob's corrected key and the exact leakage.

    Pass 1 partitions the key in natural order; later passes partition a
    seeded shuffle with doubled block size.  Every odd-parity block is
    bisected to a correction, and each correction re-exposes the earlier
    blocks containing that position, which are queued and fixed until no
    known parity mismatch remains.  A pass-1 correction toggles only its
    own block, so no backtracking runs between two pass-1 bisections: the
    odd pass-1 blocks are all bisected at once, level by level with numpy,
    and their queries are written in the order a block-by-block bisection
    asks them.  From pass 2 on, every announced pass keeps, per block, a
    bitmask of the offsets where the keys differ; a correction clears its
    bit in every announced pass and queues a block whose popcount turns
    odd, and a queued block is live exactly while its popcount is odd.  A
    bisection's queries follow from the bit it ends on, which the mask
    gives, so the queue is drained without numpy work per block: the drain
    notes each bisection and writes their queries and Alice's replies in
    batches of up to 2^14 bisections, in the order the blocks were taken.

    A confirmation stage then compares random-subset parities, each read
    from the keys packed into 64-bit words and a round's random words, one
    random bit per key bit.  Rounds are drawn and checked in blocks of at
    most 2^15 words (one round if a round is longer), and a block holds no
    round past the streak that would end the stage or past
    ``ROUND_BUDGET``.  The first mismatch in a block is bisected to its
    bit, its queries written after the rounds so far and before those of
    the drain it sets off (doubled blocks can hide an even number of errors
    from every pass, so this is what makes small hard patterns
    correctable), and the block's later rounds are checked against the
    repaired key.  ``verify_bits`` consecutive agreements end the protocol.
    PCG64 gives the same raw words drawn in blocks or a round at a time,
    so the transcript is the same bytes either way.

    The shuffles are held as int32 indices, so keys may hold at most
    2^31 - 1 bits; the command line caps them at ``config.MAX_EVENTS``.
    Every pass's shuffle is held until the call returns, so
    ``check_shuffle_budget`` caps the key bits times ``n_passes``.  Each
    pass is shuffled as it starts, except from ``_THREAD_FROM`` (2^17) key
    bits up: there passes 3 and later are shuffled ahead, in one go on a
    second thread, on the second core, while passes 1 and 2 are
    reconciled.  Each pass draws from its own stream, so the transcript is
    the same bytes either way.
    """
    alice = _as_bits(alice_key, "alice_key")
    bob = _as_bits(bob_key, "bob_key").copy()
    n = alice.size
    if bob.size != n:
        raise ValueError("keys must have equal length")
    if n < 8:
        raise ValueError("keys must hold at least 8 bits")
    check_shuffle_budget(n, cfg.n_passes)

    # frames are kept as chunks and joined once: growing one buffer by each
    # drain's batch fragments the heap and raises the peak RSS
    transcript = [_frame(MSG_SHUFFLE_SEED, struct.pack("<Q", cfg.shuffle_seed))]
    leaked_bits = 0

    def send(frames: bytes) -> None:
        # every disclosed parity crosses the channel here, one query a reply
        nonlocal leaked_bits
        transcript.append(frames)
        leaked_bits += len(frames) // _QUERIES.itemsize

    natural = np.arange(n, dtype=np.int32)
    block_size = [min(n, cfg.initial_block * (1 << p)) for p in range(cfg.n_passes)]
    # each pass's shuffle, its inverse and Alice's prefix parities in
    # shuffled order, appended in pass order (pass 1 keeps the natural
    # order).  The drains read the shuffles and flip Bob's bits through
    # memoryviews: a scalar access costs a third of a numpy index
    inv_perms, alice_prefix = [natural], [_prefix_parities(alice)]
    perm_at, inv_at = [memoryview(natural)], [memoryview(natural)]
    bob_at = memoryview(bob)

    def add_pass(perm: np.ndarray, inv: np.ndarray, prefix: np.ndarray) -> None:
        inv_perms.append(inv)
        alice_prefix.append(prefix)
        perm_at.append(memoryview(perm))
        inv_at.append(memoryview(inv))

    corrections = 0
    # masks[r][block id]: the offsets in that pass-r block where the keys
    # differ, as a bitmask (blocks without one are left out).  A block's
    # announced parities mismatch exactly when its popcount is odd; the heap
    # orders those blocks by (pass, block) and may also hold blocks that
    # have been made even since
    masks: list[dict[int, int]] = []
    heap: list[tuple[int, int]] = []

    def flip(g: int, announced: int) -> None:
        nonlocal corrections
        bob_at[g] ^= 1
        corrections += 1
        # the flip clears g's bit in the containing block of every pass
        # whose parities have been exchanged so far, including any block
        # just bisected (now even again)
        for r in range(announced):
            block_id, offset = divmod(inv_at[r][g], block_size[r])
            mask = masks[r].pop(block_id) ^ 1 << offset
            if mask:
                masks[r][block_id] = mask
                if mask.bit_count() & 1:
                    heapq.heappush(heap, (r, block_id))

    def drain(announced: int) -> None:
        # smallest pass first: cheapest blocks, fastest convergence.  Each
        # search is noted as it is made and its queries written in batches
        searches = []
        while heap:
            r, block_id = heapq.heappop(heap)
            mask = masks[r].get(block_id, 0)
            if mask.bit_count() & 1:
                lo = block_id * block_size[r]
                hi = min(lo + block_size[r], n) - 1
                target = lo + _odd_bit(mask, hi - lo + 1)
                searches.append((r, lo, hi, target))
                flip(perm_at[r][target], announced)
                if len(searches) == _SEARCH_BATCH:
                    send(_search_frames(searches, alice_prefix))
                    searches.clear()
        if searches:
            send(_search_frames(searches, alice_prefix))

    def run_pass(p: int) -> None:
        nonlocal corrections
        if p == len(alice_prefix):  # not shuffled ahead
            add_pass(*_shuffle_tables(alice, natural, cfg.shuffle_seed, p))
        # every block parity of the pass at once, both parties
        starts = np.arange(0, n, block_size[p])
        ends = np.minimum(starts + block_size[p], n)
        a_prefix = alice_prefix[p]
        send(_query_frames(p, starts, ends - 1, a_prefix[ends] ^ a_prefix[starts]))
        if p == 0:
            # pass 1 runs in natural order, so one prefix of the
            # differences answers every half Bob compares, in every block
            diff = _prefix_parities(alice ^ bob)
            odd = diff[ends] != diff[starts]
            frames, final = _bisect(0, starts[odd], ends[odd] - 1, a_prefix, diff)
            send(frames)
            bob[final] ^= 1
            corrections += final.size
            return
        # the pass opens its masks (pass 1's open with pass 2's, after its
        # batch of corrections); its odd blocks, ascending, are a heap
        errors = np.flatnonzero(alice != bob)
        for r in range(len(masks), p + 1):
            masks.append(_block_masks(inv_perms[r][errors], block_size[r]))
        heap.extend(sorted((p, b) for b, mask in masks[p].items() if mask.bit_count() & 1))
        drain(p + 1)

    # from _THREAD_FROM key bits up, passes 3 and later are shuffled ahead on
    # a second thread while passes 1 and 2 run: each table kernel releases
    # the GIL, so the shuffles run beside the drains
    ahead = range(2, cfg.n_passes if n >= _THREAD_FROM else 2)
    later, _ = _on_two_threads(
        lambda: [_shuffle_tables(alice, natural, cfg.shuffle_seed, p) for p in ahead],
        lambda: [run_pass(p) for p in range(2)],
        threaded=bool(ahead),
    )
    for tables in later:
        add_pass(*tables)
    for p in range(2, cfg.n_passes):
        run_pass(p)

    verified = True
    if cfg.verify_bits > 0:
        bitgen = np.random.PCG64(np.random.SeedSequence([cfg.shuffle_seed, _VERIFY_STREAM]))
        alice_words, bob_words = _key_words(alice), _key_words(bob)
        round_parities = np.empty(ROUND_BUDGET, dtype=np.uint8)
        rounds = agree_streak = 0
        while agree_streak < cfg.verify_bits:
            # the rounds that may all be drawn: none past the streak that
            # ends the stage or past the budget, and at most a block of words
            rows = min(cfg.verify_bits - agree_streak, ROUND_BUDGET - rounds,
                       max(1, _ROUND_BLOCK_WORDS // alice_words.size))
            if rows == 0:
                verified = False
                break
            block = bitgen.random_raw(rows * alice_words.size).reshape(rows, -1)
            a_par, b_par = _parity(alice_words, block), _parity(bob_words, block)
            start = 0
            while start < rows:
                mismatch = np.flatnonzero(a_par[start:] != b_par[start:])
                stop = start + int(mismatch[0]) + 1 if mismatch.size else rows
                # each round is sent as it is recorded, a query of its index
                recorded = np.arange(rounds, rounds + stop - start)
                round_parities[recorded] = a_par[start:stop]
                send(_query_frames(_ROUND_TAG, recorded, 0, a_par[start:stop]))
                rounds += recorded.size
                if not mismatch.size:
                    agree_streak += recorded.size
                    break
                agree_streak = 0
                # the subset hides an odd number of differences; bisect it in
                # ascending-position order, then backtrack the pass blocks
                positions = _subset_positions(block[stop - 1], n)
                a_sub = alice[positions]
                frames, (target,) = _bisect(
                    _REPAIR_TAG, np.array([0]), np.array([a_sub.size - 1]),
                    _prefix_parities(a_sub), _prefix_parities(a_sub ^ bob[positions]))
                send(frames)
                flip(int(positions[target]), cfg.n_passes)
                drain(cfg.n_passes)
                bob_words = _key_words(bob)
                # the block's later rounds are checked against the repaired key
                start = stop
                b_par[start:] = _parity(bob_words, block[start:])
        payload = struct.pack("<QH", cfg.shuffle_seed, rounds)
        payload += np.packbits(round_parities[:rounds]).tobytes()
        transcript.append(_frame(MSG_VERIFY, payload))

    return ReconciliationOutcome(
        corrected_bob_key=bob,
        leaked_bits=leaked_bits,
        corrections_made=corrections,
        verified_equal=verified,
        transcript=b"".join(transcript),
    )


def privacy_amplify(
    key,
    leaked_bits: int,
    delta: float,
    qber: float,
    safety_margin: int = 30,
    hash_seed: int = 0,
) -> SecretKey:
    """Compress the reconciled key with a seeded Toeplitz hash over GF(2).

    Output length: floor(n (1 - delta) (1 - h2(qber / (1 - delta)))) minus
    the reconciliation leakage and a finite-size safety margin, floored at
    zero.  A zero-length result flags the insecure regime.  A phase error
    qber / (1 - delta) of 1/2 or more is refused: past it h2 falls again,
    and a noisier key would be paid out longer.

    The matrix-vector product is an integer convolution, computed with a
    real FFT at the first power-of-two length of at least n + m - 1 in
    O((n + m) log(n + m)): the circular wrap folds the lags past that
    length onto lags below n - 1, which the hash does not read.  Every
    exact sum is an integer of at most n, so rounding recovers it bit for
    bit while the float error stays below 1/2; the hash raises
    ``ArithmeticError`` if the largest rounding error reaches 0.25 instead
    of returning bits it cannot vouch for.
    """
    bits = _as_bits(key, "key")
    n = bits.size
    if n < 1:
        raise ValueError("key must hold at least 1 bit")
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must be in [0, 1)")
    if not 0.0 <= qber < 0.5:
        raise ValueError("qber must be in [0, 0.5)")
    if leaked_bits < 0:
        raise ValueError("leaked_bits must be non-negative")
    if safety_margin < 0:
        raise ValueError("safety_margin must be non-negative")
    e_phase = qber / (1.0 - delta)
    if e_phase >= 0.5:
        raise ValueError("qber / (1 - delta) must stay below 1/2")

    inputs = (n, delta, qber, leaked_bits, safety_margin)
    secure = n * (1.0 - delta) * (1.0 - binary_entropy(e_phase))
    m = max(0, math.floor(secure) - leaked_bits - safety_margin)
    if m == 0:
        return SecretKey(np.zeros(0, dtype=np.uint8), inputs, aborted=True)

    rng = np.random.default_rng(np.random.SeedSequence([hash_seed]))
    # drawn as int64, which fixes the stream, and held as the float64 the
    # FFT reads; each array is dropped as soon as it is used
    diagonals = rng.integers(0, 2, n + m - 1, dtype=np.int64).astype(np.float64)
    # Toeplitz matrix T[i, j] = diagonals[i - j + n - 1]; row i of T @ key is
    # the full convolution at lag i + n - 1
    size = 1 << (n + m - 2).bit_length()
    spectrum = np.fft.rfft(diagonals, size)
    del diagonals
    spectrum *= np.fft.rfft(bits, size)
    sums = np.fft.irfft(spectrum, size)[n - 1 : n - 1 + m]
    del spectrum
    rounded = np.rint(sums)
    sums -= rounded
    error = float(np.max(np.abs(sums)))
    del sums
    if not error < 0.25:
        raise ArithmeticError(
            f"Toeplitz hash lost precision: rounding error {error:.3g}"
        )
    out = rounded.astype(np.int64) & 1
    return SecretKey(out.astype(np.uint8), inputs, aborted=False)
