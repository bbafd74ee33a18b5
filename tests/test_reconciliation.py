"""Parity reconciliation and privacy amplification checks.

Hand oracles: identical 64-bit keys at est_qber 0.03 disclose exactly the
7 top-level block parities (ceil(64/25) + ceil(64/50) + 1 + 1); the length
formula at (n=1000, delta=0.0042, E=0.03, leaked=300, margin=30) gives
floor(801.59) - 330 = 471.
"""

import heapq
import math
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spsqkd import reconciliation
from spsqkd.pipeline import EST_QBER_FLOOR
from spsqkd.rates import binary_entropy
from spsqkd.reconciliation import (
    MSG_PARITY_REPLY,
    MSG_PARITY_REQUEST,
    MSG_SHUFFLE_SEED,
    MSG_VERIFY,
    ReconciliationConfig,
    cascade,
    check_shuffle_budget,
    iter_transcript,
    privacy_amplify,
)


def _keys_with_errors(n, qber, seed):
    rng = np.random.default_rng(seed)
    alice = rng.integers(0, 2, n, dtype=np.uint8)
    bob = alice ^ (rng.random(n) < qber).astype(np.uint8)
    return alice, bob


def _bisect(lo, hi, parity_differs):
    # the scalar halving search the replay oracles use, inclusive bounds;
    # parity_differs(lo, mid) compares the two parties' [lo, mid] parities
    queries = 0
    while lo < hi:
        mid = (lo + hi) // 2
        queries += 1
        if parity_differs(lo, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo, queries


def _bisect_blocks(alice, bob):
    # the shipped bisections over a whole block pair: the pass-1 batch,
    # which compares the parities of each half, and the later passes'
    # descent over a mask of the differing bits, whose queries are then
    # written from the bit it ends on.  Both must ask the same queries
    a = np.asarray(alice, dtype=np.uint8)
    b = np.asarray(bob, dtype=np.uint8)
    n = a.size
    diff = np.concatenate(([0], np.bitwise_xor.accumulate(a ^ b)))
    a_prefix = np.concatenate(([0], np.bitwise_xor.accumulate(a))).astype(np.uint8)
    frames, final = reconciliation._bisect(1, np.array([0]), np.array([n - 1]), a_prefix, diff)
    mask = sum(1 << int(i) for i in np.flatnonzero(a != b))
    target = reconciliation._odd_bit(mask, n)
    assert target == final[0]
    assert frames == reconciliation._search_frames([(1, 0, n - 1, target)], {1: a_prefix})
    return int(final[0]), len(frames) // reconciliation._QUERIES.itemsize


def test_binary_bisect_examples():
    assert _bisect_blocks([1, 0, 1, 1], [1, 1, 1, 1]) == (1, 2)
    assert _bisect_blocks([1], [0]) == (0, 0)


@given(
    n=st.integers(min_value=1, max_value=200),
    data=st.data(),
)
@settings(max_examples=100)
def test_binary_bisect_finds_a_real_error(n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    alice = rng.integers(0, 2, n, dtype=np.uint8)
    n_flips = data.draw(st.sampled_from([k for k in (1, 3, 5) if k <= n]))
    flips = rng.choice(n, size=n_flips, replace=False)
    bob = alice.copy()
    bob[flips] ^= 1
    pos, parities = _bisect_blocks(alice, bob)
    assert alice[pos] != bob[pos]
    assert parities <= math.ceil(math.log2(n)) if n > 1 else parities == 0


def test_binary_bisect_power_of_two_discloses_log2():
    for exp in (1, 2, 3, 4, 5):
        n = 1 << exp
        alice = np.zeros(n, dtype=np.uint8)
        bob = alice.copy()
        bob[n - 1] ^= 1
        assert _bisect_blocks(alice, bob) == (n - 1, exp)


def _replay_pass1(alice, bob, block):
    # pass 1 one block at a time: every block parity, then each odd block
    # bisected through _bisect in ascending order.  A pass-1 flip toggles
    # only its own block, so the replay need not apply its flips
    a = np.concatenate(([0], np.bitwise_xor.accumulate(alice)))
    d = np.concatenate(([0], np.bitwise_xor.accumulate(alice ^ bob)))
    ranges = [(lo, min(lo + block, alice.size) - 1) for lo in range(0, alice.size, block)]
    frames = [(lo, hi, int(a[hi + 1] ^ a[lo])) for lo, hi in ranges]

    def differs(lo, mid):
        frames.append((lo, mid, int(a[mid + 1] ^ a[lo])))
        return d[mid + 1] != d[lo]

    fixed = [_bisect(lo, hi, differs)[0] for lo, hi in ranges if d[hi + 1] != d[lo]]
    return frames, fixed


def _pass1_frames(transcript):
    # (lo, hi, parity) of the leading run of pass-byte-0 queries
    frames = []
    for msg_type, payload in iter_transcript(transcript):
        if msg_type == MSG_PARITY_REQUEST:
            pass_byte, lo, hi = struct.unpack("<BII", payload)
            if pass_byte != 0:
                break
        elif msg_type == MSG_PARITY_REPLY:
            frames.append((lo, hi, payload[0]))
    return frames


@given(
    n=st.integers(min_value=8, max_value=5000),
    qber=st.floats(min_value=0.0, max_value=0.3),
    est=st.sampled_from([None, 0.02, 0.1, 0.49]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=5001, qber=0.3, est=0.1, seed=3)
@example(n=4096, qber=0.0, est=None, seed=0)
@settings(max_examples=100, deadline=None)
def test_pass1_matches_a_block_by_block_replay(n, qber, est, seed):
    # the examples: blocks of 8 whose last block is one bit holding an
    # error, and a key with no odd block
    alice, bob = _keys_with_errors(n, qber, seed)
    cfg = ReconciliationConfig(
        est_qber=max(qber, EST_QBER_FLOOR) if est is None else est, shuffle_seed=seed
    )
    calls = []

    def spy(pass_byte, *args):
        result = bisect(pass_byte, *args)
        if pass_byte == 0:  # the confirmation repairs bisect too
            calls.append(result[1].tolist())
        return result

    bisect = reconciliation._bisect
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reconciliation, "_bisect", spy)
        out = cascade(alice, bob, cfg)
    frames, fixed = _replay_pass1(alice, bob, cfg.initial_block)
    assert _pass1_frames(out.transcript) == frames
    assert calls == [fixed]
    assert np.array_equal(out.corrected_bob_key[fixed], alice[fixed])


def _query(pass_byte, lo, hi, parity):
    # one 0x01 request frame and its 0x02 reply frame
    request = struct.pack("<IBBII", 9, MSG_PARITY_REQUEST, pass_byte, lo, hi)
    return request + struct.pack("<IBB", 1, MSG_PARITY_REPLY, parity)


def _replay_cascade(alice, bob, cfg):
    """The whole protocol one block at a time: a heap of (pass, block), the
    set of blocks with a known parity mismatch, and a scalar bisection of
    each, asking Alice for every parity it needs.  Returns the transcript,
    Bob's key, the leaked bits, the corrections and the verdict."""
    bob = bob.copy()
    n = alice.size
    transcript = [struct.pack("<IBQ", 8, MSG_SHUFFLE_SEED, cfg.shuffle_seed)]
    perms = [np.arange(n)] + [
        np.random.default_rng(np.random.SeedSequence([cfg.shuffle_seed, p])).permutation(n)
        for p in range(1, cfg.n_passes)
    ]
    inv_perms = [np.argsort(perm) for perm in perms]
    sizes = [min(n, cfg.initial_block << p) for p in range(cfg.n_passes)]
    leaked = corrections = 0
    pending, heap = set(), []

    def ask(pass_byte, lo, hi, positions):
        nonlocal leaked
        leaked += 1
        transcript.append(_query(pass_byte, lo, hi, int(alice[positions].sum()) & 1))
        return int((alice[positions] != bob[positions]).sum()) & 1

    def locate(pass_byte, coords, base):
        # the key position a bisection of the range [base, base + coords.size) ends on
        def differs(lo, mid):
            return ask(pass_byte, lo, mid, coords[lo - base : mid + 1 - base])

        pos, _ = _bisect(base, base + coords.size - 1, differs)
        return int(coords[pos - base])

    def flip(g, announced):
        nonlocal corrections
        bob[g] ^= 1
        corrections += 1
        for r in range(announced):
            key = (r, int(inv_perms[r][g]) // sizes[r])
            if key in pending:
                pending.remove(key)
            else:
                pending.add(key)
                heapq.heappush(heap, key)

    def drain(announced):
        while pending:
            key = heapq.heappop(heap)
            if key in pending:
                r, block_id = key
                lo = block_id * sizes[r]
                flip(locate(r, perms[r][lo : lo + sizes[r]], lo), announced)
        heap.clear()

    for p in range(cfg.n_passes):
        for block_id, lo in enumerate(range(0, n, sizes[p])):
            block = perms[p][lo : lo + sizes[p]]
            if ask(p, lo, lo + block.size - 1, block):
                pending.add((p, block_id))
                heap.append((p, block_id))
        drain(p + 1)

    verified = True
    if cfg.verify_bits:
        stream = np.random.SeedSequence([cfg.shuffle_seed, reconciliation._VERIFY_STREAM])
        bitgen = np.random.PCG64(stream)
        parities, streak = [], 0
        while streak < cfg.verify_bits:
            if len(parities) >= reconciliation.ROUND_BUDGET:
                verified = False
                break
            words = bitgen.random_raw(-(-n // 64)).astype("<u8")
            subset = np.flatnonzero(np.unpackbits(words.view(np.uint8), count=n))
            parities.append(int(alice[subset].sum()) & 1)
            if not ask(0xFE, len(parities) - 1, 0, subset):
                streak += 1
                continue
            streak = 0
            flip(locate(0xFF, subset, 0), cfg.n_passes)
            drain(cfg.n_passes)
        summary = struct.pack("<QH", cfg.shuffle_seed, len(parities))
        summary += np.packbits(np.array(parities, dtype=np.uint8)).tobytes()
        transcript.append(struct.pack("<IB", len(summary), MSG_VERIFY) + summary)
    return b"".join(transcript), bob, leaked, corrections, verified


def _blind_pattern_keys():
    # test_confirmation_stage_repairs_pass_blind_pattern's keys
    rng = np.random.default_rng(4)
    alice = rng.integers(0, 2, 32, dtype=np.uint8)
    bob = alice.copy()
    bob[[0, 1]] ^= 1
    return alice, bob


def _stacked_errors_keys():
    # ten errors in the first 25-bit block: pass 1 sees an even count, and
    # passes 2-4 bisect blocks whose masks hold several of them
    rng = np.random.default_rng(8)
    alice = rng.integers(0, 2, 400, dtype=np.uint8)
    bob = alice.copy()
    bob[[0, 1, 2, 3, 7, 11, 13, 17, 19, 23]] ^= 1
    return alice, bob


def _assert_matches_the_replay(
    alice, bob, cfg, batch=reconciliation._SEARCH_BATCH,
    block_words=reconciliation._ROUND_BLOCK_WORDS,
):
    # batch: the most searches a drain writes at once; block_words: the most
    # raw words the confirmation stage draws at once.  Both ways of building
    # the tables are checked: inline, and with passes 3 and later shuffled on
    # the second thread (its cut-over patched down to the smallest key)
    transcript, key, leaked, corrections, verified = _replay_cascade(alice, bob, cfg)
    for thread_from in (reconciliation._THREAD_FROM, 8):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reconciliation, "_SEARCH_BATCH", batch)
            mp.setattr(reconciliation, "_ROUND_BLOCK_WORDS", block_words)
            mp.setattr(reconciliation, "_THREAD_FROM", thread_from)
            out = cascade(alice, bob, cfg)
        assert out.transcript == transcript
        assert np.array_equal(out.corrected_bob_key, key)
        assert out.leaked_bits == leaked
        assert out.corrections_made == corrections
        assert out.verified_equal == verified


@given(
    n=st.integers(min_value=8, max_value=5000),
    qber=st.floats(min_value=0.0, max_value=0.3),
    est_ratio=st.sampled_from([0.1, 0.5, 1.0, 2.0, 5.0]),
    n_passes=st.integers(min_value=2, max_value=6),
    verify_bits=st.sampled_from([0, 1, 50]),
    seed=st.integers(0, 2**32 - 1),
    batch=st.sampled_from([1, 3, reconciliation._SEARCH_BATCH]),
)
@example(n=3000, qber=0.3, est_ratio=0.1, n_passes=3, verify_bits=50, seed=1, batch=3)
@settings(max_examples=60, deadline=None)
def test_cascade_matches_a_block_by_block_replay(
    n, qber, est_ratio, n_passes, verify_bits, seed, batch
):
    # the example: an estimate ten times too low, so blocks of 25 and up
    # hold many errors, the later passes bisect multi-bit masks, and their
    # drains write many small batches
    alice, bob = _keys_with_errors(n, qber, seed)
    est = min(max(qber * est_ratio, EST_QBER_FLOOR), 0.49)
    cfg = ReconciliationConfig(
        est_qber=est, n_passes=n_passes, shuffle_seed=seed, verify_bits=verify_bits
    )
    _assert_matches_the_replay(alice, bob, cfg, batch)


@pytest.mark.parametrize(
    "keys, est",
    [(_stacked_errors_keys, 0.03), (_blind_pattern_keys, 0.06)],
    ids=["stacked-errors", "pass-blind"],
)
def test_cascade_matches_the_replay_on_crafted_keys(keys, est):
    alice, bob = keys()
    _assert_matches_the_replay(alice, bob, ReconciliationConfig(est_qber=est))


def _mismatched_rounds(transcript):
    # the index of each confirmation round that set off a repair: the last
    # round sent before a run of 0xFF repair queries
    requests = [p for t, p in iter_transcript(transcript) if t == MSG_PARITY_REQUEST]
    rounds, last = [], None
    for before, payload in zip([b"\0"] + requests, requests):
        if payload[0] == 0xFE:
            last = struct.unpack_from("<I", payload, 1)[0]
        elif payload[0] == 0xFF and before[0] != 0xFF:
            rounds.append(last)
    return rounds


@pytest.mark.parametrize(
    "keys, cfg, block_words, mismatched",
    [
        # one word a round, four rounds a block: round 1 of rounds 0-3
        (_blind_pattern_keys, ReconciliationConfig(est_qber=0.06), 4, [1]),
        # 47 words a round, three rounds a block: rounds 3 and 4 both
        # mismatch in rounds 3-5, so round 4 is checked against a key
        # repaired after the block was drawn
        (lambda: _keys_with_errors(3000, 0.3, 0),
         ReconciliationConfig(est_qber=0.03, n_passes=2), 3 * 47, [3, 4]),
    ],
    ids=["pass-blind", "two-in-a-block"],
)
def test_confirmation_blocks_repair_a_mismatch_in_mid_block(keys, cfg, block_words, mismatched):
    alice, bob = keys()
    rows = block_words // -(-alice.size // 64)
    found = _mismatched_rounds(cascade(alice, bob, cfg).transcript)
    assert found[: len(mismatched)] == mismatched
    assert mismatched[0] % rows != rows - 1
    _assert_matches_the_replay(alice, bob, cfg, block_words=block_words)


@pytest.mark.parametrize("block_words", [3, 20])
def test_confirmation_blocks_run_out_mid_streak(block_words):
    # 400 bits, 7 words a round, and no round mismatches: 3 words still draw
    # one round a block, 20 draw two, and the streak runs on across 25 blocks
    alice, bob = _stacked_errors_keys()
    cfg = ReconciliationConfig(est_qber=0.03)
    out = cascade(alice, bob, cfg)
    assert out.verified_equal and _mismatched_rounds(out.transcript) == []
    _assert_matches_the_replay(alice, bob, cfg, block_words=block_words)


def test_confirmation_blocks_stop_at_the_round_budget():
    # a round must mismatch to repair the pass-blind pair, so a streak of
    # ROUND_BUDGET rounds cannot be met: blocks of four rounds run until the
    # budget clips the last one to three
    alice, bob = _blind_pattern_keys()
    cfg = ReconciliationConfig(est_qber=0.06, verify_bits=reconciliation.ROUND_BUDGET)
    _assert_matches_the_replay(alice, bob, cfg, block_words=4)
    out = cascade(alice, bob, cfg)
    _, parities, replies, _ = _confirmation_frames(out.transcript)
    assert not out.verified_equal
    assert parities.size == len(replies) == reconciliation.ROUND_BUDGET


class _Injected(Exception):
    pass


def _spy_shuffles(monkeypatch, before=None):
    # records (pass, thread, live threads) of every shuffle table built;
    # before(p) runs first and may raise or wait
    shuffle_tables = reconciliation._shuffle_tables
    calls = []

    def spy(alice, natural, seed, p):
        calls.append((p, threading.current_thread(), threading.active_count()))
        if before is not None:
            before(p)
        return shuffle_tables(alice, natural, seed, p)

    monkeypatch.setattr(reconciliation, "_shuffle_tables", spy)
    return calls


def test_shuffles_start_one_thread_at_most_and_only_from_the_cut_over(monkeypatch):
    # the 2^18-bit CLI pin in test_config_cli runs the threaded path
    assert reconciliation._THREAD_FROM <= 1 << 18
    calls = _spy_shuffles(monkeypatch)
    main = threading.current_thread()
    live = threading.active_count()
    for n, n_passes, threaded in [
        (reconciliation._THREAD_FROM - 1, 4, False),
        (reconciliation._THREAD_FROM, 2, False),
        (reconciliation._THREAD_FROM, 3, True),
        (reconciliation._THREAD_FROM, 9, True),
    ]:
        calls.clear()
        alice, bob = _keys_with_errors(n, 0.03, n_passes)
        out = cascade(alice, bob, ReconciliationConfig(est_qber=0.03, n_passes=n_passes))
        assert out.verified_equal
        threads = {p: thread for p, thread, _ in calls}
        assert sorted(threads) == list(range(1, n_passes))
        # pass 2 on the calling thread; passes 3 and later all on one thread
        assert threads.pop(1) is main
        assert len(set(threads.values())) <= 1
        assert all((thread is not main) == threaded for thread in threads.values())
        assert max(count for _, _, count in calls) <= live + threaded
        assert threading.active_count() == live


def test_a_failed_shuffle_on_the_thread_is_raised_by_the_caller(monkeypatch):
    monkeypatch.setattr(reconciliation, "_THREAD_FROM", 8)

    def fail_later(p):
        if p >= 2:
            raise _Injected(p)

    calls = _spy_shuffles(monkeypatch, fail_later)
    alice, bob = _keys_with_errors(4096, 0.03, 2)
    live = threading.active_count()
    with pytest.raises(_Injected):
        cascade(alice, bob, ReconciliationConfig(est_qber=0.03))
    assert [thread is threading.current_thread() for p, thread, _ in calls if p == 2] == [False]
    assert threading.active_count() == live


def test_a_failure_mid_pass_still_joins_the_thread(monkeypatch):
    # _search_frames first runs in pass 2's drain, while the thread is held
    # in its first shuffle; it fails there, and only then is the thread let go
    monkeypatch.setattr(reconciliation, "_THREAD_FROM", 8)
    release = threading.Event()
    calls = _spy_shuffles(monkeypatch, lambda p: p < 2 or release.wait(timeout=30))
    live = threading.active_count()
    seen = []

    def fail(searches, prefixes):
        seen.append(threading.active_count())
        release.set()
        raise _Injected

    monkeypatch.setattr(reconciliation, "_search_frames", fail)
    alice, bob = _keys_with_errors(4096, 0.03, 3)
    with pytest.raises(_Injected):
        cascade(alice, bob, ReconciliationConfig(est_qber=0.03))
    assert seen == [live + 1]
    assert threading.active_count() == live
    # the thread was joined, not abandoned: it finished its shuffles
    assert sorted(p for p, _, _ in calls) == [1, 2, 3]


def test_threaded_cascades_agree_with_inline_under_fast_switching():
    # several callers at once, each with its own table thread, more threads
    # than cores, and the GIL handed over every 10 us: every transcript must
    # equal the one built without a thread
    keys = [_keys_with_errors(20_000, 0.05, seed) for seed in range(3)]
    cfgs = [ReconciliationConfig(est_qber=0.05, n_passes=6, shuffle_seed=s) for s in range(3)]
    expected = [cascade(a, b, cfg).transcript for (a, b), cfg in zip(keys, cfgs)]
    results = [None] * len(keys)

    def run(i):
        results[i] = cascade(*keys[i], cfgs[i]).transcript

    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reconciliation, "_THREAD_FROM", 8)
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=run, args=(i,)) for i in range(len(keys))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert results == expected


def test_identical_keys_leak_top_level_parities_only():
    rng = np.random.default_rng(3)
    key = rng.integers(0, 2, 64, dtype=np.uint8)
    out = cascade(key, key, ReconciliationConfig(est_qber=0.03, verify_bits=0))
    assert out.corrections_made == 0
    assert np.array_equal(out.corrected_bob_key, key)
    # blocks of 25/50/100/200 over 64 bits: 3 + 2 + 1 + 1 parities
    assert out.leaked_bits == 7


def test_two_known_errors_corrected():
    rng = np.random.default_rng(4)
    alice = rng.integers(0, 2, 32, dtype=np.uint8)
    bob = alice.copy()
    bob[[5, 20]] ^= 1
    out = cascade(alice, bob, ReconciliationConfig(est_qber=0.06))
    assert np.array_equal(out.corrected_bob_key, alice)
    assert out.corrections_made == 2
    assert out.verified_equal


def test_cascade_validation():
    key = np.zeros(16, dtype=np.uint8)
    with pytest.raises(ValueError, match="equal length"):
        cascade(key, key[:8], ReconciliationConfig(est_qber=0.03))
    with pytest.raises(ValueError, match="at least 8"):
        cascade(key[:4], key[:4], ReconciliationConfig(est_qber=0.03))
    with pytest.raises(ValueError, match="est_qber"):
        ReconciliationConfig(est_qber=0.5)
    with pytest.raises(ValueError, match="est_qber"):
        ReconciliationConfig(est_qber=0.0)
    with pytest.raises(ValueError, match="n_passes"):
        ReconciliationConfig(est_qber=0.03, n_passes=1)
    # pass bytes 0xFE and 0xFF tag the confirmation frames
    assert ReconciliationConfig(est_qber=0.03, n_passes=0xFD).n_passes == 0xFD
    with pytest.raises(ValueError, match="n_passes"):
        ReconciliationConfig(est_qber=0.03, n_passes=0xFE)
    with pytest.raises(ValueError, match="0/1"):
        cascade(np.full(16, 2, dtype=np.uint8), key, ReconciliationConfig(est_qber=0.03))


def test_cascade_refuses_shuffles_past_the_budget():
    # the default 4 passes fit at the key cap; a fifth is refused before any
    # shuffle is built
    key = np.zeros(1 << 24, dtype=np.uint8)
    with pytest.raises(ValueError, match="n_passes = 5 over 16777216 key bits"):
        cascade(key, key, ReconciliationConfig(est_qber=0.03, n_passes=5))
    check_shuffle_budget(1 << 24, 4)
    with pytest.raises(ValueError, match="n_passes = 5"):
        check_shuffle_budget(1 << 24, 5)


def test_initial_block_rule():
    assert ReconciliationConfig(est_qber=0.03).initial_block == 25
    assert ReconciliationConfig(est_qber=0.06).initial_block == 13


def test_transcript_accounts_for_every_leaked_bit():
    alice, bob = _keys_with_errors(2000, 0.03, seed=5)
    out = cascade(alice, bob, ReconciliationConfig(est_qber=0.03, shuffle_seed=9))
    replies = 0
    round_requests = 0
    verify_rounds = 0
    seeds = []
    for msg_type, payload in iter_transcript(out.transcript):
        if msg_type == MSG_PARITY_REPLY:
            replies += 1
        elif msg_type == MSG_PARITY_REQUEST and payload[0] == 0xFE:
            round_requests += 1
        elif msg_type == MSG_VERIFY:
            verify_rounds += struct.unpack_from("<QH", payload)[1]
        elif msg_type == MSG_SHUFFLE_SEED:
            seeds.append(struct.unpack("<Q", payload)[0])
    # every disclosed parity is a reply frame; the verify summary counts
    # the confirmation rounds, each of which already produced one reply
    assert replies == out.leaked_bits
    assert round_requests == verify_rounds >= 50
    assert seeds == [9]
    with pytest.raises(ValueError, match="truncated"):
        list(iter_transcript(out.transcript[:-1]))


def test_random_instances_fully_corrected():
    for seed in range(5):
        alice, bob = _keys_with_errors(2000, 0.03, seed=seed)
        out = cascade(alice, bob, ReconciliationConfig(est_qber=0.03, shuffle_seed=seed))
        assert np.array_equal(out.corrected_bob_key, alice)
        assert out.verified_equal
        assert out.corrections_made == int((alice != bob).sum())


def test_block_parities_all_match_after_protocol():
    alice, bob = _keys_with_errors(3000, 0.04, seed=6)
    cfg = ReconciliationConfig(est_qber=0.04, shuffle_seed=11)
    out = cascade(alice, bob, cfg)
    corrected = out.corrected_bob_key
    n = alice.size
    for p in range(cfg.n_passes):
        if p == 0:
            perm = np.arange(n)
        else:
            rng = np.random.default_rng(np.random.SeedSequence([cfg.shuffle_seed, p]))
            perm = rng.permutation(n)
        k = min(n, cfg.initial_block * (1 << p))
        for lo in range(0, n, k):
            block = perm[lo : lo + k]
            pa = int(np.bitwise_xor.reduce(alice[block]))
            pb = int(np.bitwise_xor.reduce(corrected[block]))
            assert pa == pb


def test_underestimated_qber_converges_with_heavy_leakage():
    # est_qber badly low and only two passes: the doubled blocks leave
    # residual errors and the confirmation rounds must mop them up, at a
    # cost well above the Shannon bound for the true error rate
    rng = np.random.default_rng(0)
    n = 512
    alice = rng.integers(0, 2, n, dtype=np.uint8)
    bob = alice ^ (rng.random(n) < 0.20).astype(np.uint8)
    out = cascade(alice, bob, ReconciliationConfig(est_qber=0.02, n_passes=2))
    assert np.array_equal(out.corrected_bob_key, alice)
    assert out.verified_equal
    assert out.leaked_bits > n * binary_entropy(0.20)


def test_confirmation_stage_repairs_pass_blind_pattern():
    # two errors that land in one pass-1 block and are never split by the
    # doubled later blocks: every announced parity is even, so without the
    # confirmation rounds the pattern survives untouched
    rng = np.random.default_rng(4)
    alice = rng.integers(0, 2, 32, dtype=np.uint8)
    bob = alice.copy()
    bob[[0, 1]] ^= 1
    blind = cascade(alice, bob, ReconciliationConfig(est_qber=0.06, verify_bits=0))
    assert blind.corrections_made == 0
    assert not np.array_equal(blind.corrected_bob_key, alice)
    out = cascade(alice, bob, ReconciliationConfig(est_qber=0.06))
    assert np.array_equal(out.corrected_bob_key, alice)
    assert out.verified_equal
    assert out.corrections_made == 2


@pytest.mark.parametrize("n", [8, 63, 64, 65, 10001])
def test_packed_subset_parity_matches_the_unpacked_positions(n):
    rng = np.random.default_rng(n)
    alice = rng.integers(0, 2, n, dtype=np.uint8)
    key_words = reconciliation._key_words(alice)
    assert key_words.size == -(-n // 64)
    draws = [rng.integers(0, 2**64, key_words.size, dtype=np.uint64) for _ in range(20)]
    # every word bit set: the subset is the whole key and no pad bit
    draws.append(np.full(key_words.size, 2**64 - 1, dtype=np.uint64))
    for words in draws:
        positions = reconciliation._subset_positions(words, n)
        assert positions.size == 0 or positions.max() < n
        assert reconciliation._parity(key_words, words) == int(alice[positions].sum()) & 1
    assert np.array_equal(positions, np.arange(n))


def _confirmation_frames(transcript):
    """The 0x04 summary (seed, rounds, parities), the 0xFE round replies
    in order as (round, parity), and the count of 0xFF repair queries."""
    frames = list(iter_transcript(transcript))
    replies, repairs = [], 0
    for (msg_type, payload), (_, reply) in zip(frames, frames[1:]):
        if msg_type == MSG_PARITY_REQUEST and payload[0] == 0xFE:
            replies.append((struct.unpack_from("<I", payload, 1)[0], reply[0]))
        repairs += msg_type == MSG_PARITY_REQUEST and payload[0] == 0xFF
    (summary,) = [payload for msg_type, payload in frames if msg_type == MSG_VERIFY]
    seed, rounds = struct.unpack_from("<QH", summary)
    parities = np.unpackbits(np.frombuffer(summary[10:], dtype=np.uint8), count=rounds)
    return seed, parities, replies, repairs


@pytest.mark.parametrize(
    "keys, est, shuffle_seed, needs_repair",
    [
        # no pass sees the two errors, so a round must mismatch and repair them
        (_blind_pattern_keys, 0.06, 0, True),
        (lambda: _keys_with_errors(2000, 0.03, seed=5), 0.03, 13, False),
        (lambda: _keys_with_errors(10_001, 0.05, seed=6), 0.05, 14, False),
    ],
    ids=["pass-blind-32", "n2000", "n10001"],
)
def test_confirmation_rounds_check_out_against_the_transcript_alone(
    keys, est, shuffle_seed, needs_repair
):
    # Alice's subsets are regenerated from the 0x04 frame's seed alone: one
    # raw PCG64 word per 64 key bits per round, key position i at bit
    # 7 - i % 8 of the words' little-endian byte i // 8
    alice, bob = keys()
    n = alice.size
    cfg = ReconciliationConfig(est_qber=est, shuffle_seed=shuffle_seed)
    out = cascade(alice, bob, cfg)
    assert out.verified_equal
    seed, parities, replies, repairs = _confirmation_frames(out.transcript)
    assert seed == shuffle_seed
    assert len(replies) == parities.size >= 50
    bitgen = np.random.PCG64(np.random.SeedSequence([seed, reconciliation._VERIFY_STREAM]))
    for r, (round_index, reply) in enumerate(replies):
        words = bitgen.random_raw(-(-n // 64)).astype("<u8")
        subset = np.unpackbits(words.view(np.uint8), count=n).astype(bool)
        parity = int(alice[subset].sum()) & 1
        assert round_index == r
        assert parity == parities[r] == reply
    if needs_repair:
        assert repairs > 0 and out.corrections_made == 2


def test_leakage_stays_near_shannon():
    n = 4000
    leaks = []
    for seed in range(5):
        alice, bob = _keys_with_errors(n, 0.03, seed=100 + seed)
        out = cascade(alice, bob, ReconciliationConfig(est_qber=0.03, shuffle_seed=seed))
        assert np.array_equal(out.corrected_bob_key, alice)
        leaks.append(out.leaked_bits)
    f_eff = np.mean(leaks) / (n * binary_entropy(0.03))
    assert 1.0 < f_eff < 1.35


def test_privacy_amplify_length_oracle():
    sk = privacy_amplify(np.zeros(1000, dtype=np.uint8), 300, 0.0042, 0.03)
    assert len(sk) == 471
    assert not sk.aborted
    assert sk.length_formula_inputs == (1000, 0.0042, 0.03, 300, 30)


def test_privacy_amplify_aborts_when_overdrawn():
    sk = privacy_amplify(np.ones(100, dtype=np.uint8), 100, 0.0, 0.03)
    assert sk.aborted
    assert len(sk) == 0


def test_privacy_amplify_deterministic_in_seed():
    rng = np.random.default_rng(12)
    key = rng.integers(0, 2, 500, dtype=np.uint8)
    a = privacy_amplify(key, 50, 0.01, 0.02, hash_seed=3)
    b = privacy_amplify(key, 50, 0.01, 0.02, hash_seed=3)
    c = privacy_amplify(key, 50, 0.01, 0.02, hash_seed=4)
    assert np.array_equal(a.bits, b.bits)
    assert not np.array_equal(a.bits, c.bits)


def test_privacy_amplify_is_linear_over_gf2():
    rng = np.random.default_rng(13)
    x = rng.integers(0, 2, 400, dtype=np.uint8)
    y = rng.integers(0, 2, 400, dtype=np.uint8)
    hx = privacy_amplify(x, 40, 0.0, 0.01, hash_seed=7).bits
    hy = privacy_amplify(y, 40, 0.0, 0.01, hash_seed=7).bits
    hxy = privacy_amplify(x ^ y, 40, 0.0, 0.01, hash_seed=7).bits
    assert np.array_equal(hxy, hx ^ hy)


def test_privacy_amplify_avalanche():
    # by linearity the diff pattern for a one-bit flip is the hash of a unit
    # vector; its weight should average half the output length
    n, trials = 300, 1000
    fractions = np.empty(trials)
    for t in range(trials):
        unit = np.zeros(n, dtype=np.uint8)
        unit[t % n] = 1
        bits = privacy_amplify(unit, 30, 0.0, 0.01, hash_seed=t).bits
        fractions[t] = bits.mean()
    assert abs(fractions.mean() - 0.5) < 0.05


@given(
    n=st.integers(min_value=1, max_value=2000),
    m=st.integers(min_value=1, max_value=2000),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, m=1, seed=0)
@example(n=2000, m=1, seed=1)
@example(n=2000, m=2000, seed=2)
@example(n=1000, m=25, seed=3)
@example(n=1000, m=26, seed=4)
@settings(max_examples=150, deadline=None)
def test_privacy_amplify_matches_direct_convolution(n, m, seed):
    # with delta = qber = margin = 0 the output length is n - leaked_bits,
    # so every m from 1 to n is reachable; np.convolve is the O(n m) oracle.
    # The FFT length is the first power of two of at least n + m - 1: the
    # examples put n + m - 1 at exactly 1024 and one past it
    m = min(m, n)
    key = np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)
    sk = privacy_amplify(key, n - m, 0.0, 0.0, safety_margin=0, hash_seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    diagonals = rng.integers(0, 2, n + m - 1, dtype=np.int64)
    expect = np.convolve(diagonals, key.astype(np.int64))[n - 1 : n - 1 + m] & 1
    assert sk.bits.dtype == np.uint8
    assert np.array_equal(sk.bits, expect)


def test_privacy_amplify_validation():
    key = np.zeros(10, dtype=np.uint8)
    with pytest.raises(ValueError, match="delta"):
        privacy_amplify(key, 0, 1.0, 0.03)
    with pytest.raises(ValueError, match="qber"):
        privacy_amplify(key, 0, 0.0, 0.5)
    with pytest.raises(ValueError, match="below 1"):
        privacy_amplify(key, 0, 0.94, 0.45)
    # phase error 0.4 / 0.5 = 0.8: h2 is falling again, so this must not pay out
    with pytest.raises(ValueError, match="below 1/2"):
        privacy_amplify(np.zeros(10000, dtype=np.uint8), 0, 0.5, 0.4)
    with pytest.raises(ValueError, match="at least 1"):
        privacy_amplify(np.zeros(0, dtype=np.uint8), 0, 0.0, 0.03)
    with pytest.raises(ValueError, match="leaked"):
        privacy_amplify(key, -1, 0.0, 0.03)


def _key_length(n, delta, qber, leaked):
    """Secret bits from an n-bit key, or None where the phase error is refused."""
    try:
        return len(privacy_amplify(np.zeros(n, dtype=np.uint8), leaked, delta, qber))
    except ValueError:
        return None


@given(
    n=st.integers(min_value=1, max_value=4000),
    delta=st.floats(min_value=0.0, max_value=0.9),
    qbers=st.lists(st.floats(min_value=0.0, max_value=0.499), min_size=2, max_size=2),
    leaked=st.integers(min_value=0, max_value=500),
)
@example(n=10000, delta=0.5, qbers=[0.26, 0.4], leaked=0)
@settings(max_examples=80, deadline=None)
def test_privacy_amplify_key_length_never_grows_with_qber(n, delta, qbers, leaked):
    lo, hi = sorted(qbers)
    short = _key_length(n, delta, hi, leaked)
    if short is not None:
        assert _key_length(n, delta, lo, leaked) >= short
