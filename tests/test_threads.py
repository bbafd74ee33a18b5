"""The two-thread scheduler every threaded stage goes through."""

import sys
import threading

import numpy as np
import pytest

from spsqkd import _threads, pipeline, reconciliation
from spsqkd._threads import _in_order, _on_two_threads
from spsqkd.hbt import correlation_histogram, simulate_hbt
from spsqkd.sources import get_preset


class _Failed(Exception):
    def __init__(self, where, i):
        super().__init__(where, i)
        self.where, self.i = where, i


def _run(n, make, threaded=True):
    taken = []
    _in_order(n, make, lambda i, part: taken.append((i, part, threading.current_thread())),
              threaded)
    return taken


def test_takes_run_in_order_on_the_calling_thread(started_threads):
    # the makes release the GIL, so both threads make some of them
    made_on = {}

    def make(i):
        made_on[i] = threading.current_thread()
        threading.Event().wait(0.001)
        return i * i

    main = threading.current_thread()
    assert _run(40, make) == [(i, i * i, main) for i in range(40)]
    assert sorted(made_on) == list(range(40))
    assert set(made_on.values()) <= {main, *started_threads}
    assert len(started_threads) == 1 and not started_threads[0].is_alive()


@pytest.mark.parametrize("n, threaded", [(0, True), (1, True), (5, False)])
def test_no_thread_starts_inline(started_threads, n, threaded):
    main = threading.current_thread()
    assert _run(n, lambda i: -i, threaded) == [(i, -i, main) for i in range(n)]
    assert started_threads == []


def test_the_thread_is_joined_after_a_failure(started_threads):
    live = threading.active_count()

    def make(i):
        if i == 3:
            raise _Failed("make", i)
        return i

    with pytest.raises(_Failed):
        _run(20, make)
    assert len(started_threads) == 1 and not started_threads[0].is_alive()
    assert threading.active_count() == live


def test_a_failure_stops_further_claims():
    # the caller is held in take(0) while the thread claims item 1, which
    # fails, and then for 50 ms more, time enough for the thread to make
    # every other item if claims went on
    failed, made = threading.Event(), []

    def make(i):
        if i == 1:
            failed.set()
            raise _Failed("make", i)
        made.append(i)
        return i

    def take(i, part):
        assert failed.wait(timeout=30)
        threading.Event().wait(0.05)

    with pytest.raises(_Failed) as raised:
        _in_order(50, make, take)
    assert raised.value.i == 1
    assert made == [0]


def _failing_run(failures, threaded):
    # failures: (where, index) pairs.  The make of every failing index but
    # the highest waits, up to 30 s, until the highest has failed, so a
    # threaded run meets the later failure first
    highest = max(i for _, i in failures)
    later_failed = threading.Event()

    def make(i):
        if i != highest and ("make", i) in failures and threaded:
            assert later_failed.wait(timeout=30)
        if ("make", i) in failures:
            if i == highest:
                later_failed.set()
            raise _Failed("make", i)
        return i

    def take(i, part):
        if ("take", i) in failures:
            raise _Failed("take", i)

    with pytest.raises(_Failed) as raised:
        _in_order(12, make, take, threaded)
    return raised.value.where, raised.value.i


@pytest.mark.parametrize("failures", [
    {("make", 3), ("make", 7)},
    {("take", 3), ("make", 7)},
    {("make", 0), ("make", 1)},
], ids=["two-makes", "take-then-make", "first-two"])
def test_threaded_and_inline_raise_the_same_lowest_index_error(failures):
    lowest = min(failures, key=lambda f: f[1])
    assert _failing_run(failures, threaded=False) == lowest
    assert _failing_run(failures, threaded=True) == lowest


def test_the_caller_makes_the_rest_while_the_thread_is_held(started_threads):
    # the second thread is held in its first make until the caller has made
    # every other item: the caller claims past the held one, not waiting on
    # it, and the run finishes with every part taken in order
    main = threading.current_thread()
    n = 9
    worker_in, release = threading.Event(), threading.Event()
    on_worker, on_caller, released = [], [], []

    def make(i):
        if threading.current_thread() is main:
            # the thread takes an item before the caller makes any
            assert worker_in.wait(timeout=30)
            on_caller.append(i)
            if len(on_caller) == n - 1:
                release.set()
        else:
            on_worker.append(i)
            worker_in.set()
            if len(on_worker) == 1:
                released.append(release.wait(timeout=30))
        return i

    assert _run(n, make) == [(i, i, main) for i in range(n)]
    assert released == [True]
    assert len(on_worker) == 1
    assert sorted(on_caller + on_worker) == list(range(n))
    assert not started_threads[0].is_alive()


def test_schedulers_agree_under_fast_switching():
    # several callers at once, each with its own second thread, more threads
    # than cores, and the GIL handed over every 10 us: each run takes every
    # part once, in order
    results = [None] * 4

    def run(k):
        results[k] = [(i, part) for i, part, _ in _run(300, lambda i: i * k)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=run, args=(k,)) for k in range(len(results))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert results == [[(i, i * k) for i in range(300)] for k in range(len(results))]


def test_two_calls_give_both_results_and_the_first_error():
    assert _on_two_threads(lambda: "a", lambda: "b") == ("a", "b")

    def fail(name):
        def call():
            raise _Failed(name, 0)
        return call

    with pytest.raises(_Failed) as raised:
        _on_two_threads(fail("first"), fail("second"))
    assert raised.value.where == "first"


@pytest.fixture
def one_at_a_time(monkeypatch, started_threads):
    """``started_threads``, each start failing while an earlier one is alive."""

    class OneAtATime(_threads.threading.Thread):
        def start(self):
            alive = [thread for thread in started_threads if thread.is_alive()]
            assert not alive, f"a worker started beside {alive}"
            super().start()

    monkeypatch.setattr(_threads.threading, "Thread", OneAtATime)
    return started_threads


def test_g2_runs_one_worker_at_a_time(monkeypatch, one_at_a_time):
    # the fit, on the worker, is held until the histogram, on the caller,
    # has returned, so a thread the histogram starts meets a live worker
    histogram, fit = pipeline.correlation_histogram, pipeline.fit_lifetime
    histogram_done = threading.Event()

    def held_histogram(*args, **kwargs):
        try:
            return histogram(*args, **kwargs)
        finally:
            histogram_done.set()

    def held_fit(*args, **kwargs):
        assert histogram_done.wait(timeout=30)
        return fit(*args, **kwargs)

    expected, _ = pipeline.run_g2(get_preset("nv"), 300_000, master_seed=2)
    one_at_a_time.clear()
    monkeypatch.setattr(pipeline, "correlation_histogram", held_histogram)
    monkeypatch.setattr(pipeline, "fit_lifetime", held_fit)
    summary, _ = pipeline.run_g2(get_preset("nv"), 300_000, master_seed=2)
    assert summary == expected
    assert len(one_at_a_time) == 1 and not one_at_a_time[0].is_alive()


def test_a_threaded_cascade_runs_one_worker(one_at_a_time):
    n = reconciliation._THREAD_FROM
    rng = np.random.default_rng(4)
    alice = rng.integers(0, 2, n, dtype=np.uint8)
    bob = alice ^ (rng.random(n) < 0.03).astype(np.uint8)
    out = reconciliation.cascade(alice, bob, reconciliation.ReconciliationConfig(
        est_qber=0.03, n_passes=6))
    assert out.verified_equal
    assert len(one_at_a_time) == 1 and not one_at_a_time[0].is_alive()


def test_the_histogram_starts_no_thread(started_threads):
    stream = simulate_hbt(get_preset("nv"), 3_000_000, np.random.default_rng(3))
    started_threads.clear()
    hist = correlation_histogram(stream)
    assert hist.counts.sum() > 0
    assert started_threads == []
