"""The package's one way onto a second core: items made on two threads.

numpy releases the GIL inside its sorting, searching, sampling and
shuffling kernels, so two items made of such kernels are made on two cores.
At most one worker thread is alive: no make or take calls ``_in_order`` again.
"""

from __future__ import annotations

import threading


def _in_order(n: int, make, take, threaded: bool = True) -> None:
    """``take(i, make(i))`` for i in range(n), the makes spread over two threads.

    Every ``take`` runs on the calling thread, in index order.  The calling
    thread claims item 0 and starts a second thread, and the two claim the
    other makes in index order: while the part to take next is not yet
    made, the calling thread makes the next unclaimed item, and it waits
    only once every item is claimed.  A failure stops further claims.  The
    thread is joined before this returns or raises, and the error raised is
    the lowest-index one, which is what the inline loop (``threaded``
    false, or n below 2) raises.
    """
    if not threaded or n < 2:
        for i in range(n):
            take(i, make(i))
        return
    made = {}  # index -> (part, None) or (None, error), until taken
    claims = iter(range(n))  # read under ready, and emptied at a failure
    ready = threading.Condition()

    def make_one(i: int) -> None:
        nonlocal claims
        try:
            result = make(i), None
        except BaseException as exc:  # raised again on the calling thread
            result = None, exc
        with ready:
            made[i] = result
            if result[1] is not None:
                claims = iter(())
            ready.notify()

    def work() -> None:
        while True:
            with ready:
                i = next(claims, None)
            if i is None:
                return
            make_one(i)

    worker = threading.Thread(target=work, name="spsqkd-worker")
    next(claims)
    worker.start()
    try:
        make_one(0)
        for i in range(n):
            while True:
                with ready:
                    while i not in made and (j := next(claims, None)) is None:
                        ready.wait()
                    if i in made:
                        part, error = made.pop(i)
                        break
                make_one(j)
            if error is not None:
                raise error
            take(i, part)
    finally:
        with ready:
            claims = iter(())
        worker.join()


def _on_two_threads(first, second):
    """``(first(), second())`` through ``_in_order``: ``first``'s error wins."""
    calls, results = (first, second), []
    _in_order(2, lambda i: calls[i](), lambda i, result: results.append(result))
    return results[0], results[1]
