"""The package's one way onto a second core: two calls, one on a thread.

numpy releases the GIL inside its sorting, searching, sampling and
shuffling kernels, so two calls made of such kernels run on two cores.
"""

from __future__ import annotations

import threading


def _on_two_threads(first, second, threaded: bool = True):
    """``(first(), second())``, with ``first`` on a second thread if ``threaded``.

    The thread is joined before this returns or raises, and an error raised
    on it is raised again here.
    """
    if not threaded:
        return first(), second()
    results, failed = [None, None], []

    def run_first() -> None:
        try:
            results[0] = first()
        except BaseException as exc:  # raised again on the calling thread
            failed.append(exc)

    worker = threading.Thread(target=run_first, name="spsqkd-worker")
    worker.start()
    try:
        results[1] = second()
    finally:
        worker.join()
    if failed:
        raise failed[0]
    return results[0], results[1]
