import threading

import pytest

from spsqkd import _threads


@pytest.fixture
def started_threads(monkeypatch):
    """Every thread the package's scheduler starts during the test."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(_threads.threading, "Thread", Recorded)
    return started
