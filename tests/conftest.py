import tracemalloc

import pytest


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """traced_peak(fn): the peak bytes that tracemalloc traces while fn()
    runs (numpy reports its array buffers to tracemalloc)."""
    return _traced_peak


@pytest.fixture
def lane_handoffs(monkeypatch):
    """The list of hand-offs to an autodiff compute lane made while the test
    runs: the id of the thread that handed each one off."""
    import threading

    from gyrodenoise import autodiff

    handoffs = []
    run = autodiff._Lane.run

    def counted(self, there, here):
        handoffs.append(threading.get_ident())
        return run(self, there, here)

    monkeypatch.setattr(autodiff._Lane, "run", counted)
    return handoffs
