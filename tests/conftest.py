import threading
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


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail a test that ends with more Python threads than it started with:
    every worker thread the program starts is joined before it returns."""
    before = threading.active_count()
    yield
    assert threading.active_count() <= before, [
        t.name for t in threading.enumerate()]


@pytest.fixture
def lane_handoffs(monkeypatch):
    """The list of hand-offs to an autodiff compute lane made while the test
    runs: the id of the thread that handed each one off."""
    from gyrodenoise import autodiff

    handoffs = []
    hand_off = autodiff._hand_off

    def counted(lane, there, here):
        handoffs.append(threading.get_ident())
        return hand_off(lane, there, here)

    monkeypatch.setattr(autodiff, "_hand_off", counted)
    return handoffs
