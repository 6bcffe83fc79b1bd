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
    """The list of hand-offs made while the test runs, `_both` calls that
    share their two halves with an open autodiff compute lane: the id of
    the thread that made each one."""
    from gyrodenoise import autodiff

    handoffs = []
    both = autodiff._both

    def counted(there, here, size):
        if (autodiff._open.lane is not None
                and size >= autodiff.LANE_MIN_SIZE):
            handoffs.append(threading.get_ident())
        return both(there, here, size)

    monkeypatch.setattr(autodiff, "_both", counted)
    return handoffs
