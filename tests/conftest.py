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
