import tracemalloc

import pytest


def _peak_traced_bytes(fn):
    """Run ``fn()`` under tracemalloc and return the peak bytes it traced."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_traced_bytes():
    """The ``peak_traced_bytes(fn)`` helper, for memory-bound tests."""
    return _peak_traced_bytes
