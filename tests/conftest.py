import tracemalloc

import numpy as np
import pytest


def _peak_traced_bytes(fn):
    """Run ``fn()`` under tracemalloc and return the peak bytes it traced."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _retained_traced_bytes(fn):
    """Run ``fn()`` under tracemalloc; return its value and the bytes of numpy
    array data still traced while that value is held."""
    tracemalloc.start()
    try:
        value = fn()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    numpy_data = tracemalloc.DomainFilter(inclusive=True, domain=np.lib.tracemalloc_domain)
    return value, sum(trace.size for trace in snapshot.filter_traces([numpy_data]).traces)


@pytest.fixture
def peak_traced_bytes():
    """The ``peak_traced_bytes(fn)`` helper, for memory-bound tests."""
    return _peak_traced_bytes


@pytest.fixture
def retained_traced_bytes():
    """The ``retained_traced_bytes(fn)`` helper, for memory-retention tests."""
    return _retained_traced_bytes
