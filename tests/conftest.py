"""Helpers shared by the test modules."""

import tracemalloc

import pytest


def _traced_peak(fn):
    """(fn(), the peak in bytes of the memory that tracemalloc traces while
    fn runs, counted from the start of the call)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` gives (fn(), peak bytes traced while fn ran)."""
    return _traced_peak
