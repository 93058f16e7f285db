"""Peak memory of one call, for the tests that bound a call's working set."""

import tracemalloc


def peak_nn(call, n: int):
    """Run ``call()`` under tracemalloc and return its result and the peak of
    what it allocated on top of what was live before, in N x N arrays of
    doubles (8 n^2 bytes)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak / (8 * n * n)
