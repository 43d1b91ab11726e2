import tracemalloc

import numpy as np
from hypothesis import settings

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath

# Property tests run a fixed, bounded set of examples so that the suite is
# deterministic and quick.
settings.register_profile("tier1", derandomize=True, max_examples=60, deadline=None,
                          database=None)
settings.load_profile("tier1")


def pytest_report_header(config):
    # The pinned digests hold for one numpy dispatch level (README); a
    # digest failure on another host reads against this line.
    features = _multiarray_umath.__cpu_features__
    levels = [t for t in _multiarray_umath.__cpu_dispatch__ if features.get(t)]
    return f"numpy {np.__version__}, dispatched x86 levels: {' '.join(levels) or 'none'}"


def traced_peak(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the peak of what it allocated, in bytes
    above what tracemalloc traced when it started."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
