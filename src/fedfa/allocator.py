"""Fixed glibc malloc thresholds for processes that run many experiments.

By default glibc moves its mmap threshold as large chunks are freed, and
trims the heap top back to the kernel. A process that runs experiment
after experiment can then map fresh pages for every evaluation and im2col
buffer: nine default runs in one process took ~900k minor page faults.
Fixed thresholds keep those buffers in the heap and the heap from
shrinking. The values are the benchmark's (``perfbench/run.py``), so the
command line, the tests and the benchmark allocate alike.
"""

from __future__ import annotations

import ctypes

MMAP_THRESHOLD = 32 << 20  # glibc's largest
TRIM_THRESHOLD = 1 << 30
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # from <malloc.h>


def pin_malloc_thresholds() -> bool:
    """Fix the mmap and trim thresholds for this process. Returns whether
    both were set; where the C library has no ``mallopt`` (not glibc) it
    does nothing and returns False."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD))
