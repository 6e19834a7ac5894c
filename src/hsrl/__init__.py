"""Hierarchical semantic-ID reinforcement learning lab.

Offline item tokenization into a fixed semantic action space, a
coarse-to-fine residual policy with a multi-level critic trained by
actor-critic against a simulated user environment, and a CLI harness for
ablations and sensitivity sweeps.
"""

import ctypes

__version__ = "0.1.0"

# glibc's malloc hands freed heap back to the OS once 128 KB lies free at its
# top, and serves blocks past 128 KB by mmap; it raises both thresholds (to
# at most 32 and 64 MB) only after the process frees such a block. The
# autodiff tape frees a whole step at once, so with the defaults every step
# faults its memory back in (about 147k page faults per fit of the 300-item
# catalog's simulators), and a run's speed hinged on which large temporary it
# happened to free first. Set both at glibc's ceiling from the start; a C
# library without `mallopt` keeps its own policy.
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (OSError, TypeError, AttributeError):
    pass
else:
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
