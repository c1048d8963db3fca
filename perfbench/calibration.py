"""Fixed reference kernels that measure how fast the core is right now.

On a shared machine the same work can take up to twice as long when a
neighbour is busy on the same physical core, and that state lasts for
seconds. The benchmark samples a kernel (measure) just before and just
after each measured solver call, and about once a second within a long
one, and scales the call's times by nominal / mean sample time, so that
a run made in the slow state reads about what it would have read in the
fast one. Neither kernel uses composolve, so no change to the program
can move them.

A slow state slows different work by different amounts, so each workload
names the kernel whose work is most like its own (KERNELS):

- "mixed": a Python loop of small numpy operations, then streaming
  writes and reads of dense arrays. For the workloads whose time goes to
  per-iteration dispatch on small arrays.
- "dense": fills of freshly allocated (5, 800, 400) arrays, the shape of
  the policy evaluation Jacobian estimate. For the workload whose time
  goes to building dense Jacobians. Over four minutes of alternating
  samples, 13-s blocks of policy evaluation iterations spread by 0.25
  (interquartile range over median), and by 0.05 once scaled by this
  kernel's mean sample in the block (so did the mixed kernel there). Five 30-s runs of that workload
  scaled by an earlier, single-pass form of the mixed kernel spread by
  0.12-0.18.
"""

import functools
import time

import numpy as np

# Kernel times (measure(), fastest of three passes) in a fast state of the
# machine the bounds were set on, rounded from the 5th percentile of four
# minutes of samples: 10.6 ms and 13.2 ms (2-vCPU x86_64 Xeon VM at 2.0 GHz,
# Python 3.11, numpy 2.4, OpenBLAS with 1 thread). Scaled times read as
# seconds on such a core.
NOMINAL_S = 0.011
NOMINAL_DENSE_S = 0.013
PASSES = 3

_rng = np.random.default_rng(0)
_A = _rng.random((200, 50))
_X0 = _rng.random(50)
_IDX = _rng.integers(0, 200, size=(400, 5))
_BIG = _rng.random((400, 100))


def kernel_s():
    """Seconds taken by one pass of the mixed kernel."""
    t0 = time.perf_counter()
    x = _X0.copy()
    for idx in _IDX:
        rows = _A[idx]
        step = x - 1e-3 * (rows.T @ (rows @ x - 1.0))
        x = np.sign(step) * np.maximum(np.abs(step) - 1e-4, 0.0)
    for _ in range(12):
        z = np.zeros((5, 800, 100))
        z[:, :400, :] = _BIG
        x[0] += z.sum() * 1e-12
    return time.perf_counter() - t0


def measure(kernel):
    """The kernel's time now: the fastest of PASSES back-to-back passes.

    The first pass after other work often finds a cold cache or has to
    map fresh pages. Neighbouring samples of the mixed kernel differed by
    21% (median) with one pass, 10% with the median of three passes, and
    8% with the fastest of three.
    """
    return min(kernel() for _ in range(PASSES))


@functools.cache
def _dense_source():
    """Made on first use, so that it adds nothing to the peak RSS of the other workloads."""
    return np.random.default_rng(1).random((800, 400))


def dense_kernel_s():
    """Seconds taken by one pass of the dense kernel.

    Like the Jacobian estimate, it allocates a fresh array per fill, so it
    also pays for the allocator.
    """
    source = _dense_source()
    t0 = time.perf_counter()
    for _ in range(4):
        z = np.empty((5, 800, 400))
        z[...] = source
        z *= 0.5
    return time.perf_counter() - t0


KERNELS = {"mixed": (kernel_s, NOMINAL_S), "dense": (dense_kernel_s, NOMINAL_DENSE_S)}
