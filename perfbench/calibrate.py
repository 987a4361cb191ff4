"""Machine-speed calibration for measured times.

On a shared two-vCPU virtual machine the same slag3 call takes anywhere
from 13 to 23 ms as the load of other tenants on the host comes and goes,
in phases of a few seconds; no process of the benchmark shows this as steal
time.  A fixed calibration kernel slows down with it: over 2 s windows the
spread of the library's time was 12% and that of its ratio to the kernel's
time 4.5%.
So the benchmark times the kernel close to what it measures and rescales
that wall time by REFERENCE_S over the kernel's time.  A reported time is
the wall time at the kernel's reference speed.  How close, and over how
many kernel runs, is up to the caller: workloads.run takes the median of
the kernel runs around each call, and run.py the median of SETUP_RUNS
before and SETUP_RUNS after the bulk of set-up.

The kernel uses numpy on small arrays and short Python loops, the mix the
library spends its time in, and does not import slag3.
"""

from __future__ import annotations

import time

import numpy as np

# median kernel time on the machine the bounds were set on (2 vCPU, x86-64,
# numpy 2.4, one BLAS thread), in a phase without neighbour load
REFERENCE_S = 0.66e-3
SETUP_RUNS = 8  # kernel runs on each side of set-up

_RNG = np.random.default_rng(0)
_T = _RNG.normal(size=(3, 3, 3))
_W = _RNG.normal(size=(64, 3))


def _kernel():
    acc = 0.0
    for _ in range(50):
        g = np.einsum("pjk,nj,nk->np", _T, _W, _W)
        acc += float(g[0, 0]) + sum(j * j for j in range(40))
    return acc


def kernel_s():
    """Wall time of one kernel run."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def setup_runs():
    """Wall times of SETUP_RUNS kernel runs, made now."""
    return [kernel_s() for _ in range(SETUP_RUNS)]
