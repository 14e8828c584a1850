"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark box is shared: its speed drifts by 20-40% over tens of seconds
as other tenants load it, which swamps any change to evtraj. Each timed call
is therefore followed by this kernel, and a cycle's wall time is rescaled by
``NOMINAL_S`` over the mean kernel time around its calls. The kernel does in
small what evtraj's stages do, small numpy operations inside interpreted
Python loops, on arrays it allocates once at import; it uses no evtraj code,
so a change to the program cannot change it.
"""
from __future__ import annotations

import time

import numpy as np

# the kernel's median time on the machine the baseline was measured on
# (2-core Intel Xeon, Python 3.11.7, numpy 2.4.6)
NOMINAL_S = 0.05

_POINTS = np.random.default_rng(0).random((64, 3))


def kernel() -> float:
    acc = 0.0
    for i in range(800):
        d = _POINTS[i % 64] - _POINTS
        c = np.cross(d, _POINTS[(i * 7) % 64])
        acc += float(np.linalg.norm(c, axis=1).min())
        s = 0
        for j in range(150):
            s += j * j
        acc += s * 1e-12
    return acc


def measure() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
