"""Per-thread scratch memory for the fit's chunk-sized temporaries.

A residual chunk of the fit needs about a dozen arrays of one value per
(event, representative) pair at once. Allocated afresh, each comes from
glibc's brk heap (it is under the 128 KiB mmap threshold), and freeing them
at the end of the chunk lets malloc trim the heap top, so the next chunk
faults the same pages back in. A :class:`Scratch` instead keeps one buffer
per temporary and per thread, and every chunk writes into the same pages
with ``out=``.
"""
from __future__ import annotations

import math
import threading

import numpy as np


class Scratch(threading.local):
    """One thread's buffers of ``capacity`` values each, one per name and dtype.

    :meth:`take` hands out the head of a buffer; callers keep a name for each
    temporary that is alive at the same time as another, and copy out
    whatever they return.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._buffers: dict = {}

    def take(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """An uninitialised C-contiguous array of ``shape``.

        Within ``capacity`` values it is a view of this thread's buffer
        ``name`` of ``dtype`` and lives until the next ``take`` of that name
        and dtype; a larger request gets a new array of its own, so the
        memory kept stays ``capacity`` values per name and dtype.
        """
        size = math.prod(shape) if isinstance(shape, tuple) else shape
        if size > self.capacity:
            return np.empty(shape, dtype)
        buf = self._buffers.get((name, dtype))
        if buf is None:
            buf = self._buffers[name, dtype] = np.empty(self.capacity, dtype)
        return buf[:size].reshape(shape)

