"""Deterministic 3D line hypothesis generation and representative selection.

Event voxels live in a (u, v, t_norm) space where the window's time span is
stretched to ``max(width, height)`` pixels, so distances and angles mix the
spatial and temporal axes on a common scale. Hypotheses are segments from a
voxel in the first time slice to a voxel in the last time slice; nearly
parallel hypotheses are reduced to one representative each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .grouping import EventWindow
from .io import SensorGeometry

DEFAULT_NUM_SLICES = 10
DEFAULT_MAX_PAIRS = 4096
DEFAULT_PARALLEL_TOL = 1e-3


class HypothesisError(ValueError):
    pass


def time_scale(geometry: SensorGeometry) -> float:
    """Length of the normalized time axis, in pixels."""
    return float(max(geometry.width, geometry.height))


def window_voxels(window: EventWindow) -> np.ndarray:
    """Events of a window as (n, 3) voxels with the normalized time axis."""
    s_t = time_scale(window.geometry)
    tn = (window.t - window.t_start) / window.span * s_t
    return np.column_stack([
        window.u.astype(np.float64),
        window.v.astype(np.float64),
        tn,
    ])


@dataclass(frozen=True)
class LineHypothesis:
    """A candidate event trajectory: the segment between two voxels."""

    start: np.ndarray
    end: np.ndarray

    def __post_init__(self) -> None:
        start = np.asarray(self.start, dtype=np.float64)
        end = np.asarray(self.end, dtype=np.float64)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        if not (np.all(np.isfinite(start)) and np.all(np.isfinite(end))):
            raise ValueError("non-finite voxel")
        if not end[2] > start[2]:
            raise ValueError("hypothesis must advance in time")

    @property
    def direction(self) -> np.ndarray:
        return self.end - self.start


class LineSet:
    """A batch of hypotheses held as (n, 3) endpoint arrays."""

    __slots__ = ("starts", "ends")

    def __init__(self, starts: np.ndarray, ends: np.ndarray):
        self.starts = np.asarray(starts, dtype=np.float64).reshape(-1, 3)
        self.ends = np.asarray(ends, dtype=np.float64).reshape(-1, 3)
        if self.starts.shape != self.ends.shape:
            raise ValueError("mismatched endpoint arrays")

    def __len__(self) -> int:
        return self.starts.shape[0]

    def __getitem__(self, i: int) -> LineHypothesis:
        return LineHypothesis(self.starts[i], self.ends[i])

    def directions(self) -> np.ndarray:
        return self.ends - self.starts

    def unit_directions(self) -> np.ndarray:
        d = self.directions()
        return d / np.linalg.norm(d, axis=1, keepdims=True)

    def take(self, idx: np.ndarray) -> "LineSet":
        return LineSet(self.starts[idx], self.ends[idx])


@dataclass(frozen=True)
class HypothesisSet:
    """All generated hypotheses plus their non-parallel representatives.

    ``families`` is an (R, H) boolean array: row ``k`` marks every hypothesis
    in ``all`` within the parallel tolerance of representative
    ``rep_indices[k]``. Families may overlap.
    """

    all: LineSet
    rep_indices: np.ndarray
    families: np.ndarray

    @property
    def representatives(self) -> LineSet:
        return self.all.take(self.rep_indices)


def slice_window(window: EventWindow, num_slices: int = DEFAULT_NUM_SLICES) -> List[np.ndarray]:
    """Partition the window span into equal-duration bins of event indices.

    Timestamps exactly on a bin boundary go to the earlier bin; bins may be
    empty.
    """
    if num_slices < 2:
        raise ValueError("num_slices must be >= 2")
    if len(window) < 2:
        raise HypothesisError("window must hold at least 2 events")
    dt = window.span / num_slices
    idx = np.ceil((window.t - window.t_start) / dt).astype(int) - 1
    idx = np.clip(idx, 0, num_slices - 1)
    return [np.flatnonzero(idx == k) for k in range(num_slices)]


def generate(
    window: EventWindow,
    num_slices: int = DEFAULT_NUM_SLICES,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> LineSet:
    """Generate hypotheses from the first-slice x last-slice voxel cross product.

    Falls back to the first and last non-empty slices under sparse data. When
    the cross product exceeds ``max_pairs``, both slices are strided with a
    fixed step so the result stays deterministic. Pairs that do not advance in
    time are skipped.
    """
    slices = slice_window(window, num_slices)
    nonempty = [s for s in slices if s.size]
    if len(nonempty) < 2:
        raise HypothesisError("all events fall into a single time slice")
    first, last = nonempty[0], nonempty[-1]
    if first.size * last.size > max_pairs:
        stride = math.ceil(math.sqrt(first.size * last.size / max_pairs))
        while math.ceil(first.size / stride) * math.ceil(last.size / stride) > max_pairs:
            stride += 1
        first = first[::stride]
        last = last[::stride]
    vox = window_voxels(window)
    starts = np.repeat(vox[first], last.size, axis=0)
    ends = np.tile(vox[last], (first.size, 1))
    keep = ends[:, 2] > starts[:, 2]
    starts, ends = starts[keep], ends[keep]
    if starts.shape[0] == 0:
        raise HypothesisError("no valid endpoint pairs (degenerate time span)")
    return LineSet(starts, ends)


def select_representatives(
    hyps: LineSet,
    parallel_tol: float = DEFAULT_PARALLEL_TOL,
) -> HypothesisSet:
    """Greedily cluster near-parallel hypotheses and pick one representative each.

    Hypotheses within ``parallel_tol`` cosine distance (1 - cos of the angle
    between their directions) are parallel. The unassigned hypothesis with the
    most parallel neighbors (ties: lowest index) becomes a representative and
    absorbs its unassigned neighbors; repeat until every hypothesis is
    absorbed. Representatives end up mutually non-parallel. Each
    representative's family is all of its parallel neighbors, absorbed
    earlier or not.
    """
    n = len(hyps)
    if n == 0:
        raise HypothesisError("no hypotheses to cluster")
    units = hyps.unit_directions()
    # chunked pairwise adjacency to bound memory on large hypothesis sets
    adj = np.empty((n, n), dtype=bool)
    chunk = max(1, 2_000_000 // max(n, 1))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        adj[lo:hi] = (1.0 - units[lo:hi] @ units.T) <= parallel_tol
    counts = adj.sum(axis=1)

    unassigned = np.ones(n, dtype=bool)
    rep_indices: List[int] = []
    while unassigned.any():
        r = int(np.argmax(np.where(unassigned, counts, -1)))
        rep_indices.append(r)
        unassigned[adj[r]] = False
        unassigned[r] = False  # adj[r, r] may round to False
    reps = np.asarray(rep_indices, dtype=np.int64)
    return HypothesisSet(hyps, reps, adj[reps])
