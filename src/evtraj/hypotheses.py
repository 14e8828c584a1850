"""Deterministic 3D line hypothesis generation and representative selection.

Event voxels live in a (u, v, t_norm) space where the window's time span is
stretched to ``max(width, height)`` pixels, so distances and angles mix the
spatial and temporal axes on a common scale. Hypotheses are segments from a
voxel in the first time slice to a voxel in the last time slice; nearly
parallel hypotheses are reduced to one representative each.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .config import RunConfig
from .grouping import EventWindow
from .io import SensorGeometry
from .scratch import Scratch


class HypothesisError(ValueError):
    pass


# each thread's Gram blocks: a block of whole windows of up to _ROW_BITS hypotheses,
# or a row block of a larger window's. A product this small runs on the calling
# thread, where a larger one wakes OpenBLAS's helper threads. Its two factors lie
# in separate buffers: on one buffer and its transpose numpy calls syrk, which is
# two to eight times slower than gemm on these shapes
_GRAM = Scratch(64_000)
# Windows of up to _ROW_BITS hypotheses keep each hypothesis's neighbors as the
# bits of one uint64.
_ROW_BITS = 64
_BIT = np.left_shift(np.uint64(1), np.arange(_ROW_BITS, dtype=np.uint64))
# Any two orders of operations (with or without fused multiply-adds) round the
# dot product of two unit 3-vectors to values less than 8 * 2**-53 apart, so a
# Gram value at least _GRAM_SLACK from the cut is on the same side in every order.
_GRAM_SLACK = 2.0 ** -48


def time_scale(geometry: SensorGeometry) -> float:
    """Length of the normalized time axis, in pixels."""
    return float(max(geometry.width, geometry.height))


def event_voxels(t, u, v, t_start, span, s_t) -> np.ndarray:
    """Events as (n, 3) voxels: ``(t - t_start) / span`` stretched to ``s_t`` pixels.

    ``t_start``, ``span`` and ``s_t`` are one value for all events or one per
    event; the arithmetic is elementwise, so the bits do not depend on which.
    """
    tn = (t - t_start) / span * s_t
    return np.column_stack([u.astype(np.float64), v.astype(np.float64), tn])


def window_voxels(window: EventWindow) -> np.ndarray:
    """Events of a window as (n, 3) voxels with the normalized time axis."""
    return event_voxels(window.t, window.u, window.v, window.t_start, window.span,
                        time_scale(window.geometry))


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

    def directions(self) -> np.ndarray:
        return self.ends - self.starts

    def take(self, idx: np.ndarray) -> "LineSet":
        return LineSet(self.starts[idx], self.ends[idx])


@dataclass(frozen=True)
class HypothesisSet:
    """The hypotheses of a run of windows, with their representatives and families, in flat arrays.

    Window ``w``'s H hypotheses are rows ``hyp0[w]`` to ``hyp0[w + 1] - 1``
    of ``starts`` and ``ends``. Its R representatives are the rows
    ``rows[rep0[w]:rep0[w] + rep_count[w]]`` of them, in pick order. Its
    family block is (R, H): row ``k`` marks every hypothesis of the window
    within the parallel tolerance of its representative ``k``, and is the H
    flags from ``flag0[w] + k * flag_step[w]`` of ``flags``. Families may
    overlap. Windows keep their representatives and blocks in no particular
    order in ``rows`` and ``flags``, which may hold entries that no window
    points to.
    """

    starts: np.ndarray
    ends: np.ndarray
    hyp0: np.ndarray
    rows: np.ndarray
    rep0: np.ndarray
    rep_count: np.ndarray
    flags: np.ndarray
    flag0: np.ndarray
    flag_step: np.ndarray

    @property
    def rep_indices(self) -> np.ndarray:
        """Every window's representatives, window after window, each counted within its window."""
        count = self.rep_count
        offset = np.repeat(self.rep0 - (np.cumsum(count) - count), count)
        return self.rows[np.arange(count.sum()) + offset] - np.repeat(self.hyp0[:-1], count)


def _slice_positions(window: EventWindow, num_slices: int) -> np.ndarray:
    """Each event's time in slice widths, ``(t - t_start) / (span / num_slices)``.

    Slice ``k`` ends at the last event at most ``k + 1``: window events are in
    time order, so each slice is a contiguous range, and a timestamp exactly
    on a slice boundary goes to the earlier slice.
    """
    if num_slices < 2:
        raise ValueError("num_slices must be >= 2")
    if len(window) < 2:
        raise HypothesisError("window must hold at least 2 events")
    return (window.t - window.t_start) / (window.span / num_slices)


def slice_window(window: EventWindow, num_slices: int = RunConfig.num_slices) -> List[np.ndarray]:
    """Partition the window span into equal-duration bins of event indices.

    Timestamps exactly on a bin boundary go to the earlier bin; bins may be
    empty.
    """
    x = _slice_positions(window, num_slices)
    bounds = np.searchsorted(x, np.arange(num_slices + 1), side="right")
    bounds[0], bounds[-1] = 0, x.size
    bounds = bounds.tolist()
    return [np.arange(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def generate(
    window: EventWindow,
    voxels: np.ndarray,
    num_slices: int = RunConfig.num_slices,
    max_pairs: int = RunConfig.max_pairs,
) -> LineSet:
    """Generate hypotheses from the first-slice x last-slice voxel cross product.

    ``voxels`` is the window's :func:`window_voxels`. Falls back to the first
    and last non-empty slices under sparse data. When the cross product
    exceeds ``max_pairs``, both slices are strided with a fixed step so the
    result stays deterministic. Pairs that do not advance in time are skipped.
    """
    if max_pairs < 1:
        raise ValueError("max_pairs must be >= 1")
    x = _slice_positions(window, num_slices)
    n = x.size
    # Bound k is the count of events with x <= k. The first non-empty slice
    # starts at event 0 and ends at bound hi, the first inner bound (1 ..
    # num_slices - 1) past event 0; with none, it is the last slice and ends
    # at n. The last non-empty slice ends at n and starts at bound lo, the
    # last inner bound before n: one exists once the first slice ends before n.
    hi, lo = max(1, math.ceil(x[0])), min(num_slices - 1, math.ceil(x[-1]) - 1)
    stop, start = x.searchsorted((hi, lo), side="right").tolist()
    if hi >= num_slices or stop == n:
        raise HypothesisError("all events fall into a single time slice")
    first, last = range(0, stop), range(start, n)
    if len(first) * len(last) > max_pairs:
        stride = math.ceil(math.sqrt(len(first) * len(last) / max_pairs))
        while math.ceil(len(first) / stride) * math.ceil(len(last) / stride) > max_pairs:
            stride += 1
        first = first[::stride]
        last = last[::stride]
    first_vox = voxels[first.start:first.stop:first.step]
    last_vox = voxels[last.start:last.stop:last.step]
    # (first, last) pairs in first-major order, kept where time advances
    i, j = (first_vox[:, 2, None] < last_vox[:, 2]).nonzero()
    if i.size == 0:
        raise HypothesisError("no valid endpoint pairs (degenerate time span)")
    return LineSet(first_vox.take(i, axis=0), last_vox.take(j, axis=0))


_INF_KEY = 0x7FF0000000000000  # the bits of +inf, the largest key of a non-NaN double


def _double(key: int) -> float:
    """The double at ``key`` in the order of doubles: ``key`` is its bits, negated below 0."""
    return math.copysign(float(np.int64(abs(key)).view(np.float64)), key)


@functools.lru_cache(maxsize=64)
def parallel_cut(parallel_tol: float) -> float:
    """The least double ``cut`` with ``1.0 - cut <= parallel_tol``.

    ``1.0 - g`` rounds monotonically in ``g``, so for every double ``g`` the
    test ``g >= cut`` agrees with ``1.0 - g <= parallel_tol``. Found by
    bisection over the doubles in their order, at most 64 steps for any
    tolerance; a NaN tolerance, which no ``g`` meets, gives NaN.
    """
    def parallel(key):
        return 1.0 - _double(key) <= parallel_tol

    lo, hi = -_INF_KEY, _INF_KEY
    if parallel(lo):
        return -math.inf
    if not parallel(hi):
        return math.nan
    while hi - lo > 1:  # parallel(hi) and not parallel(lo)
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if parallel(mid) else (mid, hi)
    return _double(hi)


def select_representatives(
    hyps: Sequence[LineSet],
    parallel_tol: float = RunConfig.parallel_tol,
) -> HypothesisSet:
    """Greedily cluster each window's near-parallel hypotheses and pick representatives.

    ``hyps[w]`` holds window ``w``'s hypotheses, and each window is clustered
    on its own. Hypotheses within ``parallel_tol`` cosine distance (1 - cos of
    the angle between their directions) are parallel. The unassigned
    hypothesis with the most parallel neighbors (ties: lowest index) becomes
    a representative and absorbs its unassigned neighbors; repeat until every
    hypothesis is absorbed. Representatives end up mutually non-parallel.
    Each representative's family is all of its parallel neighbors, absorbed
    earlier or not. Every window's hypotheses, representatives and families
    come back in one call-wide :class:`HypothesisSet`. A zero-length or
    non-finite direction raises :class:`HypothesisError`.

    Each Gram value is compared once with ``parallel_cut(parallel_tol)``,
    which agrees with ``1 - gram <= parallel_tol`` on every value. Neighbor
    counts never change, so the next representative is always the first
    unassigned hypothesis in one stable sort by descending count. The unit
    directions are computed once for all windows. The windows of up to 64
    hypotheses are clustered together by :func:`_cluster_rows`; each larger
    window on its own, from its (H, H) adjacency, by :func:`_cluster_blocked`.
    Both keep a window's result only if no off-diagonal Gram value lies
    within ``_GRAM_SLACK`` of the cut, and hand the window to
    :func:`_cluster_dense`, the reference, otherwise.
    """
    sizes = np.array([len(h) for h in hyps], dtype=np.int64)
    if not sizes.size or not sizes.min():
        raise HypothesisError("no hypotheses to cluster")
    hyp0 = np.concatenate([[0], np.cumsum(sizes)])
    starts = np.concatenate([h.starts for h in hyps])
    ends = np.concatenate([h.ends for h in hyps])
    d = ends - starts
    norms = np.linalg.norm(d, axis=1, keepdims=True)
    bad = np.flatnonzero(~((norms > 0) & (norms < np.inf)))  # NaN fails both
    if bad.size:
        w = int(np.searchsorted(hyp0, bad[0], side="right")) - 1
        raise HypothesisError(f"hypothesis {int(bad[0] - hyp0[w])} of window {w} "
                              "has a zero-length or non-finite direction")
    all_units = d / norms
    cut = parallel_cut(parallel_tol)
    rep0, rep_count, flag0 = (np.zeros(sizes.size, dtype=np.int64) for _ in range(3))
    flag_step = sizes.copy()
    rows, flags = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=bool)]
    small = np.flatnonzero(sizes <= _ROW_BITS)
    alone = np.flatnonzero(sizes > _ROW_BITS).tolist()
    if small.size:
        row, flag, tied = _cluster_rows(all_units, hyp0, sizes, small, cut, rep0, rep_count)
        rows, flags, alone = [row], [flag], alone + tied
        flag0[small], flag_step[small] = rep0[small] * _ROW_BITS, _ROW_BITS
    if alone:
        size = max(_GRAM.capacity, int(sizes.max()))  # once per call: a take costs ~1.6 µs
        gram, near = _GRAM.take("gram", size), _GRAM.take("near", size, bool)
        n_rows, n_flags = rows[0].size, flags[0].size
        for w in alone:
            units = all_units[hyp0[w]:hyp0[w + 1]]
            rep, block = _cluster_blocked(units, cut, gram, near) or _cluster_dense(units, cut)
            rep0[w], rep_count[w], flag0[w], flag_step[w] = n_rows, rep.size, n_flags, sizes[w]
            rows.append(rep + hyp0[w])
            flags.append(block.reshape(-1))
            n_rows, n_flags = n_rows + rep.size, n_flags + block.size
        rows, flags = [np.concatenate(rows)], [np.concatenate(flags)]
    return HypothesisSet(starts, ends, hyp0, rows[0], rep0, rep_count, flags[0], flag0,
                         flag_step)


def _cluster_dense(units: np.ndarray, cut: float):
    """One window's representatives and (R, H) families from its unit directions.

    The reference path: the (H, H) adjacency comes from one BLAS product per
    row chunk of up to 2,000,000 values.
    """
    n = len(units)
    # chunked pairwise adjacency to bound memory on large hypothesis sets
    adj = np.empty((n, n), dtype=bool)
    chunk = max(1, 2_000_000 // n)
    for lo in range(0, n, chunk):
        np.greater_equal(units[lo:lo + chunk] @ units.T, cut, out=adj[lo:lo + chunk])
    adj.reshape(-1)[::n + 1] = True  # a rounded self-product may miss a tiny tolerance
    return _pick(adj, adj.view(np.uint8).sum(axis=1, dtype=np.int32))


def _cluster_blocked(units: np.ndarray, cut: float, gram: np.ndarray, near: np.ndarray):
    """:func:`_cluster_dense`'s result for one window, or None.

    The Gram is computed in row blocks that fit the flat buffers ``gram`` and
    ``near`` (at least H values each), products small enough to run on the
    calling thread alone. A block's product may round a value otherwise than
    the reference's, by less than ``_GRAM_SLACK``; so the result stands only
    if no off-diagonal value lies that close to the cut, and None sends the
    window to :func:`_cluster_dense`.
    """
    n = len(units)
    rows = gram.size // n
    right = units.T.copy()
    adj = np.empty((n, n), dtype=bool)
    counts = np.empty(n, dtype=np.int32)
    lo_cut, hi_cut = cut - _GRAM_SLACK, cut + _GRAM_SLACK
    for lo in range(0, n, rows):
        k = min(rows, n - lo)
        g = np.matmul(units[lo:lo + k], right, out=gram[:k * n].reshape(k, n))
        a = np.greater_equal(g, hi_cut, out=adj[lo:lo + k])
        m = np.greater_equal(g, lo_cut, out=near[:k * n].reshape(k, n))
        a.reshape(-1)[lo::n + 1] = m.reshape(-1)[lo::n + 1] = True  # as in _cluster_dense
        counts[lo:lo + k] = a.view(np.uint8).sum(axis=1, dtype=np.int32)
        if np.count_nonzero(m) != counts[lo:lo + k].sum():
            return None
    return _pick(adj, counts)


def _pick(adj: np.ndarray, counts: np.ndarray):
    """The greedy scan over an (H, H) adjacency and its row counts: representatives, families."""
    assigned = np.zeros(len(adj), dtype=bool)
    taken = memoryview(assigned)  # reads a Python bool, not a numpy scalar
    picked: List[int] = []
    for r in (-counts).argsort(kind="stable").tolist():
        if not taken[r]:
            picked.append(r)
            assigned |= adj[r]
    rep = np.array(picked, dtype=np.int64)
    return rep, adj[rep]


def _cluster_rows(all_units: np.ndarray, hyp0: np.ndarray, sizes: np.ndarray,
                  windows: np.ndarray, cut: float, rep0: np.ndarray, rep_count: np.ndarray):
    """Cluster ``windows``, each of at most 64 hypotheses, all together.

    Returns their representatives as rows of ``all_units``, the flags of
    their family rows, 64 per row from ``64 * rep0[w]`` on, and the windows
    to be clustered on their own instead; fills in their entries
    of ``rep0`` and ``rep_count`` (:class:`HypothesisSet`). Windows are laid
    out largest first, each in slots for its hypotheses padded with zero
    directions to a multiple of 8; :func:`_neighbor_rows` gives each
    slot its neighbor count and its neighbors as the bits of one ``uint64``.
    The greedy scan then takes step ``k`` of every window with over ``k``
    hypotheses at once: those windows are a prefix of the layout, and a
    step is four array operations on their assigned bits.
    """
    windows = windows[np.argsort(-sizes[windows], kind="stable")]
    n = sizes[windows]
    width = -(-n // 8) * 8
    first = np.cumsum(width) - width  # each window's first slot
    win = np.repeat(np.arange(n.size), width)  # each slot's window
    local = np.arange(win.size) - first[win]  # and its index there
    real = local < n[win]
    units = np.zeros((3, win.size))
    units[:, real] = all_units.T[:, np.flatnonzero(real) + np.repeat(hyp0[windows] - first, n)]
    counts, rows, tied = _neighbor_rows(units, real, width, first, cut)
    # each window's hypotheses by descending count, ties by index; a padding
    # slot counts only itself, so it sorts after them
    order = np.argsort(win * (_ROW_BITS + 1) - counts, kind="stable")
    steps = np.searchsorted(-n, -np.arange(n[0]), side="left")  # windows with over k hypotheses
    step0 = np.cumsum(steps) - steps
    stepwise = (first[np.arange(n.sum()) - np.repeat(step0, steps)]
                + np.repeat(np.arange(n[0]), steps))  # step k's slot in each window's order
    candidate = order[stepwise]
    own, neighbors = _BIT[local[candidate]], rows.view("<u8")[candidate, 0]
    assigned = np.zeros(n.size, dtype=np.uint64)
    taken = np.empty(n.size, dtype=np.uint64)
    free = np.empty(candidate.size, dtype=bool)
    for s, m in zip(step0.tolist(), steps.tolist()):
        done, f, t = assigned[:m], free[s:s + m], taken[:m]
        np.bitwise_and(done, own[s:s + m], t)
        np.equal(t, 0, f)
        np.bitwise_or(done, np.multiply(neighbors[s:s + m], f, t), done)
    picked = np.zeros(win.size, dtype=bool)
    picked[stepwise] = free
    chosen = order[np.flatnonzero(picked)]  # window after window, in pick order
    owner = win[chosen]
    count = np.bincount(owner, minlength=n.size)
    rep0[windows] = np.cumsum(count) - count
    rep_count[windows] = count
    flags = np.unpackbits(rows[chosen], axis=1, bitorder="little").view(bool).reshape(-1)
    return local[chosen] + hyp0[windows][owner], flags, windows[tied].tolist()


def _neighbor_rows(units: np.ndarray, real: np.ndarray, width: np.ndarray, first: np.ndarray,
                   cut: float):
    """Each slot's neighbor count and (slots, 8) little-endian neighbor bits.

    ``units`` holds the (3, slots) unit directions of windows laid out as in
    :func:`_cluster_rows`, ``real`` marks the slots that hold a hypothesis,
    and window ``w`` has ``width[w]`` slots from ``first[w]``. Windows of
    one width are computed together as dense (windows, width, width) blocks
    that fit ``_GRAM``, each block's Gram by one stacked ``np.matmul``. That
    product may round a value otherwise than :func:`_cluster_dense`'s, by
    less than ``_GRAM_SLACK``; so a window with an off-diagonal value that
    close to the cut is also returned, by position, to be clustered on its
    own, so that every window gets the adjacency of that path.
    """
    counts = np.empty(real.size, dtype=np.uint8)
    rows = np.zeros((real.size, 8), dtype=np.uint8)
    left = units.T.copy()
    lo_cut, hi_cut = cut - _GRAM_SLACK, cut + _GRAM_SLACK
    tied: List[int] = []
    group0 = np.flatnonzero(np.diff(width, prepend=0)).tolist()  # each width's first window
    for a, b in zip(group0, group0[1:] + [width.size]):
        size = int(width[a])
        per = _GRAM.capacity // size ** 2
        for c in range(a, b, per):
            k = min(per, b - c)
            h0, h1 = int(first[c]), int(first[c]) + k * size
            shape = (k, size, size)
            gram = np.matmul(left[h0:h1].reshape(k, size, 3),
                             units[:, h0:h1].reshape(3, k, size).transpose(1, 0, 2),
                             out=_GRAM.take("gram", shape))
            hyp = real[h0:h1]
            adj = np.greater_equal(gram, hi_cut, out=_GRAM.take("adj", shape, bool))
            near = np.greater_equal(gram, lo_cut, out=_GRAM.take("near", shape, bool))
            for m in (adj, near):
                np.logical_and(m, hyp.reshape(k, 1, size), out=m)  # padding is nobody's
                np.logical_and(m, hyp.reshape(k, size, 1), out=m)  # neighbor
                m.reshape(k, -1)[:, ::size + 1] = True  # as in _cluster_dense
            if np.count_nonzero(near) != np.count_nonzero(adj):
                close = np.not_equal(near, adj, out=near).reshape(k, -1).any(axis=1)
                tied += (c + np.flatnonzero(close)).tolist()
            counts[h0:h1] = adj.view(np.uint8).sum(axis=2, dtype=np.uint8).reshape(-1)
            rows[h0:h1, :size // 8] = np.packbits(adj, axis=2, bitorder="little").reshape(
                h1 - h0, -1)
    return counts, rows, tied
