"""Two-stage robust weighting, model-count selection, and event association.

Per window, voxel-to-line distances to the representative hypotheses, in
pixels of the (u, v, t_norm) space, are thresholded at the inlier radius
``config.tau`` to select inliers, and surviving hypotheses are weighted twice
-- first by temporal dispersion of their inliers, then by the contrast of the
event image warped along the hypothesis. The model count comes from the elbow
of the sorted weights, and every event is finally assigned to the instance
(via its parallel hypothesis family) with the smallest residual below the
same radius, or marked as noise.

:func:`fit_windows` fits the windows of one call together. Generation runs
per window and clustering once per run of consecutive windows. Each run is
one fit batch: its residuals and inlier selection go in chunks of at most
``_BATCH_PAIRS`` pairs, and both weighting stages, the model counts and the
association run once over all the run's survivors. Association settles most
(event, instance) pairs from the representative's inliers and a few family
lines, and most of the rest by an exact lower bound on the family's
residuals, before it scans whole families. Each of its passes computes the
smallest residual of each pair in dense (pairs x lines) blocks that gather
each instance's lines once, every residual with the bits of
:func:`residual_matrix`, so every result equals, bit for bit, a fit of its
window alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .config import RunConfig
from .grouping import EntropyInterval, EventWindow, cut_windows
from .hypotheses import (
    HypothesisError,
    HypothesisSet,
    LineSet,
    event_voxels,
    generate,
    select_representatives,
    time_scale,
)
from .io import NOISE_ID
from .scratch import Scratch


class FitError(RuntimeError):
    pass


@dataclass(frozen=True)
class WeightedModel:
    """A selected model instance: its representative's end voxels, its inliers and both weights."""

    start: np.ndarray
    end: np.ndarray
    rep_index: int  # position among the window's representatives
    inliers: np.ndarray
    w_stage1: float
    w_final: float

    @property
    def direction(self) -> np.ndarray:
        return self.end - self.start


@dataclass(frozen=True)
class AssociationResult:
    """Selected model instances plus the per-event trajectory assignment."""

    window: EventWindow
    instances: List[WeightedModel]
    assignment: np.ndarray

    @property
    def failed(self) -> bool:
        """A fit keeps at least one instance unless it failed."""
        return not self.instances

    @property
    def num_models(self) -> int:
        return len(self.instances)


def _cross_norms(px, py, pz, dx, dy, dz) -> np.ndarray:
    """``|p x d|`` from components, with the products and sums of ``np.cross``.

    The ``d`` components broadcast against the ``p`` ones. It works in place:
    ``px`` and ``pz`` are overwritten, and the result is the scratch buffer
    ``"cross"``.
    """
    cx, tmp = SCRATCH.take("cross", px.shape), SCRATCH.take("tmp", px.shape)
    np.subtract(np.multiply(py, dz, out=cx), np.multiply(pz, dy, out=tmp), out=cx)
    cy = np.subtract(np.multiply(pz, dx, out=pz), np.multiply(px, dz, out=tmp), out=pz)
    cz = np.subtract(np.multiply(px, dy, out=px), np.multiply(py, dx, out=tmp), out=px)
    np.add(np.multiply(cx, cx, out=cx), np.multiply(cy, cy, out=cy), out=cx)
    np.add(cx, np.multiply(cz, cz, out=cz), out=cx)
    return np.sqrt(cx, out=cx)


def _lengths(d: np.ndarray) -> np.ndarray:
    dx, dy, dz = d.T
    return np.sqrt((dx * dx + dy * dy) + dz * dz)


def point_line_distances(voxels: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                         out: np.ndarray = None) -> np.ndarray:
    """Perpendicular distances from (n, 3) voxels to the m infinite lines.

    ``|(p - s) x d| / |d|`` with ``d = e - s``, built one component at a time
    on (n, m) arrays with the products, differences and left-to-right sums of
    ``np.cross`` and ``np.linalg.norm``, so the bits match theirs. The result
    goes to ``out`` when given, else to a new array.
    """
    voxels = np.asarray(voxels, dtype=np.float64).reshape(-1, 3)
    starts = np.asarray(starts, dtype=np.float64).reshape(-1, 3)
    ends = np.asarray(ends, dtype=np.float64).reshape(-1, 3)
    d = ends - starts
    shape = (len(voxels), len(starts))
    p = [np.subtract(voxels[:, k:k + 1], starts[:, k], out=SCRATCH.take(f"p{k}", shape))
         for k in range(3)]
    return np.divide(_cross_norms(*p, *d.T), _lengths(d), out=out)


def residual_matrix(vox: np.ndarray, lines: LineSet, out: np.ndarray = None) -> np.ndarray:
    """Voxel-to-line residuals (events x lines): :func:`point_line_distances` to ``lines``."""
    return point_line_distances(vox, lines.starts, lines.ends, out=out)


def _line_table(lines: LineSet) -> np.ndarray:
    """(7, m) table of ``lines``: start components, direction components, direction lengths."""
    d = lines.directions()
    return np.vstack([lines.starts.T, d.T, _lengths(d)])


def _residuals(xyz, lines):
    """Point-to-line residuals with the bits of :func:`residual_matrix`.

    ``xyz`` holds the three point components, each broadcasting against the
    line fields: ``lines(k, name)`` gives row ``k`` of a :func:`_line_table`
    for every residual, in the scratch buffer ``name``. The result is the
    scratch buffer ``"cross"``.
    """
    p = []
    for k in range(3):
        start = lines(k, "tmp")
        p.append(np.subtract(xyz[k], start, out=SCRATCH.take(f"p{k}", start.shape)))
    raw = _cross_norms(*p, *(lines(3 + k, f"d{k}") for k in range(3)))
    return np.divide(raw, lines(6, "tmp"), out=raw)


def _gathered(table, line):
    """Line fields for :func:`_residuals`: each of the lines ``line`` of a :func:`_line_table`."""
    def lines(k, name):  # the indices are in range: "clip" takes unbuffered
        return table[k].take(line, out=SCRATCH.take(name, line.shape), mode="clip")
    return lines


def _block_lines(table, line, run):
    """Line fields for :func:`_residuals` of a block of pairs, gathered once per run.

    Row ``r`` of the (runs x W) ``line`` holds the lines of run ``r`` of the
    block's pairs, as columns of a :func:`_line_table`; ``run`` gives each
    pair's run. A field is gathered at ``line``, then each run's row is
    copied to its pairs, (pairs x W).
    """
    shape, rows = (run.size, line.shape[1]), SCRATCH.take("rows", line.shape)

    def lines(k, name):
        table[k].take(line, out=rows, mode="clip")
        return rows.take(run, axis=0, out=SCRATCH.take(name, shape), mode="clip")
    return lines


def _pair_residuals(vox, lines, first, sizes, counts):
    """Residuals of every (voxel, line) pair of a batch of windows.

    Window ``w`` holds the voxels ``vox[first[w]:first[w] + sizes[w]]`` and
    the next ``counts[w]`` lines of ``lines``. Its pairs come event-major, so
    its run of residuals reshaped to ``(sizes[w], counts[w])`` is its
    :func:`residual_matrix`, bit for bit. The pairs stay ragged: each
    gathers its voxel and its line by index (:func:`_residuals`). Returns
    the residuals and each pair's voxel and line, in the scratch buffers
    ``"cross"``, ``"voxel"`` and ``"line"``: they last until the thread's
    next residual computation.
    """
    per_event = np.repeat(counts, sizes)  # lines each event pairs with
    line0 = np.cumsum(counts) - counts  # each window's first line
    event0 = np.cumsum(sizes) - sizes  # each window's first event in the batch
    pair0 = np.cumsum(per_event) - per_event  # each event's first pair
    n = int(per_event.sum())
    # np.repeat has no out, so each index is one pair-sized temporary until
    # it lands in its buffer; building them in place as a cumsum over run
    # starts took twice as long
    voxel = SCRATCH.take("voxel", n, np.int64)
    voxel[:] = np.repeat(np.arange(sizes.sum()) + np.repeat(first - event0, sizes), per_event)
    # component k of voxel i is flat[3 * i + k]; a gather from the strided
    # column vox[:, k] would copy the whole column first. The indices borrow
    # the "line" buffer until the lines go there
    flat, at = vox.reshape(-1), np.multiply(voxel, 3, out=SCRATCH.take("line", n, np.int64))
    xyz = [np.take(flat[k:], at, out=SCRATCH.take(f"p{k}", n), mode="clip") for k in range(3)]
    index = _PAIR_INDEX[:n] if n <= _PAIR_INDEX.size else np.arange(n)
    line = np.subtract(index, np.repeat(pair0 - np.repeat(line0, sizes), per_event),
                       out=SCRATCH.take("line", n, np.int64))
    return _residuals(xyz, _gathered(_line_table(lines), line)), voxel, line


def select_inliers(
    values: np.ndarray,
    events: np.ndarray,
    columns: np.ndarray,
    tau: float,
    min_inliers: int = RunConfig.min_inliers,
) -> List[tuple[int, np.ndarray]]:
    """Inlier sets of the columns of flat (event, column) residuals.

    A pair is an inlier when its residual is below ``tau``. Returns
    ``(column, events)`` for every column with at least ``min_inliers``
    inliers, in column order, each column's events in pair order; the other
    columns are dropped.
    """
    mask = values < tau
    hit = columns[mask]
    per_column = np.bincount(hit)
    keep = np.flatnonzero(per_column >= min_inliers)
    kept = per_column[hit] >= min_inliers
    order = np.argsort(hit[kept], kind="stable")
    inliers = events[mask][kept][order]
    ends = np.cumsum(per_column[keep]).tolist()
    return [(j, inliers[lo:hi]) for j, lo, hi in zip(keep.tolist(), [0, *ends], ends)]


# numpy sums fewer values than this left to right, and longer runs pairwise
_SHORT = 8


def _segment_means(x: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Mean of each consecutive segment of ``sizes`` values of ``x``, bit for bit ``np.mean``'s.

    The values must be non-negative. numpy adds fewer than ``_SHORT`` values
    left to right, so the short segments are summed together, one row each of
    a zero-padded ``(S, _SHORT - 1)`` gather: adding zeros after non-negative
    values changes no bit. A longer segment is summed on its own, since
    numpy's pairwise summation depends on its length and ``np.add.reduceat``
    would round differently.
    """
    first = np.cumsum(sizes) - sizes
    short = sizes < _SHORT
    col = np.arange(_SHORT - 1)
    padded = x.take(first[short, None] + col, mode="clip")  # clip: past the end is padding
    padded[col >= sizes[short, None]] = 0.0
    sums = np.empty(sizes.size)
    sums[short] = padded.sum(axis=1)
    for k in np.flatnonzero(~short).tolist():
        sums[k] = x[first[k]:first[k] + sizes[k]].sum()
    return sums / sizes


def warp_and_contrast(
    voxels: np.ndarray,
    inliers: Sequence[np.ndarray],
    directions: np.ndarray,
) -> np.ndarray:
    """Contrast of each inlier set's image warped along its direction to the t=0 plane.

    ``inliers[k]`` (non-empty) translates along ``directions[k]``, lands on
    integer pixels, and accumulates into a count image cropped to its non-zero
    extent. Counts are normalized by their maximum so the variance (the
    contrast) stays in [0, 1]. All images share one flat count buffer, each at
    its own offset.
    """
    sizes = np.array([idx.size for idx in inliers])
    if not sizes.all():
        raise ValueError("every inlier set needs at least one voxel")
    first = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(sizes.size), sizes)
    pts = np.asarray(voxels, dtype=np.float64)[np.concatenate(inliers)]
    d = np.asarray(directions, dtype=np.float64)
    plane = pts[:, :2] - (d[:, :2] / d[:, 2:3])[owner] * pts[:, 2:3]
    ij = np.rint(plane).astype(np.int64)
    ij -= np.minimum.reduceat(ij, first)[owner]
    w, h = (np.maximum.reduceat(ij, first) + 1).T
    area = w * h
    end = np.cumsum(area)
    offset = end - area
    counts = np.bincount(offset[owner] + ij[:, 1] * w[owner] + ij[:, 0], minlength=end[-1])
    norm = counts / np.repeat(np.maximum.reduceat(counts, offset), area)
    dev = (norm - np.repeat(_segment_means(norm, area), area)) ** 2
    return _segment_means(dev, area)


def select_model_count(weights: Sequence[float], sizes: Sequence[int]) -> np.ndarray:
    """Elbow position in each group's ascending sorted weights; 1 where none exists.

    ``weights`` holds consecutive groups of ``sizes`` (each >= 1) values. A
    group's model count is the first k whose adjacent difference d_k strictly
    exceeds its up-to-four neighboring differences within the group (missing
    neighbors are skipped).
    """
    w = np.asarray(weights, dtype=np.float64).tolist()
    ends = np.cumsum(sizes).tolist()
    counts = []
    for lo, hi in zip([0, *ends], ends):
        ascending = sorted(w[lo:hi])
        d = [b - a for a, b in zip(ascending, ascending[1:])]
        count = 1
        for i, x in enumerate(d):
            neighbors = d[max(0, i - 2):i] + d[i + 1:i + 3]
            if neighbors and all(x > y for y in neighbors):
                count = i + 1
                break
        counts.append(count)
    return np.array(counts, dtype=np.int64)


def weigh_models(
    vox: np.ndarray,
    reps: LineSet,
    survivors: Sequence[tuple[int, np.ndarray]],
    s_t,
) -> tuple[np.ndarray, np.ndarray]:
    """Both weighting stages for every survivor at once: ``(w_stage1, w_final)``.

    Stage 1 is the mean squared deviation of a survivor's inlier timestamps
    from mid-window; ``s_t`` is the length of the normalized time axis
    (:func:`time_scale`), one value or one per survivor. Stage 2 scales it by
    one minus the contrast of the inliers warped along the survivor's
    representative.
    """
    cols = [j for j, _ in survivors]
    inliers = [idx for _, idx in survivors]
    sizes = np.array([idx.size for idx in inliers])
    mid = np.repeat(np.broadcast_to(np.divide(s_t, 2.0), len(survivors)), sizes)
    w1 = _segment_means((vox[np.concatenate(inliers), 2] - mid) ** 2, sizes)
    contrast = warp_and_contrast(vox, inliers, reps.directions()[cols])
    return w1, w1 * (1.0 - contrast)


def _nearest(vox, voxel, owner, table, first, step, count) -> np.ndarray:
    """Each pair's smallest residual to a run of lines, with the bits of :func:`residual_matrix`.

    Pair ``i`` takes the voxel ``vox[voxel[i]]`` and, with ``g = owner[i]``,
    the lines ``first[g] + step[g] * k``, ``k < count[g]`` (at least one), of
    a :func:`_line_table`. The pairs, stable-sorted by line count, go in
    dense (pairs x W) blocks of at most ``_BATCH_PAIRS`` residuals, or of one
    pair whose lines alone are more; a row shorter than its block repeats its
    last line, which leaves its minimum unchanged. A block gathers the lines
    once for each run of pairs of one owner (:func:`_block_lines`); with
    ``owner`` ascending, as association passes it, each owner's pairs of a
    block are one run.
    """
    order = np.argsort(count[owner], kind="stable")
    g = owner[order]  # line counts ascending
    new = np.empty(g.size, dtype=bool)  # the first pair of each run
    new[:1] = True
    np.not_equal(g[1:], g[:-1], out=new[1:])
    head = np.flatnonzero(new)
    runs = g[head, None]
    last, run_step, run_first = count[runs] - 1, step[runs], first[runs]
    nearest = np.empty(order.size)
    lo = 0
    while lo < order.size:
        # rows lo..reach-1 are at most count[g[reach - 1]] wide, so cap // that many fit the cap
        reach = min(lo + max(1, _BATCH_PAIRS // int(count[g[lo]])), order.size)
        hi = min(lo + max(1, _BATCH_PAIRS // int(count[g[reach - 1]])), order.size)
        run = np.cumsum(new[lo:hi], out=SCRATCH.take("run", hi - lo, np.int64))
        run -= run[0]  # each pair's run, counted from the block's first
        r0, width = int(head.searchsorted(lo, side="right")) - 1, int(count[g[hi - 1]])
        r1 = r0 + int(run[-1]) + 1
        line = np.minimum(np.arange(width), last[r0:r1],
                          out=SCRATCH.take("line", (r1 - r0, width), np.int64))
        np.add(np.multiply(line, run_step[r0:r1], out=line), run_first[r0:r1], out=line)
        xyz = vox.take(voxel[order[lo:hi]], axis=0).T[:, :, None]
        nearest[order[lo:hi]] = _residuals(xyz, _block_lines(table, line, run)).min(axis=1)
        lo = hi
    return nearest


def _owned(mask, first):
    """The indices of ``mask``'s true values, and the segment of each.

    Segment ``g`` starts at ``first[g]`` and is not empty. Counting each
    segment's hits takes no pair-sized array of segment ids.
    """
    return np.flatnonzero(mask), np.repeat(np.arange(first.size),
                                           np.add.reduceat(mask, first, dtype=np.int64))


# family lines that the second stage of association tries per (event, instance) pair
_PROBES = 8
# the family bound is trusted for magnitudes from 1 / _BIG to _BIG, where it rounds finely
_BIG = 2.0 ** 200
# how far the family bound must pass tau, as a share of tau plus the magnitudes
_BOUND_SLACK = 2.0 ** -40


def _far(vox, voxel, g, table, fam0, tau) -> np.ndarray:
    """Which pairs no line of their instance's family can reach within tau, as a mask.

    Pair ``i`` takes the voxel ``x = vox[voxel[i]]`` and the family of
    instance ``g[i]`` (ascending): the lines of a :func:`_line_table` from
    column ``fam0[g]`` up to the next family's. The pairs lie at times
    ``t_lo`` to ``t_hi``, the least and the greatest ``x_t``.

    A line through ``s`` along ``d`` with ``d_t > 0`` meets time t at the
    in-plane point ``c(t) = s_uv + (t - s_t) / d_t * d_uv``, linear in t. The
    smallest u (or v) of a family's points is a minimum of linear functions,
    so concave, and the largest a maximum, so convex: the box interpolated
    linearly between the family's (u, v) boxes at ``t_lo`` and ``t_hi``
    holds every ``c(t)`` between them. The offset from ``(c(x_t), x_t)`` to
    ``x`` is in-plane, at least the distance D from ``x`` to that box at
    ``x_t``, and the sine of its angle to ``d`` is at least
    ``cos = d_t / |d|``. So each residual of ``x`` to the family is at least
    ``b = cos_min * D``, with ``cos_min`` the family's smallest ``cos``. A
    pair is far when ``b`` exceeds ``tau + _BOUND_SLACK * (tau + S)``, S the
    largest magnitude of a start component or a pair's voxel component.

    Rounding. ``b`` is trusted only where ``tau >= 1 / _BIG``, ``S <=
    _BIG`` and every member has ``cos`` and ``|d|`` of at least ``1 /
    _BIG``; elsewhere it is 0. A finite ``|d|`` is below ``2 ** 512``, so
    underflow moves a computed residual or ``b`` by under ``2 ** -330``,
    against a margin of at least ``2 ** -240``, and a step that overflows
    leaves ``b`` infinite or NaN, or loosens the box: such a pair is never
    far. Every other operation rounds within ``u = 2 ** -53`` of its
    result. Scaled by ``cos_min``, which is at most each member's ``cos``,
    every value a box edge is computed from is at most 4S: ``|s_uv| <= S``,
    ``cos |c(t) - s_uv| <= |t - s_t| <= 2S``, and ``cos`` times an edge's
    rate per unit of t is at most 1. So the computed ``b`` is off by under
    64u S + 4u b. A residual's cross product rounds relative to
    ``|x - s| |d|``, with ``|x - s| <= 2 sqrt(3) S``, so a computed residual
    is off by under 16u S + 6u of itself. A computed residual below tau thus
    needs a computed ``b`` below ``tau (1 + 11u) + 81u S``, far inside the
    margin ``2 ** -40 = 8192u``.
    """
    xyz = vox.take(voxel, axis=0).T
    scale = max(np.abs(table[:3]).max(), np.abs(xyz).max(initial=0.0))
    if not (voxel.size and tau * _BIG >= 1.0 and scale <= _BIG):  # NaN fails too
        return np.zeros(voxel.size, dtype=bool)
    t_lo, t_hi = xyz[2].min(), xyz[2].max()
    with np.errstate(all="ignore"):
        # each line's u, v, -u, -v at t_lo, then at t_hi, and its cos, 0 where not
        # trusted: each family's least of these is its box and its cos_min
        rows = np.empty((9, table.shape[1]))
        ends = rows[:8].reshape(2, 4, -1)
        q = (np.array([[t_lo], [t_hi]]) - table[2]) / table[5]  # (t - s_t) / d_t
        np.add(table[:2], np.multiply(q[:, None], table[3:5], out=ends[:, :2]), out=ends[:, :2])
        np.negative(ends[:, :2], out=ends[:, 2:])
        cos = np.divide(table[5], table[6], out=rows[8])
        np.multiply(cos, np.minimum(cos, table[6]) * _BIG >= 1.0, out=cos)
        family = np.minimum.reduceat(rows, fam0, axis=1)
        # each instance's box edges (lower u, v, then negated upper u, v): their values at
        # t = 0 and their rates per unit of t, then its cos_min
        rate = ((family[4:8] - family[:4]) / (t_hi - t_lo) if t_hi > t_lo
                else np.zeros_like(family[:4]))
        per = np.vstack([family[:4] - t_lo * rate, rate, family[8]])
        per = per.repeat(np.bincount(g, minlength=fam0.size), axis=1)
        # each pair's gaps below the box's lower edges and above its upper ones
        gap = np.add(per[:4], np.multiply(per[4:8], xyz[2], out=per[4:8]), out=per[:4])
        np.subtract(gap[:2], xyz[:2], out=gap[:2])
        np.add(gap[2:], xyz[:2], out=gap[2:])
        gap = np.maximum(np.maximum(gap[:2], gap[2:], out=gap[:2]), 0.0, out=gap[:2])
        np.multiply(gap, gap, out=gap)
        bound = np.multiply(np.sqrt(np.add(gap[0], gap[1], out=gap[0]), out=gap[0]), per[8],
                            out=gap[0])
    return (bound > tau + _BOUND_SLACK * (tau + scale)) & (bound < np.inf)


def associate(
    vox: np.ndarray,
    first: Sequence[int],
    sizes: Sequence[int],
    hyps: HypothesisSet,
    windows: Sequence[int],
    instances: Sequence[Sequence[WeightedModel]],
    tau: float,
) -> List[np.ndarray]:
    """Per-event instance ids of each window of a batch: the instance whose family fits best.

    Window ``w`` of the batch holds the voxels
    ``vox[first[w]:first[w] + sizes[w]]``, the hypotheses and family block of
    window ``windows[w]`` of ``hyps`` and at least one instance
    ``instances[w]``; all windows share the inlier radius ``tau``. An
    instance's family is row ``instance.rep_index`` of its block, the
    hypotheses parallel to its representative. An event's residual to an instance is its smallest
    distance to a line of the family; the event goes to the instance with
    the smallest one (ties: the earlier instance), or to noise when that
    residual is not below tau. An instance's ``inliers`` must be events below
    tau of its family: the fit's are below tau of the representative, which
    belongs to its own family.

    Only the instances an event is below tau of, and among two or more of
    them the exact family minima, decide its id. An (event, instance) pair is
    below tau as soon as one residual to a family line is, so the pairs are
    settled in stages:

    1. the inliers of the instance's representative are below tau;
    2. one pass takes the open pairs to at most ``_PROBES`` lines of the
       family, at a stride of ``ceil(F / _PROBES)``; a pair with a residual
       below tau is settled, and so is one whose family it covered;
    3. a pair still open is settled as not below tau when its event lies
       beyond tau of a box that holds every line of the family at the
       event's time (:func:`_far`, exact with a margin for rounding); this
       runs only when the open pairs' families hold more lines than one
       block, since it costs about as much as a block;
    4. one pass takes the pairs still open to the whole family;
    5. one pass takes each event below tau of two or more instances to each
       of their whole families.

    Each pass is one :func:`_nearest` call, which gives every pair its
    smallest residual to the lines it takes, computed in dense blocks with
    the bits of :func:`residual_matrix`. So the instances below tau of each
    event, and so every id, are those of the per-instance minima over whole
    families.
    """
    if not instances or not all(instances):
        raise FitError("no instances to associate against")
    sizes = np.asarray(sizes, dtype=np.int64)
    per_window = np.array([len(ms) for ms in instances])
    inliers = [m.inliers for ms in instances for m in ms]
    window = np.repeat(np.arange(sizes.size), per_window)  # each instance's window
    local = np.arange(len(inliers)) - (np.cumsum(per_window) - per_window)[window]  # its id
    n = sizes[window]
    pair0 = np.cumsum(n) - n  # pair (g, e) of instance g and event e is pair0[g] + e
    event0 = (np.cumsum(sizes) - sizes)[window] - pair0  # pair -> event of the batch
    voxel0 = np.asarray(first, dtype=np.int64)[window] - pair0  # pair -> voxel
    # every instance's family members, instance after instance: its row of
    # its window's block, gathered from the flat flags, as rows of hyps
    run_window = np.asarray(windows, dtype=np.int64)[window]
    width = hyps.hyp0[run_window + 1] - hyps.hyp0[run_window]
    flag0 = np.cumsum(width) - width  # each row's first flag among the rows
    rep = np.array([m.rep_index for ms in instances for m in ms])
    row0 = hyps.flag0[run_window] + rep * hyps.flag_step[run_window]  # and among the flat flags
    flags = hyps.flags[np.arange(flag0[-1] + width[-1]) + np.repeat(row0 - flag0, width)]
    size = np.add.reduceat(flags, flag0, dtype=np.int64)
    fam0 = np.cumsum(size) - size
    member = np.flatnonzero(flags) + np.repeat(hyps.hyp0[run_window] - flag0, size)
    table = _line_table(LineSet(hyps.starts[member], hyps.ends[member]))

    below = np.zeros(n.sum(), dtype=bool)
    below[np.concatenate(inliers) + np.repeat(pair0, [i.size for i in inliers])] = True
    pair, g = _owned(~below, pair0)
    stride = -(-size // _PROBES)
    probes = -(-size // stride)
    hit = _nearest(vox, pair + voxel0[g], g, table, fam0, stride, probes) < tau
    below[pair[hit]] = True
    left = ~hit & (probes < size)[g]
    pair, g = pair[left], g[left]
    if size[g].sum() > _BATCH_PAIRS:  # stage 3 costs about as much as a block
        near = ~_far(vox, pair + voxel0[g], g, table, fam0, tau)
        pair, g = pair[near], g[near]
    unit = np.ones_like(size)
    below[pair[_nearest(vox, pair + voxel0[g], g, table, fam0, unit, size) < tau]] = True

    pair, g = _owned(below, pair0)
    event = pair + event0[g]
    assignment = np.full(sizes.sum(), NOISE_ID, dtype=np.int64)
    assignment[event] = local[g]  # right for every event below tau of one instance
    contested = np.bincount(event, minlength=assignment.size)[event] > 1
    pair, g, event = pair[contested], g[contested], event[contested]
    nearest = _nearest(vox, pair + voxel0[g], g, table, fam0, unit, size)
    best = np.lexsort((g, nearest, event))  # per event: smallest minimum, then earliest
    best = best[np.diff(event[best], prepend=-1) != 0]
    assignment[event[best]] = local[g[best]]
    ends = np.cumsum(sizes).tolist()
    return [assignment[lo:hi] for lo, hi in zip([0, *ends], ends)]


# (event, representative) pairs whose residuals one residual chunk of a fit
# batch holds at most; a window with more pairs is a chunk of its own. Each
# block of an association pass holds at most this many (event, family line)
# residuals, unless one pair's lines alone are more. A chunk needs about a
# dozen pair-sized temporaries at once, 128,000 bytes each at the cap, which
# glibc serves from the brk heap. Freed after every chunk, they would let
# malloc trim the heap top and the next chunk fault the pages back in (~5,500
# minor faults per track_eval evaluate, at ~2-3 us each), so they live in
# SCRATCH, whose buffers hold this many values each: the cap bounds the
# scratch's size and each chunk's work. Without the cap, chunks and blocks
# the size of a whole batch took ~12,000 minor faults per lanes_fine cycle
# of run_eda and evaluate, against under 10 with it.
_BATCH_PAIRS = 16_000
SCRATCH = Scratch(_BATCH_PAIRS)
_PAIR_INDEX = np.arange(_BATCH_PAIRS)  # each pair's index in its residual chunk
# (hypothesis, hypothesis) pairs within a window, summed over the windows
# that one clustering call takes, at most; a window with more is clustered
# alone. A run's hypotheses and families live until the run is fitted, so
# this bounds them to a few windows' worth, not the whole call's.
_CLUSTER_PAIRS = 2_000_000


def _call_voxels(windows: Sequence[EventWindow]) -> np.ndarray:
    """The voxels of every window of a call, window after window.

    Windows of one stream, as :func:`run_eda` and tracking give, take their
    events from it with one index gather; windows of several streams are
    concatenated.
    """
    sizes = [len(w) for w in windows]

    def per_event(values):
        return np.repeat(np.asarray(values, dtype=np.float64), sizes)

    stream = windows[0].stream
    if all(w.stream is stream for w in windows):
        offset = np.array([w.offset for w in windows]) - (np.cumsum(sizes) - sizes)
        index = np.arange(sum(sizes)) + np.repeat(offset, sizes)
        t, u, v = stream.t.take(index), stream.u.take(index), stream.v.take(index)
        s_t = time_scale(stream.geometry)
    else:
        t, u, v = (np.concatenate([getattr(w, k) for w in windows]) for k in "tuv")
        s_t = per_event([time_scale(w.geometry) for w in windows])
    return event_voxels(t, u, v, per_event([w.t_start for w in windows]),
                        per_event([w.span for w in windows]), s_t)


def _fit_batch(vox: np.ndarray, windows: Sequence[EventWindow], first: List[int],
               run_slots: Sequence[int], hyps: HypothesisSet, config,
               results: List[AssociationResult]) -> None:
    """Residuals through association for one clustering run, the fit batch.

    Window ``w`` of ``hyps`` is ``windows[run_slots[w]]``. The residuals and
    their inliers, the pairs below ``config.tau``, go in residual chunks of
    consecutive windows whose (event, representative) pairs stay within
    ``_BATCH_PAIRS``, or of one window that alone holds more; the weighting, model counts and
    association then run once over the survivors of every chunk. Writes the
    result of each window that keeps a model into its slot of ``results``.
    """
    sizes = np.array([len(windows[k]) for k in run_slots], dtype=np.int64)
    counts = hyps.rep_count
    line0 = np.cumsum(counts) - counts  # each window's first representative in the run
    rows = hyps.rows[np.arange(counts.sum()) + np.repeat(hyps.rep0 - line0, counts)]
    models = LineSet(hyps.starts[rows], hyps.ends[rows])
    voxel0 = np.array([first[k] for k in run_slots])
    survivors = []
    for chunk in _runs(range(sizes.size), (sizes * counts).tolist().__getitem__, _BATCH_PAIRS):
        c = slice(chunk[0], chunk[-1] + 1)
        j0 = int(line0[c.start])  # the chunk's first representative
        j1 = j0 + int(counts[c].sum())
        chunk_models = LineSet(models.starts[j0:j1], models.ends[j0:j1])
        values, voxel, line = _pair_residuals(vox, chunk_models, voxel0[c], sizes[c], counts[c])
        survivors += [(j0 + j, inliers) for j, inliers in
                      select_inliers(values, voxel, line, config.tau, config.min_inliers)]
    if not survivors:
        return
    owner = np.searchsorted(line0, [j for j, _ in survivors], side="right") - 1
    per_window = np.bincount(owner, minlength=sizes.size)
    s_t = [time_scale(windows[k].geometry) for k in run_slots]
    w1, finals = weigh_models(vox, models, survivors, np.repeat(s_t, per_window))
    fitted = np.flatnonzero(per_window)
    survivor0 = (np.cumsum(per_window) - per_window)[fitted]  # each window's first survivor
    n_models = select_model_count(finals, per_window[fitted])
    w1s, weights, rep_first = w1.tolist(), finals.tolist(), line0.tolist()
    instances = []
    for w, k, n in zip(fitted.tolist(), survivor0.tolist(), n_models.tolist()):
        lo, m = first[run_slots[w]], int(per_window[w])
        # the n lightest survivors; sorted is stable, as an argsort of kind "stable"
        picks = [k] if m == 1 else sorted(range(k, k + m), key=weights.__getitem__)[:n]
        chosen = []
        for i in picks:
            j, inliers = survivors[i]
            chosen.append(WeightedModel(models.starts[j], models.ends[j], j - rep_first[w],
                                        inliers - lo, w1s[i], weights[i]))
        instances.append(chosen)
    # the survivors' inlier sets and weights go before association's
    # pair-sized temporaries come, which keeps a large run's peak memory down
    del survivors, w1, finals, w1s, weights
    assignments = associate(vox, voxel0[fitted], sizes[fitted], hyps, fitted, instances,
                            config.tau)
    for w, chosen, assignment in zip(fitted.tolist(), instances, assignments):
        results[run_slots[w]] = AssociationResult(windows[run_slots[w]], chosen, assignment)


def _runs(items, cost, cap: int):
    """Split ``items`` into consecutive runs costing at most ``cap``; a costlier item runs alone."""
    run, total = [], 0
    for item in items:
        c = cost(item)
        if run and total + c > cap:
            yield run
            run, total = [], 0
        run.append(item)
        total += c
    if run:
        yield run


def _hypotheses(windows: Sequence[EventWindow], vox: np.ndarray, first: List[int], config):
    """Yield ``(slot, hypotheses)`` for each window of a call that has usable ones, in order."""
    for k, window in enumerate(windows):
        try:
            lines = generate(window, vox[first[k]:first[k + 1]], config.num_slices,
                             config.max_pairs)
        except HypothesisError:
            continue
        yield k, lines


def fit_windows(windows: Sequence[EventWindow], config) -> List[AssociationResult]:
    """Run hypothesis generation through association for every window, in order.

    Generation runs per window. The windows with hypotheses split into runs
    of consecutive windows whose hypothesis pairs stay within
    ``_CLUSTER_PAIRS``, clustered with one :func:`select_representatives`
    call each. Each run is one fit batch (:func:`_fit_batch`), on its one
    :class:`HypothesisSet`: the residuals and inlier selection go in chunks
    whose (event, representative) pairs stay within ``_BATCH_PAIRS``, and
    the weighting, model counts and association run once per run. Each
    result equals a fit of its window alone. Failures (no usable slices, no
    surviving model) degrade to an all-noise result without instances
    instead of raising.
    """
    windows = list(windows)
    if not windows:
        return []
    vox = _call_voxels(windows)
    first = np.cumsum([0] + [len(w) for w in windows]).tolist()
    results: List[AssociationResult] = [None] * len(windows)
    hypothesized = _hypotheses(windows, vox, first, config)
    for run in _runs(hypothesized, lambda h: len(h[1]) ** 2, _CLUSTER_PAIRS):
        slots, lines = zip(*run)
        hyps = select_representatives(lines, config.parallel_tol)
        _fit_batch(vox, windows, first, slots, hyps, config, results)
    failed = [k for k, res in enumerate(results) if res is None]
    ends = np.cumsum([len(windows[k]) for k in failed], dtype=np.int64).tolist()
    noise = np.full(ends[-1] if ends else 0, NOISE_ID, dtype=np.int64)
    for k, lo, hi in zip(failed, [0, *ends], ends):  # every event of a failed window is noise
        results[k] = AssociationResult(windows[k], [], noise[lo:hi])
    return results


def fit_window(window: EventWindow, config) -> AssociationResult:
    """:func:`fit_windows` for one window."""
    return fit_windows([window], config)[0]


def run_eda(stream, config) -> List[AssociationResult]:
    """Cut the stream into windows and fit them, in stream order."""
    interval = EntropyInterval(config.entropy_alpha, config.entropy_beta)
    return fit_windows(cut_windows(stream, interval, config.entropy_grid, config.max_window_s),
                       config)


def relabel(results: Sequence[AssociationResult], n_events: int) -> np.ndarray:
    """Stream-wide trajectory ids for the per-window results of :func:`run_eda`.

    Each window's local ids are shifted by the model count of the windows
    before it; noise stays ``NOISE_ID``, and so do events outside every
    window. The windows must not overlap, as :func:`run_eda`'s never do.
    """
    assignment = np.full(n_events, NOISE_ID, dtype=np.int64)
    if not results:
        return assignment
    sizes = np.array([r.assignment.size for r in results])
    models = np.array([r.num_models for r in results])
    first = np.cumsum(sizes) - sizes
    index = np.arange(sizes.sum()) + np.repeat([r.window.offset for r in results] - first, sizes)
    local = np.concatenate([r.assignment for r in results])
    shift = np.repeat(np.cumsum(models) - models, sizes)
    assignment[index] = np.where(local == NOISE_ID, NOISE_ID, local + shift)
    return assignment
