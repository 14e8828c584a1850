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
one fit batch: inlier selection goes in chunks of at most ``_BATCH_PAIRS``
pairs, and both weighting stages, the model counts and the association run
once over all the run's survivors. Both inlier selection and association
test residuals against the radius through one kernel: a voxel's squared
residual to a line is a quadratic form, so a block of them is one small BLAS
product of voxel features by line coefficients, and a product outside a
narrow band around tau² (:func:`_band`) decides the test exactly. Only the
pairs inside it, and the events below tau of two or more instances, take
residuals with the bits of :func:`residual_matrix`, so every result equals,
bit for bit, a fit of its window alone.
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


# the component pairs of x², y², z², xy, xz, yz
_PRODUCTS = ([0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2])
# the magnitudes of components and direction lengths that the band's rounding bound covers
_TINY, _HUGE = 2.0 ** -200, 2.0 ** 200


def _features(vox: np.ndarray) -> np.ndarray:
    """(n, 10) features ``x², y², z², xy, xz, yz, x, y, z, 1`` of voxels, in table "features"."""
    features = TABLES.take("features", (len(vox), 10))
    for k, (i, j) in enumerate(zip(*_PRODUCTS)):
        np.multiply(vox[:, i], vox[:, j], out=features[:, k])
    features[:, 6:9] = vox
    features[:, 9] = 1.0
    return features


def _quadrics(lines: LineSet) -> np.ndarray:
    """(m, 10) coefficients of each line's squared residual in the :func:`_features`.

    With ``û = d / |d|`` and ``M = I - ûûᵀ``, p lies ``(p - s)ᵀ M (p - s)``
    squared from the line through s along d, so the coefficients are
    ``1 - û_k²``, ``-2 û_k û_l``, ``-2 w`` and ``s · w`` with ``w = M s = s -
    û (û · s)``. A line whose ``|d|`` lies outside ``_TINY`` to ``_HUGE``
    gets NaN ones, which :func:`_band` never settles. The result is table
    ``"quads"``.
    """
    d, s = lines.directions(), lines.starts
    quads = TABLES.take("quads", (len(d), 10))
    with np.errstate(all="ignore"):  # lines out of range get NaN below
        length = _lengths(d)
        unit = np.divide(d, length[:, None], out=TABLES.take("unit", d.shape))
        for k, (i, j) in enumerate(zip(*_PRODUCTS)):
            np.multiply(unit[:, i], unit[:, j], out=quads[:, k])
        np.subtract(1.0, quads[:, :3], out=quads[:, :3])
        quads[:, 3:6] *= -2.0
        w = np.subtract(s, unit * np.einsum("ij,ij->i", unit, s)[:, None], out=unit)
        quads[:, 9] = np.einsum("ij,ij->i", s, w)
        np.multiply(w, -2.0, out=quads[:, 6:9])
    quads[~((length >= _TINY) & (length <= _HUGE))] = np.nan
    return quads


def _band(tau: float, vox: np.ndarray, starts: np.ndarray) -> tuple[float, float]:
    """The band ``(lo, hi)`` outside of which a squared product decides ``residual < tau``.

    A (voxel, line) pair whose product q of :func:`_features` and
    :func:`_quadrics`, summed in any order, is below ``lo`` has a
    :func:`residual_matrix` residual below tau, and one above ``hi`` has not;
    a pair inside the band or with a NaN q needs its exact residual. The band
    is ``tau² ∓ E``, ``E = 2 ** -30 (tau + S)²`` with S the largest magnitude
    of a component of ``vox`` or ``starts``. It is NaN where S lies outside
    ``_TINY`` to ``_HUGE`` or tau is NaN, and ``(NaN, inf)`` where tau² or E
    overflows: then no q is settled.

    Rounding, with ``u = 2 ** -53``. Let r be the exact distance from p to
    the line through s along the computed d, and ``û = d / |d|``. With every
    component at most S, ``|p - s| <= 2 sqrt(3) S``; M is a projection, so
    ``|M_kl| <= 1`` and ``|w| <= |s| <= sqrt(3) S``. A computed ``û_k`` is
    within ``4u |û_k|`` of ``û_k``, so a quadratic coefficient is off by
    under 11u, ``û · s`` by 13u S, ``w_k`` by 23u S, ``s · w`` by 80u S² and
    a feature by u S². A dot product of K = 10 terms, in any order, with or
    without FMA, is off by at most ``γ_10 ≈ 10u`` times the sum of its
    terms' magnitudes (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, §3.1), here 13 S². So q is within 440u S² < 2 ** -44
    S² of r². Underflow adds under 2 ** -1074 per operation, far below u S²
    for S of at least ``_TINY``; with S and ``|d|`` at most ``_HUGE``
    nothing overflows. The computed residual is within 16u S + 8u r of r:
    the cross product rounds relative to ``|p - s| |d|``, and the norm, the
    length and the quotient add a few u of r (underflow under 2 ** -330 for
    ``|d| >= _TINY``).

    So q < lo gives ``r² < tau² - E / 2`` and ``r < tau - E / (4 tau) <= tau
    - 2 ** -32 (tau + S)``, below tau by far more than the computed
    residual's error there, under ``24u (tau + S)``. And q > hi gives ``r² >
    tau² + E / 2``, so ``r - tau > (E / 2) / (r + tau) >= 2 ** -32 (tau +
    S)`` at the least such r, under ``2 (tau + S)``, and the computed
    residual grows with r. Rounding tau², E, lo and hi costs a few u of
    ``tau² + E``, inside the other half of E.
    """
    scale = max(float(vox.max(initial=0.0)), -float(vox.min(initial=0.0)),
                float(starts.max(initial=0.0)), -float(starts.min(initial=0.0)))
    margin = 2.0 ** -30 * (tau + scale) * (tau + scale) if _TINY <= scale <= _HUGE else np.nan
    return tau * tau - margin, tau * tau + margin


def _row_blocks(voxel0: int, rows: int, line0: int, width: int) -> list:
    """A product of voxels by lines, in row blocks of at most ``_BATCH_PAIRS`` values or one row."""
    step = max(1, _BATCH_PAIRS // width)
    return [(voxel0 + r, min(step, rows - r), line0, width) for r in range(0, rows, step)]


def _squared(features: np.ndarray, quads: np.ndarray, blocks) -> np.ndarray:
    """The products of row blocks, block after block, each event-major, in scratch ``"q"``.

    Block ``(v, n, j, m)`` takes rows ``v`` to ``v + n`` of ``features`` by
    rows ``j`` to ``j + m`` of ``quads`` in one ``np.dot``, a BLAS gemm.
    """
    q = SCRATCH.take("q", sum(n * m for _, n, _, m in blocks))
    at = 0
    for v, n, j, m in blocks:
        np.dot(features[v:v + n], quads[j:j + m].T, out=q[at:at + n * m].reshape(n, m))
        at += n * m
    return q


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


def _nearest(vox, voxel, owner, table, first, count) -> np.ndarray:
    """Each pair's smallest residual to a run of lines, with the bits of :func:`residual_matrix`.

    Pair ``i`` takes the voxel ``vox[voxel[i]]`` and, with ``g = owner[i]``,
    the ``count[g]`` lines (at least one) from column ``first[g]`` of a
    :func:`_line_table`. The pairs, stable-sorted by line count, go in
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
    last, run_first = count[runs] - 1, first[runs]
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
        np.add(line, run_first[r0:r1], out=line)
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


def associate(
    vox: np.ndarray,
    first: Sequence[int],
    sizes: Sequence[int],
    hyps: HypothesisSet,
    windows: Sequence[int],
    instances: Sequence[Sequence[WeightedModel]],
    tau: float,
    features: np.ndarray = None,
) -> List[np.ndarray]:
    """Per-event instance ids of each window of a batch: the instance whose family fits best.

    Window ``w`` of the batch holds the voxels
    ``vox[first[w]:first[w] + sizes[w]]``, the hypotheses and family block of
    window ``windows[w]`` of ``hyps`` and at least one instance
    ``instances[w]``; all windows share the inlier radius ``tau``. An
    instance's family is row ``instance.rep_index`` of its block, the
    hypotheses parallel to its representative. An event's residual to an
    instance is its smallest distance to a line of the family; the event goes
    to the instance with the smallest one (ties: the earlier instance), or to
    noise when that residual is not below tau. ``features`` are the
    :func:`_features` of ``vox``, computed here when not given.

    Only the instances an event is below tau of, and among two or more of
    them the exact family minima, decide its id. The (event, instance) pairs
    are settled in three steps:

    1. each instance's window voxels go against its family's lines in
       :func:`_squared` products, chunk by chunk, and one
       ``np.minimum.reduceat`` per chunk gives each pair's smallest product;
       below the :func:`_band` the pair is below tau, above it not;
    2. one pass takes each pair inside the band to its whole family;
    3. one pass takes each event below tau of two or more instances to each
       of their whole families.

    Each pass is one :func:`_nearest` call, with the bits of
    :func:`residual_matrix`. So the instances below tau of each event, and
    so every id, are those of the per-instance minima over whole families.
    """
    if not instances or not all(instances):
        raise FitError("no instances to associate against")
    sizes = np.asarray(sizes, dtype=np.int64)
    per_window = np.array([len(ms) for ms in instances])
    window = np.repeat(np.arange(sizes.size), per_window)  # each instance's window
    local = np.arange(window.size) - (np.cumsum(per_window) - per_window)[window]  # its id
    n = sizes[window]
    pair0 = np.cumsum(n) - n  # pair (g, e) of instance g and event e is pair0[g] + e
    event0 = (np.cumsum(sizes) - sizes)[window] - pair0  # pair -> event of the batch
    start = np.asarray(first, dtype=np.int64)[window]  # each instance's first voxel
    voxel0 = start - pair0  # pair -> voxel
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
    lines = LineSet(hyps.starts[member], hyps.ends[member])

    features = _features(vox) if features is None else features
    quads, (lo, hi) = _quadrics(lines), _band(tau, vox, lines.starts)
    blocks = [b for g in zip(start.tolist(), n.tolist(), fam0.tolist(), size.tolist())
              for b in _row_blocks(*g)]
    below, band = np.empty(n.sum(), dtype=bool), np.empty(n.sum(), dtype=bool)
    at = 0
    for chunk in _runs(blocks, lambda b: b[1] * b[3], _BATCH_PAIRS):
        row = np.repeat([m for *_, m in chunk], [rows for _, rows, *_ in chunk])  # row widths
        nearest = np.minimum.reduceat(_squared(features, quads, chunk), np.cumsum(row) - row,
                                      out=SCRATCH.take("nearest", row.size))
        np.less(nearest, lo, out=below[at:at + row.size])
        np.greater(nearest, hi, out=band[at:at + row.size])
        at += row.size
    np.logical_not(np.logical_or(below, band, out=band), out=band)  # neither below nor above
    table = _line_table(lines)
    pair, g = _owned(band, pair0)
    below[pair[_nearest(vox, pair + voxel0[g], g, table, fam0, size) < tau]] = True

    pair, g = _owned(below, pair0)
    event = pair + event0[g]
    assignment = np.full(sizes.sum(), NOISE_ID, dtype=np.int64)
    assignment[event] = local[g]  # right for every event below tau of one instance
    contested = np.bincount(event, minlength=assignment.size)[event] > 1
    pair, g, event = pair[contested], g[contested], event[contested]
    nearest = _nearest(vox, pair + voxel0[g], g, table, fam0, size)
    best = np.lexsort((g, nearest, event))  # per event: smallest minimum, then earliest
    best = best[np.diff(event[best], prepend=-1) != 0]
    assignment[event[best]] = local[g[best]]
    ends = np.cumsum(sizes).tolist()
    return [assignment[lo:hi] for lo, hi in zip([0, *ends], ends)]


# (event, representative) pairs of one inlier chunk of a fit batch, at most;
# a window with more pairs is a chunk of its own. Every product of voxels by
# lines, and every block of exact residuals, holds at most this many values
# (or one row), small enough that OpenBLAS stays on the calling thread. The
# chunk-sized temporaries live in SCRATCH, whose buffers hold this many
# values each: freed after every chunk, they would let malloc trim the heap
# top and the next chunk fault the pages back in.
_BATCH_PAIRS = 16_000
SCRATCH = Scratch(_BATCH_PAIRS)
# the voxel features and line coefficients of a fit batch, up to 2 ** 16
# rows of 10 values each, reuse per-thread buffers: fresh arrays took
# ~1,400 minor faults per lanes_fine cycle of run_eda, against ~1
TABLES = Scratch(10 * 2 ** 16)
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
    """Inliers through association for one clustering run, the fit batch.

    Window ``w`` of ``hyps`` is ``windows[run_slots[w]]``. The run's voxels
    get one table of :func:`_features`, built after clustering, so that it
    never adds to clustering's peak memory. The inliers go in chunks of whole
    windows within ``_BATCH_PAIRS`` (event, representative) pairs, or of one
    window alone: each pair that the :func:`_band` of its :func:`_squared`
    product does not put above tau goes to :func:`select_inliers`, with its
    exact residual when the band does not settle it. The weighting, model
    counts and association then run once over the survivors of every chunk,
    and each window that keeps a model gets its result in ``results``.
    """
    sizes = np.array([len(windows[k]) for k in run_slots], dtype=np.int64)
    counts = hyps.rep_count
    line0 = np.cumsum(counts) - counts  # each window's first representative in the run
    rows = hyps.rows[np.arange(counts.sum()) + np.repeat(hyps.rep0 - line0, counts)]
    models = LineSet(hyps.starts[rows], hyps.ends[rows])
    vox = vox[first[run_slots[0]]:first[run_slots[-1] + 1]]  # the run's voxels
    voxel0 = np.array([first[k] for k in run_slots]) - first[run_slots[0]]
    features, quads = _features(vox), _quadrics(models)
    lo, hi = _band(config.tau, vox, models.starts)
    products = zip(voxel0.tolist(), sizes.tolist(), line0.tolist(), counts.tolist())
    survivors = []
    for chunk in _runs(products, lambda p: p[1] * p[3], _BATCH_PAIRS):
        blocks = [b for p in chunk for b in _row_blocks(*p)]
        q = _squared(features, quads, blocks)
        above = np.greater(q, hi, out=SCRATCH.take("above", q.size, bool))
        pair = np.flatnonzero(np.logical_not(above, out=above))
        values = q[pair]
        # each pair's block, then its voxel and its line
        v, n, j, m = (np.array(x) for x in zip(*blocks))
        end = np.cumsum(n * m)
        b = np.searchsorted(end, pair, side="right")
        event, line = np.divmod(pair - (end - n * m)[b], m[b])
        voxel, line = event + v[b], line + j[b]
        band = ~(values < lo)
        values[~band] = -np.inf  # settled below tau
        if band.any():
            one = np.ones(len(models), dtype=np.int64)
            values[band] = _nearest(vox, voxel[band], line[band], _line_table(models),
                                    np.arange(len(models)), one)
        survivors += select_inliers(values, voxel, line, config.tau, config.min_inliers)
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
        m = int(per_window[w])
        # the n lightest survivors; sorted is stable, as an argsort of kind "stable"
        picks = [k] if m == 1 else sorted(range(k, k + m), key=weights.__getitem__)[:n]
        chosen = []
        for i in picks:
            j, inliers = survivors[i]
            chosen.append(WeightedModel(models.starts[j], models.ends[j], j - rep_first[w],
                                        inliers - voxel0[w], w1s[i], weights[i]))
        instances.append(chosen)
    # the survivors' inlier sets and weights go before association's
    # pair-sized temporaries come, which keeps a large run's peak memory down
    del survivors, w1, finals, w1s, weights
    assignments = associate(vox, voxel0[fitted], sizes[fitted], hyps, fitted, instances,
                            config.tau, features)
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
    call each. Each run is one fit batch (:func:`_fit_batch`) on its one
    :class:`HypothesisSet`. Each result equals a fit of its window alone.
    Failures (no usable slices, no surviving model) degrade to an all-noise
    result without instances instead of raising.
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
