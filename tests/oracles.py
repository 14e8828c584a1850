"""References used only by the tests.

The grid entropy is recomputed from the decayed surface, as the check on the
frame's incremental entropy. The line fits measure what the pipeline should
recover from a labelled window: the total-least-squares line of each motion's
events, and the direction a known velocity traces in normalized voxel space.
The fit references are the per-window compositions that the batched fit
replaced: one window at a time, one residual matrix per window, one greedy
representative search per representative. The tracking reference fits and
propagates one box pair at a time.
"""
from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from evtraj.fitting import (
    AssociationResult,
    NoiseScale,
    WeightedModel,
    associate,
    estimate_tau_ikose,
    residual_matrix,
    weigh_models,
)
from evtraj.grouping import AtsltdFrame, EventWindow
from evtraj.hypotheses import (
    HypothesisError,
    HypothesisSet,
    LineSet,
    generate,
    time_scale,
    window_voxels,
)
from evtraj.io import NOISE_ID
from evtraj.synth import CLUTTER_LABEL
from evtraj.tracking import TrackingFailure, propagate_box


def brute_force_lines(
    window: EventWindow,
    labels: np.ndarray,
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Total-least-squares 3D line per label group, in normalized voxel space.

    Returns label -> (centroid, unit direction); the direction advances in
    time. The reference oracle for angular-error checks.
    """
    vox = window_voxels(window)
    labels = np.asarray(labels)
    out: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for label in np.unique(labels):
        if label == CLUTTER_LABEL:
            continue
        pts = vox[labels == label]
        if pts.shape[0] < 2:
            raise ValueError(f"label {label} has fewer than 2 events")
        centroid = pts.mean(axis=0)
        centered = pts - centroid
        if not np.any(np.abs(centered) > 0):
            raise ValueError(f"label {label} is a degenerate point group")
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        direction = vt[0]
        if direction[2] < 0:
            direction = -direction
        out[int(label)] = (centroid, direction)
    return out


def nzge_entropy(frame: AtsltdFrame, grid: int | None = None) -> float:
    """Non-zero grid entropy, recomputed from the normalized surface.

    Tiles the surface into grid x grid pixel cells, forms the distribution of
    non-zero tile sums, and returns its Shannon entropy.
    """
    grid = frame.grid if grid is None else int(grid)
    if grid < 1:
        raise ValueError("grid must be >= 1")
    h, w = frame.geometry.height, frame.geometry.width
    if h < grid or w < grid:
        raise ValueError("frame dimensions must be >= grid")
    gh = -(-h // grid)
    gw = -(-w // grid)
    padded = np.zeros((gh * grid, gw * grid))
    padded[:h, :w] = frame.surface
    tiles = padded.reshape(gh, grid, gw, grid).sum(axis=(1, 3)).ravel()
    tiles = tiles[tiles > 0]
    if tiles.size == 0:
        return 0.0
    p = tiles / tiles.sum()
    return float(-(p * np.log2(p)).sum())


def expected_direction(
    velocity: Tuple[float, float],
    window: EventWindow,
) -> np.ndarray:
    """Unit direction a constant (vx, vy) motion traces in normalized voxel space."""
    s_t = time_scale(window.geometry)
    vx, vy = velocity
    d = np.array([vx * window.span, vy * window.span, s_t])
    return d / np.linalg.norm(d)


def flatnonzero_slices(window, num_slices):
    """Reference slicing: one ``flatnonzero`` scan per slice over each event's
    slice index ``ceil((t - t_start) / (span / num_slices)) - 1``, clipped to
    the slices."""
    if num_slices < 2:
        raise ValueError("num_slices must be >= 2")
    if len(window) < 2:
        raise HypothesisError("window must hold at least 2 events")
    dt = window.span / num_slices
    idx = np.ceil((window.t - window.t_start) / dt).astype(int) - 1
    idx = np.clip(idx, 0, num_slices - 1)
    return [np.flatnonzero(idx == k) for k in range(num_slices)]


def greedy_representatives(hyps: LineSet, parallel_tol: float) -> HypothesisSet:
    """One window's representatives, by a full ``argmax`` over the unassigned
    hypotheses per pick."""
    n = len(hyps)
    if n == 0:
        raise HypothesisError("no hypotheses to cluster")
    d = hyps.directions()
    units = d / np.linalg.norm(d, axis=1, keepdims=True)
    adj = np.empty((n, n), dtype=bool)
    chunk = max(1, 2_000_000 // n)
    for lo in range(0, n, chunk):
        adj[lo:lo + chunk] = (1.0 - units[lo:lo + chunk] @ units.T) <= parallel_tol
    counts = adj.sum(axis=1)
    unassigned = np.ones(n, dtype=bool)
    rep_indices: List[int] = []
    while unassigned.any():
        r = int(np.argmax(np.where(unassigned, counts, -1)))
        rep_indices.append(r)
        unassigned[adj[r]] = False
        unassigned[r] = False  # adj[r, r] may round to False
    reps = np.asarray(rep_indices, dtype=np.int64)
    return HypothesisSet([hyps], [reps], [adj[reps]])


def matrix_inliers(values: np.ndarray, tau: float,
                   min_inliers: int) -> List[Tuple[int, np.ndarray]]:
    """Per-column inlier sets of one window's residual matrix; short columns dropped."""
    mask = values < tau
    keep = np.flatnonzero(mask.sum(axis=0) >= min_inliers)
    return [(j, np.flatnonzero(mask[:, j])) for j in keep.tolist()]


def elbow_count(weights: Sequence[float]) -> int:
    """One window's model count, scanning its sorted weight differences in turn."""
    w = np.sort(np.asarray(weights, dtype=np.float64))
    diffs = np.diff(w)
    for i in range(diffs.size):
        neighbors = np.concatenate([diffs[max(0, i - 2):i], diffs[i + 1:i + 3]])
        if neighbors.size and np.all(diffs[i] > neighbors):
            return i + 1
    return 1


def reference_residuals(window: EventWindow, config):
    """One window's voxels, hypotheses and representative residual matrix.

    ``None`` when the window has no hypotheses.
    """
    vox = window_voxels(window)
    try:
        lines = generate(window, vox, config.num_slices, config.max_pairs)
        hyps = greedy_representatives(lines, config.parallel_tol)
    except HypothesisError:
        return None
    return vox, hyps, residual_matrix(vox, hyps.lines[0].take(hyps.reps[0]))


def reference_fit_window(window: EventWindow, config) -> AssociationResult:
    """One window's fit, stage after stage on that window alone."""
    failed = AssociationResult(window, [], np.full(len(window), NOISE_ID, dtype=np.int64))
    stages = reference_residuals(window, config)
    if stages is None:
        return failed
    vox, hyps, values = stages
    reps = hyps.lines[0].take(hyps.reps[0])
    if config.scale_mode == "fixed":
        scale = NoiseScale(config.tau, "fixed")
    else:
        taus = [estimate_tau_ikose(values[:, j], config.ikose_k).tau
                for j in range(values.shape[1])]
        scale = NoiseScale(float(np.median(taus)), "estimated")
    survivors = matrix_inliers(values, scale.tau, config.min_inliers)
    if not survivors:
        return failed
    w1, finals = weigh_models(vox, reps, survivors, time_scale(window.geometry))
    instances = []
    for i in np.argsort(finals, kind="stable")[:elbow_count(finals)].tolist():
        j, inliers = survivors[i]
        instances.append(WeightedModel(reps.starts[j], reps.ends[j], j, inliers,
                                       float(w1[i]), float(finals[i])))
    assignment = associate(vox, hyps.lines[0], hyps.families[0], instances, scale)
    return AssociationResult(window, instances, assignment)


def reference_track(stream, pairs, config) -> list:
    """Each pair's propagated box, or its :class:`TrackingFailure`, one pair at a time.

    The pair's window holds the events from its current to its next frame;
    it is fitted alone by :func:`reference_fit_window`.
    """
    out = []
    for pair in pairs:
        lo = int(np.searchsorted(stream.t, pair.t_curr, side="left"))
        hi = int(np.searchsorted(stream.t, pair.t_next, side="right"))
        try:
            if hi - lo < config.min_inliers:
                raise TrackingFailure(f"only {hi - lo} events between the frames")
            window = EventWindow.of(stream, lo, hi, pair.t_curr, pair.t_next)
            result = reference_fit_window(window, config)
            if result.failed:
                raise TrackingFailure("no trajectory fitted between the frames")
            out.append(propagate_box(result, pair.gt_curr, pair.t_next, config.min_inliers))
        except TrackingFailure as exc:
            out.append(exc)
    return out
