"""Two-stage robust weighting, model-count selection, and event association.

Per window: voxel-to-line residuals against the representative hypotheses are
column-normalized, thresholded at the inlier noise scale to select inliers,
and surviving hypotheses are weighted twice -- first by temporal dispersion
of their inliers, then by the contrast of the event image warped along the
hypothesis. The model count comes from the elbow of the sorted weights, and
every event is finally assigned to the instance (via its parallel hypothesis
family) with the smallest sub-threshold residual, or marked as noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np
from scipy import stats

from .config import RunConfig
from .grouping import EntropyInterval, EventWindow, cut_windows
from .hypotheses import (
    HypothesisError,
    HypothesisSet,
    LineSet,
    generate,
    select_representatives,
    time_scale,
    window_voxels,
)
from .io import NOISE_ID

_TAU_EPS = 1e-12


class FitError(RuntimeError):
    pass


class NoSurvivingModelError(FitError):
    """Every hypothesis lost its inliers; the window carries no structure."""


@dataclass(frozen=True)
class NoiseScale:
    """Inlier threshold on normalized residuals."""

    tau: float
    source: str = "fixed"  # fixed | estimated

    def __post_init__(self) -> None:
        if not self.tau > 0:
            raise ValueError("tau must be positive")


@dataclass(frozen=True)
class WeightedModel:
    """A selected model instance: its representative's end voxels, its inliers and both weights."""

    start: np.ndarray
    end: np.ndarray
    rep_index: int  # position among the window's representatives, not in HypothesisSet.all
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


def point_line_distances(voxels: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Perpendicular distances from (n, 3) voxels to the m infinite lines.

    ``|(p - s) x d| / |d|`` with ``d = e - s``, built one component at a time
    on (n, m) arrays with the products, differences and left-to-right sums of
    ``np.cross`` and ``np.linalg.norm``, so the bits match theirs.
    """
    voxels = np.asarray(voxels, dtype=np.float64).reshape(-1, 3)
    starts = np.asarray(starts, dtype=np.float64).reshape(-1, 3)
    ends = np.asarray(ends, dtype=np.float64).reshape(-1, 3)
    dx, dy, dz = (ends - starts).T
    lengths = np.sqrt((dx * dx + dy * dy) + dz * dz)
    px, py, pz = (voxels[:, k:k + 1] - starts[:, k] for k in range(3))
    cx = py * dz - pz * dy
    cy = pz * dx - px * dz
    cz = px * dy - py * dx
    return np.sqrt((cx * cx + cy * cy) + cz * cz) / lengths


def residual_matrix(vox: np.ndarray, lines: LineSet) -> np.ndarray:
    """Voxel-to-line residuals (events x lines), each column scaled to unit norm.

    An all-zero column stays zero.
    """
    raw = point_line_distances(vox, lines.starts, lines.ends)
    norms = np.sqrt(np.add.reduce(raw * raw, axis=0))
    return raw / np.where(norms > 0, norms, 1.0)


def estimate_tau_ikose(column: np.ndarray, k_ratio: float = RunConfig.ikose_k) -> NoiseScale:
    """K-th ordered residual scale estimate, with one trimming iteration.

    tau = r_(K) / q, K = ceil(k_ratio * n), q the standard normal quantile at
    (1 + k_ratio) / 2; then recomputed over residuals <= 2.5 tau.
    """
    if not 0 < k_ratio < 1:
        raise ValueError("k_ratio must lie in (0, 1)")
    r = np.sort(np.asarray(column, dtype=np.float64))
    if r.size == 0:
        raise ValueError("empty residual column")
    q = float(stats.norm.ppf((1 + k_ratio) / 2))

    def kth_scale(res: np.ndarray) -> float:
        k = max(1, math.ceil(k_ratio * res.size))
        return float(res[k - 1]) / q

    tau = kth_scale(r)
    if tau <= 0:
        return NoiseScale(_TAU_EPS, "estimated")
    kept = r[r <= 2.5 * tau]
    tau = kth_scale(kept) if kept.size else tau
    if tau <= 0:
        tau = _TAU_EPS
    return NoiseScale(tau, "estimated")


def select_inliers(
    values: np.ndarray,
    scale: NoiseScale,
    min_inliers: int = RunConfig.min_inliers,
) -> List[tuple[int, np.ndarray]]:
    """Per-column inlier index sets of a residual matrix; columns below the floor are dropped."""
    mask = values < scale.tau
    keep = np.flatnonzero(mask.sum(axis=0) >= min_inliers)
    if not keep.size:
        raise NoSurvivingModelError("all hypotheses dropped at the inlier floor")
    return [(j, np.flatnonzero(mask[:, j])) for j in keep.tolist()]


def _segment_means(x: np.ndarray, bounds: List[int]) -> np.ndarray:
    """Mean of each segment ``x[bounds[k]:bounds[k + 1]]``, bit-identical to ``np.mean``.

    Each segment is summed on its own: numpy's pairwise summation depends on
    the segment, so ``np.add.reduceat`` would round differently.
    """
    return np.array([x[lo:hi].sum() / (hi - lo) for lo, hi in zip(bounds, bounds[1:])])


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
    bounds = [0, *end.tolist()]
    dev = (norm - np.repeat(_segment_means(norm, bounds), area)) ** 2
    return _segment_means(dev, bounds)


def select_model_count(weights: Sequence[float]) -> int:
    """Elbow position in the ascending sorted weights; 1 if no elbow exists.

    The model count is the first k whose adjacent-difference d_k strictly
    exceeds its up-to-four neighboring differences (missing neighbors are
    skipped).
    """
    w = np.sort(np.asarray(weights, dtype=np.float64))
    diffs = np.diff(w)
    for i in range(diffs.size):
        neighbors = np.concatenate([diffs[max(0, i - 2):i], diffs[i + 1:i + 3]])
        if neighbors.size and np.all(diffs[i] > neighbors):
            return i + 1
    return 1


def weigh_models(
    vox: np.ndarray,
    reps: LineSet,
    survivors: Sequence[tuple[int, np.ndarray]],
    s_t: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Both weighting stages for every survivor at once: ``(w_stage1, w_final)``.

    Stage 1 is the mean squared deviation of a survivor's inlier timestamps
    from mid-window; ``s_t`` is the length of the normalized time axis
    (:func:`time_scale`). Stage 2 scales it by one minus the contrast of the
    inliers warped along the survivor's representative.
    """
    cols = [j for j, _ in survivors]
    inliers = [idx for _, idx in survivors]
    bounds = [0, *np.cumsum([idx.size for idx in inliers]).tolist()]
    w1 = _segment_means((vox[np.concatenate(inliers), 2] - s_t / 2.0) ** 2, bounds)
    contrast = warp_and_contrast(vox, inliers, reps.directions()[cols])
    return w1, w1 * (1.0 - contrast)


def associate(
    vox: np.ndarray,
    hyps: HypothesisSet,
    instances: Sequence[WeightedModel],
    scale: NoiseScale,
) -> np.ndarray:
    """Per-event instance ids: the instance whose family fits the event best.

    An instance's family is ``hyps.families[instance.rep_index]``, the
    hypotheses parallel to its representative. An event's residual to an
    instance is its smallest normalized residual over the family; the event
    goes to the instance with the smallest one (ties: the earlier instance),
    or to noise when that residual is not below tau.
    """
    if not instances:
        raise FitError("no instances to associate against")
    fam_min = np.stack([
        residual_matrix(vox, hyps.all.take(hyps.families[m.rep_index])).min(axis=1, initial=np.inf)
        for m in instances
    ])
    owner = np.argmin(fam_min, axis=0)
    return np.where(fam_min.min(axis=0) < scale.tau, owner, NOISE_ID)


def fit_window(window: EventWindow, config) -> AssociationResult:
    """Run hypothesis generation through association for one window.

    Failures (no usable slices, no surviving model) degrade to an all-noise
    result without instances instead of raising.
    """
    try:
        vox = window_voxels(window)
        lines = generate(window, vox, config.num_slices, config.max_pairs)
        hyps = select_representatives(lines, config.parallel_tol)
        reps = hyps.representatives
        values = residual_matrix(vox, reps)
        if config.scale_mode == "fixed":
            scale = NoiseScale(config.tau, "fixed")
        elif config.scale_mode == "ikose":
            taus = [estimate_tau_ikose(values[:, j], config.ikose_k).tau
                    for j in range(values.shape[1])]
            scale = NoiseScale(float(np.median(taus)), "estimated")
        else:
            raise ValueError(f"unknown scale_mode {config.scale_mode!r}")
        survivors = select_inliers(values, scale, config.min_inliers)
        w1, finals = weigh_models(vox, reps, survivors, time_scale(window.geometry))
        instances = []
        for i in np.argsort(finals, kind="stable")[:select_model_count(finals)].tolist():
            j, inliers = survivors[i]
            instances.append(WeightedModel(reps.starts[j], reps.ends[j], j, inliers,
                                           float(w1[i]), float(finals[i])))
        return AssociationResult(window, instances, associate(vox, hyps, instances, scale))
    except (HypothesisError, NoSurvivingModelError):
        return AssociationResult(window, [], np.full(len(window), NOISE_ID, dtype=np.int64))


def run_eda(stream, config) -> List[AssociationResult]:
    """Cut the stream into windows and fit each one, in stream order."""
    interval = EntropyInterval(config.entropy_alpha, config.entropy_beta)
    windows = cut_windows(stream, interval, config.entropy_grid, config.max_window_s)
    return [fit_window(w, config) for w in windows]


def relabel(results: Sequence[AssociationResult], n_events: int) -> np.ndarray:
    """Stream-wide trajectory ids for the per-window results of :func:`run_eda`.

    Each window's local ids are shifted by the model count of the windows
    before it; noise stays ``NOISE_ID``.
    """
    assignment = np.full(n_events, NOISE_ID, dtype=np.int64)
    next_id = 0
    for res in results:
        lo = res.window.offset
        local = res.assignment
        assignment[lo:lo + local.size] = np.where(local == NOISE_ID, NOISE_ID, local + next_id)
        next_id += res.num_models
    return assignment
