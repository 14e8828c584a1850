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

from .grouping import EntropyInterval, EventWindow, cut_windows
from .hypotheses import (
    HypothesisError,
    HypothesisSet,
    LineHypothesis,
    LineSet,
    generate,
    select_representatives,
    time_scale,
    window_voxels,
)
from .io import NOISE_ID

DEFAULT_TAU = 0.01
DEFAULT_IKOSE_K = 0.01
DEFAULT_MIN_INLIERS = 3

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
    """A surviving hypothesis with its inliers and both weighting stages."""

    hypothesis: LineHypothesis
    rep_index: int  # position among the window's representatives, not in HypothesisSet.all
    inliers: np.ndarray
    w_stage1: float
    w_final: float


@dataclass(frozen=True)
class AssociationResult:
    """Selected model instances plus the per-event trajectory assignment."""

    window: EventWindow
    instances: List[WeightedModel]
    assignment: np.ndarray
    failed: bool = False

    @property
    def num_models(self) -> int:
        return len(self.instances)


def point_line_distances(voxels: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Perpendicular distances from (n, 3) voxels to the m infinite lines."""
    voxels = np.asarray(voxels, dtype=np.float64).reshape(-1, 3)
    starts = np.asarray(starts, dtype=np.float64).reshape(-1, 3)
    ends = np.asarray(ends, dtype=np.float64).reshape(-1, 3)
    d = ends - starts
    lengths = np.linalg.norm(d, axis=1)
    diff = voxels[:, None, :] - starts[None, :, :]
    cross = np.cross(diff, d[None, :, :])
    return np.linalg.norm(cross, axis=2) / lengths


def residual_matrix(vox: np.ndarray, lines: LineSet) -> np.ndarray:
    """Voxel-to-line residuals (events x lines), each column scaled to unit norm.

    An all-zero column stays zero.
    """
    raw = point_line_distances(vox, lines.starts, lines.ends)
    norms = np.linalg.norm(raw, axis=0)
    return raw / np.where(norms > 0, norms, 1.0)


def estimate_tau_ikose(column: np.ndarray, k_ratio: float = DEFAULT_IKOSE_K) -> NoiseScale:
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
    min_inliers: int = DEFAULT_MIN_INLIERS,
) -> List[tuple[int, np.ndarray]]:
    """Per-column inlier index sets of a residual matrix; columns below the floor are dropped."""
    mask = values < scale.tau
    survivors = []
    for j in range(mask.shape[1]):
        idx = np.flatnonzero(mask[:, j])
        if idx.size >= min_inliers:
            survivors.append((j, idx))
    if not survivors:
        raise NoSurvivingModelError("all hypotheses dropped at the inlier floor")
    return survivors


def stage1_weight(inlier_times: np.ndarray, s_t: float) -> float:
    """Mean squared deviation of inlier (normalized) timestamps from mid-window."""
    t = np.asarray(inlier_times, dtype=np.float64)
    return float(np.mean((t - s_t / 2.0) ** 2))


def warp_and_contrast(
    voxels: np.ndarray,
    inliers: np.ndarray,
    hyp: LineHypothesis,
) -> float:
    """Contrast of the inlier image warped along the hypothesis to the t=0 plane.

    Inliers translate along the hypothesis direction, land on integer pixels,
    and accumulate into a count image cropped to the non-zero extent. Counts
    are normalized by their maximum so the variance (the returned contrast)
    stays in [0, 1].
    """
    pts = np.asarray(voxels, dtype=np.float64)[np.asarray(inliers)]
    d = hyp.direction
    plane = pts[:, :2] - (d[:2] / d[2]) * pts[:, 2:3]
    ij = np.rint(plane).astype(np.int64)
    ij -= ij.min(axis=0)
    w = int(ij[:, 0].max()) + 1
    h = int(ij[:, 1].max()) + 1
    counts = np.zeros((h, w))
    np.add.at(counts, (ij[:, 1], ij[:, 0]), 1.0)
    norm = counts / counts.max()
    return float(np.mean((norm - norm.mean()) ** 2))


def stage2_weight(w: float, contrast: float) -> float:
    return w * (1.0 - contrast)


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
) -> List[WeightedModel]:
    """Apply both weighting stages to the surviving representatives.

    ``s_t`` is the length of the normalized time axis (:func:`time_scale`).
    """
    models = []
    for j, inliers in survivors:
        hyp = reps[j]
        w1 = stage1_weight(vox[inliers, 2], s_t)
        contrast = warp_and_contrast(vox, inliers, hyp)
        models.append(
            WeightedModel(
                hypothesis=hyp,
                rep_index=j,
                inliers=inliers,
                w_stage1=w1,
                w_final=stage2_weight(w1, contrast),
            )
        )
    return models


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


def _all_noise(window: EventWindow) -> AssociationResult:
    return AssociationResult(
        window=window,
        instances=[],
        assignment=np.full(len(window), NOISE_ID, dtype=np.int64),
        failed=True,
    )


def fit_window(window: EventWindow, config) -> AssociationResult:
    """Run hypothesis generation through association for one window.

    Failures (no usable slices, no surviving model) degrade to a flagged
    all-noise result instead of raising.
    """
    try:
        lines = generate(window, config.num_slices, config.max_pairs)
        hyps = select_representatives(lines, config.parallel_tol)
        reps = hyps.representatives
        vox = window_voxels(window)
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
        models = weigh_models(vox, reps, survivors, time_scale(window.geometry))
        finals = [m.w_final for m in models]
        num_models = 1 if len(models) < 2 else select_model_count(finals)
        order = np.argsort(finals, kind="stable")[:num_models]
        instances = [models[int(i)] for i in order]
        return AssociationResult(window, instances, associate(vox, hyps, instances, scale))
    except (HypothesisError, NoSurvivingModelError):
        return _all_noise(window)


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
