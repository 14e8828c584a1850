"""Frame-wise tracking on top of event associations, with overlap metrics.

A ground-truth box at the current frame is propagated to the next frame by
translating its associated events along their estimated trajectory, and the
minimum enclosing rectangle of the projected events is scored against the
next frame's ground truth.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from .config import RunConfig
from .fitting import AssociationResult, fit_windows
from .grouping import EventWindow
from .hypotheses import time_scale, window_voxels
from .io import NOISE_ID, EventStream

SUCCESS_THRESHOLD = 0.5


class TrackingFailure(RuntimeError):
    """Too few associated events inside the box to propagate it."""


@dataclass(frozen=True)
class BoundingBox:
    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if self.w <= 0 or self.h <= 0:
            raise ValueError("box must have positive size")

    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True)
class TrackingPair:
    """Two ground-truth boxes for the same object on adjacent frames."""

    t_curr: float
    t_next: float
    gt_curr: BoundingBox
    gt_next: BoundingBox

    def __post_init__(self) -> None:
        if not self.t_next > self.t_curr:
            raise ValueError("pair must advance in time")


@dataclass(frozen=True)
class EvalReport:
    aor: float
    ar: float
    n_rep: int
    n_pair: int
    per_pair: np.ndarray      # (n_rep, n_pair) overlaps
    per_success: np.ndarray   # (n_rep, n_pair) 0/1 successes


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection-over-union of two axis-aligned boxes."""
    ix = max(0.0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
    iy = max(0.0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
    inter = ix * iy
    union = a.area() + b.area() - inter
    return inter / union if union > 0 else 0.0


def pairs_from_annotations(rows: np.ndarray) -> List[TrackingPair]:
    """Adjacent-row box annotations -> tracking pairs."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 5)
    pairs = []
    for a, b in zip(rows[:-1], rows[1:]):
        pairs.append(
            TrackingPair(
                t_curr=float(a[0]),
                t_next=float(b[0]),
                gt_curr=BoundingBox(*a[1:]),
                gt_next=BoundingBox(*b[1:]),
            )
        )
    return pairs


def propagate_box(
    assoc: AssociationResult,
    box: BoundingBox,
    t_target: float,
    min_events: int = RunConfig.min_inliers,
) -> BoundingBox:
    """Translate the box's associated events along their trajectory to ``t_target``.

    The events are those of ``assoc.window``. The instance owning the
    plurality of non-noise events inside the box is taken as the object's
    motion: its events move along the instance's ``direction``. Returns the
    minimum enclosing rectangle of the projected events, clipped to the sensor.
    """
    window = assoc.window
    u = window.u.astype(np.float64)
    v = window.v.astype(np.float64)
    inside = (
        (u >= box.x) & (u < box.x + box.w) & (v >= box.y) & (v < box.y + box.h)
    )
    cand = inside & (assoc.assignment != NOISE_ID)
    if int(cand.sum()) < min_events:
        raise TrackingFailure(f"only {int(cand.sum())} associated events inside the box")
    ids, counts = np.unique(assoc.assignment[cand], return_counts=True)
    owner = int(ids[np.argmax(counts)])
    inst = assoc.instances[owner]

    sel = cand & (assoc.assignment == owner)
    vox = window_voxels(window)[sel]
    s_t = time_scale(window.geometry)
    tn_target = (t_target - window.t_start) / window.span * s_t
    d = inst.direction
    du, dv = d[0] / d[2], d[1] / d[2]
    pu = vox[:, 0] + du * (tn_target - vox[:, 2])
    pv = vox[:, 1] + dv * (tn_target - vox[:, 2])
    geom = window.geometry
    pu = np.clip(pu, 0.0, geom.width - 1.0)
    pv = np.clip(pv, 0.0, geom.height - 1.0)
    x0, x1 = float(pu.min()), float(pu.max())
    y0, y1 = float(pv.min()), float(pv.max())
    return BoundingBox(x0, y0, max(x1 - x0, 1.0), max(y1 - y0, 1.0))


def _pair_window(stream: EventStream, pair: TrackingPair, min_events: int) -> EventWindow:
    """The events between the pair's frames; too few of them fail the pair."""
    lo = int(np.searchsorted(stream.t, pair.t_curr, side="left"))
    hi = int(np.searchsorted(stream.t, pair.t_next, side="right"))
    if hi - lo < min_events:
        raise TrackingFailure(f"only {hi - lo} events between the frames")
    return EventWindow.of(stream, lo, hi, pair.t_curr, pair.t_next)


def track(
    stream: EventStream, pairs: Sequence[TrackingPair], config
) -> List[Union[BoundingBox, TrackingFailure]]:
    """Propagate each pair's current box to its next frame.

    Every pair window is fitted in one :func:`fit_windows` call. Each entry is
    the propagated box, or the :class:`TrackingFailure` that stopped its pair:
    fewer than ``config.min_inliers`` events between the frames, a failed fit,
    or too few associated events inside the box.
    """
    out: list = [None] * len(pairs)
    windows = {}
    for k, pair in enumerate(pairs):
        try:
            windows[k] = _pair_window(stream, pair, config.min_inliers)
        except TrackingFailure as exc:
            out[k] = exc
    for k, result in zip(windows, fit_windows(list(windows.values()), config)):
        pair = pairs[k]
        try:
            if result.failed:
                raise TrackingFailure("no trajectory fitted between the frames")
            out[k] = propagate_box(result, pair.gt_curr, pair.t_next, config.min_inliers)
        except TrackingFailure as exc:
            out[k] = exc
    return out


def evaluate(
    stream: EventStream,
    pairs: Sequence[TrackingPair],
    config,
    n_rep: int = RunConfig.n_rep,
) -> EvalReport:
    """Score each tracking pair and aggregate over ``n_rep`` repetitions.

    Failed propagations score overlap 0. The pipeline is deterministic, so
    each pair is tracked once by :func:`track` and the row repeated ``n_rep``
    times.
    """
    if not pairs:
        raise ValueError("no tracking pairs")
    row = [iou(box, pair.gt_next) if isinstance(box, BoundingBox) else 0.0
           for box, pair in zip(track(stream, pairs, config), pairs)]
    overlaps = np.tile(np.asarray(row, dtype=np.float64), (n_rep, 1))
    success = (overlaps >= SUCCESS_THRESHOLD).astype(np.float64)
    return EvalReport(
        aor=float(overlaps.mean()),
        ar=float(success.mean()),
        n_rep=n_rep,
        n_pair=len(pairs),
        per_pair=overlaps,
        per_success=success,
    )
