"""Frame-wise tracking on top of event associations, with overlap metrics.

A ground-truth box at the current frame is propagated to the next frame by
translating its associated events along their estimated trajectory, and the
minimum enclosing rectangle of the projected events is scored against the
next frame's ground truth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from .config import RunConfig
from .fitting import AssociationResult, fit_windows
from .grouping import EventWindow
from .hypotheses import time_scale
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
        if not all(map(math.isfinite, (self.x, self.y, self.w, self.h))):
            raise ValueError("box fields must be finite")
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
        if not (math.isfinite(self.t_curr) and math.isfinite(self.t_next)):
            raise ValueError("pair times must be finite")
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
    plurality of non-noise events inside the box (ties: the lowest id) is
    taken as the object's motion: its events move along the instance's
    ``direction``. Returns the minimum enclosing rectangle of the projected
    events, clipped to the sensor. Raises :class:`TrackingFailure` when the
    box holds fewer than ``min_events`` associated events, or none.
    """
    window = assoc.window
    u, v, ids = window.u, window.v, assoc.assignment
    cand = (u >= box.x) & (u < box.x + box.w) & (v >= box.y) & (v < box.y + box.h)
    cand &= ids != NOISE_ID
    sel = np.flatnonzero(cand)
    if sel.size < max(min_events, 1):
        raise TrackingFailure(f"only {sel.size} associated events inside the box")
    owner = 0
    if len(assoc.instances) > 1:
        owned = ids[sel]
        owner = int(np.bincount(owned).argmax())
        sel = sel[owned == owner]
    # event_voxels' normalised time, of the selected events only
    s_t = time_scale(window.geometry)
    tn = (window.t[sel] - window.t_start) / window.span * s_t
    dt = (t_target - window.t_start) / window.span * s_t - tn
    d = assoc.instances[owner].direction
    p = np.array([[d[0] / d[2]], [d[1] / d[2]]]) * dt  # each event's shift along u and v
    p[0] += u[sel]
    p[1] += v[sel]
    # clipping is monotonic: the clipped extremes are those of the clipped events
    (x0, y0), (x1, y1) = p.min(axis=1).tolist(), p.max(axis=1).tolist()
    geom = window.geometry
    x0, x1 = (min(max(x, 0.0), geom.width - 1.0) for x in (x0, x1))
    y0, y1 = (min(max(y, 0.0), geom.height - 1.0) for y in (y0, y1))
    return BoundingBox(x0, y0, max(x1 - x0, 1.0), max(y1 - y0, 1.0))


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
    lo = np.searchsorted(stream.t, [p.t_curr for p in pairs], side="left").tolist()
    hi = np.searchsorted(stream.t, [p.t_next for p in pairs], side="right").tolist()
    windows = {}
    for k, (pair, a, b) in enumerate(zip(pairs, lo, hi)):
        if b - a < config.min_inliers:
            out[k] = TrackingFailure(f"only {b - a} events between the frames")
        else:
            windows[k] = EventWindow(stream, a, b, pair.t_curr, pair.t_next)
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
    if n_rep < 1:
        raise ValueError("n_rep must be >= 1")
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
