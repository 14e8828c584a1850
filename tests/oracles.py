"""Reference line fits for the synthetic scenes, used only by the tests.

They measure what the pipeline should recover from a labelled window: the
total-least-squares line of each motion's events, and the direction a known
velocity traces in normalized voxel space.
"""
from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from evtraj.grouping import EventWindow
from evtraj.hypotheses import time_scale, window_voxels
from evtraj.synth import CLUTTER_LABEL


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


def expected_direction(
    velocity: Tuple[float, float],
    window: EventWindow,
) -> np.ndarray:
    """Unit direction a constant (vx, vy) motion traces in normalized voxel space."""
    s_t = time_scale(window.geometry)
    vx, vy = velocity
    d = np.array([vx * window.span, vy * window.span, s_t])
    return d / np.linalg.norm(d)
