"""Shared synthetic scene builders for the test suites.

The builders freeze the scene families used across the fitting, tracking,
and acceptance tests: well-separated constant-velocity lanes for multi-model
recovery (and the larger two-lane tile of the benchmark), and a translating
rigid group of point emitters for box tracking.
``events_of`` lists a stream's events as plain tuples, and ``window_of``
builds a window from bare event arrays.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from evtraj.config import RunConfig
from evtraj.grouping import EventWindow
from evtraj.io import EventStream, SensorGeometry
from evtraj.synth import MotionSpec, SceneData, SyntheticScene, generate_scene
from evtraj.tracking import BoundingBox, TrackingPair


def events_of(stream):
    """The stream's events as ``(t, u, v, p)`` tuples."""
    return list(zip(stream.t.tolist(), stream.u.tolist(), stream.v.tolist(),
                    stream.p.tolist()))


def window_of(geometry, t, u, v, t_start, t_end) -> EventWindow:
    """A window over every event of the arrays, through a stream that validates them.

    Polarity is 0.
    """
    stream = EventStream(geometry, t, u, v, np.zeros(len(t), np.uint8))
    return EventWindow(stream, 0, len(stream), t_start, t_end)


# --- multi-lane association scenes (64 x 64, one 50 ms window) ---

LANE_GEOMETRY = SensorGeometry(64, 64)
LANE_DURATION = 0.05
LANE_EVENTS_PER_MOTION = 60
LANE_NOISE_SIGMA = 0.32  # px, well inside the default 1.5 px inlier radius
LANES = (
    ((960.0, 0.0), BoundingBox(6, 10, 2, 2)),
    ((-960.0, 0.0), BoundingBox(56, 22, 2, 2)),
    ((0.0, 960.0), BoundingBox(44, 6, 2, 2)),
)


def lane_scene(num_motions: int, seed: int, clutter_frac: float = 0.2) -> SyntheticScene:
    """K constant-velocity point motions plus mid-window uniform clutter."""
    rate = LANE_EVENTS_PER_MOTION / LANE_DURATION
    motions = tuple(
        MotionSpec("point", vel, region, rate, LANE_NOISE_SIGMA, time_profile="regular")
        for vel, region in LANES[:num_motions]
    )
    return SyntheticScene(
        geometry=LANE_GEOMETRY,
        duration=LANE_DURATION,
        motions=motions,
        clutter_rate=clutter_frac * num_motions * rate,
        seed=seed,
        clutter_span=(0.12, 0.88),
    )


def lanes_tile(seed: int) -> SyntheticScene:
    """The 240x180 two-lane tile of the throughput floor: 0.5 s, ~8,700 events.

    Its default-band windows hold ~65 events, and their representatives
    gather families of dozens of lines.
    """
    return SyntheticScene(
        geometry=SensorGeometry(240, 180),
        duration=0.5,
        motions=(
            MotionSpec("point", (400.0, 0.0), BoundingBox(20, 40, 2, 2), 8000.0, 0.32, "regular"),
            MotionSpec("point", (0.0, 300.0), BoundingBox(120, 20, 2, 2), 8000.0, 0.32, "regular"),
        ),
        clutter_rate=1600.0,
        seed=seed,
    )


def lane_window(data: SceneData) -> EventWindow:
    return EventWindow(data.stream, 0, len(data.stream), 0.0, LANE_DURATION)


def lane_config(**overrides) -> RunConfig:
    return RunConfig(width=LANE_GEOMETRY.width, height=LANE_GEOMETRY.height, **overrides)


def hungarian_angles(expected: list, got: list) -> np.ndarray:
    """Minimal-cost matching of direction sets; returns matched angles in degrees."""
    cost = np.array(
        [
            [
                np.degrees(np.arccos(np.clip(abs(float(np.dot(e, g))), -1.0, 1.0)))
                for g in got
            ]
            for e in expected
        ]
    )
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols]


# --- translating-box tracking scenes (rigid group of point emitters) ---

TRACK_GEOMETRY = SensorGeometry(64, 64)
TRACK_BOX = BoundingBox(6.0, 6.0, 32.0, 32.0)
TRACK_VELOCITY = (40.0, 20.0)
TRACK_FRAME = 0.02
TRACK_FRAMES = 20
TRACK_INSET = 1.0


def _emitters(corners_only: bool) -> list:
    b = TRACK_BOX
    xs = (b.x + TRACK_INSET, b.x + b.w / 2, b.x + b.w - TRACK_INSET)
    ys = (b.y + TRACK_INSET, b.y + b.h / 2, b.y + b.h - TRACK_INSET)
    if corners_only:
        return [(x, y) for x in (xs[0], xs[2]) for y in (ys[0], ys[2])]
    return [(x, y) for x in xs for y in ys if not (x == xs[1] and y == ys[1])]


def track_pairs(n_frames: int = TRACK_FRAMES) -> list:
    times = np.linspace(0.0, n_frames * TRACK_FRAME, n_frames + 1)
    vx, vy = TRACK_VELOCITY
    b = TRACK_BOX
    return [
        TrackingPair(
            float(a),
            float(c),
            BoundingBox(b.x + vx * a, b.y + vy * a, b.w, b.h),
            BoundingBox(b.x + vx * c, b.y + vy * c, b.w, b.h),
        )
        for a, c in zip(times[:-1], times[1:])
    ]


def track_stream(rate_per_emitter: float = 750.0, seed: int = 0) -> EventStream:
    """A clean continuous stream: eight emitters on the box perimeter."""
    duration = TRACK_FRAMES * TRACK_FRAME
    motions = tuple(
        MotionSpec(
            "point",
            TRACK_VELOCITY,
            BoundingBox(x - 0.5, y - 0.5, 1, 1),
            rate_per_emitter,
            LANE_NOISE_SIGMA,
            time_profile="regular",
        )
        for x, y in _emitters(corners_only=False)
    )
    scene = SyntheticScene(TRACK_GEOMETRY, duration, motions, 0.0, seed)
    return generate_scene(scene).stream


def framed_track_stream(
    rate_per_emitter: float = 2000.0, clutter_frac: float = 0.15
) -> EventStream:
    """A harder stream: four corner emitters, per-frame centered timing, clutter.

    Built frame by frame so every tracking window sees a mid-window bump of
    structure events framed by sparse endpoints, with clutter confined away
    from the window edges.
    """
    vx, vy = TRACK_VELOCITY
    pts = _emitters(corners_only=True)
    ts, us, vs, ps = [], [], [], []
    for f in range(TRACK_FRAMES):
        t0 = f * TRACK_FRAME
        motions = tuple(
            MotionSpec(
                "point",
                TRACK_VELOCITY,
                BoundingBox(x - 0.5 + vx * t0, y - 0.5 + vy * t0, 1, 1),
                rate_per_emitter,
                LANE_NOISE_SIGMA,
                time_profile="regular-centered",
                time_sigma_frac=0.25,
            )
            for x, y in pts
        )
        scene = SyntheticScene(
            TRACK_GEOMETRY,
            TRACK_FRAME,
            motions,
            clutter_frac * rate_per_emitter * len(pts),
            seed=f,
            clutter_span=(0.12, 0.88),
        )
        s = generate_scene(scene).stream
        ts.append(s.t + t0)
        us.append(s.u)
        vs.append(s.v)
        ps.append(s.p)
    t = np.concatenate(ts)
    order = np.argsort(t, kind="stable")
    return EventStream(
        TRACK_GEOMETRY,
        t[order],
        np.concatenate(us)[order],
        np.concatenate(vs)[order],
        np.concatenate(ps)[order],
    )


def pair_windows() -> list:
    """The windows that tracking fits on :func:`framed_track_stream`, one per frame pair."""
    stream = framed_track_stream()
    return [EventWindow(stream, int(np.searchsorted(stream.t, p.t_curr, side="left")),
                        int(np.searchsorted(stream.t, p.t_next, side="right")), p.t_curr,
                        p.t_next)
            for p in track_pairs()]
