"""Seeded benchmark inputs.

Every workload is a set of event files, processed one at a time, and a set of
annotated track segments. Each cycle of the benchmark does what a user does
with them: parse each file, run ``evtraj associate`` on it, call ``run_eda``
on the parsed stream, and score each segment with ``evaluate``. The
workloads differ in their inputs:

* ``lanes_fine``: 0.5 s tiles of the throughput-floor lane scene at the
  default entropy band, so windows are small and per-call overhead dominates;
* ``track_eval``: 0.4 s segments of the framed box-tracking stream, each
  associated and evaluated; ``evaluate`` dominates.

``lanes_fine`` also evaluates two track segments, so every end-to-end metric
has a value on every workload.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from evtraj.config import RunConfig
from evtraj.io import EventStream, SensorGeometry, serialize_stream
from evtraj.synth import MotionSpec, SyntheticScene, generate_scene
from evtraj.tracking import BoundingBox, TrackingPair

# The scene of tests/test_acceptance.py::test_throughput_floor, one file per
# 0.5 s tile. Short tiles keep both motions on the sensor: a single longer
# scene loses them after ~0.55 s and turns into clutter only.
LANE_GEOMETRY = SensorGeometry(240, 180)
LANE_TILE_S = 0.5
LANE_MOTIONS = (
    MotionSpec("point", (400.0, 0.0), BoundingBox(20, 40, 2, 2), 8000.0, 0.32, "regular"),
    MotionSpec("point", (0.0, 300.0), BoundingBox(120, 20, 2, 2), 8000.0, 0.32, "regular"),
)
LANE_CLUTTER_RATE = 1600.0

# The stream of tests/conftest.py::framed_track_stream, one segment: four
# corner emitters of a translating 32x32 box, per-frame centred timing and
# 15% clutter away from the frame edges.
TRACK_GEOMETRY = SensorGeometry(64, 64)
TRACK_BOX = BoundingBox(6.0, 6.0, 32.0, 32.0)
TRACK_VELOCITY = (40.0, 20.0)
TRACK_FRAME_S = 0.02
TRACK_FRAMES = 20
TRACK_RATE = 2000.0
TRACK_CLUTTER_FRAC = 0.15

# distinct families of sub-seeds drawn from one workload seed
_LANE_STREAM, _TRACK_STREAM = 0, 1


@dataclass(frozen=True)
class Spec:
    lane_tiles: int          # 0: the workload associates its track segments
    track_segments: int


SPECS = {
    "lanes_fine": Spec(lane_tiles=4, track_segments=2),
    "track_eval": Spec(lane_tiles=0, track_segments=5),
}


@dataclass(frozen=True)
class Recording:
    """One event file: a tile or a segment, processed on its own."""

    stream: EventStream
    labels: np.ndarray           # per event: motion index, or -1 for clutter
    text: bytes                  # ``stream`` as an event file


@dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs."""

    recordings: List[Recording]  # associated one file at a time
    config: RunConfig            # the configuration ``associate`` and ``run_eda`` use
    cli_flags: List[str]         # the same configuration as ``evtraj associate`` flags
    tracks: List[Tuple[EventStream, List[TrackingPair]]]  # evaluated one segment at a time
    eval_config: RunConfig


def _sub_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def lane_tile(seed: int, k: int) -> Recording:
    scene = SyntheticScene(LANE_GEOMETRY, LANE_TILE_S, LANE_MOTIONS, LANE_CLUTTER_RATE,
                           seed=_sub_seed(seed, _LANE_STREAM, k))
    data = generate_scene(scene)
    return Recording(data.stream, data.labels, serialize_stream(data.stream))


def _corners() -> list:
    b = TRACK_BOX
    return [(x, y) for x in (b.x + 1.0, b.x + b.w - 1.0) for y in (b.y + 1.0, b.y + b.h - 1.0)]


def _box_at(t: float) -> BoundingBox:
    vx, vy = TRACK_VELOCITY
    return BoundingBox(TRACK_BOX.x + vx * t, TRACK_BOX.y + vy * t, TRACK_BOX.w, TRACK_BOX.h)


def track_segment(seed: int, k: int) -> tuple[Recording, List[TrackingPair]]:
    """One segment of the framed track stream and its adjacent-frame box pairs.

    Built frame by frame, like tests/conftest.py::framed_track_stream, with
    one sub-seed per frame.
    """
    vx, vy = TRACK_VELOCITY
    ts, us, vs, ps, ls = [], [], [], [], []
    for f in range(TRACK_FRAMES):
        t0 = f * TRACK_FRAME_S
        motions = tuple(
            MotionSpec("point", TRACK_VELOCITY,
                       BoundingBox(x - 0.5 + vx * t0, y - 0.5 + vy * t0, 1, 1),
                       TRACK_RATE, 0.32, time_profile="regular-centered", time_sigma_frac=0.25)
            for x, y in _corners()
        )
        scene = SyntheticScene(TRACK_GEOMETRY, TRACK_FRAME_S, motions,
                               TRACK_CLUTTER_FRAC * TRACK_RATE * len(motions),
                               seed=_sub_seed(seed, _TRACK_STREAM, k, f),
                               clutter_span=(0.12, 0.88))
        data = generate_scene(scene)
        ts.append(data.stream.t + t0)
        us.append(data.stream.u)
        vs.append(data.stream.v)
        ps.append(data.stream.p)
        ls.append(data.labels)
    t = np.concatenate(ts)
    order = np.argsort(t, kind="stable")
    stream = EventStream(TRACK_GEOMETRY, t[order], np.concatenate(us)[order],
                         np.concatenate(vs)[order], np.concatenate(ps)[order])
    times = np.linspace(0.0, TRACK_FRAMES * TRACK_FRAME_S, TRACK_FRAMES + 1)
    pairs = [TrackingPair(float(a), float(c), _box_at(float(a)), _box_at(float(c)))
             for a, c in zip(times[:-1], times[1:])]
    recording = Recording(stream, np.concatenate(ls)[order], serialize_stream(stream))
    return recording, pairs


def build(name: str, seed: int) -> Inputs:
    """Generate a workload's inputs from its seed; the same seed gives the same bytes."""
    spec = SPECS[name]
    segments = [track_segment(seed, k) for k in range(spec.track_segments)]
    tracks = [(rec.stream, pairs) for rec, pairs in segments]
    if spec.lane_tiles:
        recordings = [lane_tile(seed, k) for k in range(spec.lane_tiles)]
    else:
        recordings = [rec for rec, _ in segments]
    geom = recordings[0].stream.geometry
    config = RunConfig(width=geom.width, height=geom.height)
    flags = ["--geometry", f"{geom.width}x{geom.height}"]
    eval_config = RunConfig(width=TRACK_GEOMETRY.width, height=TRACK_GEOMETRY.height)
    return Inputs(recordings, config, flags, tracks, eval_config)
