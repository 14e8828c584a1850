"""Seeded synthetic event scenes with ground-truth labels, motions, and boxes.

Each motion emits Poisson-timed events along a moving point, bar, or box
outline with Gaussian pixel jitter; clutter is uniform over space-time. The
generator is the independent oracle behind the fitting and tracking tests:
it knows every event's source, each motion's true velocity, and the object
box at any time.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Tuple

import numpy as np
import yaml
from scipy import special

from .io import EventStream, SensorGeometry
from .tracking import BoundingBox

CLUTTER_LABEL = -1

KINDS = ("point", "bar", "box")


@dataclass(frozen=True)
class MotionSpec:
    """One constant-velocity structure."""

    kind: str
    velocity: Tuple[float, float]
    start_region: BoundingBox
    event_rate: float
    noise_sigma: float = 0.0
    time_profile: str = "uniform"  # uniform | centered | regular | regular-centered
    time_sigma_frac: float = 0.25  # centered profiles: std as a fraction of the duration

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown motion kind {self.kind!r}")
        if self.event_rate <= 0:
            raise ValueError("event_rate must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if self.time_profile not in ("uniform", "centered", "regular", "regular-centered"):
            raise ValueError(f"unknown time profile {self.time_profile!r}")
        if self.time_sigma_frac <= 0:
            raise ValueError("time_sigma_frac must be positive")


@dataclass(frozen=True)
class SyntheticScene:
    geometry: SensorGeometry
    duration: float
    motions: Tuple[MotionSpec, ...]
    clutter_rate: float = 0.0
    seed: int = 0
    clutter_span: Tuple[float, float] = (0.0, 1.0)  # clutter time range, duration fractions

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.clutter_rate < 0:
            raise ValueError("clutter_rate must be non-negative")
        lo, hi = self.clutter_span
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError("clutter_span must satisfy 0 <= lo < hi <= 1")


@dataclass(frozen=True)
class SceneData:
    """Generated stream plus the oracle truth."""

    scene: SyntheticScene
    stream: EventStream
    labels: np.ndarray  # per event: motion index or CLUTTER_LABEL

    def true_box(self, motion: int, t: float) -> BoundingBox:
        spec = self.scene.motions[motion]
        vx, vy = spec.velocity
        r = spec.start_region
        return BoundingBox(r.x + vx * t, r.y + vy * t, r.w, r.h)


def _sample_times(
    spec: MotionSpec, duration: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Sorted event times for one motion.

    The regular profiles place events at fixed distribution quantiles instead
    of drawing them, so sparse regions of the profile still receive their
    expected share of events.
    """
    if n == 0:
        return np.empty(0)
    if spec.time_profile == "uniform":
        return np.sort(rng.uniform(0.0, duration, size=n))
    if spec.time_profile == "centered":
        times = rng.normal(duration / 2, duration * spec.time_sigma_frac, size=n)
        return np.sort(np.clip(times, 0.0, duration))
    q = (np.arange(n) + 0.5) / n
    if spec.time_profile == "regular":
        return q * duration
    times = special.ndtri(q) * (duration * spec.time_sigma_frac) + duration / 2
    return np.clip(times, 0.0, duration)


def _base_positions(spec: MotionSpec, times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    r = spec.start_region
    n = times.size
    if spec.kind == "point":
        base = np.tile([r.x + r.w / 2, r.y + r.h / 2], (n, 1))
    elif spec.kind == "bar":
        off = rng.uniform(0.0, r.h, size=n)
        base = np.column_stack([np.full(n, r.x + r.w / 2), r.y + off])
    else:  # box outline
        per = 2.0 * (r.w + r.h)
        s = rng.uniform(0.0, per, size=n)
        base = np.empty((n, 2))
        for i, si in enumerate(s.tolist()):
            if si < r.w:
                base[i] = (r.x + si, r.y)
            elif si < r.w + r.h:
                base[i] = (r.x + r.w, r.y + si - r.w)
            elif si < 2 * r.w + r.h:
                base[i] = (r.x + (si - r.w - r.h), r.y + r.h)
            else:
                base[i] = (r.x, r.y + si - 2 * r.w - r.h)
    vx, vy = spec.velocity
    base[:, 0] += vx * times
    base[:, 1] += vy * times
    return base


def generate_scene(scene: SyntheticScene) -> SceneData:
    """Emit all motions and clutter, merged and time-sorted. Pure given the seed."""
    rng = np.random.default_rng(scene.seed)
    geom = scene.geometry
    ts, us, vs, ls = [], [], [], []
    for idx, spec in enumerate(scene.motions):
        n = int(rng.poisson(spec.event_rate * scene.duration))
        times = _sample_times(spec, scene.duration, n, rng)
        pos = _base_positions(spec, times, rng)
        if spec.noise_sigma > 0:
            pos += rng.normal(0.0, spec.noise_sigma, size=pos.shape)
        ts.append(times)
        us.append(pos[:, 0])
        vs.append(pos[:, 1])
        ls.append(np.full(n, idx, dtype=np.int64))
    if scene.clutter_rate > 0:
        n = int(rng.poisson(scene.clutter_rate * scene.duration))
        lo, hi = scene.clutter_span
        ts.append(np.sort(rng.uniform(lo * scene.duration, hi * scene.duration, size=n)))
        us.append(rng.uniform(0.0, geom.width - 1.0, size=n))
        vs.append(rng.uniform(0.0, geom.height - 1.0, size=n))
        ls.append(np.full(n, CLUTTER_LABEL, dtype=np.int64))

    t = np.concatenate(ts) if ts else np.empty(0)
    u = np.rint(np.concatenate(us) if us else np.empty(0)).astype(np.int64)
    v = np.rint(np.concatenate(vs) if vs else np.empty(0)).astype(np.int64)
    lab = np.concatenate(ls) if ls else np.empty(0, dtype=np.int64)

    keep = (u >= 0) & (u < geom.width) & (v >= 0) & (v < geom.height)
    t, u, v, lab = t[keep], u[keep], v[keep], lab[keep]
    order = np.argsort(t, kind="stable")
    t, u, v, lab = t[order], u[order], v[order], lab[order]
    p = rng.integers(0, 2, size=t.size).astype(np.uint8)

    stream = EventStream(geom, t, u, v, p)
    return SceneData(scene=scene, stream=stream, labels=lab)


def scene_from_file(path: str) -> SyntheticScene:
    """Load a scene spec document (YAML mapping mirroring SyntheticScene)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    return scene_from_dict(data)


def _mapping(doc, where: str) -> None:
    if not isinstance(doc, Mapping):
        raise ValueError(f"{where} must be a mapping, got {type(doc).__name__}")


def _required(doc: Mapping, key: str, where: str):
    if key not in doc:
        raise ValueError(f"{where} is missing required key {key!r}")
    return doc[key]


def _numbers(value, size: int, key: str) -> List[float]:
    if not isinstance(value, (list, tuple)) or len(value) != size:
        raise ValueError(f"{key} must hold {size} numbers, got {value!r}")
    return [float(x) for x in value]


def scene_from_dict(data) -> SyntheticScene:
    """Build a scene from its document; a malformed document raises ``ValueError``."""
    _mapping(data, "scene")
    width, height = _numbers(_required(data, "geometry", "scene"), 2, "geometry")
    motions = []
    for i, m in enumerate(data.get("motions", [])):
        where = f"motion {i}"
        _mapping(m, where)
        motions.append(
            MotionSpec(
                kind=_required(m, "kind", where),
                velocity=tuple(_numbers(_required(m, "velocity", where), 2, "velocity")),
                start_region=BoundingBox(
                    *_numbers(_required(m, "start_region", where), 4, "start_region")),
                event_rate=float(_required(m, "event_rate", where)),
                noise_sigma=float(m.get("noise_sigma", 0.0)),
                time_profile=str(m.get("time_profile", "uniform")),
                time_sigma_frac=float(m.get("time_sigma_frac", 0.25)),
            )
        )
    return SyntheticScene(
        geometry=SensorGeometry(int(width), int(height)),
        duration=float(_required(data, "duration", "scene")),
        motions=tuple(motions),
        clutter_rate=float(data.get("clutter_rate", 0.0)),
        seed=int(data.get("seed", 0)),
        clutter_span=tuple(_numbers(data.get("clutter_span", (0.0, 1.0)), 2, "clutter_span")),
    )
