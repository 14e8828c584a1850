"""Parsing, validation, and serialization of event streams and annotations.

File formats (all UTF-8 text, `#`-prefixed comment lines skipped):

* event file:        ``t u v p`` per line, t in decimal seconds, p in {0, 1}
* association file:  ``event_index trajectory_id`` per line, -1 = noise
* box file:          ``frame_timestamp x y w h`` per line, axis-aligned pixels
"""
from __future__ import annotations

import io as _stdio
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

NOISE_ID = -1

POLARITY_OFF = 0
POLARITY_ON = 1


class FormatError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass(frozen=True)
class SensorGeometry:
    """Pixel resolution of the emitting sensor."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"degenerate sensor geometry {self.width}x{self.height}")


@dataclass(frozen=True)
class Event:
    """A single asynchronous retinal event."""

    t: float
    u: int
    v: int
    p: int


class EventStream:
    """An immutable, time-ordered sequence of events with a fixed geometry.

    Events are stored as parallel numpy arrays; single events materialize as
    :class:`Event` on indexed access.
    """

    __slots__ = ("geometry", "t", "u", "v", "p")

    def __init__(
        self,
        geometry: SensorGeometry,
        t: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        p: np.ndarray,
    ) -> None:
        t = np.asarray(t, dtype=np.float64)
        u = np.asarray(u, dtype=np.int32)
        v = np.asarray(v, dtype=np.int32)
        p = np.asarray(p, dtype=np.uint8)
        n = t.size
        if not (u.size == v.size == p.size == n):
            raise ValueError("event field arrays must have equal length")
        if n:
            if not np.all(np.isfinite(t)):
                raise FormatError("non-finite timestamp")
            if t[0] < 0:
                raise FormatError("negative timestamp")
            if np.any(np.diff(t) < 0):
                raise FormatError("timestamps are not non-decreasing")
            if np.any(u < 0) or np.any(u >= geometry.width):
                raise FormatError("u coordinate out of sensor bounds")
            if np.any(v < 0) or np.any(v >= geometry.height):
                raise FormatError("v coordinate out of sensor bounds")
            if np.any(p > 1):
                raise FormatError("polarity must be 0 or 1")
        for a in (t, u, v, p):
            a.setflags(write=False)
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("EventStream is immutable")

    def __len__(self) -> int:
        return int(self.t.size)

    def __getitem__(self, i: int) -> Event:
        return Event(float(self.t[i]), int(self.u[i]), int(self.v[i]), int(self.p[i]))

    def __iter__(self) -> Iterator[Event]:
        for i in range(len(self)):
            yield self[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return (
            self.geometry == other.geometry
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.u, other.u)
            and np.array_equal(self.v, other.v)
            and np.array_equal(self.p, other.p)
        )

    @classmethod
    def from_events(cls, geometry: SensorGeometry, events: Sequence[Event]) -> "EventStream":
        return cls(
            geometry,
            np.array([e.t for e in events], dtype=np.float64),
            np.array([e.u for e in events], dtype=np.int32),
            np.array([e.v for e in events], dtype=np.int32),
            np.array([e.p for e in events], dtype=np.uint8),
        )


def _decode(source: Union[bytes, str]) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8")
    return source


def parse_stream(source: Union[bytes, str], geometry: SensorGeometry) -> EventStream:
    """Parse a `t u v p` event file. Out-of-order input is rejected, not sorted."""
    ts, us, vs, ps = [], [], [], []
    prev_t = -np.inf
    for lineno, line in enumerate(_decode(source).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise FormatError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            t = float(parts[0])
            u = int(parts[1])
            v = int(parts[2])
            p = int(parts[3])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        if not np.isfinite(t) or t < 0:
            raise FormatError(f"line {lineno}: invalid timestamp {parts[0]}")
        if t < prev_t:
            raise FormatError(f"line {lineno}: timestamp regression ({t} < {prev_t})")
        if not (0 <= u < geometry.width and 0 <= v < geometry.height):
            raise FormatError(f"line {lineno}: coordinate ({u}, {v}) out of bounds "
                              f"for {geometry.width}x{geometry.height}")
        if p not in (0, 1):
            raise FormatError(f"line {lineno}: polarity must be 0 or 1, got {parts[3]}")
        prev_t = t
        ts.append(t)
        us.append(u)
        vs.append(v)
        ps.append(p)
    return EventStream(
        geometry,
        np.array(ts, dtype=np.float64),
        np.array(us, dtype=np.int32),
        np.array(vs, dtype=np.int32),
        np.array(ps, dtype=np.uint8),
    )


def serialize_stream(stream: EventStream) -> bytes:
    """Inverse of :func:`parse_stream`; timestamps keep full double precision."""
    out = _stdio.StringIO()
    t = stream.t.tolist()
    u = stream.u.tolist()
    v = stream.v.tolist()
    p = stream.p.tolist()
    for i in range(len(t)):
        out.write(f"{t[i]!r} {u[i]} {v[i]} {p[i]}\n")
    return out.getvalue().encode("utf-8")


ASSOCIATION_HEADER = "# event_index trajectory_id"


def format_associations(assignment: np.ndarray) -> bytes:
    """Render a per-event trajectory assignment (noise = -1) as text."""
    lines = [ASSOCIATION_HEADER]
    for i, label in enumerate(np.asarray(assignment).tolist()):
        lines.append(f"{i} {int(label)}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_associations(assignment: np.ndarray, path) -> None:
    """Write a per-event trajectory assignment to the file at ``path``."""
    with open(path, "wb") as fh:
        fh.write(format_associations(assignment))


def read_associations(source: Union[bytes, str]) -> np.ndarray:
    """Read back :func:`format_associations` output; returns the assignment array.

    Every index in ``[0, rows)`` must appear exactly once.
    """
    pairs = []
    for lineno, line in enumerate(_decode(source).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 2 fields")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    assignment = np.empty(len(pairs), dtype=np.int64)
    seen = set()
    for idx, label in pairs:
        if not 0 <= idx < assignment.size:
            raise FormatError(f"event index {idx} out of range")
        if idx in seen:
            raise FormatError(f"event index {idx} listed twice")
        seen.add(idx)
        assignment[idx] = label
    return assignment


def read_box_annotations(source: Union[bytes, str]) -> np.ndarray:
    """Read `frame_timestamp x y w h` ground-truth boxes as an (n, 5) float array."""
    rows = []
    for lineno, line in enumerate(_decode(source).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise FormatError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            rows.append([float(x) for x in parts])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        if rows[-1][3] <= 0 or rows[-1][4] <= 0:
            raise FormatError(f"line {lineno}: non-positive box size")
    return np.array(rows, dtype=np.float64).reshape(-1, 5)


def format_box_annotations(rows: np.ndarray) -> bytes:
    out = _stdio.StringIO()
    for t, x, y, w, h in np.asarray(rows, dtype=float).tolist():
        out.write(f"{t!r} {x!r} {y!r} {w!r} {h!r}\n")
    return out.getvalue().encode("utf-8")
