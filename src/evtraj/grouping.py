"""Asynchronous event accumulation and entropy-driven window cutting.

Events update a time surface with linear decay: the most recent write at a
pixel holds 1 and older writes fade toward 0 proportionally to their age
within the window, whatever their polarity. A window is cut when the grid
entropy of the surface enters a configured confidence interval, or when a
maximum span is exceeded (safety valve for near-static scenes).

The decayed value of a cell written at time ``s`` is ``(s - t0) / (t - t0)``
where ``t0`` is the window start and ``t`` the last update. Internally only
raw write offsets ``s - t0`` are stored, and only for the pixels and grid
tiles written since the window start; normalization happens on read. Since
the grid entropy is invariant under a common positive rescaling of all tile
sums, the entropy can be maintained incrementally in O(1) per event directly
on the raw offsets. One frame is reset at every window start, and the
per-event update runs inside one frame method over each window's events.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import stats

from .config import RunConfig
from .io import EventStream, SensorGeometry


class GroupingError(ValueError):
    pass


@dataclass(frozen=True)
class EntropyInterval:
    """Closed entropy band [alpha, beta], in bits, that triggers a window cut."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (0 <= self.alpha <= self.beta):
            raise ValueError(f"invalid entropy interval [{self.alpha}, {self.beta}]")

    def contains(self, h: float) -> bool:
        return self.alpha <= h <= self.beta


@dataclass(frozen=True, slots=True)
class EventWindow:
    """A contiguous time-bounded slice of an event stream, in time order.

    ``offset`` is the index of the first event within the parent stream, so
    per-window results can be mapped back to global event indices.
    """

    geometry: SensorGeometry
    t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    t_start: float
    t_end: float
    offset: int = 0

    def __post_init__(self) -> None:
        t = self.t
        if not self.t_end > self.t_start:
            raise ValueError("window must have positive span")
        if t.size and (t[0] < self.t_start or t[-1] > self.t_end):
            raise ValueError("window events outside [t_start, t_end]")
        if np.count_nonzero(t[1:] < t[:-1]):
            raise ValueError("window events out of time order")

    @classmethod
    def of(cls, stream: EventStream, lo: int, hi: int,
           t_start: float, t_end: float) -> "EventWindow":
        """The events ``stream[lo:hi]`` as a window over ``[t_start, t_end]``."""
        return cls(stream.geometry, stream.t[lo:hi], stream.u[lo:hi], stream.v[lo:hi],
                   t_start=t_start, t_end=t_end, offset=lo)

    def __len__(self) -> int:
        return int(self.t.size)

    @property
    def span(self) -> float:
        return self.t_end - self.t_start


class AtsltdFrame:
    """Time surface with linear decay and incremental grid entropy.

    Only the pixels and tiles written since the window start hold state (the
    raw offset of each pixel's last write, raw sums per tile), so a frame costs
    nothing per sensor pixel and :meth:`reset` starts the next window on the
    same frame. Events are applied by :meth:`scan`, which runs over a range of
    events; :meth:`update_raw` applies one.
    """

    def __init__(self, geometry: SensorGeometry, window_start: float,
                 grid: int = RunConfig.entropy_grid):
        if grid < 1:
            raise ValueError("grid must be >= 1")
        if geometry.width < grid or geometry.height < grid:
            raise ValueError("frame dimensions must be >= grid")
        self.geometry = geometry
        self.grid = int(grid)
        self._tiles_per_row = -(-geometry.width // self.grid)
        self._latest: Dict[int, float] = {}   # pixel -> raw offset of its last write
        self._tiles: Dict[int, float] = {}    # tile -> sum of its pixels' latest offsets
        self.reset(window_start)

    def reset(self, window_start: float) -> None:
        """Empty the surface and start a new window at ``window_start``."""
        self.window_start = float(window_start)
        self.last_update = self.window_start
        self._latest.clear()
        self._tiles.clear()
        self._tile_total = 0.0          # S  = sum of tile sums
        self._tile_xlog = 0.0           # T  = sum of tile * log2(tile)
        self._entropy = 0.0

    def locate(self, u, v) -> Tuple[List[int], List[int]]:
        """Flat pixel and tile indices of pixel coordinates, as :meth:`scan` takes them."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w, h = self.geometry.width, self.geometry.height
        outside = (u < 0) | (u >= w) | (v < 0) | (v >= h)
        if outside.any():
            i = int(outside.argmax())
            raise GroupingError(f"({u.flat[i]}, {v.flat[i]}) is not a pixel of the {w}x{h} frame")
        g = self.grid
        return (v * w + u).tolist(), ((v // g) * self._tiles_per_row + u // g).tolist()

    def update_raw(self, u: int, v: int, p: int, t: float) -> None:
        """Apply one event. ``p`` is ignored: the surface has no polarity channels."""
        pixels, tiles = self.locate([u], [v])
        self.scan([t], pixels, tiles, 0, 1)

    def scan(
        self,
        t: Sequence[float],
        pixels: Sequence[int],
        tiles: Sequence[int],
        lo: int,
        hi: int,
        interval: Optional[EntropyInterval] = None,
    ) -> int:
        """Apply events ``lo:hi`` in order, stopping at the first that closes the window.

        ``pixels`` and ``tiles`` come from :meth:`locate`. An event closes the
        window when its timestamp is past the window start and the entropy
        after its update lies in ``interval``. Returns that event's index, or
        ``hi`` when no event closes the window (always, without an interval).
        """
        alpha, beta = (interval.alpha, interval.beta) if interval else (math.inf, -math.inf)
        w0 = self.window_start
        last = self.last_update
        latest, sums = self._latest, self._tiles
        total, xlog, h = self._tile_total, self._tile_xlog, self._entropy
        log2 = math.log2
        try:
            for i in range(lo, hi):
                ti = t[i]
                if ti < last:
                    raise GroupingError(f"event at t={ti} precedes last update {last}")
                last = ti
                raw = ti - w0
                k = pixels[i]
                delta = raw - latest.get(k, 0.0)
                latest[k] = raw
                if delta != 0.0:
                    c = tiles[i]
                    a = sums.get(c, 0.0)
                    b = a + delta
                    sums[c] = b
                    total += delta
                    xlog += (b * log2(b) if b > 0.0 else 0.0) - (a * log2(a) if a > 0.0 else 0.0)
                    # grid entropy from S and T: log2(S) - T / S, clamped at 0
                    h = log2(total) - xlog / total if total > 0.0 else 0.0
                    if not h > 0.0:
                        h = 0.0
                if ti > w0 and alpha <= h <= beta:
                    return i
            return hi
        finally:
            self.last_update = last
            self._tile_total, self._tile_xlog, self._entropy = total, xlog, h

    @property
    def entropy(self) -> float:
        """Grid entropy of the surface, in bits (incremental form)."""
        return self._entropy

    @property
    def surface(self) -> np.ndarray:
        """The decayed surface, H x W: each pixel's last write in [0, 1], 0 if unwritten."""
        h, w = self.geometry.height, self.geometry.width
        out = np.zeros(h * w)
        raw = self._latest
        if raw:
            cells = np.fromiter(raw.keys(), dtype=np.int64, count=len(raw))
            offsets = np.fromiter(raw.values(), dtype=np.float64, count=len(raw))
            denom = self.last_update - self.window_start
            # with no time elapsed every write sits at the window start
            out[cells] = 1.0 if denom <= 0.0 else offsets / denom
        return out.reshape(h, w)


def cut_windows(
    stream: EventStream,
    interval: EntropyInterval,
    grid: int = RunConfig.entropy_grid,
    max_window: float = RunConfig.max_window_s,
) -> List[EventWindow]:
    """Scan the stream and cut it into windows at entropy or span boundaries.

    A window closes at the first event whose post-update entropy lies in the
    interval, or just before an event that would stretch the span past
    ``max_window``. Each window's end time seeds the start of the next, so the
    emitted windows partition the stream. A trailing partial window is emitted
    if it holds at least two events; a single trailing event is folded into
    the last emitted window.
    """
    if len(stream) == 0:
        raise GroupingError("cannot cut an empty stream")
    tl = stream.t.tolist()
    n = len(tl)

    windows: List[EventWindow] = []
    start_idx = i = 0
    w_start = tl[0]
    frame = AtsltdFrame(stream.geometry, w_start, grid)
    pixels, tiles = frame.locate(stream.u, stream.v)

    def emit(lo: int, hi: int, t0: float, t1: float) -> None:
        windows.append(EventWindow.of(stream, lo, hi, t0, t1))

    while i < n:
        ti = tl[i]
        # one limit for the include test, the hop and the close: a window
        # holds the events up to ``w_start + max_window`` and ends there
        if ti > w_start + max_window:
            if i > start_idx:
                t_end = w_start + max_window
                emit(start_idx, i, w_start, t_end)
                start_idx = i
                w_start = t_end
            if ti > w_start + max_window:
                # the current window is empty and the next event is beyond its
                # span: hop over the event-free stretch in whole-span steps
                steps = int((ti - w_start) / max_window)
                w_start += steps * max_window
                while ti > w_start + max_window:
                    w_start += max_window
            frame.reset(w_start)
        stop = bisect.bisect_right(tl, w_start + max_window, i, n)
        j = frame.scan(tl, pixels, tiles, i, stop, interval)
        if j < stop:
            emit(start_idx, j + 1, w_start, tl[j])
            start_idx = i = j + 1
            w_start = tl[j]
            frame.reset(w_start)
        else:
            i = stop

    if start_idx < n:
        count = n - start_idx
        t_last = tl[-1]
        if count >= 2 and t_last > w_start:
            emit(start_idx, n, w_start, t_last)
        elif windows:
            # fold a short tail into the previous window to keep the partition
            last = windows.pop()
            lo = last.offset
            emit(lo, n, last.t_start, max(last.t_end, t_last))
        else:
            emit(start_idx, n, w_start, max(t_last, w_start + max_window))
    return windows


def estimate_interval(
    windows: Sequence[EventWindow],
    grid: int = RunConfig.entropy_grid,
    confidence: float = 0.95,
) -> EntropyInterval:
    """Student-t confidence interval of mean terminal entropy over calibration windows.

    A window's terminal entropy is ``frame.entropy`` after its last event, the
    value :func:`cut_windows` compares to the band.
    """
    if len(windows) < 2:
        raise GroupingError("need at least 2 calibration windows")
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie in (0, 1)")
    samples = []
    for win in windows:
        frame = AtsltdFrame(win.geometry, win.t_start, grid)
        pixels, tiles = frame.locate(win.u, win.v)
        frame.scan(win.t.tolist(), pixels, tiles, 0, len(win))
        samples.append(frame.entropy)
    arr = np.asarray(samples)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1))
    half = float(stats.t.ppf((1 + confidence) / 2, arr.size - 1)) * sd / math.sqrt(arr.size)
    return EntropyInterval(max(0.0, mean - half), mean + half)
