"""Asynchronous event accumulation and entropy-driven window cutting.

Events update a two-channel time surface with linear decay: the most recent
write at a pixel holds 1 and older writes fade toward 0 proportionally to
their age within the window. A window is cut when the grid entropy of the
surface enters a configured confidence interval, or when a maximum span is
exceeded (safety valve for near-static scenes).

The decayed value of a cell written at time ``s`` is ``(s - t0) / (t - t0)``
where ``t0`` is the window start and ``t`` the last update. Internally only
raw write offsets ``s - t0`` are stored; normalization happens on read. Since
the grid entropy is invariant under a common positive rescaling of all tile
sums, the entropy can be maintained incrementally in O(1) per event directly
on the raw offsets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np
from scipy import stats

from .io import Event, EventStream, SensorGeometry

DEFAULT_GRID = 8
DEFAULT_MAX_WINDOW_S = 0.1


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


@dataclass(frozen=True)
class EventWindow:
    """A contiguous time-bounded slice of an event stream.

    ``offset`` is the index of the first event within the parent stream, so
    per-window results can be mapped back to global event indices.
    """

    geometry: SensorGeometry
    t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    t_start: float
    t_end: float
    offset: int = 0

    def __post_init__(self) -> None:
        if not self.t_end > self.t_start:
            raise ValueError("window must have positive span")
        if self.t.size and (self.t[0] < self.t_start or self.t[-1] > self.t_end):
            raise ValueError("window events outside [t_start, t_end]")

    @classmethod
    def of(cls, stream: EventStream, lo: int, hi: int, t_start: float, t_end: float) -> "EventWindow":
        """The events ``stream[lo:hi]`` as a window over ``[t_start, t_end]``."""
        return cls(
            stream.geometry,
            stream.t[lo:hi], stream.u[lo:hi], stream.v[lo:hi], stream.p[lo:hi],
            t_start=t_start, t_end=t_end, offset=lo,
        )

    def __len__(self) -> int:
        return int(self.t.size)

    @property
    def span(self) -> float:
        return self.t_end - self.t_start


def _xlog2(x: float) -> float:
    return x * math.log2(x) if x > 0.0 else 0.0


class AtsltdFrame:
    """Two-channel time surface with linear decay and incremental grid entropy."""

    def __init__(self, geometry: SensorGeometry, window_start: float, grid: int = DEFAULT_GRID):
        if grid < 1:
            raise ValueError("grid must be >= 1")
        if geometry.width < grid or geometry.height < grid:
            raise ValueError("frame dimensions must be >= grid")
        self.geometry = geometry
        self.grid = int(grid)
        self.window_start = float(window_start)
        self.last_update = float(window_start)
        h, w = geometry.height, geometry.width
        # raw write offsets (s - window_start); -1 marks never-written cells
        self._raw_on = np.full((h, w), -1.0)
        self._raw_off = np.full((h, w), -1.0)
        gh = -(-h // grid)
        gw = -(-w // grid)
        self._tiles = np.zeros((gh, gw))
        self._tile_total = 0.0          # S  = sum of tile sums
        self._tile_xlog = 0.0           # T  = sum of tile * log2(tile)

    def update(self, event: Event) -> None:
        self.update_raw(event.u, event.v, event.p, event.t)

    def update_raw(self, u: int, v: int, p: int, t: float) -> None:
        if t < self.last_update:
            raise GroupingError(f"event at t={t} precedes last update {self.last_update}")
        raw = t - self.window_start
        prev = max(self._raw_on[v, u], self._raw_off[v, u], 0.0)
        if p:
            self._raw_on[v, u] = raw
        else:
            self._raw_off[v, u] = raw
        delta = raw - prev
        if delta != 0.0:
            g = self.grid
            ti, tj = v // g, u // g
            a = self._tiles[ti, tj]
            b = a + delta
            self._tiles[ti, tj] = b
            self._tile_total += delta
            self._tile_xlog += _xlog2(b) - _xlog2(a)
        self.last_update = t

    @property
    def entropy(self) -> float:
        """Grid entropy of the combined surface, in bits (incremental form)."""
        s = self._tile_total
        if s <= 0.0:
            return 0.0
        return max(0.0, math.log2(s) - self._tile_xlog / s)

    def _channel(self, raw: np.ndarray) -> np.ndarray:
        denom = self.last_update - self.window_start
        if denom <= 0.0:
            return np.where(raw == 0.0, 1.0, 0.0)
        return np.where(raw < 0.0, 0.0, raw / denom)

    @property
    def on_channel(self) -> np.ndarray:
        return self._channel(self._raw_on)

    @property
    def off_channel(self) -> np.ndarray:
        return self._channel(self._raw_off)


def nzge_entropy(frame: AtsltdFrame, grid: int | None = None) -> float:
    """Non-zero grid entropy, recomputed from the normalized combined surface.

    Tiles the max of the two channels into grid x grid pixel cells, forms the
    distribution of non-zero tile sums, and returns its Shannon entropy.
    """
    grid = frame.grid if grid is None else int(grid)
    if grid < 1:
        raise ValueError("grid must be >= 1")
    h, w = frame.geometry.height, frame.geometry.width
    if h < grid or w < grid:
        raise ValueError("frame dimensions must be >= grid")
    combined = np.maximum(frame.on_channel, frame.off_channel)
    gh = -(-h // grid)
    gw = -(-w // grid)
    padded = np.zeros((gh * grid, gw * grid))
    padded[:h, :w] = combined
    tiles = padded.reshape(gh, grid, gw, grid).sum(axis=(1, 3)).ravel()
    tiles = tiles[tiles > 0]
    if tiles.size == 0:
        return 0.0
    p = tiles / tiles.sum()
    return float(-(p * np.log2(p)).sum())


def cut_windows(
    stream: EventStream,
    interval: EntropyInterval,
    grid: int = DEFAULT_GRID,
    max_window: float = DEFAULT_MAX_WINDOW_S,
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
    ul = stream.u.tolist()
    vl = stream.v.tolist()
    pl = stream.p.tolist()
    n = len(tl)

    windows: List[EventWindow] = []
    start_idx = 0
    w_start = tl[0]
    frame = AtsltdFrame(stream.geometry, w_start, grid)

    def emit(lo: int, hi: int, t0: float, t1: float) -> None:
        windows.append(EventWindow.of(stream, lo, hi, t0, t1))

    for i in range(n):
        ti = tl[i]
        if ti - w_start > max_window and i > start_idx:
            t_end = w_start + max_window
            emit(start_idx, i, w_start, t_end)
            start_idx = i
            w_start = t_end
            frame = AtsltdFrame(stream.geometry, w_start, grid)
        if ti - w_start > max_window:
            # the current window is empty and the next event is beyond its
            # span: hop over the event-free stretch in whole-span steps
            steps = int((ti - w_start) / max_window)
            w_start += steps * max_window
            while ti - w_start > max_window:
                w_start += max_window
            frame = AtsltdFrame(stream.geometry, w_start, grid)
        frame.update_raw(ul[i], vl[i], pl[i], ti)
        if ti > w_start and interval.contains(frame.entropy):
            emit(start_idx, i + 1, w_start, ti)
            start_idx = i + 1
            w_start = ti
            frame = AtsltdFrame(stream.geometry, w_start, grid)

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
    grid: int = DEFAULT_GRID,
    confidence: float = 0.95,
) -> EntropyInterval:
    """Student-t confidence interval of mean terminal entropy over calibration windows."""
    if len(windows) < 2:
        raise GroupingError("need at least 2 calibration windows")
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie in (0, 1)")
    samples = []
    for win in windows:
        frame = AtsltdFrame(win.geometry, win.t_start, grid)
        for u, v, p, t in zip(win.u.tolist(), win.v.tolist(), win.p.tolist(), win.t.tolist()):
            frame.update_raw(u, v, p, t)
        samples.append(nzge_entropy(frame, grid))
    arr = np.asarray(samples)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1))
    half = float(stats.t.ppf((1 + confidence) / 2, arr.size - 1)) * sd / math.sqrt(arr.size)
    return EntropyInterval(max(0.0, mean - half), mean + half)
