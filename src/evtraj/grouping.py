"""Asynchronous event accumulation and entropy-driven window cutting.

Events update a time surface with linear decay: the most recent write at a
pixel holds 1 and older writes fade toward 0 proportionally to their age
within the window, whatever their polarity. A window is cut when the grid
entropy of the surface enters a configured confidence interval, or when a
maximum span is exceeded (safety valve for near-static scenes).

The decayed value of a cell written at time ``s`` is ``(s - t0) / (t - t0)``
where ``t0`` is the window start and ``t`` the last update. Internally only
raw write offsets ``s - t0`` are stored, in one flat list entry per sensor
pixel and per grid tile (8 bytes each, per frame); normalization happens on
read. Since the grid entropy is invariant under a common positive rescaling
of all tile sums, the entropy can be maintained incrementally in O(1) per
event directly on the raw offsets. One frame is reset at every window start,
which zeroes only the entries written since the last one, and the per-event
update runs inside one frame method over each window's events.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import special

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
    """The events ``stream[offset:stop]`` of a validated stream, over ``[t_start, t_end]``.

    The stream checked every event, so a window checks in O(1) only its range
    and its end events. ``offset`` maps results back to global event indices.
    """

    stream: EventStream
    offset: int
    stop: int
    t_start: float
    t_end: float

    def __post_init__(self) -> None:
        lo, hi, t = self.offset, self.stop, self.stream.t
        if not self.t_end > self.t_start:
            raise ValueError("window must have positive span")
        if not 0 <= lo <= hi <= t.size:
            raise ValueError(f"window range [{lo}, {hi}) is outside the {t.size}-event stream")
        if hi > lo and (t[lo] < self.t_start or t[hi - 1] > self.t_end):
            raise ValueError("window events outside [t_start, t_end]")

    @property
    def geometry(self) -> SensorGeometry:
        return self.stream.geometry

    @property
    def t(self) -> np.ndarray:
        return self.stream.t[self.offset:self.stop]

    @property
    def u(self) -> np.ndarray:
        return self.stream.u[self.offset:self.stop]

    @property
    def v(self) -> np.ndarray:
        return self.stream.v[self.offset:self.stop]

    def __len__(self) -> int:
        return self.stop - self.offset

    @property
    def span(self) -> float:
        return self.t_end - self.t_start


class AtsltdFrame:
    """Time surface with linear decay and incremental grid entropy.

    The raw offset of each pixel's last write and the raw sum of each tile sit
    in two flat lists, indexed as :meth:`locate` gives them, so a frame costs
    8 bytes per sensor pixel and per tile. The frame lists the pixels and
    tiles written since the window start: :meth:`reset` zeroes only those to
    start the next window on the same frame, and :attr:`surface` reads only
    those. :meth:`scan` applies a range of events of a validated
    :class:`EventStream`; :meth:`update_raw` checks and applies one raw event.
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
        n_tiles = self._tiles_per_row * -(-geometry.height // self.grid)
        self._latest = [0.0] * (geometry.width * geometry.height)  # last write's raw offset
        self._sums = [0.0] * n_tiles    # sum of the tile's pixels' latest offsets
        # since the window start: pixels written (again after a write at
        # offset 0), and tiles whose sum is positive
        self._written: List[int] = []
        self._filled: List[int] = []
        self.reset(window_start)

    def reset(self, window_start: float) -> None:
        """Empty the surface and start a new window at ``window_start``."""
        self.window_start = float(window_start)
        self.last_update = self.window_start
        latest, sums = self._latest, self._sums
        for k in self._written:
            latest[k] = 0.0
        for c in self._filled:
            sums[c] = 0.0
        self._written.clear()
        self._filled.clear()
        self._tile_total = 0.0          # S  = sum of tile sums
        self._tile_xlog = 0.0           # T  = sum of tile * log2(tile)
        self._entropy = 0.0

    def locate(self, u, v) -> Tuple[List[int], List[int]]:
        """Flat pixel and tile indices of a stream's pixels, as :meth:`scan` takes them."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        g, w = self.grid, self.geometry.width
        return (v * w + u).tolist(), ((v // g) * self._tiles_per_row + u // g).tolist()

    def update_raw(self, u: int, v: int, p: int, t: float) -> None:
        """Check and apply one event. ``p`` is ignored: the surface has no polarity channels."""
        w, h = self.geometry.width, self.geometry.height
        if not (0 <= u < w and 0 <= v < h and u == int(u) and v == int(v)):
            raise GroupingError(f"({u}, {v}) is not a pixel of the {w}x{h} frame")
        if not (math.isfinite(t) and t >= 0):
            raise GroupingError(f"invalid timestamp {t}")
        if t < self.last_update:
            raise GroupingError(f"event at t={t} precedes last update {self.last_update}")
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

        ``pixels`` and ``tiles`` come from :meth:`locate` on a stream's events,
        which are valid and no earlier than the last update. An event closes the
        window when its timestamp is past the window start and the entropy
        after its update lies in ``interval``. Returns that event's index, or
        ``hi`` when no event closes the window (always, without an interval).
        """
        alpha, beta = (interval.alpha, interval.beta) if interval else (math.inf, -math.inf)
        w0 = self.window_start
        latest, sums = self._latest, self._sums
        written, filled = self._written.append, self._filled.append
        total, xlog, h = self._tile_total, self._tile_xlog, self._entropy
        log2 = math.log2
        closed = hi
        for i in range(lo, hi):
            ti = t[i]
            raw = ti - w0
            k = pixels[i]
            a = latest[k]
            if a == 0.0:
                written(k)
            latest[k] = raw
            delta = raw - a
            if delta != 0.0:
                c = tiles[i]
                a = sums[c]
                if a == 0.0:
                    filled(c)
                b = a + delta
                sums[c] = b
                total += delta
                xlog += (b * log2(b) if b > 0.0 else 0.0) - (a * log2(a) if a > 0.0 else 0.0)
                # grid entropy from S and T: log2(S) - T / S, clamped at 0
                h = log2(total) - xlog / total if total > 0.0 else 0.0
                if not h > 0.0:
                    h = 0.0
            if ti > w0 and alpha <= h <= beta:
                closed = i
                break
        if hi > lo:
            self.last_update = t[min(closed, hi - 1)]
        self._tile_total, self._tile_xlog, self._entropy = total, xlog, h
        return closed

    @property
    def entropy(self) -> float:
        """Grid entropy of the surface, in bits (incremental form)."""
        return self._entropy

    @property
    def surface(self) -> np.ndarray:
        """The decayed surface, H x W: each pixel's last write in [0, 1], 0 if unwritten."""
        h, w = self.geometry.height, self.geometry.width
        out = np.zeros(h * w)
        written, latest = self._written, self._latest
        if written:
            denom = self.last_update - self.window_start
            # with no time elapsed every write sits at the window start
            offsets = np.array([latest[k] for k in written])
            out[written] = 1.0 if denom <= 0.0 else offsets / denom
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
    the last emitted window. A stream whose events share one timestamp and
    close no window is one window that ends ``max_window`` later, or at the
    next float when ``max_window`` is ``inf``. A ``max_window`` that is not
    positive (NaN included), or that adding to the last timestamp does not
    change, raises :class:`GroupingError`; ``inf`` means no span limit.
    """
    if not max_window > 0:
        raise GroupingError(f"max_window {max_window!r} s must be positive")
    if len(stream) == 0:
        raise GroupingError("cannot cut an empty stream")
    tl = stream.t.tolist()
    n = len(tl)
    # timestamps are non-negative and rounding is monotonic, so a span that
    # moves the last timestamp moves every window start: windows get positive
    # spans, and the hop over an event-free stretch advances
    if tl[-1] + max_window == tl[-1]:
        raise GroupingError(f"max_window {max_window!r} s is below the resolution of "
                            f"timestamp {tl[-1]!r} s")

    bounds: List[Tuple[int, int, float, float]] = []  # (offset, stop, t_start, t_end)
    start_idx = i = 0
    w_start = tl[0]
    frame = AtsltdFrame(stream.geometry, w_start, grid)
    pixels, tiles = frame.locate(stream.u, stream.v)
    while i < n:
        ti = tl[i]
        # one limit for the include test, the hop and the close: a window
        # holds the events up to ``w_start + max_window`` and ends there
        if ti > w_start + max_window:
            if i > start_idx:
                t_end = w_start + max_window
                bounds.append((start_idx, i, w_start, t_end))
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
            bounds.append((start_idx, j + 1, w_start, tl[j]))
            start_idx = i = j + 1
            w_start = tl[j]
            frame.reset(w_start)
        else:
            i = stop

    if start_idx < n:
        t_last = tl[-1]
        if n - start_idx >= 2 and t_last > w_start:
            bounds.append((start_idx, n, w_start, t_last))
        elif bounds:
            # fold a short tail into the previous window to keep the partition
            lo, _, t0, t1 = bounds.pop()
            bounds.append((lo, n, t0, max(t1, t_last)))
        else:
            t_end = w_start + max_window
            bounds.append((start_idx, n, w_start,
                           t_end if t_end < math.inf else math.nextafter(w_start, math.inf)))
    return [EventWindow(stream, *b) for b in bounds]


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
    frames: Dict[SensorGeometry, AtsltdFrame] = {}  # a frame holds a list per sensor pixel
    for win in windows:
        frame = frames.get(win.geometry)
        if frame is None:
            frame = frames[win.geometry] = AtsltdFrame(win.geometry, win.t_start, grid)
        else:
            frame.reset(win.t_start)
        pixels, tiles = frame.locate(win.u, win.v)
        frame.scan(win.t.tolist(), pixels, tiles, 0, len(win))
        samples.append(frame.entropy)
    arr = np.asarray(samples)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1))
    half = float(special.stdtrit(arr.size - 1, (1 + confidence) / 2)) * sd / math.sqrt(arr.size)
    return EntropyInterval(max(0.0, mean - half), mean + half)
