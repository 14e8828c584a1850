"""Time surface, grid entropy, and window cutting tests."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from conftest import events_of
from evtraj.grouping import (
    AtsltdFrame,
    EntropyInterval,
    EventWindow,
    GroupingError,
    cut_windows,
    estimate_interval,
)
from evtraj.io import EventStream, SensorGeometry
from oracles import nzge_entropy

GEOM = SensorGeometry(32, 32)
# the second event lies within 0.1 of the first by subtraction, but past
# 0.00102 + 0.1, where a window of span 0.1 started at the first one ends
SPAN_LIMIT_EVENTS = [(0.00102, 5, 5, 1), (0.10102000000000001, 5, 5, 1), (0.3, 5, 5, 1)]


def make_stream(events, geometry=GEOM):
    """A stream of ``(t, u, v, p)`` tuples."""
    t, u, v, p = zip(*events) if events else ((), (), (), ())
    return EventStream(geometry, t, u, v, p)


def surface_oracle(geometry, window_start, events):
    """Recompute both channels from scratch: cell = (s - t0) / (t_last - t0)."""
    on = np.zeros((geometry.height, geometry.width))
    off = np.zeros((geometry.height, geometry.width))
    writes = {}
    t_last = window_start
    for t, u, v, p in events:
        writes[(u, v, p)] = t
        t_last = t
    denom = t_last - window_start
    for (u, v, p), s in writes.items():
        value = 1.0 if denom <= 0 else (s - window_start) / denom
        (on if p else off)[v, u] = value
    return on, off


def _xlog2(x: float) -> float:
    return x * math.log2(x) if x > 0.0 else 0.0


class DenseFrame:
    """Reference frame: full H x W raw surfaces and a full tile array, one
    method call per event. This is the dense form that the sparse
    AtsltdFrame replaced; results must match it bit for bit."""

    def __init__(self, geometry, window_start, grid):
        self.window_start = float(window_start)
        self.last_update = float(window_start)
        h, w = geometry.height, geometry.width
        self.grid = grid
        self.raw_on = np.full((h, w), -1.0)
        self.raw_off = np.full((h, w), -1.0)
        self.tiles = np.zeros((-(-h // grid), -(-w // grid)))
        self.total = 0.0
        self.xlog = 0.0

    def update_raw(self, u, v, p, t):
        if t < self.last_update:
            raise GroupingError(f"event at t={t} precedes last update {self.last_update}")
        raw = t - self.window_start
        prev = max(self.raw_on[v, u], self.raw_off[v, u], 0.0)
        if p:
            self.raw_on[v, u] = raw
        else:
            self.raw_off[v, u] = raw
        delta = raw - prev
        if delta != 0.0:
            ti, tj = v // self.grid, u // self.grid
            a = self.tiles[ti, tj]
            b = a + delta
            self.tiles[ti, tj] = b
            self.total += delta
            self.xlog += _xlog2(b) - _xlog2(a)
        self.last_update = t

    @property
    def entropy(self):
        s = self.total
        if s <= 0.0:
            return 0.0
        return max(0.0, math.log2(s) - self.xlog / s)

    def channel(self, raw):
        denom = self.last_update - self.window_start
        if denom <= 0.0:
            return np.where(raw == 0.0, 1.0, 0.0)
        return np.where(raw < 0.0, 0.0, raw / denom)


def dense_cut_windows(stream, interval, grid, max_window):
    """The per-event scan over DenseFrame that cut_windows replaced, as
    ``(offset, len, t_start, t_end)`` per window. A window holds the events
    up to ``w_start + max_window`` and ends there."""
    tl, ul, vl, pl = (a.tolist() for a in (stream.t, stream.u, stream.v, stream.p))
    n = len(tl)
    windows = []
    start_idx = 0
    w_start = tl[0]
    frame = DenseFrame(stream.geometry, w_start, grid)
    for i in range(n):
        ti = tl[i]
        if ti > w_start + max_window and i > start_idx:
            t_end = w_start + max_window
            windows.append((start_idx, i - start_idx, w_start, t_end))
            start_idx = i
            w_start = t_end
            frame = DenseFrame(stream.geometry, w_start, grid)
        if ti > w_start + max_window:
            steps = int((ti - w_start) / max_window)
            w_start += steps * max_window
            while ti > w_start + max_window:
                w_start += max_window
            frame = DenseFrame(stream.geometry, w_start, grid)
        frame.update_raw(ul[i], vl[i], pl[i], ti)
        if ti > w_start and interval.contains(frame.entropy):
            windows.append((start_idx, i + 1 - start_idx, w_start, ti))
            start_idx = i + 1
            w_start = ti
            frame = DenseFrame(stream.geometry, w_start, grid)
    if start_idx < n:
        t_last = tl[-1]
        if n - start_idx >= 2 and t_last > w_start:
            windows.append((start_idx, n - start_idx, w_start, t_last))
        elif windows:
            lo, _, t0, t1 = windows.pop()
            windows.append((lo, n - lo, t0, max(t1, t_last)))
        else:
            windows.append((start_idx, n - start_idx, w_start, max(t_last, w_start + max_window)))
    return windows


def dense_entropies(stream, grid):
    """Entropy after each event of one uncut DenseFrame started at the first event."""
    frame = DenseFrame(stream.geometry, float(stream.t[0]), grid)
    out = []
    for t, u, v, p in zip(stream.t.tolist(), stream.u.tolist(), stream.v.tolist(),
                          stream.p.tolist()):
        frame.update_raw(u, v, p, t)
        out.append(frame.entropy)
    return out


@st.composite
def scan_streams(draw, max_window=0.05):
    """Streams with equal timestamps, repeated pixels, both polarities, gaps
    longer than ``max_window`` and geometries that are not a multiple of the
    grid."""
    grid = draw(st.integers(1, 8))
    width = draw(st.integers(grid, 3 * grid + 5))
    height = draw(st.integers(grid, 3 * grid + 5))
    pool = draw(st.lists(st.tuples(st.integers(0, width - 1), st.integers(0, height - 1)),
                         min_size=1, max_size=12))
    n = draw(st.integers(1, 60))
    # microsecond steps, as sensors report them: zero, short, exactly the
    # span limit, or a gap past it
    us = round(max_window * 1e6)
    steps = draw(st.lists(
        st.one_of(st.just(0), st.integers(1, us // 3), st.just(us),
                  st.integers(us, 5 * us)).map(lambda k: k / 1e6),
        min_size=n, max_size=n))
    t = draw(st.integers(0, 10**7)) / 1e6 + np.cumsum(steps)
    pixels = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    p = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    u, v = zip(*pixels)
    return EventStream(SensorGeometry(width, height), t, u, v, p), grid


class TestUpdateFrame:
    def test_first_event_sets_cell_to_one(self):
        frame = AtsltdFrame(GEOM, window_start=0.0)
        frame.update_raw(3, 7, 1, 0.5)
        assert frame.surface[7, 3] == 1.0
        assert frame.surface.sum() == 1.0

    def test_overwrite_same_pixel(self):
        frame = AtsltdFrame(GEOM, window_start=0.0)
        frame.update_raw(4, 4, 1, 1.0)
        frame.update_raw(4, 4, 0, 2.0)
        assert frame.surface[4, 4] == 1.0
        assert frame.surface.sum() == 1.0

    def test_two_pixel_decay(self):
        frame = AtsltdFrame(GEOM, window_start=0.0)
        frame.update_raw(1, 1, 1, 1.0)
        frame.update_raw(2, 2, 1, 2.0)
        assert frame.surface[1, 1] == pytest.approx(0.5)
        assert frame.surface[2, 2] == pytest.approx(1.0)

    def test_rejects_time_regression(self):
        frame = AtsltdFrame(GEOM, window_start=0.0)
        frame.update_raw(1, 1, 1, 1.0)
        with pytest.raises(GroupingError):
            frame.update_raw(2, 2, 1, 0.5)

    @pytest.mark.parametrize("u, v", [(-1, -3), (32, 0), (0, 32), (-1, 5), (5, -1)])
    def test_rejects_pixel_outside_geometry(self, u, v):
        frame = AtsltdFrame(GEOM, window_start=0.0)
        with pytest.raises(GroupingError):
            frame.update_raw(u, v, 1, 0.01)
        assert frame.entropy == 0.0
        assert not frame.surface.any()

    @settings(deadline=None)
    @given(scan_streams(), st.integers(0, 60))
    def test_bit_identical_to_dense_frame(self, case, reset_at):
        # one frame reset mid-stream stands in for a window cut
        stream, grid = case
        t0 = float(stream.t[0])
        frame = AtsltdFrame(stream.geometry, t0, grid)
        dense = DenseFrame(stream.geometry, t0, grid)
        for i, (t, u, v, p) in enumerate(events_of(stream)):
            if i == reset_at:
                frame.reset(t)
                dense = DenseFrame(stream.geometry, t, grid)
            frame.update_raw(u, v, p, t)
            dense.update_raw(u, v, p, t)
            assert frame.entropy == dense.entropy
        # offsets only grow within a window, so a pixel's last write is the
        # larger of its two polarity channels
        assert np.array_equal(frame.surface, np.maximum(dense.channel(dense.raw_on),
                                                        dense.channel(dense.raw_off)))

    def test_surface_stays_in_unit_range(self):
        rng = np.random.default_rng(0)
        frame = AtsltdFrame(GEOM, window_start=0.0)
        for t in np.cumsum(rng.uniform(0, 0.1, 50)).tolist():
            frame.update_raw(int(rng.integers(32)), int(rng.integers(32)),
                             int(rng.integers(2)), t)
        assert frame.surface.min() >= 0.0 and frame.surface.max() <= 1.0

    @given(st.lists(
        st.tuples(st.floats(0.01, 1.0), st.integers(0, 31), st.integers(0, 31),
                  st.integers(0, 1)),
        min_size=1, max_size=40,
    ))
    def test_matches_from_scratch_oracle(self, raw):
        events = sorted(raw)
        frame = AtsltdFrame(GEOM, window_start=0.0)
        for t, u, v, p in events:
            frame.update_raw(u, v, p, t)
        assert np.array_equal(frame.surface, np.maximum(*surface_oracle(GEOM, 0.0, events)))

    def test_replay_is_bit_identical(self):
        rng = np.random.default_rng(7)
        events = [
            (float(t), int(rng.integers(32)), int(rng.integers(32)), int(rng.integers(2)))
            for t in np.cumsum(rng.uniform(0, 0.01, 100)).tolist()
        ]
        frames = []
        for _ in range(2):
            frame = AtsltdFrame(GEOM, window_start=0.0)
            for t, u, v, p in events:
                frame.update_raw(u, v, p, t)
            frames.append(frame)
        assert np.array_equal(frames[0].surface, frames[1].surface)
        assert frames[0].entropy == frames[1].entropy


class TestNzgeEntropy:
    def test_all_zero_frame(self):
        assert nzge_entropy(AtsltdFrame(GEOM, 0.0)) == 0.0

    def test_single_active_tile(self):
        frame = AtsltdFrame(GEOM, 0.0, grid=8)
        frame.update_raw(2, 2, 1, 1.0)
        assert nzge_entropy(frame, 8) == 0.0

    def test_four_equal_tiles(self):
        frame = AtsltdFrame(GEOM, 0.0, grid=8)
        # same timestamp in four different tiles -> equal tile sums
        for u, v in [(0, 0), (8, 0), (0, 8), (8, 8)]:
            frame.update_raw(u, v, 1, 1.0)
        assert nzge_entropy(frame, 8) == pytest.approx(2.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 16])
    def test_k_equal_tiles_give_log2_k(self, k):
        frame = AtsltdFrame(GEOM, 0.0, grid=8)
        cells = [(8 * (i % 4), 8 * (i // 4)) for i in range(k)]
        for u, v in cells:
            frame.update_raw(u, v, 1, 1.0)
        assert nzge_entropy(frame, 8) == pytest.approx(math.log2(k))

    def test_first_event_never_decreases_entropy(self):
        frame = AtsltdFrame(GEOM, 0.0)
        before = frame.entropy
        frame.update_raw(5, 5, 0, 0.5)
        assert frame.entropy >= before

    def test_grid_validation(self):
        frame = AtsltdFrame(GEOM, 0.0)
        with pytest.raises(ValueError):
            nzge_entropy(frame, 0)
        with pytest.raises(ValueError):
            nzge_entropy(frame, 64)

    @given(st.lists(
        st.tuples(st.floats(0.01, 1.0), st.integers(0, 31), st.integers(0, 31),
                  st.integers(0, 1)),
        min_size=1, max_size=60,
    ))
    def test_incremental_matches_recompute(self, raw):
        events = sorted(raw)
        frame = AtsltdFrame(GEOM, 0.0, grid=8)
        for t, u, v, p in events:
            frame.update_raw(u, v, p, t)
            assert frame.entropy == pytest.approx(nzge_entropy(frame, 8), abs=1e-9)


def naive_cut_oracle(stream, interval, grid, max_window):
    """Independent re-implementation of the scan using only nzge_entropy."""
    bounds = []
    start = 0
    w_start = float(stream.t[0])
    frame = AtsltdFrame(stream.geometry, w_start, grid)
    i = 0
    while i < len(stream):
        t = float(stream.t[i])
        if t > w_start + max_window and i > start:
            bounds.append((start, i))
            start = i
            w_start += max_window
            frame = AtsltdFrame(stream.geometry, w_start, grid)
        frame.update_raw(int(stream.u[i]), int(stream.v[i]), int(stream.p[i]), t)
        if t > w_start and interval.alpha <= nzge_entropy(frame, grid) <= interval.beta:
            bounds.append((start, i + 1))
            start = i + 1
            w_start = t
            frame = AtsltdFrame(stream.geometry, w_start, grid)
        i += 1
    if start < len(stream):
        bounds.append((start, len(stream)))
    return bounds


class TestCutWindows:
    def moving_bar_stream(self, n=3000, seed=0):
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0, 0.3, n))
        v = rng.integers(0, 32, n)
        u = np.clip((t * 100).astype(int) + rng.integers(-1, 2, n), 0, 31)
        p = rng.integers(0, 2, n)
        return EventStream(GEOM, t, u.astype(np.int32), v.astype(np.int32),
                           p.astype(np.uint8))

    def test_unreachable_interval_cuts_at_max_window(self):
        stream = self.moving_bar_stream()
        windows = cut_windows(stream, EntropyInterval(50.0, 60.0), 8, 0.05)
        assert len(windows) >= 5
        for win in windows[:-1]:
            assert win.span == pytest.approx(0.05)

    def test_windows_partition_the_stream(self):
        stream = self.moving_bar_stream()
        windows = cut_windows(stream, EntropyInterval(2.0, 4.0), 8, 0.05)
        offsets = [w.offset for w in windows]
        assert offsets[0] == 0
        total = 0
        for w in windows:
            assert w.offset == total
            total += len(w)
        assert total == len(stream)
        t_cat = np.concatenate([w.t for w in windows])
        assert np.array_equal(t_cat, stream.t)

    def test_first_window_matches_oracle_replay(self):
        stream = self.moving_bar_stream()
        interval = EntropyInterval(2.0, 4.0)
        windows = cut_windows(stream, interval, 8, 0.05)
        oracle = naive_cut_oracle(stream, interval, 8, 0.05)
        lo, hi = oracle[0]
        assert abs(len(windows[0]) - (hi - lo)) <= 0.1 * (hi - lo)

    def test_all_windows_match_oracle_replay(self):
        stream = self.moving_bar_stream(n=1200, seed=3)
        interval = EntropyInterval(2.0, 4.0)
        windows = cut_windows(stream, interval, 8, 0.05)
        oracle = naive_cut_oracle(stream, interval, 8, 0.05)
        got = [(w.offset, w.offset + len(w)) for w in windows]
        # the oracle has no tail-fold rule; ignore a trailing singleton
        if oracle[-1][1] - oracle[-1][0] == 1 and len(oracle) == len(got) + 1:
            oracle = oracle[:-2] + [(oracle[-2][0], oracle[-1][1])]
        assert got == oracle

    @settings(max_examples=300, deadline=None)
    @given(
        case=scan_streams(0.05),
        band=st.one_of(
            st.just((50.0, 60.0)),                    # never fires
            st.just((0.0, 64.0)),                     # fires on every later event
            st.tuples(st.floats(0.0, 6.0), st.floats(0.0, 6.0)).map(sorted),
        ),
        max_window=st.just(0.05),
    )
    # in each stream an event lies within max_window of its window start by
    # subtraction, but past w_start + max_window
    @example(case=(make_stream(SPAN_LIMIT_EVENTS), 8), band=(2.5, 4.5), max_window=0.1)
    @example(case=(make_stream([(0.004937, 1, 1, 1), (0.05493700000000001, 9, 9, 0),
                                (0.05493800000000001, 1, 9, 1)]), 8),
             band=(50.0, 60.0), max_window=0.05)
    def test_bit_identical_to_dense_scan(self, case, band, max_window):
        stream, grid = case
        interval = EntropyInterval(*band)
        got = [(w.offset, len(w), w.t_start, w.t_end)
               for w in cut_windows(stream, interval, grid, max_window)]
        assert got == dense_cut_windows(stream, interval, grid, max_window)

    @settings(max_examples=200, deadline=None)
    @given(scan_streams())
    # a stream whose last entropy moves by a few ulps when log2 is rounded
    # differently, as np.log2 does here
    @example((make_stream([(0.0, 1, 1, 1), (0.023288, 9, 1, 0), (0.048738, 17, 1, 1)]), 8))
    def test_point_bands_bit_identical_to_dense_scan(self, case):
        # with no span limit the first window closes where the entropy equals
        # the band exactly, so a change in the last bit of any entropy the
        # stream reaches moves a cut
        stream, grid = case
        for h in sorted(set(dense_entropies(stream, grid))):
            interval = EntropyInterval(h, h)
            got = [(w.offset, len(w), w.t_start, w.t_end)
                   for w in cut_windows(stream, interval, grid, 1e3)]
            assert got == dense_cut_windows(stream, interval, grid, 1e3)

    def test_single_trailing_event_fold_matches_dense_scan(self):
        # the third event closes a window (entropy ~0.918) and leaves one event
        events = [(0.0, 1, 1, 1), (0.01, 9, 9, 0), (0.02, 1, 9, 1), (0.2, 9, 1, 1)]
        stream = make_stream(events)
        interval = EntropyInterval(0.9, 2.0)
        got = [(w.offset, len(w), w.t_start, w.t_end)
               for w in cut_windows(stream, interval, 8, 1.0)]
        assert got == dense_cut_windows(stream, interval, 8, 1.0) == [(0, 4, 0.0, 0.2)]

    def test_empty_stream_rejected(self):
        empty = EventStream(GEOM, np.array([]), np.array([]), np.array([]), np.array([]))
        with pytest.raises(GroupingError):
            cut_windows(empty, EntropyInterval(1.0, 2.0))

    def test_single_trailing_event_folds_into_last_window(self):
        # the third and the fifth event close windows (entropy ~0.918); the
        # sixth is left alone and folds into the second window
        events = [(0.0, 1, 1, 1), (0.01, 9, 9, 1), (0.02, 1, 9, 1),
                  (0.03, 1, 1, 1), (0.04, 9, 9, 1), (0.3, 9, 1, 1)]
        windows = cut_windows(make_stream(events), EntropyInterval(0.9, 2.0), 8, 1.0)
        got = [(w.offset, len(w), w.t_start, w.t_end) for w in windows]
        assert got == [(0, 3, 0.0, 0.02), (3, 3, 0.02, 0.3)]

    def test_event_past_the_span_limit_opens_the_next_window(self):
        windows = cut_windows(make_stream(SPAN_LIMIT_EVENTS), EntropyInterval(2.5, 4.5), 8, 0.1)
        got = [(w.offset, len(w), w.t_start, w.t_end) for w in windows]
        assert got == [(0, 1, 0.00102, 0.10102), (1, 2, 0.10102, 0.3)]


class TestEstimateInterval:
    def tile_window(self, k, t=1.0):
        """A window whose terminal entropy is exactly log2(k)."""
        events = [(t, 8 * (i % 4), 8 * (i // 4), 1) for i in range(k)]
        stream = make_stream(events)
        return EventWindow(GEOM, stream.t, stream.u, stream.v, t_start=0.0, t_end=t)

    def test_zero_variance_samples(self):
        windows = [self.tile_window(4) for _ in range(3)]
        interval = estimate_interval(windows, grid=8)
        assert interval.alpha == pytest.approx(2.0)
        assert interval.beta == pytest.approx(2.0)

    def test_two_sample_t_interval(self):
        windows = [self.tile_window(2), self.tile_window(8)]  # entropies 1 and 3
        interval = estimate_interval(windows, grid=8, confidence=0.95)
        sd = np.std([1.0, 3.0], ddof=1)
        half = stats.t.ppf(0.975, 1) * sd / math.sqrt(2)
        assert interval.alpha == pytest.approx(max(0.0, 2.0 - half))
        assert interval.beta == pytest.approx(2.0 + half)

    def test_single_sample_rejected(self):
        with pytest.raises(GroupingError):
            estimate_interval([self.tile_window(4)])


class TestEventWindow:
    def test_of_slices_the_stream(self):
        stream = make_stream([(0.1 * i, i, 2 * i, i % 2) for i in range(6)])
        window = EventWindow.of(stream, 2, 5, 0.15, 0.45)
        assert len(window) == 3 and window.offset == 2
        assert (window.t_start, window.t_end) == (0.15, 0.45)
        assert window.geometry == stream.geometry
        for a, b in ((window.t, stream.t), (window.u, stream.u), (window.v, stream.v)):
            assert np.array_equal(a, b[2:5])

    def test_requires_positive_span(self):
        with pytest.raises(ValueError):
            EventWindow(GEOM, np.array([0.5]), np.array([1]), np.array([1]),
                        t_start=1.0, t_end=1.0)

    def test_rejects_events_outside_bounds(self):
        with pytest.raises(ValueError):
            EventWindow(GEOM, np.array([2.0]), np.array([1]), np.array([1]),
                        t_start=0.0, t_end=1.0)

    def test_rejects_events_out_of_time_order(self):
        with pytest.raises(ValueError):
            EventWindow(GEOM, np.array([0.2, 0.1, 0.3]), np.ones(3, np.int32),
                        np.ones(3, np.int32), t_start=0.0, t_end=1.0)

    def test_entropy_interval_validation(self):
        with pytest.raises(ValueError):
            EntropyInterval(3.0, 1.0)
        with pytest.raises(ValueError):
            EntropyInterval(-1.0, 1.0)
