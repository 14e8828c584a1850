"""Time surface, grid entropy, and window cutting tests."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from evtraj.grouping import (
    AtsltdFrame,
    EntropyInterval,
    EventWindow,
    GroupingError,
    cut_windows,
    estimate_interval,
    nzge_entropy,
)
from evtraj.io import Event, EventStream, SensorGeometry

GEOM = SensorGeometry(32, 32)


def make_stream(events, geometry=GEOM):
    return EventStream.from_events(geometry, [Event(*e) for e in events])


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


class TestUpdateFrame:
    def test_first_event_sets_cell_to_one(self):
        frame = AtsltdFrame(GEOM, window_start=0.0)
        frame.update(Event(0.5, 3, 7, 1))
        assert frame.on_channel[7, 3] == 1.0
        assert frame.on_channel.sum() == 1.0
        assert frame.off_channel.sum() == 0.0

    def test_overwrite_same_pixel(self):
        frame = AtsltdFrame(GEOM, window_start=0.0)
        frame.update(Event(1.0, 4, 4, 1))
        frame.update(Event(2.0, 4, 4, 1))
        assert frame.on_channel[4, 4] == 1.0

    def test_two_pixel_decay(self):
        frame = AtsltdFrame(GEOM, window_start=0.0)
        frame.update(Event(1.0, 1, 1, 1))
        frame.update(Event(2.0, 2, 2, 1))
        assert frame.on_channel[1, 1] == pytest.approx(0.5)
        assert frame.on_channel[2, 2] == pytest.approx(1.0)

    def test_rejects_time_regression(self):
        frame = AtsltdFrame(GEOM, window_start=0.0)
        frame.update(Event(1.0, 1, 1, 1))
        with pytest.raises(GroupingError):
            frame.update(Event(0.5, 2, 2, 1))

    def test_channels_stay_in_unit_range(self):
        rng = np.random.default_rng(0)
        frame = AtsltdFrame(GEOM, window_start=0.0)
        for t in np.cumsum(rng.uniform(0, 0.1, 50)).tolist():
            frame.update(Event(t, int(rng.integers(32)), int(rng.integers(32)),
                               int(rng.integers(2))))
        for channel in (frame.on_channel, frame.off_channel):
            assert channel.min() >= 0.0 and channel.max() <= 1.0

    @given(st.lists(
        st.tuples(st.floats(0.01, 1.0), st.integers(0, 31), st.integers(0, 31),
                  st.integers(0, 1)),
        min_size=1, max_size=40,
    ))
    def test_matches_from_scratch_oracle(self, raw):
        events = sorted(raw)
        frame = AtsltdFrame(GEOM, window_start=0.0)
        for t, u, v, p in events:
            frame.update(Event(t, u, v, p))
        on, off = surface_oracle(GEOM, 0.0, events)
        np.testing.assert_allclose(frame.on_channel, on, atol=1e-12)
        np.testing.assert_allclose(frame.off_channel, off, atol=1e-12)

    def test_replay_is_bit_identical(self):
        rng = np.random.default_rng(7)
        events = [
            Event(float(t), int(rng.integers(32)), int(rng.integers(32)),
                  int(rng.integers(2)))
            for t in np.cumsum(rng.uniform(0, 0.01, 100)).tolist()
        ]
        frames = []
        for _ in range(2):
            frame = AtsltdFrame(GEOM, window_start=0.0)
            for e in events:
                frame.update(e)
            frames.append(frame)
        assert np.array_equal(frames[0].on_channel, frames[1].on_channel)
        assert np.array_equal(frames[0].off_channel, frames[1].off_channel)
        assert frames[0].entropy == frames[1].entropy


class TestNzgeEntropy:
    def test_all_zero_frame(self):
        assert nzge_entropy(AtsltdFrame(GEOM, 0.0)) == 0.0

    def test_single_active_tile(self):
        frame = AtsltdFrame(GEOM, 0.0, grid=8)
        frame.update(Event(1.0, 2, 2, 1))
        assert nzge_entropy(frame, 8) == 0.0

    def test_four_equal_tiles(self):
        frame = AtsltdFrame(GEOM, 0.0, grid=8)
        # same timestamp in four different tiles -> equal tile sums
        for u, v in [(0, 0), (8, 0), (0, 8), (8, 8)]:
            frame.update(Event(1.0, u, v, 1))
        assert nzge_entropy(frame, 8) == pytest.approx(2.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 16])
    def test_k_equal_tiles_give_log2_k(self, k):
        frame = AtsltdFrame(GEOM, 0.0, grid=8)
        cells = [(8 * (i % 4), 8 * (i // 4)) for i in range(k)]
        for u, v in cells:
            frame.update(Event(1.0, u, v, 1))
        assert nzge_entropy(frame, 8) == pytest.approx(math.log2(k))

    def test_first_event_never_decreases_entropy(self):
        frame = AtsltdFrame(GEOM, 0.0)
        before = frame.entropy
        frame.update(Event(0.5, 5, 5, 0))
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
            frame.update(Event(t, u, v, p))
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
        if t - w_start > max_window and i > start:
            bounds.append((start, i))
            start = i
            w_start += max_window
            frame = AtsltdFrame(stream.geometry, w_start, grid)
        frame.update(Event(t, int(stream.u[i]), int(stream.v[i]), int(stream.p[i])))
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

    def test_empty_stream_rejected(self):
        empty = EventStream(GEOM, np.array([]), np.array([]), np.array([]), np.array([]))
        with pytest.raises(GroupingError):
            cut_windows(empty, EntropyInterval(1.0, 2.0))

    def test_single_trailing_event_folds_into_last_window(self):
        events = [(0.0, 1, 1, 1), (0.01, 9, 9, 1), (0.02, 1, 9, 1), (0.2, 9, 1, 1)]
        stream = make_stream(events)
        windows = cut_windows(stream, EntropyInterval(1.0, 2.0), 8, 1.0)
        assert sum(len(w) for w in windows) == len(stream)
        assert len(windows[-1]) >= 2


class TestEstimateInterval:
    def tile_window(self, k, t=1.0):
        """A window whose terminal entropy is exactly log2(k)."""
        events = [(t, 8 * (i % 4), 8 * (i // 4), 1) for i in range(k)]
        stream = make_stream(events)
        return EventWindow(GEOM, stream.t, stream.u, stream.v, stream.p,
                           t_start=0.0, t_end=t)

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
        for a, b in ((window.t, stream.t), (window.u, stream.u),
                     (window.v, stream.v), (window.p, stream.p)):
            assert np.array_equal(a, b[2:5])

    def test_requires_positive_span(self):
        with pytest.raises(ValueError):
            EventWindow(GEOM, np.array([0.5]), np.array([1]), np.array([1]),
                        np.array([1]), t_start=1.0, t_end=1.0)

    def test_rejects_events_outside_bounds(self):
        with pytest.raises(ValueError):
            EventWindow(GEOM, np.array([2.0]), np.array([1]), np.array([1]),
                        np.array([1]), t_start=0.0, t_end=1.0)

    def test_entropy_interval_validation(self):
        with pytest.raises(ValueError):
            EntropyInterval(3.0, 1.0)
        with pytest.raises(ValueError):
            EntropyInterval(-1.0, 1.0)
