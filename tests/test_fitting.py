"""Residuals, inlier selection, two-stage weighting, and association tests."""
import hashlib
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import evtraj
from conftest import (
    framed_track_stream,
    lane_config,
    lane_scene,
    lane_window,
    lanes_tile,
    pair_windows,
    window_of,
)
from evtraj import fitting, hypotheses
from evtraj.config import RunConfig
from evtraj.fitting import (
    AssociationResult,
    WeightedModel,
    associate,
    fit_window,
    fit_windows,
    point_line_distances,
    relabel,
    residual_matrix,
    run_eda,
    select_inliers,
    select_model_count,
    warp_and_contrast,
    weigh_models,
)
from evtraj.grouping import EventWindow
from evtraj.hypotheses import (
    LineSet,
    event_voxels,
    generate,
    select_representatives,
    time_scale,
    window_voxels,
)
from evtraj.io import NOISE_ID, EventStream, SensorGeometry
from evtraj.scratch import Scratch
from evtraj.synth import generate_scene
from oracles import (
    elbow_count,
    greedy_representatives,
    hypothesis_set,
    matrix_inliers,
    reference_associate,
    reference_fit_window,
    reference_relabel,
    reference_residuals,
    window_families,
    window_lines,
    window_reps,
)

GEOM = SensorGeometry(64, 64)


def make_window(t, u, v, t_start=0.0, t_end=1.0):
    return window_of(GEOM, t, u, v, t_start, t_end)


def hyp(start, end):
    """A line as its ``(start, end)`` voxels."""
    return np.asarray(start, dtype=float), np.asarray(end, dtype=float)


def direction(h):
    start, end = h
    return end - start


def distance(point, h):
    """Distance from one voxel to one ``(start, end)`` line."""
    start, end = h
    return float(point_line_distances(point, start, end)[0, 0])


# --- references: the per-call formulations that the batched code replaced --

def cross_point_line_distances(voxels, starts, ends):
    """``np.cross`` / ``np.linalg.norm`` form of :func:`point_line_distances`."""
    d = ends - starts
    lengths = np.linalg.norm(d, axis=1)
    diff = voxels[:, None, :] - starts[None, :, :]
    return np.linalg.norm(np.cross(diff, d[None, :, :]), axis=2) / lengths


def per_survivor_contrast(voxels, inliers, direction):
    """One survivor's warped-image contrast with ``np.add.at`` and ``np.mean``."""
    pts = voxels[inliers]
    plane = pts[:, :2] - (direction[:2] / direction[2]) * pts[:, 2:3]
    ij = np.rint(plane).astype(np.int64)
    ij -= ij.min(axis=0)
    counts = np.zeros((int(ij[:, 1].max()) + 1, int(ij[:, 0].max()) + 1))
    np.add.at(counts, (ij[:, 1], ij[:, 0]), 1.0)
    norm = counts / counts.max()
    return float(np.mean((norm - norm.mean()) ** 2))


def per_survivor_weights(vox, reps, survivors, s_t):
    """:func:`weigh_models` one survivor at a time."""
    w1 = [float(np.mean((vox[idx, 2] - s_t / 2.0) ** 2)) for _, idx in survivors]
    contrast = [per_survivor_contrast(vox, idx, reps.ends[j] - reps.starts[j])
                for j, idx in survivors]
    return np.array(w1), np.array([w * (1.0 - c) for w, c in zip(w1, contrast)])


def contrast(voxels, inliers, h):
    """Contrast of one inlier set warped along one hypothesis."""
    return warp_and_contrast(voxels, [np.asarray(inliers)], direction(h)[None, :])[0]


def stage1(times, s_t):
    """Stage-1 weight of one survivor whose inliers have the given normalized times."""
    times = np.asarray(times, dtype=np.float64)
    vox = np.column_stack([np.zeros_like(times), np.zeros_like(times), times])
    vertical = LineSet(np.zeros((1, 3)), np.array([[0.0, 0.0, s_t]]))
    w1, _ = weigh_models(vox, vertical, [(0, np.arange(times.size))], s_t)
    return w1[0]


class TestResidual:
    def test_point_on_line_is_zero(self):
        h = hyp([0, 0, 0], [3, 4, 5])
        assert distance(np.array([1.5, 2.0, 2.5]), h) == pytest.approx(0.0, abs=1e-12)

    def test_three_four_five(self):
        # line along the t axis; point offset (3, 4) in the image plane
        h = hyp([0, 0, 0], [0, 0, 10])
        assert distance(np.array([3.0, 4.0, 7.0]), h) == pytest.approx(5.0)

    def test_independent_of_segment_length(self):
        a = hyp([0, 0, 0], [0, 0, 1])
        b = hyp([0, 0, 0], [0, 0, 100])
        p = np.array([2.0, 0.0, 0.5])
        assert distance(p, a) == pytest.approx(distance(p, b))

    @given(
        st.tuples(st.floats(-20, 20), st.floats(-20, 20), st.floats(-20, 20)),
        st.floats(0.1, 50),
    )
    def test_scale_equivariance(self, point, c):
        h = hyp([1, 2, 0], [4, 6, 12])
        hc = hyp(np.array([1, 2, 0]) * c, np.array([4, 6, 12]) * c)
        p = np.asarray(point)
        assert distance(p * c, hc) == pytest.approx(c * distance(p, h), rel=1e-9, abs=1e-9)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        vox = rng.uniform(-10, 10, (20, 3))
        starts = rng.uniform(-5, 5, (4, 3))
        ends = starts + rng.uniform(0.5, 5, (4, 3))
        batch = point_line_distances(vox, starts, ends)
        for i in range(20):
            for j in range(4):
                single = distance(vox[i], hyp(starts[j], ends[j]))
                assert batch[i, j] == pytest.approx(single)

    @given(
        st.lists(st.tuples(*[st.floats(-1e3, 1e3)] * 3), min_size=1, max_size=30),
        st.lists(st.tuples(*[st.floats(-1e3, 1e3)] * 6), min_size=1, max_size=8),
    )
    def test_bit_identical_to_cross_product_reference(self, voxels, endpoints):
        vox = np.array(voxels)
        starts, ends = np.hsplit(np.array(endpoints), 2)
        ends[np.linalg.norm(ends - starts, axis=1) < 1e-3, 2] += 1.0  # no degenerate line
        raw = point_line_distances(vox, starts, ends)
        ref = cross_point_line_distances(vox, starts, ends)
        assert np.array_equal(raw, ref)
        assert np.array_equal(residual_matrix(vox, LineSet(starts, ends)), ref)


class TestResidualMatrix:
    """Residuals are raw point-to-line distances, in pixels of the (u, v, t_norm) space."""

    @staticmethod
    def _lines(starts, ends):
        return LineSet(np.asarray(starts, float), np.asarray(ends, float))

    def test_single_event_single_line_is_its_distance(self):
        vox = window_voxels(make_window([0.5], [10], [20]))
        lines = self._lines([[0, 0, 0]], [[0, 0, 64]])
        m = residual_matrix(vox, lines)
        assert np.array_equal(m, point_line_distances(vox, lines.starts, lines.ends))
        assert m[0, 0] == pytest.approx(np.hypot(10.0, 20.0))

    def test_equal_distances_do_not_depend_on_event_count(self):
        # four events all at distance 5 from the time axis
        vox = window_voxels(make_window([0.25, 0.25, 0.75, 0.75], [3, 5, 3, 5], [4, 0, 4, 0]))
        lines = self._lines([[0, 0, 0]], [[0, 0, 64]])
        assert residual_matrix(vox, lines)[:, 0] == pytest.approx(np.full(4, 5.0))
        assert np.array_equal(residual_matrix(vox[:1], lines), residual_matrix(vox, lines)[:1])

    def test_equals_point_line_distances(self):
        rng = np.random.default_rng(1)
        vox = window_voxels(make_window(
            np.sort(rng.uniform(0, 1, 50)),
            rng.integers(0, 64, 50), rng.integers(0, 64, 50),
        ))
        starts = rng.uniform(0, 10, (5, 3))
        starts[:, 2] = 0.0
        ends = starts + rng.uniform(1, 10, (5, 3))
        m = residual_matrix(vox, self._lines(starts, ends))
        assert np.array_equal(m, point_line_distances(vox, starts, ends))
        out = np.empty_like(m)
        assert residual_matrix(vox, self._lines(starts, ends), out=out) is out
        assert np.array_equal(out, m)


# a line u = 10 + t_norm / 2 at v = 20 on the 64x64 sensor, over t in [0, 1]
# (t_norm = 64 t): its first- and last-slice events give every hypothesis,
# and each is this line; an event at pixel u whose t_norm is 2 (u - 10) + e
# lies |e| / sqrt(5) px from it
PIXEL_LINE = LineSet(np.array([[10.0, 20.0, 0.0]]), np.array([[42.0, 20.0, 64.0]]))
PIXEL_ENDS = [(0.0, 10), (1 / 32, 11), (31 / 32, 41), (1.0, 42)]


def off_line(u, r):
    """The time at which an event at pixel ``(u, 20)`` lies ``|r|`` px off the line."""
    return (2 * (u - 10) + r * np.sqrt(5.0)) / 64


class TestPixelThreshold:
    INLIERS = [(off_line(u, r), u) for u, r in
               [(16, -1.4), (20, 1.4), (24, -1.4), (28, 1.4), (32, -1.4), (36, 1.4)]]
    OUTLIER = (off_line(26, 1.6), 26)
    CLUTTER = [(0.3, 60, 60), (0.4, 2, 60), (0.5, 60, 2), (0.6, 50, 5), (0.7, 5, 50)]

    def _window(self, clutter):
        events = [(t, u, 20) for t, u in PIXEL_ENDS + self.INLIERS + [self.OUTLIER]]
        events = sorted(events + (self.CLUTTER if clutter else []))
        t, u, v = (np.array(x) for x in zip(*events))
        return make_window(t, u, v), events

    def test_distances_are_as_built(self):
        win, events = self._window(clutter=False)
        d = residual_matrix(window_voxels(win), PIXEL_LINE)[:, 0]
        by_event = dict(zip(events, d.tolist()))
        assert [by_event[(t, u, 20)] for t, u in self.INLIERS] == pytest.approx([1.4] * 6)
        assert by_event[(*self.OUTLIER, 20)] == pytest.approx(1.6)

    def test_residuals_ignore_far_clutter(self):
        tau = lane_config().tau
        clean, clean_events = self._window(clutter=False)
        noisy, noisy_events = self._window(clutter=True)
        want = residual_matrix(window_voxels(clean), PIXEL_LINE)[:, 0]
        got = residual_matrix(window_voxels(noisy), PIXEL_LINE)[:, 0]
        shared = [noisy_events.index(e) for e in clean_events]
        assert np.array_equal(got[shared], want)
        inlier = dict(zip(clean_events, (want < tau).tolist()))
        assert all(inlier[(t, u, 20)] for t, u in PIXEL_ENDS + self.INLIERS)
        assert not inlier[(*self.OUTLIER, 20)]

    def test_fit_keeps_its_inliers_when_clutter_is_added(self):
        structure = {(t, u, 20) for t, u in PIXEL_ENDS + self.INLIERS}
        for clutter in (False, True):
            win, events = self._window(clutter)
            res = fit_windows([win], lane_config())[0]
            assert res.num_models == 1
            assert {events[i] for i in res.instances[0].inliers.tolist()} == structure
            ids = dict(zip(events, res.assignment.tolist()))
            assert all(ids[e] == 0 for e in structure)
            assert all(ids[e] == NOISE_ID for e in events if e not in structure)


def matrix_pairs(values):
    """A residual matrix as flat event-major ``(values, events, columns)`` pairs."""
    n, m = values.shape
    return values.ravel(), np.repeat(np.arange(n), m), np.tile(np.arange(m), n)


class TestSelectInliers:
    def test_threshold_is_strict_and_floor_applies(self):
        values = np.array([
            [0.001, 0.5],
            [0.002, 0.001],
            [0.003, 0.6],
            [0.010, 0.7],
        ])
        out = select_inliers(*matrix_pairs(values), 0.01, min_inliers=3)
        # column 0: 0.010 is not < tau; column 1: only one inlier -> dropped
        assert len(out) == 1
        j, idx = out[0]
        assert j == 0
        assert list(idx) == [0, 1, 2]

    def test_all_dropped_raises(self):
        # no column keeps enough inliers: no survivor, and the window fails
        values = np.full((5, 2), 0.9)
        assert select_inliers(*matrix_pairs(values), 0.01) == []

    @given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 5)), min_size=1, max_size=6),
           st.integers(1, 4), st.randoms())
    def test_flat_batch_matches_each_matrix(self, shapes, min_inliers, rng):
        # several windows' matrices, sharing one tau, in one flat call
        mats = [np.array([[rng.choice([0.001, 0.01, 0.5]) for _ in range(m)]
                          for _ in range(n)]) for n, m in shapes]
        tau = rng.choice([0.005, 0.01, 0.02])
        values, events, columns = [], [], []
        ev0 = col0 = 0
        for mat in mats:
            v, e, c = matrix_pairs(mat)
            values.append(v)
            events.append(e + ev0)
            columns.append(c + col0)
            ev0, col0 = ev0 + mat.shape[0], col0 + mat.shape[1]
        got = select_inliers(np.concatenate(values), np.concatenate(events),
                             np.concatenate(columns), tau, min_inliers)
        want = []
        ev0 = col0 = 0
        for mat in mats:
            want += [(j + col0, idx + ev0) for j, idx in matrix_inliers(mat, tau, min_inliers)]
            ev0, col0 = ev0 + mat.shape[0], col0 + mat.shape[1]
        assert [j for j, _ in got] == [j for j, _ in want]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, want))


class TestStage1Weight:
    def test_all_mid_window_is_zero(self):
        assert stage1(np.full(10, 32.0), 64.0) == pytest.approx(0.0)

    def test_all_at_window_edge(self):
        assert stage1(np.zeros(5), 64.0) == pytest.approx(32.0 ** 2)
        assert stage1(np.full(5, 64.0), 64.0) == pytest.approx(32.0 ** 2)

    def test_uniform_times_approach_variance_limit(self):
        rng = np.random.default_rng(4)
        s = 64.0
        t = rng.uniform(0, s, 200000)
        assert stage1(t, s) == pytest.approx(s ** 2 / 12.0, rel=0.02)

    def test_edge_heavy_outweighs_uniform(self):
        s = 64.0
        edges = np.array([0.0, 0.0, s, s])
        uniform = np.linspace(0, s, 50)
        assert stage1(edges, s) > stage1(uniform, s)


class TestWarpContrast:
    def test_uniform_coverage_is_zero(self):
        # static point: every inlier lands on the same pixel
        pts = np.array([[5.0, 7.0, t] for t in np.linspace(0, 64, 9)])
        h = hyp([5, 7, 0], [5, 7, 64])
        assert contrast(pts, np.arange(9), h) == pytest.approx(0.0)

    def test_two_of_four_cells(self):
        # two occupied pixels out of a 4-wide strip: counts 1,0,0,1 -> var 0.25
        pts = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        h = hyp([0, 0, 0], [0, 0, 64])
        assert contrast(pts, np.array([0, 1]), h) == pytest.approx(0.25)

    def test_true_velocity_focuses_better_than_wrong(self):
        rng = np.random.default_rng(5)
        t = np.linspace(0, 64, 60)
        u = 5 + 0.5 * t + rng.normal(0, 0.2, 60)
        v = np.full(60, 20.0) + rng.normal(0, 0.2, 60)
        pts = np.column_stack([u, v, t])
        true = hyp([5, 20, 0], [37, 20, 64])
        wrong = hyp([5, 20, 0], [5, 52, 64])
        idx = np.arange(60)
        # warping along the true line collapses events onto few pixels
        # (low contrast); the wrong line smears them into a sparse strip;
        # one call warps both
        both = warp_and_contrast(pts, [idx, idx], np.array([direction(true), direction(wrong)]))
        assert both[0] < both[1]
        assert both.tolist() == [contrast(pts, idx, true), contrast(pts, idx, wrong)]

    def test_stage2_arithmetic(self):
        # every inlier at the window start, so stage 1 is (s_t / 2)^2 = 4;
        # warped along the time axis, one inlier set lands on one pixel
        # (contrast 0) and the other on two diagonal pixels of a 2 x 2 image
        # (contrast 0.25)
        vox = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        vertical = LineSet(np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]]))
        w1, final = weigh_models(vox, vertical, [(0, np.arange(2)), (0, np.arange(2, 4))], 4.0)
        assert w1.tolist() == [4.0, 4.0]
        assert final.tolist() == [4.0, 3.0]


@st.composite
def survivor_sets(draw):
    """Voxels, representatives and survivors for :func:`weigh_models`.

    Plane coordinates may be negative, directions run from steep (parallel to
    the time axis) to shallow (8 px per unit of time), and an inlier set may
    hold a single voxel.
    """
    n = draw(st.integers(1, 40))
    coord = st.one_of(st.integers(-40, 40).map(float), st.floats(-40.0, 40.0))
    vox = np.array(draw(st.lists(st.tuples(coord, coord, st.floats(0.0, 16.0)),
                                 min_size=n, max_size=n)))
    k = draw(st.integers(1, 6))
    slope = st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3), st.floats(-8.0, 8.0))
    starts, ends = [], []
    for _ in range(k):
        start = np.array(draw(st.tuples(coord, coord, st.floats(0.0, 16.0))))
        dz = draw(st.floats(0.5, 16.0))
        starts.append(start)
        ends.append(start + np.array([draw(slope) * dz, draw(slope) * dz, dz]))
    survivors = draw(st.lists(
        st.tuples(st.integers(0, k - 1),
                  st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
                  .map(lambda idx: np.array(sorted(idx), dtype=np.int64))),
        min_size=1, max_size=8))
    return vox, LineSet(np.array(starts), np.array(ends)), survivors


@st.composite
def segmented_values(draw):
    """Non-negative values, some of them zero, cut into segments of 1-40 values.

    Most segments are 5-10 values long, around numpy's switch from summing
    left to right to pairwise summation at 8. The values span six decades,
    so the order of the additions shows in the last bit.
    """
    sizes = draw(st.lists(st.one_of(st.integers(5, 10), st.integers(1, 40)),
                          min_size=1, max_size=30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(sizes)
    x = rng.random(n) * 10.0 ** rng.integers(-3, 4, n)
    x[rng.random(n) < draw(st.sampled_from([0.0, 0.2, 1.0]))] = 0.0
    return x, np.array(sizes)


class TestSegmentMeans:
    @settings(max_examples=300, deadline=None)
    @given(segmented_values())
    def test_bit_identical_to_numpy_mean(self, case):
        x, sizes = case
        bounds = np.cumsum([0, *sizes]).tolist()
        want = np.array([x[lo:hi].mean() for lo, hi in zip(bounds, bounds[1:])])
        assert fitting._segment_means(x, sizes).tobytes() == want.tobytes()


class TestBatchedWeighting:
    @settings(deadline=None)
    @given(survivor_sets(), st.sampled_from([16.0, 64.0, 240.0]))
    def test_bit_identical_to_per_survivor_reference(self, case, s_t):
        vox, reps, survivors = case
        w1, final = weigh_models(vox, reps, survivors, s_t)
        ref_w1, ref_final = per_survivor_weights(vox, reps, survivors, s_t)
        assert np.array_equal(w1, ref_w1)
        assert np.array_equal(final, ref_final)
        inliers = [idx for _, idx in survivors]
        dirs = reps.directions()[[j for j, _ in survivors]]
        assert np.array_equal(warp_and_contrast(vox, inliers, dirs),
                              [per_survivor_contrast(vox, idx, d) for idx, d in zip(inliers, dirs)])

    def test_empty_inlier_set_is_rejected(self):
        vox = np.zeros((3, 3))
        with pytest.raises(ValueError):
            warp_and_contrast(vox, [np.arange(3), np.empty(0, dtype=np.int64)],
                              np.array([[0.0, 0.0, 1.0]] * 2))


def model_count(weights):
    """:func:`select_model_count` of one window."""
    return int(select_model_count(weights, [len(weights)])[0])


class TestSelectModelCount:
    def test_documented_example(self):
        assert model_count([0.1, 0.11, 0.12, 5.0, 5.1]) == 3

    def test_flat_weights_default_to_one(self):
        assert model_count([1.0, 1.0, 1.0]) == 1
        assert model_count([2.0, 2.0]) == 1

    def test_two_clusters(self):
        assert model_count([0.2, 0.21, 10.0, 10.2, 10.1]) == 2

    def test_single_low_weight(self):
        assert model_count([0.1, 8.0, 8.1, 8.2, 8.3]) == 1

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=12),
           st.randoms())
    def test_permutation_invariance(self, weights, rng):
        shuffled = list(weights)
        rng.shuffle(shuffled)
        assert model_count(shuffled) == model_count(weights)

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=12))
    def test_count_in_valid_range(self, weights):
        k = model_count(weights)
        assert 1 <= k <= max(1, len(weights))

    @given(st.lists(st.lists(st.one_of(st.sampled_from([0.0, 1.0, 1.5, 2.0]),
                                       st.floats(0, 100, allow_nan=False)),
                             min_size=1, max_size=9), min_size=1, max_size=8))
    def test_groups_match_the_per_window_scan(self, groups):
        flat = [w for g in groups for w in g]
        got = select_model_count(flat, [len(g) for g in groups])
        assert got.tolist() == [elbow_count(g) for g in groups]


def associate_one(vox, lines, families, instances, tau):
    """:func:`associate` on a batch of one window that holds every voxel."""
    return associate(vox, [0], [len(vox)], hypothesis_set([lines], [families]), [0],
                     [instances], tau)[0]


@st.composite
def association_window(draw):
    """One window's voxels, hypotheses, representatives and families, on integer coordinates.

    1-12 events and 1-24 hypotheses on a small grid, so that residuals
    repeat; 1-4 representatives, each in its own family of a random (R, H)
    block, so families overlap and often hold more than eight members. A
    hypothesis steps -1 to 3 in time, never by the zero vector, so some
    families hold lines that do not advance in time.
    """
    coord = st.integers(0, 6)
    vox = np.array(draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=12)),
                   dtype=float)
    n_hyps = draw(st.integers(1, 24))
    starts = np.array(draw(st.lists(st.tuples(coord, coord, coord), min_size=n_hyps,
                                    max_size=n_hyps)), dtype=float)
    step = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-1, 3)).filter(any)
    steps = draw(st.lists(step, min_size=n_hyps, max_size=n_hyps))
    lines = LineSet(starts, starts + np.array(steps, dtype=float))
    reps = draw(st.permutations(range(n_hyps)))[:draw(st.integers(1, min(4, n_hyps)))]
    density = draw(st.sampled_from([0.2, 0.6, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    families = rng.uniform(size=(len(reps), n_hyps)) < density
    families[np.arange(len(reps)), reps] = True
    return vox, lines, reps, families


@st.composite
def association_batches(draw):
    """1-3 windows' association inputs and the tau they share.

    tau is a residual of one window to one of its hypotheses (an event sits
    exactly at tau) or the next float above one. Each window gets 1-4
    instances of its representatives (twins fit every event equally well),
    each with its representative's inliers.
    """
    windows = draw(st.lists(association_window(), min_size=1, max_size=3))
    residuals = [residual_matrix(vox, lines) for vox, lines, *_ in windows]
    at = draw(st.sampled_from(residuals))
    tau = float(at.flat[draw(st.integers(0, at.size - 1))])
    if tau == 0 or draw(st.sampled_from(["residual", "above"])) == "above":
        tau = float(np.nextafter(tau, np.inf))
    batch = []
    for (vox, lines, reps, families), values in zip(windows, residuals):
        instances = []
        for k in draw(st.lists(st.integers(0, len(reps) - 1), min_size=1, max_size=4)):
            inliers = np.flatnonzero(values[:, reps[k]] < tau)
            line = lines.take([reps[k]])
            instances.append(WeightedModel(line.starts[0], line.ends[0], k, inliers, 0.0, 0.0))
        batch.append((vox, lines, families, instances))
    return batch, tau


class TestAssociate:
    def _setup(self):
        # line A: static point at (10, 10); line B: point moving along u
        t = np.array([0.1, 0.5, 0.9, 0.1, 0.5, 0.9, 0.5])
        u = np.array([10, 10, 10, 24, 40, 56, 50])
        v = np.array([10, 10, 10, 40, 40, 40, 10])
        order = np.argsort(t, kind="stable")
        win = make_window(t[order], u[order], v[order])
        lines = LineSet(
            np.array([[10.0, 10, 0], [20.0, 40, 0]]),
            np.array([[10.0, 10, 64], [60.0, 40, 64]]),
        )
        hyps = select_representatives([lines], 1e-3)
        ends = lines.take(window_reps(hyps, 0))
        instances = [
            WeightedModel(ends.starts[j], ends.ends[j], j, np.empty(0, dtype=int), 0.0, 0.0)
            for j in range(2)
        ]
        # the window's hypotheses and family block, as associate takes them
        return win, (window_lines(hyps, 0), window_families(hyps, 0)), instances, order

    def test_events_pick_their_line_and_outlier_is_noise(self):
        win, clusters, instances, order = self._setup()
        assignment = associate_one(window_voxels(win), *clusters, instances, 0.05)
        truth = np.array([0, 0, 0, 1, 1, 1, NOISE_ID])[order]
        assert assignment.dtype == np.int64
        assert np.array_equal(assignment, truth)

    def test_ties_go_to_the_earlier_instance(self):
        # two instances with the same family fit every event equally well
        _, clusters, instances, _ = self._setup()
        vox = window_voxels(make_window([0.1, 0.3, 0.5, 0.9], [10, 11, 10, 12], [10, 10, 11, 10]))
        twins = [instances[0], instances[0]]
        # up to 2 px from the static point's line, all below a 3 px radius
        assert associate_one(vox, *clusters, twins, 3.0).tolist() == [0, 0, 0, 0]

    def test_requires_instances(self):
        win, clusters, instances, _ = self._setup()
        from evtraj.fitting import FitError
        vox = window_voxels(win)
        with pytest.raises(FitError):
            associate_one(vox, *clusters, [], 0.05)
        with pytest.raises(FitError):  # every window of a batch needs one
            associate(vox, [0, 0], [len(vox)] * 2, hypothesis_set([clusters[0]], [clusters[1]]),
                      [0, 0], [instances, []], 0.05)

    def test_an_event_at_tau_is_noise(self):
        # the vertical line through (0, 0): events 1 and 2 px off it, tau 2 px
        lines = LineSet(np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]]))
        vox = np.array([[1.0, 0.0, 5.0], [0.0, 2.0, 5.0]])
        instance = WeightedModel(lines.starts[0], lines.ends[0], 0, np.array([0]), 0.0, 0.0)
        got = associate_one(vox, lines, np.ones((1, 1), dtype=bool), [instance], 2.0)
        assert got.tolist() == [0, NOISE_ID]

    def test_a_contested_event_goes_to_the_nearest_family(self):
        # vertical lines at u = 0, 3 and 2.5; the first family holds the
        # first two. Event 0 is below tau of both instances, 1 px from the
        # first family's far member and 0.5 px from the second family; event
        # 1 is exactly 0.25 px from a member of each, a tie
        lines = LineSet(np.array([[0.0, 0, 0], [3.0, 0, 0], [2.5, 0, 0]]),
                        np.array([[0.0, 0, 1], [3.0, 0, 1], [2.5, 0, 1]]))
        families = np.array([[True, True, False], [False, False, True]])
        vox = np.array([[2.0, 0.0, 0.0], [2.75, 0.0, 0.0]])
        reps = [WeightedModel(lines.starts[j], lines.ends[j], k, np.empty(0, dtype=np.int64),
                              0.0, 0.0) for k, j in enumerate([0, 2])]
        assert associate_one(vox, lines, families, reps, 1.5).tolist() == [1, 0]
        assert associate_one(vox, lines, families[::-1], reps, 1.5).tolist() == [0, 0]

    @settings(max_examples=300, deadline=None)
    @given(association_batches(), st.sampled_from([1, 5, 40, None]), st.integers(0, 3))
    def test_matches_the_per_instance_reference(self, batch_tau, cap, pad):
        # the windows sit one after another behind ``pad`` voxels of no
        # window; a small cap splits every gathered pass into chunks
        batch, tau = batch_tau
        voxels, lines, families, instances = zip(*batch)
        vox = np.concatenate([np.full((pad, 3), 99.0), *voxels])
        sizes = [len(v) for v in voxels]
        first = (pad + np.cumsum(sizes) - sizes).tolist()
        default = fitting._BATCH_PAIRS
        fitting._BATCH_PAIRS = cap or default
        try:
            got = associate(vox, first, sizes, hypothesis_set(lines, families),
                            range(len(batch)), instances, tau)
        finally:
            fitting._BATCH_PAIRS = default
        assert len(got) == len(batch)
        for assignment, window in zip(got, batch):
            assert assignment.dtype == np.int64
            assert assignment.tolist() == reference_associate(*window, tau).tolist()

    def test_products_split_at_the_pair_cap(self, monkeypatch):
        # 30 events, none an inlier, against a 40-member family: at a cap of
        # 100 the instance's (30 x 40) product goes in row blocks of two rows,
        # and at a cap of 30 one row alone holds more than the cap, so each
        # row is a product of its own
        rng = np.random.default_rng(3)
        starts = rng.uniform(0, 20, (40, 3))
        lines = LineSet(starts, starts + np.array([1.0, 0.5, 4.0]))
        vox = rng.uniform(0, 20, (30, 3))
        instance = WeightedModel(lines.starts[0], lines.ends[0], 0, np.empty(0, dtype=np.int64),
                                 0.0, 0.0)
        families = np.ones((1, 40), dtype=bool)
        want = reference_associate(vox, lines, families, [instance], 1.0)
        assert 0 < (want != NOISE_ID).sum() < 30
        products = spy_products(monkeypatch)
        for cap, shape in [(100, (2, 40)), (30, (1, 40))]:
            monkeypatch.setattr(fitting, "_BATCH_PAIRS", cap)
            products.clear()
            assert np.array_equal(associate_one(vox, lines, families, [instance], 1.0), want)
            assert set(products) == {shape} and len(products) == 30 // shape[0]

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 10), st.sampled_from([1, 5, 40, None]))
    def test_nearest_is_the_residual_matrix_minimum(self, data, distinct, cap):
        # 120 lines drawn from a few distinct ones, so minima tie; runs of
        # 1-40 lines, and 0-30 pairs on them
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        base = rng.integers(0, 7, (distinct, 3)).astype(float)
        pick = rng.integers(0, distinct, 120)
        lines = LineSet(base[pick], base[pick] + rng.integers(1, 4, (distinct, 3))[pick])
        vox = rng.integers(0, 7, (20, 3)).astype(float)
        count = np.array(data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=5)))
        first = rng.integers(0, 121 - count)
        n_pairs = data.draw(st.integers(0, 30))
        owner, voxel = rng.integers(0, count.size, n_pairs), rng.integers(0, 20, n_pairs)
        blocks, block_lines = [], fitting._block_lines

        def spy(table, line, run):
            blocks.append((run.size, line.shape[1]))
            return block_lines(table, line, run)

        default = fitting._BATCH_PAIRS
        fitting._BATCH_PAIRS, fitting._block_lines = cap or default, spy
        try:
            got = fitting._nearest(vox, voxel, owner, fitting._line_table(lines), first, count)
        finally:
            fitting._BATCH_PAIRS, fitting._block_lines = default, block_lines
        want = [residual_matrix(vox[[v]], lines.take(first[g] + np.arange(count[g]))).min()
                for v, g in zip(voxel, owner)]
        assert got.tobytes() == np.array(want, dtype=float).tobytes()
        assert sum(rows for rows, _ in blocks) == n_pairs
        for rows, width in blocks:
            assert rows * width <= (cap or default) or rows == 1


# inlier radii the band must decide exactly: RunConfig accepts any positive tau, inf included
BAND_TAUS = [1e-300, 1e-3, 0.75, 1.5, 3.0, 40.0, 1e150, math.inf]
BAND_SENSORS = [(16, 16), (240, 180), (1000, 1000)]


@st.composite
def band_cases(draw, max_side=1000):
    """Lines and voxels on a sensor of up to ``max_side`` px a side, the voxels near tau of the lines.

    1-6 lines cross the sensor's (u, v, t_norm) box, each through a point in
    it along a random direction 1e-6 to 1e6 px long (the longest put their
    starts far outside the box), or along the time axis from an integer
    start. Each of 1-30 voxels lies 0, 1e-3, 0.75, 1.5, 3 or 40 px from a
    point of a line near the box, off it along a random normal. tau is one
    of ``BAND_TAUS`` or a residual of a voxel to a line, nudged by -3 to 3
    ulps.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    width, height = draw(st.integers(16, max_side)), draw(st.integers(16, max_side))
    box = np.array([width - 1.0, height - 1.0, max(width, height)])
    n_lines = draw(st.integers(1, 6))
    d = rng.normal(size=(n_lines, 3))
    d *= draw(st.sampled_from([1e-6, 1e-3, 1.0, 50.0, 1e6])) / np.linalg.norm(d, axis=1,
                                                                             keepdims=True)
    foot = rng.uniform(0.0, 1.0, (n_lines, 3)) * box
    axis = rng.uniform(size=n_lines) < 0.3
    foot[axis], d[axis] = np.rint(foot[axis]), [0.0, 0.0, 1.0]
    starts = np.where(axis[:, None], foot, foot - rng.uniform(-1.0, 1.0, (n_lines, 1)) * d)
    lines = LineSet(starts, starts + d)
    n_vox = draw(st.integers(1, 30))
    line = rng.integers(0, n_lines, n_vox)
    unit = d[line] / np.linalg.norm(d[line], axis=1, keepdims=True)
    normal = rng.normal(size=(n_vox, 3))
    normal -= unit * (normal * unit).sum(axis=1, keepdims=True)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    along = rng.uniform(-0.5, 0.5, (n_vox, 1)) * box[2] * unit
    radius = rng.choice([0.0, 1e-3, 0.75, 1.5, 3.0, 40.0], size=(n_vox, 1))
    vox = foot[line] + along + radius * normal
    values = residual_matrix(vox, lines)
    if draw(st.booleans()):
        tau = draw(st.sampled_from(BAND_TAUS))
    else:
        tau = float(values.flat[draw(st.integers(0, values.size - 1))])
        ulps = draw(st.integers(-3, 3))
        for _ in range(abs(ulps)):
            tau = float(np.nextafter(tau, np.copysign(np.inf, ulps)))
        tau = max(tau, 5e-324)  # RunConfig wants a positive tau
    return vox, lines, tau


def check_band(vox, lines, tau) -> int:
    """Assert that the band settles only what :func:`residual_matrix` decides the same way.

    Every pair whose product is below the band has a residual below tau,
    every pair above it one that is not; every pair of one family and of
    each line alone is associated as :func:`reference_associate` does.
    Returns the number of pairs inside the band.
    """
    blocks = fitting._row_blocks(0, len(vox), 0, len(lines))
    q = fitting._squared(fitting._features(vox), fitting._quadrics(lines), blocks)
    q = q.reshape(len(vox), len(lines)).copy()
    lo, hi = fitting._band(tau, vox, lines.starts)
    values = residual_matrix(vox, lines)
    assert (values[q < lo] < tau).all()
    assert not (values[q > hi] < tau).any()
    families = np.vstack([np.ones(len(lines), dtype=bool), np.eye(len(lines), dtype=bool)])
    instances = [WeightedModel(lines.starts[0], lines.ends[0], k, np.empty(0, dtype=np.int64),
                               0.0, 0.0) for k in range(len(families))]
    want = reference_associate(vox, lines, families, instances, tau)
    assert associate_one(vox, lines, families, instances, tau).tolist() == want.tolist()
    return int((~(q < lo) & ~(q > hi)).sum())


def sensor_windows(width: int, height: int, seed: int) -> list:
    """Four windows of two point motions and 20% clutter across a ``width`` x ``height`` sensor."""
    rng = np.random.default_rng(seed)
    geometry, windows = SensorGeometry(width, height), []
    for _ in range(4):
        f = np.sort(rng.uniform(0.0, 1.0, 60))
        motion = rng.integers(0, 3, f.size)  # 2: clutter
        a, b = rng.uniform(0.1, 0.9, (2, 2, 2)) * [width - 1, height - 1]
        path = a[motion % 2] + f[:, None] * (b - a)[motion % 2] * 0.2
        clutter = rng.uniform(0.0, 1.0, (f.size, 2)) * [width - 1, height - 1]
        uv = np.rint(np.where((motion == 2)[:, None], clutter, path)).astype(int)
        windows.append(window_of(geometry, f * 0.01, uv[:, 0], uv[:, 1], 0.0, 0.01))
    return windows


def spy_products(monkeypatch) -> list:
    """The (rows, columns) of every fit product: each ``np.dot`` of voxel features by lines."""
    products, dot = [], np.dot

    def spied(a, b, out=None):
        if np.ndim(a) == 2 and np.shape(a)[1] == 10:
            products.append(out.shape)
        return dot(a, b, out=out)

    monkeypatch.setattr(np, "dot", spied)
    return products


class TestResidualBand:
    """The squared products decide ``residual < tau`` as :func:`residual_matrix` does."""

    @settings(max_examples=200, deadline=None)
    @given(band_cases())
    def test_settles_only_what_the_residuals_decide(self, case):
        check_band(*case)

    @pytest.mark.parametrize("width, height", BAND_SENSORS)
    def test_fits_near_tau_match_the_references(self, width, height):
        # every tau of BAND_TAUS, then a residual of each window's reference
        # matrix and 1 and 2 ulps either side of it: the inlier sets and ids
        # equal the per-window references
        windows = sensor_windows(width, height, seed=width)
        stages = [reference_residuals(w, lane_config()) for w in windows]
        matrices = [m for *_, m in filter(None, stages)]
        assert len(matrices) > 1
        taus = list(BAND_TAUS)
        for values in matrices[:2]:
            r = float(np.sort(values, axis=None)[values.size // 2])
            for way in (-np.inf, np.inf):
                tau = r
                for _ in range(3):  # the residual, then 1 and 2 ulps away
                    taus.append(tau)
                    tau = float(np.nextafter(tau, way))
        fitted = 0
        for tau in taus:
            config = lane_config(tau=tau)
            for window, got in zip(windows, fit_windows(windows, config)):
                assert_same_fit(got, reference_fit_window(window, config))
                fitted += not got.failed
        assert fitted > len(taus)

    @pytest.mark.parametrize("width, height", BAND_SENSORS)
    def test_events_at_tau_of_lines(self, width, height):
        # 40 voxels at 1.5 px along random normals of five lines through the
        # sensor, and tau on each computed residual and 1-3 ulps either side
        rng = np.random.default_rng(width)
        s_t = max(width, height)
        d = rng.normal(size=(5, 3)) * 20.0
        starts = rng.uniform(0.0, 1.0, (5, 3)) * [width - 1, height - 1, s_t]
        lines = LineSet(starts, starts + d)
        unit = d / np.linalg.norm(d, axis=1, keepdims=True)
        line = np.arange(40) % 5
        normal = rng.normal(size=(40, 3))
        normal -= unit[line] * (normal * unit[line]).sum(axis=1, keepdims=True)
        normal /= np.linalg.norm(normal, axis=1, keepdims=True)
        vox = starts[line] + rng.uniform(-1.0, 1.0, (40, 1)) * d[line] + 1.5 * normal
        inside = 0
        for r in residual_matrix(vox, lines)[np.arange(40), line][:8]:
            for way in (-np.inf, np.inf):
                tau = float(r)
                for _ in range(4):  # the residual, then 1-3 ulps away
                    inside += check_band(vox, lines, tau)
                    tau = float(np.nextafter(tau, way))
        assert inside > 0  # pairs at tau do reach the exact residuals

    def test_band_is_nan_where_its_bound_does_not_hold(self):
        vox, starts = np.array([[3.0, 4.0, 5.0]]), np.zeros((1, 3))
        lo, hi = fitting._band(1.5, vox, starts)
        assert lo < 2.25 < hi and hi - lo == pytest.approx(2 * 2.0 ** -30 * 6.5 ** 2)
        for tau, vox_scale in [(math.inf, 1.0), (1e300, 1.0), (1.5, 2.0 ** 198),
                               (1.5, 2.0 ** -203), (1.5, 0.0), (math.nan, 1.0)]:
            lo, hi = fitting._band(tau, vox * vox_scale, starts * vox_scale)
            assert math.isnan(lo) and not hi < math.inf
        # a line of zero or underflowing length gets NaN coefficients
        lines = LineSet(np.zeros((3, 3)), np.array([[0.0, 0, 0], [0, 0, 1e-300], [0, 0, 1]]))
        assert np.isnan(fitting._quadrics(lines)[:2]).all()
        assert not np.isnan(fitting._quadrics(lines)[2]).any()

    @pytest.mark.parametrize("cap", [None, 300])
    def test_every_fit_product_holds_at_most_the_pair_cap(self, cap, monkeypatch):
        # windows of band [5, 6] on a lanes tile hold thousands of events, so
        # their products are split into row blocks of at most the cap, as
        # are association's products of every instance by its family
        stream = generate_scene(lanes_tile(1)).stream
        config = RunConfig(width=240, height=180, entropy_alpha=5.0, entropy_beta=6.0)
        want = relabel(run_eda(stream, config), len(stream))
        products = spy_products(monkeypatch)
        if cap:
            monkeypatch.setattr(fitting, "_BATCH_PAIRS", cap)
        got = relabel(run_eda(stream, config), len(stream))
        limit = cap or fitting._BATCH_PAIRS
        assert np.array_equal(got, want)
        assert all(rows * columns <= limit or rows == 1 for rows, columns in products)
        assert max(rows * columns for rows, columns in products) > limit // 2
        assert max(rows for rows, _ in products) > 1


class TestFitWindow:
    def test_degenerate_window_degrades_to_flagged_noise(self):
        win = make_window([0.5, 0.5, 0.5], [1, 2, 3], [1, 2, 3])
        res = fit_window(win, lane_config())
        assert res.failed
        assert res.num_models == 0
        assert np.all(res.assignment == NOISE_ID)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 63), st.integers(0, 63)),
                 min_size=1, max_size=40),
        st.booleans(),
        st.booleans(),
    )
    def test_degenerate_windows_never_raise(self, events, single_pixel, equal_t):
        t, u, v = (np.array(x) for x in zip(*sorted(events)))
        if single_pixel:
            u, v = np.full_like(u, u[0]), np.full_like(v, v[0])
        if equal_t:
            t = np.full_like(t, t[0])
        res = fit_window(make_window(t, u, v), lane_config())
        assert res.assignment.shape == (t.size,)
        assert np.all((res.assignment >= NOISE_ID) & (res.assignment < res.num_models))
        if res.failed:
            assert res.num_models == 0
            assert np.all(res.assignment == NOISE_ID)

    def test_clean_single_motion(self):
        data = generate_scene(lane_scene(1, seed=0, clutter_frac=0.0))
        res = fit_window(lane_window(data), lane_config())
        assert not res.failed
        assert res.num_models == 1
        correct = np.mean(res.assignment[data.labels == 0] == 0)
        assert correct >= 0.8

    def test_weight_stages_are_contractive(self):
        for seed in range(5):
            data = generate_scene(lane_scene(2, seed=seed))
            res = fit_window(lane_window(data), lane_config())
            assert res.instances
            for m in res.instances:
                assert 0.0 <= m.w_final <= m.w_stage1 + 1e-12

    def test_weigh_models_matches_manual_stages(self):
        cfg = lane_config()
        for motions in (1, 3):  # one survivor, then seventeen
            win = lane_window(generate_scene(lane_scene(motions, seed=3, clutter_frac=0.0)))
            vox = window_voxels(win)
            lines = generate(win, vox, cfg.num_slices, cfg.max_pairs)
            reps = lines.take(window_reps(select_representatives([lines], cfg.parallel_tol), 0))
            s_t = time_scale(win.geometry)
            matrix = residual_matrix(vox, reps)
            survivors = matrix_inliers(matrix, cfg.tau, cfg.min_inliers)
            w1, final = weigh_models(vox, reps, survivors, s_t)
            ref_w1, ref_final = per_survivor_weights(vox, reps, survivors, s_t)
            assert np.array_equal(w1, ref_w1)
            assert np.array_equal(final, ref_final)


GEOMETRIES = (SensorGeometry(64, 64), SensorGeometry(240, 180))


@st.composite
def fit_batch_windows(draw, kinds=("tiny", "flat", "lone", "moving")):
    """One window of a kind that the batched fit has to keep apart from the others.

    ``tiny``: 0-2 events. ``flat``: every event at one timestamp, so one time
    slice. ``lone``: the first-slice events share
    one voxel and the last-slice events another, so every hypothesis is the
    same line and the window has one representative (a lone residual column
    in a batch of wider ones), with 24-60 events in between. ``moving``: a point moving
    at a random velocity plus clutter.
    """
    geom = draw(st.sampled_from(GEOMETRIES))
    t_start = draw(st.floats(0.0, 10.0))
    span = draw(st.floats(1e-3, 1.0))
    u = st.integers(0, geom.width - 1)
    v = st.integers(0, geom.height - 1)
    kind = draw(st.sampled_from(kinds))
    if kind == "tiny":
        events = draw(st.lists(st.tuples(st.floats(0.0, 1.0), u, v), max_size=2))
    elif kind == "flat":
        f = draw(st.floats(0.0, 1.0))
        events = [(f, a, b) for a, b in draw(st.lists(st.tuples(u, v), min_size=2, max_size=12))]
    elif kind == "lone":
        f0, f1 = draw(st.floats(0.0, 0.09)), draw(st.floats(0.91, 1.0))
        a, b = (draw(u), draw(v)), (draw(u), draw(v))
        middle = draw(st.lists(st.tuples(st.floats(0.2, 0.8), u, v), min_size=24, max_size=60))
        events = ([(f0, *a)] * draw(st.integers(1, 3)) + [(f1, *b)] * draw(st.integers(1, 3))
                  + middle)
    else:
        x0, y0 = draw(u), draw(v)
        vx, vy = draw(st.floats(-40.0, 40.0)), draw(st.floats(-40.0, 40.0))
        fs = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=40))
        events = [(f, int(np.clip(round(x0 + vx * f), 0, geom.width - 1)),
                   int(np.clip(round(y0 + vy * f), 0, geom.height - 1))) for f in fs]
        events += draw(st.lists(st.tuples(st.floats(0.0, 1.0), u, v), max_size=10))
    events.sort()
    t = np.array([t_start + f * span for f, _, _ in events], dtype=np.float64)
    return window_of(geom, t, [a for _, a, _ in events], [b for _, _, b in events],
                     t_start, t_start + span)


def assert_same_fit(got: AssociationResult, want: AssociationResult):
    assert got.window is want.window
    assert got.assignment.dtype == want.assignment.dtype
    assert np.array_equal(got.assignment, want.assignment)
    assert got.failed == want.failed and got.num_models == want.num_models
    for a, b in zip(got.instances, want.instances):
        assert a.rep_index == b.rep_index
        assert np.array_equal(a.start, b.start) and np.array_equal(a.end, b.end)
        assert np.array_equal(a.inliers, b.inliers)
        assert a.w_stage1 == b.w_stage1 and a.w_final == b.w_final


def sliced_window(rng, n_first: int, n_last: int, duplicate: bool = False) -> EventWindow:
    """A window whose first and last time slices hold ``n_first`` and ``n_last`` events.

    :func:`generate` gives it ``n_first * n_last`` hypotheses. The events
    follow a point moving at (600, 300) px/s within 2 px, with 24 more
    events between the two slices. With ``duplicate``, both slices hold two
    events one pixel apart at one timestamp, so two hypotheses have the same
    direction, bit for bit.
    """
    span = 0.05
    f = np.concatenate([rng.uniform(0.0, 0.08, n_first), rng.uniform(0.15, 0.85, 24),
                        rng.uniform(0.92, 1.0, n_last)])
    u = np.rint(10 + 30 * f) + rng.integers(-2, 3, f.size)
    v = np.rint(20 + 15 * f) + rng.integers(-2, 3, f.size)
    if duplicate:
        f[[1, -1]], u[[1, -1]], v[[1, -1]] = f[[0, -2]], u[[0, -2]] + 1, v[[0, -2]]
    order = np.argsort(f, kind="stable")
    return window_of(GEOM, f[order] * span, u[order].astype(int), v[order].astype(int), 0.0,
                     span)


class TestFitWindows:
    @pytest.mark.parametrize("tol", [1e-18, 1e-3, 0.2])
    def test_one_call_across_the_row_cut_matches_the_per_window_references(self, tol,
                                                                         monkeypatch):
        # windows of 1, 64, 65 and 400 hypotheses, one with a duplicate
        # direction, clustered in one call: the 65 and 400 go to row blocks and,
        # at 1e-18, the duplicate sits on the cut, so its small window goes to
        # row blocks too and, like them, to the full product only when tied.
        # Its representatives and family blocks are the greedy search's, and
        # its fits the references
        rng = np.random.default_rng(9)
        shapes = [(1, 1), (8, 8), (2, 2), (5, 13), (20, 20), (8, 8), (1, 1), (5, 13)]
        windows = [sliced_window(rng, a, b, duplicate=(a, b) == (2, 2)) for a, b in shapes]
        config = lane_config(parallel_tol=tol)
        calls, dense, blocked = [], [], []
        cluster, cluster_dense = select_representatives, hypotheses._cluster_dense
        cluster_blocked = hypotheses._cluster_blocked

        def clustering(lines, parallel_tol):
            calls.append((lines, cluster(lines, parallel_tol)))
            return calls[-1][1]

        def clustering_dense(units, cut):
            dense.append(len(units))
            return cluster_dense(units, cut)

        def clustering_blocked(units, cut, *scratch):
            found = cluster_blocked(units, cut, *scratch)
            blocked.append((len(units), found is None))
            return found

        monkeypatch.setattr(fitting, "select_representatives", clustering)
        monkeypatch.setattr(hypotheses, "_cluster_dense", clustering_dense)
        monkeypatch.setattr(hypotheses, "_cluster_blocked", clustering_blocked)
        results = fit_windows(windows, config)
        [(lines, got)] = calls
        assert [len(h) for h in lines] == [a * b for a, b in shapes]
        assert sorted(blocked) == ([(4, True)] if tol == 1e-18 else []) + [
            (65, False), (65, False), (400, False)]
        assert sorted(dense) == [n for n, tied in sorted(blocked) if tied]
        for w, hyps in enumerate(lines):
            want = greedy_representatives(hyps, tol)
            assert window_reps(got, w).tolist() == window_reps(want, 0).tolist()
            family = window_families(got, w)
            assert family.shape == window_families(want, 0).shape
            assert family.tobytes() == window_families(want, 0).tobytes()
        for window, result in zip(windows, results):
            assert_same_fit(result, reference_fit_window(window, config))
        assert sum(not r.failed for r in results) > len(windows) // 2

    @settings(max_examples=300, deadline=None)
    @given(st.lists(fit_batch_windows(), max_size=7),
           st.tuples(fit_batch_windows(kinds=("lone",)), st.integers(0, 7)),
           st.one_of(st.sampled_from([0.5, 1.5, 4.0]), st.integers(0, 10 ** 6)),
           st.sampled_from([1, 60, None]),
           st.sampled_from([1, 400, None]))
    def test_bit_identical_to_per_window_reference(self, windows, lone, tau, cap, cluster_cap):
        # an integer tau picks a residual of the reference, and the fit runs
        # with tau on it and just above it, so one rounding step in that
        # residual changes an inlier set; a small pair cap splits the call
        # into batches, and a small cluster cap into several clustering runs
        windows.insert(lone[1], lone[0])
        taus = [tau]
        if isinstance(tau, int):
            stages = [reference_residuals(w, lane_config()) for w in windows]
            matrices = [m for *_, m in filter(None, stages) if (m > 0).any()]
            taus = [0.01]  # every residual is zero
            if matrices:
                values = matrices[tau % len(matrices)]
                values = values[values > 0]
                taus = [float(values[tau % values.size])]
                taus.append(float(np.nextafter(taus[0], np.inf)))
        default, cluster_default = fitting._BATCH_PAIRS, fitting._CLUSTER_PAIRS
        fitting._BATCH_PAIRS = cap or default
        fitting._CLUSTER_PAIRS = cluster_cap or cluster_default
        try:
            for tau in taus:
                config = lane_config(tau=tau)
                results = fit_windows(windows, config)
                assert len(results) == len(windows)
                for window, got in zip(windows, results):
                    assert_same_fit(got, reference_fit_window(window, config))
        finally:
            fitting._BATCH_PAIRS, fitting._CLUSTER_PAIRS = default, cluster_default

    @settings(max_examples=60, deadline=None)
    @given(st.lists(fit_batch_windows(), min_size=1, max_size=6), st.sampled_from([1, 7, None]))
    def test_products_are_the_squared_window_matrices(self, windows, cap):
        # one to three lines per window, through its first voxel: each
        # window's run of products, in row blocks within the cap, is its
        # residual matrix squared, within the 2 ** -44 S² that _band derives
        vox = [window_voxels(w) for w in windows if len(w)]
        if not vox:
            return
        starts = [v[:1] + np.arange(1 + i % 3)[:, None] for i, v in enumerate(vox)]
        reps = [LineSet(s, s + np.array([1.0, 2.0, 3.0])) for s in starts]
        sizes = np.array([len(v) for v in vox])
        counts = np.array([len(r) for r in reps])
        lines = LineSet(np.concatenate([r.starts for r in reps]),
                        np.concatenate([r.ends for r in reps]))
        default = fitting._BATCH_PAIRS
        fitting._BATCH_PAIRS = cap or default
        try:
            blocks = [b for p in zip((np.cumsum(sizes) - sizes).tolist(), sizes.tolist(),
                                     (np.cumsum(counts) - counts).tolist(), counts.tolist())
                      for b in fitting._row_blocks(*p)]
            assert all(n * m <= (cap or default) or n == 1 for _, n, _, m in blocks)
            values = fitting._squared(fitting._features(np.concatenate(vox)),
                                      fitting._quadrics(lines), blocks).copy()
        finally:
            fitting._BATCH_PAIRS = default
        scale = max(np.abs(np.concatenate(vox)).max(), np.abs(lines.starts).max())
        runs = np.split(values, np.cumsum(sizes * counts)[:-1])
        for v, r, run in zip(vox, reps, runs):
            want = residual_matrix(v, r) ** 2
            assert np.abs(run.reshape(len(v), len(r)) - want).max() <= 2.0 ** -44 * scale ** 2

    def test_cluster_cap_splits_clustering_runs(self, monkeypatch):
        # one window's hypothesis pairs alone exceed a cap of 1, so every
        # window with hypotheses is clustered on its own, with the same results
        config = lane_config()
        windows = [r.window for r in run_eda(generate_scene(lane_scene(2, seed=5)).stream, config)]
        windows.insert(2, make_window([0.5, 0.5, 0.5], [1, 2, 3], [1, 2, 3]))  # no hypotheses
        with_hyps = sum(reference_residuals(w, config) is not None for w in windows)
        assert len(windows) > with_hyps > 1
        want = fit_windows(windows, config)
        runs = []

        def counting(hyps, parallel_tol):
            runs.append(len(hyps))
            return select_representatives(hyps, parallel_tol)

        monkeypatch.setattr(fitting, "select_representatives", counting)
        monkeypatch.setattr(fitting, "_CLUSTER_PAIRS", 1)
        got = fit_windows(windows, config)
        assert runs == [1] * with_hyps
        for a, b in zip(got, want):
            assert_same_fit(a, b)

    @pytest.mark.parametrize("cap", [1, 60, None])
    @pytest.mark.parametrize("cluster_cap", [1, 100_000, None])
    def test_one_fit_batch_per_clustering_run(self, cap, cluster_cap, monkeypatch):
        # the inliers go in chunks of whole windows within the pair cap, or of
        # one window alone, each one _squared call of row blocks within the
        # cap and one select_inliers call; the weighting and association run
        # once per clustering run that keeps a survivor, after its last chunk
        # and before the next run is clustered
        config = lane_config()
        windows = [r.window for r in run_eda(framed_track_stream(), config)] + pair_windows()
        windows.insert(3, make_window([0.5, 0.5, 0.5], [1, 2, 3], [1, 2, 3]))  # no hypotheses
        first = np.cumsum([0] + [len(w) for w in windows])
        log = []

        def spy(name):
            real = getattr(fitting, name)

            def logged(*args, **kwargs):
                log.append((name, args))
                return real(*args, **kwargs)
            monkeypatch.setattr(fitting, name, logged)

        for name in ("select_representatives", "_squared", "select_inliers", "weigh_models",
                     "associate"):
            spy(name)
        monkeypatch.setattr(fitting, "_BATCH_PAIRS", cap or fitting._BATCH_PAIRS)
        monkeypatch.setattr(fitting, "_CLUSTER_PAIRS", cluster_cap or fitting._CLUSTER_PAIRS)
        results = fit_windows(windows, config)
        hypothesized = [k for k, w in enumerate(windows)
                        if reference_residuals(w, config) is not None]
        assert len(windows) > len(hypothesized)
        runs, calls = [], []  # each run's windows, and the calls made after its clustering
        for name, args in log:
            if name == "select_representatives":
                runs.append(hypothesized[:len(args[0])])
                del hypothesized[:len(args[0])]
                calls.append([])
            else:
                calls[-1].append((name, args))
        assert not hypothesized
        if cluster_cap == 1:
            assert [len(run) for run in runs] == [1] * len(runs)
        if cluster_cap == 100_000:
            assert len(runs) > 1 and max(len(run) for run in runs) > 1
        multi = 0  # chunks of two or more windows
        for run, after in zip(runs, calls):
            names = [name for name, _ in after]
            fitted = any(not results[k].failed for k in run)
            fit = names.index("weigh_models") if fitted else len(names)
            chunks = [args[2] for name, args in after[:fit] if name == "_squared"]
            assert names[:fit] == ["_squared", "select_inliers"] * len(chunks)
            rows = dict.fromkeys(run, 0)  # each window's rows over the chunks
            for blocks in chunks:  # block voxels count from the run's first
                owners = np.searchsorted(first, [first[run[0]] + v for v, *_ in blocks],
                                         side="right") - 1
                assert len(set(owners)) == 1 or sum(n * m for _, n, _, m in blocks) <= \
                    fitting._BATCH_PAIRS
                multi += len(set(owners)) > 1
                for k, (_, n, _, m) in zip(owners.tolist(), blocks):
                    assert n * m <= fitting._BATCH_PAIRS or n == 1
                    rows[k] += n
            assert rows == {k: len(windows[k]) for k in run}
            assert names[fit:fit + 2] == (["weigh_models", "associate"] if fitted else [])
            assert set(names[fit + 2:]) <= {"_squared"}  # association's products
        assert (multi > 0) == (cap != 1 and cluster_cap != 1)
        for window, result in zip(windows, results):
            assert_same_fit(result, reference_fit_window(window, config))

    def test_inliers_are_never_noise_at_a_tiny_parallel_tolerance(self):
        # an inlier is below tau of its representative, a member of its own
        # family, so it goes to some instance; at parallel_tol 1e-18 rounding
        # left representatives outside their families and their inliers noise
        config = lane_config(parallel_tol=1e-18)
        windows = pair_windows()
        results = fit_windows(windows, config)
        assert sum(r.num_models for r in results) > len(windows) / 2
        for window, res in zip(windows, results):
            for k, m in enumerate(res.instances):
                assert (res.assignment[m.inliers] != NOISE_ID).all()
                assert (res.assignment == k).any()
            assert_same_fit(res, reference_fit_window(window, config))

    def test_fit_window_is_a_batch_of_one(self):
        data = generate_scene(lane_scene(2, seed=5))
        window = lane_window(data)
        assert_same_fit(fit_window(window, lane_config()), fit_windows([window], lane_config())[0])
        assert fit_windows([], lane_config()) == []


def fit_digest(results) -> str:
    """sha256 over every field of a list of fit results."""
    h = hashlib.sha256()
    for res in results:
        h.update(repr((res.window.offset, res.window.stop, res.window.t_start,
                       res.window.t_end)).encode())
        h.update(res.assignment.tobytes())
        for m in res.instances:
            h.update(repr((m.rep_index, m.w_stage1, m.w_final)).encode())
            for a in (m.start, m.end, m.inliers):
                h.update(a.tobytes())
    return h.hexdigest()


def scene_windows(seed: int):
    return [r.window for r in run_eda(generate_scene(lane_scene(2, seed=seed)).stream,
                                      lane_config())]


class TestScratch:
    """Batch temporaries live in per-thread scratch buffers that results never alias."""

    def test_results_do_not_alias_the_scratch(self):
        config = lane_config()
        first = fit_windows(pair_windows(), config)
        before = fit_digest(first)
        fit_windows(scene_windows(5), config)  # the same scratch, other windows
        assert fit_digest(first) == before

    def test_public_residuals_do_not_alias_the_scratch(self):
        vox = window_voxels(pair_windows()[0])
        lines = LineSet(vox[:3], vox[-3:])
        outputs = [point_line_distances(vox, lines.starts, lines.ends),
                   residual_matrix(vox, lines)]
        copies = [a.copy() for a in outputs]
        residual_matrix(vox[::-1].copy(), lines)
        for a, b in zip(outputs, copies):
            assert np.array_equal(a, b)

    def test_a_name_keeps_one_buffer_per_dtype(self):
        scratch = Scratch(8)
        ints = scratch.take("x", 4, np.int64)
        ints[:] = 7
        floats = scratch.take("x", 4)
        assert floats.dtype == np.float64
        floats[:] = 0.5
        assert ints.tolist() == [7] * 4
        assert np.shares_memory(scratch.take("x", (2, 2), np.int64), ints)

    def test_concurrent_threads_match_sequential_fits(self):
        config = lane_config()
        scenes = [pair_windows(), scene_windows(6)]
        want = [fit_digest(fit_windows(w, config)) for w in scenes]
        got = [[], []]
        start = threading.Barrier(2, timeout=60)

        def fit(k):
            start.wait()
            for _ in range(20):
                got[k].append(fit_digest(fit_windows(scenes[k], config)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=fit, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[want[0]] * 20, [want[1]] * 20]

    @staticmethod
    def fresh_faults(*lines) -> int:
        """The number a script prints, run in a fresh interpreter.

        glibc's malloc thresholds adapt to what the process freed before, so
        earlier tests could hide the faults.
        """
        path = os.pathsep.join([str(Path(evtraj.__file__).parents[1]), str(Path(__file__).parent)])
        run = subprocess.run([sys.executable, "-c", "\n".join(lines)], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": path})
        assert run.returncode == 0, run.stderr
        return int(run.stdout)

    def test_warm_fits_do_not_page_fault(self):
        assert self.fresh_faults(
            "import resource",
            "from conftest import lane_config, pair_windows",
            "from evtraj.fitting import fit_windows",
            "windows, config = pair_windows(), lane_config()",
            "fit_windows(windows, config)",  # warm-up
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
            "for _ in range(3):",
            "    fit_windows(windows, config)",
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
        ) < 300

    def test_warm_association_of_long_families_does_not_page_fault(self):
        # the lanes tiles' families of dozens of lines take many chunks of
        # products and their coefficient tables, which pair windows never reach. Two
        # tiles take turns, so that malloc's adaptive mmap threshold cannot hide
        # temporaries past it (run-sized blocks fault ~3,800 pages here). Only
        # association is counted: clustering's faults on a tile vary with the scene
        assert self.fresh_faults(
            "import resource",
            "from conftest import lanes_tile",
            "from evtraj import fitting",
            "from evtraj.config import RunConfig",
            "from evtraj.synth import generate_scene",
            "streams = [generate_scene(lanes_tile(seed)).stream for seed in (1, 2)]",
            "config = RunConfig(width=240, height=180)",
            "faults, associate = [0], fitting.associate",
            "def counted(*args):",
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
            "    result = associate(*args)",
            "    faults[0] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before",
            "    return result",
            "fitting.associate = counted",
            "for stream in streams:",  # warm-up
            "    fitting.run_eda(stream, config)",
            "faults[0] = 0",
            "for _ in range(3):",
            "    for stream in streams:",
            "        fitting.run_eda(stream, config)",
            "print(faults[0])",
        ) < 300


class TestRunEda:
    def test_clean_single_motion_end_to_end(self):
        data = generate_scene(lane_scene(1, seed=1, clutter_frac=0.0))
        results = run_eda(data.stream, lane_config())
        assert results
        assert all(not r.failed for r in results)
        assert all(r.num_models == 1 for r in results)
        labeled = np.concatenate([r.assignment for r in results])
        assert np.mean(labeled != NOISE_ID) >= 0.8

    def test_results_partition_the_stream(self):
        data = generate_scene(lane_scene(2, seed=2))
        results = run_eda(data.stream, lane_config())
        offsets = [r.window.offset for r in results]
        sizes = [len(r.window) for r in results]
        assert offsets[0] == 0
        assert all(o2 == o1 + s for o1, s, o2 in zip(offsets, sizes, offsets[1:]))
        assert offsets[-1] + sizes[-1] == len(data.stream)

    def test_deterministic(self):
        data = generate_scene(lane_scene(2, seed=4))
        first = run_eda(data.stream, lane_config())
        second = run_eda(data.stream, lane_config())
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert np.array_equal(a.assignment, b.assignment)
            assert a.num_models == b.num_models


class TestRelabel:
    STREAM = EventStream(GEOM, np.linspace(0.0, 1.0, 8), np.zeros(8), np.zeros(8), np.zeros(8))

    def result(self, offset, local, num_models):
        window = EventWindow(self.STREAM, offset, offset + len(local), 0.0, 1.0)
        model = WeightedModel(*hyp([0, 0, 0], [0, 0, 1]), 0, np.empty(0, dtype=int), 0.0, 0.0)
        return AssociationResult(window, [model] * num_models, np.asarray(local, dtype=np.int64))

    def test_ids_shift_by_earlier_model_counts(self):
        results = [self.result(0, [1, NOISE_ID, 0], 2),
                   self.result(3, [NOISE_ID, NOISE_ID], 0),
                   self.result(5, [0, 0, NOISE_ID], 1)]
        assert relabel(results, 8).tolist() == [1, NOISE_ID, 0, NOISE_ID, NOISE_ID, 2, 2, NOISE_ID]

    def test_matches_the_per_window_loop_on_run_eda_results(self):
        stream = generate_scene(lane_scene(2, seed=5)).stream
        results = run_eda(stream, lane_config())
        assert 0 < sum(r.failed for r in results) < len(results)
        # all windows, then every other window and an inner run, which leave
        # events outside every window
        for part in (results, results[::2], results[3:-3], results[:0]):
            got = relabel(part, len(stream))
            assert np.array_equal(got, reference_relabel(part, len(stream)))
        assert (relabel(results[::2], len(stream)) == NOISE_ID).sum() > \
            (relabel(results, len(stream)) == NOISE_ID).sum()


class TestCallVoxels:
    @pytest.mark.parametrize("case", ["partition", "overlapping", "two streams"])
    def test_each_window_gets_its_own_voxels(self, case):
        # windows of one stream are gathered from it, others concatenated;
        # either way window w's run is event_voxels of its own events
        windows = {"partition": lambda: scene_windows(5),
                   "overlapping": lambda: pair_windows()[::-1],
                   "two streams": lambda: pair_windows()[:3] + scene_windows(5)[:3]}[case]()
        want = np.concatenate([event_voxels(w.t, w.u, w.v, w.t_start, w.span,
                                            time_scale(w.geometry)) for w in windows])
        got = fitting._call_voxels(windows)
        assert got.tobytes() == want.tobytes()
