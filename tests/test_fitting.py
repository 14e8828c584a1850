"""Residuals, inlier selection, two-stage weighting, and association tests."""
import hashlib
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
    families hold lines that do not advance in time, which the family bound
    must leave open.
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

    def test_passes_split_at_the_pair_cap(self, monkeypatch):
        # 30 events, none an inlier, against a 40-member family: stage 2
        # computes 30 x 8 residuals and the whole-family pass up to 30 x 40,
        # so at a cap of 100 every pass splits into blocks within the cap; at
        # a cap of 30 a pair of the whole-family pass costs more than the cap
        # and is a block of its own
        rng = np.random.default_rng(3)
        starts = rng.uniform(0, 20, (40, 3))
        lines = LineSet(starts, starts + np.array([1.0, 0.5, 4.0]))
        vox = rng.uniform(0, 20, (30, 3))
        instance = WeightedModel(lines.starts[0], lines.ends[0], 0, np.empty(0, dtype=np.int64),
                                 0.0, 0.0)
        families = np.ones((1, 40), dtype=bool)
        want = reference_associate(vox, lines, families, [instance], 1.0)
        assert 0 < (want != NOISE_ID).sum() < 30
        blocks, block_lines = [], fitting._block_lines

        def spy(table, line, run):
            blocks.append((run.size, line.shape[1]))
            return block_lines(table, line, run)

        monkeypatch.setattr(fitting, "_block_lines", spy)
        for cap, chunk in [(100, 100), (30, 40)]:
            monkeypatch.setattr(fitting, "_BATCH_PAIRS", cap)
            blocks.clear()
            assert np.array_equal(associate_one(vox, lines, families, [instance], 1.0), want)
            passes = [rows * width for rows, width in blocks]
            assert sum(passes) > 30 * 8 + 40 and max(passes) <= chunk
        assert 40 in passes

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 10), st.sampled_from([1, 5, 40, None]))
    def test_nearest_is_the_residual_matrix_minimum(self, data, distinct, cap):
        # 120 lines drawn from a few distinct ones, so minima tie; runs of
        # 1-40 lines at steps of 1-3, and 0-30 pairs on them
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        base = rng.integers(0, 7, (distinct, 3)).astype(float)
        pick = rng.integers(0, distinct, 120)
        lines = LineSet(base[pick], base[pick] + rng.integers(1, 4, (distinct, 3))[pick])
        vox = rng.integers(0, 7, (20, 3)).astype(float)
        runs = data.draw(st.lists(st.tuples(st.integers(1, 40), st.integers(1, 3)),
                                  min_size=1, max_size=5))
        count, step = (np.array(x) for x in zip(*runs))
        first = rng.integers(0, 120 - step * (count - 1))
        n_pairs = data.draw(st.integers(0, 30))
        owner, voxel = rng.integers(0, len(runs), n_pairs), rng.integers(0, 20, n_pairs)
        blocks, block_lines = [], fitting._block_lines

        def spy(table, line, run):
            blocks.append((run.size, line.shape[1]))
            return block_lines(table, line, run)

        default = fitting._BATCH_PAIRS
        fitting._BATCH_PAIRS, fitting._block_lines = cap or default, spy
        try:
            got = fitting._nearest(vox, voxel, owner, fitting._line_table(lines), first, step,
                                   count)
        finally:
            fitting._BATCH_PAIRS, fitting._block_lines = default, block_lines
        want = [residual_matrix(vox[[v]], lines.take(first[g] + step[g] * np.arange(count[g])))
                .min() for v, g in zip(voxel, owner)]
        assert got.tobytes() == np.array(want, dtype=float).tobytes()
        assert sum(rows for rows, _ in blocks) == n_pairs
        for rows, width in blocks:
            assert rows * width <= (cap or default) or rows == 1


@st.composite
def bound_case(draw):
    """Voxels, 1-3 families of lines and a tau for :func:`fitting._far`.

    A family's 1-20 lines are near-parallel to one direction that advances
    in time, or point anywhere; their starts spread over 1 to 40 px. A
    family may hold a line that does not advance in time (``d_t`` of 0,
    -1e-300 or -0.5, never the zero vector), one that advances by as little
    as 1e-300 (its start at t = 0, so that its end keeps the step), or one
    whose whole direction is 1e-160 or 1e-300 long, whose residuals lose
    their bits to underflow. The events
    spread over 40 or 160 px and sometimes share one timestamp. tau is a
    family minimum of an event, the next float above one or above the least
    of them, or a radius of 0.1 to 10 px.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vox = rng.uniform(-1, 1, (draw(st.integers(1, 12)), 3)) * draw(st.sampled_from([20.0, 80.0]))
    if draw(st.booleans()):
        vox[:, 2] = vox[0, 2]
    families = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 20))
        starts = rng.uniform(-1, 1, (size, 3)) * draw(st.sampled_from([0.5, 5.0, 20.0]))
        base = rng.normal(size=3) * [1.0, 1.0, 0.0] + [0.0, 0.0, draw(st.sampled_from(
            [1e-3, 0.3, 1.0, 5.0]))]
        spread = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.1, None]))
        d = rng.normal(size=(size, 3)) if spread is None else base + rng.normal(
            scale=spread, size=(size, 3))
        odd = draw(st.sampled_from([None, 0.0, -1e-300, -0.5, 1e-300, 1e-200, "short"]))
        if odd is not None:
            k = rng.integers(size)
            if odd == "short":  # from the origin, so that the end keeps the step
                starts[k], d[k] = 0.0, [0.0, 0.0, draw(st.sampled_from([1e-160, 1e-300]))]
            else:
                starts[k, 2], d[k] = 0.0, [1.0 + rng.uniform(), rng.uniform(), odd]
        families.append(LineSet(starts, starts + d))
    with np.errstate(invalid="ignore"):  # a 1e-300 step has a zero length: NaN residuals
        minima = np.array([residual_matrix(vox, f).min(axis=1) for f in families])
    finite = minima[np.isfinite(minima)]
    kind = draw(st.sampled_from(["minimum", "above", "least", "radius"]))
    tau = (float(rng.uniform(0.1, 10.0)) if kind == "radius" or not finite.size else
           float(finite.min() if kind == "least" else finite[rng.integers(finite.size)]))
    if kind != "minimum":
        tau = float(np.nextafter(tau, np.inf))
    return vox, families, minima, tau


class TestFamilyBound:
    """``_far`` settles only pairs that no line of their family reaches within tau."""

    @staticmethod
    def far(vox, families, tau):
        # every (family, event) pair, family after family
        lines = LineSet(np.concatenate([f.starts for f in families]),
                        np.concatenate([f.ends for f in families]))
        sizes = np.array([len(f) for f in families])
        g = np.repeat(np.arange(len(families)), len(vox))
        voxel = np.tile(np.arange(len(vox)), len(families))
        table = fitting._line_table(lines)
        got = fitting._far(vox, voxel, g, table, np.cumsum(sizes) - sizes, tau)
        return got.reshape(len(families), len(vox)), table

    @settings(max_examples=400, deadline=None)
    @given(bound_case())
    def test_settled_pairs_are_beyond_tau(self, case):
        vox, families, minima, tau = case
        far, table = self.far(vox, families, tau)
        assert (minima[far] >= tau).all()
        sizes = [len(f) for f in families]
        retreats = np.add.reduceat(table[5] <= 0, np.cumsum(sizes) - sizes) > 0
        assert not far[retreats].any()

    def test_settles_what_the_box_keeps_out(self):
        # lines along (1, 0, 1) from u = 0 and u = 2: at time t the family spans u in
        # [t, t + 2], and a residual is the in-plane gap over sqrt(2). At t = 4, u = 9
        # is 3 px past the box, u = 8 is 2 px, u = 0 is 4 px below it, and (5, 3) is
        # 3 px off it in v; at t = 0, u = 5 is 3 px past it, and at t = 8 inside it
        family = LineSet(np.array([[0.0, 0, 0], [2.0, 0, 0]]), np.array([[1.0, 0, 1], [3.0, 0, 1]]))
        vox = np.array([[9.0, 0, 4], [8.0, 0, 4], [0.0, 0, 4], [5.0, 3, 4], [5.0, 0, 0],
                        [9.0, 0, 8]])
        far, _ = self.far(vox, [family], 2.0)
        assert far.tolist() == [[True, False, True, True, True, False]]
        at = float(residual_matrix(vox[:1], family).min())  # 3 / sqrt(2): the bound itself
        assert not self.far(vox[:1], [family], at)[0].any()
        assert self.far(vox[:1], [family], at * (1 - 1e-9))[0].all()
        # a line that does not advance in time leaves its family open
        flat = LineSet(np.vstack([family.starts, [[50.0, 50, 0]]]),
                       np.vstack([family.ends, [[51.0, 50, 0]]]))
        assert not self.far(vox, [flat], 2.0)[0].any()

    def test_settles_nothing_a_computed_residual_keeps_below_tau(self):
        # events offset from a line's point at their time along its in-plane
        # direction, where the bound equals the residual, and tau just above
        # the computed residual: rounding puts the computed bound on either
        # side, and only the margin keeps every pair open
        t, a = (x.ravel() for x in np.meshgrid(np.linspace(-9.7, 9.7, 25),
                                               np.linspace(0.3, 29.9, 25)))
        start = np.array([3.1, -2.2, 0.7])
        cases = []
        for d in (np.array([1.7, 0.0, 1.0]), np.array([1.3, -0.8, 0.6])):
            at = start[:2] + np.outer((t - start[2]) / d[2], d[:2])
            cases.append((LineSet(start[None], (start + d)[None]),
                          np.column_stack([at + np.outer(a, d[:2] / np.hypot(*d[:2])), t])))
        # a vertical step of 1e-160 from the origin: its residuals lose their
        # bits to underflow, which no margin covers
        cases.append((LineSet(np.zeros((1, 3)), np.array([[0.0, 0.0, 1e-160]])),
                      np.column_stack([a, np.zeros_like(a), t])))
        for line, vox in cases:
            for x, r in zip(vox, residual_matrix(vox, line)[:, 0]):
                assert not self.far(x[None], [line], float(np.nextafter(r, np.inf)))[0].any()

    def test_settles_pairs_on_a_lanes_tile(self, monkeypatch):
        # on the benchmark's tile most pairs that reach the bound are far; the
        # ids are those of association without it
        stream, config = generate_scene(lanes_tile(1)).stream, RunConfig(width=240, height=180)
        reached, settled, far = [], [], fitting._far

        def spy(*args):
            got = far(*args)
            reached.append(got.size)
            settled.append(int(got.sum()))
            return got

        monkeypatch.setattr(fitting, "_far", spy)
        ids = relabel(run_eda(stream, config), len(stream))
        assert sum(settled) > sum(reached) / 2
        monkeypatch.setattr(fitting, "_far", lambda vox, voxel, *_: np.zeros(voxel.size, bool))
        assert np.array_equal(relabel(run_eda(stream, config), len(stream)), ids)


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
    @given(st.lists(fit_batch_windows(), min_size=1, max_size=6))
    def test_residual_runs_are_the_window_matrices(self, windows):
        # one to three lines per window, through its first voxel
        vox = [window_voxels(w) for w in windows if len(w)]
        if not vox:
            return
        starts = [v[:1] + np.arange(1 + i % 3)[:, None] for i, v in enumerate(vox)]
        reps = [LineSet(s, s + np.array([1.0, 2.0, 3.0])) for s in starts]
        sizes = np.array([len(v) for v in vox])
        counts = np.array([len(r) for r in reps])
        lines = LineSet(np.concatenate([r.starts for r in reps]),
                        np.concatenate([r.ends for r in reps]))
        values = fitting._pair_residuals(np.concatenate(vox), lines, np.cumsum(sizes) - sizes,
                                         sizes, counts)[0].copy()
        runs = np.split(values, np.cumsum(sizes * counts)[:-1])
        for v, r, run in zip(vox, reps, runs):
            assert np.array_equal(run.reshape(len(v), len(r)), residual_matrix(v, r))

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
        # the residuals and inliers go in chunks of whole windows within the
        # pair cap, or of one window alone; the weighting and association run
        # once per clustering run that keeps a survivor, after its last chunk
        # and before the next run is clustered
        config = lane_config()
        windows = [r.window for r in run_eda(framed_track_stream(), config)] + pair_windows()
        windows.insert(3, make_window([0.5, 0.5, 0.5], [1, 2, 3], [1, 2, 3]))  # no hypotheses
        log = []

        def spy(name):
            real = getattr(fitting, name)

            def logged(*args):
                log.append((name, args))
                return real(*args)
            monkeypatch.setattr(fitting, name, logged)

        for name in ("select_representatives", "_pair_residuals", "weigh_models", "associate"):
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
            chunks = [args for name, args in after if name == "_pair_residuals"]
            assert names[:len(chunks)] == ["_pair_residuals"] * len(chunks)
            assert sum(args[3].size for args in chunks) == len(run)
            for *_, sizes, counts in chunks:
                assert sizes.size == 1 or (sizes * counts).sum() <= fitting._BATCH_PAIRS
                multi += sizes.size > 1
            fitted = any(not results[k].failed for k in run)
            assert names[len(chunks):] == (["weigh_models", "associate"] if fitted else [])
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
        # the lanes tiles' families of dozens of lines take the family bound and
        # blocks of many residuals per pair, which pair windows never reach. Two
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
