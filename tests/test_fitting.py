"""Residuals, scale estimation, two-stage weighting, and association tests."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import lane_config, lane_scene, lane_window
from evtraj.fitting import (
    AssociationResult,
    NoiseScale,
    NoSurvivingModelError,
    WeightedModel,
    associate,
    estimate_tau_ikose,
    fit_window,
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
    generate,
    select_representatives,
    time_scale,
    window_voxels,
)
from evtraj.io import NOISE_ID, SensorGeometry
from evtraj.synth import generate_scene

GEOM = SensorGeometry(64, 64)


def make_window(t, u, v, t_start=0.0, t_end=1.0):
    t = np.asarray(t, dtype=np.float64)
    return EventWindow(
        GEOM, t,
        np.asarray(u, dtype=np.int32), np.asarray(v, dtype=np.int32),
        t_start=t_start, t_end=t_end,
    )


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
        norms = np.linalg.norm(ref, axis=0)
        assert np.array_equal(residual_matrix(vox, LineSet(starts, ends)),
                              ref / np.where(norms > 0, norms, 1.0))


class TestResidualMatrix:
    @staticmethod
    def _lines(starts, ends):
        return LineSet(np.asarray(starts, float), np.asarray(ends, float))

    def test_single_event_single_line_normalizes_to_one(self):
        vox = window_voxels(make_window([0.5], [10], [20]))
        lines = self._lines([[0, 0, 0]], [[0, 0, 64]])
        m = residual_matrix(vox, lines)
        assert m == pytest.approx(np.array([[1.0]]))
        raw = point_line_distances(vox, lines.starts, lines.ends)
        assert raw[0, 0] == pytest.approx(np.hypot(10.0, 20.0))

    def test_equal_raw_residuals_normalize_to_inverse_sqrt_n(self):
        # four events all at distance 5 from the time axis
        vox = window_voxels(make_window([0.25, 0.25, 0.75, 0.75], [3, 5, 3, 5], [4, 0, 4, 0]))
        lines = self._lines([[0, 0, 0]], [[0, 0, 64]])
        m = residual_matrix(vox, lines)
        assert m[:, 0] == pytest.approx(np.full(4, 0.5))
        raw = point_line_distances(vox, lines.starts, lines.ends)
        assert np.linalg.norm(raw[:, 0]) == pytest.approx(10.0)

    def test_columns_have_unit_norm(self):
        rng = np.random.default_rng(1)
        vox = window_voxels(make_window(
            np.sort(rng.uniform(0, 1, 50)),
            rng.integers(0, 64, 50), rng.integers(0, 64, 50),
        ))
        starts = rng.uniform(0, 10, (5, 3))
        starts[:, 2] = 0.0
        ends = starts + rng.uniform(1, 10, (5, 3))
        m = residual_matrix(vox, self._lines(starts, ends))
        assert np.linalg.norm(m, axis=0) == pytest.approx(np.ones(5))
        # each column is the raw column divided by its norm
        raw = point_line_distances(vox, starts, ends)
        assert m * np.linalg.norm(raw, axis=0) == pytest.approx(raw)


class TestIkose:
    def test_recovers_half_normal_scale(self):
        rng = np.random.default_rng(2)
        sigma = 0.02
        column = np.abs(rng.normal(0.0, sigma, 10000))
        scale = estimate_tau_ikose(column, k_ratio=0.1)
        assert scale.source == "estimated"
        assert scale.tau == pytest.approx(sigma, rel=0.15)

    def test_scales_linearly(self):
        rng = np.random.default_rng(3)
        column = np.abs(rng.normal(0.0, 1.0, 2000))
        base = estimate_tau_ikose(column, 0.1).tau
        assert estimate_tau_ikose(7.5 * column, 0.1).tau == pytest.approx(7.5 * base)

    def test_all_zero_column_gives_tiny_positive_tau(self):
        scale = estimate_tau_ikose(np.zeros(100))
        assert 0 < scale.tau < 1e-9

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            estimate_tau_ikose(np.array([]))
        with pytest.raises(ValueError):
            estimate_tau_ikose(np.ones(10), k_ratio=0.0)
        with pytest.raises(ValueError):
            estimate_tau_ikose(np.ones(10), k_ratio=1.0)


class TestSelectInliers:
    def test_threshold_is_strict_and_floor_applies(self):
        values = np.array([
            [0.001, 0.5],
            [0.002, 0.001],
            [0.003, 0.6],
            [0.010, 0.7],
        ])
        out = select_inliers(values, NoiseScale(0.01), min_inliers=3)
        # column 0: 0.010 is not < tau; column 1: only one inlier -> dropped
        assert len(out) == 1
        j, idx = out[0]
        assert j == 0
        assert list(idx) == [0, 1, 2]

    def test_all_dropped_raises(self):
        values = np.full((5, 2), 0.9)
        with pytest.raises(NoSurvivingModelError):
            select_inliers(values, NoiseScale(0.01))

    def test_noise_scale_validation(self):
        with pytest.raises(ValueError):
            NoiseScale(0.0)
        with pytest.raises(ValueError):
            NoiseScale(-1.0)


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


class TestSelectModelCount:
    def test_documented_example(self):
        assert select_model_count([0.1, 0.11, 0.12, 5.0, 5.1]) == 3

    def test_flat_weights_default_to_one(self):
        assert select_model_count([1.0, 1.0, 1.0]) == 1
        assert select_model_count([2.0, 2.0]) == 1

    def test_two_clusters(self):
        assert select_model_count([0.2, 0.21, 10.0, 10.2, 10.1]) == 2

    def test_single_low_weight(self):
        assert select_model_count([0.1, 8.0, 8.1, 8.2, 8.3]) == 1

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=12),
           st.randoms())
    def test_permutation_invariance(self, weights, rng):
        shuffled = list(weights)
        rng.shuffle(shuffled)
        assert select_model_count(shuffled) == select_model_count(weights)

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=12))
    def test_count_in_valid_range(self, weights):
        k = select_model_count(weights)
        assert 1 <= k <= max(1, len(weights))


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
        reps = select_representatives(lines, 1e-3)
        ends = reps.representatives
        instances = [
            WeightedModel(ends.starts[j], ends.ends[j], j, np.empty(0, dtype=int), 0.0, 0.0)
            for j in range(2)
        ]
        return win, reps, instances, order

    def test_events_pick_their_line_and_outlier_is_noise(self):
        win, reps, instances, order = self._setup()
        assignment = associate(window_voxels(win), reps, instances, NoiseScale(0.05))
        truth = np.array([0, 0, 0, 1, 1, 1, NOISE_ID])[order]
        assert assignment.dtype == np.int64
        assert np.array_equal(assignment, truth)

    def test_ties_go_to_the_earlier_instance(self):
        # two instances with the same family fit every event equally well
        _, reps, instances, _ = self._setup()
        vox = window_voxels(make_window([0.1, 0.3, 0.5, 0.9], [10, 11, 10, 12], [10, 10, 11, 10]))
        twins = [instances[0], instances[0]]
        assert associate(vox, reps, twins, NoiseScale(1.0)).tolist() == [0, 0, 0, 0]

    def test_requires_instances(self):
        win, reps, _, _ = self._setup()
        from evtraj.fitting import FitError
        with pytest.raises(FitError):
            associate(window_voxels(win), reps, [], NoiseScale(0.05))


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
        st.sampled_from(["fixed", "ikose"]),
    )
    def test_degenerate_windows_never_raise(self, events, single_pixel, equal_t, scale_mode):
        t, u, v = (np.array(x) for x in zip(*sorted(events)))
        if single_pixel:
            u, v = np.full_like(u, u[0]), np.full_like(v, v[0])
        if equal_t:
            t = np.full_like(t, t[0])
        res = fit_window(make_window(t, u, v), lane_config(scale_mode=scale_mode))
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
            reps = select_representatives(lines, cfg.parallel_tol).representatives
            s_t = time_scale(win.geometry)
            matrix = residual_matrix(vox, reps)
            survivors = select_inliers(matrix, NoiseScale(cfg.tau), cfg.min_inliers)
            w1, final = weigh_models(vox, reps, survivors, s_t)
            ref_w1, ref_final = per_survivor_weights(vox, reps, survivors, s_t)
            assert np.array_equal(w1, ref_w1)
            assert np.array_equal(final, ref_final)


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
    def result(self, offset, local, num_models):
        n = len(local)
        window = EventWindow(GEOM, np.linspace(0.0, 1.0, n), np.zeros(n, np.int32),
                             np.zeros(n, np.int32), t_start=0.0, t_end=1.0, offset=offset)
        model = WeightedModel(*hyp([0, 0, 0], [0, 0, 1]), 0, np.empty(0, dtype=int), 0.0, 0.0)
        return AssociationResult(window, [model] * num_models, np.asarray(local, dtype=np.int64))

    def test_ids_shift_by_earlier_model_counts(self):
        results = [self.result(0, [1, NOISE_ID, 0], 2),
                   self.result(3, [NOISE_ID, NOISE_ID], 0),
                   self.result(5, [0, 0, NOISE_ID], 1)]
        assert relabel(results, 8).tolist() == [1, NOISE_ID, 0, NOISE_ID, NOISE_ID, 2, 2, NOISE_ID]
