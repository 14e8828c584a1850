"""Line hypothesis generation and representative clustering tests."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from evtraj.grouping import EventWindow
from evtraj.hypotheses import (
    HypothesisError,
    LineHypothesis,
    LineSet,
    generate,
    select_representatives,
    slice_window,
    time_scale,
    window_voxels,
)
from evtraj.io import SensorGeometry

GEOM = SensorGeometry(64, 64)


def window_from_arrays(t, u, v, t_start=0.0, t_end=1.0):
    t = np.asarray(t, dtype=np.float64)
    return EventWindow(
        GEOM, t,
        np.asarray(u, dtype=np.int32), np.asarray(v, dtype=np.int32),
        np.zeros(t.size, dtype=np.uint8),
        t_start=t_start, t_end=t_end,
    )


def hyp(direction, start=(0.0, 0.0, 0.0)):
    start = np.asarray(start, dtype=float)
    return LineHypothesis(start, start + np.asarray(direction, dtype=float))


def cosine_distance(a: LineHypothesis, b: LineHypothesis) -> float:
    """1 - cos(angle) between the two direction vectors; range [0, 2]."""
    da, db = a.direction, b.direction
    return float(1.0 - np.dot(da, db) / (np.linalg.norm(da) * np.linalg.norm(db)))


class TestNormalization:
    def test_time_scale_is_long_side(self):
        assert time_scale(SensorGeometry(240, 180)) == 240.0
        assert time_scale(SensorGeometry(100, 300)) == 300.0

    def test_voxels_span_time_axis(self):
        win = window_from_arrays([0.0, 0.5, 1.0], [1, 2, 3], [4, 5, 6])
        vox = window_voxels(win)
        assert vox[:, 2] == pytest.approx([0.0, 32.0, 64.0])
        assert vox[:, 0] == pytest.approx([1.0, 2.0, 3.0])


class TestSliceWindow:
    def test_uniform_events_one_per_slice(self):
        t = (np.arange(10) + 0.5) / 10
        win = window_from_arrays(t, np.arange(10), np.arange(10))
        slices = slice_window(win, 10)
        assert [s.size for s in slices] == [1] * 10
        for k, s in enumerate(slices):
            assert s[0] == k

    def test_all_events_at_start(self):
        win = window_from_arrays([0.0, 0.0, 0.0], [1, 2, 3], [1, 2, 3])
        slices = slice_window(win, 10)
        assert slices[0].size == 3
        assert all(s.size == 0 for s in slices[1:])

    def test_boundary_timestamp_goes_to_earlier_bin(self):
        # 0.1 is exactly the 0/1 bin boundary with 10 slices on [0, 1]
        win = window_from_arrays([0.05, 0.1, 0.15], [1, 2, 3], [1, 2, 3])
        slices = slice_window(win, 10)
        assert list(slices[0]) == [0, 1]
        assert list(slices[1]) == [2]

    def test_validation(self):
        win = window_from_arrays([0.1, 0.2], [1, 2], [1, 2])
        with pytest.raises(ValueError):
            slice_window(win, 1)
        single = window_from_arrays([0.1], [1], [1])
        with pytest.raises(HypothesisError):
            slice_window(single, 10)


class TestGenerate:
    def test_small_cross_product(self):
        t = [0.01, 0.02, 0.95, 0.96, 0.97]
        win = window_from_arrays(t, [1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
        lines = generate(win, 10, 100)
        assert len(lines) == 2 * 3

    def test_cap_is_respected_and_deterministic(self):
        rng = np.random.default_rng(0)
        t = np.concatenate([rng.uniform(0, 0.05, 100), rng.uniform(0.95, 1.0, 100)])
        t.sort()
        u = rng.integers(0, 64, 200)
        v = rng.integers(0, 64, 200)
        win = window_from_arrays(t, u, v)
        a = generate(win, 10, 1000)
        b = generate(win, 10, 1000)
        assert 0 < len(a) <= 1000
        assert np.array_equal(a.starts, b.starts) and np.array_equal(a.ends, b.ends)

    def test_single_moving_point_recovers_generator_line(self):
        # one noise-free event per slice along a known constant-velocity line
        t = (np.arange(10) + 0.5) / 10
        u = np.rint(5 + 40 * t).astype(int)
        v = np.rint(10 + 20 * t).astype(int)
        # keep only endpoints exactly on the line to avoid rounding skew
        t = np.array([0.05, 0.95])
        u = np.array([7, 43])
        v = np.array([11, 29])
        win = window_from_arrays(t, u, v)
        lines = generate(win, 10, 100)
        assert len(lines) == 1
        d = lines[0].direction
        expected = np.array([36.0, 18.0, 0.9 * 64.0])
        sine = np.linalg.norm(np.cross(d, expected)) / (
            np.linalg.norm(d) * np.linalg.norm(expected)
        )
        assert sine < 1e-9

    def test_empty_slice_fallback(self):
        # slices 0 and 9 empty: falls back to first/last non-empty
        win = window_from_arrays([0.15, 0.25, 0.75, 0.85], [1, 2, 3, 4], [1, 2, 3, 4])
        lines = generate(win, 10, 100)
        assert len(lines) == 1 * 1

    def test_degenerate_time_span_rejected(self):
        win = window_from_arrays([0.5, 0.5, 0.5], [1, 2, 3], [1, 2, 3])
        with pytest.raises(HypothesisError):
            generate(win, 10, 100)


class TestCosineDistance:
    def test_identical(self):
        assert cosine_distance(hyp([1, 2, 3]), hyp([2, 4, 6])) == pytest.approx(0.0)

    def test_orthogonal(self):
        assert cosine_distance(hyp([1, 0, 1]), hyp([-1, 0, 1])) == pytest.approx(1.0)

    def test_opposite(self):
        a = LineHypothesis(np.array([0.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0]))
        b = LineHypothesis(np.array([1.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))
        # directions (1,1,1) and (-1,-1,1): not fully opposite; build a true one
        c = LineHypothesis(np.array([2.0, 2.0, 0.0]), np.array([0.0, 0.0, 2.0]))
        assert cosine_distance(b, c) == pytest.approx(0.0)
        d_ab = cosine_distance(a, b)
        assert 0.0 <= d_ab <= 2.0

    @given(
        st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.1, 5)),
        st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.1, 5)),
    )
    def test_symmetry_and_range(self, da, db):
        a, b = hyp(da), hyp(db)
        d = cosine_distance(a, b)
        assert d == pytest.approx(cosine_distance(b, a))
        assert -1e-12 <= d <= 2.0 + 1e-12
        assert cosine_distance(a, a) == pytest.approx(0.0, abs=1e-12)


class TestSelectRepresentatives:
    def test_parallel_bundle_collapses(self):
        starts = np.zeros((5, 3))
        ends = np.outer(np.arange(1, 6), np.array([1.0, 2.0, 3.0]))
        hyps = LineSet(starts, ends)
        result = select_representatives(hyps, 1e-3)
        assert len(result.rep_indices) == 1
        assert result.families.shape == (1, 5)
        assert result.families[0].all()

    def test_orthogonal_directions_stay_apart(self):
        dirs = np.array([[1.0, 0, 1], [-1.0, 0, 1], [0, 1.0, 1]])
        hyps = LineSet(np.zeros((3, 3)), dirs)
        result = select_representatives(hyps, 1e-3)
        assert len(result.rep_indices) == 3
        # each family holds its representative only
        assert np.array_equal(result.families, np.eye(3, dtype=bool)[result.rep_indices])

    def test_two_jittered_bundles(self):
        rng = np.random.default_rng(1)
        tol = 1e-3
        base = [np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0])]
        dirs, labels = [], []
        for label, b in enumerate(base):
            b = b / np.linalg.norm(b)
            for _ in range(100):
                # angular jitter small enough to stay within tol/2 cosine distance
                perturb = rng.normal(0, 1, 3)
                perturb -= b * np.dot(perturb, b)
                perturb /= np.linalg.norm(perturb)
                angle = rng.uniform(0, np.arccos(1 - tol / 2) * 0.9)
                dirs.append(np.cos(angle) * b + np.sin(angle) * perturb)
                labels.append(label)
        dirs = np.array(dirs)
        hyps = LineSet(np.zeros((200, 3)), dirs)
        result = select_representatives(hyps, tol)
        assert len(result.rep_indices) == 2
        labels = np.array(labels)
        for family in result.families:
            assert np.unique(labels[family]).size == 1

    def test_coverage_partition(self):
        rng = np.random.default_rng(2)
        dirs = rng.normal(0, 1, (50, 3))
        dirs[:, 2] = np.abs(dirs[:, 2]) + 0.1
        hyps = LineSet(np.zeros((50, 3)), dirs)
        result = select_representatives(hyps, 1e-2)
        # every hypothesis lies in the family of some representative
        assert result.families.shape == (len(result.rep_indices), 50)
        assert result.families.any(axis=0).all()

    def test_member_distance_bound(self):
        rng = np.random.default_rng(3)
        tol = 1e-3
        dirs = rng.normal(0, 1, (80, 3))
        dirs[:, 2] = np.abs(dirs[:, 2]) + 0.1
        hyps = LineSet(np.zeros((80, 3)), dirs)
        result = select_representatives(hyps, tol)
        for rep, family in zip(result.rep_indices, result.families):
            assert family[rep]
            for m in np.flatnonzero(family):
                assert cosine_distance(hyps[int(rep)], hyps[int(m)]) <= tol + 1e-12

    def test_representatives_mutually_non_parallel(self):
        rng = np.random.default_rng(4)
        dirs = rng.normal(0, 1, (60, 3))
        dirs[:, 2] = np.abs(dirs[:, 2]) + 0.1
        hyps = LineSet(np.zeros((60, 3)), dirs)
        tol = 1e-3
        result = select_representatives(hyps, tol)
        reps = result.representatives
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert cosine_distance(reps[i], reps[j]) > tol

    def test_determinism(self):
        rng = np.random.default_rng(5)
        dirs = rng.normal(0, 1, (40, 3))
        dirs[:, 2] = np.abs(dirs[:, 2]) + 0.1
        hyps = LineSet(np.zeros((40, 3)), dirs)
        a = select_representatives(hyps, 1e-2)
        b = select_representatives(hyps, 1e-2)
        assert np.array_equal(a.rep_indices, b.rep_indices)
        assert np.array_equal(a.families, b.families)

    @pytest.mark.parametrize("tol", [1e-3, 1e-2, 0.2])
    def test_families_are_the_parallel_sets(self, tol):
        # row k is exactly {i : cosine_distance(rep_k, i) <= tol}
        rng = np.random.default_rng(6)
        dirs = rng.normal(0, 1, (120, 3))
        dirs[:, 2] = np.abs(dirs[:, 2]) + 0.1
        # near-duplicates so that families hold more than their representative
        dirs = np.concatenate([dirs, dirs[:40] + rng.normal(0, 1e-3, (40, 3))])
        hyps = LineSet(np.zeros_like(dirs), dirs)
        result = select_representatives(hyps, tol)
        assert result.families.sum() > len(result.rep_indices)
        for rep, family in zip(result.rep_indices, result.families):
            brute = [i for i in range(len(hyps))
                     if cosine_distance(hyps[int(rep)], hyps[i]) <= tol]
            assert np.flatnonzero(family).tolist() == brute

    def test_empty_input_rejected(self):
        with pytest.raises(HypothesisError):
            select_representatives(LineSet(np.zeros((0, 3)), np.zeros((0, 3))))


class TestLineHypothesis:
    def test_must_advance_in_time(self):
        with pytest.raises(ValueError):
            LineHypothesis(np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LineHypothesis(np.array([0.0, 0.0, 0.0]), np.array([np.nan, 1.0, 1.0]))
