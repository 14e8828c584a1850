"""Line hypothesis generation and representative clustering tests."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import window_of
from evtraj import hypotheses
from evtraj.hypotheses import (
    HypothesisError,
    LineSet,
    generate,
    parallel_cut,
    select_representatives,
    slice_window,
    time_scale,
    window_voxels,
)
from evtraj.io import SensorGeometry
from evtraj.scratch import Scratch
from oracles import (
    flatnonzero_slices,
    greedy_representatives,
    window_families,
    window_lines,
    window_reps,
)

GEOM = SensorGeometry(64, 64)


def window_from_arrays(t, u, v, t_start=0.0, t_end=1.0):
    return window_of(GEOM, t, u, v, t_start, t_end)


def hyp(direction, start=(0.0, 0.0, 0.0)):
    """A line as its ``(start, end)`` voxels."""
    start = np.asarray(start, dtype=float)
    return start, start + np.asarray(direction, dtype=float)


def line(lines: LineSet, i: int):
    """Row ``i`` of a line set as its ``(start, end)`` voxels."""
    return lines.starts[i], lines.ends[i]


def cosine_distance(a, b) -> float:
    """1 - cos(angle) between the directions of two ``(start, end)`` lines; range [0, 2]."""
    da, db = a[1] - a[0], b[1] - b[0]
    return float(1.0 - np.dot(da, db) / (np.linalg.norm(da) * np.linalg.norm(db)))


def reference_generate(window, num_slices, max_pairs):
    """Reference generation over the list of per-slice index arrays."""
    nonempty = [s for s in flatnonzero_slices(window, num_slices) if s.size]
    if len(nonempty) < 2:
        raise HypothesisError("all events fall into a single time slice")
    first, last = nonempty[0], nonempty[-1]
    if first.size * last.size > max_pairs:
        stride = math.ceil(math.sqrt(first.size * last.size / max_pairs))
        while math.ceil(first.size / stride) * math.ceil(last.size / stride) > max_pairs:
            stride += 1
        first = first[::stride]
        last = last[::stride]
    vox = window_voxels(window)
    starts = np.repeat(vox[first], last.size, axis=0)
    ends = np.tile(vox[last], (first.size, 1))
    keep = ends[:, 2] > starts[:, 2]
    starts, ends = starts[keep], ends[keep]
    if starts.shape[0] == 0:
        raise HypothesisError("no valid endpoint pairs (degenerate time span)")
    return LineSet(starts, ends)


def outcome(fn, *args):
    try:
        return fn(*args)
    except HypothesisError as exc:
        return exc


@st.composite
def sliced_windows(draw):
    """Windows whose events sit on slice boundaries or in a random sub-span, so
    leading and trailing slices may be empty and all events may share one."""
    num_slices = draw(st.integers(2, 12))
    t_start = draw(st.sampled_from([0.0, 0.7, 12.345]))
    span = draw(st.sampled_from([1.0, 0.3, 0.05]))
    t_end = t_start + span
    dt = span / num_slices
    lo, hi = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    times = draw(st.lists(
        st.one_of(st.integers(0, num_slices).map(lambda k: t_start + k * dt),
                  st.floats(t_start + lo * span, t_start + hi * span)),
        min_size=1, max_size=80))
    t = np.clip(np.sort(np.asarray(times)), t_start, t_end)
    n = t.size
    u = draw(st.lists(st.integers(0, 63), min_size=n, max_size=n))
    v = draw(st.lists(st.integers(0, 63), min_size=n, max_size=n))
    return window_from_arrays(t, u, v, t_start, t_end), num_slices


def clustering_window(rng, kind: str, jitter: float) -> LineSet:
    """The hypotheses of one window of a kind, from ``rng``.

    ``one``: a single hypothesis. ``parallel``: scaled copies of one direction
    at random positions, so one representative. ``mixed``: small integer
    directions with ``jitter``, which repeat and tie on neighbor counts.
    ``duplicate``: three small integer directions, each repeated exactly
    (integer starts keep ``end - start`` exact). ``64`` and ``65``: mixed
    windows on either side of the 64 hypotheses clustered as one ``uint64``
    row each. ``large``: a mixed window of more than 1,414 hypotheses, whose
    adjacency is computed in row chunks (``2_000_000 // n < n``). ``4096``: a
    mixed window of 4,096 hypotheses.
    """
    n = {"one": 1, "parallel": int(rng.integers(2, 30)), "mixed": int(rng.integers(2, 60)),
         "duplicate": int(rng.integers(2, 60)), "64": 64, "65": 65,
         "large": int(rng.integers(1415, 1600)), "4096": 4096}[kind]
    starts = rng.uniform(0.0, 64.0, (n, 3))
    if kind == "parallel":
        direction = np.array([*rng.integers(-3, 4, 2), rng.integers(1, 4)], dtype=float)
        dirs = np.outer(rng.uniform(0.5, 4.0, n), direction)
    elif kind == "duplicate":
        starts = np.floor(starts)
        dirs = np.column_stack([rng.integers(-3, 4, (3, 2)), rng.integers(1, 4, 3)])
        dirs = dirs[rng.integers(0, 3, n)].astype(float)
    else:
        dirs = np.column_stack([rng.integers(-3, 4, (n, 2)), rng.integers(1, 4, n)])
        dirs = dirs + rng.uniform(-jitter, jitter, (n, 3))
    return LineSet(starts, starts + dirs)


@st.composite
def clustering_batches(draw):
    """The hypothesis sets of a batch of windows, each of one kind of
    :func:`clustering_window`; at times a ``large`` window joins the batch."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["one", "parallel", "mixed", "duplicate", "64", "65"]),
                          min_size=1, max_size=6))
    if draw(st.booleans()):
        kinds.insert(draw(st.integers(0, len(kinds))), "large")
    jitter = draw(st.sampled_from([0.0, 1e-4, 1e-3]))
    return [clustering_window(rng, kind, jitter) for kind in kinds]


@st.composite
def echoes(draw):
    """A function that inserts echoes of hypotheses into a window's :class:`LineSet`.

    An echo copies a hypothesis verbatim, or doubles both its endpoints,
    which doubles ``end - start`` exactly and so gives the same unit
    direction bit for bit.
    """
    picks = draw(st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from([1.0, 2.0]),
                                    st.integers(0, 2**16)), max_size=8))

    def echo(hyps: LineSet) -> LineSet:
        starts, ends = list(hyps.starts), list(hyps.ends)
        for source, scale, at in picks:
            source, at = source % len(starts), at % (len(starts) + 1)
            starts.insert(at, starts[source] * scale)
            ends.insert(at, ends[source] * scale)
        return LineSet(np.array(starts), np.array(ends))

    return echo


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
        lines = generate(win, window_voxels(win), 10, 100)
        assert len(lines) == 2 * 3

    def test_cap_is_respected_and_deterministic(self):
        rng = np.random.default_rng(0)
        t = np.concatenate([rng.uniform(0, 0.05, 100), rng.uniform(0.95, 1.0, 100)])
        t.sort()
        u = rng.integers(0, 64, 200)
        v = rng.integers(0, 64, 200)
        win = window_from_arrays(t, u, v)
        a = generate(win, window_voxels(win), 10, 1000)
        b = generate(win, window_voxels(win), 10, 1000)
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
        lines = generate(win, window_voxels(win), 10, 100)
        assert len(lines) == 1
        d = lines.directions()[0]
        expected = np.array([36.0, 18.0, 0.9 * 64.0])
        sine = np.linalg.norm(np.cross(d, expected)) / (
            np.linalg.norm(d) * np.linalg.norm(expected)
        )
        assert sine < 1e-9

    def test_empty_slice_fallback(self):
        # slices 0 and 9 empty: falls back to first/last non-empty
        win = window_from_arrays([0.15, 0.25, 0.75, 0.85], [1, 2, 3, 4], [1, 2, 3, 4])
        lines = generate(win, window_voxels(win), 10, 100)
        assert len(lines) == 1 * 1

    def test_degenerate_time_span_rejected(self):
        win = window_from_arrays([0.5, 0.5, 0.5], [1, 2, 3], [1, 2, 3])
        with pytest.raises(HypothesisError):
            generate(win, window_voxels(win), 10, 100)

    @pytest.mark.parametrize("max_pairs", [0, -3])
    def test_max_pairs_below_one_rejected(self, max_pairs):
        win = window_from_arrays([0.01, 0.02, 0.95, 0.96], [1, 2, 3, 4], [1, 2, 3, 4])
        with pytest.raises(ValueError, match="max_pairs must be >= 1"):
            generate(win, window_voxels(win), max_pairs=max_pairs)

    # (timestamps, t_start, t_end, num_slices); 8.48606654242795 / 7 slices puts
    # t_end just past the last slice bound, at 7.000000000000001 slice widths
    EDGES = {
        "on_inner_bounds": ([0.1, 0.2, 0.5, 0.9], 0.0, 1.0, 10),
        "on_first_and_last_inner_bounds": ([0.1, 0.1, 0.9, 0.9], 0.0, 1.0, 10),
        "at_t_start_and_t_end": ([0.0, 0.3, 0.6, 1.0], 0.0, 1.0, 10),
        "at_t_start_and_t_end_offset": ([0.7, 0.8, 1.0], 0.7, 1.0, 7),
        "two_events": ([0.2, 0.8], 0.0, 1.0, 10),
        "two_events_at_the_ends": ([0.0, 1.0], 0.0, 1.0, 2),
        "two_events_in_adjacent_slices": ([0.1, 0.1000001], 0.0, 1.0, 10),
        "t_end_past_the_last_bound": ([0.0, 8.0, 8.48606654242795], 0.0, 8.48606654242795, 7),
        "one_slice_first": ([0.0, 0.05, 0.1], 0.0, 1.0, 10),
        "one_slice_middle": ([0.41, 0.45, 0.5], 0.0, 1.0, 10),
        "one_slice_last": ([0.95, 1.0], 0.0, 1.0, 10),
        "one_slice_last_past_the_bound": ([8.0, 8.48606654242795], 0.0, 8.48606654242795, 7),
        "one_slice_two_events_at_t_start": ([0.0, 0.0], 0.0, 1.0, 10),
    }

    @pytest.mark.parametrize("name", sorted(EDGES))
    def test_edge_windows_match_flatnonzero_slices(self, name):
        t, t_start, t_end, num_slices = self.EDGES[name]
        win = window_from_arrays(t, np.arange(len(t)), np.arange(len(t)), t_start, t_end)
        want = outcome(reference_generate, win, num_slices, 4096)
        got = outcome(generate, win, window_voxels(win), num_slices, 4096)
        if name.startswith("one_slice"):
            assert isinstance(want, HypothesisError)
            assert str(want) == "all events fall into a single time slice"
        assert type(got) is type(want)
        if isinstance(want, HypothesisError):
            assert str(got) == str(want)
        else:
            assert got.starts.tobytes() == want.starts.tobytes()
            assert got.ends.tobytes() == want.ends.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(sliced_windows(), st.sampled_from([1, 3, 20, 4096]))
    def test_bit_identical_to_flatnonzero_slices(self, case, max_pairs):
        # small caps exercise the strided path
        win, num_slices = case
        want = outcome(reference_generate, win, num_slices, max_pairs)
        got = outcome(generate, win, window_voxels(win), num_slices, max_pairs)
        assert type(got) is type(want)
        if isinstance(want, HypothesisError):
            assert str(got) == str(want)
        else:
            assert got.starts.tobytes() == want.starts.tobytes()
            assert got.ends.tobytes() == want.ends.tobytes()
        if len(win) >= 2:
            got_slices = slice_window(win, num_slices)
            want_slices = flatnonzero_slices(win, num_slices)
            assert len(got_slices) == len(want_slices)
            for a, b in zip(got_slices, want_slices):
                assert a.dtype == b.dtype and np.array_equal(a, b)


class TestCosineDistance:
    def test_identical(self):
        assert cosine_distance(hyp([1, 2, 3]), hyp([2, 4, 6])) == pytest.approx(0.0)

    def test_orthogonal(self):
        assert cosine_distance(hyp([1, 0, 1]), hyp([-1, 0, 1])) == pytest.approx(1.0)

    def test_opposite(self):
        a = (np.array([0.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0]))
        b = (np.array([1.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))
        # directions (1,1,1) and (-1,-1,1): not fully opposite; build a true one
        c = (np.array([2.0, 2.0, 0.0]), np.array([0.0, 0.0, 2.0]))
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


def tie_window(n: int, rng) -> LineSet:
    """``n`` hypotheses in jittered random directions, with hypotheses 0 and 1
    along (0, 0, 1) and (3, 0, 4): their Gram value is the double nearest 0.8
    on every BLAS kernel, since every other term of it is a product by 0."""
    dirs = rng.normal(0.0, 1.0, (n, 3))
    dirs[:, 2] = np.abs(dirs[:, 2]) + 0.1
    dirs[:2] = [[0.0, 0.0, 1.0], [3.0, 0.0, 4.0]]
    starts = rng.uniform(0.0, 64.0, (n, 3))
    return LineSet(starts, starts + dirs)


def dense_spy(monkeypatch) -> list:
    """The hypothesis count of every window that :func:`_cluster_dense` clusters from now on."""
    seen, dense = [], hypotheses._cluster_dense
    monkeypatch.setattr(hypotheses, "_cluster_dense",
                        lambda units, *args: seen.append(len(units)) or dense(units, *args))
    return seen


class TestSelectRepresentatives:
    def test_parallel_bundle_collapses(self):
        starts = np.zeros((5, 3))
        ends = np.outer(np.arange(1, 6), np.array([1.0, 2.0, 3.0]))
        hyps = LineSet(starts, ends)
        result = select_representatives([hyps], 1e-3)
        assert len(result.rep_indices) == 1
        assert window_families(result, 0).shape == (1, 5)
        assert window_families(result, 0)[0].all()

    def test_orthogonal_directions_stay_apart(self):
        dirs = np.array([[1.0, 0, 1], [-1.0, 0, 1], [0, 1.0, 1]])
        hyps = LineSet(np.zeros((3, 3)), dirs)
        result = select_representatives([hyps], 1e-3)
        assert len(result.rep_indices) == 3
        # each family holds its representative only
        assert np.array_equal(window_families(result, 0),
                              np.eye(3, dtype=bool)[result.rep_indices])

    @pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0], [1.0, np.nan, 1.0], [np.inf, 0.0, 1.0]])
    def test_degenerate_direction_raises(self, bad):
        # a line from the origin to ``bad``: zero length, or a non-finite end
        msg = "hypothesis {} of window {} has a zero-length or non-finite direction"
        with pytest.raises(HypothesisError, match=msg.format(0, 0)):
            select_representatives([LineSet(np.zeros((2, 3)), [bad, [1.0, 1, 1]])])
        good = LineSet(np.zeros((2, 3)), [[1.0, 0, 1], [0, 1.0, 1]])
        with pytest.raises(HypothesisError, match=msg.format(1, 1)):
            select_representatives([good, LineSet(np.zeros((3, 3)), [[1.0, 1, 1], bad, bad])])

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
        result = select_representatives([hyps], tol)
        assert len(result.rep_indices) == 2
        labels = np.array(labels)
        for family in window_families(result, 0):
            assert np.unique(labels[family]).size == 1

    def test_coverage_partition(self):
        rng = np.random.default_rng(2)
        dirs = rng.normal(0, 1, (50, 3))
        dirs[:, 2] = np.abs(dirs[:, 2]) + 0.1
        hyps = LineSet(np.zeros((50, 3)), dirs)
        result = select_representatives([hyps], 1e-2)
        # every hypothesis lies in the family of some representative
        assert window_families(result, 0).shape == (len(result.rep_indices), 50)
        assert window_families(result, 0).any(axis=0).all()

    def test_member_distance_bound(self):
        rng = np.random.default_rng(3)
        tol = 1e-3
        dirs = rng.normal(0, 1, (80, 3))
        dirs[:, 2] = np.abs(dirs[:, 2]) + 0.1
        hyps = LineSet(np.zeros((80, 3)), dirs)
        result = select_representatives([hyps], tol)
        for rep, family in zip(result.rep_indices, window_families(result, 0)):
            assert family[rep]
            for m in np.flatnonzero(family):
                assert cosine_distance(line(hyps, int(rep)), line(hyps, int(m))) <= tol + 1e-12

    def test_representatives_mutually_non_parallel(self):
        rng = np.random.default_rng(4)
        dirs = rng.normal(0, 1, (60, 3))
        dirs[:, 2] = np.abs(dirs[:, 2]) + 0.1
        hyps = LineSet(np.zeros((60, 3)), dirs)
        tol = 1e-3
        result = select_representatives([hyps], tol)
        reps = hyps.take(window_reps(result, 0))
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert cosine_distance(line(reps, i), line(reps, j)) > tol

    def test_determinism(self):
        rng = np.random.default_rng(5)
        dirs = rng.normal(0, 1, (40, 3))
        dirs[:, 2] = np.abs(dirs[:, 2]) + 0.1
        hyps = LineSet(np.zeros((40, 3)), dirs)
        a = select_representatives([hyps], 1e-2)
        b = select_representatives([hyps], 1e-2)
        assert np.array_equal(a.rep_indices, b.rep_indices)
        assert np.array_equal(window_families(a, 0), window_families(b, 0))

    @pytest.mark.parametrize("tol", [1e-3, 1e-2, 0.2])
    def test_families_are_the_parallel_sets(self, tol):
        # row k is exactly {i : cosine_distance(rep_k, i) <= tol}
        rng = np.random.default_rng(6)
        dirs = rng.normal(0, 1, (120, 3))
        dirs[:, 2] = np.abs(dirs[:, 2]) + 0.1
        # near-duplicates so that families hold more than their representative
        dirs = np.concatenate([dirs, dirs[:40] + rng.normal(0, 1e-3, (40, 3))])
        hyps = LineSet(np.zeros_like(dirs), dirs)
        result = select_representatives([hyps], tol)
        assert window_families(result, 0).sum() > len(result.rep_indices)
        for rep, family in zip(result.rep_indices, window_families(result, 0)):
            brute = [i for i in range(len(hyps))
                     if cosine_distance(line(hyps, int(rep)), line(hyps, i)) <= tol]
            assert np.flatnonzero(family).tolist() == brute

    def test_empty_input_rejected(self):
        with pytest.raises(HypothesisError):
            select_representatives([LineSet(np.zeros((0, 3)), np.zeros((0, 3)))])

    @pytest.mark.parametrize("cluster", [select_representatives, greedy_representatives])
    def test_representatives_belong_to_their_families_at_a_tiny_tolerance(self, cluster):
        # at 1e-18 a unit direction's rounded 1 - u.u can exceed the
        # tolerance, which left a representative outside its own family
        rng = np.random.default_rng(7)
        dirs = rng.normal(0, 1, (500, 3))
        dirs[:, 2] = np.abs(dirs[:, 2]) + 0.1
        hyps = LineSet(np.zeros_like(dirs), dirs)
        result = cluster([hyps] if cluster is select_representatives else hyps, 1e-18)
        reps = window_reps(result, 0)
        assert window_families(result, 0)[np.arange(reps.size), reps].all()

    @pytest.mark.parametrize("tol", [1e-18, 1e-3, 0.2, 0.5, 0.75, 1.0, 1.999, 2.0, 1e300])
    def test_parallel_cut_is_the_least_double_within_the_tolerance(self, tol):
        # from 0.5 on the cut lies below 0.5, where 1 - g rounds, so it is not 1 - tol
        cut = parallel_cut(tol)
        assert 1.0 - cut <= tol
        assert not 1.0 - np.nextafter(cut, -np.inf) <= tol

    def test_parallel_cut_at_infinite_and_nan_tolerances(self):
        assert parallel_cut(math.inf) == -math.inf
        assert math.isnan(parallel_cut(math.nan))

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3)),
                    min_size=1, max_size=60),
           st.floats(0.0, 1e-3), st.sampled_from([1e-3, 1e-2, 0.2, 0.5, 1.0, 2.5]),
           echoes(), st.randoms())
    def test_sorted_scan_matches_greedy_search(self, dirs, jitter, tol, echo, rng):
        # small integer directions repeat and tie on neighbor counts, and
        # echoes repeat a jittered direction bit for bit: at 1e-18, where
        # every window is checked too, their Gram values sit on the cut
        dirs = np.array(dirs, dtype=float)
        dirs += np.array([[rng.uniform(-jitter, jitter) for _ in range(3)] for _ in dirs])
        starts = np.array([[rng.uniform(0, 64) for _ in range(3)] for _ in dirs])
        hyps = echo(LineSet(starts, starts + dirs))
        for tol in (tol, 1e-18):
            got = select_representatives([hyps], tol)
            want = greedy_representatives(hyps, tol)
            assert got.rep_indices.tolist() == want.rep_indices.tolist()
            assert np.array_equal(window_families(got, 0), window_families(want, 0))

    @pytest.mark.parametrize("tol", [1e-18, 1e-3, 0.2, 1.0, 2.0, 2.5])
    @pytest.mark.parametrize("jitter", [0.0, 1e-3])
    def test_windows_at_the_row_cut_match_greedy_search(self, tol, jitter):
        # one call holds windows of exactly 64 hypotheses (one uint64 row each)
        # and 65 (the dense path) with 1-hypothesis, all-parallel and
        # duplicate-direction ones; at 1e-18 duplicates sit on the cut
        rng = np.random.default_rng(8)
        kinds = ["64", "one", "65", "parallel", "duplicate", "64", "duplicate", "one", "65"]
        batch = [clustering_window(rng, kind, jitter) for kind in kinds]
        got = select_representatives(batch, tol)
        for w, hyps in enumerate(batch):
            reps, family = window_reps(got, w), window_families(got, w)
            want = greedy_representatives(hyps, tol)
            assert reps.tolist() == window_reps(want, 0).tolist()
            assert family.shape == window_families(want, 0).shape
            assert family.tobytes() == window_families(want, 0).tobytes()

    @pytest.mark.parametrize("n", [40, 150, 253, 702, 4096])
    @pytest.mark.parametrize("offset", [-2.0 ** -49, -2.0 ** -53, 0.0, 2.0 ** -53, 2.0 ** -49])
    def test_a_gram_value_near_the_cut_takes_the_full_product(self, monkeypatch, n, offset):
        # the cut lies within _GRAM_SLACK of a Gram value, or exactly on it:
        # a window of up to 64 hypotheses (one stacked product per block) and
        # larger ones (row blocks; 150 is an evaluate pair window's size, one
        # block) go to the full product instead
        hyps = tie_window(n, np.random.default_rng(n))
        units = hyps.directions()[:2] / np.linalg.norm(hyps.directions()[:2], axis=1)[:, None]
        assert units[0] @ units[1] == 0.8
        cut = 0.8 + offset
        tol = 1.0 - cut  # exact, so the cut is ``cut``
        assert parallel_cut(tol) == cut
        seen = dense_spy(monkeypatch)
        got = select_representatives([hyps], tol)
        assert seen == [n]
        want = greedy_representatives(hyps, tol)
        assert window_reps(got, 0).tolist() == window_reps(want, 0).tolist()
        assert window_families(got, 0).tobytes() == window_families(want, 0).tobytes()

    @pytest.mark.parametrize("n", [40, 150, 253, 702, 4096])
    def test_a_window_far_from_the_cut_keeps_its_own_product(self, monkeypatch, n):
        # the same windows at a cut far from every Gram value (none of the
        # random ones lies within 2^-48 of it) never reach the full product
        hyps = tie_window(n, np.random.default_rng(n))
        seen = dense_spy(monkeypatch)
        got = select_representatives([hyps], 0.25)
        assert seen == []
        want = greedy_representatives(hyps, 0.25)
        assert window_reps(got, 0).tolist() == window_reps(want, 0).tolist()
        assert window_families(got, 0).tobytes() == window_families(want, 0).tobytes()

    def test_a_window_larger_than_the_gram_scratch_is_clustered_a_row_at_a_time(
            self, monkeypatch):
        # with a 100-value Gram scratch, a 150-hypothesis window's buffers
        # come fresh at its own size, one Gram row per block
        monkeypatch.setattr(hypotheses, "_GRAM", Scratch(100))
        hyps = tie_window(150, np.random.default_rng(150))
        seen = dense_spy(monkeypatch)
        got = select_representatives([hyps], 0.25)
        assert seen == []
        want = greedy_representatives(hyps, 0.25)
        assert window_reps(got, 0).tolist() == window_reps(want, 0).tolist()
        assert window_families(got, 0).tobytes() == window_families(want, 0).tobytes()

    def test_a_large_window_clusters_in_scratch_sized_blocks(self):
        # a 4,096-hypothesis window holds its (H, H) bool adjacency (16 MiB)
        # and Gram blocks of at most 64,000 values; the full product's row
        # chunks of 2,000,000 float64 values took another 15 MiB
        hyps = clustering_window(np.random.default_rng(9), "4096", 1e-3)
        tracemalloc.start()
        try:
            select_representatives([hyps], 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20

    @settings(max_examples=60, deadline=None)
    @given(clustering_batches(), st.sampled_from([1e-3, 1e-2, 0.2, 0.5, 1.0, 2.5]),
           st.lists(echoes(), min_size=7, max_size=7))
    def test_batch_matches_greedy_search_per_window(self, batch, tol, echo):
        # every batch also at 1e-18, where duplicates and echoes sit on the cut
        batch = [f(hyps) for f, hyps in zip(echo, batch)]
        for tol in (tol, 1e-18):
            got = select_representatives(batch, tol)
            assert len(got.hyp0) - 1 == len(got.rep0) == len(got.flag0) == len(batch)
            for w, hyps in enumerate(batch):
                lines = window_lines(got, w)
                assert np.array_equal(lines.starts, hyps.starts)
                assert np.array_equal(lines.ends, hyps.ends)
                reps, family = window_reps(got, w), window_families(got, w)
                want = greedy_representatives(hyps, tol)
                assert reps.tolist() == window_reps(want, 0).tolist()
                assert family.shape == window_families(want, 0).shape
                assert family.tobytes() == window_families(want, 0).tobytes()

