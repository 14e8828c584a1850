"""Box overlap metrics and trajectory-based box propagation tests."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    TRACK_FRAME,
    framed_track_stream,
    lane_config,
    track_pairs,
    track_stream,
    window_of,
)
from evtraj import tracking
from evtraj.fitting import AssociationResult, WeightedModel, fit_window
from evtraj.grouping import EventWindow
from evtraj.io import NOISE_ID, SensorGeometry
from evtraj.synth import MotionSpec, SyntheticScene, generate_scene
from evtraj.tracking import (
    BoundingBox,
    TrackingFailure,
    TrackingPair,
    evaluate,
    iou,
    pairs_from_annotations,
    propagate_box,
    track,
)
from oracles import reference_propagate_box, reference_track

GEOM = SensorGeometry(64, 64)
SMALL = SensorGeometry(24, 16)  # not square, so that a swapped axis shows

boxes = st.builds(
    BoundingBox,
    st.floats(-10, 60, allow_nan=False),
    st.floats(-10, 60, allow_nan=False),
    st.floats(0.5, 40, allow_nan=False),
    st.floats(0.5, 40, allow_nan=False),
)


class TestIoU:
    def test_identical_boxes(self):
        b = BoundingBox(3, 4, 10, 12)
        assert iou(b, b) == pytest.approx(1.0)

    def test_disjoint_boxes(self):
        assert iou(BoundingBox(0, 0, 5, 5), BoundingBox(10, 10, 5, 5)) == 0.0

    def test_touching_boxes_do_not_overlap(self):
        assert iou(BoundingBox(0, 0, 5, 5), BoundingBox(5, 0, 5, 5)) == 0.0

    def test_half_shifted_unit_boxes(self):
        # 2x2 boxes shifted by one pixel: intersection 2, union 6
        a = BoundingBox(0, 0, 2, 2)
        b = BoundingBox(1, 0, 2, 2)
        assert iou(a, b) == pytest.approx(1.0 / 3.0)

    def test_contained_box(self):
        outer = BoundingBox(0, 0, 10, 10)
        inner = BoundingBox(2, 2, 5, 5)
        assert iou(outer, inner) == pytest.approx(25.0 / 100.0)

    @given(boxes, boxes)
    def test_symmetric_and_bounded(self, a, b):
        val = iou(a, b)
        assert val == pytest.approx(iou(b, a))
        assert 0.0 <= val <= 1.0 + 1e-12

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 0, 5)
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 5, -1)

    @pytest.mark.parametrize("fields", [(0, 0, np.nan, 1), (np.nan, 0, 1, 1), (0, np.inf, 1, 1),
                                        (0, 0, 1, np.inf), (-np.inf, 0, 1, 1)])
    def test_non_finite_box_rejected(self, fields):
        # a NaN size would pass the positive-size check and give an overlap of 0
        with pytest.raises(ValueError, match="finite"):
            BoundingBox(*fields)


class TestPairsFromAnnotations:
    def test_adjacent_rows_become_pairs(self):
        rows = np.array([
            [0.0, 1, 2, 3, 4],
            [0.1, 2, 3, 3, 4],
            [0.2, 3, 4, 3, 4],
        ])
        pairs = pairs_from_annotations(rows)
        assert len(pairs) == 2
        assert pairs[0].t_curr == 0.0 and pairs[0].t_next == 0.1
        assert pairs[0].gt_next == BoundingBox(2, 3, 3, 4)
        assert pairs[1].gt_curr == pairs[0].gt_next

    def test_single_row_yields_nothing(self):
        assert pairs_from_annotations(np.array([[0.0, 1, 2, 3, 4]])) == []

    def test_non_advancing_timestamps_rejected(self):
        rows = np.array([[0.5, 1, 1, 2, 2], [0.5, 1, 1, 2, 2]])
        with pytest.raises(ValueError):
            pairs_from_annotations(rows)

    @pytest.mark.parametrize("times", [(-np.inf, 0.5), (0.0, np.inf), (np.nan, 0.5), (0.0, np.nan)])
    def test_non_finite_times_rejected(self, times):
        box = BoundingBox(0, 0, 1, 1)
        with pytest.raises(ValueError, match="finite"):
            TrackingPair(*times, box, box)


def _fit_between(stream, t0, t1, config):
    lo = int(np.searchsorted(stream.t, t0, side="left"))
    hi = int(np.searchsorted(stream.t, t1, side="right"))
    return fit_window(EventWindow(stream, lo, hi, t0, t1), config)


def _point_scene(velocity, x0, y0, rate=1200.0, seed=0, duration=TRACK_FRAME,
                 sigma=0.32):
    motion = MotionSpec(
        "point", velocity, BoundingBox(x0 - 0.5, y0 - 0.5, 1, 1),
        rate, sigma, time_profile="regular",
    )
    return generate_scene(SyntheticScene(GEOM, duration, (motion,), 0.0, seed))


@st.composite
def propagations(draw):
    """A window's association with 1-3 instances and noise, a box and a target time.

    The box may cross any sensor edge. Target times before and after the
    events, and steep directions, carry projected events past every edge.
    """
    n = draw(st.integers(1, 30))
    t = sorted(draw(st.lists(st.floats(0.0, TRACK_FRAME), min_size=n, max_size=n)))
    u = draw(st.lists(st.integers(0, SMALL.width - 1), min_size=n, max_size=n))
    v = draw(st.lists(st.integers(0, SMALL.height - 1), min_size=n, max_size=n))
    k = draw(st.integers(1, 3))
    ids = np.array(draw(st.lists(st.integers(NOISE_ID, k - 1), min_size=n, max_size=n)))
    step, pace = st.floats(-1.5, 1.5), st.floats(0.5, 2.0) | st.floats(-2.0, -0.5)
    instances = [
        WeightedModel(np.zeros(3), np.array([draw(step), draw(step), draw(pace)]), j,
                      np.flatnonzero(ids == j), 1.0, 1.0)
        for j in range(k)
    ]
    box = BoundingBox(draw(st.floats(-8.0, SMALL.width)), draw(st.floats(-8.0, SMALL.height)),
                      draw(st.floats(0.5, SMALL.width + 16.0)),
                      draw(st.floats(0.5, SMALL.height + 16.0)))
    window = window_of(SMALL, t, u, v, 0.0, TRACK_FRAME)
    return AssociationResult(window, instances, ids), box, draw(st.floats(-0.5, 1.5)) * TRACK_FRAME


def propagated(propagate, *args):
    """The propagated box, or the failure's type and message."""
    try:
        return propagate(*args)
    except TrackingFailure as exc:
        return f"{type(exc).__name__}: {exc}"


class TestPropagateBox:
    def test_static_object_keeps_its_box(self):
        data = _point_scene((0.0, 0.0), 20.0, 24.0, sigma=0.0)
        stream = data.stream
        res = _fit_between(stream, 0.0, TRACK_FRAME, lane_config())
        assert not res.failed
        gt = BoundingBox(16, 20, 8, 8)
        est = propagate_box(res, gt, TRACK_FRAME)
        assert iou(est, gt) > 0.0
        # projected events stay near the emitter
        assert abs((est.x + est.w / 2) - 20.0) < 2.0
        assert abs((est.y + est.h / 2) - 24.0) < 2.0

    def test_translating_object_lands_at_next_frame(self):
        vx, vy = 2400.0, 0.0
        data = _point_scene((vx, vy), 6.0, 30.0, rate=3000.0)
        stream = data.stream
        res = _fit_between(stream, 0.0, TRACK_FRAME, lane_config())
        assert not res.failed
        gt = BoundingBox(0, 24, 16, 12)
        est = propagate_box(res, gt, TRACK_FRAME)
        cx, cy = est.x + est.w / 2, est.y + est.h / 2
        assert abs(cx - (6.0 + vx * TRACK_FRAME)) < 3.0
        assert abs(cy - (30.0 + vy * TRACK_FRAME)) < 3.0

    def test_empty_box_raises(self):
        data = _point_scene((0.0, 0.0), 20.0, 24.0, sigma=0.0)
        res = _fit_between(data.stream, 0.0, TRACK_FRAME, lane_config())
        far = BoundingBox(50, 50, 6, 6)
        with pytest.raises(TrackingFailure):
            propagate_box(res, far, TRACK_FRAME)

    @pytest.mark.parametrize("k", [1, 2])
    def test_box_without_associated_events_fails_at_every_floor(self, k):
        # the box holds two noise events and one associated event lies outside
        # it: with nothing to move, even min_events=0 is a tracking failure
        window = window_of(GEOM, [1e-3, 2e-3, 3e-3], [10, 11, 40], [10, 10, 40],
                           0.0, TRACK_FRAME)
        models = [WeightedModel(np.zeros(3), np.array([1.0, 0.0, 1.0]), j, np.array([2]), 1.0, 1.0)
                  for j in range(k)]
        res = AssociationResult(window, models, np.array([NOISE_ID, NOISE_ID, k - 1]))
        for min_events in (0, 1):
            with pytest.raises(TrackingFailure, match="only 0 associated events inside the box"):
                propagate_box(res, BoundingBox(0, 0, 20, 20), TRACK_FRAME, min_events=min_events)

    def test_plurality_tie_goes_to_the_lower_id(self):
        # three events of each instance in the box, instance 1's first: the
        # tie goes to instance 0, whose direction along the time axis leaves
        # its events where they are
        t = np.arange(1, 7) * 1e-3
        window = window_of(GEOM, t, [10, 11, 12, 20, 21, 22], [10, 10, 10, 20, 20, 20],
                           0.0, TRACK_FRAME)
        still = WeightedModel(np.zeros(3), np.array([0.0, 0.0, 1.0]), 0, np.arange(3, 6), 1.0, 1.0)
        moving = WeightedModel(np.zeros(3), np.array([9.0, 0.0, 1.0]), 1, np.arange(3), 1.0, 1.0)
        res = AssociationResult(window, [still, moving], np.array([1, 1, 1, 0, 0, 0]))
        est = propagate_box(res, BoundingBox(0, 0, 40, 40), TRACK_FRAME)
        assert est == BoundingBox(20.0, 20.0, 2.0, 1.0)

    def test_events_past_every_edge_clip_to_the_sensor(self):
        # the target time is mid-window, so along (2, 2, 1) the first event
        # moves 24 px forward and the last 24 px back: past all four edges
        window = window_of(SMALL, [0.0, TRACK_FRAME], [10, 12], [8, 8], 0.0, TRACK_FRAME)
        model = WeightedModel(np.zeros(3), np.array([2.0, 2.0, 1.0]), 0, np.arange(2), 1.0, 1.0)
        res = AssociationResult(window, [model], np.array([0, 0]))
        est = propagate_box(res, BoundingBox(0, 0, 24, 16), TRACK_FRAME / 2, min_events=2)
        assert est == BoundingBox(0.0, 0.0, 23.0, 15.0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_reference(self, data):
        # the box, or the failure type and message, with min_events at the
        # count of associated events inside the box and one past it
        assoc, box, t_target = data.draw(propagations())
        u, v = assoc.window.u, assoc.window.v
        inside = (u >= box.x) & (u < box.x + box.w) & (v >= box.y) & (v < box.y + box.h)
        found = int(np.count_nonzero(inside & (assoc.assignment != NOISE_ID)))
        min_events = max(found + data.draw(st.integers(0, 1)), 1)
        assert (propagated(propagate_box, assoc, box, t_target, min_events)
                == propagated(reference_propagate_box, assoc, box, t_target, min_events))

    def test_min_events_floor(self):
        data = _point_scene((0.0, 0.0), 20.0, 24.0, sigma=0.0)
        res = _fit_between(data.stream, 0.0, TRACK_FRAME, lane_config())
        gt = BoundingBox(16, 20, 8, 8)
        n_inside = int(np.sum(res.assignment != -1))
        with pytest.raises(TrackingFailure):
            propagate_box(res, gt, TRACK_FRAME, min_events=n_inside + 1)


def failing_pairs() -> list:
    """Pairs of the framed track stream that each fail in their own way."""
    return [
        # no events between the frames
        TrackingPair(10.0, 10.02, BoundingBox(0, 0, 4, 4), BoundingBox(0, 0, 4, 4)),
        # a fitted window, but no associated event inside the box
        TrackingPair(0.1, 0.12, BoundingBox(50, 0, 4, 4), BoundingBox(50, 0, 4, 4)),
        # a few events whose fit fails
        TrackingPair(0.2, 0.2003, BoundingBox(1, 1, 4, 4), BoundingBox(1, 1, 4, 4)),
    ]


def outcomes(results: list) -> list:
    """Boxes as they are, anything else as its type and message."""
    return [r if isinstance(r, BoundingBox) else f"{type(r).__name__}: {r}" for r in results]


class TestEvaluate:
    def test_clean_translating_group_scores_high(self):
        stream = track_stream()
        pairs = track_pairs(4)
        report = evaluate(stream, pairs, lane_config(), n_rep=2)
        assert report.n_pair == 4
        assert report.n_rep == 2
        assert report.per_pair.shape == (2, 4)
        assert report.aor >= 0.7
        assert report.ar == pytest.approx(1.0)

    def test_repetitions_are_deterministic(self):
        stream = track_stream()
        first = evaluate(stream, track_pairs(3), lane_config(), n_rep=3)
        second = evaluate(stream, track_pairs(3), lane_config(), n_rep=3)
        assert np.array_equal(first.per_pair, second.per_pair)
        assert first.aor == second.aor and first.ar == second.ar

    def test_rows_repeat_the_per_pair_scores(self):
        stream = track_stream()
        pairs = track_pairs(3)
        report = evaluate(stream, pairs, lane_config(), n_rep=3)
        boxes = reference_track(stream, pairs, lane_config())
        row = [iou(box, p.gt_next) for box, p in zip(boxes, pairs)]
        assert report.per_pair.shape == (3, 3)
        assert all(r.tolist() == row for r in report.per_pair)
        assert report.aor == float(report.per_pair.mean())

    def test_one_batch_matches_the_per_pair_reference(self):
        # evaluate tracks every pair in one batched fit; each overlap must
        # equal fitting and propagating that pair alone, failures scoring 0
        stream = framed_track_stream()
        pairs = track_pairs(8) + failing_pairs()
        row = [iou(box, p.gt_next) if isinstance(box, BoundingBox) else 0.0
               for box, p in zip(reference_track(stream, pairs, lane_config()), pairs)]
        assert row.count(0.0) >= 3
        report = evaluate(stream, pairs, lane_config(), n_rep=2)
        assert all(r.tolist() == row for r in report.per_pair)

    def test_empty_window_scores_zero(self):
        stream = track_stream()
        late = TrackingPair(10.0, 10.02, BoundingBox(0, 0, 4, 4), BoundingBox(0, 0, 4, 4))
        report = evaluate(stream, [late], lane_config(), n_rep=1)
        assert report.aor == 0.0
        assert report.ar == 0.0

    def test_no_pairs_rejected(self):
        with pytest.raises(ValueError):
            evaluate(track_stream(), [], lane_config())

    @pytest.mark.parametrize("n_rep", [0, -2])
    def test_fewer_than_one_repetition_rejected_before_tracking(self, n_rep, monkeypatch):
        # n_rep 0 used to give NaN scores with warnings, and -2 to fail in
        # np.tile, each after fitting every pair
        def tracking_anyway(*args):
            raise AssertionError("tracked before checking n_rep")

        monkeypatch.setattr(tracking, "track", tracking_anyway)
        with pytest.raises(ValueError, match="n_rep"):
            evaluate(track_stream(), track_pairs(3), lane_config(), n_rep=n_rep)


class TestTrack:
    def test_matches_the_per_pair_reference(self):
        # box for box and failure message for failure message
        stream = framed_track_stream()
        pairs = failing_pairs()[:2] + track_pairs(6) + failing_pairs()[2:]
        got = outcomes(track(stream, pairs, lane_config()))
        assert got == outcomes(reference_track(stream, pairs, lane_config()))
        assert [got[0], got[1], got[-1]] == [
            "TrackingFailure: only 0 events between the frames",
            "TrackingFailure: only 0 associated events inside the box",
            "TrackingFailure: no trajectory fitted between the frames",
        ]
        assert sum(isinstance(b, BoundingBox) for b in got) >= 5

    def test_edge_times_match_the_per_pair_reference(self):
        # frames before the first event, after the last and exactly on
        # timestamps, and windows one event short of min_inliers and at it
        stream, config = framed_track_stream(), lane_config()
        t, m = stream.t, config.min_inliers
        # events i - 1 .. i + m with distinct timestamps, so that frames on
        # them bound exactly m - 1 or m events
        i = next(i for i in range(t.size // 2, t.size - m)
                 if np.all(np.diff(t[i - 1:i + m + 1]) > 0))
        times = [
            (t[0] - 0.05, t[0] - 0.01),  # before the first event
            (t[0] - 0.01, t[0]),  # ends on the first event
            (t[0] - 0.01, t[0] + TRACK_FRAME),
            (t[-1] - TRACK_FRAME, t[-1]),  # ends on the last event
            (t[-1], t[-1] + 0.01),  # starts on the last event
            (t[-1] + 0.01, t[-1] + 0.03),  # after the last event
            (t[i], t[i + m - 2]),  # m - 1 events
            (t[i], t[i + m - 1]),  # m events
            (t[i - 1], t[i + 40]),
        ]
        box = BoundingBox(0, 0, 64, 64)
        pairs = [TrackingPair(float(a), float(b), box, box) for a, b in times]
        got = outcomes(track(stream, pairs, config))
        assert got == outcomes(reference_track(stream, pairs, config))
        few = f"TrackingFailure: only {m - 1} events between the frames"
        assert got[0] == got[5] == "TrackingFailure: only 0 events between the frames"
        assert got[6] == few and got[7] != few
        assert sum(isinstance(b, BoundingBox) for b in got) >= 3

    def test_too_few_events_fail(self):
        late = TrackingPair(10.0, 10.02, BoundingBox(0, 0, 4, 4), BoundingBox(0, 0, 4, 4))
        [failure] = track(track_stream(), [late], lane_config())
        assert isinstance(failure, TrackingFailure)
        assert str(failure) == "only 0 events between the frames"
