"""Box overlap metrics and trajectory-based box propagation tests."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    TRACK_FRAME,
    framed_track_stream,
    lane_config,
    track_pairs,
    track_stream,
)
from evtraj.fitting import fit_window
from evtraj.grouping import EventWindow
from evtraj.io import SensorGeometry
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
from oracles import reference_track

GEOM = SensorGeometry(64, 64)

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


def _fit_between(stream, t0, t1, config):
    lo = int(np.searchsorted(stream.t, t0, side="left"))
    hi = int(np.searchsorted(stream.t, t1, side="right"))
    return fit_window(EventWindow.of(stream, lo, hi, t0, t1), config)


def _point_scene(velocity, x0, y0, rate=1200.0, seed=0, duration=TRACK_FRAME,
                 sigma=0.32):
    motion = MotionSpec(
        "point", velocity, BoundingBox(x0 - 0.5, y0 - 0.5, 1, 1),
        rate, sigma, time_profile="regular",
    )
    return generate_scene(SyntheticScene(GEOM, duration, (motion,), 0.0, seed))


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

    def test_too_few_events_fail(self):
        late = TrackingPair(10.0, 10.02, BoundingBox(0, 0, 4, 4), BoundingBox(0, 0, 4, 4))
        [failure] = track(track_stream(), [late], lane_config())
        assert isinstance(failure, TrackingFailure)
        assert str(failure) == "only 0 events between the frames"
