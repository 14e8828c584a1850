"""Synthetic scene generator and reference line-fit oracle tests."""
import numpy as np
import pytest

from conftest import window_of
from oracles import brute_force_lines, expected_direction
from evtraj.grouping import EventWindow
from evtraj.hypotheses import window_voxels
from evtraj.io import SensorGeometry
from evtraj.synth import (
    CLUTTER_LABEL,
    MotionSpec,
    SyntheticScene,
    generate_scene,
    scene_from_dict,
)
from evtraj.tracking import BoundingBox

GEOM = SensorGeometry(64, 64)


def point_motion(velocity=(0.0, 0.0), x=20.0, y=24.0, rate=1000.0, sigma=0.0,
                 **kwargs):
    return MotionSpec("point", velocity, BoundingBox(x - 0.5, y - 0.5, 1, 1),
                      rate, sigma, **kwargs)


def make_window(stream, t_start=0.0, t_end=None):
    if t_end is None:
        t_end = float(stream.t[-1]) + 1e-9
    return EventWindow(stream, 0, len(stream), t_start, t_end)


class TestGenerateScene:
    def test_deterministic_for_a_seed(self):
        scene = SyntheticScene(GEOM, 0.05, (point_motion((400, 200), sigma=0.3),),
                               clutter_rate=500.0, seed=7)
        a = generate_scene(scene)
        b = generate_scene(scene)
        assert a.stream == b.stream
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        scene = SyntheticScene(GEOM, 0.05, (point_motion(sigma=0.3),), 500.0, seed=0)
        other = SyntheticScene(GEOM, 0.05, (point_motion(sigma=0.3),), 500.0, seed=1)
        assert generate_scene(scene).stream != generate_scene(other).stream

    def test_labels_align_with_stream(self):
        scene = SyntheticScene(
            GEOM, 0.05,
            (point_motion((400, 0), x=10), point_motion((0, 400), x=40)),
            clutter_rate=400.0, seed=3,
        )
        data = generate_scene(scene)
        assert data.labels.size == len(data.stream)
        assert set(np.unique(data.labels)) <= {CLUTTER_LABEL, 0, 1}
        assert (data.labels == 0).any() and (data.labels == 1).any()
        assert (data.labels == CLUTTER_LABEL).any()

    def test_clutter_only_scene(self):
        scene = SyntheticScene(GEOM, 0.05, (), clutter_rate=2000.0, seed=1)
        data = generate_scene(scene)
        assert len(data.stream) > 0
        assert np.all(data.labels == CLUTTER_LABEL)

    def test_clutter_span_confines_timestamps(self):
        scene = SyntheticScene(GEOM, 0.1, (), clutter_rate=5000.0, seed=2,
                               clutter_span=(0.2, 0.6))
        data = generate_scene(scene)
        assert data.stream.t.min() >= 0.2 * 0.1
        assert data.stream.t.max() <= 0.6 * 0.1

    def test_noise_free_static_point_is_collinear(self):
        scene = SyntheticScene(GEOM, 0.05, (point_motion(),), seed=0)
        data = generate_scene(scene)
        assert np.all(data.stream.u == 20)
        assert np.all(data.stream.v == 24)

    def test_events_clipped_to_sensor(self):
        # fast motion that leaves the array mid-window
        scene = SyntheticScene(GEOM, 0.05, (point_motion((3000, 0), x=40),), seed=0)
        data = generate_scene(scene)
        assert np.all(data.stream.u < GEOM.width)
        assert len(data.stream) > 0

    def test_true_box_follows_velocity(self):
        spec = MotionSpec("box", (100.0, -50.0), BoundingBox(10, 20, 8, 6), 500.0)
        scene = SyntheticScene(GEOM, 0.1, (spec,), seed=0)
        data = generate_scene(scene)
        box = data.true_box(0, 0.1)
        assert box == BoundingBox(20.0, 15.0, 8.0, 6.0)

    def test_bar_and_box_kinds_fill_their_regions(self):
        region = BoundingBox(10, 10, 12, 16)
        for kind in ("bar", "box"):
            spec = MotionSpec(kind, (0.0, 0.0), region, 5000.0)
            data = generate_scene(SyntheticScene(GEOM, 0.05, (spec,), seed=4))
            u, v = data.stream.u, data.stream.v
            assert u.min() >= region.x - 1 and u.max() <= region.x + region.w + 1
            assert v.min() >= region.y - 1 and v.max() <= region.y + region.h + 1
            # a bar is a vertical segment; a box outline spans both axes
            if kind == "bar":
                assert np.unique(u).size <= 2
            else:
                assert np.unique(u).size > 2 and np.unique(v).size > 2

    def test_regular_profile_is_deterministic_in_time_shape(self):
        spec = point_motion(rate=1000.0, time_profile="regular")
        data = generate_scene(SyntheticScene(GEOM, 0.05, (spec,), seed=5))
        t = data.stream.t
        n = t.size
        assert t == pytest.approx((np.arange(n) + 0.5) / n * 0.05)

    def test_centered_profiles_bunch_mid_window(self):
        for profile in ("centered", "regular-centered"):
            spec = point_motion(rate=4000.0, time_profile=profile,
                                time_sigma_frac=0.1)
            data = generate_scene(SyntheticScene(GEOM, 0.05, (spec,), seed=6))
            t = data.stream.t
            assert t.min() >= 0.0 and t.max() <= 0.05
            assert abs(t.mean() - 0.025) < 0.002
            assert np.mean((t > 0.015) & (t < 0.035)) > 0.6

    def test_validation(self):
        with pytest.raises(ValueError):
            MotionSpec("blob", (0, 0), BoundingBox(0, 0, 1, 1), 100.0)
        with pytest.raises(ValueError):
            MotionSpec("point", (0, 0), BoundingBox(0, 0, 1, 1), 0.0)
        with pytest.raises(ValueError):
            MotionSpec("point", (0, 0), BoundingBox(0, 0, 1, 1), 10.0, -0.1)
        with pytest.raises(ValueError):
            MotionSpec("point", (0, 0), BoundingBox(0, 0, 1, 1), 10.0,
                       time_profile="bursty")
        with pytest.raises(ValueError):
            SyntheticScene(GEOM, 0.0, ())
        with pytest.raises(ValueError):
            SyntheticScene(GEOM, 0.1, (), clutter_rate=-1.0)
        with pytest.raises(ValueError):
            SyntheticScene(GEOM, 0.1, (), clutter_span=(0.5, 0.5))
        with pytest.raises(ValueError):
            SyntheticScene(GEOM, 0.1, (), clutter_span=(-0.1, 0.5))


class TestBruteForceLines:
    def _window(self, t, u, v):
        return window_of(GEOM, t, u, v, 0.0, 1.0)

    def test_exactly_collinear_group(self):
        t = np.linspace(0.1, 0.9, 9)
        u = np.arange(10, 19)
        v = np.full(9, 30)
        win = self._window(t, u, v)
        fits = brute_force_lines(win, np.zeros(9, dtype=int))
        centroid, direction = fits[0]
        vox = window_voxels(win)
        assert centroid == pytest.approx(vox.mean(axis=0))
        # every voxel sits on the fitted line
        rel = vox - centroid
        residual = rel - np.outer(rel @ direction, direction)
        assert np.abs(residual).max() < 1e-9
        assert direction[2] > 0

    def test_two_point_group(self):
        win = self._window([0.0, 1.0], [0, 32], [0, 16])
        fits = brute_force_lines(win, np.zeros(2, dtype=int))
        _, direction = fits[0]
        expected = np.array([32.0, 16.0, 64.0])
        expected /= np.linalg.norm(expected)
        assert direction == pytest.approx(expected)

    def test_jittered_group_is_close(self):
        rng = np.random.default_rng(0)
        t = np.linspace(0.05, 0.95, 60)
        u = np.rint(5 + 40 * t + rng.normal(0, 0.3, 60)).astype(int)
        v = np.rint(10 + 20 * t + rng.normal(0, 0.3, 60)).astype(int)
        win = self._window(t, u, v)
        _, direction = brute_force_lines(win, np.zeros(60, dtype=int))[0]
        expected = np.array([40.0, 20.0, 64.0])
        expected /= np.linalg.norm(expected)
        angle = np.degrees(np.arccos(np.clip(abs(direction @ expected), -1, 1)))
        assert angle < 0.5

    def test_clutter_label_is_skipped(self):
        win = self._window([0.1, 0.5, 0.9], [1, 2, 3], [1, 2, 3])
        fits = brute_force_lines(win, np.array([CLUTTER_LABEL, 0, 0]))
        assert set(fits) == {0}

    def test_degenerate_groups_rejected(self):
        win = self._window([0.5], [5], [5])
        with pytest.raises(ValueError):
            brute_force_lines(win, np.zeros(1, dtype=int))

    def test_expected_direction_static_points_along_time(self):
        win = self._window([0.0, 1.0], [0, 0], [0, 0])
        d = expected_direction((0.0, 0.0), win)
        assert d == pytest.approx([0.0, 0.0, 1.0])


class TestSceneFromDict:
    DOC = {
        "geometry": [64, 48],
        "duration": 0.25,
        "seed": 11,
        "clutter_rate": 120.0,
        "clutter_span": [0.1, 0.9],
        "motions": [
            {
                "kind": "point",
                "velocity": [100, -40],
                "start_region": [5, 6, 2, 3],
                "event_rate": 800,
                "noise_sigma": 0.4,
                "time_profile": "regular",
            },
            {
                "kind": "bar",
                "velocity": [0, 60],
                "start_region": [30, 2, 1, 10],
                "event_rate": 500,
            },
        ],
    }

    def test_full_document(self):
        scene = scene_from_dict(self.DOC)
        assert scene.geometry == SensorGeometry(64, 48)
        assert scene.duration == 0.25
        assert scene.seed == 11
        assert scene.clutter_rate == 120.0
        assert scene.clutter_span == (0.1, 0.9)
        assert len(scene.motions) == 2
        m = scene.motions[0]
        assert m.kind == "point"
        assert m.velocity == (100.0, -40.0)
        assert m.start_region == BoundingBox(5, 6, 2, 3)
        assert m.noise_sigma == 0.4
        assert m.time_profile == "regular"
        assert scene.motions[1].time_profile == "uniform"

    def test_defaults(self):
        scene = scene_from_dict({"geometry": [32, 32], "duration": 0.1})
        assert scene.motions == ()
        assert scene.clutter_rate == 0.0
        assert scene.seed == 0
        assert scene.clutter_span == (0.0, 1.0)

    def test_generation_from_document_is_reproducible(self):
        scene = scene_from_dict(self.DOC)
        assert generate_scene(scene).stream == generate_scene(scene).stream
