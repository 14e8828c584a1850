"""End-to-end acceptance suite.

Every check here scores the pipeline against an independent oracle (dense
scans, generator ground truth, total-least-squares line fits) or a documented
behavioral bound (recovery rates, overlap floors, determinism, throughput).
"""
import time
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from conftest import (
    LANE_GEOMETRY,
    LANE_NOISE_SIGMA,
    framed_track_stream,
    hungarian_angles,
    lane_config,
    lane_scene,
    lane_window,
    track_pairs,
    track_stream,
)
from oracles import brute_force_lines
from evtraj import io
from evtraj.cli import main
from evtraj.config import RunConfig
from evtraj.fitting import fit_window, point_line_distances, relabel, run_eda, weigh_models
from evtraj.grouping import EntropyInterval, EventWindow, cut_windows
from evtraj.hypotheses import LineSet
from evtraj.io import NOISE_ID, EventStream, SensorGeometry
from evtraj.synth import CLUTTER_LABEL, MotionSpec, SyntheticScene, generate_scene
from evtraj.tracking import BoundingBox, evaluate


# --- residual correctness against a dense parameter scan -------------------

def _dense_scan_distances(voxels, starts, units):
    """Minimum point-to-line distance by scanning the line parameter densely.

    Coarse scan over the full reachable parameter range, then three local
    refinements; shares no algebra with the closed-form implementation.
    """
    n = voxels.shape[0]
    best_lam = np.zeros(n)
    step = 0.5
    coarse = np.arange(-112.0, 112.0 + step, step)
    out = np.empty(n)
    chunk = 2000
    for lo in range(0, n, chunk):
        sl = slice(lo, min(lo + chunk, n))
        vox, s, u = voxels[sl], starts[sl], units[sl]
        lam = np.broadcast_to(coarse, (vox.shape[0], coarse.size))
        local_step = step
        for _ in range(4):
            pts = s[:, None, :] + lam[:, :, None] * u[:, None, :]
            dist = np.linalg.norm(pts - vox[:, None, :], axis=2)
            arg = np.argmin(dist, axis=1)
            center = np.take_along_axis(lam, arg[:, None], axis=1)
            local_step /= 100.0
            offs = np.linspace(-100.0, 100.0, 201) * local_step
            lam = center + offs[None, :]
        out[sl] = dist[np.arange(vox.shape[0]), arg]
    return out


def test_residual_matches_dense_scan_oracle():
    rng = np.random.default_rng(0)
    n = 10_000
    voxels = rng.uniform(0.0, 64.0, (n, 3))
    starts = rng.uniform(0.0, 64.0, (n, 3))
    dirs = rng.normal(0.0, 1.0, (n, 3))
    dirs[:, 2] = np.abs(dirs[:, 2]) + 0.05
    units = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)

    t0 = time.perf_counter()
    got = np.empty(n)
    chunk = 500
    for lo in range(0, n, chunk):
        sl = slice(lo, lo + chunk)
        block = point_line_distances(voxels[sl], starts[sl], starts[sl] + units[sl])
        got[lo:lo + chunk] = np.diagonal(block)
    expected = _dense_scan_distances(voxels, starts, units)
    elapsed = time.perf_counter() - t0

    assert np.max(np.abs(got - expected)) < 1e-6
    assert elapsed < 5.0


# --- closed-form weight checks ---------------------------------------------

def test_weight_closed_forms_are_exact():
    s_t = 64.0
    # every inlier at the window start (or end), all on one pixel: stage 1 is
    # exactly (s_t / 2)^2 and the zero contrast leaves it untouched
    vox = np.zeros((14, 3))
    vox[7:, 2] = s_t
    vertical = LineSet(np.zeros((1, 3)), np.array([[0.0, 0.0, s_t]]))
    w1, final = weigh_models(vox, vertical, [(0, np.arange(7)), (0, np.arange(7, 14))], s_t)
    assert w1.tolist() == [(s_t / 2.0) ** 2] * 2
    assert final.tolist() == w1.tolist()
    # zero contrast leaves the first-stage weight untouched at any scale
    for s_t in (0.0, 2.0, 37.0, 64.0):
        w1, final = weigh_models(vox[:7], vertical, [(0, np.arange(7))], s_t)
        assert final.tolist() == w1.tolist() == [(s_t / 2.0) ** 2]


# --- model count, direction, and association on seeded scenes --------------

N_SCENES = 100
_fit_cache = {}


def _fitted(K, seed):
    key = (K, seed)
    if key not in _fit_cache:
        data = generate_scene(lane_scene(K, seed))
        window = lane_window(data)
        _fit_cache[key] = (data, window, fit_window(window, lane_config()))
    return _fit_cache[key]


@pytest.mark.parametrize("K", [1, 2, 3])
def test_model_count_recovery(K):
    t0 = time.perf_counter()
    hits = sum(
        1 for seed in range(N_SCENES) if _fitted(K, seed)[2].num_models == K
    )
    assert hits >= 0.95 * N_SCENES
    assert time.perf_counter() - t0 < 120.0


@pytest.mark.parametrize("K", [1, 2, 3])
def test_direction_accuracy(K):
    hits = 0
    for seed in range(N_SCENES):
        data, window, res = _fitted(K, seed)
        if res.num_models != K:
            continue
        oracle = brute_force_lines(window, data.labels)
        expected = [oracle[g][1] for g in sorted(oracle)]
        got = [m.direction / np.linalg.norm(m.direction) for m in res.instances]
        if np.all(hungarian_angles(expected, got) <= 3.0):
            hits += 1
    assert hits >= 0.95 * N_SCENES


def test_association_accuracy():
    inlier_total = inlier_correct = clutter_total = clutter_mis = 0
    for seed in range(50):
        data, window, res = _fitted(2, seed)
        if res.num_models != 2:
            continue
        oracle = brute_force_lines(window, data.labels)
        expected = [oracle[g][1] for g in sorted(oracle)]
        got = [m.direction / np.linalg.norm(m.direction) for m in res.instances]
        cost = np.array(
            [
                [np.degrees(np.arccos(np.clip(abs(e @ g), -1.0, 1.0))) for g in got]
                for e in expected
            ]
        )
        _, cols = linear_sum_assignment(cost)
        for g, inst in zip(sorted(oracle), cols):
            sel = data.labels == g
            inlier_total += int(sel.sum())
            inlier_correct += int(np.sum(res.assignment[sel] == inst))
        clutter = data.labels == CLUTTER_LABEL
        clutter_total += int(clutter.sum())
        clutter_mis += int(np.sum(res.assignment[clutter] != NOISE_ID))
    assert inlier_correct >= 0.90 * inlier_total
    assert clutter_mis <= 0.10 * clutter_total


# --- known limit: objects at the same velocity ------------------------------

def test_same_velocity_objects_share_one_trajectory():
    """Two points 40 px apart moving at the same velocity get one trajectory id.

    Representatives are mutually non-parallel and a family holds every
    parallel hypothesis, so parallel lines at different places collapse into
    one model. This pins the limit as measured on seeds 0-4; ROADMAP item 3c
    (position-aware families) will flip it to two models.
    """
    duration = 0.1
    motions = tuple(
        MotionSpec("point", (200.0, 0.0), BoundingBox(9.0, y, 2.0, 2.0), 600.0,
                   LANE_NOISE_SIGMA, time_profile="regular")
        for y in (11.0, 51.0)
    )
    for seed in range(5):
        data = generate_scene(SyntheticScene(LANE_GEOMETRY, duration, motions, 0.0, seed))
        window = EventWindow(data.stream, 0, len(data.stream), 0.0, duration)
        res = fit_window(window, lane_config())
        assert res.num_models == 1
        for motion in (0, 1):
            assert np.all(res.assignment[data.labels == motion] == 0)


# --- known limit: one inlier radius at every speed ---------------------------

def test_fixed_radius_loses_fast_motion_events_to_noise():
    """At 4,000 px/s the 1.5 px inlier radius sends a fifth or more of the motion events to noise.

    Two points at (v, 0) and (0, 0.75 v) px/s cross 200 and 150 px of a
    240x180 sensor, at 8,000 events/s each, with 1,600/s clutter and the
    default config. At v = 4,000 px/s 28.4% / 22.1% / 19.1% of the motion
    events are noise at seeds 0 / 1 / 2; at v = 400 px/s at most 0.8% are. This pins the limit as measured; ROADMAP item 5 (a scale
    that holds at every speed) should flip it.
    """
    def noise_frac(v, seed):
        duration = 200.0 / v
        motions = tuple(
            MotionSpec("point", (v * dx, v * dy), BoundingBox(x, y, 2.0, 2.0), 8000.0,
                       LANE_NOISE_SIGMA, time_profile="regular")
            for (dx, dy), (x, y) in (((1.0, 0.0), (20.0, 40.0)), ((0.0, 0.75), (120.0, 20.0)))
        )
        scene = SyntheticScene(SensorGeometry(240, 180), duration, motions, 1600.0, seed)
        data = generate_scene(scene)
        ids = relabel(run_eda(data.stream, RunConfig()), len(data.stream))
        return np.mean(ids[data.labels != CLUTTER_LABEL] == NOISE_ID)

    for seed in range(3):
        assert noise_frac(4000.0, seed) > 0.15
        assert noise_frac(400.0, seed) <= 0.008


# --- tracking overlap on a translating object ------------------------------

def test_tracking_overlap_and_robustness():
    t0 = time.perf_counter()
    stream = track_stream()
    pairs = track_pairs(20)
    report = evaluate(stream, pairs, lane_config(), n_rep=5)
    elapsed = time.perf_counter() - t0
    assert report.n_pair == 20
    assert report.aor >= 0.85
    assert report.ar == pytest.approx(1.0)
    assert elapsed < 30.0


def test_default_band_cuts_sparse_streams_too_small_to_fit():
    # A known limit (README "Known limits"): at the default entropy band
    # [2.5, 4.5] the sparse 64x64 stream is cut into windows of a median 8
    # events, and almost all of them fail (305 of 310). Calibrating the band
    # (ROADMAP item 4) should flip this test.
    stream = track_stream()
    config = RunConfig()
    assert (config.entropy_alpha, config.entropy_beta) == (2.5, 4.5)
    results = run_eda(stream, config)
    assert np.median([len(r.window) for r in results]) <= 10
    assert sum(r.failed for r in results) > 0.9 * len(results)
    assert (relabel(results, len(stream)) == NOISE_ID).mean() > 0.9


# --- parameter sensitivity on a fixed challenging scene --------------------

@pytest.fixture(scope="module")
def sweep_scene():
    return framed_track_stream(), track_pairs(20)


def test_tau_sweep_is_flat_topped(sweep_scene):
    stream, pairs = sweep_scene
    taus = [0.375, 1.5, 3.0, 6.0, 24.0]  # px
    aor = [
        evaluate(stream, pairs, lane_config(tau=tau), n_rep=1).aor for tau in taus
    ]
    middle = aor[1:4]
    assert max(middle) - min(middle) < 0.05
    peak = int(np.argmax(aor))
    assert 0 < peak < len(taus) - 1


def test_slice_count_tradeoff(sweep_scene):
    stream, pairs = sweep_scene
    counts = [3, 5, 10, 15, 20]
    aor = {
        n: evaluate(stream, pairs, lane_config(num_slices=n), n_rep=1).aor
        for n in counts
    }
    assert aor[10] >= max(aor.values()) - 0.01


# --- property suites: serialization round trips and window partition -------

@st.composite
def random_streams(draw):
    n = draw(st.integers(min_value=0, max_value=80))
    ts = sorted(
        draw(st.lists(st.floats(0.0, 0.3, allow_nan=False), min_size=n, max_size=n))
    )
    us = draw(st.lists(st.integers(0, 63), min_size=n, max_size=n))
    vs = draw(st.lists(st.integers(0, 63), min_size=n, max_size=n))
    ps = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return EventStream(
        SensorGeometry(64, 64),
        np.array(ts, dtype=np.float64),
        np.array(us, dtype=np.int32),
        np.array(vs, dtype=np.int32),
        np.array(ps, dtype=np.uint8),
    )


@settings(max_examples=500, deadline=None)
@given(random_streams(), st.lists(st.integers(-1, 30), max_size=60))
def test_serialization_round_trips(stream, labels):
    assert io.parse_stream(io.serialize_stream(stream), stream.geometry) == stream
    arr = np.array(labels, dtype=np.int64)
    assert np.array_equal(io.read_associations(io.format_associations(arr)), arr)


@settings(max_examples=500, deadline=None)
@given(random_streams())
def test_windows_partition_the_stream(stream):
    from evtraj.grouping import GroupingError

    if len(stream) == 0:
        with pytest.raises(GroupingError):
            cut_windows(stream, EntropyInterval(2.5, 4.5), 8, 0.1)
        return
    windows = cut_windows(stream, EntropyInterval(2.5, 4.5), 8, 0.1)
    assert windows
    cursor = 0
    prev_end = None
    for w in windows:
        assert w.offset == cursor
        n = len(w)
        assert n > 0
        assert np.array_equal(w.t, stream.t[cursor:cursor + n])
        assert np.array_equal(w.u, stream.u[cursor:cursor + n])
        assert np.array_equal(w.v, stream.v[cursor:cursor + n])
        assert w.t_start <= w.t.min() and w.t.max() <= w.t_end
        if prev_end is not None:
            assert w.t_start >= prev_end
        prev_end = w.t_end
        cursor += n
    assert cursor == len(stream)


@st.composite
def degenerate_streams(draw):
    """1-2,000 events on a sensor 8-300 px a side, mostly degenerate.

    Times: one timestamp for all, runs of ten equal timestamps, or uniform
    over a span of 0, 1 us, 50 ms or 0.5 s, at an offset of 0 or 1e6 s.
    Pixels: all one pixel, uniform, or one to three points moving in
    straight lines, which give windows on both sides of the 64 hypotheses
    that ``select_representatives`` clusters as one ``uint64`` row each.
    """
    n = draw(st.integers(1, 2000))
    width, height = draw(st.integers(8, 300)), draw(st.integers(8, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.sampled_from([0.0, 1e-6, 0.05, 0.5]))
    if draw(st.booleans()):
        t = np.repeat(np.sort(rng.uniform(0.0, span, -(-n // 10))), 10)[:n]
    else:
        t = np.sort(rng.uniform(0.0, span, n))
    pixels = draw(st.sampled_from(["one", "uniform", "lines"]))
    if pixels == "one":
        u, v = np.full(n, rng.integers(width)), np.full(n, rng.integers(height))
    elif pixels == "uniform":
        u, v = rng.integers(0, width, n), rng.integers(0, height, n)
    else:
        k = rng.integers(0, rng.integers(1, 4), n)  # each event's point
        start = rng.uniform(0, 1, (3, 2)) * (width - 1, height - 1)
        velocity = rng.uniform(-1, 1, (3, 2)) * (width, height)
        along = t / span if span else np.zeros(n)
        u = np.clip(np.rint(start[k, 0] + velocity[k, 0] * along), 0, width - 1)
        v = np.clip(np.rint(start[k, 1] + velocity[k, 1] * along), 0, height - 1)
    offset = draw(st.sampled_from([0.0, 1e6]))
    return EventStream(SensorGeometry(width, height), offset + t, u, v, rng.integers(0, 2, n))


@settings(max_examples=100, deadline=None)
@given(degenerate_streams())
def test_run_eda_on_degenerate_streams(stream):
    # windows partition the stream, every id lies in [-1, num_models), and
    # no numpy warning is raised on the way
    config = RunConfig(width=stream.geometry.width, height=stream.geometry.height)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = run_eda(stream, config)
        ids = relabel(results, len(stream))
    cursor = 0
    for r in results:
        assert r.window.offset == cursor and len(r.window) > 0
        cursor += len(r.window)
        assert r.assignment.shape == (len(r.window),)
        assert np.all((r.assignment >= NOISE_ID) & (r.assignment < r.num_models))
    assert cursor == len(stream)
    assert ids.shape == (len(stream),)
    assert np.all((ids >= NOISE_ID) & (ids < sum(r.num_models for r in results)))


# --- throughput floor -------------------------------------------------------

# The 30K rate is advisory on a shared machine, so its warning stays a warning
# under the suite's warnings-as-errors filter; only the 10K floor fails.
@pytest.mark.filterwarnings("default:throughput:UserWarning")
def test_throughput_floor(tmp_path, capsys):
    doc = {
        "geometry": [240, 180],
        "duration": 0.5,
        "motions": [
            {"kind": "point", "velocity": [400, 0], "start_region": [20, 40, 2, 2],
             "event_rate": 8000, "noise_sigma": 0.32, "time_profile": "regular"},
            {"kind": "point", "velocity": [0, 300], "start_region": [120, 20, 2, 2],
             "event_rate": 8000, "noise_sigma": 0.32, "time_profile": "regular"},
        ],
        "clutter_rate": 1600,
        "seed": 0,
    }
    scene = tmp_path / "bench.yaml"
    scene.write_text(yaml.safe_dump(doc))
    assert main(["bench", str(scene), "--runs", "3"]) == 0
    fields = dict(l.split() for l in capsys.readouterr().out.splitlines())
    eps = float(fields["eps"])
    if eps < 30_000:
        warnings.warn(f"throughput {eps:.0f} events/s is below the 30K reference rate")
    assert eps >= 10_000
