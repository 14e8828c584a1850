"""The benchmark's per-layer tracer finds every stage function it wraps.

``evbench/shims.py`` reports a metric whose stage function is gone as missing
instead of failing, so a renamed or deleted stage would silently drop
per-layer metrics from the benchmark; this test makes it fail the suite.
"""
import importlib.util
from pathlib import Path

import numpy as np

from conftest import framed_track_stream, lane_config, track_pairs
from evtraj import cli, fitting, grouping, tracking
from evtraj.hypotheses import HypothesisError, generate, window_voxels
from evtraj.io import EventStream, SensorGeometry, serialize_stream
from evtraj.tracking import BoundingBox, TrackingFailure, TrackingPair
from oracles import (
    flatnonzero_slices,
    matrix_inliers,
    reference_fit_window,
    reference_residuals,
)

SHIMS = Path(__file__).resolve().parent.parent / "evbench" / "shims.py"


def load_shims():
    spec = importlib.util.spec_from_file_location("evbench_shims", SHIMS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_stage_function_exists():
    original = fitting.fit_window
    tracer = load_shims().Tracer()
    tracer.install()
    try:
        assert fitting.fit_window is not original
        assert tracer.missing() == []
    finally:
        tracer.uninstall()
    assert fitting.fit_window is original


def test_traced_associate_command_records_its_write(tmp_path, capsys):
    # cli.main keeps one parser per process; it must still call the command
    # that the tracer installed after the parser was built, or the
    # benchmark's cli.associate_self_s would read 0
    events = tmp_path / "events.txt"
    events.write_bytes(serialize_stream(framed_track_stream()))

    def associate(out):
        assert cli.main(["associate", str(events), "--out", str(out), "--geometry", "64x64"]) == 0

    associate(tmp_path / "untraced.txt")
    shims = load_shims()
    tracer = shims.Tracer()
    tracer.install()
    try:
        associate(tmp_path / "traced.txt")
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = [rec[shims.NAME] for rec in tracer.spans]
    assert names.count("cli.cmd_associate") == 1
    command = names.index("cli.cmd_associate")
    children = [rec[shims.NAME] for rec in tracer.spans if rec[shims.PARENT] == command]
    assert "io.write_associations" in children
    assert (tmp_path / "traced.txt").read_bytes() == (tmp_path / "untraced.txt").read_bytes()


def close_counts(shims, stream, interval, max_window):
    """Windows of one traced ``cut_windows`` call and the tracer's close reasons."""
    tracer = shims.Tracer()
    tracer.install()
    try:
        windows = grouping.cut_windows(stream, interval, 8, max_window)
    finally:
        tracer.uninstall()
    out = tracer.metrics()
    return windows, {k: out[f"grouping.close_{k}"] for k in ("entropy", "max_span", "tail")}


def test_close_reason_replay_accounts_for_every_window():
    # the tracer replays the last window of each call on AtsltdFrame to tell an
    # entropy close from a tail; a replay that stopped working would turn
    # entropy closes into tails without failing
    rng = np.random.default_rng(11)
    t = np.sort(np.concatenate([rng.uniform(0.0, 0.3, 500), rng.uniform(0.5, 0.8, 500)]))
    geometry = SensorGeometry(64, 48)
    stream = EventStream(geometry, t, rng.integers(0, 64, t.size), rng.integers(0, 48, t.size),
                         rng.integers(0, 2, t.size))
    interval = grouping.EntropyInterval(3.0, 4.0)
    max_window = 0.05
    shims = load_shims()

    windows, closes = close_counts(shims, stream, interval, max_window)
    assert closes["entropy"] > 0 and closes["max_span"] > 0
    assert closes["tail"] <= 1
    assert sum(closes.values()) == len(windows)

    # a prefix ending where an entropy close ends: no tail, every window counted
    k = max(i for i, w in enumerate(windows[:-1]) if w.t_end != w.t_start + max_window)
    end = windows[k].offset + len(windows[k])
    prefix = EventStream(geometry, stream.t[:end], stream.u[:end], stream.v[:end],
                         stream.p[:end])
    prefix_windows, closes = close_counts(shims, prefix, interval, max_window)
    assert [(w.offset, len(w)) for w in prefix_windows] == [
        (w.offset, len(w)) for w in windows[:k + 1]]
    assert closes["tail"] == 0
    assert closes["entropy"] + closes["max_span"] == len(prefix_windows)


def test_traced_fit_counts_match_the_per_window_reference():
    # the stage functions that the tracer counts run inside the batched fit;
    # its counts must still be those of fitting each window on its own
    stream = framed_track_stream()
    config = lane_config()
    pairs = track_pairs(6)
    # a pair without events, and one whose box holds no associated event
    pairs.append(TrackingPair(10.0, 10.02, BoundingBox(0, 0, 4, 4), BoundingBox(0, 0, 4, 4)))
    pairs.append(TrackingPair(0.1, 0.12, BoundingBox(50, 0, 4, 4), BoundingBox(50, 0, 4, 4)))
    tracer = load_shims().Tracer()
    tracer.install()
    try:
        fitting.run_eda(stream, config)
        tracking.evaluate(stream, pairs, config, 1)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert tracer.missing() == []

    interval = grouping.EntropyInterval(config.entropy_alpha, config.entropy_beta)
    windows = grouping.cut_windows(stream, interval, config.entropy_grid, config.max_window_s)
    fitted = {}
    for k, pair in enumerate(pairs):
        lo = int(np.searchsorted(stream.t, pair.t_curr, side="left"))
        hi = int(np.searchsorted(stream.t, pair.t_next, side="right"))
        if hi - lo >= config.min_inliers:
            fitted[k] = grouping.EventWindow(stream, lo, hi, pair.t_curr, pair.t_next)
    hypotheses = representatives = survivors = 0
    for window in windows + list(fitted.values()):
        try:
            hypotheses += len(generate(window, window_voxels(window), config.num_slices,
                                       config.max_pairs))
        except HypothesisError:
            continue
        _, hyps, values = reference_residuals(window, config)
        representatives += len(hyps.rep_indices)
        survivors += len(matrix_inliers(values, config.tau, config.min_inliers))
    failures = 0
    for k, window in fitted.items():
        result = reference_fit_window(window, config)
        if not result.failed:
            try:
                tracking.propagate_box(result, pairs[k].gt_curr, pairs[k].t_next,
                                       config.min_inliers)
            except TrackingFailure:
                failures += 1
    assert failures >= 1 and survivors > 0
    assert metrics["hypotheses.hypotheses"] == hypotheses
    assert metrics["hypotheses.representatives"] == representatives
    assert metrics["fitting.survivors"] == survivors
    assert metrics["tracking.track_failures"] == failures


def test_traced_strided_windows_match_the_reference():
    # the tracer replays the slicing of every traced generate call; a cap this
    # small strides the first and last slices of some windows but not all
    stream = framed_track_stream()
    config = lane_config(max_pairs=4)
    tracer = load_shims().Tracer()
    tracer.install()
    try:
        fitting.run_eda(stream, config)
    finally:
        tracer.uninstall()
    strided = generated = 0
    interval = grouping.EntropyInterval(config.entropy_alpha, config.entropy_beta)
    for window in grouping.cut_windows(stream, interval, config.entropy_grid,
                                       config.max_window_s):
        try:
            generate(window, window_voxels(window), config.num_slices, config.max_pairs)
        except HypothesisError:
            continue
        sizes = [s.size for s in flatnonzero_slices(window, config.num_slices) if s.size]
        strided += sizes[0] * sizes[-1] > config.max_pairs
        generated += 1
    assert 0 < strided < generated
    assert tracer.metrics()["hypotheses.strided_windows"] == strided
