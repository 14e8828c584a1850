"""The benchmark's per-layer tracer finds every stage function it wraps.

``evbench/shims.py`` reports a metric whose stage function is gone as missing
instead of failing, so a renamed or deleted stage would silently drop
per-layer metrics from the benchmark; this test makes it fail the suite.
"""
import importlib.util
from pathlib import Path

import numpy as np

from evtraj import fitting, grouping
from evtraj.io import EventStream, SensorGeometry

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
