"""The benchmark's per-layer tracer finds every stage function it wraps.

``evbench/shims.py`` reports a metric whose stage function is gone as missing
instead of failing, so a renamed or deleted stage would silently drop
per-layer metrics from the benchmark; this test makes it fail the suite.
"""
import importlib.util
from pathlib import Path

from evtraj import fitting

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
