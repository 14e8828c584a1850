"""Timing and counting shims around evtraj's public functions.

``Tracer.install`` replaces the public functions of evtraj's modules that the
per-layer metrics need with a shim that records a span (name, start, end, parent, exception type) and a
small observation of the call's result. Spans stay in memory; per-layer
metrics are derived from them after the traced calls return, so the shims
themselves only time and count. Nothing in the program changes: uninstalling
restores the original functions.

A stage function that the program no longer has is skipped, and the metrics
derived from it are reported as missing instead of failing the run.
"""
from __future__ import annotations

import functools
import inspect
import statistics
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from evtraj import cli, fitting, grouping, hypotheses, io, tracking

MODULES = (io, grouping, hypotheses, fitting, tracking, cli)

# per-layer metric -> the span whose summed duration it reports
SPAN_SECONDS = {
    "io.parse_s": "io.parse_stream",
    "io.format_assoc_s": "io.format_associations",
    "grouping.cut_s": "grouping.cut_windows",
    "hypotheses.generate_s": "hypotheses.generate",
    "hypotheses.select_reps_s": "hypotheses.select_representatives",
    "fitting.residual_matrix_s": "fitting.residual_matrix",
    "fitting.select_inliers_s": "fitting.select_inliers",
    "fitting.weigh_models_s": "fitting.weigh_models",
    "fitting.select_model_count_s": "fitting.select_model_count",
    "fitting.associate_s": "fitting.associate",
    "fitting.fit_window_s": "fitting.fit_window",
    "tracking.evaluate_s": "tracking.evaluate",
    "tracking.propagate_s": "tracking.propagate_box",
}
# per-layer metric -> the span whose call count it reports
SPAN_CALLS = {
    "fitting.point_line_calls": "fitting.point_line_distances",
    "fitting.warp_calls": "fitting.warp_and_contrast",
}
# derived metric -> the spans it needs
DERIVED = {
    "cli.associate_self_s": ("cli.cmd_associate",),
    "grouping.windows": ("grouping.cut_windows",),
    "grouping.events_per_window_p50": ("grouping.cut_windows",),
    "grouping.close_entropy": ("grouping.cut_windows",),
    "grouping.close_max_span": ("grouping.cut_windows",),
    "grouping.close_tail": ("grouping.cut_windows",),
    "hypotheses.hypotheses": ("hypotheses.generate",),
    "hypotheses.strided_windows": ("hypotheses.generate", "hypotheses.slice_window"),
    "hypotheses.representatives": ("hypotheses.select_representatives",),
    "hypotheses.rep_ratio": ("hypotheses.generate", "hypotheses.select_representatives"),
    "fitting.survivors": ("fitting.select_inliers",),
    "fitting.survivor_ratio": ("fitting.select_inliers", "hypotheses.select_representatives"),
    "fitting.models": ("fitting.fit_window",),
    "fitting.fail_no_slices": ("fitting.fit_window",),
    "fitting.fail_no_survivor": ("fitting.fit_window",),
    "fitting.window_ms_p50": ("fitting.fit_window", "fitting.run_eda"),
    "fitting.window_ms_tail": ("fitting.fit_window", "fitting.run_eda"),
    "tracking.fit_calls": ("fitting.fit_window", "tracking.evaluate"),
    "tracking.track_failures": ("tracking.propagate_box",),
}
# the functions that get a shim: every span a metric needs, plus the direct
# children of ``cmd_associate`` for its self time
TRACED = (set(SPAN_SECONDS.values()) | set(SPAN_CALLS.values())
          | {s for spans in DERIVED.values() for s in spans} | {"io.write_associations"})
TRACED.discard("hypotheses.slice_window")  # only called again afterwards, untraced
TIMES = set(SPAN_SECONDS) | {"cli.associate_self_s", "fitting.window_ms_p50",
                             "fitting.window_ms_tail"}
# window-latency percentiles, highest first; the tail metric reports the
# highest one with at least ten windows beyond it
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)

NAME, START, END, PARENT, EXC = range(5)


# span name -> what to keep from a call's result for the derived counts
OBSERVE: Dict[str, Callable] = {
    "grouping.cut_windows": lambda r: [(w.offset, len(w), w.t_start, w.t_end) for w in r],
    "hypotheses.generate": len,
    "hypotheses.select_representatives": lambda r: len(r.rep_indices),
    "fitting.select_inliers": len,
    "fitting.fit_window": lambda r: r.num_models,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.calls: List[tuple] = []      # (span index, args, kwargs, observation)
        self._stack: List[int] = []
        self._originals: Dict[tuple, Callable] = {}
        self.available: set = set()

    # -- installation -------------------------------------------------------
    def _shim(self, name: str, fn: Callable) -> Callable:
        spans, stack, calls = self.spans, self._stack, self.calls
        observe = OBSERVE.get(name)
        keep_args = name in ("grouping.cut_windows", "hypotheses.generate")

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[EXC] = type(exc).__name__
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if observe is not None:
                calls.append((idx, args if keep_args else None,
                              kwargs if keep_args else None, observe(out)))
            return out

        return shim

    def install(self) -> None:
        shims: Dict[int, Callable] = {}
        for mod in MODULES:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    self.available.add(name)
                    if name in TRACED:
                        shims[id(obj)] = self._shim(name, obj)
        # a name imported from another traced module (tracking.fit_window)
        # goes through the same shim
        for mod in MODULES:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in shims:
                    self._originals[(mod, attr)] = obj
                    setattr(mod, attr, shims[id(obj)])

    def uninstall(self) -> None:
        for (mod, attr), obj in self._originals.items():
            setattr(mod, attr, obj)
        self._originals.clear()

    def original(self, mod, attr: str) -> Optional[Callable]:
        return self._originals.get((mod, attr), getattr(mod, attr, None))

    def reset(self) -> None:
        self.spans.clear()
        self.calls.clear()

    # -- derivation ---------------------------------------------------------
    def missing(self) -> List[str]:
        needed = {m: (s,) for m, s in SPAN_SECONDS.items()}
        needed.update({m: (s,) for m, s in SPAN_CALLS.items()})
        needed.update(DERIVED)
        return sorted(m for m, spans in needed.items()
                      if not all(s in self.available for s in spans))

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        total: Dict[str, float] = {}
        count: Dict[str, int] = {}
        child_time = [0.0] * len(spans)
        for rec in spans:
            d = rec[END] - rec[START]
            total[rec[NAME]] = total.get(rec[NAME], 0.0) + d
            count[rec[NAME]] = count.get(rec[NAME], 0) + 1
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += d

        def parent_name(rec) -> Optional[str]:
            return spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else None

        out: Dict[str, float] = {}
        for metric, span in SPAN_SECONDS.items():
            out[metric] = total.get(span, 0.0)
        for metric, span in SPAN_CALLS.items():
            out[metric] = count.get(span, 0)
        out["cli.associate_self_s"] = sum(
            rec[END] - rec[START] - child_time[i]
            for i, rec in enumerate(spans) if rec[NAME] == "cli.cmd_associate")

        obs: Dict[str, list] = {}
        for idx, args, kwargs, value in self.calls:
            obs.setdefault(spans[idx][NAME], []).append((args, kwargs, value))

        windows = [w for _, _, ws in obs.get("grouping.cut_windows", []) for w in ws]
        closes = self._close_reasons(obs.get("grouping.cut_windows", []))
        out["grouping.windows"] = len(windows)
        out["grouping.events_per_window_p50"] = (
            float(np.median([n for _, n, _, _ in windows])) if windows else 0.0)
        out["grouping.close_entropy"] = closes["entropy"]
        out["grouping.close_max_span"] = closes["max_span"]
        out["grouping.close_tail"] = closes["tail"]

        hyps = sum(v for _, _, v in obs.get("hypotheses.generate", []))
        reps = sum(v for _, _, v in obs.get("hypotheses.select_representatives", []))
        surv = sum(v for _, _, v in obs.get("fitting.select_inliers", []))
        out["hypotheses.hypotheses"] = hyps
        out["hypotheses.strided_windows"] = self._strided(obs.get("hypotheses.generate", []))
        out["hypotheses.representatives"] = reps
        out["hypotheses.rep_ratio"] = reps / hyps if hyps else 0.0
        out["fitting.survivors"] = surv
        out["fitting.survivor_ratio"] = surv / reps if reps else 0.0
        out["fitting.models"] = sum(v for _, _, v in obs.get("fitting.fit_window", []))

        # a window fails when a direct child of fit_window raises; the
        # exception type tells the two failure kinds apart
        fails = {"HypothesisError": 0, "NoSurvivingModelError": 0}
        for rec in spans:
            if rec[EXC] in fails and parent_name(rec) == "fitting.fit_window":
                fails[rec[EXC]] += 1
        out["fitting.fail_no_slices"] = fails["HypothesisError"]
        out["fitting.fail_no_survivor"] = fails["NoSurvivingModelError"]

        window_ms = sorted(1e3 * (rec[END] - rec[START]) for rec in spans
                           if rec[NAME] == "fitting.fit_window"
                           and parent_name(rec) == "fitting.run_eda")
        out["fitting.window_ms_p50"] = float(np.median(window_ms)) if window_ms else 0.0
        tail_p = self.tail_percentile(len(window_ms))
        out["fitting.window_ms_tail"] = (float(np.percentile(window_ms, tail_p))
                                         if window_ms else 0.0)

        out["tracking.fit_calls"] = sum(
            1 for rec in spans
            if rec[NAME] == "fitting.fit_window" and parent_name(rec) == "tracking.evaluate")
        out["tracking.track_failures"] = sum(
            1 for rec in spans
            if rec[NAME] == "tracking.propagate_box" and rec[EXC] == "TrackingFailure")
        for metric in self.missing():
            out.pop(metric, None)
        return out

    @staticmethod
    def tail_percentile(n: int) -> float:
        for p in TAIL_PERCENTILES:
            if n * (100.0 - p) / 100.0 >= 10:
                return p
        return 50.0

    def _strided(self, generate_calls: list) -> int:
        """Windows whose first x last slice product exceeded ``max_pairs``."""
        slice_window = self.original(hypotheses, "slice_window")
        if not generate_calls or slice_window is None:
            return 0
        signature = inspect.signature(self.original(hypotheses, "generate"))
        strided = 0
        for args, kwargs, _ in generate_calls:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            sizes = [s.size for s in slice_window(a["window"], a["num_slices"]) if s.size]
            strided += sizes[0] * sizes[-1] > a["max_pairs"]
        return strided

    def _close_reasons(self, cut_calls: list) -> Dict[str, int]:
        """Why each window closed, inferred from the window bounds.

        A max-span close ends exactly ``max_window`` after its start. The last
        window of a call is a tail (partial or folded) unless replaying it
        shows the entropy entering the band first at its last event.
        """
        reasons = {"entropy": 0, "max_span": 0, "tail": 0}
        if not cut_calls:
            return reasons
        frame_cls = getattr(grouping, "AtsltdFrame", None)
        signature = inspect.signature(self.original(grouping, "cut_windows"))
        for args, kwargs, windows in cut_calls:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            stream, interval = bound.arguments["stream"], bound.arguments["interval"]
            grid, max_window = bound.arguments["grid"], bound.arguments["max_window"]
            for i, (lo, n, t0, t1) in enumerate(windows):
                if t1 == t0 + max_window:
                    reasons["max_span"] += 1
                elif i < len(windows) - 1:
                    reasons["entropy"] += 1
                elif frame_cls is not None and _closes_on_entropy_at_end(
                        frame_cls, stream, lo, n, t0, interval, grid):
                    reasons["entropy"] += 1
                else:
                    reasons["tail"] += 1
        return reasons


def _closes_on_entropy_at_end(frame_cls, stream, lo, n, t0, interval, grid) -> bool:
    frame = frame_cls(stream.geometry, t0, grid)
    t, u, v, p = (stream.t[lo:lo + n].tolist(), stream.u[lo:lo + n].tolist(),
                  stream.v[lo:lo + n].tolist(), stream.p[lo:lo + n].tolist())
    for i in range(n):
        frame.update_raw(u[i], v[i], p[i], t[i])
        if t[i] > t0 and interval.contains(frame.entropy):
            return i == n - 1
    return False


def median_metrics(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Median over traced cycles for times; counts must repeat exactly."""
    out = {}
    for key in samples[0]:
        vals = [s[key] for s in samples]
        out[key] = statistics.median(vals) if key in TIMES else vals[0]
    return out


def counts_repeat(samples: List[Dict[str, float]]) -> bool:
    return all(s[k] == samples[0][k] for s in samples for k in s if k not in TIMES)
