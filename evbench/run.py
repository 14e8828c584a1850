#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for evtraj.

Run from the root of a checkout:

    python3 evbench/run.py --workload lanes_fine --seed 1 --seconds 30 --trace 0

The benchmark generates the workload's inputs from ``--seed`` with
``evtraj.synth`` (see ``workloads.py``) and writes each event file as text.
It then repeats one cycle of user operations for ``--seconds``: for each
file, ``parse_stream`` on its text, one in-process ``evtraj associate`` call
(file in, file out) and ``run_eda`` on the parsed stream; then
``tracking.evaluate`` on each annotated track segment. One process, one
Python thread, one call at a time: a closed-loop batch job. The first cycle
warms up and is not timed. Every cycle's outputs are checked.

Timings are normalised to machine speed: each timed call is followed by a
fixed reference kernel (``calibrate.py``), and an operation's wall time in a
cycle is scaled by the kernel's nominal time over its mean time around the
operation's calls. The info line keeps the raw wall-time medians next to the
normalised ones.

With ``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric (medians over cycles). With ``--trace 1`` untraced cycles
alternate with traced ones, in which timing shims wrap the public functions
of evtraj's modules (``shims.py``), and the last line holds the per-layer
metrics. The line before it (``{"info": ...}``) records the machine, the
source digest, the association sha256, sample counts and, when tracing, the
tracing overhead.

The default seed is 1; seed 1009 is held out for confirming claims.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io as stdio
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import calibrate
import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".evbench_work"

DEFAULT_SEED = 1
SETUP_REPEATS = 5
MIN_CYCLES = 3

QUALITY_PER_LAYER = ("merged_window_frac", "structure_noise_frac", "clutter_structure_frac")


def load_program() -> None:
    """Import evtraj from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "evtraj" / "__init__.py").is_file():
        raise SystemExit(f"evbench: no evtraj sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import evtraj

    if Path(evtraj.__file__).resolve().parent != SRC / "evtraj":
        raise SystemExit(f"evbench: imported evtraj from {evtraj.__file__}, not {SRC}")


def machine() -> dict:
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "commit": commit(),
        "src_sha256": src_digest(),
    }


def commit() -> str:
    """HEAD of the checkout's git repository, or 'unknown' outside one."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Clock:
    """Times calls, each followed by the reference kernel (``calibrate.py``)."""

    def __init__(self) -> None:
        self._last_ref = calibrate.measure()
        self.calls = 0
        self.cpu = self.wall = 0.0

    def time(self, fn, *args):
        """Return ((wall seconds, mean kernel seconds around the call), fn's result)."""
        self.calls += 1
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - t0
        self.cpu += cpu_seconds() - c0
        self.wall += raw
        ref = calibrate.measure()
        around = (self._last_ref + ref) / 2.0
        self._last_ref = ref
        return (raw, around), out

    @staticmethod
    def normalise(samples: list, raw: float = None) -> float:
        """Wall seconds of the calls, rescaled to the kernel's nominal speed."""
        if raw is None:
            raw = sum(r for r, _ in samples)
        return raw * calibrate.NOMINAL_S / statistics.fmean(ref for _, ref in samples)


class Bench:
    def __init__(self, name: str, seed: int, workdir: Path, clock: Clock):
        from evtraj import cli, fitting, io, tracking

        import workloads

        self.cli, self.fitting, self.io, self.tracking = cli, fitting, io, tracking
        self.clock = clock
        self.setup = []
        texts = set()
        for _ in range(SETUP_REPEATS):
            sample, inputs = clock.time(workloads.build, name, seed)
            self.setup.append((sample[0], clock.normalise([sample])))
            texts.add(tuple(hashlib.sha256(r.text).hexdigest() for r in inputs.recordings))
        self.setup_deterministic = len(texts) == 1
        self.inputs = inputs
        self.events = sum(len(r.stream) for r in inputs.recordings)
        self.paths = []
        for i, rec in enumerate(inputs.recordings):
            path = workdir / f"events_{i}.txt"
            path.write_bytes(rec.text)
            self.paths.append((path, workdir / f"assoc_{i}.txt"))
        self.reference = None

    def associate(self, i: int):
        events, out = self.paths[i]
        argv = ["associate", str(events), "--out", str(out), *self.inputs.cli_flags]
        summary = stdio.StringIO()
        with contextlib.redirect_stdout(summary):
            sample, rc = self.clock.time(self.cli.main, argv)
        if rc != 0:
            raise RuntimeError(f"evtraj associate exited with {rc}")
        return sample, out.read_bytes(), summary.getvalue()

    def evaluate(self, j: int):
        stream, pairs = self.inputs.tracks[j]
        cfg = self.inputs.eval_config
        return self.clock.time(self.tracking.evaluate, stream, pairs, cfg, cfg.n_rep)

    def full_cycle(self) -> dict:
        """Parse, associate and run_eda each file, evaluate each segment.

        Returns each operation's raw and normalised seconds, summed over the
        files.
        """
        inp = self.inputs
        times = {op: [] for op in ("parse", "associate", "eda", "eval")}
        outputs = []
        for i, rec in enumerate(inp.recordings):
            parse, stream = self.clock.time(self.io.parse_stream, rec.text, rec.stream.geometry)
            assoc, payload, summary = self.associate(i)
            eda, results = self.clock.time(self.fitting.run_eda, stream, inp.config)
            times["parse"].append(parse)
            times["associate"].append(assoc)
            times["eda"].append(eda)
            outputs.append((rec, stream, payload, summary, results))
        reports = []
        for j in range(len(inp.tracks)):
            evaluation, report = self.evaluate(j)
            times["eval"].append(evaluation)
            reports.append(report)
        self.check_cycle(outputs, reports)
        return {op: (sum(r for r, _ in v), self.clock.normalise(v)) for op, v in times.items()}

    def check_cycle(self, outputs, reports) -> None:
        digest = {
            "assoc": [hashlib.sha256(payload).hexdigest() for _, _, payload, _, _ in outputs],
            "eda": [checks.relabel(results, len(rec.stream)).tobytes()
                    for rec, _, _, _, results in outputs],
            "failed": [r.failed for *_, results in outputs for r in results],
            "per_pair": [np.asarray(report.per_pair).tobytes() for report in reports],
        }
        if self.reference is None:
            for rec, stream, payload, summary, results in outputs:
                checks.require(stream == rec.stream, "parse_stream does not round-trip")
                checks.check_windows(results, len(rec.stream))
                checks.check_association(payload, summary, results, len(rec.stream))
            for report, (_, pairs) in zip(reports, self.inputs.tracks):
                checks.check_report(report, len(pairs))
            self.reference = digest
            self.results = [(rec, results) for rec, _, _, _, results in outputs]
            self.reports = reports
        else:
            checks.require(digest == self.reference, "outputs differ between cycles")

    def traced_cycle(self, tracer) -> dict:
        """Associate each file and evaluate each segment under the shims.

        Their outputs must match the untraced ones.
        """
        tracer.reset()
        tracer.install()
        payloads, per_pair, assoc, evaluation = [], [], [], []
        try:
            for i in range(len(self.inputs.recordings)):
                sample, payload, _ = self.associate(i)
                payloads.append(hashlib.sha256(payload).hexdigest())
                assoc.append(sample)
            for j in range(len(self.inputs.tracks)):
                sample, report = self.evaluate(j)
                per_pair.append(np.asarray(report.per_pair).tobytes())
                evaluation.append(sample)
        finally:
            tracer.uninstall()
        checks.require(payloads == self.reference["assoc"],
                       "traced associate output differs from the untraced one")
        checks.require(per_pair == self.reference["per_pair"],
                       "traced evaluate output differs from the untraced one")
        eda = sum(end - start for name, start, end, *_ in tracer.spans
                  if name == "fitting.run_eda")
        return {"metrics": tracer.metrics(), "eval": self.clock.normalise(evaluation),
                "eda": self.clock.normalise(assoc, raw=eda)}


def medians(samples: list, kind: int) -> dict:
    """Median over cycles of each operation's raw (0) or normalised (1) seconds."""
    return {op: statistics.median(s[op][kind] for s in samples) for op in samples[0]}


def end_to_end(bench: Bench, samples: list) -> tuple[dict, dict]:
    n = bench.events
    med = medians(samples, 1)
    windows = [r for _, results in bench.results for r in results]
    overlaps = np.concatenate([np.asarray(r.per_pair)[0] for r in bench.reports])
    failed_windows = sum(r.failed for r in windows)
    # evaluate scores a failed fit or a TrackingFailure as overlap 0
    failed_pairs = int(np.sum(overlaps == 0.0))
    quality = checks.quality([(results, rec.labels) for rec, results in bench.results])
    values = {
        "parse_eps": n / med["parse"],
        "associate_eps": n / med["associate"],
        "eda_eps": n / med["eda"],
        "eval_s": med["eval"],
        "setup_s": statistics.median(s[1] for s in bench.setup),
        "success_frac": 1.0 - (failed_windows + failed_pairs) / (len(windows) + overlaps.size),
        "motion_ids_per_window": quality["motion_ids_per_window"],
        "clutter_rejected_frac": quality["clutter_rejected_frac"],
        # every repetition of a pair scores the same (check_report), so the
        # first row holds all the information
        "aor": float(overlaps.mean()),
        "ar": float(np.mean(overlaps >= 0.5)),
    }
    info = {
        "files": len(bench.inputs.recordings),
        "events": n,
        "windows": len(windows),
        "failed_windows": failed_windows,
        "segments": len(bench.reports),
        "pairs": int(overlaps.size),
        "failed_pairs": failed_pairs,
        "cycles": len(samples),
        "raw_median_s": {**medians(samples, 0),
                         "setup": statistics.median(s[0] for s in bench.setup)},
        "normalised_median_s": med,
        "quality": quality,
    }
    return values, info


def run(args, clock: Clock, workdir: Path, info: dict) -> dict:
    """Set up, warm up, measure for ``args.seconds``; return metric -> value."""
    import shims

    bench = Bench(args.workload, args.seed, workdir, clock)
    checks.require(bench.setup_deterministic, "the same seed gave different inputs")
    bench.full_cycle()                           # warm-up, and the reference outputs
    tracer = shims.Tracer() if args.trace else None
    samples, traced = [], []
    cpu = wall = 0.0
    peak_rss_mb = None
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        per_cycle = elapsed / max(1, len(samples) + len(traced))
        enough = len(samples) >= MIN_CYCLES and (tracer is None or len(traced) >= MIN_CYCLES)
        if enough and elapsed + per_cycle > args.seconds:
            break
        if tracer is None or len(traced) >= len(samples):
            c0, w0 = clock.cpu, clock.wall
            samples.append(bench.full_cycle())
            cpu, wall = cpu + clock.cpu - c0, wall + clock.wall - w0
        else:
            # the untraced program's peak, before the spans take memory too
            peak_rss_mb = peak_rss_mb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            traced.append(bench.traced_cycle(tracer))

    values, run_info = end_to_end(bench, samples)
    info.update(run_info)
    info["assoc_sha256"] = hashlib.sha256("".join(bench.reference["assoc"]).encode()).hexdigest()
    if tracer is None:
        return values

    layer = shims.median_metrics([t["metrics"] for t in traced])
    checks.require(shims.counts_repeat([t["metrics"] for t in traced]),
                   "per-layer counts differ between traced cycles")
    layer["process.cpu_wall_ratio"] = cpu / wall
    layer["process.peak_rss_mb"] = peak_rss_mb
    for name in QUALITY_PER_LAYER:
        layer[f"quality.{name}"] = run_info["quality"][name]
    traced_eda_eps = bench.events / statistics.median(t["eda"] for t in traced)
    traced_eval_s = statistics.median(t["eval"] for t in traced)
    info["traced_cycles"] = len(traced)
    info["missing_per_layer"] = tracer.missing()
    info["window_ms_tail_percentile"] = tracer.tail_percentile(layer.get("grouping.windows", 0))
    info["tracing_overhead"] = {
        "eda_eps_untraced": values["eda_eps"],
        "eda_eps_traced": traced_eda_eps,
        "eda_eps_change": traced_eda_eps / values["eda_eps"] - 1.0,
        "eval_s_untraced": values["eval_s"],
        "eval_s_traced": traced_eval_s,
        "eval_s_change": traced_eval_s / values["eval_s"] - 1.0,
    }
    return layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import workloads

    if args.workload not in workloads.SPECS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.SPECS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": machine()}
    clock = Clock()
    correct, failed, values = True, 0, {}
    try:
        values = run(args, clock, workdir, info)
    except checks.CheckFailed as exc:
        correct = False
        info["check_failed"] = str(exc)
    except Exception as exc:  # a program call raised: report the run as failed
        correct, failed = False, 1
        traceback.print_exc()
        info["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items() if k in units}
    info["unlisted_metrics"] = sorted(set(values) - set(units))
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": max(1, clock.calls), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
