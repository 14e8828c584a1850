"""Command-line front end: associate, track, eval, synth, plot, bench."""
from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np
import yaml

from . import fitting, io, synth, tracking
from .config import RunConfig, apply_overrides, load_config
from .io import NOISE_ID


def _parse_geometry(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(f"geometry must look like 240x180, got {text!r}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML config file (dotted keys)")
    parser.add_argument("--geometry", type=_parse_geometry, metavar="WxH")
    parser.add_argument("--tau", type=float, help="inlier noise scale")
    parser.add_argument("--slices", type=int, help="number of time slices")
    parser.add_argument("--alpha", type=float, help="entropy lower bound (bits)")
    parser.add_argument("--beta", type=float, help="entropy upper bound (bits)")
    parser.add_argument("--scale-mode", choices=("fixed", "ikose"))


def _build_config(args: argparse.Namespace) -> RunConfig:
    width, height = args.geometry or (None, None)
    return apply_overrides(load_config(args.config), {
        "tau": args.tau,
        "num_slices": args.slices,
        "entropy_alpha": args.alpha,
        "entropy_beta": args.beta,
        "scale_mode": args.scale_mode,
        "width": width,
        "height": height,
    })


def _read_stream(path: str, config: RunConfig) -> io.EventStream:
    with open(path, "rb") as fh:
        return io.parse_stream(fh.read(), config.geometry)


def cmd_associate(args: argparse.Namespace) -> int:
    config = _build_config(args)
    stream = _read_stream(args.events, config)
    results = fitting.run_eda(stream, config)
    io.write_associations(fitting.relabel(results, len(stream)), args.out)

    for i, res in enumerate(results):
        sizes = ",".join(str(int(m.inliers.size)) for m in res.instances) or "-"
        weights = ",".join(f"{m.w_final:.4g}" for m in res.instances) or "-"
        flag = " FAILED" if res.failed else ""
        print(
            f"window {i}: t=[{res.window.t_start:.6f},{res.window.t_end:.6f}] "
            f"events={len(res.window)} models={res.num_models} "
            f"inliers={sizes} weights={weights}{flag}"
        )
    return 0


def _read_pairs(path: str) -> List[tracking.TrackingPair]:
    """The adjacent-frame box pairs of a box file; fewer than two frames is an error."""
    with open(path, "rb") as fh:
        pairs = tracking.pairs_from_annotations(io.read_box_annotations(fh.read()))
    if not pairs:
        raise ValueError(f"box file {path} holds fewer than two frames")
    return pairs


def cmd_track(args: argparse.Namespace) -> int:
    config = _build_config(args)
    stream = _read_stream(args.events, config)
    pairs = _read_pairs(args.boxes)
    out_rows = []
    for pair, box in zip(pairs, tracking.track(stream, pairs, config)):
        if isinstance(box, tracking.TrackingFailure):
            print(f"pair at t={pair.t_curr:.6f}: tracking failure ({box})", file=sys.stderr)
        else:
            out_rows.append([pair.t_next, box.x, box.y, box.w, box.h])
    payload = io.format_box_annotations(np.array(out_rows).reshape(-1, 5))
    with open(args.out, "wb") as fh:
        fh.write(payload)
    print(f"tracked {len(out_rows)}/{len(pairs)} pairs -> {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config = _build_config(args)
    stream = _read_stream(args.events, config)
    pairs = _read_pairs(args.pairs)
    report = tracking.evaluate(stream, pairs, config, config.n_rep)
    if args.machine:
        print(f"aor {report.aor!r}")
        print(f"ar {report.ar!r}")
        print(f"n_pair {report.n_pair}")
        print(f"n_rep {report.n_rep}")
        for j in range(report.n_pair):
            row = " ".join(f"{float(report.per_pair[i, j])!r}" for i in range(report.n_rep))
            print(f"pair {j} {row}")
    else:
        print(f"AOR={report.aor:.3f} AR={report.ar:.3f} "
              f"(pairs={report.n_pair}, reps={report.n_rep})")
        for j in range(report.n_pair):
            mean_overlap = report.per_pair[:, j].mean()
            ok = "ok" if report.per_success[:, j].all() else "FAIL"
            print(f"  pair {j}: overlap={mean_overlap:.3f} {ok}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    scene = synth.scene_from_file(args.scene)
    if args.out_boxes and not 0 <= args.motion < len(scene.motions):
        raise ValueError(f"--motion {args.motion} is outside [0, {len(scene.motions)})")
    if args.out_boxes and args.frames < 2:
        raise ValueError(f"--frames {args.frames} is below 2, the fewest a box pair needs")
    if args.seed is not None:
        from dataclasses import replace

        scene = replace(scene, seed=args.seed)
    data = synth.generate_scene(scene)
    with open(args.out, "wb") as fh:
        fh.write(io.serialize_stream(data.stream))
    if args.out_labels:
        with open(args.out_labels, "wb") as fh:
            fh.write(b"# event_index label\n")
            fh.write(io.format_rows("%d %d\n", np.arange(data.labels.size), data.labels))
    if args.out_boxes:
        times = np.linspace(0.0, scene.duration, args.frames)
        rows = []
        for t in times:
            box = data.true_box(args.motion, float(t))
            rows.append([t, box.x, box.y, box.w, box.h])
        with open(args.out_boxes, "wb") as fh:
            fh.write(io.format_box_annotations(np.array(rows)))
    print(f"generated {len(data.stream)} events -> {args.out}")
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    config = _build_config(args)
    stream = _read_stream(args.events, config)
    with open(args.assoc, "rb") as fh:
        assignment = io.read_associations(fh.read())
    if assignment.size != len(stream):
        print("error: association file does not match the event file", file=sys.stderr)
        return 1
    lines = ["# T id su sv st eu ev et   (trajectory segments)",
             "# E index u v t id         (labeled event voxels)"]
    for traj in np.unique(assignment):
        if traj == NOISE_ID:
            continue
        sel = assignment == traj
        t = stream.t[sel]
        u = stream.u[sel]
        v = stream.v[sel]
        i0, i1 = int(np.argmin(t)), int(np.argmax(t))
        lines.append(
            f"T {traj} {u[i0]} {v[i0]} {float(t[i0])!r} {u[i1]} {v[i1]} {float(t[i1])!r}"
        )
    with open(args.out, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))
        fh.write(io.format_rows("E %d %d %d %r %d\n", np.arange(len(stream)),
                                stream.u, stream.v, stream.t, assignment))
    print(f"wrote plot data for {len(stream)} events -> {args.out}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.runs < 1:
        raise ValueError(f"--runs must be >= 1, got {args.runs}")
    config = _build_config(args)
    scene = synth.scene_from_file(args.scene)
    data = synth.generate_scene(scene)
    geom = data.stream.geometry
    config = apply_overrides(config, {"width": geom.width, "height": geom.height})
    n = len(data.stream)
    timings = []
    for _ in range(args.runs):
        t0 = time.perf_counter()
        fitting.run_eda(data.stream, config)
        timings.append(time.perf_counter() - t0)
    eps = n / float(np.median(timings))
    print(f"events {n}")
    print(f"runs {len(timings)}")
    print(f"median_seconds {np.median(timings):.4f}")
    print(f"eps {eps:.1f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evtraj",
        description="Event trajectory association and frame-wise tracking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("associate", help="fit trajectories and write associations")
    p.add_argument("events")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_associate)

    p = sub.add_parser("track", help="propagate ground-truth boxes along trajectories")
    p.add_argument("events")
    p.add_argument("boxes")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="frame-wise tracking evaluation (AOR/AR)")
    p.add_argument("events")
    p.add_argument("pairs")
    p.add_argument("--machine", action="store_true", help="line-oriented output")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("scene", help="scene spec YAML")
    p.add_argument("--out", required=True, help="event file")
    p.add_argument("--out-labels")
    p.add_argument("--out-boxes")
    p.add_argument("--motion", type=int, default=0, help="motion index for --out-boxes")
    p.add_argument("--frames", type=int, default=21, help="frame count for --out-boxes")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("plot", help="export trajectory/voxel plot data")
    p.add_argument("events")
    p.add_argument("assoc")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("bench", help="pipeline throughput in events per second")
    p.add_argument("scene", help="scene spec YAML")
    p.add_argument("--runs", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, io.FormatError, ValueError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
