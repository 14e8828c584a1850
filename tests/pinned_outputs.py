"""Check the pinned sha256 of each output that must stay byte-identical.

Each ``PINNED`` row names a kind of output, the evbench workload and seed it
is computed on, a ``RunConfig`` override and the pinned digest; ``KINDS``
holds the function that computes each kind. Run it from the repository root
with evtraj installed, under the default BLAS kernel and under OpenBLAS's
oldest x86-64 kernel:

    python tests/pinned_outputs.py
    OPENBLAS_CORETYPE=Prescott OPENBLAS_NUM_THREADS=1 python tests/pinned_outputs.py

It prints each changed row with the digest it got and then exits 1. A change
that alters an output on purpose re-pins its row here, in the open.
"""
import contextlib
import dataclasses
import functools
import hashlib
import io as stdio
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "evbench"))
import workloads  # noqa: E402

from evtraj import cli, io  # noqa: E402
from evtraj.fitting import relabel, run_eda  # noqa: E402
from evtraj.tracking import BoundingBox, evaluate, track  # noqa: E402

BAND_5_6 = {"entropy_alpha": 5.0, "entropy_beta": 6.0}

# kind, workload, seed, RunConfig override, sha256
PINNED = [
    ("associate", "lanes_fine", 1, {},
     "f1c82b0e6f818d9d534742f40a5314928d6b123269de20903d154fc02a5df0bc"),
    ("associate", "lanes_fine", 1009, {},
     "078289955ad891a389b7e0ada8707c383483a184a96f89ccf51ad0ae92332b6c"),
    ("associate", "track_eval", 1, {},
     "71ec9cfd7df5f1ff487dbbc4f214f56a7c044774e3e0807a386ef4790a50a989"),
    ("associate", "track_eval", 1009, {},
     "2f6b2b586f53957a85312841c88dd38f75bc76b31d6000bcde235746f3fbd13f"),
    ("tracker", "lanes_fine", 1, {},
     "c79764fe7b9422f9638edfc8e05913dbded2961a7a61fee504832d6c53ce5bde"),
    ("tracker", "lanes_fine", 1009, {},
     "01abaf84494da59bf9c3494e9a9ebc6b64898cc1ab107da0bc6ef412ba2f7e12"),
    ("tracker", "track_eval", 1, {},
     "e44373fbc0b24ff35fef6b2d5c2a57c0eeb651e280109c7fab05754d64d64f86"),
    ("tracker", "track_eval", 1009, {},
     "b05be430532285033bc39d6baa069d6a7dfb111211bf70eceb8f094db59f2241"),
    # large windows, each clustered and fitted on its own
    ("relabelled", "lanes_fine", 1, BAND_5_6,
     "0cbbf7cdb82177730ab1294f57fa36351d0380830debc2441c3519e4a77726ac"),
    ("relabelled", "lanes_fine", 1009, BAND_5_6,
     "84fec120f88167a5b4865658bf4d63bb454525b205bb837e6c90d9c5b771ada9"),
    # the squared-residual band must decide residual < tau exactly at other radii
    ("relabelled", "lanes_fine", 1, {"tau": 0.75},
     "aad5ce97ab5c3624b5456a87eea0705f4710183d43f2785949c2ae9ba79af4a2"),
    ("relabelled", "lanes_fine", 1, {"tau": 3.0},
     "a88a6d4e455a9abdefed5d21bd33c67f245cb14cd9c435b8d11ea14876384dd3"),
    ("track_file", "track_eval", 1, {},
     "0148e498844dfd54e690e4ee9c49a50a919e557c9dfa96e33350fbefece8440e"),
]


def associate(inputs: workloads.Inputs) -> str:
    """The sha256 of the joined hex sha256s of each recording's association file."""
    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        events, out = Path(tmp) / "events.txt", Path(tmp) / "assoc.txt"
        for rec in inputs.recordings:
            events.write_bytes(rec.text)
            with contextlib.redirect_stdout(stdio.StringIO()):
                rc = cli.main(["associate", str(events), "--out", str(out), *inputs.cli_flags])
            if rc != 0:
                raise RuntimeError(f"evtraj associate exited with {rc}")
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def tracker(inputs: workloads.Inputs) -> str:
    """Every ``evaluate`` row and ``track`` box or failure of the track segments."""
    h = hashlib.sha256()
    for stream, pairs in inputs.tracks:
        for row in evaluate(stream, pairs, inputs.eval_config).per_pair:
            h.update(row.tobytes())
        for box in track(stream, pairs, inputs.eval_config):
            h.update(np.array([box.x, box.y, box.w, box.h]).tobytes()
                     if isinstance(box, BoundingBox)
                     else f"{type(box).__name__}: {box}".encode())
    return h.hexdigest()


def relabelled(inputs: workloads.Inputs, **override) -> str:
    """The relabelled ``run_eda`` ids of every recording under ``override``."""
    config = dataclasses.replace(inputs.config, **override)
    h = hashlib.sha256()
    for rec in inputs.recordings:
        h.update(relabel(run_eda(rec.stream, config), len(rec.stream)).tobytes())
    return h.hexdigest()


def track_file(inputs: workloads.Inputs) -> str:
    """The box file the installed ``evtraj`` script writes for the first track segment."""
    stream, pairs = inputs.tracks[0]
    frames = [(pairs[0].t_curr, pairs[0].gt_curr)] + [(p.t_next, p.gt_next) for p in pairs]
    rows = np.array([[t, b.x, b.y, b.w, b.h] for t, b in frames])
    with tempfile.TemporaryDirectory() as tmp:
        events, boxes, out = (Path(tmp) / f for f in ("events.txt", "boxes.txt", "tracked.txt"))
        events.write_bytes(io.serialize_stream(stream))
        boxes.write_bytes(io.format_box_annotations(rows))
        geometry = f"{stream.geometry.width}x{stream.geometry.height}"
        subprocess.run(["evtraj", "track", str(events), str(boxes), "--out", str(out),
                        "--geometry", geometry], check=True, stdout=subprocess.DEVNULL)
        return hashlib.sha256(out.read_bytes()).hexdigest()


KINDS = {f.__name__: f for f in (associate, tracker, relabelled, track_file)}


def main() -> int:
    inputs = functools.cache(workloads.build)
    changed = 0
    for kind, workload, seed, override, pinned in PINNED:
        got = KINDS[kind](inputs(workload, seed), **override)
        if got != pinned:
            changed += 1
            print(f"{kind} {workload} seed {seed} {override}: sha256 {got}, pinned {pinned}")
    print(f"{len(PINNED) - changed}/{len(PINNED)} unchanged")
    if changed:
        print("An output changed: if that is intended, re-pin its row in PINNED in "
              "tests/pinned_outputs.py, in the open.")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
