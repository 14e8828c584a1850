"""Output checks and label-based quality metrics, computed from outside the program.

Each ``check_*`` function raises :class:`CheckFailed` with a reason when an
output is wrong; the benchmark then reports ``"correct": false``.
"""
from __future__ import annotations

from typing import List

import numpy as np

NOISE = -1
CLUTTER = -1


class CheckFailed(AssertionError):
    pass


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def check_windows(results, n_events: int) -> None:
    """Windows partition the stream; every assignment fits its window."""
    require(len(results) > 0, "run_eda returned no windows")
    expected = 0
    for i, res in enumerate(results):
        win = res.window
        require(win.offset == expected, f"window {i} starts at event {win.offset}, not {expected}")
        expected += len(win)
        a = np.asarray(res.assignment)
        require(a.shape == (len(win),), f"window {i}: assignment length {a.shape} != {len(win)}")
        if a.size:
            require(int(a.min()) >= NOISE and int(a.max()) < res.num_models,
                    f"window {i}: ids outside [-1, {res.num_models})")
        if res.failed:
            require(res.num_models == 0 and not np.any(a != NOISE),
                    f"window {i}: failed but not all noise")
    require(expected == n_events, f"windows cover {expected} of {n_events} events")


def relabel(results, n_events: int) -> np.ndarray:
    """Global trajectory ids: window-local ids shifted by the models of earlier windows."""
    out = np.full(n_events, NOISE, dtype=np.int64)
    next_id = 0
    for res in results:
        a = np.asarray(res.assignment, dtype=np.int64)
        lo = res.window.offset
        out[lo:lo + a.size] = np.where(a == NOISE, NOISE, a + next_id)
        next_id += res.num_models
    return out


def read_association_file(payload: bytes, n_events: int) -> np.ndarray:
    """Parse an ``event_index trajectory_id`` file that must list every event in order."""
    rows = [line.split() for line in payload.decode("utf-8").splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    require(len(rows) == n_events, f"association file has {len(rows)} rows for {n_events} events")
    require(all(len(r) == 2 for r in rows), "association row without exactly 2 fields")
    table = np.array(rows, dtype=np.int64).reshape(-1, 2)
    require(np.array_equal(table[:, 0], np.arange(n_events)), "association indices out of order")
    return table[:, 1]


def check_association(payload: bytes, summary: str, results, n_events: int) -> None:
    """The ``associate`` file and summary agree with a direct ``run_eda`` call."""
    got = read_association_file(payload, n_events)
    require(np.array_equal(got, relabel(results, n_events)),
            "associate output differs from relabelled run_eda results")
    lines = [line for line in summary.splitlines() if line.startswith("window ")]
    require(len(lines) == len(results), f"summary lists {len(lines)} of {len(results)} windows")
    flagged = sum(line.endswith(" FAILED") for line in lines)
    require(flagged == sum(r.failed for r in results), "summary FAILED flags disagree")


def check_report(report, n_pairs: int) -> None:
    """``evaluate`` scored every pair, and every repetition gave the same row."""
    per_pair = np.asarray(report.per_pair)
    require(report.n_pair == n_pairs and per_pair.shape == (report.n_rep, n_pairs),
            f"per_pair has shape {per_pair.shape} for {report.n_rep} reps x {n_pairs} pairs")
    require(bool(np.all((per_pair >= 0.0) & (per_pair <= 1.0))), "overlap outside [0, 1]")
    require(bool(np.all(per_pair == per_pair[0])), "per_pair rows differ across repetitions")
    require(np.array_equal(report.per_success, (per_pair >= 0.5).astype(float)),
            "per_success disagrees with the 0.5 overlap threshold")
    require(report.aor == float(per_pair.mean()) and report.ar == float(report.per_success.mean()),
            "AOR/AR are not the means of the per-pair scores")


def quality(outputs) -> dict:
    """Association quality against the synth labels, over (results, labels) per file.

    Over the windows where at least two labelled motions are present, each
    motion's owner is the plurality non-noise trajectory id of its events
    (none if all of them are noise).

    * motion_ids_per_window: the mean number of distinct owners per such
      window; 2 on a lane window whose motions are told apart, 1 when they
      merge or one is lost.
    * merged_window_frac: the share of such windows where two motions have
      the same owner.
    * structure_noise_frac: the share of motion-labelled events assigned noise.
    * clutter_structure_frac: the share of clutter events assigned a
      trajectory; clutter_rejected_frac is its complement.
    """
    owners_per_window: List[int] = []
    merged = motion_events = motion_noise = clutter_events = clutter_assigned = 0
    for results, labels in outputs:
        assignment = relabel(results, labels.size)
        motion = labels != CLUTTER
        motion_events += int(motion.sum())
        motion_noise += int(np.sum(assignment[motion] == NOISE))
        clutter_events += int((~motion).sum())
        clutter_assigned += int(np.sum(assignment[~motion] != NOISE))
        for res in results:
            lo, hi = res.window.offset, res.window.offset + len(res.window)
            lab, ids = labels[lo:hi], assignment[lo:hi]
            present = np.unique(lab[lab != CLUTTER])
            if present.size < 2:
                continue
            owners: List[int] = []
            for m in present:
                sel = ids[(lab == m) & (ids != NOISE)]
                if sel.size:
                    vals, counts = np.unique(sel, return_counts=True)
                    owners.append(int(vals[np.argmax(counts)]))
            owners_per_window.append(len(set(owners)))
            merged += len(owners) != len(set(owners))
    require(len(owners_per_window) > 0, "no window holds two labelled motions")
    require(motion_events > 0 and clutter_events > 0, "inputs lack motion or clutter events")
    return {
        "motion_ids_per_window": float(np.mean(owners_per_window)),
        "merged_window_frac": merged / len(owners_per_window),
        "structure_noise_frac": motion_noise / motion_events,
        "clutter_structure_frac": clutter_assigned / clutter_events,
        "clutter_rejected_frac": 1.0 - clutter_assigned / clutter_events,
    }
