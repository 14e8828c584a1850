"""Command-line interface tests, driven through ``main`` with real files."""
import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import (
    LANE_DURATION,
    LANE_EVENTS_PER_MOTION,
    LANE_GEOMETRY,
    LANE_NOISE_SIGMA,
    LANES,
    framed_track_stream,
    track_pairs,
    track_stream,
)
import evtraj
from evtraj import fitting, io, synth
from evtraj.cli import build_parser, main, _add_common, _build_config
from evtraj.config import RunConfig
from evtraj.io import NOISE_ID, SensorGeometry
from evtraj.tracking import BoundingBox, TrackingPair
from oracles import reference_track


def lane_scene_doc(num_motions, clutter_frac=0.2, seed=0):
    rate = LANE_EVENTS_PER_MOTION / LANE_DURATION
    motions = [
        {
            "kind": "point",
            "velocity": list(vel),
            "start_region": [box.x, box.y, box.w, box.h],
            "event_rate": rate,
            "noise_sigma": LANE_NOISE_SIGMA,
            "time_profile": "regular",
        }
        for vel, box in LANES[:num_motions]
    ]
    return {
        "geometry": [LANE_GEOMETRY.width, LANE_GEOMETRY.height],
        "duration": LANE_DURATION,
        "motions": motions,
        "clutter_rate": clutter_frac * num_motions * rate,
        "clutter_span": [0.12, 0.88],
        "seed": seed,
    }


@pytest.fixture
def scene_file(tmp_path):
    def write(doc, name="scene.yaml"):
        path = tmp_path / name
        path.write_text(yaml.safe_dump(doc))
        return str(path)

    return write


class TestSynthCommand:
    def test_writes_events_labels_and_boxes(self, tmp_path, scene_file, capsys):
        scene = scene_file(lane_scene_doc(1))
        events = tmp_path / "events.txt"
        labels = tmp_path / "labels.txt"
        boxes = tmp_path / "boxes.txt"
        rc = main(["synth", scene, "--out", str(events),
                   "--out-labels", str(labels), "--out-boxes", str(boxes),
                   "--frames", "5"])
        assert rc == 0
        stream = io.parse_stream(events.read_bytes(), LANE_GEOMETRY)
        assert len(stream) > 0
        assert "generated" in capsys.readouterr().out
        label_lines = [l for l in labels.read_text().splitlines()
                       if l and not l.startswith("#")]
        assert len(label_lines) == len(stream)
        rows = io.read_box_annotations(boxes.read_bytes())
        assert rows.shape == (5, 5)
        # the box translates with the first motion's velocity
        vel, box = LANES[0]
        assert rows[-1][1] == pytest.approx(box.x + vel[0] * LANE_DURATION)

    def test_long_label_file_matches_a_per_line_reference(self, tmp_path, scene_file):
        # labels 0, 1 and the noise id, over more rows than the integer
        # formatter takes in one pass
        doc = lane_scene_doc(2, seed=4)
        doc["clutter_rate"] = 250_000.0
        scene = scene_file(doc)
        events, labels = tmp_path / "events.txt", tmp_path / "labels.txt"
        assert main(["synth", scene, "--out", str(events), "--out-labels", str(labels)]) == 0
        truth = synth.generate_scene(synth.scene_from_file(scene)).labels.tolist()
        assert {NOISE_ID, 0, 1} <= set(truth) and len(truth) > 2 * io._INT_ROWS
        expected = "# event_index label\n" + "".join("%d %d\n" % row for row in enumerate(truth))
        assert labels.read_bytes() == expected.encode("utf-8")

    def test_seed_flag_changes_the_stream(self, tmp_path, scene_file):
        scene = scene_file(lane_scene_doc(1, clutter_frac=1.0))
        a, b, c = (tmp_path / n for n in ("a.txt", "b.txt", "c.txt"))
        main(["synth", scene, "--out", str(a)])
        main(["synth", scene, "--out", str(b)])
        main(["synth", scene, "--out", str(c), "--seed", "99"])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda d: {k: v for k, v in d.items() if k != "duration"},
         "missing required key 'duration'"),
        (lambda d: [d], "scene must be a mapping"),
        (lambda d: {**d, "geometry": [64]}, "geometry must hold 2 numbers"),
        (lambda d: {**d, "motions": [{**d["motions"][0], "velocity": [1, 2, 3]}]},
         "velocity must hold 2 numbers"),
        (lambda d: {**d, "motions": [{**d["motions"][0], "start_region": [1, 2]}]},
         "start_region must hold 4 numbers"),
        (lambda d: {**d, "clutter_span": [0.5]}, "clutter_span must hold 2 numbers"),
    ], ids=["missing_duration", "list_document", "short_geometry", "long_velocity",
            "short_start_region", "short_clutter_span"])
    def test_malformed_scene_fails_cleanly(self, tmp_path, scene_file, capsys, edit, message):
        events = tmp_path / "events.txt"
        rc = main(["synth", scene_file(edit(lane_scene_doc(1))), "--out", str(events)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and message in err
        assert not events.exists()

    @pytest.mark.parametrize("motion", ["3", "-1"])
    def test_motion_outside_the_scene_fails_before_writing(self, tmp_path, scene_file,
                                                           capsys, motion):
        events, boxes = tmp_path / "events.txt", tmp_path / "boxes.txt"
        rc = main(["synth", scene_file(lane_scene_doc(1)), "--out", str(events),
                   "--out-boxes", str(boxes), "--motion", motion])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: --motion")
        assert not events.exists() and not boxes.exists()

    @pytest.mark.parametrize("frames", ["0", "1", "-1"])
    def test_too_few_box_frames_fail_before_writing(self, tmp_path, scene_file, capsys,
                                                    frames):
        events, boxes = tmp_path / "events.txt", tmp_path / "boxes.txt"
        rc = main(["synth", scene_file(lane_scene_doc(1)), "--out", str(events),
                   "--out-boxes", str(boxes), "--frames", frames])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: --frames")
        assert not events.exists() and not boxes.exists()

    def test_yaml_syntax_error_fails_cleanly(self, tmp_path, capsys):
        scene = tmp_path / "bad.yaml"
        scene.write_text("geometry: [64, 64\nduration: 0.1\n")
        events = tmp_path / "events.txt"
        rc = main(["synth", str(scene), "--out", str(events)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not events.exists()


class TestAssociateCommand:
    def _synth(self, tmp_path, scene_file, num_motions):
        scene = scene_file(lane_scene_doc(num_motions))
        events = tmp_path / "events.txt"
        assert main(["synth", scene, "--out", str(events)]) == 0
        return events

    def test_single_motion_summary_and_output(self, tmp_path, scene_file, capsys):
        events = self._synth(tmp_path, scene_file, 1)
        out = tmp_path / "assoc.txt"
        rc = main(["associate", str(events), "--out", str(out),
                   "--geometry", "64x64"])
        assert rc == 0
        summary = capsys.readouterr().out
        window_lines = [l for l in summary.splitlines() if l.startswith("window")]
        fitted = [l for l in window_lines if "FAILED" not in l]
        assert fitted
        # one motion: every successfully fitted window reports exactly one model
        assert all("models=1" in l for l in fitted)
        assignment = io.read_associations(out.read_bytes())
        stream = io.parse_stream(events.read_bytes(), LANE_GEOMETRY)
        assert assignment.size == len(stream)
        # ids are globally renumbered: one fresh id per fitted window
        ids = set(int(x) for x in np.unique(assignment)) - {NOISE_ID}
        assert ids == set(range(len(fitted)))
        assert np.mean(assignment != NOISE_ID) > 0.5

    def test_two_motions_found(self, tmp_path, scene_file, capsys):
        events = self._synth(tmp_path, scene_file, 2)
        out = tmp_path / "assoc.txt"
        assert main(["associate", str(events), "--out", str(out),
                     "--geometry", "64x64"]) == 0
        assert "models=2" in capsys.readouterr().out
        assignment = io.read_associations(out.read_bytes())
        assert {0, 1} <= set(np.unique(assignment))

    def test_summary_matches_a_per_window_print_reference(self, tmp_path, capsys):
        # the summary is written at once; it must hold the bytes that one
        # print per window gave
        stream = framed_track_stream()
        events, out = tmp_path / "events.txt", tmp_path / "assoc.txt"
        events.write_bytes(io.serialize_stream(stream))
        assert main(["associate", str(events), "--out", str(out), "--geometry", "64x64"]) == 0
        got = capsys.readouterr().out
        results = fitting.run_eda(stream, RunConfig(width=64, height=64))
        assert any(res.failed for res in results)
        assert max(res.num_models for res in results) >= 2
        for i, res in enumerate(results):
            sizes = ",".join(str(int(m.inliers.size)) for m in res.instances) or "-"
            weights = ",".join(f"{m.w_final:.4g}" for m in res.instances) or "-"
            flag = " FAILED" if res.failed else ""
            print(
                f"window {i}: t=[{res.window.t_start:.6f},{res.window.t_end:.6f}] "
                f"events={len(res.window)} models={res.num_models} "
                f"inliers={sizes} weights={weights}{flag}"
            )
        assert got == capsys.readouterr().out

    def test_event_at_the_span_limit_is_associated(self, tmp_path):
        # the second event lies within max_window_s of the first by
        # subtraction, but past the first window's end
        events = tmp_path / "events.txt"
        events.write_text("0.00102 5 5 1\n0.10102000000000001 5 5 1\n0.3 5 5 1\n")
        out = tmp_path / "assoc.txt"
        assert main(["associate", str(events), "--out", str(out)]) == 0
        assert io.read_associations(out.read_bytes()).size == 3

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        rc = main(["associate", str(tmp_path / "nope.txt"),
                   "--out", str(tmp_path / "o.txt")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


def frame_rows(pairs):
    """Box annotation rows for the frames the pairs span."""
    rows = [[p.t_curr, p.gt_curr.x, p.gt_curr.y, p.gt_curr.w, p.gt_curr.h] for p in pairs]
    last = pairs[-1]
    rows.append([last.t_next, last.gt_next.x, last.gt_next.y, last.gt_next.w, last.gt_next.h])
    return rows


def write_track_files(tmp_path, rows):
    events = tmp_path / "events.txt"
    events.write_bytes(io.serialize_stream(track_stream()))
    boxes = tmp_path / "pairs.txt"
    boxes.write_bytes(io.format_box_annotations(np.array(rows)))
    return events, boxes


class TestEvalCommand:
    def _write_stream_and_pairs(self, tmp_path, n_pairs=3):
        return write_track_files(tmp_path, frame_rows(track_pairs(n_pairs)))

    def test_human_output(self, tmp_path, capsys):
        events, boxes = self._write_stream_and_pairs(tmp_path)
        rc = main(["eval", str(events), str(boxes), "--geometry", "64x64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "AOR=" in out and "AR=" in out

    def test_machine_output_parses(self, tmp_path, capsys):
        events, boxes = self._write_stream_and_pairs(tmp_path)
        rc = main(["eval", str(events), str(boxes), "--geometry", "64x64",
                   "--machine"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        fields = dict(l.split(maxsplit=1) for l in lines if not l.startswith("pair"))
        aor, ar = float(fields["aor"]), float(fields["ar"])
        assert 0.0 <= aor <= 1.0
        assert ar == pytest.approx(1.0)
        assert int(fields["n_pair"]) == 3
        pair_lines = [l for l in lines if l.startswith("pair")]
        assert len(pair_lines) == 3

    def test_single_frame_pairs_file_fails(self, tmp_path, capsys):
        events, _ = self._write_stream_and_pairs(tmp_path)
        single = tmp_path / "single.txt"
        single.write_bytes(io.format_box_annotations(np.array([[0.0, 1, 1, 4, 4]])))
        rc = main(["eval", str(events), str(single), "--geometry", "64x64"])
        assert rc == 1
        assert "fewer than two" in capsys.readouterr().err


class TestTrackCommand:
    def _track(self, tmp_path, rows):
        events, boxes = write_track_files(tmp_path, rows)
        out = tmp_path / "tracked.txt"
        rc = main(["track", str(events), str(boxes), "--out", str(out),
                   "--geometry", "64x64"])
        return rc, out

    def test_rows_match_the_per_pair_reference(self, tmp_path, capsys):
        pairs = track_pairs(4)
        rc, out = self._track(tmp_path, frame_rows(pairs))
        assert rc == 0
        assert f"tracked 4/4 pairs -> {out}" in capsys.readouterr().out
        rows = io.read_box_annotations(out.read_bytes())
        assert rows.shape == (4, 5)
        boxes = reference_track(track_stream(), pairs, RunConfig(width=64, height=64))
        for row, pair, box in zip(rows, pairs, boxes):
            assert row.tolist() == [pair.t_next, box.x, box.y, box.w, box.h]

    def test_failed_pair_is_reported_and_skipped(self, tmp_path, capsys):
        # the last pair lies past the end of the stream and holds no events
        rows = frame_rows(track_pairs(2)) + [[10.0, 1, 1, 4, 4], [10.02, 1, 1, 4, 4]]
        rc, out = self._track(tmp_path, rows)
        assert rc == 0
        captured = capsys.readouterr()
        n_rows = io.read_box_annotations(out.read_bytes()).shape[0]
        assert 2 <= n_rows < 4
        assert f"tracked {n_rows}/4 pairs" in captured.out
        assert captured.err.count("tracking failure") == 4 - n_rows
        assert "pair at t=10.000000: tracking failure" in captured.err

    def test_single_frame_box_file_fails(self, tmp_path, capsys):
        rc, out = self._track(tmp_path, [[0.0, 1, 1, 4, 4]])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "fewer than two" in err
        assert err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "track"])
def test_box_file_whose_frames_do_not_advance_fails_with_its_line(tmp_path, capsys, command):
    rows = frame_rows(track_pairs(3))
    rows[2][0] = rows[1][0]  # the third frame repeats the second's timestamp
    events, boxes = write_track_files(tmp_path, rows)
    out = tmp_path / "tracked.txt"
    argv = [command, str(events), str(boxes), "--geometry", "64x64"]
    rc = main(argv + (["--out", str(out)] if command == "track" else []))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: line 3: frame timestamps must increase")
    assert err.count("\n") == 1
    assert not out.exists()


class TestPlotCommand:
    def test_plot_records_every_event(self, tmp_path, scene_file, capsys):
        scene = scene_file(lane_scene_doc(1))
        events = tmp_path / "events.txt"
        assoc = tmp_path / "assoc.txt"
        plot = tmp_path / "plot.txt"
        main(["synth", scene, "--out", str(events)])
        main(["associate", str(events), "--out", str(assoc), "--geometry", "64x64"])
        rc = main(["plot", str(events), str(assoc), "--out", str(plot),
                   "--geometry", "64x64"])
        assert rc == 0
        stream = io.parse_stream(events.read_bytes(), LANE_GEOMETRY)
        lines = plot.read_text().splitlines()
        e_lines = [l for l in lines if l.startswith("E ")]
        t_lines = [l for l in lines if l.startswith("T ")]
        assert len(e_lines) == len(stream)
        assert len(t_lines) >= 1
        # segment endpoints stay inside the sensor
        for line in t_lines:
            parts = line.split()
            su, sv, eu, ev = int(parts[2]), int(parts[3]), int(parts[5]), int(parts[6])
            assert 0 <= su < 64 and 0 <= sv < 64
            assert 0 <= eu < 64 and 0 <= ev < 64

    def test_plot_and_label_files_match_a_per_line_reference(self, tmp_path, scene_file):
        # a bar, a point and clutter: labels and associations both hold noise ids
        doc = lane_scene_doc(1, clutter_frac=1.0, seed=3)
        doc["motions"].append({"kind": "bar", "velocity": [600.0, 0.0],
                               "start_region": [5, 30, 2, 20], "event_rate": 2000.0,
                               "noise_sigma": 0.3})
        scene = scene_file(doc)
        events, labels, assoc, plot = (tmp_path / n for n in
                                       ("events.txt", "labels.txt", "assoc.txt", "plot.txt"))
        assert main(["synth", scene, "--out", str(events), "--out-labels", str(labels)]) == 0
        assert main(["associate", str(events), "--out", str(assoc), "--geometry", "64x64"]) == 0
        assert main(["plot", str(events), str(assoc), "--out", str(plot),
                     "--geometry", "64x64"]) == 0

        truth = synth.generate_scene(synth.scene_from_file(scene)).labels.tolist()
        assert NOISE_ID in truth and 1 in truth
        expected = "# event_index label\n"
        for i, lab in enumerate(truth):
            expected += f"{i} {lab}\n"
        assert labels.read_bytes() == expected.encode("utf-8")

        stream = io.parse_stream(events.read_bytes(), LANE_GEOMETRY)
        assignment = io.read_associations(assoc.read_bytes())
        assert NOISE_ID in assignment and (assignment != NOISE_ID).any()
        lines = ["# T id su sv st eu ev et   (trajectory segments)",
                 "# E index u v t id         (labeled event voxels)"]
        for traj in np.unique(assignment):
            if traj == NOISE_ID:
                continue
            sel = assignment == traj
            t, u, v = stream.t[sel], stream.u[sel], stream.v[sel]
            i0, i1 = int(np.argmin(t)), int(np.argmax(t))
            lines.append(f"T {traj} {u[i0]} {v[i0]} {float(t[i0])!r} "
                         f"{u[i1]} {v[i1]} {float(t[i1])!r}")
        for i in range(len(stream)):
            lines.append(f"E {i} {stream.u[i]} {stream.v[i]} {float(stream.t[i])!r} "
                         f"{assignment[i]}")
        assert plot.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    def test_mismatched_association_file(self, tmp_path, scene_file, capsys):
        scene = scene_file(lane_scene_doc(1))
        events = tmp_path / "events.txt"
        main(["synth", scene, "--out", str(events)])
        assoc = tmp_path / "assoc.txt"
        io.write_associations(np.array([0, 0]), str(assoc))
        rc = main(["plot", str(events), str(assoc), "--out", str(tmp_path / "p.txt"),
                   "--geometry", "64x64"])
        assert rc == 1
        assert "does not match" in capsys.readouterr().err


class TestBenchCommand:
    def test_reports_positive_throughput(self, tmp_path, scene_file, capsys):
        scene = scene_file(lane_scene_doc(2))
        rc = main(["bench", scene, "--runs", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        fields = dict(l.split() for l in lines)
        assert int(fields["events"]) > 0
        assert int(fields["runs"]) == 3
        assert float(fields["median_seconds"]) > 0
        assert float(fields["eps"]) > 0
        assert int(fields["minor_faults"]) >= 0

    def test_clutter_rate_scales_event_count(self, tmp_path, scene_file, capsys):
        counts = []
        for factor, name in ((1.0, "a.yaml"), (3.0, "b.yaml")):
            doc = lane_scene_doc(1, clutter_frac=0.0)
            doc["clutter_rate"] = factor * 4000.0
            doc["motions"] = []
            scene = scene_file(doc, name)
            assert main(["bench", scene, "--runs", "3"]) == 0
            lines = capsys.readouterr().out.splitlines()
            counts.append(int(dict(l.split() for l in lines)["events"]))
        # Poisson counts track the configured rates
        assert counts[1] / counts[0] == pytest.approx(3.0, rel=0.1)

    def test_runs_once_when_asked(self, scene_file, capsys, monkeypatch):
        calls = []
        run_eda = fitting.run_eda
        monkeypatch.setattr(fitting, "run_eda", lambda *args: calls.append(args) or run_eda(*args))
        assert main(["bench", scene_file(lane_scene_doc(1)), "--runs", "1"]) == 0
        fields = dict(l.split() for l in capsys.readouterr().out.splitlines())
        assert int(fields["runs"]) == 1
        assert len(calls) == 1

    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_runs_below_one_fail_before_any_run(self, scene_file, capsys, monkeypatch, runs):
        calls = []
        monkeypatch.setattr(fitting, "run_eda", lambda *args: calls.append(args))
        rc = main(["bench", scene_file(lane_scene_doc(1)), "--runs", runs])
        out, err = capsys.readouterr()
        assert rc == 1
        assert err.startswith("error: --runs")
        assert out == "" and calls == []


class TestConfigPlumbing:
    def test_flags_override_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.yaml"
        cfg_file.write_text(yaml.safe_dump({"fit.tau": 0.05, "entropy.alpha": 1.0}))
        parser = build_parser()
        args = parser.parse_args(["associate", "e.txt", "--out", "o.txt",
                                  "--config", str(cfg_file), "--tau", "0.02",
                                  "--geometry", "32x48", "--slices", "6"])
        cfg = _build_config(args)
        assert cfg.tau == 0.02       # flag beats file
        assert cfg.entropy_alpha == 1.0  # file beats default
        assert cfg.width == 32 and cfg.height == 48
        assert cfg.num_slices == 6

    @pytest.mark.parametrize("flag", ["--threads", "--seed", "--scale-mode"])
    def test_removed_flags_are_rejected(self, capsys, flag):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["associate", "e", "--out", "o", flag, "2"])
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        *((["plot", "e", "a", "--out", "o"], flag)
          for flag in ("--tau", "--slices", "--alpha", "--beta")),
        (["track", "e", "b", "--out", "o"], "--alpha"),
        (["track", "e", "b", "--out", "o"], "--beta"),
        (["eval", "e", "b"], "--alpha"),
        (["eval", "e", "b"], "--beta"),
        (["bench", "scene.yaml"], "--geometry"),
    ], ids=lambda x: x if isinstance(x, str) else x[0])
    def test_flags_a_command_does_not_read_are_usage_errors(self, capsys, argv, flag):
        value = "64x64" if flag == "--geometry" else "-1"
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_readme_flag_table_matches_the_parser(self):
        # README's common-flag table: one row per flag group, one column per
        # command group, "yes" where those commands take those flags
        def cells(row):  # a cell may hold an escaped pipe
            return [c.strip() for c in re.split(r"(?<!\\)\|", row.strip(" |"))]

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        head, _, *rows = readme.split("\n| flag |", 1)[1].split("\n\n", 1)[0].splitlines()
        columns = [c.split(", ") for c in cells(head)]
        listed = {command: set() for group in columns for command in group}
        for row in rows:
            flags, *marks = cells(row)
            for group, mark in zip(columns, marks):
                for command in group if mark == "yes" else ():
                    listed[command] |= set(re.findall(r"--[a-z][a-z-]*", flags))
        every = argparse.ArgumentParser()
        _add_common(every)
        common = {s for a in every._actions for s in a.option_strings} - {"-h", "--help",
                                                                        "--config"}
        assert set().union(*listed.values()) == common
        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        assert {name: common & {s for a in commands[name]._actions for s in a.option_strings}
                for name in listed} == listed

    def test_bad_geometry_flag(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["associate", "e", "--out", "o", "--geometry", "big"])

    @pytest.mark.parametrize("key, value", [("run.seed", 3), ("fit.scale_mode", "fixed"),
                                            ("fit.ikose_k", 0.01), ("scale_mode", "fixed")])
    def test_unknown_config_key_fails_cleanly(self, tmp_path, capsys, key, value):
        cfg_file = tmp_path / "old.yaml"
        cfg_file.write_text(yaml.safe_dump({key: value}))
        events = tmp_path / "events.txt"
        events.write_bytes(b"0.1 1 1 0\n")
        rc = main(["associate", str(events), "--out", str(tmp_path / "o.txt"),
                   "--config", str(cfg_file)])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", ["hypo.num_slices: 10.9\n", "entropy.grid: true\n"],
                             ids=["num_slices_10.9", "grid_true"])
    def test_config_value_that_would_be_coerced_fails_cleanly(self, tmp_path, capsys, doc):
        cfg_file = tmp_path / "run.yaml"
        cfg_file.write_text(doc)
        events = tmp_path / "events.txt"
        events.write_bytes(b"0.1 1 1 0\n0.2 2 2 0\n0.3 3 3 0\n")
        out = tmp_path / "o.txt"
        rc = main(["associate", str(events), "--out", str(out), "--config", str(cfg_file)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: config key ")
        assert captured.out == "" and not out.exists()

    def test_no_span_limit_on_one_timestamp_prints_a_finite_end(self, tmp_path, capsys):
        # three events at t = 0.5 and no span limit: the one window ends at the
        # next float above 0.5, which prints as 0.5, not inf
        cfg_file = tmp_path / "run.yaml"
        cfg_file.write_text("entropy.max_window_s: .inf\n")
        events = tmp_path / "events.txt"
        events.write_bytes(b"0.5 1 1 1\n0.5 9 9 0\n0.5 1 9 1\n")
        rc = main(["associate", str(events), "--out", str(tmp_path / "o.txt"),
                   "--geometry", "16x16", "--config", str(cfg_file)])
        assert rc == 0
        assert "window 0: t=[0.500000,0.500000] events=3 " in capsys.readouterr().out

    def test_span_below_the_timestamp_resolution_fails_cleanly(self, tmp_path, capsys):
        # 0.1 s added to 1e17 s leaves it unchanged: no window can have a span
        events = tmp_path / "events.txt"
        events.write_bytes(b"".join(b"%r %d %d 0\n" % (1e17 + 64 * k, k % 32, k % 32)
                                    for k in range(50)))
        out = tmp_path / "o.txt"
        rc = main(["associate", str(events), "--out", str(out), "--geometry", "32x32"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: max_window 0.1 s is below the resolution")
        assert captured.out == "" and not out.exists()

    def test_yaml_syntax_error_in_config_fails_cleanly(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.yaml"
        cfg_file.write_text("geometry: [64, 64\nduration: 0.1\n")
        events = tmp_path / "events.txt"
        events.write_bytes(b"0.1 1 1 0\n")
        out = tmp_path / "o.txt"
        rc = main(["associate", str(events), "--out", str(out), "--config", str(cfg_file)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


def test_cli_and_synth_leave_scipy_stats_unloaded():
    # importing scipy.stats about doubles the start-up time of every command;
    # the code needs only two quantile functions of scipy.special
    code = "\n".join([
        "import sys",
        "from evtraj import cli, synth",
        "from evtraj.io import SensorGeometry",
        "from evtraj.tracking import BoundingBox",
        "motion = synth.MotionSpec('point', (100.0, 0.0), BoundingBox(9.5, 9.5, 1, 1), 2000.0,",
        "                          0.0, time_profile='regular-centered', time_sigma_frac=0.25)",
        "scene = synth.SyntheticScene(SensorGeometry(32, 32), 0.02, (motion,), 0.0, 0)",
        "assert len(synth.generate_scene(scene).stream) > 0",
        "print('scipy.stats' in sys.modules)",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(evtraj.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_cli_runs_without_the_resource_module(tmp_path):
    # resource is POSIX only (missing on Windows); only `bench` reads it
    events = tmp_path / "events.txt"
    stream = track_stream()
    events.write_bytes(io.serialize_stream(stream))
    code = "\n".join([
        "import sys",
        "sys.modules['resource'] = None",
        "from evtraj import cli",
        f"sys.exit(cli.main(['associate', {str(events)!r}, '--out', {str(tmp_path / 'a.txt')!r},",
        f"                   '--geometry', '{stream.geometry.width}x{stream.geometry.height}']))",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(evtraj.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "a.txt").exists()
