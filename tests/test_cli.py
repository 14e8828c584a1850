"""Command-line interface tests, driven through ``main`` with real files."""
import numpy as np
import pytest
import yaml

from conftest import (
    LANE_DURATION,
    LANE_EVENTS_PER_MOTION,
    LANE_GEOMETRY,
    LANE_NOISE_SIGMA,
    LANES,
    track_pairs,
    track_stream,
)
from evtraj import io
from evtraj.cli import build_parser, main, _build_config
from evtraj.config import RunConfig
from evtraj.io import NOISE_ID, SensorGeometry
from evtraj.tracking import BoundingBox, TrackingPair, track_pair


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

    def test_seed_flag_changes_the_stream(self, tmp_path, scene_file):
        scene = scene_file(lane_scene_doc(1, clutter_frac=1.0))
        a, b, c = (tmp_path / n for n in ("a.txt", "b.txt", "c.txt"))
        main(["synth", scene, "--out", str(a)])
        main(["synth", scene, "--out", str(b)])
        main(["synth", scene, "--out", str(c), "--seed", "99"])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


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

    def test_rows_match_track_pair(self, tmp_path, capsys):
        pairs = track_pairs(4)
        rc, out = self._track(tmp_path, frame_rows(pairs))
        assert rc == 0
        assert f"tracked 4/4 pairs -> {out}" in capsys.readouterr().out
        rows = io.read_box_annotations(out.read_bytes())
        assert rows.shape == (4, 5)
        stream, config = track_stream(), RunConfig(width=64, height=64)
        for row, pair in zip(rows, pairs):
            box = track_pair(stream, pair, config)
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
        rc = main(["bench", scene, "--runs", "3", "--geometry", "64x64"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        fields = dict(l.split() for l in lines)
        assert int(fields["events"]) > 0
        assert int(fields["runs"]) == 3
        assert float(fields["median_seconds"]) > 0
        assert float(fields["eps"]) > 0

    def test_clutter_rate_scales_event_count(self, tmp_path, scene_file, capsys):
        counts = []
        for factor, name in ((1.0, "a.yaml"), (3.0, "b.yaml")):
            doc = lane_scene_doc(1, clutter_frac=0.0)
            doc["clutter_rate"] = factor * 4000.0
            doc["motions"] = []
            scene = scene_file(doc, name)
            assert main(["bench", scene, "--runs", "3", "--geometry", "64x64"]) == 0
            lines = capsys.readouterr().out.splitlines()
            counts.append(int(dict(l.split() for l in lines)["events"]))
        # Poisson counts track the configured rates
        assert counts[1] / counts[0] == pytest.approx(3.0, rel=0.1)


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

    @pytest.mark.parametrize("flag", ["--threads", "--seed"])
    def test_removed_flags_are_rejected(self, flag):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["associate", "e", "--out", "o", flag, "2"])

    def test_bad_geometry_flag(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["associate", "e", "--out", "o", "--geometry", "big"])

    def test_unknown_config_key_fails_cleanly(self, tmp_path, capsys):
        cfg_file = tmp_path / "old.yaml"
        cfg_file.write_text(yaml.safe_dump({"run.seed": 3}))
        events = tmp_path / "events.txt"
        events.write_bytes(b"0.1 1 1 0\n")
        rc = main(["associate", str(events), "--out", str(tmp_path / "o.txt"),
                   "--config", str(cfg_file)])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err
