import contextlib
import hashlib
import inspect
import io
import json
import os
import resource
import subprocess
import sys
from dataclasses import fields, replace
from enum import Enum
from pathlib import Path

import numpy as np
import pytest

from conftest import fused_cloud
from mvlidar import cli, detector, pipeline
from mvlidar.cli import build_parser, main
from mvlidar.detector import DetectorConfig
from mvlidar.errors import ConfigError
from mvlidar.formats import (
    flatten_frames,
    read_calibration,
    read_detections,
    read_frame,
    read_trajectories,
    write_calibration,
    write_detections,
    write_frame,
    write_trajectories,
)
from mvlidar.fusion import DEFAULT_SYNC_WINDOW_S
from mvlidar.geometry import Box3D, ObjectClass, PointCloud, transform_distance
from mvlidar.pipeline import (
    PipelineConfig,
    calibrate_node,
    detect_per_frame,
    detection_half_extent,
)
from mvlidar.registration import MAX_RANSAC_ITERATIONS
from mvlidar.scene import (
    MAX_SCENE_FRAMES,
    calibration_capture,
    generate_synthetic_scene,
    standard_crossroad_spec,
)
from mvlidar.syncsim import compute_time_error_report, simulate_session
from mvlidar.tracking import TrackerConfig, TrajectorySet, track_sequence

SCENE_SEED = 13
SRC = Path(__file__).resolve().parent.parent / "src"


def write_detections_text(path, frame: str):
    """A two-line detection file whose second record has ``frame``."""
    line = ('{{"frame":{},"class":"Car","center":[0,0,0.8],'
            '"size":[4,2,1.5],"yaw":0.0,"score":0.9}}\n')
    path.write_text(line.format(0) + line.format(frame))
    return path


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """(directory, printed output) of ``make-scene`` at a non-zero seed."""
    root = tmp_path_factory.mktemp("scene")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main(["make-scene", "--out", str(root), "--frames", "3",
                     "--seed", str(SCENE_SEED)])
    assert code == 0
    return root, printed.getvalue()


@pytest.fixture(scope="module")
def scene_dir(exported):
    return exported[0]


@pytest.fixture(scope="module")
def scene():
    """The scene ``make-scene`` exported, made again in memory."""
    spec = standard_crossroad_spec(n_frames=3, seed=SCENE_SEED)
    return generate_synthetic_scene(spec, seed=SCENE_SEED)


def printed_option(printed: str, name: str) -> str:
    """The ``--name=value`` token that ``make-scene`` printed."""
    [token] = [t.rstrip(";") for t in printed.split()
               if t.startswith(f"--{name}=")]
    return token


def frames_of(directory) -> list:
    return [read_frame(path) for path in sorted(directory.glob("*.mvlc"))]


class TestMakeSceneAndCalibrate:
    def test_layout_written(self, scene_dir):
        assert (scene_dir / "reference.mvlc").exists()
        assert (scene_dir / "annotations.jsonl").exists()
        assert (scene_dir / "gt_trajectories.jsonl").exists()
        assert (scene_dir / "node_0" / "frame_00000.mvlc").exists()
        assert (scene_dir / "calib" / "node_0" / "frame_00000.mvlc").exists()

    def test_calibrate_recovers_ground_truth(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "calibration.jsonl"
        code = main(["calibrate", "--node-root", str(scene_dir / "calib"),
                     "--reference", str(scene_dir / "reference.mvlc"),
                     "--out", str(out), "--seed", "13"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "fitness" in printed
        recovered = read_calibration(out)
        truth = read_calibration(scene_dir / "gt_calibration.jsonl")
        assert sorted(recovered) == sorted(truth)
        for node in truth:
            rot_err, tra_err = transform_distance(recovered[node], truth[node])
            assert rot_err < 1.0
            assert tra_err < 0.05

    def test_zero_merge_duration_is_valid(self, scene_dir, tmp_path):
        code = main(["calibrate", "--node-root", str(scene_dir / "calib"),
                     "--reference", str(scene_dir / "reference.mvlc"),
                     "--out", str(tmp_path / "calibration.jsonl"),
                     "--merge-duration=0"])
        assert code == 0

    def test_calibrate_failure_exit_code(self, scene_dir, tmp_path, rng):
        bogus = tmp_path / "bogus.mvlc"
        write_frame(bogus, PointCloud(
            rng.uniform(-30, 30, size=(20000, 3)).astype(np.float32)))
        code = main(["calibrate", "--node-root", str(scene_dir / "calib"),
                     "--reference", str(bogus),
                     "--out", str(tmp_path / "none.jsonl")])
        assert code == 3


class TestChainReproducesPipelineCalls:
    """Each stage subcommand writes what the call ``run_pipeline`` makes
    writes, run on the clouds the subcommand reads back from disk."""

    def test_make_scene_prints_the_pipeline_inputs(self, exported, scene):
        printed = exported[1]
        viewpoint = printed_option(printed, "reference-viewpoint")
        assert tuple(float(v) for v in viewpoint.split("=")[1].split(",")) \
            == tuple(float(v) for v in scene.reference_viewpoint)
        crop = printed_option(printed, "crop")
        assert float(crop.split("=")[1]) == detection_half_extent(scene.spec)

    def test_calibration_captures_use_the_scene_seed(self, scene_dir, scene):
        for node in sorted(scene.node_frames):
            exported = frames_of(scene_dir / "calib" / f"node_{node}")
            expected = calibration_capture(scene, node, seed=SCENE_SEED)
            assert len(exported) == len(expected)
            for got, want in zip(exported, expected):
                np.testing.assert_array_equal(
                    got.points, want.points.astype(np.float32).astype(float))

    def test_calibrate(self, exported, scene, tmp_path):
        root, printed = exported
        out = tmp_path / "calibration.jsonl"
        assert main(["calibrate", "--node-root", str(root / "calib"),
                     "--reference", str(root / "reference.mvlc"),
                     "--out", str(out), "--seed", str(SCENE_SEED),
                     printed_option(printed, "reference-viewpoint")]) == 0
        cfg = PipelineConfig(seed=SCENE_SEED)
        reference = read_frame(root / "reference.mvlc")
        expected = {node: calibrate_node(
            frames_of(root / "calib" / f"node_{node}"), reference,
            cfg.hierarchy, seed=cfg.seed + node,
            reference_viewpoint=scene.reference_viewpoint).transform
            for node in sorted(scene.node_frames)}
        write_calibration(tmp_path / "expected.jsonl", expected)
        assert out.read_bytes() == (tmp_path / "expected.jsonl").read_bytes()

    def test_fuse_detect_track(self, exported, scene, tmp_path):
        root, printed = exported
        fused_dir = tmp_path / "fused"
        assert main(["fuse", "--calib", str(root / "gt_calibration.jsonl"),
                     "--frames", str(root), "--out", str(fused_dir)]) == 0
        assert main(["detect", "--frames", str(fused_dir),
                     "--out", str(tmp_path / "det.jsonl"),
                     "--background", str(root / "reference.mvlc"),
                     printed_option(printed, "crop")]) == 0
        assert main(["track", "--detections", str(tmp_path / "det.jsonl"),
                     "--out", str(tmp_path / "traj.jsonl")]) == 0

        cfg, spec = PipelineConfig(), scene.spec
        extrinsics = read_calibration(root / "gt_calibration.jsonl")
        per_node = {node: frames_of(root / f"node_{node}") for node in range(4)}
        for frame, path in enumerate(sorted(fused_dir.glob("*.mvlc"))):
            write_frame(tmp_path / "expected.mvlc", fused_cloud(
                per_node, extrinsics, sorted(per_node), frame))
            assert path.read_bytes() == \
                (tmp_path / "expected.mvlc").read_bytes()
        boxes_per_frame = detect_per_frame(
            frames_of(fused_dir), cfg.detector,
            background=read_frame(root / "reference.mvlc"),
            crop_half_extent=detection_half_extent(spec))
        assert any(boxes_per_frame)
        write_detections(tmp_path / "expected_det.jsonl",
                         flatten_frames(boxes_per_frame))
        assert (tmp_path / "det.jsonl").read_bytes() == \
            (tmp_path / "expected_det.jsonl").read_bytes()
        write_trajectories(tmp_path / "expected_traj.jsonl", track_sequence(
            boxes_per_frame, cfg.tracker, frame_dt=1.0 / spec.frame_rate_hz))
        assert (tmp_path / "traj.jsonl").read_bytes() == \
            (tmp_path / "expected_traj.jsonl").read_bytes()

    def test_sync_sim(self, tmp_path):
        out = tmp_path / "sync.json"
        assert main(["sync-sim", "--seed", "5", "--out", str(out)]) == 0
        report = compute_time_error_report(
            simulate_session(PipelineConfig(seed=5).sync))
        payload = json.loads(out.read_text())
        assert payload.pop("errors_s") == report.errors_s.tolist()
        assert payload == report.summary()

    def test_pipeline_seed_option_equals_config_seed(self, tmp_path,
                                                     monkeypatch):
        configs, digests = [], []

        def record(cfg, output_dir, config_sha256):
            configs.append(cfg)
            digests.append(config_sha256)
            (tmp_path / "report.txt").write_text("")
            return {"outputs": []}

        monkeypatch.setattr("mvlidar.cli.run_pipeline", record)
        (tmp_path / "cfg.json").write_text('{"seed": 5}')
        for argv in (["--seed", "5"], ["--config", str(tmp_path / "cfg.json")]):
            assert main(["pipeline", "--out-dir", str(tmp_path)] + argv) == 0
        assert configs[0] == configs[1]
        assert configs[0].sync.seed == 5
        assert digests == [None, hashlib.sha256(b'{"seed": 5}').hexdigest()]


class TestStageDefaults:
    """Every stage option defaults to the definition the pipeline uses."""

    def parse(self, *argv):
        return vars(build_parser().parse_args(list(argv)))

    def test_calibrate(self):
        args = self.parse("calibrate", "--node-root", "n", "--reference", "r",
                          "--out", "o")
        signature = inspect.signature(calibrate_node).parameters
        assert args["seed"] == PipelineConfig().seed
        assert args["merge_duration"] == signature["merge_duration_s"].default
        assert args["reference_viewpoint"] == \
            signature["reference_viewpoint"].default
        assert args["config"] is None

    def test_sync_sim(self):
        args = self.parse("sync-sim")
        sync = PipelineConfig().sync
        assert (args["nodes"], args["duration"], args["frame_rate"],
                args["delay_min"], args["delay_max"], args["drop"],
                args["seed"]) == (sync.node_count, sync.duration_s,
                                  sync.frame_rate_hz, sync.network.delay_min_s,
                                  sync.network.delay_max_s,
                                  sync.network.drop_probability, sync.seed)

    def test_fuse(self):
        args = self.parse("fuse", "--calib", "c", "--frames", "f", "--out", "o")
        assert args["sync_window"] == DEFAULT_SYNC_WINDOW_S

    def test_detect(self):
        args = self.parse("detect", "--frames", "f", "--out", "o")
        assert args["seed"] == PipelineConfig().detector.seed
        assert args["background"] is None and args["crop"] is None

    def test_track(self):
        args = self.parse("track", "--detections", "d", "--out", "o")
        tracker = PipelineConfig().tracker
        assert (args["threshold"], args["min_hits"], args["max_age"]) == \
            (tracker.threshold, tracker.min_hits, tracker.max_age)
        spec = standard_crossroad_spec(n_frames=1)
        assert args["frame_dt"] == 1.0 / spec.frame_rate_hz

    def test_eval(self):
        args = self.parse("eval-det", "--detections", "d",
                          "--ground-truth", "g")
        assert args["iou_threshold"] is None
        args = self.parse("eval-mot", "--hypotheses", "h",
                          "--ground-truth", "g")
        assert args["threshold"] == PipelineConfig().eval_mot.threshold


def changed(value):
    """A valid JSON value other than a setting's default ``value``."""
    if isinstance(value, Enum):
        return next(m.value for m in type(value) if m is not value)
    return value + 1 if isinstance(value, int) else 2.0 * value


def test_every_detector_and_tracker_setting_is_reachable():
    """Each field is a key of its pipeline-config section, or a mvlidar
    option sets it; a setting that nothing sets is a constant instead."""
    options = {("detector", "seed"): ("detect", "--frames", "f", "--out",
                                      "o", "--seed")}
    unreachable = []
    for section, config in (("detector", DetectorConfig),
                            ("tracker", TrackerConfig)):
        for name in (f.name for f in fields(config)):
            value = changed(getattr(getattr(PipelineConfig(), section), name))
            if (section, name) in options:
                argv = [*options[section, name], str(value)]
                reached = vars(build_parser().parse_args(argv))[name]
            else:
                try:
                    parsed = PipelineConfig.from_dict({section: {name: value}})
                except ConfigError:
                    unreachable.append(f"{section}.{name}")
                    continue
                reached = getattr(getattr(parsed, section), name)
            if reached != value:
                unreachable.append(f"{section}.{name}")
    assert not unreachable


class TestFuseDetectTrack:
    def test_fuse_writes_per_frame_clouds(self, scene_dir, tmp_path):
        fused = tmp_path / "fused"
        code = main(["fuse",
                     "--calib", str(scene_dir / "gt_calibration.jsonl"),
                     "--frames", str(scene_dir), "--out", str(fused)])
        assert code == 0
        frames = sorted(fused.glob("frame_*.mvlc"))
        assert len(frames) == 3
        merged = read_frame(frames[0])
        per_node = sum(len(read_frame(scene_dir / f"node_{n}"
                                      / "frame_00000.mvlc")) for n in range(4))
        assert len(merged) == per_node
        assert merged.source_ids is not None

    def test_detect_and_track_round_trip(self, scene_dir, tmp_path):
        fused = tmp_path / "fused"
        main(["fuse", "--calib", str(scene_dir / "gt_calibration.jsonl"),
              "--frames", str(scene_dir), "--out", str(fused)])
        detections = tmp_path / "det.jsonl"
        code = main(["detect", "--frames", str(fused),
                     "--out", str(detections)])
        assert code == 0
        assert detections.exists()
        trajectories = tmp_path / "traj.jsonl"
        code = main(["track", "--detections", str(detections),
                     "--out", str(trajectories), "--min-hits", "1"])
        assert code == 0
        assert trajectories.exists()


def dense_by_frame(detections) -> list:
    """One box list per frame up to the last frame with a box."""
    per_frame = [[] for _ in range(max(f for f, _ in detections) + 1)]
    for frame, box in detections:
        per_frame[frame].append(box)
    return per_frame


class TestTrackFrameGaps:
    """``track`` shortens every run of empty frames in which all tracks die
    and keeps the real frame numbers."""

    MAX_AGE = PipelineConfig().tracker.max_age

    @staticmethod
    def walkers(first_frames) -> list:
        """Two pedestrians seen for 5 frames from each of ``first_frames``."""
        detections = []
        for first in first_frames:
            for frame in range(first, first + 5):
                for x0, y, speed in ((-2.0, 0.0, 0.1), (2.0, 3.0, -0.08)):
                    detections.append((frame, Box3D(
                        (x0 + speed * frame, y, 0.85), (0.6, 0.6, 1.7), 0.0,
                        ObjectClass.PEDESTRIAN, score=0.9)))
        return detections

    @pytest.mark.parametrize("extra", [1, 2, 3, 5])
    def test_equals_the_dense_run(self, tmp_path, extra):
        # from each segment's last frame to the next one's first
        step = self.MAX_AGE + extra
        detections = self.walkers([3, 7 + step, 11 + 2 * step])
        write_detections(tmp_path / "det.jsonl", detections)
        out = tmp_path / "traj.jsonl"
        assert main(["track", "--detections", str(tmp_path / "det.jsonl"),
                     "--out", str(out), "--frame-dt", "0.1"]) == 0
        dense = track_sequence(dense_by_frame(detections),
                               PipelineConfig().tracker, frame_dt=0.1)
        write_trajectories(tmp_path / "dense.jsonl", dense)
        assert out.read_bytes() == (tmp_path / "dense.jsonl").read_bytes()
        # tracks outlive a gap they can bridge and die in a longer one
        assert len(dense) == (2 if step <= self.MAX_AGE + 1 else 6)

    def test_huge_frame_index(self, tmp_path):
        """Frames 0, 1 and 10**12 track at once; a dense per-frame list
        would exhaust the subprocess's 1 GiB address space instead."""
        box = Box3D((0.0, 0.0, 0.85), (0.6, 0.6, 1.7), 0.0,
                    ObjectClass.PEDESTRIAN, score=0.9)
        write_detections(tmp_path / "det.jsonl",
                         [(0, box), (1, box), (10**12, box)])
        out = tmp_path / "traj.jsonl"
        limit = 1 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "mvlidar.cli", "track", "--detections",
             str(tmp_path / "det.jsonl"), "--out", str(out),
             "--min-hits", "1"],
            env={**os.environ, "PYTHONPATH": str(SRC),
                 "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (limit, limit)),
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        tracks = read_trajectories(out)
        assert sorted(tracks.frames()) == [0, 1, 10**12]
        assert [[f for f, _ in entries] for entries in tracks.tracks.values()] \
            == [[0, 1], [10**12]]


    def test_huge_max_age_exit_4(self, tmp_path):
        """A max age that keeps a 10**12-frame gap is refused before the
        tracker allocates its timeline, which would exhaust the
        subprocess's 1 GiB address space."""
        detections = write_detections_text(tmp_path / "det.jsonl",
                                           str(10**12))
        out = tmp_path / "traj.jsonl"
        limit = 1 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "mvlidar.cli", "track", "--detections",
             str(detections), "--out", str(out), "--max-age", str(10**12)],
            env={**os.environ, "PYTHONPATH": str(SRC),
                 "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (limit, limit)),
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith("error: tracking would step through ")
        assert f"max_age + 2 = {10**12 + 2} frames" in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert not out.exists()


class TestEval:
    def test_eval_mot_identity_prints_perfect_score(self, tmp_path, capsys):
        boxes = [(f, Box3D((0.5 * f, 0.0, 0.8), (0.6, 0.6, 1.7), 0.0,
                           ObjectClass.PEDESTRIAN, track_id=1))
                 for f in range(6)]
        trajectories = TrajectorySet({1: boxes})
        gt = tmp_path / "gt.jsonl"
        hyp = tmp_path / "hyp.jsonl"
        write_trajectories(gt, trajectories)
        write_trajectories(hyp, trajectories)
        out = tmp_path / "mot.json"
        code = main(["eval-mot", "--hypotheses", str(hyp),
                     "--ground-truth", str(gt), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "1.0000" in printed
        report = json.loads(out.read_text())
        assert report["mota"] == 1.0
        assert report["ids"] == 0

    def test_eval_det_writes_ap(self, tmp_path):
        gt_boxes = [(0, Box3D((0, 0, 0.8), (4.0, 2.0, 1.5), 0.0,
                              ObjectClass.CAR, track_id=3))]
        det_boxes = [(0, Box3D((0.1, 0, 0.8), (4.0, 2.0, 1.5), 0.0,
                               ObjectClass.CAR, score=0.9))]
        gt = tmp_path / "gt.jsonl"
        det = tmp_path / "det.jsonl"
        write_detections(gt, gt_boxes)
        write_detections(det, det_boxes)
        out = tmp_path / "ap.json"
        code = main(["eval-det", "--detections", str(det),
                     "--ground-truth", str(gt), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["Car"] == 1.0

    def test_eval_det_empty_ground_truth_exit_3(self, tmp_path, capsys):
        det = tmp_path / "det.jsonl"
        write_detections(det, [(0, Box3D((0, 0, 0.8), (4.0, 2.0, 1.5), 0.0,
                                         ObjectClass.CAR, score=0.9))])
        gt = tmp_path / "gt.jsonl"
        gt.write_text("")
        out = tmp_path / "ap.json"
        code = main(["eval-det", "--detections", str(det),
                     "--ground-truth", str(gt), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr() == ("", "error: ground truth is empty\n")
        assert not out.exists()


class TestErrorsAndConversion:
    def test_bad_frame_file_exit_2(self, tmp_path):
        bad = tmp_path / "bad.mvlc"
        bad.write_bytes(b"NOPE" + bytes(64))
        code = main(["convert", str(bad), str(tmp_path / "out.xyz")])
        assert code == 2

    @pytest.mark.parametrize("line", ["0 0 abc", "0 nan 0"])
    def test_bad_xyz_value_exit_2(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.xyz"
        bad.write_text(f"1 2 3\n{line}\n")
        code = main(["convert", str(bad), str(tmp_path / "out.mvlc")])
        assert code == 2
        assert capsys.readouterr().err == "error: line 2: " + (
            "non-numeric field\n" if "abc" in line
            else "values must be finite\n")
        assert not (tmp_path / "out.mvlc").exists()

    @pytest.mark.parametrize("frame", ["-1", "2.7", '"x"'])
    def test_bad_frame_index_exit_2(self, tmp_path, capsys, frame):
        good = write_detections_text(tmp_path / "good.jsonl", "0")
        bad = write_detections_text(tmp_path / "bad.jsonl", frame)
        out = tmp_path / "out.json"
        message = (f"error: line 2: frame must be a non-negative integer, "
                   f"got {json.loads(frame)!r}\n")
        for argv in (
                ["track", "--detections", str(bad), "--out", str(out)],
                ["eval-det", "--detections", str(bad),
                 "--ground-truth", str(good), "--out", str(out)],
                ["eval-det", "--detections", str(good),
                 "--ground-truth", str(bad), "--out", str(out)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("yaw", "1.5"), ("yaw", "abc"), ("yaw", True), ("score", "0.5"),
        ("center", [0, "0", 0.8]), ("size", [4, None, 1.5])])
    def test_bad_box_number_exit_2(self, tmp_path, capsys, key, value):
        record = {"frame": 0, "class": "Car", "center": [0, 0, 0.8],
                  "size": [4, 2, 1.5], "yaw": 0.0, "score": 0.9}
        good = tmp_path / "good.jsonl"
        good.write_text(json.dumps(record) + "\n")
        bad = tmp_path / "bad.jsonl"
        bad.write_text(good.read_text()
                       + json.dumps({**record, key: value}) + "\n")
        shown = value[1] if isinstance(value, list) else value
        message = (f"error: line 2: {key} must be a finite number, "
                   f"got {shown!r}\n")
        for argv in (
                ["track", "--detections", str(bad), "--out", str(tmp_path / "t")],
                ["eval-det", "--detections", str(good),
                 "--ground-truth", str(bad)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == message

    @pytest.mark.parametrize("node_id", ["1.9", '"x"', "-1", "true"])
    def test_bad_node_id_exit_2(self, scene_dir, tmp_path, capsys, node_id):
        calib = tmp_path / "calib.jsonl"
        calib.write_text(f'{{"node_id":{node_id},"rotation":[1,0,0,0,1,0,0,0,1],'
                         f'"translation":[0,0,0]}}\n')
        assert main(["fuse", "--calib", str(calib), "--frames", str(scene_dir),
                     "--out", str(tmp_path / "fused")]) == 2
        assert capsys.readouterr().err == (
            f"error: line 1: node_id must be a non-negative integer, "
            f"got {json.loads(node_id)!r}\n")
        assert not (tmp_path / "fused").exists()

    @pytest.mark.parametrize("skewed", [0, 2])
    def test_timestamp_skew_exit_3_before_writing(self, scene_dir, tmp_path,
                                                  capsys, skewed):
        """A frame whose nodes are out of sync, the first or the last of 3,
        fails in one line before the output directory is made."""
        root = tmp_path / "scene"
        for node in range(4):
            (root / f"node_{node}").mkdir(parents=True)
            for frame, path in enumerate(
                    sorted((scene_dir / f"node_{node}").glob("*.mvlc"))):
                cloud = read_frame(path)
                if (node, frame) == (1, skewed):
                    cloud = replace(cloud,
                                    timestamp_ns=cloud.timestamp_ns + 50_000_000)
                write_frame(root / f"node_{node}" / path.name, cloud)
        assert main(["fuse", "--calib", str(scene_dir / "gt_calibration.jsonl"),
                     "--frames", str(root), "--out", str(tmp_path / "fused")]) == 3
        assert capsys.readouterr().err == (
            "error: frame timestamps spread over 50.000 ms, "
            "window is 5.000 ms\n")
        assert not (tmp_path / "fused").exists()

    def test_bad_track_id_exit_2(self, tmp_path, capsys):
        good = tmp_path / "good.jsonl"
        write_trajectories(good, TrajectorySet({1: [(0, Box3D(
            (0.0, 0.0, 0.8), (0.6, 0.6, 1.7), 0.0, ObjectClass.PEDESTRIAN,
            track_id=1))]}))
        bad = tmp_path / "bad.jsonl"
        bad.write_text(good.read_text().replace('"track_id":1',
                                                '"track_id":-4'))
        assert main(["eval-mot", "--hypotheses", str(bad),
                     "--ground-truth", str(good)]) == 2
        assert capsys.readouterr().err == (
            "error: line 1: track_id must be a non-negative integer, "
            "got -4\n")

    def test_missing_file_exit_2(self, tmp_path):
        code = main(["detect", "--frames", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "out.jsonl")])
        assert code == 2

    @pytest.fixture
    def one_frame(self, scene_dir, tmp_path):
        """A frames directory holding node 0's first frame."""
        frames = tmp_path / "frames"
        frames.mkdir()
        write_frame(frames / "frame_00000.mvlc",
                    read_frame(scene_dir / "node_0" / "frame_00000.mvlc"))
        return frames

    def test_empty_background_exit_2(self, one_frame, tmp_path, capsys):
        # subtracting nothing, it once let ground-sized boxes through
        empty = tmp_path / "empty.mvlc"
        write_frame(empty, PointCloud.empty())
        out = tmp_path / "det.jsonl"
        assert main(["detect", "--frames", str(one_frame), "--out", str(out),
                     "--background", str(empty), "--crop", "13.2"]) == 2
        assert capsys.readouterr().err == (
            "error: background scan holds no points within 0.5 m of the "
            "detection square |x|, |y| <= 13.2\n")
        assert not out.exists()

    def test_background_empty_after_its_crop_exit_2(self, one_frame,
                                                    tmp_path, capsys):
        # it holds a point, but none the crop keeps
        far = tmp_path / "far.mvlc"
        write_frame(far, PointCloud([[100.0, 100.0, 0.0]]))
        out = tmp_path / "det.jsonl"
        assert main(["detect", "--frames", str(one_frame), "--out", str(out),
                     "--background", str(far), "--crop", "13.2"]) == 2
        assert capsys.readouterr().err == (
            "error: background scan holds no points within 0.5 m of the "
            "detection square |x|, |y| <= 13.2\n")
        assert not out.exists()

    def test_too_many_cluster_pairs_exit_3(self, one_frame, tmp_path, capsys,
                                           monkeypatch):
        # a background far off subtracts nothing and turns ground removal off
        far = tmp_path / "far.mvlc"
        write_frame(far, PointCloud([[1e4, 1e4, 0.0]]))
        monkeypatch.setattr(detector, "MAX_CLUSTER_PAIRS", 1000)
        out = tmp_path / "det.jsonl"
        assert main(["detect", "--frames", str(one_frame), "--out", str(out),
                     "--background", str(far)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: clustering ")
        assert err.endswith("(detect --crop)\n") and err.count("\n") == 1
        assert not out.exists()

    def test_bad_config_exit_4(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"scnee": {}}')
        code = main(["pipeline", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 4

    @pytest.mark.parametrize("raw", [
        {"scene": {"frames": "many"}},
        {"tracker": {"metric": "bogus"}},
        {"detector": {"cluster_distance": -1}},
        {"seed": 1.9},
        {"scene": {"frames": -3}},
        {"detector": {"cluster_distance": 0}},
        {"tracker": {"max_age": -1}},
        {"scene": {"extent": -1.0}},
    ])
    def test_bad_config_value_exit_4(self, tmp_path, capsys, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        code = main(["pipeline", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("ground_distance_threshold", 0.15), ("ransac_ground_iterations", 200),
        ("seed", 0)])
    def test_ground_removal_key_exit_4(self, tmp_path, capsys, key, value):
        """Every pipeline pass subtracts the background, which turns ground
        removal off, so a key that steers it would change nothing."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"detector": {key: value}}))
        code = main(["pipeline", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 4
        assert capsys.readouterr().err == \
            f"error: unknown keys in detector: ['{key}']\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("tracker", "metric", "iou_3d"), ("eval_mot", "metric", "iou_3d"),
        ("eval_mot", "prefer_previous_match", True)])
    def test_removed_matching_key_exit_4(self, tmp_path, capsys, section,
                                         key, value):
        """Tracking and CLEAR both match by 3D IoU alone, and CLEAR always
        keeps the previous frame's matches: no key chooses otherwise."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        code = main(["pipeline", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 4
        assert capsys.readouterr().err == \
            f"error: unknown keys in {section}: ['{key}']\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("detector", "min_cluster_points", 15),
        ("detector", "score_points_scale", 200.0),
        ("tracker", "process_noise", 0.2),
        ("tracker", "measurement_noise", 0.01),
        ("hierarchy", "convergence_epsilon", 1e-6),
        ("hierarchy", "min_normal_neighbors", 5),
        ("hierarchy", "edge_length_ratio", 0.9)])
    def test_removed_tuning_key_exit_4(self, tmp_path, capsys, section, key,
                                       value):
        """These values are module constants that no caller set, so a
        key that sets one, even to its value, is refused."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        code = main(["pipeline", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 4
        assert capsys.readouterr().err == \
            f"error: unknown keys in {section}: ['{key}']\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["eval-det", "--detections", "missing.jsonl", "--ground-truth",
         "missing.jsonl", "--iou-threshold", "2"],
        ["eval-mot", "--hypotheses", "missing.jsonl", "--ground-truth",
         "missing.jsonl", "--threshold", "2"],
        ["track", "--detections", "missing.jsonl", "--out", "out.jsonl",
         "--threshold", "2"]])
    def test_bad_threshold_exit_4_before_reading(self, tmp_path, capsys,
                                                 argv):
        """Each command builds its config before it reads its inputs, so a
        bad setting exits 4 even when an input file is missing."""
        code = main([str(tmp_path / arg) if arg.endswith(".jsonl") else arg
                     for arg in argv])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "threshold" in err

    @pytest.mark.parametrize("argv, message", [
        (["fuse", "--calib", "missing.jsonl", "--frames", "missing",
          "--out", "fused", "--sync-window", "-1"],
         "sync_window_s must be a finite number >= 0, got -1.0"),
        (["fuse", "--calib", "missing.jsonl", "--frames", "missing",
          "--out", "fused", "--sync-window", "nan"],
         "sync_window_s must be a finite number >= 0, got nan"),
        (["track", "--detections", "missing.jsonl", "--out", "fused",
          "--frame-dt", "nan"],
         "frame_dt must be a finite number in (0, 3600.0], got nan"),
        (["track", "--detections", "missing.jsonl", "--out", "fused",
          "--frame-dt", "0"],
         "frame_dt must be a finite number in (0, 3600.0], got 0.0"),
        (["track", "--detections", "missing.jsonl", "--out", "fused",
          "--min-hits", "-1"],
         "min_hits must be an integer >= 1, got -1")])
    def test_bad_value_exit_4_before_reading(self, tmp_path, capsys, argv,
                                             message):
        """``fuse`` and ``track`` check their values before they read
        their inputs: a bad value exits 4 in one line even when the inputs
        are missing, and nothing is written."""
        code = main([str(tmp_path / arg) if arg in ("missing.jsonl",
                                                    "missing", "fused")
                     else arg for arg in argv])
        assert code == 4
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "fused").exists()

    def test_bad_calibrate_config_exit_4(self, scene_dir, tmp_path, capsys):
        cfg = tmp_path / "hierarchy.json"
        cfg.write_text('{"levels": [[1.0, 2.0]]}')
        code = main(["calibrate", "--node-root", str(scene_dir / "calib"),
                     "--reference", str(scene_dir / "reference.mvlc"),
                     "--out", str(tmp_path / "none.jsonl"),
                     "--config", str(cfg)])
        assert code == 4
        assert capsys.readouterr().err.startswith("error: hierarchy: ")

    @pytest.mark.parametrize("key, value", [
        ("convergence_epsilon", 1e-6), ("min_normal_neighbors", 5),
        ("edge_length_ratio", 0.9)])
    def test_removed_hierarchy_key_exit_4(self, scene_dir, tmp_path, capsys,
                                          key, value):
        cfg = tmp_path / "hierarchy.json"
        cfg.write_text(json.dumps({key: value}))
        code = main(["calibrate", "--node-root", str(scene_dir / "calib"),
                     "--reference", str(scene_dir / "reference.mvlc"),
                     "--out", str(tmp_path / "none.jsonl"),
                     "--config", str(cfg)])
        assert code == 4
        assert capsys.readouterr().err == \
            f"error: unknown keys in hierarchy: ['{key}']\n"
        assert not (tmp_path / "none.jsonl").exists()

    @pytest.mark.parametrize("raw", [
        {"ransac_iterations": -5},
        {"ransac_iterations": 0},
        {"arbitration_hypotheses": 0},
        {"levels": [[1.0, 0.0, 40]]},
        {"levels": [[1.0, 2.0, 40], [0.4, 0.8, 0]]},
        {"fpfh_radius": 0.0},
        {"normal_radius": -1.0},
        {"ransac_inlier_threshold": 0.0},
        {"ransac_iterations": 1_000_001},
    ])
    def test_unusable_hierarchy_value_exit_4(self, scene_dir, tmp_path,
                                             capsys, raw):
        """Registration cannot run with these, or would run as if they
        were another value; both entry points refuse them in one line."""
        cfg = tmp_path / "hierarchy.json"
        cfg.write_text(json.dumps(raw))
        code = main(["calibrate", "--node-root", str(scene_dir / "calib"),
                     "--reference", str(scene_dir / "reference.mvlc"),
                     "--out", str(tmp_path / "none.jsonl"),
                     "--config", str(cfg)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: hierarchy.") and err.count("\n") == 1
        assert not (tmp_path / "none.jsonl").exists()

        cfg.write_text(json.dumps({"hierarchy": raw}))
        code = main(["pipeline", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 4
        assert capsys.readouterr().err == err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("duration", ["-1", "nan", "inf"])
    def test_bad_merge_duration_exit_4(self, scene_dir, tmp_path, capsys,
                                       duration):
        code = main(["calibrate", "--node-root", str(scene_dir / "calib"),
                     "--reference", str(scene_dir / "reference.mvlc"),
                     "--out", str(tmp_path / "none.jsonl"),
                     f"--merge-duration={duration}"])
        assert code == 4
        assert capsys.readouterr().err == (
            f"error: --merge-duration must be a finite number >= 0, "
            f"got {float(duration)}\n")
        assert not (tmp_path / "none.jsonl").exists()

    def test_too_many_ransac_iterations_exit_4(self, scene_dir, tmp_path,
                                               capsys):
        """RANSAC draws every trial at once: a billion would need 22 GiB."""
        iterations = MAX_RANSAC_ITERATIONS * 1000
        message = (f"error: hierarchy.ransac_iterations must be an integer "
                   f"in [1, {MAX_RANSAC_ITERATIONS}], got {iterations}\n")
        cfg = tmp_path / "hierarchy.json"
        cfg.write_text(json.dumps({"ransac_iterations": iterations}))
        assert main(["calibrate", "--node-root", str(scene_dir / "calib"),
                     "--reference", str(scene_dir / "reference.mvlc"),
                     "--out", str(tmp_path / "none.jsonl"),
                     "--config", str(cfg)]) == 4
        assert capsys.readouterr().err == message
        assert not (tmp_path / "none.jsonl").exists()

        cfg.write_text(json.dumps(
            {"hierarchy": {"ransac_iterations": iterations}}))
        assert main(["pipeline", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("viewpoint", ["nan,0,0", "inf,0,2", "0,0,-inf"])
    def test_non_finite_reference_viewpoint_exit_4(self, scene_dir, tmp_path,
                                                   capsys, viewpoint):
        out = tmp_path / "none.jsonl"
        assert main(["calibrate", "--node-root", str(scene_dir / "calib"),
                     "--reference", str(scene_dir / "reference.mvlc"),
                     "--out", str(out),
                     f"--reference-viewpoint={viewpoint}"]) == 4
        bad = next(v for v in viewpoint.split(",") if v not in ("0", "2"))
        assert capsys.readouterr().err == (
            f"error: --reference-viewpoint must be a finite number, "
            f"got {float(bad)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("viewpoint", ["1,2", "1,2,3,4", "a,b,c", ""])
    def test_reference_viewpoint_not_three_numbers_exit_2(
            self, scene_dir, tmp_path, capsys, viewpoint):
        out = tmp_path / "none.jsonl"
        with pytest.raises(SystemExit) as exited:
            main(["calibrate", "--node-root", str(scene_dir / "calib"),
                  "--reference", str(scene_dir / "reference.mvlc"),
                  "--out", str(out), f"--reference-viewpoint={viewpoint}"])
        assert exited.value.code == 2
        assert f"expected X,Y,Z, got {viewpoint!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["calibrate", "detect", "sync-sim",
                                         "pipeline", "make-scene"])
    def test_negative_seed_exit_4(self, scene_dir, tmp_path, capsys,
                                  command):
        out = tmp_path / "out"
        argv = {"calibrate": ["--node-root", str(scene_dir / "calib"),
                              "--reference", str(scene_dir / "reference.mvlc"),
                              "--out", str(out)],
                "detect": ["--frames", str(scene_dir / "node_0"),
                           "--out", str(out)],
                "sync-sim": ["--out", str(out)],
                "pipeline": ["--out-dir", str(out)],
                "make-scene": ["--frames", "1", "--out", str(out)]}[command]
        assert main([command, *argv, "--seed", "-1"]) == 4
        assert capsys.readouterr().err == \
            "error: --seed must be an integer >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["make-scene", "pipeline"])
    def test_scene_longer_than_the_bound_exit_4(self, tmp_path, capsys,
                                                monkeypatch, command):
        def render(*args, **kwargs):
            raise AssertionError("the scene was rendered")

        monkeypatch.setattr(cli, "generate_synthetic_scene", render)
        monkeypatch.setattr(pipeline, "generate_synthetic_scene", render)
        frames = MAX_SCENE_FRAMES + 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scene": {"frames": frames}}))
        out = tmp_path / "out"
        argv, setting = {
            "make-scene": (["--frames", str(frames), "--out", str(out)],
                           "n_frames"),
            "pipeline": (["--config", str(cfg), "--out-dir", str(out)],
                         "scene_frames")}[command]
        assert main([command, *argv]) == 4
        assert capsys.readouterr().err == (
            f"error: {setting} must be an integer in "
            f"[1, {MAX_SCENE_FRAMES}], got {frames}\n")
        assert not out.exists()

    @pytest.mark.parametrize("rows", ["0", "-3"])
    def test_bad_max_rows_exit_4(self, tmp_path, capsys, rows):
        out = tmp_path / "sync.json"
        assert main(["sync-sim", "--duration", "1.0", "--out", str(out),
                     "--max-rows", rows]) == 4
        captured = capsys.readouterr()
        assert captured.err == \
            f"error: --max-rows must be an integer >= 1, got {rows}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("crop", ["nan", "0", "-1"])
    def test_bad_crop_exit_4(self, scene_dir, tmp_path, capsys, crop):
        out = tmp_path / "det.jsonl"
        assert main(["detect", "--frames", str(scene_dir / "node_0"),
                     "--out", str(out), f"--crop={crop}"]) == 4
        assert capsys.readouterr().err == (
            f"error: --crop must be a finite number > 0, got {float(crop)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["sync-sim", "--frame-rate", "nan"],
         "frame_rate_hz must be a finite number > 0, got nan"),
        (["sync-sim", "--frame-rate", "1e-300"],
         "duration_s * frame_rate_hz must be a finite number in "
         "[1, 1000000], got 1e-299"),
        (["sync-sim", "--duration", "inf"],
         "duration_s must be a finite number in (0, 1000000.0], got inf"),
        (["sync-sim", "--duration", "1e308"],
         "duration_s must be a finite number in (0, 1000000.0], "
         "got 1e+308"),
        (["sync-sim", "--delay-max", "1e308"],
         "delay_max_s must be a finite number in [0, 1000000.0], "
         "got 1e+308"),
        (["track", "--frame-dt", "nan"],
         "frame_dt must be a finite number in (0, 3600.0], got nan"),
        (["track", "--frame-dt", "0"],
         "frame_dt must be a finite number in (0, 3600.0], got 0.0"),
        (["track", "--frame-dt", "1e308"],
         "frame_dt must be a finite number in (0, 3600.0], got 1e+308"),
        (["track", "--threshold", "nan"],
         "threshold must be a finite number in (0, 1], got nan"),
    ])
    def test_bad_setting_exit_4(self, tmp_path, capsys, argv, message):
        """A non-finite or huge value is refused by the class that owns
        the setting, in one line that names it, before any output."""
        out = tmp_path / "out.json"
        if argv[0] == "track":
            argv = argv + ["--detections", str(write_detections_text(
                tmp_path / "det.jsonl", "1"))]
        assert main(argv + ["--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("window", ["nan", "-1"])
    def test_bad_sync_window_exit_4(self, scene_dir, tmp_path, capsys,
                                    window):
        """NaN would switch the skew check off, and a negative window
        is a setting, not a skew. The window is checked before the inputs
        are read, so no output directory is made."""
        code = main(["fuse",
                     "--calib", str(scene_dir / "gt_calibration.jsonl"),
                     "--frames", str(scene_dir), "--out",
                     str(tmp_path / "fused"), f"--sync-window={window}"])
        assert code == 4
        assert capsys.readouterr().err == (
            f"error: sync_window_s must be a finite number >= 0, "
            f"got {float(window)}\n")
        assert not (tmp_path / "fused").exists()

    def test_convert_round_trip(self, tmp_path, rng):
        cloud = PointCloud(rng.uniform(-5, 5, size=(50, 3)).astype(np.float32))
        frame = tmp_path / "a.mvlc"
        write_frame(frame, cloud)
        assert main(["convert", str(frame), str(tmp_path / "a.xyz")]) == 0
        assert main(["convert", str(tmp_path / "a.xyz"),
                     str(tmp_path / "b.mvlc")]) == 0
        again = read_frame(tmp_path / "b.mvlc")
        np.testing.assert_allclose(again.points, cloud.points, atol=1e-6)


class TestSyncSimCli:
    def test_prints_table_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "sync.json"
        code = main(["sync-sim", "--nodes", "4", "--duration", "2.0",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "node 0" in printed and "per-node summary" in printed
        payload = json.loads(out.read_text())
        assert len(payload["per_node"]) == 4
        assert len(payload["errors_s"]) == 20


class TestJsonOutFiles:
    """``sync-sim``, ``eval-det`` and ``eval-mot`` write --out atomically."""

    @pytest.fixture
    def argv_for(self, tmp_path):
        boxes = [(f, Box3D((0.5 * f, 0.0, 0.8), (4.0, 2.0, 1.5), 0.0,
                           ObjectClass.CAR, score=0.9, track_id=1))
                 for f in range(4)]
        write_detections(tmp_path / "det.jsonl", boxes)
        write_trajectories(tmp_path / "traj.jsonl", TrajectorySet({1: boxes}))
        commands = {
            "sync-sim": ["sync-sim", "--nodes", "2", "--duration", "1.0"],
            "eval-det": ["eval-det", "--detections", str(tmp_path / "det.jsonl"),
                         "--ground-truth", str(tmp_path / "det.jsonl")],
            "eval-mot": ["eval-mot", "--hypotheses", str(tmp_path / "traj.jsonl"),
                         "--ground-truth", str(tmp_path / "traj.jsonl")],
        }
        return lambda command, out: commands[command] + ["--out", str(out)]

    @pytest.mark.parametrize("command", ["sync-sim", "eval-det", "eval-mot"])
    def test_out_is_written_as_json(self, argv_for, tmp_path, command):
        out = tmp_path / "out" / "result.json"
        out.parent.mkdir()
        assert main(argv_for(command, out)) == 0
        assert isinstance(json.loads(out.read_text()), dict)
        assert os.listdir(out.parent) == ["result.json"]

    @pytest.mark.parametrize("command", ["sync-sim", "eval-det", "eval-mot"])
    def test_failed_write_keeps_the_old_file(self, argv_for, tmp_path,
                                             monkeypatch, command):
        out = tmp_path / "out" / "result.json"
        out.parent.mkdir()
        out.write_text("previous")

        def refuse(*args):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            main(argv_for(command, out))
        assert out.read_text() == "previous"
        assert os.listdir(out.parent) == ["result.json"]
