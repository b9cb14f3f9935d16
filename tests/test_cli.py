import argparse
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import asdict, fields, is_dataclass, replace
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
    _HEADER,
    flatten_frames,
    read_calibration,
    read_detections,
    read_frame,
    read_trajectories,
    write_calibration,
    write_detections,
    write_frame,
    write_json,
    write_trajectories,
)
from mvlidar.fusion import DEFAULT_SYNC_WINDOW_S
from mvlidar.geometry import Box3D, ObjectClass, PointCloud, transform_distance
from mvlidar.metrics import MAX_RECALL_POINTS
from mvlidar.metrics import compute_ap, compute_clear_mot
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
# a pipeline config that sets a non-default value in every section a stage
# command reads but the hierarchy, on the scene of SCENE_SEED
CONFIG = {"seed": SCENE_SEED, "scene": {"frames": 3},
          "detector": {"cluster_distance": 0.6}, "tracker": {"min_hits": 2},
          "eval_det": {"recall_points": 11}, "eval_mot": {"threshold": 0.3},
          "sync": {"duration_s": 3.0}}


def config_file(path, raw) -> str:
    """``path``, written with the JSON ``raw``, as a command argument."""
    path.write_text(json.dumps(raw))
    return str(path)


def write_detections_text(path, frame: str):
    """A two-line detection file whose second record has ``frame``."""
    line = ('{{"frame":{},"class":"Car","center":[0,0,0.8],'
            '"size":[4,2,1.5],"yaw":0.0,"score":0.9}}\n')
    path.write_text(line.format(0) + line.format(frame))
    return path


@pytest.fixture(scope="module")
def config_path(tmp_path_factory) -> str:
    """CONFIG in a file."""
    return config_file(tmp_path_factory.mktemp("config") / "config.json",
                       CONFIG)


@pytest.fixture(scope="module")
def exported(tmp_path_factory, config_path):
    """(directory, printed output) of ``make-scene`` at a non-zero seed."""
    root = tmp_path_factory.mktemp("scene")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main(["make-scene", "--out", str(root),
                     "--config", config_path])
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

    def test_make_scene_prints_the_pipeline_inputs(self, exported, scene,
                                                   config_path):
        printed = exported[1]
        assert f"--config {config_path} to every stage" in printed
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

    def test_one_config_file_sets_every_stage(self, exported, scene,
                                              config_path, tmp_path):
        """With CONFIG, each stage writes what the pipeline's call writes
        with ``PipelineConfig.from_dict(CONFIG)``."""
        root, printed = exported
        cfg = PipelineConfig.from_dict(CONFIG)
        for name in ("detector", "tracker", "eval_det", "eval_mot", "sync"):
            assert getattr(cfg, name) != \
                getattr(PipelineConfig(seed=cfg.seed), name), name
        given = ["--config", config_path]
        calib, fused = tmp_path / "calibration.jsonl", tmp_path / "fused"
        det, traj = tmp_path / "det.jsonl", tmp_path / "traj.jsonl"
        assert main(["calibrate", "--node-root", str(root / "calib"),
                     "--reference", str(root / "reference.mvlc"),
                     "--out", str(calib), *given,
                     printed_option(printed, "reference-viewpoint")]) == 0
        assert main(["fuse", "--calib", str(calib), "--frames", str(root),
                     "--out", str(fused)]) == 0
        assert main(["detect", "--frames", str(fused), "--out", str(det),
                     "--background", str(root / "reference.mvlc"),
                     printed_option(printed, "crop"), *given]) == 0
        assert main(["track", "--detections", str(det), "--out", str(traj),
                     *given]) == 0
        for command, inputs in (
                ("eval-det", ["--detections", det, "--ground-truth",
                              root / "annotations.jsonl"]),
                ("eval-mot", ["--hypotheses", traj, "--ground-truth",
                              root / "gt_trajectories.jsonl"]),
                ("sync-sim", [])):
            assert main([command, *map(str, inputs), *given,
                         "--out", str(tmp_path / f"{command}.json")]) == 0

        reference = read_frame(root / "reference.mvlc")
        expected = {node: calibrate_node(
            frames_of(root / "calib" / f"node_{node}"), reference,
            cfg.hierarchy, seed=cfg.seed + node,
            reference_viewpoint=scene.reference_viewpoint).transform
            for node in sorted(scene.node_frames)}
        boxes_per_frame = detect_per_frame(
            frames_of(fused), cfg.detector, background=reference,
            crop_half_extent=detection_half_extent(scene.spec))
        detections = flatten_frames(boxes_per_frame)
        assert detections
        annotations = read_detections(root / "annotations.jsonl")
        expected_json = {
            "eval-det": {label: compute_ap(detections, annotations, label,
                                           cfg.eval_det)
                         for label in ObjectClass
                         if any(box.label is label for _, box in annotations)},
            "eval-mot": asdict(compute_clear_mot(
                read_trajectories(traj),
                read_trajectories(root / "gt_trajectories.jsonl"),
                cfg.eval_mot)),
        }
        report = compute_time_error_report(simulate_session(cfg.sync))
        expected_json["sync-sim"] = {**report.summary(),
                                     "errors_s": report.errors_s.tolist()}
        write_calibration(tmp_path / "expected.jsonl", expected)
        assert calib.read_bytes() == (tmp_path / "expected.jsonl").read_bytes()
        write_detections(tmp_path / "expected.jsonl", detections)
        assert det.read_bytes() == (tmp_path / "expected.jsonl").read_bytes()
        write_trajectories(tmp_path / "expected.jsonl", track_sequence(
            boxes_per_frame, cfg.tracker,
            frame_dt=1.0 / scene.spec.frame_rate_hz))
        assert traj.read_bytes() == (tmp_path / "expected.jsonl").read_bytes()
        for command, payload in expected_json.items():
            write_json(tmp_path / "expected.json", payload)
            assert (tmp_path / f"{command}.json").read_bytes() == \
                (tmp_path / "expected.json").read_bytes(), command

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
    """Without a config file every stage reads ``PipelineConfig()``, and
    each option that sets no config field defaults to the definition the
    pipeline uses."""

    def parse(self, *argv):
        return build_parser().parse_args(list(argv))

    def test_calibrate(self):
        args = self.parse("calibrate", "--node-root", "n", "--reference", "r",
                          "--out", "o")
        signature = inspect.signature(calibrate_node).parameters
        assert cli._config(args) == PipelineConfig()
        assert args.merge_duration == signature["merge_duration_s"].default
        assert args.reference_viewpoint == \
            signature["reference_viewpoint"].default

    def test_sync_sim(self):
        args = self.parse("sync-sim")
        assert cli._config(args).sync == PipelineConfig().sync
        assert cli._config(self.parse("sync-sim", "--seed", "5")).sync == \
            PipelineConfig(seed=5).sync

    def test_fuse(self):
        args = self.parse("fuse", "--calib", "c", "--frames", "f", "--out", "o")
        assert args.sync_window == DEFAULT_SYNC_WINDOW_S

    def test_detect(self):
        args = self.parse("detect", "--frames", "f", "--out", "o",
                          "--background", "b")
        assert args.crop is None
        assert cli._config(args).detector == PipelineConfig().detector

    def test_track(self):
        args = self.parse("track", "--detections", "d", "--out", "o")
        assert cli._config(args).tracker == PipelineConfig().tracker
        spec = standard_crossroad_spec(n_frames=1)
        assert args.frame_dt == 1.0 / spec.frame_rate_hz

    def test_eval(self):
        args = self.parse("eval-det", "--detections", "d",
                          "--ground-truth", "g")
        assert cli._config(args).eval_det == PipelineConfig().eval_det
        args = self.parse("eval-mot", "--hypotheses", "h",
                          "--ground-truth", "g")
        assert cli._config(args).eval_mot == PipelineConfig().eval_mot


def subcommands() -> dict:
    """Command name -> its parser."""
    return next(action.choices for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


def config_names(config=PipelineConfig()) -> set:
    """The field names of a config and of every config nested in it, with
    the JSON key ``frames`` of the ``scene`` section."""
    names = {"frames"} if isinstance(config, PipelineConfig) else set()
    for field in fields(config):
        names.add(field.name)
        value = getattr(config, field.name)
        if is_dataclass(value):
            names |= config_names(value)
    return names


def test_each_setting_has_one_way_in():
    """No option that converts its text to a value (a path keeps its text)
    restates a config field or JSON key, ``--seed`` aside, and every
    command that reads the config takes ``--config``."""
    names = config_names()
    assert {"min_hits", "node_count", "recall_points", "fpfh_radius",
            "frames", "scene_frames", "delay_max_s"} <= names
    for command, parser in subcommands().items():
        for action in parser._actions:
            assert action.type is None or action.dest == "seed" \
                or action.dest not in names, (command, action.dest)
        if "_config" in parser.get_default("func").__code__.co_names:
            assert "--config" in parser._option_string_actions, command


def changed(value):
    """A valid JSON value other than a setting's default ``value``."""
    if isinstance(value, Enum):
        return next(m.value for m in type(value) if m is not value)
    return value + 1 if isinstance(value, int) else 2.0 * value


def test_every_detector_and_tracker_setting_is_reachable():
    """Each field is a key of its pipeline-config section; a setting that
    nothing sets is a constant instead."""
    unreachable = []
    for section, config in (("detector", DetectorConfig),
                            ("tracker", TrackerConfig)):
        for name in (f.name for f in fields(config)):
            value = changed(getattr(getattr(PipelineConfig(), section), name))
            try:
                parsed = PipelineConfig.from_dict({section: {name: value}})
            except ConfigError:
                unreachable.append(f"{section}.{name}")
                continue
            if getattr(getattr(parsed, section), name) != value:
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

    def test_detect_and_track_round_trip(self, exported, tmp_path):
        scene_dir, printed = exported
        fused = tmp_path / "fused"
        main(["fuse", "--calib", str(scene_dir / "gt_calibration.jsonl"),
              "--frames", str(scene_dir), "--out", str(fused)])
        detections = tmp_path / "det.jsonl"
        code = main(["detect", "--frames", str(fused),
                     "--out", str(detections),
                     "--background", str(scene_dir / "reference.mvlc"),
                     printed_option(printed, "crop")])
        assert code == 0
        assert detections.exists()
        trajectories = tmp_path / "traj.jsonl"
        code = main(["track", "--detections", str(detections),
                     "--out", str(trajectories), "--config", config_file(
                         tmp_path / "cfg.json", {"tracker": {"min_hits": 1}})])
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
             "--config", config_file(tmp_path / "cfg.json",
                                     {"tracker": {"min_hits": 1}})],
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
             str(detections), "--out", str(out), "--config", config_file(
                 tmp_path / "cfg.json", {"tracker": {"max_age": 10**12}})],
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

    def test_repeated_node_id_exit_2(self, scene_dir, tmp_path, capsys):
        calib = tmp_path / "calib.jsonl"
        lines = (scene_dir / "gt_calibration.jsonl").read_text().splitlines()
        calib.write_text("\n".join(lines + [lines[1]]) + "\n")
        out = tmp_path / "fused"
        assert main(["fuse", "--calib", str(calib), "--frames", str(scene_dir),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: line {len(lines) + 1}: node_id 1 repeats line 2\n")
        assert not out.exists()

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

    def test_missing_file_exit_2(self, scene_dir, tmp_path):
        code = main(["detect", "--frames", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "out.jsonl"),
                     "--background", str(scene_dir / "reference.mvlc")])
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
        # a background far off subtracts nothing
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
        ("hierarchy", "edge_length_ratio", 0.9),
        ("scene", "extent", 22.0),
        ("scene", "occluders", True),
        ("scene", "export_frames", False)])
    def test_removed_tuning_key_exit_4(self, tmp_path, capsys, section, key,
                                       value):
        """These values are module constants or fixed parts of the
        crossroad that no caller set (``make-scene`` is what exports a
        scene), so a key that sets one, even to its value, is refused."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        code = main(["pipeline", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 4
        assert capsys.readouterr().err == \
            f"error: unknown keys in {section}: ['{key}']\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: --background"),
        (["--background", "b.mvlc", "--seed", "3"],
         "unrecognized arguments: --seed 3")], ids=["no-background", "seed"])
    def test_detect_usage_error_exit_2(self, scene_dir, tmp_path, capsys,
                                       argv, message):
        """Detection always subtracts a background, and has no seed."""
        out = tmp_path / "det.jsonl"
        with pytest.raises(SystemExit) as exited:
            main(["detect", "--frames", str(scene_dir / "node_0"),
                  "--out", str(out), *argv])
        assert exited.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_no_occluders_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "scene"
        with pytest.raises(SystemExit) as exited:
            main(["make-scene", "--out", str(out), "--no-occluders"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --no-occluders" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("raw, message", [
        ({"detector": {"cluster_distance": 10**400}},
         "detector.cluster_distance must be a finite number > 0"),
        ({"sync": {"duration_s": 10**400}},
         "sync.duration_s must be a finite number in (0, "),
        ({"eval_det": {"recall_points": 10**12}},
         f"eval_det.recall_points must be an integer in "
         f"[1, {MAX_RECALL_POINTS}], got {10**12}"),
        ({"sync": {"node_count": 65}},
         "sync.node_count must be an integer in [1, 64], got 65")],
        ids=["cluster_distance", "duration_s", "recall_points", "node_count"])
    def test_value_the_run_cannot_use_exit_4(self, tmp_path, capsys,
                                             monkeypatch, raw, message):
        """An integer beyond float range for a float setting, which a
        clustering tree cannot take, and more recall levels or session
        nodes than memory holds, are refused as the config is read."""
        def run(*args, **kwargs):
            raise AssertionError("the config was accepted")

        monkeypatch.setattr(cli, "run_pipeline", run)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        code = main(["pipeline", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 4
        assert one_line_error(capsys).startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    def test_radius_beyond_float_range_exit_4(self, scene_dir, tmp_path,
                                              capsys):
        """Once accepted, and then an OverflowError traceback from the
        feature search."""
        cfg = tmp_path / "big.json"
        cfg.write_text('{"hierarchy": {"fpfh_radius": 1' + "0" * 400 + "}}")
        out = tmp_path / "calibration.jsonl"
        code = main(["calibrate", "--node-root", str(scene_dir / "calib"),
                     "--reference", str(scene_dir / "reference.mvlc"),
                     "--out", str(out), "--config", str(cfg)])
        assert code == 4
        assert one_line_error(capsys).startswith(
            "error: hierarchy.fpfh_radius must be a finite number > 0, "
            "got 1000")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["eval-det", "--detections", "missing.jsonl", "--ground-truth",
         "missing.jsonl", {"eval_det": {"iou_thresholds": {"Car": 2}}}],
        ["eval-mot", "--hypotheses", "missing.jsonl", "--ground-truth",
         "missing.jsonl", {"eval_mot": {"threshold": 2}}],
        ["track", "--detections", "missing.jsonl", "--out", "out.jsonl",
         {"tracker": {"threshold": 2}}]])
    def test_bad_threshold_exit_4_before_reading(self, tmp_path, capsys,
                                                 argv):
        """Each command builds its config before it reads its inputs, so a
        bad setting exits 4 even when an input file is missing."""
        code = main(with_config(tmp_path, [
            str(tmp_path / arg) if str(arg).endswith(".jsonl") else arg
            for arg in argv]))
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "threshold" in err

    @pytest.mark.parametrize("argv, message", [
        (["fuse", "--calib", "missing.jsonl", "--frames", "missing",
          "--out", "fused", "--sync-window", "-1"],
         "--sync-window must be a finite number >= 0, got -1.0"),
        (["fuse", "--calib", "missing.jsonl", "--frames", "missing",
          "--out", "fused", "--sync-window", "nan"],
         "--sync-window must be a finite number >= 0, got nan"),
        (["track", "--detections", "missing.jsonl", "--out", "fused",
          "--frame-dt", "nan"],
         "--frame-dt must be a finite number in (0, 3600.0], got nan"),
        (["track", "--detections", "missing.jsonl", "--out", "fused",
          "--frame-dt", "0"],
         "--frame-dt must be a finite number in (0, 3600.0], got 0.0"),
        (["track", "--detections", "missing.jsonl", "--out", "fused",
          {"tracker": {"min_hits": -1}}],
         "tracker.min_hits must be an integer >= 1, got -1")])
    def test_bad_value_exit_4_before_reading(self, tmp_path, capsys, argv,
                                             message):
        """``fuse`` and ``track`` check their values before they read
        their inputs: a bad value exits 4 in one line even when the inputs
        are missing, and nothing is written."""
        code = main(with_config(tmp_path, [
            str(tmp_path / arg) if arg in ("missing.jsonl", "missing",
                                           "fused") else arg
            for arg in argv]))
        assert code == 4
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "fused").exists()

    def test_bad_calibrate_config_exit_4(self, scene_dir, tmp_path, capsys):
        self.check_malformed_levels(
            scene_dir, tmp_path, capsys, [[1.0, 2.0]],
            "hierarchy.levels[0] must be [voxel_size, "
            "max_correspondence_distance, max_iterations], got [1.0, 2.0]")

    @pytest.mark.parametrize("levels, message", [
        ([[1.0, 2.0, 40], [0.4, 0.8, 60, 1]], "hierarchy.levels[1] must be "
         "[voxel_size, max_correspondence_distance, max_iterations], got "
         "[0.4, 0.8, 60, 1]"),
        (5, "hierarchy.levels must be a list of levels, got 5")])
    def test_malformed_levels_exit_4(self, scene_dir, tmp_path, capsys,
                                     levels, message):
        self.check_malformed_levels(scene_dir, tmp_path, capsys, levels,
                                    message)

    @staticmethod
    def check_malformed_levels(scene_dir, tmp_path, capsys, levels, message):
        """``calibrate --config`` refuses a malformed ``hierarchy.levels``
        in one line that names its config path, and writes nothing."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hierarchy": {"levels": levels}}))
        code = main(["calibrate", "--node-root", str(scene_dir / "calib"),
                     "--reference", str(scene_dir / "reference.mvlc"),
                     "--out", str(tmp_path / "none.jsonl"),
                     "--config", str(cfg)])
        assert code == 4
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "none.jsonl").exists()

    @pytest.mark.parametrize("key, value", [
        ("convergence_epsilon", 1e-6), ("min_normal_neighbors", 5),
        ("edge_length_ratio", 0.9)])
    def test_removed_hierarchy_key_exit_4(self, scene_dir, tmp_path, capsys,
                                          key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hierarchy": {key: value}}))
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
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hierarchy": raw}))
        code = main(["calibrate", "--node-root", str(scene_dir / "calib"),
                     "--reference", str(scene_dir / "reference.mvlc"),
                     "--out", str(tmp_path / "none.jsonl"),
                     "--config", str(cfg)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: hierarchy.") and err.count("\n") == 1
        assert not (tmp_path / "none.jsonl").exists()

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
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"hierarchy": {"ransac_iterations": iterations}}))
        assert main(["calibrate", "--node-root", str(scene_dir / "calib"),
                     "--reference", str(scene_dir / "reference.mvlc"),
                     "--out", str(tmp_path / "none.jsonl"),
                     "--config", str(cfg)]) == 4
        assert capsys.readouterr().err == message
        assert not (tmp_path / "none.jsonl").exists()

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

    @pytest.mark.parametrize("command", ["calibrate", "sync-sim", "pipeline",
                                         "make-scene"])
    def test_negative_seed_exit_4(self, scene_dir, tmp_path, capsys,
                                  command):
        out = tmp_path / "out"
        argv = {"calibrate": ["--node-root", str(scene_dir / "calib"),
                              "--reference", str(scene_dir / "reference.mvlc"),
                              "--out", str(out)],
                "sync-sim": ["--out", str(out)],
                "pipeline": ["--out-dir", str(out)],
                "make-scene": ["--out", str(out)]}[command]
        assert main([command, *argv, "--seed", "-1"]) == 4
        assert capsys.readouterr().err == \
            "error: seed must be an integer >= 0, got -1\n"
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
        option = {"make-scene": "--out", "pipeline": "--out-dir"}[command]
        assert main([command, "--config", str(cfg), option, str(out)]) == 4
        assert capsys.readouterr().err == (
            f"error: scene.frames must be an integer in "
            f"[1, {MAX_SCENE_FRAMES}], got {frames}\n")
        assert not out.exists()

    @pytest.mark.parametrize("rows", ["0", "-3"])
    def test_bad_max_rows_exit_4(self, tmp_path, capsys, rows):
        out = tmp_path / "sync.json"
        assert main(["sync-sim", "--out", str(out), "--max-rows", rows]) == 4
        captured = capsys.readouterr()
        assert captured.err == \
            f"error: --max-rows must be an integer >= 1, got {rows}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("crop", ["nan", "0", "-1"])
    def test_bad_crop_exit_4(self, scene_dir, tmp_path, capsys, crop):
        out = tmp_path / "det.jsonl"
        assert main(["detect", "--frames", str(scene_dir / "node_0"),
                     "--out", str(out), f"--crop={crop}",
                     "--background", str(scene_dir / "reference.mvlc")]) == 4
        assert capsys.readouterr().err == (
            f"error: --crop must be a finite number > 0, got {float(crop)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["sync-sim", {"sync": {"frame_rate_hz": math.nan}}],
         "sync.frame_rate_hz must be a finite number > 0, got nan"),
        (["sync-sim", {"sync": {"frame_rate_hz": 1e-300}}],
         "sync.duration_s * sync.frame_rate_hz must be a finite number in "
         "[1, 1000000], got 1e-299"),
        (["sync-sim", {"sync": {"duration_s": math.inf}}],
         "sync.duration_s must be a finite number in (0, 1000000.0], "
         "got inf"),
        (["sync-sim", {"sync": {"duration_s": 1e308}}],
         "sync.duration_s must be a finite number in (0, 1000000.0], "
         "got 1e+308"),
        (["sync-sim", {"sync": {"delay_max_s": 1e308}}],
         "sync.delay_max_s must be a finite number in [0, 1000000.0], "
         "got 1e+308"),
        (["track", "--frame-dt", "nan"],
         "--frame-dt must be a finite number in (0, 3600.0], got nan"),
        (["track", "--frame-dt", "0"],
         "--frame-dt must be a finite number in (0, 3600.0], got 0.0"),
        (["track", "--frame-dt", "1e308"],
         "--frame-dt must be a finite number in (0, 3600.0], got 1e+308"),
        (["track", {"tracker": {"threshold": math.nan}}],
         "tracker.threshold must be a finite number in (0, 1], got nan"),
        (["sync-sim", {"sync": {"node_count": 65}}],
         "sync.node_count must be an integer in [1, 64], got 65"),
    ])
    def test_bad_setting_exit_4(self, tmp_path, capsys, argv, message):
        """A non-finite or huge value is refused by the class that owns
        the setting, in one line that names it, before any output."""
        out = tmp_path / "out.json"
        if argv[0] == "track":
            argv = argv + ["--detections", str(write_detections_text(
                tmp_path / "det.jsonl", "1"))]
        assert main(with_config(tmp_path, argv) + ["--out", str(out)]) == 4
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
            f"error: --sync-window must be a finite number >= 0, "
            f"got {float(window)}\n")
        assert not (tmp_path / "fused").exists()

    @pytest.mark.parametrize("command, option", [
        ("make-scene", "--frames"), ("sync-sim", "--nodes"),
        ("sync-sim", "--duration"), ("sync-sim", "--frame-rate"),
        ("sync-sim", "--delay-min"), ("sync-sim", "--delay-max"),
        ("sync-sim", "--drop"), ("track", "--threshold"),
        ("track", "--min-hits"), ("track", "--max-age"),
        ("eval-det", "--iou-threshold"), ("eval-mot", "--threshold")])
    def test_option_that_restated_a_config_key_exit_2(self, tmp_path, capsys,
                                                      command, option):
        """Each of these set a config field; the config file sets it
        now, and the option is unknown."""
        out = tmp_path / "out"
        inputs = {"make-scene": [], "sync-sim": [],
                  "track": ["--detections", "d.jsonl"],
                  "eval-det": ["--detections", "d.jsonl",
                               "--ground-truth", "g.jsonl"],
                  "eval-mot": ["--hypotheses", "h.jsonl",
                               "--ground-truth", "g.jsonl"]}[command]
        with pytest.raises(SystemExit) as exited:
            main([command, *inputs, "--out", str(out), option, "1"])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {option} 1" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["make-scene", "calibrate",
                                         "sync-sim", "pipeline"])
    def test_seed_with_config_is_a_usage_error(self, tmp_path, capsys,
                                               command):
        """The file sets the seed too: neither silently wins."""
        out = tmp_path / "out"
        argv = {"calibrate": ["--node-root", "n", "--reference", "r",
                              "--out", str(out)],
                "sync-sim": ["--out", str(out)],
                "pipeline": ["--out-dir", str(out)],
                "make-scene": ["--out", str(out)]}[command]
        with pytest.raises(SystemExit) as exited:
            main([command, *argv, "--seed", "9", "--config",
                  config_file(tmp_path / "cfg.json", {"seed": 5})])
        assert exited.value.code == 2
        assert "argument --config: not allowed with argument --seed" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_hierarchy_only_file_exit_4(self, scene_dir, tmp_path, capsys):
        """``calibrate --config`` takes the pipeline config, whose
        registration settings are its ``hierarchy`` section."""
        out = tmp_path / "none.jsonl"
        assert main(["calibrate", "--node-root", str(scene_dir / "calib"),
                     "--reference", str(scene_dir / "reference.mvlc"),
                     "--out", str(out), "--config", config_file(
                         tmp_path / "cfg.json", {"fpfh_radius": 3.0})]) == 4
        assert one_line_error(capsys) == \
            "error: unknown keys in config: ['fpfh_radius']\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, text, key", [
        ("sync-sim", '{"seed": 1, "seed": 2}', "seed"),
        ("track", '{"tracker": {"min_hits": 1, "min_hits": 2}}', "min_hits")])
    def test_repeated_config_key_exit_4(self, tmp_path, capsys, command,
                                        text, key):
        """json would read the last value; neither is taken silently."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out.json"
        inputs = {"sync-sim": [], "track": ["--detections", str(
            write_detections_text(tmp_path / "det.jsonl", "1"))]}[command]
        assert main([command, *inputs, "--config", str(cfg),
                     "--out", str(out)]) == 4
        assert one_line_error(capsys) == \
            f"error: cannot load config {cfg}: key '{key}' repeats\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["detection", "trajectory",
                                      "calibration"])
    def test_repeated_record_key_exit_2(self, scene_dir, tmp_path, capsys,
                                        kind):
        records = tmp_path / "records.jsonl"
        out = tmp_path / "out"
        box = ('"class":"Car","center":[0,0,0.8],"size":[4,2,1.5],'
               '"yaw":0.0')
        text, key, argv = {
            "detection": (
                '{"frame":0,"frame":7,' + box + ',"score":0.9}',
                "frame", ["track", "--detections", str(records)]),
            "trajectory": (
                '{"frame":0,"track_id":1,"track_id":2,' + box + '}',
                "track_id", ["eval-mot", "--hypotheses", str(records),
                             "--ground-truth", str(records)]),
            "calibration": (
                '{"node_id":0,"rotation":[1,0,0,0,1,0,0,0,1],'
                '"translation":[0,0,0],"node_id":1}',
                "node_id", ["fuse", "--calib", str(records),
                            "--frames", str(scene_dir)])}[kind]
        records.write_text(text + "\n")
        assert main(argv + ["--out", str(out)]) == 2
        assert one_line_error(capsys) == f"error: line 1: key '{key}' repeats\n"
        assert not out.exists()

    def test_integer_too_long_to_read_exit_2(self, tmp_path, capsys):
        """json refuses to convert an integer of more than 4300 digits;
        that once ended in a traceback."""
        records = write_detections_text(tmp_path / "det.jsonl", "1" * 5000)
        out = tmp_path / "traj.jsonl"
        assert main(["track", "--detections", str(records),
                     "--out", str(out)]) == 2
        assert one_line_error(capsys).startswith(
            "error: line 2: Exceeds the limit (4300 digits)")
        assert not out.exists()

    def test_convert_round_trip(self, tmp_path, rng):
        cloud = PointCloud(rng.uniform(-5, 5, size=(50, 3)).astype(np.float32))
        frame = tmp_path / "a.mvlc"
        write_frame(frame, cloud)
        assert main(["convert", str(frame), str(tmp_path / "a.xyz")]) == 0
        assert main(["convert", str(tmp_path / "a.xyz"),
                     str(tmp_path / "b.mvlc")]) == 0
        again = read_frame(tmp_path / "b.mvlc")
        np.testing.assert_allclose(again.points, cloud.points, atol=1e-6)

    @pytest.mark.parametrize("source, target", [
        ("a.xyz", "d.xyz"), ("b.mvlc", "c.mvlc"), ("a.xyz", "d")])
    def test_convert_to_the_same_format_exit_4(self, tmp_path, capsys,
                                               source, target):
        """The output ends in the suffix of the other format, checked
        before the input is read: a missing input exits 4 as well, and
        nothing is written either way."""
        out = tmp_path / target
        target_suffix = ".mvlc" if source.endswith(".xyz") else ".xyz"
        message = (f"error: output must end in {target_suffix} to convert "
                   f"{tmp_path / source}, got {out}\n")
        assert main(["convert", str(tmp_path / source), str(out)]) == 4
        assert capsys.readouterr().err == message
        if source.endswith(".xyz"):
            (tmp_path / source).write_text("1 2 3\n")
        else:
            write_frame(tmp_path / source, PointCloud([[1.0, 2.0, 3.0]]))
        assert main(["convert", str(tmp_path / source), str(out)]) == 4
        assert capsys.readouterr().err == message
        assert sorted(p.name for p in tmp_path.iterdir()) == [source]

    @pytest.mark.parametrize("attributes, dropped", [
        ({}, None),
        ({"source_ids": [4]}, "source ids"),
        ({"timestamp_ns": 100_000_000}, "timestamp"),
        ({"source_node": 3}, "node"),
        ({"source_ids": [4], "timestamp_ns": 1, "source_node": 0},
         "source ids, timestamp, node")],
        ids=["none", "source_ids", "timestamp", "node", "all"])
    def test_convert_to_xyz_names_what_it_drops(self, tmp_path, capsys,
                                                attributes, dropped):
        """.xyz holds x y z and intensity: a frame with no other attribute
        converts silently."""
        frame = tmp_path / "a.mvlc"
        write_frame(frame, PointCloud([[1.0, 2.0, 3.0]], intensity=[0.5],
                                      **attributes))
        out = tmp_path / "a.xyz"
        assert main(["convert", str(frame), str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ("" if dropped is None else
                                f"warning: .xyz holds only x y z and "
                                f"intensity; dropped the {dropped} of "
                                f"{frame}\n")
        assert captured.out == f"wrote {out}\n"
        assert out.read_text() == "1.0 2.0 3.0 0.5\n"


def link_nodes(root, source, names):
    """``root`` with an entry per name, each a link to a node directory of
    ``source``: ``{name: node}``."""
    root.mkdir()
    for name, node in names.items():
        (root / name).symlink_to(source / f"node_{node}",
                                 target_is_directory=True)
    return root


def node_command(command, scene_dir, root) -> list:
    """``calibrate`` or ``fuse`` of the node directories under ``root``,
    without ``--out``."""
    if command == "calibrate":
        return ["calibrate", "--node-root", str(root), "--reference",
                str(scene_dir / "reference.mvlc")]
    return ["fuse", "--calib", str(scene_dir / "gt_calibration.jsonl"),
            "--frames", str(root)]


def with_config(tmp_path, argv) -> list:
    """``argv`` with a dict in it given as ``--config`` and a file that
    holds it."""
    return [arg for item in argv for arg in (
        ["--config", config_file(tmp_path / "cfg.json", item)]
        if isinstance(item, dict) else [item])]


def one_line_error(capsys) -> str:
    """The one line ``main`` printed on stderr, with nothing on stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") \
        and captured.err.count("\n") == 1, captured.err
    return captured.err


class TestInputLayout:
    """Malformed input directories and paths exit 2 in one line before
    anything is written."""

    @pytest.mark.parametrize("name", ["node_01", "node_1_0", "node_-2",
                                      "node_+1", "node_ 1", "node_\u0661"])
    @pytest.mark.parametrize("command", ["calibrate", "fuse"])
    def test_loose_node_directory_name_exit_2(self, scene_dir, tmp_path,
                                              capsys, command, name):
        """Only ``node_<id>``, as ``export_scene`` names it, is a node.
        ``int`` reads each of these as a node id: ``node_1_0`` as 10,
        ``node_-2`` as -2 and the rest as 1, beside ``node_1``."""
        source = scene_dir / "calib" if command == "calibrate" else scene_dir
        root = link_nodes(tmp_path / "nodes", source,
                          {**{f"node_{n}": n for n in range(4)}, name: 1})
        out = tmp_path / "out"
        assert main(node_command(command, scene_dir, root)
                    + ["--out", str(out)]) == 2
        assert one_line_error(capsys) == (
            f"error: cannot parse node id from {root / name}: expected "
            f"node_<id>, an integer in [0, 65534] without sign or leading "
            f"zero\n")
        assert not out.exists()

    @pytest.mark.parametrize("node", [0xFFFF, 70_000])
    @pytest.mark.parametrize("command", ["calibrate", "fuse"])
    def test_node_id_a_frame_cannot_hold_exit_2(self, scene_dir, tmp_path,
                                                capsys, command, node):
        """Node 3 renamed, with its calibration record: ``fuse`` once
        ended in a traceback from ``write_frame`` and left ``--out``
        behind, and ``calibrate`` ran."""
        source = scene_dir / "calib" if command == "calibrate" else scene_dir
        name = f"node_{node}"
        root = link_nodes(tmp_path / "nodes", source,
                          {"node_0": 0, "node_1": 1, "node_2": 2, name: 3})
        calib = read_calibration(scene_dir / "gt_calibration.jsonl")
        calib[node] = calib.pop(3)
        write_calibration(tmp_path / "calib.jsonl", calib)
        argv = node_command(command, scene_dir, root)
        if command == "fuse":
            argv[2] = str(tmp_path / "calib.jsonl")
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert one_line_error(capsys) == (
            f"error: cannot parse node id from {root / name}: expected "
            f"node_<id>, an integer in [0, 65534] without sign or leading "
            f"zero\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["calibrate", "fuse"])
    def test_frames_out_of_time_order_exit_2(self, scene_dir, tmp_path,
                                             capsys, command):
        """Every node's frames renamed into reverse order: ``calibrate``
        once ended in a traceback, and ``fuse`` fused them silently."""
        source = scene_dir / "calib" if command == "calibrate" else scene_dir
        root = tmp_path / "nodes"
        for node in range(4):
            paths = sorted((source / f"node_{node}").glob("*.mvlc"))
            (root / f"node_{node}").mkdir(parents=True)
            for path, renamed in zip(paths, reversed(paths)):
                (root / f"node_{node}" / renamed.name).write_bytes(
                    path.read_bytes())
        out = tmp_path / "out"
        assert main(node_command(command, scene_dir, root)
                    + ["--out", str(out)]) == 2
        assert one_line_error(capsys) == (
            f"error: frames in {root / 'node_0'} are not in time order\n")
        assert not out.exists()

    def test_directory_as_convert_output_exit_2(self, tmp_path, capsys):
        cloud = tmp_path / "cloud.xyz"
        cloud.write_text("1 2 3\n")
        taken = tmp_path / "taken.mvlc"
        taken.mkdir()
        assert main(["convert", str(cloud), str(taken)]) == 2
        assert str(taken) in one_line_error(capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cloud.xyz",
                                                             "taken.mvlc"]
        assert not any(taken.iterdir())

    @pytest.mark.parametrize("option", ["--background", "--frames"])
    def test_directory_as_detect_input_exit_2(self, scene_dir, tmp_path,
                                              capsys, option):
        """A directory where a frame file belongs, and a frames directory
        holding a directory named like a frame."""
        frames = tmp_path / "frames"
        (frames / "frame_00000.mvlc").mkdir(parents=True)
        inputs = {"--frames": scene_dir / "node_0",
                  "--background": scene_dir / "reference.mvlc"}
        inputs[option] = frames
        out = tmp_path / "out.jsonl"
        assert main(["detect", *(str(v) for item in inputs.items()
                                 for v in item), "--out", str(out)]) == 2
        one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flags", [0x2, 0x8, 0x8000], ids=hex)
    def test_reserved_or_unknown_flag_bit_exit_2(self, tmp_path, capsys,
                                                 flags):
        """A frame with flag 0x2 and room for the time index that bit once
        flagged, or with a bit no column claims, is refused."""
        frame = tmp_path / "frame.mvlc"
        record = 14 if flags == 0x2 else 12
        frame.write_bytes(_HEADER.pack(b"MVLC", 1, flags, 2, 0, 0xFFFF, 0)
                          + bytes(2 * record))
        out = tmp_path / "frame.xyz"
        assert main(["convert", str(frame), str(out)]) == 2
        assert one_line_error(capsys) == \
            f"error: unsupported flag bits {flags:#x}\n"
        assert not out.exists()


class TestSyncSimCli:
    @pytest.mark.parametrize("frames", [1, 19, 20, 21, 30, 39, 100])
    def test_max_rows_is_a_cap(self, tmp_path, capsys, frames):
        """At most ``--max-rows`` evenly spaced rows, frame 0 first; the
        default 100-frame session prints every fifth frame."""
        out = tmp_path / "sync.json"
        assert main(["sync-sim", "--max-rows", "20", "--out", str(out),
                     "--config", config_file(tmp_path / "cfg.json", {
                         "sync": {"duration_s": 1.0,
                                  "frame_rate_hz": frames}})]) == 0
        assert len(json.loads(out.read_text())["errors_s"]) == frames
        table = capsys.readouterr().out.split("\n\n")[0].splitlines()[1:]
        rows = [int(line.split()[0]) for line in table]
        assert rows[0] == 0 and len(rows) <= 20
        assert rows == list(range(0, frames, rows[1] if frames > 1 else 1))
        if frames <= 20:
            assert rows == list(range(frames))
        if frames == 100:
            assert rows == list(range(0, 100, 5))

    def test_prints_table_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "sync.json"
        code = main(["sync-sim", "--config", config_file(
            tmp_path / "cfg.json", {"seed": 5, "sync": {"node_count": 4,
                                                       "duration_s": 2.0}}),
                     "--out", str(out)])
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
            "sync-sim": ["sync-sim", "--config", config_file(
                tmp_path / "cfg.json", {"sync": {"node_count": 2,
                                                 "duration_s": 1.0}})],
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
                                             monkeypatch, capsys, command):
        """A failed write exits 2 in one line, like any unusable path."""
        out = tmp_path / "out" / "result.json"
        out.parent.mkdir()
        out.write_text("previous")

        def refuse(*args):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        assert main(argv_for(command, out)) == 2
        assert capsys.readouterr().err == "error: disk full\n"
        assert out.read_text() == "previous"
        assert os.listdir(out.parent) == ["result.json"]
