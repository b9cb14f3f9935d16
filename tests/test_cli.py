import contextlib
import inspect
import io
import json
import os

import numpy as np
import pytest

from mvlidar.cli import build_parser, main
from mvlidar.formats import (
    flatten_frames,
    read_calibration,
    read_detections,
    read_frame,
    write_calibration,
    write_detections,
    write_frame,
    write_trajectories,
)
from mvlidar.fusion import DEFAULT_SYNC_WINDOW_S
from mvlidar.geometry import Box3D, ObjectClass, PointCloud, transform_distance
from mvlidar.pipeline import (
    PipelineConfig,
    _fused_cloud,
    calibrate_node,
    detect_per_frame,
    detection_half_extent,
)
from mvlidar.scene import (
    calibration_capture,
    generate_synthetic_scene,
    standard_crossroad_spec,
)
from mvlidar.syncsim import compute_time_error_report, simulate_session
from mvlidar.tracking import TrajectorySet, track_sequence

SCENE_SEED = 13


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
            write_frame(tmp_path / "expected.mvlc", _fused_cloud(
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
        configs = []

        def record(cfg, output_dir, config_sha256):
            configs.append(cfg)
            (tmp_path / "report.txt").write_text("")
            return {"outputs": []}

        monkeypatch.setattr("mvlidar.cli.run_pipeline", record)
        (tmp_path / "cfg.json").write_text('{"seed": 5}')
        for argv in (["--seed", "5"], ["--config", str(tmp_path / "cfg.json")]):
            assert main(["pipeline", "--out-dir", str(tmp_path)] + argv) == 0
        assert configs[0] == configs[1]
        assert configs[0].sync.seed == 5


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

    def test_bad_calibrate_config_exit_4(self, scene_dir, tmp_path, capsys):
        cfg = tmp_path / "hierarchy.json"
        cfg.write_text('{"levels": [[1.0, 2.0]]}')
        code = main(["calibrate", "--node-root", str(scene_dir / "calib"),
                     "--reference", str(scene_dir / "reference.mvlc"),
                     "--out", str(tmp_path / "none.jsonl"),
                     "--config", str(cfg)])
        assert code == 4
        assert capsys.readouterr().err.startswith("error: hierarchy: ")

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
