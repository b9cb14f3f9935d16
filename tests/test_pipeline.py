import itertools
import json
import math
import platform
from dataclasses import replace

import numpy as np
import pytest
import scipy
from scipy.spatial import cKDTree

from conftest import box_surface, ground_grid
from mvlidar import pipeline
from mvlidar.detector import DetectorConfig, detect_frame
from mvlidar.errors import CalibrationFailedError, ConfigError
from mvlidar.geometry import ObjectClass, PointCloud, transform_distance
from mvlidar.metrics import DetectionEvalConfig
from mvlidar.pipeline import (
    PipelineConfig,
    _fused_cloud,
    calibrate_node,
    crossroad_hierarchy,
    detect_per_frame,
    hierarchy_from_dict,
    in_square,
    run_environment,
    run_fusion_comparison,
    run_pipeline,
    run_view_group_experiment,
    thread_budget,
)
from mvlidar.registration import HierarchyConfig, HierarchyLevel
from mvlidar.scene import (
    SceneObject,
    SceneSpec,
    NodePose,
    calibration_capture,
    generate_synthetic_scene,
    standard_crossroad_spec,
)

FAST_HIERARCHY = HierarchyConfig(levels=(HierarchyLevel(1.0, 2.0, 30),
                                         HierarchyLevel(0.4, 0.8, 40)),
                                 fpfh_radius=3.0, normal_radius=2.5,
                                 ransac_iterations=8000,
                                 ransac_inlier_threshold=1.5)


@pytest.fixture(scope="module")
def static_scene():
    spec = standard_crossroad_spec(n_frames=6, seed=11)
    spec = SceneSpec(nodes=spec.nodes[:2], statics=spec.statics, objects=(),
                     extent=spec.extent, n_frames=6, noise_sigma=0.02,
                     reference_scanner_positions=spec.reference_scanner_positions)
    return generate_synthetic_scene(spec, seed=11)


@pytest.fixture(scope="module")
def busy_scene():
    spec = standard_crossroad_spec(n_frames=8, seed=5)
    return generate_synthetic_scene(spec, seed=5)


class TestCalibrateNode:
    def test_recovers_true_extrinsic(self, static_scene):
        scene = static_scene
        for node in scene.node_frames:
            frames = calibration_capture(scene, node, seed=11)
            result = calibrate_node(frames, scene.reference_cloud,
                                    FAST_HIERARCHY, seed=node,
                                    reference_viewpoint=scene.reference_viewpoint)
            rot_err, tra_err = transform_distance(result.transform,
                                                  scene.extrinsics[node])
            assert rot_err < 1.0
            assert tra_err < 0.05

    def test_unrelated_reference_fails(self, static_scene, rng):
        scene = static_scene
        bogus = PointCloud(rng.uniform(-30, 30, size=(5000, 3)))
        frames = calibration_capture(scene, 0, seed=11)
        with pytest.raises(Exception) as info:
            calibrate_node(frames, bogus, FAST_HIERARCHY, seed=1)
        from mvlidar.errors import AlgorithmError
        assert isinstance(info.value, AlgorithmError)


class TestExperiments:
    def test_view_groups_report_all_groups(self, busy_scene):
        results = run_view_group_experiment(
            busy_scene, busy_scene.extrinsics, DetectorConfig(),
            DetectionEvalConfig.with_threshold(0.25))
        assert set(results) == {"views0", "views0+2", "views0+1+2+3"}
        assert results["views0"]["frames_integrated"] == 4
        assert results["views0+1+2+3"]["frames_integrated"] == 1
        for data in results.values():
            assert 0.0 <= data["overall_recall"] <= 1.0

    def test_more_views_never_hurt_recall(self, busy_scene):
        results = run_view_group_experiment(
            busy_scene, busy_scene.extrinsics, DetectorConfig(),
            DetectionEvalConfig.with_threshold(0.25))
        assert results["views0"]["overall_recall"] <= \
            results["views0+2"]["overall_recall"] <= \
            results["views0+1+2+3"]["overall_recall"]

    def test_fusion_comparison_reports_all_methods(self, busy_scene):
        results = run_fusion_comparison(
            busy_scene, busy_scene.extrinsics, DetectorConfig(),
            DetectionEvalConfig.with_threshold(0.25))
        assert {"view 0", "view 1", "view 2", "view 3", "nms fusion",
                "average fusion", "early fusion"} == set(results)


def full_background_pass(clouds, background, distance, crop):
    """Reference detection pass: each frame against the whole background on
    a balanced tree, then the crop. Returns the kept clouds and the boxes."""
    cfg = replace(DetectorConfig(), ground_removal=False, ground_z=0.0)
    kept = []
    for cloud in clouds:
        if len(cloud) and len(background):
            nearest, _ = cKDTree(background.points).query(
                cloud.points, distance_upper_bound=distance)
            cloud = cloud.select(~np.isfinite(nearest))
        if crop is not None and len(cloud):
            cloud = cloud.select(
                np.max(np.abs(cloud.points[:, :2]), axis=1) <= crop)
        kept.append(cloud)
    return kept, [detect_frame(cloud, cfg) for cloud in kept]


def box_key(box):
    return (box.center.tolist(), box.size.tolist(), box.yaw, box.label,
            box.score)


def assert_same_pass(monkeypatch, clouds, background, distance=0.5,
                     crop=None):
    seen = []

    def recording_detect_frame(cloud, cfg):
        seen.append(cloud)
        return detect_frame(cloud, cfg)

    monkeypatch.setattr(pipeline, "detect_frame", recording_detect_frame)
    boxes = detect_per_frame(clouds, DetectorConfig(), workers=1,
                             background=background,
                             background_distance=distance,
                             crop_half_extent=crop)
    expected_clouds, expected_boxes = full_background_pass(
        clouds, background, distance, crop)
    assert len(seen) == len(expected_clouds)
    for actual, expected in zip(seen, expected_clouds):
        assert np.array_equal(actual.points, expected.points)
    assert [[box_key(b) for b in frame] for frame in boxes] == \
        [[box_key(b) for b in frame] for frame in expected_boxes]
    return seen, boxes


class TestInSquare:
    """The two-comparison square test equals the max-of-abs one it
    replaced, on the boundary, one ulp either side, at signed zeros and at
    large coordinates."""

    @staticmethod
    def oracle(points, half):
        return np.max(np.abs(points[:, :2]), axis=1) <= half

    @pytest.mark.parametrize("half", [0.0, 1e-300, 10.0, 0.6 * 22.0,
                                      10.5 + 1e-6, 1e300])
    def test_matches_the_max_of_abs_oracle(self, half):
        up, down = np.nextafter(half, np.inf), np.nextafter(half, -np.inf)
        coords = [0.0, -0.0, half, -half, up, -up, down, -down, 1.0, -7.5,
                  1e300, -1e300, np.inf, -np.inf, np.nan]
        xy = np.array(list(itertools.product(coords, coords)))
        points = np.column_stack([xy, np.ones(len(xy))])
        assert np.array_equal(in_square(points, half),
                              self.oracle(points, half))

    def test_random_and_large_coordinates(self, rng):
        points = np.vstack([rng.uniform(-20.0, 20.0, size=(2000, 3)),
                            rng.normal(scale=1e12, size=(500, 3))])
        for half in (0.0, 13.2, 1e12):
            mask = in_square(points, half)
            assert np.array_equal(mask, self.oracle(points, half))
        assert 0 < in_square(points, 13.2).sum() < len(points)

    def test_boundary_is_inside(self):
        half = 13.2
        points = np.array([[half, -half, 0.0], [-half, half, 5.0],
                           [-0.0, -half, 0.0],
                           [np.nextafter(half, np.inf), 0.0, 0.0],
                           [0.0, -np.nextafter(half, np.inf), 0.0]])
        assert in_square(points, half).tolist() == [True, True, True,
                                                    False, False]


class TestBackgroundCrop:
    """detect_per_frame crops the background once to the detection square
    plus background_distance; every frame keeps the points and boxes it
    keeps against the whole background."""

    HALF = 10.0
    DISTANCE = 0.5

    def background(self):
        reach = self.HALF + self.DISTANCE
        beyond = np.nextafter(reach, np.inf)
        edge = [[reach, 0.0, 1.0], [beyond, 2.0, 1.0],
                [-reach, -2.0, 1.0], [-beyond, 4.0, 1.0],
                [0.0, reach, 1.0], [2.0, beyond, 1.0],
                [-2.0, -reach, 1.0], [4.0, -beyond, 1.0],
                # inside the reach, outside the detection square
                [self.HALF + 0.3, -3.0, 1.0], [-3.0, self.HALF + 0.3, 1.0]]
        wall = np.column_stack([np.full(40, self.HALF + 0.2),
                                np.linspace(5.0, 7.0, 40),
                                np.full(40, 1.0)])
        return PointCloud(np.vstack([ground_grid(extent=14.0, spacing=0.5),
                                     edge, wall]))

    def frame(self, rng):
        car = box_surface((0.0, 0.0, 0.75), (4.2, 1.9, 1.5), 0.3, 300, rng)
        # a block beside the wall at x = 10.2, outside the detection
        # square: its points within 0.5 m of the wall are background
        block = rng.uniform((self.HALF - 1.2, 5.2, 0.6),
                            (self.HALF, 6.8, 1.8), size=(200, 3))
        half = self.HALF
        edge = [[half, 0.0, 1.0], [half, 2.0, 1.0], [-half, -2.0, 1.0],
                [-half, 4.0, 1.0], [0.0, half, 1.0], [2.0, half, 1.0],
                [-2.0, -half, 1.0], [4.0, -half, 1.0],
                [half - 0.1, -3.0, 1.0], [-3.0, half - 0.1, 1.0],
                [np.nextafter(half, np.inf), 8.0, 1.0]]
        return PointCloud(np.vstack([car, block, edge]))

    def test_background_at_the_reach_and_one_ulp_beyond(self, monkeypatch,
                                                        rng):
        seen, boxes = assert_same_pass(monkeypatch, [self.frame(rng)],
                                       self.background(), self.DISTANCE,
                                       self.HALF)
        assert len(boxes[0]) == 2
        kept = {tuple(p) for p in seen[0].points.tolist()}
        # exactly 0.5 m from the background: kept; 0.4 m: subtracted
        assert (self.HALF, 0.0, 1.0) in kept
        assert (self.HALF, 2.0, 1.0) in kept
        assert (self.HALF - 0.1, -3.0, 1.0) not in kept
        assert (-3.0, self.HALF - 0.1, 1.0) not in kept

    def test_frame_points_on_the_crop_boundary(self, monkeypatch):
        half = self.HALF
        corners = [[sx * half, sy * half, 1.0] for sx in (-1, 1)
                   for sy in (-1, 1)]
        outside = [[np.nextafter(half, np.inf), 0.0, 1.0],
                   [0.0, -np.nextafter(half, np.inf), 1.0]]
        seen, _ = assert_same_pass(monkeypatch,
                                   [PointCloud(np.array(corners + outside))],
                                   self.background(), self.DISTANCE, half)
        np.testing.assert_array_equal(seen[0].points, corners)

    def test_frame_empty_after_the_crop(self, monkeypatch, rng):
        outside = rng.uniform((self.HALF + 1.0, -5.0, 0.5),
                              (self.HALF + 3.0, 5.0, 2.0), size=(50, 3))
        seen, boxes = assert_same_pass(
            monkeypatch, [PointCloud(outside), PointCloud.empty(),
                          self.frame(rng)],
            self.background(), self.DISTANCE, self.HALF)
        assert len(seen[0]) == len(seen[1]) == 0
        assert boxes[0] == boxes[1] == []

    def test_no_crop_uses_the_whole_background(self, monkeypatch, rng):
        seen, _ = assert_same_pass(monkeypatch, [self.frame(rng)],
                                   self.background(), self.DISTANCE, None)
        # the point one ulp outside the square survives without a crop
        assert np.any(seen[0].points[:, 0] > self.HALF)

    def test_crossroad_frames(self, monkeypatch, busy_scene):
        nodes = sorted(busy_scene.node_frames)
        clouds = [_fused_cloud(busy_scene.node_frames, busy_scene.extrinsics,
                               nodes, frame)
                  for frame in range(3)]
        _, boxes = assert_same_pass(monkeypatch, clouds,
                                    busy_scene.reference_cloud, 0.5,
                                    0.6 * busy_scene.spec.extent)
        assert any(boxes)


class TestPipelineConfig:
    def test_defaults_round_trip(self):
        assert PipelineConfig.from_dict({}) == PipelineConfig()

    @pytest.mark.parametrize("seed", [0, 5])
    def test_seed_seeds_the_sync_simulator(self, seed):
        direct = PipelineConfig(seed=seed)
        assert direct == PipelineConfig.from_dict({"seed": seed})
        assert direct.sync.seed == seed
        assert replace(direct, seed=7).sync.seed == 7

    def test_partial_hierarchy_keeps_crossroad_values(self):
        cfg = PipelineConfig.from_dict(
            {"hierarchy": {"ransac_iterations": 8000,
                           "arbitration_hypotheses": 16}})
        assert cfg.hierarchy == replace(crossroad_hierarchy(),
                                        ransac_iterations=8000,
                                        arbitration_hypotheses=16)

    def test_hierarchy_levels_parsed(self):
        hierarchy = hierarchy_from_dict({"levels": [[2.0, 4.0, 10],
                                                    [0.5, 1.0, 20]]})
        assert hierarchy.levels == (HierarchyLevel(2.0, 4.0, 10),
                                    HierarchyLevel(0.5, 1.0, 20))
        assert hierarchy.fpfh_radius == crossroad_hierarchy().fpfh_radius

    @pytest.mark.parametrize("raw", [{"levels": [[1.0, 2.0]]},
                                     {"levels": [[1.0, 2.0, 40.5]]},
                                     {"levels": [["1", 2.0, 40]]},
                                     {"levels": 3}, {"ransac": 1}, []])
    def test_bad_hierarchy_rejected(self, raw):
        with pytest.raises(ConfigError):
            hierarchy_from_dict(raw)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"scnee": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"detector": {"clusterdist": 1.0}})

    def test_thresholds_parsed_by_class_name(self):
        cfg = PipelineConfig.from_dict(
            {"eval_det": {"iou_thresholds": {"Car": 0.5, "Cyclist": 0.25,
                                             "Pedestrian": 0.25}}})
        assert cfg.eval_det.iou_thresholds[ObjectClass.CAR] == 0.5

    def test_partial_thresholds_keep_the_defaults(self):
        cfg = PipelineConfig.from_dict({"eval_det": {"iou_thresholds":
                                                     {"Car": 0.5}}})
        assert cfg.eval_det.iou_thresholds == {
            **DetectionEvalConfig().iou_thresholds, ObjectClass.CAR: 0.5}

    @pytest.mark.parametrize("raw", [
        [], {"scene": []}, {"seed": True}, {"seed": -1},
        {"scene": {"occluders": "no"}}, {"sync": {"node_count": 2.5}},
        {"eval_det": {"iou_thresholds": {"Truck": 0.5}}},
        {"scene": {"extent": "wide"}}, {"detector": {"seed": 0.5}},
        {"tracker": {"min_hits": 1.5}}, {"eval_mot": {"threshold": True}},
        {"hierarchy": {"ransac_iterations": "many"}},
        {"sync": {"duration_s": "long"}}, {"sync": {"duration_s": math.nan}},
        {"scene": {"extent": math.inf}}, {"detector": {"cluster_distance":
                                                       -math.inf}},
        {"hierarchy": {"levels": [[1.0, math.nan, 30]]}}, {"output_dir": 5}])
    def test_bad_values_rejected(self, raw):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict(raw)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            PipelineConfig.from_json(path)


class TestThreadBudget:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("MVLK_THREADS", "1")
        assert thread_budget() == 1

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("MVLK_THREADS", "lots")
        with pytest.raises(ConfigError):
            thread_budget()


def fast_pipeline_config(seed=3):
    return PipelineConfig.from_dict({
        "seed": seed,
        "scene": {"frames": 6},
        "hierarchy": {"levels": [[1.0, 2.0, 30], [0.4, 0.8, 40]],
                      "fpfh_radius": 3.0, "normal_radius": 2.5,
                      "ransac_iterations": 8000,
                      "ransac_inlier_threshold": 1.5},
        "eval_det": {"iou_thresholds": {"Car": 0.25, "Cyclist": 0.25,
                                        "Pedestrian": 0.25}},
        "sync": {"duration_s": 2.0},
    })


MACHINE_OUTPUTS = ["calibration.jsonl", "detections.jsonl",
                   "trajectories.jsonl", "metrics.json", "report.txt",
                   "sync_report.json"]


class TestRunPipeline:
    def test_run_environment(self, monkeypatch):
        monkeypatch.setenv("MVLK_THREADS", "1")
        assert run_environment() == {
            "threads": 1, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}

    def test_outputs_and_determinism(self, tmp_path):
        cfg = fast_pipeline_config()
        manifest_a = run_pipeline(cfg, output_dir=str(tmp_path / "a"))
        manifest_b = run_pipeline(cfg, output_dir=str(tmp_path / "b"))
        for name in MACHINE_OUTPUTS:
            assert (tmp_path / "a" / name).exists(), name
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name
        assert manifest_a["seed"] == manifest_b["seed"] == 3
        assert manifest_a["environment"] == run_environment()
        written = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert set(written["environment"]) == {"threads", "python", "numpy",
                                               "scipy"}
        assert [s["name"] for s in manifest_a["stages"]] == \
            ["scene", "calibrate", "sync-sim", "detect", "track", "evaluate"]

    def test_metrics_content(self, tmp_path):
        cfg = fast_pipeline_config(seed=4)
        run_pipeline(cfg, output_dir=str(tmp_path / "run"))
        metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert set(metrics["detection_ap"]) == {"Car", "Cyclist", "Pedestrian"}
        assert 0.0 <= metrics["tracking"]["mota"] <= 1.0
        assert "views0+1+2+3" in metrics["view_groups"]
        assert "early fusion" in metrics["fusion_methods"]
        report = (tmp_path / "run" / "report.txt").read_text()
        assert "view group" in report and "fusion method" in report
