import hashlib
import inspect
import itertools
import json
import math
import platform
from dataclasses import replace

import numpy as np
import pytest
import scipy
from scipy.spatial import cKDTree

from conftest import box_surface, fused_cloud, ground_grid
from mvlidar import detector, fusion, pipeline
from mvlidar.detector import BACKGROUND_DISTANCE, DetectorConfig, \
    detect_frame, prepare_background, subtract_background
from mvlidar.errors import CalibrationFailedError, ConfigError, FormatError
from mvlidar.geometry import ObjectClass, PointCloud, apply_transform, \
    transform_distance
from mvlidar.metrics import DetectionEvalConfig
from mvlidar.pipeline import (
    DetectionViews,
    PipelineConfig,
    VIEW_GROUPS,
    calibrate_node,
    crossroad_hierarchy,
    detect_per_frame,
    detect_views,
    detection_half_extent,
    in_square,
    read_config_json,
    run_environment,
    run_fusion_comparison,
    run_pipeline,
    run_view_group_experiment,
)
from mvlidar.registration import HierarchyConfig, HierarchyLevel, \
    hierarchical_register
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
                                 ransac_inlier_threshold=1.5,
                                 arbitration_hypotheses=32)


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


@pytest.fixture(scope="module")
def view_groups(busy_scene):
    return run_view_group_experiment(
        busy_scene, busy_scene.extrinsics, DetectorConfig(),
        DetectionEvalConfig.with_threshold(0.25))


@pytest.fixture(scope="module")
def fusion_methods(busy_scene):
    return run_fusion_comparison(
        busy_scene, busy_scene.extrinsics, DetectorConfig(),
        DetectionEvalConfig.with_threshold(0.25))


class TestExperiments:
    def test_view_groups_report_all_groups(self, view_groups):
        assert list(view_groups) == ["views" + "+".join(map(str, group))
                                     for group in VIEW_GROUPS]
        assert set(view_groups) == {"views0", "views0+2", "views0+1+2+3"}
        assert view_groups["views0"]["frames_integrated"] == 4
        assert view_groups["views0+1+2+3"]["frames_integrated"] == 1
        for data in view_groups.values():
            assert 0.0 <= data["overall_recall"] <= 1.0

    def test_more_views_never_hurt_recall(self, view_groups):
        assert view_groups["views0"]["overall_recall"] <= \
            view_groups["views0+2"]["overall_recall"] <= \
            view_groups["views0+1+2+3"]["overall_recall"]

    def test_fusion_comparison_reports_all_methods(self, fusion_methods):
        assert {"view 0", "view 1", "view 2", "view 3", "nms fusion",
                "average fusion", "early fusion"} == set(fusion_methods)

    def test_four_views_and_early_fusion_detect_alike(self, view_groups,
                                                      fusion_methods):
        """Both rows are one detection pass over the same fused frames."""
        assert view_groups["views0+1+2+3"]["ap"] == \
            fusion_methods["early fusion"]["ap"]
        assert any(fusion_methods["early fusion"]["ap"].values())


class TestDetectViews:
    def test_single_view_equals_the_transformed_view(self, busy_scene):
        """One node through ``detect_views`` gives, box for box, the pass
        over its frames mapped to the world frame."""
        scene, cfg = busy_scene, DetectorConfig()
        views = DetectionViews.build(scene, scene.extrinsics)
        found = 0
        for node in sorted(scene.node_frames):
            clouds = [apply_transform(scene.extrinsics[node], frame)
                      for frame in scene.node_frames[node]]
            expected = detect_per_frame(
                clouds, cfg, background=scene.reference_cloud,
                crop_half_extent=detection_half_extent(scene.spec))
            actual = detect_views(views, (node,), cfg)
            assert [[box_key(b) for b in frame] for frame in actual] == \
                [[box_key(b) for b in frame] for frame in expected]
            found += sum(map(len, actual))
        assert found > 0


def full_background_pass(clouds, background, distance, crop):
    """Reference detection pass: each frame against the whole background on
    a balanced tree, then the crop. Returns the kept clouds and the boxes."""
    kept = []
    tree = cKDTree(background.points) if len(background) else None
    for cloud in clouds:
        if len(cloud) and tree is not None:
            nearest, _ = tree.query(cloud.points,
                                    distance_upper_bound=distance)
            cloud = cloud.select(~np.isfinite(nearest))
        if crop is not None and len(cloud):
            cloud = cloud.select(
                np.max(np.abs(cloud.points[:, :2]), axis=1) <= crop)
        kept.append(cloud)
    return kept, [detect_frame(cloud, DetectorConfig()) for cloud in kept]


def box_key(box):
    return (box.center.tolist(), box.size.tolist(), box.yaw, box.label,
            box.score)


def assert_same_pass(monkeypatch, clouds, background, crop=None):
    seen, subtracted = [], []

    def recording_detect_frame(cloud, cfg):
        seen.append(cloud)
        return detect_frame(cloud, cfg)

    def recording_subtract(cloud, background):
        subtracted.append(len(cloud))
        # the crop comes first: no point outside the square is queried
        if crop is not None:
            assert in_square(cloud.points, crop).all()
        return subtract_background(cloud, background)

    monkeypatch.setattr(pipeline, "detect_frame", recording_detect_frame)
    monkeypatch.setattr(pipeline, "subtract_background", recording_subtract)
    boxes = detect_per_frame(clouds, DetectorConfig(), background=background,
                             crop_half_extent=crop)
    expected_clouds, expected_boxes = full_background_pass(
        clouds, background, BACKGROUND_DISTANCE, crop)
    assert len(subtracted) == len(seen) == len(expected_clouds)
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
    """detect_per_frame crops each frame to the detection square before it
    subtracts the background, and the background once to the square plus
    BACKGROUND_DISTANCE; every frame keeps the points and boxes that
    subtracting the whole background and then cropping keeps."""

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
                                       self.background(), self.HALF)
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
                                   self.background(), half)
        np.testing.assert_array_equal(seen[0].points, corners)

    def test_frame_empty_after_the_crop(self, monkeypatch, rng):
        outside = rng.uniform((self.HALF + 1.0, -5.0, 0.5),
                              (self.HALF + 3.0, 5.0, 2.0), size=(50, 3))
        seen, boxes = assert_same_pass(
            monkeypatch, [PointCloud(outside), PointCloud.empty(),
                          self.frame(rng)],
            self.background(), self.HALF)
        assert len(seen[0]) == len(seen[1]) == 0
        assert boxes[0] == boxes[1] == []

    def test_background_empty_after_its_crop_rejected(self, rng):
        frames, cfg = [self.frame(rng)], DetectorConfig()
        far = PointCloud([[100.0, 100.0, 0.0]])
        with pytest.raises(FormatError, match=(
                r"^background scan holds no points within 0\.5 m of the "
                r"detection square \|x\|, \|y\| <= 10\.0$")):
            detect_per_frame(frames, cfg, background=far,
                             crop_half_extent=self.HALF)
        with pytest.raises(FormatError,
                           match="^background scan holds no points$"):
            detect_per_frame(frames, cfg, background=PointCloud.empty())
        # uncropped, the far point is a background like any other
        assert detect_per_frame(frames, cfg, background=far)

    def test_background_prepared_for_another_crop_rejected(self, rng):
        prepared = prepare_background(self.background(), self.HALF)
        with pytest.raises(ValueError, match="prepared for the crop 10.0"):
            detect_per_frame([self.frame(rng)], DetectorConfig(),
                             background=prepared, crop_half_extent=9.0)

    def test_no_crop_uses_the_whole_background(self, monkeypatch, rng):
        seen, _ = assert_same_pass(monkeypatch, [self.frame(rng)],
                                   self.background(), None)
        # the point one ulp outside the square survives without a crop
        assert np.any(seen[0].points[:, 0] > self.HALF)

    def test_crossroad_frames(self, monkeypatch, busy_scene):
        nodes = sorted(busy_scene.node_frames)
        clouds = [fused_cloud(busy_scene.node_frames, busy_scene.extrinsics,
                               nodes, frame)
                  for frame in range(3)]
        _, boxes = assert_same_pass(monkeypatch, clouds,
                                    busy_scene.reference_cloud,
                                    0.6 * busy_scene.spec.extent)
        assert any(boxes)


@pytest.fixture(scope="module", params=[0, 101])
def crossroad(request):
    """The default crossroad layout recorded with seeds 0 and 101, as the
    benchmark renders it, cut to 3 frames."""
    spec = standard_crossroad_spec(n_frames=3, seed=0)
    return generate_synthetic_scene(spec, seed=request.param)


def crossroad_passes(scene):
    """(nodes, integrate) of the detect stage and of every pass of the two
    experiments."""
    nodes = tuple(sorted(scene.node_frames))
    return ([(nodes, 1)]
            + [(group, len(nodes) // len(group)) for group in VIEW_GROUPS]
            + [((node,), 1) for node in nodes] + [(nodes, 1)])


def fused_pass(scene, nodes, integrate):
    """The oracle of a detection pass: each frame fused, integrated and
    cropped from the node frames by ``fused_cloud`` and ``detect_per_frame``
    alone. Returns the cropped clouds and the boxes."""
    half = detection_half_extent(scene.spec)
    clouds = [fused_cloud(scene.node_frames, scene.extrinsics, nodes, frame,
                          integrate)
              for frame in range(scene.spec.n_frames)]
    boxes = detect_per_frame(clouds, DetectorConfig(),
                             background=scene.reference_cloud,
                             crop_half_extent=half)
    return [cloud.select(in_square(cloud.points, half))
            for cloud in clouds], boxes


def recorded_passes(monkeypatch, scene):
    """The clouds and boxes of every detection pass of the detect stage
    (as ``run_pipeline`` makes it) and of both experiments."""
    passes = []

    def recording(clouds, cfg, background, crop_half_extent=None):
        boxes = detect_per_frame(clouds, cfg, background, crop_half_extent)
        passes.append((clouds, crop_half_extent, boxes))
        return boxes

    monkeypatch.setattr(pipeline, "detect_per_frame", recording)
    cfg, eval_cfg = DetectorConfig(), DetectionEvalConfig()
    detect_views(DetectionViews.build(scene, scene.extrinsics),
                 sorted(scene.node_frames), cfg)
    run_view_group_experiment(scene, scene.extrinsics, cfg, eval_cfg)
    run_fusion_comparison(scene, scene.extrinsics, cfg, eval_cfg)
    assert len(passes) == len(crossroad_passes(scene)) == 9
    return passes


def with_empty_frame(scene, node, frame):
    """``scene`` with one node frame emptied, its timestamp kept."""
    frames = list(scene.node_frames[node])
    frames[frame] = PointCloud(np.zeros((0, 3)),
                               timestamp_ns=frames[frame].timestamp_ns)
    return replace(scene, node_frames={**scene.node_frames, node: frames})


class TestPreparedBackgroundPasses:
    """Every detection pass of the detect stage and of both experiments,
    built from one table of world-frame node views, gives the boxes of the
    pass that fuses each frame anew, and of the full-tree oracle; the
    background grid leaves the trees and queries a fraction of the work,
    and each experiment transforms each node frame once."""

    def assert_passes_match(self, monkeypatch, scene):
        passes = recorded_passes(monkeypatch, scene)
        for (clouds, crop, boxes), (nodes, integrate) in zip(
                passes, crossroad_passes(scene)):
            expected_clouds, expected = fused_pass(scene, nodes, integrate)
            for cloud, oracle in zip(clouds, expected_clouds):
                assert np.array_equal(cloud.points, oracle.points)
            assert [[box_key(b) for b in frame] for frame in boxes] == \
                [[box_key(b) for b in frame] for frame in expected]
            _, full_tree = full_background_pass(
                clouds, scene.reference_cloud, BACKGROUND_DISTANCE, crop)
            assert [[box_key(b) for b in frame] for frame in boxes] == \
                [[box_key(b) for b in frame] for frame in full_tree]
        return passes

    def test_every_pass_matches_the_full_tree(self, monkeypatch, crossroad):
        scene = crossroad
        passes = self.assert_passes_match(monkeypatch, scene)
        assert sum(len(frame) for _, _, boxes in passes for frame in boxes)
        # node 1 stands on a wall: no point of its frames is in the square
        views = DetectionViews.build(scene, scene.extrinsics)
        assert len(scene.node_frames[1][0]) > 0
        assert not any(len(frame) for frame in views.frames[1])
        view_1 = passes[5]  # after the detect stage, 3 groups and view 0
        assert not any(len(cloud) for cloud in view_1[0])
        # the group of one view integrates 4 frames, so 1, 2 and 3 of them
        # at frames 0, 1 and 2
        single = views.frames[0]
        assert [len(cloud) for cloud in passes[1][0]] == [
            sum(len(single[k]) for k in range(frame + 1))
            for frame in range(3)]

    def test_empty_node_frame(self, monkeypatch, crossroad):
        """An empty frame of a node that sees the square, inside and at the
        end of the integration windows."""
        scene = with_empty_frame(with_empty_frame(crossroad, 2, 1), 0, 2)
        passes = self.assert_passes_match(monkeypatch, scene)
        assert any(passes[0][2])

    def test_each_experiment_transforms_each_node_frame_once(
            self, monkeypatch, crossroad):
        scene, cfg, eval_cfg = crossroad, DetectorConfig(), \
            DetectionEvalConfig()
        transforms, prepared = [], []

        def counting(transform, cloud):
            transforms.append(cloud)
            return apply_transform(transform, cloud)

        def counting_prepare(*args, **kwargs):
            prepared.append(args[0])
            return prepare_background(*args, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("a pass fused its frames again")

        monkeypatch.setattr(pipeline, "apply_transform", counting)
        monkeypatch.setattr(pipeline, "prepare_background", counting_prepare)
        for name in ("early_fuse", "temporal_integrate"):
            monkeypatch.setattr(fusion, name, refused)
        node_frames = [frame for frames in scene.node_frames.values()
                       for frame in frames]
        views = DetectionViews.build(scene, scene.extrinsics)
        for experiment in (run_view_group_experiment, run_fusion_comparison):
            transforms.clear()
            prepared.clear()
            experiment(scene, scene.extrinsics, cfg, eval_cfg)
            assert len(transforms) == len(node_frames) == 4 * 3
            assert all(any(cloud is frame for frame in node_frames)
                       for cloud in transforms)
            assert prepared == [scene.reference_cloud]
            transforms.clear()
            prepared.clear()
            experiment(scene, scene.extrinsics, cfg, eval_cfg, views)
            assert transforms == prepared == []

    def test_work_guard(self, monkeypatch, crossroad):
        """Summed over the frames, the trees hold less than half the
        cropped background, and no queried point shares a fine cell with
        a background point: a fallback to the full tree fails both."""
        scene = crossroad
        trees = []

        class RecordingTree(cKDTree):
            def __init__(self, data, *args, **kwargs):
                super().__init__(data, *args, **kwargs)
                trees.append((len(data), []))

            def query(self, x, *args, **kwargs):
                trees[-1][1].append(np.array(x))
                return super().query(x, *args, **kwargs)

        monkeypatch.setattr(detector, "cKDTree", RecordingTree)
        views = DetectionViews.build(scene, scene.extrinsics)
        background = views.background
        frames = 0
        for nodes, integrate in crossroad_passes(scene):
            for frame in range(scene.spec.n_frames):
                subtract_background(fusion.fuse_window(
                    views.frames, nodes, frame, integrate), background)
                frames += 1
        assert len(trees) == frames
        assert sum(size for size, _ in trees) < 0.5 * frames * len(
            background.points)
        # the fine cells, side distance / 2 from the background's minimum
        side = BACKGROUND_DISTANCE / 2
        origin = background.points.min(axis=0)
        occupied = {tuple(cell) for cell in np.floor(
            (background.points - origin) / side).astype(int).tolist()}
        queried = np.vstack([x for _, xs in trees for x in xs])
        assert 0 < len(queried)
        assert not any(tuple(cell) in occupied for cell in np.floor(
            (queried - origin) / side).astype(int).tolist())


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
        hierarchy = PipelineConfig.from_dict({"hierarchy": {
            "levels": [[2.0, 4.0, 10], [0.5, 1.0, 20]]}}).hierarchy
        assert hierarchy.levels == (HierarchyLevel(2.0, 4.0, 10),
                                    HierarchyLevel(0.5, 1.0, 20))
        assert hierarchy.fpfh_radius == crossroad_hierarchy().fpfh_radius

    def test_one_set_of_registration_defaults(self):
        """A caller that passes no schedule registers with the one that
        ``run_pipeline`` and ``mvlidar calibrate`` use."""
        schedule = PipelineConfig().hierarchy
        for function in (calibrate_node, hierarchical_register):
            default = inspect.signature(function).parameters["cfg"].default
            assert default == schedule, function.__name__
        assert PipelineConfig.from_dict({"hierarchy": {}}).hierarchy \
            == schedule == crossroad_hierarchy()

    @pytest.mark.parametrize("raw", [{"levels": [[1.0, 2.0]]},
                                     {"levels": [[1.0, 2.0, 40.5]]},
                                     {"levels": [["1", 2.0, 40]]},
                                     {"levels": 3}, {"ransac": 1}, []])
    def test_bad_hierarchy_rejected(self, raw):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"hierarchy": raw})

    @pytest.mark.parametrize("levels, message", [
        ([[1.0, 2.0]], "hierarchy.levels[0] must be [voxel_size, "
         "max_correspondence_distance, max_iterations], got [1.0, 2.0]"),
        ([[2.0, 4.0, 10], "abc"], "hierarchy.levels[1] must be [voxel_size, "
         "max_correspondence_distance, max_iterations], got 'abc'"),
        (5, "hierarchy.levels must be a list of levels, got 5"),
        ("abc", "hierarchy.levels must be a list of levels, got 'abc'")])
    def test_malformed_levels_named_by_config_path(self, levels, message):
        for parse in (
                lambda: PipelineConfig.from_dict({"hierarchy":
                                                  {"levels": levels}}),
                lambda: HierarchyConfig(levels=levels)):
            with pytest.raises(ConfigError) as refused:
                parse()
            assert str(refused.value) == message

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
        {"hierarchy": {"levels": [[1.0, math.nan, 30]]}}, {"output_dir": 5},
        {"tracker": {"max_age": -1}},
        {"tracker": {"min_hits": 0}},
        {"tracker": {"threshold": -5.0}}, {"sync": {"delay_max_s": 1e308}},
        {"sync": {"frame_rate_hz": 3e9, "duration_s": 1e-6}}])
    def test_bad_values_rejected(self, raw):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict(raw)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            read_config_json(path)

    def test_config_digest_is_of_the_parsed_bytes(self, tmp_path):
        data = b'{"seed": 5, "scene": {"frames": 4}}'
        (tmp_path / "cfg.json").write_bytes(data)
        raw, digest = read_config_json(tmp_path / "cfg.json")
        assert raw == json.loads(data)
        assert digest == hashlib.sha256(data).hexdigest()

    def test_unreadable_config_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="^cannot load config "):
            read_config_json(tmp_path)
        # bytes that are no JSON text encoding
        (tmp_path / "cfg.json").write_bytes(b'{"seed": \xff}')
        with pytest.raises(ConfigError, match="^cannot load config "):
            read_config_json(tmp_path / "cfg.json")


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

# The byte-identity contract: the sha256 of each output of
# fast_pipeline_config(), and the versions they were recorded with. A
# change to these bytes, a library upgrade's rounding included, is a
# contract event: only a fix of a bug in the outputs updates them.
PINNED_ENVIRONMENT = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
                      "blas": "scipy-openblas 0.3.31.188.0"}
PINNED_DIGESTS = {
    "calibration.jsonl":
        "0015da7583ecde1499fa3c7d25ea7593b7a41cce20c53473ce4eef42369f95a9",
    "detections.jsonl":
        "77cddf39e2ecee5a6781f44f78bde5c28efb7810cb03d48f9010bf7e00fb543e",
    "trajectories.jsonl":
        "631e643eaebf157d24c4c3bc91a45cd3e9acc1f85694e8620bc5f915a8752053",
    "metrics.json":
        "bc945c7ed9e4982f05bb15502edf35996f224d4c05d09c8550f18b8aaa5493f6",
    "report.txt":
        "8f66bff2b4f2271f2a628b092d5beb7120c140b6efe66fdc9976242de30612d0",
    "sync_report.json":
        "e4e2e1f6d0a0344e9e09e5f5bf73130a13690b64f71257a27a64a0bedbd744f5",
}


class TestRunPipeline:
    def test_run_environment(self, monkeypatch):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert run_environment() == {
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}
        monkeypatch.setattr(np, "show_config", lambda mode: {})
        assert run_environment()["blas"] == "unknown"

    def test_outputs_and_determinism(self, tmp_path, monkeypatch):
        """Two runs write the same six outputs, and those are the pinned
        bytes. Each run moves every node frame to the world frame once,
        for the detect stage and both experiments together."""
        cfg = fast_pipeline_config()
        transforms = []

        def counting(transform, cloud):
            transforms.append(cloud)
            return apply_transform(transform, cloud)

        monkeypatch.setattr(pipeline, "apply_transform", counting)
        manifests = []
        for run in ("a", "b"):
            transforms.clear()
            manifests.append(run_pipeline(cfg,
                                          output_dir=str(tmp_path / run)))
            assert len(transforms) == 4 * cfg.scene_frames
        manifest_a, manifest_b = manifests
        here = {key: run_environment()[key] for key in PINNED_ENVIRONMENT}
        for name in MACHINE_OUTPUTS:
            assert (tmp_path / "a" / name).exists(), name
            data = (tmp_path / "a" / name).read_bytes()
            assert data == (tmp_path / "b" / name).read_bytes(), name
            digest = hashlib.sha256(data).hexdigest()
            assert digest == PINNED_DIGESTS[name], (
                f"{name}: sha256 {digest} under {here}, pinned "
                f"{PINNED_DIGESTS[name]} under {PINNED_ENVIRONMENT}")
        assert manifest_a["seed"] == manifest_b["seed"] == 3
        assert manifest_a["environment"] == run_environment()
        written = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert written["environment"] == run_environment()
        assert [s["name"] for s in manifest_a["stages"]] == \
            ["scene", "calibrate", "sync-sim", "detect", "track", "ap", "mot",
             "view-groups", "fusion-comparison"]

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
