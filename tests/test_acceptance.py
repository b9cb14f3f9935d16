"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Tolerances are pinned here and nowhere else.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import monte_carlo_iou_3d, random_box, random_transform
from test_metrics import brute_force_ap, brute_force_clear_mot, random_mot_instance

from mvlidar.cli import main as cli_main
from mvlidar.detector import DetectorConfig
from mvlidar.errors import BadMagicError, TruncatedPayloadError
from mvlidar.formats import read_calibration, read_frame, write_frame
from mvlidar.geometry import (
    Box3D,
    ObjectClass,
    PointCloud,
    transform_distance,
    iou_3d,
)
from mvlidar.metrics import (
    DetectionEvalConfig,
    MotEvalConfig,
    compute_ap,
    compute_clear_mot,
)
from mvlidar.pipeline import (
    PipelineConfig,
    calibrate_node,
    crossroad_hierarchy,
    run_fusion_comparison,
    run_pipeline,
    run_view_group_experiment,
)
from mvlidar.registration import (
    CornerPair,
    HierarchyLevel,
    evaluate_point_projection_error,
    icp_refine,
    solve_rigid_arun,
)
from mvlidar.scene import (
    calibration_capture,
    generate_synthetic_scene,
    look_at,
    standard_crossroad_spec,
)
from mvlidar.syncsim import (
    NS,
    NodeClockModel,
    SessionConfig,
    compute_time_error_report,
    simulate_session,
)
from mvlidar.tracking import TrackerConfig, TrajectorySet, TrackState, \
    kalman_predict, kalman_update, track_sequence
from mvlidar.geometry import RigidTransform, voxel_downsample


def report(criterion: int, detail: str):
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


# the standard crossroad acceptance suite: three seeded instances of the
# canonical spec; trend criteria hold on the means across the suite
CROSSROAD_SUITE_SEEDS = (29, 5, 9)


@pytest.fixture(scope="module")
def crossroad_suite():
    return [generate_synthetic_scene(standard_crossroad_spec(n_frames=10,
                                                             seed=seed),
                                     seed=seed)
            for seed in CROSSROAD_SUITE_SEEDS]


# ---------------------------------------------------------------------------
# 1. calibration recovery
# ---------------------------------------------------------------------------

def _calibration_scene_spec(seed: int):
    rng = np.random.default_rng([seed, 0xACC1])
    base = standard_crossroad_spec(n_frames=1, seed=seed)
    radius = rng.uniform(14.0, 27.0)
    angle = rng.uniform(-np.pi, np.pi)
    position = (radius * np.cos(angle), radius * np.sin(angle),
                rng.uniform(2.0, 4.0))
    target = (rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(0.0, 1.5))
    node = look_at(position, target, roll=float(rng.uniform(-np.pi, np.pi)))
    return replace(base, nodes=(node,), objects=(), n_frames=1,
                   azimuth_steps=24, elevation_steps=8,
                   reference_azimuth_steps=600, reference_elevation_steps=90,
                   reference_scanner_positions=base.reference_scanner_positions[:5])


def test_criterion_1_calibration_recovery(tmp_path):
    runs = 100
    hierarchy = replace(crossroad_hierarchy(),
                        levels=(HierarchyLevel(1.0, 2.0, 30),
                                HierarchyLevel(0.4, 0.8, 40)),
                        ransac_iterations=25_000)
    recovered = 0
    corner_means = []
    worst_seconds = 0.0
    corner_rng = np.random.default_rng(77)
    for seed in range(runs):
        spec = _calibration_scene_spec(seed)
        scene = generate_synthetic_scene(spec, seed=seed)
        truth = scene.extrinsics[0]
        assert np.linalg.norm(truth.translation) <= 30.0
        frames = calibration_capture(scene, 0, seed=seed, max_points=30_000)
        assert sum(len(f) for f in frames) >= 20_000
        started = time.monotonic()
        try:
            result = calibrate_node(frames, scene.reference_cloud, hierarchy,
                                    seed=seed,
                                    reference_viewpoint=scene.reference_viewpoint)
        except Exception:
            continue
        worst_seconds = max(worst_seconds, time.monotonic() - started)
        rot_err, tra_err = transform_distance(result.transform, truth)
        if rot_err < 1.0 and tra_err < 0.05:
            recovered += 1
            # 20 annotated corners: structure points, annotation noise 0.02 m
            structure = scene.reference_cloud.points
            structure = structure[structure[:, 2] > 0.3]
            picks = corner_rng.choice(len(structure), 20, replace=False)
            pairs = [CornerPair(annotated=truth.inverse().apply(w)
                                + corner_rng.normal(scale=0.02, size=3),
                                reference=w) for w in structure[picks]]
            corner_means.append(
                evaluate_point_projection_error(pairs, result.transform))

    # a few runs through the real CLI with on-disk frames
    cli_ok = 0
    for seed in (0, 1, 2):
        spec = _calibration_scene_spec(seed)
        scene = generate_synthetic_scene(spec, seed=seed)
        root = tmp_path / f"cli{seed}"
        node_dir = root / "calib" / "node_0"
        node_dir.mkdir(parents=True)
        for k, frame in enumerate(calibration_capture(scene, 0, seed=seed,
                                                      max_points=30_000)):
            write_frame(node_dir / f"frame_{k:05d}.mvlc", frame)
        write_frame(root / "reference.mvlc", scene.reference_cloud)
        out = root / "calibration.jsonl"
        code = cli_main(["calibrate", "--node-root", str(root / "calib"),
                         "--reference", str(root / "reference.mvlc"),
                         "--out", str(out), "--seed", str(seed)])
        if code == 0:
            rot_err, tra_err = transform_distance(read_calibration(out)[0],
                                                  scene.extrinsics[0])
            if rot_err < 1.0 and tra_err < 0.05:
                cli_ok += 1

    mean_corner = float(np.mean(corner_means))
    assert recovered >= 95, f"only {recovered}/100 recovered"
    assert cli_ok == 3
    assert mean_corner <= 0.035
    assert worst_seconds <= 30.0
    report(1, f"{recovered}/100 within 1 deg / 5 cm (CLI {cli_ok}/3); mean "
              f"corner error {mean_corner * 100:.1f} cm; worst run "
              f"{worst_seconds:.1f} s")


# ---------------------------------------------------------------------------
# 2. sync protocol
# ---------------------------------------------------------------------------

def test_criterion_2_sync_protocol():
    lidar_sessions = 1000
    all_within_1ms = True
    same_edge = True
    worst_start_spread = 0.0
    for seed in range(lidar_sessions):
        cfg = SessionConfig(node_count=4, duration_s=2.0, seed=seed,
                            delay_min_s=0.001, delay_max_s=0.2)
        trace = simulate_session(cfg)
        armed = trace.armed_nodes()
        if len({n.start_pps_index for n in armed}) != 1:
            same_edge = False
        starts = [n.start_true_ns for n in armed]
        worst_start_spread = max(worst_start_spread,
                                 (max(starts) - min(starts)) / NS)
        rep = compute_time_error_report(trace)
        if rep.max_abs_s >= 1e-3:
            all_within_1ms = False

    camera_means = []
    for seed in range(200):
        cfg = SessionConfig(node_count=4, duration_s=2.0, seed=seed,
                            clocks=[NodeClockModel.camera()] * 4,
                            delay_min_s=0.001, delay_max_s=0.2)
        rep = compute_time_error_report(simulate_session(cfg))
        camera_means.append(np.mean([s.mean_abs_s for s in rep.stats]))
    camera_mean = float(np.mean(camera_means))

    assert same_edge, "some session had nodes on different PPS edges"
    assert worst_start_spread < 2e-6
    assert all_within_1ms
    assert 0.2e-3 <= camera_mean <= 2e-3  # same order as the 1 ms claim
    report(2, f"1000 sessions on one PPS edge, start spread "
              f"{worst_start_spread * 1e6:.2f} us, LiDAR errors < 1 ms, "
              f"camera mean {camera_mean * 1e3:.2f} ms")


# ---------------------------------------------------------------------------
# 3. view-count monotonicity
# ---------------------------------------------------------------------------

def test_criterion_3_view_count_monotonicity(crossroad_suite):
    recalls = np.zeros(3)
    for scene in crossroad_suite:
        results = run_view_group_experiment(
            scene, scene.extrinsics, DetectorConfig(cluster_distance=0.7),
            DetectionEvalConfig.with_threshold(0.25))
        recalls += [results["views0"]["overall_recall"],
                    results["views0+2"]["overall_recall"],
                    results["views0+1+2+3"]["overall_recall"]]
    r1, r2, r4 = recalls / len(crossroad_suite)
    assert r1 <= r2 <= r4
    assert r4 - r1 >= 0.10
    report(3, f"recall 1 view {r1:.3f} <= 2 views {r2:.3f} <= 4 views "
              f"{r4:.3f}; spread {r4 - r1:.3f} >= 0.10")


# ---------------------------------------------------------------------------
# 4. fusion ordering
# ---------------------------------------------------------------------------

def test_criterion_4_fusion_ordering(crossroad_suite):
    early = average = nms = best_single = 0.0
    for scene in crossroad_suite:
        results = run_fusion_comparison(
            scene, scene.extrinsics, DetectorConfig(cluster_distance=0.7),
            DetectionEvalConfig.with_threshold(0.25))
        early += results["early fusion"]["overall_ap"]
        average += results["average fusion"]["overall_ap"]
        nms += results["nms fusion"]["overall_ap"]
        best_single += max(results[f"view {v}"]["overall_ap"]
                           for v in range(4))
    n = len(crossroad_suite)
    early, average, nms, best_single = (early / n, average / n, nms / n,
                                        best_single / n)
    assert early >= average >= nms >= best_single
    report(4, f"AP early {early:.3f} >= average {average:.3f} >= NMS "
              f"{nms:.3f} >= best single view {best_single:.3f}")


# ---------------------------------------------------------------------------
# 5. metric oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(505)
    cfg = DetectionEvalConfig()
    for _ in range(200):
        n_gt = int(rng.integers(1, 6))
        gt = [(int(rng.integers(0, 3)),
               Box3D((float(rng.uniform(-30, 30)), float(rng.uniform(-5, 5)),
                      0.75), (4.0, 2.0, 1.5), 0.0, ObjectClass.CAR))
              for _ in range(n_gt)]
        dets = []
        for _ in range(int(rng.integers(1, 11))):
            if rng.random() < 0.6:
                frame, target = gt[int(rng.integers(0, len(gt)))]
                dets.append((frame, Box3D(
                    target.center + rng.normal(scale=0.3, size=3) * (1, 1, 0),
                    (4.0, 2.0, 1.5), 0.0, ObjectClass.CAR,
                    score=float(rng.uniform(0.05, 1.0)))))
            else:
                dets.append((int(rng.integers(0, 3)), Box3D(
                    (float(rng.uniform(-30, 30)), float(rng.uniform(10, 20)),
                     0.75), (4.0, 2.0, 1.5), 0.0, ObjectClass.CAR,
                    score=float(rng.uniform(0.05, 1.0)))))
        got = compute_ap(dets, gt, ObjectClass.CAR, cfg)
        want = brute_force_ap(dets, gt, ObjectClass.CAR, cfg)
        assert got == pytest.approx(want, abs=1e-12)

    for _ in range(200):
        hyp, gt = random_mot_instance(rng, max_objects=10, n_frames=10)
        got = compute_clear_mot(hyp, gt)
        want = brute_force_clear_mot(hyp, gt, MotEvalConfig())
        assert got.mota == pytest.approx(want["mota"], abs=1e-12)
        assert got.motp == pytest.approx(want["motp"], abs=1e-12)
        assert (got.ids, got.frag, got.fn, got.fp, got.gt) == \
            (want["ids"], want["frag"], want["fn"], want["fp"], want["gt"])
        identity = 1.0 - (got.fn + got.fp + got.ids) / got.gt
        assert abs(got.mota - identity) <= 1e-12
    report(5, "AP matches cutoff enumeration on 200 instances; CLEAR matches "
              "brute force on 200 instances; MOTA identity exact")


# ---------------------------------------------------------------------------
# 6. tracker sanity
# ---------------------------------------------------------------------------

def _walker_boxes(n_frames=120, walkers=4):
    paths = []
    for w in range(walkers):
        start = np.array([25.0 * w - 37.5, -15.0 + 7.0 * w])
        velocity = np.array([(1, 0.3), (-0.8, 0.6), (0.5, -0.9),
                             (-0.4, -0.5)][w])
        paths.append((start, velocity))
    frames = []
    for f in range(n_frames):
        boxes = []
        for w, (start, velocity) in enumerate(paths):
            pos = start + velocity * 0.1 * f
            boxes.append(Box3D((pos[0], pos[1], 0.85), (0.6, 0.6, 1.7),
                               math.atan2(velocity[1], velocity[0]),
                               ObjectClass.PEDESTRIAN, score=0.9,
                               track_id=w + 1))
        frames.append(boxes)
    return frames


def replace_box(box: Box3D) -> Box3D:
    """Detection copy of a ground-truth box (no track id)."""
    return Box3D(box.center, box.size, box.yaw, box.label, score=box.score)


def test_criterion_6_tracker_sanity():
    frames = _walker_boxes()
    gt = TrajectorySet({w + 1: [(f, frames[f][w]) for f in range(len(frames))]
                        for w in range(4)})
    detections = [[replace_box(b) for b in boxes] for boxes in frames]
    result = track_sequence(detections, TrackerConfig(), frame_dt=0.1)
    perfect = compute_clear_mot(result, gt)
    assert perfect.mota == 1.0
    assert perfect.ids == 0 and perfect.frag == 0

    # 10% dropout: per-view occlusion windows plus iid dropout; the fused
    # stream only misses when every view misses
    rng = np.random.default_rng(66)
    n_frames = len(frames)
    views = 4
    visible = np.ones((views, n_frames, 4), dtype=bool)
    for view in range(views):
        for w in range(4):
            start = int(rng.integers(0, n_frames - 30))
            visible[view, start:start + 25, w] = False     # occlusion window
    visible &= rng.random((views, n_frames, 4)) > 0.10     # iid dropout

    def run_stream(mask):
        stream = [[replace_box(frames[f][w]) for w in range(4) if mask[f, w]]
                  for f in range(n_frames)]
        return compute_clear_mot(
            track_sequence(stream, TrackerConfig(), frame_dt=0.1), gt)

    fused_report = run_stream(visible.any(axis=0))
    single_reports = [run_stream(visible[v]) for v in range(views)]
    for view, single in enumerate(single_reports):
        assert fused_report.frag < single.frag, f"view {view}"
        assert fused_report.fn < single.fn, f"view {view}"
    report(6, f"perfect: MOTA 1.0, IDS 0, FRAG 0; dropout: fused FRAG "
              f"{fused_report.frag} / FN {fused_report.fn} strictly below "
              f"every single view (FRAG {[s.frag for s in single_reports]}, "
              f"FN {[s.fn for s in single_reports]})")


# ---------------------------------------------------------------------------
# 7. numerical kernels
# ---------------------------------------------------------------------------

def test_criterion_7_numerical_kernels(rng):
    # rotated-box IoU vs the Monte-Carlo volume oracle
    worst = 0.0
    for _ in range(1000):
        a = random_box(rng, span=2.0)
        b = random_box(rng, span=2.0)
        worst = max(worst, abs(iou_3d(a, b) - monte_carlo_iou_3d(a, b, rng)))
    assert worst < 2e-3

    # closed-form rigid fit recovery
    for _ in range(300):
        truth = random_transform(rng, max_translation=20.0)
        source = rng.normal(scale=6.0, size=(50, 3))
        got = solve_rigid_arun(source, truth.apply(source))
        assert np.abs(got.rotation - truth.rotation).max() < 1e-9
        assert np.abs(got.translation - truth.translation).max() < 1e-9

    # ICP RMSE trace never increases
    from conftest import structured_scene_points
    for trial in range(8):
        world = structured_scene_points(rng, 5000)
        truth = random_transform(rng, max_translation=10.0)
        source = PointCloud(truth.inverse().apply(world)
                            + rng.normal(scale=0.02, size=world.shape))
        target = PointCloud(world + rng.normal(scale=0.02, size=world.shape))
        offset = RigidTransform.from_yaw(math.radians(4.0), (0.25, -0.15, 0.0))
        init = RigidTransform(truth.rotation @ offset.rotation,
                              truth.rotation @ offset.translation
                              + truth.translation)
        result = icp_refine(voxel_downsample(source, 0.4),
                            voxel_downsample(target, 0.4), init,
                            max_dist=1.0, max_iter=40)
        assert np.all(np.diff(result.rmse_history) <= 1e-15)

    # Kalman covariance stays positive definite
    track = TrackState(Box3D((0, 0, 0.8), (4.0, 2.0, 1.5), 0.0,
                             ObjectClass.CAR), 1)
    for step in range(10_000):
        kalman_predict(track, 0.1)
        if rng.random() < 0.7:
            center = track.mean[0:3] + rng.normal(scale=0.5, size=3)
            kalman_update(track, Box3D(center, (4.0, 2.0, 1.5),
                                       float(rng.uniform(-3, 3)),
                                       ObjectClass.CAR))
        if step % 100 == 0 or step > 9_900:
            assert np.linalg.eigvalsh(track.covariance).min() > 0.0
    assert np.linalg.eigvalsh(track.covariance).min() > 0.0
    report(7, f"IoU within {worst:.2e} of Monte Carlo on 1000 pairs; rigid "
              "fit to 1e-9; ICP RMSE monotone on 8 runs; Kalman covariance "
              "positive definite through 10k steps")


# ---------------------------------------------------------------------------
# 8. determinism and formats
# ---------------------------------------------------------------------------

MACHINE_OUTPUTS = ["calibration.jsonl", "detections.jsonl",
                   "trajectories.jsonl", "metrics.json", "report.txt",
                   "sync_report.json"]


def test_criterion_8_determinism_and_formats(tmp_path, rng):
    cfg = PipelineConfig.from_dict({
        "seed": 21,
        "scene": {"frames": 5},
        "eval_det": {"iou_thresholds": {"Car": 0.25, "Cyclist": 0.25,
                                        "Pedestrian": 0.25}},
        "sync": {"duration_s": 2.0},
    })
    run_pipeline(cfg, output_dir=str(tmp_path / "a"))
    run_pipeline(cfg, output_dir=str(tmp_path / "b"))
    for name in MACHINE_OUTPUTS:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name

    # lossless round trips
    cloud = PointCloud(rng.uniform(-40, 40, (500, 3)).astype(np.float32),
                       intensity=rng.random(500).astype(np.float32),
                       timestamp_ns=123, source_ids=rng.integers(0, 4, 500),
                       source_node=2)
    write_frame(tmp_path / "x.mvlc", cloud)
    loaded = read_frame(tmp_path / "x.mvlc")
    np.testing.assert_array_equal(loaded.points, cloud.points)
    np.testing.assert_array_equal(loaded.intensity, cloud.intensity)
    write_frame(tmp_path / "y.mvlc", loaded)
    assert (tmp_path / "x.mvlc").read_bytes() == (tmp_path / "y.mvlc").read_bytes()

    # malformed inputs produce the specified errors and exit codes
    bad = tmp_path / "bad.mvlc"
    bad.write_bytes(b"NOPE" + bytes(60))
    with pytest.raises(BadMagicError):
        read_frame(bad)
    truncated = tmp_path / "trunc.mvlc"
    truncated.write_bytes((tmp_path / "x.mvlc").read_bytes()[:-5])
    with pytest.raises(TruncatedPayloadError):
        read_frame(truncated)
    assert cli_main(["convert", str(bad), str(tmp_path / "z.xyz")]) == 2
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"nonsense": 1}')
    assert cli_main(["pipeline", "--config", str(bad_cfg)]) == 4
    report(8, "pipeline reruns byte-identical; frame and record round trips "
              "lossless; malformed inputs fail with the specified errors")


# ---------------------------------------------------------------------------
# 9. optional dataset replay
# ---------------------------------------------------------------------------

def test_criterion_9_dataset_replay():
    pytest.skip("published capture dataset not available in this environment; "
                "replay is optional and skips without failing the suite")
