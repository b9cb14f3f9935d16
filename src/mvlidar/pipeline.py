"""End-to-end orchestration: calibrate, fuse, detect, track, evaluate.

The pipeline runs the full chain on a synthetic crossroad scene and writes
every stage's machine-readable output plus a run manifest (seed, config
hash, per-stage timings). All outputs except the manifest's timings are
byte-identical across reruns with the same config.

Also implements the two standing experiments: detection quality versus the
number of fused views (with temporal integration equalizing the per-frame
point budget), and early versus late fusion of detection boxes.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import asdict, dataclass, field, fields
from dataclasses import replace as dc_replace
from typing import Optional, Sequence

import numpy as np
import scipy

from .detector import DetectorConfig, PreparedBackground, detect_frame, \
    in_square, prepare_background, subtract_background
from .errors import CalibrationFailedError, ConfigError, check_number
from .formats import (
    atomic_write,
    flatten_frames,
    unique_keys,
    write_calibration,
    write_detections,
    write_frame,
    write_json,
    write_trajectories,
)
from .fusion import fuse_window, late_fuse
from .geometry import ObjectClass, PointCloud, apply_transform, \
    check_time_order
from .metrics import (
    DetectionEvalConfig,
    MotEvalConfig,
    compute_ap,
    compute_clear_mot,
    format_ap_table,
    format_mot_table,
    recall_and_ap,
)
from .registration import (
    HierarchyConfig,
    RegistrationResult,
    accumulate_frames,
    hierarchical_register,
)
from .scene import MAX_SCENE_FRAMES, SceneSpec, SyntheticScene, \
    calibration_capture, generate_synthetic_scene, standard_crossroad_spec
from .syncsim import (
    NetworkModel,
    SessionConfig,
    compute_time_error_report,
    simulate_session,
)
from .tracking import TrackerConfig, track_sequence

FAILED_CALIBRATION_FITNESS = 0.2


def detection_half_extent(spec: SceneSpec) -> float:
    """Half side of the central square that detection is run and scored on."""
    return 0.6 * spec.extent


def thread_budget() -> int:
    """The threads detection runs on: 1, as every pass runs its frames in
    order on the calling thread. Kept for the benchmark harness, which
    records it in its settings."""
    return 1


def run_environment() -> dict:
    """The library versions a run's timings and outputs depend on, the BLAS
    numpy was built with included ("unknown" when numpy does not say)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas}


def calibrate_node(frames: Sequence[PointCloud], reference: PointCloud,
                   cfg: HierarchyConfig = HierarchyConfig(), seed: int = 0,
                   merge_duration_s: float = 10.0,
                   reference_viewpoint=(0.0, 0.0, 2.0)) -> RegistrationResult:
    """Register one node against the reference scan.

    Merges the node's frames over merge_duration_s into a dense cloud, then
    runs the full hierarchical registration. Raises CalibrationFailedError
    when the final fitness is below the failure threshold, rather than
    handing back a garbage transform.
    """
    merged = accumulate_frames(frames, merge_duration_s)
    result = hierarchical_register(merged, reference, cfg, seed=seed,
                                   target_viewpoint=reference_viewpoint)
    if result.fitness < FAILED_CALIBRATION_FITNESS:
        raise CalibrationFailedError(
            f"fitness {result.fitness:.3f} below "
            f"{FAILED_CALIBRATION_FITNESS}; calibration failed")
    return result


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def detect_per_frame(clouds: Sequence[PointCloud], cfg: DetectorConfig,
                     background: PointCloud | PreparedBackground,
                     crop_half_extent: Optional[float] = None) -> list:
    """Run the detector over frames in order, on the calling thread.

    ``crop_half_extent`` restricts detection to the annotated central area
    (|x| and |y| up to the bound); a frame already inside it passes as it
    is. The background, the reference scan of the empty scene, is
    subtracted per frame within BACKGROUND_DISTANCE, which strips the
    static structure and the ground with it. Each frame is cropped first
    and the background subtracted from what the crop keeps: a point's mask
    depends only on that point, so the order changes no output. The
    background is a ``PreparedBackground`` made with the same
    ``crop_half_extent``, or a plain cloud, which is prepared here once per
    call (``prepare_background`` crops it and raises FormatError when
    nothing is left).
    """
    if isinstance(background, PointCloud):
        background = prepare_background(background, crop_half_extent)
    elif background.crop_half_extent != crop_half_extent:
        raise ValueError(
            f"background prepared for the crop {background.crop_half_extent}"
            f", not {crop_half_extent}")
    boxes = []
    for cloud in clouds:
        if crop_half_extent is not None:
            keep = in_square(cloud.points, crop_half_extent)
            if not keep.all():
                cloud = cloud.select(keep)
        boxes.append(detect_frame(subtract_background(cloud, background),
                                  cfg))
    return boxes


@dataclass(frozen=True)
class DetectionViews:
    """What every detection pass over one scene shares, each made once: the
    reference scan prepared for the detection square, and every node frame
    moved to the world frame and cropped to that square.

    ``frames[node][k]`` is node frame ``k`` in the world frame, less its
    points outside the square, with its timestamp. A pass fuses these with
    ``fuse_window`` instead of moving and cropping the node frames again.
    """

    background: PreparedBackground
    frames: dict

    @staticmethod
    def build(scene: SyntheticScene, extrinsics: dict) -> "DetectionViews":
        """The views of every node of the scene. Raises ValueError when a
        node's frames are out of time order."""
        half = detection_half_extent(scene.spec)
        frames = {}
        for node in sorted(scene.node_frames):
            check_time_order(scene.node_frames[node])
            world = [apply_transform(extrinsics[node], frame)
                     for frame in scene.node_frames[node]]
            frames[node] = [cloud.select(in_square(cloud.points, half))
                            for cloud in world]
        return DetectionViews(
            background=prepare_background(scene.reference_cloud, half),
            frames=frames)


def detect_views(views: DetectionViews, nodes, detector_cfg: DetectorConfig,
                 integrate: int = 1) -> list:
    """Per-frame boxes of one detection pass over the views of ``nodes``:
    each frame's ``fuse_window`` over the last ``integrate`` frames, less
    the reference scan as background, within the detection square."""
    clouds = [fuse_window(views.frames, nodes, frame, integrate)
              for frame in range(len(views.frames[nodes[0]]))]
    return detect_per_frame(clouds, detector_cfg,
                            background=views.background,
                            crop_half_extent=views.background.crop_half_extent)


def _ap_by_class(detections, annotations, eval_cfg) -> dict:
    return {label: compute_ap(detections, annotations, label, eval_cfg)
            for label in ObjectClass}


VIEW_GROUPS = ((0,), (0, 2), (0, 1, 2, 3))  # one, opposite pair, all four


def run_view_group_experiment(scene: SyntheticScene, extrinsics: dict,
                              detector_cfg: DetectorConfig,
                              eval_cfg: DetectionEvalConfig,
                              views: Optional[DetectionViews] = None) -> dict:
    """Detection quality per view group (the more-views-help experiment).

    Single- and double-view groups integrate enough consecutive frames to
    match the four-view per-frame point budget. Returns per-group per-class
    recall and AP plus the overall means, keyed by a "viewsA+B" group name.
    ``views``, built from the same scene and extrinsics, saves building
    them here.
    """
    annotations = scene.annotations()
    if views is None:
        views = DetectionViews.build(scene, extrinsics)
    results = {}
    for group in VIEW_GROUPS:
        integrate = max(map(len, VIEW_GROUPS)) // len(group)
        detections = flatten_frames(detect_views(views, group, detector_cfg,
                                                 integrate))
        per_class_recall, per_class_ap = {}, {}
        for label in ObjectClass:
            per_class_recall[label], per_class_ap[label] = recall_and_ap(
                detections, annotations, label, eval_cfg)
        results["views" + "+".join(str(n) for n in group)] = {
            "nodes": list(group),
            "frames_integrated": integrate,
            "recall": per_class_recall,
            "ap": per_class_ap,
            "overall_recall": float(np.mean(list(per_class_recall.values()))),
            "overall_ap": float(np.mean(list(per_class_ap.values()))),
        }
    return results


def run_fusion_comparison(scene: SyntheticScene, extrinsics: dict,
                          detector_cfg: DetectorConfig,
                          eval_cfg: DetectionEvalConfig,
                          views: Optional[DetectionViews] = None) -> dict:
    """Early fusion vs NMS/average late fusion vs single views, by AP.
    ``views``, built from the same scene and extrinsics, saves building
    them here."""
    nodes = sorted(scene.node_frames)
    annotations = scene.annotations()
    if views is None:
        views = DetectionViews.build(scene, extrinsics)
    per_view = {node: detect_views(views, (node,), detector_cfg)
                for node in nodes}
    methods = {f"view {node}": flatten_frames(boxes)
               for node, boxes in per_view.items()}
    for method in ("nms", "average"):
        methods[f"{method} fusion"] = flatten_frames(
            late_fuse([(node, per_view[node][frame]) for node in nodes],
                      method=method)
            for frame in range(scene.spec.n_frames))
    methods["early fusion"] = flatten_frames(
        detect_views(views, nodes, detector_cfg))

    results = {}
    for name, detections in methods.items():
        ap = _ap_by_class(detections, annotations, eval_cfg)
        results[name] = {"ap": ap, "overall_ap": float(np.mean(list(ap.values())))}
    return results


# ---------------------------------------------------------------------------
# pipeline config and runner
# ---------------------------------------------------------------------------

def _take(section, context: str, allowed: set) -> dict:
    """A copy of a JSON object with only ``allowed`` keys. Its values are
    left to the constructors, which check each one's type and range."""
    if not isinstance(section, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {sorted(unknown)}")
    return dict(section)


def crossroad_hierarchy() -> HierarchyConfig:
    """The registration schedule of the ~44 m crossroad scenes, which is
    the ``HierarchyConfig`` defaults."""
    return HierarchyConfig()


@dataclass(frozen=True)
class PipelineConfig:
    """The run's settings, one section per stage. ``seed`` seeds the scene,
    the calibration and the sync simulator: ``sync.seed`` always equals it.
    The scene is always ``standard_crossroad_spec``: only its frame count
    is a setting."""

    seed: int = 0
    output_dir: str = "pipeline-out"
    scene_frames: int = 30
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    eval_det: DetectionEvalConfig = field(default_factory=DetectionEvalConfig)
    eval_mot: MotEvalConfig = field(default_factory=MotEvalConfig)
    sync: SessionConfig = field(default_factory=lambda: SessionConfig(
        node_count=4, duration_s=10.0))

    def __post_init__(self):
        check_number("seed", self.seed, 0, integer=True)
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, "
                              f"got {self.output_dir!r}")
        check_number("scene.frames", self.scene_frames, 1, MAX_SCENE_FRAMES,
                     integer=True)
        if self.sync.seed != self.seed:
            object.__setattr__(self, "sync", dc_replace(self.sync,
                                                        seed=self.seed))

    @staticmethod
    def from_dict(raw: dict) -> "PipelineConfig":
        """Parse a JSON config; omitted keys keep their default values.

        Raises ConfigError for unknown keys and for values of the wrong
        type or out of range, each value checked once by the class that
        owns it and named by its config path (``sync.duration_s``).
        """
        try:
            return PipelineConfig._parse(raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid pipeline config: {exc}") from None

    @staticmethod
    def _parse(raw: dict) -> "PipelineConfig":
        base = PipelineConfig()
        _take(raw, "config", {"seed", "output_dir", "scene", "hierarchy",
                              "detector", "tracker", "eval_det", "eval_mot",
                              "sync"})
        kwargs: dict = {"seed": raw.get("seed", base.seed),
                        "output_dir": raw.get("output_dir", base.output_dir)}
        scene = _take(raw.get("scene", {}), "scene", {"frames"})
        kwargs["scene_frames"] = scene.get("frames", base.scene_frames)

        # HierarchyConfig turns the JSON's level triples into levels
        for name, keys in (
                ("hierarchy", {f.name for f in fields(HierarchyConfig)}),
                ("detector", {"cluster_distance"}),
                ("tracker", {"threshold", "min_hits", "max_age"}),
                ("eval_mot", {"threshold"})):
            section = _take(raw.get(name, {}), name, keys)
            try:
                kwargs[name] = type(getattr(base, name))(**section)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{name}: {exc}") from None

        eval_det = _take(raw.get("eval_det", {}), "eval_det",
                         {"iou_thresholds", "recall_points"})
        if "iou_thresholds" in eval_det:
            thresholds = _take(eval_det["iou_thresholds"],
                               "eval_det.iou_thresholds",
                               {c.value for c in ObjectClass})
            eval_det["iou_thresholds"] = {
                **base.eval_det.iou_thresholds,
                **{ObjectClass(name): value
                   for name, value in thresholds.items()}}
        kwargs["eval_det"] = DetectionEvalConfig(**eval_det)

        network_keys = {"delay_min_s", "delay_max_s", "drop_probability"}
        sync = _take(raw.get("sync", {}), "sync", network_keys
                     | {"node_count", "duration_s", "frame_rate_hz"})
        network = {key: sync.pop(key) for key in list(sync)
                   if key in network_keys}
        kwargs["sync"] = dc_replace(base.sync, **sync,
                                    network=NetworkModel(**network))
        return PipelineConfig(**kwargs)


def read_config_json(path) -> tuple:
    """The JSON value in a config file and the sha256 of the bytes it was
    parsed from, read once; ConfigError if it cannot be read or repeats a
    key in one object."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        return json.loads(data, object_pairs_hook=unique_keys), \
            hashlib.sha256(data).hexdigest()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load config {path}: {exc}")


def export_scene(scene: SyntheticScene, directory, seed: int) -> None:
    """Write a scene to disk in the CLI's on-disk layout.

    node_<i>/frame_<k>.mvlc per view (the capture), calib/node_<i>/ with
    each node's calibration pass made with ``seed`` (the scene's seed, as
    in ``run_pipeline``), reference.mvlc, annotations.jsonl
    (detection records with track ids), gt_trajectories.jsonl, and the true
    extrinsics as calibration records in gt_calibration.jsonl.
    """
    os.makedirs(directory, exist_ok=True)
    for node, frames in scene.node_frames.items():
        node_dir = os.path.join(directory, f"node_{node}")
        os.makedirs(node_dir, exist_ok=True)
        for index, frame in enumerate(frames):
            write_frame(os.path.join(node_dir, f"frame_{index:05d}.mvlc"), frame)
        calib_dir = os.path.join(directory, "calib", f"node_{node}")
        os.makedirs(calib_dir, exist_ok=True)
        for index, frame in enumerate(calibration_capture(scene, node,
                                                          seed=seed)):
            write_frame(os.path.join(calib_dir, f"frame_{index:05d}.mvlc"),
                        frame)
    write_frame(os.path.join(directory, "reference.mvlc"),
                scene.reference_cloud)
    write_detections(os.path.join(directory, "annotations.jsonl"),
                     scene.annotations())
    write_trajectories(os.path.join(directory, "gt_trajectories.jsonl"),
                       scene.trajectories)
    write_calibration(os.path.join(directory, "gt_calibration.jsonl"),
                      scene.extrinsics)


def run_pipeline(cfg: PipelineConfig, output_dir: Optional[str] = None,
                 config_sha256: Optional[str] = None) -> dict:
    """Full chain on the standard crossroad scene; returns the manifest."""
    out = output_dir or cfg.output_dir
    environment = run_environment()
    os.makedirs(out, exist_ok=True)
    manifest: dict = {"seed": cfg.seed, "config_sha256": config_sha256,
                      "environment": environment, "stages": []}
    last_mark = time.monotonic()

    def stage(name):
        nonlocal last_mark
        now = time.monotonic()
        manifest["stages"].append({"name": name,
                                   "seconds": round(now - last_mark, 3)})
        last_mark = now

    spec = standard_crossroad_spec(n_frames=cfg.scene_frames, seed=cfg.seed)
    scene = generate_synthetic_scene(spec, seed=cfg.seed)
    stage("scene")

    # spatial calibration against the reference scan, on each node's
    # pre-capture calibration pass over the static scene
    calibration: dict = {}
    fitness_report = {}
    for node in sorted(scene.node_frames):
        frames = calibration_capture(scene, node, seed=cfg.seed)
        result = calibrate_node(frames, scene.reference_cloud,
                                cfg.hierarchy, seed=cfg.seed + node,
                                reference_viewpoint=scene.reference_viewpoint)
        calibration[node] = result.transform
        fitness_report[node] = {"fitness": result.fitness,
                                "inlier_rmse": result.inlier_rmse}
    write_calibration(os.path.join(out, "calibration.jsonl"), calibration)
    stage("calibrate")

    # trigger/PPS synchronization report for the session
    sync_report = compute_time_error_report(simulate_session(cfg.sync))
    write_json(os.path.join(out, "sync_report.json"), sync_report.summary())
    stage("sync-sim")

    # early fusion + detection on every frame, with recovered extrinsics and
    # the reference scan as the static background; the experiments below
    # detect on the same views
    views = DetectionViews.build(scene, calibration)
    boxes_per_frame = detect_views(views, sorted(scene.node_frames),
                                   cfg.detector)
    detections = flatten_frames(boxes_per_frame)
    write_detections(os.path.join(out, "detections.jsonl"), detections)
    stage("detect")

    trajectories = track_sequence(boxes_per_frame, cfg.tracker,
                                  frame_dt=1.0 / spec.frame_rate_hz)
    write_trajectories(os.path.join(out, "trajectories.jsonl"), trajectories)
    stage("track")

    ap = _ap_by_class(detections, scene.annotations(), cfg.eval_det)
    stage("ap")
    mot = compute_clear_mot(trajectories, scene.trajectories, cfg.eval_mot)
    stage("mot")
    view_groups = run_view_group_experiment(scene, calibration, cfg.detector,
                                            cfg.eval_det, views)
    stage("view-groups")
    fusion_methods = run_fusion_comparison(scene, calibration, cfg.detector,
                                           cfg.eval_det, views)
    write_json(os.path.join(out, "metrics.json"), {
        "detection_ap": ap,
        "tracking": asdict(mot),
        "view_groups": view_groups,
        "fusion_methods": fusion_methods,
        "calibration_fitness": fitness_report,
    })

    report_lines = ["detection AP by view group",
                    format_ap_table({name: data["ap"]
                                     for name, data in view_groups.items()}),
                    "",
                    "detection AP by fusion method",
                    format_ap_table({name: data["ap"]
                                     for name, data in fusion_methods.items()}),
                    "",
                    "tracking (early fusion)",
                    format_mot_table({"early fusion": mot})]
    report = "\n".join(report_lines) + "\n"
    atomic_write(os.path.join(out, "report.txt"), report.encode())
    stage("fusion-comparison")  # includes writing metrics.json, report.txt

    manifest["outputs"] = sorted(name for name in os.listdir(out)
                                 if name != "manifest.json")
    write_json(os.path.join(out, "manifest.json"), manifest)
    return manifest
