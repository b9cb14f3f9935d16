"""Command-line interface.

The stage subcommands (calibrate, sync-sim, fuse, detect, track, eval-det,
eval-mot) read their files, make the call ``run_pipeline`` makes with the
arguments it passes, and write through the same writers; their defaults are
read from ``PipelineConfig()``, ``calibrate_node`` and the fusion module.
Frames on disk are float32, so the chain reproduces the pipeline's calls on
the clouds it reads back, not the pipeline's bytes. ``pipeline`` runs the
whole chain, ``make-scene`` exports a synthetic scene and prints the inputs
the pipeline gives it, and ``convert`` turns .mvlc into .xyz and back.

Exit codes: 0 success, 2 bad input data or file format, 3 algorithmic
failure (for example calibration fitness below threshold), 4 bad
configuration.
"""

from __future__ import annotations

import argparse
import glob
import inspect
import os
import sys
from dataclasses import asdict
from dataclasses import replace as dc_replace

from .errors import AlgorithmError, ConfigError, FormatError, \
    NoGroundTruthError, check_number
from .formats import flatten_frames, read_calibration, read_detections, \
    read_frame, read_trajectories, read_xyz, write_calibration, \
    write_detections, write_frame, write_json, write_trajectories, write_xyz
from .fusion import DEFAULT_SYNC_WINDOW_S, ViewFrameSet, \
    check_synchronized, fuse_window
from .geometry import ObjectClass, apply_transform
from .metrics import DetectionEvalConfig, compute_ap, compute_clear_mot, \
    format_ap_table, format_mot_table
from .pipeline import PipelineConfig, calibrate_node, detect_per_frame, \
    detection_half_extent, export_scene, hierarchy_from_dict, \
    read_config_json, run_pipeline
from .scene import DEFAULT_FRAME_RATE_HZ, generate_synthetic_scene, \
    standard_crossroad_spec
from .syncsim import NetworkModel, compute_time_error_report, simulate_session
from .tracking import check_frame_dt, track_detections

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_ALGORITHM = 3
EXIT_CONFIG = 4

# the definitions every default below is read from
_PIPELINE = PipelineConfig()
_CALIBRATE = {name: p.default for name, p in
              inspect.signature(calibrate_node).parameters.items()}


def _frames_in(directory):
    paths = sorted(glob.glob(os.path.join(directory, "*.mvlc")))
    if not paths:
        raise FormatError(f"no .mvlc frames in {directory}")
    return [read_frame(path) for path in paths]


def _node_dirs(root):
    dirs = sorted(glob.glob(os.path.join(root, "node_*")))
    if not dirs:
        raise FormatError(f"no node_* directories in {root}")
    nodes = {}
    for path in dirs:
        try:
            node = int(os.path.basename(path).split("_", 1)[1])
        except ValueError:
            raise FormatError(f"cannot parse node id from {path}")
        nodes[node] = path
    return nodes


def _point(text: str) -> tuple:
    """The ``--reference-viewpoint`` value ``X,Y,Z`` as three floats, each
    then checked to be finite by ``check_number``, as ``_checked`` does."""
    try:
        point = tuple(float(v) for v in text.split(","))
    except ValueError:
        point = ()
    if len(point) != 3:
        raise argparse.ArgumentTypeError(f"expected X,Y,Z, got {text!r}")
    for value in point:
        check_number("--reference-viewpoint", value)
    return point


def _checked(convert, option: str, *bounds, **rule):
    """Argparse type of an option that sets no config field: ``convert``,
    then ``check_number``, whose ConfigError argparse lets through."""
    def parse(text):
        value = convert(text)
        check_number(option, value, *bounds, **rule)
        return value
    parse.__name__ = convert.__name__  # argparse names it in usage errors
    return parse


_SEED = _checked(int, "--seed", 0, integer=True)


def cmd_calibrate(args) -> int:
    reference = read_frame(args.reference)
    # scaled to the toolkit's crossroad-sized scenes; a --config file
    # overrides the keys it names
    hierarchy = hierarchy_from_dict(
        read_config_json(args.config)[0] if args.config else {})
    extrinsics = {}
    failures = []
    for node, directory in sorted(_node_dirs(args.node_root).items()):
        frames = _frames_in(directory)
        try:
            result = calibrate_node(
                frames, reference, hierarchy, seed=args.seed + node,
                merge_duration_s=args.merge_duration,
                reference_viewpoint=args.reference_viewpoint)
        except AlgorithmError as exc:
            print(f"node {node}: FAILED ({exc})")
            failures.append(node)
            continue
        extrinsics[node] = result.transform
        print(f"node {node}: fitness {result.fitness:.3f}, "
              f"inlier RMSE {result.inlier_rmse * 100:.1f} cm")
    if extrinsics:
        write_calibration(args.out, extrinsics)
        print(f"wrote {args.out}")
    if failures:
        print(f"calibration failed for nodes: {failures}")
        return EXIT_ALGORITHM
    return EXIT_OK


def cmd_sync_sim(args) -> int:
    session = dc_replace(
        PipelineConfig(seed=args.seed).sync, node_count=args.nodes,
        duration_s=args.duration, frame_rate_hz=args.frame_rate,
        network=NetworkModel(delay_min_s=args.delay_min,
                             delay_max_s=args.delay_max,
                             drop_probability=args.drop))
    report = compute_time_error_report(simulate_session(session))
    print(f"{'frame':>6}" + "".join(f"{f'node {n}':>12}" for n in report.nodes))
    step = max(1, len(report.errors_s) // args.max_rows)
    for frame in range(0, len(report.errors_s), step):
        row = report.errors_s[frame]
        print(f"{frame:>6}" + "".join(f"{v * 1e3:>12.4f}" for v in row))
    print("\nper-node summary (ms)")
    for stats in report.stats:
        flag = "  MISALIGNED" if stats.misaligned else ""
        print(f"node {stats.node}: max {stats.max_abs_s * 1e3:.4f}  "
              f"mean |e| {stats.mean_abs_s * 1e3:.4f}  "
              f"std {stats.std_s * 1e3:.4f}{flag}")
    if args.out:
        write_json(args.out, {**report.summary(),
                              "errors_s": report.errors_s.tolist()})
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_fuse(args) -> int:
    # the window's range check, before any input is read
    ViewFrameSet({}, {}, sync_window_s=args.sync_window)
    extrinsics = read_calibration(args.calib)
    per_node = {node: _frames_in(directory)
                for node, directory in _node_dirs(args.frames).items()}
    missing = sorted(set(per_node) - set(extrinsics))
    if missing:
        raise ConfigError(f"calibration missing for nodes {missing}")
    counts = {len(frames) for frames in per_node.values()}
    if len(counts) != 1:
        raise FormatError(f"unequal frame counts per node: {sorted(counts)}")
    # every frame's synchronization, before the output directory is made
    for frames in zip(*per_node.values()):
        check_synchronized((cloud.timestamp_ns for cloud in frames),
                           args.sync_window)
    # each node's frames moved to the world frame once, in place of the
    # frames read, so that only one node's frames are held twice
    for node, frames in per_node.items():
        per_node[node] = [apply_transform(extrinsics[node], cloud)
                          for cloud in frames]
    os.makedirs(args.out, exist_ok=True)
    nodes = sorted(per_node)
    n_frames = counts.pop()
    for frame in range(n_frames):
        write_frame(os.path.join(args.out, f"frame_{frame:05d}.mvlc"),
                    fuse_window(per_node, nodes, frame,
                                sync_window_s=args.sync_window))
    print(f"fused {n_frames} frames into {args.out}")
    return EXIT_OK


def cmd_detect(args) -> int:
    clouds = _frames_in(args.frames)
    background = read_frame(args.background) if args.background else None
    detections = flatten_frames(detect_per_frame(
        clouds, dc_replace(_PIPELINE.detector, seed=args.seed),
        background=background, crop_half_extent=args.crop))
    write_detections(args.out, detections)
    print(f"wrote {len(detections)} detections over {len(clouds)} frames "
          f"to {args.out}")
    return EXIT_OK


def cmd_track(args) -> int:
    cfg = dc_replace(_PIPELINE.tracker, threshold=args.threshold,
                     min_hits=args.min_hits, max_age=args.max_age)
    check_frame_dt(args.frame_dt)
    trajectories = track_detections(read_detections(args.detections), cfg,
                                    frame_dt=args.frame_dt)
    write_trajectories(args.out, trajectories)
    print(f"wrote {len(trajectories)} tracks to {args.out}")
    return EXIT_OK


def cmd_eval_det(args) -> int:
    cfg = _PIPELINE.eval_det if args.iou_threshold is None \
        else DetectionEvalConfig.with_threshold(args.iou_threshold)
    detections = read_detections(args.detections)
    ground_truth = read_detections(args.ground_truth)
    if not ground_truth:
        raise NoGroundTruthError("ground truth is empty")
    ap = {label: compute_ap(detections, ground_truth, label, cfg)
          for label in ObjectClass
          if any(box.label is label for _, box in ground_truth)}
    print(format_ap_table({"detections": ap}))
    if args.out:
        write_json(args.out, ap)
    return EXIT_OK


def cmd_eval_mot(args) -> int:
    cfg = dc_replace(_PIPELINE.eval_mot, threshold=args.threshold)
    hypotheses = read_trajectories(args.hypotheses)
    ground_truth = read_trajectories(args.ground_truth)
    report = compute_clear_mot(hypotheses, ground_truth, cfg)
    print(format_mot_table({"hypotheses": report}))
    if args.out:
        write_json(args.out, asdict(report))
    return EXIT_OK


def cmd_pipeline(args) -> int:
    if args.config:
        raw, digest = read_config_json(args.config)
        cfg = PipelineConfig.from_dict(raw)
    else:
        cfg = PipelineConfig(seed=args.seed)
        digest = None
    manifest = run_pipeline(cfg, output_dir=args.out_dir, config_sha256=digest)
    out = args.out_dir or cfg.output_dir
    with open(os.path.join(out, "report.txt")) as handle:
        print(handle.read(), end="")
    print(f"outputs in {out}: {', '.join(manifest['outputs'])}")
    return EXIT_OK


def cmd_make_scene(args) -> int:
    spec = standard_crossroad_spec(n_frames=args.frames, seed=args.seed,
                                   extent=_PIPELINE.scene_extent,
                                   with_occluders=not args.no_occluders)
    scene = generate_synthetic_scene(spec, seed=args.seed)
    export_scene(scene, args.out, args.seed)
    total = sum(len(f) for frames in scene.node_frames.values() for f in frames)
    print(f"wrote {len(scene.node_frames)} nodes x {args.frames} frames "
          f"({total} points) to {args.out}")
    viewpoint = ",".join(repr(float(v)) for v in scene.reference_viewpoint)
    print(f"pipeline inputs: calibrate --reference-viewpoint={viewpoint} "
          f"--seed {args.seed}; detect --crop={detection_half_extent(spec)!r}")
    return EXIT_OK


def cmd_convert(args) -> int:
    if args.input.endswith(".mvlc"):
        write_xyz(args.output, read_frame(args.input))
    elif args.input.endswith(".xyz"):
        write_frame(args.output, read_xyz(args.input))
    else:
        raise ConfigError("input must end in .mvlc or .xyz")
    print(f"wrote {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvlidar",
        description="multi-view LiDAR calibration, fusion, tracking, and "
                    "evaluation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    sync, network = _PIPELINE.sync, _PIPELINE.sync.network

    p = sub.add_parser("calibrate",
                       help="register every node against a reference scan")
    p.add_argument("--node-root", required=True,
                   help="directory containing node_<id>/ frame directories")
    p.add_argument("--reference", required=True, help="reference .mvlc scan")
    p.add_argument("--out", required=True, help="output calibration .jsonl")
    p.add_argument("--config",
                   help="hierarchy config JSON; its keys override the "
                        "crossroad schedule")
    p.add_argument("--seed", type=_SEED, default=_PIPELINE.seed,
                   help="node i registers with seed + i")
    p.add_argument("--merge-duration",
                   type=_checked(float, "--merge-duration", 0),
                   default=_CALIBRATE["merge_duration_s"],
                   help="seconds of frames to merge per node (finite, "
                        ">= 0)")
    p.add_argument("--reference-viewpoint", type=_point,
                   default=_CALIBRATE["reference_viewpoint"],
                   metavar="X,Y,Z",
                   help="point the reference normals face (make-scene "
                        "prints its scene's)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("sync-sim",
                       help="simulate a trigger/PPS synchronization session")
    p.add_argument("--nodes", type=int, default=sync.node_count)
    p.add_argument("--duration", type=float, default=sync.duration_s)
    p.add_argument("--frame-rate", type=float, default=sync.frame_rate_hz)
    p.add_argument("--delay-min", type=float, default=network.delay_min_s)
    p.add_argument("--delay-max", type=float, default=network.delay_max_s)
    p.add_argument("--drop", type=float, default=network.drop_probability)
    p.add_argument("--seed", type=_SEED, default=_PIPELINE.seed)
    p.add_argument("--max-rows", type=_checked(int, "--max-rows", 1,
                                               integer=True), default=20,
                   help="cap on printed per-frame rows (>= 1)")
    p.add_argument("--out", help="write the full error table as JSON")
    p.set_defaults(func=cmd_sync_sim)

    p = sub.add_parser("fuse", help="early-fuse synchronized node frames")
    p.add_argument("--calib", required=True)
    p.add_argument("--frames", required=True,
                   help="directory containing node_<id>/ frame directories")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--sync-window", type=float, default=DEFAULT_SYNC_WINDOW_S)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("detect", help="run the geometric detector per frame")
    p.add_argument("--frames", required=True, help="directory of .mvlc frames")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_SEED, default=_PIPELINE.detector.seed)
    p.add_argument("--background",
                   help="reference .mvlc scan subtracted as static background "
                        "(replaces the detector's ground removal)")
    p.add_argument("--crop", type=_checked(float, "--crop", 0, low_open=True),
                   help="detect only where |x| and |y| are at most this "
                        "(make-scene prints its scene's)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("track", help="track detections across frames")
    p.add_argument("--detections", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float,
                   default=_PIPELINE.tracker.threshold)
    p.add_argument("--min-hits", type=int, default=_PIPELINE.tracker.min_hits)
    p.add_argument("--max-age", type=int, default=_PIPELINE.tracker.max_age)
    p.add_argument("--frame-dt", type=float,
                   default=1.0 / DEFAULT_FRAME_RATE_HZ)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval-det", help="average precision per class")
    p.add_argument("--detections", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--iou-threshold", type=float,
                   help="same threshold for all classes (default: 0.7 cars, "
                        "0.5 cyclists/pedestrians)")
    p.add_argument("--out", help="write AP values as JSON")
    p.set_defaults(func=cmd_eval_det)

    p = sub.add_parser("eval-mot", help="CLEAR tracking metrics")
    p.add_argument("--hypotheses", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--threshold", type=float,
                   default=_PIPELINE.eval_mot.threshold)
    p.add_argument("--out", help="write the report as JSON")
    p.set_defaults(func=cmd_eval_mot)

    p = sub.add_parser("pipeline", help="full chain with a run manifest")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--out-dir", help="override the config output directory")
    p.add_argument("--seed", type=_SEED, default=_PIPELINE.seed,
                   help="seed when no config file is given")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("make-scene",
                       help="export a synthetic crossroad scene to disk")
    p.add_argument("--out", required=True)
    p.add_argument("--frames", type=int, default=_PIPELINE.scene_frames)
    p.add_argument("--seed", type=_SEED, default=_PIPELINE.seed)
    p.add_argument("--no-occluders", action="store_true")
    p.set_defaults(func=cmd_make_scene)

    p = sub.add_parser("convert", help="convert .mvlc <-> .xyz")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv=None) -> int:
    try:
        # inside the try: an option's own range check raises ConfigError
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (FormatError, FileNotFoundError, ConfigError,
            AlgorithmError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_CONFIG if isinstance(exc, ConfigError) else
                EXIT_ALGORITHM if isinstance(exc, AlgorithmError) else
                EXIT_FORMAT)


if __name__ == "__main__":
    sys.exit(main())
