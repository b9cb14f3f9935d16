"""Command-line interface.

The stage subcommands (calibrate, sync-sim, fuse, detect, track, eval-det,
eval-mot) read their files, make the call ``run_pipeline`` makes with the
arguments it passes, and write through the same writers. Their settings
are ``PipelineConfig()`` with the keys of ``--config``, the file
``pipeline`` takes, laid over it (or ``--seed`` instead of a file): no
option restates a config key. Frames on disk are float32, so the chain
reproduces the pipeline's calls on the clouds it reads back, not the
pipeline's bytes. ``pipeline`` runs the whole chain, ``make-scene`` exports
a synthetic scene and prints the inputs the pipeline gives it, and
``convert`` turns .mvlc into .xyz and back, with a warning on stderr that
names what .xyz cannot hold.

Exit codes: 0 success, 2 bad input data or file format or an unusable
path (a missing file, a directory where a file belongs), 3 algorithmic
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

from .errors import AlgorithmError, ConfigError, FormatError, \
    NoGroundTruthError, check_number
from .formats import MAX_NODE_ID, flatten_frames, read_calibration, \
    read_detections, read_frame, read_trajectories, read_xyz, \
    write_calibration, write_detections, write_frame, write_json, \
    write_trajectories, write_xyz
from .fusion import DEFAULT_SYNC_WINDOW_S, check_synchronized, fuse_window
from .geometry import ObjectClass, apply_transform, check_time_order
from .metrics import compute_ap, compute_clear_mot, format_ap_table, \
    format_mot_table
from .pipeline import PipelineConfig, calibrate_node, detect_per_frame, \
    detection_half_extent, export_scene, read_config_json, run_pipeline
from .scene import generate_synthetic_scene, standard_crossroad_spec
from .syncsim import DEFAULT_FRAME_RATE_HZ, compute_time_error_report, \
    simulate_session
from .tracking import MAX_FRAME_DT_S, track_detections

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_ALGORITHM = 3
EXIT_CONFIG = 4

# the definitions the calibrate options' defaults are read from
_CALIBRATE = {name: p.default for name, p in
              inspect.signature(calibrate_node).parameters.items()}


def _frames_in(directory):
    """The .mvlc frames of a directory in name order, which must be time
    order."""
    paths = sorted(glob.glob(os.path.join(directory, "*.mvlc")))
    if not paths:
        raise FormatError(f"no .mvlc frames in {directory}")
    frames = [read_frame(path) for path in paths]
    try:
        check_time_order(frames)
    except ValueError:
        raise FormatError(f"frames in {directory} are not in time order")
    return frames


def _node_dirs(root):
    """Node id -> path of each ``node_<id>`` entry of ``root``, named as
    ``export_scene`` names it: the id in ASCII digits, with no sign and no
    leading zero, and at most ``MAX_NODE_ID``, the largest a frame holds."""
    dirs = sorted(glob.glob(os.path.join(root, "node_*")))
    if not dirs:
        raise FormatError(f"no node_* directories in {root}")
    nodes = {}
    for path in dirs:
        suffix = os.path.basename(path)[len("node_"):]
        if not (suffix.isascii() and suffix.isdigit()
                and suffix == str(int(suffix)) and int(suffix) <= MAX_NODE_ID):
            raise FormatError(f"cannot parse node id from {path}: expected "
                              f"node_<id>, an integer in [0, {MAX_NODE_ID}] "
                              f"without sign or leading zero")
        nodes[int(suffix)] = path
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
    """Argparse type of an option that sets no config field (the class that
    owns a field checks it): ``convert``, then ``check_number``, whose
    ConfigError argparse lets through."""
    def parse(text):
        value = convert(text)
        check_number(option, value, *bounds, **rule)
        return value
    parse.__name__ = convert.__name__  # argparse names it in usage errors
    return parse


def _config(args) -> PipelineConfig:
    """The command's settings: its ``--config`` file parsed as ``pipeline``
    parses it, else ``PipelineConfig()`` with its ``--seed``, if it has one."""
    if args.config:
        return PipelineConfig.from_dict(read_config_json(args.config)[0])
    return PipelineConfig(**({"seed": args.seed} if "seed" in args else {}))


def cmd_calibrate(args) -> int:
    cfg = _config(args)
    reference = read_frame(args.reference)
    extrinsics = {}
    failures = []
    for node, directory in sorted(_node_dirs(args.node_root).items()):
        frames = _frames_in(directory)
        try:
            result = calibrate_node(
                frames, reference, cfg.hierarchy, seed=cfg.seed + node,
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
    report = compute_time_error_report(simulate_session(_config(args).sync))
    print(f"{'frame':>6}" + "".join(f"{f'node {n}':>12}" for n in report.nodes))
    step = -(-len(report.errors_s) // args.max_rows)  # at most max_rows rows
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
    cfg = _config(args).detector
    clouds = _frames_in(args.frames)
    detections = flatten_frames(detect_per_frame(
        clouds, cfg, background=read_frame(args.background),
        crop_half_extent=args.crop))
    write_detections(args.out, detections)
    print(f"wrote {len(detections)} detections over {len(clouds)} frames "
          f"to {args.out}")
    return EXIT_OK


def cmd_track(args) -> int:
    cfg = _config(args).tracker
    trajectories = track_detections(read_detections(args.detections), cfg,
                                    frame_dt=args.frame_dt)
    write_trajectories(args.out, trajectories)
    print(f"wrote {len(trajectories)} tracks to {args.out}")
    return EXIT_OK


def cmd_eval_det(args) -> int:
    cfg = _config(args).eval_det
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
    cfg = _config(args).eval_mot
    hypotheses = read_trajectories(args.hypotheses)
    ground_truth = read_trajectories(args.ground_truth)
    report = compute_clear_mot(hypotheses, ground_truth, cfg)
    print(format_mot_table({"hypotheses": report}))
    if args.out:
        write_json(args.out, asdict(report))
    return EXIT_OK


def cmd_pipeline(args) -> int:
    raw, digest = read_config_json(args.config) if args.config \
        else ({"seed": args.seed}, None)
    cfg = PipelineConfig.from_dict(raw)
    manifest = run_pipeline(cfg, output_dir=args.out_dir, config_sha256=digest)
    out = args.out_dir or cfg.output_dir
    with open(os.path.join(out, "report.txt")) as handle:
        print(handle.read(), end="")
    print(f"outputs in {out}: {', '.join(manifest['outputs'])}")
    return EXIT_OK


def cmd_make_scene(args) -> int:
    cfg = _config(args)
    spec = standard_crossroad_spec(n_frames=cfg.scene_frames, seed=cfg.seed)
    scene = generate_synthetic_scene(spec, seed=cfg.seed)
    export_scene(scene, args.out, cfg.seed)
    total = sum(len(f) for frames in scene.node_frames.values() for f in frames)
    print(f"wrote {len(scene.node_frames)} nodes x {cfg.scene_frames} frames "
          f"({total} points) to {args.out}")
    viewpoint = ",".join(repr(float(v)) for v in scene.reference_viewpoint)
    settings = f"--config {args.config}" if args.config else f"--seed {cfg.seed}"
    print(f"pipeline inputs: {settings} to every stage that takes it; "
          f"calibrate --reference-viewpoint={viewpoint}; "
          f"detect --crop={detection_half_extent(spec)!r}")
    return EXIT_OK


def cmd_convert(args) -> int:
    # checked before the input is read, so that a refusal writes nothing
    if not args.input.endswith((".mvlc", ".xyz")):
        raise ConfigError("input must end in .mvlc or .xyz")
    target = ".xyz" if args.input.endswith(".mvlc") else ".mvlc"
    if not args.output.endswith(target):
        raise ConfigError(f"output must end in {target} to convert "
                          f"{args.input}, got {args.output}")
    if target == ".xyz":
        cloud = read_frame(args.input)
        write_xyz(args.output, cloud)
        dropped = [name for name, lost in (
            ("source ids", cloud.source_ids is not None),
            ("timestamp", cloud.timestamp_ns != 0),
            ("node", cloud.source_node is not None)) if lost]
        if dropped:
            print(f"warning: .xyz holds only x y z and intensity; dropped "
                  f"the {', '.join(dropped)} of {args.input}",
                  file=sys.stderr)
    else:
        write_frame(args.output, read_xyz(args.input))
    print(f"wrote {args.output}")
    return EXIT_OK


def _add_settings(parser, seed: bool) -> None:
    """``--config`` and, for a seeded command, ``--seed``: not both."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--config", help="pipeline config JSON; its keys "
                       "override the PipelineConfig() defaults")
    if seed:
        group.add_argument("--seed", type=int, default=PipelineConfig().seed,
                           help="seed when no config file is given")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvlidar",
        description="multi-view LiDAR calibration, fusion, tracking, and "
                    "evaluation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate",
                       help="register every node against a reference scan "
                            "(node i with seed + i)")
    p.add_argument("--node-root", required=True,
                   help="directory containing node_<id>/ frame directories")
    p.add_argument("--reference", required=True, help="reference .mvlc scan")
    p.add_argument("--out", required=True, help="output calibration .jsonl")
    _add_settings(p, seed=True)
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
    _add_settings(p, seed=True)
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
    p.add_argument("--sync-window", type=_checked(float, "--sync-window", 0),
                   default=DEFAULT_SYNC_WINDOW_S,
                   help="seconds the node timestamps of a frame may spread "
                        "over (finite, >= 0)")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("detect", help="run the geometric detector per frame")
    p.add_argument("--frames", required=True, help="directory of .mvlc frames")
    p.add_argument("--out", required=True)
    p.add_argument("--background", required=True,
                   help="reference .mvlc scan of the empty scene, subtracted "
                        "as static background (the ground included)")
    p.add_argument("--crop", type=_checked(float, "--crop", 0, low_open=True),
                   help="detect only where |x| and |y| are at most this "
                        "(make-scene prints its scene's)")
    _add_settings(p, seed=False)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("track", help="track detections across frames")
    p.add_argument("--detections", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--frame-dt", type=_checked(float, "--frame-dt", 0,
                                               MAX_FRAME_DT_S, low_open=True),
                   default=1.0 / DEFAULT_FRAME_RATE_HZ,
                   help="seconds between frames (in (0, 3600])")
    _add_settings(p, seed=False)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval-det", help="average precision per class")
    p.add_argument("--detections", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--out", help="write AP values as JSON")
    _add_settings(p, seed=False)
    p.set_defaults(func=cmd_eval_det)

    p = sub.add_parser("eval-mot", help="CLEAR tracking metrics")
    p.add_argument("--hypotheses", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--out", help="write the report as JSON")
    _add_settings(p, seed=False)
    p.set_defaults(func=cmd_eval_mot)

    p = sub.add_parser("pipeline", help="full chain with a run manifest")
    _add_settings(p, seed=True)
    p.add_argument("--out-dir", help="override the config output directory")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("make-scene",
                       help="export a synthetic crossroad scene to disk")
    p.add_argument("--out", required=True)
    _add_settings(p, seed=True)
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
    except (FormatError, OSError, ConfigError, AlgorithmError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_CONFIG if isinstance(exc, ConfigError) else
                EXIT_ALGORITHM if isinstance(exc, AlgorithmError) else
                EXIT_FORMAT)


if __name__ == "__main__":
    sys.exit(main())
