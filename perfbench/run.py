"""Benchmark of the mvlidar toolkit: end-to-end and per-layer numbers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload calibrate --seed 0 --seconds 10 --trace 0

Workloads are ``calibrate``, ``detect-track`` and ``experiments`` (see
``workloads.py``). The program is imported from ``src/`` of the checkout.

With ``--trace 0`` the run sets up its inputs ``SETUP_REPEATS`` times, then
repeats the workload's pass until ``--seconds`` would be exceeded (at least
``min_passes`` times) and reports medians: ``work_s`` (one pass), ``setup_s`` and
``peak_rss_mb``. With ``--trace 1`` it sets up once with tracing on, runs
a traced pass that also warms up, one untraced pass as the overhead
baseline, then traced passes until ``--seconds`` is spent, and reports the per-layer metrics of ``PER_LAYER``: medians for times, and
counts that must repeat exactly across the traced passes. Spans are written
to ``perfbench/out/`` when the run ends.

Before the result, the run prints its settings, the SHA-256 digests of its
outputs (serialized with the toolkit's own writers) and the quality numbers.
The last line of standard output is the result object. The exit code is 2,
with no result, when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 2
MIN_TRACED_PASSES = 2

END_TO_END = {"work_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_S, _N, _R = "s", "count", "ratio"
PER_LAYER = {
    "scene.generate_synthetic_scene.s": _S,
    "scene.calibration_capture.s": _S,
    "scene.rays_cast": _N,
    "scene.points": _N,
    **{f"registration.{fn}.{tag}.{q}": unit
       for fn in ("voxel_downsample", "estimate_normals", "compute_fpfh")
       for tag in ("ref", "node") for q, unit in (("s", _S), ("calls", _N))},
    "registration.mutual_feature_matches.s": _S,
    "registration.mutual_matches": _N,
    "registration.coarse_align_ransac.self_s": _S,
    "registration.coarse_fitness": _R,
    **{f"registration.icp_refine.L{k}.{q}": unit for k in (0, 1)
       for q, unit in (("s", _S), ("iterations", _N))},
    "registration.kdtree.builds": _N,
    "registration.kdtree.points": _N,
    "pipeline.calibrate_node.s": _S,
    "fusion.early_fuse.s": _S,
    "fusion.early_fuse.points": _N,
    "fusion.temporal_integrate.s": _S,
    "fusion.late_fuse.s": _S,
    "fusion.late_fuse.boxes_in": _N,
    "fusion.late_fuse.clusters_out": _N,
    "fusion.iou_3d.calls": _N,
    "detector.subtract_background.s": _S,
    "detector.subtract_background.calls": _N,
    "detector.subtract_background.kept_frac": _R,
    **{f"detector.kdtree.{role}.{q}": unit for role in ("background", "cluster")
       for q, unit in (("builds", _N), ("points", _N), ("s", _S))},
    "detector.detect_frame.s": _S,
    "detector.detect_frame.calls": _N,
    "detector.cluster_euclidean.s": _S,
    "detector.clusters": _N,
    "detector.fit_oriented_box.s": _S,
    "detector.boxes": _N,
    "detector.box_yield": _R,
    "pipeline.detect_per_frame.calls": _N,
    "pipeline.detect_per_frame.wall_s": _S,
    "pipeline.detect_per_frame.busy_s": _S,
    "pipeline.run_view_group_experiment.s": _S,
    "pipeline.run_fusion_comparison.s": _S,
    "tracking.track_sequence.s": _S,
    "tracking.associate.s": _S,
    "tracking.iou_3d.calls": _N,
    "tracking.tracks_out": _N,
    "metrics.compute_ap.s": _S,
    "metrics.compute_ap.calls": _N,
    "metrics.detection_recall.s": _S,
    "metrics.compute_clear_mot.s": _S,
    "metrics.iou_3d.calls": _N,
    "metrics.iou_3d.s": _S,
    "trace.overhead_frac": _R,
    # deterministic per seed but far apart across seeds, so not bounded
    "quality.calib_rot_err_deg": "deg",
    "quality.calib_trans_err_m": "m",
    "quality.ap_overall": _R,
    "quality.mota": _R,
    "quality.exp_ap_late": _R,
    "quality.exp_ap_single": _R,
}


class ProgramMissing(Exception):
    pass


def import_program():
    """Import mvlidar from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mvlidar" / "__init__.py").is_file():
        raise ProgramMissing(f"no mvlidar package under {src}")
    sys.path.insert(0, str(src))
    import mvlidar
    if Path(mvlidar.__file__).resolve().parent != (src / "mvlidar").resolve():
        raise ProgramMissing(f"mvlidar imported from {mvlidar.__file__}")


def settings(args, workload, state) -> dict:
    import numpy
    import scipy
    from mvlidar.pipeline import thread_budget
    synthetic = state["scene"]
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MVLK_THREADS": os.environ.get("MVLK_THREADS"),
        "thread_budget": thread_budget(),
        "frames": synthetic.spec.n_frames, "nodes": len(synthetic.spec.nodes),
    }


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def run_passes(workload, state, seconds, minimum, tracer=None):
    """Repeat the pass until the next one would end past ``seconds``."""
    passes, started = [], time.perf_counter()
    while True:
        outputs, elapsed = timed(workload.run_pass, state, tracer)
        spans = tracer.take_spans() if tracer is not None else None
        report = workload.check(state, outputs, str(OUT_DIR))
        passes.append((elapsed, report, spans))
        del outputs
        spent = time.perf_counter() - started
        if len(passes) >= minimum and spent + elapsed > seconds:
            return passes


def consistency_problems(passes) -> list:
    """Outputs and quality must repeat exactly from pass to pass."""
    first = passes[0][1]
    problems = list(first.problems)
    for _, report, _ in passes[1:]:
        problems += report.problems
        if (report.digests, report.quality) != (first.digests, first.quality):
            problems.append("a repeated pass gave different outputs")
    return problems


def untraced_run(args, workload):
    setups = []
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous set-up before timing the next
        gc.collect()
        state, elapsed = timed(workload.set_up, args.seed, args.smoke)
        setups.append(elapsed)
    passes = run_passes(workload, state, args.seconds, workload.min_passes)
    metrics = {
        "work_s": statistics.median(p[0] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"setup_s": setups, "work_s": [p[0] for p in passes]}
    return state, passes, metrics, consistency_problems(passes), info


def traced_run(args, workload):
    import tracer as tracing
    from workloads import scene_counts
    tracer = tracing.Tracer()
    with tracer:
        state = workload.set_up(args.seed, args.smoke)
    setup_layers = tracing.layer_metrics(tracer.take_spans())
    # the first traced pass also warms up; the untraced baseline follows it
    with tracer:
        traced = run_passes(workload, state, 0, 1, tracer)
    baseline = run_passes(workload, state, 0, 1)
    with tracer:
        traced += run_passes(workload, state, args.seconds - sum(
            p[0] for p in traced + baseline), MIN_TRACED_PASSES - 1, tracer)
    per_pass = [tracing.layer_metrics(spans) for _, _, spans in traced]
    problems = consistency_problems(baseline + traced)
    metrics = {}
    for name, unit in PER_LAYER.items():
        values = [layers.get(name, 0) for layers in per_pass]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if len(set(values)) > 1:
                problems.append(f"count {name} differs between passes: {values}")
    for name in ("scene.generate_synthetic_scene.s", "scene.calibration_capture.s"):
        metrics[name] = setup_layers.get(name, 0)
    metrics.update(scene_counts(state["scene"]))
    metrics.update(traced[0][1].quality)
    warm = statistics.median(p[0] for p in traced[1:])
    metrics["trace.overhead_frac"] = warm / baseline[0][0] - 1.0
    info = {"work_s_untraced": baseline[0][0], "work_s": [p[0] for p in traced]}
    write_spans(args, traced)
    return state, baseline + traced, metrics, problems, info


def write_spans(args, passes) -> None:
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as handle:
        for index, (_, _, spans) in enumerate(passes):
            for span_id, name, start, end, parent, thread, attrs in spans:
                handle.write(json.dumps({
                    "pass": index, "id": span_id, "name": name,
                    "start": start, "end": end, "parent": parent,
                    "thread": thread, "attrs": attrs}) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("calibrate", "detect-track", "experiments"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scene, for the benchmark's own test")
    args = parser.parse_args()

    try:
        import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)

    run = traced_run if args.trace else untraced_run
    state, passes, values, problems, info = run(args, workload)
    units = PER_LAYER if args.trace else END_TO_END
    last = passes[-1][1]
    print("settings " + json.dumps(settings(args, workload, state)))
    print("digests " + json.dumps(last.digests, sort_keys=True))
    print("quality " + json.dumps(last.quality, sort_keys=True))
    print("passes " + json.dumps(info))
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(p[1].attempted for p in passes),
        "failed": sum(p[1].failed for p in passes),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
