"""In-memory span tracer that times calls into the mvlidar modules.

Tracing is done from outside the program: for the length of a traced run the
public names of the mvlidar modules are pointed at timing wrappers, and the
originals are put back afterwards. Every wrapped call records one span
``(id, name, start, end, parent, thread, attrs)``. The parent of a span is
the innermost open span of the same thread; a span opened on a worker thread
with nothing open there (the detection pool) takes the innermost open span
of the main thread, which is blocked waiting for the pool.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, Optional

from mvlidar import detector, fusion, metrics, pipeline, registration, scene, \
    tracking

# every mvlidar module a traced function may be imported into by name
MODULES = (scene, registration, fusion, detector, tracking, metrics, pipeline)


class Tracer:
    """Spans kept in memory; ``with tracer:`` installs the wrappers."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches: list = []
        self.reference_clouds: list = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name, annotate: Optional[Callable] = None):
        """Timing wrapper around ``fn``.

        ``name`` is a span name, or a callable of the call's arguments that
        returns one. ``annotate(args, kwargs, result)`` returns the span's
        attributes (counts); it is not called when ``fn`` raises.
        """
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main and stack is not main else None
            span_id = next(self._ids)
            stack.append(span_id)
            attrs = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                attrs = {"raised": 1}
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                label = name(args, kwargs) if callable(name) else name
                if attrs is None and annotate is not None:
                    attrs = annotate(args, kwargs, result)
                # list.append is atomic, so pool workers need no lock
                self.spans.append((span_id, label, start, end, parent,
                                   threading.get_ident(), attrs))
            return result

        return wrapper

    def take_spans(self) -> list:
        spans, self.spans = self.spans, []
        return spans

    # -- installing wrappers -------------------------------------------------

    def patch(self, module, attr: str, name, annotate=None) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, annotate))

    def patch_everywhere(self, fn: Callable, name, annotate=None) -> None:
        """Wrap ``fn`` under every name any mvlidar module binds it to."""
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, name, annotate)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        install(self)
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- reference-derived clouds -------------------------------------------

    def mark_reference(self, cloud) -> None:
        """Start tagging registration calls on ``cloud`` and its downsamples."""
        self.reference_clouds = [cloud]

    def is_reference(self, cloud) -> bool:
        return any(cloud is ref for ref in self.reference_clouds)


def install(tracer: Tracer) -> None:
    """Point the traced names of the mvlidar modules at timing wrappers."""
    t = tracer

    def ref_tag(base):
        return lambda args, kwargs: base + (
            ".ref" if t.is_reference(args[0]) else ".node")

    def downsampled(args, kwargs, result):
        if t.is_reference(args[0]):
            t.reference_clouds.append(result)
        return None

    # scene (set-up)
    t.patch_everywhere(scene.generate_synthetic_scene,
                       "scene.generate_synthetic_scene")
    t.patch_everywhere(scene.calibration_capture, "scene.calibration_capture")

    # registration
    t.patch_everywhere(registration.hierarchical_register,
                       "registration.hierarchical_register")
    t.patch(registration, "voxel_downsample",
            ref_tag("registration.voxel_downsample"), downsampled)
    t.patch(registration, "estimate_normals",
            ref_tag("registration.estimate_normals"))
    t.patch(registration, "compute_fpfh", ref_tag("registration.compute_fpfh"))
    t.patch(registration, "mutual_feature_matches",
            "registration.mutual_feature_matches",
            lambda a, k, r: {"matches": len(r)})
    t.patch(registration, "coarse_align_ransac",
            "registration.coarse_align_ransac",
            lambda a, k, r: {"fitness": r.fitness})
    t.patch(registration, "icp_refine", "registration.icp_refine",
            lambda a, k, r: {"iterations": r.iterations_used})
    t.patch(registration, "cKDTree", "registration.kdtree",
            lambda a, k, r: {"points": len(a[0])})
    t.patch_everywhere(pipeline.calibrate_node, "pipeline.calibrate_node")

    # fusion
    t.patch_everywhere(fusion.early_fuse, "fusion.early_fuse",
                       lambda a, k, r: {"points": len(r)})
    t.patch_everywhere(fusion.temporal_integrate, "fusion.temporal_integrate")
    t.patch_everywhere(fusion.late_fuse, "fusion.late_fuse",
                       lambda a, k, r: {"boxes_in": sum(len(b) for _, b in a[0]),
                                        "clusters_out": len(r)})
    t.patch(fusion, "iou_3d", "fusion.iou_3d")

    # detector
    t.patch_everywhere(detector.subtract_background,
                       "detector.subtract_background",
                       lambda a, k, r: {"points_in": len(a[0]),
                                        "points_out": len(r)})
    t.patch(detector, "cKDTree", "detector.kdtree",
            lambda a, k, r: {"points": len(a[0])})
    t.patch_everywhere(detector.detect_frame, "detector.detect_frame",
                       lambda a, k, r: {"boxes": len(r)})
    t.patch(detector, "cluster_euclidean", "detector.cluster_euclidean",
            lambda a, k, r: {"clusters": len(r)})
    t.patch(detector, "fit_oriented_box", "detector.fit_oriented_box")

    # pipeline
    t.patch_everywhere(pipeline.detect_per_frame, "pipeline.detect_per_frame")
    t.patch_everywhere(pipeline.run_view_group_experiment,
                       "pipeline.run_view_group_experiment")
    t.patch_everywhere(pipeline.run_fusion_comparison,
                       "pipeline.run_fusion_comparison")

    # tracking
    t.patch_everywhere(tracking.track_sequence, "tracking.track_sequence",
                       lambda a, k, r: {"tracks": len(r.tracks)})
    t.patch(tracking, "associate", "tracking.associate")
    t.patch(tracking, "iou_3d", "tracking.iou_3d")

    # metrics
    t.patch_everywhere(metrics.compute_ap, "metrics.compute_ap")
    t.patch_everywhere(metrics.detection_recall, "metrics.detection_recall")
    t.patch_everywhere(metrics.compute_clear_mot, "metrics.compute_clear_mot")
    t.patch(metrics, "iou_3d", "metrics.iou_3d")


def self_time(span, children) -> float:
    """Span duration minus the part of it that its children's spans cover."""
    start, end = span[2], span[3]
    covered, reach = 0.0, start
    for child in sorted(children, key=lambda c: c[2]):
        lo, hi = max(child[2], reach), min(child[3], end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


def layer_metrics(spans: list) -> dict:
    """Per-layer totals of one pass, keyed like the benchmark's per_layer list.

    Every span name ``X`` yields ``X.s`` (summed duration) and ``X.calls``;
    the remaining keys come from span attributes and the span tree.
    """
    by_id = {span[0]: span for span in spans}
    children: dict = {}
    for span in spans:
        children.setdefault(span[4], []).append(span)
    out: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for span in spans:
        name, duration, attrs = span[1], span[3] - span[2], span[6] or {}
        parent = by_id.get(span[4])
        add(name + ".s", duration)
        add(name + ".calls", 1)
        if name == "registration.mutual_feature_matches":
            add("registration.mutual_matches", attrs.get("matches", 0))
        elif name == "registration.coarse_align_ransac":
            add("registration.coarse_align_ransac.self_s",
                self_time(span, children.get(span[0], ())))
            add("registration.coarse_fitness.sum", attrs.get("fitness", 0.0))
        elif name == "registration.kdtree":
            add("registration.kdtree.builds", 1)
            add("registration.kdtree.points", attrs.get("points", 0))
        elif name == "registration.hierarchical_register":
            icp = sorted((c for c in children.get(span[0], ())
                          if c[1] == "registration.icp_refine"),
                         key=lambda c: c[2])
            for level, call in enumerate(icp):
                add(f"registration.icp_refine.L{level}.s", call[3] - call[2])
                add(f"registration.icp_refine.L{level}.iterations",
                    (call[6] or {}).get("iterations", 0))
        elif name == "fusion.early_fuse":
            add("fusion.early_fuse.points", attrs.get("points", 0))
        elif name == "fusion.late_fuse":
            add("fusion.late_fuse.boxes_in", attrs.get("boxes_in", 0))
            add("fusion.late_fuse.clusters_out", attrs.get("clusters_out", 0))
        elif name == "detector.subtract_background":
            add("detector.subtract_background.points_in",
                attrs.get("points_in", 0))
            add("detector.subtract_background.points_out",
                attrs.get("points_out", 0))
        elif name == "detector.kdtree":
            role = {"detector.subtract_background": "background",
                    "detector.cluster_euclidean": "cluster"}.get(
                        parent[1] if parent else None, "other")
            add(f"detector.kdtree.{role}.builds", 1)
            add(f"detector.kdtree.{role}.points", attrs.get("points", 0))
            add(f"detector.kdtree.{role}.s", duration)
        elif name == "detector.cluster_euclidean":
            add("detector.clusters", attrs.get("clusters", 0))
        elif name == "detector.detect_frame":
            add("detector.boxes", attrs.get("boxes", 0))
        elif name == "pipeline.detect_per_frame":
            add("pipeline.detect_per_frame.wall_s", duration)
            # summed over the pool's threads, so it can exceed wall_s
            add("pipeline.detect_per_frame.busy_s",
                sum(c[3] - c[2] for c in children.get(span[0], ())))
        elif name == "tracking.track_sequence":
            add("tracking.tracks_out", attrs.get("tracks", 0))

    ransac_calls = out.get("registration.coarse_align_ransac.calls", 0)
    if ransac_calls:
        out["registration.coarse_fitness"] = (
            out["registration.coarse_fitness.sum"] / ransac_calls)
    points_in = out.get("detector.subtract_background.points_in", 0)
    if points_in:
        out["detector.subtract_background.kept_frac"] = (
            out["detector.subtract_background.points_out"] / points_in)
    if out.get("detector.clusters"):
        out["detector.box_yield"] = out["detector.boxes"] / out["detector.clusters"]
    return out
