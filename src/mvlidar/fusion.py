"""Multi-view fusion of point clouds and detection boxes.

Early fusion merges synchronized world-frame node frames into one cloud
before detection: ``fuse_window`` builds every fused frame, each node
integrated over its last few frames when asked. Late fusion runs detection
per view and merges boxes afterwards: same-class boxes overlapping at least
the cluster threshold are grouped (transitively), then each group is reduced
either by keeping its highest-score member (NMS fusion) or by averaging its
geometry (average fusion). ``early_fuse``, ``ViewFrameSet`` and
``temporal_integrate`` remain for the benchmark harness, which calls and
traces them by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateYawError, TimestampSkewError, check_number
from .geometry import (
    Box3D,
    PointCloud,
    apply_transform,
    check_time_order,
    iou_3d,
    linked_groups,
    may_overlap,
    wrap_half_angle,
)

DEFAULT_SYNC_WINDOW_S = 0.005
# same-class boxes from different views overlapping at least this IoU are
# one object
_OVERLAP_THRESHOLD = 0.1


@dataclass(frozen=True)
class ViewFrameSet:
    """One synchronized frame per node, with node -> world extrinsics."""

    frames: dict
    extrinsics: dict
    sync_window_s: float = DEFAULT_SYNC_WINDOW_S

    def __post_init__(self):
        check_number("sync_window_s", self.sync_window_s, 0)
        missing = [n for n in self.frames if n not in self.extrinsics]
        if missing:
            raise ValueError(f"nodes without extrinsics: {missing}")


def check_synchronized(stamps, sync_window_s: float) -> None:
    """Raise TimestampSkewError when frame timestamps (ns) spread over more
    than the window (s)."""
    stamps = list(stamps)
    if not stamps:
        return
    skew_s = (max(stamps) - min(stamps)) / 1e9
    if skew_s > sync_window_s:
        raise TimestampSkewError(
            f"frame timestamps spread over {skew_s * 1e3:.3f} ms, "
            f"window is {sync_window_s * 1e3:.3f} ms")


def fuse_window(world_frames: dict, nodes, frame: int, integrate: int = 1,
                sync_window_s: float = DEFAULT_SYNC_WINDOW_S) -> PointCloud:
    """The fused frame of ``nodes`` at ``frame``: the one merge of node
    frames into an early-fused frame.

    ``world_frames`` maps node id -> frame list, already in the world frame.
    Each node gives its frame ``frame`` and up to ``integrate - 1`` frames
    before it. Points are ordered by node id, then oldest frame first, and
    tagged with their source node; other attributes follow
    ``PointCloud.concatenate``. The timestamp is the latest node timestamp
    at ``frame``; TimestampSkewError when those spread over more than the
    window (s).
    """
    nodes = sorted(nodes)
    stamps = [world_frames[node][frame].timestamp_ns for node in nodes]
    check_synchronized(stamps, sync_window_s)
    window = range(max(0, frame - integrate + 1), frame + 1)
    return PointCloud.concatenate(
        [world_frames[node][k] for node in nodes for k in window],
        timestamp_ns=max(stamps, default=0),
        source_ids=[node for node in nodes for _ in window])


def early_fuse(view_set: ViewFrameSet) -> PointCloud:
    """``fuse_window`` of one synchronized frame per node, each moved to the
    world frame by its extrinsics."""
    world = {node: [apply_transform(view_set.extrinsics[node], cloud)]
             for node, cloud in view_set.frames.items()}
    return fuse_window(world, list(world), 0,
                       sync_window_s=view_set.sync_window_s)


def temporal_integrate(frames: list) -> PointCloud:
    """Concatenate time-ordered frames, oldest first, stamped with the last
    frame's timestamp and source node; attributes follow
    ``PointCloud.concatenate``."""
    if not frames:
        return PointCloud.empty()
    check_time_order(frames)
    return PointCloud.concatenate(frames, timestamp_ns=frames[-1].timestamp_ns,
                                  source_node=frames[-1].source_node)


@dataclass(frozen=True)
class BoxCluster:
    """Same-class boxes from different views deemed to be one object."""

    members: tuple  # of (Box3D, view id)

    def __post_init__(self):
        if not self.members:
            raise ValueError("cluster must have at least one member")
        labels = {box.label for box, _ in self.members}
        if len(labels) != 1:
            raise ValueError("cluster members must share a class")


def cluster_boxes(views: list) -> list:
    """Group per-view boxes into clusters by transitive overlap.

    ``views`` is a list of (view id, list of Box3D). Same-class boxes are
    connected when their IoU reaches _OVERLAP_THRESHOLD; clusters are the
    connected components, so the grouping does not depend on input order.
    Every input box lands in exactly one cluster. ``iou_3d`` runs only on
    the pairs i < j that ``may_overlap`` keeps: every other pair is of two
    classes or has an IoU of 0.0.
    """
    entries = [(box, view_id) for view_id, boxes in views for box in boxes]
    boxes = [box for box, _ in entries]
    candidates = np.transpose(np.triu_indices(len(boxes), 1))
    near = may_overlap(boxes, boxes, candidates)
    pairs = [(i, j) for (i, j), may in zip(candidates.tolist(), near.tolist())
             if may and iou_3d(boxes[i], boxes[j]) >= _OVERLAP_THRESHOLD]
    return [BoxCluster(members=tuple(entries[i] for i in group))
            for group in linked_groups(len(entries), pairs)]


def nms_fuse(clusters: list) -> list:
    """One box per cluster: the member with the highest score.

    Ties go to the lower view id, then to input order; geometry and class
    are copied verbatim (selection, not synthesis).
    """
    # min keeps the first of equal keys, which is the input order
    return [min(cluster.members, key=lambda m: (-m[0].score, m[1]))[0]
            for cluster in clusters]


def average_fuse(clusters: list) -> list:
    """One box per cluster with averaged geometry.

    Center and size are arithmetic means.
    Yaw is the direction of the mean heading vector after canonicalizing
    every member's yaw to within 90 degrees of the first member (boxes are
    180-degree symmetric). The fused score is the cluster maximum.
    """
    fused = []
    for cluster in clusters:
        boxes = [box for box, _ in cluster.members]
        weights = np.ones(len(boxes)) / len(boxes)

        center = np.sum([w * box.center for w, box in zip(weights, boxes)], axis=0)
        size = np.sum([w * box.size for w, box in zip(weights, boxes)], axis=0)

        anchor = boxes[0].yaw
        heading = np.zeros(2)
        for w, box in zip(weights, boxes):
            yaw = anchor + wrap_half_angle(box.yaw - anchor)
            heading += w * np.array([math.cos(yaw), math.sin(yaw)])
        if np.linalg.norm(heading) < 1e-9:
            raise DegenerateYawError("heading vectors cancel; yaw undefined")
        yaw = math.atan2(heading[1], heading[0])

        fused.append(Box3D(center=center, size=size, yaw=yaw,
                           label=boxes[0].label,
                           score=max(box.score for box in boxes)))
    return fused


def late_fuse(views: list, method: str = "nms") -> list:
    """Cluster per-view boxes and reduce with 'nms' or 'average' fusion."""
    clusters = cluster_boxes(views)
    if method == "nms":
        return nms_fuse(clusters)
    if method == "average":
        return average_fuse(clusters)
    raise ValueError(f"unknown late-fusion method: {method!r}")
