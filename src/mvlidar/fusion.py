"""Multi-view fusion of point clouds and detection boxes.

Early fusion merges synchronized per-node frames into one world-frame cloud
before detection. Late fusion runs detection per view and merges boxes
afterwards: same-class boxes overlapping at least the cluster threshold are
grouped (transitively), then each group is reduced either by keeping its
highest-score member (NMS fusion) or by averaging its geometry (average
fusion). Temporal integration concatenates consecutive frames of one view,
tagging every point with the index of the frame it came from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateYawError, TimestampSkewError
from .geometry import (
    Box3D,
    PointCloud,
    apply_transform,
    iou_3d,
    wrap_half_angle,
)

DEFAULT_SYNC_WINDOW_S = 0.005


@dataclass(frozen=True)
class ViewFrameSet:
    """One synchronized frame per node, with node -> world extrinsics."""

    frames: dict
    extrinsics: dict
    sync_window_s: float = DEFAULT_SYNC_WINDOW_S

    def __post_init__(self):
        missing = [n for n in self.frames if n not in self.extrinsics]
        if missing:
            raise ValueError(f"nodes without extrinsics: {missing}")

    def check_synchronized(self):
        stamps = [frame.timestamp_ns for frame in self.frames.values()]
        if not stamps:
            return
        skew_s = (max(stamps) - min(stamps)) / 1e9
        if skew_s > self.sync_window_s:
            raise TimestampSkewError(
                f"frame timestamps spread over {skew_s * 1e3:.3f} ms, "
                f"window is {self.sync_window_s * 1e3:.3f} ms")


def early_fuse(view_set: ViewFrameSet) -> PointCloud:
    """World-frame concatenation of all views of one synchronized frame.

    Points are ordered by (node id, index within node) so the result does
    not depend on dict insertion order. Every point is tagged with its
    source node.
    """
    view_set.check_synchronized()
    points, intensities, sources, time_indices = [], [], [], []
    has_intensity = all(f.intensity is not None
                        for f in view_set.frames.values() if len(f))
    has_time = all(f.time_index is not None
                   for f in view_set.frames.values() if len(f))
    newest = 0
    for node in sorted(view_set.frames):
        frame = view_set.frames[node]
        world = apply_transform(view_set.extrinsics[node], frame)
        points.append(world.points)
        newest = max(newest, frame.timestamp_ns)
        sources.append(np.full(len(world), node, dtype=np.int64))
        if has_intensity and world.intensity is not None:
            intensities.append(world.intensity)
        if has_time and world.time_index is not None:
            time_indices.append(world.time_index)
    if not points:
        return PointCloud.empty()
    return PointCloud(
        np.concatenate(points),
        intensity=np.concatenate(intensities) if has_intensity and intensities else None,
        timestamp_ns=newest,
        time_index=np.concatenate(time_indices) if has_time and time_indices else None,
        source_ids=np.concatenate(sources))


def temporal_integrate(frames: list) -> PointCloud:
    """Concatenate time-ordered frames, tagging points with the frame index.

    Index 0 is the oldest frame. Used to give a single view the same point
    budget per frame as a multi-view merge.
    """
    if not frames:
        return PointCloud.empty()
    stamps = [f.timestamp_ns for f in frames]
    if any(b < a for a, b in zip(stamps, stamps[1:])):
        raise ValueError("frames must be in time order")
    points, indices, intensities = [], [], []
    has_intensity = all(f.intensity is not None for f in frames if len(f))
    for position, frame in enumerate(frames):
        points.append(frame.points)
        indices.append(np.full(len(frame), position, dtype=np.int64))
        if has_intensity and frame.intensity is not None:
            intensities.append(frame.intensity)
    return PointCloud(
        np.concatenate(points),
        intensity=np.concatenate(intensities) if has_intensity and intensities else None,
        timestamp_ns=frames[-1].timestamp_ns,
        time_index=np.concatenate(indices),
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


def cluster_boxes(views: list, overlap_threshold: float = 0.1) -> list:
    """Group per-view boxes into clusters by transitive overlap.

    ``views`` is a list of (view id, list of Box3D). Same-class boxes are
    connected when their IoU reaches overlap_threshold; clusters are the
    connected components, so the grouping does not depend on input order.
    Every input box lands in exactly one cluster.
    """
    if not 0.0 < overlap_threshold < 1.0:
        raise ValueError("overlap_threshold must lie in (0, 1)")
    entries = [(box, view_id) for view_id, boxes in views for box in boxes]
    n = len(entries)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for i in range(n):
        for j in range(i + 1, n):
            a, b = entries[i][0], entries[j][0]
            if a.label is b.label and iou_3d(a, b) >= overlap_threshold:
                union(i, j)

    groups: dict = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(entries[i])
    return [BoxCluster(members=tuple(groups[root])) for root in sorted(groups)]


def nms_fuse(clusters: list) -> list:
    """One box per cluster: the member with the highest score.

    Ties go to the lower view id, then to input order; geometry and class
    are copied verbatim (selection, not synthesis).
    """
    fused = []
    for cluster in clusters:
        best_index = min(
            range(len(cluster.members)),
            key=lambda i: (-cluster.members[i][0].score, cluster.members[i][1], i))
        fused.append(cluster.members[best_index][0])
    return fused


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


def late_fuse(views: list, overlap_threshold: float = 0.1,
              method: str = "nms") -> list:
    """Cluster per-view boxes and reduce with 'nms' or 'average' fusion."""
    clusters = cluster_boxes(views, overlap_threshold)
    if method == "nms":
        return nms_fuse(clusters)
    if method == "average":
        return average_fuse(clusters)
    raise ValueError(f"unknown late-fusion method: {method!r}")
