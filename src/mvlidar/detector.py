"""Non-learned baseline 3D detector.

Pipeline: RANSAC ground-plane removal (near-horizontal planes only), then
Euclidean distance clustering, then a minimum-area oriented rectangle per
cluster (rotating calipers over the BEV convex hull). The class label comes
from per-class size priors and the score from the normalized point count,
which is monotone in visibility: exactly the signal multi-view fusion
recovers when a single view is occluded.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .errors import DegenerateClusterError, NoGroundPlaneError, \
    TooManyPairsError, check_number
from .geometry import Box3D, ObjectClass, PointCloud, linked_groups, \
    wrap_angle, xyz_cross

# (length range, width range, height range) per class; footprint areas are
# disjoint so at most one prior can match
DEFAULT_SIZE_PRIORS = {
    ObjectClass.CAR: ((3.0, 6.5), (1.4, 2.3), (1.0, 2.3)),
    ObjectClass.CYCLIST: ((1.2, 2.6), (0.7, 1.2), (1.0, 2.1)),
    ObjectClass.PEDESTRIAN: ((0.2, 0.9), (0.2, 0.9), (0.9, 2.1)),
}

_MAX_GROUND_TILT_DEG = 15.0
_GROUND_ITERATIONS = 200    # RANSAC plane samples
_GROUND_DISTANCE = 0.15     # plane inlier distance (m)
# thinner fits are sheet fragments (wall slivers at occlusion borders)
_MIN_BOX_WIDTH = 0.15
# a point within this distance (m) of the background scan is static
BACKGROUND_DISTANCE = 0.5
# background tree leaf size. The 48 background subtractions of one
# `experiments` benchmark pass (seed 0), on frames cropped to the detection
# square, tree builds and queries, took in sum, single-threaded on a 2-core
# x86-64 host (median of 12 rounds, every mask identical): 1.29 s at
# scipy's default 16, 1.05 s at 32, 1.00 s at 64 and 1.04 s at 128; the
# rounds' interquartile range, 0.09 to 0.29 s, exceeds every gap past 32
BACKGROUND_LEAF_SIZE = 64
# clustering refuses a cloud with more linked pairs than this: at 16 bytes
# a pair, the pair array alone would pass 320 MB
MAX_CLUSTER_PAIRS = 20_000_000
# connected components with fewer points than this are dropped as noise
MIN_CLUSTER_POINTS = 15
# a box's score is its cluster's point count over this, clipped to
# [0.05, 1]: a cluster this size or larger scores 1
SCORE_POINTS_SCALE = 200.0


class NoGroundPlaneWarning(UserWarning):
    """detect_frame found no ground plane and returned no detections."""


@dataclass(frozen=True)
class DetectorConfig:
    cluster_distance: float = 0.5
    seed: int = 0

    def __post_init__(self):
        check_number("cluster_distance", self.cluster_distance, 0,
                     low_open=True)
        check_number("seed", self.seed, 0, integer=True)


def subtract_background(cloud: PointCloud, background: PointCloud,
                        distance: float = BACKGROUND_DISTANCE) -> PointCloud:
    """Drop points within ``distance`` of a static background cloud.

    The background is the reference scan of the empty scene; what survives
    is the dynamic content. Essential for geometric detection wherever the
    scene's static clutter is the same shape and size as the targets.

    The mask depends only on whether each point has a background point
    within ``distance``, which any exact nearest-neighbour search answers
    alike; the tree is built unbalanced and uncompacted because that is
    the cheapest exact tree to build for one query. Every point given is
    queried: ``pipeline.detect_per_frame`` crops each frame to the detection
    square first and subtracts second, so the points the crop drops never
    reach the query. A cloud that loses no point, an empty one included,
    comes back as it is.
    """
    if len(background) == 0:
        return cloud
    tree = cKDTree(background.points, leafsize=BACKGROUND_LEAF_SIZE,
                   balanced_tree=False, compact_nodes=False)
    nearest, _ = tree.query(cloud.points, distance_upper_bound=distance)
    keep = ~np.isfinite(nearest)
    return cloud if keep.all() else cloud.select(keep)


def remove_ground(cloud: PointCloud, cfg: DetectorConfig = DetectorConfig()
                  ) -> tuple[PointCloud, PointCloud]:
    """Split a cloud into (ground, non_ground) by a RANSAC plane fit.

    Only planes whose normal is within 15 degrees of vertical are accepted.
    The partition is exact: every input point lands in exactly one side.
    Raises NoGroundPlaneError when no near-horizontal plane reaches a
    3-point consensus.
    """
    if len(cloud) == 0:
        raise ValueError("cloud must be nonempty")
    points = cloud.points
    n = len(points)
    rng = np.random.default_rng(cfg.seed)
    cos_tilt = math.cos(math.radians(_MAX_GROUND_TILT_DEG))

    best_count = 0
    best_mask = None
    if n >= 3:
        samples = rng.integers(0, n, size=(_GROUND_ITERATIONS, 3))
        for i, j, k in samples:
            if i == j or j == k or i == k:
                continue
            normal = np.array(xyz_cross(points[j] - points[i],
                                        points[k] - points[i]))
            norm = np.linalg.norm(normal)
            if norm < 1e-12:
                continue
            normal = normal / norm
            if abs(normal[2]) < cos_tilt:
                continue
            distances = np.abs((points - points[i]) @ normal)
            mask = distances <= _GROUND_DISTANCE
            count = int(mask.sum())
            if count > best_count:
                best_count, best_mask = count, mask

    if best_mask is None or best_count < 3:
        raise NoGroundPlaneError("no near-horizontal plane consensus")

    # refine on the consensus set; keep the refit only if still near-vertical
    inliers = points[best_mask]
    centroid = inliers.mean(axis=0)
    _, _, vt = np.linalg.svd(inliers - centroid, full_matrices=False)
    normal = vt[2]
    if abs(normal[2]) >= cos_tilt:
        distances = np.abs((points - centroid) @ normal)
        refined = distances <= _GROUND_DISTANCE
        if refined.sum() >= best_count:
            best_mask = refined

    return cloud.select(best_mask), cloud.select(~best_mask)


def cluster_euclidean(cloud: PointCloud, cfg: DetectorConfig = DetectorConfig()
                      ) -> list:
    """Connected components under inter-point distance <= cluster_distance.

    Components with fewer than MIN_CLUSTER_POINTS points are discarded.
    Clusters come back largest first (ties broken by their smallest point
    index), so the output is invariant to input permutation up to that
    canonical order. Raises TooManyPairsError rather than hold more than
    MAX_CLUSTER_PAIRS linked pairs in memory; the pairs are counted first
    only when the cloud has enough points to exceed the bound.
    """
    if len(cloud) == 0:
        return []
    n = len(cloud)
    tree = cKDTree(cloud.points)
    if n * (n - 1) // 2 > MAX_CLUSTER_PAIRS:
        # ordered pairs within the distance, each point with itself included
        count = (int(tree.count_neighbors(tree, cfg.cluster_distance)) - n) // 2
        if count > MAX_CLUSTER_PAIRS:
            raise TooManyPairsError(
                f"clustering {n} points would link {count} pairs within "
                f"{cfg.cluster_distance} m, more than {MAX_CLUSTER_PAIRS}; "
                f"restrict the frames to the detection area (detect --crop)")
    pairs = tree.query_pairs(cfg.cluster_distance, output_type="ndarray")
    members = [idx for idx in linked_groups(n, pairs)
               if len(idx) >= MIN_CLUSTER_POINTS]
    # stable: equal sizes keep the order of their smallest index
    members.sort(key=len, reverse=True)
    return [cloud.select(idx) for idx in members]


def _min_area_rectangle(bev: np.ndarray):
    """(yaw, length, width, center_xy) of the minimum-area oriented rectangle.

    Rotating calipers over the convex hull: the optimal rectangle is flush
    with one hull edge. Length is the longer side and yaw points along it.
    """
    try:
        hull = ConvexHull(bev)
    except QhullError as exc:
        raise DegenerateClusterError("cluster is collinear in BEV") from exc
    hull_pts = bev[hull.vertices]
    edges = np.roll(hull_pts, -1, axis=0) - hull_pts
    angles = np.arctan2(edges[:, 1], edges[:, 0])

    best = None
    for angle in angles:
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, s], [-s, c]])  # rotate by -angle
        local = hull_pts @ rot.T
        lo, hi = local.min(axis=0), local.max(axis=0)
        extent = hi - lo
        area = float(extent[0] * extent[1])
        if best is None or area < best[0] - 1e-12:
            center_local = 0.5 * (lo + hi)
            center = rot.T @ center_local
            best = (area, angle, float(extent[0]), float(extent[1]), center)

    _, angle, ex, ey, center = best
    if ex >= ey:
        return wrap_angle(angle), ex, ey, center
    return wrap_angle(angle + 0.5 * math.pi), ey, ex, center


def _classify_by_size(length, width, height) -> ObjectClass:
    for label, (l_range, w_range, h_range) in DEFAULT_SIZE_PRIORS.items():
        if (l_range[0] <= length <= l_range[1]
                and w_range[0] <= width <= w_range[1]
                and h_range[0] <= height <= h_range[1]):
            return label
    return ObjectClass.PEDESTRIAN if length * width < 1.0 else ObjectClass.CAR


def fit_oriented_box(cluster: PointCloud,
                     ground_z: Optional[float] = None) -> Box3D:
    """Fit a yaw-oriented box around a cluster.

    Yaw and footprint come from the minimum-area rectangle of the BEV
    convex hull, the vertical extent from the z range, extended down to
    ``ground_z`` when the lowest point is within 1 m above it (subtraction
    and grazing rays erode the lower parts of objects). Raises
    DegenerateClusterError for clusters collinear in BEV or sheet-thin.
    """
    if len(cluster) < 3:
        raise DegenerateClusterError("need at least 3 points to fit a box")
    yaw, length, width, center_xy = _min_area_rectangle(cluster.points[:, :2])
    if width < _MIN_BOX_WIDTH:
        raise DegenerateClusterError(
            f"cluster is a {width:.2f} m sheet, not an object")
    z_min = float(cluster.points[:, 2].min())
    z_max = float(cluster.points[:, 2].max())
    if ground_z is not None and 0.0 < z_min - ground_z < 1.0:
        z_min = ground_z
    height = max(z_max - z_min, 1e-3)
    width = max(width, 1e-3)
    label = _classify_by_size(length, width, height)
    score = min(1.0, max(0.05, len(cluster) / SCORE_POINTS_SCALE))
    return Box3D(center=(center_xy[0], center_xy[1], 0.5 * (z_min + z_max)),
                 size=(length, width, height), yaw=yaw, label=label,
                 score=score)


def detect_frame(cloud: PointCloud, cfg: DetectorConfig = DetectorConfig(),
                 ground_z: Optional[float] = None) -> list:
    """Ground removal, clustering, and box fitting for one frame.

    A ``ground_z`` says the ground at that height is already gone
    (background subtraction strips it): RANSAC ground removal is skipped
    and boxes reach down to it. Without it, a frame with no ground plane
    yields no detections and a NoGroundPlaneWarning, not an error.
    Deterministic given cfg.seed.
    """
    if len(cloud) == 0:
        return []
    if ground_z is None:
        try:
            _, non_ground = remove_ground(cloud, cfg)
        except NoGroundPlaneError as exc:
            warnings.warn(str(exc), NoGroundPlaneWarning, stacklevel=2)
            return []
    else:
        non_ground = cloud
    boxes = []
    for cluster in cluster_euclidean(non_ground, cfg):
        try:
            boxes.append(fit_oriented_box(cluster, ground_z))
        except DegenerateClusterError:
            continue
    return boxes
