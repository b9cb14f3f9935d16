"""Non-learned baseline 3D detector.

Pipeline: background subtraction against the reference scan of the empty
scene, which strips the static structure, the ground included, then
Euclidean distance clustering, then a minimum-area oriented rectangle per
cluster (rotating calipers over the BEV convex hull). The class label comes
from per-class size priors and the score from the normalized point count,
which is monotone in visibility: exactly the signal multi-view fusion
recovers when a single view is occluded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .errors import DegenerateClusterError, FormatError, \
    TooManyPairsError, check_number
from .geometry import Box3D, ObjectClass, PointCloud, linked_groups, \
    wrap_angle

# (length range, width range, height range) per class; footprint areas are
# disjoint so at most one prior can match
DEFAULT_SIZE_PRIORS = {
    ObjectClass.CAR: ((3.0, 6.5), (1.4, 2.3), (1.0, 2.3)),
    ObjectClass.CYCLIST: ((1.2, 2.6), (0.7, 1.2), (1.0, 2.1)),
    ObjectClass.PEDESTRIAN: ((0.2, 0.9), (0.2, 0.9), (0.9, 2.1)),
}

# the height (m) of the world frame's ground, which the background holds:
# subtraction strips it, and boxes reach down to it
GROUND_Z = 0.0
# thinner fits are sheet fragments (wall slivers at occlusion borders)
_MIN_BOX_WIDTH = 0.15
# a point within this distance (m) of the background scan is static
BACKGROUND_DISTANCE = 0.5
# padding (m) on the cropped background square, so that rounding in the
# crop never drops a background point the exact distance test would find
_BACKGROUND_MARGIN = 1e-6
# candidate-tree leaf size. The 48 background subtractions of one
# `experiments` benchmark pass (seed 0), whose trees hold the background
# near each frame's undecided points (268,616 points in all), took in sum,
# single-threaded on a 2-core x86-64 host (median of 31 rounds, every mask
# identical): 93 ms at scipy's default 16, 88 ms at 32, 86 ms at 64 and
# 87 ms at 128; past 32 the gaps are within the rounds' interquartile
# ranges, about 5 ms wide
BACKGROUND_LEAF_SIZE = 64
# the background grid's table holds at most this many coarse cells per
# background point, and at least _GRID_MIN_CELLS; a wider grid decides
# nothing (one cell holds the whole background)
_GRID_CELLS_PER_POINT = 8
_GRID_MIN_CELLS = 2 ** 16
# the grid's rounding argument needs a distance (m) whose square, half and
# reach are normal numbers, and background coordinates of at most
# _GRID_SPAN distances from 0
_GRID_DISTANCES = (1e-100, 1e100)
_GRID_SPAN = 2.0 ** 40
# a background point covers a fine cell when the squares of its offsets to
# the cell's far corner, in fine cells, sum to at most this; the distance
# is 2 fine cells, so 4 would be the distance itself, and the rest absorbs
# rounding (see subtract_background)
_COVER_LIMIT = 3.9
# the candidate cells reach this much more than the distance, relatively:
# the oracle's rounded distance test accepts no pair farther apart along an
# axis than the distance times (1 + 4 * 2**-53)
_REACH_RELATIVE = 2.0 ** -20
# clustering refuses a cloud with more linked pairs than this: at 16 bytes
# a pair, the pair array alone would pass 320 MB
MAX_CLUSTER_PAIRS = 20_000_000
# connected components with fewer points than this are dropped as noise
MIN_CLUSTER_POINTS = 15
# a box's score is its cluster's point count over this, clipped to
# [0.05, 1]: a cluster this size or larger scores 1
SCORE_POINTS_SCALE = 200.0


@dataclass(frozen=True)
class DetectorConfig:
    cluster_distance: float = 0.5

    def __post_init__(self):
        check_number("detector.cluster_distance", self.cluster_distance,
                     0, low_open=True)


def in_square(points: np.ndarray, half_extent: float) -> np.ndarray:
    """Mask of the points with |x| <= half_extent and |y| <= half_extent."""
    return ((np.abs(points[:, 0]) <= half_extent)
            & (np.abs(points[:, 1]) <= half_extent))


def _positions(points: np.ndarray, origin, scale: float, axis: int):
    """``fl(fl(x - origin) * scale)`` for one coordinate: the position
    along ``axis`` in fine cells, monotone in x."""
    position = points[:, axis] - origin[axis]
    position *= scale
    return position


def _fine_cells(points: np.ndarray, origin, scale: float, fine_shape):
    """Per axis, each point's fine cell, clipped to [-4, fine_shape + 3]:
    the background's cells are 0 to fine_shape - 1, and -4 and
    fine_shape + 3, two coarse cells from them, stand for everything
    beyond."""
    for axis, size in enumerate(fine_shape):
        cell = _positions(points, origin, scale, axis)
        np.clip(cell, -4.0, size + 3, out=cell)
        yield np.floor(cell, out=cell).astype(np.int64)


def _tables(fine_shape) -> tuple:
    """Shapes of the fine table, which holds fine cells -4 to
    fine_shape + 3 at ``cell + 4`` along each axis, and of the coarse
    table, whose cell ``(cell >> 1) + 2`` holds 2 x 2 x 2 fine ones."""
    return (tuple(size + 8 for size in fine_shape),
            tuple(((size + 3) >> 1) + 3 for size in fine_shape))


def _flat(cells, shape, count: int) -> np.ndarray:
    """Flat index into a table of ``shape`` of ``count`` cells, given one
    axis at a time."""
    key = np.zeros(count, dtype=np.int64)
    for cell, size in zip(cells, shape):
        key *= size
        key += cell
    return key


@dataclass(frozen=True)
class PreparedBackground:
    """A background scan on a cell grid, made by ``prepare_background``.

    ``covered`` flags each fine cell whose every point lies within the
    distance of one background point. ``points`` are sorted by coarse
    cell: coarse cell ``c`` holds ``points[starts[c]:starts[c + 1]]``.
    ``scale`` is 0 when the grid decides nothing.
    """

    points: np.ndarray
    starts: np.ndarray
    covered: np.ndarray
    origin: np.ndarray
    scale: float
    fine_shape: tuple
    distance: float
    reach: float
    crop_half_extent: Optional[float]

    def _cells(self, points: np.ndarray):
        return _fine_cells(points, self.origin, self.scale, self.fine_shape)

    def _undecided(self, points: np.ndarray) -> np.ndarray:
        """Mask of the points whose fine cell is not covered."""
        fine, _ = _tables(self.fine_shape)
        key = _flat((cell + 4 for cell in self._cells(points)), fine,
                    len(points))
        return ~self.covered[key]

    def _candidates(self, points: np.ndarray) -> np.ndarray:
        """The background points of every coarse cell that some point of
        ``points`` reaches within ``reach`` along each axis."""
        _, coarse = _tables(self.fine_shape)
        marks = np.zeros(coarse, dtype=bool)
        lows = [(cell >> 1) + 2 for cell in self._cells(points - self.reach)]
        highs = [(cell >> 1) + 2 for cell in self._cells(points + self.reach)]
        # per axis, two cells whose neighbours cover [low, high]: the
        # rounded ends lie less than 4.01 fine cells apart (see
        # subtract_background), so high - low <= 3
        inner = [(np.minimum(low + 1, high), np.maximum(high - 1, low))
                 for low, high in zip(lows, highs)]
        for x in inner[0]:
            for y in inner[1]:
                for z in inner[2]:
                    marks[x, y, z] = True
        for axis in range(3):
            view = np.moveaxis(marks, axis, 0)
            grown = view.copy()
            view[1:] |= grown[:-1]
            view[:-1] |= grown[1:]
        cells = np.flatnonzero(marks)
        first = self.starts[cells]
        lengths = self.starts[cells + 1] - first
        ends = np.cumsum(lengths)
        index = np.arange(ends[-1] if len(ends) else 0)
        index += np.repeat(first - (ends - lengths), lengths)
        return self.points[index]


def _cover(points: np.ndarray, origin, scale: float,
           fine_shape) -> np.ndarray:
    """The flat fine table's flags of the fine cells that a background
    point covers: its own cell and those of its 26 neighbours whose far
    corner it reaches."""
    shape, _ = _tables(fine_shape)
    cells, far = [], []
    for axis in range(3):
        position = _positions(points, origin, scale, axis)
        cell = np.floor(position)
        offset = (position - cell).astype(np.float32)
        cells.append(cell.astype(np.int64) + 4)
        # squared offsets to the far corner of the cell before, the
        # point's own cell and the cell after
        far.append(((1 + offset) ** 2, np.maximum(offset, 1 - offset) ** 2,
                    (2 - offset) ** 2))
    key = _flat(cells, shape, len(points))
    covered = np.zeros(math.prod(shape), dtype=bool)
    covered[key] = True
    strides = (shape[1] * shape[2], shape[2], 1)
    for step in itertools.product((-1, 0, 1), repeat=3):
        if any(step):
            near = ((far[0][step[0] + 1] + far[1][step[1] + 1])
                    + far[2][step[2] + 1]) <= _COVER_LIMIT
            covered[key[near] + np.dot(step, strides)] = True
    return covered


def prepare_background(background: PointCloud,
                       crop_half_extent: Optional[float] = None,
                       distance: float = BACKGROUND_DISTANCE
                       ) -> PreparedBackground:
    """Index a background scan for ``subtract_background``.

    With ``crop_half_extent``, only the background within ``distance`` of
    the detection square |x|, |y| <= crop_half_extent is kept (plus a 1e-6 m
    margin): no other background point lies within ``distance`` of a frame
    point the square keeps. Raises FormatError when no background point
    remains: subtracting it would remove nothing, not even the ground.

    Fine cells have side ``distance / 2`` and are counted from the
    background's minimum corner. A background whose grid does not fit the
    table (more than 8 coarse cells per background point, and more than
    2**16), whose coordinates pass ``2**40 * distance``, or a distance
    outside [1e-100, 1e100], gets a table of one cell that holds every
    background point and covers nothing.
    """
    where = ""
    points = background.points
    if crop_half_extent is not None:
        reach = crop_half_extent + distance + _BACKGROUND_MARGIN
        points = points[in_square(points, reach)]
        where = (f" within {distance} m of the detection square "
                 f"|x|, |y| <= {crop_half_extent!r}")
    if len(points) == 0:
        raise FormatError(f"background scan holds no points{where}")
    origin = np.array([points[:, axis].min() for axis in range(3)])
    top = np.array([points[:, axis].max() for axis in range(3)])
    scale = 2.0 / distance
    fits = (_GRID_DISTANCES[0] <= distance <= _GRID_DISTANCES[1]
            and max(-origin.min(), top.max()) <= distance * _GRID_SPAN)
    if fits:
        fine_shape = tuple(int(cells) + 1 for cells in (top - origin) * scale)
        fits = math.prod(_tables(fine_shape)[1]) <= max(
            _GRID_MIN_CELLS, _GRID_CELLS_PER_POINT * len(points))
    if not fits:
        origin, scale, fine_shape = np.zeros(3), 0.0, (1, 1, 1)
    fine, coarse = _tables(fine_shape)
    key = _flat(((cell >> 1) + 2 for cell in _fine_cells(
        points, origin, scale, fine_shape)), coarse, len(points))
    return PreparedBackground(
        points=points[np.argsort(key, kind="stable")],
        starts=np.concatenate(([0], np.cumsum(np.bincount(
            key, minlength=math.prod(coarse))))),
        covered=(_cover(points, origin, scale, fine_shape) if fits
                 else np.zeros(math.prod(fine), dtype=bool)),
        origin=origin, scale=scale, fine_shape=fine_shape, distance=distance,
        reach=distance * (1.0 + _REACH_RELATIVE) if fits else 0.0,
        crop_half_extent=crop_half_extent)


def subtract_background(cloud: PointCloud,
                        background: PreparedBackground) -> PointCloud:
    """Drop points within ``background.distance`` of a static background.

    The background is the reference scan of the empty scene; what survives
    is the dynamic content. Essential for geometric detection wherever the
    scene's static clutter is the same shape and size as the targets.

    A point is dropped exactly when scipy's ``cKDTree.query`` with
    ``distance_upper_bound=distance`` over the whole background finds a
    neighbour, that is when some background point's rounded squared
    distance to it is below the rounded ``distance**2``. Two steps give
    that mask with less work. Write ``d`` for the distance and ``u = 2**-53``
    for the unit roundoff. A coordinate's position is ``fl(fl(x - o) * s)``
    with ``o`` the background's minimum and ``s = fl(2 / d)``, and its fine
    cell is the floor of that, so a fine cell has side ``d / 2``.

    - A point in a fine cell that one background point covers is dropped
      unqueried. Point ``b`` covers cell ``c`` when the squares of its
      offsets, in fine cells, to the far face of ``c`` along each axis sum
      to at most 3.9 (in float32, from its exact offset within its own
      cell); it covers its own cell, at most 3, and some of the 26 around
      it. The grid is used only while every background coordinate is
      within ``2**40 * d`` of 0, so the positions of the points involved
      are below ``2**43`` and lie within ``2.0001u * 2**43 < 0.0025`` fine
      cells of their exact values. Along each axis a point of ``c`` is
      then at most the offset plus 0.005 fine cells from ``b``, their
      squared distance is below ``3.97 * (d / 2)**2 < 0.995 * d**2``, and
      the oracle's rounded one stays below the rounded ``d**2``.
    - Every other point is queried, on one unbalanced, uncompacted tree
      over the background points of the coarse cells (2 x 2 x 2 fine
      ones) that the point reaches within ``reach = d * (1 + 2**-20)``
      along each axis. A background point ``b`` that the oracle accepts
      lies within ``d * (1 + 4u)`` of the point ``p`` along every axis, so
      ``p - reach <= b <= p + reach`` in exact arithmetic, and so for the
      rounded ``p - reach`` and ``p + reach`` too, since ``b`` is a float
      and rounding to nearest is monotone. The subtraction of ``o``, the
      scaling, ``floor``, the clip to the table and halving are monotone
      as well, so ``b``'s coarse cell lies between theirs, and the tree
      holds ``b``, pairs exactly at the distance included. The same tree
      query then answers as the oracle does. The rounded ``p - reach`` and
      ``p + reach`` lie less than 4.01 fine cells apart (a table cell's
      position is below ``2**43``), so they span at most 4 coarse cells
      along each axis.

    Each call builds exactly one tree, over zero points when no point is
    undecided or none reaches a background cell. When the grid decides
    nothing, every point is queried against the whole background. A cloud
    that loses no point, an empty one included, comes back as it is.
    """
    points = cloud.points
    undecided = background._undecided(points)
    queried = points[undecided]
    tree = cKDTree(background._candidates(queried),
                   leafsize=BACKGROUND_LEAF_SIZE, balanced_tree=False,
                   compact_nodes=False)
    nearest, _ = tree.query(queried,
                            distance_upper_bound=background.distance)
    keep = np.zeros(len(points), dtype=bool)
    keep[undecided] = ~np.isfinite(nearest)
    return cloud if keep.all() else cloud.select(keep)


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


def fit_oriented_box(cluster: PointCloud) -> Box3D:
    """Fit a yaw-oriented box around a cluster.

    Yaw and footprint come from the minimum-area rectangle of the BEV
    convex hull, the vertical extent from the z range, extended down to
    GROUND_Z when the lowest point is within 1 m above it (subtraction
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
    if 0.0 < z_min - GROUND_Z < 1.0:
        z_min = GROUND_Z
    height = max(z_max - z_min, 1e-3)
    width = max(width, 1e-3)
    label = _classify_by_size(length, width, height)
    score = min(1.0, max(0.05, len(cluster) / SCORE_POINTS_SCALE))
    return Box3D(center=(center_xy[0], center_xy[1], 0.5 * (z_min + z_max)),
                 size=(length, width, height), yaw=yaw, label=label,
                 score=score)


def detect_frame(cloud: PointCloud, cfg: DetectorConfig = DetectorConfig()
                 ) -> list:
    """Clustering and box fitting for one background-subtracted frame.

    Boxes reach down to GROUND_Z, the ground that the background took
    away. Clusters no box fits are skipped.
    """
    boxes = []
    for cluster in cluster_euclidean(cloud, cfg):
        try:
            boxes.append(fit_oriented_box(cluster))
        except DegenerateClusterError:
            continue
    return boxes
