"""Core geometric value types and kernels.

Conventions used throughout the toolkit:

- right-handed coordinates, z up, units in meters
- yaw is a rotation about +z in radians, kept in (-pi, pi]
- a box's ``length`` runs along its heading (yaw), ``width`` across it
- all types are immutable values; every function here is pure

The bird's-eye-view (BEV) intersection of two yaw-rotated rectangles is
computed by Sutherland-Hodgman convex clipping; degenerate (zero-area)
intersections evaluate to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

_CLIP_EPS = 1e-12
# may_overlap masks out footprints whose circumscribed circles are more
# than _CULL_MARGIN (m), plus _CULL_RELATIVE times the coordinates'
# magnitude and the clip's tolerance, apart; past _CULL_MAX_SCALE (m) the
# clip may overflow, so such pairs are always kept
_CULL_MARGIN = 1e-6
_CULL_RELATIVE = 2.0 ** -40
_CULL_MAX_SCALE = 1e100
_INT64_MAX = np.iinfo(np.int64).max
# OpenBLAS may split a long (N, 3) @ (3, 3) product over its thread pool,
# and waking the pool stalls some calls: on a 473,993-point scan single
# products took up to 210 ms against a 9-14 ms median (2-core x86-64 host,
# OpenBLAS 0.3.31). Multiplied in blocks of at most this many rows, as
# node frames of 11-14k rows always ran, no call of 9 took over 9.2 ms.
_TRANSFORM_BLOCK_ROWS = 8192
# voxel indices stay below 2**62 in magnitude, so per-axis spans fit in int64
_MAX_VOXEL_INDEX = 2.0 ** 62
# the voxel grid counts keys directly up to this many possible keys per point
_COUNTING_SPAN_PER_POINT = 4


class ObjectClass(str, Enum):
    CAR = "Car"
    CYCLIST = "Cyclist"
    PEDESTRIAN = "Pedestrian"


_CLASS_CODES = {label: code for code, label in enumerate(ObjectClass)}


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return math.pi - (math.pi - angle) % (2.0 * math.pi)


def wrap_half_angle(angle: float) -> float:
    """Wrap an angle to (-pi/2, pi/2], the period of a 180deg-symmetric box."""
    return 0.5 * math.pi - (0.5 * math.pi - angle) % math.pi


def _frozen_array(value, dtype, shape=None) -> np.ndarray:
    arr = np.array(value, dtype=dtype)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) pose: ``p_out = rotation @ p_in + translation``.

    The rotation must be a proper orthonormal matrix (checked on
    construction).
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = _frozen_array(self.rotation, float, (3, 3))
        tra = _frozen_array(self.translation, float, (3,))
        if not np.all(np.isfinite(rot)) or not np.all(np.isfinite(tra)):
            raise ValueError("transform entries must be finite")
        if not np.allclose(rot.T @ rot, np.eye(3), atol=1e-8, rtol=0.0):
            raise ValueError("rotation is not orthonormal")
        if not math.isclose(float(np.linalg.det(rot)), 1.0, abs_tol=1e-8):
            raise ValueError("rotation determinant is not +1 (improper rotation)")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    @staticmethod
    def from_yaw(yaw: float, translation=(0.0, 0.0, 0.0)) -> "RigidTransform":
        c, s = math.cos(yaw), math.sin(yaw)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return RigidTransform(rot, np.asarray(translation, dtype=float))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply to a single (3,) point or an (N, 3) array.

        An array is multiplied in blocks of at most ``_TRANSFORM_BLOCK_ROWS``
        rows into one output; each row's product is the full product's, bit
        for bit.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            return pts @ self.rotation.T + self.translation
        out = np.empty(pts.shape)
        # near-equal blocks: numpy multiplies a lone row on its
        # matrix-vector path, which rounds differently
        blocks = max(1, -(-len(pts) // _TRANSFORM_BLOCK_ROWS))
        bounds = [len(pts) * k // blocks for k in range(blocks + 1)]
        for start, stop in zip(bounds, bounds[1:]):
            np.matmul(pts[start:stop], self.rotation.T, out=out[start:stop])
        out += self.translation
        return out

    def inverse(self) -> "RigidTransform":
        rot_inv = self.rotation.T
        return RigidTransform(rot_inv, -rot_inv @ self.translation)

    def matrix(self) -> np.ndarray:
        """4x4 homogeneous form."""
        mat = np.eye(4)
        mat[:3, :3] = self.rotation
        mat[:3, 3] = self.translation
        return mat


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Composition ``a o b``: applying the result equals applying b, then a."""
    return RigidTransform(a.rotation @ b.rotation,
                          a.rotation @ b.translation + a.translation)


def rotation_angle_deg(rotation: np.ndarray) -> float:
    """Geodesic angle (degrees) of a rotation matrix away from identity."""
    trace = float(np.trace(rotation))
    cos_angle = min(1.0, max(-1.0, (trace - 1.0) / 2.0))
    return math.degrees(math.acos(cos_angle))


def transform_distance(a: RigidTransform, b: RigidTransform):
    """(rotation angle deg, translation distance m) between two poses."""
    rot = a.rotation.T @ b.rotation
    return rotation_angle_deg(rot), float(np.linalg.norm(a.translation - b.translation))


# Row kernels on vectors given as their three (x, y, z) columns: 1-D arrays,
# fastest when contiguous, or scalars. Each repeats numpy's own operation
# order on (N, 3) rows, so the bits are the same; the tests check each one
# against numpy. A NaN result is NaN, but which NaN numpy returns depends on
# where a row falls in its vector loops, so NaN bits are not matched. The
# kernels skip numpy's (N, 3) temporaries and its short reductions along
# rows.

def xyz_sq_norms(v):
    """``np.sum(rows ** 2, axis=-1)``: ``(x*x + y*y) + z*z``."""
    x, y, z = v
    return (x * x + y * y) + z * z


def xyz_norms(v):
    """``np.linalg.norm(rows, axis=1)``: ``sqrt((x*x + y*y) + z*z)``."""
    return np.sqrt(xyz_sq_norms(v))


def xyz_dots(a, b):
    """``np.einsum("ij,ij->i", a_rows, b_rows)`` on rows whose three entries
    are adjacent in memory: ``((a0*b0 + a2*b2) + a1*b1) + 0.0``.

    The ``+ 0.0`` turns a -0.0 sum into +0.0, as einsum does. On rows with
    strided entries einsum adds in the order (0, 1, 2) instead, which is
    ``xyz_dots((a0, a2, a1), (b0, b2, b1))``.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    return ((a0 * b0 + a2 * b2) + a1 * b1) + 0.0


def xyz_cross(a, b):
    """``np.cross(a_rows, b_rows)`` as three columns: the component formula."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


@dataclass(frozen=True)
class PointCloud:
    """One frame of 3D points plus optional per-point attributes.

    ``points`` is (N, 3) float64. Optional per-point arrays must match its
    length: ``intensity`` (float) and ``source_ids`` (int, which node a
    point came from after multi-view fusion). ``timestamp_ns`` is the frame
    acquisition time; ``source_node`` the acquiring node for single-view
    clouds.
    """

    points: np.ndarray
    intensity: Optional[np.ndarray] = None
    timestamp_ns: int = 0
    source_ids: Optional[np.ndarray] = None
    source_node: Optional[int] = None

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        n = len(pts)
        for name, dtype in (("intensity", float), ("source_ids", np.int64)):
            value = getattr(self, name)
            if value is None:
                continue
            arr = np.array(value, dtype=dtype)
            if len(arr) == 0:
                object.__setattr__(self, name, None)
                continue
            if arr.shape != (n,):
                raise ValueError(f"{name} must have one entry per point")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        stamp = self.timestamp_ns
        if isinstance(stamp, bool) or not isinstance(stamp, (int, np.integer)):
            raise ValueError(f"timestamp_ns must be an integer, got {stamp!r}")
        if stamp < 0:
            raise ValueError("timestamp_ns must be >= 0")
        object.__setattr__(self, "timestamp_ns", int(stamp))

    def __len__(self) -> int:
        return len(self.points)

    @staticmethod
    def empty() -> "PointCloud":
        return PointCloud(np.zeros((0, 3)))

    @staticmethod
    def concatenate(clouds, timestamp_ns: int = 0, source_node=None,
                    source_ids=None) -> "PointCloud":
        """The points of ``clouds`` in order: the one merge of clouds.

        A per-point attribute survives when every non-empty part carries
        it. ``source_ids``, such as ``[2, 0]``, instead gives every point of
        part k the source id ``source_ids[k]``.
        """
        parts = list(clouds)

        def merged(name):
            arrays = [getattr(part, name) for part in parts if len(part)]
            if arrays and all(array is not None for array in arrays):
                return np.concatenate(arrays)
            return None

        if source_ids is None:
            source_ids = merged("source_ids")
        else:
            source_ids = np.repeat(np.asarray(source_ids, dtype=np.int64),
                                   [len(part) for part in parts])
        return PointCloud(np.concatenate([part.points for part in parts]
                                         or [np.zeros((0, 3))]),
                          intensity=merged("intensity"),
                          timestamp_ns=timestamp_ns, source_node=source_node,
                          source_ids=source_ids)

    def select(self, mask_or_index) -> "PointCloud":
        """Sub-cloud keeping per-point attributes aligned.

        Takes a boolean mask with one entry per point, or indices, which
        may be negative or repeated as in numpy indexing; an empty list
        selects nothing. A mask of another length, an index out of range
        or an index that is not an integer raises IndexError. Masks are
        turned into indices, and every array is gathered with ``take``,
        which moves less data than numpy's boolean indexing.
        """
        index = np.asarray(mask_or_index)
        if index.dtype == bool:
            if index.shape != (len(self),):
                raise IndexError(f"boolean mask of shape {index.shape} does "
                                 f"not match the {len(self)} points")
            index = np.flatnonzero(index)
        elif index.dtype.kind not in "iu":
            if index.size:
                raise IndexError(f"cannot select points by {index.dtype} "
                                 f"values")
            index = index.astype(np.intp)
        pick = lambda a: None if a is None else a.take(index, axis=0)
        return PointCloud(self.points.take(index, axis=0),
                          intensity=pick(self.intensity),
                          timestamp_ns=self.timestamp_ns,
                          source_ids=pick(self.source_ids),
                          source_node=self.source_node)


def check_time_order(clouds) -> None:
    """Raise ValueError unless the clouds' timestamps never decrease."""
    stamps = [cloud.timestamp_ns for cloud in clouds]
    if any(b < a for a, b in zip(stamps, stamps[1:])):
        raise ValueError("frames must be in time order")


def apply_transform(transform: RigidTransform, cloud: PointCloud) -> PointCloud:
    """Map every point through the transform; non-geometric fields unchanged."""
    return replace(cloud, points=transform.apply(cloud.points))


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D bounding box: center, (length, width, height), yaw.

    Yaw is normalized to (-pi, pi] on construction.
    """

    center: np.ndarray
    size: np.ndarray
    yaw: float
    label: ObjectClass
    score: float = 1.0
    track_id: Optional[int] = None

    def __post_init__(self):
        center = _frozen_array(self.center, float, (3,))
        size = _frozen_array(self.size, float, (3,))
        if not np.all(np.isfinite(center)) or not np.all(np.isfinite(size)):
            raise ValueError("box center and size must be finite")
        if np.any(size <= 0.0):
            raise ValueError("box dimensions must be positive")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("score must lie in [0, 1]")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "yaw", wrap_angle(float(self.yaw)))
        object.__setattr__(self, "label", ObjectClass(self.label))

    @property
    def length(self) -> float:
        return float(self.size[0])

    @property
    def width(self) -> float:
        return float(self.size[1])

    @property
    def volume(self) -> float:
        return float(self.size[0] * self.size[1] * self.size[2])

    @property
    def z_min(self) -> float:
        return float(self.center[2] - 0.5 * self.size[2])

    @property
    def z_max(self) -> float:
        return float(self.center[2] + 0.5 * self.size[2])

    def bev_corners(self) -> np.ndarray:
        """(4, 2) footprint corners, counter-clockwise."""
        half_l, half_w = 0.5 * self.size[0], 0.5 * self.size[1]
        local = np.array([[half_l, half_w], [-half_l, half_w],
                          [-half_l, -half_w], [half_l, -half_w]])
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + self.center[:2]


def polygon_area(vertices: np.ndarray) -> float:
    """Shoelace area of a simple polygon given as (M, 2) vertices."""
    if len(vertices) < 3:
        return 0.0
    x, y = vertices[:, 0], vertices[:, 1]
    x_next = np.concatenate((x[1:], x[:1]))
    y_next = np.concatenate((y[1:], y[:1]))
    return 0.5 * abs(float(np.dot(x, y_next) - np.dot(y, x_next)))


def clip_convex_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of convex ``subject`` by convex CCW ``clip``.

    Points lying exactly on a clip edge are kept, so clipping a polygon by
    itself returns it unchanged.
    """
    output = [tuple(p) for p in np.asarray(subject, dtype=float)]
    clip = np.asarray(clip, dtype=float)
    m = len(clip)
    for i in range(m):
        if not output:
            break
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % m]
        ex, ey = bx - ax, by - ay
        current, output = output, []
        # signed area sign tells which side of edge a->b the point is on
        inside = [ex * (py - ay) - ey * (px - ax) >= -_CLIP_EPS for px, py in current]
        for j, (px, py) in enumerate(current):
            qx, qy = current[(j + 1) % len(current)]
            if inside[j]:
                output.append((px, py))
            if inside[j] != inside[(j + 1) % len(current)]:
                denom = ex * (qy - py) - ey * (qx - px)
                if abs(denom) > _CLIP_EPS:
                    # clamped: with p and q both within rounding of the
                    # edge line, t can land anywhere, and the crossing
                    # must stay on the segment from p to q
                    t = min(1.0, max(0.0, (ex * (ay - py) - ey * (ax - px))
                                     / denom))
                    output.append((px + t * (qx - px), py + t * (qy - py)))
    return np.asarray(output, dtype=float).reshape(-1, 2)


def iou_3d(a: Box3D, b: Box3D) -> float:
    """3D intersection over union: BEV polygon overlap x vertical extent overlap."""
    z_overlap = min(a.z_max, b.z_max) - max(a.z_min, b.z_min)
    if z_overlap <= 0.0:
        return 0.0
    inter = polygon_area(clip_convex_polygon(a.bev_corners(),
                                             b.bev_corners())) * z_overlap
    union = a.volume + b.volume - inter
    if union <= 0.0:
        return 0.0
    return min(1.0, max(0.0, inter / union))


def may_overlap(first, second, pairs=None) -> np.ndarray:
    """Mask of box pairs, False only where the two boxes are of different
    classes or ``iou_3d(first[i], second[j])`` is certainly 0.0: over every
    pair, (len(first), len(second)), or over the (i, j) rows of ``pairs``.
    It is the one test that two footprints cannot touch; ``iou_3d`` itself
    always clips.

    A pair is masked out when the classes differ, when the vertical
    extents do not overlap (computed as ``iou_3d`` computes them, so the
    test is exact), or when the footprints' circumscribed circles (centre,
    half diagonal) are farther apart than ``_CULL_MARGIN`` plus bounds on
    rounding and on the clip's tolerance. Then, for a = ``first[i]`` and
    b = ``second[j]``, the clip of a's footprint by b's keeps no point, and
    ``polygon_area`` and ``iou_3d`` return 0.0.
    Write rho for ``rounding = _CULL_RELATIVE * scale``, eps for
    ``_CLIP_EPS``, D for the exact distance of the stored centres, and Ra,
    Rb for the exact half diagonals of the stored sizes:

    - ``np.hypot`` is within one ulp of the exact value, and each term of
      the gap is at most 4 times ``scale``, so the computed gap is within
      ``2**-48 * scale`` of D - Ra - Rb, and ``scale`` and rho are within a
      relative ``2**-50`` of their exact values. A masked pair therefore
      has D - Ra - Rb > ``_CULL_MARGIN`` + 2 rho + 2 eps / ``shortest``.
    - Rounding in ``bev_corners``, in the clip's keep test and in its
      crossings moves a point or an edge by a few ulps of ``scale`` per
      step, far less than rho over b's four edges. So b's computed edges
      are longer than ``shortest``, a side of b less 3 rho.
    - Every point the clip keeps or makes lies on a's footprint up to
      rounding: the footprint is convex, and each crossing is clamped to
      the segment between two kept points. It is within Ra + rho of a's
      centre.
    - Every such point passed the keep test of each edge of b, which
      accepts a point up to eps / (edge length) < eps / ``shortest``
      outside the edge's line. A point at most d outside each side of a
      rectangle is within its half diagonal plus sqrt(2) d of its centre,
      so the point is within Rb + sqrt(2) eps / ``shortest`` + rho of b's.
    - Both would give D <= Ra + Rb + 2 rho + sqrt(2) eps / ``shortest``,
      against the first step with ``_CULL_MARGIN`` to spare. So the clip
      keeps no point.

    The tolerance term is 2 eps / ``shortest`` because sqrt(2) eps /
    ``shortest`` exceeds eps / ``shortest`` plus the margin on footprints
    under about 4e-7 m a side: two 1e-8 m squares whose circles are 1.3e-4
    m apart clip to a whole square. A masked gap exceeds 1e-6 m, so every
    term is a normal number. A footprint of b too small for its corners to
    stay apart (``shortest <= 0``), or ``scale + rounding`` at or past
    ``_CULL_MAX_SCALE``, where the clip may overflow, keeps the pair.
    """
    a, b = _footprint_columns(first), _footprint_columns(second)
    if pairs is None:
        a, b = a[:, :, None], b[:, None, :]
    else:
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        a, b = a[:, pairs[:, 0]], b[:, pairs[:, 1]]
    a_code, ax, ay, a_low, a_high, ra, a_far, _ = a
    b_code, bx, by, b_low, b_high, rb, b_far, b_shortest = b
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        scale = np.maximum(a_far, b_far) + ra + rb
        rounding = _CULL_RELATIVE * scale
        shortest = b_shortest - 3.0 * rounding
        gap = np.hypot(ax - bx, ay - by) - ra - rb
        apart = ((scale + rounding < _CULL_MAX_SCALE) & (shortest > 0.0)
                 & (gap > _CULL_MARGIN + 3.0 * rounding
                    + 2.0 * _CLIP_EPS / shortest))
    z_overlap = np.minimum(a_high, b_high) - np.maximum(a_low, b_low)
    return (a_code == b_code) & (z_overlap > 0.0) & ~apart


def _footprint_columns(boxes) -> np.ndarray:
    """(8, n) rows of ``boxes``: class code, centre x and y, z_min, z_max,
    footprint half diagonal, the larger of |x| and |y|, and the shorter
    footprint side, each rounded as ``Box3D`` rounds it."""
    centers = np.array([box.center for box in boxes], dtype=float)
    sizes = np.array([box.size for box in boxes], dtype=float)
    x, y, z = centers.reshape(-1, 3).T
    length, width, height = sizes.reshape(-1, 3).T
    with np.errstate(over="ignore"):
        half_diagonal = 0.5 * np.hypot(length, width)
    return np.array([[_CLASS_CODES[box.label] for box in boxes], x, y,
                     z - 0.5 * height, z + 0.5 * height, half_diagonal,
                     np.maximum(np.abs(x), np.abs(y)),
                     np.minimum(length, width)])


def stable_order(keys: np.ndarray, span: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer ``keys`` in
    [0, span): the same permutation, sorted on the keys cast to the
    narrowest unsigned dtype that holds ``span - 1``. numpy sorts keys of
    at most 16 bits by radix, about 10 times faster than int64 keys."""
    narrow = keys.astype(np.min_scalar_type(max(span - 1, 0)), copy=False)
    return np.argsort(narrow, kind="stable")


def linked_groups(n: int, pairs) -> list:
    """The groups of items 0..n-1 that (i, j) ``pairs`` link, transitively:
    ascending index arrays in the order of their smallest index, whatever
    the order of the pairs. No items give no groups. Raises ValueError for
    an index outside 0..n-1.

    Union-find over all pairs at once (hooking and pointer jumping, after
    Shiloach and Vishkin): every item's label is a root, an item whose
    label is itself. Each round hooks, for every pair whose labels differ,
    the larger root under the smallest root it is paired with, then
    replaces each label by its label's label until no label changes. A
    label never exceeds its item, so each root is the smallest item of
    its tree, and rounds end when every pair shares a root: each label is
    then the smallest member of the item's group, and a stable sort of
    the labels lists the groups in order.
    """
    if n == 0:
        return []
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if len(pairs) and not (0 <= pairs.min() and pairs.max() < n):
        raise ValueError(f"linked item indices must lie in [0, {n})")
    labels = np.arange(n)
    while True:
        first, second = labels[pairs[:, 0]], labels[pairs[:, 1]]
        differ = first != second
        if not differ.any():
            break
        first, second = first[differ], second[differ]
        np.minimum.at(labels, np.maximum(first, second),
                      np.minimum(first, second))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
    order = stable_order(labels, n)
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def _lexicographic_key(cells: np.ndarray) -> np.ndarray:
    """One int64 per row of (N, D) int64 ``cells``, ordered as the rows are.

    Each column is shifted to start at 0 and packed below the columns before
    it, so the keys sort exactly as ``np.unique(cells, axis=0)`` sorts the
    rows. When the packed prefix times the next column's span would not fit
    in int64, the prefix is first replaced by its rank among the distinct
    prefixes (there are at most N of them); a column whose span still does
    not fit is ranked the same way. Ranking keeps the order, so the keys
    never wrap and never change order.
    """
    key = np.zeros(len(cells), dtype=np.int64)
    span = 1
    for column in cells.T:
        column = column - column.min()
        column_span = int(column.max()) + 1
        if span * column_span > _INT64_MAX:
            distinct, key = np.unique(key, return_inverse=True)
            span = len(distinct)
        if span * column_span > _INT64_MAX:
            distinct, column = np.unique(column, return_inverse=True)
            column_span = len(distinct)
        key = key * column_span + column
        span *= column_span
    return key


def _voxel_grid(key: np.ndarray):
    """Each key's rank among the distinct keys, and the count of each
    distinct key in ascending order: ``np.unique``'s inverse and counts.

    Keys are >= 0. When they span at most 4 values per point, ``bincount``
    counts every possible key and a running total of the occupied ones
    ranks them, with no sort; wider spans fall back to ``np.unique``.
    """
    span = int(key.max()) + 1
    if span > _COUNTING_SPAN_PER_POINT * len(key):
        _, inverse, counts = np.unique(key, return_inverse=True,
                                       return_counts=True)
        return inverse, counts
    counts = np.bincount(key, minlength=span)
    occupied = counts > 0
    counts = counts[occupied]
    rank = np.cumsum(occupied)
    rank -= 1
    return rank[key], counts


def voxel_downsample(cloud: PointCloud, voxel_size: float) -> PointCloud:
    """One output point per occupied voxel, at the centroid of its members.

    A point on a voxel boundary belongs to floor(coordinate / voxel_size).
    Voxels are emitted in sorted (x, y, z) index order, so the result does
    not depend on the input point order. The three indices are packed into
    one int64 key that sorts as the index rows do; when the product of the
    per-axis spans would overflow int64, the (x, y) prefix is re-ranked
    before z is packed (see ``_lexicographic_key``), so the key never wraps
    and the voxel order stays the same. When the keys span at most 4 values
    per point, the voxels are found by counting each possible key; wider
    spans fall back to sorting the keys with ``np.unique``. Both give the
    same order, membership and counts (see ``_voxel_grid``). Member sums
    accumulate in input order. Intensity is averaged per voxel; the source
    ids keep the per-voxel minimum. Raises ValueError when a voxel index
    reaches 2**62 in magnitude.
    """
    if voxel_size <= 0.0:
        raise ValueError("voxel_size must be positive")
    if len(cloud) == 0:
        return cloud
    scaled = cloud.points / voxel_size
    np.floor(scaled, out=scaled)
    if not np.abs(scaled).max() < _MAX_VOXEL_INDEX:
        raise ValueError("voxel_size is too small for the cloud's extent")
    # each copy of the cells is freed before the next step allocates
    cells = scaled.astype(np.int64)
    del scaled
    key = _lexicographic_key(cells)
    del cells
    inverse, counts = _voxel_grid(key)
    del key
    n_voxels = len(counts)

    def voxel_sums(values):
        # bincount adds each voxel's members in input order
        return np.bincount(inverse, weights=values, minlength=n_voxels)

    centroids = np.stack([voxel_sums(column) for column in cloud.points.T],
                         axis=1) / counts[:, None]
    intensity = source_ids = None
    if cloud.intensity is not None:
        intensity = voxel_sums(cloud.intensity) / counts
    if cloud.source_ids is not None:
        # gather the members voxel by voxel, then reduce each run
        source_ids = np.minimum.reduceat(
            cloud.source_ids[np.argsort(inverse)], np.cumsum(counts) - counts)

    return PointCloud(centroids, intensity=intensity,
                      timestamp_ns=cloud.timestamp_ns, source_ids=source_ids,
                      source_node=cloud.source_node)
