"""Synthetic outdoor scene generator with per-node occlusion.

Builds crossroad-style scenes (ground, corner buildings, occluder walls,
moving objects) and renders each sensor node's frames by first-hit ray
casting over the sensor's field of view, so an object behind a wall simply
receives no points from that node and nearby objects receive more points
than distant ones. Everything the experiments need as ground truth comes
back exact: per-frame boxes with track ids, node extrinsics, trajectories,
and per-object visible-point counts.

Deterministic given (spec, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, check_number
from .geometry import Box3D, ObjectClass, PointCloud, RigidTransform, \
    stable_order, xyz_cross, xyz_norms
from .syncsim import DEFAULT_FRAME_RATE_HZ, MAX_FRAME_RATE_HZ, NS, \
    frame_times_ns
from .tracking import TrajectorySet

# field of view of the scanning unit: 100 x 40 degrees
DEFAULT_AZIMUTH_FOV_DEG = 100.0
DEFAULT_ELEVATION_FOV_DEG = 40.0
# a scene holds every node frame in memory, up to one 24-byte point per ray:
# 0.35 MB at the crossroad's 240 x 60 grid, so 1,000 frames (100 s at
# 10 Hz) of its 4 nodes stay under 1.4 GB
MAX_SCENE_FRAMES = 1_000

# reference scanner: vertical sweep (degrees) and range noise (m)
_REFERENCE_ELEVATION_RANGE_DEG = (-35.0, 30.0)
_REFERENCE_NOISE_SIGMA = 0.005
# a node's calibration pass: frames, range noise (m), maximum range (m)
_CALIBRATION_FRAMES = 10
_CALIBRATION_NOISE_SIGMA = 0.02
_CALIBRATION_MAX_RANGE = 200.0
# street-clutter boxes around the rim (and half as many trees, at least 4)
_CLUTTER_COUNT = 24
# the standard crossroad's half side (m)
_CROSSROAD_EXTENT = 22.0

DEFAULT_OBJECT_SIZES = {
    ObjectClass.CAR: (4.2, 1.9, 1.5),
    ObjectClass.CYCLIST: (1.8, 0.8, 1.6),
    ObjectClass.PEDESTRIAN: (0.5, 0.5, 1.7),
}


@dataclass(frozen=True)
class SceneBox:
    """Static oriented obstacle (building, wall, kiosk)."""

    center: tuple
    size: tuple
    yaw: float = 0.0


@dataclass(frozen=True)
class SceneSphere:
    """Static spherical obstacle (tree canopy, dome).

    Curved surfaces matter for automatic calibration: planes all share one
    surface-feature signature, while curvature varies smoothly from point
    to point and survives resampling between scans.
    """

    center: tuple
    radius: float


@dataclass(frozen=True)
class SceneObject:
    """Constant-velocity dynamic object on the ground plane."""

    label: ObjectClass
    start_xy: tuple
    velocity_xy: tuple = (0.0, 0.0)
    size: Optional[tuple] = None
    yaw: Optional[float] = None  # default: heading of the velocity
    track_id: int = 0

    def dimensions(self) -> tuple:
        return self.size if self.size is not None \
            else DEFAULT_OBJECT_SIZES[self.label]

    def heading(self) -> float:
        if self.yaw is not None:
            return self.yaw
        vx, vy = self.velocity_xy
        if abs(vx) < 1e-12 and abs(vy) < 1e-12:
            return 0.0
        return math.atan2(vy, vx)

    def box_at(self, time_s: float) -> Box3D:
        x = self.start_xy[0] + self.velocity_xy[0] * time_s
        y = self.start_xy[1] + self.velocity_xy[1] * time_s
        l, w, h = self.dimensions()
        return Box3D(center=(x, y, h / 2.0), size=(l, w, h),
                     yaw=self.heading(), label=self.label,
                     track_id=self.track_id)


def look_at(position, target, roll: float = 0.0) -> RigidTransform:
    """Node-to-world pose of a sensor at ``position`` whose +x boresight
    points at ``target``.

    +z stays as close to world-up as the boresight allows; ``roll`` then
    rotates about the boresight, so arbitrary full rotations are reachable.
    """
    forward = np.asarray(target, dtype=float) - np.asarray(position, dtype=float)
    norm = np.linalg.norm(forward)
    if norm < 1e-9:
        raise ConfigError("look-at target coincides with the position")
    forward = forward / norm
    up = np.array([0.0, 0.0, 1.0])
    if abs(forward @ up) > 0.999:
        up = np.array([1.0, 0.0, 0.0])
    left = np.array(xyz_cross(up, forward))
    left /= np.linalg.norm(left)
    up = np.array(xyz_cross(forward, left))
    orientation = np.column_stack([forward, left, up])
    if roll:
        c, s = math.cos(roll), math.sin(roll)
        roll_mat = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        orientation = orientation @ roll_mat
    return RigidTransform(orientation, np.asarray(position, dtype=float))


@dataclass(frozen=True)
class SceneSpec:
    nodes: tuple                      # node-to-world RigidTransform per node
    objects: tuple = ()
    statics: tuple = ()
    extent: float = 25.0
    n_frames: int = 1
    frame_rate_hz: float = DEFAULT_FRAME_RATE_HZ
    noise_sigma: float = 0.02
    azimuth_steps: int = 240
    elevation_steps: int = 60
    # the reference scan is itself a ray-cast acquisition: a tripod scanner
    # moved through several stations inside the scene and merged, so the
    # reference covers the surfaces each node can see (single-station scans
    # leave occlusion shadows that ruin feature matching)
    reference_scanner_positions: tuple = ((0.6, -0.9, 2.2),)
    reference_azimuth_steps: int = 720
    reference_elevation_steps: int = 110

    def __post_init__(self):
        if not self.nodes:
            raise ConfigError("scene needs at least one node")
        if not all(isinstance(node, RigidTransform) for node in self.nodes):
            raise ConfigError("scene nodes must be RigidTransform poses")
        check_number("extent", self.extent, 0, low_open=True)
        check_number("n_frames", self.n_frames, 1, MAX_SCENE_FRAMES,
                     integer=True)
        check_number("frame_rate_hz", self.frame_rate_hz, 0,
                     MAX_FRAME_RATE_HZ, low_open=True)
        check_number("noise_sigma", self.noise_sigma, 0)
        # ray grids of at least 2 x 2
        for name in ("azimuth_steps", "elevation_steps",
                     "reference_azimuth_steps", "reference_elevation_steps"):
            check_number(name, getattr(self, name), 2, integer=True)
        ids = [obj.track_id for obj in self.objects]
        if len(set(ids)) != len(ids):
            raise ConfigError("object track ids must be unique")


@dataclass(frozen=True)
class SyntheticScene:
    spec: SceneSpec
    extrinsics: dict                  # node index -> RigidTransform
    node_frames: dict                 # node index -> list of PointCloud
    reference_cloud: PointCloud
    gt_boxes: list                    # per frame: list of Box3D with track ids
    trajectories: TrajectorySet
    visible_counts: np.ndarray        # (frames, nodes, objects) hit counts

    def annotations(self) -> list:
        """Ground truth as (frame, Box3D) pairs for the detection metrics."""
        return [(frame, box) for frame, boxes in enumerate(self.gt_boxes)
                for box in boxes]

    @property
    def reference_viewpoint(self) -> tuple:
        """Centroid of the scanner stations (for normal orientation)."""
        stations = np.asarray(self.spec.reference_scanner_positions)
        return tuple(stations.mean(axis=0))


def _direction_grid(az: np.ndarray, el: np.ndarray) -> np.ndarray:
    """(len(el) * len(az), 3) unit directions, azimuth varying fastest."""
    az_grid, el_grid = np.meshgrid(az, el)
    cos_el = np.cos(el_grid)
    dirs = np.stack([cos_el * np.cos(az_grid), cos_el * np.sin(az_grid),
                     np.sin(el_grid)], axis=-1)
    return dirs.reshape(-1, 3)


def _ray_grid(spec: SceneSpec) -> np.ndarray:
    """(K, 3) unit directions in the node frame, +x boresight."""
    az = np.radians(np.linspace(-DEFAULT_AZIMUTH_FOV_DEG / 2,
                                DEFAULT_AZIMUTH_FOV_DEG / 2,
                                spec.azimuth_steps))
    el = np.radians(np.linspace(-DEFAULT_ELEVATION_FOV_DEG / 2,
                                DEFAULT_ELEVATION_FOV_DEG / 2,
                                spec.elevation_steps))
    return _direction_grid(az, el)


def _reference_ray_grid(spec: SceneSpec) -> np.ndarray:
    """(K, 3) world directions of a reference station's 360-degree sweep."""
    el_lo, el_hi = _REFERENCE_ELEVATION_RANGE_DEG
    az = np.radians(np.linspace(-180.0, 180.0, spec.reference_azimuth_steps,
                                endpoint=False))
    el = np.radians(np.linspace(el_lo, el_hi, spec.reference_elevation_steps))
    return _direction_grid(az, el)


def _ray_box_entry(origin: np.ndarray, dirs: np.ndarray, center, size,
                   yaw: float) -> np.ndarray:
    """Entry parameter t of each ray into an oriented box (inf for a miss)."""
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    local_origin = (origin - np.asarray(center, dtype=float)) @ rot
    local_dirs = dirs @ rot
    half = np.asarray(size, dtype=float) / 2.0
    # in place where the operands allow: on large ray sets the time goes
    # mostly to allocating fresh (rays, 3) temporaries
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t1 = (-half - local_origin) / local_dirs
        t2 = np.divide(half - local_origin, local_dirs, out=local_dirs)
    lo = np.minimum(t1, t2)
    hi = np.maximum(t1, t2, out=t1)
    # rays parallel to a slab they sit exactly on produce NaN: treat as inside
    lo[np.isnan(lo)] = -np.inf
    hi[np.isnan(hi)] = np.inf
    # one column per slab: element-wise max/min of the columns, not a
    # reduction over the length-3 axis, which costs far more
    t_enter = np.maximum(np.maximum(lo[:, 0], lo[:, 1]), lo[:, 2])
    t_exit = np.minimum(np.minimum(hi[:, 0], hi[:, 1]), hi[:, 2])
    hit = (t_exit >= t_enter) & (t_enter > 1e-9)
    return np.where(hit, t_enter, np.inf)


def _row_dots(rows: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """``rows @ vector``, each row's product rounded the same whatever
    rows come with it.

    numpy multiplies a lone row on another path than a batch of rows, and
    the two can differ in the last bit, so a lone row is multiplied as two.
    """
    if len(rows) == 1:
        return (np.concatenate([rows, rows]) @ vector)[:1]
    return rows @ vector


def _ray_sphere_entry(origin: np.ndarray, dirs: np.ndarray, center,
                      radius: float) -> np.ndarray:
    """Entry parameter t of each ray into a sphere (inf for a miss)."""
    offset = origin - np.asarray(center, dtype=float)
    b = _row_dots(dirs, offset)
    c = offset @ offset - radius * radius
    disc = b * b - c
    root = np.sqrt(np.maximum(disc, 0.0))
    t_enter = -b - root
    hit = (disc > 0.0) & (t_enter > 1e-9)
    return np.where(hit, t_enter, np.inf)


def _surface_entry(origin, dirs, surface):
    """Entry parameters into a ``SceneSphere``, or into a ``SceneBox`` or a
    ``Box3D`` (anything with ``center``, ``size`` and ``yaw``)."""
    if isinstance(surface, SceneSphere):
        return _ray_sphere_entry(origin, dirs, surface.center, surface.radius)
    return _ray_box_entry(origin, dirs, surface.center, surface.size,
                          surface.yaw)


# Bounding spheres are padded by this much (metres), so rounding in the
# sphere test never culls a ray that the exact test would count as a hit.
_BOUND_MARGIN = 1e-6


def _bounded(label, surface):
    """(label, surface, centre, radius) with the surface's padded bounding
    sphere: a box's centre and half diagonal, or the sphere itself."""
    radius = (surface.radius if isinstance(surface, SceneSphere)
              else 0.5 * math.hypot(*surface.size))
    return (label, surface, np.asarray(surface.center, dtype=float),
            float(radius) + _BOUND_MARGIN)


# Width (radians) of the elevation and azimuth bins of a ray index, rounded
# so that whole bins span 180 and 360 degrees. The crossroad scenes render
# equally fast with 1, 2 and 4 degree bins.
_BIN_WIDTH = math.radians(2.0)
# Caps are widened by this angle (radians) plus one whole bin before their
# bins are looked up, so rounding in the angles never drops a ray.
_ANGLE_MARGIN = 1e-6


class _RayIndex:
    """Ray directions binned by elevation and azimuth.

    ``order`` lists the rays bin by bin, and bin k (row-major, elevation
    rows of azimuth columns) holds ``order[starts[k]:starts[k + 1]]``.
    A direction with a NaN component has no angles and lands in no bin:
    it passes no sphere test, and the exact tests count it a miss.
    Built once per ray set and shared by every origin that casts it.
    """

    def __init__(self, dirs: np.ndarray):
        self.dirs = dirs
        self.n_el = max(1, round(math.pi / _BIN_WIDTH))
        self.n_az = 2 * self.n_el
        self.width = math.pi / self.n_el
        bins = self.n_el * self.n_az
        elevation = np.arctan2(dirs[:, 2], np.hypot(dirs[:, 0], dirs[:, 1]))
        azimuth = np.arctan2(dirs[:, 1], dirs[:, 0])
        # a ray with a NaN angle is keyed at angle 0, then past the last bin
        unbinned = np.isnan(elevation) | np.isnan(azimuth)
        elevation[unbinned] = azimuth[unbinned] = 0.0
        rows = np.floor((elevation + 0.5 * math.pi) / self.width)
        columns = np.floor((azimuth + math.pi) / self.width)
        keys = (np.clip(rows.astype(np.int64), 0, self.n_el - 1) * self.n_az
                + columns.astype(np.int64) % self.n_az)
        keys[unbinned] = bins
        self.order = stable_order(keys, bins + 1)
        # every ray but those with d_z >= 0, which miss a box below the origin
        self.downward = np.flatnonzero(~(dirs[:, 2] >= 0.0))
        self.starts = np.concatenate([[0], np.cumsum(
            np.bincount(keys, minlength=bins + 1)[:bins])])

    def toward_sphere(self, to_center: np.ndarray,
                      radius: float) -> np.ndarray:
        """Ascending indices of every ray that can reach a sphere of
        ``radius`` whose centre lies ``to_center`` from the origin, which
        lies outside it: the rays in every bin that the sphere's cap of
        directions (half-angle asin(radius / distance)) overlaps once it is
        padded by ``_ANGLE_MARGIN`` and one bin on every side."""
        distance = math.sqrt(to_center @ to_center)
        reach = math.asin(min(1.0, radius / distance)) + _ANGLE_MARGIN
        el = math.atan2(to_center[2], math.hypot(to_center[0], to_center[1]))
        row_lo = max(math.floor((el - reach + 0.5 * math.pi) / self.width) - 1,
                     0)
        row_hi = min(math.floor((el + reach + 0.5 * math.pi) / self.width) + 1,
                     self.n_el - 1)
        spans = [(0, self.n_az - 1)]            # every azimuth
        if abs(el) + reach < 0.5 * math.pi:     # the cap misses both poles
            # the cap's azimuth half-width, widest at its central elevation
            half = math.asin(min(1.0, math.sin(reach) / math.cos(el)))
            az = math.atan2(to_center[1], to_center[0]) + math.pi
            first = math.floor((az - half - _ANGLE_MARGIN) / self.width) - 1
            last = math.floor((az + half + _ANGLE_MARGIN) / self.width) + 1
            if last - first + 1 < self.n_az:
                if first < 0:                   # wraps at -180 degrees
                    spans = [(0, last), (first + self.n_az, self.n_az - 1)]
                elif last >= self.n_az:         # wraps at +180 degrees
                    spans = [(0, last - self.n_az), (first, self.n_az - 1)]
                else:
                    spans = [(first, last)]
        picked = []
        for lo, hi in spans:
            # bins lo..hi of every row from row_lo to row_hi
            begins = self.starts[row_lo * self.n_az + lo:
                                 row_hi * self.n_az + lo + 1:self.n_az]
            ends = self.starts[row_lo * self.n_az + hi + 1:
                               row_hi * self.n_az + hi + 2:self.n_az]
            picked += [self.order[b:e]
                       for b, e in zip(begins.tolist(), ends.tolist())]
        return np.sort(np.concatenate(picked))


def _cast_frame(origin, rays: _RayIndex, surfaces, best_t=None):
    """First-hit distances and surface labels for one node at one frame.

    ``surfaces`` is a sequence of ``_bounded`` entries. ``best_t``, if
    given, holds each ray's distance to a hit cast before (labelled -1); a
    surface takes a ray only when strictly closer, so earlier hits keep
    their ties and rays they block are culled. A surface is tested
    exactly only on the rays that reach its bounding sphere in front of the
    origin and before the closest hit so far; from inside the sphere every
    ray is tested, except that a box whose top lies below the origin, as
    the ground's does, skips the rays with d_z >= 0. Yaw keeps the local z
    of the origin and of every direction exact, so on such a ray both
    z-slab parameters are negative, or both infinite when d_z is zero, and
    no entry in front of the origin is finite: the ray misses. The sphere
    test itself runs only on the rays that ``rays.toward_sphere`` gathers
    from the bins the sphere's padded angular cap overlaps. They are a
    superset of the rays that pass it and the test is unchanged, so exactly
    the rays pass that would pass it on every ray.
    Surfaces are visited in order, so the first of two surfaces at the same
    distance keeps the ray. The exact tests and the sphere test treat each
    ray on its own, with no product of a lone row (``_row_dots``), so a ray's
    result does not depend on which rays are cast with it: a culled cast
    equals the all-rays cast bit for bit, and a node's statics and a frame's
    objects can be cast apart and merged.
    """
    dirs = rays.dirs
    best_t = (np.full(len(dirs), np.inf) if best_t is None
              else np.array(best_t, dtype=float))
    best_label = np.full(len(dirs), -1, dtype=np.int64)
    for label, surface, center, radius in surfaces:
        offset = origin - center
        c = offset @ offset - radius * radius
        if c > 0.0:
            cand = rays.toward_sphere(-offset, radius)
            b = _row_dots(dirs[cand], offset)
            disc = b * b - c
            keep = (disc >= 0.0) & (b < 0.0)
            cand, b, disc = cand[keep], b[keep], disc[keep]
            cand = cand[-b - np.sqrt(disc) < best_t[cand]]
            if not len(cand):
                continue
        elif (not isinstance(surface, SceneSphere)
              and offset[2] > surface.size[2] / 2.0):
            cand = rays.downward
        else:
            cand = np.arange(len(dirs))
        t = _surface_entry(origin, dirs[cand], surface)
        closer = t < best_t[cand]
        hit = cand[closer]
        best_t[hit] = t[closer]
        best_label[hit] = label
    return best_t, best_label


def _reference_cloud(spec: SceneSpec, static_surfaces, rng) -> PointCloud:
    """World-frame scan of the static scene, merged over scanner stations.

    Each station does a full 360-degree azimuth sweep; dynamic objects are
    excluded (the scan happens before capture).
    """
    rays = _RayIndex(_reference_ray_grid(spec))
    parts = []
    for station in spec.reference_scanner_positions:
        origin = np.asarray(station, dtype=float)
        t, _ = _cast_frame(origin, rays, static_surfaces)
        hit = np.isfinite(t)
        parts.append(origin + rays.dirs[hit] * t[hit, None])
    points = np.vstack(parts) if parts else np.zeros((0, 3))
    if len(points):
        points = points + rng.normal(scale=_REFERENCE_NOISE_SIGMA,
                                     size=points.shape)
    return PointCloud(points)


def generate_synthetic_scene(spec: SceneSpec, seed: int = 0) -> SyntheticScene:
    """Render all node frames plus exact ground truth for one scene.

    Frame k is stamped by ``frame_times_ns`` and shows the objects where
    they are at that instant. Neither the nodes nor the statics move, so
    each node casts the statics once; each frame then casts only its objects
    from the statics' first hits, so an object keeps a ray only when
    strictly closer. That equals
    one cast over the statics followed by the objects, bit for bit, because
    ``_cast_frame`` treats each ray on its own.
    """
    rng = np.random.default_rng([seed, 0x5CE17E])
    dirs_local = _ray_grid(spec)
    stamps_ns = frame_times_ns(spec.n_frames, spec.frame_rate_hz)

    ground = SceneBox(center=(0.0, 0.0, -0.5),
                      size=(4.0 * spec.extent, 4.0 * spec.extent, 1.0))
    static_surfaces = [_bounded(-1, static)
                       for static in (ground, *spec.statics)]

    extrinsics = dict(enumerate(spec.nodes))
    inverses = {i: extrinsic.inverse() for i, extrinsic in extrinsics.items()}
    node_rays = {i: _RayIndex(dirs_local @ extrinsic.rotation.T)
                 for i, extrinsic in extrinsics.items()}
    static_t = {i: _cast_frame(extrinsics[i].translation, rays,
                               static_surfaces)[0]
                for i, rays in node_rays.items()}

    n_nodes = len(spec.nodes)
    n_objects = len(spec.objects)
    node_frames: dict = {i: [] for i in range(n_nodes)}
    gt_boxes: list = []
    visible = np.zeros((spec.n_frames, n_nodes, n_objects), dtype=np.int64)

    for frame, stamp_ns in enumerate(stamps_ns.tolist()):
        boxes = [obj.box_at(stamp_ns / NS) for obj in spec.objects]
        gt_boxes.append(boxes)
        objects = [_bounded(obj_index, box)
                   for obj_index, box in enumerate(boxes)]

        for node_index in range(n_nodes):
            origin = extrinsics[node_index].translation
            rays = node_rays[node_index]
            # the statics come first, so they keep a ray on a tie
            t, labels = _cast_frame(origin, rays, objects,
                                    static_t[node_index])
            hit = np.isfinite(t)
            world_pts = origin + rays.dirs[hit] * t[hit, None]
            if spec.noise_sigma > 0.0 and len(world_pts):
                world_pts = world_pts + rng.normal(scale=spec.noise_sigma,
                                                   size=world_pts.shape)
            local_pts = inverses[node_index].apply(world_pts)
            node_frames[node_index].append(PointCloud(
                local_pts, timestamp_ns=stamp_ns,
                source_node=node_index))
            visible[frame, node_index] = np.bincount(
                labels[hit] + 1, minlength=n_objects + 1)[1:]
    del static_t    # before the reference scan sets the memory high-water

    tracks: dict = {}
    for frame, boxes in enumerate(gt_boxes):
        for box in boxes:
            tracks.setdefault(box.track_id, []).append((frame, box))
    trajectories = TrajectorySet(tracks=tracks)

    reference = _reference_cloud(spec, static_surfaces, rng)
    return SyntheticScene(spec=spec, extrinsics=extrinsics,
                          node_frames=node_frames,
                          reference_cloud=reference,
                          gt_boxes=gt_boxes, trajectories=trajectories,
                          visible_counts=visible)


def calibration_capture(scene: SyntheticScene, node: int, seed: int = 0,
                        max_points: int = 60_000) -> list:
    """A node's pre-capture calibration pass over the static scene.

    The node records the same static surfaces the reference scanner just
    scanned: the reference points inside the node's field-of-view cone,
    expressed in the node frame, re-measured with the node's own noise and
    split over 10 frames. Merging these frames reproduces the full-overlap
    registration setting the recovery guarantees are stated for; ray-cast
    resampling of ideal boxes is strictly harder than any real scan pair
    because perfect planes are featureless.
    """
    extrinsic = scene.extrinsics[node]
    local = extrinsic.inverse().apply(scene.reference_cloud.points)
    planar = np.hypot(local[:, 0], local[:, 1])
    azimuth = np.degrees(np.arctan2(local[:, 1], local[:, 0]))
    elevation = np.degrees(np.arctan2(local[:, 2], planar))
    visible = ((np.abs(azimuth) <= DEFAULT_AZIMUTH_FOV_DEG / 2.0)
               & (np.abs(elevation) <= DEFAULT_ELEVATION_FOV_DEG / 2.0)
               & (xyz_norms(local.T) <= _CALIBRATION_MAX_RANGE))
    points = local[visible]

    rng = np.random.default_rng([seed, node, 0xCA11B])
    if len(points) > max_points:
        points = points[rng.choice(len(points), max_points, replace=False)]
    if len(points):
        points = points + rng.normal(scale=_CALIBRATION_NOISE_SIGMA,
                                     size=points.shape)
    order = rng.permutation(len(points))
    stamps_ns = frame_times_ns(_CALIBRATION_FRAMES, scene.spec.frame_rate_hz)
    return [PointCloud(points[chunk], timestamp_ns=stamp_ns, source_node=node)
            for chunk, stamp_ns in zip(np.array_split(order,
                                                      _CALIBRATION_FRAMES),
                                       stamps_ns.tolist())]


def corner_building_layout(rng, extent: float, keep_clear: tuple) -> tuple:
    """Corner buildings, poles, trees, and varied street clutter.

    The clutter (parked cars, bins, kiosks at assorted sizes and headings)
    matters for feature-based calibration: bare boxes and flat ground are
    self-similar, and histogrammed surface features only become distinctive
    when the surroundings vary. ``keep_clear`` lists (x, y, radius) disks
    nothing may intrude into (the sensor positions and the crossing).
    """
    def allowed(cx, cy, reach):
        for kx, ky, kr in keep_clear:
            if math.hypot(cx - kx, cy - ky) < kr + reach:
                return False
        return True

    def place(radius_range, reach):
        for _ in range(60):
            radius = rng.uniform(*radius_range) * extent
            angle = rng.uniform(-math.pi, math.pi)
            cx, cy = radius * math.cos(angle), radius * math.sin(angle)
            if allowed(cx, cy, reach):
                return float(cx), float(cy)
        return None

    statics = []
    for corner in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        size = rng.uniform([8.0, 6.0, 5.0], [14.0, 11.0, 9.0])
        reach = 0.5 * math.hypot(size[0], size[1])
        for _ in range(60):
            cx = corner[0] * rng.uniform(0.62, 0.85) * extent
            cy = corner[1] * rng.uniform(0.62, 0.85) * extent
            if allowed(cx, cy, reach):
                break
        statics.append(SceneBox(center=(cx, cy, size[2] / 2.0),
                                size=tuple(size),
                                yaw=float(rng.uniform(-math.pi, math.pi))))
    for _ in range(6):
        size = rng.uniform([0.3, 0.3, 3.0], [1.2, 1.2, 6.0])
        spot = place((0.3, 0.55), 1.0)
        if spot is None:
            continue
        statics.append(SceneBox(center=(spot[0], spot[1], size[2] / 2.0),
                                size=tuple(size),
                                yaw=float(rng.uniform(-math.pi, math.pi))))
    # clutter hugs the rim so the central crossing stays observable from
    # every corner node
    for _ in range(_CLUTTER_COUNT):
        size = rng.uniform([0.5, 0.5, 0.5], [3.8, 2.0, 2.4])
        spot = place((0.55, 0.9), 0.5 * math.hypot(size[0], size[1]))
        if spot is None:
            continue
        statics.append(SceneBox(center=(spot[0], spot[1], size[2] / 2.0),
                                size=tuple(size),
                                yaw=float(rng.uniform(-math.pi, math.pi))))
    # trees: trunk plus canopy sphere
    for _ in range(max(4, _CLUTTER_COUNT // 2)):
        canopy = float(rng.uniform(1.2, 2.6))
        height = float(rng.uniform(2.6, 4.2))
        spot = place((0.55, 0.9), canopy)
        if spot is None:
            continue
        statics.append(SceneBox(center=(spot[0], spot[1], height / 2.0),
                                size=(0.35, 0.35, height)))
        statics.append(SceneSphere(center=(spot[0], spot[1],
                                           height + 0.6 * canopy),
                                   radius=canopy))
    return tuple(statics)


def standard_crossroad_spec(n_frames: int, seed: int = 0) -> SceneSpec:
    """The canonical four-node crossroad used by the pipeline experiments.

    Four sensors at the corners look at the center; two fixed occluder walls
    near the middle shadow parts of the scene from individual views; a mix
    of cars, cyclists and pedestrians crosses the junction.
    """
    # checked before the objects' speeds are scaled to the capture's length
    check_number("n_frames", n_frames, 1, MAX_SCENE_FRAMES, integer=True)
    extent = _CROSSROAD_EXTENT
    rng = np.random.default_rng([seed, 0xC805])
    node_xy = tuple((sx * extent * 0.85, sy * extent * 0.85)
                    for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1)))
    # mounted above car-roof height so footprints are observable from above
    nodes = tuple(look_at((x, y, 3.2), (0.0, 0.0, 0.5)) for x, y in node_xy)
    # scan stations: central, near each node, and at the edge midpoints, so
    # the merged reference covers everything each node sees and background
    # subtraction leaves no static shadows
    stations = ((0.6, -0.9, 2.2),) + tuple((0.8 * x, 0.8 * y, 2.2)
                                           for x, y in node_xy)
    stations += tuple((0.75 * extent * dx, 0.75 * extent * dy, 2.2)
                      for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)))
    keep_clear = tuple((x, y, 3.0) for x, y in node_xy) + ((0.0, 0.0, 2.5),)
    statics = list(corner_building_layout(rng, extent, keep_clear))
    # chest-high walls near the crossing: each shadows low objects from one
    # side while the opposite nodes see over or around it
    statics += [
        SceneBox(center=(4.5, 2.0, 0.85), size=(0.4, 6.5, 1.7), yaw=0.35),
        SceneBox(center=(-4.0, -3.0, 0.85), size=(5.5, 0.4, 1.7), yaw=-0.25),
    ]

    # objects roam the annotated central area; speed is capped so nothing
    # leaves it during the capture
    zone = 0.5 * extent
    duration_s = n_frames / DEFAULT_FRAME_RATE_HZ

    def roaming(label, count, speed_range, start_factor, first_id):
        out = []
        for offset in range(count):
            start = rng.uniform(-start_factor * extent, start_factor * extent, 2)
            heading = rng.uniform(-math.pi, math.pi)
            speed = rng.uniform(*speed_range)
            direction = np.array([math.cos(heading), math.sin(heading)])
            end = start + direction * speed * duration_s
            overshoot = max(abs(end[0]), abs(end[1])) / zone
            if overshoot > 1.0:
                speed /= overshoot
            out.append(SceneObject(
                label=label, start_xy=tuple(start),
                velocity_xy=(speed * direction[0], speed * direction[1]),
                track_id=first_id + offset))
        return out

    objects = roaming(ObjectClass.CAR, 4, (2.5, 5.0), 0.40, 1)
    objects += roaming(ObjectClass.CYCLIST, 4, (1.5, 3.5), 0.35, 5)
    objects += roaming(ObjectClass.PEDESTRIAN, 6, (0.6, 1.3), 0.32, 9)

    return SceneSpec(nodes=nodes, objects=tuple(objects),
                     statics=tuple(statics), extent=extent,
                     n_frames=n_frames, noise_sigma=0.02,
                     reference_scanner_positions=stations)
