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

from .errors import ConfigError
from .geometry import Box3D, ObjectClass, PointCloud, RigidTransform
from .tracking import TrajectorySet

# field of view of the scanning unit: 100 x 40 degrees, 10 frames/s
DEFAULT_AZIMUTH_FOV_DEG = 100.0
DEFAULT_ELEVATION_FOV_DEG = 40.0
DEFAULT_FRAME_RATE_HZ = 10.0

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


def look_at_orientation(position, target, roll: float = 0.0) -> np.ndarray:
    """Sensor orientation whose +x boresight points from position to target.

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
    left = np.cross(up, forward)
    left /= np.linalg.norm(left)
    up = np.cross(forward, left)
    orientation = np.column_stack([forward, left, up])
    if roll:
        c, s = math.cos(roll), math.sin(roll)
        roll_mat = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        orientation = orientation @ roll_mat
    return orientation


@dataclass(frozen=True)
class NodePose:
    """Sensor pose: the node frame's origin and orientation in the world."""

    position: tuple
    orientation: np.ndarray  # 3x3, node -> world

    @property
    def extrinsic(self) -> RigidTransform:
        return RigidTransform(self.orientation, np.asarray(self.position))

    @staticmethod
    def looking_at(position, target, roll: float = 0.0) -> "NodePose":
        return NodePose(position=tuple(float(v) for v in position),
                        orientation=look_at_orientation(position, target, roll))


@dataclass(frozen=True)
class SceneSpec:
    nodes: tuple
    objects: tuple = ()
    statics: tuple = ()
    extent: float = 25.0
    n_frames: int = 1
    frame_rate_hz: float = DEFAULT_FRAME_RATE_HZ
    noise_sigma: float = 0.02
    azimuth_fov_deg: float = DEFAULT_AZIMUTH_FOV_DEG
    elevation_fov_deg: float = DEFAULT_ELEVATION_FOV_DEG
    azimuth_steps: int = 240
    elevation_steps: int = 60
    include_ground: bool = True
    # the reference scan is itself a ray-cast acquisition: a tripod scanner
    # moved through several stations inside the scene and merged, so the
    # reference covers the surfaces each node can see (single-station scans
    # leave occlusion shadows that ruin feature matching)
    reference_scanner_positions: tuple = ((0.6, -0.9, 2.2),)
    reference_azimuth_steps: int = 720
    reference_elevation_steps: int = 110
    reference_elevation_range_deg: tuple = (-35.0, 30.0)
    reference_noise_sigma: float = 0.005

    def __post_init__(self):
        if not self.nodes:
            raise ConfigError("scene needs at least one node")
        if self.extent <= 0.0 or self.n_frames < 1 or self.frame_rate_hz <= 0.0:
            raise ConfigError("extent, n_frames, and frame_rate_hz must be positive")
        if self.azimuth_steps < 2 or self.elevation_steps < 2:
            raise ConfigError("need at least a 2x2 ray grid")
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


def _ray_grid(spec: SceneSpec) -> np.ndarray:
    """(K, 3) unit directions in the node frame, +x boresight."""
    az = np.radians(np.linspace(-spec.azimuth_fov_deg / 2,
                                spec.azimuth_fov_deg / 2, spec.azimuth_steps))
    el = np.radians(np.linspace(-spec.elevation_fov_deg / 2,
                                spec.elevation_fov_deg / 2,
                                spec.elevation_steps))
    az_grid, el_grid = np.meshgrid(az, el)
    cos_el = np.cos(el_grid)
    dirs = np.stack([cos_el * np.cos(az_grid), cos_el * np.sin(az_grid),
                     np.sin(el_grid)], axis=-1)
    return dirs.reshape(-1, 3)


def _ray_box_entry(origin: np.ndarray, dirs: np.ndarray, center, size,
                   yaw: float) -> np.ndarray:
    """Entry parameter t of each ray into an oriented box (inf for a miss)."""
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    local_origin = (origin - np.asarray(center, dtype=float)) @ rot
    local_dirs = dirs @ rot
    half = np.asarray(size, dtype=float) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-half - local_origin) / local_dirs
        t2 = (half - local_origin) / local_dirs
        lo = np.minimum(t1, t2)
        hi = np.maximum(t1, t2)
    # rays parallel to a slab they sit exactly on produce NaN: treat as inside
    lo = np.where(np.isnan(lo), -np.inf, lo)
    hi = np.where(np.isnan(hi), np.inf, hi)
    t_enter = lo.max(axis=1)
    t_exit = hi.min(axis=1)
    hit = (t_exit >= t_enter) & (t_enter > 1e-9)
    return np.where(hit, t_enter, np.inf)


def _ray_sphere_entry(origin: np.ndarray, dirs: np.ndarray, center,
                      radius: float) -> np.ndarray:
    """Entry parameter t of each ray into a sphere (inf for a miss)."""
    offset = origin - np.asarray(center, dtype=float)
    b = dirs @ offset
    c = offset @ offset - radius * radius
    disc = b * b - c
    root = np.sqrt(np.maximum(disc, 0.0))
    t_enter = -b - root
    hit = (disc > 0.0) & (t_enter > 1e-9)
    return np.where(hit, t_enter, np.inf)


def _surface_entry(origin, dirs, surface):
    if isinstance(surface, SceneSphere):
        return _ray_sphere_entry(origin, dirs, surface.center, surface.radius)
    center, size, yaw = surface
    return _ray_box_entry(origin, dirs, center, size, yaw)


# Bounding spheres are padded by this much (metres), so rounding in the
# sphere test never culls a ray that the exact test would count as a hit.
_BOUND_MARGIN = 1e-6


def _bounded(label, surface):
    """(label, surface, centre, radius) with the surface's padded bounding
    sphere: a box's centre and half diagonal, or the sphere itself."""
    if isinstance(surface, SceneSphere):
        center, radius = surface.center, surface.radius
    else:
        center, size, _ = surface
        radius = 0.5 * math.hypot(*size)
    return (label, surface, np.asarray(center, dtype=float),
            float(radius) + _BOUND_MARGIN)


def _cast_frame(origin, dirs_world, surfaces):
    """First-hit distances and surface labels for one node at one frame.

    ``surfaces`` is a sequence of ``_bounded`` entries. A surface is tested
    exactly only on the rays that reach its bounding sphere in front of the
    origin and before the closest hit so far; from inside the sphere every
    ray is tested. Surfaces are visited in order, so the first of two
    surfaces at the same distance keeps the ray. The exact tests treat
    each ray on its own, so a culled cast equals the all-rays cast bit for
    bit.
    """
    best_t = np.full(len(dirs_world), np.inf)
    best_label = np.full(len(dirs_world), -1, dtype=np.int64)
    for label, surface, center, radius in surfaces:
        offset = origin - center
        c = offset @ offset - radius * radius
        if c > 0.0:
            b = dirs_world @ offset
            disc = b * b - c
            cand = np.flatnonzero((disc >= 0.0) & (b < 0.0))
            cand = cand[-b[cand] - np.sqrt(disc[cand]) < best_t[cand]]
        else:
            cand = np.arange(len(dirs_world))
        t = _surface_entry(origin, dirs_world[cand], surface)
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
    el_lo, el_hi = spec.reference_elevation_range_deg
    az = np.radians(np.linspace(-180.0, 180.0, spec.reference_azimuth_steps,
                                endpoint=False))
    el = np.radians(np.linspace(el_lo, el_hi, spec.reference_elevation_steps))
    az_grid, el_grid = np.meshgrid(az, el)
    cos_el = np.cos(el_grid)
    dirs = np.stack([cos_el * np.cos(az_grid), cos_el * np.sin(az_grid),
                     np.sin(el_grid)], axis=-1).reshape(-1, 3)
    parts = []
    for station in spec.reference_scanner_positions:
        origin = np.asarray(station, dtype=float)
        t, _ = _cast_frame(origin, dirs, static_surfaces)
        hit = np.isfinite(t)
        parts.append(origin + dirs[hit] * t[hit, None])
    points = np.vstack(parts) if parts else np.zeros((0, 3))
    if spec.reference_noise_sigma > 0.0 and len(points):
        points = points + rng.normal(scale=spec.reference_noise_sigma,
                                     size=points.shape)
    return PointCloud(points)


def generate_synthetic_scene(spec: SceneSpec, seed: int = 0) -> SyntheticScene:
    """Render all node frames plus exact ground truth for one scene."""
    rng = np.random.default_rng([seed, 0x5CE17E])
    dirs_local = _ray_grid(spec)
    period_ns = int(round(1e9 / spec.frame_rate_hz))

    ground = SceneBox(center=(0.0, 0.0, -0.5),
                      size=(4.0 * spec.extent, 4.0 * spec.extent, 1.0))
    static_surfaces = []
    if spec.include_ground:
        static_surfaces.append(_bounded(-1, (
            np.asarray(ground.center, dtype=float), ground.size, ground.yaw)))
    for static in spec.statics:
        if isinstance(static, SceneSphere):
            static_surfaces.append(_bounded(-1, static))
        else:
            static_surfaces.append(_bounded(-1, (
                np.asarray(static.center, dtype=float), static.size,
                static.yaw)))

    extrinsics = {i: node.extrinsic for i, node in enumerate(spec.nodes)}

    n_nodes = len(spec.nodes)
    n_objects = len(spec.objects)
    node_frames: dict = {i: [] for i in range(n_nodes)}
    gt_boxes: list = []
    visible = np.zeros((spec.n_frames, n_nodes, n_objects), dtype=np.int64)

    for frame in range(spec.n_frames):
        time_s = frame / spec.frame_rate_hz
        boxes = [obj.box_at(time_s) for obj in spec.objects]
        gt_boxes.append(boxes)
        surfaces = list(static_surfaces)
        for obj_index, box in enumerate(boxes):
            surfaces.append(_bounded(obj_index, (box.center, tuple(box.size),
                                                 box.yaw)))

        for node_index in range(n_nodes):
            extrinsic = extrinsics[node_index]
            origin = extrinsic.translation
            dirs_world = dirs_local @ extrinsic.rotation.T
            t, labels = _cast_frame(origin, dirs_world, surfaces)
            hit = np.isfinite(t)
            world_pts = origin + dirs_world[hit] * t[hit, None]
            if spec.noise_sigma > 0.0 and len(world_pts):
                world_pts = world_pts + rng.normal(scale=spec.noise_sigma,
                                                   size=world_pts.shape)
            local_pts = extrinsic.inverse().apply(world_pts)
            node_frames[node_index].append(PointCloud(
                local_pts, timestamp_ns=frame * period_ns,
                source_node=node_index))
            hit_objects = labels[hit]
            for obj_index in range(n_objects):
                visible[frame, node_index, obj_index] = int(
                    (hit_objects == obj_index).sum())

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


def calibration_capture(scene: SyntheticScene, node: int, n_frames: int = 10,
                        noise_sigma: float = 0.02, seed: int = 0,
                        max_range: float = 200.0,
                        max_points: int = 60_000) -> list:
    """A node's pre-capture calibration pass over the static scene.

    The node records the same static surfaces the reference scanner just
    scanned: the reference points inside the node's field-of-view cone,
    expressed in the node frame, re-measured with the node's own noise and
    split over n_frames. Merging these frames reproduces the full-overlap
    registration setting the recovery guarantees are stated for; ray-cast
    resampling of ideal boxes is strictly harder than any real scan pair
    because perfect planes are featureless.
    """
    spec = scene.spec
    extrinsic = scene.extrinsics[node]
    local = extrinsic.inverse().apply(scene.reference_cloud.points)
    planar = np.hypot(local[:, 0], local[:, 1])
    azimuth = np.degrees(np.arctan2(local[:, 1], local[:, 0]))
    elevation = np.degrees(np.arctan2(local[:, 2], planar))
    visible = ((np.abs(azimuth) <= spec.azimuth_fov_deg / 2.0)
               & (np.abs(elevation) <= spec.elevation_fov_deg / 2.0)
               & (np.linalg.norm(local, axis=1) <= max_range))
    points = local[visible]

    rng = np.random.default_rng([seed, node, 0xCA11B])
    if len(points) > max_points:
        points = points[rng.choice(len(points), max_points, replace=False)]
    if noise_sigma > 0.0 and len(points):
        points = points + rng.normal(scale=noise_sigma, size=points.shape)
    order = rng.permutation(len(points))
    period_ns = int(round(1e9 / spec.frame_rate_hz))
    frames = []
    for index, chunk in enumerate(np.array_split(order, n_frames)):
        frames.append(PointCloud(points[chunk], timestamp_ns=index * period_ns,
                                 source_node=node))
    return frames


def corner_building_layout(rng, extent: float, clutter: int = 24,
                           keep_clear: tuple = ()) -> tuple:
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
    for _ in range(clutter):
        size = rng.uniform([0.5, 0.5, 0.5], [3.8, 2.0, 2.4])
        spot = place((0.55, 0.9), 0.5 * math.hypot(size[0], size[1]))
        if spot is None:
            continue
        statics.append(SceneBox(center=(spot[0], spot[1], size[2] / 2.0),
                                size=tuple(size),
                                yaw=float(rng.uniform(-math.pi, math.pi))))
    # trees: trunk plus canopy sphere
    for _ in range(max(4, clutter // 2)):
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


def standard_crossroad_spec(n_frames: int = 30, seed: int = 0,
                            extent: float = 22.0,
                            with_occluders: bool = True) -> SceneSpec:
    """The canonical four-node crossroad used by the pipeline experiments.

    Four sensors at the corners look at the center; occluder walls near the
    middle shadow parts of the scene from individual views; a mix of cars,
    cyclists and pedestrians crosses the junction.
    """
    rng = np.random.default_rng([seed, 0xC805])
    node_xy = tuple((sx * extent * 0.85, sy * extent * 0.85)
                    for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1)))
    # mounted above car-roof height so footprints are observable from above
    nodes = tuple(NodePose.looking_at((x, y, 3.2), (0.0, 0.0, 0.5))
                  for x, y in node_xy)
    # scan stations: central, near each node, and at the edge midpoints, so
    # the merged reference covers everything each node sees and background
    # subtraction leaves no static shadows
    stations = ((0.6, -0.9, 2.2),) + tuple((0.8 * x, 0.8 * y, 2.2)
                                           for x, y in node_xy)
    stations += tuple((0.75 * extent * dx, 0.75 * extent * dy, 2.2)
                      for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)))
    keep_clear = tuple((x, y, 3.0) for x, y in node_xy) + ((0.0, 0.0, 2.5),)
    statics = list(corner_building_layout(rng, extent, keep_clear=keep_clear))
    if with_occluders:
        # chest-high walls near the crossing: each shadows low objects from
        # one side while the opposite nodes see over or around it
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
