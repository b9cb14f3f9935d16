import math

import numpy as np
import pytest

from mvlidar.fusion import DEFAULT_SYNC_WINDOW_S, ViewFrameSet, \
    early_fuse, temporal_integrate
from mvlidar.geometry import Box3D, ObjectClass, RigidTransform


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)


def ground_grid(extent=15.0, spacing=0.4, z=0.0, noise=0.0, rng=None):
    xs = np.arange(-extent, extent, spacing)
    grid = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    z_col = np.full(len(grid), z)
    if noise and rng is not None:
        z_col = z_col + rng.normal(scale=noise, size=len(grid))
    return np.column_stack([grid, z_col])


def box_surface(center, size, yaw, n, rng, faces="sides+top"):
    """Sample n points on the outer surface of an oriented box."""
    l, w, h = size
    specs = []
    if "sides" in faces:
        specs += [("x+", w * h), ("x-", w * h), ("y+", l * h), ("y-", l * h)]
    if "top" in faces:
        specs.append(("z+", l * w))
    areas = np.array([a for _, a in specs], dtype=float)
    choice = rng.choice(len(specs), size=n, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, n)
    v = rng.uniform(-0.5, 0.5, n)
    local = np.zeros((n, 3))
    for idx, (face, _) in enumerate(specs):
        mask = choice == idx
        if face[0] == "x":
            local[mask, 0] = 0.5 * l * (1 if face[1] == "+" else -1)
            local[mask, 1] = u[mask] * w
            local[mask, 2] = v[mask] * h
        elif face[0] == "y":
            local[mask, 1] = 0.5 * w * (1 if face[1] == "+" else -1)
            local[mask, 0] = u[mask] * l
            local[mask, 2] = v[mask] * h
        else:
            local[mask, 2] = 0.5 * h
            local[mask, 0] = u[mask] * l
            local[mask, 1] = v[mask] * w
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return local @ rot.T + np.asarray(center)


def structured_scene_points(rng, n_points=20_000, extent=25.0):
    """Crossroad-style static scene: ground, corner buildings, poles.

    Surface-sampled world-frame points with enough distinctive structure
    for feature-based registration.
    """
    blocks = []
    counts = []
    # corner buildings with varied footprints and headings
    for corner in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        cx = corner[0] * rng.uniform(0.55, 0.8) * extent
        cy = corner[1] * rng.uniform(0.55, 0.8) * extent
        size = rng.uniform([8.0, 6.0, 5.0], [15.0, 12.0, 10.0])
        yaw = rng.uniform(-math.pi, math.pi)
        blocks.append(((cx, cy, size[2] / 2), size, yaw))
        counts.append(0.17)
    # street furniture: poles and kiosks near the center
    for _ in range(6):
        size = rng.uniform([0.3, 0.3, 3.0], [1.5, 1.5, 6.0])
        center = rng.uniform([-0.4 * extent, -0.4 * extent],
                             [0.4 * extent, 0.4 * extent])
        blocks.append(((center[0], center[1], size[2] / 2), size,
                       rng.uniform(-math.pi, math.pi)))
        counts.append(0.02)
    ground_share = 1.0 - sum(counts)
    parts = [np.column_stack([rng.uniform(-extent, extent,
                                          int(n_points * ground_share)),
                              rng.uniform(-extent, extent,
                                          int(n_points * ground_share)),
                              np.zeros(int(n_points * ground_share))])]
    for (center, size, yaw), share in zip(blocks, counts):
        parts.append(box_surface(center, size, yaw,
                                 int(n_points * share), rng))
    return np.vstack(parts)


def random_rotation(rng) -> np.ndarray:
    """Uniform random rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] *= -1
    return q


def random_transform(rng, max_translation=10.0) -> RigidTransform:
    return RigidTransform(random_rotation(rng),
                          rng.uniform(-max_translation, max_translation, 3))


def random_box(rng, span=5.0) -> Box3D:
    return Box3D(center=rng.uniform(-span, span, 3),
                 size=rng.uniform(0.5, 4.0, 3),
                 yaw=rng.uniform(-math.pi, math.pi),
                 label=ObjectClass.CAR,
                 score=float(rng.uniform(0.0, 1.0)))


def monte_carlo_iou_3d(a: Box3D, b: Box3D, rng, grid: int = 200) -> float:
    """Monte-Carlo volume oracle for the 3D IoU of two yaw-rotated boxes.

    Both boxes are vertical prisms, so the vertical overlap is an exact
    interval and only the footprint intersection needs sampling: stratified
    (jittered-grid) points over the intersection of the two footprint
    bounding boxes, tested against each rotated rectangle directly.
    """
    z_overlap = min(a.z_max, b.z_max) - max(a.z_min, b.z_min)
    if z_overlap <= 0.0:
        return 0.0

    def bev_bounds(box):
        corners = box.bev_corners()
        return corners.min(axis=0), corners.max(axis=0)

    lo_a, hi_a = bev_bounds(a)
    lo_b, hi_b = bev_bounds(b)
    lo = np.maximum(lo_a, lo_b)
    hi = np.minimum(hi_a, hi_b)
    if np.any(hi <= lo):
        inter_area = 0.0
    else:
        cell_x = (np.arange(grid)[:, None] + rng.random((grid, grid))) / grid
        cell_y = (np.arange(grid)[None, :] + rng.random((grid, grid))) / grid
        px = lo[0] + cell_x * (hi[0] - lo[0])
        py = lo[1] + cell_y * (hi[1] - lo[1])
        pts = np.stack([px.ravel(), py.ravel()], axis=-1)

        def inside(box, pts):
            rel = pts - box.center[:2]
            c, s = math.cos(box.yaw), math.sin(box.yaw)
            local_x = rel[:, 0] * c + rel[:, 1] * s
            local_y = -rel[:, 0] * s + rel[:, 1] * c
            return ((np.abs(local_x) <= 0.5 * box.length)
                    & (np.abs(local_y) <= 0.5 * box.width))

        hits = inside(a, pts) & inside(b, pts)
        window_area = float((hi[0] - lo[0]) * (hi[1] - lo[1]))
        inter_area = window_area * hits.mean()

    inter = inter_area * z_overlap
    union = a.volume + b.volume - inter
    return inter / union


def fused_cloud(node_frames, extrinsics, nodes, frame, integrate=1,
                sync_window_s=DEFAULT_SYNC_WINDOW_S):
    """The oracle of an early-fused frame: ``nodes`` at ``frame`` from node
    id -> frame lists, each view integrated over its last ``integrate``
    frames by ``temporal_integrate`` and then fused by ``early_fuse``."""
    start = max(0, frame - integrate + 1)
    frames = {}
    for node in nodes:
        stack = node_frames[node][start:frame + 1]
        frames[node] = temporal_integrate(stack) if len(stack) > 1 else stack[0]
    return early_fuse(ViewFrameSet(frames=frames,
                                   extrinsics={n: extrinsics[n] for n in nodes},
                                   sync_window_s=sync_window_s))
