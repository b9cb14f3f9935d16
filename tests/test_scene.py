import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mvlidar import scene as scene_module
from mvlidar.errors import ConfigError
from mvlidar.geometry import Box3D, ObjectClass, apply_transform
from mvlidar.scene import (
    SceneBox,
    SceneObject,
    SceneSpec,
    SceneSphere,
    _bounded,
    _cast_frame,
    _ray_box_entry,
    _ray_grid,
    _RayIndex,
    _reference_cloud,
    _reference_ray_grid,
    _surface_entry,
    calibration_capture,
    generate_synthetic_scene,
    look_at,
    standard_crossroad_spec,
)
from mvlidar.syncsim import NS, frame_times_ns


def four_corner_nodes(radius=18.0, height=2.0):
    return tuple(look_at((sx * radius, sy * radius, height), (0.0, 0.0, 0.8))
                 for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1)))


def simple_spec(**kwargs):
    defaults = dict(nodes=four_corner_nodes(), extent=22.0, n_frames=1,
                    noise_sigma=0.0, azimuth_steps=120, elevation_steps=40)
    defaults.update(kwargs)
    return SceneSpec(**defaults)


class TestLookAt:
    def test_orientation_is_proper_rotation(self, rng):
        for _ in range(10):
            position = rng.uniform(-20, 20, 3)
            roll = float(rng.uniform(-math.pi, math.pi))
            pose = look_at(position, (0, 0, 0.5), roll)
            rot = pose.rotation
            np.testing.assert_allclose(rot.T @ rot, np.eye(3), atol=1e-12)
            assert np.linalg.det(rot) == pytest.approx(1.0)
            assert np.array_equal(pose.translation, position)

    def test_boresight_points_at_target(self):
        pose = look_at((10.0, 0.0, 2.0), (0.0, 0.0, 2.0))
        np.testing.assert_allclose(pose.apply([1.0, 0.0, 0.0]),
                                   [9.0, 0.0, 2.0], atol=1e-12)

    def test_coincident_target_rejected(self):
        with pytest.raises(ConfigError, match="coincides"):
            look_at((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))


class TestGenerateScene:
    def test_empty_scene_has_only_static_points(self, rng):
        scene = generate_synthetic_scene(simple_spec(), seed=1)
        assert scene.gt_boxes == [[]]
        assert len(scene.trajectories) == 0
        for frames in scene.node_frames.values():
            assert len(frames) == 1
            assert len(frames[0]) > 500

    def test_node_cloud_maps_to_world_through_extrinsic(self):
        spec = simple_spec()
        scene = generate_synthetic_scene(spec, seed=2)
        for node, frames in scene.node_frames.items():
            world = apply_transform(scene.extrinsics[node], frames[0])
            # ground hits must land on z=0 (noise-free spec)
            ground = world.points[np.abs(world.points[:, 2]) < 0.2]
            assert len(ground) > 100
            assert np.abs(ground[:, 2]).max() < 1e-6

    def test_deterministic(self):
        spec = simple_spec(noise_sigma=0.02)
        a = generate_synthetic_scene(spec, seed=9)
        b = generate_synthetic_scene(spec, seed=9)
        for node in a.node_frames:
            np.testing.assert_array_equal(a.node_frames[node][0].points,
                                          b.node_frames[node][0].points)
        np.testing.assert_array_equal(a.reference_cloud.points,
                                      b.reference_cloud.points)

    def test_seed_changes_noise(self):
        spec = simple_spec(noise_sigma=0.02)
        a = generate_synthetic_scene(spec, seed=1)
        b = generate_synthetic_scene(spec, seed=2)
        assert not np.array_equal(a.node_frames[0][0].points,
                                  b.node_frames[0][0].points)

    def test_central_object_azimuth_coverage(self):
        # a car mid-scene seen by four surrounding nodes: each node sees a
        # facing arc; together they wrap nearly the whole silhouette
        n_bins = 36
        spec = simple_spec(azimuth_steps=400, elevation_steps=60, objects=(
            SceneObject(label=ObjectClass.CAR, start_xy=(0.0, 0.0),
                        yaw=0.3, track_id=1),))
        scene = generate_synthetic_scene(spec, seed=3)
        covered = np.zeros(n_bins, dtype=bool)
        per_node_sectors = []
        for node, frames in scene.node_frames.items():
            world = apply_transform(scene.extrinsics[node], frames[0])
            on_object = world.points[
                (np.abs(world.points[:, 0]) < 2.6)
                & (np.abs(world.points[:, 1]) < 2.6)
                & (world.points[:, 2] > 0.05)]
            assert len(on_object) > 0
            azimuth = np.arctan2(on_object[:, 1], on_object[:, 0])
            bins = ((azimuth + math.pi) / (2 * math.pi) * n_bins).astype(int) % n_bins
            sector = np.zeros(n_bins, dtype=bool)
            sector[bins] = True
            per_node_sectors.append(sector)
            covered |= sector
        assert covered.mean() >= 0.9
        # each single view is a strictly partial silhouette
        assert all(s.mean() < 0.75 for s in per_node_sectors)

    def test_wall_occludes_one_node_only(self):
        # wall between node 0 and the pedestrian; node 2 looks from the
        # opposite corner and sees it
        wall = SceneBox(center=(8.0, 8.0, 1.5), size=(4.0, 0.3, 3.0),
                        yaw=-math.pi / 4)
        spec = simple_spec(statics=(wall,), objects=(
            SceneObject(label=ObjectClass.PEDESTRIAN, start_xy=(4.0, 4.0),
                        track_id=1),))
        scene = generate_synthetic_scene(spec, seed=4)
        counts = scene.visible_counts[0]
        assert counts[0, 0] == 0      # node 0 (at +x,+y) is blocked
        assert counts[2, 0] > 0       # node 2 (at -x,-y) sees the target

    def test_closer_objects_have_more_points(self):
        spec = simple_spec(objects=(
            SceneObject(label=ObjectClass.PEDESTRIAN, start_xy=(12.0, 12.0),
                        track_id=1),
            SceneObject(label=ObjectClass.PEDESTRIAN, start_xy=(-6.0, -6.0),
                        track_id=2),))
        scene = generate_synthetic_scene(spec, seed=5)
        counts = scene.visible_counts[0]
        # node 0 sits at (+18, +18): track 1 is ~8.5 m away, track 2 ~34 m
        assert counts[0, 0] > counts[0, 1]

    def test_trajectories_follow_motion(self):
        spec = simple_spec(n_frames=10, objects=(
            SceneObject(label=ObjectClass.CAR, start_xy=(-10.0, 0.0),
                        velocity_xy=(5.0, 0.0), track_id=7),))
        scene = generate_synthetic_scene(spec, seed=6)
        entries = scene.trajectories.tracks[7]
        assert len(entries) == 10
        xs = [box.center[0] for _, box in entries]
        np.testing.assert_allclose(np.diff(xs), 0.5, atol=1e-9)
        assert entries[0][1].yaw == pytest.approx(0.0)

    def test_annotations_pair_frames_and_boxes(self):
        spec = simple_spec(n_frames=3, objects=(
            SceneObject(label=ObjectClass.CAR, start_xy=(0.0, 0.0),
                        velocity_xy=(1.0, 0.0), track_id=1),))
        scene = generate_synthetic_scene(spec, seed=7)
        annotations = scene.annotations()
        assert [f for f, _ in annotations] == [0, 1, 2]

    def test_duplicate_track_ids_rejected(self):
        with pytest.raises(ConfigError):
            simple_spec(objects=(
                SceneObject(label=ObjectClass.CAR, start_xy=(0, 0), track_id=1),
                SceneObject(label=ObjectClass.CAR, start_xy=(5, 5), track_id=1)))

    def test_node_that_is_no_pose_rejected(self):
        with pytest.raises(ConfigError, match="RigidTransform"):
            simple_spec(nodes=((10.0, 0.0, 2.0),))

    def test_frames_are_stamped_by_the_frame_clock(self):
        """Node frames and calibration frames start at frame_times_ns, and
        a frame's boxes sit where the objects are at its stamp; at 3 Hz
        the period is no whole number of nanoseconds."""
        spec = simple_spec(n_frames=4, frame_rate_hz=3.0, objects=(
            SceneObject(label=ObjectClass.CAR, start_xy=(0.0, 0.0),
                        velocity_xy=(3.0, 0.0), track_id=1),))
        scene = generate_synthetic_scene(spec)
        stamps = frame_times_ns(4, 3.0).tolist()
        assert stamps == [0, 333_333_333, 666_666_667, 1_000_000_000]
        for frames in scene.node_frames.values():
            assert [frame.timestamp_ns for frame in frames] == stamps
        assert [boxes[0].center[0] for boxes in scene.gt_boxes] == \
            [3.0 * (stamp / NS) for stamp in stamps]
        assert [frame.timestamp_ns for frame in calibration_capture(
            scene, 0)] == frame_times_ns(10, 3.0).tolist()


class TestStandardCrossroad:
    def test_spec_is_deterministic(self):
        a = standard_crossroad_spec(n_frames=5, seed=3)
        b = standard_crossroad_spec(n_frames=5, seed=3)
        assert a.objects == b.objects
        assert a.statics == b.statics
        for na, nb in zip(a.nodes, b.nodes):
            np.testing.assert_array_equal(na.matrix(), nb.matrix())

    def test_scene_has_all_classes(self):
        spec = standard_crossroad_spec(n_frames=2, seed=1)
        labels = {obj.label for obj in spec.objects}
        assert labels == {ObjectClass.CAR, ObjectClass.CYCLIST,
                          ObjectClass.PEDESTRIAN}


def cast_all_rays(origin, dirs, surfaces, best_t=None):
    """Oracle caster: every surface's exact test on every ray, no culling.

    Accepts (label, surface) pairs or ``_bounded`` entries, and starts from
    ``best_t`` like ``_cast_frame``.
    """
    best_t = (np.full(len(dirs), np.inf) if best_t is None
              else np.array(best_t, dtype=float))
    best_label = np.full(len(dirs), -1, dtype=np.int64)
    for label, surface, *_ in surfaces:
        t = _surface_entry(origin, dirs, surface)
        closer = t < best_t
        best_t[closer] = t[closer]
        best_label[closer] = label
    return best_t, best_label


def assert_cast_matches_oracle(origin, dirs, surfaces):
    """Culled and all-rays casts agree bit for bit; returns the cast."""
    origin = np.asarray(origin, dtype=float)
    dirs = np.ascontiguousarray(dirs, dtype=float)
    t, label = _cast_frame(origin, _RayIndex(dirs),
                           [_bounded(lab, surf) for lab, surf in surfaces])
    want_t, want_label = cast_all_rays(origin, dirs, surfaces)
    assert np.array_equal(t, want_t)
    assert np.array_equal(label, want_label)
    return t, label


def box_corners(center, size, yaw):
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    signs = np.array([[i, j, k] for i in (-1, 1) for j in (-1, 1)
                      for k in (-1, 1)], dtype=float)
    return np.asarray(center) + (signs * np.asarray(size) / 2.0) @ rot.T


def unit_rows(vectors):
    vectors = np.asarray(vectors, dtype=float)
    # a box corner at the origin gives a zero row: its NaN direction is a
    # case the slab test checks on purpose
    with np.errstate(invalid="ignore", divide="ignore"):
        return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def random_dirs(rng, n):
    return unit_rows(rng.normal(size=(n, 3)))


def tangent_dirs(origin, center, radius, n):
    """n unit rays from origin grazing the sphere (center, radius)."""
    axis = np.asarray(center, dtype=float) - origin
    dist = np.linalg.norm(axis)
    axis = axis / dist
    helper = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 \
        else np.array([0.0, 1.0, 0.0])
    u = np.cross(axis, helper)
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    half_angle = math.asin(min(radius / dist, 1.0))
    phi = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    ring = np.cos(phi)[:, None] * u + np.sin(phi)[:, None] * v
    return unit_rows(math.cos(half_angle) * axis
                     + math.sin(half_angle) * ring)


class TestCullingCasterOracle:
    """``_cast_frame`` culls with an angular ray index and bounding spheres;
    the result must equal the all-rays caster's exactly, distances and
    labels."""

    def test_origin_in_bounding_sphere_outside_box(self, rng):
        # the half diagonal is 2.45; in the box frame the origin sits at
        # (2.12, -0.90, 0), outside the 2 m half length
        origin = np.array([2.3, 0.0, 0.0])
        surfaces = [(0, SceneBox((0.0, 0.0, 0.0), (4.0, 2.0, 2.0), 0.4))]
        t, _ = assert_cast_matches_oracle(origin, random_dirs(rng, 4000),
                                          surfaces)
        assert 0 < np.isfinite(t).sum() < len(t)

    def test_origin_inside_scene_sphere(self, rng):
        surfaces = [(0, SceneSphere(center=(0.0, 0.0, 0.0), radius=3.0)),
                    (1, SceneBox((8.0, 0.0, 0.0), (1.0, 1.0, 1.0)))]
        _, label = assert_cast_matches_oracle((1.0, 0.5, 0.0),
                                              random_dirs(rng, 4000), surfaces)
        assert set(np.unique(label)) == {-1, 1}

    def test_surfaces_behind_origin(self, rng):
        dirs = random_dirs(rng, 3000)
        dirs[:, 0] = np.abs(dirs[:, 0])       # every ray points to +x
        surfaces = [(0, SceneBox((-6.0, 0.0, 0.0), (2.0, 3.0, 1.0))),
                    (1, SceneSphere(center=(-5.0, 4.0, 1.0), radius=1.5)),
                    (2, SceneBox((6.0, 0.0, 0.0), (2.0, 3.0, 1.0)))]
        _, label = assert_cast_matches_oracle((0.0, 0.0, 0.0), dirs, surfaces)
        assert set(np.unique(label)) == {-1, 2}

    def test_rays_tangent_to_bounding_spheres(self, rng):
        # a ray in the tangent plane at a corner grazes the bounding sphere
        # exactly there, and the box touches that plane only at the corner,
        # so rounding decides both the slab test and the sphere test
        grazing_hits = 0
        for _ in range(40):
            center = rng.uniform(-10.0, 10.0, 3)
            size = tuple(rng.uniform(0.2, 6.0, 3))
            yaw = float(rng.uniform(-math.pi, math.pi))
            surfaces = [(0, SceneBox(center, size, yaw))]
            for corner in box_corners(center, size, yaw):
                radial = corner - center
                for _ in range(3):
                    u = np.cross(radial, rng.normal(size=3))
                    u /= np.linalg.norm(u)
                    origin = corner + rng.uniform(1.0, 20.0) * u
                    t, _ = assert_cast_matches_oracle(origin, -u[None],
                                                      surfaces)
                    grazing_hits += np.isfinite(t).sum()
        assert grazing_hits > 0
        sphere = SceneSphere(center=(3.0, -2.0, 1.0), radius=1.7)
        origin = np.array([-9.0, 4.0, 2.5])
        assert_cast_matches_oracle(
            origin, tangent_dirs(origin, sphere.center, sphere.radius, 2000),
            [(0, sphere)])

    def test_axis_parallel_rays(self):
        # the origin lies on the planes of the top face and a side face, so
        # axis-parallel rays give 0/0 in the slab test
        axes = np.vstack([np.eye(3), -np.eye(3)])
        surfaces = [(0, SceneBox((0.0, 0.0, 0.5), (2.0, 2.0, 1.0))),
                    (1, SceneBox((5.0, 1.0, 0.5), (2.0, 2.0, 1.0)))]
        for origin in ((-5.0, 0.0, 1.0), (-5.0, 1.0, 0.5), (5.0, 2.0, 1.0),
                       (0.0, -4.0, 0.0)):
            assert_cast_matches_oracle(origin, axes, surfaces)

    def test_coincident_surfaces_keep_the_first(self, rng):
        box = SceneBox((6.0, 1.0, 0.0), (2.0, 2.0, 2.0), 0.7)
        sphere = SceneSphere(center=(-6.0, 0.0, 0.0), radius=1.5)
        surfaces = [(3, box), (4, box), (5, sphere), (6, sphere)]
        _, label = assert_cast_matches_oracle((0.0, 0.0, 0.0),
                                              random_dirs(rng, 6000), surfaces)
        assert set(np.unique(label)) == {-1, 3, 5}

    def test_ground(self):
        spec = simple_spec()
        ground = SceneBox((0.0, 0.0, -0.5), (88.0, 88.0, 1.0))
        for node in spec.nodes:
            dirs = _ray_grid(spec) @ node.rotation.T
            t, _ = assert_cast_matches_oracle(node.translation, dirs,
                                              [(-1, ground)])
            assert np.isfinite(t).any() and not np.isfinite(t).all()

    @pytest.mark.parametrize("d_z", [0.0, -0.0, -1e-300])
    def test_level_rays_over_a_box_below(self, rng, d_z):
        # from above the top face, a ray with d_z >= 0 is not slab-tested
        level = np.array([[1.0, 0.0, d_z], [0.6, -0.8, d_z], [0.0, -1.0, d_z],
                          [-0.8, 0.6, d_z], [-1.0, 0.0, d_z]])
        dirs = np.vstack([random_dirs(rng, 2000), level])
        ground = SceneBox((0.0, 0.0, -0.5), (88.0, 88.0, 1.0), 0.3)
        for origin in ((1.0, 2.0, 1.5), (-30.0, 4.0, 1e-12), (3.0, 3.0, 0.0),
                       (50.0, 1.0, 0.0), (0.0, -2.0, -0.2)):
            # above, barely above, level with the top face over it and
            # beside it (a level ray there hits the side), inside the box
            assert_cast_matches_oracle(origin, dirs, [(0, ground)])

    def test_box_below_is_tested_on_downward_rays_only(self, rng,
                                                       monkeypatch):
        dirs = random_dirs(rng, 3000)
        dirs[:4, 2] = [0.0, -0.0, -1e-300, 1e-300]
        ground = SceneBox((0.0, 0.0, -0.5), (88.0, 88.0, 1.0))
        tested = []

        def recording_entry(origin, ray_dirs, surface):
            tested.append(len(ray_dirs))
            return _surface_entry(origin, ray_dirs, surface)

        monkeypatch.setattr(scene_module, "_surface_entry", recording_entry)
        for z in (1.5, 0.0, -0.5):
            assert_cast_matches_oracle((1.0, 2.0, z), dirs, [(0, ground)])
        # above the top face, level with it, inside the box
        downward = int((dirs[:, 2] < 0.0).sum())
        assert tested == [downward, len(dirs), len(dirs)]

    def test_exact_test_skips_culled_rays(self, rng, monkeypatch):
        # a wall hides a small box; a second box sits behind the origin
        wall = SceneBox((5.0, 0.0, 0.0), (0.2, 20.0, 20.0))
        hidden = SceneBox((10.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        behind = SceneBox((-10.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        surfaces = [(0, wall), (1, hidden), (2, behind)]
        dirs = random_dirs(rng, 3000)
        dirs[:, 0] = np.abs(dirs[:, 0])
        tested = []

        def recording_entry(origin, ray_dirs, surface):
            tested.append(len(ray_dirs))
            return _surface_entry(origin, ray_dirs, surface)

        monkeypatch.setattr(scene_module, "_surface_entry", recording_entry)
        _, label = assert_cast_matches_oracle((0.0, 0.0, 0.0), dirs,
                                              surfaces)
        assert set(np.unique(label)) == {-1, 0}
        # only the wall is tested exactly, and the others on no ray at all
        assert len(tested) == 1 and tested[0] > 0

    @given(seed=st.integers(0, 2**32 - 1),
           n_boxes=st.integers(0, 4), n_spheres=st.integers(0, 3),
           origin=st.tuples(*[st.floats(-25.0, 25.0)] * 3))
    @settings(max_examples=150, deadline=None)
    # one sphere-test candidate alone: numpy rounds a lone row's product
    # differently from a batch's
    @example(seed=318, n_boxes=2, n_spheres=2,
             origin=(20.58850753507214, -10.328125, 2.0))
    def test_random_scenes(self, seed, n_boxes, n_spheres, origin):
        rng = np.random.default_rng(seed)
        origin = np.asarray(origin)
        surfaces, bounds, dirs = [], [], [random_dirs(rng, 300)]
        for label in range(n_boxes):
            center = rng.uniform(-15.0, 15.0, 3)
            size = tuple(rng.uniform(0.1, 10.0, 3))
            yaw = float(rng.uniform(-math.pi, math.pi))
            surfaces.append((label, SceneBox(center, size, yaw)))
            bounds.append((center, 0.5 * np.linalg.norm(size)))
            dirs.append(unit_rows(box_corners(center, size, yaw) - origin))
        for label in range(n_boxes, n_boxes + n_spheres):
            sphere = SceneSphere(center=tuple(rng.uniform(-15.0, 15.0, 3)),
                                 radius=float(rng.uniform(0.1, 4.0)))
            surfaces.append((label, sphere))
            bounds.append((sphere.center, sphere.radius))
        for center, radius in bounds:
            if np.linalg.norm(center - origin) > radius:
                dirs.append(tangent_dirs(origin, center, radius, 40))
        assert_cast_matches_oracle(origin, np.vstack(dirs), surfaces)


def reduction_ray_box_entry(origin, dirs, center, size, yaw):
    """The slab test with reductions over the length-3 axis, as the scene
    module first computed it: the oracle for the column-wise version."""
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    local_origin = (origin - np.asarray(center, dtype=float)) @ rot
    local_dirs = dirs @ rot
    half = np.asarray(size, dtype=float) / 2.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t1 = (-half - local_origin) / local_dirs
        t2 = (half - local_origin) / local_dirs
        lo = np.minimum(t1, t2)
        hi = np.maximum(t1, t2)
    lo = np.where(np.isnan(lo), -np.inf, lo)
    hi = np.where(np.isnan(hi), np.inf, hi)
    t_enter = lo.max(axis=1)
    t_exit = hi.min(axis=1)
    hit = (t_exit >= t_enter) & (t_enter > 1e-9)
    return np.where(hit, t_enter, np.inf)


# multiples of 1/4: the origin can sit exactly on a face plane, where an
# axis-parallel ray gives 0/0 in the slab test
quarters = st.integers(-40, 40).map(lambda k: k / 4.0)


class TestSlabTest:
    @given(seed=st.integers(0, 2**32 - 1),
           center=st.tuples(quarters, quarters, quarters),
           size=st.tuples(*[st.integers(1, 40).map(lambda k: k / 4.0)] * 3),
           yaw=st.sampled_from([0.0, math.pi / 2, math.pi])
           | st.floats(-math.pi, math.pi),
           origin=st.tuples(quarters, quarters, quarters),
           face=st.sampled_from([None, 0, 1, 2]), side=st.sampled_from([-1, 1]))
    # the origin on a box corner: that corner's direction is 0/0, all NaN
    @example(seed=0, center=(0.0, 0.0, 0.0), size=(0.25, 7.5, 7.5), yaw=0.0,
             origin=(0.0, 3.75, 3.75), face=0, side=-1)
    @settings(max_examples=200, deadline=None)
    def test_equals_the_reductions(self, seed, center, size, yaw, origin,
                                   face, side):
        rng = np.random.default_rng(seed)
        origin = np.array(origin)
        if face is not None:
            # on a face plane: exactly so for z, and for x and y at yaw 0
            origin[face] = center[face] + side * size[face] / 2.0
        axes = np.vstack([np.eye(3), -np.eye(3)])
        flat = random_dirs(rng, 100)
        flat[:, rng.integers(0, 3)] = 0.0       # parallel to one slab
        dirs = np.vstack([random_dirs(rng, 200), axes, unit_rows(flat),
                          unit_rows(box_corners(center, size, yaw) - origin)])
        before = dirs.copy()
        got = _ray_box_entry(origin, dirs, center, size, yaw)
        assert np.array_equal(got, reduction_ray_box_entry(
            origin, dirs, center, size, yaw))
        # bytes, so a NaN direction compares equal to itself
        assert dirs.tobytes() == before.tobytes()

    def test_parallel_rays_on_a_face_plane(self):
        # the +y and -y rays from a point on the top plane give 0/0 in z
        origin = np.array([-5.0, 0.0, 1.0])
        dirs = np.vstack([np.eye(3), -np.eye(3)])
        got = _ray_box_entry(origin, dirs, (0.0, 0.0, 0.5), (2.0, 2.0, 1.0),
                             0.0)
        assert np.array_equal(got, reduction_ray_box_entry(
            origin, dirs, (0.0, 0.0, 0.5), (2.0, 2.0, 1.0), 0.0))
        assert got[0] == 4.0 and np.isinf(got[1:]).all()


def cap_dirs(rng, axis, half_angle, n):
    """n unit rays at most ``half_angle`` from the unit ``axis``, plus n on
    the rim of that cap."""
    helper = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 \
        else np.array([0.0, 1.0, 0.0])
    u = np.cross(axis, helper)
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    angle = half_angle * np.concatenate([np.sqrt(rng.uniform(size=n)),
                                         np.ones(n)])
    phi = rng.uniform(0.0, 2.0 * math.pi, 2 * n)
    ring = np.cos(phi)[:, None] * u + np.sin(phi)[:, None] * v
    return unit_rows(np.cos(angle)[:, None] * axis
                     + np.sin(angle)[:, None] * ring)


def check_index_holds_sphere_rays(origin, dirs, center, radius):
    """Every ray that passes the culling sphere test is a candidate of the
    ray index, and the candidates ascend; returns the passing rays."""
    _, _, center, radius = _bounded(0, SceneSphere(tuple(center), radius))
    offset = np.asarray(origin, dtype=float) - center
    c = offset @ offset - radius * radius
    assert c > 0.0
    b = dirs @ offset
    disc = b * b - c
    passing = np.flatnonzero((disc >= 0.0) & (b < 0.0))
    cand = _RayIndex(dirs).toward_sphere(-offset, radius)
    assert np.all(np.diff(cand) > 0)
    assert np.isin(passing, cand).all()
    return passing


def polar_dir(elevation, azimuth):
    return np.array([math.cos(elevation) * math.cos(azimuth),
                     math.cos(elevation) * math.sin(azimuth),
                     math.sin(elevation)])


class TestRayIndex:
    """The index gathers a superset of the rays the sphere test passes."""

    @pytest.mark.parametrize("elevation, azimuth, distance, radius", [
        (math.pi / 2, 0.0, 10.0, 2.0),              # centred on a pole
        (-1.45, 0.7, 10.0, 2.0),                    # reaching over a pole
        (0.2, math.pi, 10.0, 3.0),                  # straddling +-180 deg
        (-0.4, -math.pi + 0.01, 10.0, 1.0),
        (1.2, 0.5, 10.0, 2.0),                      # wide in azimuth
        (0.3, 1.0, 200.0, 0.01),                    # smaller than a bin
        (0.0, 2.0, 5.0 + 2e-6, 5.0),                # origin just outside
    ])
    def test_caps(self, rng, elevation, azimuth, distance, radius):
        origin = np.array([1.0, -2.0, 0.5])
        axis = polar_dir(elevation, azimuth)
        half_angle = math.asin(min(1.0, radius / distance))
        dirs = np.vstack([random_dirs(rng, 2000),
                          cap_dirs(rng, axis, 1.001 * half_angle, 500)])
        passing = check_index_holds_sphere_rays(origin, dirs,
                                                origin + distance * axis,
                                                radius)
        assert len(passing) > 0

    @given(seed=st.integers(0, 2**32 - 1),
           elevation=st.sampled_from([-math.pi / 2, math.pi / 2, 1.5, -1.5])
           | st.floats(-math.pi / 2, math.pi / 2),
           azimuth=st.sampled_from([-math.pi, math.pi, math.pi - 1e-9])
           | st.floats(-math.pi, math.pi),
           distance=st.floats(0.5, 300.0),
           ratio=st.sampled_from([1e-5, 1e-3, 0.999999, 1.0 - 1e-12])
           | st.floats(1e-6, 0.999999))
    @settings(max_examples=300, deadline=None)
    def test_superset_of_the_sphere_test(self, seed, elevation, azimuth,
                                         distance, ratio):
        rng = np.random.default_rng(seed)
        origin = rng.uniform(-20.0, 20.0, 3)
        axis = polar_dir(elevation, azimuth)
        # the padded radius stays below the distance: the origin is outside
        radius = ratio * distance - 2e-6
        assume(radius > 0.0)
        half_angle = math.asin(min(1.0, ratio))
        dirs = np.vstack([random_dirs(rng, 300),
                          cap_dirs(rng, axis, half_angle, 150),
                          cap_dirs(rng, axis, 1.0001 * half_angle, 50)])
        check_index_holds_sphere_rays(origin, dirs, origin + distance * axis,
                                      radius)

    @pytest.mark.parametrize("row", [(np.nan, 0.0, 1.0), (0.0, 0.0, np.nan),
                                     (np.nan, np.nan, np.nan),
                                     (0.0, 0.0, 0.0)])
    def test_nan_or_zero_direction_misses(self, rng, row):
        """A direction with a NaN component, such as a normalised zero
        vector, is indexed without a warning and in no bin; a zero vector
        has angles 0 and its bin. Either misses every surface: the ground
        below the origin, a box whose bounding sphere holds the origin and
        a sphere away from it. The other rays cast as they do without it."""
        dirs = random_dirs(rng, 500)
        rays = _RayIndex(np.insert(dirs, 7, row, axis=0))
        binned = not np.isnan(row).any()
        assert (7 in rays.order[:rays.starts[-1]]) == binned
        assert rays.starts[-1] == len(dirs) + binned
        surfaces = [(0, SceneBox((0.0, 0.0, -0.5), (40.0, 40.0, 1.0))),
                    (1, SceneBox((3.0, 0.0, 2.0), (2.0, 8.0, 4.0), 0.3)),
                    (2, SceneSphere((-8.0, 1.0, 2.0), 3.0))]
        origin = np.array([0.5, -0.5, 2.0])
        t, label = assert_cast_matches_oracle(origin, rays.dirs, surfaces)
        assert t[7] == np.inf and label[7] == -1
        want_t, want_label = assert_cast_matches_oracle(origin, dirs,
                                                        surfaces)
        assert np.array_equal(np.delete(t, 7), want_t)
        assert np.array_equal(np.delete(label, 7), want_label)
        assert len(np.unique(want_label)) == 4

    def test_reference_grid_matches_all_rays_caster(self):
        spec = standard_crossroad_spec(n_frames=1)
        extent = spec.extent
        surfaces = [(0, SceneBox((0.0, 0.0, -0.5),
                                 (4.0 * extent, 4.0 * extent, 1.0)))]
        surfaces += enumerate(spec.statics, start=1)
        dirs = _reference_ray_grid(spec)
        for station in spec.reference_scanner_positions:
            t, label = assert_cast_matches_oracle(station, dirs, surfaces)
            assert np.isfinite(t).mean() > 0.5 and len(np.unique(label)) > 5


def scene_digest(synthetic):
    digest = hashlib.sha256()
    digest.update(synthetic.reference_cloud.points.tobytes())
    for node in sorted(synthetic.node_frames):
        for frame in synthetic.node_frames[node]:
            digest.update(frame.points.tobytes())
    digest.update(synthetic.visible_counts.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("layout", [0, 3, 9])
def test_crossroad_scene_matches_all_rays_caster(monkeypatch, layout):
    spec = standard_crossroad_spec(n_frames=2, seed=layout)
    culled = scene_digest(generate_synthetic_scene(spec))
    monkeypatch.setattr(
        scene_module, "_cast_frame",
        lambda origin, rays, surfaces, best_t=None: cast_all_rays(
            origin, rays.dirs, surfaces, best_t))
    assert culled == scene_digest(generate_synthetic_scene(spec))


def render_one_cast_per_frame(spec, seed):
    """Oracle: each node frame cast once over the statics followed by that
    frame's objects, the way scenes were rendered before the statics were
    cast once per node. Returns node frames, reference and visible counts."""
    rng = np.random.default_rng([seed, 0x5CE17E])
    ground = SceneBox((0.0, 0.0, -0.5),
                      (4.0 * spec.extent, 4.0 * spec.extent, 1.0))
    statics = [_bounded(-1, static) for static in (ground, *spec.statics)]
    frames = {node: [] for node in range(len(spec.nodes))}
    visible = np.zeros((spec.n_frames, len(spec.nodes), len(spec.objects)),
                       dtype=np.int64)
    for frame in range(spec.n_frames):
        boxes = [obj.box_at(frame / spec.frame_rate_hz) for obj in spec.objects]
        surfaces = statics + [_bounded(k, box) for k, box in enumerate(boxes)]
        for node, extrinsic in enumerate(spec.nodes):
            rays = _RayIndex(_ray_grid(spec) @ extrinsic.rotation.T)
            t, labels = _cast_frame(extrinsic.translation, rays, surfaces)
            hit = np.isfinite(t)
            points = extrinsic.translation + rays.dirs[hit] * t[hit, None]
            if spec.noise_sigma > 0.0 and len(points):
                points = points + rng.normal(scale=spec.noise_sigma,
                                             size=points.shape)
            frames[node].append(extrinsic.inverse().apply(points))
            for k in range(len(boxes)):
                visible[frame, node, k] = (labels[hit] == k).sum()
    reference = _reference_cloud(spec, statics, rng)
    return frames, reference.points, visible


def assert_scene_matches_one_cast_per_frame(spec, seed=0):
    synthetic = generate_synthetic_scene(spec, seed=seed)
    frames, reference, visible = render_one_cast_per_frame(spec, seed)
    for node, clouds in synthetic.node_frames.items():
        assert len(clouds) == len(frames[node])
        for cloud, want in zip(clouds, frames[node]):
            assert np.array_equal(cloud.points, want)
    assert np.array_equal(synthetic.reference_cloud.points, reference)
    assert np.array_equal(synthetic.visible_counts, visible)
    return synthetic


def tiny_spec(**kwargs):
    defaults = dict(extent=12.0, noise_sigma=0.0, azimuth_steps=40,
                    elevation_steps=16, reference_azimuth_steps=60,
                    reference_elevation_steps=12)
    defaults.update(kwargs)
    return SceneSpec(**defaults)


class TestStaticsCastOncePerNode:
    """Each node casts the statics once and each frame only its objects;
    the scene must equal one cast per node frame over both, bit for bit."""

    @given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(1, 3),
           n_frames=st.integers(1, 4), n_boxes=st.integers(0, 3),
           n_spheres=st.integers(0, 2), n_objects=st.integers(0, 4),
           noise=st.sampled_from([0.0, 0.02]))
    @settings(max_examples=100, deadline=None)
    def test_equals_one_cast_per_frame(self, seed, n_nodes, n_frames, n_boxes,
                                       n_spheres, n_objects, noise):
        rng = np.random.default_rng(seed)
        # quarter-metre positions and yaw 0 keep the slab arithmetic exact,
        # so a face that an object shares with a box ties exactly
        def quarter(low, high, n=None):
            return rng.integers(4 * low, 4 * high + 1, n) / 4.0

        nodes = []
        for _ in range(n_nodes):
            angle = rng.uniform(-math.pi, math.pi)
            position = (round(10.0 * math.cos(angle) * 4) / 4,
                        round(10.0 * math.sin(angle) * 4) / 4,
                        float(quarter(1, 4)))
            nodes.append(look_at(position, (0.0, 0.0, 0.5)))
        boxes = []
        for _ in range(n_boxes):
            size = quarter(0.5, 4.0, 3)
            boxes.append(SceneBox(center=(*quarter(-6, 6, 2), size[2] / 2.0),
                                  size=tuple(size),
                                  yaw=0.0 if rng.uniform() < 0.7
                                  else float(rng.uniform(-math.pi, math.pi))))
        spheres = [SceneSphere(center=tuple(rng.uniform(-6.0, 6.0, 3)),
                               radius=float(rng.uniform(0.3, 2.0)))
                   for _ in range(n_spheres)]
        objects = []
        for track_id in range(n_objects):
            size = tuple(quarter(0.5, 3.0, 3))
            if boxes and rng.uniform() < 0.5:
                # against a box face: flush with it inside, or touching it
                # from outside
                box = boxes[rng.integers(len(boxes))]
                axis, side = rng.integers(2), rng.choice([-1.0, 1.0])
                face = box.center[axis] + side * box.size[axis] / 2.0
                start = list(box.center[:2])
                start[axis] = face + rng.choice([-1.0, 1.0]) * side \
                    * size[axis] / 2.0
                objects.append(SceneObject(
                    label=ObjectClass.CAR, start_xy=tuple(start), size=size,
                    yaw=box.yaw, track_id=track_id))
            else:
                objects.append(SceneObject(
                    label=ObjectClass.PEDESTRIAN,
                    start_xy=tuple(quarter(-8, 8, 2)),
                    velocity_xy=tuple(rng.uniform(-4.0, 4.0, 2)), size=size,
                    track_id=track_id))
        spec = tiny_spec(nodes=tuple(nodes), statics=tuple(boxes + spheres),
                         objects=tuple(objects), n_frames=n_frames,
                         noise_sigma=noise)
        assert_scene_matches_one_cast_per_frame(spec, seed=seed % 1000)

    def test_object_flush_with_a_wall_face_gets_no_ray(self):
        # the car fills the front half of the wall: its front face is the
        # wall's, so every ray that reaches the car ties with the wall
        wall = SceneBox(center=(5.0, 0.0, 1.0), size=(2.0, 4.0, 2.0))
        car = SceneObject(label=ObjectClass.CAR, start_xy=(4.5, 0.0),
                          size=(1.0, 2.0, 1.5), track_id=1)
        node = look_at((-5.0, 0.0, 1.0), (5.0, 0.0, 0.75))
        spec = tiny_spec(nodes=(node,), statics=(wall,), objects=(car,),
                         azimuth_steps=120, elevation_steps=60)
        synthetic = assert_scene_matches_one_cast_per_frame(spec)
        assert synthetic.visible_counts[0, 0, 0] == 0
        # alone, the car would take rays, at the same distance as the wall
        origin = node.translation
        dirs = _ray_grid(spec) @ node.rotation.T
        car_t, _ = cast_all_rays(origin, dirs, [(0, car.box_at(0.0))])
        wall_t, _ = cast_all_rays(origin, dirs, [(0, wall)])
        hits = np.isfinite(car_t)
        assert hits.sum() > 50
        assert np.array_equal(car_t[hits], wall_t[hits])

    def test_objects_behind_the_statics_are_not_tested(self, monkeypatch):
        # every ray toward the car's bounding sphere meets the wall or the
        # ground first, so the car's exact test gets no ray
        wall = SceneBox(center=(5.0, 0.0, 1.0), size=(2.0, 4.0, 2.0))
        car = SceneObject(label=ObjectClass.CAR, start_xy=(8.0, 0.0),
                          size=(1.0, 2.0, 1.5), track_id=1)
        node = look_at((-5.0, 0.0, 1.0), (5.0, 0.0, 0.75))
        spec = tiny_spec(nodes=(node,), statics=(wall,), objects=(car,),
                         azimuth_steps=120, elevation_steps=60)
        alone, _ = cast_all_rays(node.translation,
                                 _ray_grid(spec) @ node.rotation.T,
                                 [(0, car.box_at(0.0))])
        assert np.isfinite(alone).sum() > 50
        tested = []
        entry = scene_module._surface_entry

        def recording_entry(origin, dirs, surface):
            if isinstance(surface, Box3D):
                tested.append(len(dirs))
            return entry(origin, dirs, surface)
        monkeypatch.setattr(scene_module, "_surface_entry", recording_entry)
        synthetic = generate_synthetic_scene(spec)
        assert synthetic.visible_counts[0, 0, 0] == 0
        assert sum(tested) == 0

    def test_statics_are_cast_once_per_node(self, monkeypatch):
        spec = tiny_spec(nodes=four_corner_nodes(radius=10.0), n_frames=3,
                         statics=(SceneBox(center=(3.0, 3.0, 1.0),
                                           size=(1.0, 1.0, 2.0)),),
                         objects=(SceneObject(label=ObjectClass.CAR,
                                              start_xy=(0.0, 0.0),
                                              velocity_xy=(1.0, 0.0),
                                              track_id=1),))
        casts = []

        def recording_cast(origin, rays, surfaces, best_t=None):
            casts.append(sorted({label for label, *_ in surfaces}))
            return _cast_frame(origin, rays, surfaces, best_t)

        monkeypatch.setattr(scene_module, "_cast_frame", recording_cast)
        generate_synthetic_scene(spec)
        stations = len(spec.reference_scanner_positions)
        # one static cast per node and per reference station, and one cast
        # of the objects per node frame
        assert casts.count([-1]) == len(spec.nodes) + stations
        assert casts.count([0]) == len(spec.nodes) * spec.n_frames
        assert len(casts) == len(spec.nodes) * (1 + spec.n_frames) + stations
