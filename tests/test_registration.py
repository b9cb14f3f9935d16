import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from conftest import random_rotation, random_transform, structured_scene_points
from mvlidar import registration
from mvlidar.errors import (
    DegenerateConfigurationError,
    EmptyInputError,
    FormatError,
    NoConsensusError,
    NoCorrespondencesError,
)
from mvlidar.geometry import (
    PointCloud,
    RigidTransform,
    transform_distance,
    voxel_downsample,
)
from mvlidar.registration import (
    FPFH_BINS_PER_FEATURE,
    FPFH_SIZE,
    CornerPair,
    HierarchyConfig,
    HierarchyLevel,
    RegistrationResult,
    accumulate_frames,
    coarse_align_ransac,
    compute_fpfh,
    estimate_normals,
    evaluate_point_projection_error,
    hierarchical_register,
    icp_refine,
    mutual_feature_matches,
    prepare_cloud,
    solve_rigid_arun,
)
from mvlidar.registration import _bin_index, _normalize_blocks

FAST_CFG = HierarchyConfig(levels=(HierarchyLevel(1.5, 3.0, 40),
                                   HierarchyLevel(0.5, 1.0, 40),
                                   HierarchyLevel(0.2, 0.5, 60)),
                           fpfh_radius=7.5, normal_radius=3.75,
                           ransac_iterations=3000,
                           ransac_inlier_threshold=2.25,
                           arbitration_hypotheses=32)


def plane_cloud(rng, z=-2.0, extent=3.0, spacing=0.25):
    xs = np.arange(-extent, extent, spacing)
    grid = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    return PointCloud(np.column_stack([grid, np.full(len(grid), z)]))


class TestEstimateNormals:
    def test_plane_normals_point_to_viewpoint(self, rng):
        cloud = plane_cloud(rng)
        normals = estimate_normals(cloud, radius=0.6)
        lengths = np.linalg.norm(normals, axis=1)
        assert np.all(lengths > 0.999)
        # viewpoint (origin) is above the z=-2 plane, so normals face +z
        np.testing.assert_allclose(normals[:, 2], 1.0, atol=1e-6)

    def test_isolated_point_zero_normal(self):
        cloud = PointCloud([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0],
                            [0.0, 100.0, 0.0]])
        normals = estimate_normals(cloud, radius=1.0)
        np.testing.assert_array_equal(normals, np.zeros((3, 3)))

    def test_sphere_normals_match_analytic(self, rng):
        direction = rng.normal(size=(8000, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        cloud = PointCloud(direction)  # unit sphere
        normals = estimate_normals(cloud, radius=0.2, viewpoint=(0.0, 0.0, 0.0))
        computed = np.linalg.norm(normals, axis=1) > 0.5
        assert computed.mean() > 0.99
        # analytic oracle: inward radial normal -p
        cosine = -np.einsum("ij,ij->i", normals[computed], direction[computed])
        angles = np.degrees(np.arccos(np.clip(cosine, -1.0, 1.0)))
        assert angles.max() < 2.0


def _directed_pairs(points, radius):
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    return (np.concatenate([pairs[:, 0], pairs[:, 1]]),
            np.concatenate([pairs[:, 1], pairs[:, 0]]))


def estimate_normals_oracle(cloud, radius, min_neighbors=5,
                            viewpoint=(0.0, 0.0, 0.0)):
    """The ``np.add.at`` moment sums ``estimate_normals`` replaced."""
    points = cloud.points
    n = len(points)
    normals = np.zeros((n, 3))
    src, dst = _directed_pairs(points, radius)
    delta = points[dst] - points[src]
    counts = np.bincount(src, minlength=n).astype(float) + 1.0
    sums = np.zeros((n, 3))
    np.add.at(sums, src, delta)
    outer = np.zeros((n, 3, 3))
    np.add.at(outer, src, delta[:, :, None] * delta[:, None, :])
    computable = counts >= min_neighbors
    if not computable.any():
        return normals
    mean = sums[computable] / counts[computable, None]
    cov = (outer[computable] / counts[computable, None, None]
           - mean[:, :, None] * mean[:, None, :])
    candidate = np.linalg.eigh(cov)[1][:, :, 0]
    toward = np.asarray(viewpoint, dtype=float) - points[computable]
    flip = np.einsum("ij,ij->i", candidate, toward) < 0.0
    candidate[flip] = -candidate[flip]
    normals[computable] = candidate
    return normals


def compute_fpfh_oracle(cloud, normals, radius):
    """The ``np.add.at`` histogram sums ``compute_fpfh`` replaced."""
    points = cloud.points
    n = len(points)
    spfh = np.zeros((n, FPFH_SIZE))
    valid = np.linalg.norm(normals, axis=1) > 0.5
    src, dst = _directed_pairs(points, radius)
    if len(src) == 0:
        return spfh
    keep = valid[src] & valid[dst]
    src, dst = src[keep], dst[keep]
    delta = points[dst] - points[src]
    dist = np.linalg.norm(delta, axis=1)
    keep = dist > 1e-12
    src, dst, delta, dist = src[keep], dst[keep], delta[keep], dist[keep]
    d_hat = delta / dist[:, None]
    u, n_q = normals[src], normals[dst]
    v = np.cross(d_hat, u)
    v_norm = np.linalg.norm(v, axis=1)
    keep = v_norm > 1e-12
    src, dst, dist = src[keep], dst[keep], dist[keep]
    d_hat, u, n_q = d_hat[keep], u[keep], n_q[keep]
    v = v[keep] / v_norm[keep][:, None]
    w = np.cross(u, v)
    alpha = np.einsum("ij,ij->i", v, n_q)
    phi = np.einsum("ij,ij->i", u, d_hat)
    theta = np.arctan2(np.einsum("ij,ij->i", w, n_q),
                       np.einsum("ij,ij->i", u, n_q))
    np.add.at(spfh, (src, _bin_index(alpha, -1.0, 1.0)), 1.0)
    np.add.at(spfh, (src, FPFH_BINS_PER_FEATURE + _bin_index(phi, -1.0, 1.0)),
              1.0)
    np.add.at(spfh, (src, 2 * FPFH_BINS_PER_FEATURE
                     + _bin_index(theta, -math.pi, math.pi)), 1.0)
    spfh = _normalize_blocks(spfh)
    weighted = np.zeros_like(spfh)
    counts = np.zeros(n)
    np.add.at(weighted, src, spfh[dst] / dist[:, None])
    np.add.at(counts, src, 1.0)
    has_neighbors = counts > 0
    fpfh = spfh.copy()
    fpfh[has_neighbors] += weighted[has_neighbors] / counts[has_neighbors, None]
    fpfh[~has_neighbors] = 0.0
    fpfh[~valid] = 0.0
    return _normalize_blocks(fpfh)


@st.composite
def sparse_scenes(draw):
    """Small clusters around random centers, plus lone points.

    With a neighbour radius of 1 the clusters range from isolated points to
    neighbourhoods above ``min_neighbors``; some normals are zeroed to mark
    them invalid.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=8))
    centers = rng.uniform(-20.0, 20.0, size=(len(sizes), 3))
    points = np.concatenate([
        center + rng.normal(scale=draw(st.sampled_from([0.05, 0.3, 0.8])),
                            size=(size, 3))
        for center, size in zip(centers, sizes)])
    invalid = rng.random(len(points)) < draw(st.sampled_from([0.0, 0.2, 0.5]))
    min_neighbors = draw(st.integers(3, 8))
    return PointCloud(points), invalid, min_neighbors


class TestKernelsMatchScatterOracle:
    """Bit-for-bit agreement with the ``np.add.at`` normals and FPFH."""

    def check(self, cloud, invalid, min_neighbors, radius=1.0,
              viewpoint=(0.0, 0.0, 5.0)):
        normals = estimate_normals(cloud, radius, min_neighbors, viewpoint)
        assert np.array_equal(normals, estimate_normals_oracle(
            cloud, radius, min_neighbors, viewpoint))
        normals[invalid] = 0.0
        fpfh = compute_fpfh(cloud, normals, 1.5 * radius)
        assert np.array_equal(fpfh, compute_fpfh_oracle(cloud, normals,
                                                        1.5 * radius))

    def test_isolated_points_have_no_pairs(self):
        cloud = PointCloud([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0],
                            [0.0, 10.0, 0.0]])
        self.check(cloud, np.zeros(3, dtype=bool), 1)

    def test_mixed_scene(self, rng):
        plane = plane_cloud(rng, spacing=0.3).points
        few = np.array([[8.0, 8.0, 0.0], [8.2, 8.0, 0.1], [8.0, 8.3, 0.0]])
        lone = np.array([[-9.0, 9.0, 3.0]])
        cloud = PointCloud(np.concatenate([plane, few, lone]))
        invalid = rng.random(len(cloud)) < 0.2
        self.check(cloud, invalid, 5)

    def test_structured_scene(self, rng):
        cloud = voxel_downsample(PointCloud(structured_scene_points(rng, 3000)),
                                 1.0)
        self.check(cloud, np.zeros(len(cloud), dtype=bool), 5, radius=3.0)

    @settings(max_examples=60, deadline=None)
    @given(scene=sparse_scenes())
    def test_matches_oracle(self, scene):
        cloud, invalid, min_neighbors = scene
        self.check(cloud, invalid, min_neighbors)


def previous_mutual_feature_matches(source_fpfh, target_fpfh):
    """``mutual_feature_matches`` before it back-queried only the picked
    targets: every valid target row is queried."""
    src_valid = np.flatnonzero(source_fpfh.sum(axis=1) > 0.0)
    tgt_valid = np.flatnonzero(target_fpfh.sum(axis=1) > 0.0)
    if len(src_valid) == 0 or len(tgt_valid) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    tgt_tree = cKDTree(target_fpfh[tgt_valid])
    src_tree = cKDTree(source_fpfh[src_valid])
    _, fwd = tgt_tree.query(source_fpfh[src_valid])
    _, back = src_tree.query(target_fpfh[tgt_valid])
    mutual = back[fwd] == np.arange(len(src_valid))
    return np.stack([src_valid[mutual], tgt_valid[fwd[mutual]]], axis=1)


@st.composite
def snapped_clouds(draw):
    """Random clouds with random unit normals, optionally snapped to a grid.

    Snapping makes exact duplicates (the zero-distance pairs), axis-aligned
    displacements with signed zeros, and, with axis-snapped normals, exact
    zeros in the Darboux frame; some normals are zeroed to mark them
    invalid.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 160))
    points = rng.uniform(-2.0, 2.0, size=(n, 3))
    grid = draw(st.sampled_from([None, 0.25, 0.5, 1.0]))
    if grid is not None:
        points = np.round(points / grid) * grid
    normals = rng.normal(size=(n, 3))
    if draw(st.booleans()):
        axis = np.argmax(np.abs(normals), axis=1)
        sign = np.sign(normals[np.arange(n), axis])
        normals = np.eye(3)[axis] * sign[:, None]
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    normals[rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = 0.0
    radius = draw(st.sampled_from([0.6, 1.0, 1.5]))
    return PointCloud(points), normals, radius


def assert_fpfh_matches_oracle(cloud, normals, radius):
    assert np.array_equal(compute_fpfh(cloud, normals, radius),
                          compute_fpfh_oracle(cloud, normals, radius))


@pytest.fixture(scope="module")
def crossroad_scene():
    from mvlidar.scene import generate_synthetic_scene, standard_crossroad_spec
    return generate_synthetic_scene(standard_crossroad_spec(n_frames=1), 0)


@pytest.fixture(scope="module")
def crossroad_features(crossroad_scene):
    """1 m FPFH of the crossroad reference scan and of node 0's pass, with
    the pipeline's schedule and viewpoints."""
    from mvlidar.pipeline import crossroad_hierarchy
    from mvlidar.scene import calibration_capture
    scene = crossroad_scene
    cfg = crossroad_hierarchy()
    voxel = cfg.levels[0].voxel_size
    reference = voxel_downsample(scene.reference_cloud, voxel)
    node = voxel_downsample(
        accumulate_frames(calibration_capture(scene, 0), 10.0), voxel)
    clouds = {}
    for name, cloud, viewpoint in (
            ("reference", reference, scene.reference_viewpoint),
            ("node", node, (0.0, 0.0, 0.0))):
        normals = estimate_normals(cloud, cfg.normal_radius,
                                   viewpoint=viewpoint)
        clouds[name] = (cloud, normals, cfg.fpfh_radius)
    return clouds


class TestFpfhPairPassMatchesOracle:
    """The chunked pass over undirected pairs is bit-identical to the
    oracle's geometry, computed on its own for each directed pair."""

    @settings(max_examples=200, deadline=None)
    @given(scene=snapped_clouds())
    def test_random_clouds(self, scene):
        assert_fpfh_matches_oracle(*scene)

    def test_duplicate_points(self, rng):
        points = np.repeat(rng.uniform(-1.0, 1.0, size=(20, 3)), 3, axis=0)
        normals = rng.normal(size=(60, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        assert_fpfh_matches_oracle(PointCloud(points), normals, 1.0)

    @pytest.mark.parametrize("direction", [(1.0, 0.0, 0.0), (1.0, 1.0, 1.0),
                                           (0.3, -0.8, 0.2)])
    def test_normals_along_the_pair_direction(self, rng, direction):
        direction = np.asarray(direction) / np.linalg.norm(direction)
        line = np.arange(12)[:, None] * 0.3 * direction
        off = line + rng.normal(scale=0.2, size=line.shape)
        points = np.vstack([line, off])
        normals = np.vstack([np.tile(direction, (12, 1)),
                             np.tile(-direction, (6, 1)),
                             rng.normal(size=(6, 3))])
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        assert_fpfh_matches_oracle(PointCloud(points), normals, 1.0)

    def test_zero_normals(self, rng):
        points = rng.uniform(-1.0, 1.0, size=(40, 3))
        normals = np.zeros((40, 3))
        assert not compute_fpfh(PointCloud(points), normals, 1.0).any()
        assert_fpfh_matches_oracle(PointCloud(points), normals, 1.0)
        normals[::3] = rng.normal(size=(14, 3))
        normals /= np.maximum(np.linalg.norm(normals, axis=1,
                                             keepdims=True), 1.0)
        assert_fpfh_matches_oracle(PointCloud(points), normals, 1.0)

    def test_empty_and_lone_points(self):
        assert_fpfh_matches_oracle(PointCloud.empty(), np.zeros((0, 3)), 1.0)
        assert_fpfh_matches_oracle(PointCloud([[0.0, 0.0, 0.0]]),
                                   np.array([[0.0, 0.0, 1.0]]), 1.0)

    def test_pairs_across_chunks(self, rng, monkeypatch):
        import mvlidar.registration as registration
        monkeypatch.setattr(registration, "_PAIR_CHUNK", 7)
        cloud = PointCloud(rng.uniform(-1.0, 1.0, size=(50, 3)))
        normals = estimate_normals(cloud, 0.8, 3)
        assert_fpfh_matches_oracle(cloud, normals, 0.8)

    def test_crossroad_reference(self, crossroad_features):
        assert_fpfh_matches_oracle(*crossroad_features["reference"])


def traced_peak_bytes(call, *args):
    """Peak bytes ``tracemalloc`` traces while ``call(*args)`` runs, above
    what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestKernelMemory:
    """The registration kernels on the crossroad reference stay within a
    per-element budget of traced memory: the FPFH pair pass sums its
    histograms block by block, and the voxel grid frees each copy of the
    cells before the next step allocates."""

    def test_fpfh_per_pair(self, crossroad_features):
        cloud, normals, radius = crossroad_features["reference"]
        pairs = len(cKDTree(cloud.points).query_pairs(radius,
                                                      output_type="ndarray"))
        peak = traced_peak_bytes(compute_fpfh, cloud, normals, radius)
        assert peak <= 200 * pairs

    def test_voxel_grid_per_point(self, crossroad_scene):
        # 1.0 m keys span 0.16 and 0.4 m keys 2.2 per point: both count
        from mvlidar.pipeline import crossroad_hierarchy
        scan = crossroad_scene.reference_cloud
        for level in crossroad_hierarchy().levels:
            peak = traced_peak_bytes(voxel_downsample, scan, level.voxel_size)
            assert peak <= 60 * len(scan), level.voxel_size


def previous_arbitrate(candidates, rotations, translations, corr_src,
                       corr_tgt, source_points, target_tree, threshold):
    """``registration._arbitrate`` before it stopped at fitness 1.0: every
    candidate is refit and scored."""
    threshold_sq = threshold ** 2
    best = None
    for index in candidates:
        rotation, translation = rotations[index], translations[index]
        refit = None
        for _ in range(3):
            moved = corr_src @ rotation.T + translation
            inliers = np.sum((moved - corr_tgt) ** 2, axis=1) <= threshold_sq
            if inliers.sum() < 3:
                break
            try:
                refit = solve_rigid_arun(corr_src[inliers], corr_tgt[inliers])
            except DegenerateConfigurationError:
                refit = None
                break
            rotation, translation = refit.rotation, refit.translation
        if refit is None:
            continue
        fitness, rmse = registration._match_fitness(
            source_points, target_tree, refit.rotation, refit.translation,
            threshold)
        if best is None or fitness > best[0]:
            best = (fitness, rmse, refit)
    return best


def fitness_calls(monkeypatch):
    """The fitness of every ``_match_fitness`` call from now on."""
    seen = []
    score = registration._match_fitness

    def recorded(*args):
        fitness, rmse = score(*args)
        seen.append(fitness)
        return fitness, rmse
    monkeypatch.setattr(registration, "_match_fitness", recorded)
    return seen


def assert_same_registration(a, b):
    assert a.transform.matrix().tobytes() == b.transform.matrix().tobytes()
    assert (a.fitness, a.inlier_rmse, a.iterations_used, a.rmse_history) \
        == (b.fitness, b.inlier_rmse, b.iterations_used, b.rmse_history)


class TestArbitrationStopsAtPerfectFitness:
    """Arbitration ends at the first candidate with fitness 1.0 and picks
    what scoring every candidate picked."""

    def test_earlier_perfect_candidate_wins(self, rng, monkeypatch):
        # the source matches the target as is and shifted by d; candidate 0
        # (shift e) matches only a quarter of it, candidates 1 (identity)
        # and 2 (shift d) all of it. Source points lie 1.6 m apart or more
        lattice = np.stack(np.meshgrid(range(4), range(5), range(2)), axis=-1)
        source = 2.0 * lattice.reshape(-1, 3) + rng.uniform(-0.1, 0.1,
                                                            (40, 3))
        part = source[:10]
        d, e = np.array([100.0, 0.0, 0.0]), np.array([0.0, 100.0, 0.0])
        corr_src = np.concatenate([source, source, part])
        corr_tgt = np.concatenate([source, source + d, part + e])
        rotations = np.repeat(np.eye(3)[None], 3, axis=0)
        translations = np.stack([e, np.full(3, 0.1), d])
        args = ([0, 1, 2], rotations, translations, corr_src, corr_tgt,
                source, cKDTree(corr_tgt), 0.5)
        seen = fitness_calls(monkeypatch)
        old = previous_arbitrate(*args)
        assert seen == [0.25, 1.0, 1.0]
        seen.clear()
        new = registration._arbitrate(*args)
        assert seen == [0.25, 1.0]
        assert new[:2] == old[:2]
        assert np.abs(new[2].translation).max() < 1e-9
        assert new[2].matrix().tobytes() == old[2].matrix().tobytes()

    def test_crossroad_seeds(self, crossroad_features, monkeypatch):
        from mvlidar.pipeline import crossroad_hierarchy
        cfg = crossroad_hierarchy()
        source, source_normals, radius = crossroad_features["node"]
        target, target_normals, _ = crossroad_features["reference"]
        features = (compute_fpfh(source, source_normals, radius),
                    compute_fpfh(target, target_normals, radius))
        seen = fitness_calls(monkeypatch)
        stopped_early = False
        for seed in (0, 1, 2, 101):
            new = coarse_align_ransac(source, target, *features, cfg, seed)
            scored = list(seen)
            seen.clear()
            with monkeypatch.context() as patch:
                patch.setattr(registration, "_arbitrate", previous_arbitrate)
                old = coarse_align_ransac(source, target, *features, cfg,
                                          seed)
            assert_same_registration(new, old)
            # no candidate is scored after a perfect one
            assert 1.0 not in scored[:-1]
            stopped_early |= len(scored) < len(seen)
            seen.clear()
        assert stopped_early


def test_calibrate_node_is_bit_identical_to_the_previous_kernels(
        crossroad_scene, monkeypatch):
    """Crossroad node 0 calibrates to the same bytes with the arbitration
    stop and the counting voxel grid as with the kernels they replaced."""
    from mvlidar import geometry
    from mvlidar.pipeline import calibrate_node, crossroad_hierarchy
    from mvlidar.scene import calibration_capture
    scene = crossroad_scene
    frames = calibration_capture(scene, 0, seed=0)

    def calibrate():
        return calibrate_node(frames, scene.reference_cloud,
                              crossroad_hierarchy(), seed=0,
                              reference_viewpoint=scene.reference_viewpoint)
    new = calibrate()
    used = []

    def previous_voxel_grid(key):
        used.append("grid")
        return np.unique(key, return_inverse=True, return_counts=True)[1:]

    def previous(*args):
        used.append("arbitration")
        return previous_arbitrate(*args)
    monkeypatch.setattr(registration, "_arbitrate", previous)
    monkeypatch.setattr(geometry, "_voxel_grid", previous_voxel_grid)
    assert_same_registration(new, calibrate())
    assert set(used) == {"grid", "arbitration"}


def previous_estimate_normals(cloud, radius, min_neighbors=5,
                              viewpoint=(0.0, 0.0, 0.0)):
    """``estimate_normals`` on (N, 3) rows, before the column kernels."""
    points = cloud.points
    n = len(points)
    normals = np.zeros((n, 3))
    if n == 0:
        return normals
    viewpoint = np.asarray(viewpoint, dtype=float)
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    delta = points[dst] - points[src]
    counts = np.bincount(src, minlength=n).astype(float) + 1.0

    def point_sums(values):
        return np.bincount(src, weights=values, minlength=n)

    sums = np.stack([point_sums(delta[:, a]) for a in range(3)], axis=1)
    outer = np.empty((n, 3, 3))
    for a in range(3):
        for b in range(a, 3):
            outer[:, a, b] = point_sums(delta[:, a] * delta[:, b])
            outer[:, b, a] = outer[:, a, b]
    computable = counts >= min_neighbors
    if not computable.any():
        return normals
    mean = sums[computable] / counts[computable, None]
    cov = (outer[computable] / counts[computable, None, None]
           - mean[:, :, None] * mean[:, None, :])
    _, eigenvectors = np.linalg.eigh(cov)
    candidate = eigenvectors[:, :, 0]
    toward = viewpoint - points[computable]
    flip = np.einsum("ij,ij->i", candidate, toward) < 0.0
    candidate[flip] = -candidate[flip]
    normals[computable] = candidate
    return normals


def previous_spfh_pass(points, normals, valid, radius):
    """``_spfh_pass`` on (N, 3) rows with numpy's norm, einsum and cross,
    before the column kernels."""
    n = len(points)
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    pairs = pairs[valid[pairs[:, 0]] & valid[pairs[:, 1]]]
    m = len(pairs)
    dist = np.empty(m)
    keep = np.empty(2 * m, dtype=bool)
    histogram = np.zeros(n * FPFH_SIZE, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, m, registration._PAIR_CHUNK):
            forward = slice(start, min(start + registration._PAIR_CHUNK, m))
            at_p, at_q = points[pairs[forward, 0]], points[pairs[forward, 1]]
            normal_p, normal_q = (normals[pairs[forward, 0]],
                                  normals[pairs[forward, 1]])
            delta = at_q - at_p
            dist[forward] = length = np.linalg.norm(delta, axis=1)
            normals_cos = np.einsum("ij,ij->i", normal_p, normal_q)
            flat_bins = []
            for offset, source, d_hat, u, n_q in (
                    (0, pairs[forward, 0], delta / length[:, None],
                     normal_p, normal_q),
                    (m, pairs[forward, 1], (at_p - at_q) / length[:, None],
                     normal_q, normal_p)):
                rows = slice(forward.start + offset, forward.stop + offset)
                v = np.cross(d_hat, u)
                v_norm = np.linalg.norm(v, axis=1)
                keep[rows] = kept = (v_norm > 1e-12) & (length > 1e-12)
                v = v / v_norm[:, None]
                w = np.cross(u, v)
                alpha = np.einsum("ij,ij->i", v, n_q)
                phi = np.einsum("ij,ij->i", u, d_hat)
                theta = np.arctan2(np.einsum("ij,ij->i", w, n_q),
                                   normals_cos)
                first_bin = source[kept] * FPFH_SIZE
                flat_bins += [
                    first_bin + _bin_index(alpha[kept], -1.0, 1.0),
                    first_bin + (FPFH_BINS_PER_FEATURE
                                 + _bin_index(phi[kept], -1.0, 1.0)),
                    first_bin + (2 * FPFH_BINS_PER_FEATURE
                                 + _bin_index(theta[kept], -math.pi,
                                              math.pi))]
            block = np.bincount(np.concatenate(flat_bins))
            histogram[:len(block)] += block
    spfh = _normalize_blocks(histogram.reshape(n, FPFH_SIZE).astype(float))
    kept_forward, kept_reverse = keep[:m], keep[m:]
    src = np.concatenate([pairs[kept_forward, 0], pairs[kept_reverse, 1]])
    dst = np.concatenate([pairs[kept_forward, 1], pairs[kept_reverse, 0]])
    dist = np.concatenate([dist[kept_forward], dist[kept_reverse]])
    return spfh, src, dst, dist


def previous_consistent_triples(corr_src, corr_tgt, triples, cfg):
    """The RANSAC edge test on (T, 3, 3) triangles, before the column
    kernels."""
    tri_src, tri_tgt = corr_src[triples], corr_tgt[triples]
    consistent = np.ones(len(triples), dtype=bool)
    min_edge = 2.0 * cfg.ransac_inlier_threshold
    for a, b in [(0, 1), (1, 2), (0, 2)]:
        d_src = np.linalg.norm(tri_src[:, a] - tri_src[:, b], axis=1)
        d_tgt = np.linalg.norm(tri_tgt[:, a] - tri_tgt[:, b], axis=1)
        longer = np.maximum(d_src, d_tgt)
        shorter = np.minimum(d_src, d_tgt)
        consistent &= shorter >= min_edge
        ratio = np.divide(shorter, np.maximum(longer, 1e-12))
        consistent &= ratio > registration.EDGE_LENGTH_RATIO
    return consistent


@pytest.fixture(scope="module", params=[0, 101])
def crossroad_grids(request):
    """The 1 m grids of the crossroad reference scan and of node 0's pass
    rendered at seed 0 and 101 (the benchmark's seeds), with their
    viewpoints, the capture, the scene and the seed."""
    from mvlidar.pipeline import crossroad_hierarchy
    from mvlidar.scene import (
        calibration_capture,
        generate_synthetic_scene,
        standard_crossroad_spec,
    )
    seed = request.param
    scene = generate_synthetic_scene(standard_crossroad_spec(n_frames=1),
                                     seed)
    frames = calibration_capture(scene, 0, seed=seed)
    voxel = crossroad_hierarchy().levels[0].voxel_size
    grids = {"reference": (voxel_downsample(scene.reference_cloud, voxel),
                           scene.reference_viewpoint),
             "node": (voxel_downsample(accumulate_frames(frames, 10.0),
                                       voxel), (0.0, 0.0, 0.0))}
    return grids, frames, scene, seed


class TestColumnKernelsMatchRowKernels:
    """Normals, the FPFH pair pass and the RANSAC edge test on contiguous
    columns are bit-identical to their (N, 3) row versions on the crossroad
    grids, and so is the calibration they feed."""

    def test_normals_and_pair_pass(self, crossroad_grids):
        cfg = registration.HierarchyConfig()
        for cloud, viewpoint in crossroad_grids[0].values():
            normals = estimate_normals(cloud, cfg.normal_radius,
                                       viewpoint=viewpoint)
            assert np.array_equal(normals, previous_estimate_normals(
                cloud, cfg.normal_radius, viewpoint=viewpoint))
            valid = np.linalg.norm(normals, axis=1) > 0.5
            for new, old in zip(
                    registration._spfh_pass(cloud.points, normals, valid,
                                            cfg.fpfh_radius),
                    previous_spfh_pass(cloud.points, normals, valid,
                                       cfg.fpfh_radius)):
                assert np.array_equal(new, old)

    def test_ransac_edge_test(self, crossroad_grids):
        from mvlidar.pipeline import crossroad_hierarchy
        cfg = crossroad_hierarchy()
        grids, _, _, seed = crossroad_grids
        features = {}
        for name, (cloud, viewpoint) in grids.items():
            normals = estimate_normals(cloud, cfg.normal_radius,
                                       viewpoint=viewpoint)
            features[name] = compute_fpfh(cloud, normals, cfg.fpfh_radius)
        matches = mutual_feature_matches(features["node"],
                                         features["reference"])
        corr_src = grids["node"][0].points[matches[:, 0]]
        corr_tgt = grids["reference"][0].points[matches[:, 1]]
        triples = np.random.default_rng(seed).integers(
            0, len(matches), size=(cfg.ransac_iterations, 3))
        consistent = registration._consistent_triples(corr_src, corr_tgt,
                                                      triples, cfg)
        assert 0 < consistent.sum() < len(triples)
        assert np.array_equal(consistent, previous_consistent_triples(
            corr_src, corr_tgt, triples, cfg))

    def test_calibrate_node(self, crossroad_grids, monkeypatch):
        from mvlidar.pipeline import calibrate_node, crossroad_hierarchy
        _, frames, scene, seed = crossroad_grids

        def calibrate():
            return calibrate_node(frames, scene.reference_cloud,
                                  crossroad_hierarchy(), seed=seed,
                                  reference_viewpoint=scene.reference_viewpoint)
        new = calibrate()
        monkeypatch.setattr(registration, "estimate_normals",
                            previous_estimate_normals)
        monkeypatch.setattr(registration, "_spfh_pass", previous_spfh_pass)
        monkeypatch.setattr(registration, "_consistent_triples",
                            previous_consistent_triples)
        assert_same_registration(new, calibrate())


class TestMutualMatchesMatchPreviousKernel:
    """Back-querying only the picked targets finds the same matches."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), levels=st.integers(1, 4),
           sizes=st.tuples(st.integers(1, 80), st.integers(1, 80)),
           zero_share=st.sampled_from([0.0, 0.3, 1.0]))
    def test_tied_descriptors(self, seed, levels, sizes, zero_share):
        # few distinct values: equal descriptors and tied distances abound
        rng = np.random.default_rng(seed)
        source, target = (rng.integers(0, levels + 1, size=(size, FPFH_SIZE))
                          .astype(float) for size in sizes)
        target[: len(target) // 2] = source[rng.integers(0, len(source),
                                                         len(target) // 2)]
        for descriptors in (source, target):
            descriptors[rng.random(len(descriptors)) < zero_share] = 0.0
        assert np.array_equal(mutual_feature_matches(source, target),
                              previous_mutual_feature_matches(source, target))

    def test_all_zero_rows(self, rng):
        zeros = np.zeros((5, FPFH_SIZE))
        some = rng.random((5, FPFH_SIZE))
        for source, target in ((zeros, some), (some, zeros), (zeros, zeros)):
            matches = mutual_feature_matches(source, target)
            assert matches.shape == (0, 2)
            assert np.array_equal(matches, previous_mutual_feature_matches(
                source, target))

    def test_crossroad_node_against_reference(self, crossroad_features):
        source = compute_fpfh(*crossroad_features["node"])
        target = compute_fpfh(*crossroad_features["reference"])
        matches = mutual_feature_matches(source, target)
        assert len(matches) > 100
        assert np.array_equal(matches, previous_mutual_feature_matches(
            source, target))


class TestComputeFpfh:
    def test_deterministic(self, rng):
        points = structured_scene_points(rng, 3000)
        cloud = voxel_downsample(PointCloud(points), 1.0)
        normals = estimate_normals(cloud, radius=3.0)
        a = compute_fpfh(cloud, normals, radius=5.0)
        b = compute_fpfh(cloud, normals, radius=5.0)
        np.testing.assert_array_equal(a, b)

    def test_blocks_sum_to_100_or_zero(self, rng):
        points = structured_scene_points(rng, 3000)
        cloud = voxel_downsample(PointCloud(points), 1.0)
        normals = estimate_normals(cloud, radius=3.0)
        fpfh = compute_fpfh(cloud, normals, radius=5.0)
        assert np.all(fpfh >= 0.0)
        for block in range(3):
            sums = fpfh[:, block * 11:(block + 1) * 11].sum(axis=1)
            assert np.all((np.abs(sums - 100.0) < 1e-6) | (sums == 0.0))

    def test_rigid_invariance(self, rng):
        points = structured_scene_points(rng, 4000)
        cloud = voxel_downsample(PointCloud(points), 1.0)
        transform = random_transform(rng, max_translation=20.0)
        moved = PointCloud(transform.apply(cloud.points))

        # viewpoint above the ground plane: orientation flips must agree
        viewpoint = np.array([0.0, 0.0, 2.0])
        normals = estimate_normals(cloud, radius=3.0, viewpoint=viewpoint)
        moved_normals = estimate_normals(moved, radius=3.0,
                                         viewpoint=transform.apply(viewpoint))
        fpfh = compute_fpfh(cloud, normals, radius=5.0)
        moved_fpfh = compute_fpfh(moved, moved_normals, radius=5.0)
        np.testing.assert_allclose(moved_fpfh, fpfh, atol=1e-6)

    def test_isolated_point_zero_descriptor(self):
        cloud = PointCloud([[0.0, 0.0, 0.0], [50.0, 0.0, 0.0],
                            [0.0, 50.0, 0.0]])
        normals = estimate_normals(cloud, radius=1.0)
        fpfh = compute_fpfh(cloud, normals, radius=1.0)
        np.testing.assert_array_equal(fpfh, np.zeros((3, 33)))


class TestSolveRigidArun:
    def test_identity_for_equal_sets(self, rng):
        pts = rng.normal(size=(20, 3))
        t = solve_rigid_arun(pts, pts)
        np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(t.translation, np.zeros(3), atol=1e-12)

    def test_pure_translation(self, rng):
        pts = rng.normal(size=(10, 3))
        t = solve_rigid_arun(pts, pts + (1.0, 2.0, 3.0))
        np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(t.translation, [1.0, 2.0, 3.0], atol=1e-12)

    def test_recovers_random_transform(self, rng):
        for _ in range(20):
            truth = random_transform(rng, max_translation=15.0)
            source = rng.normal(scale=5.0, size=(100, 3))
            recovered = solve_rigid_arun(source, truth.apply(source))
            assert np.abs(recovered.rotation - truth.rotation).max() < 1e-9
            assert np.abs(recovered.translation - truth.translation).max() < 1e-9

    def test_too_few_pairs(self):
        with pytest.raises(DegenerateConfigurationError):
            solve_rigid_arun([[0, 0, 0], [1, 0, 0]], [[0, 0, 0], [1, 0, 0]])

    def test_collinear_configuration(self):
        line = [[float(i), 0.0, 0.0] for i in range(5)]
        with pytest.raises(DegenerateConfigurationError):
            solve_rigid_arun(line, line)

    def test_reflective_optimum_yields_proper_rotation(self, rng):
        # planar source and its mirror image: the unconstrained optimum is a
        # reflection; the solver must still return det +1
        source = np.column_stack([rng.normal(size=(30, 2)), np.zeros(30)])
        target = source.copy()
        target[:, 0] *= -1.0
        t = solve_rigid_arun(source, target)
        assert np.linalg.det(t.rotation) == pytest.approx(1.0, abs=1e-9)

    def test_noisy_fit_beats_perturbed_pose(self, rng):
        truth = random_transform(rng)
        source = rng.normal(scale=4.0, size=(200, 3))
        target = truth.apply(source) + rng.normal(scale=0.01, size=(200, 3))
        fit = solve_rigid_arun(source, target)

        def cost(t):
            return np.sum((t.apply(source) - target) ** 2)

        perturbed = RigidTransform(truth.rotation,
                                   truth.translation + (0.05, 0.0, 0.0))
        assert cost(fit) <= cost(truth) <= cost(perturbed)


def make_scene_pair(rng, n=9000, noise=0.0, max_translation=15.0):
    world = structured_scene_points(rng, n)
    truth = random_transform(rng, max_translation=max_translation)
    source = truth.inverse().apply(world)
    if noise:
        world = world + rng.normal(scale=noise, size=world.shape)
        source = source + rng.normal(scale=noise, size=source.shape)
    return PointCloud(source), PointCloud(world), truth


def prepare_features(source, target, cfg):
    src = voxel_downsample(source, cfg.levels[0].voxel_size)
    tgt = voxel_downsample(target, cfg.levels[0].voxel_size)
    src_normals = estimate_normals(src, cfg.normal_radius)
    tgt_normals = estimate_normals(tgt, cfg.normal_radius)
    return (src, tgt, compute_fpfh(src, src_normals, cfg.fpfh_radius),
            compute_fpfh(tgt, tgt_normals, cfg.fpfh_radius))


class TestCoarseAlignRansac:
    def test_exact_copy_aligns_to_identity(self, rng):
        cloud = PointCloud(structured_scene_points(rng, 6000))
        src, tgt, f_src, f_tgt = prepare_features(cloud, cloud, FAST_CFG)
        result = coarse_align_ransac(src, tgt, f_src, f_tgt, FAST_CFG, seed=1)
        assert result.fitness >= 0.99
        rot_err, tra_err = transform_distance(result.transform,
                                              RigidTransform.identity())
        assert rot_err < 0.1 and tra_err < 1e-3

    def test_recovers_random_pose_coarsely(self, rng):
        source, target, truth = make_scene_pair(rng)
        src, tgt, f_src, f_tgt = prepare_features(source, target, FAST_CFG)
        result = coarse_align_ransac(src, tgt, f_src, f_tgt, FAST_CFG, seed=2)
        rot_err, tra_err = transform_distance(result.transform, truth)
        assert rot_err < 5.0 and tra_err < 0.5

    def test_disjoint_blobs_fail(self, rng):
        a = PointCloud(rng.normal(size=(500, 3)))
        b = PointCloud(rng.normal(size=(500, 3)) + 100.0)
        src, tgt, f_src, f_tgt = prepare_features(a, b, FAST_CFG)
        try:
            result = coarse_align_ransac(src, tgt, f_src, f_tgt, FAST_CFG, seed=3)
            assert result.fitness < 0.1
        except NoConsensusError:
            pass

    def test_deterministic_given_seed(self, rng):
        source, target, _ = make_scene_pair(rng, n=5000)
        src, tgt, f_src, f_tgt = prepare_features(source, target, FAST_CFG)
        a = coarse_align_ransac(src, tgt, f_src, f_tgt, FAST_CFG, seed=7)
        b = coarse_align_ransac(src, tgt, f_src, f_tgt, FAST_CFG, seed=7)
        np.testing.assert_array_equal(a.transform.rotation, b.transform.rotation)
        np.testing.assert_array_equal(a.transform.translation,
                                      b.transform.translation)

    def test_mutual_matches_are_bijective(self, rng):
        source, target, _ = make_scene_pair(rng, n=5000)
        _, _, f_src, f_tgt = prepare_features(source, target, FAST_CFG)
        matches = mutual_feature_matches(f_src, f_tgt)
        assert len(matches) >= 3
        assert len(np.unique(matches[:, 0])) == len(matches)
        assert len(np.unique(matches[:, 1])) == len(matches)


class TestIcpRefine:
    def test_ground_truth_init_is_fixed_point(self, rng):
        source, target, truth = make_scene_pair(rng, n=5000)
        src = voxel_downsample(source, 0.5)
        tgt = voxel_downsample(target, 0.5)
        # same voxel grid after exact transform is not guaranteed; use the
        # noise-free cloud directly
        result = icp_refine(source, target, truth, max_dist=1.0)
        assert result.iterations_used <= 2
        assert result.inlier_rmse < 1e-9

    def test_recovers_from_perturbed_init(self, rng):
        source, target, truth = make_scene_pair(rng, n=9000)
        offset = RigidTransform.from_yaw(math.radians(5.0), (0.3, 0.0, 0.0))
        init = RigidTransform(truth.rotation @ offset.rotation,
                              truth.rotation @ offset.translation
                              + truth.translation)
        src = voxel_downsample(source, 0.3)
        tgt = voxel_downsample(target, 0.3)
        result = icp_refine(src, tgt, init, max_dist=1.0, max_iter=60)
        rot_err, tra_err = transform_distance(result.transform, truth)
        assert rot_err < 0.5 and tra_err < 0.05

    def test_no_correspondences_raises(self, rng):
        source = PointCloud(rng.normal(size=(100, 3)))
        target = PointCloud(rng.normal(size=(100, 3)) + 1000.0)
        with pytest.raises(NoCorrespondencesError):
            icp_refine(source, target, RigidTransform.identity(), max_dist=0.5)

    def test_rmse_history_non_increasing(self, rng):
        for trial in range(5):
            source, target, truth = make_scene_pair(rng, n=5000, noise=0.02)
            offset = RigidTransform.from_yaw(math.radians(3.0), (0.2, 0.1, 0.0))
            init = RigidTransform(truth.rotation @ offset.rotation,
                                  truth.rotation @ offset.translation
                                  + truth.translation)
            result = icp_refine(voxel_downsample(source, 0.4),
                                voxel_downsample(target, 0.4), init,
                                max_dist=1.0, max_iter=50)
            history = np.array(result.rmse_history)
            assert np.all(np.diff(history) <= 1e-15)


def previous_icp_refine(source, target, init, max_dist, max_iter=50,
                        eps=1e-6, trace=None):
    """``icp_refine`` as it was before it reused neighbors: every source
    point is queried on every iteration. Returns the result and why the
    loop stopped; ``trace``, if given, gets each iteration's matched mask."""
    target_tree = cKDTree(target.points)
    pose = init
    rmse_history: list = []
    iterations = 0
    stop = "max_iter"
    for iterations in range(1, max_iter + 1):
        moved = source.points @ pose.rotation.T + pose.translation
        dist, idx = target_tree.query(moved, distance_upper_bound=max_dist)
        matched = np.isfinite(dist)
        if trace is not None:
            trace.append(matched)
        if not matched.any():
            if iterations == 1:
                raise NoCorrespondencesError(
                    "no point pairs within max_dist at the initial pose")
            stop = "lost"
            break
        try:
            candidate = solve_rigid_arun(source.points[matched],
                                         target.points[idx[matched]])
        except DegenerateConfigurationError:
            stop = "degenerate"
            break
        moved = source.points[matched] @ candidate.rotation.T + candidate.translation
        rmse = float(np.sqrt(np.mean(
            np.sum((moved - target.points[idx[matched]]) ** 2, axis=1))))
        if rmse_history and rmse > rmse_history[-1]:
            stop = "worse"
            break
        pose = candidate
        previous = rmse_history[-1] if rmse_history else None
        rmse_history.append(rmse)
        if previous is not None and abs(previous - rmse) <= eps * max(rmse, 1e-12):
            stop = "converged"
            break
    fitness, rmse = registration._match_fitness(
        source.points, target_tree, pose.rotation, pose.translation, max_dist)
    return RegistrationResult(transform=pose, fitness=fitness,
                              inlier_rmse=rmse, iterations_used=iterations,
                              rmse_history=tuple(rmse_history)), stop


def icp_pair(seed, kind, n=60, offset=0.0, max_dist=1.0):
    """(source, target, init) for ICP, both clouds shifted by ``offset``.

    ``lattice``: eighth-metre coordinates, a third of the targets
    duplicated and sources between lattice points, so many nearest
    distances tie exactly. ``cloud``: a yawed, shifted copy of a random
    cloud with residuals spread up to 2 max_dist, so points cross max_dist
    both ways as the pose moves. ``line``: the same on the x axis, so the
    rigid fit is degenerate.
    """
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        grid = rng.integers(-6, 7, size=(n, 3)) / 4.0
        target = np.concatenate([grid, grid[: n // 3]])
        source = (grid[rng.integers(0, n, n)]
                  + rng.integers(-1, 2, size=(n, 3)) / 8.0)
    else:
        target = rng.normal(scale=2.0, size=(n, 3))
        truth = RigidTransform.from_yaw(rng.uniform(-0.2, 0.2),
                                        rng.uniform(-0.3, 0.3, 3))
        jitter = rng.normal(size=(n, 3))
        jitter *= (rng.uniform(0.0, 2.0 * max_dist, n)
                   / np.linalg.norm(jitter, axis=1))[:, None]
        jitter[rng.uniform(size=n) < 0.7] *= 0.05
        source = truth.apply(target) + jitter
        if kind == "line":
            target[:, 1:] = source[:, 1:] = 0.0
    return (PointCloud(source + offset), PointCloud(target + offset),
            RigidTransform.identity())


def assert_icp_matches_full_queries(source, target, init, max_dist, max_iter,
                                    trace=None):
    """``icp_refine`` equals the full-query oracle bit for bit, raises
    included; returns the oracle's stop reason."""
    try:
        want, stop = previous_icp_refine(source, target, init, max_dist,
                                         max_iter, trace=trace)
    except NoCorrespondencesError:
        with pytest.raises(NoCorrespondencesError):
            icp_refine(source, target, init, max_dist, max_iter)
        return "no correspondences"
    assert_same_registration(icp_refine(source, target, init, max_dist,
                                        max_iter), want)
    return stop


class TestIcpReusesNeighborsExactly:
    """Re-querying only the points that moved past their safe radius gives
    the results of querying every point on every iteration, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["lattice", "cloud", "line"]),
           n=st.integers(1, 80), offset=st.sampled_from([0.0, 1e6, 1e9]),
           max_dist=st.sampled_from([0.3, 1.0]),
           max_iter=st.sampled_from([1, 3, 50]))
    def test_property(self, seed, kind, n, offset, max_dist, max_iter):
        assert_icp_matches_full_queries(
            *icp_pair(seed, kind, n, offset, max_dist), max_dist, max_iter)

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e9])
    @pytest.mark.parametrize("case, kind, seed, max_dist, max_iter", [
        ("converged", "lattice", 0, 1.0, 50),
        ("converged", "cloud", 0, 1.0, 50),
        ("max_iter", "cloud", 0, 1.0, 1),
        ("max_iter", "cloud", 0, 1.0, 3),
        ("worse", "cloud", 0, 0.3, 50),
        ("degenerate", "line", 0, 1.0, 50),
    ])
    def test_each_way_out(self, case, kind, seed, max_dist, max_iter, offset):
        pair = icp_pair(seed, kind, offset=offset, max_dist=max_dist)
        assert assert_icp_matches_full_queries(*pair, max_dist,
                                               max_iter) == case

    def test_exact_ties(self):
        source, target, init = icp_pair(0, "lattice")
        dist, _ = cKDTree(target.points).query(source.points, k=2,
                                               distance_upper_bound=1.0)
        assert np.sum(np.isfinite(dist[:, 0]) & (dist[:, 0] == dist[:, 1])) \
            > 10
        assert_icp_matches_full_queries(source, target, init, 1.0, 50)

    def test_points_cross_max_dist_both_ways(self):
        trace = []
        assert_icp_matches_full_queries(*icp_pair(0, "cloud", n=200), 1.0,
                                        50, trace)
        steps = list(zip(trace, trace[1:]))
        assert any(np.any(a & ~b) for a, b in steps)
        assert any(np.any(~a & b) for a, b in steps)

    def test_no_correspondences(self):
        source, target, init = icp_pair(0, "cloud")
        far = PointCloud(target.points + 1000.0)
        assert assert_icp_matches_full_queries(source, far, init, 1.0,
                                               50) == "no correspondences"

    def test_later_iterations_query_fewer_rows(self, rng, monkeypatch):
        # a guard on the work: a silent fallback to full queries fails it
        source, target, truth = make_scene_pair(rng, n=9000)
        offset = RigidTransform.from_yaw(math.radians(5.0), (0.3, 0.0, 0.0))
        init = RigidTransform(truth.rotation @ offset.rotation,
                              truth.rotation @ offset.translation
                              + truth.translation)
        src = voxel_downsample(source, 0.3)
        tgt = voxel_downsample(target, 0.3)
        queried = []

        class CountingTree(cKDTree):
            def query(self, x, k=1, **kwargs):
                queried.append((k, len(x)))
                return super().query(x, k=k, **kwargs)
        monkeypatch.setattr(registration, "cKDTree", CountingTree)
        result = icp_refine(src, tgt, init, max_dist=1.0, max_iter=60)
        n = len(src)
        iteration_rows = [rows for k, rows in queried if k == 2]
        assert result.iterations_used >= 5
        assert iteration_rows[0] == n
        # the last query is the fitness pass over every point
        assert queried[-1] == (1, n)
        assert all(rows < n for rows in iteration_rows[1:])
        assert sum(iteration_rows[1:]) < 0.5 * n * (result.iterations_used
                                                     - 1)


@pytest.mark.parametrize("seed", [0, 101])
def test_calibrate_node_matches_full_query_icp(seed, crossroad_scene,
                                               monkeypatch):
    """Crossroad node 0 calibrates to the same bytes as with ICP querying
    every point on every iteration."""
    from mvlidar.pipeline import calibrate_node, crossroad_hierarchy
    from mvlidar.scene import (calibration_capture, generate_synthetic_scene,
                               standard_crossroad_spec)
    scene = (crossroad_scene if seed == 0 else generate_synthetic_scene(
        standard_crossroad_spec(n_frames=1), seed))
    frames = calibration_capture(scene, 0, seed=seed)

    def calibrate():
        return calibrate_node(frames, scene.reference_cloud,
                              crossroad_hierarchy(), seed=seed,
                              reference_viewpoint=scene.reference_viewpoint)
    new = calibrate()
    stops = []

    def previous(*args):
        result, stop = previous_icp_refine(*args)
        stops.append(stop)
        return result
    monkeypatch.setattr(registration, "icp_refine", previous)
    assert_same_registration(new, calibrate())
    assert len(stops) == len(crossroad_hierarchy().levels)


class TestHierarchicalRegister:
    def test_identical_clouds(self, rng):
        cloud = PointCloud(structured_scene_points(rng, 8000))
        result = hierarchical_register(cloud, cloud, FAST_CFG, seed=5,
                                       target_viewpoint=(0.0, 0.0, 0.0))
        assert result.fitness >= 0.99
        rot_err, tra_err = transform_distance(result.transform,
                                              RigidTransform.identity())
        assert rot_err < 0.05 and tra_err < 0.005

    def test_recovers_pose_with_noise(self, rng):
        source, target, truth = make_scene_pair(rng, n=20_000, noise=0.02)
        result = hierarchical_register(source, target, FAST_CFG, seed=6,
                                       target_viewpoint=(0.0, 0.0, 0.0))
        rot_err, tra_err = transform_distance(result.transform, truth)
        assert rot_err < 1.0 and tra_err < 0.05

    def test_unrelated_scenes_flagged(self, rng):
        a = PointCloud(structured_scene_points(rng, 6000))
        b = PointCloud(rng.uniform(-20, 20, size=(6000, 3)))
        try:
            result = hierarchical_register(a, b, FAST_CFG, seed=8,
                                           target_viewpoint=(0.0, 0.0, 0.0))
            assert result.fitness < 0.2
        except (NoConsensusError, NoCorrespondencesError):
            pass

    def test_rejects_bad_config(self):
        with pytest.raises(Exception):
            HierarchyConfig(levels=(HierarchyLevel(0.5, 1.0, 10),
                                    HierarchyLevel(1.0, 2.0, 10)))


def registration_outcome(source, target, cfg, seed, viewpoint):
    """``hierarchical_register``'s result, or the type and message of what
    it raised."""
    try:
        return hierarchical_register(source, target, cfg, seed,
                                     target_viewpoint=viewpoint)
    except (NoConsensusError, NoCorrespondencesError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(a, b):
    if isinstance(a, RegistrationResult):
        assert isinstance(b, RegistrationResult), b
        assert_same_registration(a, b)
    else:
        assert a == b


class TestPreparedTarget:
    """A target prepared once gives each source what the plain cloud gives,
    bit for bit, and refuses a schedule or viewpoint it was not made with."""

    def test_crossroad_nodes(self, crossroad_grids):
        from mvlidar.scene import calibration_capture
        _, _, scene, seed = crossroad_grids
        cfg = HierarchyConfig()
        viewpoint = scene.reference_viewpoint
        reference = prepare_cloud(scene.reference_cloud, cfg, viewpoint)
        for node in sorted(scene.node_frames):
            merged = accumulate_frames(
                calibration_capture(scene, node, seed=seed), 10.0)
            assert_same_outcome(
                registration_outcome(merged, reference, cfg, seed + node,
                                     viewpoint),
                registration_outcome(merged, scene.reference_cloud, cfg,
                                     seed + node, viewpoint))

    @pytest.mark.parametrize("seed", [0, 16, 82, 86])
    def test_criterion_1_scenes(self, seed):
        """Seed 0 is recovered; 16 and 82 end at a wrong pose, 86 at a
        fitness calibration refuses."""
        from test_acceptance import CALIBRATION_HIERARCHY, \
            calibration_scene_spec
        from mvlidar.scene import calibration_capture, \
            generate_synthetic_scene
        scene = generate_synthetic_scene(calibration_scene_spec(seed),
                                         seed=seed)
        merged = accumulate_frames(calibration_capture(
            scene, 0, seed=seed, max_points=30_000), 10.0)
        cfg, viewpoint = CALIBRATION_HIERARCHY, scene.reference_viewpoint
        assert_same_outcome(
            registration_outcome(
                merged, prepare_cloud(scene.reference_cloud, cfg, viewpoint),
                cfg, seed, viewpoint),
            registration_outcome(merged, scene.reference_cloud, cfg, seed,
                                 viewpoint))

    @pytest.mark.parametrize("cfg, viewpoint, message", [
        (replace(FAST_CFG, ransac_iterations=2000), (0.0, 0.0, 2.0),
         "target prepared with another HierarchyConfig"),
        (FAST_CFG, np.array([0.0, 0.0, 3.0]),
         "target prepared for the viewpoint (0.0, 0.0, 2.0), not "
         "(0.0, 0.0, 3.0)")])
    def test_other_schedule_or_viewpoint_refused(self, rng, cfg, viewpoint,
                                                 message):
        cloud = PointCloud(structured_scene_points(rng, 4000))
        prepared = prepare_cloud(cloud, FAST_CFG, (0, 0, 2))
        with pytest.raises(ValueError) as refused:
            hierarchical_register(cloud, prepared, cfg,
                                  target_viewpoint=viewpoint)
        assert str(refused.value) == message

    def test_same_viewpoint_in_another_type_accepted(self, rng):
        cloud = PointCloud(structured_scene_points(rng, 4000))
        prepared = prepare_cloud(cloud, FAST_CFG, (0, 0, 2))
        assert_same_registration(
            hierarchical_register(cloud, prepared, FAST_CFG, seed=5,
                                  target_viewpoint=np.array([0.0, 0.0, 2.0])),
            hierarchical_register(cloud, cloud, FAST_CFG, seed=5,
                                  target_viewpoint=(0.0, 0.0, 2.0)))

    def test_cloud_registration_cannot_use_refused(self):
        with pytest.raises(EmptyInputError, match="cloud holds no points"):
            prepare_cloud(PointCloud.empty(), FAST_CFG, (0.0, 0.0, 0.0))
        far = PointCloud([[0.0, 0.0, 0.0], [0.0, -1e30, 0.0]])
        with pytest.raises(FormatError) as refused:
            prepare_cloud(far, FAST_CFG, (0.0, 0.0, 0.0))
        assert str(refused.value) == \
            "cloud holds a coordinate that the 1.5 m grid cannot index"


class TestAccumulateFrames:
    def frame(self, rng, t_ns, n=1000):
        return PointCloud(rng.normal(size=(n, 3)), timestamp_ns=t_ns)

    def test_single_frame(self, rng):
        f = self.frame(rng, 0)
        out = accumulate_frames([f], 10.0)
        np.testing.assert_array_equal(out.points, f.points)

    def test_hundred_frames_concatenate(self, rng):
        frames = [self.frame(rng, int(k * 1e8)) for k in range(100)]
        out = accumulate_frames(frames, 10.0)
        assert len(out) == 100_000

    def test_frames_beyond_window_excluded(self, rng):
        frames = [self.frame(rng, int(k * 1e9)) for k in range(15)]
        out = accumulate_frames(frames, 9.5)
        assert len(out) == 10_000

    def test_attributes_of_every_frame_kept(self, rng):
        frames = [PointCloud(rng.normal(size=(4, 3)), timestamp_ns=t,
                             intensity=[t] * 4, source_ids=[2] * 4,
                             source_node=2) for t in (0, 1)]
        out = accumulate_frames(frames, 10.0)
        np.testing.assert_array_equal(out.intensity, [0] * 4 + [1] * 4)
        np.testing.assert_array_equal(out.source_ids, [2] * 8)
        assert out.source_node == 2

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            accumulate_frames([], 1.0)

    @pytest.mark.parametrize("duration", [1e300, math.inf])
    def test_window_beyond_integer_nanoseconds_keeps_all(self, rng,
                                                         duration):
        frames = [self.frame(rng, 10**18 + k, n=10) for k in range(3)]
        assert len(accumulate_frames(frames, duration)) == 30

    def test_zero_window_keeps_the_first_stamp(self, rng):
        frames = [self.frame(rng, t, n=10) for t in (5, 5, 6)]
        assert len(accumulate_frames(frames, 0.0)) == 20

    @pytest.mark.parametrize("duration", [-1.0, -1e-10, math.nan])
    def test_negative_or_nan_window_rejected(self, rng, duration):
        with pytest.raises(ValueError, match="duration_s"):
            accumulate_frames([self.frame(rng, 0)], duration)


class TestCalibrationQuality:
    def test_exact_transform_zero_error(self, rng):
        truth = random_transform(rng)
        world = rng.uniform(-10, 10, size=(20, 3))
        pairs = [CornerPair(annotated=truth.inverse().apply(w), reference=w)
                 for w in world]
        assert evaluate_point_projection_error(pairs, truth) < 1e-12

    def test_constant_offset(self, rng):
        truth = random_transform(rng)
        world = rng.uniform(-10, 10, size=(20, 3))
        offsets = rng.normal(size=(20, 3))
        offsets = 0.05 * offsets / np.linalg.norm(offsets, axis=1, keepdims=True)
        pairs = [CornerPair(annotated=truth.inverse().apply(w),
                            reference=w + o) for w, o in zip(world, offsets)]
        assert evaluate_point_projection_error(pairs, truth) == \
            pytest.approx(0.05, abs=1e-12)

    def test_noisy_corners_match_expected_norm(self, rng):
        sigma = 0.02
        # Monte-Carlo expectation of ||N(0, sigma^2 I_3)||
        expected = float(np.mean(np.linalg.norm(
            rng.normal(scale=sigma, size=(200_000, 3)), axis=1)))
        truth = random_transform(rng)
        world = rng.uniform(-25, 25, size=(20, 3))
        pairs = [CornerPair(annotated=truth.inverse().apply(w),
                            reference=w + rng.normal(scale=sigma, size=3))
                 for w in world]
        measured = evaluate_point_projection_error(pairs, truth)
        assert measured == pytest.approx(expected, rel=0.30)

    def test_ground_truth_beats_perturbation(self, rng):
        truth = random_transform(rng)
        world = rng.uniform(-10, 10, size=(20, 3))
        pairs = [CornerPair(annotated=truth.inverse().apply(w), reference=w)
                 for w in world]
        perturbed = RigidTransform(truth.rotation,
                                   truth.translation + (0.5, 0.0, 0.0))
        assert evaluate_point_projection_error(pairs, truth) <= \
            evaluate_point_projection_error(pairs, perturbed)

    def test_empty_pairs_rejected(self, rng):
        with pytest.raises(EmptyInputError):
            evaluate_point_projection_error([], random_transform(rng))
