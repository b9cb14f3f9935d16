"""Automatic spatial calibration by multi-scale point-cloud registration.

The pipeline a fresh outdoor deployment needs, with no pose prior:

1. voxel-downsample both clouds at the coarsest scale,
2. estimate normals and 33-bin fast point feature histograms (FPFH),
3. coarse global alignment by RANSAC over mutual-nearest feature
   correspondences, each hypothesis solved in closed form from three pairs
   (SVD least-squares rigid fit),
4. iterative closest point refinement through progressively finer scales,
   warm-started from the previous level.

Every stochastic step takes an explicit seed and is deterministic given it;
RANSAC ties break toward the lowest trial index. The module also provides
the calibration-quality evaluators: mean point-to-point projection error
over annotated corner pairs and mean pixel reprojection error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    ConfigError,
    DegenerateConfigurationError,
    EmptyInputError,
    NoConsensusError,
    NoCorrespondencesError,
)
from .geometry import (
    PointCloud,
    RigidTransform,
    project_pinhole,
    rotation_angle_deg,
    voxel_downsample,
)

FPFH_BINS_PER_FEATURE = 11
FPFH_SIZE = 3 * FPFH_BINS_PER_FEATURE

_RANK_TOL = 1e-12
_SCORE_CHUNK = 512
# pairs per block of the FPFH pair pass, which bounds its (block, 3) arrays
_PAIR_CHUNK = 16384


@dataclass(frozen=True)
class RegistrationResult:
    transform: RigidTransform
    fitness: float              # fraction of source points matched in target
    inlier_rmse: float          # RMSE of those matches, meters
    iterations_used: int
    rmse_history: tuple = ()    # per-iteration inlier RMSE (ICP only)

    def __post_init__(self):
        if not 0.0 <= self.fitness <= 1.0 or self.inlier_rmse < 0.0:
            raise ValueError("invalid registration result")


@dataclass(frozen=True)
class HierarchyLevel:
    voxel_size: float
    max_correspondence_distance: float
    max_iterations: int


@dataclass(frozen=True)
class HierarchyConfig:
    """Scale schedule and search parameters of the registration pipeline.

    Defaults target outdoor scenes tens of meters across: three levels from
    2 m down to 0.1 m voxels, feature radius 5x and normal radius 2.5x the
    coarsest voxel, and a RANSAC inlier threshold of 1.5x the coarsest
    voxel. All of it is configuration, not a claim about optimality.
    """

    levels: tuple = (HierarchyLevel(2.0, 4.0, 50),
                     HierarchyLevel(0.5, 1.0, 50),
                     HierarchyLevel(0.1, 0.3, 100))
    fpfh_radius: float = 10.0
    normal_radius: float = 5.0
    ransac_iterations: int = 100_000
    ransac_inlier_threshold: float = 3.0
    convergence_epsilon: float = 1e-6
    min_normal_neighbors: int = 5
    edge_length_ratio: float = 0.9
    arbitration_hypotheses: int = 32

    def __post_init__(self):
        levels = tuple(level if isinstance(level, HierarchyLevel)
                       else HierarchyLevel(*level) for level in self.levels)
        if not levels:
            raise ConfigError("need at least one hierarchy level")
        voxels = [level.voxel_size for level in levels]
        if any(b >= a for a, b in zip(voxels, voxels[1:])):
            raise ConfigError("voxel sizes must decrease strictly")
        if min(voxels) <= 0.0:
            raise ConfigError("voxel sizes must be positive")
        if min(self.fpfh_radius, self.normal_radius,
               self.ransac_inlier_threshold) <= 0.0:
            raise ConfigError("radii and thresholds must be positive")
        object.__setattr__(self, "levels", levels)


@dataclass(frozen=True)
class CornerPair:
    """A corner annotated in the node frame and its world-frame reference."""

    annotated: np.ndarray
    reference: np.ndarray

    def __post_init__(self):
        annotated = np.asarray(self.annotated, dtype=float).reshape(3)
        reference = np.asarray(self.reference, dtype=float).reshape(3)
        if not (np.all(np.isfinite(annotated)) and np.all(np.isfinite(reference))):
            raise ValueError("corner coordinates must be finite")
        object.__setattr__(self, "annotated", annotated)
        object.__setattr__(self, "reference", reference)


# ---------------------------------------------------------------------------
# normals and descriptors
# ---------------------------------------------------------------------------

def estimate_normals(cloud: PointCloud, radius: float, min_neighbors: int = 5,
                     viewpoint=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Per-point unit normals from the neighborhood covariance.

    The normal is the eigenvector of the smallest eigenvalue, flipped to
    point toward the viewpoint (the sensor origin by default). Points with
    fewer than min_neighbors neighbors (self included) get a zero normal
    and are skipped by the descriptor stage.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    points = cloud.points
    n = len(points)
    normals = np.zeros((n, 3))
    if n == 0:
        return normals
    viewpoint = np.asarray(viewpoint, dtype=float)
    tree = cKDTree(points)
    pairs = tree.query_pairs(radius, output_type="ndarray")

    # accumulate neighborhood moments about each point (self included),
    # then diagonalize all covariances at once
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    delta = points[dst] - points[src]
    counts = np.bincount(src, minlength=n).astype(float) + 1.0

    def point_sums(values):
        # bincount adds each point's pairs in pair order
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


def _bin_index(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    raw = np.floor((values - lo) / (hi - lo) * FPFH_BINS_PER_FEATURE)
    return np.clip(raw, 0, FPFH_BINS_PER_FEATURE - 1).astype(np.int64)


def _normalize_blocks(histogram: np.ndarray) -> np.ndarray:
    out = histogram.copy()
    for block in range(3):
        sl = slice(block * FPFH_BINS_PER_FEATURE,
                   (block + 1) * FPFH_BINS_PER_FEATURE)
        sums = out[:, sl].sum(axis=1, keepdims=True)
        nonzero = sums[:, 0] > 0.0
        out[nonzero, sl] *= 100.0 / sums[nonzero]
    return out


def compute_fpfh(cloud: PointCloud, normals: np.ndarray,
                 radius: float) -> np.ndarray:
    """(N, 33) fast point feature histograms.

    Per neighbor pair the three Darboux-frame angles (alpha, phi, theta)
    are histogrammed into 11 bins each; the final descriptor is the point's
    own histogram plus the distance-weighted mean of its neighbors',
    renormalized so each 11-bin block sums to 100. Points without a valid
    normal or without neighbors keep an all-zero descriptor.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    points = cloud.points
    n = len(points)
    spfh = np.zeros((n, FPFH_SIZE))
    if n == 0:
        return spfh
    valid = np.linalg.norm(normals, axis=1) > 0.5

    tree = cKDTree(points)
    pairs = tree.query_pairs(radius, output_type="ndarray")
    pairs = pairs[valid[pairs[:, 0]] & valid[pairs[:, 1]]]
    m = len(pairs)
    if m == 0:
        return spfh
    # each pair (p, q) gives the directed pairs p->q (row i) and q->p (row
    # m + i); the histograms are summed in that order
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    dist = np.empty(m)
    keep = np.empty(2 * m, dtype=bool)
    angles = np.empty((3, 2 * m))
    # pairs closer than 1e-12 or with a normal along their direction are
    # computed too (zero divisions give NaN) and then dropped by keep
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, m, _PAIR_CHUNK):
            forward = slice(start, min(start + _PAIR_CHUNK, m))
            at_p, at_q = points[pairs[forward, 0]], points[pairs[forward, 1]]
            normal_p, normal_q = (normals[pairs[forward, 0]],
                                  normals[pairs[forward, 1]])
            # the reverse displacement is subtracted, not negated, so even
            # the signs of its zero coordinates are those of a direction
            # computed on its own; u . n_q is the same in both directions
            delta = at_q - at_p
            dist[forward] = length = np.linalg.norm(delta, axis=1)
            normals_cos = np.einsum("ij,ij->i", normal_p, normal_q)
            for offset, d_hat, u, n_q in (
                    (0, delta / length[:, None], normal_p, normal_q),
                    (m, (at_p - at_q) / length[:, None], normal_q, normal_p)):
                rows = slice(forward.start + offset, forward.stop + offset)
                v = np.cross(d_hat, u)
                v_norm = np.linalg.norm(v, axis=1)
                keep[rows] = v_norm > 1e-12
                v = v / v_norm[:, None]
                w = np.cross(u, v)
                angles[0, rows] = np.einsum("ij,ij->i", v, n_q)
                angles[1, rows] = np.einsum("ij,ij->i", u, d_hat)
                angles[2, rows] = np.arctan2(np.einsum("ij,ij->i", w, n_q),
                                             normals_cos)
    keep &= np.tile(dist > 1e-12, 2)
    src, dst, dist = src[keep], dst[keep], np.tile(dist, 2)[keep]
    alpha, phi, theta = angles[:, keep]

    bins = np.concatenate([
        _bin_index(alpha, -1.0, 1.0),
        FPFH_BINS_PER_FEATURE + _bin_index(phi, -1.0, 1.0),
        2 * FPFH_BINS_PER_FEATURE + _bin_index(theta, -math.pi, math.pi)])
    flat_bins = np.tile(src * FPFH_SIZE, 3) + bins
    spfh = np.bincount(flat_bins, minlength=n * FPFH_SIZE)
    spfh = _normalize_blocks(spfh.reshape(n, FPFH_SIZE).astype(float))

    # one column at a time, so no (pairs, 33) temporary is built; bincount
    # adds each point's neighbors in pair order
    weighted = np.stack([np.bincount(src, weights=column[dst] / dist,
                                     minlength=n)
                         for column in spfh.T.copy()], axis=1)
    counts = np.bincount(src, minlength=n)
    has_neighbors = counts > 0
    fpfh = spfh.copy()
    fpfh[has_neighbors] += weighted[has_neighbors] / counts[has_neighbors, None]
    fpfh[~has_neighbors] = 0.0
    fpfh[~valid] = 0.0
    return _normalize_blocks(fpfh)


# ---------------------------------------------------------------------------
# closed-form rigid fit
# ---------------------------------------------------------------------------

def solve_rigid_arun(source_pts, target_pts) -> RigidTransform:
    """Least-squares rigid transform mapping source points onto targets.

    Closed form: subtract centroids, SVD of the correlation matrix,
    det-corrected rotation (so reflective optima still yield a proper
    rotation), translation from the rotated centroid difference. Raises
    DegenerateConfigurationError for < 3 pairs or (near-)collinear points.
    """
    source = np.asarray(source_pts, dtype=float).reshape(-1, 3)
    target = np.asarray(target_pts, dtype=float).reshape(-1, 3)
    if len(source) != len(target):
        raise ValueError("point lists must have equal length")
    if len(source) < 3:
        raise DegenerateConfigurationError("need at least 3 point pairs")
    centroid_s = source.mean(axis=0)
    centroid_t = target.mean(axis=0)
    h = (source - centroid_s).T @ (target - centroid_t)
    u, s, vt = np.linalg.svd(h)
    if s[0] <= 0.0 or s[1] <= _RANK_TOL * s[0]:
        raise DegenerateConfigurationError("point configuration is collinear")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rotation = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    translation = centroid_t - rotation @ centroid_s
    return RigidTransform(rotation, translation)


def _solve_arun_batch(source: np.ndarray, target: np.ndarray):
    """Batched Arun solve over (T, K, 3) triples; returns (R, t, ok_mask)."""
    cs = source.mean(axis=1, keepdims=True)
    ct = target.mean(axis=1, keepdims=True)
    h = np.einsum("tki,tkj->tij", source - cs, target - ct)
    u, s, vt = np.linalg.svd(h)
    ok = (s[:, 0] > 0.0) & (s[:, 1] > _RANK_TOL * s[:, 0])
    d = np.sign(np.linalg.det(np.einsum("tij,tkj->tik", vt.transpose(0, 2, 1),
                                        u)))
    d[d == 0.0] = 1.0
    correction = np.zeros((len(source), 3, 3))
    correction[:, 0, 0] = 1.0
    correction[:, 1, 1] = 1.0
    correction[:, 2, 2] = d
    rotation = np.einsum("tij,tjk,tlk->til", vt.transpose(0, 2, 1),
                         correction, u.transpose(0, 2, 1))
    translation = ct[:, 0, :] - np.einsum("tij,tj->ti", rotation, cs[:, 0, :])
    return rotation, translation, ok


# ---------------------------------------------------------------------------
# coarse alignment and ICP
# ---------------------------------------------------------------------------

def _match_fitness(source_points: np.ndarray, target_tree: cKDTree,
                   rotation: np.ndarray, translation: np.ndarray,
                   max_dist: float):
    moved = source_points @ rotation.T + translation
    dist, _ = target_tree.query(moved, distance_upper_bound=max_dist)
    matched = np.isfinite(dist)
    if not matched.any():
        return 0.0, 0.0
    fitness = float(matched.mean())
    rmse = float(np.sqrt(np.mean(dist[matched] ** 2)))
    return fitness, rmse


def mutual_feature_matches(source_fpfh: np.ndarray,
                           target_fpfh: np.ndarray) -> np.ndarray:
    """(M, 2) array of mutually-nearest descriptor pairs (src idx, tgt idx)."""
    src_valid = np.flatnonzero(source_fpfh.sum(axis=1) > 0.0)
    tgt_valid = np.flatnonzero(target_fpfh.sum(axis=1) > 0.0)
    if len(src_valid) == 0 or len(tgt_valid) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    tgt_tree = cKDTree(target_fpfh[tgt_valid])
    src_tree = cKDTree(source_fpfh[src_valid])
    _, fwd = tgt_tree.query(source_fpfh[src_valid])
    # only the targets some source picked can be mutual: query just those
    picked, slot = np.unique(fwd, return_inverse=True)
    _, back = src_tree.query(target_fpfh[tgt_valid[picked]])
    mutual = back[slot] == np.arange(len(src_valid))
    return np.stack([src_valid[mutual], tgt_valid[fwd[mutual]]], axis=1)


def coarse_align_ransac(source: PointCloud, target: PointCloud,
                        source_fpfh: np.ndarray, target_fpfh: np.ndarray,
                        cfg: HierarchyConfig, seed: int = 0
                        ) -> RegistrationResult:
    """Global alignment by RANSAC over mutual-nearest FPFH correspondences.

    Each trial samples three correspondences, rejects triples whose edge
    lengths disagree between the clouds (ratio <= edge_length_ratio), fits
    the rigid transform in closed form, and counts correspondences within
    ransac_inlier_threshold. The winning hypothesis (most inliers, ties to
    the lowest trial index) is refit on all its inliers.
    """
    matches = mutual_feature_matches(source_fpfh, target_fpfh)
    if len(matches) < 3:
        raise NoConsensusError(f"only {len(matches)} feature correspondences")
    corr_src = source.points[matches[:, 0]]
    corr_tgt = target.points[matches[:, 1]]
    m = len(matches)

    rng = np.random.default_rng(seed)
    triples = rng.integers(0, m, size=(cfg.ransac_iterations, 3))
    distinct = ((triples[:, 0] != triples[:, 1])
                & (triples[:, 1] != triples[:, 2])
                & (triples[:, 0] != triples[:, 2]))
    triples = triples[distinct]

    tri_src = corr_src[triples]
    tri_tgt = corr_tgt[triples]
    edges = [(0, 1), (1, 2), (0, 2)]
    consistent = np.ones(len(triples), dtype=bool)
    # triangles shorter than twice the inlier threshold are noise-dominated:
    # their edge ratios and poses are meaningless
    min_edge = 2.0 * cfg.ransac_inlier_threshold
    for a, b in edges:
        d_src = np.linalg.norm(tri_src[:, a] - tri_src[:, b], axis=1)
        d_tgt = np.linalg.norm(tri_tgt[:, a] - tri_tgt[:, b], axis=1)
        longer = np.maximum(d_src, d_tgt)
        shorter = np.minimum(d_src, d_tgt)
        consistent &= shorter >= min_edge
        ratio = np.divide(shorter, np.maximum(longer, 1e-12))
        consistent &= ratio > cfg.edge_length_ratio
    tri_src, tri_tgt = tri_src[consistent], tri_tgt[consistent]
    if len(tri_src) == 0:
        raise NoConsensusError("no geometrically consistent correspondence triples")

    rotations, translations, ok = _solve_arun_batch(tri_src, tri_tgt)
    rotations, translations = rotations[ok], translations[ok]
    if len(rotations) == 0:
        raise NoConsensusError("all sampled triples were degenerate")

    threshold_sq = cfg.ransac_inlier_threshold ** 2
    counts = np.zeros(len(rotations), dtype=np.int64)
    for start in range(0, len(rotations), _SCORE_CHUNK):
        stop = min(start + _SCORE_CHUNK, len(rotations))
        moved = np.einsum("tij,mj->tmi", rotations[start:stop], corr_src)
        moved += translations[start:stop][:, None, :]
        err_sq = np.sum((moved - corr_tgt[None]) ** 2, axis=2)
        counts[start:stop] = (err_sq <= threshold_sq).sum(axis=1)
    if counts.max() < 3:
        raise NoConsensusError(f"best hypothesis has {counts.max()} inliers")

    # several distinct consensus sets can be large in (near-)symmetric
    # scenes, and the strongest one floods the ranking with copies of
    # itself; arbitrate the strongest DISTINCT poses by whole-cloud fitness
    # rather than correspondence count alone (ties keep the earliest trial)
    ranked = np.lexsort((np.arange(len(counts)), -counts))
    candidates: list = []
    for i in ranked[:4096]:
        if counts[i] < 3:
            break
        duplicate = False
        for j in candidates:
            rot_gap = rotation_angle_deg(rotations[i].T @ rotations[j])
            tra_gap = np.linalg.norm(translations[i] - translations[j])
            if rot_gap < 5.0 and tra_gap < 2.0 * cfg.ransac_inlier_threshold:
                duplicate = True
                break
        if not duplicate:
            candidates.append(int(i))
            if len(candidates) >= cfg.arbitration_hypotheses:
                break
    # three noisy pairs give a crude pose; grow each candidate's consensus
    # by refitting on its inliers before judging it
    target_tree = cKDTree(target.points)
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
        fitness, rmse = _match_fitness(source.points, target_tree,
                                       refit.rotation, refit.translation,
                                       cfg.ransac_inlier_threshold)
        if best is None or fitness > best[0]:
            best = (fitness, rmse, refit)
    if best is None:
        raise NoConsensusError("no hypothesis produced a valid refit")
    fitness, rmse, transform = best
    return RegistrationResult(transform=transform, fitness=fitness,
                              inlier_rmse=rmse,
                              iterations_used=cfg.ransac_iterations)


def icp_refine(source: PointCloud, target: PointCloud, init: RigidTransform,
               max_dist: float, max_iter: int = 50,
               eps: float = 1e-6) -> RegistrationResult:
    """Iterative closest point refinement from an initial pose.

    Alternates nearest-neighbor correspondences within max_dist and the
    closed-form rigid fit until the relative RMSE change drops below eps or
    max_iter is reached. A step that would increase the RMSE is rejected
    and treated as converged, so the recorded RMSE trace is non-increasing.
    Raises NoCorrespondencesError when no pairs exist at the initial pose.
    """
    if max_dist <= 0.0:
        raise ValueError("max_dist must be positive")
    target_tree = cKDTree(target.points)
    pose = init
    rmse_history: list = []
    iterations = 0
    for iterations in range(1, max_iter + 1):
        moved = source.points @ pose.rotation.T + pose.translation
        dist, idx = target_tree.query(moved, distance_upper_bound=max_dist)
        matched = np.isfinite(dist)
        if not matched.any():
            if iterations == 1:
                raise NoCorrespondencesError(
                    "no point pairs within max_dist at the initial pose")
            break
        try:
            candidate = solve_rigid_arun(source.points[matched],
                                         target.points[idx[matched]])
        except DegenerateConfigurationError:
            break
        moved = source.points[matched] @ candidate.rotation.T + candidate.translation
        rmse = float(np.sqrt(np.mean(
            np.sum((moved - target.points[idx[matched]]) ** 2, axis=1))))
        if rmse_history and rmse > rmse_history[-1]:
            break  # worsening step rejected; keep the previous pose
        pose = candidate
        previous = rmse_history[-1] if rmse_history else None
        rmse_history.append(rmse)
        if previous is not None and abs(previous - rmse) <= eps * max(rmse, 1e-12):
            break
    fitness, rmse = _match_fitness(source.points, target_tree, pose.rotation,
                                   pose.translation, max_dist)
    return RegistrationResult(transform=pose, fitness=fitness,
                              inlier_rmse=rmse, iterations_used=iterations,
                              rmse_history=tuple(rmse_history))


def hierarchical_register(source: PointCloud, target: PointCloud,
                          cfg: HierarchyConfig = HierarchyConfig(),
                          seed: int = 0,
                          source_viewpoint=(0.0, 0.0, 0.0),
                          target_viewpoint=(0.0, 0.0, 0.0)
                          ) -> RegistrationResult:
    """Full coarse-to-fine registration of source onto target.

    Feature RANSAC initializes the pose at the coarsest scale (plain ICP is
    local, and a fresh deployment has no prior); ICP then refines through
    every level, each warm-started from the last. The finest level's result
    is returned. The viewpoints orient normals consistently and default to
    the respective sensor origins.
    """
    coarsest = cfg.levels[0]
    src_coarse = voxel_downsample(source, coarsest.voxel_size)
    tgt_coarse = voxel_downsample(target, coarsest.voxel_size)

    src_normals = estimate_normals(src_coarse, cfg.normal_radius,
                                   cfg.min_normal_neighbors, source_viewpoint)
    tgt_normals = estimate_normals(tgt_coarse, cfg.normal_radius,
                                   cfg.min_normal_neighbors, target_viewpoint)
    src_fpfh = compute_fpfh(src_coarse, src_normals, cfg.fpfh_radius)
    tgt_fpfh = compute_fpfh(tgt_coarse, tgt_normals, cfg.fpfh_radius)

    result = coarse_align_ransac(src_coarse, tgt_coarse, src_fpfh, tgt_fpfh,
                                 cfg, seed=seed)
    pose = result.transform
    for level in cfg.levels:
        src_level = voxel_downsample(source, level.voxel_size)
        tgt_level = voxel_downsample(target, level.voxel_size)
        result = icp_refine(src_level, tgt_level, pose,
                            level.max_correspondence_distance,
                            level.max_iterations, cfg.convergence_epsilon)
        pose = result.transform
    return result


def accumulate_frames(frames: Sequence[PointCloud],
                      duration_s: float) -> PointCloud:
    """Concatenate time-ordered frames within duration_s of the first."""
    if not frames:
        raise EmptyInputError("no frames to accumulate")
    stamps = [f.timestamp_ns for f in frames]
    if any(b < a for a, b in zip(stamps, stamps[1:])):
        raise ValueError("frames must be in time order")
    cutoff = stamps[0] + int(duration_s * 1e9)
    kept = [f for f in frames if f.timestamp_ns <= cutoff]
    points = np.concatenate([f.points for f in kept])
    intensity = None
    if all(f.intensity is not None for f in kept if len(f)):
        blocks = [f.intensity for f in kept if f.intensity is not None]
        intensity = np.concatenate(blocks) if blocks else None
    return PointCloud(points, intensity=intensity,
                      timestamp_ns=kept[0].timestamp_ns,
                      source_node=kept[0].source_node)


# ---------------------------------------------------------------------------
# calibration quality (per-scene reliability numbers)
# ---------------------------------------------------------------------------

def evaluate_point_projection_error(pairs: Sequence[CornerPair],
                                    transform: RigidTransform) -> float:
    """Mean distance between transformed annotated corners and references."""
    if not pairs:
        raise EmptyInputError("need at least one corner pair")
    annotated = np.stack([p.annotated for p in pairs])
    reference = np.stack([p.reference for p in pairs])
    moved = annotated @ transform.rotation.T + transform.translation
    return float(np.mean(np.linalg.norm(moved - reference, axis=1)))


def evaluate_reprojection_error(camera, pairs) -> float:
    """Mean pixel distance between projected points and annotated pixels.

    ``pairs`` is a sequence of (world point, (u, v) pixel). Points behind
    the camera raise BehindCameraError.
    """
    if not pairs:
        raise EmptyInputError("need at least one projection pair")
    errors = []
    for point, pixel in pairs:
        u, v = project_pinhole(camera, point)
        errors.append(math.hypot(u - pixel[0], v - pixel[1]))
    return float(np.mean(errors))
