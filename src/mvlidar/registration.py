"""Automatic spatial calibration by multi-scale point-cloud registration.

The pipeline a fresh outdoor deployment needs, with no pose prior:

1. voxel-downsample both clouds at the coarsest scale,
2. estimate normals and 33-bin fast point feature histograms (FPFH),
3. coarse global alignment by RANSAC over mutual-nearest feature
   correspondences, each hypothesis solved in closed form from three pairs
   (SVD least-squares rigid fit),
4. iterative closest point refinement through progressively finer scales,
   warm-started from the previous level. Between iterations a source point
   keeps its nearest target until it has moved half the gap to its second
   nearest (less a rounding slack); within that radius the old neighbor is
   provably still the unique nearest one, so the correspondences, and
   every result, equal a full query's. Ties fall back to the tree's own
   single-neighbor choice, and unmatched points are queried every time.

Every stochastic step takes an explicit seed and is deterministic given it;
RANSAC ties break toward the lowest trial index. The module also provides
the calibration-quality evaluator: mean point-to-point projection error
over annotated corner pairs.

Exact kernels: a faster kernel replaces a slower one only when it gives the
same bits, so the calibration output never depends on which one ran. The
row norms, squared norms, dot and cross products of normals, FPFH, RANSAC,
arbitration and ICP run on (x, y, z) columns through
``geometry.xyz_norms``, ``xyz_sq_norms``, ``xyz_dots`` and ``xyz_cross``,
which repeat numpy's operation order on (N, 3) rows, as measured on numpy
2.4:

- ``np.linalg.norm(v, axis=1)`` is ``sqrt((x*x + y*y) + z*z)``, and
  ``np.sum(v ** 2, axis=-1)`` is ``(x*x + y*y) + z*z``;
- ``np.einsum("ij,ij->i", a, b)`` is ``((a0*b0 + a2*b2) + a1*b1) + 0.0``
  when each row's entries are adjacent in memory, and adds in the order
  (0, 1, 2) when they are strided. The ``+ 0.0`` matters: it makes a -0.0
  sum +0.0, and ``arctan2(+-0, cos < 0)`` is +-pi, a different theta bin;
- ``np.cross`` is the component formula.

Sums whose order matters keep it: ``bincount`` adds each point's pairs in
pair order.
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
    check_number,
)
from .geometry import (
    PointCloud,
    RigidTransform,
    check_time_order,
    rotation_angle_deg,
    voxel_downsample,
    xyz_cross,
    xyz_dots,
    xyz_norms,
    xyz_sq_norms,
)

FPFH_BINS_PER_FEATURE = 11
FPFH_SIZE = 3 * FPFH_BINS_PER_FEATURE

_RANK_TOL = 1e-12
_SCORE_CHUNK = 512
# pairs per block of the FPFH pair pass, which bounds its (3, block) arrays
_PAIR_CHUNK = 16384
# ICP keeps a point's nearest target while the point moves less than its
# safe radius less this slack (meters), which covers rounding in the
# distances: a floor plus a share of the largest coordinate
_REUSE_SLACK = 1e-9
_REUSE_SLACK_PER_METER = 1e-12
# RANSAC draws all its trials at once: their triples, points and poses
# peak at 0.7 kB per trial when every triple is consistent, so a million
# trials stay near 0.7 GB
MAX_RANSAC_ITERATIONS = 1_000_000
# ICP stops once an iteration changes the inlier RMSE by this share or less
ICP_CONVERGENCE_EPSILON = 1e-6
# a normal needs this many neighbors, self included: fewer fit no plane
MIN_NORMAL_NEIGHBORS = 5
# a RANSAC triple's edges must agree in length by a ratio above this
EDGE_LENGTH_RATIO = 0.9


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

    Defaults are the schedule of the ~44 m crossroad scenes: two levels,
    1 m then 0.4 m voxels, feature radius 3x and normal radius 2.5x the
    coarsest voxel, and a RANSAC inlier threshold of 1.5x the coarsest
    voxel. All of it is configuration, not a claim about optimality.
    """

    levels: tuple = (HierarchyLevel(1.0, 2.0, 40),
                     HierarchyLevel(0.4, 0.8, 60))
    fpfh_radius: float = 3.0
    normal_radius: float = 2.5
    ransac_iterations: int = 25_000
    ransac_inlier_threshold: float = 1.5
    arbitration_hypotheses: int = 48

    def __post_init__(self):
        levels = tuple(level if isinstance(level, HierarchyLevel)
                       else HierarchyLevel(*level) for level in self.levels)
        if not levels:
            raise ConfigError("need at least one hierarchy level")
        # registration cannot run with any value refused here, or runs as
        # if it were another value; voxel sizes decrease strictly
        coarser = None
        for index, level in enumerate(levels):
            name = f"hierarchy.levels[{index}]."
            check_number(name + "voxel_size", level.voxel_size, 0, coarser,
                         low_open=True, high_open=True)
            check_number(name + "max_correspondence_distance",
                         level.max_correspondence_distance, 0, low_open=True)
            check_number(name + "max_iterations", level.max_iterations, 1,
                         integer=True)
            coarser = level.voxel_size
        for key in ("fpfh_radius", "normal_radius", "ransac_inlier_threshold"):
            check_number(f"hierarchy.{key}", getattr(self, key), 0,
                         low_open=True)
        check_number("hierarchy.ransac_iterations", self.ransac_iterations,
                     1, MAX_RANSAC_ITERATIONS, integer=True)
        check_number("hierarchy.arbitration_hypotheses",
                     self.arbitration_hypotheses, 1, integer=True)
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

def estimate_normals(cloud: PointCloud, radius: float,
                     min_neighbors: int = MIN_NORMAL_NEIGHBORS,
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

    # accumulate neighborhood moments about each point (self included) over
    # the directed pairs p->q (row i) and q->p (row m + i), one coordinate
    # column at a time, then diagonalize all covariances at once
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    columns = points.T.copy()
    at_p = columns.take(pairs[:, 0], axis=1)
    at_q = columns.take(pairs[:, 1], axis=1)
    delta = np.concatenate([at_q - at_p, at_p - at_q], axis=1)
    del at_p, at_q
    counts = np.bincount(src, minlength=n).astype(float) + 1.0

    def point_sums(values):
        # bincount adds each point's pairs in pair order
        return np.bincount(src, weights=values, minlength=n)

    sums = np.stack([point_sums(column) for column in delta], axis=1)
    outer = np.empty((n, 3, 3))
    for a in range(3):
        for b in range(a, 3):
            outer[:, a, b] = point_sums(delta[a] * delta[b])
            outer[:, b, a] = outer[:, a, b]
    del delta

    computable = counts >= min_neighbors
    if not computable.any():
        return normals
    mean = sums[computable] / counts[computable, None]
    cov = (outer[computable] / counts[computable, None, None]
           - mean[:, :, None] * mean[:, None, :])
    _, eigenvectors = np.linalg.eigh(cov)
    candidate = eigenvectors[:, :, 0]
    toward = viewpoint[:, None] - columns[:, computable]
    # einsum over these strided eigenvector rows added in the order
    # (0, 1, 2), which the swapped columns keep (see xyz_dots)
    flip = xyz_dots(candidate.T[[0, 2, 1]], toward[[0, 2, 1]]) < 0.0
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


def _spfh_pass(points: np.ndarray, normals: np.ndarray, valid: np.ndarray,
               radius: float):
    """The pair pass of ``compute_fpfh``: (spfh, src, dst, dist).

    ``spfh`` is the normalized (N, 33) histogram of each point's directed
    pairs. The pairs are taken in blocks of ``_PAIR_CHUNK``, and each block
    adds the bins of its kept directed pairs to integer (N * 33) counts,
    so no array over all directed pairs holds angles or bins. src, dst and
    dist list the kept directed pairs in row order, for the neighbor sum.
    """
    n = len(points)
    tree = cKDTree(points)
    pairs = tree.query_pairs(radius, output_type="ndarray")
    pairs = pairs[valid[pairs[:, 0]] & valid[pairs[:, 1]]]
    m = len(pairs)
    # each pair (p, q) gives the directed pairs p->q (row i) and q->p (row
    # m + i); integer counts sum to the same histogram in any order
    dist = np.empty(m)
    keep = np.empty(2 * m, dtype=bool)
    histogram = np.zeros(n * FPFH_SIZE, dtype=np.int64)
    # contiguous coordinate and normal columns: each block gathers (3, k)
    # arrays whose rows feed the row kernels
    point_columns, normal_columns = points.T.copy(), normals.T.copy()
    # pairs closer than 1e-12 or with a normal along their direction are
    # computed too (zero divisions give NaN) and then dropped by keep
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, m, _PAIR_CHUNK):
            forward = slice(start, min(start + _PAIR_CHUNK, m))
            p, q = pairs[forward, 0], pairs[forward, 1]
            at_p, at_q = (point_columns.take(p, axis=1),
                          point_columns.take(q, axis=1))
            normal_p, normal_q = (normal_columns.take(p, axis=1),
                                  normal_columns.take(q, axis=1))
            # the reverse displacement is subtracted, not negated, so even
            # the signs of its zero coordinates are those of a direction
            # computed on its own; u . n_q is the same in both directions
            delta = at_q - at_p
            dist[forward] = length = xyz_norms(delta)
            normals_cos = xyz_dots(normal_p, normal_q)
            # the block counts bins from its lowest point on, as its pairs
            # lie near each other in the tree
            low = min(p.min(), q.min())
            flat_bins = []
            for offset, source, d_hat, u, n_q in (
                    (0, p, delta / length, normal_p, normal_q),
                    (m, q, (at_p - at_q) / length, normal_q, normal_p)):
                rows = slice(forward.start + offset, forward.stop + offset)
                v = xyz_cross(d_hat, u)
                v_norm = xyz_norms(v)
                keep[rows] = kept = (v_norm > 1e-12) & (length > 1e-12)
                v = [column / v_norm for column in v]
                alpha = xyz_dots(v, n_q)
                phi = xyz_dots(u, d_hat)
                theta = np.arctan2(xyz_dots(xyz_cross(u, v), n_q),
                                   normals_cos)
                first_bin = (source[kept] - low) * FPFH_SIZE
                flat_bins += [
                    first_bin + _bin_index(alpha[kept], -1.0, 1.0),
                    first_bin + (FPFH_BINS_PER_FEATURE
                                 + _bin_index(phi[kept], -1.0, 1.0)),
                    first_bin + (2 * FPFH_BINS_PER_FEATURE
                                 + _bin_index(theta[kept], -math.pi,
                                              math.pi))]
            block = np.bincount(np.concatenate(flat_bins))
            histogram[low * FPFH_SIZE:low * FPFH_SIZE + len(block)] += block
    spfh = _normalize_blocks(histogram.reshape(n, FPFH_SIZE).astype(float))

    kept_forward, kept_reverse = keep[:m], keep[m:]
    src = np.concatenate([pairs[kept_forward, 0], pairs[kept_reverse, 1]])
    dst = np.concatenate([pairs[kept_forward, 1], pairs[kept_reverse, 0]])
    dist = np.concatenate([dist[kept_forward], dist[kept_reverse]])
    return spfh, src, dst, dist


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
    if n == 0:
        return np.zeros((0, FPFH_SIZE))
    valid = xyz_norms(normals.T) > 0.5
    spfh, src, dst, dist = _spfh_pass(points, normals, valid, radius)

    # one column at a time, so no (pairs, 33) temporary is built; bincount
    # adds each point's neighbors in pair order
    weighted = np.stack([np.bincount(src, weights=column.take(dst) / dist,
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


def _arbitrate(candidates, rotations, translations, corr_src, corr_tgt,
               source_points, target_tree, threshold):
    """(fitness, rmse, transform) of the first candidate pose with the
    highest whole-cloud fitness after refitting, or None if none refits."""
    threshold_sq = threshold ** 2
    best = None
    for index in candidates:
        rotation, translation = rotations[index], translations[index]
        # three noisy pairs give a crude pose; grow each candidate's
        # consensus by refitting on its inliers before judging it
        refit = None
        for _ in range(3):
            moved = corr_src @ rotation.T + translation
            inliers = xyz_sq_norms((moved - corr_tgt).T) <= threshold_sq
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
        fitness, rmse = _match_fitness(source_points, target_tree,
                                       refit.rotation, refit.translation,
                                       threshold)
        if best is None or fitness > best[0]:
            best = (fitness, rmse, refit)
            if fitness == 1.0:
                # a fitness is a matched share: no later candidate beats it
                break
    return best


def mutual_feature_matches(source_fpfh: np.ndarray,
                           target_fpfh: np.ndarray) -> np.ndarray:
    """(M, 2) array of mutually-nearest descriptor pairs (src idx, tgt idx).

    A descriptor with two or more exactly equidistant nearest ones gets the
    one the kd-tree's traversal reaches first, which depends on the tree's
    layout, not on the indices. Such ties are common: a voxel grid holds
    many identical descriptors.
    """
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


def _consistent_triples(corr_src: np.ndarray, corr_tgt: np.ndarray,
                        triples: np.ndarray, cfg: HierarchyConfig
                        ) -> np.ndarray:
    """Mask of the (T, 3) correspondence triples whose three edges are each
    at least twice the inlier threshold long in both clouds and agree in
    length by a ratio above ``EDGE_LENGTH_RATIO``."""
    # each corner's coordinates as (3, T) rows, for the row kernels
    corners_src = [corr_src.T.take(corner, axis=1) for corner in triples.T]
    corners_tgt = [corr_tgt.T.take(corner, axis=1) for corner in triples.T]
    consistent = np.ones(len(triples), dtype=bool)
    # triangles shorter than twice the inlier threshold are noise-dominated:
    # their edge ratios and poses are meaningless
    min_edge = 2.0 * cfg.ransac_inlier_threshold
    for a, b in [(0, 1), (1, 2), (0, 2)]:
        d_src = xyz_norms(corners_src[a] - corners_src[b])
        d_tgt = xyz_norms(corners_tgt[a] - corners_tgt[b])
        longer = np.maximum(d_src, d_tgt)
        shorter = np.minimum(d_src, d_tgt)
        consistent &= shorter >= min_edge
        ratio = np.divide(shorter, np.maximum(longer, 1e-12))
        consistent &= ratio > EDGE_LENGTH_RATIO
    return consistent


def coarse_align_ransac(source: PointCloud, target: PointCloud,
                        source_fpfh: np.ndarray, target_fpfh: np.ndarray,
                        cfg: HierarchyConfig, seed: int = 0
                        ) -> RegistrationResult:
    """Global alignment by RANSAC over mutual-nearest FPFH correspondences.

    Each trial samples three correspondences, rejects triples whose edge
    lengths disagree between the clouds (ratio <= EDGE_LENGTH_RATIO), fits
    the rigid transform in closed form, and counts correspondences within
    ransac_inlier_threshold. Up to arbitration_hypotheses distinct poses,
    in order of inlier count (ties to the lowest trial index), are each
    refit on their inliers and judged by whole-cloud fitness; the first
    with the highest fitness wins. Arbitration stops at the first candidate
    with fitness 1.0: a fitness is the share of source points matched, so
    no later candidate can exceed it, and ties keep the earlier one.
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
    triples = triples[_consistent_triples(corr_src, corr_tgt, triples, cfg)]
    tri_src, tri_tgt = corr_src[triples], corr_tgt[triples]
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
        moved -= corr_tgt[None]
        err_sq = xyz_sq_norms(np.moveaxis(moved, 2, 0))
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
    best = _arbitrate(candidates, rotations, translations, corr_src,
                      corr_tgt, source.points, cKDTree(target.points),
                      cfg.ransac_inlier_threshold)
    if best is None:
        raise NoConsensusError("no hypothesis produced a valid refit")
    fitness, rmse, transform = best
    return RegistrationResult(transform=transform, fitness=fitness,
                              inlier_rmse=rmse,
                              iterations_used=cfg.ransac_iterations)


def icp_refine(source: PointCloud, target: PointCloud, init: RigidTransform,
               max_dist: float, max_iter: int = 50) -> RegistrationResult:
    """Iterative closest point refinement from an initial pose.

    Alternates nearest-neighbor correspondences within max_dist and the
    closed-form rigid fit until the relative RMSE change is at most
    ICP_CONVERGENCE_EPSILON or max_iter is reached. A step that would
    increase the RMSE is rejected and treated as converged, so the recorded
    RMSE trace is non-increasing.
    Raises NoCorrespondencesError when no pairs exist at the initial pose.

    A source point is queried again only when it has moved, since its last
    query, by at least its safe radius: half the gap between its first and
    second nearest target distances (the second capped at max_dist), less
    a slack for rounding. Moving by less than that changes every target
    distance by less than half the gap, so the old neighbor stays the
    unique nearest one and stays within max_dist, and the correspondences
    are the ones a full query would find. The slack has a floor and a
    share of the largest coordinate. Each query asks for two neighbors
    within max_dist; a row whose two distances tie within twice the slack
    gets no radius and is queried again for one neighbor, so the tree's
    own choice among equidistant targets is kept. Unmatched points get no
    radius either and are queried on every iteration.
    """
    if max_dist <= 0.0:
        raise ValueError("max_dist must be positive")
    target_tree = cKDTree(target.points)
    points = source.points
    n = len(points)
    largest = max(target.points.max(initial=0.0),
                  -target.points.min(initial=0.0))
    slack = _REUSE_SLACK + _REUSE_SLACK_PER_METER * (largest + max_dist)
    queried_at = np.zeros((n, 3))
    safe_radius = np.full(n, -np.inf)
    idx = np.zeros(n, dtype=np.int64)
    matched = np.zeros(n, dtype=bool)
    pose = init
    rmse_history: list = []
    iterations = 0
    for iterations in range(1, max_iter + 1):
        moved = points @ pose.rotation.T + pose.translation
        # written "not below", so a NaN distance is queried too
        stale = np.flatnonzero(~(xyz_norms((moved - queried_at).T)
                                 < safe_radius))
        if len(stale):
            at = moved[stale]
            dist, near = target_tree.query(at, k=2,
                                           distance_upper_bound=max_dist)
            first, second = dist[:, 0], np.minimum(dist[:, 1], max_dist)
            # an unmatched row gets max_dist - inf = -inf
            radius = 0.5 * (second - first) - slack
            idx[stale] = near[:, 0]
            matched[stale] = found = np.isfinite(first)
            tied = np.flatnonzero(found & (radius <= 0.0))
            if len(tied):
                _, idx[stale[tied]] = target_tree.query(
                    at[tied], distance_upper_bound=max_dist)
            queried_at[stale] = at
            safe_radius[stale] = radius
        if not matched.any():
            if iterations == 1:
                raise NoCorrespondencesError(
                    "no point pairs within max_dist at the initial pose")
            break
        pairs_src, pairs_tgt = points[matched], target.points[idx[matched]]
        try:
            candidate = solve_rigid_arun(pairs_src, pairs_tgt)
        except DegenerateConfigurationError:
            break
        moved = pairs_src @ candidate.rotation.T + candidate.translation
        rmse = float(np.sqrt(np.mean(xyz_sq_norms((moved - pairs_tgt).T))))
        if rmse_history and rmse > rmse_history[-1]:
            break  # worsening step rejected; keep the previous pose
        pose = candidate
        previous = rmse_history[-1] if rmse_history else None
        rmse_history.append(rmse)
        if (previous is not None and abs(previous - rmse)
                <= ICP_CONVERGENCE_EPSILON * max(rmse, 1e-12)):
            break
    # the fitness needs the tree's own distances: one full query
    fitness, rmse = _match_fitness(points, target_tree, pose.rotation,
                                   pose.translation, max_dist)
    return RegistrationResult(transform=pose, fitness=fitness,
                              inlier_rmse=rmse, iterations_used=iterations,
                              rmse_history=tuple(rmse_history))


def hierarchical_register(source: PointCloud, target: PointCloud,
                          cfg: HierarchyConfig = HierarchyConfig(),
                          seed: int = 0, *, target_viewpoint
                          ) -> RegistrationResult:
    """Full coarse-to-fine registration of source onto target.

    Feature RANSAC initializes the pose at the coarsest scale (plain ICP is
    local, and a fresh deployment has no prior); ICP then refines through
    every level, each warm-started from the last. The finest level's result
    is returned. Normals are oriented consistently: the source's toward its
    sensor origin, the target's toward ``target_viewpoint``.
    """
    coarsest = cfg.levels[0]
    src_coarse = voxel_downsample(source, coarsest.voxel_size)
    tgt_coarse = voxel_downsample(target, coarsest.voxel_size)

    src_normals = estimate_normals(src_coarse, cfg.normal_radius)
    tgt_normals = estimate_normals(tgt_coarse, cfg.normal_radius,
                                   viewpoint=target_viewpoint)
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
                            level.max_iterations)
        pose = result.transform
    return result


def accumulate_frames(frames: Sequence[PointCloud],
                      duration_s: float) -> PointCloud:
    """Concatenate time-ordered frames within duration_s of the first.

    The first frame is always kept; attributes follow
    ``PointCloud.concatenate``. A duration too long to count in
    integer nanoseconds, infinity included, keeps every frame.
    """
    if not frames:
        raise EmptyInputError("no frames to accumulate")
    if not duration_s >= 0.0:
        raise ValueError(f"duration_s must be >= 0, got {duration_s!r}")
    check_time_order(frames)
    first = frames[0].timestamp_ns
    # integer offsets against the float window compare exactly
    kept = [f for f in frames if f.timestamp_ns - first <= duration_s * 1e9]
    return PointCloud.concatenate(kept, timestamp_ns=first,
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
    return float(np.mean(xyz_norms((moved - reference).T)))
