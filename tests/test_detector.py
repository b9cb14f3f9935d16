import itertools
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from conftest import box_surface, ground_grid
from mvlidar import detector
from mvlidar.detector import (
    GROUND_Z,
    DetectorConfig,
    cluster_euclidean,
    detect_frame,
    fit_oriented_box,
    prepare_background,
    subtract_background,
)
from mvlidar.errors import ConfigError, DegenerateClusterError, \
    FormatError, TooManyPairsError
from mvlidar.geometry import Box3D, ObjectClass, PointCloud


def yaw_error_mod_90(estimate, truth):
    delta = (estimate - truth) % (math.pi / 2)
    return min(delta, math.pi / 2 - delta)


def balanced_tree_subtract(cloud, background, distance):
    """Reference: the same query on scipy's default (balanced) tree."""
    if len(cloud) == 0 or len(background) == 0:
        return cloud
    nearest, _ = cKDTree(background.points).query(
        cloud.points, distance_upper_bound=distance)
    return cloud.select(~np.isfinite(nearest))


def subtract(cloud, background, distance):
    """``subtract_background`` against a freshly prepared background. A
    background without points is refused when it is prepared, which
    subtracts nothing, as the oracle does."""
    if len(background) == 0:
        with pytest.raises(FormatError):
            prepare_background(background, distance=distance)
        return cloud
    return subtract_background(
        cloud, prepare_background(background, distance=distance))


def assert_same_cloud(actual, expected):
    np.testing.assert_array_equal(actual.points, expected.points)
    if expected.intensity is None:
        assert actual.intensity is None
    else:
        np.testing.assert_array_equal(actual.intensity, expected.intensity)


# quarter-metre grid values put many pairs exactly at the query distance
_COORDINATE = st.one_of(st.integers(-24, 24).map(lambda k: 0.25 * k),
                        st.floats(-6.0, 6.0, allow_nan=False))
_POINTS = st.lists(st.tuples(_COORDINATE, _COORDINATE, _COORDINATE),
                   max_size=80)


class TestSubtractBackground:
    def test_points_at_the_distance_are_kept(self):
        background = PointCloud([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        cloud = PointCloud([[0.5, 0.0, 0.0],
                            [np.nextafter(0.5, 0.0), 0.0, 0.0],
                            [5.0, 0.3, 0.4],
                            [5.0, 0.3, np.nextafter(0.4, 0.0)],
                            [2.5, 0.0, 0.0]],
                           intensity=[1.0, 2.0, 3.0, 4.0, 5.0])
        kept = subtract(cloud, background, 0.5)
        assert_same_cloud(kept, balanced_tree_subtract(cloud, background, 0.5))
        assert kept.intensity.tolist() == [1.0, 3.0, 5.0]

    def test_empty_inputs_pass_through(self):
        """An empty cloud comes back as it is; an empty background is
        refused before any frame is subtracted."""
        cloud = PointCloud([[1.0, 2.0, 3.0]])
        with pytest.raises(FormatError,
                           match="^background scan holds no points$"):
            prepare_background(PointCloud.empty())
        empty = PointCloud.empty()
        assert subtract_background(empty, prepare_background(cloud)) is empty

    @settings(max_examples=200, deadline=None)
    @given(cloud=_POINTS, background=_POINTS,
           distance=st.one_of(st.sampled_from([0.25, 0.5, 1.0]),
                              st.floats(0.01, 3.0)))
    def test_matches_the_balanced_tree(self, cloud, background, distance):
        cloud = PointCloud(np.array(cloud).reshape(-1, 3),
                           intensity=np.arange(len(cloud), dtype=float))
        background = PointCloud(np.array(background).reshape(-1, 3))
        assert_same_cloud(subtract(cloud, background, distance),
                          balanced_tree_subtract(cloud, background, distance))


class TestBackgroundBoxCull:
    """Points at the background's bounding box widened by the distance,
    where the tree's own bounds prune the search, and points wholly
    outside it are kept exactly as the balanced-tree oracle keeps them."""

    @pytest.mark.parametrize("base", [0.0, 1e9, -1e9])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_points_one_ulp_either_side_of_the_box(self, base, axis):
        background = PointCloud(base + np.array(
            [[0.0, 0.0, 0.0], [3.0, 2.0, 1.0], [1.0, 0.5, 0.25]]))
        lo, hi = background.points.min(axis=0), background.points.max(axis=0)
        points = []
        for side, bound in ((-1.0, lo), (1.0, hi)):
            # the background point on this face of the box, moved out
            start = background.points[np.argmin(background.points[:, axis])
                                      if side < 0 else
                                      np.argmax(background.points[:, axis])]
            edge = bound[axis] + side * 0.5
            for ulps in range(-4, 5):
                value = edge
                for _ in range(abs(ulps)):
                    value = np.nextafter(value, side * ulps * np.inf)
                point = start.copy()
                point[axis] = value
                points.append(point)
        cloud = PointCloud(np.array(points),
                           intensity=np.arange(len(points), dtype=float))
        kept = subtract(cloud, background, 0.5)
        assert_same_cloud(kept, balanced_tree_subtract(cloud, background, 0.5))
        assert 0 < len(kept) < len(cloud)

    @settings(max_examples=200, deadline=None)
    @given(cloud=_POINTS, background=_POINTS,
           base=st.sampled_from([1e9, -1e9]),
           distance=st.sampled_from([0.25, 0.5, 1.0]))
    def test_matches_the_balanced_tree_far_from_the_origin(
            self, cloud, background, base, distance):
        cloud = PointCloud(base + np.array(cloud).reshape(-1, 3),
                           intensity=np.arange(len(cloud), dtype=float))
        background = PointCloud(base + np.array(background).reshape(-1, 3))
        assert_same_cloud(subtract(cloud, background, distance),
                          balanced_tree_subtract(cloud, background, distance))

    def test_cloud_wholly_outside_is_kept(self, rng):
        background = PointCloud(rng.uniform(-5.0, 5.0, size=(200, 3)))
        cloud = PointCloud(rng.uniform(6.0, 9.0, size=(50, 3)))
        kept = subtract(cloud, background, 0.5)
        np.testing.assert_array_equal(kept.points, cloud.points)


@pytest.fixture
def trees(monkeypatch):
    """[points in the tree, points queried] of each tree the detector
    builds, in order."""
    built = []

    class RecordingTree(cKDTree):
        def __init__(self, data, *args, **kwargs):
            super().__init__(data, *args, **kwargs)
            self.record = [len(data), 0]
            built.append(self.record)

        def query(self, x, *args, **kwargs):
            self.record[1] += len(x)
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(detector, "cKDTree", RecordingTree)
    return built


def nudged(value, ulps):
    for _ in range(abs(ulps)):
        value = np.nextafter(value, math.copysign(math.inf, ulps))
    return value


class TestBackgroundGrid:
    """The covered fine cells and the candidate tree give the balanced-tree
    oracle's mask at the cell and distance boundaries, far from the origin
    and on backgrounds the table cannot hold; each call builds one tree."""

    @pytest.mark.parametrize("base", [0.0, 1e9, -1e9])
    @pytest.mark.parametrize("distance", [0.5, 0.3])
    def test_lattice_at_half_and_whole_distance(self, base, distance,
                                                trees):
        # background points three distances apart on a lattice of half
        # distances: the fine cells' own corners
        half = distance / 2
        lattice = np.array([[i, j, k] for i in range(0, 13, 6)
                            for j in range(0, 7, 6) for k in (0, 6)])
        background = PointCloud(base + half * lattice)
        offsets = [(s * a, 0, 0) for s in (1, -1) for a in (half, distance)]
        offsets += [(0, half, 0), (0, 0, -distance), (half, half, 0),
                    (half, half, half), (0.6 * distance, 0.8 * distance, 0),
                    (0, -0.8 * distance, 0.6 * distance)]
        points = []
        for b in background.points[:6]:
            for offset in offsets:
                exact = b + np.array(offset)
                for ulps in (-1, 0, 1):
                    points.append([nudged(c, ulps) for c in exact])
        cloud = PointCloud(np.array(points),
                           intensity=np.arange(len(points), dtype=float))
        kept = subtract(cloud, background, distance)
        assert_same_cloud(kept, balanced_tree_subtract(cloud, background,
                                                       distance))
        assert 0 < len(kept) < len(cloud)
        [(_, queried)] = trees
        # the covered cells settle some points unqueried
        assert 0 < queried < len(cloud)

    @pytest.mark.parametrize("offset", [(0.1, 0.5, 0.5), (0.9, 0.5, 0.1),
                                        (0.13, 0.87, 0.5), (0.0, 0.0, 0.0),
                                        (0.62, 0.62, 0.62)])
    def test_far_corners_of_the_cells_around_a_point(self, offset):
        """Frame points just inside each corner of the 27 fine cells around
        a background point at ``offset`` within its own cell: a cell is
        covered only when its far corner is within the distance."""
        distance, half = 0.5, 0.25
        # the first point sets the grid's origin 10 fine cells away
        background = PointCloud([[0.0, 0.0, 0.0],
                                 half * (10.0 + np.array(offset))])
        points = [[half * (10 + step + corner) - 1e-9 * corner
                   for step, corner in zip(steps, corners)]
                  for steps in itertools.product((-1, 0, 1), repeat=3)
                  for corners in itertools.product((0, 1), repeat=3)]
        cloud = PointCloud(np.array(points))
        kept = subtract(cloud, background, distance)
        assert_same_cloud(kept, balanced_tree_subtract(cloud, background,
                                                       distance))
        assert 0 < len(kept) < len(cloud)

    @pytest.mark.parametrize("stray", [(1e6, 0.0, 0.0), (0.0, 0.0, 1e12)])
    def test_background_the_table_cannot_hold(self, stray, trees, rng):
        """A scan with one stray point 10^6 m away spans too many cells,
        and one 10^12 m away passes 2**40 distances: the grid decides
        nothing, and every point is queried against the whole scan."""
        background = PointCloud(np.vstack([
            ground_grid(extent=3.0, spacing=0.3), [stray]]))
        cloud = PointCloud(rng.uniform((-4.0, -4.0, -0.5), (4.0, 4.0, 0.8),
                                       size=(300, 3)))
        kept = subtract(cloud, background, 0.5)
        assert_same_cloud(kept, balanced_tree_subtract(cloud, background,
                                                       0.5))
        assert 0 < len(kept) < len(cloud)
        assert trees == [[len(background), len(cloud)]]

    def test_empty_cloud_builds_a_tree_over_no_point(self, trees):
        background = prepare_background(PointCloud(ground_grid(extent=2.0)))
        empty = PointCloud.empty()
        assert subtract_background(empty, background) is empty
        assert trees == [[0, 0]]

    def test_frame_the_grid_settles_entirely(self, trees, rng):
        points = ground_grid(extent=3.0, spacing=0.3, noise=0.05, rng=rng)
        background = prepare_background(PointCloud(points))
        cloud = PointCloud(points + rng.uniform(-0.05, 0.05, points.shape))
        assert len(subtract_background(cloud, background)) == 0
        assert trees == [[0, 0]]

    def test_frame_with_no_background_near(self, trees, rng):
        background = PointCloud(ground_grid(extent=3.0, spacing=0.3))
        cloud = PointCloud(rng.uniform((-40.0, 10.0, 5.0),
                                       (-20.0, 20.0, 9.0), size=(50, 3)))
        kept = subtract_background(cloud, prepare_background(background))
        assert kept is cloud
        assert trees == [[0, len(cloud)]]


def cover_oracle(points, origin, scale, fine_shape):
    """Oracle: ``detector._cover`` as first written, each neighbour's
    covering points compacted by a boolean mask and moved by the step."""
    shape, _ = detector._tables(fine_shape)
    cells, far = [], []
    for axis in range(3):
        position = detector._positions(points, origin, scale, axis)
        cell = np.floor(position)
        offset = (position - cell).astype(np.float32)
        cells.append(cell.astype(np.int64) + 4)
        far.append(((1 + offset) ** 2, np.maximum(offset, 1 - offset) ** 2,
                    (2 - offset) ** 2))
    key = detector._flat(cells, shape, len(points))
    covered = np.zeros(math.prod(shape), dtype=bool)
    covered[key] = True
    strides = (shape[1] * shape[2], shape[2], 1)
    for step in itertools.product((-1, 0, 1), repeat=3):
        if any(step):
            near = ((far[0][step[0] + 1] + far[1][step[1] + 1])
                    + far[2][step[2] + 1]) <= detector._COVER_LIMIT
            covered[key[near] + np.dot(step, strides)] = True
    return covered


def prepared_oracle(background, prepared):
    """Oracle: ``prepared``'s points, starts and cover flags as the crop
    by a boolean mask, numpy's stable argsort of the int64 coarse keys and
    ``cover_oracle`` give them on ``prepared``'s grid."""
    points = background.points
    if prepared.crop_half_extent is not None:
        points = points[detector.in_square(
            points, prepared.crop_half_extent + prepared.distance
            + detector._BACKGROUND_MARGIN)]
    fine, coarse = detector._tables(prepared.fine_shape)
    key = detector._flat(((cell >> 1) + 2 for cell in prepared._cells(points)),
                         coarse, len(points))
    covered = (cover_oracle(points, prepared.origin, prepared.scale,
                            prepared.fine_shape) if prepared.scale
               else np.zeros(math.prod(fine), dtype=bool))
    starts = np.concatenate(([0], np.cumsum(np.bincount(
        key, minlength=math.prod(coarse)))))
    return points[np.argsort(key, kind="stable")], starts, covered


def assert_prepared_as_oracle(background, prepared):
    got = (prepared.points, prepared.starts, prepared.covered)
    for actual, expected in zip(got, prepared_oracle(background, prepared)):
        assert actual.dtype == expected.dtype
        assert np.array_equal(actual, expected)


def candidates_oracle(prepared, points):
    """Oracle: ``PreparedBackground._candidates`` as first written, its
    coarse cells marked in the 3-D table through three index arrays, then
    grown one axis at a time; the marked cells' points in cell order."""
    _, coarse = detector._tables(prepared.fine_shape)
    marks = np.zeros(coarse, dtype=bool)
    lows = [(cell >> 1) + 2 for cell in prepared._cells(points
                                                         - prepared.reach)]
    highs = [(cell >> 1) + 2 for cell in prepared._cells(points
                                                          + prepared.reach)]
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
    starts = prepared.starts
    return np.concatenate([np.zeros((0, 3))] + [
        prepared.points[starts[cell]:starts[cell + 1]]
        for cell in np.flatnonzero(marks)])


# one point per coarse cell of a lattice this many cells wide along each
# axis: 41**3 = 68,921 occupied cells, past the 65,536 ranks of uint16
_LATTICE_CELLS = 41


@st.composite
def grid_backgrounds(draw):
    """(background, crop, distance, kind) with ``kind``:

    - ``scattered``: up to 3,000 points in a box, cropped or not;
    - ``lattice``: a corner point, then one point in each coarse cell of a
      lattice ``_LATTICE_CELLS`` cells wide, within a fifth of a cell of
      the cell's centre, so that its ranks need uint32;
    - ``stray``: a ground grid and one point 10**6 m away, whose grid
      decides nothing: one coarse cell holds every point.
    """
    kind = draw(st.sampled_from(["scattered", "lattice", "stray"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distance = draw(st.sampled_from([0.5, 0.3]))
    crop = None
    if kind == "scattered":
        size = draw(st.integers(1, 3000))
        half = draw(st.sampled_from([1.0, 5.0, 20.0]))
        points = rng.uniform(-half, half, size=(size, 3))
        crop = draw(st.sampled_from([None, 2.0]))
    elif kind == "lattice":
        cells = np.stack(np.meshgrid(*[np.arange(_LATTICE_CELLS)] * 3),
                         axis=-1).reshape(-1, 3)
        jitter = rng.uniform(-0.2, 0.2, size=cells.shape)
        points = np.vstack([[0.0, 0.0, 0.0],
                            distance * (cells + 0.5 + jitter)])
    else:
        points = np.vstack([ground_grid(extent=3.0, spacing=0.3),
                            [1e6, 0.0, 0.0]])
    return PointCloud(points), crop, distance, kind


@settings(max_examples=40, deadline=None)
@given(grid_backgrounds(), st.integers(0, 2**32 - 1))
def test_prepared_background_matches_the_oracles(drawn, seed):
    """The crop, the sort by ranked coarse cell, the cover flags and the
    candidates equal the oracles' on every table: ranks of one byte, of
    two bytes and of four, and the one-cell grid that decides nothing."""
    background, crop, distance, kind = drawn
    event(kind)
    try:
        prepared = prepare_background(background, crop, distance)
    except FormatError:
        assert not detector.in_square(background.points,
                                      crop + distance + 1e-6).any()
        return
    assert_prepared_as_oracle(background, prepared)
    occupied = np.count_nonzero(np.diff(prepared.starts))
    if kind == "lattice":
        assert occupied == _LATTICE_CELLS ** 3
    elif kind == "stray":
        assert prepared.scale == 0.0 and occupied == 1
        assert not prepared.covered.any()
    rng = np.random.default_rng(seed)
    near = background.points[rng.integers(0, len(background), 100)]
    queried = near + rng.normal(scale=distance, size=near.shape)
    assert np.array_equal(prepared._candidates(queried),
                          candidates_oracle(prepared, queried))


def test_non_finite_cluster_distance_rejected():
    with pytest.raises(ConfigError,
                       match=r"^detector\.cluster_distance must be a "
                             r"finite number > 0, got nan$"):
        DetectorConfig(cluster_distance=math.nan)


class TestClusterEuclidean:
    def test_two_blobs(self, rng):
        a = rng.normal((0, 0, 1), 0.1, size=(50, 3))
        b = rng.normal((5, 0, 1), 0.1, size=(40, 3))
        clusters = cluster_euclidean(PointCloud(np.vstack([a, b])))
        assert len(clusters) == 2
        assert len(clusters[0]) == 50 and len(clusters[1]) == 40

    def test_chain_merges_to_one(self):
        chain = np.column_stack([np.arange(0, 10, 0.3),
                                 np.zeros(34), np.ones(34)])
        clusters = cluster_euclidean(PointCloud(chain))
        assert len(clusters) == 1

    def test_small_components_discarded(self, rng):
        a = rng.normal((0, 0, 1), 0.1, size=(50, 3))
        b = rng.normal((8, 0, 1), 0.05, size=(5, 3))  # below min_cluster_points
        clusters = cluster_euclidean(PointCloud(np.vstack([a, b])))
        assert len(clusters) == 1

    def test_matches_generator_labels(self, rng):
        blobs, labels = [], []
        for blob in range(10):
            center = np.array([6.0 * blob, 3.0 * (blob % 3), 1.0])
            count = int(rng.integers(20, 60))
            blobs.append(rng.normal(center, 0.15, size=(count, 3)))
            labels += [blob] * count
        cloud = PointCloud(np.vstack(blobs))
        clusters = cluster_euclidean(cloud)
        assert len(clusters) == 10
        # brute-force union-find over the generator labels
        sizes = sorted(np.bincount(labels).tolist())
        assert sorted(len(c) for c in clusters) == sizes

    def test_permutation_invariant(self, rng):
        points = np.vstack([rng.normal((0, 0, 1), 0.1, size=(40, 3)),
                            rng.normal((5, 5, 1), 0.1, size=(30, 3))])
        perm = rng.permutation(len(points))
        a = cluster_euclidean(PointCloud(points))
        b = cluster_euclidean(PointCloud(points[perm]))
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            sa = np.array(sorted(map(tuple, np.round(ca.points, 9))))
            sb = np.array(sorted(map(tuple, np.round(cb.points, 9))))
            np.testing.assert_array_equal(sa, sb)


class TestClusterPairBound:
    """A cloud whose linked pairs would pass MAX_CLUSTER_PAIRS is refused;
    the pairs are counted only when the cloud is large enough to pass it."""

    @pytest.fixture
    def counted(self, monkeypatch):
        counts = []

        class CountingTree(cKDTree):
            def count_neighbors(self, *args, **kwargs):
                counts.append(1)
                return super().count_neighbors(*args, **kwargs)

        monkeypatch.setattr(detector, "cKDTree", CountingTree)
        return counts

    def test_dense_blob_over_the_bound_raises(self, monkeypatch, counted, rng):
        blob = PointCloud(rng.uniform(0.0, 0.2, size=(100, 3)))
        monkeypatch.setattr(detector, "MAX_CLUSTER_PAIRS", 4949)
        with pytest.raises(TooManyPairsError, match=r"4950 pairs .*--crop"):
            cluster_euclidean(blob)
        assert counted == [1]

    def test_at_the_bound_nothing_is_counted(self, monkeypatch, counted, rng):
        blob = PointCloud(rng.uniform(0.0, 0.2, size=(100, 3)))
        monkeypatch.setattr(detector, "MAX_CLUSTER_PAIRS", 4950)
        [cluster] = cluster_euclidean(blob)
        assert len(cluster) == 100
        assert counted == []

    def test_sparse_cloud_over_the_size_passes(self, monkeypatch, counted):
        # 100 points 1 m apart: 4950 possible pairs, none linked
        line = np.column_stack([np.arange(100.0), np.zeros(100), np.zeros(100)])
        monkeypatch.setattr(detector, "MAX_CLUSTER_PAIRS", 10)
        assert cluster_euclidean(PointCloud(line)) == []
        assert counted == [1]


class TestFitOrientedBox:
    def test_axis_aligned_car(self, rng):
        points = box_surface((2.0, -1.0, 0.75), (4.0, 2.0, 1.5), 0.0, 800, rng)
        box = fit_oriented_box(PointCloud(points))
        assert yaw_error_mod_90(box.yaw, 0.0) < math.radians(2.0)
        np.testing.assert_allclose(box.size, [4.0, 2.0, 1.5], rtol=0.05)
        assert box.label is ObjectClass.CAR

    def test_rotated_box_recovers_yaw(self, rng):
        yaw = math.radians(30.0)
        points = box_surface((0.0, 0.0, 0.75), (4.0, 2.0, 1.5), yaw, 800, rng)
        box = fit_oriented_box(PointCloud(points))
        assert yaw_error_mod_90(box.yaw, yaw) < math.radians(2.0)

    def test_vertical_line_degenerate(self):
        line = np.column_stack([np.zeros(30), np.zeros(30),
                                np.linspace(0, 2, 30)])
        with pytest.raises(DegenerateClusterError):
            fit_oriented_box(PointCloud(line))

    def test_too_few_points_degenerate(self):
        with pytest.raises(DegenerateClusterError):
            fit_oriented_box(PointCloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))

    def test_rectangle_contains_all_bev_points(self, rng):
        for _ in range(10):
            yaw = float(rng.uniform(-math.pi, math.pi))
            size = rng.uniform([1.0, 0.5, 0.8], [5.0, 2.5, 2.0])
            points = box_surface(rng.uniform(-5, 5, 3), size, yaw, 300, rng)
            box = fit_oriented_box(PointCloud(points))
            rel = points[:, :2] - box.center[:2]
            c, s = math.cos(box.yaw), math.sin(box.yaw)
            local_x = rel[:, 0] * c + rel[:, 1] * s
            local_y = -rel[:, 0] * s + rel[:, 1] * c
            assert np.all(np.abs(local_x) <= 0.5 * box.length + 1e-6)
            assert np.all(np.abs(local_y) <= 0.5 * box.width + 1e-6)

    def test_pedestrian_sized_cluster(self, rng):
        points = box_surface((1.0, 1.0, 0.85), (0.5, 0.5, 1.7), 0.3, 120, rng)
        box = fit_oriented_box(PointCloud(points))
        assert box.label is ObjectClass.PEDESTRIAN

    @pytest.mark.parametrize("lift, reaches", [(0.5, True), (1.5, False),
                                               (-0.5, False)])
    def test_reaches_down_to_the_ground(self, rng, lift, reaches):
        """A box whose lowest point lies less than 1 m above GROUND_Z
        reaches down to it; one higher up, or below it, keeps its z range."""
        points = box_surface((0.0, 0.0, GROUND_Z + lift + 0.75),
                             (4.0, 2.0, 1.5), 0.0, 400, rng)
        box = fit_oriented_box(PointCloud(points))
        bottom = GROUND_Z if reaches else points[:, 2].min()
        assert box.center[2] - 0.5 * box.size[2] == \
            pytest.approx(bottom, abs=1e-9)
        assert box.center[2] + 0.5 * box.size[2] == \
            pytest.approx(points[:, 2].max(), abs=1e-9)

    def test_score_monotone_in_point_count(self, rng):
        points = box_surface((0, 0, 0.75), (4.0, 2.0, 1.5), 0.0, 400, rng)
        dense = fit_oriented_box(PointCloud(points))
        sparse = fit_oriented_box(PointCloud(points[:40]))
        assert dense.score > sparse.score


class TestDetectFrame:
    def subtracted_scene(self, rng, cars):
        """A frame of cars on the ground, less a scan of the empty ground as
        the background: the cloud detect_frame is given."""
        clouds = [ground_grid(noise=0.01, rng=rng)]
        for center, yaw in cars:
            clouds.append(box_surface((center[0], center[1], 0.75),
                                      (4.2, 1.9, 1.5), yaw, 500, rng))
        background = prepare_background(
            PointCloud(ground_grid(noise=0.01, rng=rng)))
        return subtract_background(PointCloud(np.vstack(clouds)), background)

    def test_empty_scene_no_detections(self, rng):
        cloud = self.subtracted_scene(rng, [])
        assert len(cloud) == 0
        assert detect_frame(cloud) == []

    def test_three_cars_found(self, rng):
        cars = [((5.0, 5.0), 0.3), ((-6.0, 2.0), -1.0), ((0.0, -8.0), 1.2)]
        cloud = self.subtracted_scene(rng, cars)
        # the subtraction took each car's lowest 0.5 m with the ground
        assert cloud.points[:, 2].min() > 0.4
        boxes = detect_frame(cloud)
        assert len(boxes) == 3
        assert all(b.label is ObjectClass.CAR for b in boxes)
        for box in boxes:
            assert box.center[2] - 0.5 * box.size[2] == \
                pytest.approx(GROUND_Z, abs=1e-9)
        for (cx, cy), _ in cars:
            nearest = min(np.linalg.norm(b.center[:2] - (cx, cy)) for b in boxes)
            assert nearest < 0.3

    def test_empty_cloud_ok(self):
        assert detect_frame(PointCloud.empty()) == []

    def test_seed_is_no_setting(self):
        with pytest.raises(TypeError):
            DetectorConfig(seed=0)
