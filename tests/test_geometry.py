import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from conftest import monte_carlo_iou_3d, random_box, random_transform
from mvlidar import geometry
from mvlidar.geometry import (
    Box3D,
    ObjectClass,
    PointCloud,
    RigidTransform,
    apply_transform,
    clip_convex_polygon,
    compose,
    iou_3d,
    linked_groups,
    may_overlap,
    polygon_area,
    voxel_downsample,
    wrap_angle,
    wrap_half_angle,
)
from mvlidar.geometry import _COUNTING_SPAN_PER_POINT, _lexicographic_key


def unit_cube(x=0.0, y=0.0, z=0.0, yaw=0.0, label=ObjectClass.CAR):
    return Box3D(center=(x, y, z), size=(1.0, 1.0, 1.0), yaw=yaw, label=label)


class TestTransforms:
    def test_identity_leaves_cloud_unchanged(self, rng):
        cloud = PointCloud(rng.normal(size=(50, 3)), intensity=rng.random(50))
        out = apply_transform(RigidTransform.identity(), cloud)
        np.testing.assert_array_equal(out.points, cloud.points)
        np.testing.assert_array_equal(out.intensity, cloud.intensity)

    def test_pure_translation(self):
        t = RigidTransform(np.eye(3), (1.0, 0.0, 0.0))
        out = apply_transform(t, PointCloud([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.points, [[1.0, 0.0, 0.0]])

    def test_quarter_turn_about_z(self):
        t = RigidTransform.from_yaw(math.pi / 2)
        np.testing.assert_allclose(t.apply(np.array([1.0, 0.0, 0.0])),
                                   [0.0, 1.0, 0.0], atol=1e-12)

    def test_compose_identity(self, rng):
        t = random_transform(rng)
        out = compose(RigidTransform.identity(), t)
        np.testing.assert_allclose(out.rotation, t.rotation)
        np.testing.assert_allclose(out.translation, t.translation)

    def test_compose_with_inverse_is_identity(self, rng):
        t = random_transform(rng)
        out = compose(t, t.inverse())
        np.testing.assert_allclose(out.rotation, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(out.translation, np.zeros(3), atol=1e-9)

    def test_compose_of_z_rotations_adds_angles(self):
        a = RigidTransform.from_yaw(math.radians(30))
        b = RigidTransform.from_yaw(math.radians(60))
        out = compose(a, b)
        np.testing.assert_allclose(out.rotation,
                                   RigidTransform.from_yaw(math.pi / 2).rotation,
                                   atol=1e-12)

    def test_compose_matches_sequential_application(self, rng):
        a, b = random_transform(rng), random_transform(rng)
        p = rng.normal(size=(20, 3))
        np.testing.assert_allclose(compose(a, b).apply(p), a.apply(b.apply(p)),
                                   atol=1e-9)

    def test_compose_associative(self, rng):
        a, b, c = (random_transform(rng) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        np.testing.assert_allclose(left.rotation, right.rotation, atol=1e-9)
        np.testing.assert_allclose(left.translation, right.translation, atol=1e-9)

    def test_distances_preserved(self, rng):
        t = random_transform(rng)
        p, q = rng.normal(size=(2, 40, 3), scale=8.0)
        before = np.linalg.norm(p - q, axis=1)
        after = np.linalg.norm(t.apply(p) - t.apply(q), axis=1)
        np.testing.assert_allclose(after, before, atol=1e-9)

    def test_improper_rotation_rejected(self):
        reflection = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidTransform(reflection, np.zeros(3))


class TestPointCloud:
    def test_mismatched_attribute_length_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((4, 3)), intensity=np.zeros(3))

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((1, 3)), timestamp_ns=-1)

    def test_nonfinite_point_rejected(self):
        with pytest.raises(ValueError):
            PointCloud([[0.0, np.nan, 0.0]])


class TestConcatenate:
    def part(self, rng, n, **attributes):
        return PointCloud(rng.normal(size=(n, 3)), **{
            name: rng.integers(0, 5, n) for name in attributes})

    def test_attribute_kept_only_when_every_non_empty_part_has_it(self, rng):
        a = self.part(rng, 4, intensity=1, source_ids=1)
        b = self.part(rng, 3, intensity=1)
        merged = PointCloud.concatenate([a, PointCloud.empty(), b])
        np.testing.assert_array_equal(merged.points,
                                      np.concatenate([a.points, b.points]))
        np.testing.assert_array_equal(
            merged.intensity, np.concatenate([a.intensity, b.intensity]))
        assert merged.source_ids is None

    def test_tag_overrides_the_parts_attribute(self, rng):
        a = self.part(rng, 2, source_ids=1)
        b = self.part(rng, 3, source_ids=1)
        merged = PointCloud.concatenate([a, PointCloud.empty(), b],
                                        timestamp_ns=9, source_node=1,
                                        source_ids=[5, 6, 7])
        np.testing.assert_array_equal(merged.source_ids, [5, 5, 7, 7, 7])
        assert (merged.timestamp_ns, merged.source_node) == (9, 1)

    @pytest.mark.parametrize("parts", [0, 1, 3])
    def test_empty_parts_give_an_empty_cloud(self, parts):
        merged = PointCloud.concatenate([PointCloud.empty()] * parts,
                                        timestamp_ns=4,
                                        source_ids=range(parts))
        assert merged.points.shape == (0, 3) and merged.timestamp_ns == 4
        assert merged.intensity is merged.source_ids is None

    def test_unknown_keyword_is_a_type_error(self):
        with pytest.raises(TypeError):
            PointCloud.concatenate([PointCloud.empty()], node=[0])


_BLOCK = geometry._TRANSFORM_BLOCK_ROWS


@settings(max_examples=40, deadline=None)
@given(rows=st.sampled_from([0, 1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                             _BLOCK + 2, 2 * _BLOCK - 1, 2 * _BLOCK,
                             2 * _BLOCK + 1, 3 * _BLOCK + 1])
       | st.integers(0, 3 * _BLOCK),
       layout=st.sampled_from(["contiguous", "strided", "fortran"]),
       seed=st.integers(0, 2**32 - 1))
def test_blocked_apply_equals_the_full_product(rows, layout, seed):
    """``apply`` multiplies row blocks; every bit is the one-product
    ``pts @ rotation.T + translation``, on row counts around the block
    edges and on strided input."""
    rng = np.random.default_rng(seed)
    transform = random_transform(rng, max_translation=100.0)
    table = rng.normal(scale=50.0, size=(2 * rows, 5))
    points = {"contiguous": table[:rows, :3],
              "strided": table[::2, 1:4],
              "fortran": np.asfortranarray(table[:rows, :3])}[layout]
    full = points @ transform.rotation.T + transform.translation
    blocked = transform.apply(points)
    assert blocked.shape == full.shape
    assert blocked.tobytes() == full.tobytes()


def linked_groups_csgraph(n, pairs):
    """Oracle: connected components by ``scipy.sparse.csgraph``, labelled
    in the order of their smallest member."""
    if n == 0:
        return []
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    graph = coo_matrix((np.ones(len(pairs), dtype=bool),
                        (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def linked_groups_oracle(n, pairs):
    """Union-find whose root is always the smallest member."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in pairs:
        ri, rj = find(i), find(j)
        parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[root] for root in sorted(groups)]


@st.composite
def linked_items(draw):
    n = draw(st.integers(0, 40))
    if n == 0:
        return 0, []
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=60))
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=5)) \
        if pairs else []
    return n, pairs + repeats


@settings(max_examples=200, deadline=None)
@given(linked_items())
@example((0, []))
@example((5, []))
@example((4, [(3, 1), (1, 3), (3, 1), (2, 2)]))
def test_linked_groups_match_union_find(items):
    n, pairs = items
    groups = linked_groups(n, pairs)
    assert [group.tolist() for group in groups] == \
        linked_groups_oracle(n, pairs)


@st.composite
def linked_chains(draw):
    """Chains over a drawn order of up to 400 items, each link given
    forwards or backwards, in a drawn order, some links repeated."""
    n = draw(st.integers(1, 400))
    items = draw(st.permutations(range(n)))
    links = [(a, b) if draw(st.booleans()) else (b, a)
             for a, b in zip(items, items[1:])
             if draw(st.integers(0, 9))]        # a few cuts
    order = draw(st.sampled_from(["forward", "reversed", "shuffled"]))
    if order == "reversed":
        links.reverse()
    elif order == "shuffled":
        links = draw(st.permutations(links))
    return n, links + links[:draw(st.integers(0, 3))]


@settings(max_examples=200, deadline=None)
@given(st.one_of(linked_items(), linked_chains()))
@example((0, []))
@example((1, [(0, 0)]))
@example((6, [(5, 4), (4, 3), (3, 2), (2, 1), (1, 0)]))
@example((6, [(0, 5), (5, 0), (0, 5), (2, 2), (3, 1)]))
def test_linked_groups_match_csgraph(items):
    n, pairs = items
    groups = linked_groups(n, pairs)
    want = linked_groups_csgraph(n, pairs)
    assert len(groups) == len(want)
    for group, expected in zip(groups, want):
        assert group.dtype == expected.dtype
        assert np.array_equal(group, expected)


@pytest.mark.parametrize("n", [2_000, 100_000])
def test_linked_groups_long_chains(n):
    # reversed: every hook lands on the item before, the deepest tree
    chain = np.column_stack([np.arange(n - 1, 0, -1),
                             np.arange(n - 2, -1, -1)])
    groups = linked_groups(n + 1, chain)
    assert [group.tolist() for group in groups] == [list(range(n)), [n]]


@pytest.mark.parametrize("pairs", [[(0, 3)], [(-1, 0)], [(2, 1), (1, 7)]])
def test_linked_groups_refuse_unknown_items(pairs):
    with pytest.raises(ValueError):
        linked_groups(3, pairs)


class TestIou3d:
    def test_self_iou_is_one(self, rng):
        for _ in range(20):
            box = random_box(rng)
            assert iou_3d(box, box) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_boxes(self):
        assert iou_3d(unit_cube(), unit_cube(x=10.0)) == 0.0

    def test_half_overlapping_unit_cubes(self):
        # oracle: Monte-Carlo point sampling; analytic value 0.5/1.5 = 1/3
        assert iou_3d(unit_cube(), unit_cube(x=0.5)) == pytest.approx(1.0 / 3.0,
                                                                      abs=1e-6)

    def test_symmetric(self, rng):
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            assert iou_3d(a, b) == pytest.approx(iou_3d(b, a), abs=1e-12)

    def test_bounded(self, rng):
        for _ in range(200):
            a = random_box(rng)
            b = random_box(rng, span=2.0)
            assert 0.0 <= iou_3d(a, b) <= 1.0

    def test_square_footprint_quarter_turn_symmetry(self):
        a = Box3D((0, 0, 0), (2.0, 2.0, 1.0), 0.0, ObjectClass.CAR)
        b = Box3D((0, 0, 0), (2.0, 2.0, 1.0), math.pi / 2, ObjectClass.CAR)
        assert iou_3d(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_matches_monte_carlo_oracle(self, rng):
        # denser acceptance run over 1000 pairs lives in test_acceptance
        for _ in range(100):
            a = random_box(rng, span=2.0)
            b = random_box(rng, span=2.0)
            assert iou_3d(a, b) == pytest.approx(
                monte_carlo_iou_3d(a, b, rng), abs=2e-3)

    def test_vertical_offset_only(self):
        a = unit_cube()
        b = unit_cube(z=0.5)
        # footprint identical, half vertical overlap
        assert iou_3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)


def clipped_area(a, b):
    """The footprint of ``a`` clipped by that of ``b``."""
    return polygon_area(clip_convex_polygon(a.bev_corners(), b.bev_corners()))


def footprint_iou(a, b):
    """BEV IoU of two footprints from ``clipped_area``."""
    inter = clipped_area(a, b)
    union = a.length * a.width + b.length * b.width - inter
    return 0.0 if union <= 0.0 else min(1.0, max(0.0, inter / union))


class TestIouBev:
    """``clipped_area`` against hand-computed footprint IoUs."""

    def test_identical(self):
        assert footprint_iou(unit_cube(), unit_cube(z=100.0)) == \
            pytest.approx(1.0)

    def test_disjoint(self):
        assert footprint_iou(unit_cube(), unit_cube(y=5.0)) == 0.0

    def test_offset_squares(self):
        # oracle: shoelace on hand-clipped vertices -> 0.5 / 1.5
        assert footprint_iou(unit_cube(), unit_cube(x=0.5)) == \
            pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_rotated_square_cross(self):
        # 45deg-rotated unit square over unit square: octagon, area 2(sqrt2 - 1)
        a = unit_cube()
        b = unit_cube(yaw=math.pi / 4)
        inter = 2.0 * (math.sqrt(2.0) - 1.0)
        assert footprint_iou(a, b) == pytest.approx(inter / (2.0 - inter),
                                                    abs=1e-9)


_CENTRE = st.one_of(st.floats(-100.0, 100.0), st.floats(-1e12, 1e12))
_SIDE = st.floats(1e-3, 1e4)
_YAW = st.floats(-math.pi, math.pi)


def nudged(value, ulps):
    for _ in range(abs(ulps)):
        value = float(np.nextafter(value, math.copysign(math.inf, ulps)))
    return value


@st.composite
def box_pairs(draw):
    """Two boxes: drawn apart, edge to edge, with circumscribed circles
    tangent to within a few ulps, nested, identical or far apart."""
    x, y, yaw = draw(_CENTRE), draw(_CENTRE), draw(_YAW)
    length, width = draw(_SIDE), draw(_SIDE)
    z, height = draw(st.floats(-2.0, 2.0)), draw(_SIDE)
    a = Box3D((x, y, z), (length, width, height), yaw, ObjectClass.CAR)
    kind = draw(st.sampled_from(
        ["apart", "touching", "tangent", "nested", "identical", "far"]))
    b_length, b_width = draw(_SIDE), draw(_SIDE)
    b_yaw = draw(_YAW)
    c, s = math.cos(yaw), math.sin(yaw)
    if kind == "apart":
        bx, by = draw(_CENTRE), draw(_CENTRE)
    elif kind == "touching":
        # same heading up to quarter turns, one edge of b on one edge of a
        quarter_turns = draw(st.integers(0, 3))
        b_yaw = yaw + quarter_turns * 0.5 * math.pi
        along = 0.5 * (length + (b_width if quarter_turns % 2 else b_length))
        # edges flush, or b pushed a little into a
        along -= draw(st.one_of(st.just(0.0), st.floats(0.0, 1e-3)))
        slide = draw(st.floats(-1.0, 1.0)) * (width + b_width)
        along *= draw(st.sampled_from([1.0, -1.0]))
        bx, by = x + c * along - s * slide, y + s * along + c * slide
    elif kind == "tangent":
        reach = 0.5 * (math.hypot(length, width) + math.hypot(b_length, b_width))
        reach += draw(st.one_of(st.sampled_from([0.0, 1e-6, 2e-6, 1e-5]),
                                st.floats(-1e-3, 1e-3), st.floats(0.0, 10.0)))
        angle = draw(_YAW)
        if draw(st.booleans()):
            # a corner of each on the line between the centres
            angle = yaw + math.atan2(width, length)
            b_yaw = angle + math.pi - math.atan2(b_width, b_length)
        bx, by = x + reach * math.cos(angle), y + reach * math.sin(angle)
    elif kind == "nested":
        b_length = length * draw(st.floats(0.01, 1.0))
        b_width = width * draw(st.floats(0.01, 1.0))
        b_yaw = yaw
        bx, by = x, y
    elif kind == "identical":
        return a, a
    else:
        distance = draw(st.floats(1e3, 1e12))
        angle = draw(_YAW)
        bx, by = x + distance * math.cos(angle), y + distance * math.sin(angle)
    bx = nudged(bx, draw(st.integers(-3, 3)))
    by = nudged(by, draw(st.integers(-3, 3)))
    b = Box3D((bx, by, draw(st.floats(-2.0, 2.0))),
              (b_length, b_width, draw(_SIDE)), b_yaw, ObjectClass.CAR)
    return a, b


def same_float(actual, expected):
    return actual.hex() == float(expected).hex()


class TestFootprintCull:
    """The clip that ``may_overlap`` stands in front of, on pairs at the
    edge of the cull."""

    def test_crossings_stay_on_their_segment(self):
        # a's long edges lie on the lines of b's, 1 km beyond b; rounding
        # once put a crossing 11 km away and left a 5.6e-9 m^2 sliver
        a = Box3D((6607.633166090767, 2500.002278757627, 0.0),
                  (1.0, 5493.0, 1.0), 2.0, ObjectClass.CAR)
        b = Box3D((0.0, 0.0, 0.0), (952.0, 7396.0, 1.0), 2.0, ObjectClass.CAR)
        corners = a.bev_corners()
        clipped = clip_convex_polygon(corners, b.bev_corners())
        assert np.all(clipped >= corners.min(axis=0))
        assert np.all(clipped <= corners.max(axis=0))
        assert clipped_area(a, b) == 0.0

    @pytest.mark.parametrize("size", [1e-300, 1e-5])
    def test_footprint_too_small_for_its_corners_is_clipped(self, size):
        # at 1e12 m the corners of a 1e-5 m footprint round onto each other
        b = Box3D((1e12, 0.0, 0.0), (size, size, 1.0), 0.0, ObjectClass.CAR)
        a = Box3D((1e12 - 50.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.3,
                  ObjectClass.CAR)
        assert may_overlap([a], [b])[0, 0]


@st.composite
def overlap_pairs(draw):
    """``box_pairs``, some of another class, with a thin clip footprint or
    beyond ``_CULL_MAX_SCALE``."""
    a, b = draw(box_pairs())
    if draw(st.booleans()):
        thin = draw(st.sampled_from([1e-300, 1e-12, 1e-7, 1e-5]))
        b = replace(b, size=(b.size[0], thin, b.size[2]))
    shift = draw(st.sampled_from([0.0, 0.0, 0.0, 1e100, -3e100, 1e110]))
    if shift:
        a, b = (replace(box, center=box.center + (shift, -shift, 0.0))
                for box in (a, b))
    if draw(st.integers(0, 4)) == 0:
        b = replace(b, label=ObjectClass.PEDESTRIAN)
    return a, b


class TestMayOverlap:
    """``may_overlap`` masks out a pair only where the classes differ or
    ``iou_3d`` is sure to be 0.0: the vertical extents miss, or the clip
    of the footprints keeps nothing."""

    @settings(max_examples=600, deadline=None)
    @given(pair=overlap_pairs())
    def test_masked_pairs_clip_to_zero(self, pair):
        for a, b in (pair, pair[::-1]):
            kept = bool(may_overlap([a], [b])[0, 0])
            vertical = min(a.z_max, b.z_max) - max(a.z_min, b.z_min)
            event("kept" if kept else "masked, heights miss"
                  if vertical <= 0.0 else "masked, footprints apart")
            if kept or a.label is not b.label:
                continue
            assert same_float(iou_3d(a, b), 0.0)
            if vertical > 0.0:
                assert same_float(clipped_area(a, b), 0.0)

    @settings(max_examples=100, deadline=None)
    @given(boxes=st.lists(overlap_pairs(), max_size=4), data=st.data())
    def test_pairs_pick_from_the_full_mask(self, boxes, data):
        first = [a for a, _ in boxes]
        second = [b for _, b in boxes] + first[:1]
        full = may_overlap(first, second)
        assert full.shape == (len(first), len(second))
        cells = st.tuples(st.integers(0, max(len(first) - 1, 0)),
                          st.integers(0, max(len(second) - 1, 0)))
        pairs = data.draw(st.lists(cells, max_size=8)) if first else []
        picked = may_overlap(first, second, pairs)
        assert picked.shape == (len(pairs),)
        assert picked.tolist() == [bool(full[i, j]) for i, j in pairs]

    def test_hypot_rounding_bound(self):
        # unit squares whose circles are the 1e-6 m margin, the clip's
        # 2e-12 m tolerance and ``beyond`` apart, where one rounding is
        # 2**-40 * 2 * sqrt(2), about 2.6e-12 m: the mask allows 3
        reach = math.hypot(1.0, 1.0) + 1e-6 + 2e-12
        a = unit_cube()
        for beyond, kept in ((6.5e-12, True), (9e-12, False)):
            b = unit_cube(x=reach + beyond)
            assert may_overlap([a], [b])[0, 0] == kept

    @pytest.mark.parametrize("offset", [7.2e-5, 9e-5])
    def test_clip_tolerance_reaches_past_the_circle(self, offset):
        # the clip keeps points up to 1e-12 / 1e-8 m outside each edge of
        # b, so near b's corners up to sqrt(2) times that outside its
        # circle: one such tolerance in the mask would drop these pairs
        a = Box3D((offset, offset, 0.0), (1e-8, 1e-8, 1.0), 0.0,
                  ObjectClass.CAR)
        b = Box3D((0.0, 0.0, 0.0), (1e-8, 1e-8, 1.0), 0.0, ObjectClass.CAR)
        assert clipped_area(a, b) > 0.0
        assert may_overlap([a], [b])[0, 0]

    def test_what_the_mask_drops(self):
        car = unit_cube()
        # circles 5e-7 m apart, within the 1e-6 m margin, and 2e-6 m apart
        touching = math.hypot(1.0, 1.0)
        assert may_overlap([car], [unit_cube(x=0.5), unit_cube(x=10.0),
                                   unit_cube(z=1.0), unit_cube(z=0.999),
                                   unit_cube(label=ObjectClass.CYCLIST),
                                   unit_cube(y=touching + 5e-7),
                                   unit_cube(y=touching + 2e-6)]
                           ).tolist() == [[True, False, False, True, False,
                                           True, False]]
        assert may_overlap([], [car]).shape == (0, 1)
        assert may_overlap([car], [], []).shape == (0,)

    def test_beyond_the_cull_scale_every_pair_is_kept(self):
        far = 2.0 * geometry._CULL_MAX_SCALE
        a = unit_cube(x=far)
        assert may_overlap([a], [unit_cube(x=far + 1e90)])[0, 0]


class TestVoxelDownsample:
    def test_empty(self):
        out = voxel_downsample(PointCloud.empty(), 0.5)
        assert len(out) == 0

    def test_two_points_one_voxel(self):
        cloud = PointCloud([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
        out = voxel_downsample(cloud, 1.0)
        assert len(out) == 1
        np.testing.assert_allclose(out.points, [[0.05, 0.0, 0.0]])

    def test_output_voxel_keys_unique(self, rng):
        cloud = PointCloud(rng.uniform(-5.0, 5.0, size=(1000, 3)))
        out = voxel_downsample(cloud, 0.2)
        keys = np.floor(out.points / 0.2).astype(np.int64)
        # brute-force check: no two outputs share a voxel key
        assert len(np.unique(keys, axis=0)) == len(out)

    def test_permutation_invariant(self, rng):
        points = rng.uniform(-3.0, 3.0, size=(500, 3))
        perm = rng.permutation(500)
        a = voxel_downsample(PointCloud(points), 0.4)
        b = voxel_downsample(PointCloud(points[perm]), 0.4)
        np.testing.assert_allclose(a.points, b.points, atol=1e-12)

    def test_boundary_point_goes_to_floor_voxel(self):
        cloud = PointCloud([[1.0, 0.0, 0.0], [0.999, 0.0, 0.0]])
        out = voxel_downsample(cloud, 1.0)
        assert len(out) == 2

    def test_intensity_averaged(self):
        cloud = PointCloud([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0]],
                           intensity=[10.0, 30.0])
        out = voxel_downsample(cloud, 1.0)
        np.testing.assert_allclose(out.intensity, [20.0])


def voxel_downsample_oracle(cloud, voxel_size):
    """The row-sorting, scatter-adding kernel ``voxel_downsample`` replaced."""
    keys = np.floor(cloud.points / voxel_size).astype(np.int64)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True,
                                   return_counts=True)
    inverse = inverse.reshape(-1)
    sums = np.zeros((len(counts), 3))
    np.add.at(sums, inverse, cloud.points)
    intensity = None
    if cloud.intensity is not None:
        intensity = np.zeros(len(counts))
        np.add.at(intensity, inverse, cloud.intensity)
        intensity = intensity / counts

    def int_min(values):
        if values is None:
            return None
        out = np.full(len(counts), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(out, inverse, values)
        return out

    return PointCloud(sums / counts[:, None], intensity=intensity,
                      timestamp_ns=cloud.timestamp_ns,
                      source_ids=int_min(cloud.source_ids),
                      source_node=cloud.source_node)


def assert_clouds_identical(a, b):
    assert a.points.dtype == b.points.dtype
    assert np.array_equal(a.points, b.points)
    for name in ("intensity", "source_ids"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert (a.timestamp_ns, a.source_node) == (b.timestamp_ns, b.source_node)


# quarter-voxel lattice coordinates land on voxel boundaries and repeat;
# free floats fill everything in between
_COORDINATE = st.one_of(st.integers(-64, 64).map(lambda k: 0.25 * k),
                        st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def attributed_clouds(draw):
    points = draw(st.lists(st.tuples(_COORDINATE, _COORDINATE, _COORDINATE),
                           min_size=1, max_size=60))
    repeats = draw(st.lists(st.integers(0, len(points) - 1), max_size=10))
    points += [points[i] for i in repeats]
    n = len(points)

    def maybe(values):
        return draw(st.one_of(st.none(),
                              st.lists(values, min_size=n, max_size=n)))

    return PointCloud(points,
                      intensity=maybe(st.floats(0.0, 255.0)),
                      timestamp_ns=draw(st.integers(0, 10**12)),
                      source_ids=maybe(st.integers(0, 3)),
                      source_node=draw(st.one_of(st.none(), st.integers(0, 3))))


@st.composite
def clouds_by_key_span(draw):
    """A cloud, a voxel size and the span ``key.max() + 1`` of the cloud's
    voxel keys, drawn below, at and above the counting limit of 4 per
    point. Drawn keys decode to cells over (x, y, z) spans (any, sy, sz);
    the cells of keys 0 and sy * sz - 1 fix each column's minimum and the
    y and z spans, so the packed key of every cell is its drawn key.
    Dyadic offsets and voxel sizes keep every floor exact."""
    n = draw(st.integers(1, 40))
    limit = _COUNTING_SPAN_PER_POINT * n
    span = 1 if n == 1 else draw(st.sampled_from([limit - 1, limit, limit + 1])
                                 | st.integers(2, 3 * limit))
    sy, sz = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if n < 3 or span < sy * sz:
        sy = sz = 1
    forced = sorted({0, sy * sz - 1, span - 1})
    keys = np.array(forced + draw(st.lists(st.integers(0, span - 1),
                                           min_size=n - len(forced),
                                           max_size=n - len(forced))))
    cells = np.stack([keys // (sy * sz), keys // sz % sy, keys % sz], axis=1)
    origin = np.array(draw(st.tuples(*[st.integers(-60, 60)] * 3)))
    offsets = np.array(draw(st.lists(st.tuples(*[st.integers(0, 7)] * 3),
                                     min_size=n, max_size=n))) / 8.0
    voxel_size = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))

    def maybe(values):
        return draw(st.one_of(st.none(),
                              st.lists(values, min_size=n, max_size=n)))

    cloud = PointCloud((cells + origin + offsets) * voxel_size,
                       intensity=maybe(st.floats(0.0, 255.0)),
                       timestamp_ns=draw(st.integers(0, 10**12)),
                       source_ids=maybe(st.integers(0, 3)),
                       source_node=draw(st.one_of(st.none(),
                                                  st.integers(0, 3))))
    return cloud, voxel_size, span


class TestVoxelDownsampleOracle:
    """Bit-for-bit agreement with the ``np.unique(axis=0)`` kernel."""

    CASES = {
        "negative": [[-0.1, -2.6, -7.9], [-0.2, -2.7, -7.95], [-3.0, 1.0, 2.0]],
        "boundaries": [[1.0, 0.0, 0.0], [0.999, 0.0, 0.0], [-1.0, -1.0, 2.0],
                       [-0.5, 0.5, 1.5], [0.0, 0.0, 0.0]],
        "duplicates": [[0.3, 0.3, 0.3]] * 4 + [[0.7, 0.1, 0.2]] * 3,
        "single point": [[12.5, -3.25, 0.75]],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_named_case(self, case):
        cloud = PointCloud(self.CASES[case])
        for voxel_size in (0.1, 0.5, 1.0):
            assert_clouds_identical(voxel_downsample(cloud, voxel_size),
                                    voxel_downsample_oracle(cloud, voxel_size))

    def test_all_attributes(self, rng):
        n = 2000
        cloud = PointCloud(rng.uniform(-6.0, 6.0, size=(n, 3)),
                           intensity=rng.uniform(0.0, 100.0, n),
                           timestamp_ns=7, source_ids=rng.integers(0, 4, n),
                           source_node=2)
        assert_clouds_identical(voxel_downsample(cloud, 0.7),
                                voxel_downsample_oracle(cloud, 0.7))

    @settings(max_examples=150, deadline=None)
    @given(cloud=attributed_clouds(),
           voxel_size=st.sampled_from([0.1, 0.25, 0.5, 1.0, 3.0]))
    def test_matches_oracle(self, cloud, voxel_size):
        assert_clouds_identical(voxel_downsample(cloud, voxel_size),
                                voxel_downsample_oracle(cloud, voxel_size))

    @settings(max_examples=200, deadline=None)
    @given(case=clouds_by_key_span())
    def test_counted_and_sorted_grids_match_oracle(self, case):
        cloud, voxel_size, span = case
        cells = np.floor(cloud.points / voxel_size).astype(np.int64)
        assert int(_lexicographic_key(cells).max()) + 1 == span
        assert_clouds_identical(voxel_downsample(cloud, voxel_size),
                                voxel_downsample_oracle(cloud, voxel_size))

    @pytest.mark.parametrize("extent", [1e6, 1e15])
    def test_overflowing_key_packs_in_stages(self, rng, extent):
        # +-1000 km at 1 mm voxels needs 2e9 indices per axis, so the three
        # spans multiply past int64; at +-1e15 m two spans already do. The
        # 0.1 mm offsets mostly share a voxel (and vanish at 1e15 m)
        voxel_size = 1e-3
        centers = rng.uniform(-extent, extent, size=(300, 3))
        points = np.concatenate([centers, centers + 1e-4])
        cells = np.floor(points / voxel_size).astype(np.int64)
        spans = [int(c.max()) - int(c.min()) + 1 for c in cells.T]
        assert math.prod(spans) > np.iinfo(np.int64).max
        cloud = PointCloud(points, intensity=rng.uniform(0.0, 1.0, 600))
        out = voxel_downsample(cloud, voxel_size)
        assert_clouds_identical(out, voxel_downsample_oracle(cloud, voxel_size))
        assert len(out) < len(points)

    def test_unrepresentable_voxel_index_rejected(self):
        with pytest.raises(ValueError):
            voxel_downsample(PointCloud([[1e17, 0.0, 0.0]]), 1e-3)


class TestAngles:
    @pytest.mark.parametrize("angle,expected", [
        (0.0, 0.0),
        (math.pi, math.pi),
        (-math.pi, math.pi),
        (3 * math.pi / 2, -math.pi / 2),
        (2 * math.pi, 0.0),
    ])
    def test_wrap_angle(self, angle, expected):
        assert wrap_angle(angle) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("angle,expected", [
        (0.0, 0.0),
        (math.pi, 0.0),
        (math.pi / 2, math.pi / 2),
        (-math.pi / 2, math.pi / 2),
        (0.6 * math.pi, -0.4 * math.pi),
    ])
    def test_wrap_half_angle(self, angle, expected):
        assert wrap_half_angle(angle) == pytest.approx(expected, abs=1e-12)


class TestBoxValidation:
    def test_yaw_normalized(self):
        box = unit_cube(yaw=2 * math.pi + 0.3)
        assert box.yaw == pytest.approx(0.3)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            Box3D((0, 0, 0), (0.0, 1.0, 1.0), 0.0, ObjectClass.CAR)

    def test_label_coerced_from_string(self):
        assert unit_cube(label="Pedestrian").label is ObjectClass.PEDESTRIAN


# ---------------------------------------------------------------------------
# row kernels on (x, y, z) columns
# ---------------------------------------------------------------------------

# every kind of float64: signed zeros, subnormals, infinities, NaNs, and
# magnitudes out to 1e+-300 next to ordinary ones
ANY_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300,
                     -1e-300]),
    st.floats(-1e3, 1e3))


@st.composite
def row_pairs(draw):
    """Two (N, 3) float64 arrays; half the time their rows repeat each
    other's entries up to sign, so dot and cross products cancel exactly."""
    n = draw(st.integers(0, 16))
    entries = st.lists(ANY_FLOAT, min_size=3 * n, max_size=3 * n)
    a = np.array(draw(entries), dtype=float).reshape(n, 3)
    b = np.array(draw(entries), dtype=float).reshape(n, 3)
    if n and draw(st.booleans()):
        b = a[:, draw(st.permutations([0, 1, 2]))] * draw(
            st.sampled_from([1.0, -1.0]))
    # einsum's order depends on the layout: rows of adjacent entries
    return np.ascontiguousarray(a), np.ascontiguousarray(b)


def same_bits(actual, expected) -> bool:
    """Equal int64 views where numpy's result is a number, and NaN where it
    is NaN: which NaN numpy returns depends on where a row falls in its
    vector loops."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    nan = np.isnan(expected)
    return (actual.shape == expected.shape
            and np.array_equal(np.isnan(actual), nan)
            and np.array_equal(actual[~nan].view(np.int64),
                               expected[~nan].view(np.int64)))


class TestRowKernels:
    """Each column kernel gives numpy's own bits on (N, 3) rows."""

    @settings(max_examples=200, deadline=None)
    @given(rows=row_pairs())
    def test_norms(self, rows):
        a, _ = rows
        with np.errstate(all="ignore"):
            assert same_bits(geometry.xyz_norms(a.T.copy()),
                             np.linalg.norm(a, axis=1))

    @settings(max_examples=200, deadline=None)
    @given(rows=row_pairs())
    def test_squared_norms(self, rows):
        """Contiguous columns, and the strided (3, T, M) view of a
        (T, M, 3) stack as RANSAC scoring passes it."""
        a, b = rows
        with np.errstate(all="ignore"):
            assert same_bits(geometry.xyz_sq_norms(a.T.copy()),
                             np.sum(a ** 2, axis=1))
            stack = np.stack([a, b, a[::-1]])
            assert same_bits(geometry.xyz_sq_norms(np.moveaxis(stack, 2, 0)),
                             np.sum(stack ** 2, axis=2))

    @settings(max_examples=200, deadline=None)
    @given(rows=row_pairs())
    def test_dots_of_adjacent_entries(self, rows):
        a, b = rows
        with np.errstate(all="ignore"):
            assert same_bits(geometry.xyz_dots(a.T.copy(), b.T.copy()),
                             np.einsum("ij,ij->i", a, b))

    @settings(max_examples=200, deadline=None)
    @given(rows=row_pairs())
    def test_dots_of_strided_entries(self, rows):
        """einsum adds strided rows in the order (0, 1, 2), which swapped
        columns give (the flip test of ``estimate_normals``)."""
        a, b = rows
        strided = np.repeat(a, 3, axis=1)[:, ::3]
        assert strided.strides[1] != strided.itemsize
        with np.errstate(all="ignore"):
            assert same_bits(
                geometry.xyz_dots(a.T[[0, 2, 1]], b.T[[0, 2, 1]]),
                np.einsum("ij,ij->i", strided, b))

    @settings(max_examples=200, deadline=None)
    @given(rows=row_pairs())
    def test_cross(self, rows):
        a, b = rows
        with np.errstate(all="ignore"):
            assert same_bits(np.stack(geometry.xyz_cross(a.T.copy(),
                                                         b.T.copy()), axis=1)
                             .reshape(-1, 3), np.cross(a, b).reshape(-1, 3))

    def test_negative_zero_dot_is_positive(self):
        """einsum turns a -0.0 sum into +0.0, which decides the sign of
        FPFH's ``arctan2`` at a cosine below 0."""
        a, b = np.array([[-0.0, -0.0, -0.0]]), np.array([[1.0, 1.0, 1.0]])
        dot = geometry.xyz_dots(a.T, b.T)
        assert same_bits(dot, np.einsum("ij,ij->i", a, b))
        assert same_bits(dot, np.array([0.0]))
        assert np.arctan2(dot, -1.0)[0] == math.pi

    @settings(max_examples=100, deadline=None)
    @given(rows=row_pairs())
    def test_single_vectors(self, rows):
        """On lone (3,) vectors the kernels give numpy scalars of the same
        bits, as ``look_at_orientation`` and the ground fit use them."""
        a, b = rows
        with np.errstate(all="ignore"):
            for u, v in zip(a, b):
                assert same_bits(np.array(geometry.xyz_cross(u, v)),
                                 np.cross(u, v))
