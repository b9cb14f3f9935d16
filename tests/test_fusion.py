import math
import re
from dataclasses import fields as dataclass_fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fused_cloud, random_transform
from mvlidar.errors import TimestampSkewError
from mvlidar.fusion import (
    BoxCluster,
    ViewFrameSet,
    average_fuse,
    cluster_boxes,
    early_fuse,
    fuse_window,
    late_fuse,
    nms_fuse,
    temporal_integrate,
)
from mvlidar.geometry import Box3D, ObjectClass, PointCloud, RigidTransform, \
    apply_transform


def box(x=0.0, y=0.0, z=0.0, yaw=0.0, size=(4.0, 2.0, 1.5),
        label=ObjectClass.CAR, score=0.5):
    return Box3D((x, y, z), size, yaw, label, score=score)


def cloud(points, node=None, t_ns=0):
    return PointCloud(points, timestamp_ns=t_ns, source_node=node)


class TestEarlyFuse:
    def test_single_view_identity_extrinsic(self, rng):
        frame = cloud(rng.normal(size=(100, 3)), node=0)
        fused = early_fuse(ViewFrameSet(frames={0: frame},
                                        extrinsics={0: RigidTransform.identity()}))
        np.testing.assert_array_equal(fused.points, frame.points)
        assert np.all(fused.source_ids == 0)

    def test_two_views_concatenate_with_source_ids(self, rng):
        frames = {0: cloud(rng.normal(size=(1000, 3))),
                  1: cloud(rng.normal(size=(1000, 3)))}
        extrinsics = {0: RigidTransform.identity(),
                      1: RigidTransform.from_yaw(0.3, (1.0, 0.0, 0.0))}
        fused = early_fuse(ViewFrameSet(frames=frames, extrinsics=extrinsics))
        assert len(fused) == 2000
        assert set(np.unique(fused.source_ids)) == {0, 1}

    def test_view_order_does_not_matter(self, rng):
        a = cloud(rng.normal(size=(50, 3)))
        b = cloud(rng.normal(size=(60, 3)))
        extr = {0: RigidTransform.identity(), 1: RigidTransform.identity()}
        fused_ab = early_fuse(ViewFrameSet(frames={0: a, 1: b}, extrinsics=extr))
        fused_ba = early_fuse(ViewFrameSet(frames={1: b, 0: a}, extrinsics=extr))
        np.testing.assert_array_equal(fused_ab.points, fused_ba.points)
        np.testing.assert_array_equal(fused_ab.source_ids, fused_ba.source_ids)

    def test_wall_seen_from_both_sides_stays_planar(self, rng):
        # a wall plane x=5 in world coordinates, sampled from two node frames
        ys = rng.uniform(-3, 3, 300)
        zs = rng.uniform(0, 2, 300)
        wall_world = np.stack([np.full(300, 5.0), ys, zs], axis=1)
        t0 = RigidTransform.from_yaw(0.4, (1.0, 2.0, 0.0))
        t1 = RigidTransform.from_yaw(-2.2, (9.0, -1.0, 0.5))
        frames = {0: cloud(t0.inverse().apply(wall_world[:150])),
                  1: cloud(t1.inverse().apply(wall_world[150:]))}
        fused = early_fuse(ViewFrameSet(frames=frames,
                                        extrinsics={0: t0, 1: t1}))
        assert np.abs(fused.points[:, 0] - 5.0).max() < 1e-9

    def test_timestamp_skew_rejected(self):
        frames = {0: cloud(np.zeros((1, 3)), t_ns=0),
                  1: cloud(np.zeros((1, 3)), t_ns=50_000_000)}
        extr = {0: RigidTransform.identity(), 1: RigidTransform.identity()}
        with pytest.raises(TimestampSkewError):
            early_fuse(ViewFrameSet(frames=frames, extrinsics=extr))

    def test_missing_extrinsic_rejected(self):
        with pytest.raises(ValueError):
            ViewFrameSet(frames={0: cloud(np.zeros((1, 3)))}, extrinsics={})


FRAME_NS = 100_000_000


@st.composite
def recordings(draw):
    """(node id -> time-ordered frames, extrinsics, nodes): up to 4 nodes
    of 1 to 5 frames, some empty and some with intensity, each node late
    by up to 10 ms, so some frames spread wider than the sync window, and a
    subset of the nodes in any order. No frame holds a lone point: numpy
    rounds a lone row's product on another path than a batch's, so moving
    one point to the world frame alone and within the oracle's integrated
    cloud may differ in the last bit."""
    ids = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4,
                        unique=True))
    n_frames = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames, extrinsics = {}, {}
    for node in ids:
        late_ns = draw(st.integers(0, 10_000_000))
        frames[node] = []
        for k in range(n_frames):
            size = draw(st.sampled_from([0, 2, 3, 17]))
            frames[node].append(PointCloud(
                rng.uniform(-30.0, 30.0, (size, 3)),
                intensity=rng.uniform(0.0, 1.0, size)
                if draw(st.booleans()) else None,
                timestamp_ns=k * FRAME_NS + late_ns, source_node=node))
        extrinsics[node] = random_transform(rng)
    nodes = draw(st.lists(st.sampled_from(ids), unique=True))
    return frames, extrinsics, nodes


def attributes(cloud) -> dict:
    """Every attribute of a cloud, arrays as bytes."""
    values = {field.name: getattr(cloud, field.name)
              for field in dataclass_fields(cloud)}
    return {name: value.tobytes() if isinstance(value, np.ndarray) else value
            for name, value in values.items()}


class TestFuseWindow:
    def test_order_tags_and_timestamp(self):
        """Node by node, oldest frame first; the window cut at frame 0."""
        frames = {node: [cloud(np.full((node + 1 + k, 3), 10.0 * node + k),
                               t_ns=k * FRAME_NS + node)
                         for k in range(3)]
                  for node in (0, 4)}
        fused = fuse_window(frames, (4, 0), 2, integrate=2)
        np.testing.assert_array_equal(
            fused.points[:, 0], [1.0] * 2 + [2.0] * 3 + [41.0] * 6 + [42.0] * 7)
        np.testing.assert_array_equal(fused.source_ids, [0] * 5 + [4] * 13)
        assert fused.timestamp_ns == 2 * FRAME_NS + 4
        assert fused.source_node is None
        first = fuse_window(frames, (4, 0), 0, integrate=3)
        np.testing.assert_array_equal(first.points[:, 0], [0.0] + [40.0] * 5)

    def test_skew_rejected(self):
        frames = {0: [cloud(np.zeros((2, 3)), t_ns=0)],
                  1: [cloud(np.zeros((2, 3)), t_ns=6_000_000)]}
        with pytest.raises(TimestampSkewError,
                           match="^frame timestamps spread over 6.000 ms, "
                                 "window is 5.000 ms$"):
            fuse_window(frames, (0, 1), 0)
        assert len(fuse_window(frames, (0, 1), 0, sync_window_s=0.006)) == 4

    @settings(max_examples=200, deadline=None)
    @given(recordings())
    def test_equals_the_oracle(self, recording):
        """``fuse_window`` of the world-frame node frames equals, bit for
        bit, each view integrated by ``temporal_integrate`` and fused by
        ``early_fuse``, at every frame and window length, in every
        attribute. A skewed frame fails alike in both."""
        frames, extrinsics, nodes = recording
        world = {node: [apply_transform(extrinsics[node], frame)
                        for frame in node_frames]
                 for node, node_frames in frames.items()}
        for integrate in range(1, 5):
            for frame in range(len(next(iter(frames.values())))):
                try:
                    expected = fused_cloud(frames, extrinsics, nodes, frame,
                                           integrate)
                except TimestampSkewError as exc:
                    with pytest.raises(TimestampSkewError,
                                       match=f"^{re.escape(str(exc))}$"):
                        fuse_window(world, nodes, frame, integrate)
                    continue
                assert attributes(fuse_window(world, nodes, frame,
                                              integrate)) == \
                    attributes(expected)


class TestTemporalIntegrate:
    def test_four_frames_partition_by_index(self, rng):
        """Frame k fills rows 25k to 25k + 24; the last frame stamps the
        result."""
        frames = [PointCloud(rng.normal(size=(25, 3)),
                             timestamp_ns=k * 100_000_000, source_node=k)
                  for k in range(4)]
        out = temporal_integrate(frames)
        np.testing.assert_array_equal(
            out.points, np.concatenate([f.points for f in frames]))
        assert (out.timestamp_ns, out.source_node) == (300_000_000, 3)

    def test_integration_matches_multi_view_budget(self, rng):
        # counting oracle: k single-view frames vs one k-view frame
        per_frame = 200
        four_view_count = 4 * per_frame
        frames = []
        total = 0
        k = 0
        while total < four_view_count:
            frames.append(cloud(rng.normal(size=(per_frame, 3)),
                                t_ns=k * 100_000_000))
            total += per_frame
            k += 1
        out = temporal_integrate(frames)
        assert abs(len(out) - four_view_count) < per_frame + 1

    def test_fused_frames_keep_their_source_ids(self, rng):
        extr = {0: RigidTransform.identity(), 1: RigidTransform.identity()}
        fused = [early_fuse(ViewFrameSet(
            frames={node: cloud(rng.normal(size=(5 + node, 3)), t_ns=t)
                    for node in (0, 1)}, extrinsics=extr))
            for t in (0, 100_000_000)]
        out = temporal_integrate(fused)
        np.testing.assert_array_equal(out.source_ids,
                                      [0] * 5 + [1] * 6 + [0] * 5 + [1] * 6)

    def test_unordered_frames_rejected(self):
        frames = [cloud(np.zeros((1, 3)), t_ns=100), cloud(np.zeros((1, 3)), t_ns=0)]
        with pytest.raises(ValueError):
            temporal_integrate(frames)


class TestClusterBoxes:
    def test_disjoint_boxes_make_singletons(self):
        views = [(0, [box(x=0.0)]), (1, [box(x=50.0)]), (2, [box(x=100.0)])]
        clusters = cluster_boxes(views)
        assert len(clusters) == 3
        assert all(len(c.members) == 1 for c in clusters)

    def test_four_near_identical_boxes_one_cluster(self):
        views = [(v, [box(x=0.05 * v)]) for v in range(4)]
        clusters = cluster_boxes(views)
        assert len(clusters) == 1
        assert len(clusters[0].members) == 4

    def test_transitive_chain_clusters_together(self):
        # a-b and b-c overlap above threshold, a-c not at all
        a = box(x=0.0, size=(4.0, 2.0, 1.5))
        b = box(x=3.1, size=(4.0, 2.0, 1.5))
        c = box(x=6.2, size=(4.0, 2.0, 1.5))
        from mvlidar.geometry import iou_3d
        assert iou_3d(a, b) >= 0.1 and iou_3d(b, c) >= 0.1 and iou_3d(a, c) == 0.0
        clusters = cluster_boxes([(0, [a]), (1, [b]), (2, [c])])
        assert len(clusters) == 1

    def test_matches_brute_force_components(self, rng):
        from mvlidar.geometry import iou_3d
        for _ in range(20):
            boxes = [box(x=float(rng.uniform(-10, 10)),
                         y=float(rng.uniform(-3, 3))) for _ in range(8)]
            clusters = cluster_boxes([(0, boxes)])
            # brute-force connected components over the overlap graph
            adj = {i: set() for i in range(8)}
            for i in range(8):
                for j in range(8):
                    if i != j and iou_3d(boxes[i], boxes[j]) >= 0.1:
                        adj[i].add(j)
            seen, components = set(), []
            for i in range(8):
                if i in seen:
                    continue
                stack, comp = [i], set()
                while stack:
                    k = stack.pop()
                    if k in comp:
                        continue
                    comp.add(k)
                    stack.extend(adj[k] - comp)
                seen |= comp
                components.append(comp)
            assert sorted(len(c.members) for c in clusters) == \
                sorted(len(c) for c in components)

    def test_partition_covers_all_inputs(self, rng):
        views = [(v, [box(x=float(rng.uniform(-5, 5))) for _ in range(5)])
                 for v in range(3)]
        clusters = cluster_boxes(views)
        assert sum(len(c.members) for c in clusters) == 15

    def test_classes_never_merge(self):
        views = [(0, [box(label=ObjectClass.CAR)]),
                 (1, [box(label=ObjectClass.CYCLIST, size=(1.8, 0.8, 1.6))])]
        clusters = cluster_boxes(views)
        assert len(clusters) == 2

    def test_mixed_class_cluster_rejected(self):
        with pytest.raises(ValueError):
            BoxCluster(members=((box(label=ObjectClass.CAR), 0),
                                (box(label=ObjectClass.PEDESTRIAN,
                                     size=(0.6, 0.6, 1.7)), 1)))


class TestNmsFuse:
    def test_singleton_passthrough(self):
        b = box(score=0.4)
        assert nms_fuse([BoxCluster(members=((b, 0),))]) == [b]

    def test_highest_score_selected(self):
        members = ((box(x=0.0, score=0.9), 0), (box(x=0.1, score=0.7), 1),
                   (box(x=0.2, score=0.5), 2))
        fused = nms_fuse([BoxCluster(members=members)])
        assert fused[0].score == 0.9
        assert fused[0].center[0] == 0.0

    def test_tie_breaks_to_lower_view(self):
        members = ((box(x=1.0, score=0.8), 2), (box(x=2.0, score=0.8), 0))
        fused = nms_fuse([BoxCluster(members=members)])
        assert fused[0].center[0] == 2.0  # view 0 wins the tie

    def test_selection_not_synthesis(self, rng):
        members = tuple((box(x=float(rng.uniform(-1, 1)),
                             score=float(rng.uniform(0, 1))), v)
                        for v in range(4))
        fused = nms_fuse([BoxCluster(members=members)])
        assert any(fused[0] is b for b, _ in members)


class TestAverageFuse:
    def test_singleton_passthrough(self):
        b = box(score=0.4)
        fused = average_fuse([BoxCluster(members=((b, 0),))])
        np.testing.assert_allclose(fused[0].center, b.center)
        assert fused[0].score == b.score

    def test_two_identical_boxes_idempotent(self):
        b = box(x=1.0, yaw=0.4, score=0.6)
        fused = average_fuse([BoxCluster(members=((b, 0), (b, 1)))])
        np.testing.assert_allclose(fused[0].center, b.center, atol=1e-12)
        np.testing.assert_allclose(fused[0].size, b.size, atol=1e-12)
        assert fused[0].yaw == pytest.approx(b.yaw)
        assert fused[0].score == b.score

    def test_midpoint_center(self):
        members = ((box(x=0.0, score=0.5), 0), (box(x=1.0, score=0.7), 1))
        fused = average_fuse([BoxCluster(members=members)])
        np.testing.assert_allclose(fused[0].center, [0.5, 0.0, 0.0])
        assert fused[0].score == 0.7  # max member score kept

    def test_yaw_averaging_respects_box_symmetry(self):
        # yaws 0 and pi describe the same box; the average must stay 0
        members = ((box(yaw=0.0), 0), (box(yaw=math.pi), 1))
        fused = average_fuse([BoxCluster(members=members)])
        assert abs(fused[0].yaw) == pytest.approx(0.0, abs=1e-9) or \
            abs(abs(fused[0].yaw) - math.pi) < 1e-9

    def test_yaw_averaging_near_wraparound(self):
        members = ((box(yaw=math.pi / 2 - 0.1), 0),
                   (box(yaw=-math.pi / 2 + 0.1), 1))
        fused = average_fuse([BoxCluster(members=members)])
        # canonicalized: second yaw maps to pi/2 + 0.1, mean is pi/2
        assert abs(fused[0].yaw) == pytest.approx(math.pi / 2, abs=1e-9)

    def test_orthogonal_members_resolve_to_boundary(self):
        # yaws differing by exactly 90 degrees: canonicalization maps the
        # -pi/2 delta to +pi/2, so the mean lands halfway at +pi/4 from the
        # anchor rather than cancelling out
        members = ((box(yaw=math.pi / 4), 0), (box(yaw=-math.pi / 4), 1))
        fused = average_fuse([BoxCluster(members=members)])
        assert fused[0].yaw == pytest.approx(math.pi / 2, abs=1e-9)

    def test_fused_geometry_inside_member_envelope(self, rng):
        for _ in range(20):
            members = tuple((box(x=float(rng.uniform(-1, 1)),
                                 y=float(rng.uniform(-1, 1)),
                                 yaw=float(rng.uniform(-0.3, 0.3)),
                                 size=tuple(rng.uniform(1.0, 4.0, 3)),
                                 score=float(rng.uniform(0.1, 1.0))), v)
                            for v in range(3))
            fused = average_fuse([BoxCluster(members=members)])[0]
            centers = np.array([b.center for b, _ in members])
            sizes = np.array([b.size for b, _ in members])
            assert np.all(fused.center >= centers.min(axis=0) - 1e-12)
            assert np.all(fused.center <= centers.max(axis=0) + 1e-12)
            assert np.all(fused.size >= sizes.min(axis=0) - 1e-12)
            assert np.all(fused.size <= sizes.max(axis=0) + 1e-12)


class TestLateFuse:
    def test_fused_count_bounded_by_input(self, rng):
        views = []
        for v in range(4):
            views.append((v, [box(x=float(rng.uniform(-8, 8)),
                                  score=float(rng.uniform(0.1, 1.0)))
                              for _ in range(6)]))
        total = sum(len(b) for _, b in views)
        for method in ("nms", "average"):
            fused = late_fuse(views, method=method)
            assert len(fused) <= total

    @pytest.mark.parametrize("method", ["nms", "average"])
    @pytest.mark.parametrize("views", [[], [(0, []), (1, [])]])
    def test_no_boxes_fuse_to_none(self, views, method):
        assert late_fuse(views, method=method) == []

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            late_fuse([(0, [box()])], method="median")
