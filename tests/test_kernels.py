"""The batched kernels against the per-item loops they replaced.

Each oracle here is the loop the package ran before its kernel: grouping
linked items with ``scipy.sparse.csgraph`` (in ``test_geometry``), the
caliper loop with one product per hull edge, and the pairwise ``iou_3d``
loops of late fusion, the tracker's association, AP matching and CLEAR.
The background grid's boolean-mask compactions, 3-D cell marking and
stable argsorts of int64 keys are oracles too (in ``test_detector``), as
is numpy's stable argsort for every ``stable_order`` call.
Every kernel must give its oracle's result exactly: on every call that the
two experiments and a detect-and-track pass make on the crossroad scene at
seeds 0 and 101, and on drawn inputs with empty sets, coincident, touching
and thin boxes, and coordinates beyond ``_CULL_MAX_SCALE``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial import ConvexHull, QhullError

from mvlidar import detector, fusion, geometry, metrics, pipeline, tracking
from mvlidar.errors import DegenerateClusterError
from mvlidar.fusion import BoxCluster, cluster_boxes
from mvlidar.geometry import Box3D, ObjectClass, iou_3d, wrap_angle
from mvlidar.metrics import MotEvalConfig, MotReport, compute_clear_mot, \
    match_detections
from mvlidar.pipeline import DetectionViews, PipelineConfig, detect_views, \
    run_fusion_comparison, run_view_group_experiment
from mvlidar.scene import generate_synthetic_scene, standard_crossroad_spec
from mvlidar.tracking import TrackerConfig, TrackState, TrajectorySet, \
    associate, track_sequence
from test_detector import assert_prepared_as_oracle, candidates_oracle, \
    cover_oracle
from test_geometry import linked_groups_csgraph

SEEDS = (0, 101)
CROSSROAD_FRAMES = 6


# -- oracles: the loops the kernels replaced ---------------------------------

def min_area_rectangle_per_angle(bev):
    """The caliper loop: one product of the hull by each edge's rotation."""
    try:
        hull = ConvexHull(bev)
    except QhullError as exc:
        raise DegenerateClusterError("cluster is collinear in BEV") from exc
    hull_pts = bev[hull.vertices]
    edges = np.roll(hull_pts, -1, axis=0) - hull_pts
    angles = np.arctan2(edges[:, 1], edges[:, 0])
    best = None
    for angle in angles:
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, s], [-s, c]])
        local = hull_pts @ rot.T
        lo, hi = local.min(axis=0), local.max(axis=0)
        extent = hi - lo
        area = float(extent[0] * extent[1])
        if best is None or area < best[0] - 1e-12:
            center = rot.T @ (0.5 * (lo + hi))
            best = (area, angle, float(extent[0]), float(extent[1]), center)
    _, angle, ex, ey, center = best
    if ex >= ey:
        return wrap_angle(angle), ex, ey, center
    return wrap_angle(angle + 0.5 * math.pi), ey, ex, center


def cluster_boxes_pairwise(views):
    entries = [(box, view_id) for view_id, boxes in views for box in boxes]
    pairs = [(i, j) for i, (a, _) in enumerate(entries)
             for j, (b, _) in enumerate(entries[i + 1:], i + 1)
             if a.label is b.label
             and iou_3d(a, b) >= fusion._OVERLAP_THRESHOLD]
    return [BoxCluster(members=tuple(entries[i] for i in group))
            for group in linked_groups_csgraph(len(entries), pairs)]


def associate_pairwise(track_boxes, detections, cfg):
    """``associate`` on the tracks' boxes, every pair's IoU computed."""
    if not track_boxes or not detections:
        return [], list(range(len(track_boxes))), list(range(len(detections)))
    affinity = np.array([[iou_3d(tb, det) if tb.label is det.label
                          else -tracking._CROSS_CLASS_COST
                          for det in detections] for tb in track_boxes])
    rows, cols = linear_sum_assignment(-affinity)
    matches = [(int(r), int(c)) for r, c in zip(rows, cols)
               if affinity[r, c] >= cfg.threshold]
    matched_tracks = {r for r, _ in matches}
    matched_dets = {c for _, c in matches}
    return (matches,
            [i for i in range(len(track_boxes)) if i not in matched_tracks],
            [i for i in range(len(detections)) if i not in matched_dets])


def match_detections_pairwise(detections, ground_truth, label, threshold):
    gt_by_frame = {}
    for frame, gt_box in ground_truth:
        if gt_box.label is label:
            gt_by_frame.setdefault(frame, []).append([gt_box, False])
    n_gt = sum(len(v) for v in gt_by_frame.values())
    candidates = [(f, det) for f, det in detections if det.label is label]
    order = sorted(range(len(candidates)),
                   key=lambda i: (-candidates[i][1].score, candidates[i][0], i))
    tp_flags = np.zeros(len(order), dtype=bool)
    for rank, idx in enumerate(order):
        frame, det = candidates[idx]
        best_iou, best_slot = threshold, None
        for slot in gt_by_frame.get(frame, ()):
            if slot[1]:
                continue
            overlap = iou_3d(det, slot[0])
            if overlap >= best_iou:
                best_iou, best_slot = overlap, slot
        if best_slot is not None:
            best_slot[1] = True
            tp_flags[rank] = True
    return tp_flags, n_gt


def clear_mot_pairwise(hypotheses, ground_truth, cfg):
    """``compute_clear_mot`` with every free pair's IoU computed."""
    def pair_score(gt_box, hyp_box):
        if gt_box.label is not hyp_box.label:
            return False, 0.0
        overlap = iou_3d(gt_box, hyp_box)
        return overlap >= cfg.threshold, overlap

    frames = sorted(set(ground_truth.frames()) | set(hypotheses.frames()))
    fn = fp = ids = frag = gt_total = 0
    matched_ious, current_match, last_match, was_matched = [], {}, {}, {}
    for frame in frames:
        gt_here = dict(ground_truth.boxes_at(frame))
        hyp_here = dict(hypotheses.boxes_at(frame))
        gt_total += len(gt_here)
        matches = {}
        for gt_id, hyp_id in list(current_match.items()):
            if gt_id in gt_here and hyp_id in hyp_here:
                ok, similarity = pair_score(gt_here[gt_id], hyp_here[hyp_id])
                if ok:
                    matches[gt_id] = (hyp_id, similarity)
        free_gt = [g for g in gt_here if g not in matches]
        free_hyp = [h for h in hyp_here
                    if h not in {hyp for hyp, _ in matches.values()}]
        if free_gt and free_hyp:
            valid = np.zeros((len(free_gt), len(free_hyp)), dtype=bool)
            similarity = np.zeros(valid.shape)
            for i, g in enumerate(free_gt):
                for j, h in enumerate(free_hyp):
                    valid[i, j], similarity[i, j] = pair_score(gt_here[g],
                                                               hyp_here[h])
            rows, cols = linear_sum_assignment(
                np.where(valid, -similarity, 1e9))
            for r, c in zip(rows, cols):
                if valid[r, c]:
                    matches[free_gt[r]] = (free_hyp[c], similarity[r, c])
        matched_hyp_ids = {hyp for hyp, _ in matches.values()}
        fn += len(gt_here) - len(matches)
        fp += len(hyp_here) - len(matched_hyp_ids)
        for gt_id, (hyp_id, similarity) in matches.items():
            matched_ious.append(similarity)
            tracked_before = gt_id in last_match
            if tracked_before and last_match[gt_id] != hyp_id:
                ids += 1
            if tracked_before and not was_matched.get(gt_id, True):
                frag += 1
            last_match[gt_id] = hyp_id
        current_match = {g: h for g, (h, _) in matches.items()}
        for gt_id in gt_here:
            was_matched[gt_id] = gt_id in matches
    return MotReport(mota=1.0 - (fn + fp + ids) / gt_total,
                     motp=float(np.mean(matched_ious)) if matched_ious
                     else 0.0, ids=ids, frag=frag, fn=fn, fp=fp, gt=gt_total)


# -- comparisons -------------------------------------------------------------

def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def rectangle_outcome(fit, bev):
    try:
        return fit(bev)
    except DegenerateClusterError:
        return "degenerate"


def assert_same_rectangle(got, want):
    if want == "degenerate" or got == "degenerate":
        assert got == want
        return
    assert all(same_bits(g, w) for g, w in zip(got, want))


def cluster_members(clusters):
    return [[(id(box), view) for box, view in cluster.members]
            for cluster in clusters]


def assert_same_matching(got, want):
    (got_flags, got_n), (want_flags, want_n) = got, want
    assert got_n == want_n
    assert np.array_equal(got_flags, want_flags)


# -- the crossroad scene's calls ---------------------------------------------

@pytest.fixture(scope="module", params=SEEDS)
def crossroad_calls(request):
    """Every call of the kernels and their callers in the two experiments
    and a detect-and-track pass over the crossroad scene: (arguments as at
    the call, result) per name."""
    seed = request.param
    synthetic = generate_synthetic_scene(
        standard_crossroad_spec(n_frames=CROSSROAD_FRAMES, seed=0), seed=seed)
    cfg = PipelineConfig(seed=seed)
    calls = {}

    def spy(module, name, snapshot=lambda *args: args):
        original = getattr(module, name)

        def recorded(*args):
            before = snapshot(*args)
            try:
                result = original(*args)
            except DegenerateClusterError:
                calls.setdefault(name, []).append((before, "degenerate"))
                raise
            calls.setdefault(name, []).append((before, result))
            return result

        return recorded

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detector, "linked_groups",
                      spy(detector, "linked_groups"))
        patch.setattr(pipeline, "prepare_background",
                      spy(pipeline, "prepare_background"))
        patch.setattr(detector, "_cover", spy(detector, "_cover"))
        patch.setattr(detector.PreparedBackground, "_candidates",
                      spy(detector.PreparedBackground, "_candidates"))
        for module in (geometry, detector):
            patch.setattr(module, "stable_order", spy(module, "stable_order"))
        patch.setattr(detector, "_min_area_rectangle",
                      spy(detector, "_min_area_rectangle"))
        patch.setattr(fusion, "cluster_boxes", spy(fusion, "cluster_boxes"))
        patch.setattr(metrics, "match_detections",
                      spy(metrics, "match_detections"))
        patch.setattr(tracking, "associate", spy(
            tracking, "associate",
            lambda tracks, dets, tracker: ([t.to_box() for t in tracks],
                                           list(dets), tracker)))
        views = DetectionViews.build(synthetic, synthetic.extrinsics)
        run_view_group_experiment(synthetic, synthetic.extrinsics,
                                  cfg.detector, cfg.eval_det, views)
        run_fusion_comparison(synthetic, synthetic.extrinsics, cfg.detector,
                              cfg.eval_det, views)
        boxes = detect_views(views, sorted(synthetic.node_frames),
                             cfg.detector)
        trajectories = track_sequence(
            boxes, cfg.tracker, frame_dt=1.0 / synthetic.spec.frame_rate_hz)
    clear = (trajectories, synthetic.trajectories, cfg.eval_mot)
    calls["compute_clear_mot"] = [(clear, compute_clear_mot(*clear))]
    return calls


def test_crossroad_linked_groups(crossroad_calls):
    calls = crossroad_calls["linked_groups"]
    assert len(calls) >= 40
    for (n, pairs), groups in calls:
        want = linked_groups_csgraph(n, pairs)
        assert len(groups) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(groups, want))


def test_crossroad_background(crossroad_calls):
    [((background, _), prepared)] = crossroad_calls["prepare_background"]
    assert_prepared_as_oracle(background, prepared)
    [(args, covered)] = crossroad_calls["_cover"]
    assert np.array_equal(covered, cover_oracle(*args))


def test_crossroad_candidates(crossroad_calls):
    calls = crossroad_calls["_candidates"]
    assert len(calls) >= 8 * CROSSROAD_FRAMES
    for (prepared, points), candidates in calls:
        assert np.array_equal(candidates, candidates_oracle(prepared, points))


def test_crossroad_stable_orders(crossroad_calls):
    calls = crossroad_calls["stable_order"]
    assert max(span for (_, span), _ in calls) > 2 ** 8
    for (keys, span), order in calls:
        assert np.array_equal(order, np.argsort(keys, kind="stable"))


def test_crossroad_rectangles(crossroad_calls):
    calls = crossroad_calls["_min_area_rectangle"]
    assert len(calls) > 200
    for (bev,), got in calls:
        assert_same_rectangle(
            got, rectangle_outcome(min_area_rectangle_per_angle, bev))


def test_crossroad_late_fusion(crossroad_calls):
    calls = crossroad_calls["cluster_boxes"]
    assert len(calls) == 2 * CROSSROAD_FRAMES
    for (views,), clusters in calls:
        assert cluster_members(clusters) == \
            cluster_members(cluster_boxes_pairwise(views))


def test_crossroad_ap_matching(crossroad_calls):
    calls = crossroad_calls["match_detections"]
    assert len(calls) == 3 * (3 + 7)   # 3 classes, 3 view groups, 7 methods
    for args, got in calls:
        assert_same_matching(got, match_detections_pairwise(*args))


def test_crossroad_association(crossroad_calls):
    calls = crossroad_calls["associate"]
    assert len(calls) == CROSSROAD_FRAMES
    for (track_boxes, detections, cfg), got in calls:
        assert got == associate_pairwise(track_boxes, detections, cfg)


def test_crossroad_clear_mot(crossroad_calls):
    (args, got), = crossroad_calls["compute_clear_mot"]
    assert got == clear_mot_pairwise(*args)


# -- drawn inputs ------------------------------------------------------------

@st.composite
def bev_clusters(draw):
    """BEV point sets: scattered, on a coarse grid (collinear hull points,
    equal areas), collinear, a rotated rectangle's corners and interior,
    all one point, or far from the origin."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 40))
    kind = draw(st.sampled_from(["scattered", "grid", "collinear",
                                 "rectangle", "point", "far"]))
    if kind == "grid":
        return rng.integers(0, 4, size=(n, 2)) * 0.5
    if kind == "collinear":
        t = rng.uniform(-3.0, 3.0, n)
        return np.column_stack([t, 2.0 * t + 1.0])
    if kind == "rectangle":
        corners = np.array([[2.0, 0.75], [-2.0, 0.75], [-2.0, -0.75],
                            [2.0, -0.75]])
        inside = rng.uniform(-0.7, 0.7, size=(n, 2)) * [2.0, 1.0]
        yaw = rng.uniform(-math.pi, math.pi)
        rot = np.array([[math.cos(yaw), -math.sin(yaw)],
                        [math.sin(yaw), math.cos(yaw)]])
        return np.vstack([corners, inside]) @ rot.T + rng.normal(size=2)
    if kind == "point":
        return np.tile(rng.normal(size=2), (n, 1))
    points = rng.normal(size=(n, 2)) * draw(st.sampled_from([1e-3, 1.0, 5.0]))
    return points + (rng.uniform(-1e6, 1e6, 2) if kind == "far" else 0.0)


@settings(max_examples=300, deadline=None)
@given(bev_clusters())
def test_rectangle_matches_the_caliper_loop(bev):
    assert_same_rectangle(
        rectangle_outcome(detector._min_area_rectangle, bev),
        rectangle_outcome(min_area_rectangle_per_angle, bev))


def box_set(rng, n, offset):
    """n boxes near ``offset``: each new, coincident with an earlier one
    (perhaps of another class), touching one edge to edge, or thin."""
    boxes = []
    for _ in range(n):
        kind = int(rng.integers(4)) if boxes else 0
        label = list(ObjectClass)[int(rng.integers(3))]
        score = float(rng.uniform(0.05, 1.0))
        if kind == 1:
            box = replace(boxes[int(rng.integers(len(boxes)))], label=label,
                          score=score)
        elif kind == 2:
            base = boxes[int(rng.integers(len(boxes)))]
            step = base.length * np.array([math.cos(base.yaw),
                                           math.sin(base.yaw), 0.0])
            box = replace(base, center=base.center + step, label=label)
        else:
            size = rng.uniform(0.2, 3.0, 3)
            if kind == 3:
                size[1] = float(rng.choice([1e-300, 1e-9, 1e-5]))
            center = rng.uniform(-3.0, 3.0, 3) * [1.0, 1.0, 0.3]
            box = Box3D(center + [offset, -offset, 0.0], size,
                        float(rng.uniform(-math.pi, math.pi)), label, score)
        boxes.append(box)
    return boxes


box_sets = st.builds(
    lambda seed, n, offset: box_set(np.random.default_rng(seed), n, offset),
    st.integers(0, 2**32 - 1), st.integers(0, 8),
    st.sampled_from([0.0, 0.0, 1e6, 2e100]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), box_sets), max_size=4))
def test_late_fusion_matches_the_pairwise_loop(views):
    assert cluster_members(cluster_boxes(views)) == \
        cluster_members(cluster_boxes_pairwise(views))


@settings(max_examples=150, deadline=None)
@given(track_boxes=box_sets, detections=box_sets,
       threshold=st.sampled_from([1e-9, 0.01, 0.3, 1.0]))
def test_association_matches_the_pairwise_loop(track_boxes, detections,
                                               threshold):
    tracks = [TrackState(box, i + 1) for i, box in enumerate(track_boxes)]
    cfg = TrackerConfig(threshold=threshold)
    assert associate(tracks, detections, cfg) == associate_pairwise(
        [track.to_box() for track in tracks], detections, cfg)


def framed(boxes, rng, frames=3):
    return [(int(rng.integers(frames)), box) for box in boxes]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), detections=box_sets, truth=box_sets,
       label=st.sampled_from(list(ObjectClass)),
       threshold=st.sampled_from([0.0, 1e-9, 0.25, 0.5, 1.0]))
@example(seed=0, detections=[], truth=[], label=ObjectClass.CAR,
         threshold=0.5)
def test_ap_matching_matches_the_pairwise_loop(seed, detections, truth,
                                               label, threshold):
    rng = np.random.default_rng(seed)
    args = (framed(detections, rng), framed(truth, rng), label, threshold)
    assert_same_matching(match_detections(*args),
                         match_detections_pairwise(*args))


def trajectories(boxes, rng, frames=4):
    """Boxes dealt to up to 3 tracks, each track at distinct frames."""
    tracks = {}
    for box in boxes:
        track = tracks.setdefault(int(rng.integers(1, 4)), {})
        track[int(rng.integers(frames))] = box
    return TrajectorySet({track_id: sorted(entries.items())
                          for track_id, entries in tracks.items()})


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), hypotheses=box_sets,
       truth=box_sets.filter(len),
       threshold=st.sampled_from([1e-9, 0.25, 0.5, 1.0]))
def test_clear_mot_matches_the_pairwise_loop(seed, hypotheses, truth,
                                             threshold):
    rng = np.random.default_rng(seed)
    args = (trajectories(hypotheses, rng), trajectories(truth, rng),
            MotEvalConfig(threshold=threshold))
    assert compute_clear_mot(*args) == clear_mot_pairwise(*args)


def test_callers_call_iou_3d_through_their_module(monkeypatch):
    """The benchmark's tracer counts ``iou_3d`` per module: each caller
    calls its own module's name, once per pair the mask keeps."""
    counted = {}
    for module in (fusion, tracking, metrics):
        def counting(a, b, name=module.__name__):
            counted[name] = counted.get(name, 0) + 1
            return iou_3d(a, b)
        monkeypatch.setattr(module, "iou_3d", counting)
    car = Box3D((0.0, 0.0, 0.0), (4.0, 2.0, 1.5), 0.0, ObjectClass.CAR)
    near = replace(car, center=(1.0, 0.0, 0.0))
    far = replace(car, center=(50.0, 0.0, 0.0))
    cluster_boxes([(0, [car, far]), (1, [near])])
    associate([TrackState(car, 1)], [near, far], TrackerConfig())
    match_detections([(0, near), (0, far)], [(0, car)], ObjectClass.CAR, 0.5)
    compute_clear_mot(TrajectorySet({1: [(0, near)], 2: [(0, far)]}),
                      TrajectorySet({1: [(0, car)]}), MotEvalConfig())
    assert counted == {"mvlidar.fusion": 1, "mvlidar.tracking": 1,
                       "mvlidar.metrics": 2}
