import itertools
import math

import numpy as np
import pytest

from mvlidar.errors import NoGroundTruthError
from mvlidar.geometry import Box3D, ObjectClass, iou_3d
from mvlidar.metrics import (
    DetectionEvalConfig,
    MotEvalConfig,
    MotReport,
    compute_ap,
    compute_clear_mot,
    detection_recall,
    format_ap_table,
    format_mot_table,
    match_detections,
    recall_and_ap,
)
from mvlidar.metrics import _interpolated_ap
from mvlidar.tracking import TrajectorySet


def box(x=0.0, y=0.0, z=0.0, size=(4.0, 2.0, 1.5), yaw=0.0,
        label=ObjectClass.CAR, score=1.0):
    return Box3D((x, y, z), size, yaw, label, score=score)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def brute_force_ap(detections, ground_truth, label, cfg):
    """Enumerate every score cutoff; rebuild matching from scratch each time."""
    n_gt = sum(1 for f, b in ground_truth if b.label is label)
    assert n_gt > 0

    dets = [(f, d) for f, d in detections if d.label is label]
    dets = sorted(enumerate(dets), key=lambda t: (-t[1][1].score, t[1][0], t[0]))
    dets = [d for _, d in dets]

    def matcher(top):
        gt = [[(f, b), False] for f, b in ground_truth if b.label is label]
        tp = 0
        for frame, det in top:
            best, best_iou = None, cfg.iou_thresholds[label]
            for slot in gt:
                (g_frame, g_box), used = slot
                if used or g_frame != frame:
                    continue
                overlap = iou_3d(det, g_box)
                if overlap >= best_iou:
                    best, best_iou = slot, overlap
            if best is not None:
                best[1] = True
                tp += 1
        return tp

    points = []
    for k in range(1, len(dets) + 1):
        tp = matcher(dets[:k])
        points.append((tp / n_gt, tp / k))
    levels = cfg.recall_levels()
    sampled = []
    for level in levels:
        reachable = [p for r, p in points if r >= level - 1e-12]
        sampled.append(max(reachable) if reachable else 0.0)
    return float(np.mean(sampled))


def brute_force_clear_mot(hypotheses, ground_truth, cfg):
    """Naive per-frame CLEAR bookkeeping with exhaustive assignment."""
    frames = sorted(set(ground_truth.frames()) | set(hypotheses.frames()))
    fn = fp = ids = frag = gt_total = 0
    sims = []
    prev = {}
    last = {}
    prev_visible_matched = {}

    def ok_and_sim(g, h):
        if g.label is not h.label:
            return False, 0.0
        overlap = iou_3d(g, h)
        return overlap >= cfg.threshold, overlap

    for frame in frames:
        gt_here = dict(ground_truth.boxes_at(frame))
        hyp_here = dict(hypotheses.boxes_at(frame))
        gt_total += len(gt_here)
        matches = {}
        for g, h in prev.items():
            if g in gt_here and h in hyp_here:
                ok, sim = ok_and_sim(gt_here[g], hyp_here[h])
                if ok:
                    matches[g] = (h, sim)
        free_g = [g for g in gt_here if g not in matches]
        used_h = {h for h, _ in matches.values()}
        free_h = [h for h in hyp_here if h not in used_h]
        best_assign, best_key = [], (-1, -math.inf)
        if free_g and free_h:
            # pairwise table first, so enumeration touches no geometry
            ok_m = np.zeros((len(free_g), len(free_h)), dtype=bool)
            sim_m = np.zeros((len(free_g), len(free_h)))
            for i, g in enumerate(free_g):
                for j, h in enumerate(free_h):
                    ok_m[i, j], sim_m[i, j] = ok_and_sim(gt_here[g], hyp_here[h])
            n_small = min(len(free_g), len(free_h))
            n_large = max(len(free_g), len(free_h))
            if math.perm(n_large, n_small) <= 5_000:
                flip = len(free_g) > len(free_h)
                small_idx = range(n_small)
                large_idx = range(n_large)
                for combo in itertools.permutations(large_idx, n_small):
                    pairs, total = [], 0.0
                    for a, b in zip(small_idx, combo):
                        i, j = (b, a) if flip else (a, b)
                        if ok_m[i, j]:
                            pairs.append((free_g[i], free_h[j], sim_m[i, j]))
                            total += sim_m[i, j]
                    key = (len(pairs), total)
                    if key > best_key:
                        best_key, best_assign = key, pairs
            else:  # too large to enumerate; scipy fallback
                from scipy.optimize import linear_sum_assignment
                cost = np.where(ok_m, -sim_m, 1e9)
                rows, cols = linear_sum_assignment(cost)
                best_assign = [(free_g[r], free_h[c], sim_m[r, c])
                               for r, c in zip(rows, cols) if ok_m[r, c]]
        for g, h, sim in best_assign:
            matches[g] = (h, sim)
        fn += len(gt_here) - len(matches)
        fp += len(hyp_here) - len({h for h, _ in matches.values()})
        for g, (h, sim) in matches.items():
            sims.append(sim)
            if g in last and last[g] != h:
                ids += 1
            if g in last and prev_visible_matched.get(g) is False:
                frag += 1
            last[g] = h
        prev = {g: h for g, (h, _) in matches.items()}
        for g in gt_here:
            prev_visible_matched[g] = g in matches
    mota = 1.0 - (fn + fp + ids) / gt_total
    motp = float(np.mean(sims)) if sims else 0.0
    return dict(mota=mota, motp=motp, ids=ids, frag=frag, fn=fn, fp=fp,
                gt=gt_total)


def random_mot_instance(rng, max_objects=6, n_frames=8):
    """Random GT walkers plus hypotheses with dropouts/ghosts/id corruption."""
    n_obj = int(rng.integers(1, max_objects + 1))
    gt = {}
    hyp = {}
    for obj in range(n_obj):
        start = rng.uniform(-20, 20, 2)
        vel = rng.uniform(-1, 1, 2)
        entries = []
        hentries = []
        for f in range(n_frames):
            pos = start + vel * f
            b = box(pos[0], pos[1], 0.0, size=(1.0, 1.0, 1.7),
                    label=ObjectClass.PEDESTRIAN)
            entries.append((f, b))
            if rng.random() < 0.75:  # dropout
                jitter = rng.normal(scale=0.1, size=2)
                hb = box(pos[0] + jitter[0], pos[1] + jitter[1], 0.0,
                         size=(1.0, 1.0, 1.7), label=ObjectClass.PEDESTRIAN)
                hentries.append((f, hb))
        gt[obj] = entries
        if hentries:
            hyp[100 + obj] = hentries
    # ghost track
    if rng.random() < 0.5:
        ghost = [(f, box(float(rng.uniform(30, 40)), 0.0, 0.0,
                         size=(1.0, 1.0, 1.7), label=ObjectClass.PEDESTRIAN))
                 for f in range(0, n_frames, 2)]
        hyp[999] = ghost
    return TrajectorySet(hyp), TrajectorySet(gt)


# ---------------------------------------------------------------------------
# average precision
# ---------------------------------------------------------------------------

class TestComputeAp:
    def test_single_matching_detection(self):
        gt = [(0, box())]
        dets = [(0, box(x=0.2, score=0.9))]
        assert iou_3d(dets[0][1], gt[0][1]) > 0.7
        assert compute_ap(dets, gt, ObjectClass.CAR) == 1.0

    def test_all_below_threshold(self):
        gt = [(0, box())]
        dets = [(0, box(x=3.5, score=0.9))]
        assert compute_ap(dets, gt, ObjectClass.CAR) == 0.0

    def test_two_gt_three_detections_matches_oracle(self):
        cfg = DetectionEvalConfig()
        gt = [(0, box(x=0.0)), (0, box(x=20.0))]
        dets = [(0, box(x=0.1, score=0.9)),     # TP
                (0, box(x=40.0, score=0.8)),    # FP
                (0, box(x=20.1, score=0.7))]    # TP
        expected = brute_force_ap(dets, gt, ObjectClass.CAR, cfg)
        assert compute_ap(dets, gt, ObjectClass.CAR, cfg) == expected
        # frozen value: operating points (0.5, 1.0), (0.5, 0.5), (1.0, 2/3)
        levels = cfg.recall_levels()
        frozen = float(np.mean(np.where(levels <= 0.5, 1.0, 2.0 / 3.0)))
        assert expected == pytest.approx(frozen)

    def test_removing_false_positive_never_hurts(self, rng):
        gt = [(0, box(x=0.0)), (0, box(x=10.0))]
        dets = [(0, box(x=0.1, score=0.9)),
                (0, box(x=50.0, score=0.85)),
                (0, box(x=10.2, score=0.6))]
        with_fp = compute_ap(dets, gt, ObjectClass.CAR)
        without_fp = compute_ap([dets[0], dets[2]], gt, ObjectClass.CAR)
        assert without_fp >= with_fp

    def test_empty_ground_truth_raises(self):
        with pytest.raises(NoGroundTruthError):
            compute_ap([(0, box(score=0.5))], [], ObjectClass.CAR)

    def test_matches_cutoff_oracle_on_random_instances(self, rng):
        cfg = DetectionEvalConfig()
        for _ in range(50):
            n_gt = int(rng.integers(1, 5))
            gt = [(int(rng.integers(0, 3)), box(x=float(rng.uniform(-30, 30)),
                                                y=float(rng.uniform(-5, 5))))
                  for _ in range(n_gt)]
            dets = []
            for _ in range(int(rng.integers(1, 10))):
                if rng.random() < 0.6 and gt:
                    frame, target = gt[int(rng.integers(0, len(gt)))]
                    dets.append((frame, box(
                        x=float(target.center[0] + rng.normal(scale=0.3)),
                        y=float(target.center[1] + rng.normal(scale=0.3)),
                        score=float(rng.uniform(0.05, 1.0)))))
                else:
                    dets.append((int(rng.integers(0, 3)),
                                 box(x=float(rng.uniform(-30, 30)),
                                     y=float(rng.uniform(10, 20)),
                                     score=float(rng.uniform(0.05, 1.0)))))
            got = compute_ap(dets, gt, ObjectClass.CAR, cfg)
            want = brute_force_ap(dets, gt, ObjectClass.CAR, cfg)
            assert got == pytest.approx(want, abs=1e-12)

    def test_eleven_point_variant(self):
        cfg = DetectionEvalConfig(recall_points=10,
                                  include_zero_recall_point=True)
        assert len(cfg.recall_levels()) == 11
        gt = [(0, box())]
        dets = [(0, box(x=0.1, score=0.9))]
        assert compute_ap(dets, gt, ObjectClass.CAR, cfg) == 1.0

    def test_recall_helper(self):
        gt = [(0, box(x=0.0)), (0, box(x=10.0))]
        dets = [(0, box(x=0.1, score=0.9))]
        assert detection_recall(dets, gt, ObjectClass.CAR) == 0.5


def two_match_recall_and_ap(detections, ground_truth, label, cfg):
    """The view-group experiment's former scoring: one matching for the
    recall and a second, identical one for the AP."""
    threshold = cfg.iou_thresholds[label]
    tp_flags, n_gt = match_detections(detections, ground_truth, label,
                                      threshold)
    if n_gt == 0:
        raise NoGroundTruthError("no ground truth for the requested class")
    recall = float(tp_flags.sum() / n_gt)
    tp_flags, n_gt = match_detections(detections, ground_truth, label,
                                      threshold)
    return recall, _interpolated_ap(tp_flags, n_gt, cfg.recall_levels())


class TestRecallAndAp:
    """One matching per class gives the recall and the AP of two."""

    def random_instance(self, rng):
        labels = list(ObjectClass)
        gt = [(int(rng.integers(0, 3)),
               box(x=float(rng.uniform(-20, 20)), y=float(rng.uniform(-5, 5)),
                   label=labels[int(rng.integers(0, 2))]))
              for _ in range(int(rng.integers(1, 8)))]
        dets = []
        for _ in range(int(rng.integers(0, 12))):
            frame, target = gt[int(rng.integers(0, len(gt)))]
            # near a GT box or not, sometimes with the wrong label, with
            # tied scores now and then
            dets.append((frame, box(
                x=float(target.center[0] + rng.normal(scale=0.6)),
                y=float(target.center[1] + rng.normal(scale=0.6)),
                label=labels[int(rng.integers(0, 3))],
                score=float(rng.choice([0.5, rng.uniform(0.05, 1.0)])))))
        return dets, gt

    @pytest.mark.parametrize("cfg", [DetectionEvalConfig(),
                                     DetectionEvalConfig.with_threshold(0.25)])
    def test_matches_two_matchings(self, rng, cfg):
        for _ in range(60):
            dets, gt = self.random_instance(rng)
            for label in ObjectClass:
                if not any(b.label is label for _, b in gt):
                    with pytest.raises(NoGroundTruthError):
                        recall_and_ap(dets, gt, label, cfg)
                    continue
                got = recall_and_ap(dets, gt, label, cfg)
                assert got == two_match_recall_and_ap(dets, gt, label, cfg)
                assert got == (detection_recall(dets, gt, label, cfg),
                               compute_ap(dets, gt, label, cfg))


# ---------------------------------------------------------------------------
# CLEAR MOT
# ---------------------------------------------------------------------------

def walker_trajectory(start, vel, n_frames, label=ObjectClass.PEDESTRIAN):
    return [(f, box(start[0] + vel[0] * f, start[1] + vel[1] * f, 0.0,
                    size=(1.0, 1.0, 1.7), label=label))
            for f in range(n_frames)]


class TestClearMot:
    def test_perfect_hypotheses(self):
        gt = TrajectorySet({1: walker_trajectory((0, 0), (0.5, 0), 10),
                            2: walker_trajectory((10, 5), (-0.3, 0.1), 10)})
        hyp = TrajectorySet({7: gt.tracks[1], 9: gt.tracks[2]})
        report = compute_clear_mot(hyp, gt)
        assert report.mota == 1.0
        assert report.motp == pytest.approx(1.0)
        assert report.ids == report.frag == report.fn == report.fp == 0

    def test_gap_counts_fn_and_frag(self):
        full = walker_trajectory((0, 0), (0.5, 0), 10)
        gt = TrajectorySet({1: full})
        hyp = TrajectorySet({5: [e for e in full if e[0] not in (4, 5)]})
        report = compute_clear_mot(hyp, gt)
        assert report.fn == 2
        assert report.frag == 1
        assert report.ids == 0
        assert report.mota == pytest.approx(1.0 - 2 / 10)

    def test_crossing_swap_counts_two_switches(self):
        n = 10
        g1 = [(f, box(float(f), 0.0, 0.0, size=(0.5, 0.5, 1.7),
                      label=ObjectClass.PEDESTRIAN)) for f in range(n)]
        g2 = [(f, box(float(n - 1 - f), 0.0, 0.0, size=(0.5, 0.5, 1.7),
                      label=ObjectClass.PEDESTRIAN)) for f in range(n)]
        swap_at = 5
        h1 = g1[:swap_at] + g2[swap_at:]
        h2 = g2[:swap_at] + g1[swap_at:]
        report = compute_clear_mot(TrajectorySet({11: h1, 12: h2}),
                                   TrajectorySet({1: g1, 2: g2}))
        assert report.ids == 2
        assert report.fn == 0 and report.fp == 0

    def test_invariant_under_hypothesis_relabeling(self, rng):
        hyp, gt = random_mot_instance(rng)
        base = compute_clear_mot(hyp, gt)
        relabeled = TrajectorySet({tid * 13 + 5: entries
                                   for tid, entries in hyp.tracks.items()})
        again = compute_clear_mot(relabeled, gt)
        assert base == again

    def test_matches_brute_force_on_random_instances(self, rng):
        for _ in range(40):
            hyp, gt = random_mot_instance(rng)
            report = compute_clear_mot(hyp, gt)
            want = brute_force_clear_mot(hyp, gt, MotEvalConfig())
            assert report.mota == pytest.approx(want["mota"], abs=1e-12)
            assert report.motp == pytest.approx(want["motp"], abs=1e-12)
            assert (report.ids, report.frag, report.fn, report.fp,
                    report.gt) == (want["ids"], want["frag"], want["fn"],
                                   want["fp"], want["gt"])

    def test_empty_ground_truth_raises(self):
        hyp = TrajectorySet({1: walker_trajectory((0, 0), (0, 0), 3)})
        with pytest.raises(NoGroundTruthError):
            compute_clear_mot(hyp, TrajectorySet({}))

    def test_ground_truth_without_frames_raises(self):
        hyp = TrajectorySet({1: walker_trajectory((0, 0), (0, 0), 3)})
        with pytest.raises(NoGroundTruthError, match="ground truth is empty"):
            compute_clear_mot(hyp, TrajectorySet({1: []}))

    def test_mota_identity_enforced(self):
        with pytest.raises(ValueError):
            MotReport(mota=0.5, motp=0.5, ids=1, frag=0, fn=1, fp=1, gt=10)


class TestTables:
    def test_mot_table_renders(self):
        gt = TrajectorySet({1: walker_trajectory((0, 0), (0.5, 0), 5)})
        report = compute_clear_mot(TrajectorySet({3: gt.tracks[1]}), gt)
        text = format_mot_table({"four views": report})
        assert "MOTA" in text and "four views" in text

    def test_ap_table_renders(self):
        text = format_ap_table({"early fusion": {ObjectClass.CAR: 0.75,
                                                 ObjectClass.PEDESTRIAN: 0.5,
                                                 ObjectClass.CYCLIST: 0.9}})
        assert "Overall" in text and "0.7167" in text
