"""Detection and tracking evaluation metrics.

Average precision follows the KITTI protocol: greedy score-ordered matching
against ground truth at a class-specific IoU threshold, then interpolated
precision sampled at equally spaced recall levels (40 by default, an
11-point mode for comparison).

Tracking metrics follow CLEAR: per frame, matches from the previous frame
are kept while still valid, the remainder is matched by the Hungarian
method, and FN / FP / identity switches / fragmentations are accumulated.
MOTP is reported as the mean IoU of matched pairs (higher is better);
MOTA = 1 - (FN + FP + IDS) / GT.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import NoGroundTruthError, check_number
from .geometry import Box3D, ObjectClass, iou_3d
from .tracking import TrajectorySet

DEFAULT_IOU_THRESHOLDS = {
    ObjectClass.CAR: 0.70,
    ObjectClass.CYCLIST: 0.50,
    ObjectClass.PEDESTRIAN: 0.50,
}
# every recall level is held at once and _interpolated_ap loops over them
# in Python, about 0.06 s per class for 10,000 levels and 2,000 detections
MAX_RECALL_POINTS = 10_000


@dataclass(frozen=True)
class DetectionEvalConfig:
    iou_thresholds: dict = field(
        default_factory=lambda: dict(DEFAULT_IOU_THRESHOLDS))
    recall_points: int = 40
    include_zero_recall_point: bool = False  # True gives the 11-point variant

    def __post_init__(self):
        for label, threshold in self.iou_thresholds.items():
            check_number(f"eval_det.iou_thresholds.{label.value}", threshold,
                         0, 1, low_open=True)
        check_number("eval_det.recall_points", self.recall_points, 1,
                     MAX_RECALL_POINTS, integer=True)

    @staticmethod
    def with_threshold(value: float) -> "DetectionEvalConfig":
        """Same threshold for every class (the AP_25 / AP_50 / AP_70 variants)."""
        thresholds = {label: value for label in ObjectClass}
        return DetectionEvalConfig(iou_thresholds=thresholds)

    def recall_levels(self) -> np.ndarray:
        if self.include_zero_recall_point:
            return np.linspace(0.0, 1.0, self.recall_points + 1)
        return np.arange(1, self.recall_points + 1) / self.recall_points


def match_detections(detections, ground_truth, label: ObjectClass,
                     threshold: float):
    """Score-ordered greedy matching of one class.

    ``detections`` and ``ground_truth`` are lists of (frame, Box3D). Returns
    (tp_flags ordered by descending score, number of ground-truth boxes).
    Each detection takes the highest-IoU not-yet-matched ground-truth box of
    its frame if that IoU reaches the threshold.
    """
    gt_by_frame: dict = {}
    for frame, gt_box in ground_truth:
        if gt_box.label is label:
            gt_by_frame.setdefault(frame, []).append([gt_box, False])
    n_gt = sum(len(v) for v in gt_by_frame.values())

    candidates = [(frame, det) for frame, det in detections if det.label is label]
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


def _interpolated_ap(tp_flags: np.ndarray, n_gt: int,
                     recall_levels: np.ndarray) -> float:
    if n_gt == 0:
        raise NoGroundTruthError("no ground truth for the requested class")
    if len(tp_flags) == 0:
        return 0.0
    tp_cum = np.cumsum(tp_flags)
    fp_cum = np.cumsum(~tp_flags)
    recall = tp_cum / n_gt
    precision = tp_cum / (tp_cum + fp_cum)
    # precision envelope: max precision at recall >= r, 0 past max recall
    sampled = np.zeros(len(recall_levels))
    for i, level in enumerate(recall_levels):
        reachable = precision[recall >= level - 1e-12]
        if len(reachable):
            sampled[i] = reachable.max()
    return float(sampled.mean())


def _match_class(detections, ground_truth, label, cfg: DetectionEvalConfig):
    label = ObjectClass(label)
    return match_detections(detections, ground_truth, label,
                            cfg.iou_thresholds[label])


def _recall(tp_flags: np.ndarray, n_gt: int) -> float:
    if n_gt == 0:
        raise NoGroundTruthError("no ground truth for the requested class")
    return float(tp_flags.sum() / n_gt)


def compute_ap(detections, ground_truth, label: ObjectClass,
               cfg: DetectionEvalConfig = DetectionEvalConfig()) -> float:
    """Average precision of one class over (frame, Box3D) lists."""
    tp_flags, n_gt = _match_class(detections, ground_truth, label, cfg)
    return _interpolated_ap(tp_flags, n_gt, cfg.recall_levels())


def detection_recall(detections, ground_truth, label: ObjectClass,
                     cfg: DetectionEvalConfig = DetectionEvalConfig()) -> float:
    """Fraction of ground-truth boxes of a class matched by any detection."""
    return _recall(*_match_class(detections, ground_truth, label, cfg))


def recall_and_ap(detections, ground_truth, label: ObjectClass,
                  cfg: DetectionEvalConfig = DetectionEvalConfig()) -> tuple:
    """``(detection_recall, compute_ap)`` of one class from one matching."""
    tp_flags, n_gt = _match_class(detections, ground_truth, label, cfg)
    return (_recall(tp_flags, n_gt),
            _interpolated_ap(tp_flags, n_gt, cfg.recall_levels()))


@dataclass(frozen=True)
class MotEvalConfig:
    threshold: float = 0.25     # a hypothesis and a truth match at this 3D IoU

    def __post_init__(self):
        check_number("eval_mot.threshold", self.threshold, 0, 1, low_open=True)


@dataclass(frozen=True)
class MotReport:
    mota: float
    motp: float
    ids: int
    frag: int
    fn: int
    fp: int
    gt: int

    def __post_init__(self):
        identity = 1.0 - (self.fn + self.fp + self.ids) / self.gt
        if abs(self.mota - identity) > 1e-12:
            raise ValueError("MOTA does not satisfy 1 - (FN+FP+IDS)/GT")


def _pair_score(gt_box: Box3D, hyp_box: Box3D, cfg: MotEvalConfig):
    """(matched?, 3D IoU): the IoU is the similarity MOTP averages."""
    if gt_box.label is not hyp_box.label:
        return False, 0.0
    overlap = iou_3d(gt_box, hyp_box)
    return overlap >= cfg.threshold, overlap


def compute_clear_mot(hypotheses: TrajectorySet, ground_truth: TrajectorySet,
                      cfg: MotEvalConfig = MotEvalConfig()) -> MotReport:
    """CLEAR multiple-object-tracking metrics over two trajectory sets."""
    if not any(ground_truth.tracks.values()):
        raise NoGroundTruthError("ground truth is empty")

    frames = sorted(set(ground_truth.frames()) | set(hypotheses.frames()))
    fn = fp = ids = frag = gt_total = 0
    matched_ious: list = []
    current_match: dict = {}   # gt id -> hyp id, as of the previous frame
    last_match: dict = {}      # gt id -> hyp id at its most recent match
    was_matched: dict = {}     # gt id -> matched at its previous visible frame
    for frame in frames:
        gt_here = {tid: box for tid, box in ground_truth.boxes_at(frame)}
        hyp_here = {tid: box for tid, box in hypotheses.boxes_at(frame)}
        gt_total += len(gt_here)

        matches = {}
        for gt_id, hyp_id in list(current_match.items()):
            if gt_id in gt_here and hyp_id in hyp_here:
                ok, similarity = _pair_score(gt_here[gt_id], hyp_here[hyp_id], cfg)
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
                    ok, sim = _pair_score(gt_here[g], hyp_here[h], cfg)
                    valid[i, j] = ok
                    similarity[i, j] = sim
            cost = np.where(valid, -similarity, 1e9)
            rows, cols = linear_sum_assignment(cost)
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

    mota = 1.0 - (fn + fp + ids) / gt_total
    motp = float(np.mean(matched_ious)) if matched_ious else 0.0
    return MotReport(mota=mota, motp=motp, ids=ids, frag=frag, fn=fn,
                     fp=fp, gt=gt_total)


def format_mot_table(reports: dict) -> str:
    """Human-readable table: one row per named report."""
    header = f"{'':<16}{'MOTA':>8}{'MOTP':>8}{'IDS':>6}{'FRAG':>6}{'FN':>6}{'FP':>6}"
    lines = [header]
    for name, report in reports.items():
        lines.append(f"{name:<16}{report.mota:>8.4f}{report.motp:>8.4f}"
                     f"{report.ids:>6d}{report.frag:>6d}{report.fn:>6d}"
                     f"{report.fp:>6d}")
    return "\n".join(lines)


def format_ap_table(ap_by_method: dict) -> str:
    """Rows: method, columns: class AP values plus the class mean."""
    classes = [ObjectClass.PEDESTRIAN, ObjectClass.CYCLIST, ObjectClass.CAR]
    header = f"{'':<16}" + "".join(f"{c.value:>12}" for c in classes) + f"{'Overall':>12}"
    lines = [header]
    for name, ap_by_class in ap_by_method.items():
        values = [ap_by_class.get(c, float('nan')) for c in classes]
        overall = float(np.mean([v for v in values if not np.isnan(v)]))
        row = f"{name:<16}" + "".join(f"{v:>12.4f}" for v in values)
        lines.append(row + f"{overall:>12.4f}")
    return "\n".join(lines)
