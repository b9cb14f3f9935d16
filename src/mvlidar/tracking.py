"""3D multi-object tracking: constant-velocity Kalman filter per track,
IoU-based Hungarian association, and birth/death lifecycle management.

State vector per track: (x, y, z, yaw, l, w, h, vx, vy, vz). Measurements
are detection boxes (x, y, z, yaw, l, w, h). A yaw innovation is wrapped to
(-pi/2, pi/2] because detector boxes are 180-degree symmetric and cannot
distinguish heading from anti-heading.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ConfigError
from .geometry import Box3D, iou_3d, iou_bev, wrap_angle, wrap_half_angle

STATE_DIM = 10
MEAS_DIM = 7

_CROSS_CLASS_COST = 1e9


class AssociationMetric(str, Enum):
    IOU_3D = "iou_3d"
    IOU_BEV = "iou_bev"
    CENTER_DISTANCE = "center_distance"


@dataclass(frozen=True)
class TrackerConfig:
    metric: AssociationMetric = AssociationMetric.IOU_3D
    # IoU metrics: match if affinity >= threshold; center distance: match if
    # distance <= threshold (meters)
    threshold: float = 0.01
    min_hits: int = 3
    max_age: int = 2
    process_noise: float = 0.2
    measurement_noise: float = 0.01
    initial_velocity_variance: float = 10.0

    def __post_init__(self):
        if self.min_hits < 1:
            raise ConfigError("min_hits must be >= 1")
        if self.max_age < 0:
            raise ConfigError("max_age must be >= 0")
        object.__setattr__(self, "metric", AssociationMetric(self.metric))


class TrackState:
    """Mutable Kalman state of one track. Single-owner: not thread-safe."""

    def __init__(self, box: Box3D, track_id: int, cfg: TrackerConfig):
        self.track_id = track_id
        self.label = box.label
        self.hits = 1
        self.age_since_update = 0
        self.score = box.score
        self.mean = np.zeros(STATE_DIM)
        self.mean[0:3] = box.center
        self.mean[3] = box.yaw
        self.mean[4:7] = box.size
        cov = np.eye(STATE_DIM) * cfg.measurement_noise
        cov[7:, 7:] = np.eye(3) * cfg.initial_velocity_variance
        self.covariance = cov

    def to_box(self) -> Box3D:
        return Box3D(center=self.mean[0:3],
                     size=np.maximum(self.mean[4:7], 1e-6),
                     yaw=wrap_angle(float(self.mean[3])),
                     label=self.label,
                     score=self.score,
                     track_id=self.track_id)

    @property
    def velocity(self) -> np.ndarray:
        return self.mean[7:10].copy()


def _transition_matrix(dt: float) -> np.ndarray:
    f = np.eye(STATE_DIM)
    f[0, 7] = f[1, 8] = f[2, 9] = dt
    return f


def _process_noise(cfg: TrackerConfig, dt: float) -> np.ndarray:
    q = np.eye(STATE_DIM) * cfg.process_noise * dt
    q[7:, 7:] = np.eye(3) * cfg.process_noise * dt * 10.0
    return q


_MEASUREMENT_MATRIX = np.zeros((MEAS_DIM, STATE_DIM))
_MEASUREMENT_MATRIX[:MEAS_DIM, :MEAS_DIM] = np.eye(MEAS_DIM)


def kalman_predict(track: TrackState, dt: float, cfg: TrackerConfig) -> TrackState:
    """Advance the track by dt seconds under the constant-velocity model."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    f = _transition_matrix(dt)
    track.mean = f @ track.mean
    track.covariance = f @ track.covariance @ f.T + _process_noise(cfg, dt)
    track.covariance = 0.5 * (track.covariance + track.covariance.T)
    track.age_since_update += 1
    return track


def kalman_update(track: TrackState, detection: Box3D,
                  cfg: TrackerConfig) -> TrackState:
    """Fold a matched detection into the track (Joseph-form update)."""
    if detection.label is not track.label:
        raise ValueError("detection class does not match track class")
    z = np.concatenate([detection.center, [detection.yaw], detection.size])
    h = _MEASUREMENT_MATRIX
    innovation = z - h @ track.mean
    innovation[3] = wrap_half_angle(innovation[3])
    r = np.eye(MEAS_DIM) * cfg.measurement_noise
    s = h @ track.covariance @ h.T + r
    gain = track.covariance @ h.T @ np.linalg.inv(s)
    track.mean = track.mean + gain @ innovation
    track.mean[3] = wrap_angle(float(track.mean[3]))
    joseph = np.eye(STATE_DIM) - gain @ h
    track.covariance = joseph @ track.covariance @ joseph.T + gain @ r @ gain.T
    track.covariance = 0.5 * (track.covariance + track.covariance.T)
    track.hits += 1
    track.age_since_update = 0
    track.score = detection.score
    return track


def _affinity(track_box: Box3D, detection: Box3D, metric: AssociationMetric) -> float:
    if track_box.label is not detection.label:
        return -_CROSS_CLASS_COST
    if metric is AssociationMetric.IOU_3D:
        return iou_3d(track_box, detection)
    if metric is AssociationMetric.IOU_BEV:
        return iou_bev(track_box, detection)
    return -float(np.linalg.norm(track_box.center - detection.center))


def _passes_threshold(affinity: float, cfg: TrackerConfig) -> bool:
    if cfg.metric is AssociationMetric.CENTER_DISTANCE:
        return -affinity <= cfg.threshold
    return affinity >= cfg.threshold


def associate(tracks: list, detections: list, cfg: TrackerConfig):
    """Optimal one-to-one matching between track boxes and detections.

    Returns (matches, unmatched_track_indices, unmatched_detection_indices)
    where matches is a list of (track_index, detection_index). Pairs whose
    affinity fails the threshold (or crosses classes) are unmatched.
    """
    if not tracks or not detections:
        return [], list(range(len(tracks))), list(range(len(detections)))
    boxes = [t.to_box() if isinstance(t, TrackState) else t for t in tracks]
    affinity = np.array([[_affinity(tb, det, cfg.metric) for det in detections]
                         for tb in boxes])
    rows, cols = linear_sum_assignment(-affinity)
    matches = []
    matched_tracks, matched_dets = set(), set()
    for r, c in zip(rows, cols):
        if affinity[r, c] <= -_CROSS_CLASS_COST:
            continue
        if _passes_threshold(affinity[r, c], cfg):
            matches.append((int(r), int(c)))
            matched_tracks.add(int(r))
            matched_dets.add(int(c))
    unmatched_tracks = [i for i in range(len(tracks)) if i not in matched_tracks]
    unmatched_dets = [i for i in range(len(detections)) if i not in matched_dets]
    return matches, unmatched_tracks, unmatched_dets


@dataclass(frozen=True)
class TrajectorySet:
    """Map track id -> time-ordered list of (frame index, Box3D)."""

    tracks: dict

    def __post_init__(self):
        for track_id, entries in self.tracks.items():
            frames = [f for f, _ in entries]
            if any(b - a <= 0 for a, b in zip(frames, frames[1:])):
                raise ValueError(f"track {track_id} frames are not strictly increasing")

    def frames(self):
        """All frame indices covered by any track, sorted."""
        out = set()
        for entries in self.tracks.values():
            out.update(f for f, _ in entries)
        return sorted(out)

    def boxes_at(self, frame: int):
        """List of (track_id, Box3D) present at a frame."""
        found = []
        for track_id, entries in self.tracks.items():
            for f, box in entries:
                if f == frame:
                    found.append((track_id, box))
        return found

    def __len__(self):
        return len(self.tracks)


def track_sequence(detections_per_frame: list, cfg: TrackerConfig = TrackerConfig(),
                   frame_dt: float = 0.1) -> TrajectorySet:
    """Run the tracker over a detection sequence.

    Per frame: predict all live tracks, associate, update matched tracks,
    spawn tentative tracks from unmatched detections, and kill tracks not
    updated for more than max_age frames. A track is reported only once it
    has min_hits updates; its earlier tentative frames are then included
    retroactively. Track ids increase monotonically and are never reused.
    """
    if frame_dt <= 0.0:
        raise ConfigError("frame_dt must be positive")
    live: list[TrackState] = []
    history: dict[int, list] = {}
    confirmed: set[int] = set()
    output: dict[int, list] = {}
    next_id = 1

    for frame, detections in enumerate(detections_per_frame):
        for track in live:
            kalman_predict(track, frame_dt, cfg)
        matches, unmatched_tracks, unmatched_dets = associate(live, detections, cfg)

        for track_idx, det_idx in matches:
            track = live[track_idx]
            kalman_update(track, detections[det_idx], cfg)
            entry = (frame, track.to_box())
            history[track.track_id].append(entry)
            if track.hits >= cfg.min_hits:
                if track.track_id not in confirmed:
                    confirmed.add(track.track_id)
                    output[track.track_id] = list(history[track.track_id])
                else:
                    output[track.track_id].append(entry)

        for det_idx in unmatched_dets:
            track = TrackState(detections[det_idx], next_id, cfg)
            next_id += 1
            live.append(track)
            history[track.track_id] = [(frame, track.to_box())]
            if cfg.min_hits <= 1:
                confirmed.add(track.track_id)
                output[track.track_id] = list(history[track.track_id])

        survivors = []
        for track in live:
            if track.age_since_update > cfg.max_age:
                history.pop(track.track_id, None)
            else:
                survivors.append(track)
        live = survivors

    return TrajectorySet(tracks=output)
