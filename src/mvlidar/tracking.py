"""3D multi-object tracking: constant-velocity Kalman filter per track,
3D-IoU Hungarian association, and birth/death lifecycle management.

State vector per track: (x, y, z, yaw, l, w, h, vx, vy, vz). Measurements
are detection boxes (x, y, z, yaw, l, w, h). A yaw innovation is wrapped to
(-pi/2, pi/2] because detector boxes are 180-degree symmetric and cannot
distinguish heading from anti-heading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ConfigError, check_number
from .geometry import Box3D, iou_3d, may_overlap, wrap_angle, \
    wrap_half_angle

STATE_DIM = 10
MEAS_DIM = 7

_CROSS_CLASS_COST = 1e9

# a new track's velocity variance: the one box it is born from has no motion
_INITIAL_VELOCITY_VARIANCE = 10.0

# Most frames ``track_detections`` steps through, gaps included: a day at
# 10 frames/s is 864,000 frames.
MAX_TIMELINE_FRAMES = 1_000_000
# Longest step (s) between two frames: the constant-velocity prediction
# grows the covariance with dt**2, which overflows to infinity long before
# 1e308 s, and frames an hour apart are no longer one motion anyway.
MAX_FRAME_DT_S = 3600.0
# process noise variance the constant-velocity model adds per second
# (ten times this on the velocity), and a box measurement's noise variance,
# which is also a new track's initial variance
PROCESS_NOISE = 0.2
MEASUREMENT_NOISE = 0.01


@dataclass(frozen=True)
class TrackerConfig:
    threshold: float = 0.01     # a track and a detection match at this 3D IoU
    min_hits: int = 3
    max_age: int = 2

    def __post_init__(self):
        check_number("tracker.threshold", self.threshold, 0, 1, low_open=True)
        check_number("tracker.min_hits", self.min_hits, 1, integer=True)
        check_number("tracker.max_age", self.max_age, 0, integer=True)


class TrackState:
    """Mutable Kalman state of one track. Single-owner: not thread-safe."""

    def __init__(self, box: Box3D, track_id: int):
        self.track_id = track_id
        self.label = box.label
        self.hits = 1
        self.age_since_update = 0
        self.score = box.score
        self.mean = np.zeros(STATE_DIM)
        self.mean[0:3] = box.center
        self.mean[3] = box.yaw
        self.mean[4:7] = box.size
        cov = np.eye(STATE_DIM) * MEASUREMENT_NOISE
        cov[7:, 7:] = np.eye(3) * _INITIAL_VELOCITY_VARIANCE
        self.covariance = cov

    def to_box(self) -> Box3D:
        return Box3D(center=self.mean[0:3],
                     size=np.maximum(self.mean[4:7], 1e-6),
                     yaw=wrap_angle(float(self.mean[3])),
                     label=self.label,
                     score=self.score,
                     track_id=self.track_id)


def _transition_matrix(dt: float) -> np.ndarray:
    f = np.eye(STATE_DIM)
    f[0, 7] = f[1, 8] = f[2, 9] = dt
    return f


def _process_noise(dt: float) -> np.ndarray:
    q = np.eye(STATE_DIM) * PROCESS_NOISE * dt
    q[7:, 7:] = np.eye(3) * PROCESS_NOISE * dt * 10.0
    return q


_MEASUREMENT_MATRIX = np.zeros((MEAS_DIM, STATE_DIM))
_MEASUREMENT_MATRIX[:MEAS_DIM, :MEAS_DIM] = np.eye(MEAS_DIM)


def kalman_predict(track: TrackState, dt: float) -> TrackState:
    """Advance the track by dt seconds under the constant-velocity model."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    f = _transition_matrix(dt)
    track.mean = f @ track.mean
    track.covariance = f @ track.covariance @ f.T + _process_noise(dt)
    track.covariance = 0.5 * (track.covariance + track.covariance.T)
    track.age_since_update += 1
    return track


def kalman_update(track: TrackState, detection: Box3D) -> TrackState:
    """Fold a matched detection into the track (Joseph-form update)."""
    if detection.label is not track.label:
        raise ValueError("detection class does not match track class")
    z = np.concatenate([detection.center, [detection.yaw], detection.size])
    h = _MEASUREMENT_MATRIX
    innovation = z - h @ track.mean
    innovation[3] = wrap_half_angle(innovation[3])
    r = np.eye(MEAS_DIM) * MEASUREMENT_NOISE
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


def associate(tracks: list, detections: list, cfg: TrackerConfig):
    """Optimal one-to-one matching between tracks and detections by 3D IoU.

    Returns (matches, unmatched_track_indices, unmatched_detection_indices)
    where matches is a list of (track_index, detection_index). Pairs below
    the IoU threshold (or across classes) are unmatched. A pair's affinity
    is its IoU, -1e9 across classes; ``iou_3d`` runs only on the pairs
    ``may_overlap`` keeps, and every other same-class pair's IoU is 0.0.
    """
    if not tracks or not detections:
        return [], list(range(len(tracks))), list(range(len(detections)))
    boxes = [t.to_box() for t in tracks]
    affinity = np.array([[0.0 if box.label is det.label
                          else -_CROSS_CLASS_COST for det in detections]
                         for box in boxes])
    for r, c in np.argwhere(may_overlap(boxes, detections)).tolist():
        affinity[r, c] = iou_3d(boxes[r], detections[c])
    rows, cols = linear_sum_assignment(-affinity)
    matches = []
    matched_tracks, matched_dets = set(), set()
    for r, c in zip(rows, cols):
        if affinity[r, c] >= cfg.threshold:
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


def check_frame_dt(frame_dt) -> None:
    """Raise ConfigError unless the step between frames, in seconds, lies
    in (0, MAX_FRAME_DT_S]."""
    check_number("frame_dt", frame_dt, 0, MAX_FRAME_DT_S, low_open=True)


def track_sequence(detections_per_frame: list, cfg: TrackerConfig,
                   frame_dt: float) -> TrajectorySet:
    """Run the tracker over a detection sequence.

    Per frame: predict all live tracks, associate, update matched tracks,
    spawn tentative tracks from unmatched detections, and kill tracks not
    updated for more than max_age frames. A track is reported only once it
    has min_hits updates; its earlier tentative frames are then included
    retroactively. Track ids increase monotonically and are never reused.
    """
    check_frame_dt(frame_dt)
    live: list[TrackState] = []
    history: dict[int, list] = {}
    output: dict[int, list] = {}  # the confirmed tracks
    next_id = 1

    for frame, detections in enumerate(detections_per_frame):
        for track in live:
            kalman_predict(track, frame_dt)
        matches, unmatched_tracks, unmatched_dets = associate(live, detections, cfg)

        for track_idx, det_idx in matches:
            track = live[track_idx]
            kalman_update(track, detections[det_idx])
            entry = (frame, track.to_box())
            history[track.track_id].append(entry)
            if track.hits >= cfg.min_hits:
                if track.track_id not in output:
                    output[track.track_id] = list(history[track.track_id])
                else:
                    output[track.track_id].append(entry)

        for det_idx in unmatched_dets:
            track = TrackState(detections[det_idx], next_id)
            next_id += 1
            live.append(track)
            history[track.track_id] = [(frame, track.to_box())]
            if cfg.min_hits <= 1:
                output[track.track_id] = list(history[track.track_id])

        survivors = []
        for track in live:
            if track.age_since_update > cfg.max_age:
                history.pop(track.track_id, None)
            else:
                survivors.append(track)
        live = survivors

    return TrajectorySet(tracks=output)


def track_detections(detections, cfg: TrackerConfig,
                     frame_dt: float) -> TrajectorySet:
    """``track_sequence`` over (frame, Box3D) pairs with any frame numbers.

    Frames before the first box are dropped and longer gaps between frames
    with boxes are cut to max_age + 2 frames, by which every track has died,
    so the tracker's state is the same and a huge frame number costs no
    memory. The output keeps the real frame numbers. Raises ConfigError
    when the shortened timeline would exceed MAX_TIMELINE_FRAMES, as a huge
    max_age makes it.
    """
    frames = sorted({frame for frame, _ in detections})
    position = dict.fromkeys(frames[:1], 0)
    for previous, frame in zip(frames, frames[1:]):
        position[frame] = position[previous] + min(frame - previous,
                                                   cfg.max_age + 2)
    length = max(position.values(), default=-1) + 1
    if length > MAX_TIMELINE_FRAMES:
        raise ConfigError(
            f"tracking would step through {length} frames, more than "
            f"{MAX_TIMELINE_FRAMES}: gaps between frames with boxes are kept "
            f"up to max_age + 2 = {cfg.max_age + 2} frames")
    per_frame = [[] for _ in range(length)]
    for frame, box in detections:
        per_frame[position[frame]].append(box)
    real = {index: frame for frame, index in position.items()}
    tracks = track_sequence(per_frame, cfg, frame_dt).tracks
    return TrajectorySet({track_id: [(real[index], box) for index, box in entries]
                          for track_id, entries in tracks.items()})
