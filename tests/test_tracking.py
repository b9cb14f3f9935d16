import math

import numpy as np
import pytest

from mvlidar import tracking
from mvlidar.errors import ConfigError
from mvlidar.geometry import Box3D, ObjectClass, iou_3d
from mvlidar.tracking import (
    TrackerConfig,
    TrackState,
    TrajectorySet,
    associate,
    kalman_predict,
    kalman_update,
    track_detections,
    track_sequence,
)


def box(x=0.0, y=0.0, z=0.0, yaw=0.0, size=(4.0, 2.0, 1.5),
        label=ObjectClass.CAR, score=0.9, track_id=None):
    return Box3D((x, y, z), size, yaw, label, score=score, track_id=track_id)


CFG = TrackerConfig()


class TestKalman:
    def test_zero_velocity_prediction_keeps_position(self):
        track = TrackState(box(), 1)
        trace_before = np.trace(track.covariance)
        kalman_predict(track, 0.1)
        np.testing.assert_allclose(track.mean[0:3], [0.0, 0.0, 0.0])
        assert np.trace(track.covariance) > trace_before

    def test_velocity_moves_position(self):
        track = TrackState(box(), 1)
        track.mean[7] = 1.0
        kalman_predict(track, 0.1)
        assert track.mean[0] == pytest.approx(0.1)

    def test_predict_ages_track_to_death(self):
        track = TrackState(box(), 1)
        for _ in range(CFG.max_age + 1):
            kalman_predict(track, 0.1)
        assert track.age_since_update > CFG.max_age

    def test_update_at_predicted_mean_shrinks_covariance(self):
        track = TrackState(box(), 1)
        kalman_predict(track, 0.1)
        predicted_mean = track.mean.copy()
        trace_before = np.trace(track.covariance)
        detection = box()  # identical to predicted pose (zero velocity)
        kalman_update(track, detection)
        np.testing.assert_allclose(track.mean[:7], predicted_mean[:7], atol=1e-12)
        assert np.trace(track.covariance) < trace_before
        assert track.age_since_update == 0

    def test_yaw_innovation_of_pi_wraps_to_zero(self):
        track = TrackState(box(yaw=0.0), 1)
        flipped = box(yaw=math.pi)
        kalman_update(track, flipped)
        assert track.mean[3] == pytest.approx(0.0, abs=1e-9)

    def test_repeated_updates_converge_to_measurement(self):
        # scalar-Kalman convergence: gain stays positive, error contracts
        track = TrackState(box(), 1)
        target = box(x=2.0, y=-1.0, z=0.3)
        for _ in range(20):
            kalman_predict(track, 0.1)
            kalman_update(track, target)
        np.testing.assert_allclose(track.mean[0:3], target.center, atol=1e-3)

    def test_covariance_positive_definite_through_random_steps(self, rng):
        track = TrackState(box(), 1)
        for _ in range(500):
            kalman_predict(track, 0.1)
            if rng.random() < 0.7:
                jitter = rng.normal(scale=0.5, size=3)
                kalman_update(track, box(*(track.mean[0:3] + jitter)))
            eigenvalues = np.linalg.eigvalsh(track.covariance)
            assert eigenvalues.min() > 0.0
            asym = np.abs(track.covariance - track.covariance.T).max()
            assert asym < 1e-9

    def test_cross_class_update_rejected(self):
        track = TrackState(box(), 1)
        with pytest.raises(ValueError):
            kalman_update(track, box(label=ObjectClass.PEDESTRIAN))


class TestAssociate:
    def test_no_tracks_all_detections_unmatched(self):
        matches, unmatched_tracks, unmatched_dets = associate([], [box()], CFG)
        assert matches == [] and unmatched_tracks == [] and unmatched_dets == [0]

    def test_identity_matching_with_disjoint_pairs(self):
        tracks = [TrackState(box(x=0.0), 1), TrackState(box(x=20.0), 2)]
        detections = [box(x=0.3), box(x=20.3)]
        matches, ut, ud = associate(tracks, detections, CFG)
        assert sorted(matches) == [(0, 0), (1, 1)] and not ut and not ud

    def test_cross_class_never_matches(self):
        tracks = [TrackState(box(label=ObjectClass.CAR), 1)]
        detections = [box(label=ObjectClass.PEDESTRIAN, size=(0.6, 0.6, 1.7))]
        matches, ut, ud = associate(tracks, detections, CFG)
        assert matches == [] and ut == [0] and ud == [0]

    def test_optimal_beats_greedy_on_constructed_trap(self):
        # 4 m boxes in a row, so a pair dx apart has IoU (4 - dx) / (4 + dx):
        # greedy takes the best pair (t0, d0) first and ends with a lower
        # total than the optimal assignment
        tracks = [TrackState(box(x=0.0), 1),
                  TrackState(box(x=2.5), 2)]
        detections = [box(x=0.5), box(x=-1.0)]
        matches, _, _ = associate(tracks, detections, CFG)
        total = sum(iou_3d(tracks[t].to_box(), detections[d])
                    for t, d in matches)
        greedy = 3.5 / 4.5 + 0.5 / 7.5
        best = 3.0 / 5.0 + 2.0 / 6.0
        assert total == pytest.approx(best) and best > greedy
        assert sorted(matches) == [(0, 1), (1, 0)]

    def test_matches_brute_force_on_random_instances(self, rng):
        cfg = TrackerConfig(threshold=0.0001)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            tracks = [TrackState(box(x=float(rng.uniform(-5, 5)),
                                     y=float(rng.uniform(-5, 5))), i + 1)
                      for i in range(n)]
            detections = [box(x=float(rng.uniform(-5, 5)),
                              y=float(rng.uniform(-5, 5))) for _ in range(n)]
            matches, _, _ = associate(tracks, detections, cfg)
            from itertools import permutations
            affinity = np.array([[iou_3d(t.to_box(), d) for d in detections]
                                 for t in tracks])
            best = max(sum(affinity[i, p[i]] for i in range(n))
                       for p in permutations(range(n)))
            achieved = sum(affinity[t, d] for t, d in matches)
            # matched subset achieves the optimal total (threshold ~ 0)
            assert achieved >= best - 1e-9


class TestTrackSequence:
    def make_walkers(self, n_frames, drop=None, objects=2):
        """Perfect detections of well-separated constant-velocity objects."""
        frames = []
        for k in range(n_frames):
            dets = []
            for obj in range(objects):
                if drop and (k, obj) in drop:
                    continue
                dets.append(box(x=20.0 * obj + 0.5 * k * 0.1, y=2.0 * obj,
                                score=0.9))
            frames.append(dets)
        return frames

    def test_two_objects_two_tracks_full_length(self):
        frames = self.make_walkers(50)
        result = track_sequence(frames, CFG, frame_dt=0.1)
        assert len(result) == 2
        for entries in result.tracks.values():
            assert len(entries) == 50  # retroactive tentative frames included
            assert [f for f, _ in entries] == list(range(50))

    def test_short_gap_keeps_track_id(self):
        drop = {(10, 0), (11, 0)}  # gap of exactly max_age frames
        frames = self.make_walkers(30, drop=drop)
        result = track_sequence(frames, CFG, frame_dt=0.1)
        assert len(result) == 2

    def test_long_gap_spawns_new_id(self):
        drop = {(10, 0), (11, 0), (12, 0), (13, 0)}  # max_age + 2 frames
        frames = self.make_walkers(30, drop=drop)
        result = track_sequence(frames, CFG, frame_dt=0.1)
        assert len(result) == 3

    def test_track_ids_unique_and_increasing(self):
        drop = {(10, 0), (11, 0), (12, 0), (13, 0), (20, 1), (21, 1),
                (22, 1), (23, 1)}
        frames = self.make_walkers(40, drop=drop)
        result = track_sequence(frames, CFG, frame_dt=0.1)
        ids = sorted(result.tracks)
        assert len(ids) == len(set(ids)) == 4

    def test_births_below_min_hits_not_reported(self):
        # a two-frame flicker never reaches min_hits=3
        frames = [[], [box(x=50.0)], [box(x=50.0)], [], [], []]
        result = track_sequence(frames, CFG, frame_dt=0.1)
        assert len(result) == 0

    def test_longest_frame_step_keeps_tracks_finite(self):
        """Walkers with gaps, stepped MAX_FRAME_DT_S apart, track without
        an overflow; a longer step is refused."""
        drop = {(3, 0), (4, 0), (5, 1)}
        frames = self.make_walkers(10, drop=drop)
        result = track_sequence(frames, CFG, frame_dt=tracking.MAX_FRAME_DT_S)
        assert len(result) >= 2
        with pytest.raises(ConfigError, match="^frame_dt must be"):
            track_sequence(frames, CFG,
                           frame_dt=2 * tracking.MAX_FRAME_DT_S)

    def test_trajectory_set_rejects_unsorted_frames(self):
        with pytest.raises(ValueError):
            TrajectorySet({1: [(3, box()), (2, box())]})


class TestTrackDetectionsTimeline:
    """The shortened timeline may hold MAX_TIMELINE_FRAMES frames, no more."""

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(tracking, "MAX_TIMELINE_FRAMES", 10)
        cfg = TrackerConfig(min_hits=1, max_age=7)
        # frames 0 and 1000: the gap is cut to max_age + 2 = 9 frames, so
        # the timeline holds frames 0..9
        tracks = track_detections([(0, box()), (1000, box())], cfg)
        assert sorted(tracks.frames()) == [0, 1000]
        with pytest.raises(ConfigError, match="11 frames, more than 10"):
            track_detections([(0, box()), (1000, box())],
                             TrackerConfig(min_hits=1, max_age=8))

    def test_huge_max_age_refused(self):
        with pytest.raises(ConfigError, match="max_age"):
            track_detections([(0, box()), (10**12, box())],
                             TrackerConfig(max_age=10**12))
