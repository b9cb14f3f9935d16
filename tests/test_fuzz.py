"""Property tests of the input boundaries: frame bytes, config JSON and the
JSON-lines records."""

import math
import os
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvlidar.errors import ConfigError, FormatError
from mvlidar.formats import (
    _HEADER,
    MAGIC,
    VERSION,
    read_calibration,
    read_detections,
    read_frame,
    read_trajectories,
    write_calibration,
    write_detections,
    write_trajectories,
)
from mvlidar.geometry import Box3D, ObjectClass, RigidTransform
from mvlidar.pipeline import PipelineConfig
from mvlidar.tracking import TrajectorySet

FUZZ = settings(max_examples=200, deadline=None)


def read_bytes_as_frame(data: bytes):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "frame.mvlc")
        with open(path, "wb") as handle:
            handle.write(data)
        return read_frame(path)


# a header that passes the magic and version checks, so the payload checks
# are reached, followed by arbitrary bytes
framed = st.builds(
    lambda flags, count, stamp, node, payload: _HEADER.pack(
        MAGIC, VERSION, flags, count, stamp, node, 0) + payload,
    st.integers(0, 0xFFFF), st.integers(0, 64), st.integers(0, 2**64 - 1),
    st.integers(0, 0xFFFF), st.binary(max_size=512))


@FUZZ
@given(st.one_of(st.binary(max_size=96), framed))
def test_frame_bytes_raise_only_format_errors(data):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cloud = read_bytes_as_frame(data)
        except FormatError:
            return
    assert np.isfinite(cloud.points).all()


def test_signalling_nan_is_refused_without_a_warning():
    point = struct.pack("<I", 0x7F800001) + np.ones(2, "<f4").tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="^point 0: values must be"):
            read_bytes_as_frame(_HEADER.pack(MAGIC, VERSION, 0, 1, 0, 0, 0)
                                + point)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)


def sections(keys):
    """JSON objects over ``keys``, so the parsers get past unknown keys."""
    return st.dictionaries(st.sampled_from(sorted(keys)), json_values,
                           max_size=3)


config_keys = {"seed": json_values, "output_dir": json_values,
               "scene": sections({"frames"}),
               "hierarchy": sections({"levels", "fpfh_radius",
                                      "ransac_iterations", "normal_radius"}),
               "detector": sections({"cluster_distance", "seed"}),
               "tracker": sections({"threshold", "min_hits"}),
               "eval_det": sections({"iou_thresholds", "recall_points"}),
               "eval_mot": sections({"threshold"}),
               "sync": sections({"node_count", "duration_s",
                                 "delay_min_s", "drop_probability"})}
configs = st.one_of(
    json_values,
    st.fixed_dictionaries({}, optional=config_keys))


@FUZZ
@given(configs)
def test_pipeline_config_raises_only_config_errors(raw):
    try:
        PipelineConfig.from_dict(raw)
    except ConfigError:
        pass


# numbers around the bounds of the hierarchy's ranges
near_bounds = (st.integers(-3, 3) | st.sampled_from([-1e-9, 0.0, 1e-9, 0.5,
                                                     1.0 - 1e-9, 1.0, 2.5])
               | st.floats(-2.0, 2.0))
hierarchy_sections = st.dictionaries(
    st.sampled_from(["fpfh_radius", "normal_radius", "ransac_iterations",
                     "ransac_inlier_threshold", "arbitration_hypotheses"]),
    near_bounds | json_values, max_size=4)
hierarchy_levels = st.fixed_dictionaries({"levels": st.lists(
    st.tuples(st.sampled_from([2.0, 1.0, 0.4]), near_bounds,
              near_bounds).map(list), min_size=1, max_size=3)})


@FUZZ
@given(st.one_of(json_values, sections({"levels", "fpfh_radius",
                                        "ransac_iterations",
                                        "arbitration_hypotheses"}),
                 hierarchy_sections, hierarchy_levels))
def test_hierarchy_raises_only_config_errors(raw):
    """Every accepted config lies in the ranges registration can run with."""
    try:
        cfg = PipelineConfig.from_dict({"hierarchy": raw}).hierarchy
    except ConfigError:
        return
    for level in cfg.levels:
        assert level.voxel_size > 0.0
        assert level.max_correspondence_distance > 0.0
        assert level.max_iterations >= 1
    assert min(cfg.fpfh_radius, cfg.normal_radius,
               cfg.ransac_inlier_threshold) > 0.0
    assert cfg.ransac_iterations >= 1
    assert cfg.arbitration_hypotheses >= 1


finite = st.floats(-1e6, 1e6, allow_nan=False)
boxes = st.builds(
    Box3D,
    center=st.tuples(finite, finite, finite),
    size=st.tuples(*[st.floats(1e-3, 1e3)] * 3),
    yaw=st.floats(-1e3, 1e3),
    label=st.sampled_from(list(ObjectClass)),
    score=st.floats(0.0, 1.0),
    track_id=st.none() | st.integers(0, 2**40))


def same_box(a: Box3D, b: Box3D) -> bool:
    return (np.array_equal(a.center, b.center) and np.array_equal(a.size, b.size)
            and a.yaw == b.yaw and a.label is b.label and a.score == b.score
            and a.track_id == b.track_id)


def round_trip(write, read, value):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "records.jsonl")
        write(path, value)
        return read(path)


@FUZZ
@given(st.lists(st.tuples(st.integers(0, 2**40), boxes), max_size=5))
def test_detection_records_round_trip(detections):
    loaded = round_trip(write_detections, read_detections, detections)
    assert len(loaded) == len(detections)
    for (frame_a, box_a), (frame_b, box_b) in zip(loaded, detections):
        assert frame_a == frame_b and same_box(box_a, box_b)


@FUZZ
@given(st.dictionaries(st.integers(0, 2**40),
                       st.dictionaries(st.integers(0, 2**40), boxes,
                                       min_size=1, max_size=4),
                       max_size=3))
def test_trajectory_records_round_trip(raw):
    # a trajectory keeps no score, and its boxes carry their track id
    tracks = {track_id: [(frame, Box3D(box.center, box.size, box.yaw,
                                       box.label, track_id=track_id))
                         for frame, box in sorted(entries.items())]
              for track_id, entries in raw.items()}
    loaded = round_trip(write_trajectories, read_trajectories,
                        TrajectorySet(tracks=tracks)).tracks
    assert sorted(loaded) == sorted(tracks)
    for track_id, entries in tracks.items():
        assert [f for f, _ in loaded[track_id]] == [f for f, _ in entries]
        assert all(same_box(a, b) for (_, a), (_, b)
                   in zip(loaded[track_id], entries))


unit = st.floats(-1.0, 1.0, allow_nan=False)


def rotation(quaternion) -> np.ndarray:
    w, x, y, z = np.asarray(quaternion) / np.linalg.norm(quaternion)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


transforms = st.builds(
    lambda q, t: RigidTransform(rotation(q), t),
    st.tuples(unit, unit, unit, unit).filter(
        lambda q: math.sqrt(sum(v * v for v in q)) > 0.1),
    st.tuples(finite, finite, finite))


@FUZZ
@given(st.dictionaries(st.integers(0, 0xFFFF), transforms, max_size=4))
def test_calibration_records_round_trip(extrinsics):
    loaded = round_trip(write_calibration, read_calibration, extrinsics)
    assert sorted(loaded) == sorted(extrinsics)
    for node, transform in extrinsics.items():
        assert np.array_equal(loaded[node].rotation, transform.rotation)
        assert np.array_equal(loaded[node].translation, transform.translation)
