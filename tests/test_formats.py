import numpy as np
import pytest

from mvlidar.errors import (
    BadMagicError,
    RecordError,
    TruncatedPayloadError,
    UnsupportedVersionError,
)
from mvlidar.formats import (
    _HEADER,
    read_calibration,
    read_detections,
    read_frame,
    read_trajectories,
    read_xyz,
    write_calibration,
    write_detections,
    write_frame,
    write_trajectories,
    write_xyz,
)
from mvlidar.geometry import Box3D, ObjectClass, PointCloud, RigidTransform
from mvlidar.tracking import TrajectorySet


def f32_cloud(rng, n=100, **kwargs):
    """Cloud whose coordinates are exactly representable in float32."""
    points = rng.uniform(-50, 50, size=(n, 3)).astype(np.float32).astype(float)
    return PointCloud(points, **kwargs)


class TestFrameFile:
    def test_header_is_24_bytes(self):
        assert _HEADER.size == 24

    def test_round_trip_plain(self, rng, tmp_path):
        cloud = f32_cloud(rng, timestamp_ns=123_456_789)
        path = tmp_path / "frame.mvlc"
        write_frame(path, cloud)
        loaded = read_frame(path)
        np.testing.assert_array_equal(loaded.points, cloud.points)
        assert loaded.timestamp_ns == cloud.timestamp_ns
        assert loaded.source_node is None

    def test_round_trip_all_attributes(self, rng, tmp_path):
        n = 64
        cloud = PointCloud(
            rng.uniform(-10, 10, size=(n, 3)).astype(np.float32).astype(float),
            intensity=rng.random(n).astype(np.float32).astype(float),
            timestamp_ns=42,
            time_index=rng.integers(0, 4, n),
            source_ids=rng.integers(0, 4, n),
            source_node=3)
        path = tmp_path / "frame.mvlc"
        write_frame(path, cloud)
        loaded = read_frame(path)
        np.testing.assert_array_equal(loaded.points, cloud.points)
        np.testing.assert_array_equal(loaded.intensity, cloud.intensity)
        np.testing.assert_array_equal(loaded.time_index, cloud.time_index)
        np.testing.assert_array_equal(loaded.source_ids, cloud.source_ids)
        assert loaded.source_node == 3

    def test_rewrite_is_byte_identical(self, rng, tmp_path):
        cloud = f32_cloud(rng, source_node=1)
        a, b = tmp_path / "a.mvlc", tmp_path / "b.mvlc"
        write_frame(a, cloud)
        write_frame(b, read_frame(a))
        assert a.read_bytes() == b.read_bytes()

    def test_empty_cloud_header_only(self, tmp_path):
        path = tmp_path / "empty.mvlc"
        write_frame(path, PointCloud.empty())
        assert path.stat().st_size == _HEADER.size
        assert len(read_frame(path)) == 0

    def test_truncated_payload_detected(self, rng, tmp_path):
        path = tmp_path / "frame.mvlc"
        write_frame(path, f32_cloud(rng, n=10))
        data = path.read_bytes()
        path.write_bytes(data[:-12])  # drop one 12-byte record
        with pytest.raises(TruncatedPayloadError):
            read_frame(path)

    def test_trailing_garbage_detected(self, rng, tmp_path):
        path = tmp_path / "frame.mvlc"
        write_frame(path, f32_cloud(rng, n=10))
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(TruncatedPayloadError):
            read_frame(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "frame.mvlc"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(BadMagicError):
            read_frame(path)

    def test_unsupported_version(self, rng, tmp_path):
        path = tmp_path / "frame.mvlc"
        write_frame(path, f32_cloud(rng, n=1))
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedVersionError):
            read_frame(path)

    def test_short_file(self, tmp_path):
        path = tmp_path / "frame.mvlc"
        path.write_bytes(b"MVLC")
        with pytest.raises(TruncatedPayloadError):
            read_frame(path)

    @pytest.mark.parametrize("column", [2, 3])
    def test_nonfinite_payload_names_the_point(self, rng, tmp_path, column):
        path = tmp_path / "frame.mvlc"
        cloud = f32_cloud(rng, n=5)
        write_frame(path, PointCloud(cloud.points, intensity=np.ones(5)))
        data = bytearray(path.read_bytes())
        offset = _HEADER.size + 3 * 16 + 4 * column  # 16-byte records
        data[offset:offset + 4] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(RecordError, match="point 3"):
            read_frame(path)


class TestXyzInterop:
    def test_round_trip(self, rng, tmp_path):
        cloud = PointCloud(rng.uniform(-5, 5, size=(20, 3)),
                           intensity=rng.random(20))
        path = tmp_path / "cloud.xyz"
        write_xyz(path, cloud)
        loaded = read_xyz(path)
        np.testing.assert_allclose(loaded.points, cloud.points)
        np.testing.assert_allclose(loaded.intensity, cloud.intensity)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("1.0 2.0\n")
        with pytest.raises(RecordError):
            read_xyz(path)

    @pytest.mark.parametrize("bad_line", ["0 0 abc", "0 nan 0", "0 0 0 inf"])
    def test_bad_value_names_the_line(self, tmp_path, bad_line):
        path = tmp_path / "cloud.xyz"
        path.write_text(f"# header\n1 2 3\n{bad_line}\n")
        with pytest.raises(RecordError, match="line 3"):
            read_xyz(path)


def car(x, score=0.8, track_id=None):
    return Box3D((x, 0.0, 0.8), (4.0, 2.0, 1.6), 0.1, ObjectClass.CAR,
                 score=score, track_id=track_id)


class TestDetectionRecords:
    def test_round_trip(self, tmp_path):
        detections = [(0, car(1.0, 0.9)), (0, car(8.0, 0.7)), (1, car(1.5, 0.95))]
        path = tmp_path / "det.jsonl"
        write_detections(path, detections)
        loaded = read_detections(path)
        assert len(loaded) == 3
        for (fa, ba), (fb, bb) in zip(loaded, detections):
            assert fa == fb
            np.testing.assert_allclose(ba.center, bb.center)
            assert ba.score == bb.score
            assert ba.label is bb.label

    def test_annotation_round_trip_keeps_track_id(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        write_detections(path, [(5, car(1.0, track_id=17))])
        [(frame, box)] = read_detections(path)
        assert frame == 5 and box.track_id == 17

    def test_unknown_keys_ignored(self, tmp_path):
        path = tmp_path / "det.jsonl"
        path.write_text('{"frame":0,"class":"Car","center":[0,0,0],'
                        '"size":[4,2,1.5],"yaw":0.0,"score":0.5,"extra":42}\n')
        [(frame, box)] = read_detections(path)
        assert frame == 0 and box.label is ObjectClass.CAR

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "det.jsonl"
        path.write_text('{"frame":0,"class":"Car"}\n')
        with pytest.raises(RecordError):
            read_detections(path)

    def test_nonfinite_number_rejected(self, tmp_path):
        path = tmp_path / "det.jsonl"
        path.write_text('{"frame":0,"class":"Car","center":[0,0,NaN],'
                        '"size":[4,2,1.5],"yaw":0.0,"score":0.5}\n')
        with pytest.raises(RecordError):
            read_detections(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "det.jsonl"
        path.write_text("not json\n")
        with pytest.raises(RecordError):
            read_detections(path)


DETECTION_LINE = ('{{"frame":{frame},"class":"Car","center":[0,0,0],'
                  '"size":[4,2,1.5],"yaw":0.0,"score":0.5{extra}}}\n')
TRAJECTORY_LINE = ('{{"frame":{frame},"track_id":{track_id},"class":"Car",'
                   '"center":[0,0,0],"size":[4,2,1.5],"yaw":0.0}}\n')
BAD_INDICES = ["-1", "2.7", "2.0", '"x"', '"2"', "true", "null", "[1]"]


class TestRecordIndices:
    """frame and track_id are non-negative JSON integers, never cast."""

    @pytest.mark.parametrize("value", BAD_INDICES)
    def test_bad_detection_frame_names_the_line(self, tmp_path, value):
        path = tmp_path / "det.jsonl"
        path.write_text(DETECTION_LINE.format(frame=0, extra="")
                        + DETECTION_LINE.format(frame=value, extra=""))
        with pytest.raises(RecordError, match=r"^line 2: frame must be a "
                           r"non-negative integer, got "):
            read_detections(path)

    @pytest.mark.parametrize("value", BAD_INDICES)
    def test_bad_annotation_track_id(self, tmp_path, value):
        path = tmp_path / "ann.jsonl"
        path.write_text(DETECTION_LINE.format(
            frame=3, extra=f',"track_id":{value}'))
        with pytest.raises(RecordError, match=r"^line 1: track_id must be"):
            read_detections(path)

    @pytest.mark.parametrize("key", ["frame", "track_id"])
    @pytest.mark.parametrize("value", BAD_INDICES)
    def test_bad_trajectory_index(self, tmp_path, key, value):
        fields = {"frame": 0, "track_id": 1, key: value}
        path = tmp_path / "traj.jsonl"
        path.write_text(TRAJECTORY_LINE.format(frame=0, track_id=1)
                        + TRAJECTORY_LINE.format(**fields))
        with pytest.raises(RecordError, match=rf"^line 2: {key} must be"):
            read_trajectories(path)

    def test_zero_and_large_indices_kept_exactly(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text(DETECTION_LINE.format(frame=0, extra=',"track_id":0')
                        + DETECTION_LINE.format(frame=2**40, extra=""))
        [(frame_a, box_a), (frame_b, box_b)] = read_detections(path)
        assert (frame_a, box_a.track_id) == (0, 0)
        assert (frame_b, box_b.track_id) == (2**40, None)
        assert type(frame_b) is int
        path = tmp_path / "traj.jsonl"
        path.write_text(TRAJECTORY_LINE.format(frame=7, track_id=0))
        assert [f for f, _ in read_trajectories(path).tracks[0]] == [7]


class TestTrajectoryRecords:
    def test_round_trip(self, tmp_path):
        trajectories = TrajectorySet({
            1: [(0, car(0.0, track_id=1)), (1, car(0.5, track_id=1))],
            4: [(2, car(9.0, track_id=4))]})
        path = tmp_path / "traj.jsonl"
        write_trajectories(path, trajectories)
        loaded = read_trajectories(path)
        assert sorted(loaded.tracks) == [1, 4]
        assert [f for f, _ in loaded.tracks[1]] == [0, 1]

    def test_rewrite_is_byte_identical(self, tmp_path):
        trajectories = TrajectorySet({2: [(0, car(1.0)), (3, car(2.0))]})
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trajectories(a, trajectories)
        write_trajectories(b, read_trajectories(a))
        assert a.read_bytes() == b.read_bytes()


class TestCalibrationRecords:
    def test_round_trip(self, tmp_path, rng):
        from conftest import random_transform
        extrinsics = {n: random_transform(rng) for n in range(4)}
        path = tmp_path / "calib.jsonl"
        write_calibration(path, extrinsics)
        loaded = read_calibration(path)
        assert sorted(loaded) == [0, 1, 2, 3]
        for node, transform in extrinsics.items():
            np.testing.assert_allclose(loaded[node].rotation,
                                       transform.rotation, atol=1e-15)
            np.testing.assert_allclose(loaded[node].translation,
                                       transform.translation, atol=1e-15)

    def test_invalid_rotation_rejected(self, tmp_path):
        path = tmp_path / "calib.jsonl"
        path.write_text('{"node_id":0,"rotation":[2,0,0,0,1,0,0,0,1],'
                        '"translation":[0,0,0]}\n')
        with pytest.raises(RecordError):
            read_calibration(path)


BAD_NUMBERS = ['"1.5"', '"abc"', "true", "null", "[1]", "1e999"]


class TestRecordNumbers:
    """Box and calibration numbers are finite JSON numbers, never cast."""

    @pytest.mark.parametrize("value", BAD_NUMBERS)
    @pytest.mark.parametrize("key", ["yaw", "score"])
    def test_bad_detection_number(self, tmp_path, key, value):
        line = DETECTION_LINE.format(frame=0, extra="")
        path = tmp_path / "det.jsonl"
        path.write_text(line + line.replace(f'"{key}":', f'"{key}":{value},'
                                            f'"old_{key}":'))
        with pytest.raises(RecordError, match=rf"^line 2: {key} must be a "
                           r"finite number, got "):
            read_detections(path)

    @pytest.mark.parametrize("value", BAD_NUMBERS)
    @pytest.mark.parametrize("key", ["center", "size", "yaw"])
    def test_bad_trajectory_number(self, tmp_path, key, value):
        bad = {"center": f'"center":[0,{value},0]',
               "size": f'"size":[4,{value},1.5]',
               "yaw": f'"yaw":{value}'}[key]
        line = TRAJECTORY_LINE.format(frame=0, track_id=1)
        good = {"center": '"center":[0,0,0]', "size": '"size":[4,2,1.5]',
                "yaw": '"yaw":0.0'}[key]
        path = tmp_path / "traj.jsonl"
        path.write_text(line.replace(good, bad))
        with pytest.raises(RecordError, match=rf"^line 1: {key} must be a "
                           r"finite number, got "):
            read_trajectories(path)

    @pytest.mark.parametrize("value", ['"abc"', "[0,0]", "[0,0,0,0]", "3"])
    def test_wrong_length_or_type_of_list(self, tmp_path, value):
        path = tmp_path / "det.jsonl"
        path.write_text(DETECTION_LINE.format(frame=0, extra="").replace(
            '"center":[0,0,0]', f'"center":{value}'))
        with pytest.raises(RecordError,
                           match=r"^line 1: center must be 3 finite numbers"):
            read_detections(path)

    @pytest.mark.parametrize("node_id", BAD_INDICES)
    def test_bad_node_id(self, tmp_path, node_id):
        path = tmp_path / "calib.jsonl"
        path.write_text(f'{{"node_id":{node_id},"rotation":[1,0,0,0,1,0,0,0,1],'
                        f'"translation":[0,0,0]}}\n')
        with pytest.raises(RecordError, match=r"^line 1: node_id must be a "
                           r"non-negative integer, got "):
            read_calibration(path)

    @pytest.mark.parametrize("value", BAD_NUMBERS)
    def test_bad_translation(self, tmp_path, value):
        path = tmp_path / "calib.jsonl"
        path.write_text(f'{{"node_id":0,"rotation":[1,0,0,0,1,0,0,0,1],'
                        f'"translation":[0,{value},0]}}\n')
        with pytest.raises(RecordError, match=r"^line 1: translation must be "
                           r"a finite number, got "):
            read_calibration(path)

    def test_repeated_trajectory_frame(self, tmp_path):
        path = tmp_path / "traj.jsonl"
        path.write_text(TRAJECTORY_LINE.format(frame=4, track_id=2) * 2)
        with pytest.raises(RecordError, match="^track 2 frames are not "
                           "strictly increasing"):
            read_trajectories(path)
