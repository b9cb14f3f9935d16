"""On-disk formats: the binary frame container and JSON-lines records.

Frame container (little-endian, 24-byte header):

    magic          4 bytes  b"MVLC"
    version        u16      1
    flags          u16      bit0 intensity, bit1 time index, bit2 source id
    point_count    u32
    timestamp_ns   u64
    node_id        u16      0xFFFF when the cloud has no acquiring node
    reserved       u16      0

followed by point_count records of x, y, z (float32) plus, per flags,
intensity (float32), time index (u16) and source id (u16). The declared
count must match the payload size exactly; the magic and version are
verified on read, and every coordinate and intensity must be finite.

JSON-lines records (one object per line, unknown keys ignored):

    detection    {"frame", "class", "center"[3], "size"[3], "yaw", "score"}
    annotation   detection keys plus "track_id"
    trajectory   {"frame", "track_id", "class", "center", "size", "yaw"}
    calibration  {"node_id", "rotation"[9 row-major], "translation"[3]}

"frame", "track_id" and "node_id" must be non-negative JSON integers, and
the other numbers finite JSON numbers: 2.0 for an index, "2" and true are
refused, not cast. All writers are atomic (temp file + rename); JSON
documents go through ``write_json``.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from typing import Iterable

import numpy as np

from .errors import (
    BadMagicError,
    RecordError,
    TruncatedPayloadError,
    UnsupportedVersionError,
)
from .geometry import Box3D, ObjectClass, PointCloud, RigidTransform
from .tracking import TrajectorySet

MAGIC = b"MVLC"
VERSION = 1
_HEADER = struct.Struct("<4sHHIQHH")
_NO_NODE = 0xFFFF

FLAG_INTENSITY = 0x1
FLAG_TIME_INDEX = 0x2
FLAG_SOURCE_ID = 0x4


def atomic_write(path, data: bytes):
    """Write data to path through a temporary file in the same directory,
    so readers see either the old file or the whole new one."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload) -> None:
    """One JSON document with sorted keys; class keys are written by name
    and numpy scalars as numbers."""
    data = json.dumps(payload, sort_keys=True, indent=2,
                      default=lambda value: value.item())
    atomic_write(path, (data + "\n").encode())


def write_frame(path, cloud: PointCloud) -> None:
    """Serialize a cloud. Coordinates are stored as float32."""
    flags = 0
    parts = [cloud.points.astype("<f4")]
    if cloud.intensity is not None:
        flags |= FLAG_INTENSITY
        parts.append(cloud.intensity.astype("<f4").reshape(-1, 1))
    if cloud.time_index is not None:
        flags |= FLAG_TIME_INDEX
        if cloud.time_index.min(initial=0) < 0 or \
                cloud.time_index.max(initial=0) > 0xFFFF:
            raise ValueError("time_index values must fit in u16")
        parts.append(cloud.time_index.astype("<u2").reshape(-1, 1))
    if cloud.source_ids is not None:
        flags |= FLAG_SOURCE_ID
        if cloud.source_ids.min(initial=0) < 0 or \
                cloud.source_ids.max(initial=0) > 0xFFFF:
            raise ValueError("source_ids values must fit in u16")
        parts.append(cloud.source_ids.astype("<u2").reshape(-1, 1))

    node_id = _NO_NODE if cloud.source_node is None else int(cloud.source_node)
    if not 0 <= node_id <= 0xFFFF:
        raise ValueError("source_node must fit in u16")
    header = _HEADER.pack(MAGIC, VERSION, flags, len(cloud),
                          cloud.timestamp_ns, node_id, 0)
    record = np.zeros(len(cloud), dtype=_record_dtype(flags))
    record["x"], record["y"], record["z"] = (cloud.points.astype("<f4").T)
    if flags & FLAG_INTENSITY:
        record["intensity"] = cloud.intensity.astype("<f4")
    if flags & FLAG_TIME_INDEX:
        record["time_index"] = cloud.time_index.astype("<u2")
    if flags & FLAG_SOURCE_ID:
        record["source"] = cloud.source_ids.astype("<u2")
    atomic_write(path, header + record.tobytes())


def _record_dtype(flags: int) -> np.dtype:
    fields = [("x", "<f4"), ("y", "<f4"), ("z", "<f4")]
    if flags & FLAG_INTENSITY:
        fields.append(("intensity", "<f4"))
    if flags & FLAG_TIME_INDEX:
        fields.append(("time_index", "<u2"))
    if flags & FLAG_SOURCE_ID:
        fields.append(("source", "<u2"))
    return np.dtype(fields)


def read_frame(path) -> PointCloud:
    """Read a frame file, verifying magic, version, and payload size."""
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < _HEADER.size:
        raise TruncatedPayloadError(f"file is only {len(data)} bytes")
    magic, version, flags, count, timestamp_ns, node_id, _ = \
        _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported version {version}")
    dtype = _record_dtype(flags)
    payload = data[_HEADER.size:]
    if len(payload) != count * dtype.itemsize:
        raise TruncatedPayloadError(
            f"declared {count} points ({count * dtype.itemsize} bytes), "
            f"payload has {len(payload)} bytes")
    record = np.frombuffer(payload, dtype=dtype)
    # checked before widening, which warns on a signalling NaN
    points = np.column_stack([record["x"], record["y"], record["z"]])
    intensity = record["intensity"] if flags & FLAG_INTENSITY else None
    finite = np.isfinite(points).all(axis=1)
    if intensity is not None:
        finite &= np.isfinite(intensity)
    if not finite.all():
        raise RecordError(f"point {int(np.argmin(finite))}: values must be "
                          f"finite")
    return PointCloud(
        points.astype(float),
        intensity=None if intensity is None else intensity.astype(float),
        timestamp_ns=int(timestamp_ns),
        time_index=record["time_index"].astype(np.int64)
        if flags & FLAG_TIME_INDEX else None,
        source_ids=record["source"].astype(np.int64)
        if flags & FLAG_SOURCE_ID else None,
        source_node=None if node_id == _NO_NODE else int(node_id))


def write_xyz(path, cloud: PointCloud) -> None:
    """ASCII interop: one "x y z [intensity]" line per point."""
    lines = []
    for i in range(len(cloud)):
        x, y, z = (float(v) for v in cloud.points[i])
        if cloud.intensity is not None:
            lines.append(f"{x!r} {y!r} {z!r} {float(cloud.intensity[i])!r}")
        else:
            lines.append(f"{x!r} {y!r} {z!r}")
    atomic_write(path, ("\n".join(lines) + ("\n" if lines else "")).encode())


def read_xyz(path) -> PointCloud:
    points, intensity = [], []
    with open(path) as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) not in (3, 4):
                raise RecordError(f"line {line_no}: expected 3 or 4 columns")
            try:
                values = [float(f) for f in fields]
            except ValueError:
                raise RecordError(f"line {line_no}: non-numeric field")
            if not all(math.isfinite(v) for v in values):
                raise RecordError(f"line {line_no}: values must be finite")
            points.append(values[:3])
            if len(fields) == 4:
                intensity.append(values[3])
    if intensity and len(intensity) != len(points):
        raise RecordError("intensity column present on only some lines")
    return PointCloud(np.array(points).reshape(-1, 3),
                      intensity=np.array(intensity) if intensity else None)


# ---------------------------------------------------------------------------
# JSON-lines records
# ---------------------------------------------------------------------------

def _require(record: dict, key: str, line_no: int):
    if key not in record:
        raise RecordError(f"line {line_no}: missing key {key!r}")
    return record[key]


def _index(record: dict, key: str, line_no: int) -> int:
    """A frame, track or node index: a non-negative JSON integer, never
    cast."""
    value = _require(record, key, line_no)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise RecordError(f"line {line_no}: {key} must be a non-negative "
                          f"integer, got {value!r}")
    return value


def _number(value, key: str, line_no: int) -> float:
    """A finite JSON number: a bool, a string or an overflowing integer is
    refused, not cast."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    raise RecordError(f"line {line_no}: {key} must be a finite number, "
                      f"got {value!r}")


def _numbers(record: dict, key: str, n: int, line_no: int) -> list:
    values = _require(record, key, line_no)
    if not isinstance(values, list) or len(values) != n:
        raise RecordError(f"line {line_no}: {key} must be {n} finite numbers")
    return [_number(v, key, line_no) for v in values]


def _dump_lines(records: Iterable[dict]) -> bytes:
    lines = [json.dumps(record, sort_keys=True, separators=(",", ":"))
             for record in records]
    return ("\n".join(lines) + ("\n" if lines else "")).encode()


def _load_lines(path):
    with open(path) as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RecordError(f"line {line_no}: invalid JSON ({exc.msg})")
            if not isinstance(record, dict):
                raise RecordError(f"line {line_no}: record must be an object")
            yield line_no, record


def _box_record(frame: int, box: Box3D, track_id=None,
                with_score: bool = True) -> dict:
    """The record of one box: a detection or annotation with its score, a
    trajectory entry without."""
    record = {"frame": int(frame), "class": box.label.value,
              "center": [float(v) for v in box.center],
              "size": [float(v) for v in box.size], "yaw": float(box.yaw)}
    if with_score:
        record["score"] = float(box.score)
    if track_id is not None:
        record["track_id"] = int(track_id)
    return record


def _record_box(record: dict, line_no: int, with_track: bool = False):
    """(frame, Box3D) of a box record; ``with_track`` requires a track_id."""
    frame = _index(record, "frame", line_no)
    track_id = _index(record, "track_id", line_no) \
        if with_track or "track_id" in record else None
    center = _numbers(record, "center", 3, line_no)
    size = _numbers(record, "size", 3, line_no)
    yaw = _number(_require(record, "yaw", line_no), "yaw", line_no)
    score = _number(record["score"], "score", line_no) \
        if "score" in record else 1.0
    try:
        box = Box3D(center=center, size=size, yaw=yaw,
                    label=ObjectClass(_require(record, "class", line_no)),
                    score=score, track_id=track_id)
    except ValueError as exc:
        raise RecordError(f"line {line_no}: {exc}")
    return frame, box


def flatten_frames(boxes_per_frame) -> list:
    """(frame, Box3D) pairs, frame by frame, of per-frame box lists."""
    return [(frame, box) for frame, boxes in enumerate(boxes_per_frame)
            for box in boxes]


def group_by_frame(detections) -> list:
    """Per-frame box lists of (frame, Box3D) pairs, up to the last frame
    that has a box: the inverse of ``flatten_frames``."""
    per_frame = [[] for _ in range(max((f for f, _ in detections),
                                       default=-1) + 1)]
    for frame, box in detections:
        per_frame[frame].append(box)
    return per_frame


def write_detections(path, detections) -> None:
    """``detections`` is an iterable of (frame, Box3D)."""
    atomic_write(path, _dump_lines(_box_record(frame, box, box.track_id)
                                   for frame, box in detections))


def read_detections(path) -> list:
    return [_record_box(record, line_no)
            for line_no, record in _load_lines(path)]


def write_trajectories(path, trajectories: TrajectorySet) -> None:
    atomic_write(path, _dump_lines(
        _box_record(frame, box, track_id, with_score=False)
        for track_id in sorted(trajectories.tracks)
        for frame, box in trajectories.tracks[track_id]))


def read_trajectories(path) -> TrajectorySet:
    tracks: dict = {}
    for line_no, record in _load_lines(path):
        frame, box = _record_box(record, line_no, with_track=True)
        tracks.setdefault(box.track_id, []).append((frame, box))
    for entries in tracks.values():
        entries.sort(key=lambda e: e[0])
    try:
        return TrajectorySet(tracks=tracks)
    except ValueError as exc:
        raise RecordError(str(exc))


def write_calibration(path, extrinsics: dict) -> None:
    """``extrinsics`` maps node id -> RigidTransform (node to world)."""
    atomic_write(path, _dump_lines(
        {"node_id": int(node_id),
         "rotation": [float(v) for v in transform.rotation.reshape(9)],
         "translation": [float(v) for v in transform.translation]}
        for node_id, transform in sorted(extrinsics.items())))


def read_calibration(path) -> dict:
    extrinsics = {}
    for line_no, record in _load_lines(path):
        node_id = _index(record, "node_id", line_no)
        rotation = _numbers(record, "rotation", 9, line_no)
        try:
            extrinsics[node_id] = RigidTransform(
                np.array(rotation).reshape(3, 3),
                _numbers(record, "translation", 3, line_no))
        except ValueError as exc:
            raise RecordError(f"line {line_no}: {exc}")
    return extrinsics
