"""Multi-view LiDAR toolkit.

Library for operating a distributed multi-LiDAR capture rig entirely at desk
scale: automatic extrinsic calibration by multi-scale feature registration,
simulation of the wireless trigger + GPS-PPS synchronization protocol,
multi-view point-cloud and detection-box fusion, a geometric 3D detector,
Kalman multi-object tracking, and AP / CLEAR tracking metrics.
"""

from .errors import (
    AlgorithmError,
    CalibrationFailedError,
    ConfigError,
    DegenerateConfigurationError,
    FormatError,
    MvLidarError,
    NoConsensusError,
    NoCorrespondencesError,
)
from .geometry import (
    Box3D,
    ObjectClass,
    PointCloud,
    RigidTransform,
    apply_transform,
    compose,
    iou_3d,
    voxel_downsample,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmError",
    "Box3D",
    "CalibrationFailedError",
    "ConfigError",
    "DegenerateConfigurationError",
    "FormatError",
    "MvLidarError",
    "NoConsensusError",
    "NoCorrespondencesError",
    "ObjectClass",
    "PointCloud",
    "RigidTransform",
    "apply_transform",
    "compose",
    "iou_3d",
    "voxel_downsample",
]
