"""Exception taxonomy shared by the toolkit.

Three families map onto the CLI exit codes: file/format problems (exit 2),
configuration problems (exit 4), and algorithmic failures (exit 3).
"""


class MvLidarError(Exception):
    """Base class for all toolkit errors."""


class FormatError(MvLidarError):
    """Malformed or corrupted input data (CLI exit code 2)."""


class BadMagicError(FormatError):
    pass


class UnsupportedVersionError(FormatError):
    pass


class TruncatedPayloadError(FormatError):
    pass


class RecordError(FormatError):
    """Invalid record: a JSON-lines record, an .xyz line or a frame point."""


class ConfigError(MvLidarError):
    """Invalid or unresolvable configuration (CLI exit code 4)."""


class AlgorithmError(MvLidarError):
    """An operation could not produce a valid result (CLI exit code 3)."""


class BehindCameraError(AlgorithmError):
    """Point is behind the image plane and cannot be projected."""


class DegenerateConfigurationError(AlgorithmError):
    """Point configuration too degenerate for a rigid fit."""


class NoConsensusError(AlgorithmError):
    """RANSAC found no hypothesis with enough inliers."""


class NoCorrespondencesError(AlgorithmError):
    """ICP found zero point pairs within the correspondence distance."""


class CalibrationFailedError(AlgorithmError):
    """Registration fitness below the failed-calibration threshold."""


class TimestampSkewError(AlgorithmError):
    """Frames of a multi-view set are not synchronized within the window."""


class DegenerateYawError(AlgorithmError):
    """Heading vectors cancel out; averaged yaw is undefined."""


class NoGroundPlaneError(AlgorithmError):
    """No near-horizontal plane with sufficient consensus."""


class DegenerateClusterError(AlgorithmError):
    """Cluster is collinear in bird's-eye view; no oriented box fits it."""


class InsufficientNodesError(AlgorithmError):
    """Fewer than two armed nodes; no reference time can be formed."""


class EmptyInputError(AlgorithmError):
    """Operation requires at least one element."""


class NoGroundTruthError(AlgorithmError):
    """Ground truth is empty for the requested class."""
