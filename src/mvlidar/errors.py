"""Exception taxonomy shared by the toolkit.

Three families map onto the CLI exit codes: file/format problems (exit 2),
configuration problems (exit 4), and algorithmic failures (exit 3).
"""

import math
from numbers import Integral, Real


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


def check_number(setting: str, value, low=None, high=None, *,
                 low_open: bool = False, high_open: bool = False,
                 integer: bool = False) -> None:
    """Raise ConfigError unless ``value`` is a finite number (an integer
    with ``integer``) within ``low`` and ``high`` (given with ``low``), each
    bound inclusive unless open; a non-integer must convert to a finite
    float. The one range check of every setting: the message reads
    ``<setting> must be <rule>, got <value>``."""
    try:
        fits = (not isinstance(value, bool)
                and isinstance(value, Integral if integer else Real)
                and (integer or math.isfinite(value))
                and (low is None
                     or (value > low if low_open else value >= low))
                and (high is None
                     or (value < high if high_open else value <= high)))
    except OverflowError:  # an integer beyond float range
        fits = False
    if fits:
        return
    rule = "an integer" if integer else "a finite number"
    if high is not None:
        rule += (f" in {'(' if low_open else '['}{low}, "
                 f"{high}{')' if high_open else ']'}")
    elif low is not None:
        rule += f" {'>' if low_open else '>='} {low}"
    raise ConfigError(f"{setting} must be {rule}, got {value!r}")


class AlgorithmError(MvLidarError):
    """An operation could not produce a valid result (CLI exit code 3)."""


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


class DegenerateClusterError(AlgorithmError):
    """Cluster is collinear in bird's-eye view; no oriented box fits it."""


class TooManyPairsError(AlgorithmError):
    """A cloud too dense to cluster within the pair bound."""


class InsufficientNodesError(AlgorithmError):
    """Fewer than two armed nodes; no reference time can be formed."""


class EmptyInputError(AlgorithmError):
    """Operation requires at least one element."""


class NoGroundTruthError(AlgorithmError):
    """Ground truth is empty for the requested class."""
