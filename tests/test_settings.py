"""Every numeric config field is type- and range-checked once, by the class
that owns it, and every entry point gives the same verdict.

For each field a value drawn from the non-finite and extreme numbers and
from around the field's own bounds is given to the class's constructor, to
``PipelineConfig.from_dict`` where a JSON key sets the field, and to
``mvlidar``: as that JSON in the ``--config`` file of the command that
reads the field, or as the option that sets it. All of them accept it or
all refuse it, and a refusal is a ConfigError (exit 4, one line) naming the
field by its path: ``<section>.<key>`` for a JSON key, the option for an
option that sets no config field. A value of the wrong JSON type, and one
below the field's range, are refused by all three with one message, which
starts with the field's config path and `` must be ``.
Nothing here runs a session, a scene or a tracker: each command is stopped
at its first call after its configs are made.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from dataclasses import replace as dc_replace
from numbers import Integral, Real
from typing import Callable, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvlidar import cli
from mvlidar.detector import DetectorConfig
from mvlidar.errors import ConfigError
from mvlidar.fusion import ViewFrameSet
from mvlidar.geometry import ObjectClass, PointCloud, RigidTransform
from mvlidar.metrics import MAX_RECALL_POINTS, DetectionEvalConfig, \
    MotEvalConfig
from mvlidar.pipeline import PipelineConfig, crossroad_hierarchy
from mvlidar.registration import MAX_RANSAC_ITERATIONS, HierarchyLevel
from mvlidar.scene import MAX_SCENE_FRAMES, NodePose, SceneSpec
from mvlidar.syncsim import MAX_SESSION_NODES, MAX_SESSION_S, \
    NetworkModel, NodeClockModel
from mvlidar.tracking import TrackerConfig

# 10**400 is an exact integer beyond float range
SPECIAL = [math.nan, math.inf, -math.inf, 0, -1, 1e308, 10**400]


class Reached(Exception):
    """A command got past its configs to the work this test never runs."""


def reached(*args, **kwargs):
    raise Reached


# per command: the calls after the configs are made, stopped or stubbed
STOPS = {
    "calibrate": {"read_frame": reached},
    "detect": {"_frames_in": reached},
    "sync-sim": {"simulate_session": reached},
    "track": {"read_detections": reached},
    "eval-det": {"read_detections": reached},
    "eval-mot": {"read_trajectories": reached},
    "pipeline": {"run_pipeline": reached},
    "make-scene": {"generate_synthetic_scene": reached},
    "fuse": {"read_calibration": lambda path: {0: RigidTransform.identity()},
             "_node_dirs": lambda path: {0: path},
             "_frames_in": lambda path: [PointCloud([[1.0, 2.0, 3.0]])],
             "write_frame": reached},
}
REQUIRED = {"calibrate": ["--node-root", "n", "--reference", "r",
                          "--out", "o"],
            "detect": ["--frames", "f", "--out", "o", "--background", "b"],
            "sync-sim": [], "track": ["--detections", "d", "--out", "o"],
            "eval-det": ["--detections", "d", "--ground-truth", "g"],
            "eval-mot": ["--hypotheses", "h", "--ground-truth", "g"],
            "pipeline": [], "make-scene": ["--out", "o"],
            "fuse": ["--calib", "c", "--frames", "f"]}  # and --out


@pytest.fixture(scope="module")
def fuse_out(tmp_path_factory):
    """The directory ``fuse`` makes before its first fused frame."""
    return str(tmp_path_factory.mktemp("fused"))


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    """Where a command's ``--config`` file is written."""
    return tmp_path_factory.mktemp("config") / "config.json"


def converts_to_float(value) -> bool:
    try:
        float(value)
    except OverflowError:
        return False
    return True


@dataclass(frozen=True)
class Field:
    """A numeric field of the config class ``owner``: the name every
    refusal of it holds (its config path where a JSON key sets it), the
    constructor call that sets it, the interval it must lie in (with the
    other fields at their defaults), and the JSON and the command option
    that set it where there are such; an option ``--config`` takes the JSON
    in a file."""

    owner: type
    name: str
    path: str
    build: Callable
    interval: str                       # "(0, 1]", "[1, inf)", ...
    integer: bool = False
    json: Optional[Callable] = None
    option: Optional[tuple] = None      # (command, option)

    def __str__(self):
        return f"{self.owner.__name__}.{self.name}"

    @property
    def bounds(self) -> tuple:
        return tuple(float(v) for v in self.interval[1:-1].split(","))

    def accepts(self, value) -> bool:
        """The verdict the interval gives: a number of the field's type,
        finite and within the bounds. A non-integer field's value must
        convert to a finite float."""
        low, high = self.bounds
        return (not isinstance(value, bool)
                and isinstance(value, Integral if self.integer else Real)
                and (self.integer or converts_to_float(value))
                and (value > low if self.interval[0] == "(" else value >= low)
                and (value < high if self.interval[-1] == ")"
                     else value <= high))


SYNC = PipelineConfig().sync
HIERARCHY = crossroad_hierarchy()
POSE = NodePose.looking_at((10.0, 0.0, 3.0), (0.0, 0.0, 0.0))
# the frame count, duration_s * frame_rate_hz, lies in [1, 1e6]: at the
# default 10 s and 10 Hz each of the two lies in this interval
FRAME_COUNT = "[0.1, 100000]"


def section(name, key):
    return lambda v: {name: {key: v}}


def levels_with(index, position):
    """The crossroad levels as JSON, with one entry set to the value."""
    def levels(v):
        levels = [[1.0, 2.0, 40], [0.4, 0.8, 60]]
        levels[index][position] = v
        return levels
    return levels


def fields():
    out = []
    out.append(Field(DetectorConfig, "cluster_distance",
                     "detector.cluster_distance",
                     lambda v: DetectorConfig(cluster_distance=v),
                     "(0, inf)", json=section("detector", "cluster_distance"),
                     option=("detect", "--config")))
    for key, interval, integer in (
            ("threshold", "(0, 1]", False),
            ("min_hits", "[1, inf)", True),
            ("max_age", "[0, inf)", True)):
        out.append(Field(TrackerConfig, key, f"tracker.{key}",
                         lambda v, k=key: TrackerConfig(**{k: v}),
                         interval, integer, section("tracker", key),
                         ("track", "--config")))
    for key, interval, integer in (
            ("node_count", f"[1, {MAX_SESSION_NODES}]", True),
            ("duration_s", FRAME_COUNT, False),
            ("frame_rate_hz", FRAME_COUNT, False)):
        out.append(Field(type(SYNC), key, f"sync.{key}",
                         lambda v, k=key: dc_replace(SYNC, **{k: v}),
                         interval, integer, section("sync", key),
                         ("sync-sim", "--config")))
    out.append(Field(type(SYNC), "seed", "sync.seed",
                     lambda v: dc_replace(SYNC, seed=v), "[0, inf)", True))
    for key, interval in (
            ("delay_min_s", "[0, 0.2]"),
            ("delay_max_s", f"[0.001, {MAX_SESSION_S}]"),
            ("drop_probability", "[0, 1]")):
        out.append(Field(NetworkModel, key, f"sync.{key}",
                         lambda v, k=key: NetworkModel(**{k: v}), interval,
                         json=section("sync", key),
                         option=("sync-sim", "--config")))
    for key, interval in (("drift_ppm", "(-inf, inf)"),
                          ("pps_jitter_s", "[0, inf)"),
                          ("frame_jitter_s", "[0, inf)")):
        out.append(Field(NodeClockModel, key, key,
                         lambda v, k=key: NodeClockModel(**{k: v}), interval))
    out.append(Field(
        DetectionEvalConfig, "iou_thresholds", "eval_det.iou_thresholds.Car",
        lambda v: DetectionEvalConfig(iou_thresholds={ObjectClass.CAR: v}),
        "(0, 1]", json=lambda v: {"eval_det": {"iou_thresholds": {"Car": v}}},
        option=("eval-det", "--config")))
    out.append(Field(DetectionEvalConfig, "recall_points",
                     "eval_det.recall_points",
                     lambda v: DetectionEvalConfig(recall_points=v),
                     f"[1, {MAX_RECALL_POINTS}]", True,
                     section("eval_det", "recall_points"),
                     ("eval-det", "--config")))
    out.append(Field(MotEvalConfig, "threshold", "eval_mot.threshold",
                     lambda v: MotEvalConfig(threshold=v), "(0, 1]",
                     json=section("eval_mot", "threshold"),
                     option=("eval-mot", "--config")))
    for index, position, name, interval, integer in (
            (1, 0, "voxel_size", "(0, 1)", False),   # below level 0's
            (0, 1, "max_correspondence_distance", "(0, inf)", False),
            (0, 2, "max_iterations", "[1, inf)", True)):
        levels = levels_with(index, position)
        out.append(Field(
            HierarchyLevel, name, f"hierarchy.levels[{index}].{name}",
            lambda v, f=levels: dc_replace(HIERARCHY, levels=f(v)),
            interval, integer, lambda v, f=levels: {"hierarchy": {"levels":
                                                                  f(v)}},
            ("calibrate", "--config")))
    for key, interval, integer in (
            ("fpfh_radius", "(0, inf)", False),
            ("normal_radius", "(0, inf)", False),
            ("ransac_inlier_threshold", "(0, inf)", False),
            ("ransac_iterations", f"[1, {MAX_RANSAC_ITERATIONS}]", True),
            ("arbitration_hypotheses", "[1, inf)", True)):
        out.append(Field(type(HIERARCHY), key, f"hierarchy.{key}",
                         lambda v, k=key: dc_replace(HIERARCHY, **{k: v}),
                         interval, integer, section("hierarchy", key),
                         ("calibrate", "--config")))
    for key, interval, integer in (
            ("extent", "(0, inf)", False),
            ("n_frames", f"[1, {MAX_SCENE_FRAMES}]", True),
            ("frame_rate_hz", "(0, inf)", False),
            ("noise_sigma", "[0, inf)", False),
            ("azimuth_steps", "[2, inf)", True),
            ("elevation_steps", "[2, inf)", True),
            ("reference_azimuth_steps", "[2, inf)", True),
            ("reference_elevation_steps", "[2, inf)", True)):
        out.append(Field(SceneSpec, key, key,
                         lambda v, k=key: SceneSpec(nodes=(POSE,), **{k: v}),
                         interval, integer))
    out.append(Field(ViewFrameSet, "sync_window_s", "sync_window_s",
                     lambda v: ViewFrameSet({}, {}, sync_window_s=v),
                     "[0, inf)", option=("fuse", "--sync-window")))
    out.append(Field(PipelineConfig, "seed", "seed",
                     lambda v: PipelineConfig(seed=v),
                     "[0, inf)", True, lambda v: {"seed": v},
                     ("pipeline", "--seed")))
    out.append(Field(PipelineConfig, "scene_frames", "scene.frames",
                     lambda v: PipelineConfig(scene_frames=v),
                     f"[1, {MAX_SCENE_FRAMES}]",
                     True, section("scene", "frames"),
                     ("make-scene", "--config")))
    return out


FIELDS = fields()


def drawn(field: Field):
    """The special values, the finite bounds and the floats next to them,
    small integers, and floats around the bounds."""
    edges = [b for b in field.bounds if math.isfinite(b)]
    near = [math.nextafter(b, d) for b in edges
            for d in (-math.inf, math.inf)]
    low, high = min(edges, default=0.0), max(edges, default=0.0)
    return (st.sampled_from(SPECIAL + edges + near)
            | st.integers(int(low) - 3, int(high) + 3)
            | st.floats(low - 2.0, high + 2.0))


def verdict(make, path) -> bool:
    """True if ``make()`` accepts; a refusal must be a ConfigError whose
    message holds ``path``."""
    try:
        make()
    except ConfigError as exc:
        assert path in str(exc), str(exc)
        return False
    return True


def run_cli(argv, fuse_out) -> tuple:
    """``mvlidar`` on ``argv`` with its command stopped after its configs
    are made: the exit code, None once stopped, and what it wrote to
    stderr. Argparse's SystemExit passes through."""
    command = argv[0]
    if command == "fuse":
        argv = argv + ["--out", fuse_out]
    stderr = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        for name, stub in STOPS[command].items():
            patch.setattr(cli, name, stub)
        try:
            code = cli.main(argv)
        except Reached:
            code = None
    return code, stderr.getvalue()


def config_argv(field: Field, value, config_path) -> list:
    """The command that reads the field, with the field's JSON for
    ``value`` in its ``--config`` file."""
    command = field.option[0]
    config_path.write_text(json.dumps(field.json(value)))
    return [command, *REQUIRED[command], "--config", str(config_path)]


def cli_verdict(field: Field, value, fuse_out, config_path) -> bool:
    command, option = field.option
    if option == "--config":
        argv = config_argv(field, value, config_path)
    else:
        argv = [command, *REQUIRED[command], f"{option}={value!r}"]
    try:
        code, message = run_cli(argv, fuse_out)
    except SystemExit as exc:
        # argparse refuses a non-integer for an integer option
        assert field.integer and option != "--config" and exc.code == 2
        return False
    if code is None:
        return True
    assert code == 4, message
    assert message.startswith("error: ") and message.count("\n") == 1
    # ``fuse --sync-window`` sets no config field, so its refusal names
    # the option
    assert (option if option == "--sync-window" else field.path) in message, \
        message
    return False


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_every_entry_point_gives_the_same_verdict(field, data, fuse_out,
                                                  config_path):
    value = data.draw(drawn(field), label=field.name)
    accepted = verdict(lambda: field.build(value), field.path)
    assert accepted == field.accepts(value)
    if field.json is not None:
        assert verdict(lambda: PipelineConfig.from_dict(field.json(value)),
                       field.path) == accepted
    if field.option is not None:
        assert cli_verdict(field, value, fuse_out, config_path) == accepted


def test_every_numeric_field_is_drawn():
    """The table covers every int and float field of the config classes,
    so a field added later cannot miss its check."""
    numeric = {(cls.__name__, f.name) for cls in {f.owner for f in FIELDS}
               for f in dataclass_fields(cls) if f.type in ("int", "float")}
    drawn_fields = {(f.owner.__name__, f.name) for f in FIELDS}
    # a dict of one number per class
    assert numeric == drawn_fields - {("DetectionEvalConfig",
                                       "iou_thresholds")}


def refusal(make) -> str:
    with pytest.raises(ConfigError) as refused:
        make()
    return str(refused.value)


@pytest.mark.parametrize("field", [f for f in FIELDS if f.json is not None],
                         ids=str)
def test_one_check_gives_one_message(field, fuse_out, config_path):
    """A value of the wrong JSON type and one below the field's range are
    refused with one message by the constructor, ``from_dict`` and the
    ``--config`` of the command that reads the field: that of the one
    check, which names the field by its config path."""
    below = math.floor(field.bounds[0]) - 1
    for value in ["1", True, None, below]:
        message = refusal(lambda: field.build(value))
        assert message.startswith(f"{field.path} must be "), message
        assert refusal(lambda: PipelineConfig.from_dict(field.json(value))) \
            == message
        assert run_cli(config_argv(field, value, config_path), fuse_out) \
            == (4, f"error: {message}\n")
