"""Discrete-event simulator of the wireless trigger + GPS-PPS sync protocol.

The capture network is a master node that broadcasts a start trigger over a
lossy wireless link, and slave nodes that arm on the trigger and begin
acquiring on the next pulse-per-second (PPS) edge of their GPS module. Each
node's clock is disciplined by PPS: the offset is zeroed at every pulse and
only drift accumulated within the current second remains. Reported frame
timestamps therefore differ from true GPS time by the per-pulse PPS jitter,
sub-second drift, and the software capture latency of the sensor.

Simulated time is integer nanoseconds throughout so long sessions cannot
accumulate float error. A session is fully determined by its config
(including the seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, InsufficientNodesError, check_number

NS = 1_000_000_000

# PPS detection error is bounded (GPS module pairs agree to < 1 us), so the
# jitter draw is a Gaussian truncated at +-1.95 sigma, keeping the pairwise
# bound strictly below 2 us at the default sigma. Capture latency is clipped
# at +-1.5 sigma: physical trigger latency has no long tail, and the bound
# keeps consecutive-frame spacing within 3 sigma of the frame period.
_PPS_CLIP_SIGMA = 1.95
_FRAME_CLIP_SIGMA = 1.5

# the trigger leaves the master at this fraction of a second, so the maximum
# network delay (0.2 s default) cannot straddle a second boundary
TRIGGER_PHASE_S = 0.4
# a dropped trigger is resent every RETRY_TIMEOUT_S, at most MAX_RETRIES times
RETRY_TIMEOUT_S = 0.05
MAX_RETRIES = 20
# Simulated time is int64 nanoseconds, and each node holds one PPS jitter per
# second and one timestamp per frame. Capping sessions and trigger delays at
# MAX_SESSION_S (11.6 days) and sessions at MAX_SESSION_FRAMES frames keeps
# a node's arrays to tens of MB and its timestamps far inside int64's range
# (292 years).
MAX_SESSION_S = 1_000_000.0
MAX_SESSION_FRAMES = 1_000_000
# Each node of a session at MAX_SESSION_FRAMES keeps about 15 MB (peak RSS
# grew by 118 MB at 4 nodes and 179 MB at 8), so 64 nodes stay near 1 GB.
# The crossroad rig has 4 nodes.
MAX_SESSION_NODES = 64
# Frames are scheduled every round(NS / frame_rate_hz) whole nanoseconds:
# above 1e9 Hz that period rounds to 1 ns or to 0, so frames would pile up
# on one instant and the reported rate would not be the configured one.
MAX_FRAME_RATE_HZ = 1e9


@dataclass(frozen=True)
class NodeClockModel:
    """Clock drift plus the noise sources of one slave node."""

    drift_ppm: float = 0.0
    pps_jitter_s: float = 5e-7
    frame_jitter_s: float = 1e-4

    def __post_init__(self):
        check_number("drift_ppm", self.drift_ppm)
        check_number("pps_jitter_s", self.pps_jitter_s, 0)
        check_number("frame_jitter_s", self.frame_jitter_s, 0)

    @staticmethod
    def camera(**kwargs) -> "NodeClockModel":
        """Software-triggered camera: 10x the capture latency jitter of a LiDAR."""
        return NodeClockModel(frame_jitter_s=1e-3, **kwargs)


@dataclass(frozen=True)
class NetworkModel:
    """Trigger broadcast delay range and drop probability."""

    delay_min_s: float = 0.001
    delay_max_s: float = 0.2
    drop_probability: float = 0.0

    def __post_init__(self):
        check_number("sync.delay_min_s", self.delay_min_s, 0, MAX_SESSION_S)
        check_number("sync.delay_max_s", self.delay_max_s, 0, MAX_SESSION_S)
        check_number("sync.delay_max_s - sync.delay_min_s",
                     self.delay_max_s - self.delay_min_s, 0)
        check_number("sync.drop_probability", self.drop_probability, 0, 1)


@dataclass(frozen=True)
class SessionConfig:
    node_count: int
    duration_s: float
    frame_rate_hz: float = 10.0
    clocks: Optional[Sequence[NodeClockModel]] = None
    network: NetworkModel = field(default_factory=NetworkModel)
    seed: int = 0

    def __post_init__(self):
        check_number("sync.node_count", self.node_count, 1,
                     MAX_SESSION_NODES, integer=True)
        check_number("sync.duration_s", self.duration_s, 0, MAX_SESSION_S,
                     low_open=True)
        check_number("sync.frame_rate_hz", self.frame_rate_hz, 0,
                     MAX_FRAME_RATE_HZ, low_open=True)
        check_number("sync.duration_s * sync.frame_rate_hz",
                     self.duration_s * self.frame_rate_hz, 1,
                     MAX_SESSION_FRAMES)
        check_number("sync.seed", self.seed, 0, integer=True)
        if self.clocks is not None and len(self.clocks) != self.node_count:
            raise ConfigError("clocks must have one model per node")

    def clock_for(self, node: int) -> NodeClockModel:
        return self.clocks[node] if self.clocks is not None else NodeClockModel()

    @property
    def frame_count(self) -> int:
        return int(round(self.duration_s * self.frame_rate_hz))


@dataclass(frozen=True)
class NodeTrace:
    node: int
    armed: bool
    retransmissions: int
    trigger_arrival_true_ns: Optional[int]
    start_pps_index: Optional[int]
    start_true_ns: Optional[int]
    true_capture_ns: np.ndarray
    reported_ns: np.ndarray


@dataclass(frozen=True)
class SessionTrace:
    config: SessionConfig
    trigger_emit_true_ns: int
    nodes: tuple

    def armed_nodes(self):
        return [n for n in self.nodes if n.armed]


def _truncated_normal(rng, sigma: float, clip_sigmas: float, size=None):
    if sigma == 0.0:
        return 0.0 if size is None else np.zeros(size)
    bound = clip_sigmas * sigma
    return np.clip(rng.normal(0.0, sigma, size), -bound, bound)


def simulate_session(cfg: SessionConfig) -> SessionTrace:
    """Run one capture session and return the per-node event trace.

    Per node: trigger arrives after a random network delay (resent every
    RETRY_TIMEOUT_S while dropped, up to MAX_RETRIES resends), the node arms,
    starts on the next PPS edge, then captures frame_count frames at the
    configured rate of GPS-disciplined time.
    """
    emit_ns = NS + int(round(TRIGGER_PHASE_S * NS))

    period_ns = int(round(NS / cfg.frame_rate_hz))
    n_frames = cfg.frame_count
    nodes = []
    for node in range(cfg.node_count):
        rng = np.random.default_rng([cfg.seed, node])
        clock = cfg.clock_for(node)

        arrival_ns = None
        resends = 0
        for attempt in range(MAX_RETRIES + 1):
            delay = rng.uniform(cfg.network.delay_min_s, cfg.network.delay_max_s)
            dropped = rng.random() < cfg.network.drop_probability
            if not dropped:
                send_ns = emit_ns + int(round(attempt * RETRY_TIMEOUT_S * NS))
                arrival_ns = send_ns + int(round(delay * NS))
                resends = attempt
                break
        if arrival_ns is None:
            nodes.append(NodeTrace(node=node, armed=False,
                                   retransmissions=MAX_RETRIES,
                                   trigger_arrival_true_ns=None,
                                   start_pps_index=None, start_true_ns=None,
                                   true_capture_ns=np.zeros(0, dtype=np.int64),
                                   reported_ns=np.zeros(0, dtype=np.int64)))
            continue

        # first PPS edge strictly after arming
        start_second = arrival_ns // NS + 1
        drift = clock.drift_ppm * 1e-6

        # one PPS detection jitter per second the session can touch
        n_seconds = int(math.ceil(n_frames / cfg.frame_rate_hz)) + 2
        pps_jitter_ns = np.round(
            _truncated_normal(rng, clock.pps_jitter_s, _PPS_CLIP_SIGMA,
                              n_seconds) * NS).astype(np.int64)
        frame_latency_ns = np.round(
            _truncated_normal(rng, clock.frame_jitter_s, _FRAME_CLIP_SIGMA,
                              n_frames) * NS).astype(np.int64)

        start_true_ns = start_second * NS + int(pps_jitter_ns[0])

        # scheduled capture instants in disciplined time, relative to start
        offsets_ns = (np.arange(n_frames, dtype=np.int64) * period_ns)
        pulse_index = offsets_ns // NS    # which PPS pulse disciplines each frame
        within_second_ns = offsets_ns - pulse_index * NS

        # true capture time: pulse edge as perceived by this node, plus the
        # sub-second schedule (the node counts disciplined clock ticks, so a
        # fast clock fires early), plus capture latency
        pulse_true_ns = ((start_second + pulse_index) * NS
                         + pps_jitter_ns[pulse_index])
        true_capture = (pulse_true_ns
                        + np.round(within_second_ns / (1.0 + drift)).astype(np.int64)
                        + frame_latency_ns)

        # the node timestamps each frame with its disciplined clock, which
        # reads pulse_second + (elapsed since perceived pulse) * (1 + drift)
        reported = ((start_second + pulse_index) * NS
                    + np.round((true_capture - pulse_true_ns) * (1.0 + drift))
                    .astype(np.int64))

        nodes.append(NodeTrace(node=node, armed=True, retransmissions=resends,
                               trigger_arrival_true_ns=arrival_ns,
                               start_pps_index=int(start_second),
                               start_true_ns=start_true_ns,
                               true_capture_ns=true_capture,
                               reported_ns=reported))
    return SessionTrace(config=cfg, trigger_emit_true_ns=emit_ns,
                        nodes=tuple(nodes))


@dataclass(frozen=True)
class NodeErrorStats:
    node: int
    max_abs_s: float
    mean_abs_s: float
    std_s: float
    misaligned: bool


@dataclass(frozen=True)
class TimeErrorReport:
    """Per-frame timestamp error of each armed node against the frame mean."""

    nodes: tuple            # armed node ids, in order of the error columns
    errors_s: np.ndarray    # (frames, nodes); rows sum to zero
    stats: tuple            # NodeErrorStats per armed node

    @property
    def max_abs_s(self) -> float:
        return float(np.max(np.abs(self.errors_s))) if self.errors_s.size else 0.0

    def summary(self) -> dict:
        """Per-node error statistics and the overall maximum, as JSON."""
        return {"per_node": [{"node": s.node, "max_abs_s": s.max_abs_s,
                              "mean_abs_s": s.mean_abs_s, "std_s": s.std_s,
                              "misaligned": s.misaligned} for s in self.stats],
                "max_abs_s": self.max_abs_s}


# a node whose mean error exceeds this started on a different PPS second
_MISALIGNED_MEAN_S = 0.1


def compute_time_error_report(trace: SessionTrace) -> TimeErrorReport:
    """Per-frame, per-node timestamp error relative to the mean reported
    timestamp of that frame across armed nodes."""
    armed = trace.armed_nodes()
    if len(armed) < 2:
        raise InsufficientNodesError("need at least two armed nodes")
    counts = {len(n.reported_ns) for n in armed}
    if len(counts) != 1:
        raise InsufficientNodesError("armed nodes have unequal frame counts")

    stamps = np.stack([n.reported_ns for n in armed], axis=1).astype(np.float64)
    errors_ns = stamps - stamps.mean(axis=1, keepdims=True)
    errors_s = errors_ns / NS

    stats = []
    for col, node in enumerate(armed):
        err = errors_s[:, col]
        mean = float(err.mean())
        stats.append(NodeErrorStats(node=node.node,
                                    max_abs_s=float(np.max(np.abs(err))),
                                    mean_abs_s=float(np.mean(np.abs(err))),
                                    std_s=float(err.std()),
                                    misaligned=abs(mean) > _MISALIGNED_MEAN_S))
    return TimeErrorReport(nodes=tuple(n.node for n in armed),
                           errors_s=errors_s, stats=tuple(stats))


@dataclass(frozen=True)
class BandwidthReport:
    per_node_raw_bytes_per_s: float
    per_node_preview_bytes_per_s: float
    aggregate_ingress_bytes_per_s: float
    link_budget_bytes_per_s: Optional[float]
    exceeds_budget: bool


def estimate_bandwidth(cfg: SessionConfig, points_per_s: int,
                       bytes_per_point: int, preview_ratio: float,
                       link_budget_bytes_per_s: Optional[float] = None
                       ) -> BandwidthReport:
    """Raw vs preview (compressed) data rates and master ingress.

    Slave nodes store raw data locally and stream only the preview to the
    master, so the master ingress is node_count * raw_rate * preview_ratio.
    """
    check_number("preview_ratio", preview_ratio, 0, 1, low_open=True)
    raw = float(points_per_s * bytes_per_point)
    preview = raw * preview_ratio
    aggregate = preview * cfg.node_count
    exceeds = (link_budget_bytes_per_s is not None
               and aggregate > link_budget_bytes_per_s)
    return BandwidthReport(per_node_raw_bytes_per_s=raw,
                           per_node_preview_bytes_per_s=preview,
                           aggregate_ingress_bytes_per_s=aggregate,
                           link_budget_bytes_per_s=link_budget_bytes_per_s,
                           exceeds_budget=exceeds)
