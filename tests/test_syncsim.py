import math

import numpy as np
import pytest

from mvlidar.errors import ConfigError, InsufficientNodesError
from mvlidar.syncsim import (
    MAX_FRAME_RATE_HZ,
    MAX_RETRIES,
    MAX_SESSION_FRAMES,
    MAX_SESSION_S,
    NS,
    NetworkModel,
    NodeClockModel,
    SessionConfig,
    SessionTrace,
    compute_time_error_report,
    estimate_bandwidth,
    simulate_session,
)


def quiet_clock():
    return NodeClockModel(pps_jitter_s=0.0, frame_jitter_s=0.0)


def make_config(**kwargs):
    defaults = dict(node_count=4, duration_s=2.0, seed=7,
                    network=NetworkModel(delay_min_s=0.001, delay_max_s=0.2))
    defaults.update(kwargs)
    return SessionConfig(**defaults)


class TestSimulateSession:
    def test_noise_free_single_node_timestamps_exact(self):
        cfg = make_config(node_count=1, clocks=[quiet_clock()],
                          network=NetworkModel(delay_min_s=0.0, delay_max_s=0.0))
        trace = simulate_session(cfg)
        node = trace.nodes[0]
        assert node.armed
        start = node.start_pps_index * NS
        expected = start + np.arange(cfg.frame_count, dtype=np.int64) * (NS // 10)
        np.testing.assert_array_equal(node.reported_ns, expected)

    def test_nodes_share_start_pps_edge(self):
        # trigger at x.4 s, delays <= 0.2 s: arrivals stay inside one second
        for seed in range(25):
            trace = simulate_session(make_config(seed=seed))
            indices = {n.start_pps_index for n in trace.armed_nodes()}
            assert len(indices) == 1

    def test_start_alignment_error_bounded_by_pps_jitter(self):
        trace = simulate_session(make_config(seed=3))
        starts = [n.start_true_ns for n in trace.armed_nodes()]
        spread = max(starts) - min(starts)
        assert spread < 2e-6 * NS

    def test_full_drop_leaves_node_unarmed(self):
        cfg = make_config(node_count=1,
                          network=NetworkModel(drop_probability=1.0))
        trace = simulate_session(cfg)
        node = trace.nodes[0]
        assert not node.armed
        assert node.retransmissions == MAX_RETRIES
        assert len(node.reported_ns) == 0

    def test_drops_cause_retransmissions(self):
        cfg = make_config(node_count=8, seed=11,
                          network=NetworkModel(drop_probability=0.6))
        trace = simulate_session(cfg)
        resends = [n.retransmissions for n in trace.nodes if n.armed]
        assert any(r > 0 for r in resends)

    def test_deterministic_given_seed(self):
        a = simulate_session(make_config(seed=42))
        b = simulate_session(make_config(seed=42))
        for na, nb in zip(a.nodes, b.nodes):
            np.testing.assert_array_equal(na.reported_ns, nb.reported_ns)
            np.testing.assert_array_equal(na.true_capture_ns, nb.true_capture_ns)
            assert na.trigger_arrival_true_ns == nb.trigger_arrival_true_ns

    def test_seed_changes_trace(self):
        a = simulate_session(make_config(seed=1))
        b = simulate_session(make_config(seed=2))
        assert not np.array_equal(a.nodes[0].reported_ns, b.nodes[0].reported_ns)

    def test_timestamps_monotone_and_spacing_bounded(self):
        cfg = make_config(duration_s=10.0,
                          clocks=[NodeClockModel.camera(drift_ppm=5.0)] * 4)
        trace = simulate_session(cfg)
        period = NS / cfg.frame_rate_hz
        for node in trace.armed_nodes():
            diffs = np.diff(node.reported_ns)
            assert np.all(diffs > 0)
            # 3x capture jitter, plus microseconds of drift/PPS discipline
            tolerance = 3.0 * NodeClockModel.camera().frame_jitter_s * NS + 5_000
            assert np.all(np.abs(diffs - period) <= tolerance)

    def test_drift_absorbed_by_discipline(self):
        clocks = [NodeClockModel(drift_ppm=10.0, pps_jitter_s=0.0,
                                 frame_jitter_s=0.0)] * 2
        cfg = make_config(node_count=2, clocks=clocks,
                          network=NetworkModel(delay_min_s=0.0, delay_max_s=0.0))
        trace = simulate_session(cfg)
        for node in trace.armed_nodes():
            start = node.start_pps_index * NS
            nominal = start + np.arange(cfg.frame_count, dtype=np.int64) * (NS // 10)
            # PPS discipline keeps the reported error to sub-second drift only
            assert np.max(np.abs(node.reported_ns - nominal)) < 2_000  # < 2 us

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            SessionConfig(node_count=0, duration_s=1.0)
        with pytest.raises(ConfigError):
            SessionConfig(node_count=2, duration_s=1.0, clocks=[quiet_clock()])
        with pytest.raises(ConfigError):
            NetworkModel(delay_min_s=0.5, delay_max_s=0.1)

    def test_non_finite_jitter_rejected(self):
        with pytest.raises(ConfigError, match=r"^pps_jitter_s must be a "
                                              r"finite number >= 0, got nan$"):
            NodeClockModel(pps_jitter_s=math.nan)

    def test_session_outside_int64_nanoseconds_rejected(self):
        """A session no longer than MAX_SESSION_S and MAX_SESSION_FRAMES
        frames is accepted; one step beyond either is refused."""
        SessionConfig(node_count=2, duration_s=MAX_SESSION_S,
                      frame_rate_hz=MAX_SESSION_FRAMES / MAX_SESSION_S)
        with pytest.raises(ConfigError, match=r"^sync\.duration_s must be"):
            SessionConfig(node_count=2, duration_s=2 * MAX_SESSION_S)
        with pytest.raises(ConfigError,
                           match=r"^sync\.duration_s \* "
                                 r"sync\.frame_rate_hz must be"):
            SessionConfig(node_count=2, duration_s=1.0,
                          frame_rate_hz=2 * MAX_SESSION_FRAMES)
        with pytest.raises(ConfigError, match=r"^sync\.delay_max_s must be"):
            NetworkModel(delay_max_s=2 * MAX_SESSION_S)

    def test_frame_period_under_one_nanosecond_rejected(self):
        """Frames are scheduled in whole nanoseconds: at MAX_FRAME_RATE_HZ
        they are 1 ns apart, and any faster rate is refused."""
        trace = simulate_session(SessionConfig(
            node_count=1, duration_s=1e-6, frame_rate_hz=MAX_FRAME_RATE_HZ,
            clocks=[quiet_clock()]))
        captures = trace.nodes[0].true_capture_ns
        assert len(captures) == 1000 and np.all(np.diff(captures) == 1)
        for rate in (float(np.nextafter(MAX_FRAME_RATE_HZ, math.inf)), 3e9,
                     1e12):
            with pytest.raises(ConfigError) as refused:
                SessionConfig(node_count=1, duration_s=1e-6,
                              frame_rate_hz=rate)
            assert str(refused.value) == (
                "sync.frame_rate_hz must be a finite number in "
                f"(0, 1000000000.0], got {rate!r}")


class TestTimeErrorReport:
    def test_identical_timestamps_zero_error(self):
        cfg = make_config(node_count=3, clocks=[quiet_clock()] * 3,
                          network=NetworkModel(delay_min_s=0.0, delay_max_s=0.0))
        report = compute_time_error_report(simulate_session(cfg))
        assert report.max_abs_s == 0.0

    def test_constant_offset_splits_evenly(self):
        cfg = make_config(node_count=2, clocks=[quiet_clock()] * 2,
                          network=NetworkModel(delay_min_s=0.0, delay_max_s=0.0))
        trace = simulate_session(cfg)
        shifted = trace.nodes[1]
        shifted = type(shifted)(node=shifted.node, armed=True,
                                retransmissions=0,
                                trigger_arrival_true_ns=shifted.trigger_arrival_true_ns,
                                start_pps_index=shifted.start_pps_index,
                                start_true_ns=shifted.start_true_ns,
                                true_capture_ns=shifted.true_capture_ns,
                                reported_ns=shifted.reported_ns + 1_000_000)
        doctored = SessionTrace(config=trace.config,
                                trigger_emit_true_ns=trace.trigger_emit_true_ns,
                                nodes=(trace.nodes[0], shifted))
        report = compute_time_error_report(doctored)
        np.testing.assert_allclose(report.errors_s[:, 0], -0.0005, atol=1e-12)
        np.testing.assert_allclose(report.errors_s[:, 1], 0.0005, atol=1e-12)

    def test_lidar_errors_stay_under_one_ms(self):
        cfg = make_config(duration_s=100.0, seed=5)  # 1000 frames, lidar defaults
        report = compute_time_error_report(simulate_session(cfg))
        assert report.max_abs_s < 1e-3

    def test_errors_mean_zero_per_frame(self):
        cfg = make_config(node_count=3, duration_s=5.0, seed=9,
                          clocks=[NodeClockModel.camera()] * 3)
        report = compute_time_error_report(simulate_session(cfg))
        np.testing.assert_allclose(report.errors_s.sum(axis=1), 0.0, atol=1e-12)

    def test_insufficient_nodes(self):
        cfg = make_config(node_count=1, clocks=[quiet_clock()])
        with pytest.raises(InsufficientNodesError):
            compute_time_error_report(simulate_session(cfg))

    def test_whole_second_misalignment_flagged(self):
        cfg = make_config(node_count=2, clocks=[quiet_clock()] * 2,
                          network=NetworkModel(delay_min_s=0.0, delay_max_s=0.0))
        trace = simulate_session(cfg)
        late = trace.nodes[1]
        late = type(late)(node=late.node, armed=True, retransmissions=0,
                          trigger_arrival_true_ns=late.trigger_arrival_true_ns,
                          start_pps_index=late.start_pps_index + 1,
                          start_true_ns=late.start_true_ns + NS,
                          true_capture_ns=late.true_capture_ns + NS,
                          reported_ns=late.reported_ns + NS)
        doctored = SessionTrace(config=trace.config,
                                trigger_emit_true_ns=trace.trigger_emit_true_ns,
                                nodes=(trace.nodes[0], late))
        report = compute_time_error_report(doctored)
        assert any(s.misaligned for s in report.stats)


class TestBandwidth:
    def test_paper_rate_arithmetic(self):
        report = estimate_bandwidth(make_config(), points_per_s=300_000,
                                    bytes_per_point=16, preview_ratio=0.05)
        assert report.per_node_raw_bytes_per_s == 4_800_000.0

    def test_unit_ratio_preview_equals_raw(self):
        report = estimate_bandwidth(make_config(), 300_000, 16, 1.0)
        assert report.per_node_preview_bytes_per_s == report.per_node_raw_bytes_per_s

    def test_aggregate_and_budget_flag(self):
        report = estimate_bandwidth(make_config(), 300_000, 16, 0.05,
                                    link_budget_bytes_per_s=5_000_000.0)
        assert report.aggregate_ingress_bytes_per_s == pytest.approx(960_000.0)
        assert not report.exceeds_budget
        tight = estimate_bandwidth(make_config(), 300_000, 16, 0.5,
                                   link_budget_bytes_per_s=5_000_000.0)
        assert tight.exceeds_budget
