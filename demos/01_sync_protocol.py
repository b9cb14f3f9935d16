"""Walk through the trigger + GPS-PPS synchronization simulator.

A master node broadcasts a start trigger over a lossy wireless link; each
slave node arms when the trigger arrives and starts capturing on the next
pulse-per-second edge of its GPS module. Because every node starts on the
same true-second edge, start times agree to microseconds even though the
trigger wandered in with up to 200 ms of network delay.
"""

import numpy as np

from mvlidar.syncsim import (
    NS,
    NodeClockModel,
    SessionConfig,
    compute_time_error_report,
    estimate_bandwidth,
    frame_times_ns,
    simulate_session,
)

# ---------------------------------------------------------------------------
# a four-node LiDAR session with default jitter
# ---------------------------------------------------------------------------
cfg = SessionConfig(node_count=4, duration_s=10.0, seed=7,
                    delay_min_s=0.001, delay_max_s=0.2)
trace = simulate_session(cfg)

print("trigger left the master at "
      f"{trace.trigger_emit_true_ns / NS:.3f} s (phase 0.4 keeps the "
      "maximum delay inside one second)")
for node in trace.nodes:
    arrival = node.trigger_arrival_true_ns / NS
    print(f"node {node.node}: trigger at {arrival:.3f} s, "
          f"{node.retransmissions} retransmissions, starts on PPS edge "
          f"{node.start_pps_index}")

starts = [n.start_true_ns for n in trace.armed_nodes()]
print(f"start-time spread: {(max(starts) - min(starts)) / 1e3:.2f} us "
      "(the same PPS edge on every node)")

# ---------------------------------------------------------------------------
# one frame clock: frame k is scheduled round(k * NS / rate) ns after the
# start, each frame rounded once, so a period of no whole number of
# nanoseconds (29.97 Hz: 33,366,700.03 ns) does not drift
# ---------------------------------------------------------------------------
print()
for rate in (cfg.frame_rate_hz, 29.97):
    offsets = frame_times_ns(int(rate * 60), rate)
    last = len(offsets) - 1
    print(f"{rate} Hz: frames at {offsets[:3].tolist()} ... ns; frame {last} "
          f"at {offsets[-1]} ns, where a period rounded to whole ns puts it "
          f"at {last * round(NS / rate)} ns")

# ---------------------------------------------------------------------------
# per-frame timestamp error against the frame mean
# ---------------------------------------------------------------------------
report = compute_time_error_report(trace)
print("\nLiDAR timestamp error vs per-frame mean:")
for stats in report.stats:
    print(f"  node {stats.node}: max {stats.max_abs_s * 1e6:7.1f} us, "
          f"std {stats.std_s * 1e6:6.1f} us")

# cameras use a software trigger; their capture latency is 10x noisier
camera_cfg = SessionConfig(node_count=4, duration_s=10.0, seed=7,
                           clocks=[NodeClockModel.camera()] * 4,
                           delay_min_s=0.001, delay_max_s=0.2)
camera_report = compute_time_error_report(simulate_session(camera_cfg))
lidar_max = max(s.max_abs_s for s in report.stats)
camera_max = max(s.max_abs_s for s in camera_report.stats)
print(f"\nworst-case error, LiDAR {lidar_max * 1e3:.3f} ms vs camera "
      f"{camera_max * 1e3:.3f} ms - image timestamps are the loose ones")

# ---------------------------------------------------------------------------
# why the slaves stream previews instead of raw clouds
# ---------------------------------------------------------------------------
bandwidth = estimate_bandwidth(cfg, points_per_s=300_000, bytes_per_point=16,
                               preview_ratio=0.05,
                               link_budget_bytes_per_s=5_000_000)
print(f"\nper-node raw rate {bandwidth.per_node_raw_bytes_per_s / 1e6:.1f} "
      f"MB/s; preview stream {bandwidth.per_node_preview_bytes_per_s / 1e6:.2f}"
      f" MB/s; master ingress {bandwidth.aggregate_ingress_bytes_per_s / 1e6:.2f}"
      f" MB/s (budget exceeded: {bandwidth.exceeds_budget})")
