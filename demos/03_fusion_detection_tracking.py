"""Multi-view fusion, detection, and tracking on one synthetic capture.

Shows the two fusion families side by side: early fusion merges the raw
world-frame clouds before detection, late fusion clusters per-view boxes
afterwards and reduces each cluster by highest score (NMS) or by averaging.
The fused detections then feed the Kalman tracker and the CLEAR metrics.
"""

from mvlidar.detector import DetectorConfig
from mvlidar.metrics import (
    DetectionEvalConfig,
    MotEvalConfig,
    compute_clear_mot,
    format_ap_table,
    format_mot_table,
)
from mvlidar.pipeline import (
    detect_views,
    run_fusion_comparison,
    run_view_group_experiment,
)
from mvlidar.scene import generate_synthetic_scene, standard_crossroad_spec
from mvlidar.tracking import TrackerConfig, track_sequence

spec = standard_crossroad_spec(n_frames=10, seed=29)
scene = generate_synthetic_scene(spec, seed=29)
print(f"scene: {len(spec.objects)} moving objects observed by "
      f"{len(spec.nodes)} nodes for {spec.n_frames} frames")

detector = DetectorConfig(cluster_distance=0.7)
eval_cfg = DetectionEvalConfig.with_threshold(0.25)

# ---------------------------------------------------------------------------
# more views help: single view vs double vs all four
# ---------------------------------------------------------------------------
groups = run_view_group_experiment(scene, scene.extrinsics, detector, eval_cfg)
print("\ndetection by view group (single/double groups integrate frames to "
      "match the four-view point budget):")
print(format_ap_table({name: data["ap"] for name, data in groups.items()}))

# ---------------------------------------------------------------------------
# early fusion vs late fusion
# ---------------------------------------------------------------------------
fusion = run_fusion_comparison(scene, scene.extrinsics, detector, eval_cfg)
print("\ndetection by fusion method:")
print(format_ap_table({name: data["ap"] for name, data in fusion.items()}))

# ---------------------------------------------------------------------------
# track the early-fusion detections and score them against ground truth
# ---------------------------------------------------------------------------
boxes_per_frame = detect_views(scene, scene.extrinsics,
                               sorted(scene.node_frames), detector)
trajectories = track_sequence(boxes_per_frame, TrackerConfig(), frame_dt=0.1)
report = compute_clear_mot(trajectories, scene.trajectories, MotEvalConfig())
print(f"\ntracking over {spec.n_frames} frames "
      f"({len(trajectories)} tracks vs {len(scene.trajectories)} objects):")
print(format_mot_table({"early fusion": report}))
