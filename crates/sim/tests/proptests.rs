//! Property-based tests for the simulation substrate.

use proptest::prelude::*;
use roborun_core::RuntimeMode;
use roborun_env::{DifficultyConfig, EnvironmentGenerator, Obstacle, ObstacleField};
use roborun_geom::{Aabb, Pose, Ray, Vec3};
use roborun_mission::MissionConfig;
use roborun_sim::{
    CameraRig, ComputeLatencyModel, CpuModel, DepthCamera, DroneConfig, DroneState, EnergyModel,
    PipelineStage, StoppingModel,
};
use std::f64::consts::{FRAC_PI_2, PI, TAU};

/// The ray of pixel `(ix, iy)` of `cam` from `pose`, built with the
/// camera's per-ray direction math.
fn pixel_ray(cam: &DepthCamera, pose: &Pose, ix: usize, iy: usize) -> Ray {
    let fx = if cam.h_res == 1 {
        0.0
    } else {
        ix as f64 / (cam.h_res - 1) as f64 - 0.5
    };
    let fy = if cam.v_res == 1 {
        0.0
    } else {
        iy as f64 / (cam.v_res - 1) as f64 - 0.5
    };
    let yaw = pose.yaw + cam.mount_yaw + fx * cam.h_fov;
    let pitch = cam.mount_pitch + fy * cam.v_fov;
    let dir = Vec3::new(
        yaw.cos() * pitch.cos(),
        yaw.sin() * pitch.cos(),
        pitch.sin(),
    );
    Ray::new(pose.position, dir)
}

/// The sweep cast ray by ray through `ObstacleField::raycast`, in camera,
/// row, column order — what `CameraRig::capture` must equal bit for bit.
fn per_ray_capture(rig: &CameraRig, field: &ObstacleField, pose: &Pose) -> Vec<Vec3> {
    let mut points = Vec::new();
    for cam in rig.cameras() {
        for iy in 0..cam.v_res {
            for ix in 0..cam.h_res {
                if let Some(hit) = field.raycast(&pixel_ray(cam, pose, ix, iy), cam.max_range) {
                    points.push(hit.point);
                }
            }
        }
    }
    points
}

/// Checks the captured sweep against the per-ray cast: same points, same
/// order, same bits.
fn assert_capture_exact(
    rig: &CameraRig,
    field: &ObstacleField,
    pose: &Pose,
) -> Result<usize, TestCaseError> {
    let expected = per_ray_capture(rig, field, pose);
    let scan = rig.capture(field, pose);
    prop_assert_eq!(scan.rays_cast, rig.rays_per_sweep());
    prop_assert_eq!(
        scan.points.len(),
        expected.len(),
        "hit count differs at {:?}",
        pose
    );
    for (k, (got, want)) in scan.points.iter().zip(&expected).enumerate() {
        let bits = |p: &Vec3| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()];
        prop_assert_eq!(
            bits(got),
            bits(want),
            "point {} differs at {:?}: {:?} vs {:?}",
            k,
            pose,
            got,
            want
        );
    }
    Ok(expected.len())
}

/// The library rigs and both mission rigs (the latter with tilted rows).
fn rigs() -> Vec<CameraRig> {
    let mission = MissionConfig::new(RuntimeMode::SpatialAware);
    vec![
        CameraRig::mono_rig(),
        CameraRig::hexa_rig(),
        mission.camera_rig(),
        mission.dynamic_camera_rig(),
    ]
}

/// A box around `center` with the given half extents.
fn boxed(id: u32, center: Vec3, half: Vec3) -> Obstacle {
    Obstacle::new(id, Aabb::from_center_half_extents(center, half))
}

/// A random origin with random boxes around it: anywhere from inside the
/// MAV to beyond the sensing range (straddling the 40 m sphere included),
/// thin slabs to wide blocks, plus up to two boxes that contain the origin.
fn random_world() -> impl Strategy<Value = (Vec3, ObstacleField)> {
    (
        (-200.0f64..200.0, -200.0f64..200.0, 0.5f64..20.0),
        prop::collection::vec(
            (
                0.0f64..52.0,
                0.0f64..TAU,
                -8.0f64..28.0,
                (0.02f64..7.0, 0.02f64..7.0, 0.02f64..15.0),
            ),
            0..48,
        ),
        0usize..3,
    )
        .prop_map(|((x, y, z), boxes, containing)| {
            let origin = Vec3::new(x, y, z);
            let mut obstacles: Vec<Obstacle> = boxes
                .into_iter()
                .enumerate()
                .map(|(i, (r, a, dz, (hx, hy, hz)))| {
                    boxed(
                        i as u32,
                        origin + Vec3::new(r * a.cos(), r * a.sin(), dz),
                        Vec3::new(hx, hy, hz),
                    )
                })
                .collect();
            for k in 0..containing {
                let id = obstacles.len() as u32;
                let offset = Vec3::new(0.3 * k as f64, -0.2 * k as f64, 0.1);
                obstacles.push(boxed(
                    id,
                    origin + offset,
                    Vec3::new(1.0 + k as f64, 1.5, 2.0),
                ));
            }
            (origin, ObstacleField::new(obstacles))
        })
}

/// A random camera, including fields of view of π and more, rows pitched
/// past vertical and single-pixel frames.
fn camera_strategy() -> impl Strategy<Value = DepthCamera> {
    (
        (-PI..PI, -2.0f64..2.0, -1.0f64..6.6, 0.0f64..3.2),
        (1usize..12, 1usize..6, 3.0f64..50.0),
    )
        .prop_map(
            |((mount_yaw, mount_pitch, h_fov, v_fov), (h_res, v_res, max_range))| DepthCamera {
                mount_yaw,
                mount_pitch,
                h_fov,
                v_fov,
                h_res,
                v_res,
                max_range,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stopping_distance_monotone_and_invertible(v1 in 0.0f64..12.0, v2 in 0.0f64..12.0) {
        let m = StoppingModel::paper_default();
        let (lo, hi) = if v1 <= v2 { (v1, v2) } else { (v2, v1) };
        prop_assert!(m.stopping_distance(lo) <= m.stopping_distance(hi) + 1e-12);
        // max_velocity_for_distance inverts stopping_distance.
        let d = m.stopping_distance(hi);
        let v_back = m.max_velocity_for_distance(d);
        prop_assert!((v_back - hi).abs() < 1e-3 || hi < 1e-3);
    }

    #[test]
    fn latency_model_monotone_in_both_knobs(p1 in 0.3f64..9.6, p2 in 0.3f64..9.6,
                                            v1 in 0.0f64..200_000.0, v2 in 0.0f64..200_000.0) {
        let m = ComputeLatencyModel::calibrated();
        let (p_fine, p_coarse) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let (v_small, v_large) = if v1 <= v2 { (v1, v2) } else { (v2, v1) };
        for stage in PipelineStage::GOVERNED {
            // Finer precision (smaller voxel) at the same volume costs more.
            prop_assert!(
                m.stage_latency(stage, p_fine, v_large) + 1e-12
                    >= m.stage_latency(stage, p_coarse, v_large)
            );
            // More volume at the same precision costs more.
            prop_assert!(
                m.stage_latency(stage, p_fine, v_large) + 1e-12
                    >= m.stage_latency(stage, p_fine, v_small)
            );
            // Latency is never negative.
            prop_assert!(m.stage_latency(stage, p_fine, v_small) >= 0.0);
        }
    }

    #[test]
    fn drone_never_exceeds_speed_limit(speed_cmd in 0.0f64..20.0, steps in 1usize..60) {
        let cfg = DroneConfig::default();
        let mut drone = DroneState::at(Vec3::ZERO);
        let target = Vec3::new(500.0, 0.0, 0.0);
        for _ in 0..steps {
            drone.advance_towards(&cfg, target, speed_cmd, 0.5);
            prop_assert!(drone.speed() <= cfg.max_speed + 1e-9);
        }
        // It never flies past the target either.
        prop_assert!(drone.position.x <= target.x + 1e-9);
        prop_assert!(drone.distance_travelled >= 0.0);
    }

    #[test]
    fn energy_monotone_in_time_and_speed(t1 in 0.0f64..100.0, t2 in 0.0f64..100.0,
                                         s1 in 0.0f64..8.0, s2 in 0.0f64..8.0) {
        let m = EnergyModel::default();
        let (t_lo, t_hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let (s_lo, s_hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        prop_assert!(m.energy_for(s_lo, t_hi) >= m.energy_for(s_lo, t_lo));
        prop_assert!(m.energy_for(s_hi, t_hi) >= m.energy_for(s_lo, t_hi));
    }

    #[test]
    fn cpu_utilization_bounded(latency in 0.0f64..20.0, interval in 0.0f64..20.0) {
        let m = CpuModel::default();
        let s = m.sample(latency, interval);
        prop_assert!((0.0..=1.0).contains(&s.utilization));
        prop_assert!(s.interval_seconds >= latency);
    }

    #[test]
    fn camera_hits_lie_on_obstacle_surfaces(seed in 0u64..30, x_off in 5.0f64..60.0) {
        let env = EnvironmentGenerator::new(DifficultyConfig {
            goal_distance: 150.0,
            ..DifficultyConfig::mid()
        })
        .generate(seed);
        let rig = CameraRig::mono_rig();
        let pose = Pose::new(env.start() + Vec3::new(x_off, 0.0, 0.0), 0.0);
        let scan = rig.capture(env.field(), &pose);
        prop_assert_eq!(scan.rays_cast, rig.rays_per_sweep());
        for p in &scan.points {
            // Every returned point is on (or just inside) some obstacle and
            // within sensing range.
            let d = env.field().distance_to_nearest(*p).unwrap_or(f64::INFINITY);
            prop_assert!(d < 1e-6, "hit point {p:?} is {d} m from every obstacle");
            prop_assert!(pose.position.distance(*p) <= scan.max_range + 1e-6);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn capture_equals_the_per_ray_cast_on_random_fields(
        (origin, field) in random_world(),
        yaw in -10.0f64..10.0,
        quarter in -4i32..8,
        axis_aligned in any::<bool>(),
    ) {
        // Yaws at k·π/2 put columns where cos or sin of the yaw is ≈ 0.
        let yaw = if axis_aligned { quarter as f64 * FRAC_PI_2 } else { yaw };
        let pose = Pose::new(origin, yaw);
        for rig in rigs() {
            assert_capture_exact(&rig, &field, &pose)?;
        }
    }

    #[test]
    fn capture_equals_the_per_ray_cast_for_any_camera(
        (origin, field) in random_world(),
        cameras in prop::collection::vec(camera_strategy(), 1..4),
        yaw in -PI..PI,
    ) {
        assert_capture_exact(&CameraRig::new(cameras), &field, &Pose::new(origin, yaw))?;
    }

    #[test]
    fn capture_equals_the_per_ray_cast_in_mission_worlds(
        seed in 0u64..20,
        progress in 0.0f64..1.0,
        yaw in -PI..PI,
    ) {
        let env = EnvironmentGenerator::new(DifficultyConfig {
            goal_distance: 150.0,
            ..DifficultyConfig::mid()
        })
        .generate(seed);
        let position = env.start() + (env.goal() - env.start()) * progress;
        let pose = Pose::new(position, yaw);
        for rig in rigs() {
            assert_capture_exact(&rig, env.field(), &pose)?;
        }
    }
}

/// Boxes that touch pixel rays exactly at a corner or along a vertical
/// edge — on the wedge's edge columns, mid-frame and at the range limit —
/// are the cases a cull without slack or with a shrunken footprint gets
/// wrong; every one must still match the per-ray cast.
#[test]
fn capture_equals_the_per_ray_cast_on_grazing_boxes() {
    let mission = MissionConfig::new(RuntimeMode::SpatialAware);
    let cameras: Vec<DepthCamera> = CameraRig::hexa_rig()
        .cameras()
        .iter()
        .chain(mission.dynamic_camera_rig().cameras())
        .copied()
        .collect();
    let poses = [
        Pose::new(Vec3::new(3.0, -2.0, 5.0), 0.0),
        Pose::new(Vec3::new(-41.5, 17.25, 2.0), FRAC_PI_2),
        Pose::new(Vec3::new(120.0, 8.0, 9.0), 1.234),
    ];
    let mut hits = 0usize;
    for cam in &cameras {
        let rig = CameraRig::new(vec![*cam]);
        for pose in &poses {
            for ix in [0, cam.h_res / 2, cam.h_res - 1] {
                for iy in [0, cam.v_res / 2, cam.v_res - 1] {
                    for t in [0.5, 17.3, cam.max_range] {
                        let p = pixel_ray(cam, pose, ix, iy).at(t);
                        let mut touching = Vec::new();
                        for octant in 0..8 {
                            let sign = |bit: usize| if octant >> bit & 1 == 0 { -1.0 } else { 1.0 };
                            let q = p + Vec3::new(1.5 * sign(0), 2.0 * sign(1), 2.5 * sign(2));
                            touching.push(Aabb::new(p.min(q), p.max(q)));
                        }
                        for quadrant in 0..4 {
                            let sign =
                                |bit: usize| if quadrant >> bit & 1 == 0 { -1.0 } else { 1.0 };
                            let q = p + Vec3::new(1.5 * sign(0), 2.0 * sign(1), 0.0);
                            touching.push(Aabb::new(
                                p.min(q) - Vec3::new(0.0, 0.0, 3.0),
                                p.max(q) + Vec3::new(0.0, 0.0, 3.0),
                            ));
                        }
                        for bounds in touching {
                            let field = ObstacleField::new(vec![Obstacle::new(0, bounds)]);
                            hits += assert_capture_exact(&rig, &field, pose)
                                .unwrap_or_else(|e| panic!("{e}"));
                        }
                    }
                }
            }
        }
    }
    assert!(
        hits > 0,
        "grazing boxes must produce returns, or the test is vacuous"
    );
}
