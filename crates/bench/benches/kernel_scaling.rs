//! Kernel-scaling benchmarks (real wall-clock validation of Fig. 2a's
//! shape): the perception kernels' measured cost must grow with volume and
//! with inverse precision, which is the property the calibrated latency
//! model (and therefore the governor) relies on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use roborun_core::profilers::extract_obstacle_clusters;
use roborun_core::{Governor, GovernorConfig, KnobSettings, Profilers, RuntimeMode};
use roborun_dynamics::{Actor, DynamicWorld, MotionModel};
use roborun_env::{DifficultyConfig, EnvironmentGenerator, Obstacle, ObstacleField};
use roborun_geom::{Aabb, Pose, Ray, SplitMix64, Vec3};
use roborun_mission::cycle::planning_bounds;
use roborun_mission::{MissionConfig, MissionRunner};
use roborun_perception::{ExportConfig, OccupancyMap, PlannerMap, PointCloud};
use roborun_planning::{
    smooth_path, CollisionChecker, PlannerScratch, RrtConfig, RrtStar, SmoothingConfig, Trajectory,
    TrajectoryPoint,
};
use roborun_sim::CameraRig;

/// A synthetic dense scan: a wall of points at the given distance.
fn wall_cloud(distance: f64, points_per_side: usize) -> PointCloud {
    let origin = Vec3::new(0.0, 0.0, 5.0);
    let mut points = Vec::with_capacity(points_per_side * points_per_side);
    for iy in 0..points_per_side {
        for iz in 0..points_per_side {
            points.push(Vec3::new(
                distance,
                -10.0 + 20.0 * iy as f64 / points_per_side as f64,
                10.0 * iz as f64 / points_per_side as f64,
            ));
        }
    }
    PointCloud::new(origin, points)
}

fn bench_point_cloud_precision(c: &mut Criterion) {
    let cloud = wall_cloud(15.0, 48);
    let mut group = c.benchmark_group("point_cloud_downsample");
    for &precision in &[0.3, 0.6, 1.2, 2.4, 4.8, 9.6] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{precision}m")),
            &precision,
            |b, &p| b.iter(|| std::hint::black_box(cloud.downsampled(p)).len()),
        );
    }
    group.finish();
}

fn bench_octomap_insert_precision(c: &mut Criterion) {
    let cloud = wall_cloud(15.0, 32);
    let mut group = c.benchmark_group("octomap_integrate_raytrace_step");
    for &step in &[0.3, 0.6, 1.2, 2.4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{step}m")),
            &step,
            |b, &s| {
                b.iter(|| {
                    let mut map = OccupancyMap::new(0.3);
                    std::hint::black_box(map.integrate_cloud(&cloud, s))
                })
            },
        );
    }
    group.finish();
}

fn bench_octomap_insert_volume(c: &mut Criterion) {
    let mut group = c.benchmark_group("octomap_integrate_cloud_size");
    for &side in &[8usize, 16, 32, 48] {
        let cloud = wall_cloud(15.0, side);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}pts", cloud.len())),
            &cloud,
            |b, cloud| {
                b.iter(|| {
                    let mut map = OccupancyMap::new(0.3);
                    std::hint::black_box(map.integrate_cloud(cloud, 0.6))
                })
            },
        );
    }
    group.finish();
}

/// DDA-batched `integrate_cloud` against the retained per-sample
/// reference, on a 10⁴-point cloud, across map-resolution / raytrace-step
/// pairs from the paper's power-of-two precision lattice. The batched
/// path hash-keys each traversed voxel once per run instead of once per
/// sample, so the win grows with the oversampling ratio (coarse map in
/// open space, fine raytracer): ~8 samples/voxel at 2.4 m / 0.3 m. At
/// step >= resolution the carve routes to the per-sample path, so the two
/// columns are within noise there (regression guard for the mission
/// loop's own regime).
fn bench_integrate_cloud_batched_vs_reference(c: &mut Criterion) {
    let cloud = wall_cloud(15.0, 100); // 10_000 points
    let mut group = c.benchmark_group("octomap_integrate_10k_points");
    group.sample_size(10);
    for &(resolution, step) in &[(0.3, 0.3), (0.6, 0.3), (1.2, 0.3), (2.4, 0.3)] {
        let label = format!("res{resolution}m_step{step}m");
        group.bench_with_input(
            BenchmarkId::new("batched", &label),
            &(resolution, step),
            |b, &(r, s)| {
                b.iter(|| {
                    let mut map = OccupancyMap::new(r);
                    std::hint::black_box(map.integrate_cloud(&cloud, s))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("reference", &label),
            &(resolution, step),
            |b, &(r, s)| {
                b.iter(|| {
                    let mut map = OccupancyMap::new(r);
                    std::hint::black_box(map.integrate_cloud_reference(&cloud, s))
                })
            },
        );
    }
    group.finish();
}

/// Incremental broad-phase refresh against a from-scratch rebuild, on a
/// single-delta map refresh over a ~7k-box export — the per-decision cost
/// the mission runner pays now that its collision checker lives across
/// replans. Every refresh is followed by one query next to the changed
/// voxel, so a refresh deferred to the first query would still be timed.
fn bench_collision_patch_vs_rebuild(c: &mut Criterion) {
    let origin = Vec3::new(0.0, 0.0, 5.0);
    let mut base = OccupancyMap::new(0.3);
    // A dense multi-wall region: ~7k occupied voxels once integrated.
    let mut points = Vec::new();
    for &x in &[12.0, 18.0, 24.0] {
        for yi in -26..=26 {
            for zi in 0..30 {
                points.push(Vec3::new(x, yi as f64 * 0.3, zi as f64 * 0.3));
            }
        }
    }
    base.integrate_cloud(&PointCloud::new(origin, points), 0.3);
    let map1 = PlannerMap::export(&base, &ExportConfig::new(0.3, 1e9, origin));
    // One extra voxel inside the existing bounds: the canonical
    // single-delta refresh (new frontier observation near a known wall).
    let mut evolved = base.clone();
    evolved.integrate_cloud(
        &PointCloud::new(origin, vec![Vec3::new(18.0, 0.15, 9.15)]),
        0.3,
    );
    let map2 = PlannerMap::export(&evolved, &ExportConfig::new(0.3, 1e9, origin));
    let delta = map2.delta_from(&map1).expect("same voxel size");
    assert!(!delta.is_empty() && delta.len() <= 2, "delta: {delta:?}");

    let probe = Vec3::new(17.7, 0.15, 9.15);
    let mut group = c.benchmark_group("collision_broadphase_single_delta");
    group.sample_size(10);
    group.bench_function(format!("patch/{}boxes", map2.len()), |b| {
        let mut checker = CollisionChecker::new(map1.clone(), 0.45, 0.3);
        checker.prebuild_broad_phase();
        b.iter(|| {
            // Patch forward and back: two single-delta updates per iter,
            // always exercising the incremental path.
            checker.update_map(map2.clone());
            let forward = checker.point_free(probe);
            checker.update_map(map1.clone());
            std::hint::black_box((forward, checker.point_free(probe)))
        })
    });
    group.bench_function(format!("rebuild/{}boxes", map2.len()), |b| {
        b.iter(|| {
            let mut a = CollisionChecker::new(map2.clone(), 0.45, 0.3);
            a.prebuild_broad_phase();
            let mut b2 = CollisionChecker::new(map1.clone(), 0.45, 0.3);
            b2.prebuild_broad_phase();
            std::hint::black_box((a.queries(), b2.queries()))
        })
    });
    group.finish();
}

/// Broad-phase patching on a frontier-sized refresh: a few hundred boxes
/// enter and leave the export at once, as when the MAV uncovers new
/// obstacles and forgets old ones (the worst-case static missions average
/// ~380 added and ~170 removed keys per refresh), at the mission's 0.3 m
/// voxels and 0.765 m margin. Unlike the single-delta case this prices
/// the per-box cost of the refresh; each refresh is again followed by one
/// query inside the changed patch.
fn bench_collision_frontier_delta(c: &mut Criterion) {
    let (voxel, margin) = (0.3, 0.765);
    // Three walls plus one extra patch, integrated from a nearby origin so
    // the rays never carve the other walls.
    let map_with_patch = |patch_x: f64, ys: i32, zs: i32| {
        let mut map = OccupancyMap::new(voxel);
        for x in [12.0, 18.0, 24.0] {
            let wall: Vec<Vec3> = (-26..=26)
                .flat_map(|yi| {
                    (0..30).map(move |zi| Vec3::new(x, yi as f64 * 0.3, zi as f64 * 0.3))
                })
                .collect();
            map.integrate_cloud(&PointCloud::new(Vec3::new(x - 2.0, 0.0, 5.0), wall), voxel);
        }
        let patch: Vec<Vec3> = (-ys / 2..ys - ys / 2)
            .flat_map(|yi| {
                (0..zs).map(move |zi| Vec3::new(patch_x, yi as f64 * 0.3, zi as f64 * 0.3))
            })
            .collect();
        map.integrate_cloud(
            &PointCloud::new(Vec3::new(patch_x - 2.0, 0.0, 5.0), patch),
            voxel,
        );
        PlannerMap::export(&map, &ExportConfig::new(voxel, 1e9, Vec3::ZERO))
    };
    let before = map_with_patch(21.0, 10, 17);
    let after = map_with_patch(30.0, 19, 20);
    let delta = after.delta_from(&before).expect("same voxel size");
    let (added, removed) = (delta.added().len(), delta.removed().len());
    assert!(
        (300..=500).contains(&added) && (100..=250).contains(&removed),
        "delta: {added}+{removed}"
    );

    let mut group = c.benchmark_group("collision_broadphase_frontier_delta");
    group.sample_size(10);
    group.bench_function(format!("patch/{added}added_{removed}removed"), |b| {
        let mut checker = CollisionChecker::new(before.clone(), margin, voxel);
        checker.prebuild_broad_phase();
        let probe = Vec3::new(29.7, 0.0, 2.0);
        b.iter(|| {
            // Forward and back: two frontier refreshes per iter.
            checker.update_map(after.clone());
            let forward = checker.point_free(probe);
            checker.update_map(before.clone());
            std::hint::black_box((forward, checker.point_free(probe)))
        })
    });
    group.finish();
}

fn bench_export_precision(c: &mut Criterion) {
    let cloud = wall_cloud(15.0, 48);
    let mut map = OccupancyMap::new(0.3);
    map.integrate_cloud(&cloud, 0.3);
    let mut group = c.benchmark_group("planner_map_export");
    for &precision in &[0.3, 0.6, 1.2, 2.4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{precision}m")),
            &precision,
            |b, &p| {
                b.iter(|| {
                    std::hint::black_box(PlannerMap::export(
                        &map,
                        &ExportConfig::new(p, 1e9, Vec3::new(0.0, 0.0, 5.0)),
                    ))
                    .len()
                })
            },
        );
    }
    group.finish();
}

/// One decision's perception step on a mid-mission map: integrate the
/// scan, retain the mission's 70 m neighbourhood, export for the planner.
/// The map is built like `decision_loop`'s mission map (30 scans 2 m
/// apart along the start→goal line, each followed by the retain), so free
/// voxels dominate it as they do in flight. The step repeats on the same
/// map at the last pose, which after the first iteration changes nothing:
/// every iteration pays the steady-state cost of one decision over a map
/// of that size. Two knob sets: the oblivious baseline (0.3 m, unbounded
/// export, which copies the occupied block masks and ranks nothing) and a
/// binding 0.6 m budget, which coarsens the masks and selects the kept
/// voxels nearest first.
///
/// A second group, `profile_and_govern`, times the runtime's profile and
/// policy solve on each stepped map from a scan pose near obstacles, and
/// beside each the gap clustering alone (`clusters/…`); a third prices
/// the checker's input for one refresh:
/// `planner_map_delta` diffs the 0.3 m unbounded exports of the last two
/// scans, the `static_oblivious` shape. A fourth, `rrt_mission_plan`,
/// times one mission plan on each stepped map's export: the mission
/// planner's 900-sample RRT* from the last pose to a goal at the planning
/// horizon that an obstacle hides, inside the mission's sampling bounds, with
/// the mission margin and the knobs' check step, through a checker and
/// scratch reused from plan to plan as the drivers reuse theirs. A fifth,
/// `collision_segment_walk`, times the same checkers' segment walks alone
/// on a seeded batch of segments.
fn bench_perception_mission_map_step(c: &mut Criterion) {
    let env = EnvironmentGenerator::new(DifficultyConfig {
        goal_distance: 150.0,
        ..DifficultyConfig::mid()
    })
    .generate(4);
    let rig = CameraRig::hexa_rig();
    let heading = (env.goal() - env.start()).normalize();
    let mut mission_map = OccupancyMap::new(0.3);
    let mut scans = Vec::new();
    let mut exports = Vec::new();
    for i in 0..30 {
        let pose = Pose::new(env.start() + heading * (2.0 * i as f64), 0.0);
        let scan = rig.capture(env.field(), &pose);
        let cloud = PointCloud::new(pose.position, scan.points);
        mission_map.integrate_cloud(&cloud.downsampled(0.3), 0.5);
        mission_map.retain_within(pose.position, 70.0);
        exports.push(PlannerMap::export(
            &mission_map,
            &ExportConfig::new(0.3, 1e9, pose.position),
        ));
        scans.push((pose.position, cloud));
    }
    let (position, cloud) = scans.last().cloned().expect("at least one scan");
    let aware = KnobSettings {
        point_cloud_precision: 0.6,
        map_to_planner_precision: 0.6,
        octomap_volume: 46_000.0,
        map_to_planner_volume: 50.0,
        planner_volume: 50.0,
    };
    let unbounded = PlannerMap::export(&mission_map, &ExportConfig::new(0.6, 1e9, position));
    let bounded = PlannerMap::export(&mission_map, &ExportConfig::new(0.6, 50.0, position));
    assert!(
        bounded.len() < unbounded.len(),
        "the aware budget must bind on the mission map"
    );
    let mut group = c.benchmark_group("perception_mission_map_step");
    group.sample_size(20);
    let mut stepped = Vec::new();
    for (name, knobs, mode) in [
        (
            "oblivious_unbounded_0.3m",
            KnobSettings::static_baseline(),
            RuntimeMode::SpatialOblivious,
        ),
        ("aware_binding_0.6m", aware, RuntimeMode::SpatialAware),
    ] {
        let mut map = mission_map.clone();
        group.bench_function(name, |b| {
            b.iter(|| {
                let limited = cloud
                    .downsampled(knobs.point_cloud_precision)
                    .volume_limited(position, knobs.octomap_volume);
                map.integrate_cloud(&limited, knobs.point_cloud_precision.max(0.5));
                map.retain_within(position, 70.0);
                let export = PlannerMap::export(
                    &map,
                    &ExportConfig::new(
                        knobs.map_to_planner_precision,
                        knobs.map_to_planner_volume,
                        position,
                    ),
                );
                std::hint::black_box(export.len())
            })
        });
        stepped.push((name, mode, map));
    }
    group.finish();

    // The runtime's own per-decision work on each stepped map: profile the
    // space (gap clusters, nearest obstacle at the MAV and at five upcoming
    // waypoints, unknown-space probe) and solve for the policy. The
    // oblivious governor ignores the profile, so its row is the profile.
    // No occupied voxel lies within the 20 m gap radius of the last pose,
    // so the profile runs from the last scan pose with an obstacle within
    // 10 m (8.4 m away; ~2,200 occupied voxels within 20 m), with that
    // pose's scan.
    let profilers = Profilers::default();
    let (near, near_cloud) = scans
        .iter()
        .rev()
        .find(|(p, _)| mission_map.nearest_occupied_distance(*p, 10.0).is_some())
        .expect("an obstacle lies near the flown line");
    let trajectory = smooth_path(
        &[*near, *near + heading * 40.0],
        3.0,
        &SmoothingConfig::default(),
    );
    let mut group = c.benchmark_group("profile_and_govern");
    group.sample_size(20);
    for (name, mode, map) in &stepped {
        let governor = Governor::new(GovernorConfig {
            mode: *mode,
            ..GovernorConfig::default()
        });
        group.bench_function(*name, |b| {
            b.iter(|| {
                let profile =
                    profilers.profile(near_cloud, map, Some(&trajectory), *near, 3.0, heading);
                std::hint::black_box(governor.decide(&profile)).predicted_latency
            })
        });
        assert!(
            !extract_obstacle_clusters(map, *near, profilers.gap_radius).is_empty(),
            "the profile must cluster obstacles"
        );
        group.bench_function(format!("clusters/{name}"), |b| {
            b.iter(|| {
                std::hint::black_box(extract_obstacle_clusters(map, *near, profilers.gap_radius))
                    .len()
            })
        });
    }
    group.finish();

    let [.., previous, current] = exports.as_slice() else {
        unreachable!("thirty scans")
    };
    let delta = current.delta_from(previous).expect("same voxel size");
    assert!(
        !delta.is_empty(),
        "consecutive scans must change the export"
    );
    let mut group = c.benchmark_group("planner_map_delta");
    group.sample_size(20);
    group.bench_function(
        format!(
            "0.3m/{}boxes_{}added_{}removed",
            current.len(),
            delta.added().len(),
            delta.removed().len()
        ),
        |b| b.iter(|| std::hint::black_box(current.delta_from(previous)).map(|d| d.len())),
    );
    group.finish();

    // Each stepped map's export, with the checker built for it.
    let planned: Vec<_> = stepped
        .iter()
        .zip([KnobSettings::static_baseline(), aware])
        .map(|((name, mode, map), knobs)| {
            let mission = MissionConfig::new(*mode);
            let margin = mission.drone.body_radius * mission.planning_margin_factor;
            let export = PlannerMap::export(
                map,
                &ExportConfig::new(
                    knobs.map_to_planner_precision,
                    knobs.map_to_planner_volume,
                    position,
                ),
            );
            let checker = CollisionChecker::new(export, margin, knobs.map_to_planner_precision);
            (*name, mission, checker)
        })
        .collect();

    let mut group = c.benchmark_group("rrt_mission_plan");
    group.sample_size(20);
    for (name, mission, checker) in &planned {
        let mut checker = checker.clone();
        // The scans flew the start→goal line, which stays free, so the
        // goal is the first point of the planning-horizon circle (15°
        // steps from the heading) whose straight segment is blocked.
        let lateral = Vec3::new(-heading.y, heading.x, 0.0);
        let goal = (0..24)
            .map(|i| {
                let (sin, cos) = (i as f64 * std::f64::consts::PI / 12.0).sin_cos();
                position + (heading * cos + lateral * sin) * mission.planning_horizon
            })
            .find(|&g| checker.point_free(g) && !checker.segment_free(position, g))
            .expect("an obstacle lies across the horizon");
        let bounds = planning_bounds(position, goal, env.bounds());
        let planner = RrtStar::new(RrtConfig {
            max_samples: 900,
            seed: 7,
            ..RrtConfig::default()
        });
        let mut scratch = PlannerScratch::new();
        let probe = planner.plan_with_scratch(&mut checker, position, goal, &bounds, &mut scratch);
        assert_eq!(
            probe.samples_drawn, 900,
            "{name}: the plan must search, not connect directly"
        );
        group.bench_function(*name, |b| {
            b.iter(|| {
                std::hint::black_box(planner.plan_with_scratch(
                    &mut checker,
                    position,
                    goal,
                    &bounds,
                    &mut scratch,
                ))
                .tree_size
            })
        });
    }
    group.finish();

    // The search's segment checks alone: 1,000 seeded segments up to the
    // 12 m rewire radius long, from points of the mission's sampling
    // bounds around the last pose, walked at each knob set's check step
    // through a checker whose broad phase is built.
    let mut rng = SplitMix64::new(11);
    let bounds = planning_bounds(position, position + heading * 40.0, env.bounds());
    let segments: Vec<(Vec3, Vec3)> = (0..1000)
        .map(|_| {
            let mut point = || {
                Vec3::new(
                    rng.uniform(bounds.min.x, bounds.max.x),
                    rng.uniform(bounds.min.y, bounds.max.y),
                    rng.uniform(bounds.min.z, bounds.max.z),
                )
            };
            let (a, toward) = (point(), point());
            let length = rng.uniform(0.0, 12.0);
            (a, a + (toward - a).normalize() * length)
        })
        .collect();
    let mut group = c.benchmark_group("collision_segment_walk");
    group.sample_size(20);
    for (name, _, checker) in &planned {
        let mut checker = checker.clone();
        checker.prebuild_broad_phase();
        let free = segments
            .iter()
            .filter(|(a, b)| checker.segment_free(*a, *b))
            .count();
        assert!(
            0 < free && free < segments.len(),
            "{name}: the batch must hit obstacles and miss them"
        );
        group.bench_function(*name, |b| {
            b.iter(|| {
                segments
                    .iter()
                    .filter(|(a, b)| checker.segment_free(*a, *b))
                    .count()
            })
        });
    }
    group.finish();
}

/// One camera-rig sweep, the per-decision work `sim.capture_ms` traces:
/// each mission rig (`static_*`'s six cameras, `dynamic_nodes`' nine with
/// the tilted three) captured from 30 poses 5 m apart along the
/// start→goal line of a mid environment, facing the goal, one pose per
/// iteration in turn.
fn bench_sim_capture(c: &mut Criterion) {
    let env = EnvironmentGenerator::new(DifficultyConfig {
        goal_distance: 150.0,
        ..DifficultyConfig::mid()
    })
    .generate(4);
    let heading = (env.goal() - env.start()).normalize();
    let yaw = heading.y.atan2(heading.x);
    let poses: Vec<Pose> = (0..30)
        .map(|i| Pose::new(env.start() + heading * (5.0 * i as f64), yaw))
        .collect();
    let mission = MissionConfig::new(RuntimeMode::SpatialAware);
    let mut group = c.benchmark_group("sim_capture");
    for (name, rig) in [
        ("static_rig", mission.camera_rig()),
        ("dynamic_rig", mission.dynamic_camera_rig()),
    ] {
        let mut next = 0;
        group.bench_function(format!("{name}/{}rays", rig.rays_per_sweep()), |b| {
            b.iter(|| {
                next = (next + 1) % poses.len();
                rig.capture(env.field(), &poses[next]).points.len()
            })
        });
    }
    group.finish();
}

/// Random boxes spread over a mission-scale corridor.
fn random_obstacles(n: usize, seed: u64) -> Vec<Obstacle> {
    let mut rng = SplitMix64::new(seed);
    let span = 40.0 * (n as f64 / 100.0).cbrt().max(1.0);
    (0..n as u32)
        .map(|id| {
            let center = Vec3::new(
                rng.uniform(5.0, span),
                rng.uniform(-span * 0.5, span * 0.5),
                rng.uniform(0.0, 12.0),
            );
            let half = Vec3::new(
                rng.uniform(0.4, 2.0),
                rng.uniform(0.4, 2.0),
                rng.uniform(0.4, 3.0),
            );
            Obstacle::new(id, Aabb::from_center_half_extents(center, half))
        })
        .collect()
}

/// A random box world of `n` obstacles spread over a mission-scale corridor.
fn random_field(n: usize, seed: u64) -> ObstacleField {
    random_obstacles(n, seed).into_iter().collect()
}

/// Rays fanned out from near the corridor entrance, like a depth camera.
fn probe_rays(count: usize, seed: u64) -> Vec<Ray> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            let origin = Vec3::new(0.0, rng.uniform(-10.0, 10.0), rng.uniform(2.0, 8.0));
            let yaw = rng.uniform(-0.9, 0.9);
            let pitch = rng.uniform(-0.3, 0.3);
            Ray::new(origin, Vec3::new(yaw.cos(), yaw.sin(), pitch.sin()))
        })
        .collect()
}

/// Obstacle-field raycast scaling: the grid-indexed DDA walk against the
/// retained linear scan, at 10^2..10^4 obstacles. The indexed cost is set
/// by the cells along the ray, not the world size, which is where the >=5x
/// speedup of this PR shows up.
fn bench_obstacle_raycast_scaling(c: &mut Criterion) {
    let rays = probe_rays(64, 99);
    let mut group = c.benchmark_group("obstacle_raycast");
    for &n in &[100usize, 1_000, 10_000] {
        let field = random_field(n, n as u64);
        group.bench_with_input(BenchmarkId::new("indexed", n), &field, |b, field| {
            b.iter(|| {
                let mut hits = 0usize;
                for ray in &rays {
                    hits += usize::from(std::hint::black_box(field.raycast(ray, 60.0)).is_some());
                }
                hits
            })
        });
        group.bench_with_input(BenchmarkId::new("linear", n), &field, |b, field| {
            b.iter(|| {
                let mut hits = 0usize;
                for ray in &rays {
                    hits += usize::from(
                        std::hint::black_box(field.raycast_linear(ray, 60.0)).is_some(),
                    );
                }
                hits
            })
        });
    }
    group.finish();
}

/// Ground-truth nearest-distance scaling (the profiler/difficulty query).
fn bench_obstacle_nearest_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("obstacle_nearest_distance");
    for &n in &[100usize, 1_000, 10_000] {
        let field = random_field(n, n as u64);
        let mut rng = SplitMix64::new(7);
        let queries: Vec<Vec3> = (0..64)
            .map(|_| {
                Vec3::new(
                    rng.uniform(0.0, 80.0),
                    rng.uniform(-40.0, 40.0),
                    rng.uniform(0.0, 12.0),
                )
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("indexed", n), &field, |b, field| {
            b.iter(|| {
                queries
                    .iter()
                    .map(|&q| std::hint::black_box(field.distance_to_nearest(q)).unwrap_or(0.0))
                    .sum::<f64>()
            })
        });
        group.bench_with_input(BenchmarkId::new("linear", n), &field, |b, field| {
            b.iter(|| {
                queries
                    .iter()
                    .map(|&q| {
                        std::hint::black_box(field.distance_to_nearest_linear(q)).unwrap_or(0.0)
                    })
                    .sum::<f64>()
            })
        });
    }
    group.finish();
}

/// Whole-search RRT* on a 4000-sample search through a single-gap wall.
fn bench_rrtstar_4000_samples(c: &mut Criterion) {
    // A wall with a single gap keeps the planner from shortcutting, so the
    // tree actually grows toward max_samples; mission-scale sampling bounds
    // keep the tree sparse relative to the rewire radius, as in real runs.
    let origin = Vec3::new(0.0, 0.0, 5.0);
    let mut map = OccupancyMap::new(0.5);
    let mut points = Vec::new();
    for yi in -120..=120 {
        let y = yi as f64 * 0.5;
        if (6.0..=10.0).contains(&y) {
            continue;
        }
        for zi in 0..30 {
            points.push(Vec3::new(20.0, y, zi as f64 * 0.5));
        }
    }
    map.integrate_cloud(&PointCloud::new(origin, points), 1.0);
    let pm = PlannerMap::export(&map, &ExportConfig::new(0.5, 1e9, origin));
    let planner = RrtStar::new(RrtConfig {
        max_samples: 4_000,
        seed: 3,
        ..RrtConfig::default()
    });
    let start = Vec3::new(0.0, 0.0, 5.0);
    let goal = Vec3::new(140.0, 0.0, 5.0);
    let bounds = Aabb::new(Vec3::new(-5.0, -75.0, 1.0), Vec3::new(155.0, 75.0, 28.0));

    // The checker is reused across iterations (planning only reads the
    // map), so the measurement isolates the search itself.
    let mut checker = CollisionChecker::new(pm, 0.45, 0.5);
    let mut group = c.benchmark_group("rrtstar_4000_samples");
    group.sample_size(10);
    group.bench_function("indexed", |b| {
        b.iter(|| std::hint::black_box(planner.plan(&mut checker, start, goal, &bounds)).tree_size)
    });
    group.finish();
}

/// A dynamic world with `n` mixed actors over a mission-scale static
/// field, for the per-decision dynamic-world kernels.
fn bench_dynamic_world(n: usize, seed: u64) -> DynamicWorld {
    let mut rng = SplitMix64::new(seed);
    let field = random_field(200, seed ^ 0xF1E);
    let actors = (0..n as u32)
        .map(|i| {
            let x = rng.uniform(10.0, 120.0);
            let spawn = Vec3::new(x, rng.uniform(-20.0, 20.0), 7.0);
            let half = Vec3::new(1.0, 1.0, 7.0);
            match i % 3 {
                0 => Actor::new(
                    i,
                    spawn,
                    half,
                    MotionModel::Crosser {
                        velocity: Vec3::new(0.0, rng.uniform(0.8, 1.6), 0.0),
                        bounds: Aabb::new(Vec3::new(x, -25.0, 7.0), Vec3::new(x, 25.0, 7.0)),
                    },
                ),
                1 => Actor::new(
                    i,
                    spawn,
                    half,
                    MotionModel::WaypointPatrol {
                        waypoints: vec![
                            spawn,
                            spawn + Vec3::new(rng.uniform(10.0, 30.0), 0.0, 0.0),
                        ],
                        speed: rng.uniform(0.6, 1.2),
                    },
                ),
                _ => Actor::new(
                    i,
                    spawn,
                    half,
                    MotionModel::RandomWalk {
                        seed: rng.next_u64(),
                        speed: rng.uniform(0.5, 1.0),
                        dwell: 2.0,
                        bounds: Aabb::new(
                            spawn - Vec3::new(10.0, 10.0, 0.0),
                            spawn + Vec3::new(10.0, 10.0, 0.0),
                        ),
                    },
                ),
            }
        })
        .collect();
    DynamicWorld::new(field, actors)
}

/// The per-decision dynamic-world sensing kernel: compose the snapshot
/// field (static clone + one box per actor, broad-phase rebuilt) and the
/// predicted boxes, at 4/16/64 actors. This is what every decision of a
/// dynamic mission pays on top of a static one, before any query runs.
fn bench_dynamic_world_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic_world_step");
    for &n in &[4usize, 16, 64] {
        let world = bench_dynamic_world(n, 42);
        // Advancing clock like a real mission, folded into a fixed
        // 370 s window: random-walk pose queries are O(t / dwell), so an
        // unbounded `t` would make each iteration slower than the last
        // and the measurement a moving target.
        group.bench_with_input(BenchmarkId::new("snapshot_field", n), &world, |b, world| {
            let mut tick = 0u64;
            b.iter(|| {
                tick += 1;
                let t = (tick % 1000) as f64 * 0.37;
                std::hint::black_box(world.snapshot_field(t)).len()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("predicted_boxes", n),
            &world,
            |b, world| {
                let mut tick = 0u64;
                b.iter(|| {
                    tick += 1;
                    let t = (tick % 1000) as f64 * 0.37;
                    std::hint::black_box(world.predicted_boxes(t, 4.0)).len()
                })
            },
        );
    }
    group.finish();
}

/// The predicted-occupancy validation kernel: a 60-waypoint trajectory
/// re-checked against the predicted boxes of 4/16/64 actors (dense
/// polyline sampling, the per-decision cost of the trajectory
/// invalidation). Both rows walk a [`PredictedHazards`] source, as the
/// mission drivers do, built once outside the timed loop.
fn bench_predicted_validation(c: &mut Criterion) {
    use roborun_planning::PredictedHazards;
    let mut group = c.benchmark_group("predicted_validation");
    let trajectory = Trajectory::new(
        (0..60)
            .map(|i| TrajectoryPoint {
                time: i as f64,
                position: Vec3::new(i as f64 * 2.0, (i as f64 * 0.4).sin() * 6.0, 5.0),
                speed: 2.0,
            })
            .collect(),
    );
    let origin = Vec3::new(0.0, 0.0, 5.0);
    for &n in &[4usize, 16, 64] {
        let world = bench_dynamic_world(n, 7);
        let hazards =
            PredictedHazards::new(world.predicted_boxes(3.0, 4.0), 0.46, origin, f64::INFINITY);
        group.bench_with_input(
            BenchmarkId::new("blockage_scan", n),
            &hazards,
            |b, hazards| {
                b.iter(|| {
                    let remaining = trajectory.remaining_from(0.0);
                    std::hint::black_box(
                        hazards
                            .first_conflict(remaining.points().iter().map(|p| p.position))
                            .map(|p| p.distance(origin)),
                    )
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("path_clear", n), &hazards, |b, hazards| {
            b.iter(|| {
                std::hint::black_box(
                    hazards.path_clear(trajectory.points().iter().map(|p| p.position)),
                )
            })
        });
    }
    group.finish();
}

/// The random-walk pose-query scaling fix: a cold `pose_at(t)` replays
/// `t / dwell` segments from zero, while the anchored
/// `pose_at_cached` resumes the fold from the previous query — O(1) per
/// step of a monotone (mission-shaped) query stream at *any* mission
/// time. The replay cost grows linearly with `t`; the anchored cost is
/// flat (this is why `dynamic_world_step` above had to fold its clock
/// into a fixed window before the cache existed).
fn bench_walk_pose_anchor(c: &mut Criterion) {
    use roborun_dynamics::WalkAnchor;
    let actor = Actor::new(
        0,
        Vec3::new(10.0, 0.0, 5.0),
        Vec3::splat(0.8),
        MotionModel::RandomWalk {
            seed: 99,
            speed: 1.2,
            dwell: 2.0,
            bounds: Aabb::new(Vec3::new(0.0, -15.0, 5.0), Vec3::new(60.0, 15.0, 5.0)),
        },
    );
    let mut group = c.benchmark_group("walk_pose_anchor");
    for &mission_time in &[1_000.0f64, 10_000.0, 100_000.0] {
        group.bench_with_input(
            BenchmarkId::new("replay", format!("{mission_time}s")),
            &mission_time,
            |b, &t0| {
                let mut tick = 0u64;
                b.iter(|| {
                    tick += 1;
                    std::hint::black_box(actor.pose_at(t0 + (tick % 64) as f64 * 0.25))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("anchored", format!("{mission_time}s")),
            &mission_time,
            |b, &t0| {
                let mut anchor = WalkAnchor::new();
                let mut tick = 0u64;
                b.iter(|| {
                    tick += 1;
                    std::hint::black_box(actor.pose_at_cached(t0 + tick as f64 * 0.25, &mut anchor))
                })
            },
        );
    }
    group.finish();
}

/// Fault-layer overhead on the healthy path. Two scales:
///
/// * `fault_frame_eval` — the per-decision cost of the fault layer
///   itself: evaluating an armed [`FaultPlan`]'s frame versus the
///   disarmed gate (an `Option::None` check) every healthy decision
///   pays. The disarmed gate must be sub-nanosecond noise.
/// * `degradation_healthy_mission` — a short fault-free mission with the
///   degradation runtime disarmed versus armed. With no faults injected
///   the watchdog never trips and the derating term stays exactly zero,
///   so the armed run must be indistinguishable from the baseline
///   (and is bit-identical in outcome — see
///   `mission/tests/fault_determinism.rs`).
fn bench_fault_plan_overhead(c: &mut Criterion) {
    use roborun_faults::{FaultPlan, FaultPlanConfig};
    use roborun_mission::FaultScenario;

    let mut group = c.benchmark_group("fault_frame_eval");
    let armed = FaultPlan::new(FaultScenario::PlannerBrownout.fault_plan(41));
    group.bench_function("armed", |b| {
        let mut decision = 0u64;
        b.iter(|| {
            decision += 1;
            std::hint::black_box(armed.frame(decision)).is_healthy()
        })
    });
    group.bench_function("disarmed_gate", |b| {
        // The exact expression both drivers evaluate when no plan is
        // armed: an Option map over the healthy-gated plan.
        let plan: Option<FaultPlan> = (!FaultPlanConfig::healthy().is_healthy())
            .then(|| FaultPlan::new(FaultPlanConfig::healthy()));
        let mut decision = 0u64;
        b.iter(|| {
            decision += 1;
            std::hint::black_box(plan.as_ref().map(|p| p.frame(decision)).unwrap_or_default())
                .is_healthy()
        })
    });
    group.finish();

    let env = EnvironmentGenerator::new(DifficultyConfig {
        obstacle_density: 0.4,
        obstacle_spread: 40.0,
        goal_distance: 60.0,
    })
    .generate(21);
    let config = |armed: bool| {
        let mut cfg = MissionConfig::new(RuntimeMode::SpatialAware);
        cfg.max_decisions = 200;
        cfg.max_mission_time = 600.0;
        cfg.degradation.enabled = armed;
        cfg
    };
    let mut group = c.benchmark_group("degradation_healthy_mission");
    group.sample_size(10);
    for &(label, armed) in &[("disarmed", false), ("watchdog_armed", true)] {
        let runner = MissionRunner::new(config(armed));
        group.bench_with_input(BenchmarkId::from_parameter(label), &runner, |b, runner| {
            b.iter(|| std::hint::black_box(runner.run(&env)).metrics.decisions)
        });
    }
    group.finish();
}

/// Trace-layer overhead on the hot path. Two rows:
///
/// * `disarmed_gate` — the entire cost an untraced run pays per
///   instrumentation point: one relaxed atomic load and a branch. The
///   disabled-path contract of `roborun-trace` holds this at single-digit
///   nanoseconds per decision.
/// * `armed_emit` — the thread-local ring push an armed run pays per
///   event (the mutex-guarded sink spill is amortised across the ring
///   capacity).
fn bench_trace_gate(c: &mut Criterion) {
    use roborun_trace::SpanKind;
    let mut group = c.benchmark_group("trace_gate");
    roborun_trace::disarm();
    group.bench_function("disarmed_gate", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            roborun_trace::collector::complete(
                std::hint::black_box(SpanKind::Decision),
                std::hint::black_box(t as f64),
                0.001,
                0,
                &[],
            );
            t
        })
    });
    group.bench_function("armed_emit", |b| {
        roborun_trace::arm();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            roborun_trace::collector::complete(
                std::hint::black_box(SpanKind::Decision),
                std::hint::black_box(t as f64),
                0.001,
                0,
                &[],
            );
            t
        });
        roborun_trace::disarm();
        let _ = roborun_trace::drain();
    });
    group.finish();
}

/// The predicted-costmap planning kernel: a corridor crossed by
/// predicted lanes, planned (a) in one shot through the composed
/// [`HazardContext`] and (b) by the retained reject-loop reference —
/// static-only plans re-seeded until one clears the lanes posteriorly.
/// Prints the collision queries and plan attempts each path consumed.
fn bench_predicted_costmap(c: &mut Criterion) {
    use roborun_planning::{polyline_clear_of_boxes, HazardContext, Planner, PredictedHazards};
    // A wall with one gap forces genuine tree search (no direct
    // connection), so re-seeded reject-loop attempts produce *different*
    // candidate paths — the regime where the loop can converge at all.
    let map = {
        let mut map = OccupancyMap::new(0.5);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let mut points = Vec::new();
        for yi in -60..=60 {
            let y = yi as f64 * 0.5;
            if (4.0..=9.0).contains(&y) {
                continue;
            }
            for zi in 0..24 {
                points.push(Vec3::new(20.0, y, zi as f64 * 0.5));
            }
        }
        map.integrate_cloud(&PointCloud::new(origin, points), 1.0);
        PlannerMap::export(&map, &ExportConfig::new(0.5, 1e9, origin))
    };
    // One predicted lane just past the gap: the natural straight exit is
    // soft-blocked and the plan must dip south after threading the wall.
    let lanes = vec![Aabb::new(
        Vec3::new(26.0, 2.0, 0.0),
        Vec3::new(29.0, 25.0, 12.0),
    )];
    let start = Vec3::new(0.0, 0.0, 5.0);
    let goal = Vec3::new(40.0, 0.0, 5.0);
    let bounds = Aabb::new(Vec3::new(-5.0, -25.0, 1.0), Vec3::new(45.0, 25.0, 12.0));
    let clearance = 0.45 * 0.6;
    let planner = |seed: u64| {
        Planner::new(roborun_planning::PlannerConfig {
            rrt: RrtConfig {
                seed,
                ..RrtConfig::default()
            },
            ..roborun_planning::PlannerConfig::default()
        })
    };

    // One-off accounting printout (queries + attempts per strategy).
    {
        let hazards = PredictedHazards::new(lanes.clone(), clearance, start, 1e9);
        let mut checker = CollisionChecker::new(map.clone(), 0.45, 0.3);
        let mut context = HazardContext::new(&mut checker, &hazards);
        let one_shot = planner(1).plan_with_checker(&mut context, start, goal, &bounds, 3.0);
        let one_shot_queries = roborun_planning::HazardSource::queries(&context);
        let mut attempts = 0u64;
        let mut reject_queries = 0usize;
        for seed in 1.. {
            attempts += 1;
            let mut checker = CollisionChecker::new(map.clone(), 0.45, 0.3);
            let outcome = planner(seed).plan_with_checker(&mut checker, start, goal, &bounds, 3.0);
            reject_queries += checker.queries();
            if let Ok((t, _)) = outcome {
                if polyline_clear_of_boxes(
                    t.points().iter().map(|p| p.position),
                    &lanes,
                    clearance,
                    start,
                    1e9,
                ) {
                    break;
                }
            }
            if attempts > 24 {
                break;
            }
        }
        eprintln!(
            "predicted_costmap: one-shot {} queries / 1 attempt (found: {}); \
             reject-loop {reject_queries} queries / {attempts} attempts",
            one_shot_queries,
            one_shot.is_ok(),
        );
    }

    let mut group = c.benchmark_group("predicted_costmap");
    group.bench_function("one_shot_context", |b| {
        let hazards = PredictedHazards::new(lanes.clone(), clearance, start, 1e9);
        b.iter(|| {
            let mut checker = CollisionChecker::new(map.clone(), 0.45, 0.3);
            let mut context = HazardContext::new(&mut checker, &hazards);
            std::hint::black_box(planner(1).plan_with_checker(
                &mut context,
                start,
                goal,
                &bounds,
                3.0,
            ))
            .is_ok()
        })
    });
    group.bench_function("reject_loop", |b| {
        b.iter(|| {
            // Re-seeded static-only plans until one clears the lanes —
            // the per-decision convergence the mission's reject loop
            // spreads over successive decisions.
            let mut accepted = false;
            for seed in 1..=24u64 {
                let mut checker = CollisionChecker::new(map.clone(), 0.45, 0.3);
                if let Ok((t, _)) =
                    planner(seed).plan_with_checker(&mut checker, start, goal, &bounds, 3.0)
                {
                    if polyline_clear_of_boxes(
                        t.points().iter().map(|p| p.position),
                        &lanes,
                        clearance,
                        start,
                        1e9,
                    ) {
                        accepted = true;
                        break;
                    }
                }
            }
            std::hint::black_box(accepted)
        })
    });
    group.finish();
}

/// The sampling mix on the lane-heavy predicted-costmap fixture at an
/// identical 2000-sample budget: uniform vs hazard-biased proposals.
/// The mix's headline win is samples-to-solution; this entry tracks the
/// per-sample overhead of the region draws so the proposal machinery
/// itself stays cheap.
fn bench_rrtstar_sampling_mix(c: &mut Criterion) {
    use roborun_planning::{HazardContext, PredictedHazards, SamplingMix};
    let map = {
        let mut map = OccupancyMap::new(0.5);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let mut points = Vec::new();
        for yi in -60..=60 {
            let y = yi as f64 * 0.5;
            if (4.0..=9.0).contains(&y) {
                continue;
            }
            for zi in 0..24 {
                points.push(Vec3::new(20.0, y, zi as f64 * 0.5));
            }
        }
        map.integrate_cloud(&PointCloud::new(origin, points), 1.0);
        PlannerMap::export(&map, &ExportConfig::new(0.5, 1e9, origin))
    };
    let lanes = vec![Aabb::new(
        Vec3::new(26.0, 2.0, 0.0),
        Vec3::new(29.0, 25.0, 12.0),
    )];
    let start = Vec3::new(0.0, 0.0, 5.0);
    let goal = Vec3::new(40.0, 0.0, 5.0);
    let bounds = Aabb::new(Vec3::new(-5.0, -25.0, 1.0), Vec3::new(45.0, 25.0, 12.0));
    let hazards = PredictedHazards::new(lanes, 0.45 * 0.6, start, 1e9);
    let mut group = c.benchmark_group("rrtstar_sampling_mix_2000");
    group.sample_size(10);
    for (label, enabled) in [("uniform", false), ("biased", true)] {
        let planner = RrtStar::new(RrtConfig {
            seed: 1,
            max_samples: 2_000,
            sampling_mix: SamplingMix {
                enabled,
                ..SamplingMix::default()
            },
            ..RrtConfig::default()
        });
        let mut checker = CollisionChecker::new(map.clone(), 0.45, 0.3);
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut context = HazardContext::new(&mut checker, &hazards);
                std::hint::black_box(planner.plan(&mut context, start, goal, &bounds)).tree_size
            })
        });
    }
    group.finish();
}

/// The broad-phase batch width on a 10^4-obstacle raycast storm: the
/// 8-wide AABB packs against the 4-wide fallback, forced to each width
/// (the field auto-detects at runtime — W8 on AVX hosts). Same query
/// stream, bit-identical answers per lane.
fn bench_aabb_dispatch_width(c: &mut Criterion) {
    use roborun_geom::SimdWidth;
    let rays = probe_rays(512, 12_345);
    let mut group = c.benchmark_group("aabb_dispatch_width_10k");
    for &(label, width) in &[("w4", SimdWidth::W4), ("w8", SimdWidth::W8)] {
        let field = ObstacleField::with_simd_width(random_obstacles(10_000, 10_000), width);
        group.bench_with_input(BenchmarkId::from_parameter(label), &field, |b, field| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for ray in &rays {
                    acc += std::hint::black_box(field.free_distance(ray, 120.0));
                }
                acc
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_point_cloud_precision,
    bench_octomap_insert_precision,
    bench_octomap_insert_volume,
    bench_integrate_cloud_batched_vs_reference,
    bench_collision_patch_vs_rebuild,
    bench_collision_frontier_delta,
    bench_export_precision,
    bench_perception_mission_map_step,
    bench_sim_capture,
    bench_obstacle_raycast_scaling,
    bench_obstacle_nearest_scaling,
    bench_rrtstar_4000_samples,
    bench_dynamic_world_step,
    bench_predicted_validation,
    bench_walk_pose_anchor,
    bench_predicted_costmap,
    bench_fault_plan_overhead,
    bench_trace_gate,
    bench_rrtstar_sampling_mix,
    bench_aabb_dispatch_width
);
criterion_main!(benches);
