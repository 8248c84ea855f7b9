//! Decision-loop benchmarks: the cost of one governor decision (profiling +
//! budgeting + solving) and of one full perception update under the knob
//! settings each design uses — the per-decision work Fig. 11 breaks down.

use criterion::{criterion_group, criterion_main, Criterion};
use roborun_core::profilers::extract_obstacle_clusters;
use roborun_core::{
    Governor, GovernorConfig, KnobSettings, Profilers, RuntimeMode, SpatialProfile,
};
use roborun_env::{DifficultyConfig, EnvironmentGenerator};
use roborun_geom::{Pose, Vec3};
use roborun_perception::{ExportConfig, OccupancyMap, PlannerMap, PointCloud};
use roborun_planning::{smooth_path, SmoothingConfig};
use roborun_sim::CameraRig;

fn bench_governor_decision(c: &mut Criterion) {
    let governor = Governor::new(GovernorConfig::default());
    let open = SpatialProfile::open_space(2.5, 40.0);
    let tight = SpatialProfile::congested(0.6, 0.8, 2.0);
    c.bench_function("governor_decide_open_space", |b| {
        b.iter(|| std::hint::black_box(governor.decide(&open)))
    });
    c.bench_function("governor_decide_congested", |b| {
        b.iter(|| std::hint::black_box(governor.decide(&tight)))
    });
    let oblivious = Governor::new(GovernorConfig {
        mode: RuntimeMode::SpatialOblivious,
        ..GovernorConfig::default()
    });
    c.bench_function("governor_decide_oblivious", |b| {
        b.iter(|| std::hint::black_box(oblivious.decide(&tight)))
    });
}

fn bench_perception_update(c: &mut Criterion) {
    // One realistic scan from a generated environment.
    let env = EnvironmentGenerator::new(DifficultyConfig {
        goal_distance: 150.0,
        ..DifficultyConfig::mid()
    })
    .generate(4);
    let rig = CameraRig::hexa_rig();
    let pose = Pose::new(env.start() + Vec3::new(15.0, 0.0, 0.0), 0.0);
    let scan = rig.capture(env.field(), &pose);
    let cloud = PointCloud::new(pose.position, scan.points.clone());

    let aware_knobs = KnobSettings {
        point_cloud_precision: 2.4,
        map_to_planner_precision: 2.4,
        octomap_volume: 10_000.0,
        map_to_planner_volume: 20_000.0,
        planner_volume: 20_000.0,
    };
    let baseline_knobs = KnobSettings::static_baseline();

    let mut group = c.benchmark_group("perception_update");
    group.sample_size(30);
    for (name, knobs) in [
        ("roborun_relaxed", aware_knobs),
        ("baseline_static", baseline_knobs),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut map = OccupancyMap::new(0.3);
                let ds = cloud.downsampled(knobs.point_cloud_precision);
                let limited = ds.volume_limited(pose.position, knobs.octomap_volume);
                map.integrate_cloud(&limited, knobs.point_cloud_precision.max(0.5));
                let export = PlannerMap::export(
                    &map,
                    &ExportConfig::new(
                        knobs.map_to_planner_precision,
                        knobs.map_to_planner_volume,
                        pose.position,
                    ),
                );
                std::hint::black_box(export.len())
            })
        });
    }
    group.finish();
}

fn bench_profilers(c: &mut Criterion) {
    let env = EnvironmentGenerator::new(DifficultyConfig {
        goal_distance: 150.0,
        ..DifficultyConfig::mid()
    })
    .generate(4);
    let rig = CameraRig::hexa_rig();
    let pose = Pose::new(env.start() + Vec3::new(15.0, 0.0, 0.0), 0.0);
    let scan = rig.capture(env.field(), &pose);
    let cloud = PointCloud::new(pose.position, scan.points.clone());
    let mut map = OccupancyMap::new(0.3);
    map.integrate_cloud(&cloud, 0.5);
    let profilers = Profilers::default();
    c.bench_function("profilers_profile", |b| {
        b.iter(|| {
            std::hint::black_box(profilers.profile(&cloud, &map, None, pose.position, 2.0, Vec3::X))
        })
    });

    // A mid-mission map: 30 scans, 2 m apart along the start→goal line,
    // each followed by the mission's 70 m retain — free voxels dominate,
    // as they do in flight — profiled with a trajectory ahead, so the
    // upcoming-waypoint queries run too. No occupied voxel lies within the
    // 20 m gap radius of the last pose, so the profile runs from the last
    // scan pose with an obstacle within 10 m (8.4 m away), with that
    // pose's scan, and the gap clustering runs.
    let heading = (env.goal() - env.start()).normalize();
    let mut mission_map = OccupancyMap::new(0.3);
    let mut scans = Vec::new();
    for i in 0..30 {
        let pose = Pose::new(env.start() + heading * (2.0 * i as f64), 0.0);
        let scan = rig.capture(env.field(), &pose);
        let scan_cloud = PointCloud::new(pose.position, scan.points);
        mission_map.integrate_cloud(&scan_cloud.downsampled(0.3), 0.5);
        mission_map.retain_within(pose.position, 70.0);
        scans.push((pose.position, scan_cloud));
    }
    let (position, near_cloud) = scans
        .iter()
        .rev()
        .find(|(p, _)| mission_map.nearest_occupied_distance(*p, 10.0).is_some())
        .expect("an obstacle lies near the flown line");
    assert!(
        !extract_obstacle_clusters(&mission_map, *position, profilers.gap_radius).is_empty(),
        "the profile must cluster obstacles"
    );
    let trajectory = smooth_path(
        &[*position, *position + heading * 40.0],
        3.0,
        &SmoothingConfig::default(),
    );
    c.bench_function("profilers_profile_mission_map", |b| {
        b.iter(|| {
            std::hint::black_box(profilers.profile(
                near_cloud,
                &mission_map,
                Some(&trajectory),
                *position,
                2.0,
                heading,
            ))
        })
    });
}

criterion_group!(
    benches,
    bench_governor_decision,
    bench_perception_update,
    bench_profilers
);
criterion_main!(benches);
