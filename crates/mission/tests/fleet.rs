//! Fleet-mission integration locks.
//!
//! * A K=3 fleet in one shared world completes with zero peer
//!   collisions and is **bit-identical** across reruns.
//! * A randomized safety sweep over several worlds: no two drones'
//!   flown poses ever come within collision distance.
//! * Static peer trajectories are honoured deterministically by *both*
//!   drivers (the direct runner and the node pipeline), and actually
//!   steer the mission.
//!
//! The fleet-features-**off** side is locked elsewhere: the three golden
//! fixtures (`golden_sweep.rs`) regenerate byte-identical because an
//! empty peer set never touches the decision path, and the
//! single-drone-fleet ≡ `MissionRunner` bit-identity is a `fleet`
//! module unit test.

use roborun_core::RuntimeMode;
use roborun_env::{DifficultyConfig, Environment, EnvironmentGenerator};
use roborun_geom::Vec3;
use roborun_mission::{
    run_fleet, FleetConfig, MissionConfig, MissionRunner, NodePipeline, NodePipelineConfig,
};

fn environment(seed: u64) -> Environment {
    EnvironmentGenerator::new(DifficultyConfig {
        obstacle_density: 0.18,
        obstacle_spread: 40.0,
        goal_distance: 120.0,
    })
    .generate(seed)
}

fn base_config() -> MissionConfig {
    MissionConfig {
        max_decisions: 800,
        max_mission_time: 2_000.0,
        ..MissionConfig::new(RuntimeMode::SpatialAware)
    }
}

#[test]
fn three_drone_fleet_is_safe_and_bit_identical_across_reruns() {
    let env = environment(2);
    let config = FleetConfig::new(base_config(), 3);
    let a = run_fleet(&config, &env);
    let b = run_fleet(&config, &env);

    assert_eq!(a.missions.len(), 3);
    assert!(
        a.all_reached_goal(),
        "a fleet drone failed: {:?}",
        a.missions
            .iter()
            .map(|m| (m.metrics.reached_goal, m.metrics.collided))
            .collect::<Vec<_>>()
    );
    // Zero peer collisions: the closest any two drones ever came stays
    // above the two-body collision distance.
    let collision_distance = 2.0 * config.base.drone.body_radius;
    assert!(
        a.min_separation > collision_distance,
        "drones came within {} m (collision distance {} m)",
        a.min_separation,
        collision_distance
    );

    // Bit-identity across reruns: every flown position, every metric.
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.peer_updates, b.peer_updates);
    assert_eq!(a.min_separation.to_bits(), b.min_separation.to_bits());
    for (ma, mb) in a.missions.iter().zip(&b.missions) {
        assert_eq!(ma.flown_path, mb.flown_path);
        assert_eq!(ma.flown_times, mb.flown_times);
        assert_eq!(ma.metrics.decisions, mb.metrics.decisions);
        assert_eq!(
            ma.metrics.mission_time.to_bits(),
            mb.metrics.mission_time.to_bits()
        );
        assert_eq!(
            ma.metrics.energy_kj.to_bits(),
            mb.metrics.energy_kj.to_bits()
        );
    }
}

#[test]
fn randomized_fleet_safety_sweep_never_violates_separation() {
    // Several worlds, K=3 each: whatever routes the planners pick, no
    // two drones' flown poses ever come within collision distance.
    let mut completed_fleets = 0usize;
    for seed in [4, 13, 19] {
        let env = environment(seed);
        let config = FleetConfig::new(base_config(), 3);
        let result = run_fleet(&config, &env);
        let collision_distance = 2.0 * config.base.drone.body_radius;
        assert!(
            result.min_separation > collision_distance,
            "seed {seed}: separation {} m below collision distance {} m",
            result.min_separation,
            collision_distance
        );
        for m in &result.missions {
            assert!(!m.metrics.collided, "seed {seed}: a drone hit the world");
        }
        if result.all_reached_goal() {
            completed_fleets += 1;
        }
    }
    // The planner is stochastic (the paper accepts ≥80% success); most
    // fleets must still fully complete.
    assert!(
        completed_fleets >= 2,
        "only {completed_fleets}/3 fleets fully reached their goals"
    );
}

/// A serpentine peer "survey pattern" at station `x`: horizontal runs
/// every 1.5 m from z = 4 to z = 13 over y ∈ [-15, 15]. With the
/// 2·body-radius inflation the swept runs overlap into a solid wall the
/// planner cannot fly straight through at any cruise altitude.
fn survey_wall(x: f64) -> Vec<Vec3> {
    let mut points = Vec::new();
    let mut sign = 1.0;
    let mut z = 4.0;
    while z <= 13.0 {
        points.push(Vec3::new(x, -15.0 * sign, z));
        points.push(Vec3::new(x, 15.0 * sign, z));
        sign = -sign;
        z += 1.5;
    }
    points
}

#[test]
fn static_peers_are_deterministic_on_both_drivers_and_steer_the_mission() {
    let env = environment(9);
    // Peer survey walls crossing the direct route at two stations: the
    // mission must detour around (or over) them.
    let peers = vec![survey_wall(40.0), survey_wall(80.0)];
    let mut with_peers = base_config();
    with_peers.peer_trajectories = peers.clone();

    // Direct driver: bit-identical across reruns, different from the
    // peer-free mission (the corridors really steered it).
    let runner = MissionRunner::new(with_peers.clone());
    let a = runner.run(&env);
    let b = runner.run(&env);
    assert_eq!(a.flown_path, b.flown_path);
    assert_eq!(a.flown_times, b.flown_times);
    assert_eq!(a.metrics.decisions, b.metrics.decisions);
    assert_eq!(
        a.metrics.mission_time.to_bits(),
        b.metrics.mission_time.to_bits()
    );
    let solo = MissionRunner::new(base_config()).run(&env);
    assert_ne!(
        a.flown_path, solo.flown_path,
        "peer corridors did not steer the mission at all"
    );

    // Node pipeline: the same static peers, bit-identical across reruns.
    let mut node_config = NodePipelineConfig::new(RuntimeMode::SpatialAware);
    node_config.mission = with_peers;
    let pipeline = NodePipeline::new(node_config);
    let na = pipeline.run(&env);
    let nb = pipeline.run(&env);
    assert_eq!(na.mission.flown_path, nb.mission.flown_path);
    assert_eq!(na.mission.flown_times, nb.mission.flown_times);
    assert_eq!(na.mission.metrics.decisions, nb.mission.metrics.decisions);
    assert_eq!(
        na.mission.metrics.mission_time.to_bits(),
        nb.mission.metrics.mission_time.to_bits()
    );
}
