//! Planner-level predicted costmap conformance.
//!
//! Two directions are locked:
//!
//! * **Degeneration** — with the costmap off, or in a static world, a
//!   mission is bit-identical to the reject-loop behaviour (the off ≡
//!   seed direction is additionally locked by all three golden
//!   fixtures regenerating byte-identically).
//! * **Both paths fly the hard cell** — on a temporally hard dynamic
//!   world (fast actors in two waves), planning through
//!   the composed hazard context and converging by rejection both
//!   complete every scenario collision-free, and one-shot routing never
//!   forces more dynamic replans than the reject-loop.

use roborun_core::RuntimeMode;
use roborun_mission::{
    DynamicDifficulty, DynamicScenario, MissionConfig, MissionMetrics, MissionRunner,
};

fn dynamic_config(costmap: bool) -> MissionConfig {
    let mut cfg = MissionConfig::new(RuntimeMode::SpatialAware);
    cfg.max_decisions = 600;
    cfg.max_mission_time = 1_500.0;
    cfg.voxel_decay = Some(2);
    cfg.predicted_costmap = costmap;
    cfg.seed = 41;
    cfg
}

/// The difficulty the comparison runs at: fast actors, two waves — the
/// regime where predicted conflicts actually cross the aware runtime's
/// corridor (at base difficulty the governor's closing-speed throttle
/// keeps the MAV clear and both paths are conflict-free).
fn hard_cell() -> DynamicDifficulty {
    DynamicDifficulty {
        density_scale: 1.0,
        speed_scale: 2.5,
        actor_waves: 2,
    }
}

fn run(scenario: DynamicScenario, costmap: bool) -> MissionMetrics {
    let (env, world) = scenario.world_with(41, &hard_cell());
    MissionRunner::new(dynamic_config(costmap))
        .run_dynamic(&env, &world)
        .metrics
}

#[test]
fn static_missions_are_bit_identical_with_the_costmap_on() {
    // No dynamics: the predicted set is empty every decision, so the
    // composed context must never change a single bit.
    let env = DynamicScenario::CrossingCorridor.world(21).0;
    let mut on_cfg = MissionConfig::new(RuntimeMode::SpatialAware);
    on_cfg.max_decisions = 600;
    on_cfg.max_mission_time = 1_500.0;
    on_cfg.predicted_costmap = true;
    let mut off_cfg = on_cfg.clone();
    off_cfg.predicted_costmap = false;
    let on = MissionRunner::new(on_cfg).run(&env);
    let off = MissionRunner::new(off_cfg).run(&env);
    assert_eq!(on.telemetry.records(), off.telemetry.records());
    assert_eq!(on.flown_path, off.flown_path);
    assert_eq!(
        on.metrics.mission_time.to_bits(),
        off.metrics.mission_time.to_bits()
    );
}

#[test]
fn one_shot_and_reject_loop_both_complete_the_hard_cell() {
    for scenario in DynamicScenario::ALL {
        let reject_loop = run(scenario, false);
        let one_shot = run(scenario, true);
        // Both paths must complete the hard cell collision-free.
        for (label, m) in [("reject-loop", &reject_loop), ("one-shot", &one_shot)] {
            assert!(
                m.reached_goal && !m.collided,
                "{scenario:?} {label}: reached={} collided={}",
                m.reached_goal,
                m.collided
            );
        }
        // One-shot planning never forces more predicted replans than
        // converging by rejection.
        assert!(
            one_shot.dynamic_replans <= reject_loop.dynamic_replans,
            "{scenario:?}: one-shot dynamic replans {} vs reject-loop {}",
            one_shot.dynamic_replans,
            reject_loop.dynamic_replans
        );
    }
}

#[test]
fn costmap_runs_are_deterministic() {
    let (env, world) = DynamicScenario::CrossingCorridor.world_with(41, &hard_cell());
    let runner = MissionRunner::new(dynamic_config(true));
    let a = runner.run_dynamic(&env, &world);
    let b = runner.run_dynamic(&env, &world);
    assert_eq!(a.telemetry.records(), b.telemetry.records());
    assert_eq!(a.flown_path, b.flown_path);
    assert_eq!(a.metrics, b.metrics);
}
