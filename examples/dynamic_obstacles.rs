//! Moving-obstacle missions: the dynamic-world workload.
//!
//! Runs each dynamic scenario family (crossing corridor, patrolled
//! warehouse, congested intersection) under both runtime designs and
//! prints what temporal heterogeneity does to each: the spatial-aware
//! runtime slows near closing obstacles, discards trajectories that
//! cross predicted occupancy and keeps flying; the spatial-oblivious
//! baseline, whose velocity was fixed at design time, cannot react to
//! an obstacle that moves — and pays for it.
//!
//! ```text
//! cargo run --release --example dynamic_obstacles
//! ```

use roborun::prelude::*;

fn main() {
    let seed = 41;
    println!("dynamic scenario families (seed {seed}), both designs\n");
    for scenario in DynamicScenario::ALL {
        let (env, world) = scenario.world(seed);
        println!(
            "=== {} — {} static obstacles, {} actors (max speed {:.1} m/s)",
            scenario.name(),
            env.field().len(),
            world.actors().len(),
            world.max_actor_speed(),
        );
        for mode in [RuntimeMode::SpatialAware, RuntimeMode::SpatialOblivious] {
            let mut cfg = MissionConfig::new(mode);
            cfg.max_decisions = if mode.is_aware() { 600 } else { 1_500 };
            cfg.max_mission_time = if mode.is_aware() { 1_500.0 } else { 3_000.0 };
            cfg.voxel_decay = Some(2); // vacated cells must free up
            cfg.seed = seed;
            let result = MissionRunner::new(cfg).run_dynamic(&env, &world);
            let m = &result.metrics;
            println!(
                "  {:17} goal={:5} collided={:5}  t={:7.1} s  v={:4.2} m/s  \
                 dynamic replans={}",
                format!("{mode:?}:"),
                m.reached_goal,
                m.collided,
                m.mission_time,
                m.mean_velocity,
                m.dynamic_replans,
            );
        }
        println!();
    }
    println!(
        "The oblivious design cannot absorb a closing obstacle — its velocity\n\
         was chosen at design time — so moving worlds turn its slowness into\n\
         collisions. Runtime adaptation converts temporal heterogeneity into\n\
         safety, extending the paper's thesis to the time axis."
    );
}
