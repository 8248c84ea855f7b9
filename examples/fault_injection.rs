//! Robustness under degraded sensing: the same mission flown with healthy
//! sensors, in fog, and with flaky cameras, audited by the safety monitor.
//!
//! ```bash
//! cargo run --release --example fault_injection
//! ```

use roborun::prelude::*;

fn main() {
    let env = Scenario::PackageDelivery.short_environment(21);

    let mut stalled = Vec::new();
    for (label, fault_plan) in [
        ("healthy sensing", FaultPlanConfig::healthy()),
        ("fog (8 m visibility)", FaultPlanConfig::fog(8.0)),
        (
            "flaky cameras (10% sweeps, 30% points lost)",
            FaultPlanConfig::flaky_sensors(0.1, 0.3),
        ),
    ] {
        let config = MissionConfig {
            fault_plan,
            max_decisions: 1_500,
            max_mission_time: 3_000.0,
            ..MissionConfig::new(RuntimeMode::SpatialAware)
        };
        let result = MissionRunner::new(config).run(&env);
        let safety = SafetyReport::from_telemetry(&result.telemetry);

        println!("## {label}");
        println!(
            "reached goal: {}   collided: {}   mission time: {:.0} s   mean velocity: {:.2} m/s",
            result.metrics.reached_goal,
            result.metrics.collided,
            result.metrics.mission_time,
            result.metrics.mean_velocity
        );
        println!("safety: {}\n", safety.summary());
        if !result.metrics.reached_goal {
            stalled.push(label);
        }
    }

    if stalled.is_empty() {
        println!("Every mission reached the goal.");
    } else {
        println!(
            "Did not reach the goal: {}.\n\
             Organic stalls do not yet enter the degradation ladder; see the ROADMAP item\n\
             \"Organic failures enter the degradation ladder\".",
            stalled.join("; ")
        );
    }
}
