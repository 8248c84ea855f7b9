//! Cross-crate integration tests for the runtime extensions: the
//! middleware node-graph pipeline, the cognitive co-task model, per-knob
//! ablation, fault injection and the safety audit — all driven through the
//! `roborun` facade the way a downstream user would.

use roborun::cognitive::intervals_from_telemetry;
use roborun::prelude::*;

fn short_env(seed: u64) -> Environment {
    EnvironmentGenerator::new(DifficultyConfig {
        obstacle_density: 0.35,
        obstacle_spread: 40.0,
        goal_distance: 120.0,
    })
    .generate(seed)
}

fn quick_mission(mode: RuntimeMode) -> MissionConfig {
    MissionConfig {
        max_decisions: 900,
        max_mission_time: 2_500.0,
        ..MissionConfig::new(mode)
    }
}

#[test]
fn node_graph_and_direct_runner_agree_on_the_headline_ordering() {
    let env = short_env(21);

    let direct_aware = MissionRunner::new(quick_mission(RuntimeMode::SpatialAware)).run(&env);
    let mut node_cfg = NodePipelineConfig::new(RuntimeMode::SpatialAware);
    node_cfg.mission = quick_mission(RuntimeMode::SpatialAware);
    let node_aware = NodePipeline::new(node_cfg).run(&env);

    assert!(direct_aware.metrics.reached_goal);
    assert!(node_aware.mission.metrics.reached_goal);

    // Same models, same environment: the two execution paths land in the
    // same ballpark, and the node graph actually carried the traffic.
    let ratio = node_aware.mission.metrics.mission_time / direct_aware.metrics.mission_time;
    assert!((0.4..2.5).contains(&ratio), "mission-time ratio {ratio}");
    assert!(node_aware.graph.total_messages() > 0);
    assert!(node_aware.graph.topic("/sensors/points").is_some());
}

#[test]
fn freed_cpu_translates_into_cognitive_throughput() {
    let env = short_env(21);

    let aware_cfg = quick_mission(RuntimeMode::SpatialAware);
    let oblivious_cfg = MissionConfig {
        max_decisions: 1_800,
        max_mission_time: 3_500.0,
        ..MissionConfig::new(RuntimeMode::SpatialOblivious)
    };
    let min_epoch = aware_cfg.min_epoch;
    let aware = MissionRunner::new(aware_cfg).run(&env);
    let oblivious = MissionRunner::new(oblivious_cfg).run(&env);
    assert!(aware.metrics.reached_goal && oblivious.metrics.reached_goal);

    let scheduler =
        HeadroomScheduler::new(SchedulerConfig::default(), CognitiveTask::standard_mix());
    let aware_report = scheduler.run(&intervals_from_telemetry(&aware.telemetry, min_epoch));
    let oblivious_report =
        scheduler.run(&intervals_from_telemetry(&oblivious.telemetry, min_epoch));

    // RoboRun leaves more CPU per decision, so the co-task mix attains at
    // least as much of its desired rate as under the static baseline.
    assert!(
        aware_report.mean_attainment() >= oblivious_report.mean_attainment() - 1e-9,
        "aware attainment {} vs oblivious {}",
        aware_report.mean_attainment(),
        oblivious_report.mean_attainment()
    );
    let comparison =
        CoTaskComparison::between("aware", &aware_report, "oblivious", &oblivious_report);
    assert!(comparison.attainment_ratio >= 1.0 - 1e-9);
}

#[test]
fn ablation_fault_injection_and_safety_audit_compose() {
    let env = short_env(9);

    // Full RoboRun, but with the volume knobs frozen and mild sensor flakiness.
    let config = MissionConfig {
        ablation: KnobAblation::volume_frozen(),
        fault_plan: FaultPlanConfig::flaky_sensors(0.05, 0.2),
        max_decisions: 1_200,
        max_mission_time: 3_000.0,
        ..MissionConfig::new(RuntimeMode::SpatialAware)
    };
    let result = MissionRunner::new(config).run(&env);
    assert!(
        result.metrics.reached_goal,
        "mission failed: {:?}",
        result.metrics
    );

    // Frozen volume knobs show up in the telemetry; precision still adapts.
    let static_knobs = KnobSettings::static_baseline();
    let mut precision_values = std::collections::BTreeSet::new();
    for r in result.telemetry.records() {
        assert_eq!(r.knobs.octomap_volume, static_knobs.octomap_volume);
        assert_eq!(r.knobs.planner_volume, static_knobs.planner_volume);
        precision_values.insert((r.knobs.point_cloud_precision * 100.0) as i64);
    }
    assert!(
        precision_values.len() > 1,
        "precision never adapted: {precision_values:?}"
    );

    // The safety audit runs on the same telemetry.
    let safety = SafetyReport::from_telemetry(&result.telemetry);
    assert_eq!(safety.decisions, result.metrics.decisions);
    assert!(safety.velocity_violation_rate() < 0.15);
}

#[test]
fn middleware_is_usable_standalone_through_the_facade() {
    // The middleware substrate is a normal library: build a tiny telemetry
    // fan-out graph by hand and check the bookkeeping.
    let bus = MessageBus::default();
    let drone = Node::new(&bus, "drone").unwrap();
    let logger = Node::new(&bus, "logger").unwrap();
    let dashboard = Node::new(&bus, "dashboard").unwrap();

    let battery = drone.publisher::<f64>("/telemetry/battery").unwrap();
    let log_sub = logger
        .subscribe::<f64>("/telemetry/battery", QosProfile::reliable(64))
        .unwrap();
    let dash_sub = dashboard
        .subscribe::<f64>("/telemetry/battery", QosProfile::sensor_data())
        .unwrap();

    let mut level = 100.0f64;
    for tick in 1..=20 {
        bus.set_time(tick as f64 * 0.5);
        level -= 0.1;
        let _ = battery.publish(level);
    }

    assert_eq!(log_sub.drain().len(), 20); // one sample at t = 0.5, 1.0, …, 10.0
    assert!(dash_sub.latest().is_some());
    let graph = GraphInfo::snapshot(&bus);
    assert_eq!(graph.nodes.len(), 3);
    assert_eq!(
        graph
            .topic("/telemetry/battery")
            .unwrap()
            .stats
            .messages_published,
        20
    );
}
