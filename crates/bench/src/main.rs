//! `experiments` — regenerates every table and figure of the RoboRun paper.
//!
//! ```bash
//! # everything, scaled-down (finishes in a few minutes):
//! cargo run --release -p roborun-bench --bin experiments -- all
//!
//! # a single figure:
//! cargo run --release -p roborun-bench --bin experiments -- fig7
//!
//! # the full paper-scale sweep (27 environments, 600–1200 m missions):
//! cargo run --release -p roborun-bench --bin experiments -- fig7 --full
//! ```
//!
//! Each experiment prints either an aligned table (for bar-chart figures
//! like Fig. 7) or a CSV series (for curve figures like Fig. 2/5/10/11)
//! that can be plotted with any external tool. Experiments are named
//! after the paper figure or table they regenerate (`fig7`, `table2`, …);
//! `trace` writes Chrome-trace exports of representative missions into
//! `out/`.

use roborun_core::latency_model::LatencySample;
use roborun_core::{
    KnobRanges, KnobSettings, PipelineLatencyModel, RuntimeMode, SpatialProfile, TimeBudgeter,
};
use roborun_env::{CongestionMap, DifficultyConfig, Environment, EnvironmentGenerator};
use roborun_mission::breakdown::ZoneBreakdown;
use roborun_mission::report;
use roborun_mission::sweep::{run_sweep, SweepConfig};
use roborun_mission::{MissionConfig, MissionResult, MissionRunner, Scenario};
use roborun_sim::{ComputeLatencyModel, PipelineStage, StoppingModel};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let selected: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .collect();
    let run_all = selected.is_empty() || selected.iter().any(|a| a == "all");
    let want = |name: &str| run_all || selected.iter().any(|a| a == name);

    println!(
        "RoboRun reproduction — experiment harness (mode: {})\n",
        if full { "full paper scale" } else { "quick" }
    );

    if want("table2") {
        table2();
    }
    if want("table1") {
        table1();
    }
    if want("fit") {
        fit();
    }
    if want("fig2a") {
        fig2a();
    }
    if want("fig2b") {
        fig2b();
    }
    if want("fig3") {
        fig3(full);
    }
    if want("fig4") {
        fig4(full);
    }
    // Figures 5, 9, 10 and 11 all analyse the representative mission.
    if want("fig5") || want("fig9") || want("fig10") || want("fig11") {
        let (env, oblivious, aware) = representative_mission(full);
        if want("fig9") {
            fig9(&env, &oblivious, &aware);
        }
        if want("fig5") {
            fig5(&oblivious, &aware);
        }
        if want("fig10") {
            fig10(&oblivious, &aware);
        }
        if want("fig11") {
            fig11(&oblivious, &aware);
        }
    }
    if want("fig7") || want("fig8") {
        let results = sweep(full);
        if want("fig7") {
            println!(
                "## Figure 7 — mission-level metrics (averaged over {} environments)\n",
                results.rows().len()
            );
            println!("{}", report::fig7_table(&results));
        }
        if want("fig8") {
            fig8(&results);
        }
    }
    if want("ablation") {
        ablation(full);
    }
    if want("ablation_knobs") {
        ablation_knobs(full);
    }
    if want("cotask") {
        cotask(full);
    }
    if want("node_graph") {
        node_graph(full);
    }
    if want("faults") {
        faults(full);
    }
    if want("fault_sweep") {
        fault_sweep();
    }
    if want("trace") {
        trace_export(full);
    }
}

/// Chrome-trace export: arms the tracer, runs one representative static,
/// dynamic and fault mission, self-checks the export against the trace
/// schema and the >= 95% decision-stage-coverage contract, and writes
/// `out/trace_<scenario>.json` (loadable in Perfetto or
/// `chrome://tracing`). Wall-clock fields are left out of the artifact
/// so reruns of the same mission produce byte-identical files.
fn trace_export(full: bool) {
    use roborun_mission::{DynamicScenario, FaultScenario};
    use roborun_trace::{validate_chrome_trace, Trace};

    println!("## Trace — Chrome-trace export of representative missions\n");
    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../out");
    std::fs::create_dir_all(out_dir).expect("create out/");

    fn run_traced(out_dir: &str, name: &str, run: impl FnOnce() -> MissionResult) {
        // Leftover events from earlier subcommands of the same process
        // would pollute the artifact; start from an empty sink.
        let _ = roborun_trace::drain();
        roborun_trace::arm();
        let result = run();
        roborun_trace::disarm();
        let trace = Trace::collect();
        let json = trace.to_chrome_json(name, false);
        let events =
            validate_chrome_trace(&json).unwrap_or_else(|e| panic!("{name} trace schema: {e}"));
        let coverage = trace.decision_stage_coverage();
        let min_coverage = coverage.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            !coverage.is_empty() && min_coverage >= 0.95,
            "{name}: stage spans cover {min_coverage:.3} of a decision (need >= 0.95)"
        );
        let path = format!("{out_dir}/trace_{name}.json");
        std::fs::write(&path, &json).expect("write trace json");
        println!(
            "### {name}: {} decisions, {events} events, min stage coverage {min_coverage:.3}\n",
            result.metrics.decisions
        );
        println!("{}", trace.summary_table());
        println!("wrote {path}\n");
    }

    let max_decisions = if full { 4_000 } else { 1_500 };
    run_traced(out_dir, "static", || {
        let env = EnvironmentGenerator::new(DifficultyConfig {
            goal_distance: 200.0,
            ..DifficultyConfig::mid()
        })
        .generate(23);
        MissionRunner::new(MissionConfig {
            max_decisions,
            max_mission_time: 5_000.0,
            ..MissionConfig::new(RuntimeMode::SpatialAware)
        })
        .run(&env)
    });
    run_traced(out_dir, "dynamic", || {
        let (env, world) = DynamicScenario::CrossingCorridor.world(41);
        let mut config = MissionConfig::new(RuntimeMode::SpatialAware);
        config.max_decisions = max_decisions.min(600);
        config.max_mission_time = 1_500.0;
        config.voxel_decay = Some(2);
        MissionRunner::new(config).run_dynamic(&env, &world)
    });
    run_traced(out_dir, "fault", || {
        let scenario = FaultScenario::PlannerBrownout;
        let env = scenario.environment(41);
        let mut config = MissionConfig::new(RuntimeMode::SpatialAware);
        config.max_decisions = max_decisions.min(600);
        config.max_mission_time = 1_500.0;
        config.voxel_decay = Some(2);
        config.degradation.enabled = true;
        config.fault_plan = scenario.fault_plan(41);
        MissionRunner::new(config).run(&env)
    });
}

/// The robustness evaluation: every deterministic fault scenario family,
/// fault-oblivious versus degradation-aware, as a CSV series.
fn fault_sweep() {
    use roborun_mission::sweep::run_fault_sweep;
    use roborun_mission::FaultSweepConfig;
    println!("## Fault sweep — fault-oblivious vs degradation-aware\n");
    let rows = run_fault_sweep(&FaultSweepConfig::quick(41));
    println!("{}", report::fault_csv(&rows));
    println!(
        "(the fault-oblivious baseline deadlocks or collides in every family;\n\
         the degradation-aware runtime completes or safe-stops, never colliding)\n"
    );
}

/// Ablation (not a paper figure): freeze each knob family at its static
/// Table II value while the rest keep adapting, and measure what each
/// family contributes to the mission-level gains.
fn ablation_knobs(full: bool) {
    use roborun_core::KnobAblation;
    println!("## Ablation — per-knob contribution (frozen knobs keep their Table II values)\n");
    let difficulty = if full {
        DifficultyConfig::mid()
    } else {
        DifficultyConfig {
            goal_distance: 200.0,
            ..DifficultyConfig::mid()
        }
    };
    let env = EnvironmentGenerator::new(difficulty).generate(29);
    let variants: Vec<(String, KnobAblation)> = if full {
        KnobAblation::catalog()
    } else {
        KnobAblation::catalog().into_iter().take(4).collect()
    };
    let mut rows = Vec::new();
    for (name, ablation) in variants {
        let config = MissionConfig {
            ablation,
            max_decisions: if full { 6_000 } else { 2_500 },
            max_mission_time: if full { 8_000.0 } else { 4_000.0 },
            ..MissionConfig::new(RuntimeMode::SpatialAware)
        };
        let result = MissionRunner::new(config).run(&env);
        rows.push(vec![
            name,
            format!("{}", ablation.frozen_count()),
            format!("{:.1}", result.metrics.mission_time),
            format!("{:.2}", result.metrics.mean_velocity),
            format!("{:.0}%", result.metrics.mean_cpu_utilization * 100.0),
            format!("{:.2}", result.metrics.median_latency),
            format!(
                "{}",
                result.metrics.reached_goal && !result.metrics.collided
            ),
        ]);
    }
    println!(
        "{}",
        report::format_table(
            &[
                "frozen knobs",
                "count",
                "mission time (s)",
                "velocity (m/s)",
                "CPU",
                "median latency (s)",
                "success"
            ],
            &rows
        )
    );
    println!(
        "(freezing precision costs the most because precision drives the voxel count\n\
         cubically; freezing everything reproduces the static knob assignment while\n\
         keeping the dynamic deadline)\n"
    );
}

/// Extra experiment: what the freed-up CPU buys. Replays each design's CPU
/// profile through the cognitive co-task scheduler (semantic labeling,
/// gesture detection, object tracking).
fn cotask(full: bool) {
    use roborun_cognitive::{
        intervals_from_telemetry, CoTaskComparison, CognitiveTask, HeadroomScheduler,
        SchedulerConfig,
    };
    println!("## Co-task throughput — what the 36% CPU reduction buys\n");
    let difficulty = if full {
        DifficultyConfig::mid()
    } else {
        DifficultyConfig {
            goal_distance: 200.0,
            ..DifficultyConfig::mid()
        }
    };
    let env = EnvironmentGenerator::new(difficulty).generate(17);
    let scheduler =
        HeadroomScheduler::new(SchedulerConfig::default(), CognitiveTask::standard_mix());
    let mut reports = Vec::new();
    for (label, mode) in [
        ("spatial-aware", RuntimeMode::SpatialAware),
        ("spatial-oblivious", RuntimeMode::SpatialOblivious),
    ] {
        let config = MissionConfig {
            max_decisions: if full { 8_000 } else { 4_000 },
            max_mission_time: if full { 10_000.0 } else { 5_000.0 },
            ..MissionConfig::new(mode)
        };
        let min_epoch = config.min_epoch;
        let result = MissionRunner::new(config).run(&env);
        let report = scheduler.run(&intervals_from_telemetry(&result.telemetry, min_epoch));
        println!(
            "### {label} (nav CPU {:.0}%, mission {:.0} s)\n{}",
            result.metrics.mean_cpu_utilization * 100.0,
            result.metrics.mission_time,
            report.to_table()
        );
        reports.push(report);
    }
    let comparison = CoTaskComparison::between(
        "spatial-aware",
        &reports[0],
        "spatial-oblivious",
        &reports[1],
    );
    println!(
        "attainment ratio (aware/oblivious): {:.2}x   throughput ratio: {:.2}x\n",
        comparison.attainment_ratio, comparison.throughput_ratio
    );
}

/// Extra experiment: the mission run as a middleware node graph, with the
/// communication term measured from real per-topic traffic.
fn node_graph(full: bool) {
    use roborun_mission::{NodePipeline, NodePipelineConfig};
    println!("## Node-graph pipeline — measured communication and topology\n");
    let difficulty = if full {
        DifficultyConfig::mid()
    } else {
        DifficultyConfig {
            goal_distance: 200.0,
            ..DifficultyConfig::mid()
        }
    };
    let env = EnvironmentGenerator::new(difficulty).generate(11);
    for (label, mode) in [
        ("spatial-aware", RuntimeMode::SpatialAware),
        ("spatial-oblivious", RuntimeMode::SpatialOblivious),
    ] {
        let mut config = NodePipelineConfig::new(mode);
        config.mission.max_decisions = if full { 8_000 } else { 4_000 };
        config.mission.max_mission_time = if full { 10_000.0 } else { 5_000.0 };
        let result = NodePipeline::new(config).run(&env);
        let comm_mean: f64 = result.comm_per_decision.iter().sum::<f64>()
            / result.comm_per_decision.len().max(1) as f64;
        println!(
            "### {label}: mission {:.0} s, velocity {:.2} m/s, mean comm/decision {:.1} ms",
            result.mission.metrics.mission_time,
            result.mission.metrics.mean_velocity,
            comm_mean * 1e3
        );
        println!("{}", result.graph.to_table());
    }
}

/// Extra experiment: robustness under degraded sensing (fog, dropouts),
/// audited by the safety monitor.
fn faults(full: bool) {
    use roborun_core::SafetyReport;
    use roborun_faults::FaultPlanConfig;
    println!("## Fault injection — degraded sensing, same governor\n");
    let difficulty = if full {
        DifficultyConfig::mid()
    } else {
        DifficultyConfig {
            goal_distance: 200.0,
            ..DifficultyConfig::mid()
        }
    };
    let env = EnvironmentGenerator::new(difficulty).generate(21);
    let mut rows = Vec::new();
    for (label, fault_plan) in [
        ("healthy", FaultPlanConfig::healthy()),
        ("fog 12 m", FaultPlanConfig::fog(12.0)),
        ("fog 6 m", FaultPlanConfig::fog(6.0)),
        ("flaky sensors", FaultPlanConfig::flaky_sensors(0.1, 0.3)),
    ] {
        let config = MissionConfig {
            fault_plan,
            max_decisions: if full { 8_000 } else { 4_000 },
            max_mission_time: if full { 10_000.0 } else { 5_000.0 },
            ..MissionConfig::new(RuntimeMode::SpatialAware)
        };
        let result = MissionRunner::new(config).run(&env);
        let safety = SafetyReport::from_telemetry(&result.telemetry);
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", result.metrics.mission_time),
            format!("{:.2}", result.metrics.mean_velocity),
            format!("{:.1}%", safety.velocity_violation_rate() * 100.0),
            format!("{}", result.metrics.reached_goal),
            format!("{}", result.metrics.collided),
        ]);
    }
    println!(
        "{}",
        report::format_table(
            &[
                "sensing",
                "mission time (s)",
                "velocity (m/s)",
                "budget violations",
                "reached goal",
                "collided"
            ],
            &rows
        )
    );
    println!(
        "(fog caps the profiled visibility, so the deadline equation shortens the budget\n\
         and the governor trades velocity for safety rather than colliding)\n"
    );
}

/// Ablation (not a paper figure): how much the waypoint-aware Algorithm 1
/// budget matters compared to using only the instantaneous Eq. 1 budget.
fn ablation(full: bool) {
    println!("## Ablation — Algorithm 1 (waypoint-aware budget) vs plain Eq. 1\n");
    let difficulty = if full {
        DifficultyConfig::mid()
    } else {
        DifficultyConfig {
            goal_distance: 240.0,
            ..DifficultyConfig::mid()
        }
    };
    let env = EnvironmentGenerator::new(difficulty).generate(29);
    let mut rows = Vec::new();
    for (name, waypoint_budgeting) in [
        ("Algorithm 1 (paper)", true),
        ("Eq. 1 only (ablated)", false),
    ] {
        let config = MissionConfig {
            waypoint_budgeting,
            max_decisions: if full { 6_000 } else { 2_500 },
            ..MissionConfig::new(RuntimeMode::SpatialAware)
        };
        let result = MissionRunner::new(config).run(&env);
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", result.metrics.mission_time),
            format!("{:.2}", result.metrics.mean_velocity),
            format!("{:.1}%", result.telemetry.deadline_hit_rate() * 100.0),
            format!(
                "{}",
                result.metrics.reached_goal && !result.metrics.collided
            ),
        ]);
    }
    println!(
        "{}",
        report::format_table(
            &[
                "budgeting",
                "mission time (s)",
                "velocity (m/s)",
                "deadline hit rate",
                "success"
            ],
            &rows
        )
    );
    println!(
        "(the ablated governor trusts the instantaneous visibility even when the planned\n\
         trajectory dives into congestion, so it tends to miss more deadlines)\n"
    );
}

// --------------------------------------------------------------------- tables

fn table2() {
    println!("## Table II — knob values (static baseline vs dynamic ranges)\n");
    let ranges = KnobRanges::table_ii();
    let s = KnobSettings::static_baseline();
    let rows = vec![
        vec![
            "point cloud precision (m)".to_string(),
            format!("{}", s.point_cloud_precision),
            format!("[{} .. {}]", ranges.precision_min, ranges.precision_max),
        ],
        vec![
            "octomap to planner precision (m)".to_string(),
            format!("{}", s.map_to_planner_precision),
            format!("[{} .. {}]", ranges.precision_min, ranges.precision_max),
        ],
        vec![
            "octomap volume (m^3)".to_string(),
            format!("{}", s.octomap_volume),
            format!("[0 .. {}]", ranges.octomap_volume_max),
        ],
        vec![
            "octomap to planner volume (m^3)".to_string(),
            format!("{}", s.map_to_planner_volume),
            format!("[0 .. {}]", ranges.map_to_planner_volume_max),
        ],
        vec![
            "planner volume (m^3)".to_string(),
            format!("{}", s.planner_volume),
            format!("[0 .. {}]", ranges.planner_volume_max),
        ],
    ];
    println!(
        "{}",
        report::format_table(&["knob", "static", "dynamic"], &rows)
    );
    println!(
        "precision lattice searched by the solver: {:?}\n",
        ranges.precision_lattice()
    );
}

fn table1() {
    println!("## Table I — variables collected by the profilers\n");
    let rows = vec![
        vec![
            "gap between obstacles".into(),
            "point cloud".into(),
            "precision".into(),
        ],
        vec![
            "closest obstacle, closest unknown".into(),
            "point cloud, octomap, smoother".into(),
            "precision, volume, deadline".into(),
        ],
        vec![
            "sensor, map volume".into(),
            "point cloud, octomap".into(),
            "volume".into(),
        ],
        vec![
            "velocity, position".into(),
            "sensors".into(),
            "deadline".into(),
        ],
        vec!["trajectory".into(), "smoother".into(), "deadline".into()],
    ];
    println!(
        "{}",
        report::format_table(&["variable profiled", "pipeline stage", "used for"], &rows)
    );
    // Show one concrete profile so the mapping to code is visible.
    let open = SpatialProfile::open_space(2.5, 40.0);
    let tight = SpatialProfile::congested(0.6, 0.8, 2.0);
    println!(
        "example profile (open sky):     gap_min {:.1} m, closest obstacle {:.1} m, visibility {:.1} m",
        open.gap_min, open.closest_obstacle, open.visibility
    );
    println!(
        "example profile (tight aisle):  gap_min {:.1} m, closest obstacle {:.1} m, visibility {:.1} m\n",
        tight.gap_min, tight.closest_obstacle, tight.visibility
    );
}

fn fit() {
    println!("## Eq. 2 and Eq. 4 model fits\n");
    // Eq. 2: fit the stopping model from synthetic calibration flights.
    let truth = StoppingModel::paper_default();
    let samples: Vec<(f64, f64)> = (1..=24)
        .map(|i| {
            let v = i as f64 * 0.33;
            (v, truth.stopping_distance(v))
        })
        .collect();
    let fitted = StoppingModel::fit(&samples).expect("stopping fit");
    println!(
        "stopping model d_stop(v) = {:.3} v^2 + {:.3} v + {:.3}   (MSE {:.2e}, paper reports 2% MSE)",
        fitted.a,
        fitted.b,
        fitted.c,
        fitted.mse(&samples)
    );

    // Eq. 4: fit each governed stage from a profiled precision/volume grid.
    let sim = ComputeLatencyModel::calibrated();
    for (name, coeffs) in [
        ("perception (octomap)", sim.perception),
        ("perception-to-planning", sim.perception_to_planning),
        ("planning", sim.planning),
    ] {
        let mut samples = Vec::new();
        for &p in &KnobRanges::table_ii().precision_lattice() {
            for v in [5_000.0, 20_000.0, 46_000.0, 80_000.0, 150_000.0, 400_000.0] {
                samples.push(LatencySample {
                    precision: p,
                    volume: v,
                    latency: coeffs.latency(p, v),
                });
            }
        }
        let (fitted, rel_rmse) = PipelineLatencyModel::fit_stage(&samples).expect("stage fit");
        println!(
            "{name:<24} q = [{:.3e}, {:.3e}, {:.3e}, 1.0]   relative RMSE {:.2}% (paper: <8% MSE)",
            fitted.q0,
            fitted.q1,
            fitted.q2,
            rel_rmse * 100.0
        );
    }
    println!();
}

// --------------------------------------------------------------------- fig 2

fn fig2a() {
    println!("## Figure 2a — processing latency vs volume for several precisions (CSV)\n");
    let sim = ComputeLatencyModel::calibrated();
    let precisions = [0.3, 0.6, 1.2, 2.4];
    let mut rows = Vec::new();
    for i in 0..=10 {
        let volume = i as f64 * 6_000.0;
        let mut row = vec![volume];
        for &p in &precisions {
            row.push(sim.stage_latency(PipelineStage::Perception, p, volume));
        }
        rows.push(row);
    }
    println!(
        "{}",
        report::format_csv(
            &[
                "volume_m3",
                "lat_p0.3_s",
                "lat_p0.6_s",
                "lat_p1.2_s",
                "lat_p2.4_s"
            ],
            &rows
        )
    );
    println!("(latency doubles with volume and grows ~8x when the voxel size halves)\n");
}

fn fig2b() {
    println!("## Figure 2b — decision deadline vs speed for several visibilities (CSV)\n");
    let budgeter = TimeBudgeter::default();
    let visibilities = [5.0, 10.0, 20.0, 40.0];
    let mut rows = Vec::new();
    for i in 1..=20 {
        let v = i as f64 * 0.5;
        let mut row = vec![v];
        for &d in &visibilities {
            row.push(budgeter.local_budget(v, d));
        }
        rows.push(row);
    }
    println!(
        "{}",
        report::format_csv(
            &[
                "velocity_mps",
                "ddl_vis5_s",
                "ddl_vis10_s",
                "ddl_vis20_s",
                "ddl_vis40_s"
            ],
            &rows
        )
    );
    println!("(the deadline shrinks with speed and grows with visibility)\n");
}

// ----------------------------------------------------- fig 3 / fig 4 missions

fn mission_pair(env: &Environment, max_decisions: usize) -> (MissionResult, MissionResult) {
    let oblivious = MissionRunner::new(MissionConfig {
        max_decisions,
        max_mission_time: 8_000.0,
        ..MissionConfig::new(RuntimeMode::SpatialOblivious)
    })
    .run(env);
    let aware = MissionRunner::new(MissionConfig {
        max_decisions,
        max_mission_time: 8_000.0,
        ..MissionConfig::new(RuntimeMode::SpatialAware)
    })
    .run(env);
    (oblivious, aware)
}

fn fig3(full: bool) {
    println!("## Figure 3 — high-precision mission (package delivery through dense clusters)\n");
    let env = if full {
        Scenario::PackageDelivery.environment(11)
    } else {
        Scenario::PackageDelivery.short_environment(11)
    };
    let (oblivious, aware) = mission_pair(&env, if full { 4_000 } else { 2_000 });
    for (name, result) in [("spatial-oblivious", &oblivious), ("spatial-aware", &aware)] {
        let records = result.telemetry.records();
        let mean = |f: &dyn Fn(&roborun_core::DecisionRecord) -> f64| {
            records.iter().map(f).sum::<f64>() / records.len().max(1) as f64
        };
        let distinct_precisions: std::collections::BTreeSet<u64> = records
            .iter()
            .map(|r| (r.knobs.point_cloud_precision * 100.0) as u64)
            .collect();
        println!(
            "{name:<20} mean precision {:.2} m | mean octomap volume {:>8.0} m^3 | mean latency {:>5.2} s | distinct precision levels used: {}",
            mean(&|r| r.knobs.point_cloud_precision),
            mean(&|r| r.knobs.octomap_volume),
            mean(&|r| r.latency()),
            distinct_precisions.len(),
        );
    }
    println!("\nper-decision series (spatial-aware) — precision/volume/latency (Fig. 3d/e/f):");
    print_series_sample(
        &aware,
        &["time_s", "precision_m", "octomap_volume_m3", "latency_s"],
        |r| {
            vec![
                r.time,
                r.knobs.point_cloud_precision,
                r.knobs.octomap_volume,
                r.latency(),
            ]
        },
    );
    println!("per-decision series (spatial-oblivious) — constant worst case (Fig. 3a/b/c):");
    print_series_sample(
        &oblivious,
        &["time_s", "precision_m", "octomap_volume_m3", "latency_s"],
        |r| {
            vec![
                r.time,
                r.knobs.point_cloud_precision,
                r.knobs.octomap_volume,
                r.latency(),
            ]
        },
    );
}

fn fig4(full: bool) {
    println!("## Figure 4 — high-velocity mission (search and rescue over open terrain)\n");
    let env = if full {
        Scenario::SearchAndRescue.environment(13)
    } else {
        Scenario::SearchAndRescue.short_environment(13)
    };
    let (oblivious, aware) = mission_pair(&env, if full { 5_000 } else { 2_500 });
    for (name, result) in [("spatial-oblivious", &oblivious), ("spatial-aware", &aware)] {
        let records = result.telemetry.records();
        let mean = |f: &dyn Fn(&roborun_core::DecisionRecord) -> f64| {
            records.iter().map(f).sum::<f64>() / records.len().max(1) as f64
        };
        println!(
            "{name:<20} mean velocity {:.2} m/s | mean visibility {:>5.1} m | mean deadline {:>5.2} s | mission time {:>7.1} s",
            mean(&|r| r.commanded_velocity),
            mean(&|r| r.visibility),
            mean(&|r| r.deadline),
            result.metrics.mission_time,
        );
    }
    println!("\nper-decision series (spatial-aware) — velocity/visibility/deadline (Fig. 4d/e/f):");
    print_series_sample(
        &aware,
        &["time_s", "velocity_mps", "visibility_m", "deadline_s"],
        |r| vec![r.time, r.commanded_velocity, r.visibility, r.deadline],
    );
    println!("per-decision series (spatial-oblivious) — constant worst case (Fig. 4a/b/c):");
    print_series_sample(
        &oblivious,
        &["time_s", "velocity_mps", "visibility_m", "deadline_s"],
        |r| vec![r.time, r.commanded_velocity, r.visibility, r.deadline],
    );
}

fn print_series_sample(
    result: &MissionResult,
    header: &[&str],
    row: impl Fn(&roborun_core::DecisionRecord) -> Vec<f64>,
) {
    let records = result.telemetry.records();
    let step = (records.len() / 12).max(1);
    let rows: Vec<Vec<f64>> = records.iter().step_by(step).map(row).collect();
    println!("{}", report::format_csv(header, &rows));
}

// -------------------------------------------- representative mission (V-C)

fn representative_mission(full: bool) -> (Environment, MissionResult, MissionResult) {
    let difficulty = if full {
        DifficultyConfig::mid()
    } else {
        DifficultyConfig {
            goal_distance: 240.0,
            ..DifficultyConfig::mid()
        }
    };
    let env = EnvironmentGenerator::new(difficulty).generate(23);
    let (oblivious, aware) = mission_pair(&env, if full { 6_000 } else { 2_500 });
    (env, oblivious, aware)
}

fn fig9(env: &Environment, oblivious: &MissionResult, aware: &MissionResult) {
    println!("## Figure 9 — representative mission map (congestion heat map + trajectories)\n");
    let map = CongestionMap::build(
        env,
        if env.mission_length() > 500.0 {
            60.0
        } else {
            30.0
        },
    );
    println!("congestion heat map ('#' dense, '+' moderate, '.' sparse):");
    for row in map.to_rows() {
        let line: String = row
            .iter()
            .map(|&v| {
                if v > 0.2 {
                    '#'
                } else if v > 0.05 {
                    '+'
                } else if v > 0.0 {
                    '.'
                } else {
                    ' '
                }
            })
            .collect();
        println!("  |{line}|");
    }
    println!(
        "\ntrajectories: baseline visited {} decision points, RoboRun {} (start {} -> goal {})",
        oblivious.flown_path.len(),
        aware.flown_path.len(),
        env.start(),
        env.goal()
    );
    println!(
        "both reached goal: baseline {}, RoboRun {}\n",
        oblivious.metrics.reached_goal, aware.metrics.reached_goal
    );
}

fn fig5(oblivious: &MissionResult, aware: &MissionResult) {
    println!("## Figure 5 — latency and deadline: static worst case vs dynamic (CSV)\n");
    println!("spatial-aware (latency varies with space, deadline extends when visibility allows):");
    print_series_sample(aware, &["time_s", "latency_s", "deadline_s"], |r| {
        vec![r.time, r.latency(), r.deadline]
    });
    println!("spatial-oblivious (constant latency, constant worst-case deadline):");
    print_series_sample(oblivious, &["time_s", "latency_s", "deadline_s"], |r| {
        vec![r.time, r.latency(), r.deadline]
    });
    let aware_median = aware.telemetry.median_latency().unwrap_or(0.0);
    let oblivious_median = oblivious.telemetry.median_latency().unwrap_or(0.0);
    println!(
        "median latency: baseline {:.2} s vs RoboRun {:.2} s -> {:.1}x reduction (paper reports 11x)\n",
        oblivious_median,
        aware_median,
        oblivious_median / aware_median.max(1e-9)
    );
    println!("latency tail, baseline:");
    println!("{}", report::latency_tail_table(&oblivious.telemetry));
    println!("latency tail, RoboRun:");
    println!("{}", report::latency_tail_table(&aware.telemetry));
}

fn fig10(oblivious: &MissionResult, aware: &MissionResult) {
    println!("## Figure 10 — representative mission: time, velocity and precision over time\n");
    let rows = vec![
        vec![
            "mission time (s)".to_string(),
            format!("{:.1}", oblivious.metrics.mission_time),
            format!("{:.1}", aware.metrics.mission_time),
            format!(
                "{:.2}x",
                oblivious.metrics.mission_time / aware.metrics.mission_time.max(1e-9)
            ),
        ],
        vec![
            "mission energy (kJ)".to_string(),
            format!("{:.1}", oblivious.metrics.energy_kj),
            format!("{:.1}", aware.metrics.energy_kj),
            format!(
                "{:.2}x",
                oblivious.metrics.energy_kj / aware.metrics.energy_kj.max(1e-9)
            ),
        ],
        vec![
            "mean velocity (m/s)".to_string(),
            format!("{:.2}", oblivious.metrics.mean_velocity),
            format!("{:.2}", aware.metrics.mean_velocity),
            format!(
                "{:.2}x",
                aware.metrics.mean_velocity / oblivious.metrics.mean_velocity.max(1e-9)
            ),
        ],
    ];
    println!(
        "{}",
        report::format_table(&["metric", "baseline", "RoboRun", "ratio"], &rows)
    );
    println!("precision over time, spatial-aware (Fig. 10c) — varies in zones A/C, flat in B:");
    print_series_sample(aware, &["time_s", "precision_m", "zone"], |r| {
        vec![
            r.time,
            r.knobs.point_cloud_precision,
            match r.zone {
                Some('A') => 1.0,
                Some('B') => 2.0,
                Some('C') => 3.0,
                _ => 0.0,
            },
        ]
    });
    for (name, result) in [("baseline", oblivious), ("RoboRun", aware)] {
        let zones = ZoneBreakdown::from_telemetry(&result.telemetry);
        let summary: Vec<String> = zones
            .zones
            .iter()
            .map(|z| {
                format!(
                    "zone {}: {:.2} m/s, precision {:.1} m",
                    z.zone, z.mean_velocity, z.mean_precision
                )
            })
            .collect();
        println!("{name:<10} {}", summary.join(" | "));
    }
    println!();
}

fn fig11(oblivious: &MissionResult, aware: &MissionResult) {
    println!("## Figure 11 — end-to-end latency breakdown\n");
    for (name, result) in [
        ("spatial-aware (RoboRun)", aware),
        ("spatial-oblivious (baseline)", oblivious),
    ] {
        println!("{name} — per-decision breakdown CSV (Fig. 11a):");
        let records = result.telemetry.records();
        let step = (records.len() / 10).max(1);
        let rows: Vec<Vec<f64>> = records
            .iter()
            .step_by(step)
            .map(|r| {
                let b = &r.breakdown;
                vec![
                    r.time,
                    b.point_cloud,
                    b.perception,
                    b.perception_to_planning,
                    b.planning,
                    b.communication,
                    b.runtime_overhead,
                ]
            })
            .collect();
        println!(
            "{}",
            report::format_csv(
                &[
                    "time_s",
                    "point_cloud_s",
                    "octomap_s",
                    "oct_to_plan_s",
                    "planning_s",
                    "comm_s",
                    "runtime_s"
                ],
                &rows
            )
        );
        let zones = ZoneBreakdown::from_telemetry(&result.telemetry);
        println!("normalised stage shares (Fig. 11b):");
        for (stage, share) in &zones.stage_shares {
            if *share > 0.002 {
                println!("  {stage:<20} {:>5.1}%", share * 100.0);
            }
        }
        for z in &zones.zones {
            println!(
                "  zone {} latency spread {:.2} s (mean {:.2} s over {} decisions)",
                z.zone, z.latency_spread, z.mean_latency, z.decisions
            );
        }
        println!();
    }
}

// ----------------------------------------------------------- fig 7 / fig 8

fn sweep(full: bool) -> roborun_mission::SweepResults {
    if full {
        println!("running the full 27-environment sweep (this takes a while)...\n");
        run_sweep(&SweepConfig {
            seed: 7,
            aware: MissionConfig {
                max_decisions: 6_000,
                max_mission_time: 10_000.0,
                ..MissionConfig::new(RuntimeMode::SpatialAware)
            },
            oblivious: MissionConfig {
                max_decisions: 8_000,
                max_mission_time: 10_000.0,
                ..MissionConfig::new(RuntimeMode::SpatialOblivious)
            },
            ..SweepConfig::default()
        })
    } else {
        // Quick mode: the full 3x3 density/spread matrix at a reduced goal
        // distance (plus the three goal distances at mid density/spread so
        // the Fig. 8d sensitivity still has three levels).
        let mut difficulties = Vec::new();
        for &density in &[0.3, 0.45, 0.6] {
            for &spread in &[40.0, 80.0, 120.0] {
                difficulties.push(DifficultyConfig {
                    obstacle_density: density,
                    obstacle_spread: spread,
                    goal_distance: 200.0,
                });
            }
        }
        for &goal in &[150.0, 225.0, 300.0] {
            difficulties.push(DifficultyConfig {
                obstacle_density: 0.45,
                obstacle_spread: 80.0,
                goal_distance: goal,
            });
        }
        println!(
            "running the quick sweep ({} scaled environments)...\n",
            difficulties.len()
        );
        run_sweep(&SweepConfig {
            difficulties,
            seed: 7,
            aware: MissionConfig {
                max_decisions: 2_500,
                ..MissionConfig::new(RuntimeMode::SpatialAware)
            },
            oblivious: MissionConfig {
                max_decisions: 4_000,
                ..MissionConfig::new(RuntimeMode::SpatialOblivious)
            },
        })
    }
}

fn fig8(results: &roborun_mission::SweepResults) {
    println!("## Figure 8 — sensitivity to environment difficulty\n");
    println!(
        "Fig. 8a evaluation knob values: density {:?}, spread {:?} m, goal distance {:?} m\n",
        [0.3, 0.45, 0.6],
        [40.0, 80.0, 120.0],
        [600.0, 900.0, 1200.0]
    );
    println!("Fig. 8b — obstacle density:");
    println!(
        "{}",
        report::fig8_table("density", &results.sensitivity(|d| d.obstacle_density))
    );
    println!("Fig. 8c — obstacle spread:");
    println!(
        "{}",
        report::fig8_table("spread (m)", &results.sensitivity(|d| d.obstacle_spread))
    );
    println!("Fig. 8d — goal distance:");
    println!(
        "{}",
        report::fig8_table(
            "goal distance (m)",
            &results.sensitivity(|d| d.goal_distance)
        )
    );
    let (a_density, o_density) = results.sensitivity_ratio(|d| d.obstacle_density);
    let (a_spread, o_spread) = results.sensitivity_ratio(|d| d.obstacle_spread);
    let (a_goal, o_goal) = results.sensitivity_ratio(|d| d.goal_distance);
    println!("flight-time ratios (highest / lowest knob value):");
    println!("  density:       RoboRun {a_density:.2}x vs baseline {o_density:.2}x   (paper: 1.5x vs 1.1x)");
    println!("  spread:        RoboRun {a_spread:.2}x vs baseline {o_spread:.2}x   (paper: 1.4x vs 1.1x)");
    println!(
        "  goal distance: RoboRun {a_goal:.2}x vs baseline {o_goal:.2}x   (paper: 1.3x vs 2.0x)"
    );
    println!();
}
