//! Golden-scenario regression lock: a small deterministic sweep whose
//! metrics rows must stay **bit-identical** to a checked-in fixture.
//!
//! The equivalence proptests guarantee each accelerated kernel matches its
//! retained reference; this test guards the other direction — an
//! *intentional-looking* change (a new index, a reordered reduction, a
//! "harmless" float refactor) that silently shifts mission outcomes. Every
//! `f64` is serialized via its raw bit pattern, so even a 1-ulp drift
//! fails the comparison.
//!
//! To regenerate after a *deliberate* behaviour change, run
//!
//! ```text
//! ROBORUN_UPDATE_GOLDEN=1 cargo test -p roborun-mission --test golden_sweep
//! ```
//!
//! and commit the updated fixture together with an explanation of why the
//! mission outcomes were expected to move.

use roborun_core::RuntimeMode;
use roborun_env::{DifficultyConfig, EnvironmentGenerator};
use roborun_mission::sweep::{run_dynamic_sweep, run_fault_sweep, run_sweep};
use roborun_mission::{
    DynamicScenario, DynamicSweepConfig, FaultScenario, FaultSweepConfig, MissionConfig,
    MissionMetrics, MissionResult, MissionRunner, NodePipeline, NodePipelineConfig,
    NodePipelineResult, SweepConfig,
};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_sweep.txt"
);

/// Second fixture: the moving-obstacle sweep (all three dynamic scenario
/// families at seed 41, both designs, voxel decay on). Locks the whole
/// dynamic-world pipeline — snapshot sensing, predicted-occupancy
/// validation, closing-speed budgeting, stale-voxel decay — and the
/// `dynamic_replans` counter against silent drift.
const DYNAMIC_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_sweep_dynamic.txt"
);

/// Third fixture: the fault sweep (all three fault scenario families at
/// seed 41, fault-oblivious vs degradation-aware). Locks the whole
/// fault-injection and graceful-degradation machinery — deterministic
/// fault frames, bus link faults, the planning watchdog, the fallback
/// ladder, stale-perception derating — and its counters against silent
/// drift.
const FAULT_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_fault_sweep.txt"
);

/// Three short environments spanning the density/spread grid, fixed seed.
fn golden_config() -> SweepConfig {
    let difficulties = vec![
        DifficultyConfig {
            obstacle_density: 0.3,
            obstacle_spread: 40.0,
            goal_distance: 120.0,
        },
        DifficultyConfig {
            obstacle_density: 0.6,
            obstacle_spread: 40.0,
            goal_distance: 120.0,
        },
        DifficultyConfig {
            obstacle_density: 0.45,
            obstacle_spread: 80.0,
            goal_distance: 120.0,
        },
    ];
    let mut aware = MissionConfig::new(RuntimeMode::SpatialAware);
    aware.max_decisions = 600;
    aware.max_mission_time = 1_500.0;
    let mut oblivious = MissionConfig::new(RuntimeMode::SpatialOblivious);
    oblivious.max_decisions = 1_500;
    oblivious.max_mission_time = 3_000.0;
    SweepConfig {
        difficulties,
        seed: 41,
        aware,
        oblivious,
    }
}

/// Fourth fixture: both drivers pinned *per decision*. Each line carries
/// a mission's raw-bit metrics and a 64-bit digest over every telemetry
/// record, the flown path and times, and (node driver) the measured
/// communication per decision, so a change that moves one decision's
/// record by one ulp fails even when the mission totals happen to agree.
const TELEMETRY_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_telemetry.txt"
);

fn push_f64(out: &mut String, label: &str, v: f64) {
    out.push_str(&format!(" {label}={:016x}", v.to_bits()));
}

fn render_dynamic_metrics(out: &mut String, label: &str, m: &MissionMetrics) {
    render_metrics(out, label, m);
    // Re-open the line to append the dynamic counter.
    out.pop();
    out.push_str(&format!(" dynamic_replans={}\n", m.dynamic_replans));
}

fn render_fault_metrics(out: &mut String, label: &str, m: &MissionMetrics) {
    render_metrics(out, label, m);
    // Re-open the line to append the fault/degradation counters.
    out.pop();
    out.push_str(&format!(
        " faults={} watchdog={} retries={} degraded={} safe_stops={}\n",
        m.faults_injected, m.watchdog_fires, m.retries, m.degraded_decisions, m.safe_stops
    ));
}

fn render_metrics(out: &mut String, label: &str, m: &MissionMetrics) {
    out.push_str(&format!("{label} mode={:?}", m.mode));
    push_f64(out, "mission_time", m.mission_time);
    push_f64(out, "energy_kj", m.energy_kj);
    push_f64(out, "mean_velocity", m.mean_velocity);
    push_f64(out, "mean_cpu", m.mean_cpu_utilization);
    push_f64(out, "median_latency", m.median_latency);
    out.push_str(&format!(" decisions={}", m.decisions));
    push_f64(out, "distance", m.distance_travelled);
    out.push_str(&format!(
        " reached_goal={} collided={}",
        m.reached_goal, m.collided
    ));
    out.push('\n');
}

fn render_rows(config: &SweepConfig, header: &str) -> String {
    let results = run_sweep(config);
    let mut out = String::new();
    out.push_str(header);
    out.push_str("# Regenerate with ROBORUN_UPDATE_GOLDEN=1 (see tests/golden_sweep.rs).\n");
    for (i, row) in results.rows().iter().enumerate() {
        out.push_str(&format!(
            "row {i} density={:016x} spread={:016x} goal={:016x}\n",
            row.difficulty.obstacle_density.to_bits(),
            row.difficulty.obstacle_spread.to_bits(),
            row.difficulty.goal_distance.to_bits(),
        ));
        render_metrics(&mut out, "  oblivious", &row.oblivious);
        render_metrics(&mut out, "  aware", &row.aware);
    }
    out
}

fn assert_matches_fixture(rendered: &str, fixture: &str) {
    if std::env::var_os("ROBORUN_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(fixture).parent().unwrap()).unwrap();
        std::fs::write(fixture, rendered).unwrap();
        eprintln!("golden fixture rewritten: {fixture}");
        return;
    }
    let expected = std::fs::read_to_string(fixture).unwrap_or_else(|e| {
        panic!("missing golden fixture {fixture} ({e}); regenerate with ROBORUN_UPDATE_GOLDEN=1")
    });
    if rendered != expected {
        // A line-level diff reads far better than two multi-kB strings.
        for (i, (got, want)) in rendered.lines().zip(expected.lines()).enumerate() {
            assert_eq!(
                got,
                want,
                "golden sweep diverged at fixture line {} — if this change \
                 was intentional, regenerate with ROBORUN_UPDATE_GOLDEN=1",
                i + 1
            );
        }
        panic!(
            "golden sweep line count changed: got {}, fixture {}",
            rendered.lines().count(),
            expected.lines().count()
        );
    }
}

#[test]
fn golden_sweep_rows_are_bit_identical_to_fixture() {
    let rendered = render_rows(
        &golden_config(),
        "# Golden sweep fixture: 3 environments, seed 41, 120 m missions.\n",
    );
    assert_matches_fixture(&rendered, FIXTURE);
}

#[test]
fn fault_sweep_rows_are_bit_identical_to_fixture() {
    let rows = run_fault_sweep(&FaultSweepConfig::quick(41));
    let mut out = String::new();
    out.push_str("# Golden fault sweep fixture: 3 fault scenario families, seed 41.\n");
    out.push_str("# Regenerate with ROBORUN_UPDATE_GOLDEN=1 (see tests/golden_sweep.rs).\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "case {i} scenario={:?} seed={}\n",
            row.scenario, row.seed
        ));
        render_fault_metrics(&mut out, "  baseline", &row.baseline);
        render_fault_metrics(&mut out, "  degraded", &row.degraded);
    }
    assert_matches_fixture(&out, FAULT_FIXTURE);
}

#[test]
fn dynamic_golden_sweep_rows_are_bit_identical_to_fixture() {
    let rows = run_dynamic_sweep(&DynamicSweepConfig::quick(41));
    let mut out = String::new();
    out.push_str("# Golden dynamic sweep fixture: 3 moving-obstacle scenario families, seed 41.\n");
    out.push_str("# Regenerate with ROBORUN_UPDATE_GOLDEN=1 (see tests/golden_sweep.rs).\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "case {i} scenario={:?} seed={}\n",
            row.scenario, row.seed
        ));
        render_dynamic_metrics(&mut out, "  oblivious", &row.oblivious);
        render_dynamic_metrics(&mut out, "  aware", &row.aware);
    }
    assert_matches_fixture(&out, DYNAMIC_FIXTURE);
}

/// FNV-1a, 64-bit: a digest whose value is fixed by this file alone (the
/// standard library's hashers may change between toolchains).
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }
}

/// One fixture line: every `MissionMetrics` field (f64s as raw bits), the
/// record count and the digest. `DecisionRecord`'s `Debug` rendering
/// prints each f64 in its shortest round-trip form, so the digest sees
/// every bit of every record.
fn render_telemetry(out: &mut String, label: &str, mission: &MissionResult, comm: Option<&[f64]>) {
    let m = &mission.metrics;
    out.push_str(&format!("{label} mode={:?}", m.mode));
    for (name, v) in [
        ("mission_time", m.mission_time),
        ("energy_kj", m.energy_kj),
        ("mean_velocity", m.mean_velocity),
        ("mean_cpu", m.mean_cpu_utilization),
        ("median_latency", m.median_latency),
        ("p95_latency", m.p95_latency),
        ("p99_latency", m.p99_latency),
        ("max_latency", m.max_latency),
        ("distance", m.distance_travelled),
    ] {
        push_f64(out, name, v);
    }
    out.push_str(&format!(
        " decisions={} reached_goal={} collided={} dynamic_replans={} faults={} watchdog={} \
         retries={} degraded={} safe_stops={}",
        m.decisions,
        m.reached_goal,
        m.collided,
        m.dynamic_replans,
        m.faults_injected,
        m.watchdog_fires,
        m.retries,
        m.degraded_decisions,
        m.safe_stops
    ));
    let mut digest = Fnv64::new();
    for record in mission.telemetry.records() {
        digest.write(format!("{record:?}").as_bytes());
    }
    for p in &mission.flown_path {
        for v in [p.x, p.y, p.z] {
            digest.write_f64(v);
        }
    }
    for &t in &mission.flown_times {
        digest.write_f64(t);
    }
    for &c in comm.unwrap_or_default() {
        digest.write_f64(c);
    }
    out.push_str(&format!(
        " records={} digest={:016x}\n",
        mission.telemetry.records().len(),
        digest.0
    ));
}

fn render_node(out: &mut String, label: &str, result: &NodePipelineResult) {
    render_telemetry(out, label, &result.mission, Some(&result.comm_per_decision));
}

fn node_pipeline(mission: MissionConfig) -> NodePipeline {
    NodePipeline::new(NodePipelineConfig {
        mission,
        ..NodePipelineConfig::new(RuntimeMode::SpatialAware)
    })
}

#[test]
fn telemetry_of_both_drivers_is_bit_identical_to_fixture() {
    let mut out = String::new();
    out.push_str("# Golden telemetry fixture: both drivers, per-decision digests, seed 41.\n");
    out.push_str("# Regenerate with ROBORUN_UPDATE_GOLDEN=1 (see tests/golden_sweep.rs).\n");

    // One short static mission per design, on both drivers.
    let sweep = golden_config();
    let env = EnvironmentGenerator::new(sweep.difficulties[0]).generate(sweep.seed);
    for (name, cfg) in [("aware", &sweep.aware), ("oblivious", &sweep.oblivious)] {
        let direct = MissionRunner::new(cfg.clone()).run(&env);
        render_telemetry(&mut out, &format!("static {name} direct"), &direct, None);
        let nodes = node_pipeline(cfg.clone()).run(&env);
        render_node(&mut out, &format!("static {name} nodes"), &nodes);
    }

    // A moving-obstacle mission on both drivers.
    let aware = DynamicSweepConfig::quick(41).aware;
    let (env, world) = DynamicScenario::CrossingCorridor.world(41);
    let direct = MissionRunner::new(aware.clone()).run_dynamic(&env, &world);
    render_telemetry(&mut out, "crossing-corridor aware direct", &direct, None);
    let nodes = node_pipeline(aware.clone()).run_dynamic(&env, &world);
    render_node(&mut out, "crossing-corridor aware nodes", &nodes);
    // Predicted conflicts, escapes and the one-shot costmap search: the
    // congested intersection under the oblivious design and under the
    // aware design planning through the predicted lanes.
    let (env, world) = DynamicScenario::CongestedIntersection.world(41);
    let mut costmap = aware;
    costmap.predicted_costmap = true;
    let oblivious = DynamicSweepConfig::quick(41).oblivious;
    for (name, cfg) in [("oblivious", oblivious), ("aware-costmap", costmap)] {
        let direct = MissionRunner::new(cfg.clone()).run_dynamic(&env, &world);
        render_telemetry(
            &mut out,
            &format!("congested-intersection {name} direct"),
            &direct,
            None,
        );
        let nodes = node_pipeline(cfg).run_dynamic(&env, &world);
        render_node(
            &mut out,
            &format!("congested-intersection {name} nodes"),
            &nodes,
        );
    }

    // Faults: the planner brownout on both drivers with the degradation
    // ladder armed, the lossy link on the node driver (link faults exist
    // only on a bus) under both templates.
    let faults = FaultSweepConfig::quick(41);
    let brownout = FaultScenario::PlannerBrownout;
    let mut cfg = faults.aware.clone();
    cfg.fault_plan = brownout.fault_plan(41);
    let env = brownout.environment(41);
    let direct = MissionRunner::new(cfg.clone()).run(&env);
    render_telemetry(&mut out, "planner-brownout degraded direct", &direct, None);
    let nodes = node_pipeline(cfg).run(&env);
    render_node(&mut out, "planner-brownout degraded nodes", &nodes);
    let lossy = FaultScenario::LossyLinkPatrol;
    let env = lossy.environment(41);
    for (name, template) in [("baseline", &faults.baseline), ("degraded", &faults.aware)] {
        let mut cfg = template.clone();
        cfg.fault_plan = lossy.fault_plan(41);
        let nodes = node_pipeline(cfg).run(&env);
        render_node(&mut out, &format!("lossy-link-patrol {name} nodes"), &nodes);
    }
    assert_matches_fixture(&out, TELEMETRY_FIXTURE);
}
