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
use roborun_env::DifficultyConfig;
use roborun_mission::sweep::{run_dynamic_sweep, run_fault_sweep, run_sweep};
use roborun_mission::{
    DynamicSweepConfig, FaultSweepConfig, MissionConfig, MissionMetrics, SweepConfig,
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
