//! The disabled-tracing contract, locked against golden fixture #1.
//!
//! `roborun-trace`'s promise is that a disarmed tracer leaves the
//! mission on the exact pre-trace code path: same RNG streams, same
//! float operations, same metrics to the last bit. These tests pin that
//! from both directions —
//!
//! * **disarmed** missions must reproduce the checked-in golden-sweep
//!   fixture byte for byte (any drift means instrumentation leaked into
//!   the disabled path), and
//! * **armed** missions must produce bit-identical metrics to disarmed
//!   ones while actually retaining events (tracing observes, never
//!   perturbs — in particular it must not touch any RNG stream).

use roborun_core::RuntimeMode;
use roborun_env::{DifficultyConfig, EnvironmentGenerator};
use roborun_mission::sweep::run_sweep;
use roborun_mission::{MissionConfig, MissionMetrics, MissionRunner, SweepConfig};
use roborun_trace::collector;
use std::sync::Mutex;

/// The tracer gate is process-global; both tests toggle it.
static TEST_LOCK: Mutex<()> = Mutex::new(());

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_sweep.txt"
);

/// Row 0 of the golden sweep (see `golden_sweep.rs::golden_config`):
/// rows own their seeds (`seed + index`), so running just the first
/// difficulty reproduces the fixture's row 0 bit for bit.
fn row0_config() -> SweepConfig {
    let mut aware = MissionConfig::new(RuntimeMode::SpatialAware);
    aware.max_decisions = 600;
    aware.max_mission_time = 1_500.0;
    let mut oblivious = MissionConfig::new(RuntimeMode::SpatialOblivious);
    oblivious.max_decisions = 1_500;
    oblivious.max_mission_time = 3_000.0;
    SweepConfig {
        difficulties: vec![DifficultyConfig {
            obstacle_density: 0.3,
            obstacle_spread: 40.0,
            goal_distance: 120.0,
        }],
        seed: 41,
        aware,
        oblivious,
    }
}

/// Same raw-bit rendering as `golden_sweep.rs` (kept in sync by the
/// fixture comparison itself: a format drift fails both tests).
fn render_metrics(label: &str, m: &MissionMetrics) -> String {
    let mut out = format!("{label} mode={:?}", m.mode);
    let mut f = |name: &str, v: f64| out.push_str(&format!(" {name}={:016x}", v.to_bits()));
    f("mission_time", m.mission_time);
    f("energy_kj", m.energy_kj);
    f("mean_velocity", m.mean_velocity);
    f("mean_cpu", m.mean_cpu_utilization);
    f("median_latency", m.median_latency);
    out.push_str(&format!(" decisions={}", m.decisions));
    let mut f = |name: &str, v: f64| out.push_str(&format!(" {name}={:016x}", v.to_bits()));
    f("distance", m.distance_travelled);
    out.push_str(&format!(
        " reached_goal={} collided={}",
        m.reached_goal, m.collided
    ));
    out
}

#[test]
fn disarmed_sweep_row_is_bit_identical_to_golden_fixture() {
    let _guard = TEST_LOCK.lock().unwrap();
    collector::disarm();
    let results = run_sweep(&row0_config());
    let row = &results.rows()[0];

    let fixture = std::fs::read_to_string(FIXTURE).expect("golden fixture #1 present");
    let lines: Vec<&str> = fixture.lines().collect();
    // Lines 0–1 are comments; 2 is the row-0 header; 3–4 its metrics.
    assert_eq!(
        lines[3],
        render_metrics("  oblivious", &row.oblivious),
        "disarmed oblivious mission drifted from golden fixture #1"
    );
    assert_eq!(
        lines[4],
        render_metrics("  aware", &row.aware),
        "disarmed aware mission drifted from golden fixture #1"
    );
    assert!(
        collector::drain().is_empty(),
        "disarmed mission retained trace events"
    );
}

#[test]
fn armed_tracing_never_perturbs_mission_metrics() {
    let _guard = TEST_LOCK.lock().unwrap();
    let difficulty = DifficultyConfig {
        obstacle_density: 0.45,
        obstacle_spread: 40.0,
        goal_distance: 80.0,
    };
    let env = EnvironmentGenerator::new(difficulty).generate(23);
    let config = || {
        let mut c = MissionConfig::new(RuntimeMode::SpatialAware);
        c.seed = 23;
        c.max_decisions = 400;
        c.max_mission_time = 1_000.0;
        c
    };

    collector::disarm();
    let _ = collector::drain();
    let disarmed = MissionRunner::new(config()).run(&env);
    assert!(collector::drain().is_empty());

    collector::arm();
    let armed = MissionRunner::new(config()).run(&env);
    collector::disarm();
    let events = collector::drain();

    assert!(!events.is_empty(), "armed mission retained no trace events");
    assert_eq!(
        disarmed.metrics, armed.metrics,
        "armed tracing perturbed mission outcomes"
    );
}
