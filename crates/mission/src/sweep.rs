//! The 27-environment evaluation sweep (paper Section V, Figures 7 and 8)
//! and the moving-obstacle (dynamic-world) sweep.

use crate::metrics::ImprovementFactors;
use crate::scenarios::{DynamicScenario, FaultScenario};
use crate::{
    AggregateMetrics, MissionConfig, MissionMetrics, MissionRunner, NodePipeline,
    NodePipelineConfig,
};
use roborun_core::RuntimeMode;
use roborun_env::{DifficultyConfig, EnvironmentGenerator};
use serde::{Deserialize, Serialize};

/// A typed validation error for sweep configurations: the up-front check
/// that keeps a malformed knob from panicking deep inside a worker thread.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// A difficulty knob is NaN or infinite — it would corrupt seeds,
    /// environment generation and the sensitivity grouping.
    NonFiniteKnob {
        /// Index of the offending difficulty configuration.
        index: usize,
        /// Name of the offending knob.
        knob: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The difficulty list is empty: the request describes no missions.
    NoEnvironments,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::NonFiniteKnob { index, knob, value } => {
                write!(f, "difficulty #{index} has a non-finite {knob} ({value})")
            }
            SweepError::NoEnvironments => write!(f, "no difficulty configurations to sweep"),
        }
    }
}

impl std::error::Error for SweepError {}

/// Configuration of a sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// The difficulty configurations to evaluate (defaults to the paper's
    /// 27-environment matrix).
    pub difficulties: Vec<DifficultyConfig>,
    /// Seed used for environment generation and planning.
    pub seed: u64,
    /// Mission configuration template for the spatial-aware runs.
    pub aware: MissionConfig,
    /// Mission configuration template for the spatial-oblivious runs.
    pub oblivious: MissionConfig,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            difficulties: DifficultyConfig::evaluation_matrix(),
            seed: 7,
            aware: MissionConfig::new(RuntimeMode::SpatialAware),
            oblivious: MissionConfig::new(RuntimeMode::SpatialOblivious),
        }
    }
}

impl SweepConfig {
    /// A scaled-down sweep (shorter goal distances and fewer environments)
    /// for tests and quick demos: every combination of the density and
    /// spread knobs at a 150 m goal distance.
    pub fn quick(seed: u64) -> Self {
        let mut difficulties = Vec::new();
        for &density in &[0.3, 0.6] {
            for &spread in &[40.0, 80.0] {
                difficulties.push(DifficultyConfig {
                    obstacle_density: density,
                    obstacle_spread: spread,
                    goal_distance: 150.0,
                });
            }
        }
        SweepConfig {
            difficulties,
            seed,
            ..SweepConfig::default()
        }
    }

    /// Up-front validation: every difficulty knob finite, at least one
    /// environment. [`run_sweep`] asserts this before spawning workers,
    /// so a NaN knob fails fast with a typed message instead of
    /// panicking mid-sweep inside a worker thread.
    pub fn validate(&self) -> Result<(), SweepError> {
        if self.difficulties.is_empty() {
            return Err(SweepError::NoEnvironments);
        }
        for (index, d) in self.difficulties.iter().enumerate() {
            for (knob, value) in [
                ("obstacle_density", d.obstacle_density),
                ("obstacle_spread", d.obstacle_spread),
                ("goal_distance", d.goal_distance),
            ] {
                if !value.is_finite() {
                    return Err(SweepError::NonFiniteKnob { index, knob, value });
                }
            }
        }
        Ok(())
    }
}

/// One mission pair (baseline + RoboRun) of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepRow {
    /// The environment's difficulty configuration.
    pub difficulty: DifficultyConfig,
    /// Metrics of the spatial-oblivious run.
    pub oblivious: MissionMetrics,
    /// Metrics of the spatial-aware run.
    pub aware: MissionMetrics,
}

/// Mean flight time per level of one difficulty knob, for both designs
/// (one Fig. 8 panel).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityRow {
    /// The knob value (density, spread in metres, or goal distance in
    /// metres).
    pub knob_value: f64,
    /// Mean flight time of the oblivious design at this knob value (s).
    pub oblivious_time: f64,
    /// Mean flight time of RoboRun at this knob value (s).
    pub aware_time: f64,
}

/// Full results of a sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResults {
    rows: Vec<SweepRow>,
}

impl SweepResults {
    /// The per-environment rows.
    pub fn rows(&self) -> &[SweepRow] {
        &self.rows
    }

    /// Aggregate metrics of the oblivious design over all environments.
    pub fn oblivious_aggregate(&self) -> AggregateMetrics {
        let mut agg = AggregateMetrics::new(RuntimeMode::SpatialOblivious);
        for row in &self.rows {
            agg.push(&row.oblivious);
        }
        agg
    }

    /// Aggregate metrics of RoboRun over all environments.
    pub fn aware_aggregate(&self) -> AggregateMetrics {
        let mut agg = AggregateMetrics::new(RuntimeMode::SpatialAware);
        for row in &self.rows {
            agg.push(&row.aware);
        }
        agg
    }

    /// The Fig. 7 headline improvement factors.
    pub fn improvements(&self) -> ImprovementFactors {
        ImprovementFactors::from_aggregates(&self.oblivious_aggregate(), &self.aware_aggregate())
    }

    /// Sensitivity of flight time to one knob (Fig. 8b/c/d): rows grouped
    /// by the knob's distinct values, averaged over the other knobs.
    pub fn sensitivity<F>(&self, knob: F) -> Vec<SensitivityRow>
    where
        F: Fn(&DifficultyConfig) -> f64,
    {
        // `total_cmp` gives the same order as `partial_cmp` on the finite
        // values validation admits, and stays total (no panic) even if an
        // unvalidated caller sneaks a NaN in.
        let mut values: Vec<f64> = self.rows.iter().map(|r| knob(&r.difficulty)).collect();
        values.sort_by(f64::total_cmp);
        values.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        values
            .into_iter()
            .map(|value| {
                let matching: Vec<&SweepRow> = self
                    .rows
                    .iter()
                    .filter(|r| (knob(&r.difficulty) - value).abs() < 1e-9)
                    .collect();
                let mean = |f: &dyn Fn(&SweepRow) -> f64| {
                    matching.iter().map(|r| f(r)).sum::<f64>() / matching.len().max(1) as f64
                };
                SensitivityRow {
                    knob_value: value,
                    oblivious_time: mean(&|r| r.oblivious.mission_time),
                    aware_time: mean(&|r| r.aware.mission_time),
                }
            })
            .collect()
    }

    /// Worst-case flight-time ratio (highest ÷ lowest knob value) for each
    /// design — the numbers the paper quotes per knob (e.g. 1.5X vs 1.1X
    /// for density).
    pub fn sensitivity_ratio<F>(&self, knob: F) -> (f64, f64)
    where
        F: Fn(&DifficultyConfig) -> f64,
    {
        let rows = self.sensitivity(knob);
        if rows.len() < 2 {
            return (1.0, 1.0);
        }
        let first = &rows[0];
        let last = &rows[rows.len() - 1];
        (
            last.aware_time / first.aware_time.max(1e-9),
            last.oblivious_time / first.oblivious_time.max(1e-9),
        )
    }
}

/// Computes one row of the sweep: environment `i`, both designs.
///
/// Each row owns its seed (`config.seed + i`), so rows are independent of
/// each other and of the order they are computed in.
fn run_sweep_row(config: &SweepConfig, i: usize) -> SweepRow {
    let difficulty = config.difficulties[i];
    let env = EnvironmentGenerator::new(difficulty).generate(config.seed + i as u64);
    let mut aware_cfg = config.aware.clone();
    aware_cfg.seed = config.seed + i as u64;
    let mut oblivious_cfg = config.oblivious.clone();
    oblivious_cfg.seed = config.seed + i as u64;
    let aware = MissionRunner::new(aware_cfg).run(&env);
    let oblivious = MissionRunner::new(oblivious_cfg).run(&env);
    SweepRow {
        difficulty,
        oblivious: oblivious.metrics,
        aware: aware.metrics,
    }
}

/// Runs the sweep: every difficulty configuration, both designs.
///
/// Environments are evaluated in parallel on a scoped worker pool, one
/// worker per host core (rows own their seeds, so the result is
/// bit-identical to a serial loop and rows stay in configuration order).
///
/// # Panics
///
/// Panics up front when [`SweepConfig::validate`] rejects the
/// configuration (e.g. a NaN difficulty knob) — before any worker is
/// spawned, with the typed error's message.
pub fn run_sweep(config: &SweepConfig) -> SweepResults {
    if let Err(err) = config.validate() {
        panic!("invalid sweep config: {err}");
    }
    SweepResults {
        rows: pooled_rows(config.difficulties.len(), None, |i| {
            run_sweep_row(config, i)
        }),
    }
}

/// The scoped worker pool every sweep runs on: computes `row(i)` for
/// `i in 0..n` on up to `threads` workers (defaulting to the machine's
/// available parallelism), returning results in index order. Rows own
/// their seeds, so the output is identical to a serial loop whatever the
/// scheduling. With one worker (or one row) the pool degenerates to the
/// plain serial loop.
///
/// # Panics
///
/// A panicking row closure no longer tears the pool down through a
/// scoped-thread re-panic (which would replace the original payload with
/// a generic "a scoped thread panicked" and lose the row index): each
/// row runs under `catch_unwind`, the **first** captured panic stops
/// further dispatch, the surviving workers drain, and the panic is then
/// resumed on the calling thread with the failing row index attached to
/// the original message.
fn pooled_rows<R: Send>(
    n: usize,
    threads: Option<usize>,
    row: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    let threads = threads
        .unwrap_or_else(roborun_trace::host_cores)
        .clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(row).collect();
    }

    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // The first row panic, as (row index, payload). Workers that hit a
    // panic record it here (first writer wins) and stop dispatch by
    // exhausting the index counter; the slot mutexes are never poisoned
    // because the row closure runs outside any lock.
    let failure: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // `AssertUnwindSafe` is sound here: a row that panicked
                // never writes its slot, and the pool abandons every
                // other slot by panicking below, so no torn state is
                // ever observed.
                match catch_unwind(AssertUnwindSafe(|| row(i))) {
                    Ok(computed) => {
                        *slots[i].lock().expect("sweep row lock poisoned") = Some(computed);
                    }
                    Err(payload) => {
                        let mut failure = failure.lock().expect("sweep failure lock poisoned");
                        if failure.is_none() {
                            *failure = Some((i, payload));
                        }
                        // Exhaust the counter so idle workers stop
                        // picking up new rows (in-flight rows drain).
                        next.fetch_max(n, Ordering::Relaxed);
                        break;
                    }
                }
            });
        }
    });
    if let Some((index, payload)) = failure.into_inner().expect("sweep failure lock poisoned") {
        let detail = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string());
        panic!("sweep row {index} panicked: {detail}");
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sweep row lock poisoned")
                .expect("every sweep row was computed")
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The dynamic (moving-obstacle) sweep
// ---------------------------------------------------------------------------

/// Configuration of a moving-obstacle sweep: scenario families × seeds,
/// both designs.
#[derive(Debug, Clone)]
pub struct DynamicSweepConfig {
    /// The `(family, seed)` cases to evaluate.
    pub cases: Vec<(DynamicScenario, u64)>,
    /// Mission configuration template for the spatial-aware runs.
    pub aware: MissionConfig,
    /// Mission configuration template for the spatial-oblivious runs.
    pub oblivious: MissionConfig,
}

impl DynamicSweepConfig {
    /// The standard quick dynamic sweep: every scenario family once at
    /// `seed`, short mission caps, voxel decay enabled on both designs
    /// (vacated cells must free up for a moving world to be navigable).
    pub fn quick(seed: u64) -> Self {
        let mut aware = MissionConfig::new(RuntimeMode::SpatialAware);
        aware.max_decisions = 600;
        aware.max_mission_time = 1_500.0;
        aware.voxel_decay = Some(2);
        let mut oblivious = MissionConfig::new(RuntimeMode::SpatialOblivious);
        oblivious.max_decisions = 1_500;
        oblivious.max_mission_time = 3_000.0;
        oblivious.voxel_decay = Some(2);
        DynamicSweepConfig {
            cases: DynamicScenario::ALL.iter().map(|&s| (s, seed)).collect(),
            aware,
            oblivious,
        }
    }
}

/// One case of the dynamic sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DynamicSweepRow {
    /// The scenario family.
    pub scenario: DynamicScenario,
    /// The seed that generated the environment and its actors.
    pub seed: u64,
    /// Metrics of the spatial-oblivious run.
    pub oblivious: MissionMetrics,
    /// Metrics of the spatial-aware run.
    pub aware: MissionMetrics,
}

fn run_dynamic_sweep_row(config: &DynamicSweepConfig, i: usize) -> DynamicSweepRow {
    let (scenario, seed) = config.cases[i];
    let (env, world) = scenario.world(seed);
    let mut aware_cfg = config.aware.clone();
    aware_cfg.seed = seed.wrapping_add(i as u64);
    let mut oblivious_cfg = config.oblivious.clone();
    oblivious_cfg.seed = seed.wrapping_add(i as u64);
    let aware = MissionRunner::new(aware_cfg).run_dynamic(&env, &world);
    let oblivious = MissionRunner::new(oblivious_cfg).run_dynamic(&env, &world);
    DynamicSweepRow {
        scenario,
        seed,
        oblivious: oblivious.metrics,
        aware: aware.metrics,
    }
}

/// Runs the moving-obstacle sweep: every `(family, seed)` case, both
/// designs, on the same scoped worker pool as [`run_sweep`] (rows own
/// their seeds, so results stay in case order).
pub fn run_dynamic_sweep(config: &DynamicSweepConfig) -> Vec<DynamicSweepRow> {
    pooled_rows(config.cases.len(), None, |i| {
        run_dynamic_sweep_row(config, i)
    })
}

// ---------------------------------------------------------------------------
// The fault sweep (robustness evaluation)
// ---------------------------------------------------------------------------

/// Configuration of the fault sweep: fault scenario families × seeds,
/// each run twice with the **same** spatial-aware design — once
/// fault-oblivious (degradation disarmed) and once degradation-aware —
/// so the only variable is the graceful-degradation runtime itself.
#[derive(Debug, Clone)]
pub struct FaultSweepConfig {
    /// The `(family, seed)` cases to evaluate.
    pub cases: Vec<(FaultScenario, u64)>,
    /// Mission template for the fault-oblivious runs (degradation off).
    pub baseline: MissionConfig,
    /// Mission template for the degradation-aware runs (degradation on).
    pub aware: MissionConfig,
}

impl FaultSweepConfig {
    /// The standard quick fault sweep: every fault family once at `seed`,
    /// short mission caps, both runs spatial-aware, degradation armed on
    /// the aware template only. Voxel decay is on for both runs so the
    /// phantom voxels injected by noisy sensor bursts can be carved back
    /// out by later clean evidence instead of permanently poisoning the
    /// map for both designs alike.
    pub fn quick(seed: u64) -> Self {
        let mut baseline = MissionConfig::new(RuntimeMode::SpatialAware);
        baseline.max_decisions = 600;
        baseline.max_mission_time = 1_500.0;
        baseline.voxel_decay = Some(2);
        let mut aware = baseline.clone();
        aware.degradation.enabled = true;
        FaultSweepConfig {
            cases: FaultScenario::ALL.iter().map(|&s| (s, seed)).collect(),
            baseline,
            aware,
        }
    }
}

/// One case of the fault sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepRow {
    /// The fault scenario family.
    pub scenario: FaultScenario,
    /// The seed that generated the environment and the fault plan.
    pub seed: u64,
    /// Metrics of the fault-oblivious run (degradation disarmed).
    pub baseline: MissionMetrics,
    /// Metrics of the degradation-aware run.
    pub degraded: MissionMetrics,
}

fn run_fault_sweep_row(config: &FaultSweepConfig, i: usize) -> FaultSweepRow {
    let (scenario, seed) = config.cases[i];
    let env = scenario.environment(seed);
    let plan = scenario.fault_plan(seed);
    let run = |template: &MissionConfig| {
        let mut cfg = template.clone();
        cfg.seed = seed.wrapping_add(i as u64);
        cfg.fault_plan = plan.clone();
        if scenario.uses_node_pipeline() {
            let pipeline = NodePipeline::new(NodePipelineConfig {
                mission: cfg,
                ..NodePipelineConfig::new(template.mode)
            });
            pipeline.run(&env).mission.metrics
        } else {
            MissionRunner::new(cfg).run(&env).metrics
        }
    };
    FaultSweepRow {
        scenario,
        seed,
        baseline: run(&config.baseline),
        degraded: run(&config.aware),
    }
}

/// Runs the fault sweep: every `(family, seed)` case, fault-oblivious
/// and degradation-aware, on the shared worker pool (rows own their
/// seeds, so results stay in case order).
pub fn run_fault_sweep(config: &FaultSweepConfig) -> Vec<FaultSweepRow> {
    pooled_rows(config.cases.len(), None, |i| run_fault_sweep_row(config, i))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep() -> SweepResults {
        // Two environments only (spanning both density and spread levels),
        // short missions, to keep the test quick.
        let mut config = SweepConfig::quick(11);
        config.difficulties = vec![config.difficulties[0], config.difficulties[3]];
        config.aware.max_decisions = 600;
        config.oblivious.max_decisions = 1_500;
        run_sweep(&config)
    }

    #[test]
    fn parallel_sweep_matches_serial_reference() {
        let mut config = SweepConfig::quick(23);
        config.difficulties.truncate(3);
        config.aware.max_decisions = 400;
        config.oblivious.max_decisions = 1_000;
        // Three workers against one, whatever the host's core count.
        let row = |i| run_sweep_row(&config, i);
        let parallel = pooled_rows(config.difficulties.len(), Some(3), row);
        let serial = pooled_rows(config.difficulties.len(), Some(1), row);
        assert_eq!(parallel.len(), 3);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn sweep_produces_one_row_per_environment() {
        let results = tiny_sweep();
        assert_eq!(results.rows().len(), 2);
        for row in results.rows() {
            assert_eq!(row.aware.mode, RuntimeMode::SpatialAware);
            assert_eq!(row.oblivious.mode, RuntimeMode::SpatialOblivious);
            assert!(row.aware.decisions > 0);
            assert!(row.oblivious.decisions > 0);
        }
    }

    #[test]
    fn aggregates_and_improvements_have_paper_direction() {
        let results = tiny_sweep();
        let aware = results.aware_aggregate();
        let oblivious = results.oblivious_aggregate();
        assert_eq!(aware.count(), 2);
        assert_eq!(oblivious.count(), 2);
        let improvements = results.improvements();
        assert!(
            improvements.velocity_gain > 1.5,
            "velocity gain {}",
            improvements.velocity_gain
        );
        assert!(
            improvements.mission_time_gain > 1.5,
            "mission time gain {}",
            improvements.mission_time_gain
        );
        assert!(improvements.energy_gain > 1.0);
        assert!(improvements.cpu_reduction > 0.0);
    }

    #[test]
    fn sensitivity_groups_by_knob_value() {
        let results = tiny_sweep();
        let density = results.sensitivity(|d| d.obstacle_density);
        assert_eq!(density.len(), 2);
        assert!(density[0].knob_value < density[1].knob_value);
        for row in &density {
            assert!(row.oblivious_time > 0.0);
            assert!(row.aware_time > 0.0);
        }
        let (aware_ratio, oblivious_ratio) = results.sensitivity_ratio(|d| d.obstacle_density);
        assert!(aware_ratio > 0.0);
        assert!(oblivious_ratio > 0.0);
        // Goal distance has a single level in the quick sweep → ratio 1.
        let (g_aware, g_obl) = results.sensitivity_ratio(|d| d.goal_distance);
        assert_eq!(g_aware, 1.0);
        assert_eq!(g_obl, 1.0);
    }

    #[test]
    fn quick_config_is_smaller_than_full_matrix() {
        assert_eq!(SweepConfig::default().difficulties.len(), 27);
        assert!(SweepConfig::quick(1).difficulties.len() < 27);
    }

    #[test]
    fn nan_knob_is_rejected_up_front() {
        let mut config = SweepConfig::quick(1);
        assert!(config.validate().is_ok());
        config.difficulties[1].obstacle_spread = f64::NAN;
        let err = config.validate().unwrap_err();
        match err {
            SweepError::NonFiniteKnob { index, knob, value } => {
                assert_eq!(index, 1);
                assert_eq!(knob, "obstacle_spread");
                assert!(value.is_nan());
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("obstacle_spread"));
        // An empty matrix is also an error rather than a silent no-op.
        config.difficulties.clear();
        assert!(matches!(config.validate(), Err(SweepError::NoEnvironments)));
    }

    #[test]
    #[should_panic(expected = "invalid sweep config")]
    fn run_sweep_rejects_nan_knobs_before_spawning_workers() {
        let mut config = SweepConfig::quick(1);
        config.difficulties[0].goal_distance = f64::INFINITY;
        run_sweep(&config);
    }

    #[test]
    fn pooled_row_panic_reports_the_failing_index() {
        // A deliberately panicking row must surface its own message and
        // row index, not the generic scoped-thread re-panic payload.
        let caught = std::panic::catch_unwind(|| {
            pooled_rows(8, Some(4), |i| {
                if i == 5 {
                    panic!("boom at row {i}");
                }
                i * 2
            })
        })
        .expect_err("the pool must propagate the row panic");
        let message = caught
            .downcast_ref::<String>()
            .cloned()
            .expect("pool panics carry a formatted message");
        assert!(message.contains("row 5"), "message: {message}");
        assert!(message.contains("boom"), "message: {message}");
        // And a panic-free pool still returns rows in index order.
        assert_eq!(pooled_rows(4, Some(2), |i| i + 10), vec![10, 11, 12, 13]);
    }
}
