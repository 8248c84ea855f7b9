//! Mission-level metrics (the paper's Fig. 7 quantities).

use roborun_core::RuntimeMode;
use roborun_geom::RunningStats;
use serde::{Deserialize, Serialize};

/// Metrics of a single mission.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MissionMetrics {
    /// Runtime mode the mission ran with.
    pub mode: RuntimeMode,
    /// Total mission (flight) time in seconds.
    pub mission_time: f64,
    /// Total flight energy in kilojoules.
    pub energy_kj: f64,
    /// Average flight velocity (distance travelled / mission time), m/s.
    pub mean_velocity: f64,
    /// Mean CPU utilisation per decision, `[0, 1]`.
    pub mean_cpu_utilization: f64,
    /// Median end-to-end decision latency (seconds).
    pub median_latency: f64,
    /// 95th-percentile end-to-end decision latency (seconds), from the
    /// shared fixed-bucket log-scale histogram
    /// ([`roborun_geom::LogHistogram`]) — bucketed, unlike the exact
    /// median above.
    pub p95_latency: f64,
    /// 99th-percentile end-to-end decision latency (seconds), from the
    /// same shared histogram.
    pub p99_latency: f64,
    /// Exact worst-case end-to-end decision latency (seconds).
    pub max_latency: f64,
    /// Number of navigation decisions taken.
    pub decisions: usize,
    /// Distance travelled (metres).
    pub distance_travelled: f64,
    /// `true` when the MAV reached the goal.
    pub reached_goal: bool,
    /// `true` when the MAV collided with an obstacle.
    pub collided: bool,
    /// Decisions on which a moving obstacle's predicted occupancy
    /// crossed the followed trajectory and forced a replan. Zero in
    /// static worlds.
    pub dynamic_replans: usize,
    /// Fault-channel activations injected by the armed
    /// [`FaultPlan`](roborun_faults::FaultPlan) over the mission (one per
    /// active channel per decision, plus bus fault events on the node
    /// pipeline). Zero on healthy missions.
    pub faults_injected: usize,
    /// Decisions on which the planning watchdog fired (the modelled
    /// planning latency exceeded the watchdog budget).
    pub watchdog_fires: usize,
    /// Total bounded planning retries attempted after watchdog aborts.
    pub retries: usize,
    /// Decisions recorded with a non-`Healthy`
    /// [`Degradation`](roborun_core::Degradation) state.
    pub degraded_decisions: usize,
    /// 1 when the mission ended in a deliberate wedge-retreat safe-stop
    /// (the bottom of the degradation ladder), else 0.
    pub safe_stops: usize,
}

impl MissionMetrics {
    /// `true` when the mission both reached the goal and stayed collision
    /// free (the paper requires ≥80% of flights to be collision free).
    pub fn successful(&self) -> bool {
        self.reached_goal && !self.collided
    }
}

/// Aggregate of many missions of the same mode (e.g. the 27 environments).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AggregateMetrics {
    /// Runtime mode aggregated over.
    pub mode: Option<RuntimeMode>,
    mission_time: RunningStats,
    energy_kj: RunningStats,
    velocity: RunningStats,
    cpu: RunningStats,
    median_latency: RunningStats,
    p95_latency: RunningStats,
    p99_latency: RunningStats,
    max_latency: RunningStats,
    successes: usize,
    total: usize,
}

impl AggregateMetrics {
    /// Creates an empty aggregate for a mode.
    pub fn new(mode: RuntimeMode) -> Self {
        AggregateMetrics {
            mode: Some(mode),
            ..AggregateMetrics::default()
        }
    }

    /// Adds one mission's metrics.
    pub fn push(&mut self, m: &MissionMetrics) {
        self.mission_time.push(m.mission_time);
        self.energy_kj.push(m.energy_kj);
        self.velocity.push(m.mean_velocity);
        self.cpu.push(m.mean_cpu_utilization);
        self.median_latency.push(m.median_latency);
        self.p95_latency.push(m.p95_latency);
        self.p99_latency.push(m.p99_latency);
        self.max_latency.push(m.max_latency);
        if m.successful() {
            self.successes += 1;
        }
        self.total += 1;
    }

    /// Number of missions aggregated.
    pub fn count(&self) -> usize {
        self.total
    }

    /// Mean mission time (seconds).
    pub fn mean_mission_time(&self) -> f64 {
        self.mission_time.mean()
    }

    /// Mean flight energy (kJ).
    pub fn mean_energy_kj(&self) -> f64 {
        self.energy_kj.mean()
    }

    /// Mean of the per-mission average velocities (m/s).
    pub fn mean_velocity(&self) -> f64 {
        self.velocity.mean()
    }

    /// Mean CPU utilisation.
    pub fn mean_cpu_utilization(&self) -> f64 {
        self.cpu.mean()
    }

    /// Mean of the per-mission median latencies (seconds).
    pub fn mean_median_latency(&self) -> f64 {
        self.median_latency.mean()
    }

    /// Mean of the per-mission p95 latencies (seconds).
    pub fn mean_p95_latency(&self) -> f64 {
        self.p95_latency.mean()
    }

    /// Mean of the per-mission p99 latencies (seconds).
    pub fn mean_p99_latency(&self) -> f64 {
        self.p99_latency.mean()
    }

    /// Mean of the per-mission worst-case latencies (seconds).
    pub fn mean_max_latency(&self) -> f64 {
        self.max_latency.mean()
    }

    /// Fraction of missions that reached the goal without colliding.
    pub fn success_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.successes as f64 / self.total as f64
        }
    }
}

/// Improvement factors of RoboRun over the baseline (the Fig. 7 headline
/// numbers: 5X velocity, 4.5X mission time, 4X energy, 36% CPU reduction).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImprovementFactors {
    /// Baseline velocity divided into RoboRun velocity (higher is better).
    pub velocity_gain: f64,
    /// Baseline mission time divided by RoboRun mission time.
    pub mission_time_gain: f64,
    /// Baseline energy divided by RoboRun energy.
    pub energy_gain: f64,
    /// Relative CPU-utilisation reduction `(baseline − roborun) / baseline`.
    pub cpu_reduction: f64,
}

impl ImprovementFactors {
    /// Computes the improvement factors from two aggregates.
    pub fn from_aggregates(baseline: &AggregateMetrics, roborun: &AggregateMetrics) -> Self {
        let safe_div = |a: f64, b: f64| if b.abs() < 1e-12 { 0.0 } else { a / b };
        ImprovementFactors {
            velocity_gain: safe_div(roborun.mean_velocity(), baseline.mean_velocity()),
            mission_time_gain: safe_div(baseline.mean_mission_time(), roborun.mean_mission_time()),
            energy_gain: safe_div(baseline.mean_energy_kj(), roborun.mean_energy_kj()),
            cpu_reduction: safe_div(
                baseline.mean_cpu_utilization() - roborun.mean_cpu_utilization(),
                baseline.mean_cpu_utilization(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(mode: RuntimeMode, time: f64, velocity: f64, cpu: f64) -> MissionMetrics {
        MissionMetrics {
            mode,
            mission_time: time,
            energy_kj: time * 0.48,
            mean_velocity: velocity,
            mean_cpu_utilization: cpu,
            median_latency: 1.0,
            p95_latency: 1.4,
            p99_latency: 1.8,
            max_latency: 2.0,
            decisions: 100,
            distance_travelled: time * velocity,
            reached_goal: true,
            collided: false,
            dynamic_replans: 0,
            faults_injected: 0,
            watchdog_fires: 0,
            retries: 0,
            degraded_decisions: 0,
            safe_stops: 0,
        }
    }

    #[test]
    fn success_flag() {
        let good = metrics(RuntimeMode::SpatialAware, 400.0, 2.5, 0.5);
        assert!(good.successful());
        let crashed = MissionMetrics {
            collided: true,
            ..good
        };
        assert!(!crashed.successful());
        let lost = MissionMetrics {
            reached_goal: false,
            ..good
        };
        assert!(!lost.successful());
    }

    #[test]
    fn aggregate_means() {
        let mut agg = AggregateMetrics::new(RuntimeMode::SpatialAware);
        assert_eq!(agg.count(), 0);
        assert_eq!(agg.success_rate(), 0.0);
        agg.push(&metrics(RuntimeMode::SpatialAware, 400.0, 2.0, 0.5));
        agg.push(&metrics(RuntimeMode::SpatialAware, 600.0, 3.0, 0.7));
        assert_eq!(agg.count(), 2);
        assert!((agg.mean_mission_time() - 500.0).abs() < 1e-9);
        assert!((agg.mean_velocity() - 2.5).abs() < 1e-9);
        assert!((agg.mean_cpu_utilization() - 0.6).abs() < 1e-9);
        assert!((agg.success_rate() - 1.0).abs() < 1e-12);
        assert!(agg.mean_energy_kj() > 0.0);
        assert!((agg.mean_median_latency() - 1.0).abs() < 1e-12);
        assert!((agg.mean_p95_latency() - 1.4).abs() < 1e-12);
        assert!((agg.mean_p99_latency() - 1.8).abs() < 1e-12);
        assert!((agg.mean_max_latency() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn improvement_factors_reproduce_paper_directions() {
        let mut baseline = AggregateMetrics::new(RuntimeMode::SpatialOblivious);
        let mut roborun = AggregateMetrics::new(RuntimeMode::SpatialAware);
        // Paper-scale numbers: 2093 s vs 465 s, 0.4 vs 2.5 m/s, CPU −36%.
        baseline.push(&metrics(RuntimeMode::SpatialOblivious, 2093.0, 0.4, 0.85));
        roborun.push(&metrics(RuntimeMode::SpatialAware, 465.0, 2.5, 0.55));
        let f = ImprovementFactors::from_aggregates(&baseline, &roborun);
        assert!(f.velocity_gain > 4.0);
        assert!(f.mission_time_gain > 3.5);
        assert!(f.energy_gain > 3.5);
        assert!(f.cpu_reduction > 0.2);
    }

    #[test]
    fn improvement_factors_handle_zero_baseline() {
        let baseline = AggregateMetrics::new(RuntimeMode::SpatialOblivious);
        let roborun = AggregateMetrics::new(RuntimeMode::SpatialAware);
        let f = ImprovementFactors::from_aggregates(&baseline, &roborun);
        assert_eq!(f.velocity_gain, 0.0);
        assert_eq!(f.mission_time_gain, 0.0);
    }
}
