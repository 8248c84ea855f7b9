//! Per-decision telemetry: the raw material of the paper's Figures 5, 10
//! and 11.

use crate::{KnobSettings, RuntimeMode};
use roborun_geom::{percentile, LogHistogram, Vec3};
use roborun_sim::LatencyBreakdown;
use serde::{Deserialize, Serialize};

/// Typed degradation state of one decision: which rung of the
/// graceful-degradation ladder (if any) the runtime stood on when the
/// decision was taken. `Healthy` is the default and the only state a
/// fault-free mission ever records; the remaining states are ordered from
/// mildest to most severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Degradation {
    /// No degradation: the decision ran on fresh data with a working
    /// planner.
    #[default]
    Healthy,
    /// Perception data was stale (the map missed one or more integration
    /// epochs) and the safe-velocity law was derated by the data's age.
    StalePerception,
    /// The planning watchdog fired and a bounded retry recovered a plan
    /// within the latency budget.
    RetriedPlan,
    /// Planning failed outright; the last valid trajectory was reused
    /// because it was still clear.
    ReusedTrajectory,
    /// No usable trajectory: the vehicle braked and held position for the
    /// epoch.
    Hover,
    /// The ladder bottomed out: the vehicle flew a wedge retreat and the
    /// mission ended in a recorded safe-stop.
    SafeStop,
}

impl Degradation {
    /// `true` for any state other than [`Degradation::Healthy`].
    pub fn is_degraded(&self) -> bool {
        *self != Degradation::Healthy
    }
}

/// Everything recorded about one navigation decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Mission time at the start of the decision (seconds).
    pub time: f64,
    /// MAV position at the decision (metres).
    pub position: Vec3,
    /// Commanded velocity for the following interval (m/s).
    pub commanded_velocity: f64,
    /// Profiled visibility (metres).
    pub visibility: f64,
    /// Decision deadline (time budget) the governor computed (seconds).
    pub deadline: f64,
    /// Knob assignment enforced for this decision.
    pub knobs: KnobSettings,
    /// Simulated latency breakdown of the decision.
    pub breakdown: LatencyBreakdown,
    /// CPU utilisation over the decision interval (`[0, 1]`).
    pub cpu_utilization: f64,
    /// Zone label (`'A'`, `'B'`, `'C'`) when the mission layout is known.
    pub zone: Option<char>,
    /// Degradation-ladder rung the runtime stood on for this decision
    /// ([`Degradation::Healthy`] on a fault-free mission).
    pub degradation: Degradation,
}

impl DecisionRecord {
    /// End-to-end latency of the decision (seconds): every stage's cost.
    pub fn latency(&self) -> f64 {
        self.breakdown.total()
    }

    /// `true` when the decision met its deadline.
    pub fn met_deadline(&self) -> bool {
        self.latency() <= self.deadline + 1e-9
    }
}

/// The full per-decision log of one mission.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MissionTelemetry {
    /// Runtime mode the mission ran with.
    pub mode: Option<RuntimeMode>,
    records: Vec<DecisionRecord>,
}

impl MissionTelemetry {
    /// Creates an empty log for the given mode.
    pub fn new(mode: RuntimeMode) -> Self {
        MissionTelemetry {
            mode: Some(mode),
            records: Vec::new(),
        }
    }

    /// Appends a decision record.
    pub fn push(&mut self, record: DecisionRecord) {
        self.records.push(record);
    }

    /// The recorded decisions, in mission order.
    pub fn records(&self) -> &[DecisionRecord] {
        &self.records
    }

    /// Number of decisions recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// End-to-end latencies of every decision (seconds).
    pub fn latencies(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.latency()).collect()
    }

    /// Median decision latency, or `None` when empty.
    pub fn median_latency(&self) -> Option<f64> {
        percentile(&self.latencies(), 0.5)
    }

    /// End-to-end decision latencies on the shared fixed-bucket
    /// log-scale lattice — the same histogram the tracer's per-span-kind
    /// summaries use, so mission reports and trace summaries agree on
    /// bucket boundaries (and merge across missions).
    pub fn latency_histogram(&self) -> LogHistogram {
        self.records.iter().map(|r| r.latency()).collect()
    }

    /// 95th-percentile decision latency (seconds) from the shared
    /// histogram, or `None` when empty. Bucketed: the relative error is
    /// bounded by the lattice resolution (~7.5% median), unlike the
    /// exact [`MissionTelemetry::median_latency`].
    pub fn p95_latency(&self) -> Option<f64> {
        self.latency_histogram().quantile(0.95)
    }

    /// 99th-percentile decision latency (seconds) from the shared
    /// histogram, or `None` when empty.
    pub fn p99_latency(&self) -> Option<f64> {
        self.latency_histogram().quantile(0.99)
    }

    /// Exact worst-case decision latency (seconds), or `None` when empty.
    pub fn max_latency(&self) -> Option<f64> {
        self.latency_histogram().max()
    }

    /// Mean CPU utilisation over the mission.
    pub fn mean_cpu_utilization(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.cpu_utilization).sum::<f64>() / self.records.len() as f64
    }

    /// Mean commanded velocity over the mission (m/s).
    pub fn mean_velocity(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records
            .iter()
            .map(|r| r.commanded_velocity)
            .sum::<f64>()
            / self.records.len() as f64
    }

    /// Fraction of decisions that met their deadline.
    pub fn deadline_hit_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        self.records.iter().filter(|r| r.met_deadline()).count() as f64 / self.records.len() as f64
    }

    /// Records belonging to a zone (by label).
    pub fn records_in_zone(&self, zone: char) -> Vec<&DecisionRecord> {
        self.records
            .iter()
            .filter(|r| r.zone == Some(zone))
            .collect()
    }

    /// Latency spread (max − min) within a zone, the quantity the paper
    /// uses to show RoboRun matches environment heterogeneity (Section V-C).
    pub fn latency_spread_in_zone(&self, zone: char) -> f64 {
        let latencies: Vec<f64> = self
            .records_in_zone(zone)
            .iter()
            .map(|r| r.latency())
            .collect();
        match (
            latencies.iter().cloned().fold(f64::INFINITY, f64::min),
            latencies.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        ) {
            (min, max) if min.is_finite() && max.is_finite() => max - min,
            _ => 0.0,
        }
    }

    /// Mean normalised latency breakdown over the mission (Fig. 11b): the
    /// average share each stage contributes to the end-to-end latency.
    pub fn mean_breakdown_shares(&self) -> Vec<(&'static str, f64)> {
        if self.records.is_empty() {
            return Vec::new();
        }
        let mut acc: Vec<(&'static str, f64)> = self.records[0]
            .breakdown
            .normalized()
            .iter()
            .map(|&(name, _)| (name, 0.0))
            .collect();
        for r in &self.records {
            for (slot, (_, share)) in acc.iter_mut().zip(r.breakdown.normalized()) {
                slot.1 += share;
            }
        }
        for slot in &mut acc {
            slot.1 /= self.records.len() as f64;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(time: f64, latency: f64, deadline: f64, zone: char) -> DecisionRecord {
        DecisionRecord {
            time,
            position: Vec3::new(time * 2.0, 0.0, 5.0),
            commanded_velocity: 2.0,
            visibility: 20.0,
            deadline,
            knobs: KnobSettings::static_baseline(),
            breakdown: LatencyBreakdown {
                point_cloud: 0.21,
                perception: latency * 0.5,
                perception_to_planning: latency * 0.1,
                planning: latency * 0.3,
                control: 0.01,
                communication: latency * 0.1,
                runtime_overhead: 0.05,
            },
            cpu_utilization: 0.5,
            zone: Some(zone),
            degradation: Degradation::Healthy,
        }
    }

    #[test]
    fn empty_telemetry() {
        let t = MissionTelemetry::new(RuntimeMode::SpatialAware);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.median_latency().is_none());
        assert_eq!(t.mean_cpu_utilization(), 0.0);
        assert_eq!(t.mean_velocity(), 0.0);
        assert_eq!(t.deadline_hit_rate(), 1.0);
        assert!(t.mean_breakdown_shares().is_empty());
        assert_eq!(t.latency_spread_in_zone('A'), 0.0);
    }

    #[test]
    fn aggregates_over_records() {
        let mut t = MissionTelemetry::new(RuntimeMode::SpatialAware);
        t.push(record(0.0, 1.0, 2.0, 'A'));
        t.push(record(5.0, 0.4, 2.0, 'B'));
        t.push(record(10.0, 3.0, 2.0, 'C'));
        assert_eq!(t.len(), 3);
        assert_eq!(t.records().len(), 3);
        let median = t.median_latency().unwrap();
        assert!(median > 0.4 && median < 3.5);
        assert!((t.mean_cpu_utilization() - 0.5).abs() < 1e-12);
        assert!((t.mean_velocity() - 2.0).abs() < 1e-12);
        // Two of three met the 2 s deadline (latencies ≈1.27, 0.73, 3.07).
        assert!((t.deadline_hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(t.records_in_zone('B').len(), 1);
        assert_eq!(t.records_in_zone('Z').len(), 0);
    }

    #[test]
    fn met_deadline_and_latency() {
        let r = record(0.0, 1.0, 2.0, 'A');
        assert!(r.met_deadline());
        assert!(r.latency() > 1.0);
        let late = record(0.0, 5.0, 1.0, 'A');
        assert!(!late.met_deadline());
    }

    #[test]
    fn breakdown_shares_sum_to_one() {
        let mut t = MissionTelemetry::new(RuntimeMode::SpatialOblivious);
        for i in 0..5 {
            t.push(record(i as f64, 1.0 + i as f64 * 0.2, 3.0, 'A'));
        }
        let shares = t.mean_breakdown_shares();
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(shares.iter().any(|(name, _)| *name == "octomap"));
    }

    #[test]
    fn zone_spread_reflects_heterogeneity() {
        let mut t = MissionTelemetry::new(RuntimeMode::SpatialAware);
        // Zone A: heterogeneous latencies; zone B: constant.
        t.push(record(0.0, 0.5, 5.0, 'A'));
        t.push(record(1.0, 4.0, 5.0, 'A'));
        t.push(record(2.0, 1.0, 5.0, 'B'));
        t.push(record(3.0, 1.0, 5.0, 'B'));
        assert!(t.latency_spread_in_zone('A') > t.latency_spread_in_zone('B'));
        assert!(t.latency_spread_in_zone('B') < 1e-9);
    }
}
