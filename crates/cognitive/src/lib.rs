//! Cognitive co-task modeling: what the freed-up CPU buys.
//!
//! The paper's System Utilization result (Section V-A) reports that RoboRun
//! "reduces CPU-utilization by 36% … freeing up CPU resources for
//! higher-level cognitive tasks, e.g., semantic labeling, and
//! gesture/action detection". This crate closes that loop: it models those
//! cognitive tasks as periodic frame-processing workloads
//! ([`CognitiveTask`]), replays a mission's per-decision CPU profile
//! through a headroom scheduler ([`HeadroomScheduler`]) and reports how
//! much of the desired cognitive throughput each navigation design can
//! sustain ([`CoTaskReport`], [`CoTaskComparison`]).
//!
//! # Example
//!
//! ```
//! use roborun_cognitive::{CognitiveTask, CpuInterval, HeadroomScheduler, SchedulerConfig};
//!
//! // A 100 s mission profile where navigation keeps the 4-core platform
//! // 40% busy on average.
//! let profile: Vec<CpuInterval> = (0..200)
//!     .map(|_| CpuInterval::new(0.5, 0.4).expect("valid interval"))
//!     .collect();
//! let scheduler = HeadroomScheduler::new(SchedulerConfig::default(), CognitiveTask::standard_mix());
//! let report = scheduler.run(&profile);
//! assert!(report.mean_attainment() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod scheduler;
pub mod task;

pub use metrics::{CoTaskComparison, CoTaskReport, TaskStats};
pub use scheduler::{CpuInterval, HeadroomScheduler, SchedulerConfig};
pub use task::CognitiveTask;

use roborun_core::MissionTelemetry;

/// Builds the per-decision CPU profile of a mission from its telemetry.
///
/// Each decision becomes one [`CpuInterval`] whose duration is the epoch
/// the mission runner actually simulated (`max(latency, min_epoch)`) and
/// whose utilization is the navigation pipeline's recorded CPU share.
pub fn intervals_from_telemetry(telemetry: &MissionTelemetry, min_epoch: f64) -> Vec<CpuInterval> {
    telemetry
        .records()
        .iter()
        .filter_map(|r| CpuInterval::new(r.latency().max(min_epoch), r.cpu_utilization).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use roborun_core::{DecisionRecord, Degradation, KnobSettings, RuntimeMode};
    use roborun_geom::Vec3;
    use roborun_sim::LatencyBreakdown;

    fn record(latency: f64, cpu: f64) -> DecisionRecord {
        DecisionRecord {
            time: 0.0,
            position: Vec3::new(0.0, 0.0, 5.0),
            commanded_velocity: 1.0,
            visibility: 10.0,
            deadline: 2.0,
            knobs: KnobSettings::static_baseline(),
            breakdown: LatencyBreakdown {
                point_cloud: latency,
                ..LatencyBreakdown::default()
            },
            cpu_utilization: cpu,
            zone: Some('B'),
            degradation: Degradation::Healthy,
        }
    }

    #[test]
    fn telemetry_converts_to_intervals() {
        let mut telemetry = MissionTelemetry::new(RuntimeMode::SpatialAware);
        telemetry.push(record(0.2, 0.3));
        telemetry.push(record(1.5, 0.8));
        let intervals = intervals_from_telemetry(&telemetry, 0.5);
        assert_eq!(intervals.len(), 2);
        // The first decision is clamped up to the minimum epoch.
        assert!((intervals[0].duration - 0.5).abs() < 1e-12);
        assert!((intervals[1].duration - 1.5).abs() < 1e-12);
        assert!((intervals[1].navigation_utilization - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_telemetry_yields_no_intervals() {
        let telemetry = MissionTelemetry::new(RuntimeMode::SpatialOblivious);
        assert!(intervals_from_telemetry(&telemetry, 0.5).is_empty());
    }
}
