//! Closed-loop mission execution, metrics and the paper's evaluation
//! harness building blocks.
//!
//! This crate wires every substrate together into the end-to-end navigation
//! loop the paper evaluates:
//!
//! ```text
//! sensors (camera rig) ──► point cloud ──► occupancy map ──► planner map
//!        ▲                     │                 │                │
//!        │                 profilers ◄───────────┴──── trajectory ┘
//!        │                     │
//!   drone dynamics ◄── control ◄── governor (deadline + knobs)
//! ```
//!
//! * [`MissionConfig`] / [`MissionRunner`] — run one mission in either
//!   runtime mode ([`roborun_core::RuntimeMode`]) and produce a
//!   [`MissionResult`] (metrics + full per-decision telemetry), with
//!   optional per-knob ablation and sensor-fault injection.
//! * [`cycle`] — the shared decision-cycle core both drivers execute
//!   (stage policies, epoch advance).
//! * [`node_pipeline`] — the same closed loop executed as a
//!   `roborun-middleware` node graph, with the communication term measured
//!   from real per-topic traffic instead of modeled.
//! * [`scenarios`] — the paper's two motivating missions (package delivery,
//!   search and rescue) plus the small environments used by Figures 3/4.
//! * [`sweep`] — the 27-environment evaluation of Section V with the
//!   Fig. 7 aggregate metrics and the Fig. 8 sensitivity groupings, plus
//!   the fault sweep of the robustness evaluation (deterministic fault
//!   campaigns against the fault-oblivious and degradation-aware
//!   configurations of the same design).
//! * [`breakdown`] — Fig. 11 latency-breakdown series and zone statistics.
//! * [`report`] — plain-text tables and CSV series for the experiment
//!   harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breakdown;
pub mod cycle;
pub mod metrics;
pub mod node_pipeline;
pub mod report;
pub mod runner;
pub mod scenarios;
pub mod sweep;

pub use breakdown::{ZoneBreakdown, ZoneStats};
pub use cycle::DegradationStats;
pub use metrics::{AggregateMetrics, MissionMetrics};
pub use node_pipeline::{NodePipeline, NodePipelineConfig, NodePipelineResult};
pub use runner::{DegradationConfig, MissionConfig, MissionResult, MissionRunner};
pub use scenarios::{DynamicDifficulty, DynamicScenario, FaultScenario, Scenario};
pub use sweep::{
    DynamicSweepConfig, DynamicSweepRow, FaultSweepConfig, FaultSweepRow, SensitivityRow,
    SweepConfig, SweepError, SweepResults,
};
