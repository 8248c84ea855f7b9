//! RoboRun — a reproduction of *"RoboRun: A Robot Runtime to Exploit
//! Spatial Heterogeneity"* (DAC 2021) as a pure-Rust workspace.
//!
//! This facade crate re-exports every sub-crate of the workspace so
//! examples, integration tests and downstream users can depend on a single
//! crate:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`geom`] | `roborun-geom` | vectors, AABBs, rays, grids, voxel lattice, statistics |
//! | [`mod@env`] | `roborun-env` | procedural mission environments, zones, visibility, gaps |
//! | [`sim`] | `roborun-sim` | drone kinematics, sensors, energy/CPU/latency models |
//! | [`perception`] | `roborun-perception` | point clouds, occupancy map, export operators |
//! | [`planning`] | `roborun-planning` | RRT*, collision checking, path smoothing |
//! | [`control`] | `roborun-control` | PID, trajectory following |
//! | [`middleware`] | `roborun-middleware` | ROS-like pub/sub bus, nodes, QoS, bags |
//! | [`faults`] | `roborun-faults` | deterministic fault plans: sensor, planner, map and bus faults |
//! | [`dynamics`] | `roborun-dynamics` | moving-obstacle actors, dynamic worlds, predicted occupancy |
//! | [`core`] | `roborun-core` | **the RoboRun runtime**: profilers, governor, solver, safety |
//! | [`cognitive`] | `roborun-cognitive` | cognitive co-task model over the freed CPU headroom |
//! | [`mission`] | `roborun-mission` | closed-loop mission runner, node-graph pipeline, sweeps |
//! | [`trace`] | `roborun-trace` | zero-cost structured tracing, Perfetto export, span summaries |
//!
//! # Quickstart
//!
//! ```
//! use roborun::prelude::*;
//!
//! // A short package-delivery style environment.
//! let env = Scenario::PackageDelivery.short_environment(42);
//!
//! // Run it once under the RoboRun governor.
//! let config = MissionConfig {
//!     max_decisions: 400,
//!     ..MissionConfig::new(RuntimeMode::SpatialAware)
//! };
//! let result = MissionRunner::new(config).run(&env);
//! assert!(result.metrics.decisions > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use roborun_cognitive as cognitive;
pub use roborun_control as control;
pub use roborun_core as core;
pub use roborun_dynamics as dynamics;
pub use roborun_env as env;
pub use roborun_faults as faults;
pub use roborun_geom as geom;
pub use roborun_middleware as middleware;
pub use roborun_mission as mission;
pub use roborun_perception as perception;
pub use roborun_planning as planning;
pub use roborun_sim as sim;
pub use roborun_trace as trace;

/// The most commonly used types, importable in one line.
pub mod prelude {
    pub use roborun_cognitive::{
        CoTaskComparison, CoTaskReport, CognitiveTask, CpuInterval, HeadroomScheduler,
        SchedulerConfig,
    };
    pub use roborun_core::{
        Governor, GovernorConfig, KnobAblation, KnobRanges, KnobSettings, Policy, Profilers,
        RuntimeMode, SafetyReport, SpatialProfile, TimeBudgeter,
    };
    pub use roborun_dynamics::{Actor, DynamicWorld, MotionModel};
    pub use roborun_env::{DifficultyConfig, Environment, EnvironmentGenerator, Zone};
    pub use roborun_faults::FaultPlanConfig;
    pub use roborun_geom::{Aabb, Vec3};
    pub use roborun_middleware::{CommLatencyModel, GraphInfo, MessageBus, Node, QosProfile};
    pub use roborun_mission::sweep::{run_dynamic_sweep, run_sweep};
    pub use roborun_mission::{
        AggregateMetrics, DynamicScenario, DynamicSweepConfig, MissionConfig, MissionMetrics,
        MissionResult, MissionRunner, NodePipeline, NodePipelineConfig, NodePipelineResult,
        Scenario, SweepConfig, SweepResults,
    };
    pub use roborun_sim::{ComputeLatencyModel, DroneConfig, EnergyModel, StoppingModel};
}
