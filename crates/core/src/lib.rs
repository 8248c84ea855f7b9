//! RoboRun — the spatial-aware runtime (the paper's primary contribution).
//!
//! RoboRun sits in the runtime layer of the MAV's system stack (paper
//! Fig. 6) and continuously re-tunes the navigation pipeline's precision and
//! volume knobs so that each decision's latency fits the deadline the
//! physical space imposes. It is built from three components:
//!
//! * **Profilers** ([`Profilers`], [`SpatialProfile`]) — post-process the
//!   pipeline's data structures (point cloud, occupancy map, trajectory,
//!   sensor state) to extract the Table I variables: gaps between obstacles,
//!   closest obstacle / closest unknown, sensor and map volume, velocity,
//!   position and the upcoming trajectory.
//! * **Governor** ([`Governor`]) — computes the decision deadline with the
//!   time-budgeting algorithm (Eq. 1 + Algorithm 1, [`TimeBudgeter`]) and
//!   solves the constrained optimisation of Eq. 3 ([`KnobSolver`]) over the
//!   fitted per-stage latency models of Eq. 4 ([`PipelineLatencyModel`]) to
//!   produce a [`Policy`]: one precision/volume setting per pipeline stage.
//! * **Operators** — the knob assignments in the policy are enforced by the
//!   perception/planning crates (point-cloud down-sampling, OctoMap
//!   ray-trace step, map export pruning, planner volume monitor); the
//!   [`KnobSettings`] type is the contract between the governor and those
//!   operators.
//!
//! The spatial-oblivious baseline of the paper's evaluation is available as
//! [`RuntimeMode::SpatialOblivious`]: a static worst-case knob assignment
//! (Table II) with a worst-case deadline.
//!
//! # Example
//!
//! ```
//! use roborun_core::{Governor, GovernorConfig, SpatialProfile};
//!
//! let governor = Governor::new(GovernorConfig::default());
//! // A wide-open profile: far visibility, huge gaps, no obstacle nearby.
//! let open = SpatialProfile::open_space(2.0, 40.0);
//! let policy = governor.decide(&open);
//! // In open space the governor relaxes precision to the coarsest level.
//! assert!(policy.knobs.point_cloud_precision > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod budget;
pub mod governor;
pub mod knobs;
pub mod latency_model;
pub mod modes;
pub mod operators;
pub mod profilers;
pub mod safety;
pub mod solver;
pub mod telemetry;

pub use ablation::KnobAblation;
pub use budget::{TimeBudgeter, WaypointState};
pub use governor::{Governor, GovernorConfig, Policy};
pub use knobs::{KnobRanges, KnobSettings};
pub use latency_model::PipelineLatencyModel;
pub use modes::RuntimeMode;
pub use operators::{Operators, PerceptionWork};
pub use profilers::{Profilers, SpatialProfile, Visibility};
pub use safety::SafetyReport;
pub use solver::{KnobSolver, SolverConfig};
pub use telemetry::{DecisionRecord, Degradation, MissionTelemetry};
