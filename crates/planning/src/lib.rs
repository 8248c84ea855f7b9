//! Planning substrate: collision checking, RRT* piece-wise planning and
//! polynomial path smoothing.
//!
//! The paper's planning stage uses two kernels: "piece-wise planning and
//! path smoothing. Piece-wise planning stochastically samples the map until
//! a collision-free path to the destination is found. We use the RRT*
//! planner from the OMPL library due to its asymptotic optimality. We use
//! Richter, et al.'s Path Smoothing kernel to modify the piece-wise
//! trajectory to incorporate the MAV's dynamic constraints such as maximum
//! velocity."
//!
//! This crate re-implements both kernels from scratch:
//!
//! * [`CollisionChecker`] — segment collision checks against the exported
//!   [`roborun_perception::PlannerMap`], with the ray-march step acting as
//!   the *planning precision* operator.
//! * [`hazard`] — the hazard-source abstraction: the [`HazardContext`]
//!   composes the static checker with [`PredictedHazards`] (time-free
//!   soft boxes from moving-obstacle prediction), so the planner routes
//!   around predicted lanes in one shot; every search and validator is
//!   generic over [`HazardSource`].
//! * [`RrtStar`] — a sampling-based planner with rewiring whose explored
//!   volume is monitored and capped (the *planning volume* operator: "our
//!   volume monitor stops the search upon exceeding the threshold").
//! * [`smooth_path`] — piecewise cubic Hermite smoothing with velocity /
//!   acceleration caps, producing a time-parameterised [`Trajectory`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collision;
pub mod hazard;
pub mod planner;
pub mod rrtstar;
pub mod smoothing;
pub mod trajectory;

pub use collision::CollisionChecker;
pub use hazard::{
    first_polyline_conflict, polyline_clear_of_boxes, HazardContext, HazardSource, PredictedHazards,
};
pub use planner::{PlanError, PlanStats, Planner, PlannerConfig};
pub use rrtstar::{PlannerScratch, RrtConfig, RrtResult, RrtStar, SamplingMix};
pub use smoothing::{smooth_path, SmoothingConfig};
pub use trajectory::{Trajectory, TrajectoryPoint};
