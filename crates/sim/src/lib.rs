//! Simulated MAV substrate for the RoboRun reproduction.
//!
//! The paper evaluates RoboRun with a hardware-in-the-loop rig: Unreal +
//! AirSim simulate the drone's physics and cameras on one machine while the
//! navigation workload runs on four Core i9 cores of another. This crate is
//! the laptop-scale substitute: it provides every physical and platform
//! model the runtime needs —
//!
//! * [`DroneState`] / [`DroneConfig`] — kinematic quadrotor with velocity
//!   and acceleration limits and a body (collision) radius.
//! * [`StoppingModel`] — the stopping-distance model of paper Eq. 2
//!   (`d_stop(v)`), with a sign-corrected default and a least-squares
//!   fitting constructor mirroring how the paper derived it from flight
//!   data (2% MSE).
//! * [`DepthCamera`] / [`CameraRig`] — ray-cast depth sensors; the paper's
//!   MAV carries six cameras covering the full horizontal field of view.
//! * [`EnergyModel`] — propeller-dominated energy: flight energy is roughly
//!   proportional to flight time (hovering already costs hundreds of
//!   watts), which is why the paper's 4.5X mission-time gain translates to
//!   a 4X energy gain.
//! * [`CpuModel`] — CPU utilisation per navigation decision, reproducing
//!   the 36% utilisation reduction headline.
//! * [`ComputeLatencyModel`] — the simulated wall-clock cost of each
//!   pipeline stage as a function of its precision and volume knobs
//!   (paper Eq. 4 functional form), calibrated so the static baseline lands
//!   at paper-scale latencies.
//! * [`SimClock`] — mission wall-clock bookkeeping.
//!
//! # Example
//!
//! ```
//! use roborun_sim::{StoppingModel, ComputeLatencyModel, PipelineStage};
//!
//! let stop = StoppingModel::paper_default();
//! assert!(stop.stopping_distance(2.0) > stop.stopping_distance(0.5));
//!
//! let latency = ComputeLatencyModel::calibrated();
//! let slow = latency.stage_latency(PipelineStage::Perception, 0.3, 46_000.0);
//! let fast = latency.stage_latency(PipelineStage::Perception, 9.6, 1_000.0);
//! assert!(slow > 10.0 * fast);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod camera;
pub mod clock;
pub mod cpu;
pub mod drone;
pub mod energy;
pub mod latency;
pub mod stopping;

pub use camera::{CameraRig, DepthCamera, DepthScan};
pub use clock::SimClock;
pub use cpu::{CpuModel, CpuSample};
pub use drone::{DroneConfig, DroneState};
pub use energy::EnergyModel;
pub use latency::{ComputeLatencyModel, LatencyBreakdown, PipelineStage, StageCoefficients};
pub use stopping::StoppingModel;
