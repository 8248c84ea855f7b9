//! Geometry, grid and statistics primitives shared by the RoboRun reproduction.
//!
//! This crate is dependency-light on purpose: every other crate in the
//! workspace (environment generation, simulation, perception, planning,
//! the RoboRun runtime itself) builds on these types.
//!
//! The main exports are:
//!
//! * [`Vec3`] — a 3-D double precision vector used for positions,
//!   velocities and directions.
//! * [`Aabb`] — axis-aligned bounding boxes used for obstacles, sensor
//!   frusta approximations and map regions.
//! * [`Ray`] — rays with slab-based AABB intersection and fixed-step
//!   marching, the workhorse of the depth cameras, the occupancy-map
//!   ray tracer and the planner's collision checker.
//! * [`Grid3`] — a dense uniform voxelisation of an AABB with world/cell
//!   coordinate conversions.
//! * [`voxel`] — the power-of-two voxel-size lattice that the RoboRun
//!   governor selects precisions from (paper Eq. 3 constraint
//!   `p ∈ {vox_min · 2^n}`).
//! * [`simd`] — runtime width dispatch for the batched AABB kernels
//!   ([`Aabb4`] vs [`Aabb8`] packs), AVX-detected with a scalar-equivalent
//!   4-lane fallback.
//! * [`stats`] — running statistics, percentiles and simple least-squares
//!   fitting used for latency-model calibration and result reporting.
//! * [`sampling`] — a small deterministic RNG (SplitMix64) plus Gaussian
//!   sampling so experiments are reproducible without depending on a
//!   particular `rand` version in library code.
//!
//! # Example
//!
//! ```
//! use roborun_geom::{Vec3, Aabb, Ray};
//!
//! let obstacle = Aabb::from_center_half_extents(Vec3::new(5.0, 0.0, 0.0), Vec3::splat(1.0));
//! let ray = Ray::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0));
//! let hit = ray.intersect_aabb(&obstacle).expect("ray points at the box");
//! assert!((hit.t_min - 4.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aabb;
pub mod fxhash;
pub mod grid;
pub mod index;
pub mod polynomial;
pub mod pose;
pub mod ray;
pub mod sampling;
pub mod simd;
pub mod stats;
pub mod vec3;
pub mod voxel;

pub use aabb::{Aabb, Aabb4, Aabb8};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use grid::{CellIndex, Grid3};
pub use index::{
    cell_min_distance_squared, for_each_shell_key, for_each_shell_key_in, GridRayWalk, RingSearch,
    RingSearchOutcome,
};
pub use polynomial::Polynomial;
pub use pose::Pose;
pub use ray::{Ray, RayHit};
pub use sampling::SplitMix64;
pub use simd::SimdWidth;
pub use stats::{linear_fit, percentile, LogHistogram, RunningStats};
pub use vec3::Vec3;
pub use voxel::{ceil_steps, floor_i64, precision_lattice, snap_to_lattice, VoxelKey};
