//! Perception substrate: point clouds and the occupancy map, with RoboRun's
//! precision and volume operators.
//!
//! The paper's perception stage runs two kernels:
//!
//! * **Point cloud** — converts camera pixels to 3-D points. Its precision
//!   operator "controls the sampling distance between points: we grid the
//!   space into cells, map the points onto the cells using their
//!   coordinates, and then reduce each cell to a single average point". Its
//!   volume operator sorts points by distance to the MAV's trajectory and
//!   integrates them "one by one until their resulting volume exceeds the
//!   desired threshold".
//! * **OctoMap** — accumulates point clouds into a 3-D occupancy map
//!   "encoded in a tree data structure where each leaf is a voxel". Its
//!   precision operator controls the step size of the raytracer; the
//!   perception-to-planning operators sub-sample/prune the tree and limit
//!   the volume communicated to the planner, sorted by proximity to the MAV.
//!
//! This crate implements both kernels and all of those operators from
//! scratch (the reproduction does not link OctoMap); see
//! [`PointCloud`], [`OccupancyMap`] and [`PlannerMap`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod occupancy;
pub mod point_cloud;

pub use export::{ExportConfig, PlannerMap, PlannerMapDelta};
pub use occupancy::{
    block_of, block_spans, mask_keys, region_bit, region_of, slot_of, yz_window, BlockMask,
    MapStats, OccupancyMap, VoxelState,
};
pub use point_cloud::PointCloud;
