//! Voxel keys and the power-of-two precision lattice used by the governor.
//!
//! The RoboRun solver (paper Eq. 3) is constrained to pick space precisions
//! from the discrete lattice `{vox_min · 2^n : 0 ≤ n ≤ d−1}` because the
//! OctoMap-style occupancy tree can only merge/split voxels by factors of
//! two. This module provides that lattice plus the integer voxel keys the
//! occupancy map uses to address cells at a given resolution.

use crate::Vec3;
use serde::{Deserialize, Serialize};

/// Integer coordinates of a voxel at some resolution.
///
/// Keys are obtained by flooring the world coordinate divided by the voxel
/// size, so all points inside a voxel share one key.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct VoxelKey {
    /// Voxel index along X.
    pub x: i64,
    /// Voxel index along Y.
    pub y: i64,
    /// Voxel index along Z.
    pub z: i64,
}

impl VoxelKey {
    /// Key of the voxel containing `p` at resolution `voxel_size`.
    ///
    /// # Panics
    ///
    /// Panics if `voxel_size <= 0`.
    #[inline]
    pub fn from_point(p: Vec3, voxel_size: f64) -> Self {
        assert!(
            voxel_size > 0.0,
            "voxel size must be positive, got {voxel_size}"
        );
        VoxelKey {
            x: floor_i64(p.x / voxel_size),
            y: floor_i64(p.y / voxel_size),
            z: floor_i64(p.z / voxel_size),
        }
    }

    /// World-space centre of this voxel at resolution `voxel_size`.
    #[inline]
    pub fn center(&self, voxel_size: f64) -> Vec3 {
        Vec3::new(
            (self.x as f64 + 0.5) * voxel_size,
            (self.y as f64 + 0.5) * voxel_size,
            (self.z as f64 + 0.5) * voxel_size,
        )
    }

    /// The key of this voxel's parent at twice the voxel size
    /// (one level coarser in the octree).
    pub fn parent(&self) -> VoxelKey {
        VoxelKey {
            x: self.x.div_euclid(2),
            y: self.y.div_euclid(2),
            z: self.z.div_euclid(2),
        }
    }

    /// Manhattan distance between two keys, in voxel units.
    pub fn manhattan_distance(&self, other: &VoxelKey) -> i64 {
        (self.x - other.x).abs() + (self.y - other.y).abs() + (self.z - other.z).abs()
    }

    /// Componentwise minimum of two keys — the lower-corner fold used by
    /// every key-bounds tracker in the workspace.
    #[inline]
    pub fn componentwise_min(self, other: VoxelKey) -> VoxelKey {
        VoxelKey {
            x: self.x.min(other.x),
            y: self.y.min(other.y),
            z: self.z.min(other.z),
        }
    }

    /// Componentwise maximum of two keys — the upper-corner fold used by
    /// every key-bounds tracker in the workspace.
    #[inline]
    pub fn componentwise_max(self, other: VoxelKey) -> VoxelKey {
        VoxelKey {
            x: self.x.max(other.x),
            y: self.y.max(other.y),
            z: self.z.max(other.z),
        }
    }
}

/// `x.floor() as i64` in integer arithmetic: truncate, then step down
/// when truncation rounded a negative fraction up. Equal to the float
/// expression for every input, saturating at the `i64` range (±∞ too) and
/// mapping NaN to 0, but without the library `floor` call the baseline
/// x86-64 target (no SSE4.1 `roundsd`) makes, so key computations inline.
#[inline]
pub fn floor_i64(x: f64) -> i64 {
    let t = x as i64;
    // `t` is exact whenever `x` has a fraction (|x| < 2^52), so the
    // comparison is exact too; at the saturated ends it only fires for
    // `i64::MIN`, where the subtraction saturates.
    t.saturating_sub(i64::from((t as f64) > x))
}

/// `x.ceil().max(1.0) as usize` in integer arithmetic: the segment
/// subdivision count of the collision walkers (at least one step).
#[inline]
pub fn ceil_steps(x: f64) -> usize {
    let t = x as usize;
    t.saturating_add(usize::from((t as f64) < x)).max(1)
}

/// The power-of-two precision lattice `{vox_min · 2^n : 0 ≤ n < levels}`.
///
/// This is the exact discrete domain the paper's solver searches over for
/// the precision knobs (Eq. 3, last constraint).
///
/// # Panics
///
/// Panics if `vox_min <= 0` or `levels == 0`.
///
/// # Example
///
/// ```
/// use roborun_geom::precision_lattice;
/// assert_eq!(precision_lattice(0.3, 6), vec![0.3, 0.6, 1.2, 2.4, 4.8, 9.6]);
/// ```
pub fn precision_lattice(vox_min: f64, levels: usize) -> Vec<f64> {
    assert!(
        vox_min > 0.0,
        "minimum voxel size must be positive, got {vox_min}"
    );
    assert!(levels > 0, "lattice must have at least one level");
    (0..levels).map(|n| vox_min * (1u64 << n) as f64).collect()
}

/// Snaps an arbitrary desired precision onto the lattice.
///
/// Returns the **finest** lattice value that is `>= desired` — i.e. we never
/// grant more precision (a smaller voxel) than requested, but we also never
/// exceed the coarsest level. Values below the finest level are clamped to
/// the finest level (`vox_min`).
///
/// This mirrors how the governor maps the solver's continuous suggestion
/// back onto the octree-compatible lattice: it must honour the *minimum gap*
/// constraint, so the snapped voxel must not be coarser than the demand.
///
/// # Panics
///
/// Panics under the same conditions as [`precision_lattice`].
pub fn snap_to_lattice(desired: f64, vox_min: f64, levels: usize) -> f64 {
    let lattice = precision_lattice(vox_min, levels);
    if desired <= lattice[0] {
        return lattice[0];
    }
    // Largest lattice value that does not exceed the desired precision.
    let mut best = lattice[0];
    for &p in &lattice {
        if p <= desired + 1e-12 {
            best = p;
        } else {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_from_point_floors() {
        let k = VoxelKey::from_point(Vec3::new(1.4, -0.2, 2.9), 1.0);
        assert_eq!(k, VoxelKey { x: 1, y: -1, z: 2 });
        let k2 = VoxelKey::from_point(Vec3::new(1.4, -0.2, 2.9), 0.5);
        assert_eq!(k2, VoxelKey { x: 2, y: -1, z: 5 });
    }

    #[test]
    fn integer_floor_and_ceil_match_the_float_expressions() {
        let edges = [
            -0.5,
            -0.0,
            0.0,
            -1.0,
            1.0,
            2.5,
            -2.5,
            4503599627370496.5,
            9.3e18,
            -9.3e18,
            -9223372036854775808.0,
            9223372036854775808.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for x in edges {
            assert_eq!(floor_i64(x), x.floor() as i64, "floor {x}");
            assert_eq!(ceil_steps(x), x.ceil().max(1.0) as usize, "ceil {x}");
        }
    }

    #[test]
    fn key_center_roundtrip() {
        let size = 0.3;
        let p = Vec3::new(4.07, -2.33, 9.99);
        let k = VoxelKey::from_point(p, size);
        let c = k.center(size);
        // Centre must be inside the same voxel.
        assert_eq!(VoxelKey::from_point(c, size), k);
        assert!(c.distance(p) <= size * 3f64.sqrt());
    }

    #[test]
    fn parent_is_coarser_voxel_containing_child() {
        let size = 0.5;
        let p = Vec3::new(3.3, 3.3, 3.3);
        let child = VoxelKey::from_point(p, size);
        let parent = child.parent();
        assert_eq!(parent, VoxelKey::from_point(p, size * 2.0));
        // Negative coordinates use euclidean division.
        let neg = VoxelKey { x: -1, y: -3, z: 1 };
        assert_eq!(neg.parent(), VoxelKey { x: -1, y: -2, z: 0 });
    }

    #[test]
    fn manhattan_distance_symmetric() {
        let a = VoxelKey { x: 0, y: 0, z: 0 };
        let b = VoxelKey { x: 2, y: -3, z: 1 };
        assert_eq!(a.manhattan_distance(&b), 6);
        assert_eq!(b.manhattan_distance(&a), 6);
    }

    #[test]
    fn lattice_matches_paper_table_ii() {
        // Table II: point-cloud precision ranges over [0.3 .. 9.6] m in
        // power-of-two steps.
        let lattice = precision_lattice(0.3, 6);
        assert_eq!(lattice, vec![0.3, 0.6, 1.2, 2.4, 4.8, 9.6]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn lattice_rejects_zero_vox_min() {
        let _ = precision_lattice(0.0, 3);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn lattice_rejects_zero_levels() {
        let _ = precision_lattice(0.3, 0);
    }

    #[test]
    fn snapping_never_exceeds_demand() {
        for desired in [0.1, 0.3, 0.5, 0.7, 1.3, 2.5, 5.0, 9.6, 20.0] {
            let snapped = snap_to_lattice(desired, 0.3, 6);
            assert!(
                snapped <= desired.max(0.3) + 1e-12,
                "desired {desired} snapped {snapped}"
            );
            assert!(snapped >= 0.3);
            assert!(snapped <= 9.6);
        }
        assert_eq!(snap_to_lattice(0.61, 0.3, 6), 0.6);
        assert_eq!(snap_to_lattice(0.59, 0.3, 6), 0.3);
        assert_eq!(snap_to_lattice(100.0, 0.3, 6), 9.6);
        assert_eq!(snap_to_lattice(0.05, 0.3, 6), 0.3);
    }

    #[test]
    fn snapped_values_are_lattice_members() {
        let lattice = precision_lattice(0.3, 6);
        for desired in (1..200).map(|i| i as f64 * 0.07) {
            let snapped = snap_to_lattice(desired, 0.3, 6);
            assert!(
                lattice.iter().any(|&p| (p - snapped).abs() < 1e-12),
                "snapped value {snapped} not in lattice"
            );
        }
    }
}
