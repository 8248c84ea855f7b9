//! Perception-to-planning export: the pruned, volume-limited map view the
//! planner receives.
//!
//! The paper's perception-to-planning operators are:
//!
//! * **Precision** — "enforced by sub-sampling and pruning the tree
//!   structure of the encoded map": occupied voxels are re-keyed at a
//!   coarser, power-of-two multiple of the map resolution.
//! * **Volume** — "controls the space volume communicated to the planner,
//!   limiting the planner's knowledge of the world. [...] we prune the map,
//!   encoded in a tree, by selecting higher level trees (in the sorted
//!   order) until the threshold is reached", sorted by proximity to the MAV.
//!
//! # One mask set
//!
//! A [`PlannerMap`] holds its voxels once, as the occupancy map holds
//! them: one 512-bit mask per 8³ block, keyed by `key >> 3` (word `x & 7`,
//! bit `(y & 7) << 3 | (z & 7)`), plus a voxel count. The export works on
//! those masks directly:
//!
//! * **Coarsening is a shift.** The export precision is `res · 2^level`
//!   (see [`roborun_geom::snap_to_lattice`]), and the coarse voxel holding
//!   fine voxel `k`'s centre is `k >> level`: `(k + 0.5) / 2^level` stays
//!   at least `2^-(level+1)` away from an integer, far beyond rounding. An
//!   8³ fine block therefore lands in the single coarse block
//!   `block >> level`, so the export costs one hash lookup per occupied
//!   block, and at level 0 it copies the occupied masks unchanged.
//! * **Ranking only under a binding budget.** Voxels are kept nearest
//!   first until the volume budget is spent; when the budget keeps every
//!   voxel nothing is ranked. Otherwise the voxels are ranked by
//!   `(centre distance² to the reference, key)` and only the kept ones are
//!   selected, never sorted: the map stores no order.
//! * **Diffs are mask differences.** [`PlannerMap::delta_from`] takes
//!   `new & !old` and `old & !new` block by block.
//! * **Dilation is word shifts.** [`PlannerMap::dilated`] grows the voxels
//!   by a whole number of cells per axis, one axis at a time: z moves bits
//!   inside the bytes of a word, y moves whole bytes, x moves whole words,
//!   and the bits shifted out of a block land in its neighbour.

use crate::occupancy::{
    block_of, block_spans, mask_has, mask_keys, mask_len, slot_of, yz_window, BlockMask,
};
use crate::OccupancyMap;
use roborun_geom::{floor_i64, snap_to_lattice, Aabb, FxHashMap, Vec3, VoxelKey};
use serde::{Deserialize, Serialize};

/// Configuration of one export (the two perception-to-planning knobs plus
/// the sort reference).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExportConfig {
    /// Export precision in metres. Values are snapped to the nearest
    /// power-of-two multiple of the map resolution that does not exceed the
    /// request (the OctoMap tree constraint from paper Eq. 3).
    pub precision: f64,
    /// Maximum exported occupied volume in cubic metres.
    pub max_volume: f64,
    /// Reference position (the MAV) voxels are sorted by proximity to.
    pub reference: Vec3,
}

impl ExportConfig {
    /// Creates an export configuration.
    ///
    /// # Panics
    ///
    /// Panics if `precision <= 0` or `max_volume < 0`.
    pub fn new(precision: f64, max_volume: f64, reference: Vec3) -> Self {
        assert!(precision > 0.0, "export precision must be positive");
        assert!(max_volume >= 0.0, "export volume must be non-negative");
        ExportConfig {
            precision,
            max_volume,
            reference,
        }
    }
}

/// The planner's view of the world: coarse occupied voxels near the MAV.
///
/// Every exported voxel is one box of edge [`PlannerMap::voxel_size`]; the
/// map holds them as block masks (see the module docs) and exposes them by
/// key ([`PlannerMap::occupied_keys`], [`PlannerMap::key_box`]).
///
/// # Example
///
/// ```
/// use roborun_perception::{ExportConfig, OccupancyMap, PlannerMap, PointCloud};
/// use roborun_geom::Vec3;
///
/// let mut map = OccupancyMap::new(0.3);
/// map.integrate_cloud(&PointCloud::new(Vec3::ZERO, vec![Vec3::new(5.0, 0.0, 0.0)]), 0.3);
/// let planner_map = PlannerMap::export(&map, &ExportConfig::new(0.6, 1e6, Vec3::ZERO));
/// assert!(planner_map.is_occupied(Vec3::new(5.0, 0.0, 0.0), 0.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannerMap {
    voxel_size: f64,
    /// The position the export ranked voxels by.
    reference: Vec3,
    /// Exported voxels as one 512-bit mask per 8³ block (see the module
    /// docs): the neighbourhood scan of [`PlannerMap::is_occupied`] costs
    /// a few block lookups and bit tests instead of one hash probe per
    /// voxel. Empty masks are never stored.
    masks: FxHashMap<VoxelKey, BlockMask>,
    /// Number of bits set in `masks`.
    len: usize,
}

impl PlannerMap {
    /// An empty planner map (open space) at the given voxel size.
    pub fn empty(voxel_size: f64) -> Self {
        PlannerMap {
            voxel_size,
            reference: Vec3::ZERO,
            masks: FxHashMap::default(),
            len: 0,
        }
    }

    /// Exports a planner map from an occupancy map, applying the
    /// perception-to-planning precision and volume operators.
    pub fn export(map: &OccupancyMap, config: &ExportConfig) -> Self {
        // Snap to the power-of-two lattice rooted at the map resolution.
        // Eight levels cover a 128x coarsening, far beyond Table II's range.
        let res = map.resolution();
        let precision = snap_to_lattice(config.precision.max(res), res, 8);
        // The lattice is `res · 2^level` exactly, so the ratio is too.
        let level = ((precision / res) as u64).trailing_zeros();
        debug_assert_eq!(precision, res * (1u64 << level) as f64);

        // Re-key occupied voxels at the export resolution (tree pruning),
        // block by block (see the module docs).
        let masks = if level == 0 {
            map.occupied_masks().clone()
        } else {
            let shift = |k: VoxelKey| VoxelKey {
                x: k.x >> level,
                y: k.y >> level,
                z: k.z >> level,
            };
            let mut coarse: FxHashMap<VoxelKey, BlockMask> = FxHashMap::default();
            for (block, mask) in map.occupied_masks() {
                let target = coarse.entry(shift(*block)).or_default();
                for key in mask_keys(*block, *mask) {
                    let (word, bit) = slot_of(shift(key));
                    target[word] |= bit;
                }
            }
            coarse
        };
        let export = PlannerMap {
            voxel_size: precision,
            reference: config.reference,
            len: masks.values().map(mask_len).sum(),
            masks,
        };

        // Keep voxels nearest the MAV first until the exported volume
        // exceeds the budget. The kept count depends only on how many
        // voxels there are, so ranking is needed only when it binds, and
        // then only the kept voxels are selected. Squared distances are
        // never negative (nor -0.0), so their bit patterns order exactly
        // as the values do; keys are unique, so (distance², key) is a
        // total order and the selection is exactly a full sort's prefix.
        let kept = kept_count(export.len, precision.powi(3), config.max_volume);
        if kept == export.len {
            return export;
        }
        let mut ranked: Vec<(u64, VoxelKey)> = export
            .occupied_keys()
            .map(|key| (export.reference_distance_squared(key).to_bits(), key))
            .collect();
        ranked.select_nth_unstable(kept);
        ranked.truncate(kept);
        PlannerMap::from_keys(
            precision,
            config.reference,
            ranked.into_iter().map(|(_, key)| key),
        )
    }

    /// A planner map of the voxels `keys` at `voxel_size` (a repeated key
    /// counts once), exported around `reference`.
    pub fn from_keys(
        voxel_size: f64,
        reference: Vec3,
        keys: impl IntoIterator<Item = VoxelKey>,
    ) -> Self {
        let mut map = PlannerMap::empty(voxel_size);
        map.reference = reference;
        for key in keys {
            let (word, bit) = slot_of(key);
            let mask = map.masks.entry(block_of(key)).or_default();
            map.len += usize::from(mask[word] & bit == 0);
            mask[word] |= bit;
        }
        map
    }

    /// Voxel size of the exported boxes (metres).
    pub fn voxel_size(&self) -> f64 {
        self.voxel_size
    }

    /// Squared distance from the centre of voxel `key` to the position the
    /// export ranked voxels by (the MAV at export time) — the export's
    /// proximity rank.
    pub fn reference_distance_squared(&self, key: VoxelKey) -> f64 {
        let d2 = key.center(self.voxel_size).distance_squared(self.reference);
        assert!(!d2.is_nan(), "distances are never NaN");
        d2
    }

    /// Number of exported boxes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing was exported.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total exported occupied volume (m³).
    pub fn occupied_volume(&self) -> f64 {
        self.len as f64 * self.voxel_size.powi(3)
    }

    /// How many cells per axis [`PlannerMap::is_occupied`] looks past the
    /// cell of its query point: a box within `margin` of `p` has its
    /// closest point within `margin` per axis, so its key offset is at
    /// most `floor(margin / voxel) + 1` in each direction.
    pub fn reach(&self, margin: f64) -> i64 {
        floor_i64(margin / self.voxel_size) + 1
    }

    /// `true` when `p` lies within `margin` of any exported occupied box.
    ///
    /// Implemented as a local voxel-neighbourhood scan over the occupancy
    /// masks, so a query costs a few block lookups and
    /// `O((margin / voxel_size + 2)³)` bit tests regardless of how many
    /// boxes were exported.
    pub fn is_occupied(&self, p: Vec3, margin: f64) -> bool {
        if self.is_empty() {
            return false;
        }
        let voxel = self.voxel_size;
        let reach = self.reach(margin);
        let center = VoxelKey::from_point(p, voxel);
        // Squared gap from coordinate `q` to the voxels `k0..=k1`, computed
        // term for term as `Aabb::distance_to_point` computes it, so sums of
        // gaps never exceed that function's squared distance. The relative
        // slack on the bound dwarfs rounding: whatever it skips fails the
        // exact test.
        let gap2 = |k0: i64, k1: i64, q: f64| {
            let lo = (k0 as f64 + 0.5) * voxel - voxel * 0.5;
            let hi = (k1 as f64 + 0.5) * voxel + voxel * 0.5;
            let d = q.max(lo).min(hi) - q;
            d * d
        };
        let bound = margin * margin * (1.0 + 1e-9);
        for (x0, x1) in block_spans(center.x - reach, center.x + reach) {
            let gx = gap2(x0, x1, p.x);
            for (y0, y1) in block_spans(center.y - reach, center.y + reach) {
                let gy = gap2(y0, y1, p.y);
                for (z0, z1) in block_spans(center.z - reach, center.z + reach) {
                    if gx + gy + gap2(z0, z1, p.z) > bound {
                        continue;
                    }
                    let Some(mask) = self.masks.get(&block_of(VoxelKey {
                        x: x0,
                        y: y0,
                        z: z0,
                    })) else {
                        continue;
                    };
                    let window = yz_window(y0, y1, z0, z1);
                    for x in x0..=x1 {
                        let mut hits = mask[(x & 7) as usize] & window;
                        while hits != 0 {
                            let bit = i64::from(hits.trailing_zeros());
                            hits &= hits - 1;
                            let key = VoxelKey {
                                x,
                                y: (y0 & !7) | (bit >> 3),
                                z: (z0 & !7) | (bit & 7),
                            };
                            if gap2(x, x, p.x) + gap2(key.y, key.y, p.y) + gap2(key.z, key.z, p.z)
                                <= bound
                                && self.key_box(key).distance_to_point(p) <= margin
                            {
                                return true;
                            }
                        }
                    }
                }
            }
        }
        false
    }

    /// The occupied voxel keys of the export, in no particular order.
    ///
    /// Every exported box is exactly one voxel at [`PlannerMap::voxel_size`]
    /// resolution, so the key set identifies the boxes: consumers that keep
    /// derived state (the collision checker's covered masks) refresh it
    /// from a [`PlannerMapDelta`].
    pub fn occupied_keys(&self) -> impl Iterator<Item = VoxelKey> + '_ {
        self.masks
            .iter()
            .flat_map(|(block, mask)| mask_keys(*block, *mask))
    }

    /// `true` when `key` is one of the exported occupied voxels.
    pub fn contains_key(&self, key: VoxelKey) -> bool {
        mask_has(&self.masks, key)
    }

    /// The axis-aligned box of one exported voxel key.
    pub fn key_box(&self, key: VoxelKey) -> Aabb {
        Aabb::from_center_half_extents(
            key.center(self.voxel_size),
            Vec3::splat(self.voxel_size * 0.5),
        )
    }

    /// Every cell within `reach` cells of an exported voxel along each
    /// axis, as block masks keyed like the map's own (see the module
    /// docs); no stored mask is empty. With `reach = self.reach(margin)`
    /// these are the only cells where `is_occupied(p, margin)` can hold.
    pub fn dilated(&self, reach: i64) -> FxHashMap<VoxelKey, BlockMask> {
        let z = dilate_axis(&self.masks, Axis::Z, reach);
        let y = dilate_axis(&z, Axis::Y, reach);
        dilate_axis(&y, Axis::X, reach)
    }

    /// The key-level difference `self − previous`, or `None` when the two
    /// exports use different voxel sizes (a precision-knob change re-keys
    /// the whole map, so consumers must rebuild rather than patch).
    ///
    /// Successive exports along a mission share most of their voxels — the
    /// MAV only uncovers (and forgets) map content near the frontier — so
    /// the delta is usually a handful of keys even when the export holds
    /// thousands of boxes.
    pub fn delta_from(&self, previous: &PlannerMap) -> Option<PlannerMapDelta> {
        if self.voxel_size != previous.voxel_size {
            return None;
        }
        Some(PlannerMapDelta {
            voxel_size: self.voxel_size,
            added: mask_difference(&self.masks, &previous.masks),
            removed: mask_difference(&previous.masks, &self.masks),
        })
    }
}

/// The keys set in `masks` but not in `other`, block by block.
fn mask_difference(
    masks: &FxHashMap<VoxelKey, BlockMask>,
    other: &FxHashMap<VoxelKey, BlockMask>,
) -> Vec<VoxelKey> {
    let mut keys = Vec::new();
    for (block, mask) in masks {
        let only = match other.get(block) {
            Some(old) => std::array::from_fn(|w| mask[w] & !old[w]),
            None => *mask,
        };
        keys.extend(mask_keys(*block, only));
    }
    keys
}

/// An axis of the block-mask layout (see the module docs).
#[derive(Clone, Copy)]
enum Axis {
    X,
    Y,
    Z,
}

/// `mask` moved `t` cells along `axis` (`|t| < 8`); bits leaving the
/// block are dropped.
fn shift(mask: &BlockMask, axis: Axis, t: i64) -> BlockMask {
    // One bit per byte: the lanes of the z rows.
    const LANES: u64 = 0x0101_0101_0101_0101;
    match axis {
        Axis::X => std::array::from_fn(|x| {
            usize::try_from(x as i64 - t)
                .ok()
                .and_then(|from| mask.get(from))
                .map_or(0, |&word| word)
        }),
        Axis::Y if t >= 0 => mask.map(|word| word << (8 * t)),
        Axis::Y => mask.map(|word| word >> (-8 * t)),
        Axis::Z if t >= 0 => mask.map(|word| (word << t) & (LANES * ((0xFF << t) & 0xFF))),
        Axis::Z => mask.map(|word| (word >> -t) & (LANES * (0xFF >> -t))),
    }
}

/// The union of `shift(mask, axis, t)` over `t` in `lo..=hi`
/// (`-8 < lo <= hi < 8`), by doubling runs of shifts in one direction: a
/// bit shifted out of the block in that direction stays out, so shifting
/// a partial union again is exact.
fn smear(mask: &BlockMask, axis: Axis, lo: i64, hi: i64) -> BlockMask {
    if lo < 0 && hi > 0 {
        let (down, up) = (smear(mask, axis, lo, 0), smear(mask, axis, 0, hi));
        return std::array::from_fn(|w| down[w] | up[w]);
    }
    let (mut out, step) = if lo >= 0 {
        (shift(mask, axis, lo), 1)
    } else {
        (shift(mask, axis, hi), -1)
    };
    let mut done = 0;
    while done < hi - lo {
        let k = (done + 1).min(hi - lo - done);
        let moved = shift(&out, axis, step * k);
        out = std::array::from_fn(|w| out[w] | moved[w]);
        done += k;
    }
    out
}

/// `masks` grown by `reach` cells both ways along `axis`. Block `b`'s
/// cells land in blocks `b + q` for `q` in
/// `floor(-reach / 8)..=floor((7 + reach) / 8)`, each a smear over the
/// shifts that end inside that block.
fn dilate_axis(
    masks: &FxHashMap<VoxelKey, BlockMask>,
    axis: Axis,
    reach: i64,
) -> FxHashMap<VoxelKey, BlockMask> {
    let mut out: FxHashMap<VoxelKey, BlockMask> = FxHashMap::default();
    for (block, mask) in masks {
        for q in (-reach).div_euclid(8)..=(7 + reach) / 8 {
            let part = smear(mask, axis, (-reach - 8 * q).max(-7), (reach - 8 * q).min(7));
            if part == [0; 8] {
                continue;
            }
            let mut target = *block;
            match axis {
                Axis::X => target.x += q,
                Axis::Y => target.y += q,
                Axis::Z => target.z += q,
            }
            let cover = out.entry(target).or_default();
            for (word, bits) in cover.iter_mut().zip(part) {
                *word |= bits;
            }
        }
    }
    out
}

/// How many of `available` voxels of volume `voxel_volume` an export with
/// budget `max_volume` keeps: voxels are added nearest first until the
/// volume would exceed the budget, but always at least the closest one (if
/// there is any budget at all), otherwise the planner would fly blind next
/// to a known hazard. The volume accumulates voxel by voxel, so rounding
/// decides the boundary case exactly as a nearest-first walk would.
fn kept_count(available: usize, voxel_volume: f64, max_volume: f64) -> usize {
    if max_volume == 0.0 {
        return 0;
    }
    let mut kept = 0;
    let mut volume = 0.0;
    while kept < available {
        if volume + voxel_volume > max_volume && kept > 0 {
            break;
        }
        kept += 1;
        volume += voxel_volume;
    }
    kept
}

/// The key-level difference between two [`PlannerMap`] exports at the same
/// voxel size (see [`PlannerMap::delta_from`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannerMapDelta {
    voxel_size: f64,
    added: Vec<VoxelKey>,
    removed: Vec<VoxelKey>,
}

impl PlannerMapDelta {
    /// Voxel size both exports share (metres).
    pub fn voxel_size(&self) -> f64 {
        self.voxel_size
    }

    /// Keys present in the new export but not the previous one, block by
    /// block, each block's keys ascending by x, then y, then z.
    pub fn added(&self) -> &[VoxelKey] {
        &self.added
    }

    /// Keys present in the previous export but not the new one.
    pub fn removed(&self) -> &[VoxelKey] {
        &self.removed
    }

    /// `true` when the two exports held identical key sets.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Number of changed keys (added + removed).
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PointCloud;

    fn wall_map() -> OccupancyMap {
        let mut map = OccupancyMap::new(0.3);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let points: Vec<Vec3> = (-10..=10)
            .flat_map(|y| {
                (0..6).map(move |z| Vec3::new(12.0, y as f64 * 0.3, 4.0 + z as f64 * 0.3))
            })
            .collect();
        map.integrate_cloud(&PointCloud::new(origin, points), 0.3);
        map
    }

    #[test]
    fn export_preserves_obstacles_at_native_precision() {
        let map = wall_map();
        let cfg = ExportConfig::new(0.3, 1e9, Vec3::new(0.0, 0.0, 5.0));
        let pm = PlannerMap::export(&map, &cfg);
        assert!(!pm.is_empty());
        assert_eq!(pm.voxel_size(), 0.3);
        assert!(pm.is_occupied(Vec3::new(12.0, 0.0, 5.0), 0.1));
        assert!(!pm.is_occupied(Vec3::new(3.0, 0.0, 5.0), 0.1));
        assert_eq!(pm.len(), map.stats().occupied);
    }

    #[test]
    fn coarser_export_has_fewer_bigger_boxes() {
        let map = wall_map();
        let reference = Vec3::new(0.0, 0.0, 5.0);
        let fine = PlannerMap::export(&map, &ExportConfig::new(0.3, 1e9, reference));
        let coarse = PlannerMap::export(&map, &ExportConfig::new(2.4, 1e9, reference));
        assert!(coarse.len() < fine.len());
        assert!(coarse.voxel_size() > fine.voxel_size());
        // Obstacles are still represented (conservatively inflated).
        assert!(coarse.is_occupied(Vec3::new(12.0, 0.0, 5.0), 0.1));
        // Coarse voxel size snapped to a power-of-two multiple of 0.3.
        let ratio = coarse.voxel_size() / 0.3;
        assert!((ratio - ratio.round()).abs() < 1e-9);
        assert!((ratio.round() as u64).is_power_of_two());
    }

    #[test]
    fn requested_precision_never_exceeded() {
        let map = wall_map();
        let reference = Vec3::ZERO;
        // 1.0 m is not a power-of-two multiple of 0.3; snap down to 0.6.
        let pm = PlannerMap::export(&map, &ExportConfig::new(1.0, 1e9, reference));
        assert!((pm.voxel_size() - 0.6).abs() < 1e-9);
        // Precision finer than the map resolution clamps to the resolution.
        let pm2 = PlannerMap::export(&map, &ExportConfig::new(0.05, 1e9, reference));
        assert!((pm2.voxel_size() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn volume_budget_limits_export_and_prefers_near_voxels() {
        let mut map = OccupancyMap::new(0.3);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        // Two walls: one near (x = 6), one far (x = 30).
        let mut points = Vec::new();
        for y in -5..=5 {
            points.push(Vec3::new(6.0, y as f64 * 0.3, 5.0));
            points.push(Vec3::new(30.0, y as f64 * 0.3, 5.0));
        }
        map.integrate_cloud(&PointCloud::new(origin, points), 0.3);
        let full = PlannerMap::export(&map, &ExportConfig::new(0.3, 1e9, origin));
        let voxel_volume = 0.3f64.powi(3);
        let budget = full.occupied_volume() * 0.4; // less than half the voxels
        let limited = PlannerMap::export(&map, &ExportConfig::new(0.3, budget, origin));
        assert!(limited.len() < full.len());
        assert!(limited.occupied_volume() <= budget + voxel_volume + 1e-9);
        // The near wall survives; the far wall is dropped first.
        assert!(limited.is_occupied(Vec3::new(6.0, 0.0, 5.0), 0.2));
        assert!(!limited.is_occupied(Vec3::new(30.0, 0.0, 5.0), 0.2));
    }

    #[test]
    fn zero_budget_exports_nothing() {
        let map = wall_map();
        let pm = PlannerMap::export(&map, &ExportConfig::new(0.3, 0.0, Vec3::ZERO));
        assert!(pm.is_empty());
        assert_eq!(pm.occupied_volume(), 0.0);
        assert!(pm.occupied_keys().next().is_none());
    }

    #[test]
    fn tiny_budget_still_exports_nearest_obstacle() {
        let map = wall_map();
        let pm = PlannerMap::export(
            &map,
            &ExportConfig::new(0.3, 1e-6, Vec3::new(0.0, 0.0, 5.0)),
        );
        assert_eq!(pm.len(), 1);
    }

    #[test]
    fn empty_map_exports_empty() {
        let map = OccupancyMap::new(0.3);
        let pm = PlannerMap::export(&map, &ExportConfig::new(0.6, 1e6, Vec3::ZERO));
        assert!(pm.is_empty());
        assert_eq!(PlannerMap::empty(0.5).len(), 0);
    }

    #[test]
    fn dilation_matches_the_brute_force_cube_union() {
        // Voxels on both sides of block edges at negative and positive
        // keys, dilated by reaches within one block and past two.
        let keys = [
            (-9, 0, -8),
            (-8, -1, 7),
            (0, 0, 0),
            (7, 8, -1),
            (15, -17, 3),
        ]
        .map(|(x, y, z)| VoxelKey { x, y, z });
        let map = PlannerMap::from_keys(0.3, Vec3::ZERO, keys);
        for reach in [0, 1, 3, 7, 8, 9, 17] {
            let dilated = map.dilated(reach);
            assert!(dilated.values().all(|mask| *mask != [0; 8]));
            let mut cells: Vec<VoxelKey> = dilated
                .iter()
                .flat_map(|(block, mask)| mask_keys(*block, *mask))
                .collect();
            cells.sort_unstable();
            let mut expected: Vec<VoxelKey> = keys
                .iter()
                .flat_map(|k| {
                    let span = move |c: i64| c - reach..=c + reach;
                    span(k.x).flat_map(move |x| {
                        span(k.y).flat_map(move |y| span(k.z).map(move |z| VoxelKey { x, y, z }))
                    })
                })
                .collect();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(cells, expected, "reach {reach}");
        }
    }

    #[test]
    fn reach_is_the_neighbourhood_scan_bound() {
        let map = PlannerMap::empty(0.3);
        assert_eq!(map.reach(0.0), 1);
        assert_eq!(map.reach(0.765), 3);
        assert_eq!(map.reach(2.5), 9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn export_config_rejects_zero_precision() {
        let _ = ExportConfig::new(0.0, 10.0, Vec3::ZERO);
    }
}
