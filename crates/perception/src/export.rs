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

use crate::occupancy::{block_of, slot_of};
use crate::OccupancyMap;
use roborun_geom::{
    snap_to_lattice, Aabb, FxHashMap, FxHashSet, RingSearch, RingSearchOutcome, Vec3, VoxelKey,
};
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

/// The planner's view of the world: coarse occupied boxes near the MAV.
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
    boxes: Vec<Aabb>,
    /// Occupied voxel keys at `voxel_size` resolution, for O(1) point
    /// queries (the collision checker calls `is_occupied` millions of times
    /// during an RRT* search).
    keys: FxHashSet<VoxelKey>,
    /// The same keys as one 512-bit mask per 8³ block of voxels, keyed by
    /// `key >> 3` (word `x & 7`, bit `(y & 7) << 3 | (z & 7)`): the
    /// neighbourhood scan of [`PlannerMap::is_occupied`] costs a few block
    /// lookups and bit tests instead of one hash probe per voxel.
    masks: FxHashMap<VoxelKey, [u64; 8]>,
    /// Key-space bounds of `keys` (valid when non-empty) — they cap the
    /// expanding-ring search of [`PlannerMap::distance_to_nearest`].
    key_min: VoxelKey,
    key_max: VoxelKey,
}

impl PlannerMap {
    /// An empty planner map (open space) at the given voxel size.
    pub fn empty(voxel_size: f64) -> Self {
        PlannerMap {
            voxel_size,
            boxes: Vec::new(),
            keys: FxHashSet::default(),
            masks: FxHashMap::default(),
            key_min: VoxelKey { x: 0, y: 0, z: 0 },
            key_max: VoxelKey { x: 0, y: 0, z: 0 },
        }
    }

    /// Exports a planner map from an occupancy map, applying the
    /// perception-to-planning precision and volume operators.
    pub fn export(map: &OccupancyMap, config: &ExportConfig) -> Self {
        // Snap to the power-of-two lattice rooted at the map resolution.
        // Eight levels cover a 128x coarsening, far beyond Table II's range.
        let precision =
            snap_to_lattice(config.precision.max(map.resolution()), map.resolution(), 8);

        // Re-key occupied voxels at the export resolution (tree pruning).
        // The set's capacity only affects its iteration order, which the
        // ranking below erases.
        let mut coarse: FxHashSet<VoxelKey> =
            FxHashSet::with_capacity_and_hasher(map.stats().occupied, Default::default());
        for (key, _) in map.occupied_voxels() {
            let center = key.center(map.resolution());
            coarse.insert(VoxelKey::from_point(center, precision));
        }

        // Rank coarse voxels by proximity to the MAV and keep them until the
        // exported volume exceeds the budget. The kept count depends only
        // on how many voxels there are, so only the kept prefix is sorted.
        // Squared distances are never negative (nor -0.0), so their bit
        // patterns order exactly as the values do; keys are unique, so
        // (distance², key) is a total order and the prefix comes out
        // exactly as a full sort would order it.
        let mut ranked: Vec<(u64, VoxelKey)> = coarse
            .into_iter()
            .map(|key| {
                let d2 = key.center(precision).distance_squared(config.reference);
                assert!(!d2.is_nan(), "distances are never NaN");
                (d2.to_bits(), key)
            })
            .collect();
        let kept = kept_count(ranked.len(), precision.powi(3), config.max_volume);
        if kept < ranked.len() {
            ranked.select_nth_unstable(kept);
            ranked.truncate(kept);
        }
        ranked.sort_unstable();
        PlannerMap::from_keys(precision, ranked.into_iter().map(|(_, key)| key))
    }

    /// A planner map of the voxels `keys` at `voxel_size`, one box per
    /// distinct key, boxes in the order the keys come.
    pub fn from_keys(voxel_size: f64, keys: impl IntoIterator<Item = VoxelKey>) -> Self {
        let keys = keys.into_iter();
        let mut map = PlannerMap::empty(voxel_size);
        map.boxes.reserve(keys.size_hint().0);
        for key in keys {
            if !map.keys.insert(key) {
                continue;
            }
            if map.boxes.is_empty() {
                map.key_min = key;
                map.key_max = key;
            } else {
                map.key_min = map.key_min.componentwise_min(key);
                map.key_max = map.key_max.componentwise_max(key);
            }
            map.boxes.push(map.key_box(key));
            let (word, bit) = slot_of(key);
            map.masks.entry(block_of(key)).or_default()[word] |= bit;
        }
        map
    }

    /// Voxel size of the exported boxes (metres).
    pub fn voxel_size(&self) -> f64 {
        self.voxel_size
    }

    /// The exported occupied boxes.
    pub fn boxes(&self) -> &[Aabb] {
        &self.boxes
    }

    /// Number of exported boxes.
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// `true` when nothing was exported.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Total exported occupied volume (m³).
    pub fn occupied_volume(&self) -> f64 {
        self.boxes.len() as f64 * self.voxel_size.powi(3)
    }

    /// `true` when `p` lies within `margin` of any exported occupied box.
    ///
    /// Implemented as a local voxel-neighbourhood scan over the occupancy
    /// masks, so a query costs a few block lookups and
    /// `O((margin / voxel_size + 2)³)` bit tests regardless of how many
    /// boxes were exported.
    pub fn is_occupied(&self, p: Vec3, margin: f64) -> bool {
        if self.keys.is_empty() {
            return false;
        }
        // A box within `margin` of `p` has its closest point within
        // `margin` per axis, so its key offset is at most
        // floor(margin / voxel) + 1 in each direction.
        let voxel = self.voxel_size;
        let reach = (margin / voxel).floor() as i64 + 1;
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
        // Splits `c - reach..=c + reach` into its per-block sub-ranges.
        let spans = |c: i64| {
            ((c - reach) >> 3..=(c + reach) >> 3)
                .map(move |b| ((c - reach).max(b << 3), (c + reach).min((b << 3) + 7)))
        };
        for (x0, x1) in spans(center.x) {
            let gx = gap2(x0, x1, p.x);
            for (y0, y1) in spans(center.y) {
                let gy = gap2(y0, y1, p.y);
                for (z0, z1) in spans(center.z) {
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
                    // The (y, z) window as bits of one x-slice word.
                    let z_bits = (1u64 << (z1 - z0 + 1)) - 1;
                    let window =
                        (y0..=y1).fold(0, |w, y| w | z_bits << (((y & 7) << 3) | (z0 & 7)));
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

    /// Distance from `p` to the nearest exported box surface, or `None`
    /// when the map is empty.
    ///
    /// Searches voxel keys in expanding Chebyshev rings around `p`, so the
    /// cost depends on how close the nearest box is, not on how many boxes
    /// were exported; once the ring search would visit more cells than a
    /// scan of the box list, it falls back to the linear reference (whose
    /// result is identical).
    pub fn distance_to_nearest(&self, p: Vec3) -> Option<f64> {
        if self.keys.is_empty() {
            return None;
        }
        let mut best: Option<f64> = None;
        let outcome = RingSearch::new(self.voxel_size, self.key_min, self.key_max)
            .with_fallback_budget(2 * self.keys.len())
            .run(p, None, |key| {
                if self.keys.contains(&key) {
                    let b = Aabb::from_center_half_extents(
                        key.center(self.voxel_size),
                        Vec3::splat(self.voxel_size * 0.5),
                    );
                    let d = b.distance_to_point(p);
                    if best.map(|bd| d < bd).unwrap_or(true) {
                        best = Some(d);
                    }
                }
                best.map(|d| d * d)
            });
        if outcome == RingSearchOutcome::BudgetExhausted {
            return self.distance_to_nearest_linear(p);
        }
        best
    }

    /// The occupied voxel keys of the export, in no particular order.
    ///
    /// Every exported box is exactly one voxel at [`PlannerMap::voxel_size`]
    /// resolution, so the key set identifies the boxes: consumers that keep
    /// derived per-box state (the collision checker's broad-phase) address
    /// it by key and patch it from a [`PlannerMapDelta`].
    pub fn occupied_keys(&self) -> impl Iterator<Item = VoxelKey> + '_ {
        self.keys.iter().copied()
    }

    /// `true` when `key` is one of the exported occupied voxels.
    pub fn contains_key(&self, key: VoxelKey) -> bool {
        self.keys.contains(&key)
    }

    /// The axis-aligned box of one exported voxel key.
    pub fn key_box(&self, key: VoxelKey) -> Aabb {
        Aabb::from_center_half_extents(
            key.center(self.voxel_size),
            Vec3::splat(self.voxel_size * 0.5),
        )
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
        let added = self
            .keys
            .iter()
            .filter(|k| !previous.keys.contains(k))
            .copied()
            .collect();
        let removed = previous
            .keys
            .iter()
            .filter(|k| !self.keys.contains(k))
            .copied()
            .collect();
        Some(PlannerMapDelta {
            voxel_size: self.voxel_size,
            added,
            removed,
        })
    }

    /// Linear-scan reference for [`PlannerMap::distance_to_nearest`] —
    /// retained for the equivalence proptests and benches.
    pub fn distance_to_nearest_linear(&self, p: Vec3) -> Option<f64> {
        self.boxes
            .iter()
            .map(|b| b.distance_to_point(p))
            .min_by(|a, b| a.partial_cmp(b).expect("distances are never NaN"))
    }

    /// Bounds enclosing every exported box, or `None` when empty.
    pub fn bounds(&self) -> Option<Aabb> {
        let mut iter = self.boxes.iter();
        let first = *iter.next()?;
        Some(iter.fold(first, |acc, b| Aabb::union(&acc, b)))
    }
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

    /// Keys present in the new export but not the previous one.
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
        assert!(pm.distance_to_nearest(Vec3::ZERO).is_none());
        assert!(pm.bounds().is_none());
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
    fn distance_and_bounds_queries() {
        let map = wall_map();
        let pm = PlannerMap::export(&map, &ExportConfig::new(0.3, 1e9, Vec3::new(0.0, 0.0, 5.0)));
        let d = pm.distance_to_nearest(Vec3::new(0.0, 0.0, 5.0)).unwrap();
        assert!(d > 10.0 && d < 12.5, "distance {d}");
        let bounds = pm.bounds().unwrap();
        for b in pm.boxes() {
            assert!(bounds.contains_aabb(b));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn export_config_rejects_zero_precision() {
        let _ = ExportConfig::new(0.0, 10.0, Vec3::ZERO);
    }
}
