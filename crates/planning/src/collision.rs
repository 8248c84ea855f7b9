//! Collision checking against the exported planner map.
//!
//! The paper's planning precision operator modifies the planner's raytracer
//! "similar to OctoMap": the distance between successive collision samples
//! along a candidate edge. Coarse steps are cheaper but can thread through
//! thin obstacles; the exported map's voxel inflation compensates, which is
//! why the governor is allowed to relax this knob in open space.
//!
//! Because the checker's clearance margin is fixed at construction, it
//! keeps a margin-aware broad-phase of per-cell **coverage counts**: a
//! voxel cell's count is the number of exported boxes whose margin-inflated
//! key range (`BroadPhase::inflated_range`) covers it. Counts live in
//! 8³-cell bricks keyed by `key >> 3` in one hash map; cells outside every
//! brick have count zero, and a brick is dropped the moment its last
//! non-zero count returns to zero, so the structure only ever holds the
//! neighbourhood of the current export.
//!
//! A zero count proves freedom: a point within `margin` of a box lies in
//! the box's margin-inflated bounds, and flooring is monotone, so the
//! point's cell lies in that box's key range and would have been counted.
//! A non-zero count only says some box is close to the cell, so such
//! queries fall back to the exact answer, [`PlannerMap::is_occupied`] on
//! the map the checker already holds — the broad-phase keeps no copy of
//! the keys and cannot disagree with the reference. The RRT* search issues
//! millions of point queries per plan, and most sit in open space where
//! one bit test settles them; the samples of one segment reuse the brick
//! of the previous sample, so a hash probe is paid only where the segment
//! enters a new brick. The broad-phase is built lazily once
//! enough queries have arrived to amortise its O(boxes) cost, so trivial
//! plans (direct connections in open space) never pay for it.
//!
//! Once built, the broad-phase survives map refreshes:
//! [`CollisionChecker::update_map`] adds −1 over the range of every key the
//! [`PlannerMapDelta`] removed and +1 over the range of every key it added.
//! The range is a pure function of (key, voxel, margin), so a removal
//! exactly undoes its insertion and the patched counts equal a rebuild's.

use roborun_geom::{Aabb, FxHashMap, Vec3, VoxelKey};
use roborun_perception::{PlannerMap, PlannerMapDelta};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Point queries answered by the map directly before the broad-phase is
/// built; past this count the build cost is amortised.
const LAZY_BUILD_QUERIES: usize = 128;

/// log₂ of the brick edge in cells: bricks are 8³ cells.
const BRICK_SHIFT: u32 = 3;
/// Cells per brick.
const BRICK_CELLS: usize = 1 << (3 * BRICK_SHIFT);

/// One bit per cell of a brick.
type BrickBits = [u64; BRICK_CELLS / 64];

/// Coverage counts of one 8³ block of cells.
///
/// A count never exceeds the number of exported boxes, and a map of 2³²
/// boxes would need hundreds of GB for its keys alone, so `u32` counts
/// cannot wrap for any margin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Brick {
    /// One bit per cell, set while its count is non-zero: queries read
    /// only this cache line, stored inline in the hash map entry. The
    /// brick is removed from the map when it reaches all zeros.
    covered: BrickBits,
    /// Count per cell, indexed by [`Brick::index`].
    counts: Box<[u32; BRICK_CELLS]>,
}

impl Brick {
    /// Key of the brick holding `cell`.
    fn key(cell: VoxelKey) -> VoxelKey {
        VoxelKey {
            x: cell.x >> BRICK_SHIFT,
            y: cell.y >> BRICK_SHIFT,
            z: cell.z >> BRICK_SHIFT,
        }
    }

    /// Position of `cell` inside its brick.
    fn index(cell: VoxelKey) -> usize {
        let mask = (1 << BRICK_SHIFT) - 1;
        (((cell.x & mask) << (2 * BRICK_SHIFT))
            | ((cell.y & mask) << BRICK_SHIFT)
            | (cell.z & mask)) as usize
    }
}

/// A brick key and a copy of its covered bits (all zero when absent).
type RecentBrick = Option<(VoxelKey, BrickBits)>;

/// The margin-aware broad-phase: per-cell coverage counts in bricks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BroadPhase {
    /// Exported voxel size the structure was built for (metres).
    voxel: f64,
    /// Bricks with at least one non-zero count.
    bricks: FxHashMap<VoxelKey, Brick>,
}

impl BroadPhase {
    /// Key range covered by the margin-inflated box of `source`.
    ///
    /// Any point within `margin` of the box lies inside its inflated
    /// bounds, so its cell lies inside this range.
    fn inflated_range(source: VoxelKey, voxel: f64, margin: f64) -> (VoxelKey, VoxelKey) {
        let b = Aabb::from_center_half_extents(source.center(voxel), Vec3::splat(voxel * 0.5))
            .inflate(margin);
        (
            VoxelKey::from_point(b.min, voxel),
            VoxelKey::from_point(b.max, voxel),
        )
    }

    fn build(map: &PlannerMap, margin: f64) -> Self {
        let mut grid = BroadPhase {
            voxel: map.voxel_size(),
            bricks: FxHashMap::default(),
        };
        for source in map.occupied_keys() {
            grid.count_box(source, margin, true);
        }
        grid
    }

    /// Adds +1 (`add`) or −1 over the inflated range of `source`, one
    /// brick at a time, creating bricks on the way up and dropping them
    /// when their last count returns to zero.
    fn count_box(&mut self, source: VoxelKey, margin: f64, add: bool) {
        let (lo, hi) = BroadPhase::inflated_range(source, self.voxel, margin);
        // Splits `a..=b` into its per-brick sub-ranges.
        let spans = |a: i64, b: i64| {
            (a >> BRICK_SHIFT..=b >> BRICK_SHIFT).map(move |k| {
                let first = k << BRICK_SHIFT;
                (a.max(first), b.min(first + (1 << BRICK_SHIFT) - 1))
            })
        };
        for (x0, x1) in spans(lo.x, hi.x) {
            for (y0, y1) in spans(lo.y, hi.y) {
                for (z0, z1) in spans(lo.z, hi.z) {
                    let key = Brick::key(VoxelKey {
                        x: x0,
                        y: y0,
                        z: z0,
                    });
                    // Removals only visit bricks their insertion created.
                    let brick = self.bricks.entry(key).or_insert_with(|| Brick {
                        covered: BrickBits::default(),
                        counts: Box::new([0; BRICK_CELLS]),
                    });
                    for x in x0..=x1 {
                        for y in y0..=y1 {
                            for z in z0..=z1 {
                                let i = Brick::index(VoxelKey { x, y, z });
                                let count = &mut brick.counts[i];
                                *count = if add { *count + 1 } else { *count - 1 };
                                if *count == u32::from(add) {
                                    // 0 → 1 or 1 → 0: the cell's bit flips.
                                    brick.covered[i / 64] ^= 1 << (i % 64);
                                }
                            }
                        }
                    }
                    if brick.covered == BrickBits::default() {
                        self.bricks.remove(&key);
                    }
                }
            }
        }
    }

    /// Patches the counts for a map refresh: +1 over every added box's
    /// range, −1 over every removed box's (additions first, so a brick that
    /// both gains and loses boxes is never dropped and re-allocated). The
    /// result equals a from-scratch build for the new map, brick for brick.
    fn apply_delta(&mut self, delta: &PlannerMapDelta, margin: f64) {
        for &source in delta.added() {
            self.count_box(source, margin, true);
        }
        for &source in delta.removed() {
            self.count_box(source, margin, false);
        }
    }

    /// `true` when some box's inflated range covers the cell of `p`;
    /// `false` proves `p` is farther than the margin from every box.
    /// `recent` carries the covered bits of the last brick looked up, so
    /// runs of nearby queries (segment samples a cell apart) skip the
    /// hash probe.
    fn covers(&self, p: Vec3, recent: &mut RecentBrick) -> bool {
        let cell = VoxelKey::from_point(p, self.voxel);
        let key = Brick::key(cell);
        let bits = match recent {
            Some((k, bits)) if *k == key => bits,
            _ => {
                let bits = self
                    .bricks
                    .get(&key)
                    .map_or_else(BrickBits::default, |b| b.covered);
                &recent.insert((key, bits)).1
            }
        };
        let i = Brick::index(cell);
        bits[i / 64] >> (i % 64) & 1 != 0
    }
}

/// Collision checker over a [`PlannerMap`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollisionChecker {
    map: PlannerMap,
    /// Clearance margin added around obstacles (the MAV body radius).
    margin: f64,
    /// Sample spacing along checked segments (metres) — the planning
    /// precision knob.
    check_step: f64,
    /// Number of point queries performed since construction (work metric).
    queries: usize,
    /// Broad-phase, built lazily after [`LAZY_BUILD_QUERIES`] queries.
    ///
    /// Held behind an [`Arc`] so that cloning a checker whose broad-phase
    /// is already built shares the structure in O(1) instead of deep-
    /// copying the count bricks: N missions planned against the same
    /// environment prebuild once and clone per mission (the fleet and
    /// shared-survey pattern). The share is copy-on-write —
    /// [`CollisionChecker::update_map`] patches through
    /// [`Arc::make_mut`], so the first per-mission delta detaches a
    /// private copy and siblings are never affected.
    broad_phase: Option<Arc<BroadPhase>>,
}

impl CollisionChecker {
    /// Creates a checker.
    ///
    /// # Panics
    ///
    /// Panics if `margin < 0` or `check_step <= 0`.
    pub fn new(map: PlannerMap, margin: f64, check_step: f64) -> Self {
        assert!(margin >= 0.0, "margin must be non-negative, got {margin}");
        assert!(
            check_step > 0.0,
            "check step must be positive, got {check_step}"
        );
        CollisionChecker {
            map,
            margin,
            check_step,
            queries: 0,
            broad_phase: None,
        }
    }

    /// The planner map being checked against.
    pub fn map(&self) -> &PlannerMap {
        &self.map
    }

    /// Clearance margin (metres).
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// Sample spacing (metres).
    pub fn check_step(&self) -> f64 {
        self.check_step
    }

    /// Number of point queries performed so far.
    pub fn queries(&self) -> usize {
        self.queries
    }

    /// `true` when the point is free of obstacles (with margin).
    ///
    /// Early queries delegate to the map's voxel-neighbourhood lookup; once
    /// enough queries have arrived to amortise it, the coverage-count
    /// broad-phase is built and a query becomes one hash probe and bit
    /// test in free space, falling back to the map lookup only in cells
    /// some box's inflated range covers. Always returns the same boolean as
    /// `!self.map().is_occupied(p, self.margin())`.
    pub fn point_free(&mut self, p: Vec3) -> bool {
        self.point_free_near(p, &mut None)
    }

    /// [`CollisionChecker::point_free`] reusing the brick of the previous
    /// query of a run (see [`BroadPhase::covers`]).
    fn point_free_near(&mut self, p: Vec3, recent: &mut RecentBrick) -> bool {
        self.queries += 1;
        if self.broad_phase.is_none() {
            if self.queries < LAZY_BUILD_QUERIES {
                return !self.map.is_occupied(p, self.margin);
            }
            self.broad_phase = Some(Arc::new(BroadPhase::build(&self.map, self.margin)));
        }
        let broad_phase = self.broad_phase.as_ref().expect("broad phase just built");
        !broad_phase.covers(p, recent) || !self.map.is_occupied(p, self.margin)
    }

    /// Builds the broad-phase immediately instead of waiting for the lazy
    /// query threshold — callers that keep the checker across many plans
    /// (the mission runner) pay the build once and patch it afterwards.
    /// The build adds +1 over every box's inflated key range, so it costs
    /// O(boxes × (margin / voxel)³) count increments.
    ///
    /// Because the built structure sits behind an [`Arc`], cloning the
    /// checker afterwards shares it in O(1): a fleet or a shared survey
    /// prebuilds one static checker per environment and hands each
    /// mission a clone, paying one build for N missions. Per-clone
    /// [`CollisionChecker::update_map`] patches detach privately
    /// (copy-on-write), so sharing never changes any answer.
    pub fn prebuild_broad_phase(&mut self) {
        if self.broad_phase.is_none() {
            self.broad_phase = Some(Arc::new(BroadPhase::build(&self.map, self.margin)));
        }
    }

    /// `true` when `self` and `other` still share one broad-phase
    /// allocation (neither has detached with a copy-on-write patch).
    /// Exposed for the cross-mission-caching tests and benches.
    #[doc(hidden)]
    pub fn shares_broad_phase_with(&self, other: &CollisionChecker) -> bool {
        match (&self.broad_phase, &other.broad_phase) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Replaces the checked map with a fresh export, patching the built
    /// broad-phase's coverage counts from the key delta between the two
    /// exports — work proportional to the changed boxes, not the map.
    /// When the exports are incompatible (different voxel size — a
    /// precision-knob change), the broad-phase is dropped and rebuilt
    /// lazily.
    pub fn update_map(&mut self, new_map: PlannerMap) {
        if let Some(grid) = self.broad_phase.as_mut() {
            match new_map.delta_from(&self.map) {
                // `make_mut` detaches a private copy when the structure
                // is shared with sibling missions (copy-on-write) and
                // patches in place when uniquely owned.
                Some(delta) => Arc::make_mut(grid).apply_delta(&delta, self.margin),
                None => self.broad_phase = None,
            }
        }
        self.map = new_map;
    }

    /// Changes the segment sample spacing (the planning precision knob) —
    /// the governor retunes it every decision while the margin, and with it
    /// the broad-phase, stays fixed.
    ///
    /// # Panics
    ///
    /// Panics if `check_step <= 0`.
    pub fn set_check_step(&mut self, check_step: f64) {
        assert!(
            check_step > 0.0,
            "check step must be positive, got {check_step}"
        );
        self.check_step = check_step;
    }

    /// Canonical view of the broad-phase: every cell whose covered bit is
    /// set and its coverage count, sorted by cell, or `None` while
    /// unbuilt. Exposed for the incremental-update conformance tests,
    /// which assert a patched structure matches a from-scratch rebuild
    /// cell for cell.
    #[doc(hidden)]
    pub fn broad_phase_cells(&self) -> Option<Vec<(VoxelKey, u32)>> {
        let grid = self.broad_phase.as_ref()?;
        let mut cells = Vec::new();
        for (key, brick) in &grid.bricks {
            let edge = 1 << BRICK_SHIFT;
            for (x, y, z) in (0..edge)
                .flat_map(|x| (0..edge).flat_map(move |y| (0..edge).map(move |z| (x, y, z))))
            {
                let cell = VoxelKey {
                    x: key.x * edge + x,
                    y: key.y * edge + y,
                    z: key.z * edge + z,
                };
                let i = Brick::index(cell);
                if brick.covered[i / 64] >> (i % 64) & 1 != 0 {
                    cells.push((cell, brick.counts[i]));
                }
            }
        }
        cells.sort_unstable_by_key(|(cell, _)| *cell);
        Some(cells)
    }

    /// Number of bricks the broad-phase holds, or `None` while unbuilt.
    /// Exposed for the conformance tests: a patched structure must drop
    /// every brick whose counts all returned to zero, so its brick count
    /// equals a rebuild's.
    #[doc(hidden)]
    pub fn broad_phase_bricks(&self) -> Option<usize> {
        self.broad_phase.as_ref().map(|grid| grid.bricks.len())
    }

    /// Linear reference for [`CollisionChecker::point_free`], delegating to
    /// the map's voxel-neighbourhood query — retained for equivalence tests.
    pub fn point_free_reference(map: &PlannerMap, p: Vec3, margin: f64) -> bool {
        !map.is_occupied(p, margin)
    }

    /// `true` when the straight segment from `a` to `b` stays free of
    /// obstacles, sampled every `check_step` metres.
    pub fn segment_free(&mut self, a: Vec3, b: Vec3) -> bool {
        let length = a.distance(b);
        if length < 1e-9 {
            return self.point_free(a);
        }
        // Guarded like every other hazard walker: at least one step, so
        // both endpoints are sampled even when the ratio degenerates.
        let steps = (length / self.check_step).ceil().max(1.0) as usize;
        let mut recent = None;
        for i in 0..=steps {
            let t = i as f64 / steps as f64;
            if !self.point_free_near(a.lerp(b, t), &mut recent) {
                return false;
            }
        }
        true
    }

    /// `true` when every consecutive pair of waypoints is connected by a
    /// free segment.
    pub fn path_free(&mut self, waypoints: &[Vec3]) -> bool {
        if waypoints.is_empty() {
            return true;
        }
        if waypoints.len() == 1 {
            return self.point_free(waypoints[0]);
        }
        waypoints.windows(2).all(|w| self.segment_free(w[0], w[1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roborun_perception::{ExportConfig, OccupancyMap, PointCloud};

    fn map_with_wall() -> PlannerMap {
        let mut map = OccupancyMap::new(0.3);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let points: Vec<Vec3> = (-20..=20)
            .flat_map(|y| (0..20).map(move |z| Vec3::new(10.0, y as f64 * 0.3, z as f64 * 0.3)))
            .collect();
        map.integrate_cloud(&PointCloud::new(origin, points), 0.3);
        PlannerMap::export(&map, &ExportConfig::new(0.3, 1e9, origin))
    }

    #[test]
    fn free_and_occupied_points() {
        let mut checker = CollisionChecker::new(map_with_wall(), 0.45, 0.3);
        assert!(checker.point_free(Vec3::new(0.0, 0.0, 5.0)));
        assert!(!checker.point_free(Vec3::new(10.0, 0.0, 5.0)));
        // Margin inflates obstacles.
        assert!(!checker.point_free(Vec3::new(9.5, 0.0, 5.0)));
        assert!(checker.queries() >= 3);
    }

    #[test]
    fn segment_through_wall_is_blocked() {
        let mut checker = CollisionChecker::new(map_with_wall(), 0.45, 0.3);
        assert!(!checker.segment_free(Vec3::new(0.0, 0.0, 5.0), Vec3::new(20.0, 0.0, 5.0)));
        // A segment parallel to the wall on the near side is free.
        assert!(checker.segment_free(Vec3::new(0.0, -5.0, 5.0), Vec3::new(0.0, 5.0, 5.0)));
        // Degenerate segment behaves like a point query.
        assert!(checker.segment_free(Vec3::new(1.0, 0.0, 5.0), Vec3::new(1.0, 0.0, 5.0)));
    }

    #[test]
    fn path_check_covers_all_segments() {
        let mut checker = CollisionChecker::new(map_with_wall(), 0.45, 0.3);
        let around = vec![
            Vec3::new(0.0, 0.0, 5.0),
            Vec3::new(5.0, -10.0, 5.0),
            Vec3::new(15.0, -10.0, 5.0),
            Vec3::new(20.0, 0.0, 5.0),
        ];
        assert!(checker.path_free(&around));
        let through = vec![Vec3::new(0.0, 0.0, 5.0), Vec3::new(20.0, 0.0, 5.0)];
        assert!(!checker.path_free(&through));
        assert!(checker.path_free(&[]));
        assert!(checker.path_free(&[Vec3::new(0.0, 0.0, 5.0)]));
    }

    #[test]
    fn coarser_step_does_fewer_queries() {
        let mut fine = CollisionChecker::new(map_with_wall(), 0.45, 0.1);
        let mut coarse = CollisionChecker::new(map_with_wall(), 0.45, 2.0);
        let a = Vec3::new(0.0, -5.0, 5.0);
        let b = Vec3::new(0.0, 5.0, 5.0);
        assert!(fine.segment_free(a, b));
        assert!(coarse.segment_free(a, b));
        assert!(fine.queries() > coarse.queries());
    }

    #[test]
    fn broad_phase_matches_map_query() {
        let map = map_with_wall();
        let mut checker = CollisionChecker::new(map.clone(), 0.45, 0.3);
        // Dense probe lattice across the wall region, including points far
        // from any box.
        for xi in 0..40 {
            for yi in -12..=12 {
                for zi in 0..14 {
                    let p = Vec3::new(xi as f64 * 0.5, yi as f64 * 0.5, zi as f64 * 0.5);
                    assert_eq!(
                        checker.point_free(p),
                        CollisionChecker::point_free_reference(&map, p, 0.45),
                        "mismatch at {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_update_matches_fresh_rebuild() {
        let mut base = OccupancyMap::new(0.3);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let points: Vec<Vec3> = (-20..=20)
            .flat_map(|y| (0..20).map(move |z| Vec3::new(10.0, y as f64 * 0.3, z as f64 * 0.3)))
            .collect();
        base.integrate_cloud(&PointCloud::new(origin, points), 0.3);
        let map1 = PlannerMap::export(&base, &ExportConfig::new(0.3, 1e9, origin));
        // A second scan adds a nearer blob and the retain radius could have
        // dropped voxels — exercise both sides of the delta.
        base.integrate_cloud(
            &PointCloud::new(
                origin,
                vec![Vec3::new(4.0, 1.0, 5.0), Vec3::new(4.3, 1.0, 5.0)],
            ),
            0.3,
        );
        let map2 = PlannerMap::export(&base, &ExportConfig::new(0.3, 1e9, origin));
        assert!(!map2.delta_from(&map1).unwrap().is_empty());

        let mut patched = CollisionChecker::new(map1, 0.45, 0.3);
        patched.prebuild_broad_phase();
        patched.update_map(map2.clone());
        let mut rebuilt = CollisionChecker::new(map2.clone(), 0.45, 0.3);
        rebuilt.prebuild_broad_phase();
        assert_eq!(patched.broad_phase_cells(), rebuilt.broad_phase_cells());
        assert_eq!(patched.broad_phase_bricks(), rebuilt.broad_phase_bricks());
        for xi in 0..40 {
            for yi in -12..=12 {
                let p = Vec3::new(xi as f64 * 0.5, yi as f64 * 0.5, 5.0);
                assert_eq!(
                    patched.point_free(p),
                    CollisionChecker::point_free_reference(&map2, p, 0.45),
                    "patched checker mismatch at {p}"
                );
            }
        }
    }

    #[test]
    fn wide_margin_counts_match_the_reference_across_negative_brick_edges() {
        // Boxes straddling the brick edges at key -8 (x, z) and 0 (y),
        // checked with a margin of more than 8 voxels: every box's range
        // spans three or more bricks per axis and cells are covered by
        // every box at once.
        let (voxel, margin) = (0.3, 2.5);
        let origin = Vec3::new(6.0, 6.0, 6.0);
        let (xz, y) = ([-2.55, -2.25], [-0.15, 0.15]);
        let points: Vec<Vec3> = (0..8)
            .map(|i| Vec3::new(xz[i & 1], y[i >> 1 & 1], xz[i >> 2]))
            .collect();
        let mut base = OccupancyMap::new(voxel);
        base.integrate_cloud(&PointCloud::new(origin, points), voxel);
        let map = PlannerMap::export(&base, &ExportConfig::new(voxel, 1e9, origin));
        let keys: Vec<VoxelKey> = map.occupied_keys().collect();
        assert!(keys.iter().any(|k| k.x == -9) && keys.iter().any(|k| k.y == 0));
        let (lo, hi) = BroadPhase::inflated_range(keys[0], voxel, margin);
        assert!((hi.x >> BRICK_SHIFT) - (lo.x >> BRICK_SHIFT) >= 2);

        let mut checker = CollisionChecker::new(map.clone(), margin, voxel);
        checker.prebuild_broad_phase();
        let cells = checker.broad_phase_cells().unwrap();
        let max_count = cells.iter().map(|&(_, count)| count).max();
        assert_eq!(max_count, Some(map.len() as u32));
        for i in 0..12 * 12 * 12 {
            let step = |j: i32| -7.0 + j as f64 * 0.61;
            let p = Vec3::new(step(i / 144), step(i / 12 % 12) + 3.1, step(i % 12));
            assert_eq!(
                checker.point_free(p),
                CollisionChecker::point_free_reference(&map, p, margin),
                "mismatch at {p}"
            );
        }
        // Removing every box empties every brick.
        checker.update_map(PlannerMap::empty(voxel));
        assert_eq!(checker.broad_phase_bricks(), Some(0));
    }

    #[test]
    fn update_map_with_different_voxel_size_rebuilds() {
        let map_fine = map_with_wall();
        let mut base = OccupancyMap::new(0.3);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        base.integrate_cloud(
            &PointCloud::new(origin, vec![Vec3::new(10.0, 0.0, 5.0)]),
            0.3,
        );
        let map_coarse = PlannerMap::export(&base, &ExportConfig::new(0.6, 1e9, origin));
        let mut checker = CollisionChecker::new(map_fine, 0.45, 0.3);
        checker.prebuild_broad_phase();
        checker.update_map(map_coarse.clone());
        // The broad-phase was dropped (incompatible voxel size) and answers
        // still match the reference once rebuilt.
        for xi in 0..30 {
            let p = Vec3::new(xi as f64 * 0.7, 0.3, 5.0);
            assert_eq!(
                checker.point_free(p),
                CollisionChecker::point_free_reference(&map_coarse, p, 0.45)
            );
        }
    }

    #[test]
    fn empty_map_is_all_free() {
        let mut checker = CollisionChecker::new(PlannerMap::empty(0.3), 0.45, 0.5);
        assert!(checker.segment_free(Vec3::ZERO, Vec3::new(100.0, 0.0, 0.0)));
    }

    #[test]
    #[should_panic(expected = "check step")]
    fn zero_step_panics() {
        let _ = CollisionChecker::new(PlannerMap::empty(0.3), 0.45, 0.0);
    }
}
