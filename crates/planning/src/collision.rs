//! Collision checking against the exported planner map.
//!
//! The paper's planning precision operator modifies the planner's raytracer
//! "similar to OctoMap": the distance between successive collision samples
//! along a candidate edge. Coarse steps are cheaper but can thread through
//! thin obstacles; the exported map's voxel inflation compensates, which is
//! why the governor is allowed to relax this knob in open space.
//!
//! Because the checker's clearance margin is fixed at construction, it
//! keeps a margin-aware broad phase: one **covered mask** per 8³ block,
//! the map's own block masks dilated by the reach of the exact query,
//! [`PlannerMap::reach`] cells per axis ([`PlannerMap::dilated`]). The
//! exact query, [`PlannerMap::is_occupied`] on the map the checker already
//! holds, only examines keys within that reach of the query's cell, so an
//! uncovered cell proves the point free and `!covered || !is_occupied` is
//! exactly `!is_occupied`. That stays true for any superset of the
//! dilation, so the broad phase keeps no copy of the keys and cannot
//! disagree with the reference. The RRT* search issues millions of point
//! queries per plan, and most sit in open space where one bit test
//! settles them. The checker keeps a copy of the last covered mask it
//! looked up, so consecutive samples — along one segment and across the
//! segments of a search, which mostly start at nearby tree nodes — pay a
//! hash probe only where they enter a new block. That copy is derived
//! state: every map update and every broad-phase build or drop clears it,
//! and checker equality ignores it. The broad phase is built lazily once
//! enough queries have arrived to amortise its O(blocks) cost, so trivial
//! plans (direct connections in open space) never pay for it; a precision
//! change drops it and restarts that count.
//!
//! Long segments are settled a region at a time. A derived **region
//! index** lists the covered blocks of every 4³-block region (`block >> 2`
//! per axis, as [`OccupancyMap`](roborun_perception::OccupancyMap)'s
//! index does) as a 64-bit member mask, one bit per block. The samples of
//! a segment walk have monotone keys per axis: `a + (b − a)·t` with a
//! growing `t = i / steps`, the division by the voxel size and the
//! `floor` each preserve order, rounding included. So every sample from
//! `i` to `steps` has its key inside the box spanned by the keys of those
//! two samples, and when no block of that box is listed in the index, no
//! sample is covered: the walk is free, and counts its `steps + 1 − i`
//! queries without taking them. The test costs two keys and a hash probe
//! per region of the box, so it runs only where at least a block's width
//! of samples remains (`BOX_TEST_MIN_SAMPLES`).
//!
//! Once built, the broad phase survives map refreshes:
//! [`CollisionChecker::update_map`] ORs in the cover of the voxels the
//! [`PlannerMapDelta`] added and leaves the cover of removed voxels in
//! place. Each added voxel's cube of `2·reach + 1` cells per axis goes
//! straight into the covered masks, block by block, as an x-slice word
//! range under a (y, z) window — the arithmetic of
//! [`PlannerMap::is_occupied`]'s scan — and a block the cube creates joins
//! its region's member mask. Added keys that follow each other along z
//! (a block's keys come in mask order) go in as one box, the union of
//! their cubes, so a dense patch of wall costs a box per column rather
//! than a cube per voxel. The union of the cubes is the box dilation
//! [`PlannerMap::dilated`] computes, so the masks equal a rebuild's while
//! nothing was removed. Stale bits only send more queries to the exact
//! answer; once the voxels removed since the last build reach a quarter
//! of the map's, the masks are rebuilt from the map.

use roborun_geom::{ceil_steps, FxHashMap, Vec3, VoxelKey};
use roborun_perception::{
    block_of, block_spans, mask_keys, region_bit, region_of, slot_of, yz_window, BlockMask,
    PlannerMap, PlannerMapDelta,
};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;

/// Point queries answered by the map directly before the broad phase is
/// built (counted from construction or from the last drop); past this
/// count the build cost is amortised.
const LAZY_BUILD_QUERIES: usize = 128;

/// The fewest samples left in a segment walk for which the walk first
/// tests its key box against the region index: one block's width. The
/// aware designs' segments average 2.4 samples, so most of their walks
/// skip the test. Measured on a 2-core host: testing every walk (1)
/// instead read 4017 against 4131 decisions/s on missionbench's
/// `static_aware`, 2338 against 2216 on `dynamic_nodes` and 3818 against
/// 3829 on `static_oblivious` (medians of six alternating 10 s pairs, all
/// within noise), and on `rrt_mission_plan` 1, 4 and 8 tied while 16 was
/// slower at both knob sets.
const BOX_TEST_MIN_SAMPLES: usize = 8;

/// The last covered-mask lookup: a block key and a copy of its mask (all
/// zero when the block is absent). A cache of the broad phase, not state
/// of the checker: every checker compares equal here, and serde skips it.
#[derive(Debug, Clone, Copy, Default)]
struct RecentBlock(Option<(VoxelKey, BlockMask)>);

impl PartialEq for RecentBlock {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// The margin-aware broad phase: covered masks per 8³ block, with the
/// region index over them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BroadPhase {
    /// Exported voxel size the masks were built for (metres).
    voxel: f64,
    /// Cells the masks reach past each voxel, per axis.
    reach: i64,
    /// The covered cells, a superset of the dilated map; no mask is empty.
    covered: FxHashMap<VoxelKey, BlockMask>,
    /// The blocks of `covered`, one member mask per 4³-block region
    /// ([`region_bit`]); no member mask is empty.
    regions: FxHashMap<VoxelKey, u64>,
    /// Voxels removed from the map since the last build, whose cover is
    /// still set.
    stale: usize,
}

impl BroadPhase {
    fn build(map: &PlannerMap, margin: f64) -> Self {
        let reach = map.reach(margin);
        let covered = map.dilated(reach);
        let mut regions: FxHashMap<VoxelKey, u64> = FxHashMap::default();
        for block in covered.keys() {
            *regions.entry(region_of(*block)).or_default() |= region_bit(*block);
        }
        BroadPhase {
            voxel: map.voxel_size(),
            reach,
            covered,
            regions,
            stale: 0,
        }
    }

    /// Refreshes the cover for `map`, the export `delta` leads to: the
    /// added voxels' cubes are ORed in, one run along z at a time, and the
    /// masks are rebuilt once the stale voxels reach a quarter of the
    /// map's.
    fn apply_delta(&mut self, map: &PlannerMap, delta: &PlannerMapDelta, margin: f64) {
        self.stale += delta.removed().len();
        if 4 * self.stale > map.len() {
            *self = BroadPhase::build(map, margin);
            return;
        }
        let mut added = delta.added().iter();
        let Some(&first) = added.next() else {
            return;
        };
        let (mut lo, mut hi) = (first, first);
        for &key in added {
            if (key.x, key.y, key.z) == (hi.x, hi.y, hi.z + 1) {
                hi.z += 1;
            } else {
                self.cover_box(lo, hi);
                (lo, hi) = (key, key);
            }
        }
        self.cover_box(lo, hi);
    }

    /// ORs the cells within `reach` of the key box `lo..=hi` per axis (the
    /// union of its keys' cubes) into the covered masks, one block at a
    /// time; a block this creates joins its region.
    fn cover_box(&mut self, lo: VoxelKey, hi: VoxelKey) {
        let reach = self.reach;
        for (x0, x1) in block_spans(lo.x - reach, hi.x + reach) {
            for (y0, y1) in block_spans(lo.y - reach, hi.y + reach) {
                for (z0, z1) in block_spans(lo.z - reach, hi.z + reach) {
                    let block = block_of(VoxelKey {
                        x: x0,
                        y: y0,
                        z: z0,
                    });
                    let cover = match self.covered.entry(block) {
                        Entry::Occupied(entry) => entry.into_mut(),
                        Entry::Vacant(entry) => {
                            *self.regions.entry(region_of(block)).or_default() |= region_bit(block);
                            entry.insert([0; 8])
                        }
                    };
                    let window = yz_window(y0, y1, z0, z1);
                    for x in x0..=x1 {
                        cover[(x & 7) as usize] |= window;
                    }
                }
            }
        }
    }

    /// `true` when some block of the key box spanned by `p` and `q` has a
    /// covered mask; `false` proves every point keyed inside that box
    /// uncovered.
    fn box_has_cover(&self, p: Vec3, q: Vec3) -> bool {
        let (kp, kq) = (
            VoxelKey::from_point(p, self.voxel),
            VoxelKey::from_point(q, self.voxel),
        );
        let lo = block_of(VoxelKey {
            x: kp.x.min(kq.x),
            y: kp.y.min(kq.y),
            z: kp.z.min(kq.z),
        });
        let hi = block_of(VoxelKey {
            x: kp.x.max(kq.x),
            y: kp.y.max(kq.y),
            z: kp.z.max(kq.z),
        });
        // The blocks `lo..=hi` of one axis inside region coordinate `r`.
        let span = |lo: i64, hi: i64, r: i64| lo.max(r << 2)..=hi.min((r << 2) | 3);
        for rx in lo.x >> 2..=hi.x >> 2 {
            for ry in lo.y >> 2..=hi.y >> 2 {
                for rz in lo.z >> 2..=hi.z >> 2 {
                    let region = VoxelKey {
                        x: rx,
                        y: ry,
                        z: rz,
                    };
                    let Some(&members) = self.regions.get(&region) else {
                        continue;
                    };
                    // The box's blocks in `region_bit`'s layout.
                    let z_bits = span(lo.z, hi.z, rz).fold(0u64, |w, z| w | 1 << (z & 3));
                    let yz_bits = span(lo.y, hi.y, ry).fold(0, |w, y| w | z_bits << ((y & 3) << 2));
                    let bits = span(lo.x, hi.x, rx).fold(0, |w, x| w | yz_bits << ((x & 3) << 4));
                    if members & bits != 0 {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// `true` when the region index lists exactly the covered blocks:
    /// every covered block has its region bit, and every region bit
    /// belongs to a covered block.
    #[cfg(test)]
    fn regions_consistent(&self) -> bool {
        let listed: usize = self.regions.values().map(|m| m.count_ones() as usize).sum();
        listed == self.covered.len()
            && self.regions.values().all(|members| *members != 0)
            && self.covered.keys().all(|block| {
                self.regions
                    .get(&region_of(*block))
                    .is_some_and(|members| members & region_bit(*block) != 0)
            })
    }

    /// `true` when the cell of `p` is covered; `false` proves `p` is
    /// farther than the margin from every box. `recent` carries the
    /// covered mask of the last block looked up, so runs of nearby
    /// queries skip the hash probe; it must have been filled by this
    /// broad phase, unchanged since. Always inlined: it is the body of
    /// the segment walk's loop.
    #[inline(always)]
    fn covers(&self, p: Vec3, recent: &mut RecentBlock) -> bool {
        let cell = VoxelKey::from_point(p, self.voxel);
        let block = block_of(cell);
        let mask = match &recent.0 {
            Some((k, mask)) if *k == block => mask,
            _ => self.look_up(block, recent),
        };
        let (word, bit) = slot_of(cell);
        mask[word] & bit != 0
    }

    /// The point query once the broad phase exists: `!covers || !exact`,
    /// the one rule behind [`CollisionChecker::point_free`] and the
    /// segment walk.
    #[inline(always)]
    fn point_free(&self, map: &PlannerMap, margin: f64, p: Vec3, recent: &mut RecentBlock) -> bool {
        !self.covers(p, recent) || !map.is_occupied(p, margin)
    }

    /// The hash probe behind [`BroadPhase::covers`], kept out of its loop.
    #[cold]
    #[inline(never)]
    fn look_up<'a>(&self, block: VoxelKey, recent: &'a mut RecentBlock) -> &'a BlockMask {
        let mask = self.covered.get(&block).copied().unwrap_or_default();
        &recent.0.insert((block, mask)).1
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
    /// Broad phase, built lazily after [`LAZY_BUILD_QUERIES`] queries.
    broad_phase: Option<BroadPhase>,
    /// Query count from which a missing broad phase is built.
    build_at: usize,
    /// The broad phase's last block lookup (see [`RecentBlock`]).
    #[serde(skip)]
    recent: RecentBlock,
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
            build_at: LAZY_BUILD_QUERIES,
            recent: RecentBlock::default(),
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
    /// enough queries have arrived to amortise it, the covered masks are
    /// built and a query becomes one bit test in free space (plus a hash
    /// probe when it leaves the last block looked up), falling back to the
    /// map lookup only in covered cells. Always returns the same boolean
    /// as `!self.map().is_occupied(p, self.margin())`.
    #[inline]
    pub fn point_free(&mut self, p: Vec3) -> bool {
        self.queries += 1;
        if self.broad_phase.is_none() && self.queries < self.build_at {
            return !self.map.is_occupied(p, self.margin);
        }
        let broad_phase = match &mut self.broad_phase {
            Some(built) => built,
            unbuilt => {
                self.recent = RecentBlock::default();
                unbuilt.insert(BroadPhase::build(&self.map, self.margin))
            }
        };
        broad_phase.point_free(&self.map, self.margin, p, &mut self.recent)
    }

    /// Builds the broad phase immediately instead of waiting for the lazy
    /// query threshold. The build dilates every occupied block mask, so it
    /// costs O(blocks) word operations and hash inserts.
    pub fn prebuild_broad_phase(&mut self) {
        if self.broad_phase.is_none() {
            self.recent = RecentBlock::default();
            self.broad_phase = Some(BroadPhase::build(&self.map, self.margin));
        }
    }

    /// Replaces the checked map with a fresh export. A built broad phase
    /// is refreshed from the key delta between the two exports (see the
    /// module docs), work proportional to the changed blocks, not the
    /// map. When the exports are incompatible (different voxel size — a
    /// precision-knob change), the broad phase is dropped and rebuilt
    /// lazily, as for a fresh checker.
    pub fn update_map(&mut self, new_map: PlannerMap) {
        self.recent = RecentBlock::default();
        if let Some(grid) = self.broad_phase.as_mut() {
            match new_map.delta_from(&self.map) {
                Some(delta) => grid.apply_delta(&new_map, &delta, self.margin),
                None => {
                    self.broad_phase = None;
                    self.build_at = self.queries + LAZY_BUILD_QUERIES;
                }
            }
        }
        self.map = new_map;
    }

    /// Changes the segment sample spacing (the planning precision knob) —
    /// the governor retunes it every decision while the margin, and with it
    /// the broad phase, stays fixed.
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

    /// Every covered cell of the broad phase, sorted, or `None` while
    /// unbuilt. Exposed for the conformance tests, which compare a
    /// refreshed cover with a rebuild's and with the margin regions of
    /// the exported boxes.
    #[doc(hidden)]
    pub fn broad_phase_cells(&self) -> Option<Vec<VoxelKey>> {
        let grid = self.broad_phase.as_ref()?;
        let mut cells: Vec<VoxelKey> = grid
            .covered
            .iter()
            .flat_map(|(block, mask)| mask_keys(*block, *mask))
            .collect();
        cells.sort_unstable();
        Some(cells)
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
        let steps = ceil_steps(length / self.check_step);
        let sample = |i: usize| a.lerp(b, i as f64 / steps as f64);
        for i in 0..=steps {
            // Once the broad phase exists, the rest of the walk runs the
            // same rule as `point_free` with its per-query bookkeeping
            // (the count, the build check) hoisted out of the loop, which
            // saves ~7% of a 900-sample mission plan (`rrt_mission_plan`).
            if let Some(broad_phase) = &self.broad_phase {
                // Every sample left has its key in the box spanned by the
                // first and the last (see the module docs).
                if steps + 1 - i >= BOX_TEST_MIN_SAMPLES
                    && !broad_phase.box_has_cover(sample(i), sample(steps))
                {
                    self.queries += steps + 1 - i;
                    return true;
                }
                let blocked = (i..=steps).position(|j| {
                    !broad_phase.point_free(&self.map, self.margin, sample(j), &mut self.recent)
                });
                self.queries += blocked.map_or(steps + 1 - i, |walked| walked + 1);
                return blocked.is_none();
            }
            // Until then, any sample may be the one that builds it.
            if !self.point_free(sample(i)) {
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

    /// The answer [`CollisionChecker::point_free`] must give: no box of
    /// `map` within `margin` of `p`.
    fn point_free_reference(map: &PlannerMap, p: Vec3, margin: f64) -> bool {
        !map.is_occupied(p, margin)
    }

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
                        point_free_reference(&map, p, 0.45),
                        "mismatch at {p}"
                    );
                }
            }
        }
    }

    /// Every cell within `reach` cells of a key of `map`, per axis, sorted.
    fn cube_union(map: &PlannerMap, reach: i64) -> Vec<VoxelKey> {
        let span = move |c: i64| c - reach..=c + reach;
        let mut cells: Vec<VoxelKey> = map
            .occupied_keys()
            .flat_map(|k| {
                span(k.x).flat_map(move |x| {
                    span(k.y).flat_map(move |y| span(k.z).map(move |z| VoxelKey { x, y, z }))
                })
            })
            .collect();
        cells.sort_unstable();
        cells.dedup();
        cells
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
        // A second scan adds a nearer blob; going back removes it again.
        base.integrate_cloud(
            &PointCloud::new(
                origin,
                vec![Vec3::new(4.0, 1.0, 5.0), Vec3::new(4.3, 1.0, 5.0)],
            ),
            0.3,
        );
        let map2 = PlannerMap::export(&base, &ExportConfig::new(0.3, 1e9, origin));
        let delta = map2.delta_from(&map1).unwrap();
        assert!(!delta.added().is_empty() && delta.removed().is_empty());

        let mut patched = CollisionChecker::new(map1.clone(), 0.45, 0.3);
        patched.prebuild_broad_phase();
        assert_regions_consistent(&patched);
        let probe = |checker: &mut CollisionChecker, map: &PlannerMap| {
            for xi in 0..40 {
                for yi in -12..=12 {
                    let p = Vec3::new(xi as f64 * 0.5, yi as f64 * 0.5, 5.0);
                    assert_eq!(
                        checker.point_free(p),
                        point_free_reference(map, p, 0.45),
                        "patched checker mismatch at {p}"
                    );
                }
            }
        };
        // Additions only: the patched cover is the rebuild's.
        patched.update_map(map2.clone());
        assert_regions_consistent(&patched);
        let mut rebuilt = CollisionChecker::new(map2.clone(), 0.45, 0.3);
        rebuilt.prebuild_broad_phase();
        assert_regions_consistent(&rebuilt);
        assert_eq!(patched.broad_phase_cells(), rebuilt.broad_phase_cells());
        assert_eq!(
            rebuilt.broad_phase_cells(),
            Some(cube_union(&map2, map2.reach(0.45)))
        );
        probe(&mut patched, &map2);
        // A removal leaves its cover in place: the cover stays map2's, a
        // superset of map1's, and every answer stays exact.
        patched.update_map(map1.clone());
        assert_regions_consistent(&patched);
        assert_eq!(patched.broad_phase_cells(), rebuilt.broad_phase_cells());
        probe(&mut patched, &map1);
        assert_regions_consistent(&patched);
    }

    fn assert_regions_consistent(checker: &CollisionChecker) {
        let grid = checker.broad_phase.as_ref().expect("built broad phase");
        assert!(grid.regions_consistent(), "region index out of step");
    }

    /// The cells of [`PlannerMap::dilated`], sorted.
    fn dilated_cells(map: &PlannerMap, reach: i64) -> Vec<VoxelKey> {
        let mut cells: Vec<VoxelKey> = map
            .dilated(reach)
            .into_iter()
            .flat_map(|(block, mask)| mask_keys(block, mask))
            .collect();
        cells.sort_unstable();
        cells
    }

    #[test]
    fn sparse_refreshes_cover_exactly_the_dilated_map() {
        // Keys a few cells either side of the block edges at -8, 0 and 8,
        // added a handful per refresh, then a column along z across two
        // of those edges, which the refresh covers a run at a time; at
        // 2.5 m the reach is 9 cells, so each cube spans three blocks per
        // axis.
        let edges = [-17, -9, -8, -1, 0, 7, 8, 16];
        let key = |i: usize| match i {
            0..12 => VoxelKey {
                x: edges[i % 8],
                y: edges[(i * 3 + 1) % 8] + (i % 3) as i64,
                z: edges[(i * 5 + 2) % 8] - (i % 2) as i64,
            },
            _ => VoxelKey {
                x: -1,
                y: 7,
                z: i as i64 - 22,
            },
        };
        for margin in [0.45, 2.5] {
            let mut checker = CollisionChecker::new(
                PlannerMap::from_keys(0.3, Vec3::ZERO, [key(0)]),
                margin,
                0.3,
            );
            checker.prebuild_broad_phase();
            let reach = checker.map().reach(margin);
            for added in [2, 4, 7, 12, 24] {
                let map = PlannerMap::from_keys(0.3, Vec3::ZERO, (0..added).map(key));
                let delta = map.delta_from(checker.map()).unwrap();
                assert!(delta.removed().is_empty() && !delta.added().is_empty());
                checker.update_map(map.clone());
                assert_eq!(
                    checker.broad_phase_cells(),
                    Some(dilated_cells(&map, reach)),
                    "margin {margin}, {added} keys"
                );
                assert_regions_consistent(&checker);
            }
            assert!(margin < 1.0 || reach >= 8);
        }
    }

    #[test]
    fn update_map_drops_the_cached_block_between_segments() {
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let mut base = OccupancyMap::new(0.3);
        base.integrate_cloud(
            &PointCloud::new(origin, vec![Vec3::new(10.0, 0.0, 5.0)]),
            0.3,
        );
        let map1 = PlannerMap::export(&base, &ExportConfig::new(0.3, 1e9, origin));
        let mut checker = CollisionChecker::new(map1, 0.45, 0.3);
        checker.prebuild_broad_phase();
        // Both segments run inside the block x ∈ [2.4, 4.8), y ∈ [0, 2.4),
        // z ∈ [4.8, 7.2) of the 0.3 m export; the first leaves its covered
        // mask (empty: no box near) cached.
        let (a, b) = (Vec3::new(4.0, 1.0, 5.0), Vec3::new(4.4, 1.6, 5.6));
        assert!(checker.segment_free(a, b));
        // A box appears inside that block between the two segments.
        base.integrate_cloud(&PointCloud::new(origin, vec![a]), 0.3);
        let map2 = PlannerMap::export(&base, &ExportConfig::new(0.3, 1e9, origin));
        assert!(map2.delta_from(checker.map()).is_some());
        checker.update_map(map2.clone());
        assert!(!point_free_reference(&map2, a, 0.45));
        assert!(
            !checker.segment_free(a, b),
            "a stale cached mask passed the new box"
        );
        // The cache is invisible to equality: same map, same query count,
        // different last blocks.
        let mut other = CollisionChecker::new(map2, 0.45, 0.3);
        other.prebuild_broad_phase();
        for _ in 0..checker.queries() {
            other.point_free(Vec3::new(-30.0, -30.0, 5.0));
        }
        assert_eq!(checker, other);
    }

    #[test]
    fn wide_margin_cover_matches_the_reference_across_negative_block_edges() {
        // Boxes straddling the block edges at key -8 (x, z) and 0 (y),
        // checked with a margin of more than 8 voxels: every box's cover
        // spans three or more blocks per axis and overlaps every other's.
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
        assert!(map.reach(margin) > 8);

        let mut checker = CollisionChecker::new(map.clone(), margin, voxel);
        checker.prebuild_broad_phase();
        assert_eq!(
            checker.broad_phase_cells(),
            Some(cube_union(&map, map.reach(margin)))
        );
        for i in 0..12 * 12 * 12 {
            let step = |j: i32| -7.0 + j as f64 * 0.61;
            let p = Vec3::new(step(i / 144), step(i / 12 % 12) + 3.1, step(i % 12));
            assert_eq!(
                checker.point_free(p),
                point_free_reference(&map, p, margin),
                "mismatch at {p}"
            );
        }
        // Removing every box leaves more stale voxels than the map has, so
        // the cover is rebuilt empty.
        checker.update_map(PlannerMap::empty(voxel));
        assert_eq!(checker.broad_phase_cells(), Some(Vec::new()));
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
        for _ in 0..LAZY_BUILD_QUERIES {
            checker.point_free(Vec3::ZERO);
        }
        checker.update_map(map_coarse.clone());
        // The broad phase was dropped (incompatible voxel size), is rebuilt
        // lazily as for a fresh checker, and answers match the reference
        // before and after.
        for i in 0..LAZY_BUILD_QUERIES {
            assert!(checker.broad_phase_cells().is_none());
            let p = Vec3::new((i % 30) as f64 * 0.7, 0.3, 5.0);
            assert_eq!(
                checker.point_free(p),
                point_free_reference(&map_coarse, p, 0.45)
            );
        }
        assert_eq!(
            checker.broad_phase_cells(),
            Some(cube_union(&map_coarse, map_coarse.reach(0.45)))
        );
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
