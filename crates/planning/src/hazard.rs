//! Hazard-source composition: one validity context for every collision
//! consumer.
//!
//! "Is this point/path safe?" has one answer for every consumer — the
//! RRT* search, the mission cycle's blockage detection and its fresh-plan
//! veto:
//!
//! * [`HazardSource`] — the query interface every consumer plans and
//!   validates against (point and segment validity plus a work counter).
//!   The static [`CollisionChecker`] is one source; the composed
//!   [`HazardContext`] is another.
//! * [`PredictedHazards`] — the *soft* source: time-free axis-aligned
//!   boxes (conservative predicted occupancy of moving obstacles over a
//!   lookahead horizon) with **their own clearance margin**, an origin and
//!   a relevance range. Points farther than `max_range` from the origin
//!   are never blocked: the MAV cannot reach them within the prediction
//!   horizon, and the boxes say nothing about the world beyond it.
//! * [`HazardContext`] — the composition: a point or segment is free iff
//!   the static checker frees it **and** it clears the predicted set.
//!   With an empty predicted set the context is bit-identical to the bare
//!   checker (same booleans, same query count), which is what keeps
//!   static missions byte-for-byte unchanged.
//!
//! # The contract (who composes, who patches, margin semantics)
//!
//! *Composition* happens once per decision, in the mission cycle: the
//! long-lived static checker (patched from the [`PlannerMapDelta`]
//! between exports — see [`CollisionChecker::update_map`]) is composed
//! with the decision's [`PredictedHazards`]. *Patching* mirrors the
//! static side on the predicted side:
//! [`PredictedHazards::retarget`] diffs the new per-actor box list
//! against the previous one and patches only the changed entries (and,
//! when built, their grid cells) — the predicted analogue of the
//! key-level `PlannerMapDelta` patch.
//!
//! *Margins* stay separate by design. The static checker's margin is the
//! MAV body clearance around **observed** voxels, fixed at construction
//! (it shapes the broad-phase). The predicted clearance is the softer
//! standoff from a box an actor *may* reach — the mission cycle uses
//! `planning_margin * 0.6`, the same clearance its posterior trajectory
//! validation uses, so a plan accepted by the composed context is never
//! immediately re-flagged by the very prediction it was planned against.
//!
//! Polyline *sampling* also lives here, once: the posterior checks
//! ([`polyline_clear_of_boxes`], [`first_polyline_conflict`]) and the
//! grid-accelerated [`PredictedHazards`] walks share one driver and one
//! per-point predicate, so the planner-side and validation-side notions
//! of "clear" cannot drift.
//!
//! [`PlannerMapDelta`]: roborun_perception::PlannerMapDelta

use crate::CollisionChecker;
use roborun_geom::{ceil_steps, Aabb, FxHashMap, Vec3, VoxelKey};

/// Minimum spacing between interpolated samples on predicted-hazard
/// polyline walks (metres): a crossing actor must not slip between two
/// widely spaced waypoints, but sampling finer than a quarter metre buys
/// nothing against metre-scale boxes.
const MIN_SAMPLE_STEP: f64 = 0.25;

/// Box count at which [`PredictedHazards`] builds its candidate grid.
/// Below it a linear scan over the boxes wins (the grid's hash probe
/// costs as much as a handful of exact distance tests).
const GRID_BUILD_THRESHOLD: usize = 16;

/// Cell size of the predicted-hazard candidate grid (metres) — coarse,
/// because predicted boxes are metres wide and few cells should be
/// touched per insertion.
const GRID_CELL: f64 = 6.0;

/// A source of collision/validity answers the planner and the validators
/// query. Implemented by the static [`CollisionChecker`] and by the
/// composed [`HazardContext`]; the RRT* search and
/// [`crate::Planner::plan_with_checker`] are generic over it.
pub trait HazardSource {
    /// `true` when the point is free of every hazard the source knows.
    fn point_free(&mut self, p: Vec3) -> bool;
    /// `true` when the straight segment from `a` to `b` is free, sampled
    /// at the source's own discipline.
    fn segment_free(&mut self, a: Vec3, b: Vec3) -> bool;
    /// Number of point queries answered so far (work metric).
    fn queries(&self) -> usize;
    /// Axis-aligned soft-hazard boxes a sampler may bias around, or the
    /// empty slice when the source has no region structure to expose
    /// (the default — the static [`CollisionChecker`] sees only voxels).
    /// Purely advisory: validity still comes from the query methods, so
    /// a stale or empty answer can never make a plan unsafe, only less
    /// focused. The composed [`HazardContext`] exposes its predicted box
    /// set, which is what drives the RRT* gap-biased sampling mix (see
    /// [`crate::rrtstar::SamplingMix`]).
    fn bias_boxes(&self) -> &[Aabb] {
        &[]
    }
}

impl HazardSource for CollisionChecker {
    fn point_free(&mut self, p: Vec3) -> bool {
        CollisionChecker::point_free(self, p)
    }

    fn segment_free(&mut self, a: Vec3, b: Vec3) -> bool {
        CollisionChecker::segment_free(self, a, b)
    }

    fn queries(&self) -> usize {
        CollisionChecker::queries(self)
    }
}

// ---------------------------------------------------------------------------
// The shared polyline walk + per-point predicate
// ---------------------------------------------------------------------------

/// Walks a polyline, visiting every vertex plus interpolated samples at
/// most `step` apart along each segment, until `visit` returns `false`.
/// Returns `true` when every visited sample passed. The single sampling
/// driver behind every predicted-hazard path check.
fn walk_polyline(
    points: impl IntoIterator<Item = Vec3>,
    step: f64,
    mut visit: impl FnMut(Vec3) -> bool,
) -> bool {
    let mut prev: Option<Vec3> = None;
    for p in points {
        match prev {
            None => {
                if !visit(p) {
                    return false;
                }
            }
            Some(a) => {
                let length = a.distance(p);
                let segments = ceil_steps(length / step);
                for i in 1..=segments {
                    if !visit(a.lerp(p, i as f64 / segments as f64)) {
                        return false;
                    }
                }
            }
        }
        prev = Some(p);
    }
    true
}

/// The single per-point predicate: `p` is blocked when it lies within
/// `max_range` of `origin` **and** within `clearance` of any box.
#[inline]
fn point_blocked_linear(
    boxes: &[Aabb],
    clearance: f64,
    origin: Vec3,
    max_range: f64,
    p: Vec3,
) -> bool {
    if boxes.is_empty() || p.distance(origin) > max_range {
        return false;
    }
    boxes.iter().any(|b| b.distance_to_point(p) <= clearance)
}

/// `true` when the polyline through `points` stays clear of every box by
/// more than `clearance` within `max_range` of `origin` — the posterior
/// check a finished plan must pass. Sampled
/// densely (at most `max(clearance, 0.25)` m apart) so a crossing actor
/// cannot slip between two waypoints.
pub fn polyline_clear_of_boxes(
    points: impl IntoIterator<Item = Vec3>,
    boxes: &[Aabb],
    clearance: f64,
    origin: Vec3,
    max_range: f64,
) -> bool {
    if boxes.is_empty() {
        return true;
    }
    walk_polyline(points, clearance.max(MIN_SAMPLE_STEP), |p| {
        !point_blocked_linear(boxes, clearance, origin, max_range, p)
    })
}

/// The first sample of the polyline through `points` that is blocked by
/// a box (within `clearance`, inside `max_range` of `origin`), or `None`
/// when the whole polyline is clear. Same sampling discipline as
/// [`polyline_clear_of_boxes`].
pub fn first_polyline_conflict(
    points: impl IntoIterator<Item = Vec3>,
    boxes: &[Aabb],
    clearance: f64,
    origin: Vec3,
    max_range: f64,
) -> Option<Vec3> {
    if boxes.is_empty() {
        return None;
    }
    let mut conflict: Option<Vec3> = None;
    walk_polyline(points, clearance.max(MIN_SAMPLE_STEP), |p| {
        if point_blocked_linear(boxes, clearance, origin, max_range, p) {
            conflict = Some(p);
            false
        } else {
            true
        }
    });
    conflict
}

// ---------------------------------------------------------------------------
// PredictedHazards
// ---------------------------------------------------------------------------

/// The candidate grid over the predicted boxes: every cell of the
/// `GRID_CELL` lattice overlapped by a box's clearance-inflated bounds
/// lists that box's index, so a point query touches one hash probe plus
/// exact distance tests instead of every box. Exact because a point
/// within `clearance` of a box lies inside its inflated bounds, hence
/// inside a registered cell.
#[derive(Debug, Clone, PartialEq)]
struct SoftGrid {
    candidates: FxHashMap<VoxelKey, Vec<u32>>,
}

impl SoftGrid {
    fn cell_range(b: &Aabb, clearance: f64) -> (VoxelKey, VoxelKey) {
        let inflated = b.inflate(clearance);
        (
            VoxelKey::from_point(inflated.min, GRID_CELL),
            VoxelKey::from_point(inflated.max, GRID_CELL),
        )
    }

    fn build(boxes: &[Aabb], clearance: f64) -> Self {
        let mut grid = SoftGrid {
            candidates: FxHashMap::default(),
        };
        for (i, b) in boxes.iter().enumerate() {
            grid.insert_box(i as u32, b, clearance);
        }
        grid
    }

    fn insert_box(&mut self, index: u32, b: &Aabb, clearance: f64) {
        let (lo, hi) = SoftGrid::cell_range(b, clearance);
        for x in lo.x..=hi.x {
            for y in lo.y..=hi.y {
                for z in lo.z..=hi.z {
                    self.candidates
                        .entry(VoxelKey { x, y, z })
                        .or_default()
                        .push(index);
                }
            }
        }
    }

    fn remove_box(&mut self, index: u32, b: &Aabb, clearance: f64) {
        let (lo, hi) = SoftGrid::cell_range(b, clearance);
        for x in lo.x..=hi.x {
            for y in lo.y..=hi.y {
                for z in lo.z..=hi.z {
                    let cell = VoxelKey { x, y, z };
                    if let Some(ids) = self.candidates.get_mut(&cell) {
                        ids.retain(|&i| i != index);
                        if ids.is_empty() {
                            self.candidates.remove(&cell);
                        }
                    }
                }
            }
        }
    }

    /// Exact `any box within clearance` via the candidate cell.
    fn blocked(&self, boxes: &[Aabb], clearance: f64, p: Vec3) -> bool {
        let key = VoxelKey::from_point(p, GRID_CELL);
        let Some(ids) = self.candidates.get(&key) else {
            return false;
        };
        ids.iter()
            .any(|&i| boxes[i as usize].distance_to_point(p) <= clearance)
    }
}

/// The predicted (soft) hazard source: conservative moving-obstacle boxes
/// over a lookahead horizon, with their own clearance margin and a
/// relevance range around an origin (see the module docs for the
/// contract). Built once per mission and *retargeted* every decision —
/// an incremental patch mirroring the static checker's map delta.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictedHazards {
    boxes: Vec<Aabb>,
    clearance: f64,
    origin: Vec3,
    max_range: f64,
    grid: Option<SoftGrid>,
}

impl PredictedHazards {
    /// A source with no boxes: nothing is ever blocked.
    pub fn empty() -> Self {
        PredictedHazards {
            boxes: Vec::new(),
            clearance: 0.0,
            origin: Vec3::ZERO,
            max_range: 0.0,
            grid: None,
        }
    }

    /// Creates a source over `boxes` with the given clearance margin,
    /// origin and relevance range. The candidate grid is built when the
    /// box count reaches the amortisation threshold.
    ///
    /// # Panics
    ///
    /// Panics if `clearance < 0` or `max_range < 0`.
    pub fn new(boxes: Vec<Aabb>, clearance: f64, origin: Vec3, max_range: f64) -> Self {
        assert!(
            clearance >= 0.0,
            "clearance must be non-negative, got {clearance}"
        );
        assert!(
            max_range >= 0.0,
            "max range must be non-negative, got {max_range}"
        );
        let grid =
            (boxes.len() >= GRID_BUILD_THRESHOLD).then(|| SoftGrid::build(&boxes, clearance));
        PredictedHazards {
            boxes,
            clearance,
            origin,
            max_range,
            grid,
        }
    }

    /// `true` when the source holds no boxes.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// The predicted boxes.
    pub fn boxes(&self) -> &[Aabb] {
        &self.boxes
    }

    /// The clearance margin (metres).
    pub fn clearance(&self) -> f64 {
        self.clearance
    }

    /// The relevance-range origin (the MAV position of the decision).
    pub fn origin(&self) -> Vec3 {
        self.origin
    }

    /// The relevance range (metres).
    pub fn max_range(&self) -> f64 {
        self.max_range
    }

    /// Re-points the source at a fresh decision: new per-actor boxes, new
    /// origin and range. The box list is *diffed* against the previous
    /// one — unchanged entries (bitwise-equal bounds) are left alone, and
    /// the candidate grid, when built, is patched only for the entries
    /// that moved (the predicted analogue of the static checker's
    /// [`PlannerMapDelta`](roborun_perception::PlannerMapDelta) patch).
    /// A change in box *count* rebuilds from scratch, exactly like a
    /// voxel-size change drops the static broad-phase.
    pub fn retarget(&mut self, new_boxes: &[Aabb], origin: Vec3, max_range: f64) {
        assert!(
            max_range >= 0.0,
            "max range must be non-negative, got {max_range}"
        );
        self.origin = origin;
        self.max_range = max_range;
        if new_boxes.len() != self.boxes.len() {
            self.boxes = new_boxes.to_vec();
            self.grid = (self.boxes.len() >= GRID_BUILD_THRESHOLD)
                .then(|| SoftGrid::build(&self.boxes, self.clearance));
            return;
        }
        for (i, b) in new_boxes.iter().enumerate() {
            if self.boxes[i] == *b {
                continue;
            }
            if let Some(grid) = self.grid.as_mut() {
                grid.remove_box(i as u32, &self.boxes[i], self.clearance);
                grid.insert_box(i as u32, b, self.clearance);
            }
            self.boxes[i] = *b;
        }
    }

    /// `true` when `p` is within the relevance range **and** within the
    /// clearance of any box — exactly the shared linear predicate,
    /// answered through the candidate grid when built.
    pub fn point_blocked(&self, p: Vec3) -> bool {
        if self.boxes.is_empty() || p.distance(self.origin) > self.max_range {
            return false;
        }
        match &self.grid {
            Some(grid) => grid.blocked(&self.boxes, self.clearance, p),
            None => self
                .boxes
                .iter()
                .any(|b| b.distance_to_point(p) <= self.clearance),
        }
    }

    /// `true` when any box lies within `dist` of `p`, ignoring the
    /// relevance range — the *in danger* point test (is the MAV's own
    /// position inside the predicted occupancy?), which uses the full
    /// planning margin rather than the softer path clearance.
    pub fn any_within(&self, p: Vec3, dist: f64) -> bool {
        self.boxes.iter().any(|b| b.distance_to_point(p) <= dist)
    }

    /// [`polyline_clear_of_boxes`] over this source's boxes, clearance,
    /// origin and range (grid-accelerated when built).
    pub fn path_clear(&self, points: impl IntoIterator<Item = Vec3>) -> bool {
        if self.boxes.is_empty() {
            return true;
        }
        walk_polyline(points, self.clearance.max(MIN_SAMPLE_STEP), |p| {
            !self.point_blocked(p)
        })
    }

    /// [`first_polyline_conflict`] over this source's boxes, clearance,
    /// origin and range (grid-accelerated when built).
    pub fn first_conflict(&self, points: impl IntoIterator<Item = Vec3>) -> Option<Vec3> {
        if self.boxes.is_empty() {
            return None;
        }
        let mut conflict: Option<Vec3> = None;
        walk_polyline(points, self.clearance.max(MIN_SAMPLE_STEP), |p| {
            if self.point_blocked(p) {
                conflict = Some(p);
                false
            } else {
                true
            }
        });
        conflict
    }

    /// Forces the candidate grid to exist regardless of the box count.
    /// Exposed for the equivalence tests, which must exercise the grid
    /// path on small adversarial sets too.
    #[doc(hidden)]
    pub fn force_grid(&mut self) {
        if self.grid.is_none() {
            self.grid = Some(SoftGrid::build(&self.boxes, self.clearance));
        }
    }

    /// Canonical view of the candidate grid cells (sorted), or `None`
    /// while unbuilt — for the retarget-vs-rebuild conformance tests.
    #[doc(hidden)]
    pub fn grid_cells(&self) -> Option<Vec<(VoxelKey, Vec<u32>)>> {
        self.grid.as_ref().map(|grid| {
            let mut cells: Vec<(VoxelKey, Vec<u32>)> = grid
                .candidates
                .iter()
                .map(|(cell, ids)| {
                    let mut ids = ids.clone();
                    ids.sort_unstable();
                    (*cell, ids)
                })
                .collect();
            cells.sort_unstable_by_key(|(cell, _)| *cell);
            cells
        })
    }
}

// ---------------------------------------------------------------------------
// HazardContext
// ---------------------------------------------------------------------------

/// The composed hazard source: the static [`CollisionChecker`] over the
/// exported map **and** the decision's [`PredictedHazards`]. A point or
/// segment is free iff both sources free it; the static source is always
/// queried first (it is the cheaper reject in cluttered space, and it
/// keeps the static query count identical to a bare-checker run when the
/// predicted set is empty).
///
/// Planning through the composed context is what turns the predicted
/// boxes into a *costmap the planner sees*: RRT* edges that cross a
/// predicted lane fail their validity check during the search, so the
/// plan routes around the lane in one shot instead of converging on it
/// by posterior rejection.
pub struct HazardContext<'a> {
    checker: &'a mut CollisionChecker,
    predicted: &'a PredictedHazards,
    predicted_queries: usize,
}

impl<'a> HazardContext<'a> {
    /// Composes the two sources for one planning invocation.
    pub fn new(checker: &'a mut CollisionChecker, predicted: &'a PredictedHazards) -> Self {
        HazardContext {
            checker,
            predicted,
            predicted_queries: 0,
        }
    }

    /// Samples the predicted source along `a → b` at the static
    /// checker's own step, mirroring
    /// [`CollisionChecker::segment_free`]'s discipline so no lane can
    /// slip between two samples the static side would have taken.
    fn predicted_segment_clear(&mut self, a: Vec3, b: Vec3) -> bool {
        let length = a.distance(b);
        if length < 1e-9 {
            self.predicted_queries += 1;
            return !self.predicted.point_blocked(a);
        }
        let step = self
            .checker
            .check_step()
            .min(self.predicted.clearance().max(MIN_SAMPLE_STEP));
        // Guarded like every other hazard walker: at least one step, so
        // both endpoints are sampled even when the ratio degenerates.
        let steps = ceil_steps(length / step);
        for i in 0..=steps {
            self.predicted_queries += 1;
            if self
                .predicted
                .point_blocked(a.lerp(b, i as f64 / steps as f64))
            {
                return false;
            }
        }
        true
    }
}

impl HazardSource for HazardContext<'_> {
    fn point_free(&mut self, p: Vec3) -> bool {
        if !CollisionChecker::point_free(self.checker, p) {
            return false;
        }
        if self.predicted.is_empty() {
            return true;
        }
        self.predicted_queries += 1;
        !self.predicted.point_blocked(p)
    }

    fn segment_free(&mut self, a: Vec3, b: Vec3) -> bool {
        if !CollisionChecker::segment_free(self.checker, a, b) {
            return false;
        }
        if self.predicted.is_empty() {
            return true;
        }
        self.predicted_segment_clear(a, b)
    }

    fn queries(&self) -> usize {
        CollisionChecker::queries(self.checker) + self.predicted_queries
    }

    fn bias_boxes(&self) -> &[Aabb] {
        self.predicted.boxes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roborun_geom::SplitMix64;
    use roborun_perception::PlannerMap;

    fn lane() -> Aabb {
        Aabb::new(Vec3::new(10.0, -12.0, 0.0), Vec3::new(12.0, 12.0, 10.0))
    }

    #[test]
    fn empty_hazards_block_nothing() {
        let h = PredictedHazards::empty();
        assert!(h.is_empty());
        assert!(!h.point_blocked(Vec3::ZERO));
        assert!(h.path_clear([Vec3::ZERO, Vec3::new(100.0, 0.0, 0.0)]));
        assert_eq!(
            h.first_conflict([Vec3::ZERO, Vec3::new(100.0, 0.0, 0.0)]),
            None
        );
        assert!(!h.any_within(Vec3::ZERO, 1e9));
    }

    #[test]
    fn point_blocked_respects_clearance_and_range() {
        let h = PredictedHazards::new(vec![lane()], 0.5, Vec3::new(0.0, 0.0, 5.0), 15.0);
        // Inside the box and in range.
        assert!(h.point_blocked(Vec3::new(11.0, 0.0, 5.0)));
        // Within clearance of the face.
        assert!(h.point_blocked(Vec3::new(9.6, 0.0, 5.0)));
        // Beyond clearance.
        assert!(!h.point_blocked(Vec3::new(9.0, 0.0, 5.0)));
        // Inside the box but out of range from the origin.
        assert!(!h.point_blocked(Vec3::new(11.0, 11.0, 5.0)));
        // The in-danger test ignores the range.
        assert!(h.any_within(Vec3::new(11.0, 11.0, 5.0), 0.0));
    }

    #[test]
    fn grid_and_linear_answers_agree() {
        let mut rng = SplitMix64::new(77);
        let mut boxes = Vec::new();
        for _ in 0..40 {
            let c = Vec3::new(
                rng.uniform(-40.0, 40.0),
                rng.uniform(-40.0, 40.0),
                rng.uniform(0.0, 12.0),
            );
            let half = Vec3::new(
                rng.uniform(0.3, 3.0),
                rng.uniform(0.3, 3.0),
                rng.uniform(0.3, 5.0),
            );
            boxes.push(Aabb::from_center_half_extents(c, half));
        }
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let gridded = PredictedHazards::new(boxes.clone(), 0.45, origin, 60.0);
        assert!(
            gridded.grid_cells().is_some(),
            "40 boxes should build the grid"
        );
        for _ in 0..500 {
            let p = Vec3::new(
                rng.uniform(-50.0, 50.0),
                rng.uniform(-50.0, 50.0),
                rng.uniform(-2.0, 14.0),
            );
            assert_eq!(
                gridded.point_blocked(p),
                point_blocked_linear(&boxes, 0.45, origin, 60.0, p),
                "grid/linear mismatch at {p}"
            );
        }
    }

    #[test]
    fn retarget_patch_matches_fresh_build() {
        let mut rng = SplitMix64::new(5);
        let mk_box = |rng: &mut SplitMix64| {
            Aabb::from_center_half_extents(
                Vec3::new(
                    rng.uniform(-30.0, 30.0),
                    rng.uniform(-30.0, 30.0),
                    rng.uniform(0.0, 10.0),
                ),
                Vec3::splat(rng.uniform(0.5, 2.5)),
            )
        };
        let boxes: Vec<Aabb> = (0..24).map(|_| mk_box(&mut rng)).collect();
        let mut patched = PredictedHazards::new(boxes.clone(), 0.6, Vec3::ZERO, 100.0);
        // Several decisions: a few boxes move each time, the rest hold.
        let mut current = boxes;
        for step in 0..6 {
            for (i, b) in current.iter_mut().enumerate() {
                if (i + step) % 3 == 0 {
                    *b = mk_box(&mut rng);
                }
            }
            let origin = Vec3::new(step as f64, 0.0, 5.0);
            patched.retarget(&current, origin, 80.0);
            let fresh = PredictedHazards::new(current.clone(), 0.6, origin, 80.0);
            assert_eq!(patched.grid_cells(), fresh.grid_cells(), "step {step}");
            assert_eq!(patched.boxes(), fresh.boxes());
            for _ in 0..100 {
                let p = Vec3::new(
                    rng.uniform(-40.0, 40.0),
                    rng.uniform(-40.0, 40.0),
                    rng.uniform(-2.0, 12.0),
                );
                assert_eq!(patched.point_blocked(p), fresh.point_blocked(p));
            }
        }
        // A count change rebuilds.
        current.push(mk_box(&mut rng));
        patched.retarget(&current, Vec3::ZERO, 80.0);
        let fresh = PredictedHazards::new(current.clone(), 0.6, Vec3::ZERO, 80.0);
        assert_eq!(patched.grid_cells(), fresh.grid_cells());
    }

    #[test]
    fn polyline_helpers_match_the_hazard_walks() {
        let boxes = vec![lane()];
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let mut h = PredictedHazards::new(boxes.clone(), 0.5, origin, 40.0);
        h.force_grid();
        let through = [Vec3::new(0.0, 0.0, 5.0), Vec3::new(25.0, 0.0, 5.0)];
        let around = [Vec3::new(0.0, -20.0, 5.0), Vec3::new(4.0, -20.0, 5.0)];
        assert!(!h.path_clear(through));
        assert!(h.path_clear(around));
        assert_eq!(
            h.path_clear(through),
            polyline_clear_of_boxes(through, &boxes, 0.5, origin, 40.0)
        );
        assert_eq!(
            h.first_conflict(through),
            first_polyline_conflict(through, &boxes, 0.5, origin, 40.0)
        );
        assert_eq!(
            first_polyline_conflict(around, &boxes, 0.5, origin, 40.0),
            None
        );
    }

    #[test]
    fn composed_context_with_empty_predicted_is_the_bare_checker() {
        let empty = PredictedHazards::empty();
        let mut bare = CollisionChecker::new(PlannerMap::empty(0.3), 0.45, 0.5);
        let mut composed_inner = CollisionChecker::new(PlannerMap::empty(0.3), 0.45, 0.5);
        let mut ctx = HazardContext::new(&mut composed_inner, &empty);
        let a = Vec3::new(0.0, 0.0, 5.0);
        let b = Vec3::new(30.0, 4.0, 5.0);
        assert_eq!(
            HazardSource::segment_free(&mut bare, a, b),
            HazardSource::segment_free(&mut ctx, a, b)
        );
        assert_eq!(HazardSource::queries(&bare), HazardSource::queries(&ctx));
    }

    #[test]
    fn composed_context_rejects_predicted_lanes() {
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let h = PredictedHazards::new(vec![lane()], 0.5, origin, 40.0);
        let mut checker = CollisionChecker::new(PlannerMap::empty(0.3), 0.45, 0.5);
        let mut ctx = HazardContext::new(&mut checker, &h);
        assert!(!HazardSource::segment_free(
            &mut ctx,
            origin,
            Vec3::new(25.0, 0.0, 5.0)
        ));
        assert!(HazardSource::segment_free(
            &mut ctx,
            Vec3::new(0.0, -20.0, 5.0),
            Vec3::new(8.0, -20.0, 5.0)
        ));
        assert!(!HazardSource::point_free(
            &mut ctx,
            Vec3::new(11.0, 0.0, 5.0)
        ));
        assert!(ctx.queries() > 0);
    }

    #[test]
    #[should_panic(expected = "clearance")]
    fn negative_clearance_panics() {
        let _ = PredictedHazards::new(Vec::new(), -0.1, Vec3::ZERO, 1.0);
    }
}
