//! RRT* piece-wise planner with the planning volume operator.
//!
//! A from-scratch replacement for the OMPL RRT* planner the paper uses:
//! stochastic sampling inside a bounded exploration region, nearest-node
//! extension, cost-aware parent selection and rewiring (the * part), plus
//! the paper's **planning volume operator**: "RRT* sorts the points/paths
//! within the explored space and our volume monitor stops the search upon
//! exceeding the threshold" — implemented here by tracking the axis-aligned
//! volume of the explored tree and terminating growth when it exceeds the
//! governor's planner-volume knob.
//!
//! The tree's nearest/near queries run against a
//! [`roborun_geom::PointGridIndex`] that grows incrementally with the tree,
//! so a search over n samples costs ~O(n) instead of the O(n²) of the
//! retained linear scans. [`RrtStar::plan_linear_reference`] runs the same
//! search with linear neighbor scans; both paths share one generic core
//! and are specified to return bit-identical results (enforced by the
//! equivalence proptests in `tests/proptests.rs`).
//!
//! # The sampling mix
//!
//! Uniform sampling is the correctness baseline but wastes most of its
//! draws in lane-heavy scenes: a plan through a predicted crossing lane
//! only needs samples near the goal and in the *free flanks around the
//! lane*, yet uniform sampling spreads them over the whole corridor.
//! [`SamplingMix`] (off by default) splits the non-goal-biased draws
//! between a goal-region box, the gap regions flanking each hazard box
//! (derived per plan from [`HazardSource::bias_boxes`] — the
//! [`crate::HazardContext`]'s predicted box set), and the plain uniform
//! fallback. The bias is purely a *proposal* distribution: every edge
//! still passes the same validity checks, so the mix changes where the
//! tree grows, never what counts as free. With the mix off — or with no
//! hazard boxes composed — the sampler draws exactly the classic
//! `chance(goal_bias)` + `point_in_aabb(bounds)` stream, bit for bit.
//!
//! # The node arena and scratch reuse
//!
//! Tree nodes live in a node arena: one upfront allocation holding
//! positions, parent links and costs in struct-of-arrays layout, sized
//! for the sample budget at plan start. Nodes are append-only, ids are
//! dense `u32`s in insertion order, and rewiring mutates only
//! parent/cost — positions never move, so neighbor indices remain valid
//! for the whole plan. Each new node enters the neighbor index as soon
//! as it is pushed, so every sample's nearest/near queries see the whole
//! tree. The arena, the index and every per-plan buffer live in a
//! caller-owned [`PlannerScratch`]: a replanning mission hands the same
//! scratch to every [`RrtStar::plan_with_scratch`] call and allocates
//! nothing per decision once the buffers reach steady-state capacity.
//! Scratch contents never carry over between plans: every search starts
//! from a fresh root, bit-identical to [`RrtStar::plan`].

use crate::hazard::HazardSource;
use roborun_geom::{Aabb, PointGridIndex, SplitMix64, Vec3};
use serde::{Deserialize, Serialize};

/// Sampling-mix configuration: how RRT* splits its non-goal-biased draws
/// between hazard-derived regions and the uniform baseline.
///
/// When `enabled` (and the hazard source exposes at least one bias box),
/// each non-goal-biased draw picks, with probability `goal_region_weight`,
/// a point in the box of half-extent `goal_region_radius` around the goal
/// (clipped to the sampling bounds); with probability `gap_weight`, a
/// point in one of the *gap regions* — for every hazard box (clipped to
/// the sampling bounds) and every axis, the two boxes sharing the hazard
/// box's cross-section that extend a few meters outward from the hazard
/// face, i.e. exactly the free passages where a path around that box
/// turns its corner; and otherwise a uniform point in the sampling
/// bounds. Gap
/// regions are chosen with *equal probability per region*, not by
/// volume: a volume-weighted pick would reproduce near-uniform density
/// over the gap union (most of which is open corridor), while the equal
/// split concentrates proposal density in the small regions — the tight
/// passages the detour actually has to thread.
///
/// Off by default; with it off (or with no hazard boxes composed) the
/// sampler is bit-identical to the classic uniform draw.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplingMix {
    /// Master switch. `false` (the default) keeps the uniform sampler.
    pub enabled: bool,
    /// Probability mass of the goal-region draw, in [0, 1].
    pub goal_region_weight: f64,
    /// Probability mass of the gap-region draw, in [0, 1]
    /// (`goal_region_weight + gap_weight` must stay ≤ 1; the remainder
    /// is the uniform fallback).
    pub gap_weight: f64,
    /// Half-extent (metres) of the cubic goal region.
    pub goal_region_radius: f64,
}

impl Default for SamplingMix {
    fn default() -> Self {
        SamplingMix {
            enabled: false,
            goal_region_weight: 0.15,
            gap_weight: 0.55,
            goal_region_radius: 8.0,
        }
    }
}

impl SamplingMix {
    /// Validates the mix parameters.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, w) in [
            ("goal_region_weight", self.goal_region_weight),
            ("gap_weight", self.gap_weight),
        ] {
            if !(0.0..=1.0).contains(&w) {
                return Err(format!("{name} must be in [0,1], got {w}"));
            }
        }
        if self.goal_region_weight + self.gap_weight > 1.0 {
            return Err(format!(
                "goal_region_weight + gap_weight must be at most 1, got {}",
                self.goal_region_weight + self.gap_weight
            ));
        }
        if self.goal_region_radius.is_nan() || self.goal_region_radius <= 0.0 {
            return Err(format!(
                "goal_region_radius must be positive, got {}",
                self.goal_region_radius
            ));
        }
        Ok(())
    }
}

/// RRT* configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RrtConfig {
    /// Maximum number of samples drawn before giving up.
    pub max_samples: usize,
    /// Steering (edge) length in metres.
    pub steer_length: f64,
    /// Probability of sampling the goal directly (goal bias).
    pub goal_bias: f64,
    /// Radius used when searching for rewiring candidates.
    pub rewire_radius: f64,
    /// Distance at which the goal counts as reached.
    pub goal_tolerance: f64,
    /// Maximum explored volume (m³) — the planning volume knob.
    pub max_explored_volume: f64,
    /// Hazard-biased sampling mix (see [`SamplingMix`]). Off by default:
    /// the uniform sampler is the evaluated baseline and stays
    /// bit-identical when the mix is off or no hazard boxes are exposed.
    pub sampling_mix: SamplingMix,
    /// Random seed (explicit for reproducibility).
    pub seed: u64,
}

impl Default for RrtConfig {
    fn default() -> Self {
        RrtConfig {
            max_samples: 4000,
            steer_length: 6.0,
            goal_bias: 0.15,
            rewire_radius: 12.0,
            goal_tolerance: 2.0,
            max_explored_volume: 1.0e6,
            sampling_mix: SamplingMix::default(),
            seed: 1,
        }
    }
}

impl RrtConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_samples == 0 {
            return Err("max_samples must be at least 1".into());
        }
        if !(self.steer_length.is_finite() && self.steer_length > 0.0) {
            return Err(format!(
                "steer_length must be positive and finite, got {}",
                self.steer_length
            ));
        }
        if !(0.0..=1.0).contains(&self.goal_bias) {
            return Err(format!(
                "goal_bias must be in [0,1], got {}",
                self.goal_bias
            ));
        }
        if !(self.rewire_radius.is_finite() && self.rewire_radius > 0.0) {
            return Err(format!(
                "rewire_radius must be positive and finite, got {}",
                self.rewire_radius
            ));
        }
        if !(self.goal_tolerance.is_finite() && self.goal_tolerance > 0.0) {
            return Err(format!(
                "goal_tolerance must be positive and finite, got {}",
                self.goal_tolerance
            ));
        }
        // An infinite volume cap is valid: it disables the monitor.
        if self.max_explored_volume.is_nan() || self.max_explored_volume < 0.0 {
            return Err(format!(
                "max_explored_volume must be non-negative, got {}",
                self.max_explored_volume
            ));
        }
        self.sampling_mix.validate()
    }
}

/// Result of an RRT* search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RrtResult {
    /// Waypoints from start to goal (inclusive); empty when no path found.
    pub path: Vec<Vec3>,
    /// Path cost (length in metres); infinite when no path was found.
    pub cost: f64,
    /// Number of samples drawn.
    pub samples_drawn: usize,
    /// Number of nodes in the final tree.
    pub tree_size: usize,
    /// Axis-aligned volume of the explored tree (m³).
    pub explored_volume: f64,
    /// `true` when the search stopped because the volume monitor tripped.
    pub volume_capped: bool,
    /// Number of edges re-parented through a cheaper new node.
    pub rewires: usize,
}

impl RrtResult {
    /// `true` when a path to the goal was found.
    pub fn found(&self) -> bool {
        !self.path.is_empty()
    }
}

/// Parent sentinel of the tree root in [`NodeArena::parents`].
const NO_PARENT: u32 = u32::MAX;

/// Append-only tree storage in struct-of-arrays layout.
///
/// The arena contract: one upfront allocation sized for the sample
/// budget (no per-node reallocation on the hot path), dense `u32` ids in
/// insertion order that double as spatial-index ids, positions immutable
/// once pushed (so ids stored in the neighbor index never dangle), and
/// rewiring restricted to the `parents`/`costs` columns. The SoA split
/// keeps the nearest/near patch-up scans walking contiguous positions
/// without dragging parent links and costs through the cache.
#[derive(Debug, Clone, Default)]
struct NodeArena {
    positions: Vec<Vec3>,
    parents: Vec<u32>,
    costs: Vec<f64>,
}

impl NodeArena {
    fn clear(&mut self) {
        self.positions.clear();
        self.parents.clear();
        self.costs.clear();
    }

    fn reserve(&mut self, additional: usize) {
        self.positions.reserve(additional);
        self.parents.reserve(additional);
        self.costs.reserve(additional);
    }

    #[inline]
    fn len(&self) -> usize {
        self.positions.len()
    }

    #[inline]
    fn push(&mut self, position: Vec3, parent: u32, cost: f64) -> u32 {
        let id = self.positions.len() as u32;
        self.positions.push(position);
        self.parents.push(parent);
        self.costs.push(cost);
        id
    }

    #[inline]
    fn position(&self, id: u32) -> Vec3 {
        self.positions[id as usize]
    }

    #[inline]
    fn cost(&self, id: u32) -> f64 {
        self.costs[id as usize]
    }

    #[inline]
    fn parent(&self, id: u32) -> Option<u32> {
        let p = self.parents[id as usize];
        (p != NO_PARENT).then_some(p)
    }
}

/// Replaces one axis of `v` — the gap-region constructor's helper.
#[inline]
fn with_axis(v: Vec3, axis: usize, value: f64) -> Vec3 {
    match axis {
        0 => Vec3::new(value, v.y, v.z),
        1 => Vec3::new(v.x, value, v.z),
        _ => Vec3::new(v.x, v.y, value),
    }
}

/// How far a gap region extends away from the hazard face, in meters.
/// Without the clamp a flank spans to the sampling-bounds edge and is
/// mostly open corridor; the payoff volume — where a detour actually
/// turns the hazard's corner — hugs the face.
const GAP_REGION_DEPTH: f64 = 6.0;

/// Per-plan sampler state, derived once from the [`SamplingMix`] and the
/// hazard source's bias boxes (see the module docs). The gap-region boxes
/// themselves live in the caller's scratch buffer (hoisted out of the
/// per-plan allocation path) — [`Sampler::sample_target`] takes them as a
/// slice.
#[derive(Debug, Clone)]
enum Sampler {
    /// The classic draw: `chance(goal_bias)` then `point_in_aabb(bounds)`
    /// — the exact RNG stream of the pre-mix planner.
    Uniform,
    /// The hazard-biased mix. Invariants: `goal_w > 0` implies
    /// `goal_region` is real, `gap_w > 0` implies the caller's gap-region
    /// buffer is non-empty. Regions are picked with equal probability —
    /// small (tight-passage) regions deliberately get the same share of
    /// draws as wide-open flanks (see the [`SamplingMix`] docs).
    Mix {
        goal_region: Aabb,
        goal_w: f64,
        gap_w: f64,
    },
}

impl Sampler {
    /// Builds the sampler for one plan, filling `gap_regions` (a reused
    /// scratch buffer — cleared here) with the hazard flank boxes. Falls
    /// back to [`Sampler::Uniform`] when the mix is off, no hazard boxes
    /// are exposed, or no usable region survives clipping — the fallback
    /// draws the identical RNG stream to the pre-mix planner.
    fn for_plan(
        mix: &SamplingMix,
        goal: Vec3,
        bounds: &Aabb,
        hazard_boxes: &[Aabb],
        gap_regions: &mut Vec<Aabb>,
    ) -> Sampler {
        gap_regions.clear();
        if !mix.enabled || hazard_boxes.is_empty() {
            return Sampler::Uniform;
        }
        for hazard in hazard_boxes {
            let Some(clip) = hazard.intersection(bounds) else {
                continue;
            };
            for axis in 0..3 {
                // The two flanking boxes along this axis: the hazard
                // box's cross-section, extending [`GAP_REGION_DEPTH`]
                // meters outward from the hazard face (clamped to the
                // bounds edge). For a crossing lane these are exactly
                // the passage columns around the lane's ends.
                let flanks = [
                    (
                        (clip.min[axis] - GAP_REGION_DEPTH).max(bounds.min[axis]),
                        clip.min[axis],
                    ),
                    (
                        clip.max[axis],
                        (clip.max[axis] + GAP_REGION_DEPTH).min(bounds.max[axis]),
                    ),
                ];
                for (lo, hi) in flanks {
                    if hi - lo <= 1e-9 {
                        continue;
                    }
                    let region = Aabb {
                        min: with_axis(clip.min, axis, lo),
                        max: with_axis(clip.max, axis, hi),
                    };
                    if region.volume() > 1e-9 {
                        gap_regions.push(region);
                    }
                }
            }
        }
        let goal_region = Aabb::from_center_half_extents(goal, Vec3::splat(mix.goal_region_radius))
            .intersection(bounds);
        let goal_w = if goal_region.is_some() {
            mix.goal_region_weight
        } else {
            0.0
        };
        let gap_w = if gap_regions.is_empty() {
            0.0
        } else {
            mix.gap_weight
        };
        if goal_w <= 0.0 && gap_w <= 0.0 {
            return Sampler::Uniform;
        }
        Sampler::Mix {
            goal_region: goal_region.unwrap_or(*bounds),
            goal_w,
            gap_w,
        }
    }

    /// Draws one expansion target. `gap_regions` is the buffer
    /// [`Sampler::for_plan`] filled for this plan.
    fn sample_target(
        &self,
        rng: &mut SplitMix64,
        goal: Vec3,
        goal_bias: f64,
        bounds: &Aabb,
        gap_regions: &[Aabb],
    ) -> Vec3 {
        match self {
            Sampler::Uniform => {
                if rng.chance(goal_bias) {
                    goal
                } else {
                    rng.point_in_aabb(bounds)
                }
            }
            Sampler::Mix {
                goal_region,
                goal_w,
                gap_w,
            } => {
                if rng.chance(goal_bias) {
                    return goal;
                }
                let v = rng.next_f64();
                if v < *goal_w {
                    rng.point_in_aabb(goal_region)
                } else if v < goal_w + gap_w {
                    let pick = rng.next_f64() * gap_regions.len() as f64;
                    let idx = (pick as usize).min(gap_regions.len() - 1);
                    rng.point_in_aabb(&gap_regions[idx])
                } else {
                    rng.point_in_aabb(bounds)
                }
            }
        }
    }
}

/// Caller-owned scratch for [`RrtStar::plan_with_scratch`]: every
/// allocation the search needs — the node arena, the spatial index, and
/// the near-set / gap-region / linear-reference buffers — lives here and
/// is `clear()`-reused across plans, so a replanning mission allocates
/// nothing per decision once the buffers reach steady-state capacity.
#[derive(Debug, Clone)]
pub struct PlannerScratch {
    arena: NodeArena,
    grid: PointGridIndex,
    linear_points: Vec<Vec3>,
    near_buf: Vec<u32>,
    gap_regions: Vec<Aabb>,
    /// Plans after which some scratch buffer had to grow its capacity —
    /// zero in steady state.
    grow_events: u64,
}

impl Default for PlannerScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl PlannerScratch {
    /// Creates an empty scratch. The spatial-index cell size is set (and
    /// reset when the planner's rewire radius changes) per plan.
    pub fn new() -> Self {
        PlannerScratch {
            arena: NodeArena::default(),
            grid: PointGridIndex::new(1.0),
            linear_points: Vec::new(),
            near_buf: Vec::new(),
            gap_regions: Vec::new(),
            grow_events: 0,
        }
    }

    /// Plans after which some scratch buffer had to grow (zero once the
    /// buffers reach steady-state capacity).
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }

    /// Recreates the spatial index when the cell size changed.
    fn ensure_cell(&mut self, cell: f64) {
        if (self.grid.cell_size() - cell).abs() > 1e-12 {
            self.grid = PointGridIndex::new(cell);
        }
    }

    /// Resets the arena and the active neighbor store for a search rooted
    /// at `start`.
    fn reset(&mut self, start: Vec3, capacity: usize, linear: bool) {
        self.arena.clear();
        self.arena.reserve(capacity);
        self.arena.push(start, NO_PARENT, 0.0);
        if linear {
            self.linear_points.clear();
            self.linear_points.push(start);
        } else {
            self.grid.clear();
            self.grid.insert(start);
        }
    }

    /// Total buffer capacity (in elements) — compared across a plan to
    /// count growth events.
    fn footprint(&self) -> usize {
        self.arena.positions.capacity()
            + self.near_buf.capacity()
            + self.gap_regions.capacity()
            + self.linear_points.capacity()
    }
}

/// The RRT* planner.
#[derive(Debug, Clone)]
pub struct RrtStar {
    config: RrtConfig,
}

impl RrtStar {
    /// Creates a planner.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: RrtConfig) -> Self {
        config.validate().expect("invalid RRT* configuration");
        RrtStar { config }
    }

    /// The planner's configuration.
    pub fn config(&self) -> &RrtConfig {
        &self.config
    }

    /// Searches for a collision-free path from `start` to `goal` inside
    /// `sampling_bounds`, checking edges against `checker` — any
    /// [`HazardSource`], so the search sees predicted soft obstacles when
    /// handed the composed [`crate::HazardContext`] and only the static
    /// map when handed a bare [`crate::CollisionChecker`].
    ///
    /// Neighbor queries run against an incrementally grown grid index;
    /// the result is identical to [`RrtStar::plan_linear_reference`].
    pub fn plan<H: HazardSource>(
        &self,
        checker: &mut H,
        start: Vec3,
        goal: Vec3,
        sampling_bounds: &Aabb,
    ) -> RrtResult {
        let mut scratch = PlannerScratch::new();
        self.plan_with_scratch(checker, start, goal, sampling_bounds, &mut scratch)
    }

    /// [`RrtStar::plan`] against a caller-owned [`PlannerScratch`]: all
    /// search buffers are reused across calls (zero steady-state
    /// allocation); the result is bit-identical to [`RrtStar::plan`].
    pub fn plan_with_scratch<H: HazardSource>(
        &self,
        checker: &mut H,
        start: Vec3,
        goal: Vec3,
        sampling_bounds: &Aabb,
        scratch: &mut PlannerScratch,
    ) -> RrtResult {
        self.plan_impl(checker, start, goal, sampling_bounds, scratch, false)
    }

    /// The retained linear-scan reference: the same search with O(n)
    /// nearest/near scans per sample. Kept for the equivalence proptests
    /// and the kernel-scaling benches; prefer [`RrtStar::plan`].
    pub fn plan_linear_reference<H: HazardSource>(
        &self,
        checker: &mut H,
        start: Vec3,
        goal: Vec3,
        sampling_bounds: &Aabb,
    ) -> RrtResult {
        let mut scratch = PlannerScratch::new();
        self.plan_impl(checker, start, goal, sampling_bounds, &mut scratch, true)
    }

    /// Shared entry: direct-connection shortcut, then a reset of the
    /// scratch buffers, then the generic search loop. Linear mode is the
    /// equivalence-reference path.
    fn plan_impl<H: HazardSource>(
        &self,
        checker: &mut H,
        start: Vec3,
        goal: Vec3,
        sampling_bounds: &Aabb,
        scratch: &mut PlannerScratch,
        linear: bool,
    ) -> RrtResult {
        let cfg = &self.config;

        // Direct connection shortcut: open sky missions should not pay
        // for tree growth at all.
        if checker.segment_free(start, goal) {
            return RrtResult {
                path: vec![start, goal],
                cost: start.distance(goal),
                samples_drawn: 0,
                tree_size: 1,
                explored_volume: 0.0,
                volume_capped: false,
                rewires: 0,
            };
        }

        let footprint_before = scratch.footprint();
        if !linear {
            // Cells at the rewire radius: a near() query touches at most
            // 3^3 cells, and nearest() usually terminates in the first
            // ring.
            scratch.ensure_cell(cfg.rewire_radius.max(1e-3));
        }
        scratch.reset(start, cfg.max_samples + 1, linear);
        let PlannerScratch {
            arena,
            grid,
            linear_points,
            near_buf,
            gap_regions,
            ..
        } = scratch;
        let sampler = Sampler::for_plan(
            &cfg.sampling_mix,
            goal,
            sampling_bounds,
            checker.bias_boxes(),
            gap_regions,
        );
        let result = if linear {
            let mut neighbors = LinearNeighbors {
                points: linear_points,
            };
            self.search(
                checker,
                start,
                goal,
                sampling_bounds,
                &mut neighbors,
                arena,
                near_buf,
                gap_regions,
                &sampler,
            )
        } else {
            let mut neighbors = GridNeighbors { index: grid };
            self.search(
                checker,
                start,
                goal,
                sampling_bounds,
                &mut neighbors,
                arena,
                near_buf,
                gap_regions,
                &sampler,
            )
        };
        if scratch.footprint() > footprint_before {
            scratch.grow_events += 1;
        }
        result
    }

    /// The generic search loop (grid-indexed and linear-reference paths
    /// share it bit-identically): one target per sample until the sample
    /// budget runs out or the volume monitor trips.
    #[allow(clippy::too_many_arguments)]
    fn search<N: NeighborSearch, H: HazardSource>(
        &self,
        checker: &mut H,
        start: Vec3,
        goal: Vec3,
        sampling_bounds: &Aabb,
        neighbors: &mut N,
        arena: &mut NodeArena,
        near_buf: &mut Vec<u32>,
        gap_regions: &[Aabb],
        sampler: &Sampler,
    ) -> RrtResult {
        let cfg = &self.config;
        let mut rng = SplitMix64::new(cfg.seed);
        let mut explored = Aabb::new(start, start);
        let mut best_goal_node: Option<u32> = None;
        let mut samples_drawn = 0usize;
        let mut volume_capped = false;
        let mut rewires = 0usize;

        while samples_drawn < cfg.max_samples {
            let target =
                sampler.sample_target(&mut rng, goal, cfg.goal_bias, sampling_bounds, gap_regions);
            samples_drawn += 1;
            // Volume monitor (planning volume operator).
            if explored.volume() > cfg.max_explored_volume {
                volume_capped = true;
                break;
            }
            let nearest_idx = neighbors.nearest(target);
            let nearest_pos = arena.position(nearest_idx);
            let new_pos = steer(nearest_pos, target, cfg.steer_length);
            if !checker.segment_free(nearest_pos, new_pos) {
                continue;
            }
            // Choose the best parent within the rewire radius.
            neighbors.near_into(new_pos, cfg.rewire_radius, near_buf);
            let mut best_parent = nearest_idx;
            let mut best_cost = arena.cost(nearest_idx) + nearest_pos.distance(new_pos);
            for &n in near_buf.iter() {
                let candidate_cost = arena.cost(n) + arena.position(n).distance(new_pos);
                if candidate_cost < best_cost && checker.segment_free(arena.position(n), new_pos) {
                    best_parent = n;
                    best_cost = candidate_cost;
                }
            }
            let new_idx = arena.push(new_pos, best_parent, best_cost);
            neighbors.insert(new_pos);
            explored = Aabb::union(&explored, &Aabb::new(new_pos, new_pos));

            // Rewire neighbours through the new node when cheaper.
            for &n in near_buf.iter() {
                let through_new = best_cost + new_pos.distance(arena.position(n));
                if through_new + 1e-9 < arena.cost(n)
                    && checker.segment_free(new_pos, arena.position(n))
                {
                    arena.parents[n as usize] = new_idx;
                    arena.costs[n as usize] = through_new;
                    rewires += 1;
                }
            }

            // Goal connection.
            if new_pos.distance(goal) <= cfg.goal_tolerance
                || (new_pos.distance(goal) <= cfg.steer_length
                    && checker.segment_free(new_pos, goal))
            {
                let goal_cost = best_cost + new_pos.distance(goal);
                let better = match best_goal_node {
                    None => true,
                    Some(idx) => goal_cost < arena.cost(idx) + arena.position(idx).distance(goal),
                };
                if better {
                    best_goal_node = Some(new_idx);
                }
            }
        }

        let mut path = Vec::new();
        let mut cost = f64::INFINITY;
        if let Some(idx) = best_goal_node {
            path.push(goal);
            let mut cursor = Some(idx);
            while let Some(i) = cursor {
                path.push(arena.position(i));
                cursor = arena.parent(i);
            }
            path.reverse();
            cost = path.windows(2).map(|w| w[0].distance(w[1])).sum();
        }
        RrtResult {
            path,
            cost,
            samples_drawn,
            tree_size: arena.len(),
            explored_volume: explored.volume(),
            volume_capped,
            rewires,
        }
    }
}

/// Neighbor queries over the growing tree (ids in insertion order). The
/// two implementations must agree exactly: nearest uses the
/// squared-distance metric with ties to the lowest index, `near_into`
/// refills its output with `distance <= radius` matches in
/// ascending index order (the `_into` shape lets the search reuse one
/// scratch buffer instead of allocating per sample).
trait NeighborSearch {
    fn insert(&mut self, p: Vec3);
    fn nearest(&self, target: Vec3) -> u32;
    fn near_into(&self, p: Vec3, radius: f64, out: &mut Vec<u32>);
}

/// Grid-accelerated neighbor queries (the default). Borrows the
/// scratch-owned index so its cells are reused across plans.
struct GridNeighbors<'a> {
    index: &'a mut PointGridIndex,
}

impl NeighborSearch for GridNeighbors<'_> {
    fn insert(&mut self, p: Vec3) {
        self.index.insert(p);
    }

    fn nearest(&self, target: Vec3) -> u32 {
        self.index.nearest(target).expect("tree is never empty")
    }

    fn near_into(&self, p: Vec3, radius: f64, out: &mut Vec<u32>) {
        self.index.within_radius_into(p, radius, out);
    }
}

/// Linear-scan neighbor queries (the retained reference). Borrows the
/// scratch polyline buffer; reused (cleared) across calls.
struct LinearNeighbors<'a> {
    points: &'a mut Vec<Vec3>,
}

impl NeighborSearch for LinearNeighbors<'_> {
    fn insert(&mut self, p: Vec3) {
        self.points.push(p);
    }

    fn nearest(&self, target: Vec3) -> u32 {
        let mut best = 0u32;
        let mut best_d = f64::INFINITY;
        for (i, p) in self.points.iter().enumerate() {
            let d = p.distance_squared(target);
            if d < best_d {
                best_d = d;
                best = i as u32;
            }
        }
        best
    }

    fn near_into(&self, p: Vec3, radius: f64, out: &mut Vec<u32>) {
        out.clear();
        out.extend(
            self.points
                .iter()
                .enumerate()
                .filter(|(_, q)| q.distance(p) <= radius)
                .map(|(i, _)| i as u32),
        );
    }
}

fn steer(from: Vec3, towards: Vec3, max_len: f64) -> Vec3 {
    let d = from.distance(towards);
    if d <= max_len {
        towards
    } else {
        from + (towards - from) * (max_len / d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CollisionChecker;
    use roborun_geom::Vec3;
    use roborun_perception::{ExportConfig, OccupancyMap, PlannerMap, PointCloud};

    fn open_checker() -> CollisionChecker {
        CollisionChecker::new(PlannerMap::empty(0.3), 0.45, 0.5)
    }

    fn wall_with_gap_checker() -> CollisionChecker {
        // A wall at x = 20 spanning y in [-30, 30] except a gap at y ∈ [6, 10].
        let mut map = OccupancyMap::new(0.5);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let mut points = Vec::new();
        for yi in -60..=60 {
            let y = yi as f64 * 0.5;
            if (6.0..=10.0).contains(&y) {
                continue;
            }
            for zi in 0..30 {
                points.push(Vec3::new(20.0, y, zi as f64 * 0.5));
            }
        }
        map.integrate_cloud(&PointCloud::new(origin, points), 1.0);
        let pm = PlannerMap::export(&map, &ExportConfig::new(0.5, 1e9, origin));
        CollisionChecker::new(pm, 0.45, 0.5)
    }

    fn corridor_bounds() -> Aabb {
        Aabb::new(Vec3::new(-5.0, -35.0, 1.0), Vec3::new(45.0, 35.0, 12.0))
    }

    #[test]
    fn default_config_is_valid() {
        assert!(RrtConfig::default().validate().is_ok());
        assert!(RrtConfig {
            max_samples: 0,
            ..RrtConfig::default()
        }
        .validate()
        .is_err());
        assert!(RrtConfig {
            steer_length: 0.0,
            ..RrtConfig::default()
        }
        .validate()
        .is_err());
        assert!(RrtConfig {
            goal_bias: 1.5,
            ..RrtConfig::default()
        }
        .validate()
        .is_err());
        assert!(RrtConfig {
            rewire_radius: -1.0,
            ..RrtConfig::default()
        }
        .validate()
        .is_err());
        assert!(RrtConfig {
            goal_tolerance: 0.0,
            ..RrtConfig::default()
        }
        .validate()
        .is_err());
        assert!(RrtConfig {
            max_explored_volume: -1.0,
            ..RrtConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn open_space_uses_direct_connection() {
        let planner = RrtStar::new(RrtConfig::default());
        let mut checker = open_checker();
        let start = Vec3::new(0.0, 0.0, 5.0);
        let goal = Vec3::new(40.0, 0.0, 5.0);
        let result = planner.plan(&mut checker, start, goal, &corridor_bounds());
        assert!(result.found());
        assert_eq!(result.path.len(), 2);
        assert_eq!(result.samples_drawn, 0);
        assert!((result.cost - 40.0).abs() < 1e-9);
    }

    #[test]
    fn finds_path_through_gap() {
        let planner = RrtStar::new(RrtConfig {
            seed: 3,
            ..RrtConfig::default()
        });
        let mut checker = wall_with_gap_checker();
        let start = Vec3::new(0.0, 0.0, 5.0);
        let goal = Vec3::new(40.0, 0.0, 5.0);
        let result = planner.plan(&mut checker, start, goal, &corridor_bounds());
        assert!(result.found(), "no path found through the gap");
        // Path starts and ends correctly.
        assert!((result.path[0] - start).norm() < 1e-9);
        assert!((result.path.last().unwrap().distance(goal)) < 1e-9);
        // Path must be collision free at the checked resolution.
        let mut verify = wall_with_gap_checker();
        assert!(verify.path_free(&result.path));
        // Path is longer than the straight line (it must detour to the gap).
        assert!(result.cost >= 40.0);
        assert!(result.tree_size > 1);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let planner = RrtStar::new(RrtConfig {
            seed: 7,
            ..RrtConfig::default()
        });
        let mut c1 = wall_with_gap_checker();
        let mut c2 = wall_with_gap_checker();
        let start = Vec3::new(0.0, 0.0, 5.0);
        let goal = Vec3::new(40.0, 0.0, 5.0);
        let r1 = planner.plan(&mut c1, start, goal, &corridor_bounds());
        let r2 = planner.plan(&mut c2, start, goal, &corridor_bounds());
        assert_eq!(r1.path, r2.path);
        assert_eq!(r1.samples_drawn, r2.samples_drawn);
    }

    #[test]
    fn volume_monitor_caps_exploration() {
        // Unreachable goal (fully blocked wall) with a tiny volume budget:
        // the search must terminate early via the volume monitor.
        let mut map = OccupancyMap::new(0.5);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let mut points = Vec::new();
        for yi in -70..=70 {
            for zi in 0..30 {
                points.push(Vec3::new(20.0, yi as f64 * 0.5, zi as f64 * 0.5));
            }
        }
        map.integrate_cloud(&PointCloud::new(origin, points), 1.0);
        let pm = PlannerMap::export(&map, &ExportConfig::new(0.5, 1e9, origin));
        let mut checker = CollisionChecker::new(pm, 0.45, 0.5);
        let planner = RrtStar::new(RrtConfig {
            max_explored_volume: 500.0,
            max_samples: 100_000,
            seed: 5,
            ..RrtConfig::default()
        });
        let result = planner.plan(
            &mut checker,
            Vec3::new(0.0, 0.0, 5.0),
            Vec3::new(40.0, 0.0, 5.0),
            &Aabb::new(Vec3::new(-5.0, -35.0, 1.0), Vec3::new(18.0, 35.0, 12.0)),
        );
        assert!(result.volume_capped, "volume monitor should have tripped");
        assert!(result.samples_drawn < 100_000);
        assert!(!result.found());
        assert_eq!(result.cost, f64::INFINITY);
    }

    #[test]
    fn larger_volume_budget_explores_more() {
        let start = Vec3::new(0.0, 0.0, 5.0);
        let goal = Vec3::new(40.0, 0.0, 5.0);
        let run = |budget: f64| {
            let planner = RrtStar::new(RrtConfig {
                max_explored_volume: budget,
                max_samples: 600,
                seed: 11,
                ..RrtConfig::default()
            });
            let mut checker = wall_with_gap_checker();
            planner.plan(&mut checker, start, goal, &corridor_bounds())
        };
        let small = run(200.0);
        let large = run(1.0e7);
        assert!(large.explored_volume >= small.explored_volume);
        assert!(large.tree_size >= small.tree_size);
    }

    #[test]
    fn invalid_config_panics() {
        let default = RrtConfig::default();
        let invalid = [
            RrtConfig {
                steer_length: -1.0,
                ..default
            },
            RrtConfig {
                steer_length: f64::NAN,
                ..default
            },
            RrtConfig {
                steer_length: f64::INFINITY,
                ..default
            },
            RrtConfig {
                rewire_radius: f64::NAN,
                ..default
            },
            RrtConfig {
                rewire_radius: f64::INFINITY,
                ..default
            },
            RrtConfig {
                goal_tolerance: f64::NAN,
                ..default
            },
            RrtConfig {
                goal_tolerance: f64::INFINITY,
                ..default
            },
            RrtConfig {
                max_explored_volume: f64::NAN,
                ..default
            },
        ];
        for config in invalid {
            let panic = std::panic::catch_unwind(|| RrtStar::new(config))
                .expect_err("invalid config must panic");
            let message = panic
                .downcast_ref::<String>()
                .expect("panic carries a message");
            assert!(message.contains("invalid RRT*"), "{message}");
        }
        // An infinite volume cap only disables the monitor.
        assert!(RrtConfig {
            max_explored_volume: f64::INFINITY,
            ..default
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn indexed_and_linear_reference_plans_are_identical() {
        let start = Vec3::new(0.0, 0.0, 5.0);
        let goal = Vec3::new(40.0, 0.0, 5.0);
        for seed in 0..8 {
            let planner = RrtStar::new(RrtConfig {
                seed,
                max_samples: 800,
                ..RrtConfig::default()
            });
            let mut c1 = wall_with_gap_checker();
            let mut c2 = wall_with_gap_checker();
            let indexed = planner.plan(&mut c1, start, goal, &corridor_bounds());
            let linear = planner.plan_linear_reference(&mut c2, start, goal, &corridor_bounds());
            assert_eq!(indexed, linear, "seed {seed}");
            // Both paths consumed the collision checker identically too.
            assert_eq!(c1.queries(), c2.queries(), "seed {seed}");
        }
    }

    #[test]
    fn sampling_mix_is_validated() {
        let bad_weight = SamplingMix {
            goal_region_weight: 1.2,
            ..SamplingMix::default()
        };
        assert!(bad_weight.validate().is_err());
        let bad_sum = SamplingMix {
            goal_region_weight: 0.7,
            gap_weight: 0.7,
            ..SamplingMix::default()
        };
        assert!(bad_sum.validate().is_err());
        let bad_radius = SamplingMix {
            goal_region_radius: 0.0,
            ..SamplingMix::default()
        };
        assert!(bad_radius.validate().is_err());
        for bad in [
            SamplingMix {
                goal_region_radius: f64::NAN,
                ..SamplingMix::default()
            },
            SamplingMix {
                goal_region_weight: f64::NAN,
                ..SamplingMix::default()
            },
            SamplingMix {
                gap_weight: f64::INFINITY,
                ..SamplingMix::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
        assert!(SamplingMix::default().validate().is_ok());
        assert!(RrtConfig {
            sampling_mix: bad_sum,
            ..RrtConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn enabled_mix_without_hazards_is_bit_identical_to_uniform() {
        // A bare collision checker composes no hazard boxes, so the mix
        // must fall back to the uniform sampler with an untouched RNG
        // stream — the bit-identity contract mission configs rely on
        // when they enable the flag globally.
        let start = Vec3::new(0.0, 0.0, 5.0);
        let goal = Vec3::new(40.0, 0.0, 5.0);
        for seed in 0..6 {
            let uniform = RrtStar::new(RrtConfig {
                seed,
                max_samples: 800,
                ..RrtConfig::default()
            });
            let mixed = RrtStar::new(RrtConfig {
                seed,
                max_samples: 800,
                sampling_mix: SamplingMix {
                    enabled: true,
                    ..SamplingMix::default()
                },
                ..RrtConfig::default()
            });
            let mut c1 = wall_with_gap_checker();
            let mut c2 = wall_with_gap_checker();
            let a = uniform.plan(&mut c1, start, goal, &corridor_bounds());
            let b = mixed.plan(&mut c2, start, goal, &corridor_bounds());
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(c1.queries(), c2.queries(), "seed {seed}");
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_a_fresh_plan() {
        let planner = RrtStar::new(RrtConfig {
            seed: 9,
            ..RrtConfig::default()
        });
        let start = Vec3::new(0.0, 0.0, 5.0);
        let goal = Vec3::new(40.0, 0.0, 5.0);
        let mut c1 = wall_with_gap_checker();
        let fresh = planner.plan(&mut c1, start, goal, &corridor_bounds());

        // A scratch reused after a prior unrelated plan must not perturb
        // the stream.
        let mut scratch = PlannerScratch::new();
        let mut c0 = wall_with_gap_checker();
        let _ = planner.plan_with_scratch(
            &mut c0,
            Vec3::new(2.0, -3.0, 5.0),
            goal,
            &corridor_bounds(),
            &mut scratch,
        );
        let mut c2 = wall_with_gap_checker();
        let reused =
            planner.plan_with_scratch(&mut c2, start, goal, &corridor_bounds(), &mut scratch);
        assert_eq!(fresh, reused);
        assert_eq!(c1.queries(), c2.queries());
    }

    #[test]
    fn scratch_reaches_steady_state_allocation() {
        let planner = RrtStar::new(RrtConfig {
            seed: 11,
            ..RrtConfig::default()
        });
        let start = Vec3::new(0.0, 0.0, 5.0);
        let goal = Vec3::new(40.0, 0.0, 5.0);
        let mut scratch = PlannerScratch::new();
        for _ in 0..2 {
            let mut checker = wall_with_gap_checker();
            let _ = planner.plan_with_scratch(
                &mut checker,
                start,
                goal,
                &corridor_bounds(),
                &mut scratch,
            );
        }
        let settled = scratch.grow_events();
        for _ in 0..3 {
            let mut checker = wall_with_gap_checker();
            let _ = planner.plan_with_scratch(
                &mut checker,
                start,
                goal,
                &corridor_bounds(),
                &mut scratch,
            );
        }
        assert_eq!(
            scratch.grow_events(),
            settled,
            "repeated identical plans must not grow any scratch buffer"
        );
    }
}
