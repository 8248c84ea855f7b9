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
//! # The tree grid
//!
//! Every tree node lies in the plan's region — the sampling bounds plus
//! the start and the goal — because each one steers an existing node
//! towards a target drawn inside it. The nearest/near queries therefore
//! run on a flat grid over that region, padded by one cell against
//! steering's rounding, with cells one rewire radius wide. A cell is a
//! linked list of eight-node chunks holding the coordinates by axis, so
//! a query tests a chunk at a time; cell heads and chunks are reused from
//! plan to plan, and nothing is hashed. Nearest runs the shared
//! [`RingSearch`] with a (squared distance, id) tie-break, and it answers
//! the goal-biased draws from a running nearest-to-goal node. Near
//! gathers the cells the query's radius cube touches, prefilters by
//! squared distance with a little slack and keeps exactly the nodes a
//! linear `distance <= radius` scan keeps, with their distances, in cell
//! order.
//!
//! # Parent choice and rewiring
//!
//! The new node's parent is the cheapest candidate with a free edge: the
//! candidates strictly cheaper than the nearest node are visited in
//! (cost through them, id) order and the first free edge wins, falling
//! back to the nearest node, whose edge steering already checked. That
//! is the parent the classic ascending-id loop keeps — minimum cost among
//! free candidates, ties to the nearest node, then to the lowest id —
//! with fewer edge checks, since the loop also checks every candidate
//! that only beats a running best. The rewire loop reuses the near set's
//! distances ([`Vec3::distance`] is bit-symmetric). Neither depends on
//! the near set's order. The linear-scan search with the ascending-id
//! loop survives as a test oracle that every plan must match node for
//! node.
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
//! for the whole plan. Each new node enters the tree grid as soon
//! as it is pushed, so every sample's nearest/near queries see the whole
//! tree. The arena, the grid and every per-plan buffer live in a
//! caller-owned [`PlannerScratch`]: a replanning mission hands the same
//! scratch to every [`RrtStar::plan_with_scratch`] call and allocates
//! nothing per decision once the buffers reach steady-state capacity.
//! Scratch contents never carry over between plans: every search starts
//! from a fresh root, bit-identical to [`RrtStar::plan`].

use crate::hazard::HazardSource;
use roborun_geom::{Aabb, RingSearch, SplitMix64, Vec3, VoxelKey};
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

    /// The direct-connection result: a free start→goal segment, no tree.
    fn direct(start: Vec3, goal: Vec3) -> RrtResult {
        RrtResult {
            path: vec![start, goal],
            cost: start.distance(goal),
            samples_drawn: 0,
            tree_size: 1,
            explored_volume: 0.0,
            volume_capped: false,
            rewires: 0,
        }
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
    /// Every node's parent and cost bits as pushed, before any rewiring:
    /// the per-sample record the oracle tests compare.
    #[cfg(test)]
    pushed: Vec<(u32, u64)>,
}

impl NodeArena {
    fn clear(&mut self) {
        self.positions.clear();
        self.parents.clear();
        self.costs.clear();
        #[cfg(test)]
        self.pushed.clear();
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
        #[cfg(test)]
        self.pushed.push((parent, cost.to_bits()));
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
/// allocation the search needs — the node arena, the tree grid, and the
/// near-set / parent-order / gap-region buffers — lives here and is
/// `clear()`-reused across plans, so a replanning mission allocates
/// nothing per decision once the buffers reach steady-state capacity.
#[derive(Debug, Clone, Default)]
pub struct PlannerScratch {
    arena: NodeArena,
    grid: TreeGrid,
    near_buf: Vec<Near>,
    parent_order: Vec<(f64, u32)>,
    gap_regions: Vec<Aabb>,
    /// Plans after which some scratch buffer had to grow its capacity —
    /// zero in steady state.
    grow_events: u64,
}

impl PlannerScratch {
    /// Creates an empty scratch. The tree grid is sized per plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Plans after which some scratch buffer had to grow (zero once the
    /// buffers reach steady-state capacity).
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }

    /// Total buffer capacity (in elements) — compared across a plan to
    /// count growth events.
    fn footprint(&self) -> usize {
        self.arena.positions.capacity()
            + self.grid.heads.capacity()
            + self.grid.chunks.capacity()
            + self.grid.points.capacity()
            + self.near_buf.capacity()
            + self.parent_order.capacity()
            + self.gap_regions.capacity()
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
    /// # Panics
    ///
    /// Panics if the bounds, the start or the goal are not finite.
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
    ///
    /// # Panics
    ///
    /// Panics if the bounds, the start or the goal are not finite.
    pub fn plan_with_scratch<H: HazardSource>(
        &self,
        checker: &mut H,
        start: Vec3,
        goal: Vec3,
        sampling_bounds: &Aabb,
        scratch: &mut PlannerScratch,
    ) -> RrtResult {
        // Direct connection shortcut: open sky missions should not pay
        // for tree growth at all.
        if checker.segment_free(start, goal) {
            return RrtResult::direct(start, goal);
        }
        let footprint_before = scratch.footprint();
        let region = Aabb::union(sampling_bounds, &Aabb::new(start, goal));
        scratch.grid.reset(self.config.rewire_radius, &region, goal);
        let PlannerScratch {
            arena,
            grid,
            near_buf,
            parent_order,
            gap_regions,
            ..
        } = scratch;
        let result = self.search(
            checker,
            start,
            goal,
            sampling_bounds,
            grid,
            arena,
            near_buf,
            parent_order,
            gap_regions,
        );
        if scratch.footprint() > footprint_before {
            scratch.grow_events += 1;
        }
        result
    }

    /// The search loop: one target per sample until the sample budget
    /// runs out or the volume monitor trips. Generic over the tree index
    /// so the test oracle (linear scans, ascending-id parent loop) runs
    /// the very same loop.
    #[allow(clippy::too_many_arguments)]
    fn search<T: TreeIndex, H: HazardSource>(
        &self,
        checker: &mut H,
        start: Vec3,
        goal: Vec3,
        sampling_bounds: &Aabb,
        tree: &mut T,
        arena: &mut NodeArena,
        near: &mut Vec<Near>,
        parent_order: &mut Vec<(f64, u32)>,
        gap_regions: &mut Vec<Aabb>,
    ) -> RrtResult {
        let cfg = &self.config;
        let sampler = Sampler::for_plan(
            &cfg.sampling_mix,
            goal,
            sampling_bounds,
            checker.bias_boxes(),
            gap_regions,
        );
        arena.clear();
        arena.reserve(cfg.max_samples + 1);
        arena.push(start, NO_PARENT, 0.0);
        tree.insert(start);
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
            let nearest_idx = tree.nearest(target);
            let nearest_pos = arena.position(nearest_idx);
            let new_pos = steer(nearest_pos, target, cfg.steer_length);
            if !checker.segment_free(nearest_pos, new_pos) {
                continue;
            }
            // Choose the best parent within the rewire radius.
            tree.near_into(new_pos, cfg.rewire_radius, near);
            let nearest_cost = arena.cost(nearest_idx) + nearest_pos.distance(new_pos);
            let (best_parent, best_cost) = T::choose_parent(
                nearest_idx,
                nearest_cost,
                near,
                &arena.costs,
                parent_order,
                |n| checker.segment_free(arena.position(n), new_pos),
            );
            let new_idx = arena.push(new_pos, best_parent, best_cost);
            tree.insert(new_pos);
            explored = Aabb::union(&explored, &Aabb::new(new_pos, new_pos));

            // Rewire neighbours through the new node when cheaper.
            for n in near.iter() {
                let through_new = best_cost + n.dist;
                if through_new + 1e-9 < arena.cost(n.id)
                    && checker.segment_free(new_pos, arena.position(n.id))
                {
                    arena.parents[n.id as usize] = new_idx;
                    arena.costs[n.id as usize] = through_new;
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

/// A near-set member: a node id and its distance to the query point.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Near {
    id: u32,
    dist: f64,
}

/// Neighbour queries over the growing tree, whose ids are insertion
/// indices. `nearest` minimises the squared distance with ties to the
/// lowest id; `near_into` refills its output with every node at
/// `distance <= radius` and that distance, in any order: the parent
/// choice orders candidates by (cost, id) itself, and each rewire reads
/// and writes only its own node, so no result depends on the order.
trait TreeIndex {
    /// Adds the next node (its id is the number of nodes inserted so far).
    fn insert(&mut self, p: Vec3);

    /// The node nearest `target`; the tree is never empty.
    fn nearest(&self, target: Vec3) -> u32;

    /// The near set of `p` within `radius`.
    fn near_into(&self, p: Vec3, radius: f64, out: &mut Vec<Near>);

    /// The new node's parent and cost: [`choose_parent`]. The test oracle
    /// overrides it with the ascending-id loop.
    fn choose_parent(
        nearest: u32,
        nearest_cost: f64,
        near: &[Near],
        costs: &[f64],
        order: &mut Vec<(f64, u32)>,
        edge_free: impl FnMut(u32) -> bool,
    ) -> (u32, f64) {
        choose_parent(nearest, nearest_cost, near, costs, order, edge_free)
    }
}

/// The cheapest parent with a free edge. Candidates strictly cheaper than
/// the nearest node (cost through it `costs[id] + dist`) are visited in
/// (cost, id) order, and the first whose edge `edge_free` accepts wins;
/// with none, the nearest node, whose edge is already known free, keeps
/// the new node. This is the parent of the ascending-id loop that checks
/// every candidate beating its running best: the minimum cost among free
/// candidates, ties to the nearest node, then to the lowest id. `order`
/// is scratch.
fn choose_parent(
    nearest: u32,
    nearest_cost: f64,
    near: &[Near],
    costs: &[f64],
    order: &mut Vec<(f64, u32)>,
    mut edge_free: impl FnMut(u32) -> bool,
) -> (u32, f64) {
    order.clear();
    order.extend(
        near.iter()
            .map(|n| (costs[n.id as usize] + n.dist, n.id))
            .filter(|&(cost, _)| cost < nearest_cost),
    );
    // Selection, not a sort: the cheapest edge is free ~98% of the time.
    while let Some((i, _)) = order
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
    {
        let (cost, id) = order.swap_remove(i);
        if edge_free(id) {
            return (id, cost);
        }
    }
    (nearest, nearest_cost)
}

/// Empty-list sentinel of [`TreeGrid`]'s cell heads and chunk links.
const NO_NODE: u32 = u32::MAX;

/// Most cells a [`TreeGrid`] allocates. A region that needs more at the
/// rewire-radius cell gets wider cells (queries are exact at any cell).
const MAX_GRID_CELLS: f64 = (1u32 << 18) as f64;

/// Relative slack of the near query's squared-distance prefilter: the
/// rounded `radius²` can fall one ulp below a squared distance whose
/// rounded root still equals `radius`, and the prefilter must pass every
/// node the exact `distance <= radius` test accepts.
const PREFILTER_SLACK: f64 = 1.0 + 1e-12;

/// Nodes per [`Chunk`].
const CHUNK: usize = 8;

/// Up to [`CHUNK`] nodes of one grid cell, coordinates split by axis so
/// the near query tests a whole chunk without a branch per node. Against
/// one link per node, chunks cut a 900-sample mission plan by 2% at the
/// 0.3 m export and 6% at the 0.6 m export (`rrt_mission_plan`, ten
/// alternating pairs on a 2-core x86-64 host).
#[derive(Debug, Clone, Copy)]
struct Chunk {
    /// Node coordinates; unused slots hold +∞ and fail every distance test.
    x: [f64; CHUNK],
    y: [f64; CHUNK],
    z: [f64; CHUNK],
    ids: [u32; CHUNK],
    len: usize,
    /// The cell's previous chunk, `NO_NODE` for its first.
    next: u32,
}

impl Chunk {
    const EMPTY: Chunk = Chunk {
        x: [f64::INFINITY; CHUNK],
        y: [f64::INFINITY; CHUNK],
        z: [f64::INFINITY; CHUNK],
        ids: [NO_NODE; CHUNK],
        len: 0,
        next: NO_NODE,
    };

    /// Squared distances from every slot to `p`, each computed as
    /// [`Vec3::distance_squared`] computes it (the same bits).
    #[inline]
    fn distances_squared(&self, p: Vec3) -> [f64; CHUNK] {
        std::array::from_fn(|j| {
            let (dx, dy, dz) = (self.x[j] - p.x, self.y[j] - p.y, self.z[j] - p.z);
            dx * dx + dy * dy + dz * dz
        })
    }
}

/// The tree grid (see the module docs): a flat grid of cells, each a
/// linked list of node chunks, over the plan's region.
#[derive(Debug, Clone, Default)]
struct TreeGrid {
    /// Cell edge (metres); keys are `VoxelKey::from_point(p, cell)`.
    cell: f64,
    /// Key of the grid's first cell.
    lo: VoxelKey,
    /// Cells per axis.
    dims: [i64; 3],
    /// Each cell's newest chunk, `NO_NODE` while the cell is empty.
    heads: Vec<u32>,
    chunks: Vec<Chunk>,
    /// Every node's position, by id.
    points: Vec<Vec3>,
    /// Componentwise key bounds of the nodes (valid once one is in).
    key_min: VoxelKey,
    key_max: VoxelKey,
    /// The goal, and the (squared distance, id) of the node nearest it.
    goal: Vec3,
    goal_nearest: (f64, u32),
}

impl TreeGrid {
    /// Empties the grid and sizes it for a plan whose nodes all lie in
    /// `region`, with cells `cell` wide (wider if the region would need
    /// more than [`MAX_GRID_CELLS`]) and one cell of padding per side.
    fn reset(&mut self, cell: f64, region: &Aabb, goal: Vec3) {
        assert!(
            region.min.is_finite() && region.max.is_finite(),
            "planning region must be finite, got {region:?}"
        );
        let span = |cell: f64| {
            let lo = VoxelKey::from_point(region.min, cell);
            let hi = VoxelKey::from_point(region.max, cell);
            [hi.x - lo.x + 3, hi.y - lo.y + 3, hi.z - lo.z + 3]
        };
        let mut cell = cell;
        while span(cell).iter().map(|&n| n as f64).product::<f64>() > MAX_GRID_CELLS {
            cell *= 2.0;
        }
        let dims = span(cell);
        let first = VoxelKey::from_point(region.min, cell);
        self.cell = cell;
        self.lo = VoxelKey {
            x: first.x - 1,
            y: first.y - 1,
            z: first.z - 1,
        };
        self.dims = dims;
        self.heads.clear();
        self.heads
            .resize((dims[0] * dims[1] * dims[2]) as usize, NO_NODE);
        self.chunks.clear();
        self.points.clear();
        self.goal = goal;
        self.goal_nearest = (f64::INFINITY, NO_NODE);
    }

    /// Flat index of `key`, or `None` outside the grid.
    #[inline]
    fn slot(&self, key: VoxelKey) -> Option<usize> {
        let (x, y, z) = (key.x - self.lo.x, key.y - self.lo.y, key.z - self.lo.z);
        let [nx, ny, nz] = self.dims;
        ((0..nx).contains(&x) && (0..ny).contains(&y) && (0..nz).contains(&z))
            .then(|| ((x * ny + y) * nz + z) as usize)
    }

    /// Calls `visit` with every chunk of the cell at flat index `slot`.
    #[inline]
    fn for_each_chunk(&self, slot: usize, mut visit: impl FnMut(&Chunk)) {
        let mut c = self.heads[slot];
        while c != NO_NODE {
            let chunk = &self.chunks[c as usize];
            visit(chunk);
            c = chunk.next;
        }
    }

    /// The node nearest `target`, or `None` while the grid is empty.
    fn nearest_node(&self, target: Vec3) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        Some(if target == self.goal {
            self.goal_nearest.1
        } else {
            self.nearest_by_rings(target)
        })
    }

    /// Nearest by the ring search over the cells.
    fn nearest_by_rings(&self, target: Vec3) -> u32 {
        let mut best = (f64::INFINITY, NO_NODE);
        RingSearch::new(self.cell, self.key_min, self.key_max).run(target, None, |key| {
            let slot = self.slot(key).expect("node keys lie in the grid");
            self.for_each_chunk(slot, |chunk| {
                // The chunk's minimum (unused slots are +∞), held by its
                // first slot that reaches it: ids ascend within a chunk.
                let d2 = chunk.distances_squared(target);
                let min = d2.iter().fold(f64::INFINITY, |m, &d| m.min(d));
                if min <= best.0 {
                    let j = d2
                        .iter()
                        .position(|&d| d == min)
                        .expect("the minimum is a slot");
                    if min < best.0 || chunk.ids[j] < best.1 {
                        best = (min, chunk.ids[j]);
                    }
                }
            });
            (best.1 != NO_NODE).then_some(best.0)
        });
        best.1
    }
}

impl TreeIndex for TreeGrid {
    fn insert(&mut self, p: Vec3) {
        let id = u32::try_from(self.points.len()).expect("tree node count overflow");
        let key = VoxelKey::from_point(p, self.cell);
        let slot = self.slot(key).expect("tree node outside the planning grid");
        let head = self.heads[slot];
        if head == NO_NODE || self.chunks[head as usize].len == CHUNK {
            self.heads[slot] = u32::try_from(self.chunks.len()).expect("chunk count overflow");
            self.chunks.push(Chunk {
                next: head,
                ..Chunk::EMPTY
            });
        }
        let chunk = &mut self.chunks[self.heads[slot] as usize];
        let j = chunk.len;
        (chunk.x[j], chunk.y[j], chunk.z[j], chunk.ids[j]) = (p.x, p.y, p.z, id);
        chunk.len += 1;
        self.points.push(p);
        if id == 0 {
            (self.key_min, self.key_max) = (key, key);
        } else {
            self.key_min = self.key_min.componentwise_min(key);
            self.key_max = self.key_max.componentwise_max(key);
        }
        // Ids ascend, so a tie keeps the earlier node.
        let d2 = p.distance_squared(self.goal);
        if d2 < self.goal_nearest.0 {
            self.goal_nearest = (d2, id);
        }
    }

    fn nearest(&self, target: Vec3) -> u32 {
        self.nearest_node(target).expect("the tree is never empty")
    }

    fn near_into(&self, p: Vec3, radius: f64, out: &mut Vec<Near>) {
        out.clear();
        if self.points.is_empty() || radius < 0.0 {
            return;
        }
        let lo = VoxelKey::from_point(p - Vec3::splat(radius), self.cell)
            .componentwise_max(self.key_min);
        let hi = VoxelKey::from_point(p + Vec3::splat(radius), self.cell)
            .componentwise_min(self.key_max);
        if lo.x > hi.x || lo.y > hi.y || lo.z > hi.z {
            return;
        }
        let bound = radius * radius * PREFILTER_SLACK;
        for x in lo.x..=hi.x {
            for y in lo.y..=hi.y {
                // The cells of one (x, y) row are consecutive slots.
                let row = self
                    .slot(VoxelKey { x, y, z: lo.z })
                    .expect("inside the grid");
                for slot in row..=row + (hi.z - lo.z) as usize {
                    self.for_each_chunk(slot, |chunk| {
                        let d2 = chunk.distances_squared(p);
                        let used = (1u32 << chunk.len) - 1;
                        let mut hits = d2
                            .iter()
                            .enumerate()
                            .fold(0u32, |m, (j, &d2)| m | u32::from(d2 <= bound) << j)
                            & used;
                        while hits != 0 {
                            let j = hits.trailing_zeros() as usize;
                            hits &= hits - 1;
                            // The node's `distance(p)`, bit for bit.
                            let dist = d2[j].sqrt();
                            if dist <= radius {
                                out.push(Near {
                                    id: chunk.ids[j],
                                    dist,
                                });
                            }
                        }
                    });
                }
            }
        }
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
    use proptest::prelude::*;
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

    /// The pre-grid search, kept as the oracle: linear nearest/near scans
    /// and the ascending-id parent loop.
    #[derive(Default)]
    struct LinearTree(Vec<Vec3>);

    impl TreeIndex for LinearTree {
        fn insert(&mut self, p: Vec3) {
            self.0.push(p);
        }

        fn nearest(&self, target: Vec3) -> u32 {
            nearest_linear(&self.0, target).expect("the tree is never empty")
        }

        fn near_into(&self, p: Vec3, radius: f64, out: &mut Vec<Near>) {
            *out = near_linear(&self.0, p, radius);
        }

        fn choose_parent(
            nearest: u32,
            nearest_cost: f64,
            near: &[Near],
            costs: &[f64],
            _: &mut Vec<(f64, u32)>,
            edge_free: impl FnMut(u32) -> bool,
        ) -> (u32, f64) {
            ascending_id_parent(nearest, nearest_cost, near, costs, edge_free)
        }
    }

    /// Linear nearest scan: squared distance, first minimal index wins.
    fn nearest_linear(points: &[Vec3], target: Vec3) -> Option<u32> {
        let mut best: Option<(f64, u32)> = None;
        for (i, p) in points.iter().enumerate() {
            let d2 = p.distance_squared(target);
            if best.is_none_or(|(bd2, _)| d2 < bd2) {
                best = Some((d2, i as u32));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Linear near scan: `distance <= radius`, ascending index.
    fn near_linear(points: &[Vec3], p: Vec3, radius: f64) -> Vec<Near> {
        points
            .iter()
            .enumerate()
            .filter(|(_, q)| q.distance(p) <= radius)
            .map(|(i, q)| Near {
                id: i as u32,
                dist: q.distance(p),
            })
            .collect()
    }

    /// The parent loop the cost-ordered choice replaced: every candidate
    /// that beats the running best has its edge checked.
    fn ascending_id_parent(
        nearest: u32,
        nearest_cost: f64,
        near: &[Near],
        costs: &[f64],
        mut edge_free: impl FnMut(u32) -> bool,
    ) -> (u32, f64) {
        let (mut best, mut best_cost) = (nearest, nearest_cost);
        for n in near {
            let cost = costs[n.id as usize] + n.dist;
            if cost < best_cost && edge_free(n.id) {
                (best, best_cost) = (n.id, cost);
            }
        }
        (best, best_cost)
    }

    /// Plans with the grid search and with the oracle on fresh copies of
    /// `checker` and asserts they agree node for node: the same result,
    /// every node's position, parent and cost as pushed (so every sample
    /// drew the same nearest node, new position and parent) and after
    /// rewiring, and no more collision queries than the oracle.
    fn assert_matches_oracle(
        planner: &RrtStar,
        checker: &CollisionChecker,
        start: Vec3,
        goal: Vec3,
        bounds: &Aabb,
    ) -> Result<(), String> {
        let mut c1 = checker.clone();
        let mut scratch = PlannerScratch::new();
        let indexed = planner.plan_with_scratch(&mut c1, start, goal, bounds, &mut scratch);
        let mut c2 = checker.clone();
        let mut arena = NodeArena::default();
        let oracle = if c2.segment_free(start, goal) {
            RrtResult::direct(start, goal)
        } else {
            planner.search(
                &mut c2,
                start,
                goal,
                bounds,
                &mut LinearTree::default(),
                &mut arena,
                &mut Vec::new(),
                &mut Vec::new(),
                &mut Vec::new(),
            )
        };
        let grid = &scratch.arena;
        let checks = [
            (indexed == oracle, "result"),
            (grid.positions == arena.positions, "positions"),
            (grid.pushed == arena.pushed, "pushed parents and costs"),
            (grid.parents == arena.parents, "rewired parents"),
            (
                grid.costs
                    .iter()
                    .map(|c| c.to_bits())
                    .eq(arena.costs.iter().map(|c| c.to_bits())),
                "rewired costs",
            ),
            (c1.queries() <= c2.queries(), "collision queries"),
        ];
        match checks.iter().find(|(ok, _)| !ok) {
            Some((_, what)) => Err(format!("{what} diverged from the oracle")),
            None => Ok(()),
        }
    }

    #[test]
    fn indexed_and_linear_reference_plans_are_identical() {
        let start = Vec3::new(0.0, 0.0, 5.0);
        let goal = Vec3::new(40.0, 0.0, 5.0);
        let checker = wall_with_gap_checker();
        for seed in 0..8 {
            let planner = RrtStar::new(RrtConfig {
                seed,
                max_samples: 800,
                ..RrtConfig::default()
            });
            assert_matches_oracle(&planner, &checker, start, goal, &corridor_bounds())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    /// The wall of the planning proptests: x = 20, a gap at `[gap_lo, gap_hi]`.
    fn wall_map(gap_lo: f64, gap_hi: f64) -> PlannerMap {
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let mut map = OccupancyMap::new(0.5);
        let mut points = Vec::new();
        for yi in -40..=40 {
            let y = yi as f64 * 0.5;
            if y >= gap_lo && y <= gap_hi {
                continue;
            }
            for zi in 0..20 {
                points.push(Vec3::new(20.0, y, zi as f64 * 0.5));
            }
        }
        map.integrate_cloud(&PointCloud::new(origin, points), 1.0);
        PlannerMap::export(&map, &ExportConfig::new(0.5, 1e9, origin))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The grid search equals the linear-scan, ascending-id oracle on
        /// random walls, sample by sample.
        #[test]
        fn indexed_rrtstar_matches_linear_reference(gap_center in -15.0f64..15.0,
                                                    gap_width in 2.0f64..8.0,
                                                    seed in 0u64..1000,
                                                    samples in 100usize..500) {
            let map = wall_map(gap_center - gap_width * 0.5, gap_center + gap_width * 0.5);
            let planner = RrtStar::new(RrtConfig {
                seed,
                max_samples: samples,
                ..RrtConfig::default()
            });
            let bounds = Aabb::new(Vec3::new(-5.0, -25.0, 1.0), Vec3::new(45.0, 25.0, 11.0));
            let checker = CollisionChecker::new(map, 0.45, 0.5);
            let verdict = assert_matches_oracle(
                &planner,
                &checker,
                Vec3::new(0.0, 0.0, 5.0),
                Vec3::new(40.0, 0.0, 5.0),
                &bounds,
            );
            prop_assert!(verdict.is_ok(), "{:?}", verdict);
        }

        /// The cost-ordered parent equals the ascending-id loop's on
        /// candidate sets full of ties — equal costs, costs equal to the
        /// nearest node's, the nearest node among the candidates — and
        /// checks a subset of the loop's edges.
        #[test]
        fn cost_ordered_parent_matches_the_ascending_id_loop(
            candidates in prop::collection::vec((0u32..5, 0u32..3, any::<bool>()), 0..24),
            nearest_pick in 0usize..32,
            nearest_cost_step in 0u32..8,
        ) {
            // Ids ascend with gaps; costs and distances on a coarse lattice.
            let near: Vec<Near> = candidates
                .iter()
                .enumerate()
                .map(|(i, &(_, d, _))| Near { id: 2 * i as u32 + 1, dist: 0.5 * d as f64 })
                .collect();
            let mut costs = vec![0.0; 2 * candidates.len() + 2];
            let mut free = vec![false; costs.len()];
            for (n, &(c, _, f)) in near.iter().zip(&candidates) {
                costs[n.id as usize] = 0.5 * c as f64;
                free[n.id as usize] = f;
            }
            let (nearest, nearest_cost) = match near.get(nearest_pick) {
                Some(n) => (n.id, costs[n.id as usize] + n.dist),
                None => (0, 0.5 * nearest_cost_step as f64),
            };
            let mut loop_checked = Vec::new();
            let expected = ascending_id_parent(nearest, nearest_cost, &near, &costs, |id| {
                loop_checked.push(id);
                free[id as usize]
            });
            let mut checked = Vec::new();
            let got = choose_parent(nearest, nearest_cost, &near, &costs, &mut Vec::new(), |id| {
                checked.push(id);
                free[id as usize]
            });
            prop_assert_eq!(got.0, expected.0);
            prop_assert_eq!(got.1.to_bits(), expected.1.to_bits());
            prop_assert!(checked.iter().all(|id| loop_checked.contains(id)));
        }
    }

    /// The tree grid's nearest (the ring search, and the goal shortcut)
    /// and near queries against linear scans over the adversarial point
    /// family (shared with the other spatial indexes), at regions from
    /// random bounds with the start and goal outside them, with duplicate
    /// points and points on the grid's cell faces; queries at the boundary
    /// probes, the points themselves and the goal.
    #[test]
    fn tree_grid_matches_linear_scans_on_adversarial_point_sets() {
        let mut rng = SplitMix64::new(29);
        for cell in [0.5, 1.0, 4.0] {
            for scenario in roborun_conformance::adversarial_point_sets(5, cell) {
                let corner = Vec3::new(
                    rng.uniform(-30.0, 30.0),
                    rng.uniform(-30.0, 30.0),
                    rng.uniform(-5.0, 10.0),
                );
                let bounds = Aabb::new(corner, corner + Vec3::splat(rng.uniform(0.0, 15.0)));
                let hull = Aabb::from_points(scenario.points.iter().copied())
                    .unwrap_or_else(|| Aabb::new(corner - Vec3::splat(9.0), corner));
                let (start, goal) = (hull.min, hull.max);
                let mut grid = TreeGrid::default();
                let region = Aabb::union(&bounds, &Aabb::new(start, goal));
                grid.reset(cell, &region, goal);
                let c = grid.cell;
                let mut points = scenario.points.clone();
                points.extend(scenario.points.iter().take(3).copied());
                let on_faces = |p: Vec3| {
                    Vec3::new(
                        (p.x / c).floor() * c,
                        (p.y / c).floor() * c,
                        (p.z / c).floor() * c,
                    )
                };
                points.extend(scenario.points.iter().step_by(4).map(|&p| on_faces(p)));
                for &p in &points {
                    grid.insert(p);
                }
                let mut probes = roborun_conformance::boundary_probes(5, cell);
                probes.extend(points.iter().copied());
                probes.push(goal);
                let mut near = Vec::new();
                for q in probes {
                    let expected = nearest_linear(&points, q);
                    let rings = expected.map(|_| grid.nearest_by_rings(q));
                    assert_eq!(
                        rings, expected,
                        "nearest diverged on {} cell={cell} q={q}",
                        scenario.name
                    );
                    assert_eq!(grid.nearest_node(q), expected);
                    for radius in [0.0, cell * 0.5, cell, 13.7] {
                        grid.near_into(q, radius, &mut near);
                        near.sort_unstable_by_key(|n| n.id);
                        assert_eq!(
                            near,
                            near_linear(&points, q, radius),
                            "near diverged on {} cell={cell} q={q} r={radius}",
                            scenario.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn near_keeps_nodes_whose_distance_rounds_to_the_radius() {
        // A node at exactly `radius = distance(p, q)` where the squared
        // distance rounds above `radius²`: the prefilter must still pass it.
        let mut rng = SplitMix64::new(31);
        let bounds = Aabb::new(Vec3::splat(-20.0), Vec3::splat(20.0));
        let mut hits = 0;
        for _ in 0..200 {
            let (p, q) = (rng.point_in_aabb(&bounds), rng.point_in_aabb(&bounds));
            let radius = q.distance(p);
            if q.distance_squared(p) <= radius * radius {
                continue;
            }
            hits += 1;
            let mut grid = TreeGrid::default();
            grid.reset(radius, &bounds, Vec3::ZERO);
            grid.insert(q);
            let mut near = Vec::new();
            grid.near_into(p, radius, &mut near);
            assert_eq!(
                near,
                vec![Near {
                    id: 0,
                    dist: radius
                }],
                "p={p} q={q}"
            );
        }
        assert!(hits > 10, "only {hits} rounding cases found");
    }

    #[test]
    fn tree_grid_widens_cells_past_the_cell_budget() {
        let region = Aabb::new(Vec3::splat(-1e4), Vec3::splat(1e4));
        let mut grid = TreeGrid::default();
        grid.reset(1.0, &region, Vec3::ZERO);
        assert!(grid.heads.len() as f64 <= MAX_GRID_CELLS);
        assert!(grid.cell > 1.0);
        let corners = [region.min, region.max, Vec3::ZERO];
        for &p in &corners {
            grid.insert(p);
        }
        assert_eq!(grid.nearest_by_rings(Vec3::splat(9e3)), 1);
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
