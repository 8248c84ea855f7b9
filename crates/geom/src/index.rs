//! Spatial acceleration structures: the shared expanding-ring search
//! driver and a DDA voxel ray walker.
//!
//! These are the broad-phase primitives behind the workspace's hot
//! kernels: the RRT* tree's nearest query and the grid nearest queries
//! ([`RingSearch`]), and the obstacle field's ray casts and the sensor
//! simulation ([`GridRayWalk`]). All are exact accelerators — every query
//! is specified to return the same result as the corresponding linear
//! scan, which the equivalence tests in each consumer crate enforce.
//!
//! # The `RingSearch` contract
//!
//! [`RingSearch`] is the single driver behind the nearest-something
//! queries that used to hand-roll the same loop (the RRT* tree grid's
//! nearest node, `ObstacleField::nearest_indexed`). It
//! enumerates the Chebyshev shells around the query's cell, from the first
//! ring that can touch the occupied key bounds outward, and stops as soon
//! as no further ring can improve the caller's current best. Callers provide a single
//! `visit_cell` closure that inspects one candidate cell and returns the
//! updated **squared** distance bound.
//!
//! Two invariants make the search exact:
//!
//! * **Pruning invariant** — the bound returned by `visit_cell` (and the
//!   `initial_bound_squared` seed) must never be smaller than the squared
//!   distance of an answer the caller would still accept. The driver skips
//!   a cell only when its exact lower bound
//!   ([`cell_min_distance_squared`]) *strictly* exceeds the bound, and
//!   stops only when a whole ring strictly exceeds it, so bound-equal
//!   candidates (ties) are always visited and the caller's tie-breaking
//!   matches a linear first-wins scan.
//! * **Fallback budget** — a caller whose linear reference is cheap can
//!   configure [`RingSearch::with_fallback_budget`]: once the driver has
//!   enumerated more cells than the budget, it stops and reports
//!   [`RingSearchOutcome::BudgetExhausted`], and the *caller* finishes the
//!   query with its retained linear scan (the pluggable fallback policy).
//!   Because the linear reference is exact by definition, the fallback
//!   never changes the result, only the cost curve.

use crate::{Ray, Vec3, VoxelKey};

/// How a [`RingSearch::run`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingSearchOutcome {
    /// Every ring that could improve the bound was enumerated; the caller's
    /// accumulated best is the final answer.
    Complete,
    /// The configured fallback budget was exhausted before the rings
    /// converged; the caller must finish the query with its linear
    /// reference scan.
    BudgetExhausted,
}

/// The shared expanding-ring nearest-search driver (see the module docs for
/// the exactness contract).
///
/// A `RingSearch` is configured with the grid geometry (cell size and the
/// occupied key bounds) plus an optional cell-visit budget past which the
/// search abandons the rings in favour of the caller's linear fallback.
///
/// # Example
///
/// ```
/// use roborun_geom::index::{RingSearch, RingSearchOutcome};
/// use roborun_geom::{Vec3, VoxelKey};
///
/// // One occupied cell at the origin of a 1 m grid.
/// let occupied = VoxelKey { x: 0, y: 0, z: 0 };
/// let search = RingSearch::new(1.0, occupied, occupied);
/// let mut best: Option<f64> = None;
/// let outcome = search.run(Vec3::new(3.2, 0.1, 0.3), None, |key| {
///     if key == occupied {
///         best = Some(2.7); // pretend distance to the cell's content
///     }
///     best.map(|d| d * d)
/// });
/// assert_eq!(outcome, RingSearchOutcome::Complete);
/// assert_eq!(best, Some(2.7));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RingSearch {
    cell: f64,
    key_min: VoxelKey,
    key_max: VoxelKey,
    fallback_budget: Option<usize>,
}

impl RingSearch {
    /// Creates a driver over a grid of `cell`-sized voxels whose occupied
    /// keys all lie inside `[key_min, key_max]` (componentwise).
    ///
    /// # Panics
    ///
    /// Panics if `cell <= 0` or is not finite.
    pub fn new(cell: f64, key_min: VoxelKey, key_max: VoxelKey) -> Self {
        assert!(
            cell > 0.0 && cell.is_finite(),
            "cell size must be positive and finite, got {cell}"
        );
        RingSearch {
            cell,
            key_min,
            key_max,
            fallback_budget: None,
        }
    }

    /// Stops the ring search once more than `cells` candidate cells have
    /// been enumerated and reports [`RingSearchOutcome::BudgetExhausted`]
    /// instead, letting the caller finish with its linear reference. The
    /// budget is checked between rings, exactly like the hand-rolled loops
    /// this driver replaced.
    pub fn with_fallback_budget(mut self, cells: usize) -> Self {
        self.fallback_budget = Some(cells);
        self
    }

    /// Runs the search around `query`.
    ///
    /// `visit_cell` is called for every candidate cell that passes the
    /// lower-bound prune (innermost rings first) and returns the updated
    /// squared distance bound — `None` while no acceptable candidate has
    /// been found. `initial_bound_squared` seeds the bound for queries that
    /// start with a cutoff (e.g. a maximum radius).
    pub fn run(
        &self,
        query: Vec3,
        initial_bound_squared: Option<f64>,
        mut visit_cell: impl FnMut(VoxelKey) -> Option<f64>,
    ) -> RingSearchOutcome {
        let center = VoxelKey::from_point(query, self.cell);
        // Rings closer than the occupied key bounds are empty — skip them;
        // rings beyond the bounds cannot hold an occupied cell — stop there.
        let start_ring = {
            let dx = (self.key_min.x - center.x).max(center.x - self.key_max.x);
            let dy = (self.key_min.y - center.y).max(center.y - self.key_max.y);
            let dz = (self.key_min.z - center.z).max(center.z - self.key_max.z);
            dx.max(dy).max(dz).max(0)
        };
        let max_ring = {
            let dx = (center.x - self.key_min.x).max(self.key_max.x - center.x);
            let dy = (center.y - self.key_min.y).max(self.key_max.y - center.y);
            let dz = (center.z - self.key_min.z).max(self.key_max.z - center.z);
            dx.max(dy).max(dz).max(0)
        };
        let mut bound = initial_bound_squared;
        let mut visited = 0usize;
        for ring in start_ring..=max_ring {
            if let Some(b2) = bound {
                // Every cell in this ring is at least (ring-1) cells away
                // from the query point, so once that lower bound exceeds
                // the best distance no further ring can improve it.
                let ring_min = (ring as f64 - 1.0).max(0.0) * self.cell;
                if ring_min * ring_min > b2 {
                    break;
                }
            }
            if let Some(budget) = self.fallback_budget {
                if visited > budget {
                    return RingSearchOutcome::BudgetExhausted;
                }
            }
            for_each_shell_key_in(center, ring, self.key_min, self.key_max, |key| {
                visited += 1;
                // Exact lower bound on the distance from `query` to any
                // content of this cell; skip the cell when it cannot beat
                // the current bound (ties keep the cell, preserving the
                // caller's tie-breaking).
                if let Some(b2) = bound {
                    if cell_min_distance_squared(key, self.cell, query) > b2 {
                        return;
                    }
                }
                bound = visit_cell(key);
            });
        }
        RingSearchOutcome::Complete
    }
}

/// Squared distance from `p` to the closest point of the cell `key` at the
/// given cell size (zero when `p` lies inside the cell).
#[inline]
pub fn cell_min_distance_squared(key: VoxelKey, cell: f64, p: Vec3) -> f64 {
    let mut d2 = 0.0;
    for (k, coord) in [(key.x, p.x), (key.y, p.y), (key.z, p.z)] {
        let lo = k as f64 * cell;
        let hi = lo + cell;
        let d = (lo - coord).max(coord - hi).max(0.0);
        d2 += d * d;
    }
    d2
}

/// Calls `visit` for every key in the Chebyshev shell of radius `ring`
/// around `center` (each key exactly once). Ring 0 is the centre cell
/// itself. This is the building block of every expanding-ring search in the
/// workspace.
pub fn for_each_shell_key(center: VoxelKey, ring: i64, visit: impl FnMut(VoxelKey)) {
    const NO_LO: VoxelKey = VoxelKey {
        x: i64::MIN,
        y: i64::MIN,
        z: i64::MIN,
    };
    const NO_HI: VoxelKey = VoxelKey {
        x: i64::MAX,
        y: i64::MAX,
        z: i64::MAX,
    };
    for_each_shell_key_in(center, ring, NO_LO, NO_HI, visit);
}

/// [`for_each_shell_key`] restricted to the key box `[lo, hi]`: keys
/// outside the box are skipped without being enumerated, which keeps thin
/// or small grids cheap even for large rings.
pub fn for_each_shell_key_in(
    center: VoxelKey,
    ring: i64,
    lo: VoxelKey,
    hi: VoxelKey,
    mut visit: impl FnMut(VoxelKey),
) {
    if ring <= 0 {
        if center.x >= lo.x
            && center.x <= hi.x
            && center.y >= lo.y
            && center.y <= hi.y
            && center.z >= lo.z
            && center.z <= hi.z
        {
            visit(center);
        }
        return;
    }
    let y_full = (center.y - ring).max(lo.y)..=(center.y + ring).min(hi.y);
    let z_full = (center.z - ring).max(lo.z)..=(center.z + ring).min(hi.z);
    // Two full faces orthogonal to X, then the remaining strips of the
    // Y and Z faces, so each shell cell is visited exactly once.
    for &x in &[center.x - ring, center.x + ring] {
        if x < lo.x || x > hi.x {
            continue;
        }
        for y in y_full.clone() {
            for z in z_full.clone() {
                visit(VoxelKey { x, y, z });
            }
        }
    }
    let x_inner = (center.x - ring + 1).max(lo.x)..(center.x + ring).min(hi.x.saturating_add(1));
    for x in x_inner {
        for &y in &[center.y - ring, center.y + ring] {
            if y < lo.y || y > hi.y {
                continue;
            }
            for z in z_full.clone() {
                visit(VoxelKey { x, y, z });
            }
        }
        let y_inner =
            (center.y - ring + 1).max(lo.y)..(center.y + ring).min(hi.y.saturating_add(1));
        for y in y_inner {
            for &z in &[center.z - ring, center.z + ring] {
                if z < lo.z || z > hi.z {
                    continue;
                }
                visit(VoxelKey { x, y, z });
            }
        }
    }
}

/// Amanatides–Woo voxel traversal: iterates the grid cells a ray passes
/// through, in increasing-`t` order, together with each cell's entry
/// parameter.
///
/// The walk starts in the cell containing the ray origin (entry `t = 0`)
/// and ends once the next cell would be entered beyond `max_t`.
///
/// # Example
///
/// ```
/// use roborun_geom::index::GridRayWalk;
/// use roborun_geom::{Ray, Vec3, VoxelKey};
///
/// let ray = Ray::new(Vec3::new(0.5, 0.5, 0.5), Vec3::X);
/// let cells: Vec<(VoxelKey, f64)> = GridRayWalk::new(&ray, 1.0, 2.0).collect();
/// assert_eq!(cells.len(), 3);
/// assert_eq!(cells[0].0, VoxelKey { x: 0, y: 0, z: 0 });
/// assert_eq!(cells[1].0, VoxelKey { x: 1, y: 0, z: 0 });
/// assert!((cells[1].1 - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct GridRayWalk {
    key: VoxelKey,
    step: [i64; 3],
    t_next: [f64; 3],
    t_delta: [f64; 3],
    max_t: f64,
    started: bool,
    done: bool,
}

impl GridRayWalk {
    /// Starts a walk along `ray` over a grid of `cell_size` cells, ending
    /// at parameter `max_t`.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size <= 0` or is not finite.
    pub fn new(ray: &Ray, cell_size: f64, max_t: f64) -> Self {
        assert!(
            cell_size > 0.0 && cell_size.is_finite(),
            "cell size must be positive and finite, got {cell_size}"
        );
        let key = VoxelKey::from_point(ray.origin, cell_size);
        let cells = [key.x, key.y, key.z];
        let mut step = [0i64; 3];
        let mut t_next = [f64::INFINITY; 3];
        let mut t_delta = [f64::INFINITY; 3];
        for axis in 0..3 {
            let d = ray.direction[axis];
            if d.abs() < 1e-12 {
                continue;
            }
            step[axis] = if d > 0.0 { 1 } else { -1 };
            let boundary_cell = cells[axis] + i64::from(d > 0.0);
            let boundary = boundary_cell as f64 * cell_size;
            t_next[axis] = (boundary - ray.origin[axis]) / d;
            t_delta[axis] = cell_size / d.abs();
        }
        GridRayWalk {
            key,
            step,
            t_next,
            t_delta,
            max_t,
            started: false,
            done: max_t < 0.0,
        }
    }
}

impl Iterator for GridRayWalk {
    type Item = (VoxelKey, f64);

    fn next(&mut self) -> Option<(VoxelKey, f64)> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            return Some((self.key, 0.0));
        }
        let axis = (0..3)
            .min_by(|&a, &b| {
                self.t_next[a]
                    .partial_cmp(&self.t_next[b])
                    .expect("traversal times are never NaN")
            })
            .expect("three axes");
        let t_entry = self.t_next[axis];
        if !t_entry.is_finite() || t_entry > self.max_t {
            self.done = true;
            return None;
        }
        match axis {
            0 => self.key.x += self.step[0],
            1 => self.key.y += self.step[1],
            _ => self.key.z += self.step[2],
        }
        self.t_next[axis] += self.t_delta[axis];
        Some((self.key, t_entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn ray_walk_visits_marched_cells() {
        // Every cell a fine march visits must appear in the walk, in order.
        let mut rng = SplitMix64::new(9);
        for _ in 0..50 {
            let origin = Vec3::new(
                rng.uniform(-10.0, 10.0),
                rng.uniform(-10.0, 10.0),
                rng.uniform(-10.0, 10.0),
            );
            let dir = Vec3::new(
                rng.uniform(-1.0, 1.0),
                rng.uniform(-1.0, 1.0),
                rng.uniform(-1.0, 1.0),
            );
            if dir.norm() < 1e-6 {
                continue;
            }
            let ray = Ray::new(origin, dir);
            let cell = 2.0;
            let max_t = 40.0;
            let walked: Vec<VoxelKey> = GridRayWalk::new(&ray, cell, max_t)
                .map(|(k, _)| k)
                .collect();
            let mut cursor = 0usize;
            let mut t = 0.0;
            while t <= max_t {
                let key = VoxelKey::from_point(ray.at(t), cell);
                // Advance the walk cursor to this key; boundary samples may
                // land one cell ahead, so allow skipping walked cells but
                // never going backwards.
                if let Some(pos) = walked[cursor..].iter().position(|&k| k == key) {
                    cursor += pos;
                } else {
                    panic!("marched cell {key:?} missing from walk at t={t}");
                }
                t += 0.05;
            }
        }
    }

    #[test]
    fn ray_walk_entry_parameters_are_monotone() {
        let ray = Ray::new(Vec3::new(0.3, 0.7, -0.2), Vec3::new(1.0, -0.5, 0.25));
        let walk: Vec<(VoxelKey, f64)> = GridRayWalk::new(&ray, 1.5, 30.0).collect();
        assert!(walk.len() > 10);
        for pair in walk.windows(2) {
            assert!(pair[1].1 > pair[0].1 - 1e-12);
            assert!(pair[0].0.manhattan_distance(&pair[1].0) == 1);
        }
        assert_eq!(walk[0].1, 0.0);
        assert!(walk.last().unwrap().1 <= 30.0);
    }

    #[test]
    fn shell_keys_partition_the_cube() {
        use std::collections::HashSet;
        let center = VoxelKey { x: 3, y: -2, z: 7 };
        let mut seen: HashSet<VoxelKey> = HashSet::new();
        let mut count = 0usize;
        for ring in 0..=3 {
            for_each_shell_key(center, ring, |key| {
                assert!(seen.insert(key), "key {key:?} visited twice");
                let cheb = (key.x - center.x)
                    .abs()
                    .max((key.y - center.y).abs())
                    .max((key.z - center.z).abs());
                assert_eq!(cheb, ring);
                count += 1;
            });
        }
        // Rings 0..=3 exactly tile the 7x7x7 cube.
        assert_eq!(count, 7 * 7 * 7);
    }

    #[test]
    fn ring_search_reports_budget_exhaustion() {
        // A wide occupied key box with a tiny budget: the driver must give
        // up between rings instead of enumerating the whole box.
        let lo = VoxelKey {
            x: -20,
            y: -20,
            z: -20,
        };
        let hi = VoxelKey {
            x: 20,
            y: 20,
            z: 20,
        };
        let mut visited = 0usize;
        let outcome =
            RingSearch::new(1.0, lo, hi)
                .with_fallback_budget(5)
                .run(Vec3::ZERO, None, |_| {
                    visited += 1;
                    None // never found: forces the search outward
                });
        assert_eq!(outcome, RingSearchOutcome::BudgetExhausted);
        assert!(visited > 5, "budget is checked between rings");
    }

    #[test]
    fn ring_search_initial_bound_prunes_far_rings() {
        // With a 2-cell initial bound, rings past the bound are never
        // enumerated even though the key box is huge.
        let lo = VoxelKey {
            x: -100,
            y: -100,
            z: -100,
        };
        let hi = VoxelKey {
            x: 100,
            y: 100,
            z: 100,
        };
        let mut rings_seen = std::collections::HashSet::new();
        RingSearch::new(1.0, lo, hi).run(Vec3::new(0.5, 0.5, 0.5), Some(4.0), |key| {
            rings_seen.insert(key.x.abs().max(key.y.abs()).max(key.z.abs()));
            Some(4.0)
        });
        // The ring loop breaks once (ring-1)² > 4 (ring 4); ring-3 cells
        // are all at least 2.5 m away, so the cell prune skips every one.
        assert!(rings_seen.contains(&2));
        assert!(!rings_seen.contains(&3));
        assert!(!rings_seen.contains(&4));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn ring_search_rejects_bad_cell() {
        let k = VoxelKey { x: 0, y: 0, z: 0 };
        let _ = RingSearch::new(-1.0, k, k);
    }

    #[test]
    fn ray_walk_axis_aligned_and_degenerate() {
        let ray = Ray::new(Vec3::new(0.5, 0.5, 0.5), Vec3::X);
        let walk: Vec<(VoxelKey, f64)> = GridRayWalk::new(&ray, 1.0, 5.25).collect();
        assert_eq!(walk.len(), 6);
        for (i, (key, _)) in walk.iter().enumerate() {
            assert_eq!(
                *key,
                VoxelKey {
                    x: i as i64,
                    y: 0,
                    z: 0
                }
            );
        }
        // Negative max_t yields nothing.
        assert_eq!(GridRayWalk::new(&ray, 1.0, -1.0).count(), 0);
    }
}
