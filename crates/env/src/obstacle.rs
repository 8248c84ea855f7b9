//! Obstacles and the obstacle field the MAV navigates through.
//!
//! The field keeps a uniform broad-phase grid over its obstacles: every
//! query (occupancy, nearest distance, radius gathers, ray casts) visits
//! only the cells near the query instead of scanning every obstacle. The
//! grid is an exact accelerator — each query returns the same result as the
//! retained `*_linear` reference scans, which the equivalence proptests in
//! `tests/proptests.rs` enforce on random worlds.

use roborun_geom::index::{GridRayWalk, RingSearch, RingSearchOutcome};
use roborun_geom::{Aabb, Aabb4, Aabb8, FxHashMap, Ray, SimdWidth, Vec3, VoxelKey};
use serde::{Deserialize, Serialize};

/// A single static obstacle, modelled as an axis-aligned box.
///
/// Warehouse racks, building fragments and debris are all boxes in the
/// reproduction; the navigation pipeline only ever observes them through
/// depth rays, so the exact shape family is immaterial as long as it
/// produces occlusion, gaps and collision hazards.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Obstacle {
    /// Stable identifier (index in the generated world).
    pub id: u32,
    /// Occupied region.
    pub bounds: Aabb,
}

impl Obstacle {
    /// Creates an obstacle.
    pub fn new(id: u32, bounds: Aabb) -> Self {
        Obstacle { id, bounds }
    }

    /// Centre of the obstacle.
    pub fn center(&self) -> Vec3 {
        self.bounds.center()
    }
}

/// Result of casting a ray into the obstacle field.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObstacleHit {
    /// Index of the obstacle that was hit.
    pub obstacle_id: u32,
    /// Distance along the ray to the hit point.
    pub distance: f64,
    /// World-space hit point.
    pub point: Vec3,
}

/// Broad-phase cell size used when a field starts empty (metres).
const DEFAULT_CELL: f64 = 8.0;

/// Minimum real lanes for which the trailing partial [`Aabb8`] pack is
/// queried through the batched 8-lane kernel rather than the scalar
/// loop. Below this, 8 lanes of arithmetic for ≤4 real boxes costs more
/// than the scalar loop it replaces (the same measurement that keeps
/// partial [`Aabb4`] packs scalar); at 5+ real lanes the masked 8-wide
/// call wins even before vectorisation.
const W8_TAIL_MIN_LANES: usize = 5;

/// Per-cell pack storage at the width [`SimdWidth`] dispatch selected
/// when the broad phase was built. Both variants answer every query
/// bit-identically (each batched lane is bit-identical to the scalar
/// test and padding lanes are masked to misses), so width only changes
/// throughput, never results.
#[derive(Debug, Clone)]
enum PackStore {
    /// Four-lane packs: full packs batched, the trailing partial pack
    /// scalar (batched lane arithmetic only pays for itself when all
    /// four lanes carry real boxes — measured; a 1-box cell through a
    /// 4-lane kernel is ~4× the arithmetic with no SIMD win to offset
    /// it).
    W4(Vec<Aabb4>),
    /// Eight-lane packs: full packs batched, the trailing partial pack
    /// batched when it has at least [`W8_TAIL_MIN_LANES`] real lanes
    /// (padding lanes mask to misses), scalar below that.
    W8(Vec<Aabb8>),
}

impl PackStore {
    fn new(width: SimdWidth) -> Self {
        match width {
            SimdWidth::W4 => PackStore::W4(Vec::new()),
            SimdWidth::W8 => PackStore::W8(Vec::new()),
        }
    }
}

impl Default for PackStore {
    fn default() -> Self {
        PackStore::new(SimdWidth::detect())
    }
}

/// One broad-phase cell: the indices of the obstacles overlapping it,
/// plus their bounds packed in struct-of-arrays slabs ([`Aabb4`] or
/// [`Aabb8`], chosen once per grid by [`SimdWidth`] runtime dispatch) so
/// the raycast / margin / nearest inner loops consume the packs directly
/// — `W` branch-free lanes of contiguous `f64`s per slab test or
/// distance, instead of `W` gathered corner structs. For lane width `W`,
/// `packs[k]` holds the bounds of `ids[W·k .. W·k + packs[k].len()]`, in
/// the same order, so lane `l` of pack `k` *is* obstacle `ids[W·k + l]`.
#[derive(Debug, Clone, Default)]
struct CellSlab {
    ids: Vec<u32>,
    store: PackStore,
}

impl CellSlab {
    fn new(width: SimdWidth) -> Self {
        CellSlab {
            ids: Vec::new(),
            store: PackStore::new(width),
        }
    }

    fn push(&mut self, id: u32, bounds: &Aabb) {
        match &mut self.store {
            PackStore::W4(packs) => {
                if self.ids.len().is_multiple_of(4) {
                    packs.push(Aabb4::empty());
                }
                packs
                    .last_mut()
                    .expect("pack appended when lane count is a multiple of 4")
                    .push(bounds);
            }
            PackStore::W8(packs) => {
                if self.ids.len().is_multiple_of(8) {
                    packs.push(Aabb8::empty());
                }
                packs
                    .last_mut()
                    .expect("pack appended when lane count is a multiple of 8")
                    .push(bounds);
            }
        }
        self.ids.push(id);
    }

    /// Visits `(obstacle id, distance)` for every box in the cell,
    /// batching packs per the width policy and falling to the scalar
    /// distance for the rest. Lane order equals `ids` order and each
    /// batched lane distance is bit-identical to the scalar
    /// `Aabb::distance_to_point`, so any fold over this visit is
    /// equivalent to the per-id scalar loop.
    #[inline]
    fn for_each_distance(&self, p: Vec3, obstacles: &[Obstacle], mut visit: impl FnMut(u32, f64)) {
        match &self.store {
            PackStore::W4(packs) => {
                let full = self.ids.len() / 4;
                for (k, pack) in packs.iter().take(full).enumerate() {
                    let d4 = pack.distance_to_point4(p);
                    for (lane, &d) in d4.iter().enumerate() {
                        visit(self.ids[4 * k + lane], d);
                    }
                }
                for &i in &self.ids[4 * full..] {
                    visit(i, obstacles[i as usize].bounds.distance_to_point(p));
                }
            }
            PackStore::W8(packs) => {
                let batched = self.w8_batched_packs();
                for (k, pack) in packs.iter().take(batched).enumerate() {
                    let d8 = pack.distance_to_point8(p);
                    for (lane, &d) in d8.iter().take(pack.len()).enumerate() {
                        visit(self.ids[8 * k + lane], d);
                    }
                }
                for &i in &self.ids[self.w8_scalar_from(batched)..] {
                    visit(i, obstacles[i as usize].bounds.distance_to_point(p));
                }
            }
        }
    }

    /// `true` when any box in the cell lies within `margin` of `p` —
    /// order-independent, so batched packs may early-exit per pack.
    #[inline]
    fn any_within(&self, p: Vec3, margin: f64, obstacles: &[Obstacle]) -> bool {
        match &self.store {
            PackStore::W4(packs) => {
                let full = self.ids.len() / 4;
                packs
                    .iter()
                    .take(full)
                    .any(|pack| pack.distance_to_point4(p).iter().any(|&d| d <= margin))
                    || self.ids[4 * full..]
                        .iter()
                        .any(|&i| obstacles[i as usize].bounds.distance_to_point(p) <= margin)
            }
            PackStore::W8(packs) => {
                let batched = self.w8_batched_packs();
                packs
                    .iter()
                    .take(batched)
                    .any(|pack| pack.distance_to_point8(p).iter().any(|&d| d <= margin))
                    || self.ids[self.w8_scalar_from(batched)..]
                        .iter()
                        .any(|&i| obstacles[i as usize].bounds.distance_to_point(p) <= margin)
            }
        }
    }

    /// Visits `(obstacle id, t_min)` for every box in the cell the ray
    /// hits, batching packs per the width policy. Lane order equals
    /// `ids` order, each batched lane is bit-identical to the scalar
    /// `intersect_aabb`, and padding lanes are masked to misses, so any
    /// fold over this visit is equivalent to the per-id scalar loop.
    #[inline]
    fn for_each_ray_hit(&self, ray: &Ray, obstacles: &[Obstacle], mut visit: impl FnMut(u32, f64)) {
        match &self.store {
            PackStore::W4(packs) => {
                let full = self.ids.len() / 4;
                for (k, pack) in packs.iter().take(full).enumerate() {
                    let hits = ray.intersect_aabb4(pack);
                    for (lane, hit) in hits.iter().enumerate() {
                        if let Some(hit) = hit {
                            visit(self.ids[4 * k + lane], hit.t_min);
                        }
                    }
                }
                for &i in &self.ids[4 * full..] {
                    if let Some(hit) = ray.intersect_aabb(&obstacles[i as usize].bounds) {
                        visit(i, hit.t_min);
                    }
                }
            }
            PackStore::W8(packs) => {
                let batched = self.w8_batched_packs();
                for (k, pack) in packs.iter().take(batched).enumerate() {
                    let hits = ray.intersect_aabb8(pack);
                    for (lane, hit) in hits.iter().enumerate() {
                        if let Some(hit) = hit {
                            visit(self.ids[8 * k + lane], hit.t_min);
                        }
                    }
                }
                for &i in &self.ids[self.w8_scalar_from(batched)..] {
                    if let Some(hit) = ray.intersect_aabb(&obstacles[i as usize].bounds) {
                        visit(i, hit.t_min);
                    }
                }
            }
        }
    }

    /// Number of leading 8-lane packs that go through the batched
    /// kernel: all full packs, plus the trailing partial pack when it
    /// carries at least [`W8_TAIL_MIN_LANES`] real lanes.
    #[inline]
    fn w8_batched_packs(&self) -> usize {
        let full = self.ids.len() / 8;
        if self.ids.len() % 8 >= W8_TAIL_MIN_LANES {
            full + 1
        } else {
            full
        }
    }

    /// First id index the scalar path covers, given how many leading
    /// packs were batched (a batched partial tail covers `ids` to the
    /// end, so the scalar range is empty).
    #[inline]
    fn w8_scalar_from(&self, batched: usize) -> usize {
        (8 * batched).min(self.ids.len())
    }
}

/// The uniform broad-phase grid: obstacle indices bucketed by every cell
/// their bounds overlap, with per-cell SIMD-ready bound packs at the
/// width selected once at build time.
#[derive(Debug, Clone)]
struct BroadPhase {
    cell: f64,
    width: SimdWidth,
    cells: FxHashMap<VoxelKey, CellSlab>,
    /// Key-space bounds of all inserted obstacles (valid when `cells` is
    /// non-empty).
    key_min: VoxelKey,
    key_max: VoxelKey,
}

impl Default for BroadPhase {
    fn default() -> Self {
        BroadPhase {
            cell: DEFAULT_CELL,
            width: SimdWidth::detect(),
            cells: FxHashMap::default(),
            key_min: VoxelKey { x: 0, y: 0, z: 0 },
            key_max: VoxelKey { x: 0, y: 0, z: 0 },
        }
    }
}

impl BroadPhase {
    /// Builds a grid for `obstacles` at the host-detected pack width,
    /// sizing cells from the mean obstacle extent so each obstacle lands
    /// in O(1) cells.
    fn build(obstacles: &[Obstacle]) -> Self {
        BroadPhase::build_with_width(obstacles, SimdWidth::detect())
    }

    /// [`BroadPhase::build`] at an explicit pack width — the hook the
    /// equivalence tests and benches use to exercise both widths on one
    /// host.
    fn build_with_width(obstacles: &[Obstacle], width: SimdWidth) -> Self {
        let cell = if obstacles.is_empty() {
            DEFAULT_CELL
        } else {
            let mean_extent: f64 = obstacles
                .iter()
                .map(|o| o.bounds.size().max_component())
                .sum::<f64>()
                / obstacles.len() as f64;
            (2.0 * mean_extent).clamp(1.0, 64.0)
        };
        let mut grid = BroadPhase {
            cell,
            width,
            ..BroadPhase::default()
        };
        for (i, o) in obstacles.iter().enumerate() {
            grid.insert(i as u32, &o.bounds);
        }
        grid
    }

    fn insert(&mut self, index: u32, bounds: &Aabb) {
        let lo = VoxelKey::from_point(bounds.min, self.cell);
        let hi = VoxelKey::from_point(bounds.max, self.cell);
        if self.cells.is_empty() {
            self.key_min = lo;
            self.key_max = hi;
        } else {
            self.key_min = self.key_min.componentwise_min(lo);
            self.key_max = self.key_max.componentwise_max(hi);
        }
        let width = self.width;
        for x in lo.x..=hi.x {
            for y in lo.y..=hi.y {
                for z in lo.z..=hi.z {
                    self.cells
                        .entry(VoxelKey { x, y, z })
                        .or_insert_with(|| CellSlab::new(width))
                        .push(index, bounds);
                }
            }
        }
    }

    /// Clamps a key range to the occupied key bounds.
    fn clamp_range(&self, lo: VoxelKey, hi: VoxelKey) -> (VoxelKey, VoxelKey) {
        (
            lo.componentwise_max(self.key_min),
            hi.componentwise_min(self.key_max),
        )
    }
}

/// A collection of static obstacles with grid-accelerated spatial queries.
///
/// This is the ground-truth world: sensors, visibility analysis and
/// collision checks all query it. The navigation pipeline itself only sees
/// the world through the perception stage (point clouds and the occupancy
/// map), mirroring the paper's setup where AirSim owns the ground truth.
///
/// # Example
///
/// ```
/// use roborun_env::{Obstacle, ObstacleField};
/// use roborun_geom::{Aabb, Vec3};
///
/// let field = ObstacleField::new(vec![
///     Obstacle::new(0, Aabb::from_center_half_extents(Vec3::new(5.0, 0.0, 1.0), Vec3::splat(1.0))),
/// ]);
/// assert!(field.is_occupied(Vec3::new(5.0, 0.0, 1.0)));
/// assert!(!field.is_occupied(Vec3::ZERO));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ObstacleField {
    obstacles: Vec<Obstacle>,
    /// Broad-phase acceleration grid — fully derivable from `obstacles`,
    /// so it is excluded from serialized forms and rebuilt on load (see
    /// [`ObstacleField::rebuild_spatial_caches`]).
    #[serde(skip)]
    grid: BroadPhase,
}

impl ObstacleField {
    /// Creates a field from a list of obstacles. The broad-phase packs
    /// are laid out at the host-detected [`SimdWidth`] (AVX hosts get
    /// 8-lane [`Aabb8`] packs, everything else the 4-lane baseline);
    /// since both widths answer bit-identically, the choice is invisible
    /// to every caller.
    pub fn new(obstacles: Vec<Obstacle>) -> Self {
        let grid = BroadPhase::build(&obstacles);
        ObstacleField { obstacles, grid }
    }

    /// [`ObstacleField::new`] at an explicit broad-phase pack width —
    /// the hook equivalence tests and benches use to compare both
    /// widths on one host regardless of what it detects.
    pub fn with_simd_width(obstacles: Vec<Obstacle>, width: SimdWidth) -> Self {
        let grid = BroadPhase::build_with_width(&obstacles, width);
        ObstacleField { obstacles, grid }
    }

    /// Creates an empty field (open sky).
    pub fn empty() -> Self {
        ObstacleField::default()
    }

    /// The obstacles in the field.
    pub fn obstacles(&self) -> &[Obstacle] {
        &self.obstacles
    }

    /// Number of obstacles.
    pub fn len(&self) -> usize {
        self.obstacles.len()
    }

    /// `true` when the field has no obstacles.
    pub fn is_empty(&self) -> bool {
        self.obstacles.is_empty()
    }

    /// Broad-phase cell edge length (metres).
    pub fn broad_phase_cell(&self) -> f64 {
        self.grid.cell
    }

    /// Rebuilds the broad-phase grid from the obstacle list.
    ///
    /// The grid is `#[serde(skip)]`: it is derivable state, so serialized
    /// fields carry only the obstacles and a deserialized field holds a
    /// default (empty) grid. Deserializers must call this before querying —
    /// after it, every query answers exactly as on the original field
    /// (enforced by the round-trip test).
    pub fn rebuild_spatial_caches(&mut self) {
        self.grid = BroadPhase::build(&self.obstacles);
    }

    /// Adds an obstacle to the field.
    pub fn push(&mut self, obstacle: Obstacle) {
        let index = self.obstacles.len() as u32;
        self.grid.insert(index, &obstacle.bounds);
        self.obstacles.push(obstacle);
    }

    /// `true` when the point lies inside any obstacle.
    pub fn is_occupied(&self, p: Vec3) -> bool {
        let key = VoxelKey::from_point(p, self.grid.cell);
        self.grid
            .cells
            .get(&key)
            .map(|slab| {
                slab.ids
                    .iter()
                    .any(|&i| self.obstacles[i as usize].bounds.contains(p))
            })
            .unwrap_or(false)
    }

    /// `true` when a sphere of radius `margin` centred at `p` intersects
    /// any obstacle — the collision predicate used with the MAV's body
    /// radius.
    pub fn is_occupied_with_margin(&self, p: Vec3, margin: f64) -> bool {
        if self.obstacles.is_empty() {
            return false;
        }
        let lo = VoxelKey::from_point(p - Vec3::splat(margin), self.grid.cell);
        let hi = VoxelKey::from_point(p + Vec3::splat(margin), self.grid.cell);
        let (lo, hi) = self.grid.clamp_range(lo, hi);
        for x in lo.x..=hi.x {
            for y in lo.y..=hi.y {
                for z in lo.z..=hi.z {
                    if let Some(slab) = self.grid.cells.get(&VoxelKey { x, y, z }) {
                        // Batched lane distances per the width policy
                        // (padding never passes), scalar for the rest.
                        if slab.any_within(p, margin, &self.obstacles) {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// Euclidean distance from `p` to the closest obstacle surface, or
    /// `None` for an empty field.
    pub fn distance_to_nearest(&self, p: Vec3) -> Option<f64> {
        self.nearest_indexed(p).map(|(d, _)| d)
    }

    /// The closest obstacle to `p`, or `None` for an empty field.
    pub fn nearest_obstacle(&self, p: Vec3) -> Option<&Obstacle> {
        self.nearest_indexed(p)
            .map(|(_, i)| &self.obstacles[i as usize])
    }

    /// Expanding-ring nearest search; returns `(distance, obstacle index)`,
    /// breaking distance ties towards the lowest index (the same winner as
    /// a first-minimum linear scan). Falls back to the linear scan when the
    /// rings visit more cells than a scan would cost.
    fn nearest_indexed(&self, p: Vec3) -> Option<(f64, u32)> {
        if self.obstacles.is_empty() {
            return None;
        }
        let mut best: Option<(f64, u32)> = None;
        let outcome = RingSearch::new(self.grid.cell, self.grid.key_min, self.grid.key_max)
            .with_fallback_budget(2 * self.obstacles.len())
            .run(p, None, |key| {
                if let Some(slab) = self.grid.cells.get(&key) {
                    // Lane distances are bit-identical to the scalar
                    // `distance_to_point` and visited in `ids` order, so
                    // the tie-breaking fold below selects exactly the
                    // winner the per-id scalar loop would.
                    slab.for_each_distance(p, &self.obstacles, |i, d| {
                        let better = match best {
                            None => true,
                            Some((bd, bi)) => d < bd || (d == bd && i < bi),
                        };
                        if better {
                            best = Some((d, i));
                        }
                    });
                }
                best.map(|(d, _)| d * d)
            });
        if outcome == RingSearchOutcome::BudgetExhausted {
            // The ring search has grown more expensive than a scan: finish
            // linearly (same comparison, so the result and its tie-breaking
            // are unchanged).
            for (i, o) in self.obstacles.iter().enumerate() {
                let d = o.bounds.distance_to_point(p);
                let better = match best {
                    None => true,
                    Some((bd, bi)) => d < bd || (d == bd && (i as u32) < bi),
                };
                if better {
                    best = Some((d, i as u32));
                }
            }
        }
        best
    }

    /// Obstacles whose surface lies within `radius` of `p`.
    pub fn obstacles_within(&self, p: Vec3, radius: f64) -> Vec<&Obstacle> {
        self.within_indices(p, radius)
            .into_iter()
            .map(|i| &self.obstacles[i as usize])
            .collect()
    }

    /// Indices (ascending) of obstacles within `radius` of `p`.
    fn within_indices(&self, p: Vec3, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        if self.obstacles.is_empty() || radius < 0.0 {
            return out;
        }
        let lo = VoxelKey::from_point(p - Vec3::splat(radius), self.grid.cell);
        let hi = VoxelKey::from_point(p + Vec3::splat(radius), self.grid.cell);
        let (lo, hi) = self.grid.clamp_range(lo, hi);
        let cube_cells = (hi.x - lo.x + 1).max(0) as u128
            * (hi.y - lo.y + 1).max(0) as u128
            * (hi.z - lo.z + 1).max(0) as u128;
        if cube_cells > self.grid.cells.len() as u128 {
            for (key, slab) in &self.grid.cells {
                if key.x >= lo.x
                    && key.x <= hi.x
                    && key.y >= lo.y
                    && key.y <= hi.y
                    && key.z >= lo.z
                    && key.z <= hi.z
                {
                    out.extend(slab.ids.iter().copied());
                }
            }
        } else {
            for x in lo.x..=hi.x {
                for y in lo.y..=hi.y {
                    for z in lo.z..=hi.z {
                        if let Some(slab) = self.grid.cells.get(&VoxelKey { x, y, z }) {
                            out.extend(slab.ids.iter().copied());
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out.retain(|&i| self.obstacles[i as usize].bounds.distance_to_point(p) <= radius);
        out
    }

    /// Casts a ray and returns the first obstacle hit within `max_range`.
    ///
    /// Walks only the grid cells along the ray (DDA traversal) and stops as
    /// soon as no later cell can contain a closer hit.
    pub fn raycast(&self, ray: &Ray, max_range: f64) -> Option<ObstacleHit> {
        if self.obstacles.is_empty() {
            return None;
        }
        // Track the winning obstacle *index* so distance ties resolve to
        // the lowest index — the same winner as the linear first-wins scan.
        let mut best: Option<(ObstacleHit, u32)> = None;
        for (key, t_entry) in GridRayWalk::new(ray, self.grid.cell, max_range) {
            if let Some((b, _)) = &best {
                if t_entry > b.distance {
                    break;
                }
            }
            let Some(slab) = self.grid.cells.get(&key) else {
                continue;
            };
            // Slab-test the cell's SoA packs batched per the width
            // policy, the rest through the scalar test. Each batched
            // lane is bit-identical to the scalar `intersect_aabb`, and
            // lanes are visited in `ids` order, so the tie-breaking fold
            // picks the same winner as the per-id scalar loop.
            slab.for_each_ray_hit(ray, &self.obstacles, |i, t_min| {
                if t_min <= max_range {
                    let better = match &best {
                        None => true,
                        Some((b, bi)) => t_min < b.distance || (t_min == b.distance && i < *bi),
                    };
                    if better {
                        best = Some((
                            ObstacleHit {
                                obstacle_id: self.obstacles[i as usize].id,
                                distance: t_min,
                                point: ray.at(t_min),
                            },
                            i,
                        ));
                    }
                }
            });
        }
        best.map(|(hit, _)| hit)
    }

    /// Distance the ray can travel before hitting an obstacle, capped at
    /// `max_range`. This is the primitive behind the visibility model.
    pub fn free_distance(&self, ray: &Ray, max_range: f64) -> f64 {
        self.raycast(ray, max_range)
            .map(|h| h.distance)
            .unwrap_or(max_range)
    }

    /// `true` when the straight segment between `a` and `b` passes within
    /// `margin` of any obstacle. Ground-truth collision check used to
    /// validate planned paths in tests and to detect crashes in the
    /// simulator.
    pub fn segment_blocked(&self, a: Vec3, b: Vec3, margin: f64) -> bool {
        let length = a.distance(b);
        if length < 1e-9 {
            return self.is_occupied_with_margin(a, margin);
        }
        // Sample finely relative to the margin (at least 1 cm).
        let step = (margin * 0.5).max(0.05).min(length);
        let ray = Ray::new(a, b - a);
        let mut t = 0.0;
        while t <= length {
            if self.is_occupied_with_margin(ray.at(t), margin) {
                return true;
            }
            t += step;
        }
        self.is_occupied_with_margin(b, margin)
    }

    /// Axis-aligned bounds enclosing every obstacle, or `None` when empty.
    pub fn bounds(&self) -> Option<Aabb> {
        let mut iter = self.obstacles.iter();
        let first = iter.next()?.bounds;
        Some(iter.fold(first, |acc, o| Aabb::union(&acc, &o.bounds)))
    }

    /// Fraction of sample points inside a cubic probe of half-extent
    /// `probe_half` centred at `p` that are occupied — the local obstacle
    /// density measure used by congestion maps (paper: "obstacle density
    /// determines the ratio of occupied cells around a grid cell").
    pub fn local_density(&self, p: Vec3, probe_half: f64, samples_per_axis: usize) -> f64 {
        if samples_per_axis == 0 {
            return 0.0;
        }
        let n = samples_per_axis;
        let mut occupied = 0usize;
        let mut total = 0usize;
        for ix in 0..n {
            for iy in 0..n {
                for iz in 0..n {
                    let frac = |i: usize| {
                        if n == 1 {
                            0.5
                        } else {
                            i as f64 / (n - 1) as f64
                        }
                    };
                    let q = Vec3::new(
                        p.x - probe_half + 2.0 * probe_half * frac(ix),
                        p.y - probe_half + 2.0 * probe_half * frac(iy),
                        p.z - probe_half + 2.0 * probe_half * frac(iz),
                    );
                    total += 1;
                    if self.is_occupied(q) {
                        occupied += 1;
                    }
                }
            }
        }
        occupied as f64 / total as f64
    }

    // --- Retained linear reference implementations -----------------------
    //
    // These are the pre-index O(n) scans. They define the exact semantics
    // the grid-accelerated queries must reproduce; the equivalence
    // proptests compare both on random worlds, and the kernel-scaling
    // benches measure the speedup against them.

    /// Linear-scan reference for [`ObstacleField::is_occupied`].
    pub fn is_occupied_linear(&self, p: Vec3) -> bool {
        self.obstacles.iter().any(|o| o.bounds.contains(p))
    }

    /// Linear-scan reference for [`ObstacleField::is_occupied_with_margin`].
    pub fn is_occupied_with_margin_linear(&self, p: Vec3, margin: f64) -> bool {
        self.obstacles
            .iter()
            .any(|o| o.bounds.distance_to_point(p) <= margin)
    }

    /// Linear-scan reference for [`ObstacleField::distance_to_nearest`].
    pub fn distance_to_nearest_linear(&self, p: Vec3) -> Option<f64> {
        self.obstacles
            .iter()
            .map(|o| o.bounds.distance_to_point(p))
            .min_by(|a, b| a.partial_cmp(b).expect("distance is never NaN"))
    }

    /// Linear-scan reference for [`ObstacleField::nearest_obstacle`].
    pub fn nearest_obstacle_linear(&self, p: Vec3) -> Option<&Obstacle> {
        self.obstacles.iter().min_by(|a, b| {
            a.bounds
                .distance_to_point(p)
                .partial_cmp(&b.bounds.distance_to_point(p))
                .expect("distance is never NaN")
        })
    }

    /// Linear-scan reference for [`ObstacleField::obstacles_within`].
    pub fn obstacles_within_linear(&self, p: Vec3, radius: f64) -> Vec<&Obstacle> {
        self.obstacles
            .iter()
            .filter(|o| o.bounds.distance_to_point(p) <= radius)
            .collect()
    }

    /// Linear-scan reference for [`ObstacleField::raycast`].
    pub fn raycast_linear(&self, ray: &Ray, max_range: f64) -> Option<ObstacleHit> {
        let mut best: Option<ObstacleHit> = None;
        for o in &self.obstacles {
            if let Some(hit) = ray.intersect_aabb(&o.bounds) {
                if hit.t_min <= max_range {
                    let candidate = ObstacleHit {
                        obstacle_id: o.id,
                        distance: hit.t_min,
                        point: ray.at(hit.t_min),
                    };
                    if best
                        .map(|b| candidate.distance < b.distance)
                        .unwrap_or(true)
                    {
                        best = Some(candidate);
                    }
                }
            }
        }
        best
    }
}

impl FromIterator<Obstacle> for ObstacleField {
    fn from_iter<T: IntoIterator<Item = Obstacle>>(iter: T) -> Self {
        ObstacleField::new(iter.into_iter().collect())
    }
}

impl Extend<Obstacle> for ObstacleField {
    fn extend<T: IntoIterator<Item = Obstacle>>(&mut self, iter: T) {
        for obstacle in iter {
            self.push(obstacle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_box_field() -> ObstacleField {
        ObstacleField::new(vec![Obstacle::new(
            0,
            Aabb::from_center_half_extents(Vec3::new(10.0, 0.0, 2.0), Vec3::splat(1.0)),
        )])
    }

    fn two_box_field() -> ObstacleField {
        ObstacleField::new(vec![
            Obstacle::new(
                0,
                Aabb::from_center_half_extents(Vec3::new(10.0, 0.0, 2.0), Vec3::splat(1.0)),
            ),
            Obstacle::new(
                1,
                Aabb::from_center_half_extents(Vec3::new(20.0, 5.0, 2.0), Vec3::splat(2.0)),
            ),
        ])
    }

    #[test]
    fn empty_field_queries() {
        let f = ObstacleField::empty();
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        assert!(!f.is_occupied(Vec3::ZERO));
        assert!(f.distance_to_nearest(Vec3::ZERO).is_none());
        assert!(f.nearest_obstacle(Vec3::ZERO).is_none());
        assert!(f.bounds().is_none());
        let ray = Ray::new(Vec3::ZERO, Vec3::X);
        assert!(f.raycast(&ray, 100.0).is_none());
        assert_eq!(f.free_distance(&ray, 100.0), 100.0);
        assert!(!f.segment_blocked(Vec3::ZERO, Vec3::new(50.0, 0.0, 0.0), 0.5));
    }

    #[test]
    fn occupancy_and_margin() {
        let f = single_box_field();
        assert!(f.is_occupied(Vec3::new(10.0, 0.0, 2.0)));
        assert!(!f.is_occupied(Vec3::new(12.0, 0.0, 2.0)));
        // Margin extends the effective footprint.
        assert!(f.is_occupied_with_margin(Vec3::new(11.5, 0.0, 2.0), 0.6));
        assert!(!f.is_occupied_with_margin(Vec3::new(11.5, 0.0, 2.0), 0.4));
    }

    #[test]
    fn nearest_distance_and_obstacle() {
        let f = two_box_field();
        let d = f.distance_to_nearest(Vec3::new(13.0, 0.0, 2.0)).unwrap();
        assert!((d - 2.0).abs() < 1e-9);
        assert_eq!(f.nearest_obstacle(Vec3::new(13.0, 0.0, 2.0)).unwrap().id, 0);
        assert_eq!(f.nearest_obstacle(Vec3::new(19.0, 5.0, 2.0)).unwrap().id, 1);
        assert_eq!(f.obstacles_within(Vec3::new(10.0, 0.0, 2.0), 3.0).len(), 1);
        assert_eq!(
            f.obstacles_within(Vec3::new(15.0, 2.0, 2.0), 100.0).len(),
            2
        );
    }

    #[test]
    fn raycast_hits_closest_obstacle() {
        let f = two_box_field();
        let ray = Ray::new(Vec3::new(0.0, 0.0, 2.0), Vec3::X);
        let hit = f.raycast(&ray, 100.0).unwrap();
        assert_eq!(hit.obstacle_id, 0);
        assert!((hit.distance - 9.0).abs() < 1e-9);
        assert!((hit.point - Vec3::new(9.0, 0.0, 2.0)).norm() < 1e-9);
        // Out of range.
        assert!(f.raycast(&ray, 5.0).is_none());
        assert_eq!(f.free_distance(&ray, 5.0), 5.0);
        assert!((f.free_distance(&ray, 100.0) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn segment_blocking() {
        let f = single_box_field();
        assert!(f.segment_blocked(Vec3::new(0.0, 0.0, 2.0), Vec3::new(20.0, 0.0, 2.0), 0.3));
        assert!(!f.segment_blocked(Vec3::new(0.0, 10.0, 2.0), Vec3::new(20.0, 10.0, 2.0), 0.3));
        // Degenerate zero-length segment.
        assert!(f.segment_blocked(Vec3::new(10.0, 0.0, 2.0), Vec3::new(10.0, 0.0, 2.0), 0.1));
    }

    #[test]
    fn bounds_cover_all_obstacles() {
        let f = two_box_field();
        let b = f.bounds().unwrap();
        for o in f.obstacles() {
            assert!(b.contains_aabb(&o.bounds));
        }
    }

    #[test]
    fn local_density_monotone_in_congestion() {
        let sparse = single_box_field();
        let mut dense = single_box_field();
        dense.extend((1..6).map(|i| {
            Obstacle::new(
                i,
                Aabb::from_center_half_extents(
                    Vec3::new(10.0 + i as f64 * 1.5, 0.0, 2.0),
                    Vec3::splat(1.0),
                ),
            )
        }));
        let p = Vec3::new(12.0, 0.0, 2.0);
        let d_sparse = sparse.local_density(p, 4.0, 5);
        let d_dense = dense.local_density(p, 4.0, 5);
        assert!(d_dense > d_sparse);
        assert!(d_dense <= 1.0 && d_sparse >= 0.0);
        assert_eq!(sparse.local_density(p, 4.0, 0), 0.0);
    }

    #[test]
    fn collect_and_extend() {
        let field: ObstacleField = (0..5)
            .map(|i| {
                Obstacle::new(
                    i,
                    Aabb::from_center_half_extents(
                        Vec3::new(i as f64 * 5.0, 0.0, 0.0),
                        Vec3::splat(0.5),
                    ),
                )
            })
            .collect();
        assert_eq!(field.len(), 5);
        let mut f2 = ObstacleField::empty();
        f2.extend(field.obstacles().iter().copied());
        assert_eq!(f2.len(), 5);
        f2.push(Obstacle::new(99, Aabb::new(Vec3::ZERO, Vec3::splat(1.0))));
        assert_eq!(f2.len(), 6);
    }

    #[test]
    fn serde_skip_round_trip_answers_identically() {
        // What a serde round trip produces with `#[serde(skip)]` on the
        // grid: the data fields restored, the skipped cache at its
        // `Default`. Before the rebuild the grid is empty (queries would
        // miss); after `rebuild_spatial_caches` every query family answers
        // exactly like the original field.
        let original = two_box_field();
        let mut restored = ObstacleField {
            obstacles: original.obstacles.clone(),
            grid: BroadPhase::default(),
        };
        assert!(
            !restored.is_occupied(Vec3::new(10.0, 0.0, 2.0)),
            "an unrebuilt grid must be observably stale, or the test is vacuous"
        );
        restored.rebuild_spatial_caches();
        let probes = [
            Vec3::new(10.0, 0.0, 2.0),
            Vec3::new(13.0, 0.0, 2.0),
            Vec3::new(19.0, 5.0, 2.0),
            Vec3::new(-30.0, 7.0, 1.0),
        ];
        for p in probes {
            assert_eq!(restored.is_occupied(p), original.is_occupied(p));
            assert_eq!(
                restored.is_occupied_with_margin(p, 0.6),
                original.is_occupied_with_margin(p, 0.6)
            );
            assert_eq!(
                restored.distance_to_nearest(p),
                original.distance_to_nearest(p)
            );
            assert_eq!(
                restored.nearest_obstacle(p).map(|o| o.id),
                original.nearest_obstacle(p).map(|o| o.id)
            );
            let ray = Ray::new(p, Vec3::new(1.0, 0.2, 0.0));
            assert_eq!(restored.raycast(&ray, 80.0), original.raycast(&ray, 80.0));
        }
        assert_eq!(restored.broad_phase_cell(), original.broad_phase_cell());
    }

    #[test]
    fn incremental_push_is_queryable() {
        let mut f = ObstacleField::empty();
        for i in 0..50u32 {
            f.push(Obstacle::new(
                i,
                Aabb::from_center_half_extents(
                    Vec3::new(i as f64 * 3.0, (i % 7) as f64, 2.0),
                    Vec3::splat(0.8),
                ),
            ));
            // The freshly inserted obstacle is immediately visible to every
            // query family.
            let c = f.obstacles()[i as usize].center();
            assert!(f.is_occupied(c));
            assert_eq!(f.nearest_obstacle(c).unwrap().id, i);
            assert!(f.obstacles_within(c, 0.1).iter().any(|o| o.id == i));
        }
        assert_eq!(f.len(), 50);
    }
}
