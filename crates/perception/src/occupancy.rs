//! Occupancy map (the OctoMap substitute) with the raytracer precision
//! operator.
//!
//! The paper's OctoMap kernel "accumulates these point clouds into a 3D map
//! and encodes them in a tree data structure where each leaf is a voxel";
//! its precision operator "is enforced by controlling the step size of the
//! raytracer". Our substitute stores voxels in a hash map keyed by integer
//! voxel coordinates; the tree structure only matters to the paper for the
//! power-of-two pruning performed at export time, which
//! [`crate::PlannerMap`] reproduces by re-keying voxels at coarser
//! power-of-two resolutions.
//!
//! # The bucket index
//!
//! The profilers query the map on every decision (nearest obstacle at the
//! MAV and at each upcoming waypoint, occupied voxels within the gap
//! radius). Those queries must cost what the *nearby occupied* voxels
//! cost, not what the map holds — a long mission's map is dominated by
//! free voxels. The map therefore keeps a private bucket index: every
//! occupied key grouped by its bucket, the cell of edge
//! `BUCKET_FACTOR · resolution` containing it (integer key division, so
//! bucket membership is exact).
//!
//! * **Maintenance.** The index changes exactly where the occupied set
//!   does: a key is appended when `mark_occupied` inserts it for the first
//!   time, removed when the decay rule downgrades it to free, and dropped
//!   by [`OccupancyMap::retain_within`], which walks buckets, not keys —
//!   buckets wholly outside the radius go at once, buckets wholly inside
//!   are untouched, and only buckets crossing the sphere filter their
//!   keys. [`OccupancyMap::rebuild_spatial_caches`] rebuilds it from
//!   scratch. Empty buckets are removed, so every bucket holds keys.
//! * **Exactness.** Queries scan a bucket's keys with the same predicate
//!   as the linear references and only *skip* whole buckets by a lower
//!   bound on their distance. A voxel centre lies at least half a voxel
//!   inside its bucket, and every skip test keeps a one-voxel margin, so
//!   rounding can never skip a bucket holding a match: the results equal
//!   the linear scans bit for bit (`nearest_occupied_distance_linear`,
//!   the filtered `occupied_voxels`), which the proptests check after
//!   every integrate, decay carve and retain.
//! * **Identity.** The index is derived state: skipped by serde and left
//!   out of `PartialEq`, since the order of keys inside a bucket records
//!   insertion history, not map content.

use crate::PointCloud;
use roborun_geom::{
    cell_min_distance_squared, Aabb, FxHashMap, FxHashSet, Ray, RingSearch, Vec3, VoxelKey,
};
use serde::{Deserialize, Serialize};

/// Bucket edge of the occupied-key index, in voxels (see the module docs).
const BUCKET_FACTOR: i64 = 8;

/// The index bucket holding `key`.
fn bucket_of(key: VoxelKey) -> VoxelKey {
    VoxelKey {
        x: key.x.div_euclid(BUCKET_FACTOR),
        y: key.y.div_euclid(BUCKET_FACTOR),
        z: key.z.div_euclid(BUCKET_FACTOR),
    }
}

/// Squared distance from `p` to the farthest point of the cell `key` at
/// the given cell size.
fn cell_max_distance_squared(key: VoxelKey, cell: f64, p: Vec3) -> f64 {
    let mut d2 = 0.0;
    for (k, coord) in [(key.x, p.x), (key.y, p.y), (key.z, p.z)] {
        let lo = k as f64 * cell;
        let d = (coord - lo).abs().max((lo + cell - coord).abs());
        d2 += d * d;
    }
    d2
}

/// The bounds of the voxel `key` at resolution `res`.
fn voxel_bounds(key: VoxelKey, res: f64) -> Aabb {
    Aabb::from_center_half_extents(key.center(res), Vec3::splat(res * 0.5))
}

/// `true` when two voxel keys are equal or differ by one grid step along
/// exactly one axis — the only transitions between consecutive run heads
/// for which the batched carve's two-key argument holds (see
/// [`OccupancyMap::carve_free_batched`]).
fn unit_step_apart(a: VoxelKey, b: VoxelKey) -> bool {
    a.manhattan_distance(&b) <= 1
}

/// State of a known voxel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VoxelState {
    /// The voxel contains an observed obstacle surface.
    Occupied,
    /// The voxel was traversed by at least one sensor ray without a hit.
    Free,
}

/// Summary statistics of an occupancy map.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MapStats {
    /// Number of occupied voxels.
    pub occupied: usize,
    /// Number of free voxels.
    pub free: usize,
    /// Voxel edge length (metres).
    pub resolution: f64,
    /// Total volume of known (occupied + free) space, cubic metres.
    pub known_volume: f64,
    /// Total volume of occupied space, cubic metres.
    pub occupied_volume: f64,
}

/// A uniform-resolution occupancy map built from point clouds.
///
/// # Example
///
/// ```
/// use roborun_perception::{OccupancyMap, PointCloud};
/// use roborun_geom::Vec3;
///
/// let mut map = OccupancyMap::new(0.5);
/// let cloud = PointCloud::new(Vec3::ZERO, vec![Vec3::new(3.0, 0.0, 0.0)]);
/// map.integrate_cloud(&cloud, 0.5);
/// assert!(map.is_occupied(Vec3::new(3.0, 0.0, 0.0)));
/// assert!(!map.is_occupied(Vec3::new(1.0, 0.0, 0.0))); // carved free
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OccupancyMap {
    resolution: f64,
    voxels: FxHashMap<VoxelKey, VoxelState>,
    /// The occupied subset of `voxels`' keys, kept in sync so nearest-
    /// obstacle searches never iterate the (far more numerous) free voxels.
    /// Derivable from `voxels`, so excluded from serialized forms and
    /// rebuilt on load (see [`OccupancyMap::rebuild_spatial_caches`]).
    #[serde(skip)]
    occupied: FxHashSet<VoxelKey>,
    /// Key-space bounds of `occupied` (valid when non-empty); they let the
    /// ring search skip shells that cannot contain an occupied voxel.
    /// Derivable like `occupied` and skipped with it. Decay can leave them
    /// conservatively large, which only costs ring pruning efficiency,
    /// never correctness.
    #[serde(skip)]
    occupied_min: VoxelKey,
    #[serde(skip)]
    occupied_max: VoxelKey,
    /// Stale-occupied decay window in epochs, or `None` (the default) for
    /// the classic accrete-only behaviour. Runtime configuration, not
    /// map content: excluded from serialized forms and comparisons reset
    /// it alongside the other skipped fields.
    #[serde(skip)]
    decay_after: Option<u64>,
    /// Epoch stamp applied to occupied observations while decay is
    /// enabled (set by [`OccupancyMap::set_epoch`]).
    #[serde(skip)]
    current_epoch: u64,
    /// Epoch each occupied voxel was last observed occupied at — only
    /// maintained while decay is enabled.
    #[serde(skip)]
    last_occupied_epoch: FxHashMap<VoxelKey, u64>,
    /// The occupied keys grouped by bucket (see the module docs).
    #[serde(skip)]
    buckets: FxHashMap<VoxelKey, Vec<VoxelKey>>,
}

/// Maps compare by everything but the bucket index (see the module docs).
impl PartialEq for OccupancyMap {
    fn eq(&self, other: &Self) -> bool {
        let OccupancyMap {
            resolution,
            voxels,
            occupied,
            occupied_min,
            occupied_max,
            decay_after,
            current_epoch,
            last_occupied_epoch,
            buckets: _,
        } = self;
        *resolution == other.resolution
            && *voxels == other.voxels
            && *occupied == other.occupied
            && *occupied_min == other.occupied_min
            && *occupied_max == other.occupied_max
            && *decay_after == other.decay_after
            && *current_epoch == other.current_epoch
            && *last_occupied_epoch == other.last_occupied_epoch
    }
}

impl OccupancyMap {
    /// Creates an empty map with the given voxel size (metres).
    ///
    /// # Panics
    ///
    /// Panics if `resolution <= 0`.
    pub fn new(resolution: f64) -> Self {
        assert!(
            resolution > 0.0,
            "map resolution must be positive, got {resolution}"
        );
        OccupancyMap {
            resolution,
            voxels: FxHashMap::default(),
            occupied: FxHashSet::default(),
            occupied_min: VoxelKey { x: 0, y: 0, z: 0 },
            occupied_max: VoxelKey { x: 0, y: 0, z: 0 },
            decay_after: None,
            current_epoch: 0,
            last_occupied_epoch: FxHashMap::default(),
            buckets: FxHashMap::default(),
        }
    }

    /// Enables (or disables, with `None`) stale-occupied decay.
    ///
    /// With decay set to `Some(n)`, a free-space carve through an
    /// occupied voxel **downgrades it to free** when the voxel's last
    /// occupied observation is more than `n` epochs older than the
    /// current epoch (see [`OccupancyMap::set_epoch`]) — the mechanism
    /// that lets cells vacated by moving obstacles actually free up.
    /// Fresh occupied observations still win, exactly as in OctoMap's
    /// clamping policy: only *stale* occupancy yields to contradicting
    /// free evidence. With decay `None` (the default) the map keeps the
    /// classic accrete-only behaviour bit for bit.
    ///
    /// Decay state is runtime configuration (`#[serde(skip)]`): a
    /// deserialized map starts with decay disabled.
    pub fn set_stale_decay(&mut self, epochs: Option<u64>) {
        self.decay_after = epochs;
        if epochs.is_none() {
            self.last_occupied_epoch = FxHashMap::default();
        }
    }

    /// The stale-occupied decay window, if enabled.
    pub fn stale_decay(&self) -> Option<u64> {
        self.decay_after
    }

    /// Sets the epoch stamped onto occupied observations and compared
    /// against by the decay rule. Epochs are the caller's decision
    /// counter; the map only ever compares differences.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.current_epoch = epoch;
    }

    /// The current epoch (see [`OccupancyMap::set_epoch`]).
    pub fn epoch(&self) -> u64 {
        self.current_epoch
    }

    /// Extends the occupied key bounds to cover `key`.
    fn grow_occupied_bounds(&mut self, key: VoxelKey) {
        if self.occupied.is_empty() {
            self.occupied_min = key;
            self.occupied_max = key;
        } else {
            self.occupied_min = self.occupied_min.componentwise_min(key);
            self.occupied_max = self.occupied_max.componentwise_max(key);
        }
    }

    /// Voxel edge length (metres).
    pub fn resolution(&self) -> f64 {
        self.resolution
    }

    /// Number of known voxels (occupied + free).
    pub fn len(&self) -> usize {
        self.voxels.len()
    }

    /// `true` when nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.voxels.is_empty()
    }

    /// Integrates a point cloud: every point marks its voxel occupied and
    /// the ray from the cloud origin to the point carves free space.
    ///
    /// `raytrace_step` is the **OctoMap precision operator**: the distance
    /// between free-space samples along each ray. A coarser step visits
    /// fewer voxels (cheaper, as the paper's Eq. 4 models) at the cost of
    /// possibly missing thin free corridors. Returns the number of voxel
    /// updates performed (a direct measure of the work done).
    ///
    /// # Panics
    ///
    /// Panics if `raytrace_step <= 0`.
    pub fn integrate_cloud(&mut self, cloud: &PointCloud, raytrace_step: f64) -> usize {
        assert!(raytrace_step > 0.0, "raytrace step must be positive");
        let origin = cloud.origin();
        // Batching pays off when several samples share a voxel — measured,
        // the crossover sits above two samples per voxel; below that the
        // per-sample loop is already optimal, so use it directly.
        let batch = raytrace_step * 2.0 < self.resolution;
        let mut updates = 0usize;
        for &point in cloud.points() {
            let distance = origin.distance(point);
            if distance > 1e-9 {
                let ray = Ray::new(origin, point - origin);
                // Carve free space up to (but not including) the hit voxel.
                let limit = distance - self.resolution;
                updates += if batch {
                    self.carve_free_batched(&ray, limit, raytrace_step)
                } else {
                    self.carve_free_per_sample(&ray, limit, raytrace_step)
                };
            }
            self.mark_occupied(VoxelKey::from_point(point, self.resolution));
            updates += 1;
        }
        updates
    }

    /// Reference implementation of [`OccupancyMap::integrate_cloud`]: every
    /// ray sample is keyed and hashed independently
    /// (`OccupancyMap::carve_free_per_sample`, unconditionally). Retained
    /// for the exact-equivalence proptests and the kernel-scaling benches;
    /// the production path batches samples per traversed voxel when the
    /// step is finer than a voxel.
    ///
    /// # Panics
    ///
    /// Panics if `raytrace_step <= 0`.
    pub fn integrate_cloud_reference(&mut self, cloud: &PointCloud, raytrace_step: f64) -> usize {
        assert!(raytrace_step > 0.0, "raytrace step must be positive");
        let origin = cloud.origin();
        let mut updates = 0usize;
        for &point in cloud.points() {
            let distance = origin.distance(point);
            if distance > 1e-9 {
                let ray = Ray::new(origin, point - origin);
                updates +=
                    self.carve_free_per_sample(&ray, distance - self.resolution, raytrace_step);
            }
            self.mark_occupied(VoxelKey::from_point(point, self.resolution));
            updates += 1;
        }
        updates
    }

    /// Marks one voxel as observed free. Never downgrades a *fresh*
    /// occupied voxel: occupied observations win, as in OctoMap's
    /// clamping policy. With stale-occupied decay enabled
    /// ([`OccupancyMap::set_stale_decay`]) **and** `decay_eligible`
    /// evidence, an occupied voxel whose last occupied observation has
    /// gone stale yields to the contradicting free ray — it demonstrably
    /// passed through the cell, so whatever occupied it has moved on.
    ///
    /// `decay_eligible` is `false` for samples near the end of a carve
    /// (the occlusion boundary): a ray grazing the corner of a partially
    /// filled voxel right before its hit point is *not* evidence the
    /// voxel is empty — treating it as such erodes real static surfaces
    /// cell by cell. Only samples the ray clears by a comfortable margin
    /// may decay (see [`OccupancyMap::integrate_cloud`]).
    #[inline]
    fn mark_free(&mut self, key: VoxelKey, decay_eligible: bool) {
        use std::collections::hash_map::Entry;
        match self.voxels.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(VoxelState::Free);
            }
            Entry::Occupied(mut slot) => {
                if *slot.get() != VoxelState::Occupied || !decay_eligible {
                    return;
                }
                let Some(max_age) = self.decay_after else {
                    return;
                };
                let stale = self
                    .last_occupied_epoch
                    .get(&key)
                    // Occupied before decay was enabled ⇒ age unknown ⇒
                    // treat as stale (the conservative direction for a
                    // cell a ray just saw through).
                    .is_none_or(|&seen| self.current_epoch.saturating_sub(seen) > max_age);
                if stale {
                    slot.insert(VoxelState::Free);
                    self.occupied.remove(&key);
                    self.last_occupied_epoch.remove(&key);
                    self.unindex(key);
                    // The occupied bounds stay conservatively large; the
                    // ring searches only use them as an outer cover.
                }
            }
        }
    }

    /// Stamps one voxel occupied, maintaining the occupied caches and —
    /// while decay is enabled — the last-observed epoch.
    #[inline]
    fn mark_occupied(&mut self, key: VoxelKey) {
        self.voxels.insert(key, VoxelState::Occupied);
        self.grow_occupied_bounds(key);
        if self.occupied.insert(key) {
            self.buckets.entry(bucket_of(key)).or_default().push(key);
        }
        if self.decay_after.is_some() {
            self.last_occupied_epoch.insert(key, self.current_epoch);
        }
    }

    /// Removes one key from the bucket index, dropping its bucket when it
    /// empties.
    fn unindex(&mut self, key: VoxelKey) {
        let bucket = bucket_of(key);
        if let Some(keys) = self.buckets.get_mut(&bucket) {
            if let Some(i) = keys.iter().position(|k| *k == key) {
                keys.swap_remove(i);
            }
            if keys.is_empty() {
                self.buckets.remove(&bucket);
            }
        }
    }

    /// Edge length of an index bucket (metres).
    fn bucket_size(&self) -> f64 {
        self.resolution * BUCKET_FACTOR as f64
    }

    /// Largest sample parameter still *decay-eligible* on a carve to
    /// `limit`: samples within two voxels of the carve end sit at the
    /// occlusion boundary (the ray is about to hit something there) and
    /// must not count as evidence against a stale occupied cell.
    #[inline]
    fn decay_limit(&self, limit: f64) -> f64 {
        limit - 2.0 * self.resolution
    }

    /// The per-sample free-space carve: every sample `t = 0, step, 2·step,
    /// … < limit` is keyed and marked independently. This *is* the
    /// reference semantics; [`OccupancyMap::carve_free_batched`] must
    /// reproduce it bit for bit.
    fn carve_free_per_sample(&mut self, ray: &Ray, limit: f64, step: f64) -> usize {
        let decay_limit = self.decay_limit(limit);
        let mut updates = 0usize;
        let mut t = 0.0;
        while t < limit {
            let key = VoxelKey::from_point(ray.at(t), self.resolution);
            self.mark_free(key, t <= decay_limit);
            updates += 1;
            t += step;
        }
        updates
    }

    /// The batched free-space carve: samples sharing a voxel are grouped
    /// into runs and each run costs one keying and one hash operation
    /// instead of one per sample. Exactly equivalent to
    /// [`OccupancyMap::carve_free_per_sample`]; returns the same sample
    /// count.
    ///
    /// Voxel boundaries are proposed by the same Amanatides–Woo crossing
    /// recurrence as [`roborun_geom::GridRayWalk`], inlined because only
    /// the crossing parameters are needed here. Correctness does not rest
    /// on the proposal; it rests on per-axis monotonicity: each component
    /// of `VoxelKey::from_point(ray.at(t), res)` is a monotone function of
    /// `t` even in floating point (products, sums, divisions and floors
    /// are all monotone), so every sample between two samples with equal
    /// keys shares that key, and every sample between two samples whose
    /// keys differ by one grid step along one axis holds one of those two
    /// keys. Each run is therefore marked from its first sample's key
    /// alone and validated against the *next* run's first key; the rare
    /// runs that fail validation (a boundary crossed twice within one
    /// proposed cell, or a corner-diagonal crossing) are replayed sample
    /// by sample.
    fn carve_free_batched(&mut self, ray: &Ray, limit: f64, step: f64) -> usize {
        let mut t = 0.0;
        if t >= limit {
            return 0;
        }
        // Decay eligibility decreases monotonically along the ray, so a
        // run whose head sample is ineligible holds no eligible sample at
        // all — marking each run from its head alone therefore reproduces
        // the per-sample reference's decay decisions exactly.
        let decay_limit = self.decay_limit(limit);
        // Amanatides–Woo crossing state: t_next[axis] is the parameter of
        // the next grid-plane crossing along that axis, t_delta[axis] the
        // spacing between crossings.
        let res = self.resolution;
        let origin_key = VoxelKey::from_point(ray.origin, res);
        let origin_cell = [origin_key.x, origin_key.y, origin_key.z];
        let mut t_next = [f64::INFINITY; 3];
        let mut t_delta = [f64::INFINITY; 3];
        for axis in 0..3 {
            let d = ray.direction[axis];
            if d.abs() < 1e-12 {
                continue;
            }
            let boundary_cell = origin_cell[axis] + i64::from(d > 0.0);
            t_next[axis] = (boundary_cell as f64 * res - ray.origin[axis]) / d;
            t_delta[axis] = res / d.abs();
        }
        let mut updates = 0usize;
        // The previous run, pending validation against this run's first
        // key: (first sample parameter, sample count, first sample's key).
        let mut prev: Option<(f64, usize, VoxelKey)> = None;
        while t < limit {
            // Proposed exit of the voxel containing `t`: advance every
            // crossing at or before `t`, then take the nearest remaining.
            // (t_delta >= res > 0, so this terminates.)
            while t_next[0] <= t {
                t_next[0] += t_delta[0];
            }
            while t_next[1] <= t {
                t_next[1] += t_delta[1];
            }
            while t_next[2] <= t {
                t_next[2] += t_delta[2];
            }
            let exit = t_next[0].min(t_next[1]).min(t_next[2]);
            let run_start = t;
            let first_key = VoxelKey::from_point(ray.at(run_start), res);
            self.mark_free(first_key, run_start <= decay_limit);
            let stop = if exit < limit { exit } else { limit };
            let mut count = 1usize;
            t += step;
            while t < stop {
                count += 1;
                t += step;
            }
            updates += count;
            if let Some((p_start, p_count, p_key)) = prev {
                if !unit_step_apart(p_key, first_key) {
                    self.replay_run(ray, p_start, p_count, step, decay_limit);
                }
            }
            prev = Some((run_start, count, first_key));
        }
        // The final run has no successor: validate it against its own last
        // sample (equal keys ⟹ the run shares one voxel, by monotonicity).
        if let Some((p_start, p_count, p_key)) = prev {
            if p_count > 1 {
                let mut rt = p_start;
                for _ in 1..p_count {
                    rt += step;
                }
                if VoxelKey::from_point(ray.at(rt), res) != p_key {
                    self.replay_run(ray, p_start, p_count, step, decay_limit);
                }
            }
        }
        updates
    }

    /// Re-carves one run sample by sample — the exact fallback for runs
    /// the batched validation rejects. Regenerating `t` by repeated
    /// addition from the run's first sample reproduces the original float
    /// sequence, and `mark_free` is idempotent, so replaying over already
    /// marked voxels cannot diverge from the reference.
    fn replay_run(&mut self, ray: &Ray, start: f64, count: usize, step: f64, decay_limit: f64) {
        let res = self.resolution;
        let mut t = start;
        let mut prev = None;
        for _ in 0..count {
            let key = VoxelKey::from_point(ray.at(t), res);
            if prev != Some(key) {
                self.mark_free(key, t <= decay_limit);
                prev = Some(key);
            }
            t += step;
        }
    }

    /// State of the voxel containing `p`, or `None` when unknown.
    pub fn state_at(&self, p: Vec3) -> Option<VoxelState> {
        self.voxels
            .get(&VoxelKey::from_point(p, self.resolution))
            .copied()
    }

    /// `true` when the voxel containing `p` is known occupied.
    pub fn is_occupied(&self, p: Vec3) -> bool {
        self.state_at(p) == Some(VoxelState::Occupied)
    }

    /// `true` when the voxel containing `p` has never been observed.
    pub fn is_unknown(&self, p: Vec3) -> bool {
        self.state_at(p).is_none()
    }

    /// Iterates over occupied voxels as `(key, bounds)` pairs.
    pub fn occupied_voxels(&self) -> impl Iterator<Item = (VoxelKey, Aabb)> + '_ {
        let res = self.resolution;
        self.occupied
            .iter()
            .map(move |k| (*k, voxel_bounds(*k, res)))
    }

    /// The occupied voxels whose bounds lie within `radius` of `center`
    /// (`bounds.distance_to_point(center) <= radius`) — exactly the
    /// matching subset of [`OccupancyMap::occupied_voxels`], found by
    /// skipping the index buckets that lie farther than `radius`.
    pub fn occupied_voxels_within(
        &self,
        center: Vec3,
        radius: f64,
    ) -> impl Iterator<Item = (VoxelKey, Aabb)> + '_ {
        let res = self.resolution;
        let bucket_size = self.bucket_size();
        // Voxel bounds lie inside their bucket; the one-voxel margin keeps
        // rounding from skipping a bucket that holds a match.
        let reach = radius + res;
        self.buckets
            .iter()
            .filter(move |(bucket, _)| {
                cell_min_distance_squared(**bucket, bucket_size, center) <= reach * reach
            })
            .flat_map(|(_, keys)| keys.iter())
            .map(move |k| (*k, voxel_bounds(*k, res)))
            .filter(move |(_, bounds)| bounds.distance_to_point(center) <= radius)
    }

    /// Distance from `p` to the centre of the nearest occupied voxel within
    /// `max_radius`, or `None` when there is none. This is the map-derived
    /// `d_obs` the profilers feed to the governor (as opposed to the
    /// ground-truth distance the simulator knows).
    ///
    /// Searches the bucket index in expanding Chebyshev rings around `p`
    /// and scans each visited bucket's keys, so the cost follows the
    /// occupied voxels near `p`, not the size of the map. The result
    /// equals [`OccupancyMap::nearest_occupied_distance_linear`] bit for
    /// bit (see the module docs).
    pub fn nearest_occupied_distance(&self, p: Vec3, max_radius: f64) -> Option<f64> {
        if self.occupied.is_empty() || max_radius < 0.0 {
            return None;
        }
        let bucket_size = self.bucket_size();
        // An occupied voxel centre within `max_radius` lies within this
        // many rings of the query's bucket; `max_radius` also seeds the
        // prune bound so farther buckets are skipped before the first hit.
        let ring_cap = ((max_radius / bucket_size).ceil() as i64).saturating_add(1);
        let mut best: Option<f64> = None;
        RingSearch::new(
            bucket_size,
            bucket_of(self.occupied_min),
            bucket_of(self.occupied_max),
        )
        .cap_max_ring(ring_cap)
        .run(p, Some(max_radius * max_radius), |bucket| {
            for key in self.buckets.get(&bucket).into_iter().flatten() {
                let d = key.center(self.resolution).distance(p);
                if d <= max_radius && best.map(|b| d < b).unwrap_or(true) {
                    best = Some(d);
                }
            }
            let cutoff = best.unwrap_or(max_radius);
            Some(cutoff * cutoff)
        });
        best
    }

    /// Linear-scan reference for [`OccupancyMap::nearest_occupied_distance`]
    /// — retained for the equivalence proptests and benches.
    pub fn nearest_occupied_distance_linear(&self, p: Vec3, max_radius: f64) -> Option<f64> {
        let mut best: Option<f64> = None;
        for (key, state) in &self.voxels {
            if *state != VoxelState::Occupied {
                continue;
            }
            let d = key.center(self.resolution).distance(p);
            if d <= max_radius && best.map(|b| d < b).unwrap_or(true) {
                best = Some(d);
            }
        }
        best
    }

    /// Distance from `p` along `direction` to the first *unknown* voxel,
    /// sampled every `step` metres up to `max_range`. Unknown space ahead
    /// shortens the distance the MAV can trust, which the profilers fold
    /// into the visibility estimate ("closest unknown" in Table I).
    ///
    /// # Panics
    ///
    /// Panics if `step <= 0` or `max_range < 0`.
    pub fn distance_to_unknown(&self, p: Vec3, direction: Vec3, max_range: f64, step: f64) -> f64 {
        assert!(step > 0.0, "step must be positive");
        assert!(max_range >= 0.0, "max range must be non-negative");
        let Some(dir) = direction.try_normalize() else {
            return max_range;
        };
        let ray = Ray::new(p, dir);
        let mut t = 0.0;
        while t <= max_range {
            if self.is_unknown(ray.at(t)) {
                return t;
            }
            t += step;
        }
        max_range
    }

    /// Summary statistics.
    pub fn stats(&self) -> MapStats {
        let occupied = self
            .voxels
            .values()
            .filter(|s| **s == VoxelState::Occupied)
            .count();
        let free = self.voxels.len() - occupied;
        let voxel_volume = self.resolution.powi(3);
        MapStats {
            occupied,
            free,
            resolution: self.resolution,
            known_volume: self.voxels.len() as f64 * voxel_volume,
            occupied_volume: occupied as f64 * voxel_volume,
        }
    }

    /// Known (observed) volume in cubic metres — the profiler's "map
    /// volume" variable (Table I).
    pub fn known_volume(&self) -> f64 {
        self.voxels.len() as f64 * self.resolution.powi(3)
    }

    /// Drops every voxel whose centre lies farther than `radius` from
    /// `center` — a memory bound for long missions (the map only needs to
    /// cover the MAV's local neighbourhood for navigation).
    ///
    /// The occupied caches shrink bucket by bucket (see the module docs):
    /// only buckets crossing the sphere test their keys one by one.
    pub fn retain_within(&mut self, center: Vec3, radius: f64) {
        let res = self.resolution;
        let keep = move |k: &VoxelKey| k.center(res).distance(center) <= radius;
        self.voxels.retain(|k, _| keep(k));
        // Voxel centres lie inside their bucket, so a bucket entirely
        // beyond `radius` (or within it) drops (or keeps) all of its keys;
        // the one-voxel margins absorb rounding.
        let bucket_size = self.bucket_size();
        let (outer, inner) = (radius + res, radius - res);
        let occupied = &mut self.occupied;
        // Epoch stamps exist only for occupied keys, so they leave with them.
        let epochs = &mut self.last_occupied_epoch;
        let mut drop_key = |k: &VoxelKey| {
            occupied.remove(k);
            epochs.remove(k);
        };
        self.buckets.retain(|bucket, keys| {
            if cell_min_distance_squared(*bucket, bucket_size, center) > outer * outer {
                keys.iter().for_each(&mut drop_key);
                return false;
            }
            if inner > 0.0
                && cell_max_distance_squared(*bucket, bucket_size, center) < inner * inner
            {
                return true;
            }
            keys.retain(|k| {
                keep(k) || {
                    drop_key(k);
                    false
                }
            });
            !keys.is_empty()
        });
        self.recompute_occupied_bounds();
    }

    /// Rebuilds the occupied-key set, its bounds and the bucket index from
    /// the voxel map.
    ///
    /// All three are `#[serde(skip)]`: they are derivable state, so
    /// serialized forms carry only `voxels` and a deserialized map holds
    /// empty caches. Deserializers must call this before querying — after
    /// it, every query answers exactly as on the original map (enforced by
    /// the round-trip test).
    pub fn rebuild_spatial_caches(&mut self) {
        self.occupied = self
            .voxels
            .iter()
            .filter(|(_, s)| **s == VoxelState::Occupied)
            .map(|(k, _)| *k)
            .collect();
        self.buckets = FxHashMap::default();
        for key in &self.occupied {
            self.buckets.entry(bucket_of(*key)).or_default().push(*key);
        }
        self.recompute_occupied_bounds();
    }

    /// `true` when the derived caches agree with the voxel map: the
    /// occupied set is exactly its occupied keys, the key bounds cover
    /// them, and the bucket index holds each occupied key once, in its own
    /// bucket, with no empty bucket — i.e. it equals a rebuild from
    /// scratch up to the order of keys inside a bucket.
    pub fn spatial_caches_consistent(&self) -> bool {
        let occupied_match = self.occupied.len() == self.stats().occupied
            && self
                .occupied
                .iter()
                .all(|k| self.voxels.get(k) == Some(&VoxelState::Occupied));
        let bounds_cover = self.occupied.iter().all(|k| {
            self.occupied_min.componentwise_min(*k) == self.occupied_min
                && self.occupied_max.componentwise_max(*k) == self.occupied_max
        });
        let placed = self.buckets.iter().all(|(bucket, keys)| {
            !keys.is_empty() && keys.iter().all(|k| bucket_of(*k) == *bucket)
        });
        let indexed: Vec<VoxelKey> = self.buckets.values().flatten().copied().collect();
        // Equal counts plus equal sets rule out a key indexed twice.
        let index_match = indexed.len() == self.occupied.len()
            && indexed.into_iter().collect::<FxHashSet<_>>() == self.occupied;
        occupied_match && bounds_cover && placed && index_match
    }

    /// Recomputes the occupied key bounds from the bucket index (the
    /// occupied keys, stored contiguously).
    fn recompute_occupied_bounds(&mut self) {
        let mut iter = self.buckets.values().flatten();
        if let Some(first) = iter.next() {
            let (mut lo, mut hi) = (*first, *first);
            for k in iter {
                lo = lo.componentwise_min(*k);
                hi = hi.componentwise_max(*k);
            }
            self.occupied_min = lo;
            self.occupied_max = hi;
        } else {
            self.occupied_min = VoxelKey { x: 0, y: 0, z: 0 };
            self.occupied_max = VoxelKey { x: 0, y: 0, z: 0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud_with_wall(origin: Vec3, wall_x: f64) -> PointCloud {
        // A vertical line of points at x = wall_x spread in y.
        PointCloud::new(
            origin,
            (-5..=5)
                .map(|i| Vec3::new(wall_x, i as f64 * 0.5, origin.z))
                .collect(),
        )
    }

    #[test]
    fn new_map_is_empty() {
        let map = OccupancyMap::new(0.5);
        assert!(map.is_empty());
        assert_eq!(map.len(), 0);
        assert_eq!(map.resolution(), 0.5);
        assert!(map.is_unknown(Vec3::ZERO));
        assert!(!map.is_occupied(Vec3::ZERO));
        assert_eq!(map.known_volume(), 0.0);
        assert!(map.nearest_occupied_distance(Vec3::ZERO, 100.0).is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_resolution_panics() {
        let _ = OccupancyMap::new(0.0);
    }

    #[test]
    fn integration_marks_hits_occupied_and_path_free() {
        let mut map = OccupancyMap::new(0.5);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let updates = map.integrate_cloud(&cloud_with_wall(origin, 8.0), 0.5);
        assert!(updates > 0);
        assert!(map.is_occupied(Vec3::new(8.0, 0.0, 5.0)));
        assert_eq!(
            map.state_at(Vec3::new(4.0, 0.0, 5.0)),
            Some(VoxelState::Free)
        );
        // Behind the wall is unknown.
        assert!(map.is_unknown(Vec3::new(12.0, 0.0, 5.0)));
        let stats = map.stats();
        assert!(stats.occupied > 0);
        assert!(stats.free > stats.occupied);
        assert!((stats.known_volume - map.known_volume()).abs() < 1e-9);
        assert!(stats.occupied_volume < stats.known_volume);
    }

    #[test]
    fn occupied_never_downgraded_to_free() {
        let mut map = OccupancyMap::new(0.5);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        // First scan sees an obstacle at x=4.
        map.integrate_cloud(
            &PointCloud::new(origin, vec![Vec3::new(4.0, 0.0, 5.0)]),
            0.25,
        );
        assert!(map.is_occupied(Vec3::new(4.0, 0.0, 5.0)));
        // Second scan's ray passes through the same voxel to a farther hit.
        map.integrate_cloud(
            &PointCloud::new(origin, vec![Vec3::new(9.0, 0.0, 5.0)]),
            0.25,
        );
        assert!(
            map.is_occupied(Vec3::new(4.0, 0.0, 5.0)),
            "occupied voxel was erased"
        );
        assert!(map.is_occupied(Vec3::new(9.0, 0.0, 5.0)));
    }

    #[test]
    fn coarser_raytrace_step_does_less_work() {
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let cloud = cloud_with_wall(origin, 20.0);
        let mut fine = OccupancyMap::new(0.5);
        let mut coarse = OccupancyMap::new(0.5);
        let fine_updates = fine.integrate_cloud(&cloud, 0.25);
        let coarse_updates = coarse.integrate_cloud(&cloud, 2.0);
        assert!(
            fine_updates > 2 * coarse_updates,
            "fine {fine_updates} coarse {coarse_updates}"
        );
        // Both agree on the occupied wall.
        assert!(fine.is_occupied(Vec3::new(20.0, 0.0, 5.0)));
        assert!(coarse.is_occupied(Vec3::new(20.0, 0.0, 5.0)));
    }

    #[test]
    fn coarser_resolution_uses_fewer_voxels() {
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let cloud = cloud_with_wall(origin, 10.0);
        let mut fine = OccupancyMap::new(0.3);
        let mut coarse = OccupancyMap::new(2.4);
        fine.integrate_cloud(&cloud, 0.3);
        coarse.integrate_cloud(&cloud, 0.3);
        assert!(fine.len() > coarse.len());
        let fine_occ = fine.stats().occupied;
        let coarse_occ = coarse.stats().occupied;
        assert!(fine_occ >= coarse_occ);
    }

    #[test]
    fn nearest_occupied_distance_matches_geometry() {
        let mut map = OccupancyMap::new(0.5);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        map.integrate_cloud(
            &PointCloud::new(origin, vec![Vec3::new(6.0, 0.0, 5.0)]),
            0.5,
        );
        let d = map
            .nearest_occupied_distance(Vec3::new(0.0, 0.0, 5.0), 100.0)
            .unwrap();
        assert!((d - 6.0).abs() < 1.0, "distance {d}");
        assert!(map
            .nearest_occupied_distance(Vec3::new(0.0, 0.0, 5.0), 2.0)
            .is_none());
    }

    #[test]
    fn distance_to_unknown_detects_frontier() {
        let mut map = OccupancyMap::new(0.5);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        map.integrate_cloud(
            &PointCloud::new(origin, vec![Vec3::new(10.0, 0.0, 5.0)]),
            0.25,
        );
        // Looking along the observed corridor, unknown space starts near the
        // wall (the wall voxel is known-occupied, behind it is unknown).
        let d = map.distance_to_unknown(origin, Vec3::X, 40.0, 0.25);
        assert!(d > 8.0 && d <= 12.0, "frontier at {d}");
        // Looking sideways where nothing was observed, unknown starts almost
        // immediately (just outside the origin's free voxel).
        let d_side = map.distance_to_unknown(origin, Vec3::Y, 40.0, 0.25);
        assert!(d_side < 2.0);
        // Degenerate direction returns the full range.
        assert_eq!(
            map.distance_to_unknown(origin, Vec3::ZERO, 40.0, 0.25),
            40.0
        );
    }

    #[test]
    fn serde_skip_round_trip_answers_identically() {
        // What a serde round trip produces with `#[serde(skip)]` on the
        // occupied-key caches: `voxels` restored, the skipped fields at
        // their defaults. After `rebuild_spatial_caches` the map compares
        // equal to the original and answers nearest queries identically.
        let mut original = OccupancyMap::new(0.5);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        original.integrate_cloud(&cloud_with_wall(origin, 8.0), 0.5);
        let mut restored = OccupancyMap {
            voxels: original.voxels.clone(),
            ..OccupancyMap::new(original.resolution)
        };
        assert!(
            restored.nearest_occupied_distance(origin, 100.0).is_none(),
            "an unrebuilt cache must be observably stale, or the test is vacuous"
        );
        restored.rebuild_spatial_caches();
        assert_eq!(restored, original);
        for probe in [
            origin,
            Vec3::new(8.0, 0.0, 5.0),
            Vec3::new(-20.0, 3.0, 1.0),
            Vec3::new(7.75, -2.5, 5.0),
        ] {
            for radius in [0.0, 2.0, 50.0] {
                assert_eq!(
                    restored.nearest_occupied_distance(probe, radius),
                    original.nearest_occupied_distance(probe, radius)
                );
            }
            assert_eq!(restored.state_at(probe), original.state_at(probe));
        }
        assert_eq!(restored.stats(), original.stats());
    }

    #[test]
    fn stale_decay_frees_vacated_cells_but_protects_fresh_ones() {
        let mut map = OccupancyMap::new(0.5);
        map.set_stale_decay(Some(2));
        assert_eq!(map.stale_decay(), Some(2));
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let actor_cell = Vec3::new(4.0, 0.0, 5.0);
        // Epoch 0: an obstacle (a moving actor, say) occupies x = 4.
        map.set_epoch(0);
        map.integrate_cloud(&PointCloud::new(origin, vec![actor_cell]), 0.25);
        assert!(map.is_occupied(actor_cell));
        // Epoch 1 (fresh): a ray now sees through the cell — still
        // protected, occupied wins like OctoMap clamping.
        map.set_epoch(1);
        map.integrate_cloud(
            &PointCloud::new(origin, vec![Vec3::new(9.0, 0.0, 5.0)]),
            0.25,
        );
        assert!(map.is_occupied(actor_cell), "fresh occupancy was decayed");
        // Epoch 4 (stale, age 4 > 2): the same contradicting evidence now
        // frees the vacated cell.
        map.set_epoch(4);
        map.integrate_cloud(
            &PointCloud::new(origin, vec![Vec3::new(9.0, 0.0, 5.0)]),
            0.25,
        );
        assert_eq!(map.state_at(actor_cell), Some(VoxelState::Free));
        // The occupied cache agrees (the ring search no longer finds it).
        let d = map.nearest_occupied_distance(origin, 100.0).unwrap();
        assert!(d > 6.0, "decayed voxel still reported at {d}");
        // Re-observation re-occupies and re-protects the cell.
        map.set_epoch(5);
        map.integrate_cloud(&PointCloud::new(origin, vec![actor_cell]), 0.25);
        assert!(map.is_occupied(actor_cell));
        map.set_epoch(6);
        map.integrate_cloud(
            &PointCloud::new(origin, vec![Vec3::new(9.0, 0.0, 5.0)]),
            0.25,
        );
        assert!(map.is_occupied(actor_cell));
    }

    #[test]
    fn decay_disabled_is_the_classic_accrete_only_map() {
        // Same evidence sequence as above, decay off: the occupied voxel
        // must survive arbitrarily stale contradicting rays (this is the
        // behaviour every pre-dynamics mission relies on).
        let mut map = OccupancyMap::new(0.5);
        assert_eq!(map.stale_decay(), None);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let cell = Vec3::new(4.0, 0.0, 5.0);
        map.set_epoch(0);
        map.integrate_cloud(&PointCloud::new(origin, vec![cell]), 0.25);
        map.set_epoch(1_000);
        map.integrate_cloud(
            &PointCloud::new(origin, vec![Vec3::new(9.0, 0.0, 5.0)]),
            0.25,
        );
        assert!(map.is_occupied(cell));
    }

    #[test]
    fn decay_is_identical_in_batched_and_reference_integration() {
        // The decay rule lives in `mark_free`, which both carve paths
        // share — the batched integration must age voxels exactly like
        // the per-sample reference.
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let run = |reference: bool| {
            let mut map = OccupancyMap::new(2.4); // coarse => batching engages
            map.set_stale_decay(Some(1));
            map.set_epoch(0);
            let first = PointCloud::new(origin, vec![Vec3::new(7.2, 0.0, 5.0)]);
            let second = PointCloud::new(origin, vec![Vec3::new(21.6, 0.3, 5.2)]);
            if reference {
                map.integrate_cloud_reference(&first, 0.3);
                map.set_epoch(5);
                map.integrate_cloud_reference(&second, 0.3);
            } else {
                map.integrate_cloud(&first, 0.3);
                map.set_epoch(5);
                map.integrate_cloud(&second, 0.3);
            }
            map
        };
        let batched = run(false);
        let reference = run(true);
        for xi in 0..12 {
            let p = Vec3::new(xi as f64 * 2.0, 0.0, 5.0);
            assert_eq!(batched.state_at(p), reference.state_at(p), "at {p}");
        }
        assert_eq!(batched.stats(), reference.stats());
    }

    #[test]
    fn retain_within_keeps_the_bucket_index_exact_at_every_radius() {
        // A dense block of occupied voxels, so every retain radius cuts
        // through buckets and the wholly-inside / wholly-outside shortcuts
        // sit right next to the crossing buckets they must not swallow.
        let res = 0.5;
        let mut block = OccupancyMap::new(res);
        let mut points = Vec::new();
        for x in -16..16 {
            for y in -16..16 {
                for z in 0..8 {
                    points.push(Vec3::new(x as f64, y as f64, z as f64) * res);
                }
            }
        }
        block.integrate_cloud(&PointCloud::new(Vec3::new(0.0, 0.0, 4.0), points), res);
        for center in [Vec3::ZERO, Vec3::new(1.3, -2.9, 1.7)] {
            for step in 0..50 {
                let radius = step as f64 * 0.23;
                let mut map = block.clone();
                map.retain_within(center, radius);
                assert!(map.spatial_caches_consistent(), "r={radius} at {center}");
                let expected = block
                    .occupied_voxels()
                    .filter(|(k, _)| k.center(res).distance(center) <= radius)
                    .count();
                assert_eq!(map.stats().occupied, expected, "r={radius} at {center}");
            }
        }
    }

    #[test]
    fn occupied_voxel_iteration_and_retain() {
        let mut map = OccupancyMap::new(0.5);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        map.integrate_cloud(&cloud_with_wall(origin, 8.0), 0.5);
        let occupied: Vec<_> = map.occupied_voxels().collect();
        assert_eq!(occupied.len(), map.stats().occupied);
        for (_, bounds) in &occupied {
            assert!((bounds.size().x - 0.5).abs() < 1e-12);
        }
        // Retaining a small bubble around the origin drops the far wall.
        map.retain_within(origin, 3.0);
        assert!(map.stats().occupied == 0);
        assert!(!map.is_empty(), "nearby free voxels should remain");
    }
}
