//! Occupancy map (the OctoMap substitute) with the raytracer precision
//! operator.
//!
//! The paper's OctoMap kernel "accumulates these point clouds into a 3D map
//! and encodes them in a tree data structure where each leaf is a voxel";
//! its precision operator "is enforced by controlling the step size of the
//! raytracer". Our substitute stores voxels as bits of 8³ blocks hashed by
//! block coordinates; the tree structure only matters to the paper for the
//! power-of-two pruning performed at export time, which
//! [`crate::PlannerMap`] reproduces by re-keying voxels at coarser
//! power-of-two resolutions.
//!
//! # The block store
//!
//! Voxels live in 8³ blocks, the cells of edge `BLOCK_EDGE · resolution`
//! (integer key division, so block membership is exact). A block's voxels
//! are bits of a 512-bit mask laid out like [`crate::PlannerMap`]'s: the
//! voxel `key` is word `x & 7`, bit `(y & 7) << 3 | (z & 7)`. The store is
//! two maps of such masks keyed by `key >> 3`: *known* masks mark observed
//! voxels, *occupied* masks (always subsets of the known ones) the
//! occupied voxels. A mask that empties is removed, so the known map holds
//! exactly the blocks with an observed voxel and the occupied map exactly
//! the blocks with an occupied one — far fewer in a mission's map, which
//! free voxels dominate. Counters of known and occupied voxels answer
//! [`OccupancyMap::len`], [`OccupancyMap::known_volume`] and
//! [`OccupancyMap::stats`] without a scan.
//!
//! The per-decision operations cost what the MAV's neighbourhood holds,
//! not what the mission has seen:
//!
//! * **Retain.** [`OccupancyMap::retain_within`] walks blocks, not voxels:
//!   blocks wholly outside the radius go at once, blocks wholly inside are
//!   untouched, and only blocks crossing the sphere test their bits one by
//!   one. A voxel centre lies at least half a voxel inside its block and
//!   both whole-block tests keep a one-voxel margin, so rounding can never
//!   move a voxel to the wrong side: the retain keeps exactly the voxels a
//!   per-voxel centre-distance filter keeps.
//! * **Profiler queries.** The profilers query the map on every decision
//!   (nearest obstacle at the MAV and at each upcoming waypoint, occupied
//!   voxels within the gap radius). They touch only the occupied map, scan
//!   a block's bits with the same predicate as the linear references and
//!   only *skip* whole blocks by a lower bound on their distance, with the
//!   same one-voxel margin, so the results equal the linear scans bit for
//!   bit (`nearest_occupied_distance_linear`, the filtered
//!   `occupied_voxels`), which the proptests check after every integrate,
//!   decay carve and retain. The occupied bounds the ring search starts
//!   from are block keys: they only grow between retains (decay can leave
//!   them conservatively large), and each retain recomputes them from the
//!   occupied map.
//! * **Identity.** Counters and bounds are derived state: skipped by serde
//!   (see [`OccupancyMap::rebuild_spatial_caches`]) and left out of
//!   `PartialEq`, which compares map content only — the masks, the decay
//!   window, the epoch and the epoch stamps — so two maps holding the same
//!   voxels compare equal however they were built.

use crate::PointCloud;
use roborun_geom::{cell_min_distance_squared, Aabb, FxHashMap, Ray, RingSearch, Vec3, VoxelKey};
use serde::{Deserialize, Serialize};

/// Block edge of the store, in voxels (see the module docs).
const BLOCK_EDGE: i64 = 8;

/// The 8³ block holding `key` (shared with [`crate::PlannerMap`]'s masks).
pub(crate) fn block_of(key: VoxelKey) -> VoxelKey {
    VoxelKey {
        x: key.x >> 3,
        y: key.y >> 3,
        z: key.z >> 3,
    }
}

/// The mask word and bit of `key` inside its block.
pub(crate) fn slot_of(key: VoxelKey) -> (usize, u64) {
    (
        (key.x & 7) as usize,
        1 << (((key.y & 7) << 3) | (key.z & 7)),
    )
}

/// The keys of the bits set in `mask`, one of the masks of block `block`.
fn mask_keys(block: VoxelKey, mask: BlockMask) -> impl Iterator<Item = VoxelKey> {
    mask.into_iter().enumerate().flat_map(move |(x, word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let bit = i64::from(bits.trailing_zeros());
            bits &= bits - 1;
            Some(VoxelKey {
                x: (block.x << 3) | x as i64,
                y: (block.y << 3) | (bit >> 3),
                z: (block.z << 3) | (bit & 7),
            })
        })
    })
}

/// The voxels of one 8³ block as a 512-bit mask (see the module docs).
type BlockMask = [u64; 8];

/// Number of bits set in a block mask.
fn mask_len(mask: &BlockMask) -> usize {
    mask.iter().map(|w| w.count_ones() as usize).sum()
}

/// `true` when the mask of `key`'s block in `masks` has `key`'s bit set.
fn mask_has(masks: &FxHashMap<VoxelKey, BlockMask>, key: VoxelKey) -> bool {
    let (word, bit) = slot_of(key);
    masks
        .get(&block_of(key))
        .is_some_and(|mask| mask[word] & bit != 0)
}

/// Clears every bit of `masks` whose voxel centre lies farther than
/// `radius` from `center`, block by block (see the module docs), and
/// removes the masks that empty. Calls `on_drop` with each block's
/// cleared bits.
fn retain_masks(
    masks: &mut FxHashMap<VoxelKey, BlockMask>,
    res: f64,
    center: Vec3,
    radius: f64,
    mut on_drop: impl FnMut(VoxelKey, &BlockMask),
) {
    let block_size = res * BLOCK_EDGE as f64;
    let (outer, inner) = (radius + res, radius - res);
    masks.retain(|block, mask| {
        if cell_min_distance_squared(*block, block_size, center) > outer * outer {
            on_drop(*block, mask);
            return false;
        }
        if inner > 0.0 && cell_max_distance_squared(*block, block_size, center) < inner * inner {
            return true;
        }
        let mut dropped = [0u64; 8];
        for key in mask_keys(*block, *mask) {
            if key.center(res).distance(center) > radius {
                let (word, bit) = slot_of(key);
                dropped[word] |= bit;
            }
        }
        on_drop(*block, &dropped);
        for (word, d) in mask.iter_mut().zip(dropped) {
            *word &= !d;
        }
        *mask != [0; 8]
    });
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
    /// Known-voxel masks of the blocks holding an observed voxel (see the
    /// module docs).
    known: FxHashMap<VoxelKey, BlockMask>,
    /// Occupied-voxel masks of the blocks holding an occupied voxel, each
    /// a subset of its block's known mask.
    occupied: FxHashMap<VoxelKey, BlockMask>,
    /// Number of known voxels. Derivable from `known`, so excluded from
    /// serialized forms and rebuilt on load (see
    /// [`OccupancyMap::rebuild_spatial_caches`]).
    #[serde(skip)]
    known_len: usize,
    /// Number of occupied voxels, derivable like `known_len`.
    #[serde(skip)]
    occupied_len: usize,
    /// Bounds of the occupied map's block keys (valid when `occupied_len >
    /// 0`); they let the ring search skip shells that cannot contain an
    /// occupied voxel. Derivable like `known_len`. Decay can
    /// leave them conservatively large until the next retain, which only
    /// costs ring pruning efficiency, never correctness.
    #[serde(skip)]
    occupied_min: VoxelKey,
    #[serde(skip)]
    occupied_max: VoxelKey,
    /// Stale-occupied decay window in epochs, or `None` (the default) for
    /// the classic accrete-only behaviour. Runtime configuration, not
    /// map content: excluded from serialized forms.
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
}

/// Maps compare by content: the masks, the decay window, the epoch and
/// the epoch stamps, not the derived counters and bounds (see the module
/// docs).
impl PartialEq for OccupancyMap {
    fn eq(&self, other: &Self) -> bool {
        let OccupancyMap {
            resolution,
            known,
            occupied,
            known_len: _,
            occupied_len: _,
            occupied_min: _,
            occupied_max: _,
            decay_after,
            current_epoch,
            last_occupied_epoch,
        } = self;
        *resolution == other.resolution
            && *known == other.known
            && *occupied == other.occupied
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
            known: FxHashMap::default(),
            occupied: FxHashMap::default(),
            known_len: 0,
            occupied_len: 0,
            occupied_min: VoxelKey { x: 0, y: 0, z: 0 },
            occupied_max: VoxelKey { x: 0, y: 0, z: 0 },
            decay_after: None,
            current_epoch: 0,
            last_occupied_epoch: FxHashMap::default(),
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

    /// Voxel edge length (metres).
    pub fn resolution(&self) -> f64 {
        self.resolution
    }

    /// Number of known voxels (occupied + free).
    pub fn len(&self) -> usize {
        self.known_len
    }

    /// `true` when nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.known_len == 0
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
        let (word, bit) = slot_of(key);
        let block = block_of(key);
        let known = self.known.entry(block).or_default();
        if known[word] & bit == 0 {
            known[word] |= bit;
            self.known_len += 1;
            return;
        }
        if !decay_eligible {
            return;
        }
        let Some(max_age) = self.decay_after else {
            return;
        };
        let Some(occupied) = self.occupied.get_mut(&block) else {
            return;
        };
        if occupied[word] & bit == 0 {
            return;
        }
        let stale = self
            .last_occupied_epoch
            .get(&key)
            // Occupied before decay was enabled ⇒ age unknown ⇒ treat as
            // stale (the conservative direction for a cell a ray just saw
            // through).
            .is_none_or(|&seen| self.current_epoch.saturating_sub(seen) > max_age);
        if stale {
            occupied[word] &= !bit;
            if *occupied == [0; 8] {
                self.occupied.remove(&block);
            }
            self.occupied_len -= 1;
            self.last_occupied_epoch.remove(&key);
            // The occupied bounds stay conservatively large; the ring
            // searches only use them as an outer cover.
        }
    }

    /// Stamps one voxel occupied, maintaining the counters, the occupied
    /// bounds and — while decay is enabled — the last-observed epoch.
    #[inline]
    fn mark_occupied(&mut self, key: VoxelKey) {
        let (word, bit) = slot_of(key);
        let block = block_of(key);
        let known = self.known.entry(block).or_default();
        if known[word] & bit == 0 {
            known[word] |= bit;
            self.known_len += 1;
        }
        let occupied = self.occupied.entry(block).or_default();
        if occupied[word] & bit == 0 {
            occupied[word] |= bit;
            if self.occupied_len == 0 {
                self.occupied_min = block;
                self.occupied_max = block;
            } else {
                self.occupied_min = self.occupied_min.componentwise_min(block);
                self.occupied_max = self.occupied_max.componentwise_max(block);
            }
            self.occupied_len += 1;
        }
        if self.decay_after.is_some() {
            self.last_occupied_epoch.insert(key, self.current_epoch);
        }
    }

    /// Edge length of a block (metres).
    fn block_size(&self) -> f64 {
        self.resolution * BLOCK_EDGE as f64
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
        if self.is_occupied(p) {
            Some(VoxelState::Occupied)
        } else if self.is_unknown(p) {
            None
        } else {
            Some(VoxelState::Free)
        }
    }

    /// `true` when the voxel containing `p` is known occupied.
    pub fn is_occupied(&self, p: Vec3) -> bool {
        mask_has(&self.occupied, VoxelKey::from_point(p, self.resolution))
    }

    /// `true` when the voxel containing `p` has never been observed.
    pub fn is_unknown(&self, p: Vec3) -> bool {
        !mask_has(&self.known, VoxelKey::from_point(p, self.resolution))
    }

    /// Iterates over occupied voxels as `(key, bounds)` pairs.
    pub fn occupied_voxels(&self) -> impl Iterator<Item = (VoxelKey, Aabb)> + '_ {
        let res = self.resolution;
        self.occupied
            .iter()
            .flat_map(|(block, mask)| mask_keys(*block, *mask))
            .map(move |k| (k, voxel_bounds(k, res)))
    }

    /// The occupied voxels whose bounds lie within `radius` of `center`
    /// (`bounds.distance_to_point(center) <= radius`) — exactly the
    /// matching subset of [`OccupancyMap::occupied_voxels`], found by
    /// skipping the blocks that lie farther than `radius`.
    pub fn occupied_voxels_within(
        &self,
        center: Vec3,
        radius: f64,
    ) -> impl Iterator<Item = (VoxelKey, Aabb)> + '_ {
        let res = self.resolution;
        let block_size = self.block_size();
        // Voxel bounds lie inside their block; the one-voxel margin keeps
        // rounding from skipping a block that holds a match.
        let reach = radius + res;
        self.occupied
            .iter()
            .filter(move |(block, _)| {
                cell_min_distance_squared(**block, block_size, center) <= reach * reach
            })
            .flat_map(|(block, mask)| mask_keys(*block, *mask))
            .map(move |k| (k, voxel_bounds(k, res)))
            .filter(move |(_, bounds)| bounds.distance_to_point(center) <= radius)
    }

    /// Distance from `p` to the centre of the nearest occupied voxel within
    /// `max_radius`, or `None` when there is none. This is the map-derived
    /// `d_obs` the profilers feed to the governor (as opposed to the
    /// ground-truth distance the simulator knows).
    ///
    /// Searches the blocks in expanding Chebyshev rings around `p` and
    /// scans each visited block's occupied bits, so the cost follows the
    /// occupied voxels near `p`, not the size of the map. The result
    /// equals [`OccupancyMap::nearest_occupied_distance_linear`] bit for
    /// bit (see the module docs).
    pub fn nearest_occupied_distance(&self, p: Vec3, max_radius: f64) -> Option<f64> {
        if self.occupied_len == 0 || max_radius < 0.0 {
            return None;
        }
        let block_size = self.block_size();
        // An occupied voxel centre within `max_radius` lies within this
        // many rings of the query's block; `max_radius` also seeds the
        // prune bound so farther blocks are skipped before the first hit.
        let ring_cap = ((max_radius / block_size).ceil() as i64).saturating_add(1);
        let mut best: Option<f64> = None;
        RingSearch::new(block_size, self.occupied_min, self.occupied_max)
            .cap_max_ring(ring_cap)
            .run(p, Some(max_radius * max_radius), |block| {
                if let Some(mask) = self.occupied.get(&block) {
                    for key in mask_keys(block, *mask) {
                        let d = key.center(self.resolution).distance(p);
                        if d <= max_radius && best.map(|b| d < b).unwrap_or(true) {
                            best = Some(d);
                        }
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
        for (key, _) in self.occupied_voxels() {
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
        let voxel_volume = self.resolution.powi(3);
        MapStats {
            occupied: self.occupied_len,
            free: self.known_len - self.occupied_len,
            resolution: self.resolution,
            known_volume: self.known_len as f64 * voxel_volume,
            occupied_volume: self.occupied_len as f64 * voxel_volume,
        }
    }

    /// Known (observed) volume in cubic metres — the profiler's "map
    /// volume" variable (Table I).
    pub fn known_volume(&self) -> f64 {
        self.known_len as f64 * self.resolution.powi(3)
    }

    /// Drops every voxel whose centre lies farther than `radius` from
    /// `center` — a memory bound for long missions (the map only needs to
    /// cover the MAV's local neighbourhood for navigation).
    ///
    /// Walks blocks, not voxels (see the module docs): only blocks
    /// crossing the sphere test their voxels one by one.
    pub fn retain_within(&mut self, center: Vec3, radius: f64) {
        let res = self.resolution;
        let mut known_dropped = 0;
        retain_masks(&mut self.known, res, center, radius, |_, dropped| {
            known_dropped += mask_len(dropped);
        });
        self.known_len -= known_dropped;
        // Epoch stamps exist only for occupied voxels, so they leave with
        // their bits.
        let stamps = &mut self.last_occupied_epoch;
        let mut occupied_dropped = 0;
        retain_masks(&mut self.occupied, res, center, radius, |block, dropped| {
            occupied_dropped += mask_len(dropped);
            if !stamps.is_empty() {
                for key in mask_keys(block, *dropped) {
                    stamps.remove(&key);
                }
            }
        });
        self.occupied_len -= occupied_dropped;
        self.recompute_occupied_bounds();
    }

    /// Rebuilds the voxel counters and the occupied bounds from the masks.
    ///
    /// All three are `#[serde(skip)]`: they are derivable state, so
    /// serialized forms carry only the masks and a deserialized map starts
    /// with zeroed counters. Deserializers must call this before querying —
    /// after it, every query answers exactly as on the original map
    /// (enforced by the round-trip test).
    pub fn rebuild_spatial_caches(&mut self) {
        self.known_len = self.known.values().map(mask_len).sum();
        self.occupied_len = self.occupied.values().map(mask_len).sum();
        self.recompute_occupied_bounds();
    }

    /// `true` when the derived state agrees with the masks: no mask is
    /// empty, every occupied mask is a subset of its block's known mask,
    /// the counters equal the mask populations, the occupied bounds cover
    /// every occupied block, and every epoch stamp belongs to an occupied
    /// voxel.
    pub fn spatial_caches_consistent(&self) -> bool {
        let masks_sound = self.known.values().all(|mask| *mask != [0; 8])
            && self.occupied.iter().all(|(block, mask)| {
                let known = self.known.get(block).copied().unwrap_or_default();
                *mask != [0; 8] && mask.iter().zip(known).all(|(o, k)| o & !k == 0)
            });
        let known_len: usize = self.known.values().map(mask_len).sum();
        let occupied_len: usize = self.occupied.values().map(mask_len).sum();
        let bounds_cover = self.occupied.keys().all(|block| {
            self.occupied_min.componentwise_min(*block) == self.occupied_min
                && self.occupied_max.componentwise_max(*block) == self.occupied_max
        });
        let stamps_occupied = self
            .last_occupied_epoch
            .keys()
            .all(|key| mask_has(&self.occupied, *key));
        masks_sound
            && known_len == self.known_len
            && occupied_len == self.occupied_len
            && bounds_cover
            && stamps_occupied
    }

    /// Recomputes the occupied bounds from the occupied map.
    fn recompute_occupied_bounds(&mut self) {
        let mut blocks = self.occupied.keys().copied();
        if let Some(first) = blocks.next() {
            let (lo, hi) = blocks.fold((first, first), |(lo, hi), block| {
                (lo.componentwise_min(block), hi.componentwise_max(block))
            });
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
    use roborun_geom::SplitMix64;
    use std::collections::BTreeMap;

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
        // derived counters and bounds: the masks restored, the skipped
        // fields at their defaults. After `rebuild_spatial_caches` the map
        // compares equal to the original and answers nearest queries and
        // statistics identically.
        let mut original = OccupancyMap::new(0.5);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        original.integrate_cloud(&cloud_with_wall(origin, 8.0), 0.5);
        let mut restored = OccupancyMap {
            known: original.known.clone(),
            occupied: original.occupied.clone(),
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

    /// Every known voxel of `map` with its state, read straight from the
    /// masks.
    fn known_voxels(map: &OccupancyMap) -> BTreeMap<VoxelKey, VoxelState> {
        map.known
            .iter()
            .flat_map(|(block, mask)| mask_keys(*block, *mask))
            .map(|key| {
                let state = if mask_has(&map.occupied, key) {
                    VoxelState::Occupied
                } else {
                    VoxelState::Free
                };
                (key, state)
            })
            .collect()
    }

    #[test]
    fn retain_within_keeps_the_block_store_exact_at_every_radius() {
        // A dense slab of occupied voxels, so every retain radius cuts
        // through blocks and the wholly-inside / wholly-outside shortcuts
        // sit right next to the crossing blocks they must not swallow;
        // then random integrate and decay steps scatter free and occupied
        // voxels (and epoch stamps) around it.
        let res = 0.5;
        let mut base = OccupancyMap::new(res);
        base.set_stale_decay(Some(1));
        let mut points = Vec::new();
        for x in -16..16 {
            for y in -16..16 {
                for z in 0..8 {
                    points.push(Vec3::new(x as f64, y as f64, z as f64) * res);
                }
            }
        }
        base.integrate_cloud(&PointCloud::new(Vec3::new(0.0, 0.0, 4.0), points), res);
        let mut rng = SplitMix64::new(16);
        for step in 1..=6u64 {
            // Epochs advance by two per step, so every earlier occupied
            // voxel is stale when a later ray passes through it.
            base.set_epoch(2 * step);
            let origin = Vec3::new(rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0), 4.0);
            // Odd steps extend their rays well past the hits, so they carve
            // through (and decay) voxels earlier steps marked occupied.
            let reach = if step % 2 == 1 { 1.8 } else { 1.0 };
            let hits = (0..60)
                .map(|_| {
                    let p = Vec3::new(
                        rng.uniform(-14.0, 14.0),
                        rng.uniform(-14.0, 14.0),
                        rng.uniform(0.0, 8.0),
                    );
                    origin + (p - origin) * reach
                })
                .collect();
            base.integrate_cloud(&PointCloud::new(origin, hits), res * 0.5);
        }
        let before = known_voxels(&base);
        assert!(!base.last_occupied_epoch.is_empty());
        let far = Vec3::new(500.0, -300.0, 40.0);
        let mut cases: Vec<(Vec3, f64)> = Vec::new();
        for center in [Vec3::ZERO, Vec3::new(1.3, -2.9, 1.7), far] {
            // Radii from zero through every block-crossing distance to one
            // containing the whole map; at `far` every block misses.
            cases.extend((0..50).map(|i| (center, i as f64 * 0.23)));
            cases.push((center, 1e4));
        }
        for (center, radius) in cases {
            let mut map = base.clone();
            map.retain_within(center, radius);
            let expected: BTreeMap<VoxelKey, VoxelState> = before
                .iter()
                .filter(|(k, _)| k.center(res).distance(center) <= radius)
                .map(|(k, s)| (*k, *s))
                .collect();
            let at = format!("r={radius} at {center}");
            assert_eq!(known_voxels(&map), expected, "{at}");
            assert!(map.spatial_caches_consistent(), "{at}");
            let occupied = expected
                .values()
                .filter(|s| **s == VoxelState::Occupied)
                .count();
            let voxel_volume = res.powi(3);
            assert_eq!(map.len(), expected.len(), "{at}");
            assert_eq!(
                map.known_volume(),
                expected.len() as f64 * voxel_volume,
                "{at}"
            );
            assert_eq!(
                map.stats(),
                MapStats {
                    occupied,
                    free: expected.len() - occupied,
                    resolution: res,
                    known_volume: expected.len() as f64 * voxel_volume,
                    occupied_volume: occupied as f64 * voxel_volume,
                },
                "{at}"
            );
            let stamps: FxHashMap<VoxelKey, u64> = base
                .last_occupied_epoch
                .iter()
                .filter(|(k, _)| expected.contains_key(k))
                .map(|(k, e)| (*k, *e))
                .collect();
            assert_eq!(map.last_occupied_epoch, stamps, "{at}");
        }
    }

    #[test]
    fn equal_content_compares_equal_whatever_the_history() {
        // Map A sees an obstacle at x = 4, then a later ray along the same
        // axis decays it to free; map B only ever sees the later cloud.
        // Both hold the same voxels and stamps, though A's occupied bounds
        // still reach back to the decayed voxel: the later cloud's first
        // hit, off the axis, keeps A's occupied voxels from running out
        // before the decay, so the bounds never reset.
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let through = PointCloud::new(
            origin,
            vec![Vec3::new(9.0, 3.0, 5.0), Vec3::new(9.0, 0.0, 5.0)],
        );
        let mut a = OccupancyMap::new(0.5);
        a.set_stale_decay(Some(1));
        a.set_epoch(0);
        a.integrate_cloud(
            &PointCloud::new(origin, vec![Vec3::new(4.0, 0.0, 5.0)]),
            0.25,
        );
        a.set_epoch(5);
        a.integrate_cloud(&through, 0.25);
        assert_eq!(a.state_at(Vec3::new(4.0, 0.0, 5.0)), Some(VoxelState::Free));
        let mut b = OccupancyMap::new(0.5);
        b.set_stale_decay(Some(1));
        b.set_epoch(5);
        b.integrate_cloud(&through, 0.25);
        assert_eq!(a, b);
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
