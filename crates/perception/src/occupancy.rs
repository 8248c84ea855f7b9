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
//! are bits of a 512-bit mask: the voxel `key` is word `x & 7`, bit
//! `(y & 7) << 3 | (z & 7)`. The store is two maps of such masks keyed by
//! `key >> 3`: *known* masks mark observed voxels, *occupied* masks
//! (always subsets of the known ones) the occupied voxels. A mask that
//! empties is removed, so the known map holds exactly the blocks with an
//! observed voxel and the occupied map exactly the blocks with an occupied
//! one — far fewer in a mission's map, which free voxels dominate.
//! Counters of known and occupied voxels answer [`OccupancyMap::len`],
//! [`OccupancyMap::known_volume`] and [`OccupancyMap::stats`] without a
//! scan.
//!
//! The per-decision operations cost what the MAV's neighbourhood holds,
//! not what the mission has seen:
//!
//! * **Retain.** [`OccupancyMap::retain_within`] walks regions, not
//!   blocks or voxels. A region index lists the known blocks of every
//!   4³-block region (`block >> 2` per axis, 9.6 m at a 0.3 m map) as a
//!   64-bit member mask, one bit per block. A region wholly inside the
//!   radius is skipped without touching its blocks, and one wholly outside
//!   drops all its blocks with their masks and epoch stamps. Only the
//!   blocks of a region crossing the sphere are tested, each by the same
//!   rule: a block wholly outside goes at once, a block wholly inside
//!   stays, and a crossing block keeps whole every x-slab (one mask word)
//!   wholly inside and tests the other words' bits one by one. A voxel centre lies at least half a voxel inside its
//!   slab, block and region, and every whole-cell test keeps a one-voxel
//!   margin, so rounding can never move a voxel to the wrong side: the
//!   retain keeps exactly the voxels a per-voxel centre-distance filter
//!   keeps. The walk visits the regions plus the blocks of the crossing
//!   ones: about an eighth of the known blocks of a mission's map.
//! * **Profiler queries.** The profilers query the map on every decision
//!   (nearest obstacle at the MAV and at each upcoming waypoint, occupied
//!   cells within the gap radius). Both walk the occupied map and never
//!   probe empty space. Under the mission's 70 m retain that map holds a
//!   median of about 330 blocks (quartiles 220 and 360) at profiling time
//!   on missionbench's `static_aware` missions (0.3 m voxels, 100
//!   snapshots), of which about a third reach into the profilers' 20 m
//!   gap radius.
//!   [`OccupancyMap::nearest_occupied_distance`] skips every block whose
//!   distance lower bound, less a one-voxel margin, already exceeds the
//!   best distance found, and scans the others' bits.
//!   [`OccupancyMap::occupied_cells_within`] takes a block wholly inside the
//!   sphere (one-voxel margin, as in the retain) as its mask stands and
//!   filters a crossing block's bits with the per-voxel predicate; each
//!   cell's box then comes from the lowest and highest set index per axis
//!   of its part of the mask, and its octant byte from the halves of that
//!   part. Both equal their linear scans of
//!   [`OccupancyMap::occupied_voxels`] bit for bit, which the proptests
//!   check after every integrate, decay carve and retain.
//! * **Identity.** The counters and the region index are derived state:
//!   a block joins its region's member mask where its known mask is
//!   created, and leaves it when the retain empties it. Both are skipped
//!   by serde
//!   (see [`OccupancyMap::rebuild_spatial_caches`]), checked by
//!   [`OccupancyMap::spatial_caches_consistent`] and left out of
//!   `PartialEq`, which compares map content only — the masks, the decay
//!   window, the epoch and the epoch stamps — so two maps holding the same
//!   voxels compare equal however they were built. The retain removes
//!   blocks in region order, so it leaves the hash maps laid out
//!   differently from a walk in bucket order; no query's answer depends on
//!   that layout ([`OccupancyMap::occupied_voxels`] yields in it, so its
//!   callers must not either).

use crate::PointCloud;
use roborun_geom::{cell_min_distance_squared, Aabb, FxHashMap, Ray, Vec3, VoxelKey};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;

/// Block edge of the store, in voxels (see the module docs).
const BLOCK_EDGE: i64 = 8;

/// Region edge of the retain walk's index, in blocks (see the module docs).
const REGION_EDGE: i64 = 4;

/// The 4³-block region holding `block`.
#[inline]
fn region_of(block: VoxelKey) -> VoxelKey {
    VoxelKey {
        x: block.x >> 2,
        y: block.y >> 2,
        z: block.z >> 2,
    }
}

/// The bit of `block` in its region's member mask (one bit per block of
/// the 4³ region).
#[inline]
fn region_bit(block: VoxelKey) -> u64 {
    1 << (((block.x & 3) << 4) | ((block.y & 3) << 2) | (block.z & 3))
}

/// The blocks of region `region` whose bits are set in `members`.
fn region_blocks(region: VoxelKey, members: u64) -> impl Iterator<Item = VoxelKey> {
    let mut bits = members;
    std::iter::from_fn(move || {
        if bits == 0 {
            return None;
        }
        let bit = i64::from(bits.trailing_zeros());
        bits &= bits - 1;
        Some(VoxelKey {
            x: (region.x << 2) | (bit >> 4),
            y: (region.y << 2) | ((bit >> 2) & 3),
            z: (region.z << 2) | (bit & 3),
        })
    })
}

/// The known mask of `block`, created empty and listed in its region
/// when the block is new.
#[inline]
fn known_mask<'a>(
    known: &'a mut FxHashMap<VoxelKey, BlockMask>,
    regions: &mut FxHashMap<VoxelKey, u64>,
    block: VoxelKey,
) -> &'a mut BlockMask {
    match known.entry(block) {
        Entry::Occupied(entry) => entry.into_mut(),
        Entry::Vacant(entry) => {
            *regions.entry(region_of(block)).or_default() |= region_bit(block);
            entry.insert([0; 8])
        }
    }
}

/// The 8³ block holding `key` (shared with [`crate::PlannerMap`]'s masks).
#[inline]
pub fn block_of(key: VoxelKey) -> VoxelKey {
    VoxelKey {
        x: key.x >> 3,
        y: key.y >> 3,
        z: key.z >> 3,
    }
}

/// The mask word and bit of `key` inside its block.
#[inline]
pub fn slot_of(key: VoxelKey) -> (usize, u64) {
    (
        (key.x & 7) as usize,
        1 << (((key.y & 7) << 3) | (key.z & 7)),
    )
}

/// The keys of the bits set in `mask`, one of the masks of block `block`.
pub fn mask_keys(block: VoxelKey, mask: BlockMask) -> impl Iterator<Item = VoxelKey> {
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
pub type BlockMask = [u64; 8];

/// Number of bits set in a block mask.
pub(crate) fn mask_len(mask: &BlockMask) -> usize {
    mask.iter().map(|w| w.count_ones() as usize).sum()
}

/// `true` when the mask of `key`'s block in `masks` has `key`'s bit set.
pub(crate) fn mask_has(masks: &FxHashMap<VoxelKey, BlockMask>, key: VoxelKey) -> bool {
    let (word, bit) = slot_of(key);
    masks
        .get(&block_of(key))
        .is_some_and(|mask| mask[word] & bit != 0)
}

/// Squared distance from `coord` to the farther end of the interval of
/// cell `k` at the given cell size, along one axis.
fn axis_max_distance_squared(k: i64, cell: f64, coord: f64) -> f64 {
    let lo = k as f64 * cell;
    let d = (coord - lo).abs().max((lo + cell - coord).abs());
    d * d
}

/// Squared distance from `p` to the farthest point of the cell `key` at
/// the given cell size.
fn cell_max_distance_squared(key: VoxelKey, cell: f64, p: Vec3) -> f64 {
    axis_max_distance_squared(key.x, cell, p.x)
        + axis_max_distance_squared(key.y, cell, p.y)
        + axis_max_distance_squared(key.z, cell, p.z)
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
    /// The known blocks of each 4³-block region as a 64-bit member mask,
    /// keyed by `block >> 2` (see the module docs). Derivable from `known`
    /// like the counters.
    #[serde(skip)]
    regions: FxHashMap<VoxelKey, u64>,
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
/// the epoch stamps, not the derived counters (see the module docs).
impl PartialEq for OccupancyMap {
    fn eq(&self, other: &Self) -> bool {
        let OccupancyMap {
            resolution,
            known,
            occupied,
            known_len: _,
            occupied_len: _,
            regions: _,
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
            regions: FxHashMap::default(),
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
        let known = known_mask(&mut self.known, &mut self.regions, block);
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
        }
    }

    /// Stamps one voxel occupied, maintaining the counters and — while
    /// decay is enabled — the last-observed epoch.
    #[inline]
    fn mark_occupied(&mut self, key: VoxelKey) {
        let (word, bit) = slot_of(key);
        let block = block_of(key);
        let known = known_mask(&mut self.known, &mut self.regions, block);
        if known[word] & bit == 0 {
            known[word] |= bit;
            self.known_len += 1;
        }
        let occupied = self.occupied.entry(block).or_default();
        if occupied[word] & bit == 0 {
            occupied[word] |= bit;
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

    /// The occupied masks, keyed by block (see the module docs) — the
    /// source [`crate::PlannerMap::export`] re-keys block by block.
    pub(crate) fn occupied_masks(&self) -> &FxHashMap<VoxelKey, BlockMask> {
        &self.occupied
    }

    /// The occupied cells of `2^level` voxels per axis (cell key `key >>
    /// level`, `level >= 1`) that hold an occupied voxel whose bounds lie
    /// within `radius` of `center` (`bounds.distance_to_point(center) <=
    /// radius`). Each cell comes once, in no fixed order, with the union of
    /// those voxels' bounds and its *octant byte*: bit `ox << 2 | oy << 1 |
    /// oz` is set when the sub-cell of `2^(level − 1)` voxels at octant `o`
    /// (`oᵢ = (keyᵢ >> (level − 1)) & 1`) holds such a voxel. Cells and
    /// boxes are exactly the matching subset of
    /// [`OccupancyMap::occupied_voxels`] grouped by cell and folded with
    /// [`Aabb::union`].
    ///
    /// Works on the block masks (see the module docs): a block wholly
    /// inside the sphere is taken as it stands and a crossing block filters
    /// its bits. A cell no coarser than a block (`level <= 3`) lies in one
    /// block: its box comes from the lowest and highest set index per axis
    /// of its part of the mask — the mask word gives x, the byte y and the
    /// bit z — and its octants from the halves of that part. Voxel bounds
    /// are monotone in the key, so that box is the fold of the members'
    /// bounds bit for bit. A coarser cell merges the boxes of the blocks it
    /// holds, each block lying in one octant: bit `(block >> (level − 4)) &
    /// 1` per axis.
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 or at least 63.
    pub fn occupied_cells_within(
        &self,
        center: Vec3,
        radius: f64,
        level: u32,
    ) -> Vec<(VoxelKey, Aabb, u8)> {
        assert!((1..63).contains(&level), "cell level {level} out of range");
        let res = self.resolution;
        let block_size = self.block_size();
        let (outer, inner) = (radius + res, radius - res);
        // A block splits into `per_axis³` parts of `span³` voxels: the
        // cells themselves up to level 3, above it the whole block (one
        // octant of a coarser cell).
        let span = 1usize << level.min(3);
        let half = span / 2;
        let per_axis = BLOCK_EDGE as usize / span;
        // The (y, z) part of `n³` voxels from (y0, z0) in one mask word:
        // `n` consecutive bytes (y) of `n` consecutive bits each (z).
        let yz_mask = |y0: usize, z0: usize, n: usize| {
            let z_run = u64::MAX >> (64 - n);
            (y0..y0 + n).fold(0u64, |m, y| m | (z_run << z0) << (8 * y))
        };
        // Each part's (y, z) mask with its four (y, z) halves, in octant
        // order `oy << 1 | oz`.
        let mut yz_parts = [(0, [0; 4]); 16];
        let yz_parts = &mut yz_parts[..per_axis * per_axis];
        for (i, (yz, quarters)) in yz_parts.iter_mut().enumerate() {
            let (y0, z0) = (i / per_axis * span, i % per_axis * span);
            *yz = yz_mask(y0, z0, span);
            *quarters =
                std::array::from_fn(|q| yz_mask(y0 + (q >> 1) * half, z0 + (q & 1) * half, half));
        }
        let mut cells: Vec<(VoxelKey, Aabb, u8)> = Vec::new();
        for (block, mask) in &self.occupied {
            if cell_min_distance_squared(*block, block_size, center) > outer * outer {
                continue;
            }
            let mask = if inner > 0.0
                && cell_max_distance_squared(*block, block_size, center) < inner * inner
            {
                *mask
            } else {
                let mut kept = [0u64; 8];
                for key in mask_keys(*block, *mask) {
                    if voxel_bounds(key, res).distance_to_point(center) <= radius {
                        let (word, bit) = slot_of(key);
                        kept[word] |= bit;
                    }
                }
                kept
            };
            let origin = VoxelKey {
                x: block.x << 3,
                y: block.y << 3,
                z: block.z << 3,
            };
            let block_octant = (level > 3).then(|| {
                let bit = |k: i64| ((k >> (level - 4)) & 1) as u8;
                1u8 << (bit(block.x) << 2 | bit(block.y) << 1 | bit(block.z))
            });
            for (cx, words) in mask.chunks_exact(span).enumerate() {
                let or = |ws: &[u64]| ws.iter().fold(0, |m, w| m | w);
                let (low, high) = (or(&words[..half]), or(&words[half..]));
                if low | high == 0 {
                    continue;
                }
                for (yz, quarters) in yz_parts.iter() {
                    let (low, high) = (low & yz, high & yz);
                    let union = low | high;
                    if union == 0 {
                        continue;
                    }
                    let mut xs = (0..span).filter(|dx| words[*dx] & yz != 0);
                    let x_lo = xs.next().unwrap_or_default();
                    let x_hi = xs.next_back().unwrap_or(x_lo);
                    let mut z_bits = union | union >> 32;
                    z_bits |= z_bits >> 16;
                    z_bits |= z_bits >> 8;
                    let z_bits = z_bits as u8;
                    let lo = VoxelKey {
                        x: origin.x + (cx * span + x_lo) as i64,
                        y: origin.y + i64::from(union.trailing_zeros() / 8),
                        z: origin.z + i64::from(z_bits.trailing_zeros()),
                    };
                    let hi = VoxelKey {
                        x: origin.x + (cx * span + x_hi) as i64,
                        y: origin.y + i64::from((63 - union.leading_zeros()) / 8),
                        z: origin.z + i64::from(7 - z_bits.leading_zeros()),
                    };
                    let octants = block_octant.unwrap_or_else(|| {
                        quarters.iter().enumerate().fold(0, |o, (q, m)| {
                            o | u8::from(low & m != 0) << q | u8::from(high & m != 0) << (4 + q)
                        })
                    });
                    let cell = VoxelKey {
                        x: lo.x >> level,
                        y: lo.y >> level,
                        z: lo.z >> level,
                    };
                    let bounds = Aabb {
                        min: voxel_bounds(lo, res).min,
                        max: voxel_bounds(hi, res).max,
                    };
                    cells.push((cell, bounds, octants));
                }
            }
        }
        if level > 3 {
            cells.sort_unstable_by_key(|(cell, ..)| *cell);
            cells.dedup_by(
                |(cell, bounds, octants), (kept, kept_bounds, kept_octants)| {
                    let same = cell == kept;
                    if same {
                        *kept_bounds = Aabb::union(kept_bounds, bounds);
                        *kept_octants |= *octants;
                    }
                    same
                },
            );
        }
        cells
    }

    /// Distance from `p` to the centre of the nearest occupied voxel within
    /// `max_radius`, or `None` when there is none. This is the map-derived
    /// `d_obs` the profilers feed to the governor (as opposed to the
    /// ground-truth distance the simulator knows).
    ///
    /// Walks the occupied blocks and scans the bits of each block that
    /// could still hold a closer voxel: a block is skipped when its
    /// distance lower bound exceeds the best distance so far (or
    /// `max_radius`) by more than a voxel. The result equals a linear scan
    /// of [`OccupancyMap::occupied_voxels`] bit for bit (see the module
    /// docs).
    pub fn nearest_occupied_distance(&self, p: Vec3, max_radius: f64) -> Option<f64> {
        if max_radius < 0.0 {
            return None;
        }
        let res = self.resolution;
        let block_size = self.block_size();
        let mut best: Option<f64> = None;
        for (block, mask) in &self.occupied {
            // Voxel centres lie inside their block; the one-voxel margin
            // keeps rounding from skipping a block that holds a match.
            let reach = best.unwrap_or(max_radius) + res;
            if cell_min_distance_squared(*block, block_size, p) > reach * reach {
                continue;
            }
            for key in mask_keys(*block, *mask) {
                let d = key.center(res).distance(p);
                if d <= max_radius && best.is_none_or(|b| d < b) {
                    best = Some(d);
                }
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
    /// Walks regions, not voxels (see the module docs): a region wholly
    /// inside the sphere is skipped, one wholly outside drops its blocks,
    /// and only the blocks of a region crossing the sphere are tested.
    pub fn retain_within(&mut self, center: Vec3, radius: f64) {
        let res = self.resolution;
        let block_size = self.block_size();
        let region_size = block_size * REGION_EDGE as f64;
        let (outer, inner) = (radius + res, radius - res);
        let inside = |max_d2: f64| inner > 0.0 && max_d2 < inner * inner;
        let outside = |min_d2: f64| min_d2 > outer * outer;
        let mut regions = std::mem::take(&mut self.regions);
        regions.retain(|region, members| {
            if inside(cell_max_distance_squared(*region, region_size, center)) {
                return true;
            }
            if outside(cell_min_distance_squared(*region, region_size, center)) {
                for block in region_blocks(*region, *members) {
                    self.drop_block(block);
                }
                return false;
            }
            for block in region_blocks(*region, *members) {
                let emptied = if outside(cell_min_distance_squared(block, block_size, center)) {
                    self.drop_block(block);
                    true
                } else if inside(cell_max_distance_squared(block, block_size, center)) {
                    false
                } else {
                    self.retain_crossing_block(block, center, radius)
                };
                if emptied {
                    *members &= !region_bit(block);
                }
            }
            *members != 0
        });
        self.regions = regions;
    }

    /// Removes the known block `block` whole: its known and occupied masks
    /// and the epoch stamps of its occupied voxels.
    fn drop_block(&mut self, block: VoxelKey) {
        if let Some(mask) = self.known.remove(&block) {
            self.known_len -= mask_len(&mask);
        }
        if let Some(mask) = self.occupied.remove(&block) {
            self.occupied_len -= mask_len(&mask);
            self.drop_stamps(block, &mask);
        }
    }

    /// Clears the voxels of the known block `block`, which crosses the
    /// sphere, whose centres lie farther than `radius` from `center`.
    /// Returns `true` when the block emptied and was removed.
    ///
    /// An x-slab (one mask word) whose box lies inside `radius − res` is
    /// kept whole; only the other words are tested bit by bit. Occupied
    /// bits are a subset of the known ones, so the known bits dropped
    /// are dropped from the occupied mask too.
    fn retain_crossing_block(&mut self, block: VoxelKey, center: Vec3, radius: f64) -> bool {
        let res = self.resolution;
        let inner = radius - res;
        let block_size = self.block_size();
        let known = self
            .known
            .get_mut(&block)
            .expect("the region index lists only known blocks");
        let yz = axis_max_distance_squared(block.y, block_size, center.y)
            + axis_max_distance_squared(block.z, block_size, center.z);
        let mut dropped = [0u64; 8];
        for (x, word) in known.iter().enumerate() {
            let slab = (block.x << 3) | x as i64;
            if *word == 0
                || (inner > 0.0
                    && axis_max_distance_squared(slab, res, center.x) + yz < inner * inner)
            {
                continue;
            }
            let mut single = [0u64; 8];
            single[x] = *word;
            for key in mask_keys(block, single) {
                if key.center(res).distance(center) > radius {
                    dropped[x] |= slot_of(key).1;
                }
            }
        }
        if dropped == [0; 8] {
            return false;
        }
        for (word, d) in known.iter_mut().zip(dropped) {
            *word &= !d;
        }
        self.known_len -= mask_len(&dropped);
        let emptied = *known == [0; 8];
        if emptied {
            self.known.remove(&block);
        }
        if let Some(occupied) = self.occupied.get_mut(&block) {
            let gone: BlockMask = std::array::from_fn(|x| occupied[x] & dropped[x]);
            for (word, d) in occupied.iter_mut().zip(dropped) {
                *word &= !d;
            }
            if *occupied == [0; 8] {
                self.occupied.remove(&block);
            }
            self.occupied_len -= mask_len(&gone);
            self.drop_stamps(block, &gone);
        }
        emptied
    }

    /// Removes the epoch stamps of the occupied voxels `dropped` of
    /// `block`: stamps exist only for occupied voxels, so they leave with
    /// their bits.
    fn drop_stamps(&mut self, block: VoxelKey, dropped: &BlockMask) {
        if !self.last_occupied_epoch.is_empty() {
            for key in mask_keys(block, *dropped) {
                self.last_occupied_epoch.remove(&key);
            }
        }
    }

    /// Rebuilds the voxel counters and the region index from the masks.
    ///
    /// All are `#[serde(skip)]`: they are derivable state, so serialized
    /// forms carry only the masks and a deserialized map starts with zeroed
    /// counters and an empty index. Deserializers must call this before
    /// querying or retaining — after it,
    /// every query answers exactly as on the original map (enforced by the
    /// round-trip test).
    pub fn rebuild_spatial_caches(&mut self) {
        self.known_len = self.known.values().map(mask_len).sum();
        self.occupied_len = self.occupied.values().map(mask_len).sum();
        self.regions = FxHashMap::default();
        for block in self.known.keys() {
            *self.regions.entry(region_of(*block)).or_default() |= region_bit(*block);
        }
    }

    /// `true` when the derived state agrees with the masks: no mask is
    /// empty, every occupied mask is a subset of its block's known mask,
    /// the counters equal the mask populations, every epoch stamp belongs
    /// to an occupied voxel, and the region index lists every known block
    /// exactly once, under its own region, with no empty list.
    pub fn spatial_caches_consistent(&self) -> bool {
        let masks_sound = self.known.values().all(|mask| *mask != [0; 8])
            && self.occupied.iter().all(|(block, mask)| {
                let known = self.known.get(block).copied().unwrap_or_default();
                *mask != [0; 8] && mask.iter().zip(known).all(|(o, k)| o & !k == 0)
            });
        let known_len: usize = self.known.values().map(mask_len).sum();
        let occupied_len: usize = self.occupied.values().map(mask_len).sum();
        let stamps_occupied = self
            .last_occupied_epoch
            .keys()
            .all(|key| mask_has(&self.occupied, *key));
        let listed: usize = self.regions.values().map(|m| m.count_ones() as usize).sum();
        let regions_exact = listed == self.known.len()
            && self.regions.values().all(|members| *members != 0)
            && self.known.keys().all(|block| {
                self.regions
                    .get(&region_of(*block))
                    .is_some_and(|members| members & region_bit(*block) != 0)
            });
        masks_sound
            && known_len == self.known_len
            && occupied_len == self.occupied_len
            && stamps_occupied
            && regions_exact
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
        // derived counters: the masks restored, the skipped fields at their
        // defaults. After `rebuild_spatial_caches` the map compares equal
        // to the original and answers nearest queries and statistics
        // identically.
        let mut original = OccupancyMap::new(0.5);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        original.integrate_cloud(&cloud_with_wall(origin, 8.0), 0.5);
        let mut restored = OccupancyMap {
            known: original.known.clone(),
            occupied: original.occupied.clone(),
            ..OccupancyMap::new(original.resolution)
        };
        assert_ne!(
            restored.stats(),
            original.stats(),
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
        // The occupied masks agree (the nearest query no longer finds it).
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

    /// The nearest occupied voxel centre within `max_radius` of `p`, by a
    /// linear scan of every occupied voxel.
    fn nearest_occupied_linear(map: &OccupancyMap, p: Vec3, max_radius: f64) -> Option<f64> {
        let mut best: Option<f64> = None;
        for (key, _) in map.occupied_voxels() {
            let d = key.center(map.resolution).distance(p);
            if d <= max_radius && best.is_none_or(|b| d < b) {
                best = Some(d);
            }
        }
        best
    }

    /// The block walk `retain_within` made before the region index: every
    /// block of the known and the occupied store tested on its own, each
    /// store in its own pass. Kept as the oracle the region walk must
    /// equal; it leaves the region index stale, which `PartialEq` ignores.
    fn retain_within_blockwise(map: &mut OccupancyMap, center: Vec3, radius: f64) {
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
                if inner > 0.0
                    && cell_max_distance_squared(*block, block_size, center) < inner * inner
                {
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
        let res = map.resolution;
        let mut known_dropped = 0;
        retain_masks(&mut map.known, res, center, radius, |_, dropped| {
            known_dropped += mask_len(dropped);
        });
        map.known_len -= known_dropped;
        let stamps = &mut map.last_occupied_epoch;
        let mut occupied_dropped = 0;
        retain_masks(&mut map.occupied, res, center, radius, |block, dropped| {
            occupied_dropped += mask_len(dropped);
            for key in mask_keys(block, *dropped) {
                stamps.remove(&key);
            }
        });
        map.occupied_len -= occupied_dropped;
    }

    /// Voxels scattered over many 4³-block regions on both sides of every
    /// axis origin, with decay on so epoch stamps ride along.
    fn scattered_map(res: f64) -> OccupancyMap {
        let mut map = OccupancyMap::new(res);
        map.set_stale_decay(Some(1));
        let mut rng = SplitMix64::new(7);
        for step in 1..=5u64 {
            map.set_epoch(2 * step);
            let origin = Vec3::new(
                rng.uniform(-20.0, 20.0),
                rng.uniform(-20.0, 20.0),
                rng.uniform(-10.0, 10.0),
            );
            let hits = (0..150)
                .map(|_| {
                    Vec3::new(
                        rng.uniform(-45.0, 45.0),
                        rng.uniform(-45.0, 45.0),
                        rng.uniform(-20.0, 20.0),
                    )
                })
                .collect();
            map.integrate_cloud(&PointCloud::new(origin, hits), res);
        }
        map
    }

    /// What a serde round trip leaves of `map` (the masks, every skipped
    /// field at its default), with the derived state rebuilt.
    fn restored_from_masks(map: &OccupancyMap) -> OccupancyMap {
        let mut restored = OccupancyMap {
            known: map.known.clone(),
            occupied: map.occupied.clone(),
            ..OccupancyMap::new(map.resolution)
        };
        restored.rebuild_spatial_caches();
        restored
    }

    #[test]
    fn region_walk_equals_the_block_walk() {
        for res in [0.3, 0.5] {
            let region_size = res * (BLOCK_EDGE * REGION_EDGE) as f64;
            let base = scattered_map(res);
            assert!(!base.last_occupied_epoch.is_empty());
            let restored = restored_from_masks(&base);
            assert!(restored.spatial_caches_consistent());
            assert!(restored.last_occupied_epoch.is_empty());
            // Whether some case skipped, dropped and crossed a region.
            let mut seen = [false; 3];
            for source in [&base, &restored] {
                for center in [
                    Vec3::ZERO,
                    Vec3::splat(-region_size),
                    Vec3::new(-13.3, 7.1, -4.4),
                    Vec3::new(-0.01, -2.0 * region_size, 0.0),
                    Vec3::new(-500.0, -300.0, -40.0),
                ] {
                    for radius in (0..40).map(|i| i as f64 * 1.7).chain([res, 1e4]) {
                        let (outer, inner) = (radius + res, radius - res);
                        for region in source.regions.keys() {
                            let far = cell_max_distance_squared(*region, region_size, center);
                            let near = cell_min_distance_squared(*region, region_size, center);
                            seen[0] |= inner > 0.0 && far < inner * inner;
                            seen[1] |= near > outer * outer;
                            seen[2] |=
                                (inner <= 0.0 || far >= inner * inner) && near <= outer * outer;
                        }
                        let mut walked = source.clone();
                        walked.retain_within(center, radius);
                        let mut oracle = source.clone();
                        retain_within_blockwise(&mut oracle, center, radius);
                        let at = format!("res {res} r={radius} at {center}");
                        assert_eq!(walked, oracle, "{at}");
                        assert_eq!(walked.stats(), oracle.stats(), "{at}");
                        assert!(walked.spatial_caches_consistent(), "{at}");
                    }
                }
            }
            assert_eq!(seen, [true; 3], "res {res}");
        }
    }

    #[test]
    fn region_index_follows_integration_and_repeated_retains() {
        // A drifting MAV integrates and retains every decision: the
        // index must follow the blocks each step creates and drops.
        let res = 0.3;
        let mut walked = OccupancyMap::new(res);
        walked.set_stale_decay(Some(2));
        let mut oracle = walked.clone();
        let mut rng = SplitMix64::new(11);
        for step in 0..25u64 {
            let center = Vec3::new(-2.5 * step as f64, 1.3 - 0.9 * step as f64, -0.4);
            let hits: Vec<Vec3> = (0..60)
                .map(|_| {
                    center
                        + Vec3::new(
                            rng.uniform(-14.0, 14.0),
                            rng.uniform(-14.0, 14.0),
                            rng.uniform(-6.0, 6.0),
                        )
                })
                .collect();
            let cloud = PointCloud::new(center, hits);
            for map in [&mut walked, &mut oracle] {
                map.set_epoch(step);
                map.integrate_cloud(&cloud, res);
            }
            walked.retain_within(center, 12.0);
            retain_within_blockwise(&mut oracle, center, 12.0);
            assert_eq!(walked, oracle, "step {step}");
            assert_eq!(walked.stats(), oracle.stats(), "step {step}");
            assert!(walked.spatial_caches_consistent(), "step {step}");
        }
        assert!(!walked.last_occupied_epoch.is_empty());
    }

    /// A dense slab of occupied voxels, so every query radius cuts through
    /// blocks and the wholly-inside / wholly-outside shortcuts sit right
    /// next to the crossing blocks they must not swallow; then random
    /// integrate and decay steps scatter free and occupied voxels (and
    /// epoch stamps) around it.
    fn dense_slab_map(res: f64) -> OccupancyMap {
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
        base
    }

    /// Radii from zero through every block-crossing distance to one
    /// containing the whole slab, around two centres in it, one above it
    /// and one far off (where every block misses).
    fn slab_query_cases() -> Vec<(Vec3, f64)> {
        let far = Vec3::new(500.0, -300.0, 40.0);
        let mut cases: Vec<(Vec3, f64)> = Vec::new();
        for center in [
            Vec3::ZERO,
            Vec3::new(1.3, -2.9, 1.7),
            Vec3::new(-3.1, 5.2, 9.4),
            far,
        ] {
            cases.extend((0..50).map(|i| (center, i as f64 * 0.23)));
            cases.push((center, 1e4));
        }
        cases
    }

    #[test]
    fn retain_within_keeps_the_block_store_exact_at_every_radius() {
        let res = 0.5;
        let base = dense_slab_map(res);
        let before = known_voxels(&base);
        assert!(!base.last_occupied_epoch.is_empty());
        for (center, radius) in slab_query_cases() {
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
    fn mask_queries_equal_their_scans_at_every_radius_and_level() {
        // Whole blocks full of occupied voxels exercise the whole-block
        // path at every level; the scattered voxels around them the
        // per-bit filter of the crossing blocks.
        for res in [0.5, 0.3] {
            let map = dense_slab_map(res);
            for (center, radius) in slab_query_cases() {
                assert_eq!(
                    map.nearest_occupied_distance(center, radius)
                        .map(f64::to_bits),
                    nearest_occupied_linear(&map, center, radius).map(f64::to_bits),
                    "res {res} r={radius} at {center}"
                );
                for level in 1..=5 {
                    let mut scanned: BTreeMap<VoxelKey, (Aabb, u8)> = BTreeMap::new();
                    for (key, bounds) in map
                        .occupied_voxels()
                        .filter(|(_, b)| b.distance_to_point(center) <= radius)
                    {
                        let cell = VoxelKey {
                            x: key.x >> level,
                            y: key.y >> level,
                            z: key.z >> level,
                        };
                        let bit = |k: i64| (k >> (level - 1)) & 1;
                        let octant = 1u8 << (bit(key.x) << 2 | bit(key.y) << 1 | bit(key.z));
                        scanned
                            .entry(cell)
                            .and_modify(|(acc, octants)| {
                                *acc = Aabb::union(acc, &bounds);
                                *octants |= octant;
                            })
                            .or_insert((bounds, octant));
                    }
                    let bits = |b: &Aabb| {
                        [b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z].map(f64::to_bits)
                    };
                    let expected: Vec<_> = scanned
                        .iter()
                        .map(|(k, (b, o))| (*k, bits(b), *o))
                        .collect();
                    let mut cells: Vec<_> = map
                        .occupied_cells_within(center, radius, level)
                        .iter()
                        .map(|(k, b, o)| (*k, bits(b), *o))
                        .collect();
                    cells.sort_unstable_by_key(|(k, ..)| *k);
                    assert_eq!(
                        cells, expected,
                        "res {res} level {level} r={radius} at {center}"
                    );
                }
            }
        }
    }

    #[test]
    fn equal_content_compares_equal_whatever_the_history() {
        // Map A sees an obstacle at x = 4, then a later ray along the same
        // axis decays it to free; map B only ever sees the later cloud.
        // Both hold the same voxels and stamps, so they compare equal.
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
