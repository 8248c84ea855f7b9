//! Profilers: extracting the Table I variables from the pipeline's data
//! structures.
//!
//! | variable profiled                   | pipeline stage                | used for              |
//! |-------------------------------------|-------------------------------|-----------------------|
//! | gap between obstacles               | point cloud                   | precision             |
//! | closest obstacle, closest unknown   | point cloud, OctoMap, smoother| precision, volume, deadline |
//! | sensor, map volume                  | point cloud, OctoMap          | volume                |
//! | velocity, position                  | sensors                       | deadline              |
//! | trajectory                          | smoother                      | deadline              |
//!
//! The profilers only read pipeline data structures (point cloud, occupancy
//! map, trajectory, sensor state) — never the simulator's ground truth — so
//! the governor sees the world exactly the way the real system would.
//!
//! A spatial-oblivious decision reads only the visibility terms (closest
//! obstacle, closest unknown and the clamped visibility): its governor
//! returns the static policy whatever the profile holds, and visibility
//! feeds only the decision record and the dynamic closing-speed range. The
//! direct driver therefore asks it of [`Profilers::visibility`] alone and
//! skips the gap clustering, the volumes and the waypoint probes.
//! [`Profilers::profile`] builds on the same function, so the two agree bit
//! for bit. The node driver still publishes the full profile for both
//! modes: it charges its communication slice from the bytes each message
//! carries, so a smaller `/runtime/profile` message would change the
//! simulated time of its oblivious missions.

use crate::budget::WaypointState;
use roborun_env::gaps::aabb_gap;
use roborun_geom::{Aabb, Vec3, VoxelKey};
use roborun_perception::{OccupancyMap, PointCloud};
use roborun_planning::Trajectory;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// The spatial state the governor makes its decision from (one row of
/// Table I per field group).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpatialProfile {
    /// MAV position (metres).
    pub position: Vec3,
    /// MAV speed (m/s).
    pub velocity: f64,
    /// Average gap between nearby observed obstacles (metres).
    pub gap_avg: f64,
    /// Minimum gap between nearby observed obstacles (metres).
    pub gap_min: f64,
    /// Distance to the closest observed obstacle (metres).
    pub closest_obstacle: f64,
    /// Distance to the closest unknown space along the direction of travel
    /// (metres).
    pub closest_unknown: f64,
    /// Visibility estimate used for the deadline (metres): the shorter of
    /// the closest obstacle and closest unknown, capped by sensing range.
    pub visibility: f64,
    /// Volume delivered by the sensors this decision (m³).
    pub sensor_volume: f64,
    /// Volume of known space in the map (m³).
    pub map_volume: f64,
    /// Upcoming waypoints (position, planned speed, expected visibility)
    /// for Algorithm 1.
    pub upcoming_waypoints: Vec<WaypointState>,
}

impl SpatialProfile {
    /// A profile describing completely open space — useful as a governor
    /// input in examples and tests: `velocity` m/s and `visibility` metres,
    /// no obstacles anywhere near.
    pub fn open_space(velocity: f64, visibility: f64) -> Self {
        SpatialProfile {
            position: Vec3::ZERO,
            velocity,
            gap_avg: 100.0,
            gap_min: 100.0,
            closest_obstacle: 100.0,
            closest_unknown: visibility,
            visibility,
            sensor_volume: 5_000.0,
            map_volume: 20_000.0,
            upcoming_waypoints: Vec::new(),
        }
    }

    /// A profile describing a tight, congested aisle: near obstacles, small
    /// gaps, short visibility.
    pub fn congested(velocity: f64, gap: f64, obstacle_distance: f64) -> Self {
        SpatialProfile {
            position: Vec3::ZERO,
            velocity,
            gap_avg: gap * 1.5,
            gap_min: gap,
            closest_obstacle: obstacle_distance,
            closest_unknown: obstacle_distance * 1.5,
            visibility: obstacle_distance,
            sensor_volume: 30_000.0,
            map_volume: 50_000.0,
            upcoming_waypoints: Vec::new(),
        }
    }

    /// The waypoint state corresponding to the MAV's current situation
    /// (W₀ of Algorithm 1).
    pub fn current_waypoint(&self) -> WaypointState {
        WaypointState {
            position: self.position,
            velocity: self.velocity,
            visibility: self.visibility,
        }
    }
}

/// Configuration of the profilers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Profilers {
    /// Radius around the MAV within which obstacles are clustered for the
    /// gap analysis (metres).
    pub gap_radius: f64,
    /// Sensing range cap on the visibility estimate (metres).
    pub max_visibility: f64,
    /// Floor on the visibility estimate (metres).
    pub min_visibility: f64,
    /// Sampling step for the unknown-space probe (metres).
    pub probe_step: f64,
    /// Number of upcoming trajectory waypoints handed to Algorithm 1.
    pub waypoint_horizon: usize,
    /// Time spacing between the sampled upcoming waypoints (seconds).
    pub waypoint_spacing: f64,
}

impl Default for Profilers {
    fn default() -> Self {
        Profilers {
            gap_radius: 20.0,
            max_visibility: 40.0,
            min_visibility: 2.0,
            probe_step: 0.5,
            waypoint_horizon: 5,
            waypoint_spacing: 2.0,
        }
    }
}

/// The visibility terms of a profile: Table I's closest obstacle and
/// closest unknown, and the visibility estimate the deadline is budgeted
/// from (see [`Profilers::visibility`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Visibility {
    /// Distance to the closest observed obstacle (metres).
    pub closest_obstacle: f64,
    /// Distance to the closest unknown space along the direction of travel
    /// (metres).
    pub closest_unknown: f64,
    /// The shorter of the two, clamped to the profilers' visibility range
    /// (metres).
    pub visibility: f64,
}

impl Profilers {
    /// The visibility terms at `position`, probing unknown space along
    /// `heading`: all of the profile a spatial-oblivious decision reads
    /// (see the module docs). [`Profilers::profile`] takes its visibility
    /// terms from here.
    pub fn visibility(&self, map: &OccupancyMap, position: Vec3, heading: Vec3) -> Visibility {
        let closest_obstacle = map
            .nearest_occupied_distance(position, self.max_visibility)
            .unwrap_or(self.max_visibility);
        let probe_dir = if heading.norm() > 1e-9 {
            heading
        } else {
            Vec3::X
        };
        let closest_unknown =
            map.distance_to_unknown(position, probe_dir, self.max_visibility, self.probe_step);
        Visibility {
            closest_obstacle,
            closest_unknown,
            visibility: closest_obstacle
                .min(closest_unknown)
                .clamp(self.min_visibility, self.max_visibility),
        }
    }

    /// Builds a [`SpatialProfile`] from the pipeline's data structures.
    ///
    /// * `cloud` — this decision's (already down-sampled) point cloud.
    /// * `map` — the occupancy map as the previous decisions left it: both
    ///   drivers profile before this decision's cloud is integrated, since
    ///   the policy sets the knobs that integration runs under.
    /// * `trajectory` — the currently followed trajectory, if any.
    /// * `position` / `velocity` — sensor (GPS/IMU) state.
    /// * `heading` — direction of travel used for the unknown-space probe.
    pub fn profile(
        &self,
        cloud: &PointCloud,
        map: &OccupancyMap,
        trajectory: Option<&Trajectory>,
        position: Vec3,
        velocity: f64,
        heading: Vec3,
    ) -> SpatialProfile {
        // --- Gap analysis from the observed obstacle clusters. ---
        let clusters = extract_obstacle_clusters(map, position, self.gap_radius);
        let (gap_min, gap_avg) = cluster_gaps(&clusters);

        // --- Closest obstacle / closest unknown / visibility. ---
        let Visibility {
            closest_obstacle,
            closest_unknown,
            visibility,
        } = self.visibility(map, position, heading);

        // --- Volumes. ---
        // The sensed volume is the extent of this decision's returns,
        // inflated by one metre so a planar wall (zero-thickness AABB) still
        // registers a finite observed volume.
        let sensor_volume = cloud
            .bounds()
            .map(|b| b.inflate(1.0).volume())
            .unwrap_or(0.0);
        let map_volume = map.known_volume();

        // --- Upcoming waypoints from the smoother's trajectory. ---
        let upcoming_waypoints = match trajectory {
            Some(traj) if !traj.is_empty() => (1..=self.waypoint_horizon)
                .filter_map(|i| {
                    let t = i as f64 * self.waypoint_spacing;
                    traj.sample_at(t).map(|sample| {
                        // Expected visibility at a future waypoint: what the
                        // map currently knows about that region.
                        let future_obstacle = map
                            .nearest_occupied_distance(sample.position, self.max_visibility)
                            .unwrap_or(self.max_visibility);
                        WaypointState {
                            position: sample.position,
                            velocity: sample.speed.max(0.1),
                            visibility: future_obstacle
                                .clamp(self.min_visibility, self.max_visibility),
                        }
                    })
                })
                .collect(),
            _ => Vec::new(),
        };

        SpatialProfile {
            position,
            velocity,
            gap_avg,
            gap_min,
            closest_obstacle,
            closest_unknown,
            visibility,
            sensor_volume,
            map_volume,
            upcoming_waypoints,
        }
    }
}

/// Groups occupied voxels near `center` into connected obstacle clusters
/// (26-neighbourhood union-find) and returns each cluster's bounding box,
/// nearest first (ties broken by the box corners, so the order — and the
/// gap sums taken in it — never depends on hash iteration order).
///
/// To keep the per-decision cost bounded, voxels are grouped into coarse
/// clustering cells of `2^L` voxels per axis (edge `resolution · 2^L`),
/// `L` the smallest level whose edge reaches 1.2 m (1.2 m at 0.15, 0.3 and
/// 0.6 m voxels, one voxel from 1.2 m up); gap estimates therefore carry
/// roughly that granularity, which is ample for the governor's precision
/// constraints.
///
/// The union-find runs over *groups*, the 2×2×2 blocks of clustering cells
/// (level `L + 1`; one 8³ block at a 0.3 m map), which come with their
/// boxes and octant bytes straight from the map's block masks
/// ([`OccupancyMap::occupied_cells_within`]). It partitions the cells
/// exactly as a union-find over the cells would:
///
/// * two cells of one group differ by at most one on every axis, so a
///   group's cells are connected;
/// * groups two or more apart on an axis hold no adjacent cells;
/// * a cell of group `g` at octant `o` touches a cell of group `g + d`
///   at octant `o'` exactly when, on every axis, `oᵢ = 1` and `o'ᵢ = 0`
///   where `dᵢ = +1`, and `oᵢ = 0` and `o'ᵢ = 1` where `dᵢ = −1`. The
///   conditions on `o` and on `o'` are independent, so two neighbouring
///   groups touch when each octant byte meets its side's face mask.
///
/// A cluster's box is the exact min/max union of its groups' boxes, and
/// the output order (distance, then corners) is total, so the output
/// equals the cell-level clustering's bit for bit.
pub fn extract_obstacle_clusters(map: &OccupancyMap, center: Vec3, radius: f64) -> Vec<Aabb> {
    let groups = map.occupied_cells_within(center, radius, cluster_level(map.resolution()) + 1);
    let Some(&(first, ..)) = groups.first() else {
        return Vec::new();
    };
    // A flat index of the groups over their own key box, padded by one
    // group wherever a forward offset reaches past it (above in x, on both
    // sides in y and z), so every neighbour lookup lands inside it. An
    // entry packs a group's position with its octant byte, `i << 8 |
    // octants`; a group holds at least one cell, so 0 marks no group.
    assert!(
        groups.len() < 1 << 24,
        "{} groups overflow the index",
        groups.len()
    );
    let (lo, hi) = groups.iter().fold((first, first), |(lo, hi), (key, ..)| {
        (lo.componentwise_min(*key), hi.componentwise_max(*key))
    });
    let (ny, nz) = ((hi.y - lo.y + 3) as usize, (hi.z - lo.z + 3) as usize);
    let slot = |key: VoxelKey| {
        ((key.x - lo.x) as usize * ny + (key.y - lo.y + 1) as usize) * nz
            + (key.z - lo.z + 1) as usize
    };
    let mut index = vec![0u32; (hi.x - lo.x + 2) as usize * ny * nz];
    for (i, &(key, _, octants)) in groups.iter().enumerate() {
        index[slot(key)] = (i as u32) << 8 | u32::from(octants);
    }
    // Every forward offset moves forward in the padded index.
    let steps = FORWARD.map(|(d, face, facing)| {
        let step = (d[0] * ny as i64 + d[1]) * nz as i64 + d[2];
        (step as usize, face, facing)
    });
    // Union-find with path halving; `root` follows group i's root as
    // its unions move it.
    let mut parent: Vec<usize> = (0..groups.len()).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    for (i, &(key, _, octants)) in groups.iter().enumerate() {
        let here = slot(key);
        let mut root = find(&mut parent, i);
        for &(step, face, facing) in &steps {
            let there = index[here + step];
            if (octants & face != 0) & (there as u8 & facing != 0) {
                let other = find(&mut parent, (there >> 8) as usize);
                if other != root {
                    parent[root] = other;
                    root = other;
                }
            }
        }
    }
    // Box unions are exact min/max, so each cluster's box is independent
    // of the order its members are folded in.
    let mut clusters: Vec<Option<Aabb>> = vec![None; groups.len()];
    for (i, (_, bounds, _)) in groups.iter().enumerate() {
        let root = find(&mut parent, i);
        clusters[root] = Some(match clusters[root] {
            Some(acc) => Aabb::union(&acc, bounds),
            None => *bounds,
        });
    }
    let mut out: Vec<Aabb> = clusters.into_iter().flatten().collect();
    out.sort_by(|a, b| cluster_order(a, b, center));
    out
}

/// The clustering cell level at voxel size `resolution`: the smallest `L`
/// with `resolution · 2^L >= 1.2` m.
fn cluster_level(resolution: f64) -> u32 {
    let mut level = 0;
    let mut cell = resolution;
    while cell < 1.2 {
        cell *= 2.0;
        level += 1;
    }
    level
}

/// The 13 group offsets `d` that sort after the origin in key order, each
/// with the face masks of both sides: the octants of a group, and of the
/// group at `d`, whose cells can touch across that face.
const FORWARD: [([i64; 3], u8, u8); 13] = {
    let mut out = [([0; 3], 0, 0); 13];
    let mut n = 0;
    while n < 13 {
        // Offsets in key order, 13 being the origin.
        let i = 14 + n as i64;
        let d = [i / 9 - 1, i / 3 % 3 - 1, i % 3 - 1];
        out[n] = (d, face_mask(d), face_mask([-d[0], -d[1], -d[2]]));
        n += 1;
    }
    out
};

/// The octants `o` (bit `ox << 2 | oy << 1 | oz`) of a group whose cells
/// can touch the group at offset `d`: `oᵢ = 1` where `dᵢ = +1`, `oᵢ = 0`
/// where `dᵢ = −1`, either where `dᵢ = 0`.
const fn face_mask(d: [i64; 3]) -> u8 {
    let mut mask = 0;
    let mut o = 0;
    while o < 8 {
        let bits = [(o >> 2) & 1, (o >> 1) & 1, o & 1];
        let mut touches = true;
        let mut axis = 0;
        while axis < 3 {
            touches &= d[axis] == 0 || bits[axis] == (d[axis] == 1) as i64;
            axis += 1;
        }
        if touches {
            mask |= 1 << o;
        }
        o += 1;
    }
    mask
}

/// Total order of cluster boxes: distance to `center`, then the corners.
fn cluster_order(a: &Aabb, b: &Aabb, center: Vec3) -> Ordering {
    let corners = |x: &Aabb| [x.min.x, x.min.y, x.min.z, x.max.x, x.max.y, x.max.z];
    a.distance_to_point(center)
        .total_cmp(&b.distance_to_point(center))
        .then_with(|| {
            corners(a)
                .iter()
                .zip(corners(b).iter())
                .map(|(p, q)| p.total_cmp(q))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        })
}

/// Minimum and average surface-to-surface gap between obstacle clusters.
/// Returns the open-space sentinel (100 m) when fewer than two clusters
/// exist.
fn cluster_gaps(clusters: &[Aabb]) -> (f64, f64) {
    const OPEN: f64 = 100.0;
    if clusters.len() < 2 {
        return (OPEN, OPEN);
    }
    let mut min_gap = f64::INFINITY;
    let mut sum = 0.0;
    let mut pairs = 0usize;
    for i in 0..clusters.len() {
        for j in (i + 1)..clusters.len() {
            let gap = aabb_gap(&clusters[i], &clusters[j]);
            min_gap = min_gap.min(gap);
            sum += gap;
            pairs += 1;
        }
    }
    ((min_gap).min(OPEN), (sum / pairs as f64).min(OPEN))
}

#[cfg(test)]
mod tests {
    use super::*;
    use roborun_planning::{smooth_path, SmoothingConfig};

    fn map_from_points(points: Vec<Vec3>) -> OccupancyMap {
        let mut map = OccupancyMap::new(0.3);
        map.integrate_cloud(&PointCloud::new(Vec3::new(0.0, 0.0, 5.0), points), 0.3);
        map
    }

    fn column(x: f64, y: f64) -> Vec<Vec3> {
        (0..10)
            .flat_map(move |k| {
                (0..3).map(move |dy| Vec3::new(x, y + dy as f64 * 0.3, 4.0 + k as f64 * 0.3))
            })
            .collect()
    }

    #[test]
    fn open_space_profile_reports_large_gaps() {
        let profilers = Profilers::default();
        let map = OccupancyMap::new(0.3);
        let cloud = PointCloud::empty(Vec3::new(0.0, 0.0, 5.0));
        let profile = profilers.profile(&cloud, &map, None, Vec3::new(0.0, 0.0, 5.0), 2.0, Vec3::X);
        assert_eq!(profile.gap_min, 100.0);
        assert_eq!(profile.gap_avg, 100.0);
        assert_eq!(profile.closest_obstacle, profilers.max_visibility);
        assert_eq!(profile.sensor_volume, 0.0);
        assert_eq!(profile.map_volume, 0.0);
        // An empty map is all unknown, so the visibility estimate collapses
        // to the floor — the governor must be conservative before it has
        // seen anything.
        assert_eq!(profile.visibility, profilers.min_visibility);
        assert!(profile.upcoming_waypoints.is_empty());
        assert_eq!(profile.current_waypoint().velocity, 2.0);
    }

    #[test]
    fn two_columns_produce_a_measurable_gap() {
        let profilers = Profilers::default();
        // Two pillars ~4 m apart (surface to surface) ahead of the MAV.
        let mut points = column(8.0, -2.5);
        points.extend(column(8.0, 2.2));
        let map = map_from_points(points.clone());
        let cloud = PointCloud::new(Vec3::new(0.0, 0.0, 5.0), points);
        let profile = profilers.profile(&cloud, &map, None, Vec3::new(0.0, 0.0, 5.0), 1.5, Vec3::X);
        assert!(profile.gap_min < 6.0, "gap_min {}", profile.gap_min);
        assert!(profile.gap_min > 2.0, "gap_min {}", profile.gap_min);
        assert!(profile.gap_avg >= profile.gap_min);
        assert!(profile.closest_obstacle < 10.0);
        assert!(profile.visibility <= profile.closest_obstacle);
        assert!(profile.sensor_volume > 0.0);
        assert!(profile.map_volume > 0.0);
    }

    #[test]
    fn single_cluster_reports_open_gap_but_near_obstacle() {
        let profilers = Profilers::default();
        let points = column(6.0, 0.0);
        let map = map_from_points(points.clone());
        let cloud = PointCloud::new(Vec3::new(0.0, 0.0, 5.0), points);
        let profile = profilers.profile(&cloud, &map, None, Vec3::new(0.0, 0.0, 5.0), 1.0, Vec3::X);
        assert_eq!(profile.gap_min, 100.0);
        assert!(profile.closest_obstacle < 7.0);
    }

    /// The clustering cell: the first of `resolution · 2^L` that spans at
    /// least 1.2 m.
    fn reference_cell(resolution: f64) -> f64 {
        (0..)
            .map(|level| resolution * 2f64.powi(level))
            .find(|cell| *cell >= 1.2)
            .expect("a positive resolution reaches 1.2 m")
    }

    /// The all-pairs clustering over a voxel-by-voxel scan of the map, kept
    /// as the reference the production path must equal (boxes and order).
    fn extract_obstacle_clusters_reference(
        map: &OccupancyMap,
        center: Vec3,
        radius: f64,
    ) -> Vec<Aabb> {
        let cluster_res = reference_cell(map.resolution());
        let mut coarse: std::collections::HashMap<VoxelKey, Aabb> =
            std::collections::HashMap::new();
        for (_, b) in map
            .occupied_voxels()
            .filter(|(_, b)| b.distance_to_point(center) <= radius)
        {
            let key = VoxelKey::from_point(b.center(), cluster_res);
            coarse
                .entry(key)
                .and_modify(|acc| *acc = Aabb::union(acc, &b))
                .or_insert(b);
        }
        let nearby: Vec<(VoxelKey, Aabb)> = coarse.into_iter().collect();
        let mut parent: Vec<usize> = (0..nearby.len()).collect();
        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let root = find(parent, parent[i]);
                parent[i] = root;
            }
            parent[i]
        }
        for i in 0..nearby.len() {
            for j in (i + 1)..nearby.len() {
                let (ka, kb) = (nearby[i].0, nearby[j].0);
                if (ka.x - kb.x).abs() <= 1 && (ka.y - kb.y).abs() <= 1 && (ka.z - kb.z).abs() <= 1
                {
                    let (ra, rb) = (find(&mut parent, i), find(&mut parent, j));
                    if ra != rb {
                        parent[ra] = rb;
                    }
                }
            }
        }
        let mut clusters: std::collections::HashMap<usize, Aabb> = std::collections::HashMap::new();
        for (i, (_, bounds)) in nearby.iter().enumerate() {
            let root = find(&mut parent, i);
            clusters
                .entry(root)
                .and_modify(|b| *b = Aabb::union(b, bounds))
                .or_insert(*bounds);
        }
        let mut out: Vec<Aabb> = clusters.into_values().collect();
        out.sort_by(|a, b| cluster_order(a, b, center));
        out
    }

    #[test]
    fn clusters_match_the_all_pairs_reference_on_adversarial_maps() {
        let origin = Vec3::new(0.0, 0.0, 5.0);
        // The lattice resolutions (1.2 m cells of 8, 4, 2 and 1 voxels and
        // 2.4 m cells of one voxel), 0.1 m (1.6 m cells spanning 2³ blocks)
        // and the off-lattice 0.5 m (2 m cells).
        for resolution in [0.1, 0.15, 0.3, 0.5, 0.6, 1.2, 2.4] {
            // Point sets keyed to the map voxels and to the clustering
            // cells, so both discontinuities are hit.
            for cell in [resolution, reference_cell(resolution)] {
                for scenario in roborun_conformance::adversarial_point_sets(13, cell) {
                    let mut map = OccupancyMap::new(resolution);
                    map.integrate_cloud(&PointCloud::new(origin, scenario.points), resolution);
                    for probe in roborun_conformance::boundary_probes(13, cell) {
                        for radius in [0.0, cell, 20.0, 1e4] {
                            assert_eq!(
                                extract_obstacle_clusters(&map, probe, radius),
                                extract_obstacle_clusters_reference(&map, probe, radius),
                                "{} at res {resolution}, probe {probe}, radius {radius}",
                                scenario.name
                            );
                        }
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Random clouds of scattered points and short segments around a
        /// centre at negative coordinates: the group clustering equals the
        /// all-pairs reference at every resolution from 0.1 m (groups of
        /// 4³ blocks) to 2.5 m (groups of two voxels per axis), queried at
        /// the centre, at a hit point (which radius 0 keeps) and off to
        /// the side.
        #[test]
        fn clusters_match_the_all_pairs_reference_on_random_clouds(
            resolution in 0.1f64..2.5,
            center in (-40.0f64..-1.0, -40.0f64..-1.0, -20.0f64..-1.0),
            scattered in proptest::collection::vec((-8.0f64..8.0, -8.0f64..8.0, -8.0f64..8.0), 0..120),
            segments in proptest::collection::vec(
                ((-8.0f64..8.0, -8.0f64..8.0, -8.0f64..8.0), (-3.0f64..3.0, -3.0f64..3.0, -3.0f64..3.0)),
                0..6,
            ),
            side in (-12.0f64..12.0, -12.0f64..12.0, -12.0f64..12.0),
        ) {
            let center = Vec3::new(center.0, center.1, center.2);
            let at = |(x, y, z): (f64, f64, f64)| center + Vec3::new(x, y, z);
            let mut points: Vec<Vec3> = scattered.into_iter().map(at).collect();
            for (start, (dx, dy, dz)) in segments {
                let (start, run) = (at(start), Vec3::new(dx, dy, dz));
                let steps = (run.norm() / (resolution * 0.5)).ceil() as usize;
                points.extend((0..=steps).map(|i| start + run * (i as f64 / steps.max(1) as f64)));
            }
            let mut map = OccupancyMap::new(resolution);
            map.integrate_cloud(&PointCloud::new(center + Vec3::new(0.5, 0.5, 9.0), points.clone()), resolution);
            let cell = reference_cell(resolution);
            for probe in [center, points.first().copied().unwrap_or(center), at(side)] {
                for radius in [0.0, cell, 20.0, 1e4] {
                    proptest::prop_assert_eq!(
                        extract_obstacle_clusters(&map, probe, radius),
                        extract_obstacle_clusters_reference(&map, probe, radius),
                        "res {} probe {} radius {}", resolution, probe, radius
                    );
                }
            }
        }
    }

    #[test]
    fn tied_clusters_sum_gaps_in_a_fixed_order() {
        // Three separate clusters at 1.2 m clustering resolution: a U whose
        // box contains the query point, a bar through the query point
        // inside the U, and a far pillar. The first two tie at distance 0.
        let query = Vec3::new(0.15, 0.15, 4.95);
        let mut points = Vec::new();
        for i in -20..=20 {
            let t = i as f64 * 0.3;
            points.push(Vec3::new(-6.0, t, 5.0));
            points.push(Vec3::new(6.0, t, 5.0));
            points.push(Vec3::new(t, 6.0, 5.0));
        }
        for i in -10..=10 {
            points.push(Vec3::new(i as f64 * 0.3, 0.0, 5.0));
        }
        points.extend(column(12.0, -9.0));
        let forward = map_from_points(points.clone());
        points.reverse();
        let backward = map_from_points(points);
        let clusters = extract_obstacle_clusters(&forward, query, 30.0);
        assert_eq!(clusters.len(), 3);
        assert_eq!(clusters[0].distance_to_point(query), 0.0);
        assert_eq!(clusters[1].distance_to_point(query), 0.0);
        assert_eq!(clusters, extract_obstacle_clusters(&backward, query, 30.0));
        let gap_avg = |map: &OccupancyMap| {
            cluster_gaps(&extract_obstacle_clusters(map, query, 30.0))
                .1
                .to_bits()
        };
        assert_eq!(gap_avg(&forward), gap_avg(&backward));
    }

    #[test]
    fn cluster_extraction_merges_adjacent_voxels() {
        let map = map_from_points(column(8.0, 0.0));
        let clusters = extract_obstacle_clusters(&map, Vec3::new(0.0, 0.0, 5.0), 30.0);
        assert_eq!(clusters.len(), 1, "one pillar must form one cluster");
        let far = extract_obstacle_clusters(&map, Vec3::new(200.0, 0.0, 5.0), 10.0);
        assert!(far.is_empty());
    }

    #[test]
    fn trajectory_produces_upcoming_waypoints() {
        let profilers = Profilers::default();
        let map = map_from_points(column(30.0, 0.0));
        let cloud = PointCloud::empty(Vec3::new(0.0, 0.0, 5.0));
        let traj = smooth_path(
            &[Vec3::new(0.0, 0.0, 5.0), Vec3::new(40.0, 0.0, 5.0)],
            3.0,
            &SmoothingConfig::default(),
        );
        let profile = profilers.profile(
            &cloud,
            &map,
            Some(&traj),
            Vec3::new(0.0, 0.0, 5.0),
            3.0,
            Vec3::X,
        );
        assert!(!profile.upcoming_waypoints.is_empty());
        assert!(profile.upcoming_waypoints.len() <= profilers.waypoint_horizon);
        // Waypoints advance along the trajectory.
        let xs: Vec<f64> = profile
            .upcoming_waypoints
            .iter()
            .map(|w| w.position.x)
            .collect();
        for w in xs.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
        // Visibility at each waypoint is clamped to the profiler's range.
        for w in &profile.upcoming_waypoints {
            assert!(w.visibility >= profilers.min_visibility);
            assert!(w.visibility <= profilers.max_visibility);
            assert!(w.velocity > 0.0);
        }
    }

    #[test]
    fn visibility_equals_the_full_profile_on_adversarial_maps() {
        let profilers = Profilers::default();
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let traj = smooth_path(
            &[origin, Vec3::new(12.0, -3.0, 6.0)],
            2.0,
            &SmoothingConfig::default(),
        );
        let headings = [Vec3::X, Vec3::ZERO, Vec3::new(-1.0, 2.0, -0.5), -Vec3::Z];
        let bits = |a: f64, b: f64| a.to_bits() == b.to_bits();
        for resolution in [0.15, 0.3, 0.6] {
            for scenario in roborun_conformance::adversarial_point_sets(29, resolution) {
                let mut map = OccupancyMap::new(resolution);
                let cloud = PointCloud::new(origin, scenario.points);
                map.integrate_cloud(&cloud, resolution);
                for probe in roborun_conformance::boundary_probes(29, resolution) {
                    for heading in headings {
                        let seen = profilers.visibility(&map, probe, heading);
                        for trajectory in [None, Some(&traj)] {
                            let profile =
                                profilers.profile(&cloud, &map, trajectory, probe, 1.0, heading);
                            assert!(
                                bits(seen.closest_obstacle, profile.closest_obstacle)
                                    && bits(seen.closest_unknown, profile.closest_unknown)
                                    && bits(seen.visibility, profile.visibility),
                                "{} at res {resolution}, probe {probe}, heading {heading}: \
                                 {seen:?} vs {profile:?}",
                                scenario.name
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn preset_profiles_are_sensible() {
        let open = SpatialProfile::open_space(2.5, 40.0);
        assert_eq!(open.visibility, 40.0);
        assert!(open.gap_min > 10.0);
        let tight = SpatialProfile::congested(0.5, 2.0, 3.0);
        assert!(tight.gap_min < open.gap_min);
        assert!(tight.visibility < open.visibility);
    }
}
