//! Property-based tests for the perception kernels and operators.

use proptest::prelude::*;
use roborun_geom::{snap_to_lattice, Aabb, Vec3, VoxelKey};
use roborun_perception::{block_of, ExportConfig, OccupancyMap, PlannerMap, PointCloud};
use std::collections::{BTreeMap, BTreeSet};

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(
        ((-30.0f64..30.0), (-30.0f64..30.0), (0.0f64..15.0))
            .prop_map(|(x, y, z)| Vec3::new(x, y, z)),
        0..max,
    )
}

/// The nearest occupied voxel centre within `max_radius` of `p`, by a
/// linear scan of every occupied voxel: the reference the block-walking
/// `OccupancyMap::nearest_occupied_distance` must equal bit for bit.
fn nearest_occupied_linear(map: &OccupancyMap, p: Vec3, max_radius: f64) -> Option<f64> {
    let mut best: Option<f64> = None;
    for (key, _) in map.occupied_voxels() {
        let d = key.center(map.resolution()).distance(p);
        if d <= max_radius && best.is_none_or(|b| d < b) {
            best = Some(d);
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn downsampling_never_increases_point_count(points in arb_points(200), cell in 0.1f64..5.0) {
        let cloud = PointCloud::new(Vec3::ZERO, points);
        let ds = cloud.downsampled(cell);
        prop_assert!(ds.len() <= cloud.len());
        // Downsampled points stay within the original bounds (averages of members).
        if let (Some(orig), Some(new)) = (cloud.bounds(), ds.bounds()) {
            prop_assert!(orig.inflate(1e-9).contains_aabb(&new));
        }
        // Coarser cells never yield more points than finer cells.
        let coarser = cloud.downsampled(cell * 2.0);
        prop_assert!(coarser.len() <= ds.len());
    }

    /// The occupied-block nearest query must return exactly what a linear
    /// scan returns, on random maps and random queries.
    #[test]
    fn ring_nearest_queries_match_linear_scans(points in arb_points(150),
                                               resolution in 0.2f64..2.0,
                                               qx in -40.0f64..40.0, qy in -40.0f64..40.0,
                                               qz in -5.0f64..20.0,
                                               max_radius in 0.0f64..60.0) {
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let mut map = OccupancyMap::new(resolution);
        map.integrate_cloud(&PointCloud::new(origin, points), resolution);
        let q = Vec3::new(qx, qy, qz);
        prop_assert_eq!(
            map.nearest_occupied_distance(q, max_radius),
            nearest_occupied_linear(&map, q, max_radius)
        );
    }

    /// The mask-based neighbourhood scan of `PlannerMap::is_occupied`
    /// must answer exactly like a linear scan of the exported boxes — for
    /// margins from zero to many voxels, on probes at random and at exactly
    /// the margin off a box face, edge or corner.
    #[test]
    fn is_occupied_matches_a_linear_box_scan(points in arb_points(150),
                                             precision in 0.2f64..2.5,
                                             margin_voxels in 0.0f64..10.0,
                                             qx in -40.0f64..40.0, qy in -40.0f64..40.0,
                                             qz in -5.0f64..20.0) {
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let mut map = OccupancyMap::new(0.2);
        map.integrate_cloud(&PointCloud::new(origin, points), 0.2);
        let pm = PlannerMap::export(&map, &ExportConfig::new(precision, 1e9, origin));
        let boxes: Vec<Aabb> = pm.occupied_keys().map(|k| pm.key_box(k)).collect();
        let linear = |q: Vec3, margin: f64| boxes.iter().any(|b| b.distance_to_point(q) <= margin);
        for margin in [0.0, margin_voxels * pm.voxel_size()] {
            let mut probes = vec![Vec3::new(qx, qy, qz)];
            for b in boxes.iter().take(8) {
                let c = b.center();
                probes.push(Vec3::new(b.max.x + margin, c.y, c.z));
                probes.push(Vec3::new(b.min.x - margin, b.min.y, c.z));
                probes.push(b.max + Vec3::splat(margin / 3f64.sqrt()));
            }
            for q in probes {
                prop_assert_eq!(pm.is_occupied(q, margin), linear(q, margin), "at {} margin {}", q, margin);
            }
        }
    }

    #[test]
    fn volume_limit_is_respected(points in arb_points(150), budget in 0.0f64..5_000.0) {
        let cloud = PointCloud::new(Vec3::ZERO, points);
        let limited = cloud.volume_limited(Vec3::ZERO, budget);
        prop_assert!(limited.len() <= cloud.len());
        if let Some(bounds) = limited.bounds() {
            // The accepted set's volume only exceeds the budget when a single
            // point was kept (a degenerate AABB has zero volume anyway).
            if limited.len() > 1 {
                prop_assert!(bounds.volume() <= budget.max(0.0) + 1e-6);
            }
        }
        if budget == 0.0 {
            prop_assert!(limited.is_empty());
        }
    }

    #[test]
    fn occupancy_map_marks_every_hit_point(points in arb_points(80), step in 0.2f64..2.0) {
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let cloud = PointCloud::new(origin, points.clone());
        let mut map = OccupancyMap::new(0.5);
        let updates = map.integrate_cloud(&cloud, step);
        prop_assert!(updates >= points.len());
        for p in &points {
            prop_assert!(map.is_occupied(*p), "hit point {p:?} not occupied");
        }
        // Stats are consistent.
        let stats = map.stats();
        prop_assert_eq!(stats.occupied + stats.free, map.len());
        prop_assert!((map.known_volume() - stats.known_volume).abs() < 1e-9);
    }

    #[test]
    fn export_respects_budget_and_precision_lattice(points in arb_points(120),
                                                    precision in 0.3f64..5.0,
                                                    budget in 1.0f64..2_000.0) {
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let cloud = PointCloud::new(origin, points);
        let mut map = OccupancyMap::new(0.3);
        map.integrate_cloud(&cloud, 0.6);
        let export = PlannerMap::export(&map, &ExportConfig::new(precision, budget, origin));
        // Exported voxel size is a power-of-two multiple of the map resolution
        // and never finer than requested... but also never coarser than the
        // request allows (snap goes downward).
        let ratio = export.voxel_size() / 0.3;
        prop_assert!((ratio - ratio.round()).abs() < 1e-6);
        prop_assert!((ratio.round() as u64).is_power_of_two());
        prop_assert!(export.voxel_size() <= precision.max(0.3) + 1e-9);
        // Volume budget respected (allowing the always-export-one rule).
        if export.len() > 1 {
            prop_assert!(export.occupied_volume() <= budget + export.voxel_size().powi(3) + 1e-6);
        }
        // Every exported box is occupied space according to the map's own
        // occupied voxels (conservatively: contains at least one).
        if !map.is_empty() && budget > 1.0 {
            for b in export.occupied_keys().map(|k| export.key_box(k)) {
                let found = map.occupied_voxels().any(|(_, vb)| b.intersects(&vb));
                prop_assert!(found, "exported box {b:?} covers no occupied voxel");
            }
        }
    }

    #[test]
    fn export_distance_is_conservative(points in arb_points(100)) {
        // The exported (possibly coarsened) map must never report an
        // obstacle as farther away than the fine map does: coarsening may
        // inflate obstacles but must not shrink them.
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let cloud = PointCloud::new(origin, points);
        let mut map = OccupancyMap::new(0.3);
        map.integrate_cloud(&cloud, 0.6);
        let fine = PlannerMap::export(&map, &ExportConfig::new(0.3, 1e9, origin));
        let coarse = PlannerMap::export(&map, &ExportConfig::new(2.4, 1e9, origin));
        let probe = Vec3::new(0.0, 0.0, 5.0);
        match (nearest_box_distance(&fine, probe), nearest_box_distance(&coarse, probe)) {
            (Some(df), Some(dc)) => prop_assert!(dc <= df + 1e-6, "coarse {dc} > fine {df}"),
            (Some(_), None) => prop_assert!(false, "coarse export lost all obstacles"),
            _ => {}
        }
    }

    /// The DDA-batched `integrate_cloud` must leave the map bit-identical
    /// to the retained per-sample reference — same voxel states and epoch
    /// stamps (via `PartialEq`), same update count — for
    /// any resolution/step combination, including steps finer and coarser
    /// than a voxel.
    #[test]
    fn batched_integration_matches_reference(points in arb_points(120),
                                             resolution in 0.2f64..2.0,
                                             step in 0.05f64..2.5,
                                             ox in -10.0f64..10.0, oy in -10.0f64..10.0) {
        let origin = Vec3::new(ox, oy, 5.0);
        let cloud = PointCloud::new(origin, points);
        let mut batched = OccupancyMap::new(resolution);
        let mut reference = OccupancyMap::new(resolution);
        let u1 = batched.integrate_cloud(&cloud, step);
        let u2 = reference.integrate_cloud_reference(&cloud, step);
        prop_assert_eq!(u1, u2, "update counts diverged");
        prop_assert_eq!(&batched, &reference);
        // A second cloud over the partially known map exercises the
        // no-downgrade clamping through the batched path too.
        let second = PointCloud::new(
            origin + Vec3::new(1.0, -0.5, 0.0),
            cloud.points().iter().map(|p| *p + Vec3::new(0.7, 0.7, 0.0)).collect(),
        );
        let u1 = batched.integrate_cloud(&second, step);
        let u2 = reference.integrate_cloud_reference(&second, step);
        prop_assert_eq!(u1, u2, "second-cloud update counts diverged");
        prop_assert_eq!(&batched, &reference);
    }

    /// `PlannerMap::export` coarsens by shifting block masks and ranks
    /// only under a binding budget; it must equal the per-voxel re-key and
    /// full nearest-first sort it replaced — same keys, equal maps — at 1×,
    /// 2×, 4× and 8× the map resolution and at budgets of zero, below one
    /// voxel, exactly k voxels, binding, and unbounded.
    #[test]
    fn export_equals_a_full_sort_reference(points in arb_points(150),
                                           resolution in 0.2f64..1.0,
                                           k in 1usize..40,
                                           fraction in 0.0f64..1.0,
                                           rx in -30.0f64..30.0, ry in -30.0f64..30.0) {
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let mut map = OccupancyMap::new(resolution);
        map.integrate_cloud(&PointCloud::new(origin, points), resolution);
        let reference = Vec3::new(rx, ry, 5.0);
        for factor in [1.0, 2.0, 4.0, 8.0] {
            let precision = resolution * factor;
            let voxel_volume = precision.powi(3);
            let full = export_full_sort_reference(&map, &ExportConfig::new(precision, 1e9, reference));
            for budget in [
                0.0,
                voxel_volume * 0.5,
                voxel_volume * k as f64,
                full.occupied_volume() * fraction,
                1e9,
            ] {
                let config = ExportConfig::new(precision, budget, reference);
                let expected = export_full_sort_reference(&map, &config);
                let exported = PlannerMap::export(&map, &config);
                let mut keys: Vec<_> = exported.occupied_keys().collect();
                let mut expected_keys: Vec<_> = expected.occupied_keys().collect();
                keys.sort();
                expected_keys.sort();
                prop_assert_eq!(keys, expected_keys, "budget {}", budget);
                prop_assert_eq!(&exported, &expected, "budget {}", budget);
            }
        }
    }

    /// `PlannerMap::delta_from` must be the exact set difference between
    /// two exports: applying it to the previous key set reproduces the new
    /// one. Its added keys come block by block, each block's ascending.
    #[test]
    fn export_delta_is_exact_set_difference(points in arb_points(120),
                                            extra in arb_points(40),
                                            precision in 0.3f64..3.0) {
        use std::collections::BTreeSet;
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let mut map = OccupancyMap::new(0.3);
        map.integrate_cloud(&PointCloud::new(origin, points), 0.6);
        let before = PlannerMap::export(&map, &ExportConfig::new(precision, 1e9, origin));
        map.integrate_cloud(&PointCloud::new(origin, extra), 0.6);
        map.retain_within(origin, 25.0);
        let after = PlannerMap::export(&map, &ExportConfig::new(precision, 1e9, origin));
        let delta = after.delta_from(&before).expect("same voxel size");
        prop_assert_eq!(delta.voxel_size(), after.voxel_size());
        let mut keys: BTreeSet<_> = before.occupied_keys().collect();
        for k in delta.removed() {
            prop_assert!(keys.remove(k), "removed key {k:?} not in previous export");
        }
        for k in delta.added() {
            prop_assert!(keys.insert(*k), "added key {k:?} already present");
        }
        let new_keys: BTreeSet<_> = after.occupied_keys().collect();
        prop_assert_eq!(keys, new_keys);
        prop_assert_eq!(delta.len(), delta.added().len() + delta.removed().len());
        let mut blocks: Vec<_> = delta.added().iter().map(|k| block_of(*k)).collect();
        blocks.dedup();
        prop_assert_eq!(blocks.len(), blocks.iter().collect::<BTreeSet<_>>().len());
        for pair in delta.added().windows(2) {
            prop_assert!(block_of(pair[0]) != block_of(pair[1]) || pair[0] < pair[1]);
        }
    }

    /// The block store stays exact under every operation that changes
    /// the occupied voxels: integration, a decay-enabled carve that
    /// downgrades stale voxels, and `retain_within`. After every step the
    /// counters agree with the blocks, and both mask queries equal their
    /// full scans bit for bit: the nearest distance, and the cells of
    /// `2^level` voxels, with their boxes and octant bytes, from two voxels
    /// (level 1) to 4³ blocks (level 5).
    #[test]
    fn block_store_stays_exact_under_integrate_decay_and_retain(
        steps in prop::collection::vec(
            (0u8..3, -8.0f64..8.0, -8.0f64..8.0, arb_points(40), 2.0f64..35.0),
            1..8,
        ),
        resolution in 0.2f64..1.5,
        queries in arb_points(5),
    ) {
        let mut map = OccupancyMap::new(resolution);
        // Epochs advance by two per step, so every earlier occupied voxel
        // is stale when a later ray passes through it.
        map.set_stale_decay(Some(1));
        for (i, (op, ox, oy, points, radius)) in steps.into_iter().enumerate() {
            map.set_epoch(2 * i as u64);
            let origin = Vec3::new(ox, oy, 5.0);
            match op {
                0 => {
                    map.integrate_cloud(&PointCloud::new(origin, points), resolution * 0.5);
                }
                1 => {
                    // Extend every ray past its hit so it carves through
                    // the voxels earlier steps marked occupied.
                    let through = points.iter().map(|p| origin + (*p - origin) * 1.6).collect();
                    map.integrate_cloud(&PointCloud::new(origin, through), resolution * 0.5);
                }
                _ => map.retain_within(origin, radius),
            }
            prop_assert!(map.spatial_caches_consistent(), "store diverged after step {}", i);
            // An occupied voxel's centre puts radius 0 on the boundary of
            // the crossing-block filter: that voxel lies at distance 0.
            let occupied = map.occupied_voxels().next().map(|(_, b)| b.center());
            for q in queries.iter().copied().chain([origin]).chain(occupied) {
                for r in [0.0, resolution, 40.0, 1e4] {
                    prop_assert_eq!(
                        map.nearest_occupied_distance(q, r).map(f64::to_bits),
                        nearest_occupied_linear(&map, q, r).map(f64::to_bits)
                    );
                }
                for r in [0.0, resolution, radius, 20.0] {
                    for level in 1..=5 {
                        prop_assert_eq!(
                            cells_bits(map.occupied_cells_within(q, r, level)),
                            cells_bits(occupied_cells_scanned(&map, q, r, level)),
                            "level {} radius {} at {}", level, r, q
                        );
                    }
                }
            }
        }
    }
}

/// The occupied cells of `2^level` voxels within `radius` of `center` by a
/// full scan: every occupied voxel whose bounds lie within the radius,
/// grouped by `key >> level`, bounds folded with `Aabb::union`, octant bit
/// `ox << 2 | oy << 1 | oz` set from `(key >> (level - 1)) & 1` per axis;
/// sorted by cell key.
fn occupied_cells_scanned(
    map: &OccupancyMap,
    center: Vec3,
    radius: f64,
    level: u32,
) -> Vec<(VoxelKey, Aabb, u8)> {
    let mut cells: BTreeMap<VoxelKey, (Aabb, u8)> = BTreeMap::new();
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
        cells
            .entry(cell)
            .and_modify(|(acc, octants)| {
                *acc = Aabb::union(acc, &bounds);
                *octants |= octant;
            })
            .or_insert((bounds, octant));
    }
    cells.into_iter().map(|(k, (b, o))| (k, b, o)).collect()
}

/// Cells with their boxes as bits, sorted by key, so equality is bit
/// equality whatever order the cells came in.
fn cells_bits(cells: Vec<(VoxelKey, Aabb, u8)>) -> Vec<(VoxelKey, [u64; 6], u8)> {
    let mut cells: Vec<_> = cells
        .into_iter()
        .map(|(key, b, octants)| {
            let corners = [b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z];
            (key, corners.map(f64::to_bits), octants)
        })
        .collect();
    cells.sort_unstable_by_key(|(key, ..)| *key);
    cells
}

/// The export as it was before it worked on block masks: every occupied
/// voxel re-keyed through its centre at the export precision, every coarse
/// voxel sorted nearest first (ties by key, distances recomputed on each
/// comparison), then kept until the budget is spent. Rebuilt into a
/// `PlannerMap` from the kept keys, so the comparison covers the masks and
/// the voxel count too.
fn export_full_sort_reference(map: &OccupancyMap, config: &ExportConfig) -> PlannerMap {
    let precision = snap_to_lattice(config.precision.max(map.resolution()), map.resolution(), 8);
    let coarse: BTreeSet<VoxelKey> = map
        .occupied_voxels()
        .map(|(key, _)| VoxelKey::from_point(key.center(map.resolution()), precision))
        .collect();
    let mut keys: Vec<VoxelKey> = coarse.into_iter().collect();
    keys.sort_by(|a, b| {
        let da = a.center(precision).distance_squared(config.reference);
        let db = b.center(precision).distance_squared(config.reference);
        da.partial_cmp(&db)
            .expect("distances are never NaN")
            .then_with(|| a.cmp(b))
    });
    let voxel_volume = precision.powi(3);
    let mut kept = Vec::new();
    let mut volume = 0.0;
    for key in keys {
        if volume + voxel_volume > config.max_volume && !kept.is_empty() {
            break;
        }
        kept.push(key);
        volume += voxel_volume;
        if volume >= config.max_volume && config.max_volume > 0.0 {
            break;
        }
    }
    if config.max_volume == 0.0 {
        kept.clear();
    }
    PlannerMap::from_keys(precision, config.reference, kept)
}

/// Distance from `p` to the nearest exported box surface, by a linear scan
/// of the export's keys, or `None` when it is empty.
fn nearest_box_distance(pm: &PlannerMap, p: Vec3) -> Option<f64> {
    pm.occupied_keys()
        .map(|k| pm.key_box(k).distance_to_point(p))
        .min_by(f64::total_cmp)
}

/// The occupancy map's ring query swept over the shared adversarial
/// scenario family — shapes random sampling is unlikely to produce (exact
/// voxel-face points, dense lattices, tight clusters).
#[test]
fn adversarial_scenarios_match_linear_references() {
    for resolution in [0.3, 0.5, 1.0] {
        for scenario in roborun_conformance::adversarial_point_sets(11, resolution) {
            let origin = Vec3::new(0.0, 0.0, 5.0);
            // A step fine enough (< res/2) to route through the batched
            // carve, so the adversarial shapes exercise it too.
            let step = resolution * 0.2;
            let mut map = OccupancyMap::new(resolution);
            map.integrate_cloud(&PointCloud::new(origin, scenario.points.clone()), step);
            let mut reference = OccupancyMap::new(resolution);
            reference.integrate_cloud_reference(&PointCloud::new(origin, scenario.points), step);
            assert_eq!(map, reference, "integration diverged on {}", scenario.name);
            for q in roborun_conformance::boundary_probes(11, resolution) {
                for radius in [0.0, resolution, 7.3, 1e4] {
                    assert_eq!(
                        map.nearest_occupied_distance(q, radius),
                        nearest_occupied_linear(&map, q, radius),
                        "occupancy nearest diverged on {} at {q} r={radius}",
                        scenario.name
                    );
                }
            }
        }
    }
}
