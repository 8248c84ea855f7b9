//! Property-based tests for planning: collision checking, RRT* and
//! smoothing invariants.

use proptest::prelude::*;
use roborun_geom::{Aabb, Vec3, VoxelKey};
use roborun_perception::{ExportConfig, OccupancyMap, PlannerMap, PointCloud};
use roborun_planning::{
    polyline_clear_of_boxes, smooth_path, CollisionChecker, HazardSource, PeerTrajectoryHazard,
    PredictedHazards, RrtConfig, RrtStar, SmoothingConfig, Trajectory, TrajectoryPoint,
};

/// The answer `CollisionChecker::point_free` must give: no box of `map`
/// within `margin` of `p`.
fn point_free_reference(map: &PlannerMap, p: Vec3, margin: f64) -> bool {
    !map.is_occupied(p, margin)
}

fn arb_waypoints() -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(
        ((-40.0f64..40.0), (-40.0f64..40.0), (2.0f64..10.0))
            .prop_map(|(x, y, z)| Vec3::new(x, y, z)),
        2..8,
    )
}

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

    #[test]
    fn smoothing_respects_speed_cap(waypoints in arb_waypoints(),
                                    cruise in 0.2f64..12.0,
                                    cap in 0.5f64..6.0) {
        let cfg = SmoothingConfig { max_speed: cap, ..SmoothingConfig::default() };
        let traj = smooth_path(&waypoints, cruise, &cfg);
        prop_assert!(traj.max_speed() <= cap + 1e-9);
        // Endpoints preserved.
        prop_assert!((traj.start_position().unwrap() - waypoints[0]).norm() < 1e-6);
        prop_assert!((traj.end_position().unwrap() - *waypoints.last().unwrap()).norm() < 1e-6);
        // Time strictly non-decreasing and speeds non-negative.
        for w in traj.points().windows(2) {
            prop_assert!(w[1].time >= w[0].time);
        }
        for p in traj.points() {
            prop_assert!(p.speed >= 0.0);
        }
        // Path length at least the straight-line start→end distance.
        let direct = waypoints[0].distance(*waypoints.last().unwrap());
        prop_assert!(traj.length() + 1e-6 >= direct * 0.99);
    }

    #[test]
    fn trajectory_sampling_is_clamped_and_monotone(waypoints in arb_waypoints(), t in -5.0f64..200.0) {
        let traj = smooth_path(&waypoints, 3.0, &SmoothingConfig::default());
        let sample = traj.sample_at(t).unwrap();
        prop_assert!(sample.time >= 0.0 - 1e-9);
        prop_assert!(sample.time <= traj.duration() + 1e-9 || t <= 0.0);
        // remaining_from never yields a longer duration than the original.
        let rest = traj.remaining_from(t.max(0.0));
        prop_assert!(rest.duration() <= traj.duration() + 1e-9);
    }

    #[test]
    fn rrt_paths_are_collision_free_and_anchored(seed in 0u64..64, gap_center in -10.0f64..10.0) {
        let map = wall_map(gap_center - 2.0, gap_center + 2.0);
        let mut checker = CollisionChecker::new(map.clone(), 0.45, 0.5);
        let planner = RrtStar::new(RrtConfig { seed, ..RrtConfig::default() });
        let start = Vec3::new(0.0, 0.0, 5.0);
        let goal = Vec3::new(40.0, 0.0, 5.0);
        let bounds = Aabb::new(Vec3::new(-5.0, -30.0, 1.0), Vec3::new(45.0, 30.0, 11.0));
        let result = planner.plan(&mut checker, start, goal, &bounds);
        if result.found() {
            prop_assert!((result.path[0] - start).norm() < 1e-9);
            prop_assert!((result.path.last().unwrap().distance(goal)) < 1e-9);
            // Verified against a fresh checker with the same margin and the
            // same sampling step the planner used (a finer verification step
            // could legitimately find collisions the coarser planning step
            // cannot see — that accuracy/latency trade-off is exactly the
            // knob the paper's governor controls).
            let mut verify = CollisionChecker::new(map.clone(), 0.45, 0.5);
            prop_assert!(verify.path_free(&result.path), "planned path collides");
            // Cost equals the path length.
            let length: f64 = result.path.windows(2).map(|w| w[0].distance(w[1])).sum();
            prop_assert!((length - result.cost).abs() < 1e-6);
        }
    }

    #[test]
    fn rrt_volume_monitor_never_exceeded_by_much(seed in 0u64..32, budget in 100.0f64..50_000.0) {
        let map = wall_map(5.0, 8.0);
        let mut checker = CollisionChecker::new(map, 0.45, 0.5);
        let planner = RrtStar::new(RrtConfig {
            seed,
            max_explored_volume: budget,
            max_samples: 500,
            ..RrtConfig::default()
        });
        let bounds = Aabb::new(Vec3::new(-5.0, -30.0, 1.0), Vec3::new(45.0, 30.0, 11.0));
        let result = planner.plan(
            &mut checker,
            Vec3::new(0.0, 0.0, 5.0),
            Vec3::new(40.0, 0.0, 5.0),
            &bounds,
        );
        // The monitor stops growth one step after the budget is crossed, so
        // the final explored volume can only exceed it by a bounded margin
        // (the bounds' volume is the absolute cap).
        if result.volume_capped {
            prop_assert!(result.explored_volume <= bounds.volume() + 1e-6);
        }
    }

    #[test]
    fn trajectory_construction_rejects_time_regressions(times in prop::collection::vec(0.0f64..100.0, 2..10)) {
        let sorted = {
            let mut t = times.clone();
            t.sort_by(|a, b| a.partial_cmp(b).unwrap());
            t
        };
        let points: Vec<TrajectoryPoint> = sorted
            .iter()
            .map(|&t| TrajectoryPoint { time: t, position: Vec3::new(t, 0.0, 5.0), speed: 1.0 })
            .collect();
        // Sorted times always construct fine.
        let traj = Trajectory::new(points);
        prop_assert!(traj.duration() >= 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Conformance for the incremental broad phase: a random
    /// sequence of `PlannerMap` delta applications (growing scans, with a
    /// retain-radius contraction on alternate steps so blocks empty and
    /// later refill) must leave the refreshed cover containing a
    /// from-scratch rebuild's after every step, equal to it while nothing
    /// was removed, never beyond the cover of every export seen so far,
    /// and exact on every probe query.
    #[test]
    fn incremental_broad_phase_matches_rebuild_after_every_delta(
        scans in prop::collection::vec(
            prop::collection::vec(
                ((-20.0f64..20.0), (-20.0f64..20.0), (0.0f64..12.0))
                    .prop_map(|(x, y, z)| Vec3::new(x, y, z)),
                1..40,
            ),
            1..8,
        ),
        retain_radius in 8.0f64..30.0,
        margin in 0.1f64..1.2,
    ) {
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let mut map = OccupancyMap::new(0.5);
        let mut patched: Option<CollisionChecker> = None;
        let mut seen: Vec<VoxelKey> = Vec::new();
        let mut removed_any = false;
        let n_scans = scans.len();
        for (i, scan) in scans.into_iter().enumerate() {
            map.integrate_cloud(&PointCloud::new(origin, scan), 0.5);
            if i % 2 == 1 || i + 1 == n_scans {
                // Alternate steps (and the final one) also remove keys,
                // exercising the removal side of the refresh between
                // additions.
                map.retain_within(origin, retain_radius);
            }
            let export = PlannerMap::export(&map, &ExportConfig::new(0.5, 1e9, origin));
            seen.extend(export.occupied_keys());
            match patched.as_mut() {
                Some(checker) => {
                    removed_any |= !export.delta_from(checker.map()).unwrap().removed().is_empty();
                    checker.update_map(export.clone());
                }
                None => {
                    let mut checker = CollisionChecker::new(export.clone(), margin, 0.5);
                    checker.prebuild_broad_phase();
                    patched = Some(checker);
                }
            }
            let patched = patched.as_mut().unwrap();
            let mut rebuilt = CollisionChecker::new(export.clone(), margin, 0.5);
            rebuilt.prebuild_broad_phase();
            let (cover, exact) = (
                patched.broad_phase_cells().unwrap(),
                rebuilt.broad_phase_cells().unwrap(),
            );
            if removed_any {
                let everything = PlannerMap::from_keys(0.5, origin, seen.iter().copied());
                let mut bound = CollisionChecker::new(everything, margin, 0.5);
                bound.prebuild_broad_phase();
                let bound = bound.broad_phase_cells().unwrap();
                for cell in &exact {
                    prop_assert!(cover.binary_search(cell).is_ok(), "{:?} lost at step {}", cell, i);
                }
                for cell in &cover {
                    prop_assert!(bound.binary_search(cell).is_ok(), "{:?} invented at step {}", cell, i);
                }
            } else {
                prop_assert_eq!(&cover, &exact, "cover diverged after delta step {}", i);
            }
            // Probes at random and just inside / outside the margin of a
            // few exported boxes, where covered and uncovered cells meet.
            let mut probes = roborun_conformance::boundary_probes(i as u64, 0.5);
            let few_boxes: Vec<Aabb> =
                export.occupied_keys().take(6).map(|k| export.key_box(k)).collect();
            for b in &few_boxes {
                for d in [margin - 0.01, margin + 0.01, margin + 0.3] {
                    probes.push(Vec3::new(b.max.x + d, b.center().y, b.center().z));
                    probes.push(b.min - Vec3::splat(d / 3f64.sqrt()));
                }
            }
            for q in probes {
                prop_assert_eq!(
                    patched.point_free(q),
                    point_free_reference(&export, q, margin),
                    "patched query diverged at {} after step {}",
                    q,
                    i
                );
            }
            // Segments along y and z past those boxes cross bricks while
            // their other coordinates stay put; every sample must match.
            for b in &few_boxes {
                for d in [margin - 0.01, margin + 0.3] {
                    let a = Vec3::new(b.max.x + d, b.center().y - 6.0, b.center().z);
                    for end in [a + Vec3::new(0.0, 12.0, 0.0), a + Vec3::new(0.0, 6.0, 6.0)] {
                        let steps = (a.distance(end) / 0.5).ceil() as usize;
                        let reference = (0..=steps).all(|k| {
                            let q = a.lerp(end, k as f64 / steps as f64);
                            point_free_reference(&export, q, margin)
                        });
                        prop_assert_eq!(patched.segment_free(a, end), reference);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The broad phase never drops a point it must answer: every point
    /// within `margin` of an exported box lies in a covered cell (and is
    /// reported blocked). Keys straddle block edges on both sides of zero,
    /// and margins reach 2.5 m at 0.3 m voxels, where the cover spans more
    /// than eight cells and crosses two blocks per axis.
    #[test]
    fn every_point_within_the_margin_of_a_box_is_covered(
        keys in prop::collection::vec((-20i64..20, -20i64..20, -20i64..20), 1..30),
        probes in prop::collection::vec(
            (0usize..30, (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), (-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0), 0.0f64..1.0),
            1..40,
        ),
        margin in 0.0f64..2.5,
    ) {
        let voxel = 0.3;
        let map = PlannerMap::from_keys(
            voxel,
            Vec3::ZERO,
            keys.iter().map(|&(x, y, z)| VoxelKey { x, y, z }),
        );
        // The drawn margin and one whose reach (9 cells) always crosses
        // two blocks.
        for margin in [margin, 2.49] {
            let mut checker = CollisionChecker::new(map.clone(), margin, voxel);
            checker.prebuild_broad_phase();
            let cells = checker.broad_phase_cells().unwrap();
            for &(k, (u, v, w), (dx, dy, dz), f) in &probes {
                let (x, y, z) = keys[k % keys.len()];
                let b = map.key_box(VoxelKey { x, y, z });
                let inside = b.min + Vec3::new(u, v, w) * voxel;
                // Stay a hair inside the margin so rounding cannot carry
                // the point out of it.
                let offset = margin * f * (1.0 - 1e-9);
                let p = Vec3::new(dx, dy, dz)
                    .try_normalize()
                    .map_or(inside, |dir| inside + dir * offset);
                let cell = VoxelKey::from_point(p, voxel);
                prop_assert!(cells.binary_search(&cell).is_ok(), "{} ({:?}) not covered", p, cell);
                prop_assert!(!checker.point_free(p), "{} within {} of a box reported free", p, margin);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Satellite conformance for the hazard walkers: a polyline with
    /// repeated/coincident waypoints must answer the same boolean as the
    /// plain polyline on every walker — degenerate zero-length segments
    /// may never skip an endpoint check. Exercises the static checker
    /// (`path_free`), the predicted-hazard walk and the peer
    /// swept-trajectory walk on the same duplicated input.
    #[test]
    fn duplicate_point_polylines_keep_endpoint_coverage(
        waypoints in arb_waypoints(),
        dup_mask in prop::collection::vec(0usize..3, 2..8),
        gap_center in -10.0f64..10.0,
    ) {
        let map = wall_map(gap_center - 2.0, gap_center + 2.0);
        let mut dup = Vec::new();
        for (i, p) in waypoints.iter().enumerate() {
            let copies = 1 + dup_mask[i % dup_mask.len()];
            for _ in 0..copies {
                dup.push(*p);
            }
        }

        // Static checker: the duplicated polyline visits the same points.
        let mut plain = CollisionChecker::new(map.clone(), 0.45, 0.5);
        let mut dupped = CollisionChecker::new(map.clone(), 0.45, 0.5);
        prop_assert_eq!(plain.path_free(&waypoints), dupped.path_free(&dup));
        // A zero-length segment is exactly the endpoint's point query.
        for &p in &waypoints {
            let mut a = CollisionChecker::new(map.clone(), 0.45, 0.5);
            let mut b = CollisionChecker::new(map.clone(), 0.45, 0.5);
            prop_assert_eq!(a.segment_free(p, p), b.point_free(p));
        }

        // Predicted-hazard and posterior polyline walks.
        let boxes: Vec<Aabb> = map.occupied_keys().map(|k| map.key_box(k)).collect();
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let hazards = PredictedHazards::new(boxes.clone(), 0.45, origin, 1e9);
        prop_assert_eq!(
            hazards.path_clear(waypoints.iter().copied()),
            hazards.path_clear(dup.iter().copied())
        );
        prop_assert_eq!(
            polyline_clear_of_boxes(waypoints.iter().copied(), &boxes, 0.45, origin, 1e9),
            polyline_clear_of_boxes(dup.iter().copied(), &boxes, 0.45, origin, 1e9)
        );

        // Peer swept-trajectory source: a degenerate segment query equals
        // the endpoint's point query, and a duplicated peer polyline
        // sweeps the same corridor as the plain one.
        let mut peers = PeerTrajectoryHazard::new(0.45, 0.3);
        peers.set_peer(0, &waypoints);
        let mut peers_dup = PeerTrajectoryHazard::new(0.45, 0.3);
        peers_dup.set_peer(0, &dup);
        for q in roborun_conformance::boundary_probes(7, 0.5) {
            prop_assert_eq!(peers.point_blocked(q), peers_dup.point_blocked(q));
        }
        let p = waypoints[0];
        let free_seg = HazardSource::segment_free(&mut peers, p, p);
        let free_pt = HazardSource::point_free(&mut peers, p);
        prop_assert_eq!(free_seg, free_pt);
    }
}
