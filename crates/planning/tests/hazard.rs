//! Hazard-context conformance: the composed context must degenerate
//! bit-identically to the bare static checker when the predicted set is
//! empty, and must route around predicted lanes in one shot where the
//! reject-loop would have vetoed the static-only plan.

use roborun_conformance::predicted_lane_scenarios;
use roborun_geom::{SplitMix64, Vec3};
use roborun_perception::{ExportConfig, OccupancyMap, PlannerMap, PointCloud};
use roborun_planning::{
    polyline_clear_of_boxes, CollisionChecker, HazardContext, Planner, PlannerConfig,
    PredictedHazards, RrtConfig, RrtStar, SamplingMix,
};

const CLEARANCE: f64 = 0.45 * 0.6;

/// A static map with a small blob off the corridor axis, so static and
/// predicted hazards both participate in the searches.
fn static_map() -> PlannerMap {
    let mut map = OccupancyMap::new(0.5);
    let origin = Vec3::new(0.0, 0.0, 5.0);
    let points: Vec<Vec3> = (-4..=4)
        .flat_map(|y| (0..12).map(move |z| Vec3::new(8.0, 6.0 + y as f64 * 0.5, z as f64 * 0.5)))
        .collect();
    map.integrate_cloud(&PointCloud::new(origin, points), 1.0);
    PlannerMap::export(&map, &ExportConfig::new(0.5, 1e9, origin))
}

fn planner(seed: u64) -> Planner {
    Planner::new(PlannerConfig {
        rrt: RrtConfig {
            seed,
            ..RrtConfig::default()
        },
        ..PlannerConfig::default()
    })
}

#[test]
fn empty_predicted_set_is_bit_identical_to_the_bare_checker() {
    let map = static_map();
    for seed in 0..4 {
        for scenario in predicted_lane_scenarios(seed) {
            let empty = PredictedHazards::empty();
            let mut bare = CollisionChecker::new(map.clone(), 0.45, 0.3);
            let mut inner = CollisionChecker::new(map.clone(), 0.45, 0.3);
            let mut composed = HazardContext::new(&mut inner, &empty);
            let p = planner(seed);
            let direct = p.plan_with_checker(
                &mut bare,
                scenario.start,
                scenario.goal,
                &scenario.bounds,
                3.0,
            );
            let through_context = p.plan_with_checker(
                &mut composed,
                scenario.start,
                scenario.goal,
                &scenario.bounds,
                3.0,
            );
            match (&direct, &through_context) {
                (Ok((a, sa)), Ok((b, sb))) => {
                    assert_eq!(a.points(), b.points(), "{} seed {seed}", scenario.name);
                    assert_eq!(sa, sb, "{} seed {seed}", scenario.name);
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                _ => panic!("{} seed {seed}: outcomes diverged", scenario.name),
            }
            assert_eq!(
                bare.queries(),
                inner.queries(),
                "{} seed {seed}: query counts diverged",
                scenario.name
            );
        }
    }
}

#[test]
fn composed_context_routes_around_lanes_in_one_shot() {
    let map = static_map();
    let mut reject_loop_would_fire = 0usize;
    for seed in 0..4 {
        for scenario in predicted_lane_scenarios(seed) {
            if scenario.lanes.is_empty() {
                continue;
            }
            let hazards =
                PredictedHazards::new(scenario.lanes.clone(), CLEARANCE, scenario.start, 1e9);
            let mut inner = CollisionChecker::new(map.clone(), 0.45, 0.3);
            let mut composed = HazardContext::new(&mut inner, &hazards);
            let (trajectory, _stats) = planner(seed)
                .plan_with_checker(
                    &mut composed,
                    scenario.start,
                    scenario.goal,
                    &scenario.bounds,
                    3.0,
                )
                .unwrap_or_else(|e| {
                    panic!("{} seed {seed}: one-shot plan failed: {e}", scenario.name)
                });
            // The one-shot plan's waypoints clear every lane — the
            // posterior veto (what the reject-loop converges by) passes
            // immediately. The smoothed trajectory is allowed to graze
            // (that is exactly why the posterior check is retained in
            // the mission cycle), but its *waypoint* polyline may not
            // cross a lane interior.
            assert!(
                polyline_clear_of_boxes(
                    trajectory.points().iter().map(|p| p.position),
                    &scenario.lanes,
                    0.0,
                    scenario.start,
                    1e9,
                ),
                "{} seed {seed}: one-shot trajectory crosses a lane",
                scenario.name
            );

            // The static-only plan of the same decision: where it crosses
            // a lane, the reject-loop would have vetoed it and retried —
            // the work the composed context saves.
            let mut bare = CollisionChecker::new(map.clone(), 0.45, 0.3);
            if let Ok((static_traj, _)) = planner(seed).plan_with_checker(
                &mut bare,
                scenario.start,
                scenario.goal,
                &scenario.bounds,
                3.0,
            ) {
                if !polyline_clear_of_boxes(
                    static_traj.points().iter().map(|p| p.position),
                    &scenario.lanes,
                    CLEARANCE,
                    scenario.start,
                    1e9,
                ) {
                    reject_loop_would_fire += 1;
                }
            }
        }
    }
    assert!(
        reject_loop_would_fire > 0,
        "no scenario ever made the reject-loop fire — the comparison is vacuous"
    );
}

/// The lane-heavy one-shot fixture of the kernel-scaling benches: a wall
/// at x = 20 with one gap at y ∈ [4, 9], and a predicted lane just past
/// it that soft-blocks the straight exit, forcing a southern dip.
fn lane_fixture() -> (
    PlannerMap,
    Vec<roborun_geom::Aabb>,
    Vec3,
    Vec3,
    roborun_geom::Aabb,
) {
    let mut map = OccupancyMap::new(0.5);
    let origin = Vec3::new(0.0, 0.0, 5.0);
    let mut points = Vec::new();
    for yi in -60..=60 {
        let y = yi as f64 * 0.5;
        if (4.0..=9.0).contains(&y) {
            continue;
        }
        for zi in 0..24 {
            points.push(Vec3::new(20.0, y, zi as f64 * 0.5));
        }
    }
    map.integrate_cloud(&PointCloud::new(origin, points), 1.0);
    let pm = PlannerMap::export(&map, &ExportConfig::new(0.5, 1e9, origin));
    let lanes = vec![roborun_geom::Aabb::new(
        Vec3::new(26.0, 2.0, 0.0),
        Vec3::new(29.0, 25.0, 12.0),
    )];
    let start = Vec3::new(0.0, 0.0, 5.0);
    let goal = Vec3::new(40.0, 0.0, 5.0);
    let bounds = roborun_geom::Aabb::new(Vec3::new(-5.0, -25.0, 1.0), Vec3::new(45.0, 25.0, 12.0));
    (pm, lanes, start, goal, bounds)
}

fn biased_mix() -> SamplingMix {
    SamplingMix {
        enabled: true,
        ..SamplingMix::default()
    }
}

#[test]
#[ignore = "tuning probe, run with --ignored --nocapture"]
fn sampler_ladder_probe() {
    let (map, lanes, start, goal, bounds) = lane_fixture();
    let ladder = [25usize, 50, 100, 200, 400, 800, 1600, 3200, 6400];
    let samples_to_solution = |seed: u64, mix: SamplingMix| -> usize {
        ladder
            .iter()
            .copied()
            .find(|&n| {
                let planner = RrtStar::new(RrtConfig {
                    seed,
                    max_samples: n,
                    sampling_mix: mix,
                    ..RrtConfig::default()
                });
                let hazards = PredictedHazards::new(lanes.clone(), CLEARANCE, start, 1e9);
                let mut checker = CollisionChecker::new(map.clone(), 0.45, 0.3);
                let mut ctx = HazardContext::new(&mut checker, &hazards);
                planner.plan(&mut ctx, start, goal, &bounds).found()
            })
            .unwrap_or(99_999)
    };
    let variants = [
        ("g.15/gap.45/r8", 0.15, 0.45, 8.0),
        ("g.15/gap.55/r8", 0.15, 0.55, 8.0),
        ("g.10/gap.45/r12", 0.10, 0.45, 12.0),
        ("g.20/gap.35/r8", 0.20, 0.35, 8.0),
        ("g.25/gap.50/r10", 0.25, 0.50, 10.0),
    ];
    let mut uniform: Vec<usize> = Vec::new();
    for seed in 0..8 {
        uniform.push(samples_to_solution(seed, SamplingMix::default()));
    }
    let ut: usize = uniform.iter().sum();
    println!("uniform per-seed {uniform:?} total {ut}");
    for (name, gw, gapw, r) in variants {
        let mix = SamplingMix {
            enabled: true,
            goal_region_weight: gw,
            gap_weight: gapw,
            goal_region_radius: r,
        };
        let per: Vec<usize> = (0..8).map(|s| samples_to_solution(s, mix)).collect();
        let bt: usize = per.iter().sum();
        println!(
            "{name}: per-seed {per:?} total {bt} ratio {:.2}",
            ut as f64 / bt as f64
        );
    }
}

#[test]
fn biased_sampling_cuts_samples_to_solution_on_the_lane_fixture() {
    // The regression the sampling mix is sold on: on the lane-heavy
    // fixture, routing proposals into goal- and gap-regions must at
    // least halve the samples the search needs before it first connects
    // the goal (the search itself never stops early, so "samples to
    // solution" is the smallest max_samples rung that yields a path).
    let (map, lanes, start, goal, bounds) = lane_fixture();
    let ladder = [25usize, 50, 100, 200, 400, 800, 1600, 3200, 6400];
    let samples_to_solution = |seed: u64, mix: SamplingMix| -> usize {
        ladder
            .iter()
            .copied()
            .find(|&n| {
                let planner = RrtStar::new(RrtConfig {
                    seed,
                    max_samples: n,
                    sampling_mix: mix,
                    ..RrtConfig::default()
                });
                let hazards = PredictedHazards::new(lanes.clone(), CLEARANCE, start, 1e9);
                let mut checker = CollisionChecker::new(map.clone(), 0.45, 0.3);
                let mut ctx = HazardContext::new(&mut checker, &hazards);
                planner.plan(&mut ctx, start, goal, &bounds).found()
            })
            .unwrap_or_else(|| panic!("seed {seed}: no path at any ladder rung"))
    };
    let mut uniform_total = 0usize;
    let mut biased_total = 0usize;
    for seed in 0..4 {
        let uniform = samples_to_solution(seed, SamplingMix::default());
        let biased = samples_to_solution(seed, biased_mix());
        assert!(
            biased <= uniform,
            "seed {seed}: biased needed {biased} samples, uniform {uniform}"
        );
        uniform_total += uniform;
        biased_total += biased;
    }
    assert!(
        uniform_total >= 2 * biased_total,
        "sample reduction below 2x: uniform {uniform_total}, biased {biased_total}"
    );
}

#[test]
fn biased_sampling_keeps_path_cost_competitive() {
    // The bias is a proposal distribution, not a heuristic cost term:
    // at a generous sample budget the biased search must find the goal
    // on every seed and land within a bounded ratio of the uniform
    // path cost (it routinely lands *under* it — the gap regions focus
    // refinement where the detour lives).
    let (map, lanes, start, goal, bounds) = lane_fixture();
    for seed in 0..4 {
        let plan = |mix: SamplingMix| {
            let planner = RrtStar::new(RrtConfig {
                seed,
                max_samples: 2_000,
                sampling_mix: mix,
                ..RrtConfig::default()
            });
            let hazards = PredictedHazards::new(lanes.clone(), CLEARANCE, start, 1e9);
            let mut checker = CollisionChecker::new(map.clone(), 0.45, 0.3);
            let mut ctx = HazardContext::new(&mut checker, &hazards);
            planner.plan(&mut ctx, start, goal, &bounds)
        };
        let uniform = plan(SamplingMix::default());
        let biased = plan(biased_mix());
        assert!(biased.found(), "seed {seed}: biased search found no path");
        assert!(
            polyline_clear_of_boxes(biased.path.iter().copied(), &lanes, 0.0, start, 1e9),
            "seed {seed}: biased path crosses a lane interior"
        );
        if uniform.found() {
            assert!(
                biased.cost <= uniform.cost * 1.25,
                "seed {seed}: biased cost {:.2} vs uniform {:.2}",
                biased.cost,
                uniform.cost
            );
        }
    }
}

#[test]
fn retargeted_hazards_answer_like_fresh_ones_under_load() {
    // Mission-shaped churn: boxes drift a little every "decision", the
    // origin advances, and the grid-backed source must keep answering
    // exactly like a from-scratch build (the incremental-patch mirror of
    // the collision checker's delta conformance test).
    let mut rng = SplitMix64::new(0xCAFE);
    let mut boxes: Vec<roborun_geom::Aabb> = (0..24)
        .map(|_| {
            roborun_geom::Aabb::from_center_half_extents(
                Vec3::new(
                    rng.uniform(0.0, 40.0),
                    rng.uniform(-20.0, 20.0),
                    rng.uniform(2.0, 8.0),
                ),
                Vec3::splat(rng.uniform(0.5, 2.0)),
            )
        })
        .collect();
    let mut patched = PredictedHazards::new(boxes.clone(), CLEARANCE, Vec3::ZERO, 50.0);
    for decision in 0..20 {
        for b in boxes.iter_mut() {
            if rng.uniform(0.0, 1.0) < 0.4 {
                let shift = Vec3::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), 0.0);
                *b = roborun_geom::Aabb::new(b.min + shift, b.max + shift);
            }
        }
        let origin = Vec3::new(decision as f64 * 2.0, 0.0, 5.0);
        patched.retarget(&boxes, origin, 50.0);
        let fresh = PredictedHazards::new(boxes.clone(), CLEARANCE, origin, 50.0);
        assert_eq!(
            patched.grid_cells(),
            fresh.grid_cells(),
            "decision {decision}"
        );
        for _ in 0..200 {
            let p = Vec3::new(
                rng.uniform(-5.0, 45.0),
                rng.uniform(-25.0, 25.0),
                rng.uniform(0.0, 10.0),
            );
            assert_eq!(
                patched.point_blocked(p),
                fresh.point_blocked(p),
                "decision {decision} probe {p}"
            );
        }
    }
}

/// Bit-exact fingerprint of one search: waypoint count, an FNV-1a digest
/// of every waypoint coordinate's `to_bits`, the cost's `to_bits`, the
/// sample / tree / rewire counters and the collision queries spent.
fn search_pin(result: &roborun_planning::RrtResult, queries: usize) -> [u64; 7] {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for p in &result.path {
        for bits in [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()] {
            digest = (digest ^ bits).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    [
        result.path.len() as u64,
        digest,
        result.cost.to_bits(),
        result.samples_drawn as u64,
        result.tree_size as u64,
        result.rewires as u64,
        queries as u64,
    ]
}

#[test]
fn rrt_search_is_pinned_on_the_gap_wall_fixture() {
    // The default search path, recorded bit for bit: any extra RNG draw,
    // reordered neighbour answer or skipped collision query in the
    // sampling loop changes one of these fingerprints. Each seed runs
    // against the lane fixture's gap wall three ways: the bare checker,
    // the composed context with the uniform sampler, and the composed
    // context with the sampling mix biased by the lane box. The budget
    // is the mission planner's (`cycle::planner_for`).
    #[derive(Clone, Copy, Debug)]
    enum Run {
        Bare,
        Uniform,
        Mixed,
    }
    #[rustfmt::skip]
    const PINNED: [(u64, Run, [u64; 7]); 9] = [
        (1, Run::Bare, [9, 10892540326747991488, 4631094171727193632, 900, 850, 1043, 78941]),
        (1, Run::Uniform, [9, 11882922428639462018, 4631501913529733524, 900, 596, 481, 54507]),
        (1, Run::Mixed, [7, 917186041966453849, 4631131290171588629, 900, 835, 2213, 370817]),
        (2, Run::Bare, [7, 6050002087062523957, 4631034519715960384, 900, 874, 1204, 89924]),
        (2, Run::Uniform, [8, 14643481025549107460, 4631450147453526695, 900, 584, 675, 70875]),
        (2, Run::Mixed, [9, 13056429529907066152, 4631240817869246298, 900, 827, 2581, 436555]),
        (3, Run::Bare, [7, 17586315258660233141, 4631090423676846715, 900, 858, 1358, 86765]),
        (3, Run::Uniform, [8, 7726338971037163255, 4631482128482099970, 900, 758, 582, 76673]),
        (3, Run::Mixed, [8, 3414244028819508272, 4631268446388872006, 900, 811, 1043, 349503]),
    ];
    let (map, lanes, start, goal, bounds) = lane_fixture();
    for (seed, run, expected) in PINNED {
        let planner = RrtStar::new(RrtConfig {
            seed,
            max_samples: 900,
            sampling_mix: match run {
                Run::Mixed => biased_mix(),
                Run::Bare | Run::Uniform => SamplingMix::default(),
            },
            ..RrtConfig::default()
        });
        let hazards = PredictedHazards::new(lanes.clone(), CLEARANCE, start, 1e9);
        let mut checker = CollisionChecker::new(map.clone(), 0.45, 0.3);
        let result = match run {
            Run::Bare => planner.plan(&mut checker, start, goal, &bounds),
            Run::Uniform | Run::Mixed => {
                let mut ctx = HazardContext::new(&mut checker, &hazards);
                planner.plan(&mut ctx, start, goal, &bounds)
            }
        };
        assert!(result.found(), "seed {seed} {run:?}: no path");
        let pin = search_pin(&result, checker.queries());
        assert_eq!(pin, expected, "seed {seed} {run:?}");
    }
}
