//! Property-based tests for the geometry primitives.

use proptest::prelude::*;
use roborun_geom::{
    ceil_steps, floor_i64, percentile, precision_lattice, snap_to_lattice, Aabb, Aabb4, Aabb8,
    Polynomial, Pose, Ray, RunningStats, SplitMix64, Vec3, VoxelKey,
};

fn finite_coord() -> impl Strategy<Value = f64> {
    -1.0e3..1.0e3
}

fn arb_vec3() -> impl Strategy<Value = Vec3> {
    (finite_coord(), finite_coord(), finite_coord()).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn arb_aabb() -> impl Strategy<Value = Aabb> {
    (arb_vec3(), arb_vec3()).prop_map(|(a, b)| Aabb::new(a, b))
}

proptest! {
    #[test]
    fn vec3_add_commutes(a in arb_vec3(), b in arb_vec3()) {
        let lhs = a + b;
        let rhs = b + a;
        prop_assert!((lhs - rhs).norm() < 1e-9);
    }

    #[test]
    fn vec3_norm_triangle_inequality(a in arb_vec3(), b in arb_vec3()) {
        prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9);
    }

    #[test]
    fn vec3_lerp_stays_on_segment(a in arb_vec3(), b in arb_vec3(), t in 0.0f64..1.0) {
        let p = a.lerp(b, t);
        let seg = a.distance(b);
        prop_assert!(a.distance(p) <= seg + 1e-6);
        prop_assert!(b.distance(p) <= seg + 1e-6);
    }

    #[test]
    fn aabb_contains_its_center_and_corners(aabb in arb_aabb()) {
        prop_assert!(aabb.contains(aabb.center()));
        for c in aabb.corners() {
            prop_assert!(aabb.contains(c));
        }
    }

    #[test]
    fn aabb_union_contains_both(a in arb_aabb(), b in arb_aabb()) {
        let u = Aabb::union(&a, &b);
        prop_assert!(u.contains_aabb(&a));
        prop_assert!(u.contains_aabb(&b));
    }

    #[test]
    fn aabb_intersection_within_both(a in arb_aabb(), b in arb_aabb()) {
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains_aabb(&i));
            prop_assert!(b.contains_aabb(&i));
            prop_assert!(i.volume() <= a.volume() + 1e-9);
            prop_assert!(i.volume() <= b.volume() + 1e-9);
        }
    }

    #[test]
    fn ray_hit_points_lie_in_box(origin in arb_vec3(), dir in arb_vec3(), aabb in arb_aabb()) {
        prop_assume!(dir.norm() > 1e-6);
        let ray = Ray::new(origin, dir);
        if let Some(hit) = ray.intersect_aabb(&aabb) {
            prop_assert!(hit.t_min <= hit.t_max + 1e-9);
            // Entry and exit points are on/in the box (allow small tolerance).
            let grown = aabb.inflate(1e-6);
            prop_assert!(grown.contains(ray.at(hit.t_min)));
            prop_assert!(grown.contains(ray.at(hit.t_max)));
        }
    }

    #[test]
    fn batched_aabb4_slab_test_is_bit_identical_to_scalar(
        origin in arb_vec3(),
        dir in arb_vec3(),
        boxes in prop::collection::vec(arb_aabb(), 0..5),
    ) {
        prop_assume!(dir.norm() > 1e-6);
        // Axis-aligned (slab-parallel) directions are exercised too: zero
        // out components sometimes by snapping tiny ones.
        let ray = Ray::new(origin, dir);
        let pack = Aabb4::pack(&boxes);
        let batched = ray.intersect_aabb4(&pack);
        for (lane, b) in boxes.iter().enumerate() {
            let scalar = ray.intersect_aabb(b);
            prop_assert_eq!(
                batched[lane].map(|h| (h.t_min.to_bits(), h.t_max.to_bits())),
                scalar.map(|h| (h.t_min.to_bits(), h.t_max.to_bits())),
                "lane {} of {:?}", lane, b
            );
        }
        for (lane, result) in batched.iter().enumerate().skip(boxes.len()) {
            prop_assert!(result.is_none(), "padding lane {} hit", lane);
        }
    }

    #[test]
    fn batched_aabb4_axis_parallel_rays_match_scalar(
        origin in arb_vec3(),
        axis in 0usize..3,
        sign in any::<bool>(),
        boxes in prop::collection::vec(arb_aabb(), 1..5),
    ) {
        // Exactly axis-parallel rays drive the `d.abs() < 1e-12` slab
        // branch in every lane.
        let mut c = [0.0f64; 3];
        c[axis] = if sign { 1.0 } else { -1.0 };
        let ray = Ray::new(origin, Vec3::new(c[0], c[1], c[2]));
        let pack = Aabb4::pack(&boxes);
        let batched = ray.intersect_aabb4(&pack);
        for (lane, b) in boxes.iter().enumerate() {
            let scalar = ray.intersect_aabb(b);
            prop_assert_eq!(
                batched[lane].map(|h| (h.t_min.to_bits(), h.t_max.to_bits())),
                scalar.map(|h| (h.t_min.to_bits(), h.t_max.to_bits())),
                "lane {} of {:?}", lane, b
            );
        }
    }

    #[test]
    fn batched_aabb8_slab_test_is_bit_identical_to_scalar(
        origin in arb_vec3(),
        dir in arb_vec3(),
        boxes in prop::collection::vec(arb_aabb(), 0..9),
    ) {
        prop_assume!(dir.norm() > 1e-6);
        let ray = Ray::new(origin, dir);
        let pack = Aabb8::pack(&boxes);
        let batched = ray.intersect_aabb8(&pack);
        for (lane, b) in boxes.iter().enumerate() {
            let scalar = ray.intersect_aabb(b);
            prop_assert_eq!(
                batched[lane].map(|h| (h.t_min.to_bits(), h.t_max.to_bits())),
                scalar.map(|h| (h.t_min.to_bits(), h.t_max.to_bits())),
                "lane {} of {:?}", lane, b
            );
        }
        for (lane, result) in batched.iter().enumerate().skip(boxes.len()) {
            prop_assert!(result.is_none(), "padding lane {} hit", lane);
        }
    }

    #[test]
    fn batched_aabb8_axis_parallel_rays_match_scalar(
        origin in arb_vec3(),
        axis in 0usize..3,
        sign in any::<bool>(),
        boxes in prop::collection::vec(arb_aabb(), 1..9),
    ) {
        // Exactly axis-parallel rays drive the `d.abs() < 1e-12` slab
        // branch in every lane of the 8-wide kernel.
        let mut c = [0.0f64; 3];
        c[axis] = if sign { 1.0 } else { -1.0 };
        let ray = Ray::new(origin, Vec3::new(c[0], c[1], c[2]));
        let pack = Aabb8::pack(&boxes);
        let batched = ray.intersect_aabb8(&pack);
        for (lane, b) in boxes.iter().enumerate() {
            let scalar = ray.intersect_aabb(b);
            prop_assert_eq!(
                batched[lane].map(|h| (h.t_min.to_bits(), h.t_max.to_bits())),
                scalar.map(|h| (h.t_min.to_bits(), h.t_max.to_bits())),
                "lane {} of {:?}", lane, b
            );
        }
    }

    #[test]
    fn batched_aabb8_distance_is_bit_identical_to_scalar(
        p in arb_vec3(),
        boxes in prop::collection::vec(arb_aabb(), 0..9),
    ) {
        let pack = Aabb8::pack(&boxes);
        let d8 = pack.distance_to_point8(p);
        for (lane, b) in boxes.iter().enumerate() {
            prop_assert_eq!(
                d8[lane].to_bits(),
                b.distance_to_point(p).to_bits(),
                "lane {} of {:?}", lane, b
            );
        }
        for (lane, &d) in d8.iter().enumerate().skip(boxes.len()) {
            prop_assert_eq!(d, f64::INFINITY, "padding lane {} finite", lane);
        }
    }

    #[test]
    fn ray_march_points_are_ordered(origin in arb_vec3(), dir in arb_vec3(),
                                    step in 0.05f64..2.0, range in 0.0f64..50.0) {
        prop_assume!(dir.norm() > 1e-6);
        let ray = Ray::new(origin, dir);
        let pts: Vec<Vec3> = ray.march(step, range).collect();
        prop_assert!(!pts.is_empty());
        for w in pts.windows(2) {
            let d = w[0].distance(w[1]);
            prop_assert!((d - step).abs() < 1e-6);
        }
    }

    #[test]
    fn voxel_key_stable_within_voxel(p in arb_vec3(), size in 0.05f64..4.0) {
        let key = VoxelKey::from_point(p, size);
        let center = key.center(size);
        prop_assert_eq!(VoxelKey::from_point(center, size), key);
    }

    #[test]
    fn snap_is_idempotent_and_bounded(desired in 0.01f64..50.0) {
        let snapped = snap_to_lattice(desired, 0.3, 6);
        let again = snap_to_lattice(snapped, 0.3, 6);
        prop_assert!((snapped - again).abs() < 1e-12);
        let lattice = precision_lattice(0.3, 6);
        prop_assert!(snapped >= lattice[0] - 1e-12);
        prop_assert!(snapped <= *lattice.last().unwrap() + 1e-12);
    }

    #[test]
    fn running_stats_mean_between_min_max(xs in prop::collection::vec(-1e3f64..1e3, 1..200)) {
        let stats: RunningStats = xs.iter().copied().collect();
        prop_assert!(stats.mean() >= stats.min() - 1e-9);
        prop_assert!(stats.mean() <= stats.max() + 1e-9);
        prop_assert!(stats.variance() >= 0.0);
    }

    #[test]
    fn percentile_monotone_in_q(xs in prop::collection::vec(-1e3f64..1e3, 1..100),
                                q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let p_lo = percentile(&xs, lo).unwrap();
        let p_hi = percentile(&xs, hi).unwrap();
        prop_assert!(p_lo <= p_hi + 1e-9);
    }

    #[test]
    fn pose_roundtrip(p in arb_vec3(), yaw in -10.0f64..10.0, body in arb_vec3()) {
        let pose = Pose::new(p, yaw);
        let back = pose.world_to_body(pose.body_to_world(body));
        prop_assert!((back - body).norm() < 1e-6);
    }

    #[test]
    fn polynomial_derivative_linearity(c in prop::collection::vec(-10.0f64..10.0, 1..6), x in -3.0f64..3.0) {
        let p = Polynomial::new(c.clone());
        let q = Polynomial::new(c.iter().map(|v| v * 2.0).collect());
        // d/dx (2p) == 2 d/dx p
        let lhs = q.derivative().eval(x);
        let rhs = 2.0 * p.derivative().eval(x);
        prop_assert!((lhs - rhs).abs() < 1e-6);
    }

    /// The integer floor behind `VoxelKey::from_point` (and the walkers'
    /// integer step count) equals the float expressions everywhere:
    /// arbitrary bit patterns (NaN, ±inf, subnormals, huge magnitudes),
    /// integers scaled past 2^52 and 2^63, one ulp either side of each,
    /// and fractions around ±0.
    #[test]
    fn integer_floor_matches_the_float_floor(bits in any::<u64>(),
                                             n in -4_000_000i64..4_000_000,
                                             shift in 0i32..70,
                                             frac in -1.0f64..1.0) {
        let scaled = n as f64 * 2f64.powi(shift);
        let mut xs = vec![f64::from_bits(bits), frac, -frac, n as f64 + frac];
        for x in [n as f64, scaled, -scaled, 2f64.powi(63), -(2f64.powi(63))] {
            xs.extend([
                x,
                f64::from_bits(x.to_bits().wrapping_add(1)),
                f64::from_bits(x.to_bits().wrapping_sub(1)),
            ]);
        }
        for x in xs {
            prop_assert_eq!(floor_i64(x), x.floor() as i64, "floor of {:e}", x);
            prop_assert_eq!(ceil_steps(x), x.ceil().max(1.0) as usize, "ceil of {:e}", x);
        }
    }

    #[test]
    fn splitmix_uniform_bounds(seed in any::<u64>(), lo in -100.0f64..0.0, span in 0.001f64..100.0) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..32 {
            let x = rng.uniform(lo, lo + span);
            prop_assert!(x >= lo && x < lo + span);
        }
    }
}
