//! Deterministic random sampling helpers.
//!
//! The environment generator and the RRT* planner both need reproducible
//! pseudo-random numbers. Rather than threading a `rand` RNG (whose stream
//! can change across versions) through library code, we use a small,
//! self-contained SplitMix64 generator with explicit seeds, plus the
//! Box–Muller transform for the Gaussian congestion clusters the paper's
//! environment generator uses.

use crate::{Aabb, Vec3};
use serde::{Deserialize, Serialize};

/// SplitMix64 pseudo-random number generator.
///
/// Small, fast, and statistically good enough for procedural environment
/// generation and stochastic planning. Every experiment in the workspace
/// takes an explicit `u64` seed, making runs reproducible bit-for-bit.
///
/// # Example
///
/// ```
/// use roborun_geom::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform double in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 bits of mantissa.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform double in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform range inverted: [{lo}, {hi})");
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform_usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "uniform_usize requires n > 0");
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Standard normal sample via the Box–Muller transform.
    pub fn gaussian(&mut self) -> f64 {
        // Avoid log(0).
        let u1 = self.next_f64().max(1e-300);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev < 0`.
    pub fn gaussian_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        mean + std_dev * self.gaussian()
    }

    /// Uniform point inside an axis-aligned box.
    #[inline]
    pub fn point_in_aabb(&mut self, aabb: &Aabb) -> Vec3 {
        Vec3::new(
            self.uniform(aabb.min.x, aabb.max.x),
            self.uniform(aabb.min.y, aabb.max.y),
            self.uniform(aabb.min.z, aabb.max.z),
        )
    }

    /// Gaussian-distributed point around `center` with per-axis standard
    /// deviation `spread` — how the paper's environment generator scatters
    /// obstacles around congestion-cluster centres.
    pub fn point_around(&mut self, center: Vec3, spread: Vec3) -> Vec3 {
        Vec3::new(
            self.gaussian_with(center.x, spread.x.max(0.0)),
            self.gaussian_with(center.y, spread.y.max(0.0)),
            self.gaussian_with(center.z, spread.z.max(0.0)),
        )
    }

    /// Derives an independent generator (e.g. one per congestion cluster)
    /// from this one.
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(8);
        assert_ne!(SplitMix64::new(7).next_u64(), c.next_u64());
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..1000 {
            let x = rng.uniform(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&x));
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
            let i = rng.uniform_usize(10);
            assert!(i < 10);
        }
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn uniform_inverted_range_panics() {
        let _ = SplitMix64::new(0).uniform(1.0, 0.0);
    }

    #[test]
    fn uniform_mean_is_centered() {
        let mut rng = SplitMix64::new(1234);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SplitMix64::new(99);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian_with(2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.08, "mean {mean}");
        assert!((var - 9.0).abs() < 0.4, "var {var}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SplitMix64::new(3);
        assert!((0..100).all(|_| rng.chance(1.5)));
        assert!((0..100).all(|_| !rng.chance(-0.5)));
    }

    #[test]
    fn point_in_aabb_contained() {
        let mut rng = SplitMix64::new(5);
        let b = Aabb::new(Vec3::new(-10.0, 0.0, 2.0), Vec3::new(10.0, 40.0, 12.0));
        for _ in 0..500 {
            assert!(b.contains(rng.point_in_aabb(&b)));
        }
    }

    #[test]
    fn point_around_spreads_with_sigma() {
        let mut rng = SplitMix64::new(77);
        let center = Vec3::new(100.0, 50.0, 5.0);
        let tight: Vec<Vec3> = (0..2000)
            .map(|_| rng.point_around(center, Vec3::splat(1.0)))
            .collect();
        let wide: Vec<Vec3> = (0..2000)
            .map(|_| rng.point_around(center, Vec3::splat(10.0)))
            .collect();
        let spread =
            |pts: &[Vec3]| pts.iter().map(|p| p.distance(center)).sum::<f64>() / pts.len() as f64;
        assert!(spread(&wide) > 4.0 * spread(&tight));
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = SplitMix64::new(11);
        let mut child = parent.fork();
        // The parent stream after forking differs from the child stream.
        let parent_next: Vec<u64> = (0..5).map(|_| parent.next_u64()).collect();
        let child_next: Vec<u64> = (0..5).map(|_| child.next_u64()).collect();
        assert_ne!(parent_next, child_next);
    }
}
