//! Procedural environment generation (the paper's environment generator).
//!
//! Section IV: "we developed an environment generator to systematically vary
//! space difficulty/heterogeneity. Our generator adjusts environment
//! difficulty with hyperparameters that change the number of congestion
//! clusters, obstacle density, and spread. [...] A Gaussian distribution
//! uses these parameters to generate 27 different environments".
//!
//! The generated world is a corridor along +X from the mission start to the
//! goal. Zones A (start) and C (end) carry Gaussian congestion clusters of
//! box obstacles; zone B is nearly free, emulating open sky between
//! warehouses. Obstacles are vertical pillars so the MAV cannot trivially
//! overfly them at its cruise altitude.

use crate::{DifficultyConfig, Obstacle, ObstacleField, Zone, ZoneLayout};
use roborun_geom::{Aabb, SplitMix64, Vec3};
use serde::{Deserialize, Serialize};

/// Tunable constants of the generator that are *not* part of the paper's
/// difficulty matrix (kept in one place so tests and docs can reference
/// them).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeneratorParams {
    /// Fraction of the corridor occupied by each congested zone.
    pub congested_fraction: f64,
    /// Cruise altitude of the MAV (metres above ground).
    pub cruise_altitude: f64,
    /// Lateral half-width of the mission corridor (metres).
    pub corridor_half_width: f64,
    /// Minimum obstacle half-extent in X/Y (metres).
    pub obstacle_half_extent_min: f64,
    /// Maximum obstacle half-extent in X/Y (metres).
    pub obstacle_half_extent_max: f64,
    /// Minimum obstacle (pillar) height (metres).
    pub obstacle_height_min: f64,
    /// Maximum obstacle (pillar) height (metres).
    pub obstacle_height_max: f64,
    /// Radius around the start and goal that is kept obstacle free.
    pub clearance_radius: f64,
    /// Obstacle count per congested zone per unit density at the reference
    /// spread (40 m); the count scales with `(spread / 40)²` so the peak
    /// areal density tracks the density knob independent of spread.
    pub obstacles_per_density: f64,
    /// Number of sparse obstacles scattered through zone B.
    pub zone_b_obstacles: usize,
    /// Number of congestion clusters per congested zone.
    pub clusters_per_zone: usize,
}

impl Default for GeneratorParams {
    fn default() -> Self {
        GeneratorParams {
            congested_fraction: 0.2,
            cruise_altitude: 5.0,
            corridor_half_width: 60.0,
            obstacle_half_extent_min: 1.0,
            obstacle_half_extent_max: 2.5,
            obstacle_height_min: 12.0,
            obstacle_height_max: 30.0,
            clearance_radius: 12.0,
            obstacles_per_density: 60.0,
            zone_b_obstacles: 4,
            clusters_per_zone: 2,
        }
    }
}

/// A fully generated mission environment.
///
/// Holds the ground-truth obstacle field, the mission endpoints, the zone
/// layout and the difficulty configuration that produced it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Environment {
    field: ObstacleField,
    difficulty: DifficultyConfig,
    params: GeneratorParams,
    layout: ZoneLayout,
    start: Vec3,
    goal: Vec3,
    bounds: Aabb,
    seed: u64,
}

impl Environment {
    /// Ground-truth obstacle field.
    pub fn field(&self) -> &ObstacleField {
        &self.field
    }

    /// Obstacles in the environment (shorthand for `field().obstacles()`).
    pub fn obstacles(&self) -> &[Obstacle] {
        self.field.obstacles()
    }

    /// Difficulty configuration used to generate this environment.
    pub fn difficulty(&self) -> DifficultyConfig {
        self.difficulty
    }

    /// Generator parameters used.
    pub fn params(&self) -> GeneratorParams {
        self.params
    }

    /// Mission start position (at cruise altitude).
    pub fn start(&self) -> Vec3 {
        self.start
    }

    /// Mission goal position (at cruise altitude).
    pub fn goal(&self) -> Vec3 {
        self.goal
    }

    /// Zone layout along the mission corridor.
    pub fn layout(&self) -> &ZoneLayout {
        &self.layout
    }

    /// Zone containing the given point.
    pub fn zone_at(&self, p: Vec3) -> Zone {
        self.layout.zone_at(p)
    }

    /// World bounds containing every obstacle, the start and the goal,
    /// with a safety margin — the region maps and planners operate in.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Seed the environment was generated with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Straight-line mission length.
    pub fn mission_length(&self) -> f64 {
        self.start.distance(self.goal)
    }
}

/// Generates [`Environment`]s from a [`DifficultyConfig`].
///
/// # Example
///
/// ```
/// use roborun_env::{DifficultyConfig, EnvironmentGenerator};
/// let gen = EnvironmentGenerator::new(DifficultyConfig::easy());
/// let a = gen.generate(7);
/// let b = gen.generate(7);
/// assert_eq!(a.obstacles().len(), b.obstacles().len()); // deterministic
/// ```
#[derive(Debug, Clone)]
pub struct EnvironmentGenerator {
    difficulty: DifficultyConfig,
    params: GeneratorParams,
}

impl EnvironmentGenerator {
    /// Creates a generator with default [`GeneratorParams`].
    ///
    /// # Panics
    ///
    /// Panics if the difficulty configuration is invalid
    /// (see [`DifficultyConfig::validate`]).
    pub fn new(difficulty: DifficultyConfig) -> Self {
        difficulty
            .validate()
            .expect("invalid difficulty configuration");
        EnvironmentGenerator {
            difficulty,
            params: GeneratorParams::default(),
        }
    }

    /// Overrides the generator parameters.
    pub fn with_params(mut self, params: GeneratorParams) -> Self {
        self.params = params;
        self
    }

    /// The difficulty this generator produces.
    pub fn difficulty(&self) -> DifficultyConfig {
        self.difficulty
    }

    /// Generates a deterministic environment for the given seed.
    pub fn generate(&self, seed: u64) -> Environment {
        let mut rng = SplitMix64::new(seed ^ SEED_SALT);
        let d = self.difficulty;
        let p = self.params;

        let layout = ZoneLayout::new(0.0, d.goal_distance, p.congested_fraction);
        let start = Vec3::new(0.0, 0.0, p.cruise_altitude);
        let goal = Vec3::new(d.goal_distance, 0.0, p.cruise_altitude);

        let mut obstacles = Vec::new();
        let mut next_id = 0u32;

        // Congested zones A and C.
        for zone in [Zone::A, Zone::C] {
            let (zone_lo, zone_hi) = layout.zone_range(zone);
            let zone_span = zone_hi - zone_lo;
            let spread_scale = (d.obstacle_spread / 40.0).powi(2);
            let count_per_cluster = ((d.obstacle_density * p.obstacles_per_density * spread_scale)
                / p.clusters_per_zone as f64)
                .round()
                .max(1.0) as usize;
            for cluster in 0..p.clusters_per_zone {
                let mut cluster_rng = rng.fork();
                // Spread cluster centres across the zone.
                let frac = (cluster as f64 + 0.5) / p.clusters_per_zone as f64;
                let center = Vec3::new(
                    zone_lo + frac * zone_span,
                    cluster_rng.uniform(-p.corridor_half_width * 0.4, p.corridor_half_width * 0.4),
                    0.0,
                );
                let sigma = d.obstacle_spread * 0.5;
                for _ in 0..count_per_cluster {
                    let c = cluster_rng.point_around(center, Vec3::new(sigma, sigma, 0.0));
                    let c = Vec3::new(
                        c.x.clamp(zone_lo, zone_hi),
                        c.y.clamp(-p.corridor_half_width, p.corridor_half_width),
                        0.0,
                    );
                    if c.horizontal_distance(start) < p.clearance_radius
                        || c.horizontal_distance(goal) < p.clearance_radius
                    {
                        continue;
                    }
                    let half_xy =
                        cluster_rng.uniform(p.obstacle_half_extent_min, p.obstacle_half_extent_max);
                    let height = cluster_rng.uniform(p.obstacle_height_min, p.obstacle_height_max);
                    let bounds = Aabb::new(
                        Vec3::new(c.x - half_xy, c.y - half_xy, 0.0),
                        Vec3::new(c.x + half_xy, c.y + half_xy, height),
                    );
                    obstacles.push(Obstacle::new(next_id, bounds));
                    next_id += 1;
                }
            }
        }

        // Sparse obstacles in zone B (open sky is almost, not perfectly, empty).
        let (b_lo, b_hi) = layout.zone_range(Zone::B);
        for _ in 0..p.zone_b_obstacles {
            let c = Vec3::new(
                rng.uniform(b_lo, b_hi),
                rng.uniform(-p.corridor_half_width, p.corridor_half_width),
                0.0,
            );
            if c.horizontal_distance(start) < p.clearance_radius
                || c.horizontal_distance(goal) < p.clearance_radius
            {
                continue;
            }
            let half_xy = rng.uniform(p.obstacle_half_extent_min, p.obstacle_half_extent_max);
            let height = rng.uniform(p.obstacle_height_min, p.obstacle_height_max);
            let bounds = Aabb::new(
                Vec3::new(c.x - half_xy, c.y - half_xy, 0.0),
                Vec3::new(c.x + half_xy, c.y + half_xy, height),
            );
            obstacles.push(Obstacle::new(next_id, bounds));
            next_id += 1;
        }

        let field = ObstacleField::new(obstacles);
        let margin = 20.0;
        let mut bounds = Aabb::new(
            Vec3::new(-margin, -p.corridor_half_width - margin, 0.0),
            Vec3::new(
                d.goal_distance + margin,
                p.corridor_half_width + margin,
                p.obstacle_height_max + margin,
            ),
        );
        if let Some(fb) = field.bounds() {
            bounds = Aabb::union(&bounds, &fb);
        }

        Environment {
            field,
            difficulty: d,
            params: p,
            layout,
            start,
            goal,
            bounds,
            seed,
        }
    }
}

/// Constant mixed into environment seeds so environment streams do not
/// collide with other consumers of the same seed (e.g. the planner).
const SEED_SALT: u64 = 0x526F_626F_5275_6E21; // "RoboRun!"

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DifficultyLevel;

    #[test]
    fn generation_is_deterministic() {
        let gen = EnvironmentGenerator::new(DifficultyConfig::mid());
        let a = gen.generate(123);
        let b = gen.generate(123);
        assert_eq!(a.obstacles().len(), b.obstacles().len());
        for (oa, ob) in a.obstacles().iter().zip(b.obstacles()) {
            assert_eq!(oa.bounds, ob.bounds);
        }
        let c = gen.generate(124);
        // Different seeds shift obstacle placement.
        let same = a
            .obstacles()
            .iter()
            .zip(c.obstacles())
            .all(|(x, y)| x.bounds == y.bounds);
        assert!(!same || a.obstacles().is_empty());
    }

    #[test]
    fn start_and_goal_are_clear_and_at_distance() {
        for cfg in DifficultyConfig::evaluation_matrix() {
            let env = EnvironmentGenerator::new(cfg).generate(9);
            assert!(!env.field().is_occupied_with_margin(env.start(), 1.0));
            assert!(!env.field().is_occupied_with_margin(env.goal(), 1.0));
            assert!((env.mission_length() - cfg.goal_distance).abs() < 1e-9);
            assert!(env.bounds().contains(env.start()));
            assert!(env.bounds().contains(env.goal()));
        }
    }

    #[test]
    fn congested_zones_hold_most_obstacles() {
        let env = EnvironmentGenerator::new(DifficultyConfig::mid()).generate(5);
        let mut per_zone = [0usize; 3];
        for o in env.obstacles() {
            match env.zone_at(o.center()) {
                Zone::A => per_zone[0] += 1,
                Zone::B => per_zone[1] += 1,
                Zone::C => per_zone[2] += 1,
            }
        }
        assert!(
            per_zone[0] > per_zone[1],
            "zone A {} vs B {}",
            per_zone[0],
            per_zone[1]
        );
        assert!(
            per_zone[2] > per_zone[1],
            "zone C {} vs B {}",
            per_zone[2],
            per_zone[1]
        );
    }

    #[test]
    fn density_knob_increases_obstacle_count() {
        let mk = |level| {
            let cfg =
                DifficultyConfig::from_levels(level, DifficultyLevel::Mid, DifficultyLevel::Mid);
            EnvironmentGenerator::new(cfg).generate(3).obstacles().len()
        };
        let low = mk(DifficultyLevel::Low);
        let mid = mk(DifficultyLevel::Mid);
        let high = mk(DifficultyLevel::High);
        assert!(low < mid, "low {low} mid {mid}");
        assert!(mid < high, "mid {mid} high {high}");
    }

    #[test]
    fn spread_knob_increases_congested_area() {
        let extent = |level| {
            let cfg =
                DifficultyConfig::from_levels(DifficultyLevel::Mid, level, DifficultyLevel::Mid);
            let env = EnvironmentGenerator::new(cfg).generate(3);
            // Lateral spread of obstacles in zone A.
            let ys: Vec<f64> = env
                .obstacles()
                .iter()
                .filter(|o| env.zone_at(o.center()) == Zone::A)
                .map(|o| o.center().y.abs())
                .collect();
            if ys.is_empty() {
                0.0
            } else {
                ys.iter().sum::<f64>() / ys.len() as f64
            }
        };
        let narrow = extent(DifficultyLevel::Low);
        let wide = extent(DifficultyLevel::High);
        assert!(wide > narrow, "wide {wide} narrow {narrow}");
    }

    #[test]
    fn obstacles_are_pillars_from_the_ground() {
        let env = EnvironmentGenerator::new(DifficultyConfig::mid()).generate(2);
        let p = env.params();
        for o in env.obstacles() {
            assert_eq!(o.bounds.min.z, 0.0);
            assert!(o.bounds.max.z >= p.obstacle_height_min);
            assert!(
                o.bounds.max.z > p.cruise_altitude,
                "pillars must exceed cruise altitude"
            );
        }
    }

    #[test]
    fn all_obstacles_inside_bounds() {
        let env = EnvironmentGenerator::new(DifficultyConfig::hard()).generate(11);
        for o in env.obstacles() {
            assert!(env.bounds().contains_aabb(&o.bounds));
        }
        assert_eq!(env.seed(), 11);
    }
}
