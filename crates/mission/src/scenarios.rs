//! Mission scenarios: the paper's motivating missions, the small
//! environments behind Figures 3 and 4, the moving-obstacle
//! (dynamic-world) scenario families, and the fault-injection scenario
//! families of the robustness evaluation.

use roborun_dynamics::{Actor, DynamicWorld, MotionModel};
use roborun_env::{
    DifficultyConfig, Environment, EnvironmentGenerator, GeneratorParams, Obstacle, ObstacleField,
    ZoneLayout,
};
use roborun_faults::{
    BusFaultChannel, FaultPlanConfig, FaultWindows, LinkFaultConfig, MapFaultChannel,
    PlannerFaultChannel, SensorFaultChannel,
};
use roborun_geom::{Aabb, SplitMix64, Vec3};
use serde::{Deserialize, Serialize};

/// The named scenarios used by the examples and the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scenario {
    /// Package delivery: warehouse → open sky → warehouse (tight aisles at
    /// both ends, the paper's *high precision* emphasis).
    PackageDelivery,
    /// Search and rescue: hospital → disaster zone, long open stretch where
    /// high velocity matters (the paper's *high velocity* emphasis).
    SearchAndRescue,
    /// The mid-difficulty environment of the representative mission
    /// analysis (paper Section V-C, Figures 9–11).
    Representative,
}

impl Scenario {
    /// All scenarios.
    pub const ALL: [Scenario; 3] = [
        Scenario::PackageDelivery,
        Scenario::SearchAndRescue,
        Scenario::Representative,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::PackageDelivery => "package delivery",
            Scenario::SearchAndRescue => "search and rescue",
            Scenario::Representative => "representative mission",
        }
    }

    /// The difficulty configuration backing the scenario.
    pub fn difficulty(self) -> DifficultyConfig {
        match self {
            // Dense clusters, short-ish hop between warehouses.
            Scenario::PackageDelivery => DifficultyConfig {
                obstacle_density: 0.6,
                obstacle_spread: 40.0,
                goal_distance: 600.0,
            },
            // Sparse-but-wide debris, long transit leg.
            Scenario::SearchAndRescue => DifficultyConfig {
                obstacle_density: 0.3,
                obstacle_spread: 120.0,
                goal_distance: 1_200.0,
            },
            Scenario::Representative => DifficultyConfig::mid(),
        }
    }

    /// Generates the scenario's environment for a seed.
    pub fn environment(self, seed: u64) -> Environment {
        EnvironmentGenerator::new(self.difficulty()).generate(seed)
    }

    /// A shortened variant of the scenario (same obstacle character, 150 m
    /// goal) used by examples and tests that need to finish quickly.
    pub fn short_environment(self, seed: u64) -> Environment {
        let difficulty = DifficultyConfig {
            goal_distance: 150.0,
            ..self.difficulty()
        };
        EnvironmentGenerator::new(difficulty)
            .with_params(GeneratorParams {
                obstacles_per_density: 40.0,
                ..GeneratorParams::default()
            })
            .generate(seed)
    }
}

/// The moving-obstacle scenario families: worlds whose difficulty changes
/// underneath the robot (temporal heterogeneity — the axis the static
/// 27-environment matrix cannot express).
///
/// Every family is generated deterministically from a seed: the static
/// field comes from the [`EnvironmentGenerator`], the actors from a
/// forked stream of the same seed, and every actor pose is a pure
/// function of time — so a scenario run is bit-reproducible across runs
/// and across both mission drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DynamicScenario {
    /// A sparse corridor crossed laterally by shuttling vehicles: the
    /// archetypal "moving obstacle enters the corridor" workload. Static
    /// difficulty is low; all the hazard is temporal.
    CrossingCorridor,
    /// A denser warehouse block patrolled lengthwise by slow carts that
    /// share the MAV's flight lanes: conflicts develop slowly but in
    /// tight quarters.
    PatrolledWarehouse,
    /// A congested mid-mission intersection: crossers on both axes plus
    /// seeded random walkers milling about the centre.
    CongestedIntersection,
}

impl DynamicScenario {
    /// All dynamic scenario families.
    pub const ALL: [DynamicScenario; 3] = [
        DynamicScenario::CrossingCorridor,
        DynamicScenario::PatrolledWarehouse,
        DynamicScenario::CongestedIntersection,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            DynamicScenario::CrossingCorridor => "crossing corridor",
            DynamicScenario::PatrolledWarehouse => "patrolled warehouse",
            DynamicScenario::CongestedIntersection => "congested intersection",
        }
    }

    /// The static difficulty backing the family (short 120 m missions so
    /// sweeps and fixtures stay fast).
    pub fn difficulty(self) -> DifficultyConfig {
        match self {
            DynamicScenario::CrossingCorridor => DifficultyConfig {
                obstacle_density: 0.15,
                obstacle_spread: 40.0,
                goal_distance: 120.0,
            },
            DynamicScenario::PatrolledWarehouse => DifficultyConfig {
                obstacle_density: 0.45,
                obstacle_spread: 40.0,
                goal_distance: 120.0,
            },
            DynamicScenario::CongestedIntersection => DifficultyConfig {
                obstacle_density: 0.3,
                obstacle_spread: 80.0,
                goal_distance: 120.0,
            },
        }
    }

    /// Generates the scenario: the static environment plus its dynamic
    /// world, both derived deterministically from `seed`.
    pub fn world(self, seed: u64) -> (Environment, DynamicWorld) {
        self.world_with(seed, &DynamicDifficulty::default())
    }

    /// [`DynamicScenario::world`] scaled along the temporal-difficulty
    /// axes (the Fig. 8 analogue for moving worlds): static obstacle
    /// density, actor speed, and actor count (whole extra waves of the
    /// family's pattern, each drawn from the continuation of the same
    /// seed stream). With [`DynamicDifficulty::default`] the generated
    /// world is **bit-identical** to [`DynamicScenario::world`] — the
    /// base wave consumes the random stream exactly as before and every
    /// scale factor is an exact multiply by one.
    pub fn world_with(
        self,
        seed: u64,
        difficulty: &DynamicDifficulty,
    ) -> (Environment, DynamicWorld) {
        let base = self.difficulty();
        let env = EnvironmentGenerator::new(DifficultyConfig {
            obstacle_density: base.obstacle_density * difficulty.density_scale,
            ..base
        })
        .generate(seed);
        let mut rng = SplitMix64::new(seed ^ DYNAMIC_SEED_SALT);
        let cruise = env.start().z;
        let mut actors = Vec::new();
        for wave in 0..difficulty.actor_waves.max(1) {
            self.push_actor_wave(
                &mut rng,
                cruise,
                difficulty.speed_scale,
                (wave * WAVE_ID_STRIDE) as u32,
                &mut actors,
            );
        }
        let world = DynamicWorld::new(env.field().clone(), actors);
        (env, world)
    }

    /// Appends one wave of the family's actor pattern, with ids offset by
    /// `id_base` and every drawn speed multiplied by `speed_scale`.
    fn push_actor_wave(
        self,
        rng: &mut SplitMix64,
        cruise: f64,
        speed_scale: f64,
        id_base: u32,
        actors: &mut Vec<Actor>,
    ) {
        // Actors are ground vehicles / carts modelled as pillars tall
        // enough to matter at cruise altitude.
        let pillar = |half_xy: f64| Vec3::new(half_xy, half_xy, cruise + 2.0);
        let spawn_z = cruise + 2.0; // pillar centre => box spans 0 .. 2z
        match self {
            DynamicScenario::CrossingCorridor => {
                // Four crossers shuttling across the corridor at stations
                // along the mission axis, clear of start and goal.
                for i in 0..4u32 {
                    let x = 22.0 + i as f64 * 22.0 + rng.uniform(-4.0, 4.0);
                    let speed = rng.uniform(0.8, 1.6) * speed_scale;
                    let dir = if rng.uniform(0.0, 1.0) < 0.5 {
                        1.0
                    } else {
                        -1.0
                    };
                    let y0 = rng.uniform(-14.0, 14.0);
                    actors.push(Actor::new(
                        id_base + i,
                        Vec3::new(x, y0, spawn_z),
                        pillar(1.1),
                        MotionModel::Crosser {
                            velocity: Vec3::new(0.0, dir * speed, 0.0),
                            bounds: Aabb::new(
                                Vec3::new(x, -18.0, spawn_z),
                                Vec3::new(x, 18.0, spawn_z),
                            ),
                        },
                    ));
                }
            }
            DynamicScenario::PatrolledWarehouse => {
                // Three carts patrolling lengthwise lanes through the
                // congested zones, one sweeping laterally.
                for i in 0..3u32 {
                    let lane_y = -10.0 + i as f64 * 10.0 + rng.uniform(-2.0, 2.0);
                    let x0 = 18.0 + rng.uniform(0.0, 10.0);
                    let x1 = 95.0 + rng.uniform(0.0, 8.0);
                    actors.push(Actor::new(
                        id_base + i,
                        Vec3::new(x0, lane_y, spawn_z),
                        pillar(1.0),
                        MotionModel::WaypointPatrol {
                            waypoints: vec![
                                Vec3::new(x0, lane_y, spawn_z),
                                Vec3::new(x1, lane_y, spawn_z),
                            ],
                            speed: rng.uniform(0.7, 1.2) * speed_scale,
                        },
                    ));
                }
                let x = 60.0 + rng.uniform(-6.0, 6.0);
                actors.push(Actor::new(
                    id_base + 3,
                    Vec3::new(x, 0.0, spawn_z),
                    pillar(1.0),
                    MotionModel::WaypointPatrol {
                        waypoints: vec![Vec3::new(x, -12.0, spawn_z), Vec3::new(x, 12.0, spawn_z)],
                        speed: rng.uniform(0.6, 1.0) * speed_scale,
                    },
                ));
            }
            DynamicScenario::CongestedIntersection => {
                // Two axis crossers through the middle...
                for i in 0..2u32 {
                    let x = 45.0 + i as f64 * 24.0 + rng.uniform(-4.0, 4.0);
                    actors.push(Actor::new(
                        id_base + i,
                        Vec3::new(x, rng.uniform(-10.0, 10.0), spawn_z),
                        pillar(1.1),
                        MotionModel::Crosser {
                            velocity: Vec3::new(0.0, rng.uniform(0.9, 1.5) * speed_scale, 0.0),
                            bounds: Aabb::new(
                                Vec3::new(x, -16.0, spawn_z),
                                Vec3::new(x, 16.0, spawn_z),
                            ),
                        },
                    ));
                }
                // ...plus two random walkers milling about the centre.
                for i in 2..4u32 {
                    let walk_seed = rng.next_u64();
                    actors.push(Actor::new(
                        id_base + i,
                        Vec3::new(
                            55.0 + rng.uniform(-8.0, 8.0),
                            rng.uniform(-8.0, 8.0),
                            spawn_z,
                        ),
                        pillar(0.9),
                        MotionModel::RandomWalk {
                            seed: walk_seed,
                            speed: rng.uniform(0.5, 0.9) * speed_scale,
                            dwell: 2.5,
                            bounds: Aabb::new(
                                Vec3::new(35.0, -14.0, spawn_z),
                                Vec3::new(85.0, 14.0, spawn_z),
                            ),
                        },
                    ));
                }
            }
        }
    }
}

/// The fault-injection scenario families of the robustness evaluation:
/// each pairs a static environment with a deterministic
/// [`FaultPlanConfig`] and exercises one degradation story — sensing
/// faults, middleware faults, and planning faults.
///
/// Every family is a pure function of its seed: the environment comes
/// from the [`EnvironmentGenerator`] and the fault plan's windows/dice
/// from the plan seed, so a scenario run is bit-reproducible across runs
/// and (for the non-bus families) across both mission drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultScenario {
    /// A corridor flight under periodic full sensor blackouts with noisy
    /// recovery bursts: the fault-oblivious design keeps flying through
    /// space it never sensed, the degradation-aware runtime derates on
    /// data age and hovers through the worst of it.
    SensorBlackoutCorridor,
    /// A patrol through a denser block over a lossy middleware: the
    /// point-cloud topic drops most samples (and the trajectory topic a
    /// few), so map updates starve at the perception node. Runs on the
    /// node pipeline — link faults only exist on a real bus.
    LossyLinkPatrol,
    /// Planner brownout: long latency spikes plus windows of outright
    /// plan failure. The aware runtime's watchdog aborts, retries with
    /// backoff and walks the fallback ladder; the oblivious design
    /// serialises every spike into its epoch and loses its trajectory on
    /// every failed replan.
    PlannerBrownout,
}

impl FaultScenario {
    /// All fault scenario families.
    pub const ALL: [FaultScenario; 3] = [
        FaultScenario::SensorBlackoutCorridor,
        FaultScenario::LossyLinkPatrol,
        FaultScenario::PlannerBrownout,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            FaultScenario::SensorBlackoutCorridor => "sensor-blackout corridor",
            FaultScenario::LossyLinkPatrol => "lossy-link patrol",
            FaultScenario::PlannerBrownout => "planner brownout",
        }
    }

    /// `true` when the family's faults only exist on the middleware bus,
    /// so the scenario must run on the node pipeline.
    pub fn uses_node_pipeline(self) -> bool {
        matches!(self, FaultScenario::LossyLinkPatrol)
    }

    /// The static difficulty backing the family (short 120 m missions so
    /// sweeps and fixtures stay fast).
    pub fn difficulty(self) -> DifficultyConfig {
        match self {
            FaultScenario::SensorBlackoutCorridor => DifficultyConfig {
                obstacle_density: 0.4,
                obstacle_spread: 40.0,
                goal_distance: 120.0,
            },
            FaultScenario::LossyLinkPatrol => DifficultyConfig {
                obstacle_density: 0.45,
                obstacle_spread: 40.0,
                goal_distance: 120.0,
            },
            FaultScenario::PlannerBrownout => DifficultyConfig {
                obstacle_density: 0.35,
                obstacle_spread: 80.0,
                goal_distance: 120.0,
            },
        }
    }

    /// Generates the scenario's environment for a seed.
    pub fn environment(self, seed: u64) -> Environment {
        EnvironmentGenerator::new(self.difficulty()).generate(seed)
    }

    /// The family's deterministic fault campaign for a seed. The seed
    /// only shifts window phases and per-decision dice; the duty cycles
    /// are the family's own.
    pub fn fault_plan(self, seed: u64) -> FaultPlanConfig {
        let mut plan = FaultPlanConfig {
            seed: seed ^ FAULT_SEED_SALT,
            ..FaultPlanConfig::healthy()
        };
        match self {
            FaultScenario::SensorBlackoutCorridor => {
                plan.sensor = SensorFaultChannel {
                    // 3-decision blackouts every 12, with noisy 2-decision
                    // recovery bursts on a co-prime period so the two
                    // interleave differently along the mission.
                    blackout: Some(FaultWindows::every(12, 3)),
                    burst: Some(FaultWindows::every(7, 2)),
                    burst_dropout: 0.5,
                    burst_noise_std: 0.3,
                    fog_cap: None,
                };
                plan.planner = PlannerFaultChannel {
                    // Outage-coupled replan stalls: when perception drops
                    // out the planner grinds on a decayed map, so latency
                    // spikes ride the same period as the blackouts. The
                    // spikes are recoverable under the watchdog's backoff
                    // (10 → 5 → 2.5 s against a 4 s budget) but charge the
                    // fault-oblivious design the full blind coast.
                    spike: Some(FaultWindows::every(12, 3)),
                    spike_latency: 10.0,
                    failure: None,
                };
            }
            FaultScenario::LossyLinkPatrol => {
                plan.bus = BusFaultChannel {
                    links: vec![
                        (
                            "/sensors/points".to_string(),
                            LinkFaultConfig {
                                loss_probability: 0.45,
                                duplicate_probability: 0.0,
                                delay_probability: 0.3,
                                extra_delay: 0.4,
                            },
                        ),
                        (
                            "/control/status".to_string(),
                            LinkFaultConfig {
                                loss_probability: 0.0,
                                duplicate_probability: 0.15,
                                delay_probability: 0.2,
                                extra_delay: 0.2,
                            },
                        ),
                    ],
                };
                plan.planner = PlannerFaultChannel {
                    // Retransmission storms stall the planner's map pulls:
                    // short recoverable latency spikes on a period co-prime
                    // with nothing in particular — the lossy links supply
                    // the per-decision randomness.
                    spike: Some(FaultWindows::every(9, 2)),
                    spike_latency: 8.0,
                    failure: None,
                };
            }
            FaultScenario::PlannerBrownout => {
                plan.planner = PlannerFaultChannel {
                    // Spikes large enough to trip a 4 s watchdog budget,
                    // recoverable after two backoff halvings; failure
                    // windows shorter than the ladder's hover limit but
                    // long enough to stall the fault-oblivious design.
                    spike: Some(FaultWindows::every(6, 3)),
                    spike_latency: 10.0,
                    failure: Some(FaultWindows::every(8, 5)),
                };
                plan.map = MapFaultChannel {
                    stale: Some(FaultWindows::every(9, 3)),
                };
            }
        }
        plan
    }
}

/// Constant mixed into fault-scenario seeds so fault-plan streams never
/// collide with the environment generator's use of the same seed.
const FAULT_SEED_SALT: u64 = 0x4641_554C_5453; // "FAULTS"

/// Temporal-difficulty scaling of a [`DynamicScenario`] along three
/// axes: static density, actor speed and actor count.
/// [`DynamicDifficulty::default`] is the identity —
/// [`DynamicScenario::world_with`] then generates bit-identically to
/// [`DynamicScenario::world`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DynamicDifficulty {
    /// Multiplier on the family's static obstacle density.
    pub density_scale: f64,
    /// Multiplier on every drawn actor speed.
    pub speed_scale: f64,
    /// Number of actor waves: each wave re-draws the family's whole
    /// pattern from the continuation of the same seed stream (ids offset
    /// per wave), so `2` doubles the actor count with fresh stations.
    pub actor_waves: usize,
}

impl Default for DynamicDifficulty {
    fn default() -> Self {
        DynamicDifficulty {
            density_scale: 1.0,
            speed_scale: 1.0,
            actor_waves: 1,
        }
    }
}

/// Actor-id stride between waves of [`DynamicScenario::world_with`] (far
/// larger than any family's per-wave actor count).
const WAVE_ID_STRIDE: usize = 16;

/// Constant mixed into dynamic-scenario seeds so actor streams never
/// collide with the environment generator's use of the same seed.
const DYNAMIC_SEED_SALT: u64 = 0x44_59_4E_41_4D_49_43_53; // "DYNAMICS"

/// A hand-built warehouse-aisle world for the paper's *high precision
/// mission* illustration (Fig. 3): two rows of racks forming a tight aisle
/// the MAV must thread, followed by open space.
pub fn warehouse_aisle_field(aisle_width: f64, aisle_length: f64) -> ObstacleField {
    let rack = |id: u32, x: f64, y: f64| {
        Obstacle::new(
            id,
            Aabb::new(Vec3::new(x, y, 0.0), Vec3::new(x + 2.0, y + 2.0, 14.0)),
        )
    };
    let mut obstacles = Vec::new();
    let mut id = 0;
    let mut x = 8.0;
    while x < 8.0 + aisle_length {
        obstacles.push(rack(id, x, aisle_width * 0.5));
        id += 1;
        obstacles.push(rack(id, x, -aisle_width * 0.5 - 2.0));
        id += 1;
        x += 4.0;
    }
    ObstacleField::new(obstacles)
}

/// Zone layout used when analysing hand-built fields (a single congested
/// stretch followed by open space).
pub fn aisle_layout(total_length: f64) -> ZoneLayout {
    ZoneLayout::new(0.0, total_length, 0.45)
}

#[cfg(test)]
mod tests {
    use super::*;
    use roborun_env::Zone;

    #[test]
    fn scenario_difficulties_match_their_story() {
        let pd = Scenario::PackageDelivery.difficulty();
        let sar = Scenario::SearchAndRescue.difficulty();
        // Package delivery is denser; search and rescue is longer.
        assert!(pd.obstacle_density > sar.obstacle_density);
        assert!(sar.goal_distance > pd.goal_distance);
        assert_eq!(
            Scenario::Representative.difficulty(),
            DifficultyConfig::mid()
        );
        for s in Scenario::ALL {
            assert!(!s.name().is_empty());
            assert!(s.difficulty().validate().is_ok());
        }
    }

    #[test]
    fn environments_generate_and_short_variants_are_short() {
        for s in Scenario::ALL {
            let full = s.environment(7);
            let short = s.short_environment(7);
            assert!(full.mission_length() > short.mission_length());
            assert!((short.mission_length() - 150.0).abs() < 1e-9);
            assert!(!short.field().is_empty());
        }
    }

    #[test]
    fn default_difficulty_reproduces_world_bit_for_bit() {
        for scenario in DynamicScenario::ALL {
            let (env_a, world_a) = scenario.world(41);
            let (env_b, world_b) = scenario.world_with(41, &DynamicDifficulty::default());
            assert_eq!(env_a.field().len(), env_b.field().len());
            assert_eq!(world_a.actors().len(), world_b.actors().len());
            for (a, b) in world_a.actors().iter().zip(world_b.actors()) {
                assert_eq!(a, b, "{} actor diverged", scenario.name());
            }
            // Poses too, out to a late instant.
            for (a, b) in world_a.actors().iter().zip(world_b.actors()) {
                let pa = a.pose_at(137.5);
                let pb = b.pose_at(137.5);
                assert_eq!(pa.x.to_bits(), pb.x.to_bits());
                assert_eq!(pa.y.to_bits(), pb.y.to_bits());
            }
        }
    }

    #[test]
    fn difficulty_scales_speed_count_and_density() {
        for scenario in DynamicScenario::ALL {
            let (base_env, base) = scenario.world(7);
            let (hard_env, hard) = scenario.world_with(
                7,
                &DynamicDifficulty {
                    density_scale: 1.5,
                    speed_scale: 2.0,
                    actor_waves: 2,
                },
            );
            assert_eq!(
                hard.actors().len(),
                2 * base.actors().len(),
                "{}",
                scenario.name()
            );
            // The base wave is the base pattern with doubled speeds.
            for (a, b) in base.actors().iter().zip(hard.actors()) {
                assert_eq!(a.id, b.id);
                assert!(
                    (b.max_speed() - 2.0 * a.max_speed()).abs() < 1e-12,
                    "{}: speed {} vs base {}",
                    scenario.name(),
                    b.max_speed(),
                    a.max_speed()
                );
            }
            // Wave ids never collide.
            let mut ids: Vec<u32> = hard.actors().iter().map(|a| a.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), hard.actors().len());
            // Density scaling produced a denser static field.
            assert!(hard_env.field().len() >= base_env.field().len());
        }
    }

    #[test]
    fn warehouse_aisle_has_a_navigable_gap() {
        let field = warehouse_aisle_field(5.0, 40.0);
        assert!(!field.is_empty());
        // The aisle centre is free; the racks are not.
        assert!(!field.is_occupied_with_margin(Vec3::new(20.0, 0.0, 5.0), 0.45));
        assert!(field.is_occupied(Vec3::new(9.0, 3.5, 5.0)));
        // Racks line both sides.
        let left = field
            .obstacles()
            .iter()
            .filter(|o| o.center().y > 0.0)
            .count();
        let right = field
            .obstacles()
            .iter()
            .filter(|o| o.center().y < 0.0)
            .count();
        assert_eq!(left, right);
    }

    #[test]
    fn aisle_layout_marks_the_aisle_congested() {
        let layout = aisle_layout(100.0);
        assert_eq!(layout.zone_at_x(10.0), Zone::A);
        assert_eq!(layout.zone_at_x(50.0), Zone::B);
    }
}
