//! The benchmark's workloads: fixed mission sets generated at set-up, and
//! the two public drivers that fly them.

use roborun_core::RuntimeMode;
use roborun_dynamics::DynamicWorld;
use roborun_env::{DifficultyConfig, Environment, EnvironmentGenerator};
use roborun_geom::SplitMix64;
use roborun_middleware::GraphInfo;
use roborun_mission::{
    DynamicScenario, DynamicSweepConfig, MissionConfig, MissionResult, MissionRunner, NodePipeline,
    NodePipelineConfig,
};

/// Obstacle densities × spreads of the paper's evaluation matrix.
const DENSITIES: [f64; 3] = [0.3, 0.45, 0.6];
const SPREADS: [f64; 3] = [40.0, 80.0, 120.0];
/// Goal distance of the quick sweep (metres).
const STATIC_GOAL_DISTANCE: f64 = 150.0;
/// Environment and planner seed of every static mission (the default
/// sweep seed).
const STATIC_SEED: u64 = 7;
/// World seeds of the dynamic set, each run for every scenario family.
const DYNAMIC_SEEDS: [u64; 3] = [41, 42, 43];

/// Which public driver flies a workload's missions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `MissionRunner` — the direct decision loop.
    Direct,
    /// `NodePipeline` — the same loop over the middleware bus.
    Nodes,
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StaticAware,
    StaticOblivious,
    DynamicNodes,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::StaticAware,
        Workload::StaticOblivious,
        Workload::DynamicNodes,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StaticAware => "static_aware",
            Workload::StaticOblivious => "static_oblivious",
            Workload::DynamicNodes => "dynamic_nodes",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn driver(self) -> Driver {
        match self {
            Workload::StaticAware | Workload::StaticOblivious => Driver::Direct,
            Workload::DynamicNodes => Driver::Nodes,
        }
    }
}

/// One mission: everything the program receives.
pub struct Mission {
    /// Environment (or scenario) label for the outcome rows.
    pub label: String,
    /// Seed the environment was generated from.
    pub env_seed: u64,
    pub env: Environment,
    /// Moving-obstacle world, for dynamic missions.
    pub world: Option<DynamicWorld>,
    pub config: MissionConfig,
}

/// The result of flying one mission.
pub struct Flight {
    pub result: MissionResult,
    /// Bus topology and traffic at mission end (node driver only).
    pub graph: Option<GraphInfo>,
}

impl Mission {
    /// Flies the mission through the workload's public driver: static
    /// missions through `MissionRunner::run`, dynamic ones through
    /// `NodePipeline::run_dynamic`.
    pub fn fly(&self, driver: Driver) -> Flight {
        match (driver, &self.world) {
            (Driver::Direct, None) => Flight {
                result: MissionRunner::new(self.config.clone()).run(&self.env),
                graph: None,
            },
            (Driver::Nodes, Some(world)) => {
                let pipeline = NodePipeline::new(NodePipelineConfig {
                    mission: self.config.clone(),
                    ..NodePipelineConfig::new(self.config.mode)
                });
                let run = pipeline.run_dynamic(&self.env, world);
                Flight {
                    result: run.mission,
                    graph: Some(run.graph),
                }
            }
            _ => unreachable!("static missions fly direct, dynamic ones on the node driver"),
        }
    }
}

impl Flight {
    /// How the flight ended: `reached`, `collided`, `safe_stop` or `capped`
    /// (decision or simulated-time cap).
    pub fn outcome(&self) -> &'static str {
        let m = &self.result.metrics;
        if m.collided {
            "collided"
        } else if m.reached_goal {
            "reached"
        } else if m.safe_stops > 0 {
            "safe_stop"
        } else {
            "capped"
        }
    }
}

/// The benchmark's own deterministic stream, derived from the `--seed`
/// argument only.
fn seed_stream(seed: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ 0x6D69_7373_696F_6E62)
}

/// The seed's one behavioural input: each mission's goal-acceptance
/// radius, drawn in `[5.5, 6.5)` m around the default 6 m. It only moves
/// the decision on which a mission that reaches the goal is declared
/// finished, so simulated results differ slightly from seed to seed
/// without reshuffling which missions stall or collide (any change to an
/// environment or planner seed does: see README.md).
fn goal_tolerance(stream: &mut SplitMix64) -> f64 {
    stream.uniform(5.5, 6.5)
}

/// Generates a workload's missions for a seed. This is the timed set-up.
pub fn missions(workload: Workload, seed: u64) -> Vec<Mission> {
    let mut stream = seed_stream(seed);
    match workload {
        Workload::StaticAware | Workload::StaticOblivious => {
            let mode = if workload == Workload::StaticAware {
                RuntimeMode::SpatialAware
            } else {
                RuntimeMode::SpatialOblivious
            };
            let cells = DENSITIES
                .iter()
                .flat_map(|&density| SPREADS.iter().map(move |&spread| (density, spread)));
            cells
                .map(|(density, spread)| {
                    let env_seed = STATIC_SEED;
                    let env = EnvironmentGenerator::new(DifficultyConfig {
                        obstacle_density: density,
                        obstacle_spread: spread,
                        goal_distance: STATIC_GOAL_DISTANCE,
                    })
                    .generate(env_seed);
                    let config = MissionConfig {
                        seed: env_seed,
                        goal_tolerance: goal_tolerance(&mut stream),
                        ..MissionConfig::new(mode)
                    };
                    Mission {
                        label: format!("d{density:.2}/s{spread:.0}"),
                        env_seed,
                        env,
                        world: None,
                        config,
                    }
                })
                .collect()
        }
        Workload::DynamicNodes => DYNAMIC_SEEDS
            .iter()
            .flat_map(|&seed| {
                DynamicScenario::ALL
                    .iter()
                    .enumerate()
                    .map(move |c| (seed, c))
            })
            .map(|(world_seed, (i, &scenario))| {
                let (env, world) = scenario.world(world_seed);
                // The quick dynamic sweep's aware template (voxel decay on,
                // short caps) with its per-case planner seed.
                let template = DynamicSweepConfig::quick(world_seed).aware;
                let config = MissionConfig {
                    seed: world_seed.wrapping_add(i as u64),
                    goal_tolerance: goal_tolerance(&mut stream),
                    ..template
                };
                Mission {
                    label: format!("{scenario:?}"),
                    env_seed: world_seed,
                    env,
                    world: Some(world),
                    config,
                }
            })
            .collect(),
    }
}

/// The order missions are flown in: a seeded shuffle, so host-side state
/// (allocator, caches) differs between seeds while the set stays fixed.
pub fn flight_order(count: usize, seed: u64) -> Vec<usize> {
    let mut stream = seed_stream(seed.rotate_left(17));
    let mut order: Vec<usize> = (0..count).collect();
    for i in (1..count).rev() {
        order.swap(i, stream.uniform_usize(i + 1));
    }
    order
}
