//! Fleet missions: K drones flying one shared world, each treating the
//! others' committed trajectories as hazards.
//!
//! The coordinator runs one [`DecisionCycle`](crate::cycle) per drone in
//! **event-driven lockstep**: every iteration, the open cycle with the
//! smallest simulation clock takes the next decision (ties break on the
//! lowest drone index), so no drone ever decides against a peer
//! trajectory that is staler than one decision. After each decision the
//! decider's committed polyline — its current position plus the
//! remaining points of its active trajectory — is re-published into
//! every other drone's [`PeerTrajectoryHazard`](roborun_planning::PeerTrajectoryHazard)
//! (a no-op when bitwise
//! unchanged, mirroring `PredictedHazards::retarget`). Peer corridors
//! then ride the predicted-hazard path through the whole decision:
//! blockage detection, the composed planning context, the in-danger
//! escape trigger and the fresh-plan veto all see them as soft boxes.
//!
//! # Determinism
//!
//! The whole fleet run is a pure function of `(config, environment)`:
//! drone `i` plans with seed `base.seed + i`, the lockstep order is
//! decided by `f64::total_cmp` on the cycles' clocks with an index
//! tie-break, and peer publication happens at a fixed point of every
//! iteration. Re-running the same fleet twice produces bit-identical
//! [`FleetResult`]s, including every flown position.
//!
//! # Shared static world
//!
//! All K missions fly the same obstacle field, but each drone keeps its
//! own perception map, planner export and collision checker: sharing
//! observed maps across drones would change what each drone has
//! *sensed*, which is the paper's variable under test. The drones share
//! only the environment itself and each other's published trajectories.

use crate::cycle::DecisionCycle;
use crate::runner::{MissionConfig, MissionResult};
use roborun_env::Environment;
use roborun_geom::Vec3;

/// Configuration of one fleet mission.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-drone mission configuration template. Drone `i` flies with
    /// seed `base.seed + i`; everything else is shared. Any
    /// [`MissionConfig::peer_trajectories`] entries in the template are
    /// ignored — the coordinator publishes live peer trajectories
    /// instead.
    pub base: MissionConfig,
    /// Number of drones (`K >= 1`).
    pub drones: usize,
    /// Lateral (y-axis) spacing between adjacent drones' start and goal
    /// points (metres). The formation is centred on the environment's
    /// own endpoints, so with an odd `K` the middle drone flies the
    /// original corridor.
    pub lateral_spacing: f64,
}

impl FleetConfig {
    /// A fleet of `drones` drones over the given per-drone template,
    /// with a default 10 m lateral spacing.
    pub fn new(base: MissionConfig, drones: usize) -> Self {
        FleetConfig {
            base,
            drones,
            lateral_spacing: 10.0,
        }
    }
}

/// Outcome of one fleet mission.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Per-drone mission results, in drone-index order.
    pub missions: Vec<MissionResult>,
    /// The minimum distance between any two drones over the whole fleet
    /// run (metres), sampled by interpolating every drone's flown path
    /// on a common time grid (finished drones park at their final
    /// position). `f64::INFINITY` for a single-drone fleet.
    pub min_separation: f64,
    /// Peer-trajectory publications that actually changed a peer's view
    /// (bitwise-identical re-publications are skipped at the source).
    pub peer_updates: usize,
    /// Total decisions taken across the fleet.
    pub decisions: usize,
}

impl FleetResult {
    /// `true` when every drone reached its goal without colliding.
    pub fn all_reached_goal(&self) -> bool {
        self.missions
            .iter()
            .all(|m| m.metrics.reached_goal && !m.metrics.collided)
    }
}

/// Runs a fleet mission: `config.drones` drones in the environment's
/// world, laterally offset endpoints, live peer-trajectory exchange (see
/// the module docs for the lockstep and determinism contracts).
///
/// A single-drone fleet takes the exact single-drone code path — no
/// peers are ever published — and its one mission is bit-identical to
/// [`crate::MissionRunner::run`] with the same configuration.
///
/// # Panics
///
/// Panics if `drones == 0` or `lateral_spacing` is not a positive finite
/// number.
pub fn run_fleet(config: &FleetConfig, env: &Environment) -> FleetResult {
    assert!(config.drones >= 1, "a fleet needs at least one drone");
    assert!(
        config.lateral_spacing.is_finite() && config.lateral_spacing > 0.0,
        "lateral spacing must be positive and finite"
    );
    let k = config.drones;

    // Per-drone worlds: the same obstacle field, endpoints offset
    // laterally so the formation is centred on the original corridor. A
    // zero offset keeps the environment bitwise untouched (the odd-K
    // middle drone, and the whole single-drone fleet).
    let envs: Vec<Environment> = (0..k)
        .map(|i| {
            let offset = (i as f64 - (k as f64 - 1.0) / 2.0) * config.lateral_spacing;
            if offset == 0.0 {
                env.clone()
            } else {
                let shift = Vec3::new(0.0, offset, 0.0);
                env.with_endpoints(env.start() + shift, env.goal() + shift)
            }
        })
        .collect();
    let cfgs: Vec<MissionConfig> = (0..k)
        .map(|i| MissionConfig {
            seed: config.base.seed.wrapping_add(i as u64),
            // The coordinator owns peer exchange; template entries would
            // collide with the live peer ids.
            peer_trajectories: Vec::new(),
            ..config.base.clone()
        })
        .collect();

    let mut cycles: Vec<DecisionCycle> = (0..k)
        .map(|i| DecisionCycle::new(&cfgs[i], &envs[i], None))
        .collect();

    // Cached committed polylines, outside the cycles so drone `i`'s
    // update can be pushed into every other cycle without aliasing.
    let mut polylines: Vec<Vec<Vec3>> = (0..k).map(|i| cycles[i].committed_polyline()).collect();
    let mut peer_updates = 0usize;
    if k > 1 {
        // Seed every drone with its peers' starting positions — a parked
        // drone still occupies its hover point.
        for (i, cycle) in cycles.iter_mut().enumerate() {
            for (j, polyline) in polylines.iter().enumerate() {
                if i != j {
                    cycle.set_peer_trajectory(j as u64, polyline);
                    peer_updates += 1;
                }
            }
        }
    }

    // Event-driven lockstep: the open cycle with the smallest clock
    // decides next (ties break on the lowest index).
    let mut decisions = 0usize;
    while let Some(i) = (0..k)
        .filter(|&i| cycles[i].mission_open())
        .min_by(|&a, &b| cycles[a].now().total_cmp(&cycles[b].now()).then(a.cmp(&b)))
    {
        // Each drone traces onto its own track; the turn span brackets
        // the decision on the sim clock so lockstep interleaving is
        // visible in Perfetto. One relaxed load when disarmed.
        let turn_start = if roborun_trace::armed() {
            roborun_trace::collector::set_track(i as u32);
            Some(cycles[i].now())
        } else {
            None
        };
        cycles[i].run_decision();
        decisions += 1;
        if let Some(start) = turn_start {
            roborun_trace::collector::complete(
                roborun_trace::SpanKind::FleetTurn,
                start,
                cycles[i].now() - start,
                0,
                &[("drone", i as f64), ("turn", decisions as f64)],
            );
        }
        if k == 1 {
            continue;
        }
        // Re-publish drone i's commitment: the remaining trajectory
        // while the mission is open, the parked final position once it
        // closes (a finished drone no longer flies its old corridor).
        let polyline = if cycles[i].mission_open() {
            cycles[i].committed_polyline()
        } else {
            vec![cycles[i].position()]
        };
        if polyline != polylines[i] {
            polylines[i] = polyline;
            for (j, cycle) in cycles.iter_mut().enumerate() {
                if j != i {
                    cycle.set_peer_trajectory(i as u64, &polylines[i]);
                }
            }
            peer_updates += 1;
        }
    }

    let missions: Vec<MissionResult> = cycles.into_iter().map(DecisionCycle::finish).collect();
    let min_separation = min_pairwise_separation(&missions);
    FleetResult {
        missions,
        min_separation,
        peer_updates,
        decisions,
    }
}

/// The minimum distance between any two drones over the fleet run:
/// every drone's flown path is interpolated on a common 0.25 s time
/// grid (clamped to its own span, so a finished drone parks at its
/// final position), and all pairs are audited at every sample.
fn min_pairwise_separation(missions: &[MissionResult]) -> f64 {
    if missions.len() < 2 {
        return f64::INFINITY;
    }
    let end = missions
        .iter()
        .filter_map(|m| m.flown_times.last().copied())
        .fold(0.0_f64, f64::max);
    let step = 0.25;
    let samples = (end / step).ceil().max(1.0) as usize;
    let mut min_separation = f64::INFINITY;
    for s in 0..=samples {
        let t = (s as f64 * step).min(end);
        for (a, ma) in missions.iter().enumerate() {
            let pa = position_at(&ma.flown_path, &ma.flown_times, t);
            for mb in &missions[a + 1..] {
                let pb = position_at(&mb.flown_path, &mb.flown_times, t);
                let d = pa.distance(pb);
                if d < min_separation {
                    min_separation = d;
                }
            }
        }
    }
    min_separation
}

/// The drone's position at simulation time `t`, linearly interpolated
/// between flown samples and clamped to the path's span.
fn position_at(path: &[Vec3], times: &[f64], t: f64) -> Vec3 {
    debug_assert_eq!(times.len(), path.len());
    if path.is_empty() {
        return Vec3::ZERO;
    }
    if t <= times[0] {
        return path[0];
    }
    if t >= *times.last().expect("non-empty") {
        return *path.last().expect("non-empty");
    }
    // First sample strictly after t (exists: t < last).
    let hi = times.partition_point(|&ti| ti <= t);
    let (t0, t1) = (times[hi - 1], times[hi]);
    let (p0, p1) = (path[hi - 1], path[hi]);
    let span = t1 - t0;
    if span <= 1e-12 {
        return p1;
    }
    let alpha = (t - t0) / span;
    p0 + (p1 - p0) * alpha
}

#[cfg(test)]
mod tests {
    use super::*;
    use roborun_core::RuntimeMode;
    use roborun_env::{DifficultyConfig, EnvironmentGenerator};

    fn short_environment(seed: u64) -> Environment {
        EnvironmentGenerator::new(DifficultyConfig {
            obstacle_density: 0.35,
            obstacle_spread: 40.0,
            goal_distance: 120.0,
        })
        .generate(seed)
    }

    fn quick_base() -> MissionConfig {
        MissionConfig {
            max_decisions: 600,
            max_mission_time: 1_500.0,
            ..MissionConfig::new(RuntimeMode::SpatialAware)
        }
    }

    #[test]
    fn single_drone_fleet_matches_the_mission_runner() {
        let env = short_environment(21);
        let base = quick_base();
        let fleet = run_fleet(&FleetConfig::new(base.clone(), 1), &env);
        let solo = crate::MissionRunner::new(base).run(&env);
        assert_eq!(fleet.missions.len(), 1);
        assert_eq!(fleet.peer_updates, 0);
        assert_eq!(fleet.min_separation, f64::INFINITY);
        let m = &fleet.missions[0];
        assert_eq!(m.flown_path, solo.flown_path);
        assert_eq!(m.flown_times, solo.flown_times);
        assert_eq!(m.metrics.decisions, solo.metrics.decisions);
        assert_eq!(m.metrics.mission_time, solo.metrics.mission_time);
        assert_eq!(m.metrics.energy_kj, solo.metrics.energy_kj);
    }

    #[test]
    fn interpolation_clamps_and_blends() {
        let path = vec![Vec3::new(0.0, 0.0, 5.0), Vec3::new(10.0, 0.0, 5.0)];
        let times = vec![0.0, 10.0];
        assert_eq!(position_at(&path, &times, -1.0), Vec3::new(0.0, 0.0, 5.0));
        assert_eq!(position_at(&path, &times, 5.0), Vec3::new(5.0, 0.0, 5.0));
        assert_eq!(position_at(&path, &times, 99.0), Vec3::new(10.0, 0.0, 5.0));
    }
}
