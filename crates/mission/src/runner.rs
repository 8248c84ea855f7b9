//! The closed-loop mission runner.
//!
//! One [`MissionRunner::run`] call reproduces what the paper's HIL rig does
//! for a single flight: the drone repeatedly senses, perceives, plans and
//! flies until it reaches the goal (or crashes / times out), under either
//! the RoboRun governor or the static baseline. The runner charges each
//! decision the latency the calibrated compute model assigns to the knob
//! values in force, advances the simulated drone for that long, and records
//! the full telemetry the paper's figures are drawn from.
//!
//! The per-decision logic itself lives in [`crate::cycle`]: the runner is a
//! thin driver that loops a [`cycle::DecisionCycle`](crate::cycle) until the
//! mission closes.

use crate::cycle::DecisionCycle;
use crate::metrics::MissionMetrics;
use roborun_core::{KnobAblation, MissionTelemetry, Profilers, RuntimeMode};
use roborun_dynamics::DynamicWorld;
use roborun_env::Environment;
use roborun_faults::FaultPlanConfig;
use roborun_geom::Vec3;
use roborun_sim::{
    CameraRig, ComputeLatencyModel, CpuModel, DepthCamera, DroneConfig, EnergyModel,
};
use serde::{Deserialize, Serialize};

/// Configuration of one mission run.
#[derive(Debug, Clone)]
pub struct MissionConfig {
    /// Runtime mode (RoboRun or the static baseline).
    pub mode: RuntimeMode,
    /// Drone platform limits.
    pub drone: DroneConfig,
    /// Profiler configuration.
    pub profilers: Profilers,
    /// Calibrated compute-latency model.
    pub latency: ComputeLatencyModel,
    /// Energy model.
    pub energy: EnergyModel,
    /// CPU-utilisation model.
    pub cpu: CpuModel,
    /// Distance at which the goal counts as reached (metres).
    pub goal_tolerance: f64,
    /// Hard cap on simulated mission time (seconds).
    pub max_mission_time: f64,
    /// Hard cap on the number of decisions.
    pub max_decisions: usize,
    /// Re-plan at least every this many decisions.
    pub replan_every: usize,
    /// Receding-horizon distance of the local planning goal (metres).
    pub planning_horizon: f64,
    /// Minimum decision epoch (seconds): even a very cheap decision only
    /// advances the world by this much before the next one.
    pub min_epoch: f64,
    /// Map memory bound: voxels farther than this from the drone are
    /// dropped (metres).
    pub map_retain_radius: f64,
    /// Planning clearance as a multiple of the body radius. Values above 1
    /// keep planned paths away from *observed* obstacle surfaces, which
    /// also protects against the unobserved sides of partially seen
    /// obstacles (the depth cameras only ever see front faces).
    pub planning_margin_factor: f64,
    /// Ablation switch forwarded to the governor: `false` replaces the
    /// waypoint-aware Algorithm 1 budget with the instantaneous Eq. 1
    /// budget.
    pub waypoint_budgeting: bool,
    /// Per-knob ablation forwarded to the governor: frozen knobs stay at
    /// their static Table II values while the rest keep adapting.
    pub ablation: KnobAblation,
    /// Lookahead horizon (seconds) over which moving obstacles' predicted
    /// occupancy invalidates the followed trajectory and fresh plans.
    /// Only consulted when a mission runs against a
    /// [`roborun_dynamics::DynamicWorld`] with actors.
    pub dynamic_lookahead: f64,
    /// Plan *through* the predicted moving-obstacle occupancy instead of
    /// only vetoing finished plans against it: the planner queries the
    /// composed
    /// [`roborun_planning::HazardContext`] — static checker plus the
    /// decision's predicted boxes as time-free soft obstacles — so plans
    /// route around a crossing lane in one shot rather than converging
    /// by repeated rejection. The posterior predicted-occupancy veto is
    /// retained as the safety net (smoothing can still cut a corner).
    /// Off by default: with it off (or in a static world) every mission
    /// is bit-identical to the reject-loop behaviour.
    pub predicted_costmap: bool,
    /// Stale-occupied decay window of the occupancy map, in decisions:
    /// with `Some(n)`, an occupied voxel older than `n` decisions yields
    /// to a contradicting free-space ray, so cells vacated by moving
    /// obstacles actually free up (the removals flow into the export
    /// delta the incremental collision checker patches from). `None`
    /// (the default) keeps the classic accrete-only map bit for bit.
    pub voxel_decay: Option<u64>,
    /// Deterministic fault campaign over the whole stack, and the one
    /// place sensing faults are configured. Its sensor channel covers
    /// everything between the camera rig and the point-cloud kernel:
    /// blackouts (the whole sweep is lost and integration is withheld),
    /// bursts (per-point dropout and radial range noise) and fog (returns
    /// beyond `fog_cap` are lost and the profiled visibility is clamped
    /// to it). [`FaultPlanConfig::fog`] and
    /// [`FaultPlanConfig::flaky_sensors`] are the degraded-sensing
    /// presets. The other channels inject planner spikes and forced
    /// failures, stale-map epochs and (on the node pipeline) bus link
    /// faults. Healthy by default; a healthy plan is never armed, so
    /// faults-off missions run the exact pre-fault code path bit for bit.
    pub fault_plan: FaultPlanConfig,
    /// Graceful-degradation runtime: the planning watchdog with bounded
    /// retries, the reuse → hover → wedge-retreat fallback ladder, and
    /// stale-perception velocity derating. Disabled by default; the
    /// fault-oblivious baseline runs with this off.
    pub degradation: DegradationConfig,
    /// Routes a share of RRT* proposals into goal- and gap-regions
    /// derived from the composed hazard boxes (the planner's
    /// [`SamplingMix`](roborun_planning::SamplingMix) at its default
    /// weights). Advisory only — validity still comes from the
    /// collision checker — and off by default; with it off, or with no
    /// hazards composed into a decision, every plan is bit-identical
    /// to the uniform sampler.
    pub hazard_biased_sampling: bool,
    /// Random seed for the stochastic planner.
    pub seed: u64,
}

/// Configuration of the graceful-degradation runtime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradationConfig {
    /// Master switch. With `false` (the default) every fault is absorbed
    /// the way the pre-degradation runtime absorbed it: spikes serialise
    /// into the decision epoch, failed plans silently keep the old
    /// trajectory, stale data flies at full trust.
    pub enabled: bool,
    /// Planning watchdog budget (seconds): a planning stage modelled to
    /// exceed this is aborted at the budget and retried.
    pub watchdog_budget: f64,
    /// Bounded retries after a watchdog abort.
    pub max_retries: u32,
    /// Multiplicative decay applied to the modelled spike on each retry
    /// (a transient overload drains away; a forced failure never
    /// succeeds regardless).
    pub retry_backoff: f64,
    /// Consecutive planner-failure hovers tolerated before the ladder
    /// bottoms out into a wedge-retreat safe-stop.
    pub hover_limit: u32,
    /// Perception data age (seconds) beyond which the runtime stops
    /// trusting the map enough to move at all and hovers until sensing
    /// recovers.
    pub stale_hover_age: f64,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        DegradationConfig {
            enabled: false,
            watchdog_budget: 4.0,
            max_retries: 2,
            retry_backoff: 0.5,
            hover_limit: 6,
            stale_hover_age: 8.0,
        }
    }
}

impl MissionConfig {
    /// A default configuration for the given runtime mode.
    ///
    /// The camera rig used for sensing is the 6-camera rig with a reduced
    /// per-camera resolution (the latency charged for perception comes from
    /// the calibrated model, so the ray count only needs to be high enough
    /// to populate the map faithfully).
    pub fn new(mode: RuntimeMode) -> Self {
        MissionConfig {
            mode,
            drone: DroneConfig::default(),
            profilers: Profilers::default(),
            latency: ComputeLatencyModel::calibrated(),
            energy: EnergyModel::default(),
            cpu: CpuModel::default(),
            goal_tolerance: 6.0,
            max_mission_time: 5_000.0,
            max_decisions: 3_000,
            replan_every: 6,
            planning_horizon: 40.0,
            min_epoch: 0.5,
            map_retain_radius: 70.0,
            planning_margin_factor: 1.7,
            waypoint_budgeting: true,
            ablation: KnobAblation::none(),
            dynamic_lookahead: 4.0,
            predicted_costmap: false,
            voxel_decay: None,
            fault_plan: FaultPlanConfig::healthy(),
            degradation: DegradationConfig::default(),
            hazard_biased_sampling: false,
            seed: 1,
        }
    }

    /// The six horizontal cameras every rig is built from.
    fn horizontal_cameras() -> Vec<DepthCamera> {
        (0..6)
            .map(|i| DepthCamera {
                h_res: 10,
                v_res: 5,
                ..DepthCamera::mounted_at(i as f64 * std::f64::consts::TAU / 6.0)
            })
            .collect()
    }

    /// The sensing rig: six cameras at reduced resolution.
    pub fn camera_rig(&self) -> CameraRig {
        CameraRig::new(Self::horizontal_cameras())
    }

    /// The sensing rig for dynamic (moving-obstacle) missions: the six
    /// horizontal cameras plus three down-tilted ones. Moving obstacles
    /// push plans out of the horizontal band — an escape or an
    /// over-the-top route later *descends*, and the classic rig's ±22.5°
    /// band would let the MAV descend through unsensed space straight
    /// into pillar tops the map never saw.
    pub fn dynamic_camera_rig(&self) -> CameraRig {
        let mut cameras = Self::horizontal_cameras();
        cameras.extend((0..3).map(|i| DepthCamera {
            h_res: 10,
            v_res: 5,
            mount_pitch: -0.75,
            v_fov: 0.9,
            ..DepthCamera::mounted_at(i as f64 * std::f64::consts::TAU / 3.0)
        }));
        CameraRig::new(cameras)
    }

    /// Governor configuration derived from this mission configuration.
    pub fn governor_config(&self) -> roborun_core::GovernorConfig {
        roborun_core::GovernorConfig {
            mode: self.mode,
            max_velocity: self.drone.max_speed,
            oblivious_visibility: self.profilers.min_visibility,
            waypoint_budgeting: self.waypoint_budgeting,
            ablation: self.ablation,
            ..roborun_core::GovernorConfig::default()
        }
    }
}

/// Outcome of one mission.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MissionResult {
    /// Mission-level metrics (Fig. 7 quantities).
    pub metrics: MissionMetrics,
    /// Full per-decision telemetry (Figures 5, 10, 11).
    pub telemetry: MissionTelemetry,
    /// The trajectory of drone positions over the mission (one per
    /// decision), for map plots like Fig. 9.
    pub flown_path: Vec<Vec3>,
    /// Simulation time of each [`MissionResult::flown_path`] entry
    /// (seconds), so flown positions can be judged against the world
    /// state of their instant — e.g. the dynamic-world safety audit that
    /// checks no flown point ever intersects a moving actor's true pose.
    pub flown_times: Vec<f64>,
}

/// Runs missions in a given configuration.
#[derive(Debug, Clone)]
pub struct MissionRunner {
    config: MissionConfig,
}

impl MissionRunner {
    /// Creates a runner.
    ///
    /// # Panics
    ///
    /// Panics if the drone configuration is invalid.
    pub fn new(config: MissionConfig) -> Self {
        config
            .drone
            .validate()
            .expect("invalid drone configuration");
        MissionRunner { config }
    }

    /// The runner's configuration.
    pub fn config(&self) -> &MissionConfig {
        &self.config
    }

    /// Runs one mission in the given environment.
    pub fn run(&self, env: &Environment) -> MissionResult {
        self.run_with(env, None)
    }

    /// Runs one mission against a dynamic world: the same decision loop,
    /// sensing from the snapshot field of each instant, validating
    /// trajectories against the predicted moving-obstacle occupancy and
    /// budgeting reaction time with the closing-speed term (see the
    /// [`crate::cycle`] module docs). With an actor-free world the
    /// mission is bit-identical to [`MissionRunner::run`].
    pub fn run_dynamic(&self, env: &Environment, dynamics: &DynamicWorld) -> MissionResult {
        self.run_with(env, Some(dynamics))
    }

    /// The decision loop: a thin driver of [`DecisionCycle`].
    fn run_with(&self, env: &Environment, dynamics: Option<&DynamicWorld>) -> MissionResult {
        let mut cycle = DecisionCycle::new(&self.config, env, dynamics);
        while cycle.mission_open() {
            cycle.run_decision();
        }
        cycle.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roborun_env::{DifficultyConfig, EnvironmentGenerator};

    /// A short mission (120 m) so unit tests stay fast.
    fn short_environment(seed: u64) -> Environment {
        let cfg = DifficultyConfig {
            obstacle_density: 0.35,
            obstacle_spread: 40.0,
            goal_distance: 120.0,
        };
        EnvironmentGenerator::new(cfg).generate(seed)
    }

    fn quick_config(mode: RuntimeMode) -> MissionConfig {
        MissionConfig {
            max_decisions: 600,
            max_mission_time: 1_500.0,
            ..MissionConfig::new(mode)
        }
    }

    #[test]
    fn aware_mission_reaches_goal() {
        let env = short_environment(21);
        let runner = MissionRunner::new(quick_config(RuntimeMode::SpatialAware));
        let result = runner.run(&env);
        assert!(
            result.metrics.reached_goal,
            "mission did not reach the goal"
        );
        assert!(!result.metrics.collided, "mission collided");
        assert!(result.metrics.mission_time > 0.0);
        assert!(result.metrics.decisions > 1);
        assert!(result.metrics.distance_travelled >= 100.0);
        assert!(!result.telemetry.is_empty());
        assert_eq!(result.telemetry.len(), result.metrics.decisions);
        assert!(result.flown_path.len() > 2);
    }

    #[test]
    fn oblivious_mission_reaches_goal_slowly() {
        let env = short_environment(21);
        let aware = MissionRunner::new(quick_config(RuntimeMode::SpatialAware)).run(&env);
        let oblivious_cfg = MissionConfig {
            max_decisions: 1_500,
            max_mission_time: 3_000.0,
            ..MissionConfig::new(RuntimeMode::SpatialOblivious)
        };
        let oblivious = MissionRunner::new(oblivious_cfg).run(&env);
        assert!(
            oblivious.metrics.reached_goal,
            "baseline did not reach the goal"
        );
        // The headline directions: RoboRun is faster in both velocity and
        // mission time, and uses less CPU per decision.
        assert!(
            aware.metrics.mean_velocity > 1.5 * oblivious.metrics.mean_velocity,
            "aware {} vs oblivious {} m/s",
            aware.metrics.mean_velocity,
            oblivious.metrics.mean_velocity
        );
        assert!(aware.metrics.mission_time < oblivious.metrics.mission_time);
        assert!(aware.metrics.energy_kj < oblivious.metrics.energy_kj);
        assert!(
            aware.metrics.mean_cpu_utilization < oblivious.metrics.mean_cpu_utilization,
            "aware CPU {} vs oblivious {}",
            aware.metrics.mean_cpu_utilization,
            oblivious.metrics.mean_cpu_utilization
        );
        assert!(aware.metrics.median_latency < oblivious.metrics.median_latency);
    }

    #[test]
    fn runs_are_deterministic_for_a_seed() {
        let env = short_environment(5);
        let runner = MissionRunner::new(quick_config(RuntimeMode::SpatialAware));
        let a = runner.run(&env);
        let b = runner.run(&env);
        assert_eq!(a.metrics.decisions, b.metrics.decisions);
        assert!((a.metrics.mission_time - b.metrics.mission_time).abs() < 1e-9);
        assert!((a.metrics.energy_kj - b.metrics.energy_kj).abs() < 1e-9);
    }

    #[test]
    fn open_world_mission_is_fast_for_aware_mode() {
        // No obstacles at all: the aware design should sustain (near) the
        // platform's maximum speed.
        let cfg = DifficultyConfig {
            obstacle_density: 0.01,
            obstacle_spread: 40.0,
            goal_distance: 100.0,
        };
        let env = EnvironmentGenerator::new(cfg).generate(3);
        let runner = MissionRunner::new(quick_config(RuntimeMode::SpatialAware));
        let result = runner.run(&env);
        assert!(result.metrics.reached_goal);
        assert!(
            result.metrics.mean_velocity > 1.5,
            "open-sky velocity {}",
            result.metrics.mean_velocity
        );
    }

    #[test]
    fn telemetry_records_zones_and_deadlines() {
        let env = short_environment(9);
        let runner = MissionRunner::new(quick_config(RuntimeMode::SpatialAware));
        let result = runner.run(&env);
        let zones: std::collections::HashSet<char> = result
            .telemetry
            .records()
            .iter()
            .filter_map(|r| r.zone)
            .collect();
        assert!(zones.contains(&'A'));
        for r in result.telemetry.records() {
            assert!(r.deadline > 0.0);
            assert!(r.latency() > 0.0);
            assert!(r.commanded_velocity >= 0.0);
            assert!((0.0..=1.0).contains(&r.cpu_utilization));
        }
    }

    #[test]
    fn foggy_missions_slow_down_but_mostly_stay_safe() {
        // The planner is stochastic (the paper accepts ≥80% collision-free
        // flights), so fog is assessed over several seeds: most runs must
        // still succeed, and on the runs that do, fog must cost velocity
        // relative to the clear-sky run of the same environment.
        //
        // The ceiling sits just above the pipeline's stall cliff: below
        // ~12 m of visibility the governor's safe velocity collapses and
        // missions crawl without ever reaching the goal (measured: every
        // seed stalls at 0.03–0.05 m/s with an 8–10 m ceiling).
        let mut successes = 0usize;
        let mut velocity_ratios = Vec::new();
        for seed in [21, 5, 9] {
            let env = short_environment(seed);
            let foggy_cfg = MissionConfig {
                fault_plan: FaultPlanConfig::fog(12.0),
                max_decisions: 1_500,
                max_mission_time: 3_000.0,
                ..MissionConfig::new(RuntimeMode::SpatialAware)
            };
            let foggy = MissionRunner::new(foggy_cfg).run(&env);
            for r in foggy.telemetry.records() {
                assert!(r.visibility <= 12.0 + 1e-9);
            }
            if foggy.metrics.reached_goal && !foggy.metrics.collided {
                successes += 1;
                let clear = MissionRunner::new(quick_config(RuntimeMode::SpatialAware)).run(&env);
                if clear.metrics.reached_goal {
                    velocity_ratios.push(foggy.metrics.mean_velocity / clear.metrics.mean_velocity);
                }
            }
        }
        assert!(
            successes >= 2,
            "only {successes}/3 foggy missions succeeded"
        );
        assert!(!velocity_ratios.is_empty());
        let mean_ratio: f64 = velocity_ratios.iter().sum::<f64>() / velocity_ratios.len() as f64;
        assert!(
            mean_ratio < 1.0,
            "fog did not cost velocity: mean foggy/clear ratio {mean_ratio}"
        );
    }

    #[test]
    fn oblivious_missions_record_the_fog_capped_visibility() {
        // Oblivious decisions profile only visibility; the fog cap must
        // still clamp it. The profiled visibility never falls below the
        // 2 m floor, so a 1 m cap binds on every decision.
        let env = short_environment(21);
        let cfg = MissionConfig {
            fault_plan: FaultPlanConfig::fog(1.0),
            max_decisions: 40,
            ..MissionConfig::new(RuntimeMode::SpatialOblivious)
        };
        assert!(cfg.profilers.min_visibility > 1.0);
        let result = MissionRunner::new(cfg).run(&env);
        let records = result.telemetry.records();
        assert!(!records.is_empty());
        for r in records {
            assert_eq!(r.visibility, 1.0);
        }
    }

    #[test]
    fn flaky_sensors_do_not_crash_the_mission() {
        let env = short_environment(9);
        let cfg = MissionConfig {
            fault_plan: FaultPlanConfig::flaky_sensors(0.1, 0.3),
            max_decisions: 1_200,
            max_mission_time: 3_000.0,
            ..MissionConfig::new(RuntimeMode::SpatialAware)
        };
        let result = MissionRunner::new(cfg).run(&env);
        assert!(
            result.metrics.reached_goal,
            "mission did not finish under sensor faults"
        );
        assert!(!result.metrics.collided);
    }

    #[test]
    fn safety_report_audits_a_mission() {
        use roborun_core::SafetyReport;
        let env = short_environment(21);
        let aware = MissionRunner::new(quick_config(RuntimeMode::SpatialAware)).run(&env);
        let report = SafetyReport::from_telemetry(&aware.telemetry);
        assert_eq!(report.decisions, aware.metrics.decisions);
        assert!(report.mean_budget_consumption > 0.0);
        assert!(report.tightest_deadline > 0.0);
        // The enforced invariant — latency fits the budget at the velocity
        // the runtime actually commanded — holds for almost every decision;
        // the pre-decision deadline is routinely exceeded near obstacles and
        // is reported for analysis only.
        assert!(
            report.velocity_violation_rate() < 0.1,
            "velocity-budget violation rate {} (report: {report:?})",
            report.velocity_violation_rate()
        );
        assert!(report.deadline_violations >= report.velocity_violations);
        assert!(!report.summary().is_empty());
    }

    #[test]
    fn knob_ablation_costs_mission_performance() {
        // Freezing every knob keeps the dynamic deadline but removes knob
        // adaptation, so the ablated design must be slower than full
        // RoboRun (and no faster than it on mean velocity).
        let env = short_environment(21);
        let full = MissionRunner::new(quick_config(RuntimeMode::SpatialAware)).run(&env);
        let ablated_cfg = MissionConfig {
            ablation: KnobAblation::all(),
            max_decisions: 1_500,
            max_mission_time: 3_000.0,
            ..MissionConfig::new(RuntimeMode::SpatialAware)
        };
        let ablated = MissionRunner::new(ablated_cfg).run(&env);
        assert!(full.metrics.reached_goal && ablated.metrics.reached_goal);
        assert!(
            ablated.metrics.mission_time > full.metrics.mission_time,
            "ablated {} s vs full {} s",
            ablated.metrics.mission_time,
            full.metrics.mission_time
        );
        assert!(ablated.metrics.mean_velocity <= full.metrics.mean_velocity * 1.05);
        // Every decision's knobs are pinned at the static values.
        for r in ablated.telemetry.records() {
            assert_eq!(r.knobs, roborun_core::KnobSettings::static_baseline());
        }
    }

    #[test]
    #[should_panic(expected = "invalid drone configuration")]
    fn invalid_drone_config_panics() {
        let mut cfg = MissionConfig::new(RuntimeMode::SpatialAware);
        cfg.drone.max_speed = 0.0;
        let _ = MissionRunner::new(cfg);
    }
}
