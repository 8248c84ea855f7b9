//! The decision core both mission drivers share.
//!
//! One navigation decision is the same sequence of stages whatever
//! transport carries it: **sense → profile → govern → operate
//! (perception) → cost → plan → follow**, plus the local-goal and
//! emergency-stop policies around the planning stage. This module holds
//! everything in that sequence that does not depend on the transport, in
//! two pieces both drivers own one of:
//!
//! * **The mission shell** (`MissionState`) owns the drone, the simulation
//!   clock, the energy total, the telemetry, the flown path and times,
//!   the dynamic world's pose cache, the armed [`FaultPlan`], the
//!   [`DegradationStats`], the data-age and hover-streak state of the
//!   degradation ladder and the open / collided / reached / safe-stopped
//!   flags. Per decision it opens the fault frame, senses, prices the
//!   decision (the calibrated model plus the planner fault channels),
//!   predicts the moving-obstacle boxes, evaluates the velocity law,
//!   picks the ladder rung, records the telemetry and advances the
//!   world; at the end it builds the [`MissionResult`].
//! * **The planning stage** (`PlanningStage`) owns the long-lived
//!   [`CollisionChecker`], the [`PredictedHazards`] source, the RRT*
//!   scratch buffers, the planner seed base, the planning margin and the
//!   `dynamic_replans` count. It assesses the followed trajectory
//!   (blockage, predicted conflict, in-danger), searches through
//!   [`HazardContext`] or the bare checker, vetoes fresh plans that cross
//!   predicted occupancy and builds the wedge-retreat manoeuvre.
//!
//! The direct driver ([`crate::MissionRunner`]) is `DecisionCycle`: the
//! shell and the stage plus its own occupancy map and trajectory follower,
//! every hand-off a direct call, the communication slice modeled, and the
//! `decision`, `stage:*` and `plan` trace spans. The node driver
//! ([`crate::node_pipeline`]) drives the same shell and stage from bus
//! nodes; the policy differences that remain between the two drivers are
//! listed in that module's docs.
//!
//! # Dynamic worlds: the sense / validate / budget contract
//!
//! A mission may run against a [`DynamicWorld`] (moving-obstacle actors
//! composed with the static field — see `roborun-dynamics`). The cycle
//! touches the dynamic world in exactly four places, each of which
//! degenerates to the static behaviour (bit for bit) when the world has
//! no actors:
//!
//! * **Sense** from the *snapshot* field of the current instant: the
//!   cameras see actors at their true poses, so actor surfaces enter the
//!   occupancy map like any other obstacle (and, with
//!   [`crate::MissionConfig::voxel_decay`] enabled, leave it again once
//!   their stale trail is re-observed free).
//! * **Validate** the followed trajectory and every fresh plan against
//!   the *predicted* occupancy over
//!   [`crate::MissionConfig::dynamic_lookahead`] seconds: a predicted
//!   box crossing the remaining trajectory forces a replan
//!   (`dynamic_replans`), and a fresh plan whose path crosses a
//!   predicted box is rejected. Predictions are conservative
//!   over-approximations (see the `roborun-dynamics` crate docs), so
//!   they only ever *discard* plans.
//! * **Budget** reaction time with the governor's closing-speed term
//!   ([`roborun_core::Governor::safe_velocity_closing`]): an obstacle
//!   approaching at `v_c` eats `v_c · latency` of the visible margin
//!   before the next decision can react.
//! * **Collide** against actors' true poses at every physics substep of
//!   the epoch advance, so ground-truth safety is judged against where
//!   actors actually are, never against predictions.
//!
//! Every predicted-occupancy query above goes through one
//! [`PredictedHazards`] source (see the `roborun_planning::hazard`
//! module docs for the full contract): the planning stage *composes* it with the
//! long-lived static checker once per decision and *retargets* it from
//! the fresh predicted boxes (an incremental patch mirroring the
//! checker's map-delta patch). Blockage detection and the fresh-plan
//! veto are both walks of that one source, so the planner-side and
//! validation-side notions of "clear" cannot drift.
//! With [`crate::MissionConfig::predicted_costmap`] enabled, the
//! search additionally plans *through* the
//! composed [`HazardContext`], routing around predicted lanes in one
//! shot; the posterior veto is retained as the safety net and as the
//! reference reject-loop path (bit-identical whenever the flag is off
//! or the predicted set is empty).
//!
//! # Faults and graceful degradation
//!
//! A mission may arm a deterministic
//! [`FaultPlan`]
//! ([`crate::MissionConfig::fault_plan`]) and the degradation runtime
//! ([`crate::MissionConfig::degradation`]). Every injected fault is a
//! pure function of `(plan seed, decision index)` — see the
//! `roborun-faults` crate docs for the determinism contract — and with
//! a healthy plan every hook below is compiled down to a no-op branch,
//! keeping healthy missions bit-identical to the pre-fault behaviour
//! (locked by all golden fixtures):
//!
//! * **Sensor blackout / bursts / fog** hit the shell's sensing stage,
//!   which both drivers share: a blackout loses the
//!   whole sweep and withholds map integration; fog drops the returns
//!   beyond its cap, and a burst drops and perturbs the rest through the
//!   per-decision deterministic corruptor
//!   ([`FaultFrame::corrupt_sweep`]). Fog also clamps the profiled
//!   visibility, so the deadline equation sees the shorter view. The
//!   presets [`FaultPlanConfig::fog`](roborun_faults::FaultPlanConfig::fog)
//!   (cap plus mild noise every decision) and
//!   [`FaultPlanConfig::flaky_sensors`](roborun_faults::FaultPlanConfig::flaky_sensors)
//!   (periodic blackouts plus per-point dropout and noise) cover the
//!   common degraded-sensing missions.
//! * **Stale-map epochs** withhold integration only: the planner keeps
//!   exporting from the aging map.
//! * **Planner latency spikes** inflate the modelled planning latency.
//!   With degradation armed, a **watchdog** aborts any attempt that
//!   exceeds [`crate::DegradationConfig::watchdog_budget`] (charging the
//!   full budget for the aborted attempt) and retries with
//!   multiplicatively backed-off injected latency, up to
//!   [`crate::DegradationConfig::max_retries`] times; an unrecovered
//!   abort degenerates to a forced planner failure. The fault-oblivious
//!   baseline just eats the spike, which serialises straight into the
//!   decision epoch.
//! * **Forced planner failures** leave the decision with no planner
//!   output. The degradation **fallback ladder** then runs: *reuse* the
//!   last valid trajectory while it is clear → *hover* in place
//!   (no motion command; the follower keeps its progress) → a
//!   wedge-retreat **safe-stop** once hovering has not bought a plan for
//!   [`crate::DegradationConfig::hover_limit`] consecutive decisions.
//!   A safe-stop deliberately ends the mission (`safe_stops = 1`,
//!   neither `collided` nor `reached_goal`): provably parked, not
//!   crashed.
//! * **Stale-perception derating**: the governor's data-age law
//!   ([`roborun_core::Governor::safe_velocity_stale`]) shaves the
//!   visible margin by how long ago the map last integrated fresh
//!   sensing, the same structure as the closing-speed term; perception
//!   older than [`crate::DegradationConfig::stale_hover_age`] seconds
//!   forces a hover rather than flying through unsensed space. Stale
//!   hovers never escalate to the safe-stop — hovering is indefinitely
//!   safe in a static world, and fresh sensing re-arms the mission the
//!   moment it returns.
//!
//! Each decision records its [`roborun_core::Degradation`] state in the
//! telemetry, and the mission metrics aggregate the counters
//! (`faults_injected`, `watchdog_fires`, `retries`, `degraded_decisions`,
//! `safe_stops`). The fault sweep ([`crate::sweep::run_fault_sweep`]) turns
//! this into the headline experiment: under identical fault plans the
//! fault-oblivious baseline collides or deadlocks while the
//! degradation-aware runtime completes or provably safe-stops.

use crate::metrics::MissionMetrics;
use crate::runner::{DegradationConfig, MissionConfig, MissionResult};
use roborun_control::TrajectoryFollower;
use roborun_core::{
    DecisionRecord, Degradation, Governor, KnobSettings, MissionTelemetry, Policy, RuntimeMode,
};
use roborun_dynamics::{DynamicWorld, PoseCache};
use roborun_env::{Environment, Zone};
use roborun_faults::{FaultFrame, FaultPlan};
use roborun_geom::{Aabb, Vec3};
use roborun_perception::{ExportConfig, OccupancyMap, PlannerMap, PointCloud};
use roborun_planning::{
    CollisionChecker, HazardContext, PlanError, PlanStats, Planner, PlannerConfig, PlannerScratch,
    PredictedHazards, RrtConfig, SamplingMix, Trajectory, TrajectoryPoint,
};
use roborun_sim::{CameraRig, DroneState, LatencyBreakdown, SimClock};

// ---------------------------------------------------------------------------
// Shared per-decision policies
// ---------------------------------------------------------------------------

/// Direction of travel used for the unknown-space probe: the current
/// velocity when moving, otherwise straight at the goal.
pub fn direction_towards(position: Vec3, goal: Vec3, velocity: Vec3) -> Vec3 {
    if velocity.norm() > 0.3 {
        velocity
    } else {
        goal - position
    }
}

/// How far ahead a predicted moving-obstacle conflict is actionable: the
/// distance the MAV can cover within the lookahead at its current speed
/// (with a 1 m/s floor so a hovering drone still sees adjacent
/// conflicts), plus a body-clearance allowance. Conflicts beyond this
/// range cannot materialise within the prediction horizon.
pub fn predicted_relevance_range(speed: f64, lookahead: f64, margin: f64) -> f64 {
    speed.max(1.0) * lookahead + 2.0 * margin
}

/// A short, slow straight-line manoeuvre directly away from the nearest
/// exported occupied box (straight up when the export is empty or the
/// position is swallowed by a box), clipped so it does not run into
/// other mapped occupancy. Boxes at the same surface distance go by the
/// export's proximity rank: nearer the export reference first, then the
/// smaller key. Used only to un-wedge a start-blocked drone
/// in a dynamic mission: static missions never park inside the margin
/// shell of mapped occupancy, but an escape manoeuvre or a passing actor
/// can leave a dynamic one there, where every plan is start-blocked
/// forever.
pub fn retreat_trajectory(export: &PlannerMap, pos: Vec3, margin: f64) -> Trajectory {
    let away = export
        .occupied_keys()
        .map(|key| {
            let b = export.key_box(key);
            (
                b.distance_to_point(pos),
                export.reference_distance_squared(key),
                key,
                b,
            )
        })
        .min_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("distances are never NaN")
                .then(a.1.total_cmp(&b.1))
                .then(a.2.cmp(&b.2))
        })
        .map(|(_, _, _, b)| pos - b.closest_point(pos))
        .and_then(|v| v.try_normalize())
        .unwrap_or(Vec3::Z);
    let mut length: f64 = 0.5;
    while length < 2.5 && !export.is_occupied(pos + away * (length + 0.5), margin * 0.3) {
        length += 0.5;
    }
    let speed = 0.4;
    Trajectory::new(vec![
        TrajectoryPoint {
            time: 0.0,
            position: pos,
            speed,
        },
        TrajectoryPoint {
            time: length / speed,
            position: pos + away * length,
            speed,
        },
    ])
}

/// Axis-aligned sampling bounds for the local planning problem.
pub fn planning_bounds(start: Vec3, goal: Vec3, world: Aabb) -> Aabb {
    let corridor = Aabb::new(start, goal).inflate(25.0);
    corridor.intersection(&world).unwrap_or(corridor)
}

/// Zone enum → the single-character label used in telemetry.
pub fn zone_label(zone: Zone) -> char {
    match zone {
        Zone::A => 'A',
        Zone::B => 'B',
        Zone::C => 'C',
    }
}

/// Receding-horizon local goal: a free point towards the mission goal, at
/// most `horizon` metres ahead, nudged laterally when the direct candidate
/// is blocked in the exported map at `probe_margin` clearance.
pub fn local_goal(
    env: &Environment,
    export: &PlannerMap,
    position: Vec3,
    horizon: f64,
    probe_margin: f64,
) -> Vec3 {
    let goal = env.goal();
    let to_goal = goal - position;
    let distance = to_goal.norm();
    if distance <= horizon {
        return goal;
    }
    let dir = to_goal / distance;
    let base = position + dir * horizon;
    if !export.is_occupied(base, probe_margin) {
        return base;
    }
    let lateral = Vec3::new(-dir.y, dir.x, 0.0);
    for offset in [4.0, -4.0, 8.0, -8.0, 14.0, -14.0, 20.0, -20.0] {
        let candidate = base + lateral * offset;
        if env.bounds().contains(candidate) && !export.is_occupied(candidate, probe_margin) {
            return candidate;
        }
    }
    base
}

/// The mission-level sampling mix for a config flag: the planner's
/// default weights, gated on
/// [`crate::MissionConfig::hazard_biased_sampling`]. Disabled it is the
/// planner default, so every existing plan stays bit-identical.
pub fn sampling_mix_for(enabled: bool) -> SamplingMix {
    SamplingMix {
        enabled,
        ..SamplingMix::default()
    }
}

/// The per-decision planner: decision-owned RRT* seed, the governor's
/// planner-volume knob, the planning-precision knob as the collision
/// sample spacing, and the mission's sampling mix (advisory hazard bias,
/// a no-op when disabled or hazard-free).
pub fn planner_for(
    seed_base: u64,
    decision: usize,
    knobs: &KnobSettings,
    margin: f64,
    mix: SamplingMix,
) -> Planner {
    Planner::new(PlannerConfig {
        rrt: RrtConfig {
            seed: seed_base.wrapping_add(decision as u64),
            max_explored_volume: knobs.planner_volume,
            max_samples: 900,
            sampling_mix: mix,
            ..RrtConfig::default()
        },
        margin,
        collision_check_step: planning_check_step(knobs),
        ..PlannerConfig::default()
    })
}

/// Collision-check sample spacing for a knob assignment (the planning
/// precision knob, floored at the substrate's 0.3 m).
pub fn planning_check_step(knobs: &KnobSettings) -> f64 {
    knobs.map_to_planner_precision.max(0.3)
}

/// The emergency-stop rule: a blockage is imminent when it sits inside
/// the stopping distance plus the driver's reaction window plus a
/// body-clearance allowance — the reaction the stopping-distance term of
/// Eq. 1 budgets for. Blockages further out leave time to keep flying
/// while replanning (and coarse-voxel false positives resolve as the MAV
/// gets close and precision tightens).
pub fn blockage_is_imminent(
    blockage: f64,
    stopping_distance: f64,
    reaction: f64,
    body_clearance: f64,
) -> bool {
    blockage <= stopping_distance + reaction + body_clearance
}

/// Running totals of the fault-injection and graceful-degradation
/// machinery over one mission. All zero on healthy missions with
/// degradation disarmed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DegradationStats {
    /// Fault-channel activations injected by the armed fault plan.
    pub faults_injected: usize,
    /// Decisions on which the planning watchdog aborted an over-budget
    /// planning attempt.
    pub watchdog_fires: usize,
    /// Bounded planning retries attempted after watchdog aborts.
    pub retries: usize,
    /// Decisions recorded with a non-healthy degradation state.
    pub degraded_decisions: usize,
    /// 1 when the mission ended in a deliberate wedge-retreat safe-stop.
    pub safe_stops: usize,
}

/// Applies the frame's planner fault channels to the modelled latency
/// breakdown. With degradation armed, the **watchdog** aborts any
/// planning attempt whose modelled latency would exceed the budget
/// (charging the full budget for the aborted attempt) and retries with
/// multiplicatively backed-off injected latency up to `max_retries`
/// times; an unrecovered abort degenerates to a forced planner failure.
/// The fault-oblivious baseline just eats the spike — it serialises
/// straight into the decision epoch. Returns the degradation state so
/// far and whether the decision's planner output is lost outright
/// (injected failure, or an unrecovered watchdog abort).
fn apply_planner_faults(
    breakdown: &mut LatencyBreakdown,
    frame: &FaultFrame,
    policy: &DegradationConfig,
    stats: &mut DegradationStats,
) -> (Degradation, bool) {
    let mut degradation = Degradation::Healthy;
    let mut forced_failure = frame.planner_failure;
    if frame.planner_spike > 0.0 {
        if policy.enabled {
            let nominal = breakdown.planning;
            let mut spike = frame.planner_spike;
            if nominal + spike > policy.watchdog_budget {
                stats.watchdog_fires += 1;
                // The aborted attempt still costs the full budget.
                let mut charged = policy.watchdog_budget;
                let mut recovered = false;
                for retry in 1..=policy.max_retries {
                    spike *= policy.retry_backoff;
                    let attempt = nominal + spike;
                    if attempt <= policy.watchdog_budget {
                        charged += attempt;
                        stats.retries += retry as usize;
                        recovered = true;
                        break;
                    }
                    charged += policy.watchdog_budget;
                    if retry == policy.max_retries {
                        stats.retries += retry as usize;
                    }
                }
                breakdown.planning = charged;
                if recovered {
                    degradation = Degradation::RetriedPlan;
                } else {
                    forced_failure = true;
                }
            } else {
                breakdown.planning = nominal + spike;
            }
        } else {
            breakdown.planning += frame.planner_spike;
        }
    }
    (degradation, forced_failure)
}

/// A rung of the degradation fallback ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rung {
    /// No fallback: fly the current trajectory (or brake on a blockage).
    Fly,
    /// The planner output is lost, but the last valid trajectory is clear:
    /// keep following it.
    Reuse,
    /// Issue no motion command this epoch: the physics brake the MAV in
    /// place and the follower keeps its progress.
    Hover,
    /// The ladder bottomed out: fly a wedge-retreat and end the mission.
    SafeStop,
}

/// The degradation fallback ladder for one decision. `planner_lost` is a
/// needed plan that the planner fault channels denied (no replacement was
/// installed); `reusable` is a last valid trajectory that is unfinished
/// and clear of blockages and predicted danger. A lost plan reuses that
/// trajectory while it is clear, hovers otherwise, and safe-stops once
/// `hover_limit` consecutive hovers have not bought a plan. Any other
/// decision resets the streak and hovers only on perception older than
/// `stale_hover_age` — hovering is indefinitely safe, so stale hovers
/// never escalate. Disarmed, every decision flies and the streak stays.
fn ladder_rung(
    policy: &DegradationConfig,
    hover_streak: &mut u32,
    planner_lost: bool,
    reusable: bool,
    data_age: f64,
) -> Rung {
    if !policy.enabled {
        return Rung::Fly;
    }
    if !planner_lost {
        *hover_streak = 0;
        return if data_age > policy.stale_hover_age {
            Rung::Hover
        } else {
            Rung::Fly
        };
    }
    if reusable {
        *hover_streak = 0;
        Rung::Reuse
    } else if *hover_streak >= policy.hover_limit {
        Rung::SafeStop
    } else {
        *hover_streak += 1;
        Rung::Hover
    }
}

/// Stable trace label of a degradation-ladder rung.
fn degradation_label(degradation: Degradation) -> &'static str {
    match degradation {
        Degradation::Healthy => "healthy",
        Degradation::StalePerception => "stale_perception",
        Degradation::RetriedPlan => "retried_plan",
        Degradation::ReusedTrajectory => "reused_trajectory",
        Degradation::Hover => "hover",
        Degradation::SafeStop => "safe_stop",
    }
}

// ---------------------------------------------------------------------------
// The mission shell
// ---------------------------------------------------------------------------

/// The per-mission state and transport-free decision steps both drivers
/// run (see the module docs). A driver opens each decision with
/// [`MissionState::begin_decision`] and closes it with
/// [`MissionState::record`] and [`MissionState::advance`].
pub(crate) struct MissionState<'m> {
    pub(crate) cfg: &'m MissionConfig,
    pub(crate) env: &'m Environment,
    /// The moving-obstacle world when it has actors. An actor-free world
    /// is `None`, so it behaves bit-identically to a static mission.
    live: Option<&'m DynamicWorld>,
    pub(crate) governor: Governor,
    rig: CameraRig,
    pub(crate) drone: DroneState,
    pub(crate) clock: SimClock,
    energy_joules: f64,
    telemetry: MissionTelemetry,
    flown_path: Vec<Vec3>,
    flown_times: Vec<f64>,
    // Random-walk replay anchors: every cached world view is bit-identical
    // to the plain one, but walker poses cost O(1) per decision instead of
    // O(t / dwell).
    pose_cache: PoseCache,
    // Deterministic fault plan (None when the config is healthy — the
    // whole degradation machinery then stays off the hot path).
    pub(crate) fault_plan: Option<FaultPlan>,
    pub(crate) degradation_stats: DegradationStats,
    // Simulation time of the last decision that integrated fresh sensing
    // into the map; `now - last_integration_time` is the perception data
    // age the stale-derating law sees.
    last_integration_time: f64,
    // Consecutive planner-failure hovers (the ladder escalates to a
    // safe-stop when this reaches the configured limit).
    hover_streak: u32,
    // Previous decision's ladder state, so the tracer can emit
    // degradation *transitions* instead of one instant per decision.
    last_degradation: Degradation,
    pub(crate) decisions: usize,
    collided: bool,
    reached_goal: bool,
    // The ladder bottomed out: a wedge-retreat is flown and the mission
    // deliberately ends (provably safe-stopped, not crashed).
    safe_stopped: bool,
}

impl<'m> MissionState<'m> {
    pub(crate) fn new(
        cfg: &'m MissionConfig,
        env: &'m Environment,
        dynamics: Option<&'m DynamicWorld>,
    ) -> Self {
        let live = dynamics.filter(|world| !world.is_static());
        let drone = DroneState::at(env.start());
        MissionState {
            cfg,
            env,
            live,
            governor: Governor::new(cfg.governor_config()),
            rig: match live {
                Some(_) => cfg.dynamic_camera_rig(),
                None => cfg.camera_rig(),
            },
            flown_path: vec![drone.position],
            flown_times: vec![0.0],
            drone,
            clock: SimClock::new(),
            energy_joules: 0.0,
            telemetry: MissionTelemetry::new(cfg.mode),
            pose_cache: live.map(DynamicWorld::pose_cache).unwrap_or_default(),
            fault_plan: (!cfg.fault_plan.is_healthy())
                .then(|| FaultPlan::new(cfg.fault_plan.clone())),
            degradation_stats: DegradationStats::default(),
            last_integration_time: 0.0,
            hover_streak: 0,
            last_degradation: Degradation::Healthy,
            decisions: 0,
            collided: false,
            reached_goal: false,
            safe_stopped: false,
        }
    }

    /// `true` while the mission should take another decision.
    pub(crate) fn open(&self) -> bool {
        !self.collided
            && !self.reached_goal
            && !self.safe_stopped
            && self.decisions < self.cfg.max_decisions
            && self.clock.now() < self.cfg.max_mission_time
    }

    /// `true` when the mission flies among moving actors.
    pub(crate) fn live(&self) -> bool {
        self.live.is_some()
    }

    /// Opens the next decision and returns the fault plan's verdict for it:
    /// a pure function of (plan seed, decision index), identical across
    /// drivers and runs.
    pub(crate) fn begin_decision(&mut self) -> FaultFrame {
        self.decisions += 1;
        let frame = self
            .fault_plan
            .as_ref()
            .map(|plan| plan.frame(self.decisions as u64))
            .unwrap_or_default();
        self.degradation_stats.faults_injected += frame.injected_count();
        if roborun_trace::armed() && frame.injected_count() > 0 {
            roborun_trace::collector::instant(
                roborun_trace::SpanKind::FaultInjected,
                self.clock.now(),
                &[("channels", frame.injected_count() as f64)],
            );
        }
        frame
    }

    /// Sensing: the rig's sweep from the drone's pose — in the snapshot
    /// field of this instant when actors exist, else in the static field —
    /// with the frame's sensor faults applied. A blackout loses the whole
    /// sweep (an empty cloud, never captured); otherwise fog and the burst
    /// corrupt the captured returns ([`FaultFrame::corrupt_sweep`]).
    pub(crate) fn sense(&mut self, frame: &FaultFrame) -> PointCloud {
        let pose = self.drone.pose();
        let points = if frame.sensor_blackout {
            Vec::new()
        } else {
            let captured = match self.live {
                Some(world) => {
                    let snapshot =
                        world.snapshot_field_cached(self.clock.now(), &mut self.pose_cache);
                    self.rig.capture(&snapshot, &pose)
                }
                None => self.rig.capture(self.env.field(), &pose),
            };
            frame.corrupt_sweep(pose.position, captured.points)
        };
        PointCloud::new(pose.position, points)
    }

    /// Marks this decision as having integrated fresh sensing into the map
    /// (the perception data age restarts from zero).
    pub(crate) fn integrated(&mut self) {
        self.last_integration_time = self.clock.now();
    }

    fn data_age(&self) -> f64 {
        self.clock.now() - self.last_integration_time
    }

    /// Decision cost: the calibrated model's latency breakdown for the knob
    /// assignment, with the frame's planner fault channels applied — the
    /// watchdog/retry policy (degradation armed) or the baseline's
    /// serialised spike. Returns the breakdown, the degradation state so
    /// far and whether the planner output is lost.
    pub(crate) fn modeled_cost(
        &mut self,
        knobs: &KnobSettings,
        frame: &FaultFrame,
    ) -> (LatencyBreakdown, Degradation, bool) {
        let mut breakdown = self.cfg.latency.decision_breakdown(
            knobs.point_cloud_precision,
            knobs.octomap_volume,
            knobs.map_to_planner_precision,
            knobs.map_to_planner_volume,
            knobs.map_to_planner_precision,
            knobs.planner_volume,
            self.cfg.mode.is_aware(),
        );
        let watchdog_before = self.degradation_stats.watchdog_fires;
        let (degradation, forced_failure) = apply_planner_faults(
            &mut breakdown,
            frame,
            &self.cfg.degradation,
            &mut self.degradation_stats,
        );
        if roborun_trace::armed() && self.degradation_stats.watchdog_fires > watchdog_before {
            roborun_trace::collector::instant(
                roborun_trace::SpanKind::WatchdogFire,
                self.clock.now(),
                &[],
            );
        }
        (breakdown, degradation, forced_failure)
    }

    /// The moving-obstacle boxes predicted over the configured lookahead
    /// from the current instant (empty without actors).
    pub(crate) fn predicted_boxes(&mut self) -> Vec<Aabb> {
        match self.live {
            Some(world) => world.predicted_boxes_cached(
                self.clock.now(),
                self.cfg.dynamic_lookahead,
                &mut self.pose_cache,
            ),
            None => Vec::new(),
        }
    }

    /// Safe velocity under the budget law (Eq. 1) for the decision's
    /// `latency` and `visibility`. The oblivious baseline flies its
    /// design-time velocity. The aware runtime's reaction budget also
    /// absorbs the worst closing speed of any actor that can reach the
    /// visible margin within the lookahead, and — with degradation armed
    /// and the map older than this decision — the governor's data-age law
    /// shaves the visible margin, marking a healthy decision
    /// `StalePerception`. Both extra terms are exactly zero in a static,
    /// fresh decision, where the law reduces to the plain budget.
    pub(crate) fn commanded_velocity(
        &mut self,
        latency: f64,
        visibility: f64,
        degradation: &mut Degradation,
    ) -> f64 {
        let closing_speed = match self.live {
            Some(world) => world.max_closing_speed_cached(
                self.clock.now(),
                self.drone.position,
                visibility + world.max_actor_speed() * self.cfg.dynamic_lookahead,
                &mut self.pose_cache,
            ),
            None => 0.0,
        };
        let data_age = self.data_age();
        let derate = self.cfg.degradation.enabled && data_age > 0.0;
        if derate && *degradation == Degradation::Healthy {
            *degradation = Degradation::StalePerception;
        }
        match self.cfg.mode {
            RuntimeMode::SpatialOblivious => self.governor.baseline_velocity(),
            RuntimeMode::SpatialAware => self.governor.safe_velocity_stale(
                latency,
                visibility,
                closing_speed,
                if derate { data_age } else { 0.0 },
            ),
        }
    }

    /// Climbs the degradation ladder ([`ladder_rung`]) and records the rung
    /// in `degradation`. A safe-stop ends the mission after this epoch; the
    /// caller installs or publishes the retreat it flies.
    pub(crate) fn degrade(
        &mut self,
        planner_lost: bool,
        reusable: bool,
        degradation: &mut Degradation,
    ) -> Rung {
        let data_age = self.data_age();
        let rung = ladder_rung(
            &self.cfg.degradation,
            &mut self.hover_streak,
            planner_lost,
            reusable,
            data_age,
        );
        match rung {
            Rung::Fly => {}
            Rung::Reuse => *degradation = Degradation::ReusedTrajectory,
            Rung::Hover => *degradation = Degradation::Hover,
            Rung::SafeStop => {
                self.safe_stopped = true;
                self.degradation_stats.safe_stops += 1;
                *degradation = Degradation::SafeStop;
            }
        }
        rung
    }

    /// Records the decision's telemetry and returns its CPU utilisation.
    pub(crate) fn record(
        &mut self,
        policy: &Policy,
        breakdown: LatencyBreakdown,
        commanded_velocity: f64,
        visibility: f64,
        degradation: Degradation,
    ) -> f64 {
        if degradation.is_degraded() {
            self.degradation_stats.degraded_decisions += 1;
        }
        let cpu = self.cfg.cpu.sample(
            breakdown.compute_total(),
            breakdown.total().max(self.cfg.min_epoch),
        );
        if roborun_trace::armed() && degradation != self.last_degradation {
            roborun_trace::collector::instant_labeled(
                roborun_trace::SpanKind::DegradationTransition,
                degradation_label(degradation),
                self.clock.now(),
                &[],
            );
        }
        self.last_degradation = degradation;
        self.telemetry.push(DecisionRecord {
            time: self.clock.now(),
            position: self.drone.position,
            commanded_velocity,
            visibility,
            deadline: policy.deadline,
            knobs: policy.knobs,
            breakdown,
            cpu_utilization: cpu.utilization,
            zone: Some(zone_label(self.env.zone_at(self.drone.position))),
            degradation,
        });
        cpu.utilization
    }

    /// Advances the physical world for one decision epoch (the latency,
    /// floored at the minimum epoch) in fixed 0.25 s substeps, charging
    /// energy and detecting collisions — against the static field and
    /// against every actor at its true pose of each substep. `command`
    /// yields the active trajectory's steering target and speed for a
    /// substep (the speed clamped to `commanded_velocity`), or `None` to
    /// brake along the current motion direction and hover; a `hover`
    /// epoch issues no command at all. Then appends the flown path and
    /// checks the goal.
    pub(crate) fn advance(
        &mut self,
        latency: f64,
        commanded_velocity: f64,
        hover: bool,
        mut command: impl FnMut(Vec3, f64) -> Option<(Vec3, f64)>,
    ) {
        let cfg = self.cfg;
        let body_margin = cfg.drone.body_radius * 0.8;
        let substep = 0.25f64;
        let mut remaining = latency.max(cfg.min_epoch);
        while remaining > 1e-9 {
            let dt = substep.min(remaining);
            remaining -= dt;
            let position = self.drone.position;
            let (target, speed) = match (!hover).then(|| command(position, dt)).flatten() {
                Some((target, speed)) => (target, speed.min(commanded_velocity)),
                None => (position + self.drone.velocity, 0.0),
            };
            self.drone.advance_towards(&cfg.drone, target, speed, dt);
            self.energy_joules += cfg.energy.energy_for(self.drone.speed(), dt);
            self.clock.advance(dt);
            let hit_static = self
                .env
                .field()
                .is_occupied_with_margin(self.drone.position, body_margin);
            if hit_static
                || self.live.is_some_and(|world| {
                    world.actor_hit_cached(
                        self.drone.position,
                        self.clock.now(),
                        body_margin,
                        &mut self.pose_cache,
                    )
                })
            {
                self.collided = true;
                break;
            }
        }
        self.flown_path.push(self.drone.position);
        self.flown_times.push(self.clock.now());
        if !self.collided && self.drone.position.distance(self.env.goal()) <= cfg.goal_tolerance {
            self.reached_goal = true;
        }
    }

    /// The mission result, with `dynamic_replans` from the planning stage.
    pub(crate) fn finish(self, dynamic_replans: usize) -> MissionResult {
        if roborun_trace::armed() {
            // Spill this thread's buffered events at the mission boundary.
            roborun_trace::collector::flush();
        }
        let mission_time = self.clock.now().max(1e-9);
        let telemetry = &self.telemetry;
        let stats = &self.degradation_stats;
        let metrics = MissionMetrics {
            mode: self.cfg.mode,
            mission_time,
            energy_kj: self.energy_joules / 1000.0,
            mean_velocity: self.drone.distance_travelled / mission_time,
            mean_cpu_utilization: telemetry.mean_cpu_utilization(),
            median_latency: telemetry.median_latency().unwrap_or(0.0),
            p95_latency: telemetry.p95_latency().unwrap_or(0.0),
            p99_latency: telemetry.p99_latency().unwrap_or(0.0),
            max_latency: telemetry.max_latency().unwrap_or(0.0),
            decisions: self.decisions,
            distance_travelled: self.drone.distance_travelled,
            reached_goal: self.reached_goal,
            collided: self.collided,
            dynamic_replans,
            faults_injected: stats.faults_injected,
            watchdog_fires: stats.watchdog_fires,
            retries: stats.retries,
            degraded_decisions: stats.degraded_decisions,
            safe_stops: stats.safe_stops,
        };
        MissionResult {
            metrics,
            telemetry: self.telemetry,
            flown_path: self.flown_path,
            flown_times: self.flown_times,
        }
    }
}

// ---------------------------------------------------------------------------
// The planning stage
// ---------------------------------------------------------------------------

/// What the planning stage found on the followed trajectory.
pub(crate) struct Assessment {
    /// Straight-line distance to the nearer of the first mapped blockage
    /// and the first predicted conflict on the remaining trajectory.
    pub(crate) blockage: Option<f64>,
    /// The drone's own position sits inside the predicted occupancy of a
    /// moving obstacle: escape beats braking.
    pub(crate) in_danger: bool,
}

/// The planning state both drivers keep for a whole mission (see the
/// module docs).
pub(crate) struct PlanningStage {
    // One collision checker lives across the whole mission: each search
    // refreshes its broad phase from the export delta instead of
    // rebuilding it from scratch (the margin never changes mid-run).
    collision: Option<CollisionChecker>,
    // The predicted (soft) hazard source, retargeted every decision from
    // the predicted boxes — the other half of the composed hazard
    // context. Empty (and inert) in static worlds.
    hazards: PredictedHazards,
    // RRT* search buffers, reused by every plan (allocation reuse only:
    // each plan is bit-identical to a fresh one).
    scratch: PlannerScratch,
    seed_base: u64,
    pub(crate) margin: f64,
    horizon: f64,
    lookahead: f64,
    predicted_costmap: bool,
    mix: SamplingMix,
    /// Decisions where a predicted moving-obstacle conflict (or danger)
    /// forced a replan.
    pub(crate) dynamic_replans: usize,
}

impl PlanningStage {
    pub(crate) fn new(cfg: &MissionConfig, env_seed: u64) -> Self {
        let margin = cfg.drone.body_radius * cfg.planning_margin_factor;
        PlanningStage {
            collision: None,
            hazards: PredictedHazards::new(Vec::new(), margin * 0.6, Vec3::ZERO, 0.0),
            scratch: PlannerScratch::new(),
            seed_base: cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(env_seed),
            margin,
            horizon: cfg.planning_horizon,
            lookahead: cfg.dynamic_lookahead,
            predicted_costmap: cfg.predicted_costmap,
            mix: sampling_mix_for(cfg.hazard_biased_sampling),
            dynamic_replans: 0,
        }
    }

    /// Retargets the predicted hazard source at this decision's boxes
    /// (an incremental patch: only boxes that moved touch it) within the
    /// relevance range, then assesses the remaining part of `followed`
    /// (a trajectory and the progress along it). The mapped blockage is
    /// the first point colliding with `export` at `margin * 0.6` — the
    /// planner's inflated export voxels without double-counting the full
    /// margin. A moving obstacle predicted to cross the remaining
    /// trajectory is a blockage too, judged at the distance the conflict
    /// sits from the drone, and a predicted box over the drone's own
    /// position puts it in danger; either counts a dynamic replan.
    pub(crate) fn assess(
        &mut self,
        predicted: &[Aabb],
        export: &PlannerMap,
        followed: Option<(&Trajectory, f64)>,
        position: Vec3,
        speed: f64,
    ) -> Assessment {
        let range = predicted_relevance_range(speed, self.lookahead, self.margin);
        self.hazards.retarget(predicted, position, range);
        let in_danger = self.hazards.any_within(position, self.margin);
        let (mapped, conflict) = followed.map_or((None, None), |(trajectory, progress)| {
            let remaining = trajectory.remaining_from(progress);
            let points = remaining.points();
            let mapped = points
                .iter()
                .find(|p| export.is_occupied(p.position, self.margin * 0.6))
                .map(|p| p.position.distance(position));
            let conflict = self
                .hazards
                .first_conflict(points.iter().map(|p| p.position))
                .map(|p| p.distance(position));
            (mapped, conflict)
        });
        if conflict.is_some() || in_danger {
            self.dynamic_replans += 1;
        }
        let blockage = match (mapped, conflict) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        };
        Assessment {
            blockage,
            in_danger,
        }
    }

    /// Searches decision `decision`'s plan from `start` to the local goal
    /// (probed at `goal_probe` clearance) through the long-lived checker,
    /// refreshed from `export`'s delta. With the predicted costmap on and
    /// predicted boxes present, the search runs against the composed
    /// [`HazardContext`] so it routes around predicted lanes in one shot;
    /// a failed one-shot search falls back to the bare checker, whose
    /// plan the fresh-plan veto ([`PlanningStage::admits`]) then governs.
    /// Escape plans always use the bare checker: the drone is already
    /// inside a predicted box and any way out starts in conflict. With a
    /// `fine_map`, a start-blocked search retries at once against that
    /// map's worst-case-precision export: a coarse export voxel can
    /// swallow the drone's own (physically free) position.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn search(
        &mut self,
        env: &Environment,
        export: &PlannerMap,
        fine_map: Option<&OccupancyMap>,
        knobs: &KnobSettings,
        decision: usize,
        start: Vec3,
        goal_probe: f64,
        commanded_velocity: f64,
        escape: bool,
    ) -> Result<(Trajectory, PlanStats), PlanError> {
        let goal = local_goal(env, export, start, self.horizon, goal_probe);
        let bounds = planning_bounds(start, goal, env.bounds());
        let planner = planner_for(self.seed_base, decision, knobs, self.margin, self.mix);
        let check_step = planning_check_step(knobs);
        match self.collision.as_mut() {
            Some(checker) => {
                checker.update_map(export.clone());
                checker.set_check_step(check_step);
            }
            None => {
                self.collision = Some(CollisionChecker::new(
                    export.clone(),
                    self.margin,
                    check_step,
                ));
            }
        }
        let checker = self.collision.as_mut().expect("checker just initialised");
        let cruise = commanded_velocity.max(0.5);
        if self.predicted_costmap && !escape && !self.hazards.is_empty() {
            let mut context = HazardContext::new(checker, &self.hazards);
            let outcome = planner.plan_with_scratch(
                &mut context,
                start,
                goal,
                &bounds,
                cruise,
                &mut self.scratch,
            );
            if outcome.is_ok() {
                return outcome;
            }
        }
        let outcome =
            planner.plan_with_scratch(checker, start, goal, &bounds, cruise, &mut self.scratch);
        match fine_map {
            Some(map) if matches!(outcome, Err(PlanError::StartBlocked)) => {
                let fine_export = PlannerMap::export(
                    map,
                    &ExportConfig::new(map.resolution(), knobs.map_to_planner_volume, start),
                );
                planner.plan(&fine_export, start, goal, &bounds, cruise)
            }
            _ => outcome,
        }
    }

    /// The fresh-plan veto: a plan that crosses the predicted
    /// moving-obstacle occupancy is rejected like a failed plan — the
    /// planner only knows where actors *are* (their mapped voxels), the
    /// prediction knows where they may be within the lookahead. An
    /// *escape* plan is exempt: when the drone's own position is already
    /// inside a predicted box, any plan starts in conflict and moving out
    /// beats hovering in a crossing lane.
    pub(crate) fn admits(&self, trajectory: &Trajectory, escape: bool) -> bool {
        escape
            || self
                .hazards
                .path_clear(trajectory.points().iter().map(|p| p.position))
    }

    /// The wedge-retreat from `position` out of `export`'s margin shell
    /// ([`retreat_trajectory`]).
    pub(crate) fn retreat(&self, export: &PlannerMap, position: Vec3) -> Trajectory {
        retreat_trajectory(export, position, self.margin)
    }
}

// ---------------------------------------------------------------------------
// The direct driver
// ---------------------------------------------------------------------------

/// Emits one [`roborun_trace::SpanKind::Plan`] event carrying the
/// planner's per-invocation counters (zero-length on the sim clock — the
/// planning *stage* span already shows the modeled latency; this event
/// carries the search internals and the measured wall time). No-op when
/// disarmed.
fn emit_plan_span(stats: &PlanStats, sim_time: f64, timer: &Option<roborun_trace::WallTimer>) {
    if !roborun_trace::armed() {
        return;
    }
    roborun_trace::collector::complete(
        roborun_trace::SpanKind::Plan,
        sim_time,
        0.0,
        roborun_trace::timer_ns(timer),
        &[
            ("samples_drawn", stats.samples_drawn as f64),
            ("tree_size", stats.tree_size as f64),
            ("rewires", stats.rewires as f64),
            ("collision_queries", stats.collision_queries as f64),
            ("explored_volume", stats.explored_volume),
            ("volume_capped", f64::from(u8::from(stats.volume_capped))),
        ],
    );
}

/// Output of the direct driver's planning stage.
struct Planned {
    /// The followed trajectory's blockage distance and danger.
    assessment: Assessment,
    /// Whether a replacement trajectory was installed this decision.
    replanned: bool,
    /// Whether this decision needed a plan at all (cadence, finished
    /// trajectory, blockage or danger) — the degradation ladder only
    /// engages when a needed plan failed.
    needed: bool,
}

/// The direct driver: the mission shell and the planning stage plus the
/// driver's own occupancy map and trajectory follower, advanced one
/// decision at a time by [`DecisionCycle::run_decision`].
/// [`crate::MissionRunner`] owns nothing beyond its config.
///
/// An oblivious mission's decisions profile visibility only
/// ([`roborun_core::Profilers::visibility`]): the static policy reads
/// nothing else, so the gap clustering, volumes and waypoint probes of the
/// full profile would be priced for no reader. The node driver's
/// perception node still publishes the full profile in both modes (see
/// the [`crate::node_pipeline`] module docs).
pub(crate) struct DecisionCycle<'m> {
    state: MissionState<'m>,
    stage: PlanningStage,
    map: OccupancyMap,
    follower: Option<TrajectoryFollower>,
    decisions_since_plan: usize,
}

impl<'m> DecisionCycle<'m> {
    pub(crate) fn new(
        cfg: &'m MissionConfig,
        env: &'m Environment,
        dynamics: Option<&'m DynamicWorld>,
    ) -> Self {
        let state = MissionState::new(cfg, env, dynamics);
        let mut map = OccupancyMap::new(state.governor.config().ranges.precision_min);
        map.set_stale_decay(cfg.voxel_decay);
        DecisionCycle {
            state,
            stage: PlanningStage::new(cfg, env.seed()),
            map,
            follower: None,
            decisions_since_plan: usize::MAX / 2, // force an initial plan
        }
    }

    /// `true` while the mission should take another decision.
    pub(crate) fn mission_open(&self) -> bool {
        self.state.open()
    }

    // ------------------------------------------------------------ stages

    /// Profiling and governing: the decision's visibility, clamped to the
    /// frame's fog cap, and the policy. An aware mission profiles the full
    /// Table I state for the governor to solve from; an oblivious one
    /// profiles visibility only (see [`DecisionCycle`]).
    fn profile_and_govern(&self, cloud: &PointCloud, frame: &FaultFrame) -> (f64, Policy) {
        let state = &self.state;
        let heading =
            direction_towards(state.drone.position, state.env.goal(), state.drone.velocity);
        // Fog also limits how far the MAV can trust its view, which the
        // deadline equation must see.
        let fogged = |visibility: f64| frame.fog_cap.map_or(visibility, |cap| visibility.min(cap));
        if !state.cfg.mode.is_aware() {
            let seen = state
                .cfg
                .profilers
                .visibility(&self.map, state.drone.position, heading);
            return (fogged(seen.visibility), state.governor.oblivious_policy());
        }
        let mut profile = state.cfg.profilers.profile(
            cloud,
            &self.map,
            self.follower.as_ref().map(|f| f.trajectory()),
            state.drone.position,
            state.drone.speed(),
            heading,
        );
        profile.visibility = fogged(profile.visibility);
        (profile.visibility, state.governor.decide(&profile))
    }

    /// Perception operators: downsample, volume-limit, integrate, retain,
    /// export under the policy's knobs. A blackout or stale-map fault
    /// withholds integration entirely — the planner keeps exporting from
    /// the aging map, and the data age feeds the stale-derating law.
    fn apply_operators(
        &mut self,
        cloud: &PointCloud,
        knobs: &KnobSettings,
        stale: bool,
    ) -> PlannerMap {
        let position = self.state.drone.position;
        if !stale {
            // Stamp the decay epoch before integrating: with voxel decay
            // enabled, this decision's occupied observations are "fresh"
            // and older ones age against this counter (no-op when decay
            // is off).
            self.map.set_epoch(self.state.decisions as u64);
            let downsampled = cloud.downsampled(knobs.point_cloud_precision);
            let limited = downsampled.volume_limited(position, knobs.octomap_volume);
            // Substrate note: free-space carving uses a step no finer than
            // 0.5 m regardless of the knob — the latency charged for the
            // stage comes from the calibrated model, so the carve step only
            // affects map fidelity, not the reported cost.
            let carve_step = knobs.point_cloud_precision.max(0.5);
            self.map.integrate_cloud(&limited, carve_step);
            self.map
                .retain_within(position, self.state.cfg.map_retain_radius);
            self.state.integrated();
        }
        PlannerMap::export(
            &self.map,
            &ExportConfig::new(
                knobs.map_to_planner_precision,
                knobs.map_to_planner_volume,
                position,
            ),
        )
    }

    /// Planning: assess the followed trajectory against the fresh export
    /// and the predicted boxes, and replan when the cadence, a finished
    /// trajectory, a blockage or danger asks for it. A forced planner
    /// failure (fault plan, or an unrecovered watchdog abort) means no
    /// planner output exists this decision: planning is skipped outright
    /// and the degradation ladder (or, for the fault-oblivious baseline,
    /// nothing at all) takes over.
    fn plan(
        &mut self,
        export: &PlannerMap,
        knobs: &KnobSettings,
        commanded_velocity: f64,
        forced_failure: bool,
    ) -> Planned {
        let predicted = self.state.predicted_boxes();
        let assessment = self.stage.assess(
            &predicted,
            export,
            self.follower
                .as_ref()
                .map(|f| (f.trajectory(), f.progress_time())),
            self.state.drone.position,
            self.state.drone.speed(),
        );
        let needed = self.follower.as_ref().is_none_or(|f| f.finished())
            || self.decisions_since_plan >= self.state.cfg.replan_every
            || assessment.blockage.is_some()
            || assessment.in_danger;
        let replanned = needed
            && !forced_failure
            && self.replan(export, knobs, commanded_velocity, assessment.in_danger);
        Planned {
            assessment,
            replanned,
            needed,
        }
    }

    fn install_trajectory(&mut self, trajectory: Trajectory) {
        match self.follower.as_mut() {
            Some(f) => f.replace_trajectory(trajectory),
            None => self.follower = Some(TrajectoryFollower::new(trajectory, 0.5)),
        }
        self.decisions_since_plan = 0;
    }

    /// The planning path: search through the planning stage (a
    /// start-blocked search retries at once against the worst-case
    /// precision export), retreat when still wedged in a live world, and
    /// install a plan the fresh-plan veto admits.
    fn replan(
        &mut self,
        export: &PlannerMap,
        knobs: &KnobSettings,
        commanded_velocity: f64,
        escape: bool,
    ) -> bool {
        let plan_timer = roborun_trace::timer();
        let position = self.state.drone.position;
        let outcome = self.stage.search(
            self.state.env,
            export,
            Some(&self.map),
            knobs,
            self.state.decisions,
            position,
            self.state.cfg.drone.body_radius * 1.5,
            commanded_velocity,
            escape,
        );
        match outcome {
            Err(PlanError::StartBlocked) if self.state.live() => {
                // Wedged: the drone's own position sits inside the margin
                // shell of mapped occupancy even at the finest export.
                // Static missions cannot reach this state (planned paths
                // keep the margin), but a dynamic mission can — an escape
                // manoeuvre or a passing actor can leave the MAV parked
                // against a surface, where every plan is start-blocked
                // forever. Back straight out of the margin shell so the
                // next decision can plan.
                let retreat = self.stage.retreat(export, position);
                self.install_trajectory(retreat);
                true
            }
            Ok((trajectory, stats)) => {
                emit_plan_span(&stats, self.state.clock.now(), &plan_timer);
                // A vetoed plan leaves the emergency-stop policy in charge
                // until the conflict clears.
                if !self.stage.admits(&trajectory, escape) {
                    return false;
                }
                self.install_trajectory(trajectory);
                true
            }
            Err(_) => false,
        }
    }

    /// Emergency stop: the remaining trajectory collides with the freshly
    /// observed map *within stopping range* and no replacement was found
    /// this decision — brake and hover until a valid plan exists. Never
    /// triggered while the drone sits inside predicted moving-obstacle
    /// occupancy: braking there parks the MAV in a crossing lane, and
    /// the escape plan (or the old trajectory) moving it *anywhere* is
    /// safer than holding station.
    fn emergency_stop(&mut self, planned: &Planned, latency: f64) {
        if planned.assessment.in_danger || planned.replanned {
            return;
        }
        if let Some(distance) = planned.assessment.blockage {
            let speed = self.state.drone.speed();
            let governor = self.state.governor.config();
            let stop_distance = governor.budgeter.stopping.stopping_distance(speed);
            // Reaction distance: the drone keeps moving for one decision
            // epoch before the next chance to brake.
            let reaction = speed * latency.max(self.state.cfg.min_epoch);
            let body_clearance = 2.0 * self.state.cfg.drone.body_radius;
            if blockage_is_imminent(distance, stop_distance, reaction, body_clearance) {
                self.follower = None;
            }
        }
    }

    // ------------------------------------------------------- the driver

    /// Runs one full decision: every stage in order. The caller loops
    /// while [`DecisionCycle::mission_open`].
    pub(crate) fn run_decision(&mut self) {
        let decision_timer = roborun_trace::timer();
        let frame = self.state.begin_decision();
        let t0 = self.state.clock.now();

        // sense → profile → govern → operate → cost.
        let cloud = self.state.sense(&frame);
        let (visibility, policy) = self.profile_and_govern(&cloud, &frame);
        let knobs = policy.knobs;
        let export = self.apply_operators(&cloud, &knobs, frame.sensor_blackout || frame.map_stale);
        let (breakdown, mut degradation, forced_failure) = self.state.modeled_cost(&knobs, &frame);
        self.decisions_since_plan += 1;
        let latency = breakdown.total();
        let commanded_velocity =
            self.state
                .commanded_velocity(latency, visibility, &mut degradation);

        // Plan, then the degradation ladder and the emergency-stop policy.
        let planned = self.plan(&export, &knobs, commanded_velocity, forced_failure);
        let reusable = self.follower.as_ref().is_some_and(|f| !f.finished())
            && planned.assessment.blockage.is_none()
            && !planned.assessment.in_danger;
        let rung = self.state.degrade(
            forced_failure && planned.needed && !planned.replanned,
            reusable,
            &mut degradation,
        );
        match rung {
            Rung::SafeStop => {
                let retreat = self.stage.retreat(&export, self.state.drone.position);
                self.install_trajectory(retreat);
            }
            Rung::Fly | Rung::Reuse => self.emergency_stop(&planned, latency),
            Rung::Hover => {}
        }

        let cpu = self.state.record(
            &policy,
            breakdown,
            commanded_velocity,
            visibility,
            degradation,
        );
        if roborun_trace::armed() {
            // The decision span covers the latency window; the seven stage
            // spans partition it exactly, so the exporter's coverage check
            // holds by construction.
            roborun_trace::collector::complete(
                roborun_trace::SpanKind::Decision,
                t0,
                latency,
                roborun_trace::timer_ns(&decision_timer),
                &[
                    ("decision", self.state.decisions as f64),
                    ("velocity", commanded_velocity),
                    ("visibility", visibility),
                    ("cpu", cpu),
                ],
            );
            let mut cursor = t0;
            for (kind, (_, duration)) in roborun_trace::SpanKind::STAGES
                .iter()
                .zip(breakdown.stages())
            {
                roborun_trace::collector::complete(*kind, cursor, duration, 0, &[]);
                cursor += duration;
            }
        }

        // Advance the world for the epoch. A hovering decision issues no
        // motion command; the follower keeps its progress so a later
        // decision can resume it.
        let follower = &mut self.follower;
        self.state.advance(
            latency,
            commanded_velocity,
            rung == Rung::Hover,
            |position, dt| match follower.as_mut() {
                Some(f) if !f.finished() => {
                    let cmd = f.update(position, dt);
                    Some((cmd.target, cmd.speed))
                }
                _ => None,
            },
        );
    }

    /// Final mission result.
    pub(crate) fn finish(self) -> MissionResult {
        self.state.finish(self.stage.dynamic_replans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Retreat backs away from the nearest exported box; between boxes at
    /// exactly the same surface distance it picks the one nearer the
    /// export reference (centre distance²), then the smaller key.
    #[test]
    fn retreat_breaks_surface_distance_ties_by_reference_distance_then_key() {
        // Two voxels 2 m either side of `pos` along x, at keys (4, 0, 0)
        // and (-5, 0, 0) of a 0.5 m map.
        let pos = Vec3::new(0.0, 0.25, 0.25);
        let mut map = OccupancyMap::new(0.5);
        let hits = vec![Vec3::new(2.25, 0.25, 0.25), Vec3::new(-2.25, 0.25, 0.25)];
        map.integrate_cloud(&PointCloud::new(pos, hits), 0.5);
        let retreat_from = |reference: Vec3| {
            let export = PlannerMap::export(&map, &ExportConfig::new(0.5, 1e9, reference));
            assert_eq!(export.len(), 2);
            let trajectory = retreat_trajectory(&export, pos, 0.5);
            let end = trajectory.end_position().expect("two-point retreat");
            (end - pos).normalize()
        };
        // The +x voxel is nearer the reference: back away along −x.
        assert_eq!(retreat_from(Vec3::new(1.0, 0.0, 0.0)), -Vec3::X);
        // The −x voxel is nearer the reference: back away along +x.
        assert_eq!(retreat_from(Vec3::new(-1.0, 0.0, 0.0)), Vec3::X);
        // Equidistant from the reference too: the smaller key (−5, 0, 0)
        // wins, so back away along +x.
        assert_eq!(retreat_from(Vec3::new(0.0, 5.0, 1.0)), Vec3::X);
    }

    fn armed() -> DegradationConfig {
        DegradationConfig {
            enabled: true,
            ..DegradationConfig::default()
        }
    }

    #[test]
    fn ladder_reuse_resets_and_hover_extends_the_streak() {
        let policy = armed();
        let mut streak = 3;
        assert_eq!(
            ladder_rung(&policy, &mut streak, true, true, 0.0),
            Rung::Reuse
        );
        assert_eq!(streak, 0);
        assert_eq!(
            ladder_rung(&policy, &mut streak, true, false, 0.0),
            Rung::Hover
        );
        assert_eq!(streak, 1);
        // A decision whose plan was not lost flies and resets the streak.
        assert_eq!(
            ladder_rung(&policy, &mut streak, false, false, 0.0),
            Rung::Fly
        );
        assert_eq!(streak, 0);
    }

    #[test]
    fn ladder_safe_stops_after_hover_limit_consecutive_hovers() {
        let policy = armed();
        let mut streak = 0;
        for hovered in 1..=policy.hover_limit {
            assert_eq!(
                ladder_rung(&policy, &mut streak, true, false, 0.0),
                Rung::Hover
            );
            assert_eq!(streak, hovered);
        }
        assert_eq!(
            ladder_rung(&policy, &mut streak, true, false, 0.0),
            Rung::SafeStop
        );
        // One hover short of the limit, the failing decision still hovers.
        let mut streak = policy.hover_limit - 1;
        assert_eq!(
            ladder_rung(&policy, &mut streak, true, false, 0.0),
            Rung::Hover
        );
        assert_eq!(streak, policy.hover_limit);
    }

    #[test]
    fn stale_hovers_never_escalate() {
        let policy = armed();
        let stale = policy.stale_hover_age + 1.0;
        let mut streak = 0;
        for _ in 0..3 * policy.hover_limit {
            assert_eq!(
                ladder_rung(&policy, &mut streak, false, false, stale),
                Rung::Hover
            );
            assert_eq!(streak, 0);
        }
        // Exactly at the age limit the decision still flies.
        let at_limit = policy.stale_hover_age;
        assert_eq!(
            ladder_rung(&policy, &mut streak, false, true, at_limit),
            Rung::Fly
        );
    }

    #[test]
    fn disarmed_ladder_always_flies_and_keeps_the_streak() {
        let policy = DegradationConfig::default();
        assert!(!policy.enabled);
        let stale = policy.stale_hover_age + 1.0;
        for (lost, reusable, age) in [(true, false, 0.0), (true, true, 0.0), (false, false, stale)]
        {
            let mut streak = policy.hover_limit;
            assert_eq!(
                ladder_rung(&policy, &mut streak, lost, reusable, age),
                Rung::Fly
            );
            assert_eq!(streak, policy.hover_limit);
        }
    }
}
