//! The mission pipeline run as a middleware node graph.
//!
//! The paper implements RoboRun "on top of the Robot Operating System
//! (ROS), which provides inter-process communication" (Section III-A); the
//! direct [`crate::MissionRunner`] collapses that transport into a modeled
//! `comm` term. This module is the faithful alternative: the same
//! perception → runtime → planning → control loop, but with every stage a
//! named node on a [`roborun_middleware::MessageBus`] and every
//! stage-to-stage hand-off an actual typed message on a topic. The
//! communication slice of each decision's latency breakdown is then
//! *measured* from the bytes that really crossed the bus rather than
//! modeled, and the node graph / per-topic traffic can be inspected the way
//! `rqt_graph` and `ros2 topic info` would show them.
//!
//! The physics-facing edge (reading the drone state, applying velocity
//! commands at the 4 Hz control substep) stays a direct call, exactly as the
//! flight-controller interface does on a real MAV.

use crate::cycle::{self, direction_towards, planning_bounds, zone_label, DegradationStats};
use crate::runner::{MissionConfig, MissionResult};
use roborun_control::TrajectoryFollower;
use roborun_core::{
    DecisionRecord, Degradation, Governor, MissionTelemetry, Policy, Profilers, RuntimeMode,
    SpatialProfile,
};
use roborun_dynamics::DynamicWorld;
use roborun_env::{Environment, ObstacleField};
use roborun_faults::{FaultFrame, FaultPlan, FaultyBus};
use roborun_geom::{Aabb, Vec3};
use roborun_middleware::{
    CommLatencyModel, GraphInfo, Message, MessageBus, MiddlewareError, Node, Publisher, QosProfile,
    Stamped, Subscription,
};
use roborun_perception::{ExportConfig, OccupancyMap, PlannerMap, PointCloud};
use roborun_planning::{CollisionChecker, PlanError, PlannerScratch, PredictedHazards, Trajectory};
use roborun_sim::{CameraRig, DroneState, SimClock, StoppingModel};
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Message types
// ---------------------------------------------------------------------------

/// A point cloud sample on `/sensors/points`.
#[derive(Debug, Clone)]
pub struct PointCloudMsg(pub PointCloud);

impl Message for PointCloudMsg {
    fn approx_size_bytes(&self) -> usize {
        // origin + 3 × f64 per point, the size a PointCloud2 payload would
        // have at this density.
        24 + self.0.len() * 24
    }
    fn type_name() -> &'static str {
        "roborun/PointCloud"
    }
}

/// Drone odometry on `/sensors/odometry`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OdometryMsg {
    /// Position (metres).
    pub position: Vec3,
    /// Velocity vector (m/s).
    pub velocity: Vec3,
    /// Ground speed (m/s).
    pub speed: f64,
}

impl Message for OdometryMsg {
    fn approx_size_bytes(&self) -> usize {
        56
    }
    fn type_name() -> &'static str {
        "roborun/Odometry"
    }
}

/// The profiled spatial state on `/runtime/profile`.
#[derive(Debug, Clone)]
pub struct ProfileMsg(pub SpatialProfile);

impl Message for ProfileMsg {
    fn approx_size_bytes(&self) -> usize {
        96 + self.0.upcoming_waypoints.len() * 40
    }
    fn type_name() -> &'static str {
        "roborun/SpatialProfile"
    }
}

/// The governor's policy on `/runtime/policy`.
#[derive(Debug, Clone, Copy)]
pub struct PolicyMsg(pub Policy);

impl Message for PolicyMsg {
    fn approx_size_bytes(&self) -> usize {
        80
    }
    fn type_name() -> &'static str {
        "roborun/Policy"
    }
}

/// The pruned planner map on `/perception/planner_map`.
#[derive(Debug, Clone)]
pub struct PlannerMapMsg(pub PlannerMap);

impl Message for PlannerMapMsg {
    fn approx_size_bytes(&self) -> usize {
        // Two corners per occupied box.
        32 + self.0.len() * 48
    }
    fn type_name() -> &'static str {
        "roborun/PlannerMap"
    }
}

/// A freshly planned trajectory on `/planning/trajectory`.
#[derive(Debug, Clone)]
pub struct TrajectoryMsg(pub Trajectory);

impl Message for TrajectoryMsg {
    fn approx_size_bytes(&self) -> usize {
        16 + self.0.len() * 56
    }
    fn type_name() -> &'static str {
        "roborun/Trajectory"
    }
}

/// Planner feedback on `/planning/feedback`.
///
/// The perception node listens to this to fall back to the worst-case
/// export precision when the planner reports that the drone's own position
/// is swallowed by a coarse occupied voxel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanningFeedbackMsg {
    /// `true` when the last planning attempt failed because the start
    /// position was inside an occupied region of the exported map.
    pub start_blocked: bool,
}

impl Message for PlanningFeedbackMsg {
    fn approx_size_bytes(&self) -> usize {
        8
    }
    fn type_name() -> &'static str {
        "roborun/PlanningFeedback"
    }
}

/// Controller progress feedback on `/control/status`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlStatusMsg {
    /// `true` when the active trajectory has been completed.
    pub finished: bool,
    /// Progress (seconds of trajectory time) along the active trajectory.
    pub progress_time: f64,
    /// Current cross-track error (metres).
    pub tracking_error: f64,
}

impl Message for ControlStatusMsg {
    fn approx_size_bytes(&self) -> usize {
        24
    }
    fn type_name() -> &'static str {
        "roborun/ControlStatus"
    }
}

// ---------------------------------------------------------------------------
// Pipeline nodes
// ---------------------------------------------------------------------------

/// Drains a subscription to its newest sample like
/// [`Subscription::latest`], but surfaces structural failures instead of
/// silently swallowing them: a corrupted payload
/// ([`MiddlewareError::PayloadTypeCorrupted`]) bumps the node's
/// corruption counter and the frame is *skipped* — the consumer keeps
/// its previous cached value and retries on the next sample — rather
/// than terminating the pipeline. The counters surface as degraded
/// decisions in the telemetry.
fn latest_checked<T: Message>(sub: &Subscription<T>, corrupted: &mut u64) -> Option<Stamped<T>> {
    let mut newest = None;
    loop {
        match sub.recv_checked() {
            Ok(Some(sample)) => newest = Some(sample),
            Ok(None) => return newest,
            Err(MiddlewareError::PayloadTypeCorrupted { .. }) => *corrupted += 1,
            // Any other structural failure (unknown topic/subscription —
            // a peer dropped mid-mission) leaves the cached value in
            // place; the caller's None-handling degrades gracefully.
            Err(_) => return newest,
        }
    }
}

struct SensorNode {
    rig: CameraRig,
    points_pub: Publisher<PointCloudMsg>,
    odom_pub: Publisher<OdometryMsg>,
}

impl SensorNode {
    fn new(node: &Node, rig: CameraRig) -> Self {
        SensorNode {
            rig,
            points_pub: node.publisher("/sensors/points").expect("points topic"),
            odom_pub: node.publisher("/sensors/odometry").expect("odometry topic"),
        }
    }

    fn spin(&mut self, field: &ObstacleField, drone: &DroneState, frame: &FaultFrame) {
        // A blacked-out sweep still crosses the bus as an empty cloud
        // (the frame header a real driver would publish), so downstream
        // nodes observe the blackout rather than hanging.
        let cloud = cycle::sense_cloud(&self.rig, field, &drone.pose(), frame);
        let _ = self.points_pub.publish(PointCloudMsg(cloud));
        let _ = self.odom_pub.publish(OdometryMsg {
            position: drone.position,
            velocity: drone.velocity,
            speed: drone.speed(),
        });
    }
}

struct PerceptionNode {
    map: OccupancyMap,
    profilers: Profilers,
    map_retain_radius: f64,
    cloud_sub: Subscription<PointCloudMsg>,
    odom_sub: Subscription<OdometryMsg>,
    policy_sub: Subscription<PolicyMsg>,
    trajectory_sub: Subscription<TrajectoryMsg>,
    feedback_sub: Subscription<PlanningFeedbackMsg>,
    profile_pub: Publisher<ProfileMsg>,
    map_pub: Publisher<PlannerMapMsg>,
    latest_cloud: Option<PointCloud>,
    latest_odom: Option<OdometryMsg>,
    latest_policy: Option<Policy>,
    latest_trajectory: Option<Trajectory>,
    planner_start_blocked: bool,
    /// Decision counter stamped onto the map as the voxel-decay epoch.
    epochs: u64,
    /// A cloud sample arrived since the last integration — a lossy link
    /// dropping `/sensors/points` must not let a stale cached cloud
    /// masquerade as fresh sensing (the data-age law depends on it).
    cloud_fresh: bool,
    /// Corrupted samples skipped by the checked subscription drains.
    corrupted: u64,
}

impl PerceptionNode {
    fn new(node: &Node, config: &MissionConfig, map_resolution: f64) -> Self {
        let mut map = OccupancyMap::new(map_resolution);
        map.set_stale_decay(config.voxel_decay);
        PerceptionNode {
            map,
            profilers: config.profilers,
            map_retain_radius: config.map_retain_radius,
            cloud_sub: node
                .subscribe("/sensors/points", QosProfile::sensor_data())
                .expect("points subscription"),
            odom_sub: node
                .subscribe("/sensors/odometry", QosProfile::sensor_data())
                .expect("odometry subscription"),
            policy_sub: node
                .subscribe("/runtime/policy", QosProfile::latched(1))
                .expect("policy subscription"),
            trajectory_sub: node
                .subscribe("/planning/trajectory", QosProfile::latched(1))
                .expect("trajectory subscription"),
            feedback_sub: node
                .subscribe("/planning/feedback", QosProfile::latched(1))
                .expect("feedback subscription"),
            profile_pub: node.publisher("/runtime/profile").expect("profile topic"),
            map_pub: node
                .publisher("/perception/planner_map")
                .expect("planner map topic"),
            latest_cloud: None,
            latest_odom: None,
            latest_policy: None,
            latest_trajectory: None,
            planner_start_blocked: false,
            epochs: 0,
            cloud_fresh: false,
            corrupted: 0,
        }
    }

    /// First half of the perception stage: ingest the newest sensor data
    /// and publish the profiled spatial state the governor needs, with
    /// the visibility clamped to the decision's `fog_cap`.
    ///
    /// Unlike the direct driver, which profiles only visibility for an
    /// oblivious mission, this node publishes the full profile in both
    /// modes: the driver charges its communication slice from the bytes on
    /// the bus ([`Message::approx_size_bytes`]), so a smaller profile
    /// message would change the oblivious node missions' simulated time.
    fn profile_spin(&mut self, goal: Vec3, fog_cap: Option<f64>) {
        if let Some(sample) = latest_checked(&self.cloud_sub, &mut self.corrupted) {
            self.latest_cloud = Some(sample.message.0);
            self.cloud_fresh = true;
        }
        if let Some(sample) = latest_checked(&self.odom_sub, &mut self.corrupted) {
            self.latest_odom = Some(sample.message);
        }
        if let Some(sample) = latest_checked(&self.trajectory_sub, &mut self.corrupted) {
            self.latest_trajectory = Some(sample.message.0);
        }
        let (Some(cloud), Some(odom)) = (self.latest_cloud.as_ref(), self.latest_odom) else {
            return;
        };
        let heading = direction_towards(odom.position, goal, odom.velocity);
        let mut profile = self.profilers.profile(
            cloud,
            &self.map,
            self.latest_trajectory.as_ref(),
            odom.position,
            odom.speed,
            heading,
        );
        if let Some(cap) = fog_cap {
            // Fog also limits how far the MAV can trust its view, which
            // the deadline equation must see.
            profile.visibility = profile.visibility.min(cap);
        }
        let _ = self.profile_pub.publish(ProfileMsg(profile));
    }

    /// Second half of the perception stage: apply the governor's precision
    /// and volume operators, update the occupancy map and publish the
    /// pruned planner map. Integration is withheld on a stale decision
    /// (blackout / stale-map fault) or when no fresh cloud arrived (a
    /// lossy link dropped the sweep) — the planner keeps exporting from
    /// the aging map. Returns `true` when fresh sensing was integrated.
    fn map_spin(&mut self, stale: bool) -> bool {
        if let Some(sample) = latest_checked(&self.policy_sub, &mut self.corrupted) {
            self.latest_policy = Some(sample.message.0);
        }
        if let Some(sample) = latest_checked(&self.feedback_sub, &mut self.corrupted) {
            self.planner_start_blocked = sample.message.start_blocked;
        }
        let (Some(cloud), Some(odom), Some(policy)) = (
            self.latest_cloud.as_ref(),
            self.latest_odom,
            self.latest_policy,
        ) else {
            return false;
        };
        let knobs = policy.knobs;
        let integrate = self.cloud_fresh && !stale;
        if integrate {
            self.cloud_fresh = false;
            let downsampled = cloud.downsampled(knobs.point_cloud_precision);
            let limited = downsampled.volume_limited(odom.position, knobs.octomap_volume);
            let carve_step = knobs.point_cloud_precision.max(0.5);
            self.epochs += 1;
            self.map.set_epoch(self.epochs);
            self.map.integrate_cloud(&limited, carve_step);
            self.map
                .retain_within(odom.position, self.map_retain_radius);
        }
        // When the planner reported that the drone's own position is
        // swallowed by a coarse occupied voxel, export at the worst-case
        // (finest) precision until it recovers — the same fallback a
        // spatial-oblivious pipeline gets for free.
        let export_precision = if self.planner_start_blocked {
            self.map.resolution()
        } else {
            knobs.map_to_planner_precision
        };
        let export = PlannerMap::export(
            &self.map,
            &ExportConfig::new(export_precision, knobs.map_to_planner_volume, odom.position),
        );
        let _ = self.map_pub.publish(PlannerMapMsg(export));
        integrate
    }
}

struct RuntimeNode {
    governor: Governor,
    profile_sub: Subscription<ProfileMsg>,
    policy_pub: Publisher<PolicyMsg>,
    latest_profile: Option<SpatialProfile>,
    /// Corrupted samples skipped by the checked subscription drains.
    corrupted: u64,
}

impl RuntimeNode {
    fn new(node: &Node, governor: Governor) -> Self {
        RuntimeNode {
            governor,
            profile_sub: node
                .subscribe("/runtime/profile", QosProfile::reliable(2))
                .expect("profile subscription"),
            policy_pub: node.publisher("/runtime/policy").expect("policy topic"),
            latest_profile: None,
            corrupted: 0,
        }
    }

    fn spin(&mut self) -> Option<Policy> {
        if let Some(sample) = latest_checked(&self.profile_sub, &mut self.corrupted) {
            self.latest_profile = Some(sample.message.0);
        }
        let profile = self.latest_profile.as_ref()?;
        let policy = self.governor.decide(profile);
        let _ = self.policy_pub.publish(PolicyMsg(policy));
        Some(policy)
    }

    /// The velocity the runtime allows for the next epoch given the actual
    /// decision latency, the worst closing speed of any sensed moving
    /// obstacle (zero in a static world) and the age of the last map
    /// integration (zero with fresh perception or degradation disarmed).
    /// With both extra terms zero this reduces exactly to the plain
    /// budget law.
    fn commanded_velocity(
        &self,
        mode: RuntimeMode,
        latency: f64,
        closing_speed: f64,
        data_age: f64,
    ) -> f64 {
        match mode {
            RuntimeMode::SpatialOblivious => self.governor.baseline_velocity(),
            RuntimeMode::SpatialAware => {
                let visibility = self
                    .latest_profile
                    .as_ref()
                    .map(|p| p.visibility)
                    .unwrap_or(self.governor.config().oblivious_visibility);
                if data_age > 0.0 {
                    self.governor
                        .safe_velocity_stale(latency, visibility, closing_speed, data_age)
                } else {
                    self.governor
                        .safe_velocity_closing(latency, visibility, closing_speed)
                }
            }
        }
    }

    fn latest_visibility(&self) -> f64 {
        self.latest_profile
            .as_ref()
            .map(|p| p.visibility)
            .unwrap_or(self.governor.config().oblivious_visibility)
    }
}

struct PlanningNode {
    seed_base: u64,
    margin: f64,
    planning_horizon: f64,
    dynamic_lookahead: f64,
    replan_every: usize,
    /// Plan through the composed hazard context (predicted boxes as soft
    /// obstacles) instead of only vetoing finished plans.
    predicted_costmap: bool,
    /// Bias a share of RRT* proposals toward hazard gap regions (see
    /// [`crate::MissionConfig::hazard_biased_sampling`]).
    hazard_biased_sampling: bool,
    stopping: StoppingModel,
    map_sub: Subscription<PlannerMapMsg>,
    policy_sub: Subscription<PolicyMsg>,
    odom_sub: Subscription<OdometryMsg>,
    status_sub: Subscription<ControlStatusMsg>,
    trajectory_pub: Publisher<TrajectoryMsg>,
    feedback_pub: Publisher<PlanningFeedbackMsg>,
    latest_map: Option<PlannerMap>,
    latest_policy: Option<Policy>,
    latest_odom: Option<OdometryMsg>,
    latest_status: Option<ControlStatusMsg>,
    active_trajectory: Option<Trajectory>,
    decisions_since_plan: usize,
    decisions: usize,
    emergency_stop: bool,
    /// Long-lived collision checker, refreshed from the export delta per
    /// replan.
    collision: Option<CollisionChecker>,
    /// The per-mission predicted hazard source, retargeted from the
    /// decision's predicted boxes (incremental patch) — the node's half
    /// of the composed hazard context, mirroring the direct driver's.
    hazards: PredictedHazards,
    /// RRT* search buffers reused across plans (allocation reuse only,
    /// mirroring the direct driver's).
    scratch: PlannerScratch,
    /// Decisions where a predicted moving-obstacle conflict forced a
    /// replan (always zero in static worlds).
    dynamic_replans: usize,
    /// Consecutive decisions whose planning attempt was start-blocked —
    /// after the fine-export fallback has had its chance, a dynamic
    /// mission retreats out of the margin shell instead of hovering.
    start_blocked_streak: usize,
    /// Corrupted samples skipped by the checked subscription drains.
    corrupted: u64,
}

/// What the planning spin decided — the coordinator's view of the stage,
/// mirroring the direct driver's `Planned` so the degradation ladder can
/// run outside the node.
#[derive(Clone, Copy)]
struct NodePlanned {
    /// Whether this decision needed a plan at all.
    needed: bool,
    /// Whether a replacement trajectory was installed/published.
    replanned: bool,
    /// A blockage (mapped or predicted) sits on the remaining trajectory.
    blocked: bool,
    /// The blockage is within stopping range.
    imminent: bool,
    /// The drone's own position sits inside predicted occupancy.
    in_danger: bool,
}

impl PlanningNode {
    fn new(node: &Node, config: &MissionConfig, env_seed: u64) -> Self {
        let margin = config.drone.body_radius * config.planning_margin_factor;
        PlanningNode {
            seed_base: config.seed.wrapping_mul(0x9E37_79B9).wrapping_add(env_seed),
            margin,
            planning_horizon: config.planning_horizon,
            dynamic_lookahead: config.dynamic_lookahead,
            replan_every: config.replan_every,
            predicted_costmap: config.predicted_costmap,
            hazard_biased_sampling: config.hazard_biased_sampling,
            stopping: StoppingModel::paper_default(),
            map_sub: node
                .subscribe("/perception/planner_map", QosProfile::reliable(2))
                .expect("planner map subscription"),
            policy_sub: node
                .subscribe("/runtime/policy", QosProfile::latched(1))
                .expect("policy subscription"),
            odom_sub: node
                .subscribe("/sensors/odometry", QosProfile::sensor_data())
                .expect("odometry subscription"),
            status_sub: node
                .subscribe("/control/status", QosProfile::reliable(2))
                .expect("status subscription"),
            trajectory_pub: node
                .publisher("/planning/trajectory")
                .expect("trajectory topic"),
            feedback_pub: node
                .publisher("/planning/feedback")
                .expect("feedback topic"),
            latest_map: None,
            latest_policy: None,
            latest_odom: None,
            latest_status: None,
            active_trajectory: None,
            decisions_since_plan: usize::MAX / 2,
            decisions: 0,
            emergency_stop: false,
            collision: None,
            hazards: PredictedHazards::new(Vec::new(), margin * 0.6, Vec3::ZERO, 0.0),
            scratch: PlannerScratch::new(),
            dynamic_replans: 0,
            start_blocked_streak: 0,
            corrupted: 0,
        }
    }

    /// Ingests the newest samples from every subscription into the cached
    /// latest-value fields.
    fn refresh_inputs(&mut self) {
        if let Some(sample) = latest_checked(&self.map_sub, &mut self.corrupted) {
            self.latest_map = Some(sample.message.0);
        }
        if let Some(sample) = latest_checked(&self.policy_sub, &mut self.corrupted) {
            self.latest_policy = Some(sample.message.0);
        }
        if let Some(sample) = latest_checked(&self.odom_sub, &mut self.corrupted) {
            self.latest_odom = Some(sample.message);
        }
        if let Some(sample) = latest_checked(&self.status_sub, &mut self.corrupted) {
            self.latest_status = Some(sample.message);
        }
    }

    /// `true` when the active trajectory was found to collide with the
    /// latest map and no replacement plan was produced this decision — the
    /// controller must brake until a valid plan exists.
    fn emergency_stop_needed(&self) -> bool {
        self.emergency_stop
    }

    fn local_goal(&self, env: &Environment, export: &PlannerMap, position: Vec3) -> Vec3 {
        cycle::local_goal(
            env,
            export,
            position,
            self.planning_horizon,
            self.margin * 0.9,
        )
    }

    /// Distance from the drone to the first remaining-trajectory point that
    /// collides with the latest map, or `None` when the trajectory is clear.
    fn first_blockage_distance(&self, position: Vec3) -> Option<f64> {
        let (Some(trajectory), Some(map)) =
            (self.active_trajectory.as_ref(), self.latest_map.as_ref())
        else {
            return None;
        };
        let progress = self.latest_status.map(|s| s.progress_time).unwrap_or(0.0);
        cycle::first_blockage_distance(trajectory, progress, map, self.margin, position)
    }

    /// `true` when the last valid trajectory can still be followed (the
    /// degradation ladder's reuse rung).
    fn can_reuse(&self) -> bool {
        self.active_trajectory.is_some() && !self.latest_status.map(|s| s.finished).unwrap_or(true)
    }

    /// Publishes a wedge-retreat trajectory — the bottom of the
    /// degradation ladder: back straight out of the nearest mapped
    /// surface's margin shell and park.
    fn publish_retreat(&mut self, position: Vec3) {
        let Some(map) = self.latest_map.as_ref() else {
            return;
        };
        let retreat = cycle::retreat_trajectory(map, position, self.margin);
        self.active_trajectory = Some(retreat.clone());
        self.decisions_since_plan = 0;
        let _ = self.trajectory_pub.publish(TrajectoryMsg(retreat));
    }

    /// Drops the active trajectory (the fault-oblivious baseline's
    /// imminent-blockage brake on a forced-failure decision).
    fn drop_trajectory(&mut self) {
        self.active_trajectory = None;
    }

    fn spin(
        &mut self,
        env: &Environment,
        commanded_velocity: f64,
        predicted: &[Aabb],
        forced_failure: bool,
    ) -> NodePlanned {
        self.decisions += 1;
        self.decisions_since_plan += 1;
        self.refresh_inputs();
        let idle = NodePlanned {
            needed: false,
            replanned: false,
            blocked: false,
            imminent: false,
            in_danger: false,
        };
        let (Some(map), Some(policy), Some(odom)) = (
            self.latest_map.as_ref(),
            self.latest_policy,
            self.latest_odom,
        ) else {
            return idle;
        };
        let finished = self
            .latest_status
            .map(|s| s.finished)
            .unwrap_or(self.active_trajectory.is_none());
        let static_blockage = self.first_blockage_distance(odom.position);
        // A moving obstacle predicted to cross the remaining trajectory
        // forces the same replan/brake machinery as a mapped blockage
        // (same policy as the direct driver's cycle). Every predicted
        // query below walks the per-mission hazard source, retargeted
        // here from this decision's boxes (an incremental patch);
        // conflicts beyond the relevance range are not actionable.
        let relevance_range =
            cycle::predicted_relevance_range(odom.speed, self.dynamic_lookahead, self.margin);
        self.hazards
            .retarget(predicted, odom.position, relevance_range);
        let predicted_blockage = self.active_trajectory.as_ref().and_then(|trajectory| {
            let progress = self.latest_status.map(|s| s.progress_time).unwrap_or(0.0);
            let remaining = trajectory.remaining_from(progress);
            self.hazards
                .first_conflict(remaining.points().iter().map(|p| p.position))
                .map(|p| p.distance(odom.position))
        });
        // A predicted box over the drone's own position forces an escape
        // replan and suppresses braking (the in-danger policy shared
        // with the direct driver).
        let in_danger = self.hazards.any_within(odom.position, self.margin);
        if predicted_blockage.is_some() || in_danger {
            self.dynamic_replans += 1;
        }
        let blockage = cycle::merge_blockages(static_blockage, predicted_blockage);
        // Brake only when the blockage sits inside the stopping range: the
        // budget law (Eq. 1) guarantees the MAV can react to anything it
        // sees that close, while blockages further out leave time to keep
        // flying and replan.
        let imminent_blockage = blockage.is_some_and(|distance| {
            // Stopping distance plus one second of reaction (≈ one decision
            // epoch of continued motion before the next chance to brake).
            cycle::blockage_is_imminent(
                distance,
                self.stopping.stopping_distance(odom.speed),
                odom.speed,
                2.0 * self.margin,
            )
        });
        let need_plan = self.active_trajectory.is_none()
            || finished
            || self.decisions_since_plan >= self.replan_every
            || blockage.is_some()
            || in_danger;
        self.emergency_stop = false;
        let planned = NodePlanned {
            needed: need_plan,
            replanned: false,
            blocked: blockage.is_some(),
            imminent: imminent_blockage,
            in_danger,
        };
        if !need_plan {
            return planned;
        }
        // A forced planner failure (fault plan, or an unrecovered
        // watchdog abort) means no planner output exists this decision:
        // planning is skipped outright and the coordinator's degradation
        // ladder takes over.
        if forced_failure {
            return planned;
        }
        let knobs = policy.knobs;
        let local_goal = self.local_goal(env, map, odom.position);
        let bounds = planning_bounds(odom.position, local_goal, env.bounds());
        let planner = cycle::planner_for(
            self.seed_base,
            self.decisions,
            &knobs,
            self.margin,
            cycle::sampling_mix_for(self.hazard_biased_sampling),
        );
        let cruise = commanded_velocity.max(0.5);
        // One checker across the mission, refreshed from the export
        // delta; the predicted costmap composes it with the predicted
        // boxes so the search routes around lanes in one shot.
        let check_step = cycle::planning_check_step(&knobs);
        match self.collision.as_mut() {
            Some(checker) => {
                checker.update_map(map.clone());
                checker.set_check_step(check_step);
            }
            None => {
                self.collision = Some(CollisionChecker::new(map.clone(), self.margin, check_step));
            }
        }
        let one_shot = self.predicted_costmap && !self.hazards.is_empty() && !in_danger;
        let outcome = cycle::plan_through_hazards(
            &planner,
            self.collision.as_mut().expect("checker just initialised"),
            &self.hazards,
            one_shot,
            odom.position,
            local_goal,
            &bounds,
            cruise,
            &mut self.scratch,
        );
        // Tell perception whether the exported map swallowed our own
        // position, so it can fall back to the worst-case export precision.
        let start_blocked = matches!(outcome, Err(PlanError::StartBlocked));
        let _ = self
            .feedback_pub
            .publish(PlanningFeedbackMsg { start_blocked });
        if start_blocked {
            self.start_blocked_streak += 1;
        } else {
            self.start_blocked_streak = 0;
        }
        // Wedged in a dynamic mission: the fine-export fallback has had
        // its decision and the start is still blocked — back out of the
        // margin shell so planning can recover (same manoeuvre as the
        // direct driver's cycle).
        if start_blocked && self.start_blocked_streak >= 2 && !predicted.is_empty() {
            let retreat = cycle::retreat_trajectory(map, odom.position, self.margin);
            self.active_trajectory = Some(retreat.clone());
            self.decisions_since_plan = 0;
            let _ = self.trajectory_pub.publish(TrajectoryMsg(retreat));
            return NodePlanned {
                replanned: true,
                ..planned
            };
        }
        match outcome {
            // A fresh plan that crosses the predicted moving-obstacle
            // occupancy is rejected like a failed plan — unless it is an
            // *escape* plan from inside a predicted box, where moving
            // out beats hovering in a crossing lane (same policy as the
            // direct driver's cycle).
            Ok((trajectory, _stats))
                if in_danger
                    || self
                        .hazards
                        .path_clear(trajectory.points().iter().map(|p| p.position)) =>
            {
                self.active_trajectory = Some(trajectory.clone());
                self.decisions_since_plan = 0;
                let _ = self.trajectory_pub.publish(TrajectoryMsg(trajectory));
                NodePlanned {
                    replanned: true,
                    ..planned
                }
            }
            Ok(_) | Err(_) if imminent_blockage && !in_danger => {
                // The old trajectory collides within stopping range and no
                // replacement was found: ask the controller to brake
                // (Eq. 1's stopping-distance reaction) and drop the stale
                // trajectory.
                self.active_trajectory = None;
                self.emergency_stop = true;
                planned
            }
            _ => planned,
        }
    }
}

struct ControlNode {
    follower: Option<TrajectoryFollower>,
    lookahead: f64,
    trajectory_sub: Subscription<TrajectoryMsg>,
    status_pub: Publisher<ControlStatusMsg>,
    last_tracking_error: f64,
    /// Corrupted samples skipped by the checked subscription drains.
    corrupted: u64,
}

impl ControlNode {
    fn new(node: &Node) -> Self {
        ControlNode {
            follower: None,
            lookahead: 0.5,
            trajectory_sub: node
                .subscribe("/planning/trajectory", QosProfile::latched(1))
                .expect("trajectory subscription"),
            status_pub: node.publisher("/control/status").expect("status topic"),
            last_tracking_error: 0.0,
            corrupted: 0,
        }
    }

    /// Adopts the newest trajectory (if one arrived) at the start of the
    /// epoch.
    fn begin_epoch(&mut self) {
        if let Some(sample) = latest_checked(&self.trajectory_sub, &mut self.corrupted) {
            let trajectory = sample.message.0;
            match self.follower.as_mut() {
                Some(f) => f.replace_trajectory(trajectory),
                None => self.follower = Some(TrajectoryFollower::new(trajectory, self.lookahead)),
            }
        }
    }

    /// Drops the active trajectory so the drone brakes and hovers until a
    /// new plan arrives.
    fn brake(&mut self) {
        self.follower = None;
    }

    /// One control substep: where to steer and how fast. Returns `None`
    /// when no trajectory is active (hover in place).
    fn update(&mut self, position: Vec3, dt: f64) -> Option<(Vec3, f64)> {
        let follower = self.follower.as_mut()?;
        if follower.finished() {
            return None;
        }
        let cmd = follower.update(position, dt);
        self.last_tracking_error = cmd.tracking_error;
        Some((cmd.target, cmd.speed))
    }

    /// Publishes progress feedback at the end of the epoch.
    fn end_epoch(&self) {
        let (finished, progress) = match self.follower.as_ref() {
            Some(f) => (f.finished(), f.progress_time()),
            None => (true, 0.0),
        };
        let _ = self.status_pub.publish(ControlStatusMsg {
            finished,
            progress_time: progress,
            tracking_error: self.last_tracking_error,
        });
    }
}

// ---------------------------------------------------------------------------
// The pipeline coordinator
// ---------------------------------------------------------------------------

/// Configuration of a node-graph mission run.
#[derive(Debug, Clone)]
pub struct NodePipelineConfig {
    /// The underlying mission configuration (mode, drone, models, caps).
    pub mission: MissionConfig,
    /// Transport-cost model for the bus.
    pub comm: CommLatencyModel,
}

impl NodePipelineConfig {
    /// A default node-pipeline configuration for the given runtime mode.
    pub fn new(mode: RuntimeMode) -> Self {
        NodePipelineConfig {
            mission: MissionConfig::new(mode),
            comm: CommLatencyModel::default(),
        }
    }
}

/// Outcome of a node-graph mission run.
#[derive(Debug, Clone)]
pub struct NodePipelineResult {
    /// The same metrics/telemetry a direct [`crate::MissionRunner`] run
    /// produces (the `communication` slice of each breakdown is measured
    /// from bus traffic).
    pub mission: MissionResult,
    /// Snapshot of the node graph and per-topic traffic at mission end.
    pub graph: GraphInfo,
    /// Measured transport latency charged per decision (seconds).
    pub comm_per_decision: Vec<f64>,
}

/// Runs missions through the middleware node graph.
#[derive(Debug, Clone)]
pub struct NodePipeline {
    config: NodePipelineConfig,
}

impl NodePipeline {
    /// Creates a pipeline runner.
    ///
    /// # Panics
    ///
    /// Panics if the drone configuration is invalid.
    pub fn new(config: NodePipelineConfig) -> Self {
        config
            .mission
            .drone
            .validate()
            .expect("invalid drone configuration");
        NodePipeline { config }
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &NodePipelineConfig {
        &self.config
    }

    /// Runs one mission in the given environment, returning the mission
    /// result plus the node-graph view of it.
    pub fn run(&self, env: &Environment) -> NodePipelineResult {
        self.run_with(env, None)
    }

    /// Runs one mission against a dynamic world: the same node graph,
    /// sensing from the snapshot field of each instant, validating the
    /// planner node's trajectory against predicted moving-obstacle
    /// occupancy and budgeting velocity with the closing-speed term.
    /// With an actor-free world the run is bit-identical to
    /// [`NodePipeline::run`].
    pub fn run_dynamic(&self, env: &Environment, dynamics: &DynamicWorld) -> NodePipelineResult {
        self.run_with(env, Some(dynamics))
    }

    fn run_with(&self, env: &Environment, dynamics: Option<&DynamicWorld>) -> NodePipelineResult {
        let cfg = &self.config.mission;
        let live = dynamics.filter(|world| !world.is_static());
        let mut pose_cache = dynamics.map(DynamicWorld::pose_cache).unwrap_or_default();
        // An armed fault plan wraps the bus in its deterministic
        // link-fault model (message loss / duplication / delay on the
        // configured topics); a healthy plan leaves the bus untouched.
        let fault_plan =
            (!cfg.fault_plan.is_healthy()).then(|| FaultPlan::new(cfg.fault_plan.clone()));
        let bus = {
            let bus = MessageBus::new(self.config.comm);
            match fault_plan.as_ref().and_then(FaultPlan::link_faults) {
                Some(model) => FaultyBus::new(bus, model).bus(),
                None => bus,
            }
        };
        let governor = Governor::new(cfg.governor_config());
        let map_resolution = governor.config().ranges.precision_min;

        // Node handles. The coordinator (flight interface) owns the drone
        // state and the physics stepping, like the autopilot board would.
        let sensor_host = Node::new(&bus, "camera_rig").expect("sensor node");
        let perception_host = Node::new(&bus, "perception").expect("perception node");
        let runtime_host = Node::new(&bus, "runtime_governor").expect("runtime node");
        let planning_host = Node::new(&bus, "planner").expect("planning node");
        let control_host = Node::new(&bus, "controller").expect("control node");

        let mut sensor = SensorNode::new(
            &sensor_host,
            match live {
                Some(_) => cfg.dynamic_camera_rig(),
                None => cfg.camera_rig(),
            },
        );
        let mut perception = PerceptionNode::new(&perception_host, cfg, map_resolution);
        let mut runtime = RuntimeNode::new(&runtime_host, governor);
        let mut planning = PlanningNode::new(&planning_host, cfg, env.seed());
        let mut control = ControlNode::new(&control_host);

        let mut drone = DroneState::at(env.start());
        let mut clock = SimClock::new();
        let mut telemetry = MissionTelemetry::new(cfg.mode);
        let mut flown_path = vec![drone.position];
        let mut flown_times = vec![0.0];
        let mut comm_per_decision = Vec::new();
        let mut energy_joules = 0.0;
        let mut collided = false;
        let mut reached_goal = false;
        let mut decisions = 0usize;
        let mut comm_seen = 0.0;
        let mut degradation_stats = DegradationStats::default();
        let mut last_integration_time = 0.0;
        let mut hover_streak = 0u32;
        let mut corrupted_seen = 0u64;
        while decisions < cfg.max_decisions && clock.now() < cfg.max_mission_time {
            decisions += 1;
            bus.set_time(clock.now());

            // The fault plan's verdict for this decision: a pure function
            // of (plan seed, decision index), identical across drivers.
            let frame = fault_plan
                .as_ref()
                .map(|plan| plan.frame(decisions as u64))
                .unwrap_or_default();
            degradation_stats.faults_injected += frame.injected_count();

            // Sensor → perception profiling → governor → perception map →
            // planning, all over topics. With actors, sensing captures
            // the snapshot field of this instant.
            let snapshot;
            let sense_field = match live {
                Some(world) => {
                    snapshot = world.snapshot_field_cached(clock.now(), &mut pose_cache);
                    &snapshot
                }
                None => env.field(),
            };
            sensor.spin(sense_field, &drone, &frame);
            perception.profile_spin(env.goal(), frame.fog_cap);
            let Some(policy) = runtime.spin() else { break };
            let stale_map = frame.sensor_blackout || frame.map_stale;
            if perception.map_spin(stale_map) {
                last_integration_time = clock.now();
            }
            let data_age = clock.now() - last_integration_time;

            let knobs = policy.knobs;
            let mut breakdown = cfg.latency.decision_breakdown(
                knobs.point_cloud_precision,
                knobs.octomap_volume,
                knobs.map_to_planner_precision,
                knobs.map_to_planner_volume,
                knobs.map_to_planner_precision,
                knobs.planner_volume,
                cfg.mode.is_aware(),
            );
            // Planner fault channels: the watchdog/retry policy
            // (degradation armed) or the baseline's serialised spike —
            // the same shared arithmetic as the direct driver.
            let (mut degradation, forced_failure) = cycle::apply_planner_faults(
                &mut breakdown,
                &frame,
                &cfg.degradation,
                &mut degradation_stats,
            );
            let predicted = live.map_or_else(Vec::new, |world| {
                world.predicted_boxes_cached(clock.now(), cfg.dynamic_lookahead, &mut pose_cache)
            });
            // Planning needs the commanded velocity; compute it from the
            // model-predicted compute cost plus the comm charged so far this
            // decision (the planning hop is added below and reflected in the
            // recorded breakdown).
            let comm_so_far = bus.total_transport_latency() - comm_seen;
            let provisional_latency = breakdown.compute_total() + comm_so_far;
            // Actors that can reach the visible margin within the
            // lookahead eat into the reaction budget (same rule as the
            // direct driver's cycle).
            let closing_speed = live.map_or(0.0, |world| {
                world.max_closing_speed_cached(
                    clock.now(),
                    drone.position,
                    runtime.latest_visibility() + world.max_actor_speed() * cfg.dynamic_lookahead,
                    &mut pose_cache,
                )
            });
            // Stale-perception derating: with degradation armed and the
            // map older than this decision, the governor's data-age law
            // shaves the visible margin (the direct driver's rule;
            // `data_age` is exactly 0.0 on decisions that integrated, so
            // the healthy path never enters the stale arm).
            let derate = cfg.degradation.enabled && data_age > 0.0;
            let commanded_velocity = runtime.commanded_velocity(
                cfg.mode,
                provisional_latency,
                closing_speed,
                if derate { data_age } else { 0.0 },
            );
            if derate && degradation == Degradation::Healthy {
                degradation = Degradation::StalePerception;
            }

            let planned = planning.spin(env, commanded_velocity, &predicted, forced_failure);
            // Degradation ladder — the same policy as the direct driver:
            // reuse the last valid trajectory while it is clear, hover in
            // place otherwise, and bottom out in a wedge-retreat safe-stop
            // once hovering has not bought a plan for `hover_limit`
            // consecutive decisions. Stale hovers never escalate.
            let mut hover = false;
            let mut safe_stop = false;
            if cfg.degradation.enabled {
                if forced_failure && planned.needed && !planned.replanned {
                    if planning.can_reuse() && !planned.blocked && !planned.in_danger {
                        degradation = Degradation::ReusedTrajectory;
                        hover_streak = 0;
                    } else if hover_streak >= cfg.degradation.hover_limit {
                        planning.publish_retreat(drone.position);
                        safe_stop = true;
                        degradation_stats.safe_stops += 1;
                        degradation = Degradation::SafeStop;
                    } else {
                        hover = true;
                        hover_streak += 1;
                        degradation = Degradation::Hover;
                    }
                } else {
                    hover_streak = 0;
                    if data_age > cfg.degradation.stale_hover_age {
                        hover = true;
                        degradation = Degradation::Hover;
                    }
                }
            }
            control.begin_epoch();
            // The fault-oblivious baseline's forced-failure decision still
            // honours the imminent-blockage brake the direct driver's
            // emergency-stop policy applies (no replacement plan exists,
            // so the stale trajectory is dropped and the MAV brakes).
            let baseline_brake = !cfg.degradation.enabled
                && forced_failure
                && planned.needed
                && !planned.replanned
                && planned.imminent
                && !planned.in_danger;
            if baseline_brake {
                planning.drop_trajectory();
            }
            if !hover && !safe_stop && (planning.emergency_stop_needed() || baseline_brake) {
                control.brake();
            }
            // Corrupted payloads drained off any subscription this decision
            // are a degradation event even when nothing else is.
            let corrupted_total =
                perception.corrupted + runtime.corrupted + planning.corrupted + control.corrupted;
            if corrupted_total > corrupted_seen && degradation == Degradation::Healthy {
                degradation = Degradation::StalePerception;
            }
            corrupted_seen = corrupted_total;
            if degradation.is_degraded() {
                degradation_stats.degraded_decisions += 1;
            }

            // Replace the modeled comm term with what actually crossed the
            // bus during this decision.
            let comm_total = bus.total_transport_latency();
            let comm_this_decision = comm_total - comm_seen;
            comm_seen = comm_total;
            breakdown.communication = comm_this_decision;
            comm_per_decision.push(comm_this_decision);
            let latency = breakdown.total();

            let cpu_sample = cfg
                .cpu
                .sample(breakdown.compute_total(), latency.max(cfg.min_epoch));
            telemetry.push(DecisionRecord {
                time: clock.now(),
                position: drone.position,
                commanded_velocity,
                visibility: runtime.latest_visibility(),
                deadline: policy.deadline,
                knobs,
                breakdown,
                cpu_utilization: cpu_sample.utilization,
                zone: Some(zone_label(env.zone_at(drone.position))),
                degradation,
            });

            // Advance the physical world for the epoch; moving actors are
            // collision-tested at their true pose of every substep.
            let epoch = latency.max(cfg.min_epoch);
            let body_margin = cfg.drone.body_radius * 0.8;
            collided = cycle::advance_epoch(
                &mut drone,
                &mut clock,
                &mut energy_joules,
                env,
                &cfg.drone,
                &cfg.energy,
                epoch,
                commanded_velocity,
                |position, dt| {
                    if hover {
                        // A hovering decision issues no motion command: the
                        // physics brake the MAV in place. The controller
                        // keeps its progress so a later decision resumes.
                        return None;
                    }
                    control.update(position, dt)
                },
                |position, time| {
                    live.is_some_and(|world| {
                        world.actor_hit_cached(position, time, body_margin, &mut pose_cache)
                    })
                },
            );
            control.end_epoch();
            flown_path.push(drone.position);
            flown_times.push(clock.now());

            if collided {
                break;
            }
            if drone.position.distance(env.goal()) <= cfg.goal_tolerance {
                reached_goal = true;
                break;
            }
            // A safe-stop flew its retreat epoch; the mission is over.
            if safe_stop {
                break;
            }
        }

        let mission_time = clock.now().max(1e-9);
        // Bus-level fault events (lost/duplicated/delayed messages) are
        // injections too — the direct driver has no bus, so this term is
        // the node pipeline's own.
        degradation_stats.faults_injected += bus.link_fault_stats().total_events() as usize;
        let metrics = cycle::finalize_metrics(
            cfg.mode,
            mission_time,
            energy_joules,
            &telemetry,
            &drone,
            decisions,
            reached_goal,
            collided,
            planning.dynamic_replans,
            &degradation_stats,
        );
        let graph = GraphInfo::snapshot(&bus);
        NodePipelineResult {
            mission: MissionResult {
                metrics,
                telemetry,
                flown_path,
                flown_times,
            },
            graph,
            comm_per_decision,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roborun_env::{DifficultyConfig, EnvironmentGenerator};
    use roborun_faults::FaultPlanConfig;

    fn short_environment(seed: u64) -> Environment {
        let cfg = DifficultyConfig {
            obstacle_density: 0.35,
            obstacle_spread: 40.0,
            goal_distance: 120.0,
        };
        EnvironmentGenerator::new(cfg).generate(seed)
    }

    fn quick_config(mode: RuntimeMode) -> NodePipelineConfig {
        let mut config = NodePipelineConfig::new(mode);
        config.mission.max_decisions = 800;
        config.mission.max_mission_time = 2_500.0;
        config
    }

    #[test]
    fn node_graph_mission_reaches_the_goal() {
        let env = short_environment(21);
        let pipeline = NodePipeline::new(quick_config(RuntimeMode::SpatialAware));
        let result = pipeline.run(&env);
        assert!(
            result.mission.metrics.reached_goal,
            "mission did not reach the goal"
        );
        assert!(!result.mission.metrics.collided);
        assert_eq!(
            result.comm_per_decision.len(),
            result.mission.metrics.decisions
        );
    }

    #[test]
    fn graph_contains_the_expected_nodes_and_topics() {
        let env = short_environment(3);
        let pipeline = NodePipeline::new(quick_config(RuntimeMode::SpatialAware));
        let result = pipeline.run(&env);
        let graph = &result.graph;
        for node in [
            "camera_rig",
            "perception",
            "runtime_governor",
            "planner",
            "controller",
        ] {
            assert!(graph.nodes.iter().any(|n| n == node), "missing node {node}");
        }
        let busy = [
            "/sensors/points",
            "/sensors/odometry",
            "/runtime/profile",
            "/runtime/policy",
            "/perception/planner_map",
            "/planning/trajectory",
            "/control/status",
        ];
        for topic in busy {
            let info = graph
                .topic(topic)
                .unwrap_or_else(|| panic!("missing topic {topic}"));
            assert!(info.stats.messages_published > 0, "no traffic on {topic}");
        }
        // The exact topic set: a topic no node uses any more must not
        // linger on the bus.
        let mut expected: Vec<&str> = busy.into_iter().chain(["/planning/feedback"]).collect();
        expected.sort_unstable();
        let topics: Vec<&str> = graph.topics.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(topics, expected);
        assert!(graph.total_bytes() > 0);
        let dot = graph.to_dot();
        assert!(dot.contains("/runtime/policy"));
    }

    #[test]
    fn measured_comm_is_positive_and_heaviest_on_the_point_cloud() {
        let env = short_environment(7);
        let pipeline = NodePipeline::new(quick_config(RuntimeMode::SpatialAware));
        let result = pipeline.run(&env);
        assert!(result.comm_per_decision.iter().all(|&c| c >= 0.0));
        assert!(result.comm_per_decision.iter().any(|&c| c > 0.0));
        let graph = &result.graph;
        let points = graph
            .topic("/sensors/points")
            .unwrap()
            .stats
            .bytes_published;
        let policy = graph
            .topic("/runtime/policy")
            .unwrap()
            .stats
            .bytes_published;
        assert!(
            points > policy,
            "point cloud traffic {points} vs policy {policy}"
        );
    }

    #[test]
    fn node_graph_preserves_the_aware_vs_oblivious_ordering() {
        let env = short_environment(21);
        let aware = NodePipeline::new(quick_config(RuntimeMode::SpatialAware)).run(&env);
        let mut oblivious_cfg = quick_config(RuntimeMode::SpatialOblivious);
        oblivious_cfg.mission.max_decisions = 1_500;
        oblivious_cfg.mission.max_mission_time = 3_000.0;
        let oblivious = NodePipeline::new(oblivious_cfg).run(&env);
        assert!(oblivious.mission.metrics.reached_goal);
        assert!(
            aware.mission.metrics.mean_velocity > 1.5 * oblivious.mission.metrics.mean_velocity
        );
        assert!(aware.mission.metrics.mission_time < oblivious.mission.metrics.mission_time);
        assert!(aware.mission.metrics.energy_kj < oblivious.mission.metrics.energy_kj);
    }

    #[test]
    fn node_graph_matches_direct_runner_metrics_to_first_order() {
        // The node-graph run and the direct runner share every model; the
        // only difference is the measured (rather than modeled) comm term,
        // so mission-level metrics must land in the same ballpark.
        let env = short_environment(21);
        let direct = crate::MissionRunner::new(crate::MissionConfig {
            max_decisions: 800,
            max_mission_time: 2_500.0,
            ..crate::MissionConfig::new(RuntimeMode::SpatialAware)
        })
        .run(&env);
        let graph = NodePipeline::new(quick_config(RuntimeMode::SpatialAware)).run(&env);
        assert!(direct.metrics.reached_goal && graph.mission.metrics.reached_goal);
        let ratio = graph.mission.metrics.mission_time / direct.metrics.mission_time;
        assert!(
            (0.4..2.5).contains(&ratio),
            "node-graph mission time diverged: ratio {ratio}"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let env = short_environment(5);
        let pipeline = NodePipeline::new(quick_config(RuntimeMode::SpatialAware));
        let a = pipeline.run(&env);
        let b = pipeline.run(&env);
        assert_eq!(a.mission.metrics, b.mission.metrics);
        assert_eq!(a.mission.telemetry.records(), b.mission.telemetry.records());
        assert_eq!(a.comm_per_decision, b.comm_per_decision);
    }

    #[test]
    fn sensing_faults_reach_the_node_driver() {
        let env = short_environment(21);
        let run = |fault_plan: FaultPlanConfig| {
            let mut config = quick_config(RuntimeMode::SpatialAware);
            config.mission.max_decisions = 120;
            config.mission.fault_plan = fault_plan;
            NodePipeline::new(config).run(&env).mission
        };
        let healthy = run(FaultPlanConfig::healthy());
        // Fog caps the profiled visibility the governor budgets from, and
        // its range noise reaches the sensed cloud.
        let foggy = run(FaultPlanConfig::fog(8.0));
        assert!(!foggy.telemetry.records().is_empty());
        assert!(foggy
            .telemetry
            .records()
            .iter()
            .all(|r| r.visibility <= 8.0));
        assert_ne!(foggy.telemetry.records(), healthy.telemetry.records());
        // Dropped sweeps and points are deterministic and change the run.
        let flaky = run(FaultPlanConfig::flaky_sensors(0.1, 0.3));
        let again = run(FaultPlanConfig::flaky_sensors(0.1, 0.3));
        assert_eq!(flaky.metrics, again.metrics);
        assert_eq!(flaky.telemetry.records(), again.telemetry.records());
        assert_ne!(flaky.telemetry.records(), healthy.telemetry.records());
    }
}
