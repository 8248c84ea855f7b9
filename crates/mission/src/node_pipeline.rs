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
//! flight-controller interface does on a real MAV. So does everything the
//! two drivers share: the mission shell (fault frames, sensing, modeled
//! cost, velocity law, degradation ladder, telemetry, epoch advance) and
//! the planning stage (checker, predicted hazards, search, veto, retreat)
//! live in [`crate::cycle`]; this module keeps the messages, the five
//! nodes' publish/take plumbing and the bus-measured `comm` accounting.
//!
//! # Where the drivers still differ
//!
//! These policy differences remain between this driver and the direct
//! one. The drivers agree exactly, apart from the communication term, only
//! once each is resolved:
//!
//! * **Local-goal probe margin.** The planning node probes the local goal
//!   at `margin * 0.9` (`PlanningNode::spin`, its search call); the
//!   direct driver at `body_radius * 1.5`.
//! * **Start-blocked handling.** A start-blocked search is reported on
//!   `/planning/feedback`, and the perception node exports at the finest
//!   precision from the next decision on (`PerceptionNode::map_spin`); the
//!   direct driver retries against a fine export at once.
//! * **Wedge retreat.** The planning node retreats once the start has been
//!   blocked for two decisions in a row with predicted boxes present
//!   (`PlanningNode::spin`); the direct driver retreats when its immediate
//!   fine retry fails in a live world.
//! * **Emergency stop.** The planning node brakes for a blockage within
//!   the stopping distance of `StoppingModel::paper_default()`, 1 s of
//!   reaction and `2 * margin` (`PlanningNode::spin`, also the baseline's
//!   forced-failure brake in `NodePipeline::run_with`); the direct driver
//!   uses the governor's stopping model, `max(latency, min_epoch)` of
//!   reaction and `2 * body_radius`.
//! * **Provisional latency.** The velocity law sees the modeled compute
//!   cost plus the communication measured so far this decision
//!   (`NodePipeline::run_with`), not the full breakdown.
//! * **Voxel-decay epoch.** The perception node stamps the map with its
//!   integration count (`PerceptionNode::map_spin`); the direct driver
//!   with the decision index.
//! * **Full profile in oblivious mode.** The perception node publishes
//!   the full profile in both modes (`PerceptionNode::profile_spin`): the
//!   communication slice is charged from the message bytes, so a smaller
//!   `/runtime/profile` message would change the oblivious missions'
//!   simulated time. The direct driver profiles visibility only.
//! * **Corrupted payloads.** A corrupted sample drained off any
//!   subscription marks a healthy decision `StalePerception`
//!   (`NodePipeline::run_with`).
//! * **Link faults.** Lost, duplicated and delayed messages count into
//!   `faults_injected` (`NodePipeline::run_with`); the direct driver has
//!   no bus.

use crate::cycle::{self, MissionState, PlanningStage, Rung};
use crate::runner::{MissionConfig, MissionResult};
use roborun_control::TrajectoryFollower;
use roborun_core::{Degradation, Governor, Policy, Profilers, RuntimeMode, SpatialProfile};
use roborun_dynamics::DynamicWorld;
use roborun_env::Environment;
use roborun_faults::FaultyBus;
use roborun_geom::{Aabb, Vec3};
use roborun_middleware::{
    CommLatencyModel, GraphInfo, Message, MessageBus, MiddlewareError, Node, Publisher, QosProfile,
    Stamped, Subscription,
};
use roborun_perception::{ExportConfig, OccupancyMap, PlannerMap, PointCloud};
use roborun_planning::{PlanError, Trajectory};
use roborun_sim::{DroneState, StoppingModel};
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
    points_pub: Publisher<PointCloudMsg>,
    odom_pub: Publisher<OdometryMsg>,
}

impl SensorNode {
    fn new(node: &Node) -> Self {
        SensorNode {
            points_pub: node.publisher("/sensors/points").expect("points topic"),
            odom_pub: node.publisher("/sensors/odometry").expect("odometry topic"),
        }
    }

    /// Publishes the decision's sweep and the drone's odometry. A
    /// blacked-out sweep still crosses the bus as an empty cloud (the
    /// frame header a real driver would publish), so downstream nodes
    /// observe the blackout rather than hanging.
    fn spin(&mut self, cloud: PointCloud, drone: &DroneState) {
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
    /// Integration counter stamped onto the map as the voxel-decay epoch.
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
    /// and publish the full profiled spatial state the governor needs, in
    /// both modes, with the visibility clamped to the decision's
    /// `fog_cap`.
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
        let heading = cycle::direction_towards(odom.position, goal, odom.velocity);
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
    profile_sub: Subscription<ProfileMsg>,
    policy_pub: Publisher<PolicyMsg>,
    latest_profile: Option<SpatialProfile>,
    /// Corrupted samples skipped by the checked subscription drains.
    corrupted: u64,
}

impl RuntimeNode {
    fn new(node: &Node) -> Self {
        RuntimeNode {
            profile_sub: node
                .subscribe("/runtime/profile", QosProfile::reliable(2))
                .expect("profile subscription"),
            policy_pub: node.publisher("/runtime/policy").expect("policy topic"),
            latest_profile: None,
            corrupted: 0,
        }
    }

    fn spin(&mut self, governor: &Governor) -> Option<Policy> {
        if let Some(sample) = latest_checked(&self.profile_sub, &mut self.corrupted) {
            self.latest_profile = Some(sample.message.0);
        }
        let profile = self.latest_profile.as_ref()?;
        let policy = governor.decide(profile);
        let _ = self.policy_pub.publish(PolicyMsg(policy));
        Some(policy)
    }

    /// The visibility the velocity law budgets from: the newest profile's,
    /// or the governor's worst case before any profile arrived.
    fn latest_visibility(&self, governor: &Governor) -> f64 {
        self.latest_profile
            .as_ref()
            .map(|p| p.visibility)
            .unwrap_or(governor.config().oblivious_visibility)
    }
}

struct PlanningNode {
    stage: PlanningStage,
    replan_every: usize,
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
    /// The active trajectory was found blocked within stopping range and
    /// no replacement was planned this decision: the controller must brake
    /// until a valid plan exists.
    emergency_stop: bool,
    /// Consecutive decisions whose planning attempt was start-blocked —
    /// after the fine-export fallback has had its chance, a dynamic
    /// mission retreats out of the margin shell instead of hovering.
    start_blocked_streak: usize,
    /// Corrupted samples skipped by the checked subscription drains.
    corrupted: u64,
}

/// What the planning spin decided — the coordinator's view of the stage,
/// so the degradation ladder can run outside the node.
#[derive(Clone, Copy, Default)]
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
        PlanningNode {
            stage: PlanningStage::new(config, env_seed),
            replan_every: config.replan_every,
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
            emergency_stop: false,
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

    /// `true` when the last valid trajectory can still be followed (the
    /// degradation ladder's reuse rung).
    fn can_reuse(&self) -> bool {
        self.active_trajectory.is_some() && !self.latest_status.map(|s| s.finished).unwrap_or(true)
    }

    /// Makes `trajectory` the active one and publishes it to the
    /// controller.
    fn publish(&mut self, trajectory: Trajectory) {
        self.active_trajectory = Some(trajectory.clone());
        self.decisions_since_plan = 0;
        let _ = self.trajectory_pub.publish(TrajectoryMsg(trajectory));
    }

    /// Publishes a wedge-retreat trajectory — the bottom of the
    /// degradation ladder: back straight out of the nearest mapped
    /// surface's margin shell and park.
    fn publish_retreat(&mut self, position: Vec3) {
        if let Some(map) = self.latest_map.as_ref() {
            let retreat = self.stage.retreat(map, position);
            self.publish(retreat);
        }
    }

    fn spin(
        &mut self,
        env: &Environment,
        decision: usize,
        commanded_velocity: f64,
        predicted: &[Aabb],
        forced_failure: bool,
    ) -> NodePlanned {
        self.decisions_since_plan += 1;
        self.refresh_inputs();
        let (Some(map), Some(policy), Some(odom)) = (
            self.latest_map.as_ref(),
            self.latest_policy,
            self.latest_odom,
        ) else {
            return NodePlanned::default();
        };
        let finished = self
            .latest_status
            .map(|s| s.finished)
            .unwrap_or(self.active_trajectory.is_none());
        let progress = self.latest_status.map(|s| s.progress_time).unwrap_or(0.0);
        let assessment = self.stage.assess(
            predicted,
            map,
            self.active_trajectory.as_ref().map(|t| (t, progress)),
            odom.position,
            odom.speed,
        );
        let in_danger = assessment.in_danger;
        // Brake only when the blockage sits inside the stopping range: the
        // budget law (Eq. 1) guarantees the MAV can react to anything it
        // sees that close, while blockages further out leave time to keep
        // flying and replan. The reaction window is one second (≈ one
        // decision epoch of continued motion before the next chance to
        // brake).
        let imminent = assessment.blockage.is_some_and(|distance| {
            cycle::blockage_is_imminent(
                distance,
                self.stopping.stopping_distance(odom.speed),
                odom.speed,
                2.0 * self.stage.margin,
            )
        });
        let needed = self.active_trajectory.is_none()
            || finished
            || self.decisions_since_plan >= self.replan_every
            || assessment.blockage.is_some()
            || in_danger;
        self.emergency_stop = false;
        let planned = NodePlanned {
            needed,
            replanned: false,
            blocked: assessment.blockage.is_some(),
            imminent,
            in_danger,
        };
        // A forced planner failure (fault plan, or an unrecovered
        // watchdog abort) means no planner output exists this decision:
        // planning is skipped outright and the coordinator's degradation
        // ladder takes over.
        if !needed || forced_failure {
            return planned;
        }
        let outcome = self.stage.search(
            env,
            map,
            None,
            &policy.knobs,
            decision,
            odom.position,
            self.stage.margin * 0.9,
            commanded_velocity,
            in_danger,
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
        let replanned = NodePlanned {
            replanned: true,
            ..planned
        };
        // Wedged in a dynamic mission: the fine-export fallback has had
        // its decision and the start is still blocked — back out of the
        // margin shell so planning can recover.
        if start_blocked && self.start_blocked_streak >= 2 && !predicted.is_empty() {
            let retreat = self.stage.retreat(map, odom.position);
            self.publish(retreat);
            return replanned;
        }
        match outcome {
            Ok((trajectory, _stats)) if self.stage.admits(&trajectory, in_danger) => {
                self.publish(trajectory);
                replanned
            }
            Ok(_) | Err(_) if imminent && !in_danger => {
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
        let mut state = MissionState::new(cfg, env, dynamics);
        // An armed fault plan wraps the bus in its deterministic
        // link-fault model (message loss / duplication / delay on the
        // configured topics); a healthy plan leaves the bus untouched.
        let bus = {
            let bus = MessageBus::new(self.config.comm);
            match state
                .fault_plan
                .as_ref()
                .and_then(|plan| plan.link_faults())
            {
                Some(model) => FaultyBus::new(bus, model).bus(),
                None => bus,
            }
        };

        // Node handles. The coordinator (flight interface) owns the drone
        // state and the physics stepping, like the autopilot board would.
        let sensor_host = Node::new(&bus, "camera_rig").expect("sensor node");
        let perception_host = Node::new(&bus, "perception").expect("perception node");
        let runtime_host = Node::new(&bus, "runtime_governor").expect("runtime node");
        let planning_host = Node::new(&bus, "planner").expect("planning node");
        let control_host = Node::new(&bus, "controller").expect("control node");

        let mut sensor = SensorNode::new(&sensor_host);
        let map_resolution = state.governor.config().ranges.precision_min;
        let mut perception = PerceptionNode::new(&perception_host, cfg, map_resolution);
        let mut runtime = RuntimeNode::new(&runtime_host);
        let mut planning = PlanningNode::new(&planning_host, cfg, env.seed());
        let mut control = ControlNode::new(&control_host);

        let mut comm_per_decision = Vec::new();
        let mut comm_seen = 0.0;
        let mut corrupted_seen = 0u64;
        while state.open() {
            let frame = state.begin_decision();
            bus.set_time(state.clock.now());

            // Sensor → perception profiling → governor → perception map →
            // planning, all over topics.
            let cloud = state.sense(&frame);
            sensor.spin(cloud, &state.drone);
            perception.profile_spin(env.goal(), frame.fog_cap);
            let Some(policy) = runtime.spin(&state.governor) else {
                break;
            };
            if perception.map_spin(frame.sensor_blackout || frame.map_stale) {
                state.integrated();
            }
            let (mut breakdown, mut degradation, forced_failure) =
                state.modeled_cost(&policy.knobs, &frame);
            let predicted = state.predicted_boxes();
            // Planning needs the commanded velocity; compute it from the
            // model-predicted compute cost plus the comm charged so far this
            // decision (the planning hop is added below and reflected in the
            // recorded breakdown).
            let comm_so_far = bus.total_transport_latency() - comm_seen;
            let visibility = runtime.latest_visibility(&state.governor);
            let commanded_velocity = state.commanded_velocity(
                breakdown.compute_total() + comm_so_far,
                visibility,
                &mut degradation,
            );

            let planned = planning.spin(
                env,
                state.decisions,
                commanded_velocity,
                &predicted,
                forced_failure,
            );
            let rung = state.degrade(
                forced_failure && planned.needed && !planned.replanned,
                planning.can_reuse() && !planned.blocked && !planned.in_danger,
                &mut degradation,
            );
            if rung == Rung::SafeStop {
                planning.publish_retreat(state.drone.position);
            }
            control.begin_epoch();
            // The fault-oblivious baseline's forced-failure decision still
            // honours the imminent-blockage brake (no replacement plan
            // exists, so the stale trajectory is dropped and the MAV
            // brakes).
            let baseline_brake = !cfg.degradation.enabled
                && forced_failure
                && planned.needed
                && !planned.replanned
                && planned.imminent
                && !planned.in_danger;
            if baseline_brake {
                planning.active_trajectory = None;
            }
            if matches!(rung, Rung::Fly | Rung::Reuse)
                && (planning.emergency_stop || baseline_brake)
            {
                // Brake: the drone hovers until a new plan arrives.
                control.follower = None;
            }
            // Corrupted payloads drained off any subscription this decision
            // are a degradation event even when nothing else is.
            let corrupted_total =
                perception.corrupted + runtime.corrupted + planning.corrupted + control.corrupted;
            if corrupted_total > corrupted_seen && degradation == Degradation::Healthy {
                degradation = Degradation::StalePerception;
            }
            corrupted_seen = corrupted_total;

            // Replace the modeled comm term with what actually crossed the
            // bus during this decision.
            let comm_total = bus.total_transport_latency();
            breakdown.communication = comm_total - comm_seen;
            comm_seen = comm_total;
            comm_per_decision.push(breakdown.communication);

            state.record(
                &policy,
                breakdown,
                commanded_velocity,
                visibility,
                degradation,
            );
            state.advance(
                breakdown.total(),
                commanded_velocity,
                rung == Rung::Hover,
                |position, dt| control.update(position, dt),
            );
            control.end_epoch();
        }

        // Bus-level fault events (lost/duplicated/delayed messages) are
        // injections too — the direct driver has no bus, so this term is
        // the node pipeline's own.
        state.degradation_stats.faults_injected += bus.link_fault_stats().total_events() as usize;
        NodePipelineResult {
            mission: state.finish(planning.stage.dynamic_replans),
            graph: GraphInfo::snapshot(&bus),
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
        // The node-graph run and the direct runner share every model and
        // the decision core. Besides the measured (rather than modeled)
        // comm term, the policy differences listed in the module docs
        // remain, so mission-level metrics only land in the same
        // ballpark.
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
