//! Per-layer numbers of the traced run.
//!
//! Two sources, both driven from outside the program:
//!
//! * **Spans** the program already emits: `decision` and `plan` (direct
//!   driver only) and `bus:publish` (node driver only), read back from
//!   the armed `roborun_trace` collector.
//! * A **layer replay** of each traced mission: its `DecisionRecord`
//!   positions and knobs are fed, decision by decision, through the public
//!   layer functions (capture, profile + govern, integrate, export,
//!   hazard retarget, checker refresh, RRT* search), each call timed on its
//!   own. The replay rebuilds its own occupancy map from its own captures,
//!   so it approximates the mission's map state; it plans on the decisions
//!   the trace shows to be plan attempts (see [`PlanAttempts`]), with the
//!   decision's planner seed from `cycle::planner_for`.

use crate::workload::{Driver, Mission};
use roborun_core::{Governor, MissionTelemetry};
use roborun_middleware::GraphInfo;
use roborun_mission::cycle;
use roborun_perception::{ExportConfig, OccupancyMap, PlannerMap, PointCloud};
use roborun_planning::{CollisionChecker, PlanError, PredictedHazards, Trajectory};
use roborun_sim::DroneState;
use roborun_trace::{SpanKind, TraceEvent};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// Topic the node driver's planner publishes once per plan attempt.
const PLAN_ATTEMPT_TOPIC: &str = "/planning/feedback";

/// Per-layer sums over every traced mission of a run.
#[derive(Debug, Default)]
pub struct Layers {
    pub decisions: u64,
    pub traced_wall_s: f64,
    // Replayed busy time (seconds) and work counts.
    pub capture_s: f64,
    pub profile_s: f64,
    pub integrate_s: f64,
    pub points_integrated: u64,
    pub export_s: f64,
    pub export_voxels: u64,
    pub retarget_s: f64,
    pub snapshot_s: f64,
    pub predict_s: f64,
    pub predicted_boxes: u64,
    pub checker_update_s: f64,
    pub delta_added_voxels: u64,
    pub search_ms: Vec<f64>,
    pub plan_attempts: u64,
    pub plans_ok: u64,
    pub samples: u64,
    pub collision_queries: u64,
    // Spans.
    pub decision_span_ms: Vec<f64>,
    pub plan_span_s: f64,
    pub publish_s: f64,
    // Bus traffic at mission end.
    pub bytes_published: u64,
    pub deliveries: u64,
    pub drops: u64,
}

impl Layers {
    /// Replayed busy time over all layers (seconds).
    pub fn replayed_s(&self) -> f64 {
        self.capture_s
            + self.profile_s
            + self.integrate_s
            + self.export_s
            + self.retarget_s
            + self.snapshot_s
            + self.predict_s
            + self.checker_update_s
            + self.search_ms.iter().sum::<f64>() / 1e3
    }

    /// Reads one traced mission's spans and bus traffic.
    pub fn add_trace(&mut self, events: &[TraceEvent], graph: Option<&GraphInfo>) {
        let ms = |ns: u64| ns as f64 / 1e6;
        for event in events {
            match event.kind {
                SpanKind::Decision => self.decision_span_ms.push(ms(event.wall_dur_ns)),
                SpanKind::Plan => self.plan_span_s += event.wall_dur_ns as f64 / 1e9,
                SpanKind::BusPublish => self.publish_s += event.wall_dur_ns as f64 / 1e9,
                _ => {}
            }
        }
        for topic in graph.map(|g| g.topics.as_slice()).unwrap_or_default() {
            self.bytes_published += topic.stats.bytes_published;
            self.deliveries += topic.stats.deliveries;
            self.drops += topic.stats.drops;
        }
    }

    /// Replays one traced mission through the layer functions.
    pub fn replay(
        &mut self,
        mission: &Mission,
        driver: Driver,
        telemetry: &MissionTelemetry,
        flown_path: &[roborun_geom::Vec3],
        flown_times: &[f64],
        events: &[TraceEvent],
    ) {
        let cfg = &mission.config;
        let env = &mission.env;
        let live = mission.world.as_ref().filter(|w| !w.is_static());
        let mut attempts = PlanAttempts::new(events, driver, cfg.replan_every);
        let governor = Governor::new(cfg.governor_config());
        let rig = match live {
            Some(_) => cfg.dynamic_camera_rig(),
            None => cfg.camera_rig(),
        };
        let mut map = OccupancyMap::new(governor.config().ranges.precision_min);
        map.set_stale_decay(cfg.voxel_decay);
        let margin = cfg.drone.body_radius * cfg.planning_margin_factor;
        let seed_base = cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(env.seed());
        let mut hazards = PredictedHazards::new(Vec::new(), margin * 0.6, env.start(), 0.0);
        let mut pose_cache = live.map(|w| w.pose_cache()).unwrap_or_default();
        let mut checker: Option<CollisionChecker> = None;
        let mut trajectory: Option<Trajectory> = None;
        let mut start_blocked = false;

        for (k, record) in telemetry.records().iter().enumerate() {
            let decision = k + 1;
            self.decisions += 1;
            let position = record.position;
            let velocity = match k {
                0 => roborun_geom::Vec3::ZERO,
                _ => {
                    let dt = (flown_times[k] - flown_times[k - 1]).max(1e-9);
                    (flown_path[k] - flown_path[k - 1]) / dt
                }
            };
            let drone = DroneState {
                position,
                velocity,
                distance_travelled: 0.0,
            };
            let knobs = record.knobs;

            // dynamics: the snapshot field the sensors see at this instant.
            let snapshot = live.map(|world| {
                let t = Instant::now();
                let field = world.snapshot_field_cached(record.time, &mut pose_cache);
                self.snapshot_s += t.elapsed().as_secs_f64();
                field
            });
            let field = snapshot.as_ref().unwrap_or(env.field());

            // sim: camera rig capture.
            let t = Instant::now();
            let scan = rig.capture(field, &drone.pose());
            self.capture_s += t.elapsed().as_secs_f64();
            let cloud = PointCloud::new(position, scan.points);

            // core: profilers + governor.
            let heading = cycle::direction_towards(position, env.goal(), velocity);
            let t = Instant::now();
            let profile = cfg.profilers.profile(
                &cloud,
                &map,
                trajectory.as_ref(),
                position,
                velocity.norm(),
                heading,
            );
            black_box(governor.decide(&profile));
            self.profile_s += t.elapsed().as_secs_f64();

            // perception: operators + integration, then the planner export.
            let t = Instant::now();
            map.set_epoch(decision as u64);
            let downsampled = cloud.downsampled(knobs.point_cloud_precision);
            let limited = downsampled.volume_limited(position, knobs.octomap_volume);
            map.integrate_cloud(&limited, knobs.point_cloud_precision.max(0.5));
            map.retain_within(position, cfg.map_retain_radius);
            self.integrate_s += t.elapsed().as_secs_f64();
            self.points_integrated += limited.len() as u64;
            // The node driver exports at the finest precision while its
            // planner reports a start swallowed by a coarse voxel.
            let precision = if driver == Driver::Nodes && start_blocked {
                map.resolution()
            } else {
                knobs.map_to_planner_precision
            };
            let t = Instant::now();
            let export = PlannerMap::export(
                &map,
                &ExportConfig::new(precision, knobs.map_to_planner_volume, position),
            );
            self.export_s += t.elapsed().as_secs_f64();
            self.export_voxels += export.len() as u64;

            // dynamics + planning::hazard: predicted occupancy, retarget.
            let predicted = match live {
                Some(world) => {
                    let t = Instant::now();
                    let boxes = world.predicted_boxes_cached(
                        record.time,
                        cfg.dynamic_lookahead,
                        &mut pose_cache,
                    );
                    self.predict_s += t.elapsed().as_secs_f64();
                    boxes
                }
                None => Vec::new(),
            };
            self.predicted_boxes += predicted.len() as u64;
            let range =
                cycle::predicted_relevance_range(velocity.norm(), cfg.dynamic_lookahead, margin);
            let t = Instant::now();
            hazards.retarget(&predicted, position, range);
            self.retarget_s += t.elapsed().as_secs_f64();

            if !attempts.attempted(decision, record.time) {
                continue;
            }
            // planning: checker refresh, then the RRT* search + smoothing.
            let local_goal = cycle::local_goal(
                env,
                &export,
                position,
                cfg.planning_horizon,
                cfg.drone.body_radius * 1.5,
            );
            let bounds = cycle::planning_bounds(position, local_goal, env.bounds());
            let check_step = cycle::planning_check_step(&knobs);
            let planner = cycle::planner_for(
                seed_base,
                decision,
                &knobs,
                margin,
                cycle::sampling_mix_for(cfg.hazard_biased_sampling),
            );
            match (driver, checker.as_mut()) {
                // The direct driver keeps one checker per mission and
                // patches it from the export delta.
                (Driver::Direct, Some(existing)) => {
                    self.delta_added_voxels += export
                        .delta_from(existing.map())
                        .map_or(export.len(), |delta| delta.added().len())
                        as u64;
                    let t = Instant::now();
                    existing.update_map(export.clone());
                    existing.set_check_step(check_step);
                    self.checker_update_s += t.elapsed().as_secs_f64();
                }
                // The node driver builds a fresh checker for every plan,
                // so every exported voxel is new to it.
                _ => {
                    self.delta_added_voxels += export.len() as u64;
                    let t = Instant::now();
                    checker = Some(CollisionChecker::new(export.clone(), margin, check_step));
                    self.checker_update_s += t.elapsed().as_secs_f64();
                }
            }
            let checker = checker.as_mut().expect("checker refreshed above");
            let queries_before = checker.queries();
            let cruise = record.commanded_velocity.max(0.5);
            let t = Instant::now();
            let mut outcome =
                planner.plan_with_checker(checker, position, local_goal, &bounds, cruise);
            self.collision_queries += (checker.queries() - queries_before) as u64;
            start_blocked = matches!(outcome, Err(PlanError::StartBlocked));
            if start_blocked && driver == Driver::Direct {
                // The direct driver retries at once against a
                // finest-precision export, inside the same plan span.
                let fine = PlannerMap::export(
                    &map,
                    &ExportConfig::new(map.resolution(), knobs.map_to_planner_volume, position),
                );
                outcome = planner.plan(&fine, position, local_goal, &bounds, cruise);
                if let Ok((_, stats)) = &outcome {
                    self.collision_queries += stats.collision_queries as u64;
                }
            }
            self.search_ms.push(t.elapsed().as_secs_f64() * 1e3);
            self.plan_attempts += 1;
            // The direct driver's success is known from its trace; the node
            // driver's only from the replayed outcome.
            if attempts.succeeded(record.time).unwrap_or(outcome.is_ok()) {
                self.plans_ok += 1;
            }
            match outcome {
                Ok((planned, stats)) => {
                    self.samples += stats.samples_drawn as u64;
                    trajectory = Some(planned);
                }
                Err(PlanError::NoPathFound { samples_drawn, .. }) => {
                    self.samples += samples_drawn as u64;
                }
                Err(_) => {}
            }
        }
    }
}

/// The decisions on which a traced mission attempted a plan.
///
/// * Node driver: its planner publishes feedback once per attempt, stamped
///   with the decision's start time (its `DecisionRecord::time`).
/// * Direct driver: it emits a `plan` span, stamped the same way, only for
///   a plan that succeeded. Its failed attempts follow from its `need_plan`
///   rule: with no trajectory yet, or `replan_every` decisions after the
///   last installed plan, every decision plans. On a static mission the
///   driver installs a trajectory exactly when it emits a `plan` span, so
///   these attempts are known. Failed attempts inside that window, made
///   because the trajectory finished or was blocked, leave no trace and
///   are not replayed.
pub struct PlanAttempts {
    driver: Driver,
    replan_every: usize,
    times: HashSet<u64>,
    last_plan: Option<usize>,
}

impl PlanAttempts {
    pub fn new(events: &[TraceEvent], driver: Driver, replan_every: usize) -> Self {
        let times = events
            .iter()
            .filter(|e| match driver {
                Driver::Direct => e.kind == SpanKind::Plan,
                Driver::Nodes => {
                    e.kind == SpanKind::BusPublish
                        && e.detail.as_deref() == Some(PLAN_ATTEMPT_TOPIC)
                }
            })
            .map(|e| e.sim_time.to_bits())
            .collect();
        PlanAttempts {
            driver,
            replan_every,
            times,
            last_plan: None,
        }
    }

    /// Whether the mission planned on this decision (1-based, starting at
    /// simulated `time`). Call once per decision, in order.
    pub fn attempted(&mut self, decision: usize, time: f64) -> bool {
        let traced = self.times.contains(&time.to_bits());
        if self.driver == Driver::Nodes {
            return traced;
        }
        let due = self
            .last_plan
            .map_or(true, |last| decision - last >= self.replan_every);
        if traced {
            self.last_plan = Some(decision);
        }
        traced || due
    }

    /// Whether the trace shows that the plan at `time` succeeded; `None` on
    /// the node driver, whose trace does not say.
    pub fn succeeded(&self, time: f64) -> Option<bool> {
        (self.driver == Driver::Direct).then(|| self.times.contains(&time.to_bits()))
    }
}
