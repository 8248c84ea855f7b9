//! The static span-kind registry: every event the instrumentation can
//! emit is one of these kinds, so exporters and summary tables never
//! meet an unknown name, and the registry itself documents the span
//! taxonomy (see `docs/OBSERVABILITY.md`).

use serde::{Deserialize, Serialize};

/// One kind of trace event. The registry is deliberately closed: adding
/// an instrumentation point means adding a variant here, which keeps the
/// per-kind summary table and the Chrome-trace categories exhaustive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpanKind {
    /// One whole navigation decision: `[t, t + latency]`.
    Decision,
    /// Point-cloud kernel stage of a decision.
    StagePointCloud,
    /// Occupancy-map (OctoMap) update stage.
    StagePerception,
    /// Map pruning/export to the planner.
    StagePerceptionToPlanning,
    /// Piece-wise planning + smoothing stage.
    StagePlanning,
    /// Control-loop stage.
    StageControl,
    /// Inter-stage communication stage.
    StageCommunication,
    /// RoboRun runtime overhead stage (profilers + governor + solver).
    StageRuntime,
    /// One planner invocation, with per-plan counters as args (samples
    /// drawn, tree size, rewires, collision queries, explored volume,
    /// volume cap).
    Plan,
    /// One middleware bus publish (span length = mean transport latency).
    BusPublish,
    /// One middleware bus delivery (span from publish to ready time).
    BusDeliver,
    /// Per-topic queue depth after a publish/take (a counter event).
    QueueDepth,
    /// The planning watchdog fired (instant).
    WatchdogFire,
    /// The degradation ladder changed state (instant; the detail field
    /// names the `Degradation` variant).
    DegradationTransition,
    /// A fault frame perturbed this decision (instant).
    FaultInjected,
}

impl SpanKind {
    /// Every kind, for summary tables and registry iteration.
    pub const ALL: [SpanKind; 15] = [
        SpanKind::Decision,
        SpanKind::StagePointCloud,
        SpanKind::StagePerception,
        SpanKind::StagePerceptionToPlanning,
        SpanKind::StagePlanning,
        SpanKind::StageControl,
        SpanKind::StageCommunication,
        SpanKind::StageRuntime,
        SpanKind::Plan,
        SpanKind::BusPublish,
        SpanKind::BusDeliver,
        SpanKind::QueueDepth,
        SpanKind::WatchdogFire,
        SpanKind::DegradationTransition,
        SpanKind::FaultInjected,
    ];

    /// The seven decision-stage kinds, in pipeline order. Their spans
    /// partition each decision's latency window, which is what
    /// makes the ≥95% coverage check hold by construction.
    pub const STAGES: [SpanKind; 7] = [
        SpanKind::StagePointCloud,
        SpanKind::StagePerception,
        SpanKind::StagePerceptionToPlanning,
        SpanKind::StagePlanning,
        SpanKind::StageControl,
        SpanKind::StageCommunication,
        SpanKind::StageRuntime,
    ];

    /// Stable event name, used as the Chrome-trace `name` field.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Decision => "decision",
            SpanKind::StagePointCloud => "stage:point_cloud",
            SpanKind::StagePerception => "stage:perception",
            SpanKind::StagePerceptionToPlanning => "stage:perception_to_planning",
            SpanKind::StagePlanning => "stage:planning",
            SpanKind::StageControl => "stage:control",
            SpanKind::StageCommunication => "stage:communication",
            SpanKind::StageRuntime => "stage:runtime",
            SpanKind::Plan => "plan",
            SpanKind::BusPublish => "bus:publish",
            SpanKind::BusDeliver => "bus:deliver",
            SpanKind::QueueDepth => "queue_depth",
            SpanKind::WatchdogFire => "watchdog_fire",
            SpanKind::DegradationTransition => "degradation",
            SpanKind::FaultInjected => "fault_injected",
        }
    }

    /// Chrome-trace `cat` (category) field: groups kinds by subsystem so
    /// Perfetto can filter whole layers at once.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Decision
            | SpanKind::StagePointCloud
            | SpanKind::StagePerception
            | SpanKind::StagePerceptionToPlanning
            | SpanKind::StagePlanning
            | SpanKind::StageControl
            | SpanKind::StageCommunication
            | SpanKind::StageRuntime => "decision",
            SpanKind::Plan => "planner",
            SpanKind::BusPublish | SpanKind::BusDeliver | SpanKind::QueueDepth => "middleware",
            SpanKind::WatchdogFire | SpanKind::DegradationTransition | SpanKind::FaultInjected => {
                "faults"
            }
        }
    }
}

/// The Chrome-trace phase of one event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TracePhase {
    /// A complete span (`ph: "X"`) with a simulated duration in seconds.
    Complete {
        /// Span length on the simulation clock (seconds).
        sim_dur: f64,
    },
    /// An instant event (`ph: "i"`).
    Instant,
    /// A counter sample (`ph: "C"`).
    Counter {
        /// The sampled value.
        value: f64,
    },
}

/// One recorded trace event.
///
/// Timestamps are **dual**: `sim_time` (and `Complete::sim_dur`) live on
/// the deterministic simulation clock and define the exported timeline;
/// `wall_ns` / `wall_dur_ns` are monotonic wall-clock measurements taken
/// only while tracing is armed and are segregated into the exported
/// `args` object so sim-time diffs stay clean.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// What kind of event this is (the registry entry).
    pub kind: SpanKind,
    /// Span / instant / counter classification plus payload.
    pub phase: TracePhase,
    /// Explicitly assigned track (exported as `tid`); never an OS thread
    /// id — see the module docs of [`crate::collector`].
    pub track: u32,
    /// Per-track emission sequence number; `(track, seq)` is the
    /// deterministic event id.
    pub seq: u64,
    /// Simulation-clock timestamp (seconds).
    pub sim_time: f64,
    /// Monotonic wall-clock nanoseconds since the tracer was armed.
    pub wall_ns: u64,
    /// Measured wall-clock duration of the span (nanoseconds; 0 when not
    /// measured).
    pub wall_dur_ns: u64,
    /// Free-form label (bus topic, degradation variant, scenario tag).
    pub detail: Option<String>,
    /// Small numeric argument list, exported into the `args` object.
    pub args: Vec<(&'static str, f64)>,
}

impl TraceEvent {
    /// End of the span on the simulation clock (start for non-spans).
    pub fn sim_end(&self) -> f64 {
        match self.phase {
            TracePhase::Complete { sim_dur } => self.sim_time + sim_dur,
            _ => self.sim_time,
        }
    }
}
