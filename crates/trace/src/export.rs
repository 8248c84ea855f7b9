//! Collected traces: Chrome trace-event export, per-kind summary
//! tables, and the schema / coverage checks the CI smoke runs.

use crate::collector;
use crate::json::{JsonValue, JsonWriter};
use crate::kind::{SpanKind, TraceEvent, TracePhase};
use roborun_geom::LogHistogram;

/// A drained, sim-time-ordered trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Drains every spilled event from the global collector (flushing
    /// the calling thread first) and orders it deterministically by
    /// `(sim_time, track, seq)`.
    pub fn collect() -> Trace {
        Trace::from_events(collector::drain())
    }

    /// Builds a trace from raw events (sorting them the same way).
    pub fn from_events(mut events: Vec<TraceEvent>) -> Trace {
        events.sort_by(|a, b| {
            a.sim_time
                .total_cmp(&b.sim_time)
                .then(a.track.cmp(&b.track))
                .then(a.seq.cmp(&b.seq))
        });
        Trace { events }
    }

    /// The ordered events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no event was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the trace as Chrome trace-event JSON (the object form,
    /// loadable in Perfetto / `chrome://tracing`). Sim-clock seconds map
    /// to microsecond `ts`/`dur`; tracks map to `tid`; wall-clock
    /// measurements are segregated into each event's `args` (and can be
    /// omitted entirely with `include_wall = false` for byte-stable
    /// artifacts).
    pub fn to_chrome_json(&self, scenario: &str, include_wall: bool) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("displayTimeUnit");
        w.string("ms");
        w.key("otherData");
        w.begin_inline_object();
        w.key("generator");
        w.string("roborun-trace");
        w.key("scenario");
        w.string(scenario);
        w.key("dropped_events");
        w.uint(collector::dropped());
        w.end();
        w.key("traceEvents");
        w.begin_array();
        for event in &self.events {
            w.begin_inline_object();
            w.key("name");
            w.string(&display_name(event));
            w.key("cat");
            w.string(event.kind.category());
            w.key("ph");
            w.string(match event.phase {
                TracePhase::Complete { .. } => "X",
                TracePhase::Instant => "i",
                TracePhase::Counter { .. } => "C",
            });
            w.key("ts");
            w.float_full(event.sim_time * 1e6);
            match event.phase {
                TracePhase::Complete { sim_dur } => {
                    w.key("dur");
                    w.float_full(sim_dur * 1e6);
                }
                TracePhase::Instant => {
                    w.key("s");
                    w.string("t");
                }
                TracePhase::Counter { .. } => {}
            }
            w.key("pid");
            w.uint(0);
            w.key("tid");
            w.uint(u64::from(event.track));
            w.key("args");
            w.begin_inline_object();
            w.key("seq");
            w.uint(event.seq);
            if let TracePhase::Counter { value } = event.phase {
                w.key("value");
                w.float_full(value);
            }
            if let Some(detail) = &event.detail {
                w.key("detail");
                w.string(detail);
            }
            for (key, value) in &event.args {
                w.key(key);
                w.float_full(*value);
            }
            if include_wall {
                w.key("wall_ns");
                w.uint(event.wall_ns);
                if event.wall_dur_ns > 0 {
                    w.key("wall_dur_ns");
                    w.uint(event.wall_dur_ns);
                }
            }
            w.end();
            w.end();
        }
        w.end();
        w.end();
        w.finish()
    }

    /// Per-span-kind summaries over the simulated span durations.
    pub fn summaries(&self) -> Vec<KindSummary> {
        let mut out = Vec::new();
        for kind in SpanKind::ALL {
            let mut histogram = LogHistogram::new();
            let mut count = 0u64;
            for event in &self.events {
                if event.kind != kind {
                    continue;
                }
                count += 1;
                if let TracePhase::Complete { sim_dur } = event.phase {
                    histogram.push(sim_dur);
                }
            }
            if count > 0 {
                out.push(KindSummary {
                    kind,
                    count,
                    total_sim: histogram.sum(),
                    p50: histogram.quantile(0.50).unwrap_or(0.0),
                    p95: histogram.quantile(0.95).unwrap_or(0.0),
                    p99: histogram.quantile(0.99).unwrap_or(0.0),
                    histogram,
                });
            }
        }
        out
    }

    /// The summary as an aligned human-readable table.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>8} {:>12} {:>10} {:>10} {:>10}\n",
            "span kind", "count", "total (s)", "p50 (s)", "p95 (s)", "p99 (s)"
        ));
        for summary in self.summaries() {
            out.push_str(&format!(
                "{:<28} {:>8} {:>12.4} {:>10.4} {:>10.4} {:>10.4}\n",
                summary.kind.name(),
                summary.count,
                summary.total_sim,
                summary.p50,
                summary.p95,
                summary.p99
            ));
        }
        out
    }

    /// Per-decision stage coverage: for every [`SpanKind::Decision`]
    /// span, the fraction of its sim-time window covered by stage spans
    /// on the same track. The instrumentation lays stages out as a
    /// partition of the critical path, so this sits at ~1.0; the
    /// `experiments -- trace` smoke asserts ≥ 0.95 for every decision.
    pub fn decision_stage_coverage(&self) -> Vec<f64> {
        let mut coverage = Vec::new();
        for decision in &self.events {
            if decision.kind != SpanKind::Decision {
                continue;
            }
            let TracePhase::Complete { sim_dur } = decision.phase else {
                continue;
            };
            if sim_dur <= 0.0 {
                continue;
            }
            let (start, end) = (decision.sim_time, decision.sim_time + sim_dur);
            let covered: f64 = self
                .events
                .iter()
                .filter(|e| {
                    e.track == decision.track
                        && SpanKind::STAGES.contains(&e.kind)
                        && e.sim_time >= start - 1e-9
                        && e.sim_end() <= end + 1e-9
                })
                .map(|e| match e.phase {
                    TracePhase::Complete { sim_dur } => sim_dur,
                    _ => 0.0,
                })
                .sum();
            coverage.push((covered / sim_dur).min(1.0));
        }
        coverage
    }
}

/// Summary row of one span kind.
#[derive(Debug, Clone)]
pub struct KindSummary {
    /// The kind being summarised.
    pub kind: SpanKind,
    /// Events of this kind (all phases).
    pub count: u64,
    /// Total simulated span time (seconds; complete spans only).
    pub total_sim: f64,
    /// Median simulated span duration.
    pub p50: f64,
    /// 95th-percentile simulated span duration.
    pub p95: f64,
    /// 99th-percentile simulated span duration.
    pub p99: f64,
    /// The underlying fixed-bucket histogram (mergeable across traces).
    pub histogram: LogHistogram,
}

/// The exported Chrome-trace name: counters get their series label
/// appended so each `(kind, detail)` pair becomes its own counter track.
fn display_name(event: &TraceEvent) -> String {
    match (&event.phase, &event.detail) {
        (TracePhase::Counter { .. }, Some(detail)) => {
            format!("{}:{detail}", event.kind.name())
        }
        _ => event.kind.name().to_string(),
    }
}

/// Validates a Chrome trace-event JSON document against the minimal
/// schema the exporter promises: a top-level object with a
/// `traceEvents` array whose members carry `name`/`cat`/`ph`/`ts`/
/// `pid`/`tid`, and `dur` on complete spans.
///
/// Returns the number of events on success.
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let doc = JsonValue::parse(json)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("missing traceEvents array")?;
    for (index, event) in events.iter().enumerate() {
        let context = |field: &str| format!("event {index}: missing or invalid {field}");
        let name = event
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| context("name"))?;
        event
            .get("cat")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| context("cat"))?;
        let ph = event
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| context("ph"))?;
        let ts = event
            .get("ts")
            .and_then(JsonValue::as_number)
            .ok_or_else(|| context("ts"))?;
        event
            .get("pid")
            .and_then(JsonValue::as_number)
            .ok_or_else(|| context("pid"))?;
        event
            .get("tid")
            .and_then(JsonValue::as_number)
            .ok_or_else(|| context("tid"))?;
        match ph {
            "X" => {
                let dur = event
                    .get("dur")
                    .and_then(JsonValue::as_number)
                    .ok_or_else(|| context("dur"))?;
                if dur < 0.0 {
                    return Err(format!("event {index} ({name}): negative dur {dur}"));
                }
            }
            "i" | "C" => {}
            other => return Err(format!("event {index} ({name}): unknown ph {other:?}")),
        }
        if !ts.is_finite() {
            return Err(format!("event {index} ({name}): non-finite ts"));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: SpanKind, phase: TracePhase, track: u32, seq: u64, t: f64) -> TraceEvent {
        TraceEvent {
            kind,
            phase,
            track,
            seq,
            sim_time: t,
            wall_ns: 17,
            wall_dur_ns: 5,
            detail: None,
            args: vec![("x", 1.5)],
        }
    }

    #[test]
    fn export_round_trips_and_validates() {
        let events = vec![
            event(
                SpanKind::Decision,
                TracePhase::Complete { sim_dur: 0.5 },
                0,
                0,
                1.0,
            ),
            event(SpanKind::WatchdogFire, TracePhase::Instant, 0, 1, 1.2),
            event(
                SpanKind::QueueDepth,
                TracePhase::Counter { value: 3.0 },
                1,
                0,
                1.3,
            ),
        ];
        let trace = Trace::from_events(events);
        let json = trace.to_chrome_json("unit", true);
        let count = validate_chrome_trace(&json).expect("schema-valid export");
        assert_eq!(count, 3);
        // Deterministic form: wall fields absent, rest identical in shape.
        let stable = trace.to_chrome_json("unit", false);
        assert!(!stable.contains("wall_ns"));
        validate_chrome_trace(&stable).expect("stable export is schema-valid too");
    }

    #[test]
    fn coverage_measures_the_stage_partition() {
        let mut events = vec![event(
            SpanKind::Decision,
            TracePhase::Complete { sim_dur: 1.0 },
            0,
            0,
            0.0,
        )];
        // Two stages covering 0.6 + 0.38 of the window.
        events.push(event(
            SpanKind::StagePointCloud,
            TracePhase::Complete { sim_dur: 0.6 },
            0,
            1,
            0.0,
        ));
        events.push(event(
            SpanKind::StagePlanning,
            TracePhase::Complete { sim_dur: 0.38 },
            0,
            2,
            0.6,
        ));
        // A stage on another track must not count.
        events.push(event(
            SpanKind::StageControl,
            TracePhase::Complete { sim_dur: 1.0 },
            3,
            0,
            0.0,
        ));
        let coverage = Trace::from_events(events).decision_stage_coverage();
        assert_eq!(coverage.len(), 1);
        assert!((coverage[0] - 0.98).abs() < 1e-9);
    }

    #[test]
    fn summaries_aggregate_per_kind() {
        let events = vec![
            event(
                SpanKind::Decision,
                TracePhase::Complete { sim_dur: 0.5 },
                0,
                0,
                0.0,
            ),
            event(
                SpanKind::Decision,
                TracePhase::Complete { sim_dur: 0.7 },
                0,
                1,
                1.0,
            ),
            event(SpanKind::WatchdogFire, TracePhase::Instant, 0, 2, 1.2),
        ];
        let summaries = Trace::from_events(events).summaries();
        let decision = summaries
            .iter()
            .find(|s| s.kind == SpanKind::Decision)
            .unwrap();
        assert_eq!(decision.count, 2);
        assert!((decision.total_sim - 1.2).abs() < 1e-12);
        let watchdog = summaries
            .iter()
            .find(|s| s.kind == SpanKind::WatchdogFire)
            .unwrap();
        assert_eq!(watchdog.count, 1);
        assert_eq!(watchdog.total_sim, 0.0);
    }
}
