//! `roborun-trace` — zero-cost-when-disabled structured tracing for the
//! RoboRun stack: RAII spans, instant events, per-topic counters, a
//! Chrome trace-event / Perfetto exporter, and per-span-kind latency
//! summaries backed by the shared [`roborun_geom::LogHistogram`].
//!
//! # Contract (mirrors `roborun-faults`)
//!
//! * **Disabled tracing is the pre-trace code path.** Every
//!   instrumentation point is gated on a single relaxed atomic load
//!   ([`armed`]); when it returns `false` nothing else runs — no
//!   allocation, no clock read, no formatting. The disarmed gate costs
//!   at most a few nanoseconds per decision (measured by the
//!   `trace_gate` group in the `kernel_scaling` bench), and the three
//!   golden sweep fixtures regenerate byte-identical with tracing off.
//! * **Enabled tracing never perturbs the simulation.** No
//!   instrumentation point draws from, reseeds, or reorders any RNG
//!   stream; arming tracing changes what is *recorded*, never what is
//!   *computed*. Missions produce bit-identical metrics armed or
//!   disarmed.
//! * **Trace output is deterministic in sim-time.** Event identity is
//!   `(track, seq)` where tracks are explicitly assigned (never OS
//!   thread ids) and sequences count per-track emissions. Exported
//!   timelines sort by `(sim_time, track, seq)`; wall-clock
//!   measurements are segregated into each event's `args` object and
//!   can be omitted entirely for byte-stable artifacts.
//!
//! # Hot path
//!
//! Emission appends to a per-thread ring buffer (no locks); buffers
//! spill to a bounded global sink at capacity or at explicit
//! [`flush`] boundaries, and [`Trace::collect`] drains the sink.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collector;
pub mod export;
pub mod json;
pub mod kind;

pub use collector::{
    arm, armed, disarm, drain, dropped, flush, set_track, timer, timer_ns, WallTimer,
};
pub use export::{validate_chrome_trace, KindSummary, Trace};
pub use json::{JsonValue, JsonWriter};
pub use kind::{SpanKind, TraceEvent, TracePhase};

/// Number of usable cores on this host (the single home for the
/// `available_parallelism` fallback shared by the sweep pool and the
/// benchmark headers).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
