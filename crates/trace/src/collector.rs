//! Per-thread ring-buffer collectors behind one global armed gate.
//!
//! # Hot-path contract
//!
//! * **Disarmed** (the default), every emission function is a single
//!   relaxed atomic load plus a branch — the `trace_gate` group of the
//!   `kernel_scaling` bench holds it at single-digit nanoseconds — and
//!   no event storage is touched.
//! * **Armed**, events are pushed into a `thread_local` buffer (no lock)
//!   and spilled into the global sink only when the buffer fills or at
//!   an explicit [`flush`] placed at a coarse boundary (mission end), so
//!   the decision loop never contends on a mutex.
//!
//! # Deterministic ids
//!
//! An event's identity is `(track, seq)`. Tracks are **assigned by the
//! instrumentation sites** via [`set_track`] (the mission loop emits on
//! track 0) — never derived from OS thread ids — and `seq` counts per
//! track in emission order.
//! As long as each track is driven by one thread at a time, ids depend
//! only on the simulation's own event order, not on OS scheduling.

use crate::kind::{SpanKind, TraceEvent, TracePhase};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The global armed gate. Relaxed ordering is sufficient: arming is a
/// coarse mode switch done outside any mission, and a decision that
/// races the flip merely traces (or skips) one extra decision.
static ARMED: AtomicBool = AtomicBool::new(false);

/// Wall-clock epoch, fixed the first time the tracer is armed.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Spilled events from all threads, drained by [`drain`].
static SINK: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());

/// Events dropped because the sink hit [`SINK_CAPACITY`].
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Local buffer size before spilling to the sink.
const RING_CAPACITY: usize = 8_192;

/// Global bound on retained events: beyond this the collector counts
/// drops instead of growing without bound (a safety net for benches
/// that emit in a tight loop; real missions stay far below it).
const SINK_CAPACITY: usize = 1 << 20;

struct Local {
    track: u32,
    /// Per-track sequence counters, indexed by track id.
    seqs: Vec<u64>,
    events: Vec<TraceEvent>,
}

impl Local {
    const fn new() -> Self {
        Local {
            track: 0,
            seqs: Vec::new(),
            events: Vec::new(),
        }
    }

    fn next_seq(&mut self) -> u64 {
        let track = self.track as usize;
        if self.seqs.len() <= track {
            self.seqs.resize(track + 1, 0);
        }
        let seq = self.seqs[track];
        self.seqs[track] += 1;
        seq
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = const { RefCell::new(Local::new()) };
}

/// `true` when tracing is armed. This is the whole disarmed hot path:
/// one relaxed load, one branch.
#[inline(always)]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arms the tracer. The wall-clock epoch is fixed on the first call.
pub fn arm() {
    EPOCH.get_or_init(Instant::now);
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms the tracer. Buffered events stay buffered (drain them with
/// [`drain`] or [`crate::Trace::collect`]).
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
}

/// Nanoseconds since the tracer was first armed (0 if never armed).
fn wall_now_ns() -> u64 {
    EPOCH
        .get()
        .map_or(0, |epoch| epoch.elapsed().as_nanos() as u64)
}

/// Assigns the calling thread's track id (see the module docs for the
/// assignment scheme). Sequence counters are per track and keep
/// counting across reassignments, so a thread interleaving two tracks
/// still produces deterministic per-track ids.
pub fn set_track(track: u32) {
    LOCAL.with(|local| local.borrow_mut().track = track);
}

/// Spills the calling thread's buffered events into the global sink.
/// Call at coarse boundaries only (mission end); the hot
/// path spills automatically when the local buffer fills.
pub fn flush() {
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        if local.events.is_empty() {
            return;
        }
        let events = std::mem::take(&mut local.events);
        spill(events);
    });
}

fn spill(events: Vec<TraceEvent>) {
    let mut sink = SINK.lock().expect("trace sink poisoned");
    let room = SINK_CAPACITY.saturating_sub(sink.len());
    if events.len() > room {
        DROPPED.fetch_add((events.len() - room) as u64, Ordering::Relaxed);
    }
    sink.extend(events.into_iter().take(room));
}

/// Takes every spilled event (flushing the calling thread first) and
/// resets the drop counter. Other threads' unflushed buffers are left
/// alone — join or boundary-flush them before draining.
pub fn drain() -> Vec<TraceEvent> {
    flush();
    DROPPED.store(0, Ordering::Relaxed);
    std::mem::take(&mut *SINK.lock().expect("trace sink poisoned"))
}

/// Events dropped since the last [`drain`] because the sink was full.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

#[inline]
fn emit(
    kind: SpanKind,
    phase: TracePhase,
    sim_time: f64,
    wall_dur_ns: u64,
    detail: Option<String>,
    args: &[(&'static str, f64)],
) {
    let wall_ns = wall_now_ns();
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let track = local.track;
        let seq = local.next_seq();
        local.events.push(TraceEvent {
            kind,
            phase,
            track,
            seq,
            sim_time,
            wall_ns,
            wall_dur_ns,
            detail,
            args: args.to_vec(),
        });
        if local.events.len() >= RING_CAPACITY {
            let events = std::mem::take(&mut local.events);
            drop(local);
            spill(events);
        }
    });
}

/// Emits a complete span (`ph: "X"`). No-op when disarmed.
#[inline]
pub fn complete(
    kind: SpanKind,
    sim_start: f64,
    sim_dur: f64,
    wall_dur_ns: u64,
    args: &[(&'static str, f64)],
) {
    if !armed() {
        return;
    }
    emit(
        kind,
        TracePhase::Complete { sim_dur },
        sim_start,
        wall_dur_ns,
        None,
        args,
    );
}

/// [`complete`] with a free-form label (bus topic, row tag).
#[inline]
pub fn complete_labeled(
    kind: SpanKind,
    detail: &str,
    sim_start: f64,
    sim_dur: f64,
    wall_dur_ns: u64,
    args: &[(&'static str, f64)],
) {
    if !armed() {
        return;
    }
    emit(
        kind,
        TracePhase::Complete { sim_dur },
        sim_start,
        wall_dur_ns,
        Some(detail.to_string()),
        args,
    );
}

/// Emits an instant event (`ph: "i"`). No-op when disarmed.
#[inline]
pub fn instant(kind: SpanKind, sim_time: f64, args: &[(&'static str, f64)]) {
    if !armed() {
        return;
    }
    emit(kind, TracePhase::Instant, sim_time, 0, None, args);
}

/// [`instant`] with a free-form label.
#[inline]
pub fn instant_labeled(kind: SpanKind, detail: &str, sim_time: f64, args: &[(&'static str, f64)]) {
    if !armed() {
        return;
    }
    emit(
        kind,
        TracePhase::Instant,
        sim_time,
        0,
        Some(detail.to_string()),
        args,
    );
}

/// Emits a counter sample (`ph: "C"`), one counter series per
/// `(kind, detail)` pair. No-op when disarmed.
#[inline]
pub fn counter(kind: SpanKind, detail: &str, sim_time: f64, value: f64) {
    if !armed() {
        return;
    }
    emit(
        kind,
        TracePhase::Counter { value },
        sim_time,
        0,
        Some(detail.to_string()),
        &[],
    );
}

/// A wall-clock stopwatch handed out only while armed, so disarmed call
/// sites never touch `Instant::now()`.
#[derive(Debug)]
pub struct WallTimer {
    start: Instant,
}

impl WallTimer {
    /// Elapsed wall nanoseconds since the timer was started.
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// Starts a [`WallTimer`] when armed; `None` otherwise.
#[inline]
pub fn timer() -> Option<WallTimer> {
    armed().then(|| WallTimer {
        start: Instant::now(),
    })
}

/// Elapsed nanoseconds of an optional [`WallTimer`] (0 when `None`).
#[inline]
pub fn timer_ns(timer: &Option<WallTimer>) -> u64 {
    timer.as_ref().map_or(0, WallTimer::elapsed_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collector tests share the process-global sink; serialise them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disarmed_emission_records_nothing() {
        let _guard = TEST_LOCK.lock().unwrap();
        disarm();
        let _ = drain();
        complete(SpanKind::Decision, 0.0, 1.0, 0, &[]);
        instant(SpanKind::WatchdogFire, 0.5, &[]);
        counter(SpanKind::QueueDepth, "/t", 0.5, 1.0);
        assert!(timer().is_none());
        assert!(drain().is_empty());
    }

    #[test]
    fn sequences_are_per_track_and_survive_reassignment() {
        let _guard = TEST_LOCK.lock().unwrap();
        let _ = drain();
        arm();
        set_track(3);
        complete(SpanKind::Decision, 0.0, 0.1, 0, &[]);
        set_track(5);
        complete(SpanKind::Decision, 0.0, 0.1, 0, &[]);
        set_track(3);
        complete(SpanKind::Decision, 0.2, 0.1, 0, &[]);
        disarm();
        let events = drain();
        set_track(0);
        let ids: Vec<(u32, u64)> = events.iter().map(|e| (e.track, e.seq)).collect();
        assert!(ids.contains(&(3, 0)) && ids.contains(&(3, 1)) && ids.contains(&(5, 0)));
    }
}
