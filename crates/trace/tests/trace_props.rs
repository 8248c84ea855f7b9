//! Property tests for the collector's two structural guarantees:
//!
//! 1. **Exports validate** — whatever mix of complete spans, instants
//!    and counters the instrumentation emits, the exported Chrome trace
//!    validates and holds every event.
//! 2. **Event ids are deterministic** — `(track, seq)` identifies an
//!    event by the simulation's own emission order, so replaying the
//!    same operation sequence yields bit-identical sim-time streams,
//!    and per-track streams are independent of OS thread scheduling.
//!
//! Each case runs its emission on a freshly spawned thread so the
//! per-thread sequence counters start from zero, and the whole file
//! serialises on one mutex because the collector sink is process-global.

use proptest::prelude::*;
use roborun_trace::collector;
use roborun_trace::{validate_chrome_trace, SpanKind, Trace, TraceEvent, TracePhase};
use std::sync::Mutex;

/// The collector is process-global state; cases must not interleave.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Sim-time projection of an event: everything except the wall-clock
/// fields, which legitimately differ between replays.
type SimKey = (
    &'static str,
    TracePhase,
    u32,
    u64,
    u64,
    Option<String>,
    Vec<(&'static str, f64)>,
);

fn sim_key(e: &TraceEvent) -> SimKey {
    (
        e.kind.name(),
        e.phase,
        e.track,
        e.seq,
        e.sim_time.to_bits(),
        e.detail.clone(),
        e.args.clone(),
    )
}

/// Emits one event for op `i` with action `action` on the current track.
fn emit(action: u8, i: usize) {
    let t = i as f64 * 0.01;
    match action % 4 {
        0 => collector::complete(SpanKind::Decision, t, 0.005, 0, &[("op", i as f64)]),
        1 => collector::instant(SpanKind::FaultInjected, t, &[]),
        2 => collector::counter(SpanKind::QueueDepth, "/trace_props", t, i as f64),
        _ => collector::complete(SpanKind::Plan, t, 0.002, 0, &[]),
    }
}

/// Runs one interleaved op sequence on a fresh thread and drains it.
/// The property under test is that the *exporter agrees* and that ids
/// replay identically.
fn apply(ops: Vec<(u32, u8)>) -> Vec<TraceEvent> {
    std::thread::spawn(move || {
        let _ = collector::drain();
        collector::arm();
        for (i, &(track, action)) in ops.iter().enumerate() {
            collector::set_track(track);
            emit(action, i);
        }
        collector::disarm();
        collector::set_track(0);
        collector::drain()
    })
    .join()
    .expect("emission thread")
}

/// Runs each track's op list on its own concurrently scheduled thread.
fn apply_parallel(per_track: Vec<Vec<u8>>) -> Vec<TraceEvent> {
    let _ = collector::drain();
    collector::arm();
    std::thread::scope(|s| {
        for (t, actions) in per_track.into_iter().enumerate() {
            let track = 200 + t as u32;
            s.spawn(move || {
                collector::set_track(track);
                for (i, &action) in actions.iter().enumerate() {
                    emit(action, i);
                }
                collector::flush();
            });
        }
    });
    collector::disarm();
    collector::drain()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any interleaving of emission ops across tracks on one thread
    /// yields (a) a schema-valid Chrome trace holding every event, (b)
    /// dense per-track sequence numbers in emission order, and (c) the
    /// exact same sim-time event stream when replayed.
    #[test]
    fn spans_balance_and_ids_replay(ops in prop::collection::vec((0u32..4, 0u8..4), 0..48)) {
        let _guard = TEST_LOCK.lock().unwrap();
        let first = apply(ops.clone());

        // (a) exporter agrees the stream is valid and complete.
        let trace = Trace::from_events(first.clone());
        let events = validate_chrome_trace(&trace.to_chrome_json("props", false))
            .map_err(TestCaseError::Fail)?;
        prop_assert_eq!(events, ops.len());

        // (b) per-track seqs are 0,1,2,... in emission order.
        let mut next = std::collections::HashMap::new();
        for e in &first {
            let counter = next.entry(e.track).or_insert(0u64);
            prop_assert_eq!(e.seq, *counter, "track {} seq out of order", e.track);
            *counter += 1;
        }

        // (c) replaying the identical op sequence reproduces the
        // identical sim-time stream, bit for bit.
        let second = apply(ops);
        let first_keys: Vec<_> = first.iter().map(sim_key).collect();
        let second_keys: Vec<_> = second.iter().map(sim_key).collect();
        prop_assert_eq!(first_keys, second_keys);
    }

    /// With each track driven by its own OS thread, the per-track event
    /// streams are identical across runs even though the global arrival
    /// order in the sink is scheduler-dependent.
    #[test]
    fn per_track_ids_survive_thread_interleaving(
        per_track in prop::collection::vec(prop::collection::vec(0u8..4, 1..24), 1..4),
    ) {
        let _guard = TEST_LOCK.lock().unwrap();
        let first = apply_parallel(per_track.clone());
        let second = apply_parallel(per_track.clone());

        for (t, actions) in per_track.iter().enumerate() {
            let track = 200 + t as u32;
            let project = |events: &[TraceEvent]| {
                let mut mine: Vec<_> = events.iter().filter(|e| e.track == track).collect();
                mine.sort_by_key(|e| e.seq);
                mine.iter().map(|e| sim_key(e)).collect::<Vec<_>>()
            };
            let first_track = project(&first);
            let second_track = project(&second);
            prop_assert_eq!(first_track.len(), actions.len());
            prop_assert_eq!(first_track, second_track, "track {} diverged", track);
        }
    }
}
