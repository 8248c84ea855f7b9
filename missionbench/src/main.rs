//! Mission-level benchmark of the RoboRun workspace.
//!
//! ```text
//! cargo run --release --manifest-path missionbench/Cargo.toml -- \
//!     --workload static_aware --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One process, one thread, closed loop: missions are flown back to back
//! through the public `MissionRunner` / `NodePipeline` drivers, each
//! decision starting only after the previous one finished. `--trace 0`
//! reports the end-to-end metrics with tracing off; `--trace 1` adds a
//! traced pass and a layer replay and reports the per-layer metrics.
//! Every run checks its outputs; a failed check prints `"correct": false`
//! and exits with code 1. The last stdout line is the JSON result; the
//! lines above it are per-mission outcome rows and a readable metric
//! table. See README.md.

mod replay;
mod workload;

use replay::Layers;
use roborun_geom::stats::{median, percentile};
use roborun_mission::{AggregateMetrics, MissionMetrics};
use std::time::Instant;
use workload::{Driver, Flight, Mission, Workload};

/// Every mission is flown at least this often per run, so each run checks
/// that repeated flights are bit-identical.
const MIN_FLIGHTS_PER_MISSION: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("missionbench: {err}");
            eprintln!(
                "usage: missionbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    let correct = run(&args);
    std::process::exit(if correct { 0 } else { 1 });
}

/// Count of failed output checks; each failure is reported on stderr.
#[derive(Default)]
struct Checks {
    failed: u64,
}

impl Checks {
    fn fail(&mut self, what: String) {
        eprintln!("missionbench: check failed: {what}");
        self.failed += 1;
    }
}

/// The untraced measurement: every mission flown back to back until
/// `seconds` have passed and each was flown `MIN_FLIGHTS_PER_MISSION`
/// times.
struct Measured {
    /// First flight of each mission (the reference for every repeat).
    reference: Vec<Flight>,
    /// Host wall time of every flight, per mission (seconds).
    walls: Vec<Vec<f64>>,
    flights: u64,
}

impl Measured {
    /// Each mission's fastest flight. Other tenants of a shared host only
    /// ever add time (throughput swings of ±30% lasting tens of seconds
    /// were measured on the 2-core host), so the fastest of several
    /// flights is the steadiest estimate of the program's own cost.
    fn fastest_walls(&self) -> Vec<f64> {
        self.walls
            .iter()
            .map(|w| w.iter().copied().fold(f64::INFINITY, f64::min))
            .collect()
    }

    fn median_walls(&self) -> Vec<f64> {
        self.walls.iter().map(|w| median(w).unwrap_or(f64::NAN)).collect()
    }
}

fn run(args: &Args) -> bool {
    let driver = args.workload.driver();
    let mut setup = Vec::new();
    let missions = set_up(args, &mut setup);
    let order = workload::flight_order(missions.len(), args.seed);
    let mut checks = Checks::default();

    println!(
        "# missionbench workload={} seed={} seconds={} trace={} host_cores={} commit={} missions={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        roborun_trace::host_cores(),
        commit(),
        missions.len(),
    );
    let measured = measure(&missions, args, &order, &mut setup, &mut checks);
    let walls = measured.fastest_walls();
    for (i, mission) in missions.iter().enumerate() {
        let flight = &measured.reference[i];
        let m = &flight.result.metrics;
        println!(
            "mission workload={} env={} seed={} mode={} driver={} decisions={} outcome={} sim_s={:.1} host_s={:.4} flights={}",
            args.workload.name(),
            mission.label,
            mission.env_seed,
            if mission.config.mode.is_aware() { "aware" } else { "oblivious" },
            match driver {
                Driver::Direct => "direct",
                Driver::Nodes => "nodes",
            },
            m.decisions,
            flight.outcome(),
            m.mission_time,
            walls[i],
            measured.walls[i].len(),
        );
    }

    let mut attempted = measured.flights;
    let metrics = if args.trace {
        let layers = traced_pass(&missions, driver, &order, &measured, &mut checks);
        attempted += missions.len() as u64;
        // One traced flight per mission against a typical untraced one.
        layer_metrics(&layers, driver, measured.median_walls().iter().sum())
    } else {
        end_to_end_metrics(&missions, &measured, &walls, &setup, &mut checks)
    };
    for metric in &metrics {
        match metric.value {
            Some(value) => println!("metric {} {value} {}", metric.name, metric.unit),
            None => println!("metric {} absent ({})", metric.name, metric.unit),
        }
    }
    let correct = checks.failed == 0;
    let json_metrics: Vec<String> = metrics
        .iter()
        .filter(|m| m.in_result)
        .filter_map(|m| {
            m.value.map(|v| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(v),
                    m.unit
                )
            })
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed,
        json_metrics.join(", ")
    );
    correct
}

/// Generates the workload's mission set, timing the generation.
fn set_up(args: &Args, setup: &mut Vec<f64>) -> Vec<Mission> {
    let t = Instant::now();
    let missions = workload::missions(args.workload, args.seed);
    setup.push(t.elapsed().as_secs_f64());
    missions
}

/// Flies the missions; after every flight the set-up is timed once more,
/// so `setup_s` (the median) samples the host over the whole run like the
/// flights do, not one burst at its start.
fn measure(
    missions: &[Mission],
    args: &Args,
    order: &[usize],
    setup: &mut Vec<f64>,
    checks: &mut Checks,
) -> Measured {
    let driver = args.workload.driver();
    let mut reference: Vec<Option<Flight>> = missions.iter().map(|_| None).collect();
    let mut walls = vec![Vec::new(); missions.len()];
    let mut flights = 0u64;
    let start = Instant::now();
    'passes: loop {
        for &i in order {
            let done = walls.iter().all(|w| w.len() >= MIN_FLIGHTS_PER_MISSION);
            if done && start.elapsed().as_secs_f64() >= args.seconds {
                break 'passes;
            }
            let t = Instant::now();
            let flight = missions[i].fly(driver);
            walls[i].push(t.elapsed().as_secs_f64());
            flights += 1;
            drop(set_up(args, setup));
            match &reference[i] {
                Some(first) => {
                    check_repeat(&missions[i], first, &flight, "repeated flight", checks)
                }
                None => {
                    check_flight(&missions[i], &flight, checks);
                    reference[i] = Some(flight);
                }
            }
        }
    }
    Measured {
        reference: reference
            .into_iter()
            .map(|f| f.expect("every mission flew at least once"))
            .collect(),
        walls,
        flights,
    }
}

/// Sanity of one flight's outputs.
fn check_flight(mission: &Mission, flight: &Flight, checks: &mut Checks) {
    let m = &flight.result.metrics;
    let mut problems = Vec::new();
    if m.decisions == 0 || flight.result.telemetry.len() != m.decisions {
        problems.push(format!(
            "{} decisions but {} telemetry records",
            m.decisions,
            flight.result.telemetry.len()
        ));
    }
    for (name, value) in [
        ("mission_time", m.mission_time),
        ("energy_kj", m.energy_kj),
        ("mean_velocity", m.mean_velocity),
    ] {
        if !(value.is_finite() && value >= 0.0) {
            problems.push(format!("{name} = {value}"));
        }
    }
    if !(0.0..=1.0).contains(&m.mean_cpu_utilization) {
        problems.push(format!("cpu utilisation {}", m.mean_cpu_utilization));
    }
    let end = flight.result.flown_path.last().copied();
    if m.reached_goal
        && !end.is_some_and(|p| p.distance(mission.env.goal()) <= mission.config.goal_tolerance)
    {
        problems.push("reported reaching the goal outside the goal tolerance".into());
    }
    if !problems.is_empty() {
        checks.fail(format!("{}: {}", mission.label, problems.join("; ")));
    }
}

fn fingerprint(m: &MissionMetrics) -> String {
    // `{:?}` prints each f64 in its shortest round-trip form, so equal
    // strings mean bit-identical metrics.
    format!("{m:?}")
}

fn check_repeat(
    mission: &Mission,
    first: &Flight,
    again: &Flight,
    what: &str,
    checks: &mut Checks,
) {
    if fingerprint(&first.result.metrics) != fingerprint(&again.result.metrics) {
        checks.fail(format!(
            "{}: {what} differs from the first flight: {} vs {}",
            mission.label,
            fingerprint(&again.result.metrics),
            fingerprint(&first.result.metrics)
        ));
    }
}

/// One metric of the result.
struct Metric {
    name: &'static str,
    unit: &'static str,
    /// `None` when the layer emits no data on this workload.
    value: Option<f64>,
    /// Part of the JSON result (every `BENCHMARK.json` metric), or only
    /// printed in the table.
    in_result: bool,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: Some(value),
        in_result: true,
    }
}

fn end_to_end_metrics(
    missions: &[Mission],
    measured: &Measured,
    walls: &[f64],
    setup: &[f64],
    checks: &mut Checks,
) -> Vec<Metric> {
    let mode = missions[0].config.mode;
    let mut aggregate = AggregateMetrics::new(mode);
    let mut decisions = 0usize;
    let mut failed = 0usize;
    for flight in &measured.reference {
        aggregate.push(&flight.result.metrics);
        decisions += flight.result.metrics.decisions;
        if flight.outcome() != "reached" {
            failed += 1;
        }
    }
    let host_wall: f64 = walls.iter().sum();
    let peak_rss_mb = peak_rss_mb().unwrap_or_else(|err| {
        checks.fail(format!("peak RSS: {err}"));
        f64::NAN
    });
    vec![
        metric("decisions_per_s", "1/s", decisions as f64 / host_wall),
        metric("mission_wall_s", "s", host_wall / missions.len() as f64),
        metric("setup_s", "s", median(setup).unwrap_or(f64::NAN)),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        metric("mission_time_s", "s", aggregate.mean_mission_time()),
        metric("energy_kj", "kJ", aggregate.mean_energy_kj()),
        metric("velocity_mps", "m/s", aggregate.mean_velocity()),
        metric("cpu_util", "ratio", aggregate.mean_cpu_utilization()),
        metric(
            "failed_frac",
            "ratio",
            failed as f64 / missions.len() as f64,
        ),
    ]
}

/// One traced pass over the mission set (collector armed around each
/// flight), then the layer replay of every traced flight.
fn traced_pass(
    missions: &[Mission],
    driver: Driver,
    order: &[usize],
    measured: &Measured,
    checks: &mut Checks,
) -> Layers {
    let mut layers = Layers::default();
    let _ = roborun_trace::collector::drain();
    for &i in order {
        let mission = &missions[i];
        roborun_trace::collector::arm();
        let t = Instant::now();
        let flight = mission.fly(driver);
        let wall = t.elapsed().as_secs_f64();
        roborun_trace::collector::disarm();
        let dropped = roborun_trace::collector::dropped();
        let events = roborun_trace::collector::drain();
        if dropped > 0 {
            checks.fail(format!("{}: trace dropped {dropped} events", mission.label));
        }
        check_repeat(
            mission,
            &measured.reference[i],
            &flight,
            "traced flight",
            checks,
        );
        if driver == Driver::Direct {
            let spans = events
                .iter()
                .filter(|e| e.kind == roborun_trace::SpanKind::Decision)
                .count();
            if spans != flight.result.metrics.decisions {
                checks.fail(format!(
                    "{}: {spans} decision spans for {} decisions",
                    mission.label, flight.result.metrics.decisions
                ));
            }
        }
        layers.traced_wall_s += wall;
        layers.add_trace(&events, flight.graph.as_ref());
        layers.replay(
            mission,
            driver,
            &flight.result.telemetry,
            &flight.result.flown_path,
            &flight.result.flown_times,
            &events,
        );
    }
    layers
}

fn layer_metrics(layers: &Layers, driver: Driver, untraced_wall: f64) -> Vec<Metric> {
    let decisions = layers.decisions.max(1) as f64;
    let per_decision_ms = |seconds: f64| seconds * 1e3 / decisions;
    let per_decision = |count: u64| count as f64 / decisions;
    let attempts = layers.plan_attempts.max(1) as f64;
    let search = |q: f64| percentile(&layers.search_ms, q).unwrap_or(0.0);
    // The node driver emits no `decision` or `plan` span: its decision
    // and plan-span metrics are absent, not zero.
    let direct_only = |value: f64| (driver == Driver::Direct).then_some(value);
    vec![
        Metric {
            name: "mission.decision_ms_p50",
            unit: "ms",
            value: percentile(&layers.decision_span_ms, 0.50),
            in_result: false,
        },
        Metric {
            name: "mission.decision_ms_p99",
            unit: "ms",
            value: percentile(&layers.decision_span_ms, 0.99),
            in_result: false,
        },
        Metric {
            name: "planning.plan_span_ms",
            unit: "ms",
            value: direct_only(per_decision_ms(layers.plan_span_s)),
            in_result: false,
        },
        metric("core.profile_ms", "ms", per_decision_ms(layers.profile_s)),
        metric("sim.capture_ms", "ms", per_decision_ms(layers.capture_s)),
        metric(
            "perception.integrate_ms",
            "ms",
            per_decision_ms(layers.integrate_s),
        ),
        metric(
            "perception.points_integrated",
            "count",
            per_decision(layers.points_integrated),
        ),
        metric(
            "perception.export_ms",
            "ms",
            per_decision_ms(layers.export_s),
        ),
        metric(
            "perception.export_voxels",
            "count",
            per_decision(layers.export_voxels),
        ),
        metric(
            "planning.checker_update_ms",
            "ms",
            per_decision_ms(layers.checker_update_s),
        ),
        metric(
            "planning.delta_added_voxels",
            "count",
            layers.delta_added_voxels as f64 / attempts,
        ),
        metric(
            "planning.search_ms_p50",
            "ms",
            search(0.50),
        ),
        metric(
            "planning.search_ms_p90",
            "ms",
            search(0.90),
        ),
        metric(
            "planning.samples_per_plan",
            "count",
            layers.samples as f64 / attempts,
        ),
        metric(
            "planning.collision_queries_per_plan",
            "count",
            layers.collision_queries as f64 / attempts,
        ),
        metric(
            "planning.plan_ok_ratio",
            "ratio",
            layers.plans_ok as f64 / attempts,
        ),
        metric(
            "planning.hazard_retarget_ms",
            "ms",
            per_decision_ms(layers.retarget_s),
        ),
        metric(
            "dynamics.snapshot_ms",
            "ms",
            per_decision_ms(layers.snapshot_s),
        ),
        metric(
            "dynamics.predict_ms",
            "ms",
            per_decision_ms(layers.predict_s),
        ),
        metric(
            "dynamics.predicted_boxes",
            "count",
            per_decision(layers.predicted_boxes),
        ),
        metric(
            "middleware.publish_ms",
            "ms",
            per_decision_ms(layers.publish_s),
        ),
        metric(
            "middleware.mb_per_decision",
            "MB",
            layers.bytes_published as f64 / 1e6 / decisions,
        ),
        metric(
            "middleware.deliveries",
            "count",
            per_decision(layers.deliveries),
        ),
        metric("middleware.drops", "count", per_decision(layers.drops)),
        metric(
            "trace.overhead",
            "ratio",
            layers.traced_wall_s / untraced_wall - 1.0,
        ),
        metric(
            "replay.coverage",
            "ratio",
            layers.replayed_s() / layers.traced_wall_s,
        ),
    ]
}

/// JSON has no NaN or infinity: such a value (only possible after a
/// failed check) is written as `null`.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

/// Peak resident set size of this process (Linux `VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The commit being measured: the checkout's `.git/HEAD`, else `unknown`.
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|sha| sha.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|line| {
                let (sha, name) = line.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
