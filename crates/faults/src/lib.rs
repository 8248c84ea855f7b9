//! Deterministic fault plans for the mission stack.
//!
//! RoboRun's runtime only ever sees a *healthy* robot unless something
//! injects failure — and ad-hoc failure injection destroys the workspace's
//! bit-reproducibility contract. This crate makes failure a first-class,
//! deterministic input instead: a [`FaultPlan`] is a **pure function of the
//! decision index** (plus a fixed seed), exactly like the `dynamics` crate
//! is a pure function of time, so the same seed and plan replay the same
//! faults bit-for-bit on every run and on both mission drivers.
//!
//! # The determinism contract
//!
//! - [`FaultPlan::frame`] derives everything from `(seed, decision)`:
//!   window membership uses `(decision + phase) % period < len` with a
//!   seed-derived per-channel phase, and any per-decision randomness
//!   (burst corruption, link dice) comes from a fresh
//!   [`SplitMix64`] keyed by seed, a per-channel
//!   salt and the decision index. No shared mutable RNG stream exists, so
//!   evaluation order cannot perturb outcomes.
//! - Bus faults are a pure function of `(topic, sequence)`: the
//!   [`DeterministicLinkFaults`] model re-seeds per sample, so the same
//!   publish sequence yields the same losses, duplicates and delays
//!   regardless of node scheduling.
//! - A healthy plan ([`FaultPlanConfig::is_healthy`]) must never be armed:
//!   callers gate on it (`(!cfg.is_healthy()).then(...)`) so that
//!   faults-off runs execute the exact pre-fault code path and stay
//!   byte-identical to the golden fixtures.
//!
//! # Injection points
//!
//! Each channel names the single place in the stack where it applies:
//!
//! | channel | injection point |
//! |---------|-----------------|
//! | sensor blackout / burst | between the camera rig and cloud integration ([`FaultFrame::corrupt_sweep`]) |
//! | sensor fog | the same corruptor drops returns beyond the cap; both drivers clamp the profiled visibility to it |
//! | bus loss / duplication / delay | [`MessageBus::publish`](roborun_middleware::MessageBus) via [`FaultyBus`] |
//! | planner spike / forced failure | around the planner call, charged to the planning latency |
//! | stale map | the map-integration step of the perception operators |
//!
//! # The degradation ladder
//!
//! The mission runtime (in `roborun-mission`) pairs this crate with a
//! graceful-degradation ladder. When a planner fault or stale perception is
//! detected the runtime walks, in order: **retry** the plan under a
//! watchdog budget with decaying backoff → **reuse** the last valid
//! trajectory while it stays clear → **hover** in place → **wedge-retreat
//! safe-stop**, recording the step taken in every decision's telemetry.
//! This crate only *produces* faults; the ladder lives with the drivers so
//! both `MissionRunner` and the node pipeline share it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use roborun_geom::{SplitMix64, Vec3};
use roborun_middleware::{LinkDisposition, LinkFaultModel, MessageBus, TopicName};
use serde::{Deserialize, Serialize};

/// Per-channel salts folded into the plan seed so channels draw from
/// unrelated streams even when their windows coincide.
const BLACKOUT_SALT: u64 = 0x424C_4143_4B4F_5554; // "BLACKOUT"
const BURST_SALT: u64 = 0x4255_5253_544E_4F49;
const SPIKE_SALT: u64 = 0x5350_494B_455F_5031;
const FAILURE_SALT: u64 = 0x4641_494C_5552_4553;
const STALE_SALT: u64 = 0x5354_414C_454D_4150; // "STALEMAP"
const LINK_SALT: u64 = 0x4C49_4E4B_4641_554C;

/// A periodic activation window over the decision index.
///
/// The window is active when `(decision + phase) % period < len`, where
/// `phase` is derived from the plan seed so different seeds shift where in
/// the mission the faults land without changing their duty cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultWindows {
    /// Window period in decisions (must be positive).
    pub period: u64,
    /// Active decisions per period (`0 < len <= period`).
    pub len: u64,
}

impl FaultWindows {
    /// A window active for `len` out of every `period` decisions.
    pub fn every(period: u64, len: u64) -> Self {
        FaultWindows { period, len }
    }

    /// `true` when `decision` (shifted by `phase`) falls inside the window.
    pub fn active(&self, decision: u64, phase: u64) -> bool {
        self.period > 0 && (decision.wrapping_add(phase)) % self.period < self.len
    }

    fn validate(&self, name: &str) -> Result<(), String> {
        if self.period == 0 {
            return Err(format!("{name}: period must be positive"));
        }
        if self.len == 0 || self.len > self.period {
            return Err(format!(
                "{name}: len must be in 1..=period, got {} of {}",
                self.len, self.period
            ));
        }
        Ok(())
    }
}

/// Perception-side faults: full sensor blackouts, depth-noise bursts and
/// fog.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SensorFaultChannel {
    /// Fog: on every decision, depth returns farther than this from the
    /// sensor are lost and the profiled visibility is clamped to it
    /// (metres, positive). `None` disables fog.
    pub fog_cap: Option<f64>,
    /// Decisions on which the whole sweep is lost (no depth returns at
    /// all, and the map is not updated).
    pub blackout: Option<FaultWindows>,
    /// Decisions on which surviving returns are corrupted per
    /// [`SensorFaultChannel::burst_dropout`] / `burst_noise_std`.
    pub burst: Option<FaultWindows>,
    /// Per-point dropout probability during a burst, in `[0, 1]`.
    pub burst_dropout: f64,
    /// Radial noise standard deviation during a burst (metres).
    pub burst_noise_std: f64,
}

/// Planning-side faults: latency spikes and forced plan failures.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PlannerFaultChannel {
    /// Decisions on which the planner takes `spike_latency` extra seconds.
    pub spike: Option<FaultWindows>,
    /// Extra planning latency during a spike (seconds, non-negative).
    pub spike_latency: f64,
    /// Decisions on which the planner call fails outright.
    pub failure: Option<FaultWindows>,
}

/// Environment-model faults: epochs during which the map goes stale
/// (sensing continues but integration is withheld).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MapFaultChannel {
    /// Decisions on which map integration is skipped.
    pub stale: Option<FaultWindows>,
}

/// Link faults applied to one named topic.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LinkFaultConfig {
    /// Probability a published sample is lost on the wire, in `[0, 1]`.
    pub loss_probability: f64,
    /// Probability a sample is delivered twice, in `[0, 1]`.
    pub duplicate_probability: f64,
    /// Probability a sample is delayed by `extra_delay`, in `[0, 1]`.
    pub delay_probability: f64,
    /// Extra transport latency for delayed samples (seconds).
    pub extra_delay: f64,
}

impl LinkFaultConfig {
    /// `true` when the link never misbehaves.
    pub fn is_healthy(&self) -> bool {
        self.loss_probability <= 0.0
            && self.duplicate_probability <= 0.0
            && (self.delay_probability <= 0.0 || self.extra_delay <= 0.0)
    }

    fn validate(&self, topic: &str) -> Result<(), String> {
        for (name, p) in [
            ("loss_probability", self.loss_probability),
            ("duplicate_probability", self.duplicate_probability),
            ("delay_probability", self.delay_probability),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{topic}: {name} must be in [0, 1], got {p}"));
            }
        }
        if self.extra_delay < 0.0 || !self.extra_delay.is_finite() {
            return Err(format!(
                "{topic}: extra_delay must be finite and non-negative, got {}",
                self.extra_delay
            ));
        }
        Ok(())
    }
}

/// Middleware faults: per-topic loss/duplication/delay dice.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BusFaultChannel {
    /// `(topic name, faults)` pairs; topics not listed are healthy.
    pub links: Vec<(String, LinkFaultConfig)>,
}

impl BusFaultChannel {
    /// `true` when no listed link misbehaves.
    pub fn is_healthy(&self) -> bool {
        self.links.iter().all(|(_, link)| link.is_healthy())
    }
}

/// The full, serialisable description of a fault campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlanConfig {
    /// Seed of the plan's derived random streams.
    pub seed: u64,
    /// Perception faults.
    pub sensor: SensorFaultChannel,
    /// Planning faults.
    pub planner: PlannerFaultChannel,
    /// Map-staleness faults.
    pub map: MapFaultChannel,
    /// Middleware link faults (only meaningful on the node pipeline).
    pub bus: BusFaultChannel,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            seed: 0x0BAD_5EED,
            sensor: SensorFaultChannel::default(),
            planner: PlannerFaultChannel::default(),
            map: MapFaultChannel::default(),
            bus: BusFaultChannel::default(),
        }
    }
}

impl FaultPlanConfig {
    /// No faults at all (the default).
    pub fn healthy() -> Self {
        FaultPlanConfig::default()
    }

    /// A foggy mission: visibility capped at `cap` metres (at least 1 m)
    /// and mild range noise (0.05 m) on every decision.
    pub fn fog(cap: f64) -> Self {
        FaultPlanConfig {
            sensor: SensorFaultChannel {
                fog_cap: Some(cap.max(1.0)),
                burst: Some(FaultWindows::every(1, 1)),
                burst_noise_std: 0.05,
                ..SensorFaultChannel::default()
            },
            ..FaultPlanConfig::default()
        }
    }

    /// A flaky sensing stack: one sweep in every `round(1 / sweep_dropout)`
    /// decisions is lost (none when `sweep_dropout` is 0), and on every
    /// decision a `point_dropout` fraction of the returns is lost and the
    /// rest carry 0.08 m of range noise. Both rates are clamped to
    /// `[0, 1]`.
    pub fn flaky_sensors(sweep_dropout: f64, point_dropout: f64) -> Self {
        let sweep_dropout = sweep_dropout.clamp(0.0, 1.0);
        FaultPlanConfig {
            sensor: SensorFaultChannel {
                blackout: (sweep_dropout > 0.0)
                    .then(|| FaultWindows::every((1.0 / sweep_dropout).round() as u64, 1)),
                burst: Some(FaultWindows::every(1, 1)),
                burst_dropout: point_dropout.clamp(0.0, 1.0),
                burst_noise_std: 0.08,
                ..SensorFaultChannel::default()
            },
            ..FaultPlanConfig::default()
        }
    }

    /// `true` when every channel is disabled; healthy plans must not be
    /// armed so that faults-off runs stay byte-identical.
    pub fn is_healthy(&self) -> bool {
        self.sensor.fog_cap.is_none()
            && self.sensor.blackout.is_none()
            && (self.sensor.burst.is_none()
                || (self.sensor.burst_dropout <= 0.0 && self.sensor.burst_noise_std <= 0.0))
            && (self.planner.spike.is_none() || self.planner.spike_latency <= 0.0)
            && self.planner.failure.is_none()
            && self.map.stale.is_none()
            && self.bus.is_healthy()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field: degenerate
    /// windows, probabilities outside `[0, 1]`, negative or non-finite
    /// latencies, a non-positive fog cap, or invalid topic names on the
    /// bus channel.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(cap) = self.sensor.fog_cap {
            if cap.is_nan() || cap <= 0.0 {
                return Err(format!("sensor.fog_cap must be positive, got {cap}"));
            }
        }
        if let Some(w) = &self.sensor.blackout {
            w.validate("sensor.blackout")?;
        }
        if let Some(w) = &self.sensor.burst {
            w.validate("sensor.burst")?;
            if !(0.0..=1.0).contains(&self.sensor.burst_dropout) {
                return Err(format!(
                    "sensor.burst_dropout must be in [0, 1], got {}",
                    self.sensor.burst_dropout
                ));
            }
            if self.sensor.burst_noise_std < 0.0 {
                return Err(format!(
                    "sensor.burst_noise_std must be non-negative, got {}",
                    self.sensor.burst_noise_std
                ));
            }
        }
        if let Some(w) = &self.planner.spike {
            w.validate("planner.spike")?;
            if self.planner.spike_latency < 0.0 || !self.planner.spike_latency.is_finite() {
                return Err(format!(
                    "planner.spike_latency must be finite and non-negative, got {}",
                    self.planner.spike_latency
                ));
            }
        }
        if let Some(w) = &self.planner.failure {
            w.validate("planner.failure")?;
        }
        if let Some(w) = &self.map.stale {
            w.validate("map.stale")?;
        }
        for (topic, link) in &self.bus.links {
            TopicName::new(topic).map_err(|e| format!("bus link topic: {e}"))?;
            link.validate(topic)?;
        }
        Ok(())
    }
}

/// Burst-corruption parameters for one decision, consumed by
/// [`FaultFrame::corrupt_sweep`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensorBurst {
    /// Per-point dropout probability, in `[0, 1]`.
    pub dropout: f64,
    /// Radial noise standard deviation (metres).
    pub noise_std: f64,
    /// Seed for this decision's corruption stream (derived from the plan
    /// seed and the decision index).
    pub seed: u64,
}

/// What the plan injects on one decision — a pure function of
/// `(plan seed, decision index)`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultFrame {
    /// The whole sensor sweep is lost and the map is not updated.
    pub sensor_blackout: bool,
    /// Surviving depth returns are corrupted with these parameters.
    pub sensor_burst: Option<SensorBurst>,
    /// Fog cap on depth returns and profiled visibility (metres).
    pub fog_cap: Option<f64>,
    /// Extra planning latency charged this decision (seconds).
    pub planner_spike: f64,
    /// The planner call fails outright this decision.
    pub planner_failure: bool,
    /// Map integration is withheld this decision.
    pub map_stale: bool,
}

impl FaultFrame {
    /// `true` when nothing is injected this decision.
    pub fn is_healthy(&self) -> bool {
        !self.sensor_blackout
            && self.sensor_burst.is_none()
            && self.fog_cap.is_none()
            && self.planner_spike <= 0.0
            && !self.planner_failure
            && !self.map_stale
    }

    /// Number of fault channels active this decision (for the
    /// `faults_injected` mission counter).
    pub fn injected_count(&self) -> usize {
        usize::from(self.sensor_blackout)
            + usize::from(self.sensor_burst.is_some())
            + usize::from(self.fog_cap.is_some())
            + usize::from(self.planner_spike > 0.0)
            + usize::from(self.planner_failure)
            + usize::from(self.map_stale)
    }

    /// Applies this decision's sensing faults to one sweep of depth
    /// returns measured from `origin` and returns the survivors: returns
    /// beyond the fog cap are lost first, then the burst drops and
    /// radially perturbs the rest. The burst draws from a fresh
    /// [`SplitMix64`] seeded with [`SensorBurst::seed`] — per point a
    /// dropout draw when `dropout > 0`, then a Gaussian draw when
    /// `noise_std > 0` — so the corruption is a pure function of
    /// `(plan seed, decision index)`. A frame without fog or burst hands
    /// `points` back untouched. Blackouts are the caller's to honour: a
    /// blacked-out sweep is never captured.
    pub fn corrupt_sweep(&self, origin: Vec3, points: Vec<Vec3>) -> Vec<Vec3> {
        if self.fog_cap.is_none() && self.sensor_burst.is_none() {
            return points;
        }
        let cap = self.fog_cap.unwrap_or(f64::INFINITY);
        let SensorBurst {
            dropout,
            noise_std,
            seed,
        } = self.sensor_burst.unwrap_or(SensorBurst {
            dropout: 0.0,
            noise_std: 0.0,
            seed: 0,
        });
        let mut rng = SplitMix64::new(seed);
        let mut out = Vec::with_capacity(points.len());
        for p in points {
            let offset = p - origin;
            let range = offset.norm();
            if range > cap || (dropout > 0.0 && rng.chance(dropout)) {
                continue;
            }
            let point = if noise_std > 0.0 && range > 1e-9 {
                let noisy_range = (range + rng.gaussian_with(0.0, noise_std)).max(0.05);
                origin + offset * (noisy_range / range)
            } else {
                p
            };
            out.push(point);
        }
        out
    }
}

/// A compiled fault plan: per-channel phases are derived from the seed once
/// so that [`FaultPlan::frame`] is a cheap pure function.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultPlanConfig,
    blackout_phase: u64,
    burst_phase: u64,
    spike_phase: u64,
    failure_phase: u64,
    stale_phase: u64,
}

fn phase_for(seed: u64, salt: u64, windows: Option<FaultWindows>) -> u64 {
    match windows {
        Some(w) if w.period > 0 => SplitMix64::new(seed ^ salt).next_u64() % w.period,
        _ => 0,
    }
}

impl FaultPlan {
    /// Compiles a plan.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`FaultPlanConfig::validate`]).
    pub fn new(config: FaultPlanConfig) -> Self {
        config.validate().expect("invalid fault plan");
        let seed = config.seed;
        FaultPlan {
            blackout_phase: phase_for(seed, BLACKOUT_SALT, config.sensor.blackout),
            burst_phase: phase_for(seed, BURST_SALT, config.sensor.burst),
            spike_phase: phase_for(seed, SPIKE_SALT, config.planner.spike),
            failure_phase: phase_for(seed, FAILURE_SALT, config.planner.failure),
            stale_phase: phase_for(seed, STALE_SALT, config.map.stale),
            config,
        }
    }

    /// The plan's configuration.
    pub fn config(&self) -> &FaultPlanConfig {
        &self.config
    }

    /// The faults injected on decision `decision` (0-based). Pure: the same
    /// `(config, decision)` always yields the same frame.
    pub fn frame(&self, decision: u64) -> FaultFrame {
        let sensor = &self.config.sensor;
        let planner = &self.config.planner;
        let sensor_blackout = sensor
            .blackout
            .is_some_and(|w| w.active(decision, self.blackout_phase));
        let burst_active = sensor
            .burst
            .is_some_and(|w| w.active(decision, self.burst_phase))
            && (sensor.burst_dropout > 0.0 || sensor.burst_noise_std > 0.0);
        let sensor_burst = (burst_active && !sensor_blackout).then(|| SensorBurst {
            dropout: sensor.burst_dropout,
            noise_std: sensor.burst_noise_std,
            seed: SplitMix64::new(
                self.config.seed ^ BURST_SALT ^ decision.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )
            .next_u64(),
        });
        let planner_spike = if planner
            .spike
            .is_some_and(|w| w.active(decision, self.spike_phase))
        {
            planner.spike_latency
        } else {
            0.0
        };
        let planner_failure = planner
            .failure
            .is_some_and(|w| w.active(decision, self.failure_phase));
        let map_stale = self
            .config
            .map
            .stale
            .is_some_and(|w| w.active(decision, self.stale_phase));
        FaultFrame {
            sensor_blackout,
            sensor_burst,
            fog_cap: sensor.fog_cap,
            planner_spike,
            planner_failure,
            map_stale,
        }
    }

    /// A bus fault model for this plan, or `None` when the bus channel is
    /// healthy. Install on a [`MessageBus`] (or use [`FaultyBus`]).
    pub fn link_faults(&self) -> Option<DeterministicLinkFaults> {
        (!self.config.bus.is_healthy()).then(|| DeterministicLinkFaults {
            seed: self.config.seed,
            links: self.config.bus.links.clone(),
        })
    }
}

/// FNV-1a over the topic name: a stable, dependency-free hash so link dice
/// do not depend on the standard library's hasher internals.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A [`LinkFaultModel`] that is a pure function of `(topic, sequence)`:
/// each sample re-seeds its own [`SplitMix64`], so delivery faults are
/// reproducible regardless of publish interleaving across topics.
#[derive(Debug, Clone)]
pub struct DeterministicLinkFaults {
    seed: u64,
    links: Vec<(String, LinkFaultConfig)>,
}

impl LinkFaultModel for DeterministicLinkFaults {
    fn disposition(&mut self, topic: &TopicName, sequence: u64) -> LinkDisposition {
        let Some((_, link)) = self.links.iter().find(|(name, _)| name == topic.as_str()) else {
            return LinkDisposition::healthy();
        };
        let mut rng = SplitMix64::new(
            self.seed
                ^ LINK_SALT
                ^ fnv1a(topic.as_str())
                ^ sequence.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let drop = link.loss_probability > 0.0 && rng.chance(link.loss_probability);
        let duplicates = if !drop
            && link.duplicate_probability > 0.0
            && rng.chance(link.duplicate_probability)
        {
            1
        } else {
            0
        };
        let extra_delay = if !drop
            && link.delay_probability > 0.0
            && link.extra_delay > 0.0
            && rng.chance(link.delay_probability)
        {
            link.extra_delay
        } else {
            0.0
        };
        LinkDisposition {
            drop,
            duplicates,
            extra_delay,
        }
    }
}

/// A [`MessageBus`] with a fault plan's link model pre-installed.
///
/// The wrapper derefs to the underlying bus, so every typed
/// [`BusError`](roborun_middleware::BusError) surface is unchanged —
/// publishes on a lossy link still return `Ok` (loss is silent, as on a
/// real wire), while structural failures (`BusClosed`, `TypeMismatch`,
/// `PayloadTypeCorrupted`, …) propagate exactly as on a healthy bus.
#[derive(Debug, Clone)]
pub struct FaultyBus {
    bus: MessageBus,
}

impl FaultyBus {
    /// Wraps `bus`, installing `faults` as its link model.
    pub fn new(bus: MessageBus, faults: DeterministicLinkFaults) -> Self {
        bus.install_link_faults(Box::new(faults));
        FaultyBus { bus }
    }

    /// A cheap clone of the underlying bus handle (for node construction).
    pub fn bus(&self) -> MessageBus {
        self.bus.clone()
    }
}

impl std::ops::Deref for FaultyBus {
    type Target = MessageBus;

    fn deref(&self) -> &MessageBus {
        &self.bus
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed_plan() -> FaultPlanConfig {
        FaultPlanConfig {
            sensor: SensorFaultChannel {
                blackout: Some(FaultWindows::every(30, 8)),
                burst: Some(FaultWindows::every(17, 5)),
                burst_dropout: 0.4,
                burst_noise_std: 0.1,
                ..SensorFaultChannel::default()
            },
            planner: PlannerFaultChannel {
                spike: Some(FaultWindows::every(23, 4)),
                spike_latency: 6.0,
                failure: Some(FaultWindows::every(29, 3)),
            },
            map: MapFaultChannel {
                stale: Some(FaultWindows::every(13, 2)),
            },
            bus: BusFaultChannel {
                links: vec![(
                    "/sensors/points".to_string(),
                    LinkFaultConfig {
                        loss_probability: 0.3,
                        duplicate_probability: 0.1,
                        delay_probability: 0.2,
                        extra_delay: 0.05,
                    },
                )],
            },
            ..FaultPlanConfig::default()
        }
    }

    #[test]
    fn healthy_plan_injects_nothing() {
        let plan = FaultPlan::new(FaultPlanConfig::healthy());
        assert!(FaultPlanConfig::healthy().is_healthy());
        for d in 0..500 {
            assert!(plan.frame(d).is_healthy());
            assert_eq!(plan.frame(d).injected_count(), 0);
        }
        assert!(plan.link_faults().is_none());
    }

    #[test]
    fn frames_are_a_pure_function_of_the_decision() {
        let plan_a = FaultPlan::new(armed_plan());
        let plan_b = FaultPlan::new(armed_plan());
        for d in 0..1_000 {
            assert_eq!(plan_a.frame(d), plan_b.frame(d));
        }
        // Evaluation order does not matter.
        for d in (0..1_000).rev() {
            assert_eq!(plan_a.frame(d), plan_b.frame(d));
        }
    }

    #[test]
    fn windows_respect_their_duty_cycle() {
        let plan = FaultPlan::new(FaultPlanConfig {
            sensor: SensorFaultChannel {
                blackout: Some(FaultWindows::every(20, 5)),
                ..SensorFaultChannel::default()
            },
            ..FaultPlanConfig::default()
        });
        let active = (0..2_000)
            .filter(|&d| plan.frame(d).sensor_blackout)
            .count();
        assert_eq!(active, 2_000 / 20 * 5);
        assert!(!plan.config().is_healthy());
    }

    #[test]
    fn different_seeds_shift_the_phase_but_not_the_duty_cycle() {
        let windows = FaultWindows::every(40, 10);
        let mk = |seed| {
            FaultPlan::new(FaultPlanConfig {
                seed,
                sensor: SensorFaultChannel {
                    blackout: Some(windows),
                    ..SensorFaultChannel::default()
                },
                ..FaultPlanConfig::default()
            })
        };
        let counts: Vec<usize> = (1..=4u64)
            .map(|s| {
                (0..4_000)
                    .filter(|&d| mk(s).frame(d).sensor_blackout)
                    .count()
            })
            .collect();
        assert!(counts.iter().all(|&c| c == 1_000), "{counts:?}");
        // At least one pair of seeds disagrees on some decision.
        let a = mk(1);
        let b = mk(2);
        assert!((0..200).any(|d| a.frame(d).sensor_blackout != b.frame(d).sensor_blackout));
    }

    #[test]
    fn blackout_supersedes_burst_and_burst_carries_a_per_decision_seed() {
        let plan = FaultPlan::new(FaultPlanConfig {
            sensor: SensorFaultChannel {
                blackout: Some(FaultWindows::every(2, 1)),
                burst: Some(FaultWindows::every(1, 1)),
                burst_dropout: 0.5,
                burst_noise_std: 0.0,
                ..SensorFaultChannel::default()
            },
            ..FaultPlanConfig::default()
        });
        let mut burst_seeds = Vec::new();
        for d in 0..50 {
            let frame = plan.frame(d);
            if frame.sensor_blackout {
                assert!(frame.sensor_burst.is_none());
            } else {
                let burst = frame
                    .sensor_burst
                    .expect("burst window covers every decision");
                burst_seeds.push(burst.seed);
            }
        }
        burst_seeds.dedup();
        assert!(
            burst_seeds.len() > 20,
            "burst seeds should vary per decision"
        );
    }

    #[test]
    fn link_faults_are_pure_in_topic_and_sequence() {
        let plan = FaultPlan::new(armed_plan());
        let mut model_a = plan.link_faults().expect("bus channel armed");
        let mut model_b = plan.link_faults().unwrap();
        let points = TopicName::new("/sensors/points").unwrap();
        let other = TopicName::new("/planning/trajectory").unwrap();
        // Interleave differently; dispositions must still agree.
        let mut a = Vec::new();
        for seq in 0..400u64 {
            a.push(model_a.disposition(&points, seq));
            assert!(model_a.disposition(&other, seq).is_healthy());
        }
        let mut b = Vec::new();
        for seq in (0..400u64).rev() {
            b.push(model_b.disposition(&points, seq));
        }
        b.reverse();
        assert_eq!(a, b);
        let dropped = a.iter().filter(|d| d.drop).count();
        assert!((60..180).contains(&dropped), "dropped {dropped} of 400");
    }

    #[test]
    fn faulty_bus_derefs_to_the_wrapped_bus() {
        let plan = FaultPlan::new(armed_plan());
        let bus = FaultyBus::new(
            MessageBus::with_free_transport(),
            plan.link_faults().unwrap(),
        );
        let _node = roborun_middleware::Node::new(&bus, "talker").unwrap();
        let clone = bus.bus();
        assert_eq!(clone.now(), bus.now());
        bus.shutdown();
        assert!(clone.is_shutdown());
    }

    fn ring_of_points(origin: Vec3, count: usize, range: f64) -> Vec<Vec3> {
        (0..count)
            .map(|i| {
                let angle = i as f64 / count as f64 * std::f64::consts::TAU;
                origin + Vec3::new(angle.cos() * range, angle.sin() * range, 0.0)
            })
            .collect()
    }

    fn burst_frame(dropout: f64, noise_std: f64, seed: u64) -> FaultFrame {
        FaultFrame {
            sensor_burst: Some(SensorBurst {
                dropout,
                noise_std,
                seed,
            }),
            ..FaultFrame::default()
        }
    }

    /// `(x, y)` bit patterns of a 40-point, 12 m ring around (1, 2, 5)
    /// after a burst with dropout 0.3, noise 0.2 m and seed `0x5EED_B1A5`,
    /// as produced by the per-point draw order `corrupt_sweep` documents.
    const BURST_RING_BITS: [[u64; 2]; 23] = [
        [0x40295e1f9b804a16, 0x4000000000000000],
        [0x402a0cdcd2625005, 0x400f3c9add45c71a],
        [0x40284773885cadd2, 0x40167a53cbba95ed],
        [0x4025d246172b9ae6, 0x402266acfb32173a],
        [0x40199690c62789eb, 0x40292f3f6e60ce9f],
        [0x4006b1ec6902d1d5, 0x402b31f6674556cb],
        [0x3ff0000000000003, 0x402c2afd519b4d7e],
        [0xbfeb0730c71aaea2, 0x402b4b04d59990e3],
        [0xc01e492d5d11c68a, 0x40252496ae88e346],
        [0xc024bcf0d4e08bb8, 0x4016c6ad359e9f7e],
        [0xc025be624be7c38d, 0x400f0ae2c207015a],
        [0xc025893f2e5a3778, 0x3fc16c754527fc88],
        [0xc024d6ef4d0bca5f, 0xbffb5e462ee8d9fe],
        [0xc021b7915966831d, 0xc014a68b988acac8],
        [0xc01e3f1f898d3072, 0xc01a3f1f898d3070],
        [0xc006428b14f0fb16, 0xc023485a28eefaf5],
        [0xbfeb2920b8b8f9f8, 0xc02358692de530fb],
        [0x3fefffffffffffeb, 0xc024d9d9c2117d82],
        [0x4006e076ed72015b, 0xc0237b6cba95cb6d],
        [0x40128771da313d2e, 0xc0225ba30cde23b3],
        [0x40205c5f68ec460e, 0xc01f882f91e50f9e],
        [0x40271d9a00645b2b, 0xc00b092a910e3fa6],
        [0x402988371c32aad3, 0x3fc176ea0d7021e8],
    ];

    /// The same burst after a 10 m fog cap on a ring alternating 6 m and
    /// 25 m returns: fogged points make no draws.
    const FOG_BURST_RING_BITS: [[u64; 2]; 11] = [
        [0x401abc3f3700942b, 0x4000000000000000],
        [0x401b7dbcad6072f3, 0x400f43f6950d7c98],
        [0x40167cb0c4d056bb, 0x40156e803c739e59],
        [0x4007739982db29fd, 0x401fc70abe44f09e],
        [0xc003afdffc31cecc, 0x401b0dcfbbfe9a44],
        [0xc011d82c98926ee5, 0x400e3203dcb88654],
        [0xc01455faa3369afb, 0x4000000000000002],
        [0xc012086da7c7eb6f, 0x3fcaea0a21891180],
        [0x3feffffffffffff6, 0xc0107ccd93de3ffc],
        [0x4017449353767d5f, 0xbff7fee749dfecc4],
        [0x401ae699e11a4e9d, 0x3fc1e4038eecbc70],
    ];

    fn assert_bits(out: &[Vec3], expected: &[[u64; 2]]) {
        let bits: Vec<[u64; 2]> = out.iter().map(|p| [p.x.to_bits(), p.y.to_bits()]).collect();
        assert_eq!(bits, expected);
        assert!(out.iter().all(|p| p.z.to_bits() == 5.0f64.to_bits()));
    }

    #[test]
    fn burst_corruption_is_pinned_bit_for_bit() {
        let origin = Vec3::new(1.0, 2.0, 5.0);
        let out = burst_frame(0.3, 0.2, 0x5EED_B1A5)
            .corrupt_sweep(origin, ring_of_points(origin, 40, 12.0));
        assert_bits(&out, &BURST_RING_BITS);
    }

    #[test]
    fn fog_then_burst_is_pinned_bit_for_bit() {
        let origin = Vec3::new(1.0, 2.0, 5.0);
        let near = ring_of_points(origin, 40, 6.0);
        let far = ring_of_points(origin, 40, 25.0);
        let points: Vec<Vec3> = (0..40)
            .map(|i| if i % 2 == 0 { near[i] } else { far[i] })
            .collect();
        let frame = FaultFrame {
            fog_cap: Some(10.0),
            ..burst_frame(0.3, 0.2, 0x5EED_B1A5)
        };
        assert_bits(&frame.corrupt_sweep(origin, points), &FOG_BURST_RING_BITS);
    }

    #[test]
    fn healthy_frame_hands_the_sweep_back_untouched() {
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let points = ring_of_points(origin, 40, 12.0);
        let expected = points.clone();
        let buffer = points.as_ptr();
        let out = FaultFrame::default().corrupt_sweep(origin, points);
        assert_eq!(out, expected);
        assert_eq!(out.as_ptr(), buffer, "the healthy path must not copy");
    }

    #[test]
    fn fog_removes_far_points_and_keeps_near_ones() {
        let frame = FaultFrame {
            fog_cap: Some(10.0),
            ..FaultFrame::default()
        };
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let near = ring_of_points(origin, 20, 6.0);
        let mut all = near.clone();
        all.extend(ring_of_points(origin, 20, 25.0));
        let out = frame.corrupt_sweep(origin, all);
        assert_eq!(out, near);
        assert_eq!(frame.injected_count(), 1);
    }

    #[test]
    fn point_dropout_removes_roughly_the_requested_fraction() {
        let origin = Vec3::ZERO;
        let out =
            burst_frame(0.5, 0.0, 7).corrupt_sweep(origin, ring_of_points(origin, 2_000, 8.0));
        let kept = out.len() as f64 / 2_000.0;
        assert!((0.4..0.6).contains(&kept), "kept fraction {kept}");
    }

    #[test]
    fn range_noise_perturbs_along_the_ray() {
        let origin = Vec3::new(1.0, 2.0, 5.0);
        let points = ring_of_points(origin, 200, 10.0);
        let out = burst_frame(0.0, 0.2, 7).corrupt_sweep(origin, points.clone());
        assert_eq!(out.len(), points.len());
        let mean_range: f64 =
            out.iter().map(|p| p.distance(origin)).sum::<f64>() / out.len() as f64;
        assert!((mean_range - 10.0).abs() < 0.2, "mean range {mean_range}");
        // Direction is preserved: each noisy point stays on its original ray.
        for (noisy, original) in out.iter().zip(points.iter()) {
            let a = (*noisy - origin).normalize();
            let b = (*original - origin).normalize();
            assert!(a.dot(b) > 0.999);
        }
    }

    #[test]
    fn corruption_is_deterministic_per_decision() {
        let plan = FaultPlan::new(FaultPlanConfig::flaky_sensors(0.1, 0.3));
        let origin = Vec3::ZERO;
        let points = ring_of_points(origin, 500, 15.0);
        let mut outputs = Vec::new();
        for d in 0..20 {
            let frame = plan.frame(d);
            let a = frame.corrupt_sweep(origin, points.clone());
            let b = FaultPlan::new(FaultPlanConfig::flaky_sensors(0.1, 0.3))
                .frame(d)
                .corrupt_sweep(origin, points.clone());
            assert_eq!(a, b);
            if !frame.sensor_blackout {
                outputs.push(a);
            }
        }
        outputs.dedup();
        assert!(outputs.len() > 1, "corruption should vary per decision");
    }

    #[test]
    fn presets_arm_the_documented_channels() {
        let fog = FaultPlanConfig::fog(12.0);
        assert!(!fog.is_healthy() && fog.validate().is_ok());
        assert_eq!(fog.sensor.fog_cap, Some(12.0));
        assert_eq!(FaultPlanConfig::fog(0.2).sensor.fog_cap, Some(1.0));
        let frame = FaultPlan::new(fog).frame(3);
        assert_eq!(frame.fog_cap, Some(12.0));
        let burst = frame
            .sensor_burst
            .expect("fog carries noise every decision");
        assert_eq!((burst.dropout, burst.noise_std), (0.0, 0.05));

        let flaky = FaultPlan::new(FaultPlanConfig::flaky_sensors(0.1, 0.3));
        let blackouts = (0..1_000)
            .filter(|&d| flaky.frame(d).sensor_blackout)
            .count();
        assert_eq!(blackouts, 100);
        assert!((0..1_000).all(|d| {
            let frame = flaky.frame(d);
            frame.sensor_blackout || frame.sensor_burst.is_some_and(|b| b.dropout == 0.3)
        }));
        let no_sweep_loss = FaultPlanConfig::flaky_sensors(0.0, 0.3);
        assert!(no_sweep_loss.sensor.blackout.is_none() && !no_sweep_loss.is_healthy());
        let every_sweep_lost = FaultPlan::new(FaultPlanConfig::flaky_sensors(1.0, 0.0));
        assert!((0..50).all(|d| every_sweep_lost.frame(d).sensor_blackout));
    }

    #[test]
    fn invalid_sensor_channels_are_rejected() {
        let mut bad = FaultPlanConfig::flaky_sensors(0.1, 0.3);
        bad.sensor.burst_dropout = 1.5;
        assert!(bad.validate().is_err());
        let mut bad = FaultPlanConfig::fog(10.0);
        bad.sensor.burst_noise_std = -0.1;
        assert!(bad.validate().is_err());
        for cap in [0.0, -1.0, f64::NAN] {
            let mut bad = FaultPlanConfig::fog(10.0);
            bad.sensor.fog_cap = Some(cap);
            assert!(bad.validate().is_err(), "fog cap {cap} accepted");
        }
        assert!(FaultPlanConfig::fog(20.0).validate().is_ok());
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let mut bad = armed_plan();
        bad.sensor.blackout = Some(FaultWindows::every(10, 11));
        assert!(bad.validate().is_err());
        let mut bad = armed_plan();
        bad.planner.spike_latency = -1.0;
        assert!(bad.validate().is_err());
        let mut bad = armed_plan();
        bad.bus.links[0].1.loss_probability = 1.5;
        assert!(bad.validate().is_err());
        let mut bad = armed_plan();
        bad.bus.links[0].0 = "not a topic".to_string();
        assert!(bad.validate().is_err());
        assert!(armed_plan().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn plan_panics_on_invalid_config() {
        let mut bad = armed_plan();
        bad.map.stale = Some(FaultWindows::every(0, 0));
        let _ = FaultPlan::new(bad);
    }
}
