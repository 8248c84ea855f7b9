//! The governor: time budgeting + solving = a per-decision policy.
//!
//! "The governor computes optimal time budgeting policies based on the
//! MAV's internal and external states (e.g., velocity and obstacle
//! density), which are monitored by profilers. These policies are passed to
//! the operators for enforcement." (paper Section III-A)

use crate::{
    KnobAblation, KnobRanges, KnobSettings, KnobSolver, PipelineLatencyModel, RuntimeMode,
    SolverConfig, SpatialProfile, TimeBudgeter,
};
use roborun_sim::ComputeLatencyModel;
use serde::{Deserialize, Serialize};

/// The policy the governor hands to the operators for one decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Policy {
    /// Knob assignment the operators must enforce.
    pub knobs: KnobSettings,
    /// Decision deadline (time budget, seconds) the knobs were fitted to.
    pub deadline: f64,
    /// Latency the governor's model predicts for the knobs (seconds).
    pub predicted_latency: f64,
    /// `true` when even the cheapest knobs exceed the deadline.
    pub budget_exceeded: bool,
    /// Mode that produced the policy.
    pub mode: RuntimeMode,
}

/// Governor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GovernorConfig {
    /// Runtime mode (spatial-aware or the static baseline).
    pub mode: RuntimeMode,
    /// Knob ranges (Table II).
    pub ranges: KnobRanges,
    /// Time budgeter (Eq. 1 / Algorithm 1).
    pub budgeter: TimeBudgeter,
    /// Solver discretisation.
    pub solver: SolverConfig,
    /// Worst-case visibility assumed by the spatial-oblivious baseline
    /// (metres).
    pub oblivious_visibility: f64,
    /// Maximum commanded velocity of the mission (m/s); the baseline's
    /// static deadline is derived from the velocity it can actually sustain.
    pub max_velocity: f64,
    /// Ablation switch: when `false`, the governor uses only the
    /// instantaneous Eq. 1 budget instead of the waypoint-aware
    /// Algorithm 1 (the design choice DESIGN.md calls out for ablation).
    pub waypoint_budgeting: bool,
    /// Per-knob ablation: selected knobs are frozen at their static
    /// (Table II) values after the solver runs, isolating the contribution
    /// of each operator family.
    pub ablation: KnobAblation,
    /// Stale-perception derating: metres of effective visibility shed per
    /// second of perception-data age in
    /// [`Governor::safe_velocity_stale`]. Zero disables derating.
    pub stale_derate_rate: f64,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            mode: RuntimeMode::SpatialAware,
            ranges: KnobRanges::table_ii(),
            budgeter: TimeBudgeter::default(),
            solver: SolverConfig::default(),
            oblivious_visibility: 2.0,
            max_velocity: 5.0,
            waypoint_budgeting: true,
            ablation: KnobAblation::none(),
            stale_derate_rate: 1.5,
        }
    }
}

/// The RoboRun governor.
#[derive(Debug, Clone)]
pub struct Governor {
    config: GovernorConfig,
    model: PipelineLatencyModel,
    solver: KnobSolver,
}

impl Governor {
    /// Creates a governor with the calibrated simulation latency model.
    pub fn new(config: GovernorConfig) -> Self {
        let model = PipelineLatencyModel::from_simulation(
            &ComputeLatencyModel::calibrated(),
            config.mode.is_aware(),
        );
        Self::with_model(config, model)
    }

    /// Creates a governor with an explicit (e.g. freshly fitted) latency
    /// model.
    ///
    /// # Panics
    ///
    /// Panics if the knob ranges are invalid.
    pub fn with_model(config: GovernorConfig, model: PipelineLatencyModel) -> Self {
        let solver = KnobSolver::new(config.ranges, config.solver);
        Governor {
            config,
            model,
            solver,
        }
    }

    /// The governor's configuration.
    pub fn config(&self) -> &GovernorConfig {
        &self.config
    }

    /// The latency model used by the solver.
    pub fn model(&self) -> &PipelineLatencyModel {
        &self.model
    }

    /// The static policy of the spatial-oblivious baseline: Table II static
    /// knobs and the worst-case deadline, independent of the profile.
    pub fn oblivious_policy(&self) -> Policy {
        let knobs = KnobSettings::static_baseline();
        let predicted_latency = self.model.predict(&knobs);
        let deadline = self
            .config
            .budgeter
            .local_budget(self.baseline_velocity(), self.config.oblivious_visibility);
        Policy {
            knobs,
            deadline,
            predicted_latency,
            budget_exceeded: predicted_latency > deadline,
            mode: RuntimeMode::SpatialOblivious,
        }
    }

    /// The velocity the spatial-oblivious design can actually sustain: the
    /// largest velocity whose worst-case budget covers its static latency
    /// (this is how the paper's baseline ends up at ~0.4 m/s).
    pub fn baseline_velocity(&self) -> f64 {
        let static_latency = self.model.predict(&KnobSettings::static_baseline());
        self.config.budgeter.safe_velocity(
            static_latency,
            self.config.oblivious_visibility,
            self.config.max_velocity,
        )
    }

    /// Produces the policy for one decision from the profiled spatial state.
    ///
    /// In [`RuntimeMode::SpatialOblivious`] the profile is ignored and the
    /// static policy is returned, exactly as a design-time-configured
    /// pipeline would behave.
    pub fn decide(&self, profile: &SpatialProfile) -> Policy {
        match self.config.mode {
            RuntimeMode::SpatialOblivious => self.oblivious_policy(),
            RuntimeMode::SpatialAware => {
                let deadline = if self.config.waypoint_budgeting {
                    self.config
                        .budgeter
                        .global_budget(&profile.current_waypoint(), &profile.upcoming_waypoints)
                } else {
                    self.config
                        .budgeter
                        .local_budget(profile.velocity, profile.visibility)
                };
                let outcome = self.solver.solve(deadline, profile, &self.model);
                let (knobs, predicted_latency, budget_exceeded) = if self.config.ablation.is_none()
                {
                    (
                        outcome.knobs,
                        outcome.predicted_latency,
                        outcome.budget_exceeded,
                    )
                } else {
                    // Frozen knobs revert to their static values; the
                    // predicted latency must reflect what the pipeline will
                    // actually be charged for.
                    let knobs = self.config.ablation.apply(outcome.knobs);
                    let predicted = self.model.predict(&knobs);
                    (knobs, predicted, predicted > deadline)
                };
                Policy {
                    knobs,
                    deadline,
                    predicted_latency,
                    budget_exceeded,
                    mode: RuntimeMode::SpatialAware,
                }
            }
        }
    }

    /// The velocity the MAV may safely command for the next interval given
    /// the decision's actual latency and the profiled visibility.
    pub fn safe_velocity(&self, latency: f64, visibility: f64) -> f64 {
        self.config
            .budgeter
            .safe_velocity(latency, visibility, self.config.max_velocity)
    }

    /// [`Governor::safe_velocity`] in a world with *moving* obstacles:
    /// the budget law's reaction window must absorb not only the MAV's
    /// own motion but the worst closing speed of any nearby obstacle —
    /// an obstacle approaching at `closing_speed` eats
    /// `closing_speed · latency` metres of the visible margin before the
    /// next decision can react, so the effective visibility shrinks by
    /// exactly that much (floored at zero). With `closing_speed == 0`
    /// (every static world) this is bit-identical to the plain
    /// [`Governor::safe_velocity`].
    pub fn safe_velocity_closing(&self, latency: f64, visibility: f64, closing_speed: f64) -> f64 {
        if closing_speed <= 0.0 {
            return self.safe_velocity(latency, visibility);
        }
        let effective = (visibility - closing_speed * latency).max(0.0);
        self.safe_velocity(latency, effective)
    }

    /// [`Governor::safe_velocity_closing`] on *stale* perception data: a
    /// profile computed from voxels last refreshed `data_age` seconds ago
    /// overstates how much of the world is actually known, so the
    /// effective visibility sheds
    /// [`GovernorConfig::stale_derate_rate`]` · data_age` metres (floored
    /// at zero) before the closing-speed and latency terms apply — the
    /// data-age analogue of the closing-speed term. With `data_age == 0`
    /// (fresh data, every healthy decision) this is bit-identical to
    /// [`Governor::safe_velocity_closing`].
    pub fn safe_velocity_stale(
        &self,
        latency: f64,
        visibility: f64,
        closing_speed: f64,
        data_age: f64,
    ) -> f64 {
        if data_age <= 0.0 {
            return self.safe_velocity_closing(latency, visibility, closing_speed);
        }
        let effective = (visibility - data_age * self.config.stale_derate_rate).max(0.0);
        self.safe_velocity_closing(latency, effective, closing_speed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aware() -> Governor {
        Governor::new(GovernorConfig::default())
    }

    fn oblivious() -> Governor {
        Governor::new(GovernorConfig {
            mode: RuntimeMode::SpatialOblivious,
            ..GovernorConfig::default()
        })
    }

    #[test]
    fn oblivious_policy_is_static_and_worst_case() {
        let gov = oblivious();
        let open = SpatialProfile::open_space(2.0, 40.0);
        let tight = SpatialProfile::congested(0.5, 0.5, 1.0);
        let p1 = gov.decide(&open);
        let p2 = gov.decide(&tight);
        assert_eq!(p1.knobs, p2.knobs);
        assert_eq!(p1.knobs, KnobSettings::static_baseline());
        assert_eq!(p1.deadline, p2.deadline);
        assert_eq!(p1.mode, RuntimeMode::SpatialOblivious);
        // The baseline's static latency exceeds its worst-case deadline at
        // any meaningful velocity, which is precisely why it must crawl.
        assert!(p1.predicted_latency > 3.0);
    }

    #[test]
    fn baseline_velocity_is_paper_scale() {
        let gov = oblivious();
        let v = gov.baseline_velocity();
        // The paper's oblivious baseline averages ~0.4 m/s.
        assert!(v > 0.15 && v < 0.8, "baseline velocity {v}");
    }

    #[test]
    fn aware_governor_adapts_knobs_to_space() {
        let gov = aware();
        let open = gov.decide(&SpatialProfile::open_space(2.0, 40.0));
        let tight = gov.decide(&SpatialProfile::congested(0.5, 0.8, 2.0));
        // Open space: coarse precision, low latency.
        assert!(open.knobs.point_cloud_precision > tight.knobs.point_cloud_precision);
        assert!(open.predicted_latency < tight.predicted_latency);
        assert_eq!(open.mode, RuntimeMode::SpatialAware);
        // Congestion: precision bounded by Eq. 3's min(g_avg, d_obs) = 1.2 m.
        assert!(tight.knobs.point_cloud_precision <= 1.2 + 1e-9);
    }

    #[test]
    fn aware_deadline_tracks_visibility_and_velocity() {
        let gov = aware();
        let fast_blind = gov.decide(&SpatialProfile::congested(4.0, 2.0, 3.0));
        let slow_clear = gov.decide(&SpatialProfile::open_space(0.5, 40.0));
        assert!(slow_clear.deadline > fast_blind.deadline);
    }

    #[test]
    fn aware_policy_fits_budget_when_feasible() {
        let gov = aware();
        let profile = SpatialProfile::open_space(1.0, 30.0);
        let policy = gov.decide(&profile);
        assert!(!policy.budget_exceeded);
        assert!(policy.predicted_latency <= policy.deadline + 1e-9);
    }

    #[test]
    fn safe_velocity_reflects_latency() {
        let gov = aware();
        let fast = gov.safe_velocity(0.3, 40.0);
        let slow = gov.safe_velocity(4.5, 2.0);
        assert!(fast > 4.0 * slow, "fast {fast} vs slow {slow}");
        assert!(fast <= gov.config().max_velocity + 1e-9);
    }

    #[test]
    fn closing_speed_costs_velocity_and_zero_is_identity() {
        let gov = aware();
        let plain = gov.safe_velocity(1.0, 10.0);
        // Zero closing speed: bit-identical to the plain budget.
        assert_eq!(
            gov.safe_velocity_closing(1.0, 10.0, 0.0).to_bits(),
            plain.to_bits()
        );
        // An approaching obstacle shrinks the usable margin.
        let closing = gov.safe_velocity_closing(1.0, 10.0, 3.0);
        assert!(closing < plain, "closing {closing} vs plain {plain}");
        assert_eq!(
            closing.to_bits(),
            gov.safe_velocity(1.0, 7.0).to_bits(),
            "closing term must shave exactly closing_speed * latency off visibility"
        );
        // Faster obstacles cost more; the floor keeps the result finite.
        assert!(gov.safe_velocity_closing(1.0, 10.0, 8.0) <= closing);
        let swamped = gov.safe_velocity_closing(1.0, 10.0, 50.0);
        assert!(swamped >= 0.0 && swamped.is_finite());
    }

    #[test]
    fn data_age_costs_velocity_and_zero_is_identity() {
        let gov = aware();
        let plain = gov.safe_velocity_closing(1.0, 10.0, 2.0);
        // Fresh data: bit-identical to the closing-speed budget.
        assert_eq!(
            gov.safe_velocity_stale(1.0, 10.0, 2.0, 0.0).to_bits(),
            plain.to_bits()
        );
        // Stale data derates visibility by stale_derate_rate * age.
        let rate = gov.config().stale_derate_rate;
        let stale = gov.safe_velocity_stale(1.0, 10.0, 2.0, 2.0);
        assert!(stale < plain, "stale {stale} vs fresh {plain}");
        assert_eq!(
            stale.to_bits(),
            gov.safe_velocity_closing(1.0, 10.0 - 2.0 * rate, 2.0)
                .to_bits(),
            "stale term must shave exactly stale_derate_rate * data_age off visibility"
        );
        // Older data costs more; the floor keeps the result finite.
        assert!(gov.safe_velocity_stale(1.0, 10.0, 2.0, 5.0) <= stale);
        let swamped = gov.safe_velocity_stale(1.0, 10.0, 2.0, 1_000.0);
        assert!(swamped >= 0.0 && swamped.is_finite());
        // With both terms zeroed it collapses to the plain budget.
        assert_eq!(
            gov.safe_velocity_stale(1.0, 10.0, 0.0, 0.0).to_bits(),
            gov.safe_velocity(1.0, 10.0).to_bits()
        );
    }

    #[test]
    fn aware_velocity_advantage_matches_paper_direction() {
        // The headline mechanism: in open space RoboRun's cheap decisions
        // plus long visibility allow a much higher safe velocity than the
        // baseline's static worst case.
        let aware_gov = aware();
        let oblivious_gov = oblivious();
        let open_policy = aware_gov.decide(&SpatialProfile::open_space(2.0, 40.0));
        let aware_velocity = aware_gov.safe_velocity(open_policy.predicted_latency, 40.0);
        let baseline_velocity = oblivious_gov.baseline_velocity();
        let ratio = aware_velocity / baseline_velocity;
        assert!(
            ratio > 3.0,
            "velocity ratio {ratio} too small for the paper's 5X headline"
        );
    }

    #[test]
    fn with_model_uses_custom_model() {
        let sim = ComputeLatencyModel::calibrated();
        let model = PipelineLatencyModel::from_simulation(&sim, true);
        let gov = Governor::with_model(GovernorConfig::default(), model);
        assert!((gov.model().fixed - model.fixed).abs() < 1e-12);
    }

    #[test]
    fn knob_ablation_freezes_the_selected_knobs() {
        let open = SpatialProfile::open_space(2.0, 40.0);
        let free = aware().decide(&open);
        let frozen_precision = Governor::new(GovernorConfig {
            ablation: KnobAblation::precision_frozen(),
            ..GovernorConfig::default()
        })
        .decide(&open);
        let frozen_all = Governor::new(GovernorConfig {
            ablation: KnobAblation::all(),
            ..GovernorConfig::default()
        })
        .decide(&open);

        // Precision is pinned at the static 0.3 m while volumes still relax.
        assert_eq!(frozen_precision.knobs.point_cloud_precision, 0.3);
        assert_eq!(
            frozen_precision.knobs.octomap_volume,
            free.knobs.octomap_volume
        );
        // Full ablation reproduces the static knob assignment, so its
        // predicted latency is the baseline's and exceeds the open-space
        // optimum.
        assert_eq!(frozen_all.knobs, KnobSettings::static_baseline());
        assert!(frozen_all.predicted_latency > free.predicted_latency);
        assert!(frozen_precision.predicted_latency >= free.predicted_latency);
    }

    #[test]
    fn waypoint_budgeting_ablation_changes_the_deadline() {
        let with = Governor::new(GovernorConfig::default());
        let without = Governor::new(GovernorConfig {
            waypoint_budgeting: false,
            ..GovernorConfig::default()
        });
        // A profile whose upcoming waypoints are much worse than the present
        // (fast and blind soon): Algorithm 1 must shorten the deadline
        // relative to the instantaneous Eq. 1 value.
        let mut profile = SpatialProfile::open_space(0.5, 30.0);
        profile.upcoming_waypoints = vec![crate::WaypointState {
            position: roborun_geom::Vec3::new(1.0, 0.0, 5.0),
            velocity: 5.0,
            visibility: 2.0,
        }];
        let p_with = with.decide(&profile);
        let p_without = without.decide(&profile);
        assert!(p_with.deadline < p_without.deadline);
        // With benign upcoming waypoints the two agree (both clamped).
        let benign = SpatialProfile::open_space(0.5, 30.0);
        let a = with.decide(&benign);
        let b = without.decide(&benign);
        assert!((a.deadline - b.deadline).abs() < 1e-9);
    }
}
