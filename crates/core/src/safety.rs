//! Safety assessment of a mission's telemetry.
//!
//! The paper's central safety argument is that "decision latency must
//! always be less than the decision deadline" (Section II-A). The governor
//! tries to enforce that inequality per decision; this module audits a
//! finished mission's telemetry against it and summarises how close the
//! runtime came to the line — the check an engineer would run before
//! trusting a configuration in the field.

use crate::budget::TimeBudgeter;
use crate::telemetry::MissionTelemetry;
use serde::{Deserialize, Serialize};

/// Summary of how well a mission respected the space-induced time budget.
///
/// Two views are reported:
///
/// * **pre-decision deadline** — the budget the governor computed *before*
///   the decision, at the velocity the MAV was flying at that instant.
///   Latency above this value means the governor had to slow the MAV down
///   afterwards; it is common near obstacles and is informational.
/// * **commanded-velocity budget** — the Eq. 1 budget evaluated at the
///   velocity the runtime actually commanded for the following epoch, with
///   the profiled visibility. `latency ≤ budget(commanded_velocity)` is the
///   invariant the safe-velocity law enforces; violations here mean the MAV
///   was flying faster than its reaction time allowed (only possible when
///   even the velocity floor cannot cover the latency).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SafetyReport {
    /// Number of decisions audited.
    pub decisions: usize,
    /// Decisions whose latency exceeded the pre-decision deadline.
    pub deadline_violations: usize,
    /// Decisions whose latency exceeded the budget at the commanded
    /// velocity (the enforced invariant).
    pub velocity_violations: usize,
    /// Largest latency / pre-decision-deadline ratio observed.
    pub worst_overshoot_ratio: f64,
    /// Mean latency / pre-decision-deadline ratio (how much of the budget
    /// is typically consumed).
    pub mean_budget_consumption: f64,
    /// Smallest pre-decision deadline seen (seconds) — how tight the space
    /// ever made the budget.
    pub tightest_deadline: f64,
    /// Largest decision latency seen (seconds).
    pub worst_latency: f64,
}

impl SafetyReport {
    /// Audits a mission's telemetry with the default [`TimeBudgeter`].
    pub fn from_telemetry(telemetry: &MissionTelemetry) -> Self {
        SafetyReport::audit(telemetry, &TimeBudgeter::default())
    }

    /// Audits a mission's telemetry against a specific budgeter (use the
    /// one the governor flew with if it was customised).
    pub fn audit(telemetry: &MissionTelemetry, budgeter: &TimeBudgeter) -> Self {
        let records = telemetry.records();
        let decisions = records.len();
        let mut deadline_violations = 0usize;
        let mut velocity_violations = 0usize;
        let mut worst_ratio = 0.0f64;
        let mut ratio_sum = 0.0f64;
        let mut tightest_deadline = f64::INFINITY;
        let mut worst_latency = 0.0f64;
        for r in records {
            let latency = r.latency();
            let deadline = r.deadline.max(1e-9);
            let ratio = latency / deadline;
            if latency > r.deadline {
                deadline_violations += 1;
            }
            let commanded_budget = budgeter.local_budget(r.commanded_velocity, r.visibility);
            if latency > commanded_budget + 1e-9 {
                velocity_violations += 1;
            }
            worst_ratio = worst_ratio.max(ratio);
            ratio_sum += ratio;
            tightest_deadline = tightest_deadline.min(r.deadline);
            worst_latency = worst_latency.max(latency);
        }
        SafetyReport {
            decisions,
            deadline_violations,
            velocity_violations,
            worst_overshoot_ratio: worst_ratio,
            mean_budget_consumption: if decisions > 0 {
                ratio_sum / decisions as f64
            } else {
                0.0
            },
            tightest_deadline: if tightest_deadline.is_finite() {
                tightest_deadline
            } else {
                0.0
            },
            worst_latency,
        }
    }

    /// Fraction of decisions whose latency exceeded the pre-decision
    /// deadline, in `[0, 1]`.
    pub fn violation_rate(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.deadline_violations as f64 / self.decisions as f64
        }
    }

    /// Fraction of decisions that violated the commanded-velocity budget —
    /// the enforced safety invariant — in `[0, 1]`.
    pub fn velocity_violation_rate(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.velocity_violations as f64 / self.decisions as f64
        }
    }

    /// `true` when no decision violated the commanded-velocity budget.
    pub fn is_clean(&self) -> bool {
        self.velocity_violations == 0
    }

    /// One-line summary for experiment logs.
    pub fn summary(&self) -> String {
        format!(
            "{} decisions, {} over the pre-decision deadline ({:.1}%), {} over the commanded-velocity budget ({:.1}%), worst ratio {:.2}, tightest deadline {:.2} s",
            self.decisions,
            self.deadline_violations,
            self.violation_rate() * 100.0,
            self.velocity_violations,
            self.velocity_violation_rate() * 100.0,
            self.worst_overshoot_ratio,
            self.tightest_deadline,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::KnobSettings;
    use crate::modes::RuntimeMode;
    use crate::telemetry::{DecisionRecord, Degradation};
    use roborun_geom::Vec3;
    use roborun_sim::LatencyBreakdown;

    fn record(latency: f64, deadline: f64, velocity: f64, visibility: f64) -> DecisionRecord {
        DecisionRecord {
            time: 0.0,
            position: Vec3::ZERO,
            commanded_velocity: velocity,
            visibility,
            deadline,
            knobs: KnobSettings::static_baseline(),
            breakdown: LatencyBreakdown {
                point_cloud: latency,
                ..LatencyBreakdown::default()
            },
            cpu_utilization: 0.4,
            zone: Some('B'),
            degradation: Degradation::Healthy,
        }
    }

    fn telemetry(records: &[DecisionRecord]) -> MissionTelemetry {
        let mut t = MissionTelemetry::new(RuntimeMode::SpatialAware);
        for r in records {
            t.push(r.clone());
        }
        t
    }

    #[test]
    fn clean_mission_reports_no_violations() {
        let report = SafetyReport::from_telemetry(&telemetry(&[
            record(0.5, 2.0, 1.0, 10.0),
            record(1.0, 2.0, 1.0, 10.0),
            record(0.2, 1.0, 1.0, 10.0),
        ]));
        assert!(report.is_clean());
        assert_eq!(report.decisions, 3);
        assert_eq!(report.deadline_violations, 0);
        assert_eq!(report.velocity_violations, 0);
        assert_eq!(report.violation_rate(), 0.0);
        assert!(report.worst_overshoot_ratio <= 0.5 + 1e-9);
        assert!((report.tightest_deadline - 1.0).abs() < 1e-12);
        assert!((report.worst_latency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pre_decision_deadline_violations_are_counted() {
        let report = SafetyReport::from_telemetry(&telemetry(&[
            record(3.0, 2.0, 1.0, 10.0),
            record(0.5, 2.0, 1.0, 10.0),
            record(2.4, 2.0, 1.0, 10.0),
        ]));
        assert_eq!(report.deadline_violations, 2);
        // The commanded-velocity budget (≈9.4 s at 1 m/s with 10 m
        // visibility) is still respected, so the invariant holds.
        assert_eq!(report.velocity_violations, 0);
        assert!(report.is_clean());
        assert!((report.violation_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((report.worst_overshoot_ratio - 1.5).abs() < 1e-12);
    }

    #[test]
    fn commanded_velocity_budget_violations_are_flagged() {
        // 4 m/s with only 3 m visibility: the stopping distance alone
        // exceeds the visibility, so any latency above the clamp floor
        // violates the enforced invariant.
        let report = SafetyReport::from_telemetry(&telemetry(&[record(1.5, 2.0, 4.0, 3.0)]));
        assert_eq!(report.velocity_violations, 1);
        assert!(!report.is_clean());
        assert!((report.velocity_violation_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_telemetry_is_trivially_clean() {
        let report =
            SafetyReport::from_telemetry(&MissionTelemetry::new(RuntimeMode::SpatialAware));
        assert!(report.is_clean());
        assert_eq!(report.decisions, 0);
        assert_eq!(report.mean_budget_consumption, 0.0);
        assert_eq!(report.tightest_deadline, 0.0);
    }

    #[test]
    fn summary_mentions_the_key_numbers() {
        let report = SafetyReport::from_telemetry(&telemetry(&[
            record(1.0, 2.0, 1.0, 10.0),
            record(3.0, 2.0, 1.0, 10.0),
        ]));
        let text = report.summary();
        assert!(text.contains("2 decisions"));
        assert!(text.contains("1 over the pre-decision deadline"));
        assert!(text.contains("commanded-velocity budget"));
    }
}
