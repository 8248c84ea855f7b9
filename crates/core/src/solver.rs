//! The governor's knob solver: the constrained optimisation of paper Eq. 3.
//!
//! > minimise  `(δ_d − Σ_i δ_i(p_i, v_i))²`
//! >
//! > subject to  `g_min ≤ p₀ ≤ min(p₁, g_avg, d_obs)`
//! >             `v₀ ≤ v₁ ≤ min(v_sensor, v_map)`
//! >             `p_i ∈ {vox_min · 2ⁿ}`  (and `p₁ = p₂`)
//!
//! The precision domain is a six-element power-of-two lattice and the
//! volume knobs are searched over a small discretisation of their Table II
//! ranges, so exhaustive enumeration is exact over the discretised space,
//! playing the role of the paper's "mathematical solver". It is also
//! cheap: each Eq. 4 term depends on one precision and one volume, so a
//! solve evaluates the cubic polynomials once per (precision, volume) pair
//! into small tables (a few dozen entries) and then scores a few thousand
//! candidates at three additions each, summed in
//! [`PipelineLatencyModel::predict`]'s order so every candidate's latency
//! is the one `predict` returns, bit for bit.
//!
//! A note on the first constraint: the paper literally writes
//! `g_min ≤ p₀`, i.e. the voxel may not be *finer* than the minimum gap.
//! When the surroundings are open (`g_min` is the open-space sentinel) this
//! lower bound exceeds the coarsest lattice level; we clamp it to the
//! lattice so the solver simply picks the coarsest precision, which is the
//! behaviour the paper describes for open space.

use crate::{KnobRanges, KnobSettings, PipelineLatencyModel, SpatialProfile};
use roborun_sim::StageCoefficients;
use serde::{Deserialize, Serialize};

/// Solver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverConfig {
    /// Number of discretisation steps per volume knob.
    pub volume_steps: usize,
    /// Weight of the quality tie-breaker: among assignments with (nearly)
    /// the same budget error, prefer finer precision and larger volumes.
    pub quality_bias: f64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            volume_steps: 6,
            quality_bias: 1e-3,
        }
    }
}

/// Outcome of one solver run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverOutcome {
    /// Chosen knob assignment.
    pub knobs: KnobSettings,
    /// Latency the model predicts for the chosen knobs (seconds).
    pub predicted_latency: f64,
    /// The (δ_d − Σδ)² objective value at the chosen knobs.
    pub objective: f64,
    /// `true` when even the cheapest feasible assignment exceeds the budget
    /// (the governor then runs at the cheapest point and accepts the
    /// overrun, exactly like the paper's high-latency outliers near
    /// obstacles).
    pub budget_exceeded: bool,
}

/// The Eq. 3 solver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KnobSolver {
    /// Admissible knob ranges (Table II).
    pub ranges: KnobRanges,
    /// Solver configuration.
    pub config: SolverConfig,
}

impl KnobSolver {
    /// Creates a solver over the given ranges.
    ///
    /// # Panics
    ///
    /// Panics if the ranges are invalid or `volume_steps < 2`.
    pub fn new(ranges: KnobRanges, config: SolverConfig) -> Self {
        ranges.validate().expect("invalid knob ranges");
        assert!(config.volume_steps >= 2, "need at least two volume steps");
        KnobSolver { ranges, config }
    }

    /// The discretised domain Eq. 3 is solved over for `profile`.
    fn domain(&self, profile: &SpatialProfile) -> Domain {
        let lattice = self.ranges.precision_lattice();
        let coarsest = *lattice.last().expect("lattice is never empty");

        // Constraint bounds for p0 from the profile.
        let p0_upper_demand = profile
            .gap_avg
            .min(profile.closest_obstacle)
            .clamp(self.ranges.precision_min, coarsest);
        let p0_lower = profile.gap_min.min(coarsest).max(self.ranges.precision_min);

        // Admissible p0 lattice points. When the [g_min, min(g_avg, d_obs)]
        // window contains no lattice point, the safety-critical upper bound
        // (the space's precision demand) wins and the paper's lower bound is
        // dropped: we take the finest lattice value not exceeding the
        // demand, falling back to the finest level overall.
        let mut p0_candidates: Vec<f64> = lattice
            .iter()
            .copied()
            .filter(|&p| p >= p0_lower - 1e-9 && p <= p0_upper_demand + 1e-9)
            .collect();
        if p0_candidates.is_empty() {
            let fallback = lattice
                .iter()
                .copied()
                .filter(|&p| p <= p0_upper_demand + 1e-9)
                .fold(f64::NAN, f64::max);
            p0_candidates.push(if fallback.is_nan() {
                lattice[0]
            } else {
                fallback
            });
        }

        // Volume upper bounds: v1 ≤ min(v_sensor, v_map) and the Table II caps.
        let v1_cap = self
            .ranges
            .map_to_planner_volume_max
            .min(self.ranges.sensor_volume_max.max(profile.sensor_volume))
            .min(profile.map_volume.max(self.ranges.sensor_volume_max));
        let n = self.config.volume_steps;
        let volume_grid =
            |cap: f64| -> Vec<f64> { (1..=n).map(|i| cap * i as f64 / n as f64).collect() };
        Domain {
            v0_grid: volume_grid(self.ranges.octomap_volume_max),
            v1_grid: volume_grid(v1_cap),
            v2_grid: volume_grid(self.ranges.planner_volume_max),
            lattice,
            p0_candidates,
            v0_cap: self.ranges.octomap_volume_max,
            v1_cap,
            v2_cap: self.ranges.planner_volume_max,
        }
    }

    /// Solves Eq. 3 for the given time budget `delta_d` (seconds), spatial
    /// profile and latency model.
    pub fn solve(
        &self,
        delta_d: f64,
        profile: &SpatialProfile,
        model: &PipelineLatencyModel,
    ) -> SolverOutcome {
        let Domain {
            lattice,
            p0_candidates,
            v0_grid,
            v1_grid,
            v2_grid,
            v0_cap,
            v1_cap,
            v2_cap,
        } = self.domain(profile);
        // Each latency term depends on at most two knobs, so it is
        // tabulated once per solve over the values the loops visit; every
        // candidate then costs three additions, summed in
        // `PipelineLatencyModel::predict`'s order so its latency, score and
        // tie-break are exactly the ones a direct `predict` call gives.
        let n = self.config.volume_steps;
        let fixed_and_comm: Vec<f64> = v1_grid
            .iter()
            .map(|&v1| model.fixed + model.comm_per_volume * v1)
            .collect();
        let table = |precisions: &[f64], volumes: &[f64], stage: &StageCoefficients| -> Vec<f64> {
            precisions
                .iter()
                .flat_map(|&p| volumes.iter().map(move |&v| stage.latency(p, v)))
                .collect()
        };
        let perception = table(&p0_candidates, &v0_grid, &model.perception);
        let perception_to_planning = table(&lattice, &v1_grid, &model.perception_to_planning);
        let planning = table(&lattice, &v2_grid, &model.planning);

        let mut best: Option<(f64, KnobSettings, f64)> = None; // (score, knobs, latency)
        for (k1, &p1) in lattice.iter().enumerate() {
            for (k0, &p0) in p0_candidates.iter().enumerate() {
                // Constraint: p0 ≤ p1.
                if p0 > p1 + 1e-9 {
                    continue;
                }
                // Quality: finer precision and more volume are better
                // world models; used only to break ties.
                let precision_quality = (1.0 / p0) + (1.0 / p1) * 0.5;
                for (i1, &v1) in v1_grid.iter().enumerate() {
                    let v1_latency = fixed_and_comm[i1];
                    let v1_transfer = perception_to_planning[k1 * n + i1];
                    for (i0, &v0) in v0_grid.iter().enumerate() {
                        if v0 > v1 + 1e-9 {
                            continue;
                        }
                        let latency_before_planning =
                            v1_latency + perception[k0 * n + i0] + v1_transfer;
                        let volume_ratio = v0 / v0_cap + v1 / v1_cap;
                        for (i2, &v2) in v2_grid.iter().enumerate() {
                            let latency = latency_before_planning + planning[k1 * n + i2];
                            let objective = (delta_d - latency).powi(2);
                            let quality = precision_quality + (volume_ratio + v2 / v2_cap) * 0.25;
                            let score = objective - self.config.quality_bias * quality;
                            if best
                                .as_ref()
                                .is_none_or(|(best_score, _, _)| score < *best_score)
                            {
                                let knobs = KnobSettings {
                                    point_cloud_precision: p0,
                                    map_to_planner_precision: p1,
                                    octomap_volume: v0,
                                    map_to_planner_volume: v1,
                                    planner_volume: v2,
                                };
                                best = Some((score, knobs, latency));
                            }
                        }
                    }
                }
            }
        }

        let (_, knobs, predicted_latency) =
            best.expect("solver always evaluates at least one candidate");
        SolverOutcome {
            knobs,
            predicted_latency,
            objective: (delta_d - predicted_latency).powi(2),
            budget_exceeded: predicted_latency > delta_d + 1e-9,
        }
    }
}

impl Default for KnobSolver {
    fn default() -> Self {
        KnobSolver::new(KnobRanges::table_ii(), SolverConfig::default())
    }
}

/// The discretised domain of one solve: the precision lattice, the
/// admissible `p0` values, one grid per volume knob and the volume caps
/// the grids span.
struct Domain {
    lattice: Vec<f64>,
    p0_candidates: Vec<f64>,
    v0_grid: Vec<f64>,
    v1_grid: Vec<f64>,
    v2_grid: Vec<f64>,
    v0_cap: f64,
    v1_cap: f64,
    v2_cap: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KnobAblation;
    use roborun_sim::ComputeLatencyModel;

    /// The solver's enumeration before its latency terms were tabulated:
    /// every candidate priced by a direct [`PipelineLatencyModel::predict`]
    /// call, the volume grids rebuilt inside the loops. Kept as the
    /// reference the tabulated solver must equal bit for bit.
    fn solve_reference(
        solver: &KnobSolver,
        delta_d: f64,
        profile: &SpatialProfile,
        model: &PipelineLatencyModel,
    ) -> SolverOutcome {
        let Domain {
            lattice,
            p0_candidates,
            v0_cap,
            v1_cap,
            v2_cap,
            ..
        } = solver.domain(profile);
        let volume_grid = |cap: f64| -> Vec<f64> {
            let n = solver.config.volume_steps;
            (1..=n).map(|i| cap * i as f64 / n as f64).collect()
        };
        let mut best: Option<(f64, KnobSettings, f64)> = None;
        for &p1 in &lattice {
            for &p0 in &p0_candidates {
                if p0 > p1 + 1e-9 {
                    continue;
                }
                for &v1 in &volume_grid(v1_cap) {
                    for &v0 in &volume_grid(v0_cap) {
                        if v0 > v1 + 1e-9 {
                            continue;
                        }
                        for &v2 in &volume_grid(v2_cap) {
                            let knobs = KnobSettings {
                                point_cloud_precision: p0,
                                map_to_planner_precision: p1,
                                octomap_volume: v0,
                                map_to_planner_volume: v1,
                                planner_volume: v2,
                            };
                            let latency = model.predict(&knobs);
                            let objective = (delta_d - latency).powi(2);
                            let quality = (1.0 / p0)
                                + (1.0 / p1) * 0.5
                                + (v0 / v0_cap + v1 / v1_cap + v2 / v2_cap) * 0.25;
                            let score = objective - solver.config.quality_bias * quality;
                            if best.as_ref().is_none_or(|(b, _, _)| score < *b) {
                                best = Some((score, knobs, latency));
                            }
                        }
                    }
                }
            }
        }
        let (_, knobs, predicted_latency) = best.expect("at least one candidate");
        SolverOutcome {
            knobs,
            predicted_latency,
            objective: (delta_d - predicted_latency).powi(2),
            budget_exceeded: predicted_latency > delta_d + 1e-9,
        }
    }

    /// Every float of an outcome as bits, so equality is bit equality.
    fn outcome_bits(o: &SolverOutcome) -> ([u64; 5], u64, u64, bool) {
        let k = o.knobs;
        (
            [
                k.point_cloud_precision,
                k.map_to_planner_precision,
                k.octomap_volume,
                k.map_to_planner_volume,
                k.planner_volume,
            ]
            .map(f64::to_bits),
            o.predicted_latency.to_bits(),
            o.objective.to_bits(),
            o.budget_exceeded,
        )
    }

    #[test]
    fn tabulated_solver_equals_direct_prediction_bit_for_bit() {
        let profile = |gap_min: f64, gap_avg: f64, obstacle: f64| SpatialProfile {
            gap_min,
            gap_avg,
            closest_obstacle: obstacle,
            ..SpatialProfile::congested(1.0, gap_min, obstacle)
        };
        let profiles = [
            SpatialProfile::open_space(2.0, 40.0),
            SpatialProfile::open_space(0.5, 3.0),
            SpatialProfile::congested(0.5, 0.8, 2.0),
            SpatialProfile::congested(1.0, 2.0, 5.0),
            SpatialProfile::congested(0.5, 0.5, 1.0),
            // Windows [g_min, min(g_avg, d_obs)] holding no lattice point,
            // so p0 falls back to the demand (or the finest level).
            profile(5.0, 10.0, 0.5),
            profile(2.0, 1.0, 30.0),
            profile(0.7, 0.9, 0.9),
            profile(50.0, 60.0, 0.1),
        ];
        let sim = ComputeLatencyModel::calibrated();
        let models = [
            PipelineLatencyModel::from_simulation(&sim, true),
            PipelineLatencyModel::from_simulation(&sim, false),
        ];
        let ablations = KnobAblation::catalog();
        for volume_steps in [2, 6, 9] {
            let solver = KnobSolver::new(
                KnobRanges::table_ii(),
                SolverConfig {
                    volume_steps,
                    ..SolverConfig::default()
                },
            );
            for model in &models {
                for profile in &profiles {
                    for deadline in [0.001, 0.5, 1.0, 2.0, 6.0, 8.0] {
                        let tabulated = solver.solve(deadline, profile, model);
                        let reference = solve_reference(&solver, deadline, profile, model);
                        let at = format!("{volume_steps} steps, deadline {deadline}, {profile:?}");
                        assert_eq!(outcome_bits(&tabulated), outcome_bits(&reference), "{at}");
                        // The governor applies an ablation to the solver's
                        // knobs and re-prices them; equal knobs must stay
                        // equal under every ablation.
                        for (name, ablation) in &ablations {
                            let (a, b) = (
                                ablation.apply(tabulated.knobs),
                                ablation.apply(reference.knobs),
                            );
                            assert_eq!(
                                model.predict(&a).to_bits(),
                                model.predict(&b).to_bits(),
                                "{at}, ablation {name}"
                            );
                            assert_eq!(a, b, "{at}, ablation {name}");
                        }
                    }
                }
            }
        }
    }

    fn model() -> PipelineLatencyModel {
        PipelineLatencyModel::from_simulation(&ComputeLatencyModel::calibrated(), true)
    }

    #[test]
    fn generous_budget_buys_quality() {
        let solver = KnobSolver::default();
        let profile = SpatialProfile::congested(1.0, 1.0, 4.0);
        let tight = solver.solve(0.5, &profile, &model());
        let generous = solver.solve(8.0, &profile, &model());
        // A larger budget must never produce a *cheaper* (lower-latency)
        // plan than a smaller budget.
        assert!(generous.predicted_latency >= tight.predicted_latency);
        // And the generous plan should spend more of its budget on volume
        // or precision.
        let q = |k: &KnobSettings| 1.0 / k.point_cloud_precision + k.map_to_planner_volume / 1e6;
        assert!(q(&generous.knobs) >= q(&tight.knobs));
    }

    #[test]
    fn open_space_relaxes_precision_to_coarsest() {
        let solver = KnobSolver::default();
        let profile = SpatialProfile::open_space(2.0, 40.0);
        let outcome = solver.solve(1.0, &profile, &model());
        assert!(outcome.knobs.point_cloud_precision >= 4.8);
        assert!(!outcome.budget_exceeded);
        assert!(outcome.predicted_latency <= 1.0 + 1e-9);
    }

    #[test]
    fn congestion_demands_fine_precision() {
        let solver = KnobSolver::default();
        // Gaps of ~1 m demand sub-metre voxels.
        let profile = SpatialProfile::congested(0.5, 0.8, 2.0);
        let outcome = solver.solve(6.0, &profile, &model());
        // Eq. 3 bounds p0 by min(g_avg, d_obs) = 1.2 m from above and by
        // g_min = 0.8 m from below; the only admissible lattice point is
        // 1.2 m, far finer than the 9.6 m open-space choice.
        assert!(
            outcome.knobs.point_cloud_precision <= 1.2 + 1e-9,
            "precision {} too coarse for a 1.2 m average gap",
            outcome.knobs.point_cloud_precision
        );
    }

    #[test]
    fn impossible_budget_reports_overrun_at_cheapest_plan() {
        let solver = KnobSolver::default();
        let profile = SpatialProfile::congested(0.5, 0.5, 1.0);
        // A 1 ms budget cannot cover even the fixed pipeline costs.
        let outcome = solver.solve(0.001, &profile, &model());
        assert!(outcome.budget_exceeded);
        assert!(outcome.predicted_latency > 0.001);
        // The chosen plan should be (close to) the cheapest feasible one:
        // coarse export precision and small volumes.
        assert!(outcome.knobs.octomap_volume <= 20_000.0 + 1e-6);
    }

    #[test]
    fn solution_always_satisfies_structural_constraints() {
        let solver = KnobSolver::default();
        let model = model();
        let profiles = [
            SpatialProfile::open_space(1.0, 40.0),
            SpatialProfile::open_space(4.0, 10.0),
            SpatialProfile::congested(0.5, 0.5, 1.0),
            SpatialProfile::congested(2.0, 3.0, 8.0),
        ];
        let lattice = solver.ranges.precision_lattice();
        for profile in &profiles {
            for budget in [0.2, 1.0, 3.0, 10.0] {
                let outcome = solver.solve(budget, profile, &model);
                let k = outcome.knobs;
                assert!(k.validate(&solver.ranges).is_ok(), "{k} violates Table II");
                // Precisions on the lattice.
                for p in [k.point_cloud_precision, k.map_to_planner_precision] {
                    assert!(
                        lattice.iter().any(|&l| (l - p).abs() < 1e-9),
                        "precision {p} not on the lattice"
                    );
                }
                // Eq. 3 orderings.
                assert!(k.point_cloud_precision <= k.map_to_planner_precision + 1e-9);
                assert!(k.octomap_volume <= k.map_to_planner_volume + 1e-9);
            }
        }
    }

    #[test]
    fn predicted_latency_matches_model() {
        let solver = KnobSolver::default();
        let model = model();
        let profile = SpatialProfile::congested(1.0, 2.0, 5.0);
        let outcome = solver.solve(2.0, &profile, &model);
        assert!((model.predict(&outcome.knobs) - outcome.predicted_latency).abs() < 1e-12);
        assert!((outcome.objective - (2.0 - outcome.predicted_latency).powi(2)).abs() < 1e-12);
    }

    #[test]
    fn solver_is_fast_enough_for_per_decision_use() {
        let solver = KnobSolver::default();
        let model = model();
        let profile = SpatialProfile::congested(1.0, 2.0, 5.0);
        let start = std::time::Instant::now();
        for _ in 0..50 {
            let _ = solver.solve(2.0, &profile, &model);
        }
        let per_call = start.elapsed().as_secs_f64() / 50.0;
        assert!(per_call < 0.05, "solver took {per_call} s per call");
    }

    #[test]
    #[should_panic(expected = "volume steps")]
    fn rejects_degenerate_volume_grid() {
        let _ = KnobSolver::new(
            KnobRanges::table_ii(),
            SolverConfig {
                volume_steps: 1,
                ..SolverConfig::default()
            },
        );
    }
}
