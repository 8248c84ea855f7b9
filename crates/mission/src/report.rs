//! Plain-text tables and CSV series for the experiment harness.
//!
//! The harness cannot draw the paper's plots, so every figure is
//! regenerated as either a small table (aggregate bars like Fig. 7) or a
//! CSV time/parameter series (curves like Fig. 2, 5, 10, 11a) that can be
//! plotted with any external tool.

use crate::metrics::ImprovementFactors;
use crate::sweep::FaultSweepRow;
use crate::{SensitivityRow, SweepResults};
use roborun_core::MissionTelemetry;

/// Formats a simple aligned table from a header and rows.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let format_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    "{:width$}",
                    c,
                    width = widths.get(i).copied().unwrap_or(c.len())
                )
            })
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&format_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&format_row(row, &widths));
        out.push('\n');
    }
    out
}

/// CSV serialisation of a series of `(x, columns…)` rows.
pub fn format_csv(header: &[&str], rows: &[Vec<f64>]) -> String {
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        let cells: Vec<String> = row.iter().map(|v| format!("{v:.6}")).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// The Fig. 7 mission-level metric table for a sweep.
pub fn fig7_table(results: &SweepResults) -> String {
    let oblivious = results.oblivious_aggregate();
    let aware = results.aware_aggregate();
    let improvements: ImprovementFactors = results.improvements();
    let rows = vec![
        vec![
            "flight velocity (m/s)".to_string(),
            format!("{:.2}", oblivious.mean_velocity()),
            format!("{:.2}", aware.mean_velocity()),
            format!("{:.2}x", improvements.velocity_gain),
        ],
        vec![
            "mission time (s)".to_string(),
            format!("{:.0}", oblivious.mean_mission_time()),
            format!("{:.0}", aware.mean_mission_time()),
            format!("{:.2}x", improvements.mission_time_gain),
        ],
        vec![
            "mission energy (kJ)".to_string(),
            format!("{:.0}", oblivious.mean_energy_kj()),
            format!("{:.0}", aware.mean_energy_kj()),
            format!("{:.2}x", improvements.energy_gain),
        ],
        vec![
            "CPU utilization".to_string(),
            format!("{:.2}", oblivious.mean_cpu_utilization()),
            format!("{:.2}", aware.mean_cpu_utilization()),
            format!("-{:.0}%", improvements.cpu_reduction * 100.0),
        ],
        vec![
            "median decision latency (s)".to_string(),
            format!("{:.2}", oblivious.mean_median_latency()),
            format!("{:.2}", aware.mean_median_latency()),
            format!(
                "{:.1}x",
                oblivious.mean_median_latency() / aware.mean_median_latency().max(1e-9)
            ),
        ],
        vec![
            "p95 decision latency (s)".to_string(),
            format!("{:.2}", oblivious.mean_p95_latency()),
            format!("{:.2}", aware.mean_p95_latency()),
            format!(
                "{:.1}x",
                oblivious.mean_p95_latency() / aware.mean_p95_latency().max(1e-9)
            ),
        ],
        vec![
            "p99 decision latency (s)".to_string(),
            format!("{:.2}", oblivious.mean_p99_latency()),
            format!("{:.2}", aware.mean_p99_latency()),
            format!(
                "{:.1}x",
                oblivious.mean_p99_latency() / aware.mean_p99_latency().max(1e-9)
            ),
        ],
        vec![
            "max decision latency (s)".to_string(),
            format!("{:.2}", oblivious.mean_max_latency()),
            format!("{:.2}", aware.mean_max_latency()),
            format!(
                "{:.1}x",
                oblivious.mean_max_latency() / aware.mean_max_latency().max(1e-9)
            ),
        ],
        vec![
            "success rate".to_string(),
            format!("{:.2}", oblivious.success_rate()),
            format!("{:.2}", aware.success_rate()),
            String::new(),
        ],
    ];
    format_table(
        &["metric", "spatial-oblivious", "RoboRun", "improvement"],
        &rows,
    )
}

/// One Fig. 8 sensitivity panel as a table.
pub fn fig8_table(knob_name: &str, rows: &[SensitivityRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.2}", r.knob_value),
                format!("{:.0}", r.oblivious_time),
                format!("{:.0}", r.aware_time),
            ]
        })
        .collect();
    format_table(
        &[
            knob_name,
            "baseline flight time (s)",
            "RoboRun flight time (s)",
        ],
        &body,
    )
}

/// The fault sweep as CSV: one row per `(scenario, seed)` case with the
/// safety outcome and the degradation counters of both runs — the series
/// behind the robustness headline (the fault-oblivious baseline collides
/// or deadlocks where the degradation-aware runtime completes or
/// safe-stops).
pub fn fault_csv(rows: &[FaultSweepRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "scenario,seed,baseline_mission_time_s,baseline_reached_goal,baseline_collided,\
         baseline_faults_injected,aware_mission_time_s,aware_reached_goal,aware_collided,\
         aware_faults_injected,aware_watchdog_fires,aware_retries,aware_degraded_decisions,\
         aware_safe_stops,aware_p99_latency_s,aware_max_latency_s\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:?},{},{:.3},{},{},{},{:.3},{},{},{},{},{},{},{},{:.3},{:.3}\n",
            row.scenario,
            row.seed,
            row.baseline.mission_time,
            row.baseline.reached_goal,
            row.baseline.collided,
            row.baseline.faults_injected,
            row.degraded.mission_time,
            row.degraded.reached_goal,
            row.degraded.collided,
            row.degraded.faults_injected,
            row.degraded.watchdog_fires,
            row.degraded.retries,
            row.degraded.degraded_decisions,
            row.degraded.safe_stops,
            row.degraded.p99_latency,
            row.degraded.max_latency,
        ));
    }
    out
}

/// The Fig. 10c / Fig. 5-style time series of a mission's telemetry:
/// `time, latency, deadline, precision, velocity, visibility` per decision.
pub fn telemetry_csv(telemetry: &MissionTelemetry) -> String {
    let rows: Vec<Vec<f64>> = telemetry
        .records()
        .iter()
        .map(|r| {
            vec![
                r.time,
                r.latency(),
                r.deadline,
                r.knobs.point_cloud_precision,
                r.commanded_velocity,
                r.visibility,
            ]
        })
        .collect();
    format_csv(
        &[
            "time_s",
            "latency_s",
            "deadline_s",
            "precision_m",
            "velocity_mps",
            "visibility_m",
        ],
        &rows,
    )
}

/// Latency-tail summary of one mission: the exact median, the
/// histogram-derived p95/p99 (the shared [`roborun_geom::LogHistogram`]
/// lattice) and the exact max of the end-to-end decision latency.
pub fn latency_tail_table(telemetry: &MissionTelemetry) -> String {
    let end_to_end = telemetry.latency_histogram();
    let cell = |v: Option<f64>| format!("{:.3}", v.unwrap_or(0.0));
    let rows = vec![
        vec![
            "median (exact)".to_string(),
            cell(telemetry.median_latency()),
        ],
        vec![
            "p95 (histogram)".to_string(),
            cell(end_to_end.quantile(0.95)),
        ],
        vec![
            "p99 (histogram)".to_string(),
            cell(end_to_end.quantile(0.99)),
        ],
        vec!["max (exact)".to_string(), cell(end_to_end.max())],
    ];
    format_table(&["latency (s)", "end-to-end"], &rows)
}

/// The Fig. 11a-style per-decision latency breakdown CSV.
pub fn breakdown_csv(telemetry: &MissionTelemetry) -> String {
    let rows: Vec<Vec<f64>> = telemetry
        .records()
        .iter()
        .map(|r| {
            let b = &r.breakdown;
            vec![
                r.time,
                b.point_cloud,
                b.perception,
                b.perception_to_planning,
                b.planning,
                b.control,
                b.communication,
                b.runtime_overhead,
            ]
        })
        .collect();
    format_csv(
        &[
            "time_s",
            "point_cloud_s",
            "octomap_s",
            "octomap_to_planner_s",
            "planning_s",
            "control_s",
            "comm_s",
            "runtime_s",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use roborun_core::{DecisionRecord, Degradation, KnobSettings, RuntimeMode};
    use roborun_geom::Vec3;
    use roborun_sim::LatencyBreakdown;

    #[test]
    fn table_alignment_and_content() {
        let t = format_table(
            &["name", "value"],
            &[
                vec!["alpha".into(), "1".into()],
                vec!["b".into(), "23456".into()],
            ],
        );
        assert!(t.contains("name"));
        assert!(t.contains("alpha"));
        assert!(t.contains("23456"));
        assert!(t.lines().count() >= 4);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = format_csv(&["x", "y"], &[vec![1.0, 2.0], vec![3.0, 4.5]]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "x,y");
        assert!(lines[2].starts_with("3.0"));
    }

    #[test]
    fn telemetry_csvs_cover_every_decision() {
        let mut telemetry = MissionTelemetry::new(RuntimeMode::SpatialAware);
        for i in 0..4 {
            telemetry.push(DecisionRecord {
                time: i as f64,
                position: Vec3::ZERO,
                commanded_velocity: 1.0,
                visibility: 10.0,
                deadline: 2.0,
                knobs: KnobSettings::static_baseline(),
                breakdown: LatencyBreakdown {
                    point_cloud: 0.2,
                    perception: 1.0,
                    ..LatencyBreakdown::default()
                },
                cpu_utilization: 0.4,
                zone: Some('A'),
                degradation: Degradation::Healthy,
            });
        }
        let series = telemetry_csv(&telemetry);
        assert_eq!(series.lines().count(), 5);
        let breakdown = breakdown_csv(&telemetry);
        assert_eq!(breakdown.lines().count(), 5);
        assert!(breakdown.lines().next().unwrap().contains("octomap_s"));
    }

    #[test]
    fn fig8_table_formats_rows() {
        let rows = vec![
            SensitivityRow {
                knob_value: 0.3,
                oblivious_time: 2000.0,
                aware_time: 450.0,
            },
            SensitivityRow {
                knob_value: 0.6,
                oblivious_time: 2200.0,
                aware_time: 650.0,
            },
        ];
        let t = fig8_table("obstacle density", &rows);
        assert!(t.contains("obstacle density"));
        assert!(t.contains("2200"));
        assert!(t.contains("650"));
    }
}
