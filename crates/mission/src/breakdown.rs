//! Latency-breakdown analysis over zones (paper Fig. 11).

use roborun_core::MissionTelemetry;
use serde::{Deserialize, Serialize};

/// Latency statistics of one zone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZoneStats {
    /// Zone label (`'A'`, `'B'`, `'C'`).
    pub zone: char,
    /// Number of decisions taken inside the zone.
    pub decisions: usize,
    /// Mean end-to-end latency in the zone (seconds).
    pub mean_latency: f64,
    /// Latency spread (max − min) in the zone (seconds) — the paper's
    /// heterogeneity indicator.
    pub latency_spread: f64,
    /// Mean commanded velocity in the zone (m/s).
    pub mean_velocity: f64,
    /// Mean point-cloud precision knob value in the zone (metres).
    pub mean_precision: f64,
}

/// Per-zone breakdown of a mission's telemetry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZoneBreakdown {
    /// Statistics for each zone that has at least one decision, in A/B/C
    /// order.
    pub zones: Vec<ZoneStats>,
    /// Mission-wide mean share of the end-to-end latency per stage
    /// (Fig. 11b).
    pub stage_shares: Vec<(String, f64)>,
}

impl ZoneBreakdown {
    /// Computes the breakdown from a mission's telemetry.
    pub fn from_telemetry(telemetry: &MissionTelemetry) -> Self {
        let mut zones = Vec::new();
        for zone in ['A', 'B', 'C'] {
            let records = telemetry.records_in_zone(zone);
            if records.is_empty() {
                continue;
            }
            let n = records.len() as f64;
            let mean_latency = records.iter().map(|r| r.latency()).sum::<f64>() / n;
            let mean_velocity = records.iter().map(|r| r.commanded_velocity).sum::<f64>() / n;
            let mean_precision = records
                .iter()
                .map(|r| r.knobs.point_cloud_precision)
                .sum::<f64>()
                / n;
            zones.push(ZoneStats {
                zone,
                decisions: records.len(),
                mean_latency,
                latency_spread: telemetry.latency_spread_in_zone(zone),
                mean_velocity,
                mean_precision,
            });
        }
        let stage_shares = telemetry
            .mean_breakdown_shares()
            .into_iter()
            .map(|(name, share)| (name.to_string(), share))
            .collect();
        ZoneBreakdown {
            zones,
            stage_shares,
        }
    }

    /// Statistics of a specific zone, if it was visited.
    pub fn zone(&self, label: char) -> Option<&ZoneStats> {
        self.zones.iter().find(|z| z.zone == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roborun_core::{DecisionRecord, Degradation, KnobSettings, RuntimeMode};
    use roborun_geom::Vec3;
    use roborun_sim::LatencyBreakdown;

    fn record(zone: char, latency: f64, velocity: f64, precision: f64) -> DecisionRecord {
        DecisionRecord {
            time: 0.0,
            position: Vec3::ZERO,
            commanded_velocity: velocity,
            visibility: 20.0,
            deadline: 5.0,
            knobs: KnobSettings {
                point_cloud_precision: precision,
                ..KnobSettings::static_baseline()
            },
            breakdown: LatencyBreakdown {
                point_cloud: 0.21,
                perception: latency,
                planning: latency * 0.5,
                communication: 0.1,
                ..LatencyBreakdown::default()
            },
            cpu_utilization: 0.5,
            zone: Some(zone),
            degradation: Degradation::Healthy,
        }
    }

    #[test]
    fn breakdown_reflects_zone_structure() {
        let mut telemetry = MissionTelemetry::new(RuntimeMode::SpatialAware);
        // Zone A: slow, precise, heterogeneous latency.
        telemetry.push(record('A', 2.0, 0.8, 0.3));
        telemetry.push(record('A', 0.5, 1.2, 0.6));
        // Zone B: fast, coarse, uniform latency.
        telemetry.push(record('B', 0.2, 4.5, 9.6));
        telemetry.push(record('B', 0.2, 4.5, 9.6));
        let breakdown = ZoneBreakdown::from_telemetry(&telemetry);
        assert_eq!(breakdown.zones.len(), 2);
        let a = breakdown.zone('A').unwrap();
        let b = breakdown.zone('B').unwrap();
        assert!(breakdown.zone('C').is_none());
        assert_eq!(a.decisions, 2);
        assert!(a.mean_latency > b.mean_latency);
        assert!(a.latency_spread > b.latency_spread);
        assert!(b.mean_velocity > a.mean_velocity);
        assert!(b.mean_precision > a.mean_precision);
        // Stage shares are normalised.
        let total: f64 = breakdown.stage_shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_telemetry_has_no_zones() {
        let telemetry = MissionTelemetry::new(RuntimeMode::SpatialAware);
        let breakdown = ZoneBreakdown::from_telemetry(&telemetry);
        assert!(breakdown.zones.is_empty());
        assert!(breakdown.stage_shares.is_empty());
    }
}
