//! Point clouds and the point-cloud precision/volume operators.

use roborun_geom::{Aabb, FxHashMap, Vec3, VoxelKey};
use serde::{Deserialize, Serialize};

/// A point cloud in the world frame, as produced by the camera rig.
///
/// # Example
///
/// ```
/// use roborun_perception::PointCloud;
/// use roborun_geom::Vec3;
///
/// let cloud = PointCloud::new(Vec3::ZERO, vec![
///     Vec3::new(1.0, 0.0, 0.0),
///     Vec3::new(1.05, 0.02, 0.0),
///     Vec3::new(5.0, 0.0, 0.0),
/// ]);
/// // Coarsening to 0.5 m merges the two nearby points.
/// let coarse = cloud.downsampled(0.5);
/// assert_eq!(coarse.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointCloud {
    /// Sensor origin the cloud was captured from (used for ray tracing
    /// free space into the occupancy map).
    origin: Vec3,
    points: Vec<Vec3>,
}

impl PointCloud {
    /// Creates a cloud from a sensor origin and points.
    pub fn new(origin: Vec3, points: Vec<Vec3>) -> Self {
        PointCloud { origin, points }
    }

    /// An empty cloud captured from `origin`.
    pub fn empty(origin: Vec3) -> Self {
        PointCloud {
            origin,
            points: Vec::new(),
        }
    }

    /// Sensor origin.
    pub fn origin(&self) -> Vec3 {
        self.origin
    }

    /// The points of the cloud.
    pub fn points(&self) -> &[Vec3] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the cloud has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Axis-aligned bounds of the points, or `None` when empty.
    pub fn bounds(&self) -> Option<Aabb> {
        Aabb::from_points(self.points.iter().copied())
    }

    /// **Precision operator** (paper Section III-B, point-cloud precision):
    /// grids space into cells of `cell_size` metres, maps every point to its
    /// cell and replaces each cell's points by their average.
    ///
    /// Larger `cell_size` (coarser precision) yields fewer points and a
    /// cheaper downstream map update.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size <= 0`.
    pub fn downsampled(&self, cell_size: f64) -> PointCloud {
        assert!(
            cell_size > 0.0,
            "cell size must be positive, got {cell_size}"
        );
        let mut cells: FxHashMap<VoxelKey, (Vec3, usize)> = FxHashMap::default();
        for &p in &self.points {
            let key = VoxelKey::from_point(p, cell_size);
            let entry = cells.entry(key).or_insert((Vec3::ZERO, 0));
            entry.0 += p;
            entry.1 += 1;
        }
        let mut points: Vec<Vec3> = cells.into_values().map(|(sum, n)| sum / n as f64).collect();
        // Deterministic ordering regardless of hash-map iteration order.
        points.sort_by(|a, b| {
            (a.x, a.y, a.z)
                .partial_cmp(&(b.x, b.y, b.z))
                .expect("point coordinates are never NaN")
        });
        PointCloud {
            origin: self.origin,
            points,
        }
    }

    /// **Volume operator** (paper Section III-B, first volume operator):
    /// sorts the points by distance to `reference` (the MAV's position /
    /// imminent trajectory — "closer points pose more threats") and keeps
    /// integrating them one by one until the axis-aligned volume of the
    /// accepted set would exceed `max_volume` cubic metres.
    ///
    /// # Panics
    ///
    /// Panics if `max_volume < 0`.
    pub fn volume_limited(&self, reference: Vec3, max_volume: f64) -> PointCloud {
        assert!(max_volume >= 0.0, "max volume must be non-negative");
        if self.points.is_empty() || max_volume == 0.0 {
            return PointCloud::empty(self.origin);
        }
        let mut sorted: Vec<Vec3> = self.points.clone();
        sorted.sort_by(|a, b| {
            a.distance_squared(reference)
                .partial_cmp(&b.distance_squared(reference))
                .expect("distances are never NaN")
        });
        let mut accepted: Vec<Vec3> = Vec::new();
        let mut bounds: Option<Aabb> = None;
        for p in sorted {
            let candidate = match bounds {
                None => Aabb::new(p, p),
                Some(b) => Aabb::union(&b, &Aabb::new(p, p)),
            };
            if candidate.volume() > max_volume && !accepted.is_empty() {
                break;
            }
            bounds = Some(candidate);
            accepted.push(p);
        }
        PointCloud {
            origin: self.origin,
            points: accepted,
        }
    }

    /// Merges another cloud into this one (keeps this cloud's origin).
    pub fn merge(&mut self, other: &PointCloud) {
        self.points.extend_from_slice(&other.points);
    }
}

impl Extend<Vec3> for PointCloud {
    fn extend<T: IntoIterator<Item = Vec3>>(&mut self, iter: T) {
        self.points.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_line_cloud() -> PointCloud {
        // 100 points spaced 0.1 m apart along X at y=z=0.
        PointCloud::new(
            Vec3::ZERO,
            (0..100)
                .map(|i| Vec3::new(i as f64 * 0.1, 0.0, 0.0))
                .collect(),
        )
    }

    #[test]
    fn empty_cloud_behaviour() {
        let c = PointCloud::empty(Vec3::new(1.0, 2.0, 3.0));
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.origin(), Vec3::new(1.0, 2.0, 3.0));
        assert!(c.bounds().is_none());
        assert!(c.downsampled(0.5).is_empty());
        assert!(c.volume_limited(Vec3::ZERO, 100.0).is_empty());
    }

    #[test]
    fn downsampling_reduces_points_monotonically() {
        let cloud = dense_line_cloud();
        let fine = cloud.downsampled(0.1);
        let mid = cloud.downsampled(0.5);
        let coarse = cloud.downsampled(2.0);
        assert!(fine.len() >= mid.len());
        assert!(mid.len() > coarse.len());
        assert_eq!(coarse.len(), 5); // 10 m line / 2 m cells
                                     // Origin preserved.
        assert_eq!(coarse.origin(), cloud.origin());
    }

    #[test]
    fn downsampling_averages_cell_members() {
        let cloud = PointCloud::new(
            Vec3::ZERO,
            vec![Vec3::new(0.1, 0.1, 0.1), Vec3::new(0.3, 0.3, 0.3)],
        );
        let ds = cloud.downsampled(1.0);
        assert_eq!(ds.len(), 1);
        assert!((ds.points()[0] - Vec3::new(0.2, 0.2, 0.2)).norm() < 1e-12);
    }

    #[test]
    fn downsampling_is_deterministic() {
        let cloud = dense_line_cloud();
        assert_eq!(cloud.downsampled(0.7), cloud.downsampled(0.7));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_size_panics() {
        let _ = dense_line_cloud().downsampled(0.0);
    }

    #[test]
    fn volume_operator_prefers_near_points() {
        let cloud = PointCloud::new(
            Vec3::ZERO,
            vec![
                Vec3::new(50.0, 5.0, 5.0),
                Vec3::new(1.0, 0.5, 0.5),
                Vec3::new(2.0, 1.0, 1.0),
            ],
        );
        let limited = cloud.volume_limited(Vec3::ZERO, 10.0);
        // The far point would blow up the volume, so only near points stay.
        assert_eq!(limited.len(), 2);
        assert!(limited.points().iter().all(|p| p.x < 10.0));
    }

    #[test]
    fn volume_operator_keeps_everything_when_budget_is_large() {
        let cloud = dense_line_cloud();
        let limited = cloud.volume_limited(Vec3::ZERO, 1.0e9);
        assert_eq!(limited.len(), cloud.len());
    }

    #[test]
    fn volume_operator_zero_budget_empties_cloud() {
        let cloud = dense_line_cloud();
        assert!(cloud.volume_limited(Vec3::ZERO, 0.0).is_empty());
    }

    #[test]
    fn volume_operator_always_keeps_at_least_one_point() {
        // Even a tiny non-zero budget keeps the nearest point (a degenerate
        // single-point AABB has zero volume).
        let cloud = dense_line_cloud();
        let limited = cloud.volume_limited(Vec3::new(4.0, 0.0, 0.0), 1e-12);
        assert!(!limited.is_empty());
        // The kept point is the nearest one to the reference.
        assert!((limited.points()[0].x - 4.0).abs() < 0.11);
    }

    #[test]
    fn merge_and_extend() {
        let mut a = PointCloud::new(Vec3::ZERO, vec![Vec3::X]);
        let b = PointCloud::new(Vec3::Y, vec![Vec3::Y, Vec3::Z]);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.origin(), Vec3::ZERO);
        a.extend([Vec3::splat(2.0)]);
        assert_eq!(a.len(), 4);
        let bounds = a.bounds().unwrap();
        assert!(bounds.contains(Vec3::splat(2.0)));
    }
}
