//! Simulated depth cameras and the six-camera rig.
//!
//! The paper's MAV carries "6 cameras, an IMU, and a GPS"; the perception
//! stage converts camera pixels into 3-D points (the *Point cloud* kernel).
//! Here each camera is a pinhole depth sensor realised by ray casting into
//! the ground-truth obstacle field: a pixel ray that hits an obstacle
//! within the maximum range produces the hit point, and a ray that hits
//! nothing produces nothing. Misses are dropped, so open space leaves no
//! free-space evidence in the sweep (cause 1 of the ROADMAP item "Make
//! space reach velocity").

use roborun_env::{Obstacle, ObstacleField};
use roborun_geom::{Aabb, Pose, Ray, Vec3};
use serde::{Deserialize, Serialize};

/// A single simulated depth camera.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DepthCamera {
    /// Yaw of the camera's optical axis relative to the drone body (radians).
    pub mount_yaw: f64,
    /// Pitch of the camera's optical axis relative to horizontal
    /// (radians; negative tilts the camera down). Zero for the classic
    /// horizontal-band rig.
    pub mount_pitch: f64,
    /// Horizontal field of view (radians).
    pub h_fov: f64,
    /// Vertical field of view (radians).
    pub v_fov: f64,
    /// Horizontal resolution (rays).
    pub h_res: usize,
    /// Vertical resolution (rays).
    pub v_res: usize,
    /// Maximum sensing range (metres).
    pub max_range: f64,
}

impl DepthCamera {
    /// Creates a camera with the given mount yaw and otherwise default
    /// intrinsics (60°×45° FOV, 16×8 rays, 40 m range).
    pub fn mounted_at(mount_yaw: f64) -> Self {
        DepthCamera {
            mount_yaw,
            mount_pitch: 0.0,
            h_fov: 60f64.to_radians(),
            v_fov: 45f64.to_radians(),
            h_res: 16,
            v_res: 8,
            max_range: 40.0,
        }
    }

    /// Number of rays this camera casts per frame.
    pub fn ray_count(&self) -> usize {
        self.h_res * self.v_res
    }

    /// Casts one depth frame from `pose` against the `local` obstacles
    /// (whose pose-relative footprints are `footprints`), appending hit
    /// points row by row, column by column. See [`CameraRig::capture`].
    fn cast_columns(
        &self,
        local: &[&Obstacle],
        footprints: &[Footprint],
        pose: &Pose,
        points: &mut Vec<Vec3>,
    ) {
        // (cos, sin) of each column's yaw and each row's pitch. The angle
        // expressions must stay exactly these: the ray directions, and so
        // the points, are defined by them bit for bit.
        let columns: Vec<(f64, f64)> = (0..self.h_res)
            .map(|ix| {
                let fx = if self.h_res == 1 {
                    0.0
                } else {
                    ix as f64 / (self.h_res - 1) as f64 - 0.5
                };
                let yaw = pose.yaw + self.mount_yaw + fx * self.h_fov;
                (yaw.cos(), yaw.sin())
            })
            .collect();
        let rows: Vec<(f64, f64)> = (0..self.v_res)
            .map(|iy| {
                let fy = if self.v_res == 1 {
                    0.0
                } else {
                    iy as f64 / (self.v_res - 1) as f64 - 0.5
                };
                let pitch = self.mount_pitch + fy * self.v_fov;
                (pitch.cos(), pitch.sin())
            })
            .collect();

        // A row pitched past vertical travels against its column's yaw,
        // so the column's ground track reaches backwards too and the
        // frame no longer lies inside its horizontal wedge.
        let backward = rows.iter().any(|&(pc, _)| pc < 0.0);
        let back_reach = if backward { -self.max_range } else { 0.0 };

        // Drop footprints wholly outside either edge of the camera's
        // horizontal wedge, which is convex only when narrower than π.
        let half_fov = 0.5 * self.h_fov.abs();
        let wedge: Vec<u32> = if !backward && 2.0 * half_fov < std::f64::consts::PI {
            let base = pose.yaw + self.mount_yaw;
            let (lo, hi) = (base - half_fov, base + half_fov);
            let (lo, hi) = ((lo.cos(), lo.sin()), (hi.cos(), hi.sin()));
            footprints
                .iter()
                .enumerate()
                .filter(|(_, f)| f.cross_range(hi).0 <= CULL_SLACK)
                .filter(|(_, f)| f.cross_range(lo).1 >= -CULL_SLACK)
                .map(|(i, _)| i as u32)
                .collect()
        } else {
            (0..footprints.len() as u32).collect()
        };

        // Column `ix`'s survivors are `survivors[starts[ix]..starts[ix + 1]]`.
        let mut survivors = Vec::new();
        let mut starts = vec![0];
        for &axis in &columns {
            survivors.extend(
                wedge.iter().copied().filter(|&i| {
                    footprints[i as usize].meets_track(axis, back_reach, self.max_range)
                }),
            );
            starts.push(survivors.len());
        }

        for &(pc, ps) in &rows {
            for (ix, &(yc, ys)) in columns.iter().enumerate() {
                let ray = Ray::new(pose.position, Vec3::new(yc * pc, ys * pc, ps));
                // Survivors ascend by field index and only a strictly
                // nearer entry replaces the best, so ties resolve to the
                // lowest index, as `ObstacleField::raycast` does.
                let mut nearest: Option<f64> = None;
                for &i in &survivors[starts[ix]..starts[ix + 1]] {
                    if let Some(hit) = ray.intersect_aabb(&local[i as usize].bounds) {
                        if hit.t_min <= self.max_range && nearest.is_none_or(|t| hit.t_min < t) {
                            nearest = Some(hit.t_min);
                        }
                    }
                }
                if let Some(t) = nearest {
                    points.push(ray.at(t));
                }
            }
        }
    }
}

/// Slack (metres) of the rig's 2-D culls. Every cull keeps a box whose
/// footprint comes within this distance of a ray's ground track; the float
/// error of the slab test and of the trig is orders of magnitude smaller at
/// mission coordinates and sensing range, so the culls never drop a box the
/// slab test would hit.
const CULL_SLACK: f64 = 1e-6;

/// An obstacle's horizontal footprint relative to the sensing pose.
#[derive(Debug, Clone, Copy)]
struct Footprint {
    x0: f64,
    x1: f64,
    y0: f64,
    y1: f64,
}

impl Footprint {
    fn relative(bounds: &Aabb, origin: Vec3) -> Self {
        Footprint {
            x0: bounds.min.x - origin.x,
            x1: bounds.max.x - origin.x,
            y0: bounds.min.y - origin.y,
            y1: bounds.max.y - origin.y,
        }
    }

    /// Range `(min, max)` of `c·y − s·x` over the footprint: the signed
    /// distance of its points to the left of the line through the origin
    /// along the unit vector `(c, s)`.
    fn cross_range(&self, (c, s): (f64, f64)) -> (f64, f64) {
        let (cy0, cy1) = (c * self.y0, c * self.y1);
        let (sx0, sx1) = (s * self.x0, s * self.x1);
        (cy0.min(cy1) - sx0.max(sx1), cy0.max(cy1) - sx0.min(sx1))
    }

    /// `true` when the footprint, grown by [`CULL_SLACK`], meets the
    /// segment from `from·axis` to `to·axis` (`axis` a unit vector): the
    /// separating-axis test on the two box axes and the segment's normal.
    fn meets_track(&self, axis: (f64, f64), from: f64, to: f64) -> bool {
        let (c, s) = axis;
        let (xa, xb) = (from * c, to * c);
        let (ya, yb) = (from * s, to * s);
        let (lo, hi) = self.cross_range(axis);
        // `&`, not `&&`: the outcomes are unpredictable, and evaluating all
        // six without branches measured faster.
        (xa.max(xb) >= self.x0 - CULL_SLACK)
            & (xa.min(xb) <= self.x1 + CULL_SLACK)
            & (ya.max(yb) >= self.y0 - CULL_SLACK)
            & (ya.min(yb) <= self.y1 + CULL_SLACK)
            & (lo <= CULL_SLACK)
            & (hi >= -CULL_SLACK)
    }
}

/// One full sweep of the camera rig.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DepthScan {
    /// World-frame points where rays hit obstacles.
    pub points: Vec<Vec3>,
    /// Total number of rays cast across the rig.
    pub rays_cast: usize,
    /// Pose the scan was captured from.
    pub pose: Pose,
    /// Maximum sensing range of the rig's cameras (metres).
    pub max_range: f64,
}

impl DepthScan {
    /// Fraction of rays that hit an obstacle (a cheap congestion proxy).
    pub fn hit_fraction(&self) -> f64 {
        if self.rays_cast == 0 {
            0.0
        } else {
            self.points.len() as f64 / self.rays_cast as f64
        }
    }
}

/// The MAV's camera rig: several depth cameras mounted around the airframe.
///
/// # Example
///
/// ```
/// use roborun_sim::CameraRig;
/// let rig = CameraRig::hexa_rig();
/// assert_eq!(rig.cameras().len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CameraRig {
    cameras: Vec<DepthCamera>,
}

impl CameraRig {
    /// The paper's six-camera rig covering the full 360° horizontal FOV.
    pub fn hexa_rig() -> Self {
        let cameras = (0..6)
            .map(|i| DepthCamera::mounted_at(i as f64 * std::f64::consts::TAU / 6.0))
            .collect();
        CameraRig { cameras }
    }

    /// A single forward-facing camera (useful for cheap tests).
    pub fn mono_rig() -> Self {
        CameraRig {
            cameras: vec![DepthCamera::mounted_at(0.0)],
        }
    }

    /// Creates a rig from explicit cameras.
    ///
    /// # Panics
    ///
    /// Panics if `cameras` is empty.
    pub fn new(cameras: Vec<DepthCamera>) -> Self {
        assert!(
            !cameras.is_empty(),
            "a camera rig needs at least one camera"
        );
        CameraRig { cameras }
    }

    /// The cameras in the rig.
    pub fn cameras(&self) -> &[DepthCamera] {
        &self.cameras
    }

    /// Total rays cast per sweep.
    pub fn rays_per_sweep(&self) -> usize {
        self.cameras.iter().map(|c| c.ray_count()).sum()
    }

    /// Maximum sensing range across the rig.
    pub fn max_range(&self) -> f64 {
        self.cameras.iter().map(|c| c.max_range).fold(0.0, f64::max)
    }

    /// Captures a full sweep from the given pose: camera by camera, row by
    /// row, column by column, the point where each pixel ray first enters
    /// an obstacle within the camera's range (misses produce no point).
    ///
    /// The sweep is a column cast. The field's own grid gathers the
    /// obstacles within range once per sweep. Per camera, boxes whose
    /// footprint lies wholly outside either edge of the camera's horizontal
    /// wedge are dropped. All rows of a column share one yaw, so per column
    /// a 2-D test of each footprint against the column's ground track (the
    /// segment of length `max_range` along the yaw) leaves the few boxes
    /// any of its rays can reach — about 1.2 of 41 in a mid mission world —
    /// and each ray slab-tests only those.
    ///
    /// The culls are conservative: a 3-D hit at `t ≤ max_range` lies on the
    /// ground track at `s = t·cos(pitch) ≤ max_range`, and both culls keep
    /// every footprint within `CULL_SLACK` (1 µm) of it, far above the float
    /// error of the slab test. So each ray returns bit for bit the point
    /// [`ObstacleField::raycast`] returns for it, ties included.
    pub fn capture(&self, field: &ObstacleField, pose: &Pose) -> DepthScan {
        let max_range = self.max_range();
        let local = field.obstacles_within(pose.position, max_range + 1.0);
        let footprints: Vec<Footprint> = local
            .iter()
            .map(|o| Footprint::relative(&o.bounds, pose.position))
            .collect();
        let mut points = Vec::new();
        for cam in &self.cameras {
            cam.cast_columns(&local, &footprints, pose, &mut points);
        }
        DepthScan {
            points,
            rays_cast: self.rays_per_sweep(),
            pose: *pose,
            max_range,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roborun_env::Obstacle;
    use roborun_geom::Aabb;

    fn wall_field() -> ObstacleField {
        ObstacleField::new(vec![Obstacle::new(
            0,
            Aabb::new(Vec3::new(10.0, -30.0, 0.0), Vec3::new(11.0, 30.0, 20.0)),
        )])
    }

    #[test]
    fn hexa_rig_covers_six_directions() {
        let rig = CameraRig::hexa_rig();
        assert_eq!(rig.cameras().len(), 6);
        assert!(rig.rays_per_sweep() >= 6 * 16 * 8);
        assert!(rig.max_range() > 0.0);
    }

    #[test]
    fn empty_world_produces_no_points() {
        let rig = CameraRig::hexa_rig();
        let scan = rig.capture(
            &ObstacleField::empty(),
            &Pose::new(Vec3::new(0.0, 0.0, 5.0), 0.0),
        );
        assert!(scan.points.is_empty());
        assert_eq!(scan.hit_fraction(), 0.0);
        assert_eq!(scan.rays_cast, rig.rays_per_sweep());
    }

    #[test]
    fn forward_camera_sees_wall() {
        let rig = CameraRig::mono_rig();
        let field = wall_field();
        let scan = rig.capture(&field, &Pose::new(Vec3::new(0.0, 0.0, 5.0), 0.0));
        assert!(!scan.points.is_empty());
        assert!(scan.hit_fraction() > 0.0);
        // All points lie on the wall's front face (x ≈ 10) within range.
        for p in &scan.points {
            assert!(p.x >= 9.9 && p.x <= 11.1, "unexpected hit {p:?}");
        }
    }

    #[test]
    fn camera_facing_away_sees_nothing() {
        let rig = CameraRig::mono_rig();
        let field = wall_field();
        let scan = rig.capture(
            &field,
            &Pose::new(Vec3::new(0.0, 0.0, 5.0), std::f64::consts::PI),
        );
        assert!(scan.points.is_empty());
    }

    #[test]
    fn hexa_rig_sees_wall_regardless_of_yaw() {
        let rig = CameraRig::hexa_rig();
        let field = wall_field();
        for yaw_deg in [0.0, 45.0, 123.0, 270.0] {
            let yaw = f64::to_radians(yaw_deg);
            let scan = rig.capture(&field, &Pose::new(Vec3::new(0.0, 0.0, 5.0), yaw));
            assert!(!scan.points.is_empty(), "no hits at yaw {yaw_deg}");
        }
    }

    #[test]
    fn out_of_range_wall_is_invisible() {
        let rig = CameraRig::mono_rig();
        let field = ObstacleField::new(vec![Obstacle::new(
            0,
            Aabb::new(Vec3::new(100.0, -30.0, 0.0), Vec3::new(101.0, 30.0, 20.0)),
        )]);
        let scan = rig.capture(&field, &Pose::new(Vec3::new(0.0, 0.0, 5.0), 0.0));
        assert!(scan.points.is_empty());
    }

    #[test]
    fn ray_counts() {
        let cam = DepthCamera::mounted_at(0.0);
        assert_eq!(cam.ray_count(), 16 * 8);
        let rig = CameraRig::new(vec![cam]);
        assert_eq!(rig.rays_per_sweep(), cam.ray_count());
    }

    #[test]
    #[should_panic(expected = "at least one camera")]
    fn empty_rig_panics() {
        let _ = CameraRig::new(vec![]);
    }
}
