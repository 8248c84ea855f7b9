//! Axis-aligned bounding boxes.

use crate::Vec3;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An axis-aligned bounding box defined by its minimum and maximum corners.
///
/// Obstacles in the simulated world, sensor field-of-view approximations
/// and map regions are all represented as `Aabb`s.
///
/// # Example
///
/// ```
/// use roborun_geom::{Aabb, Vec3};
/// let b = Aabb::new(Vec3::ZERO, Vec3::new(2.0, 3.0, 4.0));
/// assert!((b.volume() - 24.0).abs() < 1e-12);
/// assert!(b.contains(Vec3::new(1.0, 1.0, 1.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aabb {
    /// Minimum corner (inclusive).
    pub min: Vec3,
    /// Maximum corner (inclusive).
    pub max: Vec3,
}

impl Aabb {
    /// Creates a box from its two corners.
    ///
    /// The corners are re-ordered component-wise so the resulting box is
    /// always well formed (`min ≤ max` on every axis).
    #[inline]
    pub fn new(a: Vec3, b: Vec3) -> Self {
        Aabb {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// Creates a box centred at `center` extending `half_extents` on each side.
    ///
    /// # Panics
    ///
    /// Panics if any half extent is negative.
    #[inline]
    pub fn from_center_half_extents(center: Vec3, half_extents: Vec3) -> Self {
        assert!(
            half_extents.x >= 0.0 && half_extents.y >= 0.0 && half_extents.z >= 0.0,
            "half extents must be non-negative, got {half_extents:?}"
        );
        Aabb {
            min: center - half_extents,
            max: center + half_extents,
        }
    }

    /// The smallest box containing both `a` and `b`.
    #[inline]
    pub fn union(a: &Aabb, b: &Aabb) -> Aabb {
        Aabb {
            min: a.min.min(b.min),
            max: a.max.max(b.max),
        }
    }

    /// The smallest box containing every point of the iterator, or `None`
    /// for an empty iterator.
    pub fn from_points<I: IntoIterator<Item = Vec3>>(points: I) -> Option<Aabb> {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let mut aabb = Aabb {
            min: first,
            max: first,
        };
        for p in iter {
            aabb.min = aabb.min.min(p);
            aabb.max = aabb.max.max(p);
        }
        Some(aabb)
    }

    /// Geometric centre of the box.
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Half extents (distance from centre to each face).
    #[inline]
    pub fn half_extents(&self) -> Vec3 {
        (self.max - self.min) * 0.5
    }

    /// Edge lengths of the box.
    #[inline]
    pub fn size(&self) -> Vec3 {
        self.max - self.min
    }

    /// Volume in cubic metres.
    #[inline]
    pub fn volume(&self) -> f64 {
        let s = self.size();
        s.x * s.y * s.z
    }

    /// Surface area.
    #[inline]
    pub fn surface_area(&self) -> f64 {
        let s = self.size();
        2.0 * (s.x * s.y + s.y * s.z + s.z * s.x)
    }

    /// `true` if the point lies inside or on the boundary of the box.
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// `true` if `other` is entirely contained in `self`.
    #[inline]
    pub fn contains_aabb(&self, other: &Aabb) -> bool {
        self.contains(other.min) && self.contains(other.max)
    }

    /// `true` if the two boxes overlap (sharing a face counts as overlap).
    #[inline]
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
            && self.min.z <= other.max.z
            && self.max.z >= other.min.z
    }

    /// The overlap region of two boxes, or `None` if they do not intersect.
    pub fn intersection(&self, other: &Aabb) -> Option<Aabb> {
        if !self.intersects(other) {
            return None;
        }
        Some(Aabb {
            min: self.min.max(other.min),
            max: self.max.min(other.max),
        })
    }

    /// Returns the box grown by `margin` on every side.
    ///
    /// A negative margin shrinks the box; the result is clamped so it never
    /// inverts (each axis keeps `min ≤ max`).
    pub fn inflate(&self, margin: f64) -> Aabb {
        let m = Vec3::splat(margin);
        let min = self.min - m;
        let max = self.max + m;
        Aabb {
            min: min.min(self.center()),
            max: max.max(self.center()),
        }
    }

    /// Closest point inside the box to `p` (equals `p` when `p` is inside).
    #[inline]
    pub fn closest_point(&self, p: Vec3) -> Vec3 {
        p.clamp(self.min, self.max)
    }

    /// Euclidean distance from `p` to the box (zero when inside).
    #[inline]
    pub fn distance_to_point(&self, p: Vec3) -> f64 {
        self.closest_point(p).distance(p)
    }

    /// The eight corner points of the box.
    pub fn corners(&self) -> [Vec3; 8] {
        let (lo, hi) = (self.min, self.max);
        [
            Vec3::new(lo.x, lo.y, lo.z),
            Vec3::new(hi.x, lo.y, lo.z),
            Vec3::new(lo.x, hi.y, lo.z),
            Vec3::new(hi.x, hi.y, lo.z),
            Vec3::new(lo.x, lo.y, hi.z),
            Vec3::new(hi.x, lo.y, hi.z),
            Vec3::new(lo.x, hi.y, hi.z),
            Vec3::new(hi.x, hi.y, hi.z),
        ]
    }
}

impl fmt::Display for Aabb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

/// Four axis-aligned boxes in struct-of-arrays layout, the batch unit of
/// the SIMD-ready slab test [`crate::Ray::intersect_aabb4`].
///
/// Broad-phase cells store many small boxes whose slab tests the raycast
/// inner loop evaluates one after another; laying four of them out
/// coordinate-by-coordinate (`min_x[0..4]`, `min_y[0..4]`, …) turns the
/// per-axis slab arithmetic into four independent lanes over contiguous
/// `f64`s — the shape an auto-vectoriser (or an explicit `f64x4` port)
/// needs, with no gather step. A partial pack records how many lanes are
/// real in [`Aabb4::len`]; the batched test masks the padding lanes to
/// misses after the (branch-free) lane arithmetic, so a partial pack
/// answers exactly like the scalar loop over its real boxes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aabb4 {
    /// Minimum x of each lane.
    pub min_x: [f64; 4],
    /// Minimum y of each lane.
    pub min_y: [f64; 4],
    /// Minimum z of each lane.
    pub min_z: [f64; 4],
    /// Maximum x of each lane.
    pub max_x: [f64; 4],
    /// Maximum y of each lane.
    pub max_y: [f64; 4],
    /// Maximum z of each lane.
    pub max_z: [f64; 4],
    /// Number of real lanes (`0..=4`); the rest are padding.
    len: usize,
}

impl Default for Aabb4 {
    fn default() -> Self {
        Aabb4::empty()
    }
}

impl Aabb4 {
    /// A pack with no real lanes: every query misses.
    pub fn empty() -> Self {
        Aabb4 {
            min_x: [0.0; 4],
            min_y: [0.0; 4],
            min_z: [0.0; 4],
            max_x: [0.0; 4],
            max_y: [0.0; 4],
            max_z: [0.0; 4],
            len: 0,
        }
    }

    /// Packs up to four boxes; remaining lanes are padding and never hit.
    ///
    /// # Panics
    ///
    /// Panics when given more than four boxes.
    pub fn pack(boxes: &[Aabb]) -> Self {
        assert!(boxes.len() <= 4, "Aabb4 holds at most 4 boxes");
        let mut pack = Aabb4::empty();
        for b in boxes {
            pack.push(b);
        }
        pack
    }

    /// Appends a box to the next free lane.
    ///
    /// # Panics
    ///
    /// Panics when all four lanes are already filled.
    pub fn push(&mut self, b: &Aabb) {
        assert!(self.len < 4, "Aabb4 holds at most 4 boxes");
        let lane = self.len;
        self.min_x[lane] = b.min.x;
        self.min_y[lane] = b.min.y;
        self.min_z[lane] = b.min.z;
        self.max_x[lane] = b.max.x;
        self.max_y[lane] = b.max.y;
        self.max_z[lane] = b.max.z;
        self.len += 1;
    }

    /// Number of real lanes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// The box stored in one real lane.
    ///
    /// # Panics
    ///
    /// Panics when `lane >= self.len()`.
    pub fn lane(&self, lane: usize) -> Aabb {
        assert!(
            lane < self.len,
            "lane {lane} out of range (len {})",
            self.len
        );
        Aabb {
            min: Vec3::new(self.min_x[lane], self.min_y[lane], self.min_z[lane]),
            max: Vec3::new(self.max_x[lane], self.max_y[lane], self.max_z[lane]),
        }
    }

    /// The per-lane slab bounds of one axis (`0 = x`, `1 = y`, `2 = z`).
    #[inline]
    pub(crate) fn axis_slabs(&self, axis: usize) -> (&[f64; 4], &[f64; 4]) {
        match axis {
            0 => (&self.min_x, &self.max_x),
            1 => (&self.min_y, &self.max_y),
            _ => (&self.min_z, &self.max_z),
        }
    }

    /// Batched point distance: each real lane computes *exactly* the
    /// arithmetic of [`Aabb::distance_to_point`] (per-axis clamp via
    /// `max`/`min`, then the x²+y²+z² square root, in the same order),
    /// so `distance_to_point4(p)[l]` is bit-identical to
    /// `self.lane(l).distance_to_point(p)`. Padding lanes report
    /// `f64::INFINITY`, which loses every `<=`/`<` comparison a caller
    /// can make. The per-lane loops run over contiguous `f64`s with no
    /// branches — the shape an auto-vectoriser needs.
    #[inline]
    pub fn distance_to_point4(&self, p: Vec3) -> [f64; 4] {
        let mut out: [f64; 4] = std::array::from_fn(|lane| {
            let cx = p.x.max(self.min_x[lane]).min(self.max_x[lane]);
            let cy = p.y.max(self.min_y[lane]).min(self.max_y[lane]);
            let cz = p.z.max(self.min_z[lane]).min(self.max_z[lane]);
            let dx = cx - p.x;
            let dy = cy - p.y;
            let dz = cz - p.z;
            (dx * dx + dy * dy + dz * dz).sqrt()
        });
        for d in out.iter_mut().skip(self.len) {
            *d = f64::INFINITY;
        }
        out
    }
}

/// Eight axis-aligned boxes in struct-of-arrays layout, the AVX-width
/// batch unit of the SIMD-ready slab test [`crate::Ray::intersect_aabb8`].
///
/// This is the 8-lane sibling of [`Aabb4`]: same layout idea
/// (`min_x[0..8]`, `min_y[0..8]`, …), same padding contract (a partial
/// pack records how many lanes are real in [`Aabb8::len`] and the batched
/// kernels mask the padding lanes to misses *after* the branch-free lane
/// arithmetic). Eight `f64` lanes span two AVX registers (or four SSE2
/// ones), so on an AVX target the auto-vectoriser keeps twice as many
/// slab compares in flight per loop iteration; which width a broad-phase
/// cell packs is chosen at build time by [`crate::simd::SimdWidth`]
/// runtime dispatch, and both widths answer bit-identically to the
/// scalar loop over the pack's real boxes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aabb8 {
    /// Minimum x of each lane.
    pub min_x: [f64; 8],
    /// Minimum y of each lane.
    pub min_y: [f64; 8],
    /// Minimum z of each lane.
    pub min_z: [f64; 8],
    /// Maximum x of each lane.
    pub max_x: [f64; 8],
    /// Maximum y of each lane.
    pub max_y: [f64; 8],
    /// Maximum z of each lane.
    pub max_z: [f64; 8],
    /// Number of real lanes (`0..=8`); the rest are padding.
    len: usize,
}

impl Default for Aabb8 {
    fn default() -> Self {
        Aabb8::empty()
    }
}

impl Aabb8 {
    /// A pack with no real lanes: every query misses.
    pub fn empty() -> Self {
        Aabb8 {
            min_x: [0.0; 8],
            min_y: [0.0; 8],
            min_z: [0.0; 8],
            max_x: [0.0; 8],
            max_y: [0.0; 8],
            max_z: [0.0; 8],
            len: 0,
        }
    }

    /// Packs up to eight boxes; remaining lanes are padding and never hit.
    ///
    /// # Panics
    ///
    /// Panics when given more than eight boxes.
    pub fn pack(boxes: &[Aabb]) -> Self {
        assert!(boxes.len() <= 8, "Aabb8 holds at most 8 boxes");
        let mut pack = Aabb8::empty();
        for b in boxes {
            pack.push(b);
        }
        pack
    }

    /// Appends a box to the next free lane.
    ///
    /// # Panics
    ///
    /// Panics when all eight lanes are already filled.
    pub fn push(&mut self, b: &Aabb) {
        assert!(self.len < 8, "Aabb8 holds at most 8 boxes");
        let lane = self.len;
        self.min_x[lane] = b.min.x;
        self.min_y[lane] = b.min.y;
        self.min_z[lane] = b.min.z;
        self.max_x[lane] = b.max.x;
        self.max_y[lane] = b.max.y;
        self.max_z[lane] = b.max.z;
        self.len += 1;
    }

    /// Number of real lanes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// The box stored in one real lane.
    ///
    /// # Panics
    ///
    /// Panics when `lane >= self.len()`.
    pub fn lane(&self, lane: usize) -> Aabb {
        assert!(
            lane < self.len,
            "lane {lane} out of range (len {})",
            self.len
        );
        Aabb {
            min: Vec3::new(self.min_x[lane], self.min_y[lane], self.min_z[lane]),
            max: Vec3::new(self.max_x[lane], self.max_y[lane], self.max_z[lane]),
        }
    }

    /// The per-lane slab bounds of one axis (`0 = x`, `1 = y`, `2 = z`).
    #[inline]
    pub(crate) fn axis_slabs(&self, axis: usize) -> (&[f64; 8], &[f64; 8]) {
        match axis {
            0 => (&self.min_x, &self.max_x),
            1 => (&self.min_y, &self.max_y),
            _ => (&self.min_z, &self.max_z),
        }
    }

    /// Batched point distance: each real lane computes *exactly* the
    /// arithmetic of [`Aabb::distance_to_point`] (per-axis clamp via
    /// `max`/`min`, then the x²+y²+z² square root, in the same order),
    /// so `distance_to_point8(p)[l]` is bit-identical to
    /// `self.lane(l).distance_to_point(p)`. Padding lanes report
    /// `f64::INFINITY`, which loses every `<=`/`<` comparison a caller
    /// can make. The per-lane loops run over contiguous `f64`s with no
    /// branches — the shape an auto-vectoriser needs.
    #[inline]
    pub fn distance_to_point8(&self, p: Vec3) -> [f64; 8] {
        let mut out: [f64; 8] = std::array::from_fn(|lane| {
            let cx = p.x.max(self.min_x[lane]).min(self.max_x[lane]);
            let cy = p.y.max(self.min_y[lane]).min(self.max_y[lane]);
            let cz = p.z.max(self.min_z[lane]).min(self.max_z[lane]);
            let dx = cx - p.x;
            let dy = cy - p.y;
            let dz = cz - p.z;
            (dx * dx + dy * dy + dz * dz).sqrt()
        });
        for d in out.iter_mut().skip(self.len) {
            *d = f64::INFINITY;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::splat(1.0))
    }

    #[test]
    fn new_reorders_corners() {
        let b = Aabb::new(Vec3::new(2.0, -1.0, 5.0), Vec3::new(-2.0, 1.0, 0.0));
        assert_eq!(b.min, Vec3::new(-2.0, -1.0, 0.0));
        assert_eq!(b.max, Vec3::new(2.0, 1.0, 5.0));
    }

    #[test]
    fn center_extents_size_volume() {
        let b = Aabb::from_center_half_extents(Vec3::new(1.0, 2.0, 3.0), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(b.center(), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(b.half_extents(), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(b.size(), Vec3::new(2.0, 4.0, 6.0));
        assert!((b.volume() - 48.0).abs() < 1e-12);
        assert!((b.surface_area() - 2.0 * (8.0 + 24.0 + 12.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_half_extents_panic() {
        let _ = Aabb::from_center_half_extents(Vec3::ZERO, Vec3::new(-1.0, 0.0, 0.0));
    }

    #[test]
    fn containment() {
        let b = unit_box();
        assert!(b.contains(Vec3::splat(0.5)));
        assert!(b.contains(Vec3::ZERO));
        assert!(b.contains(Vec3::splat(1.0)));
        assert!(!b.contains(Vec3::new(1.1, 0.5, 0.5)));
        let inner = Aabb::new(Vec3::splat(0.25), Vec3::splat(0.75));
        assert!(b.contains_aabb(&inner));
        assert!(!inner.contains_aabb(&b));
    }

    #[test]
    fn intersection_and_union() {
        let a = unit_box();
        let b = Aabb::new(Vec3::splat(0.5), Vec3::splat(2.0));
        assert!(a.intersects(&b));
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, Aabb::new(Vec3::splat(0.5), Vec3::splat(1.0)));
        let c = Aabb::new(Vec3::splat(5.0), Vec3::splat(6.0));
        assert!(!a.intersects(&c));
        assert!(a.intersection(&c).is_none());
        let u = Aabb::union(&a, &c);
        assert_eq!(u, Aabb::new(Vec3::ZERO, Vec3::splat(6.0)));
    }

    #[test]
    fn from_points() {
        let pts = vec![
            Vec3::new(1.0, 5.0, -2.0),
            Vec3::new(-3.0, 0.0, 4.0),
            Vec3::new(0.0, 2.0, 0.0),
        ];
        let b = Aabb::from_points(pts).unwrap();
        assert_eq!(b.min, Vec3::new(-3.0, 0.0, -2.0));
        assert_eq!(b.max, Vec3::new(1.0, 5.0, 4.0));
        assert!(Aabb::from_points(std::iter::empty()).is_none());
    }

    #[test]
    fn inflate_and_distance() {
        let b = unit_box();
        let g = b.inflate(1.0);
        assert_eq!(g, Aabb::new(Vec3::splat(-1.0), Vec3::splat(2.0)));
        // Shrinking more than the half extents clamps at the centre.
        let s = b.inflate(-10.0);
        assert!(s.min.x <= s.max.x && s.min.y <= s.max.y && s.min.z <= s.max.z);
        assert!((b.distance_to_point(Vec3::new(3.0, 0.5, 0.5)) - 2.0).abs() < 1e-12);
        assert_eq!(b.distance_to_point(Vec3::splat(0.5)), 0.0);
    }

    #[test]
    fn corners_are_all_distinct_and_contained() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(1.0, 2.0, 3.0));
        let corners = b.corners();
        for c in corners {
            assert!(b.contains(c));
        }
        for i in 0..8 {
            for j in (i + 1)..8 {
                assert_ne!(corners[i], corners[j]);
            }
        }
    }

    #[test]
    fn display_contains_corners() {
        let s = format!("{}", unit_box());
        assert!(s.contains("0.000"));
        assert!(s.contains("1.000"));
    }

    #[test]
    fn aabb4_packs_and_unpacks_lanes() {
        let boxes = [
            unit_box(),
            Aabb::new(Vec3::splat(2.0), Vec3::splat(3.0)),
            Aabb::new(Vec3::new(-5.0, 0.0, 1.0), Vec3::new(-1.0, 4.0, 2.0)),
        ];
        let pack = Aabb4::pack(&boxes);
        assert_eq!(pack.len(), 3);
        for (i, b) in boxes.iter().enumerate() {
            assert_eq!(pack.lane(i), *b);
        }
        assert_eq!(Aabb4::empty().len(), 0);
        assert_eq!(Aabb4::default(), Aabb4::empty());
        let mut grown = Aabb4::empty();
        grown.push(&unit_box());
        assert_eq!(grown.len(), 1);
        assert_eq!(grown.lane(0), unit_box());
    }

    #[test]
    fn aabb4_distance_matches_scalar_per_lane() {
        let boxes = [
            unit_box(),
            Aabb::new(Vec3::splat(2.0), Vec3::splat(3.0)),
            Aabb::new(Vec3::new(-5.0, 0.0, 1.0), Vec3::new(-1.0, 4.0, 2.0)),
        ];
        let pack = Aabb4::pack(&boxes);
        for p in [
            Vec3::ZERO,
            Vec3::splat(0.5),
            Vec3::new(4.0, -2.0, 7.5),
            Vec3::new(-3.0, 2.0, 1.5),
            Vec3::new(1.0, 1.0, 1.0),
        ] {
            let batched = pack.distance_to_point4(p);
            for (lane, b) in boxes.iter().enumerate() {
                assert_eq!(
                    batched[lane].to_bits(),
                    b.distance_to_point(p).to_bits(),
                    "lane {lane} at {p}"
                );
            }
            assert_eq!(batched[3], f64::INFINITY, "padding lane must never win");
        }
        assert!(Aabb4::empty()
            .distance_to_point4(Vec3::ZERO)
            .iter()
            .all(|d| *d == f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "at most 4")]
    fn aabb4_rejects_oversized_packs() {
        let _ = Aabb4::pack(&[unit_box(); 5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn aabb4_padding_lane_is_inaccessible() {
        let pack = Aabb4::pack(&[unit_box()]);
        let _ = pack.lane(1);
    }

    #[test]
    fn aabb8_packs_and_unpacks_lanes() {
        let boxes = [
            unit_box(),
            Aabb::new(Vec3::splat(2.0), Vec3::splat(3.0)),
            Aabb::new(Vec3::new(-5.0, 0.0, 1.0), Vec3::new(-1.0, 4.0, 2.0)),
            Aabb::new(Vec3::new(7.0, -2.0, 0.5), Vec3::new(9.0, -1.0, 1.5)),
            Aabb::new(Vec3::splat(-8.0), Vec3::splat(-6.0)),
        ];
        let pack = Aabb8::pack(&boxes);
        assert_eq!(pack.len(), 5);
        for (i, b) in boxes.iter().enumerate() {
            assert_eq!(pack.lane(i), *b);
        }
        assert_eq!(Aabb8::empty().len(), 0);
        assert_eq!(Aabb8::default(), Aabb8::empty());
        let mut grown = Aabb8::empty();
        grown.push(&unit_box());
        assert_eq!(grown.len(), 1);
        assert_eq!(grown.lane(0), unit_box());
    }

    #[test]
    fn aabb8_distance_matches_scalar_per_lane() {
        let boxes = [
            unit_box(),
            Aabb::new(Vec3::splat(2.0), Vec3::splat(3.0)),
            Aabb::new(Vec3::new(-5.0, 0.0, 1.0), Vec3::new(-1.0, 4.0, 2.0)),
            Aabb::new(Vec3::new(7.0, -2.0, 0.5), Vec3::new(9.0, -1.0, 1.5)),
            Aabb::new(Vec3::splat(-8.0), Vec3::splat(-6.0)),
        ];
        let pack = Aabb8::pack(&boxes);
        for p in [
            Vec3::ZERO,
            Vec3::splat(0.5),
            Vec3::new(4.0, -2.0, 7.5),
            Vec3::new(-3.0, 2.0, 1.5),
            Vec3::new(1.0, 1.0, 1.0),
        ] {
            let batched = pack.distance_to_point8(p);
            for (lane, b) in boxes.iter().enumerate() {
                assert_eq!(
                    batched[lane].to_bits(),
                    b.distance_to_point(p).to_bits(),
                    "lane {lane} at {p}"
                );
            }
            for d in batched.iter().skip(boxes.len()) {
                assert_eq!(*d, f64::INFINITY, "padding lane must never win");
            }
        }
        assert!(Aabb8::empty()
            .distance_to_point8(Vec3::ZERO)
            .iter()
            .all(|d| *d == f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "at most 8")]
    fn aabb8_rejects_oversized_packs() {
        let _ = Aabb8::pack(&[unit_box(); 9]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn aabb8_padding_lane_is_inaccessible() {
        let pack = Aabb8::pack(&[unit_box()]);
        let _ = pack.lane(1);
    }
}
