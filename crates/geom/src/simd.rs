//! Runtime SIMD-width dispatch for the batched AABB kernels.
//!
//! The batched slab tests come in two widths — [`crate::Aabb4`]
//! (SSE2-shaped, four `f64` lanes) and [`crate::Aabb8`] (AVX-shaped,
//! eight lanes). Both are plain safe Rust whose per-lane loops the
//! auto-vectoriser turns into packed compares, so either width runs
//! correctly on any target; the only question is which width keeps the
//! vector units fuller. [`SimdWidth::detect`] answers it once per
//! process: on `x86_64` it asks `is_x86_feature_detected!("avx")`
//! (256-bit registers fit four `f64`s, so the 8-lane pack unrolls to two
//! full registers per axis), everywhere else it falls back to the 4-lane
//! shape, which is exactly the pre-dispatch behaviour. Because every
//! width answers bit-identically to the scalar loop over its real lanes
//! (enforced by exact-equivalence proptests), width selection can never
//! change results — only throughput — and golden fixtures stay
//! byte-identical whichever width the host picks. Benches and tests that
//! measure or compare both widths on one host pick one explicitly with
//! `ObstacleField::with_simd_width`.

use std::sync::OnceLock;

/// Batch width of the AABB slab kernels, selected once per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdWidth {
    /// Four-lane packs ([`crate::Aabb4`]): the SSE2-shaped baseline.
    W4,
    /// Eight-lane packs ([`crate::Aabb8`]): the AVX-shaped wide path.
    W8,
}

impl SimdWidth {
    /// Number of `f64` lanes of this width.
    #[inline]
    pub fn lanes(self) -> usize {
        match self {
            SimdWidth::W4 => 4,
            SimdWidth::W8 => 8,
        }
    }

    /// The width the running host should use, computed once and cached:
    /// [`SimdWidth::W8`] on `x86_64` hosts with AVX, [`SimdWidth::W4`]
    /// everywhere else.
    pub fn detect() -> SimdWidth {
        static DETECTED: OnceLock<SimdWidth> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx") {
                    return SimdWidth::W8;
                }
            }
            SimdWidth::W4
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_counts() {
        assert_eq!(SimdWidth::W4.lanes(), 4);
        assert_eq!(SimdWidth::W8.lanes(), 8);
    }

    #[test]
    fn detect_is_stable_and_valid() {
        let a = SimdWidth::detect();
        let b = SimdWidth::detect();
        assert_eq!(a, b);
        assert!(matches!(a, SimdWidth::W4 | SimdWidth::W8));
    }
}
