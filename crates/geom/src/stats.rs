//! Running statistics, percentiles and least-squares fitting.
//!
//! These utilities back three parts of the reproduction:
//!
//! * mission metrics aggregation (mean/median mission time, energy, ...),
//! * the latency-model calibration (paper Eq. 4 is fitted by least squares
//!   and the paper reports `<8%` average MSE),
//! * the stopping-distance model fit (paper Eq. 2, `2%` MSE).

use serde::{Deserialize, Serialize};

/// Incrementally computed summary statistics (count, mean, variance,
/// min, max) using Welford's algorithm.
///
/// # Example
///
/// ```
/// use roborun_geom::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Default for RunningStats {
    fn default() -> Self {
        Self::new()
    }
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`-∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = RunningStats::new();
        s.extend(iter);
        s
    }
}

/// Percentile of a data set by linear interpolation between closest ranks.
///
/// `q` is in `[0, 1]` — `0.5` gives the median. Returns `None` for an empty
/// slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or the data contains NaN.
pub fn percentile(data: &[f64], q: f64) -> Option<f64> {
    assert!(
        (0.0..=1.0).contains(&q),
        "percentile q must be in [0,1], got {q}"
    );
    if data.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    if sorted.len() == 1 {
        return Some(sorted[0]);
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Median convenience wrapper over [`percentile`].
pub fn median(data: &[f64]) -> Option<f64> {
    percentile(data, 0.5)
}

/// Ordinary least squares fit of `y ≈ a·x + b`.
///
/// Returns `(a, b)`. Returns `None` when fewer than two points are given or
/// all x values coincide.
pub fn linear_fit(points: &[(f64, f64)]) -> Option<(f64, f64)> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let a = (n * sxy - sx * sy) / denom;
    let b = (sy - a * sx) / n;
    Some((a, b))
}

/// Least-squares fit of a polynomial of degree `degree` through the points,
/// returning coefficients lowest-order first (`c0 + c1 x + c2 x² + ...`).
///
/// Solves the normal equations with Gaussian elimination; adequate for the
/// small fits used here (degree ≤ 3, dozens of samples).
///
/// Returns `None` when the system is singular or there are fewer points
/// than coefficients.
pub fn polyfit(points: &[(f64, f64)], degree: usize) -> Option<Vec<f64>> {
    let m = degree + 1;
    if points.len() < m {
        return None;
    }
    // Build normal equations A^T A c = A^T y.
    let mut ata = vec![vec![0.0f64; m]; m];
    let mut aty = vec![0.0f64; m];
    for &(x, y) in points {
        let mut powers = vec![1.0f64; m];
        for i in 1..m {
            powers[i] = powers[i - 1] * x;
        }
        for i in 0..m {
            aty[i] += powers[i] * y;
            for j in 0..m {
                ata[i][j] += powers[i] * powers[j];
            }
        }
    }
    solve_linear_system(&mut ata, &mut aty)
}

/// Solves `A x = b` in place via Gaussian elimination with partial pivoting.
fn solve_linear_system(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let mut pivot = col;
        for row in (col + 1)..n {
            if a[row][col].abs() > a[pivot][col].abs() {
                pivot = row;
            }
        }
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate. Split the rows so the pivot row can be read while the
        // later rows are updated, without cloning it per row.
        let (pivot_rows, rest) = a.split_at_mut(col + 1);
        let pivot_row = &pivot_rows[col];
        for (offset, row) in rest.iter_mut().enumerate() {
            let factor = row[col] / pivot_row[col];
            for (entry, pivot_entry) in row[col..n].iter_mut().zip(&pivot_row[col..n]) {
                *entry -= factor * pivot_entry;
            }
            b[col + 1 + offset] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0f64; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for col in (row + 1)..n {
            acc -= a[row][col] * x[col];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

/// Mean squared error between predictions and observations.
///
/// Returns 0 for empty inputs.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mean_squared_error(predicted: &[f64], observed: &[f64]) -> f64 {
    assert_eq!(
        predicted.len(),
        observed.len(),
        "MSE inputs must have equal length"
    );
    if predicted.is_empty() {
        return 0.0;
    }
    predicted
        .iter()
        .zip(observed)
        .map(|(p, o)| (p - o) * (p - o))
        .sum::<f64>()
        / predicted.len() as f64
}

/// Smallest representable value of the [`LogHistogram`] lattice (seconds,
/// when used for latencies): everything below lands in the underflow
/// bucket.
const LOG_HISTOGRAM_MIN: f64 = 1e-6;
/// Decades covered above [`LOG_HISTOGRAM_MIN`] (`1e-6 ..= 1e4`).
const LOG_HISTOGRAM_DECADES: usize = 10;
/// Buckets per decade. 16 per decade bounds the relative quantile error
/// at `10^(1/16) - 1 ≈ 15.5%` worst case (half that on average), which
/// `log_histogram_quantiles_track_exact_percentiles` checks against exact
/// percentiles.
const LOG_HISTOGRAM_PER_DECADE: usize = 16;
/// Interior bucket count (underflow and overflow buckets come on top).
const LOG_HISTOGRAM_BUCKETS: usize = LOG_HISTOGRAM_DECADES * LOG_HISTOGRAM_PER_DECADE;

/// Fixed-bucket log-scale histogram for positive, long-tailed samples
/// (decision latencies, span durations).
///
/// The bucket lattice is **static** — `16` buckets per decade over
/// `1e-6 ..= 1e4`, plus an underflow and an overflow bucket — so two
/// histograms built anywhere in the workspace can always be merged, and
/// pushing a sample is a `log10` plus an array increment (no allocation,
/// no sorting). Exact `min`/`max`/`sum` ride along; quantiles are
/// geometric interpolation inside the owning bucket, clamped to the
/// exact extremes, with bounded relative error (`< 10^(1/16) - 1`).
///
/// Shared by `MissionTelemetry` (p95/p99 decision latency), the mission
/// aggregates and the `roborun-trace` per-span-kind summary tables.
///
/// # Example
///
/// ```
/// use roborun_geom::LogHistogram;
/// let mut h = LogHistogram::new();
/// for i in 1..=1000 {
///     h.push(i as f64 * 1e-3);
/// }
/// let p50 = h.quantile(0.5).unwrap();
/// assert!((p50 - 0.5).abs() / 0.5 < 0.1, "p50 ≈ 0.5 s, got {p50}");
/// assert_eq!(h.count(), 1000);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogHistogram {
    /// `[underflow, 160 interior buckets, overflow]`.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; LOG_HISTOGRAM_BUCKETS + 2],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket index of `value`: 0 is underflow (everything below
    /// `1e-6`, including zeros and negatives), the last index is
    /// overflow (`>= 1e4`).
    fn bucket_index(value: f64) -> usize {
        if value < LOG_HISTOGRAM_MIN {
            return 0; // underflow (zeros and negatives included)
        }
        let position =
            (value.log10() - LOG_HISTOGRAM_MIN.log10()) * LOG_HISTOGRAM_PER_DECADE as f64;
        if position >= LOG_HISTOGRAM_BUCKETS as f64 {
            return LOG_HISTOGRAM_BUCKETS + 1;
        }
        1 + position as usize
    }

    /// The `(low, high)` value bounds of interior bucket `index`.
    fn bucket_bounds(index: usize) -> (f64, f64) {
        debug_assert!((1..=LOG_HISTOGRAM_BUCKETS).contains(&index));
        let exp = |i: usize| {
            LOG_HISTOGRAM_MIN.log10() + (i as f64 - 1.0) / LOG_HISTOGRAM_PER_DECADE as f64
        };
        (10f64.powf(exp(index)), 10f64.powf(exp(index + 1)))
    }

    /// Adds one observation. NaN samples are ignored (a NaN latency is a
    /// bug upstream, but it must not poison the whole summary).
    pub fn push(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        self.counts[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another histogram into this one (the lattice is static, so
    /// merging is an element-wise add).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when no observation has been pushed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact minimum observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `q`-quantile (`q` in `[0, 1]`), geometrically interpolated
    /// inside the owning bucket and clamped to the exact `[min, max]`.
    /// `None` when the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `[0, 1]` or NaN.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0, 1], got {q}"
        );
        if self.count == 0 {
            return None;
        }
        // Rank of the requested quantile, 1-based: the smallest rank r
        // such that at least r observations are <= the answer.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &bucket_count) in self.counts.iter().enumerate() {
            if bucket_count == 0 {
                continue;
            }
            if seen + bucket_count >= rank {
                let value = if index == 0 {
                    self.min
                } else if index == LOG_HISTOGRAM_BUCKETS + 1 {
                    self.max
                } else {
                    let (lo, hi) = Self::bucket_bounds(index);
                    // Geometric interpolation by the rank's position
                    // inside the bucket.
                    let inside = (rank - seen) as f64 / bucket_count as f64;
                    lo * (hi / lo).powf(inside)
                };
                return Some(value.clamp(self.min, self.max));
            }
            seen += bucket_count;
        }
        Some(self.max)
    }
}

impl Extend<f64> for LogHistogram {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for LogHistogram {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut h = LogHistogram::new();
        h.extend(iter);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basic() {
        let s: RunningStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn running_stats_empty() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn running_stats_merge_equals_combined() {
        let data = [1.0, 5.0, 2.0, 8.0, 3.0, 3.0, 9.0];
        let combined: RunningStats = data.into_iter().collect();
        let mut a: RunningStats = data[..3].iter().copied().collect();
        let b: RunningStats = data[3..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), combined.count());
        assert!((a.mean() - combined.mean()).abs() < 1e-12);
        assert!((a.variance() - combined.variance()).abs() < 1e-9);
        assert_eq!(a.min(), combined.min());
        assert_eq!(a.max(), combined.max());

        let mut empty = RunningStats::new();
        empty.merge(&combined);
        assert_eq!(empty.count(), combined.count());
        let mut c = combined;
        c.merge(&RunningStats::new());
        assert_eq!(c.count(), combined.count());
    }

    #[test]
    fn percentile_and_median() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&data, 0.0), Some(1.0));
        assert_eq!(percentile(&data, 1.0), Some(5.0));
        assert_eq!(median(&data), Some(3.0));
        assert_eq!(percentile(&data, 0.25), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&[42.0], 0.9), Some(42.0));
        // Interpolation between ranks.
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
    }

    #[test]
    #[should_panic(expected = "in [0,1]")]
    fn percentile_out_of_range_panics() {
        let _ = percentile(&[1.0], 1.5);
    }

    #[test]
    fn linear_fit_recovers_line() {
        let pts: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, 3.0 * i as f64 - 7.0)).collect();
        let (a, b) = linear_fit(&pts).unwrap();
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b + 7.0).abs() < 1e-9);
        assert!(linear_fit(&[(1.0, 1.0)]).is_none());
        assert!(linear_fit(&[(1.0, 1.0), (1.0, 2.0)]).is_none());
    }

    #[test]
    fn polyfit_recovers_quadratic() {
        let pts: Vec<(f64, f64)> = (-10..=10)
            .map(|i| {
                let x = i as f64 * 0.5;
                (x, 2.0 * x * x - 3.0 * x + 1.0)
            })
            .collect();
        let c = polyfit(&pts, 2).unwrap();
        assert!((c[0] - 1.0).abs() < 1e-6);
        assert!((c[1] + 3.0).abs() < 1e-6);
        assert!((c[2] - 2.0).abs() < 1e-6);
        assert!(polyfit(&pts[..2], 2).is_none());
    }

    #[test]
    fn polyfit_matches_paper_stopping_model_shape() {
        // Synthesise stopping distances from the magnitude-corrected Eq. 2
        // and confirm a degree-2 fit recovers the coefficients (the paper
        // reports a 2% MSE fit of this form).
        let pts: Vec<(f64, f64)> = (1..=20)
            .map(|i| {
                let v = i as f64 * 0.25;
                (v, 0.055 * v * v + 0.36 * v + 0.20)
            })
            .collect();
        let c = polyfit(&pts, 2).unwrap();
        assert!((c[0] - 0.20).abs() < 1e-6);
        assert!((c[1] - 0.36).abs() < 1e-6);
        assert!((c[2] - 0.055).abs() < 1e-6);
    }

    #[test]
    fn mse_behaviour() {
        assert_eq!(mean_squared_error(&[], &[]), 0.0);
        assert_eq!(mean_squared_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((mean_squared_error(&[0.0, 0.0], &[1.0, 3.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mse_length_mismatch_panics() {
        let _ = mean_squared_error(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn log_histogram_quantiles_track_exact_percentiles() {
        // A long-tailed sample: quantiles must land within the bucket
        // error bound of the exact answer everywhere.
        let data: Vec<f64> = (1..=5000).map(|i| 1e-3 * (i as f64).powf(1.3)).collect();
        let h: LogHistogram = data.iter().copied().collect();
        assert_eq!(h.count(), data.len() as u64);
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let exact = percentile(&data, q).unwrap();
            let approx = h.quantile(q).unwrap();
            let rel = (approx - exact).abs() / exact;
            assert!(
                rel < 0.16,
                "q={q}: histogram {approx} vs exact {exact} (rel err {rel})"
            );
        }
        assert_eq!(h.min(), Some(data[0]));
        assert_eq!(h.max(), Some(*data.last().unwrap()));
        assert!((h.sum() - data.iter().sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn log_histogram_handles_extremes_and_empty() {
        let mut h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        // Underflow (zero, negative), overflow, and NaN (ignored).
        h.push(0.0);
        h.push(-3.0);
        h.push(5e7);
        h.push(f64::NAN);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.0).unwrap(), -3.0);
        assert_eq!(h.quantile(1.0).unwrap(), 5e7);
        // All quantiles stay clamped inside the exact extremes.
        for q in [0.1, 0.5, 0.9] {
            let v = h.quantile(q).unwrap();
            assert!((-3.0..=5e7).contains(&v));
        }
    }

    #[test]
    fn log_histogram_merge_equals_single_pass() {
        let (a_data, b_data): (Vec<f64>, Vec<f64>) = (
            (1..=500).map(|i| i as f64 * 2e-4).collect(),
            (1..=500).map(|i| i as f64 * 3e-2).collect(),
        );
        let mut merged: LogHistogram = a_data.iter().copied().collect();
        let b: LogHistogram = b_data.iter().copied().collect();
        merged.merge(&b);
        let single: LogHistogram = a_data.iter().chain(&b_data).copied().collect();
        assert_eq!(merged, single);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn log_histogram_rejects_out_of_range_quantile() {
        let h: LogHistogram = [1.0].into_iter().collect();
        let _ = h.quantile(1.5);
    }
}
