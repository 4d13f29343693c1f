//! Workload allocation deviation (Figure 2's metric).
//!
//! Footnote 4 of the paper defines the deviation of a dispatching strategy
//! in an observation interval as `Σ_i (α_i − α'_i)²`, where `α_i` is the
//! fraction of jobs computer `c_i` *should* receive and `α'_i` the
//! fraction it *actually* received during the interval. A smooth
//! dispatcher keeps the deviation small in every interval; a random
//! dispatcher fluctuates widely. [`DeviationTracker`] slices time into
//! fixed-length intervals and reports one deviation value per interval.

/// Tracks per-interval workload allocation deviation.
#[derive(Debug, Clone)]
pub struct DeviationTracker {
    expected: Vec<f64>,
    interval: f64,
    /// Start time of the current interval.
    window_start: f64,
    counts: Vec<u64>,
    total: u64,
    deviations: Vec<f64>,
}

impl DeviationTracker {
    /// Creates a tracker for the given expected fractions and interval
    /// length (seconds).
    ///
    /// # Panics
    /// Panics if `expected` is empty, if any fraction is negative, if they
    /// do not sum to ≈ 1, or if `interval ≤ 0`.
    pub fn new(expected: &[f64], interval: f64, start: f64) -> Self {
        assert!(!expected.is_empty(), "need at least one computer");
        assert!(
            expected.iter().all(|&a| a >= 0.0),
            "fractions must be non-negative"
        );
        let sum: f64 = expected.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-6,
            "fractions must sum to 1, got {sum}"
        );
        assert!(interval > 0.0 && interval.is_finite(), "bad interval");
        DeviationTracker {
            expected: expected.to_vec(),
            interval,
            window_start: start,
            counts: vec![0; expected.len()],
            total: 0,
            deviations: Vec::new(),
        }
    }

    /// Records that a job was dispatched to `server` at time `now`.
    ///
    /// Closes out any intervals that ended before `now` first.
    pub fn record(&mut self, now: f64, server: usize) {
        self.advance_to(now);
        self.counts[server] += 1;
        self.total += 1;
    }

    /// Closes out intervals that end at or before `now`.
    pub fn advance_to(&mut self, now: f64) {
        while now >= self.window_start + self.interval {
            self.close_interval();
        }
    }

    fn close_interval(&mut self) {
        let dev = allocation_deviation(&self.expected, &self.counts, self.total);
        self.deviations.push(dev);
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.window_start += self.interval;
    }

    /// Deviations of all completed intervals, in time order.
    pub fn deviations(&self) -> &[f64] {
        &self.deviations
    }
}

/// Footnote 4's deviation `Σ_i (α_i − α'_i)²` of one interval in which
/// `counts[i]` of `total` dispatches went to computer `i`, against the
/// expected fractions `expected[i] = α_i`. With no dispatch every actual
/// fraction is 0, so the deviation is `Σ_i α_i²`.
pub fn allocation_deviation(expected: &[f64], counts: &[u64], total: u64) -> f64 {
    if total == 0 {
        return expected.iter().map(|a| a * a).sum();
    }
    let t = total as f64;
    expected
        .iter()
        .zip(counts)
        .map(|(&a, &c)| {
            let actual = c as f64 / t;
            (a - actual) * (a - actual)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_dispatch_has_zero_deviation() {
        // Two computers at 50/50, alternating dispatch.
        let mut t = DeviationTracker::new(&[0.5, 0.5], 10.0, 0.0);
        for i in 0..10 {
            t.record(i as f64, i % 2);
        }
        t.advance_to(10.0);
        assert_eq!(t.deviations().len(), 1);
        assert!(t.deviations()[0] < 1e-12);
    }

    #[test]
    fn one_sided_dispatch_has_max_deviation() {
        let mut t = DeviationTracker::new(&[0.5, 0.5], 10.0, 0.0);
        for i in 0..10 {
            t.record(i as f64, 0); // everything to computer 0
        }
        t.advance_to(10.0);
        // (0.5−1)² + (0.5−0)² = 0.5
        assert!((t.deviations()[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_interval_counts_full_expected_mass() {
        let mut t = DeviationTracker::new(&[0.3, 0.7], 5.0, 0.0);
        t.advance_to(5.0);
        // Σ α² = 0.09 + 0.49
        assert!((t.deviations()[0] - 0.58).abs() < 1e-12);
    }

    #[test]
    fn intervals_are_independent() {
        let mut t = DeviationTracker::new(&[0.5, 0.5], 10.0, 0.0);
        // Interval 1: perfect. Interval 2: one-sided.
        for i in 0..10 {
            t.record(i as f64, i % 2);
        }
        for i in 10..20 {
            t.record(i as f64, 0);
        }
        t.advance_to(20.0);
        assert_eq!(t.deviations().len(), 2);
        assert!(t.deviations()[0] < 1e-12);
        assert!((t.deviations()[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn late_arrival_closes_multiple_intervals() {
        let mut t = DeviationTracker::new(&[1.0, 0.0], 1.0, 0.0);
        t.record(0.5, 0);
        t.record(5.5, 0); // closes intervals [0,1), [1,2) ... [4,5)
        assert_eq!(t.deviations().len(), 5);
        assert!(t.deviations()[0] < 1e-12); // interval with the arrival
        assert!((t.deviations()[1] - 1.0).abs() < 1e-12); // empty: Σα² = 1
    }

    #[test]
    fn mean_and_max() {
        let mut t = DeviationTracker::new(&[0.5, 0.5], 10.0, 0.0);
        for i in 0..10 {
            t.record(i as f64, i % 2);
        }
        for i in 10..20 {
            t.record(i as f64, 0);
        }
        t.advance_to(20.0);
        let d = t.deviations();
        let mean = d.iter().sum::<f64>() / d.len() as f64;
        let max = d.iter().copied().fold(f64::MIN, f64::max);
        assert!((mean - 0.25).abs() < 1e-12);
        assert!((max - 0.5).abs() < 1e-12);
    }

    #[test]
    fn no_completed_interval_is_none() {
        let t = DeviationTracker::new(&[1.0], 100.0, 0.0);
        assert!(t.deviations().is_empty());
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_unnormalized_fractions() {
        DeviationTracker::new(&[0.5, 0.2], 1.0, 0.0);
    }

    #[test]
    fn start_offset_is_respected() {
        let mut t = DeviationTracker::new(&[1.0], 10.0, 100.0);
        t.record(105.0, 0);
        t.advance_to(110.0);
        assert_eq!(t.deviations().len(), 1);
        assert!(t.deviations()[0] < 1e-12);
    }
}
