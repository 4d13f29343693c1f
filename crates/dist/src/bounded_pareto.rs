//! Bounded Pareto distribution `B(k, p, α)`.
//!
//! The paper's job-size distribution (§4.1), following Harchol-Balter,
//! Crovella & Murta. The density is
//!
//! ```text
//! f(x) = α k^α / (1 − (k/p)^α) · x^(−α−1),   k ≤ x ≤ p
//! ```
//!
//! with lower bound `k`, upper bound `p`, and tail index `α` controlling
//! variability. The paper's defaults are `k = 10 s`, `p = 21600 s`,
//! `α = 1.0`, for which the mean is ≈ 76.8 s — a small number of very large
//! jobs carries a large fraction of the load.
//!
//! Moments have removable singularities at `α = 1` (mean) and `α = 2`
//! (second moment); the closed forms below handle all cases explicitly and
//! the tests pin the paper's 76.8 s figure.

use hetsched_desim::Rng64;

use crate::{Moments, Sample};

/// Bounded Pareto `B(k, p, α)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    k: f64,
    p: f64,
    alpha: f64,
}

impl BoundedPareto {
    /// Creates `B(k, p, α)`.
    ///
    /// # Panics
    /// Panics unless `0 < k < p` and `α > 0`, all finite.
    pub fn new(k: f64, p: f64, alpha: f64) -> Self {
        assert!(
            k.is_finite() && p.is_finite() && alpha.is_finite(),
            "Bounded Pareto parameters must be finite"
        );
        assert!(k > 0.0, "lower bound k must be positive, got {k}");
        assert!(p > k, "upper bound p={p} must exceed lower bound k={k}");
        assert!(alpha > 0.0, "tail index α must be positive, got {alpha}");
        BoundedPareto { k, p, alpha }
    }

    /// The paper's default job-size distribution: `B(10, 21600, 1.0)`,
    /// mean ≈ 76.8 s.
    pub fn paper_default() -> Self {
        BoundedPareto::new(10.0, 21600.0, 1.0)
    }

    /// Lower bound `k`.
    pub fn lower(&self) -> f64 {
        self.k
    }

    /// Upper bound `p`.
    pub fn upper(&self) -> f64 {
        self.p
    }

    /// Tail index `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// `1 − (k/p)^α`, the truncation normalizer.
    #[inline]
    fn normalizer(&self) -> f64 {
        1.0 - (self.k / self.p).powf(self.alpha)
    }

    /// The raw moment `E[X^r]` for any real order `r`.
    ///
    /// Closed form with the removable singularity at `r = α` handled via
    /// the logarithmic limit.
    pub fn raw_moment(&self, r: f64) -> f64 {
        let a = self.alpha;
        let norm = self.normalizer();
        if (r - a).abs() < 1e-12 {
            // ∫ x^r f(x) dx with r = α: α k^α ln(p/k) / norm.
            a * self.k.powf(a) * (self.p / self.k).ln() / norm
        } else {
            a * self.k.powf(a) * (self.p.powf(r - a) - self.k.powf(r - a)) / ((r - a) * norm)
        }
    }

    /// Partial expectation `E[X · 1{X ≤ x}]` — the load carried by jobs no
    /// larger than `x`. Used by the SITA-E baseline to equalize load across
    /// size intervals.
    pub fn partial_mean(&self, x: f64) -> f64 {
        let x = x.clamp(self.k, self.p);
        let a = self.alpha;
        let norm = self.normalizer();
        if (1.0 - a).abs() < 1e-12 {
            a * self.k.powf(a) * (x / self.k).ln() / norm
        } else {
            a * self.k.powf(a) * (x.powf(1.0 - a) - self.k.powf(1.0 - a)) / ((1.0 - a) * norm)
        }
    }
}

impl Sample for BoundedPareto {
    /// Inverse-CDF sampling:
    /// `x = k / (1 − u·(1 − (k/p)^α))^(1/α)` with `u ~ U[0,1)`.
    #[inline]
    fn sample(&self, rng: &mut Rng64) -> f64 {
        let u = rng.next_f64();
        let x = self.k / (1.0 - u * self.normalizer()).powf(1.0 / self.alpha);
        // Guard the upper edge against floating-point overshoot.
        x.min(self.p)
    }
}

impl Moments for BoundedPareto {
    fn mean(&self) -> f64 {
        self.raw_moment(1.0)
    }

    fn second_moment(&self) -> f64 {
        self.raw_moment(2.0)
    }
}

#[cfg(test)]
impl BoundedPareto {
    /// The CDF `F(x)` (a test oracle for the sampler and the median).
    pub(crate) fn cdf(&self, x: f64) -> f64 {
        if x <= self.k {
            0.0
        } else if x >= self.p {
            1.0
        } else {
            (1.0 - (self.k / x).powf(self.alpha)) / self.normalizer()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::check_moments;
    use hetsched_desim::check::cases;

    #[test]
    fn paper_default_mean_is_76_8() {
        // §4.1: "Under this setting, the average job size is 76.8 seconds."
        let d = BoundedPareto::paper_default();
        assert!(
            (d.mean() - 76.8).abs() < 0.05,
            "mean {} should be ≈ 76.8 s",
            d.mean()
        );
    }

    #[test]
    fn mean_alpha_one_closed_form() {
        // For α = 1: E[X] = k·ln(p/k) / (1 − k/p).
        let d = BoundedPareto::new(10.0, 21600.0, 1.0);
        let expected = 10.0 * (21600.0f64 / 10.0).ln() / (1.0 - 10.0 / 21600.0);
        assert!((d.mean() - expected).abs() < 1e-9);
    }

    #[test]
    fn second_moment_alpha_two_singularity() {
        // α = 2 hits the removable singularity of E[X²].
        let d = BoundedPareto::new(1.0, 100.0, 2.0);
        // E[X²] = 2·k²·ln(p/k) / (1 − (k/p)²)
        let expected = 2.0 * (100.0f64).ln() / (1.0 - 1e-4);
        assert!(
            (d.second_moment() - expected).abs() / expected < 1e-9,
            "got {}",
            d.second_moment()
        );
    }

    #[test]
    fn cdf_properties() {
        let d = BoundedPareto::paper_default();
        assert_eq!(d.cdf(0.0), 0.0);
        assert_eq!(d.cdf(10.0), 0.0);
        assert_eq!(d.cdf(30000.0), 1.0);
        assert!(d.cdf(100.0) > d.cdf(50.0));
        // Median sanity for α=1: F(x) = (1−k/x)/norm.
        let norm = 1.0 - 10.0 / 21600.0;
        let median = 10.0 / (1.0 - 0.5 * norm);
        assert!((d.cdf(median) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn samples_are_in_bounds() {
        let d = BoundedPareto::paper_default();
        let mut rng = Rng64::from_seed(7);
        for _ in 0..100_000 {
            let x = d.sample(&mut rng);
            assert!((10.0..=21600.0).contains(&x), "sample {x} out of bounds");
        }
    }

    #[test]
    fn sampling_matches_mean() {
        // Heavy tail ⇒ slow CV convergence; check the mean only, with a
        // generous tolerance and many samples.
        check_moments(&BoundedPareto::paper_default(), 303, 2_000_000, 0.03, 0.5);
    }

    #[test]
    fn partial_mean_endpoints() {
        let d = BoundedPareto::paper_default();
        assert!(d.partial_mean(10.0).abs() < 1e-12);
        assert!((d.partial_mean(21600.0) - d.mean()).abs() / d.mean() < 1e-9);
        // Monotone in x.
        assert!(d.partial_mean(100.0) < d.partial_mean(1000.0));
    }

    #[test]
    fn heavy_tail_carries_most_load() {
        // §4.1: "A small number of very large jobs make up a significant
        // fraction of the total load." With α = 1 the top 1% of sizes must
        // carry a large load share.
        let d = BoundedPareto::paper_default();
        let norm = 1.0 - 10.0 / 21600.0;
        let x99 = 10.0 / (1.0 - 0.99 * norm); // 99th percentile size
        let load_below = d.partial_mean(x99) / d.mean();
        assert!(
            load_below < 0.65,
            "99% of jobs should carry < 65% of load, got {load_below}"
        );
    }

    #[test]
    #[should_panic(expected = "must exceed lower bound")]
    fn rejects_inverted_bounds() {
        BoundedPareto::new(10.0, 5.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "α must be positive")]
    fn rejects_zero_alpha() {
        BoundedPareto::new(1.0, 2.0, 0.0);
    }

    /// Inverse-CDF sampling round-trips through the CDF: the CDF of a
    /// sample is uniform, so its mean over many draws is ≈ 1/2.
    #[test]
    fn probability_integral_transform() {
        cases("probability_integral_transform", 256, |g| {
            let k = g.draw(0.5..10.0);
            let ratio = g.draw(2.0..1e4);
            let alpha = g.draw(0.4..3.0);
            let d = BoundedPareto::new(k, k * ratio, alpha);
            let mut rng = Rng64::from_seed(99);
            let n = 4000;
            let mean_u: f64 = (0..n).map(|_| d.cdf(d.sample(&mut rng))).sum::<f64>() / n as f64;
            assert!((mean_u - 0.5).abs() < 0.05, "mean CDF {mean_u}");
        });
    }

    /// Analytic mean always lies within the support.
    #[test]
    fn mean_within_support() {
        cases("mean_within_support", 256, |g| {
            let k = g.draw(0.5..10.0);
            let ratio = g.draw(1.5..1e4);
            let alpha = g.draw(0.3..4.0);
            let d = BoundedPareto::new(k, k * ratio, alpha);
            let m = d.mean();
            assert!(m > d.lower() && m < d.upper(), "mean {m}");
        });
    }
}
