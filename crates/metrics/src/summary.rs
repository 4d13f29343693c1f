//! Replication summaries.
//!
//! The paper's methodology (§4.1): each data point is the average of 10
//! independent runs. [`CiSummary`] aggregates one scalar metric across
//! replications into `mean ± 95% CI` using Student-t critical values.

use crate::tdist::t_quantile_975;
use crate::welford::Welford;

/// Mean ± 95% confidence interval across replications of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CiSummary {
    /// Number of replications.
    pub n: u64,
    /// Mean across replications.
    pub mean: f64,
    /// 95% confidence half-width (0 for a single replication).
    pub half_width: f64,
}

hetsched_json::json_struct!(CiSummary {
    n,
    mean,
    half_width
});

impl CiSummary {
    /// Aggregates per-replication values.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn from_values(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "need at least one replication");
        let w: Welford = values.iter().copied().collect();
        let half_width = if w.count() < 2 {
            0.0
        } else {
            t_quantile_975(w.count() - 1) * w.std_error()
        };
        CiSummary {
            n: w.count(),
            mean: w.mean(),
            half_width,
        }
    }

    /// The "metric not recorded" sentinel (`n = 0`): the JSON default
    /// for summaries added after results were first saved, so old
    /// result files still load.
    pub fn absent() -> Self {
        CiSummary {
            n: 0,
            mean: 0.0,
            half_width: 0.0,
        }
    }
}

impl std::fmt::Display for CiSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} ± {:.4}", self.mean, self.half_width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_single_value_has_zero_width() {
        let ci = CiSummary::from_values(&[5.0]);
        assert_eq!(ci.mean, 5.0);
        assert_eq!(ci.half_width, 0.0);
        assert!(ci.mean - ci.half_width <= 5.0 && 5.0 <= ci.mean + ci.half_width);
    }

    #[test]
    fn ci_ten_replications_uses_t9() {
        // Symmetric values around 10 with known spread.
        let values: Vec<f64> = (0..10).map(|i| 10.0 + (i as f64 - 4.5)).collect();
        let ci = CiSummary::from_values(&values);
        assert_eq!(ci.n, 10);
        assert!((ci.mean - 10.0).abs() < 1e-12);
        // s = sqrt(Σ(i−4.5)²/9) = sqrt(82.5/9); hw = 2.262·s/√10
        let s = (82.5f64 / 9.0).sqrt();
        let expected = 2.262 * s / 10f64.sqrt();
        assert!((ci.half_width - expected).abs() < 1e-9);
    }

    #[test]
    fn interval_bounds_and_contains() {
        let ci = CiSummary {
            n: 5,
            mean: 10.0,
            half_width: 2.0,
        };
        let (lo, hi) = (ci.mean - ci.half_width, ci.mean + ci.half_width);
        assert_eq!(lo, 8.0);
        assert_eq!(hi, 12.0);
        assert!((lo..=hi).contains(&9.0));
        assert!(!(lo..=hi).contains(&12.5));
    }

    #[test]
    fn display_formats() {
        let ci = CiSummary {
            n: 3,
            mean: 1.23456,
            half_width: 0.1,
        };
        assert_eq!(format!("{ci}"), "1.2346 ± 0.1000");
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn rejects_empty_values() {
        CiSummary::from_values(&[]);
    }
}
