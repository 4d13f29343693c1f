//! Workload allocation schemes.
//!
//! An allocation scheme turns (speeds, estimated utilization) into the
//! fractions `{α_i}` a static dispatcher realizes. The paper's §5.4 also
//! studies what happens when the utilization estimate is wrong, so the
//! optimized scheme carries a relative estimation error: `Optimized
//! { rho_error: 0.10 }` computes the allocation for `1.1·ρ` — the paper's
//! "ORR(+10%)".

use hetsched_error::HetschedError;
use hetsched_queueing::closed_form::try_optimized_allocation_for;

/// Declarative allocation scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AllocationSpec {
    /// Equal split `α_i = 1/n` (speed-blind; what plain round-robin or
    /// uniform random dispatching implements).
    Equal,
    /// Simple weighted: `α_i = s_i / Σ s_j` (§2.1).
    Weighted,
    /// The paper's optimized allocation (Algorithm 1), computed for
    /// `ρ·(1 + rho_error)`. `rho_error = 0` is perfect knowledge;
    /// positive values overestimate, negative underestimate (§5.4).
    Optimized {
        /// Relative error on the utilization estimate.
        rho_error: f64,
    },
}

hetsched_json::json_tagged_enum!(AllocationSpec {
    Equal,
    Weighted,
    Optimized { rho_error },
});

impl AllocationSpec {
    /// The optimized scheme with perfect load knowledge.
    pub fn optimized() -> Self {
        AllocationSpec::Optimized { rho_error: 0.0 }
    }

    /// Computes the fractions for the given speeds and *true* utilization.
    ///
    /// When the (possibly mis-estimated) utilization reaches 1 the
    /// optimized scheme degenerates to the weighted scheme, mirroring the
    /// paper's footnote 7 ("ORR converges with WRR as utilization
    /// approaches 100%").
    ///
    /// # Errors
    /// [`HetschedError::NoComputers`] if `speeds` is empty,
    /// [`HetschedError::BadParameter`] if a speed is not positive and
    /// finite or `rho ∉ (0, 1)`, and for the optimized scheme whatever
    /// [`try_optimized_allocation_for`] refuses.
    pub fn fractions(&self, speeds: &[f64], rho: f64) -> Result<Vec<f64>, HetschedError> {
        if speeds.is_empty() {
            return Err(HetschedError::NoComputers);
        }
        if !speeds.iter().all(|&s| s.is_finite() && s > 0.0) {
            return Err(HetschedError::BadParameter(
                "speeds must be positive".into(),
            ));
        }
        if !(rho.is_finite() && rho > 0.0 && rho < 1.0) {
            return Err(HetschedError::BadParameter(format!(
                "utilization must lie in (0,1), got {rho}"
            )));
        }
        Ok(match *self {
            AllocationSpec::Equal => vec![1.0 / speeds.len() as f64; speeds.len()],
            AllocationSpec::Weighted => weighted(speeds),
            AllocationSpec::Optimized { rho_error } => {
                let est = rho * (1.0 + rho_error);
                if est >= 1.0 {
                    weighted(speeds)
                } else if est <= 0.0 {
                    // A nonsensical estimate of an idle system: all load
                    // to the fastest machines — realize the ρ→0 limit.
                    try_optimized_allocation_for(speeds, 1e-6)?
                } else {
                    try_optimized_allocation_for(speeds, est)?
                }
            }
        })
    }

    /// Short name used in policy labels.
    pub fn tag(&self) -> String {
        match *self {
            AllocationSpec::Optimized { rho_error } if rho_error != 0.0 => {
                format!("O({:+.0}%)", rho_error * 100.0)
            }
            _ => self
                .fixed_tag()
                .expect("only an estimate error needs formatting")
                .into(),
        }
    }

    /// The tag when no load-estimate error has to be formatted into it.
    pub(crate) fn fixed_tag(&self) -> Option<&'static str> {
        match *self {
            AllocationSpec::Equal => Some("E"),
            AllocationSpec::Weighted => Some("W"),
            AllocationSpec::Optimized { rho_error } => (rho_error == 0.0).then_some("O"),
        }
    }
}

fn weighted(speeds: &[f64]) -> Vec<f64> {
    let total: f64 = speeds.iter().sum();
    speeds.iter().map(|s| s / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEEDS: [f64; 4] = [1.0, 2.0, 3.0, 10.0];

    fn is_prob_vector(v: &[f64]) {
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{v:?}");
        assert!(v.iter().all(|&a| (0.0..=1.0).contains(&a)), "{v:?}");
    }

    #[test]
    fn equal_split() {
        let f = AllocationSpec::Equal.fractions(&SPEEDS, 0.7).unwrap();
        is_prob_vector(&f);
        assert!(f.iter().all(|&a| (a - 0.25).abs() < 1e-12));
    }

    #[test]
    fn weighted_split() {
        let f = AllocationSpec::Weighted.fractions(&SPEEDS, 0.7).unwrap();
        is_prob_vector(&f);
        assert!((f[3] - 10.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_ignores_rho() {
        let a = AllocationSpec::Weighted.fractions(&SPEEDS, 0.3).unwrap();
        let b = AllocationSpec::Weighted.fractions(&SPEEDS, 0.9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn optimized_skews_to_fast_machines() {
        let opt = AllocationSpec::optimized().fractions(&SPEEDS, 0.5).unwrap();
        let w = AllocationSpec::Weighted.fractions(&SPEEDS, 0.5).unwrap();
        is_prob_vector(&opt);
        assert!(opt[3] > w[3]);
        assert!(opt[0] < w[0]);
    }

    #[test]
    fn overestimate_is_more_conservative() {
        // §5.4: overestimation pushes the allocation toward weighted.
        let exact = AllocationSpec::optimized().fractions(&SPEEDS, 0.6).unwrap();
        let over = AllocationSpec::Optimized { rho_error: 0.15 }
            .fractions(&SPEEDS, 0.6)
            .unwrap();
        let w = AllocationSpec::Weighted.fractions(&SPEEDS, 0.6).unwrap();
        // Fast machine share: exact ≥ over ≥ weighted.
        assert!(exact[3] >= over[3] - 1e-12);
        assert!(over[3] >= w[3] - 1e-12);
    }

    #[test]
    fn underestimate_is_more_aggressive() {
        let exact = AllocationSpec::optimized().fractions(&SPEEDS, 0.6).unwrap();
        let under = AllocationSpec::Optimized { rho_error: -0.15 }
            .fractions(&SPEEDS, 0.6)
            .unwrap();
        assert!(under[3] >= exact[3] - 1e-12);
    }

    #[test]
    fn estimate_at_or_above_one_degenerates_to_weighted() {
        // ρ = 0.9, +15% ⇒ estimate 1.035 ≥ 1 ⇒ weighted (footnote 7).
        let f = AllocationSpec::Optimized { rho_error: 0.15 }
            .fractions(&SPEEDS, 0.9)
            .unwrap();
        let w = AllocationSpec::Weighted.fractions(&SPEEDS, 0.9).unwrap();
        for (a, b) in f.iter().zip(&w) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn tags() {
        assert_eq!(AllocationSpec::Equal.tag(), "E");
        assert_eq!(AllocationSpec::Weighted.tag(), "W");
        assert_eq!(AllocationSpec::optimized().tag(), "O");
        assert_eq!(
            AllocationSpec::Optimized { rho_error: 0.10 }.tag(),
            "O(+10%)"
        );
        assert_eq!(
            AllocationSpec::Optimized { rho_error: -0.05 }.tag(),
            "O(-5%)"
        );
    }

    #[test]
    fn rejects_bad_rho() {
        match AllocationSpec::Weighted.fractions(&SPEEDS, 0.0) {
            Err(HetschedError::BadParameter(msg)) => {
                assert!(msg.contains("utilization must lie in (0,1)"), "{msg}")
            }
            other => panic!("expected a BadParameter, got {other:?}"),
        }
    }

    #[test]
    fn rejects_empty_speeds() {
        assert_eq!(
            AllocationSpec::Weighted.fractions(&[], 0.5),
            Err(HetschedError::NoComputers)
        );
    }
}
