//! # hetsched-dist — workload distributions with analytic moments
//!
//! The simulation model of the paper (§4.1) is built from two stochastic
//! ingredients:
//!
//! * **Job sizes** follow a Bounded Pareto distribution
//!   `B(k = 10 s, p = 21600 s, α = 1.0)` — heavy-tailed, mean ≈ 76.8 s —
//!   reflecting the empirical finding that "a small number of very large
//!   jobs make up a significant fraction of the total load".
//! * **Inter-arrival times** follow a two-stage hyperexponential
//!   distribution with coefficient of variation (CV) 3.0, modelling the
//!   burstiness observed in Zhou's trace (CV ≈ 2.64).
//!
//! Every distribution here exposes both a sampler ([`Sample`]) and its
//! analytic moments ([`Moments`]), because the optimized allocation scheme
//! and the analytic validation tests need exact means/variances, not
//! estimates. Distributions are plain-old-data, written as JSON via
//! [`DistSpec`], and sample exclusively through the deterministic
//! `Rng64` streams of the simulation kernel (`hetsched_desim::rng`).
//!
//! Arrival *processes* (stateful generators of inter-arrival times) live in
//! [`arrivals`]; in addition to i.i.d. renewal processes the module offers
//! a two-state Markov-modulated Poisson process used by the burstiness
//! ablation experiments.

#![warn(missing_docs)]

pub mod arrivals;
pub mod bounded_pareto;
pub mod deterministic;
pub mod exponential;
pub mod hyperexp;
pub mod lognormal;
pub mod math;
pub mod spec;
pub mod uniform;
pub mod weibull;

pub use arrivals::{ArrivalProcess, IidArrivals, MmppArrivals};
pub use bounded_pareto::BoundedPareto;
pub use deterministic::Deterministic;
pub use exponential::Exponential;
pub use hyperexp::Hyperexp2;
pub use lognormal::LogNormal;
pub use spec::{BuiltDist, DistSpec, SpeedupCurve};
pub use uniform::Uniform;
pub use weibull::Weibull;

use hetsched_desim::Rng64;

/// A distribution that can draw samples.
pub trait Sample {
    /// Draws one sample.
    fn sample(&self, rng: &mut Rng64) -> f64;
}

/// A distribution with known analytic moments.
pub trait Moments {
    /// The mean `E[X]`.
    fn mean(&self) -> f64;

    /// The raw second moment `E[X²]`.
    fn second_moment(&self) -> f64;

    /// The variance `E[X²] − E[X]²`.
    fn variance(&self) -> f64 {
        let m = self.mean();
        (self.second_moment() - m * m).max(0.0)
    }

    /// The coefficient of variation `σ / E[X]`.
    fn cv(&self) -> f64 {
        self.variance().sqrt() / self.mean()
    }

    /// The squared coefficient of variation `σ² / E[X]²`.
    fn scv(&self) -> f64 {
        self.variance() / (self.mean() * self.mean())
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Draws `n` samples and checks the empirical mean and CV against the
    /// analytic values within relative tolerances.
    pub fn check_moments<D: Sample + Moments>(
        dist: &D,
        seed: u64,
        n: usize,
        mean_rtol: f64,
        cv_rtol: f64,
    ) {
        let mut rng = Rng64::from_seed(seed);
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = dist.sample(&mut rng);
            assert!(x.is_finite(), "sample must be finite");
            sum += x;
            sumsq += x * x;
        }
        let m = sum / n as f64;
        let var = (sumsq / n as f64 - m * m).max(0.0);
        let cv = var.sqrt() / m;
        let em = dist.mean();
        let ecv = dist.cv();
        assert!(
            (m - em).abs() / em < mean_rtol,
            "empirical mean {m} vs analytic {em}"
        );
        if ecv > 0.0 {
            assert!(
                (cv - ecv).abs() / ecv < cv_rtol,
                "empirical cv {cv} vs analytic {ecv}"
            );
        } else {
            assert!(cv < 1e-9, "expected zero cv, got {cv}");
        }
    }
}
