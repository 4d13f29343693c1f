//! The heterogeneous system description.
//!
//! A [`HetSystem`] is the tuple `(s_1…s_n, μ, λ)` of Figure 1 of the
//! paper: `n` computers with relative speeds `s_i > 0`, a baseline job
//! service rate `μ` (so computer `i` serves at rate `s_iμ`), and a total
//! Poisson/renewal arrival rate `λ`. The system must not be saturated:
//! `λ < μ Σ s_i`.

use hetsched_error::HetschedError;

/// A network of heterogeneous computers fed by a central scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct HetSystem {
    speeds: Vec<f64>,
    mu: f64,
    lambda: f64,
}

impl HetSystem {
    /// Creates a system from explicit speeds, baseline rate and arrival
    /// rate.
    ///
    /// # Errors
    /// [`HetschedError::NoComputers`] for an empty speed list,
    /// [`HetschedError::BadParameter`] for a speed, `μ` or `λ` that is
    /// not positive and finite, and [`HetschedError::Saturated`] for
    /// `λ ≥ μ Σ s_i`: no allocation can stabilize an overloaded system.
    pub fn new(speeds: &[f64], mu: f64, lambda: f64) -> Result<Self, HetschedError> {
        if speeds.is_empty() {
            return Err(HetschedError::NoComputers);
        }
        let all_ok = speeds.iter().all(|&s| s.is_finite() && s > 0.0)
            && mu.is_finite()
            && mu > 0.0
            && lambda.is_finite()
            && lambda > 0.0;
        if !all_ok {
            return Err(bad_parameter());
        }
        let capacity: f64 = speeds.iter().sum::<f64>() * mu;
        if lambda >= capacity {
            return Err(HetschedError::Saturated);
        }
        Ok(HetSystem {
            speeds: speeds.to_vec(),
            mu,
            lambda,
        })
    }

    /// Creates a system from a target overall utilization
    /// `ρ = λ / (μ Σ s_i)` with `μ = 1`.
    ///
    /// The paper observes (§2.3) that the optimized allocation depends on
    /// the parameters only through `ρ` and the speeds, so this is the
    /// natural constructor for experiments.
    ///
    /// # Errors
    /// As [`HetSystem::new`]; a `ρ` outside `(0, 1)` is a
    /// [`HetschedError::BadParameter`].
    pub fn from_utilization(speeds: &[f64], rho: f64) -> Result<Self, HetschedError> {
        if !(rho.is_finite() && rho > 0.0 && rho < 1.0) {
            return Err(bad_parameter());
        }
        if speeds.is_empty() {
            return Err(HetschedError::NoComputers);
        }
        let total: f64 = speeds.iter().sum();
        HetSystem::new(speeds, 1.0, rho * total)
    }

    /// Relative computer speeds.
    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// Number of computers.
    pub fn len(&self) -> usize {
        self.speeds.len()
    }

    /// Whether the system has no computers (never true for a constructed
    /// system; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.speeds.is_empty()
    }

    /// Baseline service rate `μ`.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Total arrival rate `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Aggregate service capacity `μ Σ s_i`.
    pub fn capacity(&self) -> f64 {
        self.mu * self.total_speed()
    }

    /// Sum of relative speeds.
    pub fn total_speed(&self) -> f64 {
        self.speeds.iter().sum()
    }

    /// Overall utilization `ρ = λ / (μ Σ s_i)`.
    pub fn utilization(&self) -> f64 {
        self.lambda / self.capacity()
    }

    /// The *simple weighted* allocation: `α_i = s_i / Σ s_j` (§2.1).
    pub fn weighted_allocation(&self) -> Vec<f64> {
        let total = self.total_speed();
        self.speeds.iter().map(|s| s / total).collect()
    }
}

/// The error for a speed, `μ`, `λ` or `ρ` out of range.
fn bad_parameter() -> HetschedError {
    HetschedError::BadParameter("speeds, μ and λ must be positive and finite".into())
}

#[cfg(test)]
impl HetSystem {
    /// The *equal share* allocation: `α_i = 1/n` — the speed-blind
    /// baseline that plain round-robin implements (a test oracle).
    pub(crate) fn equal_allocation(&self) -> Vec<f64> {
        vec![1.0 / self.len() as f64; self.len()]
    }
}

/// Checks that an allocation vector is a valid probability vector that
/// keeps every computer of `sys` unsaturated: `Σα = 1`, `α_i ≥ 0`,
/// `α_iλ < s_iμ` (a test oracle).
#[cfg(test)]
pub(crate) fn validate_allocation(sys: &HetSystem, alphas: &[f64]) -> bool {
    if alphas.len() != sys.len() {
        return false;
    }
    let sum: f64 = alphas.iter().sum();
    if (sum - 1.0).abs() > 1e-9 {
        return false;
    }
    alphas
        .iter()
        .zip(sys.speeds())
        .all(|(&a, &s)| a >= -1e-12 && a * sys.lambda() < s * sys.mu())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let sys = HetSystem::new(&[1.0, 2.0, 3.0], 2.0, 5.0).unwrap();
        assert_eq!(sys.len(), 3);
        assert_eq!(sys.total_speed(), 6.0);
        assert_eq!(sys.capacity(), 12.0);
        assert!((sys.utilization() - 5.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn from_utilization_round_trips() {
        let sys = HetSystem::from_utilization(&[1.0, 1.5, 10.0], 0.7).unwrap();
        assert!((sys.utilization() - 0.7).abs() < 1e-12);
        assert_eq!(sys.mu(), 1.0);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            HetSystem::new(&[], 1.0, 0.5),
            Err(HetschedError::NoComputers)
        );
        assert_eq!(
            HetSystem::from_utilization(&[], 0.5),
            Err(HetschedError::NoComputers)
        );
    }

    #[test]
    fn rejects_bad_parameters() {
        for err in [
            HetSystem::new(&[1.0, -1.0], 1.0, 0.5),
            HetSystem::new(&[1.0], 0.0, 0.5),
            HetSystem::new(&[1.0], 1.0, f64::NAN),
            HetSystem::from_utilization(&[1.0], 1.0),
        ] {
            assert_eq!(
                err,
                Err(HetschedError::BadParameter(
                    "speeds, μ and λ must be positive and finite".into()
                ))
            );
        }
    }

    #[test]
    fn rejects_saturation() {
        assert_eq!(
            HetSystem::new(&[1.0, 1.0], 1.0, 2.0),
            Err(HetschedError::Saturated)
        );
        assert!(HetSystem::new(&[1.0, 1.0], 1.0, 1.999).is_ok());
    }

    #[test]
    fn weighted_allocation_is_proportional() {
        let sys = HetSystem::from_utilization(&[1.0, 3.0], 0.5).unwrap();
        let w = sys.weighted_allocation();
        assert!((w[0] - 0.25).abs() < 1e-12);
        assert!((w[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn equal_allocation_is_uniform() {
        let sys = HetSystem::from_utilization(&[1.0, 5.0, 9.0, 10.0], 0.5).unwrap();
        let e = sys.equal_allocation();
        assert!(e.iter().all(|&a| (a - 0.25).abs() < 1e-12));
    }

    #[test]
    fn validate_allocation_checks_everything() {
        let sys = HetSystem::from_utilization(&[1.0, 1.0], 0.9).unwrap();
        assert!(validate_allocation(&sys, &[0.5, 0.5]));
        assert!(!validate_allocation(&sys, &[0.6, 0.6])); // sum ≠ 1
        assert!(!validate_allocation(&sys, &[1.0, 0.0])); // saturates c1: 1·1.8 ≥ 1
        assert!(!validate_allocation(&sys, &[-0.1, 1.1])); // negative
        assert!(!validate_allocation(&sys, &[1.0])); // wrong length
    }
}
