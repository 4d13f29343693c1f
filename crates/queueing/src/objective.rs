//! The optimization objective (Definition 1) and system-level metrics
//! (eq. 3).
//!
//! Computer `i` is an M/M/1-PS queue with arrival rate `α_iλ` and
//! service rate `s_iμ`, so its mean response time is
//! `1 / (s_iμ − α_iλ)` (eq. 1) and, by PS insensitivity, depends on the
//! job-size distribution only through its mean. For an allocation
//! `{α_i}` the system's mean response time is
//!
//! ```text
//! T̄ = Σ_i α_i / (s_iμ − α_iλ)                               (eq. 3)
//!    = −n/λ + (1/λ) Σ_i s_iμ / (s_iμ − α_iλ)
//! ```
//!
//! so minimizing T̄ is equivalent to minimizing the paper's objective
//!
//! ```text
//! F(α_1…α_n) = Σ_i s_iμ / (s_iμ − α_iλ)                      (Def. 1)
//! ```
//!
//! and since `R̄ = μ T̄`, the same allocation also minimizes the mean
//! response ratio.

use crate::system::HetSystem;

/// Evaluates the objective `F(α…) = Σ s_iμ / (s_iμ − α_iλ)`.
///
/// Returns `None` if any computer would be saturated (`α_iλ ≥ s_iμ`) or
/// the allocation length mismatches.
pub fn objective_f(sys: &HetSystem, alphas: &[f64]) -> Option<f64> {
    if alphas.len() != sys.len() {
        return None;
    }
    let mut f = 0.0;
    for (&a, &s) in alphas.iter().zip(sys.speeds()) {
        let cap = s * sys.mu();
        let denom = cap - a * sys.lambda();
        if denom <= 0.0 {
            return None;
        }
        f += cap / denom;
    }
    Some(f)
}

/// The minimum of `F` when machines `1..=m` (ascending speed order, 0 ≤ m)
/// are cut off to zero: each contributes 1, and Theorem 1 applies to the
/// remainder. The tests' oracle for the cut-off allocation.
///
/// `sorted_speeds` must be ascending.
///
/// # Panics
/// Panics if every machine is cut off or the remainder is saturated.
#[cfg(test)]
pub(crate) fn cutoff_min_value(sorted_speeds: &[f64], mu: f64, lambda: f64, m: usize) -> f64 {
    assert!(m < sorted_speeds.len(), "cannot cut off every machine");
    let rest = &sorted_speeds[m..];
    let cap: f64 = rest.iter().sum::<f64>() * mu;
    assert!(lambda < cap, "remaining machines saturated");
    let sqrt_sum: f64 = rest.iter().map(|&s| (s * mu).sqrt()).sum();
    m as f64 + sqrt_sum * sqrt_sum / (cap - lambda)
}

/// System mean response time for an allocation (eq. 3):
/// `T̄ = Σ α_i / (s_iμ − α_iλ)`. `None` on saturation/mismatch.
pub fn mean_response_time(sys: &HetSystem, alphas: &[f64]) -> Option<f64> {
    if alphas.len() != sys.len() {
        return None;
    }
    let mut t = 0.0;
    for (&a, &s) in alphas.iter().zip(sys.speeds()) {
        if a == 0.0 {
            continue; // an unused machine contributes no jobs
        }
        let denom = s * sys.mu() - a * sys.lambda();
        if denom <= 0.0 || a < 0.0 {
            return None;
        }
        t += a / denom;
    }
    Some(t)
}

/// System mean response ratio: `R̄ = μ T̄`.
pub fn mean_response_ratio(sys: &HetSystem, alphas: &[f64]) -> Option<f64> {
    mean_response_time(sys, alphas).map(|t| t * sys.mu())
}

/// The analytic lower bound of `F` from Theorem 1 (no non-negativity
/// cutoff): `(Σ √(s_jμ))² / (Σ s_jμ − λ)` (a test oracle).
#[cfg(test)]
pub(crate) fn theorem1_min_value(sys: &HetSystem) -> f64 {
    let sqrt_sum: f64 = sys.speeds().iter().map(|&s| (s * sys.mu()).sqrt()).sum();
    sqrt_sum * sqrt_sum / (sys.capacity() - sys.lambda())
}

/// The gradient of `F` with respect to `α_i`:
/// `∂F/∂α_i = s_iμλ / (s_iμ − α_iλ)²`, for the numeric solver's KKT
/// check (a test oracle).
#[cfg(test)]
pub(crate) fn objective_gradient(sys: &HetSystem, alphas: &[f64]) -> Option<Vec<f64>> {
    if alphas.len() != sys.len() {
        return None;
    }
    let mut g = Vec::with_capacity(alphas.len());
    for (&a, &s) in alphas.iter().zip(sys.speeds()) {
        let cap = s * sys.mu();
        let denom = cap - a * sys.lambda();
        if denom <= 0.0 {
            return None;
        }
        g.push(cap * sys.lambda() / (denom * denom));
    }
    Some(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys2() -> HetSystem {
        HetSystem::new(&[1.0, 2.0], 1.0, 1.5).unwrap()
    }

    #[test]
    fn objective_matches_hand_computation() {
        let sys = sys2();
        // α = (1/3, 2/3): F = 1/(1−0.5) + 2/(2−1) = 2 + 2 = 4.
        let f = objective_f(&sys, &[1.0 / 3.0, 2.0 / 3.0]).unwrap();
        assert!((f - 4.0).abs() < 1e-12);
    }

    #[test]
    fn objective_rejects_saturating_allocation() {
        let sys = sys2();
        // α_1 = 0.7 ⇒ load 1.05 > capacity 1.
        assert_eq!(objective_f(&sys, &[0.7, 0.3]), None);
    }

    #[test]
    fn objective_rejects_length_mismatch() {
        assert_eq!(objective_f(&sys2(), &[1.0]), None);
    }

    #[test]
    fn mean_response_time_matches_identity() {
        // eq. 3 rewrite: T̄ = −n/λ + F/λ.
        let sys = sys2();
        let alphas = [0.25, 0.75];
        let t = mean_response_time(&sys, &alphas).unwrap();
        let f = objective_f(&sys, &alphas).unwrap();
        let identity = -(sys.len() as f64) / sys.lambda() + f / sys.lambda();
        assert!((t - identity).abs() < 1e-12, "{t} vs {identity}");
    }

    #[test]
    fn ratio_is_mu_times_time() {
        let sys = HetSystem::new(&[1.0, 4.0], 2.0, 3.0).unwrap();
        let alphas = [0.2, 0.8];
        let t = mean_response_time(&sys, &alphas).unwrap();
        let r = mean_response_ratio(&sys, &alphas).unwrap();
        assert!((r - 2.0 * t).abs() < 1e-12);
    }

    #[test]
    fn zero_alpha_machine_contributes_one_to_f() {
        let sys = sys2();
        let f = objective_f(&sys, &[0.0, 1.0]).unwrap();
        // F = 1 + 2/(2−1.5) = 1 + 4 = 5.
        assert!((f - 5.0).abs() < 1e-12);
    }

    #[test]
    fn zero_alpha_machine_excluded_from_response_time() {
        let sys = sys2();
        // Only the fast machine serves: T̄ = 1/(2−1.5) = 2.
        let t = mean_response_time(&sys, &[0.0, 1.0]).unwrap();
        assert!((t - 2.0).abs() < 1e-12);
    }

    #[test]
    fn theorem1_bound_is_below_any_interior_allocation() {
        let sys = HetSystem::from_utilization(&[1.0, 2.0, 5.0], 0.6).unwrap();
        let bound = theorem1_min_value(&sys);
        for alphas in [
            sys.weighted_allocation(),
            sys.equal_allocation(),
            vec![0.1, 0.2, 0.7],
        ] {
            // Allocations that saturate a machine (equal share can, on a
            // skewed system) are simply infeasible — skip them.
            let Some(f) = objective_f(&sys, &alphas) else {
                continue;
            };
            assert!(f >= bound - 1e-9, "F={f} below Theorem-1 bound {bound}");
        }
    }

    #[test]
    fn cutoff_min_value_counts_cut_machines() {
        let speeds = [1.0, 2.0, 4.0];
        let v0 = cutoff_min_value(&speeds, 1.0, 2.0, 0);
        let v1 = cutoff_min_value(&speeds, 1.0, 2.0, 1);
        // m = 1: 1 + (√2+√4)²/(6−2)
        let sqrt_sum = 2.0f64.sqrt() + 2.0;
        assert!((v1 - (1.0 + sqrt_sum * sqrt_sum / 4.0)).abs() < 1e-12);
        assert!(v0 > 0.0);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let sys = HetSystem::from_utilization(&[1.0, 3.0, 7.0], 0.7).unwrap();
        let alphas = [0.1, 0.3, 0.6];
        let g = objective_gradient(&sys, &alphas).unwrap();
        let h = 1e-7;
        for i in 0..3 {
            let mut up = alphas;
            up[i] += h;
            let df = (objective_f(&sys, &up).unwrap() - objective_f(&sys, &alphas).unwrap()) / h;
            assert!(
                (g[i] - df).abs() / df < 1e-4,
                "component {i}: analytic {} vs numeric {df}",
                g[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot cut off every machine")]
    fn cutoff_rejects_cutting_all() {
        cutoff_min_value(&[1.0], 1.0, 0.5, 1);
    }

    #[test]
    #[should_panic(expected = "remaining machines saturated")]
    fn cutoff_rejects_a_saturated_remainder() {
        cutoff_min_value(&[1.0, 2.0], 1.0, 2.5, 1);
    }
}
