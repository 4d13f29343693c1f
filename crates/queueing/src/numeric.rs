//! Independent numerical solver (dual bisection / water-filling).
//!
//! The KKT stationarity condition for minimizing `F` over the simplex is
//! that every machine with `α_i > 0` has equal marginal cost
//! `∂F/∂α_i = s_iμλ / (s_iμ − α_iλ)² = ν`, and machines pinned at zero
//! have a *higher* marginal. Solving for `α_i` gives
//!
//! ```text
//! α_i(c) = max(0, (s_iμ − c·√(s_iμ)) / λ),   c = √(λ/ν) ≥ 0
//! ```
//!
//! and `Σ_i α_i(c)` is continuous and strictly decreasing in `c` wherever
//! it is positive, so the multiplier `c` solving `Σα_i(c) = 1` is found by
//! bisection. This derivation never references Theorems 1–2, which makes
//! it a genuinely independent cross-check of Algorithm 1 — the property
//! tests require the two solvers to agree to ~1e-10.

use crate::system::HetSystem;

/// Water-filling allocation at multiplier `c`.
fn alphas_at(sys: &HetSystem, c: f64) -> Vec<f64> {
    sys.speeds()
        .iter()
        .map(|&s| {
            let cap = s * sys.mu();
            ((cap - c * cap.sqrt()) / sys.lambda()).max(0.0)
        })
        .collect()
}

/// Total allocated fraction at multiplier `c`.
fn total_at(sys: &HetSystem, c: f64) -> f64 {
    alphas_at(sys, c).iter().sum()
}

/// Solves the allocation problem numerically by bisection on the KKT
/// multiplier. `tol` bounds the absolute error on `Σα − 1` (and hence on
/// each fraction).
///
/// # Panics
/// Panics if `tol` is not a small positive number.
pub fn optimized_allocation_numeric(sys: &HetSystem, tol: f64) -> Vec<f64> {
    assert!(tol > 0.0 && tol < 0.1, "tolerance must be in (0, 0.1)");
    // At c = 0 every machine takes its full capacity: Σα = 1/ρ > 1.
    // For c ≥ max √(s_iμ) every α clamps to 0 (the bracket is widened by
    // a hair so `√(cap)² < cap` rounding cannot leave a sliver positive).
    let mut lo = 0.0;
    let mut hi = sys
        .speeds()
        .iter()
        .map(|&s| (s * sys.mu()).sqrt())
        .fold(0.0f64, f64::max)
        * (1.0 + 1e-9);
    debug_assert!(
        total_at(sys, lo) > 1.0,
        "unsaturated system overallocates at c=0"
    );
    debug_assert!(total_at(sys, hi) < 1.0);

    // 200 halvings shrink the bracket below any representable tolerance,
    // but exit early once the allocation total is within tol.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let t = total_at(sys, mid);
        if (t - 1.0).abs() < tol * 1e-3 {
            lo = mid;
            hi = mid;
            break;
        }
        if t > 1.0 {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < f64::EPSILON * hi.max(1.0) {
            break;
        }
    }
    let mut alphas = alphas_at(sys, 0.5 * (lo + hi));
    // Exact renormalization (bisection leaves O(tol) slack).
    let sum: f64 = alphas.iter().sum();
    debug_assert!(
        (sum - 1.0).abs() < tol,
        "bisection did not converge: Σα = {sum}"
    );
    for a in &mut alphas {
        *a /= sum;
    }
    alphas
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_form::optimized_allocation;
    use crate::objective::objective_f;
    use crate::system::validate_allocation;
    use hetsched_desim::check::cases;

    const TOL: f64 = 1e-10;

    #[test]
    fn agrees_with_closed_form_on_paper_config() {
        // Table 3's base configuration at ρ = 0.7.
        let speeds = [
            1.0, 1.0, 1.0, 1.0, 1.0, 1.5, 1.5, 1.5, 1.5, 2.0, 2.0, 2.0, 5.0, 10.0, 12.0,
        ];
        let sys = HetSystem::from_utilization(&speeds, 0.7).unwrap();
        let a = optimized_allocation(&sys);
        let b = optimized_allocation_numeric(&sys, TOL);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-8, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn agrees_when_cutoff_active() {
        let sys = HetSystem::from_utilization(&[1.0, 1.0, 20.0], 0.2).unwrap();
        let a = optimized_allocation(&sys);
        let b = optimized_allocation_numeric(&sys, TOL);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-8, "{a:?} vs {b:?}");
        }
        assert_eq!(b[0], 0.0);
        assert_eq!(b[1], 0.0);
    }

    #[test]
    fn result_is_feasible() {
        let sys = HetSystem::from_utilization(&[1.0, 2.0, 3.0, 4.0], 0.85).unwrap();
        let b = optimized_allocation_numeric(&sys, TOL);
        assert!(validate_allocation(&sys, &b), "{b:?}");
    }

    #[test]
    fn kkt_marginals_are_equal_on_support() {
        let sys = HetSystem::from_utilization(&[1.0, 3.0, 9.0], 0.6).unwrap();
        let a = optimized_allocation_numeric(&sys, TOL);
        let g = crate::objective::objective_gradient(&sys, &a).unwrap();
        let active: Vec<f64> = a
            .iter()
            .zip(&g)
            .filter(|(&ai, _)| ai > 1e-9)
            .map(|(_, &gi)| gi)
            .collect();
        let first = active[0];
        for &gi in &active {
            assert!((gi - first).abs() / first < 1e-5, "marginals differ: {g:?}");
        }
        // Machines at zero must have marginal ≥ the common value.
        for (&ai, &gi) in a.iter().zip(&g) {
            if ai <= 1e-9 {
                assert!(gi >= first - 1e-6, "zero machine with low marginal");
            }
        }
    }

    /// Closed form and numeric solver agree on `speeds` at load `rho`.
    fn assert_solvers_agree(speeds: &[f64], rho: f64) {
        let sys = HetSystem::from_utilization(speeds, rho).unwrap();
        let a = optimized_allocation(&sys);
        let b = optimized_allocation_numeric(&sys, TOL);
        let fa = objective_f(&sys, &a).unwrap();
        let fb = objective_f(&sys, &b).unwrap();
        // Objective values must coincide tightly…
        assert!((fa - fb).abs() / fa < 1e-8, "F: {fa} vs {fb}");
        // …and so must the fractions themselves.
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6, "{:?} vs {:?}", a, b);
        }
    }

    /// Closed form and numeric solver agree across the space — the
    /// key cross-validation of Algorithm 1.
    #[test]
    fn solvers_agree() {
        cases("solvers_agree", 200, |g| {
            let speeds = g.vec(1..12, |g| g.draw(0.1..50.0));
            let rho = g.draw(0.02..0.98);
            assert_solvers_agree(&speeds, rho);
        });
    }

    /// A recorded failure of `solvers_agree`: one fast computer at the
    /// lightest load the property draws.
    #[test]
    fn solvers_agree_on_one_fast_computer_at_light_load() {
        assert_solvers_agree(&[35.530191223471064], 0.02);
    }
}
