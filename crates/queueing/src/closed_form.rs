//! Algorithm 1: the closed-form optimized workload allocation.
//!
//! Theorem 1 gives the unconstrained-sign optimum
//!
//! ```text
//! α_i = (1/λ) ( s_iμ − √(s_iμ) · (Σ_j s_jμ − λ) / (Σ_j √(s_jμ)) )
//! ```
//!
//! which can be negative for very slow machines. Theorem 2 shows the
//! optimum under `α_i ≥ 0` sets exactly those machines to zero: the ones
//! with `√(s_iμ) < (Σ_{j≥i} s_jμ − λ) / (Σ_{j≥i} √(s_jμ))` in ascending
//! speed order — a *contiguous* prefix, so the cutoff index `m` can be
//! found by binary search (Algorithm 1, steps 4–5). The surviving
//! machines share the load by Theorem 1 restricted to the suffix.
//!
//! The qualitative behaviour reproduced here is the paper's headline:
//! fast machines get a **disproportionately** large share; at low load
//! slow machines get *nothing*; as `ρ → 1` the scheme converges to the
//! simple weighted allocation.

use crate::system::HetSystem;
use hetsched_error::HetschedError;

/// `(Σ s·μ, Σ √(s·μ))` over `speeds`, each summed left to right. One
/// pass runs both dependency chains side by side, so the two sums cost
/// the latency of one.
fn capacity_sums(speeds: &[f64], mu: f64) -> (f64, f64) {
    let (mut cap, mut sqrt_sum) = (0.0, 0.0);
    for &s in speeds {
        cap += s * mu;
        sqrt_sum += (s * mu).sqrt();
    }
    (cap, sqrt_sum)
}

/// The Theorem-2 cutoff predicate for 0-based index `i` into the
/// ascending-speed array: machine `i` should be cut off iff
/// `√(s_iμ) < (Σ_{j≥i} s_jμ − λ) / (Σ_{j≥i} √(s_jμ))`.
fn should_cut(sorted: &[f64], mu: f64, lambda: f64, i: usize) -> bool {
    let (cap, sqrt_sum) = capacity_sums(&sorted[i..], mu);
    (sorted[i] * mu).sqrt() < (cap - lambda) / sqrt_sum
}

/// Finds the number of machines to cut off (the paper's `m`) by binary
/// search over the ascending-speed array, exactly as Algorithm 1 steps
/// 3–5.
fn cutoff_binary_search(sorted: &[f64], mu: f64, lambda: f64) -> usize {
    // 0-based translation of the paper's 1-based search: find the number
    // of leading indices satisfying the predicate.
    let mut lower = 0usize; // candidate index, inclusive
    let mut upper = sorted.len(); // exclusive
    while lower < upper {
        let mid = (lower + upper) / 2;
        if should_cut(sorted, mu, lambda, mid) {
            lower = mid + 1;
        } else {
            upper = mid;
        }
    }
    lower
}

/// The smallest utilization [`try_optimized_allocation_for`] solves at.
///
/// Each fraction is `(sμ − √(sμ)·c) / λ`: as `ρ → 0` both terms of the
/// difference approach `sμ` while `λ = ρ·Σsμ` shrinks, so the rounding
/// of the terms (relative `ε ≈ 2.2·10⁻¹⁶`) costs the fractions about
/// `ε/ρ` of relative accuracy. At this floor that is ~2·10⁻¹⁰, inside the
/// `10⁻⁹` their sum must come within of 1; at `ρ = 10⁻⁸` the sum already
/// misses by more, and below `ρ ≈ 10⁻¹⁶` the difference cancels to 0.
/// It is also the `ρ → 0` limit [`try_optimized_allocation_for`]'s
/// callers realize for an idle system.
pub const MIN_UTILIZATION: f64 = 1e-6;

/// How far the unnormalized fractions may sum from 1 before the closed
/// form counts as ill-conditioned.
const SUM_TOLERANCE: f64 = 1e-9;

/// Computes the optimized workload allocation for `sys` (Algorithm 1).
///
/// Returns the fractions in the *original* speed order (the paper sorts
/// internally; we restore the caller's order). The result satisfies
/// `Σα = 1`, `α_i ≥ 0`, and `α_iλ < s_iμ` for every machine.
pub fn optimized_allocation(sys: &HetSystem) -> Vec<f64> {
    let (mut alphas, sum) = unnormalized_allocation(sys);
    debug_assert!(
        (sum - 1.0).abs() < SUM_TOLERANCE,
        "allocation sum {sum} far from 1"
    );
    normalize(&mut alphas, sum);
    alphas
}

/// The fractions sum to 1 analytically; dividing by their sum removes
/// the rounding so downstream dispatchers can rely on `Σα = 1` exactly.
fn normalize(alphas: &mut [f64], sum: f64) {
    for a in alphas {
        *a /= sum;
    }
}

/// Algorithm 1's fractions before normalization, and their sum.
fn unnormalized_allocation(sys: &HetSystem) -> (Vec<f64>, f64) {
    let n = sys.len();
    let mu = sys.mu();
    let lambda = sys.lambda();

    // Step 2: sort speeds ascending, remembering original positions.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        sys.speeds()[a]
            .partial_cmp(&sys.speeds()[b])
            .expect("speeds are finite")
    });
    let sorted: Vec<f64> = order.iter().map(|&i| sys.speeds()[i]).collect();

    // Steps 3–5: locate the cutoff.
    let m = cutoff_binary_search(&sorted, mu, lambda);
    debug_assert!(m < n, "cutoff must leave at least one machine");

    // Steps 6–7: zero the slow prefix, closed form for the suffix.
    let (cap, sqrt_sum) = capacity_sums(&sorted[m..], mu);
    let c = (cap - lambda) / sqrt_sum;

    let mut alphas = vec![0.0; n];
    for (k, &orig) in order.iter().enumerate() {
        if k < m {
            continue;
        }
        let s = sorted[k];
        let a = (s * mu - (s * mu).sqrt() * c) / lambda;
        // Clamp float dust at the boundary (machines exactly at the
        // cutoff get α = 0 analytically).
        alphas[orig] = a.max(0.0);
    }

    let sum: f64 = alphas.iter().sum();
    (alphas, sum)
}

/// Convenience wrapper: optimized allocation for speeds at a target
/// utilization (`μ = 1`), the exact signature of the paper's Algorithm 1.
///
/// ```
/// use hetsched_queueing::closed_form::optimized_allocation_for;
///
/// // A 1x and a 10x machine at 50% utilization: the optimized scheme
/// // sends almost everything to the fast machine...
/// let alphas = optimized_allocation_for(&[1.0, 10.0], 0.5);
/// assert!(alphas[1] > 0.93);
/// // ...while the proportional split would send it only 10/11 ≈ 0.91.
/// assert!((alphas[0] + alphas[1] - 1.0).abs() < 1e-12);
///
/// // At very light load the slow machine is cut off entirely (Thm. 2).
/// let light = optimized_allocation_for(&[1.0, 10.0], 0.1);
/// assert_eq!(light[0], 0.0);
/// ```
///
/// # Panics
/// Panics if the parameters are invalid (empty speeds, `ρ ∉ (0,1)`).
/// Use [`try_optimized_allocation_for`] for a panic-free variant.
pub fn optimized_allocation_for(speeds: &[f64], rho: f64) -> Vec<f64> {
    let sys = HetSystem::from_utilization(speeds, rho)
        .expect("invalid speeds/utilization for Algorithm 1");
    optimized_allocation(&sys)
}

/// Panic-free Algorithm 1 with explicit guards for every degenerate
/// input a degraded cluster can produce: no computers, zero/negative or
/// non-finite speeds, and a utilization outside `(0, 1)` (including the
/// saturated case `ρ ≥ 1` a shrunken live subset can reach). A
/// single-computer system trivially gets the whole workload.
///
/// # Errors
/// * [`HetschedError::NoComputers`] — `speeds` is empty (e.g. every
///   server failed);
/// * [`HetschedError::BadParameter`] — a speed is not positive and
///   finite, `ρ ≤ 0` or non-finite, or (for two or more computers) `ρ`
///   is below [`MIN_UTILIZATION`], where the closed form loses its
///   accuracy to cancellation;
/// * [`HetschedError::Saturated`] — `ρ ≥ 1`: no stabilizing allocation
///   exists;
/// * [`HetschedError::Solver`] — the unnormalized fractions sum further
///   than `10⁻⁹` from 1, or to a non-finite value: the closed form is
///   ill-conditioned for this fleet even above the floor (each summed
///   speed adds its own rounding).
pub fn try_optimized_allocation_for(speeds: &[f64], rho: f64) -> Result<Vec<f64>, HetschedError> {
    if speeds.is_empty() {
        return Err(HetschedError::NoComputers);
    }
    for (i, &s) in speeds.iter().enumerate() {
        if !(s.is_finite() && s > 0.0) {
            return Err(HetschedError::BadParameter(format!(
                "speed[{i}] must be positive and finite, got {s}"
            )));
        }
    }
    if !(rho.is_finite() && rho > 0.0) {
        return Err(HetschedError::BadParameter(format!(
            "utilization must lie in (0,1), got {rho}"
        )));
    }
    if rho >= 1.0 {
        return Err(HetschedError::Saturated);
    }
    if speeds.len() == 1 {
        return Ok(vec![1.0]);
    }
    if rho < MIN_UTILIZATION {
        return Err(HetschedError::BadParameter(format!(
            "utilization {rho} is below {MIN_UTILIZATION}, where Algorithm 1's closed form \
             loses its accuracy to cancellation"
        )));
    }
    let sys = HetSystem::from_utilization(speeds, rho)?;
    let (mut alphas, sum) = unnormalized_allocation(&sys);
    // Each fraction is clamped at 0, which maps a NaN to 0, so a finite
    // sum near 1 leaves every normalized fraction finite.
    if !sum.is_finite() || (sum - 1.0).abs() >= SUM_TOLERANCE {
        return Err(HetschedError::Solver(format!(
            "closed form is ill-conditioned for speeds {speeds:?} at rho {rho}: \
             the fractions sum to {sum}"
        )));
    }
    normalize(&mut alphas, sum);
    Ok(alphas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{cutoff_min_value, objective_f, theorem1_min_value};
    use crate::system::validate_allocation;
    use hetsched_desim::check::cases;

    /// Reference linear-scan cutoff (used to property-test the binary
    /// search and the contiguity claim of footnote 3).
    fn cutoff_linear_scan(sorted: &[f64], mu: f64, lambda: f64) -> usize {
        let mut m = 0;
        for i in 0..sorted.len() {
            if should_cut(sorted, mu, lambda, i) {
                m = i + 1;
            }
        }
        m
    }

    #[test]
    fn homogeneous_system_gets_equal_shares() {
        let sys = HetSystem::from_utilization(&[2.0, 2.0, 2.0, 2.0], 0.7).unwrap();
        let a = optimized_allocation(&sys);
        for &x in &a {
            assert!((x - 0.25).abs() < 1e-12, "{a:?}");
        }
    }

    #[test]
    fn allocation_is_valid_probability_vector() {
        let sys = HetSystem::from_utilization(&[1.0, 1.5, 2.0, 3.0, 5.0, 9.0, 10.0], 0.7).unwrap();
        let a = optimized_allocation(&sys);
        assert!(validate_allocation(&sys, &a), "{a:?}");
    }

    #[test]
    fn fast_machines_get_disproportionate_share() {
        // The paper's core claim (§2.3): optimized allocation is more
        // skewed than proportional.
        let sys = HetSystem::from_utilization(&[1.0, 10.0], 0.5).unwrap();
        let opt = optimized_allocation(&sys);
        let w = sys.weighted_allocation();
        assert!(
            opt[1] > w[1],
            "fast machine: optimized {} ≤ weighted {}",
            opt[1],
            w[1]
        );
        assert!(opt[0] < w[0]);
    }

    #[test]
    fn slow_machines_cut_off_at_low_load() {
        // At ρ = 0.2 with a 20:1 speed ratio, the slow machines should
        // receive zero workload.
        let speeds = [1.0, 1.0, 20.0];
        let sys = HetSystem::from_utilization(&speeds, 0.2).unwrap();
        let a = optimized_allocation(&sys);
        assert_eq!(a[0], 0.0, "{a:?}");
        assert_eq!(a[1], 0.0, "{a:?}");
        assert!((a[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_cutoff_at_high_load() {
        let speeds = [1.0, 1.0, 20.0];
        let sys = HetSystem::from_utilization(&speeds, 0.95).unwrap();
        let a = optimized_allocation(&sys);
        assert!(a.iter().all(|&x| x > 0.0), "{a:?}");
    }

    #[test]
    fn converges_to_weighted_as_load_approaches_one() {
        // §2.3: "When the system utilization approaches 100%, the
        // optimized allocation scheme degenerates to the simple weighted
        // scheme."
        let speeds = [1.0, 2.0, 5.0, 10.0];
        let sys = HetSystem::from_utilization(&speeds, 0.9999).unwrap();
        let a = optimized_allocation(&sys);
        let w = sys.weighted_allocation();
        for (x, y) in a.iter().zip(&w) {
            assert!((x - y).abs() < 1e-3, "{a:?} vs {w:?}");
        }
    }

    #[test]
    fn more_skewed_at_lower_load() {
        // §2.2: "The distribution of workload becomes even more skewed
        // when the system utilization decreases."
        let speeds = [1.0, 10.0];
        let lo = optimized_allocation_for(&speeds, 0.3);
        let hi = optimized_allocation_for(&speeds, 0.9);
        assert!(
            lo[1] > hi[1],
            "fast share at ρ=0.3 ({}) should exceed ρ=0.9 ({})",
            lo[1],
            hi[1]
        );
    }

    #[test]
    fn original_order_is_preserved() {
        // Speeds deliberately unsorted: result must align by index.
        let sys = HetSystem::from_utilization(&[10.0, 1.0, 5.0], 0.8).unwrap();
        let a = optimized_allocation(&sys);
        assert!(a[0] > a[2] && a[2] > a[1], "{a:?}");
    }

    #[test]
    fn matches_theorem1_value_without_cutoff() {
        let sys = HetSystem::from_utilization(&[4.0, 5.0, 6.0], 0.8).unwrap();
        let a = optimized_allocation(&sys);
        assert!(a.iter().all(|&x| x > 0.0), "no machine should be cut");
        let f = objective_f(&sys, &a).unwrap();
        let bound = theorem1_min_value(&sys);
        assert!((f - bound).abs() / bound < 1e-9, "F={f}, bound={bound}");
    }

    #[test]
    fn matches_cutoff_value_with_cutoff() {
        let speeds = [1.0, 1.0, 20.0];
        let sys = HetSystem::from_utilization(&speeds, 0.2).unwrap();
        let a = optimized_allocation(&sys);
        let f = objective_f(&sys, &a).unwrap();
        let mut sorted = speeds.to_vec();
        sorted.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let bound = cutoff_min_value(&sorted, sys.mu(), sys.lambda(), 2);
        assert!((f - bound).abs() / bound < 1e-9, "F={f}, bound={bound}");
    }

    #[test]
    fn beats_weighted_and_equal_everywhere() {
        for &rho in &[0.1, 0.3, 0.5, 0.7, 0.9] {
            let sys = HetSystem::from_utilization(&[1.0, 1.5, 2.0, 5.0, 10.0, 12.0], rho).unwrap();
            let f_opt = objective_f(&sys, &optimized_allocation(&sys)).unwrap();
            let f_w = objective_f(&sys, &sys.weighted_allocation()).unwrap();
            assert!(f_opt <= f_w + 1e-9, "ρ={rho}: opt {f_opt} > weighted {f_w}");
            if let Some(f_e) = objective_f(&sys, &sys.equal_allocation()) {
                assert!(f_opt <= f_e + 1e-9, "ρ={rho}: opt {f_opt} > equal {f_e}");
            }
        }
    }

    #[test]
    fn local_perturbations_do_not_improve() {
        // Move ε of workload between every machine pair with α_i > 0 and
        // verify F does not decrease — first-order optimality.
        let sys = HetSystem::from_utilization(&[1.0, 2.0, 3.0, 8.0], 0.6).unwrap();
        let a = optimized_allocation(&sys);
        let f0 = objective_f(&sys, &a).unwrap();
        let eps = 1e-6;
        for i in 0..a.len() {
            for j in 0..a.len() {
                if i == j || a[i] < eps {
                    continue;
                }
                let mut b = a.clone();
                b[i] -= eps;
                b[j] += eps;
                if let Some(f) = objective_f(&sys, &b) {
                    assert!(
                        f >= f0 - 1e-12,
                        "moving {eps} from {i} to {j} improved F: {f} < {f0}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_machine_gets_everything() {
        let sys = HetSystem::from_utilization(&[3.0], 0.7).unwrap();
        assert_eq!(optimized_allocation(&sys), vec![1.0]);
    }

    #[test]
    fn binary_search_equals_linear_scan_on_examples() {
        let cases: [(&[f64], f64); 5] = [
            (&[1.0, 1.0, 20.0], 0.2),
            (&[1.0, 1.5, 2.0, 3.0, 5.0, 9.0, 10.0], 0.7),
            (&[1.0, 1.0, 1.0], 0.5),
            (&[1.0, 2.0, 4.0, 8.0, 16.0], 0.1),
            (&[5.0, 5.0, 5.0, 100.0], 0.05),
        ];
        for (speeds, rho) in cases {
            let sys = HetSystem::from_utilization(speeds, rho).unwrap();
            let mut sorted = speeds.to_vec();
            sorted.sort_by(|x, y| x.partial_cmp(y).unwrap());
            assert_eq!(
                cutoff_binary_search(&sorted, sys.mu(), sys.lambda()),
                cutoff_linear_scan(&sorted, sys.mu(), sys.lambda()),
                "speeds {speeds:?} ρ={rho}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid speeds/utilization")]
    fn wrapper_rejects_bad_rho() {
        optimized_allocation_for(&[1.0], 1.5);
    }

    #[test]
    fn try_variant_guards_degenerate_inputs() {
        use hetsched_error::HetschedError;
        assert_eq!(
            try_optimized_allocation_for(&[], 0.5),
            Err(HetschedError::NoComputers)
        );
        assert_eq!(
            try_optimized_allocation_for(&[1.0, 2.0], 1.0),
            Err(HetschedError::Saturated)
        );
        assert_eq!(
            try_optimized_allocation_for(&[1.0, 2.0], 1.5),
            Err(HetschedError::Saturated)
        );
        assert!(matches!(
            try_optimized_allocation_for(&[1.0, 0.0], 0.5),
            Err(HetschedError::BadParameter(_))
        ));
        assert!(matches!(
            try_optimized_allocation_for(&[1.0, f64::NAN], 0.5),
            Err(HetschedError::BadParameter(_))
        ));
        assert!(matches!(
            try_optimized_allocation_for(&[1.0], -0.2),
            Err(HetschedError::BadParameter(_))
        ));
        // A single-computer cluster is fine: it gets everything.
        assert_eq!(try_optimized_allocation_for(&[3.0], 0.7), Ok(vec![1.0]));
    }

    #[test]
    fn try_variant_matches_panicking_wrapper() {
        let speeds = [1.0, 1.5, 2.0, 3.0, 5.0, 9.0, 10.0];
        let a = try_optimized_allocation_for(&speeds, 0.7).unwrap();
        assert_eq!(a, optimized_allocation_for(&speeds, 0.7));
    }

    /// The closed form always yields a feasible allocation.
    #[test]
    fn always_feasible() {
        cases("always_feasible", 256, |g| {
            let speeds = g.vec(1..12, |g| g.draw(0.1..50.0));
            let rho = g.draw(0.02..0.98);
            let sys = HetSystem::from_utilization(&speeds, rho).unwrap();
            let a = optimized_allocation(&sys);
            assert!(validate_allocation(&sys, &a), "{a:?}");
        });
    }

    /// The binary-search cutoff agrees with the linear scan — i.e.
    /// the cut-off prefix really is contiguous (footnote 3).
    #[test]
    fn cutoff_search_agrees() {
        cases("cutoff_search_agrees", 256, |g| {
            let speeds = g.vec(1..12, |g| g.draw(0.1..50.0));
            let rho = g.draw(0.02..0.98);
            let sys = HetSystem::from_utilization(&speeds, rho).unwrap();
            let mut sorted = speeds.clone();
            sorted.sort_by(|x, y| x.partial_cmp(y).unwrap());
            assert_eq!(
                cutoff_binary_search(&sorted, sys.mu(), sys.lambda()),
                cutoff_linear_scan(&sorted, sys.mu(), sys.lambda())
            );
        });
    }

    /// The closed form never loses to proportional or equal splitting.
    #[test]
    fn never_worse_than_baselines() {
        cases("never_worse_than_baselines", 256, |g| {
            let speeds = g.vec(1..12, |g| g.draw(0.1..50.0));
            let rho = g.draw(0.02..0.98);
            let sys = HetSystem::from_utilization(&speeds, rho).unwrap();
            let f_opt = objective_f(&sys, &optimized_allocation(&sys)).unwrap();
            let f_w = objective_f(&sys, &sys.weighted_allocation()).unwrap();
            assert!(f_opt <= f_w * (1.0 + 1e-9));
        });
    }

    /// Panic-free allocation over random heterogeneous fleets and
    /// random up/down subsets (the failure-aware re-optimization
    /// path): on success the fractions sum to 1, are non-negative
    /// and contain no NaNs; otherwise the error is descriptive, not
    /// a panic.
    #[test]
    fn try_allocation_over_random_subsets() {
        cases("try_allocation_over_random_subsets", 256, |g| {
            let speeds = g.vec(1..16, |g| g.draw(0.01..100.0));
            let up = g.vec(16, |g| g.bool());
            let rho = g.draw(0.02..0.98);
            // Restrict to the live subset the way a failure-aware
            // dispatcher would; the subset may be empty.
            let live: Vec<f64> = speeds
                .iter()
                .zip(&up)
                .filter_map(|(&s, &u)| u.then_some(s))
                .collect();
            // Scale rho as the re-optimizer does: the full fleet's
            // arrival rate lands on the surviving capacity.
            let total: f64 = speeds.iter().sum();
            let live_total: f64 = live.iter().sum();
            let rho_live = if live_total > 0.0 {
                rho * total / live_total
            } else {
                rho
            };
            match try_optimized_allocation_for(&live, rho_live) {
                Ok(a) => {
                    assert_eq!(a.len(), live.len());
                    assert!(a.iter().all(|x| x.is_finite() && *x >= 0.0), "{:?}", a);
                    let sum: f64 = a.iter().sum();
                    assert!((sum - 1.0).abs() < 1e-9, "sum {}", sum);
                }
                Err(e) => {
                    // Only the expected degeneracies may be reported.
                    use hetsched_error::HetschedError;
                    assert!(
                        matches!(e, HetschedError::NoComputers | HetschedError::Saturated),
                        "unexpected error {e:?}"
                    );
                }
            }
        });
    }
}
