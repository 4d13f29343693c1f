//! Small special-function toolbox.
//!
//! Only what the distributions need: `ln Γ(x)` (Lanczos) for Weibull
//! moments. Implemented here so the workspace stays free of numerics
//! dependencies.

/// Natural log of the Gamma function, via the Lanczos approximation
/// (g = 7, n = 9 coefficients; absolute error below 1e-13 for x > 0).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients for g = 7.
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps precision for small x.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// The Gamma function `Γ(x)` for `x > 0`.
pub fn gamma(x: f64) -> f64 {
    ln_gamma(x).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_at_integers_is_factorial() {
        // Γ(n) = (n-1)!
        let facts = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (n, &f) in facts.iter().enumerate() {
            let g = gamma((n + 1) as f64);
            assert!(
                (g - f).abs() / f < 1e-10,
                "Γ({}) = {g}, expected {f}",
                n + 1
            );
        }
    }

    #[test]
    fn gamma_half_is_sqrt_pi() {
        let g = gamma(0.5);
        let expected = std::f64::consts::PI.sqrt();
        assert!((g - expected).abs() < 1e-10, "Γ(1/2) = {g}");
    }

    #[test]
    fn gamma_recurrence() {
        // Γ(x+1) = x Γ(x)
        for &x in &[0.3, 1.7, 2.5, 4.9, 10.1] {
            let lhs = gamma(x + 1.0);
            let rhs = x * gamma(x);
            assert!((lhs - rhs).abs() / rhs < 1e-10, "recurrence fails at {x}");
        }
    }

    #[test]
    #[should_panic(expected = "requires x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }
}
