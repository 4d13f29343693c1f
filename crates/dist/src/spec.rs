//! Serializable distribution specifications.
//!
//! Experiment configurations (and the JSON reports the bench harness
//! emits) need to name distributions declaratively. [`DistSpec`] is the
//! JSON-friendly description; [`DistSpec::build`] turns it into a
//! [`BuiltDist`] that implements [`Sample`] and [`Moments`] by enum
//! dispatch — no trait objects, so the hot sampling path stays inlinable.

use hetsched_desim::Rng64;
use hetsched_error::HetschedError;

use crate::{
    BoundedPareto, Deterministic, Exponential, Hyperexp2, LogNormal, Moments, Sample, Uniform,
    Weibull,
};

/// Declarative description of a distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DistSpec {
    /// Exponential with the given mean.
    Exponential {
        /// Mean value.
        mean: f64,
    },
    /// Two-stage hyperexponential with the given mean and CV ≥ 1
    /// (balanced means).
    Hyperexp2 {
        /// Mean value.
        mean: f64,
        /// Coefficient of variation (≥ 1).
        cv: f64,
    },
    /// Bounded Pareto `B(k, p, α)`.
    BoundedPareto {
        /// Lower bound of the support.
        k: f64,
        /// Upper bound of the support.
        p: f64,
        /// Tail index.
        alpha: f64,
    },
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Point mass.
    Deterministic {
        /// The constant value.
        value: f64,
    },
    /// Weibull with target mean and shape.
    Weibull {
        /// Mean value.
        mean: f64,
        /// Shape parameter (shape < 1 is sub-exponential).
        shape: f64,
    },
    /// Lognormal with target mean and CV.
    LogNormal {
        /// Mean value.
        mean: f64,
        /// Coefficient of variation.
        cv: f64,
    },
}

hetsched_json::json_tagged_enum!(DistSpec {
    Exponential { mean },
    Hyperexp2 { mean, cv },
    BoundedPareto { k, p, alpha },
    Uniform { lo, hi },
    Deterministic { value },
    Weibull { mean, shape },
    LogNormal { mean, cv },
});

impl DistSpec {
    /// The paper's default job-size distribution (§4.1).
    pub fn paper_job_sizes() -> Self {
        DistSpec::BoundedPareto {
            k: 10.0,
            p: 21600.0,
            alpha: 1.0,
        }
    }

    /// Checks the parameters [`build`](Self::build) needs: every
    /// distribution describes a duration, so means, bounds and the
    /// point mass must be positive and finite (a uniform may start at
    /// zero), a hyperexponential needs `cv ≥ 1` and a lognormal
    /// `cv ≥ 0`.
    ///
    /// # Errors
    /// [`HetschedError::InvalidConfig`] naming `field`, the config
    /// field that holds the spec.
    pub fn validate(&self, field: &str) -> Result<(), HetschedError> {
        let ok = match *self {
            DistSpec::Exponential { mean } => mean.is_finite() && mean > 0.0,
            DistSpec::Hyperexp2 { mean, cv } => {
                mean.is_finite() && mean > 0.0 && cv.is_finite() && cv >= 1.0
            }
            DistSpec::BoundedPareto { k, p, alpha } => {
                k.is_finite()
                    && k > 0.0
                    && p.is_finite()
                    && p > k
                    && alpha.is_finite()
                    && alpha > 0.0
            }
            DistSpec::Uniform { lo, hi } => {
                lo.is_finite() && lo >= 0.0 && hi.is_finite() && hi > lo
            }
            DistSpec::Deterministic { value } => value.is_finite() && value > 0.0,
            DistSpec::Weibull { mean, shape } => {
                mean.is_finite() && mean > 0.0 && shape.is_finite() && shape > 0.0
            }
            DistSpec::LogNormal { mean, cv } => {
                mean.is_finite() && mean > 0.0 && cv.is_finite() && cv >= 0.0
            }
        };
        if ok {
            Ok(())
        } else {
            Err(HetschedError::InvalidConfig(format!(
                "{field} has invalid parameters: {self:?}"
            )))
        }
    }

    /// Materializes the spec into a sampler with analytic moments.
    ///
    /// # Panics
    /// Panics with the [`validate`](Self::validate) error if the
    /// parameters are invalid.
    pub fn build(self) -> BuiltDist {
        if let Err(e) = self.validate("distribution spec") {
            panic!("{e}");
        }
        match self {
            DistSpec::Exponential { mean } => BuiltDist::Exponential(Exponential::from_mean(mean)),
            DistSpec::Hyperexp2 { mean, cv } => {
                BuiltDist::Hyperexp2(Hyperexp2::from_mean_cv(mean, cv))
            }
            DistSpec::BoundedPareto { k, p, alpha } => {
                BuiltDist::BoundedPareto(BoundedPareto::new(k, p, alpha))
            }
            DistSpec::Uniform { lo, hi } => BuiltDist::Uniform(Uniform::new(lo, hi)),
            DistSpec::Deterministic { value } => {
                BuiltDist::Deterministic(Deterministic::new(value))
            }
            DistSpec::Weibull { mean, shape } => {
                BuiltDist::Weibull(Weibull::from_mean_shape(mean, shape))
            }
            DistSpec::LogNormal { mean, cv } => {
                BuiltDist::LogNormal(LogNormal::from_mean_cv(mean, cv))
            }
        }
    }
}

/// A materialized [`DistSpec`]: concrete distribution behind enum dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BuiltDist {
    /// See [`Exponential`].
    Exponential(Exponential),
    /// See [`Hyperexp2`].
    Hyperexp2(Hyperexp2),
    /// See [`BoundedPareto`].
    BoundedPareto(BoundedPareto),
    /// See [`Uniform`].
    Uniform(Uniform),
    /// See [`Deterministic`].
    Deterministic(Deterministic),
    /// See [`Weibull`].
    Weibull(Weibull),
    /// See [`LogNormal`].
    LogNormal(LogNormal),
}

macro_rules! dispatch {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            BuiltDist::Exponential($inner) => $body,
            BuiltDist::Hyperexp2($inner) => $body,
            BuiltDist::BoundedPareto($inner) => $body,
            BuiltDist::Uniform($inner) => $body,
            BuiltDist::Deterministic($inner) => $body,
            BuiltDist::Weibull($inner) => $body,
            BuiltDist::LogNormal($inner) => $body,
        }
    };
}

impl Sample for BuiltDist {
    #[inline]
    fn sample(&self, rng: &mut Rng64) -> f64 {
        dispatch!(self, d => d.sample(rng))
    }
}

impl Moments for BuiltDist {
    fn mean(&self) -> f64 {
        dispatch!(self, d => d.mean())
    }

    fn second_moment(&self) -> f64 {
        dispatch!(self, d => d.second_moment())
    }
}

/// Declarative speedup curve `s(k)` for a malleable job class.
///
/// A malleable job holding `k` (possibly fractional) server cores runs at
/// rate `s(k) · c` where `c` is the per-core speed. Every curve satisfies
/// `s(1) = 1`, and for `k ≤ 1` the job simply gets its fractional share —
/// `s(k) = k` — which is exactly the processor-sharing semantics of the
/// rigid baseline. The default is [`SpeedupCurve::Rigid`], so every
/// pre-malleable JSON config loads unchanged.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum SpeedupCurve {
    /// One server, no speedup from extra cores: `s(k) = min(k, 1)`.
    #[default]
    Rigid,
    /// Power law `s(k) = k^p` with sublinearity exponent `p ∈ (0, 1]`.
    PowerLaw {
        /// Sublinearity exponent; `p = 1` is embarrassingly parallel.
        p: f64,
    },
    /// Amdahl's law `s(k) = 1 / (serial + (1 − serial)/k)`.
    Amdahl {
        /// Serial fraction of the work, in `[0, 1]`.
        serial: f64,
    },
    /// Piecewise-linear interpolation through measured `(k, s)` knots.
    ///
    /// Knots must start at `(1, 1)`, be strictly increasing in `k`, and
    /// non-decreasing in `s`; beyond the last knot the curve is flat.
    Empirical {
        /// Measured `(cores, speedup)` knots.
        points: Vec<(f64, f64)>,
    },
}

hetsched_json::json_tagged_enum!(SpeedupCurve {
    Rigid,
    PowerLaw { p },
    Amdahl { serial },
    Empirical { points },
});

impl SpeedupCurve {
    /// True for the default curve, under which the malleability machinery
    /// is structurally invisible.
    pub fn is_rigid(&self) -> bool {
        matches!(self, SpeedupCurve::Rigid)
    }

    /// Checks curve parameters eagerly, at config-parse time, so a bad
    /// exponent fails with a typed error instead of a panic (or a NaN)
    /// at the first sample.
    pub fn validate(&self) -> Result<(), HetschedError> {
        match self {
            SpeedupCurve::Rigid => Ok(()),
            SpeedupCurve::PowerLaw { p } => {
                if !p.is_finite() || *p <= 0.0 || *p > 1.0 {
                    return Err(HetschedError::InvalidConfig(format!(
                        "speedup curve power_law requires p in (0, 1], got {p}"
                    )));
                }
                Ok(())
            }
            SpeedupCurve::Amdahl { serial } => {
                if !serial.is_finite() || !(0.0..=1.0).contains(serial) {
                    return Err(HetschedError::InvalidConfig(format!(
                        "speedup curve amdahl requires serial in [0, 1], got {serial}"
                    )));
                }
                Ok(())
            }
            SpeedupCurve::Empirical { points } => {
                let first = points.first().ok_or_else(|| {
                    HetschedError::InvalidConfig(
                        "speedup curve empirical requires at least one (k, s) point".into(),
                    )
                })?;
                if (first.0 - 1.0).abs() > 1e-12 || (first.1 - 1.0).abs() > 1e-12 {
                    return Err(HetschedError::InvalidConfig(format!(
                        "speedup curve empirical must start at (1, 1), got ({}, {})",
                        first.0, first.1
                    )));
                }
                for w in points.windows(2) {
                    let ((k0, s0), (k1, s1)) = (w[0], w[1]);
                    if !k1.is_finite() || !s1.is_finite() {
                        return Err(HetschedError::InvalidConfig(
                            "speedup curve empirical points must be finite".into(),
                        ));
                    }
                    if k1 <= k0 {
                        return Err(HetschedError::InvalidConfig(format!(
                            "speedup curve empirical cores must be strictly increasing: \
                             {k0} then {k1}"
                        )));
                    }
                    if s1 < s0 {
                        return Err(HetschedError::InvalidConfig(format!(
                            "speedup curve empirical speedups must be non-decreasing: \
                             {s0} then {s1}"
                        )));
                    }
                    if s1 > k1 + 1e-9 {
                        return Err(HetschedError::InvalidConfig(format!(
                            "speedup curve empirical is super-linear at k = {k1}: s = {s1}"
                        )));
                    }
                }
                Ok(())
            }
        }
    }

    /// Evaluates `s(k)` for `k ≥ 0`. Assumes [`validate`](Self::validate)
    /// passed; fractional allocations below one core always scale linearly.
    #[inline]
    pub fn speedup(&self, k: f64) -> f64 {
        if k <= 0.0 {
            return 0.0;
        }
        if k <= 1.0 {
            return k;
        }
        match self {
            SpeedupCurve::Rigid => 1.0,
            SpeedupCurve::PowerLaw { p } => k.powf(*p),
            SpeedupCurve::Amdahl { serial } => 1.0 / (serial + (1.0 - serial) / k),
            SpeedupCurve::Empirical { points } => {
                let last = points.last().expect("validated: non-empty");
                if k >= last.0 {
                    return last.1;
                }
                for w in points.windows(2) {
                    let ((k0, s0), (k1, s1)) = (w[0], w[1]);
                    if k <= k1 {
                        return s0 + (s1 - s0) * (k - k0) / (k1 - k0);
                    }
                }
                last.1
            }
        }
    }

    /// The largest allocation that still adds speed: extra cores past the
    /// cap are pure waste and the allocator never grants them.
    pub fn max_useful_cores(&self) -> f64 {
        match self {
            SpeedupCurve::Rigid => 1.0,
            SpeedupCurve::PowerLaw { .. } => f64::INFINITY,
            SpeedupCurve::Amdahl { serial } => {
                if *serial == 0.0 {
                    f64::INFINITY
                } else {
                    // Past ~99% of the 1/serial asymptote, more cores are noise.
                    (99.0 * (1.0 - serial) / serial).max(1.0)
                }
            }
            SpeedupCurve::Empirical { points } => points.last().map(|&(k, _)| k).unwrap_or(1.0),
        }
    }

    /// Effective sublinearity exponent used by the heSRPT water-filling
    /// closed form, clamped to `(0, 1]`.
    pub fn elasticity(&self) -> f64 {
        match self {
            SpeedupCurve::Rigid => 1.0,
            SpeedupCurve::PowerLaw { p } => p.clamp(1e-6, 1.0),
            SpeedupCurve::Amdahl { serial } => (1.0 - serial).clamp(1e-6, 1.0),
            SpeedupCurve::Empirical { points } => {
                // Log-log slope of the first segment past k = 1.
                match points.iter().find(|&&(k, _)| k > 1.0 + 1e-12) {
                    Some(&(k, s)) if s > 1.0 => (s.ln() / k.ln()).clamp(1e-6, 1.0),
                    _ => 1e-6,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_preserves_moments() {
        let specs = [
            DistSpec::Exponential { mean: 3.0 },
            DistSpec::Hyperexp2 { mean: 2.2, cv: 3.0 },
            DistSpec::paper_job_sizes(),
            DistSpec::Uniform { lo: 1.0, hi: 2.0 },
            DistSpec::Deterministic { value: 7.0 },
            DistSpec::Weibull {
                mean: 5.0,
                shape: 1.5,
            },
            DistSpec::LogNormal { mean: 4.0, cv: 2.0 },
        ];
        for spec in specs {
            let d = spec.build();
            assert!(d.mean() > 0.0, "{spec:?}");
            assert!(d.second_moment() >= d.mean() * d.mean() - 1e-9, "{spec:?}");
        }
    }

    #[test]
    fn paper_job_sizes_mean() {
        let d = DistSpec::paper_job_sizes().build();
        assert!((d.mean() - 76.8).abs() < 0.05);
    }

    #[test]
    fn sampling_through_enum() {
        let d = DistSpec::Deterministic { value: 2.0 }.build();
        let mut rng = Rng64::from_seed(0);
        assert_eq!(d.sample(&mut rng), 2.0);
    }

    #[test]
    fn serde_round_trip() {
        let spec = DistSpec::Hyperexp2 { mean: 2.2, cv: 3.0 };
        let json = hetsched_json::to_string(&spec);
        let back: DistSpec = hetsched_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn serde_tag_names_are_snake_case() {
        let json = hetsched_json::to_string(&DistSpec::paper_job_sizes());
        assert!(json.contains("\"kind\":\"bounded_pareto\""), "{json}");
    }

    #[test]
    fn speedup_curve_default_is_rigid() {
        assert_eq!(SpeedupCurve::default(), SpeedupCurve::Rigid);
        assert!(SpeedupCurve::default().is_rigid());
        let json = hetsched_json::to_string(&SpeedupCurve::Rigid);
        assert!(json.contains("\"kind\":\"rigid\""), "{json}");
    }

    #[test]
    fn speedup_curve_serde_round_trip() {
        for curve in [
            SpeedupCurve::Rigid,
            SpeedupCurve::PowerLaw { p: 0.5 },
            SpeedupCurve::Amdahl { serial: 0.1 },
            SpeedupCurve::Empirical {
                points: vec![(1.0, 1.0), (2.0, 1.8), (4.0, 3.0)],
            },
        ] {
            let json = hetsched_json::to_string(&curve);
            let back: SpeedupCurve = hetsched_json::from_str(&json).unwrap();
            assert_eq!(curve, back, "{json}");
        }
    }

    #[test]
    fn speedup_curve_validation_rejects_bad_parameters() {
        let bad = [
            SpeedupCurve::PowerLaw { p: 0.0 },
            SpeedupCurve::PowerLaw { p: 1.5 },
            SpeedupCurve::PowerLaw { p: f64::NAN },
            SpeedupCurve::Amdahl { serial: -0.1 },
            SpeedupCurve::Amdahl { serial: 1.5 },
            SpeedupCurve::Empirical { points: vec![] },
            // Must start at (1, 1).
            SpeedupCurve::Empirical {
                points: vec![(2.0, 1.0)],
            },
            // Non-monotone cores.
            SpeedupCurve::Empirical {
                points: vec![(1.0, 1.0), (3.0, 2.0), (2.0, 2.5)],
            },
            // Decreasing speedup.
            SpeedupCurve::Empirical {
                points: vec![(1.0, 1.0), (2.0, 1.8), (4.0, 1.5)],
            },
            // Super-linear speedup.
            SpeedupCurve::Empirical {
                points: vec![(1.0, 1.0), (2.0, 3.0)],
            },
        ];
        for curve in bad {
            let err = curve.validate().expect_err(&format!("{curve:?}"));
            assert!(
                matches!(err, HetschedError::InvalidConfig(_)),
                "{curve:?} -> {err}"
            );
        }
        for curve in [
            SpeedupCurve::Rigid,
            SpeedupCurve::PowerLaw { p: 1.0 },
            SpeedupCurve::Amdahl { serial: 0.0 },
            SpeedupCurve::Empirical {
                points: vec![(1.0, 1.0), (4.0, 2.5)],
            },
        ] {
            curve
                .validate()
                .unwrap_or_else(|e| panic!("{curve:?}: {e}"));
        }
    }

    #[test]
    fn speedup_curve_evaluation() {
        // Everything is linear below one core: the PS fractional share.
        for curve in [
            SpeedupCurve::Rigid,
            SpeedupCurve::PowerLaw { p: 0.5 },
            SpeedupCurve::Amdahl { serial: 0.2 },
        ] {
            assert_eq!(curve.speedup(0.25), 0.25, "{curve:?}");
            assert_eq!(curve.speedup(1.0), 1.0, "{curve:?}");
            assert_eq!(curve.speedup(0.0), 0.0, "{curve:?}");
        }
        assert_eq!(SpeedupCurve::Rigid.speedup(8.0), 1.0);
        assert!((SpeedupCurve::PowerLaw { p: 0.5 }.speedup(4.0) - 2.0).abs() < 1e-12);
        // Amdahl: serial 0.2, k → ∞ tends to 5; at k = 4 it's 1/(0.2 + 0.2) = 2.5.
        assert!((SpeedupCurve::Amdahl { serial: 0.2 }.speedup(4.0) - 2.5).abs() < 1e-12);
        let emp = SpeedupCurve::Empirical {
            points: vec![(1.0, 1.0), (2.0, 1.8), (4.0, 3.0)],
        };
        assert!((emp.speedup(1.5) - 1.4).abs() < 1e-12);
        assert!((emp.speedup(3.0) - 2.4).abs() < 1e-12);
        assert_eq!(emp.speedup(16.0), 3.0, "flat past the last knot");
        assert_eq!(emp.max_useful_cores(), 4.0);
        assert_eq!(SpeedupCurve::Rigid.max_useful_cores(), 1.0);
    }

    #[test]
    fn speedup_curve_elasticity() {
        assert_eq!(SpeedupCurve::Rigid.elasticity(), 1.0);
        assert_eq!(SpeedupCurve::PowerLaw { p: 0.5 }.elasticity(), 0.5);
        assert!((SpeedupCurve::Amdahl { serial: 0.25 }.elasticity() - 0.75).abs() < 1e-12);
        let emp = SpeedupCurve::Empirical {
            points: vec![(1.0, 1.0), (4.0, 2.0)],
        };
        // log(2)/log(4) = 0.5
        assert!((emp.elasticity() - 0.5).abs() < 1e-12);
    }
}
