//! Policy combinations — the paper's Table 2 and the full roster.
//!
//! | | weighted allocation | optimized allocation |
//! |---|---|---|
//! | **random dispatching** | WRAN | ORAN |
//! | **round-robin dispatching** | WRR | ORR |
//!
//! [`PolicySpec`] is the JSON-friendly description used by experiment
//! configurations; [`PolicySpec::build`] materializes a boxed
//! [`Policy`] for a concrete cluster configuration.

use hetsched_cluster::{ClusterConfig, Policy};
use hetsched_dist::{BoundedPareto, DistSpec};
use hetsched_error::HetschedError;

use crate::allocation::AllocationSpec;
use crate::dynamic::LeastLoadPolicy;
use crate::extra::{JsqPolicy, SitaEPolicy};
use crate::hesrpt::{HesrptPolicy, HesrptStaticPolicy};
use crate::random::RandomDispatch;
use crate::reopt::ReoptimizingOrr;
use crate::round_robin::RoundRobinDispatch;
use crate::scalable::{Jiq, JsqFull, PowerOfD};

/// Job dispatching strategies for static policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DispatcherSpec {
    /// Random based dispatching (§3.1).
    Random,
    /// Round-robin based dispatching, Algorithm 2 (§3.2).
    RoundRobin,
}

hetsched_json::json_unit_enum!(DispatcherSpec { Random, RoundRobin });

impl DispatcherSpec {
    fn tag(&self) -> &'static str {
        match self {
            DispatcherSpec::Random => "RAN",
            DispatcherSpec::RoundRobin => "RR",
        }
    }
}

/// Declarative policy description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicySpec {
    /// A static scheme: allocation × dispatcher (Table 2).
    Static {
        /// Workload allocation scheme.
        allocation: AllocationSpec,
        /// Job dispatching strategy.
        dispatcher: DispatcherSpec,
    },
    /// Dynamic Least-Load with delayed feedback (the yardstick).
    DynamicLeastLoad,
    /// Dynamic Least-Load with staleness-aware graceful degradation: a
    /// load index older than the confidence window decays toward the
    /// optimized-allocation prior instead of being trusted (robustness
    /// extension for lossy/partitioned load-update planes).
    StaleAwareDynamic {
        /// Seconds a load index stays fully trusted.
        confidence_window: f64,
    },
    /// Power-of-d-choices on true instantaneous loads (clairvoyant
    /// extension baseline).
    Jsq {
        /// Number of probed machines per job (1..=8).
        d: usize,
    },
    /// Size-interval assignment with equalized load (clairvoyant
    /// extension baseline; requires Bounded Pareto job sizes).
    SitaE,
    /// Burst-per-cycle weighted round-robin over the *optimized*
    /// fractions — the dispatcher ablation strawman (extension).
    BurstyWrr {
        /// Length of the dispatch cycle in jobs.
        cycle_len: u32,
    },
    /// ORR with an online EWMA utilization estimator (extension): the
    /// allocation is recomputed every `recompute_every` seconds from the
    /// observed arrival rate, inflated by `safety_margin`.
    AdaptiveOrr {
        /// Seconds between allocation recomputations.
        recompute_every: f64,
        /// Relative overestimation margin (paper §5.4 recommends slight
        /// conservatism).
        safety_margin: f64,
    },
    /// ORR that re-solves Algorithm 1 over the surviving machines on
    /// every membership change (fault-tolerance extension). Identical to
    /// ORR when no machine ever fails.
    ReoptimizingOrr,
    /// A second spelling of [`PolicySpec::StaleAwareDynamic`]: it builds
    /// the same policy under the same label.
    IndexedStaleAware {
        /// Seconds a load index stays fully trusted.
        confidence_window: f64,
    },
    /// Full-information JSQ — the d = N clairvoyant bound over the
    /// simulation's true-load index (scale axis).
    JsqFull,
    /// Power-of-d-choices over believed loads: O(d) per decision, no
    /// index (scale axis).
    PowerOfD {
        /// Number of sampled machines per job (1..=8).
        d: usize,
        /// Speed-normalize the sampled believed loads (heterogeneity
        /// awareness). Defaults to `false` — the homogeneous
        /// literature's raw queue-length comparison.
        het_aware: bool,
    },
    /// Join-Idle-Queue: O(1) idle-stack pop per decision, power-of-2
    /// sampling fallback when no server is believed idle (scale axis).
    Jiq,
    /// heSRPT malleable server allocation (slowdown axis): every job
    /// is held by the simulator's allocation tier, which divides each
    /// dispatch shard's cores among its in-flight jobs by the heSRPT
    /// closed form — size-ordered water-filled shares that minimize
    /// mean slowdown. Requires an active `malleable` section in the
    /// cluster configuration.
    Hesrpt,
    /// Static per-class malleable allocation (slowdown axis): like
    /// [`PolicySpec::Hesrpt`] but each class with in-flight jobs gets a
    /// budget of the shard's cores proportional to its arrival share,
    /// split EQUI among that class's jobs regardless of remaining work
    /// — the baseline that isolates the value of size ordering.
    HesrptStatic,
}

hetsched_json::json_tagged_enum!(PolicySpec {
    Static { allocation, dispatcher },
    DynamicLeastLoad,
    StaleAwareDynamic { confidence_window },
    Jsq { d },
    SitaE,
    BurstyWrr { cycle_len },
    AdaptiveOrr { recompute_every, safety_margin },
    ReoptimizingOrr,
    IndexedStaleAware { confidence_window },
    JsqFull,
    PowerOfD { d, het_aware = false },
    Jiq,
    Hesrpt,
    HesrptStatic,
});

impl PolicySpec {
    /// Weighted Random — the simplest speed-aware static scheme.
    pub fn wran() -> Self {
        PolicySpec::Static {
            allocation: AllocationSpec::Weighted,
            dispatcher: DispatcherSpec::Random,
        }
    }

    /// Optimized Random.
    pub fn oran() -> Self {
        PolicySpec::Static {
            allocation: AllocationSpec::optimized(),
            dispatcher: DispatcherSpec::Random,
        }
    }

    /// Weighted Round-Robin.
    pub fn wrr() -> Self {
        PolicySpec::Static {
            allocation: AllocationSpec::Weighted,
            dispatcher: DispatcherSpec::RoundRobin,
        }
    }

    /// Optimized Round-Robin — the paper's headline algorithm.
    pub fn orr() -> Self {
        PolicySpec::Static {
            allocation: AllocationSpec::optimized(),
            dispatcher: DispatcherSpec::RoundRobin,
        }
    }

    /// ORR with a relative utilization-estimation error (§5.4).
    pub fn orr_with_error(rho_error: f64) -> Self {
        PolicySpec::Static {
            allocation: AllocationSpec::Optimized { rho_error },
            dispatcher: DispatcherSpec::RoundRobin,
        }
    }

    /// The four static schemes of Table 2, in the paper's order.
    pub fn table2() -> [PolicySpec; 4] {
        [Self::wran(), Self::oran(), Self::wrr(), Self::orr()]
    }

    /// ORR that re-optimizes the allocation over the surviving machines.
    pub fn reopt_orr() -> Self {
        PolicySpec::ReoptimizingOrr
    }

    /// Staleness-aware Dynamic with the given confidence window.
    pub fn stale_aware_dynamic(confidence_window: f64) -> Self {
        PolicySpec::StaleAwareDynamic { confidence_window }
    }

    /// The policy's display name (WRAN/ORAN/WRR/ORR/DYNAMIC/…).
    pub fn label(&self) -> String {
        match self {
            PolicySpec::Static {
                allocation,
                dispatcher,
            } => match allocation.fixed_tag() {
                // The Table-2 names, in one allocation.
                Some(tag) => [tag, dispatcher.tag()].concat(),
                None => format!("{}{}", allocation.tag(), dispatcher.tag()),
            },
            PolicySpec::DynamicLeastLoad => "DYNAMIC".into(),
            PolicySpec::StaleAwareDynamic { .. } | PolicySpec::IndexedStaleAware { .. } => {
                "DYNAMIC-SA".into()
            }
            PolicySpec::Jsq { d } => format!("JSQ({d})"),
            PolicySpec::SitaE => "SITA-E".into(),
            PolicySpec::BurstyWrr { .. } => "BWRR".into(),
            PolicySpec::AdaptiveOrr { .. } => "AORR".into(),
            PolicySpec::ReoptimizingOrr => "ReORR".into(),
            PolicySpec::JsqFull => "JSQ-FULL".into(),
            PolicySpec::PowerOfD { d, het_aware } => {
                if *het_aware {
                    format!("POD({d})-HET")
                } else {
                    format!("POD({d})")
                }
            }
            PolicySpec::Jiq => "JIQ".into(),
            PolicySpec::Hesrpt => "HESRPT".into(),
            PolicySpec::HesrptStatic => "HESRPT-STATIC".into(),
        }
    }

    /// Parses a CLI-friendly policy name into a spec.
    ///
    /// Accepted (case-insensitive): `wran`, `oran`, `wrr`, `orr`,
    /// `dynamic`, `dynamic-sa[:window]`, `jsq:<d>`, `jsq-full`,
    /// `pod:<d>`, `pod-het:<d>`, `jiq`, `sita-e`, `reopt-orr`,
    /// `hesrpt`, `hesrpt-static`. The staleness window defaults to
    /// 500 seconds when omitted.
    ///
    /// # Errors
    /// [`HetschedError::InvalidPolicy`] on an unknown name or an
    /// unparsable numeric argument.
    pub fn from_cli_name(name: &str) -> Result<Self, HetschedError> {
        let lower = name.to_ascii_lowercase();
        let (head, arg) = match lower.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (lower.as_str(), None),
        };
        let window = |arg: Option<&str>| -> Result<f64, HetschedError> {
            match arg {
                None => Ok(500.0),
                Some(a) => a.parse().map_err(|_| {
                    HetschedError::InvalidPolicy(format!("bad confidence window {a:?} in {name:?}"))
                }),
            }
        };
        let probes = |arg: Option<&str>| -> Result<usize, HetschedError> {
            arg.ok_or_else(|| {
                HetschedError::InvalidPolicy(format!("{name:?} needs a probe count, e.g. {head}:2"))
            })?
            .parse()
            .map_err(|_| HetschedError::InvalidPolicy(format!("bad probe count in {name:?}")))
        };
        let spec = match head {
            "wran" => Self::wran(),
            "oran" => Self::oran(),
            "wrr" => Self::wrr(),
            "orr" => Self::orr(),
            "dynamic" => PolicySpec::DynamicLeastLoad,
            "dynamic-sa" => PolicySpec::StaleAwareDynamic {
                confidence_window: window(arg)?,
            },
            "jsq" => PolicySpec::Jsq { d: probes(arg)? },
            "jsq-full" => PolicySpec::JsqFull,
            "pod" => PolicySpec::PowerOfD {
                d: probes(arg)?,
                het_aware: false,
            },
            "pod-het" => PolicySpec::PowerOfD {
                d: probes(arg)?,
                het_aware: true,
            },
            "jiq" => PolicySpec::Jiq,
            "sita-e" => PolicySpec::SitaE,
            "reopt-orr" => PolicySpec::ReoptimizingOrr,
            "hesrpt" => PolicySpec::Hesrpt,
            "hesrpt-static" => PolicySpec::HesrptStatic,
            _ => {
                return Err(HetschedError::InvalidPolicy(format!(
                    "unknown policy name {name:?}"
                )))
            }
        };
        Ok(spec)
    }

    /// Materializes the policy for a cluster configuration.
    ///
    /// # Errors
    /// [`HetschedError::InvalidPolicy`] when the spec's parameters are
    /// out of range or incompatible with the configuration (e.g. `SitaE`
    /// without Bounded Pareto job sizes).
    pub fn build(&self, cfg: &ClusterConfig) -> Result<Box<dyn Policy>, HetschedError> {
        match self {
            PolicySpec::Static {
                allocation,
                dispatcher,
            } => {
                if !(cfg.utilization.is_finite() && cfg.utilization > 0.0 && cfg.utilization < 1.0)
                {
                    return Err(HetschedError::InvalidPolicy(format!(
                        "static policies need utilization in (0,1), got {}",
                        cfg.utilization
                    )));
                }
                let fractions = allocation.fractions(&cfg.speeds, cfg.utilization)?;
                let label = self.label();
                Ok(match dispatcher {
                    DispatcherSpec::Random => Box::new(RandomDispatch::new(&fractions, label)),
                    DispatcherSpec::RoundRobin => {
                        Box::new(RoundRobinDispatch::new(&fractions, label))
                    }
                })
            }
            PolicySpec::DynamicLeastLoad => Ok(Box::new(LeastLoadPolicy::new(&cfg.speeds))),
            PolicySpec::StaleAwareDynamic { confidence_window }
            | PolicySpec::IndexedStaleAware { confidence_window } => {
                let prior = stale_prior(cfg, *confidence_window)?;
                Ok(Box::new(crate::dynamic::StaleAwareLeastLoad::new(
                    &cfg.speeds,
                    &prior,
                    *confidence_window,
                )))
            }
            PolicySpec::Jsq { d } => {
                if !(1..=8).contains(d) {
                    return Err(HetschedError::InvalidPolicy(format!(
                        "JSQ needs d in 1..=8, got {d}"
                    )));
                }
                Ok(Box::new(JsqPolicy::new(*d)))
            }
            PolicySpec::SitaE => match cfg.job_sizes {
                DistSpec::BoundedPareto { k, p, alpha } => Ok(Box::new(SitaEPolicy::new(
                    &cfg.speeds,
                    BoundedPareto::new(k, p, alpha),
                ))),
                other => Err(HetschedError::InvalidPolicy(format!(
                    "SITA-E needs Bounded Pareto job sizes, got {other:?}"
                ))),
            },
            PolicySpec::BurstyWrr { cycle_len } => {
                if !(cfg.utilization.is_finite() && cfg.utilization > 0.0 && cfg.utilization < 1.0)
                {
                    return Err(HetschedError::InvalidPolicy(
                        "BWRR needs utilization in (0,1)".into(),
                    ));
                }
                if *cycle_len == 0 {
                    return Err(HetschedError::InvalidPolicy(
                        "BWRR needs a positive cycle length".into(),
                    ));
                }
                let fractions = crate::allocation::AllocationSpec::optimized()
                    .fractions(&cfg.speeds, cfg.utilization)?;
                Ok(Box::new(crate::bursty_wrr::BurstyWeightedRr::new(
                    &fractions, *cycle_len, "BWRR",
                )))
            }
            PolicySpec::AdaptiveOrr {
                recompute_every,
                safety_margin,
            } => {
                if !(*recompute_every > 0.0 && recompute_every.is_finite()) {
                    return Err(HetschedError::InvalidPolicy(
                        "AORR needs a positive recompute period".into(),
                    ));
                }
                if !(*safety_margin >= 0.0 && safety_margin.is_finite()) {
                    return Err(HetschedError::InvalidPolicy(
                        "AORR needs a non-negative safety margin".into(),
                    ));
                }
                Ok(Box::new(crate::adaptive::AdaptiveOrr::new(
                    &cfg.speeds,
                    cfg.mean_job_size(),
                    *recompute_every,
                    *safety_margin,
                    0.01,
                )))
            }
            PolicySpec::ReoptimizingOrr => {
                if !(cfg.utilization.is_finite() && cfg.utilization > 0.0 && cfg.utilization < 1.0)
                {
                    return Err(HetschedError::InvalidPolicy(
                        "ReORR needs utilization in (0,1)".into(),
                    ));
                }
                let policy = ReoptimizingOrr::new(&cfg.speeds, cfg.utilization);
                // In a coordinated sharded tier the sync consensus
                // carries the realized arrival rate; let ReORR re-solve
                // Algorithm 1 from it. Naive tiers (and D = 1) keep the
                // historical membership-only behavior bit-for-bit.
                let policy = if cfg.dispatch.coordination
                    == hetsched_cluster::Coordination::PhasePreserving
                    && cfg.dispatch.dispatchers > 1
                {
                    policy.with_rate_reopt(cfg.mean_job_size())
                } else {
                    policy
                };
                Ok(Box::new(policy))
            }
            PolicySpec::JsqFull => Ok(Box::new(JsqFull::new())),
            PolicySpec::PowerOfD { d, het_aware } => {
                if !(1..=8).contains(d) {
                    return Err(HetschedError::InvalidPolicy(format!(
                        "power-of-d needs d in 1..=8, got {d}"
                    )));
                }
                Ok(Box::new(PowerOfD::new(&cfg.speeds, *d, *het_aware)))
            }
            PolicySpec::Jiq => Ok(Box::new(Jiq::new(&cfg.speeds))),
            PolicySpec::Hesrpt => {
                require_malleable(cfg, "HESRPT")?;
                Ok(Box::new(HesrptPolicy::new()))
            }
            PolicySpec::HesrptStatic => {
                require_malleable(cfg, "HESRPT-STATIC")?;
                Ok(Box::new(HesrptStaticPolicy::new()))
            }
        }
    }
}

/// The malleable allocators are declarations to the simulator's
/// allocation tier; without an active `malleable` section that tier
/// never forms and the policy would silently degenerate to its rigid
/// fallback. Reject the combination up front instead.
fn require_malleable(cfg: &ClusterConfig, label: &str) -> Result<(), HetschedError> {
    if cfg.malleable.as_ref().is_some_and(|m| m.active()) {
        Ok(())
    } else {
        Err(HetschedError::InvalidPolicy(format!(
            "{label} needs an active malleable section in the cluster \
             configuration (e.g. --malleable-fraction 0.5); without one \
             there are no malleable classes to allocate cores to"
        )))
    }
}

/// Validates the staleness-aware parameters and computes the static
/// prior: the M/M/1-PS mean queue length each server would carry under
/// the paper's optimized allocation — ρ_i = α_i λ / (μ s_i) =
/// α_i ρ Σs / s_i and E[N_i] = ρ_i / (1 − ρ_i).
fn stale_prior(cfg: &ClusterConfig, confidence_window: f64) -> Result<Vec<f64>, HetschedError> {
    if !(confidence_window.is_finite() && confidence_window > 0.0) {
        return Err(HetschedError::InvalidPolicy(format!(
            "DYNAMIC-SA needs a positive confidence window, got {confidence_window}"
        )));
    }
    if !(cfg.utilization.is_finite() && cfg.utilization > 0.0 && cfg.utilization < 1.0) {
        return Err(HetschedError::InvalidPolicy(
            "DYNAMIC-SA needs utilization in (0,1) for its static prior".into(),
        ));
    }
    let fractions =
        crate::allocation::AllocationSpec::optimized().fractions(&cfg.speeds, cfg.utilization)?;
    let total_speed: f64 = cfg.speeds.iter().sum();
    Ok(fractions
        .iter()
        .zip(&cfg.speeds)
        .map(|(&alpha, &s)| {
            let rho_i = (alpha * cfg.utilization * total_speed / s).min(0.999);
            rho_i / (1.0 - rho_i)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ClusterConfig {
        ClusterConfig::paper_default(&[1.0, 2.0, 10.0])
    }

    #[test]
    fn labels_match_table2() {
        assert_eq!(PolicySpec::wran().label(), "WRAN");
        assert_eq!(PolicySpec::oran().label(), "ORAN");
        assert_eq!(PolicySpec::wrr().label(), "WRR");
        assert_eq!(PolicySpec::orr().label(), "ORR");
        assert_eq!(PolicySpec::DynamicLeastLoad.label(), "DYNAMIC");
        assert_eq!(PolicySpec::stale_aware_dynamic(500.0).label(), "DYNAMIC-SA");
        assert_eq!(PolicySpec::orr_with_error(0.05).label(), "O(+5%)RR");
    }

    #[test]
    fn table2_has_four_distinct_entries() {
        let t = PolicySpec::table2();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(t[i], t[j]);
            }
        }
    }

    #[test]
    fn builds_every_spec() {
        let cfg = cfg();
        for spec in [
            PolicySpec::wran(),
            PolicySpec::oran(),
            PolicySpec::wrr(),
            PolicySpec::orr(),
            PolicySpec::DynamicLeastLoad,
            PolicySpec::stale_aware_dynamic(500.0),
            PolicySpec::Jsq { d: 2 },
            PolicySpec::SitaE,
            PolicySpec::BurstyWrr { cycle_len: 100 },
            PolicySpec::AdaptiveOrr {
                recompute_every: 500.0,
                safety_margin: 0.05,
            },
            PolicySpec::reopt_orr(),
            PolicySpec::IndexedStaleAware {
                confidence_window: 500.0,
            },
            PolicySpec::JsqFull,
            PolicySpec::PowerOfD {
                d: 2,
                het_aware: false,
            },
            PolicySpec::PowerOfD {
                d: 2,
                het_aware: true,
            },
            PolicySpec::Jiq,
        ] {
            let p = spec.build(&cfg).unwrap();
            assert_eq!(p.name(), spec.label());
        }
    }

    #[test]
    fn scale_axis_labels() {
        assert_eq!(
            PolicySpec::IndexedStaleAware {
                confidence_window: 500.0
            }
            .label(),
            "DYNAMIC-SA"
        );
        assert_eq!(PolicySpec::JsqFull.label(), "JSQ-FULL");
        assert_eq!(
            PolicySpec::PowerOfD {
                d: 2,
                het_aware: true
            }
            .label(),
            "POD(2)-HET"
        );
        assert_eq!(PolicySpec::Jiq.label(), "JIQ");
    }

    #[test]
    fn scale_axis_specs_validate() {
        let cfg = cfg();
        assert!(PolicySpec::PowerOfD {
            d: 0,
            het_aware: false
        }
        .build(&cfg)
        .is_err());
        assert!(PolicySpec::PowerOfD {
            d: 9,
            het_aware: true
        }
        .build(&cfg)
        .is_err());
        assert!(PolicySpec::IndexedStaleAware {
            confidence_window: 0.0
        }
        .build(&cfg)
        .is_err());
    }

    #[test]
    fn cli_names_parse() {
        for (name, spec) in [
            ("orr", PolicySpec::orr()),
            ("WRAN", PolicySpec::wran()),
            ("dynamic", PolicySpec::DynamicLeastLoad),
            ("dynamic-sa", PolicySpec::stale_aware_dynamic(500.0)),
            ("dynamic-sa:250", PolicySpec::stale_aware_dynamic(250.0)),
            ("jsq:3", PolicySpec::Jsq { d: 3 }),
            ("jsq-full", PolicySpec::JsqFull),
            (
                "pod:2",
                PolicySpec::PowerOfD {
                    d: 2,
                    het_aware: false,
                },
            ),
            (
                "pod-het:4",
                PolicySpec::PowerOfD {
                    d: 4,
                    het_aware: true,
                },
            ),
            ("jiq", PolicySpec::Jiq),
            ("sita-e", PolicySpec::SitaE),
            ("reopt-orr", PolicySpec::ReoptimizingOrr),
            ("hesrpt", PolicySpec::Hesrpt),
            ("HESRPT-STATIC", PolicySpec::HesrptStatic),
        ] {
            assert_eq!(PolicySpec::from_cli_name(name).unwrap(), spec, "{name}");
        }
        assert!(PolicySpec::from_cli_name("nope").is_err());
        assert!(PolicySpec::from_cli_name("pod").is_err());
        assert!(PolicySpec::from_cli_name("jsq:many").is_err());
        assert!(PolicySpec::from_cli_name("dynamic-sa:soon").is_err());
        // One name per behaviour: no "-idx" spelling is a policy.
        for name in ["dynamic-idx", "dynamic-sa-idx", "jsq-idx"] {
            assert!(matches!(
                PolicySpec::from_cli_name(name),
                Err(HetschedError::InvalidPolicy(_))
            ));
        }
    }

    #[test]
    fn build_errors_are_typed() {
        let cfg = cfg();
        let err = PolicySpec::Jsq { d: 0 }
            .build(&cfg)
            .err()
            .expect("JSQ with d = 0 must be rejected");
        assert!(matches!(
            err,
            hetsched_error::HetschedError::InvalidPolicy(_)
        ));
        assert!(err.to_string().contains("JSQ"));
    }

    #[test]
    fn extension_specs_validate() {
        let cfg = cfg();
        assert!(PolicySpec::stale_aware_dynamic(0.0).build(&cfg).is_err());
        assert!(PolicySpec::stale_aware_dynamic(f64::NAN)
            .build(&cfg)
            .is_err());
        assert!(PolicySpec::BurstyWrr { cycle_len: 0 }.build(&cfg).is_err());
        assert!(PolicySpec::AdaptiveOrr {
            recompute_every: 0.0,
            safety_margin: 0.0
        }
        .build(&cfg)
        .is_err());
        assert!(PolicySpec::AdaptiveOrr {
            recompute_every: 10.0,
            safety_margin: -0.5
        }
        .build(&cfg)
        .is_err());
    }

    #[test]
    fn only_dynamic_needs_load_updates() {
        let cfg = cfg();
        assert!(PolicySpec::DynamicLeastLoad
            .build(&cfg)
            .unwrap()
            .needs_load_updates());
        for spec in PolicySpec::table2() {
            assert!(!spec.build(&cfg).unwrap().needs_load_updates());
        }
    }

    #[test]
    fn sita_requires_bounded_pareto() {
        let mut c = cfg();
        c.job_sizes = hetsched_dist::DistSpec::Exponential { mean: 10.0 };
        assert!(PolicySpec::SitaE.build(&c).is_err());
    }

    #[test]
    fn jsq_rejects_zero_d() {
        assert!(PolicySpec::Jsq { d: 0 }.build(&cfg()).is_err());
    }

    #[test]
    fn jsq_rejects_d_above_eight() {
        // JSQ samples without replacement through an 8-slot scratch, the
        // same bound POD enforces.
        let err = PolicySpec::Jsq { d: 9 }
            .build(&cfg())
            .err()
            .expect("JSQ with d = 9 must be rejected");
        assert!(matches!(err, HetschedError::InvalidPolicy(_)));
        assert!(PolicySpec::Jsq { d: 8 }.build(&cfg()).is_ok());
    }

    #[test]
    fn hesrpt_requires_active_malleable_section() {
        // No malleable section at all.
        let plain = cfg();
        for spec in [PolicySpec::Hesrpt, PolicySpec::HesrptStatic] {
            let err = spec.build(&plain).err().expect("must be rejected");
            assert!(matches!(err, HetschedError::InvalidPolicy(_)));
            assert!(err.to_string().contains("malleable"));
        }
        // An inactive section (zero fraction) is just as rigid.
        let mut inactive = cfg();
        inactive.malleable = Some(hetsched_cluster::MalleableSpec::power_law(0.0, 0.5));
        assert!(PolicySpec::Hesrpt.build(&inactive).is_err());
        // An active section builds, and the name matches the label.
        let mut active = cfg();
        active.malleable = Some(hetsched_cluster::MalleableSpec::power_law(0.5, 0.5));
        for spec in [PolicySpec::Hesrpt, PolicySpec::HesrptStatic] {
            let p = spec.build(&active).unwrap();
            assert_eq!(p.name(), spec.label());
            assert!(p.malleable_allocator().is_some());
            assert!(!p.needs_load_updates());
        }
    }

    #[test]
    fn serde_round_trip() {
        for spec in [
            PolicySpec::orr(),
            PolicySpec::DynamicLeastLoad,
            PolicySpec::stale_aware_dynamic(500.0),
            PolicySpec::Jsq { d: 2 },
            PolicySpec::ReoptimizingOrr,
            PolicySpec::IndexedStaleAware {
                confidence_window: 250.0,
            },
            PolicySpec::JsqFull,
            PolicySpec::PowerOfD {
                d: 2,
                het_aware: true,
            },
            PolicySpec::Jiq,
            PolicySpec::Hesrpt,
            PolicySpec::HesrptStatic,
        ] {
            let json = hetsched_json::to_string(&spec);
            let back: PolicySpec = hetsched_json::from_str(&json).unwrap();
            assert_eq!(spec, back);
        }
    }

    #[test]
    fn pod_het_aware_defaults_to_false() {
        let back: PolicySpec =
            hetsched_json::from_str(r#"{"kind": "power_of_d", "d": 2}"#).unwrap();
        assert_eq!(
            back,
            PolicySpec::PowerOfD {
                d: 2,
                het_aware: false
            }
        );
    }
}
