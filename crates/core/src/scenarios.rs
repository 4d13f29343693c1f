//! One preset per paper table and figure.
//!
//! Each function returns the exact system/workload configuration of the
//! corresponding experiment in §5, so the bench binaries, the integration
//! tests, and EXPERIMENTS.md all draw from a single source of truth.
//!
//! | paper artifact | preset |
//! |---|---|
//! | Table 1 | [`table1_speeds`] + Dynamic Least-Load at ρ = 0.7 |
//! | Table 3 | [`table3_speeds`] (the base configuration, Σs = 44) |
//! | Figure 2 | [`fig2_deviations`] (dispatch-only harness) |
//! | Figure 3 | [`fig3_config`] (2 fast + 16 slow, fast speed swept) |
//! | Figure 4 | [`fig4_config`] (half fast@10, half slow@1, size swept) |
//! | Figure 5 | [`fig5_config`] (base config, utilization swept) |
//! | Figure 6 | [`fig6_policies`] (ORR with estimation errors) |
//!
//! The fault extension adds [`faults_config`] (base configuration with a
//! crash/repair process) and [`fault_policies`] ({ORR, ReORR, WRR,
//! Dynamic} — the roster the failure experiments compare).

use hetsched_cluster::faults::FaultSpec;
use hetsched_cluster::ClusterConfig;
use hetsched_desim::Rng64;
use hetsched_dist::{ArrivalProcess, Hyperexp2, IidArrivals};
use hetsched_metrics::DeviationTracker;
use hetsched_policies::{PolicySpec, RandomDispatch, RoundRobinDispatch};

use hetsched_cluster::{DispatchCtx, Policy};

/// Table 1's machine speeds: {1, 1.5, 2, 3, 5, 9, 10}.
pub fn table1_speeds() -> Vec<f64> {
    vec![1.0, 1.5, 2.0, 3.0, 5.0, 9.0, 10.0]
}

/// Table 3's base configuration: 15 computers, aggregate speed 44.
pub fn table3_speeds() -> Vec<f64> {
    vec![
        1.0, 1.0, 1.0, 1.0, 1.0, // 5 × 1.0
        1.5, 1.5, 1.5, 1.5, // 4 × 1.5
        2.0, 2.0, 2.0, // 3 × 2.0
        5.0, 10.0, 12.0, // 1 × 5.0, 1 × 10.0, 1 × 12.0
    ]
}

/// Figure 2's workload fractions for 8 computers.
pub fn fig2_fractions() -> Vec<f64> {
    vec![0.35, 0.22, 0.15, 0.12, 0.04, 0.04, 0.04, 0.04]
}

/// Figure 3: 18 computers — 2 fast (speed `fast`) and 16 slow (speed 1)
/// at the default 70% utilization.
pub fn fig3_config(fast: f64) -> ClusterConfig {
    let mut speeds = vec![1.0; 16];
    speeds.push(fast);
    speeds.push(fast);
    ClusterConfig::paper_default(&speeds)
}

/// The fast-machine speeds swept in Figure 3.
pub fn fig3_sweep() -> Vec<f64> {
    vec![1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 14.0, 20.0]
}

/// Figure 4: `n` computers, half at speed 10 and half at speed 1, at the
/// default 70% utilization.
///
/// # Panics
/// Panics unless `n` is even and positive.
pub fn fig4_config(n: usize) -> ClusterConfig {
    assert!(
        n >= 2 && n.is_multiple_of(2),
        "figure 4 uses even system sizes"
    );
    let mut speeds = vec![1.0; n / 2];
    speeds.extend(std::iter::repeat_n(10.0, n / 2));
    ClusterConfig::paper_default(&speeds)
}

/// The system sizes swept in Figure 4.
pub fn fig4_sweep() -> Vec<usize> {
    vec![2, 4, 6, 8, 10, 12, 14, 16, 18, 20]
}

/// Figure 5: the Table-3 base configuration at utilization `rho`.
pub fn fig5_config(rho: f64) -> ClusterConfig {
    ClusterConfig::paper_default(&table3_speeds()).with_utilization(rho)
}

/// The utilizations swept in Figures 5 and 6.
pub fn fig5_sweep() -> Vec<f64> {
    vec![0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
}

/// Figure 6's policies: ORR with relative load-estimation errors
/// (negative = underestimate, §5.4) plus exact ORR and WRR for reference.
pub fn fig6_policies(errors: &[f64]) -> Vec<PolicySpec> {
    let mut v = vec![PolicySpec::orr(), PolicySpec::wrr()];
    v.extend(errors.iter().map(|&e| PolicySpec::orr_with_error(e)));
    v
}

/// The five algorithms compared throughout §5, in display order.
pub fn headline_policies() -> Vec<PolicySpec> {
    vec![
        PolicySpec::wran(),
        PolicySpec::oran(),
        PolicySpec::wrr(),
        PolicySpec::orr(),
        PolicySpec::DynamicLeastLoad,
    ]
}

/// The fault-experiment configuration: the Table-3 base system at
/// utilization `rho` with exponential crash/repair processes of the
/// given mean time between failures and mean time to repair (seconds).
/// In-flight jobs on a crashed machine are lost (the paper's machines
/// have no checkpointing); override `faults.on_crash` for the other
/// semantics.
pub fn faults_config(rho: f64, mtbf: f64, mttr: f64) -> ClusterConfig {
    let mut cfg = fig5_config(rho);
    cfg.faults = Some(FaultSpec::exponential(mtbf, mttr));
    cfg
}

/// The policies the failure experiments compare: static ORR (keeps its
/// full-set α), re-optimizing ORR, WRR, and the dynamic yardstick.
pub fn fault_policies() -> Vec<PolicySpec> {
    vec![
        PolicySpec::orr(),
        PolicySpec::reopt_orr(),
        PolicySpec::wrr(),
        PolicySpec::DynamicLeastLoad,
    ]
}

/// Which dispatcher to replay in [`fig2_deviations`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig2Dispatcher {
    /// Round-robin based dispatching (Algorithm 2).
    RoundRobin,
    /// Random based dispatching.
    Random,
}

/// Figure 2's dispatch-only experiment: 8 computers with
/// [`fig2_fractions`], hyperexponential arrivals with mean 2.2 s (CV 3),
/// 30 consecutive 120-second intervals. Returns the workload allocation
/// deviation of each interval.
///
/// Service plays no role in the deviation metric, so this replays the
/// dispatcher directly against the arrival process — the same decision
/// code the full simulator runs, without the servers.
pub fn fig2_deviations(dispatcher: Fig2Dispatcher, seed: u64) -> Vec<f64> {
    let fractions = fig2_fractions();
    let intervals = 30usize;
    let interval_len = 120.0;
    let horizon = intervals as f64 * interval_len;

    let mut arrivals = IidArrivals::new(Hyperexp2::from_mean_cv(2.2, 3.0));
    let mut rng_arrival = Rng64::stream(seed, 0);
    let mut rng_dispatch = Rng64::stream(seed, 2);
    let mut tracker = DeviationTracker::new(&fractions, interval_len, 0.0);

    let mut rr;
    let mut ran;
    let policy: &mut dyn Policy = match dispatcher {
        Fig2Dispatcher::RoundRobin => {
            rr = RoundRobinDispatch::new(&fractions, "RR");
            &mut rr
        }
        Fig2Dispatcher::Random => {
            ran = RandomDispatch::new(&fractions, "RAN");
            &mut ran
        }
    };

    let speeds = vec![1.0; fractions.len()];
    let qlens = vec![0usize; fractions.len()];
    let mut t = arrivals.next_interarrival(&mut rng_arrival);
    while t < horizon {
        let ctx = DispatchCtx {
            now: t,
            job_size: 1.0,
            queue_lens: &qlens,
            speeds: &speeds,
            true_load_index: None,
        };
        let target = policy.choose(&ctx, &mut rng_dispatch);
        tracker.record(t, target);
        t += arrivals.next_interarrival(&mut rng_arrival);
    }
    tracker.advance_to(horizon);
    tracker.deviations().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_aggregate_speed_is_44() {
        // §5.3: "aggregate processing speed is 44".
        let s = table3_speeds();
        assert_eq!(s.len(), 15);
        assert!((s.iter().sum::<f64>() - 44.0).abs() < 1e-12);
    }

    #[test]
    fn fig2_fractions_sum_to_one() {
        let f = fig2_fractions();
        assert_eq!(f.len(), 8);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig3_config_shape() {
        let cfg = fig3_config(20.0);
        assert_eq!(cfg.speeds.len(), 18);
        assert_eq!(cfg.speeds.iter().filter(|&&s| s == 20.0).count(), 2);
        assert_eq!(cfg.speeds.iter().filter(|&&s| s == 1.0).count(), 16);
        assert_eq!(cfg.utilization, 0.70);
    }

    #[test]
    fn fig4_config_shape() {
        let cfg = fig4_config(10);
        assert_eq!(cfg.speeds.len(), 10);
        assert_eq!(cfg.speeds.iter().filter(|&&s| s == 10.0).count(), 5);
    }

    #[test]
    #[should_panic(expected = "even system sizes")]
    fn fig4_rejects_odd() {
        fig4_config(3);
    }

    #[test]
    fn fig5_config_sets_utilization() {
        let cfg = fig5_config(0.9);
        assert_eq!(cfg.utilization, 0.9);
        assert_eq!(cfg.speeds, table3_speeds());
    }

    #[test]
    fn fig6_policy_count() {
        // The estimation errors of Figure 6 (a: under, b: over).
        let p = fig6_policies(&[-0.15, -0.10, -0.05, 0.05, 0.10, 0.15]);
        assert_eq!(p.len(), 8); // ORR + WRR + 6 error variants
    }

    #[test]
    fn fig2_produces_30_intervals() {
        let d = fig2_deviations(Fig2Dispatcher::RoundRobin, 1);
        assert_eq!(d.len(), 30);
        assert!(d.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn fig2_round_robin_beats_random() {
        // The figure's message: round-robin deviations are much lower
        // than random ones. A single 30-interval trace is noisy (the
        // CV-3 arrival process produces near-empty intervals that hurt
        // both dispatchers alike), so aggregate several seeds.
        let mut rr_all = Vec::new();
        let mut ran_all = Vec::new();
        for seed in 0..10 {
            rr_all.extend(fig2_deviations(Fig2Dispatcher::RoundRobin, seed));
            ran_all.extend(fig2_deviations(Fig2Dispatcher::Random, seed));
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&rr_all) < mean(&ran_all) / 2.0,
            "rr mean {} vs random mean {}",
            mean(&rr_all),
            mean(&ran_all)
        );
        // Median interval: round-robin should be far smoother.
        let median = |v: &[f64]| {
            let mut s = v.to_vec();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[s.len() / 2]
        };
        assert!(
            median(&rr_all) < median(&ran_all) / 3.0,
            "rr median {} vs random median {}",
            median(&rr_all),
            median(&ran_all)
        );
    }

    #[test]
    fn fig2_is_deterministic_per_seed() {
        let a = fig2_deviations(Fig2Dispatcher::Random, 9);
        let b = fig2_deviations(Fig2Dispatcher::Random, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn headline_has_five_policies() {
        assert_eq!(headline_policies().len(), 5);
    }

    #[test]
    fn faults_config_validates_and_carries_spec() {
        let cfg = faults_config(0.7, 3_600.0, 120.0);
        cfg.validate().unwrap();
        let spec = cfg.faults.expect("fault spec present");
        spec.validate().unwrap();
        assert_eq!(cfg.speeds, table3_speeds());
    }

    #[test]
    fn fault_roster_has_reopt_orr() {
        let roster = fault_policies();
        assert_eq!(roster.len(), 4);
        assert!(roster.iter().any(|p| p.label() == "ReORR"));
    }
}
