//! Cross-crate API integration: the workflows a downstream user runs.

use hetsched::cluster::Simulation;
use hetsched::prelude::*;
use hetsched::queueing::numeric;

fn small_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_default(&[1.0, 2.0, 8.0]);
    cfg.job_sizes = DistSpec::Exponential { mean: 10.0 };
    cfg.horizon = 30_000.0;
    cfg.warmup = 5_000.0;
    cfg
}

#[test]
fn every_policy_runs_end_to_end() {
    let cfg = small_cfg();
    let specs = [
        PolicySpec::wran(),
        PolicySpec::oran(),
        PolicySpec::wrr(),
        PolicySpec::orr(),
        PolicySpec::orr_with_error(0.10),
        PolicySpec::orr_with_error(-0.10),
        PolicySpec::DynamicLeastLoad,
        PolicySpec::Jsq { d: 2 },
        PolicySpec::Static {
            allocation: AllocationSpec::Equal,
            dispatcher: DispatcherSpec::RoundRobin,
        },
    ];
    for spec in specs {
        let mut exp = Experiment::new(spec.label(), cfg.clone(), spec);
        exp.replications = 2;
        let r = exp
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", spec.label()));
        assert!(r.mean_response_ratio.mean > 0.0, "{}", spec.label());
        assert!(
            r.runs.iter().all(|run| run.jobs_finished > 100),
            "{} finished too few jobs",
            spec.label()
        );
    }
}

#[test]
fn sita_runs_with_bounded_pareto_sizes() {
    let mut cfg = small_cfg();
    cfg.job_sizes = DistSpec::BoundedPareto {
        k: 1.0,
        p: 1000.0,
        alpha: 1.1,
    };
    let mut exp = Experiment::new("sita", cfg, PolicySpec::SitaE);
    exp.replications = 2;
    let r = exp.run().expect("SITA-E runs");
    assert!(r.mean_response_ratio.mean > 0.0);
}

#[test]
fn every_discipline_runs_end_to_end() {
    for disc in [
        DisciplineSpec::ProcessorSharing,
        DisciplineSpec::QuantumRoundRobin { quantum: 0.1 },
        DisciplineSpec::Fcfs,
    ] {
        let mut cfg = small_cfg();
        cfg.discipline = disc;
        let mut exp = Experiment::new("disc", cfg, PolicySpec::wrr());
        exp.replications = 2;
        let r = exp.run().unwrap_or_else(|e| panic!("{disc:?}: {e}"));
        assert!(r.mean_response_ratio.mean > 0.0, "{disc:?}");
    }
}

#[test]
fn experiment_results_serialize() {
    let mut exp = Experiment::new("json", small_cfg(), PolicySpec::orr());
    exp.replications = 2;
    let r = exp.run().expect("valid");
    let json = hetsched::json::to_string(&r);
    assert!(json.contains("\"policy\":\"ORR\""));
    let back: hetsched::experiment::ExperimentResult =
        hetsched::json::from_str(&json).expect("deserializes");
    assert_eq!(back, r);
}

#[test]
fn experiment_spec_serializes() {
    let mut exp = Experiment::new("spec", small_cfg(), PolicySpec::orr());
    // A u64 keeps every digit, so the largest seed reads back exactly.
    exp.base_seed = u64::MAX;
    let json = hetsched::json::to_string(&exp);
    assert!(
        json.contains("\"base_seed\":18446744073709551615"),
        "{json}"
    );
    let back: Experiment = hetsched::json::from_str(&json).expect("deserializes");
    assert_eq!(back, exp);
}

#[test]
fn closed_form_and_numeric_agree_on_the_fly() {
    // A downstream user can cross-check the allocation the library gives
    // them; make sure both entry points stay exposed and consistent.
    let sys = HetSystem::from_utilization(&[1.0, 2.0, 8.0], 0.7).expect("valid");
    let a = closed_form::optimized_allocation(&sys);
    let b = numeric::optimized_allocation_numeric(&sys, 1e-10);
    for (x, y) in a.iter().zip(&b) {
        assert!((x - y).abs() < 1e-7, "{a:?} vs {b:?}");
    }
}

#[test]
fn deviation_tracking_through_full_simulation() {
    let mut cfg = small_cfg();
    cfg.speeds = vec![1.0, 1.0];
    cfg.deviation_interval = Some(1_000.0);
    let mut exp = Experiment::new(
        "dev",
        cfg,
        PolicySpec::Static {
            allocation: AllocationSpec::Equal,
            dispatcher: DispatcherSpec::RoundRobin,
        },
    );
    exp.replications = 1;
    let r = exp.run().expect("valid");
    assert_eq!(r.runs[0].deviations.len(), 30);
    assert!(r.runs[0].deviations.iter().all(|&d| d < 0.05));
}

#[test]
fn deviation_uses_the_policys_own_fractions() {
    // A *heterogeneous* static policy must be measured against its own
    // target fractions: WRR on a skewed system has tiny deviation even
    // though its fractions are far from equal.
    let mut cfg = small_cfg(); // speeds [1, 2, 8] → weighted ≈ [.09, .18, .73]
    cfg.deviation_interval = Some(1_000.0);
    let mut exp = Experiment::new("dev-wrr", cfg, PolicySpec::wrr());
    exp.replications = 1;
    let r = exp.run().expect("valid");
    let mean_dev: f64 =
        r.runs[0].deviations.iter().sum::<f64>() / r.runs[0].deviations.len() as f64;
    assert!(
        mean_dev < 0.02,
        "WRR measured against its own fractions should be smooth, got {mean_dev}"
    );
}

#[test]
fn table_renders_experiment_results() {
    let mut exp = Experiment::new("table", small_cfg(), PolicySpec::wrr());
    exp.replications = 2;
    let r = exp.run().expect("valid");
    let mut t = Table::new(["policy", "ratio"]);
    t.row([r.policy.clone(), format!("{}", r.mean_response_ratio)]);
    let rendered = t.render();
    assert!(rendered.contains("WRR"));
    assert!(rendered.contains('±'));
}

/// `cfg` under `spec` is refused with an `InvalidConfig` naming `field`
/// by `Simulation::with_policies` (one policy per dispatcher) and by
/// `Experiment::run`, instead of passing both and panicking mid-run.
fn assert_refused(cfg: ClusterConfig, spec: PolicySpec, field: &str) {
    let policies = (0..cfg.dispatch.dispatchers)
        .map(|_| spec.build(&cfg))
        .collect::<Result<Vec<_>, _>>()
        .expect("the policy itself builds");
    let direct = Simulation::with_policies(cfg.clone(), policies, 1)
        .map(Simulation::run)
        .expect_err("Simulation::with_policies accepted the spec");
    let mut exp = Experiment::new("refused", cfg, spec);
    exp.replications = 1;
    let pooled = exp.run().expect_err("Experiment::run accepted the spec");
    for err in [direct, pooled] {
        match err.root_cause() {
            HetschedError::InvalidConfig(msg) => assert!(msg.contains(field), "{msg}"),
            other => panic!("expected an InvalidConfig naming {field}, got {other:?}"),
        }
    }
}

#[test]
fn hyperexponential_arrivals_below_cv_one_are_refused() {
    let mut cfg = small_cfg();
    cfg.arrivals = ArrivalSpec::Hyperexp { cv: 0.5 };
    assert_refused(cfg, PolicySpec::DynamicLeastLoad, "arrivals.cv");
}

#[test]
fn mmpp_arrivals_with_a_calm_burst_are_refused() {
    let mut cfg = small_cfg();
    cfg.arrivals = ArrivalSpec::Mmpp {
        burst_factor: 0.5,
        frac_bursty: 0.2,
        cycle: 500.0,
    };
    assert_refused(cfg, PolicySpec::DynamicLeastLoad, "arrivals.burst_factor");
}

#[test]
fn negative_mean_job_sizes_are_refused() {
    let mut cfg = small_cfg();
    cfg.job_sizes = DistSpec::Exponential { mean: -1.0 };
    assert_refused(cfg, PolicySpec::DynamicLeastLoad, "job_sizes");
}

#[test]
fn negative_load_update_delays_are_refused() {
    let mut cfg = small_cfg();
    cfg.load_updates.message_delay_mean = -1.0;
    assert_refused(
        cfg,
        PolicySpec::DynamicLeastLoad,
        "load_updates.message_delay_mean",
    );
}

#[test]
fn a_tier_with_more_dispatch_shards_than_servers_is_refused() {
    let mut cfg = small_cfg();
    cfg.speeds = vec![1.0, 4.0];
    cfg.malleable = Some(MalleableSpec::power_law(0.5, 0.5));
    cfg.dispatch.dispatchers = 4;
    assert_refused(cfg, PolicySpec::Hesrpt, "dispatch.dispatchers");
}

#[test]
fn a_round_robin_quantum_that_is_not_positive_is_refused() {
    let mut cfg = small_cfg();
    cfg.discipline = DisciplineSpec::QuantumRoundRobin { quantum: -1.0 };
    assert_refused(cfg, PolicySpec::DynamicLeastLoad, "discipline.quantum");
}

#[test]
fn an_obs_window_of_zero_is_refused() {
    let mut cfg = small_cfg();
    cfg.obs = Some(ObsSpec::every(0.0));
    assert_refused(cfg, PolicySpec::DynamicLeastLoad, "obs.sample_interval");
}

#[test]
fn an_obs_window_budget_overrun_is_refused() {
    // 1 ms windows over the paper's 4·10⁶ s horizon: 4·10⁹ rows.
    let mut cfg = ClusterConfig::paper_default(&[1.0, 2.0, 8.0]);
    cfg.obs = Some(ObsSpec::every(1e-3));
    assert_refused(cfg, PolicySpec::DynamicLeastLoad, "obs.sample_interval");
}

#[test]
fn a_deviation_window_budget_overrun_is_refused() {
    let mut cfg = ClusterConfig::paper_default(&[1.0, 2.0, 8.0]);
    cfg.deviation_interval = Some(1e-3);
    assert_refused(cfg, PolicySpec::DynamicLeastLoad, "deviation_interval");
}

#[test]
fn the_window_budget_admits_the_paper_scale_specs() {
    // The benchmark's lossy-faults plan (33,333 windows of 120 s over
    // the Table 3 fleet with lossy channels) and 10 s windows on the
    // paper's defaults stay inside the budget.
    let mut cfg = ClusterConfig::paper_default(&hetsched::scenarios::table3_speeds());
    cfg.channels = Some(ChannelSpec::uniform_loss(0.01));
    cfg.obs = Some(ObsSpec::default());
    cfg.deviation_interval = Some(120.0);
    cfg.validate().expect("lossy-faults' windows fit");
    cfg.obs = Some(ObsSpec::every(10.0));
    cfg.validate().expect("10 s windows fit");
}

#[test]
fn algorithm_1_refuses_loads_below_its_conditioning_floor() {
    // Below ρ ≈ 1e-8 the closed form's cancellation broke the fractions'
    // sum: the debug profile panicked, release returned NaN below 1e-16.
    use hetsched::queueing::closed_form::{try_optimized_allocation_for, MIN_UTILIZATION};
    for rho in [1e-8, 1e-9, 1e-17, 1e-7] {
        match try_optimized_allocation_for(&[1.0, 2.0], rho) {
            Err(HetschedError::BadParameter(msg)) => assert!(msg.contains("utilization"), "{msg}"),
            other => panic!("rho {rho}: expected a BadParameter, got {other:?}"),
        }
    }
    let at_floor = try_optimized_allocation_for(&[1.0, 2.0], MIN_UTILIZATION);
    assert_eq!(at_floor, Ok(vec![0.0, 1.0]));
    // One computer needs no closed form: it takes the whole load.
    assert_eq!(try_optimized_allocation_for(&[3.0], 1e-9), Ok(vec![1.0]));
    // A spec whose load is a normal number but below the floor is an
    // error of the run, not a panic.
    let mut exp = Experiment::new("tiny", orr_cfg(&[1.0, 2.0], 1e-9), PolicySpec::orr());
    exp.replications = 1;
    match exp.run().expect_err("ORR at rho 1e-9").root_cause() {
        HetschedError::BadParameter(msg) => assert!(msg.contains("utilization"), "{msg}"),
        other => panic!("expected a BadParameter, got {other:?}"),
    }
}

/// ORR on `paper_default(speeds)` at `utilization`, with a 100 s horizon
/// and no warm-up.
fn orr_cfg(speeds: &[f64], utilization: f64) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_default(speeds).with_utilization(utilization);
    cfg.horizon = 100.0;
    cfg.warmup = 0.0;
    cfg
}

/// `ClusterConfig::validate` and `Experiment::run` both refuse `cfg`
/// under ORR with an `InvalidConfig` naming `field`, before any policy
/// is built.
fn assert_refused_by_validate(cfg: ClusterConfig, field: &str) {
    let mut exp = Experiment::new("refused", cfg.clone(), PolicySpec::orr());
    exp.replications = 1;
    let pooled = exp.run().expect_err("Experiment::run accepted the spec");
    let direct = cfg.validate().expect_err("validate accepted the spec");
    for err in [direct, pooled] {
        match err.root_cause() {
            HetschedError::InvalidConfig(msg) => assert!(msg.contains(field), "{msg}"),
            other => panic!("expected an InvalidConfig naming {field}, got {other:?}"),
        }
    }
}

#[test]
fn a_utilization_whose_arrival_rate_underflows_is_refused() {
    assert_refused_by_validate(orr_cfg(&[1.0, 2.0], 5e-324), "utilization");
}

#[test]
fn a_utilization_whose_arrival_rate_is_subnormal_is_refused() {
    assert_refused_by_validate(orr_cfg(&[1.0, 2.0], 1e-320), "utilization");
}

#[test]
fn speeds_whose_sum_overflows_are_refused() {
    let cfg = orr_cfg(&[1e308, 1e308], 0.7);
    // Building the allocation without validating first is an error too.
    assert!(PolicySpec::orr().build(&cfg).is_err());
    assert_refused_by_validate(cfg, "speeds");
}
