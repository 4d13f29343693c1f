//! Analytic-vs-simulated validation.
//!
//! Under Poisson arrivals the M/M/1-PS formulas of the paper's §2.3 are
//! exact, so the simulator must reproduce them — this is the strongest
//! end-to-end correctness check the reproduction has: it exercises the
//! event kernel, the PS discipline, the dispatchers, and the metric
//! pipeline against closed forms derived independently of all of them.

use hetsched::prelude::*;
use hetsched::queueing::{closed_form, objective};

/// Simulated mean response ratio of `spec` under Poisson arrivals and the
/// given job sizes.
fn simulate(speeds: &[f64], rho: f64, sizes: DistSpec, spec: PolicySpec, reps: u64) -> f64 {
    let mut cfg = ClusterConfig::paper_default(speeds).with_utilization(rho);
    cfg.job_sizes = sizes;
    cfg.arrivals = ArrivalSpec::Poisson;
    cfg.horizon = 400_000.0;
    cfg.warmup = 100_000.0;
    let mut exp = Experiment::new("validation", cfg, spec);
    exp.replications = reps;
    exp.run()
        .expect("valid experiment")
        .mean_response_ratio
        .mean
}

#[test]
fn single_server_matches_mm1_ps() {
    // One speed-1 machine at ρ = 0.7: R̄ = 1/(1−ρ) = 10/3.
    let sim = simulate(
        &[1.0],
        0.7,
        DistSpec::Exponential { mean: 10.0 },
        PolicySpec::wrr(),
        3,
    );
    let theory = 1.0 / (1.0 - 0.7);
    assert!(
        (sim - theory).abs() / theory < 0.05,
        "simulated {sim} vs theory {theory}"
    );
}

#[test]
fn ps_mean_is_insensitive_to_size_distribution() {
    // The PS insensitivity property: the mean response ratio depends on
    // the size distribution only through its mean. Exponential vs
    // Bounded Pareto with the same mean must agree. The heavy tail
    // (jobs up to 21600 s) needs the paper's full 4·10⁶-second horizon —
    // shorter windows censor the largest jobs and bias the mean down.
    let run = |sizes: DistSpec| {
        let mut cfg = ClusterConfig::paper_default(&[1.0, 2.0]).with_utilization(0.6);
        cfg.job_sizes = sizes;
        cfg.arrivals = ArrivalSpec::Poisson;
        let mut exp = Experiment::new("insensitivity", cfg, PolicySpec::wran());
        exp.replications = 3;
        exp.run().expect("valid").mean_response_ratio.mean
    };
    let exp_sizes = run(DistSpec::Exponential { mean: 76.8 });
    let bp_sizes = run(DistSpec::paper_job_sizes());
    assert!(
        (exp_sizes - bp_sizes).abs() / exp_sizes < 0.10,
        "exponential {exp_sizes} vs bounded-pareto {bp_sizes}"
    );
}

#[test]
fn weighted_random_matches_eq3_prediction() {
    // Random splitting of a Poisson stream gives independent Poisson
    // streams, so eq. (3) is exact for WRAN.
    let speeds = [1.0, 1.5, 4.0];
    let rho = 0.65;
    let sys = HetSystem::from_utilization(&speeds, rho).expect("valid");
    let predicted =
        objective::mean_response_ratio(&sys, &sys.weighted_allocation()).expect("feasible");
    let sim = simulate(
        &speeds,
        rho,
        DistSpec::Exponential { mean: 20.0 },
        PolicySpec::wran(),
        4,
    );
    assert!(
        (sim - predicted).abs() / predicted < 0.06,
        "simulated {sim} vs predicted {predicted}"
    );
}

#[test]
fn optimized_random_matches_eq3_prediction() {
    let speeds = [1.0, 1.0, 6.0, 10.0];
    let rho = 0.7;
    let sys = HetSystem::from_utilization(&speeds, rho).expect("valid");
    let alphas = closed_form::optimized_allocation(&sys);
    let predicted = objective::mean_response_ratio(&sys, &alphas).expect("feasible");
    let sim = simulate(
        &speeds,
        rho,
        DistSpec::Exponential { mean: 20.0 },
        PolicySpec::oran(),
        4,
    );
    assert!(
        (sim - predicted).abs() / predicted < 0.06,
        "simulated {sim} vs predicted {predicted}"
    );
}

#[test]
fn realized_utilization_matches_configuration() {
    let mut cfg = ClusterConfig::paper_default(&[1.0, 3.0]).with_utilization(0.55);
    cfg.job_sizes = DistSpec::Exponential { mean: 10.0 };
    cfg.arrivals = ArrivalSpec::Poisson;
    cfg.horizon = 400_000.0;
    cfg.warmup = 100_000.0;
    let mut exp = Experiment::new("util", cfg, PolicySpec::wrr());
    exp.replications = 3;
    let r = exp.run().expect("valid");
    let mean_util: f64 =
        r.runs.iter().map(|x| x.realized_utilization).sum::<f64>() / r.runs.len() as f64;
    assert!(
        (mean_util - 0.55).abs() < 0.02,
        "realized utilization {mean_util} vs configured 0.55"
    );
}

#[test]
fn littles_law_holds_per_run() {
    // L = λW: the time-average number of jobs in the system must equal
    // the arrival rate times the mean response time. This ties together
    // three independent measurement paths (time-weighted queue lengths,
    // job counting, and per-job response times).
    let mut cfg = ClusterConfig::paper_default(&[1.0, 2.0]).with_utilization(0.6);
    cfg.job_sizes = DistSpec::Exponential { mean: 10.0 };
    cfg.arrivals = ArrivalSpec::Poisson;
    cfg.horizon = 400_000.0;
    cfg.warmup = 100_000.0;
    let mut exp = Experiment::new("littles", cfg.clone(), PolicySpec::wrr());
    exp.replications = 3;
    let r = exp.run().expect("valid");
    let lambda = cfg.lambda();
    for run in &r.runs {
        let l: f64 = run.servers.iter().map(|s| s.mean_queue_len).sum();
        let lw = lambda * run.mean_response_time;
        assert!(
            (l - lw).abs() / lw < 0.05,
            "Little's law violated: L = {l}, λW = {lw}"
        );
    }
}

#[test]
fn extreme_load_does_not_panic() {
    // ρ = 0.98 with CV-3 arrivals and heavy-tailed sizes: queues grow
    // long and the epoch/cancellation machinery is stressed. The run
    // must complete and produce finite statistics.
    let mut cfg = ClusterConfig::paper_default(&[1.0, 1.0, 12.0]).with_utilization(0.98);
    cfg.horizon = 100_000.0;
    cfg.warmup = 10_000.0;
    let mut exp = Experiment::new("extreme", cfg, PolicySpec::orr());
    exp.replications = 2;
    let r = exp.run().expect("valid");
    assert!(r.mean_response_ratio.mean.is_finite());
    assert!(r.fairness.mean.is_finite());
    // Overloaded-in-practice underestimation also must not panic.
    let mut cfg2 = ClusterConfig::paper_default(&[1.0, 1.0, 12.0]).with_utilization(0.95);
    cfg2.horizon = 50_000.0;
    cfg2.warmup = 5_000.0;
    let mut exp2 = Experiment::new("unstable", cfg2, PolicySpec::orr_with_error(-0.3));
    exp2.replications = 1;
    let r2 = exp2.run().expect("valid");
    assert!(r2.mean_response_ratio.mean.is_finite());
}

#[test]
fn per_machine_utilization_matches_alpha() {
    // Under WRAN each machine's utilization is α_iλ/(s_iμ) = ρ for the
    // weighted scheme.
    let mut cfg = ClusterConfig::paper_default(&[1.0, 2.0, 5.0]).with_utilization(0.5);
    cfg.job_sizes = DistSpec::Exponential { mean: 10.0 };
    cfg.arrivals = ArrivalSpec::Poisson;
    cfg.horizon = 400_000.0;
    cfg.warmup = 100_000.0;
    let mut exp = Experiment::new("per-machine", cfg, PolicySpec::wran());
    exp.replications = 3;
    let r = exp.run().expect("valid");
    for (i, &u) in r.server_utilizations.iter().enumerate() {
        assert!(
            (u - 0.5).abs() < 0.03,
            "machine {i}: utilization {u}, weighted scheme should equalize at 0.5"
        );
    }
}

#[test]
fn pollaczek_khinchine_puts_fcfs_at_13x_ps() {
    // The discipline ablation's analytic yardstick: one M/G/1 queue with
    // the paper's BP(10, 21600, 1) sizes at ρ = 0.7. Pollaczek–Khinchine
    // gives the FCFS mean wait W = λE[S²]/(2(1−ρ)); PS responds in
    // E[S]/(1−ρ). E[S²] ≈ 2.16·10⁵ s² gives W ≈ 3280 s against a PS
    // response of 256 s: FCFS/PS ≈ 13.1.
    use hetsched::dist::{BoundedPareto, Moments};
    let bp = BoundedPareto::paper_default();
    let rho = 0.7;
    let lambda = rho / bp.mean();
    let fcfs = bp.mean() + lambda * bp.second_moment() / (2.0 * (1.0 - rho));
    let ps = bp.mean() / (1.0 - rho);
    assert!(
        (fcfs / ps - 13.1).abs() < 0.2,
        "FCFS/PS = {} expected ≈ 13.1 for BP(10, 21600, 1) at ρ = 0.7",
        fcfs / ps
    );
}
