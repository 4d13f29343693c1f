//! The observability layer's non-perturbation contract, checked across
//! crate boundaries at the public-API level.
//!
//! The hard invariant: enabling observability must not change a single
//! bit of the simulation's results. The driver *reads* the servers at
//! window boundaries; it never schedules events and never draws from
//! the RNG streams. This suite pins that down with and without fault
//! injection, and across thread counts — plus sanity checks on the
//! kernel counters and the exported time series that only the obs layer
//! can provide.

use hetsched::prelude::*;

/// A small three-machine cluster with the deviation tracker on, sized so
/// a full experiment finishes in well under a second.
fn base_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_default(&[1.0, 2.0, 8.0]);
    cfg.job_sizes = DistSpec::Exponential { mean: 10.0 };
    cfg.horizon = 20_000.0;
    cfg.warmup = 2_000.0;
    cfg.deviation_interval = Some(500.0);
    cfg
}

fn experiment(cfg: ClusterConfig, threads: usize) -> Experiment {
    let mut e = Experiment::new("obs", cfg, PolicySpec::orr());
    e.replications = 3;
    e.threads = threads;
    e
}

/// Takes the obs reports out of an observed result so it can be compared
/// bit-for-bit against an obs-off baseline.
fn strip(mut r: ExperimentResult) -> (ExperimentResult, Vec<ObsReport>) {
    let reports = r
        .runs
        .iter_mut()
        .map(|run| run.obs.take().expect("obs was enabled on every run"))
        .collect();
    (r, reports)
}

#[test]
fn obs_on_is_bit_identical_to_obs_off() {
    let plain = base_cfg();
    let mut with_obs = plain.clone();
    with_obs.obs = Some(ObsSpec::every(500.0));

    let baseline = experiment(plain, 1).run().expect("baseline runs");
    let observed = experiment(with_obs, 1).run().expect("observed runs");
    let (observed, reports) = strip(observed);
    assert_eq!(observed, baseline, "probes perturbed the run");
    for report in &reports {
        // horizon 20 000 s at 500 s windows → 40 full windows.
        assert_eq!(report.len(), 40);
    }
}

#[test]
fn obs_reports_are_thread_count_invariant() {
    let mut cfg = base_cfg();
    cfg.obs = Some(ObsSpec::default());
    let one = experiment(cfg.clone(), 1).run().expect("threads=1");
    let eight = experiment(cfg, 8).run().expect("threads=8");
    assert_eq!(one, eight);
}

#[test]
fn obs_is_inert_under_fault_injection() {
    let mut plain = base_cfg();
    plain.faults = Some(FaultSpec {
        up_time: DistSpec::Exponential { mean: 4_000.0 },
        down_time: DistSpec::Exponential { mean: 500.0 },
        on_crash: JobFaultSemantics::Resubmit,
        notice_delay_mean: 10.0,
        servers: None,
    });
    let mut with_obs = plain.clone();
    with_obs.obs = Some(ObsSpec::default());

    let baseline = experiment(plain, 1).run().expect("faulty baseline");
    let observed = experiment(with_obs, 1).run().expect("faulty observed");
    let (observed, reports) = strip(observed);
    assert_eq!(observed, baseline, "probes perturbed a faulty run");
    // The runs actually exercised the fault machinery …
    assert!(baseline.runs.iter().any(|r| r.crashes > 0));
    // … and the up[i] probe saw at least one machine down at a boundary.
    let saw_down = reports.iter().any(|rep| {
        (0..3).any(|i| {
            rep.column(&format!("up[{i}]"))
                .expect("up column exists")
                .contains(&0.0)
        })
    });
    assert!(saw_down, "no down state ever sampled despite crashes");
}

#[test]
fn deviation_column_reproduces_the_tracker_bitwise() {
    let mut cfg = base_cfg();
    cfg.obs = Some(ObsSpec::every(500.0));
    let exp = experiment(cfg, 1);
    for rep in 0..exp.replications {
        let mut stats = exp.run_single(rep).expect("replication runs");
        let report = stats.obs.take().expect("obs enabled");
        let column = report.column("deviation").expect("deviation column");
        assert_eq!(
            column, stats.deviations,
            "obs deviation diverges from metrics::DeviationTracker at rep {rep}"
        );
    }
}

#[test]
fn kernel_counters_are_consistent() {
    let mut cfg = base_cfg();
    cfg.obs = Some(ObsSpec::default());
    let stats = experiment(cfg, 1).run_single(0).expect("run");
    let kernel = stats.obs.as_ref().expect("report").kernel;

    assert!(kernel.popped > 0);
    assert!(kernel.high_water > 0);
    // Every delivered event is one the run processed.
    assert_eq!(kernel.popped, stats.events_processed);
    // An arrival that re-times a busy server's wake supersedes its
    // pending firing, which counts as cancelled.
    assert!(kernel.cancelled > 0);
    // The next arrival is always pending at the horizon, so some
    // scheduled event was neither delivered nor cancelled.
    assert!(kernel.scheduled > kernel.popped + kernel.cancelled);
}

#[test]
fn jsonl_export_is_well_formed_and_monotone() {
    let mut cfg = base_cfg();
    cfg.obs = Some(ObsSpec::every(1_000.0));
    let stats = experiment(cfg, 1).run_single(0).expect("run");
    let report = stats.obs.expect("report");
    let jsonl = report.to_jsonl().expect("series serializes");

    let mut prev = f64::NEG_INFINITY;
    let mut lines = 0usize;
    for line in jsonl.lines() {
        let rest = line
            .strip_prefix("{\"t\":")
            .unwrap_or_else(|| panic!("line missing t field: {line}"));
        let t: f64 = rest[..rest.find(',').expect("more fields follow t")]
            .parse()
            .expect("t parses as a number");
        assert!(t > prev, "timestamps must be strictly increasing");
        prev = t;
        assert!(line.ends_with('}'));
        lines += 1;
    }
    assert_eq!(lines, 20); // 20 000 s / 1 000 s windows
    assert_eq!(report.len(), lines);

    // The CSV export agrees on shape: header + one row per window.
    let csv = report.to_csv();
    assert_eq!(csv.lines().count(), lines + 1);
    assert!(csv.starts_with("t,"));
}
