//! Contracts of the unreliable-messaging layer, checked at the public
//! `Experiment` front-end.
//!
//! Two load-bearing guarantees:
//!
//! * **Reliable is invisible.** `channels: Some(ChannelSpec::reliable())`
//!   is bit-identical to `channels: None` — the channel layer must be
//!   structurally absent when every knob is zero, not merely "lossless
//!   with extra RNG draws". Checked with and without fault injection,
//!   through both engines (classic `sim_threads = 0` and the
//!   conservative parallel engine at `sim_threads = 4`).
//! * **Jobs are conserved.** Under any combination of loss, retry,
//!   hedging, per-plane loss, and partition windows, every counted job
//!   is finished, lost, or still in flight at the horizon:
//!   `jobs_counted == jobs_finished + jobs_lost + jobs_in_flight`.
//!   Checked as a property over many seeds and channel shapes.

use hetsched::prelude::*;

/// A small, statistically alive 8-computer system; four dispatch shards
/// so the parallel engine has real work to partition.
fn base_cfg(shards: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_default(&[1.0, 2.0, 4.0, 8.0, 1.0, 2.0, 4.0, 8.0]);
    cfg.job_sizes = DistSpec::Exponential { mean: 10.0 };
    cfg.horizon = 15_000.0;
    cfg.warmup = 1_500.0;
    if shards > 1 {
        cfg.dispatch = DispatchSpec::sharded(shards, SplitterSpec::IidRandom);
    }
    cfg
}

fn experiment(cfg: ClusterConfig, sim_threads: usize) -> Experiment {
    let mut e = Experiment::new("channels", cfg, PolicySpec::orr());
    e.replications = 2;
    e.sim_threads = sim_threads;
    e
}

/// `ChannelSpec::reliable()` reproduces the no-channels run bit for bit
/// across faults {off, on} × engines {classic, parallel×4}.
#[test]
fn reliable_channels_are_bit_identical_to_none() {
    for faults in [false, true] {
        for sim_threads in [0usize, 4] {
            let shards = if sim_threads > 0 { 4 } else { 1 };
            let mut plain = base_cfg(shards);
            if faults {
                plain.faults = Some(
                    FaultSpec::exponential(3_000.0, 300.0)
                        .with_semantics(JobFaultSemantics::Resubmit),
                );
            }
            let mut with_channels = plain.clone();
            with_channels.channels = Some(ChannelSpec::reliable());

            let baseline = experiment(plain, sim_threads);
            let observed = experiment(with_channels, sim_threads);
            for rep in 0..baseline.replications {
                let a = baseline.run_single(rep).expect("baseline runs");
                let b = observed.run_single(rep).expect("channelled runs");
                assert_eq!(
                    a, b,
                    "reliable channels perturbed a run \
                     (faults={faults}, sim_threads={sim_threads}, rep={rep})"
                );
            }
        }
    }
}

/// The channel shapes the conservation property sweeps: every recovery
/// tier plus per-plane asymmetries and a partition window.
fn channel_shapes() -> Vec<(&'static str, ChannelSpec)> {
    let blackout = {
        let mut c = ChannelSpec::reliable();
        c.load.partitions = vec![(4_000.0, 8_000.0)];
        c.dispatch.loss = 0.02;
        c
    };
    let skewed = {
        let mut c = ChannelSpec::reliable();
        c.dispatch.loss = 0.05;
        c.dispatch.duplicate = 0.02;
        c.dispatch.jitter = 2.0;
        c.load.loss = 0.20;
        c.sync.loss = 0.10;
        c
    };
    vec![
        ("fire-and-forget loss", ChannelSpec::uniform_loss(0.05)),
        (
            "loss + retry",
            ChannelSpec::uniform_loss(0.05).with_retry(RetrySpec::after(30.0)),
        ),
        (
            "loss + retry + hedge",
            ChannelSpec::uniform_loss(0.05)
                .with_retry(RetrySpec::after(30.0))
                .with_hedge(HedgeSpec { delay: 5.0 }),
        ),
        ("skewed planes", skewed.with_retry(RetrySpec::after(20.0))),
        ("load blackout", blackout),
    ]
}

/// Property: over many seeds and every channel shape, on both engines,
/// `jobs_counted == jobs_finished + jobs_lost + jobs_in_flight`.
#[test]
fn conservation_law_holds_across_seeds_and_channel_shapes() {
    for (label, spec) in channel_shapes() {
        for sim_threads in [0usize, 4] {
            let shards = if sim_threads > 0 { 4 } else { 1 };
            let mut cfg = base_cfg(shards);
            cfg.channels = Some(spec.clone());
            let mut exp = experiment(cfg, sim_threads);
            exp.replications = 10;
            for rep in 0..exp.replications {
                let r = exp.run_single(rep).expect("channelled run");
                assert_eq!(
                    r.jobs_counted,
                    r.jobs_finished + r.jobs_lost + r.jobs_in_flight,
                    "conservation broke ({label}, sim_threads={sim_threads}, rep={rep}): \
                     counted {} != finished {} + lost {} + in-flight {}",
                    r.jobs_counted,
                    r.jobs_finished,
                    r.jobs_lost,
                    r.jobs_in_flight
                );
                assert!(r.jobs_counted > 0, "{label}: grid point simulated nothing");
                if label != "load blackout" {
                    assert!(
                        r.msgs_lost > 0,
                        "{label}: loss knob never fired (seed {rep})"
                    );
                }
            }
        }
    }
}

/// Recovery actually recovers: with retry configured, dispatch-plane
/// loss costs latency instead of jobs, and hedging burns duplicates to
/// win races. The lost jobs reappear as retries/timeouts in the
/// counters — nothing vanishes silently.
#[test]
fn retry_and_hedging_trade_loss_for_latency() {
    let mut lossy = base_cfg(1);
    lossy.channels = Some(ChannelSpec::uniform_loss(0.05));
    let mut retry = base_cfg(1);
    retry.channels = Some(ChannelSpec::uniform_loss(0.05).with_retry(RetrySpec::after(30.0)));
    let mut hedged = base_cfg(1);
    hedged.channels = Some(
        ChannelSpec::uniform_loss(0.05)
            .with_retry(RetrySpec::after(30.0))
            .with_hedge(HedgeSpec { delay: 5.0 }),
    );

    let ff = experiment(lossy, 0).run_single(0).expect("fire-and-forget");
    let re = experiment(retry, 0).run_single(0).expect("retry");
    let he = experiment(hedged, 0).run_single(0).expect("hedged");

    assert!(ff.jobs_lost > 0, "5% loss never dropped a job");
    assert_eq!(ff.retries, 0);
    assert!(
        re.jobs_lost < ff.jobs_lost,
        "retry did not reduce job loss ({} vs {})",
        re.jobs_lost,
        ff.jobs_lost
    );
    assert!(re.retries > 0 && re.timeouts > 0);
    assert!(he.hedges_won > 0, "hedging never won a race");
    assert!(
        he.jobs_lost <= re.jobs_lost,
        "hedging increased job loss ({} vs {})",
        he.jobs_lost,
        re.jobs_lost
    );
}

/// A load-plane blackout degrades the naive dynamic policy's
/// information but is survivable: the staleness-aware variant counts
/// its decisions on stale data, and both conserve jobs.
#[test]
fn stale_aware_policy_counts_decisions_under_blackout() {
    let mut cfg = base_cfg(1);
    let mut spec = ChannelSpec::reliable();
    spec.load.partitions = vec![(3_000.0, 15_000.0)];
    cfg.channels = Some(spec);

    let mut exp = Experiment::new("blackout", cfg, PolicySpec::stale_aware_dynamic(30.0));
    exp.replications = 2;
    let r = exp.run_single(0).expect("stale-aware run");
    assert!(
        r.stale_decisions > 0,
        "a 12 000 s load blackout produced no stale decisions"
    );
    assert_eq!(
        r.jobs_counted,
        r.jobs_finished + r.jobs_lost + r.jobs_in_flight
    );
}

/// A lossy sync plane drops each parallel shard's copy of a round on its
/// own, so `syncs_applied` counts the rounds at least one shard merged,
/// as the classic engine counts them. This run's window holds 28 rounds
/// (one per 500 s from 1,500 s to 15,000 s); at loss 0.5 the two shards
/// merge 14 and 12 of them, and 19 have at least one merge.
#[test]
fn lossy_sync_counts_rounds_any_parallel_shard_merged() {
    use hetsched::cluster::pdes::{shard_config, shard_ranges};
    let run = |sync_loss: f64| {
        let mut cfg = ClusterConfig::paper_default(&[5.0, 3.0, 2.0, 1.5, 1.0, 1.0, 1.0, 1.0]);
        cfg.horizon = 15_000.0;
        cfg.warmup = 1_500.0;
        cfg.dispatch =
            DispatchSpec::sharded(2, SplitterSpec::IidRandom).with_sync(SyncSpec::every(500.0));
        let mut channels = ChannelSpec::reliable();
        channels.sync.loss = sync_loss;
        cfg.channels = Some(channels);
        let policies = shard_ranges(cfg.speeds.len(), 2)
            .iter()
            .map(|r| PolicySpec::wrr().build(&shard_config(&cfg, r)))
            .collect::<Result<Vec<_>, _>>()
            .expect("WRR builds per shard");
        ParallelSimulation::new(cfg, policies, 7, 2)
            .expect("valid run")
            .run()
            .syncs_applied
    };
    assert_eq!(run(0.0), 28, "a reliable plane applies every round");
    assert_eq!(run(0.5), 19, "rounds at least one of the two shards merged");
}
