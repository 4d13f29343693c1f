//! Differential contracts of the argmin index and the policies that
//! read it.
//!
//! The load-bearing guarantee: how an argmin is found is a
//! *data-structure* choice, never a *decision* change. Concretely:
//!
//! * DYNAMIC (keys in an [`ArgminTree`]) reproduces the plain scan
//!   [`LeastLoadScan`], and JSQ-FULL (the simulation's true-load index)
//!   reproduces [`JsqScan`] — **bit-identical** `RunStats` up to the
//!   policy name — across seeds × faults {off, on} × engines {classic,
//!   conservative-parallel};
//! * the [`ArgminTree`] itself matches a strict-`<` linear scan (the
//!   leftmost-minimum rule every scan policy uses) after arbitrary
//!   update/decay/membership sequences, checked by a property test.

use hetsched::cluster::{ArgminTree, FleetGroup, Policy, Simulation};
use hetsched::desim::check::cases;
use hetsched::policies::{JsqScan, LeastLoadScan};
use hetsched::prelude::*;

/// A small, statistically alive heterogeneous system — large enough
/// that argmin ties and membership churn actually occur.
fn base_cfg(faults: bool) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_default(&[1.0, 1.0, 2.0, 2.0, 4.0, 4.0, 8.0, 8.0]);
    cfg.job_sizes = DistSpec::Exponential { mean: 10.0 };
    cfg.horizon = 15_000.0;
    cfg.warmup = 1_500.0;
    if faults {
        cfg.faults = Some(
            FaultSpec::exponential(3_000.0, 300.0).with_semantics(JobFaultSemantics::Resubmit),
        );
    }
    cfg
}

/// The scale axis's four-tier fleet of `n` servers (50% at speed 1, 30%
/// at 2, 10% at 5, 10% at 10, the paper's skew at scale) with a short
/// horizon of about 4,700 arrivals.
fn fleet_cfg(n: usize) -> ClusterConfig {
    let (slow, mid, fast) = (n / 2, 3 * n / 10, n / 10);
    let groups = [
        (slow, 1.0),
        (mid, 2.0),
        (fast, 5.0),
        (n - slow - mid - fast, 10.0),
    ]
    .map(|(count, speed)| FleetGroup { count, speed });
    let mut cfg = ClusterConfig::paper_default_fleet(&groups);
    cfg.horizon = 200_000.0 / n as f64;
    cfg.warmup = cfg.horizon / 10.0;
    cfg
}

/// Runs one replication of `policy` on the classic engine
/// (`sim_threads == 0`) or the parallel one, and returns its stats
/// with the policy name blanked (the only field allowed to differ
/// between a policy and its scan).
fn run_anon(
    cfg: &ClusterConfig,
    policy: Box<dyn Policy>,
    sim_threads: usize,
    seed: u64,
) -> RunStats {
    let mut stats = if sim_threads == 0 {
        Simulation::new(cfg.clone(), policy, seed)
            .expect("valid run")
            .run()
    } else {
        ParallelSimulation::new(cfg.clone(), vec![policy], seed, sim_threads)
            .expect("valid run")
            .run()
    };
    stats.policy = String::new();
    stats
}

/// Each shipped policy and a builder of the scan it must match.
type Pair = (PolicySpec, fn(&ClusterConfig) -> Box<dyn Policy>);

fn pairs() -> [Pair; 2] {
    [
        (PolicySpec::DynamicLeastLoad, |cfg| {
            Box::new(LeastLoadScan::new(&cfg.speeds))
        }),
        (PolicySpec::JsqFull, |_| Box::new(JsqScan::new())),
    ]
}

/// Asserts that `spec` and its scan produce identical stats on `cfg`.
fn assert_pair(cfg: &ClusterConfig, (spec, scan): Pair, sim_threads: usize, seed: u64) {
    let shipped = spec.build(cfg).expect("policy builds");
    let a = run_anon(cfg, shipped, sim_threads, seed);
    let b = run_anon(cfg, scan(cfg), sim_threads, seed);
    assert_eq!(
        a,
        b,
        "{} diverged from its scan (N = {}, faults {}, sim_threads {sim_threads}, seed {seed})",
        spec.label(),
        cfg.speeds.len(),
        cfg.faults.is_some()
    );
}

/// Every pair is bit-identical across seeds × faults on the classic
/// sequential engine, and on the scale axis's fleets of 1,000 and
/// 10,000 servers.
#[test]
fn indexed_policies_match_scans_on_classic_engine() {
    for faults in [false, true] {
        let cfg = base_cfg(faults);
        for pair in pairs() {
            for seed in [11u64, 12, 13] {
                assert_pair(&cfg, pair, 0, seed);
            }
        }
    }
    for n in [1_000, 10_000] {
        for pair in pairs() {
            assert_pair(&fleet_cfg(n), pair, 0, 11);
        }
    }
}

/// The pairs stay bit-identical through the conservative parallel
/// engine (which routes believed-load updates through per-shard planes
/// and merges shard results deterministically).
#[test]
fn indexed_policies_match_scans_on_parallel_engine() {
    for faults in [false, true] {
        let cfg = base_cfg(faults);
        for pair in pairs() {
            assert_pair(&cfg, pair, 4, 11);
        }
    }
}

/// The strict-`<` linear scan the historical policies use: leftmost
/// minimum, absent entries (infinite keys) never win.
fn scan_argmin(keys: &[f64]) -> Option<usize> {
    let mut best: Option<usize> = None;
    let mut best_key = f64::INFINITY;
    for (i, &k) in keys.iter().enumerate() {
        if k < best_key {
            best_key = k;
            best = Some(i);
        }
    }
    best
}

/// After any sequence of point updates (including infinities for
/// membership changes and repeated decay-style rewrites), the
/// tree's argmin and minimum key equal the leftmost strict-< scan
/// minimum.
#[test]
fn argmin_tree_matches_linear_scan() {
    cases("argmin_tree_matches_linear_scan", 256, |g| {
        let len = g.draw(1usize..300);
        let ops = g.vec(0..300, |g| (g.any::<u16>(), g.draw(0u8..200)));
        let mut keys = vec![f64::INFINITY; len];
        let mut tree = ArgminTree::new(len);
        assert_eq!(tree.argmin(), scan_argmin(&keys));
        assert_eq!(tree.min_key(), f64::INFINITY);
        for (slot, mag) in ops {
            let i = slot as usize % len;
            // Magnitude 199 encodes "absent"; ties are common by design
            // (only 20 distinct finite keys), exercising the leftmost
            // tie-break.
            let key = if mag == 199 {
                f64::INFINITY
            } else {
                f64::from(mag % 20) * 0.5
            };
            keys[i] = key;
            tree.update(i, key);
            assert_eq!(tree.key(i), key);
            assert_eq!(tree.argmin(), scan_argmin(&keys));
            let min = tree.argmin().map_or(f64::INFINITY, |best| keys[best]);
            assert_eq!(tree.min_key(), min);
        }
        // A bulk reload from the same keys lands in the same state.
        let mut reloaded = ArgminTree::new(len);
        reloaded.reload(&keys);
        assert_eq!(reloaded.argmin(), tree.argmin());
        assert_eq!(reloaded.min_key(), tree.min_key());
        assert_eq!(ArgminTree::from_keys(&keys).argmin(), tree.argmin());
    });
}
