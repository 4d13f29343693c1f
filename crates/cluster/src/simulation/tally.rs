//! The measurement seam: everything a model records for its run's
//! [`RunStats`], the measurement-window counters among it, and
//! [`finalize`], the close-out both engines share.

use hetsched_desim::FelStats;
use hetsched_metrics::{DeviationTracker, Histogram, Welford};

use super::Model;
use crate::config::{ClusterConfig, PerServerMode};
use crate::job::JobRecord;
use crate::malleable::{ClassStats, MalleableStats};
use crate::obs::{merge_obs_reports, ObsDriver, ObsReport, WindowBuckets};
use crate::policy::Policy;
use crate::results::{RunStats, ServerStats, ShardStats};
use crate::server::Server;
use crate::trace::{JobTrace, TraceCollector};

/// The measurement-window counters: zeroed together at warm-up end,
/// and summed across a run's models in model order.
#[derive(Default)]
pub(super) struct Window {
    pub(super) jobs_lost: u64,
    pub(super) jobs_resubmitted: u64,
    pub(super) jobs_restarted: u64,
    /// One entry per sync round: whether at least one of the model's
    /// shards merged it.
    pub(super) sync_rounds: Vec<bool>,
    pub(super) msgs_lost: u64,
    pub(super) retries: u64,
    pub(super) timeouts: u64,
    pub(super) hedges_won: u64,
    pub(super) hedges_lost: u64,
    /// Lost messages attributed per server (dispatch copies/acks to the
    /// target, load updates to the sender; sync losses have no server).
    pub(super) server_msgs_lost: Vec<u64>,
    /// Response time and ratio of the counted jobs an outage touched.
    degraded_time: Welford,
    degraded_ratio: Welford,
}

impl Window {
    fn new(servers: usize) -> Self {
        Window {
            server_msgs_lost: vec![0; servers],
            degraded_time: Welford::new(),
            degraded_ratio: Welford::new(),
            ..Window::default()
        }
    }

    /// Adds the next model's counters. Every model sees the same sync
    /// rounds, and a round counts as applied when any model merged it:
    /// a lossy sync plane drops each shard's copy independently.
    fn absorb(&mut self, other: &Window) {
        debug_assert_eq!(self.sync_rounds.len(), other.sync_rounds.len());
        for (applied, theirs) in self.sync_rounds.iter_mut().zip(&other.sync_rounds) {
            *applied |= theirs;
        }
        self.jobs_lost += other.jobs_lost;
        self.jobs_resubmitted += other.jobs_resubmitted;
        self.jobs_restarted += other.jobs_restarted;
        self.msgs_lost += other.msgs_lost;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.hedges_won += other.hedges_won;
        self.hedges_lost += other.hedges_lost;
        self.server_msgs_lost.extend(&other.server_msgs_lost);
        self.degraded_time.merge(&other.degraded_time);
        self.degraded_ratio.merge(&other.degraded_ratio);
    }
}

/// The measurement seam's state.
#[derive(Default)]
pub(super) struct Tally {
    pub(super) obs: Option<ObsDriver>,
    deviation: Option<DeviationTracker>,
    trace: Option<TraceCollector>,
    pub(super) jobs_counted: u64,
    /// Counted jobs routed per shard (reported only for `D > 1`).
    pub(super) shard_routed: Vec<u64>,
    /// Response-ratio accumulators. The ratio divides the response by
    /// the job's speed-1 service demand, which is also its inherent
    /// size, so they report the slowdown objective as well. The sketch
    /// gives the run's p95/p99, and is its `ratio_histogram` when
    /// [`ClusterConfig::track_ratio_histogram`] is set.
    resp_time: Welford,
    resp_ratio: Welford,
    ratios: Histogram,
    /// Per-class `(response, slowdown)` accumulators, indexed by stamped
    /// class id; only allocated when stamping is active.
    class_stats: Option<Vec<(Welford, Welford)>>,
    /// Stale-decision count at warmup end, subtracted at finalize so the
    /// reported counter covers the measurement window only.
    stale_baseline: u64,
    pub(super) window: Window,
}

impl Tally {
    /// The recorders `cfg` asks for. The deviation tracker and the
    /// observability plane both compare realized dispatch fractions with
    /// the lead policy's `expected` fractions; policies without a target
    /// (dynamic ones) are measured against an equal split. An absent or
    /// all-rigid malleable section builds no class accumulators and no
    /// slowdown obs column.
    pub(super) fn new(cfg: &ClusterConfig, expected: Option<Vec<f64>>, channels: bool) -> Self {
        let n = cfg.speeds.len();
        let expected = expected.unwrap_or_else(|| vec![1.0 / n as f64; n]);
        let stamping = cfg.malleable.as_ref().filter(|m| m.active());
        Tally {
            deviation: cfg
                .deviation_interval
                .map(|iv| DeviationTracker::new(&expected, iv, 0.0)),
            obs: cfg.obs.as_ref().map(|spec| {
                ObsDriver::new(
                    spec,
                    n,
                    expected,
                    cfg.dispatch.dispatchers,
                    channels,
                    stamping.is_some(),
                )
            }),
            // `ClusterConfig::validate` makes the only check the
            // collector's constructor makes.
            trace: cfg
                .trace
                .map(|spec| TraceCollector::new(spec).expect("trace spec validated")),
            jobs_counted: 0,
            shard_routed: vec![0; cfg.dispatch.dispatchers],
            resp_time: Welford::new(),
            resp_ratio: Welford::new(),
            ratios: Histogram::new(),
            class_stats: stamping
                .map(|spec| vec![(Welford::new(), Welford::new()); spec.classes.len() + 1]),
            stale_baseline: 0,
            window: Window::new(n),
        }
    }

    /// Counts shard `shard`'s dispatch to `target` in the deviation
    /// tracker and the observability plane.
    #[inline]
    pub(super) fn on_dispatch(&mut self, shard: usize, target: usize, now: f64) {
        if let Some(dev) = &mut self.deviation {
            dev.record(now, target);
        }
        if let Some(obs) = &mut self.obs {
            obs.on_dispatch(shard, target);
        }
    }

    /// Completion bookkeeping for one job leaving a server or the
    /// allocation tier. `server` is what the trace records: the job's
    /// own server, or the shard's first server for a tier job, which
    /// ran on a fractional slice of the whole shard.
    ///
    /// Slowdown (`response / inherent size`) is the response ratio: the
    /// ratio divides by the speed-1 service demand, which is the
    /// inherent size. The per-class table and the obs slowdown column
    /// are therefore fed `ratio`.
    #[inline]
    pub(super) fn complete(&mut self, rec: JobRecord, server: usize, now: f64) {
        if let Some(obs) = &mut self.obs {
            obs.on_completion();
        }
        if !rec.counted {
            return;
        }
        let response = now - rec.arrival;
        if let Some(obs) = &mut self.obs {
            obs.on_response(response);
        }
        self.resp_time.push(response);
        let ratio = response / rec.size;
        self.resp_ratio.push(ratio);
        self.ratios.record(ratio);
        if let Some(stats) = &mut self.class_stats {
            let (resp, slow) = &mut stats[usize::from(rec.class)];
            resp.push(response);
            slow.push(ratio);
            if let Some(obs) = &mut self.obs {
                obs.on_slowdown(ratio);
            }
        }
        if rec.degraded {
            self.window.degraded_time.push(response);
            self.window.degraded_ratio.push(ratio);
        }
        if let Some(tr) = &mut self.trace {
            tr.record(JobTrace {
                arrival: rec.arrival,
                completion: now,
                size: rec.size,
                server,
            });
        }
    }

    /// Folds the next model's tally into this one, in model order.
    /// Welford moments merge exactly (Chan et al.), the response-ratio
    /// sketches bucket by bucket, traces by absorption, per-class tables
    /// elementwise (every model sees the same malleable spec), and
    /// per-shard and per-server vectors concatenate.
    fn absorb(&mut self, other: Tally) {
        self.jobs_counted += other.jobs_counted;
        self.shard_routed.extend(other.shard_routed);
        self.resp_time.merge(&other.resp_time);
        self.resp_ratio.merge(&other.resp_ratio);
        self.ratios.merge(&other.ratios);
        if let (Some(acc), Some(more)) = (&mut self.class_stats, &other.class_stats) {
            for ((resp, slow), (r, s)) in acc.iter_mut().zip(more) {
                resp.merge(r);
                slow.merge(s);
            }
        }
        if let (Some(acc), Some(more)) = (&mut self.trace, other.trace) {
            acc.absorb(more);
        }
        self.window.absorb(&other.window);
    }
}

impl<P: Policy> Model<P> {
    /// Makes the obs driver, when there is one, keep every window's
    /// response buckets: a shard model of a `D > 1` parallel run, whose
    /// merged report pools them.
    pub(crate) fn keep_obs_windows(&mut self) {
        if let Some(obs) = &mut self.tally.obs {
            obs.keep_windows();
        }
    }

    /// Warm-up end: every measurement-window quantity restarts, so
    /// statistics cover only the steady state.
    pub(super) fn end_warmup(&mut self, now: f64) {
        for s in &mut self.servers {
            s.reset_window(now);
        }
        self.tally.window = Window::new(self.servers.len());
        self.tally.stale_baseline = self.policies.iter().map(|p| p.stale_decisions()).sum();
        // The obs utilization baselines rebase with the servers' busy
        // integrals.
        if let Some(obs) = &mut self.tally.obs {
            obs.on_warmup_reset();
        }
    }
}

/// Closes out a run: each model's own close-out, then one fold in model
/// order into the run's [`RunStats`].
///
/// `parts` pairs every model with its kernel's processed-event count and
/// FEL statistics: one model for the classic engine (whatever its
/// dispatcher count) and for a `D = 1` parallel run, one per shard for
/// the parallel engine. Folding in model order makes the result the same
/// at every thread count. Each model's tally folds into the first (see
/// `Tally::absorb`); servers concatenate in model order (shard-major,
/// which is global server order). A single model folds to exactly its
/// own numbers. Only the obs report needs a one-model case for that
/// (otherwise merged by [`merge_obs_reports`]).
pub(crate) fn finalize<P: Policy>(
    cfg: &ClusterConfig,
    parts: Vec<(Model<P>, u64, FelStats)>,
) -> RunStats {
    let horizon = cfg.horizon;
    let mut models: Vec<Model<P>> = Vec::with_capacity(parts.len());
    let mut obs_reports: Vec<(ObsReport, Vec<WindowBuckets>)> = Vec::new();
    let mut events = 0u64;
    let mut kernel = FelStats::default();
    for (mut model, model_events, model_kernel) in parts {
        // Close the remaining whole observability windows *before* the
        // servers flush their integrals at the horizon: every boundary
        // up to the horizon reads state as of that boundary.
        if let Some(mut obs) = model.tally.obs.take() {
            obs.flush_to(horizon, &model.servers, model.slab.len());
            let windows = obs.take_windows();
            obs_reports.push((obs.into_report(model_kernel), windows));
        }
        for s in &mut model.servers {
            s.finalize(horizon);
        }
        if let Some(dev) = &mut model.tally.deviation {
            dev.advance_to(horizon);
        }
        events += model_events;
        kernel.scheduled += model_kernel.scheduled;
        kernel.popped += model_kernel.popped;
        kernel.cancelled += model_kernel.cancelled;
        // Shards run concurrently, so the aggregate pressure gauge is
        // the sum of per-shard high-water marks (an upper bound on
        // simultaneous live events).
        kernel.high_water += model_kernel.high_water;
        models.push(model);
    }

    // Deviation curves share interval and origin, so windows align; the
    // curve is the elementwise mean. One model's mean is its own curve
    // bit for bit: a one-term sum of a non-negative value, divided by 1.
    let curves: Vec<&[f64]> = models
        .iter()
        .filter_map(|m| m.tally.deviation.as_ref().map(|d| d.deviations()))
        .collect();
    let len = curves.iter().map(|c| c.len()).min().unwrap_or(0);
    let deviations: Vec<f64> = (0..len)
        .map(|i| curves.iter().map(|c| c[i]).sum::<f64>() / curves.len() as f64)
        .collect();

    let sizes: Vec<usize> = models.iter().map(|m| m.servers.len()).collect();
    let obs = match obs_reports.len() {
        0 | 1 => obs_reports.pop().map(|(report, _)| report),
        _ => Some(merge_obs_reports(obs_reports, &sizes, kernel)),
    };
    let stale_decisions = models
        .iter()
        .map(|m| {
            m.policies
                .iter()
                .map(|p| p.stale_decisions())
                .sum::<u64>()
                .saturating_sub(m.tally.stale_baseline)
        })
        .sum();

    let mut tallies = models.iter_mut().map(|m| std::mem::take(&mut m.tally));
    let mut tally = tallies.next().expect("a run closes at least one model");
    tallies.for_each(|t| tally.absorb(t));
    let Tally {
        jobs_counted,
        shard_routed: routed,
        resp_time,
        resp_ratio,
        ratios,
        class_stats,
        trace,
        window,
        ..
    } = tally;
    let [p95, p99] = ratios.quantiles([0.95, 0.99]).unwrap_or([0.0; 2]);

    // Dispatch fractions are recomputed against the run's total.
    let total_dispatched: u64 = models
        .iter()
        .flat_map(|m| &m.servers)
        .map(Server::dispatched)
        .sum();
    let servers: Vec<ServerStats> = models
        .iter()
        .flat_map(|m| &m.servers)
        .zip(&window.server_msgs_lost)
        .map(|(s, &msgs_lost)| ServerStats {
            speed: s.speed(),
            dispatched: s.dispatched(),
            completed: s.completed(),
            utilization: s.utilization(),
            mean_queue_len: s.mean_queue_len(),
            dispatch_fraction: s.dispatched() as f64 / total_dispatched.max(1) as f64,
            availability: s.availability(),
            downtime: s.downtime(),
            crashes: s.crashes(),
            msgs_lost,
        })
        .collect();
    let total_speed: f64 = servers.iter().map(|s| s.speed).sum();
    let realized_utilization =
        servers.iter().map(|s| s.utilization * s.speed).sum::<f64>() / total_speed;
    let availability = servers
        .iter()
        .map(|s| s.availability * s.speed)
        .sum::<f64>()
        / total_speed;

    // One routing entry per classic dispatcher or per parallel shard;
    // shard detail only exists for a real multi-dispatcher tier, so a
    // D = 1 run reports the pre-tier shape (empty vec).
    let total_routed: u64 = routed.iter().sum();
    let shards: Vec<ShardStats> = if routed.len() > 1 {
        routed
            .iter()
            .map(|&jobs| ShardStats {
                jobs,
                share: jobs as f64 / total_routed.max(1) as f64,
            })
            .collect()
    } else {
        Vec::new()
    };

    // Every stamped class id appears even with zero completions.
    let classes: Vec<ClassStats> = class_stats.map_or_else(Vec::new, |stats| {
        stats
            .iter()
            .enumerate()
            .map(|(c, (resp, slow))| ClassStats {
                class: c as u16,
                count: resp.count(),
                mean_slowdown: slow.mean(),
                mean_response: resp.mean(),
            })
            .collect()
    });
    let tiers = || models.iter().filter_map(|m| m.tier.as_ref());
    let malleable = tiers().next().is_some().then(|| {
        let runtimes = || tiers().flat_map(|t| &t.runtimes);
        MalleableStats {
            malleable_jobs: tiers().map(|t| t.malleable_jobs).sum(),
            reallocations: runtimes().map(|r| r.reallocations).sum(),
            max_cores_in_use: runtimes().map(|r| r.max_cores_in_use).sum(),
            fleet_cores: servers.len() as f64,
        }
    });

    let mut stats = RunStats {
        policy: models[0].policies[0].name(),
        jobs_counted,
        jobs_finished: resp_ratio.count(),
        mean_response_time: resp_time.mean(),
        mean_response_ratio: resp_ratio.mean(),
        fairness: resp_ratio.std_dev(),
        p95_response_ratio: p95,
        p99_response_ratio: p99,
        crashes: servers.iter().map(|s| s.crashes).sum(),
        servers,
        deviations,
        ratio_histogram: cfg.track_ratio_histogram.then_some(ratios),
        trace,
        events_processed: events,
        realized_utilization,
        jobs_lost: window.jobs_lost,
        jobs_resubmitted: window.jobs_resubmitted,
        jobs_restarted: window.jobs_restarted,
        availability,
        // An empty accumulator's mean is 0.
        degraded_jobs: window.degraded_ratio.count(),
        mean_degraded_response_time: window.degraded_time.mean(),
        mean_degraded_response_ratio: window.degraded_ratio.mean(),
        obs,
        shards,
        syncs_applied: window
            .sync_rounds
            .iter()
            .filter(|&&applied| applied)
            .count() as u64,
        msgs_lost: window.msgs_lost,
        retries: window.retries,
        timeouts: window.timeouts,
        hedges_won: window.hedges_won,
        hedges_lost: window.hedges_lost,
        stale_decisions,
        // Conservation law: counted = finished + lost + in flight.
        jobs_in_flight: models
            .iter()
            .map(|m| m.slab.iter().filter(|r| r.counted).count() as u64)
            .sum(),
        server_summary: None,
        // Slowdown is the response ratio (see `Tally::complete`).
        mean_slowdown: resp_ratio.mean(),
        p95_slowdown: p95,
        p99_slowdown: p99,
        classes,
        malleable,
    };
    if cfg.per_server == PerServerMode::Summary {
        stats.collapse_per_server();
    }
    debug_assert_eq!(
        stats.jobs_counted,
        stats.jobs_finished + stats.jobs_lost + stats.jobs_in_flight,
        "job conservation: counted = finished + lost + in flight"
    );
    stats
}
