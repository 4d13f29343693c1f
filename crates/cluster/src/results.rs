//! Run output statistics.
//!
//! [`RunStats`] carries the paper's three headline metrics — mean response
//! time, mean response ratio, fairness (the standard deviation of the
//! response ratio) — plus per-server detail (Table 1's dispatch
//! percentages, utilizations) and the optional Figure-2 deviation series.
//! Everything has a JSON form so the bench harness can archive raw
//! results.

/// Fleet size above which `per_server: summary` collapses the
/// per-server vectors. Below it the full vectors are cheap and the
/// historical shape is kept even in summary mode.
pub const PER_SERVER_SUMMARY_THRESHOLD: usize = 64;

/// `{min, mean, max, p99}` of one per-server metric across the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSummary {
    /// Smallest per-server value.
    pub min: f64,
    /// Arithmetic mean across servers.
    pub mean: f64,
    /// Largest per-server value.
    pub max: f64,
    /// 99th percentile (nearest-rank over the sorted per-server values).
    pub p99: f64,
}

hetsched_json::json_struct!(MetricSummary {
    min,
    mean,
    max,
    p99
});

impl MetricSummary {
    /// Summarizes `values` (empty input yields all-zero).
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return MetricSummary {
                min: 0.0,
                mean: 0.0,
                max: 0.0,
                p99: 0.0,
            };
        }
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        // Nearest-rank p99: the smallest value with at least 99% of the
        // fleet at or below it.
        let rank = ((0.99 * n as f64).ceil() as usize).clamp(1, n);
        MetricSummary {
            min: sorted[0],
            mean: sorted.iter().sum::<f64>() / n as f64,
            max: sorted[n - 1],
            p99: sorted[rank - 1],
        }
    }
}

/// Collapsed replacement for the per-server vector in large-fleet runs
/// (`per_server: summary`): one [`MetricSummary`] per hot metric plus
/// the fleet-wide totals that would otherwise be lost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSummarySet {
    /// Number of servers the summaries cover.
    pub count: usize,
    /// Summary of per-server utilizations.
    pub utilization: MetricSummary,
    /// Summary of per-server time-average queue lengths.
    pub mean_queue_len: MetricSummary,
    /// Summary of per-server dispatched-job counts.
    pub dispatched: MetricSummary,
    /// Summary of per-server dispatch fractions.
    pub dispatch_fraction: MetricSummary,
    /// Summary of per-server availabilities.
    pub availability: MetricSummary,
}

hetsched_json::json_struct!(ServerSummarySet {
    count,
    utilization,
    mean_queue_len,
    dispatched,
    dispatch_fraction,
    availability,
});

impl ServerSummarySet {
    /// Summarizes a per-server stats vector.
    pub fn of(servers: &[ServerStats]) -> Self {
        let col = |f: fn(&ServerStats) -> f64| -> MetricSummary {
            let values: Vec<f64> = servers.iter().map(f).collect();
            MetricSummary::of(&values)
        };
        ServerSummarySet {
            count: servers.len(),
            utilization: col(|s| s.utilization),
            mean_queue_len: col(|s| s.mean_queue_len),
            dispatched: col(|s| s.dispatched as f64),
            dispatch_fraction: col(|s| s.dispatch_fraction),
            availability: col(|s| s.availability),
        }
    }
}

/// Per-computer statistics over the measurement window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerStats {
    /// Relative speed.
    pub speed: f64,
    /// Jobs dispatched here after warmup.
    pub dispatched: u64,
    /// Jobs completed here after warmup (regardless of arrival epoch).
    pub completed: u64,
    /// Fraction of the window the server was busy.
    pub utilization: f64,
    /// Time-average run-queue length.
    pub mean_queue_len: f64,
    /// `dispatched / Σ dispatched` — the realized allocation fraction
    /// (Table 1's "percentage").
    pub dispatch_fraction: f64,
    /// Fraction of the window the server was up (1.0 without faults).
    pub availability: f64,
    /// Seconds spent down in the measurement window.
    pub downtime: f64,
    /// Crashes in the measurement window.
    pub crashes: u64,
    /// Messages to/from this server dropped by the unreliable channel
    /// model (dispatch attempts and load updates). Zero with reliable
    /// channels.
    pub msgs_lost: u64,
}

hetsched_json::json_struct!(ServerStats {
    speed,
    dispatched,
    completed,
    utilization,
    mean_queue_len,
    dispatch_fraction,
    availability = 1.0,
    downtime = 0.0,
    crashes = 0,
    msgs_lost = 0,
});

/// Per-dispatcher-shard statistics over the measurement window (only
/// populated when the run used more than one dispatcher).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardStats {
    /// Counted jobs this dispatcher routed (including jobs later lost to
    /// crashes; resubmissions route again and count again).
    pub jobs: u64,
    /// `jobs / Σ jobs` — the realized arrival share of this shard.
    pub share: f64,
}

hetsched_json::json_struct!(ShardStats { jobs, share });

/// Statistics of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Policy name the run used.
    pub policy: String,
    /// Jobs that arrived during the measurement window.
    pub jobs_counted: u64,
    /// Counted jobs that also completed before the horizon (the basis of
    /// the response statistics; stragglers still in service at the
    /// horizon are excluded, as is standard).
    pub jobs_finished: u64,
    /// Mean response time (seconds) over finished counted jobs.
    pub mean_response_time: f64,
    /// Mean response ratio (response time / job size).
    pub mean_response_ratio: f64,
    /// Fairness: standard deviation of the response ratio (§4.1 —
    /// smaller is better).
    pub fairness: f64,
    /// 95th percentile of the response ratio, read from the run's
    /// pooled ratio sketch: within 2^-7 of the exact ceil-rank quantile
    /// of every counted job, on every engine (extension metric).
    pub p95_response_ratio: f64,
    /// 99th percentile of the response ratio, read like
    /// [`RunStats::p95_response_ratio`] (extension metric).
    pub p99_response_ratio: f64,
    /// Per-computer detail.
    pub servers: Vec<ServerStats>,
    /// Figure-2 deviation series (empty unless
    /// `ClusterConfig::deviation_interval` was set).
    pub deviations: Vec<f64>,
    /// The log-bucket sketch of every counted job's response ratio,
    /// which p95/p99 are read from (present only when
    /// `ClusterConfig::track_ratio_histogram` was set).
    pub ratio_histogram: Option<hetsched_metrics::Histogram>,
    /// Sampled per-job traces (present only when `ClusterConfig::trace`
    /// was set).
    pub trace: Option<crate::trace::TraceCollector>,
    /// Total engine events processed (throughput diagnostics).
    pub events_processed: u64,
    /// The realized overall utilization (capacity-weighted mean of the
    /// per-server utilizations) — a sanity check against the configured
    /// `ρ`.
    pub realized_utilization: f64,
    /// Counted jobs lost to crashes (dropped in flight, or arrived /
    /// resubmitted while no live server could take them). Zero without
    /// faults.
    pub jobs_lost: u64,
    /// Counted jobs pushed back through the dispatcher by a crash
    /// (`JobFaultSemantics::Resubmit`).
    pub jobs_resubmitted: u64,
    /// Counted jobs restarted from scratch on repair
    /// (`JobFaultSemantics::Restart`).
    pub jobs_restarted: u64,
    /// Total server crashes in the measurement window.
    pub crashes: u64,
    /// Capacity-weighted mean availability across servers (1.0 without
    /// faults).
    pub availability: f64,
    /// Finished counted jobs that experienced churn (arrived during an
    /// outage, or were resubmitted/restarted).
    pub degraded_jobs: u64,
    /// Mean response time over the degraded subset (0 when empty) —
    /// the churn-conditioned response time.
    pub mean_degraded_response_time: f64,
    /// Mean response ratio over the degraded subset (0 when empty).
    pub mean_degraded_response_ratio: f64,
    /// Observability time series (present only when `ClusterConfig::obs`
    /// was set). Excluded from results archived before the observability
    /// layer existed, which deserialize to `None`.
    pub obs: Option<crate::obs::ObsReport>,
    /// Per-dispatcher-shard detail. Empty for single-dispatcher runs —
    /// including every run archived before the dispatch tier existed,
    /// which deserialize to the empty default.
    pub shards: Vec<ShardStats>,
    /// State-sync rounds applied during the measurement window (0 when
    /// sync is disabled).
    pub syncs_applied: u64,
    /// Messages dropped by the unreliable channel model across all three
    /// planes in the measurement window. Zero with reliable channels.
    pub msgs_lost: u64,
    /// Dispatch retransmissions sent by the ack/timeout machinery.
    pub retries: u64,
    /// Retry timers that fired (every firing is a timeout; not all lead
    /// to a retransmission — the last one declares the job lost).
    pub timeouts: u64,
    /// Hedged dispatches whose second attempt won the race.
    pub hedges_won: u64,
    /// Hedged dispatches whose second attempt lost (or was cancelled).
    pub hedges_lost: u64,
    /// Dispatch decisions a staleness-aware policy made while its best
    /// candidate's load index was older than the confidence window.
    pub stale_decisions: u64,
    /// Counted jobs still in flight (dispatched, neither finished nor
    /// lost) when the horizon closed — the third term of the
    /// conservation law `jobs_counted = jobs_finished + jobs_lost +
    /// jobs_in_flight`.
    pub jobs_in_flight: u64,
    /// Collapsed per-server summaries (present only when the run was
    /// configured with `per_server: summary` and the fleet exceeded
    /// [`PER_SERVER_SUMMARY_THRESHOLD`]; [`RunStats::servers`] is then
    /// empty). Absent by default, so archived results load unchanged.
    pub server_summary: Option<ServerSummarySet>,
    /// Mean slowdown (`response time / inherent size`) over finished
    /// counted jobs. A job's inherent size is its speed-1 service
    /// demand, the response ratio's denominator, so this equals
    /// [`RunStats::mean_response_ratio`] on every path, malleable tier
    /// included. The field keeps its own name because it is the
    /// objective heSRPT minimizes, and archived results and
    /// [`RunStats::classes`] report it under that name.
    pub mean_slowdown: f64,
    /// 95th percentile of the slowdown; equals
    /// [`RunStats::p95_response_ratio`].
    pub p95_slowdown: f64,
    /// 99th percentile of the slowdown; equals
    /// [`RunStats::p99_response_ratio`].
    pub p99_slowdown: f64,
    /// Per-class completion statistics (empty unless the run had an
    /// active malleable section; class 0 is the rigid background).
    pub classes: Vec<crate::malleable::ClassStats>,
    /// Allocation-tier counters (present only when the run's policy
    /// actually ran the malleable server-allocation tier).
    pub malleable: Option<crate::malleable::MalleableStats>,
}

hetsched_json::json_struct!(RunStats {
    policy,
    jobs_counted,
    jobs_finished,
    mean_response_time,
    mean_response_ratio,
    fairness,
    p95_response_ratio,
    p99_response_ratio,
    servers,
    deviations,
    ratio_histogram,
    trace,
    events_processed,
    realized_utilization,
    jobs_lost = 0,
    jobs_resubmitted = 0,
    jobs_restarted = 0,
    crashes = 0,
    availability = 1.0,
    degraded_jobs = 0,
    mean_degraded_response_time = 0.0,
    mean_degraded_response_ratio = 0.0,
    obs,
    shards = Vec::new(),
    syncs_applied = 0,
    msgs_lost = 0,
    retries = 0,
    timeouts = 0,
    hedges_won = 0,
    hedges_lost = 0,
    stale_decisions = 0,
    jobs_in_flight = 0,
    server_summary,
    mean_slowdown = 0.0,
    p95_slowdown = 0.0,
    p99_slowdown = 0.0,
    classes = Vec::new(),
    malleable,
});

impl RunStats {
    /// The realized allocation fractions per server, in order.
    pub fn dispatch_fractions(&self) -> Vec<f64> {
        self.servers.iter().map(|s| s.dispatch_fraction).collect()
    }

    /// Applies the `per_server: summary` switch: above the threshold the
    /// per-server vector is summarized into
    /// [`RunStats::server_summary`] and cleared, and any per-server
    /// observability columns are collapsed the same way. A no-op below
    /// the threshold, so small-fleet artifacts keep the full shape.
    pub fn collapse_per_server(&mut self) {
        if self.servers.len() <= PER_SERVER_SUMMARY_THRESHOLD {
            return;
        }
        self.server_summary = Some(ServerSummarySet::of(&self.servers));
        self.servers = Vec::new();
        if let Some(obs) = &mut self.obs {
            obs.collapse_indexed_columns(&crate::obs::SERVER_COLUMNS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> RunStats {
        RunStats {
            policy: "test".into(),
            jobs_counted: 100,
            jobs_finished: 99,
            mean_response_time: 10.0,
            mean_response_ratio: 2.0,
            fairness: 1.0,
            p95_response_ratio: 5.0,
            p99_response_ratio: 9.0,
            servers: vec![
                ServerStats {
                    speed: 1.0,
                    dispatched: 25,
                    completed: 25,
                    utilization: 0.5,
                    mean_queue_len: 1.0,
                    dispatch_fraction: 0.25,
                    availability: 1.0,
                    downtime: 0.0,
                    crashes: 0,
                    msgs_lost: 0,
                },
                ServerStats {
                    speed: 3.0,
                    dispatched: 75,
                    completed: 74,
                    utilization: 0.6,
                    mean_queue_len: 2.0,
                    dispatch_fraction: 0.75,
                    availability: 0.9,
                    downtime: 100.0,
                    crashes: 2,
                    msgs_lost: 4,
                },
            ],
            deviations: vec![0.01, 0.02],
            ratio_histogram: None,
            trace: None,
            events_processed: 1234,
            realized_utilization: 0.57,
            jobs_lost: 3,
            jobs_resubmitted: 0,
            jobs_restarted: 0,
            crashes: 2,
            availability: 0.925,
            degraded_jobs: 5,
            mean_degraded_response_time: 20.0,
            mean_degraded_response_ratio: 4.0,
            obs: None,
            shards: vec![
                ShardStats {
                    jobs: 60,
                    share: 0.6,
                },
                ShardStats {
                    jobs: 40,
                    share: 0.4,
                },
            ],
            syncs_applied: 7,
            msgs_lost: 6,
            retries: 4,
            timeouts: 5,
            hedges_won: 1,
            hedges_lost: 2,
            stale_decisions: 3,
            jobs_in_flight: 1,
            server_summary: None,
            mean_slowdown: 2.0,
            p95_slowdown: 5.0,
            p99_slowdown: 9.0,
            classes: vec![crate::malleable::ClassStats {
                class: 0,
                count: 99,
                mean_slowdown: 2.0,
                mean_response: 10.0,
            }],
            malleable: Some(crate::malleable::MalleableStats {
                malleable_jobs: 40,
                reallocations: 200,
                max_cores_in_use: 2.0,
                fleet_cores: 2.0,
            }),
        }
    }

    #[test]
    fn dispatch_fractions_extracts() {
        assert_eq!(dummy().dispatch_fractions(), vec![0.25, 0.75]);
    }

    #[test]
    fn serde_round_trip() {
        let s = dummy();
        let json = hetsched_json::to_string(&s);
        let back: RunStats = hetsched_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn pre_fault_json_deserializes_with_defaults() {
        // Archived results from before the fault layer lack the fault
        // fields; they must load with "no faults happened" defaults.
        let s = dummy();
        let mut json = hetsched_json::Json::to_json(&s);
        let obj = json.as_object_mut().unwrap();
        for k in [
            "jobs_lost",
            "jobs_resubmitted",
            "jobs_restarted",
            "crashes",
            "availability",
            "degraded_jobs",
            "mean_degraded_response_time",
            "mean_degraded_response_ratio",
        ] {
            obj.remove(k);
        }
        for server in obj["servers"].as_array_mut().unwrap() {
            let s = server.as_object_mut().unwrap();
            s.remove("availability");
            s.remove("downtime");
            s.remove("crashes");
        }
        let back: RunStats = hetsched_json::Json::from_json(&json).unwrap();
        assert_eq!(back.jobs_lost, 0);
        assert_eq!(back.availability, 1.0);
        assert_eq!(back.servers[1].availability, 1.0);
        assert_eq!(back.servers[1].crashes, 0);
    }

    #[test]
    fn pre_obs_json_deserializes_to_none() {
        // Archived results from before the observability layer lack the
        // obs field; they must load with sampling absent.
        let s = dummy();
        let mut json = hetsched_json::Json::to_json(&s);
        json.as_object_mut().unwrap().remove("obs");
        let back: RunStats = hetsched_json::Json::from_json(&json).unwrap();
        assert_eq!(back, s);
        assert!(back.obs.is_none());
    }

    #[test]
    fn pre_channel_json_deserializes_with_defaults() {
        // Archived results from before the unreliable-messaging layer
        // lack the channel counters; they must load with "nothing was
        // lost" defaults.
        let s = dummy();
        let mut json = hetsched_json::Json::to_json(&s);
        let obj = json.as_object_mut().unwrap();
        for k in [
            "msgs_lost",
            "retries",
            "timeouts",
            "hedges_won",
            "hedges_lost",
            "stale_decisions",
            "jobs_in_flight",
        ] {
            obj.remove(k);
        }
        for server in obj["servers"].as_array_mut().unwrap() {
            server.as_object_mut().unwrap().remove("msgs_lost");
        }
        let back: RunStats = hetsched_json::Json::from_json(&json).unwrap();
        assert_eq!(back.msgs_lost, 0);
        assert_eq!(back.retries, 0);
        assert_eq!(back.timeouts, 0);
        assert_eq!(back.hedges_won, 0);
        assert_eq!(back.hedges_lost, 0);
        assert_eq!(back.stale_decisions, 0);
        assert_eq!(back.jobs_in_flight, 0);
        assert_eq!(back.servers[1].msgs_lost, 0);
    }

    #[test]
    fn pre_scale_json_deserializes_without_summary() {
        // Archived results from before the scale axis lack the
        // server_summary field; they must load with it absent.
        let s = dummy();
        let mut json = hetsched_json::Json::to_json(&s);
        json.as_object_mut().unwrap().remove("server_summary");
        let back: RunStats = hetsched_json::Json::from_json(&json).unwrap();
        assert_eq!(back, s);
        assert!(back.server_summary.is_none());
    }

    #[test]
    fn collapse_is_a_noop_below_threshold() {
        let mut s = dummy();
        let before = s.clone();
        s.collapse_per_server();
        assert_eq!(s, before);
    }

    #[test]
    fn collapse_summarizes_large_fleets() {
        let mut s = dummy();
        let proto = s.servers[0];
        s.servers = (0..PER_SERVER_SUMMARY_THRESHOLD + 36)
            .map(|i| ServerStats {
                utilization: 0.01 * i as f64,
                ..proto
            })
            .collect();
        let n = s.servers.len();
        s.collapse_per_server();
        assert!(s.servers.is_empty());
        let sum = s.server_summary.expect("summary present");
        assert_eq!(sum.count, n);
        assert_eq!(sum.utilization.min, 0.0);
        assert_eq!(sum.utilization.max, 0.01 * (n - 1) as f64);
        assert!(sum.utilization.p99 <= sum.utilization.max);
        assert!(sum.utilization.p99 >= sum.utilization.mean);
    }

    #[test]
    fn metric_summary_percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let m = MetricSummary::of(&values);
        assert_eq!(m.min, 1.0);
        assert_eq!(m.max, 100.0);
        assert_eq!(m.p99, 99.0);
        assert_eq!(m.mean, 50.5);
        let empty = MetricSummary::of(&[]);
        assert_eq!(empty.max, 0.0);
    }

    #[test]
    fn pre_malleable_json_deserializes_with_defaults() {
        // Archived results from before the malleable subsystem lack the
        // slowdown/class fields; they must load with empty breakdowns.
        let s = dummy();
        let mut json = hetsched_json::Json::to_json(&s);
        let obj = json.as_object_mut().unwrap();
        for k in [
            "mean_slowdown",
            "p95_slowdown",
            "p99_slowdown",
            "classes",
            "malleable",
        ] {
            obj.remove(k);
        }
        let back: RunStats = hetsched_json::Json::from_json(&json).unwrap();
        assert_eq!(back.mean_slowdown, 0.0);
        assert_eq!(back.p95_slowdown, 0.0);
        assert_eq!(back.p99_slowdown, 0.0);
        assert!(back.classes.is_empty());
        assert!(back.malleable.is_none());
    }

    #[test]
    fn pre_dispatch_json_deserializes_with_defaults() {
        // Archived results from before the dispatch tier lack the shard
        // fields; they must load as single-dispatcher runs.
        let s = dummy();
        let mut json = hetsched_json::Json::to_json(&s);
        let obj = json.as_object_mut().unwrap();
        obj.remove("shards");
        obj.remove("syncs_applied");
        let back: RunStats = hetsched_json::Json::from_json(&json).unwrap();
        assert!(back.shards.is_empty());
        assert_eq!(back.syncs_applied, 0);
    }
}
