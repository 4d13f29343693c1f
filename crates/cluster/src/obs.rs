//! Run-level observability: the sampling spec, the report and the
//! driver that fills it.
//!
//! The paper's Fig. 2 is itself a time-series observable: workload
//! allocation deviation sampled once per 120 s interval. This module
//! generalizes that shape into per-window instrumentation of the
//! simulator:
//!
//! * [`ObsSpec`] — the sampling contract (window length), threaded
//!   through `ClusterConfig` and absent by default, so pre-observability
//!   JSON keeps loading unchanged.
//! * [`ObsReport`] — the columnar time series that lands in `RunStats`,
//!   with JSONL and CSV exporters.
//! * [`KernelCounters`] — a JSON-writable mirror of the event kernel's
//!   [`FelStats`] traffic counters (`hetsched-desim` is dependency-free
//!   by design, so the JSON view of its counters lives here).
//! * [`ObsDriver`] — keeps one model's per-window counters and appends
//!   one row per window to its own table.
//!
//! ## The non-perturbation invariant
//!
//! The simulation actor calls [`ObsDriver::flush_to`] at the top of
//! every event delivery, *before* the event mutates the model: every
//! window whose boundary has passed is closed by reading the servers at
//! that boundary. Because all prior events carried timestamps strictly
//! below the boundary, reading [`Server::busy_integral_at`] at the
//! boundary never runs time backwards. The driver reads only `&[Server]`
//! and its own counters; it never sees the scheduler, a policy or an RNG
//! stream, so it cannot schedule events, draw random numbers or mutate
//! model state, and a run with observability enabled is bit-identical to
//! one without — the rule `tests/obs_determinism.rs` enforces.
//!
//! ## Columns
//!
//! One column table (`SERVER_COLUMNS`, `CORE_COLUMNS`,
//! `CHANNEL_COLUMNS`, `SLOWDOWN_COLUMN`) names every column, in row
//! order, for the driver, for `merge_obs_reports` and for
//! [`RunStats::collapse_per_server`](crate::RunStats::collapse_per_server).
//!
//! A window's `resp_p50/p95/p99` are ceil-rank quantiles of its counted
//! responses, read from one [`Histogram`] sketch: each is within 2^-7 of
//! the exact quantile. A shard of a `D > 1` parallel run also keeps each
//! window's occupied buckets, so the merged report reads its quantiles
//! from the pooled window sketch, and its means weigh each shard by its
//! counted completions.
//!
//! The window arithmetic deliberately mirrors
//! `hetsched_metrics::DeviationTracker`: windows start at `t = 0`,
//! close while `now >= window_start + interval`, and both deviation
//! columns use the tracker's [`allocation_deviation`], so sampling at
//! the Fig. 2 interval reproduces the tracker's series bitwise.

use hetsched_desim::FelStats;
use hetsched_metrics::{allocation_deviation, Histogram, Welford};

use crate::server::Server;

mod report;
mod spec;

pub use report::{KernelCounters, ObsReport};
pub use spec::ObsSpec;

/// How the shard reports of a parallel run fold into one cluster-wide
/// column.
#[derive(Debug, Clone, Copy)]
enum Fold {
    /// Extensive (counts and rates): the shards' values add.
    Sum,
    /// Intensive (levels): the mean over the shards.
    Mean,
    /// A mean over the window's counted completions: each shard's value
    /// weighs by its own count of them, so a shard with none adds
    /// nothing.
    PerJob,
    /// Quantile `RESP_QUANTILES[k]` of the window's counted responses,
    /// read from the shards' pooled window sketches.
    Quantile(usize),
}

/// The response quantiles of every window, in column order.
const RESP_QUANTILES: [f64; 3] = [0.50, 0.95, 0.99];

/// One window's occupied response buckets, as
/// [`Histogram::occupied`] lists them.
pub(crate) type WindowBuckets = Vec<(u32, u64)>;

/// Per-server column prefixes. Server `i` has `qlen[i]` (jobs in
/// system), `util[i]` (busy fraction of the window) and `up[i]` (1 when
/// up), in this order; the servers come first, in index order.
pub(crate) const SERVER_COLUMNS: [&str; 3] = ["qlen", "util", "up"];

/// The cluster-wide columns every report carries after the per-server
/// ones, with their shard fold. A multi-dispatcher report then has one
/// pair of per-shard columns for each dispatcher shard, named by the
/// third field. `deviation` and the pair measure different things on
/// the two engines:
///
/// * classic engine: `deviation` is the fleet-wide allocation deviation
///   of the window's dispatches from the lead policy's fractions;
///   `shard_share[d]` is dispatcher `d`'s share of the window's
///   dispatches, and `shard_dev[d]` the deviation of its own dispatches
///   from the same fleet-wide fractions;
/// * merged `D > 1` parallel report: each shard measures the deviation
///   of its own server slice from its own policy's fractions.
///   `deviation` is the mean of those slice deviations, `shard_dev[d]`
///   is shard `d`'s, and `shard_share[d]` is its share of the summed
///   `arrival_rate`.
const CORE_COLUMNS: [(&str, Fold, Option<&str>); 8] = [
    ("in_flight", Fold::Sum, None),
    ("arrival_rate", Fold::Sum, Some("shard_share")),
    ("completion_rate", Fold::Sum, None),
    ("resp_mean", Fold::PerJob, None),
    ("resp_p50", Fold::Quantile(0), None),
    ("resp_p95", Fold::Quantile(1), None),
    ("resp_p99", Fold::Quantile(2), None),
    ("deviation", Fold::Mean, Some("shard_dev")),
];

/// Columns of a run with an unreliable channel layer, after the shard
/// pairs: messages lost and dispatch retransmissions per second.
const CHANNEL_COLUMNS: [(&str, Fold); 2] =
    [("msg_loss_rate", Fold::Sum), ("retry_rate", Fold::Sum)];

/// The last column of a run with an active malleable section: the mean
/// slowdown of the window's counted completions.
const SLOWDOWN_COLUMN: (&str, Fold) = ("slowdown_mean", Fold::PerJob);

/// The columns after the shard pairs, in row order. A run without a
/// group keeps the older report schema byte for byte.
fn optional_columns(channels: bool, malleable: bool) -> Vec<(&'static str, Fold)> {
    let mut columns = Vec::new();
    if channels {
        columns.extend(CHANNEL_COLUMNS);
    }
    if malleable {
        columns.push(SLOWDOWN_COLUMN);
    }
    columns
}

/// Every column name of a report with `shards` shard pairs, in row
/// order.
fn column_names(servers: usize, shards: usize, channels: bool, malleable: bool) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..servers {
        names.extend(SERVER_COLUMNS.iter().map(|p| format!("{p}[{i}]")));
    }
    names.extend(CORE_COLUMNS.iter().map(|c| c.0.to_string()));
    for d in 0..shards {
        names.extend(
            CORE_COLUMNS
                .iter()
                .filter_map(|c| c.2)
                .map(|p| format!("{p}[{d}]")),
        );
    }
    names.extend(
        optional_columns(channels, malleable)
            .iter()
            .map(|c| c.0.to_string()),
    );
    names
}

/// Samples one model on a fixed window into a column table.
///
/// Constructed only when the run's `ClusterConfig::obs` is set; a run
/// without it carries no observability state at all. No method
/// schedules events or draws random numbers.
pub struct ObsDriver {
    interval: f64,
    window_start: f64,
    expected: Vec<f64>,
    channels: bool,
    malleable: bool,
    columns: Vec<String>,
    times: Vec<f64>,
    rows: Vec<Vec<f64>>,
    /// Each server's busy integral at the last boundary; zeroed with
    /// the servers' own integrals at the warmup reset.
    busy_prev: Vec<f64>,
    // Per-window counters, zeroed after every boundary.
    arrivals: u64,
    completions: u64,
    dispatch: Vec<u64>,
    dispatch_total: u64,
    resp: Welford,
    resp_sketch: Histogram,
    /// Every closed window's occupied response buckets, kept only for a
    /// shard of a `D > 1` parallel run.
    windows: Option<Vec<WindowBuckets>>,
    // Per-shard dispatch counters (empty for a single dispatcher, which
    // reports no shard pairs).
    shard_dispatch: Vec<Vec<u64>>,
    shard_total: Vec<u64>,
    // Channel and slowdown counters, only reported when their columns
    // are.
    msgs_lost: u64,
    retries: u64,
    slow: Welford,
}

impl ObsDriver {
    /// Builds the driver for `n` servers.
    ///
    /// `expected` is the policy's expected workload allocation (the same
    /// fractions `DeviationTracker` is built from); its length must be
    /// `n`. `shards` is the dispatch tier's dispatcher count; below 2
    /// the report has no shard pairs. `channels` adds the channel
    /// columns (pass false for a reliable or absent channel layer) and
    /// `malleable` the slowdown column (pass false without an active
    /// malleable section).
    pub fn new(
        spec: &ObsSpec,
        n: usize,
        expected: Vec<f64>,
        shards: usize,
        channels: bool,
        malleable: bool,
    ) -> Self {
        assert_eq!(expected.len(), n, "one expected fraction per server");
        let shards = if shards >= 2 { shards } else { 0 };
        ObsDriver {
            interval: spec.sample_interval,
            window_start: 0.0,
            expected,
            channels,
            malleable,
            columns: column_names(n, shards, channels, malleable),
            times: Vec::new(),
            rows: Vec::new(),
            busy_prev: vec![0.0; n],
            arrivals: 0,
            completions: 0,
            dispatch: vec![0; n],
            dispatch_total: 0,
            resp: Welford::new(),
            resp_sketch: Histogram::new(),
            windows: None,
            shard_dispatch: vec![vec![0; n]; shards],
            shard_total: vec![0; shards],
            msgs_lost: 0,
            retries: 0,
            slow: Welford::new(),
        }
    }

    /// Closes every window whose boundary is at or before `now`.
    ///
    /// Same lazy-closing arithmetic as `DeviationTracker::record`: the
    /// boundary at exactly `now` closes *before* the event at `now` is
    /// processed.
    pub fn flush_to(&mut self, now: f64, servers: &[Server], in_flight: usize) {
        while now >= self.window_start + self.interval {
            let boundary = self.window_start + self.interval;
            let row = self.row_at(boundary, servers, in_flight);
            self.times.push(boundary);
            self.rows.push(row);
            self.reset_window();
            self.window_start += self.interval;
        }
    }

    /// Records one scheduler arrival (counted even during total outage).
    #[inline]
    pub fn on_arrival(&mut self) {
        self.arrivals += 1;
    }

    /// Records dispatcher `shard`'s dispatch to `server` — call exactly
    /// where `DeviationTracker::record` is called so the deviation
    /// column reproduces Fig. 2 bitwise.
    #[inline]
    pub fn on_dispatch(&mut self, shard: usize, server: usize) {
        self.dispatch[server] += 1;
        self.dispatch_total += 1;
        if let Some(counts) = self.shard_dispatch.get_mut(shard) {
            counts[server] += 1;
            self.shard_total[shard] += 1;
        }
    }

    /// Records one job completion (counted or not).
    #[inline]
    pub fn on_completion(&mut self) {
        self.completions += 1;
    }

    /// Records one message lost on any channel plane.
    #[inline]
    pub fn on_msg_lost(&mut self) {
        self.msgs_lost += 1;
    }

    /// Records one dispatch retransmission.
    #[inline]
    pub fn on_retry(&mut self) {
        self.retries += 1;
    }

    /// Records the response time of one *counted* job completion.
    #[inline]
    pub fn on_response(&mut self, response: f64) {
        self.resp.push(response);
        self.resp_sketch.record(response);
    }

    /// Records the slowdown of one counted completion.
    #[inline]
    pub fn on_slowdown(&mut self, slowdown: f64) {
        self.slow.push(slowdown);
    }

    /// The end-of-warmup history reset: the servers' busy integrals
    /// restart from zero, so the utilization baselines do too. The
    /// window straddling the warmup end therefore reports only its
    /// post-reset share, never a negative utilization.
    pub fn on_warmup_reset(&mut self) {
        self.busy_prev.fill(0.0);
    }

    /// Keeps every window's occupied response buckets from now on, for
    /// [`take_windows`](Self::take_windows).
    pub(crate) fn keep_windows(&mut self) {
        self.windows = Some(Vec::new());
    }

    /// The kept windows' response buckets, one entry per reported row
    /// (empty unless [`keep_windows`](Self::keep_windows) was called).
    pub(crate) fn take_windows(&mut self) -> Vec<WindowBuckets> {
        self.windows.take().unwrap_or_default()
    }

    /// Consumes the driver into the exportable report, attaching the
    /// kernel's lifetime counters.
    pub fn into_report(self, kernel: FelStats) -> ObsReport {
        ObsReport {
            sample_interval: self.interval,
            columns: self.columns,
            times: self.times,
            rows: self.rows,
            kernel: kernel.into(),
        }
    }

    /// The row of the window closing at `boundary`, in column order.
    fn row_at(&mut self, boundary: f64, servers: &[Server], in_flight: usize) -> Vec<f64> {
        let mut row = Vec::with_capacity(self.columns.len());
        for (s, prev) in servers.iter().zip(&mut self.busy_prev) {
            let integral = s.busy_integral_at(boundary);
            let up = if s.is_up() { 1.0 } else { 0.0 };
            row.extend([s.queue_len() as f64, (integral - *prev) / self.interval, up]);
            *prev = integral;
        }
        let [p50, p95, p99] = self
            .resp_sketch
            .quantiles(RESP_QUANTILES)
            .unwrap_or([0.0; 3]);
        row.extend([
            in_flight as f64,
            self.arrivals as f64 / self.interval,
            self.completions as f64 / self.interval,
            self.resp.mean(),
            p50,
            p95,
            p99,
            allocation_deviation(&self.expected, &self.dispatch, self.dispatch_total),
        ]);
        if let Some(windows) = &mut self.windows {
            windows.push(self.resp_sketch.occupied().collect());
        }
        // Each shard's share of the window's dispatches, and how far its
        // own allocation strays from the tier-wide target.
        for (counts, &total) in self.shard_dispatch.iter().zip(&self.shard_total) {
            let share = if self.dispatch_total == 0 {
                0.0
            } else {
                total as f64 / self.dispatch_total as f64
            };
            row.extend([share, allocation_deviation(&self.expected, counts, total)]);
        }
        if self.channels {
            row.extend([
                self.msgs_lost as f64 / self.interval,
                self.retries as f64 / self.interval,
            ]);
        }
        if self.malleable {
            row.push(self.slow.mean());
        }
        debug_assert_eq!(row.len(), self.columns.len());
        row
    }

    fn reset_window(&mut self) {
        self.arrivals = 0;
        self.completions = 0;
        self.dispatch.fill(0);
        self.dispatch_total = 0;
        self.resp = Welford::new();
        self.resp_sketch.clear();
        for counts in &mut self.shard_dispatch {
            counts.fill(0);
        }
        self.shard_total.fill(0);
        self.msgs_lost = 0;
        self.retries = 0;
        self.slow = Welford::new();
    }
}

/// Merges per-shard observability reports into one global report.
///
/// Each shard brings its report and its windows' response buckets (see
/// [`ObsDriver::keep_windows`]); `sizes[s]` is shard `s`'s server
/// count. Each shard report is a single-dispatcher one (its per-server
/// columns, the core columns and the run's optional columns), and
/// shards own contiguous server slices in shard order, so the
/// per-server columns concatenate into global server order. Every
/// cluster-wide column folds by its table entry, in shard order: rates
/// add, levels average over the shards, per-job means weigh each shard
/// by its counted completions in the window, and the response quantiles
/// come from the sum of the shards' window buckets, which is the sketch
/// of the window's pooled responses. The shard pairs are read off each
/// shard's core columns. Reports are cut to the shortest one.
pub(crate) fn merge_obs_reports(
    shards: Vec<(ObsReport, Vec<WindowBuckets>)>,
    sizes: &[usize],
    kernel: FelStats,
) -> ObsReport {
    assert!(
        shards.iter().all(|(rep, w)| rep.rows.len() == w.len()),
        "a shard report needs one bucket list per window"
    );
    let d = shards.len();
    let nrows = shards
        .iter()
        .map(|(rep, _)| rep.rows.len())
        .min()
        .unwrap_or(0);
    let first = &shards[0].0;
    let has = |name: &str| first.columns.iter().any(|c| c == name);
    let (channels, malleable) = (has(CHANNEL_COLUMNS[0].0), has(SLOWDOWN_COLUMN.0));
    let columns = column_names(sizes.iter().sum(), d, channels, malleable);
    let folds: Vec<Fold> = CORE_COLUMNS
        .iter()
        .map(|c| c.1)
        .chain(optional_columns(channels, malleable).iter().map(|c| c.1))
        .collect();
    let mut pooled = Histogram::new();
    let rows = (0..nrows)
        .map(|r| {
            let mut row = Vec::with_capacity(columns.len());
            let mut tails = Vec::with_capacity(d);
            let mut jobs = Vec::with_capacity(d);
            pooled.clear();
            for ((rep, windows), &n) in shards.iter().zip(sizes) {
                let (servers, tail) = rep.rows[r].split_at(SERVER_COLUMNS.len() * n);
                row.extend_from_slice(servers);
                tails.push(tail);
                let mut count = 0;
                for &(key, c) in &windows[r] {
                    pooled.add(key, c);
                    count += c;
                }
                jobs.push(count as f64);
            }
            let all_jobs = pooled.count() as f64;
            let quantiles = pooled.quantiles(RESP_QUANTILES).unwrap_or([0.0; 3]);
            let folded: Vec<f64> = folds
                .iter()
                .enumerate()
                .map(|(k, fold)| {
                    let values = tails.iter().map(|t| t[k]);
                    match *fold {
                        Fold::Sum => values.sum(),
                        Fold::Mean => values.sum::<f64>() / d as f64,
                        Fold::PerJob if all_jobs > 0.0 => {
                            values.zip(&jobs).map(|(x, n)| n * x).sum::<f64>() / all_jobs
                        }
                        Fold::PerJob => 0.0,
                        Fold::Quantile(i) => quantiles[i],
                    }
                })
                .collect();
            let (core, optional) = folded.split_at(CORE_COLUMNS.len());
            row.extend_from_slice(core);
            // A shard's part of a summed column is its share of the sum
            // (0 when the sum is 0), and of an averaged one its own value.
            for tail in &tails {
                for (k, (_, fold, per_shard)) in CORE_COLUMNS.iter().enumerate() {
                    if per_shard.is_some() {
                        row.push(match fold {
                            Fold::Sum if core[k] > 0.0 => tail[k] / core[k],
                            Fold::Sum => 0.0,
                            _ => tail[k],
                        });
                    }
                }
            }
            row.extend_from_slice(optional);
            row
        })
        .collect();
    ObsReport {
        sample_interval: first.sample_interval,
        columns,
        times: first.times[..nrows].to_vec(),
        rows,
        kernel: kernel.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discipline::DisciplineSpec;
    use crate::job::{JobRecord, JobSlab};
    use hetsched_metrics::DeviationTracker;

    fn servers(n: usize) -> Vec<Server> {
        (0..n)
            .map(|_| Server::new(1.0, DisciplineSpec::ProcessorSharing))
            .collect()
    }

    #[test]
    fn standard_columns_in_order() {
        let driver = ObsDriver::new(&ObsSpec::every(100.0), 2, vec![0.5, 0.5], 1, false, false);
        let report = driver.into_report(FelStats::default());
        assert_eq!(
            report.columns,
            vec![
                "qlen[0]",
                "util[0]",
                "up[0]",
                "qlen[1]",
                "util[1]",
                "up[1]",
                "in_flight",
                "arrival_rate",
                "completion_rate",
                "resp_mean",
                "resp_p50",
                "resp_p95",
                "resp_p99",
                "deviation",
            ]
        );
    }

    #[test]
    fn deviation_column_matches_tracker_bitwise() {
        let expected = vec![0.2, 0.3, 0.5];
        let interval = 100.0;
        let mut tracker = DeviationTracker::new(&expected, interval, 0.0);
        let mut driver = ObsDriver::new(
            &ObsSpec::every(interval),
            3,
            expected.clone(),
            1,
            false,
            false,
        );
        let servers = servers(3);

        // Irregular dispatch stream crossing several windows, including
        // an empty window (t jumps from 250 to 470) and a dispatch at an
        // exact boundary (t = 300 closes [200, 300) first).
        let events = [
            (5.0, 0),
            (40.0, 2),
            (99.0, 1),
            (150.0, 2),
            (250.0, 2),
            (300.0, 0),
            (470.0, 1),
            (471.0, 1),
        ];
        for (t, target) in events {
            driver.flush_to(t, &servers, 0);
            driver.on_dispatch(0, target);
            tracker.record(t, target);
        }
        let horizon = 600.0;
        driver.flush_to(horizon, &servers, 0);
        tracker.advance_to(horizon);

        let report = driver.into_report(FelStats::default());
        let column = report.column("deviation").expect("deviation column");
        assert_eq!(column, tracker.deviations().to_vec());
        assert_eq!(report.times, vec![100.0, 200.0, 300.0, 400.0, 500.0, 600.0]);
    }

    #[test]
    fn empty_window_reports_zero_rates_and_full_deviation() {
        let expected = vec![0.25, 0.75];
        let mut driver =
            ObsDriver::new(&ObsSpec::every(50.0), 2, expected.clone(), 1, false, false);
        let servers = servers(2);
        driver.flush_to(50.0, &servers, 0);
        let report = driver.into_report(FelStats::default());
        assert_eq!(report.len(), 1);
        let row = &report.rows[0];
        let col = |name: &str| {
            let idx = report.columns.iter().position(|c| c == name).unwrap();
            row[idx]
        };
        assert_eq!(col("arrival_rate"), 0.0);
        assert_eq!(col("completion_rate"), 0.0);
        assert_eq!(col("resp_mean"), 0.0);
        assert_eq!(col("resp_p95"), 0.0);
        // No dispatches: deviation degenerates to Σ aᵢ² exactly as the
        // tracker's empty-interval branch does.
        let full: f64 = expected.iter().map(|a| a * a).sum();
        assert_eq!(col("deviation"), full);
    }

    #[test]
    fn window_counters_reset_between_windows() {
        let mut driver = ObsDriver::new(&ObsSpec::every(10.0), 1, vec![1.0], 1, false, false);
        let servers = servers(1);
        driver.on_arrival();
        driver.on_arrival();
        driver.on_completion();
        driver.on_response(3.0);
        driver.flush_to(10.0, &servers, 2);
        driver.on_arrival();
        driver.flush_to(20.0, &servers, 0);
        let report = driver.into_report(FelStats::default());
        let arrivals = report.column("arrival_rate").unwrap();
        assert_eq!(arrivals, vec![0.2, 0.1]);
        let resp = report.column("resp_mean").unwrap();
        assert_eq!(resp, vec![3.0, 0.0]);
        let inflight = report.column("in_flight").unwrap();
        assert_eq!(inflight, vec![2.0, 0.0]);
    }

    #[test]
    fn window_quantiles_read_one_sketch_per_window() {
        let mut driver = ObsDriver::new(&ObsSpec::every(10.0), 1, vec![1.0], 1, false, false);
        let servers = servers(1);
        driver.keep_windows();
        driver.flush_to(10.0, &servers, 0);
        for x in 1..=100 {
            driver.on_response(x as f64);
        }
        driver.flush_to(20.0, &servers, 0);
        driver.on_response(0.0);
        driver.flush_to(30.0, &servers, 0);
        driver.flush_to(40.0, &servers, 0);
        let windows = driver.take_windows();
        let report = driver.into_report(FelStats::default());
        // The exact quantiles of 1..=100 are 50, 95 and 99; the buckets
        // holding them are 1/2, 1 and 1 wide. A zero response underflows
        // and reads 0, and an empty window reads 0.
        assert_eq!(
            report.column("resp_p50").unwrap(),
            vec![0.0, 50.25, 0.0, 0.0]
        );
        assert_eq!(
            report.column("resp_p95").unwrap(),
            vec![0.0, 95.5, 0.0, 0.0]
        );
        assert_eq!(
            report.column("resp_p99").unwrap(),
            vec![0.0, 99.5, 0.0, 0.0]
        );
        // One list per row, holding only the occupied buckets.
        assert_eq!(windows.len(), 4);
        assert_eq!(windows[1].len(), 100);
        assert!(windows[1].iter().all(|&(_, n)| n == 1));
        assert_eq!(windows[2], vec![(0, 1)]);
        assert!(windows[0].is_empty() && windows[3].is_empty());
        // A driver that keeps no windows hands back none.
        let mut plain = ObsDriver::new(&ObsSpec::every(10.0), 1, vec![1.0], 1, false, false);
        plain.on_response(1.0);
        plain.flush_to(10.0, &servers, 0);
        assert!(plain.take_windows().is_empty());
    }

    #[test]
    fn shard_probes_appear_only_with_multiple_dispatchers() {
        // D = 1 (or 0): no shard columns — the report schema is exactly
        // the pre-dispatch-tier one.
        for shards in [0, 1] {
            let driver = ObsDriver::new(&ObsSpec::every(10.0), 1, vec![1.0], shards, false, false);
            let report = driver.into_report(FelStats::default());
            assert!(
                !report.columns.iter().any(|c| c.starts_with("shard_")),
                "shards={shards}: {:?}",
                report.columns
            );
        }
        // D = 2: share and deviation columns per shard, after "deviation".
        let driver = ObsDriver::new(&ObsSpec::every(10.0), 1, vec![1.0], 2, false, false);
        let report = driver.into_report(FelStats::default());
        let tail: Vec<&str> = report
            .columns
            .iter()
            .rev()
            .take(4)
            .rev()
            .map(String::as_str)
            .collect();
        assert_eq!(
            tail,
            vec![
                "shard_share[0]",
                "shard_dev[0]",
                "shard_share[1]",
                "shard_dev[1]"
            ]
        );
    }

    #[test]
    fn shard_counters_track_shares_and_deviation() {
        let expected = vec![0.5, 0.5];
        let mut driver = ObsDriver::new(&ObsSpec::every(100.0), 2, expected, 2, false, false);
        let servers = servers(2);
        // Shard 0 routes three jobs (two to server 0), shard 1 routes one.
        for (shard, server) in [(0, 0), (0, 1), (0, 0), (1, 1)] {
            driver.on_dispatch(shard, server);
        }
        driver.flush_to(100.0, &servers, 0);
        let report = driver.into_report(FelStats::default());
        let col = |name: &str| report.column(name).unwrap()[0];
        assert_eq!(col("shard_share[0]"), 0.75);
        assert_eq!(col("shard_share[1]"), 0.25);
        // Shard 0 realized (2/3, 1/3) against (0.5, 0.5).
        let d0 = (0.5f64 - 2.0 / 3.0).powi(2) + (0.5f64 - 1.0 / 3.0).powi(2);
        assert!((col("shard_dev[0]") - d0).abs() < 1e-15);
        // Shard 1 realized (0, 1): deviation 0.25 + 0.25.
        assert_eq!(col("shard_dev[1]"), 0.5);
    }

    #[test]
    fn channel_columns_appear_only_when_enabled() {
        // Reliable (or absent) channel layer: schema unchanged.
        let driver = ObsDriver::new(&ObsSpec::every(10.0), 1, vec![1.0], 1, false, false);
        let report = driver.into_report(FelStats::default());
        assert!(!report.columns.iter().any(|c| c.contains("msg_loss")));
        assert!(!report.columns.iter().any(|c| c.contains("retry")));

        // Unreliable layer: the rate columns land at the tail and the
        // per-window counters reset across boundaries.
        let mut driver = ObsDriver::new(&ObsSpec::every(10.0), 1, vec![1.0], 1, true, false);
        let servers = servers(1);
        driver.on_msg_lost();
        driver.on_msg_lost();
        driver.on_retry();
        driver.flush_to(10.0, &servers, 0);
        driver.on_retry();
        driver.flush_to(20.0, &servers, 0);
        let report = driver.into_report(FelStats::default());
        let tail: Vec<&str> = report
            .columns
            .iter()
            .rev()
            .take(2)
            .rev()
            .map(String::as_str)
            .collect();
        assert_eq!(tail, vec!["msg_loss_rate", "retry_rate"]);
        assert_eq!(report.column("msg_loss_rate").unwrap(), vec![0.2, 0.0]);
        assert_eq!(report.column("retry_rate").unwrap(), vec![0.1, 0.1]);
    }

    #[test]
    fn slowdown_column_appears_only_with_malleable_tier() {
        // No active malleable section: the report schema is exactly the
        // rigid one.
        let driver = ObsDriver::new(&ObsSpec::every(10.0), 1, vec![1.0], 1, false, false);
        let report = driver.into_report(FelStats::default());
        assert!(
            !report.columns.iter().any(|c| c.contains("slowdown")),
            "{:?}",
            report.columns
        );

        // Active section: the column lands at the tail and the
        // per-window accumulator resets across boundaries.
        let mut driver = ObsDriver::new(&ObsSpec::every(10.0), 1, vec![1.0], 1, false, true);
        let servers = servers(1);
        driver.on_slowdown(2.0);
        driver.on_slowdown(4.0);
        driver.flush_to(10.0, &servers, 0);
        driver.flush_to(20.0, &servers, 0);
        let report = driver.into_report(FelStats::default());
        assert_eq!(
            report.columns.last().map(String::as_str),
            Some("slowdown_mean")
        );
        assert_eq!(report.column("slowdown_mean").unwrap(), vec![3.0, 0.0]);
    }

    /// A single-dispatcher shard report over `servers` servers with the
    /// channel and slowdown columns, and its windows' response buckets.
    /// Row `r` holds the per-server trio `(100 s + 10 r + i, i / 4, 1 if
    /// i is even else 0)` for local server `i`, then `windows[r].0`;
    /// `windows[r].1` are the window's counted responses.
    fn shard_report(
        s: usize,
        servers: usize,
        windows: &[([f64; 11], &[f64])],
    ) -> (ObsReport, Vec<WindowBuckets>) {
        let mut columns = Vec::new();
        for i in 0..servers {
            columns.extend([
                format!("qlen[{i}]"),
                format!("util[{i}]"),
                format!("up[{i}]"),
            ]);
        }
        for name in [
            "in_flight",
            "arrival_rate",
            "completion_rate",
            "resp_mean",
            "resp_p50",
            "resp_p95",
            "resp_p99",
            "deviation",
            "msg_loss_rate",
            "retry_rate",
            "slowdown_mean",
        ] {
            columns.push(name.to_string());
        }
        let rows = windows
            .iter()
            .enumerate()
            .map(|(r, (tail, _))| {
                let mut row = Vec::new();
                for i in 0..servers {
                    let up = if i % 2 == 0 { 1.0 } else { 0.0 };
                    row.extend([(100 * s + 10 * r + i) as f64, i as f64 / 4.0, up]);
                }
                row.extend_from_slice(tail);
                row
            })
            .collect();
        let buckets = windows
            .iter()
            .map(|(_, responses)| {
                let mut h = Histogram::new();
                responses.iter().for_each(|&x| h.record(x));
                h.occupied().collect()
            })
            .collect();
        let report = ObsReport {
            sample_interval: 50.0,
            columns,
            times: (1..=windows.len()).map(|r| 50.0 * r as f64).collect(),
            rows,
            kernel: FelStats::default().into(),
        };
        (report, buckets)
    }

    #[test]
    fn merge_folds_shard_reports_column_by_column() {
        // Columns of each row: in_flight, arrival_rate, completion_rate,
        // resp_mean, resp_p50, resp_p95, resp_p99, deviation,
        // msg_loss_rate, retry_rate, slowdown_mean; then the window's
        // responses. The shards count 3, 1 and 4 completions in the
        // first window and 2, 0 and 2 in the second, which has no
        // arrivals anywhere; the third exists only on shards 0 and 2, so
        // the merge drops it. The shards' own quantile columns are
        // ignored: the merge reads the pooled buckets.
        let past = ([99.0; 11], &[99.0][..]);
        let reports = vec![
            shard_report(
                0,
                2,
                &[
                    (
                        [3.0, 0.5, 0.25, 2.0, 1.0, 4.0, 8.0, 0.125, 0.125, 0.25, 1.5],
                        &[1.0, 2.0, 3.0],
                    ),
                    (
                        [0.0, 0.0, 0.75, 1.0, 1.0, 1.0, 1.0, 0.5, 0.0, 0.0, 0.5],
                        &[1.0, 1.0],
                    ),
                    past,
                ],
            ),
            shard_report(
                1,
                1,
                &[
                    (
                        [1.0, 0.25, 0.5, 4.0, 3.0, 6.0, 10.0, 0.375, 0.375, 0.0, 2.5],
                        &[4.0],
                    ),
                    (
                        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25, 0.5, 1.0, 0.0],
                        &[],
                    ),
                ],
            ),
            shard_report(
                2,
                3,
                &[
                    (
                        [2.0, 0.25, 0.25, 6.0, 2.0, 5.0, 12.0, 0.25, 0.0, 0.5, 3.5],
                        &[3.0, 5.0, 7.0, 9.0],
                    ),
                    (
                        [5.0, 0.0, 0.25, 3.0, 2.0, 4.0, 5.0, 0.75, 0.25, 0.0, 6.0],
                        &[2.0, 4.0],
                    ),
                    past,
                ],
            ),
        ];
        let kernel = FelStats {
            scheduled: 7,
            popped: 5,
            cancelled: 2,
            high_water: 3,
        };
        let merged = merge_obs_reports(reports.clone(), &[2, 1, 3], kernel);

        let mut columns: Vec<String> = Vec::new();
        for g in 0..6 {
            columns.extend([
                format!("qlen[{g}]"),
                format!("util[{g}]"),
                format!("up[{g}]"),
            ]);
        }
        for name in [
            "in_flight",
            "arrival_rate",
            "completion_rate",
            "resp_mean",
            "resp_p50",
            "resp_p95",
            "resp_p99",
            "deviation",
            "shard_share[0]",
            "shard_dev[0]",
            "shard_share[1]",
            "shard_dev[1]",
            "shard_share[2]",
            "shard_dev[2]",
            "msg_loss_rate",
            "retry_rate",
            "slowdown_mean",
        ] {
            columns.push(name.to_string());
        }
        assert_eq!(merged.columns, columns);
        assert_eq!(merged.sample_interval, 50.0);
        assert_eq!(merged.times, vec![50.0, 100.0]);
        assert_eq!(merged.kernel, KernelCounters::from(kernel));

        // A quantile reads the midpoint of the bucket holding the
        // ceil-rank response: bucket widths are 1/128, 1/32, 1/16 and
        // 1/8 in the octaves of 1, 2, 4 and 8.
        let tails = [
            // Sums for in_flight, arrival_rate, completion_rate; the
            // completion-weighted mean response (3·2 + 1·4 + 4·6) / 8;
            // p50, p95, p99 of the pooled 1 2 3 3 4 5 7 9, which are 3,
            // 9 and 9; the mean deviation; the shard pairs (arrival
            // share, own deviation); summed channel rates; the weighted
            // mean slowdown (3·1.5 + 1·2.5 + 4·3.5) / 8.
            vec![
                6.0,
                1.0,
                1.0,
                4.25,
                3.0 + 1.0 / 64.0,
                9.0 + 1.0 / 16.0,
                9.0 + 1.0 / 16.0,
                0.25,
                0.5,
                0.125,
                0.25,
                0.375,
                0.25,
                0.25,
                0.5,
                0.75,
                2.625,
            ],
            // No arrivals: every share reads 0. Shard 1 finished nothing,
            // so its means add nothing: (2·1 + 2·3) / 4 and
            // (2·0.5 + 2·6) / 4; the pooled responses are 1 1 2 4.
            vec![
                6.0,
                0.0,
                1.0,
                2.0,
                1.0 + 1.0 / 128.0,
                4.0 + 1.0 / 32.0,
                4.0 + 1.0 / 32.0,
                0.5,
                0.0,
                0.5,
                0.0,
                0.25,
                0.0,
                0.75,
                0.75,
                1.0,
                3.25,
            ],
        ];
        assert_eq!(merged.rows.len(), 2);
        for (r, tail) in tails.iter().enumerate() {
            // Per-server columns: the shards' trios concatenated in shard
            // order, which is global server order.
            let servers: Vec<f64> = reports
                .iter()
                .zip([2, 1, 3])
                .flat_map(|((rep, _), n)| rep.rows[r][..3 * n].to_vec())
                .collect();
            assert_eq!(merged.rows[r][..18], servers[..], "row {r}");
            assert_eq!(merged.rows[r][18..], tail[..], "row {r}");
        }
        assert_eq!(merged.column("qlen[2]").unwrap(), vec![100.0, 110.0]);
        assert_eq!(merged.column("util[5]").unwrap(), vec![0.5, 0.5]);
        // Each pooled quantile is within 2^-7 of the exact one.
        for (name, exact) in [("resp_p50", [3.0, 1.0]), ("resp_p99", [9.0, 4.0])] {
            for (x, e) in merged.column(name).unwrap().into_iter().zip(exact) {
                assert!((x - e).abs() <= e / 128.0, "{name}: {x} vs {e}");
            }
        }

        // Without channel or slowdown columns the merged report ends at
        // the shard pairs.
        let bare = |(mut rep, windows): (ObsReport, Vec<WindowBuckets>)| {
            rep.columns.truncate(rep.columns.len() - 3);
            rep.rows
                .iter_mut()
                .for_each(|row| row.truncate(row.len() - 3));
            (rep, windows)
        };
        let merged = merge_obs_reports(
            reports.into_iter().take(2).map(bare).collect(),
            &[2, 1],
            FelStats::default(),
        );
        assert_eq!(
            merged.columns.last().map(String::as_str),
            Some("shard_dev[1]")
        );
        assert_eq!(merged.columns.len(), 9 + 8 + 4);
        assert_eq!(
            merged.rows[0][9..],
            [
                4.0,
                0.75,
                0.75,
                2.5,
                2.0 + 1.0 / 64.0,
                4.0 + 1.0 / 32.0,
                4.0 + 1.0 / 32.0,
                0.25,
                2.0 / 3.0,
                0.125,
                1.0 / 3.0,
                0.375
            ]
        );
    }

    #[test]
    fn utilization_probe_differences_and_rebases() {
        let mut slab = JobSlab::new();
        let mut job = |size: f64| {
            slab.insert(JobRecord {
                size,
                arrival: 0.0,
                server: 0,
                counted: true,
                degraded: false,
                class: 0,
            })
        };
        let mut servers = servers(1);
        let mut done = Vec::new();
        let mut driver = ObsDriver::new(&ObsSpec::every(100.0), 1, vec![1.0], 1, false, false);
        // Busy on [0, 50): half of the first window.
        servers[0].advance(0.0, &mut done);
        servers[0].arrive(0.0, job(50.0), 50.0);
        servers[0].advance(50.0, &mut done);
        driver.flush_to(100.0, &servers, 0);
        // Busy on [100, 170): the busy integral reaches 120, of which
        // the window's share is 70.
        servers[0].advance(100.0, &mut done);
        servers[0].arrive(100.0, job(70.0), 70.0);
        servers[0].advance(170.0, &mut done);
        driver.flush_to(200.0, &servers, 0);
        // Warmup reset: the server's integral restarts from zero, so the
        // driver's baseline must too.
        servers[0].reset_window(250.0);
        driver.on_warmup_reset();
        servers[0].arrive(250.0, job(30.0), 30.0);
        servers[0].advance(280.0, &mut done);
        driver.flush_to(300.0, &servers, 0);
        assert_eq!(done.len(), 3);
        let report = driver.into_report(FelStats::default());
        assert_eq!(report.column("util[0]").unwrap(), vec![0.5, 0.7, 0.3]);
    }
}
