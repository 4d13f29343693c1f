//! The figure driver: every table and figure of the paper, and every
//! extension figure, is a declared [`Figure`] that one function runs.
//!
//! A figure is data: its cells (label, [`ClusterConfig`],
//! [`PolicySpec`]), the tables and charts it prints, and its claims,
//! named comparisons between cells. [`run`] puts every cell through one
//! [`Sweep`] pool, prints the blocks, judges the claims, and writes one
//! archive schema. A gated claim that fails makes the run fail; an
//! ungated one is only recorded. The declarations live in [`figures`].
//!
//! The binary's first argument names the figure; the rest are the
//! [`Mode`] flags. `--full` is the paper's fidelity (4·10⁶-second
//! horizon, 10 replications per cell) and `--quick` a smoke test (2% and
//! 2). The default, 25% and 5, makes every ranking in the paper visible
//! and runs every figure in a few minutes on a laptop.

use std::path::PathBuf;

use hetsched::cluster::results::PER_SERVER_SUMMARY_THRESHOLD;
use hetsched::experiment::Experiment;
use hetsched::json::{object, Json, Value};
use hetsched::prelude::*;
use hetsched::PointStats;

pub mod figures;

/// Fidelity and output options parsed from the command line: `--full`,
/// `--quick`, and one flag per field.
#[derive(Debug, Clone, PartialEq)]
pub struct Mode {
    /// `--scale X`: horizon/warmup scale relative to the paper's 4·10⁶ s.
    pub scale: f64,
    /// `--reps N`: replications per cell (the paper uses 10).
    pub reps: u64,
    /// `--threads N`: worker threads for the sweep pool (0 = auto).
    pub threads: usize,
    /// `--json PATH`: where [`run`] writes the figure's archive.
    pub json: Option<PathBuf>,
    /// `--obs PATH`: enable run-level observability (120 s windows) on
    /// every run and archive the first observed run's time series as
    /// JSONL here. Observing never perturbs results.
    pub obs: Option<PathBuf>,
}

impl Default for Mode {
    fn default() -> Self {
        Mode {
            scale: 0.25,
            reps: 5,
            threads: 0,
            json: None,
            obs: None,
        }
    }
}

impl Mode {
    /// Parses flags from an iterator of arguments (the ones after the
    /// figure name).
    ///
    /// # Panics
    /// Panics with a usage message on unknown flags or malformed values —
    /// appropriate for a CLI entry point.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Mode {
        let mut mode = Mode::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().unwrap_or_else(|| panic!("{arg} needs a value"));
            match arg.as_str() {
                "--full" => (mode.scale, mode.reps) = (1.0, 10),
                "--quick" => (mode.scale, mode.reps) = (0.02, 2),
                "--scale" => mode.scale = value().parse().expect("--scale needs a number"),
                "--reps" => mode.reps = value().parse().expect("--reps needs an integer"),
                "--threads" => {
                    mode.threads = value()
                        .parse()
                        .expect("--threads needs an integer (0 = auto)");
                }
                "--json" => mode.json = Some(PathBuf::from(value())),
                "--obs" => mode.obs = Some(PathBuf::from(value())),
                other => panic!(
                    "unknown flag {other}; use --full | --quick | --scale X | --reps N | \
                     --threads N | --json PATH | --obs PATH"
                ),
            }
        }
        assert!(
            mode.scale > 0.0 && mode.scale <= 1.0,
            "scale must be in (0,1]"
        );
        assert!(mode.reps >= 1, "need at least one replication");
        mode
    }

    /// Runs `cells` at this fidelity through **one** sweep pool — no
    /// per-cell barrier; results come back in input order, bit-identical
    /// to running each cell's experiment on its own.
    ///
    /// # Panics
    /// Panics on invalid configurations — the declarations are trusted.
    pub fn run_cells(&self, cells: &[Cell]) -> (Vec<ExperimentResult>, SweepStats) {
        let experiments = cells
            .iter()
            .map(|cell| {
                let mut cfg = cell.cfg.clone();
                if self.obs.is_some() && cfg.obs.is_none() {
                    cfg.obs = Some(ObsSpec::default());
                }
                let mut exp = Experiment::new(cell.label.clone(), cfg, cell.policy)
                    .quick(self.scale, cell.reps.unwrap_or(self.reps));
                exp.threads = self.threads;
                exp.sim_threads = cell.sim_threads;
                exp
            })
            .collect();
        let sweep = Sweep::new(experiments).with_threads(self.threads);
        let SweepOutcome { results, stats } = sweep.run().unwrap_or_else(|e| panic!("sweep: {e}"));
        eprintln!(
            "sweep pool: {} tasks over {} points on {} threads — {:.1}s wall, {:.0} events/s",
            stats.tasks, stats.points, stats.threads, stats.wall_s, stats.events_per_sec
        );
        (results, stats)
    }

    /// [`Mode::run_cells`] over plain `(label, config, policy)` points.
    pub fn run_sweep(
        &self,
        points: Vec<(String, ClusterConfig, PolicySpec)>,
    ) -> (Vec<ExperimentResult>, SweepStats) {
        let cells: Vec<Cell> = points
            .into_iter()
            .map(|(label, cfg, policy)| Cell::new(label, cfg, policy))
            .collect();
        self.run_cells(&cells)
    }
}

/// One data point of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The cell's name, unique within its figure; blocks and claims
    /// refer to the cell by it.
    pub label: String,
    /// The simulated system, before the fidelity scale is applied.
    pub cfg: ClusterConfig,
    /// The scheduling policy.
    pub policy: PolicySpec,
    /// Replications, when the cell fixes them (`None` follows the mode).
    pub reps: Option<u64>,
    /// The engine: 0 (the default) is the classic engine, `n ≥ 1` the
    /// parallel one on `n` threads. For `D > 1` the two engines model a
    /// sharded tier differently; with one dispatcher they are
    /// bit-identical.
    pub sim_threads: usize,
}

impl Cell {
    /// A cell on the classic engine that follows the mode's
    /// replications.
    pub fn new(label: impl Into<String>, cfg: ClusterConfig, policy: PolicySpec) -> Self {
        Cell {
            label: label.into(),
            cfg,
            policy,
            reps: None,
            sim_threads: 0,
        }
    }
}

/// A number a block prints or a claim compares.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A statistic of a cell: one of [`CI_STATS`], [`COUNTERS`] or
    /// [`OTHER_STATS`].
    Stat(String, &'static str),
    /// The percentage of a cell's jobs dispatched to one server.
    Share(String, usize),
    /// `100 (a − b) / b` of one statistic: cell `a`'s change over `b`.
    Change(String, String, &'static str),
    /// `100 (b − a) / b` of one statistic: cell `a`'s gain over `b`.
    Gain(String, String, &'static str),
    /// A value known when the figure is declared.
    Const(f64),
}

/// How a number prints.
pub type Fmt = fn(f64) -> String;

/// One entry of a table row.
#[derive(Debug, Clone)]
pub enum Entry {
    /// A label.
    Text(String),
    /// A statistic's `mean±half_width` (one of [`CI_STATS`]).
    Ci(String, &'static str),
    /// A number and how it prints.
    Num(Expr, Fmt),
}

/// What a figure prints after its cells have run, in order.
#[derive(Debug, Clone)]
pub enum Block {
    /// Lines printed as they are.
    Text(String),
    /// A table, printed after a blank line and its title; archived with
    /// every number at full precision.
    Table {
        title: String,
        header: Vec<String>,
        rows: Vec<Vec<Entry>>,
    },
    /// A 64-column terminal chart of `height` rows: one named series of
    /// `(x, y)` points each.
    Chart {
        title: String,
        height: usize,
        series: Vec<(String, Vec<(f64, Expr)>)>,
    },
}

/// How a claim compares `lhs` with `rhs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `lhs < rhs`.
    Lt,
    /// `lhs <= rhs`.
    Le,
    /// `lhs == rhs`, bit for bit up to the sign of zero.
    Eq,
}

/// A named comparison between cells: it holds when every term
/// `lhs op rhs` does.
#[derive(Debug, Clone)]
pub struct Claim {
    /// The claim's name in the printout and the archive.
    pub name: String,
    /// The comparison.
    pub op: Op,
    /// The compared `(lhs, rhs)` pairs.
    pub terms: Vec<(Expr, Expr)>,
    /// A gate fails the run when the claim does not hold; otherwise the
    /// claim is only recorded.
    pub gate: bool,
    /// What the claim stands against (the paper's number, say); printed
    /// after it.
    pub note: &'static str,
}

/// A declared figure.
#[derive(Debug, Clone, Default)]
pub struct Figure {
    /// The figure's name: the binary's first argument.
    pub name: &'static str,
    /// The cells, run through one sweep pool.
    pub cells: Vec<Cell>,
    /// What is printed after the sweep.
    pub blocks: Vec<Block>,
    /// The claims, judged after the blocks print.
    pub claims: Vec<Claim>,
    /// The part of the figure that is measured rather than simulated
    /// (`fig_scale`'s decision microbench): run before the cells, it
    /// returns constant blocks and claims that go first.
    pub extra: Option<fn() -> Figure>,
}

impl Figure {
    /// An empty figure.
    pub fn new(name: &'static str) -> Self {
        Figure {
            name,
            ..Figure::default()
        }
    }

    /// Adds a cell that follows the mode.
    #[must_use]
    pub fn cell(
        mut self,
        label: impl Into<String>,
        cfg: ClusterConfig,
        policy: PolicySpec,
    ) -> Self {
        self.cells.push(Cell::new(label, cfg, policy));
        self
    }

    /// Adds a text block.
    #[must_use]
    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.blocks.push(Block::Text(text.into()));
        self
    }

    /// Adds a table block.
    #[must_use]
    pub fn table<S: Into<String>>(
        mut self,
        title: impl Into<String>,
        header: impl IntoIterator<Item = S>,
        rows: Vec<Vec<Entry>>,
    ) -> Self {
        let header = header.into_iter().map(Into::into).collect();
        self.blocks.push(Block::Table {
            title: title.into(),
            header,
            rows,
        });
        self
    }

    /// Adds a gated claim `lhs op rhs`.
    #[must_use]
    pub fn gate(self, name: &str, lhs: Expr, op: Op, rhs: Expr) -> Self {
        self.claim(true, name, op, vec![(lhs, rhs)], "")
    }

    /// Adds a gated claim over several terms.
    #[must_use]
    pub fn gate_all(
        self,
        name: &str,
        op: Op,
        terms: impl IntoIterator<Item = (Expr, Expr)>,
    ) -> Self {
        self.claim(true, name, op, terms.into_iter().collect(), "")
    }

    /// Adds a recorded (ungated) claim `lhs op rhs`.
    #[must_use]
    pub fn record(self, name: &str, lhs: Expr, op: Op, rhs: Expr, note: &'static str) -> Self {
        self.claim(false, name, op, vec![(lhs, rhs)], note)
    }

    fn claim(
        mut self,
        gate: bool,
        name: &str,
        op: Op,
        terms: Vec<(Expr, Expr)>,
        note: &'static str,
    ) -> Self {
        let name = name.to_string();
        self.claims.push(Claim {
            name,
            op,
            terms,
            gate,
            note,
        });
        self
    }
}

/// The statistics every cell archives as `CiSummary`s, the means of
/// which [`Expr::Stat`] reads.
pub const CI_STATS: [&str; 5] = [
    "mean_response_time",
    "mean_response_ratio",
    "fairness",
    "p95_response_ratio",
    "mean_slowdown",
];

/// A replication counter: its name and its value in one run.
pub type Counter = (&'static str, fn(&RunStats) -> f64);

/// The replication counters every cell archives as means over its runs.
pub const COUNTERS: [Counter; 14] = [
    ("availability", |r| r.availability),
    ("crashes", |r| r.crashes as f64),
    ("jobs_lost", |r| r.jobs_lost as f64),
    ("jobs_resubmitted", |r| r.jobs_resubmitted as f64),
    ("mean_degraded_response_time", |r| {
        r.mean_degraded_response_time
    }),
    ("jobs_counted", |r| r.jobs_counted as f64),
    ("syncs_applied", |r| r.syncs_applied as f64),
    ("msgs_lost", |r| r.msgs_lost as f64),
    ("retries", |r| r.retries as f64),
    ("timeouts", |r| r.timeouts as f64),
    ("hedges_won", |r| r.hedges_won as f64),
    ("stale_decisions", |r| r.stale_decisions as f64),
    ("malleable_jobs", |r| {
        r.malleable
            .as_ref()
            .map_or(0.0, |m| m.malleable_jobs as f64)
    }),
    ("reallocations", |r| {
        r.malleable.as_ref().map_or(0.0, |m| m.reallocations as f64)
    }),
];

/// The statistics a cell has besides [`CI_STATS`] and [`COUNTERS`]:
/// maxima over every run's shards of the shard's share and of its
/// distance from the splitter's expected share, and the simulated
/// events per busy second the pool measured (a wall-clock number, not
/// archived with the cell).
pub const OTHER_STATS: [&str; 3] = ["max_shard_share", "max_share_dev", "events_per_sec"];

fn ci_of<'a>(r: &'a ExperimentResult, name: &str) -> Option<&'a CiSummary> {
    let cis = [
        &r.mean_response_time,
        &r.mean_response_ratio,
        &r.fairness,
        &r.p95_response_ratio,
        &r.mean_slowdown,
    ];
    CI_STATS.iter().position(|&s| s == name).map(|i| cis[i])
}

/// One cell's results as the archive keeps them: the aggregated
/// [`ExperimentResult`] without its raw runs, and its other statistics.
struct Record {
    result: ExperimentResult,
    stats: Vec<(&'static str, f64)>,
}

impl Record {
    fn new(cell: &Cell, mut result: ExperimentResult, point: &PointStats) -> Self {
        let runs = std::mem::take(&mut result.runs);
        let n = runs.len() as f64;
        let dispatch = &cell.cfg.dispatch;
        let expected = dispatch.splitter.expected_shares(dispatch.dispatchers);
        let max = |f: &dyn Fn(&RunStats) -> Vec<f64>| runs.iter().flat_map(f).fold(0.0, f64::max);
        let mut stats: Vec<(&'static str, f64)> = COUNTERS
            .iter()
            .map(|&(name, f)| (name, runs.iter().map(f).sum::<f64>() / n))
            .collect();
        let per_sec = match point.busy_s > 0.0 {
            true => point.events as f64 / point.busy_s,
            false => 0.0,
        };
        let shards = [
            max(&|r| r.shards.iter().map(|s| s.share).collect()),
            max(&|r| {
                let devs = r.shards.iter().zip(&expected);
                devs.map(|(s, e)| (s.share - e).abs()).collect()
            }),
            per_sec,
        ];
        stats.extend(OTHER_STATS.into_iter().zip(shards));
        Record { result, stats }
    }

    fn stat(&self, name: &str) -> f64 {
        match ci_of(&self.result, name) {
            Some(ci) => ci.mean,
            None => {
                let stat = self.stats.iter().find(|s| s.0 == name);
                stat.unwrap_or_else(|| panic!("unknown statistic {name}")).1
            }
        }
    }

    /// The archived form, without the wall-clock `events_per_sec` (the
    /// pool's counters hold it). Per-server vectors are kept for fleets
    /// of at most [`PER_SERVER_SUMMARY_THRESHOLD`] servers, the size
    /// above which a run may collapse its per-server detail too.
    fn to_json(&self) -> Value {
        let mut value = self.result.to_json();
        let map = value.as_object_mut().expect("a result is an object");
        map.remove("runs");
        if self.result.dispatch_fractions.len() > PER_SERVER_SUMMARY_THRESHOLD {
            map.remove("dispatch_fractions");
            map.remove("server_utilizations");
        }
        for &(name, v) in &self.stats[..self.stats.len() - 1] {
            map.push(name, v.to_json());
        }
        value
    }
}

/// The cells' records, looked up by label.
struct Results<'a> {
    cells: &'a [Cell],
    records: Vec<Record>,
}

impl Results<'_> {
    fn record(&self, label: &str) -> &Record {
        let i = self.cells.iter().position(|c| c.label == label);
        &self.records[i.unwrap_or_else(|| panic!("no cell labelled {label:?}"))]
    }

    fn value(&self, e: &Expr) -> f64 {
        let pair = |a: &str, b: &str, s| (self.record(a).stat(s), self.record(b).stat(s));
        match e {
            Expr::Stat(c, s) => self.record(c).stat(s),
            Expr::Share(c, i) => 100.0 * self.record(c).result.dispatch_fractions[*i],
            Expr::Change(a, b, s) => {
                let (a, b) = pair(a, b, s);
                100.0 * (a - b) / b
            }
            Expr::Gain(a, b, s) => {
                let (a, b) = pair(a, b, s);
                100.0 * (b - a) / b
            }
            Expr::Const(x) => *x,
        }
    }

    /// An entry as printed and as archived.
    fn entry(&self, e: &Entry) -> (String, Value) {
        match e {
            Entry::Text(s) => (s.clone(), s.to_json()),
            Entry::Ci(c, s) => {
                let ci = ci_of(&self.record(c).result, s);
                let ci = ci.unwrap_or_else(|| panic!("{s} has no confidence interval"));
                let value = object([
                    ("mean", ci.mean.to_json()),
                    ("half_width", ci.half_width.to_json()),
                ]);
                (format!("{:.3}±{:.3}", ci.mean, ci.half_width), value)
            }
            Entry::Num(x, fmt) => {
                let v = self.value(x);
                (fmt(v), v.to_json())
            }
        }
    }

    /// Prints a block and returns its archived form (charts have none:
    /// they draw numbers the cells and tables already hold).
    fn show(&self, block: &Block) -> Option<Value> {
        match block {
            Block::Text(text) => println!("{text}"),
            Block::Table {
                title,
                header,
                rows,
            } => {
                let mut t = Table::new(header.iter().cloned());
                let mut archived = Vec::new();
                for row in rows {
                    let (shown, values): (Vec<String>, Vec<Value>) =
                        row.iter().map(|e| self.entry(e)).unzip();
                    t.row(shown);
                    archived.push(Value::Array(values));
                }
                println!("\n{title}");
                t.print();
                return Some(object([
                    ("title", title.to_json()),
                    ("header", header.to_json()),
                    ("rows", Value::Array(archived)),
                ]));
            }
            Block::Chart {
                title,
                height,
                series,
            } => {
                let mut chart = Chart::new(title.clone(), 64, *height);
                for (name, points) in series {
                    let pts: Vec<(f64, f64)> =
                        points.iter().map(|(x, y)| (*x, self.value(y))).collect();
                    chart.series(name.clone(), &pts);
                }
                println!();
                chart.print();
            }
        }
        None
    }

    /// Prints a claim; returns its archived form and whether it holds.
    fn judge(&self, claim: &Claim) -> (Value, bool) {
        let terms: Vec<(f64, f64)> = claim
            .terms
            .iter()
            .map(|(l, r)| (self.value(l), self.value(r)))
            .collect();
        let (symbol, holds): (&str, fn(f64, f64) -> bool) = match claim.op {
            Op::Lt => ("<", |l, r| l < r),
            Op::Le => ("<=", |l, r| l <= r),
            Op::Eq => ("==", |l, r| l == r),
        };
        let failed: Vec<&(f64, f64)> = terms.iter().filter(|(l, r)| !holds(*l, *r)).collect();
        let shown = match (&terms[..], failed.first()) {
            ([(l, r)], _) => format!("{l:.4} {symbol} {r:.4}"),
            (_, Some((l, r))) => {
                let n = (failed.len(), terms.len());
                format!("{} of {} fail, e.g. {l:.4} {symbol} {r:.4}", n.0, n.1)
            }
            _ => format!("all {} terms {symbol}", terms.len()),
        };
        let verdict = if failed.is_empty() { "holds" } else { "FAILS" };
        let kind = if claim.gate { "gate " } else { "claim" };
        let note = match claim.note {
            "" => String::new(),
            note => format!(" ({note})"),
        };
        println!("{kind} {}: {shown} — {verdict}{note}", claim.name);
        let pairs = terms
            .iter()
            .map(|(l, r)| Value::Array(vec![l.to_json(), r.to_json()]));
        let value = object([
            ("name", claim.name.to_json()),
            ("gate", claim.gate.to_json()),
            ("op", symbol.to_string().to_json()),
            ("terms", Value::Array(pairs.collect())),
            ("holds", failed.is_empty().to_json()),
        ]);
        (value, failed.is_empty())
    }
}

/// Runs `figure` at `mode`'s fidelity: its extra part, then every cell
/// through one sweep pool; prints its blocks and claims; writes the
/// archive to `--json` and the first observed run to `--obs`. Returns
/// whether every gated claim holds.
///
/// The archive is one object: `figure`, `scale`, `reps`; `cells`, one
/// record per cell (its `ExperimentResult` without the raw runs, then
/// its other statistics but `events_per_sec`); `tables`, each printed
/// table with its numbers at full precision; `claims`, each with its
/// evaluated terms and whether it holds; and `sweep`, the pool's
/// [`SweepStats`].
///
/// # Panics
/// Panics on invalid declarations, on a run whose availability is not
/// in (0, 1], and on IO failures — appropriate for a CLI entry point.
pub fn run(figure: &Figure, mode: &Mode) -> bool {
    let extra = figure
        .extra
        .map_or_else(|| Figure::new(figure.name), |f| f());
    let (results, sweep) = match figure.cells.is_empty() {
        true => (Vec::new(), None),
        false => {
            let (results, stats) = mode.run_cells(&figure.cells);
            (results, Some(stats))
        }
    };
    let runs = || results.iter().flat_map(|r| &r.runs);
    for run in runs() {
        let a = run.availability;
        assert!(a > 0.0 && a <= 1.0, "availability {a} out of (0, 1]");
    }
    if let Some(path) = &mode.obs {
        let report = runs().find_map(|r| r.obs.as_ref());
        let report = report.expect("--obs runs carry an observability report");
        let jsonl = report.to_jsonl().expect("obs series serializes");
        std::fs::write(path, jsonl).expect("archiving obs series");
        eprintln!(
            "obs time series ({} windows) -> {}",
            report.len(),
            path.display()
        );
    }
    let points = sweep.as_ref().map_or(&[][..], |s| &s.point_stats[..]);
    let records = (figure.cells.iter().zip(results).zip(points))
        .map(|((cell, result), point)| Record::new(cell, result, point))
        .collect();
    let results = Results {
        cells: &figure.cells,
        records,
    };
    let blocks = extra.blocks.iter().chain(&figure.blocks);
    let tables: Vec<Value> = blocks.filter_map(|b| results.show(b)).collect();
    let claims: Vec<&Claim> = extra.claims.iter().chain(&figure.claims).collect();
    if !claims.is_empty() {
        println!();
    }
    let (judged, holds): (Vec<Value>, Vec<bool>) = claims.iter().map(|c| results.judge(c)).unzip();
    if let Some(path) = &mode.json {
        let cells = results.records.iter().map(Record::to_json).collect();
        let mut archive = object([
            ("figure", figure.name.to_string().to_json()),
            ("scale", mode.scale.to_json()),
            ("reps", mode.reps.to_json()),
            ("cells", Value::Array(cells)),
            ("tables", Value::Array(tables)),
            ("claims", Value::Array(judged)),
        ]);
        if let Some(sweep) = &sweep {
            let map = archive.as_object_mut().expect("an object");
            map.push("sweep", sweep.to_json());
        }
        hetsched::report::save_json(path, &archive).expect("writing the archive");
        eprintln!("{} archive -> {}", figure.name, path.display());
    }
    claims.iter().zip(holds).all(|(c, h)| h || !c.gate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched::cluster::pdes::{shard_config, shard_ranges};
    use hetsched::cluster::Simulation;
    use std::collections::BTreeSet;

    fn parse(args: &[&str]) -> Mode {
        Mode::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn default_mode() {
        assert_eq!(parse(&[]), Mode::default());
    }

    #[test]
    fn full_and_quick() {
        assert_eq!(parse(&["--full"]).scale, 1.0);
        assert_eq!(parse(&["--full"]).reps, 10);
        assert_eq!(parse(&["--quick"]).reps, 2);
    }

    #[test]
    fn custom_scale_reps_json_obs() {
        let m = parse(&[
            "--scale", "0.5", "--reps", "3", "--json", "a.json", "--obs", "b",
        ]);
        assert_eq!((m.scale, m.reps), (0.5, 3));
        assert_eq!(m.json, Some(PathBuf::from("a.json")));
        assert_eq!(m.obs, Some(PathBuf::from("b")));
    }

    #[test]
    fn threads_flag() {
        assert_eq!(parse(&["--threads", "7"]).threads, 7);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn rejects_unknown() {
        parse(&["--bench-json", "x"]);
    }

    #[test]
    #[should_panic(expected = "scale must be in (0,1]")]
    fn rejects_bad_scale() {
        parse(&["--scale", "2.0"]);
    }

    fn tiny() -> ClusterConfig {
        let mut cfg = ClusterConfig::paper_default(&[1.0, 2.0]);
        cfg.job_sizes = DistSpec::Exponential { mean: 10.0 };
        cfg
    }

    #[test]
    fn run_cells_matches_per_point_runs_and_honours_cell_overrides() {
        let mut one_rep = Cell::new("b", tiny(), PolicySpec::orr());
        one_rep.reps = Some(1);
        let cells = [Cell::new("a", tiny(), PolicySpec::wrr()), one_rep];
        let m = parse(&["--quick", "--threads", "4"]);
        let (results, stats) = m.run_cells(&cells);
        assert_eq!(stats.tasks, 3);
        let alone = |policy| {
            let exp = Experiment::new("a", tiny(), policy).quick(0.02, 2);
            exp.run().expect("runs")
        };
        assert_eq!(results[0], alone(PolicySpec::wrr()));
        assert_eq!(results[1].runs[..], alone(PolicySpec::orr()).runs[..1]);
    }

    #[test]
    fn obs_probes_do_not_perturb_cells() {
        let cells = [Cell::new("p", tiny(), PolicySpec::orr())];
        let plain = parse(&["--quick"]);
        let mut with_obs = plain.clone();
        with_obs.obs = Some(PathBuf::from("unused.jsonl"));
        let (baseline, _) = plain.run_cells(&cells);
        let (mut observed, _) = with_obs.run_cells(&cells);
        for run in &mut observed[0].runs {
            let report = run.obs.take().expect("--obs enables probes on every run");
            assert!(!report.is_empty());
        }
        assert_eq!(observed, baseline);
    }

    /// A figure runs, judges its claims, and writes an archive with the
    /// pool's counters, every statistic of its cell, and its tables.
    #[test]
    fn run_writes_one_archive_and_judges_gates() {
        let fig = |gate_holds: bool| {
            let bound = Expr::Const(if gate_holds { 1e9 } else { 0.0 });
            let ratio = Expr::Stat("p".into(), "mean_response_ratio");
            Figure::new("tiny")
                .cell("p", tiny(), PolicySpec::orr())
                .table(
                    "t",
                    ["ratio"],
                    vec![vec![Entry::Ci("p".into(), "mean_slowdown")]],
                )
                .gate("bounded", ratio.clone(), Op::Lt, bound)
                .record("recorded", ratio, Op::Lt, Expr::Const(0.0), "")
        };
        let path = std::env::temp_dir().join(format!("hetsched-bench-{}.json", std::process::id()));
        let mut mode = parse(&["--quick"]);
        mode.json = Some(path.clone());
        assert!(!run(&fig(false), &mode), "a failed gate fails the run");
        assert!(run(&fig(true), &mode), "a failed recorded claim does not");
        let text = std::fs::read_to_string(&path).expect("archive written");
        std::fs::remove_file(&path).ok();
        let archive: Value = hetsched::json::from_str(&text).expect("archive parses");
        let map = archive.as_object().expect("an object");
        let sweep = map
            .get("sweep")
            .and_then(Value::as_object)
            .expect("pool counters");
        assert!(sweep.get("events_per_sec").is_some());
        let cell = map["cells"].as_array().expect("cells")[0]
            .as_object()
            .expect("record");
        assert!(
            cell.get("runs").is_none(),
            "raw runs stay out of the archive"
        );
        for name in CI_STATS.iter().chain(COUNTERS.iter().map(|c| &c.0)) {
            assert!(cell.get(name).is_some(), "{name} archived");
        }
        let claims = map["claims"].as_array().expect("claims");
        let holds: Vec<bool> = (claims.iter())
            .map(|c| c.as_object().expect("claim")["holds"] == Value::Bool(true))
            .collect();
        assert_eq!(holds, [true, false]);
        assert_eq!(map["tables"].as_array().expect("tables").len(), 1);
    }

    /// Whether [`Expr::Stat`] can read the statistic `name`.
    fn is_stat(name: &str) -> bool {
        CI_STATS.contains(&name)
            || OTHER_STATS.contains(&name)
            || COUNTERS.iter().any(|c| c.0 == name)
    }

    fn exprs(figure: &Figure) -> Vec<&Expr> {
        let mut out = Vec::new();
        for block in &figure.blocks {
            match block {
                Block::Table { rows, .. } => {
                    out.extend(rows.iter().flatten().filter_map(|e| match e {
                        Entry::Num(x, _) => Some(x),
                        _ => None,
                    }))
                }
                Block::Chart { series, .. } => {
                    out.extend(series.iter().flat_map(|s| s.1.iter().map(|p| &p.1)))
                }
                Block::Text(_) => {}
            }
        }
        out.extend(
            figure
                .claims
                .iter()
                .flat_map(|c| c.terms.iter().flat_map(|t| [&t.0, &t.1])),
        );
        out
    }

    /// Every declaration refers only to cells it has and statistics a
    /// cell has, and its labels are unique. Nothing is simulated.
    #[test]
    fn every_claim_and_entry_names_cells_that_exist() {
        for (name, declare) in figures::FIGURES {
            let figure = declare(0.02);
            assert_eq!(figure.name, name);
            let labels: BTreeSet<&str> = figure.cells.iter().map(|c| c.label.as_str()).collect();
            assert_eq!(labels.len(), figure.cells.len(), "{name}: duplicate labels");
            let known = |cell: &str, stat: &str| {
                assert!(labels.contains(cell), "{name}: no cell {cell:?}");
                assert!(is_stat(stat), "{name}: no statistic {stat:?}");
            };
            for x in exprs(&figure) {
                match x {
                    Expr::Stat(c, s) => known(c, s),
                    Expr::Share(c, _) => known(c, "mean_response_ratio"),
                    Expr::Change(a, b, s) | Expr::Gain(a, b, s) => {
                        known(a, s);
                        known(b, s);
                    }
                    Expr::Const(x) => assert!(x.is_finite(), "{name}: constant {x}"),
                }
            }
            for block in &figure.blocks {
                if let Block::Table { header, rows, .. } = block {
                    for row in rows {
                        assert_eq!(row.len(), header.len(), "{name}: ragged row");
                        for e in row {
                            if let Entry::Ci(c, s) = e {
                                known(c, s);
                                assert!(CI_STATS.contains(s), "{name}: {s} has no interval");
                            }
                        }
                    }
                }
            }
        }
    }

    /// Every cell of every figure validates and builds its engine, at
    /// smoke and at full fidelity, without running.
    #[test]
    fn every_cell_validates_and_builds() {
        for scale in [0.02, 1.0] {
            for (name, declare) in figures::FIGURES {
                for cell in declare(scale).cells {
                    let mut cfg = cell.cfg.clone().scaled(scale);
                    cfg.normalize_fleet();
                    let what = format!("{name} / {} at scale {scale}", cell.label);
                    cfg.validate().unwrap_or_else(|e| panic!("{what}: {e}"));
                    let d = cfg.dispatch.dispatchers.max(1);
                    let built = match cell.sim_threads {
                        0 => (0..d)
                            .map(|_| cell.policy.build(&cfg))
                            .collect::<Result<Vec<_>, _>>(),
                        _ if d == 1 => cell.policy.build(&cfg).map(|p| vec![p]),
                        _ => (shard_ranges(cfg.speeds.len(), d).iter())
                            .map(|r| cell.policy.build(&shard_config(&cfg, r)))
                            .collect(),
                    };
                    let policies = built.unwrap_or_else(|e| panic!("{what}: {e}"));
                    let engine = match cell.sim_threads {
                        0 => Simulation::with_policies(cfg, policies, 1).map(drop),
                        n => ParallelSimulation::new(cfg, policies, 1, n).map(drop),
                    };
                    engine.unwrap_or_else(|e| panic!("{what}: {e}"));
                }
            }
        }
    }

    fn figure(name: &str) -> Figure {
        figures::declare(name, 0.25).expect("declared")
    }

    /// The shape the dispatch figure's claims stand on: every shard
    /// count, one `D = 1` baseline, and at least two sync settings.
    #[test]
    fn dispatch_grid_is_complete() {
        let cells = figure("fig_dispatch").cells;
        let tier: Vec<&Cell> = cells.iter().filter(|c| c.cfg.faults.is_none()).collect();
        let ds: BTreeSet<usize> = tier.iter().map(|c| c.cfg.dispatch.dispatchers).collect();
        assert!(ds.is_superset(&[1, 2, 4, 8, 16].into()));
        let base = tier.iter().filter(|c| c.cfg.dispatch.dispatchers == 1);
        assert_eq!(base.count(), 1, "one D = 1 baseline");
        let syncs: BTreeSet<u64> = (tier.iter())
            .filter_map(|c| c.cfg.dispatch.sync.map(|s| s.interval.to_bits()))
            .collect();
        assert!(syncs.len() >= 2, "need >= 2 sync settings");
        assert!(
            cells.iter().all(|c| c.sim_threads == 0),
            "pinned to the classic engine"
        );
    }

    #[test]
    fn malleable_roster_is_complete() {
        let cells = figure("fig_malleable").cells;
        let roster: BTreeSet<String> = cells.iter().map(|c| c.policy.label()).collect();
        assert_eq!(
            roster,
            ["DYNAMIC", "HESRPT", "HESRPT-STATIC", "ORR"]
                .map(String::from)
                .into()
        );
    }

    #[test]
    fn fault_and_channel_figures_have_their_cells() {
        let faults = figure("fig_faults").cells;
        assert!(!faults.is_empty() && faults.iter().all(|c| c.cfg.faults.is_some()));
        let unreliable = figure("fig_unreliable").cells;
        let lossy = unreliable
            .iter()
            .filter(|c| c.label.starts_with("loss 0."))
            .count();
        assert!(lossy > 0, "no loss-sweep cells");
    }

    #[test]
    fn scale_axis_spans_four_decades() {
        assert_eq!(figures::FLEET_SIZES, [10, 100, 1000, 10_000]);
        let cells = figure("fig_scale").cells;
        let robust: Vec<&Cell> = cells.iter().filter(|c| c.sim_threads == 2).collect();
        assert_eq!(robust.len(), 2 * figures::FLEET_SIZES.len());
        assert!(robust
            .iter()
            .all(|c| c.cfg.faults.is_some() && c.reps == Some(1)));
    }
}
