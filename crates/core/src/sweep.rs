//! Sweep-level work pool.
//!
//! Every figure/table in the paper is a *sweep*: a grid of data points
//! (utilization, speed skew, system size, …) where each point averages
//! several independent replications (§4.1). Running points one at a time
//! puts a fork/join barrier after every point, and the longest
//! replication — always at high utilization, where the Bounded-Pareto
//! tail bites — leaves the other cores idle before the next point can
//! start.
//!
//! [`Sweep`] removes those barriers. It flattens the whole grid into one
//! stream of `(point, replication)` tasks executed by a single pool of
//! workers, ordered **longest-expected-first** (descending utilization
//! `ρ`, then expected job count), so tail stragglers start early and
//! hide behind the rest of the sweep instead of running alone at the
//! end. Results land in write-once per-task slots and are merged per
//! point in replication order, so the output is **bit-identical** to
//! running each point's [`Experiment::run`] sequentially — at any thread
//! count. The pool itself (std scoped threads, write-once result slots,
//! and the nested `threads × sim_threads` plan) is the private `pool`
//! module.
//!
//! The pool also instruments itself: [`SweepStats`] records simulated
//! events per wall-clock second and per-point busy time, giving the repo
//! a machine-readable performance trajectory (`BENCH_sweep.json` in the
//! bench harness).

use std::time::Instant;

use hetsched_cluster::RunStats;
use hetsched_error::HetschedError;
use hetsched_metrics::CiSummary;

use crate::experiment::{Experiment, ExperimentResult};

mod pool;

use pool::{parallel_map_in_order, plan_nested};

/// A collection of experiments executed through one global work pool.
///
/// Unlike a loop of [`Experiment::run`] calls, a `Sweep` has no
/// per-point barrier: all `(point, replication)` tasks share one worker
/// pool. Each point's own `threads` field is ignored — the pool is a
/// sweep-level resource, controlled by [`Sweep::threads`].
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// The data points, in presentation order.
    pub points: Vec<Experiment>,
    /// Worker threads for the pool (0 = auto).
    pub threads: usize,
}

/// Results plus pool instrumentation for one sweep execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// One aggregated result per point, in input order; bit-identical to
    /// what each point's [`Experiment::run`] would have produced.
    pub results: Vec<ExperimentResult>,
    /// Pool throughput counters.
    pub stats: SweepStats,
}

/// Machine-readable pool throughput counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepStats {
    /// Worker threads the pool actually used.
    pub threads: usize,
    /// Number of data points.
    pub points: usize,
    /// Number of `(point, replication)` tasks executed.
    pub tasks: usize,
    /// Wall-clock seconds for the whole pool (all rounds).
    pub wall_s: f64,
    /// Total simulated events processed across all tasks.
    pub total_events: u64,
    /// `total_events / wall_s` — the headline throughput number.
    pub events_per_sec: f64,
    /// Per-point detail, in input order.
    pub point_stats: Vec<PointStats>,
}

hetsched_json::json_struct!(SweepStats {
    threads,
    points,
    tasks,
    wall_s,
    total_events,
    events_per_sec,
    point_stats,
});

/// Per-point slice of the pool counters.
#[derive(Debug, Clone, PartialEq)]
pub struct PointStats {
    /// The point's experiment label.
    pub name: String,
    /// The policy's display name.
    pub policy: String,
    /// The point's configured utilization (the ordering key).
    pub utilization: f64,
    /// Replications executed for this point.
    pub replications: u64,
    /// Simulated events processed by this point's replications.
    pub events: u64,
    /// Summed wall-clock seconds of this point's replication tasks
    /// (worker-busy seconds, not elapsed time — tasks of different
    /// points overlap freely in the pool).
    pub busy_s: f64,
}

hetsched_json::json_struct!(PointStats {
    name,
    policy,
    utilization,
    replications,
    events,
    busy_s,
});

/// One schedulable unit: replication `rep` of point `point`.
#[derive(Debug, Clone, Copy)]
struct Task {
    point: usize,
    rep: u64,
}

impl Sweep {
    /// Creates a sweep over `points` with automatic thread count.
    pub fn new(points: Vec<Experiment>) -> Self {
        Sweep { points, threads: 0 }
    }

    /// Sets the worker-thread knob (0 = auto).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Validates every point up front, exactly as a replication builds
    /// it (fleet expanded, config validated, then its policies built),
    /// so errors surface before any thread spawns. Returns the pool's
    /// worker count, planned against the largest per-point
    /// `sim_threads` so the two levels cannot multiply into an absurd
    /// thread count (see [`plan_nested`]).
    fn plan(&self) -> Result<usize, HetschedError> {
        for p in &self.points {
            p.prepare()
                .map_err(|e| e.context(format!("point '{}'", p.name)))?;
            if p.replications == 0 {
                return Err(HetschedError::BadParameter(format!(
                    "point '{}': needs at least one replication",
                    p.name
                )));
            }
        }
        let sim_threads = self.points.iter().map(|p| p.sim_threads).max().unwrap_or(0);
        plan_nested(self.threads, sim_threads, 0)
    }

    /// Pull order for `tasks`: descending expected cost, so the longest
    /// tasks start first. The primary key is the point's utilization `ρ`
    /// (queueing delay — and therefore event-tail length — explodes as
    /// `ρ → 1`); the secondary key is the expected job count
    /// `λ · horizon` (bigger systems and longer horizons mean more
    /// events), read off the fleet-expanded configuration, so a point
    /// written as `fleet` groups is keyed by its real size. The sort is
    /// stable, so tied tasks keep their `(point, replication)` order and
    /// the schedule is deterministic.
    fn pull_order(&self, tasks: &[Task]) -> Vec<usize> {
        let keys: Vec<(f64, f64)> = self
            .points
            .iter()
            .map(|p| {
                let mut cluster = p.cluster.clone();
                cluster.normalize_fleet();
                (cluster.utilization, cluster.lambda() * cluster.horizon)
            })
            .collect();
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        order.sort_by(|&a, &b| {
            let ka = keys[tasks[a].point];
            let kb = keys[tasks[b].point];
            kb.0.total_cmp(&ka.0).then(kb.1.total_cmp(&ka.1))
        });
        order
    }

    /// Executes one round of `tasks` through the pool, returning
    /// `(RunStats, task_wall_seconds)` in task order.
    fn run_round(&self, tasks: &[Task], threads: usize) -> Vec<(RunStats, f64)> {
        let order = self.pull_order(tasks);
        parallel_map_in_order(tasks, threads, &order, |t| {
            let started = Instant::now();
            let stats = self.points[t.point]
                .run_single(t.rep)
                .expect("validated configuration cannot fail");
            (stats, started.elapsed().as_secs_f64())
        })
    }

    /// Runs every point's replications through one pool and aggregates
    /// per point in replication order.
    ///
    /// # Errors
    /// Returns the first point's validation error without spawning any
    /// run.
    pub fn run(&self) -> Result<SweepOutcome, HetschedError> {
        let threads = self.plan()?;
        let tasks: Vec<Task> = self
            .points
            .iter()
            .enumerate()
            .flat_map(|(point, p)| (0..p.replications).map(move |rep| Task { point, rep }))
            .collect();

        let pool_started = Instant::now();
        let timed = self.run_round(&tasks, threads);
        let wall_s = pool_started.elapsed().as_secs_f64();

        // Tasks were generated point-major, so each point's replications
        // are a contiguous, replication-ordered slice of the results.
        let mut results = Vec::with_capacity(self.points.len());
        let mut point_stats = Vec::with_capacity(self.points.len());
        let mut cursor = 0usize;
        for p in &self.points {
            let n = p.replications as usize;
            let slice = &timed[cursor..cursor + n];
            cursor += n;
            let runs: Vec<RunStats> = slice.iter().map(|(r, _)| r.clone()).collect();
            point_stats.push(PointStats {
                name: p.name.clone(),
                policy: p.policy.label(),
                utilization: p.cluster.utilization,
                replications: p.replications,
                events: runs.iter().map(|r| r.events_processed).sum(),
                busy_s: slice.iter().map(|(_, s)| s).sum(),
            });
            results.push(ExperimentResult::aggregate(&p.name, p.policy.label(), runs));
        }

        Ok(SweepOutcome {
            results,
            stats: SweepStats::collect(threads, wall_s, point_stats),
        })
    }

    /// Runs every point until its 95% CI half-width of the mean response
    /// ratio falls below `rel_precision` of its mean, or `max_reps` is
    /// reached — [`Experiment::run_to_precision`] semantics, but with all
    /// points' batches pooled per round so precision refinement shares
    /// the worker pool too.
    ///
    /// Per point, the replication sequence (and therefore the result) is
    /// bit-identical to calling that point's
    /// [`Experiment::run_to_precision`] on its own.
    ///
    /// # Errors
    /// Returns the validation error without spawning any run.
    pub fn run_to_precision(
        &self,
        rel_precision: f64,
        max_reps: u64,
    ) -> Result<SweepOutcome, HetschedError> {
        if !(rel_precision > 0.0 && rel_precision.is_finite()) {
            return Err(HetschedError::BadParameter(
                "precision must be a positive fraction".into(),
            ));
        }
        if max_reps == 0 {
            return Err(HetschedError::BadParameter(
                "need at least one replication".into(),
            ));
        }
        let threads = self.plan()?;

        struct PointState {
            runs: Vec<RunStats>,
            next_rep: u64,
            busy_s: f64,
            done: bool,
        }
        let mut states: Vec<PointState> = self
            .points
            .iter()
            .map(|_| PointState {
                runs: Vec::new(),
                next_rep: 0,
                busy_s: 0.0,
                done: false,
            })
            .collect();

        let mut wall_s = 0.0;
        loop {
            // Collect this round's batch from every unfinished point.
            let mut tasks: Vec<Task> = Vec::new();
            for (point, (p, st)) in self.points.iter().zip(states.iter_mut()).enumerate() {
                if st.done {
                    continue;
                }
                let batch = p.replications.max(3).min(max_reps);
                let take = batch.min(max_reps - st.next_rep);
                tasks.extend((st.next_rep..st.next_rep + take).map(|rep| Task { point, rep }));
                st.next_rep += take;
            }
            if tasks.is_empty() {
                break;
            }

            let round_started = Instant::now();
            let timed = self.run_round(&tasks, threads);
            wall_s += round_started.elapsed().as_secs_f64();

            // Append in task order (replication order within each point)
            // and re-evaluate each point's stopping rule.
            for (t, (run, secs)) in tasks.iter().zip(timed) {
                let st = &mut states[t.point];
                st.runs.push(run);
                st.busy_s += secs;
            }
            for st in states.iter_mut() {
                if st.done {
                    continue;
                }
                if st.runs.len() >= 3 {
                    let ratios: Vec<f64> = st.runs.iter().map(|r| r.mean_response_ratio).collect();
                    let ci = CiSummary::from_values(&ratios);
                    if ci.half_width <= rel_precision * ci.mean.abs() {
                        st.done = true;
                        continue;
                    }
                }
                if st.next_rep >= max_reps {
                    st.done = true;
                }
            }
        }

        let mut results = Vec::with_capacity(self.points.len());
        let mut point_stats = Vec::with_capacity(self.points.len());
        for (p, st) in self.points.iter().zip(states) {
            point_stats.push(PointStats {
                name: p.name.clone(),
                policy: p.policy.label(),
                utilization: p.cluster.utilization,
                replications: st.runs.len() as u64,
                events: st.runs.iter().map(|r| r.events_processed).sum(),
                busy_s: st.busy_s,
            });
            results.push(ExperimentResult::aggregate(
                &p.name,
                p.policy.label(),
                st.runs,
            ));
        }
        Ok(SweepOutcome {
            results,
            stats: SweepStats::collect(threads, wall_s, point_stats),
        })
    }
}

impl SweepStats {
    /// Totals the per-point counters into one stats record.
    fn collect(threads: usize, wall_s: f64, point_stats: Vec<PointStats>) -> Self {
        let tasks = point_stats.iter().map(|p| p.replications as usize).sum();
        let total_events: u64 = point_stats.iter().map(|p| p.events).sum();
        SweepStats {
            threads,
            points: point_stats.len(),
            tasks,
            wall_s,
            total_events,
            events_per_sec: if wall_s > 0.0 {
                total_events as f64 / wall_s
            } else {
                0.0
            },
            point_stats,
        }
    }

    /// Merges several sweeps' counters (e.g. one per figure) into one
    /// trajectory record: wall time and events add; threads must agree
    /// and are carried over.
    pub fn merged(sweeps: &[SweepStats]) -> SweepStats {
        let threads = sweeps.first().map_or(0, |s| s.threads);
        let wall_s: f64 = sweeps.iter().map(|s| s.wall_s).sum();
        let point_stats: Vec<PointStats> = sweeps
            .iter()
            .flat_map(|s| s.point_stats.iter().cloned())
            .collect();
        let mut merged = SweepStats::collect(threads, wall_s, point_stats);
        // `collect` recomputes events/sec from the summed wall time.
        merged.threads = threads;
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_cluster::{ClusterConfig, FleetGroup};
    use hetsched_policies::PolicySpec;

    fn tiny_point(name: &str, rho: f64) -> Experiment {
        let mut cfg = ClusterConfig::paper_default(&[1.0, 2.0]).with_utilization(rho);
        cfg.job_sizes = hetsched_dist::DistSpec::Exponential { mean: 10.0 };
        cfg.horizon = 20_000.0;
        cfg.warmup = 2_000.0;
        let mut e = Experiment::new(name, cfg, PolicySpec::orr());
        e.replications = 3;
        e
    }

    fn tiny_sweep() -> Sweep {
        Sweep::new(vec![
            tiny_point("rho=0.3", 0.3),
            tiny_point("rho=0.9", 0.9),
            tiny_point("rho=0.6", 0.6),
        ])
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let single = tiny_sweep().with_threads(1).run().unwrap();
        let pooled = tiny_sweep().with_threads(8).run().unwrap();
        assert_eq!(single.results, pooled.results);
    }

    #[test]
    fn matches_per_point_experiment_run() {
        let sweep = tiny_sweep().with_threads(4);
        let pooled = sweep.run().unwrap();
        for (point, pooled_result) in sweep.points.iter().zip(&pooled.results) {
            let sequential = point.run().unwrap();
            assert_eq!(&sequential, pooled_result, "{}", point.name);
        }
    }

    #[test]
    fn pull_order_starts_high_utilization_first() {
        let sweep = tiny_sweep();
        let tasks: Vec<Task> = sweep
            .points
            .iter()
            .enumerate()
            .flat_map(|(point, p)| (0..p.replications).map(move |rep| Task { point, rep }))
            .collect();
        let order = sweep.pull_order(&tasks);
        // Point 1 (rho=0.9) first, then point 2 (0.6), then point 0 (0.3),
        // replications in order within each point.
        let pulled: Vec<(usize, u64)> = order
            .iter()
            .map(|&i| (tasks[i].point, tasks[i].rep))
            .collect();
        assert_eq!(
            pulled,
            vec![
                (1, 0),
                (1, 1),
                (1, 2),
                (2, 0),
                (2, 1),
                (2, 2),
                (0, 0),
                (0, 1),
                (0, 2)
            ]
        );
    }

    #[test]
    fn pull_order_keys_fleet_points_by_their_expanded_size() {
        // Equal ρ: a 15-server point spelled as speeds and a 1,000-server
        // point spelled only as fleet groups. The larger point expects
        // more jobs, so it is pulled first.
        let mut small = tiny_point("15 servers", 0.7);
        small.cluster.speeds = vec![1.0; 15];
        let mut large = tiny_point("1,000 servers", 0.7);
        large.cluster.speeds.clear();
        large.cluster.fleet = vec![FleetGroup {
            count: 1000,
            speed: 1.0,
        }];
        let sweep = Sweep::new(vec![small, large]);
        let tasks: Vec<Task> = (0..2).map(|point| Task { point, rep: 0 }).collect();
        assert_eq!(sweep.pull_order(&tasks), vec![1, 0]);
    }

    #[test]
    fn stats_account_for_every_task() {
        let out = tiny_sweep().with_threads(2).run().unwrap();
        assert_eq!(out.stats.points, 3);
        assert_eq!(out.stats.tasks, 9);
        assert_eq!(out.stats.point_stats.len(), 3);
        assert!(out.stats.total_events > 0);
        assert!(out.stats.wall_s > 0.0);
        assert!(out.stats.events_per_sec > 0.0);
        let per_point_events: u64 = out.stats.point_stats.iter().map(|p| p.events).sum();
        assert_eq!(per_point_events, out.stats.total_events);
        for (p, r) in out.stats.point_stats.iter().zip(&out.results) {
            assert_eq!(p.replications as usize, r.runs.len());
            assert!(p.busy_s > 0.0);
        }
    }

    #[test]
    fn invalid_point_errors_before_running() {
        let mut sweep = tiny_sweep();
        sweep.points[1].cluster.utilization = 1.5;
        let err = sweep.run().unwrap_err();
        assert!(
            err.to_string().contains("rho=0.9"),
            "error names the point: {err}"
        );
        assert!(
            matches!(
                err.root_cause(),
                hetsched_error::HetschedError::InvalidPolicy(_)
                    | hetsched_error::HetschedError::Saturated
            ),
            "typed root cause: {:?}",
            err.root_cause()
        );
    }

    #[test]
    fn bad_speeds_point_is_a_typed_error() {
        let mut point = tiny_point("empty", 0.5);
        point.cluster.speeds = Vec::new();
        let err = Sweep::new(vec![point]).run().unwrap_err();
        assert!(
            matches!(err.root_cause(), HetschedError::NoComputers),
            "{err:?}"
        );
    }

    #[test]
    fn fleet_shorthand_point_runs_in_a_sweep() {
        let mut point = tiny_point("fleet", 0.5);
        point.cluster.speeds = Vec::new();
        point.cluster.fleet = vec![
            FleetGroup {
                count: 1,
                speed: 1.0,
            },
            FleetGroup {
                count: 1,
                speed: 2.0,
            },
        ];
        let pooled = Sweep::new(vec![point]).with_threads(2).run().unwrap();
        let explicit = tiny_point("fleet", 0.5).run().unwrap();
        assert_eq!(pooled.results, vec![explicit]);
    }

    #[test]
    fn point_sim_threads_are_planned_with_the_pool() {
        // One shard: a run would use one engine thread whatever the
        // knob says, but the plan rejects the absurd knob before any run.
        let mut point = tiny_point("nested", 0.5);
        point.cluster.horizon = 200.0;
        point.cluster.warmup = 0.0;
        point.sim_threads = 1000;
        let err = Sweep::new(vec![point]).with_threads(1).run().unwrap_err();
        assert!(err.to_string().contains("sim_threads"), "{err}");
    }

    #[test]
    fn zero_replication_point_is_rejected() {
        let mut sweep = tiny_sweep();
        sweep.points[0].replications = 0;
        assert!(sweep.run().is_err());
    }

    #[test]
    fn empty_sweep_is_ok() {
        let out = Sweep::new(Vec::new()).run().unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.stats.tasks, 0);
        assert_eq!(out.stats.events_per_sec, 0.0);
    }

    #[test]
    fn precision_matches_experiment_run_to_precision() {
        let point = tiny_point("precise", 0.6);
        let sweep = Sweep::new(vec![point.clone()]).with_threads(4);
        // Loose target: met by the initial batch.
        let pooled = sweep.run_to_precision(10.0, 50).unwrap();
        let sequential = point.run_to_precision(10.0, 50).unwrap();
        assert_eq!(pooled.results, vec![sequential]);
        // Impossible target: runs to the cap.
        let pooled = sweep.run_to_precision(1e-9, 7).unwrap();
        let sequential = point.run_to_precision(1e-9, 7).unwrap();
        assert_eq!(pooled.results, vec![sequential]);
        assert_eq!(pooled.results[0].runs.len(), 7);
    }

    #[test]
    fn precision_pools_multiple_points() {
        let sweep = tiny_sweep().with_threads(4);
        let out = sweep.run_to_precision(1e-9, 5).unwrap();
        assert_eq!(out.results.len(), 3);
        for r in &out.results {
            assert_eq!(
                r.runs.len(),
                5,
                "impossible target runs every point to the cap"
            );
        }
        assert_eq!(out.stats.tasks, 15);
    }

    #[test]
    fn precision_validates() {
        let sweep = tiny_sweep();
        assert!(sweep.run_to_precision(0.0, 10).is_err());
        assert!(sweep.run_to_precision(0.1, 0).is_err());
    }

    #[test]
    fn merged_stats_add_up() {
        let a = tiny_sweep().with_threads(2).run().unwrap().stats;
        let b = tiny_sweep().with_threads(2).run().unwrap().stats;
        let m = SweepStats::merged(&[a.clone(), b.clone()]);
        assert_eq!(m.tasks, a.tasks + b.tasks);
        assert_eq!(m.total_events, a.total_events + b.total_events);
        assert_eq!(m.points, a.points + b.points);
        assert!((m.wall_s - (a.wall_s + b.wall_s)).abs() < 1e-12);
    }

    #[test]
    fn stats_serde_round_trip() {
        let stats = tiny_sweep().with_threads(1).run().unwrap().stats;
        let json = hetsched_json::to_string(&stats);
        let back: SweepStats = hetsched_json::from_str(&json).unwrap();
        assert_eq!(stats, back);
    }
}
