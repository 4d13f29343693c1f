//! Conservative parallel discrete-event engine across dispatch shards.
//!
//! The classic [`crate::Simulation`] runs one event kernel over the
//! whole cluster. This module runs one kernel instance **per dispatch
//! shard**: the servers are partitioned into `D` contiguous slices, the
//! arrival stream is partitioned by the tier's [`Splitter`] as the
//! shards pull it, and each shard advances through its own future-event
//! list. Shards only interact through the periodic state-sync plane,
//! whose one-way latency gives the engine its *lookahead*: between two
//! sync epochs no shard can possibly affect another, so every shard may
//! be advanced to the next epoch boundary without violating causality (a
//! conservative synchronization scheme in the Chandy–Misra tradition,
//! degenerated to barrier steps because the inter-shard topology is
//! all-to-all). With sync disabled the lookahead is infinite and the
//! shards are embarrassingly parallel.
//!
//! ## Determinism
//!
//! The engine is *bit-identical across thread counts*: running `D`
//! shards on one thread or on `min(sim_threads, D)` threads produces
//! byte-for-byte the same [`RunStats`]. Three mechanisms make that
//! true:
//!
//! 1. **Streamed arrivals from one generator.** One generator, shared
//!    by every shard, draws the arrival, size, class-stamp and splitter
//!    streams in the exact per-stream order the live single-kernel path
//!    draws them (the first three through the same `ArrivalDraw`; each
//!    stream is an independent [`Rng64`](hetsched_desim::Rng64), so
//!    per-stream order is all that matters) and appends each arrival to
//!    its shard's queue. A shard that runs out takes its whole queue
//!    under one lock, drawing more first if the queue is empty. Draws
//!    happen in global arrival order whoever pulls, so a shard's
//!    subsequence, and the instant at which it schedules each arrival,
//!    do not depend on which shard draws first.
//! 2. **Disjoint RNG streams.** Shard `s` draws dispatch and network
//!    values from streams `PDES_STREAM_BASE + 2s` and
//!    `PDES_STREAM_BASE + 2s + 1`; fault streams keep the classic
//!    `4 + global_server_index` layout. No stream is shared.
//! 3. **Shard-ordered reductions.** Sync consensus folds snapshots in
//!    shard-index order (see [`hetsched_dispatch::SyncExchange`]), and
//!    the final merge folds per-shard statistics in shard order, so no
//!    floating-point sum ever depends on thread scheduling.
//!
//! With one dispatcher the whole apparatus degenerates: the single
//! shard sees the full cluster, the classic stream layout, and the
//! original dispatch spec, so a `D = 1` parallel run is bit-identical
//! to [`crate::Simulation::run`] (for configurations without a sync
//! plane, the only ones where the classic path and the epoch-barrier
//! protocol are the same algorithm).
//!
//! ## Memory
//!
//! Arrivals wait in the generator's queues from the draw until their
//! shard takes them, so the epoch loop bounds how far ahead any shard
//! can pull: no shard passes a boundary before every shard has reached
//! it. The boundaries are the sync epochs when `D > 1` shards share a
//! sync plane, and otherwise fixed windows of about 4,096 expected
//! arrivals, whose only job is this bound (at a window boundary no
//! shard publishes, and the exchange is a bare barrier). The queues
//! then hold about one boundary interval's arrivals plus one refill
//! chunk. One case escapes the bound: a shard with zero expected share
//! (a source-hash splitter with fewer sources than shards) has no
//! arrival of its own before the sentinel, so its first pull draws the
//! whole stream into its peers' queues. That is the memory a
//! whole-horizon pre-generation takes, not more.
//!
//! ## Semantics for `D > 1`
//!
//! The partitioned engine is a *different model* from the classic
//! multi-dispatcher simulation, not a faster implementation of it: each
//! dispatcher owns only its server slice (the classic tier lets every
//! dispatcher dispatch to every server), resubmitted jobs stay on their
//! shard, and sync consensus is exchanged at epoch boundaries rather
//! than at exact publish instants. The run closes through the same
//! `finalize` as the classic engine, which folds the shard models in
//! shard order: Welford moments merge exactly (Chan et al.), the
//! response-ratio sketches bucket by bucket, traces by absorption,
//! servers shard-major, and counters sum. So a `D > 1` run's p95/p99
//! are quantiles of the pooled jobs, within 2^-7 of the exact ones, at
//! every thread count. The obs report has a one-model case, so that
//! `D = 1` reports exactly its model's own numbers; for `D > 1` it is
//! merged column by column, each window's response quantiles from the
//! shards' pooled window buckets. The deviation curve is the
//! elementwise mean of the shards' curves, which for one shard is its
//! own curve.

use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hetsched_desim::{Engine, SimTime};
use hetsched_dispatch::{Coordination, DispatchSpec, Splitter, SyncExchange};
use hetsched_error::HetschedError;

use crate::config::ClusterConfig;
use crate::policy::Policy;
use crate::results::RunStats;
use crate::simulation::{finalize, prepare, ArrivalDraw, Ev, Model, StreamPlan};

/// Base RNG stream index for per-shard dispatch/network streams.
///
/// Far above the classic layout (arrivals 0, sizes 1, dispatch 2,
/// network 3, faults `4 + i`) and the splitter's own stream
/// (`1 << 40`), so per-shard streams can never collide with any other
/// stream at any cluster size.
pub const PDES_STREAM_BASE: u64 = 1 << 41;

/// Splits `n` servers into `d` contiguous, balanced slices.
///
/// The first `n % d` shards get one extra server. Requires `1 ≤ d ≤ n`.
pub fn shard_ranges(n: usize, d: usize) -> Vec<Range<usize>> {
    assert!(
        d >= 1 && d <= n,
        "need 1 ≤ shards ≤ servers, got {d} shards for {n} servers"
    );
    let base = n / d;
    let extra = n % d;
    let mut ranges = Vec::with_capacity(d);
    let mut start = 0;
    for s in 0..d {
        let len = base + usize::from(s < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Derives the cluster configuration a single shard simulates: the
/// shard's server slice with a trivial (single-dispatcher, sync-free)
/// dispatch section — the parallel driver itself owns splitting and
/// sync.
///
/// Everything else (arrival spec, job sizes, discipline, horizon,
/// warmup, faults, channels, observability, tracing, the malleable
/// section) is inherited unchanged, except that a targeted fault's
/// server list is remapped
/// from global to shard-local indices (targets outside the slice are
/// dropped; a shard with no targets keeps an empty list and crashes
/// nothing).
pub fn shard_config(cfg: &ClusterConfig, range: &Range<usize>) -> ClusterConfig {
    let mut sub = cfg.clone();
    sub.speeds = cfg.speeds[range.clone()].to_vec();
    sub.dispatch = DispatchSpec::default();
    if let Some(faults) = &mut sub.faults {
        if let Some(servers) = &mut faults.servers {
            *servers = servers
                .iter()
                .filter(|&&g| range.contains(&g))
                .map(|&g| g - range.start)
                .collect();
        }
    }
    sub
}

/// One arrival of a shard's feed: `(time, size, malleable class)`.
type Arrival = (f64, f64, u16);

/// Arrivals a refill draws at least, so a shard locks the generator once
/// per batch of arrivals rather than once per arrival.
const REFILL_CHUNK: usize = 64;

/// Expected arrivals per window of the epoch loop when no sync plane
/// sets its boundaries. The window bounds how far ahead of its peers a
/// shard can pull, and so how many arrivals wait in the generator's
/// queues.
const WINDOW_ARRIVALS: f64 = 4096.0;

/// The global arrival stream of a parallel run, drawn on demand and
/// partitioned into one queue per shard.
///
/// Draw order per stream is exactly the live path's: the gap stream
/// advances once per arrival (including the final past-horizon gap),
/// the size stream once per in-horizon arrival, the class stamper's
/// stream (only constructed for an active malleable section) once per
/// in-horizon arrival, and the splitter's stream once per in-horizon
/// arrival. Arrival times accumulate through [`SimTime::after`],
/// reproducing the live clock arithmetic bit for bit. Every stream is
/// drawn in global arrival order whichever shard asks, so a shard's
/// subsequence does not depend on the order in which shards pull.
///
/// The first arrival past the horizon is the *sentinel*: it goes onto
/// every queue, so each shard model always has a pending next arrival
/// (the invariant the live path keeps). It carries an unsampled size of
/// `0.0`.
struct ArrivalGenerator {
    /// The gap, size and class draws, made in global arrival order, so
    /// shard feeds see exactly what the classic single-kernel path
    /// draws.
    stream: ArrivalDraw,
    splitter: Splitter,
    horizon: f64,
    /// Time of the last arrival drawn.
    t: SimTime,
    /// Whether the sentinel has been drawn.
    ended: bool,
    /// Drawn arrivals no shard has taken yet, one queue per shard.
    queues: Vec<Vec<Arrival>>,
    /// Entries across all queues.
    queued: usize,
    /// The most entries the queues have held at once.
    high_water: usize,
    /// Seconds spent drawing, per shard whose refill drew.
    draw_s: Vec<f64>,
}

impl ArrivalGenerator {
    fn new(cfg: &ClusterConfig, seed: u64) -> Self {
        ArrivalGenerator {
            stream: ArrivalDraw::new(cfg, seed),
            splitter: Splitter::new(&cfg.dispatch, seed),
            horizon: cfg.horizon,
            t: SimTime::ZERO,
            ended: false,
            queues: vec![Vec::new(); cfg.dispatch.dispatchers.max(1)],
            queued: 0,
            high_water: 0,
            draw_s: vec![0.0; cfg.dispatch.dispatchers.max(1)],
        }
    }

    /// Draws the next global arrival onto its shard's queue, or the
    /// sentinel onto every queue.
    fn draw(&mut self) {
        self.t = self.t.after(self.stream.gap());
        let t = self.t.as_secs();
        if t > self.horizon {
            for queue in &mut self.queues {
                queue.push((t, 0.0, 0));
            }
            self.queued += self.queues.len();
            self.ended = true;
            return;
        }
        let (size, class) = self.stream.job();
        self.queues[self.splitter.route()].push((t, size, class));
        self.queued += 1;
    }

    /// Moves shard `shard`'s whole queue into the empty `batch`. An
    /// empty queue is first refilled: at least [`REFILL_CHUNK`] draws,
    /// then more until the shard has an entry. Only the sentinel ends a
    /// refill early. The draws' wall-clock time is charged to `shard`.
    fn refill(&mut self, shard: usize, batch: &mut Vec<Arrival>) {
        debug_assert!(batch.is_empty());
        if self.queues[shard].is_empty() {
            let started = Instant::now();
            let mut drawn = 0;
            while !self.ended && (drawn < REFILL_CHUNK || self.queues[shard].is_empty()) {
                self.draw();
                drawn += 1;
            }
            self.high_water = self.high_water.max(self.queued);
            self.draw_s[shard] += started.elapsed().as_secs_f64();
        }
        self.queued -= self.queues[shard].len();
        std::mem::swap(&mut self.queues[shard], batch);
    }
}

/// One shard's view of the shared [`ArrivalGenerator`]: the batch it
/// took last and the arrival it has scheduled.
pub(crate) struct ShardFeed {
    shard: usize,
    source: Arc<Mutex<ArrivalGenerator>>,
    batch: Vec<Arrival>,
    cursor: usize,
    /// The scheduled, not yet delivered arrival.
    pending: Arrival,
}

impl ShardFeed {
    fn new(shard: usize, source: Arc<Mutex<ArrivalGenerator>>) -> Self {
        ShardFeed {
            shard,
            source,
            batch: Vec::new(),
            cursor: 0,
            pending: (0.0, 0.0, 0),
        }
    }

    /// The shard's next arrival, taken from its batch, which is swapped
    /// for the shard's queue under one lock when it runs dry.
    fn pull(&mut self) -> Arrival {
        if self.cursor == self.batch.len() {
            self.batch.clear();
            self.cursor = 0;
            self.source
                .lock()
                .expect("arrival generator poisoned")
                .refill(self.shard, &mut self.batch);
        }
        let next = *self
            .batch
            .get(self.cursor)
            .expect("a shard pulled past its sentinel");
        self.cursor += 1;
        next
    }

    /// Pulls the shard's first arrival, makes it pending and returns its
    /// time.
    pub(crate) fn first(&mut self) -> f64 {
        self.pending = self.pull();
        self.pending.0
    }

    /// Delivers the pending arrival: pulls the one after it and makes
    /// that pending. Returns the new pending arrival's time, and the
    /// delivered job's size and class.
    pub(crate) fn advance(&mut self) -> (f64, f64, u16) {
        let next = self.pull();
        let (_, size, class) = std::mem::replace(&mut self.pending, next);
        (next.0, size, class)
    }
}

/// Wall-clock breakdown of a [`ParallelSimulation::run_timed`] run.
///
/// Timing is measured on one thread, where each shard's events are
/// processed in isolation. Arrivals are drawn by whichever shard pulls
/// first, and on one thread the first shard of each epoch or window
/// would draw nearly all of that interval's arrivals. Every draw runs
/// under the shared generator's one lock, so the draws are timed apart
/// from the shards: `pregen_s` is the generator's set-up plus every
/// draw, and `shard_s` is each shard's event work without the draws it
/// made. `pregen_s + max(shard_s) + merge_s` therefore projects the
/// critical path of the same run on sufficiently many cores, with the
/// draws serialized as the lock serializes them.
#[derive(Debug, Clone)]
pub struct PdesTiming {
    /// Seconds spent setting up the shared arrival generator and
    /// drawing every arrival.
    pub pregen_s: f64,
    /// Seconds of event processing per shard, without the arrival
    /// draws.
    pub shard_s: Vec<f64>,
    /// Seconds spent merging per-shard statistics.
    pub merge_s: f64,
    /// Total events processed across all shards.
    pub events: u64,
}

impl PdesTiming {
    /// The parallel critical path `pregen + max(shard) + merge`.
    pub fn critical_path_s(&self) -> f64 {
        self.pregen_s + self.shard_s.iter().cloned().fold(0.0, f64::max) + self.merge_s
    }
}

/// One shard's runtime: its model, its private event kernel, and the
/// wall-clock seconds it has spent processing events.
struct ShardRt<P: Policy> {
    model: Model<P>,
    engine: Engine<Ev>,
    busy_s: f64,
}

impl<P: Policy> ShardRt<P> {
    /// Processes the shard's events up to `t`.
    fn run_until(&mut self, t: SimTime) {
        let started = Instant::now();
        self.engine.run_until(&mut self.model, t);
        self.busy_s += started.elapsed().as_secs_f64();
    }
}

/// The conservative-parallel simulation driver.
///
/// Construct with one policy per dispatch shard (for `D > 1` each
/// policy must be built over the matching [`shard_config`], since it
/// only ever sees its slice of the cluster), then [`run`](Self::run).
/// See the [module docs](self) for semantics and the determinism
/// argument.
pub struct ParallelSimulation<P: Policy> {
    cfg: ClusterConfig,
    policies: Vec<P>,
    seed: u64,
    sim_threads: usize,
}

impl<P: Policy> ParallelSimulation<P> {
    /// Creates a parallel simulation.
    ///
    /// `sim_threads` is the number of worker threads to spread shards
    /// over; it is capped at the shard count. `1` runs the identical
    /// algorithm single-threaded (useful for the bit-identity tests).
    ///
    /// # Errors
    /// [`HetschedError::InvalidConfig`] when the configuration is
    /// invalid, when the policy count does not match the dispatcher
    /// count, when there are fewer servers than shards, when
    /// `sim_threads` is zero, or for a tier pairing
    /// [`check_tier`](crate::check_tier) refuses.
    pub fn new(
        mut cfg: ClusterConfig,
        policies: Vec<P>,
        seed: u64,
        sim_threads: usize,
    ) -> Result<Self, HetschedError> {
        prepare(&mut cfg, &policies)?;
        let d = cfg.dispatch.dispatchers;
        if cfg.speeds.len() < d {
            return Err(HetschedError::InvalidConfig(format!(
                "parallel engine needs at least one server per shard: {} servers, {} shards",
                cfg.speeds.len(),
                d
            )));
        }
        if sim_threads == 0 {
            return Err(HetschedError::InvalidConfig(
                "sim_threads must be ≥ 1".into(),
            ));
        }
        Ok(ParallelSimulation {
            cfg,
            policies,
            seed,
            sim_threads,
        })
    }

    /// Runs the simulation.
    pub fn run(self) -> RunStats {
        self.run_inner().0
    }

    /// Runs on the calling thread and reports the wall-clock breakdown
    /// (generator set-up, per-shard, merge) of the run.
    pub fn run_timed(mut self) -> (RunStats, PdesTiming) {
        self.sim_threads = 1;
        let (stats, timing, _) = self.run_inner();
        (stats, timing)
    }

    /// Runs the simulation and also returns the generator's high-water
    /// of queued arrivals.
    fn run_inner(self) -> (RunStats, PdesTiming, usize) {
        let ParallelSimulation {
            cfg,
            policies,
            seed,
            sim_threads,
        } = self;
        let d = cfg.dispatch.dispatchers.max(1);
        let ranges = shard_ranges(cfg.speeds.len(), d);
        let horizon = SimTime::new(cfg.horizon);

        let t0 = Instant::now();
        let generator = Arc::new(Mutex::new(ArrivalGenerator::new(&cfg, seed)));
        let setup_s = t0.elapsed().as_secs_f64();

        // Each shard with its index, which travels with it to whichever
        // thread runs it.
        let mut shards: Vec<(usize, ShardRt<P>)> = Vec::with_capacity(d);
        for (s, policy) in policies.into_iter().enumerate() {
            // A single shard sees the whole cluster through the original
            // config — including the classic stream layout — which is
            // what makes D = 1 bit-identical to the classic path.
            let sub = if d == 1 {
                cfg.clone()
            } else {
                shard_config(&cfg, &ranges[s])
            };
            let streams = if d == 1 {
                StreamPlan::classic()
            } else {
                StreamPlan {
                    dispatch: PDES_STREAM_BASE + 2 * s as u64,
                    net: PDES_STREAM_BASE + 2 * s as u64 + 1,
                    fault_base: 4 + ranges[s].start as u64,
                    // Four stream slots per shard (dispatch/load/sync
                    // planes + one spare), offset past the classic
                    // channel block so no stream ever collides.
                    chan_base: crate::channel::CHANNEL_STREAM_BASE + 16 + 4 * s as u64,
                }
            };
            let feed = ShardFeed::new(s, Arc::clone(&generator));
            let mut model = Model::build(&sub, vec![policy], seed, Some(feed), streams);
            if d > 1 {
                model.keep_obs_windows();
            }
            let mut engine = Engine::with_capacity(1024);
            // Seeding schedules the shard's first events, so it counts
            // as the shard's time (its first pull's draws move to the
            // generator with the rest).
            let started = Instant::now();
            model.seed_initial_events(&mut engine, &sub);
            shards.push((
                s,
                ShardRt {
                    model,
                    engine,
                    busy_s: started.elapsed().as_secs_f64(),
                },
            ));
        }

        // The epoch loop's boundaries are the sync epochs when D > 1
        // shards share a sync plane; the boundary spacing (the sync
        // interval) plus the apply latency is the engine's lookahead. A
        // single shard keeps its original config and handles sync
        // internally, classic-style.
        let sync = if d > 1 { cfg.dispatch.sync } else { None };
        // The coordinated fold only changes how the epoch barrier merges
        // the shard snapshots; inside a PDES shard the fleet (and the
        // policy) is partitioned, so there is no rotation interleaving to
        // preserve and no rate payload is attached (a partitioned-fleet
        // shard's policy already sees only its own substream).
        let coordinated = cfg.dispatch.coordination == Coordination::PhasePreserving;
        let latency = sync.map(|plane| plane.latency).unwrap_or(0.0);
        // Without a sync plane the boundaries are fixed windows of about
        // WINDOW_ARRIVALS expected arrivals. Shards do not interact then,
        // so a window changes no bit; it only stops a shard from pulling
        // arrivals far ahead of its peers.
        let step = match sync {
            Some(plane) => plane.interval,
            None => WINDOW_ARRIVALS / cfg.lambda(),
        };

        let threads = sim_threads.min(d).max(1);
        let exchange = SyncExchange::new(d, threads);
        let exchange = if coordinated {
            exchange.coordinated()
        } else {
            exchange
        };
        // One thread's share of the run: at every boundary each of its
        // shards runs up to the boundary (and publishes its snapshot at
        // a sync epoch), the thread meets every other thread at the
        // exchange (the barrier, reached even when no shard published),
        // and each shard schedules the consensus; then every shard runs
        // to the horizon. Every thread steps the same boundaries.
        let drive = |mine: &mut [(usize, ShardRt<P>)]| {
            let mut tk = SimTime::ZERO;
            loop {
                tk = tk.after(step);
                if tk.as_secs() > cfg.horizon {
                    break;
                }
                for (i, rt) in mine.iter_mut() {
                    rt.run_until(tk);
                    if sync.is_some() {
                        exchange.publish(*i, rt.model.policies[0].sync_state());
                    }
                }
                if let Some(merged) = exchange.exchange() {
                    for (_, rt) in mine.iter_mut() {
                        rt.model.pending_sync.push_back(merged.clone());
                        rt.engine.schedule_at(tk.after(latency), Ev::SyncApply);
                    }
                }
            }
            for (_, rt) in mine.iter_mut() {
                rt.run_until(horizon);
            }
        };
        if threads == 1 {
            drive(&mut shards);
        } else {
            // Thread `t` owns the shards `i` with `i % threads == t`.
            let mut parts: Vec<Vec<(usize, ShardRt<P>)>> =
                (0..threads).map(|_| Vec::new()).collect();
            for (i, rt) in shards.drain(..) {
                parts[i % threads].push((i, rt));
            }
            let drive = &drive;
            std::thread::scope(|scope| {
                let handles: Vec<_> = parts
                    .into_iter()
                    .map(|mut mine| {
                        scope.spawn(move || {
                            drive(&mut mine);
                            mine
                        })
                    })
                    .collect();
                for handle in handles {
                    shards.extend(handle.join().expect("shard thread panicked"));
                }
            });
            shards.sort_by_key(|&(i, _)| i);
        }
        let (draw_s, high_water) = {
            let generator = generator.lock().expect("arrival generator poisoned");
            (generator.draw_s.clone(), generator.high_water)
        };
        // The draws move from the shard that pulled to the generator.
        let pregen_s = setup_s + draw_s.iter().sum::<f64>();
        let shard_s: Vec<f64> = shards
            .iter()
            .map(|(i, rt)| rt.busy_s - draw_s[*i])
            .collect();

        let t_merge = Instant::now();
        let parts = shards
            .into_iter()
            .map(|(_, rt)| {
                let events = rt.engine.processed_total();
                (rt.model, events, rt.engine.fel_stats())
            })
            .collect();
        let stats = finalize(&cfg, parts);
        let merge_s = t_merge.elapsed().as_secs_f64();
        let timing = PdesTiming {
            pregen_s,
            shard_s,
            merge_s,
            events: stats.events_processed,
        };
        (stats, timing, high_water)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArrivalSpec;
    use crate::config::ClusterConfig;
    use crate::malleable::{MalleableSpec, MALLEABLE_STREAM};
    use crate::policy::DispatchCtx;
    use crate::Simulation;
    use hetsched_desim::Rng64;
    use hetsched_dispatch::{SplitterSpec, SyncSpec, SyncState};
    use hetsched_dist::{ArrivalProcess, Sample};

    /// A deterministic policy with mergeable state, so the sync plane
    /// has something to exchange.
    struct Cyclic {
        next: usize,
        n: usize,
        credit: f64,
    }

    impl Cyclic {
        fn new(n: usize) -> Self {
            Cyclic {
                next: 0,
                n,
                credit: 0.0,
            }
        }
    }

    impl Policy for Cyclic {
        fn choose(&mut self, _ctx: &DispatchCtx<'_>, _rng: &mut Rng64) -> usize {
            let pick = self.next;
            self.next = (self.next + 1) % self.n;
            self.credit += 1.0;
            pick
        }

        fn sync_state(&self) -> Option<SyncState> {
            Some(SyncState::with_credits(vec![self.credit]))
        }

        fn merge_sync(&mut self, merged: &SyncState, _now: f64) {
            if let Some(&c) = merged.credits.first() {
                self.credit = c;
            }
        }

        fn name(&self) -> String {
            "cyclic".into()
        }
    }

    fn base_cfg(n: usize) -> ClusterConfig {
        let speeds: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut cfg = ClusterConfig::paper_default(&speeds);
        cfg.horizon = 5_000.0;
        cfg.warmup = 500.0;
        cfg
    }

    fn sharded_cfg(n: usize, d: usize, sync: Option<SyncSpec>) -> ClusterConfig {
        let mut cfg = base_cfg(n);
        cfg.dispatch = DispatchSpec {
            dispatchers: d,
            splitter: SplitterSpec::IidRandom,
            sync,
            ..DispatchSpec::default()
        };
        cfg
    }

    fn policies_for(cfg: &ClusterConfig) -> Vec<Cyclic> {
        let d = cfg.dispatch.dispatchers.max(1);
        shard_ranges(cfg.speeds.len(), d)
            .iter()
            .map(|r| Cyclic::new(r.len()))
            .collect()
    }

    #[test]
    fn ranges_are_balanced_and_contiguous() {
        assert_eq!(shard_ranges(10, 4), vec![0..3, 3..6, 6..8, 8..10]);
        assert_eq!(
            shard_ranges(8, 8),
            (0..8).map(|i| i..i + 1).collect::<Vec<_>>()
        );
        assert_eq!(shard_ranges(5, 1), vec![0..5]);
    }

    #[test]
    fn shard_config_slices_speeds_and_strips_dispatch() {
        let cfg = sharded_cfg(6, 2, Some(SyncSpec::every(100.0)));
        let sub = shard_config(&cfg, &(3..6));
        assert_eq!(sub.speeds, cfg.speeds[3..6].to_vec());
        assert_eq!(sub.dispatch, DispatchSpec::default());
        assert_eq!(sub.horizon, cfg.horizon);
    }

    /// The eager partition the streamed feeds must reproduce: the whole
    /// stream drawn before any shard runs, one feed per shard, each
    /// ending with the sentinel.
    fn eager_feeds(cfg: &ClusterConfig, seed: u64) -> Vec<Vec<Arrival>> {
        let d = cfg.dispatch.dispatchers.max(1);
        let mut arrivals = cfg.arrivals.build(cfg.lambda());
        let sizes = cfg.job_sizes.build();
        let mut splitter = Splitter::new(&cfg.dispatch, seed);
        let mut rng_arrival = Rng64::stream(seed, 0);
        let mut rng_size = Rng64::stream(seed, 1);
        let stamping = cfg.malleable.as_ref().filter(|m| m.active());
        let mut rng_class = stamping.map(|_| Rng64::stream(seed, MALLEABLE_STREAM));
        let mut feeds: Vec<Vec<Arrival>> = vec![Vec::new(); d];
        let mut t = SimTime::ZERO;
        loop {
            let gap = arrivals.next_interarrival(&mut rng_arrival);
            t = t.after(gap);
            if t.as_secs() > cfg.horizon {
                for feed in &mut feeds {
                    feed.push((t.as_secs(), 0.0, 0));
                }
                return feeds;
            }
            let size = sizes.sample(&mut rng_size);
            let class = match (stamping, &mut rng_class) {
                (Some(spec), Some(rng)) => spec.stamp(rng.next_f64()),
                _ => 0,
            };
            feeds[splitter.route()].push((t.as_secs(), size, class));
        }
    }

    /// Pulls every shard's feed through its sentinel, one arrival at a
    /// time, picking the next shard to pull at random.
    fn pull_all(cfg: &ClusterConfig, seed: u64, order: &mut Rng64) -> Vec<Vec<Arrival>> {
        let d = cfg.dispatch.dispatchers.max(1);
        let generator = Arc::new(Mutex::new(ArrivalGenerator::new(cfg, seed)));
        let mut feeds: Vec<ShardFeed> = (0..d)
            .map(|s| ShardFeed::new(s, Arc::clone(&generator)))
            .collect();
        let mut pulled = vec![Vec::new(); d];
        let mut live: Vec<usize> = (0..d).collect();
        while !live.is_empty() {
            let k = ((order.next_f64() * live.len() as f64) as usize).min(live.len() - 1);
            let s = live[k];
            let arrival = feeds[s].pull();
            pulled[s].push(arrival);
            if arrival.0 > cfg.horizon {
                live.swap_remove(k);
            }
        }
        pulled
    }

    fn bits(feed: &[Arrival]) -> Vec<(u64, u64, u16)> {
        feed.iter()
            .map(|&(t, size, class)| (t.to_bits(), size.to_bits(), class))
            .collect()
    }

    #[test]
    fn streamed_feeds_match_the_eager_partition() {
        let splitters = [
            SplitterSpec::RoundRobin,
            SplitterSpec::IidRandom,
            SplitterSpec::SourceHash { sources: 16 },
            // Fewer sources than shards: some shards get no arrival and
            // hold only the sentinel.
            SplitterSpec::SourceHash { sources: 2 },
        ];
        let processes = [
            ArrivalSpec::Poisson,
            ArrivalSpec::paper_default(),
            ArrivalSpec::Mmpp {
                burst_factor: 5.0,
                frac_bursty: 0.2,
                cycle: 200.0,
            },
        ];
        let mut order = Rng64::stream(21, 0);
        for splitter in splitters {
            let shares = splitter.expected_shares(4);
            if splitter == (SplitterSpec::SourceHash { sources: 2 }) {
                assert!(shares.contains(&0.0), "the case must leave a shard empty");
            }
            for arrivals in processes {
                for stamped in [false, true] {
                    let case = format!("{splitter:?}, {arrivals:?}, stamped {stamped}");
                    let mut cfg = base_cfg(8);
                    cfg.horizon = 2_000.0;
                    cfg.arrivals = arrivals;
                    cfg.dispatch = DispatchSpec {
                        dispatchers: 4,
                        splitter,
                        ..DispatchSpec::default()
                    };
                    if stamped {
                        cfg.malleable = Some(MalleableSpec::power_law(0.5, 0.5));
                    }
                    let eager = eager_feeds(&cfg, 7);
                    let streamed = pull_all(&cfg, 7, &mut order);
                    assert_eq!(streamed.len(), 4);
                    for (s, feed) in streamed.iter().enumerate() {
                        assert_eq!(bits(feed), bits(&eager[s]), "shard {s}: {case}");
                        let (&(last_t, last_size, last_class), jobs) = feed.split_last().unwrap();
                        assert!(last_t > cfg.horizon, "sentinel must lie past the horizon");
                        assert_eq!(last_size, 0.0);
                        assert_eq!(last_class, 0);
                        for w in feed.windows(2) {
                            assert!(w[0].0 <= w[1].0, "feed must be time-ordered");
                        }
                        for &(t, size, class) in jobs {
                            assert!(t <= cfg.horizon);
                            assert!(size > 0.0);
                            if !stamped {
                                assert_eq!(class, 0, "no malleable section, no stamping");
                            }
                        }
                        assert_eq!(jobs.is_empty(), shares[s] == 0.0, "shard {s}: {case}");
                    }
                    let classes = streamed.iter().flatten().filter(|a| a.2 != 0).count();
                    assert_eq!(classes > 0, stamped, "{case}");
                }
            }
        }
    }

    /// The most arrivals of `feeds` in one interval between consecutive
    /// boundaries `step` apart (the last interval ends at the horizon).
    fn max_interval_arrivals(feeds: &[Vec<Arrival>], horizon: f64, step: f64) -> usize {
        let mut times: Vec<f64> = feeds
            .iter()
            .flat_map(|f| f[..f.len() - 1].iter().map(|a| a.0))
            .collect();
        times.sort_by(f64::total_cmp);
        let (mut most, mut from) = (0, 0);
        let mut tk = SimTime::ZERO;
        loop {
            tk = tk.after(step);
            let end = tk.as_secs().min(horizon);
            let to = times.partition_point(|&t| t <= end);
            most = most.max(to - from);
            if end == horizon {
                return most;
            }
            from = to;
        }
    }

    #[test]
    fn arrival_draws_are_timed_apart_from_the_shards() {
        // Two sources over eight shards leave most shards without an
        // arrival; the first of them to seed draws the whole stream of
        // about 200,000 arrivals into its peers' queues.
        let mut cfg = sharded_cfg(16, 8, None);
        cfg.dispatch.splitter = SplitterSpec::SourceHash { sources: 2 };
        cfg.horizon = 200_000.0 / cfg.lambda();
        let sim = ParallelSimulation::new(cfg.clone(), policies_for(&cfg), 3, 1).unwrap();
        let (stats, timing) = sim.run_timed();
        let idle: Vec<usize> = (0..8).filter(|&s| stats.shards[s].jobs == 0).collect();
        assert!(!idle.is_empty(), "the case must leave a shard empty");
        // The draws count once, in `pregen_s`; an idle shard keeps only
        // its own few events.
        for s in idle {
            assert!(
                timing.shard_s[s] < timing.pregen_s,
                "idle shard {s}: {:?}",
                timing
            );
        }
    }

    #[test]
    fn generator_queues_stay_within_one_interval() {
        for sync in [None, Some(SyncSpec::every(300.0))] {
            let mut cfg = sharded_cfg(16, 8, sync);
            // About ten windows of 4,096 expected arrivals.
            cfg.horizon = 150_000.0;
            let step = match sync {
                Some(plane) => plane.interval,
                None => WINDOW_ARRIVALS / cfg.lambda(),
            };
            let eager = eager_feeds(&cfg, 13);
            let total: usize = eager.iter().map(|f| f.len() - 1).sum();
            let bound = max_interval_arrivals(&eager, cfg.horizon, step) + REFILL_CHUNK;
            assert!(bound * 4 < total, "the run must span several intervals");
            for threads in [1, 8] {
                let sim = ParallelSimulation::new(cfg.clone(), policies_for(&cfg), 13, threads);
                let (_, _, high_water) = sim.unwrap().run_inner();
                assert!(
                    high_water <= bound,
                    "sync {sync:?}, {threads} threads: {high_water} queued, bound {bound}"
                );
            }
        }
    }

    #[test]
    fn single_shard_matches_classic_simulation() {
        let cfg = base_cfg(5);
        let classic = Simulation::new(cfg.clone(), Cyclic::new(5), 42)
            .unwrap()
            .run();
        let pdes = ParallelSimulation::new(cfg, vec![Cyclic::new(5)], 42, 1)
            .unwrap()
            .run();
        assert_eq!(classic, pdes);
    }

    #[test]
    fn thread_count_never_changes_results() {
        for sync in [None, Some(SyncSpec::every(250.0).with_latency(5.0))] {
            let cfg = sharded_cfg(7, 3, sync);
            let seq = ParallelSimulation::new(cfg.clone(), policies_for(&cfg), 11, 1)
                .unwrap()
                .run();
            let par = ParallelSimulation::new(cfg.clone(), policies_for(&cfg), 11, 3)
                .unwrap()
                .run();
            assert_eq!(seq, par, "sync={sync:?}");
            assert_eq!(seq.shards.len(), 3);
            let routed: u64 = seq.shards.iter().map(|s| s.jobs).sum();
            assert_eq!(routed, seq.jobs_counted);
        }
    }

    #[test]
    fn sync_plane_reaches_every_shard() {
        let cfg = sharded_cfg(6, 2, Some(SyncSpec::every(200.0)));
        let stats = ParallelSimulation::new(cfg.clone(), policies_for(&cfg), 3, 2)
            .unwrap()
            .run();
        // horizon 5000 / interval 200 → boundaries 200..=5000, each
        // applied at once (zero latency); the warm-up reset at 500
        // drops the applies at 200 and 400.
        assert_eq!(stats.syncs_applied, 23);
    }

    #[test]
    fn constructor_validates_shape() {
        let cfg = sharded_cfg(4, 2, None);
        assert!(ParallelSimulation::new(cfg.clone(), vec![Cyclic::new(2)], 1, 1).is_err());
        assert!(
            ParallelSimulation::new(cfg.clone(), vec![Cyclic::new(2), Cyclic::new(2)], 1, 0)
                .is_err()
        );
        let mut narrow = sharded_cfg(4, 2, None);
        narrow.speeds = vec![1.0];
        narrow.dispatch.dispatchers = 2;
        assert!(
            ParallelSimulation::new(narrow, vec![Cyclic::new(1), Cyclic::new(1)], 1, 1).is_err()
        );
    }

    #[test]
    fn timed_run_reports_per_shard_breakdown() {
        let cfg = sharded_cfg(4, 2, None);
        let (stats, timing) = ParallelSimulation::new(cfg.clone(), policies_for(&cfg), 5, 1)
            .unwrap()
            .run_timed();
        assert_eq!(timing.shard_s.len(), 2);
        assert_eq!(timing.events, stats.events_processed);
        assert!(timing.critical_path_s() > 0.0);
        assert!(
            timing.critical_path_s()
                <= timing.pregen_s + timing.shard_s.iter().sum::<f64>() + timing.merge_s + 1e-12
        );
    }
}
