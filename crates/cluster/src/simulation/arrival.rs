//! The arrival seam: the arrival stream and its class stamper, the
//! splitter and coordinated replay, the policy's pick and the job's
//! admission to a server, and the sync plane.

use hetsched_desim::{Rng64, Scheduler, SimTime, Timer};
use hetsched_dispatch::{
    consensus, consensus_coordinated, Coordination, Splitter, SyncSpec, SyncState,
};
use hetsched_dist::{ArrivalProcess, BuiltDist, Sample};

use super::transfer::Transfer;
use super::{Ev, Model};
use crate::config::{ArrivalKind, ClusterConfig};
use crate::job::{JobId, JobRecord};
use crate::malleable::{MalleableSpec, MALLEABLE_STREAM};
use crate::pdes::ShardFeed;
use crate::policy::{DispatchCtx, Policy};

/// Runtime state of the coordinated (phase-preserving) dispatch tier.
///
/// The splitter centrally observes every arrival, so it can stamp each
/// one with a global sequence number — exactly the information a real
/// L4 front-end has. Before a shard makes a real decision it replays the
/// arrivals its peers handled since its own last one as *virtual*
/// rotation steps ([`Policy::advance_rotation`]), keeping its private
/// rotation machine on the global credit trajectory: the union of the
/// shards' decisions reconstructs the single-dispatcher sequence.
///
/// The per-shard arrival counters feed the sync plane's rate payload,
/// which lets a rate-aware policy (ReORR) re-solve Algorithm 1 at the
/// tier's *measured* utilization.
pub(super) struct CoordState {
    /// Global sequence number of the last arrival each shard handled
    /// (0 = none yet; the splitter stamps arrivals from 1).
    pub(super) last_seq: Vec<u64>,
    /// Arrivals routed to each shard since the run began. Feeds the
    /// sync plane's cumulative rate payload (`seen / now`): a long-run
    /// average rather than a per-interval estimate, because one sync
    /// window holds too few bursty arrivals to re-solve Algorithm 1
    /// against without whipsawing the allocation.
    seen: Vec<u64>,
}

/// The arrival stream's draws, shared by both engines: the arrival
/// process on stream 0, the size distribution on stream 1 and, for an
/// active malleable section, the class stamper on [`MALLEABLE_STREAM`].
/// Per arrival the gap to the next one is drawn first, then the job's
/// size, then its class. The classic engine draws inline as each
/// arrival fires; the parallel engine's generator draws ahead of its
/// shards.
pub(crate) struct ArrivalDraw {
    arrivals: ArrivalKind,
    sizes: BuiltDist,
    rng_arrival: Rng64,
    rng_size: Rng64,
    /// The active malleable section and its stamper's stream; an absent
    /// or all-rigid section builds none and stamps every job rigid.
    stamper: Option<(MalleableSpec, Rng64)>,
}

impl ArrivalDraw {
    pub(crate) fn new(cfg: &ClusterConfig, seed: u64) -> Self {
        ArrivalDraw {
            arrivals: cfg.arrivals.build(cfg.lambda()),
            sizes: cfg.job_sizes.build(),
            rng_arrival: Rng64::stream(seed, 0),
            rng_size: Rng64::stream(seed, 1),
            stamper: (cfg.malleable.clone())
                .filter(|m| m.active())
                .map(|spec| (spec, Rng64::stream(seed, MALLEABLE_STREAM))),
        }
    }

    /// The gap to the next arrival.
    #[inline]
    pub(crate) fn gap(&mut self) -> f64 {
        self.arrivals.next_interarrival(&mut self.rng_arrival)
    }

    /// The arriving job's size and class.
    #[inline]
    pub(crate) fn job(&mut self) -> (f64, u16) {
        let size = self.sizes.sample(&mut self.rng_size);
        let class = match &mut self.stamper {
            Some((spec, rng)) => spec.stamp(rng.next_f64()),
            None => 0,
        };
        (size, class)
    }
}

/// Where a model's arrivals come from.
enum Source {
    /// Drawn as each arrival fires (the classic engine).
    Live(ArrivalDraw),
    /// Taken from this shard's feed of the parallel engine's shared
    /// generator.
    Feed(ShardFeed),
}

/// The arrival seam's state.
pub(super) struct Front {
    /// Routes each arrival to a shard (trivial for one dispatcher).
    pub(super) splitter: Splitter,
    /// Present iff the tier runs in coordinated (phase-preserving) mode
    /// with more than one shard; `None` is the uncoordinated baseline.
    pub(super) coord: Option<CoordState>,
    /// The sync plane, when configured.
    sync: Option<SyncSpec>,
    warmup: f64,
    rng_dispatch: Rng64,
    source: Source,
}

impl Front {
    /// The arrival seam of `cfg`; policy picks draw from stream `dispatch`.
    pub(super) fn new(
        cfg: &ClusterConfig,
        seed: u64,
        feed: Option<ShardFeed>,
        dispatch: u64,
    ) -> Self {
        let shards = cfg.dispatch.dispatchers;
        Front {
            // D = 1 builds the trivial splitter: shard 0 always, no RNG.
            splitter: Splitter::new(&cfg.dispatch, seed),
            // Coordination with one shard is structurally invisible (a
            // single shard never has peer gaps to replay), so the state
            // is only built when it can matter.
            coord: (cfg.dispatch.coordination == Coordination::PhasePreserving && shards > 1).then(
                || CoordState {
                    last_seq: vec![0; shards],
                    seen: vec![0; shards],
                },
            ),
            sync: cfg.dispatch.sync,
            warmup: cfg.warmup,
            rng_dispatch: Rng64::stream(seed, dispatch),
            source: match feed {
                Some(feed) => Source::Feed(feed),
                None => Source::Live(ArrivalDraw::new(cfg, seed)),
            },
        }
    }

    /// The instant of the run's first arrival. The feed ends with the
    /// sentinel, so its first entry (real or sentinel) mirrors the live
    /// path's always-pending next arrival.
    pub(super) fn first_arrival(&mut self) -> f64 {
        match &mut self.source {
            Source::Feed(feed) => feed.first(),
            Source::Live(draw) => draw.gap(),
        }
    }
}

impl<P: Policy> Model<P> {
    /// Follows a queue mutation on `server`: refreshes the fleet's dense
    /// queue-length mirror (and argmin index, when present), and
    /// re-arms the server's wake timer (or disarms it when the server
    /// has nothing left to do, as after a crash).
    pub(super) fn refresh(&mut self, server: usize, sched: &mut Scheduler<'_, Ev>) {
        let queue_len = self.servers[server].queue_len();
        self.fleet.sync(server, queue_len, self.speeds[server]);
        // The model's timers start with one wake timer per server.
        let timer = Timer::new(server);
        match self.servers[server].next_wakeup() {
            Some(t) => {
                // Guard against sub-epsilon drift putting the wake a hair
                // in the past.
                let t = t.max(sched.now().as_secs());
                sched.arm(timer, SimTime::new(t), Ev::ServerWake { server });
            }
            None => {
                sched.disarm(timer);
            }
        }
    }

    /// Enqueues job `id` (`size` speed-1 seconds) on `target` at `now`.
    /// The server first advances to `now`, so a completion landing at
    /// the same instant is credited before the job joins the queue.
    pub(super) fn admit(
        &mut self,
        target: usize,
        id: JobId,
        size: f64,
        now: f64,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        self.servers[target].advance(now, &mut self.done_buf);
        self.drain_completions(target, now, sched);
        self.servers[target].arrive(now, id, size);
        self.refresh(target, sched);
    }

    /// Asks shard `shard`'s policy where a job of `size` goes at `now`.
    pub(super) fn pick(&mut self, shard: usize, size: f64, now: f64) -> usize {
        let ctx = DispatchCtx {
            now,
            job_size: size,
            queue_lens: &self.fleet.qlens,
            speeds: &self.speeds,
            true_load_index: self.fleet.index.as_ref(),
        };
        let target = self.policies[shard].choose(&ctx, &mut self.front.rng_dispatch);
        debug_assert!(target < self.servers.len(), "policy chose {target}");
        target
    }

    /// Handles completions gathered in `done_buf` for `server` at `now`.
    pub(super) fn drain_completions(
        &mut self,
        server: usize,
        now: f64,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        if self.done_buf.is_empty() {
            return;
        }
        let needs_updates = self.policies[0].needs_load_updates();
        for id in self.done_buf.drain(..) {
            let rec = self.slab.take(id).expect("stale job id");
            debug_assert_eq!(rec.server, server);
            self.tally.complete(rec, server, now);
            if needs_updates {
                let delay = self.load_updates.detection_delay(&mut self.rng_net);
                sched.schedule_in(delay, Ev::LoadDetect { server });
            }
        }
    }

    pub(super) fn handle_wake(&mut self, server: usize, now: f64, sched: &mut Scheduler<'_, Ev>) {
        self.servers[server].advance(now, &mut self.done_buf);
        self.drain_completions(server, now, sched);
        self.refresh(server, sched);
    }

    /// Coordinated-tier catch-up, called immediately after the splitter
    /// routes an arrival to `shard`: replays the global arrivals peer
    /// shards handled since this shard's previous one as virtual
    /// rotation steps, so the shard's real decision lands exactly where
    /// the single-dispatcher machine would put it. No-op for the
    /// uncoordinated baseline.
    pub(super) fn coordinate(&mut self, shard: usize) {
        let Some(coord) = &mut self.front.coord else {
            return;
        };
        let seq = self.front.splitter.sequence();
        let steps = seq - coord.last_seq[shard] - 1;
        if steps > 0 {
            self.policies[shard].advance_rotation(steps);
        }
        coord.last_seq[shard] = seq;
        coord.seen[shard] += 1;
    }

    pub(super) fn handle_arrival(&mut self, now: f64, sched: &mut Scheduler<'_, Ev>) {
        let front = &mut self.front;
        // Keep the arrival stream flowing. A shard feed (the PDES shard
        // path) hands out (time, size, class) entries drawn by the shared
        // generator, preserving the live path's order of draws: the next
        // arrival's gap first, then the size. The feed's final entry is
        // a past-horizon sentinel that is scheduled but never delivered,
        // mirroring the live path's always-pending next arrival.
        let (size, class) = match &mut front.source {
            Source::Feed(feed) => {
                let (next, size, class) = feed.advance();
                sched.schedule_at(SimTime::new(next), Ev::Arrival);
                (size, class)
            }
            Source::Live(draw) => {
                sched.schedule_in(draw.gap(), Ev::Arrival);
                // Every live arrival draws its size and class, even a
                // job lost to a total outage, keeping both streams
                // aligned with the parallel engine's generator.
                draw.job()
            }
        };
        if let Some(obs) = &mut self.tally.obs {
            obs.on_arrival();
        }
        let counted = now >= front.warmup;
        self.tally.jobs_counted += u64::from(counted);
        let down = self.faults.as_ref().map_or(0, |f| f.down);
        if down == self.servers.len() {
            // Total outage: no destination exists, so the policy is not
            // consulted (keeping its bookkeeping consistent with the
            // jobs it actually placed) and the job is lost. The size was
            // already sampled, keeping the size stream aligned.
            self.tally.window.jobs_lost += u64::from(counted);
            return;
        }
        // The splitter picks the dispatcher. In coordinated mode the
        // shard first replays its peers' arrivals as virtual rotation
        // steps, so every decision below runs on the caught-up machine.
        let shard = front.splitter.route();
        self.coordinate(shard);
        self.tally.shard_routed[shard] += u64::from(counted);
        let record = JobRecord {
            size,
            arrival: now,
            // A tier job runs on a fractional slice of its shard, and a
            // transfer's server is set when a copy lands; MAX keeps an
            // accidental read loud.
            server: usize::MAX,
            counted,
            degraded: down > 0,
            class,
        };
        if let Some(tier) = &mut self.tier {
            // The allocation tier owns EVERY job when active — rigid
            // class-0 jobs included (they hold exactly one core, the
            // degenerate water level). The shard's policy is not
            // consulted and no per-server dispatch is recorded: tier
            // jobs have no single destination.
            tier.malleable_jobs += u64::from(class != 0);
            let id = self.slab.insert(record);
            self.retier(shard, Some((id, class, size)), now, sched);
        } else if let Some(ch) = &mut self.channels {
            // Unreliable dispatch plane: the job becomes an in-flight
            // transfer; the attempt/ack machinery takes it from here.
            // Retry attempts are extra decisions the global sequence
            // never saw — a small, documented phase perturbation.
            let tr = Transfer::new(self.slab.insert(record), shard);
            let tx = ch.transfers.insert(tr);
            self.start_attempt(tx, tr, false, now, sched);
        } else {
            // The shard's private policy instance picks the server. All
            // shards share the dispatch RNG stream, so with one shard the
            // draw sequence is exactly the single-dispatcher one.
            let target = self.pick(shard, size, now);
            self.tally.on_dispatch(shard, target, now);
            if !self.servers[target].is_up() {
                // The dispatcher (stale or failure-unaware) sent the job
                // to a dead machine: the job is lost. This is the cost a
                // policy pays for ignoring membership notices.
                self.tally.window.jobs_lost += u64::from(counted);
                return;
            }
            let id = self.slab.insert(JobRecord {
                server: target,
                ..record
            });
            self.admit(target, id, size, now, sched);
        }
    }

    /// Snapshots every shard's mergeable state, computes the consensus,
    /// and ships it back (inline for zero latency, else via `SyncApply`).
    /// Reschedules itself: the publish cadence is a fixed clock, not
    /// completion-driven.
    pub(super) fn handle_sync_publish(&mut self, now: f64, sched: &mut Scheduler<'_, Ev>) {
        let sync = self.front.sync.expect("sync event without a sync plane");
        sched.schedule_in(sync.interval, Ev::SyncPublish);
        // Coordinated publish: each shard's snapshot carries its
        // realized substream arrival rate — cumulative since the run
        // began, because a single publish window holds too few (bursty)
        // arrivals to estimate λ stably, and a noisy λ would whipsaw a
        // rate-aware policy's allocation from round to round. The fold
        // is the phase-preserving one; the consensus rate is the tier
        // total — the λ ReORR re-solves Algorithm 1 against.
        let coord = &self.front.coord;
        let states: Vec<SyncState> = self
            .policies
            .iter()
            .enumerate()
            .filter_map(|(s, p)| {
                let mut st = p.sync_state()?;
                if let Some(coord) = coord.as_ref().filter(|_| now > 0.0) {
                    st.rate = coord.seen[s] as f64 / now;
                }
                Some(st)
            })
            .collect();
        let merged = match coord {
            None => consensus(&states),
            Some(_) => consensus_coordinated(&states),
        };
        let Some(merged) = merged else {
            return; // nothing mergeable this round
        };
        if sync.latency <= 0.0 {
            self.apply_sync(&merged, now);
        } else {
            self.pending_sync.push_back(merged);
            sched.schedule_in(sync.latency, Ev::SyncApply);
        }
    }

    /// Merges a consensus snapshot into every shard's policy instance.
    ///
    /// With an unreliable sync plane each shard's copy of the consensus
    /// is lost independently (loss probability and partition windows;
    /// duplication/jitter are delivery-path concepts and do not apply to
    /// an inline merge). A round counts as applied when at least one
    /// shard merged it.
    pub(super) fn apply_sync(&mut self, merged: &SyncState, now: f64) {
        let mut plane = self.channels.as_mut().map(|ch| &mut ch.sync);
        let mut applied = false;
        for policy in &mut self.policies {
            if plane
                .as_mut()
                .is_some_and(|p| p.lost(now, None, &mut self.tally))
            {
                continue;
            }
            policy.merge_sync(merged, now);
            applied = true;
        }
        self.tally.window.sync_rounds.push(applied);
    }
}
