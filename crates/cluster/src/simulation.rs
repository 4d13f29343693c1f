//! The simulation: wiring arrivals, the scheduler, servers, and the
//! feedback network to the event engine.
//!
//! Event flow per the paper's model (§4.1–4.2):
//!
//! 1. `Arrival` — the next job reaches the central scheduler. The model
//!    samples its size, asks the [`Policy`] for a destination, admits the
//!    job to that server, and schedules the following arrival.
//! 2. `ServerWake { server }` — the server's next internal event
//!    (completion or quantum rotation) fires. Each server owns one
//!    re-armable [`Timer`]: an arrival re-arms it in place and a crash
//!    disarms it, so a superseded wake is never delivered. Completions
//!    are recorded and, for dynamic policies, kick off the
//!    departure-detection → update-message chain.
//! 3. `LoadDetect { server }` — the computer notices its queue changed
//!    (U(0,1) after a departure) and sends an update message.
//! 4. `LoadUpdate { server, queue_len }` — the message reaches the
//!    scheduler after the exponential network delay; the policy's believed
//!    load is refreshed.
//! 5. `WarmupEnd` — counters reset so statistics cover only the steady
//!    state.
//! 6. `ServerCrash` / `ServerRepair` — the fault layer's renewal process
//!    (only scheduled when [`ClusterConfig::faults`] is set): a crash
//!    evicts the resident jobs (lost / resubmitted / parked for restart,
//!    see [`crate::faults`]) and a repair brings the server back empty.
//!    `MembershipNotice` delivers the (optionally delayed) up/down view
//!    to the policy.
//! 7. `SyncPublish` / `SyncApply` — the dispatch tier's periodic
//!    state-sync (only scheduled when [`ClusterConfig::dispatch`] has a
//!    sync plane): every `interval` seconds the shards' mergeable policy
//!    state is snapshotted, the elementwise-mean consensus computed, and
//!    — after the configured one-way latency — merged back into every
//!    shard.
//! 8. `DispatchDeliver` / `RetryTimer` / `HedgeTimer` — the unreliable
//!    dispatch plane's machinery (only when [`ClusterConfig::channels`]
//!    is set and not [`ChannelSpec::reliable`]): a job copy crossing
//!    the wire, the ack timeout arming a retransmission, and the hedge
//!    trigger duplicating an unacked dispatch to a second pick. The two
//!    timers are per transfer slot: an attempt arms them and the
//!    transfer's resolution disarms whichever is still pending.
//! 9. `TierWake` — the malleable allocation tier's next completion on a
//!    shard (only when an active [`ClusterConfig::malleable`] section is
//!    paired with an allocator policy, see [`crate::malleable`]):
//!    harvested jobs leave the tier and the remaining shares re-solve,
//!    re-arming the shard's wake timer in place.
//!
//! The model numbers its [`Timer`]s densely: server `i`'s wake is timer
//! `i`, tier shard `s`'s wake is `N + s`, and transfer slot `tx` owns
//! the retry and hedge timers `N + D + 2·tx` and `N + D + 2·tx + 1`
//! (`N` servers, `D` dispatch shards). Only one-shot events enter the
//! event list's heap.
//!
//! The dispatch tier: `ClusterConfig::dispatch.dispatchers` front-end
//! dispatchers each run a private [`Policy`] instance; a
//! [`Splitter`] partitions the arrival stream across them. With one
//! dispatcher and sync disabled the tier is structurally invisible —
//! the splitter routes without creating or drawing from any RNG and no
//! sync event exists — so a `D = 1` run is bit-identical to the
//! pre-tier simulation.
//!
//! Determinism: every stochastic component draws from its own
//! seed-derived stream — arrivals (0), sizes (1), dispatch (2), network
//! (3), one fault stream per server (4 + i), and the splitter's own
//! stream (`hetsched_dispatch::SPLITTER_STREAM`, far above any server
//! index) — so two runs with the same seed are identical and runs with
//! different seeds are the paper's "independent runs". With
//! `faults: None` the fault streams are never created and no fault
//! event is ever scheduled, so the simulation is byte-for-byte the
//! fault-free one; the same construction applies to the dispatch tier
//! and to the channel layer (its three plane streams live far above
//! everything else at [`crate::channel::CHANNEL_STREAM_BASE`] and are
//! only instantiated for a non-reliable [`ChannelSpec`]).

use std::collections::VecDeque;
use std::ops::Range;

use hetsched_desim::{Actor, Engine, FelStats, Rng64, Scheduler, SimTime, Timer};
use hetsched_dispatch::{
    consensus, consensus_coordinated, Coordination, Splitter, SyncSpec, SyncState,
};
use hetsched_dist::{ArrivalProcess, BuiltDist, Sample};
use hetsched_error::HetschedError;
use hetsched_metrics::{DeviationTracker, Histogram, Welford};

use crate::channel::{ChannelSpec, PlaneSpec};
use crate::config::{ArrivalKind, ClusterConfig, PerServerMode};
use crate::faults::{FaultSpec, JobFaultSemantics};
use crate::index::FleetState;
use crate::job::{JobId, JobRecord, JobSlab};
use crate::malleable::{ClassStats, MalleableRuntime, MalleableSpec, MalleableStats};
use crate::network::membership_notice_delay;
use crate::obs::{merge_obs_reports, ObsDriver, ObsReport, WindowBuckets};
use crate::pdes::ShardFeed;
use crate::policy::{DispatchCtx, Policy};
use crate::results::{RunStats, ServerStats, ShardStats};
use crate::server::Server;
use crate::trace::{JobTrace, TraceCollector};

/// Events of the cluster model.
///
/// `pub(crate)` so the conservative-parallel driver in [`crate::pdes`]
/// can schedule `SyncApply` events at epoch barriers from outside the
/// actor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Ev {
    /// A job arrives at the central scheduler.
    Arrival,
    /// A server's next internal event (completion/rotation), fired by
    /// the server's wake timer.
    ServerWake { server: usize },
    /// A computer notices a departure and emits an update message.
    LoadDetect { server: usize },
    /// The update message reaches the scheduler.
    LoadUpdate { server: usize, queue_len: usize },
    /// End of the warmup period.
    WarmupEnd,
    /// A server's up period expires: it crashes.
    ServerCrash { server: usize },
    /// A server's repair completes: it rejoins empty.
    ServerRepair { server: usize },
    /// A delayed crash/repair notification reaches the scheduler; the
    /// policy is shown the *current* membership at delivery time.
    MembershipNotice,
    /// The dispatch tier snapshots every shard's mergeable policy state
    /// and computes the consensus (scheduled only when the config has a
    /// sync plane).
    SyncPublish,
    /// A previously published consensus, delayed by the sync latency,
    /// reaches the shards and is merged into every policy instance.
    SyncApply,
    /// A dispatch-plane copy of a job reaches its target server (only
    /// scheduled with an unreliable channel layer; a copy whose
    /// transfer has already resolved is dropped as an orphan).
    DispatchDeliver {
        /// Transfer slot.
        tx: u32,
        /// Transfer generation (stale = orphan copy).
        gen: u32,
        /// Server this copy was addressed to.
        target: usize,
        /// Whether the copy is the hedge duplicate.
        hedged: bool,
    },
    /// The ack timeout of an in-flight transfer expires (the slot's
    /// retry timer).
    RetryTimer {
        /// Transfer slot.
        tx: u32,
        /// Transfer generation.
        gen: u32,
    },
    /// The hedge delay of a still-unacked transfer expires (the slot's
    /// hedge timer).
    HedgeTimer {
        /// Transfer slot.
        tx: u32,
        /// Transfer generation.
        gen: u32,
    },
    /// The malleable allocation tier's next completion on a shard (only
    /// armed when an active [`ClusterConfig::malleable`] section is
    /// paired with an allocator policy). The shard's wake timer is
    /// re-armed in place on every reallocation.
    TierWake {
        /// Dispatch shard whose tier runtime completes next.
        shard: usize,
    },
}

/// RNG stream of the malleable class stamper, far above every other
/// stream family (classic 0–3, faults `4 + i`, splitter `1 << 40`, PDES
/// shards `1 << 41`, channels `1 << 42`). Only constructed for an
/// *active* malleable section, so all-rigid runs draw nothing from it.
pub(crate) const MALLEABLE_STREAM: u64 = 1 << 43;

/// A configured, seeded simulation ready to run.
pub struct Simulation<P: Policy> {
    cfg: ClusterConfig,
    /// One policy instance per dispatcher shard (exactly one for the
    /// classic single-dispatcher simulation).
    policies: Vec<P>,
    /// Built eagerly so a bad trace spec is a typed constructor error
    /// rather than a mid-run panic.
    trace: Option<TraceCollector>,
    seed: u64,
}

impl<P: Policy> Simulation<P> {
    /// Creates a single-dispatcher simulation.
    ///
    /// # Errors
    /// Returns the typed validation error of [`ClusterConfig::validate`],
    /// or [`HetschedError::InvalidConfig`] when the config asks for more
    /// than one dispatcher — build those with
    /// [`Simulation::with_policies`], which takes one policy instance
    /// per shard.
    pub fn new(cfg: ClusterConfig, policy: P, seed: u64) -> Result<Self, HetschedError> {
        if cfg.dispatch.dispatchers != 1 {
            return Err(HetschedError::InvalidConfig(format!(
                "config asks for {} dispatchers but Simulation::new wires a \
                 single policy; use Simulation::with_policies with one \
                 instance per shard",
                cfg.dispatch.dispatchers
            )));
        }
        Self::with_policies(cfg, vec![policy], seed)
    }

    /// Creates a simulation with one policy instance per dispatcher
    /// shard (`policies.len()` must equal
    /// `cfg.dispatch.dispatchers`).
    ///
    /// # Errors
    /// Returns the typed validation error of [`ClusterConfig::validate`],
    /// or [`HetschedError::InvalidConfig`] on a shard-count mismatch or
    /// a tier pairing [`check_tier`] refuses.
    pub fn with_policies(
        mut cfg: ClusterConfig,
        policies: Vec<P>,
        seed: u64,
    ) -> Result<Self, HetschedError> {
        cfg.normalize_fleet();
        cfg.validate()?;
        if policies.len() != cfg.dispatch.dispatchers {
            return Err(HetschedError::InvalidConfig(format!(
                "config asks for {} dispatchers but {} policy instances \
                 were supplied",
                cfg.dispatch.dispatchers,
                policies.len()
            )));
        }
        check_tier(&cfg, &policies)?;
        let trace = cfg.trace.map(TraceCollector::new).transpose()?;
        Ok(Simulation {
            cfg,
            policies,
            trace,
            seed,
        })
    }

    /// Runs to the horizon and returns the collected statistics.
    pub fn run(self) -> RunStats {
        let Simulation {
            cfg,
            policies,
            trace,
            seed,
        } = self;
        let mut model = Model::build(&cfg, policies, seed, trace, None, StreamPlan::classic());
        let mut engine = Engine::with_capacity(1024);
        model.seed_initial_events(&mut engine, &cfg);
        engine.run_until(&mut model, SimTime::new(cfg.horizon));
        let events = engine.processed_total();
        finalize(cfg.horizon, vec![(model, events, engine.fel_stats())])
    }
}

/// Rejects the two pairings the malleable allocation tier cannot
/// model, for both engines:
///
/// * an unreliable channel layer: tier jobs never cross the dispatch
///   plane (they are held by the allocation tier, not sent to a single
///   server), so the pairing would silently exempt most jobs from the
///   configured loss model;
/// * more dispatch shards than servers: the tier gives each shard its
///   own contiguous slice of the fleet, and a shard with no server has
///   nothing to allocate.
///
/// Both refusals are made instead of a mis-model or a mid-run panic.
/// Both constructors call this, and so does `hetsched`'s `Experiment`
/// before it starts a run; [`ClusterConfig::validate`] cannot, because
/// only the policies say whether a tier runs.
///
/// # Errors
/// [`HetschedError::InvalidConfig`] when an active malleable section
/// and an allocator policy meet either pairing.
pub fn check_tier<P: Policy>(cfg: &ClusterConfig, policies: &[P]) -> Result<(), HetschedError> {
    let tier = cfg.malleable.as_ref().is_some_and(|m| m.active())
        && policies.iter().any(|p| p.malleable_allocator().is_some());
    if !tier {
        return Ok(());
    }
    if matches!(&cfg.channels, Some(c) if !c.is_reliable()) {
        return Err(HetschedError::InvalidConfig(
            "the malleable allocation tier requires reliable channels: \
             tier-held jobs bypass the dispatch plane, so an unreliable \
             channel spec would not apply to them"
                .into(),
        ));
    }
    let (shards, servers) = (cfg.dispatch.dispatchers, cfg.speeds.len());
    if shards > servers {
        return Err(HetschedError::InvalidConfig(format!(
            "dispatch.dispatchers is {shards} but the fleet has {servers} servers: \
             the malleable allocation tier needs at least one server per \
             dispatch shard"
        )));
    }
    Ok(())
}

/// Which RNG streams a model instance draws from.
///
/// The classic simulation uses the historical layout (dispatch 2,
/// network 3, faults `4 + server`). A PDES shard keeps its fault streams
/// globally indexed (`4 + global server index`, disjoint across shards)
/// and moves its dispatch/network draws onto reserved high streams so
/// shards never share a stateful generator.
pub(crate) struct StreamPlan {
    pub(crate) dispatch: u64,
    pub(crate) net: u64,
    /// Fault stream for *local* server `i` is `fault_base + i`.
    pub(crate) fault_base: u64,
    /// Channel-plane streams are `chan_base + {0, 1, 2}` for the
    /// dispatch/load/sync planes (only instantiated for a non-reliable
    /// [`ChannelSpec`]).
    pub(crate) chan_base: u64,
}

impl StreamPlan {
    /// The seed path's historical stream layout.
    pub(crate) fn classic() -> Self {
        StreamPlan {
            dispatch: 2,
            net: 3,
            fault_base: 4,
            chan_base: crate::channel::CHANNEL_STREAM_BASE,
        }
    }
}

/// Per-run fault-injection state (present only when configured).
struct FaultRuntime {
    spec: FaultSpec,
    up_dist: BuiltDist,
    down_dist: BuiltDist,
    /// One RNG stream per server (`Rng64::stream(seed, 4 + i)`), used
    /// for that server's up/down draws and notice delays.
    rngs: Vec<Rng64>,
    /// Jobs awaiting restart on each down server
    /// ([`JobFaultSemantics::Restart`] only).
    parked: Vec<Vec<JobId>>,
}

/// One logical job crossing the unreliable dispatch plane, possibly
/// over several attempts (retransmissions and/or a hedge copy).
struct Transfer {
    job: JobId,
    /// The dispatcher shard that owns the job; retransmissions and the
    /// hedge re-consult this shard's policy.
    shard: usize,
    /// Primary attempts made so far (the hedge copy is not an attempt:
    /// it rides the first attempt's ack machinery).
    attempts: u32,
    /// Whether some copy already landed on a server; later copies are
    /// dropped as duplicates.
    delivered: bool,
    /// Copies currently in the air (scheduled `DispatchDeliver`s).
    copies_in_flight: u32,
    /// Whether the hedge copy has been sent.
    hedged: bool,
}

/// Generational transfer slot: a stale `(tx, gen)` in a late event is an
/// orphan (the transfer already resolved) and is dropped, never
/// misapplied to a recycled slot.
struct TxSlot {
    gen: u32,
    tr: Option<Transfer>,
}

/// Per-run channel state (present only for a non-reliable
/// [`ChannelSpec`] — a reliable spec constructs nothing, which is what
/// makes it structurally invisible).
struct ChannelRuntime {
    spec: ChannelSpec,
    /// Dispatch-plane randomness (`chan_base + 0`): copy loss, ack
    /// loss, duplication, jitter.
    rng_dispatch: Rng64,
    /// Load-plane randomness (`chan_base + 1`).
    rng_load: Rng64,
    /// Sync-plane randomness (`chan_base + 2`).
    rng_sync: Rng64,
    slots: Vec<TxSlot>,
    free: Vec<u32>,
    /// Slot `tx`'s retry timer is `timer_base + 2·tx`, its hedge timer
    /// the next one.
    timer_base: usize,
    /// Measurement-window counters (reset at warmup end).
    msgs_lost: u64,
    retries: u64,
    timeouts: u64,
    hedges_won: u64,
    hedges_lost: u64,
    /// Lost messages attributed per server (dispatch copies/acks to the
    /// target, load updates to the sender; sync losses have no server).
    server_msgs_lost: Vec<u64>,
}

impl ChannelRuntime {
    fn new(spec: ChannelSpec, seed: u64, chan_base: u64, n: usize, timer_base: usize) -> Self {
        ChannelRuntime {
            rng_dispatch: Rng64::stream(seed, chan_base),
            rng_load: Rng64::stream(seed, chan_base + 1),
            rng_sync: Rng64::stream(seed, chan_base + 2),
            slots: Vec::new(),
            free: Vec::new(),
            timer_base,
            msgs_lost: 0,
            retries: 0,
            timeouts: 0,
            hedges_won: 0,
            hedges_lost: 0,
            server_msgs_lost: vec![0; n],
            spec,
        }
    }

    fn insert(&mut self, job: JobId, shard: usize) -> (u32, u32) {
        let tr = Transfer {
            job,
            shard,
            attempts: 0,
            delivered: false,
            copies_in_flight: 0,
            hedged: false,
        };
        match self.free.pop() {
            Some(tx) => {
                let slot = &mut self.slots[tx as usize];
                slot.tr = Some(tr);
                (tx, slot.gen)
            }
            None => {
                let tx = u32::try_from(self.slots.len())
                    .expect("transfer slab index space (u32) exhausted");
                self.slots.push(TxSlot {
                    gen: 0,
                    tr: Some(tr),
                });
                (tx, 0)
            }
        }
    }

    fn get_mut(&mut self, tx: u32, gen: u32) -> Option<&mut Transfer> {
        let slot = self.slots.get_mut(tx as usize)?;
        if slot.gen != gen {
            return None;
        }
        slot.tr.as_mut()
    }

    /// Slot `tx`'s ack timeout timer.
    fn retry_timer(&self, tx: u32) -> Timer {
        Timer::new(self.timer_base + 2 * tx as usize)
    }

    /// Slot `tx`'s hedge timer.
    fn hedge_timer(&self, tx: u32) -> Timer {
        Timer::new(self.timer_base + 2 * tx as usize + 1)
    }

    /// Resolves a transfer: disarms the slot's timers, frees the slot,
    /// and bumps its generation so every copy still in the air becomes a
    /// detectable orphan.
    fn take(&mut self, tx: u32, gen: u32, sched: &mut Scheduler<'_, Ev>) -> Option<Transfer> {
        let slot = self.slots.get_mut(tx as usize)?;
        if slot.gen != gen {
            return None;
        }
        let tr = slot.tr.take()?;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(tx);
        sched.disarm(self.retry_timer(tx));
        sched.disarm(self.hedge_timer(tx));
        Some(tr)
    }

    /// Whether a message on `plane` sent at `now` is lost. Partition
    /// windows drop deterministically without consuming randomness; the
    /// Bernoulli draw only happens for a configured loss probability, so
    /// enabling one knob never shifts another knob's stream.
    fn lose(plane: &PlaneSpec, rng: &mut Rng64, now: f64) -> bool {
        plane.in_partition(now) || (plane.loss > 0.0 && rng.next_f64() < plane.loss)
    }

    /// Extra delivery delay on `plane` (0 when jitter is disabled).
    fn jitter(plane: &PlaneSpec, rng: &mut Rng64) -> f64 {
        if plane.jitter > 0.0 {
            rng.exponential(1.0 / plane.jitter)
        } else {
            0.0
        }
    }

    /// Whether a delivered message on `plane` is duplicated.
    fn dup(plane: &PlaneSpec, rng: &mut Rng64) -> bool {
        plane.duplicate > 0.0 && rng.next_f64() < plane.duplicate
    }

    /// Resets the measurement-window counters at warmup end.
    fn reset_window(&mut self) {
        self.msgs_lost = 0;
        self.retries = 0;
        self.timeouts = 0;
        self.hedges_won = 0;
        self.hedges_lost = 0;
        self.server_msgs_lost.iter_mut().for_each(|c| *c = 0);
    }
}

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
struct CoordState {
    /// Global sequence number of the last arrival each shard handled
    /// (0 = none yet; the splitter stamps arrivals from 1).
    last_seq: Vec<u64>,
    /// Arrivals routed to each shard since the run began. Feeds the
    /// sync plane's cumulative rate payload (`seen / now`): a long-run
    /// average rather than a per-interval estimate, because one sync
    /// window holds too few bursty arrivals to re-solve Algorithm 1
    /// against without whipsawing the allocation.
    seen: Vec<u64>,
}

/// Runtime state of the malleable allocation tier: one
/// [`MalleableRuntime`] per dispatch shard, each confined to that
/// shard's contiguous server slice (the same partition the PDES engine
/// uses, so the classic and parallel paths build identical tiers). With
/// one dispatcher the single runtime spans the whole fleet.
///
/// Only constructed when an *active* [`MalleableSpec`] is paired with a
/// policy whose [`Policy::malleable_allocator`] is `Some` — otherwise
/// stamped jobs dispatch rigidly through [`Policy::choose`] as usual.
struct MalleableTier {
    /// One allocation runtime per dispatch shard.
    runtimes: Vec<MalleableRuntime>,
    /// Each shard's contiguous server slice.
    ranges: Vec<Range<usize>>,
    /// Server index → owning shard.
    shard_of: Vec<usize>,
    /// Shard `s`'s `TierWake` timer is `timer_base + s`.
    timer_base: usize,
}

/// Server `server`'s wake timer: the model's timers start with one per
/// server.
#[inline]
fn wake_timer(server: usize) -> Timer {
    Timer::new(server)
}

pub(crate) struct Model<P: Policy> {
    /// One policy instance per dispatcher shard.
    pub(crate) policies: Vec<P>,
    /// Routes each arrival to a shard (trivial for one dispatcher).
    splitter: Splitter,
    /// Present iff the tier runs in coordinated (phase-preserving) mode
    /// with more than one shard; `None` is the uncoordinated baseline.
    coord: Option<CoordState>,
    /// Counted jobs routed per shard (reported only for `D > 1`).
    shard_routed: Vec<u64>,
    /// The sync plane, when configured.
    sync: Option<SyncSpec>,
    /// Published consensus snapshots in flight to the shards. The sync
    /// latency is constant, so FIFO order matches event order.
    pub(crate) pending_sync: VecDeque<SyncState>,
    syncs_applied: u64,
    servers: Vec<Server>,
    arrivals: ArrivalKind,
    sizes: BuiltDist,
    load_updates: crate::network::LoadUpdateModel,
    warmup: f64,
    rng_arrival: Rng64,
    rng_size: Rng64,
    rng_dispatch: Rng64,
    rng_net: Rng64,
    /// When set, arrivals come from this shard's feed of the shared
    /// arrival generator instead of the arrival/size streams (the PDES
    /// shard path).
    feed: Option<ShardFeed>,
    slab: JobSlab,
    /// Cache-dense per-server hot state (queue-length mirror + optional
    /// true-load argmin index), maintained incrementally at every queue
    /// mutation instead of being rebuilt `O(N)` per dispatch decision.
    fleet: FleetState,
    /// Reusable membership-notice buffer (avoids a per-notice alloc).
    up_buf: Vec<bool>,
    done_buf: Vec<JobId>,
    /// Response-ratio accumulators. The ratio divides the response by
    /// the job's speed-1 service demand, which is also its inherent
    /// size, so they report the slowdown objective as well. The sketch
    /// gives the run's p95/p99, and is its `ratio_histogram` when
    /// [`ClusterConfig::track_ratio_histogram`] is set.
    resp_time: Welford,
    resp_ratio: Welford,
    ratios: Histogram,
    track_ratio_histogram: bool,
    trace: Option<TraceCollector>,
    deviation: Option<DeviationTracker>,
    obs: Option<ObsDriver>,
    jobs_counted: u64,
    speeds: Vec<f64>,
    faults: Option<FaultRuntime>,
    down_count: usize,
    jobs_lost: u64,
    jobs_resubmitted: u64,
    jobs_restarted: u64,
    degraded_time: Welford,
    degraded_ratio: Welford,
    /// The unreliable-messaging layer (None for a reliable or absent
    /// [`ClusterConfig::channels`] — structurally invisible).
    channels: Option<ChannelRuntime>,
    /// Stale-decision count at warmup end, subtracted at finalize so the
    /// reported counter covers the measurement window only.
    stale_baseline: u64,
    /// The active malleable section, when one is configured (None for
    /// absent or all-rigid sections — structurally invisible).
    stamping: Option<MalleableSpec>,
    /// The class stamper's RNG stream (live arrivals only; shard feeds
    /// carry pre-stamped classes).
    rng_class: Option<Rng64>,
    /// The allocation tier (Some iff stamping is active AND the lead
    /// policy is an allocator).
    tier: Option<MalleableTier>,
    /// Per-class `(response, slowdown)` accumulators, indexed by stamped
    /// class id; only allocated when stamping is active.
    class_stats: Option<Vec<(Welford, Welford)>>,
    /// Jobs stamped with a non-rigid class (lifetime counter, like the
    /// tier's reallocation count).
    malleable_jobs: u64,
    /// Whether [`finalize`] collapses the per-server vector.
    per_server: PerServerMode,
}

impl<P: Policy> Model<P> {
    /// Builds a model instance over `cfg` with an explicit stream plan
    /// and (optionally) a shard's arrival feed.
    ///
    /// The classic path calls this with `feed: None` and
    /// [`StreamPlan::classic`], reproducing the historical construction
    /// exactly; the PDES driver calls it once per shard with that
    /// shard's feed of the shared arrival generator.
    pub(crate) fn build(
        cfg: &ClusterConfig,
        policies: Vec<P>,
        seed: u64,
        trace: Option<TraceCollector>,
        feed: Option<ShardFeed>,
        streams: StreamPlan,
    ) -> Self {
        let lambda = cfg.lambda();
        let servers: Vec<Server> = cfg
            .speeds
            .iter()
            .map(|&s| Server::new(s, cfg.discipline))
            .collect();
        let n = cfg.speeds.len();
        // The deviation tracker and the observability plane both compare
        // realized dispatch fractions with the policy's *target*
        // fractions; policies without a target (dynamic ones) are
        // measured against an equal split. The shards run identical
        // policy instances, so shard 0 speaks for the tier.
        let expected = policies[0]
            .expected_fractions()
            .unwrap_or_else(|| vec![1.0 / n as f64; n]);
        let deviation = cfg
            .deviation_interval
            .map(|iv| DeviationTracker::new(&expected, iv, 0.0));
        // The channel runtime (and its RNG streams) only exists for a
        // non-reliable spec: `channels: None` and
        // `Some(ChannelSpec::reliable())` build byte-identical models.
        let channels_active = matches!(&cfg.channels, Some(c) if !c.is_reliable());
        // Same construction discipline for the malleable section: an
        // absent or all-rigid section builds no stamper stream, no class
        // accumulators, no tier, and no slowdown obs column.
        let stamping = cfg.malleable.clone().filter(|m| m.active());
        let obs = cfg.obs.as_ref().map(|spec| {
            ObsDriver::new(
                spec,
                n,
                expected,
                cfg.dispatch.dispatchers,
                channels_active,
                stamping.is_some(),
            )
        });
        // Fault streams are only created when faults are configured, so a
        // `faults: None` run draws exactly the same values from exactly
        // the same streams as a build without the fault layer.
        let faults = cfg.faults.clone().map(|spec| FaultRuntime {
            up_dist: spec.up_time.build(),
            down_dist: spec.down_time.build(),
            rngs: (0..n)
                .map(|i| Rng64::stream(seed, streams.fault_base + i as u64))
                .collect(),
            parked: vec![Vec::new(); n],
            spec,
        });
        let channels = if channels_active {
            let spec = cfg.channels.clone().expect("checked above");
            Some(ChannelRuntime::new(
                spec,
                seed,
                streams.chan_base,
                n,
                n + cfg.dispatch.dispatchers.max(1),
            ))
        } else {
            None
        };
        let shards = cfg.dispatch.dispatchers;
        // The allocation tier partitions the fleet exactly like the PDES
        // engine (contiguous balanced slices, one per dispatch shard),
        // so a D = 1 tier spans the whole cluster and a sharded classic
        // run allocates over the same slices a parallel run would.
        let tier = stamping.as_ref().and_then(|spec| {
            policies[0].malleable_allocator().map(|kind| {
                let d = shards.max(1);
                let ranges = crate::pdes::shard_ranges(n, d);
                let mut shard_of = vec![0; n];
                for (s, r) in ranges.iter().enumerate() {
                    for i in r.clone() {
                        shard_of[i] = s;
                    }
                }
                MalleableTier {
                    runtimes: (0..d).map(|_| MalleableRuntime::new(kind, spec)).collect(),
                    ranges,
                    shard_of,
                    timer_base: n,
                }
            })
        });
        let class_stats = stamping
            .as_ref()
            .map(|spec| vec![(Welford::new(), Welford::new()); spec.classes.len() + 1]);
        let rng_class =
            (stamping.is_some() && feed.is_none()).then(|| Rng64::stream(seed, MALLEABLE_STREAM));
        // The true-load index costs O(log N) per queue mutation, so it
        // only exists when some policy in the tier reads it.
        let mut fleet = FleetState::new(n, policies.iter().any(|p| p.wants_true_load_index()));
        fleet.seed_keys(&cfg.speeds);
        Model {
            policies,
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
            shard_routed: vec![0; shards],
            sync: cfg.dispatch.sync,
            pending_sync: VecDeque::new(),
            syncs_applied: 0,
            servers,
            arrivals: cfg.arrivals.build(lambda),
            sizes: cfg.job_sizes.build(),
            load_updates: cfg.load_updates,
            warmup: cfg.warmup,
            rng_arrival: Rng64::stream(seed, 0),
            rng_size: Rng64::stream(seed, 1),
            rng_dispatch: Rng64::stream(seed, streams.dispatch),
            rng_net: Rng64::stream(seed, streams.net),
            feed,
            slab: JobSlab::with_capacity(64),
            fleet,
            up_buf: Vec::new(),
            done_buf: Vec::new(),
            resp_time: Welford::new(),
            resp_ratio: Welford::new(),
            ratios: Histogram::new(),
            track_ratio_histogram: cfg.track_ratio_histogram,
            trace,
            deviation,
            obs,
            jobs_counted: 0,
            speeds: cfg.speeds.clone(),
            faults,
            down_count: 0,
            jobs_lost: 0,
            jobs_resubmitted: 0,
            jobs_restarted: 0,
            degraded_time: Welford::new(),
            degraded_ratio: Welford::new(),
            channels,
            stale_baseline: 0,
            stamping,
            rng_class,
            tier,
            class_stats,
            malleable_jobs: 0,
            per_server: cfg.per_server,
        }
    }

    /// Makes the obs driver, when there is one, keep every window's
    /// response buckets: a shard model of a `D > 1` parallel run, whose
    /// merged report pools them.
    pub(crate) fn keep_obs_windows(&mut self) {
        if let Some(obs) = &mut self.obs {
            obs.keep_windows();
        }
    }

    /// Schedules the run's initial events: the first arrival, the warmup
    /// boundary, the first sync publish (when a sync plane exists), and
    /// the first crash of every server (when faults are configured) —
    /// in exactly the seed path's order.
    pub(crate) fn seed_initial_events(&mut self, engine: &mut Engine<Ev>, cfg: &ClusterConfig) {
        match &mut self.feed {
            Some(feed) => {
                // The feed ends with the sentinel, so its first entry
                // (real or sentinel) mirrors the live path's
                // always-pending next arrival.
                engine.schedule_at(SimTime::new(feed.first()), Ev::Arrival);
            }
            None => {
                let first_gap = self.arrivals.next_interarrival(&mut self.rng_arrival);
                engine.schedule_at(SimTime::new(first_gap), Ev::Arrival);
            }
        }
        if cfg.warmup > 0.0 {
            engine.schedule_at(SimTime::new(cfg.warmup), Ev::WarmupEnd);
        }
        // The sync plane exists only when configured; without it no sync
        // event is ever scheduled (the D=1 invisibility path).
        if let Some(sync) = cfg.dispatch.sync {
            engine.schedule_at(SimTime::new(sync.interval), Ev::SyncPublish);
        }
        if let Some(fr) = &mut self.faults {
            for i in 0..self.servers.len() {
                // A targeted fault spec leaves the other servers' renewal
                // processes unscheduled *and* undrawn, so narrowing the
                // target set never perturbs the targeted servers' draws.
                if !fr.spec.applies_to(i) {
                    continue;
                }
                let first_up = fr.up_dist.sample(&mut fr.rngs[i]);
                engine.schedule_at(SimTime::new(first_up), Ev::ServerCrash { server: i });
            }
        }
    }
    /// Refreshes the fleet's dense queue-length mirror (and argmin
    /// index, when present) for `server` after a queue mutation.
    #[inline]
    fn sync_fleet(&mut self, server: usize) {
        self.fleet.sync(
            server,
            self.servers[server].queue_len(),
            self.speeds[server],
        );
    }

    /// Re-arms the wake timer of `server` after any state change (or
    /// disarms it when the server has nothing left to do).
    fn reschedule(&mut self, server: usize, sched: &mut Scheduler<'_, Ev>) {
        match self.servers[server].next_wakeup() {
            Some(t) => {
                // Guard against sub-epsilon drift putting the wake a hair
                // in the past.
                let t = t.max(sched.now().as_secs());
                sched.arm(
                    wake_timer(server),
                    SimTime::new(t),
                    Ev::ServerWake { server },
                );
            }
            None => {
                sched.disarm(wake_timer(server));
            }
        }
    }

    /// Enqueues job `id` (`size` speed-1 seconds) on `target` at `now`.
    /// The server first advances to `now`, so a completion landing at
    /// the same instant is credited before the job joins the queue.
    fn admit(
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
        self.sync_fleet(target);
        self.reschedule(target, sched);
    }

    /// Asks shard `shard`'s policy where a job of `size` goes at `now`.
    fn pick(&mut self, shard: usize, size: f64, now: f64) -> usize {
        let ctx = DispatchCtx {
            now,
            job_size: size,
            queue_lens: &self.fleet.qlens,
            speeds: &self.speeds,
            true_load_index: self.fleet.index.as_ref(),
        };
        let target = self.policies[shard].choose(&ctx, &mut self.rng_dispatch);
        debug_assert!(target < self.servers.len(), "policy chose {target}");
        target
    }

    /// Counts shard `shard`'s dispatch to `target` in the deviation
    /// tracker and the observability plane.
    fn record_dispatch(&mut self, shard: usize, target: usize, now: f64) {
        if let Some(dev) = &mut self.deviation {
            dev.record(now, target);
        }
        if let Some(obs) = &mut self.obs {
            obs.on_dispatch(shard, target);
        }
    }

    /// Handles completions gathered in `done_buf` for `server` at `now`.
    fn drain_completions(&mut self, server: usize, now: f64, sched: &mut Scheduler<'_, Ev>) {
        if self.done_buf.is_empty() {
            return;
        }
        let needs_updates = self.policies[0].needs_load_updates();
        for idx in 0..self.done_buf.len() {
            let rec = self.slab.remove(self.done_buf[idx]);
            debug_assert_eq!(rec.server, server);
            self.record_completion(rec, server, now);
            if needs_updates {
                let delay = self.load_updates.detection_delay(&mut self.rng_net);
                sched.schedule_in(delay, Ev::LoadDetect { server });
            }
        }
        self.done_buf.clear();
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
    fn record_completion(&mut self, rec: JobRecord, server: usize, now: f64) {
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
            self.degraded_time.push(response);
            self.degraded_ratio.push(ratio);
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

    /// Admits one stamped job into shard `shard`'s allocation runtime:
    /// progress the tier to `now`, harvest any completions, enrol the
    /// job, and re-solve the allocation.
    fn tier_admit(
        &mut self,
        shard: usize,
        id: JobId,
        class: u16,
        size: f64,
        now: f64,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        self.tier_reap(shard, now);
        let tier = self.tier.as_mut().expect("tier admit without a tier");
        // The slab slot is the tier's key: the job stays live in the slab
        // until the tier reaps it.
        tier.runtimes[shard].admit(id.index() as usize, class, size);
        self.tier_reallocate(shard, now, sched);
    }

    /// Progresses shard `shard`'s tier to `now` and completes every
    /// finished job (in admission order — the runtime reaps
    /// deterministically).
    fn tier_reap(&mut self, shard: usize, now: f64) {
        let tier = self.tier.as_mut().expect("tier reap without a tier");
        let front = tier.ranges[shard].start;
        let rt = &mut tier.runtimes[shard];
        rt.advance(now);
        for job in rt.reap() {
            let rec = self.slab.remove(self.slab.live_id(job.id));
            self.record_completion(rec, front, now);
        }
    }

    /// Re-solves shard `shard`'s allocation for its current capacity
    /// (up servers in the slice at their mean speed), re-arms the
    /// shard's completion wake timer in place, and mirrors
    /// the allocated fraction onto the slice's servers so utilization
    /// integrals stay honest.
    fn tier_reallocate(&mut self, shard: usize, now: f64, sched: &mut Scheduler<'_, Ev>) {
        let range = self
            .tier
            .as_ref()
            .expect("tier reallocate without a tier")
            .ranges[shard]
            .clone();
        let mut cores = 0u32;
        let mut speed_sum = 0.0;
        for i in range.clone() {
            if self.servers[i].is_up() {
                cores += 1;
                speed_sum += self.speeds[i];
            }
        }
        // Zero capacity (whole slice down) stalls the tier: rates drop
        // to 0, no completion is pending, and the repair hook restarts
        // progress — the tier's analogue of parked Restart jobs.
        let core_speed = if cores > 0 {
            speed_sum / f64::from(cores)
        } else {
            0.0
        };
        let tier = self.tier.as_mut().expect("checked above");
        let rt = &mut tier.runtimes[shard];
        let in_use = rt.reallocate(f64::from(cores), core_speed);
        let per_server = if cores > 0 {
            in_use / f64::from(cores)
        } else {
            0.0
        };
        let timer = Timer::new(tier.timer_base + shard);
        match rt.next_completion() {
            Some(t) => sched.arm(timer, SimTime::new(t.max(now)), Ev::TierWake { shard }),
            None => {
                sched.disarm(timer);
            }
        }
        for i in range {
            let share = if self.servers[i].is_up() {
                per_server
            } else {
                0.0
            };
            self.servers[i].set_tier_share(now, share);
        }
    }

    /// A tier completion fires on `shard`: harvest it (and any that
    /// finished in the same instant) and re-solve the allocation for
    /// the survivors.
    fn handle_tier_wake(&mut self, shard: usize, now: f64, sched: &mut Scheduler<'_, Ev>) {
        if self.tier.is_none() {
            return;
        }
        self.tier_reap(shard, now);
        self.tier_reallocate(shard, now, sched);
    }

    /// Capacity-change hook for the tier: a crash or repair of `server`
    /// resizes its shard's slice. Jobs progress at the old rates up to
    /// `now`, then the allocation re-solves against the new capacity —
    /// migration semantics, nothing is evicted or lost.
    fn tier_capacity_changed(&mut self, server: usize, now: f64, sched: &mut Scheduler<'_, Ev>) {
        let Some(tier) = &self.tier else {
            return;
        };
        let shard = tier.shard_of[server];
        self.tier_reap(shard, now);
        self.tier_reallocate(shard, now, sched);
    }

    /// Coordinated-tier catch-up, called immediately after the splitter
    /// routes an arrival to `shard`: replays the global arrivals peer
    /// shards handled since this shard's previous one as virtual
    /// rotation steps, so the shard's real decision lands exactly where
    /// the single-dispatcher machine would put it. No-op for the
    /// uncoordinated baseline.
    fn coordinate(&mut self, shard: usize) {
        let Some(coord) = &mut self.coord else {
            return;
        };
        let seq = self.splitter.sequence();
        let steps = seq - coord.last_seq[shard] - 1;
        if steps > 0 {
            self.policies[shard].advance_rotation(steps);
        }
        coord.last_seq[shard] = seq;
        coord.seen[shard] += 1;
    }

    fn handle_arrival(&mut self, now: f64, sched: &mut Scheduler<'_, Ev>) {
        // Keep the arrival stream flowing. A shard feed (the PDES shard
        // path) hands out (time, size, class) entries drawn by the shared
        // generator, preserving the live path's order of operations:
        // schedule the next arrival first, then observe, then take the
        // size. The feed's final entry is a past-horizon sentinel that
        // is scheduled but never delivered, mirroring the live path's
        // always-pending next arrival.
        let (size, class) = match &mut self.feed {
            Some(feed) => {
                let (next, size, class) = feed.advance();
                sched.schedule_at(SimTime::new(next), Ev::Arrival);
                if let Some(obs) = &mut self.obs {
                    obs.on_arrival();
                }
                (size, class)
            }
            None => {
                let gap = self.arrivals.next_interarrival(&mut self.rng_arrival);
                sched.schedule_in(gap, Ev::Arrival);
                if let Some(obs) = &mut self.obs {
                    obs.on_arrival();
                }
                let size = self.sizes.sample(&mut self.rng_size);
                // Class stamping draws from its own stream, once per
                // live arrival (even for jobs lost to a total outage),
                // keeping the stamper aligned with the PDES generator.
                let class = match (&self.stamping, &mut self.rng_class) {
                    (Some(spec), Some(rng)) => spec.stamp(rng.next_f64()),
                    _ => 0,
                };
                (size, class)
            }
        };
        let counted = now >= self.warmup;
        if counted {
            self.jobs_counted += 1;
        }
        if self.down_count == self.servers.len() {
            // Total outage: no destination exists, so the policy is not
            // consulted (keeping its bookkeeping consistent with the
            // jobs it actually placed) and the job is lost. The size was
            // already sampled, keeping the size stream aligned.
            if counted {
                self.jobs_lost += 1;
            }
            return;
        }
        // The splitter picks the dispatcher. In coordinated mode the
        // shard first replays its peers' arrivals as virtual rotation
        // steps, so every decision below runs on the caught-up machine.
        let shard = self.splitter.route();
        self.coordinate(shard);
        if counted {
            self.shard_routed[shard] += 1;
        }
        let record = JobRecord {
            size,
            arrival: now,
            // A tier job runs on a fractional slice of its shard, and a
            // transfer's server is set when a copy lands; MAX keeps an
            // accidental read loud.
            server: usize::MAX,
            counted,
            degraded: self.down_count > 0,
            class,
        };
        if self.tier.is_some() {
            // The allocation tier owns EVERY job when active — rigid
            // class-0 jobs included (they hold exactly one core, the
            // degenerate water level). The shard's policy is not
            // consulted and no per-server dispatch is recorded: tier
            // jobs have no single destination.
            if class != 0 {
                self.malleable_jobs += 1;
            }
            let id = self.slab.insert(record);
            self.tier_admit(shard, id, class, size, now, sched);
        } else if let Some(ch) = &mut self.channels {
            // Unreliable dispatch plane: the job becomes an in-flight
            // transfer; the attempt/ack machinery takes it from here.
            // Retry attempts are extra decisions the global sequence
            // never saw — a small, documented phase perturbation.
            let id = self.slab.insert(record);
            let (tx, gen) = ch.insert(id, shard);
            self.start_attempt(tx, gen, false, now, sched);
        } else {
            // The shard's private policy instance picks the server. All
            // shards share the dispatch RNG stream, so with one shard the
            // draw sequence is exactly the single-dispatcher one.
            let target = self.pick(shard, size, now);
            self.record_dispatch(shard, target, now);
            if !self.servers[target].is_up() {
                // The dispatcher (stale or failure-unaware) sent the job
                // to a dead machine: the job is lost. This is the cost a
                // policy pays for ignoring membership notices.
                if counted {
                    self.jobs_lost += 1;
                }
                return;
            }
            let id = self.slab.insert(JobRecord {
                server: target,
                ..record
            });
            self.admit(target, id, size, now, sched);
        }
    }

    /// Launches one dispatch attempt (primary, retransmission, or hedge
    /// copy) for transfer `(tx, gen)`: the owning shard's policy picks a
    /// target against fresh queue lengths, the dispatch plane decides
    /// the copy's fate, and — for primary attempts — the ack timers are
    /// armed.
    fn start_attempt(
        &mut self,
        tx: u32,
        gen: u32,
        hedged: bool,
        now: f64,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        let (job, shard, attempts) = {
            let ch = self.channels.as_mut().expect("attempt without channels");
            let Some(tr) = ch.get_mut(tx, gen) else {
                return; // transfer resolved while this attempt was queued
            };
            if !hedged {
                tr.attempts += 1;
            }
            (tr.job, tr.shard, tr.attempts)
        };
        // Every attempt is a real dispatch decision: it re-consults the
        // policy (so retries see fresh believed state) and is counted by
        // the deviation tracker and the observability plane.
        let target = self.pick(shard, self.slab.get(job).size, now);
        self.record_dispatch(shard, target, now);
        // The copy — and possibly a duplicate of it — crosses the plane.
        let (deliveries, retry, hedge_delay) = {
            let ch = self.channels.as_mut().expect("checked above");
            let mut deliveries: [Option<f64>; 2] = [None, None];
            if ChannelRuntime::lose(&ch.spec.dispatch, &mut ch.rng_dispatch, now) {
                ch.msgs_lost += 1;
                ch.server_msgs_lost[target] += 1;
                if let Some(obs) = &mut self.obs {
                    obs.on_msg_lost();
                }
            } else {
                deliveries[0] = Some(ChannelRuntime::jitter(
                    &ch.spec.dispatch,
                    &mut ch.rng_dispatch,
                ));
                if ChannelRuntime::dup(&ch.spec.dispatch, &mut ch.rng_dispatch) {
                    deliveries[1] = Some(ChannelRuntime::jitter(
                        &ch.spec.dispatch,
                        &mut ch.rng_dispatch,
                    ));
                }
            }
            let copies = deliveries.iter().flatten().count() as u32;
            let tr = ch.get_mut(tx, gen).expect("transfer vanished mid-attempt");
            tr.copies_in_flight += copies;
            (deliveries, ch.spec.retry, ch.spec.hedge.map(|h| h.delay))
        };
        // Arm the ack timers *before* any inline delivery: a zero-jitter
        // ack can resolve the transfer — and disarm them — in the same
        // instant. A retransmission arms only the retry timer, which has
        // just fired; the hedge timer stays as the first attempt set it.
        if !hedged {
            if let Some(r) = retry {
                let ch = self.channels.as_ref().expect("checked above");
                let start = sched.now();
                sched.arm(
                    ch.retry_timer(tx),
                    start.after(r.delay_for_attempt(attempts - 1)),
                    Ev::RetryTimer { tx, gen },
                );
                if let Some(d) = hedge_delay.filter(|_| attempts == 1) {
                    sched.arm(
                        ch.hedge_timer(tx),
                        start.after(d),
                        Ev::HedgeTimer { tx, gen },
                    );
                }
            }
        }
        for d in deliveries.into_iter().flatten() {
            if d > 0.0 {
                sched.schedule_in(
                    d,
                    Ev::DispatchDeliver {
                        tx,
                        gen,
                        target,
                        hedged,
                    },
                );
            } else {
                self.deliver_dispatch(tx, gen, target, hedged, now, sched);
            }
        }
        // Fire-and-forget with every copy lost: the job dies at the send.
        if retry.is_none() {
            let dead = {
                let ch = self.channels.as_mut().expect("checked above");
                matches!(
                    ch.get_mut(tx, gen),
                    Some(tr) if !tr.delivered && tr.copies_in_flight == 0
                )
            };
            if dead {
                self.resolve_lost(tx, gen, sched);
            }
        }
    }

    /// A dispatch-plane copy reaches `target`: dedup, orphan-drop, land
    /// the job, and race the ack back.
    fn deliver_dispatch(
        &mut self,
        tx: u32,
        gen: u32,
        target: usize,
        hedged: bool,
        now: f64,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        /// What became of the copy, decided under the channel borrow.
        enum Fate {
            /// Copy reached a dead server and no recovery path remains.
            Lost,
            /// First copy to land: admit the job.
            Land {
                job: JobId,
                hedge_sent: bool,
                retry: bool,
            },
        }
        let fate = {
            let Some(ch) = self.channels.as_mut() else {
                return;
            };
            let retry = ch.spec.retry.is_some();
            let Some(tr) = ch.get_mut(tx, gen) else {
                return; // orphan copy: the transfer already resolved
            };
            tr.copies_in_flight = tr.copies_in_flight.saturating_sub(1);
            if tr.delivered {
                return; // duplicate copy: the job already landed
            }
            if !self.servers[target].is_up() {
                // The copy reached a dead machine and will never be
                // acked. With retries the timer recovers; without, the
                // job dies once no other copy is in the air.
                if !retry && tr.copies_in_flight == 0 {
                    Fate::Lost
                } else {
                    return;
                }
            } else {
                tr.delivered = true;
                Fate::Land {
                    job: tr.job,
                    hedge_sent: tr.hedged,
                    retry,
                }
            }
        };
        match fate {
            Fate::Lost => self.resolve_lost(tx, gen, sched),
            Fate::Land {
                job,
                hedge_sent,
                retry,
            } => {
                if hedge_sent {
                    // First landing decides the race; the loser's copies
                    // become orphans when the ack resolves the transfer.
                    let ch = self.channels.as_mut().expect("checked above");
                    if hedged {
                        ch.hedges_won += 1;
                    } else {
                        ch.hedges_lost += 1;
                    }
                }
                let size = {
                    let rec = self.slab.get_mut(job);
                    rec.server = target;
                    rec.size
                };
                self.admit(target, job, size, now, sched);
                if retry {
                    // The ack races back across the same plane; a lost
                    // ack leaves the timers armed and the retry timer
                    // settles the (already delivered) transfer later.
                    let ack_lost = {
                        let ch = self.channels.as_mut().expect("checked above");
                        let lost =
                            ChannelRuntime::lose(&ch.spec.dispatch, &mut ch.rng_dispatch, now);
                        if lost {
                            ch.msgs_lost += 1;
                            ch.server_msgs_lost[target] += 1;
                        }
                        lost
                    };
                    if ack_lost {
                        if let Some(obs) = &mut self.obs {
                            obs.on_msg_lost();
                        }
                    } else {
                        self.resolve_success(tx, gen, sched);
                    }
                } else {
                    self.resolve_success(tx, gen, sched);
                }
            }
        }
    }

    /// The transfer is settled (job landed and, with retries, acked):
    /// disarm both timers and free the slot.
    fn resolve_success(&mut self, tx: u32, gen: u32, sched: &mut Scheduler<'_, Ev>) {
        let ch = self.channels.as_mut().expect("resolve without channels");
        ch.take(tx, gen, sched);
    }

    /// Orphan detection: the transfer is abandoned, its slab entry
    /// reclaimed, and the loss counted.
    fn resolve_lost(&mut self, tx: u32, gen: u32, sched: &mut Scheduler<'_, Ev>) {
        let tr = {
            let ch = self.channels.as_mut().expect("resolve without channels");
            match ch.take(tx, gen, sched) {
                Some(tr) => tr,
                None => return,
            }
        };
        if self.slab.remove(tr.job).counted {
            self.jobs_lost += 1;
        }
    }

    /// The ack timeout fired: settle a delivered-but-unacked transfer,
    /// give up after `max_retries` retransmissions, or retransmit with
    /// exponential backoff.
    fn handle_retry_timer(&mut self, tx: u32, gen: u32, now: f64, sched: &mut Scheduler<'_, Ev>) {
        let (delivered, exhausted) = {
            let Some(ch) = self.channels.as_mut() else {
                return;
            };
            let max_retries = ch.spec.retry.map(|r| r.max_retries).unwrap_or(0);
            let Some(tr) = ch.get_mut(tx, gen) else {
                return;
            };
            let delivered = tr.delivered;
            let attempts = tr.attempts;
            ch.timeouts += 1;
            (delivered, attempts > max_retries)
        };
        if delivered {
            // The job landed but every ack was lost: stop retransmitting
            // (the job must not run twice) and settle the transfer.
            self.resolve_success(tx, gen, sched);
        } else if exhausted {
            self.resolve_lost(tx, gen, sched);
        } else {
            {
                let ch = self.channels.as_mut().expect("checked above");
                ch.retries += 1;
            }
            if let Some(obs) = &mut self.obs {
                obs.on_retry();
            }
            self.start_attempt(tx, gen, false, now, sched);
        }
    }

    /// The hedge delay fired with no ack yet: duplicate the dispatch to
    /// a second policy pick (first landing wins the race).
    fn handle_hedge_timer(&mut self, tx: u32, gen: u32, now: f64, sched: &mut Scheduler<'_, Ev>) {
        {
            let Some(ch) = self.channels.as_mut() else {
                return;
            };
            let Some(tr) = ch.get_mut(tx, gen) else {
                return;
            };
            if tr.delivered {
                return; // landed (ack lost): hedging would double-run it
            }
            tr.hedged = true;
        }
        self.start_attempt(tx, gen, true, now, sched);
    }

    /// A server noticed a departure: the update message crosses the load
    /// plane (loss/jitter/duplication when unreliable) on its way to the
    /// network-delay model. Channel fate is decided *before* the
    /// network-delay draw, so a lost update consumes no `rng_net`
    /// randomness.
    fn handle_load_detect(&mut self, server: usize, now: f64, sched: &mut Scheduler<'_, Ev>) {
        let queue_len = self.servers[server].queue_len();
        let lossy = matches!(&self.channels, Some(c) if !c.spec.load.is_reliable());
        if !lossy {
            let delay = self.load_updates.message_delay(&mut self.rng_net);
            sched.schedule_in(delay, Ev::LoadUpdate { server, queue_len });
            return;
        }
        let ch = self.channels.as_mut().expect("checked above");
        if ChannelRuntime::lose(&ch.spec.load, &mut ch.rng_load, now) {
            ch.msgs_lost += 1;
            ch.server_msgs_lost[server] += 1;
            if let Some(obs) = &mut self.obs {
                obs.on_msg_lost();
            }
            return;
        }
        let base = self.load_updates.message_delay(&mut self.rng_net);
        let delay = base + ChannelRuntime::jitter(&ch.spec.load, &mut ch.rng_load);
        sched.schedule_in(delay, Ev::LoadUpdate { server, queue_len });
        if ChannelRuntime::dup(&ch.spec.load, &mut ch.rng_load) {
            let dup_delay = base + ChannelRuntime::jitter(&ch.spec.load, &mut ch.rng_load);
            sched.schedule_in(dup_delay, Ev::LoadUpdate { server, queue_len });
        }
    }

    fn handle_wake(&mut self, server: usize, now: f64, sched: &mut Scheduler<'_, Ev>) {
        self.servers[server].advance(now, &mut self.done_buf);
        self.drain_completions(server, now, sched);
        self.sync_fleet(server);
        self.reschedule(server, sched);
    }

    fn handle_crash(&mut self, server: usize, now: f64, sched: &mut Scheduler<'_, Ev>) {
        // Completions landing exactly at the crash instant still count.
        self.servers[server].advance(now, &mut self.done_buf);
        self.drain_completions(server, now, sched);

        let fr = self.faults.as_mut().expect("crash event without faults");
        // Fixed per-crash draw order on the server's own stream: repair
        // time first, then (optionally) the notice delay.
        let semantics = fr.spec.on_crash;
        let down_for = fr.down_dist.sample(&mut fr.rngs[server]);
        let notice = membership_notice_delay(fr.spec.notice_delay_mean, &mut fr.rngs[server]);
        sched.schedule_in(down_for, Ev::ServerRepair { server });

        let mut evicted = Vec::new();
        self.servers[server].fail(now, &mut evicted);
        sched.disarm(wake_timer(server)); // the evicted queue has no next wake
        self.sync_fleet(server); // the evicted queue drains to 0
        self.down_count += 1;
        self.notify_membership(notice, now, sched);
        // Tier jobs are not evicted by the crash — the shard's slice
        // just shrank, so their shares re-solve over what remains.
        self.tier_capacity_changed(server, now, sched);

        match semantics {
            JobFaultSemantics::Lost => {
                for id in evicted {
                    if self.slab.remove(id).counted {
                        self.jobs_lost += 1;
                    }
                }
            }
            JobFaultSemantics::Resubmit => {
                // Evicted in deterministic discipline order; each goes
                // back through the dispatcher at the crash instant. With
                // an instantaneous notice the policy has already been
                // told about the outage; with a delayed one it may well
                // re-pick the dead server and lose the job.
                for id in evicted {
                    self.resubmit(id, now, sched);
                }
            }
            JobFaultSemantics::Restart => {
                let fr = self.faults.as_mut().expect("checked above");
                fr.parked[server] = evicted;
            }
        }
    }

    /// Pushes a crash-evicted job back through the dispatcher with its
    /// full service demand and original arrival time.
    fn resubmit(&mut self, id: JobId, now: f64, sched: &mut Scheduler<'_, Ev>) {
        let mut rec = self.slab.remove(id);
        if self.down_count == self.servers.len() {
            if rec.counted {
                self.jobs_lost += 1;
            }
            return;
        }
        // Resubmissions go back through the splitter like fresh
        // arrivals: the original shard is not remembered — and in
        // coordinated mode they get a fresh sequence stamp, so the
        // replay bookkeeping stays exact.
        let shard = self.splitter.route();
        self.coordinate(shard);
        let target = self.pick(shard, rec.size, now);
        if !self.servers[target].is_up() {
            if rec.counted {
                self.jobs_lost += 1;
            }
            return;
        }
        if rec.counted {
            self.jobs_resubmitted += 1;
            self.shard_routed[shard] += 1;
        }
        self.record_dispatch(shard, target, now);
        rec.server = target;
        rec.degraded = true;
        let size = rec.size;
        let new_id = self.slab.insert(rec);
        self.admit(target, new_id, size, now, sched);
    }

    fn handle_repair(&mut self, server: usize, now: f64, sched: &mut Scheduler<'_, Ev>) {
        self.servers[server].repair(now);
        self.down_count -= 1;

        let fr = self.faults.as_mut().expect("repair event without faults");
        // Per-repair draw order mirrors the crash: next up time first,
        // then (optionally) the notice delay.
        let up_for = fr.up_dist.sample(&mut fr.rngs[server]);
        let notice = membership_notice_delay(fr.spec.notice_delay_mean, &mut fr.rngs[server]);
        let parked = std::mem::take(&mut fr.parked[server]);
        sched.schedule_in(up_for, Ev::ServerCrash { server });
        self.notify_membership(notice, now, sched);

        // Restart semantics: parked jobs re-enter with their full demand
        // and original arrival time, so the outage shows up as response
        // time.
        for id in parked {
            let mut rec = self.slab.remove(id);
            rec.degraded = true;
            debug_assert_eq!(rec.server, server);
            if rec.counted {
                self.jobs_restarted += 1;
            }
            let size = rec.size;
            let new_id = self.slab.insert(rec);
            self.servers[server].arrive(now, new_id, size);
        }
        self.sync_fleet(server);
        self.reschedule(server, sched);
        // The repaired server rejoins its shard's slice: tier shares
        // re-solve over the grown capacity (and a fully-stalled shard
        // resumes progress).
        self.tier_capacity_changed(server, now, sched);
    }

    /// Delivers (or schedules) a membership notice to the policy.
    fn notify_membership(&mut self, delay: f64, now: f64, sched: &mut Scheduler<'_, Ev>) {
        if delay <= 0.0 {
            self.deliver_membership(now);
        } else {
            sched.schedule_in(delay, Ev::MembershipNotice);
        }
    }

    fn deliver_membership(&mut self, now: f64) {
        // A coordinated tier first brings every shard to the current
        // global sequence position. Shards replay peer arrivals lazily,
        // so without this each shard would apply the membership change
        // at a *different* point of its replayed trajectory — the
        // trajectories would permanently diverge into slightly-offset
        // copies of the same full-rate cycle, whose thinned unions
        // clump jobs (the phase-locking pathology coordination exists
        // to avoid). Catching up first makes the change a consistent
        // cut: every shard's trajectory switches membership at the same
        // arrival, so the global-sequence reconstruction survives
        // crashes and repairs.
        if let Some(coord) = &mut self.coord {
            let seq = self.splitter.sequence();
            for (shard, last) in coord.last_seq.iter_mut().enumerate() {
                let steps = seq - *last;
                if steps > 0 {
                    self.policies[shard].advance_rotation(steps);
                }
                *last = seq;
            }
        }
        self.up_buf.clear();
        self.up_buf.extend(self.servers.iter().map(|s| s.is_up()));
        // Membership is cluster-wide infrastructure news: every shard's
        // dispatcher hears the same notice at the same instant.
        for policy in &mut self.policies {
            policy.on_membership_change(&self.up_buf, now);
        }
    }

    /// Snapshots every shard's mergeable state, computes the consensus,
    /// and ships it back (inline for zero latency, else via `SyncApply`).
    /// Reschedules itself: the publish cadence is a fixed clock, not
    /// completion-driven.
    fn handle_sync_publish(&mut self, now: f64, sched: &mut Scheduler<'_, Ev>) {
        let sync = self.sync.expect("sync event without a sync plane");
        sched.schedule_in(sync.interval, Ev::SyncPublish);
        let merged = match &mut self.coord {
            None => {
                let states: Vec<SyncState> = self
                    .policies
                    .iter()
                    .filter_map(|p| p.sync_state())
                    .collect();
                consensus(&states)
            }
            Some(coord) => {
                // Coordinated publish: each shard's snapshot carries its
                // realized substream arrival rate — cumulative since the
                // run began, because a single publish window holds too
                // few (bursty) arrivals to estimate λ stably, and a
                // noisy λ would whipsaw a rate-aware policy's
                // allocation from round to round. The fold is the
                // phase-preserving one; the consensus rate is the tier
                // total — the λ ReORR re-solves Algorithm 1 against.
                let states: Vec<SyncState> = self
                    .policies
                    .iter()
                    .enumerate()
                    .filter_map(|(s, p)| {
                        p.sync_state().map(|mut st| {
                            if now > 0.0 {
                                st.rate = coord.seen[s] as f64 / now;
                            }
                            st
                        })
                    })
                    .collect();
                consensus_coordinated(&states)
            }
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
    fn apply_sync(&mut self, merged: &SyncState, now: f64) {
        let lossy = matches!(&self.channels, Some(c) if !c.spec.sync.is_reliable());
        if !lossy {
            for policy in &mut self.policies {
                policy.merge_sync(merged, now);
            }
            self.syncs_applied += 1;
            return;
        }
        let ch = self.channels.as_mut().expect("checked above");
        let mut applied = 0u32;
        for policy in &mut self.policies {
            if ChannelRuntime::lose(&ch.spec.sync, &mut ch.rng_sync, now) {
                ch.msgs_lost += 1;
                if let Some(obs) = &mut self.obs {
                    obs.on_msg_lost();
                }
                continue;
            }
            policy.merge_sync(merged, now);
            applied += 1;
        }
        if applied > 0 {
            self.syncs_applied += 1;
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
/// at every thread count. Welford moments merge exactly (Chan et al.),
/// the response-ratio sketches bucket by bucket (so p95/p99 are
/// quantiles of the pooled jobs, within 2^-7 of the exact ones), traces
/// by absorption; servers concatenate in model order (shard-major,
/// which is global server order) and counters sum. A single model folds
/// to exactly its own numbers. Only the obs report needs a one-model
/// case for that (otherwise merged by [`merge_obs_reports`]).
pub(crate) fn finalize<P: Policy>(horizon: f64, parts: Vec<(Model<P>, u64, FelStats)>) -> RunStats {
    let mut models: Vec<Model<P>> = Vec::with_capacity(parts.len());
    let mut obs_reports: Vec<(ObsReport, Vec<WindowBuckets>)> = Vec::new();
    let mut events = 0u64;
    let mut kernel = FelStats::default();
    for (mut model, model_events, model_kernel) in parts {
        // Close the remaining whole observability windows *before* the
        // servers flush their integrals at the horizon: every boundary
        // up to the horizon reads state as of that boundary.
        if let Some(mut obs) = model.obs.take() {
            obs.flush_to(horizon, &model.servers, model.slab.len());
            let windows = obs.take_windows();
            obs_reports.push((obs.into_report(model_kernel), windows));
        }
        for s in &mut model.servers {
            s.finalize(horizon);
        }
        if let Some(dev) = &mut model.deviation {
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

    let mut resp_time = Welford::new();
    let mut resp_ratio = Welford::new();
    let mut degraded_time = Welford::new();
    let mut degraded_ratio = Welford::new();
    let mut ratios = Histogram::new();
    let mut trace: Option<TraceCollector> = None;
    for m in &mut models {
        resp_time.merge(&m.resp_time);
        resp_ratio.merge(&m.resp_ratio);
        degraded_time.merge(&m.degraded_time);
        degraded_ratio.merge(&m.degraded_ratio);
        ratios.merge(&m.ratios);
        if let Some(t) = m.trace.take() {
            match &mut trace {
                None => trace = Some(t),
                Some(acc) => acc.absorb(t),
            }
        }
    }

    let [p95, p99] = ratios.quantiles([0.95, 0.99]).unwrap_or([0.0; 2]);

    // Deviation curves share interval and origin, so windows align; the
    // curve is the elementwise mean. One model's mean is its own curve
    // bit for bit: a one-term sum of a non-negative value, divided by 1.
    let curves: Vec<&[f64]> = models
        .iter()
        .filter_map(|m| m.deviation.as_ref().map(|d| d.deviations()))
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

    // Dispatch fractions are recomputed against the run's total.
    let total_dispatched: u64 = models
        .iter()
        .flat_map(|m| &m.servers)
        .map(Server::dispatched)
        .sum();
    let servers: Vec<ServerStats> = models
        .iter()
        .flat_map(|m| {
            m.servers.iter().enumerate().map(move |(i, s)| ServerStats {
                speed: s.speed(),
                dispatched: s.dispatched(),
                completed: s.completed(),
                utilization: s.utilization(),
                mean_queue_len: s.mean_queue_len(),
                dispatch_fraction: if total_dispatched == 0 {
                    0.0
                } else {
                    s.dispatched() as f64 / total_dispatched as f64
                },
                availability: s.availability(),
                downtime: s.downtime(),
                crashes: s.crashes(),
                msgs_lost: m.channels.as_ref().map_or(0, |c| c.server_msgs_lost[i]),
            })
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
    let routed: Vec<u64> = models
        .iter()
        .flat_map(|m| m.shard_routed.iter().copied())
        .collect();
    let total_routed: u64 = routed.iter().sum();
    let shards: Vec<ShardStats> = if routed.len() > 1 {
        routed
            .iter()
            .map(|&jobs| ShardStats {
                jobs,
                share: if total_routed == 0 {
                    0.0
                } else {
                    jobs as f64 / total_routed as f64
                },
            })
            .collect()
    } else {
        Vec::new()
    };

    // Per-class tables share one layout across models (every model sees
    // the same malleable spec), and every stamped class id appears even
    // with zero completions, so the fold is an elementwise merge.
    let classes: Vec<ClassStats> = match &models[0].class_stats {
        Some(first) => (0..first.len())
            .map(|c| {
                let mut resp = Welford::new();
                let mut slow = Welford::new();
                for stats in models.iter().filter_map(|m| m.class_stats.as_ref()) {
                    resp.merge(&stats[c].0);
                    slow.merge(&stats[c].1);
                }
                ClassStats {
                    class: c as u16,
                    count: resp.count(),
                    mean_slowdown: slow.mean(),
                    mean_response: resp.mean(),
                }
            })
            .collect(),
        None => Vec::new(),
    };
    let malleable = models.iter().any(|m| m.tier.is_some()).then(|| {
        let runtimes = || {
            models
                .iter()
                .filter_map(|m| m.tier.as_ref())
                .flat_map(|t| &t.runtimes)
        };
        MalleableStats {
            malleable_jobs: models.iter().map(|m| m.malleable_jobs).sum(),
            reallocations: runtimes().map(|r| r.reallocations).sum(),
            max_cores_in_use: runtimes().map(|r| r.max_cores_in_use).sum(),
            fleet_cores: servers.len() as f64,
        }
    });

    let chan = |count: fn(&ChannelRuntime) -> u64| -> u64 {
        models
            .iter()
            .filter_map(|m| m.channels.as_ref())
            .map(count)
            .sum()
    };
    let degraded_jobs = degraded_ratio.count();
    let mut stats = RunStats {
        policy: models[0].policies[0].name(),
        jobs_counted: models.iter().map(|m| m.jobs_counted).sum(),
        jobs_finished: resp_ratio.count(),
        mean_response_time: resp_time.mean(),
        mean_response_ratio: resp_ratio.mean(),
        fairness: resp_ratio.std_dev(),
        p95_response_ratio: p95,
        p99_response_ratio: p99,
        crashes: servers.iter().map(|s| s.crashes).sum(),
        servers,
        deviations,
        ratio_histogram: models[0].track_ratio_histogram.then_some(ratios),
        trace,
        events_processed: events,
        realized_utilization,
        jobs_lost: models.iter().map(|m| m.jobs_lost).sum(),
        jobs_resubmitted: models.iter().map(|m| m.jobs_resubmitted).sum(),
        jobs_restarted: models.iter().map(|m| m.jobs_restarted).sum(),
        availability,
        degraded_jobs,
        mean_degraded_response_time: if degraded_jobs == 0 {
            0.0
        } else {
            degraded_time.mean()
        },
        mean_degraded_response_ratio: if degraded_jobs == 0 {
            0.0
        } else {
            degraded_ratio.mean()
        },
        obs,
        shards,
        // Every shard applies the same consensus sequence; model 0
        // speaks for the tier.
        syncs_applied: models[0].syncs_applied,
        msgs_lost: chan(|c| c.msgs_lost),
        retries: chan(|c| c.retries),
        timeouts: chan(|c| c.timeouts),
        hedges_won: chan(|c| c.hedges_won),
        hedges_lost: chan(|c| c.hedges_lost),
        stale_decisions: models
            .iter()
            .map(|m| {
                m.policies
                    .iter()
                    .map(|p| p.stale_decisions())
                    .sum::<u64>()
                    .saturating_sub(m.stale_baseline)
            })
            .sum(),
        // Conservation law: counted = finished + lost + in flight.
        jobs_in_flight: models
            .iter()
            .map(|m| m.slab.iter().filter(|r| r.counted).count() as u64)
            .sum(),
        server_summary: None,
        // Slowdown is the response ratio (see `record_completion`).
        mean_slowdown: resp_ratio.mean(),
        p95_slowdown: p95,
        p99_slowdown: p99,
        classes,
        malleable,
    };
    if models[0].per_server == PerServerMode::Summary {
        stats.collapse_per_server();
    }
    stats
}

impl<P: Policy> Actor<Ev> for Model<P> {
    fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<'_, Ev>) {
        let t = now.as_secs();
        // Observability windows close *before* the event at their
        // boundary is processed — the same lazy arithmetic as the
        // deviation tracker. The flush only reads model state; it never
        // schedules events or draws random numbers, so the run is
        // bit-identical with observability on or off.
        if let Some(obs) = &mut self.obs {
            obs.flush_to(t, &self.servers, self.slab.len());
        }
        match event {
            Ev::Arrival => self.handle_arrival(t, sched),
            Ev::ServerWake { server } => self.handle_wake(server, t, sched),
            Ev::LoadDetect { server } => self.handle_load_detect(server, t, sched),
            Ev::LoadUpdate { server, queue_len } => {
                // Update messages come from the servers, not from a
                // shard: every dispatcher sees the same (delayed) load
                // news, as each would in a real broadcast.
                for policy in &mut self.policies {
                    policy.on_load_update(server, queue_len, t);
                }
            }
            Ev::WarmupEnd => {
                for s in &mut self.servers {
                    s.reset_window(t);
                }
                // Fault metrics are measurement-window quantities too.
                self.jobs_lost = 0;
                self.jobs_resubmitted = 0;
                self.jobs_restarted = 0;
                self.syncs_applied = 0;
                self.degraded_time = Welford::new();
                self.degraded_ratio = Welford::new();
                // Channel counters and the staleness tally are
                // measurement-window quantities as well.
                if let Some(ch) = &mut self.channels {
                    ch.reset_window();
                }
                self.stale_baseline = self.policies.iter().map(|p| p.stale_decisions()).sum();
                // The obs utilization baselines rebase with the servers'
                // busy integrals.
                if let Some(obs) = &mut self.obs {
                    obs.on_warmup_reset();
                }
            }
            Ev::ServerCrash { server } => self.handle_crash(server, t, sched),
            Ev::ServerRepair { server } => self.handle_repair(server, t, sched),
            Ev::MembershipNotice => self.deliver_membership(t),
            Ev::SyncPublish => self.handle_sync_publish(t, sched),
            Ev::SyncApply => {
                let merged = self
                    .pending_sync
                    .pop_front()
                    .expect("sync apply without pending consensus");
                self.apply_sync(&merged, t);
            }
            Ev::DispatchDeliver {
                tx,
                gen,
                target,
                hedged,
            } => self.deliver_dispatch(tx, gen, target, hedged, t, sched),
            Ev::RetryTimer { tx, gen } => self.handle_retry_timer(tx, gen, t, sched),
            Ev::HedgeTimer { tx, gen } => self.handle_hedge_timer(tx, gen, t, sched),
            Ev::TierWake { shard } => self.handle_tier_wake(shard, t, sched),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArrivalSpec;
    use crate::discipline::DisciplineSpec;
    use hetsched_dist::DistSpec;

    /// Round-robin over all servers — simple deterministic test policy.
    struct Cyclic {
        next: usize,
    }

    impl Policy for Cyclic {
        fn choose(&mut self, ctx: &DispatchCtx<'_>, _rng: &mut Rng64) -> usize {
            let pick = self.next;
            self.next = (self.next + 1) % ctx.speeds.len();
            pick
        }

        fn name(&self) -> String {
            "cyclic-test".into()
        }
    }

    fn small_cfg() -> ClusterConfig {
        ClusterConfig {
            speeds: vec![1.0, 1.0],
            fleet: Vec::new(),
            utilization: 0.5,
            job_sizes: DistSpec::Exponential { mean: 10.0 },
            arrivals: ArrivalSpec::Poisson,
            discipline: DisciplineSpec::ProcessorSharing,
            load_updates: crate::network::LoadUpdateModel::default(),
            horizon: 20_000.0,
            warmup: 2_000.0,
            deviation_interval: None,
            track_ratio_histogram: false,
            trace: None,
            faults: None,
            obs: None,
            dispatch: Default::default(),
            channels: None,
            per_server: Default::default(),
            malleable: None,
        }
    }

    #[test]
    fn runs_and_produces_sane_stats() {
        let sim = Simulation::new(small_cfg(), Cyclic { next: 0 }, 42).unwrap();
        let stats = sim.run();
        assert!(stats.jobs_counted > 500, "counted {}", stats.jobs_counted);
        assert!(stats.jobs_finished > 0);
        assert!(stats.jobs_finished <= stats.jobs_counted);
        assert!(stats.mean_response_time > 0.0);
        // Response ratio is at least 1 for every job (a job cannot beat
        // its own size on a speed-1 machine).
        assert!(stats.mean_response_ratio >= 1.0);
        assert!(stats.fairness >= 0.0);
        assert_eq!(stats.policy, "cyclic-test");
    }

    #[test]
    fn deterministic_under_same_seed() {
        let a = Simulation::new(small_cfg(), Cyclic { next: 0 }, 7)
            .unwrap()
            .run();
        let b = Simulation::new(small_cfg(), Cyclic { next: 0 }, 7)
            .unwrap()
            .run();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Simulation::new(small_cfg(), Cyclic { next: 0 }, 1)
            .unwrap()
            .run();
        let b = Simulation::new(small_cfg(), Cyclic { next: 0 }, 2)
            .unwrap()
            .run();
        assert_ne!(a.mean_response_ratio, b.mean_response_ratio);
    }

    #[test]
    fn realized_utilization_tracks_configured() {
        let mut cfg = small_cfg();
        cfg.horizon = 200_000.0;
        cfg.warmup = 20_000.0;
        let stats = Simulation::new(cfg, Cyclic { next: 0 }, 3).unwrap().run();
        assert!(
            (stats.realized_utilization - 0.5).abs() < 0.05,
            "realized {} vs configured 0.5",
            stats.realized_utilization
        );
    }

    #[test]
    fn cyclic_dispatch_splits_evenly() {
        let stats = Simulation::new(small_cfg(), Cyclic { next: 0 }, 4)
            .unwrap()
            .run();
        let f = stats.dispatch_fractions();
        assert!((f[0] - 0.5).abs() < 0.01, "{f:?}");
    }

    #[test]
    fn rejects_invalid_config() {
        let mut cfg = small_cfg();
        cfg.utilization = 2.0;
        assert!(Simulation::new(cfg, Cyclic { next: 0 }, 0).is_err());
    }

    #[test]
    fn ratio_histogram_collects_when_enabled() {
        let mut cfg = small_cfg();
        cfg.track_ratio_histogram = true;
        let stats = Simulation::new(cfg, Cyclic { next: 0 }, 6).unwrap().run();
        let h = stats.ratio_histogram.as_ref().expect("histogram present");
        assert_eq!(h.count(), stats.jobs_finished);
        // The histogram's median should sit near the mean ratio for this
        // mildly loaded system.
        let median = h.quantile(0.5).expect("non-empty");
        assert!(
            median > 0.5 && median < 2.0 * stats.mean_response_ratio,
            "median {median}"
        );
        // Disabled by default.
        let stats2 = Simulation::new(small_cfg(), Cyclic { next: 0 }, 6)
            .unwrap()
            .run();
        assert!(stats2.ratio_histogram.is_none());
    }

    #[test]
    fn trace_capture_collects_jobs() {
        let mut cfg = small_cfg();
        cfg.trace = Some(crate::trace::TraceSpec {
            sample_every: 3,
            max_records: 100_000,
        });
        let stats = Simulation::new(cfg, Cyclic { next: 0 }, 8).unwrap().run();
        let tr = stats.trace.as_ref().expect("trace present");
        assert_eq!(tr.seen(), stats.jobs_finished);
        // Every third finished job is retained.
        assert_eq!(tr.records().len() as u64, stats.jobs_finished.div_ceil(3));
        for r in tr.records() {
            assert!(r.completion >= r.arrival);
            assert!(r.arrival >= 2_000.0, "only counted jobs are traced");
            assert!(r.server < 2);
        }
        // The traced mean ratio approximates the run's mean ratio.
        let mean_ratio: f64 = tr.records().iter().map(|r| r.response_ratio()).sum::<f64>()
            / tr.records().len() as f64;
        assert!(
            (mean_ratio - stats.mean_response_ratio).abs() / stats.mean_response_ratio < 0.1,
            "traced mean {mean_ratio} vs run mean {}",
            stats.mean_response_ratio
        );
    }

    #[test]
    fn faults_inject_crashes_and_losses() {
        let mut cfg = small_cfg();
        cfg.faults = Some(crate::faults::FaultSpec::exponential(2_000.0, 200.0));
        let stats = Simulation::new(cfg, Cyclic { next: 0 }, 11).unwrap().run();
        assert!(stats.crashes > 0, "expected crashes, got {}", stats.crashes);
        assert!(stats.availability < 1.0);
        assert!(stats.availability > 0.5, "MTTR/MTBF ≈ 0.09");
        assert!(stats.jobs_lost > 0, "Lost semantics must lose jobs");
        assert_eq!(stats.jobs_resubmitted, 0);
        assert_eq!(stats.jobs_restarted, 0);
        let total_downtime: f64 = stats.servers.iter().map(|s| s.downtime).sum();
        assert!(total_downtime > 0.0);
        assert!(stats.servers.iter().any(|s| s.availability < 1.0));
        // Churn-conditioned metrics exist and degraded jobs fared no
        // better than the average job (they arrived during outages).
        assert!(stats.degraded_jobs > 0);
        assert!(stats.mean_degraded_response_time > 0.0);
    }

    #[test]
    fn inactive_faults_match_faults_none_exactly() {
        // An enabled fault layer whose first crash lies beyond the
        // horizon must reproduce the fault-free run bit-for-bit: the
        // fault streams are disjoint from the workload streams.
        let mut cfg = small_cfg();
        cfg.faults = Some(crate::faults::FaultSpec {
            up_time: hetsched_dist::DistSpec::Deterministic { value: 1e12 },
            down_time: hetsched_dist::DistSpec::Exponential { mean: 100.0 },
            on_crash: crate::faults::JobFaultSemantics::Lost,
            notice_delay_mean: 0.0,
            servers: None,
        });
        let faulted = Simulation::new(cfg, Cyclic { next: 0 }, 7).unwrap().run();
        let baseline = Simulation::new(small_cfg(), Cyclic { next: 0 }, 7)
            .unwrap()
            .run();
        assert_eq!(faulted, baseline);
    }

    #[test]
    fn resubmit_semantics_reroute_in_flight_jobs() {
        let mut cfg = small_cfg();
        cfg.faults = Some(
            crate::faults::FaultSpec::exponential(2_000.0, 200.0)
                .with_semantics(crate::faults::JobFaultSemantics::Resubmit),
        );
        let stats = Simulation::new(cfg, Cyclic { next: 0 }, 11).unwrap().run();
        assert!(stats.crashes > 0);
        assert!(stats.jobs_resubmitted > 0);
        assert_eq!(stats.jobs_restarted, 0);
    }

    #[test]
    fn restart_semantics_rerun_jobs_on_repair() {
        let mut cfg = small_cfg();
        cfg.faults = Some(
            crate::faults::FaultSpec::exponential(2_000.0, 200.0)
                .with_semantics(crate::faults::JobFaultSemantics::Restart),
        );
        let stats = Simulation::new(cfg, Cyclic { next: 0 }, 11).unwrap().run();
        assert!(stats.crashes > 0);
        assert!(stats.jobs_restarted > 0);
        assert_eq!(stats.jobs_resubmitted, 0);
        // Restarted jobs sat through the outage: their conditioned
        // response time dwarfs the overall mean.
        assert!(stats.mean_degraded_response_time > stats.mean_response_time);
    }

    #[test]
    fn faulted_run_is_deterministic() {
        let mut cfg = small_cfg();
        cfg.faults = Some(
            crate::faults::FaultSpec::exponential(1_000.0, 100.0)
                .with_semantics(crate::faults::JobFaultSemantics::Resubmit)
                .with_notice_delay(5.0),
        );
        let a = Simulation::new(cfg.clone(), Cyclic { next: 0 }, 9)
            .unwrap()
            .run();
        let b = Simulation::new(cfg, Cyclic { next: 0 }, 9).unwrap().run();
        assert_eq!(a, b);
    }

    #[test]
    fn obs_probes_do_not_perturb_the_run() {
        // The tentpole invariant: with observability on, RunStats must be
        // bit-identical to the unobserved run once the report itself is
        // set aside — probes read, they never schedule.
        let mut cfg = small_cfg();
        cfg.deviation_interval = Some(500.0);
        let mut obs_cfg = cfg.clone();
        obs_cfg.obs = Some(crate::obs::ObsSpec::every(500.0));
        let mut observed = Simulation::new(obs_cfg, Cyclic { next: 0 }, 5)
            .unwrap()
            .run();
        let baseline = Simulation::new(cfg, Cyclic { next: 0 }, 5).unwrap().run();

        let report = observed.obs.take().expect("obs report present");
        assert_eq!(observed, baseline);
        assert!(baseline.obs.is_none());

        // 20 000 s horizon / 500 s windows = 40 whole windows, with
        // strictly increasing boundaries.
        assert_eq!(report.len(), 40);
        assert!(report.times.windows(2).all(|w| w[0] < w[1]));
        // Sampled at the deviation interval, the deviation column IS the
        // Fig. 2 series.
        assert_eq!(report.column("deviation").unwrap(), baseline.deviations);
        // Kernel counters came along for the ride.
        assert!(report.kernel.scheduled >= report.kernel.popped);
        assert!(report.kernel.high_water > 0);
    }

    /// Cyclic with a mergeable credit vector, for sync-plane tests.
    struct SyncedCyclic {
        next: usize,
    }

    impl Policy for SyncedCyclic {
        fn choose(&mut self, ctx: &DispatchCtx<'_>, _rng: &mut Rng64) -> usize {
            let pick = self.next;
            self.next = (self.next + 1) % ctx.speeds.len();
            pick
        }

        fn sync_state(&self) -> Option<SyncState> {
            Some(SyncState::with_credits(vec![self.next as f64]))
        }

        fn merge_sync(&mut self, consensus: &SyncState, _now: f64) {
            if let Some(&c) = consensus.credits.first() {
                self.next = c as usize;
            }
        }

        fn name(&self) -> String {
            "synced-cyclic".into()
        }
    }

    #[test]
    fn single_dispatcher_tier_is_invisible() {
        // The tentpole contract: a D = 1 run — whatever the splitter
        // kind, sync disabled — is bit-identical to the pre-tier
        // simulation, and reports the pre-tier result shape.
        let baseline = Simulation::new(small_cfg(), Cyclic { next: 0 }, 21)
            .unwrap()
            .run();
        for splitter in [
            hetsched_dispatch::SplitterSpec::RoundRobin,
            hetsched_dispatch::SplitterSpec::IidRandom,
            hetsched_dispatch::SplitterSpec::SourceHash { sources: 64 },
        ] {
            let mut cfg = small_cfg();
            cfg.dispatch = hetsched_dispatch::DispatchSpec {
                dispatchers: 1,
                splitter,
                sync: None,
                ..Default::default()
            };
            let tiered = Simulation::new(cfg, Cyclic { next: 0 }, 21).unwrap().run();
            assert_eq!(tiered, baseline);
            assert!(tiered.shards.is_empty());
            assert_eq!(tiered.syncs_applied, 0);
        }
    }

    #[test]
    fn sharded_run_reports_shard_detail() {
        let mut cfg = small_cfg();
        cfg.dispatch = hetsched_dispatch::DispatchSpec::sharded(
            4,
            hetsched_dispatch::SplitterSpec::RoundRobin,
        );
        let policies = (0..4).map(|_| Cyclic { next: 0 }).collect();
        let stats = Simulation::with_policies(cfg, policies, 22).unwrap().run();
        assert_eq!(stats.shards.len(), 4);
        let routed: u64 = stats.shards.iter().map(|s| s.jobs).sum();
        assert_eq!(routed, stats.jobs_counted, "every counted job routed");
        let share_sum: f64 = stats.shards.iter().map(|s| s.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-12);
        // A round-robin splitter hands each shard a quarter (±1 job).
        for s in &stats.shards {
            assert!((s.share - 0.25).abs() < 0.01, "{:?}", stats.shards);
        }
    }

    #[test]
    fn constructors_check_shard_counts() {
        let mut cfg = small_cfg();
        cfg.dispatch = hetsched_dispatch::DispatchSpec::sharded(
            2,
            hetsched_dispatch::SplitterSpec::RoundRobin,
        );
        let Err(err) = Simulation::new(cfg.clone(), Cyclic { next: 0 }, 0) else {
            panic!("new() must reject a multi-dispatcher config");
        };
        assert!(
            err.to_string().contains("Simulation::with_policies"),
            "{err}"
        );
        let Err(err) = Simulation::with_policies(cfg, vec![Cyclic { next: 0 }], 0) else {
            panic!("with_policies must reject a shard-count mismatch");
        };
        assert!(
            err.to_string().contains("2 dispatchers but 1 policy"),
            "{err}"
        );
    }

    #[test]
    fn sync_plane_applies_rounds() {
        // With mergeable policies the sync clock ticks: publishes every
        // 500 s over an 18 000 s post-warmup window, applied after the
        // one-way latency.
        let mut cfg = small_cfg();
        cfg.dispatch = hetsched_dispatch::DispatchSpec::sharded(
            2,
            hetsched_dispatch::SplitterSpec::RoundRobin,
        )
        .with_sync(hetsched_dispatch::SyncSpec::every(500.0).with_latency(50.0));
        let mk = || (0..2).map(|_| SyncedCyclic { next: 0 }).collect();
        let a = Simulation::with_policies(cfg.clone(), mk(), 24)
            .unwrap()
            .run();
        assert!(a.syncs_applied > 10, "applied {}", a.syncs_applied);
        // Deterministic under the same seed, like everything else.
        let b = Simulation::with_policies(cfg.clone(), mk(), 24)
            .unwrap()
            .run();
        assert_eq!(a, b);
        // Policies with nothing mergeable never see a round applied.
        let inert = (0..2).map(|_| Cyclic { next: 0 }).collect();
        let c = Simulation::with_policies(cfg, inert, 24).unwrap().run();
        assert_eq!(c.syncs_applied, 0);
    }

    #[test]
    fn reliable_channels_section_is_invisible() {
        // `channels: Some(reliable())` must be bit-identical to
        // `channels: None` — the runtime is simply never constructed.
        let base_cfg = small_cfg();
        let mut chan_cfg = base_cfg.clone();
        chan_cfg.channels = Some(crate::channel::ChannelSpec::reliable());
        let base = Simulation::new(base_cfg, Cyclic { next: 0 }, 31)
            .unwrap()
            .run();
        let chan = Simulation::new(chan_cfg, Cyclic { next: 0 }, 31)
            .unwrap()
            .run();
        assert_eq!(base, chan);
        assert_eq!(chan.msgs_lost, 0);
        assert_eq!(chan.retries, 0);
    }

    /// The conservation law every channel configuration must satisfy.
    fn assert_conserved(stats: &RunStats) {
        assert_eq!(
            stats.jobs_counted,
            stats.jobs_finished + stats.jobs_lost + stats.jobs_in_flight,
            "counted {} != finished {} + lost {} + in flight {}",
            stats.jobs_counted,
            stats.jobs_finished,
            stats.jobs_lost,
            stats.jobs_in_flight
        );
    }

    #[test]
    fn fire_and_forget_loses_dispatches() {
        let mut cfg = small_cfg();
        cfg.channels = Some(crate::channel::ChannelSpec {
            dispatch: crate::channel::PlaneSpec::lossy(0.05),
            ..crate::channel::ChannelSpec::default()
        });
        let stats = Simulation::new(cfg, Cyclic { next: 0 }, 17).unwrap().run();
        assert!(stats.msgs_lost > 0, "5% loss must drop messages");
        assert!(stats.jobs_lost > 0, "fire-and-forget loses the job");
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.timeouts, 0);
        assert!(stats.servers.iter().map(|s| s.msgs_lost).sum::<u64>() >= stats.msgs_lost / 2);
        assert_conserved(&stats);
    }

    #[test]
    fn retries_recover_lost_dispatches() {
        let lossy = crate::channel::ChannelSpec {
            dispatch: crate::channel::PlaneSpec::lossy(0.05),
            ..crate::channel::ChannelSpec::default()
        };
        let mut ff_cfg = small_cfg();
        ff_cfg.channels = Some(lossy.clone());
        let mut retry_cfg = small_cfg();
        retry_cfg.channels = Some(lossy.with_retry(crate::channel::RetrySpec::after(5.0)));
        let ff = Simulation::new(ff_cfg, Cyclic { next: 0 }, 17)
            .unwrap()
            .run();
        let retried = Simulation::new(retry_cfg, Cyclic { next: 0 }, 17)
            .unwrap()
            .run();
        assert!(retried.timeouts > 0, "lost copies must time out");
        assert!(retried.retries > 0, "timeouts must retransmit");
        assert!(
            retried.jobs_lost < ff.jobs_lost / 4,
            "retries must recover most losses: {} vs {}",
            retried.jobs_lost,
            ff.jobs_lost
        );
        assert_conserved(&retried);
    }

    #[test]
    fn hedging_wins_races_under_loss() {
        let mut cfg = small_cfg();
        cfg.channels = Some(
            crate::channel::ChannelSpec {
                dispatch: crate::channel::PlaneSpec::lossy(0.1),
                ..crate::channel::ChannelSpec::default()
            }
            .with_retry(crate::channel::RetrySpec::after(8.0))
            .with_hedge(crate::channel::HedgeSpec { delay: 2.0 }),
        );
        let stats = Simulation::new(cfg, Cyclic { next: 0 }, 19).unwrap().run();
        // A lost first copy sits unacked past the 2 s hedge delay, so the
        // hedge fires well before the 8 s retry timeout and usually wins.
        assert!(stats.hedges_won > 0, "hedge copies must win some races");
        assert_conserved(&stats);
    }

    #[test]
    fn chaotic_channels_conserve_jobs_and_stay_deterministic() {
        // Loss + duplication + jitter + partitions on every plane, with
        // retries and hedging, across seeds: the conservation law holds
        // and equal seeds agree exactly.
        for seed in [1, 2, 3, 4, 5] {
            let mut cfg = small_cfg();
            cfg.faults = Some(
                crate::faults::FaultSpec::exponential(4_000.0, 300.0)
                    .with_semantics(crate::faults::JobFaultSemantics::Resubmit),
            );
            cfg.channels = Some(
                crate::channel::ChannelSpec {
                    dispatch: crate::channel::PlaneSpec {
                        loss: 0.05,
                        duplicate: 0.05,
                        jitter: 0.5,
                        partitions: vec![(6_000.0, 6_500.0)],
                    },
                    load: crate::channel::PlaneSpec {
                        loss: 0.2,
                        duplicate: 0.1,
                        jitter: 1.0,
                        partitions: vec![],
                    },
                    sync: crate::channel::PlaneSpec::lossy(0.3),
                    retry: None,
                    hedge: None,
                }
                .with_retry(crate::channel::RetrySpec::after(3.0))
                .with_hedge(crate::channel::HedgeSpec { delay: 1.0 }),
            );
            let a = Simulation::new(cfg.clone(), Cyclic { next: 0 }, seed)
                .unwrap()
                .run();
            let b = Simulation::new(cfg, Cyclic { next: 0 }, seed)
                .unwrap()
                .run();
            assert_eq!(a, b, "seed {seed}");
            assert_conserved(&a);
            assert!(a.msgs_lost > 0);
        }
    }

    #[test]
    fn lossy_sync_plane_drops_rounds() {
        let mut cfg = small_cfg();
        cfg.dispatch = hetsched_dispatch::DispatchSpec::sharded(
            2,
            hetsched_dispatch::SplitterSpec::RoundRobin,
        )
        .with_sync(hetsched_dispatch::SyncSpec::every(500.0).with_latency(50.0));
        let mk = || (0..2).map(|_| SyncedCyclic { next: 0 }).collect();
        let reliable = Simulation::with_policies(cfg.clone(), mk(), 24)
            .unwrap()
            .run();
        cfg.channels = Some(crate::channel::ChannelSpec {
            sync: crate::channel::PlaneSpec::lossy(0.8),
            ..crate::channel::ChannelSpec::default()
        });
        let lossy = Simulation::with_policies(cfg, mk(), 24).unwrap().run();
        assert!(
            lossy.syncs_applied < reliable.syncs_applied,
            "80% sync loss must drop whole rounds: {} vs {}",
            lossy.syncs_applied,
            reliable.syncs_applied
        );
        assert!(lossy.msgs_lost > 0);
    }

    #[test]
    fn targeted_faults_only_crash_their_servers() {
        let mut cfg = small_cfg();
        cfg.faults = Some(crate::faults::FaultSpec::exponential(2_000.0, 200.0).with_servers(&[1]));
        let stats = Simulation::new(cfg, Cyclic { next: 0 }, 11).unwrap().run();
        assert!(stats.crashes > 0);
        assert_eq!(stats.servers[0].crashes, 0, "server 0 is not targeted");
        assert!(stats.servers[1].crashes > 0);
        assert_eq!(stats.servers[0].availability, 1.0);
    }

    #[test]
    fn deviation_tracking_produces_intervals() {
        let mut cfg = small_cfg();
        cfg.deviation_interval = Some(1000.0);
        let stats = Simulation::new(cfg, Cyclic { next: 0 }, 5).unwrap().run();
        assert_eq!(stats.deviations.len(), 20);
        // Cyclic dispatch over equal fractions: tiny deviation everywhere.
        for &d in &stats.deviations {
            assert!(d < 0.01, "cyclic deviation should be small, got {d}");
        }
    }

    /// An allocator policy for tier tests: never consulted for tier
    /// jobs, deterministic fallback otherwise.
    struct HesrptTest;

    impl Policy for HesrptTest {
        fn choose(&mut self, _ctx: &DispatchCtx<'_>, _rng: &mut Rng64) -> usize {
            0
        }

        fn malleable_allocator(&self) -> Option<crate::malleable::AllocatorKind> {
            Some(crate::malleable::AllocatorKind::Hesrpt)
        }

        fn name(&self) -> String {
            "hesrpt-test".into()
        }
    }

    #[test]
    fn inactive_malleable_section_is_invisible() {
        // The tentpole invariant: an all-rigid or zero-fraction
        // malleable section constructs nothing — no class stream, no
        // accumulators, no tier — so the run is bit-identical to a
        // section-free one, even when the policy could allocate.
        use crate::malleable::{MalleableClass, MalleableSpec};
        let rigid_class = MalleableSpec {
            fraction: 0.7,
            classes: vec![MalleableClass {
                curve: hetsched_dist::SpeedupCurve::Rigid,
                weight: 1.0,
            }],
        };
        let zero_fraction = MalleableSpec::power_law(0.0, 0.5);
        for section in [rigid_class, zero_fraction] {
            let base_cfg = small_cfg();
            let mut mall_cfg = base_cfg.clone();
            mall_cfg.malleable = Some(section);
            let base = Simulation::new(base_cfg, HesrptTest, 33).unwrap().run();
            let mall = Simulation::new(mall_cfg, HesrptTest, 33).unwrap().run();
            assert_eq!(base, mall);
            assert!(mall.malleable.is_none());
            assert!(mall.classes.is_empty());
            // Slowdown coincides with the response ratio on the
            // rigid path — same jobs, same formula.
            assert_eq!(mall.mean_slowdown, mall.mean_response_ratio);
        }
    }

    #[test]
    fn hesrpt_tier_allocates_and_conserves() {
        let mut cfg = small_cfg();
        cfg.malleable = Some(crate::malleable::MalleableSpec::power_law(0.5, 0.5));
        let stats = Simulation::new(cfg, HesrptTest, 44).unwrap().run();
        assert!(
            stats.jobs_finished > 500,
            "finished {}",
            stats.jobs_finished
        );
        assert_conserved(&stats);
        let m = stats.malleable.as_ref().expect("tier stats present");
        assert!(m.malleable_jobs > 0);
        assert!(m.reallocations > 0);
        assert_eq!(m.fleet_cores, 2.0);
        // Conservation law of the allocation itself.
        assert!(
            m.max_cores_in_use <= m.fleet_cores + 1e-9,
            "allocated {} of {} cores",
            m.max_cores_in_use,
            m.fleet_cores
        );
        assert!(stats.mean_slowdown > 0.0);
        assert!(stats.p99_slowdown >= stats.p95_slowdown);
        // Slowdown is the response ratio, tier on as well as off.
        assert_eq!(stats.mean_slowdown, stats.mean_response_ratio);
        assert_eq!(stats.p95_slowdown, stats.p95_response_ratio);
        assert_eq!(stats.p99_slowdown, stats.p99_response_ratio);
        // Class table: rigid background + one power-law class.
        assert_eq!(stats.classes.len(), 2);
        assert!(stats.classes[0].count > 0 && stats.classes[1].count > 0);
        let total: u64 = stats.classes.iter().map(|c| c.count).sum();
        assert_eq!(total, stats.jobs_finished);
        // Determinism under the same seed, like every other subsystem.
        let mut cfg2 = small_cfg();
        cfg2.malleable = Some(crate::malleable::MalleableSpec::power_law(0.5, 0.5));
        let again = Simulation::new(cfg2, HesrptTest, 44).unwrap().run();
        assert_eq!(stats, again);
    }

    #[test]
    fn tier_is_deterministic_and_conserves_with_faults() {
        for faults in [
            None,
            Some(
                crate::faults::FaultSpec::exponential(2_000.0, 200.0)
                    .with_semantics(crate::faults::JobFaultSemantics::Resubmit),
            ),
        ] {
            let mut cfg = small_cfg();
            cfg.malleable = Some(crate::malleable::MalleableSpec::power_law(0.6, 0.5));
            cfg.faults = faults;
            let a = Simulation::new(cfg.clone(), HesrptTest, 45).unwrap().run();
            let b = Simulation::new(cfg, HesrptTest, 45).unwrap().run();
            assert_eq!(a, b);
            assert_conserved(&a);
        }
    }

    #[test]
    fn stamping_without_allocator_runs_rigidly() {
        // An active section with a non-allocator policy stamps classes
        // (the breakdown table fills in) but dispatches every job
        // rigidly: no tier, no tier stats.
        let mut cfg = small_cfg();
        cfg.malleable = Some(crate::malleable::MalleableSpec::power_law(0.5, 0.5));
        let stats = Simulation::new(cfg, Cyclic { next: 0 }, 46).unwrap().run();
        assert!(stats.malleable.is_none());
        assert_eq!(stats.classes.len(), 2);
        assert!(stats.classes[1].count > 0, "stamped jobs completed");
        assert_eq!(stats.mean_slowdown, stats.mean_response_ratio);
        assert_conserved(&stats);
    }

    #[test]
    fn tier_rejects_unreliable_channels() {
        let mut cfg = small_cfg();
        cfg.malleable = Some(crate::malleable::MalleableSpec::power_law(0.5, 0.5));
        cfg.channels = Some(crate::channel::ChannelSpec {
            dispatch: crate::channel::PlaneSpec::lossy(0.05),
            ..crate::channel::ChannelSpec::default()
        });
        let Err(err) = Simulation::new(cfg.clone(), HesrptTest, 1) else {
            panic!("tier + lossy channels must be rejected");
        };
        assert!(err.to_string().contains("reliable channels"), "{err}");
        // A reliable channel section (structurally invisible) is fine.
        cfg.channels = Some(crate::channel::ChannelSpec::reliable());
        assert!(Simulation::new(cfg.clone(), HesrptTest, 1).is_ok());
        // And so is an unreliable one without an allocator policy.
        cfg.channels = Some(crate::channel::ChannelSpec {
            dispatch: crate::channel::PlaneSpec::lossy(0.05),
            ..crate::channel::ChannelSpec::default()
        });
        assert!(Simulation::new(cfg, Cyclic { next: 0 }, 1).is_ok());
    }
}
