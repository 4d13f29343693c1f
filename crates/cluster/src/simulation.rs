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
//!    trigger sending one more copy to a fresh pick of the owning shard's
//!    policy. The two timers are per transfer slot: an attempt arms them
//!    and the transfer's resolution disarms whichever is still pending.
//! 9. `TierWake` — the malleable allocation tier's next completion on a
//!    shard (only when an active [`ClusterConfig::malleable`] section is
//!    paired with an allocator policy, see [`crate::malleable`]):
//!    harvested jobs leave the tier and the remaining shares re-solve,
//!    re-arming the shard's wake timer in place.
//!
//! The model is split along its seams into private submodules, each
//! owning its seam's state, construction and handlers: `arrival`,
//! `transfer`, `membership`, `tier`, and `tally` (with the `finalize`
//! close-out both engines share).
//!
//! The model numbers its [`Timer`]s densely: server `i`'s wake is timer
//! `i`, tier shard `s`'s wake is `N + s`, and transfer slot `tx` owns
//! the retry and hedge timers `N + D + 2·tx` and `N + D + 2·tx + 1`
//! (`N` servers, `D` dispatch shards). Only one-shot events enter the
//! event list's heap.
//!
//! The dispatch tier: `ClusterConfig::dispatch.dispatchers` front-end
//! dispatchers each run a private [`Policy`] instance; a
//! [`Splitter`](hetsched_dispatch::Splitter) partitions the arrival
//! stream across them. With one
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
//!
//! [`ChannelSpec`]: crate::channel::ChannelSpec
//! [`ChannelSpec::reliable`]: crate::channel::ChannelSpec::reliable
//! [`Timer`]: hetsched_desim::Timer

use std::collections::VecDeque;

use hetsched_desim::slab::Key;
use hetsched_desim::{Actor, Engine, Rng64, Scheduler, SimTime};
use hetsched_dispatch::SyncState;
use hetsched_error::HetschedError;

use crate::config::ClusterConfig;
use crate::index::FleetState;
use crate::job::{JobId, JobSlab};
use crate::network::LoadUpdateModel;
use crate::pdes::ShardFeed;
use crate::policy::Policy;
use crate::results::RunStats;
use crate::server::Server;

mod arrival;
mod membership;
mod tally;
mod tier;
mod transfer;

pub(crate) use arrival::ArrivalDraw;
use arrival::Front;
use membership::Faults;
pub(crate) use tally::finalize;
use tally::Tally;
use tier::Tier;
use transfer::Channels;

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
        /// The transfer (a stale key is an orphan copy).
        tx: Key,
        /// Server this copy was addressed to.
        target: usize,
        /// Whether the copy is the hedge duplicate.
        hedged: bool,
    },
    /// The ack timeout of an in-flight transfer expires (the slot's
    /// retry timer).
    RetryTimer {
        /// The transfer.
        tx: Key,
    },
    /// The hedge delay of a still-unacked transfer expires (the slot's
    /// hedge timer).
    HedgeTimer {
        /// The transfer.
        tx: Key,
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

/// A configured, seeded simulation ready to run.
pub struct Simulation<P: Policy> {
    cfg: ClusterConfig,
    /// One policy instance per dispatcher shard (exactly one for the
    /// classic single-dispatcher simulation).
    policies: Vec<P>,
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
        prepare(&mut cfg, &policies)?;
        Ok(Simulation {
            cfg,
            policies,
            seed,
        })
    }

    /// Runs to the horizon and returns the collected statistics.
    pub fn run(self) -> RunStats {
        let cfg = self.cfg;
        let mut model = Model::build(&cfg, self.policies, self.seed, None, StreamPlan::classic());
        let mut engine = Engine::with_capacity(1024);
        model.seed_initial_events(&mut engine, &cfg);
        engine.run_until(&mut model, SimTime::new(cfg.horizon));
        let events = engine.processed_total();
        finalize(&cfg, vec![(model, events, engine.fel_stats())])
    }
}

/// The constructor preamble both engines share: normalizes the fleet,
/// validates the config, and checks one policy instance per dispatcher
/// and the tier pairing.
pub(crate) fn prepare<P: Policy>(
    cfg: &mut ClusterConfig,
    policies: &[P],
) -> Result<(), HetschedError> {
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
    check_tier(cfg, policies)
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
    /// [`ChannelSpec`](crate::channel::ChannelSpec)).
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

pub(crate) struct Model<P: Policy> {
    /// One policy instance per dispatcher shard.
    pub(crate) policies: Vec<P>,
    /// Published consensus snapshots in flight to the shards. The sync
    /// latency is constant, so FIFO order matches event order.
    pub(crate) pending_sync: VecDeque<SyncState>,
    servers: Vec<Server>,
    speeds: Vec<f64>,
    slab: JobSlab,
    /// Cache-dense per-server hot state (queue-length mirror + optional
    /// true-load argmin index), maintained incrementally at every queue
    /// mutation instead of being rebuilt `O(N)` per dispatch decision.
    fleet: FleetState,
    done_buf: Vec<JobId>,
    load_updates: LoadUpdateModel,
    rng_net: Rng64,
    /// The arrival stream, the splitter, coordination and the sync clock.
    front: Front,
    /// The fault layer (None when [`ClusterConfig::faults`] is unset).
    faults: Option<Faults>,
    /// The unreliable-messaging layer (None for a reliable or absent
    /// [`ClusterConfig::channels`] — structurally invisible).
    channels: Option<Channels>,
    /// The allocation tier (Some iff stamping is active AND the lead
    /// policy is an allocator).
    tier: Option<Tier>,
    /// What the run measures.
    tally: Tally,
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
        feed: Option<ShardFeed>,
        streams: StreamPlan,
    ) -> Self {
        let servers: Vec<Server> = cfg
            .speeds
            .iter()
            .map(|&s| Server::new(s, cfg.discipline))
            .collect();
        // The true-load index costs O(log N) per queue mutation, so it
        // only exists when some policy in the tier reads it.
        let mut fleet = FleetState::new(
            servers.len(),
            policies.iter().any(|p| p.wants_true_load_index()),
        );
        fleet.seed_keys(&cfg.speeds);
        let channels = Channels::new(cfg, seed, streams.chan_base);
        Model {
            // The shards run identical policy instances, so shard 0
            // speaks for the tier.
            tally: Tally::new(cfg, policies[0].expected_fractions(), channels.is_some()),
            tier: Tier::new(cfg, policies[0].malleable_allocator(), &servers),
            policies,
            pending_sync: VecDeque::new(),
            servers,
            speeds: cfg.speeds.clone(),
            slab: JobSlab::with_capacity(64),
            fleet,
            done_buf: Vec::new(),
            load_updates: cfg.load_updates,
            rng_net: Rng64::stream(seed, streams.net),
            front: Front::new(cfg, seed, feed, streams.dispatch),
            faults: Faults::new(cfg, seed, streams.fault_base),
            channels,
        }
    }

    /// Schedules the run's initial events: the first arrival, the warmup
    /// boundary, the first sync publish (when a sync plane exists), and
    /// the first crash of every server (when faults are configured) —
    /// in exactly the seed path's order.
    pub(crate) fn seed_initial_events(&mut self, engine: &mut Engine<Ev>, cfg: &ClusterConfig) {
        engine.schedule_at(SimTime::new(self.front.first_arrival()), Ev::Arrival);
        if cfg.warmup > 0.0 {
            engine.schedule_at(SimTime::new(cfg.warmup), Ev::WarmupEnd);
        }
        // The sync plane exists only when configured; without it no sync
        // event is ever scheduled (the D=1 invisibility path).
        if let Some(sync) = cfg.dispatch.sync {
            engine.schedule_at(SimTime::new(sync.interval), Ev::SyncPublish);
        }
        if let Some(faults) = &mut self.faults {
            faults.seed_first_crashes(engine);
        }
    }
}

impl<P: Policy> Actor<Ev> for Model<P> {
    fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<'_, Ev>) {
        let t = now.as_secs();
        // Observability windows close *before* the event at their
        // boundary is processed — the same lazy arithmetic as the
        // deviation tracker. The flush only reads model state; it never
        // schedules events or draws random numbers, so the run is
        // bit-identical with observability on or off.
        if let Some(obs) = &mut self.tally.obs {
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
            Ev::WarmupEnd => self.end_warmup(t),
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
            Ev::DispatchDeliver { tx, target, hedged } => {
                self.deliver_dispatch(tx, target, hedged, t, sched)
            }
            Ev::RetryTimer { tx } => self.handle_retry_timer(tx, t, sched),
            Ev::HedgeTimer { tx } => self.handle_hedge_timer(tx, t, sched),
            Ev::TierWake { shard } => self.retier(shard, None, t, sched),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArrivalSpec;
    use crate::discipline::DisciplineSpec;
    use crate::policy::DispatchCtx;
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
