//! The membership seam: the fault layer's crash/repair renewal
//! processes, what a crash does to resident jobs (lost, resubmitted or
//! parked for restart), and the membership notices the policies hear.

use hetsched_desim::{Engine, Rng64, Scheduler, SimTime};
use hetsched_dist::{BuiltDist, Sample};

use super::{Ev, Model};
use crate::config::ClusterConfig;
use crate::faults::{FaultSpec, JobFaultSemantics};
use crate::job::JobId;
use crate::network::membership_notice_delay;
use crate::policy::Policy;

/// Per-run fault-injection state (present only when configured).
pub(super) struct Faults {
    spec: FaultSpec,
    up_dist: BuiltDist,
    down_dist: BuiltDist,
    /// One RNG stream per server (`Rng64::stream(seed, 4 + i)`), used
    /// for that server's up/down draws and notice delays.
    rngs: Vec<Rng64>,
    /// Jobs awaiting restart on each down server
    /// ([`JobFaultSemantics::Restart`] only).
    parked: Vec<Vec<JobId>>,
    /// Servers down right now.
    pub(super) down: usize,
    /// Reusable membership-notice buffer (avoids a per-notice alloc).
    up_buf: Vec<bool>,
}

impl Faults {
    /// The fault layer of `cfg`. Fault streams are only created when
    /// faults are configured, so a `faults: None` run draws exactly the
    /// same values from exactly the same streams as a build without the
    /// fault layer.
    pub(super) fn new(cfg: &ClusterConfig, seed: u64, fault_base: u64) -> Option<Self> {
        let spec = cfg.faults.clone()?;
        let n = cfg.speeds.len();
        Some(Faults {
            up_dist: spec.up_time.build(),
            down_dist: spec.down_time.build(),
            rngs: (0..n)
                .map(|i| Rng64::stream(seed, fault_base + i as u64))
                .collect(),
            parked: vec![Vec::new(); n],
            down: 0,
            up_buf: Vec::new(),
            spec,
        })
    }

    /// Schedules the first crash of every targeted server.
    pub(super) fn seed_first_crashes(&mut self, engine: &mut Engine<Ev>) {
        for (i, rng) in self.rngs.iter_mut().enumerate() {
            // A targeted fault spec leaves the other servers' renewal
            // processes unscheduled *and* undrawn, so narrowing the
            // target set never perturbs the targeted servers' draws.
            if !self.spec.applies_to(i) {
                continue;
            }
            let first_up = self.up_dist.sample(rng);
            engine.schedule_at(SimTime::new(first_up), Ev::ServerCrash { server: i });
        }
    }
}

impl<P: Policy> Model<P> {
    pub(super) fn handle_crash(&mut self, server: usize, now: f64, sched: &mut Scheduler<'_, Ev>) {
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

        // The evicted jobs land in the server's parked list, where
        // Restart leaves them for the repair; the other semantics take
        // them back once the policies and the tier have heard.
        self.servers[server].fail(now, &mut fr.parked[server]);
        let evicted = match semantics {
            JobFaultSemantics::Restart => Vec::new(),
            _ => std::mem::take(&mut fr.parked[server]),
        };
        fr.down += 1;
        self.refresh(server, sched); // the evicted queue drains to 0
        self.notify_membership(notice, now, sched);
        // Tier jobs are not evicted by the crash — the shard's slice
        // just shrank, so their shares re-solve over what remains.
        self.tier_capacity_changed(server, now, sched);

        // Evicted in deterministic discipline order. A resubmitted job
        // goes back through the dispatcher at the crash instant. With an
        // instantaneous notice the policy has already been told about
        // the outage; with a delayed one it may well re-pick the dead
        // server and lose the job.
        for id in evicted {
            if semantics == JobFaultSemantics::Lost {
                let rec = self.slab.take(id).expect("stale job id");
                self.tally.window.jobs_lost += u64::from(rec.counted);
            } else {
                self.resubmit(id, now, sched);
            }
        }
    }

    /// Pushes a crash-evicted job back through the dispatcher with its
    /// full service demand and original arrival time.
    fn resubmit(&mut self, id: JobId, now: f64, sched: &mut Scheduler<'_, Ev>) {
        let mut rec = self.slab.take(id).expect("stale job id");
        if self
            .faults
            .as_ref()
            .is_some_and(|f| f.down == self.servers.len())
        {
            self.tally.window.jobs_lost += u64::from(rec.counted);
            return;
        }
        // Resubmissions go back through the splitter like fresh
        // arrivals: the original shard is not remembered — and in
        // coordinated mode they get a fresh sequence stamp, so the
        // replay bookkeeping stays exact.
        let shard = self.front.splitter.route();
        self.coordinate(shard);
        let target = self.pick(shard, rec.size, now);
        if !self.servers[target].is_up() {
            self.tally.window.jobs_lost += u64::from(rec.counted);
            return;
        }
        if rec.counted {
            self.tally.window.jobs_resubmitted += 1;
            self.tally.shard_routed[shard] += 1;
        }
        self.tally.on_dispatch(shard, target, now);
        rec.server = target;
        rec.degraded = true;
        let size = rec.size;
        let new_id = self.slab.insert(rec);
        self.admit(target, new_id, size, now, sched);
    }

    pub(super) fn handle_repair(&mut self, server: usize, now: f64, sched: &mut Scheduler<'_, Ev>) {
        self.servers[server].repair(now);
        let fr = self.faults.as_mut().expect("repair event without faults");
        fr.down -= 1;
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
            let mut rec = self.slab.take(id).expect("stale job id");
            rec.degraded = true;
            debug_assert_eq!(rec.server, server);
            self.tally.window.jobs_restarted += u64::from(rec.counted);
            let size = rec.size;
            let new_id = self.slab.insert(rec);
            self.servers[server].arrive(now, new_id, size);
        }
        self.refresh(server, sched);
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

    pub(super) fn deliver_membership(&mut self, now: f64) {
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
        if let Some(coord) = &mut self.front.coord {
            let seq = self.front.splitter.sequence();
            for (shard, last) in coord.last_seq.iter_mut().enumerate() {
                let steps = seq - *last;
                if steps > 0 {
                    self.policies[shard].advance_rotation(steps);
                }
                *last = seq;
            }
        }
        let fr = self
            .faults
            .as_mut()
            .expect("membership notice without faults");
        fr.up_buf.clear();
        fr.up_buf.extend(self.servers.iter().map(|s| s.is_up()));
        // Membership is cluster-wide infrastructure news: every shard's
        // dispatcher hears the same notice at the same instant.
        for policy in &mut self.policies {
            policy.on_membership_change(&fr.up_buf, now);
        }
    }
}
