//! The transfer seam: the unreliable dispatch plane's transfer state
//! machine (attempts, acks, retries, hedges and orphans), the load-plane
//! path of update messages, and message loss on every plane.

use hetsched_desim::slab::Key;
use hetsched_desim::{Rng64, Scheduler, Slab, Timer};

use super::tally::Tally;
use super::{Ev, Model};
use crate::channel::{HedgeSpec, PlaneSpec, RetrySpec};
use crate::config::ClusterConfig;
use crate::job::JobId;
use crate::policy::Policy;

/// One logical job crossing the unreliable dispatch plane, possibly
/// over several attempts (retransmissions and/or a hedge copy).
#[derive(Clone, Copy)]
pub(super) struct Transfer {
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

impl Transfer {
    /// A fresh transfer of `job`, its first attempt counted.
    #[inline]
    pub(super) fn new(job: JobId, shard: usize) -> Self {
        Transfer {
            job,
            shard,
            attempts: 1,
            delivered: false,
            copies_in_flight: 0,
            hedged: false,
        }
    }
}

/// One message plane: its unreliability and its own RNG stream. A
/// reliable plane loses, delays and duplicates nothing, and draws
/// nothing.
pub(super) struct Plane {
    spec: PlaneSpec,
    rng: Rng64,
}

impl Plane {
    /// Whether a message sent at `now` is lost; a loss is counted in
    /// `tally`, against `server` when the message has one (dispatch
    /// copies and acks count against their target, load updates
    /// against their sender, sync rounds against none). Partition
    /// windows drop deterministically without consuming randomness; the
    /// Bernoulli draw only happens for a configured loss probability, so
    /// enabling one knob never shifts another knob's stream.
    #[inline]
    pub(super) fn lost(&mut self, now: f64, server: Option<usize>, tally: &mut Tally) -> bool {
        let spec = &self.spec;
        if !(spec.in_partition(now) || (spec.loss > 0.0 && self.rng.next_f64() < spec.loss)) {
            return false;
        }
        tally.window.msgs_lost += 1;
        if let Some(s) = server {
            tally.window.server_msgs_lost[s] += 1;
        }
        if let Some(obs) = &mut tally.obs {
            obs.on_msg_lost();
        }
        true
    }

    /// Extra delivery delay (0 when jitter is disabled).
    fn jitter(&mut self) -> f64 {
        if self.spec.jitter > 0.0 {
            self.rng.exponential(1.0 / self.spec.jitter)
        } else {
            0.0
        }
    }

    /// Whether a delivered message is duplicated.
    fn dup(&mut self) -> bool {
        self.spec.duplicate > 0.0 && self.rng.next_f64() < self.spec.duplicate
    }
}

/// The transfer seam's state: present only for a non-reliable
/// [`ChannelSpec`](crate::channel::ChannelSpec) — a reliable spec
/// constructs nothing, which is what makes it structurally invisible.
pub(super) struct Channels {
    /// Copy loss, ack loss, duplication and jitter (`chan_base + 0`).
    dispatch: Plane,
    /// Load updates (`chan_base + 1`).
    load: Plane,
    /// Sync rounds (`chan_base + 2`).
    pub(super) sync: Plane,
    retry: Option<RetrySpec>,
    hedge: Option<HedgeSpec>,
    /// The unresolved transfers. A late event's stale key is an orphan
    /// (its transfer already resolved) and is dropped, never misapplied
    /// to a recycled slot.
    pub(super) transfers: Slab<Transfer>,
    /// Slot `s`'s retry timer is `timer_base + 2·s`, its hedge timer
    /// the next one.
    timer_base: usize,
}

impl Channels {
    /// The channel runtime of `cfg`: none for `channels: None` and
    /// `Some(ChannelSpec::reliable())` alike.
    pub(super) fn new(cfg: &ClusterConfig, seed: u64, chan_base: u64) -> Option<Self> {
        let spec = cfg.channels.clone().filter(|c| !c.is_reliable())?;
        let plane = |spec, k| Plane {
            spec,
            rng: Rng64::stream(seed, chan_base + k),
        };
        Some(Channels {
            dispatch: plane(spec.dispatch, 0),
            load: plane(spec.load, 1),
            sync: plane(spec.sync, 2),
            retry: spec.retry,
            hedge: spec.hedge,
            transfers: Slab::new(),
            timer_base: cfg.speeds.len() + cfg.dispatch.dispatchers.max(1),
        })
    }

    /// Transfer `tx`'s ack timeout timer.
    fn retry_timer(&self, tx: Key) -> Timer {
        Timer::new(self.timer_base + 2 * tx.slot() as usize)
    }

    /// Transfer `tx`'s hedge timer.
    fn hedge_timer(&self, tx: Key) -> Timer {
        Timer::new(self.timer_base + 2 * tx.slot() as usize + 1)
    }

    /// Resolves a transfer: disarms its timers and frees its slot, whose
    /// generation moves on so every copy still in the air becomes a
    /// detectable orphan.
    fn take(&mut self, tx: Key, sched: &mut Scheduler<'_, Ev>) -> Option<Transfer> {
        let tr = self.transfers.take(tx)?;
        sched.disarm(self.retry_timer(tx));
        sched.disarm(self.hedge_timer(tx));
        Some(tr)
    }
}

impl<P: Policy> Model<P> {
    /// Launches one dispatch attempt (primary, retransmission, or hedge
    /// copy) of transfer `tx`, whose state is `tr` once the
    /// attempt is counted: the owning shard's policy picks a target
    /// against fresh queue lengths, the dispatch plane decides the
    /// copy's fate, and — for primary attempts — the ack timers are
    /// armed.
    pub(super) fn start_attempt(
        &mut self,
        tx: Key,
        tr: Transfer,
        hedged: bool,
        now: f64,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        // Every attempt is a real dispatch decision: it re-consults the
        // policy (so retries see fresh believed state) and is counted by
        // the deviation tracker and the observability plane.
        let size = self.slab.get(tr.job).expect("stale job id").size;
        let target = self.pick(tr.shard, size, now);
        self.tally.on_dispatch(tr.shard, target, now);
        let ch = self.channels.as_mut().expect("a transfer without channels");
        // The copy — and possibly a duplicate of it — crosses the plane.
        let mut deliveries: [Option<f64>; 2] = [None, None];
        if !ch.dispatch.lost(now, Some(target), &mut self.tally) {
            deliveries[0] = Some(ch.dispatch.jitter());
            if ch.dispatch.dup() {
                deliveries[1] = Some(ch.dispatch.jitter());
            }
        }
        let copies = deliveries.iter().flatten().count() as u32;
        let slot = ch
            .transfers
            .get_mut(tx)
            .expect("transfer vanished mid-attempt");
        slot.copies_in_flight += copies;
        let retry = ch.retry;
        match retry {
            // Arm the ack timers *before* any inline delivery: a
            // zero-jitter ack can resolve the transfer — and disarm them
            // — in the same instant. A retransmission arms only the
            // retry timer, which has just fired; the hedge timer stays
            // as the first attempt set it.
            Some(r) if !hedged => {
                let start = sched.now();
                sched.arm(
                    ch.retry_timer(tx),
                    start.after(r.delay_for_attempt(tr.attempts - 1)),
                    Ev::RetryTimer { tx },
                );
                if let Some(h) = ch.hedge.filter(|_| tr.attempts == 1) {
                    sched.arm(
                        ch.hedge_timer(tx),
                        start.after(h.delay),
                        Ev::HedgeTimer { tx },
                    );
                }
            }
            // Fire-and-forget with every copy lost: the job dies at the
            // send. (A copy that was sent settles the transfer when it
            // lands.)
            None if copies == 0 => self.abandon(tx, sched),
            _ => {}
        }
        for d in deliveries.into_iter().flatten() {
            if d > 0.0 {
                sched.schedule_in(d, Ev::DispatchDeliver { tx, target, hedged });
            } else {
                self.deliver_dispatch(tx, target, hedged, now, sched);
            }
        }
    }

    /// A dispatch-plane copy reaches `target`: dedup, orphan-drop, land
    /// the job, and race the ack back.
    pub(super) fn deliver_dispatch(
        &mut self,
        tx: Key,
        target: usize,
        hedged: bool,
        now: f64,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        let Some(ch) = &mut self.channels else {
            return;
        };
        let retry = ch.retry.is_some();
        let Some(tr) = ch.transfers.get_mut(tx) else {
            return; // orphan copy: the transfer already resolved
        };
        tr.copies_in_flight = tr.copies_in_flight.saturating_sub(1);
        if tr.delivered {
            return; // duplicate copy: the job already landed
        }
        if !self.servers[target].is_up() {
            // The copy reached a dead machine and will never be acked.
            // With retries the timer recovers; without, the job dies
            // once no other copy is in the air.
            if !retry && tr.copies_in_flight == 0 {
                self.abandon(tx, sched);
            }
            return;
        }
        tr.delivered = true;
        if tr.hedged {
            // First landing decides the race; the loser's copies become
            // orphans when the transfer resolves.
            if hedged {
                self.tally.window.hedges_won += 1;
            } else {
                self.tally.window.hedges_lost += 1;
            }
        }
        let job = tr.job;
        // The ack races back across the same plane, drawn before the job
        // lands (admitting it draws from no channel stream). A lost ack
        // leaves the timers armed, and the retry timer settles the
        // (already delivered) transfer later.
        let acked = !retry || !ch.dispatch.lost(now, Some(target), &mut self.tally);
        let rec = self.slab.get_mut(job).expect("stale job id");
        rec.server = target;
        let size = rec.size;
        self.admit(target, job, size, now, sched);
        if acked {
            // The transfer is settled: disarm both timers, free the slot.
            if let Some(ch) = &mut self.channels {
                ch.take(tx, sched);
            }
        }
    }

    /// Orphan detection: the transfer is abandoned, its slab entry
    /// reclaimed, and the loss counted.
    fn abandon(&mut self, tx: Key, sched: &mut Scheduler<'_, Ev>) {
        if let Some(tr) = self.channels.as_mut().and_then(|ch| ch.take(tx, sched)) {
            let rec = self.slab.take(tr.job).expect("stale job id");
            self.tally.window.jobs_lost += u64::from(rec.counted);
        }
    }

    /// The ack timeout fired: settle a delivered-but-unacked transfer,
    /// give up after `max_retries` retransmissions, or retransmit with
    /// exponential backoff.
    pub(super) fn handle_retry_timer(&mut self, tx: Key, now: f64, sched: &mut Scheduler<'_, Ev>) {
        let Some(ch) = &mut self.channels else {
            return;
        };
        let max_retries = ch.retry.map_or(0, |r| r.max_retries);
        let Some(tr) = ch.transfers.get_mut(tx) else {
            return;
        };
        self.tally.window.timeouts += 1;
        if tr.delivered {
            // The job landed but every ack was lost: stop retransmitting
            // (the job must not run twice) and settle the transfer.
            ch.take(tx, sched);
        } else if tr.attempts > max_retries {
            self.abandon(tx, sched);
        } else {
            tr.attempts += 1;
            let tr = *tr;
            self.tally.window.retries += 1;
            if let Some(obs) = &mut self.tally.obs {
                obs.on_retry();
            }
            self.start_attempt(tx, tr, false, now, sched);
        }
    }

    /// The hedge delay fired with no ack yet: send one more copy to a
    /// fresh pick of the owning shard's policy (first landing wins the
    /// race).
    pub(super) fn handle_hedge_timer(&mut self, tx: Key, now: f64, sched: &mut Scheduler<'_, Ev>) {
        let Some(tr) = self
            .channels
            .as_mut()
            .and_then(|ch| ch.transfers.get_mut(tx))
        else {
            return;
        };
        if tr.delivered {
            return; // landed (ack lost): hedging would double-run it
        }
        tr.hedged = true;
        let tr = *tr;
        self.start_attempt(tx, tr, true, now, sched);
    }

    /// A server noticed a departure: the update message crosses the load
    /// plane (loss/jitter/duplication when there is a channel layer) on
    /// its way to the network-delay model. Channel fate is decided
    /// *before* the network-delay draw, so a lost update consumes no
    /// `rng_net` randomness.
    pub(super) fn handle_load_detect(
        &mut self,
        server: usize,
        now: f64,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        let update = Ev::LoadUpdate {
            server,
            queue_len: self.servers[server].queue_len(),
        };
        let Some(plane) = self.channels.as_mut().map(|ch| &mut ch.load) else {
            let delay = self.load_updates.message_delay(&mut self.rng_net);
            sched.schedule_in(delay, update);
            return;
        };
        if plane.lost(now, Some(server), &mut self.tally) {
            return;
        }
        let base = self.load_updates.message_delay(&mut self.rng_net);
        sched.schedule_in(base + plane.jitter(), update);
        if plane.dup() {
            sched.schedule_in(base + plane.jitter(), update);
        }
    }
}
