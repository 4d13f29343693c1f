//! A computer in the network: discipline + accounting.
//!
//! [`Server`] wraps a [`DisciplineKind`] with:
//!
//! * **the next wake time** — [`Server::next_wakeup`] is the discipline's
//!   next completion or quantum rotation if left undisturbed. Every
//!   arrival moves it, so the simulation keeps one re-armable
//!   `hetsched_desim::Timer` per server and re-arms it in place after
//!   each state change;
//! * **utilization and queue-length accounting** — time-weighted signals,
//!   resettable at the end of the warmup period so reported statistics
//!   cover only the measurement window, as in §4.1;
//! * **dispatch/completion counters** — per-computer job counts used for
//!   Table 1's workload-distribution percentages;
//! * **crash/repair state** — an up/down flag with availability and
//!   downtime accounting for the fault-injection layer ([`crate::faults`]).
//!   [`Server::fail`] evicts the resident jobs (the simulation decides
//!   their fate) and [`Server::repair`] brings the computer back empty.

use hetsched_metrics::TimeWeighted;

use crate::discipline::{Discipline, DisciplineKind, DisciplineSpec};
use crate::job::JobId;

/// A simulated computer.
#[derive(Debug, Clone)]
pub struct Server {
    speed: f64,
    disc: DisciplineKind,
    busy: TimeWeighted,
    qlen: TimeWeighted,
    dispatched: u64,
    completed: u64,
    up: bool,
    avail: TimeWeighted,
    crashes: u64,
    down_since: Option<f64>,
    downtime: f64,
    /// Fraction of this server the malleable allocation tier currently
    /// occupies. Stays exactly `0.0` for every run without an active
    /// tier, so the busy signal below is bit-identical to the seed
    /// path's `qlen > 0` indicator.
    tier_share: f64,
}

impl Server {
    /// Creates an idle server.
    ///
    /// # Panics
    /// Panics unless `speed` is positive and finite (delegated to the
    /// discipline constructor).
    pub fn new(speed: f64, spec: DisciplineSpec) -> Self {
        Server {
            speed,
            disc: spec.build(speed),
            busy: TimeWeighted::new(0.0, 0.0),
            qlen: TimeWeighted::new(0.0, 0.0),
            dispatched: 0,
            completed: 0,
            up: true,
            avail: TimeWeighted::new(0.0, 1.0),
            crashes: 0,
            down_since: None,
            downtime: 0.0,
            tier_share: 0.0,
        }
    }

    /// The server's relative speed.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Current run-queue length (the paper's load index).
    pub fn queue_len(&self) -> usize {
        self.disc.queue_len()
    }

    /// Remaining work in the system, speed-1 seconds.
    pub fn work_in_system(&self) -> f64 {
        self.disc.work_in_system()
    }

    /// Next internal event time (completion/rotation) if left undisturbed.
    pub fn next_wakeup(&self) -> Option<f64> {
        self.disc.next_wakeup()
    }

    /// Advances the discipline to `now`, appending completions, and
    /// refreshes the time-weighted accounting.
    pub fn advance(&mut self, now: f64, completed: &mut Vec<JobId>) {
        let before = completed.len();
        self.disc.advance(now, completed);
        self.completed += (completed.len() - before) as u64;
        self.refresh(now);
    }

    /// Admits a job with `work` speed-1 seconds of demand. The caller must
    /// have advanced the server to `now` first.
    pub fn arrive(&mut self, now: f64, id: JobId, work: f64) {
        debug_assert!(self.up, "dispatched a job to a down server");
        self.disc.arrive(now, id, work);
        self.dispatched += 1;
        self.refresh(now);
    }

    /// Whether the computer is currently up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Crashes the computer at `now`: evicts every resident job into
    /// `evicted` (deterministic order) and marks the server down. The
    /// caller must have advanced the server to `now` first and decides
    /// what happens to the evicted jobs (lost / resubmitted / restarted).
    pub fn fail(&mut self, now: f64, evicted: &mut Vec<JobId>) {
        debug_assert!(self.up, "fail() on a server that is already down");
        self.refresh(now);
        self.up = false;
        self.crashes += 1;
        self.down_since = Some(now);
        self.disc.drain(evicted);
        self.refresh(now);
    }

    /// Repairs the computer at `now`: it comes back up with an empty run
    /// queue, ready to accept arrivals.
    pub fn repair(&mut self, now: f64) {
        debug_assert!(!self.up, "repair() on a server that is already up");
        self.up = true;
        if let Some(t0) = self.down_since.take() {
            self.downtime += now - t0;
        }
        self.refresh(now);
    }

    fn refresh(&mut self, now: f64) {
        let n = self.disc.queue_len();
        // Tier jobs occupy fractional cores without entering the run
        // queue; their share contributes to the busy signal when the
        // queue itself is idle. `tier_share` is exactly 0.0 whenever no
        // allocation tier is active, preserving the seed path's signal.
        let busy = if n > 0 { 1.0 } else { self.tier_share };
        self.busy.update(now, busy);
        self.qlen.update(now, n as f64);
        self.avail.update(now, if self.up { 1.0 } else { 0.0 });
    }

    /// Updates the malleable tier's occupancy of this server (a
    /// fraction in `[0, 1]`), closing the busy integral at `now` first.
    ///
    /// The tier keeps the run queue empty, and a queue-length signal
    /// that was and stays 0 accrues exactly nothing, so that update is
    /// skipped. Busy and availability keep theirs: their integrals
    /// accrue piecewise, and merging pieces would change the rounding.
    pub fn set_tier_share(&mut self, now: f64, share: f64) {
        let n = self.disc.queue_len();
        if n > 0 || self.qlen.value() != 0.0 {
            self.refresh(now);
        } else {
            self.busy.update(now, self.tier_share);
            self.avail.update(now, if self.up { 1.0 } else { 0.0 });
        }
        self.tier_share = share;
    }

    /// Restarts the measurement window (end of warmup): clears counters
    /// and the time-weighted integrals, keeping in-flight state.
    pub fn reset_window(&mut self, now: f64) {
        self.refresh(now);
        self.busy.reset_window(now);
        self.qlen.reset_window(now);
        self.avail.reset_window(now);
        self.dispatched = 0;
        self.completed = 0;
        self.crashes = 0;
        self.downtime = 0.0;
        // A crash that straddles the warmup boundary only counts its
        // in-window part toward downtime.
        if !self.up {
            self.down_since = Some(now);
        }
    }

    /// Closes the accounting integrals at the horizon.
    pub fn finalize(&mut self, now: f64) {
        self.refresh(now);
        if !self.up {
            if let Some(t0) = self.down_since.replace(now) {
                self.downtime += now - t0;
            }
        }
    }

    /// Fraction of the measurement window the server was busy.
    pub fn utilization(&self) -> f64 {
        self.busy.time_average()
    }

    /// Cumulative busy-time integral extended to `now` *without*
    /// mutating the accounting.
    ///
    /// The observability driver differences this across sampling
    /// boundaries to get per-window utilization; a mutating read here
    /// would change the floating-point accrual sequence behind
    /// [`Server::utilization`] and break the bit-identical-with-obs
    /// invariant.
    pub fn busy_integral_at(&self, now: f64) -> f64 {
        self.busy.integral_at(now)
    }

    /// Time-average queue length over the measurement window.
    pub fn mean_queue_len(&self) -> f64 {
        self.qlen.time_average()
    }

    /// Jobs dispatched to this server in the measurement window.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Jobs completed on this server in the measurement window.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Fraction of the measurement window the server was up.
    pub fn availability(&self) -> f64 {
        self.avail.time_average()
    }

    /// Total seconds the server spent down in the measurement window.
    pub fn downtime(&self) -> f64 {
        self.downtime
    }

    /// Crashes in the measurement window.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobRecord, JobSlab};

    fn job(slab: &mut JobSlab, size: f64) -> JobId {
        slab.insert(JobRecord {
            size,
            arrival: 0.0,
            server: 0,
            counted: true,
            degraded: false,
            class: 0,
        })
    }

    #[test]
    fn tier_share_feeds_busy_when_queue_idle() {
        let mut s = Server::new(1.0, DisciplineSpec::ProcessorSharing);
        let mut done = Vec::new();
        s.advance(0.0, &mut done);
        // Tier occupies half the server on [0, 2), nothing on [2, 4).
        s.set_tier_share(0.0, 0.5);
        s.set_tier_share(2.0, 0.0);
        s.finalize(4.0);
        assert!((s.utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn utilization_accounts_busy_time() {
        let mut slab = JobSlab::new();
        let mut s = Server::new(2.0, DisciplineSpec::ProcessorSharing);
        let mut done = Vec::new();
        // Busy on [0, 1): one job of 2 work units at speed 2.
        s.advance(0.0, &mut done);
        s.arrive(0.0, job(&mut slab, 2.0), 2.0);
        s.advance(1.0, &mut done);
        assert_eq!(done.len(), 1);
        // Idle on [1, 4).
        s.finalize(4.0);
        assert!((s.utilization() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn mean_queue_len_integrates() {
        let mut slab = JobSlab::new();
        let mut s = Server::new(1.0, DisciplineSpec::ProcessorSharing);
        let mut done = Vec::new();
        // Two jobs for 1 s, then one for 1 s, then idle 2 s: mean = 3/4...
        // jobs: sizes 1 and 2 at t=0 (PS: first done at t=2, second at t=3).
        s.advance(0.0, &mut done);
        s.arrive(0.0, job(&mut slab, 1.0), 1.0);
        s.arrive(0.0, job(&mut slab, 2.0), 2.0);
        s.advance(2.0, &mut done); // first completes at t=2
        s.advance(3.0, &mut done); // second at t=3
        s.finalize(4.0);
        // qlen: 2 on [0,2), 1 on [2,3), 0 on [3,4) → (4+1)/4.
        assert!((s.mean_queue_len() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn reset_window_clears_counters() {
        let mut slab = JobSlab::new();
        let mut s = Server::new(1.0, DisciplineSpec::ProcessorSharing);
        let mut done = Vec::new();
        s.advance(0.0, &mut done);
        s.arrive(0.0, job(&mut slab, 1.0), 1.0);
        s.advance(1.0, &mut done);
        assert_eq!(s.dispatched(), 1);
        assert_eq!(s.completed(), 1);
        s.reset_window(2.0);
        assert_eq!(s.dispatched(), 0);
        assert_eq!(s.completed(), 0);
        s.finalize(4.0);
        assert_eq!(s.utilization(), 0.0);
    }

    #[test]
    fn fail_evicts_jobs_and_accounts_downtime() {
        let mut slab = JobSlab::new();
        let mut s = Server::new(1.0, DisciplineSpec::ProcessorSharing);
        let mut done = Vec::new();
        s.advance(0.0, &mut done);
        let a = job(&mut slab, 10.0);
        let b = job(&mut slab, 20.0);
        s.arrive(0.0, a, 10.0);
        s.arrive(0.0, b, 20.0);
        let mut evicted = Vec::new();
        s.advance(1.0, &mut done);
        s.fail(1.0, &mut evicted);
        assert!(!s.is_up());
        assert_eq!(evicted, vec![a, b]);
        assert_eq!(s.queue_len(), 0);
        assert_eq!(s.crashes(), 1);
        // Down on [1, 3), up again on [3, 4].
        s.repair(3.0);
        assert!(s.is_up());
        s.finalize(4.0);
        assert!((s.downtime() - 2.0).abs() < 1e-12);
        assert!((s.availability() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn downtime_straddling_reset_counts_window_part_only() {
        let mut s = Server::new(1.0, DisciplineSpec::ProcessorSharing);
        let mut evicted = Vec::new();
        let mut done = Vec::new();
        s.advance(0.0, &mut done);
        s.fail(0.0, &mut evicted);
        s.reset_window(5.0); // crash predates the window
        s.repair(7.0);
        s.finalize(10.0);
        assert_eq!(s.crashes(), 0, "pre-window crash does not count");
        assert!((s.downtime() - 2.0).abs() < 1e-12);
        assert!((s.availability() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn still_down_at_horizon_closes_downtime() {
        let mut s = Server::new(1.0, DisciplineSpec::ProcessorSharing);
        let mut evicted = Vec::new();
        let mut done = Vec::new();
        s.advance(0.0, &mut done);
        s.fail(2.0, &mut evicted);
        s.finalize(6.0);
        assert!((s.downtime() - 4.0).abs() < 1e-12);
        assert!((s.availability() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn in_flight_work_survives_reset() {
        let mut slab = JobSlab::new();
        let mut s = Server::new(1.0, DisciplineSpec::ProcessorSharing);
        let mut done = Vec::new();
        s.advance(0.0, &mut done);
        s.arrive(0.0, job(&mut slab, 10.0), 10.0);
        s.reset_window(1.0);
        // The job is still there and still completes at t = 10.
        assert_eq!(s.queue_len(), 1);
        s.advance(10.0, &mut done);
        assert_eq!(done.len(), 1);
        // Utilization over [1, 10] window plus finalize at 10: busy 9/9.
        s.finalize(10.0);
        assert!((s.utilization() - 1.0).abs() < 1e-9);
    }
}
