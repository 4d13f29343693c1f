//! The future-event list: a binary heap of one-shot events and a set of
//! re-armable timers, delivered together in `(time, insertion order)`.
//!
//! A future-event list (FEL) holds pending events and surrenders them in
//! timestamp order. [`EventQueue`] upholds three guarantees, because the
//! reproduction's figures are asserted bit-for-bit:
//!
//! 1. **Timestamp order.** `pop` returns events in non-decreasing time.
//! 2. **FIFO ties.** Events with *equal* timestamps pop in the order
//!    they were scheduled or armed. This is what makes replications
//!    byte-stable: simultaneous completions, arrivals, and load-update
//!    ticks resolve identically on every run — a prerequisite for the
//!    paper's "10 independent runs" methodology, where the *only* source
//!    of variation between replications must be the random seed.
//! 3. **Exact cancellation.** `cancel(id)` returns `true` iff `id`
//!    named a still-pending event, which is then never delivered. Ids
//!    die when their event pops or is cancelled, so double-cancel and
//!    cancel-after-delivery are safe no-ops returning `false`.
//!
//! ## Hot-path layout
//!
//! The heap array holds only 24-byte `Copy` keys: the timestamp packed as
//! an order-preserving `u64` (see `SimTime::key_bits`), a FIFO sequence
//! number, and the payload's [`Key`] in a
//! [`Slab`], the same generational store that holds the cluster
//! model's jobs and transfers. Sift operations therefore compare raw
//! integers and never move payloads, and a pop decides whether the
//! surfacing key is still live with a single generation comparison — the
//! no-cancel fast path does no hashing at all.
//!
//! ## One-shot events and timers
//!
//! [`EventQueue::schedule`] enqueues a one-shot event, which
//! [`EventQueue::cancel`] kills by bumping its slot's generation (O(1),
//! no heap restructuring); the stale heap key is discarded when it
//! surfaces.
//!
//! A model timer that is re-timed again and again — a processor-sharing
//! server's next completion moves with every arrival — is a [`Timer`]
//! instead: [`EventQueue::arm`] sets its one pending firing, replacing
//! the previous one in place, and [`EventQueue::disarm`] removes it (see
//! [`crate::timer`]). Timer firings take their sequence numbers from the
//! same counter as one-shot events, so [`EventQueue::pop_until`]
//! delivers the earlier of the heap head and the earliest timer in the
//! order a heap of both would have. The heap only ever holds one-shot
//! events, so a re-timed timer leaves nothing behind in it.
//!
//! The counters treat a timer firing like an event: an arm counts as one
//! scheduled, a firing replaced by a re-arm or removed by a disarm as
//! one cancelled, and an armed timer as pending.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::slab::{Key, Slab};
use crate::time::SimTime;
use crate::timer::{Timer, TimerSlots};

/// Identifier of a scheduled event, used for cancellation: its
/// payload's slab key.
///
/// The id is dead as soon as the event pops or is cancelled (the slot's
/// generation moves on), so cancelling a completed event is a cheap,
/// safe no-op.
pub type EventId = Key;

/// An event handed back by [`EventQueue::pop`], with its timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// The model-defined payload.
    pub payload: E,
}

/// A snapshot of an [`EventQueue`]'s lifetime counters.
///
/// These are *observability* counters: they describe kernel traffic
/// (how many events were scheduled, delivered, cancelled) and pressure
/// (the largest live population) without exposing any pending payloads.
/// Reading them never mutates the queue, so models can surface them in
/// run reports without perturbing determinism.
///
/// The struct has no JSON form: `hetsched-desim` has no dependencies,
/// and the reproduction keeps it that way. Crates that need to write
/// kernel counters mirror this type (see `hetsched_cluster::obs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FelStats {
    /// Total events ever scheduled; every arm of a timer counts as one.
    pub scheduled: u64,
    /// Total events ever delivered by `pop`, timer firings included.
    pub popped: u64,
    /// Total pending events removed before delivery: cancelled one-shot
    /// events, and timer firings superseded by a re-arm or disarmed.
    pub cancelled: u64,
    /// Largest number of pending events ever held at once, counting
    /// each armed timer as one.
    pub high_water: u64,
}

/// A heap key: packed timestamp, FIFO sequence number, and slab key.
#[derive(Clone, Copy)]
struct Entry {
    time_bits: u64,
    seq: u64,
    id: EventId,
}

impl Entry {
    #[inline]
    fn key(self) -> u128 {
        pack(self.time_bits, self.seq)
    }
}

/// The `(time, seq)` order as one integer: the key the timer tournament
/// carries, and the one the heap head is compared with it by.
#[inline]
fn pack(time_bits: u64, seq: u64) -> u128 {
    (u128::from(time_bits) << 64) | u128::from(seq)
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time_bits == other.time_bits && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest time (then the
        // lowest sequence number) is the greatest element.
        (other.time_bits, other.seq).cmp(&(self.time_bits, self.seq))
    }
}

/// A future-event list: one-shot events in a binary heap and re-armable
/// timers in a tournament, delivered together in `(time, insertion
/// order)`.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry>,
    slab: Slab<E>,
    timers: TimerSlots<E>,
    next_seq: u64,
    scheduled_total: u64,
    popped_total: u64,
    cancelled_total: u64,
    high_water: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Slab::new(),
            timers: TimerSlots::new(),
            next_seq: 0,
            scheduled_total: 0,
            popped_total: 0,
            cancelled_total: 0,
            high_water: 0,
        }
    }

    /// Creates an empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            slab: Slab::with_capacity(cap),
            ..Self::new()
        }
    }

    /// Schedules `payload` to fire at absolute time `time`.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        let id = self.slab.insert(payload);
        self.heap.push(Entry {
            time_bits: time.key_bits(),
            seq: self.next_seq,
            id,
        });
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.note_pending();
        id
    }

    /// Arms `timer` to deliver `payload` at absolute time `time`,
    /// replacing its pending firing if it has one. Ties with one-shot
    /// events and other timers resolve in scheduling order, as if the
    /// firing were scheduled now.
    pub fn arm(&mut self, timer: Timer, time: SimTime, payload: E) {
        let key = pack(time.key_bits(), self.next_seq);
        self.next_seq += 1;
        self.scheduled_total += 1;
        let replaced = self.timers.arm(timer, key, payload);
        self.cancelled_total += u64::from(replaced);
        self.note_pending();
    }

    /// Removes `timer`'s pending firing. Returns `true` iff it had one.
    pub fn disarm(&mut self, timer: Timer) -> bool {
        let armed = self.timers.disarm(timer);
        self.cancelled_total += u64::from(armed);
        armed
    }

    #[inline]
    fn note_pending(&mut self) {
        self.high_water = self.high_water.max(self.len() as u64);
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` iff the id named a still-pending event. The slot's
    /// generation is bumped immediately (so the event can never fire); the
    /// stale heap key is purged lazily when it surfaces.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let live = self.slab.take(id).is_some();
        self.cancelled_total += live as u64;
        live
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.pop_until(None)
    }

    /// Removes and returns the earliest pending event — the heap head or
    /// the earliest timer firing, whichever comes first — unless it falls
    /// after `horizon`, which then leaves it pending.
    #[inline]
    pub fn pop_until(&mut self, horizon: Option<SimTime>) -> Option<ScheduledEvent<E>> {
        let limit = horizon.map_or(u128::MAX, |h| pack(h.key_bits(), u64::MAX));
        let head = self.head_key();
        let timer = self.timers.next_key();
        let (key, payload) = if head < timer {
            if head > limit {
                return None;
            }
            let entry = self.heap.pop().expect("head_key saw a live head");
            let payload = self.slab.take(entry.id).expect("head_key saw a live head");
            (head, payload)
        } else {
            if timer > limit {
                return None;
            }
            self.timers.pop()?
        };
        self.popped_total += 1;
        Some(ScheduledEvent {
            time: SimTime::from_key_bits((key >> 64) as u64),
            payload,
        })
    }

    /// Time of the earliest pending event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let next = self.head_key().min(self.timers.next_key());
        (next != u128::MAX).then(|| SimTime::from_key_bits((next >> 64) as u64))
    }

    /// Key of the earliest live heap entry, discarding the stale keys of
    /// cancelled events above it; `u128::MAX` when the heap holds none.
    #[inline]
    fn head_key(&mut self) -> u128 {
        while let Some(&head) = self.heap.peek() {
            if self.slab.is_live(head.id) {
                return head.key();
            }
            self.heap.pop();
        }
        u128::MAX
    }

    /// Number of pending events, counting each armed timer as one.
    pub fn len(&self) -> usize {
        self.slab.len() + self.timers.armed()
    }

    /// Whether no pending events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Total number of events ever popped (excluding cancelled ones).
    pub fn popped_total(&self) -> u64 {
        self.popped_total
    }

    /// Lifetime traffic counters.
    pub fn stats(&self) -> FelStats {
        FelStats {
            scheduled: self.scheduled_total,
            popped: self.popped_total,
            cancelled: self.cancelled_total,
            high_water: self.high_water,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: f64) -> SimTime {
        SimTime::new(x)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), "c");
        q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        assert_eq!(q.pop().unwrap().payload, "a");
        assert_eq!(q.pop().unwrap().payload, "b");
        assert_eq!(q.pop().unwrap().payload, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5.0), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().payload, i);
        }
    }

    #[test]
    fn interleaved_times_and_ties() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), "a1");
        q.schedule(t(2.0), "b1");
        q.schedule(t(1.0), "a2");
        q.schedule(t(2.0), "b2");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a1", "a2", "b1", "b2"]);
    }

    #[test]
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        assert!(q.cancel(a));
        assert_eq!(q.pop().unwrap().payload, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_pop_is_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), ());
        assert!(q.pop().is_some());
        assert!(!q.cancel(a), "ids die when their event is delivered");
    }

    #[test]
    fn double_cancel_is_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), ());
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
    }

    #[test]
    fn stale_id_stays_dead_after_slot_reuse() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), "a");
        assert!(q.cancel(a));
        let b = q.schedule(t(2.0), "b");
        assert!(!q.cancel(a), "recycled slot must not honour the old id");
        assert_eq!(q.pop().unwrap().payload, "b");
        assert!(!q.cancel(b));
    }

    #[test]
    fn peek_time_sees_earliest_live() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        assert_eq!(q.peek_time(), Some(t(1.0)));
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2.0)));
    }

    #[test]
    fn len_and_is_empty_account_for_cancellation() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), ());
        q.schedule(t(2.0), ());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.cancel(a);
        assert_eq!(q.len(), 1, "len counts live events only");
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), ());
        q.schedule(t(2.0), ());
        q.cancel(a);
        q.pop();
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.popped_total(), 1);
    }

    #[test]
    fn stats_report_cancellations_and_high_water() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), ());
        q.schedule(t(2.0), ());
        q.schedule(t(3.0), ());
        q.cancel(a);
        q.cancel(a); // dead id: must not count
        q.pop();
        let s = q.stats();
        assert_eq!(s.scheduled, 3);
        assert_eq!(s.popped, 1);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.high_water, 3, "peak live population was 3");
    }

    #[test]
    fn timers_and_events_interleave_in_scheduling_order() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), "e0");
        q.arm(Timer::new(4), t(1.0), "w0");
        q.schedule(t(1.0), "e1");
        q.arm(Timer::new(0), t(0.5), "x");
        q.arm(Timer::new(0), t(1.0), "w1"); // re-armed behind e1
        q.schedule(t(2.0), "e2");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["e0", "w0", "e1", "w1", "e2"]);
    }

    #[test]
    fn rearm_and_disarm_count_as_cancels() {
        let mut q = EventQueue::new();
        q.arm(Timer::new(0), t(3.0), ());
        q.arm(Timer::new(0), t(2.0), ()); // supersedes the first firing
        q.arm(Timer::new(1), t(1.0), ());
        q.schedule(t(4.0), ());
        assert_eq!(q.len(), 3);
        assert!(q.disarm(Timer::new(1)));
        assert!(!q.disarm(Timer::new(1)), "nothing left to disarm");
        assert!(!q.disarm(Timer::new(9)), "a timer never armed is idle");
        assert_eq!(q.pop().unwrap().time, t(2.0));
        assert!(!q.disarm(Timer::new(0)), "the firing was delivered");
        let s = q.stats();
        assert_eq!((s.scheduled, s.popped, s.cancelled), (4, 1, 2));
        assert_eq!(s.high_water, 3, "armed timers count as pending");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_until_leaves_later_events_pending() {
        let mut q = EventQueue::new();
        q.arm(Timer::new(0), t(2.0), "w");
        q.schedule(t(3.0), "e");
        assert!(q.pop_until(Some(t(1.5))).is_none());
        assert_eq!(q.pop_until(Some(t(2.0))).unwrap().payload, "w");
        assert!(q.pop_until(Some(t(2.5))).is_none());
        assert_eq!(q.peek_time(), Some(t(3.0)));
        assert_eq!(q.pop_until(None).unwrap().payload, "e");
        assert!(q.pop_until(None).is_none());
    }

    #[test]
    fn large_random_order_is_sorted() {
        use crate::rng::Rng64;
        let mut rng = Rng64::from_seed(11);
        let mut q = EventQueue::new();
        for i in 0..10_000u32 {
            q.schedule(t(rng.next_f64() * 1e6), i);
        }
        let mut last = 0.0;
        while let Some(ev) = q.pop() {
            assert!(ev.time.as_secs() >= last);
            last = ev.time.as_secs();
        }
    }

    #[test]
    fn stress_with_random_cancellation() {
        use crate::rng::Rng64;
        let mut rng = Rng64::from_seed(12);
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for i in 0..5_000u32 {
            let id = q.schedule(t(rng.next_f64() * 100.0), i);
            ids.push(id);
            if rng.chance(0.3) {
                let idx = rng.below(ids.len() as u64) as usize;
                q.cancel(ids[idx]);
            }
        }
        let live = q.len();
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, live);
    }
}
