//! Simulation engine: the event loop.
//!
//! [`Engine`] owns the clock and the future-event list; an [`Actor`] is the
//! user's model. The engine pops the earliest event, advances the clock to
//! its timestamp, and calls [`Actor::handle`] with a [`Scheduler`] facade
//! through which the model schedules follow-up events (and may cancel
//! pending ones or stop the run).
//!
//! The future-event list is the [`EventQueue`]; its determinism contract
//! (timestamp order, FIFO ties, exact cancellation) and its re-armable
//! [`Timer`]s are documented in [`crate::queue`].
//!
//! The loop guarantees:
//!
//! * the clock never moves backwards;
//! * simultaneous events are delivered in scheduling order;
//! * `run_until(t)` delivers every event with timestamp `<= t` and leaves
//!   the clock at exactly `t`, so time-weighted statistics can be closed
//!   out at the horizon.

use crate::queue::{EventId, EventQueue, FelStats};
use crate::time::SimTime;
use crate::timer::Timer;

/// Why a run loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Drained,
    /// The time horizon passed to [`Engine::run_until`] was reached.
    HorizonReached,
    /// The actor called [`Scheduler::stop`].
    Stopped,
}

/// Scheduling facade handed to the actor during event handling.
///
/// Borrowing the queue through this facade (instead of the whole engine)
/// lets the actor schedule and cancel while the engine iterates.
pub struct Scheduler<'a, E> {
    queue: &'a mut EventQueue<E>,
    now: SimTime,
    stop: &'a mut bool,
}

impl<'a, E> Scheduler<'a, E> {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire `delay` seconds from now.
    ///
    /// # Panics
    /// Panics if `delay` is NaN, infinite, or negative — enqueueing into
    /// the past would silently corrupt every statistic downstream.
    #[inline]
    pub fn schedule_in(&mut self, delay: f64, payload: E) -> EventId {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "schedule_in: delay must be finite and non-negative, got {delay}"
        );
        self.queue.schedule(self.now.after(delay), payload)
    }

    /// Schedules `payload` at an absolute time (must not be in the past).
    ///
    /// # Panics
    /// Panics if `time` precedes the current clock.
    #[inline]
    pub fn schedule_at(&mut self, time: SimTime, payload: E) -> EventId {
        assert!(
            time >= self.now,
            "cannot schedule into the past ({time} < {})",
            self.now
        );
        self.queue.schedule(time, payload)
    }

    /// Cancels a pending event; returns `true` if it was live.
    #[inline]
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Arms `timer` to deliver `payload` at an absolute time, replacing
    /// its pending firing if it has one.
    ///
    /// # Panics
    /// Panics if `time` precedes the current clock.
    #[inline]
    pub fn arm(&mut self, timer: Timer, time: SimTime, payload: E) {
        assert!(
            time >= self.now,
            "cannot arm a timer in the past ({time} < {})",
            self.now
        );
        self.queue.arm(timer, time, payload)
    }

    /// Removes `timer`'s pending firing; returns `true` if it had one.
    #[inline]
    pub fn disarm(&mut self, timer: Timer) -> bool {
        self.queue.disarm(timer)
    }

    /// Requests that the run loop return after this event is handled.
    #[inline]
    pub fn stop(&mut self) {
        *self.stop = true;
    }
}

/// The model: receives every event in timestamp order.
pub trait Actor<E> {
    /// Handles one event at time `now`.
    fn handle(&mut self, now: SimTime, event: E, sched: &mut Scheduler<'_, E>);
}

// Closures can serve as throwaway actors in tests and examples.
impl<E, F> Actor<E> for F
where
    F: FnMut(SimTime, E, &mut Scheduler<'_, E>),
{
    fn handle(&mut self, now: SimTime, event: E, sched: &mut Scheduler<'_, E>) {
        self(now, event, sched)
    }
}

/// The discrete-event engine: clock + future-event list + run loop.
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at zero.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
        }
    }

    /// Creates an engine with a pre-allocated event queue.
    pub fn with_capacity(cap: usize) -> Self {
        Engine {
            queue: EventQueue::with_capacity(cap),
            now: SimTime::ZERO,
        }
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event before the run starts (or between runs).
    pub fn schedule_at(&mut self, time: SimTime, payload: E) -> EventId {
        assert!(
            time >= self.now,
            "cannot schedule into the past ({time} < {})",
            self.now
        );
        self.queue.schedule(time, payload)
    }

    /// Schedules an event `delay` seconds from the current clock.
    ///
    /// # Panics
    /// Panics if `delay` is NaN, infinite, or negative.
    pub fn schedule_in(&mut self, delay: f64, payload: E) -> EventId {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "schedule_in: delay must be finite and non-negative, got {delay}"
        );
        self.queue.schedule(self.now.after(delay), payload)
    }

    /// Number of events ever scheduled.
    pub fn scheduled_total(&self) -> u64 {
        self.queue.scheduled_total()
    }

    /// Number of events ever delivered to an actor.
    pub fn processed_total(&self) -> u64 {
        self.queue.popped_total()
    }

    /// Snapshot of the event list's lifetime traffic counters.
    ///
    /// Purely observational: reading the counters never mutates the
    /// queue, so models may call this at any point (typically after
    /// `run_until`) without perturbing determinism.
    pub fn fel_stats(&self) -> FelStats {
        self.queue.stats()
    }

    /// Runs until the queue drains or the actor stops the run.
    pub fn run<A: Actor<E>>(&mut self, actor: &mut A) -> RunOutcome {
        self.run_inner(actor, None)
    }

    /// Runs until `horizon`, delivering every event with `time <= horizon`.
    ///
    /// On return the clock equals `horizon` unless the actor stopped the
    /// run early (then it equals the stop event's timestamp).
    pub fn run_until<A: Actor<E>>(&mut self, actor: &mut A, horizon: SimTime) -> RunOutcome {
        self.run_inner(actor, Some(horizon))
    }

    fn run_inner<A: Actor<E>>(&mut self, actor: &mut A, horizon: Option<SimTime>) -> RunOutcome {
        let mut stop = false;
        loop {
            // Events beyond the horizon stay pending for a potential
            // continuation run.
            let Some(ev) = self.queue.pop_until(horizon) else {
                return match horizon {
                    Some(h) => {
                        self.now = h.max(self.now);
                        RunOutcome::HorizonReached
                    }
                    None => RunOutcome::Drained,
                };
            };
            debug_assert!(ev.time >= self.now, "event queue delivered out of order");
            self.now = ev.time;
            let mut sched = Scheduler {
                queue: &mut self.queue,
                now: self.now,
                stop: &mut stop,
            };
            actor.handle(ev.time, ev.payload, &mut sched);
            if stop {
                return RunOutcome::Stopped;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone_and_events_ordered() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::new(2.0), 2u32);
        engine.schedule_at(SimTime::new(1.0), 1u32);
        engine.schedule_at(SimTime::new(3.0), 3u32);
        let mut seen = Vec::new();
        let outcome = engine.run(&mut |now: SimTime, ev: u32, _: &mut Scheduler<u32>| {
            seen.push((now.as_secs(), ev));
        });
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(seen, vec![(1.0, 1), (2.0, 2), (3.0, 3)]);
    }

    #[test]
    fn actor_can_schedule_followups() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::ZERO, 0u32);
        let mut count = 0u32;
        engine.run(&mut |_now: SimTime, ev: u32, sched: &mut Scheduler<u32>| {
            count += 1;
            if ev < 5 {
                sched.schedule_in(1.0, ev + 1);
            }
        });
        assert_eq!(count, 6);
        assert_eq!(engine.now().as_secs(), 5.0);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::ZERO, ());
        let mut count = 0u32;
        let outcome = engine.run_until(
            &mut |_now: SimTime, _: (), sched: &mut Scheduler<()>| {
                count += 1;
                sched.schedule_in(1.0, ());
            },
            SimTime::new(10.5),
        );
        assert_eq!(outcome, RunOutcome::HorizonReached);
        // Events at t = 0, 1, ..., 10 fire; t = 11 stays queued.
        assert_eq!(count, 11);
        assert_eq!(engine.now().as_secs(), 10.5);
    }

    #[test]
    fn horizon_event_inclusive() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::new(5.0), ());
        let mut fired = false;
        engine.run_until(
            &mut |_: SimTime, _: (), _: &mut Scheduler<()>| fired = true,
            SimTime::new(5.0),
        );
        assert!(fired, "event exactly at the horizon must fire");
    }

    #[test]
    fn continuation_after_horizon() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::new(1.0), 1u32);
        engine.schedule_at(SimTime::new(3.0), 3u32);
        let mut seen = Vec::new();
        engine.run_until(
            &mut |_: SimTime, ev: u32, _: &mut Scheduler<u32>| seen.push(ev),
            SimTime::new(2.0),
        );
        assert_eq!(seen, vec![1]);
        assert_eq!(engine.now().as_secs(), 2.0);
        engine.run(&mut |_: SimTime, ev: u32, _: &mut Scheduler<u32>| seen.push(ev));
        assert_eq!(seen, vec![1, 3]);
    }

    #[test]
    fn stop_ends_run_immediately() {
        let mut engine = Engine::new();
        for i in 0..10 {
            engine.schedule_at(SimTime::new(i as f64), i);
        }
        let mut seen = Vec::new();
        let outcome = engine.run(&mut |_: SimTime, ev: i32, sched: &mut Scheduler<i32>| {
            seen.push(ev);
            if ev == 3 {
                sched.stop();
            }
        });
        assert_eq!(outcome, RunOutcome::Stopped);
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert_eq!(engine.now().as_secs(), 3.0);
    }

    #[test]
    fn cancel_from_actor() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::ZERO, "start");
        let victim = engine.schedule_at(SimTime::new(2.0), "victim");
        let mut seen: Vec<String> = Vec::new();
        engine.run(&mut |_: SimTime, ev: &str, sched: &mut Scheduler<&str>| {
            seen.push(ev.to_owned());
            if ev == "start" {
                assert!(sched.cancel(victim));
            }
        });
        assert_eq!(seen, vec!["start".to_owned()]);
    }

    #[test]
    fn actor_rearms_and_disarms_timers() {
        // A timer re-armed on every tick fires only at its last setting;
        // one disarmed before its time never fires.
        let mut engine = Engine::new();
        for i in 0..4 {
            engine.schedule_at(SimTime::new(f64::from(i)), "tick");
        }
        let mut seen = Vec::new();
        let outcome = engine.run_until(
            &mut |now: SimTime, ev: &'static str, sched: &mut Scheduler<&'static str>| {
                seen.push((now.as_secs(), ev));
                if ev == "tick" {
                    sched.arm(Timer::new(0), now.after(1.5), "wake");
                    sched.arm(Timer::new(1), now.after(0.5), "doomed");
                    assert!(sched.disarm(Timer::new(1)));
                }
            },
            SimTime::new(10.0),
        );
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(
            seen,
            vec![
                (0.0, "tick"),
                (1.0, "tick"),
                (2.0, "tick"),
                (3.0, "tick"),
                (4.5, "wake")
            ]
        );
        let s = engine.fel_stats();
        assert_eq!((s.scheduled, s.popped, s.cancelled), (12, 5, 7));
    }

    #[test]
    #[should_panic(expected = "arm a timer in the past")]
    fn arming_into_past_panics() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::new(5.0), ());
        engine.run(&mut |_: SimTime, _: (), sched: &mut Scheduler<()>| {
            sched.arm(Timer::new(0), SimTime::new(1.0), ());
        });
    }

    #[test]
    fn empty_run_drains() {
        let mut engine: Engine<()> = Engine::new();
        assert_eq!(
            engine.run(&mut |_: SimTime, _: (), _: &mut Scheduler<()>| {}),
            RunOutcome::Drained
        );
        assert_eq!(engine.now(), SimTime::ZERO);
    }

    #[test]
    fn run_until_with_empty_queue_advances_clock() {
        let mut engine: Engine<()> = Engine::new();
        let outcome = engine.run_until(
            &mut |_: SimTime, _: (), _: &mut Scheduler<()>| {},
            SimTime::new(7.0),
        );
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(engine.now().as_secs(), 7.0);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_past_panics() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::new(5.0), ());
        engine.run(&mut |_: SimTime, _: (), _: &mut Scheduler<()>| {});
        engine.schedule_at(SimTime::new(1.0), ());
    }

    #[test]
    #[should_panic(expected = "schedule_in: delay must be finite")]
    fn engine_rejects_negative_delay() {
        let mut engine: Engine<()> = Engine::new();
        engine.schedule_in(-1.0, ());
    }

    #[test]
    #[should_panic(expected = "schedule_in: delay must be finite")]
    fn engine_rejects_nan_delay() {
        let mut engine: Engine<()> = Engine::new();
        engine.schedule_in(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "schedule_in: delay must be finite")]
    fn scheduler_rejects_bad_delay() {
        let mut engine: Engine<()> = Engine::new();
        engine.schedule_at(SimTime::ZERO, ());
        engine.run(&mut |_: SimTime, _: (), sched: &mut Scheduler<()>| {
            sched.schedule_in(f64::INFINITY, ());
        });
    }

    #[test]
    fn processed_counter() {
        let mut engine = Engine::new();
        for i in 0..5 {
            engine.schedule_at(SimTime::new(i as f64), ());
        }
        engine.run(&mut |_: SimTime, _: (), _: &mut Scheduler<()>| {});
        assert_eq!(engine.processed_total(), 5);
        assert_eq!(engine.scheduled_total(), 5);
    }
}
