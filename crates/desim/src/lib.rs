//! # hetsched-desim — discrete-event simulation kernel
//!
//! A small, deterministic discrete-event simulation (DES) kernel used as the
//! substrate for the cluster simulator of the ICPP 2000 reproduction
//! ("Optimizing Static Job Scheduling in a Network of Heterogeneous
//! Computers", Tang & Chanson).
//!
//! The kernel provides:
//!
//! * [`SimTime`] — a validated, totally ordered simulation timestamp.
//! * [`EventQueue`] — the future-event list: timestamp order, FIFO ties,
//!   one-shot events in a binary heap with O(1) generation-stamped
//!   cancellation by [`EventId`], and re-armable [`Timer`]s whose one
//!   pending firing is replaced in place rather than left behind in the
//!   heap (see [`queue`]).
//! * [`Slab`] — reusable slots addressed by a `Copy` [`slab::Key`]
//!   (slot + generation), so a stale key looks up nothing. One type
//!   holds the event list's payloads (an [`EventId`] is a payload's
//!   key) and the cluster model's in-flight jobs and unacked transfers.
//! * [`Tournament`] — the `O(log N)` tournament tree that orders the
//!   timers; the cluster crate's load-directed policies and Algorithm 2
//!   run on it too.
//! * [`Engine`] / [`Actor`] — a run loop that drains the event list,
//!   advancing the clock monotonically and handing each event to user
//!   code together with a [`Scheduler`] facade for scheduling follow-up
//!   events.
//! * [`rng`] — a deterministic xoshiro256++ PRNG with SplitMix64 stream
//!   derivation so that every model component (arrivals, job sizes, network
//!   delays, random dispatching) draws from an *independent* reproducible
//!   stream, and replications differ only by the root seed.
//!
//! The kernel is deliberately free of external dependencies: reproducibility
//! of the paper's experiments must not hinge on the sampling internals of a
//! third-party RNG crate.
//!
//! ## Example
//!
//! ```
//! use hetsched_desim::{Engine, Actor, Scheduler, SimTime};
//!
//! #[derive(Debug, Clone, PartialEq)]
//! enum Ev { Ping(u32) }
//!
//! struct Counter { seen: u32 }
//!
//! impl Actor<Ev> for Counter {
//!     fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
//!         let Ev::Ping(k) = ev;
//!         self.seen += 1;
//!         if k > 0 {
//!             sched.schedule_in(1.0, Ev::Ping(k - 1));
//!         }
//!         let _ = now;
//!     }
//! }
//!
//! let mut engine = Engine::new();
//! engine.schedule_at(SimTime::ZERO, Ev::Ping(3));
//! let mut actor = Counter { seen: 0 };
//! engine.run(&mut actor);
//! assert_eq!(actor.seen, 4);
//! assert_eq!(engine.now().as_secs(), 3.0);
//! ```

#![warn(missing_docs)]

pub mod check;
pub mod engine;
pub mod queue;
pub mod rng;
pub mod slab;
pub mod time;
pub mod timer;
pub mod tournament;

pub use engine::{Actor, Engine, RunOutcome, Scheduler};
pub use queue::{EventId, EventQueue, FelStats, ScheduledEvent};
pub use rng::{Rng64, SplitMix64};
pub use slab::Slab;
pub use time::SimTime;
pub use timer::Timer;
pub use tournament::{SlotOrder, Tournament, TreeKey};
