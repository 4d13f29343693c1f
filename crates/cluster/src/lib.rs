//! # hetsched-cluster — the simulated network of heterogeneous computers
//!
//! The discrete-event simulator of §4.1 of the paper: a collection of
//! computers with different speeds connected by a high-speed network, fed
//! by a central scheduler. Jobs arrive at the scheduler, are dispatched
//! immediately according to a pluggable [`Policy`], run to completion on
//! the assigned computer (no rescheduling), and report their response time
//! on completion. Program/data files live on a dedicated file server, so
//! dispatching costs only a command line — no transfer delay is modelled,
//! exactly as in the paper.
//!
//! Components:
//!
//! * [`job`] — job records and the slab allocator that recycles them
//!   (a 4·10⁶-second run creates 1–2 million jobs; only in-flight ones
//!   are kept).
//! * [`discipline`] — per-computer service disciplines: exact processor
//!   sharing in O(log n) per event ([`discipline::PsVirtualTime`]), an
//!   O(n) reference PS used to cross-validate it, preemptive round-robin
//!   with a finite quantum (the paper's "preemptive round-robin processor
//!   scheduling"; PS is its quantum→0 limit), and FCFS for ablations.
//! * [`server`] — wraps a discipline with utilization/queue-length
//!   accounting; the simulation re-arms each server's wake timer in
//!   place when an arrival moves its next completion.
//! * [`policy`] — the dispatch-policy trait the scheduler calls; concrete
//!   policies (random, round-robin, dynamic least-load, …) live in
//!   `hetsched-policies`.
//! * [`network`] — the load-update feedback path for dynamic policies:
//!   U(0,1) departure-detection delay + Exp(0.05 s) message delay (§4.2).
//! * [`channel`] — unreliable message planes (loss / duplication /
//!   jitter / partitions per plane on dedicated RNG streams) plus the
//!   recovery machinery: ack-based dispatch with timeout + exponential
//!   backoff + bounded retries, and hedged dispatch. The reliable
//!   default is structurally invisible.
//! * [`faults`] — per-server crash/repair renewal processes with
//!   configurable in-flight-job semantics (lost / resubmitted /
//!   restarted), driven by dedicated RNG streams so fault runs stay
//!   bit-reproducible and `faults: None` reproduces the fault-free
//!   simulation byte-for-byte.
//! * [`malleable`] — malleable job classes with concave speedup curves
//!   and the heSRPT-style allocation tier: one job may hold `k`
//!   fractional servers, preemptively reallocated at every arrival,
//!   completion, crash, and repair. An absent or all-rigid section is
//!   structurally invisible, so such runs stay bit-identical to the
//!   rigid seed path.
//! * the dispatch tier (`hetsched-dispatch`, re-exported here) — an
//!   optional front-end of `D` dispatcher shards, each running a private
//!   [`Policy`] instance over a partition of the arrival stream, with an
//!   optional periodic state-sync plane. One dispatcher with sync
//!   disabled (the default) is bit-identical to the classic
//!   single-scheduler simulation.
//! * [`obs`] — run-level observability: the sampling spec, the
//!   time-series report with its JSONL/CSV exporters and kernel
//!   counters, and the driver that fills it with one row per fixed
//!   window of per-server queue length / utilization / availability,
//!   cluster-wide rates and response quantiles, and the Fig. 2
//!   deviation, named by one column table that the shard merge shares —
//!   without perturbing the run (the driver reads the servers, never
//!   the scheduler or an RNG).
//! * [`config`] / [`results`] — JSON-friendly run configuration and
//!   output statistics (mean response time / response ratio / fairness /
//!   per-server detail).
//! * [`simulation`] — the actor that wires everything to the
//!   `hetsched-desim` engine, one private module per seam: `arrival`,
//!   `transfer`, `membership`, `tier` and `tally`.

#![warn(missing_docs)]

pub mod channel;
pub mod config;
pub mod discipline;
pub mod faults;
pub mod index;
pub mod job;
pub mod malleable;
pub mod network;
pub mod obs;
pub mod pdes;
pub mod policy;
pub mod results;
pub mod server;
pub mod simulation;
pub mod trace;

pub use channel::{ChannelSpec, HedgeSpec, PlaneSpec, RetrySpec, CHANNEL_STREAM_BASE};
pub use config::{ArrivalSpec, ClusterConfig, FleetGroup, PerServerMode};
pub use discipline::{Discipline, DisciplineSpec};
pub use faults::{FaultSpec, JobFaultSemantics};
pub use hetsched_dispatch::{
    compensated_total, consensus_coordinated, level_shift, Coordination, DispatchSpec,
    SplitterSpec, SyncSpec, SyncState,
};
pub use hetsched_dist::SpeedupCurve;
pub use index::{ArgminTree, FleetState};
pub use job::{JobId, JobRecord, JobSlab};
pub use malleable::{AllocatorKind, ClassStats, MalleableClass, MalleableSpec, MalleableStats};
pub use obs::{KernelCounters, ObsDriver, ObsReport, ObsSpec};
pub use pdes::{shard_config, shard_ranges, ParallelSimulation, PdesTiming, PDES_STREAM_BASE};
pub use policy::{DispatchCtx, Policy};
pub use results::{MetricSummary, RunStats, ServerStats, ServerSummarySet, ShardStats};
pub use simulation::{check_tier, Simulation};
pub use trace::{JobTrace, TraceCollector, TraceSpec};
