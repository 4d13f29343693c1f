//! # hetsched — optimized static job scheduling for heterogeneous clusters
//!
//! A faithful, production-quality reproduction of *Tang & Chanson,
//! "Optimizing Static Job Scheduling in a Network of Heterogeneous
//! Computers", ICPP 2000*, as a reusable Rust library.
//!
//! The paper's two contributions, both implemented here from first
//! principles:
//!
//! 1. **Optimized workload allocation** ([`queueing`]): model each
//!    computer as an M/M/1-PS queue and minimize the system mean response
//!    time over the allocation fractions. The closed form (Algorithm 1)
//!    sends a *disproportionately* high share to fast machines and may
//!    starve very slow ones entirely at low load.
//! 2. **Round-robin based dispatching** ([`policies`]): Algorithm 2, a
//!    deficit-style round-robin that realizes arbitrary fractions while
//!    smoothing each computer's arrival substream.
//!
//! Their combination — **ORR** — is evaluated against WRAN/ORAN/WRR and a
//! Dynamic Least-Load yardstick in a discrete-event simulation
//! ([`cluster`]) with heavy-tailed Bounded Pareto job sizes and bursty
//! hyperexponential arrivals ([`dist`]).
//!
//! ## Quick start
//!
//! ```
//! use hetsched::prelude::*;
//!
//! // Two slow machines and one 10× machine at 60% utilization.
//! let cfg = ClusterConfig::paper_default(&[1.0, 1.0, 10.0]).scaled(0.002);
//! let mut exp = Experiment::new("demo", cfg, PolicySpec::orr());
//! exp.replications = 3;
//! let result = exp.run().unwrap();
//! // Response ratios are positive; they can be below 1 because a job on
//! // a 10× machine beats its own speed-1 "size".
//! assert!(result.mean_response_ratio.mean > 0.0);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`desim`] | deterministic discrete-event kernel + RNG streams |
//! | [`dist`] | Bounded Pareto, hyperexponential, … with analytic moments |
//! | [`metrics`] | Welford, time-weighted stats, mergeable quantile sketch, CIs |
//! | [`obs`] | run-level observability: window spec, time-series report, exporters, and the driver that fills it (`cluster::obs`) |
//! | [`queueing`] | M/M/1-PS analysis, Algorithm 1, numeric cross-check |
//! | [`dispatch`] | front-end dispatcher tier: arrival splitters + state-sync plane |
//! | [`cluster`] | the simulated network of heterogeneous computers, incl. the fault-injection layer |
//! | [`policies`] | WRAN/ORAN/WRR/ORR, Dynamic Least-Load, JSQ(d), SITA-E, ReORR |
//! | [`error`] | the typed error shared across the workspace |
//! | [`json`] | the JSON codec every spec and archive goes through |
//! | [`experiment`] | replication + aggregation harness |
//! | [`sweep`] | sweep-level work pool: all points' replications through one set of scoped worker threads |
//! | [`scenarios`] | one preset per paper table/figure |
//! | [`report`] | fixed-width tables and JSON archiving |

#![warn(missing_docs)]

pub use hetsched_cluster as cluster;
pub use hetsched_cluster::obs;
pub use hetsched_desim as desim;
pub use hetsched_dispatch as dispatch;
pub use hetsched_dist as dist;
pub use hetsched_error as error;
pub use hetsched_json as json;
pub use hetsched_metrics as metrics;
pub use hetsched_policies as policies;
pub use hetsched_queueing as queueing;

pub mod experiment;
pub mod report;
pub mod scenarios;
pub mod sweep;

pub use experiment::{Experiment, ExperimentResult};
pub use sweep::{PointStats, Sweep, SweepOutcome, SweepStats};

/// The usual imports for examples and experiment binaries.
pub mod prelude {
    pub use crate::cluster::faults::{FaultSpec, JobFaultSemantics};
    pub use crate::cluster::{
        ArrivalSpec, ChannelSpec, ClusterConfig, Coordination, DisciplineSpec, DispatchSpec,
        HedgeSpec, MalleableClass, MalleableSpec, ParallelSimulation, PdesTiming, PlaneSpec,
        RetrySpec, RunStats, SpeedupCurve, SplitterSpec, SyncSpec,
    };
    pub use crate::dist::DistSpec;
    pub use crate::error::HetschedError;
    pub use crate::experiment::{Experiment, ExperimentResult};
    pub use crate::metrics::CiSummary;
    pub use crate::obs::{ObsReport, ObsSpec};
    pub use crate::policies::{AllocationSpec, DispatcherSpec, PolicySpec};
    pub use crate::queueing::{closed_form, objective, HetSystem};
    pub use crate::report::{Chart, Table};
    pub use crate::scenarios;
    pub use crate::sweep::{Sweep, SweepOutcome, SweepStats};
}
