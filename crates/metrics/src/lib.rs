//! # hetsched-metrics — streaming statistics for simulation output
//!
//! The paper evaluates schedulers on three metrics (§2.3, §4.1):
//!
//! * **mean response time** — average job completion time;
//! * **mean response ratio** — average of (response time / job size),
//!   where job size is the completion time on an idle speed-1 machine;
//! * **fairness** — the *standard deviation* of the response ratio
//!   (smaller is better).
//!
//! plus the **workload allocation deviation** `Σ_i (α_i − α'_i)²` used to
//! compare dispatchers in Figure 2.
//!
//! Simulations generate millions of observations, so everything here is
//! single-pass and O(1) memory per statistic:
//!
//! * [`Welford`] — numerically stable running mean/variance (with merge,
//!   for combining replications);
//! * [`TimeWeighted`] — integral-based averages for utilization and queue
//!   length;
//! * [`Histogram`] — a log-bucket sketch indexed by the f64 bits, whose
//!   quantiles are within 2^-7 of the exact ones and which merges
//!   exactly (every p50/p95/p99 the simulator reports);
//! * [`P2Quantile`] — the Jain–Chlamtac P² streaming quantile estimator,
//!   which cannot merge (no simulator path uses it);
//! * [`DeviationTracker`] — Figure 2's per-interval allocation deviation
//!   (one interval's sum is [`allocation_deviation`]);
//! * [`CiSummary`] — aggregation across replications with Student-t
//!   confidence intervals.

#![warn(missing_docs)]

pub mod deviation;
pub mod histogram;
pub mod quantile;
pub mod summary;
pub mod tdist;
pub mod timeweighted;
pub mod welford;

pub use deviation::{allocation_deviation, DeviationTracker};
pub use histogram::Histogram;
pub use quantile::P2Quantile;
pub use summary::CiSummary;
pub use tdist::t_quantile_975;
pub use timeweighted::TimeWeighted;
pub use welford::Welford;
