//! # hetsched-queueing — analytical models and the optimized allocation
//!
//! This crate is the mathematical core of the reproduction: §2 of the
//! paper. It models each computer as an M/M/1 queue with processor-sharing
//! service and solves the non-linear optimization problem of splitting an
//! arrival stream of rate `λ` across computers with speeds
//! `s_1 ≤ s_2 ≤ … ≤ s_n` (baseline service rate `μ`).
//!
//! The derivation chain, mirrored 1:1 in modules:
//!
//! * [`objective`] — the system-level mean response time (eq. 3, built
//!   from each computer's M/M/1-PS mean response time, eq. 1) and the
//!   objective function `F(α…) = Σ s_iμ / (s_iμ − α_iλ)` (Definition 1).
//! * [`closed_form`] — Theorem 1's interior optimum, Theorem 2's cutoff
//!   for very slow machines, and **Algorithm 1** (binary-search cutoff +
//!   closed-form fractions).
//! * [`numeric`] — an independent dual-bisection (water-filling) solver
//!   used to cross-validate the closed form in property tests.
//! * [`predict`] — analytic performance predictions for *any* allocation,
//!   used by the capacity-planning example and the analytic-validation
//!   integration test.
//!
//! ```
//! use hetsched_queueing::{HetSystem, closed_form, objective};
//!
//! // 2 fast (speed 10) + 2 slow (speed 1) machines at 50% utilization.
//! let sys = HetSystem::from_utilization(&[1.0, 1.0, 10.0, 10.0], 0.5).unwrap();
//! let optimized = closed_form::optimized_allocation(&sys);
//! let weighted = sys.weighted_allocation();
//! // The optimized scheme strictly beats proportional splitting:
//! let f_opt = objective::objective_f(&sys, &optimized).unwrap();
//! let f_w = objective::objective_f(&sys, &weighted).unwrap();
//! assert!(f_opt < f_w);
//! // ... by starving the slow machines:
//! assert!(optimized[0] < weighted[0]);
//! ```

#![warn(missing_docs)]

pub mod closed_form;
pub mod numeric;
pub mod objective;
pub mod predict;
pub mod system;

pub use predict::AllocationReport;
pub use system::HetSystem;
