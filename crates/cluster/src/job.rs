//! Job records and the slab that holds the in-flight ones.
//!
//! A full paper-scale run generates 1–2 million jobs, but at utilization
//! 0.7 only a handful are in flight at any instant. [`JobSlab`] keeps
//! in-flight job records in desim's generational [`Slab`]: O(1) insert
//! and take, and stable [`JobId`]s whose generation makes a stale id (a
//! model bug) look up nothing instead of a recycled slot's next job.

use hetsched_desim::slab::{Key, Slab};

/// Identifier of an in-flight job: its slab slot and generation.
///
/// Ids order by slot, then generation, so they break ties
/// deterministically inside ordered discipline queues.
pub type JobId = Key;

/// The in-flight jobs.
pub type JobSlab = Slab<JobRecord>;

/// What the simulator needs to remember about an in-flight job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRecord {
    /// Service demand in seconds on an idle speed-1 machine (the paper's
    /// "job size").
    pub size: f64,
    /// Arrival time at the central scheduler.
    pub arrival: f64,
    /// The computer the job was dispatched to.
    pub server: usize,
    /// Whether the job arrived after the warmup period and therefore
    /// counts toward statistics.
    pub counted: bool,
    /// Whether the job experienced churn: it arrived while at least one
    /// server was down, or was resubmitted/restarted after a crash.
    pub degraded: bool,
    /// Stamped malleable class id (see [`crate::malleable`]); `0` is the
    /// rigid background class, and the only value ever stamped when the
    /// malleable section is absent or all-rigid.
    pub class: u16,
}
