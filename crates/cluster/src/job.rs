//! Job records and their slab allocator.
//!
//! A full paper-scale run generates 1–2 million jobs, but at utilization
//! 0.7 only a handful are in flight at any instant. [`JobSlab`] keeps
//! in-flight job records in a free-list slab: O(1) insert/remove, stable
//! [`JobId`]s with generation counters so a stale id (a model bug) is
//! detected instead of silently reading a recycled slot.

use hetsched_error::HetschedError;

/// Identifier of an in-flight job: slot index + generation.
///
/// `Ord` is derived so ids can break ties deterministically inside
/// ordered discipline queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId {
    index: u32,
    generation: u32,
}

impl JobId {
    /// Slot index (for diagnostics).
    pub fn index(&self) -> u32 {
        self.index
    }
}

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

enum Slot {
    Occupied {
        generation: u32,
        record: JobRecord,
    },
    Free {
        generation: u32,
        next_free: Option<u32>,
    },
}

/// Free-list slab of in-flight jobs.
#[derive(Default)]
pub struct JobSlab {
    slots: Vec<Slot>,
    free_head: Option<u32>,
    live: usize,
    total_inserted: u64,
}

/// Computes the next fresh slot index, or a typed error when the `u32`
/// index space is exhausted (more than `u32::MAX + 1` jobs in flight at
/// once). Split out of `try_insert` so the exhaustion path is testable
/// without allocating four billion slots.
fn fresh_index(slots_len: usize, live: usize, total_inserted: u64) -> Result<u32, HetschedError> {
    u32::try_from(slots_len).map_err(|_| {
        HetschedError::Capacity(format!(
            "job slab index space (u32) full: {live} jobs in flight, \
             {total_inserted} inserted in total — the cluster cannot hold \
             more than {} concurrent jobs",
            u32::MAX as u64 + 1
        ))
    })
}

impl JobSlab {
    /// An empty slab.
    pub fn new() -> Self {
        JobSlab::default()
    }

    /// An empty slab with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        JobSlab {
            slots: Vec::with_capacity(cap),
            ..JobSlab::default()
        }
    }

    /// Inserts a job, returning its id.
    ///
    /// # Panics
    /// Panics when the slab's `u32` index space is exhausted; use
    /// [`JobSlab::try_insert`] to get the typed error instead.
    pub fn insert(&mut self, record: JobRecord) -> JobId {
        self.try_insert(record).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Inserts a job, returning its id, or a typed
    /// [`HetschedError::Capacity`] when more than `u32::MAX + 1` jobs
    /// would be in flight at once.
    pub fn try_insert(&mut self, record: JobRecord) -> Result<JobId, HetschedError> {
        let id = match self.free_head {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                let Slot::Free {
                    generation,
                    next_free,
                } = *slot
                else {
                    unreachable!("free list points at an occupied slot");
                };
                self.free_head = next_free;
                let generation = generation.wrapping_add(1);
                *slot = Slot::Occupied { generation, record };
                JobId { index, generation }
            }
            None => {
                let index = fresh_index(self.slots.len(), self.live, self.total_inserted)?;
                self.slots.push(Slot::Occupied {
                    generation: 0,
                    record,
                });
                JobId {
                    index,
                    generation: 0,
                }
            }
        };
        self.live += 1;
        self.total_inserted += 1;
        Ok(id)
    }

    /// Reads a live job record.
    ///
    /// # Panics
    /// Panics on a stale or never-issued id — that is a simulator bug and
    /// must not be masked.
    pub fn get(&self, id: JobId) -> &JobRecord {
        match self.slots.get(id.index as usize) {
            Some(Slot::Occupied { generation, record }) if *generation == id.generation => record,
            _ => panic!("stale or invalid job id {id:?}"),
        }
    }

    /// Mutable access to a live job record.
    ///
    /// # Panics
    /// Panics on a stale or never-issued id — that is a simulator bug and
    /// must not be masked.
    pub fn get_mut(&mut self, id: JobId) -> &mut JobRecord {
        match self.slots.get_mut(id.index as usize) {
            Some(Slot::Occupied { generation, record }) if *generation == id.generation => record,
            _ => panic!("stale or invalid job id {id:?}"),
        }
    }

    /// Removes a live job, returning its record.
    ///
    /// # Panics
    /// Panics on a stale or never-issued id.
    pub fn remove(&mut self, id: JobId) -> JobRecord {
        let slot = self
            .slots
            .get_mut(id.index as usize)
            .unwrap_or_else(|| panic!("invalid job id {id:?}"));
        match *slot {
            Slot::Occupied { generation, record } if generation == id.generation => {
                *slot = Slot::Free {
                    generation,
                    next_free: self.free_head,
                };
                self.free_head = Some(id.index);
                self.live -= 1;
                record
            }
            _ => panic!("stale job id {id:?}"),
        }
    }

    /// The id of the live job in slot `index`. While a job stays live
    /// its slot index is a lossless key for it, so a holder that can
    /// only store a `usize` (the malleable tier) keys jobs by it.
    ///
    /// # Panics
    /// Panics when the slot is free or was never issued.
    pub(crate) fn live_id(&self, index: usize) -> JobId {
        match self.slots.get(index) {
            Some(Slot::Occupied { generation, .. }) => JobId {
                index: index as u32,
                generation: *generation,
            },
            _ => panic!("no live job in slot {index}"),
        }
    }

    /// Whether `id` currently names a live job (false for stale or
    /// never-issued ids — used by the channel runtime to detect orphaned
    /// dispatch attempts without panicking).
    pub fn is_live(&self, id: JobId) -> bool {
        matches!(
            self.slots.get(id.index as usize),
            Some(Slot::Occupied { generation, .. }) if *generation == id.generation
        )
    }

    /// Iterates over the live job records (order = slot order; used at
    /// finalize time to count still-in-flight jobs for the conservation
    /// law).
    pub fn iter(&self) -> impl Iterator<Item = &JobRecord> {
        self.slots.iter().filter_map(|slot| match slot {
            Slot::Occupied { record, .. } => Some(record),
            Slot::Free { .. } => None,
        })
    }

    /// Number of live jobs.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no jobs are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total jobs ever inserted.
    pub fn total_inserted(&self) -> u64 {
        self.total_inserted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(size: f64) -> JobRecord {
        JobRecord {
            size,
            arrival: 0.0,
            server: 0,
            counted: true,
            degraded: false,
            class: 0,
        }
    }

    #[test]
    fn insert_get_remove() {
        let mut slab = JobSlab::new();
        let a = slab.insert(rec(1.0));
        let b = slab.insert(rec(2.0));
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a).size, 1.0);
        assert_eq!(slab.get(b).size, 2.0);
        let removed = slab.remove(a);
        assert_eq!(removed.size, 1.0);
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn slots_are_recycled() {
        let mut slab = JobSlab::new();
        let a = slab.insert(rec(1.0));
        slab.remove(a);
        let b = slab.insert(rec(2.0));
        // Same slot, new generation.
        assert_eq!(a.index(), b.index());
        assert_ne!(a, b);
        assert_eq!(slab.slots.len(), 1);
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn stale_id_get_panics() {
        let mut slab = JobSlab::new();
        let a = slab.insert(rec(1.0));
        slab.remove(a);
        slab.insert(rec(2.0));
        slab.get(a);
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn double_remove_panics() {
        let mut slab = JobSlab::new();
        let a = slab.insert(rec(1.0));
        slab.remove(a);
        slab.insert(rec(2.0)); // reoccupies the slot
        slab.remove(a);
    }

    #[test]
    fn high_churn_keeps_capacity_bounded() {
        let mut slab = JobSlab::with_capacity(4);
        for i in 0..10_000 {
            let id = slab.insert(rec(i as f64));
            slab.remove(id);
        }
        assert_eq!(slab.slots.len(), 1, "churn should reuse one slot");
        assert_eq!(slab.total_inserted(), 10_000);
        assert!(slab.is_empty());
    }

    #[test]
    fn slab_exhaustion_is_a_typed_capacity_error() {
        // The real condition needs > 4e9 concurrent jobs; exercise the
        // extracted index computation instead.
        assert!(fresh_index(12, 12, 40).is_ok());
        assert_eq!(fresh_index(u32::MAX as usize, 5, 10).unwrap(), u32::MAX);
        let err = fresh_index(u32::MAX as usize + 1, 4_294_967_296, 9_999).unwrap_err();
        match &err {
            HetschedError::Capacity(msg) => {
                assert!(msg.contains("4294967296 jobs in flight"), "{msg}");
                assert!(msg.contains("9999 inserted"), "{msg}");
            }
            other => panic!("expected Capacity, got {other:?}"),
        }
        assert!(err.to_string().starts_with("capacity exhausted:"));
    }

    #[test]
    fn try_insert_matches_insert_bookkeeping() {
        let mut slab = JobSlab::new();
        let a = slab.try_insert(rec(1.0)).unwrap();
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.total_inserted(), 1);
        assert_eq!(slab.get(a).size, 1.0);
        slab.remove(a);
        let b = slab.try_insert(rec(2.0)).unwrap();
        assert_eq!(a.index(), b.index());
        assert_ne!(a, b);
    }

    #[test]
    fn is_live_and_iter_track_occupancy() {
        let mut slab = JobSlab::new();
        let a = slab.insert(rec(1.0));
        let b = slab.insert(rec(2.0));
        assert!(slab.is_live(a) && slab.is_live(b));
        slab.remove(a);
        assert!(!slab.is_live(a), "removed id is dead");
        let c = slab.insert(rec(3.0)); // recycles a's slot
        assert!(!slab.is_live(a), "stale generation stays dead");
        assert!(slab.is_live(c));
        let sizes: Vec<f64> = slab.iter().map(|r| r.size).collect();
        assert_eq!(sizes, vec![3.0, 2.0], "slot order, live records only");
    }

    #[test]
    fn interleaved_lifetimes() {
        let mut slab = JobSlab::new();
        let ids: Vec<JobId> = (0..100).map(|i| slab.insert(rec(i as f64))).collect();
        // Remove evens, verify odds intact.
        for (i, &id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                slab.remove(id);
            }
        }
        for (i, &id) in ids.iter().enumerate() {
            if i % 2 == 1 {
                assert_eq!(slab.get(id).size, i as f64);
            }
        }
        assert_eq!(slab.len(), 50);
        // Reinsert into freed slots.
        for i in 0..50 {
            slab.insert(rec(1000.0 + i as f64));
        }
        assert_eq!(slab.len(), 100);
        assert_eq!(slab.slots.len(), 100);
    }
}
