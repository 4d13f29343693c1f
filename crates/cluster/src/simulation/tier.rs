//! The allocation-tier seam: one [`MalleableRuntime`] per dispatch
//! shard, reallocated at every admission, completion, crash and repair.

use std::ops::Range;

use hetsched_desim::{Scheduler, SimTime, Timer};

use super::{Ev, Model};
use crate::config::ClusterConfig;
use crate::job::JobId;
use crate::malleable::{AllocatorKind, MalleableRuntime, TierJob};
use crate::pdes::shard_ranges;
use crate::policy::Policy;
use crate::server::Server;

/// Runtime state of the malleable allocation tier: one
/// [`MalleableRuntime`] per dispatch shard, each confined to that
/// shard's contiguous server slice (the same partition the PDES engine
/// uses, so the classic and parallel paths build identical tiers). With
/// one dispatcher the single runtime spans the whole fleet.
///
/// Only constructed when an *active*
/// [`MalleableSpec`](crate::malleable::MalleableSpec) is paired with a
/// policy whose [`Policy::malleable_allocator`] is `Some` — otherwise
/// stamped jobs dispatch rigidly through [`Policy::choose`] as usual.
pub(super) struct Tier {
    /// One allocation runtime per dispatch shard.
    pub(super) runtimes: Vec<MalleableRuntime>,
    /// Each shard's contiguous server slice.
    ranges: Vec<Range<usize>>,
    /// Each shard's capacity: its up servers and their speed sum (see
    /// [`slice_capacity`]), recomputed at every crash and repair.
    capacity: Vec<(u32, f64)>,
    /// The jobs the last reap finished (reused buffer).
    done: Vec<TierJob>,
    /// Jobs stamped with a non-rigid class (lifetime counter, like the
    /// runtimes' reallocation counts).
    pub(super) malleable_jobs: u64,
}

impl Tier {
    /// The tier of `cfg` when its malleable section is active and the
    /// lead policy is an `allocator`. It partitions the fleet exactly
    /// like the PDES engine (contiguous balanced slices, one per
    /// dispatch shard), so a D = 1 tier spans the whole cluster and a
    /// sharded classic run allocates over the same slices a parallel run
    /// would.
    pub(super) fn new(
        cfg: &ClusterConfig,
        allocator: Option<AllocatorKind>,
        servers: &[Server],
    ) -> Option<Self> {
        let spec = cfg.malleable.as_ref().filter(|m| m.active())?;
        let kind = allocator?;
        let d = cfg.dispatch.dispatchers.max(1);
        let ranges = shard_ranges(servers.len(), d);
        Some(Tier {
            runtimes: (0..d).map(|_| MalleableRuntime::new(kind, spec)).collect(),
            capacity: ranges
                .iter()
                .map(|r| slice_capacity(servers, &cfg.speeds, r.clone()))
                .collect(),
            ranges,
            done: Vec::new(),
            malleable_jobs: 0,
        })
    }
}

/// The up servers of `range` and their speed sum, in index order.
fn slice_capacity(servers: &[Server], speeds: &[f64], range: Range<usize>) -> (u32, f64) {
    let mut cores = 0u32;
    let mut speed_sum = 0.0;
    for i in range {
        if servers[i].is_up() {
            cores += 1;
            speed_sum += speeds[i];
        }
    }
    (cores, speed_sum)
}

impl<P: Policy> Model<P> {
    /// Brings shard `shard`'s tier to `now`: progresses it, completes
    /// every finished job (in admission order — the runtime reaps
    /// deterministically), enrols the `arrival` `(job, class, size)`
    /// when there is one, and re-solves the allocation for the shard's
    /// current capacity (up servers in the slice at their mean speed).
    /// The shard's completion wake timer is re-armed in place, and the
    /// allocated fraction is mirrored onto the slice's servers so
    /// utilization integrals stay honest.
    pub(super) fn retier(
        &mut self,
        shard: usize,
        arrival: Option<(JobId, u16, f64)>,
        now: f64,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        let Some(tier) = &mut self.tier else {
            return;
        };
        let front = tier.ranges[shard].start;
        let rt = &mut tier.runtimes[shard];
        rt.advance(now);
        rt.reap_into(&mut tier.done);
        for job in tier.done.drain(..) {
            let rec = (self.slab.key_at(job.id))
                .and_then(|id| self.slab.take(id))
                .expect("a tier job left the slab");
            self.tally.complete(rec, front, now);
        }
        let rt = &mut tier.runtimes[shard];
        if let Some((id, class, size)) = arrival {
            // The slab slot is the tier's key: the job stays live in the
            // slab until the tier reaps it.
            rt.admit(id.slot() as usize, class, size);
        }
        let (cores, speed_sum) = tier.capacity[shard];
        // Zero capacity (whole slice down) stalls the tier: rates drop
        // to 0, no completion is pending, and the repair hook restarts
        // progress — the tier's analogue of parked Restart jobs.
        let core_speed = if cores > 0 {
            speed_sum / f64::from(cores)
        } else {
            0.0
        };
        let (in_use, next) = rt.reallocate(f64::from(cores), core_speed);
        let per_server = if cores > 0 {
            in_use / f64::from(cores)
        } else {
            0.0
        };
        // Shard `s`'s wake is timer `N + s` (see the timer layout).
        let timer = Timer::new(self.servers.len() + shard);
        match next {
            Some(t) => sched.arm(timer, SimTime::new(t.max(now)), Ev::TierWake { shard }),
            None => {
                sched.disarm(timer);
            }
        }
        for i in tier.ranges[shard].clone() {
            let share = if self.servers[i].is_up() {
                per_server
            } else {
                0.0
            };
            self.servers[i].set_tier_share(now, share);
        }
    }

    /// Capacity-change hook for the tier: a crash or repair of `server`
    /// resizes its shard's slice. Jobs progress at the old rates up to
    /// `now`, then the allocation re-solves against the new capacity —
    /// migration semantics, nothing is evicted or lost.
    pub(super) fn tier_capacity_changed(
        &mut self,
        server: usize,
        now: f64,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        let Some(tier) = &mut self.tier else {
            return;
        };
        let shard = tier.ranges.partition_point(|r| r.end <= server);
        tier.capacity[shard] =
            slice_capacity(&self.servers, &self.speeds, tier.ranges[shard].clone());
        self.retier(shard, None, now, sched);
    }
}
