//! The allocation tier's per-event pass as it stood before the flat
//! pass, frozen and built only for tests.
//!
//! Each pass builds one request row per job, re-ranks with the standard
//! library's stable sort, searches the power table for every job's row,
//! divides each capping round's shares twice, and finds the next
//! completion with a second division per job. Its bits are the contract
//! the shipped pass keeps: `malleable::tests` drives the two in lockstep
//! and asserts equal shares, rates, in-use totals, next completions and
//! reaped jobs.

use super::{static_shares, AllocJob, AllocatorKind, ClassInfo, MalleableSpec, TierJob};
use super::{MalleableRuntime, FINISH_RTOL};

/// The frozen heSRPT solver.
#[derive(Debug, Default)]
struct Hesrpt {
    powers: Vec<(u64, Vec<f64>)>,
    weight: Vec<f64>,
    capped: Vec<bool>,
}

impl Hesrpt {
    /// The row `k^{inv_p}` of `powers`, grown to cover `k = 0..=m`.
    fn row(powers: &mut Vec<(u64, Vec<f64>)>, inv_p: f64, m: usize) -> &[f64] {
        let key = inv_p.to_bits();
        let at = match powers.iter().position(|(bits, _)| *bits == key) {
            Some(at) => at,
            None => {
                powers.push((key, Vec::new()));
                powers.len() - 1
            }
        };
        let row = &mut powers[at].1;
        for k in row.len()..=m {
            row.push((k as f64).powf(inv_p));
        }
        row
    }

    fn solve(&mut self, jobs: &[AllocJob], rank: &mut [usize], cores: f64, share: &mut Vec<f64>) {
        let m = jobs.len();
        share.clear();
        share.resize(m, 0.0);
        if m == 0 || cores <= 0.0 {
            return;
        }
        rank.sort_by(|&a, &b| {
            jobs[a]
                .remaining
                .total_cmp(&jobs[b].remaining)
                .then(jobs[a].seq.cmp(&jobs[b].seq))
        });
        let Hesrpt {
            powers,
            weight,
            capped,
        } = self;
        weight.clear();
        weight.resize(m, 0.0);
        for (r, &i) in rank.iter().enumerate() {
            let inv_p = 1.0 / jobs[i].elasticity.clamp(1e-6, 1.0);
            let row = Self::row(powers, inv_p, m);
            weight[i] = row[m - r] - row[m - r - 1];
        }
        capped.clear();
        capped.resize(m, false);
        let mut free = cores;
        loop {
            let raw_sum: f64 = (0..m).filter(|&i| !capped[i]).map(|i| weight[i]).sum();
            if raw_sum <= 0.0 || free <= 0.0 {
                break;
            }
            let violator = rank
                .iter()
                .copied()
                .find(|&i| !capped[i] && free * weight[i] / raw_sum > jobs[i].cap);
            let Some(i) = violator else {
                for i in 0..m {
                    if !capped[i] {
                        share[i] = free * weight[i] / raw_sum;
                    }
                }
                break;
            };
            share[i] = jobs[i].cap;
            capped[i] = true;
            free -= jobs[i].cap;
        }
    }
}

/// The frozen tier runtime: the same state as [`MalleableRuntime`] plus
/// the request rows its pass rebuilt every time.
#[derive(Debug)]
pub(super) struct FrozenRuntime {
    kind: AllocatorKind,
    classes: Vec<ClassInfo>,
    jobs: Vec<TierJob>,
    rank: Vec<usize>,
    solver: Hesrpt,
    reqs: Vec<AllocJob>,
    shares: Vec<f64>,
    moved: Vec<usize>,
    seq: u64,
    last_t: f64,
    pub(super) reallocations: u64,
    pub(super) max_cores_in_use: f64,
}

impl FrozenRuntime {
    /// The frozen twin of `MalleableRuntime::new(kind, spec)`, sharing
    /// its class table.
    pub(super) fn new(kind: AllocatorKind, spec: &MalleableSpec) -> Self {
        FrozenRuntime {
            kind,
            classes: MalleableRuntime::new(kind, spec).classes,
            jobs: Vec::new(),
            rank: Vec::new(),
            solver: Hesrpt::default(),
            reqs: Vec::new(),
            shares: Vec::new(),
            moved: Vec::new(),
            seq: 0,
            last_t: 0.0,
            reallocations: 0,
            max_cores_in_use: 0.0,
        }
    }

    pub(super) fn jobs(&self) -> &[TierJob] {
        &self.jobs
    }

    fn cores_in_use(&self) -> f64 {
        self.jobs.iter().map(|j| j.share).sum()
    }

    pub(super) fn advance(&mut self, now: f64) {
        let dt = now - self.last_t;
        if dt > 0.0 {
            for job in &mut self.jobs {
                job.remaining = (job.remaining - job.rate * dt).max(0.0);
            }
        }
        self.last_t = now;
    }

    pub(super) fn admit(&mut self, id: usize, class: u16, size: f64) {
        let seq = self.seq;
        self.seq += 1;
        self.rank.push(self.jobs.len());
        self.jobs.push(TierJob {
            id,
            class,
            inherent: size,
            remaining: size,
            share: 0.0,
            rate: 0.0,
            seq,
        });
    }

    pub(super) fn reap(&mut self) -> Vec<TierJob> {
        let mut done = Vec::new();
        self.moved.clear();
        let mut kept = 0;
        for i in 0..self.jobs.len() {
            let j = self.jobs[i];
            let finished = j.remaining <= j.inherent * FINISH_RTOL
                || (j.rate > 0.0 && self.last_t + j.remaining / j.rate <= self.last_t);
            if finished {
                done.push(j);
                self.moved.push(usize::MAX);
            } else {
                self.jobs[kept] = j;
                self.moved.push(kept);
                kept += 1;
            }
        }
        if !done.is_empty() {
            self.jobs.truncate(kept);
            let moved = &self.moved;
            self.rank.retain_mut(|pos| {
                *pos = moved[*pos];
                *pos != usize::MAX
            });
        }
        done
    }

    pub(super) fn reallocate(&mut self, cores: f64, core_speed: f64) -> f64 {
        if self.jobs.is_empty() {
            return self.cores_in_use();
        }
        match self.kind {
            AllocatorKind::Hesrpt => {
                self.reqs.clear();
                self.reqs.extend(self.jobs.iter().map(|j| {
                    let info = &self.classes[usize::from(j.class)];
                    AllocJob {
                        remaining: j.remaining,
                        elasticity: info.curve.elasticity(),
                        cap: info.cap.min(cores),
                        seq: j.seq,
                    }
                }));
                self.solver
                    .solve(&self.reqs, &mut self.rank, cores, &mut self.shares);
            }
            AllocatorKind::StaticClass => {
                static_shares(&self.classes, &self.jobs, cores, &mut self.shares);
            }
        }
        for (job, &share) in self.jobs.iter_mut().zip(&self.shares) {
            job.share = share;
            job.rate = self.classes[usize::from(job.class)].curve.speedup(share) * core_speed;
        }
        self.reallocations += 1;
        let in_use: f64 = self.shares.iter().sum();
        if in_use > self.max_cores_in_use {
            self.max_cores_in_use = in_use;
        }
        in_use
    }

    pub(super) fn next_completion(&self) -> Option<f64> {
        self.jobs
            .iter()
            .filter(|j| j.rate > 0.0)
            .map(|j| self.last_t + j.remaining / j.rate)
            .min_by(f64::total_cmp)
    }
}
