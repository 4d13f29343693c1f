//! Malleable job classes and the heSRPT-style server-allocation tier.
//!
//! The paper's model is *rigid*: every job occupies exactly one server.
//! This module adds the malleable extension studied by Berg, Vesilo &
//! Harchol-Balter (heSRPT) and Berg & Moseley (multiple parallelizable
//! job classes): an arrival is stamped with a **job class** carrying a
//! concave speedup curve `s(k)`, and a cluster-wide **allocation tier**
//! lets one job hold `k` (possibly fractional) servers at once,
//! preemptively reallocating the whole fleet at every arrival,
//! completion, crash, and repair.
//!
//! Activation is structural, mirroring the fault/channel/dispatch
//! layers: a config without a [`MalleableSpec`] — or one whose classes
//! are all [`SpeedupCurve::Rigid`] — builds none of this machinery,
//! draws from no extra RNG stream, and schedules no events, so such
//! runs are bit-identical to the pre-malleable seed path
//! (`tests/malleable_differential.rs` enforces it).
//!
//! The allocation itself is the heSRPT closed form: with `M` jobs
//! ranked ascending by remaining work (rank `r = 1` is the smallest),
//! job `r` receives the share
//!
//! ```text
//! θ_r ∝ (M − r + 1)^{1/p} − (M − r)^{1/p}
//! ```
//!
//! which telescopes to the full capacity and, for `p < 1`, gives the
//! smallest job the largest share — the SRPT bias softened by the
//! concavity of the speedup curve. [`hesrpt_shares`] implements the
//! form with per-job elasticities and per-job core caps (a rigid job
//! caps at one core), redistributing capped-off cores by water-filling.

use hetsched_dist::SpeedupCurve;
use hetsched_error::HetschedError;

/// Relative tolerance under which a tier job counts as finished: the
/// wake event fires exactly at the predicted completion time, but the
/// `remaining -= rate · dt` arithmetic can leave an O(ulp) residue.
const FINISH_RTOL: f64 = 1e-9;

/// RNG stream of the class stamper ([`MalleableSpec::stamp`]), far
/// above every other stream family (classic 0–3, faults `4 + i`,
/// splitter `1 << 40`, PDES shards `1 << 41`, channels `1 << 42`). Only
/// constructed for an *active* section, so all-rigid runs draw nothing
/// from it.
pub(crate) const MALLEABLE_STREAM: u64 = 1 << 43;

/// One malleable job class: a speedup curve plus its share of the
/// malleable arrival stream.
#[derive(Debug, Clone, PartialEq)]
pub struct MalleableClass {
    /// Speedup curve `s(k)` for jobs of this class (default rigid).
    pub curve: SpeedupCurve,
    /// Relative arrival weight within the malleable fraction
    /// (default 1; weights are normalized across classes).
    pub weight: f64,
}

hetsched_json::json_struct!(MalleableClass {
    curve = SpeedupCurve::Rigid,
    weight = 1.0,
});

impl MalleableClass {
    /// A power-law class `s(k) = k^p` with unit weight.
    pub fn power_law(p: f64) -> Self {
        MalleableClass {
            curve: SpeedupCurve::PowerLaw { p },
            weight: 1.0,
        }
    }
}

/// The cluster's malleability section (`ClusterConfig::malleable`).
#[derive(Debug, Clone, PartialEq)]
pub struct MalleableSpec {
    /// Fraction of arrivals stamped malleable, in `[0, 1]`.
    pub fraction: f64,
    /// The malleable job classes; weights partition the malleable
    /// fraction of the arrival stream.
    pub classes: Vec<MalleableClass>,
}

hetsched_json::json_struct!(MalleableSpec { fraction, classes });

impl MalleableSpec {
    /// A single power-law class covering `fraction` of arrivals.
    pub fn power_law(fraction: f64, p: f64) -> Self {
        MalleableSpec {
            fraction,
            classes: vec![MalleableClass::power_law(p)],
        }
    }

    /// Checks the section eagerly at config-validation time.
    ///
    /// # Errors
    /// Returns [`HetschedError::InvalidConfig`] for a fraction outside
    /// `[0, 1]`, an empty class list with a positive fraction,
    /// non-positive weights, or invalid speedup-curve parameters.
    pub fn validate(&self) -> Result<(), HetschedError> {
        if !self.fraction.is_finite() || !(0.0..=1.0).contains(&self.fraction) {
            return Err(HetschedError::InvalidConfig(format!(
                "malleable fraction must lie in [0, 1], got {}",
                self.fraction
            )));
        }
        if self.fraction > 0.0 && self.classes.is_empty() {
            return Err(HetschedError::InvalidConfig(
                "malleable fraction is positive but no classes are defined".into(),
            ));
        }
        if self.classes.len() > usize::from(u16::MAX - 1) {
            return Err(HetschedError::InvalidConfig(format!(
                "at most {} malleable classes are supported, got {}",
                u16::MAX - 1,
                self.classes.len()
            )));
        }
        for (i, class) in self.classes.iter().enumerate() {
            if !(class.weight.is_finite() && class.weight > 0.0) {
                return Err(HetschedError::InvalidConfig(format!(
                    "malleable class {i} weight must be positive, got {}",
                    class.weight
                )));
            }
            class
                .curve
                .validate()
                .map_err(|e| e.context(format!("malleable class {i}")))?;
        }
        Ok(())
    }

    /// True when the section changes anything at all: a positive
    /// malleable fraction with at least one genuinely elastic class.
    /// All-rigid sections are structurally invisible — no class stream
    /// is constructed and no job is stamped, keeping such runs
    /// bit-identical to the seed path.
    pub fn active(&self) -> bool {
        self.fraction > 0.0 && self.classes.iter().any(|c| !c.curve.is_rigid())
    }

    /// Maps one uniform draw `u ∈ [0, 1)` to a class id: `0` is the
    /// rigid background stream (probability `1 − fraction`), class `c`
    /// covers a `fraction · w_c / Σw` slice.
    pub fn stamp(&self, u: f64) -> u16 {
        if u >= self.fraction || self.classes.is_empty() {
            return 0;
        }
        let total: f64 = self.classes.iter().map(|c| c.weight).sum();
        let mut x = u / self.fraction * total;
        for (i, class) in self.classes.iter().enumerate() {
            if x < class.weight {
                return (i + 1) as u16;
            }
            x -= class.weight;
        }
        self.classes.len() as u16
    }

    /// The speedup curve for a stamped class id (`0` = rigid).
    pub fn curve(&self, class: u16) -> &SpeedupCurve {
        if class == 0 {
            &RIGID
        } else {
            &self.classes[usize::from(class) - 1].curve
        }
    }

    /// Long-run arrival probability of each class id `0..=K`, used by
    /// the static per-class allocator as its offline (Algorithm-1-like)
    /// share targets.
    pub fn arrival_shares(&self) -> Vec<f64> {
        let total: f64 = self.classes.iter().map(|c| c.weight).sum();
        let mut shares = Vec::with_capacity(self.classes.len() + 1);
        shares.push(1.0 - self.fraction);
        for class in &self.classes {
            shares.push(self.fraction * class.weight / total);
        }
        shares
    }
}

static RIGID: SpeedupCurve = SpeedupCurve::Rigid;

/// Which allocation rule the tier runs; advertised by a policy through
/// `Policy::malleable_allocator`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocatorKind {
    /// Size-ordered water-filling per the heSRPT closed form,
    /// re-evaluated at every tier event.
    Hesrpt,
    /// Static per-class shares proportional to each class's arrival
    /// probability (EQUI within a class) — the Algorithm-1-comparable
    /// baseline from Berg & Moseley.
    StaticClass,
}

/// One job's allocation request, the input row of [`hesrpt_shares`].
#[derive(Debug, Clone, Copy)]
pub struct AllocJob {
    /// Remaining inherent work.
    pub remaining: f64,
    /// Sublinearity exponent `p ∈ (0, 1]` of the job's speedup curve.
    pub elasticity: f64,
    /// Largest useful allocation (1 for a rigid job).
    pub cap: f64,
    /// Admission sequence number, the deterministic tie-break.
    pub seq: u64,
}

/// The heSRPT closed-form allocation with per-job caps.
///
/// Jobs are ranked ascending by `(remaining, seq)`; rank `r` (1-based)
/// receives a share proportional to
/// `(M − r + 1)^{1/p_r} − (M − r)^{1/p_r}`, normalized to `cores`.
/// Shares above a job's cap are clamped there and the freed cores are
/// water-filled over the uncapped jobs; cores nobody can use stay idle.
/// The returned vector is indexed like `jobs` and sums to at most
/// `cores` (exactly `cores` when no cap binds).
///
/// This is the from-scratch entry: it runs the solver the tier runtime
/// keeps, with fresh state.
pub fn hesrpt_shares(jobs: &[AllocJob], cores: f64) -> Vec<f64> {
    let mut solver = Hesrpt::default();
    let reqs: Vec<Req> = jobs
        .iter()
        .map(|j| Req {
            remaining: j.remaining,
            seq: j.seq,
            power: solver.row_of(j.elasticity),
            cap: j.cap,
        })
        .collect();
    let mut rank: Vec<usize> = (0..jobs.len()).collect();
    let mut share = Vec::new();
    solver.solve(&reqs, &mut rank, cores, &mut share);
    share
}

/// One job as the solver reads it.
#[derive(Debug, Clone, Copy)]
struct Req {
    /// The rank key: remaining inherent work, then the admission
    /// sequence number.
    remaining: f64,
    seq: u64,
    /// The job's row in the solver's power table.
    power: usize,
    /// The largest share the job can use.
    cap: f64,
}

/// The heSRPT solver's reusable state: one power row per exponent and
/// the per-pass buffers. A solver kept across passes calls `powf` only
/// to grow a row, and allocates only when the tier outgrows its buffers.
#[derive(Debug, Default)]
struct Hesrpt {
    /// `(bits of 1/p, [k^{1/p} for k = 0, 1, …])` per distinct exponent.
    /// `powf` is pure, so a weight read from a row has the bits of the
    /// `powf` calls it replaces.
    powers: Vec<(u64, Vec<f64>)>,
    /// Closed-form rank weight per job, indexed like the jobs.
    weight: Vec<f64>,
    /// Whether a job's share is clamped at its cap.
    capped: Vec<bool>,
}

impl Hesrpt {
    /// The index of the power row for elasticity `p`, keyed by the bits
    /// of `1/p`; a new exponent gets an empty row, grown by the passes.
    fn row_of(&mut self, elasticity: f64) -> usize {
        let key = (1.0 / elasticity.clamp(1e-6, 1.0)).to_bits();
        match self.powers.iter().position(|(bits, _)| *bits == key) {
            Some(at) => at,
            None => {
                self.powers.push((key, Vec::new()));
                self.powers.len() - 1
            }
        }
    }

    /// Writes the allocation of `jobs` into `share` (indexed like
    /// `jobs`). `rank` must hold a permutation of `0..jobs.len()`; it is
    /// re-sorted in place by `(remaining, seq)`. A rank kept from the
    /// last pass is almost sorted, which an insertion sort finishes in
    /// about `M` comparisons. The sort is stable, and `seq` is unique in
    /// a tier, so the result equals a from-scratch sort.
    fn solve(&mut self, jobs: &[Req], rank: &mut [usize], cores: f64, share: &mut Vec<f64>) {
        let m = jobs.len();
        share.clear();
        share.resize(m, 0.0);
        if m == 0 || cores <= 0.0 {
            return;
        }
        let before = |a: usize, b: usize| {
            jobs[a]
                .remaining
                .total_cmp(&jobs[b].remaining)
                .then(jobs[a].seq.cmp(&jobs[b].seq))
                .is_lt()
        };
        for k in 1..m {
            let job = rank[k];
            let mut at = k;
            while at > 0 && before(job, rank[at - 1]) {
                rank[at] = rank[at - 1];
                at -= 1;
            }
            rank[at] = job;
        }
        let Hesrpt {
            powers,
            weight,
            capped,
        } = self;
        for (bits, row) in powers.iter_mut() {
            let inv_p = f64::from_bits(*bits);
            for k in row.len()..=m {
                row.push((k as f64).powf(inv_p));
            }
        }
        weight.clear();
        weight.resize(m, 0.0);
        for (r, &i) in rank.iter().enumerate() {
            let row = &powers[jobs[i].power].1;
            weight[i] = row[m - r] - row[m - r - 1];
        }
        capped.clear();
        capped.resize(m, false);
        let mut free = cores;
        // Each round sums the uncapped weights in index order, afresh:
        // with mixed exponents the weights are not integers, so the
        // order is part of the result's bits. Nothing is capped yet in
        // the first round.
        let mut raw_sum: f64 = weight.iter().sum();
        loop {
            if raw_sum <= 0.0 || free <= 0.0 {
                // No weight or no cores left: the uncapped jobs idle.
                for (s, &c) in share.iter_mut().zip(capped.iter()) {
                    if !c {
                        *s = 0.0;
                    }
                }
                return;
            }
            // The round's shares, each computed once: the cap test and
            // the final write read the same quotient.
            let mut violated = false;
            for i in 0..m {
                if !capped[i] {
                    share[i] = free * weight[i] / raw_sum;
                    violated |= share[i] > jobs[i].cap;
                }
            }
            if !violated {
                return;
            }
            // Clamp the first violator (in rank order, so the fixed point
            // is deterministic) and redistribute; at most M rounds.
            let i = rank
                .iter()
                .copied()
                .find(|&i| !capped[i] && share[i] > jobs[i].cap)
                .expect("a share above its cap");
            share[i] = jobs[i].cap;
            capped[i] = true;
            free -= share[i];
            raw_sum = (0..m).filter(|&i| !capped[i]).map(|i| weight[i]).sum();
        }
    }
}

/// Equal split of `budget` cores over `members` jobs that all cap at
/// `cap` (EQUI with caps): members clamp at the cap one at a time, in
/// admission order, while the equal split exceeds it. Returns how many
/// leading members hold `cap` and the share of each of the rest (0 when
/// the budget runs out first).
fn equi_fill(members: usize, cap: f64, budget: f64) -> (usize, f64) {
    let mut free = budget;
    let mut clamped = 0;
    loop {
        let open = members - clamped;
        if open == 0 || free <= 0.0 {
            return (clamped, 0.0);
        }
        let each = free / open as f64;
        if each > cap {
            clamped += 1;
            free -= cap;
        } else {
            return (clamped, each);
        }
    }
}

/// One job held by the allocation tier.
#[derive(Debug, Clone, Copy)]
pub struct TierJob {
    /// The simulation's slab key for the job.
    pub id: usize,
    /// Stamped class id (0 = rigid background).
    pub class: u16,
    /// Inherent size at admission.
    pub inherent: f64,
    /// Remaining inherent work.
    pub remaining: f64,
    /// Current core allocation.
    pub share: f64,
    /// Current service rate `s(share) · c̄` (inherent work per second).
    pub rate: f64,
    /// Admission sequence number (deterministic heSRPT tie-break).
    pub seq: u64,
}

impl TierJob {
    /// Whether the job is done at clock `now`: its remaining work is
    /// inside the relative tolerance, or it [`stalls`].
    #[inline]
    fn finished(&self, now: f64) -> bool {
        self.remaining <= self.inherent * FINISH_RTOL
            || (self.rate > 0.0 && stalls(now, self.remaining, self.rate))
    }
}

/// `2^52`, the reciprocal of [`f64::EPSILON`].
const INV_EPSILON: f64 = 4_503_599_627_370_496.0;

/// `2^1000`: `remaining · 2^1000 > rate` keeps `remaining / rate` a
/// normal number, far above where a quotient underflows.
const NO_UNDERFLOW: f64 = f64::from_bits((1023 + 1000) << 52);

/// Whether the completion `now + remaining / rate` rounds onto `now`
/// (`rate > 0`): the job can no longer advance the f64 clock.
///
/// That needs `remaining / rate` below one ulp of `now`, so a
/// multiplication rules out almost every job before any division. The
/// pre-test scales `remaining`, which is exact, and claims progress only
/// when the quotient is a normal number (second factor) above
/// `now · 2^-52` (first factor). Then the quotient exceeds half an ulp of
/// `now`, with a factor of two to spare for the rounding of `rate · now`
/// and of the quotient, and the sum rounds up. It holds for `now = 0`, a
/// subnormal `remaining` or `now`, a quotient that underflows, and a
/// `rate · now` that overflows (the pre-test then defers to the
/// division).
#[inline]
fn stalls(now: f64, remaining: f64, rate: f64) -> bool {
    if remaining * INV_EPSILON > rate * now && remaining * NO_UNDERFLOW > rate {
        return false;
    }
    now + remaining / rate <= now
}

/// Per-class allocation parameters, precomputed from the spec.
#[derive(Debug, Clone)]
struct ClassInfo {
    curve: SpeedupCurve,
    cap: f64,
    /// Offline arrival share, the static allocator's class budget.
    arrival_share: f64,
    /// The class's row in the heSRPT solver's power table.
    power: usize,
}

/// The live allocation tier: jobs holding fractional server shares,
/// advanced and re-allocated at every tier event.
///
/// The tier homogenizes the fleet: with `N_up` servers up at aggregate
/// speed `Σ s_i`, a job holding `k` cores runs at `s(k) · Σs_i / N_up`.
/// All bookkeeping is deterministic — ties break on the admission
/// sequence number — so a sharded run reproduces bitwise on both
/// engines.
#[derive(Debug)]
pub struct MalleableRuntime {
    kind: AllocatorKind,
    classes: Vec<ClassInfo>,
    /// The tier's jobs in admission order. The order carries bits: the
    /// capping loop and the in-use total sum in it, and `reap` returns
    /// completions in it.
    jobs: Vec<TierJob>,
    /// Positions into `jobs` in heSRPT rank order as of the last pass.
    /// `admit` appends and `reap` remaps, so the next pass re-sorts an
    /// almost-sorted rank.
    rank: Vec<usize>,
    /// The heSRPT solver, its power rows kept across passes.
    solver: Hesrpt,
    /// The solver's input rows, indexed like `jobs` (reused buffer).
    reqs: Vec<Req>,
    /// The pass's shares, indexed like `jobs` (reused buffer).
    shares: Vec<f64>,
    /// `reap`'s old → new position map (reused buffer).
    moved: Vec<usize>,
    seq: u64,
    last_t: f64,
    /// Reallocation passes performed (post-warmup windows are not
    /// distinguished; this is a lifetime counter).
    pub reallocations: u64,
    /// High-water mark of this runtime's allocated cores, the
    /// conservation-law witness (`≤` its slice's cores at all times).
    pub max_cores_in_use: f64,
}

impl MalleableRuntime {
    /// Builds the tier for a spec and an allocation rule.
    pub fn new(kind: AllocatorKind, spec: &MalleableSpec) -> Self {
        let shares = spec.arrival_shares();
        let mut solver = Hesrpt::default();
        let mut classes = Vec::with_capacity(spec.classes.len() + 1);
        classes.push(ClassInfo {
            curve: SpeedupCurve::Rigid,
            cap: 1.0,
            arrival_share: shares[0],
            power: solver.row_of(1.0),
        });
        for (i, class) in spec.classes.iter().enumerate() {
            classes.push(ClassInfo {
                curve: class.curve.clone(),
                cap: class.curve.max_useful_cores(),
                arrival_share: shares[i + 1],
                power: solver.row_of(class.curve.elasticity()),
            });
        }
        MalleableRuntime {
            kind,
            classes,
            jobs: Vec::new(),
            rank: Vec::new(),
            solver,
            reqs: Vec::new(),
            shares: Vec::new(),
            moved: Vec::new(),
            seq: 0,
            last_t: 0.0,
            reallocations: 0,
            max_cores_in_use: 0.0,
        }
    }

    /// Jobs currently held by the tier.
    pub fn jobs(&self) -> &[TierJob] {
        &self.jobs
    }

    /// Cores currently allocated across all tier jobs.
    pub fn cores_in_use(&self) -> f64 {
        self.jobs.iter().map(|j| j.share).sum()
    }

    /// Progresses every job to `now` at its current rate.
    pub fn advance(&mut self, now: f64) {
        let dt = now - self.last_t;
        if dt > 0.0 {
            for job in &mut self.jobs {
                job.remaining = (job.remaining - job.rate * dt).max(0.0);
            }
        }
        self.last_t = now;
    }

    /// Admits one job (advance to `now` first).
    pub fn admit(&mut self, id: usize, class: u16, size: f64) {
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

    /// Removes and returns every finished job, in admission order
    /// (advance to `now` first); [`reap_into`](Self::reap_into) without
    /// a buffer.
    pub fn reap(&mut self) -> Vec<TierJob> {
        let mut done = Vec::new();
        self.reap_into(&mut done);
        done
    }

    /// Removes every finished job and appends it to `done`, in admission
    /// order (advance to `now` first).
    ///
    /// A job is finished when its remaining work is inside the relative
    /// tolerance — or when its completion can no longer advance the f64
    /// clock (`last_t + remaining/rate` rounds to `last_t`). The second
    /// clause closes a Zeno loop: an arrival landing within one
    /// representable tick of a predicted completion would otherwise
    /// leave a residue above the tolerance whose wake re-fires at the
    /// same timestamp forever, with `dt = 0` draining nothing.
    pub fn reap_into(&mut self, done: &mut Vec<TierJob>) {
        let now = self.last_t;
        // Most reaps run at an arrival and find nothing.
        let Some(first) = self.jobs.iter().position(|j| j.finished(now)) else {
            return;
        };
        self.moved.clear();
        self.moved.extend(0..first);
        let mut kept = first;
        for i in first..self.jobs.len() {
            let j = self.jobs[i];
            if j.finished(now) {
                done.push(j);
                self.moved.push(usize::MAX);
            } else {
                self.jobs[kept] = j;
                self.moved.push(kept);
                kept += 1;
            }
        }
        self.jobs.truncate(kept);
        let moved = &self.moved;
        self.rank.retain_mut(|pos| {
            *pos = moved[*pos];
            *pos != usize::MAX
        });
    }

    /// Recomputes every job's share and rate for the current capacity:
    /// `cores` whole-server units at mean per-core speed `core_speed`.
    /// Returns the cores now in use, summed in admission order, and the
    /// next completion at the new rates (what
    /// [`next_completion`](Self::next_completion) answers).
    pub fn reallocate(&mut self, cores: f64, core_speed: f64) -> (f64, Option<f64>) {
        if self.jobs.is_empty() {
            return (self.cores_in_use(), None);
        }
        match self.kind {
            AllocatorKind::Hesrpt => {
                self.reqs.clear();
                self.reqs.extend(self.jobs.iter().map(|j| {
                    let info = &self.classes[usize::from(j.class)];
                    Req {
                        remaining: j.remaining,
                        seq: j.seq,
                        power: info.power,
                        cap: info.cap.min(cores),
                    }
                }));
                self.solver
                    .solve(&self.reqs, &mut self.rank, cores, &mut self.shares);
            }
            AllocatorKind::StaticClass => {
                static_shares(&self.classes, &self.jobs, cores, &mut self.shares);
            }
        }
        // One pass sets the rates, sums the shares in admission order
        // and finds the next completion. No share is -0.0 and there is
        // at least one, so the sum starting at 0.0 has the bits of
        // `Iterator::sum`.
        let now = self.last_t;
        let mut in_use = 0.0;
        let mut next: Option<f64> = None;
        for (job, &share) in self.jobs.iter_mut().zip(&self.shares) {
            job.share = share;
            job.rate = self.classes[usize::from(job.class)].curve.speedup(share) * core_speed;
            in_use += share;
            if job.rate > 0.0 {
                let t = now + job.remaining / job.rate;
                if next.is_none_or(|n| t.total_cmp(&n).is_lt()) {
                    next = Some(t);
                }
            }
        }
        debug_assert_eq!(
            in_use.to_bits(),
            self.shares.iter().sum::<f64>().to_bits(),
            "in-use total"
        );
        debug_assert_eq!(
            next.map(f64::to_bits),
            self.next_completion().map(f64::to_bits),
            "handed-back next completion"
        );
        self.reallocations += 1;
        if in_use > self.max_cores_in_use {
            self.max_cores_in_use = in_use;
        }
        (in_use, next)
    }

    /// The absolute time of the next tier completion at current rates,
    /// or `None` when no job is progressing (e.g. total outage).
    pub fn next_completion(&self) -> Option<f64> {
        self.jobs
            .iter()
            .filter(|j| j.rate > 0.0)
            .map(|j| self.last_t + j.remaining / j.rate)
            .min_by(f64::total_cmp)
    }
}

/// Static per-class allocation into `shares` (indexed like `jobs`): each
/// class with live jobs gets a budget proportional to its offline
/// arrival share, split EQUI (with caps) among its jobs. Renormalizes
/// over present classes so an absent class's cores are not wasted.
fn static_shares(classes: &[ClassInfo], jobs: &[TierJob], cores: f64, shares: &mut Vec<f64>) {
    shares.clear();
    shares.resize(jobs.len(), 0.0);
    let present: f64 = classes
        .iter()
        .enumerate()
        .filter(|&(c, _)| jobs.iter().any(|j| usize::from(j.class) == c))
        .map(|(_, info)| info.arrival_share)
        .sum();
    if present <= 0.0 {
        return;
    }
    for (c, info) in classes.iter().enumerate() {
        let members = jobs.iter().filter(|j| usize::from(j.class) == c).count();
        if members == 0 {
            continue;
        }
        let budget = cores * info.arrival_share / present;
        let cap = info.cap.min(cores);
        let (clamped, each) = equi_fill(members, cap, budget);
        let slots = shares
            .iter_mut()
            .zip(jobs)
            .filter(|(_, j)| usize::from(j.class) == c);
        for (k, (share, _)) in slots.enumerate() {
            *share = if k < clamped { cap } else { each };
        }
    }
}

/// Per-class completion statistics, the breakdown table of the
/// human-readable report.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStats {
    /// Stamped class id (0 = rigid background).
    pub class: u16,
    /// Counted completions of the class.
    pub count: u64,
    /// Mean slowdown (`response / inherent size`).
    pub mean_slowdown: f64,
    /// Mean response time.
    pub mean_response: f64,
}

hetsched_json::json_struct!(ClassStats {
    class,
    count,
    mean_slowdown,
    mean_response,
});

/// Tier-level counters exported with the run results.
#[derive(Debug, Clone, PartialEq)]
pub struct MalleableStats {
    /// Counted completions that were stamped malleable (class > 0).
    pub malleable_jobs: u64,
    /// Allocation passes performed by the tier (0 when only stamping
    /// ran, i.e. under a non-allocating policy like ORR).
    pub reallocations: u64,
    /// Sum of the per-shard high-water marks of allocated cores. With
    /// one shard it is the fleet's peak; with `D > 1` the shards peak at
    /// different times, so the sum bounds the simultaneous peak from
    /// above, and `≤ fleet_cores` still witnesses conservation.
    pub max_cores_in_use: f64,
    /// Whole-server core capacity of the fleet (the conservation bound).
    pub fleet_cores: f64,
}

hetsched_json::json_struct!(MalleableStats {
    malleable_jobs,
    reallocations,
    max_cores_in_use,
    fleet_cores,
});

#[cfg(test)]
mod frozen;

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(fraction: f64, p: f64) -> MalleableSpec {
        MalleableSpec::power_law(fraction, p)
    }

    #[test]
    fn validate_accepts_good_and_rejects_bad() {
        spec(0.5, 0.5).validate().unwrap();
        spec(0.0, 0.5).validate().unwrap();
        MalleableSpec {
            fraction: 0.0,
            classes: vec![],
        }
        .validate()
        .unwrap();
        for bad in [
            spec(-0.1, 0.5),
            spec(1.5, 0.5),
            spec(f64::NAN, 0.5),
            spec(0.5, 0.0),
            spec(0.5, 1.5),
            MalleableSpec {
                fraction: 0.5,
                classes: vec![],
            },
            MalleableSpec {
                fraction: 0.5,
                classes: vec![MalleableClass {
                    curve: SpeedupCurve::Rigid,
                    weight: 0.0,
                }],
            },
        ] {
            let err = bad.validate().expect_err(&format!("{bad:?}"));
            assert!(
                matches!(err.root_cause(), HetschedError::InvalidConfig(_)),
                "{bad:?} -> {err}"
            );
        }
    }

    #[test]
    fn activation_requires_an_elastic_class() {
        assert!(spec(1.0, 0.5).active());
        assert!(!spec(0.0, 0.5).active());
        let all_rigid = MalleableSpec {
            fraction: 1.0,
            classes: vec![MalleableClass {
                curve: SpeedupCurve::Rigid,
                weight: 1.0,
            }],
        };
        assert!(!all_rigid.active());
    }

    #[test]
    fn stamping_partitions_the_unit_interval() {
        let s = MalleableSpec {
            fraction: 0.5,
            classes: vec![
                MalleableClass {
                    curve: SpeedupCurve::PowerLaw { p: 0.5 },
                    weight: 3.0,
                },
                MalleableClass {
                    curve: SpeedupCurve::PowerLaw { p: 0.8 },
                    weight: 1.0,
                },
            ],
        };
        // [0, 0.375) -> class 1, [0.375, 0.5) -> class 2, [0.5, 1) -> 0.
        assert_eq!(s.stamp(0.0), 1);
        assert_eq!(s.stamp(0.374), 1);
        assert_eq!(s.stamp(0.376), 2);
        assert_eq!(s.stamp(0.499), 2);
        assert_eq!(s.stamp(0.5), 0);
        assert_eq!(s.stamp(0.99), 0);
        let shares = s.arrival_shares();
        assert_eq!(shares, vec![0.5, 0.375, 0.125]);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    fn req(remaining: f64, p: f64, cap: f64, seq: u64) -> AllocJob {
        AllocJob {
            remaining,
            elasticity: p,
            cap,
            seq,
        }
    }

    #[test]
    fn hesrpt_matches_the_closed_form() {
        // M = 2, p = 0.5: ranks get (2² − 1²)/2² = 3/4 and 1/4 of the
        // cores; the smaller job takes the larger share.
        let jobs = [
            req(10.0, 0.5, f64::INFINITY, 0),
            req(2.0, 0.5, f64::INFINITY, 1),
        ];
        let s = hesrpt_shares(&jobs, 8.0);
        assert!((s[1] - 6.0).abs() < 1e-12, "{s:?}");
        assert!((s[0] - 2.0).abs() < 1e-12, "{s:?}");
        assert!((s.iter().sum::<f64>() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn hesrpt_shares_telescope_to_capacity() {
        let jobs: Vec<AllocJob> = (0..7)
            .map(|i| req(1.0 + i as f64, 0.7, f64::INFINITY, i as u64))
            .collect();
        let s = hesrpt_shares(&jobs, 12.0);
        assert!((s.iter().sum::<f64>() - 12.0).abs() < 1e-9, "{s:?}");
        // Ascending size ⇒ descending share.
        for w in s.windows(2) {
            assert!(w[0] >= w[1], "{s:?}");
        }
    }

    #[test]
    fn hesrpt_ties_break_on_sequence() {
        let jobs = [
            req(5.0, 0.5, f64::INFINITY, 7),
            req(5.0, 0.5, f64::INFINITY, 3),
        ];
        let s = hesrpt_shares(&jobs, 4.0);
        // seq 3 ranks first and takes the larger share.
        assert!(s[1] > s[0], "{s:?}");
    }

    #[test]
    fn hesrpt_respects_caps_and_conservation() {
        // A rigid job caps at one core; the freed cores go to the others.
        let jobs = [
            req(1.0, 1.0, 1.0, 0),
            req(5.0, 0.5, f64::INFINITY, 1),
            req(9.0, 0.5, f64::INFINITY, 2),
        ];
        let s = hesrpt_shares(&jobs, 10.0);
        assert!(s[0] <= 1.0 + 1e-12, "{s:?}");
        assert!((s.iter().sum::<f64>() - 10.0).abs() < 1e-9, "{s:?}");

        // All rigid: one core each, the rest idle.
        let rigid = [req(1.0, 1.0, 1.0, 0), req(2.0, 1.0, 1.0, 1)];
        let s = hesrpt_shares(&rigid, 10.0);
        assert_eq!(s, vec![1.0, 1.0]);
    }

    #[test]
    fn hesrpt_handles_degenerate_inputs() {
        assert!(hesrpt_shares(&[], 4.0).is_empty());
        let jobs = [req(1.0, 0.5, f64::INFINITY, 0)];
        assert_eq!(hesrpt_shares(&jobs, 0.0), vec![0.0]);
        assert_eq!(hesrpt_shares(&jobs, 6.0), vec![6.0]);
    }

    #[test]
    fn equi_fill_clamps_in_admission_order() {
        // Room for everyone: an equal split under the cap.
        assert_eq!(equi_fill(3, 3.0, 7.0), (0, 7.0 / 3.0));
        // The split exceeds the cap: members clamp one at a time, and
        // once every member holds the cap the leftover idles.
        assert_eq!(equi_fill(3, 2.0, 7.0), (3, 0.0));
        // No budget: nobody runs.
        assert_eq!(equi_fill(2, 1.0, 0.0), (0, 0.0));
    }

    fn runtime(kind: AllocatorKind) -> MalleableRuntime {
        MalleableRuntime::new(kind, &spec(0.5, 0.5))
    }

    #[test]
    fn runtime_advances_and_reaps_at_predicted_times() {
        let mut rt = runtime(AllocatorKind::Hesrpt);
        rt.admit(11, 1, 4.0);
        rt.reallocate(4.0, 1.0);
        // One power-law job on 4 cores: rate √4 = 2, finishes at t = 2.
        let t = rt.next_completion().unwrap();
        assert!((t - 2.0).abs() < 1e-12);
        rt.advance(t);
        let done = rt.reap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 11);
        assert!(rt.jobs().is_empty());
        assert_eq!(rt.reallocations, 1);
        assert!((rt.max_cores_in_use - 4.0).abs() < 1e-12);
    }

    #[test]
    fn runtime_preempts_for_a_smaller_job() {
        let mut rt = runtime(AllocatorKind::Hesrpt);
        rt.admit(0, 1, 8.0);
        rt.reallocate(4.0, 1.0);
        rt.advance(1.0);
        rt.admit(1, 1, 1.0);
        rt.reallocate(4.0, 1.0);
        let jobs = rt.jobs();
        // The small newcomer outranks the half-done large job.
        assert!(jobs[1].share > jobs[0].share);
        assert!((rt.cores_in_use() - 4.0).abs() < 1e-12);
        // Next completion is the small job's.
        let t = rt.next_completion().unwrap();
        rt.advance(t);
        let done = rt.reap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 1);
    }

    #[test]
    fn reap_closes_the_zeno_residue_loop() {
        // A residue above the relative tolerance whose completion time
        // rounds to the current clock: late in a run (t = 1e6, ulp
        // ~1.2e-10) a fast-running job is left with 2e-9 of work —
        // above `inherent * FINISH_RTOL` = 1e-9, but 2e-11 seconds
        // from done, which f64 time cannot represent. Without the
        // no-progress clause its wake would re-fire at t forever.
        let mut rt = runtime(AllocatorKind::StaticClass);
        rt.admit(0, 1, 1.0);
        rt.reallocate(8.0, 1.0);
        rt.advance(1.0e6);
        let job = &mut rt.jobs[0];
        job.remaining = 2.0e-9;
        job.rate = 100.0;
        assert_eq!(
            rt.next_completion(),
            Some(1.0e6),
            "the completion must round onto the current clock for this \
             scenario to exercise the guard"
        );
        let done = rt.reap();
        assert_eq!(done.len(), 1, "the un-advanceable residue must reap");
        // A genuinely unfinished job at the same clock still survives.
        rt.admit(1, 1, 1.0);
        rt.reallocate(8.0, 1.0);
        assert!(rt.reap().is_empty());
    }

    #[test]
    fn runtime_zero_capacity_stalls_without_wake() {
        let mut rt = runtime(AllocatorKind::Hesrpt);
        rt.admit(0, 1, 4.0);
        rt.reallocate(0.0, 0.0);
        assert_eq!(rt.next_completion(), None);
        rt.advance(100.0);
        assert!(rt.reap().is_empty(), "no progress at zero capacity");
    }

    #[test]
    fn static_allocator_splits_by_arrival_share() {
        let s = MalleableSpec {
            fraction: 0.5,
            classes: vec![
                MalleableClass {
                    curve: SpeedupCurve::PowerLaw { p: 0.5 },
                    weight: 1.0,
                },
                MalleableClass {
                    curve: SpeedupCurve::PowerLaw { p: 0.5 },
                    weight: 1.0,
                },
            ],
        };
        let mut rt = MalleableRuntime::new(AllocatorKind::StaticClass, &s);
        // Two class-1 jobs and one class-2 job; no rigid jobs present,
        // so the budgets renormalize to 1/2 of the cores per class.
        rt.admit(0, 1, 10.0);
        rt.admit(1, 1, 10.0);
        rt.admit(2, 2, 10.0);
        rt.reallocate(8.0, 1.0);
        let jobs = rt.jobs();
        assert!((jobs[0].share - 2.0).abs() < 1e-12, "{jobs:?}");
        assert!((jobs[1].share - 2.0).abs() < 1e-12, "{jobs:?}");
        assert!((jobs[2].share - 4.0).abs() < 1e-12, "{jobs:?}");
    }

    /// Rigid, two power laws, Amdahl, and an empirical curve whose cap
    /// of 2 binds: five distinct exponents, so the rank weights are not
    /// integers and their summation order shows in the bits.
    fn mixed_spec() -> MalleableSpec {
        let class = |curve| MalleableClass { curve, weight: 1.0 };
        MalleableSpec {
            fraction: 0.75,
            classes: vec![
                class(SpeedupCurve::Rigid),
                class(SpeedupCurve::PowerLaw { p: 0.5 }),
                class(SpeedupCurve::PowerLaw { p: 0.8 }),
                class(SpeedupCurve::Amdahl { serial: 0.3 }),
                class(SpeedupCurve::Empirical {
                    points: vec![(1.0, 1.0), (2.0, 1.6)],
                }),
            ],
        }
    }

    /// The static rule from scratch: per-class budgets over the present
    /// classes, each split EQUI with caps by clamping the first member
    /// whose equal split exceeds its cap and redistributing.
    fn static_reference(rt: &MalleableRuntime, cores: f64) -> Vec<f64> {
        let jobs = rt.jobs();
        let mut shares = vec![0.0; jobs.len()];
        let present: f64 = rt
            .classes
            .iter()
            .enumerate()
            .filter(|(c, _)| jobs.iter().any(|j| usize::from(j.class) == *c))
            .map(|(_, info)| info.arrival_share)
            .sum();
        if present <= 0.0 {
            return shares;
        }
        for (c, info) in rt.classes.iter().enumerate() {
            let members: Vec<usize> = (0..jobs.len())
                .filter(|&i| usize::from(jobs[i].class) == c)
                .collect();
            let cap = info.cap.min(cores);
            let mut capped = vec![false; members.len()];
            let mut free = cores * info.arrival_share / present;
            loop {
                let open = capped.iter().filter(|&&c| !c).count();
                if open == 0 || free <= 0.0 {
                    break;
                }
                let each = free / open as f64;
                match (0..members.len()).find(|&k| !capped[k] && each > cap) {
                    Some(k) => {
                        shares[members[k]] = cap;
                        capped[k] = true;
                        free -= cap;
                    }
                    None => {
                        for k in (0..members.len()).filter(|&k| !capped[k]) {
                            shares[members[k]] = each;
                        }
                        break;
                    }
                }
            }
        }
        shares
    }

    /// What a from-scratch solve gives for the tier's current jobs.
    fn fresh_shares(rt: &MalleableRuntime, cores: f64) -> Vec<f64> {
        match rt.kind {
            AllocatorKind::Hesrpt => {
                let rows: Vec<AllocJob> = rt
                    .jobs()
                    .iter()
                    .map(|j| {
                        let info = &rt.classes[usize::from(j.class)];
                        req(
                            j.remaining,
                            info.curve.elasticity(),
                            info.cap.min(cores),
                            j.seq,
                        )
                    })
                    .collect();
                hesrpt_shares(&rows, cores)
            }
            AllocatorKind::StaticClass => static_reference(rt, cores),
        }
    }

    #[test]
    fn runtime_matches_a_from_scratch_solve_bit_for_bit() {
        // The runtime keeps its power rows, its rank and its buffers
        // across passes; every pass must still give the bits a fresh
        // solve gives on freshly built rows.
        use hetsched_desim::Rng64;
        let spec = mixed_spec();
        let classes = spec.classes.len() as u64 + 1;
        for kind in [AllocatorKind::Hesrpt, AllocatorKind::StaticClass] {
            for seed in 1..=4u64 {
                let mut rng = Rng64::from_seed(seed);
                let mut rt = MalleableRuntime::new(kind, &spec);
                let mut next_id = 0;
                let mut passes = 0;
                for step in 0..20_000 {
                    let at = || format!("{kind:?}, seed {seed}, step {step}");
                    match rng.below(4) {
                        0 if rt.jobs().len() < 40 => {
                            let class = rng.below(classes) as u16;
                            // Whole sizes half the time, so remaining
                            // work ties and the seq tie-break decides.
                            let size = if rng.chance(0.5) {
                                (1 + rng.below(6)) as f64
                            } else {
                                rng.uniform(0.1, 20.0)
                            };
                            rt.admit(next_id, class, size);
                            next_id += 1;
                        }
                        0 | 1 => {
                            let t = match rt.next_completion() {
                                Some(t) if rng.chance(0.5) => t,
                                Some(t) => rt.last_t + (t - rt.last_t) * rng.next_f64(),
                                None => rt.last_t + rng.uniform(0.0, 5.0),
                            };
                            rt.advance(t);
                        }
                        2 => {
                            let done = rt.reap();
                            assert!(
                                done.windows(2).all(|w| w[0].seq < w[1].seq),
                                "{}: reap left admission order",
                                at()
                            );
                        }
                        _ => {
                            let cores = rng.below(9) as f64;
                            let core_speed = rng.uniform(0.25, 4.0);
                            let (in_use, _) = rt.reallocate(cores, core_speed);
                            passes += 1;
                            let want = fresh_shares(&rt, cores);
                            assert_eq!(want.len(), rt.jobs().len());
                            for (i, (job, w)) in rt.jobs().iter().zip(&want).enumerate() {
                                let rate = rt.classes[usize::from(job.class)].curve.speedup(*w)
                                    * core_speed;
                                assert_eq!(
                                    job.share.to_bits(),
                                    w.to_bits(),
                                    "{}: job {i} share {} vs fresh {w}",
                                    at(),
                                    job.share
                                );
                                assert_eq!(
                                    job.rate.to_bits(),
                                    rate.to_bits(),
                                    "{}: job {i} rate",
                                    at()
                                );
                            }
                            let total: f64 = want.iter().sum();
                            assert_eq!(in_use.to_bits(), total.to_bits(), "{}: in use", at());
                            let next = rt
                                .jobs()
                                .iter()
                                .filter(|j| j.rate > 0.0)
                                .map(|j| rt.last_t + j.remaining / j.rate)
                                .fold(None, |m: Option<f64>, t| Some(m.map_or(t, |m| m.min(t))));
                            assert_eq!(
                                rt.next_completion().map(f64::to_bits),
                                next.map(f64::to_bits),
                                "{}: next completion",
                                at()
                            );
                        }
                    }
                }
                assert!(
                    passes > 4_000,
                    "{kind:?}, seed {seed}: only {passes} passes"
                );
            }
        }
    }

    /// A job's fields as bits, for exact comparison.
    fn job_bits(j: &TierJob) -> (usize, u16, [u64; 4], u64) {
        let bits = [j.inherent, j.remaining, j.share, j.rate].map(f64::to_bits);
        (j.id, j.class, bits, j.seq)
    }

    fn assert_same_jobs(got: &[TierJob], want: &[TierJob], at: &str) {
        assert_eq!(got.len(), want.len(), "{at}: job count");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(job_bits(g), job_bits(w), "{at}: job {i}");
        }
    }

    #[test]
    fn runtime_matches_the_frozen_pass_bit_for_bit() {
        // The flat pass against the pass it replaced, in lockstep, with
        // the clock starting near 0, 1e6 (ulp ~1.2e-10) and 1e15 (ulp
        // 0.125, where the no-progress clause reaps often).
        use frozen::FrozenRuntime;
        use hetsched_desim::Rng64;
        let specs = [
            ("mixed", mixed_spec()),
            ("power_law(0.5, 0.5)", spec(0.5, 0.5)),
        ];
        for (name, spec) in &specs {
            let classes = spec.classes.len() as u64 + 1;
            for kind in [AllocatorKind::Hesrpt, AllocatorKind::StaticClass] {
                for (seed, start) in [(1u64, 0.0), (2, 1.0e6), (3, 1.0e15)] {
                    let mut rng = Rng64::from_seed(seed);
                    let mut rt = MalleableRuntime::new(kind, spec);
                    let mut old = FrozenRuntime::new(kind, spec);
                    rt.advance(start);
                    old.advance(start);
                    let (mut next_id, mut reaped) = (0, 0);
                    for step in 0..20_000 {
                        let at = format!("{name}, {kind:?}, seed {seed}, step {step}");
                        match rng.below(4) {
                            0 if rt.jobs().len() < 40 => {
                                let class = rng.below(classes) as u16;
                                let size = if rng.chance(0.5) {
                                    (1 + rng.below(6)) as f64
                                } else {
                                    rng.uniform(0.1, 20.0)
                                };
                                rt.admit(next_id, class, size);
                                old.admit(next_id, class, size);
                                next_id += 1;
                            }
                            0 | 1 => {
                                let t = match old.next_completion() {
                                    Some(t) if rng.chance(0.5) => t,
                                    Some(t) => rt.last_t + (t - rt.last_t) * rng.next_f64(),
                                    None => rt.last_t + rng.uniform(0.0, 5.0),
                                };
                                rt.advance(t);
                                old.advance(t);
                            }
                            2 => {
                                let done = rt.reap();
                                assert_same_jobs(&done, &old.reap(), &format!("{at}: reaped"));
                                reaped += done.len();
                            }
                            _ => {
                                let cores = rng.below(9) as f64;
                                let core_speed = rng.uniform(0.25, 4.0);
                                let (in_use, next) = rt.reallocate(cores, core_speed);
                                let want = old.reallocate(cores, core_speed);
                                assert_eq!(in_use.to_bits(), want.to_bits(), "{at}: in use");
                                let want = old.next_completion().map(f64::to_bits);
                                assert_eq!(next.map(f64::to_bits), want, "{at}: handed back");
                                let kept = rt.next_completion().map(f64::to_bits);
                                assert_eq!(kept, want, "{at}: next completion");
                            }
                        }
                        assert_same_jobs(rt.jobs(), old.jobs(), &at);
                    }
                    let at = format!("{name}, {kind:?}, seed {seed}");
                    assert_eq!(rt.reallocations, old.reallocations, "{at}");
                    let peak = (
                        rt.max_cores_in_use.to_bits(),
                        old.max_cores_in_use.to_bits(),
                    );
                    assert_eq!(peak.0, peak.1, "{at}: peak");
                    assert!(reaped > 1_000, "{at}: only {reaped} jobs reaped");
                }
            }
        }
    }

    #[test]
    fn the_stall_pretest_agrees_with_the_division() {
        use hetsched_desim::check::cases;
        let division = |now: f64, remaining: f64, rate: f64| now + remaining / rate <= now;
        let check = |now: f64, remaining: f64, rate: f64| {
            assert_eq!(
                stalls(now, remaining, rate),
                division(now, remaining, rate),
                "now {now:e}, remaining {remaining:e}, rate {rate:e}"
            );
        };
        let sub = f64::from_bits(1);
        let min = f64::MIN_POSITIVE;
        // The clock at 0, subnormal and huge; a quotient that underflows
        // to 0 (remaining subnormal, rate large); `rate · now` that
        // underflows or overflows.
        let nows = [0.0, sub, min, 1e-300, 0.5, 1.0, 1e6, 1e15, 1e300, f64::MAX];
        let remainings = [
            0.0,
            sub,
            3.0 * sub,
            min / 2.0,
            min,
            1e-300,
            1e-20,
            2e-9,
            0.0625,
            1.0,
            1e20,
            1e300,
            f64::MAX,
        ];
        let rates = [
            sub,
            min,
            1e-300,
            1e-10,
            0.25,
            1.0,
            4.0,
            1e10,
            1e300,
            f64::MAX,
        ];
        for now in nows {
            for remaining in remainings {
                for rate in rates {
                    check(now, remaining, rate);
                }
            }
        }
        // Any finite non-negative bits, and remaining work scaled to
        // where the answer flips: `remaining ≈ rate · now · 2^-53`.
        let finite = |bits: u64| Some(f64::from_bits(bits >> 1)).filter(|x| x.is_finite());
        cases("stall_pretest_agrees_with_the_division", 20_000, |g| {
            let (Some(now), Some(remaining), Some(rate)) =
                (finite(g.any()), finite(g.any()), finite(g.any()))
            else {
                return;
            };
            if rate > 0.0 {
                check(now, remaining, rate);
                let edge = rate * now * f64::EPSILON / 2.0 * g.draw(0.25..4.0);
                check(now, edge, rate);
                check(now, f64::from_bits(edge.to_bits() + 1), rate);
                check(now, f64::from_bits(edge.to_bits().saturating_sub(1)), rate);
                check(0.0, rate * sub * g.draw(0.0..4.0), rate);
            }
        });
    }

    #[test]
    fn serde_round_trips_and_defaults() {
        let s = spec(0.5, 0.5);
        let json = hetsched_json::to_string(&s);
        let back: MalleableSpec = hetsched_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        // Omitted curve and weight default to rigid / 1.0.
        let class: MalleableClass = hetsched_json::from_str("{}").unwrap();
        assert_eq!(class.curve, SpeedupCurve::Rigid);
        assert_eq!(class.weight, 1.0);
    }
}
