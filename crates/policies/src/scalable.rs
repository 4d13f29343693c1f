//! The scale-axis policy family: dispatchers for fleets far beyond the
//! paper's 5–10 machines.
//!
//! DYNAMIC itself ([`crate::dynamic::LeastLoadPolicy`]) already reads
//! its argmin from an [`ArgminTree`]. This module adds:
//!
//! * [`JsqFull`] — the clairvoyant full-information JSQ bound, reading
//!   the simulation's shared true-load index
//!   ([`DispatchCtx::true_load_index`]), with [`JsqScan`] as its
//!   fallback and its bit-identity reference;
//! * [`PowerOfD`] — classic power-of-d-choices over believed loads, with
//!   an optional heterogeneity-aware speed normalization (Gardner et
//!   al. style): O(d) per decision, no index at all.
//! * [`Jiq`] — join-idle-queue: an O(1) idle-stack pop per decision,
//!   falling back to power-of-2 sampling when no server is believed
//!   idle.
//!
//! The sampled policies draw from a *private* RNG substream seeded by a
//! single draw from the dispatch stream on first use, so their presence
//! in a run perturbs exactly one dispatch-stream draw and replications
//! stay bit-reproducible.

use hetsched_cluster::{ArgminTree, DispatchCtx, Policy, SyncState};
use hetsched_desim::Rng64;

use crate::dynamic::{check_speeds, fastest};

/// Full-information JSQ: joins the queue with the least true normalized
/// load `(queue_len + 1) / speed` over *all* believed-up servers — the
/// d = N limit of [`crate::extra::JsqPolicy`] without its sampling RNG,
/// and the zero-delay information bound in the scale sweep.
///
/// Clairvoyant: while every server is believed up it reads the leftmost
/// minimum of the simulation's true-load index, whose keys are exactly
/// the loads above. The index ignores membership, so while any server
/// is believed down (or without an index) it runs [`JsqScan`] instead.
/// Either way it picks the server [`JsqScan`] picks.
#[derive(Debug, Clone, Default)]
pub struct JsqFull {
    scan: JsqScan,
    /// Believed-down count, to make the all-up fast path O(1).
    down: usize,
}

impl JsqFull {
    /// Creates the policy.
    pub fn new() -> Self {
        JsqFull::default()
    }
}

impl Policy for JsqFull {
    fn choose(&mut self, ctx: &DispatchCtx<'_>, _rng: &mut Rng64) -> usize {
        if self.down == 0 {
            // Every server has a finite key, so the index names a winner.
            if let Some(best) = ctx.true_load_index.and_then(ArgminTree::argmin) {
                return best;
            }
        }
        self.scan.pick(ctx)
    }

    fn on_membership_change(&mut self, up: &[bool], now: f64) {
        self.scan.on_membership_change(up, now);
        self.down = up.iter().filter(|&&u| !u).count();
    }

    fn wants_true_load_index(&self) -> bool {
        true
    }

    fn name(&self) -> String {
        "JSQ-FULL".into()
    }
}

/// Full-information JSQ as a plain `O(N)` scan of the true loads over
/// believed-up servers: [`JsqFull`]'s fallback, and the reference the
/// differential tests and `fig_scale` compare it against. Neither
/// [`crate::PolicySpec`] nor the CLI builds it on its own.
#[derive(Debug, Clone, Default)]
pub struct JsqScan {
    /// Believed membership; empty means all up.
    up: Vec<bool>,
}

impl JsqScan {
    /// Creates the scan.
    pub fn new() -> Self {
        JsqScan::default()
    }

    fn pick(&self, ctx: &DispatchCtx<'_>) -> usize {
        let mut best: Option<usize> = None;
        let mut best_load = f64::INFINITY;
        for (i, (&q, &s)) in ctx.queue_lens.iter().zip(ctx.speeds).enumerate() {
            if !self.up.get(i).copied().unwrap_or(true) {
                continue;
            }
            let load = (q as f64 + 1.0) / s;
            if load < best_load {
                best_load = load;
                best = Some(i);
            }
        }
        // Stale all-down belief: the fastest machine takes the loss.
        best.unwrap_or_else(|| fastest(ctx.speeds))
    }
}

impl Policy for JsqScan {
    fn choose(&mut self, ctx: &DispatchCtx<'_>, _rng: &mut Rng64) -> usize {
        self.pick(ctx)
    }

    fn on_membership_change(&mut self, up: &[bool], _now: f64) {
        self.up = up.to_vec();
    }

    fn name(&self) -> String {
        "JSQ-FULL-SCAN".into()
    }
}

/// Power-of-d-choices over believed loads: sample `d` distinct
/// believed-up servers from a private RNG substream and dispatch to the
/// believed-least-loaded of them — O(d) per decision, no index, and
/// near-optimal balance for d ≥ 2 (the classic "power of two choices").
///
/// With `het_aware` the sampled loads are speed-normalized
/// (`(believed + 1) / speed`), which restores the speed preference
/// heterogeneous fleets need; without it the raw believed queue length
/// comparison of the homogeneous literature applies.
#[derive(Debug, Clone)]
pub struct PowerOfD {
    d: usize,
    het_aware: bool,
    speeds: Vec<f64>,
    believed: Vec<f64>,
    up: Vec<bool>,
    /// Private substream, seeded by one dispatch-stream draw on first
    /// use so runs stay bit-reproducible and policy presence perturbs
    /// exactly one shared draw.
    rng: Option<Rng64>,
}

impl PowerOfD {
    /// Creates the policy for the given machine speeds.
    ///
    /// # Panics
    /// Panics if `speeds` is empty or non-positive, or `d` is outside
    /// `1..=8` (the sampling scratch is a fixed 8-slot array).
    pub fn new(speeds: &[f64], d: usize, het_aware: bool) -> Self {
        check_speeds(speeds);
        assert!((1..=8).contains(&d), "power-of-d needs d in 1..=8");
        PowerOfD {
            d,
            het_aware,
            speeds: speeds.to_vec(),
            believed: vec![0.0; speeds.len()],
            up: vec![true; speeds.len()],
            rng: None,
        }
    }
}

impl Policy for PowerOfD {
    fn choose(&mut self, _ctx: &DispatchCtx<'_>, rng: &mut Rng64) -> usize {
        if self.rng.is_none() {
            self.rng = Some(Rng64::from_seed(rng.next_u64()));
        }
        let n = self.speeds.len();
        let live = self.up.iter().filter(|&&u| u).count();
        if live == 0 {
            // Stale all-down belief: fastest machine, no draws, no bump.
            return fastest(&self.speeds);
        }
        let want = self.d.min(live);
        let private = self.rng.as_mut().expect("seeded above");
        let mut chosen: [usize; 8] = [usize::MAX; 8];
        let mut picked = 0;
        let mut best = usize::MAX;
        let mut best_key = f64::INFINITY;
        // Rejection sampling without replacement; down servers are
        // rejected like duplicates, so `want ≤ live` guarantees progress.
        while picked < want {
            let c = private.below(n as u64) as usize;
            if !self.up[c] || chosen[..picked].contains(&c) {
                continue;
            }
            chosen[picked] = c;
            picked += 1;
            // Field-disjoint key computation (the method call would
            // conflict with the live `private` borrow).
            let key = if self.het_aware {
                (self.believed[c] + 1.0) / self.speeds[c]
            } else {
                self.believed[c] + 1.0
            };
            // First-sampled wins ties, like the scan policies' strict <.
            if key < best_key {
                best_key = key;
                best = c;
            }
        }
        self.believed[best] += 1.0;
        best
    }

    fn on_load_update(&mut self, server: usize, queue_len: usize, _now: f64) {
        self.believed[server] = queue_len as f64;
    }

    fn on_membership_change(&mut self, up: &[bool], _now: f64) {
        for (i, &u) in up.iter().enumerate() {
            if u && !self.up[i] {
                // A repaired machine rejoins with an empty run queue.
                self.believed[i] = 0.0;
            }
            self.up[i] = u;
        }
    }

    fn needs_load_updates(&self) -> bool {
        true
    }

    fn sync_state(&self) -> Option<SyncState> {
        Some(SyncState {
            credits: Vec::new(),
            loads: self.believed.clone(),
            ..SyncState::default()
        })
    }

    fn merge_sync(&mut self, consensus: &SyncState, _now: f64) {
        if consensus.loads.len() == self.believed.len() {
            self.believed.copy_from_slice(&consensus.loads);
        }
    }

    fn name(&self) -> String {
        if self.het_aware {
            format!("POD({})-HET", self.d)
        } else {
            format!("POD({})", self.d)
        }
    }
}

/// Join-Idle-Queue: a stack of servers believed idle, popped in O(1) per
/// dispatch. A server joins the stack when a (delayed) load update
/// reports its queue empty and leaves when a job is dispatched to it; if
/// no server is believed idle the policy degrades to heterogeneity-aware
/// power-of-2 sampling over believed loads.
///
/// The O(1)-per-decision answer to DYNAMIC's O(N): under moderate load
/// there is almost always an idle server on the stack, and under
/// saturation the power-of-2 fallback still avoids any full scan.
#[derive(Debug, Clone)]
pub struct Jiq {
    speeds: Vec<f64>,
    believed: Vec<f64>,
    up: Vec<bool>,
    /// Stack of servers believed idle (LIFO keeps recently-reported-idle
    /// servers hot).
    idle: Vec<usize>,
    on_stack: Vec<bool>,
    /// Private substream for the sampled fallback (see [`PowerOfD`]).
    rng: Option<Rng64>,
}

impl Jiq {
    /// Creates the policy, believing every server idle (so the first `n`
    /// dispatches drain the initial stack from the highest index down).
    ///
    /// # Panics
    /// Panics if `speeds` is empty or contains non-positive entries.
    pub fn new(speeds: &[f64]) -> Self {
        check_speeds(speeds);
        let n = speeds.len();
        Jiq {
            speeds: speeds.to_vec(),
            believed: vec![0.0; n],
            up: vec![true; n],
            idle: (0..n).collect(),
            on_stack: vec![true; n],
            rng: None,
        }
    }

    fn push_idle(&mut self, i: usize) {
        if !self.on_stack[i] && self.up[i] && self.believed[i] == 0.0 {
            self.on_stack[i] = true;
            self.idle.push(i);
        }
    }
}

impl Policy for Jiq {
    fn choose(&mut self, _ctx: &DispatchCtx<'_>, rng: &mut Rng64) -> usize {
        if self.rng.is_none() {
            self.rng = Some(Rng64::from_seed(rng.next_u64()));
        }
        // Pop until a genuinely idle, believed-up server surfaces;
        // entries invalidated by later load reports or crashes are
        // discarded lazily here.
        while let Some(i) = self.idle.pop() {
            self.on_stack[i] = false;
            if self.up[i] && self.believed[i] == 0.0 {
                self.believed[i] = 1.0;
                return i;
            }
        }
        // Empty stack: power-of-2 heterogeneity-aware fallback.
        let n = self.speeds.len();
        let live = self.up.iter().filter(|&&u| u).count();
        if live == 0 {
            return fastest(&self.speeds);
        }
        let want = 2.min(live);
        let private = self.rng.as_mut().expect("seeded above");
        let mut first = usize::MAX;
        let mut best = usize::MAX;
        let mut best_key = f64::INFINITY;
        let mut picked = 0;
        while picked < want {
            let c = private.below(n as u64) as usize;
            if !self.up[c] || c == first {
                continue;
            }
            if picked == 0 {
                first = c;
            }
            picked += 1;
            let key = (self.believed[c] + 1.0) / self.speeds[c];
            if key < best_key {
                best_key = key;
                best = c;
            }
        }
        self.believed[best] += 1.0;
        best
    }

    fn on_load_update(&mut self, server: usize, queue_len: usize, _now: f64) {
        self.believed[server] = queue_len as f64;
        if queue_len == 0 {
            self.push_idle(server);
        }
    }

    fn on_membership_change(&mut self, up: &[bool], _now: f64) {
        for (i, &u) in up.iter().enumerate() {
            if u && !self.up[i] {
                // A repaired machine rejoins idle.
                self.believed[i] = 0.0;
                self.up[i] = u;
                self.push_idle(i);
            } else {
                self.up[i] = u;
            }
        }
    }

    fn needs_load_updates(&self) -> bool {
        true
    }

    fn sync_state(&self) -> Option<SyncState> {
        Some(SyncState {
            credits: Vec::new(),
            loads: self.believed.clone(),
            ..SyncState::default()
        })
    }

    fn merge_sync(&mut self, consensus: &SyncState, _now: f64) {
        if consensus.loads.len() == self.believed.len() {
            self.believed.copy_from_slice(&consensus.loads);
            // Consensus may have zeroed queues this shard thought busy:
            // re-register them as idle in index order (deterministic).
            for i in 0..self.believed.len() {
                if self.believed[i] == 0.0 {
                    self.push_idle(i);
                }
            }
        }
    }

    fn name(&self) -> String {
        "JIQ".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_at<'a>(now: f64, speeds: &'a [f64], qlens: &'a [usize]) -> DispatchCtx<'a> {
        DispatchCtx {
            now,
            job_size: 1.0,
            queue_lens: qlens,
            speeds,
            true_load_index: None,
        }
    }

    /// JSQ-FULL and its scan see the same randomized queue lengths and
    /// membership flips, with the true-load index kept the way the
    /// simulation keeps it, and pick the same server every time.
    #[test]
    fn jsq_full_matches_its_scan_at_every_size() {
        for n in [4, 33, 10_000] {
            let speeds: Vec<f64> = (0..n).map(|i| [1.0, 4.0, 2.0, 1.0][i % 4]).collect();
            let mut full = JsqFull::new();
            let mut scan = JsqScan::new();
            assert!(full.wants_true_load_index());
            let mut rng = Rng64::from_seed(0);
            let mut driver = Rng64::from_seed(99 + n as u64);
            let mut qlens = vec![0usize; n];
            let keys: Vec<f64> = speeds.iter().map(|&s| 1.0 / s).collect();
            let mut tree = ArgminTree::from_keys(&keys);
            let mut up = vec![true; n];
            for step in 0..2_000 {
                if driver.below(3) == 0 {
                    let s = driver.below(n as u64) as usize;
                    qlens[s] = driver.below(7) as usize;
                    tree.update(s, (qlens[s] as f64 + 1.0) / speeds[s]);
                }
                if driver.below(11) == 0 {
                    let s = driver.below(n as u64) as usize;
                    up[s] = !up[s];
                    full.on_membership_change(&up, step as f64);
                    scan.on_membership_change(&up, step as f64);
                }
                let ctx = DispatchCtx {
                    now: step as f64,
                    job_size: 1.0,
                    queue_lens: &qlens,
                    speeds: &speeds,
                    true_load_index: Some(&tree),
                };
                assert_eq!(
                    full.choose(&ctx, &mut rng),
                    scan.choose(&ctx, &mut rng),
                    "n = {n}, step {step}"
                );
            }
        }
    }

    #[test]
    fn jsq_full_prefers_least_normalized_load() {
        let speeds = [1.0, 4.0];
        let qlens = [0, 2];
        let mut p = JsqFull::new();
        let mut rng = Rng64::from_seed(0);
        // (0+1)/1 = 1 vs (2+1)/4 = 0.75 → the loaded-but-fast machine.
        assert_eq!(p.choose(&ctx_at(0.0, &speeds, &qlens), &mut rng), 1);
        p.on_membership_change(&[true, false], 0.0);
        assert_eq!(p.choose(&ctx_at(0.0, &speeds, &qlens), &mut rng), 0);
        p.on_membership_change(&[false, false], 0.0);
        // All believed down: the fastest machine takes the loss.
        assert_eq!(p.choose(&ctx_at(0.0, &speeds, &qlens), &mut rng), 1);
    }

    #[test]
    fn pod_spreads_and_respects_membership() {
        let speeds = [1.0; 16];
        let qlens = [0usize; 16];
        let mut p = PowerOfD::new(&speeds, 2, false);
        let mut rng = Rng64::from_seed(5);
        let mut seen = [false; 16];
        for _ in 0..2000 {
            seen[p.choose(&ctx_at(0.0, &speeds, &qlens), &mut rng)] = true;
        }
        assert!(seen.iter().all(|&b| b), "all machines should be sampled");
        // Down a prefix: only the live suffix is ever chosen.
        let mut up = vec![true; 16];
        for u in up.iter_mut().take(12) {
            *u = false;
        }
        p.on_membership_change(&up, 1.0);
        for _ in 0..200 {
            assert!(p.choose(&ctx_at(1.0, &speeds, &qlens), &mut rng) >= 12);
        }
        up.iter_mut().for_each(|u| *u = false);
        p.on_membership_change(&up, 2.0);
        // All down: deterministic fastest fallback (`max_by` keeps the
        // last maximum on a tie, like the scan policies).
        assert_eq!(p.choose(&ctx_at(2.0, &speeds, &qlens), &mut rng), 15);
    }

    #[test]
    fn pod_het_prefers_fast_machines() {
        let speeds = [1.0, 1.0, 1.0, 20.0];
        let qlens = [0usize; 4];
        let mut het = PowerOfD::new(&speeds, 4, true);
        let raw = PowerOfD::new(&speeds, 4, false);
        let mut rng = Rng64::from_seed(9);
        // d = n: het-aware always sees the fast machine's smaller key
        // first draw-independently.
        let c = het.choose(&ctx_at(0.0, &speeds, &qlens), &mut rng);
        assert_eq!(c, 3);
        assert_eq!(het.name(), "POD(4)-HET");
        assert_eq!(raw.name(), "POD(4)");
        // Raw PoD ties everyone at key 1: the first *sampled* wins, so
        // over many decisions the slow majority absorbs most jobs.
        let mut fast = 0;
        for _ in 0..400 {
            let mut q = raw.clone();
            if q.choose(&ctx_at(0.0, &speeds, &qlens), &mut rng) == 3 {
                fast += 1;
            }
        }
        assert!(fast < 300, "raw PoD should not always pick the fast box");
    }

    #[test]
    fn pod_uses_exactly_one_shared_draw() {
        let speeds = [1.0, 2.0];
        let qlens = [0usize; 2];
        let mut p = PowerOfD::new(&speeds, 2, true);
        let mut shared = Rng64::from_seed(123);
        let mut witness = Rng64::from_seed(123);
        p.choose(&ctx_at(0.0, &speeds, &qlens), &mut shared);
        p.choose(&ctx_at(0.0, &speeds, &qlens), &mut shared);
        p.choose(&ctx_at(0.0, &speeds, &qlens), &mut shared);
        // Only the lazy substream seeding consumed shared randomness.
        witness.next_u64();
        assert_eq!(shared.next_u64(), witness.next_u64());
    }

    /// Servers `p` believes idle: the stack entries that would survive
    /// the lazy pop filter.
    fn idle_count(p: &Jiq) -> usize {
        p.idle
            .iter()
            .filter(|&&i| p.up[i] && p.believed[i] == 0.0)
            .count()
    }

    #[test]
    fn jiq_pops_idle_stack_then_falls_back() {
        let speeds = [1.0, 1.0, 4.0];
        let qlens = [0usize; 3];
        let mut p = Jiq::new(&speeds);
        let mut rng = Rng64::from_seed(1);
        assert_eq!(idle_count(&p), 3);
        // Initial stack drains LIFO: 2, 1, 0.
        assert_eq!(p.choose(&ctx_at(0.0, &speeds, &qlens), &mut rng), 2);
        assert_eq!(p.choose(&ctx_at(0.0, &speeds, &qlens), &mut rng), 1);
        assert_eq!(p.choose(&ctx_at(0.0, &speeds, &qlens), &mut rng), 0);
        assert_eq!(idle_count(&p), 0);
        // Stack empty: the power-of-2 fallback still dispatches.
        let c = p.choose(&ctx_at(1.0, &speeds, &qlens), &mut rng);
        assert!(c < 3);
        // An idle report re-arms the stack and wins over the fallback.
        p.on_load_update(1, 0, 2.0);
        assert_eq!(idle_count(&p), 1);
        assert_eq!(p.choose(&ctx_at(2.0, &speeds, &qlens), &mut rng), 1);
    }

    #[test]
    fn jiq_discards_invalidated_stack_entries() {
        let speeds = [1.0, 1.0];
        let qlens = [0usize; 2];
        let mut p = Jiq::new(&speeds);
        let mut rng = Rng64::from_seed(2);
        // Server 1 (top of stack) reports a deep queue: its entry is
        // stale and must be skipped in favor of server 0.
        p.on_load_update(1, 5, 0.0);
        assert_eq!(p.choose(&ctx_at(0.0, &speeds, &qlens), &mut rng), 0);
        // A crashed server's entry is skipped the same way.
        let mut q = Jiq::new(&speeds);
        q.on_membership_change(&[true, false], 0.0);
        assert_eq!(q.choose(&ctx_at(0.0, &speeds, &qlens), &mut rng), 0);
        // Repair re-registers the server as idle.
        q.on_membership_change(&[true, true], 1.0);
        assert_eq!(q.choose(&ctx_at(1.0, &speeds, &qlens), &mut rng), 1);
    }

    #[test]
    fn scalable_policies_publish_sync_state() {
        let speeds = [1.0, 2.0];
        for p in [
            Box::new(PowerOfD::new(&speeds, 2, true)) as Box<dyn Policy>,
            Box::new(Jiq::new(&speeds)),
        ] {
            assert!(p.needs_load_updates());
            let state = p.sync_state().expect("mergeable");
            assert_eq!(state.loads.len(), 2);
            assert!(state.credits.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "d in 1..=8")]
    fn pod_rejects_out_of_range_d() {
        PowerOfD::new(&[1.0], 9, false);
    }

    #[test]
    #[should_panic(expected = "no computers")]
    fn jiq_rejects_empty() {
        Jiq::new(&[]);
    }
}
