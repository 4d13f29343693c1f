//! Dynamic Least-Load scheduling (§2.2, §4.2) — the paper's yardstick.
//!
//! The central scheduler tracks a *believed* run-queue length per
//! computer. A new job goes to the machine with the least normalized load
//! `(queue_len + 1) / speed`. The believed load is updated in two
//! situations:
//!
//! * **job arrival** — incremented immediately after dispatching (no
//!   rescheduling is allowed, so the scheduler knows the job went there);
//! * **job departure** — only via the delayed update messages modelled in
//!   `hetsched-cluster::network` (U(0,1) detection + Exp(0.05 s)
//!   transfer), which is why the policy must *not* peek at
//!   [`DispatchCtx::queue_lens`]: its whole point is operating on stale
//!   information, at the cost the paper calls "high system overhead".
//!
//! [`LeastLoadPolicy`] keeps every normalized believed load as a key of
//! an [`ArgminTree`], so a decision reads the index's root in `O(1)` and
//! an update costs `O(log N)` instead of recomputing `N` loads.
//! [`LeastLoadScan`] is the plain `O(N)` scan it replaced, kept as the
//! reference the differential tests compare it against.

use hetsched_cluster::{ArgminTree, DispatchCtx, Policy, SyncState};
use hetsched_desim::Rng64;

/// The fastest machine: where every believed-load policy sends a job
/// when it believes every machine down. The job most likely dies
/// anyway, so no believed load is bumped.
pub(crate) fn fastest(speeds: &[f64]) -> usize {
    speeds
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("non-empty")
}

/// Validates a speed vector the way every believed-load policy does.
pub(crate) fn check_speeds(speeds: &[f64]) {
    assert!(!speeds.is_empty(), "no computers");
    assert!(
        speeds.iter().all(|&s| s.is_finite() && s > 0.0),
        "speeds must be positive"
    );
}

/// Dynamic Least-Load with stale believed loads.
///
/// The keys of its [`ArgminTree`] are `(believed + 1) / speed` for
/// believed-up machines and infinite for believed-down ones, so the
/// index's leftmost minimum is exactly the machine a strict-`<` scan
/// over the loads picks, and every decision matches [`LeastLoadScan`].
#[derive(Debug, Clone)]
pub struct LeastLoadPolicy {
    speeds: Vec<f64>,
    believed: Vec<f64>,
    /// Believed membership from the fault layer; down machines are
    /// excluded from the argmin.
    up: Vec<bool>,
    index: ArgminTree,
}

impl LeastLoadPolicy {
    /// Creates the policy for the given machine speeds, believing every
    /// queue empty.
    ///
    /// # Panics
    /// Panics if `speeds` is empty or contains non-positive entries.
    pub fn new(speeds: &[f64]) -> Self {
        check_speeds(speeds);
        let keys: Vec<f64> = speeds.iter().map(|&s| 1.0 / s).collect();
        LeastLoadPolicy {
            speeds: speeds.to_vec(),
            believed: vec![0.0; speeds.len()],
            up: vec![true; speeds.len()],
            index: ArgminTree::from_keys(&keys),
        }
    }

    /// Current believed queue lengths, for the tests.
    #[cfg(test)]
    fn believed(&self) -> &[f64] {
        &self.believed
    }

    fn key(&self, i: usize) -> f64 {
        if self.up[i] {
            (self.believed[i] + 1.0) / self.speeds[i]
        } else {
            f64::INFINITY
        }
    }
}

impl Policy for LeastLoadPolicy {
    fn choose(&mut self, _ctx: &DispatchCtx<'_>, _rng: &mut Rng64) -> usize {
        let Some(best) = self.index.argmin() else {
            return fastest(&self.speeds);
        };
        // Arrival update: the scheduler knows it just sent a job there.
        self.believed[best] += 1.0;
        self.index.update(best, self.key(best));
        best
    }

    fn on_load_update(&mut self, server: usize, queue_len: usize, _now: f64) {
        // Departure update: overwrite with the (stale) reported length.
        self.believed[server] = queue_len as f64;
        self.index.update(server, self.key(server));
    }

    fn on_membership_change(&mut self, up: &[bool], _now: f64) {
        // Only transitions touch the index.
        for (i, &u) in up.iter().enumerate() {
            if u == self.up[i] {
                continue;
            }
            if u {
                // A repaired machine rejoins with an empty run queue; any
                // stale believed load predates the crash.
                self.believed[i] = 0.0;
            }
            self.up[i] = u;
            self.index.update(i, self.key(i));
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
        // Each shard's belief only counts its own dispatches on top of
        // the shared departure reports; the tier mean restores a
        // cluster-wide arrival view between sync rounds.
        if consensus.loads.len() == self.believed.len() {
            self.believed.copy_from_slice(&consensus.loads);
            // Every key changed: one O(N) reload.
            let keys: Vec<f64> = (0..self.believed.len()).map(|i| self.key(i)).collect();
            self.index.reload(&keys);
        }
    }

    fn name(&self) -> String {
        "DYNAMIC".into()
    }
}

/// Dynamic Least-Load as a plain `O(N)` scan over the normalized
/// believed loads: the reference [`LeastLoadPolicy`] must match
/// decision for decision. Neither [`crate::PolicySpec`] nor the CLI
/// builds it; the differential tests and `fig_scale` construct it
/// directly.
#[derive(Debug, Clone)]
pub struct LeastLoadScan {
    speeds: Vec<f64>,
    believed: Vec<f64>,
    up: Vec<bool>,
}

impl LeastLoadScan {
    /// Creates the scan for the given machine speeds, believing every
    /// queue empty.
    ///
    /// # Panics
    /// Panics if `speeds` is empty or contains non-positive entries.
    pub fn new(speeds: &[f64]) -> Self {
        check_speeds(speeds);
        LeastLoadScan {
            speeds: speeds.to_vec(),
            believed: vec![0.0; speeds.len()],
            up: vec![true; speeds.len()],
        }
    }
}

impl Policy for LeastLoadScan {
    fn choose(&mut self, _ctx: &DispatchCtx<'_>, _rng: &mut Rng64) -> usize {
        // The first minimum of (q + 1) / s over believed-up machines.
        let mut best: Option<usize> = None;
        let mut best_load = f64::INFINITY;
        for (i, (&q, &s)) in self.believed.iter().zip(&self.speeds).enumerate() {
            if !self.up[i] {
                continue;
            }
            let load = (q + 1.0) / s;
            if load < best_load {
                best_load = load;
                best = Some(i);
            }
        }
        let Some(best) = best else {
            return fastest(&self.speeds);
        };
        self.believed[best] += 1.0;
        best
    }

    fn on_load_update(&mut self, server: usize, queue_len: usize, _now: f64) {
        self.believed[server] = queue_len as f64;
    }

    fn on_membership_change(&mut self, up: &[bool], _now: f64) {
        for (i, &u) in up.iter().enumerate() {
            if u && !self.up[i] {
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
        "DYNAMIC-SCAN".into()
    }
}

/// Staleness-aware Dynamic Least-Load: graceful degradation toward the
/// static α prior when load indices go stale.
///
/// Naive Dynamic trusts a believed load forever — if update messages
/// stop (loss, partition), it keeps steering the whole stream by a
/// frozen snapshot. This variant tracks the age of each server's last
/// *departure report* and blends the believed load with a static prior
/// derived from the paper's optimized allocation:
///
/// ```text
/// age_i  = now − last_update_i
/// w_i    = min(1, W / age_i)          (W = confidence window)
/// eff_i  = w_i · believed_i + (1 − w_i) · prior_i
/// ```
///
/// and dispatches to `argmin (eff_i + 1) / s_i` over believed-up
/// servers. With fresh indices (`age ≤ W`) it behaves exactly like
/// [`LeastLoadPolicy`]; as an index ages past the window its influence
/// decays hyperbolically toward the prior `prior_i = ρ_i / (1 − ρ_i)`
/// (the M/M/1-PS mean queue length the optimized allocation predicts),
/// i.e. the policy degrades toward static ORR-style dispatch instead of
/// chasing ghosts. Decisions taken while the chosen server's index was
/// stale are counted in [`Policy::stale_decisions`].
#[derive(Debug, Clone)]
pub struct StaleAwareLeastLoad {
    speeds: Vec<f64>,
    believed: Vec<f64>,
    /// Time of the last departure report per server (self-dispatch
    /// increments `believed` but is *not* fresh knowledge of the queue).
    last_update: Vec<f64>,
    up: Vec<bool>,
    /// Static prior queue length per server (from the optimized α).
    prior: Vec<f64>,
    /// Confidence window `W` in seconds.
    window: f64,
    stale_decisions: u64,
}

impl StaleAwareLeastLoad {
    /// Creates the policy with per-server prior queue lengths and a
    /// confidence window of `window` seconds.
    ///
    /// # Panics
    /// Panics on empty/mismatched inputs, non-positive speeds or window,
    /// or negative priors.
    pub fn new(speeds: &[f64], prior: &[f64], window: f64) -> Self {
        check_speeds(speeds);
        assert_eq!(speeds.len(), prior.len(), "one prior per computer");
        assert!(
            prior.iter().all(|&p| p.is_finite() && p >= 0.0),
            "priors must be non-negative"
        );
        assert!(
            window.is_finite() && window > 0.0,
            "confidence window must be positive"
        );
        StaleAwareLeastLoad {
            speeds: speeds.to_vec(),
            believed: vec![0.0; speeds.len()],
            last_update: vec![0.0; speeds.len()],
            up: vec![true; speeds.len()],
            prior: prior.to_vec(),
            window,
            stale_decisions: 0,
        }
    }

    /// The staleness-weighted effective load of server `i` at `now`.
    fn effective(&self, i: usize, now: f64) -> f64 {
        let age = now - self.last_update[i];
        if age <= self.window {
            self.believed[i]
        } else {
            let w = self.window / age;
            w * self.believed[i] + (1.0 - w) * self.prior[i]
        }
    }

    /// Current believed queue lengths, for the tests.
    #[cfg(test)]
    fn believed(&self) -> &[f64] {
        &self.believed
    }
}

impl Policy for StaleAwareLeastLoad {
    fn choose(&mut self, ctx: &DispatchCtx<'_>, _rng: &mut Rng64) -> usize {
        let mut best: Option<usize> = None;
        let mut best_load = f64::INFINITY;
        for i in 0..self.speeds.len() {
            if !self.up[i] {
                continue;
            }
            let load = (self.effective(i, ctx.now) + 1.0) / self.speeds[i];
            if load < best_load {
                best_load = load;
                best = Some(i);
            }
        }
        let Some(best) = best else {
            return fastest(&self.speeds);
        };
        if ctx.now - self.last_update[best] > self.window {
            self.stale_decisions += 1;
        }
        self.believed[best] += 1.0;
        best
    }

    fn on_load_update(&mut self, server: usize, queue_len: usize, now: f64) {
        self.believed[server] = queue_len as f64;
        self.last_update[server] = now;
    }

    fn on_membership_change(&mut self, up: &[bool], now: f64) {
        for (i, &u) in up.iter().enumerate() {
            if u && !self.up[i] {
                // A repair is fresh knowledge: the queue is empty now.
                self.believed[i] = 0.0;
                self.last_update[i] = now;
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
        // Peer beliefs are no fresher than our own departure reports, so
        // the merge adopts the loads without touching the ages.
        if consensus.loads.len() == self.believed.len() {
            self.believed.copy_from_slice(&consensus.loads);
        }
    }

    fn stale_decisions(&self) -> u64 {
        self.stale_decisions
    }

    fn name(&self) -> String {
        "DYNAMIC-SA".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(speeds: &'a [f64], qlens: &'a [usize]) -> DispatchCtx<'a> {
        DispatchCtx {
            now: 0.0,
            job_size: 1.0,
            queue_lens: qlens,
            speeds,
            true_load_index: None,
        }
    }

    #[test]
    fn prefers_fast_empty_machine() {
        let speeds = [1.0, 10.0];
        let mut p = LeastLoadPolicy::new(&speeds);
        let qlens = [0, 0];
        let mut rng = Rng64::from_seed(0);
        // (0+1)/1 = 1 vs (0+1)/10 = 0.1 → the fast machine.
        assert_eq!(p.choose(&ctx(&speeds, &qlens), &mut rng), 1);
    }

    #[test]
    fn arrival_updates_shift_subsequent_choices() {
        let speeds = [1.0, 2.0];
        let mut p = LeastLoadPolicy::new(&speeds);
        let qlens = [0, 0];
        let mut rng = Rng64::from_seed(0);
        // 1st: (1)/1 vs (1)/2 → machine 1. Believed: [0, 1].
        assert_eq!(p.choose(&ctx(&speeds, &qlens), &mut rng), 1);
        // 2nd: (1)/1 vs (2)/2 → tie at 1.0; first minimum (machine 0).
        assert_eq!(p.choose(&ctx(&speeds, &qlens), &mut rng), 0);
        // 3rd: (2)/1 = 2 vs (2)/2 = 1 → machine 1.
        assert_eq!(p.choose(&ctx(&speeds, &qlens), &mut rng), 1);
        assert_eq!(p.believed(), &[1.0, 2.0]);
    }

    #[test]
    fn departure_update_overwrites_belief() {
        let speeds = [1.0, 1.0];
        let mut p = LeastLoadPolicy::new(&speeds);
        let qlens = [0, 0];
        let mut rng = Rng64::from_seed(0);
        for _ in 0..5 {
            p.choose(&ctx(&speeds, &qlens), &mut rng);
        }
        // Machine 0 reports it drained to 0 → next job goes there.
        p.on_load_update(0, 0, 10.0);
        assert_eq!(p.choose(&ctx(&speeds, &qlens), &mut rng), 0);
    }

    #[test]
    fn requests_load_updates() {
        let p = LeastLoadPolicy::new(&[1.0]);
        assert!(p.needs_load_updates());
        assert_eq!(p.name(), "DYNAMIC");
        let scan = LeastLoadScan::new(&[1.0]);
        assert!(scan.needs_load_updates());
        assert_eq!(scan.name(), "DYNAMIC-SCAN");
    }

    #[test]
    fn skews_toward_fast_machines_like_table1() {
        // Qualitative Table-1 check at the policy level: with believed
        // loads fed only by arrivals (worst case), dispatch counts still
        // order by speed.
        let speeds = [1.0, 1.5, 2.0, 3.0, 5.0, 9.0, 10.0];
        let mut p = LeastLoadPolicy::new(&speeds);
        let qlens = vec![0usize; speeds.len()];
        let mut rng = Rng64::from_seed(0);
        let mut counts = vec![0u64; speeds.len()];
        for _ in 0..10_000 {
            counts[p.choose(&ctx(&speeds, &qlens), &mut rng)] += 1;
        }
        for w in counts.windows(2) {
            assert!(w[0] <= w[1], "counts not ordered by speed: {counts:?}");
        }
    }

    #[test]
    fn down_machines_are_excluded_until_repair() {
        let speeds = [1.0, 10.0];
        let mut p = LeastLoadPolicy::new(&speeds);
        let qlens = [0, 0];
        let mut rng = Rng64::from_seed(0);
        p.on_membership_change(&[true, false], 0.0);
        // The fast machine is down: the slow one wins despite its load.
        for _ in 0..5 {
            assert_eq!(p.choose(&ctx(&speeds, &qlens), &mut rng), 0);
        }
        // Repair resets the believed load and restores speed preference.
        p.on_membership_change(&[true, true], 1.0);
        assert_eq!(p.choose(&ctx(&speeds, &qlens), &mut rng), 1);
        assert_eq!(p.believed()[1], 1.0);
    }

    #[test]
    fn all_down_belief_picks_fastest_without_bookkeeping() {
        let speeds = [1.0, 5.0, 2.0];
        let mut p = LeastLoadPolicy::new(&speeds);
        let qlens = [0, 0, 0];
        let mut rng = Rng64::from_seed(0);
        p.on_membership_change(&[false, false, false], 0.0);
        assert_eq!(p.choose(&ctx(&speeds, &qlens), &mut rng), 1);
        assert_eq!(p.believed(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn sync_merges_believed_loads() {
        let speeds = [1.0, 1.0];
        let mut a = LeastLoadPolicy::new(&speeds);
        let mut b = LeastLoadPolicy::new(&speeds);
        let qlens = [0, 0];
        let mut rng = Rng64::from_seed(0);
        // Shard a placed 4 jobs shard b never saw.
        for _ in 0..4 {
            a.choose(&ctx(&speeds, &qlens), &mut rng);
        }
        let sa = a.sync_state().expect("mergeable");
        let sb = b.sync_state().expect("mergeable");
        assert!(sa.credits.is_empty(), "nothing in the credit lane");
        assert_eq!(sa.loads, &[2.0, 2.0]);
        assert_eq!(sb.loads, &[0.0, 0.0]);
        let merged = SyncState {
            credits: Vec::new(),
            loads: sa
                .loads
                .iter()
                .zip(&sb.loads)
                .map(|(x, y)| (x + y) / 2.0)
                .collect(),
            ..SyncState::default()
        };
        b.merge_sync(&merged, 5.0);
        // Shard b now believes half of shard a's arrivals happened.
        assert_eq!(b.believed(), &[1.0, 1.0]);
    }

    #[test]
    fn merge_sync_reloads_the_index() {
        let speeds = [1.0, 1.0];
        let mut p = LeastLoadPolicy::new(&speeds);
        let mut rng = Rng64::from_seed(0);
        let qlens = [0usize; 2];
        p.merge_sync(
            &SyncState {
                credits: Vec::new(),
                loads: vec![9.0, 0.0],
                ..SyncState::default()
            },
            1.0,
        );
        assert_eq!(p.believed(), &[9.0, 0.0]);
        assert_eq!(p.choose(&ctx(&speeds, &qlens), &mut rng), 1);
    }

    /// Drives DYNAMIC and the scan reference through one randomized
    /// schedule of load updates, membership flips, sync merges and
    /// decisions, and asserts identical decisions.
    fn assert_matches_scan(speeds: &[f64], seed: u64) {
        let n = speeds.len();
        let mut keyed = LeastLoadPolicy::new(speeds);
        let mut scan = LeastLoadScan::new(speeds);
        let qlens = vec![0usize; n];
        let mut rng_a = Rng64::from_seed(seed);
        let mut rng_b = Rng64::from_seed(seed);
        let mut driver = Rng64::from_seed(seed ^ 0xD1CE);
        let mut up = vec![true; n];
        for step in 0..3_000 {
            let now = step as f64 * 0.7;
            match driver.below(20) {
                0 | 1 => {
                    let s = driver.below(n as u64) as usize;
                    let q = driver.below(6) as usize;
                    keyed.on_load_update(s, q, now);
                    scan.on_load_update(s, q, now);
                }
                2 | 3 => {
                    let s = driver.below(n as u64) as usize;
                    up[s] = !up[s];
                    keyed.on_membership_change(&up, now);
                    scan.on_membership_change(&up, now);
                }
                4 => {
                    let merged = SyncState {
                        credits: Vec::new(),
                        loads: (0..n).map(|_| driver.below(8) as f64 * 0.5).collect(),
                        ..SyncState::default()
                    };
                    keyed.merge_sync(&merged, now);
                    scan.merge_sync(&merged, now);
                }
                _ => {
                    let a = keyed.choose(&ctx_at(now, speeds, &qlens), &mut rng_a);
                    let b = scan.choose(&ctx_at(now, speeds, &qlens), &mut rng_b);
                    assert_eq!(a, b, "n = {n}, step {step}");
                }
            }
        }
        assert_eq!(keyed.believed(), &scan.believed[..]);
    }

    #[test]
    fn matches_the_scan_at_every_size() {
        for n in [1, 2, 7, 33, 10_000] {
            let speeds: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
            assert_matches_scan(&speeds, 41 + n as u64);
        }
    }

    #[test]
    #[should_panic(expected = "no computers")]
    fn rejects_empty() {
        LeastLoadPolicy::new(&[]);
    }

    fn ctx_at<'a>(now: f64, speeds: &'a [f64], qlens: &'a [usize]) -> DispatchCtx<'a> {
        DispatchCtx {
            now,
            job_size: 1.0,
            queue_lens: qlens,
            speeds,
            true_load_index: None,
        }
    }

    #[test]
    fn sa_matches_naive_dynamic_while_fresh() {
        // Inside the confidence window the decay is inactive, so the
        // staleness-aware variant reproduces naive Dynamic exactly.
        let speeds = [1.0, 2.0, 5.0];
        let qlens = [0, 0, 0];
        let mut naive = LeastLoadPolicy::new(&speeds);
        let mut sa = StaleAwareLeastLoad::new(&speeds, &[0.5, 1.0, 2.0], 100.0);
        let mut rng = Rng64::from_seed(0);
        for step in 0..50 {
            let t = step as f64; // all ages stay <= 50 < W
            let a = naive.choose(&ctx_at(t, &speeds, &qlens), &mut rng);
            let b = sa.choose(&ctx_at(t, &speeds, &qlens), &mut rng);
            assert_eq!(a, b, "step {step}");
            if step % 7 == 0 {
                naive.on_load_update(step % 3, 0, t);
                sa.on_load_update(step % 3, 0, t);
            }
        }
        assert_eq!(sa.stale_decisions(), 0);
    }

    #[test]
    fn sa_decays_stale_belief_toward_prior() {
        let speeds = [1.0, 1.0];
        let qlens = [0, 0];
        // Server 0's prior says "usually empty"; server 1's says "deep".
        let mut sa = StaleAwareLeastLoad::new(&speeds, &[0.0, 10.0], 10.0);
        let mut rng = Rng64::from_seed(0);
        // Fresh-but-bad news: server 0 reported a deep queue, server 1 a
        // shallow one, then both went silent.
        sa.on_load_update(0, 8, 0.0);
        sa.on_load_update(1, 1, 0.0);
        // Just after the reports, belief rules: server 1 wins.
        assert_eq!(sa.choose(&ctx_at(1.0, &speeds, &qlens), &mut rng), 1);
        assert_eq!(sa.stale_decisions(), 0);
        // Long after (age 1000 ≫ W=10): w ≈ 0.01, so effective loads are
        // ≈ priors (0 vs ~10): the stale snapshot no longer steers jobs
        // at the server whose prior says it is deep.
        assert_eq!(sa.choose(&ctx_at(1000.0, &speeds, &qlens), &mut rng), 0);
        assert_eq!(sa.stale_decisions(), 1, "the stale decision is counted");
    }

    #[test]
    fn sa_load_updates_refresh_age_but_dispatches_do_not() {
        let speeds = [1.0, 1.0];
        let qlens = [0, 0];
        let mut sa = StaleAwareLeastLoad::new(&speeds, &[5.0, 5.0], 10.0);
        let mut rng = Rng64::from_seed(0);
        // A dispatch at t=0 bumps believed load but not freshness.
        assert_eq!(sa.choose(&ctx_at(0.0, &speeds, &qlens), &mut rng), 0);
        // At t=50 both ages are 50 > W: decisions count as stale.
        sa.choose(&ctx_at(50.0, &speeds, &qlens), &mut rng);
        assert_eq!(sa.stale_decisions(), 1);
        // A departure report refreshes server 1's age.
        sa.on_load_update(1, 0, 50.0);
        assert_eq!(sa.choose(&ctx_at(51.0, &speeds, &qlens), &mut rng), 1);
        assert_eq!(sa.stale_decisions(), 1, "fresh choice not counted");
    }

    #[test]
    fn sa_membership_and_sync_plumbing() {
        let speeds = [1.0, 10.0];
        let qlens = [0, 0];
        let mut sa = StaleAwareLeastLoad::new(&speeds, &[1.0, 1.0], 100.0);
        let mut rng = Rng64::from_seed(0);
        sa.on_membership_change(&[true, false], 0.0);
        assert_eq!(sa.choose(&ctx_at(0.0, &speeds, &qlens), &mut rng), 0);
        sa.on_membership_change(&[true, true], 5.0);
        assert_eq!(sa.choose(&ctx_at(5.0, &speeds, &qlens), &mut rng), 1);
        assert!(sa.needs_load_updates());
        assert_eq!(sa.name(), "DYNAMIC-SA");
        let state = sa.sync_state().expect("mergeable");
        assert_eq!(state.loads.len(), 2);
        sa.merge_sync(
            &SyncState {
                credits: Vec::new(),
                loads: vec![3.0, 3.0],
                ..SyncState::default()
            },
            6.0,
        );
        assert_eq!(sa.believed(), &[3.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "confidence window")]
    fn sa_rejects_bad_window() {
        StaleAwareLeastLoad::new(&[1.0], &[0.5], 0.0);
    }
}
