//! Re-optimizing ORR — failure-aware Algorithm 1 (extension).
//!
//! The paper's ORR computes the optimized allocation once, offline, for
//! the full machine set. Under crashes that static α keeps crediting
//! dead machines: the round-robin dispatcher skips them, but the split
//! over the survivors is whatever the gap-equalization credits happen to
//! leave — not the allocation Algorithm 1 would pick for the surviving
//! subset. [`ReoptimizingOrr`] closes that gap: on every membership
//! change it re-solves Algorithm 1 over the live machines at the
//! *effective* utilization `ρ · Σs_all / Σs_live` (the same job stream
//! hitting less capacity) and rebuilds the round-robin dispatcher.
//!
//! Comparing ORR and ReORR under increasing failure rates isolates how
//! much of the fault-tolerance story is membership *avoidance* (both do
//! it) versus allocation *re-optimization* (only ReORR does it).
//!
//! With [`ReoptimizingOrr::with_rate_reopt`] the policy also re-solves
//! on every *coordinated* sync round that carries the tier's realized
//! arrival rate: the measured utilization replaces the configured design
//! point, and the dispatcher is re-targeted in place (rotation offsets
//! preserved) instead of rebuilt. A sharded tier whose `source_hash`
//! splitter runs one shard hot thereby converges each shard's allocation
//! to its actual substream instead of the tier-average guess.

use hetsched_cluster::{DispatchCtx, Policy, SyncState};
use hetsched_desim::Rng64;
use hetsched_queueing::closed_form::try_optimized_allocation_for;

use crate::round_robin::RoundRobinDispatch;

/// ORR that re-solves Algorithm 1 over the surviving machines on every
/// membership change.
#[derive(Debug, Clone)]
pub struct ReoptimizingOrr {
    speeds: Vec<f64>,
    /// Configured (full-set) utilization estimate.
    rho: f64,
    /// Believed membership from the fault layer.
    up: Vec<bool>,
    /// Mean job size (speed-1 seconds), present when rate-driven
    /// re-optimization is enabled ([`ReoptimizingOrr::with_rate_reopt`]).
    mean_size: Option<f64>,
    /// Utilization measured from the sync plane's realized arrival rate;
    /// overrides the configured `rho` once the tier has reported one.
    measured_rho: Option<f64>,
    inner: RoundRobinDispatch,
}

impl ReoptimizingOrr {
    /// Creates the policy; with every machine up it is exactly ORR.
    ///
    /// # Panics
    /// Panics if `speeds` is empty or non-positive, or `rho ∉ (0, 1)`.
    pub fn new(speeds: &[f64], rho: f64) -> Self {
        assert!(!speeds.is_empty(), "no computers");
        assert!(
            speeds.iter().all(|&s| s.is_finite() && s > 0.0),
            "speeds must be positive"
        );
        assert!(
            rho.is_finite() && rho > 0.0 && rho < 1.0,
            "utilization must lie in (0,1), got {rho}"
        );
        let up = vec![true; speeds.len()];
        let fractions = live_allocation(speeds, rho, &up);
        ReoptimizingOrr {
            speeds: speeds.to_vec(),
            rho,
            up,
            mean_size: None,
            measured_rho: None,
            inner: RoundRobinDispatch::new(&fractions, "ReORR"),
        }
    }

    /// Enables rate-driven re-optimization: when a coordinated sync
    /// round reports the tier's realized arrival rate λ (jobs/s), the
    /// policy re-solves Algorithm 1 at the *measured* utilization
    /// `ρ̂ = λ · E[size] / Σ s` and re-targets the dispatcher in
    /// place (phase-preserving — the rotation is not reset). This is
    /// what repairs a hot shard under `source_hash` splitting: the shard
    /// whose substream runs hot gets an allocation solved for its actual
    /// load, not the tier-average design point.
    #[must_use]
    pub fn with_rate_reopt(mut self, mean_size: f64) -> Self {
        assert!(
            mean_size.is_finite() && mean_size > 0.0,
            "mean job size must be positive, got {mean_size}"
        );
        self.mean_size = Some(mean_size);
        self
    }

    /// The fractions currently driving the dispatcher (zeros for down
    /// machines).
    pub fn current_fractions(&self) -> &[f64] {
        self.inner.fractions()
    }

    /// The utilization estimate the next re-solve will use: the measured
    /// one once the sync plane has reported a rate, else the configured
    /// design point.
    fn effective_rho(&self) -> f64 {
        self.measured_rho.unwrap_or(self.rho)
    }
}

/// Clamp a measured utilization into Algorithm 1's open (0, 1) domain.
/// An overloaded measurement (ρ̂ ≥ 1) pins near saturation, where the
/// optimized allocation approaches the weighted split (footnote 7).
fn clamp_rho(rho: f64) -> f64 {
    if !rho.is_finite() {
        return 0.5;
    }
    rho.clamp(1e-6, 0.999)
}

/// Algorithm 1 over the live subset, expanded to a full-length fraction
/// vector with zeros for down machines. A stale all-down belief keeps
/// the full-set allocation (the dispatcher's own fallback handles it).
fn live_allocation(speeds: &[f64], rho: f64, up: &[bool]) -> Vec<f64> {
    let total: f64 = speeds.iter().sum();
    let live: Vec<f64> = speeds
        .iter()
        .zip(up)
        .filter(|&(_, &u)| u)
        .map(|(&s, _)| s)
        .collect();
    let live_total: f64 = live.iter().sum();
    if live.is_empty() {
        return match try_optimized_allocation_for(speeds, rho) {
            Ok(f) => f,
            Err(_) => speeds.iter().map(|s| s / total).collect(),
        };
    }
    // The same arrival stream now hits less capacity.
    let rho_live = rho * total / live_total;
    let live_fractions = if rho_live >= 1.0 {
        // Survivors are saturated: footnote 7's limit — weighted split.
        live.iter().map(|s| s / live_total).collect()
    } else {
        try_optimized_allocation_for(&live, rho_live)
            .unwrap_or_else(|_| live.iter().map(|s| s / live_total).collect())
    };
    let mut full = vec![0.0; speeds.len()];
    let mut k = 0;
    for (i, &u) in up.iter().enumerate() {
        if u {
            full[i] = live_fractions[k];
            k += 1;
        }
    }
    full
}

impl Policy for ReoptimizingOrr {
    fn choose(&mut self, ctx: &DispatchCtx<'_>, rng: &mut Rng64) -> usize {
        self.inner.choose(ctx, rng)
    }

    fn on_membership_change(&mut self, up: &[bool], _now: f64) {
        self.up.clear();
        self.up.extend_from_slice(up);
        let fractions = live_allocation(&self.speeds, self.effective_rho(), &self.up);
        if self.mean_size.is_some() {
            // Rate-reopt mode is phase-preserving throughout: keep the
            // credit state so the rotation offset a coordinated tier has
            // carefully maintained survives the membership change.
            self.inner.retarget(&fractions);
            self.inner.set_membership(&self.up);
        } else {
            // Rebuild Algorithm 2 over the new allocation; reapply the
            // mask so a stale all-down belief still falls back
            // deterministically. (Historical ReORR behavior, kept
            // bit-for-bit for the naive tier.)
            self.inner = RoundRobinDispatch::new(&fractions, "ReORR");
            self.inner.set_membership(&self.up);
        }
    }

    fn expected_fractions(&self) -> Option<Vec<f64>> {
        Some(self.current_fractions().to_vec())
    }

    fn sync_state(&self) -> Option<SyncState> {
        self.inner.sync_state()
    }

    fn merge_sync(&mut self, consensus: &SyncState, now: f64) {
        self.inner.merge_sync(consensus, now);
        let Some(mean_size) = self.mean_size else {
            return;
        };
        if !(consensus.phase_preserving && consensus.rate > 0.0) {
            return;
        }
        // The tier's realized arrival rate → measured *full-set*
        // utilization ρ̂ = λ · E[size] / Σ s_all (live_allocation itself
        // rescales onto the surviving capacity) → re-solve Algorithm 1
        // and steer the rotation there without resetting it.
        let total: f64 = self.speeds.iter().sum();
        let rho = clamp_rho(consensus.rate * mean_size / total);
        self.measured_rho = Some(rho);
        let fractions = live_allocation(&self.speeds, rho, &self.up);
        self.inner.retarget(&fractions);
    }

    fn advance_rotation(&mut self, steps: u64) {
        self.inner.advance_rotation(steps);
    }

    fn name(&self) -> String {
        "ReORR".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::AllocationSpec;

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
    fn matches_orr_when_all_up() {
        let speeds = [1.0, 2.0, 10.0];
        let p = ReoptimizingOrr::new(&speeds, 0.7);
        let orr = AllocationSpec::optimized().fractions(&speeds, 0.7).unwrap();
        for (a, b) in p.current_fractions().iter().zip(&orr) {
            assert!((a - b).abs() < 1e-12, "{:?}", p.current_fractions());
        }
    }

    #[test]
    fn reoptimizes_over_survivors() {
        let speeds = [1.0, 2.0, 10.0];
        let mut p = ReoptimizingOrr::new(&speeds, 0.5);
        p.on_membership_change(&[true, true, false], 0.0);
        let f = p.current_fractions().to_vec();
        assert_eq!(f[2], 0.0, "down machine must get fraction 0: {f:?}");
        // ρ_live = 0.5 · 13 / 3 > 1 ⇒ weighted over the survivors.
        assert!((f[0] - 1.0 / 3.0).abs() < 1e-9, "{f:?}");
        assert!((f[1] - 2.0 / 3.0).abs() < 1e-9, "{f:?}");
        // Dispatch respects the reallocation.
        let qlens = [0usize; 3];
        let mut rng = hetsched_desim::Rng64::from_seed(0);
        for _ in 0..50 {
            assert_ne!(p.choose(&ctx(&speeds, &qlens), &mut rng), 2);
        }
    }

    #[test]
    fn unsaturated_survivors_get_algorithm1() {
        let speeds = [1.0, 2.0, 10.0];
        let mut p = ReoptimizingOrr::new(&speeds, 0.3);
        p.on_membership_change(&[false, true, true], 0.0);
        // ρ_live = 0.3 · 13 / 12 = 0.325 < 1: Algorithm 1 over [2, 10].
        let expected = AllocationSpec::optimized()
            .fractions(&[2.0, 10.0], 0.3 * 13.0 / 12.0)
            .unwrap();
        let f = p.current_fractions();
        assert_eq!(f[0], 0.0);
        assert!((f[1] - expected[0]).abs() < 1e-12, "{f:?} vs {expected:?}");
        assert!((f[2] - expected[1]).abs() < 1e-12, "{f:?} vs {expected:?}");
    }

    #[test]
    fn repair_restores_full_set_allocation() {
        let speeds = [1.0, 2.0, 10.0];
        let mut p = ReoptimizingOrr::new(&speeds, 0.7);
        let full = p.current_fractions().to_vec();
        p.on_membership_change(&[true, true, false], 0.0);
        p.on_membership_change(&[true, true, true], 1.0);
        for (a, b) in p.current_fractions().iter().zip(&full) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn all_down_belief_keeps_dispatching() {
        let speeds = [1.0, 4.0];
        let mut p = ReoptimizingOrr::new(&speeds, 0.5);
        p.on_membership_change(&[false, false], 0.0);
        let qlens = [0usize; 2];
        let mut rng = hetsched_desim::Rng64::from_seed(0);
        // The round-robin fallback serves *some* machine; no panic.
        let c = p.choose(&ctx(&speeds, &qlens), &mut rng);
        assert!(c < 2);
    }

    #[test]
    #[should_panic(expected = "utilization must lie in (0,1)")]
    fn rejects_bad_rho() {
        ReoptimizingOrr::new(&[1.0, 2.0], 1.0);
    }

    fn coordinated_consensus(credits: Vec<f64>, rate: f64) -> SyncState {
        SyncState {
            credits,
            loads: Vec::new(),
            rate,
            phase_preserving: true,
        }
    }

    #[test]
    fn rate_reopt_resolves_at_measured_utilization() {
        let speeds = [1.0, 2.0, 10.0];
        // Designed for ρ = 0.3, but the sync plane measures a hotter
        // stream: λ·E[size]/Σs = 9.1/13 = 0.7.
        let mut p = ReoptimizingOrr::new(&speeds, 0.3).with_rate_reopt(1.0);
        let consensus = coordinated_consensus(p.sync_state().unwrap().credits, 9.1);
        p.merge_sync(&consensus, 100.0);
        let expected = AllocationSpec::optimized().fractions(&speeds, 0.7).unwrap();
        for (a, b) in p.current_fractions().iter().zip(&expected) {
            assert!((a - b).abs() < 1e-12, "{:?}", p.current_fractions());
        }
        // The measured ρ sticks for later membership changes too.
        p.on_membership_change(&[false, true, true], 200.0);
        let live = AllocationSpec::optimized()
            .fractions(&[2.0, 10.0], 0.7 * 13.0 / 12.0)
            .unwrap();
        let f = p.current_fractions();
        assert_eq!(f[0], 0.0);
        assert!((f[1] - live[0]).abs() < 1e-12, "{f:?} vs {live:?}");
    }

    #[test]
    fn rate_reopt_ignores_naive_and_rateless_consensus() {
        let speeds = [1.0, 2.0, 10.0];
        let mut p = ReoptimizingOrr::new(&speeds, 0.3).with_rate_reopt(1.0);
        let before = p.current_fractions().to_vec();
        // Naive consensus (phase_preserving = false) never re-solves,
        // even if a rate somehow rides along.
        let mut naive = coordinated_consensus(p.sync_state().unwrap().credits, 9.1);
        naive.phase_preserving = false;
        p.merge_sync(&naive, 10.0);
        assert_eq!(p.current_fractions(), &before[..]);
        // Coordinated but rate-less consensus: levels merge, no re-solve.
        let rateless = coordinated_consensus(p.sync_state().unwrap().credits, 0.0);
        p.merge_sync(&rateless, 20.0);
        assert_eq!(p.current_fractions(), &before[..]);
        // And without with_rate_reopt, a rated consensus is inert too.
        let mut plain = ReoptimizingOrr::new(&speeds, 0.3);
        let consensus = coordinated_consensus(plain.sync_state().unwrap().credits, 9.1);
        plain.merge_sync(&consensus, 30.0);
        assert_eq!(plain.current_fractions(), &before[..]);
    }

    #[test]
    fn rate_reopt_membership_change_preserves_rotation() {
        let speeds = [1.0, 2.0, 4.0, 8.0];
        let mut p = ReoptimizingOrr::new(&speeds, 0.5).with_rate_reopt(1.0);
        let qlens = [0usize; 4];
        let mut rng = hetsched_desim::Rng64::from_seed(0);
        for _ in 0..17 {
            p.choose(&ctx(&speeds, &qlens), &mut rng);
        }
        let assigned_before = p.inner.assignments().to_vec();
        p.on_membership_change(&[true, false, true, true], 50.0);
        // Phase-preserving path: the assignment history survives (a
        // rebuild would zero it).
        assert_eq!(p.inner.assignments(), &assigned_before[..]);
        assert_eq!(p.current_fractions()[1], 0.0);
    }

    #[test]
    fn saturated_measurement_clamps_to_near_weighted_split() {
        let speeds = [1.0, 3.0];
        let mut p = ReoptimizingOrr::new(&speeds, 0.5).with_rate_reopt(1.0);
        // λ·E[size]/Σs = 40/4 = 10 ⇒ clamped to 0.999: allocation must
        // stay a valid probability vector near the weighted split.
        let consensus = coordinated_consensus(p.sync_state().unwrap().credits, 40.0);
        p.merge_sync(&consensus, 10.0);
        let f = p.current_fractions();
        let sum: f64 = f.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "{f:?}");
        assert!((f[1] - 0.75).abs() < 0.05, "near-saturation split: {f:?}");
    }

    #[test]
    fn advance_rotation_delegates_to_inner() {
        let speeds = [1.0, 2.0, 10.0];
        let mut by_steps = ReoptimizingOrr::new(&speeds, 0.5);
        let mut by_calls = ReoptimizingOrr::new(&speeds, 0.5);
        by_steps.advance_rotation(23);
        let qlens = [0usize; 3];
        let mut rng = hetsched_desim::Rng64::from_seed(0);
        for _ in 0..23 {
            by_calls.choose(&ctx(&speeds, &qlens), &mut rng);
        }
        assert_eq!(by_steps.sync_state(), by_calls.sync_state());
    }
}
