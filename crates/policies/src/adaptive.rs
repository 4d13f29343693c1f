//! Adaptive ORR — an extension beyond the paper.
//!
//! §5.4 shows ORR needs only a *rough* utilization estimate and ends
//! with "It is not necessary to measure ρ and recompute the optimized
//! workload allocation strategy often." This module takes the obvious
//! next step the paper leaves as practice: estimate the arrival rate
//! online (EWMA over inter-arrival gaps), recompute Algorithm 1's
//! allocation on a slow timer, and dispatch with Algorithm 2 in between.
//! The estimate is deliberately biased upward by a configurable safety
//! margin, following the paper's advice to "conservatively overestimate
//! system load slightly".
//!
//! The scheduler must know the machines' speeds and the mean job size
//! (to convert an arrival rate into a utilization) — both static
//! quantities; no per-job information and no feedback from the machines
//! is used, so the policy is still *static* in the paper's taxonomy,
//! just periodically re-parameterized.

use hetsched_cluster::{DispatchCtx, Policy, SyncState};
use hetsched_desim::Rng64;

use crate::allocation::AllocationSpec;
use crate::round_robin::RoundRobinDispatch;

/// ORR with an online EWMA utilization estimator.
#[derive(Debug, Clone)]
pub struct AdaptiveOrr {
    speeds: Vec<f64>,
    /// Mean job size in speed-1 seconds (gives `μ = 1 / mean_size`).
    mean_size: f64,
    /// Seconds between allocation recomputations.
    recompute_every: f64,
    /// Relative safety margin added to the estimate (the paper suggests
    /// slight overestimation).
    safety_margin: f64,
    /// EWMA smoothing factor per observed gap.
    beta: f64,
    ewma_gap: Option<f64>,
    last_arrival: Option<f64>,
    last_recompute: f64,
    /// Believed membership from the fault layer, reapplied to the inner
    /// dispatcher whenever the allocation is rebuilt.
    up: Vec<bool>,
    inner: RoundRobinDispatch,
}

impl AdaptiveOrr {
    /// Creates the policy. Until enough arrivals have been observed it
    /// dispatches with the *weighted* fractions (the assumption-free
    /// default).
    ///
    /// # Panics
    /// Panics on empty/non-positive speeds, non-positive `mean_size` or
    /// `recompute_every`, or `beta ∉ (0, 1]`.
    pub fn new(
        speeds: &[f64],
        mean_size: f64,
        recompute_every: f64,
        safety_margin: f64,
        beta: f64,
    ) -> Self {
        assert!(!speeds.is_empty(), "no computers");
        assert!(
            speeds.iter().all(|&s| s.is_finite() && s > 0.0),
            "speeds must be positive"
        );
        assert!(
            mean_size.is_finite() && mean_size > 0.0,
            "mean job size must be positive, got {mean_size}"
        );
        assert!(
            recompute_every.is_finite() && recompute_every > 0.0,
            "recompute period must be positive"
        );
        assert!(
            safety_margin.is_finite() && safety_margin >= 0.0,
            "safety margin must be ≥ 0"
        );
        assert!(beta > 0.0 && beta <= 1.0, "beta must lie in (0,1]");
        let total: f64 = speeds.iter().sum();
        let weighted: Vec<f64> = speeds.iter().map(|s| s / total).collect();
        AdaptiveOrr {
            speeds: speeds.to_vec(),
            mean_size,
            recompute_every,
            safety_margin,
            beta,
            ewma_gap: None,
            last_arrival: None,
            last_recompute: 0.0,
            up: vec![true; speeds.len()],
            inner: RoundRobinDispatch::new(&weighted, "AORR"),
        }
    }

    /// Current utilization estimate (with the safety margin applied), or
    /// `None` before the first gap is observed.
    pub fn estimated_utilization(&self) -> Option<f64> {
        let gap = self.ewma_gap?;
        let lambda = 1.0 / gap;
        let mu = 1.0 / self.mean_size;
        let total: f64 = self.speeds.iter().sum();
        Some((lambda / (mu * total)) * (1.0 + self.safety_margin))
    }

    /// The fractions currently driving the dispatcher.
    pub fn current_fractions(&self) -> &[f64] {
        self.inner.fractions()
    }

    fn observe_arrival(&mut self, now: f64) {
        if let Some(prev) = self.last_arrival {
            let gap = (now - prev).max(0.0);
            self.ewma_gap = Some(match self.ewma_gap {
                Some(e) => (1.0 - self.beta) * e + self.beta * gap,
                None => gap,
            });
        }
        self.last_arrival = Some(now);
    }

    fn maybe_recompute(&mut self, now: f64) {
        if now - self.last_recompute < self.recompute_every {
            return;
        }
        self.last_recompute = now;
        let Some(rho) = self.estimated_utilization() else {
            return;
        };
        let rho = rho.clamp(0.01, 0.999);
        let Ok(fractions) = AllocationSpec::optimized().fractions(&self.speeds, rho) else {
            return;
        };
        // Rebuilding resets Algorithm 2's credit state; the start-up rule
        // re-spreads first jobs, so the transient is a few jobs long. The
        // membership mask must survive the rebuild.
        self.inner = RoundRobinDispatch::new(&fractions, "AORR");
        self.inner.set_membership(&self.up);
    }
}

impl Policy for AdaptiveOrr {
    fn choose(&mut self, ctx: &DispatchCtx<'_>, rng: &mut Rng64) -> usize {
        self.observe_arrival(ctx.now);
        self.maybe_recompute(ctx.now);
        self.inner.choose(ctx, rng)
    }

    fn on_membership_change(&mut self, up: &[bool], now: f64) {
        self.up.clear();
        self.up.extend_from_slice(up);
        self.inner.on_membership_change(up, now);
    }

    fn expected_fractions(&self) -> Option<Vec<f64>> {
        Some(self.current_fractions().to_vec())
    }

    fn sync_state(&self) -> Option<SyncState> {
        self.inner.sync_state()
    }

    fn merge_sync(&mut self, consensus: &SyncState, now: f64) {
        self.inner.merge_sync(consensus, now);
    }

    fn advance_rotation(&mut self, steps: u64) {
        // Virtual (peer-shard) arrivals advance only the rotation
        // machine. They deliberately bypass the EWMA estimator: this
        // shard observes real timestamps only for its own substream, and
        // feeding zero-gap phantom arrivals would wreck the rate
        // estimate.
        self.inner.advance_rotation(steps);
    }

    fn name(&self) -> String {
        "AORR".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::AllocationSpec;
    use hetsched_desim::Rng64;

    /// AORR recomputing every 500 s with a 5% safety margin and a 1%
    /// EWMA step.
    fn aorr(speeds: &[f64], mean_size: f64) -> AdaptiveOrr {
        AdaptiveOrr::new(speeds, mean_size, 500.0, 0.05, 0.01)
    }

    fn drive(policy: &mut AdaptiveOrr, gaps: impl Iterator<Item = f64>) {
        let speeds = policy.speeds.clone();
        let qlens = vec![0usize; speeds.len()];
        let mut rng = Rng64::from_seed(0);
        let mut now = 0.0;
        for gap in gaps {
            now += gap;
            let ctx = DispatchCtx {
                now,
                job_size: 1.0,
                queue_lens: &qlens,
                speeds: &speeds,
                true_load_index: None,
            };
            policy.choose(&ctx, &mut rng);
        }
    }

    #[test]
    fn starts_with_weighted_fractions() {
        let p = aorr(&[1.0, 3.0], 10.0);
        assert_eq!(p.current_fractions(), &[0.25, 0.75]);
        assert_eq!(p.estimated_utilization(), None);
    }

    #[test]
    fn estimates_stationary_utilization() {
        // Speeds sum 4, mean size 10 ⇒ μΣs = 0.4. Gaps of 5 s ⇒ λ = 0.2
        // ⇒ ρ = 0.5, times the 5% margin = 0.525.
        let mut p = aorr(&[1.0, 3.0], 10.0);
        drive(&mut p, std::iter::repeat_n(5.0, 2_000));
        let est = p.estimated_utilization().expect("estimated");
        assert!((est - 0.525).abs() < 0.01, "estimate {est}");
    }

    #[test]
    fn converges_to_optimized_fractions() {
        let speeds = [1.0, 3.0];
        let mut p = aorr(&speeds, 10.0);
        drive(&mut p, std::iter::repeat_n(5.0, 5_000));
        let expected = AllocationSpec::optimized()
            .fractions(&speeds, 0.525)
            .unwrap();
        for (a, b) in p.current_fractions().iter().zip(&expected) {
            assert!(
                (a - b).abs() < 0.01,
                "{:?} vs {expected:?}",
                p.current_fractions()
            );
        }
    }

    #[test]
    fn tracks_load_changes() {
        let speeds = [1.0, 3.0];
        let mut p = AdaptiveOrr::new(&speeds, 10.0, 100.0, 0.0, 0.05);
        // Light load first: fast machine should take almost everything.
        drive(&mut p, std::iter::repeat_n(25.0, 400));
        let light_fast = p.current_fractions()[1];
        // Then heavy load: allocation must move back toward weighted.
        drive(&mut p, std::iter::repeat_n(2.9, 4_000));
        let heavy_fast = p.current_fractions()[1];
        assert!(
            light_fast > heavy_fast,
            "fast share should shrink when load rises: {light_fast} vs {heavy_fast}"
        );
        assert!(light_fast > 0.95, "at ρ=0.1 the 3× machine takes ~all jobs");
    }

    #[test]
    fn estimate_is_clamped_under_overload() {
        let mut p = AdaptiveOrr::new(&[1.0, 1.0], 10.0, 50.0, 0.0, 0.2);
        // Gaps of 1 s on capacity 0.2 jobs/s: apparent ρ = 5 — must not
        // panic, allocation degenerates toward weighted.
        drive(&mut p, std::iter::repeat_n(1.0, 500));
        let f = p.current_fractions();
        assert!((f[0] - 0.5).abs() < 1e-9, "{f:?}");
    }

    #[test]
    fn membership_mask_survives_recompute() {
        let speeds = [1.0, 3.0];
        let mut p = AdaptiveOrr::new(&speeds, 10.0, 100.0, 0.0, 0.05);
        p.on_membership_change(&[true, false], 0.0);
        // Many recomputation periods pass; the rebuilt inner dispatcher
        // must keep excluding the down machine.
        let qlens = [0usize; 2];
        let mut rng = Rng64::from_seed(0);
        let mut now = 0.0;
        for _ in 0..2_000 {
            now += 5.0;
            let ctx = DispatchCtx {
                now,
                job_size: 1.0,
                queue_lens: &qlens,
                speeds: &speeds,
                true_load_index: None,
            };
            assert_eq!(p.choose(&ctx, &mut rng), 0, "down machine chosen");
        }
        assert!(
            p.estimated_utilization().is_some(),
            "recompute ran during the drive"
        );
    }

    #[test]
    #[should_panic(expected = "beta must lie in (0,1]")]
    fn rejects_bad_beta() {
        AdaptiveOrr::new(&[1.0], 10.0, 100.0, 0.0, 0.0);
    }
}
