//! Run configuration.
//!
//! [`ClusterConfig`] is the JSON-friendly description of one simulation
//! run: the machines, the workload, the service discipline, and the
//! horizon/warmup. Arrival and size processes are described declaratively
//! ([`ArrivalSpec`], [`hetsched_dist::DistSpec`]) so experiment harnesses
//! can log exactly what they ran.
//!
//! The paper's defaults (§4.1) are provided by
//! [`ClusterConfig::paper_default`]: Bounded Pareto `B(10, 21600, 1)` job
//! sizes, hyperexponential arrivals with CV = 3, utilization 0.70,
//! horizon 4·10⁶ s with the first quarter as warmup.

use hetsched_dist::{
    ArrivalProcess, DistSpec, Exponential, Hyperexp2, IidArrivals, MmppArrivals, Moments,
};
use hetsched_error::HetschedError;

use crate::discipline::DisciplineSpec;
use crate::faults::FaultSpec;
use crate::network::LoadUpdateModel;

/// Declarative arrival-process description (built for a target rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSpec {
    /// Poisson arrivals (inter-arrival CV = 1).
    Poisson,
    /// Two-stage hyperexponential renewal arrivals with the given CV ≥ 1
    /// (the paper's model; CV = 3 by default).
    Hyperexp {
        /// Inter-arrival coefficient of variation (≥ 1).
        cv: f64,
    },
    /// Two-state Markov-modulated Poisson process (burstiness ablation).
    Mmpp {
        /// Ratio of bursty-state to calm-state arrival rate (> 1).
        burst_factor: f64,
        /// Stationary fraction of time in the bursty state, in (0, 1).
        frac_bursty: f64,
        /// Mean calm+burst cycle length in seconds.
        cycle: f64,
    },
}

hetsched_json::json_tagged_enum!(ArrivalSpec {
    Poisson,
    Hyperexp { cv },
    Mmpp { burst_factor, frac_bursty, cycle },
});

impl ArrivalSpec {
    /// The paper's arrival process: hyperexponential with CV = 3.
    pub fn paper_default() -> Self {
        ArrivalSpec::Hyperexp { cv: 3.0 }
    }

    /// Checks the parameters [`build`](Self::build) asserts on: a
    /// hyperexponential needs a finite `cv ≥ 1`, an MMPP a finite
    /// `burst_factor > 1`, `frac_bursty` in (0, 1) and a positive,
    /// finite `cycle` long enough that both mean sojourns,
    /// `frac_bursty · cycle` and `(1 − frac_bursty) · cycle`, have
    /// finite switch rates. The one assertion left to `build` is the
    /// rate split's, which also depends on the arrival rate: it fails
    /// only for a burst factor so large that `burst_factor · rate` or
    /// `rate / burst_factor` leaves the range of f64.
    ///
    /// # Errors
    /// [`HetschedError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), HetschedError> {
        let bad = |field: &str, want: &str, got: f64| {
            Err(HetschedError::InvalidConfig(format!(
                "arrivals.{field} must be {want}, got {got}"
            )))
        };
        match *self {
            ArrivalSpec::Poisson => Ok(()),
            ArrivalSpec::Hyperexp { cv } => {
                if cv.is_finite() && cv >= 1.0 {
                    Ok(())
                } else {
                    bad("cv", "finite and ≥ 1 for hyperexponential arrivals", cv)
                }
            }
            ArrivalSpec::Mmpp {
                burst_factor,
                frac_bursty,
                cycle,
            } => {
                if !(burst_factor.is_finite() && burst_factor > 1.0) {
                    bad("burst_factor", "finite and > 1", burst_factor)
                } else if !(frac_bursty > 0.0 && frac_bursty < 1.0) {
                    bad("frac_bursty", "in (0, 1)", frac_bursty)
                } else if !(cycle.is_finite() && cycle > 0.0) {
                    bad("cycle", "positive and finite", cycle)
                } else if [frac_bursty, 1.0 - frac_bursty]
                    .iter()
                    .any(|share| !(1.0 / (share * cycle)).is_finite())
                {
                    bad("cycle", "long enough for finite switch rates", cycle)
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Materializes the process for a target mean rate (jobs/second).
    ///
    /// # Panics
    /// Panics if `rate` is not positive and finite, or if the spec
    /// fails [`validate`](Self::validate).
    pub fn build(self, rate: f64) -> ArrivalKind {
        assert!(
            rate.is_finite() && rate > 0.0,
            "arrival rate must be positive"
        );
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        match self {
            ArrivalSpec::Poisson => {
                ArrivalKind::Poisson(IidArrivals::new(Exponential::from_rate(rate)))
            }
            ArrivalSpec::Hyperexp { cv } => {
                ArrivalKind::H2(IidArrivals::new(Hyperexp2::from_mean_cv(1.0 / rate, cv)))
            }
            ArrivalSpec::Mmpp {
                burst_factor,
                frac_bursty,
                cycle,
            } => ArrivalKind::Mmpp(MmppArrivals::with_rate(
                rate,
                burst_factor,
                frac_bursty,
                cycle,
            )),
        }
    }
}

/// A materialized [`ArrivalSpec`].
#[derive(Debug, Clone)]
pub enum ArrivalKind {
    /// Poisson renewal process.
    Poisson(IidArrivals<Exponential>),
    /// Hyperexponential renewal process.
    H2(IidArrivals<Hyperexp2>),
    /// Markov-modulated Poisson process.
    Mmpp(MmppArrivals),
}

impl ArrivalProcess for ArrivalKind {
    fn next_interarrival(&mut self, rng: &mut hetsched_desim::Rng64) -> f64 {
        match self {
            ArrivalKind::Poisson(p) => p.next_interarrival(rng),
            ArrivalKind::H2(p) => p.next_interarrival(rng),
            ArrivalKind::Mmpp(p) => p.next_interarrival(rng),
        }
    }

    fn mean_rate(&self) -> f64 {
        match self {
            ArrivalKind::Poisson(p) => p.mean_rate(),
            ArrivalKind::H2(p) => p.mean_rate(),
            ArrivalKind::Mmpp(p) => p.mean_rate(),
        }
    }
}

/// A group of identical machines in the `fleet` config shorthand:
/// `{ "count": 5000, "speed": 1.0 }` stands for 5000 speed-1 machines.
///
/// Groups expand deterministically — in listed order, each repeated
/// `count` times and appended after any explicit `speeds` — so a
/// 10,000-server heterogeneous config is a few lines of JSON instead of
/// a 10,000-entry array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetGroup {
    /// Number of machines in the group.
    pub count: usize,
    /// Relative speed of every machine in the group.
    pub speed: f64,
}

hetsched_json::json_struct!(FleetGroup { count, speed });

/// Expands `fleet` groups into an explicit speed vector (listed order,
/// each group's speed repeated `count` times).
pub fn expand_fleet(groups: &[FleetGroup]) -> Vec<f64> {
    let mut speeds = Vec::with_capacity(groups.iter().map(|g| g.count).sum());
    for g in groups {
        speeds.extend(std::iter::repeat_n(g.speed, g.count));
    }
    speeds
}

/// How much per-server detail a run's outputs carry.
///
/// At N = 10,000 the per-server vectors in `RunStats` and the
/// per-server observability columns dominate artifact size and merge
/// time; `summary` collapses them to `{min, mean, max, p99}` once the
/// fleet exceeds the summary threshold. Defaults to `full` (the
/// historical shape), so configs serialized before this knob existed
/// parse and reproduce unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PerServerMode {
    /// Emit the full per-server vectors (the historical shape).
    #[default]
    Full,
    /// Collapse per-server vectors to `{min, mean, max, p99}` summaries
    /// when the fleet exceeds
    /// [`crate::results::PER_SERVER_SUMMARY_THRESHOLD`].
    Summary,
}

hetsched_json::json_unit_enum!(PerServerMode { Full, Summary });

/// Full description of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Relative speeds of the computers. The `fleet` shorthand (groups
    /// of `{count, speed}`) is expanded and appended here when the
    /// simulation is constructed, so large fleets never need the
    /// explicit vector spelled out. Empty by default, so a config may
    /// spell its machines entirely as `fleet` groups.
    pub speeds: Vec<f64>,
    /// Unexpanded [`FleetGroup`] shorthand: each group stands for
    /// `count` machines of the given speed, appended after `speeds` in
    /// listed order by [`ClusterConfig::normalize_fleet`] (called by the
    /// simulation constructors). Empty — and structurally invisible —
    /// once normalized, and empty by default, so configs serialized before
    /// the shorthand existed parse unchanged.
    pub fleet: Vec<FleetGroup>,
    /// Target overall utilization `ρ = λ / (μ Σ s_i)`, in (0, 1).
    pub utilization: f64,
    /// Job-size distribution (speed-1 seconds).
    pub job_sizes: DistSpec,
    /// Arrival-process shape.
    pub arrivals: ArrivalSpec,
    /// Per-computer service discipline.
    pub discipline: DisciplineSpec,
    /// Load-update delay model (only used by dynamic policies).
    pub load_updates: LoadUpdateModel,
    /// Total simulated seconds.
    pub horizon: f64,
    /// Seconds of warmup excluded from statistics (jobs *arriving* before
    /// this instant are not counted, per §4.1).
    pub warmup: f64,
    /// If set, track the per-interval workload-allocation deviation
    /// (Figure 2) with this interval length in seconds.
    pub deviation_interval: Option<f64>,
    /// If true, report the log-bucket sketch of response ratios that
    /// p95/p99 are read from (extension metric: full latency
    /// distribution, not just the mean/std the paper reports).
    pub track_ratio_histogram: bool,
    /// If set, capture sampled per-job traces (see [`crate::trace`]).
    pub trace: Option<crate::trace::TraceSpec>,
    /// If set, inject per-server crash/repair processes (see
    /// [`crate::faults`]). `None` reproduces the fault-free simulation
    /// byte-for-byte, so configs serialized before this field existed
    /// keep their exact results.
    pub faults: Option<FaultSpec>,
    /// If set, sample the run-level observability columns (see
    /// [`crate::obs`]) on this window. The driver only reads model state, so
    /// the headline `RunStats` are bit-identical with or without this —
    /// `None` (the default) keeps pre-observability configs
    /// parsing and reproducing unchanged.
    pub obs: Option<crate::obs::ObsSpec>,
    /// The front-end dispatch tier (see [`hetsched_dispatch`]). The
    /// default — one dispatcher, no state-sync — is structurally
    /// invisible, so configs serialized before the tier existed parse
    /// and reproduce bit-for-bit.
    pub dispatch: hetsched_dispatch::DispatchSpec,
    /// If set, make the message planes unreliable (see
    /// [`crate::channel`]). `None` — and
    /// [`crate::channel::ChannelSpec::reliable`] —
    /// are structurally invisible: no channel runtime is built, no
    /// channel randomness is drawn, and results are byte-identical to
    /// configs serialized before this field existed.
    pub channels: Option<crate::channel::ChannelSpec>,
    /// Per-server output detail: `full` (historical default) keeps the
    /// per-server vectors in `RunStats`/`ObsReport`; `summary` collapses
    /// them to `{min, mean, max, p99}` above the summary threshold.
    /// `full` by default, so old configs load unchanged.
    pub per_server: PerServerMode,
    /// If set, stamp arrivals with malleable job classes (see
    /// [`crate::malleable`]). `None` — or a section whose classes are
    /// all rigid — is structurally invisible: no class stream is
    /// constructed and no allocation tier runs, so such runs are
    /// byte-identical to configs serialized before this field existed.
    pub malleable: Option<crate::malleable::MalleableSpec>,
}

hetsched_json::json_struct!(ClusterConfig {
    speeds = Vec::new(),
    fleet = Vec::new(),
    utilization,
    job_sizes,
    arrivals,
    discipline,
    load_updates,
    horizon,
    warmup,
    deviation_interval,
    track_ratio_histogram,
    trace,
    faults,
    obs,
    dispatch = hetsched_dispatch::DispatchSpec::default(),
    channels,
    per_server = PerServerMode::Full,
    malleable,
});

impl ClusterConfig {
    /// The paper's §4.1 defaults for the given machine speeds.
    pub fn paper_default(speeds: &[f64]) -> Self {
        ClusterConfig {
            speeds: speeds.to_vec(),
            fleet: Vec::new(),
            utilization: 0.70,
            job_sizes: DistSpec::paper_job_sizes(),
            arrivals: ArrivalSpec::paper_default(),
            discipline: DisciplineSpec::ProcessorSharing,
            load_updates: LoadUpdateModel::default(),
            horizon: 4.0e6,
            warmup: 1.0e6,
            deviation_interval: None,
            track_ratio_histogram: false,
            trace: None,
            faults: None,
            obs: None,
            dispatch: hetsched_dispatch::DispatchSpec::default(),
            channels: None,
            per_server: PerServerMode::default(),
            malleable: None,
        }
    }

    /// The paper's §4.1 defaults over a [`FleetGroup`] shorthand —
    /// the scale-axis constructor for fleets too large to enumerate.
    pub fn paper_default_fleet(groups: &[FleetGroup]) -> Self {
        Self::paper_default(&expand_fleet(groups))
    }

    /// Expands any pending `fleet` groups into `speeds` (listed order,
    /// appended after the explicit entries) and clears the shorthand.
    /// Idempotent; the simulation constructors call it before
    /// validation, so every running model sees only the explicit vector.
    pub fn normalize_fleet(&mut self) {
        if !self.fleet.is_empty() {
            self.speeds.extend(expand_fleet(&self.fleet));
            self.fleet.clear();
        }
    }

    /// Scales horizon and warmup by `factor` (e.g. `0.05` for quick CI
    /// runs). Statistics get noisier; rankings are typically preserved.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor.is_finite(), "bad scale factor");
        self.horizon *= factor;
        self.warmup *= factor;
        self
    }

    /// Returns a copy with a different utilization.
    pub fn with_utilization(mut self, rho: f64) -> Self {
        self.utilization = rho;
        self
    }

    /// Mean job size `E[S]` in speed-1 seconds.
    pub fn mean_job_size(&self) -> f64 {
        self.job_sizes.build().mean()
    }

    /// Baseline service rate `μ = 1 / E[S]`.
    pub fn mu(&self) -> f64 {
        1.0 / self.mean_job_size()
    }

    /// Aggregate speed `Σ s_i`.
    pub fn total_speed(&self) -> f64 {
        self.speeds.iter().sum()
    }

    /// Arrival rate `λ = ρ μ Σ s_i`.
    pub fn lambda(&self) -> f64 {
        self.utilization * self.mu() * self.total_speed()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// A typed [`HetschedError`] describing the first problem found:
    /// [`HetschedError::NoComputers`] for an empty machine list,
    /// [`HetschedError::Saturated`] for ρ ≥ 1, and
    /// [`HetschedError::InvalidConfig`] for everything else.
    pub fn validate(&self) -> Result<(), HetschedError> {
        if self.speeds.is_empty() {
            return Err(HetschedError::NoComputers);
        }
        if !self.speeds.iter().all(|&s| s.is_finite() && s > 0.0) {
            return Err(HetschedError::InvalidConfig(
                "speeds must be positive and finite".into(),
            ));
        }
        let total_speed = self.total_speed();
        if !total_speed.is_finite() {
            return Err(HetschedError::InvalidConfig(format!(
                "speeds must have a finite sum, got {total_speed}"
            )));
        }
        if self.utilization >= 1.0 {
            return Err(HetschedError::Saturated);
        }
        if !(self.utilization.is_finite() && self.utilization > 0.0) {
            return Err(HetschedError::InvalidConfig(format!(
                "utilization must lie in (0,1), got {}",
                self.utilization
            )));
        }
        if !(self.horizon.is_finite() && self.horizon > 0.0) {
            return Err(HetschedError::InvalidConfig(
                "horizon must be positive".into(),
            ));
        }
        if !(self.warmup.is_finite() && self.warmup >= 0.0 && self.warmup < self.horizon) {
            return Err(HetschedError::InvalidConfig(
                "warmup must satisfy 0 ≤ warmup < horizon".into(),
            ));
        }
        self.job_sizes.validate("job_sizes")?;
        // `lambda()`'s product, reusing the sum taken above.
        let lambda = self.utilization * self.mu() * total_speed;
        if !lambda.is_normal() {
            return Err(HetschedError::InvalidConfig(format!(
                "utilization {} gives an arrival rate λ = ρ·μ·Σs = {lambda} that is not a \
                 positive normal number",
                self.utilization
            )));
        }
        self.arrivals.validate()?;
        self.discipline.validate()?;
        self.load_updates.validate()?;
        if let Some(iv) = self.deviation_interval {
            if !(iv.is_finite() && iv > 0.0) {
                return Err(HetschedError::InvalidConfig(
                    "deviation interval must be positive".into(),
                ));
            }
            // Closing a window sweeps the fleet's dispatch counters.
            self.check_window_budget("deviation_interval", iv, self.speeds.len())?;
        }
        if let Some(trace) = &self.trace {
            trace.validate()?;
        }
        if let Some(faults) = &self.faults {
            faults.validate()?;
        }
        if let Some(obs) = &self.obs {
            obs.validate()?;
            let columns = crate::obs::column_count(
                self.speeds.len(),
                self.dispatch.dispatchers,
                matches!(&self.channels, Some(c) if !c.is_reliable()),
                self.malleable.as_ref().is_some_and(|m| m.active()),
            );
            self.check_window_budget("obs.sample_interval", obs.sample_interval, columns)?;
        }
        self.dispatch.validate()?;
        if let Some(channels) = &self.channels {
            channels.validate()?;
        }
        if let Some(malleable) = &self.malleable {
            malleable.validate()?;
        }
        if let Some(faults) = &self.faults {
            if let Some(servers) = &faults.servers {
                if let Some(&bad) = servers.iter().find(|&&i| i >= self.speeds.len()) {
                    return Err(HetschedError::InvalidConfig(format!(
                        "faults.servers names computer {bad}, but the fleet has only {}",
                        self.speeds.len()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Refuses a sampling `interval` (the spec's `field`) whose windows
    /// over the horizon, times the `columns` each window fills or sweeps,
    /// exceed [`MAX_WINDOW_CELLS`].
    fn check_window_budget(
        &self,
        field: &str,
        interval: f64,
        columns: usize,
    ) -> Result<(), HetschedError> {
        let windows = self.horizon / interval;
        if windows * columns as f64 > MAX_WINDOW_CELLS {
            return Err(HetschedError::InvalidConfig(format!(
                "{field} {interval} gives {windows:.0} windows over the {} s horizon, \
                 {columns} columns each: more than the {MAX_WINDOW_CELLS} cells a run may \
                 record",
                self.horizon
            )));
        }
        Ok(())
    }
}

/// The most window cells a run may record: observability windows times
/// report columns, or deviation windows times servers.
///
/// An observability row keeps one f64 per column, so this caps a
/// replication's table at 256 MiB; a deviation window keeps one f64 but
/// closes with a sweep over every server's dispatch counter. The largest
/// committed spec, the benchmark's `lossy-faults` (33,333 windows of 120
/// s × 55 columns), records ~1.8 M cells, 18× below. A window of 10⁻³ s
/// over the paper's 4·10⁶ s horizon would ask for 4·10⁹ rows.
const MAX_WINDOW_CELLS: f64 = 33_554_432.0;

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_desim::check::{cases, Gen};
    use hetsched_desim::Rng64;
    use std::panic::catch_unwind;

    #[test]
    fn paper_default_values() {
        let cfg = ClusterConfig::paper_default(&[1.0, 2.0]);
        assert_eq!(cfg.utilization, 0.70);
        assert_eq!(cfg.horizon, 4.0e6);
        assert_eq!(cfg.warmup, 1.0e6);
        assert!((cfg.mean_job_size() - 76.8).abs() < 0.05);
        cfg.validate().unwrap();
    }

    #[test]
    fn lambda_matches_utilization() {
        let cfg = ClusterConfig::paper_default(&[1.0, 2.0, 3.0]);
        // λ = ρ μ Σs ⇒ ρ = λ / (μ Σs)
        let rho = cfg.lambda() / (cfg.mu() * cfg.total_speed());
        assert!((rho - 0.70).abs() < 1e-12);
    }

    #[test]
    fn paper_scale_produces_1_to_2_million_jobs() {
        // §4.1: "This is sufficient to generate a total of 1 to 2 million
        // jobs." Verify the default config is in that ballpark.
        let cfg = ClusterConfig::paper_default(&[
            1.0, 1.0, 1.0, 1.0, 1.0, 1.5, 1.5, 1.5, 1.5, 2.0, 2.0, 2.0, 5.0, 10.0, 12.0,
        ]);
        let expected_jobs = cfg.lambda() * cfg.horizon;
        assert!(
            (1.0e6..2.1e6).contains(&expected_jobs),
            "expected 1–2M jobs, got {expected_jobs:.0}"
        );
    }

    #[test]
    fn scaled_shrinks_horizon_and_warmup() {
        let cfg = ClusterConfig::paper_default(&[1.0]).scaled(0.1);
        assert_eq!(cfg.horizon, 4.0e5);
        assert_eq!(cfg.warmup, 1.0e5);
    }

    #[test]
    fn validation_catches_errors() {
        let good = ClusterConfig::paper_default(&[1.0]);
        assert!(good.clone().with_utilization(1.0).validate().is_err());
        assert!(good.clone().with_utilization(-0.1).validate().is_err());
        let mut bad = good.clone();
        bad.speeds.clear();
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.warmup = bad.horizon;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.deviation_interval = Some(0.0);
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.faults = Some(FaultSpec::exponential(0.0, 10.0));
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.obs = Some(crate::obs::ObsSpec::every(-5.0));
        assert!(bad.validate().is_err());
        let mut bad = good;
        bad.dispatch.dispatchers = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validation_errors_are_typed() {
        let good = ClusterConfig::paper_default(&[1.0]);
        let mut bad = good.clone();
        bad.speeds.clear();
        assert!(matches!(bad.validate(), Err(HetschedError::NoComputers)));
        assert!(matches!(
            good.clone().with_utilization(1.2).validate(),
            Err(HetschedError::Saturated)
        ));
        assert!(matches!(
            good.with_utilization(-0.1).validate(),
            Err(HetschedError::InvalidConfig(_))
        ));
    }

    #[test]
    fn config_without_faults_key_deserializes_to_none() {
        // Back-compat: configs serialized before fault injection existed
        // must parse unchanged, with faults disabled.
        let cfg = ClusterConfig::paper_default(&[1.0, 2.0]);
        let mut json = hetsched_json::Json::to_json(&cfg);
        json.as_object_mut().unwrap().remove("faults");
        let back: ClusterConfig = hetsched_json::Json::from_json(&json).unwrap();
        assert_eq!(back, cfg);
        assert!(back.faults.is_none());
    }

    #[test]
    fn config_without_obs_key_deserializes_to_none() {
        // Back-compat: configs serialized before observability existed
        // must parse unchanged, with sampling disabled.
        let cfg = ClusterConfig::paper_default(&[1.0, 2.0]);
        let mut json = hetsched_json::Json::to_json(&cfg);
        json.as_object_mut().unwrap().remove("obs");
        let back: ClusterConfig = hetsched_json::Json::from_json(&json).unwrap();
        assert_eq!(back, cfg);
        assert!(back.obs.is_none());
    }

    #[test]
    fn config_without_dispatch_key_deserializes_to_default() {
        // Back-compat: configs serialized before the dispatch tier
        // existed must parse unchanged, with the invisible D=1 tier.
        let cfg = ClusterConfig::paper_default(&[1.0, 2.0]);
        let mut json = hetsched_json::Json::to_json(&cfg);
        json.as_object_mut().unwrap().remove("dispatch");
        let back: ClusterConfig = hetsched_json::Json::from_json(&json).unwrap();
        assert_eq!(back, cfg);
        assert!(back.dispatch.dispatchers == 1 && back.dispatch.sync.is_none());
    }

    #[test]
    fn config_without_channels_key_deserializes_to_none() {
        // Back-compat: configs serialized before the unreliable message
        // planes existed must parse unchanged, with reliable channels.
        let cfg = ClusterConfig::paper_default(&[1.0, 2.0]);
        let mut json = hetsched_json::Json::to_json(&cfg);
        json.as_object_mut().unwrap().remove("channels");
        let back: ClusterConfig = hetsched_json::Json::from_json(&json).unwrap();
        assert_eq!(back, cfg);
        assert!(back.channels.is_none());
    }

    #[test]
    fn validation_catches_bad_channels_and_fault_targets() {
        let good = ClusterConfig::paper_default(&[1.0, 2.0]);
        let mut bad = good.clone();
        bad.channels = Some(crate::channel::ChannelSpec::uniform_loss(1.5));
        assert!(bad.validate().is_err());
        let mut ok = good.clone();
        ok.channels = Some(crate::channel::ChannelSpec::uniform_loss(0.01));
        ok.validate().unwrap();
        // Fault specs restricted to a server subset are bounds-checked
        // against the fleet.
        let mut bad = good.clone();
        bad.faults = Some(FaultSpec::exponential(1e5, 100.0).with_servers(&[2]));
        assert!(bad.validate().is_err());
        let mut ok = good;
        ok.faults = Some(FaultSpec::exponential(1e5, 100.0).with_servers(&[0]));
        ok.validate().unwrap();
    }

    #[test]
    fn arrival_specs_build_and_sample() {
        let mut rng = Rng64::from_seed(5);
        for spec in [
            ArrivalSpec::Poisson,
            ArrivalSpec::Hyperexp { cv: 3.0 },
            ArrivalSpec::Mmpp {
                burst_factor: 5.0,
                frac_bursty: 0.2,
                cycle: 100.0,
            },
        ] {
            let mut p = spec.build(0.5);
            assert!((p.mean_rate() - 0.5).abs() < 1e-9, "{spec:?}");
            let g = p.next_interarrival(&mut rng);
            assert!(g >= 0.0 && g.is_finite());
        }
    }

    #[test]
    fn hyperexp_cv_one_equals_poisson_rate() {
        let p = ArrivalSpec::Hyperexp { cv: 1.0 }.build(2.0);
        assert!((p.mean_rate() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn serde_round_trip() {
        let cfg = ClusterConfig::paper_default(&[1.0, 10.0]);
        let json = hetsched_json::to_string(&cfg);
        let back: ClusterConfig = hetsched_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn fleet_groups_expand_deterministically() {
        let groups = [
            FleetGroup {
                count: 3,
                speed: 1.0,
            },
            FleetGroup {
                count: 0,
                speed: 9.0,
            },
            FleetGroup {
                count: 2,
                speed: 4.0,
            },
        ];
        assert_eq!(expand_fleet(&groups), vec![1.0, 1.0, 1.0, 4.0, 4.0]);
        let cfg = ClusterConfig::paper_default_fleet(&groups);
        assert_eq!(cfg.speeds, vec![1.0, 1.0, 1.0, 4.0, 4.0]);
        cfg.validate().unwrap();
    }

    #[test]
    fn fleet_shorthand_normalizes_into_speeds() {
        // A config may spell the fleet as groups instead of an explicit
        // speeds array; after normalization the two are identical.
        let explicit = ClusterConfig::paper_default(&[1.0, 1.0, 1.0, 4.0, 4.0]);
        let mut json = hetsched_json::Json::to_json(&explicit);
        let obj = json.as_object_mut().unwrap();
        obj.remove("speeds");
        obj.insert(
            "fleet",
            hetsched_json::from_str(r#"[{"count": 3, "speed": 1.0}, {"count": 2, "speed": 4.0}]"#)
                .unwrap(),
        );
        let mut back: ClusterConfig = hetsched_json::Json::from_json(&json).unwrap();
        assert!(back.speeds.is_empty(), "expansion is deferred");
        back.normalize_fleet();
        assert_eq!(back, explicit);
        // Explicit speeds and fleet groups compose: groups append after
        // the explicit entries, and normalization is idempotent.
        let mut composed = explicit.clone();
        composed.speeds = vec![8.0];
        composed.fleet = vec![FleetGroup {
            count: 2,
            speed: 2.0,
        }];
        composed.normalize_fleet();
        composed.normalize_fleet();
        assert_eq!(composed.speeds, vec![8.0, 2.0, 2.0]);
        assert!(composed.fleet.is_empty());
        // A normalized config round-trips exactly.
        let json = hetsched_json::Json::to_json(&composed);
        let again: ClusterConfig = hetsched_json::Json::from_json(&json).unwrap();
        assert_eq!(again, composed);
    }

    #[test]
    fn config_without_malleable_key_deserializes_to_none() {
        // Back-compat: configs serialized before malleable classes
        // existed must parse unchanged, with the tier disabled.
        let cfg = ClusterConfig::paper_default(&[1.0, 2.0]);
        let mut json = hetsched_json::Json::to_json(&cfg);
        json.as_object_mut().unwrap().remove("malleable");
        let back: ClusterConfig = hetsched_json::Json::from_json(&json).unwrap();
        assert_eq!(back, cfg);
        assert!(back.malleable.is_none());
    }

    #[test]
    fn validation_catches_bad_malleable_sections() {
        let good = ClusterConfig::paper_default(&[1.0, 2.0]);
        let mut bad = good.clone();
        bad.malleable = Some(crate::malleable::MalleableSpec::power_law(1.5, 0.5));
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.malleable = Some(crate::malleable::MalleableSpec::power_law(0.5, 0.0));
        assert!(bad.validate().is_err());
        let mut ok = good;
        ok.malleable = Some(crate::malleable::MalleableSpec::power_law(0.5, 0.5));
        ok.validate().unwrap();
    }

    #[test]
    fn config_without_per_server_key_deserializes_to_full() {
        // Back-compat: configs serialized before the summary switch
        // existed must parse unchanged, with full per-server detail.
        let cfg = ClusterConfig::paper_default(&[1.0, 2.0]);
        let mut json = hetsched_json::Json::to_json(&cfg);
        json.as_object_mut().unwrap().remove("per_server");
        let back: ClusterConfig = hetsched_json::Json::from_json(&json).unwrap();
        assert_eq!(back, cfg);
        assert_eq!(back.per_server, PerServerMode::Full);
    }

    /// A parameter at or near an edge a spec can fail on: NaN, ±∞, ±0,
    /// the smallest normal f64, one, `edge` itself, or an ordinary
    /// value a little below it, a little above it or far above it.
    fn near_edge(g: &mut Gen, edge: f64) -> f64 {
        match g.draw(0u8..13) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.0,
            4 => -0.0,
            5 => f64::MIN_POSITIVE,
            6 => 1.0,
            7 => edge,
            8 => edge - g.draw(0.0..1.0),
            9 | 10 => edge + g.draw(0.0..1.0),
            _ => edge + g.draw(1.0..1e3),
        }
    }

    /// `validate` accepts a `DistSpec`, an `ArrivalSpec` or a
    /// `DisciplineSpec` exactly when `build` does not panic, for
    /// parameters drawn at and around the edges each one can fail on.
    /// Every spec kind is seen both accepted and refused.
    #[test]
    fn validate_accepts_exactly_what_builds() {
        let mut accepted = [0u32; 11];
        cases("validate_accepts_exactly_what_builds", 256, |g| {
            let (k, lo) = (near_edge(g, 0.0), near_edge(g, 0.0));
            let dists = [
                DistSpec::Exponential {
                    mean: near_edge(g, 0.0),
                },
                DistSpec::Hyperexp2 {
                    mean: near_edge(g, 0.0),
                    cv: near_edge(g, 1.0),
                },
                DistSpec::BoundedPareto {
                    k,
                    p: near_edge(g, k),
                    alpha: near_edge(g, 0.0),
                },
                DistSpec::Uniform {
                    lo,
                    hi: near_edge(g, lo),
                },
                DistSpec::Deterministic {
                    value: near_edge(g, 0.0),
                },
                DistSpec::Weibull {
                    mean: near_edge(g, 0.0),
                    shape: near_edge(g, 0.0),
                },
                DistSpec::LogNormal {
                    mean: near_edge(g, 0.0),
                    cv: near_edge(g, 0.0),
                },
            ];
            let arrivals = [
                ArrivalSpec::Poisson,
                ArrivalSpec::Hyperexp {
                    cv: near_edge(g, 1.0),
                },
                ArrivalSpec::Mmpp {
                    burst_factor: near_edge(g, 1.0),
                    frac_bursty: near_edge(g, 0.0),
                    cycle: near_edge(g, 0.0),
                },
            ];
            let rate = g.draw(1e-3..10.0);
            let discipline = DisciplineSpec::QuantumRoundRobin {
                quantum: near_edge(g, 0.0),
            };
            let verdicts = dists
                .iter()
                .map(|d| {
                    let builds = catch_unwind(|| d.build()).is_ok();
                    assert_eq!(d.validate("job_sizes").is_ok(), builds, "{d:?}");
                    builds
                })
                .chain(arrivals.iter().map(|a| {
                    let builds = catch_unwind(|| a.build(rate)).is_ok();
                    assert_eq!(a.validate().is_ok(), builds, "{a:?} at rate {rate}");
                    builds
                }))
                .chain(std::iter::once_with(|| {
                    let builds = catch_unwind(|| discipline.build(1.0)).is_ok();
                    assert_eq!(discipline.validate().is_ok(), builds, "{discipline:?}");
                    builds
                }));
            for (n, builds) in accepted.iter_mut().zip(verdicts) {
                *n += u32::from(builds);
            }
        });
        // Kind 7, Poisson arrivals, has no parameter to get wrong.
        for (kind, &n) in accepted.iter().enumerate() {
            assert!(
                0 < n && (kind == 7 || n < 256),
                "spec kind {kind}: {n} of 256 accepted"
            );
        }
    }
}
