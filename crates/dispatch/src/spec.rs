//! The `dispatch:` configuration section.

use hetsched_error::HetschedError;

/// How the global arrival stream is partitioned across dispatchers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SplitterSpec {
    /// Deterministic cycling over the dispatchers — the tightest
    /// splitter: each shard sees exactly every `D`-th arrival.
    #[default]
    RoundRobin,
    /// Each arrival picks a dispatcher independently and uniformly at
    /// random (the classic iid-thinning model; each shard's stream is a
    /// random thinning of the global one).
    IidRandom,
    /// Each arrival carries a stream key drawn from `sources` logical
    /// job sources; the key hashes to a dispatcher, so one source's jobs
    /// always land on the same shard (sticky routing, the model behind
    /// consistent-hash front-ends).
    SourceHash {
        /// Number of logical job sources generating the stream.
        sources: u64,
    },
}

hetsched_json::json_tagged_enum!(SplitterSpec {
    RoundRobin,
    IidRandom,
    SourceHash { sources },
});

impl SplitterSpec {
    /// Stable lowercase name for reports and bench labels.
    pub fn label(&self) -> &'static str {
        match self {
            SplitterSpec::RoundRobin => "round_robin",
            SplitterSpec::IidRandom => "iid_random",
            SplitterSpec::SourceHash { .. } => "source_hash",
        }
    }
}

/// The periodic state-sync plane between dispatcher shards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncSpec {
    /// Simulated seconds between sync rounds. Each round snapshots every
    /// shard's mergeable state and ships the consensus back.
    pub interval: f64,
    /// One-way latency (seconds) between snapshot and apply. `0` models
    /// an instantaneous merge (a logically centralized credit table).
    pub latency: f64,
}

hetsched_json::json_struct!(SyncSpec { interval, latency = 0.0 });

impl SyncSpec {
    /// A sync plane with the given round interval and zero latency.
    pub fn every(interval: f64) -> Self {
        SyncSpec {
            interval,
            latency: 0.0,
        }
    }

    /// Same spec with the given one-way latency.
    #[must_use]
    pub fn with_latency(mut self, latency: f64) -> Self {
        self.latency = latency;
        self
    }

    /// Validates the spec.
    ///
    /// # Errors
    /// [`HetschedError::InvalidConfig`] when a field is out of range.
    pub fn validate(&self) -> Result<(), HetschedError> {
        if !(self.interval.is_finite() && self.interval > 0.0) {
            return Err(HetschedError::InvalidConfig(format!(
                "sync interval must be positive, got {}",
                self.interval
            )));
        }
        if !(self.latency.is_finite() && self.latency >= 0.0) {
            return Err(HetschedError::InvalidConfig(format!(
                "sync latency must be non-negative, got {}",
                self.latency
            )));
        }
        Ok(())
    }
}

/// How the dispatcher shards coordinate their Algorithm-2 rotation
/// state.
///
/// The naive tier leaves every shard blind to the arrivals the other
/// shards handle, so each shard equalizes gaps in its *own* substream
/// and the superposed per-computer streams lose the global spacing
/// Algorithm 2 exists to provide (~+10% response ratio at `D = 16`),
/// while the elementwise-mean credit sync phase-locks the shards and
/// makes it worse. Phase-preserving coordination closes the gap with
/// three mechanisms:
///
/// 1. the splitter stamps every routed arrival with a global sequence
///    number, and each shard advances its private rotation machine by
///    the stamped gap (the arrivals its peers handled) before making a
///    real decision — each shard lazily replays the *global* Algorithm-2
///    sequence, so the union of the shards' decisions reconstructs the
///    single-dispatcher dispatch order;
/// 2. sync rounds reconcile credit *levels* (a per-shard constant
///    shift toward the tier mean, which cannot move any shard's argmin)
///    instead of overwriting phases with the tier mean;
/// 3. sync rounds also carry each shard's realized substream arrival
///    rate, whose tier total feeds Algorithm 1 re-optimization in
///    rate-aware policies (`ReORR`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Coordination {
    /// Independent shards; sync (when configured) is the elementwise
    /// mean merge. The historical tier — the default, so every
    /// pre-existing configuration keeps its exact behavior.
    #[default]
    Naive,
    /// Sequence-stamped splitter + virtual rotation advance + level
    /// (not phase) credit merge + realized-rate α re-optimization.
    PhasePreserving,
}

hetsched_json::json_unit_enum!(Coordination {
    Naive,
    PhasePreserving
});

impl Coordination {
    /// Stable lowercase name for reports and bench labels.
    pub fn label(&self) -> &'static str {
        match self {
            Coordination::Naive => "naive",
            Coordination::PhasePreserving => "phase_preserving",
        }
    }
}

/// The front-end tier configuration (`ClusterConfig::dispatch`).
///
/// The default — one dispatcher, no sync — reproduces the
/// single-dispatcher simulation bit-for-bit, so configurations
/// serialized before the tier existed parse (and run) unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchSpec {
    /// Number of dispatcher shards `D`.
    pub dispatchers: usize,
    /// How arrivals are partitioned across the shards.
    pub splitter: SplitterSpec,
    /// Optional periodic state-sync between shards; `None` leaves the
    /// shards fully independent.
    pub sync: Option<SyncSpec>,
    /// How the shards coordinate rotation state (inert at `D = 1`).
    pub coordination: Coordination,
}

hetsched_json::json_struct!(DispatchSpec {
    dispatchers = 1,
    splitter = SplitterSpec::default(),
    sync,
    coordination = Coordination::default(),
});

impl Default for DispatchSpec {
    fn default() -> Self {
        DispatchSpec {
            dispatchers: 1,
            splitter: SplitterSpec::default(),
            sync: None,
            coordination: Coordination::default(),
        }
    }
}

impl DispatchSpec {
    /// A tier of `d` independent dispatchers with the given splitter.
    pub fn sharded(d: usize, splitter: SplitterSpec) -> Self {
        DispatchSpec {
            dispatchers: d,
            splitter,
            sync: None,
            coordination: Coordination::default(),
        }
    }

    /// Same tier with a state-sync plane.
    #[must_use]
    pub fn with_sync(mut self, sync: SyncSpec) -> Self {
        self.sync = Some(sync);
        self
    }

    /// Same tier with phase-preserving shard coordination.
    #[must_use]
    pub fn coordinated(mut self) -> Self {
        self.coordination = Coordination::PhasePreserving;
        self
    }

    /// Validates the spec.
    ///
    /// # Errors
    /// [`HetschedError::InvalidConfig`] when a field is out of range.
    pub fn validate(&self) -> Result<(), HetschedError> {
        if self.dispatchers == 0 {
            return Err(HetschedError::InvalidConfig(
                "dispatch tier needs at least one dispatcher".into(),
            ));
        }
        if let SplitterSpec::SourceHash { sources } = self.splitter {
            if sources == 0 {
                return Err(HetschedError::InvalidConfig(
                    "source-hash splitter needs at least one source".into(),
                ));
            }
        }
        if let Some(sync) = &self.sync {
            sync.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_trivial_single_dispatcher() {
        let spec = DispatchSpec::default();
        assert_eq!(spec.dispatchers, 1);
        assert!(spec.sync.is_none());
        spec.validate().unwrap();
    }

    #[test]
    fn sharded_builders_compose() {
        let spec = DispatchSpec::sharded(4, SplitterSpec::IidRandom)
            .with_sync(SyncSpec::every(500.0).with_latency(0.05));
        assert_eq!(spec.dispatchers, 4);
        let sync = spec.sync.unwrap();
        assert_eq!(sync.interval, 500.0);
        assert_eq!(sync.latency, 0.05);
        spec.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_fields() {
        let bad = DispatchSpec {
            dispatchers: 0,
            ..DispatchSpec::default()
        };
        assert!(bad.validate().is_err());
        let bad = DispatchSpec::sharded(2, SplitterSpec::SourceHash { sources: 0 });
        assert!(bad.validate().is_err());
        let bad =
            DispatchSpec::sharded(2, SplitterSpec::RoundRobin).with_sync(SyncSpec::every(0.0));
        assert!(bad.validate().is_err());
        let bad = DispatchSpec::sharded(2, SplitterSpec::RoundRobin)
            .with_sync(SyncSpec::every(10.0).with_latency(-1.0));
        assert!(bad.validate().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let spec = DispatchSpec::sharded(8, SplitterSpec::SourceHash { sources: 1000 })
            .with_sync(SyncSpec::every(250.0).with_latency(1.5));
        let json = hetsched_json::to_string(&spec);
        let back: DispatchSpec = hetsched_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn empty_object_deserializes_to_default() {
        // Back-compat inside the section itself: every field defaults.
        let spec: DispatchSpec = hetsched_json::from_str("{}").unwrap();
        assert_eq!(spec, DispatchSpec::default());
        assert_eq!(spec.coordination, Coordination::Naive);
    }

    #[test]
    fn coordination_round_trips_and_defaults_to_naive() {
        let spec = DispatchSpec::sharded(16, SplitterSpec::IidRandom)
            .with_sync(SyncSpec::every(500.0).with_latency(5.0))
            .coordinated();
        assert_eq!(spec.coordination, Coordination::PhasePreserving);
        assert_eq!(spec.coordination.label(), "phase_preserving");
        spec.validate().unwrap();
        let json = hetsched_json::to_string(&spec);
        let back: DispatchSpec = hetsched_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        // A pre-coordination serialization (no field) parses as naive.
        let old: DispatchSpec = hetsched_json::from_str(
            "{\"dispatchers\": 4, \"splitter\": {\"kind\": \"round_robin\"}}",
        )
        .unwrap();
        assert_eq!(old.coordination, Coordination::Naive);
    }
}
