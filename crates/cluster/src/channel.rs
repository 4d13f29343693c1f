//! Unreliable message planes and the recovery machinery on top of them.
//!
//! Every message the simulation exchanges travels one of three logical
//! planes:
//!
//! 1. **dispatch** — dispatcher → server job handoff;
//! 2. **load** — server → dispatcher load-index updates (§4.2's
//!    feedback path, [`crate::network::LoadUpdateModel`]);
//! 3. **sync** — the shard state-sync plane (`hetsched-dispatch`).
//!
//! A [`ChannelSpec`] makes any subset of those planes unreliable: each
//! plane gets an independent loss probability, duplication probability,
//! reordering jitter, and optional scheduled partition windows. All
//! channel randomness lives on dedicated RNG streams at
//! [`CHANNEL_STREAM_BASE`] so enabling a knob never perturbs the
//! arrival/size/dispatch/network streams, and per-shard sub-streams keep
//! the parallel engine bit-identical at every thread count.
//!
//! The recovery machinery is configured here too: [`RetrySpec`] turns
//! fire-and-forget dispatch into ack-based dispatch with deterministic
//! timeout, exponential backoff, and bounded retries; [`HedgeSpec`]
//! additionally sends a not-yet-acked dispatch once more, to a fresh
//! pick of the dispatcher's policy, after a hedge delay (the first copy
//! to land wins; resolving the transfer disarms its retry and hedge
//! timers, and the loser's copy is dropped on arrival).
//!
//! The house invariant: [`ChannelSpec::reliable()`] (and `channels:
//! null`, the default) is **bit-identical** to the seed engine at
//! every `--sim-threads` count — the runtime is simply not constructed
//! when the spec is reliable.

use hetsched_error::HetschedError;

/// Reserved RNG stream base for channel randomness.
///
/// Classic engine: `base + 0/1/2` = dispatch/load/sync planes. The
/// parallel engine gives shard `s` the disjoint block
/// `base + 16 + 4·s + {0, 1, 2}` so results stay invariant across
/// shard-to-thread placements.
pub const CHANNEL_STREAM_BASE: u64 = 1 << 42;

/// Unreliability model for one message plane.
///
/// The all-zero default is a perfectly reliable plane; every field is
/// defaulted so partial JSON (`{"loss": 0.01}`) parses.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlaneSpec {
    /// Probability that a message is silently dropped.
    pub loss: f64,
    /// Probability that a delivered message is delivered twice (the
    /// duplicate takes an independent jitter draw, so copies reorder).
    pub duplicate: f64,
    /// Mean of an exponential extra delay added to each delivered
    /// message (0 = no reordering; messages keep their natural order).
    pub jitter: f64,
    /// Scheduled partition windows `(start, end)` in simulated seconds:
    /// every message sent while `start <= t < end` is dropped,
    /// deterministically and without consuming randomness.
    pub partitions: Vec<(f64, f64)>,
}

hetsched_json::json_struct!(PlaneSpec {
    loss = 0.0,
    duplicate = 0.0,
    jitter = 0.0,
    partitions = Vec::new(),
});

impl PlaneSpec {
    /// A plane that only drops messages, with probability `loss`.
    pub fn lossy(loss: f64) -> Self {
        PlaneSpec {
            loss,
            ..PlaneSpec::default()
        }
    }

    /// Whether the plane is the reliable no-op (nothing to simulate).
    pub fn is_reliable(&self) -> bool {
        self.loss == 0.0
            && self.duplicate == 0.0
            && self.jitter == 0.0
            && self.partitions.is_empty()
    }

    /// Whether `t` falls inside a scheduled partition window.
    pub fn in_partition(&self, t: f64) -> bool {
        self.partitions.iter().any(|&(s, e)| t >= s && t < e)
    }

    /// Validates the plane's knobs.
    ///
    /// # Errors
    /// [`HetschedError::InvalidConfig`] naming the offending field.
    pub fn validate(&self, plane: &str) -> Result<(), HetschedError> {
        for (name, p) in [("loss", self.loss), ("duplicate", self.duplicate)] {
            if !(p.is_finite() && (0.0..1.0).contains(&p)) {
                return Err(HetschedError::InvalidConfig(format!(
                    "{plane} plane {name} probability must lie in [0, 1), got {p}"
                )));
            }
        }
        if !(self.jitter.is_finite() && self.jitter >= 0.0) {
            return Err(HetschedError::InvalidConfig(format!(
                "{plane} plane jitter must be a non-negative mean delay, got {}",
                self.jitter
            )));
        }
        for &(s, e) in &self.partitions {
            if !(s.is_finite() && e.is_finite() && s >= 0.0 && e > s) {
                return Err(HetschedError::InvalidConfig(format!(
                    "{plane} plane partition windows need 0 <= start < end, got ({s}, {e})"
                )));
            }
        }
        Ok(())
    }
}

fn default_backoff() -> f64 {
    2.0
}

fn default_max_retries() -> u32 {
    3
}

/// Ack-based dispatch with timeout, exponential backoff, and bounded
/// retries.
///
/// Attempt `k` (0-based) arms a retransmit timer at
/// `timeout · backoff^k`; after `max_retries` retransmissions the job is
/// declared lost (orphan detection — the slab entry is reclaimed and the
/// loss counted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrySpec {
    /// Seconds before an unacked dispatch is retransmitted.
    pub timeout: f64,
    /// Multiplier applied to the timeout per retransmission (≥ 1).
    pub backoff: f64,
    /// Retransmissions allowed before the job is declared lost.
    pub max_retries: u32,
}

hetsched_json::json_struct!(RetrySpec {
    timeout,
    backoff = default_backoff(),
    max_retries = default_max_retries(),
});

impl RetrySpec {
    /// A retry policy with the given base timeout, 2× backoff, and 3
    /// retransmissions.
    pub fn after(timeout: f64) -> Self {
        RetrySpec {
            timeout,
            backoff: default_backoff(),
            max_retries: default_max_retries(),
        }
    }

    /// The timer delay armed by attempt `k` (0-based).
    pub fn delay_for_attempt(&self, attempt: u32) -> f64 {
        self.timeout * self.backoff.powi(attempt.min(30) as i32)
    }

    /// Validates the retry knobs.
    ///
    /// # Errors
    /// [`HetschedError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), HetschedError> {
        if !(self.timeout.is_finite() && self.timeout > 0.0) {
            return Err(HetschedError::InvalidConfig(format!(
                "retry timeout must be positive, got {}",
                self.timeout
            )));
        }
        if !(self.backoff.is_finite() && self.backoff >= 1.0) {
            return Err(HetschedError::InvalidConfig(format!(
                "retry backoff must be >= 1, got {}",
                self.backoff
            )));
        }
        // The delays grow with the attempt, so the last retransmission
        // arms the longest timer.
        let longest = self.delay_for_attempt(self.max_retries);
        if !longest.is_finite() {
            return Err(HetschedError::InvalidConfig(format!(
                "retry backoff {} overflows the timer delay by max_retries = {} \
                 (timeout · backoff^max_retries = {longest})",
                self.backoff, self.max_retries
            )));
        }
        Ok(())
    }
}

/// Hedged dispatch: if the first attempt is still unacked after `delay`
/// seconds, send one more copy of the job to a fresh pick of the owning
/// dispatcher's policy (possibly the same server). The first copy to
/// land wins; the loser becomes an orphan, dropped on arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeSpec {
    /// Seconds of unacked silence before the hedge fires.
    pub delay: f64,
}

hetsched_json::json_struct!(HedgeSpec { delay });

impl HedgeSpec {
    /// Validates the hedge knobs.
    ///
    /// # Errors
    /// [`HetschedError::InvalidConfig`] when the delay is out of range.
    pub fn validate(&self) -> Result<(), HetschedError> {
        if !(self.delay.is_finite() && self.delay > 0.0) {
            return Err(HetschedError::InvalidConfig(format!(
                "hedge delay must be positive, got {}",
                self.delay
            )));
        }
        Ok(())
    }
}

/// The full unreliable-messaging configuration
/// (`ClusterConfig::channels`).
///
/// The default — every plane reliable, no retries, no hedging — is
/// structurally invisible: the simulation constructs no channel runtime,
/// draws no channel randomness, and schedules no timer events, so
/// results are bit-identical to a configuration without the section.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChannelSpec {
    /// Dispatcher → server job handoff plane.
    pub dispatch: PlaneSpec,
    /// Server → dispatcher load-update plane.
    pub load: PlaneSpec,
    /// Shard state-sync plane.
    pub sync: PlaneSpec,
    /// Ack-based dispatch with timeout/backoff/bounded retries; `None`
    /// leaves dispatch fire-and-forget (a lost dispatch loses the job).
    pub retry: Option<RetrySpec>,
    /// Hedged dispatch after a delay; requires `retry` (the hedge rides
    /// the same ack machinery).
    pub hedge: Option<HedgeSpec>,
}

hetsched_json::json_struct!(ChannelSpec {
    dispatch = PlaneSpec::default(),
    load = PlaneSpec::default(),
    sync = PlaneSpec::default(),
    retry,
    hedge,
});

impl ChannelSpec {
    /// The reliable no-op spec — bit-identical to no `channels:` section.
    pub fn reliable() -> Self {
        ChannelSpec::default()
    }

    /// Every plane drops messages with the same probability `loss`.
    pub fn uniform_loss(loss: f64) -> Self {
        ChannelSpec {
            dispatch: PlaneSpec::lossy(loss),
            load: PlaneSpec::lossy(loss),
            sync: PlaneSpec::lossy(loss),
            retry: None,
            hedge: None,
        }
    }

    /// Same spec with ack-based retries enabled.
    #[must_use]
    pub fn with_retry(mut self, retry: RetrySpec) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Same spec with hedged dispatch enabled.
    #[must_use]
    pub fn with_hedge(mut self, hedge: HedgeSpec) -> Self {
        self.hedge = Some(hedge);
        self
    }

    /// Whether the whole section is the structurally invisible no-op.
    pub fn is_reliable(&self) -> bool {
        self.dispatch.is_reliable()
            && self.load.is_reliable()
            && self.sync.is_reliable()
            && self.retry.is_none()
            && self.hedge.is_none()
    }

    /// Validates every knob.
    ///
    /// # Errors
    /// [`HetschedError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), HetschedError> {
        self.dispatch.validate("dispatch")?;
        self.load.validate("load")?;
        self.sync.validate("sync")?;
        if let Some(retry) = &self.retry {
            retry.validate()?;
        }
        if let Some(hedge) = &self.hedge {
            hedge.validate()?;
            if self.retry.is_none() {
                return Err(HetschedError::InvalidConfig(
                    "hedged dispatch requires a retry spec (the hedge rides the ack machinery)"
                        .into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_reliable_and_valid() {
        let spec = ChannelSpec::default();
        assert!(spec.is_reliable());
        assert_eq!(spec, ChannelSpec::reliable());
        spec.validate().unwrap();
    }

    #[test]
    fn uniform_loss_builders_compose() {
        let spec = ChannelSpec::uniform_loss(0.01)
            .with_retry(RetrySpec::after(5.0))
            .with_hedge(HedgeSpec { delay: 20.0 });
        assert!(!spec.is_reliable());
        assert_eq!(spec.dispatch.loss, 0.01);
        assert_eq!(spec.load.loss, 0.01);
        assert_eq!(spec.sync.loss, 0.01);
        let retry = spec.retry.unwrap();
        assert_eq!(retry.timeout, 5.0);
        assert_eq!(retry.backoff, 2.0);
        assert_eq!(retry.max_retries, 3);
        spec.validate().unwrap();
    }

    #[test]
    fn backoff_schedule_is_exponential() {
        let retry = RetrySpec::after(4.0);
        assert_eq!(retry.delay_for_attempt(0), 4.0);
        assert_eq!(retry.delay_for_attempt(1), 8.0);
        assert_eq!(retry.delay_for_attempt(2), 16.0);
    }

    #[test]
    fn partition_windows_are_half_open() {
        let plane = PlaneSpec {
            partitions: vec![(10.0, 20.0), (50.0, 60.0)],
            ..PlaneSpec::default()
        };
        assert!(!plane.is_reliable());
        assert!(!plane.in_partition(9.9));
        assert!(plane.in_partition(10.0));
        assert!(plane.in_partition(19.9));
        assert!(!plane.in_partition(20.0));
        assert!(plane.in_partition(55.0));
        plane.validate("load").unwrap();
    }

    #[test]
    fn validation_catches_bad_fields() {
        assert!(ChannelSpec {
            dispatch: PlaneSpec::lossy(1.0),
            ..ChannelSpec::default()
        }
        .validate()
        .is_err());
        assert!(ChannelSpec {
            load: PlaneSpec::lossy(-0.1),
            ..ChannelSpec::default()
        }
        .validate()
        .is_err());
        assert!(ChannelSpec {
            sync: PlaneSpec {
                jitter: f64::NAN,
                ..PlaneSpec::default()
            },
            ..ChannelSpec::default()
        }
        .validate()
        .is_err());
        assert!(ChannelSpec {
            load: PlaneSpec {
                partitions: vec![(30.0, 10.0)],
                ..PlaneSpec::default()
            },
            ..ChannelSpec::default()
        }
        .validate()
        .is_err());
        assert!(ChannelSpec::reliable()
            .with_retry(RetrySpec {
                timeout: 0.0,
                backoff: 2.0,
                max_retries: 3
            })
            .validate()
            .is_err());
        assert!(ChannelSpec::reliable()
            .with_retry(RetrySpec {
                timeout: 1.0,
                backoff: 0.5,
                max_retries: 3
            })
            .validate()
            .is_err());
        // Hedging without the ack machinery is rejected.
        assert!(ChannelSpec::reliable()
            .with_hedge(HedgeSpec { delay: 5.0 })
            .validate()
            .is_err());
        assert!(ChannelSpec::reliable()
            .with_retry(RetrySpec::after(1.0))
            .with_hedge(HedgeSpec { delay: 0.0 })
            .validate()
            .is_err());
    }

    #[test]
    fn backoff_overflowing_the_timer_delay_is_rejected() {
        let retry = RetrySpec {
            timeout: 30.0,
            backoff: 1e307,
            max_retries: 3,
        };
        let err = retry.validate().unwrap_err().to_string();
        assert!(
            err.contains("backoff") && err.contains("max_retries"),
            "{err}"
        );
        assert!(ChannelSpec::uniform_loss(0.01)
            .with_retry(retry)
            .validate()
            .is_err());
        // Without a retransmission the backoff never multiplies in.
        assert!(RetrySpec {
            max_retries: 0,
            ..retry
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn serde_round_trip_and_partial_json() {
        let spec = ChannelSpec::uniform_loss(0.05).with_retry(RetrySpec::after(10.0));
        let json = hetsched_json::to_string(&spec);
        let back: ChannelSpec = hetsched_json::from_str(&json).unwrap();
        assert_eq!(spec, back);

        // Partial JSON fills every omitted knob with the reliable default.
        let sparse: ChannelSpec =
            hetsched_json::from_str(r#"{"dispatch": {"loss": 0.01}}"#).unwrap();
        assert_eq!(sparse.dispatch.loss, 0.01);
        assert!(sparse.load.is_reliable());
        assert!(sparse.sync.is_reliable());
        assert!(sparse.retry.is_none());

        // An empty object is the reliable spec.
        let empty: ChannelSpec = hetsched_json::from_str("{}").unwrap();
        assert!(empty.is_reliable());

        // Retry sub-defaults apply.
        let retry: RetrySpec = hetsched_json::from_str(r#"{"timeout": 2.5}"#).unwrap();
        assert_eq!(retry.backoff, 2.0);
        assert_eq!(retry.max_retries, 3);
    }
}
