//! The observability sampling contract.

use hetsched_error::HetschedError;

/// The paper's Fig. 2 sampling interval (seconds): the default window.
pub const DEFAULT_SAMPLE_INTERVAL: f64 = 120.0;

/// Configuration of the run-level observability plane.
///
/// Attached to a cluster configuration as `Option<ObsSpec>`: `None`
/// (the default) means observability is fully disabled and the
/// simulation carries no observability state at all.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsSpec {
    /// Length of one sampling window in simulated seconds.
    ///
    /// Windows start at `t = 0` and close at `k · sample_interval`
    /// using the same arithmetic as the Fig. 2 deviation tracker, so the
    /// `deviation` column sampled at the deviation interval reproduces
    /// `metrics::DeviationTracker` exactly.
    pub sample_interval: f64,
}

hetsched_json::json_struct!(ObsSpec {
    sample_interval = DEFAULT_SAMPLE_INTERVAL,
});

impl Default for ObsSpec {
    fn default() -> Self {
        ObsSpec {
            sample_interval: DEFAULT_SAMPLE_INTERVAL,
        }
    }
}

impl ObsSpec {
    /// A spec sampling every `sample_interval` simulated seconds.
    pub fn every(sample_interval: f64) -> Self {
        ObsSpec { sample_interval }
    }

    /// Checks the spec describes a usable sampling plan.
    ///
    /// # Errors
    /// [`HetschedError::InvalidConfig`] naming `obs.sample_interval`
    /// unless the window is positive and finite.
    pub fn validate(&self) -> Result<(), HetschedError> {
        if !self.sample_interval.is_finite() || self.sample_interval <= 0.0 {
            return Err(HetschedError::InvalidConfig(format!(
                "obs.sample_interval must be positive and finite, got {}",
                self.sample_interval
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_fig2_interval() {
        assert_eq!(ObsSpec::default().sample_interval, 120.0);
    }

    #[test]
    fn validate_rejects_degenerate_intervals() {
        assert!(ObsSpec::every(120.0).validate().is_ok());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            match ObsSpec::every(bad).validate() {
                Err(HetschedError::InvalidConfig(msg)) => {
                    assert!(msg.contains("obs.sample_interval"), "{msg}")
                }
                other => panic!("{bad}: expected an InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_json_object_uses_default_interval() {
        let spec: ObsSpec = hetsched_json::from_str("{}").expect("deserializes");
        assert_eq!(spec, ObsSpec::default());
    }

    #[test]
    fn round_trips_through_json() {
        let spec = ObsSpec::every(30.0);
        let json = hetsched_json::to_string(&spec);
        let back: ObsSpec = hetsched_json::from_str(&json).expect("deserializes");
        assert_eq!(back, spec);
    }
}
