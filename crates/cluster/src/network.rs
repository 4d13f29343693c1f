//! Load-update feedback path for dynamic policies.
//!
//! §4.2 of the paper: the scheduler's load index of a computer is updated
//! (a) immediately when it dispatches a job there, and (b) by update
//! messages after departures. "Each computer checks its load index every
//! second. Therefore, after a job is completed on a computer, it takes the
//! computer U(0,1) second to detect the load change. Then the computer
//! sends a load update message to the scheduler. The message transfer
//! delay is set to be exponentially distributed with some mean value
//! (currently set at 0.05 second)."
//!
//! [`LoadUpdateModel`] encapsulates the two delays so ablations can vary
//! them (e.g. slower networks widen the gap between Dynamic Least-Load
//! and ORR).

use hetsched_desim::Rng64;
use hetsched_error::HetschedError;

/// Delay model of the departure → scheduler feedback path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadUpdateModel {
    /// Maximum of the uniform detection delay (the paper's polling period:
    /// detection takes `U(0, detect_max)`).
    pub detect_max: f64,
    /// Mean of the exponential message transfer delay.
    pub message_delay_mean: f64,
}

hetsched_json::json_struct!(LoadUpdateModel {
    detect_max,
    message_delay_mean
});

impl Default for LoadUpdateModel {
    /// The paper's parameters: `U(0,1)` detection and `Exp(0.05 s)`
    /// transfer delay.
    fn default() -> Self {
        LoadUpdateModel {
            detect_max: 1.0,
            message_delay_mean: 0.05,
        }
    }
}

impl LoadUpdateModel {
    /// Creates a custom delay model.
    ///
    /// # Panics
    /// Panics unless both parameters are positive and finite.
    pub fn new(detect_max: f64, message_delay_mean: f64) -> Self {
        assert!(
            detect_max.is_finite() && detect_max > 0.0,
            "detect_max must be positive and finite, got {detect_max}"
        );
        assert!(
            message_delay_mean.is_finite() && message_delay_mean > 0.0,
            "message_delay_mean must be positive and finite, got {message_delay_mean}"
        );
        LoadUpdateModel {
            detect_max,
            message_delay_mean,
        }
    }

    /// Checks that both delays are finite and non-negative. A zero
    /// delay is instant feedback; `-0.0` is refused with the negatives,
    /// since it would turn the message delay's exponential rate into
    /// `−∞`.
    ///
    /// # Errors
    /// [`HetschedError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), HetschedError> {
        for (field, v) in [
            ("detect_max", self.detect_max),
            ("message_delay_mean", self.message_delay_mean),
        ] {
            if !(v.is_finite() && v.is_sign_positive()) {
                return Err(HetschedError::InvalidConfig(format!(
                    "load_updates.{field} must be finite and non-negative, got {v}"
                )));
            }
        }
        Ok(())
    }

    /// Samples the delay until the computer notices a departure.
    #[inline]
    pub fn detection_delay(&self, rng: &mut Rng64) -> f64 {
        rng.uniform(0.0, self.detect_max)
    }

    /// Samples the network delay of the update message.
    #[inline]
    pub fn message_delay(&self, rng: &mut Rng64) -> f64 {
        rng.exponential(1.0 / self.message_delay_mean)
    }
}

/// Samples the delay before the scheduler learns of a crash or repair.
///
/// `mean = 0` models instantaneous detection (e.g. the scheduler's
/// dispatch attempt fails fast); a positive mean draws an exponential
/// delay on the given RNG, modelling heartbeat-style detection. The
/// fault layer calls this with the crashing/repairing server's own
/// fault stream so the draw never perturbs the workload streams.
#[inline]
pub fn membership_notice_delay(mean: f64, rng: &mut Rng64) -> f64 {
    if mean <= 0.0 {
        0.0
    } else {
        rng.exponential(1.0 / mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let m = LoadUpdateModel::default();
        assert_eq!(m.detect_max, 1.0);
        assert_eq!(m.message_delay_mean, 0.05);
        // Mean end-to-end staleness of a departure update.
        assert!((m.detect_max / 2.0 + m.message_delay_mean - 0.55).abs() < 1e-12);
    }

    #[test]
    fn detection_delay_in_range() {
        let m = LoadUpdateModel::default();
        let mut rng = Rng64::from_seed(1);
        for _ in 0..10_000 {
            let d = m.detection_delay(&mut rng);
            assert!((0.0..1.0).contains(&d));
        }
    }

    #[test]
    fn message_delay_has_target_mean() {
        let m = LoadUpdateModel::default();
        let mut rng = Rng64::from_seed(2);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| m.message_delay(&mut rng)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.05).abs() < 0.001, "mean {mean}");
    }

    #[test]
    fn custom_model() {
        let m = LoadUpdateModel::new(2.0, 0.5);
        assert!((m.detect_max / 2.0 + m.message_delay_mean - 1.5).abs() < 1e-12);
    }

    #[test]
    fn validation_accepts_zero_delays_and_refuses_the_rest() {
        LoadUpdateModel::new(2.0, 0.5).validate().unwrap();
        let instant = LoadUpdateModel {
            detect_max: 0.0,
            message_delay_mean: 0.0,
        };
        instant.validate().unwrap();
        for bad in [-1.0, -0.0, f64::NAN, f64::INFINITY] {
            for model in [
                LoadUpdateModel {
                    detect_max: bad,
                    ..instant
                },
                LoadUpdateModel {
                    message_delay_mean: bad,
                    ..instant
                },
            ] {
                let err = model.validate().expect_err(&format!("{model:?}"));
                assert!(err.to_string().starts_with("load_updates."), "{err}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "detect_max must be positive")]
    fn rejects_zero_detection() {
        LoadUpdateModel::new(0.0, 0.05);
    }

    #[test]
    fn zero_notice_delay_is_instant_and_draws_nothing() {
        let mut rng = Rng64::from_seed(3);
        let before = rng.next_u64();
        let mut rng = Rng64::from_seed(3);
        assert_eq!(membership_notice_delay(0.0, &mut rng), 0.0);
        assert_eq!(rng.next_u64(), before, "zero mean must not consume RNG");
    }

    #[test]
    fn positive_notice_delay_has_target_mean() {
        let mut rng = Rng64::from_seed(4);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| membership_notice_delay(2.0, &mut rng)).sum();
        assert!((sum / n as f64 - 2.0).abs() < 0.05);
    }
}
