//! Per-job trace capture.
//!
//! For debugging a policy or analysing a run beyond aggregate statistics
//! it is invaluable to see individual jobs: when each arrived, where it
//! went, how large it was, when it finished. A paper-scale run has 1–2
//! million jobs, so the collector supports *sampling* (keep every k-th
//! counted job) and a hard cap, keeping memory bounded while remaining
//! statistically representative.
//!
//! Enabled via [`crate::ClusterConfig::trace`]; records land in
//! [`crate::RunStats::trace`] and can be exported as JSON lines for
//! external tooling.

use hetsched_error::HetschedError;

/// Sampling configuration for the trace collector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpec {
    /// Keep every `sample_every`-th counted job (1 = every job).
    pub sample_every: u64,
    /// Hard cap on retained records (oldest-first truncation: collection
    /// simply stops once full, keeping the record set contiguous in
    /// time).
    pub max_records: usize,
}

hetsched_json::json_struct!(TraceSpec {
    sample_every,
    max_records
});

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            sample_every: 1,
            max_records: 1_000_000,
        }
    }
}

impl TraceSpec {
    /// Validates the spec.
    ///
    /// # Errors
    /// [`HetschedError::InvalidConfig`] when a field is out of range.
    pub fn validate(&self) -> Result<(), HetschedError> {
        if self.sample_every == 0 {
            return Err(HetschedError::InvalidConfig(
                "trace sample_every must be ≥ 1".into(),
            ));
        }
        if self.max_records == 0 {
            return Err(HetschedError::InvalidConfig(
                "trace max_records must be ≥ 1".into(),
            ));
        }
        Ok(())
    }
}

/// One traced job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobTrace {
    /// Arrival time at the scheduler (seconds).
    pub arrival: f64,
    /// Completion time (seconds).
    pub completion: f64,
    /// Job size in speed-1 seconds.
    pub size: f64,
    /// Server the job ran on.
    pub server: usize,
}

hetsched_json::json_struct!(JobTrace {
    arrival,
    completion,
    size,
    server,
});

impl JobTrace {
    /// Response time `completion − arrival`.
    pub fn response_time(&self) -> f64 {
        self.completion - self.arrival
    }
}

/// Collects sampled job traces during a run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCollector {
    spec: TraceSpec,
    seen: u64,
    records: Vec<JobTrace>,
    dropped: u64,
}

hetsched_json::json_struct!(TraceCollector {
    spec,
    seen,
    records,
    dropped,
});

impl TraceCollector {
    /// Creates a collector.
    ///
    /// # Errors
    /// Propagates the [`HetschedError::InvalidConfig`] from
    /// [`TraceSpec::validate`] instead of panicking, so a bad spec
    /// surfaces as a typed error at simulation construction.
    pub fn new(spec: TraceSpec) -> Result<Self, HetschedError> {
        spec.validate()?;
        Ok(TraceCollector {
            spec,
            seen: 0,
            records: Vec::new(),
            dropped: 0,
        })
    }

    /// Offers one completed counted job to the collector.
    pub fn record(&mut self, trace: JobTrace) {
        self.seen += 1;
        if !(self.seen - 1).is_multiple_of(self.spec.sample_every) {
            return;
        }
        if self.records.len() >= self.spec.max_records {
            self.dropped += 1;
            return;
        }
        self.records.push(trace);
    }

    /// The retained records, in completion order.
    pub fn records(&self) -> &[JobTrace] {
        &self.records
    }

    /// Jobs offered to the collector (sampled or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Sampled jobs that were dropped because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Folds another collector's records into this one, preserving the
    /// other collector's record order and this collector's cap. Used by
    /// the parallel engine to combine per-shard collectors in
    /// deterministic shard order.
    pub fn absorb(&mut self, other: TraceCollector) {
        self.seen += other.seen;
        self.dropped += other.dropped;
        for r in other.records {
            if self.records.len() >= self.spec.max_records {
                self.dropped += 1;
            } else {
                self.records.push(r);
            }
        }
    }

    /// Writes the records as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 96);
        for r in &self.records {
            out.push_str(&hetsched_json::to_string(r));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
impl JobTrace {
    /// Response ratio `response_time / size` (a test oracle).
    pub(crate) fn response_ratio(&self) -> f64 {
        self.response_time() / self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(arrival: f64, completion: f64) -> JobTrace {
        JobTrace {
            arrival,
            completion,
            size: 2.0,
            server: 0,
        }
    }

    #[test]
    fn records_everything_by_default() {
        let mut c = TraceCollector::new(TraceSpec::default()).unwrap();
        for i in 0..100 {
            c.record(t(i as f64, i as f64 + 1.0));
        }
        assert_eq!(c.records().len(), 100);
        assert_eq!(c.seen(), 100);
        assert_eq!(c.dropped(), 0);
    }

    #[test]
    fn sampling_keeps_every_kth() {
        let mut c = TraceCollector::new(TraceSpec {
            sample_every: 10,
            max_records: 1000,
        })
        .unwrap();
        for i in 0..100 {
            c.record(t(i as f64, i as f64 + 1.0));
        }
        assert_eq!(c.records().len(), 10);
        // The first job is always kept.
        assert_eq!(c.records()[0].arrival, 0.0);
        assert_eq!(c.records()[1].arrival, 10.0);
    }

    #[test]
    fn cap_stops_collection() {
        let mut c = TraceCollector::new(TraceSpec {
            sample_every: 1,
            max_records: 5,
        })
        .unwrap();
        for i in 0..10 {
            c.record(t(i as f64, i as f64 + 1.0));
        }
        assert_eq!(c.records().len(), 5);
        assert_eq!(c.dropped(), 5);
        // The retained prefix is contiguous in time.
        assert_eq!(c.records()[4].arrival, 4.0);
    }

    #[test]
    fn derived_metrics() {
        let j = JobTrace {
            arrival: 10.0,
            completion: 16.0,
            size: 2.0,
            server: 3,
        };
        assert_eq!(j.response_time(), 6.0);
        assert_eq!(j.response_ratio(), 3.0);
    }

    #[test]
    fn jsonl_round_trips() {
        let mut c = TraceCollector::new(TraceSpec::default()).unwrap();
        c.record(t(1.0, 2.0));
        c.record(t(3.0, 5.0));
        let jsonl = c.to_jsonl();
        let lines: Vec<&str> = jsonl.trim().lines().collect();
        assert_eq!(lines.len(), 2);
        let back: JobTrace = hetsched_json::from_str(lines[0]).unwrap();
        assert_eq!(back, t(1.0, 2.0));
    }

    #[test]
    fn spec_validation() {
        assert!(TraceSpec {
            sample_every: 0,
            max_records: 1
        }
        .validate()
        .is_err());
        assert!(TraceSpec {
            sample_every: 1,
            max_records: 0
        }
        .validate()
        .is_err());
        assert!(TraceSpec::default().validate().is_ok());
    }

    #[test]
    fn collector_rejects_bad_spec_with_typed_error() {
        let err = TraceCollector::new(TraceSpec {
            sample_every: 0,
            max_records: 1,
        })
        .unwrap_err();
        assert!(matches!(err, HetschedError::InvalidConfig(_)));
        assert!(err.to_string().contains("sample_every"));
    }
}
