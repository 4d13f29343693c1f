//! The exportable time-series report and kernel counter mirror.

use hetsched_desim::FelStats;
use hetsched_error::HetschedError;
use hetsched_json::{Json, Writer};

/// JSON-writable mirror of the event kernel's lifetime traffic counters.
///
/// `hetsched-desim` is dependency-free, so its [`FelStats`] has no JSON
/// form; this is the view that lands in run reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Total events ever scheduled; every arm of a re-armable timer
    /// counts as one.
    pub scheduled: u64,
    /// Total events ever delivered, timer firings included.
    pub popped: u64,
    /// Total pending events removed before delivery: cancelled events,
    /// and timer firings superseded by a re-arm (a server wake moved by
    /// an arrival) or disarmed.
    pub cancelled: u64,
    /// Largest number of events ever pending at once, counting each
    /// armed timer as one.
    pub high_water: u64,
}

hetsched_json::json_struct!(KernelCounters {
    scheduled,
    popped,
    cancelled,
    high_water,
});

impl From<FelStats> for KernelCounters {
    fn from(s: FelStats) -> Self {
        KernelCounters {
            scheduled: s.scheduled,
            popped: s.popped,
            cancelled: s.cancelled,
            high_water: s.high_water,
        }
    }
}

/// A columnar time series: one row per sampling window, one column per
/// observed quantity, plus the kernel counters captured at the end of
/// the run.
///
/// Stored columnar (names once, rows as bare `f64` vectors) so a
/// paper-scale run with tens of thousands of windows stays compact in
/// `RunStats` JSON; the exporters denormalize to the usual
/// one-object-per-line JSONL / header-plus-rows CSV shapes.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsReport {
    /// Length of one sampling window in simulated seconds.
    pub sample_interval: f64,
    /// Column names, in row order.
    pub columns: Vec<String>,
    /// Window-boundary timestamps, strictly increasing.
    pub times: Vec<f64>,
    /// One row of values per timestamp.
    pub rows: Vec<Vec<f64>>,
    /// Event-kernel traffic counters at the end of the run.
    pub kernel: KernelCounters,
}

hetsched_json::json_struct!(ObsReport {
    sample_interval,
    columns,
    times,
    rows,
    kernel,
});

impl ObsReport {
    /// Number of sampled windows.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether no window was ever sampled.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The values of one column by name, if present.
    pub fn column(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.columns.iter().position(|c| c == name)?;
        Some(self.rows.iter().map(|r| r[idx]).collect())
    }

    /// Collapses per-server indexed columns (`prefix[0]`, `prefix[1]`,
    /// …) into four fleet-summary columns `prefix_min` / `prefix_mean` /
    /// `prefix_max` / `prefix_p99` per prefix, computed row by row.
    ///
    /// This is the observability side of the `per_server: summary`
    /// switch: a 10,000-server run would otherwise carry 30,000 columns
    /// per sampling window. Prefixes with no indexed column are left
    /// untouched; non-indexed columns keep their order, and the summary
    /// columns append in prefix order.
    pub fn collapse_indexed_columns(&mut self, prefixes: &[&str]) {
        // Partition column indices: per-prefix indexed groups vs. kept.
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); prefixes.len()];
        let mut kept: Vec<usize> = Vec::new();
        'cols: for (ci, name) in self.columns.iter().enumerate() {
            for (pi, p) in prefixes.iter().enumerate() {
                if name.len() > p.len() + 2
                    && name.starts_with(p)
                    && name.as_bytes()[p.len()] == b'['
                    && name.ends_with(']')
                {
                    groups[pi].push(ci);
                    continue 'cols;
                }
            }
            kept.push(ci);
        }
        if groups.iter().all(|g| g.is_empty()) {
            return;
        }
        let mut columns: Vec<String> = kept.iter().map(|&ci| self.columns[ci].clone()).collect();
        for (pi, g) in groups.iter().enumerate() {
            if !g.is_empty() {
                for suffix in ["min", "mean", "max", "p99"] {
                    columns.push(format!("{}_{suffix}", prefixes[pi]));
                }
            }
        }
        let mut scratch: Vec<f64> = Vec::new();
        let rows = self
            .rows
            .iter()
            .map(|row| {
                let mut out: Vec<f64> = kept.iter().map(|&ci| row[ci]).collect();
                for g in &groups {
                    if g.is_empty() {
                        continue;
                    }
                    scratch.clear();
                    scratch.extend(g.iter().map(|&ci| row[ci]));
                    scratch.sort_by(f64::total_cmp);
                    let n = scratch.len();
                    let rank = ((0.99 * n as f64).ceil() as usize).clamp(1, n);
                    out.push(scratch[0]);
                    out.push(scratch.iter().sum::<f64>() / n as f64);
                    out.push(scratch[n - 1]);
                    out.push(scratch[rank - 1]);
                }
                out
            })
            .collect();
        self.columns = columns;
        self.rows = rows;
    }

    /// Renders the series as JSON Lines: one flat object per window,
    /// timestamp under `"t"`, then every column by name.
    ///
    /// Fails with [`HetschedError::Serialization`] if any value is not
    /// a finite number (JSON has no NaN/∞).
    pub fn to_jsonl(&self) -> Result<String, HetschedError> {
        let mut out = String::new();
        for (t, row) in self.times.iter().zip(&self.rows) {
            let mut line = Writer::compact();
            line.begin_object();
            let names = std::iter::once("t").chain(self.columns.iter().map(String::as_str));
            for (name, x) in names.zip(std::iter::once(t).chain(row)) {
                if !x.is_finite() {
                    return Err(HetschedError::Serialization(format!(
                        "non-finite value {x} in column '{name}'"
                    )));
                }
                line.key(name);
                x.write_json(&mut line);
            }
            line.end_object();
            out.push_str(&line.into_string());
            out.push('\n');
        }
        Ok(out)
    }

    /// Renders the series as CSV with a `t,<columns...>` header.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t");
        for c in &self.columns {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for (t, row) in self.times.iter().zip(&self.rows) {
            out.push_str(&t.to_string());
            for v in row {
                out.push(',');
                out.push_str(&v.to_string());
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ObsReport {
        ObsReport {
            sample_interval: 120.0,
            columns: vec!["qlen[0]".into(), "util[0]".into()],
            times: vec![120.0, 240.0],
            rows: vec![vec![3.0, 0.5], vec![1.0, 0.25]],
            kernel: KernelCounters {
                scheduled: 10,
                popped: 8,
                cancelled: 1,
                high_water: 4,
            },
        }
    }

    #[test]
    fn jsonl_is_one_flat_object_per_window() {
        let jsonl = report().to_jsonl().expect("finite values");
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines,
            vec![
                r#"{"t":120,"qlen[0]":3,"util[0]":0.5}"#,
                r#"{"t":240,"qlen[0]":1,"util[0]":0.25}"#,
            ]
        );
    }

    #[test]
    fn jsonl_escapes_awkward_column_names() {
        let r = ObsReport {
            sample_interval: 1.0,
            columns: vec!["a\"b\\c".into()],
            times: vec![1.0],
            rows: vec![vec![2.0]],
            kernel: KernelCounters::default(),
        };
        let jsonl = r.to_jsonl().expect("finite values");
        assert_eq!(jsonl, "{\"t\":1,\"a\\\"b\\\\c\":2}\n");
    }

    #[test]
    fn jsonl_rejects_non_finite_values() {
        let mut r = report();
        r.rows[1][0] = f64::NAN;
        let err = r.to_jsonl().expect_err("NaN must not serialize");
        assert!(matches!(err, HetschedError::Serialization(_)));
        assert!(err.to_string().contains("qlen[0]"), "names the column");
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = report().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t,qlen[0],util[0]");
        assert_eq!(lines[1], "120,3,0.5");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn column_lookup_by_name() {
        let r = report();
        assert_eq!(r.column("qlen[0]"), Some(vec![3.0, 1.0]));
        assert_eq!(r.column("missing"), None);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn collapse_replaces_indexed_columns_with_summaries() {
        let mut r = ObsReport {
            sample_interval: 1.0,
            columns: vec![
                "arrivals".into(),
                "qlen[0]".into(),
                "qlen[1]".into(),
                "qlen[2]".into(),
                "up[0]".into(),
                "up[1]".into(),
                "up[2]".into(),
                "p95_ratio".into(),
            ],
            times: vec![1.0, 2.0],
            rows: vec![
                vec![9.0, 3.0, 1.0, 2.0, 1.0, 1.0, 0.0, 1.5],
                vec![7.0, 0.0, 4.0, 4.0, 1.0, 0.0, 0.0, 2.5],
            ],
            kernel: KernelCounters::default(),
        };
        r.collapse_indexed_columns(&["qlen", "util", "up"]);
        assert_eq!(
            r.columns,
            vec![
                "arrivals",
                "p95_ratio",
                "qlen_min",
                "qlen_mean",
                "qlen_max",
                "qlen_p99",
                "up_min",
                "up_mean",
                "up_max",
                "up_p99",
            ]
        );
        let third = 2.0 / 3.0;
        assert_eq!(
            r.rows[0],
            vec![9.0, 1.5, 1.0, 2.0, 3.0, 3.0, 0.0, third, 1.0, 1.0]
        );
        assert_eq!(
            r.rows[1],
            vec![7.0, 2.5, 0.0, 8.0 / 3.0, 4.0, 4.0, 0.0, 1.0 / 3.0, 1.0, 1.0]
        );
    }

    #[test]
    fn collapse_without_indexed_columns_is_a_noop() {
        let mut r = report();
        let before = r.clone();
        // "qlen[0]" matches, so use prefixes that don't appear.
        r.collapse_indexed_columns(&["latency", "wait"]);
        assert_eq!(r, before);
    }

    #[test]
    fn kernel_counters_mirror_fel_stats() {
        let fel = FelStats {
            scheduled: 5,
            popped: 3,
            cancelled: 1,
            high_water: 2,
        };
        let k = KernelCounters::from(fel);
        assert_eq!(k.scheduled, 5);
        assert_eq!(k.popped, 3);
        assert_eq!(k.cancelled, 1);
        assert_eq!(k.high_water, 2);
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report();
        let json = hetsched_json::to_string(&r);
        let back: ObsReport = hetsched_json::from_str(&json).expect("deserializes");
        assert_eq!(back, r);
    }
}
