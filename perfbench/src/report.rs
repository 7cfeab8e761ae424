//! Failure accounting, metric samples and the result line.

use crate::stats::{band_mean, summarize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics every untraced run reports, with their units.
/// A "unit" is one slot on the in-process workloads and one job on
/// `serve-closed`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("campaign_s", "s"),
    ("unit_ms_p50", "ms"),
    ("unit_ms_p90", "ms"),
    ("units_per_min", "1/min"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics every traced run reports, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernels.native_ms", "ms"),
    ("cpu.ops.dispatch_ms", "ms"),
    ("cpu.exec_model.ms", "ms"),
    ("cpu.exec_model.tax", "ratio"),
    ("cpu.exec_model.accesses", "count"),
    ("cpu.exec_model.ns_per_access", "ns"),
    ("cpu.exec_model.sim_mips", "MIPS"),
    ("mem.hierarchy.ns_per_access", "ns"),
    ("mem.hierarchy.l1_miss_ratio", "ratio"),
    ("mem.hierarchy.l1_misses", "count"),
    ("mem.tlb.ns_per_access", "ns"),
    ("mem.tlb.miss_ratio", "ratio"),
    ("mem.tlb.misses", "count"),
    ("cluster.execute_ms", "ms"),
    ("cluster.calibrate_ms", "ms"),
    ("fig5.prelude_ms", "ms"),
    ("fig5.measure_us_p50", "us"),
    ("par.idle_frac", "ratio"),
    ("lab.driver.overhead_ms", "ms"),
    ("lab.driver.digest_ms", "ms"),
    ("lab.journal.append_us_p50", "us"),
    ("lab.journal.append_us_p90", "us"),
    ("lab.journal.load_ms", "ms"),
    ("lab.journal.merge_ms", "ms"),
    ("lab.transport.export_ms", "ms"),
    ("lab.transport.ingest_ms", "ms"),
    ("lab.protocol.ping_us_p50", "us"),
    ("lab.client.fetch_ms", "ms"),
    ("lab.serve.first_progress_ms_p50", "ms"),
    ("lab.supervise.overhead_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Operations attempted and failed. A digest mismatch, slot error,
/// client error and `busy` reply each count as one failed operation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one successful operation.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(why.into());
    }

    /// Counts one operation whose output digest must equal `expected`;
    /// returns whether it did.
    pub fn check_digest(&mut self, what: &str, got: Option<u64>, expected: u64) -> bool {
        if got == Some(expected) {
            self.ok();
            true
        } else {
            let got = got.map_or("none".to_string(), |d| format!("{d:#018x}"));
            self.fail(format!("{what}: digest {got}, expected {expected:#018x}"));
            false
        }
    }

    /// Counts a fallible operation: `Ok` is a success, `Err` a failure.
    pub fn record<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.ok();
                Some(v)
            }
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Adds `other`'s counts to this tally.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Samples per metric name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// `(campaign, digest)` of every verified campaign output, in order.
    pub digests: Vec<(String, u64)>,
    /// Self time per span name in milliseconds (traced runs only).
    pub self_ms: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Adds samples to metric `name`.
    pub fn add(&mut self, name: &'static str, values: impl IntoIterator<Item = f64>) {
        self.samples.entry(name).or_default().extend(values);
    }

    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.tally.attempted > 0 && self.tally.failed == 0
    }

    /// The result line: for every metric in `declared`, the mean of its
    /// samples between the 40th and 60th percentiles (a median smoothed
    /// against step-shaped samples, see [`band_mean`]). A declared metric
    /// without samples, or with a non-finite value, is left out and
    /// reported as a failure.
    pub fn json_line(&mut self, declared: &[(&'static str, &'static str)]) -> String {
        let mut metrics = String::new();
        for &(name, unit) in declared {
            let samples = self.samples.get(name).map_or(&[][..], Vec::as_slice);
            let value = band_mean(samples, 0.5, 0.1);
            if samples.is_empty() || !value.is_finite() {
                self.tally.fail(format!("metric {name} was not measured"));
                continue;
            }
            let sep = if metrics.is_empty() { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed
        )
    }

    /// Human-readable lines: median, quartiles and sample count of every
    /// metric measured, the self time of every traced layer, then the
    /// verified digests.
    pub fn summary_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .samples
            .iter()
            .map(|(name, values)| {
                let s = summarize(values);
                format!(
                    "metric {name:<34} median {:>14.6}  q1 {:>14.6}  q3 {:>14.6}  n {}",
                    s.median, s.q1, s.q3, s.n
                )
            })
            .collect();
        for (layer, ms) in &self.self_ms {
            lines.push(format!("self_ms {layer:<34} {ms:>14.6}"));
        }
        let mut seen: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
        for (campaign, digest) in &self.digests {
            seen.entry(campaign).or_insert((*digest, 0)).1 += 1;
        }
        for (campaign, (digest, n)) in seen {
            lines.push(format!(
                "digest {campaign} {digest:#018x} verified {n} time(s)"
            ));
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_expected_digest_counts_as_a_failure() {
        let mut t = Tally::default();
        assert!(t.check_digest("x", Some(7), 7));
        assert!(!t.check_digest("x", Some(7), 8));
        assert!(!t.check_digest("x", None, 8));
        assert_eq!((t.attempted, t.failed), (3, 2));
    }

    #[test]
    fn missing_metrics_are_failures_and_left_out() {
        let mut o = Outcome::default();
        o.tally.ok();
        o.add("a", [1.0, 3.0, 2.0]);
        let line = o.json_line(&[("a", "s"), ("b", "ms")]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"a\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
    }
}
