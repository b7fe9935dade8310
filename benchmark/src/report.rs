//! Samples, nearest-rank percentiles, correctness bookkeeping, and the
//! output format: one `{"workload","metric","value","unit","n"}` line per
//! metric, then a final `{"correct","attempted","failed","metrics"}` line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The end-to-end metrics every untraced run prints in its final line.
pub const END_TO_END: &[(&str, &str)] = &[
    ("round_ms_p50", "ms"),
    ("round_ms_p99", "ms"),
    ("rounds_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints in its final line. Each
/// is measured on every workload (see `README.md` for why the
/// workload-specific layers are printed as lines only).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("collect.ms_p50", "ms"),
    ("collect.polls", "count"),
    ("fcm.build_ms", "ms"),
    ("fcm.rebuilds", "count"),
    ("coverage.ms", "ms"),
    ("solve.cold_ms", "ms"),
    ("solve.warm_ms_p50", "ms"),
    ("solve.warm_rate", "ratio"),
    ("suspicion.ms_p50", "ms"),
    ("loo.downdates", "count"),
    ("trace.unattributed_ms_p50", "ms"),
    ("trace.overhead_pct", "%"),
];

/// A bag of measurements with nearest-rank percentiles.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Nearest-rank percentile: the smallest sample with at least `p`% of
    /// the samples at or below it. `NaN` when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Samples(iter.into_iter().collect())
    }
}

struct Line {
    value: f64,
    unit: &'static str,
    n: usize,
}

/// Everything one workload run reports.
pub struct Report {
    workload: String,
    metrics: BTreeMap<String, Line>,
    order: Vec<String>,
    failures: Vec<String>,
    /// Detection rounds (or shard fires) the run attempted.
    pub attempted: u64,
    /// Rounds that returned an error, or whose alarm state disagreed with
    /// ground truth outside the driver's hysteresis grace.
    pub failed: u64,
}

impl Report {
    pub fn new(workload: &str) -> Self {
        Report {
            workload: workload.to_string(),
            metrics: BTreeMap::new(),
            order: Vec::new(),
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Records one metric line (a repeated name overwrites).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        if !self.metrics.contains_key(name) {
            self.order.push(name.to_string());
        }
        self.metrics
            .insert(name.to_string(), Line { value, unit, n });
    }

    /// Records a correctness check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Counts one scored round, failed or not; the first few failures
    /// are described on stderr.
    pub fn round(&mut self, failed: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if failed {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("FAILED ROUND [{}]: {}", self.workload, what());
            }
        }
    }

    /// Prints every metric line, the failed checks (to stderr), and the
    /// final result line carrying exactly the metrics named in `keys`.
    /// Returns whether the run was correct.
    pub fn finish(mut self, keys: &[(&str, &str)]) -> bool {
        for name in keys.iter().map(|(n, _)| *n) {
            match self.metrics.get(name) {
                Some(l) if l.value.is_finite() => {}
                _ => self
                    .failures
                    .push(format!("metric {name} was not measured")),
            }
        }
        if self.attempted == 0 {
            self.failures.push("no round was attempted".to_string());
        }
        if self.failed > 0 {
            self.failures.push(format!(
                "{} of {} rounds failed",
                self.failed, self.attempted
            ));
        }
        for name in &self.order {
            let l = &self.metrics[name];
            println!(
                "{{\"workload\":\"{}\",\"metric\":\"{name}\",\"value\":{},\"unit\":\"{}\",\"n\":{}}}",
                self.workload,
                json_num(l.value),
                l.unit,
                l.n
            );
        }
        for f in &self.failures {
            eprintln!("CHECK FAILED [{}]: {f}", self.workload);
        }
        let correct = self.failures.is_empty();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in keys.iter().enumerate() {
            let value = self.metrics.get(*name).map_or(f64::NAN, |l| l.value);
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(value)
            );
        }
        out.push_str("}}");
        println!("{out}");
        correct
    }
}

/// A JSON number with every digit `f64` carries (non-finite becomes 0 —
/// such a metric is also reported as a failed check).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(f64::from(v));
        }
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        let mut one = Samples::default();
        one.push(7.0);
        assert_eq!(one.percentile(99.0), 7.0);
        assert!(Samples::default().p50().is_nan());
    }
}
