//! Runtime observability: aggregate counters and a JSONL event log.
//!
//! Everything is hand-rolled (no serde in the dependency tree): the JSON
//! emitted here is deliberately flat — numbers, strings, and nothing
//! nested deeper than one object per line — so a shell pipeline
//! (`jq`, `grep`) is enough to consume it.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Aggregate counters over a service's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RuntimeMetrics {
    /// Detection epochs completed.
    pub epochs: u64,
    /// Individual switch polls attempted (one per switch per epoch).
    pub polls: u64,
    /// Exchange retries beyond each poll's first attempt.
    pub retries: u64,
    /// Exchanges lost to message drops.
    pub drops: u64,
    /// Replies discarded for stale transaction ids.
    pub stale_replies: u64,
    /// Polls that found the switch offline.
    pub offline_polls: u64,
    /// Switch-epochs that ended with no counters.
    pub unresponsive: u64,
    /// Counter readings rejected as `NaN` or infinite (masked like
    /// readings that never arrived).
    pub rejected_readings: u64,
    /// Rounds detected on the full system.
    pub full_rounds: u64,
    /// Rounds detected on a row-masked system.
    pub degraded_rounds: u64,
    /// Rounds reconciled against the update journal (mid-epoch churn).
    pub reconciled_rounds: u64,
    /// Rounds with no usable data at all.
    pub blind_rounds: u64,
    /// Replies whose generation stamp outran the FCM's build generation.
    pub stale_generation_replies: u64,
    /// Flow-epochs quarantined by reconciliation (sum over rounds).
    pub quarantined_flows: u64,
    /// Rounds where a raise quorum was held back by churn suppression.
    pub suppressed_raises: u64,
    /// FCM (and slice/pipeline) rebuilds after the view moved on.
    pub fcm_rebuilds: u64,
    /// Static verification passes (the pre-flight pass plus one re-check
    /// after every FCM rebuild).
    pub verify_passes: u64,
    /// Static findings across all verification passes (loops, blackholes,
    /// shadowed rules, FCM inconsistencies).
    pub static_violations: u64,
    /// Coverage analysis passes (pre-flight plus one after every rebuild).
    pub coverage_passes: u64,
    /// WARN-severity coverage findings across all passes (absorption-prone
    /// switches, LOO rank loss, rank-deficient shards).
    pub coverage_warnings: u64,
    /// Full rounds solved on the warm path (a re-solve of the FCM solved
    /// the round before, on its memoized factor).
    pub warm_solves: u64,
    /// Full rounds solved cold (the first solve of an FCM, or every round
    /// on the dense backend).
    pub cold_solves: u64,
    /// Solve backend the full-round solver runs on, as a stable numeric
    /// code (0 = dense, 1 = sparse, 2 = auto) so the flat JSON stays
    /// numbers-only here; the epoch lines carry the name.
    pub solve_backend: u64,
    /// Conjugate-gradient iterations accumulated across all full-round
    /// solves (0 on dense and direct-sparse paths).
    pub cg_iterations: u64,
    /// Peak resident set size of the process in bytes (`VmHWM` from
    /// procfs), sampled at the end of the most recent epoch; 0 where
    /// procfs is unavailable.
    pub peak_rss_bytes: u64,
    /// Journal-delta row churn (added + removed + retouched) accumulated
    /// across FCM rebuilds.
    pub delta_rows: u64,
    /// Journal-delta column churn accumulated across FCM rebuilds.
    pub delta_cols: u64,
    /// Rounds whose residuals were fed to the suspicion tracker.
    pub suspicion_rounds: u64,
    /// Leave-one-switch-out candidate solves performed.
    pub loo_solves: u64,
    /// Rank-one factor downdates spent across all leave-one-out solves.
    pub loo_downdates: u64,
    /// Liars uniquely localized by leave-one-out cross-validation.
    pub liars_localized: u64,
    /// Switches placed under counter quarantine.
    pub switch_quarantines: u64,
    /// Quarantines lifted after a clean re-probe.
    pub quarantine_releases: u64,
    /// Epochs that entered the unresolved-Byzantine state (alarm up,
    /// no single switch's removal explains it).
    pub unresolved_byzantine: u64,
    /// k-resilience probes run on alarm-raise epochs.
    pub resilience_probes: u64,
    /// Probes whose verdict flipped when suspects were silenced.
    pub resilience_flips: u64,
    /// Rounds whose verdict was anomalous.
    pub anomalous_rounds: u64,
    /// Alarm raise transitions.
    pub alarms_raised: u64,
    /// Alarm clear transitions.
    pub alarms_cleared: u64,
    /// Wall-clock spent collecting counters (scheduler sweeps), seconds.
    pub collect_secs: f64,
    /// Wall-clock spent building masks / assembling vectors, seconds.
    pub build_secs: f64,
    /// Wall-clock spent in solves (detection), seconds.
    pub solve_secs: f64,
    /// Wall-clock spent in static verification passes, seconds.
    pub verify_secs: f64,
    /// *Simulated* channel time accumulated across sweeps, milliseconds.
    pub sim_channel_ms: f64,
}

impl RuntimeMetrics {
    /// Adds one judged round's tally ([`foces::RoundCore::after_verdict`]).
    pub fn add_round(&mut self, c: &foces::RoundCounts) {
        self.anomalous_rounds += c.anomalous_rounds;
        self.alarms_raised += c.alarms_raised;
        self.alarms_cleared += c.alarms_cleared;
        self.suppressed_raises += c.suppressed_raises;
        self.suspicion_rounds += c.suspicion_rounds;
        self.loo_solves += c.loo_solves;
        self.loo_downdates += c.loo_downdates;
        self.liars_localized += c.liars_localized;
        self.switch_quarantines += c.switch_quarantines;
        self.quarantine_releases += c.quarantine_releases;
        self.unresolved_byzantine += c.unresolved_byzantine;
        self.resilience_probes += c.resilience_probes;
        self.resilience_flips += c.resilience_flips;
    }

    /// One-line JSON rendering of every counter.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let mut first = true;
        let mut num = |s: &mut String, k: &str, v: f64| {
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(s, "\"{k}\":{}", json_f64(v));
        };
        num(&mut s, "epochs", self.epochs as f64);
        num(&mut s, "polls", self.polls as f64);
        num(&mut s, "retries", self.retries as f64);
        num(&mut s, "drops", self.drops as f64);
        num(&mut s, "stale_replies", self.stale_replies as f64);
        num(&mut s, "offline_polls", self.offline_polls as f64);
        num(&mut s, "unresponsive", self.unresponsive as f64);
        num(&mut s, "rejected_readings", self.rejected_readings as f64);
        num(&mut s, "full_rounds", self.full_rounds as f64);
        num(&mut s, "degraded_rounds", self.degraded_rounds as f64);
        num(&mut s, "reconciled_rounds", self.reconciled_rounds as f64);
        num(&mut s, "blind_rounds", self.blind_rounds as f64);
        num(
            &mut s,
            "stale_generation_replies",
            self.stale_generation_replies as f64,
        );
        num(&mut s, "quarantined_flows", self.quarantined_flows as f64);
        num(&mut s, "suppressed_raises", self.suppressed_raises as f64);
        num(&mut s, "fcm_rebuilds", self.fcm_rebuilds as f64);
        num(&mut s, "verify_passes", self.verify_passes as f64);
        num(&mut s, "static_violations", self.static_violations as f64);
        num(&mut s, "coverage_passes", self.coverage_passes as f64);
        num(&mut s, "coverage_warnings", self.coverage_warnings as f64);
        num(&mut s, "warm_solves", self.warm_solves as f64);
        num(&mut s, "cold_solves", self.cold_solves as f64);
        num(&mut s, "solve_backend", self.solve_backend as f64);
        num(&mut s, "cg_iterations", self.cg_iterations as f64);
        num(&mut s, "peak_rss_bytes", self.peak_rss_bytes as f64);
        num(&mut s, "delta_rows", self.delta_rows as f64);
        num(&mut s, "delta_cols", self.delta_cols as f64);
        num(&mut s, "suspicion_rounds", self.suspicion_rounds as f64);
        num(&mut s, "loo_solves", self.loo_solves as f64);
        num(&mut s, "loo_downdates", self.loo_downdates as f64);
        num(&mut s, "liars_localized", self.liars_localized as f64);
        num(&mut s, "switch_quarantines", self.switch_quarantines as f64);
        num(
            &mut s,
            "quarantine_releases",
            self.quarantine_releases as f64,
        );
        num(
            &mut s,
            "unresolved_byzantine",
            self.unresolved_byzantine as f64,
        );
        num(&mut s, "resilience_probes", self.resilience_probes as f64);
        num(&mut s, "resilience_flips", self.resilience_flips as f64);
        num(&mut s, "anomalous_rounds", self.anomalous_rounds as f64);
        num(&mut s, "alarms_raised", self.alarms_raised as f64);
        num(&mut s, "alarms_cleared", self.alarms_cleared as f64);
        num(&mut s, "collect_secs", self.collect_secs);
        num(&mut s, "build_secs", self.build_secs);
        num(&mut s, "solve_secs", self.solve_secs);
        num(&mut s, "verify_secs", self.verify_secs);
        num(&mut s, "sim_channel_ms", self.sim_channel_ms);
        s.push('}');
        s
    }
}

/// Peak resident set size of this process in bytes, read from the
/// `VmHWM` line of `/proc/self/status`. Returns 0 where that procfs
/// field is unavailable (non-Linux platforms, restricted mounts).
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .unwrap_or(0);
            return kib * 1024;
        }
    }
    0
}

/// Zeroes the process-level gauge fields in an epoch JSONL line so that
/// seed-determinism checks can compare logs byte for byte.
///
/// Every behavioral field in the epoch log is derived from the run's
/// seeds and must reproduce exactly; `peak_rss_bytes` is the one
/// exception — it reads the live `VmHWM` gauge, which depends on what
/// the process allocated *before* the run. Determinism tests (and the
/// CI epoch-log diff) pass lines through this scrubber before
/// comparing; everything else is still pinned bit for bit.
pub fn scrub_gauges(line: &str) -> String {
    let key = "\"peak_rss_bytes\":";
    let Some(start) = line.find(key) else {
        return line.to_string();
    };
    let digits_at = start + key.len();
    let end = line[digits_at..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(line.len(), |i| digits_at + i);
    format!("{}{}0{}", &line[..start], key, &line[end..])
}

/// The JSON scalar renderers, re-exported from the core so that
/// `foces-ingest` and `foces-cluster` name one path for them.
pub use foces::{json_f64, json_str};

enum Sink {
    Memory,
    File(BufWriter<File>),
}

/// An append-only JSONL event log: one JSON object per line. Events are
/// always retained in memory (bounded by the caller's run length); a file
/// sink additionally streams each line to disk as it is recorded.
pub struct EventLog {
    sink: Sink,
    lines: Vec<String>,
}

impl EventLog {
    /// A log that only accumulates in memory.
    pub fn in_memory() -> Self {
        EventLog {
            sink: Sink::Memory,
            lines: Vec::new(),
        }
    }

    /// A log that also streams every line to `path` (truncating it).
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from creating the file.
    pub fn to_file(path: &Path) -> std::io::Result<Self> {
        Ok(EventLog {
            sink: Sink::File(BufWriter::new(File::create(path)?)),
            lines: Vec::new(),
        })
    }

    /// Appends one pre-rendered JSON object line.
    pub fn record(&mut self, json_line: String) {
        if let Sink::File(w) = &mut self.sink {
            // Log output is best-effort: losing a line must never take the
            // detection loop down with it.
            let _ = writeln!(w, "{json_line}");
            let _ = w.flush();
        }
        // Lines live as long as the log: keep an exact-size copy, not the
        // rendering buffer (`format!` reserves twice its literal text).
        self.lines.push(json_line.as_str().into());
    }

    /// All recorded lines, oldest first.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_render_as_flat_json() {
        let m = RuntimeMetrics {
            epochs: 3,
            retries: 7,
            collect_secs: 0.25,
            ..RuntimeMetrics::default()
        };
        let j = m.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"epochs\":3"));
        assert!(j.contains("\"retries\":7"));
        assert!(j.contains("\"collect_secs\":0.250000"));
        assert!(!j.contains("{{"), "flat object only");
    }

    #[test]
    fn scrub_gauges_zeroes_only_the_rss_field() {
        let line = "{\"epoch\":4,\"peak_rss_bytes\":10825728,\"suspicion_max\":0}";
        assert_eq!(
            scrub_gauges(line),
            "{\"epoch\":4,\"peak_rss_bytes\":0,\"suspicion_max\":0}"
        );
        // Lines without the gauge pass through untouched.
        assert_eq!(scrub_gauges("{\"epoch\":4}"), "{\"epoch\":4}");
    }

    #[test]
    fn file_sink_streams_lines() {
        let dir = std::env::temp_dir().join("foces-runtime-test-log");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("events-{}.jsonl", std::process::id()));
        let mut log = EventLog::to_file(&path).unwrap();
        log.record("{\"epoch\":0}".to_string());
        log.record("{\"epoch\":1}".to_string());
        assert_eq!(log.lines().len(), 2);
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, "{\"epoch\":0}\n{\"epoch\":1}\n");
        let _ = std::fs::remove_file(&path);
    }
}
