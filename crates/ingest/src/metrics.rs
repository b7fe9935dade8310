//! Ingest observability: aggregate counters for one stream run.
//!
//! Same philosophy as [`foces_runtime::RuntimeMetrics`]: flat, hand-rolled
//! JSON (no serde in the tree) so `jq` is enough. The stream-specific
//! additions are the latency milestones — **time to first verdict**
//! (`ttfv_ms`) and **time to all verdicts** (`ttav_ms`) — which are the
//! whole point of shard-complete triggering: the first verdict lands when
//! the *fastest* shard completes, not when the slowest switch answers.

use foces_runtime::metrics::json_f64;
use std::fmt::Write as _;

/// Aggregate counters over one stream run (simulated time throughout).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IngestMetrics {
    /// Events popped off the queue.
    pub events: u64,
    /// Poll cycles started (one per `PollDue` that sent a request).
    pub polls: u64,
    /// Stats requests sent (first attempts + retries).
    pub attempts: u64,
    /// Retries beyond each poll cycle's first attempt.
    pub retries: u64,
    /// Requests lost to fault-model drops.
    pub drops: u64,
    /// Replies lost to uplink queue overflow (congestion).
    pub congestion_drops: u64,
    /// Attempt timeouts that fired with no reply accepted.
    pub timeouts: u64,
    /// Polls that found the switch offline.
    pub offline_polls: u64,
    /// Poll cycles abandoned after `max_attempts`.
    pub unresponsive: u64,
    /// Replies discarded for a stale transaction id.
    pub stale_replies: u64,
    /// Accepted replies whose generation stamp outran the FCM build.
    pub stale_generation_replies: u64,
    /// Replies accepted into the collection state.
    pub samples: u64,
    /// Shard detection rounds fired.
    pub shard_rounds: u64,
    /// Shard rounds solved on the warm path.
    pub warm_rounds: u64,
    /// Shard rounds solved cold.
    pub cold_rounds: u64,
    /// Shard rounds reconciled against the update journal.
    pub reconciled_rounds: u64,
    /// Shard rounds solved with unsampled closure rows masked out
    /// (typically the first fire per shard, before neighbours report).
    pub degraded_rounds: u64,
    /// Shard rounds with nothing left to solve after quarantine.
    pub blind_rounds: u64,
    /// Shard rounds whose residuals fed the suspicion tracker.
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
    /// Rounds that entered the unresolved-Byzantine state (alarm up, no
    /// single switch's removal explains it).
    pub unresolved_byzantine: u64,
    /// k-resilience probes run on alarm-raise rounds.
    pub resilience_probes: u64,
    /// Probes whose verdict flipped when suspects were silenced.
    pub resilience_flips: u64,
    /// Shard rounds whose verdict was anomalous.
    pub anomalous_rounds: u64,
    /// Alarm raise transitions.
    pub alarms_raised: u64,
    /// Alarm clear transitions.
    pub alarms_cleared: u64,
    /// Rounds where churn suppression held a raise quorum back.
    pub suppressed_raises: u64,
    /// FCM + shard rebuilds after the view moved.
    pub fcm_rebuilds: u64,
    /// WARN-severity findings from the latest pre-flight coverage analysis
    /// of the stream's FCM (refreshed on every rebuild).
    pub coverage_warnings: u64,
    /// Simulated time of the first shard verdict, ms (`None`: none fired).
    pub ttfv_ms: Option<f64>,
    /// Simulated time by which every (non-empty) shard had fired at least
    /// once, ms.
    pub ttav_ms: Option<f64>,
    /// First anomaly injection to first alarm raise, ms.
    pub alarm_latency_ms: Option<f64>,
    /// Simulated time of the last processed event, ms.
    pub end_ms: f64,
}

impl IngestMetrics {
    /// Adds one round's Byzantine-lifecycle increments.
    pub fn add_liar_counts(&mut self, c: &foces::LiarCounts) {
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

    /// One-line JSON rendering of every counter (`null` for unset
    /// milestones).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let mut first = true;
        let mut raw = |s: &mut String, k: &str, v: String| {
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(s, "\"{k}\":{v}");
        };
        let opt = |v: Option<f64>| v.map(json_f64).unwrap_or_else(|| "null".into());
        raw(&mut s, "events", json_f64(self.events as f64));
        raw(&mut s, "polls", json_f64(self.polls as f64));
        raw(&mut s, "attempts", json_f64(self.attempts as f64));
        raw(&mut s, "retries", json_f64(self.retries as f64));
        raw(&mut s, "drops", json_f64(self.drops as f64));
        raw(
            &mut s,
            "congestion_drops",
            json_f64(self.congestion_drops as f64),
        );
        raw(&mut s, "timeouts", json_f64(self.timeouts as f64));
        raw(&mut s, "offline_polls", json_f64(self.offline_polls as f64));
        raw(&mut s, "unresponsive", json_f64(self.unresponsive as f64));
        raw(&mut s, "stale_replies", json_f64(self.stale_replies as f64));
        raw(
            &mut s,
            "stale_generation_replies",
            json_f64(self.stale_generation_replies as f64),
        );
        raw(&mut s, "samples", json_f64(self.samples as f64));
        raw(&mut s, "shard_rounds", json_f64(self.shard_rounds as f64));
        raw(&mut s, "warm_rounds", json_f64(self.warm_rounds as f64));
        raw(&mut s, "cold_rounds", json_f64(self.cold_rounds as f64));
        raw(
            &mut s,
            "reconciled_rounds",
            json_f64(self.reconciled_rounds as f64),
        );
        raw(
            &mut s,
            "degraded_rounds",
            json_f64(self.degraded_rounds as f64),
        );
        raw(&mut s, "blind_rounds", json_f64(self.blind_rounds as f64));
        raw(
            &mut s,
            "suspicion_rounds",
            json_f64(self.suspicion_rounds as f64),
        );
        raw(&mut s, "loo_solves", json_f64(self.loo_solves as f64));
        raw(&mut s, "loo_downdates", json_f64(self.loo_downdates as f64));
        raw(
            &mut s,
            "liars_localized",
            json_f64(self.liars_localized as f64),
        );
        raw(
            &mut s,
            "switch_quarantines",
            json_f64(self.switch_quarantines as f64),
        );
        raw(
            &mut s,
            "quarantine_releases",
            json_f64(self.quarantine_releases as f64),
        );
        raw(
            &mut s,
            "unresolved_byzantine",
            json_f64(self.unresolved_byzantine as f64),
        );
        raw(
            &mut s,
            "resilience_probes",
            json_f64(self.resilience_probes as f64),
        );
        raw(
            &mut s,
            "resilience_flips",
            json_f64(self.resilience_flips as f64),
        );
        raw(
            &mut s,
            "anomalous_rounds",
            json_f64(self.anomalous_rounds as f64),
        );
        raw(&mut s, "alarms_raised", json_f64(self.alarms_raised as f64));
        raw(
            &mut s,
            "alarms_cleared",
            json_f64(self.alarms_cleared as f64),
        );
        raw(
            &mut s,
            "suppressed_raises",
            json_f64(self.suppressed_raises as f64),
        );
        raw(&mut s, "fcm_rebuilds", json_f64(self.fcm_rebuilds as f64));
        raw(
            &mut s,
            "coverage_warnings",
            json_f64(self.coverage_warnings as f64),
        );
        raw(&mut s, "ttfv_ms", opt(self.ttfv_ms));
        raw(&mut s, "ttav_ms", opt(self.ttav_ms));
        raw(&mut s, "alarm_latency_ms", opt(self.alarm_latency_ms));
        raw(&mut s, "end_ms", json_f64(self.end_ms));
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_flat_json_with_null_milestones() {
        let m = IngestMetrics {
            polls: 12,
            ttfv_ms: Some(3.25),
            ..IngestMetrics::default()
        };
        let j = m.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"polls\":12"));
        assert!(j.contains("\"ttfv_ms\":3.250000"));
        assert!(j.contains("\"ttav_ms\":null"));
        assert!(!j.contains("{{"), "flat object only");
    }
}
