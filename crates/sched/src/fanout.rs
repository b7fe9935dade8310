//! The shard fan-out dimension: replay every slot boundary of an
//! executed schedule through the §13 sharded detection path, with the
//! per-switch generation stamps the boundary froze.
//!
//! This models the event-driven ingest's completion edge firing *during*
//! the commit window: a shard whose members all answered fires
//! immediately, and some members may already stamp a generation the
//! shard's FCM (built at generation 0) has never seen — the
//! stale-generation race. Every such round goes through the **same**
//! [`foces_cluster::reconcile_shard_round`] the stream driver deploys,
//! and the oracle requires it be scored reconciled or blind — never
//! anomalous, never solved as if generations were pure.

use crate::harness::ScheduleRun;
use crate::oracle::Violation;
use crate::SchedError;
use foces::{Detector, Fcm, ShardedFcm};
use foces_cluster::{reconcile_shard_round, ShardRoundKind};
use foces_controlplane::Deployment;
use foces_net::{partition, PartitionSpec};

/// Aggregate outcome of the fan-out dimension over one schedule.
#[derive(Debug, Clone, Default)]
pub struct FanoutOutcome {
    /// Shard rounds fired (boundaries × non-empty shards).
    pub rounds: u64,
    /// Rounds scored via the journal-reconciled path.
    pub reconciled: u64,
    /// Rounds masked down to nothing (skipped, not fabricated).
    pub blind: u64,
    /// Rounds where at least one member stamped a generation newer than
    /// the shard FCM's — the stale-member race actually occurred.
    pub stale_rounds: u64,
    /// Oracle violations.
    pub violations: Vec<Violation>,
}

/// Replays every captured slot boundary through `shards` region shards.
///
/// `template` must be the pre-update deployment the run was cloned from
/// (its view at generation 0 defines the shard FCMs, exactly like a
/// stream driver that last rebuilt before the updates were staged).
///
/// # Errors
///
/// Propagates solver failures as [`SchedError::Foces`].
pub fn check_fanout(
    template: &Deployment,
    run: &ScheduleRun,
    shards: usize,
    threshold: f64,
) -> Result<FanoutOutcome, SchedError> {
    let fcm = Fcm::from_view(&template.view);
    let part = partition(
        template.dataplane.topology(),
        PartitionSpec::EdgeCut { k: shards },
    );
    let sharded = ShardedFcm::from_fcm(&fcm, &part);
    let detector = Detector::with_threshold(threshold);
    let mut out = FanoutOutcome::default();

    for snap in &run.boundaries {
        for view in sharded.shard_views() {
            let stale = view.switches.iter().any(|s| snap.generations[s.0] > 0);
            // The updates are journaled at stage time (slot 0), so every
            // boundary is churned even before any commit lands.
            let churn = !run.touched_rules.is_empty() || stale;
            let sub_counters = view.sub_counters(&snap.counters);
            let sub_observed = vec![true; sub_counters.len()];
            let round = reconcile_shard_round(
                &view,
                &fcm,
                &detector,
                &sub_counters,
                &sub_observed,
                &run.touched_rules,
                churn,
            )?;
            out.rounds += 1;
            if stale {
                out.stale_rounds += 1;
            }
            match round.kind {
                ShardRoundKind::Reconciled => out.reconciled += 1,
                ShardRoundKind::Blind => out.blind += 1,
                ShardRoundKind::Degraded => out.violations.push(Violation::FanoutNotReconciled {
                    slot: snap.slot,
                    region: view.region,
                    kind: round.kind.label().to_string(),
                }),
            }
            if let Some(v) = &round.verdict {
                if v.anomalous {
                    out.violations.push(Violation::FanoutAnomalous {
                        slot: snap.slot,
                        region: view.region,
                        index: v.anomaly_index,
                    });
                }
            }
        }
    }
    Ok(out)
}
