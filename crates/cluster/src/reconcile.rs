//! Per-shard reconciliation of churned or incomplete rounds — the PR-2
//! journal/quarantine pattern applied to one shard's sub-system.
//!
//! Both consumers of the shard fan-out need exactly this round shape: the
//! event-driven `foces-ingest::StreamDriver` when a shard's completion
//! edge fires mid-update, and the `foces-sched` schedule harness when it
//! replays a shard round at an arbitrary point of an enumerated commit
//! schedule. Extracting it here keeps the two byte-for-byte identical —
//! the conformance the harness checks is only meaningful if the checked
//! code is the deployed code.

use foces::{Detector, Fcm, FocesError, ShardView, Verdict};
use foces_dataplane::RuleRef;

/// How a reconciled shard round was scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRoundKind {
    /// Masking left no solvable sub-system; the round is skipped, not
    /// fabricated (sound: no verdict is better than a wrong one).
    Blind,
    /// Rule generations were mixed (journal churn or a stale-generation
    /// member); the masked verdict counts, but its residuals must never
    /// feed per-switch suspicion.
    Reconciled,
    /// No churn, but some closure rows were unobserved; the row-masked
    /// verdict is sound on the remaining equations.
    Degraded,
}

impl ShardRoundKind {
    /// The JSONL label the stream driver logs for this round kind.
    pub fn label(&self) -> &'static str {
        match self {
            ShardRoundKind::Blind => "blind",
            ShardRoundKind::Reconciled => "reconciled",
            ShardRoundKind::Degraded => "degraded",
        }
    }
}

/// The outcome of [`reconcile_shard_round`].
#[derive(Debug, Clone)]
pub struct ShardRound {
    /// How the round was scored.
    pub kind: ShardRoundKind,
    /// The masked verdict, absent for blind rounds.
    pub verdict: Option<Verdict>,
}

/// Scores one shard round whose counters mix rule generations (`churn`)
/// or miss closure rows (`!sub_observed.all()`): quarantines the flow
/// columns the journal's `touched` rules cross (resolved against the
/// **parent** FCM — a flow rerouted outside this region still mixes
/// generations inside it), masks the quarantine's closure rows and the
/// touched rules' own rows, drops unobserved rows on top, and solves the
/// remaining sub-system.
///
/// `sub_counters` and `sub_observed` are in the shard's parent-row order
/// ([`ShardView::sub_counters`]).
///
/// # Errors
///
/// Propagates solver failures from [`Detector::detect_without`].
pub fn reconcile_shard_round(
    view: &ShardView<'_>,
    parent_fcm: &Fcm,
    detector: &Detector,
    sub_counters: &[f64],
    sub_observed: &[bool],
    touched: &[RuleRef],
    churn: bool,
) -> Result<ShardRound, FocesError> {
    let parent_q = parent_fcm.columns_touching(touched);
    let shard_q: Vec<bool> = view.parent_columns.iter().map(|&j| parent_q[j]).collect();
    let keep = view
        .sub_fcm
        .reconciled_rows(sub_observed, &shard_q, touched);
    // The closure rows strand every quarantined column: the reconcile is
    // one row removal on the shard sub-FCM's factor.
    let verdict = match detector.detect_without(view.sub_fcm, sub_counters, &keep) {
        Ok((verdict, _)) => verdict,
        Err(FocesError::EmptyFcm) => {
            return Ok(ShardRound {
                kind: ShardRoundKind::Blind,
                verdict: None,
            })
        }
        Err(e) => return Err(e),
    };
    let kind = if churn {
        ShardRoundKind::Reconciled
    } else {
        ShardRoundKind::Degraded
    };
    Ok(ShardRound {
        kind,
        verdict: Some(verdict),
    })
}
