//! Soundness oracles over executed schedules.
//!
//! * **Healthy soundness** — on a fabric with no anomaly, *every*
//!   schedule of commits against collection must reconcile: no epoch
//!   scores anomalous, no alarm is ever raised, the update epoch itself
//!   takes the journal-reconciled path, and the FCM follows the view.
//! * **Dropper completeness** — masking must absorb the *update*, not
//!   the attack: a persistent dropper activating at the update epoch on
//!   a switch outside every update's blast radius must raise the alarm
//!   within [`foces_runtime::HysteresisConfig::churn_raise_bound`] epochs,
//!   and the alarm must still stand at the end of the run.
//! * **Fan-out soundness** (see [`check_fanout`](crate::check_fanout)) — a shard round fired
//!   at any slot boundary, including with stale-generation members, must
//!   be scored reconciled or blind, never anomalous.

use crate::harness::{HarnessConfig, ScheduleRun};
use std::fmt;

/// One oracle violation, self-describing.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Violation {
    /// A healthy epoch's verdict crossed the threshold.
    HealthyAnomalous {
        /// The offending epoch.
        epoch: u64,
        /// Its detection-mode label.
        mode: String,
    },
    /// A healthy schedule raised the alarm.
    FalseAlarm {
        /// The epoch that raised.
        epoch: u64,
    },
    /// The update epoch did not flag churn + take the reconciled path.
    UpdateEpochNotReconciled {
        /// The mode it took instead.
        mode: String,
        /// Whether churn was at least flagged.
        churn: bool,
    },
    /// The FCM never followed the view (no rebuild happened).
    NoRebuild,
    /// The dropper was never alarmed on.
    DropperMissed,
    /// An alarm predates the dropper's activation — a false positive.
    AlarmBeforeDropper {
        /// The raising epoch.
        first: u64,
    },
    /// The alarm came later than the hysteresis + churn-suppression bound.
    AlarmPastBound {
        /// The raising epoch.
        first: u64,
        /// The bound it had to meet.
        bound: u64,
    },
    /// The dropper persists but the final state is not Alarmed.
    AlarmNotStanding {
        /// The final alarm state label.
        state: String,
    },
    /// A shard round at a slot boundary scored anomalous.
    FanoutAnomalous {
        /// The boundary's slot.
        slot: u8,
        /// The shard's region id.
        region: usize,
        /// The anomaly index it reported.
        index: f64,
    },
    /// A churned shard round was scored as if generations were pure.
    FanoutNotReconciled {
        /// The boundary's slot.
        slot: u8,
        /// The shard's region id.
        region: usize,
        /// The round kind it took instead.
        kind: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::HealthyAnomalous { epoch, mode } => {
                write!(f, "healthy epoch {epoch} scored anomalous ({mode})")
            }
            Violation::FalseAlarm { epoch } => write!(f, "false alarm at epoch {epoch}"),
            Violation::UpdateEpochNotReconciled { mode, churn } => write!(
                f,
                "update epoch not reconciled (mode {mode}, churn {churn})"
            ),
            Violation::NoRebuild => write!(f, "the FCM never followed the view"),
            Violation::DropperMissed => write!(f, "reconciliation swallowed the dropper"),
            Violation::AlarmBeforeDropper { first } => {
                write!(f, "alarm at epoch {first} predates the dropper")
            }
            Violation::AlarmPastBound { first, bound } => {
                write!(f, "alarm at epoch {first} outran the bound {bound}")
            }
            Violation::AlarmNotStanding { state } => {
                write!(f, "dropper persists but final state is {state}")
            }
            Violation::FanoutAnomalous {
                slot,
                region,
                index,
            } => write!(
                f,
                "shard {region} anomalous (index {index:.2}) at slot boundary {slot}"
            ),
            Violation::FanoutNotReconciled { slot, region, kind } => write!(
                f,
                "shard {region} round at slot boundary {slot} was {kind}, want reconciled/blind"
            ),
        }
    }
}

/// Checks the healthy-soundness oracle on a run without injected faults.
pub fn check_healthy(run: &ScheduleRun, cfg: &HarnessConfig) -> Vec<Violation> {
    let mut v = Vec::new();
    for e in &run.epochs {
        if e.anomalous {
            v.push(Violation::HealthyAnomalous {
                epoch: e.epoch,
                mode: e.mode.clone(),
            });
        }
        if e.alarm_raised {
            v.push(Violation::FalseAlarm { epoch: e.epoch });
        }
        if e.epoch == cfg.update_at && !(e.churn && e.reconciled) {
            v.push(Violation::UpdateEpochNotReconciled {
                mode: e.mode.clone(),
                churn: e.churn,
            });
        }
    }
    if run.fcm_rebuilds == 0 {
        v.push(Violation::NoRebuild);
    }
    v
}

/// Checks the dropper-completeness oracle on a run with a persistent
/// dropper planted at `cfg.update_at`.
pub fn check_dropper(run: &ScheduleRun, cfg: &HarnessConfig) -> Vec<Violation> {
    let bound = cfg.update_at + cfg.runtime.hysteresis.churn_raise_bound();
    let mut v = Vec::new();
    match run.first_raise {
        None => v.push(Violation::DropperMissed),
        Some(first) if first < cfg.update_at => {
            v.push(Violation::AlarmBeforeDropper { first });
        }
        Some(first) if first > bound => v.push(Violation::AlarmPastBound { first, bound }),
        Some(_) => {}
    }
    if run.final_state != "Alarmed" {
        v.push(Violation::AlarmNotStanding {
            state: run.final_state.clone(),
        });
    }
    v
}
