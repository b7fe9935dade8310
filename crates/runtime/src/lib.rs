//! **foces-runtime** — the operational layer of the FOCES reproduction: a
//! continuous, fault-tolerant detection service over an *unreliable*
//! control channel.
//!
//! The paper's functional test (§VI, Fig. 7) polls switches "every
//! 5 seconds" over a real control network — one where requests get lost,
//! replies arrive late, and switches crash and come back. The rest of this
//! workspace assumed a perfect channel; this crate removes that assumption
//! without weakening the detector:
//!
//! * [`transport`] — [`SimTransport`], a seeded fault model implementing
//!   [`foces_channel::Transport`]: per-switch latency/jitter, message
//!   drops, stale-reply reordering, and offline/crash-restart windows.
//!   Every delivered message still round-trips through the wire codec.
//! * [`scheduler`] — [`EpochScheduler`] polls all agents each epoch with a
//!   per-switch deadline and bounded exponential-backoff retries; an
//!   unresponsive switch is *marked*, never fatal to the round.
//! * [`degraded`] — [`DegradedPipeline`] masks the FCM rows of missing
//!   switches ([`foces::MaskedFcm`]) and re-consults the Theorem 1
//!   detectability oracle on the masked system, labelling every round
//!   [`DetectionMode::Full`], [`DetectionMode::Degraded`] (with the
//!   oracle's residual coverage) or [`DetectionMode::Blind`].
//! * [`parallel`] — [`detect_parallel`] runs the per-switch slice solves
//!   of a [`foces::SlicedFcm`] as [`pool`] tasks, with verdicts
//!   *identical* to the sequential path.
//! * [`pool`] — [`run_tasks`], a std-only work-stealing worker pool
//!   (bounded per-worker deques with backpressure, FIFO stealing,
//!   per-task panic containment and deadline accounting) — the one
//!   thread executor, under both [`detect_parallel`] and
//!   `foces-cluster`'s shard coordinator.
//! * [`metrics`] — [`RuntimeMetrics`] counters plus a JSONL [`EventLog`]
//!   of per-epoch records.
//! * [`hysteresis`] — [`AlarmMachine`], k-of-n alarm confirmation with
//!   churn-aware suppression windows (blind rounds freeze the machine
//!   instead of feeding it noise).
//! * [`service`] — [`RuntimeService`] glues the layers into one
//!   `run_epoch` loop. Every reply carries the switch's rule-table
//!   generation; when a stamp (or the controller view's update journal)
//!   outruns the FCM's build generation, the epoch is *reconciled* —
//!   journaled rows masked, affected flows quarantined
//!   ([`foces::Fcm::quarantine`]) — instead of failed, and the FCM is
//!   rebuilt at the epoch boundary.
//! * [`harness`] — [`ScenarioDriver`] owns a whole deployment and drives
//!   reset → replay → (inject/revert) → poll → detect per epoch; the
//!   `foces run` CLI subcommand and the cross-crate fault test sit on it.

pub mod degraded;
pub mod harness;
pub mod hysteresis;
pub mod metrics;
pub mod parallel;
pub mod pool;
pub mod scheduler;
pub mod service;
pub mod transport;

pub use degraded::{DegradedPipeline, DetectionMode};
// The Byzantine-layer tunables live with the liar lifecycle in core.
pub use foces::ByzantineConfig;
pub use harness::{FaultScenario, ScenarioDriver};
pub use hysteresis::{AlarmMachine, AlarmTransition, HysteresisConfig};
pub use metrics::{peak_rss_bytes, scrub_gauges, EventLog, RuntimeMetrics};
pub use parallel::detect_parallel;
pub use pool::{run_tasks, PoolConfig, PoolStats, TaskOutcome, TaskRun};
pub use scheduler::{EpochCollection, EpochScheduler, PollPolicy, SwitchPoll};
pub use service::{EpochReport, RuntimeConfig, RuntimeError, RuntimeService};
pub use transport::{FaultProfile, SimTransport};
