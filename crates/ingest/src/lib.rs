//! **foces-ingest** — event-driven continuous counter ingestion with
//! per-link channel models and shard-complete detection triggers.
//!
//! Everything below `foces-runtime` collects counters in *lockstep*: poll
//! every switch, wait for the slowest (or its deadline), then detect.
//! That couples time-to-first-verdict to the worst link in the whole
//! network and wastes polling budget on switches nothing is happening
//! near. This crate replaces the round with a discrete-event simulation
//! of the control network and a streaming detection pipeline:
//!
//! * [`event`] — [`SimTime`] (integer microseconds) and [`EventQueue`], a
//!   binary-heap event loop with deterministic FIFO tie-breaking: the
//!   backbone every other module schedules against.
//! * [`link`] — per-link channel models. [`LinkModel`] gives a link
//!   propagation delay, serialization bandwidth, and a *bounded*
//!   congestion queue, so concurrent replies on a region's shared uplink
//!   genuinely contend (and overflow genuinely drops).
//!   [`IngestChannel`] composes access hops + uplinks with the
//!   channel-level [`foces_channel::FaultModel`] vocabulary and serves
//!   [`IngestChannel::exchange_at`] — timestamped delivery.
//! * [`cadence`] — [`PollCadence`], per-switch adaptive poll timers:
//!   quiet switches back off geometrically toward a ceiling, any churn,
//!   anomaly, or timeout snaps the interval back down.
//! * [`stream`] — [`StreamDriver`], the event loop itself. Counters
//!   arrive continuously and out of order, merge through generation-stamp
//!   reconciliation, and each shard's detection fires the moment *its*
//!   members are fresh ([`foces_cluster::ShardCompletion`]) on a
//!   per-shard warm [`foces::IncrementalSolver`] — time-to-first-verdict
//!   is the fastest shard's completion, not the slowest switch's reply.
//! * [`metrics`] — [`IngestMetrics`]: stream counters plus the TTFV/TTAV
//!   milestones, as flat JSON.
//!
//! Determinism is a contract: given the same seeds and knobs, two runs
//! produce byte-identical JSONL (pinned by the property tests in
//! `tests/queue_props.rs` and the integration suite).

pub mod cadence;
pub mod event;
pub mod link;
pub mod metrics;
pub mod stream;

pub use cadence::{CadenceConfig, PollCadence};
pub use event::{EventQueue, SimTime};
pub use link::{IngestChannel, LinkModel, LinkSpec, TimedDelivery};
pub use metrics::IngestMetrics;
pub use stream::{
    StreamAction, StreamConfig, StreamDriver, StreamError, StreamEvent, StreamReport,
};
