//! **foces-cluster** — sharded multi-worker detection with boundary-flow
//! reconciliation.
//!
//! The paper's Algorithm 2 slices the FCM per switch to cut the `O(N³)`
//! solve, but the sliced detector still runs inside one process over one
//! global snapshot. This crate adds the deployment-level partition that
//! distributed SDN control planes use to scale out: the topology is cut
//! into `k` **region shards** ([`foces_net::partition()`]), each shard gets
//! its own sub-FCM with explicit boundary flows ([`foces::ShardedFcm`]),
//! and a [`ClusterService`] drives one logical worker per shard on the
//! runtime's work-stealing pool ([`foces_runtime::pool`]):
//!
//! * **Warm solves stay per-shard.** Every shard owns an
//!   [`foces::IncrementalSolver`]; after the first epoch each healthy
//!   shard reports `warm` and only solves on its sub-FCM's memoized
//!   factor.
//! * **Faults degrade, they don't silence.** A worker that panics or
//!   misses its deadline marks *its* shard degraded; the coordinator
//!   aggregates the remaining shards into the network-wide verdict and
//!   quantifies the blind spot — the rows and flows no healthy shard
//!   observes ([`foces::Fcm::flows_blinded`]) — as a detectability report.
//! * **Everything is observable.** Per-shard solve path, queue depth,
//!   steal flag and degraded reason land in a JSONL epoch line
//!   ([`foces_runtime::EventLog`]), plus cumulative [`ClusterMetrics`].
//! * **Shards can fire without a barrier.** [`ShardCompletion`] tracks
//!   per-shard counter freshness and reports the exact completion edge,
//!   so event-driven ingestion (`foces-ingest`) triggers each shard's
//!   solve the moment its own members have answered instead of waiting
//!   for the global epoch wall.
//!
//! The shard-union verdict is pinned against the global
//! [`foces::Detector::detect`] by the 256-case property suite in
//! `crates/core/tests/shard_props.rs`, and against worker faults by
//! `tests/cluster_faults.rs` and the stress test in this crate.

pub mod completion;
mod metrics;
pub mod reconcile;
mod service;

pub use completion::ShardCompletion;
pub use metrics::ClusterMetrics;
pub use reconcile::{reconcile_shard_round, ShardRound, ShardRoundKind};
pub use service::{
    ClusterConfig, ClusterEpochReport, ClusterService, DegradeReason, DetectabilityReport,
    ShardFault, ShardHealth, ShardReport,
};
