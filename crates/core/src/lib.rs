//! **FOCES** — network-wide forwarding anomaly detection for software-defined
//! networks, a from-scratch Rust reproduction of the ICDCS 2018 paper
//! *"FOCES: Detecting Forwarding Anomalies in Software Defined Networks"*.
//!
//! # The idea
//!
//! A compromised SDN switch can forward packets along paths the controller
//! never programmed — bypassing firewalls, detouring, or silently dropping
//! traffic — while forging its flow-table dumps and its own counters.
//! FOCES detects this **without any dedicated measurement rules**, using
//! only the counters of the ordinary forwarding rules:
//!
//! 1. From the controller's view of the network, build the **flow-counter
//!    matrix** `H`: one row per rule, one column per logical flow,
//!    `H[i][j] = 1` iff flow `j` traverses rule `i` ([`Fcm`]).
//! 2. Collect the counter vector `Y'` from the data plane.
//! 3. If forwarding is correct, `H·X = Y'` has a consistent solution in the
//!    flow volumes `X`. Solve the least-squares problem
//!    `X̂ = argmin ‖H·X − Y'‖` and inspect the residual
//!    `Δ = |Y' − H·X̂|` ([`EquationSystem`]).
//! 4. Noise (packet loss, unsynchronized counters) makes `Δ` slightly
//!    nonzero even in healthy networks, so FOCES flags an anomaly only when
//!    the **anomaly index** `AI = Err_max / Err_med` exceeds a threshold
//!    (default 4.5, derived from a folded-normal noise model)
//!    ([`Detector`], [`threshold`]).
//!
//! For scalability, the FCM can be **sliced** per switch (paper §IV-B):
//! each switch gets the sub-matrix of its own and predecessor rules, and
//! detection runs per slice with the same guarantees (Theorem 3)
//! ([`SlicedFcm`]). Slicing also enables **localization** of the
//! compromised switch ([`localize`], the paper's future work).
//!
//! The theory lives in [`rbg`] and the detectability oracle
//! ([`SpanOracle`], [`undetectable_by_rank`]): an anomaly is
//! undetectable iff the deviated flow column stays inside the FCM's column
//! span (Theorem 1), which reduces to a loop in a per-switch rule bipartite
//! graph (Theorem 2).
//!
//! # Quickstart
//!
//! ```
//! use foces::{Detector, Fcm};
//! use foces_controlplane::{provision, uniform_flows, RuleGranularity};
//! use foces_dataplane::LossModel;
//! use foces_net::generators::bcube;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Provision the paper's BCube(1,4) testbed.
//! let topo = bcube(1, 4);
//! let flows = uniform_flows(&topo, 240_000.0);
//! let mut dep = provision(topo, &flows, RuleGranularity::PerDestination)?;
//!
//! // Build the FCM from the controller's view and run one detection round.
//! let fcm = Fcm::from_view(&dep.view);
//! dep.replay_traffic(&mut LossModel::none());
//! let counters = dep.dataplane.collect_counters();
//! let detector = Detector::default();
//! let verdict = detector.detect(&fcm, &counters)?;
//! assert!(!verdict.anomalous); // healthy network
//! # Ok(())
//! # }
//! ```

mod audit;
mod byzantine;
pub mod coverage;
mod detectability;
mod detector;
mod error;
mod fcm;
mod harden;
mod incremental;
mod json;
mod localize;
mod monitor;
pub mod rbg;
mod shard;
mod slicing;
mod solver;
pub mod testkit;
pub mod threshold;
mod without;

pub use audit::{audit_deviations, DeviationAudit, DeviationCandidate};
pub use byzantine::{
    cross_validate, k_resilient_verdict, ByzantineConfig, ByzantineReport, LiarRound, LooOutcome,
    LooSolver, LooStatus, ResilienceReport, ResilienceStep, RoundCore, RoundCounts, RoundOutcome,
    SuspicionConfig, SuspicionTracker,
};
pub use coverage::{
    analyze_cluster_coverage, analyze_coverage, AbsorptionCertificate, CoverageConfig,
    CoverageFinding, CoverageKind, CoverageReport, CoverageSeverity, LooClass, ShardCoverage,
    SwitchCoverage,
};
pub use detectability::{coverage_without, rbg_loop_exists, undetectable_by_rank, SpanOracle};
pub use detector::{Detector, Verdict};
pub use error::FocesError;
pub use fcm::{BasisSystem, ColumnGroups, Fcm, MaskedFcm};
pub use harden::{harden, HardeningOutcome};
pub use incremental::{FcmDelta, IncrementalSolver, RankBudget, SolvePath};
pub use json::{json_f64, json_str};
pub use localize::{localize, SwitchSuspicion};
pub use monitor::{
    AlarmMachine, AlarmState, AlarmTransition, HysteresisConfig, Monitor, MonitorReport,
};
pub use shard::{ShardUnionVerdict, ShardView, ShardedFcm};
pub use slicing::{SlicedFcm, SlicedVerdict};
pub use solver::{EquationSystem, SolveOutcome};
pub use without::Removed;
// Backend selection comes from the sparse engine crate; re-exported so
// downstream crates (runtime, cluster, ingest, cli) need no direct
// foces-sparse dependency.
pub use foces_sparse::BackendKind;

/// The paper's default detection threshold (§IV-A): with counter noise
/// `Y'(i) ~ N(Y₀(i), σ²)`, `Err_med ≈ 0.675σ` and `Err_max ≲ 3σ`, so a
/// healthy anomaly index stays below `3/0.675 ≈ 4.4` with probability
/// ≈ 0.997; 4.5 adds a small margin.
pub const DEFAULT_THRESHOLD: f64 = 4.5;
