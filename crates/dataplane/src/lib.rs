//! SDN data-plane simulator for the FOCES reproduction.
//!
//! The paper runs its experiments on Mininet with Open vSwitch: iperf flows
//! between every host pair, rule counters collected every few seconds, and
//! forwarding anomalies created by manually rewriting flow-table entries on
//! "compromised" switches. This crate is the Rust stand-in for that whole
//! stack, built around a *fluid* traffic model:
//!
//! * every flow is a packet **volume** (a packet count for one collection
//!   interval) rather than a stream of discrete packets;
//! * volumes propagate hop-by-hop through per-switch [`FlowTable`]s, with
//!   each matched rule's counter accumulating the volume that matched it;
//! * per-link packet loss is sampled binomially (per-packet Bernoulli), so
//!   counters pick up exactly the loss-induced noise FOCES must tolerate;
//! * anomalies (path deviation, early drop, …) are injected by editing the
//!   *forwarding action* of a rule while leaving its match and counter
//!   behaviour untouched — precisely the paper's adversary, who reports
//!   unmodified flow tables and keeps its own counters consistent.
//!
//! Why this preserves the paper's behaviour: FOCES never inspects packets;
//! its only input is the vector of rule counters. Binomially-thinned fluid
//! volumes produce the same counter statistics as lossy discrete forwarding.
//!
//! # Example
//!
//! ```
//! use foces_dataplane::{Action, DataPlane, LossModel, Rule};
//! use foces_headerspace::Wildcard;
//! use foces_net::{Node, Port, Topology};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut topo = Topology::new();
//! let s0 = topo.add_switch();
//! let h0 = topo.add_host();
//! let h1 = topo.add_host();
//! topo.connect(Node::Host(h0), Node::Switch(s0))?;
//! topo.connect(Node::Host(h1), Node::Switch(s0))?;
//! let mut dp = DataPlane::new(topo);
//! // One rule: anything -> port 1 (towards h1).
//! dp.install(s0, Rule::new(Wildcard::any(32), 0, Action::Forward(Port(1))));
//! let report = dp.inject(h0, 0, 1000.0, &mut LossModel::none());
//! assert_eq!(report.delivered_to, Some(h1));
//! assert_eq!(dp.counter(s0, 0), 1000.0);
//! # Ok(())
//! # }
//! ```

mod anomaly;
mod loss;
mod plane;
mod rule;
mod table;

pub use anomaly::{inject_counter_fake, inject_random_anomaly, AnomalyKind, AppliedAnomaly};
pub use loss::LossModel;
pub use plane::{CollectionNoise, DataPlane, DataPlaneError, DeliveryReport, RuleRef, MAX_HOPS};
pub use rule::{Action, Rule, HEADER_WIDTH};
pub use table::FlowTable;

/// Packs a `(src_host, dst_host)` pair into the 32-bit concrete header used
/// throughout the reproduction: the high 16 bits carry the source host id,
/// the low 16 bits the destination host id.
///
/// # Panics
///
/// Panics if either id is ≥ 2¹⁶ (no paper topology comes close).
pub fn pair_header(src: foces_net::HostId, dst: foces_net::HostId) -> u64 {
    assert!(src.0 < 1 << 16 && dst.0 < 1 << 16, "host id out of range");
    ((src.0 as u64) << 16) | dst.0 as u64
}

/// A match pattern covering every packet destined to `dst` (any source):
/// the per-destination rules the control plane installs.
pub fn dst_match(dst: foces_net::HostId) -> foces_headerspace::Wildcard {
    let mut w = foces_headerspace::Wildcard::any(HEADER_WIDTH);
    for pos in 0..16 {
        let bit = (dst.0 >> (15 - pos)) & 1 == 1;
        w.set_bit(16 + pos, Some(bit));
    }
    w
}

/// A match pattern for exactly the `(src, dst)` pair: the per-flow-pair
/// rule granularity ablation.
pub fn pair_match(src: foces_net::HostId, dst: foces_net::HostId) -> foces_headerspace::Wildcard {
    foces_headerspace::Wildcard::exact(HEADER_WIDTH, pair_header(src, dst))
}
