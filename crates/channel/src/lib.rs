//! The simulated **control channel** between the FOCES controller and its
//! switches — the part of the paper's stack that OpenFlow/Floodlight-REST
//! played (§II-A: "the controller … can request counters of rules from
//! switches"; §VI-A: "the Statistics Collector periodically queries
//! switches for flow statistics").
//!
//! Why this matters for fidelity: in the rest of this workspace the
//! detector reads counters straight out of the [`foces_dataplane::DataPlane`]
//! — omniscient ground truth. In the paper's threat model the controller
//! only ever sees what switches **report**, and a compromised switch lies:
//! it answers table dumps with the original (pre-modification) rules and
//! may forge its own counters (§II-B: "simply dumping flow tables is not
//! effective"). This crate restores that boundary:
//!
//! * [`message`] — a compact binary wire format ([`bytes`]-based) for
//!   stats requests/replies and table dumps, with strict decoding;
//! * [`agent`] — per-switch endpoints: [`HonestAgent`] reports the truth,
//!   [`ForgingAgent`] reports the controller's own expectations back at it;
//! * [`transport`] — the delivery-policy hook: [`wire_exchange`] is one
//!   full round-trip through the codec, and every lockstep exchange goes
//!   through a [`Transport`] ([`PerfectTransport`] by default), so fault
//!   models (latency, loss, offline switches — see `foces-runtime`) plug in
//!   without touching the codec or the agents. The controller side of the
//!   channel, the Statistics Collector of the paper's Fig. 6, lives in the
//!   drivers: `foces_runtime::EpochScheduler` polls in lockstep and
//!   `foces_ingest::IngestChannel` delivers event-driven replies;
//! * [`collusion`] — how colluding liars plan consistent forgeries;
//! * [`fault`] — the shared fault vocabulary: a per-switch
//!   [`FaultProfile`] (latency/jitter/drop/reorder/offline windows) and
//!   the seeded [`FaultModel`] sampler, consumed by both the lockstep
//!   `SimTransport` in `foces-runtime` and the per-link channel models in
//!   `foces-ingest`.
//!
//! # Example
//!
//! A forged table dump passes an audit against the controller's view,
//! while the switch's true table no longer matches it (§II-B):
//!
//! ```
//! use foces_channel::{
//!     wire_exchange, ControllerMsg, ForgingAgent, HonestAgent, SwitchAgent, SwitchMsg,
//! };
//! use foces_controlplane::{provision, uniform_flows, RuleGranularity};
//! use foces_dataplane::{Action, RuleRef};
//! use foces_net::{generators::ring, SwitchId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let topo = ring(4);
//! let flows = uniform_flows(&topo, 12_000.0);
//! let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair)?;
//! let sw = SwitchId(0);
//! let original = dep.view.table(sw).iter().map(|(_, r)| r.clone()).collect();
//! dep.dataplane
//!     .modify_rule_action(RuleRef { switch: sw, index: 0 }, Action::Drop)?;
//!
//! // Each dump round-trips through the wire format both ways.
//! let dump = ControllerMsg::TableDumpRequest { xid: 1 };
//! let first_action = |agent: &dyn SwitchAgent| {
//!     match wire_exchange(&dep.dataplane, agent, &dump) {
//!         Ok(SwitchMsg::TableDumpReply { rules, .. }) => rules[0].action,
//!         other => panic!("unexpected reply {other:?}"),
//!     }
//! };
//! let expected = dep.view.table(sw).get(0).unwrap().action();
//! assert_ne!(first_action(&HonestAgent::new(sw)), expected);
//! assert_eq!(first_action(&ForgingAgent::new(sw, original)), expected);
//! # Ok(())
//! # }
//! ```

pub mod agent;
pub mod collusion;
pub mod fault;
pub mod message;
pub mod transport;

pub use agent::{ForgingAgent, HonestAgent, SwitchAgent};
pub use collusion::{plan_collusion, CollusionInputs, CollusionPlan, FakeStrategy, RuleFacts};
pub use fault::{Fate, FaultModel, FaultProfile};
pub use message::{ControllerMsg, SwitchMsg, WireError, WireRule};
pub use transport::{wire_exchange, ChannelError, Delivery, PerfectTransport, Transport};
