//! Delivery-policy hook for the control channel.
//!
//! A lockstep poller (`foces_runtime::EpochScheduler`) talks to switches
//! through a [`Transport`]: a policy deciding whether (and how late) each
//! request/reply exchange completes. The wire codec is *not* negotiable —
//! every delivered exchange still round-trips through
//! [`ControllerMsg::encode`] / [`SwitchMsg::decode`] via [`wire_exchange`]
//! — only delivery is. [`PerfectTransport`] is the ideal channel the rest
//! of the workspace assumed before this hook existed; fault-injecting
//! transports (latency, jitter, drops, offline windows) live in
//! `foces-runtime`, which owns the randomness.

use crate::agent::SwitchAgent;
use crate::message::{ControllerMsg, SwitchMsg, WireError};
use foces_dataplane::DataPlane;
use std::error::Error;
use std::fmt;

/// A protocol failure on the control channel: a request or reply that does
/// not decode. Loss is not an error (see [`Delivery`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChannelError {
    /// A wire decode failure.
    Wire(WireError),
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl Error for ChannelError {}

impl From<WireError> for ChannelError {
    fn from(e: WireError) -> Self {
        ChannelError::Wire(e)
    }
}

/// Outcome of one attempted request/reply exchange.
#[derive(Debug, Clone, PartialEq)]
pub enum Delivery {
    /// The reply arrived, `latency_ms` of simulated channel time after the
    /// request was sent.
    Delivered {
        /// The decoded reply.
        reply: SwitchMsg,
        /// Simulated round-trip latency in milliseconds.
        latency_ms: f64,
    },
    /// The request or the reply was lost in flight; retrying may succeed.
    Dropped,
    /// The switch is offline (crashed or partitioned); retrying within the
    /// same epoch will not help.
    Offline,
}

/// A delivery policy for controller ↔ switch exchanges.
///
/// `exchange` takes `&mut self` so implementations can hold RNG state,
/// in-flight reorder buffers, or per-switch clocks. Errors are reserved
/// for *protocol* failures (malformed bytes); loss is data
/// ([`Delivery::Dropped`] / [`Delivery::Offline`]), not an error.
pub trait Transport {
    /// Attempts one request/reply exchange with `agent`.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError`] only for wire-level protocol violations.
    fn exchange(
        &mut self,
        dp: &DataPlane,
        agent: &dyn SwitchAgent,
        msg: &ControllerMsg,
    ) -> Result<Delivery, ChannelError>;

    /// Advances simulated time to `epoch`. Time-dependent policies
    /// (offline windows, crash-restart cycles) override this; the default
    /// is a no-op.
    fn on_epoch(&mut self, _epoch: u64) {}
}

/// The ideal channel: always delivers, zero latency — but still pushes
/// every message through the wire codec, so the format is exercised on
/// every exchange.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfectTransport;

impl Transport for PerfectTransport {
    fn exchange(
        &mut self,
        dp: &DataPlane,
        agent: &dyn SwitchAgent,
        msg: &ControllerMsg,
    ) -> Result<Delivery, ChannelError> {
        Ok(Delivery::Delivered {
            reply: wire_exchange(dp, agent, msg)?,
            latency_ms: 0.0,
        })
    }
}

/// One full wire round-trip: encode the request, decode it on the switch
/// side, let the agent answer, encode the reply, decode it on the
/// controller side. Transports that deliver at all should deliver through
/// this, so no simulated path skips the codec.
///
/// # Errors
///
/// Returns [`ChannelError::Wire`] if either direction fails to decode.
pub fn wire_exchange(
    dp: &DataPlane,
    agent: &dyn SwitchAgent,
    msg: &ControllerMsg,
) -> Result<SwitchMsg, ChannelError> {
    let decoded_req = ControllerMsg::decode(msg.encode())?;
    let reply = agent.handle(dp, &decoded_req);
    Ok(SwitchMsg::decode(reply.encode())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HonestAgent;
    use foces_controlplane::{provision, uniform_flows, RuleGranularity};
    use foces_dataplane::LossModel;
    use foces_net::generators::ring;

    #[test]
    fn perfect_transport_delivers_the_truth() {
        let topo = ring(4);
        let flows = uniform_flows(&topo, 1000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
        dep.replay_traffic(&mut LossModel::none());
        let sw = foces_net::SwitchId(0);
        let agent = HonestAgent::new(sw);
        let mut t = PerfectTransport;
        t.on_epoch(3); // default hook: no-op, must not panic
        let d = t
            .exchange(
                &dep.dataplane,
                &agent,
                &ControllerMsg::StatsRequest { xid: 5 },
            )
            .unwrap();
        let Delivery::Delivered { reply, latency_ms } = d else {
            panic!("perfect transport dropped")
        };
        assert_eq!(latency_ms, 0.0);
        let SwitchMsg::StatsReply { xid, counters, .. } = reply else {
            panic!("wrong reply type")
        };
        assert_eq!(xid, 5);
        let expected: Vec<f64> = (0..dep.dataplane.table(sw).len())
            .map(|i| dep.dataplane.counter(sw, i))
            .collect();
        assert_eq!(counters, expected);
    }
}
