//! Per-link channel models and the event-driven ingest transport.
//!
//! The lockstep `SimTransport` samples one scalar round-trip latency per
//! exchange; nothing contends with anything because only one exchange is
//! ever "in flight". Continuous ingestion breaks that assumption: many
//! replies race toward the controller at once, and on a real control
//! network they share links. [`LinkModel`] gives each shared link the
//! three properties that matter (OMNeT++/INET-style):
//!
//! * **propagation delay** — a constant flight time per traversal;
//! * **serialization bandwidth** — a message occupies the link for
//!   `bytes / bytes_per_ms`, so back-to-back replies queue behind each
//!   other's transmission;
//! * **a bounded queue** — at most `queue_capacity` messages may be
//!   waiting; an arrival beyond that is a *congestion drop*.
//!
//! [`IngestChannel`] composes those links into the controller's view of
//! the network: each switch reaches its region's shared **uplink**
//! through a per-switch **access** hop, and per-switch fault behaviour
//! (drops, jitter, offline windows, stale-reply reordering) comes from
//! the same [`FaultProfile`]/[`FaultModel`] vocabulary the lockstep
//! transport uses — one fault surface, two delivery disciplines.

use foces_channel::{
    wire_exchange, ChannelError, ControllerMsg, Delivery, Fate, FaultModel, FaultProfile,
    SwitchAgent, SwitchMsg,
};
use foces_dataplane::DataPlane;
use foces_net::SwitchId;
use std::collections::HashMap;

use crate::event::SimTime;

/// Static properties of one simulated link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// One-way flight time per traversal, milliseconds.
    pub propagation_ms: f64,
    /// Serialization rate: a `b`-byte message occupies the link for
    /// `b / bytes_per_ms` milliseconds.
    pub bytes_per_ms: f64,
    /// Maximum messages queued behind the one being serialized; the next
    /// arrival is dropped (congestion loss).
    pub queue_capacity: usize,
}

impl Default for LinkSpec {
    /// A 10 Mbit/s-ish control link: 0.5 ms flight, 1250 bytes/ms,
    /// 64-message queue.
    fn default() -> Self {
        LinkSpec {
            propagation_ms: 0.5,
            bytes_per_ms: 1250.0,
            queue_capacity: 64,
        }
    }
}

/// Dynamic state of one link: when its transmitter frees up and which
/// queued messages have not yet departed.
#[derive(Debug, Clone)]
pub struct LinkModel {
    spec: LinkSpec,
    busy_until: SimTime,
    /// Departure times of queued/in-service messages, ascending.
    departures: Vec<SimTime>,
    drops: u64,
}

impl LinkModel {
    /// A quiet link with the given spec.
    pub fn new(spec: LinkSpec) -> Self {
        LinkModel {
            spec,
            busy_until: SimTime::ZERO,
            departures: Vec::new(),
            drops: 0,
        }
    }

    /// The link's static spec.
    pub fn spec(&self) -> &LinkSpec {
        &self.spec
    }

    /// Congestion drops so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Offers a `bytes`-byte message to the link at `now`.
    ///
    /// Returns the instant the message *arrives at the far end*
    /// (serialization wait + serialization time + propagation), or `None`
    /// if the bounded queue is full and the message is dropped.
    pub fn transmit(&mut self, now: SimTime, bytes: usize) -> Option<SimTime> {
        // Messages that have fully departed by `now` free their slots.
        self.departures.retain(|&d| d > now);
        if self.departures.len() > self.spec.queue_capacity {
            self.drops += 1;
            return None;
        }
        let start = self.busy_until.max(now);
        let ser_ms = bytes as f64 / self.spec.bytes_per_ms;
        let departed = start.after_ms(ser_ms);
        self.busy_until = departed;
        self.departures.push(departed);
        Some(departed.after_ms(self.spec.propagation_ms))
    }
}

/// A [`Delivery`] stamped with the simulated instant the reply lands.
///
/// The asynchronous face of the channel: an event-driven consumer sends a
/// request at `now_ms`, gets back *when* the outcome materialises, and
/// schedules a future event instead of blocking on the exchange. Lost and
/// offline outcomes carry the instant the sender can *know* the attempt
/// failed (i.e. when its local timeout machinery may fire), which for
/// simulated channels is the send instant itself.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedDelivery {
    /// What happened to the exchange.
    pub delivery: Delivery,
    /// Absolute simulated time (ms) at which `delivery` is observable at
    /// the controller: arrival time for a delivered reply, the send
    /// instant for drops/offline.
    pub at_ms: f64,
}

/// The event-driven ingest transport: per-switch access hops into
/// per-region shared uplinks, with per-switch [`FaultProfile`] behaviour.
///
/// [`IngestChannel::exchange_at`] is its one surface: the caller supplies
/// the absolute send instant and gets back the absolute arrival instant,
/// computed from channel state (uplink occupancy) *at that instant*.
#[derive(Debug, Clone)]
pub struct IngestChannel {
    faults: FaultModel,
    default_access: LinkSpec,
    access_override: HashMap<SwitchId, LinkSpec>,
    /// Lazily materialised per-switch access links.
    access: HashMap<SwitchId, LinkModel>,
    region_of: HashMap<SwitchId, usize>,
    uplinks: Vec<LinkModel>,
    /// Last fresh reply per switch, the stale-reorder buffer
    /// (same semantics as the lockstep `SimTransport`).
    stale: HashMap<SwitchId, SwitchMsg>,
}

impl IngestChannel {
    /// Builds the channel for shard `members[region] = switches`.
    ///
    /// Every access hop starts from `access` and every uplink from
    /// `uplink`; override per switch/region afterwards for heterogeneous
    /// topologies.
    pub fn new(
        seed: u64,
        default_profile: FaultProfile,
        access: LinkSpec,
        uplink: LinkSpec,
        members: &[Vec<SwitchId>],
    ) -> Self {
        let mut region_of = HashMap::new();
        for (r, sws) in members.iter().enumerate() {
            for &s in sws {
                region_of.insert(s, r);
            }
        }
        IngestChannel {
            faults: FaultModel::new(seed, default_profile),
            default_access: access,
            access_override: HashMap::new(),
            access: HashMap::new(),
            region_of,
            uplinks: members
                .iter()
                .map(|_| LinkModel::new(uplink.clone()))
                .collect(),
            stale: HashMap::new(),
        }
    }

    /// Overrides one switch's fault profile.
    pub fn set_profile(&mut self, switch: SwitchId, profile: FaultProfile) {
        self.faults.set_profile(switch, profile);
    }

    /// Overrides one switch's access-hop spec (heterogeneous delays).
    pub fn set_access(&mut self, switch: SwitchId, spec: LinkSpec) {
        self.access.remove(&switch);
        self.access_override.insert(switch, spec);
    }

    /// The access spec governing `switch`.
    pub fn access_spec(&self, switch: SwitchId) -> &LinkSpec {
        self.access_override
            .get(&switch)
            .unwrap_or(&self.default_access)
    }

    /// Congestion drops across all uplinks.
    pub fn congestion_drops(&self) -> u64 {
        self.uplinks.iter().map(LinkModel::drops).sum()
    }

    fn access_prop_ms(&mut self, switch: SwitchId) -> f64 {
        self.access_spec(switch).propagation_ms
    }

    /// Sends `msg` to `agent` at absolute simulated time `now_ms` and
    /// returns when its outcome lands at the controller.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError`] only for wire-level protocol violations.
    pub fn exchange_at(
        &mut self,
        dp: &DataPlane,
        agent: &dyn SwitchAgent,
        msg: &ControllerMsg,
        now_ms: f64,
    ) -> Result<TimedDelivery, ChannelError> {
        let sw = agent.switch();
        let now = SimTime::from_ms(now_ms);
        // Whole simulated milliseconds are this transport's offline clock.
        let (latency_ms, reorder) = match self.faults.fate(sw, now_ms as u64) {
            Fate::Offline => {
                return Ok(TimedDelivery {
                    delivery: Delivery::Offline,
                    at_ms: now_ms,
                })
            }
            Fate::Dropped => {
                return Ok(TimedDelivery {
                    delivery: Delivery::Dropped,
                    at_ms: now_ms,
                })
            }
            Fate::Deliver {
                latency_ms,
                reorder,
            } => (latency_ms, reorder),
        };
        // Request flight + switch turnaround: per-switch profile latency
        // (base + jitter) plus the access hop toward the fabric.
        let reply_ready = now.after_ms(latency_ms + self.access_prop_ms(sw));
        let fresh = wire_exchange(dp, agent, msg)?;
        let reply = if reorder {
            self.stale.insert(sw, fresh.clone()).unwrap_or(fresh)
        } else {
            self.stale.insert(sw, fresh.clone());
            fresh
        };
        let bytes = reply.encode().len();
        let region = self.region_of.get(&sw).copied();
        let arrival = match region {
            Some(r) => match self.uplinks[r].transmit(reply_ready, bytes) {
                Some(t) => t,
                None => {
                    // Congestion drop on the shared uplink: the reply is
                    // gone; the poller learns via its timeout.
                    return Ok(TimedDelivery {
                        delivery: Delivery::Dropped,
                        at_ms: now_ms,
                    });
                }
            },
            // A switch outside every region (degenerate partition) skips
            // uplink contention.
            None => reply_ready,
        };
        let total_latency = arrival.as_ms() - now_ms;
        Ok(TimedDelivery {
            delivery: Delivery::Delivered {
                reply,
                latency_ms: total_latency,
            },
            at_ms: arrival.as_ms(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foces_channel::HonestAgent;
    use foces_controlplane::{provision, uniform_flows, RuleGranularity};
    use foces_dataplane::LossModel;
    use foces_net::generators::ring;

    #[test]
    fn serialization_makes_concurrent_replies_queue() {
        let mut link = LinkModel::new(LinkSpec {
            propagation_ms: 1.0,
            bytes_per_ms: 100.0,
            queue_capacity: 8,
        });
        // Two 200-byte messages offered at the same instant: the second
        // serializes behind the first.
        let a = link.transmit(SimTime::ZERO, 200).unwrap();
        let b = link.transmit(SimTime::ZERO, 200).unwrap();
        assert_eq!(a, SimTime::from_ms(3.0), "2 ms serialization + 1 ms flight");
        assert_eq!(b, SimTime::from_ms(5.0), "waits out the first transmission");
        // A later arrival, after the link drained, sees no queueing.
        let c = link.transmit(SimTime::from_ms(10.0), 100).unwrap();
        assert_eq!(c, SimTime::from_ms(12.0));
    }

    #[test]
    fn bounded_queue_drops_the_overflow() {
        let mut link = LinkModel::new(LinkSpec {
            propagation_ms: 0.0,
            bytes_per_ms: 1.0,
            queue_capacity: 2,
        });
        // Each message serializes for 100 ms; capacity 2 means the 4th
        // concurrent offer (1 in service + 2 queued + 1 over) drops.
        assert!(link.transmit(SimTime::ZERO, 100).is_some());
        assert!(link.transmit(SimTime::ZERO, 100).is_some());
        assert!(link.transmit(SimTime::ZERO, 100).is_some());
        assert!(link.transmit(SimTime::ZERO, 100).is_none(), "overflow");
        assert_eq!(link.drops(), 1);
        // Once the backlog drains, the link accepts again.
        assert!(link.transmit(SimTime::from_ms(400.0), 100).is_some());
    }

    #[test]
    fn exchange_at_composes_access_uplink_and_profile() {
        let topo = ring(4);
        let flows = uniform_flows(&topo, 1000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
        dep.replay_traffic(&mut LossModel::none());
        let sw = foces_net::SwitchId(0);
        let members = vec![vec![sw, foces_net::SwitchId(1)]];
        let mut ch = IngestChannel::new(
            5,
            FaultProfile::default(), // 1 ms latency, no faults
            LinkSpec {
                propagation_ms: 2.0,
                ..LinkSpec::default()
            },
            LinkSpec {
                propagation_ms: 3.0,
                bytes_per_ms: 1_000_000.0, // serialization ≈ 0
                queue_capacity: 8,
            },
            &members,
        );
        let agent = HonestAgent::new(sw);
        let td = ch
            .exchange_at(
                &dep.dataplane,
                &agent,
                &ControllerMsg::StatsRequest { xid: 1 },
                10.0,
            )
            .unwrap();
        // 10 (send) + 1 (profile) + 2 (access) + ~0 (ser) + 3 (uplink).
        assert!(
            (td.at_ms - 16.0).abs() < 0.05,
            "arrival {} should be ≈16 ms",
            td.at_ms
        );
        assert!(matches!(td.delivery, Delivery::Delivered { .. }));
    }

    #[test]
    fn same_seed_same_timing() {
        let topo = ring(4);
        let flows = uniform_flows(&topo, 1000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
        dep.replay_traffic(&mut LossModel::none());
        let members = vec![vec![foces_net::SwitchId(0), foces_net::SwitchId(1)]];
        let profile = FaultProfile {
            jitter_ms: 3.0,
            drop_prob: 0.2,
            ..FaultProfile::default()
        };
        let run = |seed: u64| -> Vec<(bool, u64)> {
            let mut ch = IngestChannel::new(
                seed,
                profile.clone(),
                LinkSpec::default(),
                LinkSpec::default(),
                &members,
            );
            let agent = HonestAgent::new(foces_net::SwitchId(0));
            (0..24)
                .map(|i| {
                    let td = ch
                        .exchange_at(
                            &dep.dataplane,
                            &agent,
                            &ControllerMsg::StatsRequest { xid: i },
                            i as f64 * 5.0,
                        )
                        .unwrap();
                    (
                        matches!(td.delivery, Delivery::Delivered { .. }),
                        SimTime::from_ms(td.at_ms).0,
                    )
                })
                .collect()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds should diverge");
    }
}
