//! ATPG-style logical-flow computation (paper §III-B, "FCM Generation").
//!
//! FOCES's flow-counter matrix has one column per **logical flow**: an
//! equivalence class of packets that traverse exactly the same set of rules.
//! Following ATPG, these classes are found by injecting a symbolic header at
//! every terminal port and pushing it through the network's flow tables:
//!
//! 1. start at a host's attachment port with the host's source address
//!    pinned and everything else wildcarded;
//! 2. at each switch, for every rule the region can match (minding priority
//!    shadowing), intersect the region with the rule's match fields, append
//!    the rule to the region's history, and forward along the rule's action;
//! 3. when a region reaches a host port, emit a [`LogicalFlow`] recording
//!    the rule history — one future FCM column.
//!
//! Regions are tracked as a positive [`Wildcard`] plus a list of negative
//! wildcards (higher-priority matches already peeled off). Emptiness is
//! decided by single-negative containment, which is exact whenever the
//! rules at each switch are pairwise disjoint or nested — true for every
//! rule set our control plane emits (per-destination and per-pair rules are
//! exact on the relevant fields). [`trace_flows`] debug-asserts this
//! precondition ([`foces_dataplane::FlowTable::is_disjoint_or_nested`]).
//!
//! # Cost
//!
//! Each switch visit asks the table's index for the rules the region meets
//! ([`foces_dataplane::FlowTable::overlapping`]) and walks only those, in
//! precedence order; a rule disjoint from the region could only fail the
//! intersection, so skipping it changes nothing. The query costs one hash probe per mask
//! group of the table whose bits the region pins, and a masked compare per
//! distinct match of every other group. Each rule met then costs one
//! intersection and one filter of the region's peeled negatives. Past the
//! first hop a region pins its destination, so a per-destination or
//! per-pair table answers with probes and meets one or two rules. At the
//! ingress switch only the source is pinned: a per-destination table meets
//! all its rules, and a per-pair table compares all its matches but meets
//! only the pinned source's. The final sort compares headers as ternary
//! strings without formatting them ([`Wildcard::cmp_ternary`]).
//!
//! A rule update need not re-trace every host. A traced region only
//! shrinks along its path, so it stays inside its host's pinned source
//! region; a rule disjoint from that region never meets, and never
//! shadows, a class from that host. After rules are installed, only the
//! hosts they meet ([`hosts_meeting`]) need re-tracing ([`trace_hosts`]),
//! and the old flows of every other host stay as they were. A per-pair
//! rule pins one source, so a per-pair reroute re-traces one host; a
//! per-destination rule meets every host. `foces::Fcm::patched` splices
//! the re-traced flows into the old list in [`flow_order`].
//!
//! # Example
//!
//! ```
//! use foces_atpg::trace_flows;
//! use foces_controlplane::{provision, uniform_flows, RuleGranularity};
//! use foces_net::generators::fattree;
//!
//! let topo = fattree(4);
//! let flows = uniform_flows(&topo, 240_000.0);
//! let dep = provision(topo, &flows, RuleGranularity::PerDestination).unwrap();
//! let logical = trace_flows(&dep.view);
//! assert_eq!(logical.len(), 240); // one class per ordered host pair
//! ```

use foces_controlplane::ControllerView;
use foces_dataplane::{Action, RuleRef, HEADER_WIDTH};
use foces_headerspace::Wildcard;
use foces_net::{HostId, Node, SwitchId};
use std::cmp::Ordering;

/// One logical flow: a packet equivalence class and the rules it traverses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicalFlow {
    /// The host whose terminal port the class was injected at.
    pub ingress: HostId,
    /// The host the class is delivered to.
    pub egress: HostId,
    /// The symbolic header region of the class.
    pub header: Wildcard,
    /// Rules matched, in traversal order (`h.history` in the paper).
    pub rules: Vec<RuleRef>,
    /// Switches traversed, in order (parallel to `rules` for single-table
    /// switches).
    pub path: Vec<SwitchId>,
}

impl LogicalFlow {
    /// A representative concrete header of the class (the region's
    /// wildcard bits set to zero).
    ///
    /// # Panics
    ///
    /// Panics if the header is wider than 64 bits (never the case here).
    pub fn concrete_header(&self) -> u64 {
        self.header.representative()
    }
}

/// A symbolic region: a positive wildcard minus a set of already-peeled
/// higher-priority matches.
#[derive(Debug, Clone)]
struct Region {
    pos: Wildcard,
    negs: Vec<Wildcard>,
}

impl Region {
    fn is_empty(&self) -> bool {
        self.negs.iter().any(|n| self.pos.is_subset_of(n))
    }

    /// Intersects with a match pattern, keeping only negatives that still
    /// overlap. Returns `None` if the result is empty.
    fn constrain(&self, m: &Wildcard) -> Option<Region> {
        let pos = self.pos.intersect(m)?;
        let negs: Vec<Wildcard> = self
            .negs
            .iter()
            .filter(|n| pos.overlaps(n))
            .cloned()
            .collect();
        let r = Region { pos, negs };
        if r.is_empty() {
            None
        } else {
            Some(r)
        }
    }
}

/// Hop budget for symbolic traversal; rule sets from our control plane are
/// loop-free, so this only guards against pathological inputs.
const MAX_SYMBOLIC_HOPS: usize = 64;

/// Computes all logical flows of a controller view by symbolic traversal
/// from every host's terminal port.
///
/// Classes that are dropped (table miss or drop action) or that loop do not
/// produce flows — they carry no deliverable traffic and the paper's FCM
/// likewise only has columns for port-to-port reachability classes.
/// A class delivered back to its own ingress host is also excluded (it is
/// not a host-pair flow).
pub fn trace_flows(view: &ControllerView) -> Vec<LogicalFlow> {
    let hosts: Vec<HostId> = view.topology().hosts().collect();
    trace_hosts(view, &hosts)
}

/// The logical flows injected at the given ingress hosts, in
/// [`flow_order`]: exactly the flows of [`trace_flows`] whose ingress is
/// one of `hosts`, in the same order. Hosts without an attachment port
/// inject nothing.
pub fn trace_hosts(view: &ControllerView, hosts: &[HostId]) -> Vec<LogicalFlow> {
    debug_assert!(
        tables_disjoint_or_nested(view),
        "ATPG emptiness test requires per-switch rules to be pairwise \
         disjoint or nested"
    );
    let topo = view.topology();
    let mut out = Vec::new();
    for &ingress in hosts {
        let Some((first_switch, _)) = topo.host_attachment(ingress) else {
            continue;
        };
        let region = Region {
            pos: source_region(ingress),
            negs: Vec::new(),
        };
        trace_from(
            view,
            ingress,
            first_switch,
            region,
            Vec::new(),
            Vec::new(),
            0,
            &mut out,
        );
    }
    // A stable sort: equal keys keep their traversal order.
    out.sort_by(flow_order);
    out
}

/// The deterministic order of traced flows: by ingress, then egress, then
/// header as a ternary string.
pub fn flow_order(a: &LogicalFlow, b: &LogicalFlow) -> Ordering {
    (a.ingress, a.egress)
        .cmp(&(b.ingress, b.egress))
        .then_with(|| a.header.cmp_ternary(&b.header))
}

/// The header bits a host's terminal port pins: the source field.
const SOURCE_BITS: usize = 16;

/// The host's source field value (the low [`SOURCE_BITS`] of its id).
fn source_of(host: HostId) -> u32 {
    (host.0 & ((1 << SOURCE_BITS) - 1)) as u32
}

/// The symbolic header injected at a host's port: the source field pinned
/// to the host's own address (real traffic from the port carries it), and
/// everything else wildcarded. The ATPG tracer and `foces-verify`'s
/// traversal both start from it.
pub fn source_region(host: HostId) -> Wildcard {
    let source = source_of(host);
    let mut pos = Wildcard::any(HEADER_WIDTH);
    for bit in 0..SOURCE_BITS {
        pos.set_bit(bit, Some((source >> (SOURCE_BITS - 1 - bit)) & 1 == 1));
    }
    pos
}

/// The ingress hosts whose source region meets at least one of `matches`,
/// in host order — the hosts whose traces a rule with one of those
/// matches can change. A traced region only shrinks along its path, so a
/// rule disjoint from a host's source region never meets, and never
/// shadows, any class injected there.
pub fn hosts_meeting<'a>(
    view: &ControllerView,
    matches: impl IntoIterator<Item = &'a Wildcard>,
) -> Vec<HostId> {
    let topo = view.topology();
    let mut met = vec![false; topo.host_count()];
    let mut left = met.len();
    // A source region pins the source field only, so a match meets it iff
    // the match's exact source bits equal the host's: the match's
    // `(mask, value)` over that field decides it.
    for m in matches {
        if left == 0 {
            break;
        }
        let (mut mask, mut value) = (0u32, 0u32);
        for bit in 0..SOURCE_BITS {
            if let Some(b) = m.bit(bit) {
                mask |= 1 << (SOURCE_BITS - 1 - bit);
                value |= u32::from(b) << (SOURCE_BITS - 1 - bit);
            }
        }
        for h in topo.hosts() {
            if !met[h.0] && source_of(h) & mask == value {
                debug_assert!(source_region(h).overlaps(m));
                met[h.0] = true;
                left -= 1;
            }
        }
    }
    topo.hosts().filter(|h| met[h.0]).collect()
}

#[allow(clippy::too_many_arguments)]
fn trace_from(
    view: &ControllerView,
    ingress: HostId,
    switch: SwitchId,
    region: Region,
    history: Vec<RuleRef>,
    path: Vec<SwitchId>,
    hops: usize,
    out: &mut Vec<LogicalFlow>,
) {
    if hops >= MAX_SYMBOLIC_HOPS {
        return; // loop: class carries no deliverable traffic
    }
    let table = view.table(switch);
    // Only rules meeting the region, in precedence order: a disjoint rule
    // fails `constrain` and is never peeled, so skipping it is exact.
    let mut shadow = region;
    for idx in table.overlapping(&shadow.pos) {
        let rule = table.get(idx).expect("index from the table");
        let Some(matched) = shadow.constrain(rule.match_fields()) else {
            continue;
        };
        let mut new_history = history.clone();
        new_history.push(RuleRef { switch, index: idx });
        let mut new_path = path.clone();
        new_path.push(switch);
        match rule.action() {
            Action::Drop => {} // class dies; no column
            Action::Forward(port) => {
                if let Some(adj) = view.topology().adj(Node::Switch(switch)).get(port.0) {
                    match adj.neighbor {
                        Node::Host(egress) => {
                            if egress != ingress {
                                out.push(LogicalFlow {
                                    ingress,
                                    egress,
                                    header: matched.pos.clone(),
                                    rules: new_history,
                                    path: new_path,
                                });
                            }
                        }
                        Node::Switch(next) => {
                            trace_from(
                                view,
                                ingress,
                                next,
                                matched.clone(),
                                new_history,
                                new_path,
                                hops + 1,
                                out,
                            );
                        }
                    }
                }
                // Forward to a missing port: black hole, class dies.
            }
        }
        // Peel this rule's match off for lower-precedence rules.
        shadow.negs.push(rule.match_fields().clone());
        if shadow.is_empty() {
            break;
        }
    }
}

/// Checks the precondition of the emptiness test: within each switch table,
/// any two rules' match regions are disjoint, or one contains the other.
fn tables_disjoint_or_nested(view: &ControllerView) -> bool {
    view.topology()
        .switches()
        .all(|s| view.table(s).is_disjoint_or_nested())
}

#[cfg(test)]
mod tests {
    use super::*;
    use foces_controlplane::{provision, uniform_flows, RuleGranularity};
    use foces_dataplane::{pair_header, LossModel};
    use foces_net::generators::{bcube, dcell, fattree, stanford};
    use foces_net::Topology;

    fn deployment(topo: Topology, g: RuleGranularity) -> foces_controlplane::Deployment {
        let flows = uniform_flows(&topo, topo.host_count() as f64 * 1000.0);
        provision(topo, &flows, g).unwrap()
    }

    #[test]
    fn logical_flow_count_matches_table1() {
        for (topo, expected) in [
            (stanford(), 650usize),
            (fattree(4), 240),
            (bcube(1, 4), 240),
            (dcell(1, 4), 380),
        ] {
            let dep = deployment(topo, RuleGranularity::PerDestination);
            let flows = trace_flows(&dep.view);
            assert_eq!(flows.len(), expected);
        }
    }

    #[test]
    fn logical_flows_cover_every_host_pair_once() {
        let dep = deployment(fattree(4), RuleGranularity::PerDestination);
        let flows = trace_flows(&dep.view);
        let mut pairs: Vec<(HostId, HostId)> =
            flows.iter().map(|f| (f.ingress, f.egress)).collect();
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs.len(), flows.len(), "no duplicate classes");
        assert_eq!(pairs.len(), 16 * 15);
    }

    #[test]
    fn traced_paths_agree_with_expected_paths() {
        let dep = deployment(bcube(1, 4), RuleGranularity::PerDestination);
        let logical = trace_flows(&dep.view);
        for (spec, expected) in dep.flows.iter().zip(&dep.expected_paths) {
            let lf = logical
                .iter()
                .find(|f| f.ingress == spec.src && f.egress == spec.dst)
                .unwrap();
            assert_eq!(&lf.path, expected, "flow {spec}");
        }
    }

    #[test]
    fn traced_rules_agree_with_dataplane_forwarding() {
        // Injecting the class's concrete header must hit exactly the traced
        // rules (the whole point of the equivalence classes).
        let dep = deployment(dcell(1, 4), RuleGranularity::PerDestination);
        let logical = trace_flows(&dep.view);
        let mut dp = dep.dataplane.clone();
        for lf in logical.iter().take(60) {
            dp.reset_counters();
            dp.inject(
                lf.ingress,
                lf.concrete_header(),
                1.0,
                &mut LossModel::none(),
            );
            for r in &lf.rules {
                assert_eq!(
                    dp.counter(r.switch, r.index),
                    1.0,
                    "rule {r} missed by {lf:?}"
                );
            }
            // And no other rule was touched.
            let touched: f64 = dp.collect_counters().iter().sum();
            assert_eq!(touched, lf.rules.len() as f64);
        }
    }

    #[test]
    fn concrete_header_is_in_class() {
        let dep = deployment(fattree(4), RuleGranularity::PerDestination);
        for lf in trace_flows(&dep.view) {
            assert!(lf.header.matches_concrete(lf.concrete_header()));
            assert_eq!(
                lf.concrete_header(),
                pair_header(lf.ingress, lf.egress),
                "class header must encode the (src, dst) pair"
            );
        }
    }

    #[test]
    fn per_pair_granularity_same_classes() {
        let dep = deployment(fattree(4), RuleGranularity::PerFlowPair);
        let flows = trace_flows(&dep.view);
        assert_eq!(flows.len(), 240);
    }

    #[test]
    fn rules_matched_in_path_order() {
        let dep = deployment(stanford(), RuleGranularity::PerDestination);
        for lf in trace_flows(&dep.view).iter().take(50) {
            assert_eq!(lf.rules.len(), lf.path.len());
            for (r, s) in lf.rules.iter().zip(&lf.path) {
                assert_eq!(r.switch, *s);
            }
        }
    }

    #[test]
    fn priority_shadowing_is_respected() {
        // One switch, three hosts. A high-priority per-pair rule
        // (h0 -> h2, deliver to h1!) overlays a low-priority per-dest rule
        // (dst h2, deliver to h2). The class from h0 must take the pair
        // rule and egress at h1; the class from h1 takes the dst rule.
        use foces_controlplane::ControllerView;
        use foces_dataplane::{dst_match, pair_match, FlowTable, Rule};

        let mut topo = Topology::new();
        let s0 = topo.add_switch();
        let h: Vec<HostId> = (0..3).map(|_| topo.add_host()).collect();
        let mut host_port = Vec::new();
        for &hh in &h {
            topo.connect(Node::Host(hh), Node::Switch(s0)).unwrap();
            host_port.push(topo.host_attachment(hh).unwrap().1);
        }
        let mut table = FlowTable::new();
        table.push(Rule::new(dst_match(h[2]), 5, Action::Forward(host_port[2])));
        table.push(Rule::new(
            pair_match(h[0], h[2]),
            10,
            Action::Forward(host_port[1]), // hijack to h1
        ));
        let view = ControllerView::from_parts(topo, vec![table]);
        let traced = trace_flows(&view);
        let from_h0: Vec<&LogicalFlow> = traced.iter().filter(|f| f.ingress == h[0]).collect();
        let from_h1: Vec<&LogicalFlow> = traced.iter().filter(|f| f.ingress == h[1]).collect();
        assert_eq!(from_h0.len(), 1);
        assert_eq!(from_h0[0].egress, h[1], "pair rule must shadow dst rule");
        assert_eq!(from_h0[0].rules[0].index, 1);
        assert_eq!(from_h1.len(), 1);
        assert_eq!(from_h1[0].egress, h[2]);
        assert_eq!(from_h1[0].rules[0].index, 0);
    }

    #[test]
    fn drop_rules_produce_no_class() {
        use foces_controlplane::ControllerView;
        use foces_dataplane::{dst_match, FlowTable, Rule};

        let mut topo = Topology::new();
        let s0 = topo.add_switch();
        let h0 = topo.add_host();
        let h1 = topo.add_host();
        topo.connect(Node::Host(h0), Node::Switch(s0)).unwrap();
        topo.connect(Node::Host(h1), Node::Switch(s0)).unwrap();
        let mut table = FlowTable::new();
        table.push(Rule::new(dst_match(h1), 5, Action::Drop));
        let view = ControllerView::from_parts(topo, vec![table]);
        assert!(trace_flows(&view).is_empty());
    }

    #[test]
    fn hardening_prefix_rule_breaks_the_precondition() {
        let mut dep = deployment(fattree(4), RuleGranularity::PerDestination);
        assert!(tables_disjoint_or_nested(&dep.view));
        // A per-pair hardening rule nests inside the destination rules.
        let spec = dep.flows[0];
        let sw = dep.expected_paths[0][0];
        let pair = foces_dataplane::pair_match(spec.src, spec.dst);
        dep.install_hardening(sw, foces_dataplane::Rule::new(pair, 20, Action::Drop));
        assert!(tables_disjoint_or_nested(&dep.view));
        // A source-prefix one cuts every destination rule in half.
        let prefix = Wildcard::prefix(HEADER_WIDTH, 0, 8).unwrap();
        dep.install_hardening(sw, foces_dataplane::Rule::new(prefix, 20, Action::Drop));
        assert!(!tables_disjoint_or_nested(&dep.view));
    }

    #[test]
    fn forwarding_loop_terminates_without_class() {
        use foces_controlplane::ControllerView;
        use foces_dataplane::{FlowTable, Rule};
        use foces_headerspace::Wildcard;
        use foces_net::Port;

        // s0 <-> s1 bounce loop.
        let mut topo = Topology::new();
        let s0 = topo.add_switch();
        let s1 = topo.add_switch();
        let h0 = topo.add_host();
        topo.connect(Node::Switch(s0), Node::Switch(s1)).unwrap(); // port 0 each
        topo.connect(Node::Host(h0), Node::Switch(s0)).unwrap();
        let mut t0 = FlowTable::new();
        t0.push(Rule::new(
            Wildcard::any(HEADER_WIDTH),
            0,
            Action::Forward(Port(0)),
        ));
        let mut t1 = FlowTable::new();
        t1.push(Rule::new(
            Wildcard::any(HEADER_WIDTH),
            0,
            Action::Forward(Port(0)),
        ));
        let view = ControllerView::from_parts(topo, vec![t0, t1]);
        assert!(trace_flows(&view).is_empty());
    }
}
