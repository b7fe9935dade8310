//! Symbolic per-class traversal: loop freedom and blackhole freedom.
//!
//! Like the ATPG tracer, we inject a symbolic header at every host port
//! (source bits pinned) and push it through the flow tables, splitting on
//! priority shadowing. Unlike the tracer — which only needs the classes
//! that *are* delivered — verification must prove things about the classes
//! that are **not**, so emptiness is decided *exactly* via wildcard
//! subtraction ([`Wildcard::subtract_all`]) instead of the tracer's
//! single-negative containment approximation. Every region we recurse into
//! therefore carries a concrete witness header, which becomes the
//! counterexample when the region ends in a violation.
//!
//! Soundness of the loop check: forwarding rules in this model never
//! rewrite headers, so a concrete header's trajectory is deterministic. If
//! a non-empty region arrives back at a switch already on its path, every
//! header in it repeats the cycle forever — a real forwarding loop, not an
//! artifact of symbolic over-approximation.
//!
//! Blackhole scoping: a region that dies on its *first* table (no rule
//! matches at the ingress switch) is merely unprovisioned traffic and is
//! ignored. A region that matched at least one rule and then dies — table
//! miss downstream, or a forward action out a port with no link — is a
//! blackhole: the network accepted the traffic and lost it.
//!
//! Each host is traced on its own ([`trace_host`]), keeping every finding
//! with its dedup key, and the report replays the cross-host dedup in host
//! order ([`replay`]), so one host's trace can be kept while another's is
//! re-traced.

use crate::report::{Finding, FindingKind, VerifyReport};
use foces_controlplane::ControllerView;
use foces_dataplane::{Action, RuleRef};
use foces_headerspace::Wildcard;
use foces_net::{HostId, Node, SwitchId};
use std::collections::HashSet;

/// A symbolic region: a positive wildcard minus already-peeled
/// higher-precedence matches. Same shape as the ATPG tracer's region, but
/// with exact emptiness.
#[derive(Debug, Clone)]
struct Region {
    pos: Wildcard,
    negs: Vec<Wildcard>,
}

impl Region {
    /// An exact non-empty sub-region (the first disjoint piece of
    /// `pos \ union(negs)`), or `None` if the region denotes no header.
    fn witness(&self) -> Option<Wildcard> {
        self.pos.subtract_all(&self.negs).into_iter().next()
    }

    /// Intersects with a match pattern, returning the constrained region
    /// and a piece of it proving non-emptiness.
    fn constrain(&self, m: &Wildcard) -> Option<(Region, Wildcard)> {
        let pos = self.pos.intersect(m)?;
        let negs: Vec<Wildcard> = self
            .negs
            .iter()
            .filter(|n| pos.overlaps(n))
            .cloned()
            .collect();
        let r = Region { pos, negs };
        let w = r.witness()?;
        Some((r, w))
    }
}

/// What the report deduplicates a traversal finding by.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    /// A cycle, as its rule sequence rotated to start at the smallest
    /// rule: classes from different ingresses share one loop.
    Loop(Vec<RuleRef>),
    /// A blackhole's location: `Some(rule)` for a forward-to-nowhere
    /// rule, `None` for a table miss at that switch.
    Hole(SwitchId, Option<RuleRef>),
}

/// One ingress host's traversal: the classes it traced to a terminal
/// outcome, and its loop and blackhole findings in discovery order, each
/// with its dedup key and only the first of each key.
#[derive(Debug, Clone, Default)]
pub(crate) struct HostTrace {
    classes: usize,
    events: Vec<(Key, Finding)>,
}

/// Appends the findings of `traces` (in host order) to `report`, keeping
/// the first finding of each key across hosts, and adds their classes:
/// exactly what one traversal of every host with one shared dedup gives.
pub(crate) fn replay(traces: &[HostTrace], report: &mut VerifyReport) {
    let mut seen: HashSet<&Key> = HashSet::new();
    for t in traces {
        report.classes_traced += t.classes;
        for (key, finding) in &t.events {
            if seen.insert(key) {
                report.findings.push(finding.clone());
            }
        }
    }
}

/// Traces every packet class `ingress` can inject. A host attached to no
/// switch traces nothing.
pub(crate) fn trace_host(view: &ControllerView, ingress: HostId) -> HostTrace {
    let mut t = Traversal {
        view,
        trace: HostTrace::default(),
        seen: HashSet::new(),
        history: Vec::new(),
        path: Vec::new(),
    };
    if let Some((first_switch, _)) = view.topology().host_attachment(ingress) {
        // Real traffic entering at this port carries the host's own source
        // address; pin it, as the ATPG tracer does.
        let region = Region {
            pos: foces_atpg::source_region(ingress),
            negs: Vec::new(),
        };
        t.explore(first_switch, region);
    }
    t.trace
}

struct Traversal<'a> {
    view: &'a ControllerView,
    trace: HostTrace,
    /// Keys this host already recorded.
    seen: HashSet<Key>,
    /// The rules matched so far, one per switch on `path`.
    history: Vec<RuleRef>,
    /// The switches visited so far, the current one excluded.
    path: Vec<SwitchId>,
}

impl Traversal<'_> {
    /// Records `finding` under `key` unless this host already did, the
    /// finding built only when it is recorded.
    fn record(&mut self, key: Key, finding: impl FnOnce(&Self) -> Finding) {
        if self.seen.insert(key.clone()) {
            let f = finding(self);
            self.trace.events.push((key, f));
        }
    }

    fn explore(&mut self, switch: SwitchId, region: Region) {
        // Revisit of a path switch with a (by construction non-empty)
        // region: every header in it loops forever.
        if let Some(k) = self.path.iter().position(|&s| s == switch) {
            self.trace.classes += 1;
            // Canonicalize the cycle by rotating its rule sequence to start
            // at the smallest RuleRef: classes entering the same loop from
            // different ingresses see rotations of one cycle.
            let mut cycle: Vec<RuleRef> = self.history[k..].to_vec();
            if let Some(start) = cycle
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| **r)
                .map(|(i, _)| i)
            {
                cycle.rotate_left(start);
            }
            self.record(Key::Loop(cycle), |t| {
                let piece = region.witness().expect("recursed regions are non-empty");
                let cycle_path: Vec<String> =
                    t.path[k..].iter().map(|s| format!("s{}", s.0)).collect();
                Finding {
                    kind: FindingKind::ForwardingLoop,
                    switch,
                    rules: t.history.clone(),
                    header: Some(piece.representative()),
                    region: Some(piece),
                    detail: format!(
                        "header class re-enters s{}: cycle {} -> s{}",
                        switch.0,
                        cycle_path.join(" -> "),
                        switch.0
                    ),
                }
            });
            return;
        }
        // Defensive hop budget; the revisit check above already bounds
        // recursion by the switch count.
        if self.path.len() > self.view.topology().switch_count() {
            return;
        }

        let view = self.view;
        let table = view.table(switch);
        // The rules meeting the region, in effective precedence (priority
        // desc, index asc): a disjoint rule fails `constrain` and is never
        // peeled, so skipping it is exact.
        let mut shadow = region;
        self.path.push(switch);
        for idx in table.overlapping(&shadow.pos) {
            let rule = table.get(idx).expect("index from the table");
            let Some((matched, piece)) = shadow.constrain(rule.match_fields()) else {
                continue;
            };
            let rref = RuleRef { switch, index: idx };
            self.history.push(rref);
            match rule.action() {
                // An explicit drop is a stated policy, not a blackhole.
                Action::Drop => self.trace.classes += 1,
                Action::Forward(port) => {
                    match view.topology().adj(Node::Switch(switch)).get(port.0) {
                        None => {
                            // Forward out a port with no link: traffic the
                            // network accepted falls off the edge.
                            self.trace.classes += 1;
                            self.record(Key::Hole(switch, Some(rref)), |t| Finding {
                                kind: FindingKind::Blackhole,
                                switch,
                                rules: t.history.clone(),
                                header: Some(piece.representative()),
                                region: Some(piece),
                                detail: format!(
                                    "rule {rref} forwards out port {} which has no link",
                                    port.0
                                ),
                            });
                        }
                        Some(adj) => match adj.neighbor {
                            Node::Host(_) => self.trace.classes += 1, // delivered
                            Node::Switch(next) => self.explore(next, matched),
                        },
                    }
                }
            }
            self.history.pop();
            shadow.negs.push(rule.match_fields().clone());
        }
        self.path.pop();
        // Residual region: headers no rule matches. At the ingress switch
        // that is unprovisioned traffic; downstream it is a blackhole —
        // upstream rules forwarded traffic here and this table drops it by
        // omission.
        if let Some(piece) = shadow.witness() {
            self.trace.classes += 1;
            if !self.history.is_empty() {
                self.record(Key::Hole(switch, None), |t| Finding {
                    kind: FindingKind::Blackhole,
                    switch,
                    rules: t.history.clone(),
                    header: Some(piece.representative()),
                    region: Some(piece),
                    detail: format!(
                        "traffic forwarded to s{} misses its table (no matching rule)",
                        switch.0
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foces_dataplane::{dst_match, pair_header, pair_match, FlowTable, Rule};
    use foces_net::{HostId, Port, Topology};

    /// h0 - s0 - s1 - h1, tables installed by the caller.
    fn line2(t0: FlowTable, t1: FlowTable) -> ControllerView {
        let mut topo = Topology::new();
        let s0 = topo.add_switch();
        let s1 = topo.add_switch();
        let h0 = topo.add_host();
        let h1 = topo.add_host();
        topo.connect(Node::Switch(s0), Node::Switch(s1)).unwrap(); // port 0 each
        topo.connect(Node::Host(h0), Node::Switch(s0)).unwrap(); // s0 port 1
        topo.connect(Node::Host(h1), Node::Switch(s1)).unwrap(); // s1 port 1
        ControllerView::from_parts(topo, vec![t0, t1])
    }

    fn run(view: &ControllerView) -> VerifyReport {
        let traces: Vec<HostTrace> = view
            .topology()
            .hosts()
            .map(|h| trace_host(view, h))
            .collect();
        let mut report = VerifyReport::default();
        replay(&traces, &mut report);
        report
    }

    #[test]
    fn clean_line_has_no_findings() {
        let mut t0 = FlowTable::new();
        t0.push(Rule::new(dst_match(HostId(1)), 5, Action::Forward(Port(0))));
        let mut t1 = FlowTable::new();
        t1.push(Rule::new(dst_match(HostId(1)), 5, Action::Forward(Port(1))));
        t1.push(Rule::new(dst_match(HostId(0)), 5, Action::Forward(Port(0))));
        let mut t0b = t0.clone();
        t0b.push(Rule::new(dst_match(HostId(0)), 5, Action::Forward(Port(1))));
        let report = run(&line2(t0b, t1));
        assert!(report.is_clean(), "{:?}", report.findings);
        assert!(report.classes_traced > 0);
    }

    #[test]
    fn bounce_loop_detected_with_valid_counterexample() {
        // Both switches forward dst=h1 at each other.
        let mut t0 = FlowTable::new();
        t0.push(Rule::new(dst_match(HostId(1)), 5, Action::Forward(Port(0))));
        let mut t1 = FlowTable::new();
        t1.push(Rule::new(dst_match(HostId(1)), 5, Action::Forward(Port(0))));
        let view = line2(t0, t1);
        let report = run(&view);
        assert_eq!(report.loops(), 1, "{:?}", report.findings);
        let f = &report.findings[0];
        // The counterexample header must genuinely match every rule on the
        // reported trajectory.
        let h = f.header.unwrap();
        for r in &f.rules {
            assert!(view.rule(*r).unwrap().matches(h), "{r} misses {h:#x}");
        }
        // h0's own traffic to h1 is in the looping class.
        assert!(f
            .region
            .as_ref()
            .unwrap()
            .is_subset_of(&dst_match(HostId(1))));
    }

    #[test]
    fn downstream_table_miss_is_a_blackhole_but_ingress_miss_is_not() {
        // s0 forwards dst=h1 to s1; s1 has no rule at all.
        let mut t0 = FlowTable::new();
        t0.push(Rule::new(dst_match(HostId(1)), 5, Action::Forward(Port(0))));
        let report = run(&line2(t0, FlowTable::new()));
        assert_eq!(report.blackholes(), 1, "{:?}", report.findings);
        assert_eq!(report.loops(), 0);
        let f = &report.findings[0];
        assert_eq!(f.switch, SwitchId(1));
        assert_eq!(f.rules.len(), 1, "implicates the forwarding rule");
        // h0's un-matched traffic at its own ingress switch (e.g. dst=h0)
        // must NOT have been reported: exactly one finding total.
        assert_eq!(report.findings.len(), 1);
    }

    #[test]
    fn forward_to_missing_port_is_a_blackhole() {
        let mut t0 = FlowTable::new();
        t0.push(Rule::new(dst_match(HostId(1)), 5, Action::Forward(Port(7))));
        let report = run(&line2(t0, FlowTable::new()));
        assert_eq!(report.blackholes(), 1, "{:?}", report.findings);
        assert!(report.findings[0].detail.contains("no link"));
    }

    #[test]
    fn explicit_drop_is_clean() {
        let mut t0 = FlowTable::new();
        t0.push(Rule::new(dst_match(HostId(1)), 5, Action::Drop));
        let report = run(&line2(t0, FlowTable::new()));
        assert!(report.is_clean(), "{:?}", report.findings);
    }

    #[test]
    fn priority_peeling_is_exact() {
        // s0: a high-priority pair drop (h0 -> h1) peels exactly the class
        // the per-dest rule below would otherwise forward into s1's empty
        // table. With the source pinned to h0 at injection, the residual
        // reaching s1 is empty, so no blackhole may be reported.
        let mut t0 = FlowTable::new();
        t0.push(Rule::new(dst_match(HostId(1)), 5, Action::Forward(Port(0))));
        t0.push(Rule::new(
            pair_match(HostId(0), HostId(1)),
            10,
            Action::Drop,
        ));
        let report = run(&line2(t0, FlowTable::new()));
        assert!(report.is_clean(), "{:?}", report.findings);
        // Sanity: the concrete pair header is indeed captured by the drop.
        assert!(
            pair_match(HostId(0), HostId(1)).matches_concrete(pair_header(HostId(0), HostId(1)))
        );
    }

    #[test]
    fn exact_emptiness_avoids_false_blackholes_under_union_cover() {
        // Two half-space drops (dst = h1, split on the lowest source bit)
        // jointly cover everything the forwarding rule below them would
        // send into s1's empty table. No SINGLE rule covers it — the
        // ATPG tracer's one-negative containment test would call the
        // residual non-empty — but exact subtraction proves it empty.
        let mut lo = dst_match(HostId(1));
        lo.set_bit(15, Some(false));
        let mut hi = dst_match(HostId(1));
        hi.set_bit(15, Some(true));
        let mut t0 = FlowTable::new();
        t0.push(Rule::new(lo, 10, Action::Drop));
        t0.push(Rule::new(hi, 10, Action::Drop));
        t0.push(Rule::new(dst_match(HostId(1)), 5, Action::Forward(Port(0))));
        let report = run(&line2(t0, FlowTable::new()));
        assert!(report.is_clean(), "{:?}", report.findings);
    }

    #[test]
    fn one_loop_reported_once_across_ingresses() {
        // Same bounce loop, reachable from both hosts: the cycle dedup must
        // collapse it per cycle rule-set, yielding <= 2 loop findings (one
        // per distinct entry history) but only one per identical cycle.
        let mut t0 = FlowTable::new();
        t0.push(Rule::new(dst_match(HostId(1)), 5, Action::Forward(Port(0))));
        let mut t1 = FlowTable::new();
        t1.push(Rule::new(dst_match(HostId(1)), 5, Action::Forward(Port(0))));
        let view = line2(t0, t1);
        let report = run(&view);
        assert_eq!(report.loops(), 1);
    }
}
