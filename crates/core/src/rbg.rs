//! The Rule Bipartite Graph (paper Definition 3) and its loop test
//! (Theorem 2), plus the per-switch rule/flow extraction that powers FCM
//! slicing (§IV-B).
//!
//! For a switch `S` and a set of flow rule-histories, the RBG has:
//!
//! * `V_out` — the rules of `S` matched by some flow;
//! * `V_in` — every rule that immediately precedes a `V_out` rule in some
//!   flow's history, plus a virtual source `r_s` standing in as "the first
//!   rule of all flows" for flows that *start* at `S`;
//! * one edge per (flow, consecutive rule pair) — a **multigraph**: two
//!   flows traversing the same rule pair contribute two parallel edges.
//!
//! # Loop semantics and Theorem 2
//!
//! Theorem 2 states a forwarding anomaly `FA(hᵢ, hᵢ')` is undetectable iff
//! some switch's RBG w.r.t. `H̃ = H ∪ {hᵢ'}` contains a loop. The paper's
//! proof (Appendix B) additionally assumes the rule set has no *pivot
//! rules* and that loop flows share their prior histories; without those
//! side conditions the loop test is a **necessary** condition for
//! undetectability but not a sufficient one. [`Rbg::has_loop`] therefore
//! over-approximates: *no loop anywhere ⇒ the anomaly is certainly
//! detectable*, while a loop means the anomaly **may** be undetectable and
//! the exact rank test ([`crate::undetectable_by_rank`], Theorem 1) gives
//! the final word. The property-test suite checks exactly this
//! containment on thousands of generated deviations.

use foces_dataplane::RuleRef;
use foces_net::SwitchId;
use std::collections::HashMap;
use std::fmt;

/// A node of the RBG: a concrete rule or the virtual source `r_s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RbgNode {
    /// The virtual rule acting as the first rule of all flows.
    Virtual,
    /// A concrete rule.
    Rule(RuleRef),
}

impl fmt::Display for RbgNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RbgNode::Virtual => write!(f, "r_s"),
            RbgNode::Rule(r) => write!(f, "{r}"),
        }
    }
}

/// An RBG edge: a flow traversing `from` immediately before `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RbgEdge {
    /// Predecessor rule (or the virtual source).
    pub from: RbgNode,
    /// The `V_out` rule at the graph's switch.
    pub to: RuleRef,
    /// Index of the flow (into the history list the graph was built from).
    pub flow: usize,
}

/// The Rule Bipartite Graph of one switch with respect to a set of flow
/// histories (see module docs).
///
/// # Example
///
/// ```
/// use foces::rbg::Rbg;
/// use foces::testkit::paper_fig2_fcm;
///
/// let fcm = paper_fig2_fcm();
/// let owned = fcm.histories();
/// let histories: Vec<&[_]> = owned.iter().map(Vec::as_slice).collect();
/// // Row 5 (rule r6) lives on its own switch in the testkit encoding.
/// let rbg = Rbg::build(foces_net::SwitchId(5), &histories);
/// assert_eq!(rbg.v_out().len(), 1);
/// assert_eq!(rbg.v_in().len(), 2); // r3 and r5 feed r6
/// ```
#[derive(Debug, Clone)]
pub struct Rbg {
    switch: SwitchId,
    edges: Vec<RbgEdge>,
}

impl Rbg {
    /// Builds the RBG of `switch` from flow rule-histories.
    pub fn build(switch: SwitchId, histories: &[&[RuleRef]]) -> Self {
        let mut edges = Vec::new();
        for (flow, history) in histories.iter().enumerate() {
            for (pos, &rule) in history.iter().enumerate() {
                if rule.switch != switch {
                    continue;
                }
                let from = if pos == 0 {
                    RbgNode::Virtual
                } else {
                    RbgNode::Rule(history[pos - 1])
                };
                edges.push(RbgEdge {
                    from,
                    to: rule,
                    flow,
                });
            }
        }
        Rbg { switch, edges }
    }

    /// The switch this graph describes.
    pub fn switch(&self) -> SwitchId {
        self.switch
    }

    /// All edges (one per flow per traversal — parallel edges preserved).
    pub fn edges(&self) -> &[RbgEdge] {
        &self.edges
    }

    /// The `V_out` rules (rules of this switch matched by some flow),
    /// deduplicated, in first-appearance order.
    pub fn v_out(&self) -> Vec<RuleRef> {
        let mut seen = Vec::new();
        for e in &self.edges {
            if !seen.contains(&e.to) {
                seen.push(e.to);
            }
        }
        seen
    }

    /// The `V_in` nodes (predecessor rules plus possibly the virtual
    /// source), deduplicated, in first-appearance order.
    pub fn v_in(&self) -> Vec<RbgNode> {
        let mut seen = Vec::new();
        for e in &self.edges {
            if !seen.contains(&e.from) {
                seen.push(e.from);
            }
        }
        seen
    }

    /// The rule set `R(S) = (V_in ∪ V_out) \ {r_s}` used by FCM slicing
    /// (§IV-B), deduplicated, in first-appearance order.
    pub fn slicing_rules(&self) -> Vec<RuleRef> {
        let mut seen = Vec::new();
        for e in &self.edges {
            if let RbgNode::Rule(r) = e.from {
                if !seen.contains(&r) {
                    seen.push(r);
                }
            }
            if !seen.contains(&e.to) {
                seen.push(e.to);
            }
        }
        seen
    }

    /// Whether the undirected multigraph contains a loop: some connected
    /// component has at least as many edges as vertices (parallel edges
    /// from distinct flows count separately). See the module docs for how
    /// this relates to Theorem 2.
    pub fn has_loop(&self) -> bool {
        // Union-find over nodes; a loop exists iff some edge joins two
        // already-connected nodes.
        let mut ids: HashMap<RbgNode, usize> = HashMap::new();
        let mut id_of = |n: RbgNode, next: &mut Vec<usize>| -> usize {
            *ids.entry(n).or_insert_with(|| {
                next.push(next.len());
                next.len() - 1
            })
        };
        let mut parent: Vec<usize> = Vec::new();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for e in &self.edges {
            let a = id_of(e.from, &mut parent);
            let b = id_of(RbgNode::Rule(e.to), &mut parent);
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra == rb {
                return true;
            }
            parent[ra] = rb;
        }
        false
    }
}

/// Classification of a rule's role with respect to a pair of flows
/// (paper Appendix B): a **separation rule** sends two flows to different
/// next rules; an **aggregation rule** receives two flows from different
/// previous rules; a **pivot rule** is both at once for the same flow pair.
///
/// Pivot rules are the side condition of Theorem 2's proof: Lemma 2 (and
/// hence the sufficient direction of the loop criterion) assumes the rule
/// set has none. [`pivot_rules`] lets users check whether the criterion is
/// exact for their configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PivotRule {
    /// The pivot rule itself.
    pub rule: RuleRef,
    /// One witnessing flow pair (indices into the history list).
    pub flows: (usize, usize),
}

/// Finds all pivot rules of a configuration's flow histories.
///
/// For every rule `r` and every pair of flows `(a, b)` that both match
/// `r`, `r` is a pivot rule iff it *separates* the pair (their successor
/// rules after `r` differ — including one ending at `r`) **and**
/// *aggregates* it (their predecessor rules before `r` differ — including
/// one starting at `r`). One witness pair per rule is reported.
///
/// # Example
///
/// ```
/// use foces::rbg::pivot_rules;
/// use foces::testkit::paper_fig2_fcm;
///
/// let fcm = paper_fig2_fcm();
/// let owned = fcm.histories();
/// let histories: Vec<&[_]> = owned.iter().map(Vec::as_slice).collect();
/// // Fig. 2's r6 aggregates flows arriving from r3 and r5 but never
/// // separates them (it is everyone's last rule): no pivot rules.
/// assert!(pivot_rules(&histories).is_empty());
/// ```
pub fn pivot_rules(histories: &[&[RuleRef]]) -> Vec<PivotRule> {
    /// One traversal of a rule: `(flow, predecessor, successor)`.
    type Occurrence = (usize, Option<RuleRef>, Option<RuleRef>);
    let mut occurrences: HashMap<RuleRef, Vec<Occurrence>> = HashMap::new();
    for (flow, history) in histories.iter().enumerate() {
        for (pos, &rule) in history.iter().enumerate() {
            let pred = if pos == 0 {
                None
            } else {
                Some(history[pos - 1])
            };
            let succ = history.get(pos + 1).copied();
            occurrences
                .entry(rule)
                .or_default()
                .push((flow, pred, succ));
        }
    }
    let mut out = Vec::new();
    for (&rule, occ) in &occurrences {
        'pairs: for (i, &(fa, pa, sa)) in occ.iter().enumerate() {
            for &(fb, pb, sb) in occ.iter().skip(i + 1) {
                if fa == fb {
                    continue; // a flow revisiting the rule is not a pair
                }
                let separates = sa != sb;
                let aggregates = pa != pb;
                if separates && aggregates {
                    out.push(PivotRule {
                        rule,
                        flows: (fa, fb),
                    });
                    break 'pairs; // one witness per rule suffices
                }
            }
        }
    }
    out.sort_by_key(|p| p.rule);
    out
}

impl fmt::Display for Rbg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "RBG(s{}): {} in-nodes, {} out-rules, {} edges",
            self.switch.0,
            self.v_in().len(),
            self.v_out().len(),
            self.edges.len()
        )?;
        for e in &self.edges {
            writeln!(f, "  {} -[f{}]-> {}", e.from, e.flow, e.to)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{paper_fig2_fcm, paper_fig3_fcm};

    fn histories(fcm: &crate::Fcm) -> Vec<Vec<RuleRef>> {
        fcm.histories()
    }

    #[test]
    fn fig2_structure() {
        let fcm = paper_fig2_fcm();
        let h = histories(&fcm);
        let refs: Vec<&[RuleRef]> = h.iter().map(|v| v.as_slice()).collect();
        // Switch 5 = rule r6: fed by r3 (flows a, b) and r5 (flow c).
        let rbg = Rbg::build(SwitchId(5), &refs);
        assert_eq!(rbg.v_out().len(), 1);
        assert_eq!(rbg.v_in().len(), 2);
        assert_eq!(rbg.edges().len(), 3);
        // Parallel edges (a and b both take r3 -> r6) form a multigraph loop.
        assert!(rbg.has_loop());
    }

    #[test]
    fn fig2_first_hop_uses_virtual_source() {
        let fcm = paper_fig2_fcm();
        let h = histories(&fcm);
        let refs: Vec<&[RuleRef]> = h.iter().map(|v| v.as_slice()).collect();
        // Switch 0 holds flow a's first rule.
        let rbg = Rbg::build(SwitchId(0), &refs);
        assert_eq!(rbg.v_in(), vec![RbgNode::Virtual]);
        assert!(!rbg.has_loop());
    }

    #[test]
    fn empty_switch_has_empty_graph() {
        let fcm = paper_fig2_fcm();
        let h = histories(&fcm);
        let refs: Vec<&[RuleRef]> = h.iter().map(|v| v.as_slice()).collect();
        let rbg = Rbg::build(SwitchId(42), &refs);
        assert!(rbg.edges().is_empty());
        assert!(!rbg.has_loop());
        assert!(rbg.v_out().is_empty());
    }

    #[test]
    fn fig3_deviated_flow_creates_loop() {
        // H̃ = H ∪ {a'} where a' = r1,r2,r4,r5,r6 (the undetectable
        // deviation of Eq. 8). The multigraph at r6's switch gains a second
        // r5->r6 edge, closing a loop.
        let fcm = paper_fig3_fcm();
        let mut h = histories(&fcm);
        let deviated = vec![
            fcm.rules()[0],
            fcm.rules()[1],
            fcm.rules()[3],
            fcm.rules()[4],
            fcm.rules()[5],
        ];
        h.push(deviated);
        let refs: Vec<&[RuleRef]> = h.iter().map(|v| v.as_slice()).collect();
        let any_loop = (0..6).any(|s| Rbg::build(SwitchId(s), &refs).has_loop());
        assert!(any_loop, "undetectable anomaly must show a loop (Thm 2)");
    }

    #[test]
    fn slicing_rules_include_predecessors() {
        let fcm = paper_fig2_fcm();
        let h = histories(&fcm);
        let refs: Vec<&[RuleRef]> = h.iter().map(|v| v.as_slice()).collect();
        let rbg = Rbg::build(SwitchId(5), &refs);
        let rules = rbg.slicing_rules();
        // r6 plus its predecessors r3, r5 (and never the virtual source).
        assert_eq!(rules.len(), 3);
        assert!(rules.contains(&fcm.rules()[5]));
        assert!(rules.contains(&fcm.rules()[2]));
        assert!(rules.contains(&fcm.rules()[4]));
    }

    #[test]
    fn single_edge_never_loops() {
        let r0 = RuleRef {
            switch: SwitchId(0),
            index: 0,
        };
        let history = [r0];
        let refs: Vec<&[RuleRef]> = vec![&history];
        let rbg = Rbg::build(SwitchId(0), &refs);
        assert_eq!(rbg.edges().len(), 1);
        assert!(!rbg.has_loop());
    }

    #[test]
    fn flow_visiting_switch_twice_contributes_two_edges() {
        // A detour history passing the same switch twice.
        let s = SwitchId(0);
        let r_a = RuleRef {
            switch: s,
            index: 0,
        };
        let r_mid = RuleRef {
            switch: SwitchId(1),
            index: 0,
        };
        let history = [r_a, r_mid, r_a];
        let refs: Vec<&[RuleRef]> = vec![&history];
        let rbg = Rbg::build(s, &refs);
        assert_eq!(rbg.edges().len(), 2);
        // r_s -> r_a and r_mid -> r_a: a tree, no loop yet.
        assert!(!rbg.has_loop());
    }

    #[test]
    fn pivot_rule_detected_on_crossing_flows() {
        // Two flows that merge at r_m and split again afterwards:
        //   flow a: r_a -> r_m -> r_x
        //   flow b: r_b -> r_m -> r_y
        // r_m aggregates (different predecessors) AND separates (different
        // successors) the pair: a pivot rule.
        let r = |s: usize| RuleRef {
            switch: SwitchId(s),
            index: 0,
        };
        let a = [r(0), r(2), r(3)];
        let b = [r(1), r(2), r(4)];
        let histories: Vec<&[RuleRef]> = vec![&a, &b];
        let pivots = pivot_rules(&histories);
        assert_eq!(pivots.len(), 1);
        assert_eq!(pivots[0].rule, r(2));
        assert_eq!(pivots[0].flows, (0, 1));
    }

    #[test]
    fn merge_without_split_is_not_pivot() {
        // Flows merge at r_m and stay together: aggregation only.
        let r = |s: usize| RuleRef {
            switch: SwitchId(s),
            index: 0,
        };
        let a = [r(0), r(2), r(3)];
        let b = [r(1), r(2), r(3)];
        let histories: Vec<&[RuleRef]> = vec![&a, &b];
        assert!(pivot_rules(&histories).is_empty());
    }

    #[test]
    fn split_without_merge_is_not_pivot() {
        // Flows share their first rule then diverge: separation only
        // (identical None predecessors).
        let r = |s: usize| RuleRef {
            switch: SwitchId(s),
            index: 0,
        };
        let a = [r(0), r(1)];
        let b = [r(0), r(2)];
        let histories: Vec<&[RuleRef]> = vec![&a, &b];
        assert!(pivot_rules(&histories).is_empty());
    }

    #[test]
    fn paper_examples_have_no_pivot_rules() {
        for fcm in [paper_fig2_fcm(), paper_fig3_fcm()] {
            let h = histories(&fcm);
            let refs: Vec<&[RuleRef]> = h.iter().map(|v| v.as_slice()).collect();
            assert!(pivot_rules(&refs).is_empty());
        }
    }

    #[test]
    fn display_lists_edges() {
        let fcm = paper_fig2_fcm();
        let h = histories(&fcm);
        let refs: Vec<&[RuleRef]> = h.iter().map(|v| v.as_slice()).collect();
        let s = format!("{}", Rbg::build(SwitchId(5), &refs));
        assert!(s.contains("RBG(s5)"));
        assert!(s.contains("r_s") || s.contains("s2#r0"));
    }
}
