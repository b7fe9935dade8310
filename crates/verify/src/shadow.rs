//! Intra-table shadowing: rules whose match region is fully covered by
//! higher-precedence rules and therefore can never match a packet.
//!
//! Coverage is decided exactly by wildcard subtraction
//! ([`foces_headerspace::covers`]): a rule is dead iff subtracting every
//! higher-precedence overlapping match from its own match leaves nothing.
//! Precedence is [`foces_dataplane::FlowTable::precedence`]'s: priority
//! descending, insertion index ascending on ties. The overlapping matches
//! come from the table's index ([`foces_dataplane::FlowTable::overlapping`]),
//! so a rule's check visits only the rules it meets.
//!
//! Callers can allowlist rules that are shadowed *on purpose* — the control
//! plane's rolling updates deliberately leave drained lower-priority rules
//! behind and journals them — via the `expected` parameter. The dead rules
//! of a table are found without the allowlist ([`table_shadows`]) and the
//! allowlist is applied when they are reported ([`report_shadows`]), so a
//! table's findings stay valid while the allowlist grows.

use crate::report::{Finding, FindingKind, VerifyReport};
use foces_controlplane::ControllerView;
use foces_dataplane::RuleRef;
use foces_headerspace::{covers, Wildcard};
use foces_net::SwitchId;
use std::borrow::Cow;

/// A dead rule and the higher-precedence rules that cover it, in
/// precedence order.
#[derive(Debug, Clone)]
pub(crate) struct Shadowed {
    rule: RuleRef,
    shadowers: Vec<RuleRef>,
}

/// The dead rules of `switch`'s table, in precedence order.
pub(crate) fn table_shadows(view: &ControllerView, switch: SwitchId) -> Vec<Shadowed> {
    let table = view.table(switch);
    let mut dead = Vec::new();
    for idx in table.precedence() {
        let rule = table.get(idx).expect("index from the table");
        // The rules meeting this one, in precedence order; the rule
        // itself meets its own match, so those before it are exactly
        // the higher-precedence overlapping ones.
        let shadowers: Vec<usize> = table
            .overlapping(rule.match_fields())
            .into_iter()
            .take_while(|&i| i != idx)
            .collect();
        if shadowers.is_empty() {
            continue;
        }
        let cover: Vec<Wildcard> = shadowers
            .iter()
            .map(|&i| {
                table
                    .get(i)
                    .expect("index from the table")
                    .match_fields()
                    .clone()
            })
            .collect();
        if covers(&cover, rule.match_fields()) {
            dead.push(Shadowed {
                rule: RuleRef { switch, index: idx },
                shadowers: shadowers
                    .into_iter()
                    .map(|index| RuleRef { switch, index })
                    .collect(),
            });
        }
    }
    dead
}

/// Appends one finding per dead rule of `tables` (indexed by switch, each
/// in precedence order) that `expected` does not list, and counts every
/// rule of the view as checked. `expected` need not be sorted.
pub(crate) fn report_shadows(
    view: &ControllerView,
    tables: &[Vec<Shadowed>],
    expected: &[RuleRef],
    report: &mut VerifyReport,
) {
    report.rules_checked += view.rule_count();
    let allow: Cow<'_, [RuleRef]> = if expected.windows(2).all(|w| w[0] < w[1]) {
        Cow::Borrowed(expected)
    } else {
        let mut sorted = expected.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        Cow::Owned(sorted)
    };
    for s in tables.iter().flatten() {
        if allow.binary_search(&s.rule).is_ok() {
            continue;
        }
        let rule = view.rule(s.rule).expect("a dead rule of the view");
        let mut rules = vec![s.rule];
        rules.extend_from_slice(&s.shadowers);
        report.findings.push(Finding {
            kind: FindingKind::ShadowedRule,
            switch: s.rule.switch,
            rules,
            header: Some(rule.match_fields().representative()),
            region: Some(rule.match_fields().clone()),
            detail: format!(
                "rule {} [p{}] {} is dead: fully covered by {} \
                 higher-precedence rule(s)",
                s.rule,
                rule.priority(),
                rule.match_fields(),
                s.shadowers.len()
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foces_dataplane::{dst_match, pair_match, Action, FlowTable, Rule, HEADER_WIDTH};
    use foces_net::{HostId, Node, Port, Topology};

    fn one_switch(table: FlowTable) -> ControllerView {
        let mut topo = Topology::new();
        let s0 = topo.add_switch();
        let h0 = topo.add_host();
        topo.connect(Node::Host(h0), Node::Switch(s0)).unwrap();
        ControllerView::from_parts(topo, vec![table])
    }

    fn run(view: &ControllerView, expected: &[RuleRef]) -> VerifyReport {
        let tables: Vec<Vec<Shadowed>> = view
            .topology()
            .switches()
            .map(|s| table_shadows(view, s))
            .collect();
        let mut report = VerifyReport::default();
        report_shadows(view, &tables, expected, &mut report);
        report
    }

    #[test]
    fn higher_priority_broad_rule_shadows_narrow_one() {
        let mut t = FlowTable::new();
        t.push(Rule::new(pair_match(HostId(0), HostId(1)), 5, Action::Drop));
        t.push(Rule::new(dst_match(HostId(1)), 10, Action::Drop));
        let view = one_switch(t);
        let report = run(&view, &[]);
        assert_eq!(report.shadowed(), 1, "{:?}", report.findings);
        let f = &report.findings[0];
        assert_eq!(f.rules[0].index, 0, "the pair rule is the dead one");
        // The counterexample header is a packet the dead rule claims.
        assert!(view.rule(f.rules[0]).unwrap().matches(f.header.unwrap()));
        assert!(!f.kind.is_critical());
    }

    #[test]
    fn partial_overlap_is_not_shadowing() {
        let mut t = FlowTable::new();
        t.push(Rule::new(
            pair_match(HostId(0), HostId(1)),
            10,
            Action::Drop,
        ));
        t.push(Rule::new(dst_match(HostId(1)), 5, Action::Drop));
        let report = run(&one_switch(t), &[]);
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.rules_checked, 2);
    }

    #[test]
    fn equal_priority_shadowing_respects_insertion_order() {
        // Identical matches at equal priority: lookup always picks the
        // first-installed, so the second is dead — and only the second.
        let mut t = FlowTable::new();
        t.push(Rule::new(Wildcard::any(HEADER_WIDTH), 5, Action::Drop));
        t.push(Rule::new(Wildcard::any(HEADER_WIDTH), 5, Action::Drop));
        let report = run(&one_switch(t), &[]);
        assert_eq!(report.shadowed(), 1);
        assert_eq!(report.findings[0].rules[0].index, 1);
    }

    #[test]
    fn multi_rule_union_cover_is_detected() {
        // Two pair rules jointly cover... no: pair matches are points in
        // the (src, dst) space, so use two half-space rules instead: src
        // bit 0 = 0 and src bit 0 = 1 jointly cover everything.
        let mut lo = Wildcard::any(HEADER_WIDTH);
        lo.set_bit(0, Some(false));
        let mut hi = Wildcard::any(HEADER_WIDTH);
        hi.set_bit(0, Some(true));
        let mut t = FlowTable::new();
        t.push(Rule::new(lo, 10, Action::Drop));
        t.push(Rule::new(hi, 10, Action::Drop));
        t.push(Rule::new(
            Wildcard::any(HEADER_WIDTH),
            5,
            Action::Forward(Port(0)),
        ));
        let report = run(&one_switch(t), &[]);
        assert_eq!(report.shadowed(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rules[0].index, 2);
        assert_eq!(report.findings[0].rules.len(), 3, "both shadowers listed");
    }

    #[test]
    fn expected_shadowed_rules_are_skipped() {
        let mut t = FlowTable::new();
        t.push(Rule::new(pair_match(HostId(0), HostId(1)), 5, Action::Drop));
        t.push(Rule::new(dst_match(HostId(1)), 10, Action::Drop));
        let view = one_switch(t);
        let drained = RuleRef {
            switch: foces_net::SwitchId(0),
            index: 0,
        };
        let report = run(&view, &[drained]);
        assert!(report.is_clean(), "{:?}", report.findings);
    }

    #[test]
    fn an_unsorted_allowlist_with_duplicates_skips_what_the_sorted_one_does() {
        // Three dead pair rules under one broad drop; allowlist two of them.
        let mut t = FlowTable::new();
        for dst in 1..4 {
            t.push(Rule::new(
                pair_match(HostId(0), HostId(dst)),
                5,
                Action::Drop,
            ));
        }
        t.push(Rule::new(Wildcard::any(HEADER_WIDTH), 10, Action::Drop));
        let view = one_switch(t);
        let r = |index| RuleRef {
            switch: foces_net::SwitchId(0),
            index,
        };
        assert_eq!(run(&view, &[]).shadowed(), 3);
        let sorted = run(&view, &[r(0), r(2)]);
        let shuffled = run(&view, &[r(2), r(0), r(2), r(0)]);
        assert_eq!(sorted.shadowed(), 1, "{:?}", sorted.findings);
        assert_eq!(sorted.findings[0].rules[0], r(1));
        assert_eq!(
            format!("{:?}", shuffled.findings),
            format!("{:?}", sorted.findings)
        );
        assert_eq!(shuffled.rules_checked, sorted.rules_checked);
    }
}
