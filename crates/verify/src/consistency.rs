//! FCM structural consistency: the flow-counter matrix must agree with the
//! rule tables it claims to model.
//!
//! Two obligations:
//!
//! 1. **Row liveness** — every FCM row references a rule the controller
//!    view actually holds. (An FCM kept across reconfigurations can go
//!    stale; detection over phantom rows charges counters to nothing.)
//! 2. **Column realizability** — every flow column's recorded rule path is
//!    exactly what the tables forward that flow's concrete header along,
//!    ending at the recorded egress host. Forwarding has no header
//!    rewrites, so one [`foces_dataplane::FlowTable::lookup`] walk per
//!    column decides this.

use crate::report::{Finding, FindingKind};
use foces::Fcm;
use foces_controlplane::ControllerView;
use foces_dataplane::RuleRef;
use foces_net::SwitchId;
use std::ops::Range;

/// Checks an FCM against a controller view, returning one finding per
/// stale row and per unrealizable flow column.
pub fn verify_fcm(view: &ControllerView, fcm: &Fcm) -> Vec<Finding> {
    let mut findings = stale_rows(view, fcm);
    findings.extend(check_columns(view, fcm, 0..fcm.flow_count()));
    findings
}

/// One finding per FCM row whose rule the view does not hold, in row
/// order.
pub(crate) fn stale_rows(view: &ControllerView, fcm: &Fcm) -> Vec<Finding> {
    fcm.rules()
        .iter()
        .filter(|&&r| view.rule(r).is_none())
        .map(|&r| Finding {
            kind: FindingKind::FcmInconsistency,
            switch: r.switch,
            rules: vec![r],
            region: None,
            header: None,
            detail: format!("FCM row references {r}, absent from the controller view"),
        })
        .collect()
}

/// One finding per unrealizable column among `columns`, in column order.
pub(crate) fn check_columns(
    view: &ControllerView,
    fcm: &Fcm,
    columns: Range<usize>,
) -> Vec<Finding> {
    let topo = view.topology();
    let mut findings = Vec::new();
    let mut walked = Vec::new();
    for j in columns {
        let (ingress, egress) = (fcm.ingress(j), fcm.egress(j));
        let region = fcm.header(j);
        let header = region.representative();
        let Some((first_switch, _)) = topo.host_attachment(ingress) else {
            findings.push(Finding {
                kind: FindingKind::FcmInconsistency,
                switch: fcm.flow_rules(j).next().map_or(SwitchId(0), |r| r.switch),
                rules: fcm.flow_rules(j).collect(),
                region: Some(region),
                header: Some(header),
                detail: format!(
                    "flow column h{}->h{}: ingress host is not attached to any switch",
                    ingress.0, egress.0
                ),
            });
            continue;
        };
        // Bounded by the switch count, so a looping configuration ends
        // with a too-long rule path, which never equals a (finite,
        // loop-free) recorded column.
        walked.clear();
        let delivered = view.walk(first_switch, header, topo.switch_count() + 1, &mut walked);
        if delivered == Some(egress) && walked.iter().copied().eq(fcm.flow_rules(j)) {
            continue;
        }
        let recorded: Vec<RuleRef> = fcm.flow_rules(j).collect();
        let divergence = walked
            .iter()
            .zip(&recorded)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| walked.len().min(recorded.len()));
        let switch = recorded
            .get(divergence)
            .or_else(|| walked.get(divergence))
            .map(|r| r.switch)
            .unwrap_or(first_switch);
        let walked_str: Vec<String> = walked.iter().map(|r| r.to_string()).collect();
        let recorded_str: Vec<String> = recorded.iter().map(|r| r.to_string()).collect();
        findings.push(Finding {
            kind: FindingKind::FcmInconsistency,
            switch,
            rules: recorded,
            region: Some(region),
            header: Some(header),
            detail: format!(
                "flow column h{}->h{} (header {header:#010x}): tables forward \
                 along [{}] delivering to {}, FCM records [{}] delivering to h{}",
                ingress.0,
                egress.0,
                walked_str.join(", "),
                delivered.map_or("nobody".to_string(), |h| format!("h{}", h.0)),
                recorded_str.join(", "),
                egress.0
            ),
        });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use foces_dataplane::{dst_match, Action, FlowTable, Rule};
    use foces_net::{Node, Port, Topology};

    /// h0 - s0 - s1 - h1 with per-destination rules both ways.
    fn clean_view() -> ControllerView {
        let mut topo = Topology::new();
        let s0 = topo.add_switch();
        let s1 = topo.add_switch();
        let h0 = topo.add_host();
        let h1 = topo.add_host();
        topo.connect(Node::Switch(s0), Node::Switch(s1)).unwrap();
        topo.connect(Node::Host(h0), Node::Switch(s0)).unwrap();
        topo.connect(Node::Host(h1), Node::Switch(s1)).unwrap();
        let mut t0 = FlowTable::new();
        t0.push(Rule::new(dst_match(h1), 5, Action::Forward(Port(0))));
        t0.push(Rule::new(dst_match(h0), 5, Action::Forward(Port(1))));
        let mut t1 = FlowTable::new();
        t1.push(Rule::new(dst_match(h1), 5, Action::Forward(Port(1))));
        t1.push(Rule::new(dst_match(h0), 5, Action::Forward(Port(0))));
        ControllerView::from_parts(topo, vec![t0, t1])
    }

    #[test]
    fn consistent_fcm_is_clean() {
        let view = clean_view();
        let fcm = Fcm::from_view(&view);
        assert_eq!(fcm.flow_count(), 2);
        assert!(verify_fcm(&view, &fcm).is_empty());
    }

    #[test]
    fn stale_row_is_reported() {
        let view = clean_view();
        let mut rules: Vec<RuleRef> = view.rule_refs().collect();
        rules.push(RuleRef {
            switch: SwitchId(1),
            index: 99,
        });
        let fcm = Fcm::from_parts(rules, foces_atpg::trace_flows(&view));
        let findings = verify_fcm(&view, &fcm);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].detail.contains("s1#r99"));
    }

    #[test]
    fn rewired_next_hop_breaks_the_column() {
        // Build the FCM against the clean view, then rewire s0's dst=h1
        // rule to bounce back to h0: the h0->h1 column is no longer what
        // the tables do.
        let clean = clean_view();
        let fcm = Fcm::from_view(&clean);
        let mut tables: Vec<FlowTable> = (0..clean.topology().switch_count())
            .map(|s| clean.table(SwitchId(s)).clone())
            .collect();
        tables[0].set_action(0, Action::Forward(Port(1))); // deliver dst=h1 to... h0
        let mutated = ControllerView::from_parts(clean.topology().clone(), tables);
        let findings = verify_fcm(&mutated, &fcm);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.kind, FindingKind::FcmInconsistency);
        assert!(f.detail.contains("delivering to h0"), "{}", f.detail);
        assert!(f.header.is_some());
    }
}
