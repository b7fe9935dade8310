//! Rule-set hardening — the constructive half of the paper's future work
//! #2: *"studying how to install rules which meet the detection conditions
//! of FOCES, such that all possible forwarding anomalies can be detected."*
//!
//! [`crate::audit_deviations`] finds the blind spots: single-hop deviations
//! whose deviated column stays inside the FCM's column span (Theorem 1).
//! Blind spots exist because aggregated rules make different flows share
//! matrix structure. The fix is **selective de-aggregation**: install a
//! higher-priority exact-match rule for an implicated flow along its path,
//! which gives that flow its own counters and pulls its column (and any
//! deviation of it) out of the shared span.
//!
//! [`harden`] runs the greedy loop: audit → split every implicated flow
//! the budget allows (most-implicated first) → re-audit, until full
//! coverage or the TCAM budget is spent. The cost-coverage trade-off is
//! exactly what an operator would tune.

use crate::{audit_deviations, Fcm};
use foces_controlplane::ControllerView;
use foces_dataplane::{Action, Rule, RuleRef, HEADER_WIDTH};
use foces_headerspace::Wildcard;
use foces_net::SwitchId;
use std::collections::HashMap;

/// Priority for hardening rules: above both control-plane granularities
/// (5 and 10) so the split flow really moves onto its own counters.
const HARDEN_PRIORITY: u16 = 15;

/// Result of a [`harden`] run.
#[derive(Debug, Clone)]
pub struct HardeningOutcome {
    /// The refined controller view (install these rules on the data plane
    /// at the same indices to deploy).
    pub view: ControllerView,
    /// Rules added, in installation order.
    pub installed: Vec<RuleRef>,
    /// Audit coverage before hardening (fraction of candidate deviations
    /// that were detectable).
    pub coverage_before: f64,
    /// Audit coverage after hardening.
    pub coverage_after: f64,
    /// Greedy iterations performed (flows split out).
    pub flows_split: usize,
}

/// Greedily refines `view`'s rule set until every audited single-hop
/// deviation is detectable, or until `budget_rules` extra rules have been
/// spent. `audit_cap` bounds each audit pass (pass `usize::MAX` for an
/// exhaustive audit; the loop re-audits after each batch of splits).
///
/// Splitting is idempotent per flow, so the loop always terminates: each
/// iteration either improves coverage, consumes budget, or stops because
/// no implicated flow can be split further.
///
/// # Example
///
/// ```no_run
/// use foces::harden;
/// use foces_controlplane::{provision, uniform_flows, RuleGranularity};
/// use foces_net::generators::fattree;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topo = fattree(4);
/// let flows = uniform_flows(&topo, 240_000.0);
/// let dep = provision(topo, &flows, RuleGranularity::PerDestination)?;
/// let outcome = harden(&dep.view, 500, usize::MAX);
/// assert!(outcome.coverage_after >= outcome.coverage_before);
/// # Ok(())
/// # }
/// ```
pub fn harden(view: &ControllerView, budget_rules: usize, audit_cap: usize) -> HardeningOutcome {
    let mut working = view.clone();
    let mut installed = Vec::new();
    let mut split_flows: Vec<(foces_net::HostId, foces_net::HostId)> = Vec::new();
    let mut coverage_before = None;
    let mut flows_split = 0;

    loop {
        let fcm = Fcm::from_view(&working);
        let audit = audit_deviations(&working, &fcm, audit_cap);
        let coverage = audit.coverage();
        if coverage_before.is_none() {
            coverage_before = Some(coverage);
        }
        if audit.undetectable.is_empty() {
            return HardeningOutcome {
                view: working,
                installed,
                coverage_before: coverage_before.unwrap_or(1.0),
                coverage_after: coverage,
                flows_split,
            };
        }
        // Rank victim flows by how many blind spots implicate them.
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for c in &audit.undetectable {
            *counts.entry(c.flow).or_insert(0) += 1;
        }
        let mut ranked: Vec<(usize, usize)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        // Split every implicated flow we can afford (most-implicated
        // first), then re-audit once — re-auditing per split would make
        // the loop quadratic in blind spots for no coverage benefit.
        let mut progressed = false;
        for (flow_idx, _) in ranked {
            let key = (fcm.ingress(flow_idx), fcm.egress(flow_idx));
            if split_flows.contains(&key) {
                continue;
            }
            let path: Vec<SwitchId> = fcm.flow_rules(flow_idx).map(|r| r.switch).collect();
            if installed.len() + path.len() > budget_rules {
                continue;
            }
            let header = fcm.header(flow_idx).representative();
            for &sw in &path {
                let action = working
                    .table(sw)
                    .lookup(header)
                    .map(|(_, r)| r.action())
                    .unwrap_or(Action::Drop);
                let mut exact = Wildcard::any(HEADER_WIDTH);
                for pos in 0..HEADER_WIDTH {
                    exact.set_bit(pos, Some((header >> (HEADER_WIDTH - 1 - pos)) & 1 == 1));
                }
                let r = working.install(sw, Rule::new(exact, HARDEN_PRIORITY, action));
                installed.push(r);
            }
            split_flows.push(key);
            flows_split += 1;
            progressed = true;
        }
        if !progressed {
            // Budget exhausted or every implicated flow already split.
            return HardeningOutcome {
                view: working,
                installed,
                coverage_before: coverage_before.unwrap_or(1.0),
                coverage_after: coverage,
                flows_split,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foces_atpg::trace_flows;
    use foces_controlplane::{provision, uniform_flows, RuleGranularity};
    use foces_net::generators::{bcube, fattree};

    fn per_dst_view(topo: foces_net::Topology) -> ControllerView {
        let flows = uniform_flows(&topo, 1000.0);
        provision(topo, &flows, RuleGranularity::PerDestination)
            .unwrap()
            .view
    }

    #[test]
    fn hardening_reaches_full_coverage_on_fattree() {
        let view = per_dst_view(fattree(4));
        let outcome = harden(&view, 5000, usize::MAX);
        assert!(outcome.coverage_before < 1.0, "per-dst has blind spots");
        assert_eq!(outcome.coverage_after, 1.0, "hardening closes them");
        assert!(!outcome.installed.is_empty());
        assert!(outcome.flows_split > 0);
    }

    #[test]
    fn hardening_preserves_forwarding_semantics() {
        // Every logical flow must still reach the same egress after
        // hardening — splits only refine counters, never routes.
        let view = per_dst_view(bcube(1, 4));
        let before = trace_flows(&view);
        let outcome = harden(&view, 5000, 400);
        let after = trace_flows(&outcome.view);
        assert_eq!(before.len(), after.len());
        for b in &before {
            let a = after
                .iter()
                .find(|a| a.ingress == b.ingress && a.egress == b.egress)
                .expect("flow survived hardening");
            assert_eq!(a.path, b.path, "route unchanged for {:?}", b.ingress);
        }
    }

    #[test]
    fn budget_is_respected() {
        let view = per_dst_view(fattree(4));
        let outcome = harden(&view, 6, usize::MAX);
        assert!(outcome.installed.len() <= 6);
        // Tiny budget cannot reach full coverage here.
        assert!(outcome.coverage_after < 1.0);
    }

    #[test]
    fn already_covered_view_is_untouched() {
        // Per-pair rules audit at 100%: hardening is a no-op.
        let topo = bcube(1, 4);
        let flows = uniform_flows(&topo, 1000.0);
        let view = provision(topo, &flows, RuleGranularity::PerFlowPair)
            .unwrap()
            .view;
        let outcome = harden(&view, 5000, 600);
        assert!(outcome.installed.is_empty());
        assert_eq!(outcome.coverage_before, 1.0);
        assert_eq!(outcome.coverage_after, 1.0);
    }

    #[test]
    fn coverage_is_monotone_in_budget() {
        let view = per_dst_view(fattree(4));
        let small = harden(&view, 20, 300);
        let large = harden(&view, 2000, 300);
        assert!(large.coverage_after >= small.coverage_after);
    }
}
