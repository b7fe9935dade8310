//! Detectability audit — the paper's future work #2, made concrete.
//!
//! The paper closes by proposing to "study how to install rules which meet
//! the detection conditions of FOCES, such that all possible forwarding
//! anomalies can be detected". This module provides the measurement half:
//! given a deployed configuration, enumerate every *single-hop deviation*
//! an adversary could apply (at some switch on some flow's path, forward to
//! a different neighbor instead of the intended next hop), derive the
//! deviated flow's new rule history by re-tracing the controller's own
//! tables, and classify the deviation as detectable or not via the
//! Theorem 1 span oracle. Operators can read the result as a coverage
//! report: which parts of the rule set leave blind spots.
//!
//! Cost: one [`SpanOracle`] per audit (deduplicated basis, sparse Gram,
//! pivot-dropping sparse Cholesky — milliseconds on FatTree(6), or just
//! the basis when a solve already memoized the factor), then per
//! candidate a re-trace plus one sparse forward solve of `Bᵀv` over its
//! elimination-tree reach, which answers a detectable candidate outright.
//! Only candidates near the span (the blind spots) pay the exact rule's
//! `O(nnz(L) + nnz(B))`: two full triangular solves and two sparse
//! products over the basis `B`.

use crate::detectability::{history_rows, SpanOracle};
use crate::Fcm;
use foces_controlplane::ControllerView;
use foces_dataplane::RuleRef;
use foces_net::{Node, SwitchId};

/// One candidate single-hop deviation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviationCandidate {
    /// Index of the affected flow (column of the FCM).
    pub flow: usize,
    /// The switch where the adversary deviates the flow.
    pub at_switch: SwitchId,
    /// The neighbor switch the flow is redirected to.
    pub redirected_to: SwitchId,
    /// The deviated flow's rule history (empty if the redirected packet is
    /// dropped before matching anything).
    pub deviated_history: Vec<RuleRef>,
    /// Whether the deviated packets still reach the flow's destination.
    pub still_delivered: bool,
}

/// Aggregate audit result.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviationAudit {
    /// Candidates that Theorem 1 classifies as detectable.
    pub detectable: Vec<DeviationCandidate>,
    /// Candidates whose deviated column stays in the FCM's span — FOCES
    /// blind spots.
    pub undetectable: Vec<DeviationCandidate>,
    /// Candidates whose deviated history references rules the FCM does not
    /// know — the FCM is stale relative to the plane it was traced against.
    /// These cannot be classified; `foces audit` reports them as a finding
    /// instead of aborting.
    pub stale: Vec<DeviationCandidate>,
}

impl DeviationAudit {
    /// Total classified candidates (stale candidates are excluded: they
    /// were never run through the Theorem 1 oracle).
    pub fn total(&self) -> usize {
        self.detectable.len() + self.undetectable.len()
    }

    /// Fraction of candidates that are detectable (1.0 when there are no
    /// candidates at all).
    pub fn coverage(&self) -> f64 {
        if self.total() == 0 {
            1.0
        } else {
            self.detectable.len() as f64 / self.total() as f64
        }
    }
}

/// Enumerates and classifies every single-hop deviation of every flow.
///
/// For flow `f` with path `S₁…Sₖ` and each position `i`, the adversary at
/// `Sᵢ` can forward `f`'s packets to any neighbor switch `T` other than the
/// intended next hop. The deviated history is `f`'s rules up to `Sᵢ`
/// followed by whatever the benign network does with the packet from `T`
/// (traced through the controller's tables — benign switches keep
/// forwarding by destination).
///
/// `max_candidates` bounds the enumeration for large networks; pass
/// `usize::MAX` for an exhaustive audit.
pub fn audit_deviations(view: &ControllerView, fcm: &Fcm, max_candidates: usize) -> DeviationAudit {
    let topo = view.topology();
    let mut detectable = Vec::new();
    let mut undetectable = Vec::new();
    let mut stale = Vec::new();
    // One factorization of the FCM's column space answers every span
    // query — the audit asks thousands of them.
    let oracle = SpanOracle::new(fcm);
    'outer: for flow_idx in 0..fcm.flow_count() {
        let header = fcm.header(flow_idx).representative();
        let history: Vec<RuleRef> = fcm.flow_rules(flow_idx).collect();
        let mut orig = history.clone();
        orig.sort_unstable();
        for (pos, rule) in history.iter().enumerate() {
            let here = rule.switch;
            let intended_next = history.get(pos + 1).map(|r| r.switch);
            for adj in topo.adj(Node::Switch(here)) {
                let Node::Switch(target) = adj.neighbor else {
                    continue;
                };
                if Some(target) == intended_next {
                    continue; // not a deviation
                }
                // Deviated history: rules up to and including this switch,
                // then the benign trace from the redirection target.
                // The hop budget stops adversarial redirections that loop.
                let mut deviated: Vec<RuleRef> = history[..=pos].to_vec();
                let delivered = view.walk(target, header, 64, &mut deviated);
                // Skip "deviations" that reproduce the original history
                // (e.g. redirecting into a switch that routes straight
                // back): FA(h, h) is not an anomaly (Definition 1).
                deviated.sort_unstable();
                deviated.dedup();
                if deviated == orig {
                    continue;
                }
                let rows = history_rows(fcm, &deviated);
                let candidate = DeviationCandidate {
                    flow: flow_idx,
                    at_switch: here,
                    redirected_to: target,
                    deviated_history: deviated,
                    still_delivered: delivered == Some(fcm.egress(flow_idx)),
                };
                match rows {
                    Ok(rows) if oracle.contains_rows(&rows) => undetectable.push(candidate),
                    Ok(_) => detectable.push(candidate),
                    // Stale FCM (`UnknownRule`): the re-trace matched a rule
                    // the snapshot does not know. Record, don't abort the
                    // whole audit.
                    Err(_) => stale.push(candidate),
                }
                if detectable.len() + undetectable.len() + stale.len() >= max_candidates {
                    break 'outer;
                }
            }
        }
    }
    DeviationAudit {
        detectable,
        undetectable,
        stale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detectability::undetectable_by_rank;
    use foces_controlplane::{provision, uniform_flows, RuleGranularity};
    use foces_net::generators::{bcube, fattree};

    fn audit_for(topo: foces_net::Topology, cap: usize) -> (DeviationAudit, Fcm) {
        let flows = uniform_flows(&topo, 1000.0);
        let dep = provision(topo, &flows, RuleGranularity::PerDestination).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        let audit = audit_deviations(&dep.view, &fcm, cap);
        (audit, fcm)
    }

    #[test]
    fn audit_finds_candidates_and_classifies_all() {
        let (audit, _) = audit_for(bcube(1, 4), 500);
        assert!(audit.total() > 0);
        assert!(audit.coverage() > 0.0);
        assert!(audit.coverage() <= 1.0);
    }

    #[test]
    fn detectable_candidates_really_are_detectable() {
        // Cross-check the audit's classification against the oracle.
        let (audit, fcm) = audit_for(fattree(4), 200);
        for c in audit.detectable.iter().take(30) {
            assert!(!undetectable_by_rank(&fcm, &c.deviated_history).unwrap());
        }
        for c in audit.undetectable.iter().take(30) {
            assert!(undetectable_by_rank(&fcm, &c.deviated_history).unwrap());
        }
    }

    #[test]
    fn deviations_change_the_history() {
        let (audit, fcm) = audit_for(bcube(1, 4), 300);
        for c in audit.detectable.iter().chain(&audit.undetectable).take(50) {
            let mut orig: Vec<RuleRef> = fcm.flow_rules(c.flow).collect();
            orig.sort_unstable();
            assert_ne!(c.deviated_history, orig);
        }
    }

    #[test]
    fn cap_limits_enumeration() {
        let (audit, _) = audit_for(fattree(4), 10);
        assert!(audit.total() <= 10);
    }

    #[test]
    fn coverage_of_empty_audit_is_one() {
        let audit = DeviationAudit {
            detectable: vec![],
            undetectable: vec![],
            stale: vec![],
        };
        assert_eq!(audit.coverage(), 1.0);
    }

    #[test]
    fn stale_plane_yields_stale_candidates_not_a_panic() {
        // Audit a view whose tables moved out from under the FCM: same
        // topology, but the view was re-provisioned at a different rule
        // granularity, so the benign re-trace walks rules the FCM snapshot
        // has no row for. This previously panicked while building the
        // deviated column; now it must classify those candidates as stale.
        let topo = fattree(4);
        let flows = uniform_flows(&topo, 1000.0);
        let stale_dep = provision(topo.clone(), &flows, RuleGranularity::PerDestination).unwrap();
        let stale_fcm = Fcm::from_view(&stale_dep.view);
        let dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
        let audit = audit_deviations(&dep.view, &stale_fcm, 200);
        assert!(!audit.stale.is_empty());
    }
}
