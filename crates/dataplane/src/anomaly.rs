use crate::{Action, DataPlane, DataPlaneError, RuleRef};
use foces_net::{Node, SwitchId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;

/// The class of forwarding anomaly injected (paper §II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AnomalyKind {
    /// The rule's output port is rewritten to a different neighbor switch:
    /// packets leave the intended path (covers general path deviation,
    /// switch bypass, and detours — what happens downstream depends on the
    /// benign switches' own tables).
    PathDeviation,
    /// The rule is turned into a drop: packets die before the destination.
    EarlyDrop,
    /// The switch *lies about* the rule's counter (§II-B: "the adversary …
    /// can modify the counters of rules at compromised switches"):
    /// forwarding is untouched, but every collection reads a forged value
    /// instead of the truth ([`DataPlane::fake_counter`]). This is the
    /// Byzantine anomaly — nothing is wrong with the packets, only with the
    /// report — and it is what the detection side's liar localization
    /// exists to catch.
    CounterFake,
}

impl fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnomalyKind::PathDeviation => write!(f, "path-deviation"),
            AnomalyKind::EarlyDrop => write!(f, "early-drop"),
            AnomalyKind::CounterFake => write!(f, "counter-fake"),
        }
    }
}

/// Record of an injected anomaly, sufficient to revert it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppliedAnomaly {
    /// The modified rule.
    pub rule: RuleRef,
    /// What kind of modification was applied.
    pub kind: AnomalyKind,
    /// The rule's action before modification.
    pub original_action: Action,
    /// The rule's action after modification.
    pub modified_action: Action,
}

impl AppliedAnomaly {
    /// Restores the rule to its pre-anomaly action ("repairing" it, as the
    /// paper's functional test does at t = 120 s).
    ///
    /// # Errors
    ///
    /// Returns [`DataPlaneError::UnknownRule`] if the rule vanished (cannot
    /// happen in practice: rules are never removed).
    pub fn revert(&self, dp: &mut DataPlane) -> Result<(), DataPlaneError> {
        match self.kind {
            // A counter fake never touched the rule's action: reverting means
            // the switch "confesses" — the override is dropped and collections
            // read the live register again.
            AnomalyKind::CounterFake => {
                dp.clear_counter_fake(self.rule);
            }
            _ => {
                dp.modify_rule_action(self.rule, self.original_action)?;
            }
        }
        Ok(())
    }
}

/// Installs a targeted counter fake on `rule`: forwarding is untouched, but
/// every subsequent collection reads `reported` instead of the live register
/// until the anomaly is [reverted](AppliedAnomaly::revert).
///
/// The returned record has `original_action == modified_action` — the lie is
/// in the report, not the table.
///
/// # Errors
///
/// Returns [`DataPlaneError::UnknownRule`] if `rule` does not exist.
pub fn inject_counter_fake(
    dp: &mut DataPlane,
    rule: RuleRef,
    reported: f64,
) -> Result<AppliedAnomaly, DataPlaneError> {
    let action = dp
        .rule(rule)
        .ok_or(DataPlaneError::UnknownRule(rule))?
        .action();
    dp.fake_counter(rule, reported)?;
    Ok(AppliedAnomaly {
        rule,
        kind: AnomalyKind::CounterFake,
        original_action: action,
        modified_action: action,
    })
}

/// Randomly compromises one rule in the network, mimicking the paper's
/// experiment setup: "we randomly choose switches from the network, and
/// randomly modify flow rules in the switches' flow tables".
///
/// Eligible rules are `Forward` rules whose output leads to another
/// *switch*: last-hop rules (forwarding straight to a host) are excluded,
/// matching the paper's threat model — "we implicitly assume the last-hop
/// switch is not compromised, as it can drop packets pretending that
/// packets are received by the end hosts" (§II-B); a last-hop modification
/// leaves every rule counter untouched and is undetectable by *any*
/// statistics method. For [`AnomalyKind::PathDeviation`] the new output
/// port is chosen uniformly among the switch's *other* switch-facing ports;
/// a switch with no alternative port falls back to
/// [`AnomalyKind::EarlyDrop`].
///
/// Returns `None` if the data plane has no eligible rule at all.
pub fn inject_random_anomaly(
    dp: &mut DataPlane,
    kind: AnomalyKind,
    rng: &mut StdRng,
    exclude: &[SwitchId],
) -> Option<AppliedAnomaly> {
    let eligible: Vec<RuleRef> = dp
        .rule_refs()
        .filter(|r| !exclude.contains(&r.switch))
        .filter(|r| {
            // Forward rules whose egress is another switch.
            let Some(rule) = dp.rule(*r) else {
                return false;
            };
            let Action::Forward(port) = rule.action() else {
                return false;
            };
            matches!(
                dp.topology()
                    .adj(Node::Switch(r.switch))
                    .get(port.0)
                    .map(|a| a.neighbor),
                Some(Node::Switch(_))
            )
        })
        .collect();
    let &target = eligible.choose(rng)?;
    let original_action = dp.rule(target).expect("chosen from live refs").action();
    if kind == AnomalyKind::CounterFake {
        // Forge an obviously-wrong value: inflate the live register and add a
        // constant floor so the lie is visible even on an idle rule.
        let truth = dp.true_counter(target.switch, target.index);
        let fake = truth * rng.gen_range(1.5..3.0) + 1000.0;
        dp.fake_counter(target, fake)
            .expect("target taken from live rule refs");
        return Some(AppliedAnomaly {
            rule: target,
            kind: AnomalyKind::CounterFake,
            original_action,
            modified_action: original_action,
        });
    }
    let modified_action = match kind {
        AnomalyKind::CounterFake => unreachable!("handled by the early return above"),
        AnomalyKind::EarlyDrop => Action::Drop,
        AnomalyKind::PathDeviation => {
            let Action::Forward(current) = original_action else {
                unreachable!("filtered to Forward rules");
            };
            // Candidate ports: other switch-facing ports on this switch.
            let candidates: Vec<foces_net::Port> = dp
                .topology()
                .adj(Node::Switch(target.switch))
                .iter()
                .filter(|a| a.local_port != current)
                .filter(|a| matches!(a.neighbor, Node::Switch(_)))
                .map(|a| a.local_port)
                .collect();
            match candidates.as_slice() {
                [] => Action::Drop, // no alternative: degrade to early drop
                ports => Action::Forward(ports[rng.gen_range(0..ports.len())]),
            }
        }
    };
    dp.modify_rule_action(target, modified_action)
        .expect("target taken from live rule refs");
    Some(AppliedAnomaly {
        rule: target,
        kind: match modified_action {
            Action::Drop => AnomalyKind::EarlyDrop,
            Action::Forward(_) => AnomalyKind::PathDeviation,
        },
        original_action,
        modified_action,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::HEADER_WIDTH;
    use crate::{LossModel, Rule};
    use foces_headerspace::Wildcard;
    use foces_net::{Port, Topology};
    use rand::SeedableRng;

    fn plane() -> (DataPlane, Vec<SwitchId>, Vec<foces_net::HostId>) {
        let mut t = Topology::new();
        let s: Vec<SwitchId> = (0..3).map(|_| t.add_switch()).collect();
        let h = vec![t.add_host(), t.add_host()];
        t.connect(Node::Switch(s[0]), Node::Switch(s[1])).unwrap();
        t.connect(Node::Switch(s[0]), Node::Switch(s[2])).unwrap();
        t.connect(Node::Switch(s[2]), Node::Switch(s[1])).unwrap();
        t.connect(Node::Host(h[0]), Node::Switch(s[0])).unwrap();
        t.connect(Node::Host(h[1]), Node::Switch(s[1])).unwrap();
        let mut dp = DataPlane::new(t);
        dp.install(
            s[0],
            Rule::new(Wildcard::any(HEADER_WIDTH), 0, Action::Forward(Port(0))),
        );
        dp.install(
            s[1],
            Rule::new(Wildcard::any(HEADER_WIDTH), 0, Action::Forward(Port(2))),
        );
        // s2 -> s1: a second switch-facing rule so exclusion tests always
        // have an eligible alternative (s1's rule is last-hop and therefore
        // never eligible).
        dp.install(
            s[2],
            Rule::new(Wildcard::any(HEADER_WIDTH), 0, Action::Forward(Port(1))),
        );
        (dp, s, h)
    }

    #[test]
    fn deviation_changes_action_and_reverts() {
        let (mut dp, s, h) = plane();
        let mut rng = StdRng::seed_from_u64(1);
        let applied =
            inject_random_anomaly(&mut dp, AnomalyKind::PathDeviation, &mut rng, &[]).unwrap();
        assert_ne!(applied.original_action, applied.modified_action);
        let _ = (s, h);
        applied.revert(&mut dp).unwrap();
        assert_eq!(
            dp.rule(applied.rule).unwrap().action(),
            applied.original_action
        );
    }

    #[test]
    fn early_drop_produces_drop_action() {
        let (mut dp, s, h) = plane();
        let mut rng = StdRng::seed_from_u64(2);
        // Exclude s2 so the only eligible rule is s0's on-path rule: the
        // delivery assertion below must not depend on which eligible rule
        // the RNG happens to pick.
        let applied =
            inject_random_anomaly(&mut dp, AnomalyKind::EarlyDrop, &mut rng, &[s[2]]).unwrap();
        assert_eq!(applied.modified_action, Action::Drop);
        assert_eq!(applied.kind, AnomalyKind::EarlyDrop);
        // Traffic through the modified rule dies.
        let rep = dp.inject(h[0], 0, 10.0, &mut LossModel::none());
        assert_eq!(rep.delivered_to, None);
    }

    #[test]
    fn exclusion_list_is_respected() {
        let (mut dp, s, _) = plane();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let applied =
                inject_random_anomaly(&mut dp, AnomalyKind::PathDeviation, &mut rng, &[s[0]])
                    .unwrap();
            assert_ne!(applied.rule.switch, s[0]);
            applied.revert(&mut dp).unwrap();
        }
    }

    #[test]
    fn no_eligible_rules_returns_none() {
        let mut t = Topology::new();
        t.add_switch();
        let mut dp = DataPlane::new(t);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(inject_random_anomaly(&mut dp, AnomalyKind::EarlyDrop, &mut rng, &[]).is_none());
    }

    #[test]
    fn deviation_never_targets_host_ports_or_same_port() {
        let (mut dp, s, _) = plane();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..30 {
            let applied =
                inject_random_anomaly(&mut dp, AnomalyKind::PathDeviation, &mut rng, &[]).unwrap();
            if let Action::Forward(p) = applied.modified_action {
                assert_ne!(Action::Forward(p), applied.original_action);
                let adj = dp.topology().adj(Node::Switch(applied.rule.switch));
                assert!(matches!(adj[p.0].neighbor, Node::Switch(_)));
            } else {
                // Degraded to drop only if no alternative switch port exists;
                // s1 has s0, s2 and a host => always has an alternative.
                assert_eq!(applied.rule.switch, s[1]);
                let alternatives = dp
                    .topology()
                    .adj(Node::Switch(applied.rule.switch))
                    .iter()
                    .filter(|a| matches!(a.neighbor, Node::Switch(_)))
                    .count();
                assert!(alternatives <= 1 || applied.modified_action != Action::Drop);
            }
            applied.revert(&mut dp).unwrap();
        }
    }

    #[test]
    fn kind_display() {
        assert_eq!(AnomalyKind::PathDeviation.to_string(), "path-deviation");
        assert_eq!(AnomalyKind::EarlyDrop.to_string(), "early-drop");
        assert_eq!(AnomalyKind::CounterFake.to_string(), "counter-fake");
    }

    #[test]
    fn counter_fake_lies_without_touching_forwarding() {
        let (mut dp, s, h) = plane();
        let mut rng = StdRng::seed_from_u64(6);
        let applied =
            inject_random_anomaly(&mut dp, AnomalyKind::CounterFake, &mut rng, &[]).unwrap();
        assert_eq!(applied.kind, AnomalyKind::CounterFake);
        // The table is untouched: the lie lives only in the report.
        assert_eq!(applied.original_action, applied.modified_action);
        assert_eq!(
            dp.rule(applied.rule).unwrap().action(),
            applied.original_action
        );
        // Forwarding still works end to end.
        let rep = dp.inject(h[0], 0, 10.0, &mut LossModel::none());
        assert_eq!(rep.delivered_to, Some(h[1]));
        let _ = s;
        // The reported counter diverges from the truth...
        let r = applied.rule;
        assert_ne!(
            dp.counter(r.switch, r.index),
            dp.true_counter(r.switch, r.index)
        );
        // ...until the switch confesses.
        applied.revert(&mut dp).unwrap();
        assert_eq!(
            dp.counter(r.switch, r.index),
            dp.true_counter(r.switch, r.index)
        );
        assert_eq!(dp.counter_fake_count(), 0);
    }

    #[test]
    fn targeted_counter_fake_reports_chosen_value() {
        let (mut dp, s, _) = plane();
        let r = RuleRef {
            switch: s[0],
            index: 0,
        };
        let applied = inject_counter_fake(&mut dp, r, 424242.0).unwrap();
        assert_eq!(dp.counter(r.switch, r.index), 424242.0);
        assert_eq!(dp.true_counter(r.switch, r.index), 0.0);
        applied.revert(&mut dp).unwrap();
        assert_eq!(dp.counter(r.switch, r.index), 0.0);
    }

    #[test]
    fn targeted_counter_fake_rejects_unknown_rule() {
        let (mut dp, s, _) = plane();
        let bogus = RuleRef {
            switch: s[0],
            index: 99,
        };
        assert!(inject_counter_fake(&mut dp, bogus, 1.0).is_err());
    }
}
