//! Property tests for the static analyzer: clean provisioned planes must
//! verify with zero findings, and each mutation family the analyzer
//! exists to catch — loop-forming next-hop rewrites, deleted last-hop
//! rules, broader higher-priority shadow rules — must be caught with a
//! concrete counterexample header that actually exhibits the violation.

use foces_controlplane::{provision, uniform_flows, ControllerView, Deployment, RuleGranularity};
use foces_dataplane::{dst_match, pair_header, Action, FlowTable};
use foces_net::generators::{bcube, fattree, random_connected, ring};
use foces_net::{Node, SwitchId};
use foces_verify::{verify_view, verify_with, FindingKind, VerifyOptions};
use proptest::prelude::*;

/// A provisioned deployment on a random connected topology, per-pair
/// rules for every host pair.
fn testbed(n: usize, chords: usize, topo_seed: u64) -> Deployment {
    let topo = random_connected(n, chords, topo_seed);
    let flows = uniform_flows(&topo, topo.host_count() as f64 * 1000.0);
    provision(topo, &flows, RuleGranularity::PerFlowPair).expect("provision random net")
}

/// Clones the view's flow tables so a test can mutate one and rebuild a
/// view via `ControllerView::from_parts`.
fn cloned_tables(view: &ControllerView) -> Vec<FlowTable> {
    (0..view.topology().switch_count())
        .map(|s| view.table(SwitchId(s)).clone())
        .collect()
}

/// Indices of flows whose expected path spans at least two switches (the
/// mutations below need an upstream hop).
fn multi_hop_flows(dep: &Deployment) -> Vec<usize> {
    dep.expected_paths
        .iter()
        .enumerate()
        .filter(|(_, p)| p.len() >= 2)
        .map(|(i, _)| i)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Freshly provisioned evaluation planes — routing trees on FatTree,
    /// BCube, and rings, under both rule granularities — carry no loops,
    /// no blackholes, no dead rules, and a consistent FCM.
    #[test]
    fn clean_planes_verify_with_zero_findings(
        family in 0usize..3,
        size in 0usize..4,
        per_pair in any::<bool>(),
    ) {
        let topo = match family {
            0 => fattree(4),
            1 => bcube(1, 3 + size % 2),
            _ => ring(4 + size),
        };
        let granularity = if per_pair {
            RuleGranularity::PerFlowPair
        } else {
            RuleGranularity::PerDestination
        };
        let flows = uniform_flows(&topo, topo.host_count() as f64 * 1000.0);
        let view = provision(topo, &flows, granularity).unwrap().view;
        let report = verify_view(&view);
        prop_assert!(report.is_clean(), "{}", report.summary());
        prop_assert!(report.classes_traced > 0);
        prop_assert_eq!(report.rules_checked, view.rule_count());
        prop_assert!(report.flows_checked > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rewriting one mid-path next hop to point back where the packet
    /// came from creates a two-switch bounce; the traversal must prove it
    /// with a header that matches every rule on the reported trajectory.
    #[test]
    fn loop_forming_rewrite_is_caught_with_a_counterexample(
        n in 4usize..8,
        chords in 0usize..4,
        topo_seed in 0u64..500,
        pick in any::<proptest::sample::Index>(),
    ) {
        let dep = testbed(n, chords, topo_seed);
        let candidates = multi_hop_flows(&dep);
        prop_assume!(!candidates.is_empty());
        let fi = candidates[pick.index(candidates.len())];
        let spec = dep.flows[fi];
        let path = &dep.expected_paths[fi];
        let at = 1 + pick.index(path.len() - 1);
        let header = pair_header(spec.src, spec.dst);
        let (idx, _) = dep.view.table(path[at]).lookup(header).expect("pair rule on path");
        let back = dep
            .view
            .topology()
            .port_towards(Node::Switch(path[at]), Node::Switch(path[at - 1]))
            .expect("consecutive path switches are adjacent");
        let mut tables = cloned_tables(&dep.view);
        tables[path[at].0].set_action(idx, Action::Forward(back));
        let mutated = ControllerView::from_parts(dep.view.topology().clone(), tables);

        let report = verify_with(&mutated, &VerifyOptions { check_fcm: false, ..Default::default() });
        let loops: Vec<_> = report.of_kind(FindingKind::ForwardingLoop).collect();
        prop_assert!(!loops.is_empty(), "no loop found: {}", report.summary());
        for f in &loops {
            let h = f.header.expect("loop findings carry a concrete header");
            for &r in &f.rules {
                let rule = mutated.rule(r).expect("trajectory rules exist");
                prop_assert!(
                    rule.matches(h),
                    "counterexample {h:#010x} does not match {r} on the reported trajectory"
                );
            }
        }
    }

    /// Removing a flow's last-hop rule strands traffic that already
    /// matched upstream: a blackhole at exactly that switch, witnessed by
    /// exactly that pair's header.
    #[test]
    fn deleted_last_hop_rule_is_a_blackhole(
        n in 4usize..8,
        chords in 0usize..4,
        topo_seed in 0u64..500,
        pick in any::<proptest::sample::Index>(),
    ) {
        let dep = testbed(n, chords, topo_seed);
        let candidates = multi_hop_flows(&dep);
        prop_assume!(!candidates.is_empty());
        let fi = candidates[pick.index(candidates.len())];
        let spec = dep.flows[fi];
        let last = *dep.expected_paths[fi].last().unwrap();
        let header = pair_header(spec.src, spec.dst);
        let (deleted, _) = dep.view.table(last).lookup(header).expect("last-hop rule");
        let mut tables = cloned_tables(&dep.view);
        let mut shrunk = FlowTable::new();
        for (i, r) in dep.view.table(last).iter() {
            if i != deleted {
                shrunk.push(r.clone());
            }
        }
        tables[last.0] = shrunk;
        let mutated = ControllerView::from_parts(dep.view.topology().clone(), tables);

        let report = verify_with(&mutated, &VerifyOptions { check_fcm: false, ..Default::default() });
        let holes: Vec<_> = report.of_kind(FindingKind::Blackhole).collect();
        prop_assert!(
            holes.iter().any(|f| f.switch == last && f.header == Some(header)),
            "no blackhole at s{} for header {header:#010x}: {}",
            last.0,
            report.summary()
        );
    }

    /// A broader rule installed above a pair rule's priority makes the
    /// pair rule dead; shadowing must name both the victim and the
    /// shadower, with a header both of them match.
    #[test]
    fn broader_priority_shadow_rule_is_caught(
        n in 4usize..8,
        chords in 0usize..4,
        topo_seed in 0u64..500,
        pick in any::<proptest::sample::Index>(),
    ) {
        let dep = testbed(n, chords, topo_seed);
        prop_assume!(!dep.flows.is_empty());
        let fi = pick.index(dep.flows.len());
        let spec = dep.flows[fi];
        let sw = dep.expected_paths[fi][0];
        let header = pair_header(spec.src, spec.dst);
        let mut view = dep.view.clone();
        let (idx, port) = {
            let (idx, rule) = view.table(sw).lookup(header).expect("pair rule at ingress");
            let Action::Forward(port) = rule.action() else {
                panic!("provisioned pair rules forward");
            };
            (idx, port)
        };
        let victim = foces_dataplane::RuleRef { switch: sw, index: idx };
        // Same egress port, so the pair's traffic still flows — the rule
        // is dead, not the path.
        let shadower = view.install(
            sw,
            foces_dataplane::Rule::new(dst_match(spec.dst), 99, Action::Forward(port)),
        );

        let report = verify_with(&view, &VerifyOptions { check_fcm: false, ..Default::default() });
        let finding = report
            .of_kind(FindingKind::ShadowedRule)
            .find(|f| f.rules.first() == Some(&victim));
        prop_assert!(
            finding.is_some(),
            "pair rule {victim} not reported dead: {}",
            report.summary()
        );
        let finding = finding.unwrap();
        prop_assert!(
            finding.rules.contains(&shadower),
            "finding does not name the shadower: {finding}"
        );
        let h = finding.header.expect("shadow findings carry a concrete header");
        prop_assert!(view.rule(victim).unwrap().matches(h));
        prop_assert!(view.rule(shadower).unwrap().matches(h));
    }
}
