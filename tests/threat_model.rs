//! The full threat-model pipeline over the control channel (paper §II-B):
//! the adversary rewrites forwarding, forges its table dumps, and forges
//! its own counters — dump auditing passes, yet FOCES detects from the
//! (partially forged) counter vector, because the adversary cannot forge
//! *other* switches' counters. Counters are polled the way `foces run`
//! polls them (an [`EpochScheduler`] over a [`PerfectTransport`]), and
//! table dumps are fetched over the same wire format.

use foces::{Detector, Fcm};
use foces_channel::{
    wire_exchange, ControllerMsg, ForgingAgent, HonestAgent, PerfectTransport, SwitchAgent,
    SwitchMsg,
};
use foces_controlplane::{provision, uniform_flows, ControllerView, Deployment, RuleGranularity};
use foces_dataplane::{Action, DataPlane, LossModel, Rule, RuleRef};
use foces_net::generators::bcube;
use foces_net::SwitchId;
use foces_runtime::{EpochScheduler, PollPolicy};

fn deployment() -> Deployment {
    let topo = bcube(1, 4);
    let flows = uniform_flows(&topo, 240_000.0);
    provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap()
}

/// Picks a rule whose egress is another switch (not a last-hop rule) and
/// returns it with its switch's pre-compromise table snapshot.
fn pick_victim(dep: &Deployment) -> (RuleRef, Vec<Rule>) {
    for r in dep.view.rule_refs() {
        let rule = dep.view.rule(r).unwrap();
        if let Action::Forward(port) = rule.action() {
            let adj = &dep.view.topology().adj(foces_net::Node::Switch(r.switch))[port.0];
            if matches!(adj.neighbor, foces_net::Node::Switch(_)) {
                let snapshot = dep
                    .view
                    .table(r.switch)
                    .iter()
                    .map(|(_, rr)| rr.clone())
                    .collect();
                return (r, snapshot);
            }
        }
    }
    panic!("no eligible rule");
}

/// The lockstep poller `foces run` drives: one honest agent per switch
/// over the ideal channel.
fn honest_scheduler(view: &ControllerView) -> EpochScheduler {
    let agents: Vec<Box<dyn SwitchAgent>> = view
        .topology()
        .switches()
        .map(|s| Box::new(HonestAgent::new(s)) as Box<dyn SwitchAgent>)
        .collect();
    EpochScheduler::new(agents, Box::new(PerfectTransport), PollPolicy::default())
}

/// Polls every switch once and assembles the replies in FCM row order.
fn collect(sched: &mut EpochScheduler, dp: &DataPlane, fcm: &Fcm) -> Vec<f64> {
    let sweep = sched.poll_epoch(dp, 0).unwrap();
    let (counters, observed) = sweep.assemble(fcm.rules());
    assert!(
        observed.iter().all(|&o| o),
        "a perfect channel loses nothing"
    );
    counters
}

/// Fetches `agent`'s table dump over the wire and lists the indices where
/// it disagrees with the controller's view (match, priority or action);
/// `usize::MAX` stands for a dump of the wrong length.
fn dump_mismatches(dp: &DataPlane, view: &ControllerView, agent: &dyn SwitchAgent) -> Vec<usize> {
    let reply = wire_exchange(dp, agent, &ControllerMsg::TableDumpRequest { xid: 1 }).unwrap();
    let SwitchMsg::TableDumpReply { rules, .. } = reply else {
        panic!("wrong reply type: {reply:?}");
    };
    let table = view.table(agent.switch());
    if rules.len() != table.len() {
        return vec![usize::MAX];
    }
    rules
        .iter()
        .zip(table.iter())
        .filter(|(wire, (_, expected))| {
            wire.match_fields != *expected.match_fields()
                || wire.priority != expected.priority()
                || wire.action != expected.action()
        })
        .map(|(_, (i, _))| i)
        .collect()
}

/// Audits every switch's dump, with `forger` answering for its own switch
/// and honest agents for the rest; returns each switch's mismatches.
fn audit_dumps(
    dp: &DataPlane,
    view: &ControllerView,
    forger: Option<&ForgingAgent>,
) -> Vec<(SwitchId, Vec<usize>)> {
    view.topology()
        .switches()
        .map(|s| {
            let honest = HonestAgent::new(s);
            let agent: &dyn SwitchAgent = match forger {
                Some(f) if f.switch() == s => f,
                _ => &honest,
            };
            (s, dump_mismatches(dp, view, agent))
        })
        .collect()
}

#[test]
fn full_adversary_defeats_dump_audit_but_not_foces() {
    let mut dep = deployment();
    let fcm = Fcm::from_view(&dep.view);
    let (victim, original_table) = pick_victim(&dep);

    // The adversary: drop traffic at the victim rule...
    dep.dataplane
        .modify_rule_action(victim, Action::Drop)
        .unwrap();
    // ...and take over the switch's channel agent: forge dumps with the
    // original table, and forge the victim counter to the value the
    // controller expects (the true matched volume — which, in our counter
    // semantics, the compromised switch indeed observes).
    let mut dep_replayed = dep.clone();
    dep_replayed.replay_traffic(&mut LossModel::none());
    let expected_victim_counter = dep_replayed.dataplane.counter(victim.switch, victim.index);

    let mut agent = ForgingAgent::new(victim.switch, original_table);
    agent.forge_counter(victim.index, expected_victim_counter);

    // 1. Dump audit: every switch, including the compromised one, passes.
    let audits = audit_dumps(&dep_replayed.dataplane, &dep.view, Some(&agent));
    assert!(
        audits.iter().all(|(_, m)| m.is_empty()),
        "forged dumps defeat table auditing: {audits:?}"
    );

    // 2. FOCES over the channel-collected (forged) counters: detected
    //    anyway — the starved downstream rules are on switches the
    //    adversary does not control.
    let mut sched = honest_scheduler(&dep.view);
    assert!(sched.replace_agent(Box::new(agent)).is_some());
    let counters = collect(&mut sched, &dep_replayed.dataplane, &fcm);
    let verdict = Detector::default().detect(&fcm, &counters).unwrap();
    assert!(verdict.anomalous, "{verdict}");
    // The adversary can forge its own counters but not its neighbours':
    // substantial residuals must exist on switches it does not control.
    // (The single largest residual may well sit on the victim switch — the
    // least-squares fit splits the flow's missing volume across its whole
    // path — so the robust claim is about off-switch evidence, not argmax.)
    let off_switch_residual = fcm
        .rules()
        .iter()
        .zip(&verdict.solve.residual)
        .filter(|(r, _)| r.switch != victim.switch)
        .map(|(_, d)| *d)
        .fold(0.0_f64, f64::max);
    assert!(
        off_switch_residual > 100.0,
        "uncompromised switches carry the evidence: {off_switch_residual}"
    );
}

#[test]
fn channel_counters_equal_direct_collection_with_honest_agents() {
    let mut dep = deployment();
    let mut loss = LossModel::sampled(0.03, 5);
    dep.replay_traffic(&mut loss);
    let fcm = Fcm::from_view(&dep.view);
    let mut sched = honest_scheduler(&dep.view);
    assert_eq!(
        collect(&mut sched, &dep.dataplane, &fcm),
        dep.dataplane.collect_counters()
    );
}

#[test]
fn forging_other_switches_counters_is_out_of_reach() {
    // The adversary owns ONE switch; rewriting its reported counters does
    // not touch the canonical positions of other switches' counters.
    let mut dep = deployment();
    dep.replay_traffic(&mut LossModel::none());
    let truth = dep.dataplane.collect_counters();
    let sw = SwitchId(3);
    let snapshot: Vec<Rule> = dep.view.table(sw).iter().map(|(_, r)| r.clone()).collect();
    let table_len = snapshot.len();
    let mut sched = honest_scheduler(&dep.view);
    let mut agent = ForgingAgent::new(sw, snapshot);
    for i in 0..table_len {
        agent.forge_counter(i, 0.0);
    }
    assert!(sched.replace_agent(Box::new(agent)).is_some());
    let fcm = Fcm::from_view(&dep.view);
    let forged = collect(&mut sched, &dep.dataplane, &fcm);
    // Positions outside s3's block are untouched.
    for (i, r) in fcm.rules().iter().enumerate() {
        if r.switch == sw {
            assert_eq!(forged[i], 0.0);
        } else {
            assert_eq!(forged[i], truth[i]);
        }
    }
}

#[test]
fn honest_dump_exposes_a_naive_compromise() {
    // A compromised switch that does NOT forge its dump is caught by dump
    // auditing (which is why real adversaries forge).
    let mut dep = deployment();
    let (victim, _) = pick_victim(&dep);
    dep.dataplane
        .modify_rule_action(victim, Action::Drop)
        .unwrap();
    for (s, mismatches) in audit_dumps(&dep.dataplane, &dep.view, None) {
        let expected = if s == victim.switch {
            vec![victim.index]
        } else {
            vec![]
        };
        assert_eq!(mismatches, expected, "switch s{}", s.0);
    }
}

#[test]
fn forged_dump_defeats_auditing() {
    // The paper's point: the adversary reports the original table, so dump
    // auditing passes while forwarding is compromised.
    let mut dep = deployment();
    let (victim, original) = pick_victim(&dep);
    dep.dataplane
        .modify_rule_action(victim, Action::Drop)
        .unwrap();
    let forger = ForgingAgent::new(victim.switch, original);
    let audits = audit_dumps(&dep.dataplane, &dep.view, Some(&forger));
    assert!(
        audits.iter().all(|(_, m)| m.is_empty()),
        "forged dumps must pass the audit: {audits:?}"
    );
}
