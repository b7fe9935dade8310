//! Random controller journals and the full verification pass the
//! incremental [`Verifier`] is checked against, shared by
//! `crates/verify/tests/incremental_props.rs` (256 cases) and the
//! workspace-root `tests/incremental_verify.rs` (fixed seeds, tier-1).
//!
//! * [`deployment`] — FatTree(4), BCube(1,4) or ring(5) under either rule
//!   granularity, provisioned with every other host pair.
//! * [`journal_step`] — one random update: `reroute_flow_via`,
//!   `refine_flow`, a staged reroute (`stage_reroute_via`, committed
//!   after the next check) or `install_hardening` (per-pair or
//!   per-destination match at a random priority, forwarding out a random
//!   port — a linkless one included — or dropping), so loops, blackholes
//!   and dead rules appear.
//! * [`assert_equals_full_pass`] — one update equals `verify_with` plus
//!   `verify_fcm` on the same view and FCM: the findings in order and
//!   every count.
//! * [`run_case`] — a chain of updates, one per journal step, each
//!   checked, the FCM patched forward as the runtime does, from a
//!   correct or a [`misrecorded_fcm`].

use foces::Fcm;
use foces_atpg::trace_flows;
use foces_controlplane::{
    provision, uniform_flows, ControllerView, Deployment, RuleGranularity, StagedUpdate,
};
use foces_dataplane::{dst_match, pair_match, Action, Rule};
use foces_net::generators::{bcube, fattree, ring};
use foces_net::{Node, Port, SwitchId};
use foces_verify::{verify_fcm, verify_with, Verifier, VerifyOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `family` 0 = FatTree(4), 1 = BCube(1,4), 2 = ring(5); `per_pair`
/// picks the rule granularity. Half the host pairs are provisioned.
pub fn deployment(family: u8, per_pair: bool) -> Deployment {
    let topo = match family % 3 {
        0 => fattree(4),
        1 => bcube(1, 4),
        _ => ring(5),
    };
    let flows = uniform_flows(&topo, topo.host_count() as f64 * 1000.0);
    let half: Vec<_> = flows.iter().copied().step_by(2).collect();
    let granularity = if per_pair {
        RuleGranularity::PerFlowPair
    } else {
        RuleGranularity::PerDestination
    };
    provision(topo, &half, granularity).expect("paper topologies provision")
}

/// Applies one random controller update to `dep`, returning a staged
/// reroute the caller must commit before the next update. An update the
/// control plane refuses leaves the view as it was.
pub fn journal_step(dep: &mut Deployment, rng: &mut StdRng) -> Option<StagedUpdate> {
    let flow = rng.gen_range(0..dep.flows.len());
    let spec = dep.flows[flow];
    let path = dep.expected_paths[flow].clone();
    let off_path: Vec<SwitchId> = dep
        .view
        .topology()
        .switches()
        .filter(|s| !path.contains(s))
        .collect();
    match rng.gen_range(0..4) {
        0 | 2 if !off_path.is_empty() => {
            let w = off_path[rng.gen_range(0..off_path.len())];
            if rng.gen_bool(0.5) {
                let _ = dep.reroute_flow_via(flow, &[w]);
            } else {
                return dep.stage_reroute_via(flow, &[w]).ok();
            }
        }
        1 => {
            let _ = dep.refine_flow(flow);
        }
        _ => {
            let sw = path[rng.gen_range(0..path.len())];
            // One past the last port has no link: a blackhole.
            let ports = dep.view.topology().adj(Node::Switch(sw)).len();
            let matched = if rng.gen_bool(0.5) {
                pair_match(spec.src, spec.dst)
            } else {
                dst_match(spec.dst)
            };
            let action = if rng.gen_bool(0.8) {
                Action::Forward(Port(rng.gen_range(0..=ports)))
            } else {
                Action::Drop
            };
            let priority: u16 = [1, 5, 10, 15, 20][rng.gen_range(0..5usize)];
            dep.install_hardening(sw, Rule::new(matched, priority, action));
        }
    }
    None
}

/// Updates `verifier` with `view` and `fcm` and asserts the report equals
/// the full pass's. With `drained` the journal's touched rules are the
/// shadowing allowlist, as the runtime passes them (the verifier gets
/// them reversed: any order must do). Returns the number of findings.
pub fn assert_equals_full_pass(
    verifier: &mut Verifier,
    view: &ControllerView,
    fcm: &Fcm,
    drained: bool,
    at: &str,
) -> usize {
    let expected = if drained {
        view.touched_rules_since(0)
    } else {
        Vec::new()
    };
    let reversed: Vec<_> = expected.iter().rev().copied().collect();
    let got = verifier.update(view, &reversed, Some(fcm));
    let mut want = verify_with(
        view,
        &VerifyOptions {
            expected_shadowed: expected,
            check_fcm: false,
        },
    );
    want.findings.extend(verify_fcm(view, fcm));
    want.flows_checked = fcm.flow_count();
    assert_eq!(got.findings, want.findings, "{at}: findings");
    assert_eq!(got.classes_traced, want.classes_traced, "{at}: classes");
    assert_eq!(got.rules_checked, want.rules_checked, "{at}: rules");
    assert_eq!(got.flows_checked, want.flows_checked, "{at}: flows");
    got.findings.len()
}

/// The FCM of `view` with every third column's egress replaced by its
/// ingress: a column the tables do not realize, which patches keep until
/// an installed rule meets its ingress host.
pub fn misrecorded_fcm(view: &ControllerView) -> Fcm {
    let mut flows = trace_flows(view);
    for f in flows.iter_mut().step_by(3) {
        f.egress = f.ingress;
    }
    Fcm::from_parts(view.rule_refs().collect(), flows)
}

/// Builds `family`'s deployment, its FCM and a verifier — with `foreign`
/// a state last updated on another deployment (for per-pair rules, the
/// same topology's per-destination one), which must fall back to the full
/// pass — then `steps` times applies one to three journal updates,
/// patches the FCM and updates the verifier, checking every report
/// against the full pass. Half the cases start from a
/// [`misrecorded_fcm`], so FCM findings are carried across updates too.
/// Returns the findings seen over all checks.
pub fn run_case(family: u8, per_pair: bool, seed: u64, steps: usize, foreign: bool) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dep = deployment(family, per_pair);
    let drained = rng.gen_bool(0.5);
    let mut verifier = Verifier::default();
    if foreign {
        let other = deployment(family + u8::from(!per_pair), !per_pair);
        verifier.update(&other.view, &[], Some(&Fcm::from_view(&other.view)));
    }
    let mut fcm = if rng.gen_bool(0.5) {
        misrecorded_fcm(&dep.view)
    } else {
        Fcm::from_view(&dep.view)
    };
    let at = format!("family {family} per-pair {per_pair} seed {seed}");
    let mut findings = assert_equals_full_pass(&mut verifier, &dep.view, &fcm, drained, &at);
    let mut pending = None;
    for step in 0..steps {
        if let Some(staged) = pending.take() {
            dep.commit_staged(&staged);
        }
        for _ in 0..rng.gen_range(1..4) {
            pending = journal_step(&mut dep, &mut rng);
            if pending.is_some() {
                break;
            }
        }
        fcm = fcm.patched(&dep.view);
        let at = format!("{at} step {step}");
        findings += assert_equals_full_pass(&mut verifier, &dep.view, &fcm, drained, &at);
    }
    findings
}
