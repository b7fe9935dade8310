//! Random controller journals and the full re-trace reference the patched
//! FCM is checked against, shared by `crates/core/tests/patch_props.rs`
//! (256 cases) and the workspace-root `tests/fcm_patch.rs` (fixed seeds,
//! tier-1).
//!
//! * [`deployment`] — FatTree(4), BCube(1,4) or ring(5) under either rule
//!   granularity, provisioned with every other host pair so that a later
//!   `add_flow` installs new rules.
//! * [`journal_step`] — one random update: `reroute_flow_via`,
//!   `refine_flow`, `install_hardening` (per-pair or per-destination
//!   match, forward or drop) or `add_flow`.
//! * [`assert_equals_retrace`] — the FCM equals the full trace of the
//!   view built by the reference construction
//!   ([`ReferenceFcm::traced`], `support/fcm_reference.rs`): rules,
//!   flows, CSR and basis groups.
//! * [`run_case`] — a chain of patches, one per step, each checked.

use crate::fcm_reference::{assert_matches, ReferenceFcm};
use foces::Fcm;
use foces_controlplane::{provision, uniform_flows, ControllerView, Deployment, RuleGranularity};
use foces_dataplane::{dst_match, pair_match, Action, Rule};
use foces_net::generators::{bcube, fattree, ring};
use foces_net::{Node, SwitchId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Above both control-plane granularities (5 and 10), as `foces::harden`
/// installs its splits.
const HARDEN_PRIORITY: u16 = 15;

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

/// Applies one random controller update to `dep`. An update the control
/// plane refuses (no simple waypoint path, say) leaves the view as it was.
pub fn journal_step(dep: &mut Deployment, rng: &mut StdRng) {
    let flow = rng.gen_range(0..dep.flows.len());
    let spec = dep.flows[flow];
    let path = dep.expected_paths[flow].clone();
    match rng.gen_range(0..4) {
        0 => {
            let off_path: Vec<SwitchId> = dep
                .view
                .topology()
                .switches()
                .filter(|s| !path.contains(s))
                .collect();
            if !off_path.is_empty() {
                let w = off_path[rng.gen_range(0..off_path.len())];
                let _ = dep.reroute_flow_via(flow, &[w]);
            }
        }
        1 => {
            let _ = dep.refine_flow(flow);
        }
        2 => {
            let topo = dep.view.topology();
            let hop = rng.gen_range(0..path.len());
            let port = match path.get(hop + 1) {
                Some(&next) => topo.port_towards(Node::Switch(path[hop]), Node::Switch(next)),
                None => topo.host_attachment(spec.dst).map(|(_, port)| port),
            }
            .expect("path hops are linked");
            let matched = if rng.gen_bool(0.5) {
                pair_match(spec.src, spec.dst)
            } else {
                dst_match(spec.dst)
            };
            let action = if rng.gen_bool(0.8) {
                Action::Forward(port)
            } else {
                Action::Drop
            };
            dep.install_hardening(path[hop], Rule::new(matched, HARDEN_PRIORITY, action));
        }
        _ => {
            let topo = dep.view.topology();
            let all = uniform_flows(topo, topo.host_count() as f64 * 1000.0);
            let _ = dep.add_flow(all[rng.gen_range(0..all.len())]);
        }
    }
}

/// Asserts that `fcm` is the full re-trace of `view`, field for field.
pub fn assert_equals_retrace(fcm: &Fcm, view: &ControllerView, at: &str) {
    assert_matches(fcm, &ReferenceFcm::traced(view), at);
}

/// Builds `family`'s deployment and its FCM, then `steps` times applies
/// one to three journal updates and patches the previous FCM, checking
/// each patch against the full re-trace.
pub fn run_case(family: u8, per_pair: bool, seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dep = deployment(family, per_pair);
    let mut fcm = Fcm::from_view(&dep.view);
    assert_equals_retrace(&fcm, &dep.view, &format!("seed {seed} build"));
    for step in 0..steps {
        for _ in 0..rng.gen_range(1..4) {
            journal_step(&mut dep, &mut rng);
        }
        fcm = fcm.patched(&dep.view);
        let at = format!("family {family} per-pair {per_pair} seed {seed} step {step}");
        assert_equals_retrace(&fcm, &dep.view, &at);
    }
}
