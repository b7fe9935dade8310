//! The patched FCM equals the full re-trace.
//!
//! [`Fcm::patched`] re-traces only the ingress hosts the rules installed
//! since the previous build can reach, and [`Fcm::from_view`] is the patch
//! of the empty FCM. Both must give exactly the FCM of a full trace
//! (`ReferenceFcm::traced`, `support/fcm_reference.rs`): the same rules,
//! flows, CSR and basis groups.
//!
//! * a fixed-seed slice of the 256-case journal battery in
//!   `crates/core/tests/patch_props.rs`;
//! * the first build on every paper topology under both granularities;
//! * an FCM that is not an earlier generation of the view (another
//!   deployment's, a later generation's, a masked one) falls back to the
//!   full trace.

#[path = "../crates/core/tests/support/fcm_reference.rs"]
mod fcm_reference;
#[path = "../crates/core/tests/support/patch_journal.rs"]
mod patch_journal;

use foces::Fcm;
use foces_controlplane::{provision, uniform_flows, RuleGranularity};
use foces_net::generators::{bcube, dcell, fattree, ring, stanford};
use patch_journal::{assert_equals_retrace, deployment, journal_step, run_case};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn chained_patches_equal_the_full_retrace_on_fixed_seeds() {
    for case in 0..12u64 {
        let family = (case % 3) as u8;
        let per_pair = (case / 3) % 2 == 1;
        run_case(family, per_pair, case, 4);
    }
}

#[test]
fn the_first_build_equals_the_full_trace_on_paper_topologies() {
    for topo in [stanford(), fattree(4), bcube(1, 4), dcell(1, 4), ring(6)] {
        for granularity in [
            RuleGranularity::PerDestination,
            RuleGranularity::PerFlowPair,
        ] {
            let flows = uniform_flows(&topo, topo.host_count() as f64 * 1000.0);
            let dep = provision(topo.clone(), &flows, granularity).unwrap();
            let at = format!("{} switches {granularity:?}", topo.switch_count());
            assert_equals_retrace(&Fcm::from_view(&dep.view), &dep.view, &at);
        }
    }
}

#[test]
fn an_fcm_of_another_view_falls_back_to_the_full_trace() {
    // Another deployment: per-pair tables hold rows the per-destination
    // view does not have.
    let per_dest = deployment(0, false);
    let per_pair = deployment(0, true);
    let foreign = Fcm::from_view(&per_pair.view);
    assert!(foreign
        .rules()
        .iter()
        .any(|&r| per_dest.view.rule(r).is_none()));
    assert_equals_retrace(&foreign.patched(&per_dest.view), &per_dest.view, "foreign");

    // A later generation of the same deployment holds rows the earlier
    // view has not installed yet.
    let mut later = per_dest.clone();
    let mut rng = StdRng::seed_from_u64(7);
    while later.view.rule_count() == per_dest.view.rule_count() {
        journal_step(&mut later, &mut rng);
    }
    let ahead = Fcm::from_view(&later.view);
    assert_equals_retrace(&ahead.patched(&per_dest.view), &per_dest.view, "ahead");

    // A masked FCM holds only some of each table's rules: every row is in
    // the view, but the rows it lacks were never installed after it.
    let fcm = Fcm::from_view(&later.view);
    let observed: Vec<bool> = (0..fcm.rule_count()).map(|i| i % 3 != 0).collect();
    let masked = fcm.mask_rows(&observed);
    assert_equals_retrace(&masked.fcm().patched(&later.view), &later.view, "masked");
}
