//! Incremental verification reports what the full pass does.
//!
//! [`Verifier::update`] re-traces only the hosts the rules installed since
//! the previous update meet, re-checks shadowing only in the tables that
//! grew and re-walks only the re-traced hosts' FCM columns; `verify_with`
//! is the update of the empty state. Both must give exactly the full
//! pass: `verify_with` plus `verify_fcm`, findings in order and every
//! count.
//!
//! * a fixed-seed slice of the 256-case journal battery in
//!   `crates/verify/tests/incremental_props.rs`;
//! * a state that is not an earlier generation of the view (another
//!   deployment's, the same topology's other granularity, a later
//!   generation's) falls back to the full pass and finds a dead rule in
//!   a table it held longer.

#[path = "../crates/verify/tests/support/verify_journal.rs"]
mod verify_journal;

use foces::Fcm;
use foces_controlplane::ControllerView;
use foces_dataplane::{dst_match, pair_header, pair_match, Action, Rule};
use foces_verify::Verifier;
use verify_journal::{assert_equals_full_pass, deployment, run_case};

#[test]
fn chained_updates_equal_the_full_pass_on_fixed_seeds() {
    let mut findings = 0;
    for case in 0..12u64 {
        let family = (case % 3) as u8;
        let per_pair = (case / 3) % 2 == 1;
        findings += run_case(family, per_pair, case, 4, case % 4 == 0);
    }
    // The journals loop, blackhole and shadow: the slice checks findings,
    // not only clean reports.
    assert!(findings > 0);
}

#[test]
fn a_state_of_another_view_falls_back_to_the_full_pass() {
    // Per-pair FatTree(4) with one dead rule: a low-priority copy of a
    // pair rule, under the rule it copies.
    let mut per_pair = deployment(0, true);
    let (spec, sw) = (per_pair.flows[0], per_pair.expected_paths[0][0]);
    let header = pair_header(spec.src, spec.dst);
    let (_, rule) = per_pair.view.table(sw).lookup(header).unwrap();
    let copy = Rule::new(pair_match(spec.src, spec.dst), 1, rule.action());
    per_pair.install_hardening(sw, copy);
    let fcm = Fcm::from_view(&per_pair.view);
    let at = |name: &str, state: &mut Verifier| {
        // No allowlist: the journal names the dead rule.
        let found = assert_equals_full_pass(state, &per_pair.view, &fcm, false, name);
        assert_eq!(found, 1, "{name}: the dead rule");
    };
    let state_of = |view: &ControllerView| {
        let mut state = Verifier::default();
        state.update(view, &[], Some(&Fcm::from_view(view)));
        state
    };

    // Another topology.
    at("bcube", &mut state_of(&deployment(1, true).view));

    // The same topology under per-destination rules: no table is longer
    // than the per-pair view's, but their rules differ.
    let per_dest = deployment(0, false);
    let topo = per_dest.view.topology();
    assert!(topo
        .switches()
        .all(|s| per_dest.view.table(s).len() <= per_pair.view.table(s).len()));
    at("per-destination", &mut state_of(&per_dest.view));

    // A later generation: the dead rule's table is longer there, so only
    // a full pass re-checks it.
    let mut later = per_pair.clone();
    later.install_hardening(sw, Rule::new(dst_match(spec.dst), 1, Action::Drop));
    at("ahead", &mut state_of(&later.view));
}
