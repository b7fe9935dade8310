//! The masked/quarantined FCM cases, shared by
//! `crates/core/tests/mask_props.rs` (random cases) and the
//! workspace-root `tests/mask_quarantine.rs` (fixed seeds, tier-1). An
//! including crate also declares `support/fcm_reference.rs` as the root
//! module `fcm_reference`.
//!
//! Projecting a full expected-counter vector through a [`MaskedFcm`]
//! must agree with the masked sub-FCM's own expected counters — for
//! arbitrary observed-row patterns, and for arbitrary column quarantines
//! once the quarantined volumes are zeroed. The churn-closure case
//! ([`check_churn_closure`]) is the soundness argument the runtime's
//! reconciliation path relies on: after masking updated rules,
//! quarantining the flows through them, and masking the rows those flows
//! still traverse, the remaining sub-system is consistent for *arbitrary*
//! benign volumes — no zeroing needed. The masked sub-FCM, and the column
//! and row closures, are also checked against the earlier explicit
//! constructions over the reference FCM, kept verbatim below.
//!
//! Every case takes short patterns and cycles them out to the FCM's
//! rows or flows ([`cycle`]), so generated inputs stay small while every
//! index of the real FCM is exercised.

#![allow(dead_code)]

use crate::fcm_reference::{assert_matches, ReferenceFcm};
use foces::{Fcm, MaskedFcm};
use foces_controlplane::{provision, uniform_flows, RuleGranularity};
use foces_dataplane::RuleRef;
use foces_net::generators::fattree;
use std::collections::HashSet;
use std::sync::OnceLock;

/// One shared FCM and its reference — construction runs provisioning +
/// ATPG tracing, far too slow to repeat per proptest case.
pub fn fixture() -> &'static (Fcm, ReferenceFcm) {
    static FIXTURE: OnceLock<(Fcm, ReferenceFcm)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let topo = fattree(4);
        let flows = uniform_flows(&topo, 1000.0);
        let dep = provision(topo, &flows, RuleGranularity::PerDestination).unwrap();
        let reference = ReferenceFcm::traced(&dep.view);
        let fcm = Fcm::from_view(&dep.view);
        assert_matches(&fcm, &reference, "fixture");
        (fcm, reference)
    })
}

pub fn fcm() -> &'static Fcm {
    &fixture().0
}

/// The earlier `Fcm::quarantine` restriction, verbatim, over the
/// reference: the sub-FCM, its parent rows and columns, and the dropped
/// and quarantined flow counts.
fn reference_quarantine(
    fcm: &ReferenceFcm,
    observed: &[bool],
    quarantined: &[bool],
) -> (ReferenceFcm, Vec<usize>, Vec<usize>, usize, usize) {
    let kept_rules: Vec<RuleRef> = fcm
        .rules
        .iter()
        .zip(observed)
        .filter(|(_, &o)| o)
        .map(|(&r, _)| r)
        .collect();
    let parent_rows: Vec<usize> = (0..fcm.rules.len()).filter(|&i| observed[i]).collect();
    let keep = |r: &RuleRef| observed[fcm.rule_index[r]];
    let mut dropped_flows = 0usize;
    let mut quarantined_flows = 0usize;
    let mut parent_columns = Vec::new();
    let mut sub_flows = Vec::new();
    for (j, f) in fcm.flows.iter().enumerate() {
        if quarantined[j] {
            quarantined_flows += 1;
            continue;
        }
        let mut g = f.clone();
        g.rules.retain(|r| keep(r));
        if g.rules.is_empty() {
            dropped_flows += 1;
            continue;
        }
        g.path.retain(|s| g.rules.iter().any(|r| r.switch == *s));
        parent_columns.push(j);
        sub_flows.push(g);
    }
    (
        ReferenceFcm::from_parts(kept_rules, sub_flows),
        parent_rows,
        parent_columns,
        dropped_flows,
        quarantined_flows,
    )
}

/// The earlier `Fcm::columns_touching` and `Fcm::rows_touching`,
/// verbatim, over the reference.
fn reference_closures(fcm: &ReferenceFcm, rules: &[RuleRef]) -> (Vec<bool>, Vec<bool>) {
    let touched: HashSet<RuleRef> = rules.iter().copied().collect();
    let columns: Vec<bool> = fcm
        .flows
        .iter()
        .map(|f| f.rules.iter().any(|r| touched.contains(r)))
        .collect();
    let mut rows = vec![false; fcm.rules.len()];
    for (j, f) in fcm.flows.iter().enumerate() {
        if columns[j] {
            for r in &f.rules {
                rows[fcm.rule_index[r]] = true;
            }
        }
    }
    (columns, rows)
}

/// Cycles a short generated pattern out to length `n`, so strategies stay
/// small while still exercising every index of the real FCM.
fn cycle<T: Copy>(pattern: &[T], n: usize) -> Vec<T> {
    (0..n).map(|i| pattern[i % pattern.len()]).collect()
}

fn assert_close(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let tol = 1e-9 + x.abs().max(y.abs()) * 1e-12;
        assert!((x - y).abs() <= tol, "row {i}: {x} vs {y}");
    }
}

/// `project(H·X)` through `masked` equals the sub-FCM's own `H'·X'` for
/// the kept flows' volumes.
fn assert_projection_round_trips(fcm: &Fcm, masked: &MaskedFcm, volumes: &[f64]) {
    let projected = masked.project(&fcm.expected_counters(volumes));
    let kept_vol: Vec<f64> = masked
        .parent_columns()
        .iter()
        .map(|&j| volumes[j])
        .collect();
    let direct = masked.fcm().expected_counters(&kept_vol);
    assert_close(&projected, &direct);
}

/// Row masking alone: `project(H·X)` equals the masked sub-FCM's own
/// `H'·X'` for every observed-row pattern and every volume vector —
/// dropped flows contribute nothing to observed rows, so no volume
/// adjustment is needed.
pub fn check_mask_rows_round_trip(obs_pat: &[bool], vol_pat: &[f64]) {
    let fcm = fcm();
    let observed = cycle(obs_pat, fcm.rule_count());
    let volumes = cycle(vol_pat, fcm.flow_count());
    assert_projection_round_trips(fcm, &fcm.mask_rows(&observed), &volumes);
}

/// Column quarantine obeys the same invariant once the quarantined
/// flows' volumes are zeroed in the full system: their columns are gone
/// from the sub-FCM, so the projection only matches when they carry no
/// traffic.
pub fn check_quarantine_round_trip(obs_pat: &[bool], quar_pat: &[bool], vol_pat: &[f64]) {
    let fcm = fcm();
    let observed = cycle(obs_pat, fcm.rule_count());
    let quarantined = cycle(quar_pat, fcm.flow_count());
    let mut volumes = cycle(vol_pat, fcm.flow_count());
    for (v, &q) in volumes.iter_mut().zip(&quarantined) {
        if q {
            *v = 0.0;
        }
    }
    let masked = fcm.quarantine(&observed, &quarantined);
    assert_projection_round_trips(fcm, &masked, &volumes);
}

/// The masked sub-FCM and its maps equal the earlier explicit restriction
/// of the reference FCM.
pub fn check_quarantine_matches_reference(obs_pat: &[bool], quar_pat: &[bool]) {
    let (fcm, reference) = fixture();
    let observed = cycle(obs_pat, fcm.rule_count());
    let quarantined = cycle(quar_pat, fcm.flow_count());
    let masked = fcm.quarantine(&observed, &quarantined);
    let (want, rows, columns, dropped, evicted) =
        reference_quarantine(reference, &observed, &quarantined);
    assert_matches(masked.fcm(), &want, "masked");
    assert_eq!(masked.parent_rows(), rows.as_slice());
    assert_eq!(masked.parent_columns(), columns.as_slice());
    assert_eq!(masked.dropped_flows(), dropped);
    assert_eq!(masked.quarantined_flows(), evicted);
    let (_, _, _, blinded, _) =
        reference_quarantine(reference, &observed, &vec![false; fcm.flow_count()]);
    assert_eq!(fcm.flows_blinded(&observed), blinded);
}

/// Flow accounting: kept + dropped + quarantined columns partition the
/// parent flows, quarantine takes precedence over dropping, and the
/// parent row/column maps are strictly increasing and land on
/// unmasked/unquarantined parents.
pub fn check_quarantine_partitions(obs_pat: &[bool], quar_pat: &[bool]) {
    let fcm = fcm();
    let observed = cycle(obs_pat, fcm.rule_count());
    let quarantined = cycle(quar_pat, fcm.flow_count());
    let masked = fcm.quarantine(&observed, &quarantined);
    assert_eq!(
        masked.fcm().flow_count() + masked.dropped_flows() + masked.quarantined_flows(),
        fcm.flow_count()
    );
    assert_eq!(
        masked.quarantined_flows(),
        quarantined.iter().filter(|&&q| q).count()
    );
    assert_eq!(masked.parent_columns().len(), masked.fcm().flow_count());
    assert!(masked.parent_columns().windows(2).all(|w| w[0] < w[1]));
    assert!(masked.parent_columns().iter().all(|&j| !quarantined[j]));
    assert!(masked.parent_rows().windows(2).all(|w| w[0] < w[1]));
    assert!(masked.parent_rows().iter().all(|&i| observed[i]));
}

/// The churn-closure soundness property: mask an arbitrary set of
/// "updated" rules, quarantine every flow through them, and also mask
/// the rows quarantined flows still traverse. The remaining sub-system
/// then satisfies `project(H·X) = H'·X'` for **arbitrary** volumes —
/// quarantined traffic cannot reach any surviving row, so benign traffic
/// never inflates residuals on the reconciled system.
pub fn check_churn_closure(touched_pat: &[bool], vol_pat: &[f64]) {
    let fcm = fcm();
    let touched = cycle(touched_pat, fcm.rule_count());
    let volumes = cycle(vol_pat, fcm.flow_count());
    let touched_rules: Vec<_> = fcm
        .rules()
        .iter()
        .zip(&touched)
        .filter(|(_, &t)| t)
        .map(|(&r, _)| r)
        .collect();
    let quarantined = fcm.columns_touching(&touched_rules);
    let closure = fcm.rows_touching(&quarantined);
    let want = reference_closures(&fixture().1, &touched_rules);
    assert_eq!((&quarantined, &closure), (&want.0, &want.1));
    let observed: Vec<bool> = touched
        .iter()
        .zip(&closure)
        .map(|(&t, &c)| !t && !c)
        .collect();
    let masked = fcm.quarantine(&observed, &quarantined);
    assert_projection_round_trips(fcm, &masked, &volumes);
}
