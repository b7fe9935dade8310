//! An FCM reference independent of [`Fcm`]'s own construction, shared by
//! `crates/core/tests/patch_props.rs`, `shard_props.rs`, `mask_props.rs`
//! and the workspace-root `tests/fcm_patch.rs` and
//! `tests/theorem_properties.rs`.
//!
//! [`ReferenceFcm`] keeps one [`LogicalFlow`] per column, as the FCM did
//! before it stored its columns flat: [`ReferenceFcm::from_parts`] is that
//! `Fcm::from_parts` body (triplets through the rule map), and
//! [`ReferenceFcm::column_groups`] that `BasisSystem::build` grouping,
//! both verbatim. [`assert_matches`] checks an [`Fcm`] against one: rules,
//! CSR, every column's flow (ingress, egress, header, rules and path) and
//! the basis groups.

use foces::Fcm;
use foces_atpg::{trace_flows, LogicalFlow};
use foces_controlplane::ControllerView;
use foces_dataplane::RuleRef;
use foces_linalg::{CsrMatrix, Triplet};
use std::collections::HashMap;

/// An FCM as rules, a rule map, one [`LogicalFlow`] per column and the
/// CSR built from them.
pub struct ReferenceFcm {
    pub rules: Vec<RuleRef>,
    pub rule_index: HashMap<RuleRef, usize>,
    pub flows: Vec<LogicalFlow>,
    pub sparse: CsrMatrix,
}

impl ReferenceFcm {
    /// The full trace of `view`: the FCM [`Fcm::from_view`] and every
    /// [`Fcm::patched`] generation must equal.
    pub fn traced(view: &ControllerView) -> Self {
        ReferenceFcm::from_parts(view.rule_refs().collect(), trace_flows(view))
    }

    /// The earlier `Fcm::from_parts` body, verbatim.
    pub fn from_parts(rules: Vec<RuleRef>, flows: Vec<LogicalFlow>) -> Self {
        let rule_index: HashMap<RuleRef, usize> =
            rules.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        let m = rules.len();
        let n = flows.len();
        let mut triplets = Vec::new();
        for (j, f) in flows.iter().enumerate() {
            for r in &f.rules {
                let i = *rule_index
                    .get(r)
                    .unwrap_or_else(|| panic!("flow references unknown rule {r}"));
                triplets.push(Triplet {
                    row: i,
                    col: j,
                    value: 1.0,
                });
            }
        }
        let sparse =
            CsrMatrix::from_triplets(m, n, &triplets).expect("indices bounded by construction");
        ReferenceFcm {
            rules,
            rule_index,
            flows,
            sparse,
        }
    }

    /// The earlier `BasisSystem::build` grouping, verbatim: `(basis,
    /// group_of)`.
    pub fn column_groups(&self) -> (Vec<usize>, Vec<usize>) {
        let mut seen: HashMap<Vec<usize>, usize> = HashMap::new();
        let mut basis = Vec::new();
        let mut group_of = Vec::with_capacity(self.flows.len());
        for (j, f) in self.flows.iter().enumerate() {
            let mut key: Vec<usize> = f.rules.iter().map(|r| self.rule_index[r]).collect();
            key.sort_unstable();
            let g = *seen.entry(key).or_insert_with(|| {
                basis.push(j);
                basis.len() - 1
            });
            group_of.push(g);
        }
        (basis, group_of)
    }
}

/// Asserts `fcm` equals `reference`: rules, CSR, each column's flow and
/// the basis groups.
pub fn assert_matches(fcm: &Fcm, reference: &ReferenceFcm, at: &str) {
    assert_eq!(fcm.rules(), reference.rules.as_slice(), "{at}: rules");
    assert!(fcm.sparse() == &reference.sparse, "{at}: CSR");
    assert_eq!(fcm.flow_count(), reference.flows.len(), "{at}: flow count");
    for (j, want) in reference.flows.iter().enumerate() {
        assert_eq!(&fcm.flow(j), want, "{at}: flow {j}");
    }
    let groups = fcm.column_groups();
    let (basis, group_of) = reference.column_groups();
    assert_eq!(groups.basis, basis, "{at}: basis");
    assert_eq!(groups.group_of, group_of, "{at}: groups");
}
