//! Reference constructions the sharded FCM is checked against, shared by
//! `crates/core/tests/shard_props.rs` (256 cases), the workspace-root
//! `tests/theorem_properties.rs` (16 cases, tier-1) and the FatTree(8)
//! stress case in `crates/core/tests/fcm_stress.rs`.
//!
//! * [`assert_slices_follow_the_paper`] — every per-switch shard is the
//!   paper's §IV-B slice: `R(S)` from the switch's RBG
//!   ([`Rbg::slicing_rules`]) in order, and `F(S)` the flows touching it,
//!   restricted to it.
//! * [`assert_matches_full_scan`] — the FCM equals the reference
//!   construction of its view (`support/fcm_reference.rs`), and any
//!   partition's shards equal those of [`full_scan`], the earlier
//!   full-scan `ShardedFcm::from_fcm` body kept verbatim (one flow scan
//!   per region, `HashSet` membership) over that reference, field for
//!   field, sub-FCMs included.

use crate::fcm_reference::{assert_matches, ReferenceFcm};
use foces::rbg::Rbg;
use foces::{Fcm, ShardedFcm};
use foces_atpg::LogicalFlow;
use foces_controlplane::ControllerView;
use foces_dataplane::RuleRef;
use foces_net::{Partition, SwitchId};
use std::collections::{BTreeSet, HashSet};

/// One shard as the full-scan construction builds it.
pub struct Shard {
    pub region: usize,
    pub switches: Vec<SwitchId>,
    pub parent_rows: Vec<usize>,
    pub parent_columns: Vec<usize>,
    pub boundary_columns: Vec<usize>,
    pub sub_fcm: ReferenceFcm,
}

/// The full-scan construction's output.
pub struct FullScan {
    pub parent_rule_count: usize,
    pub shards: Vec<Shard>,
    pub boundary_flows: Vec<usize>,
}

/// The full-scan `ShardedFcm::from_fcm` body, verbatim, over the
/// reference construction.
pub fn full_scan(fcm: &ReferenceFcm, partition: &Partition) -> FullScan {
    let flows = &fcm.flows;
    // Region of each flow position, and the per-flow region span for
    // boundary classification.
    let region_of = |r: &RuleRef| partition.region_of(r.switch);
    let mut is_boundary = vec![false; flows.len()];
    for (j, f) in flows.iter().enumerate() {
        let mut first: Option<usize> = None;
        for rule in &f.rules {
            let reg = region_of(rule);
            match first {
                None => first = Some(reg),
                Some(r0) if r0 != reg => {
                    is_boundary[j] = true;
                    break;
                }
                _ => {}
            }
        }
    }

    let mut shards = Vec::new();
    for (region, members) in partition.regions().iter().enumerate() {
        let member_set: HashSet<SwitchId> = members.iter().copied().collect();
        // R(s): the region's matched rules plus each traversal's
        // predecessor, in first-appearance order (the multi-switch
        // generalization of Rbg::slicing_rules).
        let mut rules: Vec<RuleRef> = Vec::new();
        let mut rule_set: HashSet<RuleRef> = HashSet::new();
        let push = |r: RuleRef, rules: &mut Vec<RuleRef>, set: &mut HashSet<RuleRef>| {
            if set.insert(r) {
                rules.push(r);
            }
        };
        for f in flows {
            for (pos, rule) in f.rules.iter().enumerate() {
                if !member_set.contains(&rule.switch) {
                    continue;
                }
                if pos > 0 {
                    push(f.rules[pos - 1], &mut rules, &mut rule_set);
                }
                push(*rule, &mut rules, &mut rule_set);
            }
        }
        if rules.is_empty() {
            continue;
        }
        // F(s): flows matching at least one rule of R(s), restricted.
        let mut parent_columns = Vec::new();
        let mut boundary_columns = Vec::new();
        let mut sub_flows: Vec<LogicalFlow> = Vec::new();
        for (j, f) in flows.iter().enumerate() {
            if !f.rules.iter().any(|r| rule_set.contains(r)) {
                continue;
            }
            let mut g = f.clone();
            g.rules.retain(|r| rule_set.contains(r));
            g.path.retain(|s| g.rules.iter().any(|r| r.switch == *s));
            parent_columns.push(j);
            if is_boundary[j] {
                boundary_columns.push(j);
            }
            sub_flows.push(g);
        }
        let parent_rows: Vec<usize> = rules.iter().map(|r| fcm.rule_index[r]).collect();
        shards.push(Shard {
            region,
            switches: members.clone(),
            parent_rows,
            parent_columns,
            boundary_columns,
            sub_fcm: ReferenceFcm::from_parts(rules, sub_flows),
        });
    }
    let boundary_flows: Vec<usize> = is_boundary
        .iter()
        .enumerate()
        .filter(|(_, &b)| b)
        .map(|(j, _)| j)
        .collect();
    FullScan {
        parent_rule_count: fcm.rules.len(),
        shards,
        boundary_flows,
    }
}

/// Asserts `fcm` is the reference construction of `view`, and `sharded`
/// (built from `fcm`) the full-scan construction over `partition`:
/// region, switches, parent rows and columns, boundary columns, and the
/// sub-FCM, shard by shard.
pub fn assert_matches_full_scan(
    fcm: &Fcm,
    view: &ControllerView,
    partition: &Partition,
    sharded: &ShardedFcm,
) {
    let traced = ReferenceFcm::traced(view);
    assert_matches(fcm, &traced, "parent FCM");
    let reference = full_scan(&traced, partition);
    assert_eq!(sharded.parent_rule_count(), reference.parent_rule_count);
    assert_eq!(
        sharded.boundary_flows(),
        reference.boundary_flows.as_slice()
    );
    let views = sharded.shard_views();
    assert_eq!(views.len(), reference.shards.len(), "shard count");
    for (view, want) in views.iter().zip(&reference.shards) {
        let region = want.region;
        assert_eq!(view.region, region);
        assert_eq!(view.switches, want.switches.as_slice(), "region {region}");
        assert_eq!(
            view.parent_rows,
            want.parent_rows.as_slice(),
            "region {region}"
        );
        assert_eq!(
            view.parent_columns,
            want.parent_columns.as_slice(),
            "region {region}"
        );
        assert_eq!(
            view.boundary_columns,
            want.boundary_columns.as_slice(),
            "region {region}"
        );
        assert_matches(view.sub_fcm, &want.sub_fcm, &format!("region {region}"));
    }
}

/// Asserts every shard of a per-switch `sharded` is the paper's slice of
/// its switch, and that exactly the switches with a non-empty slice have a
/// shard, in ascending order.
pub fn assert_slices_follow_the_paper(fcm: &Fcm, sharded: &ShardedFcm) {
    let owned = fcm.histories();
    let histories: Vec<&[RuleRef]> = owned.iter().map(Vec::as_slice).collect();
    let switches: BTreeSet<SwitchId> = fcm.rules().iter().map(|r| r.switch).collect();
    let mut views = sharded.shard_views().into_iter();
    for s in switches {
        let rules = Rbg::build(s, &histories).slicing_rules();
        if rules.is_empty() {
            continue;
        }
        let view = views.next().expect("one shard per non-empty slice");
        assert_eq!(view.switches, [s].as_slice());
        assert_eq!(view.sub_fcm.rules(), rules.as_slice(), "{s:?}: R(S)");
        let rows: Vec<usize> = rules.iter().map(|r| fcm.rule_row(*r).unwrap()).collect();
        assert_eq!(view.parent_rows, rows.as_slice(), "{s:?}: parent rows");
        let (columns, restricted): (Vec<usize>, Vec<Vec<RuleRef>>) = owned
            .iter()
            .enumerate()
            .filter(|(_, h)| h.iter().any(|r| rules.contains(r)))
            .map(|(j, h)| (j, h.iter().copied().filter(|r| rules.contains(r)).collect()))
            .unzip();
        assert_eq!(view.parent_columns, columns.as_slice(), "{s:?}: F(S)");
        assert_eq!(
            view.sub_fcm.histories(),
            restricted,
            "{s:?}: restricted columns"
        );
    }
    assert!(views.next().is_none(), "a shard without a paper slice");
}
