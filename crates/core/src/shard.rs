//! Region-sharded FCMs with explicit boundary flows — the matrix layer of
//! the cluster subsystem, and the one constructor of sub-FCMs.
//!
//! A cluster deployment cuts the FCM per *region shard*
//! ([`foces_net::Partition`]), so that one worker can own each region
//! with its own warm factorization. [`ShardedFcm`] generalizes the
//! paper's §IV-B slicing from a single switch to a switch set; the
//! per-switch partition is the paper's slicing, and
//! [`SlicedFcm`](crate::SlicedFcm) is exactly that:
//!
//! * **Shard rule set** `R(s)` — the rules on the region's switches plus,
//!   for every traversal, the immediately preceding rule in that flow's
//!   history (the region-level RBG closure: per switch it is
//!   [`Rbg::slicing_rules`](crate::rbg::Rbg::slicing_rules), the same
//!   rules in the same order).
//! * **Shard flow set** `F(s)` — every flow matching at least one rule of
//!   `R(s)`, its column restricted to the `R(s)` rows.
//! * **Boundary flows** — flows whose rule history spans more than one
//!   region. A boundary flow contributes its rows to *every* shard it
//!   traverses; no shard sees a truncated picture of the rows it owns.
//!
//! # Why the shard-union verdict is sound
//!
//! Because `F(s)` contains every flow matching any rule of `R(s)`, the
//! shard system `H(s)·X(s) = Y(s)` is exactly the **row projection** of
//! the global system onto `R(s)` (zero columns dropped): each retained row
//! keeps *all* the columns that touch it. Consequently, with noiseless
//! counters:
//!
//! * a consistent global system projects to a consistent system in every
//!   shard — healthy traffic can never make a shard alarm; and
//! * an inconsistent shard system certifies the global system inconsistent
//!   — a shard alarm is never a phantom.
//!
//! This is the same projection argument the row-mask machinery
//! ([`crate::Fcm::mask_rows`]) is built on, and it is pinned by the
//! 256-case property tests in `crates/core/tests/shard_props.rs`, which
//! check the union verdict against the global [`Detector::detect`], the
//! per-switch shards against the paper's RBG slices, and edge-cut shards
//! against a full-scan reference construction.

use crate::{Detector, Fcm, FocesError, Verdict};
use foces_net::{Partition, SwitchId};
use std::fmt;

/// One region shard: the sub-FCM over the region's closed rule set and the
/// flows touching it.
#[derive(Debug, Clone)]
struct Shard {
    /// Region index in the source [`Partition`].
    region: usize,
    /// The region's member switches (ascending).
    switches: Vec<SwitchId>,
    /// Row indices into the parent FCM for the shard's rules.
    parent_rows: Vec<usize>,
    /// Column indices into the parent FCM for the shard's flows.
    parent_columns: Vec<usize>,
    /// Subset of `parent_columns` that are boundary flows.
    boundary_columns: Vec<usize>,
    /// The shard's sub-FCM `H(s)`.
    sub_fcm: Fcm,
}

/// The region-sharded flow-counter matrix (see module docs).
#[derive(Debug, Clone)]
pub struct ShardedFcm {
    parent_rule_count: usize,
    shards: Vec<Shard>,
    /// Parent column indices of flows crossing region boundaries, ascending.
    boundary_flows: Vec<usize>,
}

/// Outcome of one sharded detection round: the union of all shard
/// verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardUnionVerdict {
    /// `true` iff any shard flagged an anomaly.
    pub anomalous: bool,
    /// Per-shard verdicts, in shard (ascending region) order.
    pub per_shard: Vec<(usize, Verdict)>,
}

impl ShardUnionVerdict {
    /// The largest per-shard anomaly index (0 with no shards).
    pub fn max_anomaly_index(&self) -> f64 {
        self.per_shard
            .iter()
            .map(|(_, v)| v.anomaly_index)
            .fold(0.0, f64::max)
    }

    /// Regions whose shard exceeded the threshold.
    pub fn flagged_regions(&self) -> Vec<usize> {
        self.per_shard
            .iter()
            .filter(|(_, v)| v.anomalous)
            .map(|(r, _)| *r)
            .collect()
    }
}

impl fmt::Display for ShardUnionVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} shards, max AI = {:.2}, flagged regions: {:?})",
            if self.anomalous { "ANOMALY" } else { "normal" },
            self.per_shard.len(),
            self.max_anomaly_index(),
            self.flagged_regions()
        )
    }
}

impl ShardedFcm {
    /// Builds one shard per partition region. Regions none of whose rules
    /// are matched by any flow are skipped; the surviving shards keep their
    /// original region indices. This is the only construction of sub-FCMs:
    /// [`SlicedFcm`](crate::SlicedFcm) is this over
    /// [`Partition::per_switch`].
    ///
    /// One pass over the FCM's columns lists each region's history
    /// positions, already in flow order; a region then reads its rules off
    /// its list and its columns off the CSR rows of those rules, and
    /// copies those columns through a row mark, so no region scans the
    /// flows it does not touch and no flow is rebuilt.
    pub fn from_fcm(fcm: &Fcm, partition: &Partition) -> Self {
        let n = fcm.flow_count();
        let region_of_row: Vec<usize> = fcm
            .rules()
            .iter()
            .map(|r| partition.region_of(r.switch))
            .collect();
        // Each region's `(flow, position)` occurrences.
        let mut occurrences = vec![Vec::new(); partition.region_count()];
        let mut is_boundary = vec![false; n];
        for (j, boundary) in is_boundary.iter_mut().enumerate() {
            let rows = fcm.flow_rows(j);
            let home = rows.first().map(|&i| region_of_row[i]);
            for (pos, &i) in rows.iter().enumerate() {
                let region = region_of_row[i];
                occurrences[region].push((j, pos));
                *boundary |= Some(region) != home;
            }
        }

        // `sub_row` marks a region's R(s) rows with their shard row and is
        // cleared after each region; `column_mark` stamps F(s) columns with
        // the region index, never cleared.
        let mut sub_row = vec![usize::MAX; fcm.rule_count()];
        let mut column_mark = vec![usize::MAX; n];
        let mut shards = Vec::new();
        for (region, occurring) in occurrences.iter().enumerate() {
            // R(s): each traversal's predecessor, then the region's rule,
            // first appearance kept — the region-level RBG closure of
            // Rbg::slicing_rules.
            let mut parent_rows = Vec::new();
            let mut keep = |row: usize| {
                if sub_row[row] == usize::MAX {
                    sub_row[row] = parent_rows.len();
                    parent_rows.push(row);
                }
            };
            for &(j, pos) in occurring {
                let rows = fcm.flow_rows(j);
                if pos > 0 {
                    keep(rows[pos - 1]);
                }
                keep(rows[pos]);
            }
            if parent_rows.is_empty() {
                continue;
            }
            // F(s): every flow matching a rule of R(s), ascending, its
            // history restricted to R(s).
            let mut parent_columns = Vec::new();
            for &row in &parent_rows {
                for (j, _) in fcm.sparse().row_iter(row) {
                    if column_mark[j] != region {
                        column_mark[j] = region;
                        parent_columns.push(j);
                    }
                }
            }
            parent_columns.sort_unstable();
            let sub_fcm = fcm.restrict(&parent_rows, &sub_row, &parent_columns);
            for &row in &parent_rows {
                sub_row[row] = usize::MAX;
            }
            let boundary_columns = parent_columns
                .iter()
                .copied()
                .filter(|&j| is_boundary[j])
                .collect();
            shards.push(Shard {
                region,
                switches: partition.region(region).to_vec(),
                parent_rows,
                parent_columns,
                boundary_columns,
                sub_fcm,
            });
        }
        ShardedFcm {
            parent_rule_count: fcm.rule_count(),
            shards,
            boundary_flows: (0..n).filter(|&j| is_boundary[j]).collect(),
        }
    }

    /// Number of (non-empty) shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The parent FCM's rule count (the expected counter-vector length).
    pub fn parent_rule_count(&self) -> usize {
        self.parent_rule_count
    }

    /// Parent column indices of flows crossing region boundaries,
    /// ascending.
    pub fn boundary_flows(&self) -> &[usize] {
        &self.boundary_flows
    }

    /// Dimensions `(region, rules, flows)` of each shard's sub-FCM.
    pub fn shard_dims(&self) -> Vec<(usize, usize, usize)> {
        self.shards
            .iter()
            .map(|s| (s.region, s.sub_fcm.rule_count(), s.sub_fcm.flow_count()))
            .collect()
    }

    /// Borrowed views of the shards, in ascending region order — the unit
    /// of work for the cluster worker pool: each view carries everything
    /// needed to solve one shard independently.
    pub fn shard_views(&self) -> Vec<ShardView<'_>> {
        self.shards
            .iter()
            .map(|s| ShardView {
                region: s.region,
                switches: &s.switches,
                parent_rows: &s.parent_rows,
                parent_columns: &s.parent_columns,
                boundary_columns: &s.boundary_columns,
                sub_fcm: &s.sub_fcm,
            })
            .collect()
    }

    /// Factors, for `backend` ([`crate::BasisSystem::factor_for`]), every
    /// shard's sub-FCM whose basis has at most `max_cols` columns, so that
    /// the coverage rank probe and each shard's first solve read one
    /// memoized factor instead of each factoring it. A driver passes the
    /// coverage [`basis_limit`](crate::CoverageConfig::basis_limit) to
    /// memoize only the shards the probe factors, or `usize::MAX` for all.
    pub fn memoize_factors(&self, backend: crate::BackendKind, max_cols: usize) {
        for shard in &self.shards {
            let system = shard.sub_fcm.basis_system();
            if system.cols() <= max_cols {
                system.factor_for(backend);
            }
        }
    }

    /// Runs the detector on every shard with its sub counter vector and
    /// unions the verdicts (the sequential reference the worker pool is
    /// checked against).
    ///
    /// # Errors
    ///
    /// * [`FocesError::CounterLengthMismatch`] if `counters` does not match
    ///   the parent FCM's rule count;
    /// * solver errors from any shard, in shard order.
    pub fn detect(
        &self,
        detector: &Detector,
        counters: &[f64],
    ) -> Result<ShardUnionVerdict, FocesError> {
        if counters.len() != self.parent_rule_count {
            return Err(FocesError::CounterLengthMismatch {
                got: counters.len(),
                expected: self.parent_rule_count,
            });
        }
        let mut per_shard = Vec::with_capacity(self.shards.len());
        let mut anomalous = false;
        for view in self.shard_views() {
            let verdict = view.detect(detector, counters)?;
            anomalous |= verdict.anomalous;
            per_shard.push((view.region, verdict));
        }
        Ok(ShardUnionVerdict {
            anomalous,
            per_shard,
        })
    }

    /// The boundary-flow reconciliation check: every boundary flow must
    /// appear in **each** shard whose region its history touches, and the
    /// union of its restricted histories across shards must reproduce its
    /// full global rule set. Returns the number of boundary flows checked.
    ///
    /// This is cheap — one merge of the boundary flows with each shard's
    /// columns finds their holders, then one stamp pass per flow over its
    /// history, no solves — and is asserted at construction time by the
    /// property suite; the cluster coordinator runs it once, as a
    /// structural self-check when its service is built.
    ///
    /// # Errors
    ///
    /// [`FocesError::ShardReconciliation`] naming the first flow whose
    /// shard columns fail to cover its global column.
    pub fn reconcile_boundaries(
        &self,
        fcm: &Fcm,
        partition: &Partition,
    ) -> Result<usize, FocesError> {
        let mut shard_of_region = vec![usize::MAX; partition.region_count()];
        for (s, shard) in self.shards.iter().enumerate() {
            shard_of_region[shard.region] = s;
        }
        // Boundary flows and each shard's columns ascend, so one cursor per
        // shard finds each flow's column in it, if any (`holder`).
        let mut cursor = vec![0; self.shards.len()];
        let mut holder = vec![None; self.shards.len()];
        // `covered[i] == j` once a holder's restricted history of flow `j`
        // holds row `i`.
        let mut covered = vec![usize::MAX; fcm.rule_count()];
        for &j in &self.boundary_flows {
            for (s, shard) in self.shards.iter().enumerate() {
                let columns = &shard.parent_columns;
                while columns.get(cursor[s]).is_some_and(|&c| c < j) {
                    cursor[s] += 1;
                }
                holder[s] = (columns.get(cursor[s]) == Some(&j)).then_some(cursor[s]);
            }
            let rows = fcm.flow_rows(j);
            let missing = rows
                .iter()
                .map(|&i| shard_of_region[partition.region_of(fcm.rules()[i].switch)])
                .filter(|&s| s != usize::MAX && holder[s].is_none())
                .min();
            if let Some(s) = missing {
                return Err(FocesError::ShardReconciliation {
                    flow: j,
                    region: self.shards[s].region,
                    detail: "boundary flow missing from a shard its path traverses",
                });
            }
            for (shard, &k) in self.shards.iter().zip(&holder) {
                for &r in k.map_or(&[][..], |k| shard.sub_fcm.flow_rows(k)) {
                    covered[shard.parent_rows[r]] = j;
                }
            }
            if rows.iter().any(|&i| covered[i] != j) {
                return Err(FocesError::ShardReconciliation {
                    flow: j,
                    region: usize::MAX,
                    detail: "shard-restricted histories do not cover the global column",
                });
            }
        }
        Ok(self.boundary_flows.len())
    }
}

/// A borrowed view of one shard (see [`ShardedFcm::shard_views`]).
#[derive(Debug, Clone, Copy)]
pub struct ShardView<'a> {
    /// Region index in the source partition.
    pub region: usize,
    /// The region's member switches.
    pub switches: &'a [SwitchId],
    /// Row indices into the parent FCM for the shard's rules.
    pub parent_rows: &'a [usize],
    /// Column indices into the parent FCM for the shard's flows.
    pub parent_columns: &'a [usize],
    /// Parent columns of boundary flows present in this shard.
    pub boundary_columns: &'a [usize],
    /// The shard's sub-FCM `H(s)`.
    pub sub_fcm: &'a Fcm,
}

impl ShardView<'_> {
    /// Extracts this shard's sub counter vector `Y(s)` from the full
    /// vector.
    ///
    /// # Panics
    ///
    /// Panics if `counters` is shorter than the parent FCM's rule count
    /// (callers validate once against [`ShardedFcm::parent_rule_count`]).
    pub fn sub_counters(&self, counters: &[f64]) -> Vec<f64> {
        self.parent_rows.iter().map(|&i| counters[i]).collect()
    }

    /// Runs the detector on this shard's sub-system.
    ///
    /// # Errors
    ///
    /// Solver errors from the shard solve.
    pub fn detect(&self, detector: &Detector, counters: &[f64]) -> Result<Verdict, FocesError> {
        detector.detect(self.sub_fcm, &self.sub_counters(counters))
    }

    /// Runs the detector through a per-shard warm
    /// [`IncrementalSolver`](crate::IncrementalSolver), solving on the
    /// shard sub-FCM's memoized factor — the solve path each cluster
    /// worker takes.
    ///
    /// # Errors
    ///
    /// As for [`ShardView::detect`].
    pub fn detect_warm(
        &self,
        detector: &Detector,
        counters: &[f64],
        warm: &mut crate::IncrementalSolver,
    ) -> Result<(Verdict, crate::SolvePath), FocesError> {
        detector.detect_warm(self.sub_fcm, &self.sub_counters(counters), warm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rbg::Rbg;
    use crate::DEFAULT_THRESHOLD;
    use foces_controlplane::{provision, uniform_flows, RuleGranularity};
    use foces_dataplane::{inject_random_anomaly, AnomalyKind, LossModel, RuleRef};
    use foces_net::generators::{bcube, fattree};
    use foces_net::{partition, PartitionSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn setup(
        topo: foces_net::Topology,
        spec: PartitionSpec,
    ) -> (Fcm, Partition, ShardedFcm, foces_controlplane::Deployment) {
        let flows = uniform_flows(&topo, topo.host_count() as f64 * 15_000.0);
        let part = partition(&topo, spec);
        let dep = provision(topo, &flows, RuleGranularity::PerDestination).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        let sharded = ShardedFcm::from_fcm(&fcm, &part);
        (fcm, part, sharded, dep)
    }

    #[test]
    fn per_switch_mode_reproduces_slicing_exactly() {
        // Each per-switch shard is the paper's slice: R(S) from the
        // switch's RBG, in order, and every flow touching R(S), restricted
        // to it.
        let (fcm, _, sharded, _) = setup(bcube(1, 4), PartitionSpec::PerSwitch);
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
            assert_eq!(view.sub_fcm.rules(), rules.as_slice());
            let rows: Vec<usize> = rules.iter().map(|r| fcm.rule_row(*r).unwrap()).collect();
            assert_eq!(view.parent_rows, rows.as_slice());
            let (columns, restricted): (Vec<usize>, Vec<Vec<RuleRef>>) = owned
                .iter()
                .enumerate()
                .filter(|(_, h)| h.iter().any(|r| rules.contains(r)))
                .map(|(j, h)| (j, h.iter().copied().filter(|r| rules.contains(r)).collect()))
                .unzip();
            assert_eq!(view.parent_columns, columns.as_slice());
            assert_eq!(view.sub_fcm.histories(), restricted);
        }
        assert!(views.next().is_none(), "no shard without a paper slice");
    }

    #[test]
    fn healthy_network_not_flagged_by_any_shard() {
        for k in [1, 3, 6] {
            let (_, _, sharded, mut dep) = setup(bcube(1, 4), PartitionSpec::EdgeCut { k });
            dep.replay_traffic(&mut LossModel::none());
            let counters = dep.dataplane.collect_counters();
            let v = sharded.detect(&Detector::default(), &counters).unwrap();
            assert!(!v.anomalous, "k={k}: {v}");
        }
    }

    #[test]
    fn shard_union_flags_what_global_flags() {
        let detector = Detector::with_threshold(DEFAULT_THRESHOLD);
        for seed in 0..8 {
            let (fcm, _, sharded, mut dep) = setup(bcube(1, 4), PartitionSpec::EdgeCut { k: 4 });
            let mut rng = StdRng::seed_from_u64(seed);
            inject_random_anomaly(
                &mut dep.dataplane,
                AnomalyKind::PathDeviation,
                &mut rng,
                &[],
            )
            .unwrap();
            dep.replay_traffic(&mut LossModel::none());
            let counters = dep.dataplane.collect_counters();
            let global = detector.detect(&fcm, &counters).unwrap();
            let union = sharded.detect(&detector, &counters).unwrap();
            if global.anomalous {
                assert!(union.anomalous, "seed {seed}: global flagged, union missed");
            }
        }
    }

    #[test]
    fn boundary_flows_reconcile() {
        for k in [2, 4, 8] {
            let (fcm, part, sharded, _) = setup(fattree(4), PartitionSpec::EdgeCut { k });
            let checked = sharded.reconcile_boundaries(&fcm, &part).unwrap();
            assert!(checked > 0, "k={k}: a fat-tree must have boundary flows");
            // Every boundary flow sits in at least two shards.
            let views = sharded.shard_views();
            for &j in sharded.boundary_flows() {
                let holders = views
                    .iter()
                    .filter(|v| v.parent_columns.binary_search(&j).is_ok())
                    .count();
                assert!(holders >= 2, "boundary flow {j} held by {holders} shards");
            }
        }
    }

    /// `sharded` with column `j` of its shard at `region` rebuilt by
    /// `edit`, or dropped from that shard when `edit` returns `None`.
    fn corrupt(
        sharded: &ShardedFcm,
        region: usize,
        j: usize,
        edit: impl FnOnce(foces_atpg::LogicalFlow) -> Option<foces_atpg::LogicalFlow>,
    ) -> ShardedFcm {
        let mut out = sharded.clone();
        let shard = out.shards.iter_mut().find(|s| s.region == region).unwrap();
        let k = shard.parent_columns.binary_search(&j).unwrap();
        let sub = &shard.sub_fcm;
        let mut flows: Vec<_> = (0..sub.flow_count()).map(|c| sub.flow(c)).collect();
        match edit(flows[k].clone()) {
            Some(f) => flows[k] = f,
            None => {
                flows.remove(k);
                shard.parent_columns.remove(k);
                shard.boundary_columns.retain(|&b| b != j);
            }
        }
        shard.sub_fcm = Fcm::from_parts(sub.rules().to_vec(), flows);
        out
    }

    #[test]
    fn reconciliation_names_the_first_flow_a_corrupted_shard_fails() {
        let (fcm, part, sharded, _) = setup(fattree(4), PartitionSpec::EdgeCut { k: 4 });
        let region_at = |j: usize, pos: usize| part.region_of(fcm.flow(j).path[pos]);
        let boundary = sharded.boundary_flows();

        // Dropping two boundary flows from the shard of their first hop's
        // region: the lower flow index is named, with that region.
        let (a, b) = (boundary[1], boundary[3]);
        let dropped = corrupt(&sharded, region_at(b, 0), b, |_| None);
        let dropped = corrupt(&dropped, region_at(a, 0), a, |_| None);
        assert_eq!(
            dropped.reconcile_boundaries(&fcm, &part),
            Err(FocesError::ShardReconciliation {
                flow: a,
                region: region_at(a, 0),
                detail: "boundary flow missing from a shard its path traverses",
            })
        );

        // Truncating a restricted history by the flow's last rule, which
        // only its egress region's shard holds: no shard covers it.
        let c = boundary[2];
        let last = fcm.flow_rows(c).len() - 1;
        let truncated = corrupt(&sharded, region_at(c, last), c, |mut f| {
            f.rules.pop();
            Some(f)
        });
        assert_eq!(
            truncated.reconcile_boundaries(&fcm, &part),
            Err(FocesError::ShardReconciliation {
                flow: c,
                region: usize::MAX,
                detail: "shard-restricted histories do not cover the global column",
            })
        );
    }

    #[test]
    fn single_region_shard_is_the_global_system() {
        let (fcm, _, sharded, mut dep) = setup(bcube(1, 4), PartitionSpec::EdgeCut { k: 1 });
        assert_eq!(sharded.shard_count(), 1);
        assert!(sharded.boundary_flows().is_empty());
        let dims = sharded.shard_dims();
        // All matched rules and all flows in the one shard.
        assert_eq!(dims[0].2, fcm.flow_count());
        dep.replay_traffic(&mut LossModel::none());
        let counters = dep.dataplane.collect_counters();
        let v = sharded.detect(&Detector::default(), &counters).unwrap();
        assert!(!v.anomalous);
    }

    #[test]
    fn counter_length_validated() {
        let (_, _, sharded, _) = setup(bcube(1, 4), PartitionSpec::EdgeCut { k: 2 });
        let err = sharded
            .detect(&Detector::default(), &[1.0, 2.0])
            .unwrap_err();
        assert!(matches!(err, FocesError::CounterLengthMismatch { .. }));
    }

    #[test]
    fn shard_views_reproduce_detect() {
        let (_, _, sharded, mut dep) = setup(bcube(1, 4), PartitionSpec::EdgeCut { k: 3 });
        dep.replay_traffic(&mut LossModel::none());
        let counters = dep.dataplane.collect_counters();
        let detector = Detector::default();
        let whole = sharded.detect(&detector, &counters).unwrap();
        for (view, (region, verdict)) in sharded.shard_views().iter().zip(&whole.per_shard) {
            assert_eq!(view.region, *region);
            assert_eq!(view.detect(&detector, &counters).unwrap(), *verdict);
        }
    }

    #[test]
    fn warm_shard_solves_match_cold() {
        let (_, _, sharded, mut dep) = setup(bcube(1, 4), PartitionSpec::EdgeCut { k: 4 });
        let detector = Detector::default();
        let views = sharded.shard_views();
        let mut solvers: Vec<crate::IncrementalSolver> = views
            .iter()
            .map(|_| crate::IncrementalSolver::default())
            .collect();
        for epoch in 0..3 {
            dep.dataplane.reset_counters();
            dep.replay_traffic(&mut LossModel::none());
            let counters = dep.dataplane.collect_counters();
            for (view, solver) in views.iter().zip(&mut solvers) {
                let (warm_v, path) = view.detect_warm(&detector, &counters, solver).unwrap();
                let cold_v = view.detect(&detector, &counters).unwrap();
                assert_eq!(warm_v.anomalous, cold_v.anomalous);
                if epoch > 0 {
                    assert!(
                        path.is_warm(),
                        "epoch {epoch} region {}: {path}",
                        view.region
                    );
                }
            }
        }
    }

    #[test]
    fn display_mentions_shards() {
        let (_, _, sharded, mut dep) = setup(bcube(1, 4), PartitionSpec::EdgeCut { k: 2 });
        dep.replay_traffic(&mut LossModel::none());
        let counters = dep.dataplane.collect_counters();
        let v = sharded.detect(&Detector::default(), &counters).unwrap();
        assert!(v.to_string().contains("shards"));
    }
}
