use foces_atpg::{trace_flows, LogicalFlow};
use foces_controlplane::ControllerView;
use foces_dataplane::RuleRef;
use foces_linalg::{CsrMatrix, DenseMatrix, Triplet};
use std::collections::HashMap;
use std::fmt;

/// The Flow-Counter Matrix (paper Eq. 1): `H[i][j] = 1` iff logical flow
/// `j` traverses rule `i`.
///
/// Rows are indexed by [`RuleRef`] in canonical (switch-major, table-index)
/// order — the same order [`foces_dataplane::DataPlane::collect_counters`]
/// reports counters in, so a collected counter vector lines up with the FCM
/// rows with no further bookkeeping.
///
/// The matrix is stored in CSR form — real FCMs are enormous but have one
/// nonzero per hop per flow, far below 1 % density — and densified only on
/// demand ([`Fcm::dense`]) for small test instances. Construction from a controller view runs the ATPG tracer
/// ([`foces_atpg::trace_flows`]) to enumerate logical flows.
///
/// # Example
///
/// ```
/// use foces::Fcm;
/// use foces_controlplane::{provision, uniform_flows, RuleGranularity};
/// use foces_net::generators::fattree;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topo = fattree(4);
/// let flows = uniform_flows(&topo, 240.0);
/// let dep = provision(topo, &flows, RuleGranularity::PerDestination)?;
/// let fcm = Fcm::from_view(&dep.view);
/// assert_eq!(fcm.flow_count(), 240);
/// assert_eq!(fcm.rule_count(), dep.view.rule_count());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Fcm {
    rules: Vec<RuleRef>,
    rule_index: HashMap<RuleRef, usize>,
    flows: Vec<LogicalFlow>,
    sparse: CsrMatrix,
}

impl Fcm {
    /// Builds the FCM for a controller view: enumerates the view's logical
    /// flows via ATPG symbolic traversal and populates one column per flow.
    pub fn from_view(view: &ControllerView) -> Self {
        let rules: Vec<RuleRef> = view.rule_refs().collect();
        let flows = trace_flows(view);
        Fcm::from_parts(rules, flows)
    }

    /// Builds the FCM from explicit parts: a rule universe (row order) and
    /// the logical flows (columns). Exposed for tests and for callers that
    /// already traced flows.
    ///
    /// # Panics
    ///
    /// Panics if a flow references a rule not present in `rules` — flows
    /// must come from the same view as the rule universe.
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
        Fcm {
            rules,
            rule_index,
            flows,
            sparse,
        }
    }

    /// Number of rules (rows).
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Number of logical flows (columns).
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// The rule universe in row order.
    pub fn rules(&self) -> &[RuleRef] {
        &self.rules
    }

    /// The logical flows in column order.
    pub fn flows(&self) -> &[LogicalFlow] {
        &self.flows
    }

    /// Row index of a rule, if it is part of this FCM.
    pub fn rule_row(&self, r: RuleRef) -> Option<usize> {
        self.rule_index.get(&r).copied()
    }

    /// Materializes the FCM densely (rules × flows). The matrix is kept in
    /// CSR form internally — real FCMs are huge but sparse — so this is an
    /// O(rules·flows) conversion intended for small/test instances (the
    /// dense rank reference the sparse [`crate::SpanOracle`] is tested
    /// against), not for the per-round solver path.
    pub fn dense(&self) -> DenseMatrix {
        self.sparse.to_dense()
    }

    /// The sparse (CSR) matrix.
    pub fn sparse(&self) -> &CsrMatrix {
        &self.sparse
    }

    /// The column of flow `j` as a dense vector.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn column(&self, j: usize) -> Vec<f64> {
        let mut col = vec![0.0; self.rule_count()];
        for r in &self.flows[j].rules {
            col[self.rule_index[r]] = 1.0;
        }
        col
    }

    /// Indices of columns forming a **deduplicated column basis**: the first
    /// occurrence of every distinct column. With per-destination rule
    /// aggregation, two hosts on the same edge switch sending to the same
    /// destination traverse identical rule sets, giving identical FCM
    /// columns; the least-squares projection only depends on the column
    /// *space*, so the solver works on this basis (see
    /// [`crate::EquationSystem`]).
    pub fn unique_column_basis(&self) -> Vec<usize> {
        let mut seen: HashMap<Vec<usize>, usize> = HashMap::new();
        let mut basis = Vec::new();
        for (j, f) in self.flows.iter().enumerate() {
            let mut key: Vec<usize> = f.rules.iter().map(|r| self.rule_index[r]).collect();
            key.sort_unstable();
            if seen.insert(key, j).is_none() {
                basis.push(j);
            }
        }
        basis
    }

    /// Groups columns by identical rule sets: `basis[g]` is the first
    /// column of group `g`, and `group_of[j]` maps every column to its
    /// group. Used by the solver to work on a duplicate-free column basis.
    pub fn column_groups(&self) -> ColumnGroups {
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
        ColumnGroups { basis, group_of }
    }

    /// Expected counter vector `Y₀ = H·X` for given flow volumes.
    ///
    /// # Panics
    ///
    /// Panics if `volumes.len() != flow_count()`.
    pub fn expected_counters(&self, volumes: &[f64]) -> Vec<f64> {
        self.sparse
            .matvec(volumes)
            .expect("volume vector length checked by caller")
    }

    /// The number of nonzero entries (total rule traversals).
    pub fn nnz(&self) -> usize {
        self.sparse.nnz()
    }

    /// Appends logical flows as new columns — the incremental path for
    /// reactive rule installation (paper §II-A: "rules can also be
    /// installed reactively when a new flow comes into the network").
    /// Rebuilds the sparse form once, so batch additions where possible.
    ///
    /// # Panics
    ///
    /// Panics if a flow references a rule outside the universe; call
    /// [`Fcm::extend_rules`] first for rules the controller just installed.
    pub fn add_flows(&mut self, flows: Vec<LogicalFlow>) {
        for f in &flows {
            for r in &f.rules {
                assert!(
                    self.rule_index.contains_key(r),
                    "flow references unknown rule {r}; extend_rules first"
                );
            }
        }
        self.flows.extend(flows);
        self.rebuild_sparse();
    }

    /// Removes the flows at the given column indices (e.g. reactive flows
    /// that timed out), returning them in the order given. Remaining
    /// columns keep their relative order; installed rules stay in the
    /// universe (their counters simply go quiet).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or repeated.
    pub fn remove_flows(&mut self, indices: &[usize]) -> Vec<LogicalFlow> {
        let mut marked = vec![false; self.flows.len()];
        for &i in indices {
            assert!(i < self.flows.len(), "flow index {i} out of range");
            assert!(!marked[i], "flow index {i} repeated");
            marked[i] = true;
        }
        let mut removed = Vec::with_capacity(indices.len());
        for &i in indices {
            removed.push(self.flows[i].clone());
        }
        let mut keep = Vec::with_capacity(self.flows.len() - indices.len());
        for (i, f) in self.flows.drain(..).enumerate() {
            if !marked[i] {
                keep.push(f);
            }
        }
        self.flows = keep;
        self.rebuild_sparse();
        removed
    }

    /// Extends the rule universe with newly installed rules (new rows,
    /// all-zero until some flow traverses them). Existing row indices are
    /// preserved, so previously collected counter vectors stay aligned
    /// after appending the new rules' counters.
    ///
    /// # Panics
    ///
    /// Panics if a rule is already in the universe.
    pub fn extend_rules(&mut self, new_rules: &[RuleRef]) {
        for &r in new_rules {
            let idx = self.rules.len();
            let prev = self.rule_index.insert(r, idx);
            assert!(prev.is_none(), "rule {r} already in the FCM universe");
            self.rules.push(r);
        }
        self.rebuild_sparse();
    }

    fn rebuild_sparse(&mut self) {
        let mut triplets = Vec::new();
        for (j, f) in self.flows.iter().enumerate() {
            for r in &f.rules {
                triplets.push(Triplet {
                    row: self.rule_index[r],
                    col: j,
                    value: 1.0,
                });
            }
        }
        self.sparse = CsrMatrix::from_triplets(self.rules.len(), self.flows.len(), &triplets)
            .expect("indices bounded by construction");
    }

    /// Restricts the FCM to the **observed** rows — the degraded-detection
    /// path for rounds where some switches never answered the statistics
    /// poll (timed out, crashed, or partitioned off the control channel).
    ///
    /// `observed[i]` says whether row `i`'s counter was collected. The
    /// masked system keeps only observed rules; every flow's column is
    /// restricted to those rules, and flows that lose *all* their rules are
    /// dropped (they constrain nothing observable — their count is reported
    /// in [`MaskedFcm::dropped_flows`]). Least-squares detection on the
    /// masked system is exactly detection on the sub-rows of `H·X = Y'`,
    /// so verdicts remain sound; they are merely *weaker* (anything a
    /// benign network could explain using the unobserved rows is now
    /// unfalsifiable — quantify with the detectability oracle on the
    /// masked FCM).
    ///
    /// # Panics
    ///
    /// Panics if `observed.len() != rule_count()`.
    pub fn mask_rows(&self, observed: &[bool]) -> MaskedFcm {
        self.quarantine(observed, &vec![false; self.flow_count()])
    }

    /// Restricts the FCM to the observed rows **and** evicts quarantined
    /// flows — the churn-reconciliation path. During a mid-epoch rule
    /// update (reroute, granularity refinement, hardening install), the
    /// counters of the touched rules mix traffic routed under two
    /// different generations, and the flows through those rules no longer
    /// satisfy either generation's equation system. Masking the touched
    /// *rows* removes the inconsistent equations; quarantining the
    /// affected *columns* removes the unknowns whose coefficients changed
    /// mid-epoch, so the remaining sub-system is consistent for benign
    /// traffic and verdicts on it stay sound.
    ///
    /// `observed[i]` says whether row `i` is kept; `quarantined[j]` says
    /// whether flow `j` is evicted regardless of its surviving rules.
    /// Quarantine takes precedence: a quarantined flow counts toward
    /// [`MaskedFcm::quarantined_flows`] even if every one of its rules
    /// was also masked. Non-quarantined flows that lose all their rules
    /// are dropped as in [`Fcm::mask_rows`].
    ///
    /// # Panics
    ///
    /// Panics if `observed.len() != rule_count()` or
    /// `quarantined.len() != flow_count()`.
    pub fn quarantine(&self, observed: &[bool], quarantined: &[bool]) -> MaskedFcm {
        assert_eq!(
            observed.len(),
            self.rule_count(),
            "observed mask must have one entry per rule"
        );
        assert_eq!(
            quarantined.len(),
            self.flow_count(),
            "quarantine mask must have one entry per flow"
        );
        let kept_rules: Vec<RuleRef> = self
            .rules
            .iter()
            .zip(observed)
            .filter(|(_, &o)| o)
            .map(|(&r, _)| r)
            .collect();
        let parent_rows: Vec<usize> = (0..self.rule_count()).filter(|&i| observed[i]).collect();
        let keep = |r: &RuleRef| observed[self.rule_index[r]];
        let mut dropped_flows = 0usize;
        let mut quarantined_flows = 0usize;
        let mut parent_columns = Vec::new();
        let mut sub_flows = Vec::new();
        for (j, f) in self.flows.iter().enumerate() {
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
        MaskedFcm {
            fcm: Fcm::from_parts(kept_rules, sub_flows),
            parent_rule_count: self.rule_count(),
            parent_rows,
            parent_columns,
            dropped_flows,
            quarantined_flows,
        }
    }

    /// Flow mask marking every column that traverses at least one of the
    /// given rules — the columns a rule-update journal quarantines.
    /// Rules outside this FCM's universe (e.g. installed after the FCM
    /// was built) touch no column and are ignored.
    pub fn columns_touching(&self, rules: &[RuleRef]) -> Vec<bool> {
        let touched: std::collections::HashSet<RuleRef> = rules.iter().copied().collect();
        self.flows
            .iter()
            .map(|f| f.rules.iter().any(|r| touched.contains(r)))
            .collect()
    }

    /// Row mask marking every rule traversed by at least one of the marked
    /// flows — the closure step of churn reconciliation. Quarantining the
    /// flows through updated rules is not enough on its own: a quarantined
    /// flow still contributes traffic to the *untouched* rules on its
    /// path, so those counters mix explained and unexplained volume.
    /// Masking this closure as well leaves a sub-system whose remaining
    /// counters are sums over remaining columns only, hence consistent
    /// for benign traffic. One step suffices — removing extra rows never
    /// creates new mixed counters.
    ///
    /// # Panics
    ///
    /// Panics if `flows.len() != flow_count()`.
    pub fn rows_touching(&self, flows: &[bool]) -> Vec<bool> {
        assert_eq!(
            flows.len(),
            self.flow_count(),
            "flow mask must have one entry per flow"
        );
        let mut mask = vec![false; self.rule_count()];
        for (j, f) in self.flows.iter().enumerate() {
            if flows[j] {
                for r in &f.rules {
                    mask[self.rule_index[r]] = true;
                }
            }
        }
        mask
    }

    /// Collects this FCM's counter vector from a data plane, in row order.
    /// Unlike [`foces_dataplane::DataPlane::collect_counters`] this ignores
    /// rules outside the FCM's universe — e.g. dedicated measurement rules
    /// another tool installed after the FCM was built.
    ///
    /// # Panics
    ///
    /// Panics if a rule of the FCM no longer exists on the data plane.
    pub fn counters_from(&self, dp: &foces_dataplane::DataPlane) -> Vec<f64> {
        self.rules
            .iter()
            .map(|r| dp.counter(r.switch, r.index))
            .collect()
    }
}

/// A row-masked, optionally column-quarantined FCM (see [`Fcm::mask_rows`]
/// and [`Fcm::quarantine`]): the equation system restricted to the rows
/// whose counters were actually observed this round, minus any flows
/// evicted because a mid-epoch rule update made their equations
/// inconsistent.
#[derive(Debug, Clone)]
pub struct MaskedFcm {
    fcm: Fcm,
    parent_rule_count: usize,
    parent_rows: Vec<usize>,
    parent_columns: Vec<usize>,
    dropped_flows: usize,
    quarantined_flows: usize,
}

impl MaskedFcm {
    /// The masked sub-FCM (observed rules only).
    pub fn fcm(&self) -> &Fcm {
        &self.fcm
    }

    /// For each masked row, its row index in the parent FCM.
    pub fn parent_rows(&self) -> &[usize] {
        &self.parent_rows
    }

    /// For each kept column, its flow index in the parent FCM.
    pub fn parent_columns(&self) -> &[usize] {
        &self.parent_columns
    }

    /// Parent flows dropped because every one of their rules was masked.
    pub fn dropped_flows(&self) -> usize {
        self.dropped_flows
    }

    /// Parent flows evicted by the quarantine mask (mid-epoch rule churn
    /// made their equations mix generations). Disjoint from
    /// [`MaskedFcm::dropped_flows`]: quarantine takes precedence.
    pub fn quarantined_flows(&self) -> usize {
        self.quarantined_flows
    }

    /// The parent FCM's rule count (the expected length of a full counter
    /// vector handed to [`MaskedFcm::project`]).
    pub fn parent_rule_count(&self) -> usize {
        self.parent_rule_count
    }

    /// Number of parent rows that were masked away.
    pub fn masked_row_count(&self) -> usize {
        self.parent_rule_count - self.parent_rows.len()
    }

    /// Extracts the masked counter vector (observed rows, in masked row
    /// order) from a full-length counter vector. Unobserved entries of
    /// `full` are ignored — pass any placeholder (e.g. `0.0`).
    ///
    /// # Panics
    ///
    /// Panics if `full.len() != parent_rule_count()`.
    pub fn project(&self, full: &[f64]) -> Vec<f64> {
        assert_eq!(
            full.len(),
            self.parent_rule_count,
            "full counter vector must match the parent FCM"
        );
        self.parent_rows.iter().map(|&i| full[i]).collect()
    }
}

/// Column grouping by identical rule sets (see [`Fcm::column_groups`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnGroups {
    /// First column index of each group, in first-appearance order.
    pub basis: Vec<usize>,
    /// `group_of[j]` = group index of column `j`.
    pub group_of: Vec<usize>,
}

impl ColumnGroups {
    /// Number of members in group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range (callers iterate over valid groups).
    pub fn group_size(&self, g: usize) -> usize {
        assert!(g < self.basis.len(), "group {g} out of range");
        self.group_of.iter().filter(|&&x| x == g).count()
    }
}

impl fmt::Display for Fcm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FCM: {} rules x {} flows ({} nonzeros, density {:.4}%)",
            self.rule_count(),
            self.flow_count(),
            self.nnz(),
            100.0 * self.nnz() as f64
                / (self.rule_count().max(1) * self.flow_count().max(1)) as f64
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foces_controlplane::{provision, uniform_flows, RuleGranularity};
    use foces_net::generators::{fattree, stanford};

    fn fcm_for(topo: foces_net::Topology, g: RuleGranularity) -> Fcm {
        let flows = uniform_flows(&topo, 1000.0);
        let dep = provision(topo, &flows, g).unwrap();
        Fcm::from_view(&dep.view)
    }

    #[test]
    fn dimensions_match_view() {
        let fcm = fcm_for(fattree(4), RuleGranularity::PerDestination);
        assert_eq!(fcm.flow_count(), 240);
        assert!(fcm.rule_count() > 0);
        assert_eq!(fcm.dense().rows(), fcm.rule_count());
        assert_eq!(fcm.dense().cols(), fcm.flow_count());
        assert_eq!(fcm.sparse().rows(), fcm.rule_count());
        assert_eq!(fcm.sparse().nnz(), fcm.nnz());
    }

    #[test]
    fn dense_and_sparse_agree() {
        let fcm = fcm_for(stanford(), RuleGranularity::PerDestination);
        assert!(fcm.sparse().to_dense().approx_eq(&fcm.dense(), 0.0));
    }

    #[test]
    fn column_entries_match_flow_rules() {
        let fcm = fcm_for(fattree(4), RuleGranularity::PerDestination);
        for (j, flow) in fcm.flows().iter().enumerate().take(20) {
            let col = fcm.column(j);
            let ones: usize = col.iter().filter(|&&v| v == 1.0).count();
            assert_eq!(ones, flow.rules.len());
            for r in &flow.rules {
                assert_eq!(col[fcm.rule_row(*r).unwrap()], 1.0);
            }
        }
    }

    #[test]
    fn per_pair_columns_are_all_unique() {
        let fcm = fcm_for(fattree(4), RuleGranularity::PerFlowPair);
        assert_eq!(fcm.unique_column_basis().len(), fcm.flow_count());
    }

    #[test]
    fn per_destination_fattree_has_duplicate_columns() {
        // Two hosts on one edge switch sending to the same destination share
        // every rule, so their columns coincide.
        let fcm = fcm_for(fattree(4), RuleGranularity::PerDestination);
        let basis = fcm.unique_column_basis();
        assert!(basis.len() < fcm.flow_count());
        assert!(basis.len() >= fcm.flow_count() / 2);
    }

    #[test]
    fn stanford_per_destination_columns_unique() {
        // One host per switch: every (src, dst) pair takes a distinct path.
        let fcm = fcm_for(stanford(), RuleGranularity::PerDestination);
        assert_eq!(fcm.unique_column_basis().len(), fcm.flow_count());
    }

    #[test]
    fn expected_counters_are_flow_sums() {
        let fcm = fcm_for(fattree(4), RuleGranularity::PerDestination);
        let volumes = vec![1.0; fcm.flow_count()];
        let y = fcm.expected_counters(&volumes);
        // Each rule's expected counter = number of flows traversing it ≥ 1.
        assert!(y.iter().all(|&v| v >= 1.0));
        let total: f64 = y.iter().sum();
        assert_eq!(total as usize, fcm.nnz());
    }

    #[test]
    fn display_reports_shape() {
        let fcm = fcm_for(fattree(4), RuleGranularity::PerDestination);
        let s = fcm.to_string();
        assert!(s.contains("240 flows"));
    }

    #[test]
    fn mask_rows_all_observed_is_identity() {
        let fcm = fcm_for(fattree(4), RuleGranularity::PerDestination);
        let masked = fcm.mask_rows(&vec![true; fcm.rule_count()]);
        assert_eq!(masked.fcm().rule_count(), fcm.rule_count());
        assert_eq!(masked.fcm().flow_count(), fcm.flow_count());
        assert_eq!(masked.dropped_flows(), 0);
        assert_eq!(masked.masked_row_count(), 0);
        let full: Vec<f64> = (0..fcm.rule_count()).map(|i| i as f64).collect();
        assert_eq!(masked.project(&full), full);
    }

    #[test]
    fn mask_rows_drops_one_switch() {
        let fcm = fcm_for(fattree(4), RuleGranularity::PerFlowPair);
        let victim = fcm.rules()[0].switch;
        let observed: Vec<bool> = fcm.rules().iter().map(|r| r.switch != victim).collect();
        let hidden = observed.iter().filter(|&&o| !o).count();
        assert!(hidden > 0);
        let masked = fcm.mask_rows(&observed);
        assert_eq!(masked.fcm().rule_count(), fcm.rule_count() - hidden);
        assert_eq!(masked.masked_row_count(), hidden);
        assert_eq!(masked.parent_rule_count(), fcm.rule_count());
        // Every surviving row maps back to an observed parent row, in order.
        assert_eq!(masked.parent_rows().len(), masked.fcm().rule_count());
        for (&p, w) in masked
            .parent_rows()
            .iter()
            .zip(masked.parent_rows().iter().skip(1))
        {
            assert!(p < *w);
        }
        for (&p, r) in masked.parent_rows().iter().zip(masked.fcm().rules()) {
            assert_eq!(fcm.rules()[p], *r);
            assert!(observed[p]);
        }
        // No surviving flow references the hidden switch, and flow counts
        // add up: kept + dropped = parent.
        assert!(masked
            .fcm()
            .flows()
            .iter()
            .all(|f| f.rules.iter().all(|r| r.switch != victim)));
        assert_eq!(
            masked.fcm().flow_count() + masked.dropped_flows(),
            fcm.flow_count()
        );
    }

    #[test]
    fn mask_rows_project_selects_observed_counters() {
        let fcm = fcm_for(fattree(4), RuleGranularity::PerDestination);
        let observed: Vec<bool> = (0..fcm.rule_count()).map(|i| i % 3 != 1).collect();
        let masked = fcm.mask_rows(&observed);
        let full: Vec<f64> = (0..fcm.rule_count()).map(|i| 10.0 + i as f64).collect();
        let sub = masked.project(&full);
        assert_eq!(sub.len(), masked.fcm().rule_count());
        for (k, &p) in masked.parent_rows().iter().enumerate() {
            assert_eq!(sub[k], full[p]);
        }
    }

    #[test]
    fn quarantine_evicts_exactly_the_marked_columns() {
        let fcm = fcm_for(fattree(4), RuleGranularity::PerFlowPair);
        let observed = vec![true; fcm.rule_count()];
        let quarantined: Vec<bool> = (0..fcm.flow_count()).map(|j| j % 5 == 0).collect();
        let evicted = quarantined.iter().filter(|&&q| q).count();
        let masked = fcm.quarantine(&observed, &quarantined);
        assert_eq!(masked.quarantined_flows(), evicted);
        assert_eq!(masked.dropped_flows(), 0);
        assert_eq!(masked.fcm().flow_count(), fcm.flow_count() - evicted);
        // parent_columns maps kept columns to the non-quarantined parents,
        // in order.
        let expected: Vec<usize> = (0..fcm.flow_count()).filter(|&j| j % 5 != 0).collect();
        assert_eq!(masked.parent_columns(), expected.as_slice());
        for (k, &j) in masked.parent_columns().iter().enumerate() {
            assert_eq!(masked.fcm().flows()[k].rules, fcm.flows()[j].rules);
        }
    }

    #[test]
    fn quarantine_takes_precedence_over_dropping() {
        // Hide an entire switch AND quarantine every flow through it: the
        // flows that would have been dropped count as quarantined instead.
        let fcm = fcm_for(fattree(4), RuleGranularity::PerFlowPair);
        let victim = fcm.rules()[0].switch;
        let observed: Vec<bool> = fcm.rules().iter().map(|r| r.switch != victim).collect();
        let via_victim: Vec<bool> = fcm
            .flows()
            .iter()
            .map(|f| f.rules.iter().any(|r| r.switch == victim))
            .collect();
        let evicted = via_victim.iter().filter(|&&q| q).count();
        assert!(evicted > 0);
        let masked = fcm.quarantine(&observed, &via_victim);
        assert_eq!(masked.quarantined_flows(), evicted);
        assert_eq!(
            masked.fcm().flow_count() + masked.dropped_flows() + masked.quarantined_flows(),
            fcm.flow_count()
        );
    }

    #[test]
    fn mask_rows_is_quarantine_with_no_columns_marked() {
        let fcm = fcm_for(fattree(4), RuleGranularity::PerDestination);
        let observed: Vec<bool> = (0..fcm.rule_count()).map(|i| i % 4 != 2).collect();
        let a = fcm.mask_rows(&observed);
        let b = fcm.quarantine(&observed, &vec![false; fcm.flow_count()]);
        assert_eq!(a.quarantined_flows(), 0);
        assert_eq!(a.parent_rows(), b.parent_rows());
        assert_eq!(a.parent_columns(), b.parent_columns());
        assert_eq!(a.dropped_flows(), b.dropped_flows());
        assert_eq!(a.fcm().flow_count(), b.fcm().flow_count());
    }

    #[test]
    fn columns_touching_marks_exactly_the_traversing_flows() {
        let fcm = fcm_for(fattree(4), RuleGranularity::PerFlowPair);
        let probe = fcm.flows()[3].rules[1];
        let mask = fcm.columns_touching(&[probe]);
        assert_eq!(mask.len(), fcm.flow_count());
        for (j, f) in fcm.flows().iter().enumerate() {
            assert_eq!(mask[j], f.rules.contains(&probe), "flow {j}");
        }
        assert!(mask[3]);
        // Rules outside the universe touch nothing.
        let foreign = RuleRef {
            switch: foces_net::SwitchId(999),
            index: 7,
        };
        assert!(fcm.columns_touching(&[foreign]).iter().all(|&b| !b));
    }

    #[test]
    fn rows_touching_marks_exactly_the_traversed_rules() {
        let fcm = fcm_for(fattree(4), RuleGranularity::PerFlowPair);
        let mut flows = vec![false; fcm.flow_count()];
        flows[0] = true;
        flows[7] = true;
        let mask = fcm.rows_touching(&flows);
        let expected: std::collections::HashSet<usize> = fcm.flows()[0]
            .rules
            .iter()
            .chain(&fcm.flows()[7].rules)
            .map(|&r| fcm.rule_row(r).unwrap())
            .collect();
        for (i, &m) in mask.iter().enumerate() {
            assert_eq!(m, expected.contains(&i), "row {i}");
        }
    }

    #[test]
    #[should_panic(expected = "quarantine mask must have one entry per flow")]
    fn quarantine_rejects_wrong_flow_mask_length() {
        let fcm = fcm_for(fattree(4), RuleGranularity::PerDestination);
        fcm.quarantine(
            &vec![true; fcm.rule_count()],
            &vec![false; fcm.flow_count() - 1],
        );
    }

    #[test]
    #[should_panic(expected = "observed mask must have one entry per rule")]
    fn mask_rows_rejects_wrong_mask_length() {
        let fcm = fcm_for(fattree(4), RuleGranularity::PerDestination);
        fcm.mask_rows(&vec![true; fcm.rule_count() - 1]);
    }

    #[test]
    #[should_panic(expected = "unknown rule")]
    fn from_parts_rejects_foreign_rules() {
        let fcm = fcm_for(fattree(4), RuleGranularity::PerDestination);
        let mut flows = fcm.flows().to_vec();
        flows[0].rules.push(RuleRef {
            switch: foces_net::SwitchId(999),
            index: 0,
        });
        Fcm::from_parts(fcm.rules().to_vec(), flows);
    }
}
