//! The Flow-Counter Matrix, stored column-major.
//!
//! The paper builds `H` one column per flow, from the flow's rule history
//! `h.history` (Eq. 1, §III-B), and [`Fcm`] stores it that way: column
//! `j` is flow `j`'s rule rows in path order, one slice of a flat array
//! delimited by a column pointer, with the flows' ingress, egress and
//! header planes in flat arrays beside it. A flow's path is its rules'
//! switches. [`LogicalFlow`] is the tracer's output and
//! [`Fcm::from_parts`]' input only. Every structural operation is an
//! array pass over the columns: a patch copies each kept host's run of
//! columns through a row remap, a masked or shard sub-FCM copies the
//! columns it keeps through a row mark, the basis hashes sorted column
//! slices, and the closures walk the columns. The CSR and the rule-to-row
//! map are built on first demand.

use foces_atpg::{hosts_meeting, trace_flows, trace_hosts, LogicalFlow};
use foces_controlplane::ControllerView;
use foces_dataplane::RuleRef;
use foces_headerspace::Wildcard;
use foces_linalg::{CsrMatrix, DenseMatrix};
use foces_net::{HostId, SwitchId};
use foces_sparse::{BackendKind, BasisCholesky, SparseFactor};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The Flow-Counter Matrix (paper Eq. 1): `H[i][j] = 1` iff logical flow
/// `j` traverses rule `i`.
///
/// Rows are indexed by [`RuleRef`] in canonical (switch-major, table-index)
/// order — the same order [`foces_dataplane::DataPlane::collect_counters`]
/// reports counters in, so a collected counter vector lines up with the FCM
/// rows with no further bookkeeping.
///
/// The matrix is stored column-major, as the paper builds it: column `j`
/// is flow `j`'s rule rows in path order, its `h.history`
/// ([`Fcm::flow_rows`]), with the flows' metadata in flat arrays; the
/// per-column accessors panic if `j` is out of range. The CSR
/// ([`Fcm::sparse`]) and the rule-to-row map ([`Fcm::rule_row`]) are
/// built on first demand.
///
/// Construction from a controller view runs the ATPG tracer
/// ([`foces_atpg::trace_hosts`]) to enumerate logical flows. A rebuild
/// after rule updates ([`Fcm::patched`]) re-traces only the ingress hosts
/// whose source region some installed rule meets and keeps every other
/// host's flows; the first build ([`Fcm::from_view`]) is the patch of the
/// empty FCM, which re-traces every host a rule meets.
///
/// Every solve and analysis works on the FCM's deduplicated column basis
/// and the sparse Cholesky of its Gram: the [`BasisSystem`], built once on
/// first demand ([`Fcm::basis_system`]) and dropped by every structural
/// edit. A clone shares it.
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
    rule_index: OnceLock<HashMap<RuleRef, usize>>,
    /// Column `j`'s rule rows, in path order, are `rows[ptr[j]..ptr[j + 1]]`.
    ptr: Vec<usize>,
    rows: Vec<usize>,
    ingress: Vec<HostId>,
    egress: Vec<HostId>,
    /// The header width every column shares.
    header_width: usize,
    /// Column `j`'s header planes: its mask blocks, then its value blocks.
    headers: Vec<u64>,
    sparse: OnceLock<CsrMatrix>,
    basis: OnceLock<Arc<BasisSystem>>,
}

/// Each rule's row.
fn index_of(rules: &[RuleRef]) -> HashMap<RuleRef, usize> {
    rules.iter().enumerate().map(|(i, &r)| (r, i)).collect()
}

impl Fcm {
    /// Builds the FCM for a controller view: enumerates the view's logical
    /// flows via ATPG symbolic traversal and populates one column per flow.
    /// This is [`Fcm::patched`] applied to the empty FCM, so the first
    /// build and every rebuild share one tracing path.
    pub fn from_view(view: &ControllerView) -> Self {
        Fcm::empty(Vec::new(), 0).patched(view)
    }

    /// The FCM of `view`, re-tracing only the ingress hosts the rules
    /// installed since `self` was built can reach.
    ///
    /// **Precondition:** `self` was built from an earlier generation of
    /// this same view. A [`ControllerView`] is append-only — `install`
    /// only pushes, indices never shift and no rule is edited in place —
    /// so the rules `self` lacks are exactly the ones installed since.
    /// A region traced from a host only shrinks along its path, so an
    /// installed rule disjoint from a host's pinned source region never
    /// meets or shadows a class from that host
    /// ([`foces_atpg::hosts_meeting`]): only the hosts some installed rule
    /// meets are re-traced, and their flows replace the old ones in the
    /// [`foces_atpg::flow_order`] position a full trace gives them. Rows
    /// follow the view's order. Under the precondition the result equals
    /// `Fcm::from_parts(view.rule_refs().collect(), trace_flows(view))`:
    /// the same rules, flows and CSR.
    ///
    /// Each kept host's run of columns is copied in one pass through a row
    /// remap (a kept row moves by the rules installed before it in view
    /// order), so no kept flow is rebuilt and no row is looked up by rule.
    ///
    /// If some row of `self` is not a rule of `view`, or its rows are not
    /// the first rules of each table in view order (a masked FCM, say),
    /// `self` cannot be an earlier generation of `view`, and the whole
    /// view is re-traced.
    pub fn patched(&self, view: &ControllerView) -> Fcm {
        let rules: Vec<RuleRef> = view.rule_refs().collect();
        let Some(held) = self.rows_per_switch(view) else {
            return Fcm::from_parts(rules, trace_flows(view));
        };
        let installed = view.topology().switches().flat_map(|s| {
            let table = view.table(s);
            (held[s.0]..table.len()).map(move |i| table.get(i).expect("in range").match_fields())
        });
        let hosts = hosts_meeting(view, installed);
        let mut retraced = vec![false; view.topology().host_count()];
        for h in &hosts {
            retraced[h.0] = true;
        }
        // Rule `(s, i)` of the view sits at row `first[s] + i`.
        let mut first = Vec::with_capacity(held.len());
        let mut next = 0;
        for s in view.topology().switches() {
            first.push(next);
            next += view.table(s).len();
        }
        let row_of = |r: &RuleRef| first[r.switch.0] + r.index;
        let moved: Vec<usize> = self.rules.iter().map(row_of).collect();
        let fresh = trace_hosts(view, &hosts);
        let mut fresh = fresh.iter().peekable();
        let mut fcm = Fcm::empty(rules, self.header_width);
        let mut j = 0;
        while j < self.flow_count() {
            let ingress = self.ingress[j];
            let run = j + self.ingress[j..]
                .iter()
                .take_while(|&&h| h == ingress)
                .count();
            if !retraced.get(ingress.0).copied().unwrap_or(false) {
                // A re-traced host is never a kept flow's ingress, so flow
                // order between the two is ingress order.
                while let Some(g) = fresh.next_if(|g| g.ingress < ingress) {
                    fcm.push_flow(g, row_of);
                }
                fcm.extend_from(self, j..run, &moved);
            }
            j = run;
        }
        for g in fresh {
            fcm.push_flow(g, row_of);
        }
        fcm
    }

    /// How many rows `self` holds at each switch of `view`, if its rows are
    /// what an earlier generation of `view` held: the first rules of each
    /// table, in view order. `None` otherwise (a row the view lacks, a
    /// masked subset, rows out of order).
    fn rows_per_switch(&self, view: &ControllerView) -> Option<Vec<usize>> {
        let mut held = vec![0; view.topology().switch_count()];
        let mut last = None;
        for &r in &self.rules {
            view.rule(r)?;
            let follows = match last {
                Some(SwitchId(s)) if s == r.switch.0 => r.index == held[s],
                Some(SwitchId(s)) => s < r.switch.0 && r.index == 0,
                None => r.index == 0,
            };
            if !follows {
                return None;
            }
            held[r.switch.0] += 1;
            last = Some(r.switch);
        }
        Some(held)
    }

    /// Builds the FCM from explicit parts: a rule universe (row order) and
    /// the logical flows (columns). Exposed for tests and for callers that
    /// already traced flows. A flow's path is not stored: it is read back
    /// as its rules' switches, which is what the tracer records.
    ///
    /// # Panics
    ///
    /// Panics if a flow references a rule not present in `rules` — flows
    /// must come from the same view as the rule universe — or if two flows
    /// differ in header width.
    pub fn from_parts(rules: Vec<RuleRef>, flows: Vec<LogicalFlow>) -> Self {
        let index = index_of(&rules);
        let mut fcm = Fcm::empty(rules, 0);
        for f in &flows {
            fcm.push_flow(f, |r| {
                *index
                    .get(r)
                    .unwrap_or_else(|| panic!("flow references unknown rule {r}"))
            });
        }
        fcm.rule_index.set(index).expect("a fresh FCM has no index");
        fcm
    }

    /// The FCM over `rules` with no columns yet.
    fn empty(rules: Vec<RuleRef>, header_width: usize) -> Self {
        Fcm {
            rules,
            rule_index: OnceLock::new(),
            ptr: vec![0],
            rows: Vec::new(),
            ingress: Vec::new(),
            egress: Vec::new(),
            header_width,
            headers: Vec::new(),
            sparse: OnceLock::new(),
            basis: OnceLock::new(),
        }
    }

    /// Appends a traced flow, its rules mapped to rows by `row_of`.
    ///
    /// # Panics
    ///
    /// Panics if the flow's header width differs from the columns' own.
    fn push_flow(&mut self, f: &LogicalFlow, row_of: impl Fn(&RuleRef) -> usize) {
        if self.flow_count() == 0 {
            self.header_width = f.header.width();
        }
        assert_eq!(
            f.header.width(),
            self.header_width,
            "flows must share one header width"
        );
        self.rows.extend(f.rules.iter().map(row_of));
        self.ptr.push(self.rows.len());
        self.ingress.push(f.ingress);
        self.egress.push(f.egress);
        let (mask, value) = f.header.planes();
        self.headers.extend_from_slice(mask);
        self.headers.extend_from_slice(value);
    }

    /// Appends the columns `cols` of `from`, each row `i` renumbered to
    /// `moved[i]`.
    fn extend_from(&mut self, from: &Fcm, cols: Range<usize>, moved: &[usize]) {
        let (lo, hi) = (from.ptr[cols.start], from.ptr[cols.end]);
        let base = self.rows.len();
        self.rows
            .extend(from.rows[lo..hi].iter().map(|&i| moved[i]));
        let ends = &from.ptr[cols.start + 1..=cols.end];
        self.ptr.extend(ends.iter().map(|&p| p - lo + base));
        self.ingress.extend_from_slice(&from.ingress[cols.clone()]);
        self.egress.extend_from_slice(&from.egress[cols.clone()]);
        let words = from.header_words();
        self.headers
            .extend_from_slice(&from.headers[cols.start * words..cols.end * words]);
    }

    /// The sub-FCM over the parent rows `parent_rows`, in that order, and
    /// the parent columns `parent_columns`, each restricted to those rows:
    /// the one constructor of masked and shard sub-FCMs. `sub_row[i]` is
    /// row `i`'s position in `parent_rows`, `usize::MAX` off it.
    pub(crate) fn restrict(
        &self,
        parent_rows: &[usize],
        sub_row: &[usize],
        parent_columns: &[usize],
    ) -> Fcm {
        let rules = parent_rows.iter().map(|&i| self.rules[i]).collect();
        let mut sub = Fcm::empty(rules, self.header_width);
        let words = self.header_words();
        for &j in parent_columns {
            let kept = self.flow_rows(j).iter().map(|&i| sub_row[i]);
            sub.rows.extend(kept.filter(|&k| k != usize::MAX));
            sub.ptr.push(sub.rows.len());
            sub.ingress.push(self.ingress[j]);
            sub.egress.push(self.egress[j]);
            sub.headers
                .extend_from_slice(&self.headers[j * words..(j + 1) * words]);
        }
        sub
    }

    /// Header words per column: the mask's blocks, then the value's.
    fn header_words(&self) -> usize {
        2 * self.header_width.div_ceil(64)
    }

    /// Number of rules (rows).
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Number of logical flows (columns).
    pub fn flow_count(&self) -> usize {
        self.ingress.len()
    }

    /// The rule universe in row order.
    pub fn rules(&self) -> &[RuleRef] {
        &self.rules
    }

    /// The rows of the rules flow `j` traverses, in path order: column `j`
    /// as the paper's `h.history`.
    pub fn flow_rows(&self, j: usize) -> &[usize] {
        &self.rows[self.ptr[j]..self.ptr[j + 1]]
    }

    /// The rules flow `j` traverses, in path order; their switches are its
    /// path.
    pub fn flow_rules(&self, j: usize) -> impl Iterator<Item = RuleRef> + '_ {
        self.flow_rows(j).iter().map(|&i| self.rules[i])
    }

    /// The host flow `j` enters at.
    pub fn ingress(&self, j: usize) -> HostId {
        self.ingress[j]
    }

    /// The host flow `j` is delivered to.
    pub fn egress(&self, j: usize) -> HostId {
        self.egress[j]
    }

    /// Flow `j`'s symbolic header region.
    pub fn header(&self, j: usize) -> Wildcard {
        let words = self.header_words();
        let (mask, value) = self.headers[j * words..(j + 1) * words].split_at(words / 2);
        Wildcard::from_planes(self.header_width, mask, value)
            .expect("planes stored at the columns' width")
    }

    /// Flow `j` as a [`LogicalFlow`], its path its rules' switches.
    pub fn flow(&self, j: usize) -> LogicalFlow {
        let rules: Vec<RuleRef> = self.flow_rules(j).collect();
        LogicalFlow {
            ingress: self.ingress(j),
            egress: self.egress(j),
            header: self.header(j),
            path: rules.iter().map(|r| r.switch).collect(),
            rules,
        }
    }

    /// Every flow's rules in path order, one list per column: the
    /// histories the RBG analyses ([`crate::rbg::Rbg::build`]) read.
    pub fn histories(&self) -> Vec<Vec<RuleRef>> {
        (0..self.flow_count())
            .map(|j| self.flow_rules(j).collect())
            .collect()
    }

    /// Row index of a rule, if it is part of this FCM.
    pub fn rule_row(&self, r: RuleRef) -> Option<usize> {
        self.rule_index().get(&r).copied()
    }

    fn rule_index(&self) -> &HashMap<RuleRef, usize> {
        self.rule_index.get_or_init(|| index_of(&self.rules))
    }

    /// Materializes the FCM densely (rules × flows). The matrix is kept in
    /// CSR form internally — real FCMs are huge but sparse — so this is an
    /// O(rules·flows) conversion intended for small/test instances (the
    /// dense rank reference the sparse [`crate::SpanOracle`] is tested
    /// against), not for the per-round solver path.
    pub fn dense(&self) -> DenseMatrix {
        self.sparse().to_dense()
    }

    /// The sparse (CSR) matrix, built from the columns by counting sort on
    /// first demand.
    pub fn sparse(&self) -> &CsrMatrix {
        self.sparse.get_or_init(|| {
            let columns = (0..self.flow_count()).map(|j| self.flow_rows(j));
            CsrMatrix::from_column_rows(self.rule_count(), columns)
        })
    }

    /// Groups columns by identical rule sets: `basis[g]` is the first
    /// column of group `g`, and `group_of[j]` maps every column to its
    /// group. `basis` is the **deduplicated column basis**: with
    /// per-destination rule aggregation, two hosts on the same edge switch
    /// sending to the same destination traverse identical rule sets,
    /// giving identical FCM columns; the least-squares projection only
    /// depends on the column *space*, so the solver works on this basis
    /// (see [`crate::EquationSystem`]).
    pub fn column_groups(&self) -> &ColumnGroups {
        &self.basis_system().groups
    }

    /// The FCM's [`BasisSystem`]: its column groups, the basis matrix and
    /// the Gram factor, built on first demand and kept until the next
    /// structural edit.
    pub fn basis_system(&self) -> &Arc<BasisSystem> {
        self.basis
            .get_or_init(|| Arc::new(BasisSystem::build(self)))
    }

    /// This FCM without its memoized [`BasisSystem`]: its first solve
    /// builds and factors the basis anew, as a newly built FCM's does
    /// (a clone shares the memo).
    pub fn unmemoized(&self) -> Fcm {
        Fcm {
            basis: OnceLock::new(),
            ..self.clone()
        }
    }

    /// Expected counter vector `Y₀ = H·X` for given flow volumes.
    ///
    /// # Panics
    ///
    /// Panics if `volumes.len() != flow_count()`.
    pub fn expected_counters(&self, volumes: &[f64]) -> Vec<f64> {
        self.sparse()
            .matvec(volumes)
            .expect("volume vector length checked by caller")
    }

    /// The number of nonzero entries (total rule traversals).
    pub fn nnz(&self) -> usize {
        self.sparse().nnz()
    }

    /// Appends logical flows as new columns — the incremental path for
    /// reactive rule installation (paper §II-A: "rules can also be
    /// installed reactively when a new flow comes into the network").
    /// Drops the CSR form once, so batch additions where possible.
    ///
    /// # Panics
    ///
    /// Panics if a flow references a rule outside the universe; call
    /// [`Fcm::extend_rules`] first for rules the controller just installed.
    pub fn add_flows(&mut self, flows: Vec<LogicalFlow>) {
        let index = self
            .rule_index
            .take()
            .unwrap_or_else(|| index_of(&self.rules));
        for f in &flows {
            self.push_flow(f, |r| {
                *index.get(r).unwrap_or_else(|| {
                    panic!("flow references unknown rule {r}; extend_rules first")
                })
            });
        }
        self.rule_index = OnceLock::from(index);
        self.edited();
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
        let mut marked = vec![false; self.flow_count()];
        for &i in indices {
            assert!(i < self.flow_count(), "flow index {i} out of range");
            assert!(!marked[i], "flow index {i} repeated");
            marked[i] = true;
        }
        let removed = indices.iter().map(|&i| self.flow(i)).collect();
        let rows: Vec<usize> = (0..self.rule_count()).collect();
        let kept: Vec<usize> = (0..self.flow_count()).filter(|&j| !marked[j]).collect();
        *self = self.restrict(&rows, &rows, &kept);
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
        let mut index = self
            .rule_index
            .take()
            .unwrap_or_else(|| index_of(&self.rules));
        for &r in new_rules {
            let prev = index.insert(r, self.rules.len());
            assert!(prev.is_none(), "rule {r} already in the FCM universe");
            self.rules.push(r);
        }
        self.rule_index = OnceLock::from(index);
        self.edited();
    }

    /// Drops the CSR form and the memoized [`BasisSystem`] after a
    /// structural edit (clones sharing the basis keep theirs): both
    /// described the old structure.
    fn edited(&mut self) {
        self.sparse = OnceLock::new();
        self.basis = OnceLock::new();
    }

    /// Restricts the FCM to the **observed** rows: the sub-system of a
    /// round where some switches never answered the statistics poll, built
    /// explicitly. [`crate::Detector::detect_without`] solves the same
    /// system on the full FCM's factor; this is its reference, and what it
    /// runs on the dense backend.
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
    /// flows — the churn-reconciliation system, built explicitly (a
    /// reconciled round removes the quarantine's closure rows, which
    /// strands every quarantined flow, so the kernel needs no column
    /// quarantine; see [`Fcm::rows_touching`]). During a mid-epoch rule
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
        let parent_rows: Vec<usize> = (0..self.rule_count()).filter(|&i| observed[i]).collect();
        let mut sub_row = vec![usize::MAX; self.rule_count()];
        for (k, &i) in parent_rows.iter().enumerate() {
            sub_row[i] = k;
        }
        let mut dropped_flows = 0usize;
        let mut quarantined_flows = 0usize;
        let mut parent_columns = Vec::new();
        for (j, &evicted) in quarantined.iter().enumerate() {
            if evicted {
                quarantined_flows += 1;
            } else if self.flow_rows(j).iter().any(|&i| observed[i]) {
                parent_columns.push(j);
            } else {
                dropped_flows += 1;
            }
        }
        MaskedFcm {
            fcm: self.restrict(&parent_rows, &sub_row, &parent_columns),
            parent_rule_count: self.rule_count(),
            parent_rows,
            parent_columns,
            dropped_flows,
            quarantined_flows,
        }
    }

    /// The number of flows whose every rule sits on one of the `lost`
    /// switches ([`Fcm::flows_blinded`] with exactly their rows unobserved).
    pub fn flows_blinded_by(&self, lost: &[SwitchId]) -> usize {
        let observed: Vec<bool> = self
            .rules
            .iter()
            .map(|r| !lost.contains(&r.switch))
            .collect();
        self.flows_blinded(&observed)
    }

    /// The number of flows with no observed row: the flows
    /// [`Fcm::mask_rows`] drops ([`MaskedFcm::dropped_flows`]), counted in
    /// one pass over the columns without building the masked system.
    ///
    /// # Panics
    ///
    /// Panics if `observed.len() != rule_count()`.
    pub fn flows_blinded(&self, observed: &[bool]) -> usize {
        assert_eq!(observed.len(), self.rule_count(), "one entry per rule");
        (0..self.flow_count())
            .filter(|&j| !self.flow_rows(j).iter().any(|&i| observed[i]))
            .count()
    }

    /// Flow mask marking every column that traverses at least one of the
    /// given rules — the columns a rule-update journal quarantines.
    /// Rules outside this FCM's universe (e.g. installed after the FCM
    /// was built) touch no column and are ignored.
    pub fn columns_touching(&self, rules: &[RuleRef]) -> Vec<bool> {
        let mut touched = vec![false; self.rule_count()];
        for row in rules.iter().filter_map(|r| self.rule_row(*r)) {
            touched[row] = true;
        }
        (0..self.flow_count())
            .map(|j| self.flow_rows(j).iter().any(|&i| touched[i]))
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
        for j in (0..self.flow_count()).filter(|&j| flows[j]) {
            for &i in self.flow_rows(j) {
                mask[i] = true;
            }
        }
        mask
    }

    /// The rows a churn-reconciled round keeps: the `observed` rows minus
    /// the journaled `touched` rules' own rows and the closure rows of the
    /// `quarantined` flows ([`Fcm::rows_touching`]). The closure holds
    /// every row of a quarantined flow, so removing these rows evicts it.
    ///
    /// # Panics
    ///
    /// Panics if `observed` or `quarantined` have the wrong length.
    pub fn reconciled_rows(
        &self,
        observed: &[bool],
        quarantined: &[bool],
        touched: &[RuleRef],
    ) -> Vec<bool> {
        let closure = self.rows_touching(quarantined);
        let mut keep: Vec<bool> = observed
            .iter()
            .zip(&closure)
            .map(|(&o, &c)| o && !c)
            .collect();
        // Journaled rules may carry no traced flow (and rules installed
        // after the FCM was built are not in its universe at all).
        for row in touched.iter().filter_map(|r| self.rule_row(*r)) {
            keep[row] = false;
        }
        keep
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

/// An FCM's deduplicated least-squares system (see [`Fcm::basis_system`]):
/// the column groups, the basis matrix `B` (rules × groups), each group's
/// size, and the sparse Cholesky of `BᵀB` ([`BasisCholesky`]).
///
/// It is immutable once built; the factor inside is itself built at most
/// once. The sparse backend of the per-round solvers
/// ([`crate::EquationSystem`], [`crate::IncrementalSolver`]) memoizes the
/// factor, so a round on an unchanged FCM costs `Bᵀy`, two sparse
/// triangular solves and the residual; the dense backend reads the basis
/// and keeps its own dense numerics. One-off analyses ([`crate::LooSolver`], the coverage
/// classifier, [`crate::SpanOracle`]) borrow a memoized factor and factor
/// privately when there is none.
#[derive(Debug)]
pub struct BasisSystem {
    groups: ColumnGroups,
    group_sizes: Vec<usize>,
    cholesky: BasisCholesky,
}

impl BasisSystem {
    fn build(fcm: &Fcm) -> Self {
        let (n, ptr) = (fcm.flow_count(), &fcm.ptr);
        // A column's key is its rows sorted; the keys share one array and
        // are hashed as slices of it.
        let mut sorted = fcm.rows.clone();
        for j in 0..n {
            sorted[ptr[j]..ptr[j + 1]].sort_unstable();
        }
        let mut seen: HashMap<&[usize], usize> = HashMap::with_capacity(n);
        let mut basis = Vec::new();
        let mut group_of = Vec::with_capacity(n);
        for j in 0..n {
            let key = &sorted[ptr[j]..ptr[j + 1]];
            let g = *seen.entry(key).or_insert_with(|| {
                basis.push(j);
                basis.len() - 1
            });
            group_of.push(g);
        }
        let mut group_sizes = vec![0usize; basis.len()];
        for &g in &group_of {
            group_sizes[g] += 1;
        }
        let matrix =
            CsrMatrix::from_column_rows(fcm.rule_count(), basis.iter().map(|&j| fcm.flow_rows(j)));
        BasisSystem {
            groups: ColumnGroups { basis, group_of },
            group_sizes,
            cholesky: BasisCholesky::new(matrix),
        }
    }

    /// The column groups.
    pub fn groups(&self) -> &ColumnGroups {
        &self.groups
    }

    /// The basis matrix `B`: one column per group, rules × groups.
    pub fn basis(&self) -> &CsrMatrix {
        self.cholesky.basis()
    }

    /// Number of basis columns.
    pub fn cols(&self) -> usize {
        self.group_sizes.len()
    }

    /// The basis with its lazily built Gram factor.
    pub fn cholesky(&self) -> &BasisCholesky {
        &self.cholesky
    }

    /// The Gram factor `backend`'s solves run on, built and memoized on
    /// first demand: `None` on [`BackendKind::Dense`], or for a basis the
    /// sparse engine solves by PCGLS. Once it is memoized, the one-off
    /// analyses (the deviation audit, the coverage analysis) borrow it
    /// instead of factoring privately.
    pub fn factor_for(&self, backend: BackendKind) -> Option<Arc<SparseFactor>> {
        let sparse = backend != BackendKind::Dense;
        sparse.then(|| foces_sparse::direct_factor(&self.cholesky))?
    }

    /// Expands a basis solution to the full [`crate::SolveOutcome`]: the
    /// fitted counters `B·x`, the residual `|y − B·x|`, and per-flow
    /// volumes with each group's total split evenly among its members.
    ///
    /// # Errors
    ///
    /// [`foces_linalg::LinalgError::DimensionMismatch`] if `x_basis` is
    /// not one entry per basis column.
    pub fn expand(
        &self,
        counters: &[f64],
        x_basis: Vec<f64>,
    ) -> Result<crate::SolveOutcome, foces_linalg::LinalgError> {
        let fitted = self.basis().matvec(&x_basis)?;
        let residual: Vec<f64> = counters
            .iter()
            .zip(&fitted)
            .map(|(y, yh)| (y - yh).abs())
            .collect();
        let volume_estimate: Vec<f64> = self
            .groups
            .group_of
            .iter()
            .map(|&g| x_basis[g] / self.group_sizes[g] as f64)
            .collect();
        Ok(crate::SolveOutcome {
            volume_estimate,
            fitted_counters: fitted,
            residual,
        })
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
        let dense = fcm.dense();
        for j in 0..20 {
            let ones = (0..fcm.rule_count()).filter(|&i| dense.get(i, j) == 1.0);
            assert_eq!(ones.count(), fcm.flow_rows(j).len());
            for r in fcm.flow_rules(j) {
                assert_eq!(dense.get(fcm.rule_row(r).unwrap(), j), 1.0);
            }
            let flow = fcm.flow(j);
            assert_eq!(flow.rules, fcm.flow_rules(j).collect::<Vec<_>>());
            assert_eq!((flow.ingress, flow.egress), (fcm.ingress(j), fcm.egress(j)));
        }
    }

    #[test]
    fn per_pair_columns_are_all_unique() {
        let fcm = fcm_for(fattree(4), RuleGranularity::PerFlowPair);
        assert_eq!(fcm.column_groups().basis.len(), fcm.flow_count());
    }

    #[test]
    fn per_destination_fattree_has_duplicate_columns() {
        // Two hosts on one edge switch sending to the same destination share
        // every rule, so their columns coincide.
        let fcm = fcm_for(fattree(4), RuleGranularity::PerDestination);
        let basis = &fcm.column_groups().basis;
        assert!(basis.len() < fcm.flow_count());
        assert!(basis.len() >= fcm.flow_count() / 2);
    }

    #[test]
    fn stanford_per_destination_columns_unique() {
        // One host per switch: every (src, dst) pair takes a distinct path.
        let fcm = fcm_for(stanford(), RuleGranularity::PerDestination);
        assert_eq!(fcm.column_groups().basis.len(), fcm.flow_count());
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
        let sub = masked.fcm();
        assert!((0..sub.flow_count()).all(|k| sub.flow_rules(k).all(|r| r.switch != victim)));
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
            assert_eq!(masked.fcm().flow(k), fcm.flow(j));
        }
    }

    #[test]
    fn quarantine_takes_precedence_over_dropping() {
        // Hide an entire switch AND quarantine every flow through it: the
        // flows that would have been dropped count as quarantined instead.
        let fcm = fcm_for(fattree(4), RuleGranularity::PerFlowPair);
        let victim = fcm.rules()[0].switch;
        let observed: Vec<bool> = fcm.rules().iter().map(|r| r.switch != victim).collect();
        let via_victim: Vec<bool> = (0..fcm.flow_count())
            .map(|j| fcm.flow_rules(j).any(|r| r.switch == victim))
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
        let probe = fcm.flow(3).rules[1];
        let mask = fcm.columns_touching(&[probe]);
        assert_eq!(mask.len(), fcm.flow_count());
        for (j, &m) in mask.iter().enumerate() {
            assert_eq!(m, fcm.flow_rules(j).any(|r| r == probe), "flow {j}");
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
        let expected: std::collections::HashSet<usize> = fcm
            .flow_rows(0)
            .iter()
            .chain(fcm.flow_rows(7))
            .copied()
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
        let mut flows: Vec<LogicalFlow> = (0..fcm.flow_count()).map(|j| fcm.flow(j)).collect();
        flows[0].rules.push(RuleRef {
            switch: foces_net::SwitchId(999),
            index: 0,
        });
        Fcm::from_parts(fcm.rules().to_vec(), flows);
    }
}
