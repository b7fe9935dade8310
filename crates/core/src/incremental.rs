//! Incremental cross-epoch solving: FCM deltas and a warm solver.
//!
//! FOCES solves `min ‖H·X − Y'‖` every collection epoch (paper §V-B), and
//! the paper's own overhead numbers (Fig. 12) show the matrix solve
//! dominating detection latency. Yet between consecutive epochs the FCM is
//! almost entirely unchanged: per-epoch work should be proportional to
//! *change*, not to network size.
//!
//! The basis — column groups and basis matrix — and its sparse Gram factor
//! are the FCM's memoized [`BasisSystem`] ([`Fcm::basis_system`]), built at
//! most once per FCM. That memo is the only state carried from one round
//! to the next: on the default sparse backend, [`IncrementalSolver`]
//! solves on the memoized factor, so a steady-state round costs a counter
//! gather, `Hᵀy`, two triangular solves and the residual — no grouping, no
//! Gram, no factor — and a rebuilt FCM factors its own basis once. The
//! solver itself only remembers which basis it solved last, to label the
//! round [`SolvePath::Warm`] (the same memo again) or [`SolvePath::Cold`].
//! The dense backend is the per-call reference: it forms and factors the
//! dense Gram every round, exactly as [`crate::EquationSystem`] does.
//! The equivalence guarantee — warm and cold residuals agree to solver
//! tolerance, so a verdict can never differ — is pinned by the property
//! tests in `tests/incremental_props.rs`.

use crate::{BasisSystem, EquationSystem, Fcm, FocesError, SolveOutcome};
use foces_controlplane::ControllerView;
use foces_dataplane::RuleRef;
use foces_net::HostId;
use foces_sparse::BackendKind;
use std::cmp::Ordering;
use std::fmt;
use std::sync::{Arc, Weak};

/// Structural difference between two FCMs — the per-epoch churn summary.
///
/// Rows are keyed by rule identity ([`RuleRef`]); columns by flow identity
/// (the `(ingress, egress)` pair, with repeated pairs matched by occurrence
/// order). "Retouched" rows are rules present in both FCMs whose counters
/// an update polluted mid-epoch (from the controller's update journal);
/// "retouched" columns are flows whose rule set changed — the reroutes.
///
/// The delta is what the runtime reports; no solve reads it (a rebuilt FCM
/// factors its own basis whatever changed).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FcmDelta {
    /// Rules present in the new FCM only.
    pub rows_added: usize,
    /// Rules present in the old FCM only.
    pub rows_removed: usize,
    /// Rules present in both whose counters a journaled update touched.
    pub rows_retouched: usize,
    /// Flows (by identity) present in the new FCM only.
    pub cols_added: usize,
    /// Flows (by identity) present in the old FCM only.
    pub cols_removed: usize,
    /// Flows present in both whose rule set changed (reroutes/refinements).
    pub cols_retouched: usize,
}

impl FcmDelta {
    /// Computes the structural delta between two FCMs. `touched_rules` is
    /// the set of rules the update journal reports as modified between the
    /// two snapshots (see [`ControllerView::touched_rules_since`]); rules
    /// absent from either FCM are counted as added/removed, not retouched.
    pub fn between(old: &Fcm, new: &Fcm, touched_rules: &[RuleRef]) -> FcmDelta {
        let old_rules: std::collections::HashSet<RuleRef> = old.rules().iter().copied().collect();
        let new_rules: std::collections::HashSet<RuleRef> = new.rules().iter().copied().collect();
        let rows_added = new_rules.difference(&old_rules).count();
        let rows_removed = old_rules.difference(&new_rules).count();
        let rows_retouched = touched_rules
            .iter()
            .filter(|r| old_rules.contains(r) && new_rules.contains(r))
            .count();

        // Columns matched by identity and occurrence: one merge of the two
        // sorted identity lists.
        let (old_ids, new_ids) = (identities(old), identities(new));
        let (mut a, mut b) = (0, 0);
        let (mut old_key, mut new_key) = (Vec::new(), Vec::new());
        let (mut cols_shared, mut cols_retouched) = (0, 0);
        while a < old_ids.len() && b < new_ids.len() {
            match old_ids[a].0.cmp(&new_ids[b].0) {
                Ordering::Less => a += 1,
                Ordering::Greater => b += 1,
                Ordering::Equal => {
                    sorted_column(old, old_ids[a].1, &mut old_key);
                    sorted_column(new, new_ids[b].1, &mut new_key);
                    cols_shared += 1;
                    cols_retouched += usize::from(old_key != new_key);
                    a += 1;
                    b += 1;
                }
            }
        }
        FcmDelta {
            rows_added,
            rows_removed,
            rows_retouched,
            cols_added: new_ids.len() - cols_shared,
            cols_removed: old_ids.len() - cols_shared,
            cols_retouched,
        }
    }

    /// Delta between an FCM built at `since_generation` and one built from
    /// the current `view`, with retouched rows taken from the view's
    /// update journal.
    pub fn from_journal(
        old: &Fcm,
        new: &Fcm,
        view: &ControllerView,
        since_generation: u64,
    ) -> FcmDelta {
        FcmDelta::between(old, new, &view.touched_rules_since(since_generation))
    }

    /// Total column churn: added, removed and retouched columns.
    pub fn column_churn(&self) -> usize {
        self.cols_added + self.cols_removed + self.cols_retouched
    }

    /// `true` when nothing changed.
    pub fn is_empty(&self) -> bool {
        *self == FcmDelta::default()
    }
}

impl fmt::Display for FcmDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rows +{}/-{}/~{} cols +{}/-{}/~{}",
            self.rows_added,
            self.rows_removed,
            self.rows_retouched,
            self.cols_added,
            self.cols_removed,
            self.cols_retouched
        )
    }
}

/// Each column's identity — `(ingress, egress)` and its occurrence among
/// the columns sharing them — with its index, sorted by identity.
fn identities(fcm: &Fcm) -> Vec<((HostId, HostId, usize), usize)> {
    let mut order: Vec<usize> = (0..fcm.flow_count()).collect();
    order.sort_by_key(|&j| (fcm.ingress(j), fcm.egress(j)));
    let mut ids: Vec<((HostId, HostId, usize), usize)> = Vec::with_capacity(order.len());
    for j in order {
        let (from, to) = (fcm.ingress(j), fcm.egress(j));
        let k = match ids.last() {
            Some(&((f, t, k), _)) if (f, t) == (from, to) => k + 1,
            _ => 0,
        };
        ids.push(((from, to, k), j));
    }
    ids
}

/// Column `j`'s rule set, sorted, into `key`.
fn sorted_column(fcm: &Fcm, j: usize, key: &mut Vec<RuleRef>) {
    key.clear();
    key.extend(fcm.flow_rules(j));
    key.sort_unstable();
}

/// A placeholder with no settings, accepted by
/// [`IncrementalSolver::with_backend`] so that callers written against its
/// two-argument form keep compiling: the standalone `benchmark/` package
/// calls `IncrementalSolver::with_backend(RankBudget::default(), …)`.
/// Nothing reads it; it goes with the next change to those callers.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankBudget {}

/// Which solve path a detection round took — surfaced through
/// `RuntimeMetrics` and the epoch log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolvePath {
    /// The first solve of this basis by this solver, a solve after
    /// [`IncrementalSolver::invalidate`], or any dense-backend solve.
    Cold,
    /// The solver solved this same memoized basis last: the round only
    /// solved on the factor the FCM already holds.
    Warm,
}

impl SolvePath {
    /// `true` for the warm (factor-reusing) path.
    pub fn is_warm(&self) -> bool {
        matches!(self, SolvePath::Warm)
    }
}

impl fmt::Display for SolvePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SolvePath::Warm => "warm",
            SolvePath::Cold => "cold",
        })
    }
}

/// A warm equation-system solver: the direct normal-equation path of
/// [`crate::EquationSystem`], labelled by whether the round re-solved the
/// basis solved the round before.
///
/// Feed it each epoch's `(fcm, counters)`. On the default sparse backend
/// it solves on the factor memoized on the FCM's basis, so an unchanged
/// FCM only solves and a rebuilt one factors once; the result is bit for
/// bit that of [`crate::EquationSystem`] on the same FCM. It keeps a weak
/// reference to the basis it solved last only to report
/// [`SolvePath::Warm`] when the next round solves the same one. On the dense backend every call is the
/// per-call dense reference of [`crate::EquationSystem`] and reports
/// [`SolvePath::Cold`].
///
/// # Example
///
/// ```
/// use foces::{Fcm, IncrementalSolver};
/// use foces_controlplane::{provision, uniform_flows, RuleGranularity};
/// use foces_dataplane::LossModel;
/// use foces_net::generators::fattree;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topo = fattree(4);
/// let flows = uniform_flows(&topo, 240_000.0);
/// let mut dep = provision(topo, &flows, RuleGranularity::PerDestination)?;
/// let fcm = Fcm::from_view(&dep.view);
/// dep.replay_traffic(&mut LossModel::none());
/// let counters = dep.dataplane.collect_counters();
///
/// let mut solver = IncrementalSolver::default();
/// let (_, first) = solver.solve(&fcm, &counters)?;
/// let (_, second) = solver.solve(&fcm, &counters)?;
/// assert!(!first.is_warm()); // first solve of this basis
/// assert!(second.is_warm()); // the same memoized basis again
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct IncrementalSolver {
    backend: BackendKind,
    /// The basis of the last sparse solve. The weak reference keeps the
    /// basis' allocation, so its address cannot be recycled by a later
    /// basis, without keeping its factor alive once its FCM is gone.
    last: Option<Weak<BasisSystem>>,
    /// CGLS iterations spent by the most recent solve (0 on direct paths).
    last_iterations: u64,
}

impl IncrementalSolver {
    /// Creates a solver with an explicit backend. `Sparse` (the default)
    /// and `Auto` solve on the FCM's memoized sparse factor (PCGLS
    /// fallback); `Dense` solves each call on a fresh dense Gram factor.
    /// The [`RankBudget`] is ignored.
    pub fn with_backend(_budget: RankBudget, backend: BackendKind) -> Self {
        IncrementalSolver {
            backend,
            ..IncrementalSolver::default()
        }
    }

    /// The configured backend.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// CGLS iterations spent by the most recent solve (0 for direct
    /// methods and the dense backend).
    pub fn last_iterations(&self) -> u64 {
        self.last_iterations
    }

    /// Forgets the last basis; the next solve reports [`SolvePath::Cold`].
    /// The factor stays memoized on its FCM.
    pub fn invalidate(&mut self) {
        self.last = None;
    }

    /// `true` once a sparse solve has run since construction or the last
    /// [`IncrementalSolver::invalidate`] (never on the dense backend).
    pub fn is_warm(&self) -> bool {
        self.last.is_some()
    }

    /// Solves `min ‖H·X − Y'‖` like [`crate::EquationSystem::solve`] on
    /// the same backend. Returns the outcome together with the
    /// [`SolvePath`] taken.
    ///
    /// # Errors
    ///
    /// * [`FocesError::EmptyFcm`] if the FCM has no flows;
    /// * [`FocesError::CounterLengthMismatch`] if `counters.len()` differs
    ///   from the FCM's rule count;
    /// * [`FocesError::NonFiniteCounter`] if a counter is `NaN` or
    ///   infinite;
    /// * [`FocesError::Solver`] if every solve path fails.
    pub fn solve(
        &mut self,
        fcm: &Fcm,
        counters: &[f64],
    ) -> Result<(SolveOutcome, SolvePath), FocesError> {
        if self.backend == BackendKind::Dense {
            self.last_iterations = 0;
            let outcome = EquationSystem::new(BackendKind::Dense).solve(fcm, counters)?;
            return Ok((outcome, SolvePath::Cold));
        }
        crate::solver::check_counters(fcm, counters)?;
        let system = fcm.basis_system();
        let sol =
            foces_sparse::solve_factored(system.cholesky(), counters).map_err(FocesError::from)?;
        self.last_iterations = sol.iterations;
        let path = match &self.last {
            Some(prev) if std::ptr::eq(prev.as_ptr(), Arc::as_ptr(system)) => SolvePath::Warm,
            _ => {
                self.last = Some(Arc::downgrade(system));
                SolvePath::Cold
            }
        };
        Ok((system.expand(counters, sol.x)?, path))
    }
}
