//! Incremental cross-epoch solving: FCM deltas and a warm solver.
//!
//! FOCES solves `min ‖H·X − Y'‖` every collection epoch (paper §V-B), and
//! the paper's own overhead numbers (Fig. 12) show the matrix solve
//! dominating detection latency. Yet between consecutive epochs the FCM is
//! almost entirely unchanged: per-epoch work should be proportional to
//! *change*, not to network size.
//!
//! The key structural fact making that cheap: the solver works on the
//! deduplicated **column basis** (see [`Fcm::column_groups`]), and every
//! Gram entry `G[a][b] = |rules(a) ∩ rules(b)|` depends only on the two
//! columns' rule *sets* — [`foces_dataplane::RuleRef`] identities, not row
//! indices. Row churn (rules installed or removed without altering any
//! surviving flow's rule set) never perturbs `G`; it only changes how the
//! right-hand side `HᵀY'` is assembled, which is re-done each epoch anyway.
//! So the factor of `G` is a function of the FCM's basis alone.
//!
//! The basis — column groups, basis matrix, rule-set keys — and its sparse
//! Gram factor are the FCM's memoized [`BasisSystem`]
//! ([`Fcm::basis_system`]), built at most once per FCM. On the default
//! sparse backend, [`IncrementalSolver`] solves on that memoized factor and
//! keeps only the engine's cross-epoch state (held symbolic analysis, PCGLS
//! preconditioner), diffing rule-set keys between rounds to meter churn. A
//! steady-state round therefore costs a counter gather, `Hᵀy`, two
//! triangular solves and the residual — no grouping, no Gram, no factor.
//! The dense backend is the per-call reference: it forms and factors the
//! dense Gram every round, exactly as [`crate::EquationSystem`] does. Every
//! call reports which path ran via [`SolvePath`] so the runtime can log and
//! meter it.
//! The equivalence guarantee — warm and cold residuals agree to solver
//! tolerance, so a verdict can never differ — is pinned by the property
//! tests in `tests/incremental_props.rs`.

use crate::{BasisSystem, EquationSystem, Fcm, FocesError, MaskedFcm, SolveOutcome, SolverKind};
use foces_atpg::LogicalFlow;
use foces_controlplane::ControllerView;
use foces_dataplane::RuleRef;
use foces_sparse::{BackendKind, SparseEngine};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Structural difference between two FCMs — the per-epoch churn summary.
///
/// Rows are keyed by rule identity ([`RuleRef`]); columns by flow identity
/// (the `(ingress, egress)` pair, with repeated pairs matched by occurrence
/// order). "Retouched" rows are rules present in both FCMs whose counters
/// an update polluted mid-epoch (from the controller's update journal);
/// "retouched" columns are flows whose rule set changed — the reroutes.
///
/// The delta is what the runtime reports; the warm solver performs its own
/// basis-level diff internally (several flows can share one basis column,
/// so column churn over-approximates factor churn).
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

        let old_cols = flows_by_identity(old.flows());
        let new_cols = flows_by_identity(new.flows());
        let mut cols_added = 0;
        let mut cols_removed = 0;
        let mut cols_retouched = 0;
        for (id, new_sets) in &new_cols {
            match old_cols.get(id) {
                None => cols_added += new_sets.len(),
                Some(old_sets) => {
                    let shared = old_sets.len().min(new_sets.len());
                    cols_added += new_sets.len() - shared;
                    cols_retouched += (0..shared).filter(|&k| old_sets[k] != new_sets[k]).count();
                }
            }
        }
        for (id, old_sets) in &old_cols {
            let shared = new_cols.get(id).map_or(0, |s| s.len().min(old_sets.len()));
            cols_removed += old_sets.len() - shared;
        }
        FcmDelta {
            rows_added,
            rows_removed,
            rows_retouched,
            cols_added,
            cols_removed,
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

/// Sorted rule sets per flow identity, in occurrence order.
fn flows_by_identity(
    flows: &[LogicalFlow],
) -> HashMap<(foces_net::HostId, foces_net::HostId), Vec<Vec<RuleRef>>> {
    let mut map: HashMap<_, Vec<Vec<RuleRef>>> = HashMap::new();
    for f in flows {
        let mut key: Vec<RuleRef> = f.rules.clone();
        key.sort_unstable();
        map.entry((f.ingress, f.egress)).or_default().push(key);
    }
    map
}

/// A placeholder with no settings, accepted by
/// [`IncrementalSolver::with_backend`] so that callers written against its
/// two-argument form keep compiling: the standalone `benchmark/` package
/// calls `IncrementalSolver::with_backend(RankBudget::default(), …)`.
/// Nothing reads it; it goes with the next change to those callers.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankBudget {}

/// Why a solve ran cold instead of warm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ColdReason {
    /// First solve, the cache was explicitly invalidated, or the dense
    /// backend, which holds nothing across calls.
    NoCache,
    /// The Gram sparsity pattern changed since the last epoch, so the
    /// symbolic analysis (ordering, elimination tree) had to be redone.
    PatternChanged,
}

/// Which solve path a detection round actually took — surfaced through
/// `RuntimeMetrics` and the epoch log so operators can see the incremental
/// pipeline working (or falling back).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum SolvePath {
    /// A fresh symbolic analysis or a per-call dense factor.
    Cold {
        /// Why the warm path was not taken.
        reason: ColdReason,
    },
    /// The held symbolic analysis was reused.
    Warm {
        /// Basis columns that appeared or disappeared since the last
        /// solve (0 = the same FCM).
        rank_applied: usize,
    },
}

impl SolvePath {
    /// `true` for the warm (factor-reusing) path.
    pub fn is_warm(&self) -> bool {
        matches!(self, SolvePath::Warm { .. })
    }
}

impl fmt::Display for SolvePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolvePath::Warm { rank_applied } => write!(f, "warm(rank={rank_applied})"),
            SolvePath::Cold { reason } => {
                let r = match reason {
                    ColdReason::NoCache => "no-cache",
                    ColdReason::PatternChanged => "pattern-changed",
                };
                write!(f, "cold({r})")
            }
        }
    }
}

/// A warm equation-system solver: the direct normal-equation path of
/// [`crate::EquationSystem`] with cross-epoch engine state.
///
/// Feed it each epoch's `(fcm, counters)`. On the default sparse backend
/// it solves on the factor memoized on the FCM's basis, so an unchanged
/// FCM only solves and a rebuilt one factors once; the engine's held
/// analysis and PCGLS preconditioner carry across rounds. On the dense
/// backend every call is the per-call dense reference of
/// [`crate::EquationSystem`] and reports [`ColdReason::NoCache`].
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
/// assert!(!first.is_warm()); // nothing cached yet
/// assert!(second.is_warm()); // identical FCM: pure reuse
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct IncrementalSolver {
    backend: BackendKind,
    /// Cross-epoch sparse-engine state (held analysis, PCGLS
    /// preconditioner); the factor itself is memoized on the FCM's
    /// [`BasisSystem`].
    engine: SparseEngine,
    /// The basis of the last sparse solve (its keys memoized), for
    /// FcmDelta-style churn accounting (drives preconditioner refresh and
    /// warm/cold reporting).
    sparse_basis: Option<Arc<BasisSystem>>,
    /// CGLS iterations spent by the most recent solve (0 on direct paths).
    last_iterations: u64,
}

impl IncrementalSolver {
    /// Creates a solver with an explicit backend. `Sparse` (the default)
    /// and `Auto` route every solve through the [`SparseEngine`] on the
    /// FCM's memoized sparse factor (PCGLS fallback); `Dense` solves each
    /// call on a fresh dense Gram factor. The [`RankBudget`] is ignored.
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

    /// Drops all sparse-engine state; the next solve runs cold.
    pub fn invalidate(&mut self) {
        self.engine.invalidate();
        self.sparse_basis = None;
    }

    /// `true` once cross-epoch sparse-engine state is held (never on the
    /// dense backend).
    pub fn is_warm(&self) -> bool {
        self.sparse_basis.is_some()
    }

    /// Solves `min ‖H·X − Y'‖` like [`crate::EquationSystem::solve`] with
    /// [`crate::SolverKind::DirectDense`] on the same backend, reusing the
    /// engine's held state across rounds. Returns the outcome together
    /// with the [`SolvePath`] taken.
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
            let outcome = EquationSystem::new(SolverKind::DirectDense)
                .with_backend(BackendKind::Dense)
                .solve(fcm, counters)?;
            let path = SolvePath::Cold {
                reason: ColdReason::NoCache,
            };
            return Ok((outcome, path));
        }
        crate::solver::check_counters(fcm, counters)?;
        let system = fcm.basis_system();
        let (path, x_basis) = self.solve_sparse(fcm, system, counters)?;
        Ok((system.expand(counters, x_basis)?, path))
    }

    /// Row-masked warm solve: the warm counterpart of
    /// [`crate::EquationSystem::solve_masked`]. The masked sub-FCM's rule
    /// sets differ from the full FCM's, so use a *dedicated*
    /// `IncrementalSolver` per recurring mask (e.g. per set of silent
    /// switches) — reuse only pays off while the mask repeats.
    ///
    /// # Errors
    ///
    /// As for [`IncrementalSolver::solve`]; additionally
    /// [`FocesError::EmptyFcm`] if masking dropped every flow.
    ///
    /// # Panics
    ///
    /// Panics if `observed.len() != fcm.rule_count()`.
    pub fn solve_masked(
        &mut self,
        fcm: &Fcm,
        counters: &[f64],
        observed: &[bool],
    ) -> Result<(MaskedFcm, SolveOutcome, SolvePath), FocesError> {
        crate::solver::check_shape(fcm, counters)?;
        let masked = fcm.mask_rows(observed);
        let sub = masked.project(counters);
        let (outcome, path) = self.solve(masked.fcm(), &sub)?;
        Ok((masked, outcome, path))
    }

    /// Sparse-backend basis solve: routes through the engine on the FCM's
    /// memoized factor (PCGLS fallback), driving the preconditioner
    /// lifecycle with a basis-key diff, and mapping the engine's reuse
    /// report onto [`SolvePath`].
    fn solve_sparse(
        &mut self,
        fcm: &Fcm,
        system: &Arc<BasisSystem>,
        counters: &[f64],
    ) -> Result<(SolvePath, Vec<f64>), FocesError> {
        let was_ready = self.sparse_basis.is_some();
        // Basis churn since the last solve = FcmDelta at basis granularity:
        // any appearing/disappearing rule-set key shifts column norms, so a
        // nonzero delta refreshes the PCGLS preconditioner. An unchanged
        // FCM shares its basis and has none.
        let same = matches!(&self.sparse_basis, Some(prev) if Arc::ptr_eq(prev, system));
        let delta_rank = match &self.sparse_basis {
            _ if same => 0,
            Some(prev) => {
                let prev: HashSet<&[RuleRef]> =
                    prev.memoized_keys().iter().map(|k| k.as_slice()).collect();
                let now: HashSet<&[RuleRef]> =
                    fcm.basis_keys().iter().map(|k| k.as_slice()).collect();
                prev.symmetric_difference(&now).count()
            }
            None => system.cols(),
        };
        if delta_rank > 0 {
            self.engine.note_rank_growth(delta_rank);
        }
        let sol = self
            .engine
            .solve_factored(system.cholesky(), counters)
            .map_err(FocesError::from)?;
        if !same {
            // Adopt the basis, its keys memoized for the next diff.
            fcm.basis_keys();
            self.sparse_basis = Some(Arc::clone(system));
        }
        self.last_iterations = sol.iterations;
        let path = if sol.reused && was_ready {
            SolvePath::Warm {
                rank_applied: delta_rank,
            }
        } else if was_ready {
            SolvePath::Cold {
                reason: ColdReason::PatternChanged,
            }
        } else {
            SolvePath::Cold {
                reason: ColdReason::NoCache,
            }
        };
        Ok((path, sol.x))
    }
}
