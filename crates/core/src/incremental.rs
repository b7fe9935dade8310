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
//! So maintaining the cached factorization of `G` reduces to **basis-column
//! appends and removals**, exactly the `O(n²)` operations
//! [`foces_linalg::FactorCache`] provides.
//!
//! [`IncrementalSolver`] owns such a cache keyed by each basis column's
//! sorted rule set, diffs it against the current FCM on every call, patches
//! the factor within a [`RankBudget`], verifies the patched factor with one
//! step of iterative refinement, and falls back to a full refactorization
//! whenever the budget, the cumulative drift cap, or the refinement
//! residual says the shortcut is no longer trustworthy. Every call reports
//! which path ran via [`SolvePath`] so the runtime can log and meter it.
//! The equivalence guarantee — warm and cold residuals agree to solver
//! tolerance, so a verdict can never differ — is pinned by the property
//! tests in `tests/incremental_props.rs`.

use crate::{Fcm, FocesError, MaskedFcm, SolveOutcome};
use foces_atpg::LogicalFlow;
use foces_controlplane::ControllerView;
use foces_dataplane::RuleRef;
use foces_linalg::{CsrMatrix, FactorCache, LinalgError};
use foces_sparse::{BackendKind, ResolvedBackend, SolveBackend, SparseEngine};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Structural difference between two FCMs — the per-epoch churn summary.
///
/// Rows are keyed by rule identity ([`RuleRef`]); columns by flow identity
/// (the `(ingress, egress)` pair, with repeated pairs matched by occurrence
/// order). "Retouched" rows are rules present in both FCMs whose counters
/// an update polluted mid-epoch (from the controller's update journal);
/// "retouched" columns are flows whose rule set changed — the reroutes.
///
/// The delta is what the runtime budgets and reports; the warm solver
/// performs its own basis-level diff internally (several flows can share
/// one basis column, so column churn over-approximates factor churn).
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

    /// Total column churn — the quantity the rank budget is compared
    /// against (each added/removed/retouched column costs at most one
    /// factor removal plus one append).
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

/// When the warm solver may keep patching and when it must refactorize.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankBudget {
    /// Per-epoch floor: always allow at least this many column edits.
    pub min_columns: usize,
    /// Per-epoch cap as a fraction of the factor dimension: editing more
    /// than `fraction·n` columns costs as much as refactorizing.
    pub fraction: f64,
    /// Cumulative cap: once `applied_rank` (rank-one modifications since
    /// the last full factorization) exceeds `drift_fraction·n`, refactorize
    /// to shed accumulated floating-point drift.
    pub drift_fraction: f64,
}

impl Default for RankBudget {
    fn default() -> Self {
        RankBudget {
            min_columns: 8,
            fraction: 0.25,
            drift_fraction: 1.0,
        }
    }
}

impl RankBudget {
    /// The per-epoch edit allowance for a factor of dimension `n`.
    pub fn allowance(&self, n: usize) -> usize {
        self.min_columns.max((self.fraction * n as f64) as usize)
    }

    /// The cumulative drift cap for a factor of dimension `n`.
    pub fn drift_cap(&self, n: usize) -> usize {
        ((self.drift_fraction * n as f64) as usize).max(self.min_columns)
    }
}

/// Why a solve ran cold (full refactorization) instead of warm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ColdReason {
    /// First solve, or the cache was explicitly invalidated.
    NoCache,
    /// The basis delta exceeded the per-epoch rank budget.
    BudgetExceeded,
    /// Cumulative patches since the last refactorization hit the drift cap.
    DriftCap,
    /// A patched append hit a (near-)singular pivot.
    Singular,
    /// Iterative refinement could not certify the patched factor.
    Conditioning,
    /// The Gram matrix itself is rank deficient; solved via the QR
    /// fallback, nothing cached.
    RankDeficient,
    /// Sparse backend: the Gram sparsity pattern changed since the last
    /// epoch, so the symbolic analysis (ordering, elimination tree) had to
    /// be redone — the sparse analogue of a dense refactorization.
    PatternChanged,
}

/// Which solve path a detection round actually took — surfaced through
/// `RuntimeMetrics` and the epoch log so operators can see the incremental
/// pipeline working (or falling back).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum SolvePath {
    /// Full refactorization.
    Cold {
        /// Why the warm path was not taken.
        reason: ColdReason,
    },
    /// Cached factor patched and reused.
    Warm {
        /// Rank-one modifications applied this round (0 = pure reuse).
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
                    ColdReason::BudgetExceeded => "budget-exceeded",
                    ColdReason::DriftCap => "drift-cap",
                    ColdReason::Singular => "singular",
                    ColdReason::Conditioning => "conditioning",
                    ColdReason::RankDeficient => "rank-deficient",
                    ColdReason::PatternChanged => "pattern-changed",
                };
                write!(f, "cold({r})")
            }
        }
    }
}

/// Relative normal-equation residual above which a refined warm solve is
/// distrusted and the round falls back to a cold factorization. Far above
/// round-off for a healthy factor, far below anything that could move a
/// verdict (the detector's own noise floor is `1e-7·scale`).
const REFINEMENT_TOL: f64 = 1e-6;

/// A warm equation-system solver: the direct normal-equation path of
/// [`crate::EquationSystem`] with a cross-epoch cached factorization.
///
/// Feed it each epoch's `(fcm, counters)`; it diffs the FCM's column basis
/// against its cache by rule-set identity, patches the cached `HᵀH = LLᵀ`
/// factor (column appends/removals), and solves with one step of iterative
/// refinement. Any doubt — budget exceeded, drift cap hit, singular pivot,
/// refinement residual too large — and it silently refactorizes, so results
/// are always exactly as trustworthy as the cold path.
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
    budget: RankBudget,
    cache: Option<WarmState>,
    backend: BackendKind,
    /// Cross-epoch sparse-engine state (symbolic analysis, PCGLS
    /// preconditioner) — the sparse counterpart of `cache`.
    engine: SparseEngine,
    /// Basis keys from the last sparse solve, for FcmDelta-style churn
    /// accounting (drives preconditioner refresh and warm/cold reporting).
    sparse_keys: Vec<Vec<RuleRef>>,
    /// Whether the sparse engine has completed a solve since the last
    /// invalidation (distinguishes a cold first solve from a pattern
    /// change).
    sparse_ready: bool,
    /// CGLS iterations spent by the most recent solve (0 on direct paths).
    last_iterations: u64,
}

/// The cached factor plus the rule-set key of each factor position.
#[derive(Debug, Clone)]
struct WarmState {
    factor: FactorCache,
    /// `keys[p]` = sorted rule set of the basis column at factor position
    /// `p`. Rule-set identity is stable across FCM rebuilds, row
    /// reindexing, and flow reordering — the whole point of the cache.
    keys: Vec<Vec<RuleRef>>,
}

impl IncrementalSolver {
    /// Creates a solver with an explicit rank budget and the default
    /// ([`BackendKind::Dense`]) backend.
    pub fn new(budget: RankBudget) -> Self {
        IncrementalSolver {
            budget,
            ..IncrementalSolver::default()
        }
    }

    /// Creates a solver with an explicit backend. `Dense` keeps the
    /// `FactorCache` warm/cold ladder; `Sparse` routes every solve through
    /// the [`SparseEngine`] (symbolic reuse + preconditioned CGLS); `Auto`
    /// resolves per basis size.
    pub fn with_backend(budget: RankBudget, backend: BackendKind) -> Self {
        IncrementalSolver {
            budget,
            backend,
            ..IncrementalSolver::default()
        }
    }

    /// The configured budget.
    pub fn budget(&self) -> RankBudget {
        self.budget
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

    /// Drops the cached factor and all sparse-engine state; the next solve
    /// runs cold.
    pub fn invalidate(&mut self) {
        self.cache = None;
        self.engine.invalidate();
        self.sparse_keys.clear();
        self.sparse_ready = false;
    }

    /// `true` once cross-epoch state is held (dense factor or sparse
    /// engine).
    pub fn is_warm(&self) -> bool {
        self.cache.is_some() || self.sparse_ready
    }

    /// Solves `min ‖H·X − Y'‖` like [`crate::EquationSystem::solve`] with
    /// [`crate::SolverKind::DirectDense`], reusing the cached factorization
    /// when the FCM's column basis is close enough to the cached one.
    /// Returns the outcome together with the [`SolvePath`] taken.
    ///
    /// # Errors
    ///
    /// * [`FocesError::EmptyFcm`] if the FCM has no flows;
    /// * [`FocesError::CounterLengthMismatch`] if `counters.len()` differs
    ///   from the FCM's rule count;
    /// * [`FocesError::Solver`] if every solve path fails.
    pub fn solve(
        &mut self,
        fcm: &Fcm,
        counters: &[f64],
    ) -> Result<(SolveOutcome, SolvePath), FocesError> {
        if fcm.flow_count() == 0 {
            return Err(FocesError::EmptyFcm);
        }
        if counters.len() != fcm.rule_count() {
            return Err(FocesError::CounterLengthMismatch {
                got: counters.len(),
                expected: fcm.rule_count(),
            });
        }
        let groups = fcm.column_groups();
        let h_basis = fcm.sparse().select_columns(&groups.basis);
        let keys: Vec<Vec<RuleRef>> = groups
            .basis
            .iter()
            .map(|&j| {
                let mut k = fcm.flows()[j].rules.clone();
                k.sort_unstable();
                k
            })
            .collect();

        let (path, x_basis) = self.solve_basis(&h_basis, counters, &keys)?;
        Ok((expand(fcm, &groups, &h_basis, counters, x_basis)?, path))
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
        if fcm.flow_count() == 0 {
            return Err(FocesError::EmptyFcm);
        }
        if counters.len() != fcm.rule_count() {
            return Err(FocesError::CounterLengthMismatch {
                got: counters.len(),
                expected: fcm.rule_count(),
            });
        }
        let masked = fcm.mask_rows(observed);
        let sub = masked.project(counters);
        let (outcome, path) = self.solve(masked.fcm(), &sub)?;
        Ok((masked, outcome, path))
    }

    /// Produces the basis solution, deciding warm vs. cold.
    fn solve_basis(
        &mut self,
        h_basis: &CsrMatrix,
        counters: &[f64],
        keys: &[Vec<RuleRef>],
    ) -> Result<(SolvePath, Vec<f64>), FocesError> {
        if self.backend.resolve(h_basis.cols()) == ResolvedBackend::Sparse {
            return self.solve_basis_sparse(h_basis, counters, keys);
        }
        self.last_iterations = 0;
        let rhs = h_basis
            .transpose_matvec(counters)
            .map_err(FocesError::from)?;
        let reason = match self.try_warm(h_basis, keys, &rhs) {
            Ok(outcome) => return Ok(outcome),
            Err(reason) => reason,
        };
        // Cold path: factor the current Gram matrix from scratch and cache
        // the factor; the warm path verifies against the sparse basis
        // itself. A rank-deficient basis
        // (duplicate-free but linearly dependent columns) falls through to
        // QR and caches nothing.
        self.cache = None;
        let gram = h_basis.gram_dense().map_err(FocesError::from)?;
        match FactorCache::factor(&gram) {
            Ok(factor) => {
                let x = factor.solve(&rhs).map_err(FocesError::from)?;
                self.cache = Some(WarmState {
                    factor,
                    keys: keys.to_vec(),
                });
                Ok((SolvePath::Cold { reason }, x))
            }
            Err(
                LinalgError::NotPositiveDefinite { .. } | LinalgError::SingularTriangular { .. },
            ) => {
                let dense = h_basis.try_to_dense().map_err(FocesError::from)?;
                let sol = foces_linalg::lstsq(&dense, counters, foces_linalg::LstsqMethod::Qr)
                    .map_err(FocesError::from)?;
                Ok((
                    SolvePath::Cold {
                        reason: ColdReason::RankDeficient,
                    },
                    sol.x,
                ))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Sparse-backend basis solve: routes through the engine's symbolic
    /// reuse / PCGLS ladder, driving the preconditioner lifecycle with the
    /// same basis-key diff the dense warm path budgets on, and mapping the
    /// engine's reuse report onto [`SolvePath`].
    fn solve_basis_sparse(
        &mut self,
        h_basis: &CsrMatrix,
        counters: &[f64],
        keys: &[Vec<RuleRef>],
    ) -> Result<(SolvePath, Vec<f64>), FocesError> {
        let was_ready = self.sparse_ready;
        // Basis churn since the last solve = FcmDelta at basis granularity:
        // any appearing/disappearing rule-set key shifts column norms, so a
        // nonzero delta refreshes the PCGLS preconditioner.
        let delta_rank = if was_ready {
            let prev: HashSet<&[RuleRef]> = self.sparse_keys.iter().map(|k| k.as_slice()).collect();
            let now: HashSet<&[RuleRef]> = keys.iter().map(|k| k.as_slice()).collect();
            prev.symmetric_difference(&now).count()
        } else {
            keys.len()
        };
        if delta_rank > 0 {
            self.engine.note_rank_growth(delta_rank);
        }
        let sol = self
            .engine
            .solve_basis(h_basis, counters)
            .map_err(FocesError::from)?;
        self.last_iterations = sol.iterations;
        self.sparse_keys = keys.to_vec();
        self.sparse_ready = true;
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

    /// Attempts the warm path; on `Err` returns the cold-fallback reason.
    /// The cache is left in a consistent state either way (it is dropped
    /// before any fallible patching begins and reinstated on success).
    fn try_warm(
        &mut self,
        h_basis: &CsrMatrix,
        keys: &[Vec<RuleRef>],
        rhs: &[f64],
    ) -> Result<(SolvePath, Vec<f64>), ColdReason> {
        let state = self.cache.as_ref().ok_or(ColdReason::NoCache)?;

        // Diff the cached factor positions against the wanted keys.
        let wanted: HashMap<&[RuleRef], usize> = keys
            .iter()
            .enumerate()
            .map(|(b, k)| (k.as_slice(), b))
            .collect();
        let cached: HashMap<&[RuleRef], usize> = state
            .keys
            .iter()
            .enumerate()
            .map(|(p, k)| (k.as_slice(), p))
            .collect();
        let mut to_remove: Vec<usize> = state
            .keys
            .iter()
            .enumerate()
            .filter(|(_, k)| !wanted.contains_key(k.as_slice()))
            .map(|(p, _)| p)
            .collect();
        let to_add: Vec<usize> = keys
            .iter()
            .enumerate()
            .filter(|(_, k)| !cached.contains_key(k.as_slice()))
            .map(|(b, _)| b)
            .collect();

        let delta_rank = to_remove.len() + to_add.len();
        let n = state.factor.dim();
        if delta_rank > self.budget.allowance(n) {
            return Err(ColdReason::BudgetExceeded);
        }
        if state.factor.applied_rank() + delta_rank > self.budget.drift_cap(n.max(keys.len())) {
            return Err(ColdReason::DriftCap);
        }

        // Take the state out: patching mutates it, and any failure from
        // here on must leave `self.cache` empty so the cold path rebuilds.
        let mut state = self.cache.take().expect("checked above");

        // One batched removal: a single compaction + Givens sweep for the
        // whole round (per-position removal would copy the factor k times).
        to_remove.sort_unstable();
        state.factor.remove_batch(&to_remove);
        for &p in to_remove.iter().rev() {
            state.keys.remove(p);
        }
        // Appends: cross terms are intersection sizes against every key
        // currently in the factor (including keys appended this round).
        // Assembled up front, applied as one batched expansion.
        let mut crosses = Vec::with_capacity(to_add.len());
        let mut diags = Vec::with_capacity(to_add.len());
        for &b in &to_add {
            let key = &keys[b];
            crosses.push(
                state
                    .keys
                    .iter()
                    .map(|k| sorted_intersection_size(key, k) as f64)
                    .collect::<Vec<f64>>(),
            );
            diags.push(key.len() as f64);
            state.keys.push(key.clone());
        }
        if state.factor.append_batch(&crosses, &diags).is_err() {
            return Err(ColdReason::Singular);
        }
        // Rank-one modifications this round (the cumulative count since the
        // last refactorization feeds the drift cap above, not this report).
        let rank_applied = delta_rank;

        // The factor's positions are in cache order, not basis order —
        // permute the RHS in, solve with refinement, permute the result
        // back out.
        let pos_of: HashMap<&[RuleRef], usize> = state
            .keys
            .iter()
            .enumerate()
            .map(|(p, k)| (k.as_slice(), p))
            .collect();
        let mut rhs_factor = vec![0.0; rhs.len()];
        for (b, key) in keys.iter().enumerate() {
            rhs_factor[pos_of[key.as_slice()]] = rhs[b];
        }
        let x_factor = match state.factor.solve(&rhs_factor) {
            Ok(x) => x,
            Err(_) => return Err(ColdReason::Singular),
        };
        let mut x = vec![0.0; keys.len()];
        for (b, key) in keys.iter().enumerate() {
            x[b] = x_factor[pos_of[key.as_slice()]];
        }

        // Verify against the *real* sparse basis, not the cached Gram
        // matrix (which could itself have drifted): the normal residual
        // ‖Hᵀ(Hx) − rhs‖ / ‖rhs‖ from one sparse mat-vec pair — cheap
        // relative to any factor work. A patched factor in good shape
        // passes immediately; one that has drifted gets a single
        // warm-started refinement step before the solver gives up on it.
        let mut residual = normal_residual(h_basis, &x, rhs)?;
        if residual.1 > REFINEMENT_TOL {
            let mut r_factor = vec![0.0; rhs.len()];
            for (b, key) in keys.iter().enumerate() {
                r_factor[pos_of[key.as_slice()]] = residual.0[b];
            }
            let dx = match state.factor.solve(&r_factor) {
                Ok(dx) => dx,
                Err(_) => return Err(ColdReason::Singular),
            };
            for (b, key) in keys.iter().enumerate() {
                x[b] += dx[pos_of[key.as_slice()]];
            }
            residual = normal_residual(h_basis, &x, rhs)?;
            if residual.1 > REFINEMENT_TOL {
                return Err(ColdReason::Conditioning);
            }
        }

        self.cache = Some(state);
        Ok((SolvePath::Warm { rank_applied }, x))
    }
}

/// Normal-equation residual `rhs − Hᵀ(Hx)` of the sparse basis system,
/// with its norm relative to `‖rhs‖`. `Err` means the residual is not even
/// finite — the warm path treats that as a conditioning failure.
fn normal_residual(
    h_basis: &CsrMatrix,
    x: &[f64],
    rhs: &[f64],
) -> Result<(Vec<f64>, f64), ColdReason> {
    let fitted = h_basis.matvec(x).map_err(|_| ColdReason::Conditioning)?;
    let hthx = h_basis
        .transpose_matvec(&fitted)
        .map_err(|_| ColdReason::Conditioning)?;
    let r: Vec<f64> = rhs.iter().zip(&hthx).map(|(b, a)| b - a).collect();
    let num = r.iter().map(|v| v * v).sum::<f64>().sqrt();
    let den = rhs
        .iter()
        .map(|v| v * v)
        .sum::<f64>()
        .sqrt()
        .max(f64::MIN_POSITIVE);
    let rel = num / den;
    if !rel.is_finite() {
        return Err(ColdReason::Conditioning);
    }
    Ok((r, rel))
}

/// `|a ∩ b|` for sorted slices.
fn sorted_intersection_size(a: &[RuleRef], b: &[RuleRef]) -> usize {
    let (mut i, mut j, mut count) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Expands a basis solution to the full [`SolveOutcome`] (fitted counters,
/// residual, per-flow volumes with duplicate groups split evenly) — the
/// same post-processing as the cold direct path.
fn expand(
    fcm: &Fcm,
    groups: &crate::ColumnGroups,
    h_basis: &CsrMatrix,
    counters: &[f64],
    x_basis: Vec<f64>,
) -> Result<SolveOutcome, FocesError> {
    let fitted = h_basis.matvec(&x_basis).map_err(FocesError::from)?;
    let residual: Vec<f64> = counters
        .iter()
        .zip(&fitted)
        .map(|(y, yh)| (y - yh).abs())
        .collect();
    let mut sizes = vec![0usize; groups.basis.len()];
    for &g in &groups.group_of {
        sizes[g] += 1;
    }
    let volume_estimate: Vec<f64> = groups
        .group_of
        .iter()
        .map(|&g| x_basis[g] / sizes[g] as f64)
        .collect();
    debug_assert_eq!(volume_estimate.len(), fcm.flow_count());
    Ok(SolveOutcome {
        volume_estimate,
        fitted_counters: fitted,
        residual,
    })
}
