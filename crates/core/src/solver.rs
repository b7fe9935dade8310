use crate::{Fcm, FocesError, MaskedFcm};
use foces_linalg::{lstsq, lstsq_sparse, DenseMatrix, LinalgError, LstsqMethod};
use foces_sparse::BackendKind;

/// Strategy for solving the flow-counter equation system.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub enum SolverKind {
    /// Direct solve of the normal equations (the paper's Eq. 4) over the
    /// FCM's deduplicated basis, through the configured [`BackendKind`]:
    /// the sparse engine on the FCM's memoized factor, or a per-call dense
    /// factor with a QR fallback on numerically deficient input. Falls
    /// back to CGLS when the Gram is singular.
    #[default]
    DirectDense,
    /// Iterative sparse CGLS: `O(nnz)` per iteration, the scalability path
    /// for large FCMs (paper Fig. 12's 12 K-flow regime).
    IterativeSparse {
        /// Relative convergence tolerance on the normal-equation residual.
        tol: f64,
        /// Iteration budget.
        max_iter: usize,
    },
    /// The paper's Eq. (4) pipeline taken literally, with no structure
    /// exploitation: densify the basis, form `HᵀH` by dense matmul,
    /// explicitly invert it, then multiply. This is how the paper's
    /// NumPy prototype computes a detection round, and it is what the
    /// Fig. 12 scalability experiment times as "FOCES without slicing" —
    /// [`SolverKind::DirectDense`] exploits the FCM's block structure and
    /// would hide the `O(N³)` curve the paper reports.
    DenseNaive,
}

impl SolverKind {
    /// Default CGLS tolerance.
    pub const DEFAULT_TOL: f64 = 1e-10;

    /// Default CGLS iteration budget.
    pub const DEFAULT_MAX_ITER: usize = 5000;
}

/// Result of one equation-system solve (one detection round's numerics).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOutcome {
    /// Estimated volume per logical flow, `X̂` (paper Eq. 4). Where several
    /// flows share an identical rule set (duplicate FCM columns, see
    /// [`Fcm::column_groups`]) only their *sum* is identifiable; the
    /// estimate splits the group total evenly among its members.
    pub volume_estimate: Vec<f64>,
    /// Fitted counter vector `Ŷ = H·X̂`.
    pub fitted_counters: Vec<f64>,
    /// Error vector `Δ = |Y' − Ŷ|` (paper Eq. 5) — the detector's input.
    pub residual: Vec<f64>,
}

/// The Equation System Solver of the FOCES architecture (paper Fig. 6):
/// given the FCM and a collected counter vector, produces the least-squares
/// volume estimate and the residual.
///
/// # Example
///
/// ```
/// use foces::{EquationSystem, Fcm, SolverKind};
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
/// let outcome = EquationSystem::new(SolverKind::DirectDense)
///     .solve(&fcm, &dep.dataplane.collect_counters())?;
/// // Healthy, lossless network: residual is (numerically) zero.
/// assert!(outcome.residual.iter().all(|r| r.abs() < 1e-6));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EquationSystem {
    kind: SolverKind,
    backend: BackendKind,
}

impl EquationSystem {
    /// Creates a solver with the given strategy and the default
    /// ([`BackendKind::Sparse`]) backend, which solves on the factor
    /// memoized on each FCM's basis.
    pub fn new(kind: SolverKind) -> Self {
        EquationSystem {
            kind,
            backend: BackendKind::default(),
        }
    }

    /// Selects the solve backend: `Sparse` (the default: AMD + sparse
    /// Cholesky memoized per FCM, PCGLS fallback), `Auto` (the same), or
    /// `Dense`, which forms and factors the dense Gram on every call — the
    /// independent reference, refused past the dense allocation cap.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// The configured strategy.
    pub fn kind(&self) -> SolverKind {
        self.kind
    }

    /// The configured storage backend.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Solves `min ‖H·X − Y'‖` and derives `Ŷ` and `Δ`.
    ///
    /// # Errors
    ///
    /// * [`FocesError::EmptyFcm`] if the FCM has no flows — checked first:
    ///   an empty system has no meaningful counter length to validate
    ///   against, so reporting a length mismatch there would misdiagnose
    ///   the real problem;
    /// * [`FocesError::CounterLengthMismatch`] if `counters.len()` differs
    ///   from the FCM's rule count;
    /// * [`FocesError::NonFiniteCounter`] if a counter is `NaN` or
    ///   infinite;
    /// * [`FocesError::Solver`] if every solve path fails.
    pub fn solve(&self, fcm: &Fcm, counters: &[f64]) -> Result<SolveOutcome, FocesError> {
        check_counters(fcm, counters)?;
        match self.kind {
            SolverKind::DirectDense => match solve_direct(fcm, counters, self.backend) {
                Ok(out) => Ok(out),
                // Residual dependencies beyond duplicate columns: fall back
                // to the iterative path, which tolerates rank deficiency.
                Err(
                    LinalgError::NotPositiveDefinite { .. }
                    | LinalgError::SingularTriangular { .. }
                    | LinalgError::RankDeficient { .. },
                ) => solve_iterative(
                    fcm,
                    counters,
                    SolverKind::DEFAULT_TOL,
                    SolverKind::DEFAULT_MAX_ITER,
                )
                .map_err(FocesError::from),
                Err(e) => Err(e.into()),
            },
            SolverKind::IterativeSparse { tol, max_iter } => {
                solve_iterative(fcm, counters, tol, max_iter).map_err(FocesError::from)
            }
            SolverKind::DenseNaive => solve_naive(fcm, counters).map_err(FocesError::from),
        }
    }

    /// Row-masked solve: restricts the system to the rows marked `true` in
    /// `observed` (switches that actually answered this round) and solves
    /// the sub-system. `counters` is the *full-length* vector; unobserved
    /// entries are ignored, so callers may leave stale or zero placeholders
    /// there. Returns the mask (for row bookkeeping and oracle queries)
    /// alongside the outcome, whose vectors are in *masked* row order —
    /// map back with [`MaskedFcm::parent_rows`].
    ///
    /// # Errors
    ///
    /// * [`FocesError::EmptyFcm`] if the FCM has no flows to begin with
    ///   (checked first, as in [`EquationSystem::solve`]), or if masking
    ///   leaves none (every flow lost all its rules — the fully-blind
    ///   round);
    /// * [`FocesError::CounterLengthMismatch`] if `counters.len()` differs
    ///   from the full FCM's rule count;
    /// * [`FocesError::NonFiniteCounter`] if an *observed* counter is
    ///   `NaN` or infinite;
    /// * [`FocesError::Solver`] as for [`EquationSystem::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `observed.len() != fcm.rule_count()`.
    pub fn solve_masked(
        &self,
        fcm: &Fcm,
        counters: &[f64],
        observed: &[bool],
    ) -> Result<(MaskedFcm, SolveOutcome), FocesError> {
        check_shape(fcm, counters)?;
        let masked = fcm.mask_rows(observed);
        let sub = masked.project(counters);
        let outcome = self.solve(masked.fcm(), &sub)?;
        Ok((masked, outcome))
    }
}

/// The shape check every solve entry point shares: an FCM with flows and
/// one counter per rule. [`FocesError::EmptyFcm`] is reported first — an
/// empty system has no meaningful counter length to validate against.
pub(crate) fn check_shape(fcm: &Fcm, counters: &[f64]) -> Result<(), FocesError> {
    if fcm.flow_count() == 0 {
        return Err(FocesError::EmptyFcm);
    }
    if counters.len() != fcm.rule_count() {
        return Err(FocesError::CounterLengthMismatch {
            got: counters.len(),
            expected: fcm.rule_count(),
        });
    }
    Ok(())
}

/// [`check_shape`] plus finiteness: a `NaN` or infinite counter (a
/// Byzantine agent can report any `f64`) is refused at the solve boundary
/// instead of poisoning the residual statistics.
pub(crate) fn check_counters(fcm: &Fcm, counters: &[f64]) -> Result<(), FocesError> {
    check_shape(fcm, counters)?;
    match counters.iter().position(|v| !v.is_finite()) {
        Some(row) => Err(FocesError::NonFiniteCounter {
            row,
            value: counters[row],
        }),
        None => Ok(()),
    }
}

/// Paper-literal pipeline: `X̂ = (HᵀH)⁻¹ Hᵀ Y'` with dense, structure-blind
/// operations throughout (see [`SolverKind::DenseNaive`]).
fn solve_naive(fcm: &Fcm, counters: &[f64]) -> Result<SolveOutcome, LinalgError> {
    let system = fcm.basis_system();
    let h_basis = system.basis().try_to_dense()?;
    let gram = h_basis.transpose().matmul(&h_basis)?;
    let inv = foces_linalg::Cholesky::factor(&gram)?.inverse()?;
    let rhs = h_basis.transpose_matvec(counters)?;
    let x_basis = inv.matvec(&rhs)?;
    system.expand(counters, x_basis)
}

/// Direct path: solve over the FCM's memoized deduplicated basis
/// ([`Fcm::basis_system`]) through the selected backend and expand the
/// estimate back to all flows. The dense backend forms the dense Gram and
/// factors it every call (the paper's Eq. (4) cost, refused past the dense
/// allocation cap), with a dense QR on the basis as the fallback for a
/// numerically deficient Gram. The sparse engine solves on the basis'
/// memoized sparse factor — the first solve of an FCM factors, every later
/// one only solves — and handles rank deficiency via PCGLS.
fn solve_direct(
    fcm: &Fcm,
    counters: &[f64],
    backend: BackendKind,
) -> Result<SolveOutcome, LinalgError> {
    let system = fcm.basis_system();
    let h_basis = system.basis();
    let x_basis = if backend == BackendKind::Dense {
        match solve_basis_cholesky(h_basis, counters) {
            Ok(x) => x,
            Err(
                LinalgError::NotPositiveDefinite { .. } | LinalgError::SingularTriangular { .. },
            ) => {
                // Rank-deficient basis: densify (only ever reached on small
                // or degenerate systems) and let QR report precisely.
                let dense_basis: DenseMatrix = h_basis.try_to_dense()?;
                lstsq(&dense_basis, counters, LstsqMethod::Qr)?.x
            }
            Err(e) => return Err(e),
        }
    } else {
        foces_sparse::solve_factored(system.cholesky(), counters)?.x
    };
    system.expand(counters, x_basis)
}

/// Normal-equation solve on a sparse basis matrix: Gram assembly is
/// `O(Σ nnz(row)²)`, the Cholesky `O(n³)` — the paper's Eq. (4) cost.
fn solve_basis_cholesky(
    h_basis: &foces_linalg::CsrMatrix,
    counters: &[f64],
) -> Result<Vec<f64>, LinalgError> {
    let gram = h_basis.gram_dense()?;
    let rhs = h_basis.transpose_matvec(counters)?;
    foces_linalg::Cholesky::factor_in_place(gram)?.solve(&rhs)
}

/// Iterative path: CGLS on the full sparse FCM. Duplicate columns are fine:
/// starting from zero, CGLS converges to the minimum-norm least-squares
/// solution, which splits duplicate-group volumes evenly by symmetry.
fn solve_iterative(
    fcm: &Fcm,
    counters: &[f64],
    tol: f64,
    max_iter: usize,
) -> Result<SolveOutcome, LinalgError> {
    let sol = lstsq_sparse(fcm.sparse(), counters, tol, max_iter)?;
    let fitted = fcm.sparse().matvec(&sol.x)?;
    let residual: Vec<f64> = counters
        .iter()
        .zip(&fitted)
        .map(|(y, yh)| (y - yh).abs())
        .collect();
    Ok(SolveOutcome {
        volume_estimate: sol.x,
        fitted_counters: fitted,
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use foces_controlplane::{provision, uniform_flows, RuleGranularity};
    use foces_dataplane::LossModel;
    use foces_net::generators::{fattree, stanford};

    fn healthy_setup(g: RuleGranularity) -> (Fcm, Vec<f64>, foces_controlplane::Deployment) {
        let topo = fattree(4);
        let flows = uniform_flows(&topo, 240_000.0);
        let mut dep = provision(topo, &flows, g).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        dep.replay_traffic(&mut LossModel::none());
        let counters = dep.dataplane.collect_counters();
        (fcm, counters, dep)
    }

    #[test]
    fn healthy_network_zero_residual_per_destination() {
        let (fcm, counters, _) = healthy_setup(RuleGranularity::PerDestination);
        let out = EquationSystem::new(SolverKind::DirectDense)
            .solve(&fcm, &counters)
            .unwrap();
        assert!(out.residual.iter().all(|r| r.abs() < 1e-6));
        // Volume estimates must sum to the injected total per group; total
        // volume recovered equals total injected.
        let injected: f64 = 240.0 * 1000.0;
        let estimated: f64 = out.volume_estimate.iter().sum();
        assert!((estimated - injected).abs() < 1e-3, "estimated {estimated}");
    }

    #[test]
    fn healthy_network_recovers_exact_volumes_per_pair() {
        let (fcm, counters, _) = healthy_setup(RuleGranularity::PerFlowPair);
        let out = EquationSystem::new(SolverKind::DirectDense)
            .solve(&fcm, &counters)
            .unwrap();
        for v in &out.volume_estimate {
            assert!((v - 1000.0).abs() < 1e-6, "volume {v}");
        }
    }

    #[test]
    fn direct_and_iterative_agree_on_residuals() {
        let (fcm, mut counters, _) = healthy_setup(RuleGranularity::PerDestination);
        counters[3] += 500.0; // perturb to make it inconsistent
        let direct = EquationSystem::new(SolverKind::DirectDense)
            .solve(&fcm, &counters)
            .unwrap();
        let iterative = EquationSystem::new(SolverKind::IterativeSparse {
            tol: 1e-12,
            max_iter: 20_000,
        })
        .solve(&fcm, &counters)
        .unwrap();
        for (a, b) in direct.residual.iter().zip(&iterative.residual) {
            assert!((a - b).abs() < 1e-4, "direct {a} vs iterative {b}");
        }
    }

    #[test]
    fn naive_pipeline_matches_direct() {
        let (fcm, mut counters, _) = healthy_setup(RuleGranularity::PerDestination);
        counters[7] += 333.0;
        let direct = EquationSystem::new(SolverKind::DirectDense)
            .solve(&fcm, &counters)
            .unwrap();
        let naive = EquationSystem::new(SolverKind::DenseNaive)
            .solve(&fcm, &counters)
            .unwrap();
        for (a, b) in direct.residual.iter().zip(&naive.residual) {
            assert!((a - b).abs() < 1e-6, "direct {a} vs naive {b}");
        }
        for (a, b) in direct.volume_estimate.iter().zip(&naive.volume_estimate) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn default_solves_a_healthy_network() {
        let (fcm, counters, _) = healthy_setup(RuleGranularity::PerDestination);
        let out = EquationSystem::default().solve(&fcm, &counters).unwrap();
        assert!(out.residual.iter().all(|r| r.abs() < 1e-6));
    }

    fn empty_fcm() -> Fcm {
        // Rules but no flows: the system has rows yet nothing to solve for.
        let rules = vec![
            foces_dataplane::RuleRef {
                switch: foces_net::SwitchId(0),
                index: 0,
            },
            foces_dataplane::RuleRef {
                switch: foces_net::SwitchId(1),
                index: 0,
            },
        ];
        Fcm::from_parts(rules, Vec::new())
    }

    fn single_flow_fcm() -> Fcm {
        let h = DenseMatrix::from_rows(&[&[1.], &[1.], &[0.]]).unwrap();
        crate::testkit::fcm_from_dense(&h)
    }

    #[test]
    fn empty_fcm_reported_before_counter_length() {
        // An empty system must report EmptyFcm even when the counter
        // vector is also the wrong length — the length of a vector for a
        // system with no unknowns is not the interesting diagnosis.
        let fcm = empty_fcm();
        let err = EquationSystem::default().solve(&fcm, &[1.0]).unwrap_err();
        assert!(matches!(err, FocesError::EmptyFcm), "got {err:?}");
        // Same with a correctly sized vector.
        let err = EquationSystem::default()
            .solve(&fcm, &[1.0, 2.0])
            .unwrap_err();
        assert!(matches!(err, FocesError::EmptyFcm));
    }

    #[test]
    fn empty_fcm_consistent_across_masked_and_warm_paths() {
        let fcm = empty_fcm();
        let err = EquationSystem::default()
            .solve_masked(&fcm, &[0.0], &[true, true])
            .unwrap_err();
        assert!(matches!(err, FocesError::EmptyFcm), "masked: {err:?}");
        let mut warm = crate::IncrementalSolver::default();
        let err = warm.solve(&fcm, &[0.0]).unwrap_err();
        assert!(matches!(err, FocesError::EmptyFcm), "warm: {err:?}");
    }

    #[test]
    fn single_flow_solves_on_every_path() {
        let fcm = single_flow_fcm();
        let counters = [5.0, 5.0, 0.0];
        let direct = EquationSystem::new(SolverKind::DirectDense)
            .solve(&fcm, &counters)
            .unwrap();
        assert!((direct.volume_estimate[0] - 5.0).abs() < 1e-9);
        assert!(direct.residual.iter().all(|r| r.abs() < 1e-9));

        let (masked, masked_out) = EquationSystem::default()
            .solve_masked(&fcm, &counters, &[true, true, false])
            .unwrap();
        assert_eq!(masked.fcm().flow_count(), 1);
        assert!((masked_out.volume_estimate[0] - 5.0).abs() < 1e-9);

        let mut warm = crate::IncrementalSolver::default();
        let (warm_out, path) = warm.solve(&fcm, &counters).unwrap();
        assert!(!path.is_warm());
        assert!((warm_out.volume_estimate[0] - 5.0).abs() < 1e-9);
        let (warm_out2, path2) = warm.solve(&fcm, &counters).unwrap();
        assert!(path2.is_warm(), "second solve should reuse the factor");
        assert!((warm_out2.volume_estimate[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn single_flow_length_mismatch_is_consistent() {
        let fcm = single_flow_fcm();
        let err = EquationSystem::default().solve(&fcm, &[1.0]).unwrap_err();
        assert!(
            matches!(
                err,
                FocesError::CounterLengthMismatch {
                    got: 1,
                    expected: 3
                }
            ),
            "got {err:?}"
        );
        let mut warm = crate::IncrementalSolver::default();
        let err = warm.solve(&fcm, &[1.0]).unwrap_err();
        assert!(matches!(
            err,
            FocesError::CounterLengthMismatch {
                got: 1,
                expected: 3
            }
        ));
        let err = EquationSystem::default()
            .solve_masked(&fcm, &[1.0], &[true, true, true])
            .unwrap_err();
        assert!(matches!(
            err,
            FocesError::CounterLengthMismatch {
                got: 1,
                expected: 3
            }
        ));
    }

    #[test]
    fn counter_length_is_validated() {
        let (fcm, _, _) = healthy_setup(RuleGranularity::PerDestination);
        let err = EquationSystem::default()
            .solve(&fcm, &[1.0, 2.0])
            .unwrap_err();
        assert!(matches!(err, FocesError::CounterLengthMismatch { .. }));
    }

    #[test]
    fn masked_solve_matches_subsystem() {
        let (fcm, mut counters, _) = healthy_setup(RuleGranularity::PerDestination);
        counters[5] += 250.0;
        let observed: Vec<bool> = (0..fcm.rule_count()).map(|i| i % 4 != 2).collect();
        let (masked, out) = EquationSystem::default()
            .solve_masked(&fcm, &counters, &observed)
            .unwrap();
        assert_eq!(out.residual.len(), masked.fcm().rule_count());
        // Same as solving the masked sub-system by hand.
        let by_hand = EquationSystem::default()
            .solve(masked.fcm(), &masked.project(&counters))
            .unwrap();
        for (a, b) in out.residual.iter().zip(&by_hand.residual) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn masked_solve_healthy_residual_zero() {
        let (fcm, counters, _) = healthy_setup(RuleGranularity::PerDestination);
        // Hide one switch's rows entirely: the sub-system is still
        // consistent, so residuals stay at round-off level.
        let victim = fcm.rules()[0].switch;
        let observed: Vec<bool> = fcm.rules().iter().map(|r| r.switch != victim).collect();
        let (_, out) = EquationSystem::default()
            .solve_masked(&fcm, &counters, &observed)
            .unwrap();
        assert!(out.residual.iter().all(|r| r.abs() < 1e-6));
    }

    #[test]
    fn masked_solve_validates_full_length() {
        let (fcm, _, _) = healthy_setup(RuleGranularity::PerDestination);
        let err = EquationSystem::default()
            .solve_masked(&fcm, &[0.0; 3], &vec![true; fcm.rule_count()])
            .unwrap_err();
        assert!(matches!(err, FocesError::CounterLengthMismatch { .. }));
    }

    #[test]
    fn stanford_healthy_residual_zero() {
        let topo = stanford();
        let flows = uniform_flows(&topo, 650_000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerDestination).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        dep.replay_traffic(&mut LossModel::none());
        let out = EquationSystem::default()
            .solve(&fcm, &dep.dataplane.collect_counters())
            .unwrap();
        assert!(out.residual.iter().all(|r| r.abs() < 1e-5));
    }

    #[test]
    fn anomaly_produces_large_residual() {
        let topo = fattree(4);
        let flows = uniform_flows(&topo, 240_000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerDestination).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        // Deviate one rule, then replay.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
        let _applied = foces_dataplane::inject_random_anomaly(
            &mut dep.dataplane,
            foces_dataplane::AnomalyKind::PathDeviation,
            &mut rng,
            &[],
        )
        .unwrap();
        dep.replay_traffic(&mut LossModel::none());
        let out = EquationSystem::default()
            .solve(&fcm, &dep.dataplane.collect_counters())
            .unwrap();
        let max = out.residual.iter().cloned().fold(0.0_f64, f64::max);
        assert!(max > 100.0, "max residual {max}");
    }

    #[test]
    fn oversized_basis_is_refused_typed_by_dense_and_solved_by_default() {
        // 6,000 distinct two-rule columns: their dense Gram exceeds the
        // dense allocation cap, so the dense backend refuses the system
        // with a typed error instead of factoring it — at every size and
        // from the default strategy too, never a silent switch to CGLS —
        // while the default (sparse) backend never forms the dense Gram
        // and solves it.
        let (rules, cols) = (120, 6000);
        let mut h = DenseMatrix::zeros(rules, cols);
        let pairs = (0..rules).flat_map(|a| (a + 1..rules).map(move |b| (a, b)));
        for (j, (a, b)) in pairs.take(cols).enumerate() {
            h.set(a, j, 1.0);
            h.set(b, j, 1.0);
        }
        let fcm = crate::testkit::fcm_from_dense(&h);
        assert_eq!(fcm.column_groups().basis.len(), cols);
        let counters = fcm.expected_counters(&vec![1.0; cols]);
        for dense in [
            EquationSystem::new(SolverKind::DirectDense),
            EquationSystem::default(),
        ] {
            let err = dense
                .with_backend(BackendKind::Dense)
                .solve(&fcm, &counters)
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    FocesError::Solver(LinalgError::AllocationTooLarge { .. })
                ),
                "{err:?}"
            );
        }
        let out = EquationSystem::new(SolverKind::DirectDense)
            .solve(&fcm, &counters)
            .unwrap();
        let scale = counters.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        assert!(
            out.residual.iter().all(|r| r.abs() <= 1e-9 * scale),
            "max residual {}",
            out.residual.iter().fold(0.0_f64, |m, r| m.max(r.abs()))
        );
    }

    #[test]
    fn default_solves_past_three_thousand_flows_on_the_memoized_factor() {
        // FatTree(4)'s 240 flows repeated 13 times: 3,120 flows on the
        // original basis. The default solve runs on the FCM's sparse
        // factor and leaves it memoized, whatever the flow count.
        let (fcm, counters, _) = healthy_setup(RuleGranularity::PerDestination);
        let flows: Vec<_> = (0..13).flat_map(|_| fcm.flows().iter().cloned()).collect();
        let big = Fcm::from_parts(fcm.rules().to_vec(), flows);
        assert!(big.flow_count() > 3000);
        assert_eq!(big.basis_system().cols(), fcm.basis_system().cols());
        let out = EquationSystem::default().solve(&big, &counters).unwrap();
        assert!(out.residual.iter().all(|r| r.abs() < 1e-6));
        let (_, factored_now) = big.basis_system().cholesky().borrow_or_factor().unwrap();
        assert!(
            !factored_now,
            "the default solve skipped the memoized factor"
        );
    }
}
