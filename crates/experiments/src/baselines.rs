//! The two solves Fig. 12 (and the `detection_rounds` / `scaling_ablation`
//! criterion benches) time against the detector's own: the paper's Eq. (4)
//! pipeline taken literally, and CGLS over the full FCM.
//!
//! Neither runs in detection. [`foces::EquationSystem`] solves on the
//! memoized basis factor, which exploits the FCM's block structure and
//! would hide the `O(N³)` curve the paper reports.

use foces::{Fcm, FocesError, SolveOutcome};
use foces_linalg::{lstsq_sparse, Cholesky};

/// The paper's Eq. (4) pipeline taken literally, with no structure
/// exploitation: densify the deduplicated basis, form `HᵀH` by dense
/// matmul, explicitly invert it, then multiply. This is how the paper's
/// NumPy prototype computes a detection round, and what Fig. 12 times as
/// "FOCES without slicing".
///
/// # Errors
///
/// [`FocesError::Solver`] if the basis is too large to densify or its
/// Gram is singular.
pub fn solve_dense_naive(fcm: &Fcm, counters: &[f64]) -> Result<SolveOutcome, FocesError> {
    let system = fcm.basis_system();
    let h_basis = system.basis().try_to_dense()?;
    let gram = h_basis.transpose().matmul(&h_basis)?;
    let inv = Cholesky::factor(&gram)?.inverse()?;
    let rhs = h_basis.transpose_matvec(counters)?;
    let x_basis = inv.matvec(&rhs)?;
    Ok(system.expand(counters, x_basis)?)
}

/// Iterative CGLS on the full sparse FCM: `O(nnz)` per iteration. Starting
/// from zero it converges to the minimum-norm least-squares solution, which
/// splits duplicate-group volumes evenly by symmetry.
///
/// # Errors
///
/// [`FocesError::Solver`] if CGLS does not converge within `max_iter`.
pub fn solve_cgls(
    fcm: &Fcm,
    counters: &[f64],
    tol: f64,
    max_iter: usize,
) -> Result<SolveOutcome, FocesError> {
    let sol = lstsq_sparse(fcm.sparse(), counters, tol, max_iter)?;
    let fitted = fcm.sparse().matvec(&sol.x)?;
    let residual = counters
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
    use foces::EquationSystem;
    use foces_controlplane::{provision, uniform_flows, RuleGranularity};
    use foces_dataplane::LossModel;
    use foces_net::generators::fattree;

    fn healthy_setup() -> (Fcm, Vec<f64>) {
        let topo = fattree(4);
        let flows = uniform_flows(&topo, 240_000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerDestination).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        dep.replay_traffic(&mut LossModel::none());
        let counters = dep.dataplane.collect_counters();
        (fcm, counters)
    }

    #[test]
    fn direct_and_iterative_agree_on_residuals() {
        let (fcm, mut counters) = healthy_setup();
        counters[3] += 500.0; // perturb to make it inconsistent
        let direct = EquationSystem::default().solve(&fcm, &counters).unwrap();
        let iterative = solve_cgls(&fcm, &counters, 1e-12, 20_000).unwrap();
        for (a, b) in direct.residual.iter().zip(&iterative.residual) {
            assert!((a - b).abs() < 1e-4, "direct {a} vs iterative {b}");
        }
    }

    #[test]
    fn naive_pipeline_matches_direct() {
        let (fcm, mut counters) = healthy_setup();
        counters[7] += 333.0;
        let direct = EquationSystem::default().solve(&fcm, &counters).unwrap();
        let naive = solve_dense_naive(&fcm, &counters).unwrap();
        for (a, b) in direct.residual.iter().zip(&naive.residual) {
            assert!((a - b).abs() < 1e-6, "direct {a} vs naive {b}");
        }
        for (a, b) in direct.volume_estimate.iter().zip(&naive.volume_estimate) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
