//! Cross-backend equivalence battery for the sparse solve engine.
//!
//! The contract under test: selecting [`foces::BackendKind::Sparse`]
//! changes how the normal equations are solved (AMD-ordered sparse
//! Cholesky, or preconditioned CGLS past the direct-size limit) but never
//! what is concluded. Verdicts, residual vectors, and per-switch
//! localization scores must match the dense backend to 1e-9 of the
//! counter scale — on healthy, anomalous, churned, degraded-mask, and
//! Byzantine resilience-probe rounds alike (`support/backend_parity.rs`,
//! whose fixed-case slice runs in tier-1 as `tests/default_backend.rs`).
//!
//! 256 cases, per the regression battery's acceptance bar.

#[path = "support/backend_parity.rs"]
mod backend_parity;

use backend_parity::{check_case, deployment, Case};
use foces::Fcm;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whole-network, churned, degraded-mask, and resilience-probe rounds
    /// conclude identically on both backends.
    #[test]
    fn sparse_backend_matches_dense(
        topo_pick in 0u8..3,
        churn_flow in 0usize..10_000,
        churn in proptest::bool::ANY,
        perturb_row in 0usize..10_000,
        perturb in 0.0f64..2_000.0,
        masked_switch in 0usize..10_000,
        loss_seed in 0u64..1_000,
    ) {
        check_case(Case {
            topo_pick,
            churn_flow,
            churn,
            perturb_row,
            perturb,
            masked_switch,
            loss_seed,
        });
    }
}

/// Satellite regression: on the FatTree(4) all-pairs testbed, the sparse
/// Gram (`gram_csr`) agrees entrywise with the dense Gram (`gram_dense`)
/// to 1e-9 — the two code paths the backends factor must describe the
/// same normal equations.
#[test]
fn fattree4_gram_csr_matches_gram_dense() {
    let dep = deployment(0);
    let fcm = Fcm::from_view(&dep.view);
    let basis = fcm.sparse().select_columns(&fcm.column_groups().basis);
    let gram_sparse = basis.gram_csr();
    let gram_dense = basis
        .gram_dense()
        .expect("FatTree(4) basis fits the dense cap");
    let n = basis.cols();
    let mut dense_of = vec![0.0f64; n * n];
    for i in 0..n {
        dense_of[i * n..(i + 1) * n].copy_from_slice(&gram_dense.row(i));
    }
    let mut checked = 0usize;
    let indptr = gram_sparse.indptr();
    for i in 0..n {
        for p in indptr[i]..indptr[i + 1] {
            let j = gram_sparse.indices()[p];
            let v = gram_sparse.values()[p];
            assert!(
                (v - dense_of[i * n + j]).abs() <= 1e-9 * v.abs().max(1.0),
                "gram[{i}][{j}]: csr {} vs dense {}",
                v,
                dense_of[i * n + j]
            );
            dense_of[i * n + j] = 0.0;
            checked += 1;
        }
    }
    assert!(checked > n, "gram has off-diagonal structure");
    // Every dense entry not present in the CSR pattern must be zero.
    for (k, v) in dense_of.iter().enumerate() {
        assert!(
            v.abs() <= 1e-12,
            "dense gram[{}][{}] = {} missing from the sparse pattern",
            k / n,
            k % n,
            v
        );
    }
}
