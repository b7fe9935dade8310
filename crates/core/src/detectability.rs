//! The detectability oracle: Theorem 1 (exact, rank-based) and Theorem 2
//! (graph-based necessary condition).
//!
//! A forwarding anomaly replaces a flow's FCM column `hᵢ` with a deviated
//! column `hᵢ'` (Definition 1). Theorem 1: the anomaly is **undetectable**
//! iff `hᵢ'` lies in the column span of the original FCM — the observed
//! counters then admit an alternative benign explanation, so no residual
//! appears no matter how the detector is tuned.
//!
//! [`SpanOracle`] answers that span question for every caller — the
//! single-query functions here, the deviation audit, and the degraded
//! pipeline's masked re-audits — from one sparse Cholesky factor of the
//! FCM's deduplicated column basis.

use crate::error::FocesError;
use crate::rbg::Rbg;
use crate::without::Kernel;
use crate::{BackendKind, DeviationCandidate, Fcm};
use foces_dataplane::RuleRef;
use foces_linalg::{CsrMatrix, DEFAULT_TOL};
use std::collections::BTreeSet;
use std::sync::Arc;

/// FCM row indices of a (deviated) rule history: the support of its 0/1
/// column.
///
/// # Errors
///
/// [`FocesError::UnknownRule`] if the history references a rule outside
/// the FCM's rule universe — the FCM is stale relative to the plane the
/// history was traced from (e.g. `foces audit` against a plane that
/// churned since the FCM snapshot). Callers surface this as a finding,
/// not a panic.
pub(crate) fn history_rows(fcm: &Fcm, history: &[RuleRef]) -> Result<Vec<usize>, FocesError> {
    history
        .iter()
        .map(|r| fcm.rule_row(*r).ok_or(FocesError::UnknownRule(*r)))
        .collect()
}

/// The Theorem 1 span oracle of one FCM: answers `v ∈ span(H)` for any
/// number of query vectors without densifying `H`.
///
/// Construction takes the FCM's basis system ([`Fcm::basis_system`]: one
/// column per distinct rule set, duplicates add nothing to the span) as
/// the basis `B`, and factors its Gram `BᵀB` with the fill-reducing sparse
/// Cholesky, dropping the pivots of columns that are dependent on the ones
/// eliminated before them ([`foces_sparse::SparseFactor::factor_dropping`]). When a
/// solve already memoized the FCM's full-rank factor, that factor is the
/// same one and is borrowed instead. A query is
/// the least-squares residual `‖v − B·G⁻¹Bᵀv‖`, accepted as in-span when
/// it is at most `DEFAULT_TOL·max(‖v‖, 1)`.
///
/// Cost: the basis, Gram and factor are near-linear in the FCM's nonzeros
/// for network FCMs (FatTree(6) per-destination: 972 basis columns, about
/// 9 k nonzeros in L, a few ms). A row-support query
/// ([`SpanOracle::contains_rows`]) first takes the fit's squared norm from
/// one sparse forward solve over the elimination-tree reach of `Bᵀv`
/// ([`foces_sparse::Capacitance::fit_sq_norm`]) and answers "out of span"
/// when the squared residual `|R| − fit` is above `1e-6·max(|R|, 1)`.
/// Every other query — near the span, or against a removal that lost
/// rank — pays the exact rule: two full triangular solves plus two sparse
/// products, `O(nnz(L) + nnz(B))`, and a refinement solve when the
/// residual is over the bound. On FatTree(6) per-destination 256 audit
/// queries take ~1.7 ms against ~16 ms with the exact rule alone
/// (release, one 2-vCPU Xeon).
///
/// # Example
///
/// ```
/// use foces::{testkit, SpanOracle};
///
/// let fcm = testkit::paper_fig3_fcm();
/// let oracle = SpanOracle::new(&fcm);
/// // Fig. 3 / Eq. (8): (1,1,0,1,1,1) = h₁ − h₂ + h₃ stays in the span.
/// assert!(oracle.contains(&[1., 1., 0., 1., 1., 1.]));
/// assert!(oracle.contains_rows(&[0, 1, 3, 4, 5]));
/// assert!(!oracle.contains_rows(&[0]));
/// ```
#[derive(Debug, Clone)]
pub struct SpanOracle {
    /// The FCM's basis system on its pivot-dropping factor of
    /// `basisᵀ·basis` (the FCM's memoized factor when a solve already
    /// built it and the basis has full rank), with the rows removed from
    /// the span: none, or a mask's ([`coverage_without`]).
    kernel: Kernel,
}

impl SpanOracle {
    /// Builds the oracle for `fcm`'s column span.
    pub fn new(fcm: &Fcm) -> Self {
        let system = Arc::clone(fcm.basis_system());
        let factor = system.cholesky().dropping_factor();
        let kept = vec![true; fcm.rule_count()];
        let kernel = Kernel::new(system, factor, kept).expect("the factor is the basis' own");
        SpanOracle { kernel }
    }

    fn basis(&self) -> &CsrMatrix {
        self.kernel.system.basis()
    }

    /// Whether `v` lies in the FCM's column span.
    ///
    /// # Panics
    ///
    /// Panics if `v.len()` differs from the FCM's rule count.
    pub fn contains(&self, v: &[f64]) -> bool {
        assert_eq!(v.len(), self.basis().rows(), "span query length mismatch");
        let btv = self
            .basis()
            .transpose_matvec(v)
            .expect("length checked above");
        self.accepts(v, btv)
    }

    /// Whether the 0/1 vector with support `rows` (a rule history's FCM
    /// rows; repeats count once) lies in the span. `Bᵀv` is summed from the
    /// basis rows at the support alone; a vector far from the span is
    /// rejected from the fit's norm before any full solve (see the type's
    /// cost notes), and debug builds re-check each such reject by the
    /// exact rule.
    ///
    /// # Panics
    ///
    /// Panics if a row index is not below the FCM's rule count.
    pub fn contains_rows(&self, rows: &[usize]) -> bool {
        if self.screens_out(rows) {
            debug_assert!(
                !self.accepts_rows(rows),
                "screened reject {rows:?} is in span"
            );
            return false;
        }
        self.accepts_rows(rows)
    }

    /// The fast reject: whether the fit of the 0/1 vector with support
    /// `rows` leaves a squared residual `|R| − ‖fit‖²` above
    /// [`SCREEN_MARGIN`]`·max(|R|, 1)`, with `‖fit‖²` from one sparse
    /// forward solve ([`Capacitance::fit_sq_norm`](foces_sparse::Capacitance::fit_sq_norm)).
    /// `false` — answer by [`SpanOracle::accepts`] — when the kernel lost
    /// rank. Under a removal `rows` are kept rows ([`coverage_without`]
    /// maps them so).
    fn screens_out(&self, rows: &[usize]) -> bool {
        let basis = self.basis();
        let mut support = rows.to_vec();
        support.sort_unstable();
        support.dedup();
        let entries: Vec<(usize, f64)> = support.iter().flat_map(|&i| basis.row_iter(i)).collect();
        let size = support.len() as f64;
        let cap = &self.kernel.cap;
        cap.fit_sq_norm(&self.kernel.factor, &entries)
            .is_ok_and(|fit| size - fit > SCREEN_MARGIN * size.max(1.0))
    }

    /// [`SpanOracle::accepts`] on the 0/1 vector with support `rows`.
    fn accepts_rows(&self, rows: &[usize]) -> bool {
        let basis = self.basis();
        let mut v = vec![0.0; basis.rows()];
        let mut btv = vec![0.0; basis.cols()];
        for &i in rows {
            if v[i] == 0.0 {
                v[i] = 1.0;
                for (c, b) in basis.row_iter(i) {
                    btv[c] += b;
                }
            }
        }
        self.accepts(&v, btv)
    }

    /// The acceptance rule: `‖v − B·x‖ ≤ DEFAULT_TOL·max(‖v‖, 1)` for the
    /// least-squares `x` of `Gx = Bᵀv`. A residual over the bound gets one
    /// refinement step (the corrected semi-normal equations) before it is
    /// called out of span, so the normal equations' squared conditioning
    /// cannot turn an in-span vector into a false "detectable".
    fn accepts(&self, v: &[f64], btv: Vec<f64>) -> bool {
        let bound = DEFAULT_TOL * norm(v).max(1.0);
        let mut x = self.solve(&btv);
        let mut r = self.residual(v, &x);
        if norm(&r) <= bound {
            return true;
        }
        let btr = self
            .basis()
            .transpose_matvec(&r)
            .expect("residual has one entry per row");
        let dx = self.solve(&btr);
        for (xi, di) in x.iter_mut().zip(&dx) {
            *xi += di;
        }
        r = self.residual(v, &x);
        norm(&r) <= bound
    }

    /// The least-squares coefficients for `Bᵀv` over the kept rows.
    fn solve(&self, btv: &[f64]) -> Vec<f64> {
        let x = self.kernel.solve(btv);
        x.expect("Bᵀv has one entry per basis column")
    }

    /// `v − B·x`, zero at removed rows.
    fn residual(&self, v: &[f64], x: &[f64]) -> Vec<f64> {
        let bx = self
            .basis()
            .matvec(x)
            .expect("x has one entry per basis column");
        let kept = &self.kernel.kept;
        (0..v.len())
            .map(|i| if kept[i] { v[i] - bx[i] } else { 0.0 })
            .collect()
    }
}

/// Theorem 1 coverage of `fcm` with the rows `observed` clears removed:
/// the share of `candidates` whose deviated history, projected onto the
/// kept rows, leaves the span of the kept system's columns — at most the
/// full system's coverage. A candidate on a `quarantined` flow (a flow
/// mask; it may be shorter) is undetectable outright. The span is queried
/// through the row-removal kernel, as [`crate::Detector::detect_without`]
/// solves.
///
/// # Panics
///
/// Panics if `observed.len() != fcm.rule_count()`.
pub fn coverage_without(
    fcm: &Fcm,
    observed: &[bool],
    candidates: &[DeviationCandidate],
    quarantined: &[bool],
    backend: BackendKind,
) -> f64 {
    if candidates.is_empty() {
        return 1.0;
    }
    if !observed.contains(&true) {
        return 0.0; // no equations left: every deviation is invisible
    }
    // The oracle, and each parent row's row in its system.
    let (oracle, row_of): (SpanOracle, Vec<Option<usize>>) =
        match Kernel::of(fcm, observed, backend) {
            Ok(kernel) => {
                let row_of = (0..observed.len()).map(|i| observed[i].then_some(i));
                (SpanOracle { kernel }, row_of.collect())
            }
            Err(masked) => {
                let mut row_of = vec![None; observed.len()];
                for (i, &parent) in masked.parent_rows().iter().enumerate() {
                    row_of[parent] = Some(i);
                }
                (SpanOracle::new(masked.fcm()), row_of)
            }
        };
    let detectable = candidates.iter().filter(|c| {
        let rows = c.deviated_history.iter().filter_map(|r| fcm.rule_row(*r));
        let rows: Vec<usize> = rows.filter_map(|row| row_of[row]).collect();
        !quarantined.get(c.flow).copied().unwrap_or(false) && !oracle.contains_rows(&rows)
    });
    detectable.count() as f64 / candidates.len() as f64
}

/// Relative squared residual above which [`SpanOracle::contains_rows`]
/// answers "out of span" from the fit's norm alone: twelve orders of
/// magnitude over the acceptance bound `(DEFAULT_TOL·‖v‖)²`, so rounding in
/// the fit cannot move a decision.
const SCREEN_MARGIN: f64 = 1e-6;

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Theorem 1 oracle: `true` iff the anomaly that rewrites some flow's rule
/// history to `deviated_history` is **undetectable** — the deviated column
/// lies in the span of the FCM's columns.
///
/// Builds a [`SpanOracle`] per call; callers with many queries against one
/// FCM should build the oracle once and ask it directly.
///
/// # Errors
///
/// [`FocesError::UnknownRule`] if the history references a rule the FCM
/// does not know (the FCM is stale relative to the plane).
///
/// # Example
///
/// ```
/// use foces::{testkit, undetectable_by_rank};
///
/// // Fig. 3 / Eq. (8): deviating flow a to r1,r2,r4,r5,r6 is undetectable.
/// let fcm = testkit::paper_fig3_fcm();
/// let r = fcm.rules();
/// let deviated = [r[0], r[1], r[3], r[4], r[5]];
/// assert!(undetectable_by_rank(&fcm, &deviated)?);
/// # Ok::<(), foces::FocesError>(())
/// ```
pub fn undetectable_by_rank(fcm: &Fcm, deviated_history: &[RuleRef]) -> Result<bool, FocesError> {
    let rows = history_rows(fcm, deviated_history)?;
    Ok(SpanOracle::new(fcm).contains_rows(&rows))
}

/// Theorem 2's graph condition, evaluated as a *necessary* test: returns
/// `true` iff some switch's RBG with respect to `H̃ = H ∪ {deviated}`
/// contains a (multigraph) loop.
///
/// `false` certifies the anomaly detectable without any linear algebra;
/// `true` means it *may* be undetectable and [`undetectable_by_rank`]
/// decides (see [`crate::rbg`] module docs for why the sufficient direction
/// needs the paper's no-pivot-rule side condition).
pub fn rbg_loop_exists(fcm: &Fcm, deviated_history: &[RuleRef]) -> bool {
    let owned = fcm.histories();
    let mut histories: Vec<&[RuleRef]> = owned.iter().map(Vec::as_slice).collect();
    histories.push(deviated_history);
    // Only switches touched by some history can have edges.
    let switches: BTreeSet<foces_net::SwitchId> = histories
        .iter()
        .flat_map(|h| h.iter().map(|r| r.switch))
        .collect();
    switches
        .into_iter()
        .any(|s| Rbg::build(s, &histories).has_loop())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{fcm_from_dense, paper_fig2_fcm, paper_fig3_fcm};
    use foces_linalg::DenseMatrix;

    fn deviated(fcm: &Fcm) -> Vec<RuleRef> {
        let r = fcm.rules();
        vec![r[0], r[1], r[3], r[4], r[5]]
    }

    #[test]
    fn fig2_deviation_is_detectable() {
        let fcm = paper_fig2_fcm();
        assert!(!undetectable_by_rank(&fcm, &deviated(&fcm)).unwrap());
    }

    #[test]
    fn fig3_deviation_is_undetectable_and_has_loop() {
        let fcm = paper_fig3_fcm();
        assert!(undetectable_by_rank(&fcm, &deviated(&fcm)).unwrap());
        // Theorem 2 necessary direction: undetectable => loop.
        assert!(rbg_loop_exists(&fcm, &deviated(&fcm)));
    }

    #[test]
    fn unchanged_history_is_trivially_undetectable() {
        // Replacing a column by itself stays in the span: FA(h, h) is the
        // degenerate no-op "anomaly".
        let fcm = paper_fig2_fcm();
        let original: Vec<RuleRef> = fcm.flow_rules(0).collect();
        assert!(undetectable_by_rank(&fcm, &original).unwrap());
    }

    #[test]
    fn empty_history_detectable_iff_zero_not_special() {
        // An early drop at the very first switch erases the flow entirely:
        // the zero column. Zero is always in the span, so by the algebraic
        // criterion alone this is "undetectable"... for the *deviated* flow
        // — but the missing volume shows elsewhere. The rank oracle must
        // report in-span (the paper's Definition 2 is about equation
        // consistency, and HX = Y' stays consistent only if the lost volume
        // can be re-explained, which the detector tests separately).
        let fcm = paper_fig2_fcm();
        assert!(undetectable_by_rank(&fcm, &[]).unwrap());
    }

    #[test]
    fn single_unused_rule_deviation_is_detectable() {
        // Sending a flow through the never-used rule r4 (row 3) of Fig. 2
        // cannot be explained by any benign combination.
        let fcm = paper_fig2_fcm();
        let r = fcm.rules();
        assert!(!undetectable_by_rank(&fcm, &[r[3]]).unwrap());
    }

    #[test]
    fn loop_free_rbg_certifies_detectability() {
        // 4 rules, 2 disjoint flows. Deviating a flow to the otherwise
        // unused rule 3 alone shares no rule with any flow: every
        // per-switch RBG stays a forest, certifying detectability without
        // linear algebra.
        let h = DenseMatrix::from_rows(&[&[1., 0.], &[1., 0.], &[0., 1.], &[0., 0.]]).unwrap();
        let fcm = fcm_from_dense(&h);
        let r = fcm.rules();
        let dev = [r[3]];
        assert!(!rbg_loop_exists(&fcm, &dev));
        assert!(!undetectable_by_rank(&fcm, &dev).unwrap());
    }

    #[test]
    fn loop_is_necessary_not_sufficient() {
        // A deviation that keeps the original first hop shares rule r0 with
        // the original flow, creating parallel r_s -> r0 edges (a multigraph
        // loop) — yet the deviated column (1,0,0,1) is NOT in the span of
        // {(1,1,0,0), (0,0,1,0)}: detectable despite the loop. This is
        // exactly why has_loop() is only a necessary condition.
        let h = DenseMatrix::from_rows(&[&[1., 0.], &[1., 0.], &[0., 1.], &[0., 0.]]).unwrap();
        let fcm = fcm_from_dense(&h);
        let r = fcm.rules();
        let dev = [r[0], r[3]];
        assert!(rbg_loop_exists(&fcm, &dev));
        assert!(!undetectable_by_rank(&fcm, &dev).unwrap());
    }

    #[test]
    fn foreign_rule_is_a_typed_error_not_a_panic() {
        let fcm = paper_fig2_fcm();
        let foreign = RuleRef {
            switch: foces_net::SwitchId(99),
            index: 0,
        };
        let err = undetectable_by_rank(&fcm, &[foreign]).unwrap_err();
        assert_eq!(err, crate::FocesError::UnknownRule(foreign));
        assert!(err.to_string().contains("unknown rule"));
        assert!(err.to_string().contains("stale"));
    }
}
