//! CSR kernels shared by the solve engine and the core detection machinery:
//! residual checks, per-group (suspicion) attribution, the coverage
//! absorption solve, and the leave-rows-out capacitance behind both the
//! coverage classifier and the leave-one-out localizer — all sparse, so
//! the Byzantine and coverage layers never densify a Gram matrix.

use crate::numeric::SparseFactor;
use foces_linalg::{CsrMatrix, LinalgError};

/// Relative normal-equation residual: returns `(rhs − Hᵀ(H x), ‖·‖/‖rhs‖)`.
///
/// This is the acceptance check the sparse direct path gates on — two
/// mat-vecs, never a Gram.
///
/// # Errors
///
/// [`LinalgError::DimensionMismatch`] on shape mismatch.
pub fn normal_residual(
    h: &CsrMatrix,
    x: &[f64],
    rhs: &[f64],
) -> Result<(Vec<f64>, f64), LinalgError> {
    let fitted = h.matvec(x)?;
    let back = h.transpose_matvec(&fitted)?;
    let mut r = vec![0.0f64; rhs.len()];
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for ((ri, &bi), &rhsi) in r.iter_mut().zip(&back).zip(rhs) {
        *ri = rhsi - bi;
        num += *ri * *ri;
        den += rhsi * rhsi;
    }
    let rel = if den > 0.0 {
        (num / den).sqrt()
    } else {
        num.sqrt()
    };
    Ok((r, rel))
}

/// Per-row absolute residuals `|counters − H x|` — the paper's per-rule
/// error vector that `judge()` ranks, computed without materializing H.
///
/// # Errors
///
/// [`LinalgError::DimensionMismatch`] on shape mismatch.
pub fn abs_residual(h: &CsrMatrix, x: &[f64], counters: &[f64]) -> Result<Vec<f64>, LinalgError> {
    if counters.len() != h.rows() {
        return Err(LinalgError::DimensionMismatch(format!(
            "abs_residual: matrix is {}x{} but counters has length {}",
            h.rows(),
            h.cols(),
            counters.len()
        )));
    }
    let fitted = h.matvec(x)?;
    Ok(counters
        .iter()
        .zip(&fitted)
        .map(|(c, f)| (c - f).abs())
        .collect())
}

/// Sums a per-row score into per-group totals via a row→group map
/// (suspicion attribution: rows are rules, groups are switches).
///
/// Rows whose group id is `usize::MAX` are unattributed and skipped.
pub fn per_group_mass(row_score: &[f64], group_of_row: &[usize], groups: usize) -> Vec<f64> {
    let mut mass = vec![0.0f64; groups];
    for (&score, &g) in row_score.iter().zip(group_of_row) {
        if g != usize::MAX && g < groups {
            mass[g] += score;
        }
    }
    mass
}

/// `Hᵀ u_S` for an indicator vector over the given rows, gathered straight
/// from CSR storage — the coverage analyzer's absorption right-hand side
/// without allocating the m-length indicator.
pub fn rows_indicator_rhs(h: &CsrMatrix, rows: &[usize]) -> Vec<f64> {
    let mut out = vec![0.0f64; h.cols()];
    for &r in rows {
        for (j, v) in h.row_iter(r) {
            out[j] += v;
        }
    }
    out
}

/// Coverage absorption via the sparse factor: projects the indicator of
/// `rows` onto the column space of `h` and returns
/// `(residual_norm, coefficients)` where `residual_norm = ‖u − H x‖` for
/// the projection coefficients `x`.
///
/// The residual is expanded as `‖Hx‖² − 2·Σ_{r∈rows}(Hx)_r + |rows|` so the
/// sparse indicator never has to be materialized against a dense fit.
///
/// # Errors
///
/// Propagates solve/shape errors from the factor and mat-vec.
pub fn absorption_coefficients(
    h: &CsrMatrix,
    factor: &SparseFactor,
    rows: &[usize],
) -> Result<(f64, Vec<f64>), LinalgError> {
    let rhs = rows_indicator_rhs(h, rows);
    let x = factor.solve(&rhs)?;
    let fitted = h.matvec(&x)?;
    let fit_sq: f64 = fitted.iter().map(|v| v * v).sum();
    let cross: f64 = rows.iter().map(|&r| fitted[r]).sum();
    let resid_sq = (fit_sq - 2.0 * cross + rows.len() as f64).max(0.0);
    Ok((resid_sq.sqrt(), x))
}

/// Removal of a set of rows `R` (one switch's rules) from a least-squares
/// basis `B`, answered against the factor of the full Gram `G = BᵀB` by
/// the Woodbury identity — no refactorization, no dense Gram.
///
/// Columns whose whole support lies in `R` are *stranded*: without `R`
/// nothing constrains them. With `V = [E_S; B_R]` — the unit rows picking
/// out the `k` stranded coordinates `S`, then the `r` removed rows that
/// keep an entry on a non-stranded column — the modified Gram
///
/// ```text
/// M = G + E_SᵀE_S − B_RᵀB_R = G + Vᵀ·C·V,   C = diag(+I_k, −I_r)
/// ```
///
/// is block diagonal: the Gram of the reduced system (rows `R` and columns
/// `S` removed) beside `I` plus the Gram of the rows that touch only `S`,
/// which is positive definite. So `M` is singular exactly when the reduced
/// system has lost rank. With `Z = L⁻¹·P·Vᵀ` (one sparse forward solve
/// per column over its elimination-tree reach) the capacitance is
///
/// ```text
/// K = C⁻¹ + V·G⁻¹·Vᵀ = diag(+I_k, −I_r) + ZᵀZ,   det M = det G · det C · det K.
/// ```
///
/// `K` is factored as `L_K·D·L_Kᵀ` in that order: its `k` stranded pivots
/// are ≥ 1, and its `r` row pivots are `−(1 − vᵀA⁻¹v)` for the running
/// `A = G + E_SᵀE_S − Σ v·vᵀ` — the quantity a sequential rank-one
/// Cholesky downdate must keep positive. A row pivot within
/// [`foces_linalg::DEFAULT_TOL`] of zero therefore marks `M` singular by
/// the same test a dense downdate applies.
#[derive(Debug, Clone)]
pub struct Capacitance {
    stranded: Vec<usize>,
    kept: usize,
    corrections: usize,
    /// Columns of `Z` in factor coordinates: stranded first, then rows.
    z: Vec<Vec<(usize, f64)>>,
    /// Unit lower factor of `K` (row-major `q × q`, diagonal implied).
    l: Vec<f64>,
    d: Vec<f64>,
    singular: bool,
}

impl Capacitance {
    /// Builds the capacitance for removing `rows` from `basis`, whose Gram
    /// `factor` has factored.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `factor` is not the basis'
    /// `cols × cols` factor.
    ///
    /// # Panics
    ///
    /// Panics if a row index is out of range.
    pub fn new(
        basis: &CsrMatrix,
        factor: &SparseFactor,
        rows: &[usize],
    ) -> Result<Self, LinalgError> {
        let n = basis.cols();
        if factor.dim() != n {
            return Err(LinalgError::DimensionMismatch(format!(
                "capacitance: basis has {n} columns but the factor is {0}x{0}",
                factor.dim()
            )));
        }
        let mut removed = vec![false; basis.rows()];
        for &r in rows {
            removed[r] = true;
        }
        // A column is stranded when no kept row touches it.
        let mut touched = vec![false; n];
        let mut survives = vec![false; n];
        for (i, &gone) in removed.iter().enumerate() {
            for (j, _) in basis.row_iter(i) {
                if gone {
                    touched[j] = true;
                } else {
                    survives[j] = true;
                }
            }
        }
        let stranded: Vec<usize> = (0..n).filter(|&j| touched[j] && !survives[j]).collect();
        let kept = n - stranded.len();
        // Columns of Vᵀ: the stranded unit vectors, then every removed row
        // that keeps an entry on a surviving column. A row on stranded
        // columns only leaves the reduced system with them: it needs no
        // correction, and `M` stays block diagonal without it.
        let mut v: Vec<Vec<(usize, f64)>> = stranded.iter().map(|&j| vec![(j, 1.0)]).collect();
        for r in (0..basis.rows()).filter(|&r| removed[r]) {
            if basis.row_iter(r).any(|(j, _)| survives[j]) {
                v.push(basis.row_iter(r).collect());
            }
        }
        let z = factor.forward_sparse(v.iter().map(Vec::as_slice));
        let k = stranded.len();
        let q = z.len();
        let mut kmat = vec![0.0f64; q * q];
        for a in 0..q {
            for b in 0..=a {
                kmat[a * q + b] = sparse_dot(&z[a], &z[b]);
            }
            kmat[a * q + a] += if a < k { 1.0 } else { -1.0 };
        }
        let (l, d, singular) = ldl_signed(kmat, q, k);
        Ok(Capacitance {
            stranded,
            kept,
            corrections: q - k,
            z,
            l,
            d,
            singular,
        })
    }

    /// Basis columns left unconstrained by the removal, ascending.
    pub fn stranded(&self) -> &[usize] {
        &self.stranded
    }

    /// Rank-one corrections applied: one per removed row with an entry on
    /// a kept column.
    pub fn corrections(&self) -> usize {
        self.corrections
    }

    /// Whether the reduced system has lost rank (or keeps no column).
    pub fn rank_lost(&self) -> bool {
        self.singular || self.kept == 0
    }

    /// Solves the reduced normal equations: returns `x` with `x_S = 0` and
    /// the kept coordinates solving `G_kept' · x = rhs_kept`, where `rhs`
    /// is already the reduced right-hand side `B'ᵀ·y'` in basis
    /// coordinates (its stranded entries are ignored).
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotPositiveDefinite`] when [`Capacitance::rank_lost`];
    /// [`LinalgError::DimensionMismatch`] on a wrong-length `rhs`.
    pub fn solve(&self, factor: &SparseFactor, rhs: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if self.rank_lost() {
            return Err(LinalgError::NotPositiveDefinite {
                pivot: self.stranded.len(),
                value: 0.0,
            });
        }
        let mut b = rhs.to_vec();
        for &j in &self.stranded {
            if let Some(bj) = b.get_mut(j) {
                *bj = 0.0;
            }
        }
        // x = G⁻¹b − G⁻¹Vᵀ·K⁻¹·V·G⁻¹b, with G⁻¹ = PᵀL⁻ᵀ·L⁻¹P:
        // u = L⁻¹Pb, t = K⁻¹·Zᵀu, x = PᵀL⁻ᵀ(u − Z·t).
        let mut u = factor.forward(&b)?;
        let mut t: Vec<f64> = self
            .z
            .iter()
            .map(|col| col.iter().map(|&(i, v)| v * u[i]).sum())
            .collect();
        self.ldl_solve(&mut t);
        for (col, &ti) in self.z.iter().zip(&t) {
            for &(i, v) in col {
                u[i] -= v * ti;
            }
        }
        let mut x = factor.backward(u);
        for &j in &self.stranded {
            x[j] = 0.0;
        }
        Ok(x)
    }

    fn ldl_solve(&self, t: &mut [f64]) {
        let q = self.d.len();
        for a in 0..q {
            let s: f64 = (0..a).map(|b| self.l[a * q + b] * t[b]).sum();
            t[a] -= s;
        }
        for (ta, &da) in t.iter_mut().zip(&self.d) {
            *ta /= da;
        }
        for a in (0..q).rev() {
            let s: f64 = (a + 1..q).map(|b| self.l[b * q + a] * t[b]).sum();
            t[a] -= s;
        }
    }
}

/// Dot product of two sparse vectors sorted by index.
fn sparse_dot(a: &[(usize, f64)], b: &[(usize, f64)]) -> f64 {
    let (mut i, mut j, mut acc) = (0, 0, 0.0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                acc += a[i].1 * b[j].1;
                i += 1;
                j += 1;
            }
        }
    }
    acc
}

/// `K = L·D·Lᵀ` without pivoting for a symmetric `q × q` matrix (lower
/// triangle, row-major) whose first `k` pivots must be positive and whose
/// rest must be negative. Returns `(L, D, singular)`; `singular` is set,
/// and the factorization stops, at the first pivot that is not bounded
/// away from zero with its expected sign.
fn ldl_signed(mut a: Vec<f64>, q: usize, k: usize) -> (Vec<f64>, Vec<f64>, bool) {
    let mut d = vec![0.0f64; q];
    let mut pattern = Vec::with_capacity(q);
    for j in 0..q {
        // Row j of L so far; `K` inherits the sparsity of `Z`, so the
        // updates below run over this pattern only.
        pattern.clear();
        pattern.extend((0..j).filter(|&p| a[j * q + p] != 0.0));
        let mut dj = a[j * q + j];
        for &p in &pattern {
            dj -= a[j * q + p] * a[j * q + p] * d[p];
        }
        let sign = if j < k { 1.0 } else { -1.0 };
        if sign * dj <= foces_linalg::DEFAULT_TOL {
            return (a, d, true);
        }
        d[j] = dj;
        for i in j + 1..q {
            let mut s = a[i * q + j];
            for &p in &pattern {
                s -= a[i * q + p] * a[j * q + p] * d[p];
            }
            a[i * q + j] = s / dj;
        }
    }
    (a, d, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use foces_linalg::DenseMatrix;

    fn h() -> CsrMatrix {
        CsrMatrix::from_dense(
            &DenseMatrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap(),
        )
    }

    #[test]
    fn normal_residual_is_zero_at_the_solution() {
        let h = h();
        let x = [2.0, -1.0];
        let b = h.matvec(&x).unwrap();
        let rhs = h.transpose_matvec(&b).unwrap();
        let (_, rel) = normal_residual(&h, &x, &rhs).unwrap();
        assert!(rel < 1e-12);
    }

    #[test]
    fn abs_residual_matches_manual_computation() {
        let h = h();
        let x = [1.0, 1.0];
        let counters = [1.5, 2.0, 0.5, 2.0];
        let r = abs_residual(&h, &x, &counters).unwrap();
        assert_eq!(r, vec![0.5, 0.0, 0.5, 0.0]);
        assert!(abs_residual(&h, &x, &[0.0; 3]).is_err());
    }

    #[test]
    fn per_group_mass_skips_unattributed_rows() {
        let mass = per_group_mass(&[1.0, 2.0, 4.0, 8.0], &[0, 1, usize::MAX, 0], 2);
        assert_eq!(mass, vec![9.0, 2.0]);
    }

    #[test]
    fn indicator_rhs_matches_transpose_matvec() {
        let h = h();
        let rows = [1usize, 3];
        let mut u = vec![0.0; 4];
        for &r in &rows {
            u[r] = 1.0;
        }
        assert_eq!(
            rows_indicator_rhs(&h, &rows),
            h.transpose_matvec(&u).unwrap()
        );
    }

    #[test]
    fn absorption_matches_dense_projection() {
        // Row 0 is exactly column 0 minus rows 1&3's shared structure;
        // compare against the explicit dense computation.
        let h = h();
        let gram = h.gram_csr();
        let f = SparseFactor::factor_fresh(&gram).unwrap();
        let rows = [0usize, 2];
        let (resid, x) = absorption_coefficients(&h, &f, &rows).unwrap();
        // Dense reference.
        let mut u = [0.0; 4];
        for &r in &rows {
            u[r] = 1.0;
        }
        let fitted = h.matvec(&x).unwrap();
        let explicit: f64 = u
            .iter()
            .zip(&fitted)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!((resid - explicit).abs() < 1e-12);
    }

    /// Removes `rows` and stranded columns from `h` explicitly.
    fn reduced(h: &CsrMatrix, rows: &[usize], stranded: &[usize]) -> (DenseMatrix, Vec<usize>) {
        let d = h.to_dense();
        let keep_rows: Vec<usize> = (0..h.rows()).filter(|r| !rows.contains(r)).collect();
        let keep_cols: Vec<usize> = (0..h.cols()).filter(|c| !stranded.contains(c)).collect();
        (d.select(&keep_rows, &keep_cols), keep_cols)
    }

    fn wide() -> CsrMatrix {
        // Column 3 lives on rows 0 and 5 only; rows 0 and 5 form "switch"
        // A. Column 4 duplicates column 2 outside rows {1, 2}.
        CsrMatrix::from_dense(
            &DenseMatrix::from_rows(&[
                &[1.0, 0.0, 1.0, 1.0, 0.0],
                &[1.0, 1.0, 1.0, 0.0, 0.0],
                &[0.0, 1.0, 0.0, 0.0, 1.0],
                &[1.0, 0.0, 1.0, 0.0, 1.0],
                &[0.0, 1.0, 1.0, 0.0, 1.0],
                &[0.0, 0.0, 0.0, 1.0, 0.0],
                &[1.0, 1.0, 0.0, 0.0, 0.0],
                &[0.0, 0.0, 1.0, 0.0, 0.0],
            ])
            .unwrap(),
        )
    }

    #[test]
    fn forward_sparse_matches_the_dense_forward_solve() {
        let h = wide();
        let f = SparseFactor::factor_fresh(&h.gram_csr()).unwrap();
        let b = [(1usize, 2.0), (3, -1.0)];
        let mut dense = vec![0.0; 5];
        for &(i, v) in &b {
            dense[i] = v;
        }
        let full = f.forward(&dense).unwrap();
        let sparse = f.forward_sparse([&b[..]]).remove(0);
        let mut scattered = vec![0.0; 5];
        for &(i, v) in &sparse {
            scattered[i] = v;
        }
        for (a, b) in full.iter().zip(&scattered) {
            assert!((a - b).abs() < 1e-12, "{full:?} vs {sparse:?}");
        }
        assert!(sparse.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn capacitance_solve_matches_the_explicitly_reduced_system() {
        let h = wide();
        let f = SparseFactor::factor_fresh(&h.gram_csr()).unwrap();
        let y: Vec<f64> = (0..8).map(|i| 3.0 + (i * 7 % 5) as f64).collect();
        let rows = [0usize, 5];
        let cap = Capacitance::new(&h, &f, &rows).unwrap();
        assert_eq!(cap.stranded(), &[3]);
        // Row 5 touches only the stranded column: one correction, row 0.
        assert_eq!(cap.corrections(), 1);
        assert!(!cap.rank_lost());
        let mut y_kept = y.clone();
        for &r in &rows {
            y_kept[r] = 0.0;
        }
        let x = cap
            .solve(&f, &h.transpose_matvec(&y_kept).unwrap())
            .unwrap();
        let (red, keep_cols) = reduced(&h, &rows, cap.stranded());
        let keep_rows: Vec<f64> = (0..8).filter(|r| !rows.contains(r)).map(|r| y[r]).collect();
        let chol = foces_linalg::Cholesky::factor(&red.gram()).unwrap();
        let want = chol
            .solve(&red.transpose_matvec(&keep_rows).unwrap())
            .unwrap();
        for (c, w) in keep_cols.iter().zip(&want) {
            assert!((x[*c] - w).abs() < 1e-10, "x[{c}] = {} vs {w}", x[*c]);
        }
        assert_eq!(x[3], 0.0);
    }

    #[test]
    fn capacitance_flags_exactly_the_rank_losing_removals() {
        let h = wide();
        let f = SparseFactor::factor_fresh(&h.gram_csr()).unwrap();
        // Every set of three rows: the verdict must equal the explicit
        // rank test, and both verdicts must occur.
        let mut lost_count = 0;
        for a in 0..8 {
            for b in a + 1..8 {
                for c in b + 1..8 {
                    let rows = [a, b, c];
                    let cap = Capacitance::new(&h, &f, &rows).unwrap();
                    let (red, keep) = reduced(&h, &rows, cap.stranded());
                    let lost = foces_linalg::rank(&red, 1e-9) < keep.len();
                    assert_eq!(cap.rank_lost(), lost, "rows {rows:?}");
                    lost_count += usize::from(lost);
                }
            }
        }
        assert!(
            lost_count > 0 && lost_count < 56,
            "{lost_count} of 56 lost rank"
        );
    }
}
