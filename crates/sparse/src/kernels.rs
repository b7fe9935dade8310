//! CSR kernels shared by the solve engine and the core detection machinery:
//! residual checks, per-group (suspicion) attribution, the coverage
//! absorption solve, and the leave-rows-out capacitance behind both the
//! coverage classifier and the leave-one-out localizer — all sparse, so
//! the Byzantine and coverage layers never densify a Gram matrix.

use crate::numeric::SparseFactor;
use crate::symbolic::{ereach, etree, NONE};
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

/// A sparse vector: `(index, value)` pairs, ascending.
type SparseVec = Vec<(usize, f64)>;

/// Removal of a set of rows `R` (a switch's rules, a round's unobserved
/// rows, or both) from a least-squares basis `B`, answered against the
/// factor of the full Gram `G = BᵀB` by the Woodbury identity — no
/// refactorization, no dense Gram.
///
/// Columns whose whole support lies in `R` are *stranded*: without `R`
/// nothing constrains them. Columns `a < b` that keep support but are equal
/// on the kept rows are *merged*: only their sum is identifiable, so the
/// null vector `e_a − e_b` of the reduced Gram pins them equal. With
/// `V = [E_S; W; B_R]` — the unit rows picking out the stranded
/// coordinates `S`, the `e_a − e_b` rows of the merged pairs (`k` positive
/// terms in all), then the `r` removed rows that keep an entry on a
/// non-stranded column — the modified Gram
///
/// ```text
/// M = G + E_SᵀE_S + WᵀW − B_RᵀB_R = G + Vᵀ·C·V,   C = diag(+I_k, −I_r)
/// ```
///
/// is block diagonal: the Gram of the reduced system (rows `R` and columns
/// `S` removed) plus `WᵀW` beside `I` plus the Gram of the rows that touch
/// only `S`, which is positive definite. `W` spans exactly the null space
/// the merges open, and `Bᵀy` over the kept rows is orthogonal to it, so
/// the solve returns the least-squares fit with each merged pair's
/// coefficients equal; `M` is singular exactly when the reduced system
/// loses rank some other way. With `Z = L⁻¹·P·Vᵀ` (one sparse forward
/// solve per column over its elimination-tree reach) the capacitance is
///
/// ```text
/// K = C⁻¹ + V·G⁻¹·Vᵀ = diag(+I_k, −I_r) + ZᵀZ,   det M = det G · det C · det K.
/// ```
///
/// `K` is assembled from the overlaps of `Z`'s supports and factored as a
/// sparse `L_K·D·L_Kᵀ` over its elimination tree, so its storage is the
/// nonzeros of `L_K` (diagonal when `Z` is, as for per-pair rules). Its
/// `k` positive pivots are ≥ 1, and its `r` row pivots are `−(1 − vᵀA⁻¹v)`
/// for the running `A = G + E_SᵀE_S + WᵀW − Σ v·vᵀ` — the quantity a
/// sequential rank-one Cholesky downdate must keep positive. A row pivot
/// within [`foces_linalg::DEFAULT_TOL`] of zero therefore marks `M`
/// singular by the same test a dense downdate applies.
#[derive(Debug, Clone)]
pub struct Capacitance {
    stranded: Vec<usize>,
    merged: Vec<(usize, usize)>,
    kept: usize,
    corrections: usize,
    /// Columns of `Z` in factor coordinates: stranded, merged, then rows.
    z: Vec<SparseVec>,
    /// Columns of the unit lower factor of `K`, strictly below the
    /// diagonal, as `(row, value)` ascending.
    l: Vec<SparseVec>,
    d: Vec<f64>,
    singular: bool,
}

impl Capacitance {
    /// Builds the capacitance for removing `rows` from `basis`, whose Gram
    /// `factor` has factored. The removal is read through a column view of
    /// the basis built for this call; a basis held in a
    /// [`BasisCholesky`](crate::BasisCholesky) reuses its memoized one
    /// ([`BasisCholesky::capacitance`](crate::BasisCholesky::capacitance)).
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
        Self::with_columns(basis, &basis.transpose(), factor, rows)
    }

    /// [`Capacitance::new`] given `columns = Bᵀ`. Only the columns the
    /// removed rows touch are read (and, for each that keeps rows, one of
    /// its kept rows), so the cost is what `rows` reach plus a row and a
    /// column mark.
    pub(crate) fn with_columns(
        basis: &CsrMatrix,
        columns: &CsrMatrix,
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
        let mut gone = rows.to_vec();
        gone.sort_unstable();
        gone.dedup();
        // Each column the removal touches is read once: it is stranded when
        // no kept row has an entry on it, and cut when one does.
        let mut state = vec![Touch::Untouched; n];
        let (mut stranded, mut cut) = (Vec::new(), Vec::new());
        for &r in &gone {
            for (j, _) in basis.row_iter(r) {
                if state[j] != Touch::Untouched {
                    continue;
                }
                match Cut::of(basis, columns, &removed, j) {
                    Some(c) => {
                        state[j] = Touch::Cut;
                        cut.push(c);
                    }
                    None => {
                        state[j] = Touch::Stranded;
                        stranded.push(j);
                    }
                }
            }
        }
        stranded.sort_unstable();
        let merged = merged_columns(basis, columns, &removed, &state, &cut);
        // A removed row on stranded columns only leaves the reduced system
        // with them: it needs no correction.
        let corrected: Vec<usize> = gone
            .into_iter()
            .filter(|&r| basis.row_iter(r).any(|(j, _)| state[j] != Touch::Stranded))
            .collect();
        Ok(Self::from_removal(
            basis, factor, stranded, merged, &corrected,
        ))
    }

    /// Assembles the capacitance of removing rows from `basis`, whose Gram
    /// `factor` has factored, from the structural decision
    /// [`Capacitance::new`] takes: the stranded columns and the merged
    /// pairs, both ascending, and the removed rows that keep an entry on a
    /// surviving column, ascending. A reference implementation of that
    /// decision assembles here to compare its solves bit for bit.
    #[doc(hidden)]
    pub fn from_removal(
        basis: &CsrMatrix,
        factor: &SparseFactor,
        stranded: Vec<usize>,
        merged: Vec<(usize, usize)>,
        corrected: &[usize],
    ) -> Self {
        // Columns of Vᵀ: the stranded unit vectors, the merged pairs' null
        // vectors, then the corrected rows. `M` stays block diagonal
        // without the rows on stranded columns only.
        let mut v: Vec<SparseVec> = stranded.iter().map(|&j| vec![(j, 1.0)]).collect();
        v.extend(merged.iter().map(|&(a, b)| vec![(a, 1.0), (b, -1.0)]));
        let k = v.len();
        v.extend(corrected.iter().map(|&r| basis.row_iter(r).collect()));
        let z = factor.forward_sparse(v.iter().map(Vec::as_slice));
        let n = factor.dim();
        let (l, d, singular) = ldl_signed(&z, k, n);
        Capacitance {
            kept: n - stranded.len(),
            stranded,
            merged,
            corrections: z.len() - k,
            z,
            l,
            d,
            singular,
        }
    }

    /// Basis columns left unconstrained by the removal, ascending.
    pub fn stranded(&self) -> &[usize] {
        &self.stranded
    }

    /// Pairs `(a, b)`, `a < b`, of surviving basis columns the removal
    /// left equal on the kept rows: `a` is the lowest column of its merged
    /// group, and the solve returns `x_a = x_b`. Ascending.
    pub fn merged(&self) -> &[(usize, usize)] {
        &self.merged
    }

    /// Rank-one corrections applied: one per removed row with an entry on
    /// a kept column.
    pub fn corrections(&self) -> usize {
        self.corrections
    }

    /// Whether the reduced system has lost rank beyond its merged columns
    /// (or keeps no column).
    pub fn rank_lost(&self) -> bool {
        self.singular || self.kept == 0
    }

    /// Solves the reduced normal equations: returns `x` with `x_S = 0`,
    /// each merged pair equal, and the kept coordinates solving
    /// `G_kept' · x = rhs_kept`, where `rhs` is already the reduced
    /// right-hand side `B'ᵀ·y'` in basis coordinates (its stranded entries
    /// are ignored).
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

    /// The squared norm `bᵀx` of the least-squares fit that
    /// [`Capacitance::solve`] returns for `rhs = b`, given sparsely as
    /// `(basis column, value)` entries (entries on one column add; those on
    /// stranded columns are ignored) — without solving for `x`. With
    /// `u = L⁻¹P·b` from one sparse forward solve over the
    /// elimination-tree reach of `b` and `t = Zᵀu`, it is
    /// `‖u‖² − tᵀK⁻¹t`: no backward solve and no product with the basis.
    /// For `b = B'ᵀy` the squared residual of the fit is `‖y‖² − bᵀx`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotPositiveDefinite`] when [`Capacitance::rank_lost`].
    ///
    /// # Panics
    ///
    /// Panics if an entry's column is not below `factor.dim()`.
    pub fn fit_sq_norm(
        &self,
        factor: &SparseFactor,
        rhs: &[(usize, f64)],
    ) -> Result<f64, LinalgError> {
        if self.rank_lost() {
            return Err(LinalgError::NotPositiveDefinite {
                pivot: self.stranded.len(),
                value: 0.0,
            });
        }
        let stranded = |j: &usize| self.stranded.binary_search(j).is_ok();
        let b: SparseVec = rhs.iter().copied().filter(|(j, _)| !stranded(j)).collect();
        let u = factor.forward_sparse([b.as_slice()]).remove(0);
        let fit: f64 = u.iter().map(|&(_, v)| v * v).sum();
        if self.z.is_empty() {
            return Ok(fit);
        }
        let mut dense = vec![0.0f64; factor.dim()];
        for &(i, v) in &u {
            dense[i] = v;
        }
        let mut t: Vec<f64> = self
            .z
            .iter()
            .map(|col| col.iter().map(|&(i, v)| v * dense[i]).sum())
            .collect();
        // tᵀK⁻¹t = Σ w²/d over w = L_K⁻¹t.
        self.ldl_forward(&mut t);
        let correction: f64 = t.iter().zip(&self.d).map(|(w, d)| w * w / d).sum();
        Ok(fit - correction)
    }

    /// `t ← L_K⁻¹·t`, the unit lower triangular half of
    /// [`Capacitance::ldl_solve`].
    fn ldl_forward(&self, t: &mut [f64]) {
        for (j, col) in self.l.iter().enumerate() {
            for &(r, v) in col {
                t[r] -= v * t[j];
            }
        }
    }

    fn ldl_solve(&self, t: &mut [f64]) {
        self.ldl_forward(t);
        for (ta, &da) in t.iter_mut().zip(&self.d) {
            *ta /= da;
        }
        for (j, col) in self.l.iter().enumerate().rev() {
            for &(r, v) in col {
                t[j] -= v * t[r];
            }
        }
    }
}

/// What a removal did to a basis column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Touch {
    Untouched,
    Cut,
    Stranded,
}

/// A column the removal touched that keeps rows, summarized by one pass
/// over its entries.
struct Cut {
    col: usize,
    /// Kept entries.
    len: usize,
    /// The first kept row.
    first: usize,
    /// The kept row with the fewest basis entries.
    via: usize,
    /// A hash of the kept entries, visited in row order.
    sig: u64,
}

impl Cut {
    /// `col`'s summary, or `None` when the removal strands it.
    fn of(basis: &CsrMatrix, columns: &CsrMatrix, removed: &[bool], col: usize) -> Option<Cut> {
        let ptr = basis.indptr();
        let width = |i: usize| ptr[i + 1] - ptr[i];
        let mut kept = columns.row_iter(col).filter(|&(i, _)| !removed[i]);
        let (first, v) = kept.next()?;
        let mut c = Cut {
            col,
            len: 1,
            first,
            via: first,
            sig: mix(0, first, v),
        };
        for (i, v) in kept {
            c.len += 1;
            c.sig = mix(c.sig, i, v);
            if width(i) < width(c.via) {
                c.via = i;
            }
        }
        Some(c)
    }
}

/// One step of the kept-entry hash.
fn mix(h: u64, i: usize, v: f64) -> u64 {
    (h.rotate_left(7) ^ (i as u64) ^ v.to_bits().rotate_left(32))
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The merged pairs of [`Capacitance::new`], ascending: `(a, b)` for each
/// surviving column `b` whose kept entries equal those of a lower column
/// `a`, the lowest of its group. Two columns that kept every row are still
/// distinct, so each group holds a `cut` column. An untouched partner of a
/// cut column has an entry on every kept row of it and nowhere else, so it
/// is found through the cut column's `via` row. Candidates share a `sig`
/// and are confirmed entry by entry.
fn merged_columns(
    basis: &CsrMatrix,
    columns: &CsrMatrix,
    removed: &[bool],
    state: &[Touch],
    cut: &[Cut],
) -> Vec<(usize, usize)> {
    let kept = |j: usize| {
        columns
            .row_iter(j)
            .filter(|&(i, _)| !removed[i])
            .map(|(i, v)| (i, v.to_bits()))
    };
    let (col_ptr, col_rows) = (columns.indptr(), columns.indices());
    let mut keyed: Vec<(u64, usize)> = cut.iter().map(|c| (c.sig, c.col)).collect();
    for c in cut {
        for (j, _) in basis.row_iter(c.via) {
            let at = col_ptr[j];
            if state[j] == Touch::Untouched
                && col_ptr[j + 1] - at == c.len
                && col_rows[at] == c.first
                && kept(j).eq(kept(c.col))
            {
                keyed.push((c.sig, j));
            }
        }
    }
    if !any_equal_sig(&keyed) {
        return Vec::new();
    }
    keyed.sort_unstable();
    keyed.dedup();
    let mut pairs = Vec::new();
    for bucket in keyed.chunk_by(|a, b| a.0 == b.0).filter(|b| b.len() > 1) {
        // The first column of each distinct pattern, ascending.
        let mut reps: Vec<usize> = Vec::new();
        for &(_, j) in bucket {
            match reps.iter().find(|&&a| kept(a).eq(kept(j))) {
                Some(&a) => pairs.push((a, j)),
                None => reps.push(j),
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

/// Whether two entries of `keyed` share a hash, by one pass over an
/// open-addressed table indexed by the hash's top bits.
fn any_equal_sig(keyed: &[(u64, usize)]) -> bool {
    if keyed.len() < 2 {
        return false;
    }
    let bits = (2 * keyed.len()).next_power_of_two().trailing_zeros();
    let mask = (1usize << bits) - 1;
    let mut table: Vec<Option<u64>> = vec![None; mask + 1];
    for &(sig, _) in keyed {
        let mut at = (sig >> (64 - bits)) as usize;
        loop {
            match table[at] {
                None => {
                    table[at] = Some(sig);
                    break;
                }
                Some(s) if s == sig => return true,
                Some(_) => at = (at + 1) & mask,
            }
        }
    }
    false
}

/// `K = L·D·Lᵀ` without pivoting, up-looking over `K`'s elimination tree,
/// for `K = diag(+I_k, −I_r) + ZᵀZ` assembled from the overlaps of `z`'s
/// columns. The first `k` pivots must be positive and the rest negative.
/// Returns `(L by columns, D, singular)`; `singular` is set, and the
/// factorization stops, at the first pivot that is not bounded away from
/// zero with its expected sign.
fn ldl_signed(z: &[SparseVec], k: usize, dim: usize) -> (Vec<SparseVec>, Vec<f64>, bool) {
    let q = z.len();
    // `Z` by rows (factor coordinates below `dim`), each row's columns
    // ascending: row a of K meets the earlier columns sharing one with z_a.
    let mut start = vec![0usize; dim + 1];
    for &(i, _) in z.iter().flatten() {
        start[i + 1] += 1;
    }
    for i in 0..dim {
        start[i + 1] += start[i];
    }
    let mut next = start.clone();
    let mut at = vec![(0usize, 0.0f64); start[dim]];
    for (a, za) in z.iter().enumerate() {
        for &(i, v) in za {
            at[next[i]] = (a, v);
            next[i] += 1;
        }
    }
    let (mut rowptr, mut colidx, mut vals) = (vec![0], Vec::new(), Vec::new());
    let (mut acc, mut hit, mut diag) = (vec![0.0f64; q], vec![usize::MAX; q], Vec::new());
    for (a, za) in z.iter().enumerate() {
        let first = colidx.len();
        for &(i, va) in za {
            for &(b, vb) in at[start[i]..start[i + 1]].iter().take_while(|e| e.0 < a) {
                if hit[b] != a {
                    (hit[b], acc[b]) = (a, 0.0);
                    colidx.push(b);
                }
                acc[b] += va * vb;
            }
        }
        colidx[first..].sort_unstable();
        vals.extend(colidx[first..].iter().map(|&b| acc[b]));
        rowptr.push(colidx.len());
        let norm: f64 = za.iter().map(|&(_, v)| v * v).sum();
        diag.push(norm + if a < k { 1.0 } else { -1.0 });
    }
    let parent = etree(q, &rowptr, &colidx);
    let mut l: Vec<SparseVec> = vec![Vec::new(); q];
    let mut d = vec![0.0f64; q];
    let (mut w, mut s, mut x) = (vec![NONE; q], vec![0usize; q], vec![0.0f64; q]);
    for j in 0..q {
        let row = &colidx[rowptr[j]..rowptr[j + 1]];
        let top = ereach(row, j, &parent, &mut w, &mut s);
        for (&c, &v) in row.iter().zip(&vals[rowptr[j]..rowptr[j + 1]]) {
            x[c] = v;
        }
        // Up-looking: y_p = L[j][p]·d[p] in topological order.
        let mut dj = diag[j];
        for &p in &s[top..] {
            let yp = std::mem::take(&mut x[p]);
            for &(r, v) in &l[p] {
                x[r] -= v * yp;
            }
            let ljp = yp / d[p];
            dj -= ljp * yp;
            l[p].push((j, ljp));
        }
        let sign = if j < k { 1.0 } else { -1.0 };
        if sign * dj <= foces_linalg::DEFAULT_TOL {
            return (l, d, true);
        }
        d[j] = dj;
    }
    (l, d, false)
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
    fn fit_sq_norm_is_the_squared_norm_of_the_solved_fit() {
        // No removal, every removal of up to two rows, and the merging one
        // of `merged_columns_are_pinned_equal_…`, with a row set as the 0/1
        // right-hand side: `bᵀx` from the sparse forward solve equals
        // `‖B'x‖²` from the full solve, stranded entries ignored.
        let h = wide();
        let f = SparseFactor::factor_fresh(&h.gram_csr()).unwrap();
        let removals = (0..8).flat_map(|a| (a..8).map(move |b| vec![a, b]));
        let merging = vec![0usize, 1, 2, 7];
        let mut checked = 0;
        for rows in [Vec::new(), merging].into_iter().chain(removals) {
            let cap = Capacitance::new(&h, &f, &rows).unwrap();
            if cap.rank_lost() {
                assert!(cap.fit_sq_norm(&f, &[(0, 1.0)]).is_err());
                continue;
            }
            let support: Vec<usize> = [1usize, 3, 6]
                .into_iter()
                .filter(|r| !rows.contains(r))
                .collect();
            let mut y = vec![0.0; 8];
            let mut entries = Vec::new();
            for &r in &support {
                y[r] = 1.0;
                entries.extend(h.row_iter(r));
            }
            let x = cap.solve(&f, &h.transpose_matvec(&y).unwrap()).unwrap();
            let fitted = h.matvec(&x).unwrap();
            let kept = (0..8).filter(|r| !rows.contains(r));
            let want: f64 = kept.map(|r| fitted[r] * fitted[r]).sum();
            let got = cap.fit_sq_norm(&f, &entries).unwrap();
            assert!((got - want).abs() < 1e-10, "rows {rows:?}: {got} vs {want}");
            checked += 1;
        }
        assert!(checked > 20, "{checked} removals kept rank");
    }

    #[test]
    fn capacitance_flags_exactly_the_rank_losing_removals() {
        let h = wide();
        let f = SparseFactor::factor_fresh(&h.gram_csr()).unwrap();
        // Every set of three rows: merged pairs plus the remaining rank
        // loss must equal the explicit rank test, rank loss must equal it
        // once each merged pair's second column is dropped, and all three
        // outcomes must occur.
        let (mut lost_count, mut merged_count) = (0, 0);
        for a in 0..8 {
            for b in a + 1..8 {
                for c in b + 1..8 {
                    let rows = [a, b, c];
                    let cap = Capacitance::new(&h, &f, &rows).unwrap();
                    let (red, keep) = reduced(&h, &rows, cap.stranded());
                    let lost = foces_linalg::rank(&red, 1e-9) < keep.len();
                    let merged = !cap.merged().is_empty();
                    assert_eq!(cap.rank_lost() || merged, lost, "rows {rows:?}");
                    let mut gone = cap.stranded().to_vec();
                    gone.extend(cap.merged().iter().map(|&(_, b)| b));
                    let (red, keep) = reduced(&h, &rows, &gone);
                    let lost = foces_linalg::rank(&red, 1e-9) < keep.len();
                    assert_eq!(cap.rank_lost(), lost, "rows {rows:?}");
                    lost_count += usize::from(cap.rank_lost());
                    merged_count += usize::from(merged);
                }
            }
        }
        assert!(
            lost_count > 0 && merged_count > 0 && lost_count + merged_count < 56,
            "{lost_count} lost rank and {merged_count} merged of 56"
        );
    }

    #[test]
    fn merged_columns_are_pinned_equal_and_fit_like_the_merged_system() {
        // Column 2 lives on rows 0, 1, 3, 4, 7 and column 4 on rows 2, 3,
        // 4: without rows 0, 1, 2 and 7 both keep exactly rows 3 and 4.
        let h = wide();
        let f = SparseFactor::factor_fresh(&h.gram_csr()).unwrap();
        let rows = [0usize, 1, 2, 7];
        let cap = Capacitance::new(&h, &f, &rows).unwrap();
        assert_eq!(cap.merged(), &[(2, 4)]);
        assert!(!cap.rank_lost());
        let y: Vec<f64> = (0..8).map(|i| 2.0 + (i * 5 % 7) as f64).collect();
        let mut y_kept = y.clone();
        for &r in &rows {
            y_kept[r] = 0.0;
        }
        let x = cap
            .solve(&f, &h.transpose_matvec(&y_kept).unwrap())
            .unwrap();
        assert!((x[2] - x[4]).abs() < 1e-10, "{x:?}");
        // The fit equals the reduced system's with column 4 folded into 2.
        let mut gone = cap.stranded().to_vec();
        gone.push(4);
        let (red, keep_cols) = reduced(&h, &rows, &gone);
        let keep_rows: Vec<usize> = (0..8).filter(|r| !rows.contains(r)).collect();
        let y_red: Vec<f64> = keep_rows.iter().map(|&r| y[r]).collect();
        let want = foces_linalg::Cholesky::factor(&red.gram())
            .unwrap()
            .solve(&red.transpose_matvec(&y_red).unwrap())
            .unwrap();
        let fit_want = red.matvec(&want).unwrap();
        let fit = h.matvec(&x).unwrap();
        for (k, &r) in keep_rows.iter().enumerate() {
            assert!((fit[r] - fit_want[k]).abs() < 1e-9, "row {r}");
        }
        assert_eq!(keep_cols.len() + 1, 5 - cap.stranded().len());
    }
}
