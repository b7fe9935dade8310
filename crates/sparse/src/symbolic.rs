//! Symbolic Cholesky analysis: fill-reducing ordering, elimination tree
//! and column counts.
//!
//! The analysis depends on the Gram's sparsity pattern alone. It is built
//! once per basis ([`crate::BasisCholesky`]) and read by every
//! factorization of that basis: the memoized factor, a private one-off
//! factor and the dependent-pivot-dropping factor all skip the ordering
//! once one of them ran it.

use crate::ordering::{amd_order, invert_permutation};
use foces_linalg::CsrMatrix;

/// Sentinel for "no parent" in the elimination tree.
pub(crate) const NONE: usize = usize::MAX;

/// Symbolic analysis of a symmetric positive-definite pattern.
#[derive(Debug, Clone)]
pub struct SymbolicCholesky {
    pub(crate) n: usize,
    /// `perm[k]` = original index eliminated at step k (AMD order).
    pub(crate) perm: Vec<usize>,
    /// Inverse permutation: `iperm[orig] = k`.
    pub(crate) iperm: Vec<usize>,
    /// Elimination tree over permuted indices (`NONE` = root).
    pub(crate) parent: Vec<usize>,
    /// Nonzeros per column of L, including the diagonal.
    pub(crate) colcount: Vec<usize>,
    /// Total nonzeros in L.
    pub(crate) lnz: usize,
}

impl SymbolicCholesky {
    /// Runs the full symbolic phase on a symmetric pattern: AMD ordering,
    /// elimination tree, and per-column factor counts.
    ///
    /// # Panics
    ///
    /// Panics if `gram` is not square.
    pub fn analyze(gram: &CsrMatrix) -> Self {
        let n = gram.rows();
        assert_eq!(n, gram.cols(), "symbolic analysis needs a square matrix");
        let perm = amd_order(gram);
        let iperm = invert_permutation(&perm);
        let (rowptr, rowidx, _) = permuted_lower(gram, &iperm);
        let parent = etree(n, &rowptr, &rowidx);
        // Column counts via one ereach pass per row: row k of L has a
        // nonzero in column j exactly when j is on an etree path from a
        // pattern entry of permuted row k up to k.
        let mut colcount = vec![1usize; n];
        let mut w = vec![NONE; n];
        let mut s = vec![0usize; n];
        for k in 0..n {
            let row = strict_lower(&rowidx[rowptr[k]..rowptr[k + 1]], k);
            let top = ereach(row, k, &parent, &mut w, &mut s);
            for &j in &s[top..] {
                colcount[j] += 1;
            }
        }
        let lnz = colcount.iter().sum();
        SymbolicCholesky {
            n,
            perm,
            iperm,
            parent,
            colcount,
            lnz,
        }
    }

    /// Dimension of the analyzed matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Predicted nonzeros in the Cholesky factor L (including diagonals).
    pub fn lnz(&self) -> usize {
        self.lnz
    }
}

/// Drops the diagonal entry (== `k`) from a sorted permuted-lower row.
pub(crate) fn strict_lower(row: &[usize], k: usize) -> &[usize] {
    match row.last() {
        Some(&last) if last == k => &row[..row.len() - 1],
        _ => row,
    }
}

/// Extracts the lower triangle (including diagonal) of the symmetrically
/// permuted matrix, in CSR form over permuted indices with each row sorted.
/// Returns `(rowptr, colidx, values)`.
pub(crate) fn permuted_lower(
    gram: &CsrMatrix,
    iperm: &[usize],
) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let n = gram.rows();
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for orig_row in 0..n {
        let k = iperm[orig_row];
        for (orig_col, v) in gram.row_iter(orig_row) {
            let i = iperm[orig_col];
            if i <= k {
                rows[k].push((i, v));
            }
        }
    }
    let mut rowptr = Vec::with_capacity(n + 1);
    let mut colidx = Vec::new();
    let mut values = Vec::new();
    rowptr.push(0);
    for row in &mut rows {
        row.sort_unstable_by_key(|&(i, _)| i);
        for &(i, v) in row.iter() {
            colidx.push(i);
            values.push(v);
        }
        rowptr.push(colidx.len());
    }
    (rowptr, colidx, values)
}

/// Liu's elimination-tree algorithm with path compression: `parent[j]` is
/// the first row above `j` whose factor row reaches column `j`.
pub(crate) fn etree(n: usize, rowptr: &[usize], rowidx: &[usize]) -> Vec<usize> {
    let mut parent = vec![NONE; n];
    let mut ancestor = vec![NONE; n];
    for k in 0..n {
        for &i0 in &rowidx[rowptr[k]..rowptr[k + 1]] {
            let mut i = i0;
            while i != NONE && i < k {
                let next = ancestor[i];
                ancestor[i] = k;
                if next == NONE {
                    parent[i] = k;
                    break;
                }
                i = next;
            }
        }
    }
    parent
}

/// Computes the nonzero pattern of row `k` of L (strictly below the
/// diagonal) as etree paths from each pattern entry of the permuted row up
/// toward `k`. Results land in `s[top..]` in topological order — every
/// column appears before its etree parent — which is exactly the order the
/// up-looking numeric factorization must process them in.
///
/// `w` is a workspace stamped with `k` to deduplicate; `s` is the output
/// stack. Returns `top`, the start index of the pattern within `s`.
pub(crate) fn ereach(
    row: &[usize],
    k: usize,
    parent: &[usize],
    w: &mut [usize],
    s: &mut [usize],
) -> usize {
    let n = s.len();
    let mut top = n;
    w[k] = k;
    for &i0 in row {
        let mut i = i0;
        let mut len = 0;
        while i != NONE && i < k && w[i] != k {
            s[len] = i;
            len += 1;
            w[i] = k;
            i = parent[i];
        }
        while len > 0 {
            len -= 1;
            top -= 1;
            s[top] = s[len];
        }
    }
    top
}

#[cfg(test)]
mod tests {
    use super::*;
    use foces_linalg::{DenseMatrix, Triplet};

    fn arrow_matrix(n: usize) -> CsrMatrix {
        // Arrowhead: dense last row/col + diagonal. Natural order fills the
        // factor completely; a fill-reducing order keeps it linear.
        let mut t = Vec::new();
        for i in 0..n {
            t.push(Triplet {
                row: i,
                col: i,
                value: 4.0 + i as f64,
            });
        }
        for i in 0..n - 1 {
            t.push(Triplet {
                row: i,
                col: n - 1,
                value: 1.0,
            });
            t.push(Triplet {
                row: n - 1,
                col: i,
                value: 1.0,
            });
        }
        CsrMatrix::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn arrowhead_stays_fill_free_under_amd() {
        let a = arrow_matrix(50);
        let sym = SymbolicCholesky::analyze(&a);
        // With the hub eliminated last, L has exactly the lower-triangle
        // pattern of A: n diagonals + (n-1) hub entries.
        assert_eq!(sym.lnz(), 50 + 49);
    }

    #[test]
    fn etree_of_tridiagonal_is_a_path() {
        let n = 6;
        let mut d = DenseMatrix::zeros(n, n);
        for i in 0..n {
            d.set(i, i, 2.0);
            if i > 0 {
                d.set(i, i - 1, -1.0);
                d.set(i - 1, i, -1.0);
            }
        }
        let m = CsrMatrix::from_dense(&d);
        let iperm: Vec<usize> = (0..n).collect();
        let (rp, ri, _) = permuted_lower(&m, &iperm);
        let parent = etree(n, &rp, &ri);
        for (j, &p) in parent.iter().enumerate().take(n - 1) {
            assert_eq!(p, j + 1);
        }
        assert_eq!(parent[n - 1], NONE);
    }
}
