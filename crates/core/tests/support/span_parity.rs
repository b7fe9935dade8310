//! One span-oracle parity case, shared by
//! `crates/core/tests/span_props.rs` (256 random cases) and the
//! workspace-root `tests/theorem_properties.rs` (fixed seeds, tier-1).
//!
//! The contract: [`SpanOracle::contains_rows`], which answers most
//! out-of-span queries from the norm of one sparse forward solve, decides
//! every 0/1 query exactly as the dense rank reference
//! [`in_column_span`] does. A case builds two random 0/1 matrices: a
//! degenerate one full of duplicate, zero and dependent columns (the
//! oracle drops pivots), and a full-column-rank one (the matrix with one
//! private row per column, so [`coverage_without`] removes rows on the
//! full factor's capacitance). Both are queried whole through
//! [`SpanOracle::contains_rows`], and with rows removed through
//! [`coverage_without`], one candidate at a time. The masks remove random
//! rows, a column's whole support (a stranded column) and the rows two
//! columns differ on (a merged pair).

use foces::{coverage_without, testkit, BackendKind, DeviationCandidate, Fcm, SpanOracle};
use foces_linalg::{in_column_span, rank, DenseMatrix, DEFAULT_TOL};
use foces_net::SwitchId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random 0/1 matrix built to make the oracle drop pivots. Rows fall
/// into a few random blocks and most columns are unions of blocks, so two
/// disjoint unions sum to a third; the rest are duplicates of earlier
/// columns, zero columns, or unstructured random columns.
pub fn degenerate_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> DenseMatrix {
    let blocks = rng.gen_range(2..rows.min(5) + 1);
    let block_of: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..blocks)).collect();
    let mut m = DenseMatrix::zeros(rows, cols);
    for j in 0..cols {
        match rng.gen_range(0..6) {
            0 if j > 0 => {
                let src = rng.gen_range(0..j);
                for i in 0..rows {
                    m.set(i, j, m.get(i, src));
                }
            }
            1 => {} // zero column
            2 => {
                for i in 0..rows {
                    m.set(i, j, f64::from(u8::from(rng.gen_bool(0.4))));
                }
            }
            _ => {
                let picked: Vec<bool> = (0..blocks).map(|_| rng.gen_bool(0.5)).collect();
                for (i, &b) in block_of.iter().enumerate() {
                    m.set(i, j, f64::from(u8::from(picked[b])));
                }
            }
        }
    }
    m
}

/// `h` with one private row per column below it: full column rank, with
/// `h`'s duplicate and dependent columns told apart only by their private
/// rows — removing those rows strands or merges them.
fn with_private_rows(h: &DenseMatrix) -> DenseMatrix {
    let (rows, cols) = (h.rows(), h.cols());
    let mut m = DenseMatrix::zeros(rows + cols, cols);
    for j in 0..cols {
        for i in 0..rows {
            m.set(i, j, h.get(i, j));
        }
        m.set(rows + j, j, 1.0);
    }
    m
}

/// What a case's masks removed, for the fixed slice to check the cases
/// reach the kernel's stranded and merged paths.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Span queries compared with the dense reference.
    pub queries: usize,
    /// Masks on a full-rank matrix that stranded a column and kept the
    /// reduced system's rank (so the kernel, not a masked FCM, answered).
    pub kernel_stranded: usize,
    /// Likewise, masks that merged two columns.
    pub kernel_merged: usize,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.queries += other.queries;
        self.kernel_stranded += other.kernel_stranded;
        self.kernel_merged += other.kernel_merged;
    }
}

/// Checks the case `seed` on `rows × cols` matrices, panicking on the
/// first query the oracle and the dense reference decide differently.
pub fn check_case(rows: usize, cols: usize, seed: u64) -> Tally {
    let mut rng = StdRng::seed_from_u64(seed);
    let h = degenerate_matrix(rows, cols, &mut rng);
    let mut tally = Tally::default();
    for (m, full_rank) in [(h.clone(), false), (with_private_rows(&h), true)] {
        let fcm = testkit::fcm_from_dense(&m);
        let queries = supports(&m, &mut rng);
        let oracle = SpanOracle::new(&fcm);
        for q in &queries {
            let want = in_column_span(&m, &indicator(m.rows(), q), DEFAULT_TOL);
            assert_eq!(oracle.contains_rows(q), want, "rows {q:?} of {m:?}");
        }
        tally.queries += queries.len();
        for kept in masks(&m, &mut rng) {
            tally += check_mask(&fcm, &m, &kept, &queries, full_rank);
        }
    }
    tally
}

/// Row supports to query: each column's, each column's with one more
/// row, unions of two columns, and random ones.
fn supports(m: &DenseMatrix, rng: &mut StdRng) -> Vec<Vec<usize>> {
    let (rows, cols) = (m.rows(), m.cols());
    let support = |j: usize| -> Vec<usize> { (0..rows).filter(|&i| m.get(i, j) != 0.0).collect() };
    let mut out: Vec<Vec<usize>> = (0..cols).map(support).collect();
    for j in 0..cols {
        let mut s = support(j);
        s.push(rng.gen_range(0..rows));
        out.push(s);
    }
    for _ in 0..4 {
        let mut s = support(rng.gen_range(0..cols));
        s.extend(support(rng.gen_range(0..cols)));
        out.push(s);
        let p = if rng.gen_bool(0.5) { 0.3 } else { 0.1 };
        out.push((0..rows).filter(|_| rng.gen_bool(p)).collect());
    }
    out
}

/// Kept-row masks: random rows, a column's whole support, and the rows
/// two columns differ on (their private rows among them, if any).
fn masks(m: &DenseMatrix, rng: &mut StdRng) -> Vec<Vec<bool>> {
    let (rows, cols) = (m.rows(), m.cols());
    let random: Vec<bool> = (0..rows).map(|_| rng.gen_bool(0.7)).collect();
    let j = rng.gen_range(0..cols);
    let strand: Vec<bool> = (0..rows).map(|i| m.get(i, j) == 0.0).collect();
    let (a, b) = (rng.gen_range(0..cols), rng.gen_range(0..cols));
    let merge: Vec<bool> = (0..rows).map(|i| m.get(i, a) == m.get(i, b)).collect();
    [random, strand, merge]
        .into_iter()
        .filter(|kept| kept.contains(&true))
        .collect()
}

/// Each query's undetectability under `kept` through [`coverage_without`]
/// against the dense reference on the kept rows.
fn check_mask(
    fcm: &Fcm,
    m: &DenseMatrix,
    kept: &[bool],
    queries: &[Vec<usize>],
    full_rank: bool,
) -> Tally {
    let kept_rows: Vec<usize> = (0..kept.len()).filter(|&i| kept[i]).collect();
    let all_cols: Vec<usize> = (0..m.cols()).collect();
    let reduced = m.select(&kept_rows, &all_cols);
    for q in queries {
        let v: Vec<f64> = kept_rows
            .iter()
            .map(|i| f64::from(u8::from(q.contains(i))))
            .collect();
        let candidate = DeviationCandidate {
            flow: 0,
            at_switch: SwitchId(0),
            redirected_to: SwitchId(0),
            deviated_history: q.iter().map(|&i| fcm.rules()[i]).collect(),
            still_delivered: false,
        };
        let cov = coverage_without(fcm, kept, &[candidate], &[], BackendKind::default());
        let undetectable = in_column_span(&reduced, &v, DEFAULT_TOL);
        assert_eq!(
            cov == 0.0,
            undetectable,
            "rows {q:?}, kept {kept:?} of {m:?}"
        );
    }
    let mut tally = Tally {
        queries: queries.len(),
        ..Tally::default()
    };
    if full_rank {
        let (stranded, merged, kernel) = removal_shape(&reduced, m);
        tally.kernel_stranded = usize::from(kernel && stranded);
        tally.kernel_merged = usize::from(kernel && merged);
    }
    tally
}

/// Whether the removal that left `reduced` stranded a column of `m`,
/// merged two, and kept the reduced system's rank once the stranded
/// columns are dropped and each merged group is folded into one column —
/// the cases the row-removal kernel answers itself.
fn removal_shape(reduced: &DenseMatrix, m: &DenseMatrix) -> (bool, bool, bool) {
    let nonzero = |a: &DenseMatrix, j: usize| a.col(j).iter().any(|&x| x != 0.0);
    let stranded = (0..m.cols()).any(|j| nonzero(m, j) && !nonzero(reduced, j));
    let mut distinct: Vec<usize> = Vec::new();
    let mut merged = false;
    for j in (0..reduced.cols()).filter(|&j| nonzero(reduced, j)) {
        if distinct.iter().any(|&d| reduced.col(d) == reduced.col(j)) {
            merged = true;
        } else {
            distinct.push(j);
        }
    }
    let rows: Vec<usize> = (0..reduced.rows()).collect();
    let folded = reduced.select(&rows, &distinct);
    let kernel = rank(&folded, 1e-9) == distinct.len();
    (stranded, merged, kernel)
}

fn indicator(len: usize, support: &[usize]) -> Vec<f64> {
    let mut v = vec![0.0; len];
    for &i in support {
        v[i] = 1.0;
    }
    v
}
