//! One capacitance parity case, shared by
//! `crates/sparse/tests/capacitance_props.rs` (256 random cases) and the
//! workspace-root `tests/capacitance_parity.rs` (fixed seeds, tier-1).
//!
//! The contract: [`Capacitance::new`] and [`BasisCholesky::capacitance`],
//! which read only the columns the removed rows reach, take the same
//! structural decision as the full-basis scan they replaced, kept below
//! verbatim as [`reference`]: the same stranded columns, merged pairs,
//! corrections and rank verdict, and hence bit-equal
//! [`Capacitance::solve`] and [`Capacitance::fit_sq_norm`] outputs.
//!
//! A case stacks a random 0/1 block `h` (built from a few row blocks, so
//! it is full of duplicate and dependent columns, with some zero columns)
//! over private rows, one for most columns: the basis keeps full column
//! rank, and removing private rows merges the columns `h` cannot tell
//! apart (with an untouched partner when one of them owns no private row),
//! strands the zero ones, and loses rank where `h` is dependent. The
//! removals are none, every row, random rows, private rows of duplicate
//! columns, a column's whole support, every private row, and random mixes.

#![allow(dead_code)]

use foces_linalg::{CsrMatrix, Triplet};
use foces_sparse::{BasisCholesky, Capacitance, SparseFactor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The full-basis scan [`Capacitance::new`] ran before it became
/// reach-limited, verbatim up to the assembly of `Z` and `K`.
pub fn reference(basis: &CsrMatrix, factor: &SparseFactor, rows: &[usize]) -> Capacitance {
    let n = basis.cols();
    let mut removed = vec![false; basis.rows()];
    for &r in rows {
        removed[r] = true;
    }
    // A column is stranded when no kept row touches it. `sig` hashes
    // each column's entries on the kept rows, visited in row order.
    let mut touched = vec![false; n];
    let mut survives = vec![false; n];
    let mut sig = vec![0u64; n];
    for (i, &gone) in removed.iter().enumerate() {
        for (j, v) in basis.row_iter(i) {
            if gone {
                touched[j] = true;
            } else {
                survives[j] = true;
                sig[j] = (sig[j].rotate_left(7) ^ (i as u64) ^ v.to_bits().rotate_left(32))
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15);
            }
        }
    }
    let stranded: Vec<usize> = (0..n).filter(|&j| touched[j] && !survives[j]).collect();
    let merged = merged_columns(basis, &removed, &touched, &survives, &sig);
    let mut corrected = Vec::new();
    for r in (0..basis.rows()).filter(|&r| removed[r]) {
        if basis.row_iter(r).any(|(j, _)| survives[j]) {
            corrected.push(r);
        }
    }
    Capacitance::from_removal(basis, factor, stranded, merged, &corrected)
}

/// The merged pairs of [`reference`], ascending. Two columns that kept
/// every row are still distinct, so each merged group holds a column that
/// lost rows: candidates share its `sig`, confirmed entry by entry.
fn merged_columns(
    basis: &CsrMatrix,
    removed: &[bool],
    touched: &[bool],
    survives: &[bool],
    sig: &[u64],
) -> Vec<(usize, usize)> {
    let n = sig.len();
    let mut cut: Vec<u64> = (0..n)
        .filter(|&j| touched[j] && survives[j])
        .map(|j| sig[j])
        .collect();
    cut.sort_unstable();
    let mut candidates: Vec<usize> = (0..n)
        .filter(|&j| survives[j] && cut.binary_search(&sig[j]).is_ok())
        .collect();
    candidates.sort_unstable_by_key(|&j| (sig[j], j));
    if !candidates.windows(2).any(|w| sig[w[0]] == sig[w[1]]) {
        return Vec::new();
    }
    // The kept entries of every candidate column, in row order.
    let mut slot = vec![usize::MAX; n];
    for (s, &j) in candidates.iter().enumerate() {
        slot[j] = s;
    }
    let mut entries: Vec<Vec<(usize, u64)>> = vec![Vec::new(); candidates.len()];
    for i in (0..basis.rows()).filter(|&i| !removed[i]) {
        for (j, v) in basis.row_iter(i).filter(|&(j, _)| slot[j] != usize::MAX) {
            entries[slot[j]].push((i, v.to_bits()));
        }
    }
    let mut pairs = Vec::new();
    for bucket in candidates.chunk_by(|&a, &b| sig[a] == sig[b]) {
        // The first column of each distinct pattern, ascending.
        let mut reps: Vec<usize> = Vec::new();
        for &j in bucket {
            match reps.iter().find(|&&a| entries[slot[a]] == entries[slot[j]]) {
                Some(&a) => pairs.push((a, j)),
                None => reps.push(j),
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

/// What a run of cases exercised: removals checked, and how many of them
/// stranded a column, merged a pair, or lost rank.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Removals compared.
    pub removals: usize,
    /// Removals that stranded at least one column.
    pub stranding: usize,
    /// Removals that merged at least one pair.
    pub merging: usize,
    /// Removals that merged a column with an untouched one.
    pub partnered: usize,
    /// Removals that lost rank.
    pub rank_lost: usize,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.removals += o.removals;
        self.stranding += o.stranding;
        self.merging += o.merging;
        self.partnered += o.partnered;
        self.rank_lost += o.rank_lost;
    }
}

/// A random 0/1 `rows × cols` block with private rows below it, as a CSR
/// basis, and each column's private row. Most columns get one; a column
/// without one can be the untouched partner of a column that loses its
/// private row. If the basis then lacks full column rank, every column
/// gets one.
fn basis(rows: usize, cols: usize, rng: &mut StdRng) -> (CsrMatrix, Vec<Option<usize>>) {
    let blocks = rng.gen_range(1..rows.min(4) + 1);
    let block_of: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..blocks)).collect();
    let mut dense = vec![vec![false; rows]; cols];
    for j in 0..cols {
        match rng.gen_range(0..6) {
            0 if j > 0 => dense[j] = dense[rng.gen_range(0..j)].clone(),
            1 => {} // only its private row
            2 => {
                for cell in &mut dense[j] {
                    *cell = rng.gen_bool(0.4);
                }
            }
            _ => {
                let picked: Vec<bool> = (0..blocks).map(|_| rng.gen_bool(0.5)).collect();
                for (cell, &b) in dense[j].iter_mut().zip(&block_of) {
                    *cell = picked[b];
                }
            }
        }
    }
    let owns: Vec<bool> = (0..cols).map(|_| rng.gen_bool(0.75)).collect();
    let stack = |owns: &[bool]| {
        let mut private = Vec::with_capacity(cols);
        let mut triplets = Vec::new();
        let mut next = rows;
        for (j, col) in dense.iter().enumerate() {
            for (i, _) in col.iter().enumerate().filter(|(_, &on)| on) {
                triplets.push(Triplet {
                    row: i,
                    col: j,
                    value: 1.0,
                });
            }
            private.push(owns[j].then(|| {
                triplets.push(Triplet {
                    row: next,
                    col: j,
                    value: 1.0,
                });
                next += 1;
                next - 1
            }));
        }
        let b = CsrMatrix::from_triplets(next, cols, &triplets).expect("entries are in range");
        (b, private)
    };
    let (b, private) = stack(&owns);
    if SparseFactor::factor_fresh(&b.gram_csr()).is_ok() {
        return (b, private);
    }
    stack(&vec![true; cols])
}

/// The removals a case checks on a basis with `rows` shared rows and the
/// columns' `private` rows.
fn removals(
    b: &CsrMatrix,
    rows: usize,
    private: &[Option<usize>],
    rng: &mut StdRng,
) -> Vec<Vec<usize>> {
    let (m, n) = (b.rows(), b.cols());
    let columns = b.transpose();
    let mut out = vec![Vec::new(), (0..m).collect::<Vec<_>>()];
    // Random rows.
    out.push((0..m).filter(|_| rng.gen_bool(0.3)).collect());
    // The private rows of two columns equal on the shared rows: a merge,
    // with an untouched partner when one of them has no private row.
    let shared = |j: usize| -> Vec<usize> {
        columns
            .row_iter(j)
            .map(|(i, _)| i)
            .filter(|&i| i < rows)
            .collect()
    };
    for (a, c) in (0..n)
        .flat_map(|a| (a + 1..n).map(move |c| (a, c)))
        .filter(|&(a, c)| shared(a) == shared(c) && !shared(a).is_empty())
        .take(2)
    {
        let mut r: Vec<usize> = [private[a], private[c]].into_iter().flatten().collect();
        if rng.gen_bool(0.5) {
            r.push(rng.gen_range(0..rows));
        }
        out.push(r);
    }
    // A column's whole support (stranded), plus a random row.
    let j = rng.gen_range(0..n);
    let mut r: Vec<usize> = columns.row_iter(j).map(|(i, _)| i).collect();
    r.push(rng.gen_range(0..m));
    out.push(r);
    // Every private row: only the degenerate block is left.
    out.push((rows..m).collect());
    // Random private rows, some shared rows, in shuffled order with a
    // repeat.
    let mut r: Vec<usize> = private
        .iter()
        .flatten()
        .copied()
        .filter(|_| rng.gen_bool(0.5))
        .collect();
    r.extend((0..rows).filter(|_| rng.gen_bool(0.2)));
    if let Some(&first) = r.first() {
        r.push(first);
    }
    r.reverse();
    out.push(r);
    out
}

fn assert_bit_equal(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{k}]: {g} vs {w}");
    }
}

/// Checks every removal of one random basis (`rows` shared rows over
/// `cols` columns, drawn from `seed`) against [`reference`].
///
/// # Panics
///
/// On the first disagreement.
pub fn check_case(rows: usize, cols: usize, seed: u64) -> Tally {
    let mut rng = StdRng::seed_from_u64(seed);
    let (b, private) = basis(rows, cols, &mut rng);
    let memo = BasisCholesky::new(b.clone());
    let factor = SparseFactor::factor_fresh(&b.gram_csr()).expect("private rows give full rank");
    let columns = b.transpose();
    let mut tally = Tally::default();
    for removal in removals(&b, rows, &private, &mut rng) {
        let want = reference(&b, &factor, &removal);
        let fresh = Capacitance::new(&b, &factor, &removal).unwrap();
        let memoized = memo.capacitance(&factor, &removal).unwrap();
        for got in [&fresh, &memoized] {
            let at = format!("seed {seed}, rows {removal:?}");
            assert_eq!(got.stranded(), want.stranded(), "{at}: stranded");
            assert_eq!(got.merged(), want.merged(), "{at}: merged");
            assert_eq!(got.corrections(), want.corrections(), "{at}: corrections");
            assert_eq!(got.rank_lost(), want.rank_lost(), "{at}: rank lost");
            let rhs: Vec<f64> = (0..cols).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let sparse: Vec<(usize, f64)> = (0..4)
                .map(|_| (rng.gen_range(0..cols), rng.gen_range(0.5..3.0)))
                .collect();
            match (got.solve(&factor, &rhs), want.solve(&factor, &rhs)) {
                (Ok(x), Ok(y)) => assert_bit_equal(&x, &y, &format!("{at}: solve")),
                (Err(_), Err(_)) => {}
                (x, y) => panic!("{at}: solve {x:?} vs {y:?}"),
            }
            match (
                got.fit_sq_norm(&factor, &sparse),
                want.fit_sq_norm(&factor, &sparse),
            ) {
                (Ok(x), Ok(y)) => assert_bit_equal(&[x], &[y], &format!("{at}: fit")),
                (Err(_), Err(_)) => {}
                (x, y) => panic!("{at}: fit {x:?} vs {y:?}"),
            }
        }
        let untouched = |j: usize| columns.row_iter(j).all(|(i, _)| !removal.contains(&i));
        tally += Tally {
            removals: 1,
            stranding: usize::from(!want.stranded().is_empty()),
            merging: usize::from(!want.merged().is_empty()),
            partnered: usize::from(
                want.merged()
                    .iter()
                    .any(|&(a, c)| untouched(a) || untouched(c)),
            ),
            rank_lost: usize::from(want.rank_lost()),
        };
    }
    tally
}
