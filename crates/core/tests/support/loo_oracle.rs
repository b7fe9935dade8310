//! An independent leave-one-switch-out oracle, shared by
//! `crates/core/tests/coverage_props.rs` (24 cases) and the workspace-root
//! `tests/loo_capacitance.rs` (tier-1).
//!
//! It removes a switch's rows and the basis columns they strand from the
//! dense basis explicitly, decides rank with [`foces_linalg::rank`] and
//! solves what remains with [`foces_linalg::lstsq`]. It shares no code with
//! the Woodbury capacitance that [`foces::LooSolver`] and the coverage
//! classifier run; the verdict rule (anomaly index, `err_max` floor,
//! threshold) is restated here from the solver's documentation.

use foces::{Fcm, LooStatus};
use foces_linalg::{lstsq, rank, DenseMatrix, LstsqMethod, DEFAULT_TOL};
use foces_net::SwitchId;

/// What leaving one switch out does, computed the slow, explicit way.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// The switch's rows.
    pub rows_removed: usize,
    /// Basis columns supported only by those rows.
    pub flows_dropped: usize,
    /// The verdict on the remainder.
    pub status: LooStatus,
    /// Anomaly index of the remainder (`NaN` when rank is lost).
    pub anomaly_index_without: f64,
}

/// A counter snapshot over an FCM's column basis, ready for leave-outs.
pub struct Oracle {
    basis: DenseMatrix,
    counters: Vec<f64>,
    switch_of_row: Vec<SwitchId>,
    threshold: f64,
    base_err_med: f64,
}

impl Oracle {
    /// Solves the full system once, for the base round's median residual.
    pub fn new(fcm: &Fcm, counters: &[f64], threshold: f64) -> Self {
        let basis = fcm
            .sparse()
            .select_columns(&fcm.column_groups().basis)
            .to_dense();
        let residual = abs_residual(&basis, counters);
        Oracle {
            base_err_med: median(&residual),
            basis,
            counters: counters.to_vec(),
            switch_of_row: fcm.rules().iter().map(|r| r.switch).collect(),
            threshold,
        }
    }

    /// Removes `s`'s rows explicitly and judges the remainder.
    pub fn leave_out(&self, s: SwitchId) -> Reference {
        let b = &self.basis;
        let keep_rows: Vec<usize> = (0..b.rows())
            .filter(|&i| self.switch_of_row[i] != s)
            .collect();
        let rows_removed = b.rows() - keep_rows.len();
        let nonzero_in = |rows: &[usize], j: usize| rows.iter().any(|&i| b.get(i, j) != 0.0);
        let all_rows: Vec<usize> = (0..b.rows()).collect();
        let keep_cols: Vec<usize> = (0..b.cols())
            .filter(|&j| nonzero_in(&keep_rows, j))
            .collect();
        let flows_dropped =
            (0..b.cols()).filter(|&j| nonzero_in(&all_rows, j)).count() - keep_cols.len();
        let reduced = b.select(&keep_rows, &keep_cols);
        let rank_lost = keep_cols.is_empty() || rank(&reduced, DEFAULT_TOL) < keep_cols.len();
        if rank_lost {
            return Reference {
                rows_removed,
                flows_dropped,
                status: LooStatus::RankLost,
                anomaly_index_without: f64::NAN,
            };
        }
        let y: Vec<f64> = keep_rows.iter().map(|&i| self.counters[i]).collect();
        let residual = abs_residual(&reduced, &y);
        let ai = anomaly_index(&residual, &y);
        let err_max = residual.iter().cloned().fold(0.0_f64, f64::max);
        let floor = f64::max(1e-7 * scale(&y), self.threshold * self.base_err_med);
        Reference {
            rows_removed,
            flows_dropped,
            status: if ai <= self.threshold && err_max <= floor {
                LooStatus::Consistent
            } else {
                LooStatus::StillAnomalous
            },
            anomaly_index_without: ai,
        }
    }
}

/// `|y − H·x̂|` for the least-squares `x̂`.
fn abs_residual(h: &DenseMatrix, y: &[f64]) -> Vec<f64> {
    let sol = lstsq(h, y, LstsqMethod::CholeskyThenQr).expect("full-rank system solves");
    sol.residual(h, y).into_iter().map(f64::abs).collect()
}

fn scale(counters: &[f64]) -> f64 {
    counters.iter().fold(1.0_f64, |m, v| m.max(v.abs()))
}

fn median(v: &[f64]) -> f64 {
    let mut sorted = v.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// `Err_max / Err_med`, with residuals under `1e-7·max|y|` counted as zero.
fn anomaly_index(residual: &[f64], counters: &[f64]) -> f64 {
    let err_max = residual.iter().cloned().fold(0.0_f64, f64::max);
    let err_med = median(residual);
    let eps = 1e-7 * scale(counters);
    if err_max <= eps {
        0.0
    } else if err_med <= eps {
        f64::INFINITY
    } else {
        err_max / err_med
    }
}
