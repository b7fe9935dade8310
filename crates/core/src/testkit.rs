//! Utilities for building synthetic FCMs in tests, examples, and benches.
//!
//! The paper's worked examples (Fig. 2 / Eq. 6, Fig. 3 / Eq. 8) are given
//! directly as 0/1 matrices; these helpers lift such a matrix into a full
//! [`Fcm`] by fabricating one single-rule switch per row and one logical
//! flow per column.

use crate::Fcm;
use foces_atpg::LogicalFlow;
use foces_dataplane::{RuleRef, HEADER_WIDTH};
use foces_headerspace::Wildcard;
use foces_linalg::DenseMatrix;
use foces_net::{HostId, SwitchId};

/// Builds an [`Fcm`] whose dense matrix equals `h` (entries must be 0/1).
///
/// Row `i` becomes rule `s_i#r0`; column `j` becomes a logical flow from
/// host `j` to host `j` + #cols whose rule history is the rows where the
/// column has a 1, in row order.
///
/// # Panics
///
/// Panics if `h` contains entries other than 0.0 and 1.0.
///
/// # Example
///
/// ```
/// use foces_linalg::DenseMatrix;
///
/// let h = DenseMatrix::from_rows(&[&[1., 0.], &[1., 1.]]).unwrap();
/// let fcm = foces::testkit::fcm_from_dense(&h);
/// assert_eq!(fcm.rule_count(), 2);
/// assert_eq!(fcm.flow_count(), 2);
/// assert!(fcm.dense().approx_eq(&h, 0.0));
/// ```
pub fn fcm_from_dense(h: &DenseMatrix) -> Fcm {
    let rules: Vec<RuleRef> = (0..h.rows())
        .map(|i| RuleRef {
            switch: SwitchId(i),
            index: 0,
        })
        .collect();
    let flows: Vec<LogicalFlow> = (0..h.cols())
        .map(|j| {
            let mut flow_rules = Vec::new();
            let mut path = Vec::new();
            for (i, &rule) in rules.iter().enumerate() {
                let v = h.get(i, j);
                assert!(
                    v == 0.0 || v == 1.0,
                    "fcm_from_dense requires 0/1 entries, found {v} at ({i},{j})"
                );
                if v == 1.0 {
                    flow_rules.push(rule);
                    path.push(SwitchId(i));
                }
            }
            LogicalFlow {
                ingress: HostId(j),
                egress: HostId(j + h.cols()),
                header: Wildcard::exact(HEADER_WIDTH, ((j as u64) << 16) | (j + h.cols()) as u64),
                rules: flow_rules,
                path,
            }
        })
        .collect();
    Fcm::from_parts(rules, flows)
}

/// The paper's Fig. 2 / Eq. (6) FCM: 6 rules, 3 flows — the running example
/// where a deviation of the first flow *is* detectable.
pub fn paper_fig2_fcm() -> Fcm {
    let h = DenseMatrix::from_rows(&[
        &[1., 0., 0.],
        &[1., 0., 0.],
        &[1., 1., 0.],
        &[0., 0., 0.],
        &[0., 0., 1.],
        &[1., 1., 1.],
    ])
    .expect("static matrix");
    fcm_from_dense(&h)
}

/// The paper's Fig. 3 / Eq. (8) FCM: the counterexample where a deviation
/// is *undetectable* (the deviated column stays in the column span).
pub fn paper_fig3_fcm() -> Fcm {
    let h = DenseMatrix::from_rows(&[
        &[1., 0., 0.],
        &[1., 0., 0.],
        &[1., 1., 0.],
        &[0., 0., 1.],
        &[0., 0., 1.],
        &[1., 1., 1.],
    ])
    .expect("static matrix");
    fcm_from_dense(&h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_matrix() {
        let fcm = paper_fig2_fcm();
        assert_eq!(fcm.rule_count(), 6);
        assert_eq!(fcm.flow_count(), 3);
        assert_eq!(fcm.dense().get(2, 1), 1.0);
        assert_eq!(fcm.dense().get(3, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "0/1 entries")]
    fn rejects_non_binary() {
        let h = DenseMatrix::from_rows(&[&[0.5]]).unwrap();
        fcm_from_dense(&h);
    }

    #[test]
    fn flows_have_distinct_headers() {
        let fcm = paper_fig3_fcm();
        let mut headers: Vec<u64> = (0..fcm.flow_count())
            .map(|j| fcm.header(j).representative())
            .collect();
        headers.sort_unstable();
        headers.dedup();
        assert_eq!(headers.len(), 3);
    }
}
