//! One row-removal kernel for every masked solve.
//!
//! Degraded and reconciled rounds, k-resilience probes, quarantine
//! re-probes, masked leave-one-out and masked coverage all solve the full
//! FCM's system with some rows removed. [`Kernel`] answers each from the
//! [`Capacitance`] of those rows on the full basis' memoized factor, so
//! nothing is factored again. Only the dense reference backend, a basis the
//! engine memoizes no factor for (PCGLS-sized or rank-deficient), or a
//! removal that loses rank beyond merged columns builds the row-masked
//! sub-FCM ([`Fcm::mask_rows`]).

use crate::{
    BackendKind, BasisSystem, Detector, Fcm, FocesError, MaskedFcm, SolveOutcome, Verdict,
};
use foces_dataplane::RuleRef;
use foces_linalg::LinalgError;
use foces_sparse::{Capacitance, SparseFactor};
use std::sync::Arc;

/// What a row removal took out of the system
/// ([`Detector::detect_without`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Removed {
    /// Rows removed.
    pub rows: usize,
    /// Flows whose every row was removed: they drop out of the system.
    pub flows: usize,
}

/// The rows `kept` clears, removed from a basis system through the
/// capacitance on its Gram factor.
#[derive(Debug, Clone)]
pub(crate) struct Kernel {
    pub(crate) system: Arc<BasisSystem>,
    pub(crate) factor: Arc<SparseFactor>,
    pub(crate) cap: Capacitance,
    pub(crate) kept: Vec<bool>,
}

impl Kernel {
    pub(crate) fn new(
        system: Arc<BasisSystem>,
        factor: Arc<SparseFactor>,
        kept: Vec<bool>,
    ) -> Result<Self, LinalgError> {
        let rows: Vec<usize> = (0..kept.len()).filter(|&i| !kept[i]).collect();
        let cap = system.cholesky().capacitance(&factor, &rows)?;
        Ok(Kernel {
            system,
            factor,
            cap,
            kept,
        })
    }

    /// `fcm`'s removal on its memoized factor, or the masked sub-FCM on the
    /// dense backend, without a factor, or when the removal loses rank.
    ///
    /// # Panics
    ///
    /// Panics if `kept.len() != fcm.rule_count()`.
    pub(crate) fn of(
        fcm: &Fcm,
        kept: &[bool],
        backend: BackendKind,
    ) -> Result<Self, Box<MaskedFcm>> {
        assert_eq!(kept.len(), fcm.rule_count(), "one observed bit per row");
        let system = fcm.basis_system();
        match system
            .factor_for(backend)
            .map(|f| Kernel::new(Arc::clone(system), f, kept.to_vec()))
        {
            Some(Ok(k)) if k.blind() || !k.cap.rank_lost() => Ok(k),
            _ => Err(Box::new(fcm.mask_rows(kept))),
        }
    }

    /// Whether the removal stranded every basis column.
    pub(crate) fn blind(&self) -> bool {
        self.cap.stranded().len() == self.system.cols()
    }

    /// The basis coefficients for `rhs = Bᵀy` over the kept rows (zero
    /// when [`Kernel::blind`]).
    pub(crate) fn solve(&self, rhs: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if self.blind() {
            return Ok(vec![0.0; rhs.len()]);
        }
        self.cap.solve(&self.factor, rhs)
    }

    /// `x`'s outcome over the kept rows and surviving flows, and `y` over
    /// the kept rows.
    pub(crate) fn outcome(
        &self,
        y: &[f64],
        x: Vec<f64>,
    ) -> Result<(SolveOutcome, Vec<f64>), LinalgError> {
        let mut out = self.system.expand(y, x)?;
        let kept = |v: &[f64]| -> Vec<f64> {
            (0..v.len())
                .filter(|&i| self.kept[i])
                .map(|i| v[i])
                .collect()
        };
        out.residual = kept(&out.residual);
        out.fitted_counters = kept(&out.fitted_counters);
        let gone = |j: &usize| self.cap.stranded().binary_search(j).is_ok();
        let groups = self.system.groups().group_of.iter();
        let volumes = out.volume_estimate.iter().zip(groups);
        out.volume_estimate = volumes.filter(|(_, g)| !gone(g)).map(|(&v, _)| v).collect();
        Ok((out, kept(y)))
    }
}

/// `counters` with the entries `observed` clears set to zero.
///
/// # Panics
///
/// Panics if the lengths differ.
pub(crate) fn zero_unobserved(counters: &[f64], observed: &[bool]) -> Vec<f64> {
    assert_eq!(observed.len(), counters.len(), "one observed bit per row");
    let pairs = counters.iter().zip(observed);
    pairs.map(|(&c, &o)| if o { c } else { 0.0 }).collect()
}

impl Detector {
    /// Algorithm 1 with the rows `observed` clears removed — the one entry
    /// point of every masked verdict (unobserved switches, a reconcile's
    /// journaled and closure rows, quarantined liars). Entries of
    /// `counters` at removed rows are ignored. The verdict equals
    /// [`Detector::detect_masked`] on [`Fcm::mask_rows`], in kept-row and
    /// surviving-flow order; only how a merged group's volume splits among
    /// its flows may differ. It runs on the full FCM's memoized factor
    /// except as the module docs say.
    ///
    /// # Errors
    ///
    /// [`FocesError::EmptyFcm`] if no flow survives the removal;
    /// [`FocesError::NonFiniteCounter`] (its parent row) only at kept rows;
    /// otherwise as for [`Detector::detect`].
    ///
    /// # Panics
    ///
    /// Panics if `observed.len() != fcm.rule_count()`.
    pub fn detect_without(
        &self,
        fcm: &Fcm,
        counters: &[f64],
        observed: &[bool],
    ) -> Result<(Verdict, Removed), FocesError> {
        crate::solver::check_shape(fcm, counters)?;
        let removed = Removed {
            rows: observed.iter().filter(|&&o| !o).count(),
            flows: fcm.flows_blinded(observed),
        };
        if removed.rows == 0 {
            return Ok((self.detect(fcm, counters)?, removed));
        }
        let y = zero_unobserved(counters, observed);
        crate::solver::check_counters(fcm, &y)?;
        let kernel = match Kernel::of(fcm, observed, self.backend()) {
            Err(masked) => return Ok((self.detect_masked(&masked, &y)?, removed)),
            Ok(kernel) if kernel.blind() => return Err(FocesError::EmptyFcm),
            Ok(kernel) => kernel,
        };
        let x = kernel.solve(&kernel.system.basis().transpose_matvec(&y)?)?;
        let (solve, kept_y) = kernel.outcome(&y, x)?;
        let rules = fcm.rules().iter().zip(observed);
        let rules: Vec<RuleRef> = rules.filter(|p| *p.1).map(|p| *p.0).collect();
        Ok((self.judge(&rules, &kept_y, solve), removed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foces_controlplane::{provision, uniform_flows, RuleGranularity};
    use foces_dataplane::LossModel;
    use foces_net::generators::fattree;

    fn healthy(g: RuleGranularity) -> (Fcm, Vec<f64>) {
        let topo = fattree(4);
        let flows = uniform_flows(&topo, 240_000.0);
        let mut dep = provision(topo, &flows, g).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        dep.replay_traffic(&mut LossModel::none());
        (fcm, dep.dataplane.collect_counters())
    }

    fn close(a: f64, b: f64) -> bool {
        a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn the_kernel_matches_the_masked_subsystem() {
        for g in [
            RuleGranularity::PerDestination,
            RuleGranularity::PerFlowPair,
        ] {
            let (fcm, mut counters) = healthy(g);
            counters[5] += 250.0;
            let observed: Vec<bool> = (0..fcm.rule_count()).map(|i| i % 4 != 2).collect();
            let det = Detector::default();
            let (v, removed) = det.detect_without(&fcm, &counters, &observed).unwrap();
            let masked = fcm.mask_rows(&observed);
            let want = det.detect_masked(&masked, &counters).unwrap();
            assert_eq!(removed.rows, masked.masked_row_count());
            assert_eq!(removed.flows, masked.dropped_flows());
            assert_eq!(
                (v.anomalous, v.worst_rule),
                (want.anomalous, want.worst_rule)
            );
            assert!(close(v.anomaly_index, want.anomaly_index), "{v} vs {want}");
            assert_eq!(v.solve.residual.len(), want.solve.residual.len());
            for (a, b) in v.solve.residual.iter().zip(&want.solve.residual) {
                assert!((a - b).abs() < 1e-6, "{a} vs {b}");
            }
            assert_eq!(v.solve.volume_estimate.len(), masked.fcm().flow_count());
        }
    }

    #[test]
    fn a_hidden_switch_leaves_a_healthy_residual_at_zero() {
        let (fcm, counters) = healthy(RuleGranularity::PerDestination);
        let victim = fcm.rules()[0].switch;
        let observed: Vec<bool> = fcm.rules().iter().map(|r| r.switch != victim).collect();
        let (v, removed) = Detector::default()
            .detect_without(&fcm, &counters, &observed)
            .unwrap();
        assert!(removed.rows > 0);
        assert!(v.solve.residual.iter().all(|r| r.abs() < 1e-6));
        assert!(!v.anomalous);
    }

    #[test]
    fn a_mask_that_empties_the_system_is_an_empty_fcm() {
        let (fcm, counters) = healthy(RuleGranularity::PerFlowPair);
        let none = vec![false; fcm.rule_count()];
        let err = Detector::default()
            .detect_without(&fcm, &counters, &none)
            .unwrap_err();
        assert!(matches!(err, FocesError::EmptyFcm), "{err:?}");
    }

    #[test]
    fn a_wrong_length_is_reported_before_the_mask_is_read() {
        let (fcm, _) = healthy(RuleGranularity::PerDestination);
        let observed = vec![true; fcm.rule_count()];
        let err = Detector::default()
            .detect_without(&fcm, &[0.0; 3], &observed)
            .unwrap_err();
        assert!(matches!(
            err,
            FocesError::CounterLengthMismatch { got: 3, .. }
        ));
    }

    #[test]
    fn a_nan_counter_counts_only_at_a_kept_row() {
        let (fcm, mut counters) = healthy(RuleGranularity::PerDestination);
        let mut observed = vec![true; fcm.rule_count()];
        observed[7] = false;
        let det = Detector::default();
        let (clean, _) = det.detect_without(&fcm, &counters, &observed).unwrap();
        counters[7] = f64::NAN;
        let (v, _) = det.detect_without(&fcm, &counters, &observed).unwrap();
        assert_eq!(v, clean, "the unobserved NaN is ignored");
        observed[7] = true;
        let err = det.detect_without(&fcm, &counters, &observed).unwrap_err();
        assert!(matches!(err, FocesError::NonFiniteCounter { row: 7, .. }));
    }
}
