use crate::{
    BackendKind, EquationSystem, Fcm, FocesError, MaskedFcm, SolveOutcome, DEFAULT_THRESHOLD,
};
use foces_dataplane::RuleRef;
use std::fmt;

/// The denominator of the anomaly index (ablation knob).
///
/// The paper uses the **median** of the error vector: under the
/// "majority good" assumption most residuals are pure noise, and the
/// median is immune to the few anomaly-inflated entries. The mean is the
/// obvious alternative — cheaper conceptually but *not* robust: a single
/// huge residual inflates the denominator and suppresses the index. The
/// `granularity/statistic` benches quantify the difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum IndexStatistic {
    /// `Err_max / Err_med` — the paper's Algorithm 1.
    #[default]
    MaxOverMedian,
    /// `Err_max / Err_mean` — ablation variant.
    MaxOverMean,
}

/// The Threshold-based Detector of the FOCES architecture — Algorithm 1 of
/// the paper.
///
/// Computes the error vector `Δ` through an [`EquationSystem`] solve, forms
/// the anomaly index `AI = Err_max / Err_med`, and flags an anomaly when
/// `AI` exceeds the threshold.
///
/// # Example
///
/// ```
/// use foces::{Detector, Fcm};
/// use foces_controlplane::{provision, uniform_flows, RuleGranularity};
/// use foces_dataplane::{inject_random_anomaly, AnomalyKind, LossModel};
/// use foces_net::generators::fattree;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topo = fattree(4);
/// let flows = uniform_flows(&topo, 240_000.0);
/// let mut dep = provision(topo, &flows, RuleGranularity::PerDestination)?;
/// let fcm = Fcm::from_view(&dep.view);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
///
/// // Compromise one switch, replay traffic, detect.
/// inject_random_anomaly(&mut dep.dataplane, AnomalyKind::PathDeviation, &mut rng, &[]);
/// dep.replay_traffic(&mut LossModel::none());
/// let verdict = Detector::default().detect(&fcm, &dep.dataplane.collect_counters())?;
/// assert!(verdict.anomalous);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detector {
    threshold: f64,
    system: EquationSystem,
    statistic: IndexStatistic,
}

impl Default for Detector {
    /// The paper's configuration: threshold 4.5, automatic solver choice,
    /// max/median index.
    fn default() -> Self {
        Detector {
            threshold: DEFAULT_THRESHOLD,
            system: EquationSystem::default(),
            statistic: IndexStatistic::MaxOverMedian,
        }
    }
}

/// One detection round's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// `true` iff the anomaly index exceeded the threshold.
    pub anomalous: bool,
    /// `AI = Err_max / Err_med` (`f64::INFINITY` when the median is zero
    /// but the maximum is not — the noiseless-anomaly case of Fig. 2).
    pub anomaly_index: f64,
    /// Maximum of the error vector.
    pub err_max: f64,
    /// The denominator statistic of the error vector (median by default,
    /// mean under [`IndexStatistic::MaxOverMean`]).
    pub err_med: f64,
    /// The rule with the largest residual — a hint for localization.
    pub worst_rule: Option<RuleRef>,
    /// Full numeric outcome (estimates, fitted counters, residual).
    pub solve: SolveOutcome,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (AI = {:.2}, err_max = {:.2}, err_med = {:.2})",
            if self.anomalous { "ANOMALY" } else { "normal" },
            self.anomaly_index,
            self.err_max,
            self.err_med
        )
    }
}

impl Detector {
    /// Creates a detector with an explicit threshold and solver.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not positive.
    pub fn new(threshold: f64, system: EquationSystem) -> Self {
        assert!(threshold > 0.0, "threshold must be positive");
        Detector {
            threshold,
            system,
            statistic: IndexStatistic::MaxOverMedian,
        }
    }

    /// Switches the anomaly-index denominator (ablation; see
    /// [`IndexStatistic`]).
    pub fn with_statistic(mut self, statistic: IndexStatistic) -> Self {
        self.statistic = statistic;
        self
    }

    /// Runs every solve of this detector on `backend` (see
    /// [`EquationSystem::with_backend`]).
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.system = self.system.with_backend(backend);
        self
    }

    /// The configured index statistic.
    pub fn statistic(&self) -> IndexStatistic {
        self.statistic
    }

    /// Creates a detector with the given threshold and the default solver.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not positive.
    pub fn with_threshold(threshold: f64) -> Self {
        Detector::new(threshold, EquationSystem::default())
    }

    /// The detection threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The configured solver.
    pub fn system(&self) -> EquationSystem {
        self.system
    }

    /// Runs Algorithm 1 on a counter snapshot.
    ///
    /// # Errors
    ///
    /// Propagates [`FocesError`] from the equation-system solve (length
    /// mismatch, empty FCM, solver failure).
    pub fn detect(&self, fcm: &Fcm, counters: &[f64]) -> Result<Verdict, FocesError> {
        let solve = self.system.solve(fcm, counters)?;
        Ok(self.judge(fcm, counters, solve))
    }

    /// Runs Algorithm 1 through a warm [`crate::IncrementalSolver`],
    /// which carries its engine state across rounds (on the sparse
    /// backend, solving on the FCM's memoized factor). The verdict is
    /// equivalent to [`Detector::detect`]'s, and the returned
    /// [`crate::SolvePath`] reports which path ran.
    ///
    /// # Errors
    ///
    /// As for [`Detector::detect`].
    pub fn detect_warm(
        &self,
        fcm: &Fcm,
        counters: &[f64],
        warm: &mut crate::IncrementalSolver,
    ) -> Result<(Verdict, crate::SolvePath), FocesError> {
        let (solve, path) = warm.solve(fcm, counters)?;
        Ok((self.judge(fcm, counters, solve), path))
    }

    /// Algorithm 1 on a row-masked system (see [`Fcm::mask_rows`]): some
    /// switches never reported this round, so only the observed sub-rows of
    /// `H·X = Y'` are checked. `full_counters` is the full-length vector;
    /// unobserved entries are ignored. The verdict's `worst_rule` still
    /// names a real rule (masked rows keep their [`foces_dataplane::RuleRef`]
    /// identity), but absence of an anomaly is a *weaker* claim than under
    /// [`Detector::detect`] — quantify the blind spot with the
    /// detectability oracle on `masked.fcm()`.
    ///
    /// # Errors
    ///
    /// * [`FocesError::CounterLengthMismatch`] if `full_counters.len()`
    ///   differs from the parent FCM's rule count;
    /// * [`FocesError::EmptyFcm`] if the mask dropped every flow;
    /// * [`FocesError::Solver`] from the sub-system solve.
    pub fn detect_masked(
        &self,
        masked: &MaskedFcm,
        full_counters: &[f64],
    ) -> Result<Verdict, FocesError> {
        if full_counters.len() != masked.parent_rule_count() {
            return Err(FocesError::CounterLengthMismatch {
                got: full_counters.len(),
                expected: masked.parent_rule_count(),
            });
        }
        self.detect(masked.fcm(), &masked.project(full_counters))
    }

    /// Forms the verdict from a completed solve — shared with the sliced
    /// detector (Algorithm 2), which produces its own solves per slice.
    pub(crate) fn judge(&self, fcm: &Fcm, counters: &[f64], solve: SolveOutcome) -> Verdict {
        let (err_max, worst_idx) = max_with_index(&solve.residual);
        let err_med = match self.statistic {
            IndexStatistic::MaxOverMedian => median(&solve.residual),
            IndexStatistic::MaxOverMean => mean(&solve.residual),
        };
        // Numerical floor: residuals far below counter magnitudes are solver
        // round-off, not signal. Without this, a noiseless healthy network
        // (median 1e-13, max 1e-11) would produce a huge spurious AI.
        let scale = counters.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        let eps = 1e-7 * scale;
        let anomaly_index = if err_max <= eps {
            0.0
        } else if err_med <= eps {
            f64::INFINITY
        } else {
            err_max / err_med
        };
        Verdict {
            anomalous: anomaly_index > self.threshold,
            anomaly_index,
            err_max,
            err_med,
            worst_rule: worst_idx.map(|i| fcm.rules()[i]),
            solve,
        }
    }
}

fn max_with_index(v: &[f64]) -> (f64, Option<usize>) {
    let mut best = 0.0_f64;
    let mut idx = None;
    for (i, &x) in v.iter().enumerate() {
        if x > best {
            best = x;
            idx = Some(i);
        }
    }
    (best, idx)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Median; averages the two central elements for even lengths. Returns 0
/// for an empty slice. Selection in `O(n)` under [`f64::total_cmp`], so a
/// `NaN` orders instead of panicking.
pub(crate) fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut work = v.to_vec();
    let n = work.len();
    let (below, &mut upper, _) = work.select_nth_unstable_by(n / 2, f64::total_cmp);
    if n % 2 == 1 {
        upper
    } else {
        let lower = below
            .iter()
            .copied()
            .max_by(f64::total_cmp)
            .expect("an even-length slice has a lower half");
        0.5 * (lower + upper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foces_controlplane::{provision, uniform_flows, RuleGranularity};
    use foces_dataplane::{inject_random_anomaly, AnomalyKind, LossModel};
    use foces_net::generators::{bcube, fattree};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(topo: foces_net::Topology) -> (Fcm, foces_controlplane::Deployment) {
        let flows = uniform_flows(&topo, topo.host_count() as f64 * 15_000.0);
        let dep = provision(topo, &flows, RuleGranularity::PerDestination).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        (fcm, dep)
    }

    #[test]
    fn healthy_lossless_network_is_normal() {
        let (fcm, mut dep) = setup(bcube(1, 4));
        dep.replay_traffic(&mut LossModel::none());
        let v = Detector::default()
            .detect(&fcm, &dep.dataplane.collect_counters())
            .unwrap();
        assert!(!v.anomalous, "verdict {v}");
        assert_eq!(v.anomaly_index, 0.0);
    }

    #[test]
    fn noiseless_anomaly_gives_infinite_index() {
        let (fcm, mut dep) = setup(bcube(1, 4));
        let mut rng = StdRng::seed_from_u64(3);
        inject_random_anomaly(
            &mut dep.dataplane,
            AnomalyKind::PathDeviation,
            &mut rng,
            &[],
        )
        .unwrap();
        dep.replay_traffic(&mut LossModel::none());
        let v = Detector::default()
            .detect(&fcm, &dep.dataplane.collect_counters())
            .unwrap();
        assert!(v.anomalous, "verdict {v}");
        assert!(v.anomaly_index.is_infinite());
        assert!(v.worst_rule.is_some());
    }

    /// Per-flow rules (the paper's Floodlight-reactive setup): every rule
    /// carries one flow, so loss-induced residuals are homogeneous and the
    /// healthy anomaly index stays below the folded-normal-derived 4.5.
    /// (Per-destination aggregation concentrates residuals on big shared
    /// rules and pushes the healthy index to ~8; see EXPERIMENTS.md.)
    fn setup_per_pair(topo: foces_net::Topology) -> (Fcm, foces_controlplane::Deployment) {
        let flows = uniform_flows(&topo, topo.host_count() as f64 * 15_000.0);
        let dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        (fcm, dep)
    }

    #[test]
    fn lossy_healthy_network_stays_below_threshold() {
        let (fcm, mut dep) = setup_per_pair(bcube(1, 4));
        let mut loss = LossModel::sampled(0.05, 17);
        dep.replay_traffic(&mut loss);
        let v = Detector::default()
            .detect(&fcm, &dep.dataplane.collect_counters())
            .unwrap();
        assert!(
            !v.anomalous,
            "5% loss should not trip the default threshold: {v}"
        );
        assert!(v.anomaly_index.is_finite());
        assert!(v.anomaly_index > 0.0);
    }

    #[test]
    fn lossy_anomalous_network_is_detected() {
        let (fcm, mut dep) = setup(bcube(1, 4));
        let mut rng = StdRng::seed_from_u64(5);
        inject_random_anomaly(
            &mut dep.dataplane,
            AnomalyKind::PathDeviation,
            &mut rng,
            &[],
        )
        .unwrap();
        let mut loss = LossModel::sampled(0.05, 18);
        dep.replay_traffic(&mut loss);
        let v = Detector::default()
            .detect(&fcm, &dep.dataplane.collect_counters())
            .unwrap();
        assert!(v.anomalous, "verdict {v}");
    }

    #[test]
    fn early_drop_is_detected() {
        let (fcm, mut dep) = setup(fattree(4));
        let mut rng = StdRng::seed_from_u64(8);
        inject_random_anomaly(&mut dep.dataplane, AnomalyKind::EarlyDrop, &mut rng, &[]).unwrap();
        dep.replay_traffic(&mut LossModel::none());
        let v = Detector::default()
            .detect(&fcm, &dep.dataplane.collect_counters())
            .unwrap();
        assert!(v.anomalous);
    }

    #[test]
    fn repaired_anomaly_returns_to_normal() {
        let (fcm, mut dep) = setup(bcube(1, 4));
        let mut rng = StdRng::seed_from_u64(4);
        let applied = inject_random_anomaly(
            &mut dep.dataplane,
            AnomalyKind::PathDeviation,
            &mut rng,
            &[],
        )
        .unwrap();
        dep.replay_traffic(&mut LossModel::none());
        let det = Detector::default();
        assert!(
            det.detect(&fcm, &dep.dataplane.collect_counters())
                .unwrap()
                .anomalous
        );
        // Repair, reset, replay: normal again (the paper's Fig. 7 cycle).
        applied.revert(&mut dep.dataplane).unwrap();
        dep.dataplane.reset_counters();
        dep.replay_traffic(&mut LossModel::none());
        assert!(
            !det.detect(&fcm, &dep.dataplane.collect_counters())
                .unwrap()
                .anomalous
        );
    }

    #[test]
    fn masked_healthy_round_is_normal() {
        let (fcm, mut dep) = setup_per_pair(bcube(1, 4));
        let mut loss = LossModel::sampled(0.05, 23);
        dep.replay_traffic(&mut loss);
        let counters = dep.dataplane.collect_counters();
        let victim = fcm.rules()[0].switch;
        let observed: Vec<bool> = fcm.rules().iter().map(|r| r.switch != victim).collect();
        let masked = fcm.mask_rows(&observed);
        let v = Detector::default()
            .detect_masked(&masked, &counters)
            .unwrap();
        assert!(!v.anomalous, "masked healthy round flagged: {v}");
    }

    #[test]
    fn masked_round_still_detects_visible_anomaly() {
        let (fcm, mut dep) = setup(bcube(1, 4));
        let mut rng = StdRng::seed_from_u64(11);
        let applied = inject_random_anomaly(
            &mut dep.dataplane,
            AnomalyKind::PathDeviation,
            &mut rng,
            &[],
        )
        .unwrap();
        dep.replay_traffic(&mut LossModel::none());
        let counters = dep.dataplane.collect_counters();
        // Mask a switch that is NOT the compromised one: the inconsistency
        // the deviation leaves on the remaining rows must still show.
        let victim = fcm
            .rules()
            .iter()
            .map(|r| r.switch)
            .find(|&s| s != applied.rule.switch)
            .unwrap();
        let observed: Vec<bool> = fcm.rules().iter().map(|r| r.switch != victim).collect();
        let masked = fcm.mask_rows(&observed);
        let v = Detector::default()
            .detect_masked(&masked, &counters)
            .unwrap();
        assert!(v.anomalous, "masked round missed the anomaly: {v}");
    }

    #[test]
    fn masked_detect_validates_full_length() {
        let (fcm, _) = setup(bcube(1, 4));
        let masked = fcm.mask_rows(&vec![true; fcm.rule_count()]);
        let err = Detector::default()
            .detect_masked(&masked, &[1.0, 2.0])
            .unwrap_err();
        assert!(matches!(err, FocesError::CounterLengthMismatch { .. }));
    }

    #[test]
    fn threshold_is_configurable() {
        let det = Detector::with_threshold(0.5);
        assert_eq!(det.threshold(), 0.5);
        let (fcm, mut dep) = setup(bcube(1, 4));
        let mut loss = LossModel::sampled(0.10, 3);
        dep.replay_traffic(&mut loss);
        // With an absurdly low threshold, loss noise alone trips detection.
        let v = det.detect(&fcm, &dep.dataplane.collect_counters()).unwrap();
        assert!(v.anomalous);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        Detector::with_threshold(0.0);
    }

    #[test]
    fn mean_statistic_is_less_robust_than_median() {
        // With the anomaly inflating the denominator, max/mean yields a
        // smaller index than max/median — the reason the paper uses the
        // median. Verify the ordering on a real anomalous round.
        let (fcm, mut dep) = setup(bcube(1, 4));
        let mut rng = StdRng::seed_from_u64(21);
        inject_random_anomaly(
            &mut dep.dataplane,
            AnomalyKind::PathDeviation,
            &mut rng,
            &[],
        )
        .unwrap();
        let mut loss = LossModel::sampled(0.05, 5);
        dep.replay_traffic(&mut loss);
        let counters = dep.dataplane.collect_counters();
        let med = Detector::default().detect(&fcm, &counters).unwrap();
        let mean = Detector::default()
            .with_statistic(IndexStatistic::MaxOverMean)
            .detect(&fcm, &counters)
            .unwrap();
        assert!(med.anomaly_index > mean.anomaly_index, "{med} vs {mean}");
        assert_eq!(
            Detector::default().statistic(),
            IndexStatistic::MaxOverMedian
        );
    }

    #[test]
    fn median_conventions() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn verdict_display() {
        let (fcm, mut dep) = setup(bcube(1, 4));
        dep.replay_traffic(&mut LossModel::none());
        let v = Detector::default()
            .detect(&fcm, &dep.dataplane.collect_counters())
            .unwrap();
        assert!(v.to_string().contains("normal"));
    }

    #[test]
    fn paper_worked_example_fig2() {
        // Eq. (6)-(7): 6 rules, 3 flows, deviated counters. AI must be
        // infinite (err_med = 0, err_max = 3).
        use foces_linalg::DenseMatrix;
        // Build a synthetic FCM via from_parts with hand-made flows.
        // Flows' rule memberships mirror H's columns.
        let h = DenseMatrix::from_rows(&[
            &[1., 0., 0.],
            &[1., 0., 0.],
            &[1., 1., 0.],
            &[0., 0., 0.],
            &[0., 0., 1.],
            &[1., 1., 1.],
        ])
        .unwrap();
        let fcm = crate::testkit::fcm_from_dense(&h);
        let y = [3., 3., 4., 3., 8., 12.];
        let v = Detector::default().detect(&fcm, &y).unwrap();
        assert!(v.anomalous);
        assert!(v.anomaly_index.is_infinite());
        assert!((v.err_max - 3.0).abs() < 1e-9);
        assert_eq!(v.err_med, median(&v.solve.residual));
        // The worst rule is row 3 (the unused rule at S3).
        assert_eq!(v.worst_rule.unwrap(), fcm.rules()[3]);
    }

    #[test]
    fn paper_counterexample_fig3_is_missed() {
        // Eq. (8): the consistent deviated system — FOCES must NOT flag it.
        use foces_linalg::DenseMatrix;
        let h = DenseMatrix::from_rows(&[
            &[1., 0., 0.],
            &[1., 0., 0.],
            &[1., 1., 0.],
            &[0., 0., 1.],
            &[0., 0., 1.],
            &[1., 1., 1.],
        ])
        .unwrap();
        let fcm = crate::testkit::fcm_from_dense(&h);
        let y = [3., 3., 4., 8., 8., 12.];
        let v = Detector::default().detect(&fcm, &y).unwrap();
        assert!(!v.anomalous, "Fig. 3 counterexample must be undetectable");
        // And X̂ = (3, 1, 8) as the paper computes.
        assert!((v.solve.volume_estimate[0] - 3.0).abs() < 1e-9);
        assert!((v.solve.volume_estimate[1] - 1.0).abs() < 1e-9);
        assert!((v.solve.volume_estimate[2] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn non_finite_counters_are_refused_not_panicked_on() {
        let (fcm, mut dep) = setup(fattree(4));
        dep.replay_traffic(&mut LossModel::none());
        let counters = dep.dataplane.collect_counters();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut y = counters.clone();
            y[5] = bad;
            let err = Detector::default().detect(&fcm, &y).unwrap_err();
            assert!(
                matches!(err, FocesError::NonFiniteCounter { row: 5, .. }),
                "{bad}: {err:?}"
            );
            let mut warm = crate::IncrementalSolver::default();
            let err = Detector::default()
                .detect_warm(&fcm, &y, &mut warm)
                .unwrap_err();
            assert!(matches!(err, FocesError::NonFiniteCounter { row: 5, .. }));
        }
    }

    #[test]
    fn median_selection_matches_the_sorted_median() {
        let sorted_median = |v: &[f64]| {
            let mut s = v.to_vec();
            s.sort_by(f64::total_cmp);
            let n = s.len();
            if n % 2 == 1 {
                s[n / 2]
            } else {
                0.5 * (s[n / 2 - 1] + s[n / 2])
            }
        };
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for len in 1..40 {
            let v: Vec<f64> = (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % 17) as f64 * 0.5
                })
                .collect();
            assert_eq!(median(&v), sorted_median(&v), "{v:?}");
        }
        assert_eq!(median(&[]), 0.0);
        // NaN orders under total_cmp instead of panicking.
        assert_eq!(median(&[1.0, f64::NAN, 2.0]), 2.0);
    }
}
