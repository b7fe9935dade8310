//! Degraded detection: keep detecting with whatever counters arrived.
//!
//! When switches miss an epoch (offline, drowned in drops), the naive
//! options are both wrong: abort the round (an attacker who can silence
//! one switch silences FOCES) or fabricate zeros (guaranteed false
//! alarm). The sound option follows from the algebra: deleting the
//! missing rows of `H·X ≈ Y'` leaves a *projection* of the same linear
//! system, so a consistent full system stays consistent and the masked
//! detector keeps its no-false-positive structure — it just sees fewer
//! equations ([`foces::Detector::detect_without`]).
//!
//! Fewer equations means weaker detection, and the Theorem 1 oracle
//! quantifies exactly how much weaker: a deviation is detectable under the
//! mask iff its *projected* deviated column leaves the span of the
//! *projected* FCM columns. [`DegradedPipeline`] re-runs the span oracle
//! with the missing rows removed (memoized per missing-switch set) and
//! stamps every verdict with a [`DetectionMode`] so operators know which
//! rounds ran with reduced — or zero ([`DetectionMode::Blind`]) — coverage.

use foces::{
    audit_deviations, coverage_without, BackendKind, Detector, DeviationCandidate, Fcm, FocesError,
    IncrementalSolver, RankBudget, SolvePath, Verdict,
};
use foces_controlplane::ControllerView;
use foces_dataplane::RuleRef;
use foces_net::SwitchId;
use std::collections::HashMap;

/// How much of the detector's evidence a round actually had.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectionMode {
    /// Every switch reported: the full FCM was used.
    Full,
    /// Some switches were missing; detection ran on the row-masked system.
    Degraded {
        /// The switches whose rows were masked, ascending.
        missing: Vec<SwitchId>,
        /// Number of FCM rows removed by the mask.
        masked_rows: usize,
        /// Flows that lost *all* their rows and dropped out of the system.
        dropped_flows: usize,
        /// Theorem 1 coverage of the masked system over the audited
        /// deviation candidates (≤ the full system's coverage).
        coverage: f64,
    },
    /// A mid-epoch rule update was detected (journal advanced or a reply
    /// stamp outran the FCM's build generation): detection ran on the
    /// row-masked **and** column-quarantined system, with the updated
    /// rules' rows, the flows through them, and the closure rows those
    /// flows still traverse all excluded.
    Reconciled {
        /// Responsive switches whose reply stamp was newer than the FCM.
        stale: Vec<SwitchId>,
        /// Switches that never answered (missing rows, as in `Degraded`).
        missing: Vec<SwitchId>,
        /// FCM rows removed (unobserved + journaled + closure).
        masked_rows: usize,
        /// Flows evicted because a journaled rule sits on their path.
        quarantined_flows: usize,
        /// Flows that lost all remaining rows and dropped out.
        dropped_flows: usize,
        /// Theorem 1 coverage of the reconciled system (quarantined flows
        /// count as undetectable).
        coverage: f64,
    },
    /// Nothing usable arrived (or masking emptied the system): no verdict
    /// this round.
    Blind {
        /// The switches whose rows were masked, ascending.
        missing: Vec<SwitchId>,
    },
}

impl DetectionMode {
    /// Short label for logs: `"Full"`, `"Degraded"`, `"Reconciled"` or
    /// `"Blind"`.
    pub fn label(&self) -> &'static str {
        match self {
            DetectionMode::Full => "Full",
            DetectionMode::Degraded { .. } => "Degraded",
            DetectionMode::Reconciled { .. } => "Reconciled",
            DetectionMode::Blind { .. } => "Blind",
        }
    }

    /// Is this a degraded (but not blind) round?
    pub fn is_degraded(&self) -> bool {
        matches!(self, DetectionMode::Degraded { .. })
    }

    /// Is this a churn-reconciled round?
    pub fn is_reconciled(&self) -> bool {
        matches!(self, DetectionMode::Reconciled { .. })
    }

    /// Is this a blind round?
    pub fn is_blind(&self) -> bool {
        matches!(self, DetectionMode::Blind { .. })
    }
}

/// The degraded-detection layer: owns the full FCM, a fixed sample of
/// audited deviation candidates, and the masked coverage of every mask it
/// has seen.
pub struct DegradedPipeline {
    fcm: Fcm,
    detector: Detector,
    /// Audited candidates (detectable and undetectable alike), sampled
    /// once at construction; the same set is re-classified under every
    /// mask so coverages are comparable.
    candidates: Vec<DeviationCandidate>,
    full_coverage: f64,
    /// Masked coverage per (missing switches, journaled rules) key, the
    /// rules empty for a degraded round: the span re-check runs once per
    /// distinct mask until [`DegradedPipeline::retarget`].
    coverage: HashMap<(Vec<SwitchId>, Vec<RuleRef>), f64>,
    /// The incremental solver backing full rounds. On the sparse backend
    /// it solves on the full FCM's memoized factor; on the dense backend
    /// it factors a dense Gram every round.
    warm: IncrementalSolver,
    /// Which solve path the most recent round took (`None` on masked,
    /// reconciled, and blind rounds — those remove rows from the system
    /// and never touch the incremental solver).
    last_path: Option<SolvePath>,
}

impl DegradedPipeline {
    /// Builds the pipeline, running the full-system audit once.
    /// `oracle_cap` bounds the candidate enumeration (the same sample is
    /// reused for every masked re-audit; a few hundred is plenty for a
    /// coverage estimate). Every solve — full, masked and reconciled —
    /// runs on the detector's backend.
    pub fn new(view: &ControllerView, fcm: Fcm, detector: Detector, oracle_cap: usize) -> Self {
        let backend = detector.backend();
        DegradedPipeline::with_backend(view, fcm, detector, oracle_cap, backend)
    }

    /// Like [`DegradedPipeline::new`], but every solve runs on `backend`
    /// (the memoized sparse factor, or the per-call dense reference),
    /// whatever backend `detector` was built with.
    pub fn with_backend(
        view: &ControllerView,
        fcm: Fcm,
        detector: Detector,
        oracle_cap: usize,
        backend: BackendKind,
    ) -> Self {
        let mut pipeline = DegradedPipeline {
            fcm,
            detector: detector.with_backend(backend),
            candidates: Vec::new(),
            full_coverage: 0.0,
            coverage: HashMap::new(),
            warm: IncrementalSolver::with_backend(RankBudget::default(), backend),
            last_path: None,
        };
        pipeline.reaudit(view, oracle_cap);
        pipeline
    }

    /// Re-points the pipeline at a rebuilt FCM (after the controller view
    /// moved past the old one): re-runs the full-system audit and drops
    /// the masked coverages. The next full round factors the rebuilt FCM's
    /// basis once and reports [`SolvePath::Cold`].
    pub fn retarget(&mut self, view: &ControllerView, fcm: Fcm, oracle_cap: usize) {
        self.fcm = fcm;
        self.coverage.clear();
        self.last_path = None;
        self.reaudit(view, oracle_cap);
    }

    /// Runs the full-system Theorem 1 audit for the current FCM.
    fn reaudit(&mut self, view: &ControllerView, oracle_cap: usize) {
        let audit = audit_deviations(view, &self.fcm, oracle_cap);
        self.full_coverage = audit.coverage();
        self.candidates = audit.detectable;
        self.candidates.extend(audit.undetectable);
    }

    /// The full (unmasked) FCM.
    pub fn fcm(&self) -> &Fcm {
        &self.fcm
    }

    /// The detector in use.
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// Theorem 1 coverage of the *full* system over the audited sample.
    pub fn full_coverage(&self) -> f64 {
        self.full_coverage
    }

    /// Number of audited deviation candidates.
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// Switches (ascending) that have at least one unobserved FCM row.
    pub fn missing_from(&self, observed: &[bool]) -> Vec<SwitchId> {
        let mut missing: Vec<SwitchId> = self
            .fcm
            .rules()
            .iter()
            .zip(observed)
            .filter(|(_, &seen)| !seen)
            .map(|(r, _)| r.switch)
            .collect();
        missing.sort_unstable();
        missing.dedup();
        missing
    }

    /// Runs one detection round over whatever was observed.
    ///
    /// `counters` is the full-length counter vector (entries at unobserved
    /// rows are ignored); `observed[i]` says whether row `i`'s counter
    /// actually arrived this epoch. Returns the verdict (absent on blind
    /// rounds) and the round's [`DetectionMode`].
    ///
    /// # Errors
    ///
    /// Propagates [`FocesError`] from the underlying solves.
    pub fn detect(
        &mut self,
        counters: &[f64],
        observed: &[bool],
    ) -> Result<(Option<Verdict>, DetectionMode), FocesError> {
        let missing = self.missing_from(observed);
        if missing.is_empty() {
            let (verdict, path) = self
                .detector
                .detect_warm(&self.fcm, counters, &mut self.warm)?;
            self.last_path = Some(path);
            return Ok((Some(verdict), DetectionMode::Full));
        }
        self.last_path = None;
        let (verdict, removed) = match self.detector.detect_without(&self.fcm, counters, observed) {
            Ok(v) => v,
            Err(FocesError::EmptyFcm) => return Ok((None, DetectionMode::Blind { missing })),
            Err(e) => return Err(e),
        };
        let coverage = self.coverage_for((missing.clone(), Vec::new()), observed, &[]);
        let mode = DetectionMode::Degraded {
            missing,
            masked_rows: removed.rows,
            dropped_flows: removed.flows,
            coverage,
        };
        Ok((Some(verdict), mode))
    }

    /// Runs one churn-reconciled detection round.
    ///
    /// Called instead of [`DegradedPipeline::detect`] when the epoch
    /// witnessed a rule update: `touched_rules` is the journal's touched
    /// set since the FCM's build generation, and `stale` the switches
    /// whose reply stamps outran it. The reconciled system removes, on
    /// top of the unobserved rows:
    ///
    /// 1. the journaled rules' rows (their counters mix generations),
    /// 2. every flow through a journaled rule (its equations changed), and
    /// 3. the closure rows those quarantined flows still traverse (their
    ///    counters mix explained and quarantined volume).
    ///
    /// The closure holds every row of a quarantined flow, so removing the
    /// rows evicts those flows too: the round is one row removal
    /// ([`Detector::detect_without`]). What remains is a sub-system
    /// consistent for benign traffic (see the churn-closure property test
    /// in `foces`'s `mask_props`), so a verdict on it is sound — merely
    /// weaker, which the quarantine-aware coverage quantifies: a deviation
    /// candidate on a quarantined flow counts as undetectable outright.
    ///
    /// # Errors
    ///
    /// Propagates [`FocesError`] from the underlying solves.
    ///
    /// # Panics
    ///
    /// Panics if `counters` / `observed` are not parent-FCM length.
    pub fn detect_reconciled(
        &mut self,
        counters: &[f64],
        observed: &[bool],
        touched_rules: &[RuleRef],
        stale: Vec<SwitchId>,
    ) -> Result<(Option<Verdict>, DetectionMode), FocesError> {
        self.last_path = None;
        let missing = self.missing_from(observed);
        let mut touched: Vec<RuleRef> = touched_rules.to_vec();
        touched.sort_unstable();
        touched.dedup();
        let quarantined = self.fcm.columns_touching(&touched);
        let keep = self.fcm.reconciled_rows(observed, &quarantined, &touched);
        let (verdict, removed) = match self.detector.detect_without(&self.fcm, counters, &keep) {
            Ok(v) => v,
            Err(FocesError::EmptyFcm) => return Ok((None, DetectionMode::Blind { missing })),
            Err(e) => return Err(e),
        };
        let quarantined_flows = quarantined.iter().filter(|&&q| q).count();
        let coverage = self.coverage_for((missing.clone(), touched), &keep, &quarantined);
        let mode = DetectionMode::Reconciled {
            stale,
            missing,
            masked_rows: removed.rows,
            quarantined_flows,
            dropped_flows: removed.flows.saturating_sub(quarantined_flows),
            coverage,
        };
        Ok((Some(verdict), mode))
    }

    /// Which solve path the most recent round took: `Some(Warm)` or
    /// `Some(Cold)` after a full round, `None` after a masked, reconciled,
    /// or blind one.
    pub fn last_solve_path(&self) -> Option<SolvePath> {
        self.last_path
    }

    /// Conjugate-gradient iterations spent by the most recent full-round
    /// solve (0 on dense or direct-sparse paths).
    pub fn last_cg_iterations(&self) -> u64 {
        self.warm.last_iterations()
    }

    /// The solve backend every round of this pipeline runs on.
    pub fn backend(&self) -> BackendKind {
        self.warm.backend()
    }

    /// The masked coverage memoized for `key`, computed on first sight.
    fn coverage_for(
        &mut self,
        key: (Vec<SwitchId>, Vec<RuleRef>),
        keep: &[bool],
        quarantined: &[bool],
    ) -> f64 {
        if let Some(&coverage) = self.coverage.get(&key) {
            return coverage;
        }
        let coverage = self.masked_coverage(keep, quarantined);
        self.coverage.insert(key, coverage);
        coverage
    }

    /// Re-classifies the audited candidates with the rows `keep` clears
    /// removed ([`coverage_without`]); a candidate on a `quarantined` flow
    /// counts as undetectable.
    fn masked_coverage(&self, keep: &[bool], quarantined: &[bool]) -> f64 {
        let backend = self.backend();
        coverage_without(&self.fcm, keep, &self.candidates, quarantined, backend)
    }

    /// Coverage of the masked system for an explicit observation mask —
    /// exposed for audits and tests; `detect` computes and memoizes the
    /// same number per missing-switch set.
    pub fn coverage_under_mask(&self, observed: &[bool]) -> f64 {
        self.masked_coverage(observed, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foces_controlplane::{provision, uniform_flows, RuleGranularity};
    use foces_dataplane::LossModel;
    use foces_net::generators::bcube;

    fn setup() -> (foces_controlplane::Deployment, DegradedPipeline) {
        let topo = bcube(1, 4);
        let flows = uniform_flows(&topo, 240_000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
        dep.replay_traffic(&mut LossModel::none());
        let fcm = Fcm::from_view(&dep.view);
        let pipeline = DegradedPipeline::new(&dep.view, fcm, Detector::default(), 300);
        (dep, pipeline)
    }

    fn mask_without(pipeline: &DegradedPipeline, victims: &[SwitchId]) -> Vec<bool> {
        pipeline
            .fcm()
            .rules()
            .iter()
            .map(|r| !victims.contains(&r.switch))
            .collect()
    }

    #[test]
    fn all_observed_is_a_full_round() {
        let (dep, mut pipeline) = setup();
        let counters = pipeline.fcm().counters_from(&dep.dataplane);
        let observed = vec![true; counters.len()];
        let (verdict, mode) = pipeline.detect(&counters, &observed).unwrap();
        assert_eq!(mode, DetectionMode::Full);
        assert!(!verdict.unwrap().anomalous);
        assert!(pipeline.coverage.is_empty(), "full rounds never mask");
    }

    #[test]
    fn missing_switch_degrades_with_reduced_oracle_coverage() {
        let (dep, mut pipeline) = setup();
        let counters = pipeline.fcm().counters_from(&dep.dataplane);
        let victim = pipeline.fcm().rules()[0].switch;
        let observed = mask_without(&pipeline, &[victim]);
        let (verdict, mode) = pipeline.detect(&counters, &observed).unwrap();
        assert!(
            !verdict.unwrap().anomalous,
            "healthy masked round is normal"
        );
        let DetectionMode::Degraded {
            missing,
            masked_rows,
            coverage,
            ..
        } = mode
        else {
            panic!("expected a degraded round, got {mode:?}");
        };
        assert_eq!(missing, vec![victim]);
        assert!(masked_rows > 0);
        assert!(
            coverage <= pipeline.full_coverage() + 1e-12,
            "projection cannot increase coverage: {} vs {}",
            coverage,
            pipeline.full_coverage()
        );
        assert!(pipeline.candidate_count() > 0);
    }

    #[test]
    fn masked_coverage_is_memoized_per_missing_set() {
        let (dep, mut pipeline) = setup();
        let counters = pipeline.fcm().counters_from(&dep.dataplane);
        let victim = pipeline.fcm().rules()[0].switch;
        let observed = mask_without(&pipeline, &[victim]);
        pipeline.detect(&counters, &observed).unwrap();
        pipeline.detect(&counters, &observed).unwrap();
        assert_eq!(pipeline.coverage.len(), 1);
        let other = pipeline
            .fcm()
            .rules()
            .iter()
            .map(|r| r.switch)
            .find(|&s| s != victim)
            .unwrap();
        let observed2 = mask_without(&pipeline, &[other]);
        pipeline.detect(&counters, &observed2).unwrap();
        assert_eq!(pipeline.coverage.len(), 2);
    }

    #[test]
    fn reconciliation_quarantines_churned_rules_and_stays_normal() {
        let (dep, mut pipeline) = setup();
        let mut counters = pipeline.fcm().counters_from(&dep.dataplane);
        let observed = vec![true; counters.len()];
        // Simulate a mid-epoch reroute of flow 0: the counters of its
        // rules are mixed-generation readings that fit no single volume.
        let touched: Vec<RuleRef> = pipeline.fcm().flow_rules(0).collect();
        assert!(touched.len() >= 2);
        for (k, r) in touched.iter().enumerate() {
            let row = pipeline.fcm().rule_row(*r).unwrap();
            counters[row] *= 0.2 + 0.6 * (k as f64 / (touched.len() - 1) as f64);
        }
        // The naive full-system detector false-alarms on the mix...
        let (v, _) = pipeline.detect(&counters, &observed).unwrap();
        assert!(
            v.unwrap().anomalous,
            "mixed-generation counters look like an attack"
        );
        // ...the reconciled system quarantines it away and stays normal.
        let (v, mode) = pipeline
            .detect_reconciled(&counters, &observed, &touched, vec![])
            .unwrap();
        assert!(!v.unwrap().anomalous);
        let DetectionMode::Reconciled {
            quarantined_flows,
            masked_rows,
            coverage,
            stale,
            ..
        } = mode
        else {
            panic!("expected a reconciled round");
        };
        assert!(stale.is_empty());
        assert!(quarantined_flows >= 1);
        assert!(masked_rows >= touched.len());
        assert!(coverage <= pipeline.full_coverage() + 1e-12);
        assert_eq!(pipeline.coverage.len(), 1);
        // The same (missing, touched) key reads the memo.
        pipeline
            .detect_reconciled(&counters, &observed, &touched, vec![])
            .unwrap();
        assert_eq!(pipeline.coverage.len(), 1);
    }

    #[test]
    fn reconciled_coverage_counts_quarantined_candidates_as_misses() {
        let (_, mut pipeline) = setup();
        let counters = vec![0.0; pipeline.fcm().rule_count()];
        let observed = vec![true; counters.len()];
        // Quarantine everything: every candidate's flow is evicted, so
        // coverage collapses to zero (or the round goes blind).
        let touched: Vec<_> = pipeline.fcm().rules().to_vec();
        let (_, mode) = pipeline
            .detect_reconciled(&counters, &observed, &touched, vec![])
            .unwrap();
        match mode {
            DetectionMode::Blind { .. } => {}
            DetectionMode::Reconciled { coverage, .. } => assert_eq!(coverage, 0.0),
            other => panic!("unexpected mode {other:?}"),
        }
    }

    #[test]
    fn retarget_drops_the_coverage_memo_and_the_rebuilt_fcm_solves_cold_then_warm() {
        let (mut dep, mut pipeline) = setup();
        let counters = pipeline.fcm().counters_from(&dep.dataplane);
        let observed = vec![true; counters.len()];
        pipeline.detect(&counters, &observed).unwrap();
        assert_eq!(
            pipeline.last_solve_path(),
            Some(SolvePath::Cold),
            "first full round factors from scratch"
        );
        pipeline.detect(&counters, &observed).unwrap();
        assert!(
            pipeline.last_solve_path().is_some_and(|p| p.is_warm()),
            "steady state reuses the factor: {:?}",
            pipeline.last_solve_path()
        );
        let victim = pipeline.fcm().rules()[0].switch;
        pipeline
            .detect(&counters, &mask_without(&pipeline, &[victim]))
            .unwrap();
        assert_eq!(pipeline.coverage.len(), 1);
        // Reroute a flow and retarget at the rebuilt FCM: the coverage memo
        // drops, and the rebuilt FCM's first solve factors its own basis.
        dep.reroute_flow_via(0, &[]).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        pipeline.retarget(&dep.view, fcm, 300);
        assert_eq!(pipeline.last_solve_path(), None);
        assert!(pipeline.coverage.is_empty());
        dep.dataplane.reset_counters();
        dep.replay_traffic(&mut LossModel::none());
        let counters = pipeline.fcm().counters_from(&dep.dataplane);
        let observed = vec![true; counters.len()];
        let (v, mode) = pipeline.detect(&counters, &observed).unwrap();
        assert_eq!(mode, DetectionMode::Full);
        assert!(!v.unwrap().anomalous);
        assert_eq!(
            pipeline.last_solve_path(),
            Some(SolvePath::Cold),
            "the rebuilt FCM's first solve is cold"
        );
        pipeline.detect(&counters, &observed).unwrap();
        assert_eq!(
            pipeline.last_solve_path(),
            Some(SolvePath::Warm),
            "its re-solve reads the memoized factor"
        );
    }

    #[test]
    fn masked_rounds_report_no_solve_path() {
        let (dep, mut pipeline) = setup();
        let counters = pipeline.fcm().counters_from(&dep.dataplane);
        let victim = pipeline.fcm().rules()[0].switch;
        let observed = mask_without(&pipeline, &[victim]);
        pipeline.detect(&counters, &observed).unwrap();
        assert_eq!(pipeline.last_solve_path(), None);
    }

    #[test]
    fn everything_missing_is_blind() {
        let (dep, mut pipeline) = setup();
        let counters = pipeline.fcm().counters_from(&dep.dataplane);
        let observed = vec![false; counters.len()];
        let (verdict, mode) = pipeline.detect(&counters, &observed).unwrap();
        assert!(verdict.is_none());
        assert!(mode.is_blind());
        assert_eq!(mode.label(), "Blind");
    }

    #[test]
    fn coverage_under_total_mask_is_zero() {
        let (_, pipeline) = setup();
        let observed = vec![false; pipeline.fcm().rule_count()];
        assert_eq!(pipeline.coverage_under_mask(&observed), 0.0);
    }
}
