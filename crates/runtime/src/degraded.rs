//! Degraded detection: keep detecting with whatever counters arrived.
//!
//! When switches miss an epoch (offline, drowned in drops), the naive
//! options are both wrong: abort the round (an attacker who can silence
//! one switch silences FOCES) or fabricate zeros (guaranteed false
//! alarm). The sound option follows from the algebra: deleting the
//! missing rows of `H·X ≈ Y'` leaves a *projection* of the same linear
//! system, so a consistent full system stays consistent and the masked
//! detector keeps its no-false-positive structure — it just sees fewer
//! equations ([`foces::Fcm::mask_rows`]).
//!
//! Fewer equations means weaker detection, and the Theorem 1 oracle
//! quantifies exactly how much weaker: a deviation is detectable under the
//! mask iff its *projected* deviated column leaves the span of the
//! *projected* FCM columns. [`DegradedPipeline`] re-runs the span oracle
//! on the masked system (cached per missing-switch set) and stamps every
//! verdict with a [`DetectionMode`] so operators know which rounds ran
//! with reduced — or zero ([`DetectionMode::Blind`]) — coverage.

use foces::{
    audit_deviations, BackendKind, Detector, DeviationCandidate, Fcm, FocesError,
    IncrementalSolver, MaskedFcm, RankBudget, SolvePath, SpanOracle, Verdict,
};
use foces_controlplane::ControllerView;
use foces_dataplane::RuleRef;
use foces_net::SwitchId;
use std::collections::HashMap;
use std::hash::Hash;

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

/// Cached artifacts for one missing-switch set.
struct CachedMask {
    masked: MaskedFcm,
    coverage: f64,
}

/// Entries each of [`DegradedPipeline`]'s mask caches keeps. A masked
/// system holds its sub-FCM with its memoized basis (and, on the sparse
/// backend, its factor), so an
/// unbounded cache would grow with every distinct missing-switch set until
/// the next rebuild; past this many the least recently used entry goes.
pub const MASK_CACHE_CAP: usize = 64;

/// A map of at most [`MASK_CACHE_CAP`] masked systems with
/// least-recently-used eviction.
struct MaskCache<K> {
    entries: HashMap<K, (u64, CachedMask)>,
    clock: u64,
}

impl<K: Hash + Eq> MaskCache<K> {
    fn new() -> Self {
        MaskCache {
            entries: HashMap::new(),
            clock: 0,
        }
    }

    /// The entry for `key`, marked as just used.
    fn get(&mut self, key: &K) -> Option<&CachedMask> {
        self.clock += 1;
        let entry = self.entries.get_mut(key)?;
        entry.0 = self.clock;
        Some(&entry.1)
    }

    /// Inserts `value` as the most recently used entry, evicting the least
    /// recently used one when the cache is full.
    fn insert(&mut self, key: K, value: CachedMask) {
        if self.entries.len() >= MASK_CACHE_CAP && !self.entries.contains_key(&key) {
            // Stamps are unique, so this drops exactly the stalest entry.
            if let Some(stalest) = self.entries.values().map(|(used, _)| *used).min() {
                self.entries.retain(|_, (used, _)| *used != stalest);
            }
        }
        self.clock += 1;
        self.entries.insert(key, (self.clock, value));
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

/// The degraded-detection layer: owns the full FCM, a fixed sample of
/// audited deviation candidates, and a cache of masked systems keyed by
/// the (sorted) missing-switch set.
pub struct DegradedPipeline {
    fcm: Fcm,
    detector: Detector,
    /// Audited candidates (detectable and undetectable alike), sampled
    /// once at construction; the same set is re-classified under every
    /// mask so coverages are comparable.
    candidates: Vec<DeviationCandidate>,
    full_coverage: f64,
    cache: MaskCache<Vec<SwitchId>>,
    /// Reconciled systems, keyed by (missing switches, journaled rules) —
    /// a rolling-update schedule revisits the same touched set many times.
    reconcile_cache: MaskCache<(Vec<SwitchId>, Vec<RuleRef>)>,
    /// The incremental solver backing full rounds. On the sparse backend
    /// it solves on the full FCM's memoized factor; on the dense backend
    /// its cached `HᵀH = LLᵀ` factorization is patched epoch to epoch (and
    /// across FCM rebuilds, see [`DegradedPipeline::retarget`]) instead of
    /// refactorized.
    warm: IncrementalSolver,
    /// Which solve path the most recent round took (`None` on masked,
    /// reconciled, and blind rounds — those solve projected systems and
    /// never touch the cached factor).
    last_path: Option<SolvePath>,
}

impl DegradedPipeline {
    /// Builds the pipeline, running the full-system audit once.
    /// `oracle_cap` bounds the candidate enumeration (the same sample is
    /// reused for every masked re-audit; a few hundred is plenty for a
    /// coverage estimate). Every solve — full, masked and reconciled —
    /// runs on the detector's backend.
    pub fn new(view: &ControllerView, fcm: Fcm, detector: Detector, oracle_cap: usize) -> Self {
        let backend = detector.system().backend();
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
            cache: MaskCache::new(),
            reconcile_cache: MaskCache::new(),
            warm: IncrementalSolver::with_backend(RankBudget::default(), backend),
            last_path: None,
        };
        pipeline.reaudit(view, oracle_cap);
        pipeline
    }

    /// Re-points the pipeline at a rebuilt FCM (after the controller view
    /// moved past the old one): re-runs the full-system audit and drops
    /// the mask caches, but **keeps** the incremental solver's state. On
    /// the sparse backend the next full round factors the rebuilt FCM
    /// once. On the dense backend the cached factor is keyed by the basis
    /// columns' rule sets, which survive a rebuild, so the next full round
    /// patches it with the journal's delta instead of refactorizing.
    pub fn retarget(&mut self, view: &ControllerView, fcm: Fcm, oracle_cap: usize) {
        self.fcm = fcm;
        self.cache.clear();
        self.reconcile_cache.clear();
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

    /// Number of missing-switch sets whose masked system is cached (at
    /// most [`MASK_CACHE_CAP`]).
    pub fn cached_masks(&self) -> usize {
        self.cache.len()
    }

    /// The cached masked system for a missing-switch set (ascending, as
    /// [`DegradedPipeline::missing_from`] returns it), if a degraded round
    /// built one and it was not evicted since.
    pub fn masked(&self, missing: &[SwitchId]) -> Option<&MaskedFcm> {
        self.cache
            .entries
            .get(missing)
            .map(|(_, entry)| &entry.masked)
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
        if self.cache.get(&missing).is_none() {
            let entry = self.build_mask(observed);
            self.cache.insert(missing.clone(), entry);
        }
        let entry = self.cache.get(&missing).expect("just cached");
        if entry.masked.fcm().rule_count() == 0 || entry.masked.fcm().flow_count() == 0 {
            return Ok((None, DetectionMode::Blind { missing }));
        }
        let verdict = self.detector.detect_masked(&entry.masked, counters)?;
        let mode = DetectionMode::Degraded {
            missing,
            masked_rows: entry.masked.masked_row_count(),
            dropped_flows: entry.masked.dropped_flows(),
            coverage: entry.coverage,
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
    /// What remains is a sub-system consistent for benign traffic (see
    /// the churn-closure property test in `foces`'s `mask_props`), so a
    /// verdict on it is sound — merely weaker, which the quarantine-aware
    /// coverage quantifies: a deviation candidate on a quarantined flow
    /// counts as undetectable outright.
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
        let mut touched_key: Vec<RuleRef> = touched_rules.to_vec();
        touched_key.sort_unstable();
        touched_key.dedup();
        let key = (missing.clone(), touched_key);
        if self.reconcile_cache.get(&key).is_none() {
            let entry = self.build_reconciled(observed, &key.1);
            self.reconcile_cache.insert(key.clone(), entry);
        }
        let entry = self.reconcile_cache.get(&key).expect("just cached");
        if entry.masked.fcm().rule_count() == 0 || entry.masked.fcm().flow_count() == 0 {
            return Ok((None, DetectionMode::Blind { missing }));
        }
        let verdict = self.detector.detect_masked(&entry.masked, counters)?;
        let mode = DetectionMode::Reconciled {
            stale,
            missing,
            masked_rows: entry.masked.masked_row_count(),
            quarantined_flows: entry.masked.quarantined_flows(),
            dropped_flows: entry.masked.dropped_flows(),
            coverage: entry.coverage,
        };
        Ok((Some(verdict), mode))
    }

    /// Number of (missing, touched) reconciliations cached (at most
    /// [`MASK_CACHE_CAP`]).
    pub fn cached_reconciliations(&self) -> usize {
        self.reconcile_cache.len()
    }

    /// Which solve path the most recent round took: `Some(Warm {..})` or
    /// `Some(Cold {..})` after a full round, `None` after a masked,
    /// reconciled, or blind one.
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

    /// Whether the incremental solver currently holds a cached
    /// factorization a future full round could patch.
    pub fn solver_is_warm(&self) -> bool {
        self.warm.is_warm()
    }

    /// Builds the row-masked + column-quarantined system for a journaled
    /// touched set, and audits its quarantine-aware coverage.
    fn build_reconciled(&self, observed: &[bool], touched_rules: &[RuleRef]) -> CachedMask {
        let quarantined = self.fcm.columns_touching(touched_rules);
        let closure = self.fcm.rows_touching(&quarantined);
        let mut keep: Vec<bool> = observed
            .iter()
            .zip(&closure)
            .map(|(&o, &c)| o && !c)
            .collect();
        // Journaled rules may have no traced flow (and rules installed
        // after the FCM was built are not in the universe at all) — mask
        // the ones we know about explicitly rather than rely on closure.
        for r in touched_rules {
            if let Some(row) = self.fcm.rule_row(*r) {
                keep[row] = false;
            }
        }
        let masked = self.fcm.quarantine(&keep, &quarantined);
        let coverage = self.masked_coverage_with_quarantine(&masked, &quarantined);
        CachedMask { masked, coverage }
    }

    /// Builds the masked system and re-consults the Theorem 1 oracle on it.
    fn build_mask(&self, observed: &[bool]) -> CachedMask {
        let masked = self.fcm.mask_rows(observed);
        let coverage = self.masked_coverage(&masked);
        CachedMask { masked, coverage }
    }

    /// Re-classifies the audited candidates against the masked system: a
    /// deviation stays detectable iff its projected deviated column leaves
    /// the span of the projected FCM columns. Projection can only *shrink*
    /// the set of vectors outside the span, so this is ≤ the full coverage
    /// on the same sample.
    fn masked_coverage(&self, masked: &MaskedFcm) -> f64 {
        self.masked_coverage_with_quarantine(masked, &vec![false; self.fcm.flow_count()])
    }

    /// Coverage over the audited sample with a quarantine in effect: a
    /// candidate deviating a quarantined flow is undetectable by fiat —
    /// its column is not part of the reconciled system, so nothing
    /// constrains it this round.
    fn masked_coverage_with_quarantine(&self, masked: &MaskedFcm, quarantined: &[bool]) -> f64 {
        if self.candidates.is_empty() {
            return 1.0;
        }
        let sub = masked.fcm();
        if sub.rule_count() == 0 {
            return 0.0; // no equations left: every deviation is invisible
        }
        let oracle = SpanOracle::new(sub);
        // Parent row -> masked row, for projecting deviated histories.
        let mut masked_row = vec![None; self.fcm.rule_count()];
        for (i, &parent) in masked.parent_rows().iter().enumerate() {
            masked_row[parent] = Some(i);
        }
        let mut detectable = 0usize;
        for c in &self.candidates {
            if quarantined.get(c.flow).copied().unwrap_or(false) {
                continue;
            }
            // The deviated history's 0/1 column, projected onto the
            // observed rows.
            let rows: Vec<usize> = c
                .deviated_history
                .iter()
                .filter_map(|r| self.fcm.rule_row(*r).and_then(|row| masked_row[row]))
                .collect();
            if !oracle.contains_rows(&rows) {
                detectable += 1;
            }
        }
        detectable as f64 / self.candidates.len() as f64
    }

    /// Coverage of the masked system for an explicit observation mask —
    /// exposed for audits and tests; `detect` computes and caches the same
    /// number per missing-switch set.
    pub fn coverage_under_mask(&self, observed: &[bool]) -> f64 {
        self.masked_coverage(&self.fcm.mask_rows(observed))
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
        assert_eq!(pipeline.cached_masks(), 0, "full rounds never mask");
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
    fn masked_systems_are_cached_per_missing_set() {
        let (dep, mut pipeline) = setup();
        let counters = pipeline.fcm().counters_from(&dep.dataplane);
        let victim = pipeline.fcm().rules()[0].switch;
        let observed = mask_without(&pipeline, &[victim]);
        pipeline.detect(&counters, &observed).unwrap();
        pipeline.detect(&counters, &observed).unwrap();
        assert_eq!(pipeline.cached_masks(), 1);
        let other = pipeline
            .fcm()
            .rules()
            .iter()
            .map(|r| r.switch)
            .find(|&s| s != victim)
            .unwrap();
        let observed2 = mask_without(&pipeline, &[other]);
        pipeline.detect(&counters, &observed2).unwrap();
        assert_eq!(pipeline.cached_masks(), 2);
    }

    #[test]
    fn reconciliation_quarantines_churned_rules_and_stays_normal() {
        let (dep, mut pipeline) = setup();
        let mut counters = pipeline.fcm().counters_from(&dep.dataplane);
        let observed = vec![true; counters.len()];
        // Simulate a mid-epoch reroute of flow 0: the counters of its
        // rules are mixed-generation readings that fit no single volume.
        let touched = pipeline.fcm().flows()[0].rules.clone();
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
        assert_eq!(pipeline.cached_reconciliations(), 1);
        // The same (missing, touched) key hits the cache.
        pipeline
            .detect_reconciled(&counters, &observed, &touched, vec![])
            .unwrap();
        assert_eq!(pipeline.cached_reconciliations(), 1);
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
    fn retarget_preserves_the_warm_factor_across_a_rebuild() {
        let (mut dep, mut pipeline) = setup();
        let counters = pipeline.fcm().counters_from(&dep.dataplane);
        let observed = vec![true; counters.len()];
        pipeline.detect(&counters, &observed).unwrap();
        assert!(
            matches!(pipeline.last_solve_path(), Some(SolvePath::Cold { .. })),
            "first full round factors from scratch"
        );
        pipeline.detect(&counters, &observed).unwrap();
        assert!(
            pipeline.last_solve_path().is_some_and(|p| p.is_warm()),
            "steady state reuses the factor: {:?}",
            pipeline.last_solve_path()
        );
        // Reroute a flow and retarget at the rebuilt FCM: the mask caches
        // drop but the cached factor survives and absorbs the delta.
        dep.reroute_flow_via(0, &[]).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        pipeline.retarget(&dep.view, fcm, 300);
        assert!(pipeline.solver_is_warm(), "retarget keeps the factor");
        assert_eq!(pipeline.cached_masks(), 0);
        assert_eq!(pipeline.cached_reconciliations(), 0);
        dep.dataplane.reset_counters();
        dep.replay_traffic(&mut LossModel::none());
        let counters = pipeline.fcm().counters_from(&dep.dataplane);
        let observed = vec![true; counters.len()];
        let (v, mode) = pipeline.detect(&counters, &observed).unwrap();
        assert_eq!(mode, DetectionMode::Full);
        assert!(!v.unwrap().anomalous);
        assert!(
            pipeline.last_solve_path().is_some_and(|p| p.is_warm()),
            "post-rebuild full round patches instead of refactorizing: {:?}",
            pipeline.last_solve_path()
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

    #[test]
    fn mask_caches_stay_bounded_and_evicted_masks_rebuild_alike() {
        let (dep, mut pipeline) = setup();
        let counters = pipeline.fcm().counters_from(&dep.dataplane);
        let mut switches: Vec<SwitchId> = pipeline.fcm().rules().iter().map(|r| r.switch).collect();
        switches.dedup();
        // 200 distinct missing-switch sets: every single switch, then pairs.
        let mut sets: Vec<Vec<SwitchId>> = switches.iter().map(|&s| vec![s]).collect();
        for (i, &a) in switches.iter().enumerate() {
            for &b in &switches[i + 1..] {
                sets.push(vec![a, b]);
            }
        }
        sets.truncate(200);
        assert_eq!(sets.len(), 200);
        let mut first = Vec::new();
        for set in &sets {
            let observed = mask_without(&pipeline, set);
            first.push(pipeline.detect(&counters, &observed).unwrap());
            assert!(pipeline.cached_masks() <= MASK_CACHE_CAP);
        }
        assert_eq!(pipeline.cached_masks(), MASK_CACHE_CAP);
        // The oldest sets were evicted: revisiting them rebuilds the mask,
        // and the verdicts match both the first visit and a fresh pipeline.
        let (_, mut fresh) = setup();
        for (set, before) in sets.iter().zip(&first).take(20) {
            let observed = mask_without(&pipeline, set);
            let again = pipeline.detect(&counters, &observed).unwrap();
            let reference = fresh.detect(&counters, &observed).unwrap();
            assert_eq!(again.1, reference.1, "{set:?}");
            assert_eq!(again.1, before.1, "{set:?}");
            let (a, r) = (again.0.unwrap(), reference.0.unwrap());
            assert_eq!(a.anomalous, r.anomalous, "{set:?}");
            assert_eq!(
                a.anomaly_index.to_bits(),
                r.anomaly_index.to_bits(),
                "{set:?}"
            );
        }
        assert_eq!(pipeline.cached_masks(), MASK_CACHE_CAP);
    }
}
