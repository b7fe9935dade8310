//! Byzantine-resilient detection: suspicion scoring, leave-one-switch-out
//! cross-validation, and k-resilient verdicts (ROADMAP item 5a).
//!
//! The paper's threat model (§II-B) lets a compromised switch *forge* its
//! counter reports to hide an anomaly. Nothing in Algorithm 1 assumes the
//! reports are honest — it only checks whether `H·X = Y'` is consistent —
//! but the FCM is heavily over-determined (many more rules than flows), and
//! that redundancy is exactly what catches a liar:
//!
//! 1. **Suspicion scoring** ([`SuspicionTracker`]): after each anomalous
//!    round, the residual mass is attributed to the switches that reported
//!    the offending rows. Honest rounds *never* add suspicion (quiet rounds
//!    decay it), so an honest network provably accumulates zero.
//! 2. **Leave-one-switch-out cross-validation** ([`LooSolver`]): for a
//!    suspect switch `s`, re-solve the system with `s`'s equations removed.
//!    If the remainder is consistent (anomaly index back under the
//!    threshold), every conflict involved `s`'s reports — `s` is the liar.
//!    The re-solve reuses the one sparse Cholesky factor of the normal
//!    equations through a Woodbury capacitance over `s`'s rows (and the
//!    round's unobserved rows), never refactorizing: `r_s + k_s` sparse
//!    forward solves and a sparse capacitance per candidate, where `k_s`
//!    counts the basis columns `s` strands.
//! 3. **k-resilient verdicts** ([`k_resilient_verdict`]): quarantine the
//!    top-j suspects (j = 1..k) through the row-removal kernel
//!    ([`Detector::detect_without`]) and report whether the verdict
//!    survives — a verdict that flips when one suspect is silenced was
//!    resting entirely on that suspect's reports.
//!
//! ## Soundness of leave-one-out
//!
//! Removing the rows `R_s` of switch `s` changes the basis Gram matrix by
//! `−Σ_{r∈R_s} h_r·h_rᵀ` (where `h_r` is row `r` restricted to the column
//! basis) — one rank-one correction per removed row. Flows whose entire
//! support lies on `s` become unidentifiable: the capacitance pins them to
//! zero with an identity term instead ([`Capacitance`](foces_sparse::Capacitance)). If the removal
//! leaves two columns equal, or the corrected system is still singular,
//! it destroys identifiability of some remaining flow and the outcome is
//! [`LooStatus::RankLost`] — the solver refuses to certify rather than
//! report a spurious "consistent".
//! A *pure* counter-fake liar (forwarding untouched) is the only switch
//! whose removal restores consistency, because the true flow volumes
//! satisfy every honest row exactly. A liar *covering for* a real
//! forwarding anomaly leaves honest upstream/downstream rows inconsistent,
//! so removal does not clear the alarm — that distinction is what the
//! runtime reports as an *unresolved Byzantine alarm*.
//!
//! [`RoundCore`] strings the three parts together, with counter
//! quarantine and re-probe release, behind the round's alarm decision,
//! once for the `run` and `stream` drivers.

use crate::detector::{anomaly_index, max_with_index, median, noise_floor};
use crate::without::{zero_unobserved, Kernel};
use crate::{
    AlarmMachine, AlarmState, AlarmTransition, Detector, Fcm, FocesError, HysteresisConfig, Verdict,
};
use foces_dataplane::RuleRef;
use foces_net::SwitchId;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::Arc;

/// Tuning for [`SuspicionTracker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuspicionConfig {
    /// Multiplicative decay applied to every score on a quiet round.
    pub decay: f64,
    /// Cumulative score at which a switch is implicated (and becomes a
    /// candidate for leave-one-out cross-validation). Each anomalous round
    /// distributes exactly 1.0 of suspicion across all switches, and the
    /// projector spreads a lie's residual onto honest neighbors (a liar
    /// typically holds a 20–30% share), so the default of 1.0 implicates
    /// the dominant switch after a handful of anomalous rounds. Implication
    /// is deliberately loose — it only *nominates* candidates; the precise
    /// test is leave-one-out cross-validation ([`cross_validate`]).
    pub implicate_at: f64,
    /// Scores below this are pruned after decay (bookkeeping hygiene).
    pub floor: f64,
}

impl Default for SuspicionConfig {
    fn default() -> Self {
        SuspicionConfig {
            decay: 0.5,
            implicate_at: 1.0,
            floor: 1e-3,
        }
    }
}

/// Per-switch suspicion accumulator (tentpole part 1).
///
/// Feed it one observation per detection round: the rules actually solved
/// (full or masked row order) with their residuals, and whether the round's
/// verdict was anomalous. On an anomalous round each switch gains its
/// *share* of the residual mass (shares sum to 1.0); on a quiet round all
/// scores decay. **Honest invariant**: a network whose rounds are never
/// anomalous accumulates exactly zero suspicion — scores are only ever
/// added under an anomalous verdict.
#[derive(Debug, Clone, Default)]
pub struct SuspicionTracker {
    config: SuspicionConfig,
    scores: BTreeMap<SwitchId, f64>,
    anomalous_rounds: u64,
}

impl SuspicionTracker {
    /// Creates a tracker with the given tuning.
    pub fn new(config: SuspicionConfig) -> Self {
        SuspicionTracker {
            config,
            scores: BTreeMap::new(),
            anomalous_rounds: 0,
        }
    }

    /// The tracker's tuning.
    pub fn config(&self) -> SuspicionConfig {
        self.config
    }

    /// Ingests one round. `rules[i]` is the rule whose residual is
    /// `residual[i]` — pass the masked rule list for degraded rounds so the
    /// attribution stays aligned. Rounds whose residuals are poisoned by
    /// in-flight churn should simply not be fed.
    ///
    /// # Panics
    ///
    /// Panics if `rules.len() != residual.len()`.
    pub fn observe(&mut self, rules: &[RuleRef], residual: &[f64], anomalous: bool) {
        assert_eq!(
            rules.len(),
            residual.len(),
            "one residual per solved rule row"
        );
        if !anomalous {
            // Quiet round: decay and prune. No additions, ever.
            let floor = self.config.floor;
            let decay = self.config.decay;
            self.scores.retain(|_, v| {
                *v *= decay;
                *v >= floor
            });
            return;
        }
        self.anomalous_rounds += 1;
        let total: f64 = residual.iter().sum();
        if total <= 0.0 {
            return;
        }
        let mut mass: BTreeMap<SwitchId, f64> = BTreeMap::new();
        for (r, &d) in rules.iter().zip(residual) {
            *mass.entry(r.switch).or_insert(0.0) += d;
        }
        for (s, m) in mass {
            *self.scores.entry(s).or_insert(0.0) += m / total;
        }
    }

    /// Current score for one switch (0 if never charged).
    pub fn score(&self, s: SwitchId) -> f64 {
        self.scores.get(&s).copied().unwrap_or(0.0)
    }

    /// The largest current score (0 when empty).
    pub fn max_score(&self) -> f64 {
        self.scores.values().fold(0.0_f64, |m, &v| m.max(v))
    }

    /// All switches with nonzero suspicion, most suspicious first. Ties
    /// break on switch id so the ranking is deterministic.
    pub fn ranked(&self) -> Vec<(SwitchId, f64)> {
        let mut v: Vec<(SwitchId, f64)> = self.scores.iter().map(|(&s, &x)| (s, x)).collect();
        v.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("scores are finite")
                .then(a.0.cmp(&b.0))
        });
        v
    }

    /// Switches whose score has crossed [`SuspicionConfig::implicate_at`],
    /// most suspicious first.
    pub fn implicated(&self) -> Vec<SwitchId> {
        self.ranked()
            .into_iter()
            .filter(|&(_, x)| x >= self.config.implicate_at)
            .map(|(s, _)| s)
            .collect()
    }

    /// Rounds that contributed suspicion so far.
    pub fn anomalous_rounds(&self) -> u64 {
        self.anomalous_rounds
    }

    /// Forgets one switch (e.g. after it confessed and was verified clean).
    pub fn clear(&mut self, s: SwitchId) {
        self.scores.remove(&s);
    }

    /// Forgets everything (e.g. after an FCM rebuild re-keys the rows).
    pub fn reset(&mut self) {
        self.scores.clear();
    }
}

/// What removing one switch's equations did to the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LooStatus {
    /// The remainder is consistent: every conflict involved this switch's
    /// reports. The switch is a localized liar candidate.
    Consistent,
    /// The remainder is still anomalous: honest rows still conflict, so
    /// this switch alone does not explain the alarm.
    StillAnomalous,
    /// Removing the switch destroys identifiability of some remaining flow
    /// (the downdated factor went singular): consistency cannot be
    /// certified either way.
    RankLost,
}

/// One leave-one-switch-out evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct LooOutcome {
    /// The switch whose equations were removed.
    pub switch: SwitchId,
    /// How many of its (observed) rows were removed.
    pub rows_removed: usize,
    /// Basis columns excised because their entire support left with this
    /// switch's rows: distinct rule sets, not flows (a column carries
    /// every flow with its rule set; under a mask, columns the mask
    /// leaves equal count once).
    pub flows_dropped: usize,
    /// Anomaly index of the remaining system (`NaN` when
    /// [`LooStatus::RankLost`]).
    pub anomaly_index_without: f64,
    /// Largest remaining residual (`NaN` when [`LooStatus::RankLost`]).
    pub err_max_without: f64,
    /// The verdict on the remainder.
    pub status: LooStatus,
}

/// Leave-one-switch-out solver (tentpole part 2).
///
/// Built once per counter snapshot on the FCM's [`crate::BasisSystem`]: it
/// borrows the sparse Gram factor a solve already memoized on the FCM, or
/// factors the basis Gram once itself, then answers "is the system
/// consistent *without* switch `s`?" for any number of candidates through a
/// Woodbury [`Capacitance`](foces_sparse::Capacitance) over `s`'s rows — no refactorization per
/// candidate ([`LooSolver::cold_factorizations`] is at most 1). Rows the
/// round did not observe ([`LooSolver::build_without`]) join every
/// candidate's capacitance.
#[derive(Debug, Clone)]
pub struct LooSolver {
    /// The round's unobserved rows removed (none for a full round).
    base: Kernel,
    /// `Bᵀy` over the observed rows.
    rhs: Vec<f64>,
    /// The counters, zero at unobserved rows.
    counters: Vec<f64>,
    /// Per basis column, the lowest column the base leaves it equal to.
    group: Vec<usize>,
    /// Each switch's observed rows.
    rows_of: BTreeMap<SwitchId, Vec<usize>>,
    threshold: f64,
    base_index: f64,
    base_err_med: f64,
    cold_factorizations: usize,
    downdates: usize,
}

impl LooSolver {
    /// Factors the system once and computes the base anomaly index.
    ///
    /// # Errors
    ///
    /// * [`FocesError::EmptyFcm`] / [`FocesError::CounterLengthMismatch`] /
    ///   [`FocesError::NonFiniteCounter`] as for
    ///   [`crate::EquationSystem::solve`];
    /// * [`FocesError::Solver`] if the base factorization fails (rank
    ///   deficiency beyond duplicate columns — fall back to the ordinary
    ///   detector in that case).
    pub fn build(fcm: &Fcm, counters: &[f64], threshold: f64) -> Result<Self, FocesError> {
        LooSolver::build_without(fcm, counters, &vec![true; fcm.rule_count()], threshold)
    }

    /// [`LooSolver::build`] for a round that observed only the rows
    /// `observed` marks: the others are removed from the base solve and
    /// from every candidate's, on the full FCM's factor. Outcomes equal
    /// those of [`LooSolver::build`] on [`Fcm::mask_rows`]'s sub-FCM;
    /// [`LooSolver::downdates`] counts the unobserved rows' corrections too.
    ///
    /// # Errors
    ///
    /// As for [`LooSolver::build`]; [`FocesError::EmptyFcm`] also when the
    /// mask drops every flow.
    ///
    /// # Panics
    ///
    /// Panics if `observed.len() != fcm.rule_count()`.
    pub fn build_without(
        fcm: &Fcm,
        counters: &[f64],
        observed: &[bool],
        threshold: f64,
    ) -> Result<Self, FocesError> {
        crate::solver::check_shape(fcm, counters)?;
        let counters = zero_unobserved(counters, observed);
        crate::solver::check_counters(fcm, &counters)?;
        let system = Arc::clone(fcm.basis_system());
        let (factor, fresh) = system.cholesky().borrow_or_factor()?;
        let rhs = system.basis().transpose_matvec(&counters)?;
        let mut rows_of: BTreeMap<SwitchId, Vec<usize>> = BTreeMap::new();
        for (i, r) in fcm.rules().iter().enumerate().filter(|&(i, _)| observed[i]) {
            rows_of.entry(r.switch).or_default().push(i);
        }
        // Base solve off the same factor: the mask's capacitance (empty on
        // a full round), no extra factorization.
        let base = Kernel::new(system, factor, observed.to_vec())?;
        if base.blind() {
            return Err(FocesError::EmptyFcm);
        }
        let mut group: Vec<usize> = (0..base.system.cols()).collect();
        for &(a, b) in base.cap.merged() {
            group[b] = a;
        }
        let (out, kept) = base.outcome(&counters, base.solve(&rhs)?)?;
        let base_err_med = median(&out.residual);
        Ok(LooSolver {
            base_index: anomaly_index(max_with_index(&out.residual).0, base_err_med, &kept),
            base_err_med,
            base,
            rhs,
            counters,
            group,
            rows_of,
            threshold,
            cold_factorizations: usize::from(fresh),
            downdates: 0,
        })
    }

    /// Anomaly index of the *full* system (all switches included).
    pub fn base_index(&self) -> f64 {
        self.base_index
    }

    /// Whether the full system is anomalous at the configured threshold.
    pub fn base_anomalous(&self) -> bool {
        self.base_index > self.threshold
    }

    /// Cold factorizations performed over this solver's lifetime: 1 when
    /// building it factored the basis Gram, 0 when it borrowed the factor a
    /// solve had memoized on the FCM. No number of candidates adds to it.
    pub fn cold_factorizations(&self) -> usize {
        self.cold_factorizations
    }

    /// Rank-one corrections applied so far: one per removed row (the
    /// candidates' and the unobserved ones) that keeps an entry on a
    /// non-stranded basis column.
    pub fn downdates(&self) -> usize {
        self.downdates
    }

    /// Evaluates the system with `s`'s equations removed.
    ///
    /// # Errors
    ///
    /// [`FocesError::Solver`] only on unexpected numerical failure —
    /// expected singularity surfaces as [`LooStatus::RankLost`], not an
    /// error.
    pub fn leave_out(&mut self, s: SwitchId) -> Result<LooOutcome, FocesError> {
        let rows = self.rows_of.get(&s).cloned().unwrap_or_default();
        if rows.is_empty() {
            // No equations to remove: the "remainder" is the full system.
            return Ok(LooOutcome {
                switch: s,
                rows_removed: 0,
                flows_dropped: 0,
                anomaly_index_without: self.base_index,
                err_max_without: f64::NAN,
                status: if self.base_index > self.threshold {
                    LooStatus::StillAnomalous
                } else {
                    LooStatus::Consistent
                },
            });
        }
        // Basis columns whose entire support lies on the removed rows
        // become unidentifiable; the capacitance pins them to zero and
        // corrects the factor for the rest of the rows.
        let mut kept = self.base.kept.clone();
        for &r in &rows {
            kept[r] = false;
        }
        let (system, factor) = (Arc::clone(&self.base.system), Arc::clone(&self.base.factor));
        let without = Kernel::new(system, factor, kept)?;
        let cap = &without.cap;
        self.downdates += cap.corrections();
        // The solved system's columns are the base's merged groups: `s`
        // drops the groups it newly strands, and loses rank if it leaves
        // two of them equal.
        let base_stranded = |j: &usize| self.base.cap.stranded().binary_search(j).is_ok();
        let mut dropped: Vec<usize> = cap
            .stranded()
            .iter()
            .filter(|j| !base_stranded(j))
            .map(|&j| self.group[j])
            .collect();
        dropped.sort_unstable();
        dropped.dedup();
        let merges = cap
            .merged()
            .iter()
            .any(|&(a, b)| self.group[a] != self.group[b]);
        if cap.rank_lost() || merges {
            return Ok(LooOutcome {
                switch: s,
                rows_removed: rows.len(),
                flows_dropped: dropped.len(),
                anomaly_index_without: f64::NAN,
                err_max_without: f64::NAN,
                status: LooStatus::RankLost,
            });
        }
        let basis = without.system.basis();
        let mut rhs = self.rhs.clone();
        for &r in &rows {
            for (j, val) in basis.row_iter(r) {
                rhs[j] -= self.counters[r] * val;
            }
        }
        // Residuals over the rows that remain; stranded coordinates of `x`
        // are zero, so the full row fits only kept columns.
        let (out, kept_counters) = without.outcome(&self.counters, without.solve(&rhs)?)?;
        let err_max = max_with_index(&out.residual).0;
        let ai = anomaly_index(err_max, median(&out.residual), &kept_counters);
        // Consistency is judged in *absolute* terms, anchored to the base
        // round's noise envelope: the AI is a ratio, and removing an
        // *accomplice-looking* honest switch can spread a still-large
        // residual evenly enough to push the ratio under the threshold.
        // A genuine explanation pulls the worst residual down to where the
        // base round's median noise sits.
        let floor = f64::max(
            noise_floor(&kept_counters),
            self.threshold * self.base_err_med,
        );
        Ok(LooOutcome {
            switch: s,
            rows_removed: rows.len(),
            flows_dropped: dropped.len(),
            anomaly_index_without: ai,
            err_max_without: err_max,
            status: if ai <= self.threshold && err_max <= floor {
                LooStatus::Consistent
            } else {
                LooStatus::StillAnomalous
            },
        })
    }

    /// Runs leave-one-out over `candidates` and localizes the liar if
    /// exactly one removal restores consistency.
    ///
    /// # Errors
    ///
    /// As for [`LooSolver::leave_out`].
    pub fn sweep(mut self, candidates: &[SwitchId]) -> Result<ByzantineReport, FocesError> {
        let mut outcomes = Vec::with_capacity(candidates.len());
        for &s in candidates {
            outcomes.push(self.leave_out(s)?);
        }
        let consistent: Vec<SwitchId> = outcomes
            .iter()
            .filter(|o| o.status == LooStatus::Consistent && o.rows_removed > 0)
            .map(|o| o.switch)
            .collect();
        let base_anomalous = self.base_anomalous();
        Ok(ByzantineReport {
            base_index: self.base_index(),
            base_anomalous,
            localized: if base_anomalous && consistent.len() == 1 {
                Some(consistent[0])
            } else {
                None
            },
            ambiguous: base_anomalous && consistent.len() > 1,
            outcomes,
            cold_factorizations: self.cold_factorizations(),
            downdates: self.downdates(),
        })
    }
}

/// Verdict of a full cross-validation sweep over candidate switches.
#[derive(Debug, Clone, PartialEq)]
pub struct ByzantineReport {
    /// Anomaly index of the full system.
    pub base_index: f64,
    /// Whether the full system was anomalous to begin with.
    pub base_anomalous: bool,
    /// One outcome per candidate, in candidate order.
    pub outcomes: Vec<LooOutcome>,
    /// The liar, when exactly one candidate's removal restores consistency.
    pub localized: Option<SwitchId>,
    /// More than one candidate's removal restores consistency — the
    /// evidence cannot distinguish them (e.g. colluding cover-ups).
    pub ambiguous: bool,
    /// Cold factorizations spent: 1, or 0 when the sweep borrowed the
    /// FCM's memoized factor.
    pub cold_factorizations: usize,
    /// Rank-one downdates spent across all candidates.
    pub downdates: usize,
}

/// Runs leave-one-out over `candidates` and localizes the liar if exactly
/// one removal restores consistency (tentpole part 2, entry point; a
/// masked round runs [`LooSolver::build_without`]'s [`LooSolver::sweep`]).
///
/// # Errors
///
/// As for [`LooSolver::build`] / [`LooSolver::leave_out`].
pub fn cross_validate(
    fcm: &Fcm,
    counters: &[f64],
    threshold: f64,
    candidates: &[SwitchId],
) -> Result<ByzantineReport, FocesError> {
    LooSolver::build(fcm, counters, threshold)?.sweep(candidates)
}

/// One quarantine step of a k-resilience probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceStep {
    /// How many top suspects were quarantined for this step.
    pub quarantined: usize,
    /// The masked verdict with those suspects silenced.
    pub anomalous: bool,
    /// The masked anomaly index.
    pub anomaly_index: f64,
}

/// Whether a verdict survives silencing up to k suspects.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// The k that was probed.
    pub k: usize,
    /// The unquarantined (base) verdict.
    pub base_anomalous: bool,
    /// Steps actually evaluated (may stop early if quarantining leaves no
    /// solvable system).
    pub steps: Vec<ResilienceStep>,
    /// `true` iff every evaluated step agrees with the base verdict.
    pub survives: bool,
    /// The first quarantine depth at which the verdict flipped.
    pub flips_at: Option<usize>,
}

/// Probes verdict stability under up to `k` quarantined liars (tentpole
/// part 3): for `j = 1..=k`, silence the top-`j` switches of `ranked` and
/// re-run Algorithm 1 on the remainder ([`Detector::detect_without`]). A verdict that
/// needs a particular suspect's reports to stay anomalous (or to stay
/// quiet) is not `j`-resilient.
///
/// `observed` is the round's row mask (all-`true` for a full round);
/// quarantined switches are removed *on top of* it. Evaluation stops early
/// if quarantining empties the system.
///
/// # Errors
///
/// Propagates solver failures from the base (unquarantined) detection.
pub fn k_resilient_verdict(
    detector: &Detector,
    fcm: &Fcm,
    counters: &[f64],
    observed: &[bool],
    ranked: &[SwitchId],
    k: usize,
) -> Result<ResilienceReport, FocesError> {
    let (base, _) = detector.detect_without(fcm, counters, observed)?;
    let depth = k.min(ranked.len());
    let mut steps = Vec::with_capacity(depth);
    let mut flips_at = None;
    for j in 1..=depth {
        let silenced = &ranked[..j];
        let obs: Vec<bool> = fcm
            .rules()
            .iter()
            .zip(observed)
            .map(|(r, &o)| o && !silenced.contains(&r.switch))
            .collect();
        let verdict = match detector.detect_without(fcm, counters, &obs) {
            Ok((v, _)) => v,
            // Quarantine ate the whole system: nothing left to certify.
            Err(FocesError::EmptyFcm) => break,
            Err(e) => return Err(e),
        };
        if verdict.anomalous != base.anomalous && flips_at.is_none() {
            flips_at = Some(j);
        }
        steps.push(ResilienceStep {
            quarantined: j,
            anomalous: verdict.anomalous,
            anomaly_index: verdict.anomaly_index,
        });
    }
    Ok(ResilienceReport {
        k,
        base_anomalous: base.anomalous,
        survives: flips_at.is_none(),
        flips_at,
        steps,
    })
}

/// Byzantine-resilience tunables: suspicion scoring, leave-one-switch-out
/// liar localization, counter quarantine, and k-resilient verdict probes.
/// Off by default — a driver then behaves exactly as it always has.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByzantineConfig {
    /// Master switch for the whole layer.
    pub enabled: bool,
    /// Suspicion accumulation tuning (decay, implication threshold).
    pub suspicion: SuspicionConfig,
    /// How many of the most-suspicious switches each leave-one-out pass
    /// cross-validates.
    pub max_candidates: usize,
    /// Quarantine depth of the k-resilience probe run on alarm-raise
    /// epochs (0 disables the probe).
    pub resilience_k: usize,
    /// Quiet scored epochs before a quarantined switch is re-probed for
    /// release (its counters are re-admitted only if the system stays
    /// consistent with them).
    pub reprobe_after: u32,
}

impl Default for ByzantineConfig {
    fn default() -> Self {
        ByzantineConfig {
            enabled: false,
            suspicion: SuspicionConfig::default(),
            max_candidates: 4,
            resilience_k: 2,
            reprobe_after: 4,
        }
    }
}

/// What one detection round hands [`RoundCore::after_verdict`].
#[derive(Debug, Clone, Copy)]
pub struct LiarRound<'a> {
    /// The detector that produced the verdict.
    pub detector: &'a Detector,
    /// The solved system: the full FCM, or one shard's sub-FCM.
    pub fcm: &'a Fcm,
    /// Counters in `fcm` row order.
    pub counters: &'a [f64],
    /// The round's observed mask, with quarantined rows withheld.
    pub observed: &'a [bool],
    /// The observed mask before [`RoundCore::withhold`].
    pub collected: &'a [bool],
    /// Whether the verdict's residuals attribute cleanly to switches: true
    /// for full and row-masked (degraded) rounds, false for reconciled
    /// rounds (their counters mix rule generations) and blind ones. The
    /// scored rows are then the observed ones, in solve order.
    pub scorable: bool,
    /// The round's verdict (`None` on a blind round, which leaves the alarm
    /// where it was).
    pub verdict: Option<&'a Verdict>,
    /// The round witnessed a rule update, which arms the alarm's churn
    /// suppression before the round is judged.
    pub churn: bool,
    /// The region this round solved (`None`: the whole network). A region's
    /// round nominates and re-probes only the switches owning rows of its
    /// `fcm`, and a switch is re-probed only on rounds of the region whose
    /// round localized it, the system its lie showed in.
    pub region: Option<usize>,
}

/// Per-round increments of the detection counters every driver's metrics
/// carry under the same names.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundCounts {
    /// Rounds whose verdict was anomalous (0 or 1).
    pub anomalous_rounds: u64,
    /// Alarm raise transitions (0 or 1).
    pub alarms_raised: u64,
    /// Alarm clear transitions (0 or 1).
    pub alarms_cleared: u64,
    /// Rounds where churn suppression held a raise quorum back (0 or 1).
    pub suppressed_raises: u64,
    /// Rounds that fed the suspicion tracker (0 or 1).
    pub suspicion_rounds: u64,
    /// Leave-one-out candidate evaluations.
    pub loo_solves: u64,
    /// Rank-one factor downdates those evaluations spent.
    pub loo_downdates: u64,
    /// Liars localized (0 or 1).
    pub liars_localized: u64,
    /// Switches put under quarantine (0 or 1).
    pub switch_quarantines: u64,
    /// Quarantines lifted by a clean re-probe (0 or 1).
    pub quarantine_releases: u64,
    /// Entries into the unresolved-Byzantine state (0 or 1).
    pub unresolved_byzantine: u64,
    /// k-resilience probes run (0 or 1).
    pub resilience_probes: u64,
    /// Probes whose verdict flipped (0 or 1).
    pub resilience_flips: u64,
}

/// What [`RoundCore::after_verdict`] decided this round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundOutcome {
    /// What the round did to the alarm (nothing on a blind round).
    pub alarm: AlarmTransition,
    /// The liar leave-one-out localized (quarantined from the next round).
    pub localized: Option<SwitchId>,
    /// The switch a clean re-probe released from quarantine.
    pub released: Option<SwitchId>,
    /// The k-resilience probe (alarm-raise rounds only).
    pub resilience: Option<ResilienceReport>,
    /// Counter increments for the driver's metrics.
    pub counts: RoundCounts,
}

/// The round core the `run` and `stream` drivers judge every verdict
/// with: after Algorithm 1's verdict it steps the k-of-n
/// [`AlarmMachine`], then runs the liar lifecycle — suspicion →
/// leave-one-out → k-resilience → quarantine and re-probe — and tallies
/// the round. Each round a driver calls [`RoundCore::withhold`] before
/// solving, then [`RoundCore::after_verdict`]. Re-probes rotate through
/// the quarantined set in ascending order, so a switch that keeps lying
/// cannot starve the release of one that has confessed. Each quarantined
/// switch is re-probed only on rounds of the region that localized it; a
/// probe that falls due on another region's round waits for the next one
/// there.
#[derive(Debug, Clone)]
pub struct RoundCore {
    alarm: AlarmMachine,
    config: ByzantineConfig,
    suspicion: SuspicionTracker,
    /// Switches whose counters are withheld from every solve, each with
    /// the region whose round localized it.
    quarantined: BTreeMap<SwitchId, Option<usize>>,
    /// Consecutive quiet scored rounds since the last re-probe attempt.
    quiet_streak: u32,
    /// Alarm is up but leave-one-out could not pin a single liar.
    unresolved: bool,
    /// The switch the most recent re-probe tried.
    last_probed: Option<SwitchId>,
}

impl RoundCore {
    /// A core with the alarm normal and nobody suspected or quarantined.
    ///
    /// # Panics
    ///
    /// Panics if `hysteresis` fails [`HysteresisConfig::check`].
    pub fn new(hysteresis: HysteresisConfig, byzantine: ByzantineConfig) -> Self {
        RoundCore {
            alarm: AlarmMachine::new(hysteresis),
            config: byzantine,
            suspicion: SuspicionTracker::new(byzantine.suspicion),
            quarantined: BTreeMap::new(),
            quiet_streak: 0,
            unresolved: false,
            last_probed: None,
        }
    }

    /// The alarm state after the latest judged round.
    pub fn state(&self) -> AlarmState {
        self.alarm.state()
    }

    /// The residual-attribution scores (empty while the layer is off).
    pub fn suspicion(&self) -> &SuspicionTracker {
        &self.suspicion
    }

    /// Switches currently under counter quarantine, ascending, each with
    /// the region whose round localized it.
    pub fn quarantined(&self) -> &BTreeMap<SwitchId, Option<usize>> {
        &self.quarantined
    }

    /// Whether the alarm is up with no single switch explaining it.
    pub fn unresolved(&self) -> bool {
        self.unresolved
    }

    /// The round's observed mask: `collected` with the bit of every row a
    /// quarantined switch owns cleared, which routes the round through the
    /// sound row-masked path. Borrows `collected` when nothing is withheld.
    pub fn withhold<'a>(&self, rules: &[RuleRef], collected: &'a [bool]) -> Cow<'a, [bool]> {
        if !self.config.enabled || self.quarantined.is_empty() {
            return Cow::Borrowed(collected);
        }
        let quarantined = |r: &RuleRef| self.quarantined.contains_key(&r.switch);
        Cow::Owned(
            collected
                .iter()
                .zip(rules)
                .map(|(&c, r)| c && !quarantined(r))
                .collect(),
        )
    }

    /// Judges one round: steps the alarm on its verdict, then (with the
    /// Byzantine layer on) runs the liar lifecycle. A blind round decides
    /// nothing.
    ///
    /// # Errors
    ///
    /// Propagates solver failures from leave-one-out, the k-resilience
    /// probe and the re-probe solve.
    pub fn after_verdict(&mut self, round: &LiarRound<'_>) -> Result<RoundOutcome, FocesError> {
        let scope: Option<BTreeSet<SwitchId>> = (self.config.enabled && round.region.is_some())
            .then(|| round.fcm.rules().iter().map(|r| r.switch).collect());
        self.judge(round, scope.as_ref())
    }

    /// [`RoundCore::after_verdict`] with the switches the round may
    /// nominate or re-probe (`None`: all).
    fn judge(
        &mut self,
        round: &LiarRound<'_>,
        scope: Option<&BTreeSet<SwitchId>>,
    ) -> Result<RoundOutcome, FocesError> {
        let Some(verdict) = round.verdict else {
            return Ok(RoundOutcome::default());
        };
        let anomalous = verdict.anomalous;
        let alarm = self.alarm.observe(anomalous, round.churn);
        let mut out = RoundOutcome {
            alarm,
            counts: RoundCounts {
                anomalous_rounds: u64::from(anomalous),
                alarms_raised: u64::from(alarm.raised),
                alarms_cleared: u64::from(alarm.cleared),
                suppressed_raises: u64::from(alarm.suppressed),
                ..RoundCounts::default()
            },
            ..RoundOutcome::default()
        };
        if !self.config.enabled {
            return Ok(out);
        }
        let scored: Vec<RuleRef> = round
            .fcm
            .rules()
            .iter()
            .zip(round.observed)
            .filter(|p| round.scorable && *p.1)
            .map(|p| *p.0)
            .collect();
        let scorable = !scored.is_empty();
        if scorable && scored.len() == verdict.solve.residual.len() {
            self.suspicion
                .observe(&scored, &verdict.solve.residual, anomalous);
            out.counts.suspicion_rounds = 1;
        }
        // While the alarm is up, cross-validate the top suspects by leaving
        // each one's equations out (factor downdates, no cold
        // refactorization). Exactly one consistent removal = the liar.
        if scorable && anomalous && self.alarm.state() == AlarmState::Alarmed {
            let candidates = self.ranked_in(scope, self.config.max_candidates);
            if !candidates.is_empty() {
                let threshold = round.detector.threshold();
                let solver =
                    LooSolver::build_without(round.fcm, round.counters, round.observed, threshold)?;
                let report = solver.sweep(&candidates)?;
                out.counts.loo_solves = report.outcomes.len() as u64;
                out.counts.loo_downdates = report.downdates as u64;
                if let Some(liar) = report.localized {
                    out.localized = Some(liar);
                    self.quarantined.insert(liar, round.region);
                    self.suspicion.clear(liar);
                    out.counts.liars_localized = 1;
                    out.counts.switch_quarantines = 1;
                    self.unresolved = false;
                } else if report.base_anomalous {
                    // No single removal explains the conflict: a real
                    // forwarding anomaly (possibly covered for), not a pure
                    // counter-fake.
                    out.counts.unresolved_byzantine = u64::from(!self.unresolved);
                    self.unresolved = true;
                }
            }
        }
        // On the raise round, probe whether the verdict survives silencing
        // the top suspects (k-resilience).
        if scorable && alarm.raised && self.config.resilience_k > 0 {
            let ranked = self.ranked_in(scope, usize::MAX);
            if !ranked.is_empty() {
                let report = k_resilient_verdict(
                    round.detector,
                    round.fcm,
                    round.counters,
                    round.observed,
                    &ranked,
                    self.config.resilience_k,
                )?;
                out.counts.resilience_probes = 1;
                out.counts.resilience_flips = u64::from(report.flips_at.is_some());
                out.resilience = Some(report);
            }
        }
        // Liveness: after a quiet streak, tentatively re-admit one
        // quarantined switch's rows and release it if the system stays
        // consistent (e.g. the switch confessed / was repaired). Only the
        // region that localized a switch decides its release: another
        // region's system may not show the lie at all.
        if !self.quarantined.is_empty() {
            self.quiet_streak = if anomalous { 0 } else { self.quiet_streak + 1 };
            if self.quiet_streak >= self.config.reprobe_after {
                if let Some(candidate) = self.next_probe(round.region, scope) {
                    self.quiet_streak = 0;
                    self.last_probed = Some(candidate);
                    if self.reprobe(round, candidate)? {
                        self.quarantined.remove(&candidate);
                        self.suspicion.clear(candidate);
                        out.counts.quarantine_releases = 1;
                        out.released = Some(candidate);
                    }
                }
            }
        }
        if alarm.cleared {
            self.unresolved = false;
        }
        Ok(out)
    }

    /// Up to `limit` suspects in `scope`, most suspicious first.
    fn ranked_in(&self, scope: Option<&BTreeSet<SwitchId>>, limit: usize) -> Vec<SwitchId> {
        let ranked = self.suspicion.ranked().into_iter().map(|(s, _)| s);
        ranked.filter(|s| in_scope(scope, s)).take(limit).collect()
    }

    /// The next quarantined switch localized on `region`'s rounds and in
    /// `scope` after the one probed last, wrapping around to the lowest id.
    fn next_probe(
        &self,
        region: Option<usize>,
        scope: Option<&BTreeSet<SwitchId>>,
    ) -> Option<SwitchId> {
        let after = self.last_probed.map_or(Bound::Unbounded, Bound::Excluded);
        self.quarantined
            .range((after, Bound::Unbounded))
            .chain(&self.quarantined)
            .find(|&(s, &home)| home == region && in_scope(scope, s))
            .map(|(&s, _)| s)
    }

    /// Whether the system stays consistent with `candidate`'s rows
    /// re-admitted as they were collected.
    fn reprobe(&self, round: &LiarRound<'_>, candidate: SwitchId) -> Result<bool, FocesError> {
        let probe: Vec<bool> = round
            .fcm
            .rules()
            .iter()
            .zip(round.observed.iter().zip(round.collected))
            .map(|(r, (&o, &c))| if r.switch == candidate { c } else { o })
            .collect();
        match round
            .detector
            .detect_without(round.fcm, round.counters, &probe)
        {
            Ok((v, _)) => Ok(!v.anomalous),
            Err(FocesError::EmptyFcm) => Ok(false),
            Err(e) => Err(e),
        }
    }
}

/// Whether `s` is in `scope` (`None` admits every switch).
fn in_scope(scope: Option<&BTreeSet<SwitchId>>, s: &SwitchId) -> bool {
    scope.is_none_or(|sc| sc.contains(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use foces_controlplane::{provision, uniform_flows, RuleGranularity};
    use foces_dataplane::{inject_counter_fake, LossModel};
    use foces_net::generators::fattree;

    /// Rules on `s` that are not the unique support of any flow column
    /// (such a row's lie is absorbed by the free flow volume and is
    /// undetectable by rank — Theorem 1's blind spot).
    fn detectable_fake_targets(fcm: &Fcm, s: SwitchId) -> Vec<RuleRef> {
        let h = fcm.sparse();
        let mut support = vec![0usize; h.cols()];
        for i in 0..h.rows() {
            for (j, _) in h.row_iter(i) {
                support[j] += 1;
            }
        }
        (0..h.rows())
            .filter(|&i| fcm.rules()[i].switch == s && h.row_iter(i).all(|(j, _)| support[j] > 1))
            .map(|i| fcm.rules()[i])
            .collect()
    }

    fn liar_setup() -> (Fcm, Vec<f64>, SwitchId, Vec<SwitchId>) {
        let topo = fattree(4);
        let all: Vec<SwitchId> = (0..topo.switch_count()).map(SwitchId).collect();
        let flows = uniform_flows(&topo, 240_000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerDestination).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        dep.replay_traffic(&mut LossModel::none());
        // A naive liar forges *all* of its (detectable) counters: lies
        // touching several destinations are what pin the ambiguity down to
        // a unique switch — a single faked rule is indistinguishable from
        // the destination-side edge lying about the same flows.
        let liar = all[all.len() - 1];
        for victim in detectable_fake_targets(&fcm, liar) {
            let truth = dep.dataplane.true_counter(victim.switch, victim.index);
            inject_counter_fake(&mut dep.dataplane, victim, truth * 2.0 + 3000.0).unwrap();
        }
        let counters = dep.dataplane.collect_counters();
        (fcm, counters, liar, all)
    }

    #[test]
    fn single_liar_is_localized() {
        let (fcm, counters, liar, all) = liar_setup();
        let report = cross_validate(&fcm, &counters, 4.5, &all).unwrap();
        assert!(report.base_anomalous, "the lie must trip the detector");
        assert_eq!(report.localized, Some(liar));
        assert!(!report.ambiguous);
        // The whole sweep spent exactly one cold factorization.
        assert_eq!(report.cold_factorizations, 1);
        assert!(report.downdates > 0, "removals must go through downdates");
    }

    #[test]
    fn honest_system_localizes_nothing() {
        let topo = fattree(4);
        let all: Vec<SwitchId> = (0..topo.switch_count()).map(SwitchId).collect();
        let flows = uniform_flows(&topo, 240_000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerDestination).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        dep.replay_traffic(&mut LossModel::none());
        let counters = dep.dataplane.collect_counters();
        let report = cross_validate(&fcm, &counters, 4.5, &all).unwrap();
        assert!(!report.base_anomalous);
        assert_eq!(report.localized, None);
    }

    #[test]
    fn suspicion_only_accumulates_on_anomalous_rounds() {
        let (fcm, counters, liar, _) = liar_setup();
        let out = crate::EquationSystem::default()
            .solve(&fcm, &counters)
            .unwrap();
        let mut tracker = SuspicionTracker::default();
        // Honest rounds: zero, forever.
        for _ in 0..10 {
            tracker.observe(fcm.rules(), &out.residual, false);
        }
        assert_eq!(tracker.max_score(), 0.0);
        // Anomalous rounds: the liar dominates the residual mass. Suspicion
        // keeps accruing while the alarm persists (one unit per round), so
        // a sustained lie crosses the implication threshold within a few
        // rounds even though the projector spreads part of the residual
        // onto honest neighbors.
        for _ in 0..5 {
            tracker.observe(fcm.rules(), &out.residual, true);
        }
        let ranked = tracker.ranked();
        assert_eq!(ranked[0].0, liar, "ranking: {ranked:?}");
        assert!(tracker.implicated().contains(&liar));
        // Decay pulls it back down on quiet rounds.
        for _ in 0..20 {
            tracker.observe(fcm.rules(), &out.residual, false);
        }
        assert_eq!(tracker.max_score(), 0.0);
    }

    #[test]
    fn quarantining_the_liar_clears_the_verdict() {
        let (fcm, counters, liar, _) = liar_setup();
        let observed = vec![true; fcm.rule_count()];
        let det = Detector::default();
        let report = k_resilient_verdict(&det, &fcm, &counters, &observed, &[liar], 1).unwrap();
        assert!(report.base_anomalous);
        assert!(!report.survives, "silencing the liar must flip the verdict");
        assert_eq!(report.flips_at, Some(1));
        assert!(!report.steps[0].anomalous);
    }

    #[test]
    fn honest_verdict_survives_quarantine_probes() {
        let topo = fattree(4);
        let flows = uniform_flows(&topo, 240_000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerDestination).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        dep.replay_traffic(&mut LossModel::none());
        let counters = dep.dataplane.collect_counters();
        let observed = vec![true; fcm.rule_count()];
        let ranked: Vec<SwitchId> = (0..3).map(SwitchId).collect();
        let report =
            k_resilient_verdict(&Detector::default(), &fcm, &counters, &observed, &ranked, 3)
                .unwrap();
        assert!(!report.base_anomalous);
        assert!(report.survives, "steps: {:?}", report.steps);
    }

    #[test]
    fn leave_out_unknown_switch_is_a_noop() {
        let (fcm, counters, _, _) = liar_setup();
        let mut solver = LooSolver::build(&fcm, &counters, 4.5).unwrap();
        let out = solver.leave_out(SwitchId(9999)).unwrap();
        assert_eq!(out.rows_removed, 0);
        assert_eq!(out.status, LooStatus::StillAnomalous);
        assert_eq!(solver.downdates(), 0);
    }

    /// Twelve rules on six switches (two rows each) carrying three flows,
    /// each flow counted on four switches: row `i` is rule `i % 2` of
    /// switch `i / 2`.
    fn two_row_switches() -> Fcm {
        let h = foces_linalg::DenseMatrix::from_rows(&[
            &[1., 0., 0.],
            &[0., 0., 1.],
            &[1., 0., 0.],
            &[0., 1., 0.],
            &[1., 0., 0.],
            &[0., 1., 0.],
            &[1., 0., 0.],
            &[0., 0., 1.],
            &[0., 1., 0.],
            &[0., 0., 1.],
            &[0., 1., 0.],
            &[0., 0., 1.],
        ])
        .unwrap();
        let one_per_row = crate::testkit::fcm_from_dense(&h);
        let rekey = |r: &RuleRef| RuleRef {
            switch: SwitchId(r.switch.0 / 2),
            index: r.switch.0 % 2,
        };
        let rules = one_per_row.rules().iter().map(rekey).collect();
        let flows = (0..one_per_row.flow_count())
            .map(|j| {
                let f = one_per_row.flow(j);
                foces_atpg::LogicalFlow {
                    rules: f.rules.iter().map(rekey).collect(),
                    path: f.rules.iter().map(|r| rekey(r).switch).collect(),
                    ..f
                }
            })
            .collect();
        Fcm::from_parts(rules, flows)
    }

    /// Honest counters for [`two_row_switches`], and the same with switch
    /// 3 over-reporting its first rule.
    fn two_row_counters(fcm: &Fcm) -> (Vec<f64>, Vec<f64>) {
        let honest = fcm.expected_counters(&[100.0, 200.0, 300.0]);
        let mut forged = honest.clone();
        forged[6] += 500.0;
        (honest, forged)
    }

    /// A core with the Byzantine layer on whose alarm raises on the first
    /// anomalous round.
    fn enabled() -> RoundCore {
        let hair_trigger = HysteresisConfig {
            window: 1,
            raise_k: 1,
            ..HysteresisConfig::default()
        };
        RoundCore::new(
            hair_trigger,
            ByzantineConfig {
                enabled: true,
                ..ByzantineConfig::default()
            },
        )
    }

    /// Feeds `lc` one full round of `counters`.
    fn full_round(
        lc: &mut RoundCore,
        fcm: &Fcm,
        counters: &[f64],
        scope: Option<&BTreeSet<SwitchId>>,
        region: Option<usize>,
    ) -> RoundOutcome {
        let detector = Detector::default();
        let verdict = detector.detect(fcm, counters).unwrap();
        let observed = vec![true; fcm.rule_count()];
        let round = LiarRound {
            detector: &detector,
            fcm,
            counters,
            observed: &observed,
            collected: &observed,
            scorable: true,
            verdict: Some(&verdict),
            churn: false,
            region,
        };
        lc.judge(&round, scope).unwrap()
    }

    #[test]
    fn the_alarm_steps_on_verdicts_only_and_tallies_without_the_layer() {
        let fcm = two_row_switches();
        let (_, forged) = two_row_counters(&fcm);
        let mut off = RoundCore::new(HysteresisConfig::default(), ByzantineConfig::default());
        let detector = Detector::default();
        let observed = vec![true; fcm.rule_count()];
        let blind = LiarRound {
            detector: &detector,
            fcm: &fcm,
            counters: &forged,
            observed: &observed,
            collected: &observed,
            scorable: false,
            verdict: None,
            churn: false,
            region: None,
        };
        // Default quorum: two anomalous verdicts raise. Blind rounds in
        // between neither count nor reset the window.
        let first = full_round(&mut off, &fcm, &forged, None, None);
        assert_eq!(off.state(), AlarmState::Suspected);
        assert_eq!(off.after_verdict(&blind).unwrap(), RoundOutcome::default());
        assert_eq!(off.state(), AlarmState::Suspected, "blind rounds freeze it");
        let second = full_round(&mut off, &fcm, &forged, None, None);
        assert!(second.alarm.raised);
        assert_eq!(off.state(), AlarmState::Alarmed);
        let tally = |c: RoundCounts| (c.anomalous_rounds, c.alarms_raised, c.suspicion_rounds);
        assert_eq!(tally(first.counts), (1, 0, 0));
        assert_eq!(tally(second.counts), (1, 1, 0), "the layer is off");
        assert!(off.suspicion().ranked().is_empty());
    }

    #[test]
    fn withhold_clears_exactly_the_quarantined_rows() {
        let fcm = two_row_switches();
        let mut lc = enabled();
        lc.quarantined.insert(SwitchId(3), None);
        let mut collected = vec![true; fcm.rule_count()];
        collected[0] = false;
        let observed = lc.withhold(fcm.rules(), &collected);
        let cleared: Vec<usize> = (0..observed.len()).filter(|&i| !observed[i]).collect();
        assert_eq!(cleared, vec![0, 6, 7], "row 0 was already unobserved");
        // A disabled layer withholds nothing, whatever it holds.
        let mut off = RoundCore::new(HysteresisConfig::default(), ByzantineConfig::default());
        off.quarantined.insert(SwitchId(3), None);
        let all = vec![true; fcm.rule_count()];
        assert!(off.withhold(fcm.rules(), &all).iter().all(|&o| o));
    }

    #[test]
    fn the_lifecycle_localizes_and_quarantines_the_liar() {
        let fcm = two_row_switches();
        let (_, forged) = two_row_counters(&fcm);
        let mut lc = enabled();
        let out = full_round(&mut lc, &fcm, &forged, None, Some(2));
        assert!(out.alarm.raised, "the forged round raises the alarm");
        assert_eq!(out.localized, Some(SwitchId(3)));
        assert_eq!(out.counts.liars_localized, 1);
        assert_eq!(out.counts.suspicion_rounds, 1);
        assert!(out.counts.loo_solves > 0);
        assert_eq!(out.counts.resilience_probes, 1, "raise round probes");
        assert_eq!(
            lc.quarantined().iter().collect::<Vec<_>>(),
            [(&SwitchId(3), &Some(2))],
            "homed on the region that localized it"
        );
        assert!(!lc.unresolved());
    }

    #[test]
    fn out_of_scope_suspects_are_never_candidates() {
        let fcm = two_row_switches();
        let (_, forged) = two_row_counters(&fcm);
        // The liar's shard neighbours: every switch but s3.
        let scope: BTreeSet<SwitchId> = [0, 1, 2, 4, 5].into_iter().map(SwitchId).collect();
        let mut lc = enabled();
        let out = full_round(&mut lc, &fcm, &forged, Some(&scope), None);
        let in_scope = lc
            .suspicion()
            .ranked()
            .iter()
            .filter(|(s, _)| scope.contains(s))
            .count();
        assert_eq!(out.counts.loo_solves, in_scope.min(4) as u64);
        assert_eq!(out.localized, None, "s3 was never cross-validated");
        assert!(lc.unresolved(), "no in-scope removal explains the lie");
        let resilience = out.resilience.expect("in-scope suspects exist");
        assert!(resilience.survives, "s3 was never silenced");
        let observed = vec![true; fcm.rule_count()];
        let silenced = [SwitchId(3)];
        let s3 = k_resilient_verdict(&Detector::default(), &fcm, &forged, &observed, &silenced, 1);
        assert_eq!(s3.unwrap().flips_at, Some(1), "silencing s3 would flip it");
        // On a raise round, a scope with no suspect in it runs neither pass.
        let nobody: BTreeSet<SwitchId> = [SwitchId(99)].into_iter().collect();
        let out = full_round(&mut enabled(), &fcm, &forged, Some(&nobody), None);
        assert!(out.alarm.raised);
        assert_eq!(out.counts.loo_solves, 0);
        assert_eq!(out.resilience, None);
    }

    #[test]
    fn out_of_scope_quarantine_is_never_reprobed_and_keeps_the_streak() {
        let fcm = two_row_switches();
        let (honest, _) = two_row_counters(&fcm);
        let mut lc = enabled();
        lc.quarantined.insert(SwitchId(3), None);
        let elsewhere: BTreeSet<SwitchId> = [SwitchId(0)].into_iter().collect();
        let reprobe_after = lc.config.reprobe_after;
        for _ in 0..reprobe_after + 2 {
            let out = full_round(&mut lc, &fcm, &honest, Some(&elsewhere), None);
            assert_eq!(out.released, None);
        }
        assert_eq!(lc.quiet_streak, reprobe_after + 2, "no probe, no reset");
        assert_eq!(lc.last_probed, None);
        // In scope, the clean switch is re-probed and released at once.
        let out = full_round(&mut lc, &fcm, &honest, None, None);
        assert_eq!(out.released, Some(SwitchId(3)));
        assert_eq!(out.counts.quarantine_releases, 1);
        assert_eq!(lc.quiet_streak, 0);
        assert!(lc.quarantined().is_empty());
    }

    #[test]
    fn only_the_localizing_region_reprobes() {
        let fcm = two_row_switches();
        let (honest, _) = two_row_counters(&fcm);
        let mut lc = enabled();
        lc.quarantined.insert(SwitchId(3), Some(1));
        let reprobe_after = lc.config.reprobe_after;
        // Region 0's quiet rounds count toward the streak but never probe
        // s3, so the due probe waits for region 1.
        for _ in 0..reprobe_after + 2 {
            let out = full_round(&mut lc, &fcm, &honest, None, Some(0));
            assert_eq!(out.released, None);
        }
        assert_eq!(lc.last_probed, None);
        let out = full_round(&mut lc, &fcm, &honest, None, Some(1));
        assert_eq!(out.released, Some(SwitchId(3)));
        assert!(lc.quarantined().is_empty());
    }

    #[test]
    fn reprobes_rotate_through_the_quarantined_set() {
        let fcm = two_row_switches();
        let (_, forged) = two_row_counters(&fcm);
        let mut lc = enabled();
        // s1 is honest, s3 keeps lying; s5 is honest too.
        lc.quarantined
            .extend([1, 3, 5].map(|s| (SwitchId(s), None)));
        lc.last_probed = Some(SwitchId(1));
        assert_eq!(lc.next_probe(None, None), Some(SwitchId(3)));
        let only_low: BTreeSet<SwitchId> = [SwitchId(1)].into_iter().collect();
        assert_eq!(
            lc.next_probe(None, Some(&only_low)),
            Some(SwitchId(1)),
            "wraps"
        );
        lc.last_probed = Some(SwitchId(5));
        assert_eq!(lc.next_probe(None, None), Some(SwitchId(1)), "wraps");
        assert_eq!(lc.next_probe(Some(0), None), None, "no switch homed there");
        // Withheld, s3's lie is invisible; probing it fails, and the next
        // period moves on to s5 instead of retrying s3.
        lc.last_probed = Some(SwitchId(1));
        let reprobe_after = lc.config.reprobe_after;
        let collected = vec![true; fcm.rule_count()];
        let observed = lc.withhold(fcm.rules(), &collected);
        let detector = Detector::default();
        let masked = fcm.mask_rows(&observed);
        let verdict = detector.detect_masked(&masked, &forged).unwrap();
        assert!(!verdict.anomalous);
        let mut released = Vec::new();
        for _ in 0..2 * reprobe_after {
            let out = lc
                .after_verdict(&LiarRound {
                    detector: &detector,
                    fcm: &fcm,
                    counters: &forged,
                    observed: &observed,
                    collected: &collected,
                    scorable: true,
                    verdict: Some(&verdict),
                    churn: false,
                    region: None,
                })
                .unwrap();
            released.extend(out.released);
        }
        assert_eq!(released, [SwitchId(5)]);
        assert!(lc.quarantined().contains_key(&SwitchId(3)));
    }
}
