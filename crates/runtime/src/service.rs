//! The service loop: collect → assemble → detect → alarm, every epoch.
//!
//! [`RuntimeService`] composes the scheduler (fault-tolerant collection),
//! the degraded pipeline (row-masked detection + oracle), the parallel
//! slice solver (localization evidence), and [`foces::Monitor`]-style
//! alarm hysteresis. One deliberate difference from the monitor: a
//! [`DetectionMode::Blind`] round *freezes* the alarm state machine —
//! silence is not evidence of health, so blind rounds neither raise nor
//! clear anything.

use crate::degraded::{DegradedPipeline, DetectionMode};
use crate::hysteresis::{AlarmMachine, AlarmTransition, HysteresisConfig};
use crate::metrics::{json_f64, json_str, EventLog, RuntimeMetrics};
use crate::parallel::detect_parallel;
use crate::scheduler::{EpochScheduler, PollPolicy};
use crate::transport::SimTransport;
use foces::{
    analyze_coverage, localize, AlarmState, BackendKind, ByzantineConfig, ColdReason,
    CoverageConfig, CoverageReport, Detector, Fcm, FcmDelta, FocesError, LiarLifecycle,
    LiarOutcome, LiarRound, ResilienceReport, SlicedFcm, SlicedVerdict, SolvePath,
    SuspicionTracker, SwitchSuspicion, Verdict, DEFAULT_THRESHOLD,
};
use foces_channel::{ChannelError, SwitchAgent, Transport};
use foces_controlplane::ControllerView;
use foces_dataplane::{DataPlane, RuleRef};
use foces_net::SwitchId;
use foces_verify::{verify_fcm, verify_with, VerifyOptions, VerifyReport};
use std::fmt;
use std::time::Instant;

/// Anything that can end a round with an error (channel protocol
/// violations or solver failures). Unresponsive switches are *not*
/// errors — they degrade the round instead.
#[derive(Debug)]
pub enum RuntimeError {
    /// Wire-level protocol violation on the control channel.
    Channel(ChannelError),
    /// Detection-side failure (length mismatch, solver breakdown).
    Detection(FocesError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Channel(e) => write!(f, "control channel: {e}"),
            RuntimeError::Detection(e) => write!(f, "detection: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<ChannelError> for RuntimeError {
    fn from(e: ChannelError) -> Self {
        RuntimeError::Channel(e)
    }
}

impl From<FocesError> for RuntimeError {
    fn from(e: FocesError) -> Self {
        RuntimeError::Detection(e)
    }
}

/// Tunables for [`RuntimeService`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Per-switch poll policy (deadline, retries, backoff).
    pub policy: PollPolicy,
    /// Anomaly-index threshold (paper default 4.5).
    pub threshold: f64,
    /// Anomalous rounds (within [`RuntimeConfig::alarm_window`]) before
    /// raising the alarm.
    pub raise_after: u32,
    /// Consecutive normal rounds before clearing a raised alarm.
    pub clear_after: u32,
    /// Sliding window of scored rounds the raise quorum is counted over.
    /// With `alarm_window == raise_after` (the defaults) this degenerates
    /// to the classic consecutive-streak hysteresis.
    pub alarm_window: u32,
    /// Scored rounds of alarm suppression armed by each churn round.
    pub churn_suppress: u32,
    /// Extra anomalous rounds required to raise while churn-suppressed.
    pub churn_penalty: u32,
    /// Cap on the detectability-oracle candidate sample.
    pub oracle_cap: usize,
    /// Threads for the full-round slice solve: `0` and `1` both solve
    /// inline on the epoch's thread; `n ≥ 2` runs `min(n, slices)` pool
    /// workers (see [`detect_parallel`]). Not the pool's own
    /// [`PoolConfig::workers`](crate::PoolConfig::workers), where `0`
    /// means one worker per task.
    pub workers: usize,
    /// Byzantine-resilience layer (suspicion, liar localization,
    /// quarantine); disabled by default.
    pub byzantine: ByzantineConfig,
    /// Solve backend for the full-round incremental solver: dense factor
    /// cache, sparse Cholesky/PCGLS engine, or size-based auto selection.
    pub backend: BackendKind,
}

impl RuntimeConfig {
    /// The hysteresis parameters as an [`HysteresisConfig`].
    pub fn hysteresis(&self) -> HysteresisConfig {
        HysteresisConfig {
            window: self.alarm_window,
            raise_k: self.raise_after,
            clear_after: self.clear_after,
            churn_suppress: self.churn_suppress,
            churn_penalty: self.churn_penalty,
        }
    }

    /// Worst-case number of epochs between a persistent anomaly first
    /// manifesting during a churn-reconciled epoch and the alarm raise:
    /// the churn-suppression window plus its penalty delay the counter,
    /// then `raise_after` anomalous epochs must accumulate, plus one
    /// epoch of slack because the reconciled epoch itself may score clean
    /// (the anomaly's rows can be masked by the update's journal).
    ///
    /// This is the completeness bound the interleaving oracles hold every
    /// schedule to: a dropper activating at epoch `u` must raise by
    /// `u + churn_raise_bound()`.
    pub fn churn_raise_bound(&self) -> u64 {
        u64::from(self.raise_after) + u64::from(self.churn_suppress + self.churn_penalty) + 1
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            policy: PollPolicy::default(),
            threshold: DEFAULT_THRESHOLD,
            raise_after: 2,
            clear_after: 2,
            alarm_window: 2,
            churn_suppress: 2,
            churn_penalty: 1,
            oracle_cap: 256,
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            byzantine: ByzantineConfig::default(),
            backend: BackendKind::default(),
        }
    }
}

/// Everything one epoch produced.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// The epoch number (0-based).
    pub epoch: u64,
    /// How much evidence the round had.
    pub mode: DetectionMode,
    /// The whole-network verdict (absent on blind rounds).
    pub verdict: Option<Verdict>,
    /// Per-switch sliced verdicts (full rounds only; solved in parallel).
    pub sliced: Option<SlicedVerdict>,
    /// Alarm state after this round.
    pub state: AlarmState,
    /// `true` exactly when this round raised the alarm.
    pub alarm_raised: bool,
    /// `true` exactly when this round cleared the alarm.
    pub alarm_cleared: bool,
    /// Whether this round witnessed a rule update (journal advanced past
    /// the FCM's build generation, or a reply stamp outran it).
    pub churn: bool,
    /// Localization suspects (full anomalous rounds only), strongest first.
    pub suspects: Vec<SwitchSuspicion>,
    /// Which solve path the whole-network detection took: warm (cached
    /// factor patched) or cold (full refactorization) on full rounds,
    /// `None` on masked, reconciled, and blind rounds.
    pub solve_path: Option<SolvePath>,
    /// Whether this round ended with a static re-verification of the view
    /// (it does exactly when the FCM was rebuilt).
    pub verified: bool,
    /// Outstanding findings from the most recent static verification pass
    /// (the pre-flight pass, or the re-check after the latest rebuild).
    pub static_violations: usize,
    /// Largest per-switch suspicion score after this round (0.0 when the
    /// Byzantine layer is disabled).
    pub suspicion_max: f64,
    /// Switches whose cumulative suspicion has crossed the implication
    /// threshold, most suspicious first.
    pub implicated: Vec<SwitchId>,
    /// The liar leave-one-out cross-validation localized this round (its
    /// counters are quarantined from the next epoch on).
    pub localized_liar: Option<SwitchId>,
    /// Switches whose counters are quarantined after this round, ascending.
    pub quarantined_switches: Vec<SwitchId>,
    /// A quarantine this round's clean re-probe lifted.
    pub quarantine_released: Option<SwitchId>,
    /// k-resilience probe outcome (alarm-raise epochs only).
    pub resilience: Option<ResilienceReport>,
    /// The alarm is up but no single switch's removal explains the
    /// inconsistency — a real forwarding anomaly (possibly covered for by
    /// forged counters), not a pure counter-fake.
    pub byz_unresolved: bool,
}

impl EpochReport {
    /// Whether this round's verdict was anomalous (blind rounds are not).
    pub fn anomalous(&self) -> bool {
        self.verdict.as_ref().map(|v| v.anomalous).unwrap_or(false)
    }
}

/// The continuous, fault-tolerant detection service.
pub struct RuntimeService {
    pipeline: DegradedPipeline,
    sliced: SlicedFcm,
    scheduler: EpochScheduler,
    config: RuntimeConfig,
    metrics: RuntimeMetrics,
    log: EventLog,
    alarm: AlarmMachine,
    /// The controller-view generation the current FCM was built from.
    fcm_generation: u64,
    epoch: u64,
    /// The most recent static verification report.
    verification: VerifyReport,
    /// Rules implicated by the verification's *critical* findings (loops,
    /// blackholes, FCM inconsistencies). While non-empty, every epoch is
    /// detected reconciled with these rows masked: traffic caught in a
    /// statically-broken region must surface as a `static_violations`
    /// report, not as a forwarding-anomaly alarm.
    static_touched: Vec<RuleRef>,
    /// Byzantine layer: suspicion, leave-one-out, quarantine, re-probe.
    lifecycle: LiarLifecycle,
    /// The most recent coverage analysis: the pre-flight pass at
    /// construction, refreshed after every FCM rebuild. `None` only when
    /// the FCM was empty or degenerate beyond analysis.
    coverage: Option<CoverageReport>,
}

/// Statically verifies `view` (and `fcm` against it), treating
/// journal-drained rules as expected shadowing, and accounts the pass in
/// `metrics`.
fn verify_closure(view: &ControllerView, fcm: &Fcm, metrics: &mut RuntimeMetrics) -> VerifyReport {
    let t = Instant::now();
    let mut report = verify_with(
        view,
        &VerifyOptions {
            // Rolling updates deliberately leave drained (fully shadowed)
            // rules behind; the journal names every one of them.
            expected_shadowed: view.touched_rules_since(0),
            // The service already holds the FCM — check it directly
            // instead of re-tracing the view's flows.
            check_fcm: false,
        },
    );
    report.findings.extend(verify_fcm(view, fcm));
    report.flows_checked = fcm.flow_count();
    report.elapsed_secs = t.elapsed().as_secs_f64();
    metrics.verify_passes += 1;
    metrics.static_violations += report.findings.len() as u64;
    metrics.verify_secs += report.elapsed_secs;
    report
}

/// Runs the static coverage analysis on `fcm` and accounts it in
/// `metrics`, logging each WARN finding to `log` when one is given.
/// Degenerate FCMs (empty) yield `None` instead of failing the service —
/// detection itself reports the emptiness on the first epoch.
fn coverage_closure(
    fcm: &Fcm,
    metrics: &mut RuntimeMetrics,
    log: Option<&mut EventLog>,
) -> Option<CoverageReport> {
    let report = analyze_coverage(fcm, &CoverageConfig::default()).ok()?;
    metrics.coverage_passes += 1;
    metrics.coverage_warnings += report.warn_count() as u64;
    if let Some(log) = log {
        for f in &report.findings {
            if f.severity.is_warn() {
                log.record(f.to_json());
            }
        }
    }
    Some(report)
}

impl RuntimeService {
    /// Builds a service for `view`, polling `agents` through `transport`.
    /// Runs the full-system detectability audit once up front.
    pub fn new(
        view: &ControllerView,
        agents: Vec<Box<dyn SwitchAgent>>,
        transport: Box<dyn Transport>,
        config: RuntimeConfig,
    ) -> Self {
        let fcm = Fcm::from_view(view);
        // Pre-flight gate: prove the configuration sound before trusting
        // counter equations built from it, and statically score how much
        // detection/localization coverage it actually provides.
        let mut metrics = RuntimeMetrics::default();
        let verification = verify_closure(view, &fcm, &mut metrics);
        let coverage = coverage_closure(&fcm, &mut metrics, None);
        let static_touched = verification.implicated_rules();
        let sliced = SlicedFcm::from_fcm(&fcm);
        let detector = Detector::with_threshold(config.threshold);
        let pipeline =
            DegradedPipeline::with_backend(view, fcm, detector, config.oracle_cap, config.backend);
        let scheduler = EpochScheduler::new(agents, transport, config.policy);
        RuntimeService {
            pipeline,
            sliced,
            scheduler,
            config,
            metrics,
            log: EventLog::in_memory(),
            alarm: AlarmMachine::new(config.hysteresis()),
            fcm_generation: view.generation(),
            epoch: 0,
            verification,
            static_touched,
            lifecycle: LiarLifecycle::new(config.byzantine),
            coverage,
        }
    }

    /// Convenience constructor: honest agents for every switch in the
    /// view, polled through the given [`SimTransport`].
    pub fn with_sim_transport(
        view: &ControllerView,
        transport: SimTransport,
        config: RuntimeConfig,
    ) -> Self {
        let agents: Vec<Box<dyn SwitchAgent>> = view
            .topology()
            .switches()
            .map(|s| Box::new(foces_channel::HonestAgent::new(s)) as Box<dyn SwitchAgent>)
            .collect();
        RuntimeService::new(view, agents, Box::new(transport), config)
    }

    /// Replaces the event log (e.g. with a file-backed one).
    pub fn set_event_log(&mut self, log: EventLog) {
        self.log = log;
    }

    /// Aggregate metrics so far.
    pub fn metrics(&self) -> &RuntimeMetrics {
        &self.metrics
    }

    /// The event log recorded so far.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Current alarm state.
    pub fn state(&self) -> AlarmState {
        self.alarm.state()
    }

    /// The controller-view generation the current FCM was built from.
    pub fn fcm_generation(&self) -> u64 {
        self.fcm_generation
    }

    /// Epochs completed.
    pub fn epochs(&self) -> u64 {
        self.epoch
    }

    /// The degraded-detection layer (FCM, oracle coverage, mask cache).
    pub fn pipeline(&self) -> &DegradedPipeline {
        &self.pipeline
    }

    /// The most recent static verification report: the pre-flight pass at
    /// construction, or the re-check after the latest FCM rebuild.
    pub fn verification(&self) -> &VerifyReport {
        &self.verification
    }

    /// The most recent coverage analysis (pre-flight, refreshed after
    /// every FCM rebuild); `None` if the FCM was empty.
    pub fn coverage(&self) -> Option<&CoverageReport> {
        self.coverage.as_ref()
    }

    /// Rules implicated by the verification's critical findings. While
    /// non-empty, every epoch is detected reconciled with these rows
    /// masked (see [`EpochReport::static_violations`]).
    pub fn static_touched(&self) -> &[RuleRef] {
        &self.static_touched
    }

    /// The Byzantine suspicion tracker (empty while the layer is off).
    pub fn suspicion(&self) -> &SuspicionTracker {
        self.lifecycle.suspicion()
    }

    /// Switches currently under counter quarantine, ascending.
    pub fn quarantined_switches(&self) -> Vec<SwitchId> {
        self.lifecycle.quarantined().iter().copied().collect()
    }

    /// Whether the service is in the unresolved-Byzantine state: the alarm
    /// is up, and leave-one-out cross-validation could not attribute the
    /// inconsistency to any single switch. The `foces` CLI exits with
    /// status 2 when a run ends in this state.
    pub fn byzantine_unresolved(&self) -> bool {
        self.lifecycle.unresolved()
    }

    /// Swaps in a new agent for its switch (compromise or restore a switch
    /// mid-run), returning the displaced agent — `None` if the switch is
    /// not polled by this service.
    pub fn replace_agent(&mut self, agent: Box<dyn SwitchAgent>) -> Option<Box<dyn SwitchAgent>> {
        self.scheduler.replace_agent(agent)
    }

    /// Runs one full epoch: sweep, assemble, detect (reconciling against
    /// the view's update journal when the epoch witnessed churn), alarm,
    /// log — and finally rebuild the FCM if the view moved past it.
    ///
    /// `view` must be the same controller view the service was built from
    /// (mid-run updates to it are exactly what the journal describes).
    ///
    /// # Errors
    ///
    /// [`RuntimeError`] on wire protocol violations or solver failures —
    /// never because switches were merely unresponsive.
    pub fn run_epoch(
        &mut self,
        dp: &DataPlane,
        view: &ControllerView,
    ) -> Result<EpochReport, RuntimeError> {
        let epoch = self.epoch;
        self.epoch += 1;

        // -- Collect ----------------------------------------------------
        let t0 = Instant::now();
        let collection = self.scheduler.poll_epoch(dp, epoch)?;
        self.metrics.collect_secs += t0.elapsed().as_secs_f64();
        self.metrics.epochs += 1;
        self.metrics.polls += collection.polls.len() as u64;
        self.metrics.sim_channel_ms += collection.elapsed_ms;
        for p in &collection.polls {
            self.metrics.retries += u64::from(p.retries());
            self.metrics.drops += u64::from(p.drops);
            self.metrics.stale_replies += u64::from(p.stale_replies);
            self.metrics.offline_polls += u64::from(p.offline);
            self.metrics.unresponsive += u64::from(!p.responsive());
        }

        // -- Assemble the counter vector in FCM row order ---------------
        let t1 = Instant::now();
        let (counters, collected_observed) = collection.assemble(self.pipeline.fcm().rules());
        // Quarantined switches' reports are withheld from detection.
        let mut observed = collected_observed.clone();
        self.lifecycle
            .withhold(self.pipeline.fcm().rules(), &mut observed);
        self.metrics.build_secs += t1.elapsed().as_secs_f64();

        // -- Two-phase read: did this epoch witness a rule update? -------
        let stale = collection.stale_switches(self.fcm_generation);
        self.metrics.stale_generation_replies += stale.len() as u64;
        let churn = view.generation() > self.fcm_generation || !stale.is_empty();

        // -- Detect ------------------------------------------------------
        // Statically-implicated rules force the reconciled path even on
        // quiet epochs: their counters are poisoned by configuration, not
        // by a compromised switch, and must not feed the anomaly index.
        let t2 = Instant::now();
        let (verdict, mode) = if churn || !self.static_touched.is_empty() {
            let mut touched = view.touched_rules_since(self.fcm_generation);
            touched.extend(self.static_touched.iter().copied());
            touched.sort_unstable();
            touched.dedup();
            self.pipeline
                .detect_reconciled(&counters, &observed, &touched, stale)?
        } else {
            self.pipeline.detect(&counters, &observed)?
        };
        let sliced = if matches!(mode, DetectionMode::Full) {
            Some(detect_parallel(
                &self.sliced,
                self.pipeline.detector(),
                &counters,
                self.config.workers,
            )?)
        } else {
            None
        };
        self.metrics.solve_secs += t2.elapsed().as_secs_f64();

        // -- Account the solve path (full rounds only) -------------------
        let solve_path = self.pipeline.last_solve_path();
        match solve_path {
            Some(SolvePath::Warm { rank_applied }) => {
                self.metrics.warm_solves += 1;
                self.metrics.factor_rank_applied += rank_applied as u64;
            }
            Some(SolvePath::Cold { reason }) => {
                self.metrics.cold_solves += 1;
                if !matches!(reason, ColdReason::NoCache) {
                    self.metrics.warm_fallbacks += 1;
                }
            }
            _ => {}
        }
        let cg_iterations = self.pipeline.last_cg_iterations();
        self.metrics.cg_iterations += cg_iterations;
        self.metrics.solve_backend = self.config.backend.code();
        self.metrics.peak_rss_bytes = crate::metrics::peak_rss_bytes();

        // -- Alarm hysteresis (blind rounds freeze the machine) ----------
        let anomalous = verdict.as_ref().map(|v| v.anomalous).unwrap_or(false);
        let transition = if mode.is_blind() {
            AlarmTransition::default()
        } else {
            self.alarm.observe(anomalous, churn)
        };
        let alarm_raised = transition.raised;
        let alarm_cleared = transition.cleared;
        self.metrics.suppressed_raises += u64::from(transition.suppressed);

        // -- Localize (full anomalous rounds) ----------------------------
        let suspects = match (&sliced, anomalous) {
            (Some(sv), true) => localize(sv),
            _ => Vec::new(),
        };

        // -- Byzantine resilience (opt-in) -------------------------------
        let byz = if self.lifecycle.enabled() {
            // Residuals from full and row-masked rounds attribute cleanly to
            // switches (row-masking preserves order); reconciled rounds mix
            // generations and blind rounds have nothing, so neither is scored.
            let scorable = matches!(mode, DetectionMode::Full | DetectionMode::Degraded { .. });
            let kept = self.pipeline.fcm().rules().iter().zip(&observed);
            let scored: Vec<RuleRef> = kept.filter(|p| scorable && *p.1).map(|p| *p.0).collect();
            let out = self.lifecycle.after_verdict(&LiarRound {
                detector: self.pipeline.detector(),
                fcm: self.pipeline.fcm(),
                counters: &counters,
                observed: &observed,
                collected: &collected_observed,
                scored: &scored,
                verdict: verdict.as_ref(),
                alarm: self.alarm.state(),
                raised: alarm_raised,
                cleared: alarm_cleared,
                scope: None,
            })?;
            self.metrics.add_liar_counts(&out.counts);
            out
        } else {
            LiarOutcome::default()
        };

        // -- Account + log -----------------------------------------------
        match &mode {
            DetectionMode::Full => self.metrics.full_rounds += 1,
            DetectionMode::Degraded { .. } => self.metrics.degraded_rounds += 1,
            DetectionMode::Reconciled { .. } => self.metrics.reconciled_rounds += 1,
            DetectionMode::Blind { .. } => self.metrics.blind_rounds += 1,
        }
        self.metrics.anomalous_rounds += u64::from(anomalous);
        self.metrics.alarms_raised += u64::from(alarm_raised);
        self.metrics.alarms_cleared += u64::from(alarm_cleared);

        let (missing_count, quarantined, coverage) = match &mode {
            DetectionMode::Full => (0usize, 0usize, self.pipeline.full_coverage()),
            DetectionMode::Degraded {
                missing, coverage, ..
            } => (missing.len(), 0, *coverage),
            DetectionMode::Reconciled {
                missing,
                quarantined_flows,
                coverage,
                ..
            } => (missing.len(), *quarantined_flows, *coverage),
            DetectionMode::Blind { missing } => (missing.len(), 0, 0.0),
        };
        self.metrics.quarantined_flows += quarantined as u64;

        // -- Refresh: adopt the view's new generation for the next epoch -
        // The churn epoch itself is scored on the OLD system (its counters
        // are mixed no matter what); from the next epoch on, counters and
        // FCM agree again. Every rebuild re-verifies the churn closure: a
        // journaled update that introduced a loop or blackhole surfaces
        // here as a static violation, never as a forwarding-anomaly alarm.
        let verified = view.generation() > self.fcm_generation;
        if verified {
            let fcm = Fcm::from_view(view);
            let delta =
                FcmDelta::from_journal(self.pipeline.fcm(), &fcm, view, self.fcm_generation);
            self.metrics.delta_rows +=
                (delta.rows_added + delta.rows_removed + delta.rows_retouched) as u64;
            self.metrics.delta_cols += delta.column_churn() as u64;
            self.verification = verify_closure(view, &fcm, &mut self.metrics);
            // Churn can erode coverage (e.g. a reroute concentrating rows
            // on one switch): re-score it the same epoch it happens. The
            // WARN lines are recorded after this epoch's own line so the
            // log stays one-epoch-per-line-then-findings.
            self.coverage = coverage_closure(&fcm, &mut self.metrics, None);
            self.static_touched = self.verification.implicated_rules();
            self.sliced = SlicedFcm::from_fcm(&fcm);
            // Retarget (not rebuild) the pipeline: the incremental
            // solver's cached factorization survives and the next full
            // round patches it with this delta instead of refactorizing.
            self.pipeline.retarget(view, fcm, self.config.oracle_cap);
            self.fcm_generation = view.generation();
            self.metrics.fcm_rebuilds += 1;
        }
        let static_violations = self.verification.findings.len();

        let ai = verdict
            .as_ref()
            .map(|v| v.anomaly_index)
            .unwrap_or(f64::NAN);
        let solve_path_json = solve_path
            .map(|p| json_str(&p.to_string()))
            .unwrap_or_else(|| "null".to_string());
        let suspicion_max = self.lifecycle.suspicion().max_score();
        let implicated = self.lifecycle.suspicion().implicated();
        let byz_unresolved = self.lifecycle.unresolved();
        let localized_json = byz
            .localized
            .map(|s| s.0.to_string())
            .unwrap_or_else(|| "null".to_string());
        self.log.record(format!(
            "{{\"epoch\":{epoch},\"mode\":{},\"missing\":{missing_count},\
             \"anomaly_index\":{},\"anomalous\":{anomalous},\"coverage\":{},\
             \"churn\":{churn},\"quarantined\":{quarantined},\
             \"solve_path\":{solve_path_json},\"solve_backend\":{},\
             \"cg_iterations\":{cg_iterations},\"peak_rss_bytes\":{},\
             \"suspicion_max\":{},\"implicated\":{},\"liars\":{},\
             \"localized\":{localized_json},\"byz_unresolved\":{byz_unresolved},\
             \"state\":{},\"alarm_raised\":{alarm_raised},\
             \"alarm_cleared\":{alarm_cleared},\"verified\":{verified},\
             \"static_violations\":{static_violations},\"sim_ms\":{}}}",
            json_str(mode.label()),
            json_f64(ai),
            json_f64(coverage),
            json_str(self.config.backend.name()),
            self.metrics.peak_rss_bytes,
            json_f64(suspicion_max),
            implicated.len(),
            self.lifecycle.quarantined().len(),
            json_str(&self.alarm.state().to_string()),
            json_f64(collection.elapsed_ms),
        ));
        if verified {
            if let Some(cov) = &self.coverage {
                for f in cov.findings.iter().filter(|f| f.severity.is_warn()) {
                    self.log.record(f.to_json());
                }
            }
        }

        Ok(EpochReport {
            epoch,
            mode,
            verdict,
            sliced,
            state: self.alarm.state(),
            alarm_raised,
            alarm_cleared,
            churn,
            suspects,
            solve_path,
            verified,
            static_violations,
            suspicion_max,
            implicated,
            localized_liar: byz.localized,
            quarantined_switches: self.quarantined_switches(),
            quarantine_released: byz.released,
            resilience: byz.resilience,
            byz_unresolved,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::FaultProfile;
    use foces_controlplane::{provision, uniform_flows, RuleGranularity};
    use foces_dataplane::LossModel;
    use foces_net::generators::ring;

    fn deployment() -> foces_controlplane::Deployment {
        let topo = ring(4);
        let flows = uniform_flows(&topo, 12_000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
        dep.replay_traffic(&mut LossModel::none());
        dep
    }

    #[test]
    fn healthy_epochs_stay_normal_and_full() {
        let dep = deployment();
        let transport = SimTransport::new(1, FaultProfile::default());
        let mut svc =
            RuntimeService::with_sim_transport(&dep.view, transport, RuntimeConfig::default());
        for _ in 0..3 {
            let r = svc.run_epoch(&dep.dataplane, &dep.view).unwrap();
            assert_eq!(r.mode, DetectionMode::Full);
            assert!(!r.anomalous());
            assert_eq!(r.state, AlarmState::Normal);
            assert!(r.sliced.is_some(), "full rounds run the parallel slices");
        }
        let m = svc.metrics();
        assert_eq!(m.epochs, 3);
        assert_eq!(m.full_rounds, 3);
        assert_eq!(m.degraded_rounds + m.blind_rounds, 0);
        assert_eq!(svc.log().lines().len(), 3);
        assert!(svc.log().lines()[0].contains("\"mode\":\"Full\""));
    }

    #[test]
    fn full_rounds_go_warm_after_the_first_solve() {
        let dep = deployment();
        let transport = SimTransport::new(1, FaultProfile::default());
        let mut svc =
            RuntimeService::with_sim_transport(&dep.view, transport, RuntimeConfig::default());
        let r0 = svc.run_epoch(&dep.dataplane, &dep.view).unwrap();
        assert!(
            matches!(r0.solve_path, Some(SolvePath::Cold { .. })),
            "first solve factors from scratch: {:?}",
            r0.solve_path
        );
        for _ in 0..2 {
            let r = svc.run_epoch(&dep.dataplane, &dep.view).unwrap();
            assert!(
                r.solve_path.is_some_and(|p| p.is_warm()),
                "steady state reuses the factor: {:?}",
                r.solve_path
            );
        }
        let m = svc.metrics();
        assert_eq!(m.cold_solves, 1);
        assert_eq!(m.warm_solves, 2);
        assert_eq!(m.warm_fallbacks, 0);
        assert_eq!(m.factor_rank_applied, 0, "no churn, pure reuse");
        assert!(svc.log().lines()[0].contains("\"solve_path\":\"cold(no-cache)\""));
        assert!(svc.log().lines()[1].contains("\"solve_path\":\"warm(rank=0)\""));
    }

    #[test]
    fn offline_switch_degrades_the_round() {
        let dep = deployment();
        let victim = dep.view.topology().switches().next().unwrap();
        let mut transport = SimTransport::new(2, FaultProfile::default());
        transport.set_profile(
            victim,
            FaultProfile {
                offline: vec![(0, 2)],
                ..FaultProfile::default()
            },
        );
        let mut svc =
            RuntimeService::with_sim_transport(&dep.view, transport, RuntimeConfig::default());
        let r0 = svc.run_epoch(&dep.dataplane, &dep.view).unwrap();
        assert!(r0.mode.is_degraded(), "epoch 0: victim offline");
        assert!(!r0.anomalous());
        let r2_mode = {
            svc.run_epoch(&dep.dataplane, &dep.view).unwrap(); // epoch 1, still offline
            svc.run_epoch(&dep.dataplane, &dep.view).unwrap().mode // epoch 2: back
        };
        assert_eq!(r2_mode, DetectionMode::Full);
        let m = svc.metrics();
        assert_eq!(m.degraded_rounds, 2);
        assert_eq!(m.offline_polls, 2);
        assert_eq!(m.unresponsive, 2);
    }

    #[test]
    fn churn_epoch_is_reconciled_then_the_fcm_is_rebuilt() {
        let topo = ring(4);
        let flows = uniform_flows(&topo, 12_000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
        let transport = SimTransport::new(1, FaultProfile::default());
        let mut svc =
            RuntimeService::with_sim_transport(&dep.view, transport, RuntimeConfig::default());
        assert_eq!(svc.fcm_generation(), 0);

        // Epoch 0: quiet, full.
        dep.dataplane.reset_counters();
        dep.replay_traffic(&mut LossModel::none());
        let r0 = svc.run_epoch(&dep.dataplane, &dep.view).unwrap();
        assert_eq!(r0.mode, DetectionMode::Full);
        assert!(!r0.churn);

        // Epoch 1: a reroute lands mid-epoch — half the traffic runs under
        // each generation, so the counters fit neither system alone.
        dep.dataplane.reset_counters();
        dep.replay_traffic_scaled(&mut LossModel::none(), 0.5);
        dep.reroute_flow_via(0, &[]).unwrap();
        dep.replay_traffic_scaled(&mut LossModel::none(), 0.5);
        let r1 = svc.run_epoch(&dep.dataplane, &dep.view).unwrap();
        assert!(r1.churn);
        assert!(r1.mode.is_reconciled(), "got {:?}", r1.mode);
        assert!(!r1.anomalous(), "reconciliation absorbs the churn");
        let m = svc.metrics();
        assert_eq!(m.reconciled_rounds, 1);
        assert!(m.stale_generation_replies > 0);
        assert!(m.quarantined_flows >= 1);
        assert_eq!(m.fcm_rebuilds, 1);
        assert_eq!(svc.fcm_generation(), 1);
        assert!(svc.log().lines()[1].contains("\"mode\":\"Reconciled\""));
        assert!(svc.log().lines()[1].contains("\"churn\":true"));

        // Epoch 2: the rebuilt FCM matches the new paths — full and quiet,
        // and solved warm: the cached factor survived the rebuild and was
        // patched with the reroute's delta instead of refactorized.
        dep.dataplane.reset_counters();
        dep.replay_traffic(&mut LossModel::none());
        let r2 = svc.run_epoch(&dep.dataplane, &dep.view).unwrap();
        assert_eq!(r2.mode, DetectionMode::Full);
        assert!(!r2.churn);
        assert!(!r2.anomalous());
        assert_eq!(r2.state, AlarmState::Normal);
        assert!(
            r2.solve_path.is_some_and(|p| p.is_warm()),
            "factor cache survives the rebuild: {:?}",
            r2.solve_path
        );
        let m = svc.metrics();
        assert!(
            m.delta_rows + m.delta_cols > 0,
            "the rebuild accounted its journal delta"
        );
        assert_eq!(m.warm_fallbacks, 0);
    }

    #[test]
    fn preflight_verification_is_clean_and_counted() {
        let dep = deployment();
        let transport = SimTransport::new(9, FaultProfile::default());
        let mut svc =
            RuntimeService::with_sim_transport(&dep.view, transport, RuntimeConfig::default());
        assert!(
            svc.verification().is_clean(),
            "{}",
            svc.verification().summary()
        );
        assert!(svc.static_touched().is_empty());
        assert_eq!(svc.metrics().verify_passes, 1);
        assert_eq!(svc.metrics().static_violations, 0);
        assert!(svc.metrics().verify_secs > 0.0);
        let r = svc.run_epoch(&dep.dataplane, &dep.view).unwrap();
        assert!(!r.verified, "no rebuild on a quiet epoch");
        assert_eq!(r.static_violations, 0);
        assert!(svc.log().lines()[0].contains("\"verified\":false"));
        assert!(svc.log().lines()[0].contains("\"static_violations\":0"));
    }

    #[test]
    fn preflight_coverage_runs_and_flags_the_ring() {
        // ring(4) is exactly the PR 7 absorption case: the pre-flight
        // analysis must come back with row-share WARNs and certificates.
        let dep = deployment();
        let transport = SimTransport::new(11, FaultProfile::default());
        let svc =
            RuntimeService::with_sim_transport(&dep.view, transport, RuntimeConfig::default());
        let cov = svc.coverage().expect("non-empty FCM analyzes");
        assert!(cov.warn_count() > 0, "ring(4) has absorption blind spots");
        assert!(
            cov.findings.iter().any(|f| f.certificate.is_some()),
            "WARNs carry certificates"
        );
        assert_eq!(svc.metrics().coverage_passes, 1);
        assert_eq!(svc.metrics().coverage_warnings, cov.warn_count() as u64);
    }

    #[test]
    fn rebuild_reanalyzes_coverage_and_logs_warns() {
        let topo = ring(4);
        let flows = uniform_flows(&topo, 12_000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
        let transport = SimTransport::new(1, FaultProfile::default());
        let mut svc =
            RuntimeService::with_sim_transport(&dep.view, transport, RuntimeConfig::default());
        assert_eq!(svc.metrics().coverage_passes, 1);
        dep.dataplane.reset_counters();
        dep.reroute_flow_via(0, &[]).unwrap();
        dep.replay_traffic(&mut LossModel::none());
        svc.run_epoch(&dep.dataplane, &dep.view).unwrap();
        assert_eq!(svc.metrics().coverage_passes, 2, "rebuild re-analyzed");
        assert!(
            svc.log()
                .lines()
                .iter()
                .any(|l| l.contains("\"event\":\"coverage-finding\"")),
            "rebuild-time WARNs reach the event log"
        );
    }

    #[test]
    fn blind_rounds_freeze_the_alarm_state() {
        let dep = deployment();
        let transport = SimTransport::new(
            3,
            FaultProfile {
                offline: vec![(0, 1)], // every switch offline in epoch 0
                ..FaultProfile::default()
            },
        );
        let mut svc =
            RuntimeService::with_sim_transport(&dep.view, transport, RuntimeConfig::default());
        let r = svc.run_epoch(&dep.dataplane, &dep.view).unwrap();
        assert!(r.mode.is_blind());
        assert!(r.verdict.is_none());
        assert_eq!(r.state, AlarmState::Normal);
        assert_eq!(svc.metrics().blind_rounds, 1);
        // The next epoch everyone is back.
        let r1 = svc.run_epoch(&dep.dataplane, &dep.view).unwrap();
        assert_eq!(r1.mode, DetectionMode::Full);
    }
}
