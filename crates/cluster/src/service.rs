//! The cluster coordinator: one warm solver per shard, a work-stealing
//! pool per epoch, shard-level fault isolation, and a network-wide verdict
//! with a per-shard detectability report.

use crate::ClusterMetrics;
use foces::{
    analyze_cluster_coverage, BackendKind, CoverageConfig, CoverageReport, Detector, Fcm,
    FocesError, IncrementalSolver, RankBudget, ShardedFcm, SolvePath, SuspicionConfig,
    SuspicionTracker, Verdict, DEFAULT_THRESHOLD,
};
use foces_net::{partition, Partition, PartitionSpec, Topology};
use foces_runtime::metrics::{json_f64, json_str};
use foces_runtime::pool::{run_tasks, PoolConfig, TaskOutcome, TaskRun};
use foces_runtime::{AlarmMachine, AlarmTransition, EventLog, HysteresisConfig, PoolStats};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

/// An injected worker fault, for the CLI's fault drills and the test
/// suites: the next epochs' worker for that shard misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFault {
    /// The shard's worker panics mid-solve (a killed worker).
    Panic,
    /// The shard's worker stalls for the given duration before solving —
    /// long stalls turn into deadline misses.
    Stall(Duration),
}

/// Why a shard was excluded from this epoch's union verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum DegradeReason {
    /// The worker panicked; the panic message is preserved.
    Panic(String),
    /// The solve finished but blew the per-shard deadline.
    DeadlineMiss {
        /// Wall-clock the solve actually took.
        elapsed_ms: f64,
    },
    /// The shard's least-squares solve failed.
    SolveError(String),
}

impl DegradeReason {
    /// Short machine-readable label for logs.
    pub fn label(&self) -> &'static str {
        match self {
            DegradeReason::Panic(_) => "panic",
            DegradeReason::DeadlineMiss { .. } => "deadline-miss",
            DegradeReason::SolveError(_) => "solve-error",
        }
    }
}

/// Health of one shard in one epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardHealth {
    /// Solved cleanly within its deadline; its verdict joins the union.
    Healthy,
    /// Excluded from the union this epoch.
    Degraded(DegradeReason),
}

impl ShardHealth {
    /// `true` for [`ShardHealth::Healthy`].
    pub fn is_healthy(&self) -> bool {
        matches!(self, ShardHealth::Healthy)
    }
}

/// Per-shard record of one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Region index in the cluster's partition.
    pub region: usize,
    /// Health this epoch.
    pub health: ShardHealth,
    /// The shard verdict (present for healthy shards and deadline misses,
    /// absent after a panic or solver error).
    pub verdict: Option<Verdict>,
    /// Which solve path the shard's warm solver took.
    pub solve_path: Option<SolvePath>,
    /// Wall-clock inside the shard solve.
    pub elapsed_ms: f64,
    /// Pool worker that ran the shard.
    pub worker: usize,
    /// `true` when the shard was stolen off another worker's deque.
    pub stolen: bool,
    /// Deque depth where the shard task was seeded.
    pub queue_depth: usize,
}

/// How much of the network the healthy shards still see — the row-mask
/// machinery's answer to "what can a degraded cluster still detect?".
#[derive(Debug, Clone, PartialEq)]
pub struct DetectabilityReport {
    /// Regions degraded this epoch, ascending.
    pub degraded_regions: Vec<usize>,
    /// Fraction of shard-covered FCM rows still observed by healthy
    /// shards (1.0 when nothing is degraded).
    pub row_coverage: f64,
    /// Fraction of flows still constrained by at least one healthy shard.
    pub flow_coverage: f64,
    /// Boundary flows with at least one degraded holder — still checked,
    /// but with less redundancy.
    pub boundary_at_risk: usize,
}

impl DetectabilityReport {
    fn full() -> Self {
        DetectabilityReport {
            degraded_regions: Vec::new(),
            row_coverage: 1.0,
            flow_coverage: 1.0,
            boundary_at_risk: 0,
        }
    }
}

/// Everything one [`ClusterService::run_epoch`] call produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterEpochReport {
    /// Epoch counter (0-based).
    pub epoch: u64,
    /// Union verdict over the healthy shards.
    pub anomalous: bool,
    /// Largest anomaly index among healthy shards.
    pub max_anomaly_index: f64,
    /// Per-shard records, ascending region.
    pub shards: Vec<ShardReport>,
    /// The blind-spot quantification for this epoch.
    pub detectability: DetectabilityReport,
    /// Pool statistics for this epoch.
    pub pool: PoolStats,
    /// What the hysteresis machine did with this epoch.
    pub alarm: AlarmTransition,
    /// Alarm state after this epoch.
    pub alarm_state: foces::AlarmState,
    /// Highest per-switch suspicion score after this epoch's residual
    /// attribution (0.0 on an honest network).
    pub suspicion_max: f64,
}

impl ClusterEpochReport {
    /// Regions flagged anomalous by healthy shards.
    pub fn flagged_regions(&self) -> Vec<usize> {
        self.shards
            .iter()
            .filter(|s| s.health.is_healthy())
            .filter(|s| s.verdict.as_ref().is_some_and(|v| v.anomalous))
            .map(|s| s.region)
            .collect()
    }
}

/// Cluster tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// How to cut the topology into shards.
    pub spec: PartitionSpec,
    /// Detection threshold (paper default 4.5).
    pub threshold: f64,
    /// Pool workers; `0` sizes the pool to the shard count (capped at 16).
    pub workers: usize,
    /// Per-worker deque capacity (backpressure bound).
    pub queue_capacity: usize,
    /// Per-shard solve deadline; `None` disables deadline degradation.
    pub shard_deadline: Option<Duration>,
    /// Alarm hysteresis configuration.
    pub hysteresis: HysteresisConfig,
    /// Solve backend for every solve a round makes: the per-shard warm
    /// solvers and the degraded and reconciled shard rounds. The default
    /// sparse engine solves on the factor memoized on each shard's (or
    /// masked) FCM; `Dense` forms and factors a dense Gram per call.
    pub backend: BackendKind,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            spec: PartitionSpec::EdgeCut { k: 4 },
            threshold: DEFAULT_THRESHOLD,
            workers: 0,
            queue_capacity: 4,
            shard_deadline: None,
            hysteresis: HysteresisConfig::default(),
            backend: BackendKind::default(),
        }
    }
}

/// The sharded detection coordinator (see crate docs).
pub struct ClusterService {
    config: ClusterConfig,
    detector: Detector,
    partition: Partition,
    fcm: Fcm,
    sharded: ShardedFcm,
    /// One warm solver per shard, locked only by the worker solving that
    /// shard; each solves on its own sub-FCM's memoized factor.
    solvers: Vec<Mutex<IncrementalSolver>>,
    faults: HashMap<usize, ShardFault>,
    /// Per-switch residual attribution merged across healthy shards — the
    /// cluster-level half of the Byzantine localization pipeline (the
    /// runtime/ingest services own the quarantine step; the cluster
    /// surfaces the ranking for its operator).
    suspicion: SuspicionTracker,
    alarm: AlarmMachine,
    metrics: ClusterMetrics,
    log: EventLog,
    epoch: u64,
    /// Pre-flight coverage analysis over the FCM *and* the partition
    /// (per-shard rank checks); `None` when the FCM was empty.
    coverage: Option<CoverageReport>,
}

impl ClusterService {
    /// Partitions `topo` per `config.spec`, builds the sharded FCM from
    /// `fcm`, verifies boundary-flow reconciliation, and allocates one
    /// warm solver per shard.
    ///
    /// # Errors
    ///
    /// [`FocesError::ShardReconciliation`] if the sharded FCM fails its
    /// structural self-check (cannot happen for FCMs built from a
    /// controller view; guards hand-assembled ones).
    pub fn new(fcm: Fcm, topo: &Topology, config: ClusterConfig) -> Result<Self, FocesError> {
        let part = partition(topo, config.spec);
        let sharded = ShardedFcm::from_fcm(&fcm, &part);
        sharded.reconcile_boundaries(&fcm, &part)?;
        // Pre-flight gate: score detection/localization coverage over both
        // the whole system and every shard's sub-system, so thin shards
        // (below full rank despite boundary replication) surface before
        // the first epoch rather than as runtime solve errors. The shards
        // the rank probe factors are factored once, up front, and their
        // first epoch reads that factor; a shard over the limit is still
        // factored by its first epoch.
        let coverage_config = CoverageConfig::default();
        sharded.memoize_factors(config.backend, coverage_config.basis_limit);
        let coverage = analyze_cluster_coverage(&fcm, &sharded, &coverage_config).ok();
        let mut metrics = ClusterMetrics::new();
        if let Some(cov) = &coverage {
            metrics.coverage_warnings = cov.warn_count() as u64;
        }
        let solvers = (0..sharded.shard_count())
            .map(|_| {
                Mutex::new(IncrementalSolver::with_backend(
                    RankBudget::default(),
                    config.backend,
                ))
            })
            .collect();
        Ok(ClusterService {
            detector: Detector::with_threshold(config.threshold).with_backend(config.backend),
            alarm: AlarmMachine::new(config.hysteresis),
            partition: part,
            fcm,
            sharded,
            solvers,
            faults: HashMap::new(),
            suspicion: SuspicionTracker::new(SuspicionConfig::default()),
            metrics,
            log: EventLog::in_memory(),
            config,
            epoch: 0,
            coverage,
        })
    }

    /// Replaces the in-memory event log (e.g. with a file-backed one).
    pub fn with_log(mut self, log: EventLog) -> Self {
        self.log = log;
        self
    }

    /// The partition in use.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The sharded FCM in use.
    pub fn sharded(&self) -> &ShardedFcm {
        &self.sharded
    }

    /// Cumulative metrics.
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// The pre-flight coverage analysis (whole system + per-shard rank);
    /// `None` if the FCM was empty.
    pub fn coverage(&self) -> Option<&CoverageReport> {
        self.coverage.as_ref()
    }

    /// JSONL epoch lines recorded so far (when the log is in-memory).
    pub fn log_lines(&self) -> &[String] {
        self.log.lines()
    }

    /// Current alarm state.
    pub fn alarm_state(&self) -> foces::AlarmState {
        self.alarm.state()
    }

    /// The per-switch suspicion ranking accumulated so far.
    pub fn suspicion(&self) -> &SuspicionTracker {
        &self.suspicion
    }

    /// Injects a standing worker fault for `region`, starting next epoch.
    /// Panics and stalls only touch that shard; everything else keeps
    /// solving.
    pub fn inject_fault(&mut self, region: usize, fault: ShardFault) {
        self.faults.insert(region, fault);
    }

    /// Clears an injected fault (the shard's worker "restarts"): the
    /// shard's solver forgets its last basis, so the first solve after
    /// recovery reports cold. The factor stays memoized on the sub-FCM.
    pub fn clear_fault(&mut self, region: usize) {
        if self.faults.remove(&region).is_some() {
            if let Some(idx) = self
                .sharded
                .shard_views()
                .iter()
                .position(|v| v.region == region)
            {
                self.solvers[idx].lock().expect("solver lock").invalidate();
            }
        }
    }

    /// Runs one detection epoch over a full counter snapshot: fan the
    /// shards across the pool, union the healthy verdicts, quantify the
    /// degraded blind spot, feed the alarm machine, and log a JSONL line.
    ///
    /// # Errors
    ///
    /// [`FocesError::CounterLengthMismatch`] if `counters` does not match
    /// the parent FCM. Shard-level failures (panic, deadline, solver) are
    /// *not* errors — they degrade the shard and are reported.
    pub fn run_epoch(&mut self, counters: &[f64]) -> Result<ClusterEpochReport, FocesError> {
        if counters.len() != self.sharded.parent_rule_count() {
            return Err(FocesError::CounterLengthMismatch {
                got: counters.len(),
                expected: self.sharded.parent_rule_count(),
            });
        }
        let views = self.sharded.shard_views();
        let detector = &self.detector;
        let solvers = &self.solvers;
        let faults = self.faults.clone();
        type ShardResult = Result<(Verdict, SolvePath), FocesError>;
        let tasks: Vec<Box<dyn FnOnce() -> ShardResult + Send + '_>> = views
            .iter()
            .enumerate()
            .map(|(i, view)| {
                let view = *view;
                let fault = faults.get(&view.region).copied();
                let f: Box<dyn FnOnce() -> ShardResult + Send + '_> = Box::new(move || {
                    match fault {
                        Some(ShardFault::Panic) => {
                            panic!("injected worker fault: region {}", view.region)
                        }
                        Some(ShardFault::Stall(d)) => std::thread::sleep(d),
                        None => {}
                    }
                    let mut solver = solvers[i].lock().expect("shard solver lock");
                    view.detect_warm(detector, counters, &mut solver)
                });
                f
            })
            .collect();
        let (runs, pool_stats) = run_tasks(
            tasks,
            PoolConfig {
                workers: self.config.workers,
                queue_capacity: self.config.queue_capacity,
                deadline: self.config.shard_deadline,
            },
        );

        let regions: Vec<usize> = views.iter().map(|v| v.region).collect();
        drop(views);
        let mut shards = Vec::with_capacity(runs.len());
        let mut anomalous = false;
        let mut max_ai: f64 = 0.0;
        for (region, run) in regions.into_iter().zip(runs) {
            let report = self.shard_report(region, run);
            if report.health.is_healthy() {
                if let Some(v) = &report.verdict {
                    anomalous |= v.anomalous;
                    max_ai = max_ai.max(v.anomaly_index);
                }
            }
            shards.push(report);
        }

        // Residual attribution: every healthy shard's solve already carries
        // a per-row residual aligned with its sub-FCM, so the suspicion
        // merge costs one pass over rows the epoch computed anyway.
        {
            let views = self.sharded.shard_views();
            let mut fed = false;
            for report in &shards {
                if !report.health.is_healthy() {
                    continue;
                }
                let Some(v) = &report.verdict else { continue };
                let Some(view) = views.iter().find(|w| w.region == report.region) else {
                    continue;
                };
                if view.sub_fcm.rule_count() == v.solve.residual.len() {
                    self.suspicion
                        .observe(view.sub_fcm.rules(), &v.solve.residual, v.anomalous);
                    fed = true;
                }
            }
            if fed {
                self.metrics.suspicion_epochs += 1;
            }
        }

        let detectability = self.detectability(&shards);
        let alarm = self.alarm.observe(anomalous, false);

        self.metrics.epochs += 1;
        self.metrics.shard_solves += shards.len() as u64;
        self.metrics.steals += pool_stats.steals as u64;
        self.metrics.backpressure_stalls += pool_stats.backpressure_stalls as u64;
        self.metrics.max_queue_depth = self
            .metrics
            .max_queue_depth
            .max(pool_stats.max_queue_depth as u64);
        if anomalous {
            self.metrics.anomalous_epochs += 1;
        }
        if alarm.raised {
            self.metrics.alarms_raised += 1;
        }
        if alarm.cleared {
            self.metrics.alarms_cleared += 1;
        }
        self.metrics.worst_row_coverage = self
            .metrics
            .worst_row_coverage
            .min(detectability.row_coverage);

        let report = ClusterEpochReport {
            epoch: self.epoch,
            anomalous,
            max_anomaly_index: max_ai,
            shards,
            detectability,
            pool: pool_stats,
            alarm,
            alarm_state: self.alarm.state(),
            suspicion_max: self.suspicion.max_score(),
        };
        self.log_epoch(&report);
        self.epoch += 1;
        Ok(report)
    }

    /// Folds one pool run into a shard report, updating fault counters.
    fn shard_report(
        &mut self,
        region: usize,
        run: TaskRun<Result<(Verdict, SolvePath), FocesError>>,
    ) -> ShardReport {
        let (health, verdict, solve_path) = match run.outcome {
            TaskOutcome::Panicked { message } => {
                self.metrics.shard_panics += 1;
                (
                    ShardHealth::Degraded(DegradeReason::Panic(message)),
                    None,
                    None,
                )
            }
            TaskOutcome::Done(Err(e)) => {
                self.metrics.solve_errors += 1;
                (
                    ShardHealth::Degraded(DegradeReason::SolveError(e.to_string())),
                    None,
                    None,
                )
            }
            TaskOutcome::Done(Ok((verdict, path))) => {
                if path.is_warm() {
                    self.metrics.warm_solves += 1;
                } else {
                    self.metrics.cold_solves += 1;
                }
                if run.deadline_missed {
                    self.metrics.deadline_misses += 1;
                    (
                        ShardHealth::Degraded(DegradeReason::DeadlineMiss {
                            elapsed_ms: run.elapsed_ms,
                        }),
                        Some(verdict),
                        Some(path),
                    )
                } else {
                    (ShardHealth::Healthy, Some(verdict), Some(path))
                }
            }
        };
        if !health.is_healthy() {
            self.metrics.degraded_shard_epochs += 1;
        }
        ShardReport {
            region,
            health,
            verdict,
            solve_path,
            elapsed_ms: run.elapsed_ms,
            worker: run.worker,
            stolen: run.stolen,
            queue_depth: run.seed_depth,
        }
    }

    /// Quantifies this epoch's blind spot: rows seen only by degraded
    /// shards are unobserved, and the surviving rows and flows (those with
    /// an observed row, [`Fcm::flows_blinded`]) become the coverage
    /// fractions.
    fn detectability(&self, shards: &[ShardReport]) -> DetectabilityReport {
        let degraded: Vec<usize> = shards
            .iter()
            .filter(|s| !s.health.is_healthy())
            .map(|s| s.region)
            .collect();
        if degraded.is_empty() {
            return DetectabilityReport::full();
        }
        let views = self.sharded.shard_views();
        // Rows some shard holds, and rows a healthy shard holds.
        let mut any = vec![false; self.fcm.rule_count()];
        let mut healthy_rows = any.clone();
        for view in &views {
            for &r in view.parent_rows {
                any[r] = true;
                healthy_rows[r] |= !degraded.contains(&view.region);
            }
        }
        let share = |part: usize, of: usize| {
            if of == 0 {
                1.0
            } else {
                part as f64 / of as f64
            }
        };
        let count = |v: &[bool]| v.iter().filter(|&&b| b).count();
        let row_coverage = share(count(&healthy_rows), count(&any));
        let flow_count = self.fcm.flow_count();
        let blinded = share(self.fcm.flows_blinded(&healthy_rows), flow_count);
        let flow_coverage = if flow_count == 0 { 1.0 } else { 1.0 - blinded };
        let boundary_at_risk = self
            .sharded
            .boundary_flows()
            .iter()
            .filter(|&&j| {
                views.iter().any(|v| {
                    degraded.contains(&v.region) && v.parent_columns.binary_search(&j).is_ok()
                })
            })
            .count();
        DetectabilityReport {
            degraded_regions: degraded,
            row_coverage,
            flow_coverage,
            boundary_at_risk,
        }
    }

    /// Emits the JSONL epoch line: epoch-level verdict/alarm/coverage plus
    /// one object per shard with solve path, queue depth, steal flag and
    /// degraded reason.
    fn log_epoch(&mut self, r: &ClusterEpochReport) {
        use std::fmt::Write as _;
        let mut line = String::with_capacity(256);
        let _ = write!(
            line,
            "{{\"epoch\":{},\"mode\":\"cluster\",\"anomalous\":{},\"max_ai\":{},\"alarm\":{},\
             \"raised\":{},\"cleared\":{},\"suspicion_max\":{},\"degraded\":{},\
             \"row_coverage\":{},\
             \"flow_coverage\":{},\"boundary_at_risk\":{},\"steals\":{},\"max_queue_depth\":{},\
             \"backpressure_stalls\":{},\"shards\":[",
            r.epoch,
            r.anomalous,
            json_f64(r.max_anomaly_index),
            json_str(&format!("{:?}", r.alarm_state)),
            r.alarm.raised,
            r.alarm.cleared,
            json_f64(r.suspicion_max),
            r.detectability.degraded_regions.len(),
            json_f64(r.detectability.row_coverage),
            json_f64(r.detectability.flow_coverage),
            r.detectability.boundary_at_risk,
            r.pool.steals,
            r.pool.max_queue_depth,
            r.pool.backpressure_stalls,
        );
        for (i, s) in r.shards.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let path = s
                .solve_path
                .map(|p| p.to_string())
                .unwrap_or_else(|| "none".to_string());
            let reason = match &s.health {
                ShardHealth::Healthy => "null".to_string(),
                ShardHealth::Degraded(reason) => json_str(reason.label()),
            };
            let ai = s
                .verdict
                .as_ref()
                .map(|v| v.anomaly_index)
                .unwrap_or(f64::NAN);
            let _ = write!(
                line,
                "{{\"region\":{},\"healthy\":{},\"reason\":{},\"path\":{},\"ai\":{},\
                 \"ms\":{},\"worker\":{},\"stolen\":{},\"queue_depth\":{}}}",
                s.region,
                s.health.is_healthy(),
                reason,
                json_str(&path),
                json_f64(ai),
                json_f64(s.elapsed_ms),
                s.worker,
                s.stolen,
                s.queue_depth,
            );
        }
        line.push_str("]}");
        self.log.record(line);
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

    fn testbed(k: usize) -> (ClusterService, foces_controlplane::Deployment) {
        let topo = bcube(1, 4);
        let flows = uniform_flows(&topo, 240_000.0);
        let dep = provision(topo, &flows, RuleGranularity::PerDestination).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        let config = ClusterConfig {
            spec: PartitionSpec::EdgeCut { k },
            ..ClusterConfig::default()
        };
        let svc = ClusterService::new(fcm, dep.view.topology(), config).unwrap();
        (svc, dep)
    }

    fn counters(dep: &mut foces_controlplane::Deployment) -> Vec<f64> {
        dep.dataplane.reset_counters();
        dep.replay_traffic(&mut LossModel::none());
        dep.dataplane.collect_counters()
    }

    #[test]
    fn preflight_coverage_scores_every_shard() {
        let (svc, _dep) = testbed(4);
        let cov = svc.coverage().expect("non-empty FCM analyzes");
        assert_eq!(
            cov.shards.len(),
            svc.sharded().shard_count(),
            "every shard gets a rank check"
        );
        assert_eq!(
            svc.metrics().coverage_warnings,
            cov.warn_count() as u64,
            "the metric mirrors the report"
        );
    }

    #[test]
    fn healthy_epochs_stay_quiet_and_go_warm() {
        let (mut svc, mut dep) = testbed(4);
        for epoch in 0..3 {
            let y = counters(&mut dep);
            let r = svc.run_epoch(&y).unwrap();
            assert!(!r.anomalous, "epoch {epoch}");
            assert!(r.shards.iter().all(|s| s.health.is_healthy()));
            assert_eq!(r.detectability.row_coverage, 1.0);
            if epoch > 0 {
                for s in &r.shards {
                    assert!(
                        s.solve_path.is_some_and(|p| p.is_warm()),
                        "epoch {epoch} region {}: {:?}",
                        s.region,
                        s.solve_path
                    );
                }
            }
        }
        assert_eq!(svc.metrics().epochs, 3);
        assert_eq!(svc.metrics().degraded_shard_epochs, 0);
        assert_eq!(svc.log_lines().len(), 3);
    }

    #[test]
    fn anomaly_is_flagged_and_raises_after_hysteresis() {
        let (mut svc, mut dep) = testbed(4);
        // Two clean epochs, then a standing anomaly.
        for _ in 0..2 {
            let y = counters(&mut dep);
            assert!(!svc.run_epoch(&y).unwrap().anomalous);
        }
        let mut rng = StdRng::seed_from_u64(5);
        inject_random_anomaly(
            &mut dep.dataplane,
            AnomalyKind::PathDeviation,
            &mut rng,
            &[],
        )
        .unwrap();
        let mut raised = false;
        for _ in 0..4 {
            let y = counters(&mut dep);
            let r = svc.run_epoch(&y).unwrap();
            raised |= r.alarm.raised;
        }
        assert!(raised, "a standing anomaly must raise within the window");
        assert!(svc.metrics().anomalous_epochs >= 2);
    }

    #[test]
    fn honest_epochs_accumulate_no_suspicion() {
        let (mut svc, mut dep) = testbed(4);
        for _ in 0..4 {
            let y = counters(&mut dep);
            let r = svc.run_epoch(&y).unwrap();
            assert_eq!(r.suspicion_max, 0.0);
        }
        assert_eq!(svc.suspicion().max_score(), 0.0);
        assert_eq!(svc.metrics().suspicion_epochs, 4);
        let last = svc.log_lines().last().unwrap();
        assert!(last.contains("\"suspicion_max\":0"), "{last}");
    }

    #[test]
    fn standing_anomaly_builds_a_suspicion_ranking() {
        let (mut svc, mut dep) = testbed(4);
        let y = counters(&mut dep);
        svc.run_epoch(&y).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        inject_random_anomaly(
            &mut dep.dataplane,
            AnomalyKind::PathDeviation,
            &mut rng,
            &[],
        )
        .unwrap();
        let mut last_max = 0.0;
        for _ in 0..3 {
            let y = counters(&mut dep);
            last_max = svc.run_epoch(&y).unwrap().suspicion_max;
        }
        assert!(
            last_max > 0.0,
            "anomalous residuals must attribute suspicion to some switch"
        );
        assert!(!svc.suspicion().ranked().is_empty());
    }

    #[test]
    fn blinded_flows_match_the_masked_reference_with_each_shard_degraded() {
        for g in [
            RuleGranularity::PerDestination,
            RuleGranularity::PerFlowPair,
        ] {
            let topo = fattree(4);
            let flows = uniform_flows(&topo, 240_000.0);
            let mut dep = provision(topo, &flows, g).unwrap();
            let fcm = Fcm::from_view(&dep.view);
            let config = ClusterConfig {
                spec: PartitionSpec::EdgeCut { k: 4 },
                ..ClusterConfig::default()
            };
            let mut svc = ClusterService::new(fcm.clone(), dep.view.topology(), config).unwrap();
            let mut blinded = 0;
            for region in 0..svc.sharded().shard_count() {
                svc.inject_fault(region, ShardFault::Panic);
                let r = svc.run_epoch(&counters(&mut dep)).unwrap();
                svc.clear_fault(region);
                assert_eq!(r.detectability.degraded_regions, vec![region]);
                let mut healthy = vec![false; fcm.rule_count()];
                for view in svc.sharded().shard_views() {
                    for &row in view.parent_rows.iter().filter(|_| view.region != region) {
                        healthy[row] = true;
                    }
                }
                let dropped = fcm.mask_rows(&healthy).dropped_flows();
                let want = 1.0 - dropped as f64 / fcm.flow_count() as f64;
                assert_eq!(r.detectability.flow_coverage, want, "{g:?} region {region}");
                blinded += dropped;
            }
            if g == RuleGranularity::PerFlowPair {
                assert!(blinded > 0, "some degraded shard blinds a flow");
            }
        }
    }

    #[test]
    fn panicked_shard_degrades_only_itself() {
        let (mut svc, mut dep) = testbed(4);
        let y = counters(&mut dep);
        svc.run_epoch(&y).unwrap();
        svc.inject_fault(1, ShardFault::Panic);
        let y = counters(&mut dep);
        let r = svc.run_epoch(&y).unwrap();
        let degraded: Vec<usize> = r
            .shards
            .iter()
            .filter(|s| !s.health.is_healthy())
            .map(|s| s.region)
            .collect();
        assert_eq!(degraded, vec![1]);
        let bad = r.shards.iter().find(|s| s.region == 1).unwrap();
        match &bad.health {
            ShardHealth::Degraded(DegradeReason::Panic(msg)) => {
                assert!(msg.contains("injected worker fault"), "{msg}");
            }
            other => panic!("expected panic degradation, got {other:?}"),
        }
        assert!(r.detectability.row_coverage < 1.0);
        assert!(r.detectability.row_coverage > 0.5);
        assert_eq!(r.detectability.degraded_regions, vec![1]);
        // Healthy shards kept their warm path.
        for s in r.shards.iter().filter(|s| s.health.is_healthy()) {
            assert!(s.solve_path.is_some_and(|p| p.is_warm()));
        }
        assert_eq!(svc.metrics().shard_panics, 1);
        // The epoch line records the fault.
        let last = svc.log_lines().last().unwrap();
        assert!(last.contains("\"reason\":\"panic\""), "{last}");
    }

    #[test]
    fn stalled_shard_misses_deadline_and_recovers_cold() {
        let (mut svc, mut dep) = {
            let topo = bcube(1, 4);
            let flows = uniform_flows(&topo, 240_000.0);
            let dep = provision(topo, &flows, RuleGranularity::PerDestination).unwrap();
            let fcm = Fcm::from_view(&dep.view);
            let config = ClusterConfig {
                spec: PartitionSpec::EdgeCut { k: 4 },
                shard_deadline: Some(Duration::from_millis(40)),
                ..ClusterConfig::default()
            };
            (
                ClusterService::new(fcm, dep.view.topology(), config).unwrap(),
                dep,
            )
        };
        let y = counters(&mut dep);
        svc.run_epoch(&y).unwrap();
        svc.inject_fault(2, ShardFault::Stall(Duration::from_millis(120)));
        let y = counters(&mut dep);
        let r = svc.run_epoch(&y).unwrap();
        let bad = r.shards.iter().find(|s| s.region == 2).unwrap();
        assert!(
            matches!(
                bad.health,
                ShardHealth::Degraded(DegradeReason::DeadlineMiss { .. })
            ),
            "{:?}",
            bad.health
        );
        assert_eq!(svc.metrics().deadline_misses, 1);
        // Recovery resets the solver's label: first solve after restart is
        // reported cold.
        svc.clear_fault(2);
        let y = counters(&mut dep);
        let r = svc.run_epoch(&y).unwrap();
        let healed = r.shards.iter().find(|s| s.region == 2).unwrap();
        assert!(healed.health.is_healthy());
        assert!(
            healed.solve_path.is_some_and(|p| !p.is_warm()),
            "restarted worker must report cold: {:?}",
            healed.solve_path
        );
    }

    #[test]
    fn counter_length_is_validated() {
        let (mut svc, _) = testbed(2);
        let err = svc.run_epoch(&[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, FocesError::CounterLengthMismatch { .. }));
    }

    #[test]
    fn epoch_lines_carry_per_shard_pool_metrics() {
        let (mut svc, mut dep) = testbed(4);
        let y = counters(&mut dep);
        svc.run_epoch(&y).unwrap();
        let line = svc.log_lines()[0].clone();
        for key in [
            "\"mode\":\"cluster\"",
            "\"shards\":[",
            "\"path\":",
            "\"queue_depth\":",
            "\"worker\":",
            "\"stolen\":",
            "\"row_coverage\":1",
            "\"steals\":",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }
}
