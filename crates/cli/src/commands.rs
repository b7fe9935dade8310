//! CLI command implementations. Each command is a pure function from
//! parsed arguments to a report string, so the test suite can drive them
//! without process spawning.

use crate::args::{self, ArgError, Args, Verb};
use foces::{
    analyze_cluster_coverage, analyze_coverage, audit_deviations, harden, localize, AlarmState,
    CoverageConfig, CoverageReport, Detector, Fcm, Monitor, MonitorConfig, ShardedFcm, SlicedFcm,
};
use foces_channel::{FakeStrategy, FaultProfile};
use foces_controlplane::scenario::Scenario;
use foces_controlplane::Deployment;
use foces_dataplane::{inject_random_anomaly, AnomalyKind, CollectionNoise, LossModel};
use foces_ingest::{CadenceConfig, LinkSpec, StreamAction, StreamConfig, StreamDriver};
use foces_runtime::{
    ByzantineConfig, DetectionMode, EventLog, FaultScenario, RuntimeConfig, ScenarioDriver,
};
use foces_sched::{run_interleave, InterleaveConfig, ScheduleSet};
use foces_verify::{verify_view, Finding, FindingKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// A command error rendered to stderr by `main`.
pub type CmdError = Box<dyn std::error::Error>;

/// A command's rendered report plus the process exit code `main` should
/// propagate. `0` is a clean run; `foces run` exits `2` when the service
/// ends with an unresolved alarm, `foces audit` exits `3` when static
/// verification finds rule-table violations, `foces interleave` exits `2`
/// when any enumerated schedule violates a soundness oracle, and
/// `--coverage-strict` (or `foces coverage --strict`) exits `4` when the
/// pre-flight coverage analyzer has WARN findings, so scripts and CI can
/// gate on each.
#[derive(Debug)]
pub struct CmdOutput {
    /// Human-readable report for stdout.
    pub report: String,
    /// Process exit code (0 = clean).
    pub exit_code: i32,
}

impl CmdOutput {
    fn new(report: String, exit_code: i32) -> Self {
        CmdOutput { report, exit_code }
    }

    fn clean(report: String) -> Self {
        Self::new(report, 0)
    }
}

/// The per-switch channel fault profile that `run` and `stream` both model.
const CHANNEL: &str = "latency=MS jitter=MS drop=P reorder=P attempt-timeout-ms=MS max-attempts=N";
/// The Byzantine liar drill of `run` and `stream`; `TIME` is an epoch under
/// `run` and simulated milliseconds under `stream`.
const LIAR_DRILL: &str = "liars=N fake-at=TIME confess-at=TIME \
    fake-strategy=naive|scale|replay|path|coverup fake-magnitude=L liar-seed=N";
/// What the three detection drivers share: the solve backend, the JSONL
/// epoch log and the coverage pre-flight gate.
const DRIVER: &str = "backend=dense|sparse|auto log=FILE.jsonl coverage-strict";

/// Every `foces` verb: the one declaration its flags are parsed, rejected
/// and documented from. A verb's code reads only the flags listed here.
#[rustfmt::skip]
pub const VERBS: &[Verb] = &[
    Verb { name: "topo", positionals: "<scenario>", flags: &[], needs: &[], conflicts: &[],
        about: "topology & FCM statistics" },
    Verb { name: "detect", positionals: "<scenario>",
        flags: &["loss=P modify=K seed=N threshold=T sliced"], needs: &[], conflicts: &[],
        about: "one detection round after K random path deviations; --sliced adds the \
                per-switch slice verdict and the top suspects" },
    Verb { name: "monitor", positionals: "<scenario>",
        flags: &["rounds=N attack-at=R repair-at=R loss=P seed=N"], needs: &[], conflicts: &[],
        about: "rounds of detection with alarm hysteresis around one attack/repair cycle" },
    Verb { name: "run", positionals: "<scenario>",
        flags: &["epochs=N loss=P seed=N threshold=T", CHANNEL,
            "offline=S offline-from=E offline-to=E attack-at=E repair-at=E churn=PERIOD \
             churn-seed=N alarm-window=N churn-suppress=N churn-penalty=N \
             poll-deadline-ms=MS workers=N oracle-cap=N", LIAR_DRILL, DRIVER],
        needs: &[("offline-from", "offline"), ("offline-to", "offline"),
            ("repair-at", "attack-at"), ("confess-at", "fake-at"), ("fake-at", "liars"),
            ("fake-strategy", "liars"), ("fake-magnitude", "liars")], conflicts: &[],
        about: "fault-tolerant online detection over an unreliable channel; --workers N \
                sets the slice-solve threads (0 or 1 inline, else a pool of min(N, slices)); \
                exits 2 on an unresolved (Byzantine) alarm" },
    Verb { name: "stream", positionals: "<scenario>",
        flags: &["duration-ms=MS regions=K poll-ms=MS adaptive poll-max-ms=MS \
             link-delay=MS bandwidth=BPM queue-capacity=N slow-region=R slow-ms=MS \
             settle-ms=MS", CHANNEL,
            "attack-at=MS repair-at=MS churn-at=MS seed=N churn-seed=N anomaly-seed=N",
            LIAR_DRILL, DRIVER],
        needs: &[("poll-max-ms", "adaptive"), ("slow-ms", "slow-region"),
            ("fake-at", "liars"), ("confess-at", "liars"), ("fake-strategy", "liars"),
            ("fake-magnitude", "liars")], conflicts: &[],
        about: "event-driven ingestion over per-link channel models with adaptive polling; \
                each shard detects once its counters are complete; exits 2 on an \
                unresolved (Byzantine) alarm" },
    Verb { name: "cluster", positionals: "<scenario>",
        flags: &["epochs=N shards=K partition=per-switch|edge-cut shard-deadline-ms=MS \
             loss=P seed=N threshold=T attack-at=E repair-at=E kill-shard=R kill-at=E \
             heal-at=E workers=N queue-capacity=N", DRIVER],
        needs: &[("kill-at", "kill-shard"), ("heal-at", "kill-shard"),
            ("repair-at", "attack-at")], conflicts: &[],
        about: "sharded detection: region shards on a work-stealing pool with per-shard \
                warm solvers and fault isolation; exits 2 on an unresolved alarm" },
    Verb { name: "redteam", positionals: "[scenario]",
        flags: &["epochs=N fake-at=E liars-max=K strategies=naive,scale,replay,path,coverup \
             magnitudes=L1,L2,... threshold=T seed=N liar-seed=N out=FILE.json"],
        needs: &[], conflicts: &[],
        about: "adversarial sweep (strategy x liar count x magnitude): detection latency, \
                localization precision/recall and evasion cost, into BENCH_redteam.json" },
    Verb { name: "scale", positionals: "",
        flags: &["full out=FILE.json seed=N threshold=T ceiling=K flows-max=N"],
        needs: &[("ceiling", "full")], conflicts: &[],
        about: "sparse-engine scaling sweep into BENCH_scale.json: FatTree(8) dense-vs-sparse \
                parity and cold speedup, FatTree(12) sparse-only with the dense refusal \
                asserted, --full adds FatTree(K); exits 2 on a failed assertion" },
    Verb { name: "interleave", positionals: "<scenario>",
        flags: &["updates=N segments=K schedules=N seed=S uniform update-at=E \
             epochs-after=N shards=K threshold=T no-dropper no-fanout json"],
        needs: &[("seed", "schedules")],
        conflicts: &[("shards", "no-fanout"), ("uniform", "schedules")],
        about: "schedule enumeration: N concurrent reroutes whose per-switch commits race \
                collection and the shard fan-out, all DPOR-pruned schedules or a seeded \
                --schedules sample; exits 2 on an oracle violation, shrunk to a minimal one" },
    Verb { name: "audit", positionals: "<scenario>", flags: &["cap=N json"],
        needs: &[], conflicts: &[],
        about: "static rule-table verification (loops, blackholes, shadowed rules, FCM \
                consistency, stale rules) and blind spots; exits 3 on violations" },
    Verb { name: "coverage", positionals: "<scenario>", flags: &["shards=K json strict"],
        needs: &[], conflicts: &[],
        about: "static detectability & localization coverage, no epochs run: absorption \
                WARNs with certificates, leave-one-out classes, degradation margin, shard \
                rank; --strict exits 4 on a WARN (run/cluster/stream: --coverage-strict)" },
    Verb { name: "harden", positionals: "<scenario>", flags: &["budget=N cap=N"],
        needs: &[], conflicts: &[],
        about: "close blind spots with extra rules" },
    Verb { name: "scenario", positionals: "[fattree|bcube|dcell|stanford|linear|ring]",
        flags: &[], needs: &[], conflicts: &[], about: "print a template scenario" },
    Verb { name: "help", positionals: "[verb]", flags: &[], needs: &[], conflicts: &[],
        about: "this text, or one verb's entry" },
];

/// Parses a command line against [`VERBS`] without running anything: the
/// parse step of [`dispatch`], exposed so tests can check a command line.
pub fn parse(raw: &[String]) -> Result<Args, ArgError> {
    args::parse(VERBS, raw)
}

fn load(args: &Args) -> Result<(Scenario, Deployment), CmdError> {
    let path = args.positional(0).ok_or("missing scenario file argument")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let scenario = Scenario::parse(&text)?;
    let dep = scenario.provision()?;
    Ok((scenario, dep))
}

/// Opens the `--log FILE.jsonl` epoch log of a run/cluster/stream driver.
fn event_log(args: &Args) -> Result<Option<EventLog>, String> {
    let open = |path| {
        EventLog::to_file(std::path::Path::new(path))
            .map_err(|e| format!("cannot open {path}: {e}"))
    };
    args.opt("log").map(open).transpose()
}

/// Renders the `--coverage-strict` refusal (exit `4`) when the flag is
/// given and the pre-flight coverage analysis of a run/cluster/stream
/// service carries WARN findings; `None` means the run may proceed.
fn coverage_refusal(
    args: &Args,
    coverage: Option<&CoverageReport>,
    what: &str,
) -> Option<CmdOutput> {
    let cov = coverage.filter(|_| args.flag("coverage-strict"))?;
    if cov.is_clean() {
        return None;
    }
    let mut out = String::new();
    let _ = writeln!(out, "{}", cov.summary());
    for f in cov.findings.iter().filter(|f| f.severity.is_warn()) {
        let _ = writeln!(out, "  WARN {}", f.detail);
        if let Some(cert) = &f.certificate {
            let _ = writeln!(out, "    certificate: {cert}");
        }
    }
    let _ = writeln!(
        out,
        "exit 4: --coverage-strict refused the {what}: {} pre-flight coverage WARN finding(s)",
        cov.warn_count()
    );
    Some(CmdOutput::new(out, 4))
}

/// Writes the `byzantine:` summary line of `run` and `stream`, whose two
/// metrics types carry the same liar-lifecycle counters.
macro_rules! write_byzantine {
    ($out:expr, $m:expr) => {
        writeln!(
            $out,
            "byzantine: {} localized, {} quarantined, {} released, {} unresolved rounds; \
             loo: {} solves via {} downdates",
            $m.liars_localized,
            $m.switch_quarantines,
            $m.quarantine_releases,
            $m.unresolved_byzantine,
            $m.loo_solves,
            $m.loo_downdates
        )
    };
}

/// A driver's epilogue: exit `0` when it ends `Normal` with no unresolved
/// Byzantine alarm, otherwise an `exit 2: <what> ended with …` line.
fn alarm_exit(mut out: String, what: &str, state: AlarmState, byzantine: bool) -> CmdOutput {
    if state == AlarmState::Normal && !byzantine {
        return CmdOutput::new(out, 0);
    }
    let kind = if byzantine {
        "Byzantine alarm"
    } else {
        "alarm"
    };
    let _ = writeln!(out, "exit 2: {what} ended with an unresolved {kind}");
    CmdOutput::new(out, 2)
}

/// Renders switches as `s1, s4, …`.
fn switch_list(ids: impl Iterator<Item = foces_net::SwitchId>) -> String {
    ids.map(|s| format!("s{}", s.0))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Replays one collection interval and returns counters (loss + default
/// collection noise when `loss > 0`, exact otherwise).
fn one_round(dep: &mut Deployment, loss: f64, seed: u64) -> Vec<f64> {
    dep.dataplane.reset_counters();
    let mut lm = if loss > 0.0 {
        LossModel::sampled(loss, seed)
    } else {
        LossModel::none()
    };
    dep.replay_traffic(&mut lm);
    if loss > 0.0 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        dep.dataplane
            .collect_counters_realistic(&CollectionNoise::default(), &mut rng)
    } else {
        dep.dataplane.collect_counters()
    }
}

/// `foces topo <scenario>`.
pub fn topo(args: &Args) -> Result<String, CmdError> {
    let (scenario, dep) = load(args)?;
    let topo = scenario.topology();
    let fcm = Fcm::from_view(&dep.view);
    let sliced = SlicedFcm::from_fcm(&fcm);
    let mut out = String::new();
    writeln!(out, "switches:      {}", topo.switch_count())?;
    writeln!(out, "hosts:         {}", topo.host_count())?;
    writeln!(out, "links:         {}", topo.link_count())?;
    writeln!(out, "flows:         {}", dep.flows.len())?;
    writeln!(out, "rules:         {}", dep.view.rule_count())?;
    writeln!(out, "granularity:   {:?}", dep.granularity)?;
    writeln!(out, "fcm:           {fcm}")?;
    writeln!(
        out,
        "fcm columns:   {} distinct of {}",
        fcm.unique_column_basis().len(),
        fcm.flow_count()
    )?;
    writeln!(out, "slices:        {}", sliced.slice_count())?;
    Ok(out)
}

/// `foces detect <scenario> ...`.
pub fn detect(args: &Args) -> Result<String, CmdError> {
    let (_, mut dep) = load(args)?;
    let loss: f64 = args.num("loss", 0.0)?;
    let modify: usize = args.num("modify", 0)?;
    let seed: u64 = args.num("seed", 1)?;
    let threshold: f64 = args.num("threshold", foces::DEFAULT_THRESHOLD)?;
    let fcm = Fcm::from_view(&dep.view);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::new();
    for _ in 0..modify {
        if let Some(a) = inject_random_anomaly(
            &mut dep.dataplane,
            AnomalyKind::PathDeviation,
            &mut rng,
            &[],
        ) {
            writeln!(
                out,
                "injected: {} rewritten {} -> {}",
                a.rule, a.original_action, a.modified_action
            )?;
        }
    }
    let counters = one_round(&mut dep, loss, seed);
    let detector = Detector::with_threshold(threshold);
    let verdict = detector.detect(&fcm, &counters)?;
    writeln!(out, "verdict: {verdict}")?;
    if let Some(worst) = verdict.worst_rule {
        writeln!(out, "largest residual at rule {worst}")?;
    }
    if args.flag("sliced") {
        let sliced = SlicedFcm::from_fcm(&fcm);
        let sv = sliced.detect(&detector, &counters)?;
        writeln!(out, "sliced:  {sv}")?;
        for s in localize(&sv).iter().take(3) {
            writeln!(out, "  suspect {s}")?;
        }
    }
    Ok(out)
}

/// `foces monitor <scenario> ...`.
pub fn monitor(args: &Args) -> Result<String, CmdError> {
    let (_, mut dep) = load(args)?;
    let rounds: u64 = args.num("rounds", 24)?;
    let attack_at: u64 = args.num("attack-at", rounds / 3)?;
    let repair_at: u64 = args.num("repair-at", 2 * rounds / 3)?;
    let loss: f64 = args.num("loss", 0.02)?;
    let seed: u64 = args.num("seed", 7)?;
    let fcm = Fcm::from_view(&dep.view);
    let mut mon = Monitor::new(fcm, MonitorConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut applied = None;
    let mut out = String::new();
    for round in 0..rounds {
        if round == attack_at {
            applied = inject_random_anomaly(
                &mut dep.dataplane,
                AnomalyKind::PathDeviation,
                &mut rng,
                &[],
            );
            if let Some(a) = &applied {
                writeln!(out, "round {round:>3}: [attack on s{}]", a.rule.switch.0)?;
            }
        }
        if round == repair_at {
            if let Some(a) = applied.take() {
                a.revert(&mut dep.dataplane)?;
                writeln!(out, "round {round:>3}: [repaired]")?;
            }
        }
        let counters = one_round(&mut dep, loss, seed.wrapping_add(round));
        let report = mon.ingest(&counters)?;
        if report.alarm_raised {
            writeln!(
                out,
                "round {round:>3}: ALARM (AI {:.2}) suspects: {}",
                report.verdict.anomaly_index.min(1e6),
                switch_list(report.suspects.iter().take(3).map(|s| s.switch))
            )?;
        } else if report.alarm_cleared {
            writeln!(out, "round {round:>3}: alarm cleared")?;
        }
    }
    writeln!(out, "final state: {}", mon.state())?;
    if mon.state() != AlarmState::Normal {
        writeln!(out, "warning: network still suspicious at end of run")?;
    }
    Ok(out)
}

/// `foces run <scenario> ...` — the fault-tolerant online service.
pub fn run_service(args: &Args) -> Result<CmdOutput, CmdError> {
    let (_, dep) = load(args)?;
    let epochs: u64 = args.num("epochs", 30)?;
    let seed: u64 = args.num("seed", 7)?;
    let churn: u64 = args.num("churn", 0)?;
    let liars: usize = args.num("liars", 0)?;
    let fake_strategy: FakeStrategy = args.num("fake-strategy", FakeStrategy::Naive)?;
    let fake_magnitude: f64 = args.num("fake-magnitude", 1.0)?;
    let scenario = FaultScenario {
        epochs,
        loss: args.num("loss", 0.02)?,
        drop_prob: args.num("drop", 0.0)?,
        latency_ms: args.num("latency", 5.0)?,
        jitter_ms: args.num("jitter", 0.0)?,
        reorder_prob: args.num("reorder", 0.0)?,
        offline: match args.maybe("offline")? {
            Some(s) => Some((
                foces_net::SwitchId(s),
                args.num("offline-from", 0)?,
                args.num("offline-to", epochs)?,
            )),
            None => None,
        },
        anomaly_window: match args.maybe("attack-at")? {
            Some(at) => Some((at, args.num("repair-at", epochs)?)),
            None => None,
        },
        anomaly_kind: AnomalyKind::PathDeviation,
        seed,
        anomaly_seed: seed,
        churn_period: (churn > 0).then_some(churn),
        churn_seed: args.num("churn-seed", 7)?,
        liars,
        fake_strategy,
        fake_window: match args.maybe("fake-at")? {
            Some(at) => Some((at, args.num("confess-at", epochs)?)),
            None => None,
        },
        fake_magnitude,
        liar_seed: args.num("liar-seed", 11)?,
    };
    let mut config = RuntimeConfig {
        threshold: args.num("threshold", foces::DEFAULT_THRESHOLD)?,
        oracle_cap: args.num("oracle-cap", 256)?,
        byzantine: ByzantineConfig {
            enabled: liars > 0,
            ..ByzantineConfig::default()
        },
        ..RuntimeConfig::default()
    };
    config.backend = args.num("backend", config.backend)?;
    config.alarm_window = args.num("alarm-window", config.alarm_window)?;
    config.churn_suppress = args.num("churn-suppress", config.churn_suppress)?;
    config.churn_penalty = args.num("churn-penalty", config.churn_penalty)?;
    config.policy.deadline_ms = args.num("poll-deadline-ms", config.policy.deadline_ms)?;
    config.policy.attempt_timeout_ms =
        args.num("attempt-timeout-ms", config.policy.attempt_timeout_ms)?;
    config.policy.max_attempts = args.num("max-attempts", config.policy.max_attempts)?;
    config.workers = args.num("workers", config.workers)?;

    let mut driver = ScenarioDriver::new(dep, scenario, config);
    if let Some(log) = event_log(args)? {
        driver.service_mut().set_event_log(log);
    }
    if let Some(refusal) = coverage_refusal(args, driver.service().coverage(), "run") {
        return Ok(refusal);
    }

    let mut out = String::new();
    writeln!(
        out,
        "oracle: full-system coverage {:.1}% over {} audited deviations",
        100.0 * driver.service().pipeline().full_coverage(),
        driver.service().pipeline().candidate_count()
    )?;
    let mut liars_active = false;
    for _ in 0..epochs {
        let epoch = driver.service().epochs();
        let injected_before = driver.active_anomaly().map(|a| a.rule);
        let report = driver.step()?;
        match (injected_before, driver.active_anomaly().map(|a| a.rule)) {
            (None, Some(rule)) => {
                writeln!(out, "epoch {epoch:>3}: [attack on s{}]", rule.switch.0)?
            }
            (Some(_), None) => writeln!(out, "epoch {epoch:>3}: [repaired]")?,
            _ => {}
        }
        match (liars_active, driver.fake_active_at(epoch)) {
            (false, true) => {
                liars_active = true;
                writeln!(
                    out,
                    "epoch {epoch:>3}: [liars compromised: {} ({fake_strategy}, λ={fake_magnitude})]",
                    switch_list(driver.liar_switches().iter().copied())
                )?;
            }
            (true, false) => {
                liars_active = false;
                writeln!(out, "epoch {epoch:>3}: [liars confessed]")?;
            }
            _ => {}
        }
        if let Some(s) = report.localized_liar {
            writeln!(
                out,
                "epoch {epoch:>3}: LOCALIZED liar s{} — counters quarantined",
                s.0
            )?;
        }
        match &report.mode {
            DetectionMode::Full => {}
            DetectionMode::Degraded {
                missing, coverage, ..
            } => {
                writeln!(
                    out,
                    "epoch {epoch:>3}: DEGRADED missing [{}], masked coverage {:.1}%",
                    switch_list(missing.iter().copied()),
                    100.0 * coverage
                )?;
            }
            DetectionMode::Reconciled {
                quarantined_flows,
                masked_rows,
                coverage,
                ..
            } => {
                writeln!(
                    out,
                    "epoch {epoch:>3}: RECONCILED rule churn — {quarantined_flows} flows \
                     quarantined, {masked_rows} rows masked, coverage {:.1}%",
                    100.0 * coverage
                )?;
            }
            DetectionMode::Blind { .. } => {
                writeln!(out, "epoch {epoch:>3}: BLIND (no usable counters)")?
            }
        }
        if report.alarm_raised {
            let ai = report
                .verdict
                .as_ref()
                .map(|v| v.anomaly_index.min(1e6))
                .unwrap_or(f64::NAN);
            writeln!(
                out,
                "epoch {epoch:>3}: ALARM (AI {ai:.2}) suspects: {}",
                switch_list(report.suspects.iter().take(3).map(|s| s.switch))
            )?;
        } else if report.alarm_cleared {
            writeln!(out, "epoch {epoch:>3}: alarm cleared")?;
        }
    }
    let m = *driver.service().metrics();
    let final_state = driver.service().state();
    writeln!(out, "final state: {final_state}")?;
    writeln!(
        out,
        "rounds: {} full / {} degraded / {} reconciled / {} blind; \
         {} retries, {} drops, {} stale replies",
        m.full_rounds,
        m.degraded_rounds,
        m.reconciled_rounds,
        m.blind_rounds,
        m.retries,
        m.drops,
        m.stale_replies
    )?;
    writeln!(
        out,
        "alarms: {} raised, {} cleared; churn: {} updates, {} flows quarantined, \
         {} fcm rebuilds, {} suppressed raises",
        m.alarms_raised,
        m.alarms_cleared,
        driver.churn_events(),
        m.quarantined_flows,
        m.fcm_rebuilds,
        m.suppressed_raises
    )?;
    if liars > 0 {
        write_byzantine!(out, m)?;
    }
    writeln!(out, "metrics: {}", m.to_json())?;
    let byzantine = driver.service().byzantine_unresolved();
    Ok(alarm_exit(out, "run", final_state, byzantine))
}

/// `foces cluster <scenario> …` — sharded detection with per-shard warm
/// solvers, worker-fault drills, and a JSONL epoch log. Exits `2` when the
/// run ends with an unresolved alarm, like `foces run`.
pub fn cluster_run(args: &Args) -> Result<CmdOutput, CmdError> {
    let (_, mut dep) = load(args)?;
    let epochs: u64 = args.num("epochs", 30)?;
    let shards: usize = args.num("shards", 4)?;
    let mode = args.opt("partition").unwrap_or("edge-cut");
    let spec = foces_net::PartitionSpec::parse(mode, shards)
        .ok_or_else(|| format!("--partition: unknown mode {mode:?} (per-switch|edge-cut)"))?;
    let deadline_ms: u64 = args.num("shard-deadline-ms", 0)?;
    let loss: f64 = args.num("loss", 0.0)?;
    let seed: u64 = args.num("seed", 7)?;
    let attack_at: Option<u64> = args.maybe("attack-at")?;
    let repair_at: u64 = args.num("repair-at", epochs)?;
    let kill_shard: Option<usize> = args.maybe("kill-shard")?;
    let kill_at: u64 = args.num("kill-at", 0)?;
    let heal_at: u64 = args.num("heal-at", epochs)?;

    let fcm = Fcm::from_view(&dep.view);
    let config = foces_cluster::ClusterConfig {
        spec,
        threshold: args.num("threshold", foces::DEFAULT_THRESHOLD)?,
        workers: args.num("workers", 0)?,
        queue_capacity: args.num("queue-capacity", 4)?,
        shard_deadline: (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms)),
        backend: args.num("backend", foces::BackendKind::default())?,
        ..foces_cluster::ClusterConfig::default()
    };
    let mut svc = foces_cluster::ClusterService::new(fcm, dep.view.topology(), config)?;
    if let Some(log) = event_log(args)? {
        svc = svc.with_log(log);
    }
    if let Some(region) = kill_shard {
        if region >= svc.partition().region_count() {
            return Err(format!(
                "--kill-shard: region {region} out of range (partition has {})",
                svc.partition().region_count()
            )
            .into());
        }
    }
    if let Some(refusal) = coverage_refusal(args, svc.coverage(), "cluster run") {
        return Ok(refusal);
    }

    let mut out = String::new();
    writeln!(
        out,
        "partition: {} -> {} regions, edge cut {}, balance {:.2}, {} boundary flows",
        spec,
        svc.partition().region_count(),
        svc.partition().edge_cut(dep.view.topology()),
        svc.partition().balance(),
        svc.sharded().boundary_flows().len()
    )?;

    let mut active: Option<foces_dataplane::AppliedAnomaly> = None;
    for epoch in 0..epochs {
        if attack_at == Some(epoch) {
            let mut rng = StdRng::seed_from_u64(seed);
            active = inject_random_anomaly(
                &mut dep.dataplane,
                AnomalyKind::PathDeviation,
                &mut rng,
                &[],
            );
            if let Some(a) = &active {
                writeln!(out, "epoch {epoch:>3}: [attack on s{}]", a.rule.switch.0)?;
            }
        }
        if epoch == repair_at {
            if let Some(a) = active.take() {
                a.revert(&mut dep.dataplane)?;
                writeln!(out, "epoch {epoch:>3}: [repaired]")?;
            }
        }
        if let Some(region) = kill_shard {
            if epoch == kill_at {
                svc.inject_fault(region, foces_cluster::ShardFault::Panic);
                writeln!(out, "epoch {epoch:>3}: [shard {region} worker killed]")?;
            }
            if epoch == heal_at {
                svc.clear_fault(region);
                writeln!(out, "epoch {epoch:>3}: [shard {region} worker restarted]")?;
            }
        }

        let counters = one_round(&mut dep, loss, seed ^ epoch);
        let r = svc.run_epoch(&counters)?;
        let degraded: Vec<String> = r
            .shards
            .iter()
            .filter_map(|s| match &s.health {
                foces_cluster::ShardHealth::Healthy => None,
                foces_cluster::ShardHealth::Degraded(reason) => {
                    Some(format!("{} ({})", s.region, reason.label()))
                }
            })
            .collect();
        if !degraded.is_empty() {
            writeln!(
                out,
                "epoch {epoch:>3}: DEGRADED shards [{}], row coverage {:.1}%",
                degraded.join(", "),
                100.0 * r.detectability.row_coverage
            )?;
        }
        if r.alarm.raised {
            writeln!(
                out,
                "epoch {epoch:>3}: ALARM (AI {:.2}) regions {:?}",
                r.max_anomaly_index.min(1e6),
                r.flagged_regions()
            )?;
        } else if r.alarm.cleared {
            writeln!(out, "epoch {epoch:>3}: alarm cleared")?;
        }
    }

    let m = svc.metrics().clone();
    let final_state = svc.alarm_state();
    writeln!(out, "final state: {final_state}")?;
    writeln!(
        out,
        "solves: {} warm / {} cold over {} shard-epochs; faults: {} panics, \
         {} deadline misses, {} solver errors",
        m.warm_solves,
        m.cold_solves,
        m.shard_solves,
        m.shard_panics,
        m.deadline_misses,
        m.solve_errors
    )?;
    writeln!(
        out,
        "pool: {} steals, {} backpressure stalls, max queue depth {}",
        m.steals, m.backpressure_stalls, m.max_queue_depth
    )?;
    writeln!(out, "metrics: {}", m.to_json())?;
    Ok(alarm_exit(out, "run", final_state, false))
}

/// `foces stream <scenario> …` — event-driven continuous ingestion over
/// per-link channel models with shard-complete detection triggers. Exits
/// `2` when the stream ends with an unresolved alarm, like `foces run`.
pub fn stream_run(args: &Args) -> Result<CmdOutput, CmdError> {
    let (_, dep) = load(args)?;
    let defaults = StreamConfig::default();
    let poll_ms: f64 = args.num("poll-ms", 50.0)?;
    let cadence = if args.flag("adaptive") {
        CadenceConfig {
            min_ms: poll_ms,
            max_ms: args.num("poll-max-ms", poll_ms * 8.0)?,
            ..CadenceConfig::default()
        }
    } else {
        CadenceConfig::fixed(poll_ms)
    };
    let link_defaults = LinkSpec::default();
    let link = LinkSpec {
        propagation_ms: args.num("link-delay", link_defaults.propagation_ms)?,
        bytes_per_ms: args.num("bandwidth", link_defaults.bytes_per_ms)?,
        queue_capacity: args.num("queue-capacity", link_defaults.queue_capacity)?,
    };
    let liars: usize = args.num("liars", 0)?;
    let config = StreamConfig {
        duration_ms: args.num("duration-ms", defaults.duration_ms)?,
        regions: args.num("regions", defaults.regions)?,
        cadence,
        attempt_timeout_ms: args.num("attempt-timeout-ms", defaults.attempt_timeout_ms)?,
        max_attempts: args.num("max-attempts", defaults.max_attempts)?,
        settle_ms: args.num("settle-ms", defaults.settle_ms)?,
        profile: FaultProfile {
            latency_ms: args.num("latency", 1.0)?,
            jitter_ms: args.num("jitter", 0.0)?,
            drop_prob: args.num("drop", 0.0)?,
            reorder_prob: args.num("reorder", 0.0)?,
            offline: Vec::new(),
        },
        access: link.clone(),
        uplink: link,
        slow_region: args.maybe("slow-region")?,
        slow_extra_ms: args.num("slow-ms", defaults.slow_extra_ms)?,
        seed: args.num("seed", defaults.seed)?,
        churn_seed: args.num("churn-seed", defaults.churn_seed)?,
        anomaly_seed: args.num("anomaly-seed", defaults.anomaly_seed)?,
        liar_seed: args.num("liar-seed", defaults.liar_seed)?,
        byzantine: ByzantineConfig {
            enabled: liars > 0,
            ..ByzantineConfig::default()
        },
        backend: args.num("backend", defaults.backend)?,
        ..defaults
    };

    let mut script: Vec<(f64, StreamAction)> = Vec::new();
    for (flag, action) in [
        (
            "attack-at",
            StreamAction::Inject(AnomalyKind::PathDeviation),
        ),
        ("repair-at", StreamAction::Revert),
        ("churn-at", StreamAction::Churn),
    ] {
        if let Some(at) = args.maybe(flag)? {
            script.push((at, action));
        }
    }
    if liars > 0 {
        let compromise = StreamAction::Compromise {
            liars,
            strategy: args.num("fake-strategy", FakeStrategy::Naive)?,
            magnitude: args.num("fake-magnitude", 1.0)?,
        };
        script.push((args.num("fake-at", 0.0)?, compromise));
        if let Some(at) = args.maybe("confess-at")? {
            script.push((at, StreamAction::Confess));
        }
    }
    script.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut driver = StreamDriver::new(dep, config.clone(), script);
    if let Some(log) = event_log(args)? {
        driver.install_log(log);
    }
    if let Some(refusal) = coverage_refusal(args, driver.coverage(), "stream") {
        return Ok(refusal);
    }
    let report = driver.run()?;

    let mut out = String::new();
    writeln!(
        out,
        "stream: {} regions over {:.0} ms simulated, poll {} ({:.0}..{:.0} ms)",
        config.regions,
        config.duration_ms,
        if args.flag("adaptive") {
            "adaptive"
        } else {
            "fixed"
        },
        config.cadence.min_ms,
        config.cadence.max_ms,
    )?;
    let m = report.metrics;
    let opt_ms = |v: Option<f64>| {
        v.map(|x| format!("{x:.2} ms"))
            .unwrap_or_else(|| "-".to_string())
    };
    writeln!(
        out,
        "latency: first verdict {} / all shards {} / alarm {}",
        opt_ms(m.ttfv_ms),
        opt_ms(m.ttav_ms),
        opt_ms(m.alarm_latency_ms)
    )?;
    writeln!(
        out,
        "rounds: {} warm / {} cold / {} reconciled / {} degraded / {} blind \
         over {} shard fires ({} anomalous)",
        m.warm_rounds,
        m.cold_rounds,
        m.reconciled_rounds,
        m.degraded_rounds,
        m.blind_rounds,
        m.shard_rounds,
        m.anomalous_rounds
    )?;
    writeln!(
        out,
        "channel: {} polls, {} attempts, {} retries, {} drops, \
         {} congestion drops, {} timeouts, {} stale replies",
        m.polls, m.attempts, m.retries, m.drops, m.congestion_drops, m.timeouts, m.stale_replies
    )?;
    writeln!(
        out,
        "alarms: {} raised, {} cleared, {} suppressed; {} fcm rebuilds",
        m.alarms_raised, m.alarms_cleared, m.suppressed_raises, m.fcm_rebuilds
    )?;
    if liars > 0 {
        write_byzantine!(out, m)?;
    }
    let verdicts: Vec<String> = report
        .stream_verdicts
        .iter()
        .map(|(r, a)| format!("{r}:{}", if *a { "ANOMALY" } else { "ok" }))
        .collect();
    writeln!(
        out,
        "verdicts: [{}], ground-truth parity: {}",
        verdicts.join(" "),
        report.verdict_parity()
    )?;
    writeln!(out, "final state: {}", report.alarm_state)?;
    writeln!(out, "metrics: {}", m.to_json())?;
    let byzantine = driver.byzantine_unresolved();
    Ok(alarm_exit(out, "stream", report.alarm_state, byzantine))
}

/// One cell of the redteam sweep: a full scenario run under one
/// (strategy, liar-count, magnitude) combination.
struct RedteamCell {
    strategy: FakeStrategy,
    liars: usize,
    magnitude: f64,
    detected: bool,
    /// Epochs from the start of forging to the first alarm raise.
    latency_epochs: Option<u64>,
    true_liars: Vec<foces_net::SwitchId>,
    localized: Vec<foces_net::SwitchId>,
    precision: Option<f64>,
    recall: Option<f64>,
    loo_solves: u64,
    loo_downdates: u64,
    switch_quarantines: u64,
    unresolved_rounds: u64,
    alarms_raised: u64,
}

impl RedteamCell {
    fn to_json(&self) -> String {
        use foces_runtime::metrics::json_f64;
        let ids = |v: &[foces_net::SwitchId]| {
            let inner: Vec<String> = v.iter().map(|s| s.0.to_string()).collect();
            format!("[{}]", inner.join(","))
        };
        let opt_f = |v: Option<f64>| v.map(json_f64).unwrap_or_else(|| "null".into());
        let opt_u = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_else(|| "null".into());
        format!(
            "{{\"strategy\":\"{}\",\"liars\":{},\"magnitude\":{},\"detected\":{},\
             \"latency_epochs\":{},\"true_liars\":{},\"localized\":{},\"precision\":{},\
             \"recall\":{},\"loo_solves\":{},\"loo_downdates\":{},\"switch_quarantines\":{},\
             \"unresolved_rounds\":{},\"alarms_raised\":{}}}",
            self.strategy,
            self.liars,
            json_f64(self.magnitude),
            self.detected,
            opt_u(self.latency_epochs),
            ids(&self.true_liars),
            ids(&self.localized),
            opt_f(self.precision),
            opt_f(self.recall),
            self.loo_solves,
            self.loo_downdates,
            self.switch_quarantines,
            self.unresolved_rounds,
            self.alarms_raised,
        )
    }
}

/// Runs one redteam cell: a fresh deployment, `liars` forging switches
/// under `strategy` at interpolation `magnitude`, Byzantine layer on,
/// stepped for `epochs`.
#[allow(clippy::too_many_arguments)]
fn redteam_cell(
    scenario: &Scenario,
    strategy: FakeStrategy,
    liars: usize,
    magnitude: f64,
    epochs: u64,
    fake_at: u64,
    seed: u64,
    liar_seed: u64,
    threshold: f64,
) -> Result<RedteamCell, CmdError> {
    use std::collections::BTreeSet;
    let dep = scenario.provision()?;
    let fs = FaultScenario {
        epochs,
        loss: 0.0,
        drop_prob: 0.0,
        latency_ms: 1.0,
        jitter_ms: 0.0,
        reorder_prob: 0.0,
        offline: None,
        anomaly_window: None,
        anomaly_kind: AnomalyKind::PathDeviation,
        churn_period: None,
        churn_seed: 7,
        seed,
        anomaly_seed: seed,
        liars,
        fake_strategy: strategy,
        fake_window: Some((fake_at, epochs)),
        fake_magnitude: magnitude,
        liar_seed,
    };
    let config = RuntimeConfig {
        threshold,
        byzantine: ByzantineConfig {
            enabled: true,
            ..ByzantineConfig::default()
        },
        ..RuntimeConfig::default()
    };
    let mut driver = ScenarioDriver::new(dep, fs, config);
    let mut first_alarm: Option<u64> = None;
    let mut localized: BTreeSet<foces_net::SwitchId> = BTreeSet::new();
    for _ in 0..epochs {
        let epoch = driver.service().epochs();
        let r = driver.step()?;
        if r.alarm_raised && epoch >= fake_at && first_alarm.is_none() {
            first_alarm = Some(epoch);
        }
        if let Some(s) = r.localized_liar {
            localized.insert(s);
        }
    }
    let m = *driver.service().metrics();
    if m.loo_solves > 0 && m.loo_downdates == 0 {
        return Err(format!(
            "redteam invariant violated ({strategy} ×{liars} λ={magnitude}): \
             {} leave-one-out solves took zero factor downdates (cold refactorization)",
            m.loo_solves
        )
        .into());
    }
    let truth: BTreeSet<foces_net::SwitchId> = driver.liar_switches().iter().copied().collect();
    let tp = localized.intersection(&truth).count();
    Ok(RedteamCell {
        strategy,
        liars,
        magnitude,
        detected: first_alarm.is_some(),
        latency_epochs: first_alarm.map(|e| e - fake_at),
        true_liars: truth.into_iter().collect(),
        localized: localized.iter().copied().collect(),
        precision: (!localized.is_empty()).then(|| tp as f64 / localized.len() as f64),
        recall: (liars > 0).then(|| tp as f64 / liars as f64),
        loo_solves: m.loo_solves,
        loo_downdates: m.loo_downdates,
        switch_quarantines: m.switch_quarantines,
        unresolved_rounds: m.unresolved_byzantine,
        alarms_raised: m.alarms_raised,
    })
}

/// `foces redteam [scenario] …` — sweeps the adversary space
/// (strategy × liar count × fake magnitude λ), measuring detection
/// latency, localization precision/recall, and the evasion cost (the
/// smallest λ each strategy needs to stay above to be caught), and writes
/// the whole grid to BENCH_redteam.json. Uses the FatTree(4) golden
/// scenario when no file is given.
pub fn redteam(args: &Args) -> Result<CmdOutput, CmdError> {
    use foces_runtime::metrics::json_f64;
    let (scenario, scenario_name) = match args.positional(0) {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            (Scenario::parse(&text)?, path.to_string())
        }
        None => (
            Scenario::parse("topology fattree 4\ngranularity per-pair\nall-pairs 240000\n")?,
            "fattree-4".to_string(),
        ),
    };
    let epochs: u64 = args.num("epochs", 12)?;
    let fake_at: u64 = args.num("fake-at", 2)?;
    let seed: u64 = args.num("seed", 7)?;
    let liar_seed: u64 = args.num("liar-seed", 11)?;
    let threshold: f64 = args.num("threshold", foces::DEFAULT_THRESHOLD)?;
    let liars_max: usize = args.num("liars-max", 2)?;
    let magnitudes: Vec<f64> = args
        .list("magnitudes")?
        .unwrap_or_else(|| vec![0.25, 0.5, 1.0]);
    let strategies = args
        .list("strategies")?
        .unwrap_or_else(|| FakeStrategy::ALL.to_vec());
    let out_path = args.opt("out").unwrap_or("BENCH_redteam.json").to_string();

    let mut out = String::new();
    writeln!(
        out,
        "redteam: {} on {scenario_name}, {epochs} epochs, forging from epoch {fake_at}, \
         λ ∈ {magnitudes:?}, liars 1..={liars_max}",
        strategies
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join("/"),
    )?;

    let mut cells: Vec<RedteamCell> = Vec::new();
    for &strategy in &strategies {
        for liars in 1..=liars_max {
            for &magnitude in &magnitudes {
                let cell = redteam_cell(
                    &scenario, strategy, liars, magnitude, epochs, fake_at, seed, liar_seed,
                    threshold,
                )?;
                let verdict = if cell.detected {
                    format!(
                        "DETECTED in {} epochs, P={} R={}",
                        cell.latency_epochs.unwrap_or(0),
                        cell.precision.map_or("-".into(), |p| format!("{p:.2}")),
                        cell.recall.map_or("-".into(), |r| format!("{r:.2}")),
                    )
                } else {
                    "evaded".to_string()
                };
                writeln!(out, "  {strategy:>7} ×{liars} λ={magnitude:<5}: {verdict}")?;
                cells.push(cell);
            }
        }
    }

    // Evasion-cost curve: per (strategy, liar count), the smallest swept λ
    // that is still detected, and the largest that escapes.
    let finite = |v: f64| Some(v).filter(|v| v.is_finite());
    let null_or = |v: Option<f64>| v.map_or_else(|| "null".to_string(), json_f64);
    let mut evasion: Vec<String> = Vec::new();
    for &strategy in &strategies {
        for liars in 1..=liars_max {
            let group = cells
                .iter()
                .filter(|c| c.strategy == strategy && c.liars == liars);
            let (caught, escaped): (Vec<_>, Vec<_>) = group.partition(|c| c.detected);
            let min_detected = finite(
                caught
                    .iter()
                    .map(|c| c.magnitude)
                    .fold(f64::INFINITY, f64::min),
            );
            let max_undetected = finite(
                escaped
                    .iter()
                    .map(|c| c.magnitude)
                    .fold(f64::NEG_INFINITY, f64::max),
            );
            evasion.push(format!(
                "{{\"strategy\":\"{strategy}\",\"liars\":{liars},\"min_detected_magnitude\":{},\
                 \"max_undetected_magnitude\":{}}}",
                null_or(min_detected),
                null_or(max_undetected),
            ));
            let cost = min_detected.map_or_else(
                || "never caught in sweep".to_string(),
                |m| format!("caught from λ={m}"),
            );
            let escape = max_undetected.map_or_else(String::new, |m| format!(", escapes at λ={m}"));
            writeln!(out, "evasion {strategy:>7} ×{liars}: {cost}{escape}")?;
        }
    }
    let evasion = format!("[{}]", evasion.join(","));

    let cell_json: Vec<String> = cells.iter().map(RedteamCell::to_json).collect();
    let json = format!(
        "{{\"bench\":\"redteam\",\"scenario\":\"{scenario_name}\",\"epochs\":{epochs},\
         \"fake_at\":{fake_at},\"threshold\":{},\"cells\":[{}],\"evasion\":{evasion}}}\n",
        json_f64(threshold),
        cell_json.join(",")
    );
    std::fs::write(&out_path, json).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    writeln!(out, "wrote {out_path} ({} cells)", cells.len())?;
    Ok(CmdOutput::clean(out))
}

/// One prepared scale deployment: the FCM plus a healthy and an
/// anomalous counter snapshot (same rule-modification seed per cell so
/// every backend scores the identical vectors).
struct ScaleSystem {
    fcm: Fcm,
    healthy: Vec<f64>,
    anomalous: Vec<f64>,
    hosts: usize,
    flows: usize,
    rules: usize,
    basis_cols: usize,
}

/// Builds the FatTree(`k`) all-pairs deployment for one scale cell and
/// collects both counter snapshots. `flows_max > 0` truncates the
/// all-pairs flow list (deterministically, in host order) to bound a
/// sweep's runtime without changing the rule structure of what remains.
fn scale_system(k: usize, seed: u64, flows_max: usize) -> Result<ScaleSystem, CmdError> {
    use foces_controlplane::{provision, uniform_flows, RuleGranularity};
    let topo = foces_net::generators::fattree(k);
    let hosts = topo.host_count();
    let pairs = hosts * hosts.saturating_sub(1);
    let mut flows = uniform_flows(&topo, 1000.0 * pairs as f64);
    if flows_max > 0 && flows.len() > flows_max {
        flows.truncate(flows_max);
    }
    let flow_count = flows.len();
    let mut dep = provision(topo, &flows, RuleGranularity::PerDestination)?;
    let fcm = Fcm::from_view(&dep.view);
    dep.replay_traffic(&mut LossModel::none());
    let healthy = dep.dataplane.collect_counters();
    let mut rng = StdRng::seed_from_u64(seed);
    inject_random_anomaly(
        &mut dep.dataplane,
        AnomalyKind::PathDeviation,
        &mut rng,
        &[],
    )
    .ok_or_else(|| format!("fattree-{k}: no eligible rule to deviate"))?;
    dep.dataplane.reset_counters();
    dep.replay_traffic(&mut LossModel::none());
    let anomalous = dep.dataplane.collect_counters();
    Ok(ScaleSystem {
        hosts,
        flows: flow_count,
        rules: fcm.rule_count(),
        basis_cols: fcm.unique_column_basis().len(),
        fcm,
        healthy,
        anomalous,
    })
}

/// One backend's measured pass over a [`ScaleSystem`]: a timed cold
/// healthy round, a timed warm repeat, and an anomalous round.
struct ScaleRun {
    cold_ms: f64,
    warm_ms: f64,
    solve_path: String,
    cg_iterations: u64,
    healthy_index: f64,
    healthy_flag: bool,
    anomalous_index: f64,
    anomalous_flag: bool,
}

fn scale_run(
    sys: &ScaleSystem,
    backend: foces::BackendKind,
    threshold: f64,
) -> Result<ScaleRun, foces::FocesError> {
    let detector = Detector::with_threshold(threshold);
    let mut solver = foces::IncrementalSolver::with_backend(foces::RankBudget::default(), backend);
    let t0 = std::time::Instant::now();
    let (healthy, path) = detector.detect_warm(&sys.fcm, &sys.healthy, &mut solver)?;
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut cg_iterations = solver.last_iterations();
    let t1 = std::time::Instant::now();
    detector.detect_warm(&sys.fcm, &sys.healthy, &mut solver)?;
    let warm_ms = t1.elapsed().as_secs_f64() * 1e3;
    cg_iterations = cg_iterations.max(solver.last_iterations());
    let (anomalous, _) = detector.detect_warm(&sys.fcm, &sys.anomalous, &mut solver)?;
    cg_iterations = cg_iterations.max(solver.last_iterations());
    Ok(ScaleRun {
        cold_ms,
        warm_ms,
        solve_path: path.to_string(),
        cg_iterations,
        healthy_index: healthy.anomaly_index,
        healthy_flag: healthy.anomalous,
        anomalous_index: anomalous.anomaly_index,
        anomalous_flag: anomalous.anomalous,
    })
}

/// Renders one scale cell as a JSON object for BENCH_scale.json.
fn scale_cell_json(
    name: &str,
    sys: &ScaleSystem,
    backend: &str,
    r: &ScaleRun,
    dense_error: Option<&str>,
) -> String {
    use foces_runtime::metrics::{json_f64, json_str};
    format!(
        "{{\"topology\":{},\"hosts\":{},\"flows\":{},\"rules\":{},\
         \"basis_cols\":{},\"backend\":{},\
         \"cold_ms\":{},\"warm_ms\":{},\"solve_path\":{},\"cg_iterations\":{},\
         \"healthy_anomaly_index\":{},\"healthy_anomalous\":{},\
         \"anomalous_anomaly_index\":{},\"anomalous_anomalous\":{},\
         \"dense_error\":{},\"peak_rss_bytes\":{}}}",
        json_str(name),
        sys.hosts,
        sys.flows,
        sys.rules,
        sys.basis_cols,
        json_str(backend),
        json_f64(r.cold_ms),
        json_f64(r.warm_ms),
        json_str(&r.solve_path),
        r.cg_iterations,
        json_f64(r.healthy_index),
        r.healthy_flag,
        json_f64(r.anomalous_index),
        r.anomalous_flag,
        dense_error.map_or_else(|| "null".to_string(), json_str),
        foces_runtime::peak_rss_bytes()
    )
}

/// Attempts a dense-backend round expecting the typed allocation refusal;
/// returns the rendered [`foces_linalg::LinalgError::AllocationTooLarge`]
/// or an error when dense unexpectedly proceeds (or fails differently).
fn scale_expect_dense_refusal(sys: &ScaleSystem, threshold: f64) -> Result<String, CmdError> {
    use foces_linalg::LinalgError;
    match scale_run(sys, foces::BackendKind::Dense, threshold) {
        Err(foces::FocesError::Solver(e @ LinalgError::AllocationTooLarge { .. })) => {
            Ok(e.to_string())
        }
        Ok(_) => Err(format!(
            "expected the dense backend to refuse {} basis columns with \
             AllocationTooLarge, but it solved",
            sys.basis_cols
        )
        .into()),
        Err(other) => {
            Err(format!("expected AllocationTooLarge from the dense backend, got: {other}").into())
        }
    }
}

/// `foces scale [--full] [--out FILE.json] …` — the sparse-engine scaling
/// sweep. Smoke mode (the default, CI-sized) runs FatTree(8) all-pairs on
/// both backends — asserting verdict/index parity and recording the
/// cold-solve speedup — plus a FatTree(12) sparse-only cell where the
/// dense backend's typed `AllocationTooLarge` refusal is asserted. `--full`
/// adds the FatTree(16)-class headline cell (≥10⁵ flows): dense refuses
/// with a typed error, the sparse engine completes verdict-correct healthy
/// and anomalous rounds. Exits 2 on any parity or verdict failure.
pub fn scale(args: &Args) -> Result<CmdOutput, CmdError> {
    use foces_runtime::metrics::json_f64;
    let full = args.flag("full");
    let out_path = args.opt("out").unwrap_or("BENCH_scale.json").to_string();
    let seed: u64 = args.num("seed", 7)?;
    let threshold: f64 = args.num("threshold", foces::DEFAULT_THRESHOLD)?;
    let ceiling: usize = args.num("ceiling", 16)?;
    let flows_max: usize = args.num("flows-max", 0)?;

    let mut out = String::new();
    let mut cells: Vec<String> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    // -- FatTree(8) parity cell: dense vs sparse on identical counters --
    let sys8 = scale_system(8, seed, flows_max)?;
    writeln!(
        out,
        "fattree-8: {} hosts, {} flows, {} rules, {} basis columns",
        sys8.hosts, sys8.flows, sys8.rules, sys8.basis_cols
    )?;
    let dense8 = scale_run(&sys8, foces::BackendKind::Dense, threshold)?;
    let sparse8 = scale_run(&sys8, foces::BackendKind::Sparse, threshold)?;
    let index_diff = |a: f64, b: f64| (a - b).abs() / a.abs().max(b.abs()).max(1.0);
    let parity_diff = index_diff(dense8.healthy_index, sparse8.healthy_index)
        .max(index_diff(dense8.anomalous_index, sparse8.anomalous_index));
    let parity_ok = dense8.healthy_flag == sparse8.healthy_flag
        && dense8.anomalous_flag == sparse8.anomalous_flag
        && parity_diff <= 1e-9;
    if !parity_ok {
        failures.push(format!(
            "fattree-8 parity: dense ({}, AI {:.6}/{:.6}) vs sparse ({}, AI {:.6}/{:.6})",
            dense8.healthy_flag,
            dense8.healthy_index,
            dense8.anomalous_index,
            sparse8.healthy_flag,
            sparse8.healthy_index,
            sparse8.anomalous_index,
        ));
    }
    if dense8.healthy_flag || !dense8.anomalous_flag {
        failures.push(format!(
            "fattree-8 verdicts: healthy round anomalous={}, anomalous round anomalous={}",
            dense8.healthy_flag, dense8.anomalous_flag
        ));
    }
    let speedup = dense8.cold_ms / sparse8.cold_ms.max(1e-9);
    writeln!(
        out,
        "  dense  cold {:>10.1} ms, warm {:>8.1} ms  (path {})",
        dense8.cold_ms, dense8.warm_ms, dense8.solve_path
    )?;
    writeln!(
        out,
        "  sparse cold {:>10.1} ms, warm {:>8.1} ms  (path {}, {} cg iters)",
        sparse8.cold_ms, sparse8.warm_ms, sparse8.solve_path, sparse8.cg_iterations
    )?;
    writeln!(
        out,
        "  parity: max index diff {parity_diff:.2e}, cold speedup {speedup:.1}x \
         (target >=5x), {}",
        if parity_ok { "ok" } else { "FAILED" }
    )?;
    for (backend, run) in [("dense", &dense8), ("sparse", &sparse8)] {
        cells.push(scale_cell_json("fattree-8", &sys8, backend, run, None));
    }
    drop(sys8);

    // -- FatTree(12) sparse-only smoke, and in full mode the FatTree(16)-
    // class headline cell: dense must refuse, typed, sparse stay correct --
    let mut sparse_cell = |k: usize, min_flows: usize| -> Result<(), CmdError> {
        let name = format!("fattree-{k}");
        let sys = scale_system(k, seed, flows_max)?;
        writeln!(
            out,
            "{name}: {} hosts, {} flows, {} rules, {} basis columns",
            sys.hosts, sys.flows, sys.rules, sys.basis_cols
        )?;
        if sys.flows < min_flows {
            failures.push(format!(
                "{name}: only {} flows (headline cell needs >={min_flows})",
                sys.flows
            ));
        }
        let refusal = scale_expect_dense_refusal(&sys, threshold)?;
        writeln!(out, "  dense  refused (typed): {refusal}")?;
        let sparse = scale_run(&sys, foces::BackendKind::Sparse, threshold)?;
        if sparse.healthy_flag || !sparse.anomalous_flag {
            failures.push(format!(
                "{name} sparse verdicts: healthy anomalous={}, anomalous anomalous={}",
                sparse.healthy_flag, sparse.anomalous_flag
            ));
        }
        writeln!(
            out,
            "  sparse cold {:>10.1} ms, warm {:>8.1} ms  (path {}, {} cg iters, \
             healthy AI {:.2}, anomalous AI {:.2})",
            sparse.cold_ms,
            sparse.warm_ms,
            sparse.solve_path,
            sparse.cg_iterations,
            sparse.healthy_index,
            sparse.anomalous_index
        )?;
        cells.push(scale_cell_json(
            &name,
            &sys,
            "sparse",
            &sparse,
            Some(&refusal),
        ));
        Ok(())
    };
    sparse_cell(12, 0)?;
    if full {
        sparse_cell(ceiling, 100_000)?;
    }

    let json = format!(
        "{{\"bench\":\"scale\",\"mode\":\"{}\",\"threshold\":{},\
         \"parity\":{{\"topology\":\"fattree-8\",\"max_index_diff\":{},\
         \"cold_speedup\":{},\"speedup_ok\":{},\"parity_ok\":{parity_ok}}},\
         \"cells\":[{}]}}\n",
        if full { "full" } else { "smoke" },
        json_f64(threshold),
        json_f64(parity_diff),
        json_f64(speedup),
        speedup >= 5.0,
        cells.join(",")
    );
    std::fs::write(&out_path, json).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    writeln!(out, "wrote {out_path} ({} cells)", cells.len())?;

    let exit_code = if failures.is_empty() {
        0
    } else {
        for f in &failures {
            writeln!(out, "FAIL: {f}")?;
        }
        writeln!(out, "exit 2: {} scale assertion(s) failed", failures.len())?;
        2
    };
    Ok(CmdOutput::new(out, exit_code))
}

/// `foces audit <scenario> [--cap N] [--json]` — static rule-table
/// verification (loops, blackholes, shadowing, FCM consistency) followed
/// by the detectability blind-spot analysis. Exits `3` when verification
/// finds violations; `--json` renders everything as JSONL for pipelines.
pub fn audit(args: &Args) -> Result<CmdOutput, CmdError> {
    let (_, dep) = load(args)?;
    let cap: usize = args.num("cap", usize::MAX)?;
    let fcm = Fcm::from_view(&dep.view);
    let mut verification = verify_view(&dep.view);
    let report = audit_deviations(&dep.view, &fcm, cap);
    // A deviation path that walks a rule the FCM has no row for means the
    // matrix is stale relative to the plane under audit: surface it as a
    // finding (and exit 3) instead of aborting the audit.
    for c in &report.stale {
        let flow = &fcm.flows()[c.flow];
        verification.findings.push(Finding {
            kind: FindingKind::StaleRule,
            switch: c.at_switch,
            rules: Vec::new(),
            region: None,
            header: None,
            detail: format!(
                "deviating flow h{}->h{} at s{} toward s{} walks a rule the FCM \
                 has no row for: the matrix is stale relative to the plane",
                flow.ingress.0, flow.egress.0, c.at_switch.0, c.redirected_to.0
            ),
        });
    }
    let mut out = String::new();
    if args.flag("json") {
        for line in verification.to_json_lines() {
            writeln!(out, "{line}")?;
        }
        writeln!(
            out,
            "{{\"event\":\"detectability\",\"candidates\":{},\"detectable\":{},\
             \"blind\":{},\"stale\":{},\"coverage\":{:.6}}}",
            report.total(),
            report.detectable.len(),
            report.undetectable.len(),
            report.stale.len(),
            report.coverage()
        )?;
    } else {
        writeln!(out, "static check: {}", verification.summary())?;
        for f in verification.findings.iter().take(10) {
            writeln!(out, "  {f}")?;
        }
        if verification.findings.len() > 10 {
            writeln!(out, "  ... and {} more", verification.findings.len() - 10)?;
        }
        writeln!(out, "candidates:   {}", report.total())?;
        writeln!(out, "detectable:   {}", report.detectable.len())?;
        writeln!(out, "blind spots:  {}", report.undetectable.len())?;
        if !report.stale.is_empty() {
            writeln!(out, "stale:        {}", report.stale.len())?;
        }
        writeln!(out, "coverage:     {:.1}%", 100.0 * report.coverage())?;
        for c in report.undetectable.iter().take(10) {
            let flow = &fcm.flows()[c.flow];
            writeln!(
                out,
                "  blind: flow h{}->h{} deviated at s{} toward s{} (delivered: {})",
                flow.ingress.0, flow.egress.0, c.at_switch.0, c.redirected_to.0, c.still_delivered
            )?;
        }
        if report.undetectable.len() > 10 {
            writeln!(out, "  ... and {} more", report.undetectable.len() - 10)?;
        }
        if !verification.is_clean() {
            writeln!(out, "exit 3: static verification found violations")?;
        }
    }
    let exit_code = if verification.is_clean() { 0 } else { 3 };
    Ok(CmdOutput::new(out, exit_code))
}

/// `foces coverage <scenario> [--shards K] [--json] [--strict]` — static
/// detectability & localization-coverage analysis of the provisioned
/// plane, with no epochs run: per-switch row-share/absorption scores with
/// an absorbing-combination certificate behind every WARN, leave-one-out
/// localizability classes, the degradation margin, and (with `--shards`)
/// per-shard boundary rank. `--strict` exits `4` on any WARN finding.
pub fn coverage_cmd(args: &Args) -> Result<CmdOutput, CmdError> {
    let (_, dep) = load(args)?;
    let fcm = Fcm::from_view(&dep.view);
    let config = CoverageConfig::default();
    let shards: usize = args.num("shards", 0)?;
    let report = if shards > 0 {
        let spec = foces_net::PartitionSpec::EdgeCut { k: shards };
        let part = foces_net::partition(dep.view.topology(), spec);
        let sharded = ShardedFcm::from_fcm(&fcm, &part);
        analyze_cluster_coverage(&fcm, &sharded, &config)?
    } else {
        analyze_coverage(&fcm, &config)?
    };
    let mut out = String::new();
    if args.flag("json") {
        out.push_str(&report.to_json_lines());
    } else {
        writeln!(out, "{}", report.summary())?;
        if let (Some(flow), false) = (report.margin_flow, report.margin_witness.is_empty()) {
            writeln!(
                out,
                "margin witness: flow f{flow} goes unobservable if [{}] fail",
                switch_list(report.margin_witness.iter().copied())
            )?;
        }
        for sh in &report.shards {
            writeln!(
                out,
                "shard {}: {} rules x {} flows ({} basis cols, {} boundary), {}",
                sh.region,
                sh.rules,
                sh.flows,
                sh.basis_cols,
                sh.boundary_flows,
                if !sh.analyzed {
                    "skipped (over basis limit)"
                } else if sh.full_rank {
                    "full rank"
                } else {
                    "RANK DEFICIENT"
                }
            )?;
        }
        for f in &report.findings {
            let at = match (f.switch, f.region) {
                (Some(sw), _) => format!(" s{}", sw.0),
                (None, Some(r)) => format!(" shard {r}"),
                _ => String::new(),
            };
            writeln!(
                out,
                "  [{} {}]{}: {}",
                f.severity.label(),
                f.kind.label(),
                at,
                f.detail
            )?;
            if let Some(cert) = &f.certificate {
                writeln!(out, "    certificate: {cert}")?;
            }
        }
    }
    let exit_code = if args.flag("strict") && !report.is_clean() {
        if !args.flag("json") {
            writeln!(
                out,
                "exit 4: --strict and the analyzer found {} WARN finding(s)",
                report.warn_count()
            )?;
        }
        4
    } else {
        0
    };
    Ok(CmdOutput::new(out, exit_code))
}

/// `foces interleave <scenario> ...` — schedule-enumeration conformance
/// for concurrent updates racing counter collection: stages `--updates`
/// reroutes, enumerates every non-equivalent per-switch commit schedule
/// (or a bounded `--schedules`/`--seed` sample), executes each against a
/// real runtime service, and holds it to the soundness oracles. Exits
/// `2` on any violation, reporting the shrunk minimal failing schedule.
/// `--json` emits the deterministic schedule log (byte-identical across
/// runs with the same inputs and seed).
pub fn interleave(args: &Args) -> Result<CmdOutput, CmdError> {
    let (_, dep) = load(args)?;
    let mut cfg = InterleaveConfig {
        updates: args.num("updates", 2)?,
        segments: args.num("segments", 2)?,
        ..InterleaveConfig::default()
    };
    cfg.mode = if let Some(count) = args.maybe("schedules")? {
        ScheduleSet::Sample {
            count,
            seed: args.num("seed", 7)?,
        }
    } else if args.flag("uniform") {
        ScheduleSet::Uniform
    } else {
        ScheduleSet::Exhaustive
    };
    cfg.harness.update_at = args.num("update-at", cfg.harness.update_at)?;
    cfg.harness.epochs_after = args.num("epochs-after", cfg.harness.epochs_after)?;
    cfg.harness.runtime.threshold = args.num("threshold", cfg.harness.runtime.threshold)?;
    cfg.check_dropper = !args.flag("no-dropper");
    cfg.fanout_shards = if args.flag("no-fanout") {
        None
    } else {
        Some(args.num("shards", 2)?)
    };

    let report = run_interleave(&dep, &cfg)?;
    let mut out = String::new();
    if args.flag("json") {
        for line in report.json_lines() {
            writeln!(out, "{line}")?;
        }
    } else {
        let flows: Vec<String> = report
            .plans
            .iter()
            .map(|p| format!("f{}", p.flow))
            .collect();
        writeln!(
            out,
            "staged {} concurrent reroute(s) [{}], {} per-switch commit events",
            report.plans.len(),
            flows.join(", "),
            report.events.len()
        )?;
        writeln!(
            out,
            "schedules: {} explored, {} equivalent linearizations pruned",
            report.explored, report.pruned
        )?;
        let uniform = report
            .outcomes
            .iter()
            .filter(|o| o.schedule.is_uniform())
            .count();
        writeln!(
            out,
            "  {uniform} uniform (global-split) schedules among them"
        )?;
        if cfg.check_dropper {
            let bound = cfg.harness.update_at + cfg.harness.runtime.churn_raise_bound();
            let worst = report
                .outcomes
                .iter()
                .filter_map(|o| o.dropper_first_raise)
                .max();
            match worst {
                Some(w) => writeln!(
                    out,
                    "dropper: caught on every schedule, worst first-raise epoch {w} (bound {bound})"
                )?,
                None => writeln!(out, "dropper: dimension produced no first-raise data")?,
            }
        }
        if cfg.fanout_shards.is_some() {
            let (rounds, reconciled, blind, stale) = report
                .outcomes
                .iter()
                .filter_map(|o| o.fanout.as_ref())
                .fold((0, 0, 0, 0), |acc, f| {
                    (
                        acc.0 + f.rounds,
                        acc.1 + f.reconciled,
                        acc.2 + f.blind,
                        acc.3 + f.stale_rounds,
                    )
                });
            writeln!(
                out,
                "fan-out: {rounds} boundary shard rounds ({reconciled} reconciled, {blind} blind, \
                 {stale} with stale-generation members)"
            )?;
        }
        for o in report.outcomes.iter().filter(|o| !o.violations.is_empty()) {
            writeln!(out, "  VIOLATION at schedule {}:", o.schedule.label())?;
            for v in &o.violations {
                writeln!(out, "    {v}")?;
            }
        }
        match &report.minimal_failing {
            None => writeln!(out, "verdict: all {} schedules sound", report.explored)?,
            Some((s, vs)) => {
                writeln!(out, "minimal failing schedule: {}", s.label())?;
                for v in vs {
                    writeln!(out, "    {v}")?;
                }
            }
        }
    }
    let exit_code = if report.ok() { 0 } else { 2 };
    if exit_code != 0 && !args.flag("json") {
        writeln!(
            out,
            "exit 2: {} oracle violation(s) across the schedule space",
            report.violation_count()
        )?;
    }
    Ok(CmdOutput::new(out, exit_code))
}

/// `foces harden <scenario> [--budget N] [--cap N]`.
pub fn harden_cmd(args: &Args) -> Result<String, CmdError> {
    let (_, dep) = load(args)?;
    let budget: usize = args.num("budget", 10_000)?;
    let cap: usize = args.num("cap", usize::MAX)?;
    let outcome = harden(&dep.view, budget, cap);
    let mut out = String::new();
    writeln!(
        out,
        "coverage: {:.1}% -> {:.1}%",
        100.0 * outcome.coverage_before,
        100.0 * outcome.coverage_after
    )?;
    writeln!(
        out,
        "installed {} dedicated rules across {} flows (budget {budget})",
        outcome.installed.len(),
        outcome.flows_split
    )?;
    if outcome.coverage_after < 1.0 {
        writeln!(out, "warning: budget exhausted before full coverage")?;
    }
    Ok(out)
}

/// `foces scenario <family>` — prints a template.
pub fn scenario_template(args: &Args) -> Result<String, CmdError> {
    let family = args.positional(0).unwrap_or("ring");
    let body = match family {
        "fattree" => "topology fattree 4\ngranularity per-pair\nall-pairs 1000\n",
        "bcube" => "topology bcube 1 4\ngranularity per-pair\nall-pairs 1000\n",
        "dcell" => "topology dcell 1 4\ngranularity per-pair\nall-pairs 1000\n",
        "stanford" => "topology stanford\ngranularity per-pair\nall-pairs 1000\n",
        "linear" => "topology linear 4\nflow h0 h3 1000\nflow h3 h0 1000\n",
        "ring" => {
            "\
# A 6-switch ring with a waypointed flow taking the long way round.
topology ring 6
granularity per-pair
all-pairs 500
flow-via h0 h2 1000 s4
"
        }
        other => return Err(format!("unknown scenario family {other:?}").into()),
    };
    Ok(format!("# foces scenario template: {family}\n{body}"))
}

/// Dispatches a full argument vector (excluding `argv[0]`).
pub fn dispatch(raw: &[String]) -> Result<CmdOutput, CmdError> {
    let args = parse(raw)?;
    match args.verb().name {
        "topo" => topo(&args).map(CmdOutput::clean),
        "detect" => detect(&args).map(CmdOutput::clean),
        "monitor" => monitor(&args).map(CmdOutput::clean),
        "run" => run_service(&args),
        "cluster" => cluster_run(&args),
        "stream" => stream_run(&args),
        "redteam" => redteam(&args),
        "scale" => scale(&args),
        "audit" => audit(&args),
        "coverage" => coverage_cmd(&args),
        "interleave" => interleave(&args),
        "harden" => harden_cmd(&args).map(CmdOutput::clean),
        "scenario" => scenario_template(&args).map(CmdOutput::clean),
        "help" => Ok(CmdOutput::clean(match args.positional(0) {
            Some(verb) => args::verb_help(VERBS, verb)?,
            None => args::help(VERBS),
        })),
        other => unreachable!("verb {other} is declared in VERBS but not dispatched"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn scenario_file(content: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "foces-cli-test-{}-{}.foces",
            std::process::id(),
            content.len()
        ));
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(content.as_bytes()).unwrap();
        path
    }

    fn run(cmdline: Vec<String>) -> Result<String, CmdError> {
        dispatch(&cmdline).map(|o| o.report)
    }

    fn run_full(cmdline: Vec<String>) -> Result<CmdOutput, CmdError> {
        dispatch(&cmdline)
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_and_unknown_command() {
        assert!(run(vec![]).unwrap().contains("USAGE"));
        assert!(run(argv(&["help"])).unwrap().contains("USAGE"));
        assert!(run(argv(&["frobnicate"])).is_err());
    }

    #[test]
    fn topo_reports_statistics() {
        let path = scenario_file("topology bcube 1 4\nall-pairs 1000\n");
        let out = run(argv(&["topo", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("switches:      24"));
        assert!(out.contains("flows:         240"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn detect_healthy_and_compromised() {
        let path = scenario_file("topology ring 5\nall-pairs 1000\n");
        let healthy = run(argv(&["detect", path.to_str().unwrap()])).unwrap();
        assert!(healthy.contains("normal"), "{healthy}");
        let attacked = run(argv(&[
            "detect",
            path.to_str().unwrap(),
            "--modify",
            "1",
            "--sliced",
        ]))
        .unwrap();
        assert!(attacked.contains("ANOMALY"), "{attacked}");
        assert!(attacked.contains("suspect"), "{attacked}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn monitor_runs_attack_cycle() {
        let path = scenario_file("topology ring 5\nall-pairs 1000\n");
        let out = run(argv(&[
            "monitor",
            path.to_str().unwrap(),
            "--rounds",
            "12",
            "--attack-at",
            "4",
            "--repair-at",
            "8",
            "--seed",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("[attack"), "{out}");
        assert!(out.contains("ALARM"), "{out}");
        assert!(out.contains("alarm cleared"), "{out}");
        assert!(out.contains("final state: normal"), "{out}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn run_handles_faults_and_an_attack_cycle() {
        let path = scenario_file("topology ring 5\nall-pairs 1000\n");
        let out = run(argv(&[
            "run",
            path.to_str().unwrap(),
            "--epochs=12",
            "--drop=0.05",
            "--jitter=2",
            "--attack-at=4",
            "--repair-at=8",
            "--seed=3",
        ]))
        .unwrap();
        assert!(out.contains("oracle: full-system coverage"), "{out}");
        assert!(out.contains("[attack on s"), "{out}");
        assert!(out.contains("ALARM"), "{out}");
        assert!(out.contains("[repaired]"), "{out}");
        assert!(out.contains("final state: normal"), "{out}");
        assert!(out.contains("\"epochs\":12"), "{out}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn run_reports_degraded_rounds_and_writes_the_log() {
        let path = scenario_file("topology ring 5\nall-pairs 1000\n");
        let log =
            std::env::temp_dir().join(format!("foces-cli-run-log-{}.jsonl", std::process::id()));
        let out = run(argv(&[
            "run",
            path.to_str().unwrap(),
            "--epochs=6",
            "--loss=0",
            "--offline=2",
            "--offline-from=1",
            "--offline-to=3",
            "--log",
            log.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("DEGRADED missing [s2]"), "{out}");
        assert!(out.contains("masked coverage"), "{out}");
        assert!(out.contains("final state: normal"), "{out}");
        let lines: Vec<String> = std::fs::read_to_string(&log)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[1].contains("\"mode\":\"Degraded\""), "{}", lines[1]);
        assert!(lines[0].contains("\"mode\":\"Full\""), "{}", lines[0]);
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(log);
    }

    #[test]
    fn run_with_churn_reconciles_and_exits_clean() {
        let path = scenario_file("topology ring 5\nall-pairs 1000\n");
        let out = run_full(argv(&[
            "run",
            path.to_str().unwrap(),
            "--epochs=8",
            "--loss=0",
            "--churn=2",
            "--churn-seed=5",
        ]))
        .unwrap();
        assert_eq!(out.exit_code, 0, "{}", out.report);
        assert!(
            out.report.contains("RECONCILED rule churn"),
            "{}",
            out.report
        );
        assert!(out.report.contains("flows quarantined"), "{}", out.report);
        assert!(out.report.contains("alarms: 0 raised"), "{}", out.report);
        assert!(out.report.contains("fcm rebuilds"), "{}", out.report);
        assert!(out.report.contains("final state: normal"), "{}", out.report);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn run_exits_nonzero_on_unresolved_alarm() {
        let path = scenario_file("topology ring 5\nall-pairs 1000\n");
        let out = run_full(argv(&[
            "run",
            path.to_str().unwrap(),
            "--epochs=8",
            "--loss=0",
            "--attack-at=4",
            "--repair-at=99",
            "--seed=3",
        ]))
        .unwrap();
        assert_eq!(out.exit_code, 2, "{}", out.report);
        assert!(out.report.contains("ALARM"), "{}", out.report);
        assert!(
            out.report
                .contains("exit 2: run ended with an unresolved alarm"),
            "{}",
            out.report
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn stream_runs_attack_cycle_and_exits_clean() {
        let path = scenario_file("topology ring 5\nall-pairs 1000\n");
        let log =
            std::env::temp_dir().join(format!("foces-cli-stream-log-{}.jsonl", std::process::id()));
        let out = run_full(argv(&[
            "stream",
            path.to_str().unwrap(),
            "--duration-ms=600",
            "--regions=2",
            "--poll-ms=20",
            "--adaptive",
            "--attack-at=200",
            "--repair-at=400",
            "--log",
            log.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(out.exit_code, 0, "{}", out.report);
        assert!(out.report.contains("stream: 2 regions"), "{}", out.report);
        assert!(out.report.contains("poll adaptive"), "{}", out.report);
        assert!(out.report.contains("first verdict"), "{}", out.report);
        assert!(
            out.report.contains("alarms: 1 raised, 1 cleared"),
            "{}",
            out.report
        );
        assert!(
            out.report.contains("ground-truth parity: true"),
            "{}",
            out.report
        );
        assert!(out.report.contains("final state: normal"), "{}", out.report);
        assert!(out.report.contains("\"ttfv_ms\":"), "{}", out.report);
        let text = std::fs::read_to_string(&log).unwrap();
        assert!(text.contains("\"mode\":\"stream\""), "{text}");
        assert!(text.contains("\"event\":\"inject\""), "{text}");
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(log);
    }

    #[test]
    fn stream_exits_2_on_unrepaired_attack() {
        let path = scenario_file("topology ring 5\nall-pairs 1000\n");
        let out = run_full(argv(&[
            "stream",
            path.to_str().unwrap(),
            "--duration-ms=500",
            "--regions=2",
            "--poll-ms=20",
            "--attack-at=200",
        ]))
        .unwrap();
        assert_eq!(out.exit_code, 2, "{}", out.report);
        assert!(
            out.report
                .contains("exit 2: stream ended with an unresolved alarm"),
            "{}",
            out.report
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn run_localizes_a_naive_liar_and_exits_clean() {
        let path = scenario_file("topology fattree 4\ngranularity per-pair\nall-pairs 240000\n");
        let out = run_full(argv(&[
            "run",
            path.to_str().unwrap(),
            "--epochs=14",
            "--loss=0",
            "--latency=1",
            "--jitter=0",
            "--liars=1",
            "--fake-at=2",
            "--confess-at=9",
        ]))
        .unwrap();
        assert_eq!(out.exit_code, 0, "{}", out.report);
        assert!(
            out.report.contains("[liars compromised: s"),
            "{}",
            out.report
        );
        assert!(out.report.contains("LOCALIZED liar s"), "{}", out.report);
        assert!(out.report.contains("[liars confessed]"), "{}", out.report);
        assert!(
            out.report
                .contains("byzantine: 1 localized, 1 quarantined, 1 released"),
            "{}",
            out.report
        );
        assert!(
            out.report.contains("\"liars_localized\":1"),
            "{}",
            out.report
        );
        assert!(out.report.contains("final state: normal"), "{}", out.report);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn stream_localizes_a_liar_with_adaptive_cadence() {
        let path = scenario_file("topology fattree 4\ngranularity per-pair\nall-pairs 240000\n");
        let out = run_full(argv(&[
            "stream",
            path.to_str().unwrap(),
            "--duration-ms=500",
            "--regions=2",
            "--poll-ms=10",
            "--adaptive",
            "--poll-max-ms=80",
            "--liars=1",
            "--fake-at=40",
            "--confess-at=260",
        ]))
        .unwrap();
        assert_eq!(out.exit_code, 0, "{}", out.report);
        assert!(
            out.report
                .contains("byzantine: 1 localized, 1 quarantined, 1 released"),
            "{}",
            out.report
        );
        assert!(out.report.contains("\"loo_downdates\":"), "{}", out.report);
        assert!(out.report.contains("final state: normal"), "{}", out.report);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn redteam_sweeps_and_writes_the_grid() {
        let path = scenario_file("topology ring 5\nall-pairs 1000\n");
        let json =
            std::env::temp_dir().join(format!("foces-cli-redteam-{}.json", std::process::id()));
        let out = run_full(argv(&[
            "redteam",
            path.to_str().unwrap(),
            "--epochs=6",
            "--liars-max=1",
            "--strategies=naive",
            "--magnitudes=0.5,1.0",
            "--out",
            json.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(out.exit_code, 0, "{}", out.report);
        assert!(out.report.contains("wrote"), "{}", out.report);
        assert!(out.report.contains("evasion"), "{}", out.report);
        let text = std::fs::read_to_string(&json).unwrap();
        assert!(text.contains("\"bench\":\"redteam\""), "{text}");
        assert!(text.contains("\"cells\":["), "{text}");
        assert!(text.contains("\"min_detected_magnitude\":"), "{text}");
        assert!(text.contains("\"max_undetected_magnitude\":"), "{text}");
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(json);
    }

    #[test]
    fn redteam_rejects_unknown_strategy() {
        let path = scenario_file("topology ring 5\nall-pairs 1000\n");
        let e = run(argv(&[
            "redteam",
            path.to_str().unwrap(),
            "--strategies=quantum",
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("unknown fake strategy"), "{e}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn run_accepts_poll_policy_knobs() {
        let path = scenario_file("topology ring 5\nall-pairs 1000\n");
        let out = run_full(argv(&[
            "run",
            path.to_str().unwrap(),
            "--epochs=4",
            "--loss=0",
            "--poll-deadline-ms=200",
            "--attempt-timeout-ms=40",
            "--max-attempts=3",
        ]))
        .unwrap();
        assert_eq!(out.exit_code, 0, "{}", out.report);
        assert!(out.report.contains("final state: normal"), "{}", out.report);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn cluster_runs_attack_cycle_and_exits_clean() {
        let path = scenario_file("topology ring 5\nall-pairs 1000\n");
        let out = run_full(argv(&[
            "cluster",
            path.to_str().unwrap(),
            "--epochs=12",
            "--shards=2",
            "--attack-at=4",
            "--repair-at=8",
            "--seed=3",
        ]))
        .unwrap();
        assert_eq!(out.exit_code, 0, "{}", out.report);
        assert!(
            out.report.contains("partition: edge-cut(k=2)"),
            "{}",
            out.report
        );
        assert!(out.report.contains("[attack on s"), "{}", out.report);
        assert!(out.report.contains("ALARM"), "{}", out.report);
        assert!(out.report.contains("alarm cleared"), "{}", out.report);
        assert!(out.report.contains("final state: normal"), "{}", out.report);
        assert!(out.report.contains("warm /"), "{}", out.report);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn cluster_isolates_a_killed_shard_and_logs() {
        let path = scenario_file("topology ring 5\nall-pairs 1000\n");
        let log = std::env::temp_dir().join(format!(
            "foces-cli-cluster-log-{}.jsonl",
            std::process::id()
        ));
        let out = run_full(argv(&[
            "cluster",
            path.to_str().unwrap(),
            "--epochs=6",
            "--shards=2",
            "--kill-shard=0",
            "--kill-at=2",
            "--heal-at=4",
            "--log",
            log.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(out.exit_code, 0, "{}", out.report);
        assert!(
            out.report.contains("[shard 0 worker killed]"),
            "{}",
            out.report
        );
        assert!(
            out.report.contains("DEGRADED shards [0 (panic)]"),
            "{}",
            out.report
        );
        assert!(out.report.contains("row coverage"), "{}", out.report);
        assert!(
            out.report.contains("[shard 0 worker restarted]"),
            "{}",
            out.report
        );
        assert!(out.report.contains("final state: normal"), "{}", out.report);
        let lines: Vec<String> = std::fs::read_to_string(&log)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[2].contains("\"reason\":\"panic\""), "{}", lines[2]);
        assert!(lines[0].contains("\"mode\":\"cluster\""), "{}", lines[0]);
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(log);
    }

    #[test]
    fn cluster_exits_2_on_unresolved_alarm() {
        let path = scenario_file("topology ring 5\nall-pairs 1000\n");
        let out = run_full(argv(&[
            "cluster",
            path.to_str().unwrap(),
            "--epochs=8",
            "--shards=2",
            "--attack-at=4",
            "--repair-at=99",
            "--seed=3",
        ]))
        .unwrap();
        assert_eq!(out.exit_code, 2, "{}", out.report);
        assert!(
            out.report
                .contains("exit 2: run ended with an unresolved alarm"),
            "{}",
            out.report
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn cluster_rejects_bad_partition_and_region() {
        let path = scenario_file("topology ring 5\nall-pairs 1000\n");
        let e = run(argv(&[
            "cluster",
            path.to_str().unwrap(),
            "--partition=voronoi",
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("--partition"), "{e}");
        let e = run(argv(&[
            "cluster",
            path.to_str().unwrap(),
            "--shards=2",
            "--kill-shard=9",
            "--kill-at=0",
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("out of range"), "{e}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn audit_and_harden_round_trip() {
        let path = scenario_file("topology fattree 4\ngranularity per-dest\nall-pairs 1000\n");
        let audit_out = run_full(argv(&["audit", path.to_str().unwrap()])).unwrap();
        assert_eq!(audit_out.exit_code, 0, "{}", audit_out.report);
        let audit_out = audit_out.report;
        assert!(audit_out.contains("static check: clean"), "{audit_out}");
        assert!(audit_out.contains("blind spots:  224"), "{audit_out}");
        let harden_out = run(argv(&[
            "harden",
            path.to_str().unwrap(),
            "--budget",
            "5000",
        ]))
        .unwrap();
        assert!(harden_out.contains("-> 100.0%"), "{harden_out}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn audit_exits_3_on_shadowed_rules() {
        // The waypointed pair rules (priority 12) fully cover the plain
        // per-pair shortest-path rules (priority 10) for the same pair at
        // the shared endpoints of both paths: dead rules, exit 3.
        let path = scenario_file(
            "topology ring 6\ngranularity per-pair\nall-pairs 500\nflow-via h0 h2 1000 s4\n",
        );
        let out = run_full(argv(&["audit", path.to_str().unwrap()])).unwrap();
        assert_eq!(out.exit_code, 3, "{}", out.report);
        assert!(out.report.contains("[shadowed]"), "{}", out.report);
        assert!(
            out.report
                .contains("exit 3: static verification found violations"),
            "{}",
            out.report
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn audit_json_renders_jsonl() {
        let path = scenario_file("topology ring 5\nall-pairs 1000\n");
        let out = run_full(argv(&["audit", path.to_str().unwrap(), "--json"])).unwrap();
        assert_eq!(out.exit_code, 0, "{}", out.report);
        let lines: Vec<&str> = out.report.lines().collect();
        assert_eq!(lines.len(), 2, "{}", out.report);
        assert!(lines[0].contains("\"event\":\"verify\""), "{}", lines[0]);
        assert!(lines[0].contains("\"clean\":true"), "{}", lines[0]);
        assert!(
            lines[1].contains("\"event\":\"detectability\""),
            "{}",
            lines[1]
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn coverage_clean_on_fattree_strict_exit_0() {
        let path = scenario_file("topology fattree 4\ngranularity per-pair\nall-pairs 1000\n");
        let out = run_full(argv(&["coverage", path.to_str().unwrap(), "--strict"])).unwrap();
        assert_eq!(out.exit_code, 0, "{}", out.report);
        assert!(out.report.contains("0 warnings"), "{}", out.report);
        assert!(out.report.contains("localizable"), "{}", out.report);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn coverage_warns_on_the_ring_with_a_certificate_and_strict_exit_4() {
        let path = scenario_file("topology ring 4\ngranularity per-pair\nall-pairs 12000\n");
        let out = run_full(argv(&["coverage", path.to_str().unwrap()])).unwrap();
        assert_eq!(out.exit_code, 0, "no --strict: report only");
        assert!(
            out.report.contains("row-share-absorption"),
            "{}",
            out.report
        );
        assert!(out.report.contains("certificate: u ≈"), "{}", out.report);
        let strict = run_full(argv(&["coverage", path.to_str().unwrap(), "--strict"])).unwrap();
        assert_eq!(strict.exit_code, 4, "{}", strict.report);
        assert!(strict.report.contains("exit 4"), "{}", strict.report);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn coverage_json_with_shards_renders_jsonl() {
        let path = scenario_file("topology ring 4\ngranularity per-pair\nall-pairs 12000\n");
        let out = run_full(argv(&[
            "coverage",
            path.to_str().unwrap(),
            "--shards",
            "2",
            "--json",
        ]))
        .unwrap();
        assert_eq!(out.exit_code, 0, "{}", out.report);
        let lines: Vec<&str> = out.report.lines().collect();
        assert!(lines[0].contains("\"event\":\"coverage\""), "{}", lines[0]);
        assert!(lines[0].contains("\"shards\":2"), "{}", lines[0]);
        assert!(
            lines[1..]
                .iter()
                .all(|l| l.contains("\"event\":\"coverage-finding\"")),
            "{}",
            out.report
        );
        assert!(
            out.report.contains("\"kind\":\"row-share-absorption\""),
            "{}",
            out.report
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn interleave_bounded_sample_is_sound_and_deterministic() {
        let path =
            scenario_file("topology fattree 4\ngranularity per-pair\nall-pairs-sample 1000 60 7\n");
        let cmd = |extra: &[&str]| {
            let mut parts = vec!["interleave", path.to_str().unwrap()];
            parts.extend_from_slice(extra);
            run_full(argv(&parts)).unwrap()
        };
        let human = cmd(&[
            "--updates=1",
            "--segments=2",
            "--schedules=2",
            "--seed=5",
            "--no-dropper",
            "--no-fanout",
        ]);
        assert_eq!(human.exit_code, 0, "{}", human.report);
        assert!(
            human.report.contains("schedules: 2 explored"),
            "{}",
            human.report
        );
        assert!(
            human.report.contains("verdict: all 2 schedules sound"),
            "{}",
            human.report
        );
        let json_args = [
            "--updates=1",
            "--segments=2",
            "--schedules=2",
            "--seed=5",
            "--no-dropper",
            "--no-fanout",
            "--json",
        ];
        let a = cmd(&json_args);
        let b = cmd(&json_args);
        assert_eq!(a.exit_code, 0, "{}", a.report);
        assert_eq!(
            a.report, b.report,
            "same seed must give byte-identical logs"
        );
        let lines: Vec<&str> = a.report.lines().collect();
        assert!(
            lines[0].contains("\"event\":\"interleave-plan\""),
            "{}",
            lines[0]
        );
        assert!(
            lines.last().unwrap().contains("\"violations\":0"),
            "{}",
            a.report
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn coverage_strict_refuses_run_and_stream_with_exit_4() {
        let path = scenario_file("topology ring 4\ngranularity per-pair\nall-pairs 12000\n");
        let run_out = run_full(argv(&[
            "run",
            path.to_str().unwrap(),
            "--epochs",
            "1",
            "--coverage-strict",
        ]))
        .unwrap();
        assert_eq!(run_out.exit_code, 4, "{}", run_out.report);
        assert!(
            run_out.report.contains("exit 4: --coverage-strict"),
            "{}",
            run_out.report
        );
        let stream_out = run_full(argv(&[
            "stream",
            path.to_str().unwrap(),
            "--duration-ms",
            "50",
            "--regions",
            "2",
            "--coverage-strict",
        ]))
        .unwrap();
        assert_eq!(stream_out.exit_code, 4, "{}", stream_out.report);
        // Without the flag the same scenario runs to completion, exit 0.
        let plain = run_full(argv(&[
            "stream",
            path.to_str().unwrap(),
            "--duration-ms",
            "50",
            "--regions",
            "2",
        ]))
        .unwrap();
        assert_eq!(plain.exit_code, 0, "{}", plain.report);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn scenario_templates_parse() {
        for family in ["fattree", "bcube", "dcell", "stanford", "linear", "ring"] {
            let out = run(argv(&["scenario", family])).unwrap();
            let body: String = out
                .lines()
                .filter(|l| !l.starts_with('#'))
                .collect::<Vec<_>>()
                .join("\n");
            foces_controlplane::scenario::Scenario::parse(&body)
                .unwrap_or_else(|e| panic!("{family}: {e}"));
        }
        assert!(run(argv(&["scenario", "marsnet"])).is_err());
    }

    #[test]
    fn missing_file_reports_path() {
        let e = run(argv(&["topo", "/no/such/file.foces"])).unwrap_err();
        assert!(e.to_string().contains("/no/such/file.foces"));
    }

    #[test]
    fn scale_reads_only_declared_flags() {
        // `--flows-max` is read last, so a bad value there stops `scale`
        // before any sweep runs, after every other flag read has passed
        // the declaration check.
        let e = run(argv(&["scale", "--full", "--flows-max=x"])).unwrap_err();
        assert!(e.to_string().contains("--flows-max: cannot parse"), "{e}");
    }
}
