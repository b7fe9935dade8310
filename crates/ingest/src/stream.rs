//! The event-driven stream driver: continuous ingestion with
//! shard-complete detection triggers.
//!
//! The lockstep runtime ([`foces_runtime::ScenarioDriver`]) runs the
//! paper's loop as poll-everyone-then-wait: every epoch blocks on the
//! slowest switch anywhere before a single verdict exists.
//! [`StreamDriver`] replaces the round with a simulated-time event loop
//! ([`crate::EventQueue`]): per-switch poll timers fire [`PollDue`]
//! events, replies travel through the per-link channel models
//! ([`crate::IngestChannel`]) and arrive *continuously and out of
//! order*, retries and timeouts are themselves scheduled events, and the
//! moment one shard's members are all fresh
//! ([`foces_cluster::ShardCompletion`]) that shard's detection fires —
//! while slower regions are still collecting. Time-to-first-verdict is
//! decoupled from the slowest link.
//!
//! Out-of-order arrivals are merged through the same generation-stamp
//! reconciliation the lockstep path uses: a reply stamped newer than the
//! FCM build, or a journal that moved since it, turns the shard's round
//! into a quarantined solve (journaled rules' rows, the flows through
//! them, and their closure rows all excluded) instead of a false alarm.
//! A [`Rebuild`] event scheduled `settle_ms` after each churn action
//! re-derives the FCM and shards, after which rounds return to warm
//! incremental solves.
//!
//! Everything is deterministic given the seeds: event times are integer
//! microseconds, ties pop FIFO, and all randomness flows through the
//! seeded fault model and scenario RNGs. Two runs with the same
//! configuration produce byte-identical JSONL.
//!
//! [`PollDue`]: StreamEvent::PollDue
//! [`Rebuild`]: StreamEvent::Rebuild

use crate::cadence::{CadenceConfig, PollCadence};
use crate::event::{EventQueue, SimTime};
use crate::link::{IngestChannel, LinkSpec};
use crate::metrics::IngestMetrics;
use foces::{
    analyze_cluster_coverage, AlarmState, BackendKind, CoverageConfig, CoverageReport, Detector,
    Fcm, FocesError, IncrementalSolver, LiarLifecycle, LiarRound, RankBudget, ShardUnionVerdict,
    ShardedFcm, SuspicionTracker,
};
use foces_channel::{
    plan_collusion, ChannelError, CollusionInputs, ControllerMsg, Delivery, FakeStrategy,
    FaultProfile, ForgingAgent, HonestAgent, RuleFacts, SwitchAgent, SwitchMsg, Transport,
};
use foces_cluster::ShardCompletion;
use foces_controlplane::Deployment;
use foces_dataplane::{inject_random_anomaly, AnomalyKind, AppliedAnomaly, LossModel, RuleRef};
use foces_net::{partition, Partition, PartitionSpec, SwitchId};
use foces_runtime::metrics::{json_f64, json_str};
use foces_runtime::{AlarmMachine, ByzantineConfig, EventLog, HysteresisConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// Everything that can go wrong inside a stream run.
#[derive(Debug)]
pub enum StreamError {
    /// A wire-level protocol violation from the channel layer.
    Channel(ChannelError),
    /// A solver error from a shard detection round.
    Solve(FocesError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Channel(e) => write!(f, "stream channel error: {e}"),
            StreamError::Solve(e) => write!(f, "stream solve error: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<ChannelError> for StreamError {
    fn from(e: ChannelError) -> Self {
        StreamError::Channel(e)
    }
}

impl From<FocesError> for StreamError {
    fn from(e: FocesError) -> Self {
        StreamError::Solve(e)
    }
}

/// A scripted control-plane/data-plane mutation, scheduled at an absolute
/// stream time.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamAction {
    /// Inject a random forwarding anomaly of the given kind (no-op if one
    /// is already active).
    Inject(AnomalyKind),
    /// Repair the active anomaly (no-op if none).
    Revert,
    /// One rolling-update step: reroute a random flow mid-window so the
    /// counters genuinely mix rule generations, then schedule a
    /// [`StreamEvent::Rebuild`] `settle_ms` later.
    Churn,
    /// Compromise `liars` switches: forging agents replace their honest
    /// ones and (for the evasion strategies) a real early-drop anomaly is
    /// planted at each liar for the forged counters to hide. No-op if
    /// liars are already active.
    Compromise {
        /// How many switches turn Byzantine.
        liars: usize,
        /// How the forged reports coordinate.
        strategy: FakeStrategy,
        /// Forgery interpolation λ ∈ [0, 1].
        magnitude: f64,
    },
    /// The liars confess: honest agents are restored and cover anomalies
    /// repaired (no-op if nobody is lying).
    Confess,
}

/// Tunables for one stream run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Simulated run length, ms.
    pub duration_ms: f64,
    /// Number of partition regions (edge-cut shards).
    pub regions: usize,
    /// Per-switch adaptive poll cadence.
    pub cadence: CadenceConfig,
    /// Per-attempt reply timeout, ms.
    pub attempt_timeout_ms: f64,
    /// Attempts per poll cycle before the cycle is abandoned.
    pub max_attempts: u32,
    /// Churn-to-rebuild settle delay, ms.
    pub settle_ms: f64,
    /// Alarm hysteresis configuration.
    pub hysteresis: HysteresisConfig,
    /// Default per-switch fault profile.
    pub profile: FaultProfile,
    /// Default per-switch access-hop spec.
    pub access: LinkSpec,
    /// Default per-region shared-uplink spec.
    pub uplink: LinkSpec,
    /// A region whose members get extra access propagation (the "slow
    /// region" of the benchmark scenario).
    pub slow_region: Option<usize>,
    /// Extra one-way access propagation for the slow region, ms.
    pub slow_extra_ms: f64,
    /// Seed for the channel fault model.
    pub seed: u64,
    /// Seed for churn flow/waypoint choices.
    pub churn_seed: u64,
    /// Seed for anomaly placement.
    pub anomaly_seed: u64,
    /// Seed for choosing which switches lie under
    /// [`StreamAction::Compromise`].
    pub liar_seed: u64,
    /// Byzantine-resilience layer (suspicion, liar localization,
    /// quarantine) — shared tunables with the lockstep runtime.
    pub byzantine: ByzantineConfig,
    /// Solve backend for every solve a round makes: the per-region warm
    /// solvers, reconciled and degraded region rounds, the network-wide
    /// union and the k-resilience probes. The default sparse engine
    /// solves on the factor memoized on each region's (or masked) FCM;
    /// `Dense` forms and factors a dense Gram per call.
    pub backend: BackendKind,
}

impl Default for StreamConfig {
    /// 2 s, 4 regions, default cadence/links, 40 ms attempt timeout,
    /// 5 attempts, 100 ms settle, no slow region.
    fn default() -> Self {
        StreamConfig {
            duration_ms: 2000.0,
            regions: 4,
            cadence: CadenceConfig::default(),
            attempt_timeout_ms: 40.0,
            max_attempts: 5,
            settle_ms: 100.0,
            hysteresis: HysteresisConfig::default(),
            profile: FaultProfile::default(),
            access: LinkSpec::default(),
            uplink: LinkSpec::default(),
            slow_region: None,
            slow_extra_ms: 20.0,
            seed: 0,
            churn_seed: 7,
            anomaly_seed: 4,
            liar_seed: 11,
            byzantine: ByzantineConfig::default(),
            backend: BackendKind::default(),
        }
    }
}

/// One event in the stream's simulated-time loop.
#[derive(Debug, Clone)]
pub enum StreamEvent {
    /// A switch's poll timer fired: start a poll cycle.
    PollDue(SwitchId),
    /// A reply delivered by the channel arrives at the controller.
    Arrival {
        /// The switch whose agent produced the reply.
        switch: SwitchId,
        /// The transaction id of the *request* this delivery answers.
        xid: u32,
        /// The reply itself (possibly a stale, reordered one).
        reply: SwitchMsg,
    },
    /// An attempt's reply deadline passed.
    Timeout {
        /// The polled switch.
        switch: SwitchId,
        /// The attempt's transaction id.
        xid: u32,
    },
    /// A scripted action (index into the script).
    Action(usize),
    /// Re-derive FCM + shards after churn settled.
    Rebuild,
}

/// Outcome of one stream run.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Aggregate stream counters and latency milestones.
    pub metrics: IngestMetrics,
    /// Final alarm state.
    pub alarm_state: AlarmState,
    /// Ground-truth sharded verdict over the data plane's final counters.
    pub final_union: ShardUnionVerdict,
    /// Each region's *last* stream verdict (region, anomalous), ascending.
    pub stream_verdicts: Vec<(usize, bool)>,
}

impl StreamReport {
    /// Does every region's last stream verdict agree with the ground-truth
    /// union at end of run? (Meaningful when the run ends quiescent:
    /// mutations long settled and every shard has fired since.)
    pub fn verdict_parity(&self) -> bool {
        self.stream_verdicts.iter().all(|&(region, anomalous)| {
            self.final_union
                .per_shard
                .iter()
                .find(|(r, _)| *r == region)
                .is_some_and(|(_, v)| v.anomalous == anomalous)
        })
    }
}

#[derive(Debug, Clone, Copy)]
struct Outstanding {
    xid: u32,
    attempts: u32,
}

/// Drives one deployment through a scripted stream (see module docs).
pub struct StreamDriver {
    dep: Deployment,
    config: StreamConfig,
    script: Vec<(f64, StreamAction)>,
    partition: Partition,
    channel: IngestChannel,
    agents: HashMap<SwitchId, Box<dyn SwitchAgent>>,
    /// All switches, ascending — the deterministic iteration order.
    switches: Vec<SwitchId>,
    queue: EventQueue<StreamEvent>,
    detector: Detector,
    fcm: Fcm,
    sharded: ShardedFcm,
    fcm_generation: u64,
    /// Per-switch `(fcm_row, table_index)` scatter map.
    rows_of: HashMap<SwitchId, Vec<(usize, usize)>>,
    /// Latest accepted counter per FCM row (continuously overwritten).
    full: Vec<f64>,
    /// Rows whose counter has arrived at least once since the last
    /// rebuild. A shard can complete (all *members* fresh) while closure
    /// rows on neighbouring regions are still unsampled — those rows are
    /// masked out of the shard's solve, never fabricated as zeros.
    observed: Vec<bool>,
    /// Latest accepted generation stamp per switch.
    gen_of: HashMap<SwitchId, u64>,
    completion: ShardCompletion,
    solvers: HashMap<usize, IncrementalSolver>,
    cadence: HashMap<SwitchId, PollCadence>,
    outstanding: HashMap<SwitchId, Outstanding>,
    alarm: AlarmMachine,
    inject_rng: StdRng,
    churn_rng: StdRng,
    applied: Option<AppliedAnomaly>,
    next_xid: u32,
    metrics: IngestMetrics,
    log: EventLog,
    /// Regions that have fired at least once (for the TTAV milestone).
    fired: Vec<bool>,
    last_verdict: HashMap<usize, bool>,
    first_inject_at: Option<f64>,
    /// Byzantine layer: suspicion, leave-one-out, quarantine, re-probe.
    lifecycle: LiarLifecycle,
    /// Byzantine suspicion high-water mark from the previous scored round
    /// (drives the cadence suspicion trigger).
    last_suspicion: f64,
    /// Pre-flight coverage analysis of the stream's FCM + partition
    /// (refreshed on every rebuild; `None` only for an empty plane).
    coverage: Option<CoverageReport>,
    liar_rng: StdRng,
    liars: Vec<SwitchId>,
    forging: Vec<SwitchId>,
    fake_strategy: FakeStrategy,
    fake_magnitude: f64,
    cover_anomalies: Vec<AppliedAnomaly>,
    stale_snapshot: BTreeMap<(SwitchId, usize), f64>,
    original_tables: BTreeMap<SwitchId, Vec<foces_dataplane::Rule>>,
}

impl StreamDriver {
    /// Builds the driver: honest agents over an [`IngestChannel`] derived
    /// from `config`, shards from an edge-cut partition, steady traffic
    /// already replayed.
    pub fn new(
        mut dep: Deployment,
        config: StreamConfig,
        script: Vec<(f64, StreamAction)>,
    ) -> Self {
        let part = partition(
            dep.view.topology(),
            PartitionSpec::EdgeCut { k: config.regions },
        );
        let members = part.regions().to_vec();
        let mut channel = IngestChannel::new(
            config.seed,
            config.profile.clone(),
            config.access.clone(),
            config.uplink.clone(),
            &members,
        );
        if let Some(r) = config.slow_region {
            if let Some(region) = members.get(r) {
                for &sw in region {
                    channel.set_access(
                        sw,
                        LinkSpec {
                            propagation_ms: config.access.propagation_ms + config.slow_extra_ms,
                            ..config.access.clone()
                        },
                    );
                }
            }
        }
        let mut switches: Vec<SwitchId> = dep.view.topology().switches().collect();
        switches.sort_unstable();
        let agents = switches
            .iter()
            .map(|&s| (s, Box::new(HonestAgent::new(s)) as Box<dyn SwitchAgent>))
            .collect();
        let cadence = switches
            .iter()
            .map(|&s| (s, PollCadence::new(config.cadence.clone())))
            .collect();
        dep.dataplane.reset_counters();
        dep.replay_traffic(&mut LossModel::none());
        let fcm = Fcm::from_view(&dep.view);
        let sharded = ShardedFcm::from_fcm(&fcm, &part);
        let rows_of = Self::row_map(&fcm);
        let full = vec![0.0; fcm.rule_count()];
        let completion = ShardCompletion::new(members);
        let fcm_generation = dep.view.generation();
        let alarm = AlarmMachine::new(config.hysteresis);
        let inject_rng = StdRng::seed_from_u64(config.anomaly_seed);
        let churn_rng = StdRng::seed_from_u64(config.churn_seed);
        let fired = vec![false; sharded.shard_count()];
        let lifecycle = LiarLifecycle::new(config.byzantine);
        let liar_rng = StdRng::seed_from_u64(config.liar_seed);
        let detector = Detector::default().with_backend(config.backend);
        // Pre-flight: score detectability and localization coverage of the
        // plane this stream is about to watch, before any counters arrive.
        let coverage = analyze_cluster_coverage(&fcm, &sharded, &CoverageConfig::default()).ok();
        let mut metrics = IngestMetrics::default();
        if let Some(cov) = &coverage {
            metrics.coverage_warnings = cov.warn_count() as u64;
        }
        StreamDriver {
            dep,
            config,
            script,
            partition: part,
            channel,
            agents,
            switches,
            queue: EventQueue::new(),
            detector,
            fcm,
            sharded,
            fcm_generation,
            rows_of,
            observed: vec![false; full.len()],
            full,
            gen_of: HashMap::new(),
            completion,
            solvers: HashMap::new(),
            cadence,
            outstanding: HashMap::new(),
            alarm,
            inject_rng,
            churn_rng,
            applied: None,
            next_xid: 1,
            metrics,
            log: EventLog::in_memory(),
            fired,
            last_verdict: HashMap::new(),
            first_inject_at: None,
            lifecycle,
            last_suspicion: 0.0,
            coverage,
            liar_rng,
            liars: Vec::new(),
            forging: Vec::new(),
            fake_strategy: FakeStrategy::Naive,
            fake_magnitude: 1.0,
            cover_anomalies: Vec::new(),
            stale_snapshot: BTreeMap::new(),
            original_tables: BTreeMap::new(),
        }
    }

    fn row_map(fcm: &Fcm) -> HashMap<SwitchId, Vec<(usize, usize)>> {
        let mut m: HashMap<SwitchId, Vec<(usize, usize)>> = HashMap::new();
        for (row, r) in fcm.rules().iter().enumerate() {
            m.entry(r.switch).or_default().push((row, r.index));
        }
        m
    }

    /// Replaces the (in-memory) event log, e.g. with a file-backed one.
    pub fn install_log(&mut self, log: EventLog) {
        self.log = log;
    }

    /// The JSONL event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// The stream metrics so far.
    pub fn metrics(&self) -> &IngestMetrics {
        &self.metrics
    }

    /// The deployment under test.
    pub fn deployment(&self) -> &Deployment {
        &self.dep
    }

    /// The Byzantine suspicion tracker (empty while the layer is off).
    pub fn suspicion(&self) -> &SuspicionTracker {
        self.lifecycle.suspicion()
    }

    /// The latest pre-flight coverage analysis (`None` only for an empty
    /// plane). Refreshed whenever a rebuild re-derives the FCM.
    pub fn coverage(&self) -> Option<&CoverageReport> {
        self.coverage.as_ref()
    }

    /// Switches currently under counter quarantine, ascending.
    pub fn quarantined_switches(&self) -> Vec<SwitchId> {
        self.lifecycle.quarantined().iter().copied().collect()
    }

    /// Whether the stream is in the unresolved-Byzantine state: the alarm
    /// is up but leave-one-out found no single switch whose removal makes
    /// the system consistent. The CLI exits 2 when a run ends here.
    pub fn byzantine_unresolved(&self) -> bool {
        self.lifecycle.unresolved()
    }

    /// The switches currently lying (empty when everyone is honest).
    pub fn liar_switches(&self) -> &[SwitchId] {
        &self.liars
    }

    /// Runs the stream to `duration_ms` and reports.
    ///
    /// # Errors
    ///
    /// [`StreamError`] on wire protocol violations or solver failures.
    pub fn run(&mut self) -> Result<StreamReport, StreamError> {
        let end = SimTime::from_ms(self.config.duration_ms);
        for i in 0..self.switches.len() {
            let sw = self.switches[i];
            self.queue.push(SimTime::ZERO, StreamEvent::PollDue(sw));
        }
        for (i, (at_ms, _)) in self.script.iter().enumerate() {
            self.queue
                .push(SimTime::from_ms(*at_ms), StreamEvent::Action(i));
        }
        let mut last = SimTime::ZERO;
        while let Some(t) = self.queue.peek_time() {
            if t > end {
                break;
            }
            let (now, event) = self.queue.pop().expect("peeked");
            last = now;
            self.metrics.events += 1;
            match event {
                StreamEvent::PollDue(sw) => self.on_poll_due(sw, now)?,
                StreamEvent::Arrival { switch, xid, reply } => {
                    self.on_arrival(switch, xid, reply, now)?
                }
                StreamEvent::Timeout { switch, xid } => self.on_timeout(switch, xid, now)?,
                StreamEvent::Action(i) => self.on_action(i, now),
                StreamEvent::Rebuild => self.on_rebuild(now),
            }
        }
        self.metrics.end_ms = last.as_ms();
        self.metrics.congestion_drops = self.channel.congestion_drops();
        let counters = self.fcm.counters_from(&self.dep.dataplane);
        let final_union = self.sharded.detect(&self.detector, &counters)?;
        let mut stream_verdicts: Vec<(usize, bool)> =
            self.last_verdict.iter().map(|(&r, &a)| (r, a)).collect();
        stream_verdicts.sort_unstable();
        Ok(StreamReport {
            metrics: self.metrics,
            alarm_state: self.alarm.state(),
            final_union,
            stream_verdicts,
        })
    }

    fn on_poll_due(&mut self, switch: SwitchId, now: SimTime) -> Result<(), StreamError> {
        if self.outstanding.contains_key(&switch) {
            // A cycle is still in flight (timer raced a slow reply): the
            // cycle's own completion reschedules, nothing to do.
            return Ok(());
        }
        self.metrics.polls += 1;
        self.outstanding.insert(
            switch,
            Outstanding {
                xid: 0,
                attempts: 0,
            },
        );
        self.dispatch(switch, now)
    }

    /// Sends one stats request attempt and schedules its arrival/timeout.
    fn dispatch(&mut self, switch: SwitchId, now: SimTime) -> Result<(), StreamError> {
        let xid = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1).max(1);
        let o = self.outstanding.get_mut(&switch).expect("cycle open");
        o.xid = xid;
        o.attempts += 1;
        self.metrics.attempts += 1;
        if o.attempts > 1 {
            self.metrics.retries += 1;
        }
        let agent = self.agents.get(&switch).expect("agent per switch");
        let td = self.channel.exchange_at(
            &self.dep.dataplane,
            agent.as_ref(),
            &ControllerMsg::StatsRequest { xid },
            now.as_ms(),
        )?;
        match td.delivery {
            Delivery::Delivered { reply, .. } => {
                self.queue.push(
                    SimTime::from_ms(td.at_ms),
                    StreamEvent::Arrival { switch, xid, reply },
                );
                self.queue.push(
                    now.after_ms(self.config.attempt_timeout_ms),
                    StreamEvent::Timeout { switch, xid },
                );
            }
            Delivery::Dropped => {
                self.metrics.drops += 1;
                self.queue.push(
                    now.after_ms(self.config.attempt_timeout_ms),
                    StreamEvent::Timeout { switch, xid },
                );
            }
            Delivery::Offline => {
                self.metrics.offline_polls += 1;
                self.outstanding.remove(&switch);
                let c = self.cadence.get_mut(&switch).expect("cadence per switch");
                c.on_activity();
                let interval = c.interval_ms();
                self.queue
                    .push(now.after_ms(interval), StreamEvent::PollDue(switch));
            }
        }
        Ok(())
    }

    fn on_timeout(&mut self, switch: SwitchId, xid: u32, now: SimTime) -> Result<(), StreamError> {
        let Some(o) = self.outstanding.get(&switch).copied() else {
            return Ok(()); // cycle already resolved
        };
        if o.xid != xid {
            return Ok(()); // a newer attempt superseded this one
        }
        self.metrics.timeouts += 1;
        if o.attempts >= self.config.max_attempts {
            self.metrics.unresponsive += 1;
            self.outstanding.remove(&switch);
            let c = self.cadence.get_mut(&switch).expect("cadence per switch");
            c.on_activity(); // an unreachable switch is exactly activity
            let interval = c.interval_ms();
            self.queue
                .push(now.after_ms(interval), StreamEvent::PollDue(switch));
            Ok(())
        } else {
            self.dispatch(switch, now)
        }
    }

    fn on_arrival(
        &mut self,
        switch: SwitchId,
        xid: u32,
        reply: SwitchMsg,
        now: SimTime,
    ) -> Result<(), StreamError> {
        let Some(o) = self.outstanding.get(&switch).copied() else {
            self.metrics.stale_replies += 1; // late reply, cycle over
            return Ok(());
        };
        let accepted = match reply {
            SwitchMsg::StatsReply {
                xid: rxid,
                generation,
                counters,
            } if rxid == xid && o.xid == xid => Some((generation, counters)),
            _ => None,
        };
        let Some((generation, counters)) = accepted else {
            // A reordered (stale-xid) reply, or one for a superseded
            // attempt: discard; the pending timeout drives the retry.
            self.metrics.stale_replies += 1;
            return Ok(());
        };
        self.outstanding.remove(&switch);
        self.metrics.samples += 1;
        if generation > self.fcm_generation {
            self.metrics.stale_generation_replies += 1;
        }
        self.gen_of.insert(switch, generation);
        if let Some(rows) = self.rows_of.get(&switch) {
            for &(row, idx) in rows {
                if let Some(&v) = counters.get(idx) {
                    // A non-finite reading is not a sample: the row goes
                    // unobserved until a usable one arrives.
                    let finite = v.is_finite();
                    if finite {
                        self.full[row] = v;
                    } else {
                        self.metrics.rejected_readings += 1;
                    }
                    self.observed[row] = finite;
                }
            }
        }
        if let Some(region) = self.completion.record(switch) {
            self.fire_shard(region, now)?;
            self.completion.reset(region);
        }
        let c = self.cadence.get_mut(&switch).expect("cadence per switch");
        let interval = c.interval_ms();
        self.queue
            .push(now.after_ms(interval), StreamEvent::PollDue(switch));
        Ok(())
    }

    /// One shard detection round, fired on the completion edge.
    fn fire_shard(&mut self, region: usize, now: SimTime) -> Result<(), FocesError> {
        let views = self.sharded.shard_views();
        let Some(vi) = views.iter().position(|v| v.region == region) else {
            return Ok(()); // empty shard: nothing to solve
        };
        let view = views[vi];
        let touched = self.dep.view.touched_rules_since(self.fcm_generation);
        let stale: Vec<SwitchId> = view
            .switches
            .iter()
            .copied()
            .filter(|s| self.gen_of.get(s).is_some_and(|&g| g > self.fcm_generation))
            .collect();
        let churn = !touched.is_empty() || !stale.is_empty();
        let sub_counters = view.sub_counters(&self.full);
        // A shard completes when its *members* are fresh, but its sub-FCM
        // also carries closure rows on neighbouring regions' switches; any
        // of those not sampled yet are masked out (a sound projection),
        // never solved as fabricated zeros.
        let mut sub_observed: Vec<bool> =
            view.parent_rows.iter().map(|&i| self.observed[i]).collect();
        // Quarantined switches' reports are withheld from every solve.
        self.lifecycle
            .withhold(view.sub_fcm.rules(), &mut sub_observed);
        let complete = sub_observed.iter().all(|&o| o);
        self.metrics.shard_rounds += 1;
        let (kind, verdict, scored_rules) = if churn || !complete {
            // Per-shard reconciliation, the PR-2 quarantine pattern on the
            // shard's sub-system — shared with the `foces-sched`
            // conformance harness so the checked round shape IS the
            // deployed one.
            let round = foces_cluster::reconcile_shard_round(
                &view,
                &self.fcm,
                &self.detector,
                &sub_counters,
                &sub_observed,
                &touched,
                churn,
            )?;
            match round.kind {
                foces_cluster::ShardRoundKind::Blind => self.metrics.blind_rounds += 1,
                foces_cluster::ShardRoundKind::Reconciled => self.metrics.reconciled_rounds += 1,
                foces_cluster::ShardRoundKind::Degraded => self.metrics.degraded_rounds += 1,
            }
            (round.kind.label(), round.verdict, round.scored_rules)
        } else {
            // Warm: the region was already solved since the last rebuild.
            // The driver labels the round, not the solve path, so the
            // dense reference (every solve cold) logs what the default does.
            let backend = self.config.backend;
            let warm = self.solvers.contains_key(&region);
            let solver = self
                .solvers
                .entry(region)
                .or_insert_with(|| IncrementalSolver::with_backend(RankBudget::default(), backend));
            let rules: Vec<RuleRef> = view.sub_fcm.rules().to_vec();
            let (v, _) = self
                .detector
                .detect_warm(view.sub_fcm, &sub_counters, solver)?;
            if warm {
                self.metrics.warm_rounds += 1;
                ("warm", Some(v), rules)
            } else {
                self.metrics.cold_rounds += 1;
                ("cold", Some(v), rules)
            }
        };
        let now_ms = now.as_ms();
        if self.metrics.ttfv_ms.is_none() {
            self.metrics.ttfv_ms = Some(now_ms);
        }
        if !self.fired[vi] {
            self.fired[vi] = true;
            if self.fired.iter().all(|&f| f) && self.metrics.ttav_ms.is_none() {
                self.metrics.ttav_ms = Some(now_ms);
            }
        }
        let mut anomalous = false;
        let mut ai = 0.0;
        let mut transition = None;
        if let Some(v) = &verdict {
            anomalous = v.anomalous;
            ai = v.anomaly_index;
            if anomalous {
                self.metrics.anomalous_rounds += 1;
            }
            let t = self.alarm.observe(anomalous, churn);
            if t.raised {
                self.metrics.alarms_raised += 1;
                if self.metrics.alarm_latency_ms.is_none() {
                    if let Some(at) = self.first_inject_at {
                        self.metrics.alarm_latency_ms = Some(now_ms - at);
                    }
                }
            }
            if t.cleared {
                self.metrics.alarms_cleared += 1;
            }
            if t.suppressed {
                self.metrics.suppressed_raises += 1;
            }
            transition = Some(t);
            self.last_verdict.insert(region, anomalous);
        }
        // -- Byzantine resilience (opt-in), on the shard's sub-system ----
        let mut localized: Option<SwitchId> = None;
        if self.lifecycle.enabled() {
            let collected: Vec<bool> = view.parent_rows.iter().map(|&i| self.observed[i]).collect();
            let in_shard: BTreeSet<SwitchId> =
                view.sub_fcm.rules().iter().map(|r| r.switch).collect();
            let out = self.lifecycle.after_verdict(&LiarRound {
                detector: &self.detector,
                fcm: view.sub_fcm,
                counters: &sub_counters,
                observed: &sub_observed,
                collected: &collected,
                scored: &scored_rules,
                verdict: verdict.as_ref(),
                alarm: self.alarm.state(),
                raised: transition.is_some_and(|t| t.raised),
                cleared: transition.is_some_and(|t| t.cleared),
                scope: Some(&in_shard),
            })?;
            self.metrics.add_liar_counts(&out.counts);
            localized = out.localized;
        }
        // Cadence: trouble anywhere in the shard tightens every member;
        // a clean quiet round lets them all drift toward the ceiling.
        // Rising suspicion — an anomalous round while the alarm machine is
        // still past Normal, or a Byzantine suspicion jump — goes further
        // and halves the timers below the floor, so even a fixed cadence
        // accumulates its hysteresis quorum at a tightened poll rate
        // instead of paying one full interval per quorum round.
        let s_max = self.lifecycle.suspicion().max_score();
        let suspicious = (anomalous && self.alarm.state() != AlarmState::Normal)
            || s_max > self.last_suspicion + 1e-9;
        self.last_suspicion = s_max;
        let active = churn || anomalous;
        for sw in view.switches {
            let c = self.cadence.get_mut(sw).expect("cadence per switch");
            if suspicious {
                c.on_suspicion();
            } else if active {
                c.on_activity();
            } else {
                c.on_quiet();
            }
        }
        let state = match self.alarm.state() {
            AlarmState::Normal => "Normal",
            AlarmState::Suspected => "Suspected",
            AlarmState::Alarmed => "Alarmed",
        };
        let line = format!(
            "{{\"mode\":\"stream\",\"t_ms\":{},\"region\":{},\"round\":{},\"kind\":{},\"anomalous\":{},\"ai\":{},\"stale\":{},\"alarm\":{},\"raised\":{},\"cleared\":{},\"suspicion_max\":{},\"liars\":{},\"localized\":{},\"byz_unresolved\":{}}}",
            json_f64(now_ms),
            region,
            self.completion.rounds(region),
            json_str(kind),
            anomalous,
            json_f64(ai),
            stale.len(),
            json_str(state),
            transition.is_some_and(|t| t.raised),
            transition.is_some_and(|t| t.cleared),
            json_f64(s_max),
            self.lifecycle.quarantined().len(),
            localized.map_or_else(|| "null".to_string(), |s| s.0.to_string()),
            self.lifecycle.unresolved(),
        );
        self.log.record(line);
        Ok(())
    }

    fn on_action(&mut self, index: usize, now: SimTime) {
        let action = self.script[index].1.clone();
        let now_ms = now.as_ms();
        match action {
            StreamAction::Inject(kind) => {
                if self.applied.is_none() {
                    self.applied = inject_random_anomaly(
                        &mut self.dep.dataplane,
                        kind,
                        &mut self.inject_rng,
                        &[],
                    );
                    if self.applied.is_some() {
                        if self.first_inject_at.is_none() {
                            self.first_inject_at = Some(now_ms);
                        }
                        self.refresh_traffic();
                        self.log.record(format!(
                            "{{\"mode\":\"stream\",\"t_ms\":{},\"event\":\"inject\"}}",
                            json_f64(now_ms)
                        ));
                    }
                }
            }
            StreamAction::Revert => {
                if let Some(a) = self.applied.take() {
                    a.revert(&mut self.dep.dataplane)
                        .expect("injected rule cannot vanish");
                    self.refresh_traffic();
                    self.log.record(format!(
                        "{{\"mode\":\"stream\",\"t_ms\":{},\"event\":\"revert\"}}",
                        json_f64(now_ms)
                    ));
                }
            }
            StreamAction::Churn => {
                // Mid-window rolling update: half the window's volume runs
                // under the old rules, the reroute lands, half under the
                // new — subsequent samples genuinely mix generations until
                // the scheduled rebuild settles.
                self.dep.dataplane.reset_counters();
                let mut loss = LossModel::none();
                self.dep.replay_traffic_scaled(&mut loss, 0.5);
                self.apply_churn();
                self.dep.replay_traffic_scaled(&mut loss, 0.5);
                self.queue
                    .push(now.after_ms(self.config.settle_ms), StreamEvent::Rebuild);
                self.log.record(format!(
                    "{{\"mode\":\"stream\",\"t_ms\":{},\"event\":\"churn\"}}",
                    json_f64(now_ms)
                ));
            }
            StreamAction::Compromise {
                liars,
                strategy,
                magnitude,
            } => {
                if self.liars.is_empty() && liars > 0 {
                    self.fake_strategy = strategy;
                    self.fake_magnitude = magnitude;
                    self.compromise_switches(liars);
                    self.log.record(format!(
                        "{{\"mode\":\"stream\",\"t_ms\":{},\"event\":\"compromise\",\"liars\":{},\"strategy\":{}}}",
                        json_f64(now_ms),
                        self.liars.len(),
                        json_str(&strategy.to_string()),
                    ));
                }
            }
            StreamAction::Confess => {
                if !self.liars.is_empty() {
                    self.confess();
                    self.log.record(format!(
                        "{{\"mode\":\"stream\",\"t_ms\":{},\"event\":\"confess\"}}",
                        json_f64(now_ms)
                    ));
                }
            }
        }
    }

    /// Picks the liars, snapshots their (still-honest) tables, and — for
    /// the evasion strategies — plants the real early-drop anomaly each
    /// liar will lie to conceal. Under [`FakeStrategy::CoverUp`] the
    /// liar's switch neighbors join the collusion.
    fn compromise_switches(&mut self, count: usize) {
        let mut pool = self.switches.clone();
        pool.shuffle(&mut self.liar_rng);
        pool.truncate(count);
        pool.sort_unstable();
        self.liars = pool;

        let mut forging = self.liars.clone();
        if self.fake_strategy == FakeStrategy::CoverUp {
            for &liar in &self.liars.clone() {
                for adj in self.dep.view.topology().adj(foces_net::Node::Switch(liar)) {
                    if let foces_net::Node::Switch(n) = adj.neighbor {
                        forging.push(n);
                    }
                }
            }
            forging.sort_unstable();
            forging.dedup();
        }
        // Table snapshots must predate the cover anomalies: a stealthy
        // liar answers dumps with the rules the controller installed.
        for &s in &forging {
            let table: Vec<foces_dataplane::Rule> = self
                .dep
                .dataplane
                .table(s)
                .iter()
                .map(|(_, r)| r.clone())
                .collect();
            self.original_tables.insert(s, table);
        }
        self.forging = forging;

        if !self.fake_strategy.is_fabrication() {
            // Evasion: each liar really misbehaves (drops a flow early)
            // and the forged counters exist to hide it.
            let all = self.switches.clone();
            for &liar in &self.liars.clone() {
                let exclude_rest: Vec<SwitchId> =
                    all.iter().copied().filter(|&s| s != liar).collect();
                if let Some(a) = inject_random_anomaly(
                    &mut self.dep.dataplane,
                    AnomalyKind::EarlyDrop,
                    &mut self.liar_rng,
                    &exclude_rest,
                ) {
                    self.cover_anomalies.push(a);
                }
            }
        }
        // Re-registers the window's counters under the (possibly now
        // anomalous) forwarding state and installs the forgeries.
        self.refresh_traffic();
    }

    /// The liars confess: honest agents come back, cover anomalies are
    /// repaired, and all adversarial state is dropped.
    fn confess(&mut self) {
        for &s in &self.forging {
            self.agents
                .insert(s, Box::new(HonestAgent::new(s)) as Box<dyn SwitchAgent>);
        }
        for a in self.cover_anomalies.drain(..) {
            a.revert(&mut self.dep.dataplane)
                .expect("covered rule cannot vanish");
        }
        self.liars.clear();
        self.forging.clear();
        self.stale_snapshot.clear();
        self.original_tables.clear();
        self.refresh_traffic();
    }

    /// Plans the coordinated forgery from the live registers and installs
    /// it into fresh forging agents. Re-run whenever the registers change
    /// (every [`StreamDriver::refresh_traffic`]) so the lie tracks the
    /// truth it distorts.
    fn install_forgeries(&mut self) {
        if self.stale_snapshot.is_empty() {
            // First forging window: the honest registers become the stale
            // snapshot a replay liar keeps reporting as traffic drifts.
            for &s in &self.forging {
                for i in 0..self.dep.dataplane.table(s).len() {
                    self.stale_snapshot
                        .insert((s, i), self.dep.dataplane.true_counter(s, i));
                }
            }
        }
        // The adversary's model of the controller's expectation: nominal
        // (loss-free) flow volumes pushed through the intended routing.
        let mut rate_of: BTreeMap<(foces_net::HostId, foces_net::HostId), f64> = BTreeMap::new();
        for f in &self.dep.flows {
            *rate_of.entry((f.src, f.dst)).or_insert(0.0) += f.rate;
        }
        let mut expected: BTreeMap<(SwitchId, usize), f64> = BTreeMap::new();
        let mut affected: BTreeMap<(SwitchId, usize), bool> = BTreeMap::new();
        let cover_rules: Vec<_> = self.cover_anomalies.iter().map(|a| a.rule).collect();
        for flow in self.fcm.flows() {
            let rate = rate_of
                .get(&(flow.ingress, flow.egress))
                .copied()
                .unwrap_or(0.0);
            let on_covered_path = flow.rules.iter().any(|r| cover_rules.contains(r));
            for r in &flow.rules {
                *expected.entry((r.switch, r.index)).or_insert(0.0) += rate;
                if on_covered_path {
                    affected.insert((r.switch, r.index), true);
                }
            }
        }
        let mut inputs = CollusionInputs::default();
        for &s in &self.forging {
            let facts: Vec<RuleFacts> = (0..self.dep.dataplane.table(s).len())
                .map(|i| {
                    let truth = self.dep.dataplane.true_counter(s, i);
                    RuleFacts {
                        index: i,
                        truth,
                        expected: expected.get(&(s, i)).copied().unwrap_or(0.0),
                        stale: self.stale_snapshot.get(&(s, i)).copied().unwrap_or(truth),
                        // With no cover anomaly (fabrication) every rule is
                        // fair game; with one, only its flows' rows are.
                        affected: if cover_rules.is_empty() {
                            true
                        } else {
                            affected.get(&(s, i)).copied().unwrap_or(false)
                        },
                    }
                })
                .collect();
            inputs.rules_by_switch.insert(s, facts);
        }
        let plan = plan_collusion(self.fake_strategy, self.fake_magnitude, &inputs);
        for &s in &self.forging {
            let table = self.original_tables.get(&s).cloned().unwrap_or_default();
            let mut agent = ForgingAgent::new(s, table);
            plan.forge_into(&mut agent);
            self.agents
                .insert(s, Box::new(agent) as Box<dyn SwitchAgent>);
        }
    }

    /// One controller update (same policy as the lockstep harness):
    /// reroute a random flow through a random off-path waypoint, falling
    /// back to a granularity refinement.
    fn apply_churn(&mut self) {
        let flow = self.churn_rng.gen_range(0..self.dep.flows.len());
        let path = self.dep.expected_paths[flow].clone();
        let candidates: Vec<SwitchId> = self
            .dep
            .view
            .topology()
            .switches()
            .filter(|s| !path.contains(s))
            .collect();
        let rerouted = candidates
            .choose(&mut self.churn_rng)
            .copied()
            .and_then(|w| self.dep.reroute_flow_via(flow, &[w]).ok());
        if rerouted.is_none() {
            let _ = self.dep.refine_flow(flow);
        }
    }

    fn on_rebuild(&mut self, now: SimTime) {
        if self.dep.view.generation() <= self.fcm_generation {
            return; // stale rebuild event: a newer one already ran
        }
        self.refresh_traffic();
        self.fcm = Fcm::from_view(&self.dep.view);
        self.sharded = ShardedFcm::from_fcm(&self.fcm, &self.partition);
        self.rows_of = Self::row_map(&self.fcm);
        self.full = vec![0.0; self.fcm.rule_count()];
        self.observed = vec![false; self.fcm.rule_count()];
        self.gen_of.clear();
        for r in 0..self.completion.shard_count() {
            self.completion.reset(r);
        }
        self.solvers.clear();
        self.fired = vec![false; self.sharded.shard_count()];
        self.fcm_generation = self.dep.view.generation();
        self.metrics.fcm_rebuilds += 1;
        for i in 0..self.switches.len() {
            let sw = self.switches[i];
            self.cadence
                .get_mut(&sw)
                .expect("cadence per switch")
                .on_activity();
        }
        self.log.record(format!(
            "{{\"mode\":\"stream\",\"t_ms\":{},\"event\":\"rebuild\",\"generation\":{}}}",
            json_f64(now.as_ms()),
            self.fcm_generation
        ));
        // The plane moved: re-score coverage against the rebuilt FCM and
        // shards, and surface any WARN findings right after the rebuild
        // line so the log explains *why* the stream may now be blind.
        self.coverage =
            analyze_cluster_coverage(&self.fcm, &self.sharded, &CoverageConfig::default()).ok();
        if let Some(cov) = &self.coverage {
            self.metrics.coverage_warnings = cov.warn_count() as u64;
            for f in cov.findings.iter().filter(|f| f.severity.is_warn()) {
                self.log.record(f.to_json());
            }
        }
    }

    /// Resets counters and replays the steady traffic under the current
    /// rules (the stream's measurement-window abstraction: counters always
    /// hold one window's volume for the *current* forwarding state).
    fn refresh_traffic(&mut self) {
        self.dep.dataplane.reset_counters();
        self.dep.replay_traffic(&mut LossModel::none());
        if !self.liars.is_empty() {
            // The registers moved: re-plan the forgery against them so the
            // lie keeps tracking the truth it distorts.
            self.install_forgeries();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foces_controlplane::{provision, uniform_flows, RuleGranularity};
    use foces_net::generators::ring;

    fn deployment() -> Deployment {
        let topo = ring(4);
        let flows = uniform_flows(&topo, 12_000.0);
        provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap()
    }

    fn quiet_config() -> StreamConfig {
        StreamConfig {
            duration_ms: 300.0,
            regions: 2,
            cadence: CadenceConfig {
                min_ms: 10.0,
                max_ms: 80.0,
                backoff: 1.5,
                quiet_threshold: 3,
            },
            ..StreamConfig::default()
        }
    }

    #[test]
    fn quiet_stream_fires_warm_rounds_and_never_alarms() {
        let mut d = StreamDriver::new(deployment(), quiet_config(), vec![]);
        let r = d.run().unwrap();
        assert!(r.metrics.shard_rounds > 4, "{:?}", r.metrics);
        assert!(r.metrics.warm_rounds > 0, "steady state must go warm");
        assert_eq!(r.metrics.anomalous_rounds, 0);
        assert_eq!(r.metrics.alarms_raised, 0);
        assert_eq!(r.alarm_state, AlarmState::Normal);
        assert!(r.metrics.ttfv_ms.is_some());
        assert!(r.metrics.ttav_ms.is_some());
        assert!(r.metrics.ttfv_ms.unwrap() <= r.metrics.ttav_ms.unwrap());
        assert!(r.verdict_parity(), "quiescent end must match ground truth");
    }

    #[test]
    fn non_finite_readings_leave_their_rows_unsampled() {
        let liar = SwitchId(1);
        let mut d = StreamDriver::new(deployment(), quiet_config(), vec![]);
        let table = d
            .dep
            .view
            .table(liar)
            .iter()
            .map(|(_, r)| r.clone())
            .collect();
        let mut agent = ForgingAgent::new(liar, table);
        for i in 0..d.dep.dataplane.table(liar).len() {
            agent.forge_counter(i, if i % 2 == 0 { f64::NAN } else { f64::INFINITY });
        }
        d.agents.insert(liar, Box::new(agent));
        let r = d.run().expect("a non-finite reading is not a failed round");
        assert!(r.metrics.rejected_readings > 0, "{:?}", r.metrics);
        assert!(r.metrics.shard_rounds > 0);
        assert_eq!(r.metrics.anomalous_rounds, 0, "masked rows raise nothing");
    }

    #[test]
    fn adaptive_cadence_backs_off_a_quiet_network() {
        let mut adaptive = StreamDriver::new(deployment(), quiet_config(), vec![]);
        let ra = adaptive.run().unwrap();
        let mut fixed_cfg = quiet_config();
        fixed_cfg.cadence = CadenceConfig::fixed(10.0);
        let mut fixed = StreamDriver::new(deployment(), fixed_cfg, vec![]);
        let rf = fixed.run().unwrap();
        assert!(
            ra.metrics.polls < rf.metrics.polls,
            "adaptive ({}) must poll less than fixed ({}) on a quiet network",
            ra.metrics.polls,
            rf.metrics.polls
        );
    }

    #[test]
    fn same_seed_byte_identical_jsonl() {
        let run = || {
            let script = vec![
                (60.0, StreamAction::Churn),
                (180.0, StreamAction::Inject(AnomalyKind::PathDeviation)),
                (260.0, StreamAction::Revert),
            ];
            let mut cfg = quiet_config();
            cfg.duration_ms = 320.0;
            cfg.profile.jitter_ms = 2.0;
            cfg.profile.drop_prob = 0.05;
            let mut d = StreamDriver::new(deployment(), cfg, script);
            d.run().unwrap();
            d.log().lines().to_vec()
        };
        let a = run();
        assert!(!a.is_empty());
        assert_eq!(a, run(), "seeded stream must be byte-identical");
    }

    #[test]
    fn churn_reconciles_without_false_alarms_then_rebuilds() {
        let script = vec![(50.0, StreamAction::Churn)];
        let mut cfg = quiet_config();
        cfg.settle_ms = 60.0;
        let mut d = StreamDriver::new(deployment(), cfg, script);
        let r = d.run().unwrap();
        assert!(
            r.metrics.reconciled_rounds > 0,
            "rounds between churn and rebuild must reconcile: {:?}",
            r.metrics
        );
        assert_eq!(r.metrics.fcm_rebuilds, 1);
        assert!(
            r.metrics.stale_generation_replies > 0,
            "stamps must expose the mid-window update"
        );
        assert_eq!(r.metrics.alarms_raised, 0, "churn is not an anomaly");
        assert_eq!(r.alarm_state, AlarmState::Normal);
    }

    #[test]
    fn injected_anomaly_raises_then_revert_clears() {
        let script = vec![
            (40.0, StreamAction::Inject(AnomalyKind::PathDeviation)),
            (180.0, StreamAction::Revert),
        ];
        let mut cfg = quiet_config();
        cfg.duration_ms = 400.0;
        let mut d = StreamDriver::new(deployment(), cfg, script);
        let r = d.run().unwrap();
        assert!(r.metrics.anomalous_rounds > 0, "{:?}", r.metrics);
        assert_eq!(r.metrics.alarms_raised, 1, "{:?}", r.metrics);
        assert_eq!(r.metrics.alarms_cleared, 1, "{:?}", r.metrics);
        assert_eq!(r.alarm_state, AlarmState::Normal);
        let lat = r.metrics.alarm_latency_ms.expect("alarm after inject");
        assert!(lat > 0.0);
        assert!(
            r.verdict_parity(),
            "post-revert verdicts match ground truth"
        );
    }

    #[test]
    fn honest_stream_with_byzantine_enabled_stays_clean() {
        let script = vec![(60.0, StreamAction::Churn)];
        let mut cfg = quiet_config();
        cfg.byzantine.enabled = true;
        let mut d = StreamDriver::new(deployment(), cfg, script);
        let r = d.run().unwrap();
        assert_eq!(r.metrics.switch_quarantines, 0);
        assert_eq!(r.metrics.liars_localized, 0);
        assert_eq!(r.metrics.unresolved_byzantine, 0);
        assert_eq!(r.metrics.alarms_raised, 0);
        assert!(
            r.metrics.suspicion_rounds > 0,
            "scored rounds must feed the tracker"
        );
        assert_eq!(
            d.suspicion().max_score(),
            0.0,
            "honest rounds never add suspicion"
        );
        assert!(d.quarantined_switches().is_empty());
    }

    #[test]
    fn preflight_coverage_scores_the_plane_before_any_counters() {
        let d = StreamDriver::new(deployment(), quiet_config(), vec![]);
        let cov = d.coverage().expect("non-empty plane analyzes");
        assert_eq!(cov.shards.len(), 2, "one entry per region");
        assert!(
            cov.warn_count() > 0,
            "the ring concentrates rows: {}",
            cov.summary()
        );
        assert_eq!(
            d.metrics().coverage_warnings,
            cov.warn_count() as u64,
            "metric mirrors the report"
        );
    }

    #[test]
    fn rebuild_reanalyzes_coverage_and_logs_warns() {
        let script = vec![(50.0, StreamAction::Churn)];
        let mut cfg = quiet_config();
        cfg.settle_ms = 60.0;
        let mut d = StreamDriver::new(deployment(), cfg, script);
        let r = d.run().unwrap();
        assert_eq!(r.metrics.fcm_rebuilds, 1);
        assert!(
            r.metrics.coverage_warnings > 0,
            "rebuild refreshes the metric: {:?}",
            r.metrics
        );
        let warn_lines = d
            .log()
            .lines()
            .iter()
            .filter(|l| l.contains("\"event\":\"coverage-finding\""))
            .count();
        assert_eq!(
            warn_lines, r.metrics.coverage_warnings as usize,
            "rebuild surfaces each WARN in the JSONL"
        );
    }

    #[test]
    fn fixed_cadence_stream_raises_within_the_hysteresis_bound() {
        // With `raise_k = 2` and a fixed 40 ms cadence, a stream that only
        // ever polls at the fixed interval pays a full 40 ms per quorum
        // round: first anomalous verdict up to ~40 ms after injection, then
        // another ~40 ms before the raise — the alarm starves behind the
        // hysteresis window. The suspicion snap halves the shard's timers
        // after the first anomalous round, so the raise lands within the
        // `raise_k × interval` bound instead of past it.
        let script = vec![
            (40.0, StreamAction::Inject(AnomalyKind::PathDeviation)),
            (240.0, StreamAction::Revert),
        ];
        let mut cfg = quiet_config();
        cfg.duration_ms = 400.0;
        cfg.cadence = CadenceConfig::fixed(40.0);
        let mut d = StreamDriver::new(deployment(), cfg, script);
        let r = d.run().unwrap();
        assert_eq!(r.metrics.alarms_raised, 1, "{:?}", r.metrics);
        let lat = r.metrics.alarm_latency_ms.expect("alarm after inject");
        let bound = 2.0 * 40.0;
        assert!(
            lat <= bound,
            "suspicion snap must beat the fixed-cadence starvation: \
             latency {lat} ms > bound {bound} ms"
        );
        assert_eq!(r.alarm_state, AlarmState::Normal, "revert clears");
    }

    #[test]
    fn slow_region_delays_only_its_own_shard() {
        let mut cfg = quiet_config();
        cfg.slow_region = Some(1);
        cfg.slow_extra_ms = 25.0;
        let mut d = StreamDriver::new(deployment(), cfg, vec![]);
        let r = d.run().unwrap();
        // The fast shard's first verdict must not wait for the slow one.
        let ttfv = r.metrics.ttfv_ms.unwrap();
        let ttav = r.metrics.ttav_ms.unwrap();
        assert!(
            ttav - ttfv >= 20.0,
            "slow region should lag: ttfv={ttfv} ttav={ttav}"
        );
        assert_eq!(r.metrics.alarms_raised, 0);
    }
}
