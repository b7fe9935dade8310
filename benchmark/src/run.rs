//! `lockstep` and `churn`: the lockstep `run` driver,
//! `RuntimeService::run_epoch`, one detection round per call.

use crate::clock::Timings;
use crate::inputs::{self, sub_seed};
use crate::report::{Report, Samples};
use crate::speed::HostSpeed;
use crate::trace::Tracer;
use crate::Opts;
use foces::{
    analyze_coverage, audit_deviations, cross_validate, k_resilient_verdict, localize, AlarmState,
    CoverageConfig, Detector, Fcm, FcmDelta, IncrementalSolver, RankBudget, SlicedFcm,
    SuspicionTracker,
};
use foces_channel::{HonestAgent, SwitchAgent};
use foces_controlplane::ControllerView;
use foces_dataplane::{DataPlane, LossModel, RuleRef};
use foces_net::SwitchId;
use foces_runtime::{
    detect_parallel, ByzantineConfig, DegradedPipeline, DetectionMode, EpochReport, EpochScheduler,
    FaultProfile, RuntimeConfig, RuntimeMetrics, RuntimeService, SimTransport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::time::Instant;

/// Both the slice solve and (for `sharded`) the cluster pool run on one
/// worker. The benchmark host has two virtual cores on a shared server,
/// and how soon the second one runs a woken thread depends on the other
/// tenants: with two workers, the median `sharded` round took 22 to 33 ms
/// from one run to the next while its CPU time stayed within 28 to 31 ms.
pub const WORKERS: usize = 1;

/// Rounds after an onset by which the alarm must be up: the default
/// 2-of-2 raise quorum plus one round of slack.
const RAISE_GRACE: u64 = 3;
/// Rounds after a window closes by which the alarm must be down again:
/// the default clear-after-2 plus two rounds of slack.
const CLEAR_GRACE: u64 = 4;

fn config(byzantine: bool) -> RuntimeConfig {
    RuntimeConfig {
        workers: WORKERS,
        byzantine: ByzantineConfig {
            enabled: byzantine,
            ..ByzantineConfig::default()
        },
        ..RuntimeConfig::default()
    }
}

/// A fault-free control channel with 5 ms round trips.
fn transport(seed: u64) -> SimTransport {
    SimTransport::new(
        sub_seed(seed, 2),
        FaultProfile {
            latency_ms: 5.0,
            ..FaultProfile::default()
        },
    )
}

fn window_contains(w: (u64, u64), c: u64) -> bool {
    w.0 <= c && c < w.1
}

/// `lockstep`: FatTree(6) all-pairs, 2% sampled loss, Byzantine layer on.
/// Each cycle carries a path deviation and, later, one naive liar; the run
/// repeats whole cycles until `--seconds` have passed.
///
/// The first cycle is a warm-up and is not timed: the service pays the
/// masked oracle once per quarantine mask (about 2.4 s, in the round that
/// first quarantines the liar) and serves every later cycle from its cache.
pub fn lockstep(opts: &Opts) -> Report {
    let mut report = Report::new("lockstep");
    let (k, cycle, deviation, lie, setups, pool_size) = if opts.smoke {
        (4, 40, (10, 16), (25, 31), 2, 4)
    } else {
        (6, 200, (50, 60), (125, 135), 3, 16)
    };
    let seed = opts.seed;
    let dep = inputs::deployment(k);
    let healthy = inputs::pool(&dep, &dep.dataplane, 0.02, sub_seed(seed, 3), pool_size);
    let (attacked_dp, deviator) =
        inputs::detectable_deviation(&dep, sub_seed(seed, 4), inputs::Vet::WholeWithLoo);
    let attacked = inputs::pool(&dep, &attacked_dp, 0.02, sub_seed(seed, 5), pool_size);
    let liar = inputs::liar(&dep, sub_seed(seed, 6));
    let byz = config(true);

    let speed = HostSpeed::start();
    let mut setup = Timings::default();
    let mut svc = None;
    for _ in 0..setups {
        let start = speed.stamp();
        let mut s = RuntimeService::with_sim_transport(&dep.view, transport(seed), byz);
        let r0 = s.run_epoch(&healthy[0], &dep.view);
        setup.push(&start, &speed.stamp());
        report.check(r0.is_ok(), || format!("setup round failed: {:?}", r0.err()));
        svc = Some(s);
    }
    let mut svc = svc.expect("at least one setup");
    let mut tracer = Tracer::new(opts.trace);
    let mut replica = opts
        .trace
        .then(|| Replica::new(&mut tracer, 0, &dep.view, &svc, byz, seed));
    if let Some(r) = replica.as_mut() {
        r.replay(&mut tracer, 0, &healthy[0], &dep.view, None, &[]);
    }

    let mut rounds = Timings::default();
    let mut raise_latency = Samples::default();
    let mut first_cycle = Vec::new();
    let mut prev_quarantined: Vec<SwitchId> = Vec::new();
    let mut raised_in_window = false;
    // Whether the cycle's liar was handled: localized, or declared
    // unresolved (no single removal explains the alarm — the outcome on
    // small fabrics where one switch carries a large row share).
    let mut handled = false;
    let clock = Instant::now();
    let mut round = 0u64;
    while round < 2 * cycle
        || !round.is_multiple_of(cycle)
        || clock.elapsed().as_secs_f64() < opts.seconds
    {
        round += 1;
        let c = round % cycle;
        let i = round as usize % pool_size;
        let dp = if window_contains(deviation, c) {
            &attacked[i]
        } else {
            &healthy[i]
        };
        // The liar's forgery is planned against this round's registers
        // and installed before the timed call; it confesses at the end.
        let swap: Option<Box<dyn Fn() -> Box<dyn SwitchAgent>>> = if window_contains(lie, c) {
            let agent = inputs::forging_agent(&dep, dp, liar);
            Some(Box::new(move || Box::new(agent.clone())))
        } else if c == lie.1 {
            Some(Box::new(move || Box::new(HonestAgent::new(liar))))
        } else {
            None
        };
        if let Some(make) = &swap {
            svc.replace_agent(make());
        }
        let start = speed.stamp();
        let result = svc.run_epoch(dp, &dep.view);
        let end = speed.stamp();
        if round >= cycle {
            rounds.push(&start, &end);
        }
        tracer.driver_round(round, start.wall, end.wall);

        let r = match result {
            Ok(r) => r,
            Err(e) => {
                report.round(true, || format!("round {round}: {e}"));
                continue;
            }
        };
        if round < cycle {
            first_cycle.push(round_key(&r));
        }
        // Ground truth, outside the hysteresis grace on either edge. A
        // window's culprit may be localized and quarantined, after which
        // the masked rounds are quiet: that counts as handled.
        let alarmed = r.state == AlarmState::Alarmed;
        let mut ok = true;
        if window_contains(deviation, c) && c >= deviation.0 + RAISE_GRACE {
            ok &= alarmed || r.quarantined_switches.contains(&deviator);
        }
        if window_contains(lie, c) && c >= lie.0 + RAISE_GRACE {
            ok &= alarmed || r.quarantined_switches.contains(&liar);
        }
        let quiet = !window_contains(deviation, c)
            && !window_contains(lie, c)
            && !window_contains((deviation.1, deviation.1 + CLEAR_GRACE), c)
            && !window_contains((lie.1, lie.1 + CLEAR_GRACE), c);
        if quiet {
            ok &= r.state != AlarmState::Alarmed && !r.alarm_raised;
        }
        if let Some(s) = r.localized_liar {
            // Only a window's culprit may be localized.
            if window_contains(lie, c) {
                ok &= s == liar;
                handled = true;
            } else {
                ok &= s == deviator && window_contains(deviation, c);
            }
        }
        handled |= window_contains(lie, c) && r.byz_unresolved;
        report.round(!ok, || {
            format!("round {round} (cycle position {c}): {}", round_key(&r))
        });
        for w in [deviation, lie] {
            if c == w.0 {
                raised_in_window = false;
            }
            if window_contains(w, c) && r.alarm_raised && !raised_in_window {
                raised_in_window = true;
                raise_latency.push((c - w.0) as f64);
            }
            if c == w.0 + RAISE_GRACE {
                report.check(raised_in_window, || {
                    format!(
                        "round {round}: no alarm within {RAISE_GRACE} rounds of the onset at {}",
                        w.0
                    )
                });
            }
        }
        if c == cycle - 1 {
            report.check(handled, || {
                format!("cycle ending {round}: liar {liar:?} neither localized nor unresolved")
            });
            report.check(r.quarantined_switches.is_empty(), || {
                format!("cycle ending {round}: quarantine never released")
            });
            handled = false;
        }

        if let Some(rep) = replica.as_mut() {
            if let Some(make) = &swap {
                rep.scheduler.replace_agent(make());
            }
            tracer.replay(|t| rep.replay(t, round, dp, &dep.view, Some(&r), &prev_quarantined));
            rep.note_verify(svc.metrics().verify_secs);
        }
        prev_quarantined = r.quarantined_switches.clone();
    }

    let m = *svc.metrics();
    report.metric(
        "alarm_latency_rounds",
        raise_latency.p50(),
        "rounds",
        raise_latency.len(),
    );
    report.metric("liars_localized", m.liars_localized as f64, "count", 1);
    crate::end_to_end(&mut report, &rounds, &setup, &first_cycle, &speed);
    if opts.trace {
        per_layer(&mut report, &tracer, &m, replica.as_ref());
        crate::write_spans(opts, "lockstep", &tracer, &mut report);
    }
    report
}

/// `churn`: FatTree(4) all-pairs, Byzantine layer off, no anomaly. Each
/// 64-round episode builds a fresh service and lands one mid-round reroute
/// every 10 rounds; episodes repeat until `--seconds` have passed.
pub fn churn(opts: &Opts) -> Report {
    let mut report = Report::new("churn");
    let (episode_rounds, every): (u64, u64) = if opts.smoke { (22, 10) } else { (64, 10) };
    let seed = opts.seed;
    let pristine = inputs::deployment(4);
    let cfg = config(false);
    let mut tracer = Tracer::new(opts.trace);
    let mut rounds = Timings::default();
    let mut updates = Timings::default();
    let mut setup = Timings::default();
    let mut first_episode: Option<Vec<String>> = None;
    let mut metrics = RuntimeMetrics::default();
    let mut replica_stats = None;
    let speed = HostSpeed::start();
    let clock = Instant::now();
    let mut round = 0u64;
    while setup.len() < 3 || clock.elapsed().as_secs_f64() < opts.seconds {
        let mut dep = pristine.clone();
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 7));
        let mut steady = inputs::snapshot(&dep, &dep.dataplane, 0.0, 0);
        // Round ids are global across episodes; the setup round gets one.
        round += 1;
        let setup_round = round;
        let start = speed.stamp();
        let mut svc = RuntimeService::with_sim_transport(&dep.view, transport(seed), cfg);
        let r0 = svc.run_epoch(&steady, &dep.view);
        setup.push(&start, &speed.stamp());
        report.check(r0.is_ok(), || format!("setup round failed: {:?}", r0.err()));
        let mut replica = opts
            .trace
            .then(|| Replica::new(&mut tracer, setup_round, &dep.view, &svc, cfg, seed));
        if let Some(r) = replica.as_mut() {
            r.replay(&mut tracer, setup_round, &steady, &dep.view, None, &[]);
        }
        let mut episode = Vec::new();
        for e in 1..episode_rounds {
            round += 1;
            let update = e % every == 0;
            if update {
                // The reroute lands mid-round: half the interval's traffic
                // runs under the old rules, half under the new.
                dep.dataplane.reset_counters();
                dep.replay_traffic_scaled(&mut LossModel::none(), 0.5);
                inputs::apply_churn(&mut dep, &mut rng);
                dep.replay_traffic_scaled(&mut LossModel::none(), 0.5);
            }
            let dp = if update { &dep.dataplane } else { &steady };
            let start = speed.stamp();
            let result = svc.run_epoch(dp, &dep.view);
            let end = speed.stamp();
            rounds.push(&start, &end);
            if update {
                updates.push(&start, &end);
            }
            tracer.driver_round(round, start.wall, end.wall);
            let r = match result {
                Ok(r) => r,
                Err(e) => {
                    report.round(true, || format!("round {round}: {e}"));
                    continue;
                }
            };
            episode.push(round_key(&r));
            let mut ok = !r.anomalous() && r.state != AlarmState::Alarmed && !r.alarm_raised;
            if update {
                ok &= r.churn && r.mode.is_reconciled() && r.verified;
            } else {
                ok &= !r.churn && r.mode == DetectionMode::Full;
            }
            report.round(!ok, || {
                format!("round {round} (episode round {e}): {}", round_key(&r))
            });
            if let Some(rep) = replica.as_mut() {
                tracer.replay(|t| rep.replay(t, round, dp, &dep.view, Some(&r), &[]));
                rep.note_verify(svc.metrics().verify_secs);
            }
            if update {
                steady = inputs::snapshot(&dep, &dep.dataplane, 0.0, 0);
            }
        }
        let m = *svc.metrics();
        report.check(m.fcm_rebuilds == (episode_rounds - 1) / every, || {
            format!(
                "episode rebuilt {} times, expected one per update",
                m.fcm_rebuilds
            )
        });
        match &first_episode {
            None => first_episode = Some(episode),
            Some(first) => report.check(*first == episode, || {
                "two episodes of the same seed diverged".to_string()
            }),
        }
        accumulate(&mut metrics, &m);
        if let Some(rep) = replica {
            replica_stats = Some(rep);
        }
    }
    report.metric(
        "update_ms_p50",
        speed.scale(&updates, crate::speed::ROUND_SHARE).p50(),
        "ms",
        updates.len(),
    );
    crate::end_to_end(
        &mut report,
        &rounds,
        &setup,
        first_episode.as_deref().unwrap_or(&[]),
        &speed,
    );
    if opts.trace {
        per_layer(&mut report, &tracer, &metrics, replica_stats.as_ref());
        crate::write_spans(opts, "churn", &tracer, &mut report);
    }
    report
}

/// Sums the counters the per-layer metrics read across episodes.
fn accumulate(total: &mut RuntimeMetrics, m: &RuntimeMetrics) {
    total.polls += m.polls;
    total.fcm_rebuilds += m.fcm_rebuilds;
    total.warm_solves += m.warm_solves;
    total.cold_solves += m.cold_solves;
    total.loo_downdates += m.loo_downdates;
}

/// What a round decided: verdict, alarm, solve path and liar handling.
fn round_key(r: &EpochReport) -> String {
    format!(
        "{}|{}|{:?}|{}|{}|{:?}|{:?}",
        r.anomalous(),
        r.state,
        r.solve_path,
        r.mode.label(),
        r.alarm_raised,
        r.localized_liar,
        r.quarantine_released
    )
}

fn per_layer(report: &mut Report, tracer: &Tracer, m: &RuntimeMetrics, replica: Option<&Replica>) {
    crate::span_metrics(report, tracer);
    report.metric("collect.polls", m.polls as f64, "count", 1);
    report.metric("fcm.rebuilds", m.fcm_rebuilds as f64, "count", 1);
    let solves = m.warm_solves + m.cold_solves;
    report.metric(
        "solve.warm_rate",
        m.warm_solves as f64 / solves.max(1) as f64,
        "ratio",
        solves as usize,
    );
    report.metric("loo.downdates", m.loo_downdates as f64, "count", 1);
    if let Some(r) = replica {
        report.metric("verify.ms", r.verify_ms.p50(), "ms", r.verify_ms.len());
        report.metric("fcm.delta_cols", r.delta_cols as f64, "count", 1);
        report.metric("mask.rows", r.mask_rows as f64, "count", 1);
    }
}

/// Replica objects the traced replay feeds each round's inputs through:
/// built from the same view, agents, channel seed and configuration as
/// the service, and never touching it.
struct Replica {
    scheduler: EpochScheduler,
    detector: Detector,
    config: RuntimeConfig,
    fcm: Fcm,
    fcm_generation: u64,
    solver: IncrementalSolver,
    sliced: SlicedFcm,
    pipeline: DegradedPipeline,
    suspicion: SuspicionTracker,
    /// Masks whose oracle coverage was already costed (the service caches
    /// them per missing set, so it pays the oracle once per mask).
    costed: HashSet<Vec<bool>>,
    /// The service's cumulative static-verification time, last seen.
    verify_secs: f64,
    verify_ms: Samples,
    delta_cols: usize,
    mask_rows: usize,
}

impl Replica {
    /// Builds the replicas, replaying the constructor's layers as
    /// `"setup"` spans.
    fn new(
        tracer: &mut Tracer,
        round: u64,
        view: &ControllerView,
        svc: &RuntimeService,
        config: RuntimeConfig,
        seed: u64,
    ) -> Self {
        let fcm = tracer.span(round, "fcm.build", "setup", || Fcm::from_view(view));
        tracer.span(round, "coverage", "setup", || {
            analyze_coverage(&fcm, &CoverageConfig::default()).ok()
        });
        tracer.span(round, "oracle.audit", "setup", || {
            audit_deviations(view, &fcm, config.oracle_cap)
        });
        let sliced = tracer.span(round, "sliced.build", "setup", || SlicedFcm::from_fcm(&fcm));
        let detector = Detector::with_threshold(config.threshold);
        let pipeline = DegradedPipeline::with_backend(
            view,
            fcm.clone(),
            detector,
            config.oracle_cap,
            config.backend,
        );
        let agents: Vec<Box<dyn SwitchAgent>> = view
            .topology()
            .switches()
            .map(|s| Box::new(HonestAgent::new(s)) as Box<dyn SwitchAgent>)
            .collect();
        let mut verify_ms = Samples::default();
        verify_ms.push(svc.metrics().verify_secs * 1e3);
        Replica {
            scheduler: EpochScheduler::new(agents, Box::new(transport(seed)), config.policy),
            detector,
            config,
            fcm_generation: view.generation(),
            solver: IncrementalSolver::with_backend(RankBudget::default(), config.backend),
            sliced,
            pipeline,
            suspicion: SuspicionTracker::new(config.byzantine.suspicion),
            costed: HashSet::new(),
            verify_secs: svc.metrics().verify_secs,
            verify_ms,
            delta_cols: 0,
            mask_rows: 0,
            fcm,
        }
    }

    /// Replays one round, `round` being its id in the span file. `r` is the
    /// service's report for it (`None` for the setup round); `quarantined`
    /// the switches quarantined entering it.
    fn replay(
        &mut self,
        t: &mut Tracer,
        round: u64,
        dp: &DataPlane,
        view: &ControllerView,
        r: Option<&EpochReport>,
        quarantined: &[SwitchId],
    ) {
        let epoch = r.map_or(0, |r| r.epoch);
        let setup_round = r.is_none();
        let Ok((counters, mut observed)) = t.span(round, "collect", "round", || {
            self.scheduler
                .poll_epoch(dp, epoch)
                .map(|c| c.assemble(self.fcm.rules()))
        }) else {
            return;
        };
        for (o, rule) in observed.iter_mut().zip(self.fcm.rules()) {
            if quarantined.contains(&rule.switch) {
                *o = false;
            }
        }
        let mode = r.map_or(DetectionMode::Full, |r| r.mode.clone());
        let byz = self.config.byzantine;
        let verdict = match &mode {
            DetectionMode::Full => {
                let name = if self.solver.is_warm() {
                    "solve.warm"
                } else {
                    "solve.cold"
                };
                let parent = if setup_round { "setup" } else { "round" };
                let v = t
                    .span(round, name, parent, || {
                        self.detector
                            .detect_warm(&self.fcm, &counters, &mut self.solver)
                    })
                    .ok()
                    .map(|(v, _)| v);
                let sv = t.span(round, "sliced", "round", || {
                    detect_parallel(&self.sliced, &self.detector, &counters, self.config.workers)
                });
                if let (Ok(sv), Some(true)) = (sv, v.as_ref().map(|v| v.anomalous)) {
                    t.span(round, "localize", "round", || localize(&sv));
                }
                v
            }
            DetectionMode::Degraded { .. } | DetectionMode::Reconciled { .. } => {
                let reconciled = mode.is_reconciled();
                let touched: Vec<RuleRef> = if reconciled {
                    view.touched_rules_since(self.fcm_generation)
                } else {
                    Vec::new()
                };
                let (masked, keep) = t.span(round, "mask.build", "round", || {
                    if reconciled {
                        let cols = self.fcm.columns_touching(&touched);
                        let closure = self.fcm.rows_touching(&cols);
                        let mut keep: Vec<bool> = observed
                            .iter()
                            .zip(&closure)
                            .map(|(&o, &c)| o && !c)
                            .collect();
                        for r in &touched {
                            if let Some(row) = self.fcm.rule_row(*r) {
                                keep[row] = false;
                            }
                        }
                        (self.fcm.quarantine(&keep, &cols), keep)
                    } else {
                        (self.fcm.mask_rows(&observed), observed.clone())
                    }
                });
                self.mask_rows += masked.masked_row_count();
                if self.costed.insert(keep.clone()) {
                    t.span(round, "oracle.mask", "round", || {
                        self.pipeline.coverage_under_mask(&keep)
                    });
                }
                t.span(round, "solve.masked", "round", || {
                    self.detector.detect_masked(&masked, &counters)
                })
                .ok()
            }
            DetectionMode::Blind { .. } => None,
        };

        // Residual attribution. The service runs it only with the
        // Byzantine layer on; otherwise it is replayed as a replica cost.
        let scorable = matches!(mode, DetectionMode::Full | DetectionMode::Degraded { .. });
        if let (true, Some(v)) = (scorable, &verdict) {
            let scored: Vec<RuleRef> = self
                .fcm
                .rules()
                .iter()
                .zip(&observed)
                .filter(|(_, &o)| o)
                .map(|(r, _)| *r)
                .collect();
            if scored.len() == v.solve.residual.len() {
                let parent = if byz.enabled { "round" } else { "replica" };
                t.span(round, "suspicion", parent, || {
                    self.suspicion
                        .observe(&scored, &v.solve.residual, v.anomalous)
                });
            }
        }
        if let (true, Some(v), Some(r)) = (byz.enabled && scorable, &verdict, r) {
            if v.anomalous && r.state == AlarmState::Alarmed {
                let candidates: Vec<SwitchId> = self
                    .suspicion
                    .ranked()
                    .into_iter()
                    .take(byz.max_candidates)
                    .map(|(s, _)| s)
                    .collect();
                if !candidates.is_empty() {
                    let threshold = self.config.threshold;
                    t.span(round, "loo", "round", || {
                        if observed.iter().all(|&o| o) {
                            cross_validate(&self.fcm, &counters, threshold, &candidates)
                        } else {
                            let masked = self.fcm.mask_rows(&observed);
                            cross_validate(
                                masked.fcm(),
                                &masked.project(&counters),
                                threshold,
                                &candidates,
                            )
                        }
                    })
                    .ok();
                }
            }
            if r.alarm_raised && byz.resilience_k > 0 {
                let ranked: Vec<SwitchId> = self
                    .suspicion
                    .ranked()
                    .into_iter()
                    .map(|(s, _)| s)
                    .collect();
                if !ranked.is_empty() {
                    t.span(round, "resilience", "round", || {
                        k_resilient_verdict(
                            &self.detector,
                            &self.fcm,
                            &counters,
                            &observed,
                            &ranked,
                            byz.resilience_k,
                        )
                    })
                    .ok();
                }
            }
            for s in r.localized_liar.iter().chain(&r.quarantine_released) {
                self.suspicion.clear(*s);
            }
        }

        // The rebuild after a rule update.
        if r.is_some_and(|r| r.verified) {
            let fcm = t.span(round, "fcm.build", "round", || Fcm::from_view(view));
            let delta = t.span(round, "fcm.delta", "round", || {
                FcmDelta::from_journal(&self.fcm, &fcm, view, self.fcm_generation)
            });
            self.delta_cols += delta.column_churn();
            t.span(round, "coverage", "round", || {
                analyze_coverage(&fcm, &CoverageConfig::default()).ok()
            });
            t.span(round, "oracle.audit", "round", || {
                audit_deviations(view, &fcm, self.config.oracle_cap)
            });
            self.sliced = t.span(round, "sliced.build", "round", || SlicedFcm::from_fcm(&fcm));
            self.pipeline
                .retarget(view, fcm.clone(), self.config.oracle_cap);
            self.fcm = fcm;
            self.fcm_generation = view.generation();
            self.costed.clear();
        }
    }
}

impl Replica {
    /// Samples the service's static-verification time since the last
    /// look: the verify layer is read from `RuntimeMetrics::verify_secs`,
    /// since this benchmark does not depend on `foces-verify`.
    fn note_verify(&mut self, now_secs: f64) {
        if now_secs > self.verify_secs {
            self.verify_ms.push((now_secs - self.verify_secs) * 1e3);
        }
        self.verify_secs = now_secs;
    }
}
