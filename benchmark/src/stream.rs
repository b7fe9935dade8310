//! `stream`: the event-driven driver, `StreamDriver::run`, one call per
//! simulated window with per-region shard fires inside it.
//!
//! `run` is a single call, so the benchmark cannot wrap each fire in a
//! timer. Instead the driver's event log is pointed at a pipe whose reader
//! thread timestamps every shard-fire line as it arrives, reading the
//! driver thread's CPU clock; the CPU time between consecutive fire lines
//! is that fire's cost (its solve plus the ingest events since the
//! previous fire). The driver code is unchanged.
//!
//! A stream round is one simulated second: its time is the summed cost of
//! the fires inside it, so `rounds_per_s` is simulated seconds processed
//! per second of driver time. A single fire is too small a unit for a
//! steady tail: the few fires that carry a rebuild or a traffic refresh
//! sit right at the 99th percentile of fires, and the seed decides how
//! many there are.

use crate::clock::{CpuClock, Stamp, Timings};
use crate::inputs::{self, sub_seed};
use crate::report::Report;
use crate::speed::HostSpeed;
use crate::trace::Tracer;
use crate::Opts;
use foces::{
    analyze_cluster_coverage, BackendKind, CoverageConfig, Detector, Fcm, IncrementalSolver,
    RankBudget, ShardedFcm, SuspicionTracker,
};
use foces_channel::{FaultProfile, HonestAgent, SwitchAgent};
use foces_controlplane::Deployment;
use foces_dataplane::{inject_random_anomaly, AnomalyKind, DataPlane};
use foces_ingest::{StreamAction, StreamConfig, StreamDriver};
use foces_net::{partition, PartitionSpec};
use foces_runtime::{EpochScheduler, EventLog, PollPolicy, SimTransport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::Instant;

const REGIONS: usize = 4;
/// One stream round: a simulated second.
const ROUND_MS: f64 = 1000.0;
/// Simulated time after the repair by which every region must be quiet.
const CLEAR_GRACE_MS: f64 = 3000.0;
/// Simulated time after the injection by which the alarm must be up.
const RAISE_GRACE_MS: f64 = 3000.0;

/// The scripted window: churn at 1/6, 1/2 and 5/6 of the run, a path
/// deviation from 1/3 to 0.45 (20–27 s of a 60 s run).
fn script(duration_ms: f64) -> (Vec<(f64, StreamAction)>, f64, f64) {
    let (inject, revert) = (duration_ms / 3.0, duration_ms * 0.45);
    let script = vec![
        (duration_ms / 6.0, StreamAction::Churn),
        (inject, StreamAction::Inject(AnomalyKind::PathDeviation)),
        (revert, StreamAction::Revert),
        (duration_ms / 2.0, StreamAction::Churn),
        (duration_ms * 5.0 / 6.0, StreamAction::Churn),
    ];
    (script, inject, revert)
}

/// An anomaly seed whose placement, on the plane as it stands at the
/// injection (after the first churn), the sharded detector sees.
fn anomaly_seed(dep: &Deployment, churn_seed: u64, seed: u64) -> u64 {
    let mut moved = dep.clone();
    inputs::apply_churn(&mut moved, &mut StdRng::seed_from_u64(churn_seed));
    let fcm = Fcm::from_view(&moved.view);
    let part = partition(moved.view.topology(), PartitionSpec::EdgeCut { k: REGIONS });
    let sharded = ShardedFcm::from_fcm(&fcm, &part);
    let detector = Detector::default();
    for attempt in 0..64 {
        let s = sub_seed(seed, 100 + attempt);
        let mut dp = moved.dataplane.clone();
        if inject_random_anomaly(
            &mut dp,
            AnomalyKind::PathDeviation,
            &mut StdRng::seed_from_u64(s),
            &[],
        )
        .is_none()
        {
            continue;
        }
        let y = fcm.counters_from(&inputs::snapshot(&moved, &dp, 0.0, 0));
        if sharded.detect(&detector, &y).is_ok_and(|v| v.anomalous) {
            return s;
        }
    }
    panic!("no detectable path deviation among 64 seeded placements");
}

/// An event log whose lines also go through a pipe to a thread that
/// timestamps each shard-fire line on arrival, reading the CPU clock of
/// the thread that will run the driver (the calling one).
fn timed_log() -> std::io::Result<(EventLog, JoinHandle<Vec<Stamp>>)> {
    let driver = CpuClock::this_thread();
    let (reader, writer) = std::io::pipe()?;
    let log = EventLog::to_file(Path::new(&format!("/proc/self/fd/{}", writer.as_raw_fd())))?;
    drop(writer);
    let stamps = std::thread::spawn(move || {
        let mut stamps = Vec::new();
        for line in BufReader::new(reader).lines() {
            let Ok(line) = line else { break };
            if is_fire(&line) {
                stamps.push(Stamp::on(driver));
            }
        }
        stamps
    });
    Ok((log, stamps))
}

fn is_fire(line: &str) -> bool {
    line.contains("\"round\":")
}

/// The raw text of `"key":value` in a flat JSON line.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    line.find(&pat).map_or("", |i| {
        let rest = &line[i + pat.len()..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].trim_matches('"')
    })
}

fn t_ms(line: &str) -> f64 {
    field(line, "t_ms").parse().unwrap_or(f64::NAN)
}

/// FatTree(6) all-pairs in four regions, region 3 20 ms further away,
/// adaptive 50–400 ms cadence over a 1 ms ± 2 ms channel, 60 s simulated
/// with churn at 10/30/50 s and a path deviation over 20–27 s. Each
/// episode builds a fresh driver; episodes repeat until `--seconds` have
/// passed.
pub fn stream(opts: &Opts) -> Report {
    let mut report = Report::new("stream");
    let (k, duration_ms, min_episodes) = if opts.smoke {
        (4, 12000.0, 2)
    } else {
        (6, 60000.0, 3)
    };
    let seed = opts.seed;
    let dep = inputs::deployment(k);
    let churn_seed = sub_seed(seed, 7);
    let (script, inject_ms, revert_ms) = script(duration_ms);
    let config = StreamConfig {
        duration_ms,
        regions: REGIONS,
        profile: FaultProfile {
            latency_ms: 1.0,
            jitter_ms: 2.0,
            ..FaultProfile::default()
        },
        slow_region: Some(3),
        slow_extra_ms: 20.0,
        seed: sub_seed(seed, 2),
        churn_seed,
        anomaly_seed: anomaly_seed(&dep, churn_seed, seed),
        ..StreamConfig::default()
    };

    let mut tracer = Tracer::new(opts.trace);
    let mut rounds = Timings::default();
    let mut setup = Timings::default();
    let mut first_log: Option<Vec<String>> = None;
    let mut last = None;
    let mut round = 0u64;
    let speed = HostSpeed::start();
    let clock = Instant::now();
    while setup.len() < min_episodes || clock.elapsed().as_secs_f64() < opts.seconds {
        let episode_dep = dep.clone();
        let start = speed.stamp();
        let mut driver = StreamDriver::new(episode_dep, config.clone(), script.clone());
        setup.push(&start, &speed.stamp());
        let (log, stamps) = match timed_log() {
            Ok(l) => l,
            Err(e) => {
                report.check(false, || format!("cannot open the fire-timing pipe: {e}"));
                return report;
            }
        };
        driver.install_log(log);
        let result = driver.run();
        let lines: Vec<String> = driver.log().lines().to_vec();
        let final_dep = driver.deployment().clone();
        drop(driver); // closes the pipe, ending the reader
        let stamps = stamps
            .join()
            .expect("the fire-timing reader does not panic");
        let fires: Vec<&String> = lines.iter().filter(|l| is_fire(l)).collect();
        report.check(stamps.len() == fires.len(), || {
            format!(
                "{} fire stamps for {} fire lines",
                stamps.len(),
                fires.len()
            )
        });
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                report.check(false, || format!("stream run failed: {e}"));
                report.round(true, String::new);
                continue;
            }
        };

        // Fire costs: the gap between consecutive fires, after the
        // episode's first. Each is charged to the simulated second the
        // fire lands in.
        let first_round = round + 1;
        // Per simulated second: its CPU ms, and the wall-clock span of its
        // fires.
        let mut seconds: Vec<Option<(f64, Instant, Instant)>> =
            vec![None; (duration_ms / ROUND_MS).ceil() as usize];
        for (i, (line, at)) in fires.iter().zip(&stamps).enumerate() {
            round += 1;
            let t = t_ms(line);
            if i > 0 {
                let prev = &stamps[i - 1];
                tracer.driver_round(round, prev.wall, at.wall);
                let last = seconds.len() - 1;
                let second = &mut seconds[((t / ROUND_MS) as usize).min(last)];
                let (cpu, _, to) = second.get_or_insert((0.0, prev.wall, at.wall));
                *cpu += at.cpu_ms_since(prev);
                *to = at.wall;
            }
            let quiet = t < inject_ms || t >= revert_ms + CLEAR_GRACE_MS;
            let ok =
                !quiet || (field(line, "alarm") != "Alarmed" && field(line, "raised") == "false");
            report.round(!ok, || format!("fire at {t} ms simulated: {line}"));
        }
        for (cpu, from, to) in seconds.into_iter().flatten() {
            rounds.push_ms(cpu, from, to);
        }

        let m = r.metrics;
        report.check(r.verdict_parity(), || {
            "final stream verdicts disagree with ground truth".into()
        });
        report.check(r.alarm_state == foces::AlarmState::Normal, || {
            format!("stream ended {:?}", r.alarm_state)
        });
        report.check(
            m.alarm_latency_ms.is_some_and(|l| l <= RAISE_GRACE_MS),
            || {
                format!(
                    "alarm latency {:?} ms exceeds {RAISE_GRACE_MS} ms",
                    m.alarm_latency_ms
                )
            },
        );
        report.check(m.fcm_rebuilds == 3, || {
            format!("{} rebuilds for 3 churns", m.fcm_rebuilds)
        });
        match &first_log {
            None => first_log = Some(lines.clone()),
            Some(f) => report.check(*f == lines, || {
                "two episodes of the same seed diverged".into()
            }),
        }
        if opts.trace {
            let rebuilds: Vec<f64> = lines
                .iter()
                .filter(|l| field(l, "event") == "rebuild")
                .map(|l| t_ms(l))
                .collect();
            let fire_rounds: Vec<(u64, usize, f64)> = fires
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    (
                        first_round + i as u64,
                        field(l, "region").parse().unwrap_or(0),
                        t_ms(l),
                    )
                })
                .collect();
            tracer.replay(|t| {
                replay(
                    t,
                    &dep,
                    &final_dep,
                    churn_seed,
                    &rebuilds,
                    &fire_rounds,
                    setup.len() == 1,
                    seed,
                )
            });
        }
        last = Some((m, lines));
    }

    let Some((m, lines)) = last else {
        return report;
    };
    report.metric("ttfv_ms", m.ttfv_ms.unwrap_or(f64::NAN), "ms", 1);
    report.metric(
        "alarm_latency_ms",
        m.alarm_latency_ms.unwrap_or(f64::NAN),
        "ms",
        1,
    );
    report.metric("alarm_raises", m.alarms_raised as f64, "count", 1);
    crate::end_to_end(&mut report, &rounds, &setup, &lines, &speed);
    if opts.trace {
        crate::span_metrics(&mut report, &tracer);
        report.metric("collect.polls", m.polls as f64, "count", 1);
        report.metric("fcm.rebuilds", m.fcm_rebuilds as f64, "count", 1);
        let fires = m.shard_rounds.max(1) as f64;
        report.metric(
            "solve.warm_rate",
            m.warm_rounds as f64 / fires,
            "ratio",
            m.shard_rounds as usize,
        );
        report.metric("loo.downdates", m.loo_downdates as f64, "count", 1);
        report.metric("ingest.events", m.events as f64, "count", 1);
        report.metric("ingest.fires", m.shard_rounds as f64, "count", 1);
        let rebuild = tracer.per_round("ingest.rebuild");
        report.metric("ingest.rebuild_ms", rebuild.p50(), "ms", rebuild.len());
        crate::write_spans(opts, "stream", &tracer, &mut report);
    }
    report
}

/// Replays one episode's layers on replicas: the setup layers (first
/// episode only), the rebuild on each post-churn view, and per fire a
/// region collection sweep, the region's warm shard solve and residual
/// attribution on the final plane's counters (the fire's own inputs stay
/// inside the driver).
#[allow(clippy::too_many_arguments)]
fn replay(
    t: &mut Tracer,
    dep: &Deployment,
    final_dep: &Deployment,
    churn_seed: u64,
    rebuilds: &[f64],
    fires: &[(u64, usize, f64)],
    with_setup: bool,
    seed: u64,
) {
    let spec = PartitionSpec::EdgeCut { k: REGIONS };
    let detector = Detector::default();
    if with_setup {
        let round = fires.first().map_or(0, |f| f.0);
        let fcm = t.span(round, "fcm.build", "setup", || Fcm::from_view(&dep.view));
        let part = t.span(round, "partition", "setup", || {
            partition(dep.view.topology(), spec)
        });
        let sharded = t.span(round, "shard.build", "setup", || {
            ShardedFcm::from_fcm(&fcm, &part)
        });
        t.span(round, "coverage", "setup", || {
            analyze_cluster_coverage(&fcm, &sharded, &CoverageConfig::default()).ok()
        });
        let y = fcm.counters_from(&inputs::snapshot(dep, &dep.dataplane, 0.0, 0));
        for view in sharded.shard_views() {
            let mut solver =
                IncrementalSolver::with_backend(RankBudget::default(), BackendKind::default());
            t.span(round, "solve.cold", "setup", || {
                view.detect_warm(&detector, &y, &mut solver).ok()
            });
        }
    }

    // Each rebuild is charged to the first fire after it.
    let part = partition(dep.view.topology(), spec);
    let mut moved = dep.clone();
    let mut rng = StdRng::seed_from_u64(churn_seed);
    for &at in rebuilds {
        inputs::apply_churn(&mut moved, &mut rng);
        let round = fires.iter().find(|f| f.2 >= at).map_or(0, |f| f.0);
        let start = Instant::now();
        let fcm = t.span(round, "fcm.build", "round", || Fcm::from_view(&moved.view));
        let sharded = t.span(round, "shard.build", "round", || {
            ShardedFcm::from_fcm(&fcm, &part)
        });
        t.span(round, "coverage", "round", || {
            analyze_cluster_coverage(&fcm, &sharded, &CoverageConfig::default()).ok()
        });
        t.record(round, "ingest.rebuild", "replica", start, Instant::now());
    }
    debug_assert_eq!(moved.view.generation(), final_dep.view.generation());

    let fcm = Fcm::from_view(&final_dep.view);
    let sharded = ShardedFcm::from_fcm(&fcm, &part);
    let plane: DataPlane = inputs::snapshot(final_dep, &final_dep.dataplane, 0.0, 0);
    let y = fcm.counters_from(&plane);
    let views = sharded.shard_views();
    let mut solvers: Vec<IncrementalSolver> = views
        .iter()
        .map(|v| {
            let mut s =
                IncrementalSolver::with_backend(RankBudget::default(), BackendKind::default());
            let _ = v.detect_warm(&detector, &y, &mut s);
            s
        })
        .collect();
    let mut schedulers: Vec<EpochScheduler> = part
        .regions()
        .iter()
        .map(|members| {
            let agents: Vec<Box<dyn SwitchAgent>> = members
                .iter()
                .map(|&s| Box::new(HonestAgent::new(s)) as Box<dyn SwitchAgent>)
                .collect();
            let transport = SimTransport::new(sub_seed(seed, 2), FaultProfile::default());
            EpochScheduler::new(agents, Box::new(transport), PollPolicy::default())
        })
        .collect();
    let mut suspicion = SuspicionTracker::new(Default::default());
    for &(round, region, _) in fires {
        if let Some(s) = schedulers.get_mut(region) {
            t.span(round, "collect", "replica", || {
                s.poll_epoch(&plane, round).map(|c| c.assemble(fcm.rules()))
            })
            .ok();
        }
        let Some(vi) = views.iter().position(|v| v.region == region) else {
            continue;
        };
        let view = views[vi];
        let solved = t.span(round, "solve.warm", "round", || {
            view.detect_warm(&detector, &y, &mut solvers[vi])
        });
        if let Ok((v, _)) = solved {
            if view.sub_fcm.rule_count() == v.solve.residual.len() {
                t.span(round, "suspicion", "replica", || {
                    suspicion.observe(view.sub_fcm.rules(), &v.solve.residual, v.anomalous)
                });
            }
        }
    }
}
