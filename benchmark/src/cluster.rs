//! `sharded`: the cluster driver, `ClusterService::run_epoch`, one
//! work-stealing pool fan-out of per-shard warm solves per round.

use crate::clock::Timings;
use crate::inputs::{self, sub_seed};
use crate::report::{Report, Samples};
use crate::run::WORKERS;
use crate::speed::HostSpeed;
use crate::trace::Tracer;
use crate::Opts;
use foces::{
    analyze_cluster_coverage, AlarmState, BackendKind, CoverageConfig, Detector, Fcm,
    IncrementalSolver, RankBudget, ShardedFcm, SuspicionTracker, DEFAULT_THRESHOLD,
};
use foces_channel::{HonestAgent, SwitchAgent};
use foces_cluster::{ClusterConfig, ClusterEpochReport, ClusterService};
use foces_dataplane::DataPlane;
use foces_net::{partition, PartitionSpec};
use foces_runtime::{EpochScheduler, FaultProfile, PollPolicy, SimTransport};
use std::time::Instant;

const SPEC: PartitionSpec = PartitionSpec::EdgeCut { k: 4 };
const RAISE_GRACE: u64 = 3;
const CLEAR_GRACE: u64 = 4;

/// FatTree(8) all-pairs (16,256 flows), 2% sampled loss, four edge-cut
/// shards on one pool worker with the auto backend. Each cycle carries one
/// path deviation; the run measures whole cycles until `--seconds` have
/// passed.
pub fn sharded(opts: &Opts) -> Report {
    let mut report = Report::new("sharded");
    let (k, cycle, deviation, setups, pool_size) = if opts.smoke {
        (4, 20, (8, 12), 2, 2)
    } else {
        (8, 200, (100, 130), 5, 4)
    };
    let seed = opts.seed;
    let dep = inputs::deployment(k);
    let fcm = Fcm::from_view(&dep.view);
    let healthy = inputs::pool(&dep, &dep.dataplane, 0.02, sub_seed(seed, 3), pool_size);
    let (attacked_dp, _) =
        inputs::detectable_deviation(&dep, sub_seed(seed, 4), inputs::Vet::Sharded(4));
    let attacked = inputs::pool(&dep, &attacked_dp, 0.02, sub_seed(seed, 5), pool_size);
    let counters = |pool: &[DataPlane]| -> Vec<Vec<f64>> {
        pool.iter().map(|dp| fcm.counters_from(dp)).collect()
    };
    let (healthy_y, attacked_y) = (counters(&healthy), counters(&attacked));
    let config = ClusterConfig {
        spec: SPEC,
        workers: WORKERS,
        backend: BackendKind::Auto,
        ..ClusterConfig::default()
    };
    let topo = dep.view.topology();

    let speed = HostSpeed::start();
    let mut setup = Timings::default();
    let mut svc = None;
    for _ in 0..setups {
        let start = speed.stamp();
        let built = ClusterService::new(Fcm::from_view(&dep.view), topo, config);
        let r0 = built.and_then(|mut s| s.run_epoch(&healthy_y[0]).map(|_| s));
        setup.push(&start, &speed.stamp());
        match r0 {
            Ok(s) => svc = Some(s),
            Err(e) => report.check(false, || format!("setup failed: {e}")),
        }
    }
    let Some(mut svc) = svc else {
        return report;
    };
    let mut tracer = Tracer::new(opts.trace);
    let mut replica = opts
        .trace
        .then(|| Replica::new(&mut tracer, &dep, &healthy_y[0], seed));

    let mut rounds = Timings::default();
    let mut raise_latency = Samples::default();
    let mut first_cycle = Vec::new();
    let mut shard_max = Samples::default();
    let mut shard_sum = Samples::default();
    let mut imbalance = Samples::default();
    let mut overhead = Samples::default();
    let mut raised = false;
    let clock = Instant::now();
    let mut round = 0u64;
    while round == 0 || !round.is_multiple_of(cycle) || clock.elapsed().as_secs_f64() < opts.seconds
    {
        round += 1;
        let c = round % cycle;
        let i = round as usize % pool_size;
        let in_attack = deviation.0 <= c && c < deviation.1;
        let (dp, y) = if in_attack {
            (&attacked[i], &attacked_y[i])
        } else {
            (&healthy[i], &healthy_y[i])
        };
        let start = speed.stamp();
        let result = svc.run_epoch(y);
        let end = speed.stamp();
        rounds.push(&start, &end);
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
        let elapsed: Vec<f64> = r.shards.iter().map(|s| s.elapsed_ms).collect();
        let max = elapsed.iter().copied().fold(0.0, f64::max);
        let sum: f64 = elapsed.iter().sum();
        shard_max.push(max);
        shard_sum.push(sum);
        imbalance.push(max / (sum / elapsed.len() as f64));
        // One worker solves the shards one after another.
        overhead.push(end.wall_ms_since(&start) - sum);

        let mut ok = r
            .shards
            .iter()
            .all(|s| s.health.is_healthy() && s.solve_path.is_some_and(|p| p.is_warm()));
        if in_attack && c >= deviation.0 + RAISE_GRACE {
            ok &= r.alarm_state == AlarmState::Alarmed;
        }
        let clearing = deviation.1 <= c && c < deviation.1 + CLEAR_GRACE;
        if !in_attack && !clearing {
            ok &= r.alarm_state != AlarmState::Alarmed && !r.alarm.raised;
        }
        report.round(!ok, || {
            format!("round {round} (cycle position {c}): {}", round_key(&r))
        });
        if c == deviation.0 {
            raised = false;
        }
        if in_attack && r.alarm.raised && !raised {
            raised = true;
            raise_latency.push((c - deviation.0) as f64);
        }
        if c == deviation.0 + RAISE_GRACE {
            report.check(raised, || {
                format!("round {round}: no alarm within {RAISE_GRACE} rounds of the onset")
            });
        }
        if let Some(rep) = replica.as_mut() {
            tracer.replay(|t| rep.replay(t, round, dp, y));
        }
    }

    let m = svc.metrics().clone();
    report.metric(
        "alarm_latency_rounds",
        raise_latency.p50(),
        "rounds",
        raise_latency.len(),
    );
    crate::end_to_end(&mut report, &rounds, &setup, &first_cycle, &speed);
    if let Some(rep) = replica {
        crate::span_metrics(&mut report, &tracer);
        report.metric("collect.polls", rep.polls as f64, "count", 1);
        report.metric("fcm.rebuilds", 0.0, "count", 1);
        let solves = m.warm_solves + m.cold_solves;
        report.metric(
            "solve.warm_rate",
            m.warm_solves as f64 / solves.max(1) as f64,
            "ratio",
            solves as usize,
        );
        report.metric("loo.downdates", 0.0, "count", 1);
        report.metric(
            "shard.solve_ms_max_p50",
            shard_max.p50(),
            "ms",
            shard_max.len(),
        );
        report.metric(
            "shard.solve_ms_sum_p50",
            shard_sum.p50(),
            "ms",
            shard_sum.len(),
        );
        report.metric(
            "pool.imbalance_p50",
            imbalance.p50(),
            "ratio",
            imbalance.len(),
        );
        report.metric("pool.overhead_ms_p50", overhead.p50(), "ms", overhead.len());
        report.metric("pool.steals", m.steals as f64, "count", 1);
        report.metric(
            "shard.boundary_flows",
            svc.sharded().boundary_flows().len() as f64,
            "count",
            1,
        );
        crate::write_spans(opts, "sharded", &tracer, &mut report);
    }
    report
}

fn round_key(r: &ClusterEpochReport) -> String {
    let paths: Vec<String> = r
        .shards
        .iter()
        .map(|s| format!("{:?}", s.solve_path))
        .collect();
    format!(
        "{}|{:?}|{}|{}",
        r.anomalous,
        r.alarm_state,
        r.alarm.raised,
        paths.join(",")
    )
}

/// Replica shards, solvers and a collection sweep for the traced replay.
struct Replica {
    scheduler: EpochScheduler,
    fcm: Fcm,
    sharded: ShardedFcm,
    solvers: Vec<IncrementalSolver>,
    detector: Detector,
    suspicion: SuspicionTracker,
    polls: usize,
}

impl Replica {
    /// Replays the setup layers (`"setup"` spans) and the cold first
    /// round's shard solves.
    fn new(t: &mut Tracer, dep: &foces_controlplane::Deployment, y0: &[f64], seed: u64) -> Self {
        let fcm = t.span(0, "fcm.build", "setup", || Fcm::from_view(&dep.view));
        let part = t.span(0, "partition", "setup", || {
            partition(dep.view.topology(), SPEC)
        });
        let sharded = t.span(0, "shard.build", "setup", || {
            ShardedFcm::from_fcm(&fcm, &part)
        });
        t.span(0, "coverage", "setup", || {
            analyze_cluster_coverage(&fcm, &sharded, &CoverageConfig::default()).ok()
        });
        let detector = Detector::with_threshold(DEFAULT_THRESHOLD);
        let mut solvers: Vec<IncrementalSolver> = (0..sharded.shard_count())
            .map(|_| IncrementalSolver::with_backend(RankBudget::default(), BackendKind::Auto))
            .collect();
        for (view, solver) in sharded.shard_views().iter().zip(&mut solvers) {
            t.span(0, "solve.cold", "setup", || {
                view.detect_warm(&detector, y0, solver).ok()
            });
        }
        let agents: Vec<Box<dyn SwitchAgent>> = dep
            .view
            .topology()
            .switches()
            .map(|s| Box::new(HonestAgent::new(s)) as Box<dyn SwitchAgent>)
            .collect();
        let transport = SimTransport::new(sub_seed(seed, 2), FaultProfile::default());
        Replica {
            scheduler: EpochScheduler::new(agents, Box::new(transport), PollPolicy::default()),
            fcm,
            sharded,
            solvers,
            detector,
            suspicion: SuspicionTracker::new(Default::default()),
            polls: 0,
        }
    }

    /// Replays one round: a collection sweep of the snapshot (the cluster
    /// takes counters, so this is a replica cost), then every shard's warm
    /// solve and residual attribution, one after another.
    fn replay(&mut self, t: &mut Tracer, round: u64, dp: &DataPlane, y: &[f64]) {
        let swept = t.span(round, "collect", "replica", || {
            self.scheduler
                .poll_epoch(dp, round)
                .map(|c| c.assemble(self.fcm.rules()))
        });
        if swept.is_ok() {
            self.polls += self.scheduler.switches().len();
        }
        for (view, solver) in self.sharded.shard_views().iter().zip(&mut self.solvers) {
            let detector = &self.detector;
            let solved = t.span(round, "solve.warm", "round", || {
                view.detect_warm(detector, y, solver)
            });
            if let Ok((v, _)) = solved {
                if view.sub_fcm.rule_count() == v.solve.residual.len() {
                    t.span(round, "suspicion", "round", || {
                        self.suspicion
                            .observe(view.sub_fcm.rules(), &v.solve.residual, v.anomalous)
                    });
                }
            }
        }
    }
}
