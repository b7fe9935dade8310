//! Event-driven ingest vs the lockstep epoch sweep on FatTree(8) under
//! heterogeneous link delays, with one deliberately slow region.
//!
//! Hand-rolled harness (`harness = false`, no Criterion) over **simulated
//! time**: both sides run on the same [`IngestChannel`] link models (same
//! access specs, same shared regional uplinks, same slow-region penalty),
//! so the comparison isolates the *scheduling* difference.
//!
//! * **Lockstep epoch wall** — the classical round: the controller fans a
//!   stats request out to every switch at `t = 0` and waits for the
//!   slowest arrival. Concurrent replies genuinely contend on each
//!   region's shared uplink, and the slow region's extra propagation sits
//!   squarely on the critical path: nobody gets a verdict before the
//!   worst link delivers.
//! * **Stream TTFV / TTAV** — the event-driven pipeline: each shard's
//!   detection fires the moment *its* members are fresh, so
//!   time-to-first-verdict is the fastest region's completion and only
//!   time-to-all-verdicts stretches toward the slow region.
//!
//! The acceptance gate is asserted, not just recorded: over several
//! seeds the **median TTFV is strictly below the lockstep wall**, no run
//! raises an alarm on the healthy fabric, every run's final per-shard
//! verdicts match the epoch-path ground truth, and re-running a seed
//! reproduces its JSONL byte for byte. Results land in
//! `BENCH_ingest.json` at the repository root. With `--test` (the CI
//! smoke mode) it runs a scaled-down FatTree(4) configuration, keeps the
//! assertions, and writes nothing.

use foces_channel::{ControllerMsg, Delivery, FaultProfile, HonestAgent};
use foces_controlplane::{provision, uniform_flows, Deployment, RuleGranularity};
use foces_ingest::{IngestChannel, LinkSpec, StreamConfig, StreamDriver};
use foces_net::generators::fattree;
use foces_net::{partition, PartitionSpec};
use foces_runtime::EventLog;
use std::fmt::Write as _;

struct StreamSample {
    seed: u64,
    ttfv_ms: f64,
    ttav_ms: f64,
    shard_rounds: u64,
    warm_rounds: u64,
    polls: u64,
    congestion_drops: u64,
}

/// Per-run stream knobs shared by both sides of the comparison.
fn stream_config(k: usize, seed: u64, duration_ms: f64) -> StreamConfig {
    StreamConfig {
        duration_ms,
        regions: k,
        // The slow region: every member's access hop gains 20 ms of
        // one-way propagation — a congested WAN pod, an overloaded
        // management network, pick your poison.
        slow_region: Some(k - 1),
        slow_extra_ms: 20.0,
        profile: FaultProfile {
            latency_ms: 1.0,
            jitter_ms: 2.0,
            drop_prob: 0.0,
            reorder_prob: 0.0,
            offline: Vec::new(),
        },
        seed,
        ..StreamConfig::default()
    }
}

/// Builds the same channel the stream driver builds for `config` (same
/// seed, same specs, same slow-region overrides) — so the lockstep sweep
/// below pays exactly the link costs the stream pays.
fn channel_for(dep: &Deployment, config: &StreamConfig) -> IngestChannel {
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
    channel
}

/// The lockstep epoch wall in simulated milliseconds: fan one stats
/// request out to every switch at `t = 0` and wait for the slowest
/// arrival. Uplink contention accumulates across the sweep exactly as it
/// would for a controller that polls everyone at once.
fn lockstep_wall_ms(dep: &Deployment, config: &StreamConfig) -> f64 {
    let mut channel = channel_for(dep, config);
    let mut switches: Vec<_> = dep.view.topology().switches().collect();
    switches.sort_unstable();
    let mut wall: f64 = 0.0;
    for (i, &sw) in switches.iter().enumerate() {
        let agent = HonestAgent::new(sw);
        let td = channel
            .exchange_at(
                &dep.dataplane,
                &agent,
                &ControllerMsg::StatsRequest { xid: i as u32 + 1 },
                0.0,
            )
            .expect("wire protocol");
        assert!(
            matches!(td.delivery, Delivery::Delivered { .. }),
            "fault-free sweep must deliver (s{})",
            sw.0
        );
        wall = wall.max(td.at_ms);
    }
    wall
}

/// One healthy stream run; asserts the zero-false-alarm and
/// verdict-parity gates and returns its latency milestones.
fn run_stream(dep: Deployment, config: StreamConfig) -> (StreamSample, Vec<String>) {
    let seed = config.seed;
    let mut driver = StreamDriver::new(dep, config, vec![]);
    driver.install_log(EventLog::in_memory());
    let report = driver.run().expect("stream run");
    let m = report.metrics;
    assert_eq!(
        m.alarms_raised, 0,
        "false alarm on a healthy fabric (seed {seed}): {m:?}"
    );
    assert_eq!(m.anomalous_rounds, 0, "seed {seed}: {m:?}");
    assert!(
        report.verdict_parity(),
        "stream verdicts must match the epoch path (seed {seed}): {:?}",
        report.stream_verdicts
    );
    let sample = StreamSample {
        seed,
        ttfv_ms: m.ttfv_ms.expect("stream must reach a first verdict"),
        ttav_ms: m.ttav_ms.expect("every shard must fire"),
        shard_rounds: m.shard_rounds,
        warm_rounds: m.warm_rounds,
        polls: m.polls,
        congestion_drops: m.congestion_drops,
    };
    (sample, driver.log().lines().to_vec())
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    values[values.len() / 2]
}

/// Everything the JSON artifact reports about one topology comparison.
struct BenchSummary<'a> {
    topology: &'a str,
    flows: usize,
    rules: usize,
    k: usize,
    wall_ms: f64,
    median_ttfv: f64,
    median_ttav: f64,
    samples: &'a [StreamSample],
}

fn render_json(sum: &BenchSummary<'_>) -> String {
    let BenchSummary {
        topology,
        flows,
        rules,
        k,
        wall_ms,
        median_ttfv,
        median_ttav,
        samples,
    } = *sum;
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"benchmark\": \"ingest\",\n  \"topology\": \"{topology}\",\n  \
         \"flows\": {flows},\n  \"rules\": {rules},\n  \"regions\": {k},\n  \
         \"slow_region_extra_ms\": 20.0,\n  \
         \"lockstep_wall_ms\": {wall_ms:.3},\n  \
         \"median_ttfv_ms\": {median_ttfv:.3},\n  \
         \"median_ttav_ms\": {median_ttav:.3},\n  \
         \"ttfv_speedup_vs_lockstep\": {:.2},\n  \"runs\": [",
        wall_ms / median_ttfv.max(1e-12),
    );
    for (i, r) in samples.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    {{\"seed\": {}, \"ttfv_ms\": {:.3}, \"ttav_ms\": {:.3}, \
             \"shard_rounds\": {}, \"warm_rounds\": {}, \"polls\": {}, \
             \"congestion_drops\": {}}}",
            if i == 0 { "" } else { "," },
            r.seed,
            r.ttfv_ms,
            r.ttav_ms,
            r.shard_rounds,
            r.warm_rounds,
            r.polls,
            r.congestion_drops,
        );
    }
    s.push_str("\n  ]\n}\n");
    s
}

fn run_comparison(
    topo: foces_net::Topology,
    topology_name: &str,
    k: usize,
    duration_ms: f64,
    seeds: &[u64],
) -> (String, f64, f64) {
    let flows = uniform_flows(&topo, topo.host_count() as f64 * 1000.0);
    let dep = provision(topo, &flows, RuleGranularity::PerDestination).expect("provision");
    let flow_count = dep.flows.len();
    let rule_count = dep.view.rule_count();

    // The wall is seed-dependent only through jitter; take the median too.
    let mut walls: Vec<f64> = seeds
        .iter()
        .map(|&seed| {
            let mut d = dep.clone();
            d.dataplane.reset_counters();
            d.replay_traffic(&mut foces_dataplane::LossModel::none());
            lockstep_wall_ms(&d, &stream_config(k, seed, duration_ms))
        })
        .collect();
    let wall_ms = median(&mut walls);
    eprintln!(
        "{topology_name}: lockstep epoch wall {wall_ms:.2} ms (median of {} sweeps)",
        seeds.len()
    );

    let mut samples = Vec::new();
    for &seed in seeds {
        let config = stream_config(k, seed, duration_ms);
        let (sample, _log) = run_stream(dep.clone(), config);
        eprintln!(
            "  seed {seed}: ttfv {:.2} ms, ttav {:.2} ms, {} shard rounds ({} warm)",
            sample.ttfv_ms, sample.ttav_ms, sample.shard_rounds, sample.warm_rounds
        );
        samples.push(sample);
    }

    // Determinism gate: same seed, byte-identical JSONL.
    let config = stream_config(k, seeds[0], duration_ms);
    let (_, first) = run_stream(dep.clone(), config.clone());
    let (_, second) = run_stream(dep.clone(), config);
    assert_eq!(first, second, "same seed must reproduce the JSONL exactly");

    let mut ttfvs: Vec<f64> = samples.iter().map(|s| s.ttfv_ms).collect();
    let mut ttavs: Vec<f64> = samples.iter().map(|s| s.ttav_ms).collect();
    let median_ttfv = median(&mut ttfvs);
    let median_ttav = median(&mut ttavs);
    assert!(
        median_ttfv < wall_ms,
        "median TTFV ({median_ttfv:.2} ms) must beat the lockstep wall ({wall_ms:.2} ms)"
    );
    let json = render_json(&BenchSummary {
        topology: topology_name,
        flows: flow_count,
        rules: rule_count,
        k,
        wall_ms,
        median_ttfv,
        median_ttav,
        samples: &samples,
    });
    (json, median_ttfv, wall_ms)
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    if test_mode {
        // CI smoke: FatTree(4), 2 regions, short horizon, no file.
        let (_, ttfv, wall) = run_comparison(fattree(4), "fattree4", 2, 500.0, &[5, 6]);
        println!("ingest bench smoke: ok (ttfv {ttfv:.2} ms vs lockstep wall {wall:.2} ms)");
        return;
    }

    // Full run: the paper's largest topology, four regions, one slow.
    let (json, ttfv, wall) = run_comparison(fattree(8), "fattree8", 4, 1500.0, &[5, 6, 7, 8, 9]);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");
    std::fs::write(out, &json).expect("write BENCH_ingest.json");
    print!("{json}");
    eprintln!("wrote {out} (ttfv {ttfv:.2} ms vs lockstep wall {wall:.2} ms)");
}
