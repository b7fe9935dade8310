//! The load generator: seeded deployments, data-plane snapshots, anomaly
//! placement, liar choice and churn. Everything here runs outside the
//! timed region; the drivers receive only what it produces.

use foces::{cross_validate, Detector, Fcm, LooStatus, ShardedFcm};
use foces_channel::ForgingAgent;
use foces_controlplane::{provision, uniform_flows, Deployment, RuleGranularity};
use foces_dataplane::{inject_random_anomaly, pair_header, AnomalyKind, DataPlane, LossModel};
use foces_net::generators::fattree;
use foces_net::{partition, PartitionSpec, SwitchId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Per-pair traffic volume per collection interval.
const PAIR_RATE: f64 = 1000.0;

/// FatTree(`k`) with every host pair provisioned per destination.
pub fn deployment(k: usize) -> Deployment {
    let topo = fattree(k);
    let n = topo.host_count() as f64;
    let flows = uniform_flows(&topo, n * (n - 1.0) * PAIR_RATE);
    provision(topo, &flows, RuleGranularity::PerDestination)
        .expect("a FatTree routes every host pair")
}

/// An independent seed stream per input, derived from the run's seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

/// The data plane after one collection interval of traffic under `dp`'s
/// rules, with per-packet loss sampled at `loss` (none when 0).
pub fn snapshot(dep: &Deployment, dp: &DataPlane, loss: f64, seed: u64) -> DataPlane {
    let mut out = dp.clone();
    out.reset_counters();
    let mut model = if loss > 0.0 {
        LossModel::sampled(loss, seed)
    } else {
        LossModel::none()
    };
    // `Deployment::replay_traffic`, applied to a copy of the data plane.
    for f in &dep.flows {
        out.inject(f.src, pair_header(f.src, f.dst), f.rate, &mut model);
    }
    out
}

/// `count` seeded snapshots of `dp`.
pub fn pool(
    dep: &Deployment,
    dp: &DataPlane,
    loss: f64,
    seed: u64,
    count: usize,
) -> Vec<DataPlane> {
    (0..count as u64)
        .map(|i| snapshot(dep, dp, loss, sub_seed(seed, 1000 + i)))
        .collect()
}

/// How a candidate deviation placement is vetted.
#[derive(Clone, Copy)]
pub enum Vet {
    /// The sharded union must flag it (the cluster and stream drivers
    /// solve shards, never the whole system).
    Sharded(usize),
    /// The whole-system detector must flag it, and no honest switch's
    /// removal may explain it: leave-one-out would otherwise blame and
    /// quarantine that switch, and the masked rounds would go quiet while
    /// the deviation persists (see `README.md`, findings).
    WholeWithLoo,
}

/// Injects a seeded path deviation that the detector sees on the
/// loss-free counters, trying placements in seeded order, and returns the
/// deviated data plane with the switch whose rule deviates.
pub fn detectable_deviation(dep: &Deployment, seed: u64, vet: Vet) -> (DataPlane, SwitchId) {
    let fcm = Fcm::from_view(&dep.view);
    let sharded = match vet {
        Vet::Sharded(k) => {
            let part = partition(dep.view.topology(), PartitionSpec::EdgeCut { k });
            Some(ShardedFcm::from_fcm(&fcm, &part))
        }
        Vet::WholeWithLoo => None,
    };
    let switches: Vec<SwitchId> = dep.view.topology().switches().collect();
    let detector = Detector::default();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..64 {
        let mut dp = dep.dataplane.clone();
        let Some(applied) =
            inject_random_anomaly(&mut dp, AnomalyKind::PathDeviation, &mut rng, &[])
        else {
            continue;
        };
        let probe = snapshot(dep, &dp, 0.0, 0);
        let y = fcm.counters_from(&probe);
        let accepted = match &sharded {
            Some(s) => s.detect(&detector, &y).is_ok_and(|v| v.anomalous),
            None => {
                detector.detect(&fcm, &y).is_ok_and(|v| v.anomalous)
                    && cross_validate(&fcm, &y, detector.threshold(), &switches).is_ok_and(|r| {
                        !r.outcomes.iter().any(|o| {
                            o.status == LooStatus::Consistent
                                && o.rows_removed > 0
                                && o.switch != applied.rule.switch
                        })
                    })
            }
        };
        if accepted {
            return (dp, applied.rule.switch);
        }
    }
    panic!("no detectable path deviation among 64 seeded placements");
}

/// A seeded liar among the switches that own rules.
pub fn liar(dep: &Deployment, seed: u64) -> SwitchId {
    let mut pool: Vec<SwitchId> = dep
        .view
        .topology()
        .switches()
        .filter(|&s| !dep.dataplane.table(s).is_empty())
        .collect();
    pool.sort_unstable();
    *pool
        .choose(&mut StdRng::seed_from_u64(seed))
        .expect("some switch owns rules")
}

/// The naive liar's agent for one snapshot: every counter inflated
/// (`2·truth + 1000`), the table reported as installed.
pub fn forging_agent(dep: &Deployment, dp: &DataPlane, liar: SwitchId) -> ForgingAgent {
    let table: Vec<foces_dataplane::Rule> = dep
        .view
        .table(liar)
        .iter()
        .map(|(_, r)| r.clone())
        .collect();
    let mut agent = ForgingAgent::new(liar, table);
    for i in 0..dp.table(liar).len() {
        agent.forge_counter(i, dp.true_counter(liar, i) * 2.0 + 1000.0);
    }
    agent
}

/// One controller update, the same policy the lockstep and stream
/// harnesses use: reroute a random flow through a random off-path
/// waypoint, falling back to a granularity refinement.
pub fn apply_churn(dep: &mut Deployment, rng: &mut StdRng) {
    let flow = rng.gen_range(0..dep.flows.len());
    let path = dep.expected_paths[flow].clone();
    let candidates: Vec<SwitchId> = dep
        .view
        .topology()
        .switches()
        .filter(|s| !path.contains(s))
        .collect();
    let rerouted = candidates
        .choose(rng)
        .copied()
        .and_then(|w| dep.reroute_flow_via(flow, &[w]).ok());
    if rerouted.is_none() {
        dep.refine_flow(flow)
            .expect("refining a provisioned flow along its own path succeeds");
    }
}
