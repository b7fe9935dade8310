//! Scenario: **continuous monitoring** of a production fabric — the
//! paper's Fig. 7 functional test, driven through the `Monitor` runtime
//! with alarm hysteresis and cross-round localization instead of a human
//! reading a chart.
//!
//! A DCell(1,4) fabric runs 36 five-second collection rounds at 5 % link
//! loss. At t = 60 s a switch is compromised; at t = 120 s it is repaired.
//! The monitor raises one alarm, names the culprit's vicinity, and clears.
//!
//! ```sh
//! cargo run --release --example continuous_monitoring
//! ```

use foces::{AlarmState, Fcm, Monitor};
use foces_controlplane::{provision, uniform_flows, RuleGranularity};
use foces_dataplane::{inject_random_anomaly, AnomalyKind, CollectionNoise, LossModel};
use foces_net::generators::dcell;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topo = dcell(1, 4);
    let flows = uniform_flows(&topo, 380_000.0);
    let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair)?;
    let fcm = Fcm::from_view(&dep.view);
    let mut monitor = Monitor::new(fcm);
    let noise = CollectionNoise::default();

    let mut applied = None;
    let mut rng = StdRng::seed_from_u64(42);
    for round in 0..36u64 {
        let t = (round + 1) * 5;
        if t == 60 {
            applied = inject_random_anomaly(
                &mut dep.dataplane,
                AnomalyKind::PathDeviation,
                &mut rng,
                &[],
            );
            let a = applied.as_ref().unwrap();
            println!("-- t={t:>3}s  [adversary compromises s{}]", a.rule.switch.0);
        }
        if t == 120 {
            if let Some(a) = applied.take() {
                a.revert(&mut dep.dataplane)?;
                println!("-- t={t:>3}s  [operator repairs s{}]", a.rule.switch.0);
            }
        }
        // One collection interval.
        dep.dataplane.reset_counters();
        let mut loss = LossModel::sampled(0.05, round);
        dep.replay_traffic(&mut loss);
        let mut nrng = StdRng::seed_from_u64(round ^ 0xF00D);
        let counters = dep.dataplane.collect_counters_realistic(&noise, &mut nrng);

        let report = monitor.ingest(&counters)?;
        if report.alarm_raised {
            let suspects: Vec<String> = report
                .suspects
                .iter()
                .take(2)
                .map(|s| format!("s{}", s.switch.0))
                .collect();
            println!(
                "!! t={t:>3}s  ALARM raised (AI {:.1}); prime suspects: {}",
                report.verdict.anomaly_index.min(9999.0),
                suspects.join(", ")
            );
        } else if report.alarm_cleared {
            println!("ok t={t:>3}s  alarm cleared, network healthy again");
        } else if round % 6 == 5 {
            println!(
                "   t={t:>3}s  {} (AI {:.2})",
                report.state,
                report.verdict.anomaly_index.min(9999.0)
            );
        }
    }
    assert_eq!(monitor.state(), AlarmState::Normal);
    println!("\n36 rounds complete; final state: {}", monitor.state());
    Ok(())
}
