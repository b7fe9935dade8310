//! Scenario: a **detectability audit** of a data-center fabric — the
//! measurement half of the paper's future work #2 ("study how to install
//! rules which meet the detection conditions of FOCES, such that all
//! possible forwarding anomalies can be detected").
//!
//! Enumerates every single-hop deviation an adversary could apply on a
//! FatTree(4) deployment, classifies each against the Theorem-1 rank
//! oracle, and reports coverage — for both rule-compilation granularities,
//! showing how rule design changes the detector's blind spots.
//!
//! ```sh
//! cargo run --release --example detectability_audit
//! ```

use foces::{audit_deviations, harden, rbg_loop_exists, Fcm};
use foces_controlplane::{provision, uniform_flows, RuleGranularity};
use foces_net::generators::fattree;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for granularity in [
        RuleGranularity::PerFlowPair,
        RuleGranularity::PerDestination,
    ] {
        let topo = fattree(4);
        let flows = uniform_flows(&topo, 240_000.0);
        let dep = provision(topo, &flows, granularity)?;
        let fcm = Fcm::from_view(&dep.view);
        let audit = audit_deviations(&dep.view, &fcm, usize::MAX);
        println!(
            "granularity {granularity:?}: {} candidate deviations, \
             {} detectable, {} blind spots ({:.1}% coverage)",
            audit.total(),
            audit.detectable.len(),
            audit.undetectable.len(),
            100.0 * audit.coverage()
        );
        // Show a blind spot, if any, with its Theorem-2 analysis.
        if let Some(c) = audit.undetectable.first() {
            let flow = fcm.flow(c.flow);
            println!(
                "  example blind spot: flow h{}->h{} deviated at s{} toward s{} \
                 (still delivered: {})",
                flow.ingress.0, flow.egress.0, c.at_switch.0, c.redirected_to.0, c.still_delivered
            );
            // Theorem 2's necessary condition must agree: undetectable
            // deviations always show a loop in some switch's RBG.
            assert!(rbg_loop_exists(&fcm, &c.deviated_history));
            println!("  (confirmed: a rule-bipartite-graph loop exists — Theorem 2)");
        }
        // Deviations that still deliver to the right host are the sneakiest;
        // count how many of those are nevertheless detectable.
        let delivered_detectable = audit
            .detectable
            .iter()
            .filter(|c| c.still_delivered)
            .count();
        println!(
            "  deviations that still deliver correctly but get caught anyway: {}",
            delivered_detectable
        );
        // Close the blind spots (future work #2, constructive half): split
        // the implicated flows onto dedicated rules until fully covered.
        if !audit.undetectable.is_empty() {
            let outcome = harden(&dep.view, 5000, usize::MAX);
            println!(
                "  hardening: {} extra rules across {} flows lift coverage \
                 {:.1}% -> {:.1}%",
                outcome.installed.len(),
                outcome.flows_split,
                100.0 * outcome.coverage_before,
                100.0 * outcome.coverage_after
            );
        }
        println!();
    }
    Ok(())
}
