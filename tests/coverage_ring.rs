//! Ring-absorption regression golden: the static coverage analyzer's
//! row-share/absorption WARN on the small ring is tied to *real* detector
//! behavior — a naive uniform counter forgery on the flagged switch is
//! genuinely absorbed by the least-squares solve, while the same forgery
//! on a FatTree (which the analyzer scores clean) is caught.

use foces::{
    analyze_coverage, CoverageConfig, CoverageKind, CoverageSeverity, Detector, Fcm, LooClass,
};
use foces_controlplane::{provision, uniform_flows, Deployment, RuleGranularity};
use foces_dataplane::LossModel;
use foces_net::generators::{bcube, fattree, ring};
use foces_net::SwitchId;

fn ring_deployment() -> Deployment {
    let topo = ring(4);
    let flows = uniform_flows(&topo, 12_000.0);
    provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap()
}

fn counters(dep: &mut Deployment) -> Vec<f64> {
    dep.dataplane.reset_counters();
    dep.replay_traffic(&mut LossModel::none());
    dep.dataplane.collect_counters()
}

/// The switch with the largest row share, per the analyzer.
fn dominant_switch(fcm: &Fcm) -> SwitchId {
    let report = analyze_coverage(fcm, &CoverageConfig::default()).unwrap();
    report
        .switches
        .iter()
        .max_by(|a, b| a.row_share.total_cmp(&b.row_share))
        .expect("ring has row-owning switches")
        .switch
}

#[test]
fn ring_dominant_switch_warns_with_a_concrete_certificate() {
    let dep = ring_deployment();
    let fcm = Fcm::from_view(&dep.view);
    let report = analyze_coverage(&fcm, &CoverageConfig::default()).unwrap();
    assert!(!report.is_clean(), "{}", report.summary());

    let dominant = dominant_switch(&fcm);
    let warn = report
        .findings
        .iter()
        .find(|f| {
            f.kind == CoverageKind::RowShareAbsorption
                && f.severity == CoverageSeverity::Warn
                && f.switch == Some(dominant)
        })
        .unwrap_or_else(|| panic!("dominant s{} must WARN: {}", dominant.0, report.summary()));
    let cert = warn
        .certificate
        .as_ref()
        .expect("every row-share WARN carries its absorbing combination");
    assert!(!cert.terms.is_empty(), "certificate names real columns");
    assert!(
        cert.residual < 0.87,
        "absorption >= 0.5 means relative residual < sqrt(1 - 0.25): {}",
        cert.residual
    );
    for &(col, _) in &cert.terms {
        assert!(col < fcm.flow_count(), "certificate column out of range");
    }
}

#[test]
fn naive_forgery_on_the_warned_ring_switch_is_absorbed() {
    let mut dep = ring_deployment();
    let fcm = Fcm::from_view(&dep.view);
    let dominant = dominant_switch(&fcm);
    let truth = counters(&mut dep);
    let detector = Detector::default();
    assert!(
        !detector.detect(&fcm, &truth).unwrap().anomalous,
        "honest counters are consistent"
    );

    // The naive forgery the WARN predicts is invisible: a uniform bump on
    // every one of the dominant switch's counters (the u_s direction whose
    // projection the certificate spells out).
    let bump = truth.iter().copied().fold(0.0_f64, f64::max);
    let mut forged = truth.clone();
    for (row, rule) in fcm.rules().iter().enumerate() {
        if rule.switch == dominant {
            forged[row] += bump;
        }
    }
    let verdict = detector.detect(&fcm, &forged).unwrap();
    assert!(
        !verdict.anomalous,
        "the analyzer's WARN must correspond to a real evasion: AI {}",
        verdict.anomaly_index
    );
}

#[test]
fn fattree_is_clean_and_a_misaligned_forgery_is_caught() {
    let topo = fattree(4);
    let flows = uniform_flows(&topo, 1_000.0);
    let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
    let fcm = Fcm::from_view(&dep.view);
    let report = analyze_coverage(&fcm, &CoverageConfig::default()).unwrap();
    assert!(report.is_clean(), "{}", report.summary());
    assert_eq!(
        report.class_count(LooClass::Localizable),
        report.switches.iter().filter(|s| s.rows > 0).count(),
        "every row-owning fattree switch is localizable"
    );

    // The ring evasion works because the uniform direction u_s lies in the
    // span of a *dominant* switch's absorbing combination. A forgery that
    // does not align with any column combination — a single rule counter
    // bumped on its own — leaves a residual least squares cannot spread,
    // and the detector catches it.
    let truth = counters(&mut dep);
    let detector = Detector::default();
    assert!(!detector.detect(&fcm, &truth).unwrap().anomalous);
    let bump = truth.iter().copied().fold(0.0_f64, f64::max);
    // Pick the row on the *least*-absorbing switch (a core switch: every
    // flow through it is multi-hop, so no column can soak the bump alone).
    let victim = report
        .switches
        .iter()
        .filter(|s| s.rows > 0)
        .min_by(|a, b| a.absorption.total_cmp(&b.absorption))
        .unwrap()
        .switch;
    let row = fcm
        .rules()
        .iter()
        .position(|r| r.switch == victim)
        .expect("victim owns rows");
    let mut forged = truth.clone();
    forged[row] += bump;
    let verdict = detector.detect(&fcm, &forged).unwrap();
    assert!(
        verdict.anomalous,
        "a single-row forgery is outside every absorbing combination: AI {}",
        verdict.anomaly_index
    );
}

/// The degradation margin counts the flows its witness blinds directly
/// ([`Fcm::flows_blinded_by`]); the count must be what the degraded
/// detector's row mask drops: `mask_rows(witness).dropped_flows()`. The
/// same holds for every single-switch loss.
#[test]
fn margin_count_equals_the_masked_dropped_flows() {
    for (name, topo, granularity) in [
        ("fattree(4)", fattree(4), RuleGranularity::PerDestination),
        ("fattree(4)", fattree(4), RuleGranularity::PerFlowPair),
        ("ring(4)", ring(4), RuleGranularity::PerFlowPair),
        ("bcube(1,4)", bcube(1, 4), RuleGranularity::PerDestination),
    ] {
        let flows = uniform_flows(&topo, 1_000.0);
        let dep = provision(topo, &flows, granularity).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        let masked_drops = |lost: &[SwitchId]| {
            let observed: Vec<bool> = fcm
                .rules()
                .iter()
                .map(|r| !lost.contains(&r.switch))
                .collect();
            fcm.mask_rows(&observed).dropped_flows()
        };
        let report = analyze_coverage(&fcm, &CoverageConfig::default()).unwrap();
        let witness = &report.margin_witness;
        assert!(!witness.is_empty(), "{name}: a margin witness exists");
        let dropped = fcm.flows_blinded_by(witness);
        assert!(dropped >= 1, "{name}: the witness blinds its flow");
        assert_eq!(dropped, masked_drops(witness), "{name} {granularity:?}");
        let margin = report
            .findings
            .iter()
            .find(|f| f.kind == CoverageKind::DegradationMargin)
            .expect("a margin finding");
        assert!(
            margin
                .detail
                .contains(&format!("({dropped} flow(s) dropped under that mask)")),
            "{name}: {}",
            margin.detail
        );
        for s in dep.view.topology().switches() {
            assert_eq!(
                fcm.flows_blinded_by(&[s]),
                masked_drops(&[s]),
                "{name} {granularity:?}: loss of {s:?}"
            );
        }
    }
}
