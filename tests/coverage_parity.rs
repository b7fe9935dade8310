//! Coverage parity: [`analyze_coverage`]'s switch pass, which takes a
//! below-share switch's absorption from one sparse forward solve, reads
//! the capacitance through the basis' memoized column view and finds the
//! conditional hinge with flat marks, against a reference copy of the
//! switch pass it replaced (a full solve and product per switch, the
//! full-basis capacitance scan, `BTreeSet` hinge sets).
//!
//! Every per-switch score and every switch-level finding must be equal,
//! `to_json()` byte for byte, except the absorption of a switch below
//! `row_share_warn`, which may move at rounding level (within 1e-12).

#[path = "../crates/sparse/tests/support/capacitance_parity.rs"]
mod capacitance_parity;

use foces::{
    analyze_coverage, AbsorptionCertificate, CoverageConfig, CoverageFinding, CoverageKind,
    CoverageReport, CoverageSeverity, Fcm, LooClass, SwitchCoverage,
};
use foces_controlplane::scenario::Scenario;
use foces_controlplane::{provision, uniform_flows, RuleGranularity};
use foces_linalg::CsrMatrix;
use foces_net::generators::{bcube, fattree, ring};
use foces_net::{SwitchId, Topology};
use foces_sparse::SparseFactor;
use std::collections::{BTreeMap, BTreeSet};

/// The per-switch scores and switch-level findings (WARNs, then infos)
/// of the switch pass as it ran before it became reach-limited.
fn reference_switch_pass(
    fcm: &Fcm,
    config: &CoverageConfig,
) -> (Vec<SwitchCoverage>, Vec<CoverageFinding>) {
    let rules = fcm.rules();
    let system = fcm.basis_system();
    let groups = system.groups();
    let basis = system.basis();
    let mut rows_of: BTreeMap<SwitchId, Vec<usize>> = BTreeMap::new();
    for (i, r) in rules.iter().enumerate() {
        rows_of.entry(r.switch).or_default().push(i);
    }
    let (mut warns, mut infos, mut switches) = (Vec::new(), Vec::new(), Vec::new());
    if basis.cols() > config.basis_limit {
        return (switches, warns);
    }
    let Ok((factor, _)) = system.cholesky().borrow_or_factor() else {
        return (switches, warns);
    };
    let state = Reference {
        basis,
        factor: &factor,
        fcm,
        basis_cols: &groups.basis,
    };
    for (&sw, rows) in &rows_of {
        let row_share = rows.len() as f64 / rules.len() as f64;
        let (absorption, certificate) = state.absorption(rows, config);
        let (loo, stranded, hinge) = state.classify(rows);
        if row_share >= config.row_share_warn && absorption >= config.absorption_warn {
            warns.push(CoverageFinding {
                kind: CoverageKind::RowShareAbsorption,
                severity: CoverageSeverity::Warn,
                switch: Some(sw),
                region: None,
                score: absorption,
                detail: format!(
                    "switch {} owns {:.1}% of the FCM rows and a uniform forgery \
                     on them is {:.1}% absorbed by least squares — naive counter \
                     fakes will not move the anomaly index",
                    sw.0,
                    100.0 * row_share,
                    100.0 * absorption
                ),
                certificate,
            });
        }
        match loo {
            LooClass::RankLost => warns.push(CoverageFinding {
                kind: CoverageKind::LooRankLost,
                severity: CoverageSeverity::Warn,
                switch: Some(sw),
                region: None,
                score: stranded as f64,
                detail: format!(
                    "leaving switch {} out strands {stranded} flow group(s) and \
                     loses rank: the LOO localizer will refuse with RankLost",
                    sw.0
                ),
                certificate: None,
            }),
            LooClass::ConditionalOnMask => infos.push(CoverageFinding {
                kind: CoverageKind::LooConditional,
                severity: CoverageSeverity::Info,
                switch: Some(sw),
                region: None,
                score: stranded as f64,
                detail: match hinge {
                    Some((col, t)) => format!(
                        "switch {} is localizable, but flow {} would then hang \
                         on switch {} alone — one masked switch strands it",
                        sw.0, col, t.0
                    ),
                    None => format!("switch {} is localizable conditional on the row mask", sw.0),
                },
                certificate: None,
            }),
            LooClass::Localizable => {}
        }
        switches.push(SwitchCoverage {
            switch: sw,
            rows: rows.len(),
            row_share,
            absorption,
            loo,
            flows_stranded: stranded,
        });
    }
    warns.append(&mut infos);
    (switches, warns)
}

struct Reference<'a> {
    basis: &'a CsrMatrix,
    factor: &'a SparseFactor,
    fcm: &'a Fcm,
    basis_cols: &'a [usize],
}

impl Reference<'_> {
    fn absorption(
        &self,
        rows: &[usize],
        config: &CoverageConfig,
    ) -> (f64, Option<AbsorptionCertificate>) {
        if rows.is_empty() {
            return (0.0, None);
        }
        let Ok((resid, x)) = foces_sparse::absorption_coefficients(self.basis, self.factor, rows)
        else {
            return (f64::NAN, None);
        };
        let norm_u = (rows.len() as f64).sqrt();
        let rel = resid / norm_u;
        let absorption = (1.0 - rel * rel).max(0.0).sqrt();
        let mut terms: Vec<(usize, f64)> = x
            .iter()
            .enumerate()
            .filter(|(_, c)| c.abs() > 1e-9)
            .map(|(j, &c)| (self.basis_cols[j], c))
            .collect();
        terms.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then(a.0.cmp(&b.0)));
        let omitted = terms.len().saturating_sub(config.certificate_terms);
        terms.truncate(config.certificate_terms);
        let certificate = (!terms.is_empty()).then_some(AbsorptionCertificate {
            terms,
            residual: rel,
            omitted,
        });
        (absorption, certificate)
    }

    fn classify(&self, rows: &[usize]) -> (LooClass, usize, Option<(usize, SwitchId)>) {
        if rows.is_empty() {
            return (LooClass::Localizable, 0, None);
        }
        let cap = capacitance_parity::reference(self.basis, self.factor, rows);
        let stranded = cap.stranded().len();
        if cap.rank_lost() || !cap.merged().is_empty() {
            return (LooClass::RankLost, stranded, None);
        }
        let row_set: BTreeSet<usize> = rows.iter().copied().collect();
        let touched: BTreeSet<usize> = rows
            .iter()
            .flat_map(|&r| self.basis.row_iter(r).map(|(j, _)| j))
            .collect();
        for j in touched {
            if cap.stranded().binary_search(&j).is_ok() {
                continue;
            }
            let remaining: BTreeSet<SwitchId> = self
                .fcm
                .flow_rows(self.basis_cols[j])
                .iter()
                .filter(|r| !row_set.contains(r))
                .map(|&r| self.fcm.rules()[r].switch)
                .collect();
            if remaining.len() == 1 {
                let hinge = remaining.into_iter().next().expect("len checked");
                return (LooClass::ConditionalOnMask, stranded, Some((j, hinge)));
            }
        }
        (LooClass::Localizable, stranded, None)
    }
}

fn is_switch_level(f: &CoverageFinding) -> bool {
    matches!(
        f.kind,
        CoverageKind::RowShareAbsorption | CoverageKind::LooRankLost | CoverageKind::LooConditional
    )
}

/// Asserts `report` equals the reference switch pass on `fcm`, and
/// returns how many switches it scored.
fn assert_parity(name: &str, fcm: &Fcm, report: &CoverageReport) -> usize {
    let config = CoverageConfig::default();
    let (switches, findings) = reference_switch_pass(fcm, &config);
    assert_eq!(report.switches.len(), switches.len(), "{name}: switches");
    for (got, want) in report.switches.iter().zip(&switches) {
        let at = format!("{name} s{}", want.switch.0);
        assert_eq!(
            (got.switch, got.rows, got.loo, got.flows_stranded),
            (want.switch, want.rows, want.loo, want.flows_stranded),
            "{at}"
        );
        assert_eq!(got.row_share.to_bits(), want.row_share.to_bits(), "{at}");
        if want.row_share >= config.row_share_warn {
            assert_eq!(got.absorption.to_bits(), want.absorption.to_bits(), "{at}");
        } else {
            assert!(
                (got.absorption - want.absorption).abs() <= 1e-12,
                "{at}: absorption {} vs {}",
                got.absorption,
                want.absorption
            );
        }
    }
    let got: Vec<String> = report
        .findings
        .iter()
        .filter(|f| is_switch_level(f))
        .map(CoverageFinding::to_json)
        .collect();
    let want: Vec<String> = findings.iter().map(CoverageFinding::to_json).collect();
    assert_eq!(got, want, "{name}: switch-level findings");
    switches.len()
}

fn fcm_of(topo: Topology, granularity: RuleGranularity) -> Fcm {
    let n = topo.host_count() as f64;
    let flows = uniform_flows(&topo, n * (n - 1.0) * 1_000.0);
    Fcm::from_view(&provision(topo, &flows, granularity).unwrap().view)
}

/// FatTree(4) and FatTree(6) under both granularities, ring(4) and
/// ring(6), and BCube(1,4): the new switch pass equals the reference.
/// FatTree(6) per-pair (2,862 basis columns) is over the basis limit, so
/// both passes skip it.
#[test]
fn switch_pass_equals_the_reference_on_paper_topologies() {
    let cases: Vec<(&str, Topology, RuleGranularity)> = vec![
        ("fattree4/pair", fattree(4), RuleGranularity::PerFlowPair),
        ("fattree4/dest", fattree(4), RuleGranularity::PerDestination),
        ("fattree6/pair", fattree(6), RuleGranularity::PerFlowPair),
        ("fattree6/dest", fattree(6), RuleGranularity::PerDestination),
        ("ring4/pair", ring(4), RuleGranularity::PerFlowPair),
        ("ring4/dest", ring(4), RuleGranularity::PerDestination),
        ("ring6/pair", ring(6), RuleGranularity::PerFlowPair),
        ("ring6/dest", ring(6), RuleGranularity::PerDestination),
        ("bcube1,4/pair", bcube(1, 4), RuleGranularity::PerFlowPair),
    ];
    let mut scored = 0;
    for (name, topo, granularity) in cases {
        let fcm = fcm_of(topo, granularity);
        let report = analyze_coverage(&fcm, &CoverageConfig::default()).unwrap();
        scored += assert_parity(name, &fcm, &report);
    }
    assert!(scored >= 95, "{scored} switches scored");
}

/// The three golden scenarios, FatTree(8)'s sampled mesh among them.
#[test]
fn switch_pass_equals_the_reference_on_the_golden_scenarios() {
    for (name, text) in [
        (
            "coverage_fattree8",
            include_str!("../scenarios/coverage_fattree8.foces"),
        ),
        (
            "coverage_fattree4",
            include_str!("../scenarios/coverage_fattree4.foces"),
        ),
        (
            "coverage_ring",
            include_str!("../scenarios/coverage_ring.foces"),
        ),
    ] {
        let dep = Scenario::parse(text).unwrap().provision().unwrap();
        let fcm = Fcm::from_view(&dep.view);
        let report = analyze_coverage(&fcm, &CoverageConfig::default()).unwrap();
        assert!(
            assert_parity(name, &fcm, &report) > 0,
            "{name} scored nobody"
        );
    }
}
