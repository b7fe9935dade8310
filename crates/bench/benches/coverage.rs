//! Static coverage analysis wall-clock on the golden planes.
//!
//! Hand-rolled harness (`harness = false`, no Criterion). The analyzer is
//! a pre-flight gate — it runs inside `RuntimeService::new` and on every
//! FCM rebuild — so its cost must stay far below an epoch. This bench
//! times [`analyze_coverage`] on FatTree(4) (full all-pairs mesh), the
//! 4-switch ring, and a deterministically sampled FatTree(8), plus the
//! sharded variant ([`analyze_cluster_coverage`], k=4) on the FatTree(8)
//! plane, and asserts the golden verdicts along the way: both fat-trees
//! clean and all-Localizable, the ring WARNing with certificates. The
//! leave-one-out classes come from one sparse factor and a Woodbury
//! capacitance per switch (`foces_sparse::Capacitance`); the sampled
//! FatTree(8) cells took 3.3–3.5 s when each switch instead cloned a
//! dense factor and downdated it row by row. Results land in `BENCH_coverage.json` at the repository root. With
//! `--test` (the CI smoke mode) FatTree(8) is skipped and nothing is
//! written.

use foces::{
    analyze_cluster_coverage, analyze_coverage, CoverageConfig, CoverageReport, Fcm, LooClass,
    ShardedFcm,
};
use foces_controlplane::{provision, uniform_flows, RuleGranularity};
use foces_net::generators::{fattree, ring};
use foces_net::{partition, PartitionSpec, Topology};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

struct Sample {
    name: &'static str,
    rules: usize,
    flows: usize,
    warnings: usize,
    localizable: usize,
    elapsed_ms: f64,
}

fn analyze(
    name: &'static str,
    topo: Topology,
    flow_cap: Option<usize>,
) -> (CoverageReport, Sample) {
    let n = topo.host_count() as f64;
    let mut flows = uniform_flows(&topo, n * (n - 1.0) * 1000.0);
    if let Some(cap) = flow_cap {
        let mut rng = StdRng::seed_from_u64(7);
        flows.shuffle(&mut rng);
        flows.truncate(cap);
    }
    let dep = provision(topo, &flows, RuleGranularity::PerFlowPair).expect("provision");
    let fcm = Fcm::from_view(&dep.view);
    let t = Instant::now();
    let report = analyze_coverage(&fcm, &CoverageConfig::default()).expect("analysis");
    let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "{name}: {} rules x {} flows, {} warnings, {:.1} ms",
        report.rule_count,
        report.flow_count,
        report.warn_count(),
        elapsed_ms
    );
    let sample = Sample {
        name,
        rules: report.rule_count,
        flows: report.flow_count,
        warnings: report.warn_count(),
        localizable: report.class_count(LooClass::Localizable),
        elapsed_ms,
    };
    (report, sample)
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let mut samples = Vec::new();

    let (ft4, s) = analyze("fattree4", fattree(4), None);
    assert!(ft4.is_clean(), "FatTree(4) golden: {}", ft4.summary());
    assert_eq!(
        ft4.class_count(LooClass::Localizable),
        ft4.switches.iter().filter(|s| s.rows > 0).count(),
        "every row-owning FatTree(4) switch is localizable"
    );
    samples.push(s);

    let (rng4, s) = analyze("ring4", ring(4), None);
    assert!(
        !rng4.is_clean(),
        "ring golden must WARN: {}",
        rng4.summary()
    );
    assert!(
        rng4.findings
            .iter()
            .any(|f| f.severity.is_warn() && f.certificate.is_some()),
        "ring WARNs carry absorption certificates"
    );
    samples.push(s);

    if !test_mode {
        let topo = fattree(8);
        let n = topo.host_count() as f64;
        let mut flows = uniform_flows(&topo, n * (n - 1.0) * 1000.0);
        let mut rng = StdRng::seed_from_u64(7);
        flows.shuffle(&mut rng);
        flows.truncate(1200);
        let dep = provision(topo, &flows, RuleGranularity::PerFlowPair).expect("provision");
        let fcm = Fcm::from_view(&dep.view);

        let t = Instant::now();
        let ft8 = analyze_coverage(&fcm, &CoverageConfig::default()).expect("analysis");
        let flat_ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(ft8.is_clean(), "FatTree(8) golden: {}", ft8.summary());
        eprintln!("fattree8-sample1200 (flat): {flat_ms:.1} ms");
        samples.push(Sample {
            name: "fattree8_sample1200",
            rules: ft8.rule_count,
            flows: ft8.flow_count,
            warnings: ft8.warn_count(),
            localizable: ft8.class_count(LooClass::Localizable),
            elapsed_ms: flat_ms,
        });

        let part = partition(dep.view.topology(), PartitionSpec::EdgeCut { k: 4 });
        let sharded = ShardedFcm::from_fcm(&fcm, &part);
        let t = Instant::now();
        let clustered = analyze_cluster_coverage(&fcm, &sharded, &CoverageConfig::default())
            .expect("cluster analysis");
        let sharded_ms = t.elapsed().as_secs_f64() * 1e3;
        eprintln!(
            "fattree8-sample1200 (k=4 shards): {sharded_ms:.1} ms, {} shard(s) rank-deficient",
            clustered
                .shards
                .iter()
                .filter(|s| s.analyzed && !s.full_rank)
                .count()
        );
        samples.push(Sample {
            name: "fattree8_sample1200_k4",
            rules: clustered.rule_count,
            flows: clustered.flow_count,
            warnings: clustered.warn_count(),
            localizable: clustered.class_count(LooClass::Localizable),
            elapsed_ms: sharded_ms,
        });

        let mut json = String::from("{\"bench\":\"coverage\",\"samples\":[");
        for (i, s) in samples.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "{{\"name\":\"{}\",\"rules\":{},\"flows\":{},\"warnings\":{},\
                 \"localizable\":{},\"elapsed_ms\":{:.3}}}",
                s.name, s.rules, s.flows, s.warnings, s.localizable, s.elapsed_ms
            );
        }
        json.push_str("]}\n");
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_coverage.json");
        std::fs::write(out, &json).expect("write BENCH_coverage.json");
        print!("{json}");
        eprintln!("wrote {out}");
    }
}
