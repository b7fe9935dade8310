//! Stage-cost probe for the incremental pipeline on FatTree(8).
//!
//! `#[ignore]`d by default; run with
//! `cargo test -p foces-bench --release --test probe -- --ignored --nocapture`
//! to print per-stage wall times (grouping, Gram, factorization, batched
//! patches, solve). Useful when tuning the warm path: the environment is
//! memory-bandwidth-bound, so patch costs track full-matrix passes, not
//! flop counts.

use foces::Fcm;
use foces_controlplane::{provision, uniform_flows, RuleGranularity};
use foces_linalg::FactorCache;
use foces_net::generators::fattree;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

#[test]
#[ignore]
fn probe_stage_costs() {
    let topo = fattree(8);
    let n = topo.host_count() as f64;
    let mut flows = uniform_flows(&topo, n * (n - 1.0) * 1000.0);
    let mut rng = StdRng::seed_from_u64(7);
    flows.shuffle(&mut rng);
    flows.truncate(2000);
    let dep = provision(topo, &flows, RuleGranularity::PerDestination).unwrap();
    let fcm = Fcm::from_view(&dep.view);
    eprintln!("flows={} rules={}", fcm.flow_count(), fcm.rule_count());

    let t = Instant::now();
    let groups = fcm.column_groups();
    eprintln!(
        "column_groups: {:.1}ms, basis={}",
        t.elapsed().as_secs_f64() * 1e3,
        groups.basis.len()
    );

    let t = Instant::now();
    let h_basis = fcm.sparse().select_columns(&groups.basis);
    eprintln!("select_columns: {:.1}ms", t.elapsed().as_secs_f64() * 1e3);

    let t = Instant::now();
    let gram = h_basis.gram_dense().unwrap();
    eprintln!("gram_dense: {:.1}ms", t.elapsed().as_secs_f64() * 1e3);

    let t = Instant::now();
    let mut factor = FactorCache::factor(&gram).unwrap();
    eprintln!("factor: {:.1}ms", t.elapsed().as_secs_f64() * 1e3);

    let nb = factor.dim();
    let t = Instant::now();
    factor.remove_batch(&[nb - 5]);
    eprintln!("one remove: {:.1}ms", t.elapsed().as_secs_f64() * 1e3);

    let t = Instant::now();
    let cross = vec![0.0; factor.dim()];
    factor.append_batch(&[cross], &[7.0]).unwrap();
    eprintln!("one append: {:.1}ms", t.elapsed().as_secs_f64() * 1e3);

    let t = Instant::now();
    let positions: Vec<usize> = (0..20).map(|i| i * 80 + 3).collect();
    factor.remove_batch(&positions);
    eprintln!("remove_batch(20): {:.1}ms", t.elapsed().as_secs_f64() * 1e3);

    let t = Instant::now();
    let base = factor.dim();
    let crosses: Vec<Vec<f64>> = (0..20).map(|i| vec![0.0; base + i]).collect();
    let diags: Vec<f64> = (0..20).map(|i| 7.0 + i as f64).collect();
    factor.append_batch(&crosses, &diags).unwrap();
    eprintln!("append_batch(20): {:.1}ms", t.elapsed().as_secs_f64() * 1e3);

    let t = Instant::now();
    let rhs = vec![1.0; factor.dim()];
    let _ = factor.solve(&rhs).unwrap();
    eprintln!("solve: {:.1}ms", t.elapsed().as_secs_f64() * 1e3);
}
