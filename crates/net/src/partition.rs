//! Topology partitioning for sharded detection.
//!
//! The cluster subsystem (`foces-cluster`) splits detection across one
//! worker per *region shard*; this module produces the regions. Two modes:
//!
//! * [`PartitionSpec::PerSwitch`] — every switch is its own region. The
//!   sharded FCM built over this partition reproduces the paper's per-switch
//!   slicing (§IV-B) exactly, which pins the new machinery to the old.
//! * [`PartitionSpec::EdgeCut`] — a greedy balanced edge-cut into `k`
//!   regions: farthest-first seed selection followed by capacity-bounded
//!   multi-source BFS growth. Every region holds at most `⌈n/k⌉` switches
//!   (the balance constraint), regions are contiguous whenever capacity
//!   permits, and the construction is fully deterministic (ties break on
//!   the lower switch/region id), so the same topology always shards the
//!   same way across runs and machines.

use crate::{Node, SwitchId, Topology};
use std::collections::VecDeque;
use std::fmt;

/// How to cut a topology into region shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionSpec {
    /// One region per switch — reproduces per-switch FCM slicing.
    PerSwitch,
    /// Greedy balanced edge-cut into (at most) `k` regions.
    EdgeCut {
        /// Requested region count; clamped to `1..=switch_count`.
        k: usize,
    },
}

impl PartitionSpec {
    /// Parses a CLI-style spec: `"per-switch"` or a shard count for the
    /// greedy edge-cut mode.
    pub fn parse(mode: &str, shards: usize) -> Option<PartitionSpec> {
        match mode {
            "per-switch" => Some(PartitionSpec::PerSwitch),
            "greedy" | "edge-cut" => Some(PartitionSpec::EdgeCut { k: shards }),
            _ => None,
        }
    }
}

impl fmt::Display for PartitionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionSpec::PerSwitch => write!(f, "per-switch"),
            PartitionSpec::EdgeCut { k } => write!(f, "edge-cut(k={k})"),
        }
    }
}

/// A complete assignment of every switch to exactly one region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Region index per switch (indexed by `SwitchId.0`).
    region_of: Vec<usize>,
    /// Member switches per region, ascending within each region.
    regions: Vec<Vec<SwitchId>>,
}

impl Partition {
    /// The per-switch partition of switches `0..n`: switch `i` is region
    /// `i`. [`partition`] with [`PartitionSpec::PerSwitch`] returns this
    /// for a topology's switch count; callers holding only an FCM pass one
    /// past the largest switch id they see.
    pub fn per_switch(n: usize) -> Partition {
        Partition {
            region_of: (0..n).collect(),
            regions: (0..n).map(|i| vec![SwitchId(i)]).collect(),
        }
    }

    /// Number of regions. Every region is non-empty.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// The region a switch belongs to.
    ///
    /// # Panics
    ///
    /// Panics if the switch id is out of range for the partitioned
    /// topology.
    pub fn region_of(&self, s: SwitchId) -> usize {
        self.region_of[s.0]
    }

    /// Member switches of one region, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `region >= region_count()`.
    pub fn region(&self, region: usize) -> &[SwitchId] {
        &self.regions[region]
    }

    /// All regions, each ascending, indexed by region id.
    pub fn regions(&self) -> &[Vec<SwitchId>] {
        &self.regions
    }

    /// Number of switch–switch links whose endpoints sit in different
    /// regions — the quantity the greedy partitioner minimizes.
    pub fn edge_cut(&self, topo: &Topology) -> usize {
        let mut cut = 0;
        for s in topo.switches() {
            for adj in topo.adj(Node::Switch(s)) {
                if let Node::Switch(t) = adj.neighbor {
                    if t.0 > s.0 && self.region_of[s.0] != self.region_of[t.0] {
                        cut += 1;
                    }
                }
            }
        }
        cut
    }

    /// Largest region size divided by the ideal `n/k` — 1.0 is perfectly
    /// balanced.
    pub fn balance(&self) -> f64 {
        let n: usize = self.regions.iter().map(Vec::len).sum();
        if n == 0 || self.regions.is_empty() {
            return 1.0;
        }
        let largest = self.regions.iter().map(Vec::len).max().unwrap_or(0);
        largest as f64 / (n as f64 / self.regions.len() as f64)
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sizes: Vec<usize> = self.regions.iter().map(Vec::len).collect();
        write!(
            f,
            "{} regions, sizes {:?}, balance {:.2}",
            self.region_count(),
            sizes,
            self.balance()
        )
    }
}

/// Cuts `topo`'s switches into region shards per `spec`.
///
/// `EdgeCut { k }` clamps `k` to `1..=switch_count` and guarantees every
/// region is non-empty with at most `⌈n/k⌉` members. An empty topology
/// yields a partition with zero regions.
pub fn partition(topo: &Topology, spec: PartitionSpec) -> Partition {
    let n = topo.switch_count();
    if n == 0 {
        return Partition {
            region_of: Vec::new(),
            regions: Vec::new(),
        };
    }
    let k = match spec {
        PartitionSpec::PerSwitch => return Partition::per_switch(n),
        PartitionSpec::EdgeCut { k } => k.clamp(1, n),
    };
    let cap = n.div_ceil(k);

    // Farthest-first seeds: the first seed is switch 0; each further seed
    // maximizes the BFS hop distance (over the switch-only graph) to the
    // nearest already-chosen seed, ties to the lower id. Disconnected
    // switches have infinite distance and get seeded first, which keeps
    // every component represented when k allows.
    let mut dist = vec![usize::MAX; n];
    let mut seeds = Vec::with_capacity(k);
    let mut next_seed = SwitchId(0);
    for _ in 0..k {
        seeds.push(next_seed);
        // Relax distances from the new seed.
        let mut queue = VecDeque::new();
        dist[next_seed.0] = 0;
        queue.push_back(next_seed);
        while let Some(s) = queue.pop_front() {
            for adj in topo.adj(Node::Switch(s)) {
                if let Node::Switch(t) = adj.neighbor {
                    if dist[t.0] > dist[s.0] + 1 {
                        dist[t.0] = dist[s.0] + 1;
                        queue.push_back(t);
                    }
                }
            }
        }
        if let Some(far) = (0..n)
            .filter(|&i| dist[i] > 0)
            .max_by_key(|&i| (dist[i], n - i))
        {
            next_seed = SwitchId(far);
        } else {
            break; // fewer reachable switches than k — partial seed set
        }
    }

    // Capacity-bounded multi-source BFS growth, round-robin over regions so
    // no region starves: each turn a region claims one unassigned neighbor
    // from its frontier.
    let mut region_of = vec![usize::MAX; n];
    let mut sizes = vec![0usize; seeds.len()];
    let mut frontiers: Vec<VecDeque<SwitchId>> = seeds.iter().map(|_| VecDeque::new()).collect();
    for (r, &seed) in seeds.iter().enumerate() {
        region_of[seed.0] = r;
        sizes[r] = 1;
        frontiers[r].push_back(seed);
    }
    let mut progressed = true;
    while progressed {
        progressed = false;
        for r in 0..seeds.len() {
            if sizes[r] >= cap {
                continue;
            }
            'grow: while let Some(&s) = frontiers[r].front() {
                for adj in topo.adj(Node::Switch(s)) {
                    if let Node::Switch(t) = adj.neighbor {
                        if region_of[t.0] == usize::MAX {
                            region_of[t.0] = r;
                            sizes[r] += 1;
                            frontiers[r].push_back(t);
                            progressed = true;
                            break 'grow; // one claim per turn keeps growth balanced
                        }
                    }
                }
                frontiers[r].pop_front(); // exhausted node
            }
        }
    }

    // Fill: switches left unassigned (unreachable from any seed, or walled
    // off by full regions) go to the smallest under-capacity region,
    // preferring one they are adjacent to. Since k·cap ≥ n some region is
    // always under capacity, so the ⌈n/k⌉ bound survives the fill.
    for i in 0..n {
        if region_of[i] != usize::MAX {
            continue;
        }
        let adjacent_best = topo
            .adj(Node::Switch(SwitchId(i)))
            .iter()
            .filter_map(|a| match a.neighbor {
                Node::Switch(t) if region_of[t.0] != usize::MAX => Some(region_of[t.0]),
                _ => None,
            })
            .filter(|&r| sizes[r] < cap)
            .min_by_key(|&r| (sizes[r], r));
        let r = adjacent_best.unwrap_or_else(|| {
            (0..sizes.len())
                .filter(|&r| sizes[r] < cap)
                .min_by_key(|&r| (sizes[r], r))
                .expect("k·cap ≥ n leaves an under-capacity region")
        });
        region_of[i] = r;
        sizes[r] += 1;
    }

    let mut regions: Vec<Vec<SwitchId>> = vec![Vec::new(); seeds.len()];
    for i in 0..n {
        regions[region_of[i]].push(SwitchId(i));
    }
    Partition { region_of, regions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{bcube, fattree, linear, random_connected, ring};

    fn check_complete(topo: &Topology, p: &Partition) {
        let mut seen = vec![false; topo.switch_count()];
        for (r, members) in p.regions().iter().enumerate() {
            assert!(!members.is_empty(), "region {r} is empty");
            for &s in members {
                assert_eq!(p.region_of(s), r);
                assert!(!seen[s.0], "switch {s:?} assigned twice");
                seen[s.0] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "every switch must be assigned");
    }

    #[test]
    fn per_switch_mode_is_singletons() {
        let topo = fattree(4);
        let p = partition(&topo, PartitionSpec::PerSwitch);
        assert_eq!(p.region_count(), topo.switch_count());
        check_complete(&topo, &p);
        for (r, members) in p.regions().iter().enumerate() {
            assert_eq!(members, &vec![SwitchId(r)]);
        }
        assert_eq!(p.edge_cut(&topo), {
            // Every switch–switch link is cut.
            let mut switch_links = 0;
            for s in topo.switches() {
                for a in topo.adj(Node::Switch(s)) {
                    if matches!(a.neighbor, Node::Switch(t) if t.0 > s.0) {
                        switch_links += 1;
                    }
                }
            }
            switch_links
        });
    }

    #[test]
    fn edge_cut_respects_balance_bound() {
        for (topo, ks) in [
            (fattree(4), vec![1, 2, 3, 4, 7, 20, 50]),
            (bcube(1, 4), vec![1, 2, 4, 5, 24]),
            (ring(9), vec![2, 3, 4]),
        ] {
            let n = topo.switch_count();
            for k in ks {
                let p = partition(&topo, PartitionSpec::EdgeCut { k });
                check_complete(&topo, &p);
                let k_eff = k.clamp(1, n);
                assert_eq!(p.region_count(), k_eff, "k={k} on n={n}");
                let cap = n.div_ceil(k_eff);
                for members in p.regions() {
                    assert!(members.len() <= cap, "k={k}: region over capacity");
                }
            }
        }
    }

    #[test]
    fn single_region_has_zero_cut() {
        let topo = bcube(1, 4);
        let p = partition(&topo, PartitionSpec::EdgeCut { k: 1 });
        assert_eq!(p.region_count(), 1);
        assert_eq!(p.edge_cut(&topo), 0);
        assert!((p.balance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn grown_regions_cut_fewer_edges_than_singletons() {
        let topo = fattree(4);
        let grown = partition(&topo, PartitionSpec::EdgeCut { k: 4 });
        let singleton = partition(&topo, PartitionSpec::PerSwitch);
        assert!(
            grown.edge_cut(&topo) < singleton.edge_cut(&topo),
            "a 4-way cut must beat the all-singleton cut: {} vs {}",
            grown.edge_cut(&topo),
            singleton.edge_cut(&topo)
        );
    }

    #[test]
    fn contiguous_on_a_line() {
        // On a path graph a balanced cut has exactly k-1 cut edges.
        let topo = linear(12);
        let p = partition(&topo, PartitionSpec::EdgeCut { k: 3 });
        check_complete(&topo, &p);
        assert_eq!(p.edge_cut(&topo), 2, "{p}");
    }

    #[test]
    fn deterministic_across_calls() {
        let topo = random_connected(40, 30, 7);
        let a = partition(&topo, PartitionSpec::EdgeCut { k: 5 });
        let b = partition(&topo, PartitionSpec::EdgeCut { k: 5 });
        assert_eq!(a, b);
    }

    #[test]
    fn empty_topology_yields_empty_partition() {
        let topo = Topology::new();
        for spec in [PartitionSpec::PerSwitch, PartitionSpec::EdgeCut { k: 3 }] {
            let p = partition(&topo, spec);
            assert_eq!(p.region_count(), 0);
        }
    }

    #[test]
    fn spec_parse_round_trip() {
        assert_eq!(
            PartitionSpec::parse("per-switch", 9),
            Some(PartitionSpec::PerSwitch)
        );
        assert_eq!(
            PartitionSpec::parse("greedy", 4),
            Some(PartitionSpec::EdgeCut { k: 4 })
        );
        assert_eq!(
            PartitionSpec::parse("edge-cut", 2),
            Some(PartitionSpec::EdgeCut { k: 2 })
        );
        assert_eq!(PartitionSpec::parse("metis", 4), None);
        assert!(PartitionSpec::PerSwitch.to_string().contains("per-switch"));
        assert!(PartitionSpec::EdgeCut { k: 4 }.to_string().contains("4"));
    }
}
