//! Generators for the four topologies of the paper's Table I, plus their
//! parameterized families.
//!
//! | Topology | switches | hosts |
//! |---|---|---|
//! | Stanford-like backbone | 26 | 26 |
//! | FatTree(4) | 20 | 16 |
//! | BCube(1,4) | 24 | 16 |
//! | DCell(1,4) | 25 | 20 |
//!
//! BCube and DCell hosts forward traffic themselves; to keep hosts pure
//! endpoints (as the data-plane simulator requires) each such host is
//! modeled as a [`SwitchRole::HostProxy`] switch with the real host attached,
//! which also reproduces the paper's switch counts exactly.

use crate::{Node, SwitchId, SwitchRole, Topology};

/// Builds a FatTree(k) topology (k even): `(k/2)²` core switches, `k` pods
/// of `k/2` aggregation and `k/2` edge switches, and `k/2` hosts per edge
/// switch — `k³/4` hosts total.
///
/// # Panics
///
/// Panics if `k` is zero or odd.
///
/// # Example
///
/// ```
/// let t = foces_net::generators::fattree(4);
/// assert_eq!(t.switch_count(), 20);
/// assert_eq!(t.host_count(), 16);
/// t.validate().unwrap();
/// ```
pub fn fattree(k: usize) -> Topology {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fattree requires an even k >= 2"
    );
    let half = k / 2;
    let mut t = Topology::new();
    let cores: Vec<SwitchId> = (0..half * half)
        .map(|_| t.add_switch_with_role(SwitchRole::Core))
        .collect();
    let mut aggs = Vec::with_capacity(k * half);
    let mut edges = Vec::with_capacity(k * half);
    for _ in 0..k {
        let pod_aggs: Vec<SwitchId> = (0..half)
            .map(|_| t.add_switch_with_role(SwitchRole::Aggregation))
            .collect();
        let pod_edges: Vec<SwitchId> = (0..half)
            .map(|_| t.add_switch_with_role(SwitchRole::Edge))
            .collect();
        // Full bipartite agg <-> edge within the pod.
        for &a in &pod_aggs {
            for &e in &pod_edges {
                t.connect(Node::Switch(a), Node::Switch(e))
                    .expect("fresh switches");
            }
        }
        // Agg j serves core group j.
        for (j, &a) in pod_aggs.iter().enumerate() {
            for c in 0..half {
                t.connect(Node::Switch(a), Node::Switch(cores[j * half + c]))
                    .expect("fresh switches");
            }
        }
        // Hosts on edge switches.
        for &e in &pod_edges {
            for _ in 0..half {
                let h = t.add_host();
                t.connect(Node::Host(h), Node::Switch(e))
                    .expect("fresh host");
            }
        }
        aggs.extend(pod_aggs);
        edges.extend(pod_edges);
    }
    t
}

/// Builds a BCube(level, n) topology: `n^(level+1)` hosts, each behind a
/// host-proxy switch, plus `(level+1) * n^level` cell switches.
///
/// BCube(1,4) (the paper's instance) therefore has `16` hosts and
/// `16 + 2*4 = 24` switches.
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// # Example
///
/// ```
/// let t = foces_net::generators::bcube(1, 4);
/// assert_eq!(t.switch_count(), 24);
/// assert_eq!(t.host_count(), 16);
/// ```
pub fn bcube(level: usize, n: usize) -> Topology {
    assert!(n >= 2, "bcube requires n >= 2");
    let mut t = Topology::new();
    let host_total = n.pow(level as u32 + 1);
    // Proxy switch + host per BCube server.
    let proxies: Vec<SwitchId> = (0..host_total)
        .map(|_| {
            let p = t.add_switch_with_role(SwitchRole::HostProxy);
            let h = t.add_host();
            t.connect(Node::Host(h), Node::Switch(p)).expect("fresh");
            p
        })
        .collect();
    // Level-l switch s (s in 0..n^level) connects to the n servers whose
    // base-n digit string equals s's digits with a free digit inserted at
    // position l.
    for l in 0..=level {
        let stride_l = n.pow(l as u32);
        for s in 0..n.pow(level as u32) {
            let sw = t.add_switch_with_role(SwitchRole::Cell);
            // Split s's digits around position l.
            let low = s % stride_l;
            let high = s / stride_l;
            for d in 0..n {
                let server = high * stride_l * n + d * stride_l + low;
                t.connect(Node::Switch(sw), Node::Switch(proxies[server]))
                    .expect("fresh");
            }
        }
    }
    t
}

/// Builds a DCell(level, n) topology for `level <= 1`: DCell(0,n) is `n`
/// servers on one mini-switch; DCell(1,n) is `n+1` DCell(0) cells with one
/// cross link per cell pair. Servers are modeled as host-proxy switches.
///
/// DCell(1,4) (the paper's instance) has `4*5 = 20` hosts and
/// `20 + 5 = 25` switches.
///
/// # Panics
///
/// Panics if `n < 2` or `level > 1` (higher levels are not needed by any
/// experiment and are left unimplemented).
///
/// # Example
///
/// ```
/// let t = foces_net::generators::dcell(1, 4);
/// assert_eq!(t.switch_count(), 25);
/// assert_eq!(t.host_count(), 20);
/// ```
pub fn dcell(level: usize, n: usize) -> Topology {
    assert!(n >= 2, "dcell requires n >= 2");
    assert!(level <= 1, "dcell levels above 1 are not implemented");
    let mut t = Topology::new();
    if level == 0 {
        let sw = t.add_switch_with_role(SwitchRole::Cell);
        for _ in 0..n {
            let p = t.add_switch_with_role(SwitchRole::HostProxy);
            let h = t.add_host();
            t.connect(Node::Host(h), Node::Switch(p)).expect("fresh");
            t.connect(Node::Switch(p), Node::Switch(sw)).expect("fresh");
        }
        return t;
    }
    // level == 1: n+1 cells of n servers.
    let cells = n + 1;
    let mut proxies = vec![Vec::with_capacity(n); cells];
    for cell_proxies in &mut proxies {
        let sw = t.add_switch_with_role(SwitchRole::Cell);
        for _ in 0..n {
            let p = t.add_switch_with_role(SwitchRole::HostProxy);
            let h = t.add_host();
            t.connect(Node::Host(h), Node::Switch(p)).expect("fresh");
            t.connect(Node::Switch(p), Node::Switch(sw)).expect("fresh");
            cell_proxies.push(p);
        }
    }
    // Cross links: server j-1 of cell i <-> server i of cell j, for i < j.
    for (i, cell_i) in proxies.iter().enumerate() {
        for (j, cell_j) in proxies.iter().enumerate().skip(i + 1) {
            t.connect(Node::Switch(cell_i[j - 1]), Node::Switch(cell_j[i]))
                .expect("fresh");
        }
    }
    t
}

/// Builds a Stanford-backbone-like WAN: 26 switches (2 core, 10 backbone,
/// 14 operational-zone routers), one host per switch, matching the paper's
/// Table I dimensions (26 switches, 26 hosts, 650 host pairs).
///
/// The real Stanford configuration (router configs from the Header Space
/// Analysis dataset) is not redistributable; this synthetic stand-in keeps
/// the size, diameter (≤ 5 switch hops), and two-tier structure, which is
/// all FOCES's math consumes.
///
/// # Example
///
/// ```
/// let t = foces_net::generators::stanford();
/// assert_eq!(t.switch_count(), 26);
/// assert_eq!(t.host_count(), 26);
/// assert!(t.all_hosts_connected());
/// ```
pub fn stanford() -> Topology {
    let mut t = Topology::new();
    let cores: Vec<SwitchId> = (0..2)
        .map(|_| t.add_switch_with_role(SwitchRole::Core))
        .collect();
    t.connect(Node::Switch(cores[0]), Node::Switch(cores[1]))
        .expect("fresh");
    let backbones: Vec<SwitchId> = (0..10)
        .map(|_| t.add_switch_with_role(SwitchRole::Backbone))
        .collect();
    for &b in &backbones {
        for &c in &cores {
            t.connect(Node::Switch(b), Node::Switch(c)).expect("fresh");
        }
    }
    let zones: Vec<SwitchId> = (0..14)
        .map(|_| t.add_switch_with_role(SwitchRole::Edge))
        .collect();
    for (i, &z) in zones.iter().enumerate() {
        // Dual-homed to two adjacent backbone routers.
        t.connect(Node::Switch(z), Node::Switch(backbones[i % 10]))
            .expect("fresh");
        t.connect(Node::Switch(z), Node::Switch(backbones[(i + 1) % 10]))
            .expect("fresh");
    }
    for s in 0..t.switch_count() {
        let h = t.add_host();
        t.connect(Node::Host(h), Node::Switch(SwitchId(s)))
            .expect("fresh");
    }
    t
}

/// Builds a linear chain of `n` switches (`s0 - s1 - … - s(n-1)`) with one
/// host per switch — the minimal topology for path-anomaly scenarios.
///
/// # Panics
///
/// Panics if `n` is zero.
///
/// # Example
///
/// ```
/// let t = foces_net::generators::linear(4);
/// assert_eq!(t.switch_count(), 4);
/// assert_eq!(t.link_count(), 3 + 4); // chain + host links
/// ```
pub fn linear(n: usize) -> Topology {
    assert!(n >= 1, "linear requires at least one switch");
    let mut t = Topology::new();
    let switches: Vec<SwitchId> = (0..n)
        .map(|_| t.add_switch_with_role(SwitchRole::Backbone))
        .collect();
    for w in switches.windows(2) {
        t.connect(Node::Switch(w[0]), Node::Switch(w[1]))
            .expect("fresh switches");
    }
    for &s in &switches {
        let h = t.add_host();
        t.connect(Node::Host(h), Node::Switch(s)).expect("fresh");
    }
    t
}

/// Builds a ring of `n` switches with one host each. Rings give every
/// destination exactly two disjoint paths — the smallest topology where a
/// deviation can reach the destination over an unintended route.
///
/// # Panics
///
/// Panics if `n < 3`.
///
/// # Example
///
/// ```
/// let t = foces_net::generators::ring(5);
/// assert_eq!(t.link_count(), 5 + 5);
/// assert!(t.all_hosts_connected());
/// ```
pub fn ring(n: usize) -> Topology {
    assert!(n >= 3, "ring requires at least three switches");
    let mut t = linear(n);
    t.connect(Node::Switch(SwitchId(0)), Node::Switch(SwitchId(n - 1)))
        .expect("closing the ring");
    t
}

/// Builds a random connected topology: a deterministic spanning tree over
/// `n` switches plus `extra_links` random chords (duplicate draws are
/// skipped), one host per switch. Fully determined by `seed` — the
/// workhorse for property-based testing over topology space.
///
/// # Panics
///
/// Panics if `n` is zero.
///
/// # Example
///
/// ```
/// let a = foces_net::generators::random_connected(8, 3, 42);
/// let b = foces_net::generators::random_connected(8, 3, 42);
/// assert_eq!(a.link_count(), b.link_count()); // deterministic per seed
/// assert!(a.all_hosts_connected());
/// ```
pub fn random_connected(n: usize, extra_links: usize, seed: u64) -> Topology {
    assert!(n >= 1, "random_connected requires at least one switch");
    // Small deterministic xorshift so the crate stays dependency-free.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut t = Topology::new();
    let switches: Vec<SwitchId> = (0..n)
        .map(|_| t.add_switch_with_role(SwitchRole::Unspecified))
        .collect();
    for i in 1..n {
        let parent = (next() as usize) % i;
        t.connect(Node::Switch(switches[i]), Node::Switch(switches[parent]))
            .expect("fresh switches");
    }
    for _ in 0..extra_links {
        if n < 2 {
            break;
        }
        let a = (next() as usize) % n;
        let b = (next() as usize) % n;
        if a == b {
            continue;
        }
        if t.port_towards(Node::Switch(switches[a]), Node::Switch(switches[b]))
            .is_some()
        {
            continue;
        }
        t.connect(Node::Switch(switches[a]), Node::Switch(switches[b]))
            .expect("fresh link");
    }
    for &s in &switches {
        let h = t.add_host();
        t.connect(Node::Host(h), Node::Switch(s)).expect("fresh");
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HostId, Node};

    #[test]
    fn fattree4_matches_table1() {
        let t = fattree(4);
        assert_eq!(t.switch_count(), 20);
        assert_eq!(t.host_count(), 16);
        t.validate().unwrap();
        assert!(t.all_hosts_connected());
    }

    #[test]
    fn fattree4_link_structure() {
        let t = fattree(4);
        // k=4: core links = 4 pods * 2 aggs * 2 = 16; pod internal = 4*2*2 = 16;
        // host links = 16. Total 48.
        assert_eq!(t.link_count(), 48);
        // All core switches have degree k.
        for s in t.switches() {
            if t.switch_role(s) == SwitchRole::Core {
                assert_eq!(t.adj(Node::Switch(s)).len(), 4);
            }
        }
    }

    #[test]
    fn fattree8_for_fig12() {
        let t = fattree(8);
        assert_eq!(t.switch_count(), 16 + 8 * 8); // 16 core + 32 agg + 32 edge
        assert_eq!(t.host_count(), 128);
        t.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "even")]
    fn fattree_rejects_odd_k() {
        fattree(3);
    }

    #[test]
    fn bcube14_matches_table1() {
        let t = bcube(1, 4);
        assert_eq!(t.switch_count(), 24);
        assert_eq!(t.host_count(), 16);
        t.validate().unwrap();
        assert!(t.all_hosts_connected());
    }

    #[test]
    fn bcube_cell_switch_degree_is_n() {
        let t = bcube(1, 4);
        for s in t.switches() {
            match t.switch_role(s) {
                SwitchRole::Cell => assert_eq!(t.adj(Node::Switch(s)).len(), 4),
                SwitchRole::HostProxy => {
                    // 1 host + one link per level (level+1 = 2).
                    assert_eq!(t.adj(Node::Switch(s)).len(), 3);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn bcube_paths_are_short() {
        let t = bcube(1, 4);
        // Worst-case host-to-host path in BCube(1,4):
        // h - proxy - sw - proxy - sw - proxy - h = 7 nodes.
        for a in 0..4 {
            for b in 4..8 {
                let p = t
                    .shortest_path(Node::Host(HostId(a)), Node::Host(HostId(b)))
                    .unwrap();
                assert!(p.len() <= 7, "path {p:?}");
            }
        }
    }

    #[test]
    fn dcell14_matches_table1() {
        let t = dcell(1, 4);
        assert_eq!(t.switch_count(), 25);
        assert_eq!(t.host_count(), 20);
        t.validate().unwrap();
        assert!(t.all_hosts_connected());
    }

    #[test]
    fn dcell0_shape() {
        let t = dcell(0, 4);
        assert_eq!(t.switch_count(), 5); // 1 mini-switch + 4 proxies
        assert_eq!(t.host_count(), 4);
        t.validate().unwrap();
    }

    #[test]
    fn dcell_cross_links_exist() {
        let t = dcell(1, 4);
        // total links: per cell (n hosts + n proxy-switch links) = 8 * 5 = 40,
        // plus C(5,2) = 10 cross links.
        assert_eq!(t.link_count(), 50);
    }

    #[test]
    fn stanford_matches_table1() {
        let t = stanford();
        assert_eq!(t.switch_count(), 26);
        assert_eq!(t.host_count(), 26);
        t.validate().unwrap();
        assert!(t.all_hosts_connected());
    }

    #[test]
    fn stanford_diameter_is_small() {
        let t = stanford();
        let hosts: Vec<HostId> = t.hosts().collect();
        let mut max_len = 0;
        for &a in &hosts {
            for &b in &hosts {
                if a == b {
                    continue;
                }
                let p = t.shortest_path(Node::Host(a), Node::Host(b)).unwrap();
                max_len = max_len.max(p.len());
            }
        }
        // h + at most 5 switches + h.
        assert!(max_len <= 7, "diameter too large: {max_len}");
    }

    #[test]
    fn linear_and_ring_shapes() {
        let l = linear(4);
        assert_eq!(l.switch_count(), 4);
        assert_eq!(l.host_count(), 4);
        assert_eq!(l.link_count(), 7);
        l.validate().unwrap();
        // End-to-end path visits every switch.
        let p = l
            .shortest_path(Node::Host(HostId(0)), Node::Host(HostId(3)))
            .unwrap();
        assert_eq!(p.len(), 6);

        let r = ring(5);
        assert_eq!(r.link_count(), 10);
        r.validate().unwrap();
        // Ring halves the worst-case distance vs the chain.
        let p = r
            .shortest_path(Node::Host(HostId(0)), Node::Host(HostId(4)))
            .unwrap();
        assert_eq!(p.len(), 4, "wrap-around link shortens the path");
    }

    #[test]
    #[should_panic(expected = "at least three")]
    fn tiny_ring_rejected() {
        ring(2);
    }

    #[test]
    fn random_connected_is_deterministic_and_connected() {
        for seed in 0..20 {
            let t = random_connected(9, 4, seed);
            t.validate().unwrap();
            assert!(t.all_hosts_connected(), "seed {seed}");
            assert_eq!(t.switch_count(), 9);
            assert_eq!(t.host_count(), 9);
            // tree (8) + hosts (9) <= links <= tree + hosts + 4 chords
            assert!(t.link_count() >= 17 && t.link_count() <= 21);
            let t2 = random_connected(9, 4, seed);
            assert_eq!(t.link_count(), t2.link_count());
        }
        // Different seeds generally give different graphs.
        let counts: std::collections::BTreeSet<usize> = (0..20)
            .map(|s| random_connected(12, 6, s).link_count())
            .collect();
        assert!(counts.len() > 1);
    }

    #[test]
    fn all_generators_produce_deterministic_output() {
        for (a, b) in [
            (fattree(4).link_count(), fattree(4).link_count()),
            (bcube(1, 4).link_count(), bcube(1, 4).link_count()),
            (dcell(1, 4).link_count(), dcell(1, 4).link_count()),
            (stanford().link_count(), stanford().link_count()),
        ] {
            assert_eq!(a, b);
        }
    }
}
