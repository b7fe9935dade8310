use foces_net::{HostId, Node, Port, SwitchId, Topology};
use std::collections::VecDeque;

/// A shortest-path routing tree toward one destination host: for every
/// switch that can reach the destination, the output port of its next hop.
///
/// Building routing per destination (rather than per source-destination
/// pair) guarantees that a switch forwards all traffic for a destination
/// the same way, which is what makes per-destination rule aggregation
/// sound. BFS from the destination's attachment switch with port-order tie
/// breaking keeps it deterministic.
#[derive(Debug, Clone)]
pub struct DestinationTree {
    dst: HostId,
    attachment: SwitchId,
    host_port: Port,
    /// `next_hop[s]` = port switch `s` uses toward `dst`; `None` if `s`
    /// cannot reach the destination or is the attachment switch itself.
    next_hop: Vec<Option<Port>>,
    /// BFS distance (in switch hops) from each switch to the attachment.
    distance: Vec<Option<usize>>,
}

impl DestinationTree {
    /// Computes the tree for `dst` on `topo`.
    ///
    /// Returns `None` if `dst` is not attached to any switch.
    pub fn compute(topo: &Topology, dst: HostId) -> Option<Self> {
        let (attachment, host_port) = topo.host_attachment(dst)?;
        let n = topo.switch_count();
        let mut next_hop = vec![None; n];
        let mut distance = vec![None; n];
        distance[attachment.0] = Some(0);
        let mut queue = VecDeque::new();
        queue.push_back(attachment);
        while let Some(cur) = queue.pop_front() {
            let d = distance[cur.0].expect("queued switches have distances");
            for a in topo.adj(Node::Switch(cur)) {
                let Node::Switch(nb) = a.neighbor else {
                    continue;
                };
                if distance[nb.0].is_some() {
                    continue;
                }
                distance[nb.0] = Some(d + 1);
                // nb forwards toward dst via its port back to cur.
                next_hop[nb.0] = Some(a.neighbor_port);
                queue.push_back(nb);
            }
        }
        Some(DestinationTree {
            dst,
            attachment,
            host_port,
            next_hop,
            distance,
        })
    }

    /// The destination host.
    pub fn dst(&self) -> HostId {
        self.dst
    }

    /// The switch the destination attaches to.
    pub fn attachment(&self) -> SwitchId {
        self.attachment
    }

    /// The attachment switch's port facing the destination host.
    pub fn host_port(&self) -> Port {
        self.host_port
    }

    /// The port `switch` uses toward the destination: the host port on the
    /// attachment switch, the tree parent elsewhere, `None` if unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `switch` is out of range.
    pub fn egress_port(&self, switch: SwitchId) -> Option<Port> {
        if switch == self.attachment {
            Some(self.host_port)
        } else {
            self.next_hop[switch.0]
        }
    }

    /// Switch-hop distance from `switch` to the attachment switch.
    ///
    /// # Panics
    ///
    /// Panics if `switch` is out of range.
    pub fn distance(&self, switch: SwitchId) -> Option<usize> {
        self.distance[switch.0]
    }

    /// The switch path a packet from `src` takes to the destination
    /// (attachment switch of `src` first, destination attachment last), or
    /// `None` if `src` is unattached or cannot reach the destination.
    pub fn path_from(&self, topo: &Topology, src: HostId) -> Option<Vec<SwitchId>> {
        let (mut cur, _) = topo.host_attachment(src)?;
        self.distance[cur.0]?;
        let mut path = vec![cur];
        while cur != self.attachment {
            let port = self.next_hop[cur.0]?;
            let adj = topo.adj(Node::Switch(cur)).get(port.0)?;
            let Node::Switch(next) = adj.neighbor else {
                return None;
            };
            cur = next;
            path.push(cur);
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foces_net::generators::fattree;

    fn line() -> (Topology, Vec<SwitchId>, Vec<HostId>) {
        let mut t = Topology::new();
        let s: Vec<SwitchId> = (0..3).map(|_| t.add_switch()).collect();
        let h = vec![t.add_host(), t.add_host()];
        t.connect(Node::Switch(s[0]), Node::Switch(s[1])).unwrap();
        t.connect(Node::Switch(s[1]), Node::Switch(s[2])).unwrap();
        t.connect(Node::Host(h[0]), Node::Switch(s[0])).unwrap();
        t.connect(Node::Host(h[1]), Node::Switch(s[2])).unwrap();
        (t, s, h)
    }

    #[test]
    fn tree_routes_toward_destination() {
        let (t, s, h) = line();
        let tree = DestinationTree::compute(&t, h[1]).unwrap();
        assert_eq!(tree.attachment(), s[2]);
        assert_eq!(tree.distance(s[0]), Some(2));
        assert_eq!(tree.distance(s[2]), Some(0));
        // s0's egress toward h1 is its port to s1 (port 0).
        assert_eq!(tree.egress_port(s[0]), Some(Port(0)));
        // attachment switch egresses on the host port.
        assert_eq!(tree.egress_port(s[2]), Some(tree.host_port()));
    }

    #[test]
    fn path_from_walks_the_tree() {
        let (t, s, h) = line();
        let tree = DestinationTree::compute(&t, h[1]).unwrap();
        assert_eq!(tree.path_from(&t, h[0]).unwrap(), vec![s[0], s[1], s[2]]);
        // Path from a host attached at the destination switch itself.
        assert_eq!(tree.path_from(&t, h[1]).unwrap(), vec![s[2]]);
    }

    #[test]
    fn unattached_destination_gives_none() {
        let mut t = Topology::new();
        t.add_switch();
        let h = t.add_host();
        assert!(DestinationTree::compute(&t, h).is_none());
    }

    #[test]
    fn unreachable_switch_has_no_egress() {
        let (mut t, _, h) = line();
        let island = t.add_switch();
        let tree = DestinationTree::compute(&t, h[1]).unwrap();
        assert_eq!(tree.egress_port(island), None);
        assert_eq!(tree.distance(island), None);
    }

    #[test]
    fn tree_paths_are_shortest_on_fattree() {
        let t = fattree(4);
        let hosts: Vec<HostId> = t.hosts().collect();
        for &dst in &hosts[..4] {
            let tree = DestinationTree::compute(&t, dst).unwrap();
            for &src in &hosts {
                if src == dst {
                    continue;
                }
                let tree_path = tree.path_from(&t, src).unwrap();
                let bfs_path = t.shortest_path(Node::Host(src), Node::Host(dst)).unwrap();
                // BFS path includes both hosts; switch count must match.
                assert_eq!(
                    tree_path.len(),
                    bfs_path.len() - 2,
                    "src {src:?} dst {dst:?}"
                );
            }
        }
    }
}
