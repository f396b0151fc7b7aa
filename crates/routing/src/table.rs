//! Generic next-hop routing tables.
//!
//! A [`RoutingTable`] holds, for every (current node, destination) pair, the
//! next node to forward to along one shortest path, plus its distance.  It
//! is computed by a reverse BFS from every destination, works for any
//! strongly connected digraph, and serves the callers that really route:
//! it is the reference against which the specialised label/arithmetic
//! routers are validated, the route oracle of the point-to-point families
//! without label routing (de Bruijn, complete digraphs), and the quotient
//! table of [`crate::StackRouter`].  The deflection simulator only compares
//! distances, so it uses the much smaller [`crate::DistanceTable`] instead.
//!
//! A table is always built whole, fault sets included (on the surviving
//! subgraph): the quotients it serves are small.  Delta repair of a
//! faulted network lives in [`crate::DistanceTable::repaired`].

use otis_graphs::algorithms::bfs::UNREACHABLE;
use otis_graphs::{Digraph, NodeId};
use std::collections::VecDeque;

/// Precomputed next-hop table and distance matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    n: usize,
    /// `next[dst * n + u]`: next hop from `u` towards `dst` (`usize::MAX`
    /// when unreachable or `u == dst`).
    next: Vec<usize>,
    /// `dist[dst * n + u]`: distance from `u` to `dst` in arcs.
    dist: Vec<u32>,
}

impl RoutingTable {
    /// Builds the table for a digraph.  Time `O(n·(n + m))`, memory `O(n²)`.
    pub fn new(g: &Digraph) -> Self {
        let n = g.node_count();
        let reverse = g.reverse();
        let mut next = vec![usize::MAX; n * n];
        let mut dist = vec![UNREACHABLE; n * n];
        let mut queue = VecDeque::new();
        for dst in 0..n {
            let base = dst * n;
            dist[base + dst] = 0;
            queue.clear();
            queue.push_back(dst);
            // BFS on the reverse graph: when we reach u from w (i.e. the
            // original graph has arc u -> w), then forwarding from u towards
            // dst can go through w.
            while let Some(w) = queue.pop_front() {
                let dw = dist[base + w];
                for &u in reverse.out_neighbors(w) {
                    if dist[base + u] == UNREACHABLE {
                        dist[base + u] = dw + 1;
                        next[base + u] = w;
                        queue.push_back(u);
                    }
                }
            }
        }
        RoutingTable { n, next, dist }
    }

    /// Number of nodes the table covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Next hop from `current` towards `dst`; `None` when `current == dst` or
    /// `dst` is unreachable.
    pub fn next_hop(&self, current: NodeId, dst: NodeId) -> Option<NodeId> {
        assert!(current < self.n && dst < self.n, "node out of range");
        if current == dst {
            return None;
        }
        let hop = self.next[dst * self.n + current];
        if hop == usize::MAX {
            None
        } else {
            Some(hop)
        }
    }

    /// Distance from `src` to `dst`; `None` when unreachable.
    pub fn distance(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        assert!(src < self.n && dst < self.n, "node out of range");
        let d = self.dist[dst * self.n + src];
        if d == UNREACHABLE {
            None
        } else {
            Some(d)
        }
    }

    /// The complete route from `src` to `dst` following the table, or `None`
    /// if unreachable.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        self.distance(src, dst)?;
        let mut path = vec![src];
        let mut current = src;
        while current != dst {
            current = self.next_hop(current, dst)?;
            path.push(current);
        }
        Some(path)
    }

    /// The eccentricity-maximum of the table: the largest finite distance
    /// (the diameter when the graph is strongly connected).
    pub fn max_distance(&self) -> Option<u32> {
        let mut max = 0;
        for &d in &self.dist {
            if d == UNREACHABLE {
                return None;
            }
            max = max.max(d);
        }
        Some(max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_graphs::algorithms::{diameter, is_valid_path};
    use otis_topologies::{de_bruijn, kautz};

    #[test]
    fn table_routes_are_shortest_on_kautz() {
        let g = kautz(2, 3);
        let table = RoutingTable::new(&g);
        assert_eq!(table.max_distance(), diameter(&g));
        for src in 0..g.node_count() {
            for dst in 0..g.node_count() {
                let route = table.route(src, dst).unwrap();
                assert!(is_valid_path(&g, &route));
                assert_eq!((route.len() - 1) as u32, table.distance(src, dst).unwrap());
            }
        }
    }

    #[test]
    fn table_on_de_bruijn() {
        let g = de_bruijn(2, 3);
        let table = RoutingTable::new(&g);
        assert_eq!(table.max_distance(), Some(3));
        assert_eq!(table.node_count(), 8);
    }

    #[test]
    fn next_hop_of_destination_is_none() {
        let g = kautz(2, 2);
        let table = RoutingTable::new(&g);
        assert_eq!(table.next_hop(3, 3), None);
        assert_eq!(table.distance(3, 3), Some(0));
        assert_eq!(table.route(3, 3), Some(vec![3]));
    }

    #[test]
    fn unreachable_pairs() {
        let g = Digraph::from_edges(3, &[(0, 1)]);
        let table = RoutingTable::new(&g);
        assert_eq!(table.distance(1, 0), None);
        assert_eq!(table.route(1, 0), None);
        assert_eq!(table.next_hop(1, 0), None);
        assert_eq!(table.max_distance(), None);
        assert_eq!(table.distance(0, 1), Some(1));
    }

    #[test]
    fn next_hop_is_an_out_neighbor() {
        let g = kautz(3, 2);
        let table = RoutingTable::new(&g);
        for src in 0..g.node_count() {
            for dst in 0..g.node_count() {
                if let Some(hop) = table.next_hop(src, dst) {
                    assert!(g.out_neighbors(src).contains(&hop));
                }
            }
        }
    }
}
