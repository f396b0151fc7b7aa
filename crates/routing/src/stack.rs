//! Routing in stack-graphs (stack-Kautz, stack-Imase–Itoh, POPS).
//!
//! A route in a multi-OPS network modelled by a stack-graph `ς(s, G)` is a
//! sequence of optical hops; each hop uses one OPS coupler, i.e. one arc of
//! the quotient `G`.  Because every processor of a group can transmit on all
//! of its group's couplers and every processor of the destination group hears
//! them, routing reduces to routing in the quotient: the group-level path is
//! computed first (here with a [`RoutingTable`] over the quotient, so any
//! quotient works), and the in-group destination index only picks each
//! hop's receiver ([`hop_receiver`]).  This is exactly why the paper says
//! the stack-Kautz network "inherits" the Kautz graph's shortest-path
//! routing.

use crate::fault_tolerant::{surviving_subgraph, FaultSet};
use crate::table::RoutingTable;
use otis_graphs::{NodeId, StackGraph};
use std::sync::Arc;

/// One hop of a stack-graph route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackHop {
    /// The quotient arc (OPS coupler) used, identified by its arc index in
    /// the quotient digraph.
    pub coupler: usize,
    /// The processor that receives the message at the end of this hop.
    pub receiver: NodeId,
}

/// A complete route between two processors of a stack-graph network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackRoute {
    /// The source processor (flat identifier).
    pub source: NodeId,
    /// The destination processor (flat identifier).
    pub destination: NodeId,
    /// The optical hops, in order.  Empty when source == destination.
    pub hops: Vec<StackHop>,
}

impl StackRoute {
    /// Number of optical hops.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Whether the route is empty (source equals destination).
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }
}

/// The receiver rule of every stack-graph route: a hop into `group` is
/// received by the destination `dst` itself when it is the route's last hop,
/// and otherwise by the processor of `group` whose in-group index is the
/// destination's, `dst_index`.  Any processor of the group would do — the
/// coupler broadcast reaches the whole group — and this deterministic choice
/// makes routes reproducible.  Processors are numbered group by group, so
/// that processor is `group · stacking_factor + dst_index`.  A route is
/// therefore fixed by its couplers and its destination.
#[inline]
pub fn hop_receiver(
    stacking_factor: usize,
    group: NodeId,
    dst: NodeId,
    dst_index: usize,
    last: bool,
) -> NodeId {
    if last {
        dst
    } else {
        group * stacking_factor + dst_index
    }
}

/// A router for one stack-graph network.
///
/// The stack-graph is held behind an [`Arc`], so long-lived prepared
/// simulation kernels and route oracles can share one graph instance
/// instead of deep-cloning it per router — see
/// [`StackRouter::from_shared`].
#[derive(Debug, Clone)]
pub struct StackRouter {
    stack: Arc<StackGraph>,
    quotient_table: RoutingTable,
    faults: FaultSet,
}

impl StackRouter {
    /// Builds a router for the given stack-graph (precomputes the quotient
    /// routing table).
    pub fn new(stack: StackGraph) -> Self {
        Self::with_faults(stack, FaultSet::new())
    }

    /// Builds a router that avoids the given faults.  The fault set is
    /// interpreted over the *quotient*: a failed node is a whole group (its
    /// processors neither send nor receive) and a failed arc disables the
    /// coupler(s) from one group to another.  Routes are shortest paths in
    /// the surviving quotient; [`StackRouter::route`] returns `None` when an
    /// endpoint's group has failed or the faults disconnect the pair.
    pub fn with_faults(stack: StackGraph, faults: FaultSet) -> Self {
        Self::from_shared(Arc::new(stack), faults)
    }

    /// Borrow-based construction: builds a fault-avoiding router over an
    /// already-shared stack-graph without copying any graph data — only the
    /// quotient routing table is computed (over the surviving quotient when
    /// faults are present).  This is the constructor prepared simulation
    /// kernels use, for every fault set: the table is `O(G²)` in the group
    /// count `G`, like the group-level route tables the kernels build from
    /// it.
    pub fn from_shared(stack: Arc<StackGraph>, faults: FaultSet) -> Self {
        let quotient_table = if faults.is_empty() {
            RoutingTable::new(stack.quotient())
        } else {
            RoutingTable::new(&surviving_subgraph(stack.quotient(), &faults))
        };
        StackRouter {
            stack,
            quotient_table,
            faults,
        }
    }

    /// The stack-graph this router serves.
    pub fn stack_graph(&self) -> &StackGraph {
        &self.stack
    }

    /// The quotient-level faults this router avoids (empty by default).
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// The shared stack-graph, for building further routers over it with
    /// [`StackRouter::from_shared`].
    pub fn shared_stack(&self) -> &Arc<StackGraph> {
        &self.stack
    }

    /// Routes from processor `src` to processor `dst` (flat identifiers):
    /// [`StackRouter::group_path`] between their groups, materialised by
    /// [`StackRouter::route_via_groups`].  Returns `None` when an endpoint's
    /// group has failed or the quotient offers no path.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<StackRoute> {
        let src_group = self.stack.to_stack_node(src).group;
        let dst_group = self.stack.to_stack_node(dst).group;
        if src == dst {
            return (!self.faults.node_failed(src_group)).then(|| StackRoute {
                source: src,
                destination: dst,
                hops: Vec::new(),
            });
        }
        let group_path = self.group_path(src_group, dst_group)?;
        self.route_via_groups(src, dst, &group_path)
    }

    /// The quotient path from any processor of `src_group` to a *different*
    /// processor of `dst_group`: the shortest path of the surviving quotient
    /// between distinct groups, and within one group the group's loop
    /// coupler if the quotient has a usable one, otherwise a bounce off the
    /// first reachable neighbour.  Which processors of the groups are
    /// involved never matters, which is why routing reduces to the
    /// quotient.  Returns `None` when either group has failed or the faults
    /// disconnect them.
    pub fn group_path(&self, src_group: NodeId, dst_group: NodeId) -> Option<Vec<NodeId>> {
        if self.faults.node_failed(src_group) || self.faults.node_failed(dst_group) {
            return None;
        }
        let quotient = self.stack.quotient();
        if src_group != dst_group {
            self.quotient_table.route(src_group, dst_group)
        } else if quotient.has_arc(src_group, src_group)
            && !self.faults.blocks(src_group, src_group)
        {
            Some(vec![src_group, src_group])
        } else {
            // No usable loop coupler: go out and come back via the quotient.
            let via = quotient
                .out_neighbors(src_group)
                .iter()
                .copied()
                .find(|&v| !self.faults.blocks(src_group, v))?;
            let mut path = vec![src_group];
            path.extend(self.quotient_table.route(via, dst_group)?);
            Some(path)
        }
    }

    /// The couplers that realise `group_path`, one per consecutive pair:
    /// the first quotient arc between them (parallel arcs are
    /// interchangeable).  Returns `None` when a consecutive pair is not a
    /// quotient arc.
    pub fn couplers_via_groups(&self, group_path: &[NodeId]) -> Option<Vec<usize>> {
        let quotient = self.stack.quotient();
        group_path
            .windows(2)
            .map(|w| {
                quotient
                    .out_arc_ids(w[0])
                    .iter()
                    .copied()
                    .find(|&id| quotient.arc(id).unwrap().target == w[1])
            })
            .collect()
    }

    /// Materialises the hop sequence that realises `group_path` (a quotient
    /// path starting at `src`'s group and ending at `dst`'s group) as a route
    /// from processor `src` to processor `dst`: the couplers of
    /// [`StackRouter::couplers_via_groups`], received as [`hop_receiver`]
    /// prescribes.
    ///
    /// This is the building block for *alternate* routing: callers obtain
    /// extra group-level paths (e.g. with Yen's k-shortest-path on the
    /// quotient) and convert each into a concrete route here.  Returns `None`
    /// when a consecutive pair of the group path is not a quotient arc.
    pub fn route_via_groups(
        &self,
        src: NodeId,
        dst: NodeId,
        group_path: &[NodeId],
    ) -> Option<StackRoute> {
        let dst_sn = self.stack.to_stack_node(dst);
        debug_assert_eq!(
            group_path.first(),
            Some(&self.stack.to_stack_node(src).group)
        );
        debug_assert_eq!(group_path.last(), Some(&dst_sn.group));
        let s = self.stack.stacking_factor();
        let last = group_path.len().saturating_sub(2);
        let hops = self
            .couplers_via_groups(group_path)?
            .into_iter()
            .zip(group_path.iter().skip(1))
            .enumerate()
            .map(|(i, (coupler, &group))| StackHop {
                coupler,
                receiver: hop_receiver(s, group, dst, dst_sn.index, i == last),
            })
            .collect();
        Some(StackRoute {
            source: src,
            destination: dst,
            hops,
        })
    }

    /// The number of optical hops of the route from `src` to `dst`, or `None`
    /// when unreachable.
    pub fn hop_count(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        self.route(src, dst).map(|r| r.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_topologies::{Pops, StackKautz};

    fn validate_route(router: &StackRouter, route: &StackRoute) {
        let stack = router.stack_graph();
        let quotient = stack.quotient();
        let mut current_group = stack.to_stack_node(route.source).group;
        for hop in &route.hops {
            let arc = quotient.arc(hop.coupler).unwrap();
            assert_eq!(arc.source, current_group, "hop leaves the wrong group");
            assert_eq!(
                stack.to_stack_node(hop.receiver).group,
                arc.target,
                "hop receiver not in the coupler's destination group"
            );
            current_group = arc.target;
        }
        assert_eq!(
            current_group,
            stack.to_stack_node(route.destination).group,
            "route does not end in the destination group"
        );
        if let Some(last) = route.hops.last() {
            assert_eq!(last.receiver, route.destination);
        }
    }

    #[test]
    fn stack_kautz_routes_within_diameter() {
        let sk = StackKautz::new(3, 2, 2);
        let router = StackRouter::new(sk.stack_graph().clone());
        for src in 0..sk.node_count() {
            for dst in 0..sk.node_count() {
                let route = router.route(src, dst).expect("SK is strongly connected");
                validate_route(&router, &route);
                assert!(
                    route.len() <= 2,
                    "SK(3,2,2) has diameter 2, route {src}->{dst} used {} hops",
                    route.len()
                );
                if src == dst {
                    assert!(route.is_empty());
                }
            }
        }
    }

    #[test]
    fn pops_routes_are_single_hop() {
        let pops = Pops::new(4, 2);
        let router = StackRouter::new(pops.stack_graph().clone());
        for src in 0..pops.node_count() {
            for dst in 0..pops.node_count() {
                if src == dst {
                    continue;
                }
                let route = router.route(src, dst).unwrap();
                validate_route(&router, &route);
                assert_eq!(route.len(), 1, "POPS is single-hop");
            }
        }
    }

    #[test]
    fn same_group_uses_loop_coupler() {
        let sk = StackKautz::new(4, 2, 2);
        let router = StackRouter::new(sk.stack_graph().clone());
        let a = sk.processor(3, 0);
        let b = sk.processor(3, 2);
        let route = router.route(a, b).unwrap();
        assert_eq!(route.len(), 1);
        let arc = sk
            .stack_graph()
            .quotient()
            .arc(route.hops[0].coupler)
            .unwrap();
        assert!(arc.is_loop());
    }

    #[test]
    fn hop_count_matches_route_length() {
        let sk = StackKautz::new(2, 2, 3);
        let router = StackRouter::new(sk.stack_graph().clone());
        for src in (0..sk.node_count()).step_by(5) {
            for dst in (0..sk.node_count()).step_by(7) {
                assert_eq!(
                    router.hop_count(src, dst).unwrap(),
                    router.route(src, dst).unwrap().len()
                );
            }
        }
    }

    #[test]
    fn faulty_group_routes_around_and_respects_k_plus_2() {
        // SK(2,2,2): quotient KG(2,2) with loops, 6 groups, d = 2 so the
        // §2.5 claim covers one failed group; surviving routes stay <= k + 2.
        let sk = StackKautz::new(2, 2, 2);
        let (d, k) = (2usize, 2usize);
        for failed_group in 0..sk.stack_graph().group_count() {
            let router = StackRouter::with_faults(
                sk.stack_graph().clone(),
                FaultSet::from_nodes([failed_group]),
            );
            for src in 0..sk.node_count() {
                for dst in 0..sk.node_count() {
                    let src_group = sk.stack_graph().to_stack_node(src).group;
                    let dst_group = sk.stack_graph().to_stack_node(dst).group;
                    let route = router.route(src, dst);
                    if src_group == failed_group || dst_group == failed_group {
                        assert_eq!(route, None, "{src}->{dst} touches the failed group");
                        continue;
                    }
                    let route = route.unwrap_or_else(|| {
                        panic!("{src}->{dst} disconnected by fewer than d = {d} faults")
                    });
                    validate_route(&router, &route);
                    assert!(
                        route.len() <= k + 2,
                        "{src}->{dst} took {} hops around group {failed_group}",
                        route.len()
                    );
                    for hop in &route.hops {
                        assert_ne!(
                            sk.stack_graph().to_stack_node(hop.receiver).group,
                            failed_group,
                            "route passes through the failed group"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn route_via_groups_materialises_alternate_group_paths() {
        let sk = StackKautz::new(2, 2, 2);
        let router = StackRouter::new(sk.stack_graph().clone());
        let quotient = sk.stack_graph().quotient();
        let src = sk.processor(0, 0);
        let dst = sk.processor(1, 1);
        let paths = otis_graphs::algorithms::k_shortest_paths(quotient, 0, 1, 3);
        assert!(!paths.is_empty(), "quotient must connect groups 0 and 1");
        for group_path in &paths {
            let route = router.route_via_groups(src, dst, group_path).unwrap();
            validate_route(&router, &route);
            assert_eq!(route.len(), group_path.len() - 1);
        }
        // The shortest alternate agrees with the primary router's length.
        assert_eq!(paths[0].len() - 1, router.route(src, dst).unwrap().len());
    }

    #[test]
    fn route_via_groups_rejects_non_arcs() {
        let sk = StackKautz::new(2, 2, 2);
        let router = StackRouter::new(sk.stack_graph().clone());
        let quotient = sk.stack_graph().quotient();
        let groups = sk.stack_graph().group_count();
        let (a, b) = (0..groups)
            .flat_map(|a| (0..groups).map(move |b| (a, b)))
            .find(|&(a, b)| a != b && !quotient.has_arc(a, b))
            .expect("KG(2,2) is far from complete");
        let src = sk.processor(a, 0);
        let dst = sk.processor(b, 0);
        assert!(router.route_via_groups(src, dst, &[a, b]).is_none());
    }

    #[test]
    fn stack_kautz_diameter_bound_over_all_pairs() {
        let sk = StackKautz::new(2, 2, 3);
        let router = StackRouter::new(sk.stack_graph().clone());
        let mut worst = 0;
        for src in 0..sk.node_count() {
            for dst in 0..sk.node_count() {
                worst = worst.max(router.route(src, dst).unwrap().len());
            }
        }
        assert_eq!(
            worst, 3,
            "SK(2,2,3) routes must peak at the quotient diameter"
        );
    }
}
