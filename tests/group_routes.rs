//! Oracle test of the multi-OPS kernel's group-level route table.
//!
//! A prepared multi-OPS kernel stores one coupler sequence per route and
//! group pair, and derives every hop's receiver from the coupler and the
//! destination.  This test rebuilds every `(src, dst, alt)` hop sequence
//! per processor pair from the routing layer instead — the primary with
//! `StackRouter::route`, the alternates with `route_via_groups` over
//! `k_shortest_paths_avoiding`, minus the primary — and requires the
//! kernel's sequences to match, for every fault set of at most `d − 1`
//! failed groups and every single failed coupler (a failed loop coupler
//! forces the same-group bounce), at 1 and 3 routes per pair.

use otis_lightwave::graphs::algorithms::k_shortest_paths_avoiding;
use otis_lightwave::graphs::StackGraph;
use otis_lightwave::routing::{node_fault_patterns_up_to, FaultSet, StackHop, StackRouter};
use otis_lightwave::sim::PreparedMultiOps;
use otis_lightwave::topologies::{Pops, StackImaseItoh, StackKautz};
use std::sync::Arc;

/// How often each kind of pair was checked.
#[derive(Debug, Default)]
struct Coverage {
    loop_hops: usize,
    bounces: usize,
    failed_endpoints: usize,
    alternates: usize,
}

/// Checks every processor pair of `stack` under every fault set in scope;
/// `d` is the quotient's out-degree without loops.
fn check_against_oracle(name: &str, stack: &StackGraph, d: usize, coverage: &mut Coverage) {
    let stack = Arc::new(stack.clone());
    let quotient = stack.quotient();
    let groups = quotient.node_count();
    let n = stack.node_count();
    let mut fault_sets: Vec<FaultSet> = node_fault_patterns_up_to(groups, d - 1)
        .into_iter()
        .collect();
    for arc in quotient.arcs() {
        let mut faults = FaultSet::new();
        faults.fail_arc(arc.source, arc.target);
        fault_sets.push(faults);
    }
    for alt_paths in [1usize, 3] {
        let base =
            PreparedMultiOps::with_alternates(Arc::clone(&stack), FaultSet::new(), alt_paths);
        for faults in &fault_sets {
            let kernel =
                PreparedMultiOps::with_alternates(Arc::clone(&stack), faults.clone(), alt_paths);
            assert!(
                PreparedMultiOps::repair_from(&base, faults, alt_paths).routing_state_eq(&kernel),
                "{name} alt_paths {alt_paths}: repaired kernel differs under {faults:?}"
            );
            let router = StackRouter::from_shared(Arc::clone(&stack), faults.clone());
            let mut yen: Vec<Option<Vec<Vec<usize>>>> = vec![None; groups * groups];
            for src in 0..n {
                let src_group = stack.to_stack_node(src).group;
                for dst in 0..n {
                    let dst_group = stack.to_stack_node(dst).group;
                    let derived: Vec<Vec<StackHop>> = (0..)
                        .map_while(|alt| kernel.route_hops(src, dst, alt))
                        .collect();
                    let context = || {
                        format!(
                            "{name} alt_paths {alt_paths} nodes {:?} arcs {:?}: {src} -> {dst}",
                            faults.sorted_nodes(),
                            faults.sorted_arcs()
                        )
                    };
                    if src == dst {
                        assert!(derived.is_empty(), "{}", context());
                        continue;
                    }
                    let Some(primary) = router.route(src, dst) else {
                        assert!(derived.is_empty(), "{}", context());
                        if faults.node_failed(src_group) || faults.node_failed(dst_group) {
                            coverage.failed_endpoints += 1;
                        }
                        continue;
                    };
                    let paths = yen[src_group * groups + dst_group].get_or_insert_with(|| {
                        k_shortest_paths_avoiding(
                            quotient,
                            src_group,
                            dst_group,
                            alt_paths,
                            |u, v| faults.blocks(u, v),
                        )
                    });
                    let alternates = paths
                        .iter()
                        .filter(|path| path.len() >= 2)
                        .filter_map(|path| router.route_via_groups(src, dst, path))
                        .map(|route| route.hops)
                        .filter(|hops| *hops != primary.hops)
                        .take(alt_paths - 1);
                    let expected: Vec<Vec<StackHop>> = std::iter::once(primary.hops.clone())
                        .chain(alternates)
                        .collect();
                    assert_eq!(derived, expected, "{}", context());
                    if src_group == dst_group {
                        if primary.hops.len() == 1 {
                            assert!(quotient.arc(primary.hops[0].coupler).unwrap().is_loop());
                            coverage.loop_hops += 1;
                        } else {
                            coverage.bounces += 1;
                        }
                    }
                    coverage.alternates += expected.len() - 1;
                }
            }
        }
    }
}

/// Runs the oracle over one network and requires every kind of pair —
/// loop-coupler hops, bounces, failed endpoints, alternates — to occur.
fn check(name: &str, stack: &StackGraph, d: usize) {
    let mut coverage = Coverage::default();
    check_against_oracle(name, stack, d, &mut coverage);
    assert!(coverage.loop_hops > 0, "{name}: {coverage:?}");
    assert!(coverage.bounces > 0, "{name}: {coverage:?}");
    assert!(coverage.failed_endpoints > 0, "{name}: {coverage:?}");
    assert!(coverage.alternates > 0, "{name}: {coverage:?}");
}

#[test]
fn stack_kautz_2_2_2_routes_match_the_oracle() {
    check("SK(2,2,2)", StackKautz::new(2, 2, 2).stack_graph(), 2);
}

#[test]
fn stack_kautz_6_3_2_routes_match_the_oracle() {
    check("SK(6,3,2)", StackKautz::new(6, 3, 2).stack_graph(), 3);
}

#[test]
fn pops_4_6_routes_match_the_oracle() {
    check("POPS(4,6)", Pops::new(4, 6).stack_graph(), 5);
}

#[test]
fn pops_9_8_routes_match_the_oracle() {
    check("POPS(9,8)", Pops::new(9, 8).stack_graph(), 7);
}

#[test]
fn stack_imase_itoh_2_3_12_routes_match_the_oracle() {
    check(
        "SII(2,3,12)",
        StackImaseItoh::new(2, 3, 12).stack_graph(),
        3,
    );
}
