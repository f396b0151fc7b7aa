//! Acceptance tests of the delta-repair constructors, driven through the
//! umbrella crate the way downstream users see it.
//!
//! The contract under test, end to end: deriving fault-pattern state from
//! the fault-free base by delta repair — distance tables and whole prepared
//! kernels — is **bit-identical** to building that state from scratch, for
//! every single fault plus the empty set (every fault set within the
//! paper's `d − 1` tolerance bound on the degree-2 networks).

use otis_lightwave::graphs::Digraph;
use otis_lightwave::net::{FaultSet, Network, SimOptions};
use otis_lightwave::routing::{
    node_fault_patterns_up_to, surviving_subgraph, DistanceTable, RoutingTable,
};
use otis_lightwave::sim::{SlotScratch, TrafficPattern};
use otis_lightwave::topologies::{de_bruijn, kautz};

#[test]
fn repaired_alternates_match_from_scratch_yen_for_every_tolerated_fault_set() {
    // The repair-aware alternate-route contract: `repair` no longer reruns
    // group-level Yen in full — only group pairs the faults can have
    // disturbed are re-enumerated, and only pairs whose Yen list or primary
    // route changed are re-materialised.  The routing state (distance
    // tables, flat routes, Yen alternates) must nevertheless be
    // bit-identical to a from-scratch prepare for every fault set within
    // the paper's d − 1 tolerance bound, on both simulator families.
    for (spec, fault_ids, alt_paths) in [
        ("SK(2,2,2)", 6usize, 2usize),
        ("SK(2,2,2)", 6, 3),
        ("DB(2,8)", 256, 3),
        ("POPS(4,6)", 6, 3),
        ("SII(2,3,12)", 12, 3),
    ] {
        let network = Network::from_spec(spec).unwrap();
        let base = network.prepare_with_alternates(&FaultSet::new(), alt_paths);
        for faults in node_fault_patterns_up_to(fault_ids, 1) {
            let fresh = network.prepare_with_alternates(&faults, alt_paths);
            let repaired = base.repair(&faults, alt_paths);
            assert!(
                repaired.routing_state_eq(&fresh),
                "{spec} (alt_paths {alt_paths}) routing state diverged under faults {:?}",
                faults.sorted_nodes()
            );
        }
    }
}

#[test]
fn repaired_kernels_run_byte_identical_to_fresh_kernels() {
    // The engine-level contract: a kernel delta-repaired from the
    // fault-free base produces metrics byte-identical to a kernel prepared
    // from scratch for the fault pattern — both simulator families, with
    // and without alternate routes.
    for (spec, fault_ids, alt_paths) in [
        ("SK(2,2,2)", 6usize, 1usize),
        ("SK(2,2,2)", 6, 3),
        ("DB(2,8)", 256, 1),
    ] {
        let network = Network::from_spec(spec).unwrap();
        let base = network.prepare_with_alternates(&FaultSet::new(), alt_paths);
        let traffic = TrafficPattern::Uniform { load: 0.5 };
        for faults in node_fault_patterns_up_to(fault_ids, 1) {
            let fresh = network.prepare_with_alternates(&faults, alt_paths);
            let repaired = base.repair(&faults, alt_paths);
            assert_eq!(repaired.faults(), fresh.faults(), "{spec}");
            let options = SimOptions::new(120, 7).with_faults(faults.clone());
            assert_eq!(
                repaired.run_with_timeline_scratch(
                    None,
                    &traffic,
                    &options,
                    &mut SlotScratch::new()
                ),
                fresh.run_with_timeline_scratch(None, &traffic, &options, &mut SlotScratch::new()),
                "{spec} (alt_paths {alt_paths}) diverged under faults {:?}",
                faults.sorted_nodes()
            );
        }
    }
}

/// Checks the distance-only table's repair against a from-scratch build on
/// the survivor, and its distances against the next-hop table's, for every
/// fault set given.
fn check_distance_repairs(graph: &Digraph, fault_sets: impl IntoIterator<Item = FaultSet>) {
    let base = DistanceTable::new(graph);
    for faults in fault_sets {
        let survivor = surviving_subgraph(graph, &faults);
        let repaired = base.repaired(&survivor, &faults);
        assert_eq!(
            repaired,
            DistanceTable::new(&survivor),
            "faults {:?} / arcs {:?}",
            faults.sorted_nodes(),
            faults.sorted_arcs()
        );
        let reference = RoutingTable::new(&survivor);
        for src in 0..graph.node_count() {
            for dst in 0..graph.node_count() {
                assert_eq!(
                    repaired.distance(src, dst),
                    reference.distance(src, dst),
                    "{src} -> {dst} under faults {:?}",
                    faults.sorted_nodes()
                );
            }
        }
    }
}

#[test]
fn repaired_distance_tables_match_from_scratch_and_routing_tables() {
    // DB(2,8): every fault set of size <= 1; KG(3,2): every fault set of
    // size <= 2 (the paper's d - 1 bound).  Each repair must equal the
    // from-scratch distance table on the survivor, and every distance must
    // equal the next-hop table's.
    let db = de_bruijn(2, 8);
    check_distance_repairs(&db, node_fault_patterns_up_to(db.node_count(), 1));
    let kg = kautz(3, 2);
    check_distance_repairs(&kg, node_fault_patterns_up_to(kg.node_count(), 2));
}

#[test]
fn repaired_distance_tables_handle_an_arc_fault_plus_a_node_fault() {
    // DB(2,4): every arc fault combined with every node fault, so blocked
    // arcs and failed nodes are repaired together.
    let graph = de_bruijn(2, 4);
    let mut fault_sets = Vec::new();
    for arc in graph.arcs() {
        for node in 0..graph.node_count() {
            let mut faults = FaultSet::from_nodes([node]);
            faults.fail_arc(arc.source, arc.target);
            fault_sets.push(faults);
        }
    }
    check_distance_repairs(&graph, fault_sets);
}

#[test]
fn distance_table_width_is_the_narrowest_that_fits() {
    // A bidirectional 400-node ring has diameter 200: one byte per pair.
    let n = 400;
    let arcs: Vec<_> = (0..n)
        .flat_map(|u| [(u, (u + 1) % n), ((u + 1) % n, u)])
        .collect();
    let ring = Digraph::from_edges(n, &arcs);
    let base = DistanceTable::new(&ring);
    assert_eq!(base.bytes_per_pair(), 1);
    assert_eq!(base.distance(0, 200), Some(200));
    // Failing one node leaves a 399-node path of diameter 398: the repair
    // must widen to two bytes and equal the from-scratch table.
    let faults = FaultSet::from_nodes([0]);
    let survivor = surviving_subgraph(&ring, &faults);
    let repaired = base.repaired(&survivor, &faults);
    let scratch = DistanceTable::new(&survivor);
    assert_eq!(scratch.bytes_per_pair(), 2);
    assert_eq!(repaired.bytes_per_pair(), 2);
    assert_eq!(repaired, scratch);
    assert_eq!(repaired.distance(1, n - 1), Some(398));
    // A 300-node directed cycle has diameter 299: two bytes from the start.
    let cycle: Vec<_> = (0..300).map(|u| (u, (u + 1) % 300)).collect();
    let table = DistanceTable::new(&Digraph::from_edges(300, &cycle));
    assert_eq!(table.bytes_per_pair(), 2);
    assert_eq!(table.distance(1, 0), Some(299));
}
