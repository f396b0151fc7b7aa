//! # otis-routing
//!
//! Routing algorithms for the topologies of the OTIS lightwave-network
//! reproduction.
//!
//! The paper's §2.5 notes that "routing on the Kautz graph is very simple,
//! since a shortest path routing algorithm (every path is of length at most
//! k) is induced by the label of the nodes.  It can be extended to generate a
//! path of length at most k + 2 which survives d − 1 link or node faults",
//! and that the stack-Kautz network "inherits most of the properties of the
//! Kautz graph, like shortest path routing, fault tolerance and others".
//! This crate implements those routers and the checks behind those claims:
//!
//! * [`kautz`] — word-label routing on `KG(d, k)` (longest suffix/prefix
//!   overlap, at most `k` hops);
//! * [`imase_itoh`] — arithmetic routing on `II(d, n)` (base `−d` digit
//!   decomposition, provably shortest);
//! * [`fault_tolerant`] — fault-avoiding routing and the empirical validation
//!   of the `≤ k + 2` bound under up to `d − 1` faults;
//! * [`stack`] — routing in stack-graphs (group-level route plus coupler and
//!   in-group processor selection), which covers the stack-Kautz and
//!   stack-Imase–Itoh networks;
//! * [`pops`] — single-hop POPS communication: coupler selection, broadcast
//!   and permutation/all-to-all slot schedules under the one-sender-per-
//!   coupler-per-slot constraint;
//! * [`hot_potato`] — the deflection-routing baseline used for the
//!   single-OPS comparison (Zhang & Acampora style hot-potato);
//! * [`table`] — generic next-hop routing tables computed from any digraph,
//!   used as the reference the specialised routers are checked against;
//! * [`distance`] — distance-only all-pairs tables, one byte per pair, the
//!   lookup behind the deflection router.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(clippy::all)]

pub mod distance;
pub mod fault_tolerant;
pub mod hot_potato;
pub mod imase_itoh;
pub mod kautz;
pub mod pops;
pub mod stack;
pub mod table;

pub use distance::DistanceTable;
pub use fault_tolerant::{
    fault_tolerant_route, node_fault_patterns, node_fault_patterns_iter, node_fault_patterns_up_to,
    node_fault_patterns_up_to_iter, surviving_subgraph, FaultSet, NodeFaultPatterns,
};
pub use hot_potato::HotPotatoRouter;
pub use imase_itoh::{imase_itoh_distance, imase_itoh_route};
pub use kautz::{kautz_route, kautz_route_words};
pub use pops::{PopsRouter, SlotSchedule};
pub use stack::{hop_receiver, StackHop, StackRoute, StackRouter};
pub use table::RoutingTable;
