//! The object-safe trait every network family implements, plus shared
//! helpers for families whose verification is structural (no optical design).

use crate::design::NetworkDesign;
use crate::error::NetworkError;
use crate::prepared::PreparedSim;
use crate::route::RouteOracle;
use crate::spec::NetworkSpec;
use crate::topology::NetworkTopology;
use otis_core::VerificationReport;
use otis_graphs::algorithms::{diameter, is_strongly_connected};
use otis_graphs::Digraph;
use otis_optics::HardwareInventory;
use otis_routing::FaultSet;

/// One network family behind the facade.  Object-safe: the facade holds a
/// `Box<dyn NetworkFamily>` and every capability — topology access, optical
/// design, verification, routing, simulation — goes through this surface.
pub trait NetworkFamily: std::fmt::Debug + Send + Sync {
    /// The validated spec this instance was built from.
    fn spec(&self) -> &NetworkSpec;

    /// The graph-level structure.
    fn topology(&self) -> NetworkTopology<'_>;

    /// The closed-form diameter predicted by the paper, when exact.
    fn predicted_diameter(&self) -> Option<u32>;

    /// The OTIS-based optical design, for families that have one.
    fn design(&self) -> Option<NetworkDesign>;

    /// The closed-form hardware inventory predicted by the paper, for
    /// families where one is stated (currently the stack-Kautz designs).
    fn predicted_inventory(&self) -> Option<HardwareInventory>;

    /// End-to-end verification: families with an optical design verify it by
    /// exact signal tracing against the target topology; families without
    /// one verify their structural invariants (closed-form node count,
    /// regularity, strong connectivity, diameter).
    fn verify(&self) -> Result<VerificationReport, NetworkError>;

    /// A route oracle over flat processor identifiers.
    fn router(&self) -> Box<dyn RouteOracle>;

    /// Prepares the family's immutable simulation kernel for the given fault
    /// pattern: the fault-filtered graph plus all routing/distance state,
    /// built once.  `alt_paths` is the total routes tried per hop in
    /// wavelength mode — the primary plus up to `alt_paths − 1` Yen
    /// alternates, computed here because alternate routes are kernel state
    /// (families without alternate routing ignore values above `1`).
    /// [`PreparedSim::run_demand_with_timeline_scratch`] then only pays for
    /// the slot loop, so callers sweeping seeds, loads or traffic patterns
    /// over one `(network, fault-pattern)` pair should prepare once and run
    /// many times — exactly what the scenario engine's kernel cache does.
    fn prepare(&self, faults: &FaultSet, alt_paths: usize) -> PreparedSim;
}

/// Structural verification of a point-to-point family without an optical
/// design: node count, degree regularity, strong connectivity and diameter
/// against their closed forms.
pub(crate) fn structural_report(
    spec: &NetworkSpec,
    graph: &Digraph,
    expected_degree: usize,
    expected_diameter: Option<u32>,
) -> Result<VerificationReport, NetworkError> {
    let fail = |detail: String| NetworkError::Structure {
        network: spec.to_string(),
        detail,
    };
    if let Some(expected_nodes) = spec.node_count() {
        if graph.node_count() != expected_nodes {
            return Err(fail(format!(
                "node count {} differs from closed form {expected_nodes}",
                graph.node_count()
            )));
        }
    }
    if !graph.is_d_regular(expected_degree) {
        return Err(fail(format!("graph is not {expected_degree}-regular")));
    }
    if graph.node_count() > 1 {
        if !is_strongly_connected(graph) {
            return Err(fail("graph is not strongly connected".to_string()));
        }
        let measured = diameter(graph);
        if let (Some(measured), Some(expected)) = (measured, expected_diameter) {
            if measured != expected {
                return Err(fail(format!(
                    "measured diameter {measured} differs from closed form {expected}"
                )));
            }
        }
    }
    Ok(VerificationReport {
        processors: graph.node_count(),
        links: graph.arc_count(),
        components: 0,
        worst_case_loss_db: 0.0,
    })
}
