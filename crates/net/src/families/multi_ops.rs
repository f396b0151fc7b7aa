//! Facade implementations for the multi-OPS (stack-graph) families:
//! `POPS(t, g)`, stack-Kautz `SK(s, d, k)` and stack-Imase–Itoh
//! `SII(s, d, n)`.

use crate::design::NetworkDesign;
use crate::error::NetworkError;
use crate::family::NetworkFamily;
use crate::prepared::PreparedSim;
use crate::route::{RouteOracle, StackOracle};
use crate::spec::NetworkSpec;
use crate::topology::NetworkTopology;
use otis_core::{PopsDesign, StackImaseItohDesign, StackKautzDesign, VerificationReport};
use otis_graphs::StackGraph;
use otis_optics::HardwareInventory;
use otis_routing::{FaultSet, StackRouter};
use otis_sim::PreparedMultiOps;
use otis_topologies::{Pops, StackImaseItoh, StackKautz};
use std::sync::{Arc, OnceLock};

/// Prepares the slotted multi-OPS kernel over a shared stack-graph network
/// under the given quotient-level faults (see
/// [`crate::SimOptions::faults`]): the fault-filtered quotient routing table
/// and the group-level route table — primaries and, when `alt_paths > 1`,
/// Yen alternates — are built once, here.
fn prepare_multi_ops(stack: &Arc<StackGraph>, faults: &FaultSet, alt_paths: usize) -> PreparedSim {
    PreparedSim::MultiOps(PreparedMultiOps::with_alternates(
        stack.clone(),
        faults.clone(),
        alt_paths,
    ))
}

/// The `POPS(t, g)` network behind the facade.
#[derive(Debug)]
pub(crate) struct PopsNetwork {
    spec: NetworkSpec,
    t: usize,
    g: usize,
    /// The stack-graph behind an `Arc`, so prepared kernels and route
    /// oracles share one instance instead of cloning the graph per call.
    stack: Arc<StackGraph>,
    design: OnceLock<PopsDesign>,
}

impl PopsNetwork {
    pub(crate) fn new(t: usize, g: usize) -> Self {
        let stack = Arc::new(Pops::new(t, g).stack_graph().clone());
        PopsNetwork {
            spec: NetworkSpec::Pops { t, g },
            t,
            g,
            stack,
            design: OnceLock::new(),
        }
    }

    /// The optical design, built once and cached.
    fn built_design(&self) -> &PopsDesign {
        self.design.get_or_init(|| PopsDesign::new(self.t, self.g))
    }
}

impl NetworkFamily for PopsNetwork {
    fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    fn topology(&self) -> NetworkTopology<'_> {
        NetworkTopology::MultiOps(&self.stack)
    }

    fn predicted_diameter(&self) -> Option<u32> {
        Some(if self.stack.node_count() > 1 { 1 } else { 0 })
    }

    fn design(&self) -> Option<NetworkDesign> {
        Some(NetworkDesign::MultiOps(
            self.built_design().design().clone(),
        ))
    }

    fn predicted_inventory(&self) -> Option<HardwareInventory> {
        None
    }

    fn verify(&self) -> Result<VerificationReport, NetworkError> {
        Ok(self.built_design().verify()?)
    }

    fn router(&self) -> Box<dyn RouteOracle> {
        Box::new(StackOracle {
            router: StackRouter::from_shared(self.stack.clone(), FaultSet::new()),
        })
    }

    fn prepare(&self, faults: &FaultSet, alt_paths: usize) -> PreparedSim {
        prepare_multi_ops(&self.stack, faults, alt_paths)
    }
}

/// The stack-Kautz network `SK(s, d, k)` behind the facade.
#[derive(Debug)]
pub(crate) struct StackKautzNetwork {
    spec: NetworkSpec,
    s: usize,
    d: usize,
    k: usize,
    /// Shared stack-graph instance; see [`PopsNetwork::stack`].
    stack: Arc<StackGraph>,
    design: OnceLock<StackKautzDesign>,
}

impl StackKautzNetwork {
    pub(crate) fn new(s: usize, d: usize, k: usize) -> Self {
        let stack = Arc::new(StackKautz::new(s, d, k).stack_graph().clone());
        StackKautzNetwork {
            spec: NetworkSpec::StackKautz { s, d, k },
            s,
            d,
            k,
            stack,
            design: OnceLock::new(),
        }
    }

    /// The optical design, built once and cached.
    fn built_design(&self) -> &StackKautzDesign {
        self.design
            .get_or_init(|| StackKautzDesign::new(self.s, self.d, self.k))
    }
}

impl NetworkFamily for StackKautzNetwork {
    fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    fn topology(&self) -> NetworkTopology<'_> {
        NetworkTopology::MultiOps(&self.stack)
    }

    fn predicted_diameter(&self) -> Option<u32> {
        u32::try_from(self.k).ok()
    }

    fn design(&self) -> Option<NetworkDesign> {
        Some(NetworkDesign::MultiOps(
            self.built_design().design().clone(),
        ))
    }

    fn predicted_inventory(&self) -> Option<HardwareInventory> {
        Some(self.built_design().expected_inventory())
    }

    fn verify(&self) -> Result<VerificationReport, NetworkError> {
        Ok(self.built_design().verify()?)
    }

    fn router(&self) -> Box<dyn RouteOracle> {
        Box::new(StackOracle {
            router: StackRouter::from_shared(self.stack.clone(), FaultSet::new()),
        })
    }

    fn prepare(&self, faults: &FaultSet, alt_paths: usize) -> PreparedSim {
        prepare_multi_ops(&self.stack, faults, alt_paths)
    }
}

/// The stack-Imase–Itoh network `SII(s, d, n)` behind the facade.
#[derive(Debug)]
pub(crate) struct StackImaseItohNetwork {
    spec: NetworkSpec,
    s: usize,
    d: usize,
    n: usize,
    /// Shared stack-graph instance; see [`PopsNetwork::stack`].
    stack: Arc<StackGraph>,
    design: OnceLock<StackImaseItohDesign>,
}

impl StackImaseItohNetwork {
    pub(crate) fn new(s: usize, d: usize, n: usize) -> Self {
        let stack = Arc::new(StackImaseItoh::new(s, d, n).stack_graph().clone());
        StackImaseItohNetwork {
            spec: NetworkSpec::StackImaseItoh { s, d, n },
            s,
            d,
            n,
            stack,
            design: OnceLock::new(),
        }
    }

    /// The optical design, built once and cached.
    fn built_design(&self) -> &StackImaseItohDesign {
        self.design
            .get_or_init(|| StackImaseItohDesign::new(self.s, self.d, self.n))
    }
}

impl NetworkFamily for StackImaseItohNetwork {
    fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    fn topology(&self) -> NetworkTopology<'_> {
        NetworkTopology::MultiOps(&self.stack)
    }

    fn predicted_diameter(&self) -> Option<u32> {
        // ⌈log_d n⌉ is only an upper bound on the quotient diameter.
        None
    }

    fn design(&self) -> Option<NetworkDesign> {
        Some(NetworkDesign::MultiOps(
            self.built_design().design().clone(),
        ))
    }

    fn predicted_inventory(&self) -> Option<HardwareInventory> {
        None
    }

    fn verify(&self) -> Result<VerificationReport, NetworkError> {
        Ok(self.built_design().verify()?)
    }

    fn router(&self) -> Box<dyn RouteOracle> {
        Box::new(StackOracle {
            router: StackRouter::from_shared(self.stack.clone(), FaultSet::new()),
        })
    }

    fn prepare(&self, faults: &FaultSet, alt_paths: usize) -> PreparedSim {
        prepare_multi_ops(&self.stack, faults, alt_paths)
    }
}
