//! Typed errors of the facade.

use otis_core::VerificationError;
use std::fmt;

/// Why a spec string could not be turned into a [`crate::NetworkSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The input does not match `FAMILY(arg, ...)`.
    Syntax {
        /// The offending input.
        input: String,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// The family mnemonic is not one of the supported ones.
    UnknownFamily {
        /// The offending input.
        input: String,
        /// The unrecognised mnemonic.
        family: String,
    },
    /// The family exists but was given the wrong number of arguments.
    Arity {
        /// The offending input.
        input: String,
        /// The family mnemonic.
        family: String,
        /// Human-readable expected signature.
        expected: &'static str,
        /// Number of arguments received.
        got: usize,
    },
    /// A parameter violates the family's bounds (e.g. a zero degree).
    ParameterOutOfRange {
        /// The rendered spec.
        spec: String,
        /// Which bound was violated.
        reason: &'static str,
    },
    /// The spec describes a network above [`crate::spec::MAX_NODES`]
    /// processors (or one whose size overflows `usize`).
    TooLarge {
        /// The rendered spec.
        spec: String,
        /// The cap that was exceeded.
        max_nodes: usize,
    },
    /// The spec describes a network above [`crate::spec::MAX_LINKS`] arcs or
    /// couplers (dense families hit this long before the node cap).
    TooManyLinks {
        /// The rendered spec.
        spec: String,
        /// The cap that was exceeded.
        max_links: usize,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Syntax { input, reason } => {
                write!(f, "cannot parse network spec '{input}': {reason}")
            }
            SpecError::UnknownFamily { input, family } => write!(
                f,
                "unknown network family '{family}' in '{input}' \
                 (supported: K, DB, KG, II, POPS, SK, SII)"
            ),
            SpecError::Arity { input, family, expected, got } => write!(
                f,
                "wrong number of arguments for {family} in '{input}': expected {expected}, got {got}"
            ),
            SpecError::ParameterOutOfRange { spec, reason } => {
                write!(f, "parameter out of range in {spec}: {reason}")
            }
            SpecError::TooLarge { spec, max_nodes } => {
                write!(f, "{spec} is too large: the facade caps networks at {max_nodes} processors")
            }
            SpecError::TooManyLinks { spec, max_links } => {
                write!(
                    f,
                    "{spec} is too dense: the facade caps networks at {max_links} links/couplers"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Any failure surfaced by the [`crate::Network`] facade.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkError {
    /// The spec string or parameters were invalid.
    Spec(SpecError),
    /// A workload spec was invalid or could not be bound to the network
    /// (e.g. transpose traffic on a non-square processor count).
    Traffic(crate::traffic_spec::TrafficError),
    /// The optical design exists but failed its end-to-end verification.
    Verification(VerificationError),
    /// A family without an optical design failed its structural self-check
    /// (closed-form node count, regularity, connectivity, diameter).
    Structure {
        /// The network's name.
        network: String,
        /// What did not hold.
        detail: String,
    },
    /// A streaming result sink refused a row or could not finish — usually
    /// an I/O error from the writer behind a table/CSV/JSONL sink.
    Sink {
        /// The underlying error, rendered.
        detail: String,
    },
    /// The scenario grid's axis product overflows `usize`, so the engine
    /// refuses to expand it (see `ScenarioGrid::checked_cell_count`).
    GridTooLarge {
        /// Length of the spec axis.
        specs: usize,
        /// Length of the workload axis.
        workloads: usize,
        /// Length of the seed axis.
        seeds: usize,
        /// Length of the fault-pattern axis.
        fault_sets: usize,
        /// Length of the fault-schedule axis.
        schedules: usize,
        /// Length of the wavelength-count axis.
        wavelengths: usize,
    },
    /// A fault schedule could not be bound to a grid cell: an event targets
    /// a node/group outside the network's fault domain, or a scheduled
    /// failure duplicates one of the cell's static faults.
    Schedule(otis_sim::FaultScheduleError),
    /// A network is too large for its simulation kernel: a point-to-point
    /// network has more processors than its deflection kernel's all-pairs
    /// distance table can store (`otis_routing::DistanceTable::MAX_NODES`),
    /// or a multi-OPS network more groups than its kernel's group-level
    /// route table may hold (`otis_sim::PreparedMultiOps::MAX_GROUPS`).
    /// The scenario engine reports this before any cell runs.
    KernelTooLarge {
        /// The network's name.
        network: String,
        /// What `nodes` and `limit` count.
        counted: KernelCount,
        /// Its processor count (deflection kernels) or group count
        /// (multi-OPS kernels).
        nodes: usize,
        /// The largest count the kernel supports.
        limit: usize,
    },
}

/// What a [`NetworkError::KernelTooLarge`] counted: the nodes of the graph
/// its kernel tabulates all pairs of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelCount {
    /// Processors — a deflection kernel's distance table is per processor
    /// pair.
    Processors,
    /// Quotient groups — a multi-OPS kernel's route table is per group
    /// pair.
    Groups,
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::Spec(e) => write!(f, "{e}"),
            NetworkError::Traffic(e) => write!(f, "{e}"),
            NetworkError::Verification(e) => write!(f, "design verification failed: {e}"),
            NetworkError::Structure { network, detail } => {
                write!(f, "structural check of {network} failed: {detail}")
            }
            NetworkError::Sink { detail } => {
                write!(f, "result sink failed: {detail}")
            }
            NetworkError::GridTooLarge {
                specs,
                workloads,
                seeds,
                fault_sets,
                schedules,
                wavelengths,
            } => {
                write!(
                    f,
                    "scenario grid is too large: {specs} specs x {workloads} workloads x \
                     {seeds} seeds x {fault_sets} fault patterns x {schedules} fault \
                     schedules x {wavelengths} wavelength counts overflows the cell count"
                )
            }
            NetworkError::Schedule(e) => write!(f, "fault schedule cannot be bound: {e}"),
            NetworkError::KernelTooLarge {
                network,
                counted,
                nodes,
                limit,
            } => {
                let (unit, table) = match counted {
                    KernelCount::Processors => {
                        ("processors", "a deflection kernel's distance table")
                    }
                    KernelCount::Groups => ("groups", "a multi-OPS kernel's group route table"),
                };
                write!(
                    f,
                    "{network} has {nodes} {unit}, too many to simulate: {table} \
                     holds at most {limit}"
                )
            }
        }
    }
}

impl std::error::Error for NetworkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetworkError::Spec(e) => Some(e),
            NetworkError::Traffic(e) => Some(e),
            NetworkError::Verification(e) => Some(e),
            NetworkError::Structure { .. } => None,
            NetworkError::Sink { .. } => None,
            NetworkError::GridTooLarge { .. } => None,
            NetworkError::KernelTooLarge { .. } => None,
            NetworkError::Schedule(e) => Some(e),
        }
    }
}

impl From<otis_sim::FaultScheduleError> for NetworkError {
    fn from(e: otis_sim::FaultScheduleError) -> Self {
        NetworkError::Schedule(e)
    }
}

impl From<SpecError> for NetworkError {
    fn from(e: SpecError) -> Self {
        NetworkError::Spec(e)
    }
}

impl From<crate::traffic_spec::TrafficError> for NetworkError {
    fn from(e: crate::traffic_spec::TrafficError) -> Self {
        NetworkError::Traffic(e)
    }
}

impl From<VerificationError> for NetworkError {
    fn from(e: VerificationError) -> Self {
        NetworkError::Verification(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = SpecError::UnknownFamily {
            input: "ZZ(1)".into(),
            family: "ZZ".into(),
        };
        assert!(e.to_string().contains("ZZ"));
        assert!(e.to_string().contains("supported"));
        let n: NetworkError = e.into();
        assert!(n.to_string().contains("ZZ"));
        let v: NetworkError = VerificationError::ProcessorCountMismatch {
            design: 1,
            target: 2,
        }
        .into();
        assert!(v.to_string().contains("verification failed"));
        let s = NetworkError::Structure {
            network: "DB(2,3)".into(),
            detail: "oops".into(),
        };
        assert!(s.to_string().contains("DB(2,3)"));
        let sink = NetworkError::Sink {
            detail: "disk full".into(),
        };
        assert!(sink.to_string().contains("disk full"));
        let big = NetworkError::GridTooLarge {
            specs: usize::MAX,
            workloads: 2,
            seeds: 1,
            fault_sets: 1,
            schedules: 1,
            wavelengths: 1,
        };
        assert!(big.to_string().contains("too large"), "{big}");
        assert!(big.to_string().contains("overflows"), "{big}");
        let sched: NetworkError = otis_sim::FaultScheduleError::TargetOutOfRange {
            target: otis_sim::FaultTarget::Node(9),
            nodes: 6,
        }
        .into();
        assert!(sched.to_string().contains("fault schedule"), "{sched}");
        assert!(sched.to_string().contains('9'), "{sched}");
        let kernel = NetworkError::KernelTooLarge {
            network: "DB(2,16)".into(),
            counted: KernelCount::Processors,
            nodes: 65_536,
            limit: 65_535,
        };
        assert!(kernel.to_string().contains("DB(2,16)"), "{kernel}");
        assert!(kernel.to_string().contains("65536 processors"), "{kernel}");
        assert!(kernel.to_string().contains("65535"), "{kernel}");
        let groups = NetworkError::KernelTooLarge {
            network: "SK(1,2,15)".into(),
            counted: KernelCount::Groups,
            nodes: 49_152,
            limit: 8_191,
        };
        assert!(groups.to_string().contains("49152 groups"), "{groups}");
        assert!(groups.to_string().contains("multi-OPS"), "{groups}");
    }
}
