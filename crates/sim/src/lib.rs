//! # otis-sim
//!
//! A slotted discrete-event simulator for multi-OPS lightwave networks.
//!
//! The paper itself reports no measurements — its evaluation is the optical
//! constructions — but its motivation rests on companion work comparing
//! graph (single-OPS, point-to-point) and hypergraph (multi-OPS) topologies
//! under load (refs \[7\], \[11\], \[25\]).  This crate provides the simulation
//! substrate needed to regenerate that comparison *shape*:
//!
//! * time is slotted; an OPS coupler carries one message per slot *per
//!   wavelength* — one for the paper's single-wavelength model (the
//!   behavioural fact inherited from `otis-optics`), or `W` under a
//!   [`wavelength::WavelengthConfig`] with `count = W`, which switches both
//!   kernels into blocking-ratio mode (see below);
//! * [`multi_ops`] simulates any stack-graph network (POPS, stack-Kautz,
//!   stack-Imase–Itoh): messages follow the group-level routes of
//!   `otis-routing`, and per-coupler [`arbitration`] decides which waiting
//!   sender wins each slot;
//! * [`hot_potato`] simulates the single-OPS point-to-point baseline
//!   (de Bruijn / Kautz with deflection routing, ref \[25\]);
//! * [`traffic`] generates uniform, permutation, hot-spot, transpose and
//!   bit-reversal workloads; [`metrics`] aggregates latency, throughput and
//!   utilisation.  The parseable workload front door (`"hotspot(0.4,0,0.2)"`
//!   and friends) is `otis_net::TrafficSpec`, which validates loads and
//!   topology preconditions before handing a `TrafficPattern` to the
//!   simulators;
//! * [`demand`] generalizes the injection side beyond stationary patterns:
//!   a [`DemandSpec`] describes Poisson arrivals, on/off bursts, an
//!   elephants-and-mice mix, or lazy bounded-memory replay of a recorded
//!   `.trc` trace, and the per-run [`DemandSource`] it builds is the only
//!   traffic input of the kernels' `run` entry points, through the same
//!   allocation-free `injections_into` shape (stationary patterns wrap as
//!   [`DemandSource::from_pattern`] with byte-identical RNG draws);
//! * [`SimOptions`] is the one run config of both simulator families.
//!
//! ## Prepare/execute split and delta-repaired kernels
//!
//! Every simulator is split into an immutable **prepared kernel** and a
//! cheap **run**:
//!
//! * [`PreparedHotPotato`] / [`PreparedMultiOps`] hold the expensive,
//!   run-independent state — the fault-filtered graph plus, for
//!   hot-potato kernels, a distance-only table of one byte per processor
//!   pair ([`otis_routing::DistanceTable`], 4 MiB at 2,048 processors,
//!   shared between clones), or for multi-OPS kernels the quotient routing
//!   table and a table of coupler sequences per *group* pair (a group's
//!   processors share its couplers) — built once per
//!   `(network, fault-pattern)` pair and shareable across threads
//!   (`Send + Sync`);
//! * each kernel has exactly one run entry point,
//!   `run(timeline, demand, options, scratch)`
//!   ([`PreparedHotPotato::run`], [`PreparedMultiOps::run`]): an optional
//!   fault timeline (empty slice = static faults), a [`DemandSource`] as
//!   the only traffic input, one [`SimOptions`] and a caller-owned
//!   [`SlotScratch`] that holds all per-run mutable state.  A run
//!   performs **no per-slot allocations**.
//!
//! [`SimOptions`] is shared with the `otis-net` facade, which re-exports
//! it.  Its `faults` and `alt_paths` fields are prepare-time knobs — the
//! kernel constructors take them — and `run` ignores them, so one kernel
//! serves every cell that shares its fault pattern.  The one-shot
//! prepare-then-run conveniences live on `otis_net::Network`
//! (`simulate`, `simulate_uniform`, `simulate_workload`).
//!
//! A fault pattern's kernel does not have to be built from scratch: both
//! kernels have `repair_from` constructors that derive it from the
//! fault-free base by **delta repair** — only the distance-table columns
//! (deflection kernels) or group pairs' Yen alternates (multi-OPS kernels)
//! the faults can have moved are recomputed, and the result is
//! bit-identical to a from-scratch build.  A fault-sweep grid therefore
//! pays full routing-state construction once per network and a much
//! cheaper repair per fault pattern; `otis_net::engine` derives its cached
//! kernels exactly this way.
//!
//! ## Fault timelines and mid-run kernel swaps
//!
//! The prepare/execute split also powers *dynamic* fault injection: a
//! [`schedule::FaultSchedule`] (`"fail(node 3)@32; recover@96"`) binds to a
//! run as a **timeline** — a chronological list of `(slot, kernel)` epochs
//! built by [`PreparedHotPotato::timeline_from`] /
//! [`PreparedMultiOps::timeline_from`], each epoch kernel repaired from the
//! fault-free base toward its epoch's fault set with `repair_from`, whether
//! the swap grows the fault set or shrinks it, and bit-identical to a
//! from-scratch build.  A run given a non-empty
//! timeline swaps the active kernel at the start of each epoch slot,
//! before injections: in-flight messages are re-resolved against the new
//! routing tables (multi-OPS flights restart their route from the holding
//! processor; hot-potato messages keep deflecting), and messages stranded
//! on a failed node/arc or left unreachable are dropped as
//! `dropped_by_failure` — counted separately from congestion drops.  [`SimMetrics`] gains the
//! restoration columns (`fault_events`, `in_flight_at_failure`,
//! `dropped_by_failure`, `restore_slots`, `post_failure_latency_peak`), all
//! undefined when no swap happened.  An empty timeline never touches the
//! swap machinery.
//!
//! ## The slot engine
//!
//! Both `run` implementations drive one shared slot engine:
//!
//! * a per-run core of the seeded RNG and the [`SimMetrics`], which the
//!   slot loops update in place;
//! * the messages in flight, each a three-column record
//!   `(dst, injected_at, hops)` behind a compact `u32` handle, with a free
//!   list so memory tracks the peak live population.  That is all the
//!   loops read: `dst` to test delivery and to route, `injected_at` for
//!   latency and age-ordered arbitration, `hops` for the hop statistics
//!   and the livelock guard.  Nothing else is stored, because nothing
//!   reads it: no metric names a message or its source, and an assigned
//!   wavelength only matters as occupancy of the slot's spectrum map.
//!   Per-node and per-coupler buffers hold handles, and the multi-OPS
//!   kernel keeps each flight's route and hop position per handle in its
//!   own scratch;
//! * `u64`-word bitsets for port occupancy and, in
//!   [`otis_graphs::SpectrumMap`], per-channel spectrum occupancy.
//!
//! One loop per simulator covers every capacity, with one RNG stream per
//! run, so the metrics are a function of the kernel, the demand and the
//! options alone, at every thread count.  `tests/slot_loop_pins.rs` pins
//! both loops' metrics across every arbitration policy, queue limit,
//! wavelength mode and fault timeline.
//!
//! ## Hot path anatomy
//!
//! Each kernel's slot body is organised as **batched phases**, and each
//! kernel grants a hop in exactly one place:
//!
//! * **Hot-potato** runs two phases per slot.  *Deliver/classify* drains
//!   every node bucket in index order, delivering arrivals, dropping
//!   livelocked messages, and appending survivors to one slot-global
//!   transit list with per-node spans (each span stable-sorted by
//!   injection slot); this phase draws nothing from the RNG.
//!   *Arbitrate/inject* then walks nodes in index order, resets the port
//!   bitset once per node, routes each span through the randomized port
//!   chooser, and admits at most one injection.  Transit messages and the
//!   admitted injection leave through the same forward step: claim the
//!   port (and, multiplexed, a wavelength of its arc), take the hop, and
//!   arrive at the neighbour for the next slot.
//! * **Multi-OPS** runs inject, then per-coupler arbitrate/transmit, then
//!   the bufferless overflow/alternate pass, then the pending-queue swap.
//!   An arbitration winner and a message re-rooted onto an alternate route
//!   go through the same transmit step, which grants the coupler, takes
//!   the hop, and delivers or forwards the message.
//! * Port masks are scanned **word at a time**: the chooser iterates `u64`
//!   words, masks the tail past the declared port count, and pops set bits
//!   with `trailing_zeros`, visiting free ports in ascending order — the
//!   same tie sets, hence the same draws, as a per-port scan.
//!
//! Per-run mutable state lives in a reusable [`SlotScratch`] pool: the
//! RNG and metrics core, the message records, the injection buffer, and
//! each kernel's private buckets/queues/bitsets.  Every `run` begins by
//! resetting the pool — cleared lengths, kept allocations — so a reused
//! pool is indistinguishable from a fresh one (it hands out the exact
//! handle sequence a fresh one would) while touching the allocator only
//! when a run out-peaks everything before it.
//! `otis_net::engine` hands each worker thread one pool for its whole
//! lifetime and threads every grid cell through it, reporting the saved
//! setups as `StreamSummary::scratch_reuses`.
//!
//! ## Wavelength layer
//!
//! [`wavelength`] configures multi-wavelength channels: at `count > 1` the
//! multi-OPS kernel runs its bufferless transmit-or-block discipline
//! (losers try Yen-precomputed alternate routes, then count as *blocked*)
//! and the hot-potato kernel gives every link `W` parallel wavelengths (a
//! node with all ports exhausted drops the message as blocked).
//! [`SimMetrics`] gains `blocking_ratio`, `wavelength_utilization` and
//! `alt_route_rate`, all `NaN` (undefined) for capacity-1 runs where the
//! layer is off — capacity-1 outputs are unchanged.
//!
//! The packaged head-to-head comparison scenarios (experiment T5) live in the
//! `otis-net` facade crate (`otis_net::scenarios`), where any network is
//! addressable by a spec string and a comparison is plain data.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(clippy::all)]

pub mod arbitration;
pub mod demand;
pub mod hot_potato;
mod kernel;
pub mod metrics;
pub mod multi_ops;
pub mod options;
pub mod schedule;
pub mod traffic;
pub mod wavelength;

pub use arbitration::ArbitrationPolicy;
pub use demand::{
    matched_burst_rate, validate_trace, DemandSource, DemandSpec, TraceError, TraceReplay,
    TraceStats,
};
pub use hot_potato::PreparedHotPotato;
pub use kernel::SlotScratch;
pub use metrics::SimMetrics;
pub use multi_ops::PreparedMultiOps;
pub use options::SimOptions;
pub use schedule::{FaultAction, FaultEvent, FaultSchedule, FaultScheduleError, FaultTarget};
pub use traffic::TrafficPattern;
pub use wavelength::{WavelengthAssignment, WavelengthConfig};
