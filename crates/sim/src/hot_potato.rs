//! Slotted simulation of point-to-point networks with hot-potato routing.
//!
//! This is the single-OPS baseline (Zhang & Acampora, ref \[25\]): the network
//! is an ordinary digraph (de Bruijn or Kautz in the comparisons), every arc
//! carries one message per slot, and nodes never buffer transit traffic — in
//! each slot all arriving messages must be forwarded immediately, deflected
//! onto non-preferred ports when they lose the contention for a shortest-path
//! port.  New messages can only be injected when a free output port remains
//! after all transit traffic has been assigned.
//!
//! The simulator is split into *prepare* and *execute* phases:
//!
//! * [`PreparedHotPotato`] is the immutable kernel — the fault-filtered
//!   digraph (already a flat CSR port layout) plus the deflection router's
//!   one-byte distance-only table ([`otis_routing::DistanceTable`]: no next
//!   hops, 4 MiB at 2,048 processors, shared between clones), built once
//!   per `(graph, fault-pattern)` pair.  A fault pattern's kernel can also
//!   be *delta-repaired* from the fault-free base
//!   ([`PreparedHotPotato::repair_from`]): only the distance columns the
//!   faults actually touch are recomputed, and the result is identical to
//!   building from scratch;
//! * [`PreparedHotPotato::run`] — the kernel's one run entry point — owns
//!   only per-run mutable state (in a caller-owned [`crate::SlotScratch`])
//!   and drives the slot engine shared with the multi-OPS kernel: a
//!   message in flight is the record `(dst, injected_at, hops)` behind a
//!   `u32` handle, and the per-node buffers hold handles.  Port occupancy
//!   is a `u64`-word bitset fed straight into the router's masked port
//!   chooser, and per-arc wavelength occupancy a [`SpectrumMap`] bitmask
//!   cleared every slot; which wavelength a message took is not kept,
//!   because nothing reads it.  No per-slot allocations, so a scenario
//!   sweep pays the expensive table construction once and every cell only
//!   pays for its slot loop.
//!
//! One loop serves both capacities; [`PreparedHotPotato::run`] describes
//! the capacity-1 and WDM modes.  Hot-potato deflection *is* alternate
//! routing — a deflected message already takes the next-best port — so the
//! multi-OPS kernel's per-hop alternate-path count has no analogue here and
//! the `alt_routed` metric counts deflections off a shortest-path port.

use crate::demand::DemandSource;
use crate::kernel::{assign_wavelength, HotScratch, MessageArena, PortBits, RunCore, SlotScratch};
use crate::metrics::SimMetrics;
use crate::options::SimOptions;
use crate::schedule::{FaultSchedule, FaultScheduleError, RestoreTracker};
use crate::wavelength::WavelengthAssignment;
use otis_graphs::{Digraph, SpectrumMap};
use otis_routing::fault_tolerant::surviving_subgraph;
use otis_routing::{FaultSet, HotPotatoRouter};
use std::sync::Arc;

/// The immutable, shareable kernel of the hot-potato simulator: the
/// fault-filtered digraph (a flat CSR port layout — out-neighbours of a node
/// are one contiguous slice, indexed by port) together with the deflection
/// router's one-byte distance-only table.  Building one is the expensive
/// part of a simulation (`O(n·(n + m))` for the table);
/// [`PreparedHotPotato::run`] is the cheap part and can be called any number
/// of times with different seeds, traffic patterns and slot counts.
///
/// The kernel is `Send + Sync`, so a scenario engine can build it once per
/// distinct `(graph, fault-pattern)` pair and share it across worker
/// threads.
#[derive(Debug, Clone)]
pub struct PreparedHotPotato {
    router: HotPotatoRouter,
    faults: FaultSet,
}

impl PreparedHotPotato {
    /// Prepares a kernel over a shared digraph, routing around the given
    /// faults: blocked arcs and all arcs incident to failed nodes are
    /// removed from the network, distances are computed on the surviving
    /// subgraph, and injections from, to or between disconnected processors
    /// are refused at run time (they do not count as injected).
    ///
    /// With no faults the shared graph is used as-is (no copy); with faults
    /// the surviving subgraph is materialised once, here.
    pub fn new(graph: Arc<Digraph>, faults: FaultSet) -> Self {
        let router = if faults.is_empty() {
            HotPotatoRouter::from_shared(graph)
        } else {
            HotPotatoRouter::new(surviving_subgraph(&graph, &faults))
        };
        PreparedHotPotato { router, faults }
    }

    /// Derives the kernel for `faults` from a fault-free base kernel by
    /// delta-repairing the routing table instead of rebuilding it from
    /// scratch: only the distance columns the faults actually touch are
    /// recomputed (see [`HotPotatoRouter::from_repair`]).  The result is
    /// bit-identical to [`PreparedHotPotato::new`] over the base graph and
    /// the same faults, so runs from a repaired kernel match runs from a
    /// fresh one exactly.
    ///
    /// # Panics
    ///
    /// Panics if `base` was prepared with a non-empty fault set.
    pub fn repair_from(base: &PreparedHotPotato, faults: &FaultSet) -> Self {
        assert!(
            base.faults.is_empty(),
            "repair_from requires a fault-free base kernel"
        );
        if faults.is_empty() {
            return base.clone();
        }
        PreparedHotPotato {
            router: HotPotatoRouter::from_repair(&base.router, faults),
            faults: faults.clone(),
        }
    }

    /// Number of nodes simulated.
    pub fn node_count(&self) -> usize {
        self.router.graph().node_count()
    }

    /// The faults fixed at prepare time.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Structural equality of the routing state — the distance table and
    /// the fault pattern — used by the delta-repair acceptance tests to
    /// prove a repaired kernel bit-identical to a from-scratch build.
    /// Hidden from docs: not part of the simulation surface.
    #[doc(hidden)]
    pub fn routing_state_eq(&self, other: &PreparedHotPotato) -> bool {
        self.faults == other.faults && self.router.table() == other.router.table()
    }

    /// Builds the epoch timeline a [`FaultSchedule`] prescribes for runs of
    /// the `initial` kernel: one `(slot, kernel)` pair per distinct event
    /// slot, each kernel delta-repaired from the fault-free `base` toward
    /// that epoch's fault set (the `initial` kernel's static faults overlaid
    /// with every scheduled fault in force) and bit-identical to preparing
    /// it from scratch.  The result feeds
    /// [`PreparedHotPotato::run`].
    ///
    /// Fails with a typed [`FaultScheduleError`] when an event targets a
    /// node outside the network or a scheduled failure duplicates one of
    /// `initial`'s static faults.
    ///
    /// # Panics
    ///
    /// Panics if `base` was prepared with a non-empty fault set.
    pub fn timeline_from(
        base: &PreparedHotPotato,
        initial: &PreparedHotPotato,
        schedule: &FaultSchedule,
    ) -> Result<Vec<(u64, PreparedHotPotato)>, FaultScheduleError> {
        let epochs = schedule.bind(base.node_count(), initial.faults())?;
        Ok(epochs
            .into_iter()
            .map(|(slot, faults)| (slot, PreparedHotPotato::repair_from(base, &faults)))
            .collect())
    }

    /// Executes one run — the kernel's single run entry point.
    ///
    /// * `options` carries the run-scoped knobs: `slots`, `seed`,
    ///   `max_hops` (livelock guard) and `wavelengths`.  `faults` and
    ///   `alt_paths` are fixed at prepare time and ignored here, so one
    ///   kernel serves every cell that shares its fault pattern.
    /// * `demand` drives the injections.  Wrap a stationary pattern with
    ///   [`DemandSource::from_pattern`]; demand processes (Poisson, on/off,
    ///   trace replay) come from [`crate::DemandSpec::source`].  The source
    ///   is mutable because demand processes carry mid-run state, so build
    ///   a fresh one per run.
    /// * `timeline` is a chronological list of `(slot, kernel)` epochs (see
    ///   [`PreparedHotPotato::timeline_from`]); at the start of each
    ///   epoch's slot, before injections, the active kernel is swapped.
    ///   In-flight messages are re-resolved against the new kernel — a
    ///   message sitting on a failed node, destined to one, or left
    ///   unreachable is dropped and counted in `dropped_by_failure` (as
    ///   well as `dropped`); survivors keep deflecting under the new
    ///   routing table.  The restoration metrics (`fault_events`,
    ///   `in_flight_at_failure`, `restore_slots`,
    ///   `post_failure_latency_peak`) are anchored to the first swap that
    ///   introduces new failures.  An empty timeline never touches the swap
    ///   machinery.
    /// * `scratch` holds every piece of per-run mutable state — the message
    ///   records, handle buckets, port bitsets and tie-break scratch.  It is
    ///   reset on entry (cleared lengths, kept allocations), so a reused
    ///   pool is indistinguishable from a fresh one and consecutive runs
    ///   reallocate nothing; no per-slot allocations either.
    ///
    /// One struct-of-arrays slot loop serves every capacity.  With capacity
    /// 1 a granted port closes immediately and the wavelength layer stays
    /// off (`metrics.wavelengths == 0`).  With `W > 1` every arc is a WDM
    /// link carrying up to `W` messages per slot: a port only closes once
    /// all `W` wavelengths of its arc are occupied, a transit message with
    /// no usable port counts as blocked and is dropped, and deflections off
    /// a shortest-path port are recorded as alternate-route events.
    ///
    /// The slot body is organised as batched phases (see the *hot path
    /// anatomy* section of the crate docs): the **deliver/classify** phase
    /// drains every node's bucket — delivering, dropping livelocked
    /// messages, collecting the survivors into one slot-global transit list
    /// with per-node spans, age-sorted per node — and draws nothing from
    /// the RNG; the **arbitrate/inject** phase then walks the nodes in
    /// index order, deflection-routing each span and admitting at most one
    /// injection per node.  A transit message and an admitted injection
    /// leave through the same forward step, which claims the port, takes
    /// the hop and counts the grant.
    pub fn run(
        &self,
        timeline: &[(u64, PreparedHotPotato)],
        demand: &mut DemandSource,
        options: &SimOptions,
        scratch: &mut SlotScratch,
    ) -> SimMetrics {
        let n = self.router.graph().node_count();
        let multiplexed = options.wavelengths.is_multiplexed();
        scratch.begin_run(options.seed, n, self.router.graph().arc_count());
        scratch.hot.begin_run(n);
        let SlotScratch {
            core,
            arena,
            injections,
            hot,
            ..
        } = scratch;
        let HotScratch {
            at_node,
            arriving,
            transit,
            spans,
            ports,
            ties,
        } = hot;
        let mut spectrum = if multiplexed {
            core.metrics.wavelengths = options.wavelengths.count;
            Some(SpectrumMap::new(
                self.router.graph().arc_count(),
                options.wavelengths.count,
            ))
        } else {
            None
        };
        let mut active = self;
        let mut next_epoch = 0usize;
        let mut tracker = RestoreTracker::default();

        for slot in 0..options.slots {
            core.begin_slot(slot);
            // Kernel swaps scheduled for this slot apply before injections:
            // strand the messages the new fault set cuts off, re-point the
            // routing state, and (in multiplexed mode) rebuild the spectrum
            // over the new surviving subgraph's arc numbering.
            while timeline.get(next_epoch).is_some_and(|(s, _)| *s <= slot) {
                let kernel = &timeline[next_epoch].1;
                next_epoch += 1;
                let live: u64 = at_node.iter().map(|v| v.len() as u64).sum();
                let introduces = !kernel.faults.is_subset_of(&active.faults);
                tracker.on_swap(introduces, slot, live, &mut core.metrics);
                for (node, bucket) in at_node.iter_mut().enumerate() {
                    bucket.retain(|&handle| {
                        let dst = arena.dst(handle);
                        let stranded = kernel.faults.node_failed(node)
                            || kernel.faults.node_failed(dst)
                            || kernel.router.distance(node, dst).is_none();
                        if stranded {
                            core.metrics.dropped_by_failure += 1;
                            core.metrics.dropped += 1;
                            arena.release(handle);
                        }
                        !stranded
                    });
                }
                active = kernel;
                if multiplexed {
                    spectrum = Some(SpectrumMap::new(
                        active.router.graph().arc_count(),
                        options.wavelengths.count,
                    ));
                }
            }
            if let Some(spectrum) = spectrum.as_mut() {
                spectrum.clear();
            }
            demand.injections_into(n, &mut core.rng, injections);

            // Deliver/classify phase: one pass over every node's bucket and
            // the arena's `dst`/`injected_at`/`hops` columns.  Messages
            // destined here are delivered, livelocked ones dropped, and the
            // survivors collected into one slot-global transit list —
            // node `v`'s span sorted oldest first so older traffic gets the
            // better ports.  No RNG draws happen in this phase, so hoisting
            // it out of the per-node loop leaves the draw order untouched.
            transit.clear();
            spans.clear();
            for (node, bucket) in at_node.iter_mut().enumerate() {
                let start = transit.len() as u32;
                for handle in bucket.drain(..) {
                    if arena.dst(handle) == node {
                        let latency = slot.saturating_sub(arena.injected_at(handle));
                        core.metrics.record_delivery(latency, arena.hops(handle));
                        tracker.observe_delivery(latency, &mut core.metrics);
                        arena.release(handle);
                    } else if RunCore::livelock_exceeded(options.max_hops, arena.hops(handle)) {
                        core.metrics.dropped += 1;
                        arena.release(handle);
                    } else {
                        transit.push(handle);
                    }
                }
                transit[start as usize..].sort_by_key(|&h| arena.injected_at(h));
                spans.push((start, transit.len() as u32));
            }

            // Arbitrate/inject phase: nodes in index order, each one's
            // transit span first (one deflection decision per message, one
            // RNG draw per successful decision), then at most one injection.
            for node in 0..n {
                // Each arc is this node's exclusive output and the spectrum
                // was cleared at the top of the slot, so every port opens
                // free.
                ports.reset(active.router.graph().out_degree(node));
                let (start, end) = spans[node];
                for &handle in &transit[start as usize..end as usize] {
                    let dst = arena.dst(handle);
                    match active.router.choose_port_randomized_masked(
                        node,
                        dst,
                        ports.words(),
                        &mut core.rng,
                        ties,
                    ) {
                        Some(port) => forward(
                            handle,
                            node,
                            port,
                            &active.router,
                            options.wavelengths.assignment,
                            &mut spectrum,
                            ports,
                            core,
                            arena,
                            arriving,
                        ),
                        None => {
                            // No free port.  Capacity 1: with in-degree ==
                            // out-degree this cannot happen for pure transit
                            // traffic, but a loop arc or irregular graph can
                            // trigger it.  Multiplexed: every wavelength of
                            // every out-arc is busy and the bufferless node
                            // must discard the message, counted as blocked.
                            if multiplexed {
                                core.metrics.blocked += 1;
                            }
                            core.metrics.dropped += 1;
                            arena.release(handle);
                        }
                    }
                }

                // Injection only if a port is still free (hot-potato
                // admission control).  Traffic from, to or cut off from a
                // failed region is refused at the source.
                if let Some(dst) = injections[node] {
                    if !active.faults.is_empty()
                        && (active.faults.node_failed(node)
                            || active.faults.node_failed(dst)
                            || active.router.distance(node, dst).is_none())
                    {
                        // Unservable under the faults: not counted as injected.
                    } else if let Some(port) = active.router.choose_port_randomized_masked(
                        node,
                        dst,
                        ports.words(),
                        &mut core.rng,
                        ties,
                    ) {
                        core.metrics.injected += 1;
                        let handle = arena.insert(dst, slot);
                        forward(
                            handle,
                            node,
                            port,
                            &active.router,
                            options.wavelengths.assignment,
                            &mut spectrum,
                            ports,
                            core,
                            arena,
                            arriving,
                        );
                    }
                    // else: injection refused, not counted as injected.
                }
            }

            // Every node's bucket in `at_node` was drained above, so after
            // the swap `arriving` is a set of empty buckets (capacity kept)
            // ready for the next slot.
            std::mem::swap(at_node, arriving);
            tracker.end_slot(slot, &mut core.metrics);
        }

        // Messages that reached their destination during the final slot are
        // delivered, not in flight: `at_node` is normally drained at the
        // start of the *next* slot, which never comes for the last one.
        // Their delivery slot is `slots`, consistent with the in-loop
        // convention (a single-hop message costs exactly 1 slot).
        for (node, handles) in at_node.iter_mut().enumerate() {
            let metrics = &mut core.metrics;
            let arena = &*arena;
            handles.retain(|&handle| {
                if arena.dst(handle) == node {
                    let latency = options.slots.saturating_sub(arena.injected_at(handle));
                    metrics.record_delivery(latency, arena.hops(handle));
                    tracker.observe_delivery(latency, metrics);
                    false
                } else {
                    true
                }
            });
        }

        let in_flight = at_node.iter().map(|v| v.len() as u64).sum();
        core.finish(in_flight)
    }
}

/// Sends the message at `handle` out of `node` on `port` — the one place
/// a hot-potato hop is granted, for transit traffic and fresh injections
/// alike.  In multiplexed mode it records a deflection if the port makes
/// no progress toward the destination, occupies one wavelength of the
/// port's arc and closes the port only once the arc's spectrum is full;
/// with the wavelength layer off the port closes unconditionally.  The
/// message then takes the hop and arrives at the port's neighbour for the
/// next slot.
#[inline]
#[allow(clippy::too_many_arguments)]
fn forward(
    handle: u32,
    node: usize,
    port: usize,
    router: &HotPotatoRouter,
    assignment: WavelengthAssignment,
    spectrum: &mut Option<SpectrumMap>,
    ports: &mut PortBits,
    core: &mut RunCore,
    arena: &mut MessageArena,
    arriving: &mut [Vec<u32>],
) {
    match spectrum.as_mut() {
        Some(spectrum) => {
            if !router.is_progress_port(node, arena.dst(handle), port) {
                core.metrics.alt_routed += 1;
            }
            let arc = router.graph().out_arc_ids(node)[port];
            assign_wavelength(spectrum, arc, assignment, &mut core.rng);
            if spectrum.is_full(arc) {
                ports.close(port);
            }
        }
        None => ports.close(port),
    }
    arena.add_hop(handle);
    arriving[router.graph().out_neighbors(node)[port]].push(handle);
    core.metrics.grants += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficPattern;
    use crate::wavelength::WavelengthConfig;
    use otis_topologies::{de_bruijn, kautz};

    fn prepare(graph: Digraph, faults: FaultSet) -> PreparedHotPotato {
        PreparedHotPotato::new(Arc::new(graph), faults)
    }

    /// One timeline-free run under a stationary pattern, fresh scratch.
    fn run_pattern(
        kernel: &PreparedHotPotato,
        traffic: &TrafficPattern,
        options: &SimOptions,
    ) -> SimMetrics {
        run_timeline(kernel, &[], traffic, options)
    }

    fn run_timeline(
        kernel: &PreparedHotPotato,
        timeline: &[(u64, PreparedHotPotato)],
        traffic: &TrafficPattern,
        options: &SimOptions,
    ) -> SimMetrics {
        let mut demand = DemandSource::from_pattern(traffic.clone());
        kernel.run(timeline, &mut demand, options, &mut SlotScratch::new())
    }

    fn run_de_bruijn(load: f64, slots: u64) -> SimMetrics {
        run_pattern(
            &prepare(de_bruijn(2, 3), FaultSet::new()),
            &TrafficPattern::Uniform { load },
            &SimOptions {
                slots,
                ..Default::default()
            },
        )
    }

    #[test]
    fn conservation_of_messages() {
        let m = run_de_bruijn(0.4, 500);
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
        assert!(m.injected > 0);
        assert!(m.delivered > 0);
    }

    #[test]
    fn light_load_latency_close_to_average_distance() {
        // With almost no contention, messages follow shortest paths; the
        // average latency is near the average distance of B(2,3) (~2.1).
        let m = run_de_bruijn(0.02, 5000);
        assert!(m.delivered > 50);
        assert!(m.average_latency() < 3.5, "latency {}", m.average_latency());
        assert!(m.average_hops() >= 1.0);
    }

    #[test]
    fn heavy_load_causes_deflections() {
        let light = run_de_bruijn(0.05, 2000);
        let heavy = run_de_bruijn(1.0, 2000);
        // Deflections lengthen paths.
        assert!(heavy.average_hops() > light.average_hops());
        assert!(heavy.average_latency() > light.average_latency());
    }

    #[test]
    fn kautz_hot_potato_works_too() {
        let m = run_pattern(
            &prepare(kautz(2, 3), FaultSet::new()),
            &TrafficPattern::Uniform { load: 0.3 },
            &SimOptions::default(),
        );
        assert!(m.delivered > 0);
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
    }

    #[test]
    fn injection_is_throttled_at_saturation() {
        // At load 1.0 every node wants to inject every slot but ports are
        // mostly occupied by transit traffic: accepted injections per node
        // per slot stay below 1.
        let m = run_de_bruijn(1.0, 1000);
        let offered = m.slots * m.processors as u64;
        assert!(m.injected < offered);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_de_bruijn(0.3, 300);
        let b = run_de_bruijn(0.3, 300);
        assert_eq!(a, b);
    }

    #[test]
    fn final_slot_arrivals_count_as_delivered() {
        // On the complete digraph every message arrives in one hop, so after
        // the post-run drain nothing can be left in flight: a message
        // injected in the last slot has arrived at its destination by the
        // time the run ends.
        let m = run_pattern(
            &prepare(otis_topologies::complete_digraph(5), FaultSet::new()),
            &TrafficPattern::Permutation {
                load: 1.0,
                offset: 1,
            },
            &SimOptions::new(1, 1),
        );
        assert_eq!(m.injected, 5);
        assert_eq!(m.delivered, 5, "final-slot arrivals must be delivered");
        assert_eq!(m.in_flight, 0);
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
        // One hop, one slot each.
        assert!((m.average_latency() - 1.0).abs() < 1e-12);
        assert_eq!(m.max_hops, 1);
    }

    #[test]
    fn faults_are_routed_around_and_conservation_holds() {
        let g = kautz(2, 3);
        let mut faults = FaultSet::new();
        faults.fail_node(0);
        let traffic = TrafficPattern::Uniform { load: 0.3 };
        let options = SimOptions::new(800, 1);
        let m = run_pattern(&prepare(g.clone(), faults), &traffic, &options);
        assert!(m.delivered > 0);
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
        // The faulty run accepts strictly less traffic than the intact one
        // under the same seed (injections touching node 0 are refused).
        let intact = run_pattern(&prepare(g, FaultSet::new()), &traffic, &options);
        assert!(m.injected < intact.injected);
    }

    #[test]
    fn prepared_kernel_reuse_matches_fresh_construction() {
        // The prepare/execute contract: one kernel driven with many
        // (seed, traffic, slots) combinations through one reused scratch
        // pool produces metrics identical to preparing a fresh kernel for
        // every run, with and without faults.
        let g = kautz(2, 3);
        let mut scratch = SlotScratch::new();
        for faults in [FaultSet::new(), FaultSet::from_nodes([0, 5])] {
            let kernel = prepare(g.clone(), faults.clone());
            for (seed, load, slots) in [(1u64, 0.3, 400u64), (9, 0.8, 250), (42, 0.05, 600)] {
                let options = SimOptions::new(slots, seed);
                let traffic = TrafficPattern::Uniform { load };
                let mut demand = DemandSource::from_pattern(traffic.clone());
                let reused = kernel.run(&[], &mut demand, &options, &mut scratch);
                let fresh = run_pattern(&prepare(g.clone(), faults.clone()), &traffic, &options);
                assert_eq!(reused, fresh, "seed {seed} load {load}");
            }
        }
    }

    #[test]
    fn wavelength_mode_conserves_and_reports_the_layer() {
        let m = run_pattern(
            &prepare(de_bruijn(2, 3), FaultSet::new()),
            &TrafficPattern::Uniform { load: 0.8 },
            &SimOptions {
                slots: 800,
                wavelengths: WavelengthConfig::with_count(4),
                ..Default::default()
            },
        );
        assert_eq!(m.wavelengths, 4);
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
        assert!(m.delivered > 0);
        assert!(m.blocked <= m.dropped);
        assert!(!m.blocking_ratio().is_nan());
        assert!(!m.wavelength_utilization().is_nan());
        // Deflections under load register as alternate-route events.
        assert!(
            m.alt_routed > 0,
            "saturated deflection routing must deflect"
        );
    }

    #[test]
    fn more_wavelengths_admit_more_traffic() {
        // Each extra wavelength relaxes the injection admission control
        // (ports close only when all W wavelengths are busy), so accepted
        // injections grow with W under saturation.
        let kernel = prepare(de_bruijn(2, 3), FaultSet::new());
        let run = |w: usize| {
            run_pattern(
                &kernel,
                &TrafficPattern::Uniform { load: 1.0 },
                &SimOptions {
                    slots: 600,
                    wavelengths: WavelengthConfig::with_count(w),
                    ..Default::default()
                },
            )
        };
        let narrow = run(2);
        let wide = run(8);
        assert!(wide.injected > narrow.injected);
        assert!(wide.delivered > narrow.delivered);
    }

    #[test]
    fn random_assignment_only_changes_wavelength_choice() {
        // Wavelength identity never affects hot-potato dynamics (ports close
        // on full arcs regardless of which wavelengths filled them), but the
        // Random discipline draws from the RNG stream, so the runs may
        // diverge; both must stay conserved and deliver.
        let kernel = prepare(kautz(2, 3), FaultSet::new());
        for assignment in [WavelengthAssignment::FirstFit, WavelengthAssignment::Random] {
            let m = run_pattern(
                &kernel,
                &TrafficPattern::Uniform { load: 0.9 },
                &SimOptions {
                    slots: 400,
                    wavelengths: WavelengthConfig {
                        count: 3,
                        assignment,
                    },
                    ..Default::default()
                },
            );
            assert!(m.delivered > 0, "{assignment:?}");
            assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
        }
    }

    #[test]
    fn capacity_one_config_keeps_the_wavelength_layer_off() {
        // wavelengths = 1 must not engage the wavelength layer: metrics
        // carry the layer-off sentinel and match the default config bit for
        // bit.
        let kernel = prepare(de_bruijn(2, 3), FaultSet::new());
        let run = |wavelengths| {
            run_pattern(
                &kernel,
                &TrafficPattern::Uniform { load: 0.7 },
                &SimOptions {
                    slots: 400,
                    wavelengths,
                    ..Default::default()
                },
            )
        };
        let legacy = run(WavelengthConfig::default());
        assert_eq!(legacy.wavelengths, 0, "layer off ⇒ sentinel 0");
        assert!(legacy.blocking_ratio().is_nan());
        assert_eq!(legacy, run(WavelengthConfig::with_count(1)));
    }

    #[test]
    fn repaired_kernels_run_identically_to_fresh_ones() {
        // Delta-repairing a fault pattern's kernel from the fault-free base
        // must be indistinguishable from preparing it from scratch: every
        // run, in both wavelength modes, produces identical metrics.
        let g = kautz(2, 3);
        let base = prepare(g.clone(), FaultSet::new());
        let traffic = TrafficPattern::Uniform { load: 0.6 };
        let configs = [
            SimOptions::new(300, 1),
            SimOptions {
                slots: 300,
                wavelengths: WavelengthConfig::with_count(4),
                ..Default::default()
            },
        ];
        for node in 0..g.node_count() {
            let faults = FaultSet::from_nodes([node]);
            let repaired = PreparedHotPotato::repair_from(&base, &faults);
            let fresh = prepare(g.clone(), faults);
            for config in &configs {
                assert_eq!(
                    run_pattern(&repaired, &traffic, config),
                    run_pattern(&fresh, &traffic, config),
                    "node {node}"
                );
            }
        }
        // Empty fault set: the repair is the base itself.
        let same = PreparedHotPotato::repair_from(&base, &FaultSet::new());
        assert_eq!(
            run_pattern(&same, &traffic, &configs[0]),
            run_pattern(&base, &traffic, &configs[0])
        );
    }

    #[test]
    fn epochs_past_the_run_leave_it_untouched() {
        // The swap machinery must be inert until an epoch is reached: a
        // timeline whose only epoch lies past the last slot gives the
        // timeline-free run (identical metrics, hence identical RNG draw
        // order) in both wavelength modes.
        let g = kautz(2, 3);
        let kernel = prepare(g.clone(), FaultSet::new());
        let late = vec![(400u64, prepare(g, FaultSet::from_nodes([2])))];
        let traffic = TrafficPattern::Uniform { load: 0.5 };
        for config in [
            SimOptions::new(400, 1),
            SimOptions {
                slots: 400,
                wavelengths: WavelengthConfig::with_count(3),
                ..Default::default()
            },
        ] {
            let timed = run_timeline(&kernel, &late, &traffic, &config);
            let plain = run_pattern(&kernel, &traffic, &config);
            assert_eq!(timed, plain);
            assert_eq!(timed.fault_events, 0);
        }
    }

    #[test]
    fn timeline_kernels_match_from_scratch_preparation() {
        // The kernel-swap path must be bit-identical to swapping in kernels
        // prepared from scratch: a timeline built by `timeline_from` (delta
        // repair) and one rebuilt with freshly prepared kernels produce the
        // same run, metric for metric.
        let g = kautz(2, 3);
        let base = prepare(g.clone(), FaultSet::new());
        let schedule: FaultSchedule = "fail(node 3)@40; recover@160".parse().unwrap();
        let timeline = PreparedHotPotato::timeline_from(&base, &base, &schedule).unwrap();
        assert_eq!(timeline.len(), 2);
        let fresh: Vec<(u64, PreparedHotPotato)> = timeline
            .iter()
            .map(|(slot, k)| (*slot, prepare(g.clone(), k.faults().clone())))
            .collect();
        let traffic = TrafficPattern::Uniform { load: 0.6 };
        let config = SimOptions::new(320, 1);
        let repaired = run_timeline(&base, &timeline, &traffic, &config);
        let scratch = run_timeline(&base, &fresh, &traffic, &config);
        assert_eq!(repaired, scratch);
        assert_eq!(repaired.fault_events, 2);
        assert_eq!(
            repaired.injected,
            repaired.delivered + repaired.in_flight + repaired.dropped
        );
        assert!(repaired.dropped_by_failure <= repaired.dropped);
    }

    #[test]
    fn failure_at_slot_zero_matches_the_static_faulted_run() {
        // A swap before any traffic exists runs the whole simulation under
        // the faulted kernel: everything but the restoration bookkeeping
        // matches a statically faulted run bit for bit.
        let g = kautz(2, 3);
        let base = prepare(g.clone(), FaultSet::new());
        let schedule: FaultSchedule = "fail(node 0)@0".parse().unwrap();
        let timeline = PreparedHotPotato::timeline_from(&base, &base, &schedule).unwrap();
        let traffic = TrafficPattern::Uniform { load: 0.4 };
        let config = SimOptions::new(300, 1);
        let mut timed = run_timeline(&base, &timeline, &traffic, &config);
        let faulted = prepare(g, FaultSet::from_nodes([0]));
        let static_run = run_pattern(&faulted, &traffic, &config);
        assert_eq!(timed.fault_events, 1);
        assert_eq!(timed.in_flight_at_failure, 0);
        assert_eq!(timed.dropped_by_failure, 0);
        assert_eq!(
            timed.restore_slots,
            u64::MAX,
            "slot-0 failure has no baseline"
        );
        timed.fault_events = 0;
        timed.restore_slots = 0;
        timed.post_failure_latency_peak = 0;
        // The timeline run reports the channel count of the kernel it
        // started from (the intact network); the static run reports the
        // surviving subgraph's.
        timed.channels = static_run.channels;
        assert_eq!(timed, static_run);
    }

    #[test]
    fn mid_run_failure_strands_in_flight_messages_and_recovery_restores() {
        // A node failure mid-run strands the messages sitting on or destined
        // to the dead node (counted separately from congestion drops), and
        // after the scheduled recovery the deflection network restores its
        // pre-failure delivery rate.
        let base = prepare(kautz(2, 3), FaultSet::new());
        let schedule: FaultSchedule = "fail(node 2)@200; recover@400".parse().unwrap();
        let timeline = PreparedHotPotato::timeline_from(&base, &base, &schedule).unwrap();
        let traffic = TrafficPattern::Uniform { load: 0.8 };
        let m = run_timeline(&base, &timeline, &traffic, &SimOptions::new(800, 1));
        assert_eq!(m.fault_events, 2);
        assert!(m.in_flight_at_failure > 0, "saturated run has live traffic");
        assert!(m.dropped_by_failure > 0, "the dead node strands messages");
        assert!(m.dropped_by_failure <= m.dropped);
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
        assert_ne!(m.restore_slots, u64::MAX, "deflection routing must recover");
        assert!(m.post_failure_latency_peak > 0);
    }

    #[test]
    fn ttl_guard_drops_runaway_messages() {
        let m = run_pattern(
            &prepare(de_bruijn(2, 2), FaultSet::new()),
            &TrafficPattern::Uniform { load: 1.0 },
            &SimOptions {
                slots: 2000,
                max_hops: 2,
                seed: 3,
                ..Default::default()
            },
        );
        // With such a tight TTL under saturation some messages must be dropped.
        assert!(m.dropped > 0);
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
    }
}
