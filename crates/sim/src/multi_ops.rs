//! Slotted simulation of multi-OPS (stack-graph) networks.
//!
//! The model follows the behavioural facts established by the optics layer:
//!
//! * time is divided into slots;
//! * each OPS coupler carries one message per slot *per wavelength*
//!   (capacity 1 in the paper's single-wavelength model, `W` under a
//!   [`crate::WavelengthConfig`] with `count = W`), each chosen by an
//!   [`crate::ArbitrationPolicy`] among the processors of its tail that have a
//!   message queued for it;
//! * a processor has one transmitter per coupler it feeds and one receiver
//!   per coupler it hears (as in the OTIS designs), so it can take part in
//!   several couplers in the same slot;
//! * messages follow the group-level routes of
//!   [`otis_routing::StackRouter`]; intermediate processors re-queue the
//!   message for its next-hop coupler in the following slot.
//!
//! The simulator is split into *prepare* and *execute* phases:
//!
//! * [`PreparedMultiOps`] is the immutable kernel — the fault-filtered
//!   [`StackRouter`] quotient plus one flat table of coupler sequences per
//!   *group* pair (the primary route, then any Yen alternates), built once
//!   per `(stack-graph, fault-pattern)` pair.  The processors of a group
//!   share its couplers, so a route is fixed by its source and destination
//!   groups, and each hop's receiver follows from the coupler and the
//!   destination ([`otis_routing::hop_receiver`]): the kernel is `O(G²)` in
//!   the group count `G`, not `O(n²)` in the processor count.  A fault
//!   pattern's kernel — a timeline epoch's too — is derived from the
//!   fault-free base with [`PreparedMultiOps::repair_from`], bit-identical
//!   to building it from scratch;
//! * [`PreparedMultiOps::run`] — the kernel's one run entry point — owns
//!   only per-run mutable state (in a caller-owned [`crate::SlotScratch`])
//!   and drives the slot engine shared with the hot-potato kernel: a
//!   message in flight is the record `(dst, injected_at, hops)` behind a
//!   `u32` handle, the per-coupler queues hold handles, and the flight's
//!   position (route id, hop index, holder) sits in parallel arrays
//!   indexed by the same handle.  That is all the loop reads, so nothing
//!   else is kept: not the source, which the route and holder replace,
//!   nor the wavelength a hop took, which only matters as the coupler's
//!   occupancy for the rest of the slot.  No per-slot allocations: routes
//!   are precomputed slices, and the arbitration candidate buffer is
//!   reused across couplers and slots.
//!
//! One loop serves both transmission disciplines, *queued* and
//! *bufferless transmit-or-block*; [`PreparedMultiOps::run`] describes
//! both.

use crate::demand::DemandSource;
use crate::kernel::{assign_wavelength, MessageArena, RunCore, SlotScratch};
use crate::metrics::SimMetrics;
use crate::options::SimOptions;
use crate::schedule::{FaultSchedule, FaultScheduleError, RestoreTracker};
use crate::wavelength::WavelengthAssignment;
use otis_graphs::algorithms::k_shortest_paths_avoiding;
use otis_graphs::{SpectrumMap, StackGraph};
use otis_routing::{hop_receiver, FaultSet, StackHop, StackRouter};
use std::ops::Range;
use std::sync::Arc;

/// Per-flight routing state of the slot loop, parallel arrays indexed by
/// [`MessageArena`] handle (the arena itself holds the message record —
/// destination, injection slot, hops).  A flight's route is *not* carried
/// along: it lives in the kernel's group-level route table, identified by
/// its route id, one of the ids of the flight's group pair.  `next_hop` is
/// the position reached within that route and `holder` the processor
/// currently holding the message.
#[derive(Debug, Default)]
pub(crate) struct FlightState {
    route: Vec<u32>,
    next_hop: Vec<u32>,
    holder: Vec<u32>,
}

impl FlightState {
    /// Initialises the state of a freshly injected flight at `handle`,
    /// growing the arrays if the arena handed out a new slot.
    fn init(&mut self, handle: u32, src: usize, route: usize) {
        let i = handle as usize;
        if i >= self.route.len() {
            let len = i + 1;
            self.route.resize(len, 0);
            self.next_hop.resize(len, 0);
            self.holder.resize(len, 0);
        }
        self.route[i] = route as u32;
        self.next_hop[i] = 0;
        self.holder[i] = src as u32;
    }

    #[inline]
    fn route(&self, handle: u32) -> usize {
        self.route[handle as usize] as usize
    }

    #[inline]
    fn next_hop(&self, handle: u32) -> usize {
        self.next_hop[handle as usize] as usize
    }

    #[inline]
    fn holder(&self, handle: u32) -> usize {
        self.holder[handle as usize] as usize
    }

    /// Re-roots the flight onto another route of the kernel's table, at
    /// that route's first hop; the holder stays where it is.
    #[inline]
    fn reroot(&mut self, handle: u32, route: usize) {
        self.route[handle as usize] = route as u32;
        self.next_hop[handle as usize] = 0;
    }

    /// Advances the flight one hop: new position within its route and new
    /// holding processor.
    #[inline]
    fn advance(&mut self, handle: u32, next_hop: usize, holder: usize) {
        self.next_hop[handle as usize] = next_hop as u32;
        self.holder[handle as usize] = holder as u32;
    }

    /// Empties the arrays for a new run, keeping their allocations; they
    /// regrow as the arena hands out handles, exactly as a fresh state
    /// would.
    fn clear(&mut self) {
        self.route.clear();
        self.next_hop.clear();
        self.holder.clear();
    }
}

/// The multi-OPS half of a [`SlotScratch`]: flight-state
/// arrays, the per-coupler pending queues of this and the next slot, the
/// round-robin arbitration memory and the candidate/overflow buffers.
#[derive(Debug, Default)]
pub(crate) struct OpsScratch {
    /// Route position and holder of every in-flight message.
    pub(crate) flights: FlightState,
    /// Handles awaiting transmission this slot, per coupler.
    pub(crate) pending: Vec<Vec<u32>>,
    /// Handles forwarded to a lower-index coupler for the next slot.
    pub(crate) next_pending: Vec<Vec<u32>>,
    /// Last winning holder per coupler (round-robin arbitration state).
    pub(crate) last_winner: Vec<Option<usize>>,
    /// `(holder, injected_at)` candidates of one arbitration round.
    pub(crate) candidates: Vec<(usize, u64)>,
    /// Drain buffer for kernel swaps and bufferless overflow.
    pub(crate) overflow: Vec<u32>,
}

impl OpsScratch {
    /// Resets the queues to `couplers` empty couplers and clears the
    /// per-run buffers.
    pub(crate) fn begin_run(&mut self, couplers: usize) {
        self.flights.clear();
        crate::kernel::reset_buckets(&mut self.pending, couplers);
        crate::kernel::reset_buckets(&mut self.next_pending, couplers);
        self.last_winner.clear();
        self.last_winner.resize(couplers, None);
        self.candidates.clear();
        self.overflow.clear();
    }
}

/// Every route of one prepared network, keyed by group pair and stored as
/// coupler sequences.  The routes of the pair `(src_group, dst_group)`
/// have the ids `pair_starts[pair] .. pair_starts[pair + 1]` with
/// `pair = src_group · groups + dst_group`: the primary route
/// ([`StackRouter::group_path`]) first, then the Yen alternates best
/// first; the range is empty when the faults cut the pair off.  Route `r`
/// uses the couplers `couplers[route_starts[r] .. route_starts[r + 1]]`.
/// A route between distinct processors always has at least one hop; a
/// processor never routes to itself.  Memory is `O(G² · alt_paths · diameter)` for
/// `G` groups, plus the group of each processor and the target group of
/// each coupler, which spare the slot loop a division per lookup and per
/// receiver.
#[derive(Debug, Clone, PartialEq)]
struct GroupRoutes {
    stacking_factor: usize,
    groups: usize,
    group_of: Vec<u32>,
    coupler_group: Vec<u32>,
    pair_starts: Vec<usize>,
    route_starts: Vec<usize>,
    couplers: Vec<u32>,
}

impl GroupRoutes {
    /// An empty table for the groups of `stack`.
    fn new(stack: &StackGraph) -> Self {
        let stacking_factor = stack.stacking_factor();
        let groups = stack.group_count();
        let mut pair_starts = Vec::with_capacity(groups * groups + 1);
        pair_starts.push(0);
        GroupRoutes {
            stacking_factor,
            groups,
            group_of: (0..stack.node_count())
                .map(|p| (p / stacking_factor) as u32)
                .collect(),
            coupler_group: stack
                .quotient()
                .arcs()
                .iter()
                .map(|arc| arc.target as u32)
                .collect(),
            pair_starts,
            route_starts: vec![0],
            couplers: Vec::new(),
        }
    }

    /// Appends a route to the group pair under construction.
    fn push(&mut self, couplers: &[u32]) {
        self.couplers.extend_from_slice(couplers);
        self.route_starts.push(self.couplers.len());
    }

    /// Closes the group pair under construction.
    fn end_pair(&mut self) {
        self.pair_starts.push(self.route_starts.len() - 1);
    }

    /// The route ids of group pair `pair`, primary first.
    fn of_pair(&self, pair: usize) -> Range<usize> {
        self.pair_starts[pair]..self.pair_starts[pair + 1]
    }

    /// The route ids of the processor pair `(src, dst)`'s group pair.
    #[inline]
    fn between(&self, src: usize, dst: usize) -> Range<usize> {
        let pair = self.group_of[src] as usize * self.groups + self.group_of[dst] as usize;
        self.of_pair(pair)
    }

    /// The processor receiving a hop over `coupler` of a flight to `dst`,
    /// the route's `last` hop or not: [`hop_receiver`] into the coupler's
    /// target group.
    #[inline]
    fn receiver(&self, coupler: usize, dst: usize, last: bool) -> usize {
        let s = self.stacking_factor;
        let dst_index = dst - self.group_of[dst] as usize * s;
        hop_receiver(
            s,
            self.coupler_group[coupler] as usize,
            dst,
            dst_index,
            last,
        )
    }

    /// The primary route id from `src` to `dst`; `None` when the pair is
    /// unreachable (a failed endpoint group or a disconnected quotient) or
    /// `src == dst`, so the flight is never routed.
    #[inline]
    fn primary(&self, src: usize, dst: usize) -> Option<usize> {
        let routes = self.between(src, dst);
        (src != dst && !routes.is_empty()).then_some(routes.start)
    }

    /// The alternate route ids from `src` to `dst`, best first.
    fn alternates(&self, src: usize, dst: usize) -> Range<usize> {
        let routes = self.between(src, dst);
        (routes.start + 1).min(routes.end)..routes.end
    }

    /// The couplers of route `route`.
    #[inline]
    fn couplers(&self, route: usize) -> &[u32] {
        &self.couplers[self.route_starts[route]..self.route_starts[route + 1]]
    }
}

/// A coupler sequence in the route table's width.
fn narrow(couplers: Vec<usize>) -> Vec<u32> {
    couplers.into_iter().map(|c| c as u32).collect()
}

/// The immutable, shareable kernel of the multi-OPS simulator: the
/// fault-filtered [`StackRouter`] (quotient routing table) plus one
/// group-level table of coupler sequences — for every pair of groups the
/// primary route and, when prepared with
/// [`PreparedMultiOps::with_alternates`], the Yen alternates.  Receivers are
/// derived in the slot loop from each coupler's target group and the
/// destination, so the kernel holds nothing per processor pair.  Building
/// one is the expensive part of a simulation; [`PreparedMultiOps::run`] is
/// the cheap part and can be called any number of times with different
/// seeds, traffic patterns and slot counts.
///
/// The kernel is `Send + Sync`, so a scenario engine can build it once per
/// distinct `(stack-graph, fault-pattern)` pair and share it across worker
/// threads.
#[derive(Debug, Clone)]
pub struct PreparedMultiOps {
    router: StackRouter,
    routes: GroupRoutes,
    /// Per group pair, the loopless quotient paths Yen returned when this
    /// kernel enumerated them (`None` for pairs it copied or never needed);
    /// empty without alternates.  Kept on the fault-free base so delta
    /// repair can reuse a pair's alternates — see
    /// [`PreparedMultiOps::repair_from`].  Invisible to run behaviour.
    yen_paths: Vec<Option<Vec<Vec<usize>>>>,
}

impl PreparedMultiOps {
    /// The largest quotient the scenario engine prepares multi-OPS kernels
    /// for: 8,191 groups.
    ///
    /// The byte budget is that of the largest deflection kernel, a
    /// `DistanceTable` of `MAX_NODES = 65,535` processors at one byte per
    /// pair (65,535² B ≈ 4.0 GiB).  A multi-OPS kernel spends at least 64 B
    /// per group pair: 12 B in the router's quotient table (8 B next hop,
    /// 4 B distance), 8 B for the pair's first route id, 8 B for the
    /// primary's first coupler index, and 4 B per coupler for up to 9 hops.
    /// The budget therefore covers `65,535 / √64 = 8,191` groups;
    /// alternates only add to the per-pair cost.
    pub const MAX_GROUPS: usize =
        otis_routing::DistanceTable::MAX_NODES / (12 + 8 + 8 + 9 * 4usize).isqrt();

    /// Prepares a kernel over a shared stack-graph, routing around the given
    /// faults.  The fault set is interpreted over the quotient (see
    /// [`StackRouter::with_faults`]): failed groups neither send nor
    /// receive, blocked couplers carry nothing, and injections the surviving
    /// quotient cannot route are refused at run time (not counted as
    /// injected).
    pub fn new(stack: Arc<StackGraph>, faults: FaultSet) -> Self {
        Self::with_alternates(stack, faults, 1)
    }

    /// Like [`PreparedMultiOps::new`], but additionally precomputes up to
    /// `alt_paths - 1` alternate routes per pair of groups (Yen's
    /// k-shortest loopless paths on the fault-filtered quotient), for use by
    /// the wavelength-mode slot loop.  `alt_paths <= 1` prepares no
    /// alternates and is exactly [`PreparedMultiOps::new`].
    pub fn with_alternates(stack: Arc<StackGraph>, faults: FaultSet, alt_paths: usize) -> Self {
        Self::build(StackRouter::from_shared(stack, faults), None, alt_paths)
    }

    /// Derives the kernel for `faults` from a fault-free base kernel — the
    /// one way a faulted or timeline-epoch kernel is derived.  The quotient
    /// router and every primary route are rebuilt from scratch: both are
    /// group-level, so this is cheap.  When `alt_paths > 1`, a group pair's
    /// alternates are copied from `base` when both hold:
    ///
    /// * *its Yen enumeration is provably undisturbed* — every loopless
    ///   quotient path the fault-free Yen run accepted for the pair stays
    ///   clear of the faults.  The faulted enumeration sees the same graph
    ///   along every path it would accept (removing arcs can only delay BFS
    ///   arrivals, never create earlier ones, so a fault-free spur result is
    ///   stable), hence returns the same list;
    /// * *its primary route is unchanged* — excluding the primary from the
    ///   Yen list then drops the same entry.
    ///
    /// Every other pair reruns Yen.  The result is bit-identical to
    /// [`PreparedMultiOps::with_alternates`] over the base stack-graph and
    /// the same faults, so runs from a repaired kernel match runs from a
    /// fresh one exactly.  `alt_paths` must equal the value the base was
    /// prepared with.
    ///
    /// # Panics
    ///
    /// Panics if `base` was prepared with a non-empty fault set.
    pub fn repair_from(base: &PreparedMultiOps, faults: &FaultSet, alt_paths: usize) -> Self {
        assert!(
            base.router.faults().is_empty(),
            "repair_from requires a fault-free base kernel"
        );
        if faults.is_empty() {
            return base.clone();
        }
        let router =
            StackRouter::from_shared(Arc::clone(base.router.shared_stack()), faults.clone());
        Self::build(router, Some(base), alt_paths)
    }

    /// Builds the group-level route table over `router`, copying from
    /// `base` the alternates its faults leave valid (see
    /// [`PreparedMultiOps::repair_from`]).
    fn build(router: StackRouter, base: Option<&PreparedMultiOps>, alt_paths: usize) -> Self {
        let stack = router.stack_graph();
        let quotient = stack.quotient();
        let groups = quotient.node_count();
        let faults = router.faults();
        // Reuse needs the base's Yen enumerations, which exist only when
        // it was prepared with alternates.
        let base = base.filter(|base| !base.yen_paths.is_empty());
        let mut routes = GroupRoutes::new(stack);
        let mut yen_paths = vec![None; if alt_paths > 1 { groups * groups } else { 0 }];
        for src_group in 0..groups {
            for dst_group in 0..groups {
                let pair = src_group * groups + dst_group;
                let primary = router
                    .group_path(src_group, dst_group)
                    .and_then(|path| router.couplers_via_groups(&path));
                let Some(primary) = primary.map(narrow) else {
                    routes.end_pair();
                    continue;
                };
                routes.push(&primary);
                if alt_paths > 1 {
                    let reusable = base.filter(|base| {
                        let base_primary = base.routes.of_pair(pair).next();
                        base_primary.is_some_and(|r| base.routes.couplers(r) == primary)
                            && base.yen_paths[pair].as_ref().is_some_and(|paths| {
                                paths
                                    .iter()
                                    .all(|p| p.windows(2).all(|w| !faults.blocks(w[0], w[1])))
                            })
                    });
                    if let Some(base) = reusable {
                        for route in base.routes.of_pair(pair).skip(1) {
                            routes.push(base.routes.couplers(route));
                        }
                    } else {
                        let paths = k_shortest_paths_avoiding(
                            quotient,
                            src_group,
                            dst_group,
                            alt_paths,
                            |u, v| faults.blocks(u, v),
                        );
                        let alternates = paths
                            .iter()
                            .filter(|path| path.len() >= 2)
                            .filter_map(|path| router.couplers_via_groups(path))
                            .map(narrow)
                            .filter(|couplers| *couplers != primary)
                            .take(alt_paths - 1);
                        for couplers in alternates {
                            routes.push(&couplers);
                        }
                        yen_paths[pair] = Some(paths);
                    }
                }
                routes.end_pair();
            }
        }
        PreparedMultiOps {
            router,
            routes,
            yen_paths,
        }
    }

    /// Builds the epoch timeline a [`FaultSchedule`] prescribes for runs of
    /// the `initial` kernel: one `(slot, kernel)` pair per distinct event
    /// slot (fault targets are quotient groups and couplers, the multi-OPS
    /// fault domain), each kernel derived from the fault-free `base` for
    /// that epoch's fault set ([`PreparedMultiOps::repair_from`]) —
    /// recovery epochs included — and bit-identical to preparing it from
    /// scratch.  The result feeds [`PreparedMultiOps::run`].  `alt_paths`
    /// must equal the value `base` and `initial` were prepared with.
    ///
    /// Fails with a typed [`FaultScheduleError`] when an event targets a
    /// group outside the quotient or a scheduled failure duplicates one of
    /// `initial`'s static faults.
    ///
    /// # Panics
    ///
    /// Panics if `base` was prepared with a non-empty fault set.
    pub fn timeline_from(
        base: &PreparedMultiOps,
        initial: &PreparedMultiOps,
        schedule: &FaultSchedule,
        alt_paths: usize,
    ) -> Result<Vec<(u64, PreparedMultiOps)>, FaultScheduleError> {
        let groups = base.router.stack_graph().quotient().node_count();
        let epochs = schedule.bind(groups, initial.router.faults())?;
        Ok(epochs
            .into_iter()
            .map(|(slot, faults)| {
                (
                    slot,
                    PreparedMultiOps::repair_from(base, &faults, alt_paths),
                )
            })
            .collect())
    }

    /// Number of processors simulated.
    pub fn processor_count(&self) -> usize {
        self.router.stack_graph().node_count()
    }

    /// Number of couplers simulated.
    pub fn coupler_count(&self) -> usize {
        self.router.stack_graph().hyperarc_count()
    }

    /// The fault-avoiding router underneath (exposes the stack-graph and
    /// the faults fixed at prepare time).
    pub fn router(&self) -> &StackRouter {
        &self.router
    }

    /// Structural equality of the routing state — the group-level route
    /// table, primaries and alternates — used by the delta-repair acceptance
    /// tests to prove a repaired kernel bit-identical to a from-scratch
    /// build.  Hidden from docs: not part of the simulation surface.
    #[doc(hidden)]
    pub fn routing_state_eq(&self, other: &PreparedMultiOps) -> bool {
        self.router.faults() == other.router.faults() && self.routes == other.routes
    }

    /// The hops a flight from `src` to `dst` follows on its `alt`-th route
    /// (0 = primary, then the alternates best first), with each receiver
    /// derived as the slot loop derives it.  `None` when the kernel never
    /// routes that flight: `src == dst`, a failed endpoint group, a
    /// disconnected pair, or fewer than `alt` alternates.  Hidden from docs:
    /// the oracle tests' view of the route table.
    #[doc(hidden)]
    pub fn route_hops(&self, src: usize, dst: usize, alt: usize) -> Option<Vec<StackHop>> {
        let route = match alt {
            0 => self.routes.primary(src, dst)?,
            _ => self.routes.alternates(src, dst).nth(alt - 1)?,
        };
        let couplers = self.routes.couplers(route);
        Some(
            couplers
                .iter()
                .enumerate()
                .map(|(i, &coupler)| StackHop {
                    coupler: coupler as usize,
                    receiver: self
                        .routes
                        .receiver(coupler as usize, dst, i + 1 == couplers.len()),
                })
                .collect(),
        )
    }

    /// Whether alternate routes were prepared (via
    /// [`PreparedMultiOps::with_alternates`] with `alt_paths > 1` and at
    /// least one group pair having a second loopless quotient path).  When
    /// true, [`PreparedMultiOps::run`] always uses the wavelength-mode loop,
    /// even at capacity 1.
    pub(crate) fn has_alternates(&self) -> bool {
        self.routes.pair_starts.windows(2).any(|w| w[1] - w[0] > 1)
    }

    /// Executes one run — the kernel's single run entry point.
    ///
    /// * `options` carries the run-scoped knobs: `slots`, `seed`, `policy`
    ///   (per-coupler arbitration), `queue_limit` and `wavelengths`.
    ///   `faults` and `alt_paths` are fixed at prepare time and ignored
    ///   here, so one kernel serves every cell that shares its fault
    ///   pattern.
    /// * `demand` drives the injections.  Wrap a stationary pattern with
    ///   [`DemandSource::from_pattern`]; demand processes (Poisson, on/off,
    ///   trace replay) come from [`crate::DemandSpec::source`].  The source
    ///   is mutable because demand processes carry mid-run state, so build
    ///   a fresh one per run.
    /// * `timeline` is a chronological list of `(slot, kernel)` epochs (see
    ///   [`PreparedMultiOps::timeline_from`]); at the start of each epoch's
    ///   slot, before injections, the active kernel is swapped.  Every
    ///   in-flight message is re-resolved against the new routing tables —
    ///   its route restarts from the processor currently holding it; a
    ///   message held by or destined to a failed group, or left
    ///   unreachable, is dropped and counted in `dropped_by_failure` (as
    ///   well as `dropped`).  The restoration metrics (`fault_events`,
    ///   `in_flight_at_failure`, `restore_slots`,
    ///   `post_failure_latency_peak`) are anchored to the first swap that
    ///   introduces new failures.  An empty timeline never touches the swap
    ///   machinery.
    /// * `scratch` holds every piece of per-run mutable state — the message
    ///   records, the flight-state arrays, the coupler queues and the
    ///   arbitration candidate buffer.  It is reset on entry (cleared
    ///   lengths, kept allocations), so a reused pool is indistinguishable
    ///   from a fresh one and consecutive runs reallocate nothing; no
    ///   per-slot allocations either.
    ///
    /// One struct-of-arrays slot loop serves both transmission
    /// disciplines, fixed for the whole run.
    ///
    /// *Queued* (capacity 1, no alternates): per-coupler queues, one grant
    /// per coupler per slot, back-pressure via `queue_limit`, wavelength
    /// layer off.  `queue_limit` is ignored in the other discipline, which
    /// has no queues to limit.
    ///
    /// *Bufferless transmit-or-block* (`W > 1`, or alternates prepared on
    /// any kernel of the run, initial or scheduled): couplers are processed
    /// in index order and grant up to `W` transmissions each (winners
    /// chosen one at a time by the arbitration policy, wavelengths by the
    /// assignment discipline — occupancy lives in a reused
    /// [`SpectrumMap`], cleared per slot, never reallocated).  A message
    /// that finds its coupler exhausted falls back to the prepared
    /// alternate routes out of its current holder, taking the first whose
    /// leading coupler still has a free wavelength — an alternate grant
    /// bypasses that coupler's arbitration round, consuming spare capacity
    /// directly.  If no alternate can carry it, the message is counted
    /// blocked and dropped.  A forward whose next coupler has a higher index
    /// transmits again within the same slot; otherwise it waits for the next
    /// slot (in queued mode a lower-index forward simply sits in its queue
    /// until the next slot comes around).
    ///
    /// The slot body is phase-batched (see the *hot path anatomy* section
    /// of the crate docs): the **inject** phase admits this slot's arrivals
    /// in processor order — one pass over the demand decisions and the
    /// route table's first hops; the **arbitrate/advance/deliver** phase
    /// then walks the couplers in index order, each round one pass over the
    /// pending queue's `holder`/`injected_at` columns; the bufferless
    /// **overflow** sub-phase re-roots losers onto alternates or drops them
    /// blocked.  Arbitration winners and re-rooted losers go through the
    /// same transmit step, which grants the coupler, advances the flight a
    /// hop and delivers or forwards it.
    pub fn run(
        &self,
        timeline: &[(u64, PreparedMultiOps)],
        demand: &mut DemandSource,
        options: &SimOptions,
        scratch: &mut SlotScratch,
    ) -> SimMetrics {
        let n = self.processor_count();
        let couplers = self.coupler_count();
        let bufferless = options.wavelengths.is_multiplexed()
            || self.has_alternates()
            || timeline.iter().any(|(_, k)| k.has_alternates());
        scratch.begin_run(options.seed, n, couplers);
        scratch.ops.begin_run(couplers);
        let SlotScratch {
            core,
            arena,
            injections,
            ops,
            ..
        } = scratch;
        let assignment = options.wavelengths.assignment;
        let mut spectrum = if bufferless {
            let w = options.wavelengths.count.max(1);
            core.metrics.wavelengths = w;
            Some(SpectrumMap::new(couplers, w))
        } else {
            None
        };
        let mut active = self;
        let mut next_epoch = 0usize;
        let mut tracker = RestoreTracker::default();

        for slot in 0..options.slots {
            core.begin_slot(slot);
            // Kernel swaps scheduled for this slot apply before injections:
            // drain every pending queue (coupler-ascending, preserving order)
            // and re-resolve each flight against the new routing tables from
            // the processor currently holding it; flights the new fault set
            // cuts off are stranded.
            while timeline.get(next_epoch).is_some_and(|(at, _)| *at <= slot) {
                let kernel = &timeline[next_epoch].1;
                next_epoch += 1;
                let live: u64 = ops.pending.iter().map(|q| q.len() as u64).sum();
                let introduces = !kernel.router.faults().is_subset_of(active.router.faults());
                tracker.on_swap(introduces, slot, live, &mut core.metrics);
                for queue in ops.pending.iter_mut() {
                    ops.overflow.append(queue);
                }
                for handle in ops.overflow.drain(..) {
                    match kernel
                        .routes
                        .primary(ops.flights.holder(handle), arena.dst(handle))
                    {
                        Some(route) => {
                            ops.flights.reroot(handle, route);
                            ops.pending[kernel.routes.couplers(route)[0] as usize].push(handle);
                        }
                        None => {
                            core.metrics.dropped_by_failure += 1;
                            core.metrics.dropped += 1;
                            arena.release(handle);
                        }
                    }
                }
                active = kernel;
            }
            if let Some(spectrum) = spectrum.as_mut() {
                spectrum.clear();
            }

            // 1. Injection.
            demand.injections_into(n, &mut core.rng, injections);
            for (src, dst) in injections.iter().enumerate() {
                let Some(dst) = *dst else { continue };
                let Some(route) = active.routes.primary(src, dst) else {
                    continue;
                };
                let first_coupler = active.routes.couplers(route)[0] as usize;
                if !bufferless
                    && options.queue_limit > 0
                    && ops.pending[first_coupler].len() >= options.queue_limit
                {
                    // Back-pressure: the injection is refused, not counted.
                    // (Bufferless mode has no queues, hence no back-pressure:
                    // every message the routes can carry enters the slot's
                    // contention.)
                    continue;
                }
                core.metrics.injected += 1;
                let handle = arena.insert(dst, slot);
                ops.flights.init(handle, src, route);
                ops.pending[first_coupler].push(handle);
            }

            // 2. Per-coupler arbitration and transmission: one grant per
            // coupler in queued mode, up to `W` in bufferless mode.
            for coupler in 0..couplers {
                loop {
                    if ops.pending[coupler].is_empty() {
                        break;
                    }
                    if let Some(spectrum) = &spectrum {
                        if spectrum.is_full(coupler) {
                            break;
                        }
                    }
                    ops.candidates.clear();
                    ops.candidates.extend(
                        ops.pending[coupler]
                            .iter()
                            .map(|&h| (ops.flights.holder(h), arena.injected_at(h))),
                    );
                    let Some(winner_idx) = options.policy.pick(
                        &ops.candidates,
                        ops.last_winner[coupler],
                        &mut core.rng,
                    ) else {
                        break;
                    };
                    let handle = ops.pending[coupler].remove(winner_idx);
                    ops.transmit(
                        handle,
                        coupler,
                        slot,
                        &active.routes,
                        arena,
                        core,
                        &mut tracker,
                        &mut spectrum,
                        assignment,
                    );
                    if !bufferless {
                        break;
                    }
                }

                // 3. Overflow, bufferless mode only: the coupler is exhausted
                // (or arbitration yielded nothing); the stranded messages
                // must re-route or block — bufferless networks cannot hold
                // them.  (Queued mode leaves losers in their queue for the
                // next slot.)
                if !bufferless || ops.pending[coupler].is_empty() {
                    continue;
                }
                let mut stranded = std::mem::take(&mut ops.overflow);
                stranded.append(&mut ops.pending[coupler]);
                for handle in stranded.drain(..) {
                    let free = spectrum.as_ref().expect("bufferless mode has a spectrum");
                    let holder = ops.flights.holder(handle);
                    let alternate = active
                        .routes
                        .alternates(holder, arena.dst(handle))
                        .find(|&route| !free.is_full(active.routes.couplers(route)[0] as usize));
                    match alternate {
                        Some(route) => {
                            // Re-root the flight onto the alternate and
                            // transmit its first hop immediately.
                            core.metrics.alt_routed += 1;
                            ops.flights.reroot(handle, route);
                            ops.transmit(
                                handle,
                                coupler,
                                slot,
                                &active.routes,
                                arena,
                                core,
                                &mut tracker,
                                &mut spectrum,
                                assignment,
                            );
                        }
                        None => {
                            core.metrics.blocked += 1;
                            core.metrics.dropped += 1;
                            arena.release(handle);
                        }
                    }
                }
                ops.overflow = stranded;
            }
            if bufferless {
                debug_assert!(ops.pending.iter().all(|p| p.is_empty()));
                std::mem::swap(&mut ops.pending, &mut ops.next_pending);
            }
            tracker.end_slot(slot, &mut core.metrics);
        }

        // Messages granted in the final slot but still short of their
        // destination — and, in queued mode, everything still queued — are
        // in flight.
        let in_flight = ops.pending.iter().map(|q| q.len() as u64).sum::<u64>()
            + ops.next_pending.iter().map(|q| q.len() as u64).sum::<u64>();
        core.finish(in_flight)
    }
}

impl OpsScratch {
    /// Transmits the flight at `handle` over the coupler at its route
    /// position — the one place a multi-OPS hop is granted, for an
    /// arbitration winner and an alternate-route grant alike.  The grant
    /// sets the coupler's round-robin memory to the holder, takes a
    /// wavelength in bufferless mode and counts as used capacity; the
    /// message then takes the hop to its receiver.  On the last hop it is
    /// delivered at the end of `slot`.  Otherwise it waits for its next
    /// coupler: within this slot's pass if that coupler comes after `at`,
    /// the coupler the arbitration loop is on, or in queued mode, where a
    /// lower-index coupler is simply reached in the next slot; else in the
    /// next slot's bufferless pass.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn transmit(
        &mut self,
        handle: u32,
        at: usize,
        slot: u64,
        routes: &GroupRoutes,
        arena: &mut MessageArena,
        core: &mut RunCore,
        tracker: &mut RestoreTracker,
        spectrum: &mut Option<SpectrumMap>,
        assignment: WavelengthAssignment,
    ) {
        let route = routes.couplers(self.flights.route(handle));
        let hop = self.flights.next_hop(handle);
        let coupler = route[hop] as usize;
        self.last_winner[coupler] = Some(self.flights.holder(handle));
        if let Some(spectrum) = spectrum.as_mut() {
            assign_wavelength(spectrum, coupler, assignment, &mut core.rng);
        }
        core.metrics.grants += 1;
        arena.add_hop(handle);
        let next = route.get(hop + 1).map(|&c| c as usize);
        let receiver = routes.receiver(coupler, arena.dst(handle), next.is_none());
        self.flights.advance(handle, hop + 1, receiver);
        match next {
            None => {
                let latency = slot + 1 - arena.injected_at(handle);
                core.metrics.record_delivery(latency, arena.hops(handle));
                tracker.observe_delivery(latency, &mut core.metrics);
                arena.release(handle);
            }
            Some(next) if spectrum.is_none() || next > at => self.pending[next].push(handle),
            Some(next) => self.next_pending[next].push(handle),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitration::ArbitrationPolicy;
    use crate::traffic::TrafficPattern;
    use crate::wavelength::{WavelengthAssignment, WavelengthConfig};
    use otis_topologies::{Pops, StackKautz};

    fn prepare(stack: &StackGraph, faults: FaultSet) -> PreparedMultiOps {
        PreparedMultiOps::new(Arc::new(stack.clone()), faults)
    }

    /// One timeline-free run under a stationary pattern, fresh scratch.
    fn run_pattern(
        kernel: &PreparedMultiOps,
        traffic: &TrafficPattern,
        options: &SimOptions,
    ) -> SimMetrics {
        run_timeline(kernel, &[], traffic, options)
    }

    fn run_timeline(
        kernel: &PreparedMultiOps,
        timeline: &[(u64, PreparedMultiOps)],
        traffic: &TrafficPattern,
        options: &SimOptions,
    ) -> SimMetrics {
        let mut demand = DemandSource::from_pattern(traffic.clone());
        kernel.run(timeline, &mut demand, options, &mut SlotScratch::new())
    }

    fn pops_sim(load: f64, slots: u64) -> SimMetrics {
        run_pattern(
            &prepare(Pops::new(4, 2).stack_graph(), FaultSet::new()),
            &TrafficPattern::Uniform { load },
            &SimOptions::new(slots, 1),
        )
    }

    #[test]
    fn conservation_of_messages() {
        let m = pops_sim(0.5, 500);
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
        assert!(m.injected > 0);
    }

    #[test]
    fn pops_light_load_latency_is_one_slot() {
        // At very light load there is no contention; every message is
        // delivered in the slot it was injected (single-hop network).
        let m = pops_sim(0.01, 4000);
        assert!(m.delivered > 0);
        assert!(
            (m.average_latency() - 1.0).abs() < 0.2,
            "latency {}",
            m.average_latency()
        );
        assert!((m.average_hops() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stack_kautz_hops_within_diameter() {
        let sk = StackKautz::new(3, 2, 2);
        let m = run_pattern(
            &prepare(sk.stack_graph(), FaultSet::new()),
            &TrafficPattern::Uniform { load: 0.05 },
            &SimOptions::new(2000, 1),
        );
        assert!(m.delivered > 0);
        assert!(m.average_hops() <= 2.0 + 1e-9);
        assert!(m.average_hops() >= 1.0);
    }

    #[test]
    fn throughput_saturates_at_coupler_capacity() {
        // POPS(4,2): 4 couplers, 8 processors; at most 4 messages can be
        // delivered per slot, i.e. 0.5 per processor per slot.
        let m = pops_sim(1.0, 1000);
        assert!(m.throughput() <= 0.5 + 1e-9);
        assert!(
            m.throughput() > 0.3,
            "saturated throughput {}",
            m.throughput()
        );
        assert!(m.channel_utilization() > 0.8);
    }

    #[test]
    fn higher_load_increases_latency() {
        let light = pops_sim(0.05, 2000);
        let heavy = pops_sim(0.9, 2000);
        assert!(heavy.average_latency() > light.average_latency());
    }

    #[test]
    fn queue_limit_applies_back_pressure() {
        let kernel = prepare(Pops::new(4, 2).stack_graph(), FaultSet::new());
        let run = |queue_limit| {
            run_pattern(
                &kernel,
                &TrafficPattern::Uniform { load: 1.0 },
                &SimOptions {
                    slots: 500,
                    queue_limit,
                    ..Default::default()
                },
            )
        };
        let unlimited = run(0);
        let limited = run(2);
        assert!(limited.injected < unlimited.injected);
        assert!(limited.in_flight <= unlimited.in_flight);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = pops_sim(0.3, 300);
        let b = pops_sim(0.3, 300);
        assert_eq!(a, b);
    }

    #[test]
    fn faulty_group_traffic_is_refused_and_bound_holds() {
        // SK(2,2,2): quotient KG(2,2), d = 2 — one failed group is within
        // the §2.5 survivability claim; delivered routes stay <= k + 2 = 4.
        let sk = StackKautz::new(2, 2, 2);
        let config = SimOptions::new(600, 1);
        let traffic = TrafficPattern::Uniform { load: 0.4 };
        let intact = run_pattern(
            &prepare(sk.stack_graph(), FaultSet::new()),
            &traffic,
            &config,
        );
        let faulty = run_pattern(
            &prepare(sk.stack_graph(), FaultSet::from_nodes([2])),
            &traffic,
            &config,
        );
        assert!(faulty.delivered > 0);
        assert_eq!(
            faulty.injected,
            faulty.delivered + faulty.in_flight + faulty.dropped
        );
        assert!(faulty.injected < intact.injected);
        assert!(faulty.max_hops <= 4, "max hops {}", faulty.max_hops);
    }

    #[test]
    fn prepared_kernel_reuse_matches_fresh_construction() {
        // The prepare/execute contract, multi-OPS side: one kernel driven
        // with many (seed, traffic, slots) combinations through one reused
        // scratch pool matches rebuilding the kernel (router + quotient
        // table + group route table) per run.
        let sk = StackKautz::new(2, 2, 2);
        let mut scratch = SlotScratch::new();
        for faults in [FaultSet::new(), FaultSet::from_nodes([2])] {
            let kernel = prepare(sk.stack_graph(), faults.clone());
            for (seed, load, slots) in [(1u64, 0.4, 400u64), (7, 0.9, 250), (31, 0.1, 600)] {
                let config = SimOptions::new(slots, seed);
                let traffic = TrafficPattern::Uniform { load };
                let mut demand = DemandSource::from_pattern(traffic.clone());
                let reused = kernel.run(&[], &mut demand, &config, &mut scratch);
                let fresh = run_pattern(
                    &prepare(sk.stack_graph(), faults.clone()),
                    &traffic,
                    &config,
                );
                assert_eq!(reused, fresh, "seed {seed} load {load}");
            }
        }
    }

    #[test]
    fn wavelength_mode_conserves_and_reports_the_layer() {
        let sk = StackKautz::new(2, 2, 2);
        let kernel = PreparedMultiOps::with_alternates(
            Arc::new(sk.stack_graph().clone()),
            FaultSet::new(),
            3,
        );
        assert!(
            kernel.has_alternates(),
            "SK(2,2,2) has alternate quotient paths"
        );
        let m = run_pattern(
            &kernel,
            &TrafficPattern::Uniform { load: 0.9 },
            &SimOptions {
                slots: 500,
                wavelengths: WavelengthConfig::with_count(2),
                ..Default::default()
            },
        );
        assert_eq!(m.wavelengths, 2);
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
        assert!(m.delivered > 0);
        assert!(
            m.blocked <= m.dropped,
            "blocked messages are dropped messages"
        );
        assert!(!m.blocking_ratio().is_nan());
        assert!(
            m.alt_routed > 0,
            "contention must push traffic onto alternates"
        );
    }

    #[test]
    fn more_wavelengths_reduce_blocking() {
        let kernel = prepare(Pops::new(3, 4).stack_graph(), FaultSet::new());
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
        assert!(narrow.blocked > 0, "saturated POPS at W=2 must block");
        assert!(
            wide.blocking_ratio() <= narrow.blocking_ratio(),
            "W=8 blocking {} vs W=2 blocking {}",
            wide.blocking_ratio(),
            narrow.blocking_ratio()
        );
    }

    #[test]
    fn alternates_only_mode_runs_bufferless_at_capacity_one() {
        // alt_paths > 1 with W = 1: the wavelength loop engages (alternate
        // routing needs transmit-or-block semantics) and reports capacity 1.
        let sk = StackKautz::new(2, 2, 2);
        let kernel = PreparedMultiOps::with_alternates(
            Arc::new(sk.stack_graph().clone()),
            FaultSet::new(),
            2,
        );
        let m = run_pattern(
            &kernel,
            &TrafficPattern::Uniform { load: 0.8 },
            &SimOptions::new(400, 1),
        );
        assert_eq!(m.wavelengths, 1);
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
        assert!(m.alt_routed > 0);
    }

    #[test]
    fn capacity_one_kernel_keeps_the_wavelength_layer_off() {
        // Without alternates and at W = 1 the queued discipline runs:
        // metrics carry the layer-off sentinel and match the default config.
        let m = pops_sim(0.5, 500);
        assert_eq!(m.wavelengths, 0, "layer off ⇒ sentinel 0");
        assert_eq!(m.blocked, 0);
        assert!(m.blocking_ratio().is_nan());
    }

    #[test]
    fn random_assignment_draws_but_conserves() {
        let kernel = prepare(Pops::new(3, 3).stack_graph(), FaultSet::new());
        for assignment in [WavelengthAssignment::FirstFit, WavelengthAssignment::Random] {
            let m = run_pattern(
                &kernel,
                &TrafficPattern::Uniform { load: 0.9 },
                &SimOptions {
                    slots: 300,
                    wavelengths: WavelengthConfig {
                        count: 4,
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
    fn repaired_kernels_run_identically_to_fresh_ones() {
        // Delta-repairing a fault pattern's kernel from the fault-free base
        // must be indistinguishable from preparing it from scratch, with and
        // without alternates, in both transmission disciplines.
        let sk = StackKautz::new(2, 2, 2);
        let stack = Arc::new(sk.stack_graph().clone());
        let groups = stack.quotient().node_count();
        let traffic = TrafficPattern::Uniform { load: 0.6 };
        let configs = [
            SimOptions::new(300, 1),
            SimOptions {
                slots: 300,
                wavelengths: WavelengthConfig::with_count(2),
                ..Default::default()
            },
        ];
        for alt_paths in [1, 3] {
            let base =
                PreparedMultiOps::with_alternates(Arc::clone(&stack), FaultSet::new(), alt_paths);
            for group in 0..groups {
                let faults = FaultSet::from_nodes([group]);
                let repaired = PreparedMultiOps::repair_from(&base, &faults, alt_paths);
                let fresh =
                    PreparedMultiOps::with_alternates(Arc::clone(&stack), faults, alt_paths);
                for config in &configs {
                    assert_eq!(
                        run_pattern(&repaired, &traffic, config),
                        run_pattern(&fresh, &traffic, config),
                        "group {group} alt_paths {alt_paths}"
                    );
                }
            }
            // Empty fault set: the repair is the base itself.
            let same = PreparedMultiOps::repair_from(&base, &FaultSet::new(), alt_paths);
            assert_eq!(
                run_pattern(&same, &traffic, &configs[0]),
                run_pattern(&base, &traffic, &configs[0])
            );
        }
    }
    #[test]
    fn repaired_alternates_are_bit_identical_to_from_scratch_yen() {
        // The contract of the repair-aware alternates: for every fault
        // pattern within the d−1 tolerance bound — every single group
        // fault plus every single blocked coupler — the repaired group
        // route table (and the whole routing state) must equal a
        // from-scratch `with_alternates` build, entry for entry.
        use otis_routing::node_fault_patterns_up_to;
        for (d, s, k) in [(2, 2, 2), (2, 2, 3)] {
            let sk = StackKautz::new(d, s, k);
            let stack = Arc::new(sk.stack_graph().clone());
            let quotient = stack.quotient();
            let groups = quotient.node_count();
            let mut patterns: Vec<FaultSet> =
                node_fault_patterns_up_to(groups, 1).into_iter().collect();
            for g in 0..groups {
                for &arc in quotient.out_arc_ids(g) {
                    let target = quotient.arc(arc).unwrap().target;
                    let mut faults = FaultSet::new();
                    faults.fail_arc(g, target);
                    patterns.push(faults);
                }
            }
            for alt_paths in [2usize, 3] {
                let base = PreparedMultiOps::with_alternates(
                    Arc::clone(&stack),
                    FaultSet::new(),
                    alt_paths,
                );
                for faults in &patterns {
                    let repaired = PreparedMultiOps::repair_from(&base, faults, alt_paths);
                    let fresh = PreparedMultiOps::with_alternates(
                        Arc::clone(&stack),
                        faults.clone(),
                        alt_paths,
                    );
                    assert_eq!(
                        repaired.routes, fresh.routes,
                        "SK({d},{s},{k}) alt_paths {alt_paths} faults {:?}",
                        faults
                    );
                    assert!(
                        repaired.routing_state_eq(&fresh),
                        "SK({d},{s},{k}) alt_paths {alt_paths} faults {:?}",
                        faults
                    );
                }
            }
        }
    }

    #[test]
    fn epochs_past_the_run_leave_it_untouched() {
        // The swap machinery must be inert until an epoch is reached: a
        // timeline whose only epoch lies past the last slot gives the
        // timeline-free run (identical metrics, hence identical RNG draw
        // order) in both disciplines.
        let sk = StackKautz::new(2, 2, 2);
        let kernel = prepare(sk.stack_graph(), FaultSet::new());
        let late = vec![(400u64, prepare(sk.stack_graph(), FaultSet::from_nodes([1])))];
        let traffic = TrafficPattern::Uniform { load: 0.5 };
        for config in [
            SimOptions::new(400, 1),
            SimOptions {
                slots: 400,
                wavelengths: WavelengthConfig::with_count(2),
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
        // prepared from scratch, in both disciplines: a timeline built by
        // `timeline_from` (a repair from the base for every epoch) and one
        // rebuilt with fresh `with_alternates`
        // kernels produce the same run, metric for metric.
        let sk = StackKautz::new(2, 2, 2);
        let stack = Arc::new(sk.stack_graph().clone());
        let schedule: FaultSchedule = "fail(node 1)@40; recover@160".parse().unwrap();
        let traffic = TrafficPattern::Uniform { load: 0.7 };
        for alt_paths in [1, 2] {
            let base =
                PreparedMultiOps::with_alternates(Arc::clone(&stack), FaultSet::new(), alt_paths);
            let timeline =
                PreparedMultiOps::timeline_from(&base, &base, &schedule, alt_paths).unwrap();
            assert_eq!(timeline.len(), 2);
            let fresh: Vec<(u64, PreparedMultiOps)> = timeline
                .iter()
                .map(|(slot, k)| {
                    (
                        *slot,
                        PreparedMultiOps::with_alternates(
                            Arc::clone(&stack),
                            k.router.faults().clone(),
                            alt_paths,
                        ),
                    )
                })
                .collect();
            let config = SimOptions::new(320, 1);
            let repaired = run_timeline(&base, &timeline, &traffic, &config);
            let scratch = run_timeline(&base, &fresh, &traffic, &config);
            assert_eq!(repaired, scratch, "alt_paths {alt_paths}");
            assert_eq!(repaired.fault_events, 2);
            assert_eq!(
                repaired.injected,
                repaired.delivered + repaired.in_flight + repaired.dropped
            );
            assert!(repaired.dropped_by_failure <= repaired.dropped);
        }
    }

    #[test]
    fn failure_at_slot_zero_matches_the_static_faulted_run() {
        // A swap before any traffic exists runs the whole simulation under
        // the faulted kernel: everything but the restoration bookkeeping
        // matches a statically faulted run bit for bit.
        let sk = StackKautz::new(2, 2, 2);
        let base = prepare(sk.stack_graph(), FaultSet::new());
        let schedule: FaultSchedule = "fail(node 2)@0".parse().unwrap();
        let timeline = PreparedMultiOps::timeline_from(&base, &base, &schedule, 1).unwrap();
        let traffic = TrafficPattern::Uniform { load: 0.4 };
        let config = SimOptions::new(300, 1);
        let mut timed = run_timeline(&base, &timeline, &traffic, &config);
        let faulted = prepare(sk.stack_graph(), FaultSet::from_nodes([2]));
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
        assert_eq!(timed, static_run);
    }

    #[test]
    fn mid_run_group_failure_strands_and_recovery_restores() {
        // A group failure mid-run strands the flights held by or destined
        // to the dead group (counted separately from congestion drops), and
        // after the scheduled recovery the network restores its pre-failure
        // delivery rate.
        let sk = StackKautz::new(2, 2, 2);
        let base = prepare(sk.stack_graph(), FaultSet::new());
        let schedule: FaultSchedule = "fail(node 2)@200; recover@260".parse().unwrap();
        let timeline = PreparedMultiOps::timeline_from(&base, &base, &schedule, 1).unwrap();
        let traffic = TrafficPattern::Uniform { load: 0.9 };
        let m = run_timeline(&base, &timeline, &traffic, &SimOptions::new(2000, 1));
        assert_eq!(m.fault_events, 2);
        assert!(m.in_flight_at_failure > 0, "saturated run has live flights");
        assert!(m.dropped_by_failure > 0, "the dead group strands flights");
        assert!(m.dropped_by_failure <= m.dropped);
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
        assert_ne!(m.restore_slots, u64::MAX, "recovery must restore the rate");
        assert!(m.post_failure_latency_peak > 0);
    }

    #[test]
    fn arbitration_policies_all_work() {
        let kernel = prepare(Pops::new(3, 3).stack_graph(), FaultSet::new());
        for policy in [
            ArbitrationPolicy::RoundRobin,
            ArbitrationPolicy::OldestFirst,
            ArbitrationPolicy::Random,
        ] {
            let m = run_pattern(
                &kernel,
                &TrafficPattern::Uniform { load: 0.8 },
                &SimOptions {
                    slots: 300,
                    policy,
                    ..Default::default()
                },
            );
            assert!(m.delivered > 0, "{policy:?}");
            assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
        }
    }
}
