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
//!   [`StackRouter`] quotient plus a flat CSR-style table of every
//!   source/destination route (one contiguous [`StackHop`] slice per pair),
//!   built once per `(stack-graph, fault-pattern)` pair.  A fault pattern's
//!   kernel — a timeline epoch's too — can also be *delta-repaired* from
//!   the fault-free base ([`PreparedMultiOps::repair_from`]): only the
//!   route pairs the faults can have moved are recomputed, and the result
//!   is bit-identical to building from scratch;
//! * [`PreparedMultiOps::run`] — the kernel's one run entry point — owns
//!   only per-run mutable state (in a caller-owned
//!   [`crate::kernel::SlotScratch`]) and drives the shared
//!   struct-of-arrays slot engine of [`crate::kernel`]: messages
//!   live in a [`crate::kernel::MessageArena`], the per-coupler queues hold
//!   `u32` handles, and per-flight routing state (current route, hop
//!   position, holder) sits in parallel arrays indexed by handle.  No
//!   per-slot allocations: routes are precomputed slices, and the
//!   arbitration candidate buffer is reused across couplers and slots.
//!
//! One loop serves both transmission disciplines, *queued* and
//! *bufferless transmit-or-block*; [`PreparedMultiOps::run`] describes
//! both.

use crate::demand::DemandSource;
use crate::kernel::{assign_wavelength, SlotScratch};
use crate::metrics::SimMetrics;
use crate::options::SimOptions;
use crate::schedule::{FaultSchedule, FaultScheduleError, RestoreTracker};
use otis_graphs::algorithms::k_shortest_paths_avoiding;
use otis_graphs::{SpectrumMap, StackGraph};
use otis_routing::{FaultSet, StackHop, StackRouter};
use std::sync::Arc;

/// Per-flight routing state of the slot loop, parallel arrays indexed by
/// [`MessageArena`] handle (the arena itself holds the message columns —
/// destination, injection slot, hops).  A flight's route is *not* carried
/// along: it lives in the kernel's flat route tables, identified by
/// `(route_src, alt)` — the primary route from `route_src` when `alt == 0`
/// (for never-rerouted traffic `route_src` is the original source), or the
/// `(alt-1)`-th prepared alternate from `route_src` after an
/// alternate-routing event.  `next_hop` is the position reached within that
/// route slice and `holder` the processor currently holding the message.
#[derive(Debug, Default)]
pub(crate) struct FlightState {
    route_src: Vec<u32>,
    alt: Vec<u32>,
    next_hop: Vec<u32>,
    holder: Vec<u32>,
}

impl FlightState {
    /// Initialises the state of a freshly injected flight at `handle`,
    /// growing the arrays if the arena handed out a new slot.
    fn init(&mut self, handle: u32, src: usize) {
        let i = handle as usize;
        if i >= self.route_src.len() {
            let len = i + 1;
            self.route_src.resize(len, 0);
            self.alt.resize(len, 0);
            self.next_hop.resize(len, 0);
            self.holder.resize(len, 0);
        }
        self.route_src[i] = src as u32;
        self.alt[i] = 0;
        self.next_hop[i] = 0;
        self.holder[i] = src as u32;
    }

    #[inline]
    fn route_src(&self, handle: u32) -> usize {
        self.route_src[handle as usize] as usize
    }

    #[inline]
    fn alt(&self, handle: u32) -> usize {
        self.alt[handle as usize] as usize
    }

    #[inline]
    fn next_hop(&self, handle: u32) -> usize {
        self.next_hop[handle as usize] as usize
    }

    #[inline]
    fn holder(&self, handle: u32) -> usize {
        self.holder[handle as usize] as usize
    }

    /// Re-roots the flight onto the `(alt-1)`-th alternate from `route_src`.
    #[inline]
    fn set_route(&mut self, handle: u32, route_src: usize, alt: usize) {
        self.route_src[handle as usize] = route_src as u32;
        self.alt[handle as usize] = alt as u32;
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
        self.route_src.clear();
        self.alt.clear();
        self.next_hop.clear();
        self.holder.clear();
    }
}

/// The multi-OPS half of a [`crate::kernel::SlotScratch`]: flight-state
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

/// All routes of one prepared network, flattened CSR-style: the hops of the
/// route from `src` to `dst` are the contiguous slice
/// `hops[offsets[src·n + dst] .. offsets[src·n + dst + 1]]`.  Pairs the
/// (fault-filtered) quotient cannot connect are marked unreachable.  Memory
/// is `O(n² · diameter)` — the same order as the routing tables already
/// underneath — and lookups are two loads, so the injection path of the
/// slot loop does no route computation and no allocation.
#[derive(Debug, Clone, PartialEq)]
struct FlatRoutes {
    n: usize,
    offsets: Vec<usize>,
    reachable: Vec<bool>,
    hops: Vec<StackHop>,
}

impl FlatRoutes {
    /// The hop slice of the route from `src` to `dst`; `None` when the pair
    /// is unreachable (a failed endpoint group or a disconnected quotient),
    /// `Some(&[])` when `src == dst`.
    fn get(&self, src: usize, dst: usize) -> Option<&[StackHop]> {
        let pair = src * self.n + dst;
        self.reachable[pair].then(|| &self.hops[self.offsets[pair]..self.offsets[pair + 1]])
    }

    /// Precomputes every route of `router`, in source-major order, copying
    /// from the `base` kernel every route the change of faults provably
    /// cannot have moved; with no base every route is computed.
    ///
    /// A destination group's routes can be copied when the group is live
    /// and its quotient column agrees with the base's — next hop and
    /// distance — on every live row.  A cross-group route from a live group
    /// only follows next hops through live groups (a failed group cannot
    /// reach anything), so it retraces the base's group path, and
    /// [`StackRouter::route_via_groups`] turns equal group paths into equal
    /// hops.  A pair is copied when its groups are distinct, its source
    /// group is live and its destination group's column can be copied;
    /// every other pair goes through `router`.  The result is bit-identical
    /// to a build with no base.
    fn repaired(router: &StackRouter, base: Option<&PreparedMultiOps>) -> Self {
        let stack = router.stack_graph();
        let n = stack.node_count();
        let groups = stack.quotient().node_count();
        let faults = router.faults();
        let group_of: Vec<usize> = (0..n).map(|p| stack.to_stack_node(p).group).collect();
        let live: Vec<bool> = (0..groups).map(|g| !faults.node_failed(g)).collect();
        let table = router.quotient_table();
        let copyable: Vec<bool> = (0..groups)
            .map(|gd| {
                base.is_some_and(|base| {
                    let base_table = base.router.quotient_table();
                    live[gd]
                        && (0..groups).all(|u| {
                            !live[u]
                                || (table.next_hop(u, gd) == base_table.next_hop(u, gd)
                                    && table.distance(u, gd) == base_table.distance(u, gd))
                        })
                })
            })
            .collect();
        let mut offsets = Vec::with_capacity(n * n + 1);
        offsets.push(0);
        let mut reachable = Vec::with_capacity(n * n);
        let mut hops: Vec<StackHop> = Vec::new();
        for src in 0..n {
            let gs = group_of[src];
            for (dst, &gd) in group_of.iter().enumerate() {
                let reached = match base {
                    Some(base) if gs != gd && live[gs] && copyable[gd] => base
                        .routes
                        .get(src, dst)
                        .map(|slice| hops.extend_from_slice(slice)),
                    _ => router.route(src, dst).map(|route| hops.extend(route.hops)),
                };
                reachable.push(reached.is_some());
                offsets.push(hops.len());
            }
        }
        FlatRoutes {
            n,
            offsets,
            reachable,
            hops,
        }
    }
}

/// Alternate routes for every source/destination pair, precomputed at
/// prepare time with Yen's k-shortest-path on the (fault-filtered) quotient
/// and materialised into concrete hop sequences.  The primary route is
/// excluded; entry order is best-first.  Empty when the kernel was prepared
/// with `alt_paths <= 1`.
#[derive(Debug, Clone, Default)]
struct AltRoutes {
    n: usize,
    /// `routes[src · n + dst]`: alternate hop sequences, best first.
    routes: Vec<Vec<Vec<StackHop>>>,
    /// Group-pair cache of the loopless quotient paths the alternates were
    /// materialised from (`group_paths[sg · groups + dg]`, `None` when the
    /// pair was never needed).  Kept on the fault-free base so delta repair
    /// can decide per group pair whether the faults can have perturbed the
    /// Yen enumeration at all — see [`AltRoutes::repaired`].
    group_paths: Vec<Option<Vec<Vec<usize>>>>,
}

/// Routing-visible equality: the prepared alternates per pair.  The
/// `group_paths` cache is deliberately excluded — a repaired table carries
/// a partial cache (only the group pairs it recomputed), which is invisible
/// to run behaviour.
impl PartialEq for AltRoutes {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.routes == other.routes
    }
}

impl AltRoutes {
    /// Precomputes up to `alt_paths - 1` alternates per pair (so primary
    /// plus alternates total at most `alt_paths` routes), copying from the
    /// fault-free `base` kernel every pair the faults provably cannot have
    /// perturbed; with no base (or a base prepared without alternates)
    /// every pair is computed.  Group-level Yen paths are computed once per
    /// group pair and materialised per processor pair, keeping the Yen cost
    /// `O(groups²)` instead of `O(n²)`.  The result is bit-identical to a
    /// build with no base.
    ///
    /// A pair is copied when both hold:
    ///
    /// * *its group pair's Yen enumeration is provably undisturbed* — every
    ///   loopless quotient path the fault-free Yen run accepted for
    ///   `(sg, dg)` stays clear of the faults.  The faulted enumeration sees
    ///   the same graph along every path it would accept (removing arcs can
    ///   only delay BFS arrivals, never create earlier ones, so a fault-free
    ///   spur result is stable), hence returns the same list;
    /// * *its primary route is byte-identical* to the base's — the
    ///   primary-exclusion test of the materialisation then filters the same
    ///   entries ([`StackRouter::route_via_groups`] is purely structural, so
    ///   identical group paths materialise identically under both routers).
    fn repaired(
        router: &StackRouter,
        primary: &FlatRoutes,
        alt_paths: usize,
        base: Option<&PreparedMultiOps>,
    ) -> Self {
        let base = base.filter(|base| !base.alts.routes.is_empty());
        let stack = router.stack_graph();
        let n = stack.node_count();
        let quotient = stack.quotient();
        let groups = quotient.node_count();
        let faults = router.faults();
        // Per group pair: does every base Yen path avoid the faults?
        // (`None` until first queried.)
        let mut undisturbed: Vec<Option<bool>> = vec![None; groups * groups];
        // Lazy cache of this router's Yen enumerations, for computed pairs.
        let mut group_paths: Vec<Option<Vec<Vec<usize>>>> = vec![None; groups * groups];
        let mut routes = Vec::with_capacity(n * n);
        for src in 0..n {
            for dst in 0..n {
                let Some(primary_hops) = primary.get(src, dst).filter(|_| src != dst) else {
                    routes.push(Vec::new());
                    continue;
                };
                let sg = stack.to_stack_node(src).group;
                let dg = stack.to_stack_node(dst).group;
                let pair = sg * groups + dg;
                if let Some(base) = base {
                    let clean = *undisturbed[pair].get_or_insert_with(|| {
                        base.alts.group_paths[pair].as_ref().is_some_and(|paths| {
                            paths
                                .iter()
                                .all(|p| p.windows(2).all(|w| !faults.blocks(w[0], w[1])))
                        })
                    });
                    if clean && Some(primary_hops) == base.routes.get(src, dst) {
                        routes.push(base.alts.routes[src * n + dst].clone());
                        continue;
                    }
                }
                let paths = group_paths[pair].get_or_insert_with(|| {
                    k_shortest_paths_avoiding(quotient, sg, dg, alt_paths, |u, v| {
                        faults.node_failed(u) || faults.node_failed(v) || faults.blocks(u, v)
                    })
                });
                let mut alts = Vec::new();
                for group_path in paths.iter() {
                    if group_path.len() < 2 {
                        continue;
                    }
                    let Some(route) = router.route_via_groups(src, dst, group_path) else {
                        continue;
                    };
                    if route.hops.as_slice() == primary_hops {
                        continue;
                    }
                    alts.push(route.hops);
                    if alts.len() + 1 >= alt_paths {
                        break;
                    }
                }
                routes.push(alts);
            }
        }
        AltRoutes {
            n,
            routes,
            group_paths,
        }
    }

    /// Whether any pair has at least one alternate.
    fn has_any(&self) -> bool {
        self.routes.iter().any(|r| !r.is_empty())
    }

    /// The alternates from `src` to `dst`, best first (empty when none were
    /// prepared).
    fn get(&self, src: usize, dst: usize) -> &[Vec<StackHop>] {
        if self.routes.is_empty() {
            &[]
        } else {
            &self.routes[src * self.n + dst]
        }
    }
}

/// The immutable, shareable kernel of the multi-OPS simulator: the
/// fault-filtered [`StackRouter`] (quotient routing table) plus the
/// `FlatRoutes` table of every source/destination route, and — when
/// prepared with [`PreparedMultiOps::with_alternates`] — the `AltRoutes`
/// table of Yen alternates.  Building one is
/// the expensive part of a simulation; [`PreparedMultiOps::run`] is the
/// cheap part and can be called any number of times with different seeds,
/// traffic patterns and slot counts.
///
/// The kernel is `Send + Sync`, so a scenario engine can build it once per
/// distinct `(stack-graph, fault-pattern)` pair and share it across worker
/// threads.
#[derive(Debug, Clone)]
pub struct PreparedMultiOps {
    router: StackRouter,
    routes: FlatRoutes,
    alts: AltRoutes,
}

impl PreparedMultiOps {
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
    /// `alt_paths - 1` alternate routes per source/destination pair (Yen's
    /// k-shortest loopless paths on the fault-filtered quotient), for use by
    /// the wavelength-mode slot loop.  `alt_paths <= 1` prepares no
    /// alternates and is exactly [`PreparedMultiOps::new`].
    pub fn with_alternates(stack: Arc<StackGraph>, faults: FaultSet, alt_paths: usize) -> Self {
        Self::build(StackRouter::from_shared(stack, faults), None, alt_paths)
    }

    /// Derives the kernel for `faults` from a fault-free base kernel by
    /// delta-repair instead of rebuilding from scratch — the one way a
    /// faulted or timeline-epoch kernel is derived.  The quotient router is
    /// built fresh (it has one node per group, so it is cheap), and the
    /// per-processor tables copy from `base` whatever the faults provably
    /// cannot have moved: `FlatRoutes::repaired` keeps every route towards
    /// a destination group whose quotient column is unchanged on the live
    /// rows, and — when `alt_paths > 1` — `AltRoutes::repaired` reruns
    /// group-level Yen only for group pairs whose fault-free enumeration
    /// the faults can have disturbed, and materialises only pairs whose Yen
    /// list or primary route changed.  The result is bit-identical to
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

    /// Precomputes the route tables over `router`, copying from `base`
    /// whatever its faults leave valid (see [`PreparedMultiOps::repair_from`]).
    fn build(router: StackRouter, base: Option<&PreparedMultiOps>, alt_paths: usize) -> Self {
        let routes = FlatRoutes::repaired(&router, base);
        let alts = if alt_paths > 1 {
            AltRoutes::repaired(&router, &routes, alt_paths, base)
        } else {
            AltRoutes::default()
        };
        PreparedMultiOps {
            router,
            routes,
            alts,
        }
    }

    /// Builds the epoch timeline a [`FaultSchedule`] prescribes for runs of
    /// the `initial` kernel: one `(slot, kernel)` pair per distinct event
    /// slot (fault targets are quotient groups and couplers, the multi-OPS
    /// fault domain), each kernel delta-repaired from the fault-free `base`
    /// toward that epoch's fault set ([`PreparedMultiOps::repair_from`]) —
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

    /// Structural equality of the routing state — flat routes and prepared
    /// alternates — used by the delta-repair acceptance tests to prove a
    /// repaired kernel bit-identical to a from-scratch build.  Hidden from
    /// docs: not part of the simulation surface.
    #[doc(hidden)]
    pub fn routing_state_eq(&self, other: &PreparedMultiOps) -> bool {
        self.router.faults() == other.router.faults()
            && self.routes == other.routes
            && self.alts == other.alts
    }

    /// Whether alternate routes were prepared (via
    /// [`PreparedMultiOps::with_alternates`] with `alt_paths > 1` and at
    /// least one pair having a second loopless quotient path).  When true,
    /// [`PreparedMultiOps::run`] always uses the wavelength-mode loop, even
    /// at capacity 1.
    pub fn has_alternates(&self) -> bool {
        self.alts.has_any()
    }

    /// The route slice the flight at `handle` is currently following:
    /// primary from `route_src` when `alt == 0`, otherwise the `(alt-1)`-th
    /// prepared alternate from `route_src`.
    fn route_of(&self, route_src: usize, dst: usize, alt: usize) -> &[StackHop] {
        if alt == 0 {
            self.routes
                .get(route_src, dst)
                .expect("flights only enter precomputed routes")
        } else {
            &self.alts.get(route_src, dst)[alt - 1]
        }
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
    ///   arena, the flight-state arrays, the coupler queues and the
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
    /// pending queue's `holder`/`injected_at` columns, advancing winners a
    /// hop and delivering or forwarding them; the bufferless **overflow**
    /// sub-phase re-roots losers onto alternates or drops them blocked.
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
        let OpsScratch {
            flights,
            pending,
            next_pending,
            last_winner,
            candidates,
            overflow,
        } = ops;
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
            while timeline.get(next_epoch).is_some_and(|(s, _)| *s <= slot) {
                let kernel = &timeline[next_epoch].1;
                next_epoch += 1;
                let live: u64 = pending.iter().map(|q| q.len() as u64).sum();
                let introduces = !kernel.router.faults().is_subset_of(active.router.faults());
                tracker.on_swap(introduces, slot, live, &mut core.metrics);
                for queue in pending.iter_mut() {
                    overflow.append(queue);
                }
                for handle in overflow.drain(..) {
                    let holder = flights.holder(handle);
                    let dst = arena.dst(handle);
                    match kernel.routes.get(holder, dst) {
                        Some(route) if !route.is_empty() => {
                            flights.set_route(handle, holder, 0);
                            flights.advance(handle, 0, holder);
                            pending[route[0].coupler].push(handle);
                        }
                        _ => {
                            core.metrics.dropped_by_failure += 1;
                            core.drop_message();
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
                let Some(route) = active.routes.get(src, dst) else {
                    continue;
                };
                if route.is_empty() {
                    continue;
                }
                let first_coupler = route[0].coupler;
                if !bufferless
                    && options.queue_limit > 0
                    && pending[first_coupler].len() >= options.queue_limit
                {
                    // Back-pressure: the injection is refused, not counted.
                    // (Bufferless mode has no queues, hence no back-pressure:
                    // every message the routes can carry enters the slot's
                    // contention.)
                    continue;
                }
                let message = core.inject(src, dst, slot);
                let handle = arena.insert(&message);
                flights.init(handle, src);
                pending[first_coupler].push(handle);
            }

            // 2. Per-coupler arbitration and transmission: one grant per
            // coupler in queued mode, up to `W` in bufferless mode.
            for coupler in 0..couplers {
                loop {
                    if pending[coupler].is_empty() {
                        break;
                    }
                    if let Some(spectrum) = &spectrum {
                        if spectrum.is_full(coupler) {
                            break;
                        }
                    }
                    candidates.clear();
                    candidates.extend(
                        pending[coupler]
                            .iter()
                            .map(|&h| (flights.holder(h), arena.injected_at(h))),
                    );
                    let Some(winner_idx) =
                        options
                            .policy
                            .pick(candidates, last_winner[coupler], &mut core.rng)
                    else {
                        break;
                    };
                    let handle = pending[coupler].remove(winner_idx);
                    last_winner[coupler] = Some(flights.holder(handle));
                    if let Some(spectrum) = spectrum.as_mut() {
                        let lambda = assign_wavelength(
                            spectrum,
                            coupler,
                            options.wavelengths.assignment,
                            &mut core.rng,
                        );
                        arena.set_wavelength(handle, lambda);
                    }
                    core.grant();

                    let route = active.route_of(
                        flights.route_src(handle),
                        arena.dst(handle),
                        flights.alt(handle),
                    );
                    let hop_idx = flights.next_hop(handle);
                    let hop = route[hop_idx];
                    let next_coupler =
                        (hop_idx + 1 < route.len()).then(|| route[hop_idx + 1].coupler);
                    arena.add_hop(handle);
                    flights.advance(handle, hop_idx + 1, hop.receiver);
                    match next_coupler {
                        None => {
                            // Delivered at the end of this slot.
                            let latency = slot + 1 - arena.injected_at(handle);
                            core.deliver(latency, arena.hops(handle));
                            tracker.observe_delivery(latency, &mut core.metrics);
                            arena.release(handle);
                        }
                        Some(next) if !bufferless || next > coupler => pending[next].push(handle),
                        Some(next) => next_pending[next].push(handle),
                    }
                    if !bufferless {
                        break;
                    }
                }

                // 3. Overflow, bufferless mode only: the coupler is exhausted
                // (or arbitration yielded nothing); the stranded messages
                // must re-route or block — bufferless networks cannot hold
                // them.  (Queued mode leaves losers in their queue for the
                // next slot.)
                if !bufferless || pending[coupler].is_empty() {
                    continue;
                }
                overflow.append(&mut pending[coupler]);
                for handle in overflow.drain(..) {
                    let spectrum = spectrum.as_mut().expect("bufferless mode has a spectrum");
                    let dst = arena.dst(handle);
                    let holder = flights.holder(handle);
                    let alts = active.alts.get(holder, dst);
                    let mut taken = false;
                    for (a, alt) in alts.iter().enumerate() {
                        let first = alt[0].coupler;
                        if spectrum.is_full(first) {
                            continue;
                        }
                        // Re-root the flight onto the alternate and transmit
                        // its first hop immediately.
                        core.metrics.alt_routed += 1;
                        flights.set_route(handle, holder, a + 1);
                        let lambda = assign_wavelength(
                            spectrum,
                            first,
                            options.wavelengths.assignment,
                            &mut core.rng,
                        );
                        arena.set_wavelength(handle, lambda);
                        core.grant();
                        last_winner[first] = Some(holder);
                        arena.add_hop(handle);
                        flights.advance(handle, 1, alt[0].receiver);
                        if alt.len() == 1 {
                            let latency = slot + 1 - arena.injected_at(handle);
                            core.deliver(latency, arena.hops(handle));
                            tracker.observe_delivery(latency, &mut core.metrics);
                            arena.release(handle);
                        } else {
                            let next = alt[1].coupler;
                            if next > coupler {
                                pending[next].push(handle);
                            } else {
                                next_pending[next].push(handle);
                            }
                        }
                        taken = true;
                        break;
                    }
                    if !taken {
                        core.metrics.blocked += 1;
                        core.drop_message();
                        arena.release(handle);
                    }
                }
            }
            if bufferless {
                debug_assert!(pending.iter().all(|p| p.is_empty()));
                std::mem::swap(pending, next_pending);
            }
            tracker.end_slot(slot, &mut core.metrics);
        }

        // Messages granted in the final slot but still short of their
        // destination — and, in queued mode, everything still queued — are
        // in flight.
        let in_flight = pending.iter().map(|q| q.len() as u64).sum::<u64>()
            + next_pending.iter().map(|q| q.len() as u64).sum::<u64>();
        core.finish(in_flight)
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
        // table + flat routes) per run.
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
        // The tentpole contract of the repair-aware alternates: for every
        // fault pattern within the d−1 tolerance bound — every single group
        // fault plus every single blocked coupler — the delta-rebuilt
        // `AltRoutes` (and the whole routing state) must equal a
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
                        repaired.alts, fresh.alts,
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
