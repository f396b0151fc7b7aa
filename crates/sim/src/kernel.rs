//! The slot engine shared by both simulator families.
//!
//! The multi-OPS coupler model and the hot-potato point-to-point baseline
//! drive the same outer loop: a slot clock, a seeded RNG, metrics and a
//! livelock guard.  This module owns the state of that loop:
//!
//! * [`RunCore`] — the run's RNG and metrics, so the prepared kernels
//!   ([`crate::hot_potato::PreparedHotPotato`],
//!   [`crate::multi_ops::PreparedMultiOps`]) stay immutable and shareable
//!   across threads while every `run` call re-arms one core and drives it
//!   through the slots;
//! * [`MessageArena`] — the messages in flight, each a three-column record
//!   `(dst, injected_at, hops)` behind a compact `u32` handle, with a free
//!   list so the arena's footprint tracks the *peak live* population, not
//!   the total injected;
//! * [`PortBits`] — the `u64`-word bitset of free output ports the
//!   hot-potato loop feeds to
//!   [`otis_routing::HotPotatoRouter::choose_port_randomized_masked`];
//!   per-channel *spectrum* occupancy is the word-wide
//!   [`otis_graphs::SpectrumMap`];
//! * [`SlotScratch`] — all of the above plus each family's buckets and
//!   queues, one reusable pool per worker;
//! * `assign_wavelength` — the one wavelength-assignment rule (first-fit
//!   or seeded-random) both kernels apply on a multiplexed grant.
//!
//! The message record holds exactly what the loops read: `dst` to test
//! delivery and to route, `injected_at` for latency and age-ordered
//! arbitration, `hops` for the hop statistics and the livelock guard.
//! Nothing else is kept because no loop reads it: no metric names a
//! message or its source, and an assigned wavelength only matters as
//! occupancy of the slot's `SpectrumMap`, which is cleared every slot.  A
//! family's own routing state (the multi-OPS route and hop position) lives
//! in that family's scratch, indexed by the same handle.
//!
//! `metrics.slots` always equals the number of slots started, and a
//! delivery in slot `s` of a message injected in slot `c` has latency
//! `s − c` under whichever convention the calling simulator uses.

use crate::metrics::SimMetrics;
use crate::wavelength::WavelengthAssignment;
use otis_graphs::SpectrumMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The per-run mutable core shared by both simulators: the seeded RNG and
/// the metrics accumulator.  Everything else a simulator needs per run
/// (queues, port masks, message buffers) is its own reusable scratch
/// state; everything immutable (graphs, routing and route tables) lives in
/// the prepared kernel.
#[derive(Debug)]
pub(crate) struct RunCore {
    /// The run's RNG; traffic generation, arbitration and deflection
    /// tie-breaks all draw from this single stream, which is what makes a
    /// run reproducible from its seed alone.
    pub(crate) rng: StdRng,
    /// The metrics accumulated so far; the slot loops write them directly.
    pub(crate) metrics: SimMetrics,
}

impl Default for RunCore {
    /// A placeholder core (seed 0, no processors), to be re-armed with
    /// [`RunCore::reset`] before use — what a [`SlotScratch`] starts from.
    fn default() -> Self {
        RunCore::new(0, 0, 0)
    }
}

impl RunCore {
    /// A fresh core for one run: RNG seeded with `seed`, zeroed metrics over
    /// `processors` processors and `channels` couplers/links.
    pub(crate) fn new(seed: u64, processors: usize, channels: usize) -> Self {
        RunCore {
            rng: StdRng::seed_from_u64(seed),
            metrics: SimMetrics::new(processors, channels),
        }
    }

    /// Re-arms the core for another run — reseeded RNG, zeroed metrics.
    /// `SimMetrics` is all scalars, so a reset core is indistinguishable
    /// from a freshly constructed one; this is what lets a [`SlotScratch`]
    /// carry one core across every cell a scenario worker runs.
    pub(crate) fn reset(&mut self, seed: u64, processors: usize, channels: usize) {
        *self = RunCore::new(seed, processors, channels);
    }

    /// Advances the slot clock: after this call `metrics.slots` counts the
    /// slot being simulated (slot indices are zero-based, the counter is the
    /// number of slots started).
    pub(crate) fn begin_slot(&mut self, slot: u64) {
        self.metrics.slots = slot + 1;
    }

    /// The livelock guard: whether a message that has taken `hops` hops has
    /// exhausted the `max_hops` budget (`0` disables the guard).
    pub(crate) fn livelock_exceeded(max_hops: u32, hops: u32) -> bool {
        max_hops > 0 && hops >= max_hops
    }

    /// Finishes the run: records the messages still in flight and returns
    /// the final metrics.  The core stays usable — [`RunCore::reset`] re-arms
    /// it for the next run.
    pub(crate) fn finish(&mut self, in_flight: u64) -> SimMetrics {
        self.metrics.in_flight = in_flight;
        self.metrics.clone()
    }
}

/// The messages currently in flight, as three parallel columns indexed by
/// compact `u32` handles: destination, injection slot and hop count.
///
/// The slot loops keep handles in per-node or per-coupler buckets and
/// index the one column each question needs.  Released slots go on a free
/// list and are reused, so the arena's footprint tracks the peak live
/// population of the run.
#[derive(Debug, Default, Clone)]
pub(crate) struct MessageArena {
    dsts: Vec<u32>,
    injected_at: Vec<u64>,
    hops: Vec<u32>,
    free: Vec<u32>,
}

impl MessageArena {
    /// Stores a message to `dst` injected in slot `injected_at`, with no
    /// hops taken, and returns its handle, reusing a released slot when one
    /// is available.
    pub(crate) fn insert(&mut self, dst: usize, injected_at: u64) -> u32 {
        if let Some(handle) = self.free.pop() {
            let i = handle as usize;
            self.dsts[i] = dst as u32;
            self.injected_at[i] = injected_at;
            self.hops[i] = 0;
            handle
        } else {
            let handle = self.dsts.len() as u32;
            self.dsts.push(dst as u32);
            self.injected_at.push(injected_at);
            self.hops.push(0);
            handle
        }
    }

    /// Returns `handle`'s slot to the free list.  The handle must not be
    /// used again until `insert` hands it back out.
    pub(crate) fn release(&mut self, handle: u32) {
        self.free.push(handle);
    }

    /// The destination processor stored at `handle`.
    #[inline]
    pub(crate) fn dst(&self, handle: u32) -> usize {
        self.dsts[handle as usize] as usize
    }

    /// The slot in which the message at `handle` was injected.
    #[inline]
    pub(crate) fn injected_at(&self, handle: u32) -> u64 {
        self.injected_at[handle as usize]
    }

    /// The hop count of the message at `handle`.
    #[inline]
    pub(crate) fn hops(&self, handle: u32) -> u32 {
        self.hops[handle as usize]
    }

    /// Increments the hop count of the message at `handle`.
    #[inline]
    pub(crate) fn add_hop(&mut self, handle: u32) {
        self.hops[handle as usize] += 1;
    }

    /// The number of arena slots allocated so far (live plus free); an upper
    /// bound on every handle, useful for sizing parallel side arrays.
    pub(crate) fn capacity(&self) -> usize {
        self.dsts.len()
    }

    /// Empties the arena for a new run.  Every column is cleared but keeps
    /// its allocation, so a reused arena hands out the exact handle sequence
    /// a fresh one would — byte-identical runs — while only touching the
    /// allocator when a later run's peak live population exceeds anything
    /// seen before.
    pub(crate) fn reset(&mut self) {
        self.dsts.clear();
        self.injected_at.clear();
        self.hops.clear();
        self.free.clear();
    }
}

/// `u64`-word bitset of free output ports at one node, rebuilt each slot by
/// the hot-potato loop and consumed as the mask argument of
/// [`otis_routing::HotPotatoRouter::choose_port_randomized_masked`].
#[derive(Debug, Default, Clone)]
pub(crate) struct PortBits {
    words: Vec<u64>,
}

impl PortBits {
    /// Marks all of `ports` ports free.  Bits beyond `ports` may also be
    /// set; callers must not ask about ports they did not declare.
    pub(crate) fn reset(&mut self, ports: usize) {
        self.words.clear();
        self.words.resize(ports.div_ceil(64), !0u64);
    }

    /// Marks `port` busy for the rest of the slot.
    #[inline]
    pub(crate) fn close(&mut self, port: usize) {
        self.words[port >> 6] &= !(1u64 << (port & 63));
    }

    /// The raw words, bit `p % 64` of word `p / 64` set iff port `p` is
    /// free — the layout `choose_port_randomized_masked` expects.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Truncates or grows a bucket array to exactly `n` empty buckets, keeping
/// the allocations of the buckets that survive.  The per-node and
/// per-coupler handle buckets of both slot loops reset through this, so a
/// scratch pool reused across cells of different network sizes always
/// presents the exact initial state a fresh allocation would.
pub(crate) fn reset_buckets(buckets: &mut Vec<Vec<u32>>, n: usize) {
    buckets.truncate(n);
    for bucket in buckets.iter_mut() {
        bucket.clear();
    }
    buckets.resize_with(n, Vec::new);
}

/// The hot-potato half of a [`SlotScratch`]: per-node handle buckets, the
/// slot-global transit list with its per-node spans, the port-occupancy
/// bitset and the deflection tie-break buffer.
#[derive(Debug, Default)]
pub(crate) struct HotScratch {
    /// Handles at each node at the start of the slot.
    pub(crate) at_node: Vec<Vec<u32>>,
    /// Handles arriving at each node for the next slot.
    pub(crate) arriving: Vec<Vec<u32>>,
    /// The slot's transit handles, all nodes back to back.
    pub(crate) transit: Vec<u32>,
    /// `transit[spans[v].0 .. spans[v].1]` is node `v`'s transit traffic.
    pub(crate) spans: Vec<(u32, u32)>,
    /// Free-port bitset, rebuilt per node.
    pub(crate) ports: PortBits,
    /// Equally-good candidate ports of one deflection decision.
    pub(crate) ties: Vec<usize>,
}

impl HotScratch {
    /// Resets the buckets to `n` empty nodes and clears the slot buffers.
    pub(crate) fn begin_run(&mut self, n: usize) {
        reset_buckets(&mut self.at_node, n);
        reset_buckets(&mut self.arriving, n);
        self.transit.clear();
        self.spans.clear();
        self.ties.clear();
    }
}

/// Reusable per-worker hot state for the slot loops of both simulator
/// families: the run's RNG and metrics, the in-flight message records, the
/// injection decisions and the family specific queue/port/tie buffers,
/// bundled so a scenario worker can thread one pool through every cell it
/// runs.
///
/// Every buffer is *reset* (never reallocated) at the start of a run, and a
/// reset buffer is indistinguishable from a fresh one — so driving a kernel
/// through a scratch pool is byte-identical to the plain entry points while
/// only touching the allocator when a run's peak population exceeds anything
/// the pool has seen.  A pool serves cells of different networks, sizes and
/// families back to back; it is `Send`, so an engine can hand one to each
/// worker thread for the worker's whole lifetime.
#[derive(Debug, Default)]
pub struct SlotScratch {
    /// The per-run mutable core, re-armed by [`RunCore::reset`] per cell.
    pub(crate) core: RunCore,
    /// The in-flight message records.
    pub(crate) arena: MessageArena,
    /// This slot's injection decisions, one per processor.
    pub(crate) injections: Vec<Option<usize>>,
    /// Hot-potato buffers.
    pub(crate) hot: HotScratch,
    /// Multi-OPS buffers.
    pub(crate) ops: crate::multi_ops::OpsScratch,
}

impl SlotScratch {
    /// A fresh, empty pool.
    pub fn new() -> Self {
        SlotScratch::default()
    }

    /// Arena slots allocated by the most recent run — its peak live message
    /// population, since the arena is emptied between runs.  Scratch-reuse
    /// tests assert this high-water mark matches a fresh arena's, proving
    /// pooling never inflates the handle space.
    pub fn arena_capacity(&self) -> usize {
        self.arena.capacity()
    }

    /// Re-arms the shared (family-independent) state for one run.
    pub(crate) fn begin_run(&mut self, seed: u64, processors: usize, channels: usize) {
        self.core.reset(seed, processors, channels);
        self.arena.reset();
        self.injections.clear();
    }
}

/// Picks and occupies a wavelength on `channel` under the given assignment
/// discipline.  Which wavelength it took is not returned: the slot loops
/// only need the channel's occupancy.
///
/// The caller must have checked `!spectrum.is_full(channel)`.  First-fit
/// takes the lowest free wavelength without touching the RNG; random draws
/// one `gen_range` over the free count, so the RNG stream depends only on
/// the discipline, never on which wavelengths happen to be free.
pub(crate) fn assign_wavelength(
    spectrum: &mut SpectrumMap,
    channel: usize,
    assignment: WavelengthAssignment,
    rng: &mut StdRng,
) {
    let lambda = match assignment {
        WavelengthAssignment::FirstFit => spectrum
            .first_free(channel)
            .expect("assign_wavelength called on a full channel"),
        WavelengthAssignment::Random => {
            let free = spectrum.free_count(channel);
            debug_assert!(free > 0, "assign_wavelength called on a full channel");
            let pick = rng.gen_range(0..free);
            spectrum
                .nth_free(channel, pick)
                .expect("nth_free within free_count")
        }
    };
    let fresh = spectrum.occupy(channel, lambda);
    debug_assert!(fresh, "assigned wavelength was already occupied");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_clock_counts_slots_started() {
        let mut core = RunCore::new(1, 2, 2);
        core.begin_slot(0);
        assert_eq!(core.metrics.slots, 1);
        core.begin_slot(41);
        assert_eq!(core.metrics.slots, 42);
    }

    #[test]
    fn livelock_guard_respects_the_disable_sentinel() {
        assert!(!RunCore::livelock_exceeded(0, u32::MAX));
        assert!(!RunCore::livelock_exceeded(5, 4));
        assert!(RunCore::livelock_exceeded(5, 5));
        assert!(RunCore::livelock_exceeded(5, 6));
    }

    #[test]
    fn finish_records_in_flight_and_reset_rearms() {
        let mut core = RunCore::new(1, 2, 2);
        core.begin_slot(0);
        core.metrics.record_delivery(3, 2);
        let m = core.finish(4);
        assert_eq!(m.delivered, 1);
        assert_eq!(m.total_latency, 3);
        assert_eq!(m.in_flight, 4);
        core.reset(1, 2, 2);
        assert_eq!(core.metrics, SimMetrics::new(2, 2));
    }

    #[test]
    fn same_seed_same_stream() {
        use rand::Rng;
        let mut a = RunCore::new(99, 1, 1);
        let mut b = RunCore::new(99, 1, 1);
        let xs: Vec<usize> = (0..8).map(|_| a.rng.gen_range(0..1000)).collect();
        let ys: Vec<usize> = (0..8).map(|_| b.rng.gen_range(0..1000)).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn arena_reuses_released_slots() {
        let mut arena = MessageArena::default();
        let a = arena.insert(2, 3);
        let b = arena.insert(5, 6);
        assert_eq!(arena.capacity(), 2);
        assert_eq!(arena.dst(a), 2);
        assert_eq!(arena.injected_at(b), 6);
        arena.add_hop(a);
        arena.add_hop(b);
        arena.release(a);
        let c = arena.insert(8, 9);
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(arena.capacity(), 2);
        assert_eq!(arena.dst(c), 8);
        assert_eq!(arena.injected_at(c), 9);
        assert_eq!(arena.hops(c), 0, "a reused slot starts with no hops");
        assert_eq!(arena.hops(b), 1);
        arena.reset();
        assert_eq!(arena.capacity(), 0);
        assert_eq!(arena.insert(1, 1), 0, "a reset arena hands out handle 0");
    }

    #[test]
    fn port_bits_track_closures_across_words() {
        let free = |bits: &PortBits, port: usize| bits.words()[port >> 6] >> (port & 63) & 1 == 1;
        let mut bits = PortBits::default();
        bits.reset(70);
        assert_eq!(bits.words().len(), 2);
        assert!(free(&bits, 0));
        assert!(free(&bits, 69));
        bits.close(0);
        bits.close(65);
        assert!(!free(&bits, 0));
        assert!(!free(&bits, 65));
        assert!(free(&bits, 64));
        bits.reset(3);
        assert_eq!(bits.words().len(), 1);
        assert!(free(&bits, 0));
    }

    #[test]
    fn first_fit_assignment_takes_lowest_free_without_rng() {
        let mut spectrum = SpectrumMap::new(2, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let before: Vec<usize> = {
            let mut probe = StdRng::seed_from_u64(1);
            (0..4).map(|_| probe.gen_range(0..1_000_000)).collect()
        };
        assign_wavelength(&mut spectrum, 0, WavelengthAssignment::FirstFit, &mut rng);
        assert!(!spectrum.is_free(0, 0));
        assert_eq!(spectrum.first_free(0), Some(1));
        assign_wavelength(&mut spectrum, 0, WavelengthAssignment::FirstFit, &mut rng);
        assert_eq!(spectrum.first_free(0), Some(2));
        let after: Vec<usize> = (0..4).map(|_| rng.gen_range(0..1_000_000)).collect();
        assert_eq!(after, before, "first-fit must not consume the RNG");
        assert_eq!(spectrum.occupied_count(0), 2);
        assert_eq!(spectrum.occupied_count(1), 0);
    }

    #[test]
    fn random_assignment_occupies_a_free_wavelength() {
        let mut spectrum = SpectrumMap::new(1, 3);
        let mut rng = StdRng::seed_from_u64(9);
        for taken in 1..=3 {
            assign_wavelength(&mut spectrum, 0, WavelengthAssignment::Random, &mut rng);
            assert_eq!(spectrum.occupied_count(0), taken);
        }
        assert!(spectrum.is_full(0));
    }
}
