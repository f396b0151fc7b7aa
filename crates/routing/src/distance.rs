//! Distance-only all-pairs tables for deflection routing.
//!
//! The hot-potato router only ever asks "how far is `u` from `dst`?" — it
//! never follows a stored next hop.  A [`DistanceTable`] therefore keeps
//! the distances alone, one cell per (node, destination) pair, in the
//! narrowest unsigned width that holds every finite distance: one byte per
//! pair whenever the graph's eccentricities stay below 255 (always the
//! case for the de Bruijn and Kautz digraphs, whose diameter is `k`), two
//! bytes otherwise.  At 2,048 processors that is 4 MiB, against 48 MiB for
//! a [`crate::RoutingTable`] with its `usize` next hops and `u32`
//! distances.
//!
//! The cells live behind an [`Arc`], so cloning a table — or a prepared
//! kernel holding one — is a reference-count bump.

use crate::fault_tolerant::FaultSet;
use otis_graphs::{Digraph, NodeId};
use std::iter;
use std::sync::Arc;

/// One stored distance: `MAX` means "unreachable", every smaller value is a
/// hop count.
trait Cell: Copy + Eq + Into<u32> {
    const UNREACHABLE: Self;

    /// `hops` as a cell, or `None` when it does not fit below `UNREACHABLE`.
    fn from_hops(hops: u32) -> Option<Self>;
}

impl Cell for u8 {
    const UNREACHABLE: u8 = u8::MAX;

    fn from_hops(hops: u32) -> Option<u8> {
        u8::try_from(hops).ok().filter(|&c| c != u8::MAX)
    }
}

impl Cell for u16 {
    const UNREACHABLE: u16 = u16::MAX;

    fn from_hops(hops: u32) -> Option<u16> {
        u16::try_from(hops).ok().filter(|&c| c != u16::MAX)
    }
}

/// The cell storage, in the narrowest width that holds every finite
/// distance.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Cells {
    Narrow(Arc<[u8]>),
    Wide(Arc<[u16]>),
}

/// All-pairs shortest-path distances of a digraph, without next hops.
///
/// `dist[dst * n + u]` is the distance from `u` to `dst` in arcs.  The
/// width (one or two bytes per pair) is a function of the distances alone,
/// so a table produced by [`DistanceTable::repaired`] equals the one
/// [`DistanceTable::new`] builds on the surviving subgraph, width
/// included, and `==` compares distances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceTable {
    n: usize,
    cells: Cells,
}

impl DistanceTable {
    /// The largest node count a table can store: with at most 65,535 nodes
    /// every finite distance is at most 65,534, which fits a two-byte cell
    /// next to the unreachable marker.
    pub const MAX_NODES: usize = u16::MAX as usize;

    /// Builds the table by a reverse BFS from every destination.  Time
    /// `O(n·(n + m))`, memory `n²` bytes (twice that when some finite
    /// distance reaches 255).
    ///
    /// # Panics
    ///
    /// Panics if the digraph has more than [`DistanceTable::MAX_NODES`]
    /// nodes.
    pub fn new(g: &Digraph) -> Self {
        let n = g.node_count();
        assert!(
            n <= Self::MAX_NODES,
            "a distance table stores at most {} nodes, got {n}",
            Self::MAX_NODES
        );
        let reverse = g.reverse();
        match fill::<u8>(&reverse) {
            Some(cells) => Self::narrow(n, cells),
            None => Self::fitted(
                n,
                fill::<u16>(&reverse).expect("distances below 65,535 fit two bytes"),
            ),
        }
    }

    /// Delta-repairs a base table for a fault set instead of recomputing
    /// all pairs.
    ///
    /// `self` must be the table of the intact graph and `survivor` its
    /// surviving subgraph under `faults` (see
    /// [`crate::surviving_subgraph`]); the result equals
    /// `DistanceTable::new(survivor)`.
    ///
    /// Removing nodes and arcs never shortens a distance.  So a live
    /// destination's column keeps every base distance exactly when each
    /// live node `u ≠ dst` at finite base distance `d(u)` still has a
    /// surviving out-neighbour `w` with `d(w) = d(u) − 1`: by induction on
    /// `d`, such a descending arc chain reaches `dst` inside the survivor.
    /// A node whose out-arcs all survive keeps its base witness, so only
    /// the live nodes that lost an out-arc need the check — the
    /// in-neighbours of failed nodes (base distance 1 to the failed node)
    /// and the tails of blocked arcs.  Such a column is copied with failed
    /// rows set to unreachable (a failed node has no surviving out-arcs).
    /// Every other live column is recomputed by BFS, and a failed
    /// destination's column is 0 at the destination and unreachable
    /// elsewhere.
    pub fn repaired(&self, survivor: &Digraph, faults: &FaultSet) -> DistanceTable {
        let n = self.n;
        assert_eq!(
            survivor.node_count(),
            n,
            "survivor node count must match the base table"
        );
        if faults.is_empty() {
            return self.clone();
        }
        let failed = faults.sorted_nodes();
        let mut node_failed = vec![false; n];
        for &f in &failed {
            node_failed[f] = true;
        }
        let mut touched: Vec<NodeId> = faults.sorted_arcs().iter().map(|&(u, _)| u).collect();
        for &f in &failed {
            touched.extend((0..n).filter(|&u| self.distance(u, f) == Some(1)));
        }
        touched.sort_unstable();
        touched.dedup();
        touched.retain(|&u| !node_failed[u]);
        let repair = Repair {
            survivor,
            reverse: survivor.reverse(),
            failed: &failed,
            node_failed: &node_failed,
            touched: &touched,
        };
        match &self.cells {
            Cells::Narrow(base) => match repair.run(base) {
                Some(cells) => Self::narrow(n, cells),
                None => {
                    let wide: Vec<u16> = base.iter().map(|&c| widen(c)).collect();
                    Self::fitted(n, repair.run(&wide).expect("n <= 65,535"))
                }
            },
            Cells::Wide(base) => Self::fitted(n, repair.run(base).expect("n <= 65,535")),
        }
    }

    /// Number of nodes the table covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Bytes stored per (node, destination) pair: 1, or 2 when some finite
    /// distance reaches 255.
    pub fn bytes_per_pair(&self) -> usize {
        match self.cells {
            Cells::Narrow(_) => 1,
            Cells::Wide(_) => 2,
        }
    }

    /// Distance from `src` to `dst`; `None` when unreachable.
    #[inline]
    pub fn distance(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        assert!(src < self.n && dst < self.n, "node out of range");
        let at = dst * self.n + src;
        match &self.cells {
            Cells::Narrow(cells) => finite(cells[at]),
            Cells::Wide(cells) => finite(cells[at]),
        }
    }

    fn narrow(n: usize, cells: Arc<[u8]>) -> Self {
        DistanceTable {
            n,
            cells: Cells::Narrow(cells),
        }
    }

    /// Stores two-byte cells one byte wide when every finite distance fits,
    /// keeping the width a function of the distances alone.
    fn fitted(n: usize, cells: Arc<[u16]>) -> Self {
        let fits = cells
            .iter()
            .all(|&c| c == u16::UNREACHABLE || u8::from_hops(c.into()).is_some());
        if fits {
            let narrow = cells
                .iter()
                .map(|&c| u8::from_hops(c.into()).unwrap_or(u8::UNREACHABLE))
                .collect();
            Self::narrow(n, narrow)
        } else {
            DistanceTable {
                n,
                cells: Cells::Wide(cells),
            }
        }
    }
}

fn finite<C: Cell>(cell: C) -> Option<u32> {
    (cell != C::UNREACHABLE).then(|| cell.into())
}

fn widen(cell: u8) -> u16 {
    if cell == u8::UNREACHABLE {
        u16::UNREACHABLE
    } else {
        cell.into()
    }
}

/// Every column of a from-scratch table, or `None` when some distance does
/// not fit `C`.  The cells are allocated once, already shared-ready.
fn fill<C: Cell>(reverse: &Digraph) -> Option<Arc<[C]>> {
    let n = reverse.node_count();
    let mut cells: Arc<[C]> = iter::repeat_n(C::UNREACHABLE, n * n).collect();
    let columns = Arc::get_mut(&mut cells).expect("a fresh table is unshared");
    let mut queue = Vec::with_capacity(n);
    for (dst, column) in columns.chunks_exact_mut(n.max(1)).enumerate() {
        bfs_column(reverse, dst, column, &mut queue)?;
    }
    Some(cells)
}

/// Fills `column` with the distances towards `dst` by BFS on the reverse
/// graph; `None` when a distance does not fit `C`.  `queue` is reused
/// across columns and read from a head index, never popped.
fn bfs_column<C: Cell>(
    reverse: &Digraph,
    dst: NodeId,
    column: &mut [C],
    queue: &mut Vec<NodeId>,
) -> Option<()> {
    column.fill(C::UNREACHABLE);
    column[dst] = C::from_hops(0)?;
    queue.clear();
    queue.push(dst);
    let mut head = 0;
    while let Some(&w) = queue.get(head) {
        head += 1;
        let hops = column[w].into() + 1;
        for &u in reverse.out_neighbors(w) {
            if column[u] == C::UNREACHABLE {
                column[u] = C::from_hops(hops)?;
                queue.push(u);
            }
        }
    }
    Some(())
}

/// The fault-dependent inputs of one [`DistanceTable::repaired`] call.
struct Repair<'a> {
    survivor: &'a Digraph,
    reverse: Digraph,
    failed: &'a [NodeId],
    node_failed: &'a [bool],
    /// Live nodes that may have lost an out-arc, sorted.
    touched: &'a [NodeId],
}

impl Repair<'_> {
    /// Repairs `base` column by column in width `C`; `None` when a
    /// recomputed distance does not fit `C`.
    fn run<C: Cell>(&self, base: &[C]) -> Option<Arc<[C]>> {
        let n = self.survivor.node_count();
        let mut cells: Arc<[C]> = Arc::from(base);
        let columns = Arc::get_mut(&mut cells).expect("a fresh table is unshared");
        let mut queue = Vec::with_capacity(n);
        for (dst, column) in columns.chunks_exact_mut(n.max(1)).enumerate() {
            if self.node_failed[dst] {
                column.fill(C::UNREACHABLE);
                column[dst] = C::from_hops(0)?;
            } else if self.keeps_base_distances(column, dst) {
                for &f in self.failed {
                    column[f] = C::UNREACHABLE;
                }
            } else {
                bfs_column(&self.reverse, dst, column, &mut queue)?;
            }
        }
        Some(cells)
    }

    /// Whether every touched live node still has a surviving out-neighbour
    /// one base hop closer to `dst` (`column` holds the base distances).
    fn keeps_base_distances<C: Cell>(&self, column: &[C], dst: NodeId) -> bool {
        self.touched.iter().all(|&u| {
            let d = column[u];
            if u == dst || d == C::UNREACHABLE {
                return true;
            }
            let closer = d.into() - 1;
            self.survivor
                .out_neighbors(u)
                .iter()
                .any(|&w| column[w] != C::UNREACHABLE && column[w].into() == closer)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_tolerant::surviving_subgraph;
    use otis_topologies::de_bruijn;

    #[test]
    fn clones_share_their_cells() {
        let table = DistanceTable::new(&de_bruijn(2, 3));
        let copy = table.clone();
        match (&table.cells, &copy.cells) {
            (Cells::Narrow(a), Cells::Narrow(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => panic!("de Bruijn distances fit one byte"),
        }
    }

    #[test]
    fn wide_base_repairs_back_to_one_byte() {
        // A 300-node directed cycle has diameter 299 and needs two bytes;
        // failing nodes 200..300 leaves a 200-node path, so the repaired
        // table narrows to one byte like the from-scratch one.
        let n = 300;
        let arcs: Vec<_> = (0..n).map(|u| (u, (u + 1) % n)).collect();
        let g = Digraph::from_edges(n, &arcs);
        let base = DistanceTable::new(&g);
        assert_eq!(base.bytes_per_pair(), 2);
        let faults = FaultSet::from_nodes(200..n);
        let survivor = surviving_subgraph(&g, &faults);
        let repaired = base.repaired(&survivor, &faults);
        assert_eq!(repaired.bytes_per_pair(), 1);
        assert_eq!(repaired, DistanceTable::new(&survivor));
    }

    #[test]
    #[should_panic(expected = "a distance table stores at most 65535 nodes")]
    fn oversized_graphs_are_refused() {
        DistanceTable::new(&Digraph::empty(DistanceTable::MAX_NODES + 1));
    }
}
