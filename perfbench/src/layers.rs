//! The per-layer split: self times from the traced replica's spans, counts
//! from its counters and cells, and the engine counters of the end-to-end
//! run's `StreamSummary`.

use crate::quantile;
use crate::replica::{CellInfo, Counters, Replay};
use crate::trace::{self_times, Span};
use otis_net::StreamSummary;

/// Span names that are layers; `run` and `cell` are wrappers whose self
/// time is the reported remainder.
const LAYERS: [&str; 9] = [
    "bind",
    "graph_build",
    "design",
    "prepare",
    "repair",
    "clone",
    "timeline",
    "simulate",
    "sink",
];

const MIB: f64 = 1024.0;

/// Every per-layer metric as `(name, value, unit)`, in the order of
/// `BENCHMARK.json`.  Memory probes come from `memory`, the counters of
/// the process's first replica; everything else from `replica`.
pub fn metrics(
    replica: &Replay,
    memory: &Counters,
    spans: &[Span],
    summary: &StreamSummary,
    parallel_wall_s: f64,
    serial_wall_s: f64,
    workers: usize,
) -> Vec<(&'static str, f64, &'static str)> {
    let self_ns = self_times(spans);
    let busy = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e9;
    let total_s = spans
        .iter()
        .find(|span| span.name == "run")
        .map_or(0.0, |span| span.duration_ns() as f64 / 1e9);
    let accounted: f64 = LAYERS.iter().map(|name| busy(name)).sum();

    // Slot-loop spans, one per cell, in cell order.
    let simulate: Vec<(&Span, &CellInfo)> = spans
        .iter()
        .filter(|span| span.name == "simulate")
        .zip(&replica.cells)
        .collect();
    let simulate_where = |keep: fn(&CellInfo) -> bool| {
        simulate
            .iter()
            .filter(|(_, cell)| keep(cell))
            .map(|(span, _)| span.duration_ns() as f64 / 1e9)
            .fold(0.0, |total, s| total + s)
    };
    let cell_ms: Vec<f64> = simulate
        .iter()
        .map(|(span, _)| span.duration_ns() as f64 / 1e6)
        .collect();
    let sum = |field: fn(&CellInfo) -> u64| replica.cells.iter().map(field).sum::<u64>() as f64;
    let node_slots = sum(|c| c.node_slots);
    let hops = sum(|c| c.hops);
    let simulate_s = busy("simulate");
    let c = &replica.counters;

    vec![
        ("bind.calls", c.binds as f64, "count"),
        ("bind.busy_s", busy("bind"), "s"),
        ("graph_build.busy_s", busy("graph_build"), "s"),
        ("graph_build.nodes", c.nodes as f64, "count"),
        ("graph_build.links", c.links as f64, "count"),
        ("design.busy_s", busy("design"), "s"),
        ("prepare.calls", c.prepares as f64, "count"),
        ("prepare.busy_s", busy("prepare"), "s"),
        (
            "prepare.rss_delta_mib",
            memory.prepare_rss_kib as f64 / MIB,
            "MiB",
        ),
        (
            "prepare.minor_faults",
            memory.prepare_minor_faults as f64,
            "count",
        ),
        ("repair.calls", c.repairs as f64, "count"),
        ("repair.busy_s", busy("repair"), "s"),
        (
            "repair.rss_delta_mib",
            memory.repair_rss_kib as f64 / MIB,
            "MiB",
        ),
        (
            "repair.minor_faults",
            memory.repair_minor_faults as f64,
            "count",
        ),
        ("repair.clone_busy_s", busy("clone"), "s"),
        ("timeline.calls", c.timelines as f64, "count"),
        ("timeline.epochs", c.epochs as f64, "count"),
        ("timeline.busy_s", busy("timeline"), "s"),
        ("simulate.cells", replica.cells.len() as f64, "count"),
        ("simulate.busy_s", simulate_s, "s"),
        ("simulate.node_slots", node_slots, "count"),
        ("simulate.node_slots_per_s", node_slots / simulate_s, "1/s"),
        ("simulate.hops", hops, "count"),
        ("simulate.ns_per_hop", simulate_s * 1e9 / hops, "ns"),
        ("simulate.cell_p50_ms", quantile(&cell_ms, 0.5), "ms"),
        ("simulate.cell_p99_ms", quantile(&cell_ms, 0.99), "ms"),
        ("simulate.cell_max_ms", quantile(&cell_ms, 1.0), "ms"),
        (
            "simulate.hot_potato.busy_s",
            simulate_where(|c| !c.multi_ops),
            "s",
        ),
        (
            "simulate.multi_ops.busy_s",
            simulate_where(|c| c.multi_ops),
            "s",
        ),
        (
            "simulate.wdm.busy_s",
            simulate_where(|c| c.wavelengths > 1),
            "s",
        ),
        (
            "simulate.timeline.busy_s",
            simulate_where(|c| c.timeline),
            "s",
        ),
        ("simulate.demand.busy_s", simulate_where(|c| c.demand), "s"),
        (
            "simulate.delivered_ratio",
            sum(|c| c.delivered) / sum(|c| c.injected),
            "ratio",
        ),
        ("sink.rows", replica.cells.len() as f64, "count"),
        ("sink.bytes", replica.jsonl.len() as f64, "bytes"),
        ("sink.busy_s", busy("sink"), "s"),
        (
            "engine.kernels_built",
            summary.kernels_built as f64,
            "count",
        ),
        (
            "engine.kernels_repaired",
            summary.kernels_repaired as f64,
            "count",
        ),
        ("engine.kernel_swaps", summary.kernel_swaps as f64, "count"),
        (
            "engine.scratch_reuses",
            summary.scratch_reuses as f64,
            "count",
        ),
        (
            "engine.peak_buffered",
            summary.peak_buffered as f64,
            "count",
        ),
        (
            "engine.parallel_efficiency",
            total_s / (workers as f64 * parallel_wall_s),
            "ratio",
        ),
        ("trace.total_s", total_s, "s"),
        ("trace.remainder_s", total_s - accounted, "s"),
        ("trace.overhead_s", total_s - serial_wall_s, "s"),
    ]
}
