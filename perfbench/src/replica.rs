//! A serial replica of `run_grid_streaming`, built only from the layers'
//! public functions, so each layer can be timed on its own.
//!
//! It walks the cells in grid order and does what one engine worker does:
//! it builds each kernel the first time a cell needs it (the spec's
//! fault-free base by `Network::prepare_with_alternates`, faulted kernels
//! by `PreparedSim::repair`, fault-free slots by cloning the base, fault
//! timelines by `PreparedSim::timeline`), runs the cell's slot loop through
//! the scratch-pooled entry points, and renders the row through a
//! `JsonLinesSink`.  Its rows must equal the engine's byte for byte; the
//! benchmark checks that on every run.

use crate::probe::Sample;
use crate::trace::Tracer;
use otis_net::{
    DemandSpec, FaultSet, JsonLinesSink, Network, NetworkError, PreparedSim, PreparedTimeline,
    RowSink, ScenarioGrid, ScenarioRow, SimOptions, WavelengthConfig,
};
use otis_sim::SlotScratch;
use std::time::{Duration, Instant};

/// How much of the grid to replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Build every network, bind every workload and schedule, compute
    /// hardware costs where the wavelength layer is on, and prepare every
    /// kernel and timeline the cells use.  No slot is simulated.
    Setup,
    /// [`Mode::Setup`] plus every cell's slot loop and its rendered row.
    Full,
}

/// What one cell ran: the attributes the per-layer split groups by, and the
/// simulated work it did.
#[derive(Debug)]
pub struct CellInfo {
    pub multi_ops: bool,
    pub wavelengths: usize,
    pub timeline: bool,
    pub demand: bool,
    pub node_slots: u64,
    pub hops: u64,
    pub injected: u64,
    pub delivered: u64,
}

/// Counts and probe readings the spans alone do not carry.
#[derive(Debug, Default)]
pub struct Counters {
    pub binds: usize,
    pub nodes: usize,
    pub links: usize,
    pub prepares: usize,
    pub repairs: usize,
    pub timelines: usize,
    pub epochs: usize,
    pub prepare_rss_kib: i64,
    pub prepare_minor_faults: u64,
    pub repair_rss_kib: i64,
    pub repair_minor_faults: u64,
}

/// The replica's output.
#[derive(Debug)]
pub struct Replay {
    /// The rendered rows (empty in [`Mode::Setup`]).
    pub jsonl: Vec<u8>,
    pub cells: Vec<CellInfo>,
    pub counters: Counters,
    /// Time from the call to the last row (or the last kernel, in
    /// [`Mode::Setup`]), before the kernels are dropped.
    pub elapsed: Duration,
}

/// A cell's coordinates, in the engine's documented grid order:
/// wavelength counts outermost, then schedules, workloads, specs, seeds,
/// and fault sets innermost.
struct Cell {
    spec: usize,
    workload: usize,
    seed: u64,
    fault_set: usize,
    schedule: usize,
    wavelengths: usize,
}

fn cell_at(grid: &ScenarioGrid, index: usize) -> Cell {
    let faults = grid.fault_sets.len();
    let seeds = grid.seeds.len();
    let specs = grid.specs.len();
    let workloads = grid.workloads.len();
    let schedules = grid.fault_schedules.len();
    let mut rest = index;
    let mut take = |len: usize| {
        let coordinate = rest % len;
        rest /= len;
        coordinate
    };
    let fault_set = take(faults);
    let seed = grid.seeds[take(seeds)];
    let spec = take(specs);
    let workload = take(workloads);
    let schedule = take(schedules);
    Cell {
        spec,
        workload,
        seed,
        fault_set,
        schedule,
        wavelengths: grid.wavelengths[rest],
    }
}

/// Runs a probe-bracketed layer call: the probes are read outside the span
/// and only when tracing, so untraced runs pay nothing for them.
fn probed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    cell: usize,
    call: impl FnOnce() -> T,
) -> (T, Sample) {
    let before = tracer.enabled().then(Sample::now);
    let span = tracer.begin(name, Some(cell));
    let value = call();
    tracer.end(span);
    let delta = before.map_or_else(Sample::default, |before| {
        let after = Sample::now();
        Sample {
            rss_kib: after.rss_kib - before.rss_kib,
            minor_faults: after.minor_faults.saturating_sub(before.minor_faults),
        }
    });
    (value, delta)
}

/// Replays `grid` serially; see the module docs.
pub fn replay(
    grid: &ScenarioGrid,
    mode: Mode,
    tracer: &mut Tracer,
) -> Result<Replay, NetworkError> {
    let started = Instant::now();
    let root = tracer.begin("run", None);
    let mut counters = Counters::default();
    let alt_paths = grid.options.alt_paths;

    let mut networks = Vec::with_capacity(grid.specs.len());
    for &spec in &grid.specs {
        let span = tracer.begin("graph_build", None);
        let network = Network::new(spec)?;
        tracer.end(span);
        counters.nodes += network.node_count();
        counters.links += network.link_count();
        networks.push(network);
    }

    let span = tracer.begin("bind", None);
    for spec in &grid.specs {
        let domain = spec
            .fault_domain_size()
            .expect("Network::new validated the spec");
        for schedule in grid.fault_schedules.iter().filter(|s| !s.is_empty()) {
            for faults in &grid.fault_sets {
                schedule.bind(domain, faults)?;
                counters.binds += 1;
            }
        }
    }
    tracer.end(span);

    let hardware_costs: Option<Vec<usize>> = grid.wavelength_layer_enabled().then(|| {
        let span = tracer.begin("design", None);
        let costs = networks.iter().map(Network::hardware_cost).collect();
        tracer.end(span);
        costs
    });

    let node_counts: Vec<usize> = networks.iter().map(Network::node_count).collect();
    let span = tracer.begin("bind", None);
    let demands: Result<Vec<Vec<DemandSpec>>, _> = grid
        .workloads
        .iter()
        .map(|workload| {
            node_counts
                .iter()
                .map(|&n| workload.bind(n))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect();
    tracer.end(span);
    let demands = demands.map_err(NetworkError::from)?;
    counters.binds += grid.workloads.len() * networks.len();

    let mut sink = JsonLinesSink::new(Vec::new());
    if mode == Mode::Full {
        let span = tracer.begin("sink", None);
        sink.on_start(grid).map_err(sink_error)?;
        tracer.end(span);
    }

    let fault_sets = grid.fault_sets.len();
    let schedules = grid.fault_schedules.len();
    let mut bases: Vec<Option<PreparedSim>> = grid.specs.iter().map(|_| None).collect();
    let mut kernels: Vec<Option<PreparedSim>> =
        (0..grid.specs.len() * fault_sets).map(|_| None).collect();
    let mut timelines: Vec<Option<PreparedTimeline>> =
        (0..kernels.len() * schedules).map(|_| None).collect();
    let mut scratch = SlotScratch::new();
    let mut cells = Vec::new();

    for index in 0..grid.cell_count() {
        let cell_span = tracer.begin("cell", Some(index));
        let cell = cell_at(grid, index);
        let slot = cell.spec * fault_sets + cell.fault_set;
        let faults = &grid.fault_sets[cell.fault_set];

        if bases[cell.spec].is_none() {
            let (base, delta) = probed(tracer, "prepare", index, || {
                networks[cell.spec].prepare_with_alternates(&FaultSet::new(), alt_paths)
            });
            counters.prepares += 1;
            counters.prepare_rss_kib += delta.rss_kib;
            counters.prepare_minor_faults += delta.minor_faults;
            bases[cell.spec] = Some(base);
        }
        let base = bases[cell.spec].as_ref().expect("filled above");
        if kernels[slot].is_none() {
            let kernel = if faults.is_empty() {
                // The engine fills fault-free slots with a full copy of the
                // base; that copy is timed as its own span.
                let span = tracer.begin("clone", Some(index));
                let kernel = base.clone();
                tracer.end(span);
                kernel
            } else {
                let (kernel, delta) =
                    probed(tracer, "repair", index, || base.repair(faults, alt_paths));
                counters.repairs += 1;
                counters.repair_rss_kib += delta.rss_kib;
                counters.repair_minor_faults += delta.minor_faults;
                kernel
            };
            kernels[slot] = Some(kernel);
        }
        let kernel = kernels[slot].as_ref().expect("filled above");

        let schedule = &grid.fault_schedules[cell.schedule];
        let timeline_slot = slot * schedules + cell.schedule;
        if !schedule.is_empty() && timelines[timeline_slot].is_none() {
            let span = tracer.begin("timeline", Some(index));
            let timeline = PreparedSim::timeline(base, kernel, schedule, alt_paths);
            tracer.end(span);
            let timeline = timeline.expect("schedules were bound above");
            counters.timelines += 1;
            counters.epochs += timeline.len();
            timelines[timeline_slot] = Some(timeline);
        }
        let timeline = timelines[timeline_slot].as_ref();

        if mode == Mode::Full {
            let demand = &demands[cell.workload][cell.spec];
            let options = SimOptions {
                seed: cell.seed,
                faults: faults.clone(),
                wavelengths: WavelengthConfig {
                    count: cell.wavelengths,
                    assignment: grid.options.wavelengths.assignment,
                },
                ..grid.options.clone()
            };
            let span = tracer.begin("simulate", Some(index));
            let metrics = match demand {
                DemandSpec::Pattern(pattern) => {
                    kernel.run_with_timeline_scratch(timeline, pattern, &options, &mut scratch)
                }
                demand => {
                    let mut source = demand
                        .source()
                        .expect("only trace workloads open files, and no grid here has one");
                    kernel.run_demand_with_timeline_scratch(
                        timeline,
                        &mut source,
                        &options,
                        &mut scratch,
                    )
                }
            };
            tracer.end(span);
            cells.push(CellInfo {
                multi_ops: matches!(kernel, PreparedSim::MultiOps(_)),
                wavelengths: cell.wavelengths,
                timeline: timeline.is_some(),
                demand: !matches!(demand, DemandSpec::Pattern(_)),
                node_slots: metrics.slots * metrics.processors as u64,
                hops: metrics.total_hops,
                injected: metrics.injected,
                delivered: metrics.delivered,
            });
            let row = ScenarioRow {
                spec: *networks[cell.spec].spec(),
                offered_load: demand.offered_load(),
                traffic: grid.workloads[cell.workload].clone(),
                seed: cell.seed,
                fault_count: options.faults.len(),
                faults: options.faults,
                fault_schedule: schedule.clone(),
                hardware_cost: hardware_costs.as_ref().map(|costs| costs[cell.spec]),
                metrics,
            };
            let span = tracer.begin("sink", Some(index));
            let rendered = sink.on_row(index, row);
            tracer.end(span);
            rendered.map_err(sink_error)?;
        }
        tracer.end(cell_span);
    }

    if mode == Mode::Full {
        let span = tracer.begin("sink", None);
        sink.finish().map_err(sink_error)?;
        tracer.end(span);
    }
    tracer.end(root);
    Ok(Replay {
        elapsed: started.elapsed(),
        jsonl: sink.into_inner(),
        cells,
        counters,
    })
}

fn sink_error(e: std::io::Error) -> NetworkError {
    NetworkError::Sink {
        detail: e.to_string(),
    }
}
