//! The study benchmark: times three reference scenario grids end to end
//! through `otis_net::run_grid_streaming`, checks every row, and splits a
//! traced serial replica of the same cells by layer.  See README.md.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload <name> --record-reference
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod check;
mod grids;
mod layers;
mod probe;
mod replica;
mod trace;

use check::Checker;
use grids::Workload;
use otis_net::{
    run_grid_streaming, JsonLinesSink, NetworkError, RowSink, ScenarioGrid, ScenarioRow,
    StreamSummary,
};
use replica::{replay, Mode};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::Tracer;

/// The workload seed the reference digests were recorded at.
pub const DEFAULT_SEED: u64 = 1;
/// Worker threads of every end-to-end engine run.
const WORKERS: usize = 2;
/// Fewest timed repetitions per run, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Set-up passes repeat within one repetition until this much time has
/// passed, so a grid that sets up in milliseconds still gets a steady
/// median.
const SETUP_BATCH: Duration = Duration::from_millis(50);

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    peak_rss_child: bool,
    record_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Db11FaultSweep,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        peak_rss_child: false,
        record_reference: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::from_name(&name).ok_or(format!(
                    "unknown workload {name:?}; expected one of {:?}",
                    Workload::ALL.map(Workload::name)
                ))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--peak-rss-child" => args.peak_rss_child = true,
            "--record-reference" => args.record_reference = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.peak_rss_child {
            peak_rss_child(&args)
        } else if args.record_reference {
            record_reference(&args)
        } else if args.trace {
            measure_layers(&args)
        } else {
            measure_end_to_end(&args)
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The benchmark package's own directory (references, span output).
fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn net_error(e: NetworkError) -> String {
    format!("the grid failed: {e}")
}

/// One end-to-end engine run's output.
struct EngineRun {
    /// From the `run_grid_streaming` call to the sink's `finish`.
    wall: Duration,
    summary: Option<StreamSummary>,
    jsonl: Vec<u8>,
}

/// A JSON Lines sink into memory that notes when `finish` was called.
struct TimedSink {
    inner: JsonLinesSink<Vec<u8>>,
    finished: Option<Instant>,
}

impl RowSink for TimedSink {
    fn on_start(&mut self, grid: &ScenarioGrid) -> std::io::Result<()> {
        self.inner.on_start(grid)
    }

    fn on_row(&mut self, index: usize, row: ScenarioRow) -> std::io::Result<()> {
        self.inner.on_row(index, row)
    }

    fn finish(&mut self) -> std::io::Result<()> {
        self.inner.finish()?;
        self.finished = Some(Instant::now());
        Ok(())
    }
}

/// Runs the grid through the engine.  An engine error is reported as a run
/// without a summary, so its cells count as missing rows, not as a crash.
fn run_engine(grid: &ScenarioGrid, threads: usize) -> EngineRun {
    let mut sink = TimedSink {
        inner: JsonLinesSink::new(Vec::new()),
        finished: None,
    };
    let start = Instant::now();
    let result = run_grid_streaming(grid, threads, &mut sink);
    let end = sink.finished.unwrap_or_else(Instant::now);
    if let Err(e) = &result {
        eprintln!("perfbench: engine run failed: {e}");
    }
    EngineRun {
        wall: end - start,
        summary: result.ok(),
        jsonl: sink.inner.into_inner(),
    }
}

/// `--peak-rss-child`: runs only this workload's grid, once, and prints the
/// process's resident high-water mark.
fn peak_rss_child(args: &Args) -> Result<(), String> {
    let grid = args.workload.grid(args.seed);
    let run = run_engine(&grid, WORKERS);
    run.summary.ok_or("the engine run failed")?;
    let hwm = probe::status_kib("VmHWM").ok_or("/proc/self/status has no VmHWM")?;
    println!("vmhwm_kib {hwm}");
    Ok(())
}

/// Starts a fresh copy of this program that runs only the grid and returns
/// its `VmHWM` in MiB.
fn measure_peak_rss(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed"])
        .arg(args.seed.to_string())
        .arg("--peak-rss-child")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the peak-RSS child: {e}"))?;
    if !output.status.success() {
        return Err(format!("the peak-RSS child failed: {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .find_map(|line| line.strip_prefix("vmhwm_kib ")?.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "the peak-RSS child printed no VmHWM".to_string())
}

/// `--trace 0`: the end-to-end metrics.
fn measure_end_to_end(args: &Args) -> Result<(), String> {
    let grid = args.workload.grid(args.seed);
    let expected = replay(&grid, Mode::Full, &mut Tracer::new(false)).map_err(net_error)?;
    let mut checker = Checker::new(args, grid.cell_count(), expected.jsonl)?;
    let peak_rss_mib = measure_peak_rss(args)?;

    // Engine runs and set-up batches interleave, so a slow stretch of the
    // host lands on both samples alike.  Set-up gets about a third of the
    // time: the wall-clock median is the one held to the tighter spread.
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let (mut walls, mut setups) = (Vec::new(), Vec::new());
    let (mut wall_time, mut setup_time) = (Duration::ZERO, Duration::ZERO);
    while walls.len() < MIN_REPS || started.elapsed() < budget {
        if setup_time <= wall_time / 2 {
            let batch = Instant::now();
            loop {
                let setup =
                    replay(&grid, Mode::Setup, &mut Tracer::new(false)).map_err(net_error)?;
                setups.push(setup.elapsed.as_secs_f64());
                if batch.elapsed() >= SETUP_BATCH {
                    break;
                }
            }
            setup_time += batch.elapsed();
        }
        let run = run_engine(&grid, WORKERS);
        checker.check(&run.jsonl, run.summary.is_some());
        walls.push(run.wall.as_secs_f64());
        wall_time += run.wall;
    }

    print_header(args, &grid);
    let pass_ratio = 1.0 - checker.failed as f64 / checker.attempted as f64;
    let metrics = [
        ("wall_s", median(&walls), "s"),
        ("setup_s", median(&setups), "s"),
        ("peak_rss_mib", peak_rss_mib, "MiB"),
        ("cell_pass_ratio", pass_ratio, "ratio"),
    ];
    println!("{}", describe("wall_s", &walls, "s"));
    println!("{}", describe("setup_s", &setups, "s"));
    println!("peak_rss_mib = {peak_rss_mib} MiB (VmHWM of a process that ran only this grid)");
    println!(
        "cell_failure_ratio = {} ratio ({} of {} checked rows failed)",
        checker.failed as f64 / checker.attempted as f64,
        checker.failed,
        checker.attempted
    );
    print_result(&checker, &metrics)
}

/// `--trace 1`: the per-layer metrics.
fn measure_layers(args: &Args) -> Result<(), String> {
    let grid = args.workload.grid(args.seed);

    // Traced replicas alternate with untraced 1-worker engine runs.  Layer
    // times come from the replica with the median traced total; memory
    // probes come from the first replica, which runs before anything else
    // in this process has allocated (freed heap would hide page faults).
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut serial = Vec::new();
    let mut traced = Vec::new();
    while traced.is_empty() || started.elapsed() < budget {
        let mut tracer = Tracer::new(true);
        let replica = replay(&grid, Mode::Full, &mut tracer).map_err(net_error)?;
        traced.push((replica, tracer));
        serial.push(run_engine(&grid, 1));
    }
    let parallel = run_engine(&grid, WORKERS);
    let summary = parallel.summary.ok_or("the 2-worker engine run failed")?;

    let traced_totals: Vec<f64> = traced
        .iter()
        .map(|(replica, _)| replica.elapsed.as_secs_f64())
        .collect();
    let serial_walls: Vec<f64> = serial.iter().map(|run| run.wall.as_secs_f64()).collect();
    let mut order: Vec<usize> = (0..traced.len()).collect();
    order.sort_by_key(|&i| traced[i].0.elapsed);
    let (replica, tracer) = &traced[order[order.len() / 2]];

    let mut checker = Checker::new(args, grid.cell_count(), replica.jsonl.clone())?;
    checker.check(&parallel.jsonl, true);
    for run in &serial {
        checker.check(&run.jsonl, run.summary.is_some());
    }
    for (other, _) in &traced {
        checker.check(&other.jsonl, true);
    }

    let out_dir = package_dir().join("out");
    let spans_path = write_spans(&out_dir, args, tracer)?;
    let metrics = layers::metrics(
        replica,
        &traced[0].0.counters,
        tracer.spans(),
        &summary,
        parallel.wall.as_secs_f64(),
        median(&serial_walls),
        WORKERS,
    );

    print_header(args, &grid);
    println!(
        "# traced replica: {} span(s) written to {}",
        tracer.spans().len(),
        spans_path.display()
    );
    println!("# {}", describe("traced_total_s", &traced_totals, "s"));
    println!(
        "# {}",
        describe("untraced_1_worker_wall_s", &serial_walls, "s")
    );
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    print_result(&checker, &metrics)
}

fn write_spans(out_dir: &Path, args: &Args, tracer: &Tracer) -> Result<PathBuf, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let mut out = Vec::new();
    tracer
        .write_jsonl(&mut out)
        .and_then(|()| std::fs::write(&path, out))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// `--record-reference`: records the per-row digests of the engine's rows
/// at the default seed, after checking them against the replica.
fn record_reference(args: &Args) -> Result<(), String> {
    let grid = args.workload.grid(DEFAULT_SEED);
    let expected = replay(&grid, Mode::Full, &mut Tracer::new(false)).map_err(net_error)?;
    let run = run_engine(&grid, WORKERS);
    if run.summary.is_none() || run.jsonl != expected.jsonl {
        return Err("engine and replica rows differ; nothing recorded".into());
    }
    let path = check::reference_path(args.workload);
    check::write_reference(&path, args.workload, &run.jsonl)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "recorded {} row digest(s) in {}",
        grid.cell_count(),
        path.display()
    );
    Ok(())
}

fn print_header(args: &Args, grid: &ScenarioGrid) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench workload={} seed={} grid_seeds={:?} cells={} workers={WORKERS} cores={cores} git_rev={} source_fnv={:016x}",
        args.workload.name(),
        args.seed,
        grid.seeds,
        grid.cell_count(),
        git_rev(),
        check::source_digest(&package_dir().join("..")),
    );
}

/// The checkout's git revision, or `unknown` outside a git work tree.
fn git_rev() -> String {
    let root = package_dir().join("..");
    let git = |args: &[&str]| {
        Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    // Only a work tree rooted at this checkout counts, not an enclosing one.
    let toplevel = git(&["rev-parse", "--show-toplevel"]).map(PathBuf::from);
    match (toplevel, root.canonicalize()) {
        (Some(top), Ok(root)) if top == root => {
            git(&["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into())
        }
        _ => "unknown".into(),
    }
}

/// Prints the result line.  A metric that came out undefined means the
/// benchmark itself is broken, so it fails the run instead of printing.
fn print_result(checker: &Checker, metrics: &[(&str, f64, &str)]) -> Result<(), String> {
    if let Some((name, value, _)) = metrics.iter().find(|(_, value, _)| !value.is_finite()) {
        return Err(format!("metric {name} is undefined ({value})"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // `{:?}` is the shortest form that reads back as the same f64.
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checker.failed == 0,
        checker.attempted,
        checker.failed,
        body.join(",")
    );
    Ok(())
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile of the sorted sample (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn describe(name: &str, values: &[f64], unit: &str) -> String {
    format!(
        "{name} = {} {unit} (median of {}; q1 {}, q3 {}, min {}, max {})",
        median(values),
        values.len(),
        quantile(values, 0.25),
        quantile(values, 0.75),
        quantile(values, 0.0),
        quantile(values, 1.0),
    )
}
