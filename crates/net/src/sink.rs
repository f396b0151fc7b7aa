//! Streaming result sinks and the row schema they render.
//!
//! [`crate::engine::run_grid_streaming`] hands each completed grid cell to a
//! [`RowSink`] **in deterministic grid order** while later cells are still
//! running, so a grid's memory footprint is bounded by the engine's reorder
//! window instead of its cell count.  This module defines the sink trait and
//! the built-in sinks:
//!
//! * [`CollectSink`] — collects rows into a `Vec` (what
//!   [`crate::engine::run_grid`] is built on);
//! * [`TableSink`] — the human-readable fixed-width table of the `scenarios`
//!   CLI (undefined averages render as `-`);
//! * [`CsvSink`] — RFC-4180-style CSV with a header row; undefined averages
//!   become **empty fields**, spec strings containing commas are quoted;
//! * [`JsonLinesSink`] — one JSON object per row, hand-rolled (the workspace
//!   is offline — no serde); undefined averages become `null`.
//!
//! ## One schema, three tiers
//!
//! Every format renders from one column list, [`COLUMNS`]: each [`Column`]
//! names a field, the [`Tier`] that introduced it, and how to extract its
//! [`FieldValue`] from a [`ScenarioRow`].  A column is added in exactly one
//! place — appended to `COLUMNS` — and the schema is append-only, so
//! downstream tooling can rely on existing names and positions.  CSV and
//! JSON Lines emit the columns in list order; the text table shows a subset
//! in its own order, laid out by a second list keyed by column name.
//!
//! Each tier is a prefix of `COLUMNS` ([`Tier::columns`]), and each sink
//! picks its tier once, in [`RowSink::on_start`], with [`Tier::of`]:
//!
//! * [`Tier::Legacy`] — the grid coordinates plus the core simulation
//!   metrics; capacity-1, schedule-free grids stream these columns
//!   **byte-identical** to the pre-wavelength engine;
//! * [`Tier::Extended`] — grids that exercise the wavelength layer
//!   ([`ScenarioGrid::wavelength_layer_enabled`]) add the wavelength metrics
//!   and the `cost_per_bit` composite;
//! * [`Tier::Restoration`] — grids with a non-empty fault schedule on any
//!   axis entry ([`ScenarioGrid::fault_schedule_enabled`]) add the
//!   `fault_schedule` coordinate (`none` on static cells) and the
//!   restoration metrics.
//!
//! Statistics a cell leaves undefined — averages over zero deliveries,
//! wavelength statistics of a capacity-1 cell, restoration statistics of a
//! cell where no kernel swap happened — render as the format's native
//! undefined sentinel: `-` in the table, an empty field in CSV, `null` in
//! JSON Lines, never the string `"NaN"`.

use crate::engine::{ScenarioGrid, ScenarioRow};
use otis_routing::FaultSet;
use std::fmt::{self, Write as _};
use std::io::{self, Write};
use FieldValue::{Float, Int, Text};
use Tier::{Extended, Legacy, Restoration};

/// A streaming observer of scenario rows.
///
/// [`crate::engine::run_grid_streaming`] calls [`RowSink::on_start`] once
/// before any cell runs, [`RowSink::on_row`] once per cell **in grid order**
/// (`index` counts 0, 1, 2, … with no gaps), and [`RowSink::finish`] once
/// after the last row.  An error from any method aborts the run and surfaces
/// as [`crate::NetworkError::Sink`]; `finish` is *not* called after an
/// aborted run.
pub trait RowSink {
    /// Called once before execution starts, with the grid about to run.
    fn on_start(&mut self, grid: &ScenarioGrid) -> io::Result<()> {
        let _ = grid;
        Ok(())
    }

    /// Called once per cell, in grid order; `index` is the row's position.
    fn on_row(&mut self, index: usize, row: ScenarioRow) -> io::Result<()>;

    /// Called once after the last row; flush buffered output here.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One serializable field of a [`ScenarioRow`], as extracted by a
/// [`Column`].
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A string-valued field (spec, traffic, fault pattern, schedule).
    Text(String),
    /// An exact counter.
    Int(u64),
    /// A float statistic; `NaN` marks an undefined value and renders as an
    /// empty CSV field or a JSON `null`, never the string `"NaN"`.
    Float(f64),
}

impl FieldValue {
    /// Renders the field for a CSV record: undefined floats are empty,
    /// text is quoted when it contains a comma, quote or newline.
    pub fn to_csv_field(&self) -> String {
        match self {
            Text(s) => csv_escape(s),
            Int(v) => v.to_string(),
            Float(v) if v.is_finite() => v.to_string(),
            Float(_) => String::new(),
        }
    }

    /// Renders the field as a JSON value: undefined floats are `null`,
    /// text is a JSON string with full escaping.
    pub fn to_json_value(&self) -> String {
        match self {
            Text(s) => json_escape(s),
            Int(v) => v.to_string(),
            Float(v) if v.is_finite() => v.to_string(),
            Float(_) => "null".to_string(),
        }
    }

    /// Renders the field as a fixed-width table cell: text left-aligned,
    /// integers right-aligned, floats through [`fmt_stat`] (undefined as
    /// `-`).
    fn to_table_cell(&self, width: usize, precision: usize) -> String {
        match self {
            Text(s) => format!("{s:<width$}"),
            Int(v) => format!("{v:>width$}"),
            Float(v) => fmt_stat(*v, width, precision),
        }
    }
}

/// Formats a statistic for a fixed-width table column, rendering undefined
/// values (`NaN`, e.g. an average over zero deliveries) as `-`.
pub(crate) fn fmt_stat(value: f64, width: usize, precision: usize) -> String {
    if value.is_nan() {
        format!("{:>width$}", "-")
    } else {
        format!("{value:>width$.precision$}")
    }
}

/// Quotes a CSV field when needed (comma, double quote, CR or LF inside),
/// doubling any inner quotes, per RFC 4180.
fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Renders a JSON string literal with the mandatory escapes.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a fault pattern for the machine formats: sorted failed nodes,
/// then failed arcs as `u->v`, space-separated; empty for an intact cell.
fn render_faults(faults: &FaultSet) -> String {
    let mut parts: Vec<String> = faults
        .sorted_nodes()
        .into_iter()
        .map(|n| n.to_string())
        .collect();
    parts.extend(
        faults
            .sorted_arcs()
            .into_iter()
            .map(|(u, v)| format!("{u}->{v}")),
    );
    parts.join(" ")
}

/// A schema tier: which prefix of [`COLUMNS`] a grid's rows carry.  Tiers
/// are ordered; each includes every column of the tiers below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Grid coordinates plus the core simulation metrics.
    Legacy,
    /// The legacy columns plus the wavelength metrics and `cost_per_bit`.
    Extended,
    /// The extended columns plus `fault_schedule` and the restoration
    /// metrics.
    Restoration,
}

impl Tier {
    /// The tier a grid's rows are rendered at: restoration when any cell
    /// runs a fault schedule, extended when the grid exercises the
    /// wavelength layer, legacy otherwise.
    pub fn of(grid: &ScenarioGrid) -> Tier {
        if grid.fault_schedule_enabled() {
            Restoration
        } else if grid.wavelength_layer_enabled() {
            Extended
        } else {
            Legacy
        }
    }

    /// The machine-readable columns of this tier, in emission order: the
    /// prefix of [`COLUMNS`] whose tiers do not exceed it.
    pub fn columns(self) -> &'static [Column] {
        &COLUMNS[..COLUMNS.partition_point(|c| c.tier <= self)]
    }

    /// The text table's header line at this tier.
    pub fn table_header(self) -> String {
        self.table_line(|layout, _| {
            let (header, width) = (layout.header, layout.width);
            if layout.left {
                format!("{header:<width$}")
            } else {
                format!("{header:>width$}")
            }
        })
    }

    /// One row of the text table at this tier; undefined statistics render
    /// as `-`.
    pub fn table_row(self, row: &ScenarioRow) -> String {
        self.table_line(|layout, column| {
            (column.value)(row).to_table_cell(layout.width, layout.precision)
        })
    }

    /// The table's cells at this tier, space-separated.
    fn table_line(self, cell: impl Fn(&TableColumn, &Column) -> String) -> String {
        let cells: Vec<String> = TABLE
            .iter()
            .map(|layout| (layout, column(layout.column)))
            .filter(|(_, column)| column.tier <= self)
            .map(|(layout, column)| cell(layout, column))
            .collect();
        cells.join(" ")
    }
}

/// One machine-readable column of the row schema.
#[derive(Debug)]
pub struct Column {
    /// The CSV header field and JSON key.
    pub name: &'static str,
    /// The tier that introduced this column.
    pub tier: Tier,
    /// Extracts this column's value from a row.
    pub value: fn(&ScenarioRow) -> FieldValue,
}

const fn col(name: &'static str, tier: Tier, value: fn(&ScenarioRow) -> FieldValue) -> Column {
    Column { name, tier, value }
}

/// A restoration counter: exact when a fault timeline swapped kernels
/// during the run, undefined on static runs — as `wavelengths == 0` marks
/// the wavelength statistics undefined.
fn restoration(row: &ScenarioRow, value: u64) -> FieldValue {
    if row.metrics.fault_events == 0 {
        Float(f64::NAN)
    } else {
        Int(value)
    }
}

/// Every machine-readable column, in emission order: the grid coordinates,
/// the core metrics, the wavelength metrics, `cost_per_bit`, then the
/// fault-timeline columns.  Append-only, and each [`Tier`] is a prefix.
#[rustfmt::skip]
pub static COLUMNS: [Column; 34] = [
    col("spec", Legacy, |r| Text(r.spec.to_string())),
    col("traffic", Legacy, |r| Text(r.traffic.to_string())),
    col("load", Legacy, |r| Float(r.offered_load)),
    col("seed", Legacy, |r| Int(r.seed)),
    col("fault_count", Legacy, |r| Int(r.fault_count as u64)),
    col("faults", Legacy, |r| Text(render_faults(&r.faults))),
    col("processors", Legacy, |r| Int(r.metrics.processors as u64)),
    col("slots", Legacy, |r| Int(r.metrics.slots)),
    col("injected", Legacy, |r| Int(r.metrics.injected)),
    col("delivered", Legacy, |r| Int(r.metrics.delivered)),
    col("dropped", Legacy, |r| Int(r.metrics.dropped)),
    col("in_flight", Legacy, |r| Int(r.metrics.in_flight)),
    col("throughput", Legacy, |r| Float(r.metrics.throughput())),
    col("avg_latency", Legacy, |r| Float(r.metrics.average_latency())),
    col("max_latency", Legacy, |r| Int(r.metrics.max_latency)),
    col("avg_hops", Legacy, |r| Float(r.metrics.average_hops())),
    col("max_hops", Legacy, |r| Int(u64::from(r.metrics.max_hops))),
    col("grants", Legacy, |r| Int(r.metrics.grants)),
    col("channels", Legacy, |r| Int(r.metrics.channels as u64)),
    col("utilization", Legacy, |r| Float(r.metrics.channel_utilization())),
    col("delivery_ratio", Legacy, |r| Float(r.metrics.delivery_ratio())),
    col("wavelengths", Extended, |r| Int(r.metrics.wavelengths as u64)),
    col("blocked", Extended, |r| Int(r.metrics.blocked)),
    col("alt_routed", Extended, |r| Int(r.metrics.alt_routed)),
    col("blocking_ratio", Extended, |r| Float(r.metrics.blocking_ratio())),
    col("wavelength_utilization", Extended, |r| Float(r.metrics.wavelength_utilization())),
    col("alt_route_rate", Extended, |r| Float(r.metrics.alt_route_rate())),
    col("cost_per_bit", Extended, |r| Float(r.cost_per_delivered_bit())),
    col("fault_schedule", Restoration, |r| Text(r.fault_schedule.to_string())),
    col("fault_events", Restoration, |r| Int(r.metrics.fault_events)),
    col("in_flight_at_failure", Restoration, |r| restoration(r, r.metrics.in_flight_at_failure)),
    col("dropped_by_failure", Restoration, |r| restoration(r, r.metrics.dropped_by_failure)),
    // Never restored: the `u64::MAX` sentinel is undefined, not a count.
    col("restore_slots", Restoration, |r| match r.metrics.restore_slots {
        u64::MAX => Float(f64::NAN),
        slots => restoration(r, slots),
    }),
    col("post_failure_latency_peak", Restoration, |r| {
        restoration(r, r.metrics.post_failure_latency_peak)
    }),
];

/// The column of [`COLUMNS`] with this name.
fn column(name: &str) -> &'static Column {
    COLUMNS
        .iter()
        .find(|c| c.name == name)
        .expect("every table column names a machine column")
}

/// One column of the text table: the machine column it shows, its header,
/// width and float precision.  Text columns (and their headers) are
/// left-aligned, everything else right-aligned.
struct TableColumn {
    column: &'static str,
    header: &'static str,
    width: usize,
    precision: usize,
    left: bool,
}

const fn text(column: &'static str, header: &'static str, width: usize) -> TableColumn {
    TableColumn {
        column,
        header,
        width,
        precision: 0,
        left: true,
    }
}

const fn num(
    column: &'static str,
    header: &'static str,
    width: usize,
    precision: usize,
) -> TableColumn {
    TableColumn {
        column,
        header,
        width,
        precision,
        left: false,
    }
}

/// The text table's layout, in display order.  It differs from machine
/// order: `procs` precedes `load`, `delivrd` comes last among the core
/// columns, `faults` shows the fault count, and `alt_routed` is not shown.
/// The unpadded `schedule` column is last because its width varies.
static TABLE: [TableColumn; 23] = [
    text("spec", "network", 16),
    text("traffic", "traffic", 20),
    num("processors", "procs", 6, 0),
    num("load", "load", 8, 3),
    num("seed", "seed", 6, 0),
    num("fault_count", "faults", 6, 0),
    num("throughput", "thruput", 10, 4),
    num("avg_latency", "latency", 10, 2),
    num("avg_hops", "hops", 8, 2),
    num("max_hops", "maxhops", 8, 0),
    num("delivered", "delivrd", 8, 0),
    num("wavelengths", "wavel", 6, 0),
    num("blocked", "blocked", 8, 0),
    num("blocking_ratio", "blkratio", 9, 4),
    num("wavelength_utilization", "wl_util", 8, 4),
    num("alt_route_rate", "alt_rate", 8, 4),
    num("cost_per_bit", "cost_bit", 9, 4),
    num("fault_events", "fevents", 7, 0),
    num("in_flight_at_failure", "inflight", 8, 0),
    num("dropped_by_failure", "faildrop", 8, 0),
    num("restore_slots", "restore", 8, 0),
    num("post_failure_latency_peak", "peak_lat", 8, 0),
    text("fault_schedule", "schedule", 0),
];

/// Collects streamed rows into a `Vec`, preserving grid order.
/// [`crate::engine::run_grid`] is this sink plus
/// [`crate::engine::run_grid_streaming`].
#[derive(Debug, Default)]
pub struct CollectSink {
    rows: Vec<ScenarioRow>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> Self {
        CollectSink::default()
    }

    /// The rows collected so far, in grid order.
    pub fn rows(&self) -> &[ScenarioRow] {
        &self.rows
    }

    /// Consumes the sink, returning the collected rows.
    pub fn into_rows(self) -> Vec<ScenarioRow> {
        self.rows
    }
}

impl RowSink for CollectSink {
    fn on_row(&mut self, _index: usize, row: ScenarioRow) -> io::Result<()> {
        self.rows.push(row);
        Ok(())
    }
}

/// Streams rows as the human-readable fixed-width table (header first,
/// undefined averages as `-`) — the `scenarios` CLI's default format.
#[derive(Debug)]
pub struct TableSink<W: Write> {
    writer: W,
    tier: Tier,
}

impl<W: Write> TableSink<W> {
    /// A table sink over any writer.
    pub fn new(writer: W) -> Self {
        TableSink {
            writer,
            tier: Legacy,
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> RowSink for TableSink<W> {
    fn on_start(&mut self, grid: &ScenarioGrid) -> io::Result<()> {
        self.tier = Tier::of(grid);
        writeln!(self.writer, "{}", self.tier.table_header())
    }

    fn on_row(&mut self, _index: usize, row: ScenarioRow) -> io::Result<()> {
        writeln!(self.writer, "{}", self.tier.table_row(&row))
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// Streams rows as CSV with a header record.  Undefined averages (zero
/// deliveries) are **empty fields**, never `NaN` or `-`; spec and traffic
/// strings are quoted because they contain commas.
#[derive(Debug)]
pub struct CsvSink<W: Write> {
    writer: W,
    tier: Tier,
}

impl<W: Write> CsvSink<W> {
    /// A CSV sink over any writer.
    pub fn new(writer: W) -> Self {
        CsvSink {
            writer,
            tier: Legacy,
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> RowSink for CsvSink<W> {
    fn on_start(&mut self, grid: &ScenarioGrid) -> io::Result<()> {
        self.tier = Tier::of(grid);
        let names: Vec<&str> = self.tier.columns().iter().map(|c| c.name).collect();
        writeln!(self.writer, "{}", names.join(","))
    }

    fn on_row(&mut self, _index: usize, row: ScenarioRow) -> io::Result<()> {
        let record: Vec<String> = self
            .tier
            .columns()
            .iter()
            .map(|c| (c.value)(&row).to_csv_field())
            .collect();
        writeln!(self.writer, "{}", record.join(","))
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// Streams rows as JSON Lines: one hand-rolled JSON object per row (the
/// workspace is offline — no serde).  Undefined averages are `null`, never
/// the string `"NaN"` or `"-"`.
#[derive(Debug)]
pub struct JsonLinesSink<W: Write> {
    writer: W,
    tier: Tier,
}

impl<W: Write> JsonLinesSink<W> {
    /// A JSON Lines sink over any writer; it renders the legacy tier until
    /// [`RowSink::on_start`] sets the grid's.
    pub fn new(writer: W) -> Self {
        JsonLinesSink {
            writer,
            tier: Legacy,
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> RowSink for JsonLinesSink<W> {
    fn on_start(&mut self, grid: &ScenarioGrid) -> io::Result<()> {
        self.tier = Tier::of(grid);
        Ok(())
    }

    fn on_row(&mut self, _index: usize, row: ScenarioRow) -> io::Result<()> {
        let mut line = String::from("{");
        for (i, column) in self.tier.columns().iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push('"');
            line.push_str(column.name);
            line.push_str("\":");
            line.push_str(&(column.value)(&row).to_json_value());
        }
        line.push('}');
        writeln!(self.writer, "{line}")
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// The machine-readable output formats of the result surface, as named by
/// the `scenarios` CLI's `--format` flag and the `.scn` `format` key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable fixed-width table ([`TableSink`]); the default.
    #[default]
    Table,
    /// Comma-separated values with a header record ([`CsvSink`]).
    Csv,
    /// One JSON object per line ([`JsonLinesSink`]).
    JsonLines,
}

impl OutputFormat {
    /// Builds the matching sink over the given writer.
    pub fn sink<W: Write + 'static>(self, writer: W) -> Box<dyn RowSink> {
        match self {
            OutputFormat::Table => Box::new(TableSink::new(writer)),
            OutputFormat::Csv => Box::new(CsvSink::new(writer)),
            OutputFormat::JsonLines => Box::new(JsonLinesSink::new(writer)),
        }
    }
}

impl fmt::Display for OutputFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OutputFormat::Table => "table",
            OutputFormat::Csv => "csv",
            OutputFormat::JsonLines => "jsonl",
        })
    }
}

/// The format name was not one of `table`, `csv`, `jsonl`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownFormat {
    /// The unrecognised name.
    pub input: String,
}

impl fmt::Display for UnknownFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown output format '{}' (supported: table, csv, jsonl)",
            self.input
        )
    }
}

impl std::error::Error for UnknownFormat {}

impl std::str::FromStr for OutputFormat {
    type Err = UnknownFormat;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "table" => Ok(OutputFormat::Table),
            "csv" => Ok(OutputFormat::Csv),
            "jsonl" => Ok(OutputFormat::JsonLines),
            _ => Err(UnknownFormat {
                input: s.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_grid_streaming;
    use otis_sim::{FaultSchedule, SimMetrics};

    /// The names of a tier's columns.
    fn column_names(tier: Tier) -> Vec<&'static str> {
        tier.columns().iter().map(|c| c.name).collect()
    }

    /// A row's values at a tier, in column order.
    fn values(row: &ScenarioRow, tier: Tier) -> Vec<FieldValue> {
        tier.columns().iter().map(|c| (c.value)(row)).collect()
    }

    /// The value of the named column.
    fn field(row: &ScenarioRow, name: &str) -> FieldValue {
        (column(name).value)(row)
    }

    /// A static, capacity-1 row carrying the given metrics.
    fn row_with(metrics: SimMetrics) -> ScenarioRow {
        ScenarioRow {
            spec: "POPS(2,2)".parse().unwrap(),
            traffic: "uniform(0)".parse().unwrap(),
            offered_load: 0.0,
            seed: 1,
            fault_count: 0,
            faults: FaultSet::new(),
            fault_schedule: FaultSchedule::empty(),
            hardware_cost: None,
            metrics,
        }
    }

    fn one_row(load: f64) -> ScenarioRow {
        let grid = crate::engine::ScenarioGrid::new(vec!["POPS(2,2)".parse().unwrap()])
            .loads(&[load])
            .slots(50);
        let mut sink = CollectSink::new();
        run_grid_streaming(&grid, 1, &mut sink).unwrap();
        sink.into_rows().remove(0)
    }

    #[test]
    fn field_names_and_values_line_up() {
        let row = one_row(0.3);
        let names = column_names(Legacy);
        let values = values(&row, Legacy);
        assert_eq!(names.len(), values.len());
        assert_eq!(names[0], "spec");
        assert_eq!(values[0], Text("POPS(2,2)".to_string()));
        // The legacy schema ends at the core metric prefix, byte-identical
        // to the pre-wavelength engine.
        assert_eq!(names.len(), 6 + 15);
        assert_eq!(*names.last().unwrap(), "delivery_ratio");
        assert!(!names.contains(&"blocking_ratio"));
    }

    #[test]
    fn extended_schema_appends_the_wavelength_columns() {
        let row = one_row(0.3);
        let names = column_names(Extended);
        let values = values(&row, Extended);
        assert_eq!(names.len(), values.len());
        assert_eq!(names.len(), 6 + 21 + 1);
        // The restoration columns belong to the next tier up, so
        // schedule-free wavelength runs stay byte-identical.
        assert!(!names.contains(&"fault_events"));
        // Append-only: the legacy schema is an exact prefix.
        let legacy = column_names(Legacy);
        assert_eq!(&names[..legacy.len()], legacy.as_slice());
        for column in [
            "wavelengths",
            "blocked",
            "alt_routed",
            "blocking_ratio",
            "wavelength_utilization",
            "alt_route_rate",
            "cost_per_bit",
        ] {
            assert!(names.contains(&column), "{column} missing");
        }
        assert_eq!(*names.last().unwrap(), "cost_per_bit");
    }

    #[test]
    fn wavelength_off_cells_render_undefined_sentinels_in_every_format() {
        // A grid with alternate routing enabled streams the extended schema,
        // but a capacity-1 hot-potato cell never enters wavelength mode: its
        // wavelength statistics are undefined and must surface as the
        // format's native sentinel — '-', empty, null — never "NaN".
        let grid = crate::engine::ScenarioGrid::new(vec!["DB(2,3)".parse().unwrap()])
            .loads(&[0.3])
            .slots(60)
            .alt_paths(3);
        assert!(grid.wavelength_layer_enabled());

        let mut collect = CollectSink::new();
        run_grid_streaming(&grid, 1, &mut collect).unwrap();
        let row = collect.into_rows().remove(0);
        assert_eq!(row.metrics.wavelengths, 0, "layer-off sentinel");
        assert!(row.metrics.blocking_ratio().is_nan());

        let table = Extended.table_row(&row);
        assert!(!table.contains("NaN"), "{table}");
        assert_eq!(
            table.split_whitespace().count(),
            Extended.table_header().split_whitespace().count()
        );

        for stat in ["blocking_ratio", "wavelength_utilization", "alt_route_rate"] {
            assert_eq!(field(&row, stat).to_csv_field(), "", "{stat}");
            assert_eq!(field(&row, stat).to_json_value(), "null", "{stat}");
        }

        let mut csv = CsvSink::new(Vec::new());
        run_grid_streaming(&grid, 1, &mut csv).unwrap();
        let text = String::from_utf8(csv.into_inner()).unwrap();
        assert!(text.lines().next().unwrap().ends_with(",cost_per_bit"));
        assert!(!text.contains("NaN"), "{text}");

        let mut jsonl = JsonLinesSink::new(Vec::new());
        run_grid_streaming(&grid, 1, &mut jsonl).unwrap();
        let line = String::from_utf8(jsonl.into_inner()).unwrap();
        assert!(line.contains("\"blocking_ratio\":null"), "{line}");
        assert!(line.contains("\"wavelength_utilization\":null"), "{line}");
        assert!(!line.contains("NaN"), "{line}");
    }

    #[test]
    fn capacity_one_grids_stay_on_the_legacy_schema() {
        // The byte-identity contract at the sink level: a wavelengths=1,
        // alt_paths=1 grid streams exactly the legacy columns — no
        // wavelength headers, no cost column, in any format.
        let grid = crate::engine::ScenarioGrid::new(vec!["POPS(2,2)".parse().unwrap()])
            .loads(&[0.2])
            .slots(50);
        assert!(!grid.wavelength_layer_enabled());
        let mut csv = CsvSink::new(Vec::new());
        run_grid_streaming(&grid, 1, &mut csv).unwrap();
        let text = String::from_utf8(csv.into_inner()).unwrap();
        assert!(text.lines().next().unwrap().ends_with(",delivery_ratio"));
        assert!(!text.contains("blocking_ratio"), "{text}");
        let mut jsonl = JsonLinesSink::new(Vec::new());
        run_grid_streaming(&grid, 1, &mut jsonl).unwrap();
        let line = String::from_utf8(jsonl.into_inner()).unwrap();
        assert!(!line.contains("cost_per_bit"), "{line}");
        let mut table = TableSink::new(Vec::new());
        run_grid_streaming(&grid, 1, &mut table).unwrap();
        let text = String::from_utf8(table.into_inner()).unwrap();
        assert!(!text.contains("wavel"), "{text}");
    }

    #[test]
    fn restoration_schema_appends_schedule_and_restoration_columns() {
        // A grid with a non-empty schedule on the axis streams the
        // restoration tier in every format: the extended columns are an
        // exact prefix, then fault_schedule, then the restoration metrics.
        // Static cells inside the same grid render undefined sentinels.
        let schedule: FaultSchedule = "fail(node 1)@10; recover@40".parse().unwrap();
        let grid = crate::engine::ScenarioGrid::new(vec!["DB(2,3)".parse().unwrap()])
            .loads(&[0.3])
            .slots(80)
            .fault_schedules(vec![FaultSchedule::empty(), schedule.clone()]);
        assert!(grid.fault_schedule_enabled());
        assert_eq!(Tier::of(&grid), Restoration);

        let names = column_names(Restoration);
        let extended = column_names(Extended);
        assert_eq!(&names[..extended.len()], extended.as_slice());
        assert_eq!(
            &names[extended.len()..],
            &[
                "fault_schedule",
                "fault_events",
                "in_flight_at_failure",
                "dropped_by_failure",
                "restore_slots",
                "post_failure_latency_peak"
            ]
        );

        let mut collect = CollectSink::new();
        run_grid_streaming(&grid, 1, &mut collect).unwrap();
        let rows = collect.into_rows();
        for row in &rows {
            assert_eq!(names.len(), values(row, Restoration).len());
        }

        let mut csv = CsvSink::new(Vec::new());
        run_grid_streaming(&grid, 1, &mut csv).unwrap();
        let text = String::from_utf8(csv.into_inner()).unwrap();
        assert!(
            text.lines()
                .next()
                .unwrap()
                .ends_with(",fault_schedule,fault_events,in_flight_at_failure,dropped_by_failure,restore_slots,post_failure_latency_peak"),
            "{text}"
        );

        let mut jsonl = JsonLinesSink::new(Vec::new());
        run_grid_streaming(&grid, 1, &mut jsonl).unwrap();
        let text = String::from_utf8(jsonl.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // The static cell: schedule "none", undefined restoration stats.
        assert!(
            lines[0].contains("\"fault_schedule\":\"none\""),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"fault_events\":0"), "{}", lines[0]);
        assert!(
            lines[0].contains("\"in_flight_at_failure\":null"),
            "{}",
            lines[0]
        );
        // The scheduled cell: both events fired, exact counters.
        assert!(
            lines[1].contains(&format!("\"fault_schedule\":\"{schedule}\"")),
            "{}",
            lines[1]
        );
        assert!(lines[1].contains("\"fault_events\":2"), "{}", lines[1]);
        assert!(
            !lines[1].contains("\"in_flight_at_failure\":null"),
            "{}",
            lines[1]
        );

        let mut table = TableSink::new(Vec::new());
        run_grid_streaming(&grid, 1, &mut table).unwrap();
        let text = String::from_utf8(table.into_inner()).unwrap();
        assert!(text.lines().next().unwrap().ends_with("schedule"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
        assert!(text.contains(&schedule.to_string()), "{text}");
    }

    #[test]
    fn schedule_free_grids_never_see_restoration_columns() {
        // The byte-identity guard one tier down: a wavelength-layer grid
        // without schedules must not leak any restoration column.
        let grid = crate::engine::ScenarioGrid::new(vec!["DB(2,3)".parse().unwrap()])
            .loads(&[0.3])
            .slots(60)
            .alt_paths(3);
        assert!(grid.wavelength_layer_enabled());
        assert!(!grid.fault_schedule_enabled());
        let mut csv = CsvSink::new(Vec::new());
        run_grid_streaming(&grid, 1, &mut csv).unwrap();
        let text = String::from_utf8(csv.into_inner()).unwrap();
        assert!(text.lines().next().unwrap().ends_with(",cost_per_bit"));
        assert!(!text.contains("fault_schedule"), "{text}");
        assert!(!text.contains("fault_events"), "{text}");
    }

    #[test]
    fn csv_quotes_fields_with_commas_and_doubles_inner_quotes() {
        assert_eq!(csv_escape("SK(4,2,2)"), "\"SK(4,2,2)\"");
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a\"b"), "\"a\"\"b\"");
        let row = one_row(0.3);
        let csv = (COLUMNS[0].value)(&row).to_csv_field();
        assert_eq!(csv, "\"POPS(2,2)\"");
    }

    #[test]
    fn json_escaping_covers_quotes_and_control_chars() {
        assert_eq!(json_escape("plain"), "\"plain\"");
        assert_eq!(json_escape("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_escape("a\nb\u{1}"), "\"a\\nb\\u0001\"");
    }

    #[test]
    fn zero_delivery_sentinels_are_format_aware() {
        // The '-' placeholder belongs to the text table only: CSV gets empty
        // fields and JSONL gets null — never the string "-" or "NaN".
        let row = one_row(0.0);
        assert_eq!(row.metrics.delivered, 0);

        let table = Legacy.table_row(&row);
        assert!(table.contains('-'), "{table}");
        assert!(!table.contains("NaN"), "{table}");

        let latency = field(&row, "avg_latency");
        assert_eq!(latency.to_csv_field(), "");
        assert_eq!(latency.to_json_value(), "null");

        let record: Vec<String> = values(&row, Legacy)
            .iter()
            .map(FieldValue::to_csv_field)
            .collect();
        let csv = record.join(",");
        assert!(csv.contains(",,"), "{csv}");
        assert!(!csv.contains("NaN"), "{csv}");

        let mut jsonl = JsonLinesSink::new(Vec::new());
        jsonl.on_row(0, row).unwrap();
        let line = String::from_utf8(jsonl.into_inner()).unwrap();
        assert!(line.contains("\"avg_latency\":null"), "{line}");
        assert!(line.contains("\"avg_hops\":null"), "{line}");
        assert!(!line.contains("NaN"), "{line}");
        assert!(!line.contains("\"-\""), "{line}");
    }

    #[test]
    fn table_sink_matches_manual_rendering() {
        let grid = crate::engine::ScenarioGrid::new(vec!["POPS(2,2)".parse().unwrap()])
            .loads(&[0.2, 0.4])
            .slots(60);
        let mut table = TableSink::new(Vec::new());
        run_grid_streaming(&grid, 2, &mut table).unwrap();
        let text = String::from_utf8(table.into_inner()).unwrap();
        let rows = crate::engine::run_grid(&grid, 1).unwrap();
        let mut expected = Legacy.table_header();
        expected.push('\n');
        for row in &rows {
            expected.push_str(&Legacy.table_row(row));
            expected.push('\n');
        }
        assert_eq!(text, expected);
    }

    #[test]
    fn csv_sink_emits_header_plus_one_record_per_cell() {
        let grid = crate::engine::ScenarioGrid::new(vec!["POPS(2,2)".parse().unwrap()])
            .loads(&[0.2, 0.4])
            .slots(60);
        let mut csv = CsvSink::new(Vec::new());
        run_grid_streaming(&grid, 2, &mut csv).unwrap();
        let text = String::from_utf8(csv.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + grid.cell_count());
        assert!(lines[0].starts_with("spec,traffic,load,seed,"));
        // The spec contains commas, so it is quoted; the workload does not.
        assert!(
            lines[1].starts_with("\"POPS(2,2)\",uniform(0.2),"),
            "{}",
            lines[1]
        );
    }

    #[test]
    fn output_format_round_trips_and_rejects_unknown_names() {
        for format in [
            OutputFormat::Table,
            OutputFormat::Csv,
            OutputFormat::JsonLines,
        ] {
            assert_eq!(format.to_string().parse::<OutputFormat>(), Ok(format));
        }
        assert_eq!("CSV".parse::<OutputFormat>(), Ok(OutputFormat::Csv));
        let err = "yaml".parse::<OutputFormat>().unwrap_err();
        assert!(err.to_string().contains("yaml"), "{err}");
        assert!(err.to_string().contains("jsonl"), "{err}");
        assert_eq!(OutputFormat::default(), OutputFormat::Table);
    }

    #[test]
    fn fault_patterns_render_as_sorted_nodes() {
        assert_eq!(render_faults(&FaultSet::new()), "");
        assert_eq!(render_faults(&FaultSet::from_nodes([3, 1])), "1 3");
        let mut faults = FaultSet::from_nodes([2]);
        faults.fail_arc(0, 1);
        assert_eq!(render_faults(&faults), "2 0->1");
    }

    #[test]
    fn columns_extract_their_named_values() {
        let mut m = SimMetrics::new(10, 5);
        m.slots = 100;
        m.injected = 50;
        m.record_delivery(4, 2);
        m.grants = 40;
        let row = row_with(m);
        assert_eq!(field(&row, "processors"), Int(10));
        assert_eq!(field(&row, "delivered"), Int(1));
        assert_eq!(field(&row, "max_hops"), Int(2));
        assert_eq!(field(&row, "avg_latency"), Float(4.0));
        assert_eq!(field(&row, "throughput"), Float(0.001));
        // Names are unique, so a name identifies its position.
        for (i, c) in COLUMNS.iter().enumerate() {
            assert_eq!(column(c.name).name, COLUMNS[i].name);
            assert!(COLUMNS[..i].iter().all(|d| d.name != c.name), "{}", c.name);
        }
    }

    #[test]
    fn undefined_statistics_extract_as_nan_floats() {
        // A zero-delivery run: the averages are NaN floats (for each format
        // to render as its own sentinel), never panics or zeros.
        let row = row_with(SimMetrics::new(4, 2));
        let nan_fields: Vec<&str> = COLUMNS
            .iter()
            .filter(|c| matches!((c.value)(&row), Float(x) if x.is_nan()))
            .map(|c| c.name)
            .collect();
        assert_eq!(
            nan_fields,
            [
                "avg_latency",
                "avg_hops",
                "delivery_ratio",
                "blocking_ratio",
                "wavelength_utilization",
                "alt_route_rate",
                "cost_per_bit",
                "in_flight_at_failure",
                "dropped_by_failure",
                "restore_slots",
                "post_failure_latency_peak",
            ]
        );
    }

    #[test]
    fn restoration_fields_are_defined_exactly_when_kernels_swapped() {
        let mut m = SimMetrics::new(4, 2);
        m.fault_events = 2;
        m.in_flight_at_failure = 7;
        m.dropped_by_failure = 3;
        m.restore_slots = 12;
        m.post_failure_latency_peak = 9;
        let mut row = row_with(m);
        assert_eq!(field(&row, "fault_events"), Int(2));
        assert_eq!(field(&row, "in_flight_at_failure"), Int(7));
        assert_eq!(field(&row, "dropped_by_failure"), Int(3));
        assert_eq!(field(&row, "restore_slots"), Int(12));
        assert_eq!(field(&row, "post_failure_latency_peak"), Int(9));
        // Never restored: the sentinel extracts as undefined, not as MAX.
        row.metrics.restore_slots = u64::MAX;
        assert!(matches!(field(&row, "restore_slots"), Float(x) if x.is_nan()));
        // fault_events itself is always an exact counter, 0 on static runs.
        let fresh = row_with(SimMetrics::new(4, 2));
        assert_eq!(field(&fresh, "fault_events"), Int(0));
    }

    #[test]
    fn extended_prefix_is_the_wavelength_schema() {
        let extended = column_names(Extended);
        assert_eq!(extended.len(), 28);
        assert_eq!(extended[6 + 21 - 1], "alt_route_rate");
        assert_eq!(*extended.last().unwrap(), "cost_per_bit");
        assert_eq!(COLUMNS[extended.len()].name, "fault_schedule");
        assert_eq!(COLUMNS[extended.len() + 1].name, "fault_events");
        assert_eq!(column_names(Restoration).len(), COLUMNS.len());
    }

    #[test]
    fn core_prefix_is_the_legacy_schema() {
        assert_eq!(
            column_names(Legacy),
            [
                "spec",
                "traffic",
                "load",
                "seed",
                "fault_count",
                "faults",
                "processors",
                "slots",
                "injected",
                "delivered",
                "dropped",
                "in_flight",
                "throughput",
                "avg_latency",
                "max_latency",
                "avg_hops",
                "max_hops",
                "grants",
                "channels",
                "utilization",
                "delivery_ratio",
            ]
        );
        // Every column above the legacy tier is zero, undefined or the
        // static schedule for a legacy run, so legacy-only rendering loses
        // nothing.
        let row = row_with(SimMetrics::new(4, 2));
        for c in &COLUMNS[Legacy.columns().len()..] {
            match (c.value)(&row) {
                Int(x) => assert_eq!(x, 0, "{} must be 0 when the layer is off", c.name),
                Float(x) => assert!(x.is_nan(), "{} must be NaN when the layer is off", c.name),
                Text(s) => assert_eq!(s, "none", "{}", c.name),
            }
        }
    }

    #[test]
    fn table_layout_names_columns_and_tiers_never_decrease() {
        // The append-only contract as a check: both lists only ever add a
        // tier's columns after every column of the tiers below it.
        assert!(COLUMNS.windows(2).all(|w| w[0].tier <= w[1].tier));
        let tiers: Vec<Tier> = TABLE.iter().map(|t| column(t.column).tier).collect();
        assert!(tiers.windows(2).all(|w| w[0] <= w[1]), "{tiers:?}");
        // Headers are aligned like their values: text columns left.
        let row = row_with(SimMetrics::new(4, 2));
        for t in &TABLE {
            let is_text = matches!((column(t.column).value)(&row), Text(_));
            assert_eq!(t.left, is_text, "{}", t.column);
        }
        // One header per table column, at every tier.
        for tier in [Legacy, Extended, Restoration] {
            let header = tier.table_header();
            assert_eq!(
                header.split_whitespace().count(),
                TABLE
                    .iter()
                    .filter(|t| column(t.column).tier <= tier)
                    .count(),
                "{header}"
            );
        }
    }
}
