//! Library backing the `patlabor` command-line tool.
//!
//! Kept separate from `main.rs` so the net-list parser and the command
//! implementations are unit-testable. The CLI covers the three workflows
//! a user needs:
//!
//! * `patlabor route <nets.txt>` — route a net list, print each net's
//!   Pareto frontier (optionally picking one tree per delay budget);
//! * `patlabor lut build --lambda L -o tables.plut` — generate
//!   mmap-serveable v4 lookup tables offline (also the migration path for
//!   pre-v4 table files). The file is written beside the target and
//!   renamed over it, so a daemon serving the old file is undisturbed;
//! * `patlabor lut info <tables.plut>` — format version, section layout
//!   and checksum status, per-degree Table II statistics and arena sizes.
//!
//! `route` and `verify` open `--tables` files **zero-copy** via
//! [`LookupTable::open_mmap`]: the arenas are served straight from the
//! page cache after a one-pass checksum/structure validation, so startup
//! does not re-parse the table and concurrent processes share one copy.
//!
//! # Net-list format
//!
//! One net per line: whitespace-separated `x,y` pins, source first.
//! `#` starts a comment; blank lines are ignored. Coordinates must lie
//! within ±(2³¹ − 1) (`Point::MAX_COORD`); `route` fails on a net
//! outside that bound with a diagnostic naming the net (exit 2).
//!
//! ```text
//! # three nets
//! 0,0 40,15 12,33
//! 5,5 25,5
//! 0,0 9,1 8,8 1,9
//! ```

// The CLI is the user-facing serving surface: every failure must print a
// diagnostic, never an `unwrap` panic; test code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::fmt;
use std::num::NonZeroUsize;
use std::str::FromStr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use patlabor::pipeline::RouteOutcome;
use patlabor::{
    DeltaKind, Engine, Fault, FaultPlane, LutBuilder, Net, NetDelta, Point, ResilienceConfig,
    ResilienceReport, RouteError, Session,
};
use patlabor_lut::{LookupTable, TableInfo};
use patlabor_serve::{serve, ServeConfig};
use patlabor_verify::{
    chaos_soak, mutation_smoke_with_table, verify_with_table, ChaosSoakConfig, VerifyConfig,
    MIN_DEGREE,
};

/// Error from parsing a net list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNetsError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseNetsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseNetsError {}

/// Any failure the CLI can hit, as one structured type.
///
/// Every variant prints a one-line diagnostic naming what failed and
/// where (the file, the net-list line, or the net index); `main` renders
/// it with `error: {e}` and exits non-zero. Nothing on the serving path
/// panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Argument-level problems: unknown command/flag, missing value.
    Usage(String),
    /// A file could not be read or written.
    Io {
        /// The offending path.
        path: String,
        /// The underlying OS error.
        message: String,
    },
    /// A net-list line failed to parse.
    Parse(ParseNetsError),
    /// A lookup-table file failed to load or save.
    Table {
        /// The offending path.
        path: String,
        /// The underlying format/OS error.
        message: String,
    },
    /// The router failed on one net (truncated or corrupt tables).
    Route {
        /// 0-based index of the net in the input.
        net: usize,
        /// The pipeline's structured error.
        source: RouteError,
    },
    /// The differential harness found a fast path diverging from its
    /// oracle (or, in `--smoke` mode, failed to catch a planted
    /// corruption). The message carries the full report, counterexample
    /// included.
    Verify(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(message) => f.write_str(message),
            CliError::Io { path, message } => write!(f, "{path}: {message}"),
            CliError::Parse(e) => e.fmt(f),
            CliError::Table { path, message } => write!(f, "{path}: {message}"),
            CliError::Route { net, source } => write!(f, "net {net}: {source}"),
            CliError::Verify(report) => f.write_str(report),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Parse(e) => Some(e),
            CliError::Route { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<ParseNetsError> for CliError {
    fn from(e: ParseNetsError) -> Self {
        CliError::Parse(e)
    }
}

fn usage_error(message: impl Into<String>) -> CliError {
    CliError::Usage(message.into())
}

/// Parses the net-list format described in the crate docs.
///
/// # Errors
///
/// Returns the first offending line with a description.
pub fn parse_nets(text: &str) -> Result<Vec<Net>, ParseNetsError> {
    let mut nets = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut pins = Vec::new();
        for token in content.split_whitespace() {
            let (x, y) = token.split_once(',').ok_or_else(|| ParseNetsError {
                line,
                message: format!("expected `x,y`, got `{token}`"),
            })?;
            let parse = |s: &str| -> Result<i64, ParseNetsError> {
                s.trim().parse().map_err(|_| ParseNetsError {
                    line,
                    message: format!("`{s}` is not an integer coordinate"),
                })
            };
            pins.push(Point::new(parse(x)?, parse(y)?));
        }
        let net = Net::new(pins).map_err(|e| ParseNetsError {
            line,
            message: e.to_string(),
        })?;
        nets.push(net);
    }
    Ok(nets)
}

/// Options of the `route` command.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteOptions {
    /// λ of the freshly built tables (ignored when `tables` is given).
    pub lambda: u8,
    /// Pre-generated table file to load instead of building.
    pub tables: Option<String>,
    /// When set, also print the single tree picked per net: the lightest
    /// frontier member within `slack ×` the net's delay lower bound.
    pub pick_slack: Option<f64>,
    /// Fault drills (parsed from `--faults`), armed on the router's
    /// [`FaultPlane`] together with `fault_seed`. A non-empty list (or a
    /// deadline) switches the command to drill mode: per-net failures
    /// print inline instead of aborting the run at the first one.
    pub faults: Vec<Fault>,
    /// Seed of the fault plane's deterministic per-net hash.
    pub fault_seed: u64,
    /// Per-net routing deadline in milliseconds (wall clock).
    pub deadline_ms: Option<u64>,
    /// Worker threads for the batch driver every mode routes through
    /// (1 routes serially; frontiers are identical at every count).
    /// With more than one, the trailer adds the per-worker `batch:`
    /// report.
    pub threads: usize,
    /// Emit NDJSON instead of the human rendering: one wire-protocol
    /// reply object per net, serialized by [`patlabor_serve::wire`] —
    /// byte-compatible with what `patlabor serve` answers.
    pub json: bool,
    /// ECO edits (parsed from `--eco <edits file>`), replayed after the
    /// initial routing pass through [`Engine::reroute`]. Edits chain:
    /// each applies to the net as left by the previous edit, and
    /// class-preserving edits answer from replay (`via reused`).
    pub eco: Vec<EcoEdit>,
}

/// One line of an `--eco` edits file: which net to mutate and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcoEdit {
    /// 0-based index into the routed net list.
    pub net: usize,
    /// The geometric edit to apply.
    pub kind: DeltaKind,
}

impl Default for RouteOptions {
    fn default() -> Self {
        RouteOptions {
            lambda: 5,
            tables: None,
            pick_slack: None,
            faults: Vec::new(),
            fault_seed: 0x5eed,
            deadline_ms: None,
            threads: 1,
            json: false,
            eco: Vec::new(),
        }
    }
}

/// Parses the `--eco` edits format: one edit per line,
/// `<net-index> <kind> <args>`, `#` comments and blank lines ignored.
///
/// ```text
/// # chained edits; staleness grows per net
/// 0 translate 5,-2
/// 1 move-pin 2 7,7
/// 2 add-sink 3,4
/// 0 remove-sink 1
/// 3 blockage 2,2 8,8
/// ```
///
/// # Errors
///
/// Returns the first offending line with a description.
pub fn parse_edits(text: &str) -> Result<Vec<EcoEdit>, ParseNetsError> {
    let mut edits = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let err = |message: String| ParseNetsError { line, message };
        let tokens: Vec<&str> = content.split_whitespace().collect();
        let net: usize = tokens
            .first()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| err("expected a 0-based net index".to_string()))?;
        let kind_token = *tokens
            .get(1)
            .ok_or_else(|| err("expected an edit kind after the net index".to_string()))?;
        let point = |slot: usize, what: &str| -> Result<Point, ParseNetsError> {
            let token = tokens
                .get(slot)
                .ok_or_else(|| err(format!("{kind_token} expects {what} as `x,y`")))?;
            let (x, y) = token
                .split_once(',')
                .ok_or_else(|| err(format!("expected `x,y`, got `{token}`")))?;
            let parse = |s: &str| {
                s.trim()
                    .parse::<i64>()
                    .map_err(|_| err(format!("`{s}` is not an integer coordinate")))
            };
            Ok(Point::new(parse(x)?, parse(y)?))
        };
        let index = || -> Result<usize, ParseNetsError> {
            tokens
                .get(2)
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| err(format!("{kind_token} expects a pin index")))
        };
        let (kind, args) = match kind_token {
            "translate" => {
                let d = point(2, "an offset")?;
                (DeltaKind::Translate { dx: d.x, dy: d.y }, 1)
            }
            "add-sink" => (DeltaKind::AddSink { at: point(2, "a pin")? }, 1),
            "move-pin" => (
                DeltaKind::MovePin { index: index()?, to: point(3, "a destination")? },
                2,
            ),
            "remove-sink" => (DeltaKind::RemoveSink { index: index()? }, 1),
            "blockage" => (
                DeltaKind::BlockageMask {
                    min: point(2, "a corner")?,
                    max: point(3, "a corner")?,
                },
                2,
            ),
            other => {
                return Err(err(format!(
                    "unknown edit kind `{other}` (translate | move-pin | add-sink | \
                     remove-sink | blockage)"
                )))
            }
        };
        if tokens.len() > 2 + args {
            return Err(err(format!("trailing tokens after {kind_token} edit")));
        }
        edits.push(EcoEdit { net, kind });
    }
    Ok(edits)
}

/// Builds the long-lived [`Engine`]: mmap'd tables when `--tables` is
/// given, freshly built λ tables otherwise. Both `route` and `serve`
/// go through here — the serving daemon and the one-shot command share
/// one construction path.
fn build_engine(tables: Option<&str>, lambda: u8) -> Result<Engine, CliError> {
    match tables {
        Some(path) => {
            // Zero-copy open: checksum + structure validated once, then
            // the arenas are borrowed from the page-cache mapping.
            let table = LookupTable::open_mmap(path).map_err(|e| CliError::Table {
                path: path.to_string(),
                message: e.to_string(),
            })?;
            Ok(Engine::with_table(table))
        }
        None => Ok(Engine::with_config(patlabor::RouterConfig {
            lambda,
            ..patlabor::RouterConfig::default()
        })),
    }
}

/// Renders the `--threads` scaling report: one line of batch-level
/// telemetry plus one line per worker.
fn render_batch_stats(out: &mut String, stats: &patlabor::BatchStats) {
    out.push_str(&format!(
        "batch: {} workers, chunk {}, {:.1} ms, utilization {:.2} (min {:.2})\n",
        stats.workers,
        stats.chunk_size,
        stats.elapsed().as_secs_f64() * 1e3,
        stats.utilization(),
        stats.min_worker_utilization(),
    ));
    for (i, w) in stats.per_worker.iter().enumerate() {
        out.push_str(&format!(
            "  worker {i}: {} nets in {} chunks, busy {:.1} ms\n",
            w.nets,
            w.chunks,
            w.busy_ns as f64 / 1e6,
        ));
    }
}

/// Runs the `route` command; returns the rendered output.
///
/// Every mode routes the whole list with one call into the batch driver
/// ([`Engine::route_batch_with_stats`]; one thread is the serial loop,
/// and a panic that escapes the ladder becomes
/// [`RouteError::Panicked`] for its net). One render loop follows:
///
/// * `--json` prints one wire-protocol reply object per net, failures
///   included, and nothing else;
/// * otherwise each net's header names the rung that answered it (`via
///   exact-lut`, `via local-search`, …), and nets served by a fallback
///   rung add their degradation trace. In drill mode (`--faults` or
///   `--deadline-ms`) a failed net prints inline as `FAILED`; outside
///   it, the first failed net ends the run with its [`CliError::Route`].
///   `--eco` edits follow the nets. The output ends with the
///   [`ResilienceReport`] (`resilience:`), then the per-worker `batch:`
///   report when `--threads` > 1. The per-net lines do not depend on
///   `--threads`.
///
/// # Errors
///
/// Propagates table-loading problems and (outside drill mode) per-net
/// [`RouteError`]s as [`CliError`] (the CLI prints them as diagnostics).
pub fn route_command(nets: &[Net], options: &RouteOptions) -> Result<String, CliError> {
    let mut engine = build_engine(options.tables.as_deref(), options.lambda)?;
    let drills = !options.faults.is_empty() || options.deadline_ms.is_some();
    if !options.eco.is_empty() && (options.json || drills || options.threads > 1) {
        return Err(usage_error(
            "--eco replays edits on the serial human-readable path; it cannot \
             combine with --json, --threads, --faults or --deadline-ms",
        ));
    }
    if drills {
        let plane = options
            .faults
            .iter()
            .fold(FaultPlane::seeded(options.fault_seed), |plane, &fault| {
                plane.with_fault(fault)
            });
        engine = engine.with_faults(plane).with_resilience(ResilienceConfig {
            deadline: options.deadline_ms.map(Duration::from_millis),
            ..ResilienceConfig::default()
        });
    }
    let (results, stats) = engine.route_batch_with_stats(nets, options.threads);
    let mut out = String::new();
    for (i, (net, result)) in nets.iter().zip(&results).enumerate() {
        match result {
            // NDJSON: serialized by the module the serve daemon uses, so
            // the two outputs can never drift; a failure is an `"error":
            // "route"` line, exactly like the daemon's.
            _ if options.json => {
                out.push_str(&patlabor_serve::result_to_json(i as u64, result).render());
                out.push('\n');
            }
            Ok(outcome) => render_outcome(&mut out, i, net, outcome, options),
            Err(e) if drills => {
                out.push_str(&format!("net {i} (degree {}): FAILED: {e}\n", net.degree()));
            }
            Err(e) => {
                return Err(CliError::Route {
                    net: i,
                    source: e.clone(),
                })
            }
        }
    }
    if options.json {
        return Ok(out);
    }
    let report = ResilienceReport::from_results(&results);
    if !options.eco.is_empty() {
        // No drill, so every slot is `Ok` here (a failure returned
        // above) and the outcomes keep their nets' indices.
        let outcomes = results.into_iter().flatten().collect();
        render_eco(&mut out, nets, outcomes, &engine, options)?;
    }
    out.push_str(&format!("resilience: {report}\n"));
    if options.threads > 1 {
        render_batch_stats(&mut out, &stats);
    }
    Ok(out)
}

/// The `--eco` pass: applies the edits in file order, each to its net as
/// the earlier edits left it, reroutes the edited net through
/// [`Engine::reroute`] from that net's last outcome, and appends the ECO
/// section, which ends with the edits' own `eco resilience:` report.
fn render_eco(
    out: &mut String,
    nets: &[Net],
    mut last: Vec<RouteOutcome>,
    engine: &Engine,
    options: &RouteOptions,
) -> Result<(), CliError> {
    let mut current: Vec<Net> = nets.to_vec();
    let mut report = ResilienceReport::default();
    out.push_str(&format!("eco: {} edits\n", options.eco.len()));
    for (e, edit) in options.eco.iter().enumerate() {
        if edit.net >= current.len() {
            return Err(usage_error(format!(
                "eco edit {e}: net index {} out of range ({} nets)",
                edit.net,
                current.len()
            )));
        }
        let delta = NetDelta::new(current[edit.net].clone(), edit.kind);
        let result = engine.reroute(&last[edit.net], &delta, Session::default());
        report.record(&result);
        let outcome = result.map_err(|source| CliError::Route {
            net: edit.net,
            source,
        })?;
        current[edit.net] = delta.apply();
        out.push_str(&format!(
            "edit {e}: net {} {}: {} Pareto solutions via {}\n",
            edit.net,
            edit.kind.label(),
            outcome.frontier.len(),
            outcome.provenance.source,
        ));
        for (cost, _) in outcome.frontier.iter() {
            out.push_str(&format!("  w={} d={}\n", cost.wirelength, cost.delay));
        }
        last[edit.net] = outcome;
    }
    out.push_str(&format!("eco resilience: {report}\n"));
    Ok(())
}

/// Renders one routed net: header, frontier, degradation trace (when a
/// fallback rung served it) and the optional `--pick` tree.
fn render_outcome(
    out: &mut String,
    i: usize,
    net: &Net,
    outcome: &RouteOutcome,
    options: &RouteOptions,
) {
    let frontier = &outcome.frontier;
    out.push_str(&format!(
        "net {i} (degree {}): {} Pareto solutions via {}\n",
        net.degree(),
        frontier.len(),
        outcome.provenance.source,
    ));
    if outcome.provenance.trace.degraded() {
        out.push_str(&format!("  degraded: {}\n", outcome.provenance.trace));
    }
    for (cost, _) in frontier.iter() {
        out.push_str(&format!("  w={} d={}\n", cost.wirelength, cost.delay));
    }
    if let Some(slack) = options.pick_slack {
        let budget = (net.delay_lower_bound() as f64 * slack).floor() as i64;
        let pick = frontier
            .iter()
            .find(|(c, _)| c.delay <= budget)
            .or_else(|| frontier.min_delay());
        if let Some((cost, tree)) = pick {
            out.push_str(&format!("  pick (budget {budget}): w={} d={}\n", cost.wirelength, cost.delay));
            for (a, b) in tree.edge_points() {
                out.push_str(&format!("    {},{} -- {},{}\n", a.x, a.y, b.x, b.y));
            }
        }
    }
}

/// Runs `lut build`.
///
/// # Errors
///
/// Propagates filesystem errors as [`CliError::Table`].
///
/// # Panics
///
/// Panics if `lambda` lies outside 3..=9; `--lambda` is checked when it
/// is read.
pub fn gen_tables_command(lambda: u8, output: &str) -> Result<String, CliError> {
    let start = std::time::Instant::now();
    let table = LutBuilder::new(lambda).build();
    table.save(output).map_err(|e| CliError::Table {
        path: output.to_string(),
        message: e.to_string(),
    })?;
    Ok(format!(
        "generated lambda={lambda} tables in {:?} → {output}\n",
        start.elapsed()
    ))
}

/// Runs `lut info` on a table file: the v4 file-level
/// report (version, checksum status, mappability, per-section layout)
/// followed by the per-degree Table II statistics.
///
/// # Errors
///
/// Propagates loading problems as [`CliError::Table`]; a v3 file errors
/// with the `lut build` migration path. A damaged file whose header and
/// section table still parse fails with the loader's error followed by
/// the file-level report, which shows what is wrong with it.
pub fn stats_command(path: &str) -> Result<String, CliError> {
    let as_table_err = |e: patlabor_lut::ReadTableError| CliError::Table {
        path: path.to_string(),
        message: e.to_string(),
    };
    let info = TableInfo::read(path).map_err(as_table_err)?;
    let mut out = format!(
        "format v{}, {} bytes, checksum {:#018x} ({}), {}\n",
        info.version,
        info.file_len,
        info.checksum,
        if info.checksum_ok { "ok" } else { "MISMATCH" },
        if info.mappable {
            "zero-copy mappable"
        } else {
            "NOT mappable"
        },
    );
    out.push_str("degree  section   offset      bytes      count  align\n");
    for s in &info.sections {
        out.push_str(&format!(
            "{:>6}  {:<8}  {:>6}  {:>9}  {:>9}  {}\n",
            s.degree,
            s.kind,
            s.offset,
            s.bytes,
            s.count,
            if s.aligned { "64" } else { "MISALIGNED" },
        ));
    }
    let table = LookupTable::open_mmap(path).map_err(|e| CliError::Table {
        path: path.to_string(),
        message: format!("{e}\n{}", out.trim_end()),
    })?;
    out.push_str(&format!("lambda = {}\n", table.lambda()));
    out.push_str("degree  #Index  avg #Topo  total topologies  unique (pool)  arena bytes\n");
    let mut total_bytes = 0usize;
    for s in table.stats() {
        total_bytes += s.bytes;
        out.push_str(&format!(
            "{:>6}  {:>6}  {:>9.2}  {:>16}  {:>13}  {:>11}\n",
            s.degree,
            s.num_patterns,
            s.avg_topologies,
            s.total_topologies,
            s.unique_topologies,
            s.bytes
        ));
    }
    out.push_str(&format!("total arena bytes: {total_bytes}\n"));
    Ok(out)
}

/// Options of the `verify` command.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VerifyOptions {
    /// Harness configuration (seed, corpus size, degree range, ...).
    pub config: VerifyConfig,
    /// Pre-generated table file to verify instead of building fresh λ
    /// tables (the harness adopts the file's λ).
    pub tables: Option<String>,
    /// Run the mutation-smoke self-check instead of a plain run: plant a
    /// one-row table corruption and demand the harness catch it.
    pub smoke: bool,
    /// Run the chaos soak instead of the differential matrix: a real
    /// daemon under a seeded transport fault schedule, audited against
    /// the crash-only serving invariants. Excludes `smoke`.
    pub chaos_soak: bool,
}

/// Runs the `verify` command: the differential harness over every
/// fast/slow path pair, or (with `--smoke`) its mutation self-check, or
/// (with `--chaos-soak`) the chaos soak.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for a corpus the harness cannot draw
/// (`--max-degree` below 3, `--span` below 2) or for `--smoke` with
/// `--chaos-soak`, before any work. Returns [`CliError::Verify`]
/// carrying the full report when a fast path diverges from its oracle —
/// or when the smoke mode's planted corruption goes *undetected*, which
/// indicts the harness itself. Table-file problems surface as
/// [`CliError::Table`].
pub fn verify_command(options: &VerifyOptions) -> Result<String, CliError> {
    if options.config.max_degree < MIN_DEGREE {
        return Err(usage_error(format!(
            "--max-degree must be at least {MIN_DEGREE}"
        )));
    }
    if options.config.span < 2 {
        return Err(usage_error("--span must be at least 2"));
    }
    if options.smoke && options.chaos_soak {
        return Err(usage_error(
            "--smoke and --chaos-soak are separate runs; pass one of them",
        ));
    }
    if options.chaos_soak {
        let report = chaos_soak(&ChaosSoakConfig {
            seed: options.config.seed,
            ..ChaosSoakConfig::default()
        });
        let summary = report.summary();
        return if report.is_clean() {
            Ok(summary)
        } else {
            Err(CliError::Verify(summary))
        };
    }
    let table = match &options.tables {
        Some(path) => LookupTable::open_mmap(path).map_err(|e| CliError::Table {
            path: path.clone(),
            message: e.to_string(),
        })?,
        None => LutBuilder::new(options.config.lambda).build(),
    };
    let mut config = options.config.clone();
    config.lambda = table.lambda();
    if options.smoke {
        let smoke = mutation_smoke_with_table(table, &config);
        match smoke.caught {
            Some(cx) => Ok(format!(
                "mutation-smoke: planted {}\nharness caught it:\n{cx}\n",
                smoke.mutation
            )),
            None => Err(CliError::Verify(format!(
                "mutation-smoke FAILED: planted {} but the harness verified clean \
                 — the oracle machinery cannot detect real table damage",
                smoke.mutation
            ))),
        }
    } else {
        let report = verify_with_table(table, &config);
        let summary = report.summary();
        if report.is_clean() {
            Ok(summary)
        } else {
            Err(CliError::Verify(summary))
        }
    }
}

/// Dispatches the `lut` subcommands (`build`, `info`).
///
/// # Errors
///
/// Returns a user-facing message for unknown subcommands or flag
/// problems, and propagates build/load errors.
pub fn lut_command(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        Some("build") => {
            let mut lambda = None;
            let mut output = None;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--lambda" => lambda = Some(lambda_value(&mut it)?),
                    "-o" | "--output" => output = Some(next_value(&mut it, "-o")?),
                    other => return Err(usage_error(format!("unknown flag {other}"))),
                }
            }
            let lambda = lambda.ok_or_else(|| usage_error("lut build needs --lambda"))?;
            let output = output.ok_or_else(|| usage_error("lut build needs -o FILE"))?;
            gen_tables_command(lambda, &output)
        }
        Some("info") => {
            let path = args
                .get(1)
                .ok_or_else(|| usage_error("lut info needs a file"))?;
            stats_command(path)
        }
        Some(other) => Err(usage_error(format!(
            "unknown lut subcommand `{other}`\n\n{USAGE}"
        ))),
        None => Err(usage_error(format!(
            "lut needs a subcommand (build | info)\n\n{USAGE}"
        ))),
    }
}

/// Options of the `serve` command.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// λ of freshly built tables (ignored when `tables` is given).
    pub lambda: u8,
    /// Pre-generated table file to mmap instead of building.
    pub tables: Option<String>,
    /// Default per-request deadline (requests can override per-call).
    pub deadline_ms: Option<u64>,
    /// The daemon's configuration: bind addresses, batch workers, batch
    /// and admission bounds. The CLI serves `/metrics` by default.
    pub config: ServeConfig,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            lambda: 5,
            tables: None,
            deadline_ms: None,
            config: ServeConfig {
                http_addr: Some("127.0.0.1:0".to_string()),
                ..ServeConfig::default()
            },
        }
    }
}

/// What a finished `serve` run reports: the stdout summary line and
/// the stderr resilience report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeExit {
    /// One line for stdout: requests served/rejected.
    pub summary: String,
    /// The final aggregated [`ResilienceReport`] line, for stderr.
    pub report: String,
}

/// Runs the serving daemon until `stop` becomes non-zero, then drains
/// and returns the exit summary. `announce` receives the one
/// "listening" line once both listeners are bound (the daemon prints
/// it; tests parse the port out of it).
///
/// # Errors
///
/// Table-loading and bind failures surface as [`CliError`]; once
/// serving starts, per-request failures are answered on the wire, not
/// returned here.
pub fn serve_command_with(
    options: &ServeOptions,
    stop: &AtomicU32,
    reloads: &AtomicU32,
    announce: &mut dyn FnMut(&str),
) -> Result<ServeExit, CliError> {
    let mut engine = build_engine(options.tables.as_deref(), options.lambda)?;
    if let Some(ms) = options.deadline_ms {
        engine = engine.with_resilience(ResilienceConfig {
            deadline: Some(Duration::from_millis(ms)),
            ..ResilienceConfig::default()
        });
    }
    let server = serve(engine, options.config.clone()).map_err(|e| CliError::Io {
        path: options.config.addr.clone(),
        message: e.to_string(),
    })?;
    let http = match server.http_addr() {
        Some(a) => format!(", http {a}"),
        None => String::new(),
    };
    announce(&format!("listening on {}{http}\n", server.addr()));
    let mut reloads_seen = reloads.load(Ordering::SeqCst);
    while stop.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(50));
        // SIGHUP: hot-reload the serving table from the --tables file.
        // Validation happens off the hot path; a rejected candidate
        // leaves the old table serving and only costs a log line.
        let requested = reloads.load(Ordering::SeqCst);
        if requested != reloads_seen {
            reloads_seen = requested;
            match &options.tables {
                Some(path) => match server.reload_table(path) {
                    Ok(epoch) => {
                        announce(&format!("reloaded tables from {path} (epoch {epoch})\n"));
                    }
                    Err(detail) => {
                        announce(&format!(
                            "reload of {path} failed: {detail}; old table keeps serving\n"
                        ));
                    }
                },
                None => {
                    announce("reload requested but no --tables file to reload from\n");
                }
            }
        }
    }
    // First signal: drain. The batch in flight and everything admitted
    // complete; new requests are rejected as "shutting-down".
    let summary = server.shutdown();
    let report = format!("resilience: {}\n", summary.report);
    Ok(ServeExit {
        summary: format!(
            "serve: drained; {} nets routed, {} rejected, {} malformed\n",
            summary.report.nets, summary.rejected, summary.malformed
        ),
        report,
    })
}

/// Signal plumbing for `patlabor serve`: SIGINT/SIGTERM flip a counter
/// the serve loop polls (first signal drains, second aborts), and
/// SIGHUP flips a separate counter that triggers a hot table reload.
/// Raw `signal(2)` against libc — the one place the workspace talks to
/// the OS beyond std, kept to two symbols so everything stays
/// dependency-free.
pub mod signals {
    use std::sync::atomic::{AtomicU32, Ordering};

    /// How many SIGINT/SIGTERM deliveries the process has seen.
    pub static INTERRUPTS: AtomicU32 = AtomicU32::new(0);

    /// How many SIGHUP deliveries (hot-reload requests) the process
    /// has seen; the serve loop reloads once per observed change.
    pub static RELOADS: AtomicU32 = AtomicU32::new(0);

    const SIGHUP: i32 = 1;
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn _exit(code: i32) -> !;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe by construction: one atomic increment, and
        // on the second delivery an immediate _exit with the
        // conventional 128+SIGINT status — no allocation, no locks.
        if INTERRUPTS.fetch_add(1, Ordering::SeqCst) >= 1 {
            unsafe { _exit(130) }
        }
    }

    extern "C" fn on_reload(_signum: i32) {
        // One atomic increment; the serve loop does the actual reload
        // on its own thread where allocation and I/O are safe.
        RELOADS.fetch_add(1, Ordering::SeqCst);
    }

    /// Installs the drain-on-signal handlers for SIGINT and SIGTERM
    /// and the reload-on-SIGHUP handler.
    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGHUP, on_reload as *const () as usize);
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
patlabor — Pareto optimization of timing-driven routing trees

USAGE:
  patlabor route [--lambda L] [--tables FILE] [--pick SLACK] [--threads T]
                 [--faults SPEC[,SPEC..]] [--fault-seed N] [--deadline-ms MS]
                 [--json] [--eco EDITS.txt] <nets.txt>
  patlabor route [...] --bookshelf DESIGN.aux
  patlabor serve [--lambda L] [--tables FILE] [--addr HOST:PORT]
                 [--http-addr HOST:PORT | --no-http] [--threads T]
                 [--max-batch N] [--queue-depth N] [--deadline-ms MS]
  patlabor lut build --lambda L -o FILE
  patlabor lut info FILE
  patlabor verify [--seed N] [--nets N] [--lambda L] [--tables FILE]
                  [--max-degree D] [--threads T] [--span S]
                  [--faults SPEC[,SPEC..]] [--deadline-ms MS]
                  [--smoke] [--chaos-soak] [--no-shrink]

Net list: one net per line, `x,y` pins separated by spaces, source first;
`#` comments. `--lambda` takes 3..=9.

`route` routes the whole list through the batch driver on T workers
(`--threads`, default 1; the per-net output is identical at every T) and
ends with a `resilience:` line (nets served per rung), then a per-worker
`batch:` report when T > 1. `route --json` instead emits one
wire-protocol reply object per net (NDJSON), byte-compatible with the
`serve` daemon's responses.

`route --eco EDITS.txt` replays incremental edits after the base route:
one edit per line, `<net-index> <kind> <args>` where kind is one of
`translate dx,dy`, `move-pin IDX x,y`, `add-sink x,y`,
`remove-sink IDX`, `blockage x0,y0 x1,y1` (`#` comments). Each edit
reroutes its net through the delta API (one route of the edited net),
and the edits end with an `eco resilience:` line.

`serve` runs the routing daemon: a length-prefixed JSON socket protocol
(route, reroute and reload verbs) with request batching and admission
control, plus an HTTP adapter that serves only GET /metrics (Prometheus
exposition) and GET /healthz. First
SIGINT/SIGTERM drains what was admitted and exits 0 with the final
resilience report on stderr; a second signal aborts immediately. SIGHUP
hot-reloads the table from the --tables file: the candidate is validated
off the hot path and atomically swapped in under a new epoch — in-flight
routes finish on the old table, and a rejected candidate leaves the old
table serving.

`verify` cross-checks every fast path against its slow oracle on a seeded
corpus and reports the first divergence as a minimized counterexample;
`--smoke` instead plants a one-row table corruption and proves the
harness catches it; `--chaos-soak` instead boots a real daemon under a
seeded transport fault schedule (torn/corrupted frames, disconnects,
stalls) and audits the crash-only serving invariants: answered-exactly-
once-or-closed, bounded drain under chaos, a balanced per-rung ledger,
and no torn frame ever accepted. `--smoke` and `--chaos-soak` exclude
each other; `--span` takes 2 or more. Exit status is non-zero on any
divergence.

Fault SPEC: kind[:probability][@rung|@all], e.g. `stage-panic:0.3@all` or
`missing-degree`. Kinds: missing-degree, missing-pattern, corrupted-row,
stage-panic, stage-delay. With `--faults`/`--deadline-ms`, `route` runs a
drill (a failed net prints `FAILED` inline instead of ending the run)
and `verify` replays its corpus through the fault-armed router,
checking the degradation ladder's service invariants.
";

/// Parses CLI arguments and dispatches; returns the output to print or a
/// [`CliError`] (exit code 2 territory).
///
/// # Errors
///
/// Returns a user-facing diagnostic for unknown commands, malformed
/// flags, unreadable files, malformed net lists and per-net routing
/// failures — never a panic.
pub fn run(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        Some("route") => {
            let mut options = RouteOptions::default();
            let mut file = None;
            let mut bookshelf = None;
            let mut eco_path = None;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--lambda" => options.lambda = lambda_value(&mut it)?,
                    "--tables" => options.tables = Some(next_value(&mut it, "--tables")?),
                    "--pick" => {
                        options.pick_slack = Some(parse_value(&mut it, "--pick", "a number")?)
                    }
                    "--bookshelf" => bookshelf = Some(next_value(&mut it, "--bookshelf")?),
                    "--faults" => options.faults.extend(faults_value(&mut it)?),
                    "--fault-seed" => options.fault_seed = seed_value(&mut it, "--fault-seed")?,
                    "--deadline-ms" => options.deadline_ms = Some(deadline_value(&mut it)?),
                    "--threads" => options.threads = positive_value(&mut it, "--threads")?,
                    "--json" => options.json = true,
                    "--eco" => eco_path = Some(next_value(&mut it, "--eco")?),
                    other if !other.starts_with('-') => file = Some(other.to_string()),
                    other => return Err(usage_error(format!("unknown flag {other}"))),
                }
            }
            let nets = match (bookshelf, file) {
                (Some(aux), _) => {
                    let design = patlabor_bookshelf::load_design(&aux).map_err(|e| {
                        CliError::Io {
                            path: aux.clone(),
                            message: e.to_string(),
                        }
                    })?;
                    design.nets
                }
                (None, Some(file)) => parse_nets(&read_file(&file)?)?,
                (None, None) => {
                    return Err(usage_error("route needs a net-list file or --bookshelf AUX"))
                }
            };
            if let Some(path) = eco_path {
                options.eco = parse_edits(&read_file(&path)?)?;
            }
            route_command(&nets, &options)
        }
        Some("lut") => lut_command(&args[1..]),
        Some("serve") => {
            let mut options = ServeOptions::default();
            let config = &mut options.config;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--lambda" => options.lambda = lambda_value(&mut it)?,
                    "--tables" => options.tables = Some(next_value(&mut it, "--tables")?),
                    "--deadline-ms" => options.deadline_ms = Some(deadline_value(&mut it)?),
                    "--addr" => config.addr = next_value(&mut it, "--addr")?,
                    "--http-addr" => config.http_addr = Some(next_value(&mut it, "--http-addr")?),
                    "--no-http" => config.http_addr = None,
                    "--threads" => {
                        config.threads = parse_value(&mut it, "--threads", "an integer")?
                    }
                    "--max-batch" => config.max_batch = positive_value(&mut it, "--max-batch")?,
                    "--queue-depth" => {
                        config.queue_depth = positive_value(&mut it, "--queue-depth")?
                    }
                    other => return Err(usage_error(format!("unknown flag {other}"))),
                }
            }
            signals::install();
            let exit = serve_command_with(&options, &signals::INTERRUPTS, &signals::RELOADS, &mut |line| {
                // The listening line must reach the operator before the
                // (possibly hours-long) serve loop, so it bypasses the
                // run() return value.
                print!("{line}");
                let _ = std::io::Write::flush(&mut std::io::stdout());
            })?;
            // The final resilience report goes to stderr, keeping
            // stdout machine-readable.
            eprint!("{}", exit.report);
            Ok(exit.summary)
        }
        Some("verify") => {
            let mut options = VerifyOptions::default();
            let config = &mut options.config;
            let mut faults = Vec::new();
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--seed" => config.seed = seed_value(&mut it, "--seed")?,
                    "--nets" => config.nets = parse_value(&mut it, "--nets", "an integer")?,
                    "--lambda" => config.lambda = lambda_value(&mut it)?,
                    "--max-degree" => {
                        config.max_degree = parse_value(&mut it, "--max-degree", "an integer")?;
                    }
                    "--threads" => {
                        config.threads = parse_value(&mut it, "--threads", "an integer")?
                    }
                    "--span" => config.span = parse_value(&mut it, "--span", "an integer")?,
                    "--tables" => options.tables = Some(next_value(&mut it, "--tables")?),
                    "--smoke" => options.smoke = true,
                    "--chaos-soak" => options.chaos_soak = true,
                    "--no-shrink" => config.shrink = false,
                    "--faults" => faults.extend(faults_value(&mut it)?),
                    "--deadline-ms" => config.deadline_ms = Some(deadline_value(&mut it)?),
                    other => return Err(usage_error(format!("unknown flag {other}"))),
                }
            }
            // Folded after the loop so `--seed` applies regardless of
            // flag order.
            config.faults = faults
                .iter()
                .fold(FaultPlane::seeded(config.seed), |plane, &fault| {
                    plane.with_fault(fault)
                });
            verify_command(&options)
        }
        Some("--help") | Some("-h") | None => Ok(USAGE.to_string()),
        Some(other) => Err(usage_error(format!("unknown command `{other}`\n\n{USAGE}"))),
    }
}

/// The λ values tables can be built for (`LutBuilder::new` asserts the
/// same range).
const LAMBDAS: std::ops::RangeInclusive<u8> = 3..=9;

fn next_value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, CliError> {
    it.next()
        .cloned()
        .ok_or_else(|| usage_error(format!("{flag} expects a value")))
}

/// Reads the value after `flag` as a `T`; `expects` names what a
/// malformed value should have been.
fn parse_value<T: FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
    expects: &str,
) -> Result<T, CliError> {
    next_value(it, flag)?
        .parse()
        .map_err(|_| usage_error(format!("{flag} expects {expects}")))
}

fn positive_value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<usize, CliError> {
    parse_value::<NonZeroUsize>(it, flag, "a positive integer").map(NonZeroUsize::get)
}

/// Reads `--lambda`: the one check of λ against `LAMBDAS`, for every
/// command that takes it.
fn lambda_value(it: &mut std::slice::Iter<'_, String>) -> Result<u8, CliError> {
    let lambda: i64 = parse_value(it, "--lambda", "an integer")?;
    u8::try_from(lambda)
        .ok()
        .filter(|l| LAMBDAS.contains(l))
        .ok_or_else(|| {
            usage_error(format!(
                "--lambda must be {}..={}, got {lambda}",
                LAMBDAS.start(),
                LAMBDAS.end()
            ))
        })
}

fn deadline_value(it: &mut std::slice::Iter<'_, String>) -> Result<u64, CliError> {
    parse_value(it, "--deadline-ms", "an integer")
}

/// Reads a comma-separated `--faults` list of fault specs.
fn faults_value(it: &mut std::slice::Iter<'_, String>) -> Result<Vec<Fault>, CliError> {
    next_value(it, "--faults")?
        .split(',')
        .map(|spec| Fault::parse(spec.trim()).map_err(usage_error))
        .collect()
}

/// Reads a seed, decimal or `0x` hex.
fn seed_value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<u64, CliError> {
    let value = next_value(it, flag)?;
    match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => value.parse().ok(),
    }
    .ok_or_else(|| usage_error(format!("{flag} expects an integer (decimal or 0x hex)")))
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_nets_happy_path() {
        let nets = parse_nets("# demo\n0,0 40,15 12,33\n\n5,5 25,5 # trailing\n").unwrap();
        assert_eq!(nets.len(), 2);
        assert_eq!(nets[0].degree(), 3);
        assert_eq!(nets[1].pins()[1], Point::new(25, 5));
    }

    #[test]
    fn parse_nets_reports_line_numbers() {
        let err = parse_nets("0,0 1,1\nbroken\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("x,y"));
        let err = parse_nets("0,0 1,x\n").unwrap_err();
        assert!(err.message.contains("not an integer"));
        let err = parse_nets("0,0\n").unwrap_err();
        assert!(err.message.contains("at least two pins"));
    }

    #[test]
    fn route_command_prints_frontiers_and_picks() {
        let nets = parse_nets("19,2 8,4 4,3 5,4 13,12\n").unwrap();
        let options = RouteOptions {
            lambda: 5,
            pick_slack: Some(1.2),
            ..RouteOptions::default()
        };
        let out = route_command(&nets, &options).unwrap();
        assert!(out.contains("2 Pareto solutions via exact-lut"));
        assert!(out.contains("w=26 d=18"));
        assert!(out.contains("pick (budget 19): w=26 d=18"));
        assert!(out.contains(" -- "));
        assert!(out.contains(
            "resilience: 1 nets: 1 served (0 degraded), 0 errors (0 panicked), 0 deadline hits; \
             served by: closed-form 0 cache 0 lut 1 numeric-dw 0 local-search 0 baseline 0\n"
        ));
    }

    #[test]
    fn route_command_provenance_counts_cache_hits() {
        // The same congruence class twice: the CLI's engine has no
        // frontier cache, so the table answers both nets, and the
        // trailer has no `cache:` line.
        let nets = parse_nets("0,0 7,2 3,9\n100,50 107,52 103,59\n").unwrap();
        let out = route_command(&nets, &RouteOptions::default()).unwrap();
        assert!(out.contains("net 0 (degree 3): 1 Pareto solutions via exact-lut"));
        assert!(out.contains("net 1 (degree 3): 1 Pareto solutions via exact-lut"));
        assert!(
            out.contains("served by: closed-form 0 cache 0 lut 2 "),
            "{out}"
        );
        assert!(!out.contains("cache:"), "{out}");
    }

    #[test]
    fn parse_edits_covers_every_kind_and_reports_errors() {
        let edits = parse_edits(
            "# chained edits\n\
             0 translate 5,-2\n\
             1 move-pin 2 7,7\n\
             2 add-sink 3,4   # trailing comment\n\
             0 remove-sink 1\n\
             \n\
             3 blockage 2,2 8,8\n",
        )
        .unwrap();
        assert_eq!(edits.len(), 5);
        assert_eq!(
            edits[0],
            EcoEdit {
                net: 0,
                kind: DeltaKind::Translate { dx: 5, dy: -2 }
            }
        );
        assert_eq!(
            edits[1],
            EcoEdit {
                net: 1,
                kind: DeltaKind::MovePin {
                    index: 2,
                    to: Point::new(7, 7)
                }
            }
        );
        assert_eq!(
            edits[4],
            EcoEdit {
                net: 3,
                kind: DeltaKind::BlockageMask {
                    min: Point::new(2, 2),
                    max: Point::new(8, 8)
                }
            }
        );

        let err = parse_edits("0 teleport 1,1\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("teleport"));
        assert!(err.message.contains("translate"));
        let err = parse_edits("0 translate 5,-2\nnope translate 1,1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("net index"));
        let err = parse_edits("0 move-pin 2\n").unwrap_err();
        assert!(err.message.contains("x,y"));
        let err = parse_edits("0 remove-sink 1 9,9\n").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    /// Every outcome `parse_edits` may give a hostile file: edits, at
    /// most one per line, or an error naming a line of the file. A panic
    /// fails the test.
    fn assert_edits_structured(text: &str) {
        let lines = text.lines().count();
        match parse_edits(text) {
            Ok(edits) => assert!(edits.len() <= lines, "{text:?}"),
            Err(e) => {
                assert!(
                    (1..=lines).contains(&e.line),
                    "line {} of {lines}: {text:?}",
                    e.line
                );
                assert!(!e.message.is_empty(), "{text:?}");
            }
        }
    }

    /// Seeded hostile corpus for `--eco` edit files: every truncation of
    /// a valid file holding all five edit kinds, single- and multi-byte
    /// flips of it that keep it ASCII (so valid UTF-8), and random
    /// files, some drawn from the edit grammar's own tokens.
    #[test]
    fn hostile_edit_files_get_structured_answers() {
        let valid = "# chained edits\n\
                     0 translate 5,-2\n\
                     1 move-pin 2 7,7\n\
                     2 add-sink 3,4   # trailing comment\n\
                     0 remove-sink 1\n\
                     \n\
                     3 blockage 2,2 8,8\n";
        assert_eq!(parse_edits(valid).map(|e| e.len()), Ok(5));
        let mut state = 0x0ec0_11e5_u64;
        let mut next = || {
            state = patlabor::resilience::splitmix64(state);
            state
        };
        for len in 0..valid.len() {
            assert_edits_structured(&valid[..len]);
        }
        for flips in [1, 1, 1, 2, 3, 5, 8] {
            for _ in 0..256 {
                let mut damaged = valid.as_bytes().to_vec();
                for _ in 0..flips {
                    let h = next();
                    let at = (h % damaged.len() as u64) as usize;
                    damaged[at] ^= ((h >> 32) as u8 & 0x7f).max(1);
                }
                let damaged = String::from_utf8(damaged).expect("ASCII stays UTF-8");
                assert_edits_structured(&damaged);
            }
        }
        const TOKENS: [&str; 16] = [
            "translate",
            "move-pin",
            "add-sink",
            "remove-sink",
            "blockage",
            "0",
            "7",
            "-3",
            "5,-2",
            "9223372036854775808",
            ",",
            "#",
            " ",
            "\n",
            "\r\n",
            "\t",
        ];
        for round in 0..2_000 {
            let len = (next() % 32) as usize;
            let random: String = (0..len)
                .map(|_| {
                    let h = next();
                    if round % 2 == 0 {
                        char::from_u32((h % 0x11_0000) as u32)
                            .unwrap_or('\u{fffd}')
                            .to_string()
                    } else {
                        TOKENS[(h % TOKENS.len() as u64) as usize].to_string()
                    }
                })
                .collect();
            assert_edits_structured(&random);
        }
    }

    #[test]
    fn route_eco_replays_class_preserving_edits() {
        // A translate preserves the congruence class, but the CLI's
        // engine has no frontier cache to replay from: each chained
        // edit is one route of the edited net through the table, and
        // its frontier is the base net's.
        let nets = parse_nets("19,2 8,4 4,3 5,4\n").unwrap();
        let options = RouteOptions {
            eco: parse_edits("0 translate 5,-2\n0 translate 1,1\n").unwrap(),
            ..RouteOptions::default()
        };
        let out = route_command(&nets, &options).unwrap();
        assert!(out.contains("eco: 2 edits"), "missing eco header:\n{out}");
        let base = out.lines().next().unwrap();
        let solutions = &base[base.find(": ").unwrap()..];
        assert!(solutions.ends_with("via exact-lut"), "{out}");
        for edit in 0..2 {
            assert!(
                out.contains(&format!("edit {edit}: net 0 translate{solutions}\n")),
                "edit {edit} should route through the table:\n{out}"
            );
        }
        assert!(
            out.contains(
                "eco resilience: 2 nets: 2 served (0 degraded), 0 errors (0 panicked), \
                 0 deadline hits; served by: closed-form 0 cache 0 lut 2 "
            ),
            "both edits route through the table:\n{out}"
        );
    }

    #[test]
    fn route_eco_rejects_incompatible_modes_and_bad_indices() {
        let nets = parse_nets("19,2 8,4 4,3 5,4\n").unwrap();
        let eco = parse_edits("0 translate 5,-2\n").unwrap();
        for options in [
            RouteOptions {
                eco: eco.clone(),
                json: true,
                ..RouteOptions::default()
            },
            RouteOptions {
                eco: eco.clone(),
                threads: 2,
                ..RouteOptions::default()
            },
            RouteOptions {
                eco: eco.clone(),
                deadline_ms: Some(10),
                ..RouteOptions::default()
            },
        ] {
            let err = route_command(&nets, &options).unwrap_err();
            assert!(err.to_string().contains("--eco"), "{err}");
        }
        let options = RouteOptions {
            eco: parse_edits("7 translate 1,1\n").unwrap(),
            ..RouteOptions::default()
        };
        let err = route_command(&nets, &options).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn route_eco_flag_reads_the_edits_file() {
        let dir = std::env::temp_dir().join("patlabor_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let nets_file = dir.join("eco_nets.txt");
        let edits_file = dir.join("eco_edits.txt");
        std::fs::write(&nets_file, "19,2 8,4 4,3 5,4\n").unwrap();
        std::fs::write(&edits_file, "0 translate 3,3\n").unwrap();
        let out = run(&[
            "route".into(),
            "--eco".into(),
            edits_file.to_string_lossy().into_owned(),
            nets_file.to_string_lossy().into_owned(),
        ])
        .unwrap();
        assert!(out.contains("eco: 1 edits"));
        let edit = out.lines().find(|l| l.starts_with("edit 0: ")).unwrap();
        assert!(edit.starts_with("edit 0: net 0 translate: "), "{out}");
        assert!(edit.ends_with("via exact-lut"), "{out}");
        std::fs::remove_file(&nets_file).ok();
        std::fs::remove_file(&edits_file).ok();
    }

    /// The per-net text of a `route` output: everything before the
    /// trailer.
    fn per_net_text(out: &str) -> &str {
        &out[..out.find("resilience: ").unwrap()]
    }

    /// Each trailer line's label: the text before its first `:`.
    fn trailer_labels(out: &str) -> Vec<&str> {
        out[out.find("resilience: ").unwrap()..]
            .lines()
            .map(|line| line.split(':').next().unwrap())
            .collect()
    }

    /// Serial, `--threads 3`, drill and `--json` are one batch call and
    /// one render loop: the human modes print byte-identical per-net
    /// text, congruent nets included, and end with the one trailer —
    /// `resilience:`, then `batch:` (threaded only) — and NDJSON prints
    /// one reply per net, nothing else.
    #[test]
    fn route_modes_share_one_render_loop_and_one_trailer() {
        let nets = parse_nets(
            "0,0 7,2 3,9\n100,50 107,52 103,59\n0,0 5,5 9,1 2,8\n5,5 25,5\n\
             0,0 9,3 4,8 12,1 7,7 2,11 10,10\n",
        )
        .unwrap();
        let route = |options: RouteOptions| route_command(&nets, &options).unwrap();
        let serial = route(RouteOptions::default());
        let threaded = route(RouteOptions {
            threads: 3,
            ..RouteOptions::default()
        });
        // A deadline no net reaches: drill mode, same answers.
        let drill = route(RouteOptions {
            deadline_ms: Some(60_000),
            ..RouteOptions::default()
        });
        let json = route(RouteOptions {
            json: true,
            ..RouteOptions::default()
        });

        assert_eq!(trailer_labels(&serial), ["resilience"]);
        assert_eq!(trailer_labels(&drill), ["resilience"]);
        let labels = trailer_labels(&threaded);
        assert_eq!(labels[..2], ["resilience", "batch"]);
        assert!(labels[2..].iter().all(|l| l.starts_with("  worker ")));
        assert!(serial.contains("resilience: 5 nets: 5 served (0 degraded), 0 errors"));

        assert_eq!(per_net_text(&threaded), per_net_text(&serial));
        assert_eq!(per_net_text(&drill), per_net_text(&serial));
        assert_eq!(json.lines().count(), nets.len());
        assert!(
            json.lines().all(|line| line.starts_with("{\"id\":")),
            "{json}"
        );
    }

    #[test]
    fn route_threads_matches_serial_and_appends_scaling_report() {
        let nets = parse_nets(
            "0,0 7,2 3,9\n100,50 107,52 103,59\n0,0 5,5 9,1 2,8\n1,1 8,3 4,4\n",
        )
        .unwrap();
        let serial = route_command(&nets, &RouteOptions::default()).unwrap();
        let parallel = route_command(
            &nets,
            &RouteOptions {
                threads: 3,
                ..RouteOptions::default()
            },
        )
        .unwrap();
        assert_eq!(per_net_text(&parallel), per_net_text(&serial));
        // The serial output, `resilience:` line included, then the
        // scaling report on top and no `cache:` line.
        let batch = parallel.find("batch: ").unwrap();
        assert_eq!(&parallel[..batch], serial);
        assert!(parallel[batch..].contains("worker 0:"));
        assert!(!parallel.contains("cache:"));
        assert!(!serial.contains("batch: "));
    }

    #[test]
    fn route_threads_flag_is_parsed_and_validated() {
        let dir = std::env::temp_dir().join("patlabor_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("threads_nets.txt");
        std::fs::write(&file, "0,0 4,2 2,4\n6,0 1,5 3,3\n").unwrap();
        let path = file.to_string_lossy().into_owned();
        let out = run(&[
            "route".into(),
            "--threads".into(),
            "2".into(),
            path.clone(),
        ])
        .unwrap();
        assert!(out.contains("batch: "));
        let err = run(&["route".into(), "--threads".into(), "0".into(), path]).unwrap_err();
        assert!(err.to_string().contains("--threads"));
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn missing_table_file_is_a_diagnostic_not_a_panic() {
        let nets = parse_nets("0,0 4,2 2,4\n").unwrap();
        let options = RouteOptions {
            tables: Some("/nonexistent/tables.plut".into()),
            ..RouteOptions::default()
        };
        let err = route_command(&nets, &options).unwrap_err();
        assert!(matches!(err, CliError::Table { .. }));
        assert!(err.to_string().contains("/nonexistent/tables.plut"));
    }

    #[test]
    fn malformed_net_line_is_a_diagnostic_not_a_panic() {
        let dir = std::env::temp_dir().join("patlabor_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("broken_nets.txt");
        std::fs::write(&file, "0,0 1,1\nthis is not a net\n").unwrap();
        let err = run(&["route".into(), file.to_string_lossy().into_owned()]).unwrap_err();
        assert!(matches!(err, CliError::Parse(_)));
        assert!(err.to_string().contains("line 2"));
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn gen_and_stats_roundtrip() {
        let dir = std::env::temp_dir().join("patlabor_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.plut").to_string_lossy().into_owned();
        let msg = gen_tables_command(4, &path).unwrap();
        assert!(msg.contains("lambda=4"));
        let stats = stats_command(&path).unwrap();
        assert!(stats.contains("lambda = 4"));
        assert!(stats.contains("16")); // degree-4 #Index
        std::fs::remove_file(&path).ok();
    }

    /// `lut build` and `lut info` are the table commands; the old
    /// `gen-tables` and `stats` names are unknown commands, a usage
    /// error (`main` exits 2 on every error) that writes no file.
    #[test]
    fn gen_tables_and_stats_are_unknown_commands() {
        let path = std::env::temp_dir()
            .join("patlabor_cli_test_no_alias.plut")
            .to_string_lossy()
            .into_owned();
        for words in [
            vec!["gen-tables", "--lambda", "3", "-o", path.as_str()],
            vec!["stats", path.as_str()],
        ] {
            let argv: Vec<String> = words.iter().map(|w| w.to_string()).collect();
            match run(&argv) {
                Err(CliError::Usage(message)) => assert!(
                    message.starts_with(&format!("unknown command `{}`", words[0])),
                    "{message}"
                ),
                other => panic!("`{}` was accepted: {other:?}", words[0]),
            }
        }
        assert!(!std::path::Path::new(&path).exists());
        assert!(!USAGE.contains("gen-tables") && !USAGE.contains("stats"));
    }

    /// `command` given `--lambda` 2 and then 10 (either side of the
    /// tabulable range) is a usage error before any table is built.
    fn assert_lambda_rejected(command: &[&str]) {
        for lambda in ["2", "10"] {
            let mut argv: Vec<String> = command.iter().map(|w| w.to_string()).collect();
            argv.extend(["--lambda".to_string(), lambda.to_string()]);
            match run(&argv) {
                Err(CliError::Usage(message)) => {
                    assert_eq!(message, format!("--lambda must be 3..=9, got {lambda}"));
                }
                other => panic!("{argv:?} was not a usage error: {other:?}"),
            }
        }
    }

    #[test]
    fn route_rejects_lambda_outside_the_table_range() {
        assert_lambda_rejected(&["route", "/nonexistent/nets.txt"]);
    }

    #[test]
    fn serve_rejects_lambda_outside_the_table_range() {
        assert_lambda_rejected(&["serve", "--no-http"]);
    }

    #[test]
    fn verify_rejects_lambda_outside_the_table_range() {
        assert_lambda_rejected(&["verify", "--nets", "1"]);
    }

    #[test]
    fn lut_build_rejects_lambda_outside_the_table_range() {
        let path = std::env::temp_dir()
            .join("patlabor_cli_test_bad_lambda.plut")
            .to_string_lossy()
            .into_owned();
        assert_lambda_rejected(&["lut", "build", "-o", &path]);
        assert!(!std::path::Path::new(&path).exists());
    }

    #[test]
    fn lut_build_and_info_end_to_end() {
        let dir = std::env::temp_dir().join("patlabor_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lut3.plut").to_string_lossy().into_owned();
        let msg = run(&[
            "lut".into(),
            "build".into(),
            "--lambda".into(),
            "3".into(),
            "-o".into(),
            path.clone(),
        ])
        .unwrap();
        assert!(msg.contains("lambda=3"));
        let info = run(&["lut".into(), "info".into(), path.clone()]).unwrap();
        assert!(info.contains("lambda = 3"));
        assert!(info.contains("arena bytes"));
        assert!(info.contains("format v4"), "info was: {info}");
        assert!(info.contains("zero-copy mappable"), "info was: {info}");
        assert!(info.contains("edge_off"), "info was: {info}");
        assert!(info.contains("checksum"), "info was: {info}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lut_info_explains_a_damaged_file_and_still_fails() {
        let dir = std::env::temp_dir().join("patlabor_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flipped3.plut").to_string_lossy().into_owned();
        let build = ["lut", "build", "--lambda", "3", "-o", &path].map(String::from);
        run(&build).unwrap();
        // Flip the last payload byte: the header and section table still
        // parse, so only the checksum can tell.
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0x5A;
        std::fs::write(&path, &bytes).unwrap();
        let err = run(&["lut".into(), "info".into(), path.clone()]).unwrap_err();
        let msg = err.to_string();
        // The loader's error still comes first…
        assert!(
            msg.starts_with(&format!("{path}: payload checksum mismatch")),
            "was: {msg}"
        );
        // …and the file-level report follows it.
        assert!(msg.contains("format v4"), "was: {msg}");
        assert!(msg.contains("(MISMATCH), NOT mappable"), "was: {msg}");
        assert!(msg.contains("edge_off"), "was: {msg}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lut_build_has_no_format_flag() {
        let err = run(&[
            "lut".into(),
            "build".into(),
            "--lambda".into(),
            "3".into(),
            "--format".into(),
            "v4".into(),
            "-o".into(),
            "/tmp/never-written.plut".into(),
        ])
        .unwrap_err();
        assert!(
            err.to_string().contains("unknown flag --format"),
            "error was: {err}"
        );
    }

    #[test]
    fn lut_info_names_the_migration_path_for_v3_files() {
        let dir = std::env::temp_dir().join("patlabor_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old_v3.plut").to_string_lossy().into_owned();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"PLUT");
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.resize(64, 0);
        std::fs::write(&path, &bytes).unwrap();
        let err = run(&["lut".into(), "info".into(), path.clone()]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unsupported table version 3"), "was: {msg}");
        assert!(
            msg.contains("patlabor lut build --lambda <L> -o <FILE>"),
            "was: {msg}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lut_subcommand_errors_are_actionable() {
        assert!(run(&["lut".into()])
            .unwrap_err()
            .to_string()
            .contains("build | info"));
        assert!(run(&["lut".into(), "bogus".into()])
            .unwrap_err()
            .to_string()
            .contains("unknown lut subcommand"));
        assert!(run(&["lut".into(), "build".into()])
            .unwrap_err()
            .to_string()
            .contains("--lambda"));
        assert!(run(&["lut".into(), "info".into()])
            .unwrap_err()
            .to_string()
            .contains("needs a file"));
    }

    #[test]
    fn run_dispatch_and_usage() {
        let help = run(&[]).unwrap();
        assert!(help.contains("USAGE"));
        let err = run(&["bogus".into()]).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
        let err = run(&["route".into()]).unwrap_err();
        assert!(err.to_string().contains("net-list file"));
        let err = run(&["route".into(), "--bookshelf".into(), "/nonexistent.aux".into()])
            .unwrap_err();
        assert!(err.to_string().contains("nonexistent"));
        let err = run(&["route".into(), "--lambda".into()]).unwrap_err();
        assert!(err.to_string().contains("expects a value"));
    }

    fn small_verify_options() -> VerifyOptions {
        VerifyOptions {
            config: VerifyConfig {
                seed: 0xcafe,
                nets: 12,
                max_degree: 4,
                lambda: 4,
                threads: 2,
                span: 16,
                shrink: true,
                ..VerifyConfig::default()
            },
            tables: None,
            smoke: false,
            chaos_soak: false,
        }
    }

    #[test]
    fn verify_chaos_soak_flag_runs_the_soak() {
        let out = verify_command(&VerifyOptions {
            chaos_soak: true,
            ..small_verify_options()
        })
        .unwrap();
        assert!(out.contains("chaos-soak: seed 0xcafe"), "{out}");
        assert!(out.contains("all crash-only invariants held"), "{out}");
    }

    #[test]
    fn verify_span_below_two_is_a_usage_error() {
        for span in ["0", "1"] {
            let argv = ["verify", "--nets", "1", "--span", span].map(String::from);
            match run(&argv) {
                Err(CliError::Usage(message)) => {
                    assert_eq!(message, "--span must be at least 2");
                }
                other => panic!("--span {span} was not a usage error: {other:?}"),
            }
        }
    }

    #[test]
    fn verify_smoke_with_chaos_soak_is_a_usage_error() {
        let argv = ["verify", "--smoke", "--chaos-soak"].map(String::from);
        match run(&argv) {
            Err(CliError::Usage(message)) => {
                assert!(message.contains("--smoke and --chaos-soak"), "{message}");
            }
            other => panic!("--smoke --chaos-soak was not a usage error: {other:?}"),
        }
    }

    #[test]
    fn verify_command_clean_run_reports_every_pair() {
        let out = verify_command(&small_verify_options()).unwrap();
        assert!(out.contains("all fast paths agree"));
        assert!(out.contains("lut-vs-numeric-dw"));
        assert!(out.contains("mmap-vs-owned"));
        assert!(out.contains("batch-vs-serial"));
        assert!(out.contains("seed 0xcafe"));
    }

    #[test]
    fn verify_command_smoke_mode_proves_detection() {
        let options = VerifyOptions {
            smoke: true,
            ..small_verify_options()
        };
        let out = verify_command(&options).unwrap();
        assert!(out.contains("mutation-smoke: planted"));
        assert!(out.contains("divergence on pair"));
    }

    #[test]
    fn verify_command_flags_a_corrupt_table_file() {
        let dir = std::env::temp_dir().join("patlabor_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.plut").to_string_lossy().into_owned();
        let mut table = LutBuilder::new(4).build();
        // Corrupt every degree-4 cost row: any degree-4 corpus net with a
        // nonzero gap vector then scores a shifted frontier.
        let mut id = 0u32;
        while table.corrupt_cost_row(4, id, 3) {
            id += 1;
        }
        assert!(id > 0, "the degree-4 pool cannot be empty");
        table.save(&path).unwrap();
        let options = VerifyOptions {
            tables: Some(path.clone()),
            ..small_verify_options()
        };
        let err = verify_command(&options).unwrap_err();
        let text = err.to_string();
        assert!(
            matches!(err, CliError::Verify(_)),
            "expected a verify failure, got: {text}"
        );
        assert!(text.contains("divergence on pair"), "report was: {text}");
        assert!(text.contains("replay:"), "report was: {text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn route_drill_missing_degree_degrades_and_reports() {
        let nets = parse_nets("19,2 8,4 4,3 5,4 13,12\n").unwrap();
        let options = RouteOptions {
            faults: vec![Fault::parse("missing-degree").unwrap()],
            ..RouteOptions::default()
        };
        let out = route_command(&nets, &options).unwrap();
        assert!(out.contains("via numeric-dw"), "output was: {out}");
        assert!(out.contains("degraded: lut:missing-degree"), "output was: {out}");
        assert!(out.contains("resilience: "), "output was: {out}");
        // The drill serves the same frontier costs as a healthy run.
        assert!(out.contains("w=26 d=18"), "output was: {out}");
    }

    #[test]
    fn route_drill_unabsorbable_panic_fails_inline_not_fatally() {
        let nets = parse_nets("0,0 9,1 8,8\n5,5 25,5\n").unwrap();
        let options = RouteOptions {
            faults: vec![Fault::parse("stage-panic@all").unwrap()],
            ..RouteOptions::default()
        };
        let out = route_command(&nets, &options).unwrap();
        assert!(out.contains("net 0 (degree 3): FAILED:"), "output was: {out}");
        assert!(out.contains("routing worker panicked"), "output was: {out}");
        // Degree 2 is a closed form — no rung to panic, so it serves.
        assert!(out.contains("net 1 (degree 2): 1 Pareto solutions"), "output was: {out}");
    }

    #[test]
    fn run_parses_fault_flags() {
        let err = run(&["route".into(), "--faults".into(), "bogus-kind".into()]).unwrap_err();
        assert!(err.to_string().contains("unknown fault kind"));
        let err = run(&["verify".into(), "--faults".into(), "stage-panic:2.0".into()]).unwrap_err();
        assert!(err.to_string().contains("out of [0, 1]"));
        let err = run(&["route".into(), "--deadline-ms".into(), "soon".into()]).unwrap_err();
        assert!(err.to_string().contains("--deadline-ms expects an integer"));
        let err = run(&["route".into(), "--fault-seed".into(), "zzz".into()]).unwrap_err();
        assert!(err.to_string().contains("--fault-seed expects an integer"));
        assert!(USAGE.contains("--faults"));
    }

    #[test]
    fn verify_command_runs_the_fault_sweep_when_asked() {
        let mut options = small_verify_options();
        options.config.faults = FaultPlane::seeded(options.config.seed).with_fault(
            Fault::parse("missing-degree:0.5").unwrap(),
        );
        let out = verify_command(&options).unwrap();
        assert!(out.contains("fault sweep:"), "output was: {out}");
        assert!(out.contains("all fast paths agree"), "output was: {out}");
    }

    #[test]
    fn run_parses_verify_flags() {
        // An impossible flag combination errors before any expensive work.
        let err = run(&["verify".into(), "--seed".into(), "zzz".into()]).unwrap_err();
        assert!(err.to_string().contains("--seed expects an integer"));
        let err = run(&["verify".into(), "--max-degree".into(), "2".into()]).unwrap_err();
        assert!(err.to_string().contains("--max-degree must be at least"));
        let err = run(&["verify".into(), "--bogus".into()]).unwrap_err();
        assert!(err.to_string().contains("unknown flag"));
        // Usage text advertises the subcommand.
        assert!(run(&[]).unwrap().contains("patlabor verify"));
    }

    #[test]
    fn route_json_is_byte_compatible_with_the_wire_protocol() {
        let nets = parse_nets("19,2 8,4 4,3 5,4 13,12\n5,5 25,5\n").unwrap();
        let options = RouteOptions {
            json: true,
            ..RouteOptions::default()
        };
        let out = route_command(&nets, &options).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), nets.len());
        // Each line is exactly what a serve daemon over the same engine
        // would answer — same serializer, same bytes.
        let reference = Engine::with_config(patlabor::RouterConfig {
            lambda: options.lambda,
            ..patlabor::RouterConfig::default()
        });
        for (i, (line, net)) in lines.iter().zip(&nets).enumerate() {
            let expected =
                patlabor_serve::result_to_json(i as u64, &reference.route(net)).render();
            assert_eq!(*line, expected, "net {i} diverged from the wire serializer");
            let parsed = patlabor_serve::parse(line).unwrap();
            assert_eq!(parsed.get("ok").and_then(|j| j.as_bool()), Some(true));
        }
    }

    #[test]
    fn route_json_reports_failures_inline_like_the_daemon() {
        let nets = parse_nets("0,0 9,1 8,8\n5,5 25,5\n").unwrap();
        let options = RouteOptions {
            json: true,
            faults: vec![Fault::parse("stage-panic@all").unwrap()],
            ..RouteOptions::default()
        };
        let out = route_command(&nets, &options).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        let failed = patlabor_serve::parse(lines[0]).unwrap();
        assert_eq!(
            failed.get("error").and_then(|j| j.as_str()),
            Some("route"),
            "line was: {}",
            lines[0]
        );
        // Degree 2 is a closed form — no rung to panic, so it serves.
        let served = patlabor_serve::parse(lines[1]).unwrap();
        assert_eq!(served.get("ok").and_then(|j| j.as_bool()), Some(true));
    }

    #[test]
    fn serve_command_serves_then_drains_on_stop() {
        use std::sync::mpsc;
        let stop = AtomicU32::new(0);
        let reloads = AtomicU32::new(0);
        let options = ServeOptions {
            lambda: 4,
            config: ServeConfig::default(),
            ..ServeOptions::default()
        };
        let (tx, rx) = mpsc::channel::<String>();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                serve_command_with(&options, &stop, &reloads, &mut |line| {
                    tx.send(line.to_string()).unwrap();
                })
            });
            let line = rx.recv().unwrap();
            let addr: std::net::SocketAddr = line
                .trim()
                .strip_prefix("listening on ")
                .unwrap()
                .parse()
                .unwrap();
            let mut client = patlabor_serve::RouteClient::connect(addr).unwrap();
            let nets = parse_nets("0,0 7,2 3,9\n").unwrap();
            let reply = client
                .route(&patlabor_serve::RouteRequest {
                    id: 1,
                    net: nets[0].clone(),
                    deadline_ms: None,
                })
                .unwrap();
            assert_eq!(reply.get("ok").and_then(|j| j.as_bool()), Some(true));
            // The "signal": the serve loop polls this flag exactly like
            // the SIGINT handler flips it.
            stop.store(1, Ordering::SeqCst);
            let exit = handle.join().unwrap().unwrap();
            assert!(exit.summary.contains("1 nets routed"), "{}", exit.summary);
            assert!(exit.report.starts_with("resilience: "), "{}", exit.report);
        });
    }

    #[test]
    fn serve_command_hot_reloads_on_the_reload_counter() {
        use std::sync::mpsc;
        let dir = std::env::temp_dir().join("patlabor_cli_reload_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.lut");
        patlabor_lut::LutBuilder::new(4)
            .threads(2)
            .build()
            .save(&path)
            .unwrap();

        let stop = AtomicU32::new(0);
        let reloads = AtomicU32::new(0);
        let options = ServeOptions {
            tables: Some(path.to_string_lossy().into_owned()),
            config: ServeConfig::default(),
            ..ServeOptions::default()
        };
        let (tx, rx) = mpsc::channel::<String>();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                serve_command_with(&options, &stop, &reloads, &mut |line| {
                    tx.send(line.to_string()).unwrap();
                })
            });
            let line = rx.recv().unwrap();
            let addr: std::net::SocketAddr = line
                .trim()
                .strip_prefix("listening on ")
                .unwrap()
                .parse()
                .unwrap();
            let mut client = patlabor_serve::RouteClient::connect(addr).unwrap();
            let nets = parse_nets("0,0 7,2 3,9\n").unwrap();
            let request = patlabor_serve::RouteRequest {
                id: 1,
                net: nets[0].clone(),
                deadline_ms: None,
            };
            let before = client.route(&request).unwrap();

            // The SIGHUP path, minus the signal: bump the counter the
            // handler would bump and wait for the poll loop's announce.
            reloads.fetch_add(1, Ordering::SeqCst);
            let line = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert!(line.contains("reloaded tables"), "{line}");
            assert!(line.contains("epoch 1"), "{line}");
            let after = client.route(&request).unwrap();
            assert_eq!(after.get("frontier").map(|j| j.render()),
                       before.get("frontier").map(|j| j.render()));

            // A corrupt candidate is rejected; the old table serves on.
            std::fs::write(&path, b"garbage, not a v4 table").unwrap();
            reloads.fetch_add(1, Ordering::SeqCst);
            let line = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert!(line.contains("failed"), "{line}");
            assert!(line.contains("old table keeps serving"), "{line}");
            let still = client.route(&request).unwrap();
            assert_eq!(still.get("ok").and_then(|j| j.as_bool()), Some(true));

            stop.store(1, Ordering::SeqCst);
            let exit = handle.join().unwrap().unwrap();
            assert!(exit.summary.contains("3 nets routed"), "{}", exit.summary);
        });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_parses_serve_and_json_flags() {
        let err = run(&["serve".into(), "--queue-depth".into(), "0".into()]).unwrap_err();
        assert!(err.to_string().contains("--queue-depth"));
        let err = run(&["serve".into(), "--max-batch".into(), "none".into()]).unwrap_err();
        assert!(err.to_string().contains("--max-batch"));
        let err = run(&["serve".into(), "--bogus".into()]).unwrap_err();
        assert!(err.to_string().contains("unknown flag"));
        assert!(USAGE.contains("patlabor serve"));
        assert!(USAGE.contains("--json"));
    }

    /// A net whose coordinates overflow `i64` lengths is a per-net
    /// route error naming the net (`main` exits 2), not a wrapped
    /// frontier.
    #[test]
    fn route_rejects_nets_outside_the_coordinate_bound() {
        let dir = std::env::temp_dir().join("patlabor_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("far_nets.txt");
        let far = format!("{},0 {},0\n", i64::MAX, i64::MIN);
        std::fs::write(&file, far).unwrap();
        let err = run(&["route".into(), file.to_string_lossy().into_owned()]).unwrap_err();
        std::fs::remove_file(&file).ok();
        assert!(
            matches!(
                err,
                CliError::Route {
                    net: 0,
                    source: RouteError::CoordinateOutOfRange { pin: 0, .. }
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().starts_with("net 0: pin 0 at"), "{err}");
    }

    #[test]
    fn run_route_end_to_end_via_tempfile() {
        let dir = std::env::temp_dir().join("patlabor_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("nets.txt");
        std::fs::write(&file, "0,0 9,1 8,8 1,9\n").unwrap();
        let out = run(&[
            "route".into(),
            "--lambda".into(),
            "4".into(),
            file.to_string_lossy().into_owned(),
        ])
        .unwrap();
        assert!(out.contains("net 0 (degree 4)"));
        std::fs::remove_file(&file).ok();
    }
}
