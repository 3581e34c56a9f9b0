//! The traced run's layer replay.
//!
//! A seeded sample of the workload's cells goes serially through each
//! layer's public functions in pipeline order, one span per call:
//!
//! `dataflow.to_minic` → `minic.pretty` → `hash.source_digest` →
//! `hash.artifact_key` → `store.lookup` → `minic.typeck` → `core.compile`
//! (one child span per pass, from a [`PassObserver`]) → `wcet.analyze` →
//! `store.encode` / `store.decode` / `store.insert`. Then one request
//! carrying the sample's units goes through `proto.encode_request` →
//! `proto.decode_request` → `minic.parse` of every uploaded body (the
//! server's side), and one response carrying its cells through
//! `proto.encode_response` → `proto.decode_response`.
//!
//! The analyzer's session call does all of its phases internally, so the
//! public phase functions run once more per cell on fresh state,
//! *outside* the cell's span: their times split the session time into
//! `wcet.cfg`, `wcet.value` (including the refined re-run when loop facts
//! exist), `wcet.loop_bounds`, `wcet.cache`, and the remainder
//! `wcet.pipeline_path` (pipeline and path analysis plus the session's own
//! bookkeeping).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vericomp_arch::{MachineConfig, Program};
use vericomp_core::{Compiler, OptLevel, PassConfig, PassObserver, PASS_NAMES};
use vericomp_dataflow::Node;
use vericomp_minic::pretty::program_to_c;
use vericomp_pipeline::proto::{decode_request, decode_response, encode_request, encode_response};
use vericomp_pipeline::store::{decode_artifact, encode_artifact};
use vericomp_pipeline::{
    artifact_key, cells_digest, source_digest, Artifact, ArtifactStore, CellSummary, Pipeline,
    PipelineOptions, PipelineStats, Request, Response, SearchSpec, ServerStats, SweepResponse,
    SweepUnit, Verdict, WireSweep, WireUnit,
};
use vericomp_wcet::annot::AnnotationFile;
use vericomp_wcet::{bounds, cache, cfg, value, AnalysisRequest, Analyzer};

use crate::common::{nproc, sample_indices, SweepAgg};
use crate::stats::percentile;
use crate::trace::{nanos_between, Tracer};
use crate::Metric;

/// Cells the replay samples from the workload.
pub const REPLAY_CELLS: usize = 256;

/// Untraced/traced pass pairs behind `trace.overhead_ratio`.
const OVERHEAD_ROUNDS: usize = 4;

/// Units the replay's lattice search covers (`search.*` rows).
const SEARCH_UNITS: usize = 4;

/// Entry point of every generated unit.
const ENTRY: &str = "step";

/// One replayable cell: a generated control law under one pass selection.
#[derive(Debug, Clone, Copy)]
pub struct ReplayCell<'a> {
    /// The dataflow node the unit is generated from.
    pub node: &'a Node,
    /// The pass selection the cell compiles under.
    pub passes: PassConfig,
}

/// What the workload observed of the served path (`served_mix` only).
#[derive(Debug, Clone, Default)]
pub struct Served {
    /// The server's final stats snapshot.
    pub stats: ServerStats,
    /// Median cells per executed batch, from the metrics registry.
    pub batch_cells_p50: f64,
}

/// Everything the traced run reports besides the replay itself.
#[derive(Debug)]
pub struct Observed<'a> {
    /// The workload's name, for output file names.
    pub workload: &'a str,
    /// The run seed.
    pub seed: u64,
    /// The workload's own sweeps.
    pub agg: &'a SweepAgg,
    /// The served path, when the workload has one.
    pub served: Option<Served>,
    /// Units the replay's lattice search draws from.
    pub units: &'a [SweepUnit],
}

/// Byte counts of the replay's proto round trip and compiled code.
#[derive(Debug, Default, Clone, Copy)]
struct ReplayBytes {
    text: u64,
    request: u64,
    response: u64,
}

/// Buffers `(pass, start, took)` as the compiler reports them.
struct PassTimes(Vec<(&'static str, Duration, Duration)>);

impl PassObserver for PassTimes {
    fn pass(&mut self, name: &'static str, start: Duration, took: Duration) {
        self.0.push((name, start, took));
    }
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Replays `cells` through the layers, recording into `tracer` (a
/// disabled tracer runs the identical calls untraced).
fn replay(cells: &[ReplayCell<'_>], tracer: &mut Tracer) -> Result<ReplayBytes, String> {
    let machine = MachineConfig::mpc755();
    let store = ArtifactStore::in_memory();
    let mut bytes = ReplayBytes::default();
    let mut wire_units: Vec<WireUnit> = Vec::new();
    let mut summaries = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let root = tracer.begin("replay.cell");
        let src = tracer.time("dataflow.to_minic", || cell.node.to_minic());
        let canonical = tracer.time("minic.pretty", || program_to_c(&src));
        let digest = tracer.time("hash.source_digest", || source_digest(&canonical));
        let key = tracer.time("hash.artifact_key", || {
            artifact_key(&canonical, ENTRY, &cell.passes, &machine)
        });
        let _ = tracer.time("store.lookup", || store.lookup(key, &machine));
        tracer
            .time("minic.typeck", || vericomp_minic::typeck::check(&src))
            .map_err(|e| format!("typeck: {e}"))?;

        let compile = tracer.begin("core.compile");
        let base = tracer.now_ns();
        let mut passes = PassTimes(Vec::new());
        let program = Compiler::with_config(OptLevel::Verified, machine.clone())
            .compile_with_passes_observed(&src, ENTRY, &cell.passes, &mut passes);
        for (name, start, took) in passes.0 {
            tracer.record(&format!("core.{name}"), compile, base + ns(start), ns(took));
        }
        tracer.end(compile);
        let program = program.map_err(|e| format!("compile: {e}"))?;

        let analysis = tracer
            .time("wcet.analyze", || {
                Analyzer::default().analyze(&AnalysisRequest::new(&program, ENTRY))
            })
            .map_err(|e| format!("analyze: {e}"))?;
        let artifact = Artifact {
            key,
            entry: ENTRY.to_owned(),
            label: "replay".to_owned(),
            program,
            verdict: Verdict::from_passes(&cell.passes),
            report: analysis.report,
        };
        let text = tracer.time("store.encode", || encode_artifact(&artifact));
        let decoded = tracer.time("store.decode", || decode_artifact(&text, &machine));
        if decoded.map(|d| d.output_digest()) != Some(artifact.output_digest()) {
            return Err(format!("cell {i}: .vcart round trip changed the artifact"));
        }
        let artifact = tracer
            .time("store.insert", || store.insert(artifact))
            .map_err(|e| format!("store insert: {e}"))?;
        tracer.end(root);

        wcet_phases(&artifact.program, tracer)?;

        bytes.text += artifact.program.code.len() as u64 * 4;
        if !wire_units.iter().any(|u| u.digest == digest) {
            wire_units.push(WireUnit {
                name: format!("u{}", wire_units.len()),
                entry: ENTRY.to_owned(),
                digest,
                body: Some(Arc::new(canonical)),
            });
        }
        summaries.push(CellSummary {
            unit: format!("c{i}"),
            config: "replay".to_owned(),
            machine: "mpc755".to_owned(),
            wcet: artifact.report.wcet,
            cached: false,
            verdict: artifact.verdict,
            output_digest: artifact.output_digest(),
        });
    }

    let root = tracer.begin("replay.proto");
    let request = Request::Sweep(WireSweep {
        units: wire_units,
        configs: vec![(
            "replay".to_owned(),
            PassConfig::for_level(OptLevel::Verified),
        )],
        machines: vec![("mpc755".to_owned(), machine)],
        trace: 0,
    });
    let text = tracer
        .time("proto.encode_request", || encode_request(&request))
        .map_err(|e| format!("encode request: {e}"))?;
    let Request::Sweep(decoded) = tracer
        .time("proto.decode_request", || decode_request(&text))
        .map_err(|e| format!("decode request: {e}"))?
    else {
        return Err("decoded request is not a sweep".into());
    };
    bytes.request = text.len() as u64;
    // the server parses every uploaded body once
    for unit in &decoded.units {
        let body = unit.body.as_deref().ok_or("uploaded unit lost its body")?;
        tracer
            .time("minic.parse", || vericomp_minic::parse::parse(body))
            .map_err(|e| format!("parse: {e}"))?;
    }
    let response = Response::Sweep(SweepResponse {
        units: summaries.iter().map(|c| c.unit.clone()).collect(),
        configs: vec!["replay".to_owned()],
        machines: vec!["mpc755".to_owned()],
        digest: cells_digest(&summaries),
        cells: summaries,
        stats: PipelineStats::default(),
        spans: Vec::new(),
    });
    let text = tracer.time("proto.encode_response", || encode_response(&response));
    tracer
        .time("proto.decode_response", || decode_response(&text))
        .map_err(|e| format!("decode response: {e}"))?;
    bytes.response = text.len() as u64;
    tracer.end(root);
    Ok(bytes)
}

/// The analyzer's public phase functions on fresh state, for the entry
/// function — the split of the session's time.
fn wcet_phases(program: &Program, tracer: &mut Tracer) -> Result<(), String> {
    let root = tracer.begin("replay.wcet_phases");
    let machine = &program.config;
    let file = AnnotationFile::from_program(program);
    let sp = machine.stack_top - 64;
    let graph = tracer
        .time("wcet.cfg", || cfg::reconstruct(program, ENTRY))
        .map_err(|e| format!("cfg: {e}"))?;
    let va = tracer.time("wcet.value", || {
        value::analyze_with_facts(&graph, machine, program, sp, Some(&file), &[])
    });
    let (_, facts) = tracer
        .time("wcet.loop_bounds", || {
            bounds::compute_with_facts(&graph, &va, machine, Some(&file))
        })
        .map_err(|e| format!("loop bounds: {e}"))?;
    // the refined re-run (only when loop facts exist) is value analysis too
    let va = if facts.is_empty() {
        va
    } else {
        tracer.time("wcet.value", || {
            value::analyze_with_facts(&graph, machine, program, sp, Some(&file), &facts)
        })
    };
    let _ = tracer.time("wcet.cache", || {
        cache::analyze(&graph, machine, &va, Some(&file))
    });
    tracer.end(root);
    Ok(())
}

/// The analyzer phases split out of `wcet.analyze`.
const WCET_PHASES: [&str; 4] = ["wcet.cfg", "wcet.value", "wcet.loop_bounds", "wcet.cache"];

/// Every timed layer row, in report order (`core.*` follow
/// [`PASS_NAMES`], then `core.compile` for the rest of the compile call).
#[must_use]
pub fn layer_rows() -> Vec<String> {
    let mut rows: Vec<String> = [
        "dataflow.to_minic",
        "minic.pretty",
        "minic.parse",
        "minic.typeck",
        "hash.source_digest",
        "hash.artifact_key",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    rows.extend(PASS_NAMES.iter().map(|p| format!("core.{p}")));
    // the compiler's own time outside the passes (typecheck, layout)
    rows.push("core.compile".to_owned());
    rows.extend(WCET_PHASES.iter().map(|s| (*s).to_owned()));
    rows.extend(
        [
            "wcet.pipeline_path",
            "store.encode",
            "store.decode",
            "store.lookup",
            "store.insert",
            "proto.encode_request",
            "proto.decode_request",
            "proto.encode_response",
            "proto.decode_response",
            "scenario.generate",
            "scenario.check",
            "search.probe_sweep",
        ]
        .iter()
        .map(|s| (*s).to_owned()),
    );
    rows
}

/// Runs the replay (a warm-up pass, then untraced and traced passes for
/// the overhead), the lattice search, and assembles every per-layer
/// metric. `tracer` already holds the
/// workload's `scenario.*` spans; the Chrome trace and the layer table
/// are written under `.bench_out/`.
///
/// # Errors
///
/// A layer call that failed on a sampled cell.
pub fn traced_layers(
    cells: &[ReplayCell<'_>],
    tracer: &mut Tracer,
    observed: &Observed<'_>,
) -> Result<Vec<Metric>, String> {
    let sample: Vec<ReplayCell<'_>> = sample_indices(cells.len(), REPLAY_CELLS, observed.seed)
        .into_iter()
        .map(|i| cells[i])
        .collect();

    // overhead: after a warm-up pass, rounds of one untraced and one
    // traced pass, alternating which goes first; only the first traced
    // pass records into `tracer`
    replay(&sample, &mut Tracer::new(false))?;
    let timed = |tracer: &mut Tracer| -> Result<(u64, ReplayBytes), String> {
        let t = Instant::now();
        let bytes = replay(&sample, tracer)?;
        Ok((nanos_between(t, Instant::now()), bytes))
    };
    let (mut traced_ns, mut untraced_ns) = (0, 0);
    let mut bytes = ReplayBytes::default();
    for round in 0..OVERHEAD_ROUNDS {
        if round % 2 == 1 {
            untraced_ns += timed(&mut Tracer::new(false))?.0;
        }
        let (ns, b) = if round == 0 {
            timed(tracer)?
        } else {
            timed(&mut Tracer::new(true))?
        };
        traced_ns += ns;
        bytes = b;
        if round % 2 == 0 {
            untraced_ns += timed(&mut Tracer::new(false))?.0;
        }
    }

    // the lattice search over a few sampled units, one probe sweep per
    // generation
    let pipeline = Pipeline::new(
        &PipelineOptions::builder()
            .jobs(nproc())
            .build()
            .map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    let mut spec = SearchSpec::new();
    for i in sample_indices(observed.units.len(), SEARCH_UNITS, observed.seed ^ 0x5EA) {
        spec = spec.unit(observed.units[i].clone());
    }
    let search = pipeline.search_wcet(&spec).map_err(|e| e.to_string())?;

    let mut rows = tracer.self_times();
    let session = rows.remove("wcet.analyze").unwrap_or_default();
    let phases: u64 = WCET_PHASES
        .iter()
        .map(|p| rows.get(*p).map_or(0, |r| r.0))
        .sum();
    rows.insert(
        "wcet.pipeline_path".to_owned(),
        (session.0.saturating_sub(phases), session.1),
    );
    rows.insert(
        "search.probe_sweep".to_owned(),
        (
            search.nodes.iter().map(|n| n.stats.wall_ns).sum(),
            search.nodes.iter().map(|n| u64::from(n.generations)).sum(),
        ),
    );

    let cells_ns = tracer.root_ns("replay.cell");
    let replay_ns = cells_ns + tracer.root_ns("replay.proto");
    let covered: u64 = rows
        .iter()
        .filter(|(name, _)| {
            name.starts_with("core.") || name.starts_with("wcet.") || name.starts_with("store.")
        })
        .map(|(_, r)| r.0)
        .sum();

    let ms = |v: u64| v as f64 / 1e6;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let mut metrics = Vec::new();
    for row in layer_rows() {
        let (self_ns, calls) = rows.get(&row).copied().unwrap_or_default();
        metrics.push(Metric::new(&format!("{row}.self_ms"), ms(self_ns), "ms"));
        metrics.push(Metric::new(&format!("{row}.calls"), calls as f64, "count"));
    }
    let agg = observed.agg;
    let served = observed.served.clone().unwrap_or_default();
    let (rx, tx) = if observed.served.is_some() {
        (served.stats.bytes_rx, served.stats.bytes_tx)
    } else {
        (bytes.request, bytes.response)
    };
    let queue_ms: Vec<f64> = agg.queue_wait_ns.iter().map(|&v| ms(v)).collect();
    metrics.extend([
        Metric::new("wcet.functions_analyzed", agg.fixpoints as f64, "count"),
        Metric::new("wcet.functions_reused", agg.reuses as f64, "count"),
        Metric::new(
            "store.hit_ratio",
            ratio(agg.lookups.saturating_sub(agg.compiles), agg.lookups),
            "ratio",
        ),
        Metric::new(
            "server.parse_hit_ratio",
            served.stats.parse_hit_rate(),
            "ratio",
        ),
        Metric::new(
            "server.units_uploaded",
            served.stats.units_uploaded as f64,
            "count",
        ),
        Metric::new("server.batch_cells_p50", served.batch_cells_p50, "count"),
        Metric::new("proto.rx_bytes", rx as f64, "bytes"),
        Metric::new("proto.tx_bytes", tx as f64, "bytes"),
        Metric::new("core.text_bytes", bytes.text as f64, "bytes"),
        Metric::new("search.probes", search.total_probes() as f64, "count"),
        Metric::new("search.pruned", search.total_pruned() as f64, "count"),
        Metric::new("pool.wait_p50_ms", percentile(&queue_ms, 0.5), "ms"),
        Metric::new(
            "pool.busy_frac",
            ratio(agg.busy_ns, agg.capacity_ns),
            "ratio",
        ),
        Metric::new("replay.wall_ms", ms(replay_ns), "ms"),
        Metric::new(
            "replay.core_wcet_store_frac",
            ratio(covered, cells_ns),
            "ratio",
        ),
        Metric::new(
            "trace.overhead_ratio",
            ratio(traced_ns, untraced_ns),
            "ratio",
        ),
    ]);

    write_outputs(tracer, observed, &metrics, &rows)?;
    Ok(metrics)
}

/// Writes the Chrome trace and the layer table under `.bench_out/`, and
/// prints the table to stderr.
fn write_outputs(
    tracer: &Tracer,
    observed: &Observed<'_>,
    metrics: &[Metric],
    rows: &BTreeMap<String, (u64, u64)>,
) -> Result<(), String> {
    let mut table = String::new();
    let _ = writeln!(
        table,
        "layers: {} seed {} ({} sampled cells, self times)",
        observed.workload, observed.seed, REPLAY_CELLS
    );
    for row in layer_rows() {
        let (self_ns, calls) = rows.get(&row).copied().unwrap_or_default();
        let _ = writeln!(
            table,
            "layer {row:<24} {:>10.3} ms {calls:>8} calls",
            self_ns as f64 / 1e6
        );
    }
    for (label, count, total_ns) in &observed.agg.rows {
        let _ = writeln!(
            table,
            "profile {label:<22} {:>10.3} ms {count:>8} spans",
            *total_ns as f64 / 1e6
        );
    }
    for m in metrics
        .iter()
        .filter(|m| !m.name.ends_with(".self_ms") && !m.name.ends_with(".calls"))
    {
        let _ = writeln!(table, "metric {:<28} {} {}", m.name, m.value, m.unit);
    }
    eprint!("{table}");
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!("{}-{}", observed.workload, observed.seed);
    for (path, body) in [
        (
            dir.join(format!("trace-{stem}.json")),
            tracer.to_chrome_json(),
        ),
        (dir.join(format!("layers-{stem}.txt")), table),
    ] {
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}
