//! Parallel, cached sweep compilation of the paper-analog 26-node fleet —
//! and of generated multi-rate scenarios with schedulability verdicts.
//!
//! ```text
//! cargo run --release -p vericomp --bin compile_fleet -- \
//!     --jobs 8 --cache-dir target/vericomp-cache \
//!     --configs pattern-O0,verified,opt-full --machines mpc755,tiny-caches
//! ```
//!
//! Compiles every requested cell of the (nodes × configs × machines) sweep
//! matrix on the worker pool, one task per cell, serving unchanged cells
//! from the content-addressed artifact cache, then prints per-cell WCET
//! bounds, the run's [`vericomp_pipeline::PipelineStats`] and the sweep
//! output digest (bit-identical runs print identical digests — the CI
//! smoke compares them across job counts and cache states).
//!
//! With `--scenario SEED` the node axis comes from the testkit scenario
//! suite instead of the curated fleet: a generated multi-rate cyclic
//! executive with nominal/degraded/fault-handling modes, lowered through
//! `Scenario::to_sweep_spec` and joined back into a schedulability report
//! whose `sched:` lines and digest are bit-identical across `--jobs`
//! counts. (The binary lives in the root crate because the scenario suite
//! sits in `vericomp-testkit`, which itself builds on the pipeline.)
//!
//! With `--connect SOCK` the same sweep runs on a `vericomp_serve` daemon
//! instead; both backends hand back one `SweepResponse`, printed the same
//! way, so a served run prints what a solo run prints.

use std::process::ExitCode;

use vericomp_arch::MachineConfig;
use vericomp_core::OptLevel;
use vericomp_dataflow::{fleet, Node};
use vericomp_pipeline::{
    Client, Pipeline, PipelineOptions, PipelineStats, RunTrace, SearchSpec, Span, SweepResponse,
    SweepSpec,
};
use vericomp_testkit::scenario::{Scenario, ScenarioConfig};

struct Args {
    jobs: usize,
    cache_dir: Option<String>,
    configs: Vec<OptLevel>,
    machines: Vec<String>,
    nodes: Option<usize>,
    min_hit_rate: Option<f64>,
    search: bool,
    trace: Option<String>,
    profile: bool,
    scenario: Option<u64>,
    scenario_tasks: usize,
    scenario_frames: usize,
    scenario_overbudget: Option<String>,
    require_feasible: bool,
    reanalyze: bool,
    connect: Option<String>,
}

const USAGE: &str = "usage: compile_fleet [--jobs N] [--cache-dir DIR] [--configs LIST]
                     [--machines LIST] [--nodes N] [--min-hit-rate F] [--search]
                     [--trace FILE] [--profile] [--scenario SEED]
                     [--scenario-tasks N] [--scenario-frames N]
                     [--scenario-overbudget MODE] [--require-feasible]
                     [--reanalyze] [--connect SOCK]
  --jobs N          worker threads (default: available parallelism)
  --cache-dir DIR   persistent artifact cache (default: in-memory only)
  --configs LIST    comma-separated config axis out of
                    pattern-O0,opt-no-regalloc,verified,opt-full (default verified)
  --machines LIST   comma-separated machine axis out of mpc755,tiny-caches
                    (default mpc755)
  --nodes N         sweep only the first N suite nodes (default: all 26)
  --min-hit-rate F  fail unless the cache hit rate is at least F (0..1)
  --search          per-node WCET search over the PassConfig lattice instead
                    of a fixed-config sweep (single machine; --configs is
                    rejected — the search seeds its own frontier)
  --trace FILE      write the run's span trace as Chrome trace-event JSON
                    (load in Perfetto / chrome://tracing). With --connect
                    the sweep request carries a trace id and the daemon
                    returns its server-side spans for that request; the
                    file then holds one merged timeline — client spans as
                    pid 1, server spans as pid 2
  --profile         print the per-stage / per-pass profile table; its
                    counter digest is identical across --jobs values.
                    With --connect the sweep request carries a trace id
                    and the table covers the daemon's spans of this
                    request, so its counter digest equals a solo run's
                    (lifetime totals: vericomp_serve --stats-of)
  --scenario SEED   sweep a generated multi-rate scenario (testkit scenario
                    suite) instead of the curated fleet, and print its
                    schedulability report + digest (excludes --search/--nodes)
  --scenario-tasks N    periodic tasks in the scenario (default 12)
  --scenario-frames N   minor frames per major cycle, power of two (default 4)
  --scenario-overbudget MODE
                    force MODE's frame budget to 1 cycle — every non-empty
                    frame of that mode reports OVER (negative-test hook)
  --require-feasible    exit nonzero when any frame verdict is over budget
  --reanalyze       after the sweep, re-derive every unique artifact's WCET
                    through the warm session analyzer and check it against
                    the stored bound; prints a `reanalyze:` audit line and
                    appends analyze:reuse / analyze:fixpoint events to the
                    trace (exits nonzero on any bound mismatch)
  --connect SOCK    submit the sweep to a running vericomp_serve daemon at
                    SOCK instead of compiling locally; the served digests
                    are bit-identical to a solo run's (excludes --search,
                    --jobs and --cache-dir — those configure the server,
                    not the client)";

fn parse_level(s: &str) -> Option<OptLevel> {
    OptLevel::all().into_iter().find(|l| l.to_string() == s)
}

fn parse_machine(s: &str) -> Option<MachineConfig> {
    match s {
        "mpc755" => Some(MachineConfig::mpc755()),
        "tiny-caches" => Some(MachineConfig::tiny_caches()),
        _ => None,
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        jobs: 0,
        cache_dir: None,
        configs: Vec::new(),
        machines: Vec::new(),
        nodes: None,
        min_hit_rate: None,
        search: false,
        trace: None,
        profile: false,
        scenario: None,
        scenario_tasks: 12,
        scenario_frames: 4,
        scenario_overbudget: None,
        require_feasible: false,
        reanalyze: false,
        connect: None,
    };
    let mut jobs_set = false;
    let mut cache_dir_set = false;
    let mut scenario_flags = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs an argument"))
        };
        match flag.as_str() {
            "--jobs" => {
                args.jobs = value("--jobs")?
                    .parse()
                    .map_err(|_| "--jobs needs a number".to_string())?;
                jobs_set = true;
            }
            "--cache-dir" => {
                args.cache_dir = Some(value("--cache-dir")?);
                cache_dir_set = true;
            }
            "--configs" => {
                for v in value("--configs")?.split(',') {
                    args.configs.push(
                        parse_level(v).ok_or_else(|| format!("unknown config `{v}`\n{USAGE}"))?,
                    );
                }
            }
            "--machines" => {
                for v in value("--machines")?.split(',') {
                    parse_machine(v).ok_or_else(|| format!("unknown machine `{v}`\n{USAGE}"))?;
                    args.machines.push(v.to_owned());
                }
            }
            "--nodes" => {
                args.nodes = Some(
                    value("--nodes")?
                        .parse()
                        .map_err(|_| "--nodes needs a number".to_string())?,
                );
            }
            "--min-hit-rate" => {
                // NaN compares false with every rate, so it would switch
                // the gate off rather than fail: only 0..=1 is a threshold
                let min = value("--min-hit-rate")?
                    .parse()
                    .ok()
                    .filter(|min| (0.0..=1.0).contains(min))
                    .ok_or_else(|| "--min-hit-rate needs a number in 0..1".to_string())?;
                args.min_hit_rate = Some(min);
            }
            "--search" => args.search = true,
            "--trace" => args.trace = Some(value("--trace")?),
            "--profile" => args.profile = true,
            "--scenario" => {
                args.scenario = Some(
                    value("--scenario")?
                        .parse()
                        .map_err(|_| "--scenario needs a u64 seed".to_string())?,
                );
            }
            "--scenario-tasks" => {
                args.scenario_tasks = value("--scenario-tasks")?
                    .parse()
                    .map_err(|_| "--scenario-tasks needs a number".to_string())?;
                scenario_flags = true;
            }
            "--scenario-frames" => {
                args.scenario_frames = value("--scenario-frames")?
                    .parse()
                    .map_err(|_| "--scenario-frames needs a number".to_string())?;
                scenario_flags = true;
            }
            "--scenario-overbudget" => {
                args.scenario_overbudget = Some(value("--scenario-overbudget")?);
                scenario_flags = true;
            }
            "--require-feasible" => {
                args.require_feasible = true;
                scenario_flags = true;
            }
            "--reanalyze" => args.reanalyze = true,
            "--connect" => args.connect = Some(value("--connect")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    if args.connect.is_some() {
        if args.search {
            return Err("--connect submits fixed sweeps; the search runs locally".to_string());
        }
        if args.reanalyze {
            return Err(
                "--reanalyze audits the local session analyzer; drop it with --connect".to_string(),
            );
        }
        if jobs_set || cache_dir_set {
            return Err(
                "--jobs/--cache-dir configure the server, not the client; drop them with \
                 --connect"
                    .to_string(),
            );
        }
    }
    if args.search && !args.configs.is_empty() {
        return Err("--search seeds its own config frontier; drop --configs".to_string());
    }
    if args.scenario.is_some() && args.search {
        return Err("--scenario sweeps a fixed config axis; drop --search".to_string());
    }
    if args.scenario.is_some() && args.nodes.is_some() {
        return Err("--scenario sizes itself via --scenario-tasks; drop --nodes".to_string());
    }
    if scenario_flags && args.scenario.is_none() {
        return Err("--scenario-* flags and --require-feasible need --scenario SEED".to_string());
    }
    if args.configs.is_empty() {
        args.configs.push(OptLevel::Verified);
    }
    if args.machines.is_empty() {
        args.machines.push("mpc755".to_owned());
    }
    if args.search && args.machines.len() > 1 {
        return Err("--search probes one machine; pass a single --machines entry".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

/// Reports a failure on stderr and yields the failing exit code.
fn fail(error: impl std::fmt::Display) -> ExitCode {
    eprintln!("compile_fleet: {error}");
    ExitCode::FAILURE
}

/// One sweep, whichever backend runs it: build the spec (fleet or
/// scenario), run it solo or through the daemon, then print the one
/// output shape both backends share — the cell table (fleets) or the
/// schedulability report (scenarios), the `sweep` line, the stats, the
/// digest, the trace/profile, and the hit-rate and feasibility gates.
/// Apart from the `compile_fleet:` header and the timings, the output
/// depends only on the request and on which cells the store already
/// holds, so a served run prints what a solo run against an equally warm
/// store prints.
fn run(args: &Args) -> Result<(), ExitCode> {
    if args.search {
        return run_search(args);
    }
    let scenario = match args.scenario {
        Some(seed) => Some(build_scenario(args, seed).map_err(fail)?),
        None => None,
    };
    let mut spec = match &scenario {
        Some(scenario) => scenario.to_sweep_spec(),
        None => SweepSpec::new().nodes(&fleet_nodes(args)),
    };
    for level in &args.configs {
        spec = spec.level(*level);
    }
    for name in &args.machines {
        spec = spec.machine(name, &parse_machine(name).expect("validated at parse time"));
    }
    let (response, trace, note) = match &args.connect {
        Some(sock) => run_served(args, sock, &spec)?,
        None => run_solo(args, &spec)?,
    };

    let report = scenario.map(|scenario| {
        scenario.check_bounds(&response.configs, &response.machines, |u, c, m| {
            response.get(u, c, m).map(|cell| cell.wcet)
        })
    });
    match &report {
        Some(report) => {
            print!("{}", report.render());
            println!("sched digest: {}", report.digest());
        }
        None => {
            println!(
                "{:<24} {:<16} {:<12} {:>8} {:>9}  verdict",
                "node", "config", "machine", "WCET", "source"
            );
            for cell in &response.cells {
                println!(
                    "{:<24} {:<16} {:<12} {:>8} {:>9}  {}",
                    cell.unit,
                    cell.config,
                    cell.machine,
                    cell.wcet,
                    if cell.cached { "cache" } else { "compiled" },
                    cell.verdict.describe(),
                );
            }
        }
    }
    println!("{response}");
    println!("{}", response.stats.render());
    println!("fleet digest: {}", response.digest);
    export_trace(&trace, args, &note)?;
    check_hit_rate(args, &response.stats)?;
    if let Some(report) = report {
        if args.require_feasible && !report.feasible() {
            return Err(fail(format_args!(
                "{} frame verdicts over budget",
                report.infeasible_count()
            )));
        }
    }
    Ok(())
}

/// The curated fleet, cut to `--nodes`.
fn fleet_nodes(args: &Args) -> Vec<Node> {
    let mut nodes = fleet::named_suite();
    if let Some(n) = args.nodes {
        nodes.truncate(n);
    }
    nodes
}

/// What a backend hands the printer: the response, the span trace to
/// export, and the note appended to the `trace:` line.
type Run = (SweepResponse, RunTrace, String);

/// The local pipeline `--jobs` / `--cache-dir` describe.
fn local_pipeline(args: &Args) -> Result<Pipeline, ExitCode> {
    let mut builder = PipelineOptions::builder().jobs(args.jobs);
    if let Some(dir) = &args.cache_dir {
        builder = builder.cache_dir(dir);
    }
    Pipeline::new(&builder.build().map_err(fail)?).map_err(fail)
}

/// The `compile_fleet:` header line: the sweep's shape and the backend.
fn print_header(spec: &SweepSpec, backend: &str) {
    println!(
        "compile_fleet: {} units × {} configs × {} machines = {} cells {backend}",
        spec.units().len(),
        spec.configs().len(),
        spec.machines().len(),
        spec.cell_count(),
    );
}

/// Runs the sweep in this process, then the optional `--reanalyze`
/// audit, and projects the result to the response a daemon would send.
/// The span trace is kept only when `--trace` / `--profile` asks for it.
fn run_solo(args: &Args, spec: &SweepSpec) -> Result<Run, ExitCode> {
    let pipeline = local_pipeline(args)?;
    print_header(
        spec,
        &format!(
            "on {} workers, cache {}",
            pipeline.jobs(),
            args.cache_dir.as_deref().unwrap_or("(memory)")
        ),
    );
    let mut result = pipeline.run_sweep(spec).map_err(fail)?;
    if args.reanalyze {
        run_reanalyze(&pipeline, &mut result)?;
    }
    let trace = if args.trace.is_some() || args.profile {
        result.trace().clone()
    } else {
        RunTrace::new()
    };
    Ok((SweepResponse::from_result(&result), trace, String::new()))
}

/// `--reanalyze`: audit the sweep through the warm session analyzer and
/// print the greppable `reanalyze:` line (functions_reused counts cache
/// replays — the CI analyzer smoke asserts it is positive on a sweep the
/// same pipeline just ran). A bound mismatch is a correctness failure.
fn run_reanalyze(
    pipeline: &Pipeline,
    result: &mut vericomp_pipeline::SweepResult,
) -> Result<(), ExitCode> {
    let audit = pipeline.reanalyze_sweep(result).map_err(fail)?;
    println!(
        "reanalyze: artifacts={} functions_reused={} functions_analyzed={}",
        audit.artifacts, audit.functions_reused, audit.functions_analyzed
    );
    for m in &audit.mismatches {
        eprintln!("compile_fleet: reanalysis mismatch: {m}");
    }
    if audit.mismatches.is_empty() {
        Ok(())
    } else {
        Err(ExitCode::FAILURE)
    }
}

/// Generates the `--scenario SEED` scenario and prints its deterministic
/// `scenario:` header line.
fn build_scenario(args: &Args, seed: u64) -> Result<Scenario, String> {
    let mut builder = ScenarioConfig::builder()
        .name("cli")
        .tasks(args.scenario_tasks)
        .frames(args.scenario_frames)
        .seed(seed);
    if let Some(mode) = &args.scenario_overbudget {
        builder = builder.override_budget(mode, 1);
    }
    let config = builder.build().map_err(|e| e.to_string())?;
    let scenario = Scenario::generate(&config).map_err(|e| e.to_string())?;
    println!(
        "scenario: {} seed={seed} tasks={} frames={} modes={} units={} symbols={}",
        config.name,
        scenario.tasks().len(),
        config.minor_frames,
        config.modes.len(),
        scenario.units().len(),
        scenario.total_symbols(),
    );
    Ok(scenario)
}

/// A fresh nonzero trace id for a traced `--connect` run: wall-clock
/// nanos folded with the pid. Uniqueness only has to hold across the
/// requests one daemon is concurrently serving — the id exists so the
/// server can tag the spans of *this* request, not as a digest input.
fn fresh_trace_id() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| {
            u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0)
        });
    (nanos ^ u64::from(std::process::id()).rotate_left(32)).max(1)
}

/// `--connect SOCK`: submits the sweep to a running `vericomp_serve`
/// daemon; by the service determinism guarantee the response carries the
/// digest a solo run of the identical request computes.
///
/// With `--trace FILE` or `--profile` the request carries a fresh trace
/// id; the daemon answers with the server-side spans of exactly this
/// request, which are shifted onto the client's timeline (anchored at the
/// request send) and merged with the client's own `connect`/`request`
/// spans into one trace — client rows under pid 1, server rows under
/// pid 2 — profiled exactly as a solo run's trace is.
fn run_served(args: &Args, sock: &str, spec: &SweepSpec) -> Result<Run, ExitCode> {
    let trace_id = if args.trace.is_some() || args.profile {
        fresh_trace_id()
    } else {
        0
    };
    let epoch = std::time::Instant::now();
    let nanos_since = || u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut trace = RunTrace::new();

    let mut client =
        Client::connect(sock).map_err(|e| fail(format_args!("connecting {sock}: {e}")))?;
    let connected = nanos_since();
    print_header(spec, &format!("via daemon at {sock}"));
    let request_start = nanos_since();
    let response = if trace_id == 0 {
        client.run_sweep(spec)
    } else {
        client.run_sweep_traced(spec, trace_id)
    }
    .map_err(fail)?;
    if trace_id == 0 {
        return Ok((response, trace, String::new()));
    }

    trace.push(Span::stage(
        "connect",
        0,
        0,
        connected,
        &format!("sock={sock}"),
    ));
    trace.push(Span::stage(
        "request",
        0,
        request_start,
        nanos_since().saturating_sub(request_start),
        &format!("trace={trace_id:016x} cells={}", spec.cell_count()),
    ));
    for mut span in response.spans.iter().cloned() {
        // server span timestamps are relative to the server-side sweep
        // start; anchor them at the moment this client sent the request
        // so both processes share one Perfetto timeline
        span.ts_ns = span.ts_ns.saturating_add(request_start);
        span.pid = 2;
        trace.push(span);
    }
    // the client's own `connect`/`request` spans are not profile stages,
    // so the profile covers exactly the server's work
    let note = format!(
        " ({} server-side, trace id {trace_id:016x})",
        response.spans.len()
    );
    Ok((response, trace, note))
}

/// `--min-hit-rate`: fail unless the run's cache hit rate reaches it.
fn check_hit_rate(args: &Args, stats: &PipelineStats) -> Result<(), ExitCode> {
    match args.min_hit_rate {
        Some(min) if stats.hit_rate() < min => Err(fail(format_args!(
            "hit rate {:.3} below required {min:.3}",
            stats.hit_rate()
        ))),
        _ => Ok(()),
    }
}

/// `--trace` / `--profile` handling shared by the sweep and search paths:
/// writes the Chrome trace-event JSON (`note` is appended to the `trace:`
/// line) and prints the deterministic profile table (the CI smokes grep
/// its `profile:` lines and compare the counter digest across job counts
/// and against served runs).
fn export_trace(trace: &RunTrace, args: &Args, note: &str) -> Result<(), ExitCode> {
    if let Some(path) = &args.trace {
        std::fs::write(path, trace.to_chrome_json())
            .map_err(|e| fail(format_args!("writing {path}: {e}")))?;
        println!("trace: {} spans written to {path}{note}", trace.len());
    }
    if args.profile {
        print!("{}", trace.profile().render());
    }
    Ok(())
}

/// `--search`: per-node WCET minimization over the `PassConfig` lattice.
/// Every `search:`-prefixed line is a pure function of the node set and
/// machine — the CI smoke greps them (and the digest) and compares across
/// job counts and cache states; hit rates and timings stay off those lines.
fn run_search(args: &Args) -> Result<(), ExitCode> {
    let pipeline = local_pipeline(args)?;
    let nodes = fleet_nodes(args);
    let machine_name = &args.machines[0];
    let machine = parse_machine(machine_name).expect("validated at parse time");
    let spec = SearchSpec::new()
        .nodes(&nodes)
        .machine(machine_name, &machine);
    println!(
        "compile_fleet: lattice search over {} nodes on {machine_name}, {} workers, cache {}",
        nodes.len(),
        pipeline.jobs(),
        args.cache_dir.as_deref().unwrap_or("(memory)"),
    );

    let result = pipeline.search_wcet(&spec).map_err(fail)?;
    for node in &result.nodes {
        println!(
            "search: {:<24} winner {:<28} wcet {:>7}  probes {:>3}  pruned {}  gens {}",
            node.unit,
            node.winner.label,
            node.winner.wcet,
            node.probes(),
            node.pruned.len(),
            node.generations,
        );
        for d in &node.pruned {
            println!(
                "search: {:<24}   pruned `{}` after generation {} ({} contexts, never improved)",
                node.unit, d.flag, d.generation, d.trials,
            );
        }
    }
    println!("{result}");
    println!("{}", result.stats.render());
    println!("search digest: {}", result.digest());
    export_trace(result.trace(), args, "")?;
    check_hit_rate(args, &result.stats)
}
