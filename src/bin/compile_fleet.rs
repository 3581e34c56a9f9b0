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
//! matrix on the work-stealing pool, serving unchanged cells from the
//! content-addressed artifact cache, then prints per-cell WCET bounds, the
//! run's [`vericomp_pipeline::PipelineStats`] and the sweep output digest
//! (bit-identical runs print identical digests — the CI smoke compares
//! them across job counts and cache states).
//!
//! With `--scenario SEED` the node axis comes from the testkit scenario
//! suite instead of the curated fleet: a generated multi-rate cyclic
//! executive with nominal/degraded/fault-handling modes, lowered through
//! `Scenario::to_sweep_spec` and joined back into a schedulability report
//! whose `sched:` lines and digest are bit-identical across `--jobs`
//! counts. (The binary lives in the root crate because the scenario suite
//! sits in `vericomp-testkit`, which itself builds on the pipeline.)

use std::process::ExitCode;

use vericomp_arch::MachineConfig;
use vericomp_core::OptLevel;
use vericomp_dataflow::fleet;
use vericomp_pipeline::{
    normalize_spec, Client, Pipeline, PipelineOptions, RunTrace, SearchSpec, Span, SweepSpec,
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
  --level L         deprecated alias for --configs with one entry
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
                    not the client)

environment overrides (used when the corresponding flag is absent):
  VERICOMP_JOBS       default for --jobs
  VERICOMP_CACHE_DIR  default for --cache-dir";

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
            "--configs" | "--level" => {
                for v in value(&flag)?.split(',') {
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
                args.min_hit_rate = Some(
                    value("--min-hit-rate")?
                        .parse()
                        .map_err(|_| "--min-hit-rate needs a number in 0..1".to_string())?,
                );
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
    // env overrides fill in unset flags
    if !jobs_set {
        if let Ok(v) = std::env::var("VERICOMP_JOBS") {
            args.jobs = v
                .parse()
                .map_err(|_| "VERICOMP_JOBS needs a number".to_string())?;
        }
    }
    if args.cache_dir.is_none() {
        if let Ok(v) = std::env::var("VERICOMP_CACHE_DIR") {
            if !v.is_empty() {
                args.cache_dir = Some(v);
            }
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
        return Err("--search seeds its own config frontier; drop --configs/--level".to_string());
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

    if args.connect.is_some() {
        return run_connected(&args);
    }

    let mut builder = PipelineOptions::builder().jobs(args.jobs);
    if let Some(dir) = &args.cache_dir {
        builder = builder.cache_dir(dir);
    }
    let options = match builder.build() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("compile_fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    let pipeline = match Pipeline::new(&options) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("compile_fleet: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.scenario.is_some() {
        return run_scenario(&pipeline, &args);
    }

    let mut nodes = fleet::named_suite();
    if let Some(n) = args.nodes {
        nodes.truncate(n);
    }
    if args.search {
        return run_search(&pipeline, &nodes, &args);
    }
    let mut spec = SweepSpec::new().nodes(&nodes);
    for level in &args.configs {
        spec = spec.level(*level);
    }
    for name in &args.machines {
        spec = spec.machine(name, &parse_machine(name).expect("validated at parse time"));
    }
    println!(
        "compile_fleet: {} nodes × {} configs × {} machines = {} cells on {} workers, cache {}",
        nodes.len(),
        args.configs.len(),
        args.machines.len(),
        spec.cell_count(),
        pipeline.jobs(),
        args.cache_dir.as_deref().unwrap_or("(memory)"),
    );

    let mut result = match pipeline.run_sweep(&spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("compile_fleet: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "{:<24} {:<16} {:<12} {:>8} {:>9}  verdict",
        "node", "config", "machine", "WCET", "source"
    );
    for cell in result.cells() {
        println!(
            "{:<24} {:<16} {:<12} {:>8} {:>9}  {}",
            cell.unit,
            cell.config,
            cell.machine,
            cell.wcet(),
            if cell.outcome.cached {
                "cache"
            } else {
                "compiled"
            },
            cell.outcome.artifact.verdict.describe(),
        );
    }
    println!("{result}");
    println!("{}", result.stats.render());
    println!("fleet digest: {}", result.digest());
    if args.reanalyze {
        if let Err(code) = run_reanalyze(&pipeline, &mut result) {
            return code;
        }
    }
    if let Err(code) = export_trace(result.trace(), &args, "") {
        return code;
    }

    if let Some(min) = args.min_hit_rate {
        if result.stats.hit_rate() < min {
            eprintln!(
                "compile_fleet: hit rate {:.3} below required {min:.3}",
                result.stats.hit_rate()
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `--reanalyze`: audit the sweep through the warm session analyzer and
/// print the greppable `reanalyze:` line (functions_reused counts cache
/// replays — the CI analyzer smoke asserts it is positive on a sweep the
/// same pipeline just ran). A bound mismatch is a correctness failure.
fn run_reanalyze(
    pipeline: &Pipeline,
    result: &mut vericomp_pipeline::SweepResult,
) -> Result<(), ExitCode> {
    let audit = match pipeline.reanalyze_sweep(result) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("compile_fleet: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
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

/// Scenario construction shared by the local and `--connect` paths:
/// builds the seeded config, generates the scenario, prints the
/// deterministic `scenario:` header line.
fn build_scenario(args: &Args) -> Result<(ScenarioConfig, Scenario), String> {
    let seed = args.scenario.expect("build_scenario needs --scenario");
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
    Ok((config, scenario))
}

/// `--scenario SEED`: generate a multi-rate scenario, sweep its
/// deduplicated task variants through the pipeline, and join the WCET
/// bounds back into a schedulability report. Every `scenario:` / `sched:`
/// line and both digests are pure functions of (seed, flags, axes) — the
/// CI smoke compares them across job counts.
fn run_scenario(pipeline: &Pipeline, args: &Args) -> ExitCode {
    let (_config, scenario) = match build_scenario(args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("compile_fleet: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut spec = scenario.to_sweep_spec();
    for level in &args.configs {
        spec = spec.level(*level);
    }
    for name in &args.machines {
        spec = spec.machine(name, &parse_machine(name).expect("validated at parse time"));
    }
    println!(
        "compile_fleet: {} units × {} configs × {} machines = {} cells on {} workers, cache {}",
        scenario.units().len(),
        args.configs.len(),
        args.machines.len(),
        spec.cell_count(),
        pipeline.jobs(),
        args.cache_dir.as_deref().unwrap_or("(memory)"),
    );

    let mut result = match pipeline.run_sweep(&spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("compile_fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", result.stats.render());
    println!("fleet digest: {}", result.digest());

    let report = scenario.check(&result);
    print!("{}", report.render());
    println!("sched digest: {}", report.digest());
    if args.reanalyze {
        if let Err(code) = run_reanalyze(pipeline, &mut result) {
            return code;
        }
    }
    if let Err(code) = export_trace(result.trace(), args, "") {
        return code;
    }

    if let Some(min) = args.min_hit_rate {
        if result.stats.hit_rate() < min {
            eprintln!(
                "compile_fleet: hit rate {:.3} below required {min:.3}",
                result.stats.hit_rate()
            );
            return ExitCode::FAILURE;
        }
    }
    if args.require_feasible && !report.feasible() {
        eprintln!(
            "compile_fleet: {} frame verdicts over budget",
            report.infeasible_count()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// A fresh nonzero trace id for a `--connect --trace` run: wall-clock
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

/// `--connect SOCK`: submit the sweep (fleet or scenario) to a running
/// `vericomp_serve` daemon and render the served response in the solo
/// run's output shape — same per-cell table, same `fleet digest:` /
/// `sched digest:` lines, and by the service determinism guarantee, the
/// same digest values a local run of the identical request prints.
///
/// With `--trace FILE` or `--profile` the request carries a fresh trace
/// id; the daemon answers with the server-side spans of exactly this
/// request, which are shifted onto the client's epoch timeline (anchored
/// at the request send) and merged with the client's own
/// connection/request spans — written as one Chrome trace (client rows
/// under pid 1, server rows under pid 2) and profiled exactly as a solo
/// run's trace is.
fn run_connected(args: &Args) -> ExitCode {
    let sock = args
        .connect
        .as_deref()
        .expect("run_connected needs --connect");
    let trace_id = if args.trace.is_some() || args.profile {
        fresh_trace_id()
    } else {
        0
    };
    let epoch = std::time::Instant::now();
    let nanos_since =
        |e: &std::time::Instant| u64::try_from(e.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut client_spans: Vec<Span> = Vec::new();

    let mut client = match Client::connect(sock) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("compile_fleet: connecting {sock}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if trace_id != 0 {
        client_spans.push(Span::stage(
            "connect",
            0,
            0,
            nanos_since(&epoch),
            &format!("sock={sock}"),
        ));
    }

    let scenario = if args.scenario.is_some() {
        match build_scenario(args) {
            Ok((_, scenario)) => Some(scenario),
            Err(e) => {
                eprintln!("compile_fleet: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let (mut spec, unit_count) = match &scenario {
        Some(s) => (s.to_sweep_spec(), s.units().len()),
        None => {
            let mut nodes = fleet::named_suite();
            if let Some(n) = args.nodes {
                nodes.truncate(n);
            }
            let count = nodes.len();
            (SweepSpec::new().nodes(&nodes), count)
        }
    };
    for level in &args.configs {
        spec = spec.level(*level);
    }
    for name in &args.machines {
        spec = spec.machine(name, &parse_machine(name).expect("validated at parse time"));
    }
    let spec = normalize_spec(&spec, &MachineConfig::mpc755());
    println!(
        "compile_fleet: {} units × {} configs × {} machines = {} cells via daemon at {sock}",
        unit_count,
        spec.configs().len(),
        spec.machines().len(),
        spec.cell_count(),
    );

    let request_start = nanos_since(&epoch);
    let result = if trace_id == 0 {
        client.run_sweep(&spec)
    } else {
        client.run_sweep_traced(&spec, trace_id)
    };
    let response = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("compile_fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    if trace_id != 0 {
        client_spans.push(Span::stage(
            "request",
            0,
            request_start,
            nanos_since(&epoch).saturating_sub(request_start),
            &format!("trace={trace_id:016x} cells={}", spec.cell_count()),
        ));
    }

    if let Some(scenario) = &scenario {
        println!("{}", response.stats.render());
        println!("fleet digest: {}", response.digest);
        let report = scenario.check_bounds(&response.configs, &response.machines, |u, c, m| {
            response.get(u, c, m).map(|cell| cell.wcet)
        });
        print!("{}", report.render());
        println!("sched digest: {}", report.digest());
        if args.require_feasible && !report.feasible() {
            eprintln!(
                "compile_fleet: {} frame verdicts over budget",
                report.infeasible_count()
            );
            return ExitCode::FAILURE;
        }
    } else {
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
        println!(
            "sweep {} units × {} configs × {} machines = {} cells ({} run, {} cached)",
            response.units.len(),
            response.configs.len(),
            response.machines.len(),
            response.cells.len(),
            response.stats.jobs_run,
            response.stats.jobs_cached,
        );
        println!("{}", response.stats.render());
        println!("fleet digest: {}", response.digest);
    }

    if trace_id != 0 {
        let mut merged = RunTrace::new();
        for span in client_spans {
            merged.push(span);
        }
        let server_spans = response.spans.len();
        for mut span in response.spans.clone() {
            // server span timestamps are relative to the server-side sweep
            // start; anchor them at the moment this client sent the request
            // so both processes share one Perfetto timeline
            span.ts_ns = span.ts_ns.saturating_add(request_start);
            span.pid = 2;
            merged.push(span);
        }
        // the client's own `connect`/`request` spans are not profile
        // stages, so the profile covers exactly the server's work
        let note = format!(" ({server_spans} server-side, trace id {trace_id:016x})");
        if let Err(code) = export_trace(&merged, args, &note) {
            return code;
        }
    }

    if let Some(min) = args.min_hit_rate {
        if response.stats.hit_rate() < min {
            eprintln!(
                "compile_fleet: hit rate {:.3} below required {min:.3}",
                response.stats.hit_rate()
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `--trace` / `--profile` handling shared by the sweep, search and
/// `--connect` paths: writes the Chrome trace-event JSON (`note` is
/// appended to the `trace:` line) and prints the deterministic profile
/// table (the CI smokes grep its `profile:` lines and compare the counter
/// digest across job counts and against served runs).
fn export_trace(trace: &RunTrace, args: &Args, note: &str) -> Result<(), ExitCode> {
    if let Some(path) = &args.trace {
        if let Err(e) = std::fs::write(path, trace.to_chrome_json()) {
            eprintln!("compile_fleet: writing {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
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
fn run_search(pipeline: &Pipeline, nodes: &[vericomp_dataflow::Node], args: &Args) -> ExitCode {
    let machine_name = &args.machines[0];
    let machine = parse_machine(machine_name).expect("validated at parse time");
    let spec = SearchSpec::new()
        .nodes(nodes)
        .machine(machine_name, &machine);
    println!(
        "compile_fleet: lattice search over {} nodes on {machine_name}, {} workers, cache {}",
        nodes.len(),
        pipeline.jobs(),
        args.cache_dir.as_deref().unwrap_or("(memory)"),
    );

    let result = match pipeline.search_wcet(&spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("compile_fleet: {e}");
            return ExitCode::FAILURE;
        }
    };

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
    if let Err(code) = export_trace(result.trace(), args, "") {
        return code;
    }

    if let Some(min) = args.min_hit_rate {
        if result.stats.hit_rate() < min {
            eprintln!(
                "compile_fleet: hit rate {:.3} below required {min:.3}",
                result.stats.hit_rate()
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
