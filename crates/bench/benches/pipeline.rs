//! E6, E8 and E9 — the in-process pipeline bars, each with its own
//! workload, regimes and threshold. Emits `BENCH_pipeline.json`.
//!
//! E6, fleet compilation over the 26-node named suite at `verified`:
//!
//! * `fleet26/cold_serial` — the pre-pipeline path (plain compile+analyze
//!   loop), the baseline;
//! * `fleet26/cold_parallel` — fresh pipeline per iteration, empty cache,
//!   units overlap on the pool (pool spawn cost included);
//! * `fleet26/warm_cached` — persistent pipeline, every unit replays its
//!   stored verdict and WCET report;
//! * `fleet26/warm_one_dirty` — one node's spec changes every iteration
//!   (distinct revision => distinct artifact key), 25 replay, 1 recompiles.
//!
//! E8, a 64-cell sweep matrix: 8 suite nodes × the four compiler
//! configurations × two machine models (MPC755 and a 4x-slower-memory
//! variant), the shape of a WCET sensitivity study:
//!
//! * `matrix64/cold` — fresh pipeline per iteration, every cell compiles
//!   and analyzes on the pool (pool spawn cost included);
//! * `matrix64/warm` — persistent pipeline, every cell replays its stored
//!   verdict and WCET report from the content-addressed cache.
//!
//! E9, the WCET-guided lattice search over a 10-node suite slice, seeded
//! with the six [`wcet_driven_candidates`]:
//!
//! * `suite10/cold_search` — fresh pipeline per iteration, the full
//!   dominance-pruned frontier search compiles every probe;
//! * `suite10/warm_1dirty` — the edit-compile loop: nine nodes unchanged,
//!   one filter node's gain differs per iteration, so exactly that node's
//!   probes miss.
//!
//! The bars, each a ratio of two means from this run: E6 warm one-dirty
//! rebuild ≥ 5x faster than cold serial, E8 warm sweep ≥ 5x faster than
//! cold, E9 one-dirty re-search ≥ 10x faster than the cold search. Every
//! ratio is printed first; the bench then fails once, naming every bar
//! that missed.

use std::path::Path;

use vericomp_arch::MachineConfig;
use vericomp_bench::pipeline::{self, dirty_node};
use vericomp_bench::LEVELS;
use vericomp_core::{Compiler, OptLevel};
use vericomp_dataflow::{fleet, Node, NodeBuilder};
use vericomp_pipeline::{wcet_driven_candidates, Pipeline, SearchSpec, SweepSpec};
use vericomp_testkit::bench::Bench;

/// Each bar: experiment and claim, slow regime, fast regime, minimum
/// ratio of their means.
const BARS: [(&str, &str, &str, f64); 3] = [
    (
        "E6 warm one-dirty rebuild vs cold serial",
        "fleet26/cold_serial",
        "fleet26/warm_one_dirty",
        5.0,
    ),
    (
        "E8 warm sweep vs cold sweep",
        "matrix64/cold",
        "matrix64/warm",
        5.0,
    ),
    (
        "E9 one-dirty re-search vs cold search",
        "suite10/cold_search",
        "suite10/warm_1dirty",
        10.0,
    ),
];

fn fleet26(g: &mut Bench) {
    let nodes = fleet::named_suite();
    let spec = SweepSpec::new().nodes(&nodes).level(OptLevel::Verified);

    let compiler = Compiler::new(OptLevel::Verified);
    g.bench("fleet26/cold_serial", 8, || {
        for node in &nodes {
            let bin = compiler
                .compile(&node.to_minic(), "step")
                .expect("compiles");
            vericomp_wcet::Analyzer::default()
                .analyze(&vericomp_wcet::AnalysisRequest::new(&bin, "step"))
                .expect("analyzes");
        }
    });

    g.bench("fleet26/cold_parallel", 16, || {
        let pipeline = Pipeline::in_memory();
        pipeline
            .run_sweep(&spec)
            .expect("cold sweep")
            .stats
            .jobs_run
    });

    let warm = Pipeline::in_memory();
    warm.run_sweep(&spec).expect("prewarm");
    g.bench("fleet26/warm_cached", 512, || {
        let r = warm.run_sweep(&spec).expect("warm sweep");
        assert_eq!(r.stats.jobs_cached, nodes.len() as u64);
        r.stats.jobs_cached
    });

    // each iteration edits the probe node to a never-seen revision, so the
    // run is always 25 hits + 1 genuine recompile
    let mut revision = 0u32;
    let mut edited = nodes.clone();
    g.bench("fleet26/warm_one_dirty", 64, || {
        edited[0] = dirty_node(revision);
        revision += 1;
        let dirty = SweepSpec::new().nodes(&edited).level(OptLevel::Verified);
        let r = warm.run_sweep(&dirty).expect("dirty sweep");
        assert_eq!(r.stats.jobs_run, 1);
        r.stats.jobs_cached
    });

    // one representative cold run's stats and span profile ride along in
    // the summary, so every BENCH_*.json shares the same stats schema
    let sample = Pipeline::in_memory().run_sweep(&spec).expect("sample run");
    g.note("stats", &sample.stats.to_json());
    g.note("profile", &sample.trace().profile().to_json());
}

fn slow_mem() -> MachineConfig {
    let mut m = MachineConfig::mpc755();
    m.mem_latency *= 4;
    m
}

fn matrix64(g: &mut Bench) {
    let nodes: Vec<_> = fleet::named_suite().into_iter().take(8).collect();
    let spec = SweepSpec::new()
        .nodes(&nodes)
        .levels(LEVELS)
        .machine("mpc755", &MachineConfig::mpc755())
        .machine("slow-mem", &slow_mem());
    let cells = spec.cell_count();

    g.bench("matrix64/cold", 8, || {
        let r = Pipeline::in_memory().run_sweep(&spec).expect("cold sweep");
        assert_eq!(r.cell_count(), cells);
        r.stats.jobs_run
    });

    let warm = Pipeline::in_memory();
    warm.run_sweep(&spec).expect("prewarm");
    g.bench("matrix64/warm", 256, || {
        let r = warm.run_sweep(&spec).expect("warm sweep");
        assert_eq!(r.stats.jobs_cached, cells as u64);
        r.stats.jobs_cached
    });
}

fn search_spec(nodes: &[Node]) -> SearchSpec {
    let mut spec = SearchSpec::new().nodes(nodes);
    for (name, passes) in wcet_driven_candidates() {
        spec = spec.seed(name, &passes);
    }
    spec
}

/// A small filter node whose gain constant varies per step — a distinct
/// source text, hence a distinct cache key, each iteration.
fn dirty_filter(step: u32) -> Node {
    let mut b = NodeBuilder::new("dirty_filter");
    let x = b.acquisition(0);
    let f = b.second_order_filter(x, 0.2, 0.1, -0.3);
    let g = b.gain(f, 1.0 + f64::from(step) * 1e-6);
    b.output("dirty_filter_out", g);
    b.build().expect("well-formed")
}

fn suite10(g: &mut Bench) {
    let nodes: Vec<_> = fleet::named_suite().into_iter().take(10).collect();
    let spec = search_spec(&nodes);

    g.bench("suite10/cold_search", 1, || {
        let r = Pipeline::in_memory()
            .search_wcet(&spec)
            .expect("cold search");
        r.stats.jobs_run
    });

    let warm = Pipeline::in_memory();
    warm.search_wcet(&spec).expect("prewarm");
    let mut step = 0u32;
    g.bench("suite10/warm_1dirty", 4, || {
        step += 1;
        let mut dirty = nodes[..9].to_vec();
        dirty.push(dirty_filter(step));
        let r = warm
            .search_wcet(&search_spec(&dirty))
            .expect("1-dirty search");
        assert!(r.stats.jobs_run > 0, "the dirty node missed no probe");
        r.stats.jobs_run
    });
}

fn mean_of(g: &Bench, name: &str) -> f64 {
    g.results()
        .iter()
        .find(|r| r.name == name)
        .expect("bench ran")
        .mean_ns
}

fn main() {
    // the E6 experiment artifact first (single-shot walls + hit rates)...
    let e6 = pipeline::run(0);
    println!("{}", pipeline::render(&e6));

    // ...then the timed benchmark rows, each a fixed amount of work
    let mut g = Bench::group("pipeline");
    fleet26(&mut g);
    matrix64(&mut g);
    suite10(&mut g);
    println!("{}", g.render());
    let path = g.write_json(Path::new(".")).expect("writes summary");
    println!("wrote {}", path.display());

    let mut missed = Vec::new();
    for (bar, slow, fast, min) in BARS {
        let speedup = mean_of(&g, slow) / mean_of(&g, fast);
        println!("{bar}: {speedup:.1}x (bar: {min}x)");
        if speedup < min {
            missed.push(format!("{bar} {speedup:.2}x < {min}x"));
        }
    }
    assert!(missed.is_empty(), "bars missed: {}", missed.join("; "));
}
