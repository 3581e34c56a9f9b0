//! E12 — the session WCET analyzer: sparse worklist fixpoints,
//! hash-consed abstract states, and the per-function incremental fact
//! cache behind `Analyzer`. Emits `BENCH_analyze.json`.
//!
//! Regimes on the 26-node suite (compiled once, analysis isolated from
//! compilation):
//!
//! * `fleet26/cold` — a fresh `Analyzer` session per iteration, every
//!   function runs its fixpoint;
//! * `fleet26/warm` — a persistent session, every function replays from
//!   the fact cache (asserted: zero fixpoints run);
//! * `fleet26/one_dirty` — the incremental-study case: one node is
//!   re-linked against a never-seen machine latency each iteration, so
//!   exactly that node's functions re-analyze while the other 25
//!   programs replay.
//!
//! The E10-scale acceptance criterion is measured once rather than
//! sampled: the 12 692-unit scenario sweep from `BENCH_scenarios.json`
//! is re-run cold, its analyze-stage total reported, and its sweep and
//! schedulability digests compared bit for bit against the values the
//! dense-iteration analyzer produced. Speed across commits is tracked by
//! the repository benchmark (`benchmark diff`), not by recorded
//! constants. A warm `reanalyze_sweep` audit of
//! all unique artifacts then times pure fact-cache replay at scale.
//! Session counters (fixpoints run, cache replays, live facts, interned
//! arena nodes) ride along in the `analyzer` note.

use std::path::Path;
use std::time::Instant;

use vericomp_core::{Compiler, OptLevel};
use vericomp_dataflow::fleet;
use vericomp_pipeline::Pipeline;
use vericomp_testkit::bench::Bench;
use vericomp_testkit::scenario::{Scenario, ScenarioConfig};
use vericomp_wcet::{AnalysisRequest, Analyzer};

/// The E10 output digests recorded by `BENCH_scenarios.json` at commit
/// de4f9e9 (the dense per-block analyzer, no sharing, no fact cache).
/// Every analyzer since must reproduce both bit for bit.
const E10_SWEEP_DIGEST: &str = "d1154ee1b405f0868553bbaa2dd0946f";
const E10_SCHED_DIGEST: &str = "6915d79ae126aaf8a63818514ede155e";

fn scale_config() -> ScenarioConfig {
    ScenarioConfig::builder()
        .name("scn10k")
        .tasks(5_000)
        .symbols(10, 28)
        .frames(8)
        .seed(0x10_000)
        .build()
        .expect("valid config")
}

fn suite_programs() -> Vec<vericomp_arch::Program> {
    fleet::named_suite()
        .iter()
        .map(|n| {
            Compiler::new(OptLevel::Verified)
                .compile(&n.to_minic(), "step")
                .expect("suite node compiles")
        })
        .collect()
}

fn benches() -> Bench {
    let programs = suite_programs();
    let n = programs.len();
    let mut g = Bench::group("analyze");

    g.bench("fleet26/cold", || {
        let session = Analyzer::default();
        let mut total = 0u64;
        for p in &programs {
            total += session
                .analyze(&AnalysisRequest::new(p, "step"))
                .expect("bounded")
                .report
                .wcet;
        }
        total
    });

    let warm = Analyzer::default();
    for p in &programs {
        warm.analyze(&AnalysisRequest::new(p, "step"))
            .expect("prewarm");
    }
    g.bench("fleet26/warm", || {
        let mut reused = 0u64;
        for p in &programs {
            let a = warm
                .analyze(&AnalysisRequest::new(p, "step"))
                .expect("bounded");
            assert_eq!(a.functions_analyzed, 0, "warm replay ran a fixpoint");
            reused += a.functions_reused;
        }
        reused
    });

    // one dirty node out of 26: a never-seen memory latency re-keys every
    // function of program 0 (the machine fingerprint is part of the fact
    // digest), while the other 25 programs replay from the session cache
    let mut latency = 0u32;
    g.bench("fleet26/one_dirty", || {
        latency += 1;
        let mut dirty = programs[0].clone();
        dirty.config.mem_latency += latency;
        let a = warm
            .analyze(&AnalysisRequest::new(&dirty, "step"))
            .expect("bounded");
        assert!(a.functions_analyzed >= 1, "dirty node came from cache");
        for p in &programs[1..] {
            let a = warm
                .analyze(&AnalysisRequest::new(p, "step"))
                .expect("bounded");
            assert_eq!(a.functions_analyzed, 0, "clean node re-ran a fixpoint");
        }
        n as u64
    });

    let s = warm.stats();
    g.note(
        "analyzer",
        &format!(
            "{{\"functions_analyzed\":{},\"functions_reused\":{},\
             \"facts_cached\":{},\"arena_nodes\":{}}}",
            s.functions_analyzed, s.functions_reused, s.facts_cached, s.arena_nodes
        ),
    );
    g
}

fn main() {
    let mut g = benches();

    // E10 scale, measured once: the sparse worklist analyzer must
    // reproduce the dense analyzer's digests bit for bit
    let scenario = Scenario::generate(&scale_config()).expect("generates");
    let spec = scenario.to_sweep_spec();
    let units = scenario.units().len();
    let pipeline = Pipeline::in_memory();
    let t = Instant::now();
    let mut sweep = pipeline.run_sweep(&spec).expect("cold sweep");
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        sweep.digest().to_string(),
        E10_SWEEP_DIGEST,
        "sweep digest diverged from the pre-rewrite analyzer"
    );
    let report = scenario.check(&sweep);
    assert_eq!(
        report.digest().to_string(),
        E10_SCHED_DIGEST,
        "sched digest diverged from the pre-rewrite analyzer"
    );
    let analyze_ns = sweep.stats.analyze_ns;
    let compile_ns = sweep.stats.compile_ns;
    println!(
        "analyze: E10 analyze stage {:.1} ms over {units} units",
        analyze_ns as f64 / 1e6,
    );

    // warm re-derivation of every unique artifact through the session
    // analyzer that just ran the sweep: pure fact-cache replay at scale
    let t = Instant::now();
    let audit = pipeline.reanalyze_sweep(&mut sweep).expect("reanalyzes");
    let reanalyze_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(audit.functions_analyzed, 0, "warm audit re-ran fixpoints");
    assert!(audit.mismatches.is_empty(), "{:?}", audit.mismatches);
    println!(
        "analyze: warm re-derivation of {} artifacts in {reanalyze_ms:.1} ms \
         ({} fact replays)",
        audit.artifacts, audit.functions_reused,
    );

    let s = pipeline.analyzer().stats();
    g.note(
        "scale",
        &format!(
            "{{\"units\":{units},\"cold_sweep_ms\":{cold_ms:.1},\
             \"analyze_ns\":{analyze_ns},\"compile_ns\":{compile_ns},\
             \"reanalyze_ms\":{reanalyze_ms:.1},\
             \"reanalyze_artifacts\":{},\"fact_replays\":{},\
             \"facts_cached\":{},\"arena_nodes\":{},\
             \"sweep_digest\":\"{E10_SWEEP_DIGEST}\",\
             \"sched_digest\":\"{E10_SCHED_DIGEST}\"}}",
            audit.artifacts, audit.functions_reused, s.facts_cached, s.arena_nodes,
        ),
    );
    g.note("stats", &sweep.stats.to_json());
    g.note("profile", &sweep.trace().profile().to_json());

    println!("{}", g.render());
    let path = g.write_json(Path::new(".")).expect("writes summary");
    println!("wrote {}", path.display());
}
