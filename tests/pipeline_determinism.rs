//! Determinism gate of the parallel compilation service: a sweep compiled
//! with `--jobs 8` must be bit-identical — binaries, annotation tables and
//! WCET bounds — to `--jobs 1` and to the pre-pipeline serial path. The
//! whole §3.5 correctness story rides on this: a cache hit replays the
//! validator verdict of an earlier run only because the compilation is a
//! pure function of (source, passes, machine config).

use vericomp::arch::MachineConfig;
use vericomp::core::{Compiler, OptLevel, PassConfig};
use vericomp::dataflow::fleet;
use vericomp::pipeline::{Pipeline, PipelineOptions, SearchSpec, SpanKind, SweepSpec};
use vericomp::testkit::scenario::{Scenario, ScenarioConfig};

fn pipeline_with_jobs(jobs: usize) -> Pipeline {
    Pipeline::new(
        &PipelineOptions::builder()
            .jobs(jobs)
            .build()
            .expect("valid options"),
    )
    .expect("in-memory pipeline")
}

#[test]
fn fleet_build_is_bit_identical_across_job_counts_and_vs_serial() {
    let nodes = fleet::named_suite();
    assert_eq!(nodes.len(), 26, "the paper-analog suite");
    let spec = SweepSpec::new().nodes(&nodes).level(OptLevel::Verified);

    let one = pipeline_with_jobs(1)
        .run_sweep(&spec)
        .expect("jobs=1 sweep");
    let eight = pipeline_with_jobs(8)
        .run_sweep(&spec)
        .expect("jobs=8 sweep");

    // the aggregate digests cover encoded text, resolved annotation
    // tables and the full WCET reports of every node, in order
    assert_eq!(one.digest(), eight.digest(), "jobs=1 vs jobs=8 diverge");

    // and against the pre-pipeline serial path, artifact by artifact
    let compiler = Compiler::new(OptLevel::Verified);
    for (node, cell) in nodes.iter().zip(eight.cells()) {
        let serial = compiler
            .compile(&node.to_minic(), "step")
            .unwrap_or_else(|e| panic!("{}: {e}", node.name()));
        let report = vericomp::harness::analyze_wcet(&serial, "step")
            .unwrap_or_else(|e| panic!("{}: {e}", node.name()));
        let artifact = &cell.outcome.artifact;
        assert_eq!(
            serial.encode_text(),
            artifact.program.encode_text(),
            "{}: binary words differ",
            node.name()
        );
        assert_eq!(
            serial
                .annotations
                .iter()
                .map(|a| (a.id, a.resolved_text()))
                .collect::<Vec<_>>(),
            artifact
                .program
                .annotations
                .iter()
                .map(|a| (a.id, a.resolved_text()))
                .collect::<Vec<_>>(),
            "{}: annotation files differ",
            node.name()
        );
        assert_eq!(
            report.wcet,
            artifact.report.wcet,
            "{}: WCET bounds differ",
            node.name()
        );
        assert_eq!(
            report.loop_bounds,
            artifact.report.loop_bounds,
            "{}: loop bounds differ",
            node.name()
        );
    }
}

#[test]
fn sweep_matrix_is_bit_identical_across_job_counts_and_vs_serial() {
    // the full three-axis request: nodes × configs × machines, exactly
    // what `run_sweep` puts onto the pool in one job set
    let nodes: Vec<_> = fleet::named_suite().into_iter().take(4).collect();
    let slow_mem = {
        let mut m = MachineConfig::mpc755();
        m.mem_latency *= 4;
        m
    };
    let spec = SweepSpec::new()
        .nodes(&nodes)
        .levels([OptLevel::PatternO0, OptLevel::Verified, OptLevel::OptFull])
        .machine("mpc755", &MachineConfig::mpc755())
        .machine("slow-mem", &slow_mem);
    assert_eq!(spec.cell_count(), 4 * 3 * 2);

    let one = pipeline_with_jobs(1)
        .run_sweep(&spec)
        .expect("jobs=1 sweep");
    let eight = pipeline_with_jobs(8)
        .run_sweep(&spec)
        .expect("jobs=8 sweep");
    assert_eq!(
        one.digest(),
        eight.digest(),
        "sweep matrix diverges across job counts"
    );

    // every cell must equal the serial compiler run with that cell's
    // passes on that cell's machine, bit for bit
    for (ui, node) in nodes.iter().enumerate() {
        for (ci, (config, passes)) in spec.configs().iter().enumerate() {
            for (mi, (machine, mc)) in spec.machines().iter().enumerate() {
                let cell = &eight[(ui, ci, mi)];
                assert_eq!(
                    (&cell.unit, &cell.config, &cell.machine),
                    (&node.name().to_owned(), config, machine)
                );
                let serial = Compiler::with_config(OptLevel::Verified, mc.clone())
                    .compile_with_passes(&node.to_minic(), "step", passes)
                    .unwrap_or_else(|e| panic!("{}/{config}/{machine}: {e}", node.name()));
                let report = vericomp::harness::analyze_wcet(&serial, "step")
                    .unwrap_or_else(|e| panic!("{}/{config}/{machine}: {e}", node.name()));
                assert_eq!(
                    serial.encode_text(),
                    cell.outcome.artifact.program.encode_text(),
                    "{}/{config}/{machine}: binary words differ",
                    node.name()
                );
                assert_eq!(
                    report.wcet,
                    cell.wcet(),
                    "{}/{config}/{machine}: WCET bounds differ",
                    node.name()
                );
            }
        }
    }
}

#[test]
fn lattice_search_is_bit_identical_across_job_counts_and_vs_serial() {
    // the search layers generations of sweeps on the pool; its whole
    // probe trace — labels, lattice points, bounds, pruning decisions —
    // must be a pure function of the spec, whatever the job count
    let nodes: Vec<_> = fleet::named_suite().into_iter().take(4).collect();
    let spec = SearchSpec::new().nodes(&nodes);

    let one = pipeline_with_jobs(1).search_wcet(&spec).expect("jobs=1");
    let eight = pipeline_with_jobs(8).search_wcet(&spec).expect("jobs=8");
    assert_eq!(
        one.digest(),
        eight.digest(),
        "search trace diverges across job counts"
    );

    // serial reference: every probe's bound recomputed with the plain
    // compiler outside the pipeline, and the winner re-derived as the
    // first strict minimum in probe order
    let compiler = Compiler::new(OptLevel::Verified);
    for (node, search) in nodes.iter().zip(&eight.nodes) {
        let src = node.to_minic();
        let mut first_min: Option<(u64, &str)> = None;
        for probe in &search.probed {
            let serial = compiler
                .compile_with_passes(&src, "step", &probe.passes)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", node.name(), probe.label));
            let report = vericomp::harness::analyze_wcet(&serial, "step")
                .unwrap_or_else(|e| panic!("{}/{}: {e}", node.name(), probe.label));
            assert_eq!(
                report.wcet,
                probe.wcet,
                "{}/{}: probe bound differs from the serial compiler",
                node.name(),
                probe.label
            );
            if first_min.map(|(w, _)| probe.wcet < w).unwrap_or(true) {
                first_min = Some((probe.wcet, &probe.label));
            }
        }
        let (min_wcet, min_label) = first_min.expect("probes");
        assert_eq!(
            (search.winner.wcet, search.winner.label.as_str()),
            (min_wcet, min_label),
            "{}: winner is not the first minimum in probe order",
            node.name()
        );
    }
}

/// Exact backend output, pinned: the sweep digest of the 26-node suite at
/// all four configurations on both machines, under the unit, config and
/// machine labels of `compile_fleet --configs
/// pattern-O0,opt-no-regalloc,verified,opt-full --machines
/// mpc755,tiny-caches`. It covers every cell's encoded text, annotation
/// table and WCET report, so any change in what the backend emits moves it.
/// (Each cell's labels enter through the sweep digest alone, not through
/// the artifact's output digest.)
#[test]
fn suite_sweep_digest_is_pinned() {
    let nodes = fleet::named_suite();
    let spec = SweepSpec::new()
        .nodes(&nodes)
        .levels(OptLevel::all())
        .machine("mpc755", &MachineConfig::mpc755())
        .machine("tiny-caches", &MachineConfig::tiny_caches());
    assert_eq!(spec.cell_count(), 26 * 4 * 2);
    let result = pipeline_with_jobs(2).run_sweep(&spec).expect("sweep");
    assert_eq!(
        result.digest().to_string(),
        "d3d0b699ba1e6e84e4b0011fc2f8e619",
        "backend output changed"
    );
}

/// The lattice search's digest over the first four suite nodes on mpc755,
/// pinned as `compile_fleet --search --nodes 4` prints it: every probe's
/// lattice point and bound, the pruning decisions and the winners.
#[test]
fn suite_search_digest_is_pinned() {
    let nodes: Vec<_> = fleet::named_suite().into_iter().take(4).collect();
    let spec = SearchSpec::new()
        .nodes(&nodes)
        .machine("mpc755", &MachineConfig::mpc755());
    let result = pipeline_with_jobs(2).search_wcet(&spec).expect("search");
    assert_eq!(
        result.digest().to_string(),
        "bde3ded89cd384d256dcd5c2d7863424",
        "search trace changed"
    );
}

#[test]
fn trace_profile_counters_are_deterministic_across_job_counts() {
    // span *times* vary run to run, but the span/stage/pass *counts* are a
    // pure function of the spec — the profile's counter digest must be
    // bit-identical whatever the job count
    let nodes = fleet::named_suite();
    let spec = SweepSpec::new().nodes(&nodes).level(OptLevel::Verified);

    let one = pipeline_with_jobs(1)
        .run_sweep(&spec)
        .expect("jobs=1 sweep");
    let eight = pipeline_with_jobs(8)
        .run_sweep(&spec)
        .expect("jobs=8 sweep");
    assert_eq!(
        one.trace().profile().counter_digest(),
        eight.trace().profile().counter_digest(),
        "profile counters diverge across job counts"
    );

    // a cold run records one compile stage span per cell, with nested
    // per-pass spans inside it
    let trace = eight.trace();
    assert_eq!(trace.count_of(SpanKind::Stage, "compile"), 26);
    assert_eq!(trace.count_of(SpanKind::Stage, "cache-lookup"), 26);
    assert_eq!(trace.count_of(SpanKind::Pass, "lower"), 26);

    // a warm rerun replays everything: full cache-lookup coverage, zero
    // compile stage spans and zero pass spans
    let pipeline = pipeline_with_jobs(8);
    pipeline.run_sweep(&spec).expect("cold prewarm");
    let replay = pipeline.run_sweep(&spec).expect("warm sweep");
    assert_eq!(replay.stats.jobs_cached, 26);
    let rt = replay.trace();
    assert_eq!(rt.count_of(SpanKind::Stage, "cache-lookup"), 26);
    assert_eq!(rt.count_of(SpanKind::Stage, "compile"), 0);
    assert_eq!(rt.count_of(SpanKind::Pass, "lower"), 0);

    // the cells of a unit share its pass prefixes: which cell runs a
    // shared pass depends on scheduling, how often it runs does not
    let matrix = three_level_two_machine_spec(&nodes);
    let one = pipeline_with_jobs(1)
        .run_sweep(&matrix)
        .expect("jobs=1 matrix");
    let eight = pipeline_with_jobs(8)
        .run_sweep(&matrix)
        .expect("jobs=8 matrix");
    assert_eq!(
        one.trace().profile().counter_digest(),
        eight.trace().profile().counter_digest(),
        "matrix profile counters diverge across job counts"
    );
    let four: Vec<_> = nodes.iter().take(4).cloned().collect();
    let search = SearchSpec::new().nodes(&four);
    let one = pipeline_with_jobs(1).search_wcet(&search).expect("jobs=1");
    let eight = pipeline_with_jobs(8).search_wcet(&search).expect("jobs=8");
    assert_eq!(
        one.trace().profile().counter_digest(),
        eight.trace().profile().counter_digest(),
        "search profile counters diverge across job counts"
    );
}

/// The named suite at `pattern-O0`, `verified` and `opt-full` on two
/// machines.
fn three_level_two_machine_spec(nodes: &[vericomp::dataflow::Node]) -> SweepSpec {
    let mut slow_mem = MachineConfig::mpc755();
    slow_mem.mem_latency *= 4;
    SweepSpec::new()
        .nodes(nodes)
        .levels([OptLevel::PatternO0, OptLevel::Verified, OptLevel::OptFull])
        .machine("mpc755", &MachineConfig::mpc755())
        .machine("slow-mem", &slow_mem)
}

#[test]
fn a_units_cells_run_their_shared_pass_prefix_once() {
    // all three levels lower alike, `verified` and `opt-full` part only at
    // `strength`, and no pass before `emit` reads the machine: per
    // function, `lower` through `cse` run once for the unit's six cells,
    // `regalloc` once per level, `emit` once per cell
    let nodes = fleet::named_suite();
    let functions: u64 = nodes
        .iter()
        .map(|node| node.to_minic().functions.len() as u64)
        .sum();
    let spec = three_level_two_machine_spec(&nodes);
    let sweep = pipeline_with_jobs(2).run_sweep(&spec).expect("sweep");
    let trace = sweep.trace();
    assert_eq!(trace.count_of(SpanKind::Stage, "compile"), 26 * 6);
    for pass in ["lower", "mem2reg", "constprop", "cse"] {
        assert_eq!(
            trace.count_of(SpanKind::Pass, pass),
            functions,
            "`{pass}` spans"
        );
    }
    assert_eq!(trace.count_of(SpanKind::Pass, "strength"), functions);
    assert_eq!(trace.count_of(SpanKind::Pass, "dce"), 2 * functions);
    assert_eq!(trace.count_of(SpanKind::Pass, "regalloc"), 3 * functions);
    assert_eq!(trace.count_of(SpanKind::Pass, "emit"), 6 * functions);
    assert_eq!(trace.count_of(SpanKind::Pass, "link"), 26 * 6);
}

#[test]
fn scenario_verdicts_are_bit_identical_across_job_counts() {
    // a generated multi-rate scenario through the same gate: both the
    // sweep digest and the schedulability report (verdict order, frame
    // WCETs, rendering, digest) must be pure functions of the spec
    let scn = Scenario::generate(
        &ScenarioConfig::builder()
            .name("det")
            .tasks(8)
            .symbols(6, 20)
            .frames(4)
            .seed(0xD17E)
            .build()
            .expect("valid config"),
    )
    .expect("generates");
    let spec = scn
        .to_sweep_spec()
        .levels([OptLevel::Verified, OptLevel::OptFull]);

    let one = pipeline_with_jobs(1)
        .run_sweep(&spec)
        .expect("jobs=1 sweep");
    let eight = pipeline_with_jobs(8)
        .run_sweep(&spec)
        .expect("jobs=8 sweep");
    assert_eq!(
        one.digest(),
        eight.digest(),
        "scenario sweep diverges across job counts"
    );
    let report_one = scn.check(&one);
    let report_eight = scn.check(&eight);
    assert_eq!(
        report_one.digest(),
        report_eight.digest(),
        "schedulability digests diverge across job counts"
    );
    assert_eq!(report_one.render(), report_eight.render());
    assert!(report_one.feasible(), "derived budgets must fit:\n{}", {
        report_one.render()
    });

    // warm replay serves every scenario cell from the cache: zero compile
    // stage spans, zero pass spans, and the same verdicts
    let pipeline = pipeline_with_jobs(8);
    pipeline.run_sweep(&spec).expect("cold prewarm");
    let replay = pipeline.run_sweep(&spec).expect("warm sweep");
    assert_eq!(replay.stats.jobs_cached, spec.cell_count() as u64);
    let rt = replay.trace();
    assert_eq!(
        rt.count_of(SpanKind::Stage, "cache-lookup"),
        spec.cell_count() as u64
    );
    assert_eq!(rt.count_of(SpanKind::Stage, "compile"), 0);
    assert_eq!(rt.count_of(SpanKind::Pass, "lower"), 0);
    assert_eq!(
        scn.check(&replay).digest(),
        report_one.digest(),
        "replayed verdicts diverge from the cold build"
    );
}

#[test]
fn warm_replay_is_bit_identical_to_the_cold_build() {
    let nodes = fleet::named_suite();
    let spec = SweepSpec::new().nodes(&nodes).level(OptLevel::OptFull);
    let pipeline = pipeline_with_jobs(8);
    let cold = pipeline.run_sweep(&spec).expect("cold sweep");
    let warm = pipeline.run_sweep(&spec).expect("warm sweep");
    assert_eq!(cold.stats.jobs_run, 26);
    assert_eq!(warm.stats.jobs_cached, 26);
    assert_eq!(cold.digest(), warm.digest(), "replayed artifacts diverge");
    for cell in warm.cells() {
        assert!(cell.outcome.cached);
        // opt-full runs tunneling and scheduling under validators: the
        // replayed verdict must carry exactly that evidence
        assert!(cell.outcome.artifact.verdict.allocation_checked);
        assert!(cell.outcome.artifact.verdict.tunnel_validated);
        assert!(cell.outcome.artifact.verdict.schedule_validated);
    }
}

// ---------------------------------------------------------------------------
// Daemon determinism gates: a sweep served by `vericomp_serve` must be
// bit-identical to a solo `run_sweep` of the same spec — across job counts,
// server restarts, forced eviction, and concurrent clients.
// ---------------------------------------------------------------------------

use vericomp::pipeline::{normalize_spec, Client, Server, ServerOptions};

fn daemon_socket(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("vericomp-det-{tag}-{}.sock", std::process::id()))
}

fn daemon_spec(nodes: std::ops::Range<usize>) -> SweepSpec {
    let suite = fleet::named_suite();
    let spec = SweepSpec::new()
        .nodes(&suite[nodes])
        .levels([OptLevel::Verified, OptLevel::OptFull]);
    normalize_spec(&spec, &MachineConfig::mpc755())
}

#[test]
fn daemon_response_is_bit_identical_to_solo_across_jobs() {
    let spec = daemon_spec(0..4);
    let solo = pipeline_with_jobs(1).run_sweep(&spec).expect("solo sweep");

    let mut store_digests = Vec::new();
    for jobs in [1usize, 4] {
        let socket = daemon_socket(&format!("axes-{jobs}"));
        let mut options = ServerOptions::new(&socket);
        options.jobs = jobs;
        let server = Server::new(&options).expect("binds");
        let store = server.store().clone();
        let handle = std::thread::spawn(move || server.run().expect("serves"));

        let mut client = Client::connect(&socket).expect("connects");
        let served = client.run_sweep(&spec).expect("served");
        assert!(served.verify(), "jobs={jobs}: bad frame");
        assert_eq!(
            served.digest,
            solo.digest(),
            "jobs={jobs}: daemon digest diverges from solo"
        );
        store_digests.push(store.store_digest());
        client.shutdown().expect("acknowledged");
        handle.join().expect("clean run");
    }
    // the resident key set is a pure function of the work: the store
    // digest must not depend on worker count
    assert!(
        store_digests.windows(2).all(|w| w[0] == w[1]),
        "store digest varies with jobs: {store_digests:?}"
    );
}

/// Two config labels for one pass selection give each unit one key, so
/// one label's cells replay artifacts the other's compiled. A replay must
/// digest like a fresh compile whichever label came first: the sweep
/// digest is the same at every job count, cold and warm, and a request
/// naming only `b` digests alike when run alone and when a pipeline or a
/// daemon that already ran `a` and `b` serves it.
#[test]
fn a_hit_compiled_under_another_config_label_digests_like_a_solo_run() {
    let nodes: Vec<_> = fleet::named_suite().into_iter().take(6).collect();
    let verified = PassConfig::for_level(OptLevel::Verified);
    let machine = MachineConfig::mpc755();
    let both = SweepSpec::new()
        .nodes(&nodes)
        .config("a", &verified)
        .config("b", &verified);
    let both = normalize_spec(&both, &machine);
    let only_b = SweepSpec::new().nodes(&nodes).config("b", &verified);
    let only_b = normalize_spec(&only_b, &machine);
    let solo_both = pipeline_with_jobs(1).run_sweep(&both).expect("solo");
    let solo_b = pipeline_with_jobs(1).run_sweep(&only_b).expect("solo b");
    for jobs in [1usize, 2, 4] {
        let pipeline = pipeline_with_jobs(jobs);
        for run in ["cold", "warm"] {
            let sweep = pipeline.run_sweep(&both).expect("a+b");
            assert_eq!(sweep.digest(), solo_both.digest(), "jobs {jobs} {run}");
        }
        let served = pipeline.run_sweep(&only_b).expect("b after a+b");
        assert_eq!(served.digest(), solo_b.digest(), "jobs {jobs}: b after a+b");

        let socket = daemon_socket(&format!("labels-{jobs}"));
        let mut options = ServerOptions::new(&socket);
        options.jobs = jobs;
        let server = Server::new(&options).expect("binds");
        let handle = std::thread::spawn(move || server.run().expect("serves"));
        let mut client = Client::connect(&socket).expect("connects");
        let served = client.run_sweep(&both).expect("served a+b");
        assert_eq!(served.digest, solo_both.digest(), "jobs {jobs}: served a+b");
        let served = client.run_sweep(&only_b).expect("served b");
        assert_eq!(served.digest, solo_b.digest(), "jobs {jobs}: served b");
        client.shutdown().expect("acknowledged");
        handle.join().expect("clean run");
    }
}

#[test]
fn daemon_restart_mid_suite_preserves_digests() {
    let socket = daemon_socket("restart");
    let cache =
        std::env::temp_dir().join(format!("vericomp-det-restart-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);

    let first_half = daemon_spec(0..3);
    let full = daemon_spec(0..6);
    let solo_half = pipeline_with_jobs(1).run_sweep(&first_half).expect("solo");
    let solo_full = pipeline_with_jobs(1).run_sweep(&full).expect("solo");

    // first server lifetime: compile the first half, then stop
    {
        let mut options = ServerOptions::new(&socket);
        options.cache_dir = Some(cache.clone());
        let server = Server::new(&options).expect("binds");
        let handle = std::thread::spawn(move || server.run().expect("serves"));
        let mut client = Client::connect(&socket).expect("connects");
        let served = client.run_sweep(&first_half).expect("served");
        assert_eq!(served.digest, solo_half.digest());
        client.shutdown().expect("acknowledged");
        handle.join().expect("clean run");
        assert!(!socket.exists(), "socket must be removed between lifetimes");
    }

    // second lifetime on the same socket + store dir: the first half
    // replays from disk, the rest compiles fresh — same digest as solo
    {
        let mut options = ServerOptions::new(&socket);
        options.cache_dir = Some(cache.clone());
        let server = Server::new(&options).expect("re-binds");
        let handle = std::thread::spawn(move || server.run().expect("serves"));
        let mut client = Client::connect(&socket).expect("connects");
        let served = client.run_sweep(&full).expect("served");
        assert_eq!(
            served.digest,
            solo_full.digest(),
            "digest diverges across a server restart"
        );
        let replayed = served.cells.iter().filter(|c| c.cached).count();
        assert!(
            replayed >= first_half.cell_count(),
            "restart must replay the persisted half ({replayed} cached)"
        );
        client.shutdown().expect("acknowledged");
        handle.join().expect("clean run");
    }
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn daemon_eviction_recompiles_to_identical_digests() {
    let socket = daemon_socket("evict");
    let mut options = ServerOptions::new(&socket);
    // sized to hold one six-cell sweep but not two: the second sweep
    // evicts the first's batch, the third forces recompiles
    options.max_bytes = Some(16_000);
    let server = Server::new(&options).expect("binds");
    let store = server.store().clone();
    let handle = std::thread::spawn(move || server.run().expect("serves"));

    let spec_a = daemon_spec(0..3);
    let spec_b = daemon_spec(3..6);
    let solo_a = pipeline_with_jobs(1).run_sweep(&spec_a).expect("solo a");
    let solo_b = pipeline_with_jobs(1).run_sweep(&spec_b).expect("solo b");

    let mut client = Client::connect(&socket).expect("connects");
    let first = client.run_sweep(&spec_a).expect("cold a");
    assert_eq!(first.digest, solo_a.digest());
    let second = client.run_sweep(&spec_b).expect("cold b");
    assert_eq!(second.digest, solo_b.digest());

    client.shutdown().expect("acknowledged");
    let stats = handle.join().expect("clean run");
    assert!(
        stats.evictions > 0,
        "the byte bound must have forced evictions (resident {} bytes {})",
        stats.resident,
        stats.store_bytes
    );
    drop(store);

    // a fresh server on the same socket: the evicted cells recompile
    // from scratch to the exact same digest
    let server = Server::new(&options).expect("re-binds");
    let handle = std::thread::spawn(move || server.run().expect("serves"));
    let mut client = Client::connect(&socket).expect("connects");
    let again = client.run_sweep(&spec_a).expect("recompiled a");
    assert_eq!(
        again.digest,
        solo_a.digest(),
        "evicted cells recompile to a different digest"
    );
    client.shutdown().expect("acknowledged");
    handle.join().expect("clean run");
}

#[test]
fn daemon_concurrent_clients_match_solo_and_store_digest_ignores_arrival_order() {
    let spec_a = daemon_spec(0..4);
    let spec_b = daemon_spec(2..6); // overlaps a on nodes 2..4
    let solo_a = pipeline_with_jobs(1).run_sweep(&spec_a).expect("solo a");
    let solo_b = pipeline_with_jobs(1).run_sweep(&spec_b).expect("solo b");

    let mut store_digests = Vec::new();
    for (tag, first_a) in [("order-ab", true), ("order-ba", false)] {
        let socket = daemon_socket(tag);
        let server = Server::new(&ServerOptions::new(&socket)).expect("binds");
        let store = server.store().clone();
        let handle = std::thread::spawn(move || server.run().expect("serves"));

        // two live connections; submission order flips between the runs
        let mut one = Client::connect(&socket).expect("connects");
        let mut two = Client::connect(&socket).expect("connects");
        let (ra, rb) = if first_a {
            let ra = std::thread::scope(|s| {
                let ja = s.spawn(|| one.run_sweep(&spec_a).expect("served a"));
                let jb = s.spawn(|| two.run_sweep(&spec_b).expect("served b"));
                (ja.join().expect("a"), jb.join().expect("b"))
            });
            ra
        } else {
            let rb = std::thread::scope(|s| {
                let jb = s.spawn(|| two.run_sweep(&spec_b).expect("served b"));
                let ja = s.spawn(|| one.run_sweep(&spec_a).expect("served a"));
                (ja.join().expect("a"), jb.join().expect("b"))
            });
            rb
        };
        assert_eq!(ra.digest, solo_a.digest(), "{tag}: client a diverges");
        assert_eq!(rb.digest, solo_b.digest(), "{tag}: client b diverges");
        store_digests.push(store.store_digest());

        let mut admin = Client::connect(&socket).expect("connects");
        admin.shutdown().expect("acknowledged");
        handle.join().expect("clean run");
    }
    assert_eq!(
        store_digests[0], store_digests[1],
        "resident store digest depends on request arrival order"
    );
}

#[test]
fn daemon_parse_cached_client_uploads_nothing_and_matches_solo() {
    let spec = daemon_spec(0..5);
    let solo = pipeline_with_jobs(1).run_sweep(&spec).expect("solo sweep");

    let socket = daemon_socket("parse-warm");
    let server = Server::new(&ServerOptions::new(&socket)).expect("binds");
    let handle = std::thread::spawn(move || server.run().expect("serves"));

    // client one seeds the parse cache by uploading every unit body
    let mut one = Client::connect(&socket).expect("connects");
    let seeded = one.run_sweep(&spec).expect("seed sweep");
    assert_eq!(seeded.digest, solo.digest(), "seeding sweep diverges");
    let after_seed = one.server_stats().expect("stats");
    assert_eq!(after_seed.units_uploaded, spec.units().len() as u64);
    let frames_before = frames_received(&mut one);

    // client two has never spoken to this daemon, but every digest it
    // names is already parse-cached: its sweep must be one request frame
    // with zero uploaded bodies and still serve the solo digest bit for
    // bit
    let mut two = Client::connect(&socket).expect("connects");
    let served = two.run_sweep(&spec).expect("sweep by digest");
    assert!(served.verify(), "bad response frame");
    assert_eq!(
        served.digest,
        solo.digest(),
        "a parse-cached client's sweep diverges from solo"
    );
    // the second metrics request is the other frame of the delta
    assert_eq!(
        frames_received(&mut one) - frames_before,
        2,
        "a fresh connection's warm sweep must cost one request frame"
    );
    let after = two.server_stats().expect("stats");
    assert_eq!(
        after.units_uploaded, after_seed.units_uploaded,
        "fully parse-cached client still uploaded unit bodies"
    );
    assert!(
        after.parse_hits >= spec.units().len() as u64,
        "units sent by digest must resolve from the parse cache"
    );

    let mut admin = Client::connect(&socket).expect("connects");
    admin.shutdown().expect("acknowledged");
    handle.join().expect("clean run");
}

/// Request frames a daemon has received, the `metrics` request's own
/// frame included: the count of the registry's `frame_rx_bytes`
/// histogram.
fn frames_received(client: &mut Client) -> u64 {
    let json = client.server_metrics().expect("metrics");
    let tag = "\"frame_rx_bytes\": {\"count\": ";
    let at = json.find(tag).expect("metrics JSON counts request frames") + tag.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("frame count")
}

/// Extracts the `counter_digest` value from a metrics-registry JSON blob.
fn metrics_digest(json: &str) -> String {
    let tag = "\"counter_digest\": \"";
    let at = json
        .find(tag)
        .expect("metrics JSON carries a counter digest");
    let rest = &json[at + tag.len()..];
    rest[..rest.find('"').expect("closing quote")].to_owned()
}

/// The metrics registry obeys the repo's digest discipline: for one serial
/// client replaying the identical request sequence, `counter_digest` is a
/// pure function of the workload — invariant across worker counts and a
/// daemon restart (fresh lifetime, same requests). Wall latencies differ
/// wildly across those axes; only identities and counts are hashed.
#[test]
fn daemon_metrics_counter_digest_is_invariant_across_jobs_and_restart() {
    let first = daemon_spec(0..3);
    let second = daemon_spec(0..5);

    let mut digests = Vec::new();
    // a jobs axis plus a repeat of the first configuration — the repeat
    // is the "restart" leg: a fresh memory-only lifetime serving the
    // same requests must reproduce the digest bit for bit
    for (tag, jobs) in [("m1", 1usize), ("m2", 8), ("m3", 1)] {
        let socket = daemon_socket(&format!("metrics-{tag}"));
        let mut options = ServerOptions::new(&socket);
        options.jobs = jobs;
        let server = Server::new(&options).expect("binds");
        let handle = std::thread::spawn(move || server.run().expect("serves"));

        let mut client = Client::connect(&socket).expect("connects");
        client.run_sweep(&first).expect("served");
        client.run_sweep(&second).expect("served");
        let json = client.server_metrics().expect("metrics");
        digests.push((tag, metrics_digest(&json)));
        client.shutdown().expect("acknowledged");
        handle.join().expect("clean run");
    }
    assert!(
        digests.windows(2).all(|w| w[0].1 == w[1].1),
        "metrics counter digest varies with jobs/restart: {digests:?}"
    );
}

/// A traced sweep returns the server-side spans of exactly
/// that request: stage rows covering every cell, each tagged with the
/// trace id the client chose — and the spans ride outside the response
/// digest, so a traced response stays bit-identical to an untraced one.
#[test]
fn daemon_traced_sweep_returns_tagged_spans_without_changing_the_digest() {
    let spec = daemon_spec(0..3);
    let solo = pipeline_with_jobs(1).run_sweep(&spec).expect("solo sweep");

    let socket = daemon_socket("traced");
    let server = Server::new(&ServerOptions::new(&socket)).expect("binds");
    let handle = std::thread::spawn(move || server.run().expect("serves"));

    let mut client = Client::connect(&socket).expect("connects");
    let trace_id = 0x00c0_ffee_0000_0042u64;
    let traced = client.run_sweep_traced(&spec, trace_id).expect("served");
    assert!(traced.verify(), "bad traced frame");
    assert_eq!(traced.digest, solo.digest(), "trace id leaked into digest");
    assert!(!traced.spans.is_empty(), "traced response carries no spans");
    let tag = format!("trace={trace_id:016x}");
    assert!(
        traced.spans.iter().all(|s| s.detail.contains(&tag)),
        "server span missing its trace tag"
    );
    for stage in ["compile", "analyze", "store"] {
        assert!(
            traced.spans.iter().any(|s| s.name == stage),
            "traced response lacks a `{stage}` stage span"
        );
    }
    // the flight recorder attributes the start and end of the sweep to
    // the same trace id
    let dump = client.recorder_dump().expect("recorder dump");
    let trace_field = format!("\"trace\": \"{trace_id:016x}\"");
    for kind in ["sweep-start", "sweep-end"] {
        let kind_field = format!("\"kind\": \"{kind}\"");
        assert!(
            dump.lines()
                .any(|l| l.contains(&trace_field) && l.contains(&kind_field)),
            "no `{kind}` recorder event carries the trace id"
        );
    }

    // an untraced request on the same connection gets no spans back
    let untraced = client.run_sweep(&spec).expect("served");
    assert!(untraced.spans.is_empty(), "untraced response carries spans");
    assert_eq!(untraced.digest, solo.digest());

    client.shutdown().expect("acknowledged");
    handle.join().expect("clean run");
}
