//! E11 — the compile service: client latency and concurrent-client
//! throughput against a live `vericomp-serve` daemon. Emits
//! `BENCH_daemon.json`.
//!
//! One in-process server with the default options (one unbounded store)
//! serves every regime over its Unix socket, exactly the deployment shape
//! of `vericomp_serve` + `compile_fleet --connect`:
//!
//! * `fleet26/cold_client` — one-shot (recorded in the `latency` note):
//!   first request of the 26-node suite against an empty store, the full
//!   cold path over the wire;
//! * `fleet26/warm_client` — the same request replayed from the warm
//!   shared store, protocol + replay cost only;
//! * `batch4/concurrent_clients` — four clients submit 4-node specs of
//!   the warm suite (plus one never-seen dirty node each) at once; the
//!   server runs their four sweeps one after another, each under the
//!   sweep lock;
//! * `batch4/serial_client` — the identical four specs one after another
//!   on a single connection.
//!
//! The soak: the E10 5 000-task scenario (12 692 units) through the
//! daemon, digest-checked against a solo `run_sweep` of the same spec on
//! one worker, then replayed warm (asserted 100% hits, **zero unit bodies
//! uploaded** — the protocol resolves every unit from the parse cache by
//! digest) and warm again from a *fresh* connection (also zero uploads,
//! and one request frame: the server's parse cache, not the connection,
//! decides what must be uploaded). The daemon's
//! own [`ServerStats`] ride along in the summary under the `server`
//! note, so `BENCH_daemon.json` records hit rate, evictions, wire
//! bytes, parse-cache traffic and per-stage nanos next to the timings —
//! and the full metrics registry (per-request latency and per-sweep
//! cell-count histograms with p50/p90/p99, plus its counter digest)
//! rides under the `metrics` note.
//!
//! The solo soak also carries the E10 scale checks: its sweep and sched
//! digests equal the pins below, its derived frame budgets are feasible,
//! and a warm `reanalyze_sweep` of every artifact runs no fixpoint and
//! finds no mismatch (the `daemon: E10 pinned` line).
//!
//! Acceptance bars asserted below, each measured within this run: the
//! warm served request is at least 5x faster than the cold one, the
//! daemon spends < 3% of three warm soaks in its own flight-recorder
//! calls (timed by the recorder, detail formatting included, reported
//! in its dump), and all digests equal the solo runs. Speed across commits is tracked by the
//! repository benchmark (`benchmark diff`), not by recorded constants.

use std::path::Path;
use std::time::Instant;

use vericomp_arch::MachineConfig;
use vericomp_bench::pipeline::dirty_node;
use vericomp_core::OptLevel;
use vericomp_dataflow::fleet;
use vericomp_pipeline::{
    normalize_spec, Client, Pipeline, PipelineOptions, Server, ServerOptions, SweepSpec,
    PROTO_VERSION,
};
use vericomp_testkit::bench::Bench;
use vericomp_testkit::scenario::{Scenario, ScenarioConfig};

/// The E10 soak's sweep and sched digests as the dense per-block
/// analyzer (no sharing, no fact cache) first produced them; every
/// analyzer since reproduces both bit for bit.
const E10_SWEEP_DIGEST: &str = "d1154ee1b405f0868553bbaa2dd0946f";
const E10_SCHED_DIGEST: &str = "6915d79ae126aaf8a63818514ede155e";

fn soak_config() -> ScenarioConfig {
    ScenarioConfig::builder()
        .name("scn10k")
        .tasks(5_000)
        .symbols(10, 28)
        .frames(8)
        .seed(0x10_000)
        .build()
        .expect("valid config")
}

/// The unsigned integer that follows `tag` in one of the daemon's JSON
/// answers.
fn json_u64(json: &str, tag: &str) -> u64 {
    let at = json
        .find(tag)
        .unwrap_or_else(|| panic!("the daemon's JSON has no `{tag}`"))
        + tag.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("an unsigned integer")
}

/// Request frames the daemon has received, this `metrics` request's own
/// frame included: the count of the registry's `frame_rx_bytes`
/// histogram.
fn frames_received(client: &mut Client) -> u64 {
    let json = client.server_metrics().expect("metrics");
    json_u64(&json, "\"frame_rx_bytes\": {\"count\": ")
}

/// Nanoseconds the daemon has spent in flight-recorder calls, detail
/// formatting included: the `record_ns` field of its recorder dump.
fn recorder_ns(client: &mut Client) -> u64 {
    let json = client.recorder_dump().expect("recorder dump");
    json_u64(&json, "\"record_ns\": ")
}

fn main() {
    let socket = std::env::temp_dir().join(format!("vericomp-bench-{}.sock", std::process::id()));
    let server = Server::new(&ServerOptions::new(&socket)).expect("binds");
    let handle = std::thread::spawn(move || server.run().expect("serves"));

    let suite = fleet::named_suite();
    let spec = normalize_spec(
        &SweepSpec::new().nodes(&suite).level(OptLevel::Verified),
        &MachineConfig::mpc755(),
    );
    let solo = Pipeline::in_memory().run_sweep(&spec).expect("solo sweep");

    // cold latency is a one-shot: the store is only empty once
    let mut client = Client::connect(&socket).expect("connects");
    let t = Instant::now();
    let cold = client.run_sweep(&spec).expect("cold request");
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(cold.digest, solo.digest(), "cold served digest != solo");

    let mut g = Bench::group("daemon");
    g.bench("fleet26/warm_client", || {
        let r = client.run_sweep(&spec).expect("warm request");
        assert_eq!(r.digest, solo.digest(), "warm served digest != solo");
        r.stats.jobs_cached
    });
    let warm_ns = g.results()[0].mean_ns;
    println!(
        "daemon: fleet26 cold {cold_ms:.1} ms, warm {:.1} ms over the socket",
        warm_ns / 1e6
    );

    // four overlapping specs; each iteration dirties one never-seen node
    // per client so every round carries 4 genuine compiles
    let batch_specs = |revision: u32| -> Vec<SweepSpec> {
        (0..4u32)
            .map(|i| {
                let lo = (i as usize) * 4;
                let mut nodes = suite[lo..lo + 4].to_vec();
                nodes.push(dirty_node(revision * 4 + i));
                normalize_spec(
                    &SweepSpec::new().nodes(&nodes).level(OptLevel::Verified),
                    &MachineConfig::mpc755(),
                )
            })
            .collect()
    };

    let mut revision = 0u32;
    let mut pool: Vec<Client> = (0..4)
        .map(|_| Client::connect(&socket).expect("connects"))
        .collect();
    g.bench("batch4/concurrent_clients", || {
        let specs = batch_specs(revision);
        revision += 1;
        std::thread::scope(|s| {
            let joins: Vec<_> = pool
                .iter_mut()
                .zip(&specs)
                .map(|(c, spec)| s.spawn(move || c.run_sweep(spec).expect("served").cells.len()))
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("client thread"))
                .sum::<usize>()
        })
    });
    g.bench("batch4/serial_client", || {
        let specs = batch_specs(revision);
        revision += 1;
        specs
            .iter()
            .map(|spec| client.run_sweep(spec).expect("served").cells.len())
            .sum::<usize>()
    });

    // the E10 soak: the 5k-task scenario (10k+ units) through the daemon,
    // bit-identical to a solo run of the same lowered spec
    let scenario = Scenario::generate(&soak_config()).expect("generates");
    let units = scenario.units().len();
    assert!(units >= 10_000, "soak workload shrank to {units} units");
    let soak_spec = normalize_spec(&scenario.to_sweep_spec(), &MachineConfig::mpc755());
    // one worker here against the server's default, so "served == solo"
    // also shows the digest does not depend on the job count at scale
    let solo_pipeline = Pipeline::new(
        &PipelineOptions::builder()
            .jobs(1)
            .build()
            .expect("valid options"),
    )
    .expect("in-memory pipeline");
    let mut solo_soak = solo_pipeline.run_sweep(&soak_spec).expect("solo soak");
    let sched = scenario.check(&solo_soak);
    assert_eq!(
        solo_soak.digest().to_string(),
        E10_SWEEP_DIGEST,
        "E10 sweep digest moved"
    );
    assert_eq!(
        sched.digest().to_string(),
        E10_SCHED_DIGEST,
        "E10 sched digest moved"
    );
    assert!(sched.feasible(), "derived budgets must fit at scale");
    // every artifact re-derived through the session analyzer that just
    // ran the sweep: all of it must replay from the fact cache
    let t = Instant::now();
    let audit = solo_pipeline
        .reanalyze_sweep(&mut solo_soak)
        .expect("reanalyzes");
    let audit_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(audit.functions_analyzed, 0, "warm audit re-ran fixpoints");
    assert!(audit.mismatches.is_empty(), "{:?}", audit.mismatches);
    drop(solo_pipeline);
    println!(
        "daemon: E10 pinned sweep digest {E10_SWEEP_DIGEST} sched digest {E10_SCHED_DIGEST} \
         at jobs 1, budgets feasible, warm audit of {} artifacts in {audit_ms:.0} ms: \
         0 fixpoints, 0 mismatches",
        audit.artifacts
    );
    let t = Instant::now();
    let served_soak = client.run_sweep(&soak_spec).expect("soak request");
    let soak_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        served_soak.digest,
        solo_soak.digest(),
        "soak served digest != solo"
    );
    let before_warm = client.server_stats().expect("stats");
    let t = Instant::now();
    let warm_soak = client.run_sweep(&soak_spec).expect("warm soak");
    let soak_warm_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(warm_soak.stats.jobs_cached, units as u64, "soak not warm");
    assert_eq!(warm_soak.digest, solo_soak.digest(), "warm soak != solo");
    let after_warm = client.server_stats().expect("stats");
    assert_eq!(
        after_warm.units_uploaded, before_warm.units_uploaded,
        "warm soak uploaded unit bodies"
    );
    println!(
        "daemon: scenario soak {units} units cold {soak_ms:.0} ms, \
         warm {soak_warm_ms:.0} ms (0 bodies uploaded), digest {}",
        served_soak.digest
    );

    // a fresh connection knows nothing, yet every digest it names is
    // parse-cached: its sweep is one frame that uploads nothing
    let frames_before = frames_received(&mut client);
    let mut fresh = Client::connect(&socket).expect("connects");
    let t = Instant::now();
    let fresh_soak = fresh.run_sweep(&soak_spec).expect("fresh warm soak");
    let soak_fresh_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(fresh_soak.digest, solo_soak.digest(), "fresh soak != solo");
    // the delta also holds the second metrics request's own frame
    let fresh_frames = frames_received(&mut client) - frames_before - 1;
    assert_eq!(
        fresh_frames, 1,
        "fresh client's warm soak took {fresh_frames} request frames"
    );
    let after_fresh = fresh.server_stats().expect("stats");
    assert_eq!(
        after_fresh.units_uploaded, after_warm.units_uploaded,
        "fully-cached fresh client uploaded unit bodies"
    );
    println!(
        "daemon: fresh-client warm soak {soak_fresh_ms:.0} ms \
         (1 request frame, 0 bodies uploaded)"
    );

    let server_stats = client.server_stats().expect("stats");
    println!(
        "daemon: request latency p50 {:.1} ms p99 {:.1} ms over {} requests \
         (proto {PROTO_VERSION})",
        server_stats.request_p50_ns as f64 / 1e6,
        server_stats.request_p99_ns as f64 / 1e6,
        server_stats.requests,
    );
    g.note(
        "latency",
        &format!(
            "{{\"fleet26_cold_ms\":{cold_ms:.2},\"fleet26_warm_ms\":{:.2},\
             \"soak_units\":{units},\"soak_cold_ms\":{soak_ms:.1},\
             \"soak_warm_ms\":{soak_warm_ms:.1},\
             \"soak_fresh_warm_ms\":{soak_fresh_ms:.1}}}",
            warm_ns / 1e6
        ),
    );
    g.note("server", &server_stats.to_json());
    g.note("stats", &warm_soak.stats.to_json());
    g.note("metrics", &client.server_metrics().expect("metrics"));

    // the recorder's cost, measured in the one daemon: its own time in
    // recorder calls, detail formatting included, as a share of three
    // warm soaks' wall time
    let record_before = recorder_ns(&mut client);
    let mut soak_ns = 0u64;
    for _ in 0..3 {
        let t = Instant::now();
        let r = client.run_sweep(&soak_spec).expect("warm soak");
        soak_ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        assert_eq!(r.digest, solo_soak.digest(), "warm soak != solo");
    }
    let record_ns = recorder_ns(&mut client) - record_before;
    #[allow(clippy::cast_precision_loss)]
    let record_share = record_ns as f64 / soak_ns as f64;
    println!(
        "daemon: recorder share of warm soak {:.4}% ({record_ns} ns in recorder calls \
         over 3 soaks of {:.0} ms; bar < 3%)",
        record_share * 100.0,
        soak_ns as f64 / 3e6,
    );
    g.note(
        "recorder",
        &format!(
            "{{\"record_ns\":{record_ns},\"warm_soak_ns\":{soak_ns},\
             \"share\":{record_share:.6}}}"
        ),
    );
    assert!(
        record_share < 0.03,
        "flight recorder calls took {:.2}% of the warm soak (bar < 3%)",
        record_share * 100.0,
    );

    let mut admin = Client::connect(&socket).expect("connects");
    admin.shutdown().expect("acknowledged");
    let final_stats = handle.join().expect("clean run");
    assert!(!socket.exists(), "socket must be removed on shutdown");
    assert!(final_stats.requests > 0);

    println!("{}", g.render());
    let path = g.write_json(Path::new(".")).expect("writes summary");
    println!("wrote {}", path.display());

    let speedup = cold_ms * 1e6 / warm_ns;
    println!("warm served request speedup vs cold: {speedup:.1}x (bar: 5x)");
    assert!(
        speedup >= 5.0,
        "warm daemon replay regressed below 5x vs cold: {speedup:.2}x"
    );
}
