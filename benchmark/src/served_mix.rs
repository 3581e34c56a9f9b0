//! `served_mix` — the compile daemon: an in-process [`Server`] with the
//! default options (flight recorder on), primed with a scenario at
//! `verified`, then a closed loop of up to two client threads, one
//! connection each, no think time. Every request is a seeded 128-unit
//! slice of the scenario; 85 % repeat a slice unchanged (nothing
//! uploaded), 15 % edit one unit (one upload, one parse-cache miss, one
//! compile + analyze + insert) — reads and writes side by side on the
//! shared store. The only workload through the proto codec, `have`/`need`
//! negotiation, the parse cache and request batching.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vericomp_arch::MachineConfig;
use vericomp_bench::pipeline::dirty_node;
use vericomp_core::{OptLevel, PassConfig};
use vericomp_pipeline::{
    artifact_key, normalize_spec, Artifact, ArtifactStore, Client, Digest, Pipeline,
    PipelineOptions, RunTrace, Server, ServerOptions, ServerStats, SweepResponse, SweepSpec,
    SweepUnit,
};
use vericomp_testkit::rng::{mix, Rng};
use vericomp_testkit::scenario::Scenario;

use crate::checks::interp_matches_sim;
use crate::common::{
    e2e_metrics, generate, nproc, respec, sample_indices, setups, Loop, Scratch, SweepAgg,
    CHECKED_CELLS,
};
use crate::replay::{traced_layers, Observed, ReplayCell, Served};
use crate::trace::Tracer;
use crate::{json, Outcome, Params, Workload};

/// Units per request.
const SLICE: usize = 128;

/// Requests (per thousand) that edit one unit of their slice.
const EDIT_PER_MILLE: u32 = 150;

/// Every this many requests, one is kept for the solo comparison.
const SOLO_EVERY: u64 = 64;

/// Cap on kept solo comparisons per run.
const SOLO_MAX: usize = 8;

/// A server running on its own thread; dropping it shuts it down and
/// joins the thread.
struct Daemon {
    socket: PathBuf,
    store: Arc<ArtifactStore>,
    handle: Option<JoinHandle<std::io::Result<ServerStats>>>,
}

impl Daemon {
    fn start(socket: PathBuf) -> Result<Daemon, String> {
        let mut options = ServerOptions::new(&socket);
        options.jobs = nproc();
        let server = Server::new(&options).map_err(|e| format!("server: {e}"))?;
        let store = Arc::clone(server.store());
        let handle = std::thread::Builder::new()
            .name("benchmark-server".into())
            .spawn(move || server.run())
            .map_err(|e| e.to_string())?;
        Ok(Daemon {
            socket,
            store,
            handle: Some(handle),
        })
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.socket).map_err(|e| format!("connect: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            if let Ok(mut admin) = Client::connect(&self.socket) {
                let _ = admin.shutdown();
            }
            let _ = handle.join();
        }
    }
}

/// One client thread's share of the loop.
#[derive(Default)]
struct ClientRun {
    lp: Loop,
    solo: Vec<(SweepSpec, Digest)>,
    trace: RunTrace,
}

/// The request a client sends next: a seeded slice, maybe with one unit
/// edited. Returns the spec and the cells the server must compile.
fn next_request(
    spec: &SweepSpec,
    rng: &mut Rng,
    revisions: &AtomicU32,
    slice: usize,
) -> (SweepSpec, u64) {
    let units = spec.units();
    let offset = rng.gen_range(0..=units.len() - slice);
    let mut chosen: Vec<SweepUnit> = units[offset..offset + slice].to_vec();
    let edit = rng.gen_range(0..1000u32) < EDIT_PER_MILLE;
    if edit {
        let at = rng.gen_range(0..slice);
        let revision = revisions.fetch_add(1, Ordering::Relaxed) + 1;
        chosen[at] =
            SweepUnit::from_source(&chosen[at].name, dirty_node(revision).to_minic(), "step");
    }
    (respec(spec, chosen), u64::from(edit))
}

/// Checks one served response against what the request implies.
fn check_response(resp: &SweepResponse, slice: usize, fresh: u64) -> Result<(), String> {
    if !resp.verify() {
        return Err("response digest does not match its cells".into());
    }
    if resp.cells.len() != slice {
        return Err(format!(
            "{} cells for a {slice}-unit request",
            resp.cells.len()
        ));
    }
    if resp.stats.jobs_run != fresh || resp.stats.jobs_cached != slice as u64 - fresh {
        return Err(format!(
            "expected {fresh} fresh cells, got {} run / {} cached",
            resp.stats.jobs_run, resp.stats.jobs_cached
        ));
    }
    Ok(())
}

/// One client's closed loop until `deadline` (at least one request).
#[allow(clippy::too_many_arguments)]
fn client_loop(
    daemon: &Daemon,
    spec: &SweepSpec,
    seed: u64,
    deadline: Instant,
    traced: bool,
    revisions: &AtomicU32,
    sent: &AtomicU64,
) -> Result<ClientRun, String> {
    let mut client = daemon.connect()?;
    let mut rng = Rng::seed_from_u64(seed);
    let slice = SLICE.min(spec.units().len());
    let mut run = ClientRun::default();
    while run.lp.attempted == 0 || Instant::now() < deadline {
        let (request, fresh) = next_request(spec, &mut rng, revisions, slice);
        let number = sent.fetch_add(1, Ordering::Relaxed) + 1;
        run.lp.attempted += 1;
        let t = Instant::now();
        let served = if traced {
            client.run_sweep_traced(&request, number)
        } else {
            client.run_sweep(&request)
        };
        let took = t.elapsed();
        let checked = served
            .map_err(|e| e.to_string())
            .and_then(|resp| check_response(&resp, slice, fresh).map(|()| resp));
        match checked {
            Ok(resp) => {
                run.lp.latencies_ms.push(took.as_secs_f64() * 1e3);
                if number.is_multiple_of(SOLO_EVERY) && run.solo.len() < SOLO_MAX {
                    run.solo.push((request, resp.digest));
                }
                for span in resp.spans {
                    run.trace.push(span);
                }
            }
            Err(e) => {
                eprintln!("benchmark: request {number} failed: {e}");
                run.lp.failed += 1;
            }
        }
    }
    Ok(run)
}

/// Set-up state: the scenario, its normalized spec, the primed daemon,
/// and the primed cells' totals.
struct State {
    scenario: Scenario,
    spec: SweepSpec,
    daemon: Daemon,
    totals: (u64, u64),
}

/// The artifact the daemon's store holds for one unit of the spec.
fn stored(daemon: &Daemon, unit: &SweepUnit) -> Option<Arc<Artifact>> {
    let machine = MachineConfig::mpc755();
    let key = artifact_key(
        unit.canonical(),
        &unit.entry,
        &PassConfig::for_level(OptLevel::Verified),
        &machine,
    );
    daemon.store.lookup(key, &machine)
}

fn setup(tracer: &mut Tracer, params: &Params, socket: PathBuf) -> Result<State, String> {
    let machine = MachineConfig::mpc755();
    let scenario = generate(tracer, Workload::ServedMix, params.tasks, None)?;
    let spec = normalize_spec(
        &scenario
            .to_sweep_spec()
            .level(OptLevel::Verified)
            .machine("mpc755", &machine),
        &machine,
    );
    let daemon = Daemon::start(socket)?;
    let primed = daemon
        .connect()?
        .run_sweep(&spec)
        .map_err(|e| format!("priming request: {e}"))?;
    check_response(&primed, spec.units().len(), spec.units().len() as u64)?;
    let bounds: HashMap<&str, u64> = primed
        .cells
        .iter()
        .map(|c| (c.unit.as_str(), c.wcet))
        .collect();
    let report = tracer.time("scenario.check", || {
        scenario.check_bounds(&primed.configs, &primed.machines, |u, _, _| {
            bounds.get(u).copied()
        })
    });
    if !report.feasible() {
        return Err("primed scenario: infeasible schedule".into());
    }
    let mut code = 0;
    for unit in spec.units() {
        let artifact = stored(&daemon, unit).ok_or("primed artifact missing from the store")?;
        code += artifact.program.code.len() as u64 * 4;
    }
    let wcet = primed.cells.iter().map(|c| c.wcet).sum();
    Ok(State {
        scenario,
        spec,
        daemon,
        totals: (wcet, code),
    })
}

pub(crate) fn run(params: &Params) -> Result<Outcome, String> {
    let scratch = Scratch::new("served_mix")?;
    let mut tracer = Tracer::new(params.traced);
    let mut repetition = 0;
    let (state, setup_s) = setups(params, &mut tracer, |tracer| {
        repetition += 1;
        setup(
            tracer,
            params,
            scratch.path().join(format!("s{repetition}.sock")),
        )
    })?;

    let clients = nproc().min(2);
    let revisions = AtomicU32::new(0);
    let sent = AtomicU64::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(params.seconds);
    let runs: Vec<Result<ClientRun, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (daemon, spec) = (&state.daemon, &state.spec);
                let (revisions, sent) = (&revisions, &sent);
                let seed = mix(params.seed, 1000 + c as u64);
                s.spawn(move || {
                    client_loop(daemon, spec, seed, deadline, params.traced, revisions, sent)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let window = start.elapsed();

    let mut lp = Loop {
        window_s: window.as_secs_f64(),
        ..Loop::default()
    };
    let mut solo = Vec::new();
    let mut trace = RunTrace::new();
    for run in runs {
        let run = run?;
        lp.latencies_ms.extend(run.lp.latencies_ms);
        lp.attempted += run.lp.attempted;
        lp.failed += run.lp.failed;
        solo.extend(run.solo);
        trace.merge(run.trace);
    }

    // outside the measured window: solo reference runs of kept requests,
    // and interpreter/simulator checks of sampled primed cells
    let reference = Pipeline::new(
        &PipelineOptions::builder()
            .jobs(nproc())
            .build()
            .map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    for (request, digest) in &solo {
        match reference.run_sweep(request) {
            Ok(sweep) if sweep.digest() == *digest => {}
            Ok(_) => {
                eprintln!("benchmark: served response differs from a solo run");
                lp.failed += 1;
            }
            Err(e) => {
                eprintln!("benchmark: solo reference run failed: {e}");
                lp.failed += 1;
            }
        }
    }
    let units = state.spec.units();
    for i in sample_indices(units.len(), CHECKED_CELLS, mix(params.seed, 99)) {
        let checked = stored(&state.daemon, &units[i])
            .ok_or_else(|| "artifact missing from the store".to_owned())
            .and_then(|a| interp_matches_sim(&units[i].source, &a, mix(params.seed, i as u64)));
        if let Err(e) = checked {
            eprintln!("benchmark: {}: {e}", units[i].name);
            lp.failed += 1;
        }
    }

    let metrics = if params.traced {
        let mut admin = state.daemon.connect()?;
        let stats = admin.server_stats().map_err(|e| e.to_string())?;
        let registry = admin.server_metrics().map_err(|e| e.to_string())?;
        let batch_cells_p50 = json::parse(&registry)?
            .get("histograms")
            .and_then(|h| h.get("batch_cells"))
            .and_then(|h| h.get("p50"))
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0);
        let mut agg = SweepAgg::default();
        agg.absorb(&trace, 0, 0);
        agg.capacity_ns = u64::try_from(window.as_nanos()).unwrap_or(u64::MAX) * nproc() as u64;
        let verified = PassConfig::for_level(OptLevel::Verified);
        let replay_cells: Vec<ReplayCell<'_>> = state
            .scenario
            .units()
            .iter()
            .map(|u| ReplayCell {
                node: &u.node,
                passes: verified,
            })
            .collect();
        let observed = Observed {
            workload: "served_mix",
            seed: params.seed,
            agg: &agg,
            served: Some(Served {
                stats,
                batch_cells_p50,
            }),
            units,
        };
        traced_layers(&replay_cells, &mut tracer, &observed)?
    } else {
        e2e_metrics(&setup_s, &lp, state.totals.0, state.totals.1)
    };
    drop(state);
    Ok(Outcome {
        attempted: lp.attempted,
        failed: lp.failed,
        metrics,
    })
}
