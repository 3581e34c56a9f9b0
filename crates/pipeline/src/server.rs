//! The compile-as-a-service daemon: one warm, bounded, evicting
//! [`ArtifactStore`] serving many concurrent clients.
//!
//! **Architecture.** One acceptor thread takes connections on a Unix
//! socket and spawns a reader thread per connection. Readers frame and
//! parse [`proto`](crate::proto) documents; `stats`, `shutdown` and
//! `have` negotiation are answered inline, sweep requests are resolved
//! through the store's **parse cache** (digest → parsed AST + canonical
//! text — each distinct unit parses once per digest across requests,
//! batches and clients) and then queued for the **batcher** — the
//! [`Server::run`] thread — which drains the queue in admission-bounded,
//! round-robin-fair batches, merges compatible requests into single
//! [`SweepSpec`]s, runs them on the one shared [`Pipeline`], and mails
//! each request its response. A request whose units don't all resolve
//! (unknown digest, parse failure) is answered with `error` before
//! queueing — no partial batch is ever admitted.
//!
//! **Batching.** Requests whose config and machine axes are identical
//! (same labels, same values — the *axis signature*) merge into one
//! sweep: their unit axes concatenate, deduplicated by (source digest,
//! entry), so a cell requested by several clients at once compiles
//! exactly once. Each response is then assembled positionally from the
//! merged result using the request's own axis labels, which makes the
//! response digest **bit-identical to a solo `run_sweep`** of the same
//! request — the property the determinism gates assert across job
//! counts, restarts and eviction.
//!
//! **Fairness and admission.** The batcher cycles over clients in
//! arrival order (rotating the starting client each batch) and admits
//! one request per client per cycle until the in-flight cell budget
//! (4096 cells) is spent; at least one request is always
//! admitted so an oversized sweep cannot wedge the queue. Whatever
//! remains queued is counted as a deferral and leads the next batch.
//!
//! **Eviction.** The store's epoch advances once per batch and
//! [`ArtifactStore::enforce_bounds`] runs after it, so recency is
//! batch-granular and the evicted set is a pure function of the batch
//! history — concurrent arrival order inside a batch cannot change the
//! post-eviction store digest.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

use crate::metrics::Registry;
use crate::proto::{
    cells_digest, decode_request, encode_response, frame_text, machine_to_fields, passes_to_bits,
    read_frame, CellSummary, Request, Response, ServerStats, SweepResponse, WireSweep, PROTO_MINOR,
};
use crate::recorder::{FlightRecorder, DEFAULT_RECORDER_CAP};
use crate::service::{Pipeline, PipelineOptions};
use crate::stats::{saturating_nanos, PipelineStats};
use crate::store::{ArtifactStore, ParsedUnit, StoreConfig};
use crate::sweep::{SweepResult, SweepSpec, SweepUnit};
use crate::trace::Span;

/// Admission bound: the most sweep cells one batch admits (beyond the
/// first request, which is always admitted).
const MAX_INFLIGHT_CELLS: usize = 4096;

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Path of the Unix socket to listen on (a stale file is replaced).
    pub socket: PathBuf,
    /// Worker threads of the shared pipeline (`0` = machine parallelism).
    pub jobs: usize,
    /// `.vcart` persistence directory of the store (`None` = memory only).
    pub cache_dir: Option<PathBuf>,
    /// Store resident-byte bound (`None` = unbounded, no eviction).
    pub max_bytes: Option<u64>,
    /// Hit-rate SLO in thousandths (`900` = 0.900); `0` disables the line.
    pub slo_per_mille: u64,
    /// p99 per-request wall-latency SLO in nanoseconds; `0` disables it.
    pub slo_p99_ns: u64,
    /// Whether the flight recorder runs (`--no-recorder` disables it;
    /// the `recorder-dump` request is then refused with an error).
    pub recorder: bool,
    /// Persist the metrics registry JSON here at clean shutdown.
    pub metrics_json: Option<PathBuf>,
}

impl ServerOptions {
    /// Defaults: machine parallelism, memory-only store, unbounded
    /// artifacts, 0.900 SLO (no p99 SLO), flight recorder on. The parse
    /// cache is always [`StoreConfig::DEFAULT_PARSE_BYTES`] and the
    /// recorder ring [`DEFAULT_RECORDER_CAP`] events.
    #[must_use]
    pub fn new(socket: impl Into<PathBuf>) -> ServerOptions {
        ServerOptions {
            socket: socket.into(),
            jobs: 0,
            cache_dir: None,
            max_bytes: None,
            slo_per_mille: 900,
            slo_p99_ns: 0,
            recorder: true,
            metrics_json: None,
        }
    }
}

/// One queued sweep request: who sent it, what it asks for, where the
/// response goes.
struct Queued {
    client: u64,
    /// Server-assigned request id (1-based; recorder and span tags).
    request: u64,
    /// Client-supplied trace id (0 = untraced; traced requests get
    /// their server-side spans projected into the response).
    trace: u64,
    spec: SweepSpec,
    respond: mpsc::Sender<Response>,
}

#[derive(Default)]
struct QueueState {
    items: VecDeque<Queued>,
    /// Rotates the round-robin starting client.
    cursor: u64,
    /// Set by the batcher on its way out: late requests are refused
    /// instead of queued into nowhere.
    closed: bool,
}

/// State shared between the acceptor, the readers and the batcher.
struct Shared {
    queue: Mutex<QueueState>,
    ready: Condvar,
    shutdown: AtomicBool,
    /// Lifetime metrics registry, served by the `metrics` request and the
    /// only place server telemetry is collected: [`ServerStats`] is a
    /// view over its counters, gauges and histogram sums plus the store's
    /// own counts.
    registry: Registry,
    /// The flight recorder (`None` under `--no-recorder`).
    recorder: Option<FlightRecorder>,
    /// Server-assigned sweep request ids, 1-based.
    next_request: AtomicU64,
    store: Arc<ArtifactStore>,
    socket: PathBuf,
    slo_per_mille: u64,
    slo_p99_ns: u64,
}

impl Shared {
    /// Records a flight-recorder event; the detail closure only runs
    /// when the recorder is enabled, so `--no-recorder` pays no
    /// formatting cost on the hot path.
    fn record(
        &self,
        request: u64,
        trace: u64,
        kind: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        if let Some(recorder) = &self.recorder {
            recorder.record(request, trace, kind, detail());
        }
    }

    fn snapshot(&self) -> ServerStats {
        let reg = &self.registry;
        let sum = |name: &str| reg.histogram(name).map_or(0, |h| h.sum());
        ServerStats {
            requests: reg.counter("requests"),
            batches: reg.counter("batches"),
            batched_cells: reg.counter("batched_cells"),
            jobs_run: reg.counter("jobs_run"),
            jobs_cached: reg.counter("jobs_cached"),
            evictions: self.store.evictions(),
            resident: self.store.resident() as u64,
            store_bytes: self.store.len_bytes(),
            queue_depth: self.queue.lock().expect("queue lock").items.len() as u64,
            queue_peak: reg.gauge("queue_peak"),
            deferred: reg.gauge("deferred"),
            compile_ns: sum("batch_compile_ns"),
            analyze_ns: sum("batch_analyze_ns"),
            store_ns: sum("batch_store_ns"),
            wall_ns: sum("batch_wall_ns"),
            slo_per_mille: self.slo_per_mille,
            bytes_rx: sum("frame_rx_bytes"),
            bytes_tx: sum("frame_tx_bytes"),
            units_offered: reg.counter("units_offered"),
            units_uploaded: reg.counter("units_uploaded"),
            parse_hits: reg.counter("parse_hits"),
            parse_misses: reg.counter("parse_misses"),
            parse_evictions: self.store.parse_evictions(),
            parse_resident: self.store.parse_resident() as u64,
            parse_bytes: self.store.parse_len_bytes(),
            request_p50_ns: reg.quantile("request_wall_ns", 0.50).unwrap_or(0),
            request_p99_ns: reg.quantile("request_wall_ns", 0.99).unwrap_or(0),
            slo_p99_ns: self.slo_p99_ns,
            proto_minor: u64::from(PROTO_MINOR),
        }
    }

    /// Encodes a response and counts its bytes on the way out.
    fn encode(&self, response: &Response) -> String {
        let text = encode_response(response);
        self.registry.observe("frame_tx_bytes", text.len() as u64);
        text
    }
}

/// The compile service. [`Server::run`] blocks until a client sends
/// `shutdown`, then drains and returns the final [`ServerStats`].
pub struct Server {
    listener: UnixListener,
    pipeline: Pipeline,
    shared: Arc<Shared>,
    metrics_json: Option<PathBuf>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("socket", &self.shared.socket)
            .field("jobs", &self.pipeline.jobs())
            .field("store", &self.shared.store)
            .finish()
    }
}

impl Server {
    /// Binds the socket and builds the warm store + shared pipeline.
    ///
    /// # Errors
    ///
    /// Socket-bind or store-directory failures.
    pub fn new(options: &ServerOptions) -> io::Result<Server> {
        let store = Arc::new(ArtifactStore::with_config(StoreConfig {
            dir: options.cache_dir.clone(),
            max_bytes: options.max_bytes,
            ..StoreConfig::default()
        })?);
        let pipeline_options = PipelineOptions::builder()
            .jobs(options.jobs)
            .build()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let pipeline = Pipeline::with_store(&pipeline_options, Arc::clone(&store));
        // a stale socket file (crashed predecessor) would fail the bind
        let _ = std::fs::remove_file(&options.socket);
        let listener = UnixListener::bind(&options.socket)?;
        Ok(Server {
            listener,
            pipeline,
            shared: Arc::new(Shared {
                queue: Mutex::new(QueueState::default()),
                ready: Condvar::new(),
                shutdown: AtomicBool::new(false),
                registry: Registry::new(),
                recorder: options
                    .recorder
                    .then(|| FlightRecorder::new(DEFAULT_RECORDER_CAP)),
                next_request: AtomicU64::new(0),
                store,
                socket: options.socket.clone(),
                slo_per_mille: options.slo_per_mille,
                slo_p99_ns: options.slo_p99_ns,
            }),
            metrics_json: options.metrics_json.clone(),
        })
    }

    /// The store the server owns (tests inspect digests and eviction).
    #[must_use]
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.shared.store
    }

    /// Serves until shutdown, then drains the queue and returns the final
    /// stats. The socket file is removed on the way out.
    ///
    /// # Errors
    ///
    /// Thread-spawn failures; per-connection I/O errors only drop that
    /// connection.
    pub fn run(self) -> io::Result<ServerStats> {
        let shared = Arc::clone(&self.shared);
        let listener = self.listener.try_clone()?;
        let acceptor = thread::Builder::new()
            .name("vericomp-accept".into())
            .spawn(move || accept_loop(&listener, &shared))?;

        loop {
            let batch = {
                let mut q = self.shared.queue.lock().expect("queue lock");
                loop {
                    if !q.items.is_empty() {
                        break;
                    }
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        q.closed = true;
                        drop(q);
                        // wake the acceptor out of its blocking accept
                        let _ = UnixStream::connect(&self.shared.socket);
                        let _ = acceptor.join();
                        let _ = std::fs::remove_file(&self.shared.socket);
                        self.shared.record(0, 0, "shutdown", || {
                            format!("requests={}", self.shared.registry.counter("requests"))
                        });
                        if let Some(path) = &self.metrics_json {
                            let _ = std::fs::write(path, self.shared.registry.to_json());
                        }
                        return Ok(self.shared.snapshot());
                    }
                    q = self.shared.ready.wait(q).expect("queue lock");
                }
                self.select_batch(&mut q)
            };
            self.execute_batch(batch);
        }
    }

    /// Round-robin admission: one request per client per cycle, clients
    /// in arrival order rotated by the batch cursor, until the in-flight
    /// cell budget is spent. Always admits at least one request.
    fn select_batch(&self, q: &mut QueueState) -> Vec<Queued> {
        let mut clients: Vec<u64> = Vec::new();
        for item in &q.items {
            if !clients.contains(&item.client) {
                clients.push(item.client);
            }
        }
        let rot = (q.cursor as usize) % clients.len();
        clients.rotate_left(rot);
        q.cursor = q.cursor.wrapping_add(1);

        let mut selected = Vec::new();
        let mut budget = MAX_INFLIGHT_CELLS;
        'cycles: loop {
            let mut advanced = false;
            for &client in &clients {
                let Some(pos) = q.items.iter().position(|it| it.client == client) else {
                    continue;
                };
                let cells = q.items[pos].spec.cell_count();
                if !selected.is_empty() && cells > budget {
                    break 'cycles;
                }
                let item = q.items.remove(pos).expect("present");
                budget = budget.saturating_sub(cells);
                selected.push(item);
                advanced = true;
                if budget == 0 {
                    break 'cycles;
                }
            }
            if !advanced {
                break;
            }
        }
        if !q.items.is_empty() {
            // only the batcher selects, so this read-modify-write is
            // never raced
            let reg = &self.shared.registry;
            reg.set_gauge("deferred", reg.gauge("deferred") + 1);
        }
        selected
    }

    /// Runs one admitted batch: group by axis signature, merge unit axes
    /// (dedup by source + entry), one `run_sweep` per group, responses
    /// assembled per request. The store epoch advances first and bounds
    /// are enforced after — the daemon's two batch-boundary hooks.
    fn execute_batch(&self, batch: Vec<Queued>) {
        let reg = &self.shared.registry;
        self.shared.store.advance_epoch();
        reg.incr("batches", 1);
        reg.incr("requests", batch.len() as u64);
        for item in &batch {
            self.shared
                .record(item.request, item.trace, "batch-join", || {
                    format!("client={} cells={}", item.client, item.spec.cell_count())
                });
        }

        // group requests by axis signature, preserving arrival order
        let mut groups: Vec<(String, Vec<Queued>)> = Vec::new();
        for item in batch {
            let sig = axis_signature(&item.spec);
            match groups.iter_mut().find(|(s, _)| *s == sig) {
                Some((_, members)) => members.push(item),
                None => groups.push((sig, vec![item])),
            }
        }

        for (_, members) in groups {
            let started = Instant::now();
            // merged unit axis, deduplicated by (source digest, entry) —
            // the digest is memoized on the unit, so dedup costs no
            // pretty-printing
            let mut merged = SweepSpec::new();
            let mut index: HashMap<(u128, String), usize> = HashMap::new();
            let mut maps: Vec<Vec<usize>> = Vec::with_capacity(members.len());
            let mut count = 0usize;
            for item in &members {
                let mut map = Vec::with_capacity(item.spec.units().len());
                for unit in item.spec.units() {
                    let key = (unit.source_digest().0, unit.entry.clone());
                    let slot = *index.entry(key).or_insert_with(|| {
                        merged = std::mem::take(&mut merged).unit(unit.clone());
                        count += 1;
                        count - 1
                    });
                    map.push(slot);
                }
                maps.push(map);
            }
            // all members share the signature; copy the axes from the first
            for (label, passes) in members[0].spec.configs() {
                merged = merged.config(label, passes);
            }
            for (label, machine) in members[0].spec.machines() {
                merged = merged.machine(label, machine);
            }
            reg.incr("batched_cells", merged.cell_count() as u64);
            reg.observe("batch_cells", merged.cell_count() as u64);
            self.shared.record(0, 0, "sweep-start", || {
                format!("members={} cells={}", members.len(), merged.cell_count())
            });

            let responses: Vec<Response> = match self.pipeline.run_sweep(&merged) {
                Ok(sweep) => {
                    reg.incr("jobs_run", sweep.stats.jobs_run);
                    reg.incr("jobs_cached", sweep.stats.jobs_cached);
                    reg.observe("batch_compile_ns", sweep.stats.compile_ns);
                    reg.observe("batch_analyze_ns", sweep.stats.analyze_ns);
                    reg.observe("batch_store_ns", sweep.stats.store_ns);
                    self.shared.record(0, 0, "sweep-end", || {
                        format!(
                            "run={} cached={}",
                            sweep.stats.jobs_run, sweep.stats.jobs_cached
                        )
                    });
                    members
                        .iter()
                        .zip(&maps)
                        .map(|(item, map)| {
                            let mut response = project_response(&item.spec, map, &sweep);
                            if item.trace != 0 {
                                response.spans = project_spans(
                                    &item.spec,
                                    map,
                                    &sweep,
                                    item.trace,
                                    item.request,
                                );
                            }
                            Response::Sweep(response)
                        })
                        .collect()
                }
                Err(e) => {
                    reg.incr("errors", members.len() as u64);
                    members
                        .iter()
                        .map(|item| {
                            self.shared
                                .record(item.request, item.trace, "error", || e.to_string());
                            Response::Error(e.to_string())
                        })
                        .collect()
                }
            };
            // observed before any response is mailed: a client's next
            // request must see this batch fully counted, or the registry
            // digest would depend on thread timing
            reg.observe("batch_wall_ns", saturating_nanos(started.elapsed()));
            for (item, response) in members.iter().zip(responses) {
                let _ = item.respond.send(response);
            }
        }

        self.shared.store.enforce_bounds();
        self.bump_eviction_counters();
    }

    /// Mirrors the store's lifetime eviction counters into the registry
    /// (as deltas, so registry == store at every batch boundary) and
    /// records eviction events when a bound actually fired.
    fn bump_eviction_counters(&self) {
        let reg = &self.shared.registry;
        let store = &self.shared.store;
        let ev = store.evictions();
        let prev = reg.counter("evictions");
        if ev > prev {
            reg.incr("evictions", ev - prev);
            self.shared.record(0, 0, "store-evict", || {
                format!("evicted={} resident={}", ev - prev, store.resident())
            });
        }
        let pev = store.parse_evictions();
        let prev = reg.counter("parse_evictions");
        if pev > prev {
            reg.incr("parse_evictions", pev - prev);
            self.shared.record(0, 0, "parse-evict", || {
                format!("evicted={} resident={}", pev - prev, store.parse_resident())
            });
        }
    }
}

/// The batching key: two requests merge exactly when their config and
/// machine axes are identical (labels *and* values).
fn axis_signature(spec: &SweepSpec) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for (label, passes) in spec.configs() {
        let _ = write!(s, "c {label} {};", passes_to_bits(passes));
    }
    for (label, machine) in spec.machines() {
        let _ = write!(s, "m {label} {};", machine_to_fields(machine));
    }
    s
}

/// Assembles one request's response from the merged sweep result:
/// positional lookup through the unit map, the request's own labels, the
/// digest recomputed in the request's flattening order — bit-identical
/// to what a solo `run_sweep` of the request would digest.
fn project_response(spec: &SweepSpec, unit_map: &[usize], sweep: &SweepResult) -> SweepResponse {
    let mut cells = Vec::with_capacity(spec.cell_count());
    let mut stats = PipelineStats::default();
    for (ui, unit) in spec.units().iter().enumerate() {
        for ci in 0..spec.configs().len() {
            for mi in 0..spec.machines().len() {
                let cell = sweep
                    .cell_at(unit_map[ui], ci, mi)
                    .expect("merged sweep covers every request cell");
                // the merged axes carry the request's own config and
                // machine labels; only the unit may be another request's
                // name for the same source
                cells.push(CellSummary {
                    unit: unit.name.clone(),
                    ..CellSummary::from(cell)
                });
                stats.merge(&cell.stats);
            }
        }
    }
    let digest = cells_digest(&cells);
    SweepResponse {
        units: spec.units().iter().map(|u| u.name.clone()).collect(),
        configs: spec.configs().iter().map(|(l, _)| l.clone()).collect(),
        machines: spec.machines().iter().map(|(l, _)| l.clone()).collect(),
        cells,
        stats,
        spans: Vec::new(),
        digest,
    }
}

/// Projects the merged sweep's spans down to one traced request: only
/// spans of cells the request asked for survive, re-numbered to the
/// request's own flattening order and tagged `trace=<id> request=<id>`
/// in the detail — how the client's merged timeline attributes
/// server-side work to its own request. Timestamps stay on the server's
/// batch timeline; the client offsets them onto its epoch.
fn project_spans(
    spec: &SweepSpec,
    unit_map: &[usize],
    sweep: &SweepResult,
    trace: u64,
    request: u64,
) -> Vec<Span> {
    let nc = spec.configs().len();
    let nm = spec.machines().len();
    // merged flat cell index → request-local flat cell index (first
    // occurrence wins if a request lists the same unit twice)
    let mut back: HashMap<u32, u32> = HashMap::new();
    for (ui, &mu) in unit_map.iter().enumerate() {
        for ci in 0..nc {
            for mi in 0..nm {
                #[allow(clippy::cast_possible_truncation)]
                back.entry((mu * nc * nm + ci * nm + mi) as u32)
                    .or_insert((ui * nc * nm + ci * nm + mi) as u32);
            }
        }
    }
    let tag = format!("trace={trace:016x} request={request}");
    sweep
        .trace()
        .spans()
        .iter()
        .filter_map(|s| {
            back.get(&s.job).map(|&local| {
                let mut out = s.clone();
                out.job = local;
                out.detail = if out.detail.is_empty() {
                    tag.clone()
                } else {
                    format!("{} {}", out.detail, tag)
                };
                out
            })
        })
        .collect()
}

fn accept_loop(listener: &UnixListener, shared: &Arc<Shared>) {
    let mut next_client = 0u64;
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let client = next_client;
        next_client += 1;
        let shared = Arc::clone(shared);
        let _ = thread::Builder::new()
            .name(format!("vericomp-client-{client}"))
            .spawn(move || connection_loop(stream, client, &shared));
    }
}

/// Resolves a wire sweep into a runnable [`SweepSpec`] through the parse
/// cache: a known digest replays its cached AST + canonical text without
/// touching the body, a fresh digest parses its (digest-verified)
/// uploaded body exactly once and caches it, and a fresh digest without
/// a body is an error the client answers by re-uploading — nothing
/// reaches the batch queue unless *every* unit resolved, so a failed
/// request never admits a partial batch. Each unit reuses the verified
/// digest, so resolving renders and hashes nothing.
fn resolve_sweep(wire: &WireSweep, shared: &Shared) -> Result<SweepSpec, String> {
    let mut spec = SweepSpec::new();
    for unit in &wire.units {
        if unit.body.is_some() {
            shared.registry.incr("units_uploaded", 1);
        }
        let resolved = match shared.store.parse_lookup(unit.digest) {
            Some(parsed) => {
                shared.registry.incr("parse_hits", 1);
                parsed
            }
            None => match &unit.body {
                Some(body) => {
                    shared.registry.incr("parse_misses", 1);
                    let ast = vericomp_minic::parse::parse(body)
                        .map_err(|e| format!("unit `{}` failed to parse: {e}", unit.name))?;
                    let parsed = ParsedUnit {
                        canonical: Arc::clone(body),
                        ast: Arc::new(ast),
                    };
                    shared.store.parse_insert(unit.digest, parsed.clone());
                    parsed
                }
                None => {
                    return Err(format!(
                        "unknown unit digest {} for unit `{}` (re-upload required)",
                        unit.digest, unit.name
                    ))
                }
            },
        };
        spec = spec.unit(SweepUnit::from_parsed(
            &unit.name,
            Arc::clone(&resolved.ast),
            &unit.entry,
            Arc::clone(&resolved.canonical),
            unit.digest,
        ));
    }
    for (label, passes) in &wire.configs {
        spec = spec.config(label, passes);
    }
    for (label, machine) in &wire.machines {
        spec = spec.machine(label, machine);
    }
    Ok(spec)
}

fn connection_loop(stream: UnixStream, client: u64, shared: &Arc<Shared>) {
    let mut reader = BufReader::new(stream);
    shared.record(0, 0, "accept", || format!("client={client}"));
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => return,
        };
        shared
            .registry
            .observe("frame_rx_bytes", frame.len() as u64);
        let request = frame_text(&frame).and_then(decode_request);
        let response = match request {
            Err(e) => {
                shared.registry.incr("errors", 1);
                shared.record(0, 0, "error", || e.to_string());
                Response::Error(e.to_string())
            }
            Ok(Request::Stats) => Response::Stats(shared.snapshot()),
            Ok(Request::Metrics) => Response::Metrics(shared.registry.to_json()),
            Ok(Request::RecorderDump) => match &shared.recorder {
                Some(recorder) => Response::Recorder(recorder.dump_json()),
                None => Response::Error("flight recorder disabled (--no-recorder)".into()),
            },
            Ok(Request::Have(digests)) => {
                shared.registry.incr("units_offered", digests.len() as u64);
                // `parse_contains` stamps hits with the current epoch, so
                // a just-negotiated digest is maximally recent when its
                // sweep arrives
                Response::Need(
                    digests
                        .into_iter()
                        .filter(|d| !shared.store.parse_contains(*d))
                        .collect(),
                )
            }
            Ok(Request::Shutdown) => {
                // acknowledge before raising the flag: once the batcher
                // sees it the process may exit, taking an unwritten `ok`
                // with it
                let text = shared.encode(&Response::Ok);
                let _ = reader.get_mut().write_all(text.as_bytes());
                // raised under the queue lock, so the batcher either sees
                // the flag before it waits or is already waiting for the
                // notification
                let queue = shared.queue.lock().expect("queue lock");
                shared.shutdown.store(true, Ordering::SeqCst);
                drop(queue);
                shared.ready.notify_all();
                // unblock the acceptor so it can observe the flag
                let _ = UnixStream::connect(&shared.socket);
                return;
            }
            Ok(Request::Sweep(wire)) => {
                let started = Instant::now();
                let request = shared.next_request.fetch_add(1, Ordering::Relaxed) + 1;
                let trace = wire.trace;
                shared.record(request, trace, "request", || {
                    format!("client={client} units={}", wire.units.len())
                });
                let response = match resolve_sweep(&wire, shared) {
                    Err(msg) => {
                        shared.registry.incr("errors", 1);
                        shared.record(request, trace, "error", || msg.clone());
                        Response::Error(msg)
                    }
                    Ok(spec) => {
                        let (tx, rx) = mpsc::channel();
                        let queued = {
                            let mut q = shared.queue.lock().expect("queue lock");
                            if q.closed {
                                false
                            } else {
                                q.items.push_back(Queued {
                                    client,
                                    request,
                                    trace,
                                    spec,
                                    respond: tx,
                                });
                                let depth = q.items.len() as u64;
                                shared.registry.observe("queue_depth", depth);
                                shared.registry.raise_gauge("queue_peak", depth);
                                true
                            }
                        };
                        if queued {
                            shared.ready.notify_all();
                            match rx.recv() {
                                Ok(response) => response,
                                Err(_) => Response::Error("server dropped the request".into()),
                            }
                        } else {
                            Response::Error("server is shutting down".into())
                        }
                    }
                };
                shared
                    .registry
                    .observe("request_wall_ns", saturating_nanos(started.elapsed()));
                response
            }
        };
        let text = shared.encode(&response);
        if reader.get_mut().write_all(text.as_bytes()).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::proto::normalize_spec;
    use vericomp_arch::MachineConfig;
    use vericomp_core::OptLevel;
    use vericomp_dataflow::fleet;

    fn socket_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vericomp-{tag}-{}.sock", std::process::id()))
    }

    fn spec_of(nodes: std::ops::Range<usize>) -> SweepSpec {
        let suite = fleet::named_suite();
        let spec = SweepSpec::new()
            .nodes(&suite[nodes])
            .levels([OptLevel::Verified, OptLevel::OptFull]);
        normalize_spec(&spec, &MachineConfig::mpc755())
    }

    #[test]
    fn daemon_serves_solo_identical_sweeps_and_shuts_down_cleanly() {
        let socket = socket_path("server-basic");
        let server = Server::new(&ServerOptions::new(&socket)).expect("binds");
        let handle = thread::spawn(move || server.run().expect("serves"));

        let spec = spec_of(0..3);
        let solo = Pipeline::in_memory().run_sweep(&spec).expect("solo");

        let mut client = Client::connect(&socket).expect("connects");
        let served = client.run_sweep(&spec).expect("served");
        assert!(served.verify());
        assert_eq!(served.digest, solo.digest(), "daemon digest ≠ solo digest");
        // a second submission replays entirely from the warm store
        let warm = client.run_sweep(&spec).expect("warm");
        assert_eq!(warm.digest, solo.digest());
        assert!(warm.cells.iter().all(|c| c.cached));
        let stats = client.server_stats().expect("stats");
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.jobs_cached, spec.cell_count() as u64);
        assert!(stats.hit_rate() > 0.0);

        client.shutdown().expect("acknowledged");
        let final_stats = handle.join().expect("run returns");
        assert_eq!(final_stats.requests, 2);
        assert!(!socket.exists(), "socket file must be removed on shutdown");
    }

    /// Reads one response frame off a raw test stream as text.
    fn read_text(reader: &mut BufReader<UnixStream>) -> Option<String> {
        let frame = read_frame(reader).expect("reads")?;
        Some(String::from_utf8(frame).expect("utf-8 frame"))
    }

    #[test]
    fn malformed_frames_get_error_responses_and_the_connection_survives() {
        let socket = socket_path("server-err");
        let server = Server::new(&ServerOptions::new(&socket)).expect("binds");
        let handle = thread::spawn(move || server.run().expect("serves"));

        // hand-rolled garbage frame on a raw stream
        let mut stream = UnixStream::connect(&socket).expect("connects");
        stream
            .write_all(b"vericomp-request 2\nnonsense\nend\n")
            .expect("writes");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let doc = read_text(&mut reader).expect("frame");
        assert!(doc.contains("error "), "garbage must yield an error frame");
        // the same connection still serves a real request afterwards
        let spec = spec_of(0..1);
        let wire = WireSweep::from_spec(&spec, |_| true);
        let text = crate::proto::encode_request(&Request::Sweep(wire)).expect("encodes");
        stream.write_all(text.as_bytes()).expect("writes");
        let doc = read_text(&mut reader).expect("frame");
        let Response::Sweep(served) = crate::proto::decode_response(&doc).expect("decodes") else {
            panic!("expected sweep response");
        };
        assert_eq!(
            served.digest,
            Pipeline::in_memory()
                .run_sweep(&spec)
                .expect("solo")
                .digest()
        );

        let mut client = Client::connect(&socket).expect("connects");
        client.shutdown().expect("acknowledged");
        handle.join().expect("run returns");
    }

    #[test]
    fn version_mismatch_is_refused_cleanly_with_no_partial_batch() {
        let socket = socket_path("server-version");
        let server = Server::new(&ServerOptions::new(&socket)).expect("binds");
        let handle = thread::spawn(move || server.run().expect("serves"));

        // a v1 peer's hello: old header, old sweep body shape
        let mut stream = UnixStream::connect(&socket).expect("connects");
        stream
            .write_all(b"vericomp-request 1\nsweep\nconfig verified 1111111011\nend\n")
            .expect("writes");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let doc = read_text(&mut reader).expect("frame");
        assert!(
            doc.contains("error ")
                && doc.contains("version 1")
                && doc.contains("vericomp-request 2"),
            "v1 hello must get a clean versioned error: {doc}"
        );
        // the connection survived: a v2 request on the same stream works
        let spec = spec_of(0..1);
        let wire = WireSweep::from_spec(&spec, |_| true);
        let text = crate::proto::encode_request(&Request::Sweep(wire)).expect("encodes");
        stream.write_all(text.as_bytes()).expect("writes");
        let doc = read_text(&mut reader).expect("frame");
        assert!(
            matches!(crate::proto::decode_response(&doc), Ok(Response::Sweep(_))),
            "connection must survive the version mismatch"
        );

        // the other direction: a v2 client decoding a v1 server's
        // response header gets the same clean versioned error
        let e = crate::proto::decode_response("vericomp-response 1\nok\nend\n")
            .expect_err("v1 response header");
        assert!(e.0.contains("version 1") && e.0.contains("vericomp-response 2"));

        let mut client = Client::connect(&socket).expect("connects");
        let stats = client.server_stats().expect("stats");
        // exactly the one good sweep was admitted — the refused v1 frame
        // queued nothing
        assert_eq!(stats.requests, 1);
        client.shutdown().expect("acknowledged");
        handle.join().expect("run returns");
    }

    #[test]
    fn negotiated_unit_refs_serve_identical_sweeps_with_zero_uploads() {
        let socket = socket_path("server-need");
        let server = Server::new(&ServerOptions::new(&socket)).expect("binds");
        let handle = thread::spawn(move || server.run().expect("serves"));

        let spec = spec_of(0..3);
        let solo = Pipeline::in_memory().run_sweep(&spec).expect("solo");

        // client A seeds the parse cache
        let mut a = Client::connect(&socket).expect("connects");
        assert_eq!(a.run_sweep(&spec).expect("served").digest, solo.digest());
        let after_a = a.server_stats().expect("stats");
        assert_eq!(after_a.units_uploaded, spec.units().len() as u64);

        // a *fresh* connection negotiates, gets an empty need set, and
        // ships zero bodies — yet its digest is still solo-identical
        let mut b = Client::connect(&socket).expect("connects");
        assert_eq!(b.run_sweep(&spec).expect("served").digest, solo.digest());
        let after_b = b.server_stats().expect("stats");
        assert_eq!(
            after_b.units_uploaded, after_a.units_uploaded,
            "warm client must upload zero unit bodies"
        );
        assert_eq!(
            after_b.units_offered,
            after_a.units_offered + spec.units().len() as u64,
            "fresh connection negotiates every digest once"
        );
        assert_eq!(
            after_b.parse_hits,
            after_a.parse_hits + spec.units().len() as u64
        );
        assert!(after_b.parse_hit_rate() > 0.0);
        assert!(after_b.bytes_rx > 0 && after_b.bytes_tx > 0);

        b.shutdown().expect("acknowledged");
        handle.join().expect("run returns");
    }

    /// The number after `"<key>": ` in a metrics JSON blob, searched from
    /// the start of `section` (e.g. the histogram's object).
    fn json_number(json: &str, section: &str, key: &str) -> u64 {
        let from = json.find(section).expect("section present");
        let tag = format!("\"{key}\": ");
        let at = from + json[from..].find(&tag).expect("key present") + tag.len();
        let digits: String = json[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().expect("number")
    }

    #[test]
    fn server_stats_are_a_view_over_the_metrics_registry() {
        let socket = socket_path("server-view");
        let server = Server::new(&ServerOptions::new(&socket)).expect("binds");
        let handle = thread::spawn(move || server.run().expect("serves"));

        let mut client = Client::connect(&socket).expect("connects");
        client.run_sweep(&spec_of(0..2)).expect("served");
        client.run_sweep(&spec_of(1..3)).expect("served");
        let json = client.server_metrics().expect("metrics");
        let stats = client.server_stats().expect("stats");

        let counters = "\"counters\": {";
        assert_eq!(stats.requests, json_number(&json, counters, "requests"));
        assert_eq!(stats.jobs_run, json_number(&json, counters, "jobs_run"));
        assert_eq!(
            stats.units_uploaded,
            json_number(&json, counters, "units_uploaded")
        );
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.units_uploaded, 3);
        // received bytes are the frame-size histogram's sum; the stats
        // request frame itself arrived after the metrics snapshot
        let rx = json_number(&json, "\"frame_rx_bytes\": {", "sum");
        let stats_frame = crate::proto::encode_request(&Request::Stats)
            .expect("encodes")
            .len() as u64;
        assert!(rx > 0);
        assert_eq!(stats.bytes_rx, rx + stats_frame);

        client.shutdown().expect("acknowledged");
        handle.join().expect("run returns");
    }

    #[test]
    fn concurrent_overlapping_clients_batch_and_stay_deterministic() {
        let socket = socket_path("server-overlap");
        let server = Server::new(&ServerOptions::new(&socket)).expect("binds");
        let handle = thread::spawn(move || server.run().expect("serves"));

        // overlapping unit ranges: cells 2..4 are shared between clients
        let spec_a = spec_of(0..4);
        let spec_b = spec_of(2..6);
        let solo_a = Pipeline::in_memory().run_sweep(&spec_a).expect("solo a");
        let solo_b = Pipeline::in_memory().run_sweep(&spec_b).expect("solo b");

        let sock_a = socket.clone();
        let sa = spec_a.clone();
        let ta = thread::spawn(move || {
            let mut c = Client::connect(&sock_a).expect("connects");
            c.run_sweep(&sa).expect("served")
        });
        let sock_b = socket.clone();
        let sb = spec_b.clone();
        let tb = thread::spawn(move || {
            let mut c = Client::connect(&sock_b).expect("connects");
            c.run_sweep(&sb).expect("served")
        });
        let served_a = ta.join().expect("client a");
        let served_b = tb.join().expect("client b");
        assert_eq!(served_a.digest, solo_a.digest());
        assert_eq!(served_b.digest, solo_b.digest());

        let mut client = Client::connect(&socket).expect("connects");
        let stats = client.server_stats().expect("stats");
        assert_eq!(stats.requests, 2);
        // shared cells compiled at most once per store lifetime: total
        // fresh compiles can't exceed the union of the two specs
        let union_cells = spec_of(0..6).cell_count() as u64;
        assert!(
            stats.jobs_run <= union_cells,
            "shared cells recompiled: {} fresh > {} union",
            stats.jobs_run,
            union_cells
        );
        client.shutdown().expect("acknowledged");
        handle.join().expect("run returns");
    }
}
