//! The compile-as-a-service daemon: one warm, bounded, evicting
//! [`ArtifactStore`] serving many concurrent clients.
//!
//! **Architecture.** [`Server::run`] accepts connections on a Unix
//! socket and spawns a thread per connection. Each connection thread
//! frames and parses [`proto`](crate::proto) documents and answers them
//! itself: `stats`, `metrics`, `recorder-dump` and `shutdown` inline; a
//! sweep request by resolving its units through the store's **parse
//! cache** (digest → parsed AST + canonical text — each distinct unit
//! parses once per digest across requests and clients) and then running
//! exactly the spec it sent as one [`Pipeline::run_sweep`] on the one
//! shared pipeline. A sweep naming a digest that is neither cached nor
//! uploaded is answered with `need` (those digests, distinct, in request
//! order), which parses, runs and counts nothing but its frames; one
//! whose body fails to parse is answered with `error`. Either way nothing
//! runs.
//!
//! **One sweep at a time.** One server-wide lock is held for the whole
//! of each sweep, so sweeps run one after another. A cell that two
//! clients ask for at once compiles once: the second sweep finds it in
//! the store. The response is [`SweepResponse::from_result`] of the
//! request's own sweep, so it is **bit-identical to a solo `run_sweep`**
//! of the same request — the property the determinism gates assert
//! across job counts, restarts and eviction — and neither it nor its
//! error can depend on another client's spec.
//!
//! **Eviction.** The store's epoch advances before each sweep and
//! [`ArtifactStore::enforce_bounds`] runs after it, both under the lock,
//! so recency is sweep-granular and the evicted set is a pure function
//! of the order in which sweeps ran.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use crate::hash::Digest;
use crate::metrics::Registry;
use crate::proto::{
    decode_request, encode_response, frame_text, read_frame, Request, Response, ServerStats,
    SweepResponse, WireSweep,
};
use crate::recorder::{FlightRecorder, DEFAULT_RECORDER_CAP};
use crate::service::{Pipeline, PipelineOptions};
use crate::stats::{saturating_nanos, PipelineStats};
use crate::store::{ArtifactStore, ParsedUnit, StoreConfig};
use crate::sweep::{SweepSpec, SweepUnit};

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
    /// Persist the metrics registry JSON here at clean shutdown.
    pub metrics_json: Option<PathBuf>,
}

impl ServerOptions {
    /// Defaults: machine parallelism, memory-only store, unbounded
    /// artifacts, no metrics file. The parse cache is always
    /// [`StoreConfig::DEFAULT_PARSE_BYTES`] and the flight-recorder ring
    /// [`DEFAULT_RECORDER_CAP`] events.
    #[must_use]
    pub fn new(socket: impl Into<PathBuf>) -> ServerOptions {
        ServerOptions {
            socket: socket.into(),
            jobs: 0,
            cache_dir: None,
            max_bytes: None,
            metrics_json: None,
        }
    }
}

/// State shared between the accept loop and the connection threads.
struct Shared {
    /// The sweep lock around the one shared pipeline, held for the whole
    /// of each sweep. `None` is the "closed" state: [`Server::run`] takes
    /// the pipeline on the way out, which waits for the running sweep to
    /// finish, refuses every later one and joins the pool's workers.
    pipeline: Mutex<Option<Pipeline>>,
    /// Raised by a `shutdown` request; stops the accept loop.
    shutdown: AtomicBool,
    /// Lifetime metrics registry, served by the `metrics` request and the
    /// only place server telemetry is collected: [`ServerStats`] is a
    /// view over its counters and histogram sums plus the store's
    /// resident counts.
    registry: Registry,
    /// The flight recorder, which also times its own calls.
    recorder: FlightRecorder,
    /// Server-assigned sweep request ids, 1-based.
    next_request: AtomicU64,
    store: Arc<ArtifactStore>,
    socket: PathBuf,
}

impl Shared {
    fn snapshot(&self) -> ServerStats {
        let reg = &self.registry;
        let sum = |name: &str| reg.histogram(name).map_or(0, |h| h.sum());
        ServerStats {
            requests: reg.counter("requests"),
            sweeps: PipelineStats {
                jobs_run: reg.counter("jobs_run"),
                jobs_cached: reg.counter("jobs_cached"),
                compile_ns: sum("batch_compile_ns"),
                analyze_ns: sum("batch_analyze_ns"),
                store_ns: sum("batch_store_ns"),
                wall_ns: sum("batch_wall_ns"),
            },
            evictions: reg.counter("evictions"),
            resident: self.store.resident() as u64,
            store_bytes: self.store.len_bytes(),
            bytes_rx: sum("frame_rx_bytes"),
            bytes_tx: sum("frame_tx_bytes"),
            units_uploaded: reg.counter("units_uploaded"),
            parse_hits: reg.counter("parse_hits"),
            parse_misses: reg.counter("parse_misses"),
            parse_evictions: reg.counter("parse_evictions"),
            parse_resident: self.store.parse_resident() as u64,
            parse_bytes: self.store.parse_len_bytes(),
            request_p50_ns: reg.quantile("request_wall_ns", 0.50).unwrap_or(0),
            request_p99_ns: reg.quantile("request_wall_ns", 0.99).unwrap_or(0),
        }
    }

    /// Encodes a response and counts its bytes on the way out.
    fn encode(&self, response: &Response) -> String {
        let text = encode_response(response);
        self.registry.observe("frame_tx_bytes", text.len() as u64);
        text
    }

    /// Runs one request's sweep under the sweep lock. The store epoch
    /// advances first and bounds are enforced after, so eviction is a
    /// pure function of the order in which sweeps ran. A traced request
    /// (`trace` ≠ 0) gets the sweep's spans, each detail tagged
    /// `trace=<id> request=<id>` — how the client's merged timeline
    /// attributes server-side work to its own request. Timestamps stay
    /// on the server's sweep timeline; the client offsets them onto its
    /// epoch.
    fn sweep(&self, spec: &SweepSpec, request: u64, trace: u64) -> Response {
        let guard = self.pipeline.lock().expect("sweep lock");
        let Some(pipeline) = guard.as_ref() else {
            return Response::Error("server is shutting down".into());
        };
        let started = Instant::now();
        let reg = &self.registry;
        self.store.advance_epoch();
        reg.incr("requests", 1);
        reg.observe("batch_cells", spec.cell_count() as u64);
        self.recorder.record(
            request,
            trace,
            "sweep-start",
            format_args!("cells={}", spec.cell_count()),
        );
        let response = match pipeline.run_sweep(spec) {
            Ok(sweep) => {
                reg.incr("jobs_run", sweep.stats.jobs_run);
                reg.incr("jobs_cached", sweep.stats.jobs_cached);
                reg.observe("batch_compile_ns", sweep.stats.compile_ns);
                reg.observe("batch_analyze_ns", sweep.stats.analyze_ns);
                reg.observe("batch_store_ns", sweep.stats.store_ns);
                self.recorder.record(
                    request,
                    trace,
                    "sweep-end",
                    format_args!(
                        "run={} cached={}",
                        sweep.stats.jobs_run, sweep.stats.jobs_cached
                    ),
                );
                let mut response = SweepResponse::from_result(&sweep);
                if trace != 0 {
                    let tag = format!("trace={trace:016x} request={request}");
                    response.spans = sweep.trace().spans().to_vec();
                    for span in &mut response.spans {
                        span.detail = if span.detail.is_empty() {
                            tag.clone()
                        } else {
                            format!("{} {tag}", span.detail)
                        };
                    }
                }
                Response::Sweep(response)
            }
            Err(e) => {
                reg.incr("errors", 1);
                self.recorder
                    .record(request, trace, "error", format_args!("{e}"));
                Response::Error(e.to_string())
            }
        };
        reg.observe("batch_wall_ns", saturating_nanos(started.elapsed()));
        // only a bound that fired is counted and recorded, so a registry
        // that never evicted holds no eviction counters at all
        let (evicted, parse_evicted) = self.store.enforce_bounds();
        if evicted > 0 {
            reg.incr("evictions", evicted);
            self.recorder.record(
                0,
                0,
                "store-evict",
                format_args!("evicted={evicted} resident={}", self.store.resident()),
            );
        }
        if parse_evicted > 0 {
            reg.incr("parse_evictions", parse_evicted);
            self.recorder.record(
                0,
                0,
                "parse-evict",
                format_args!(
                    "evicted={parse_evicted} resident={}",
                    self.store.parse_resident()
                ),
            );
        }
        response
    }
}

/// The compile service. [`Server::run`] blocks until a client sends
/// `shutdown`, then finishes the running sweep and returns the final
/// [`ServerStats`].
pub struct Server {
    listener: UnixListener,
    shared: Arc<Shared>,
    metrics_json: Option<PathBuf>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("socket", &self.shared.socket)
            .field(
                "jobs",
                &self
                    .shared
                    .pipeline
                    .lock()
                    .expect("sweep lock")
                    .as_ref()
                    .map(Pipeline::jobs),
            )
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
            shared: Arc::new(Shared {
                pipeline: Mutex::new(Some(pipeline)),
                shutdown: AtomicBool::new(false),
                registry: Registry::new(),
                recorder: FlightRecorder::new(DEFAULT_RECORDER_CAP),
                next_request: AtomicU64::new(0),
                store,
                socket: options.socket.clone(),
            }),
            metrics_json: options.metrics_json.clone(),
        })
    }

    /// The store the server owns (tests inspect digests and eviction).
    #[must_use]
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.shared.store
    }

    /// Accepts connections until a client sends `shutdown`, then waits
    /// for the running sweep, refuses later ones and returns the final
    /// stats. The socket file is removed on the way out.
    ///
    /// # Errors
    ///
    /// None today: a failed accept or thread spawn only drops that
    /// connection.
    pub fn run(self) -> io::Result<ServerStats> {
        let mut next_client = 0u64;
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let client = next_client;
            next_client += 1;
            let shared = Arc::clone(&self.shared);
            // detached: an idle client's thread blocks in its read until
            // the client hangs up, which must not hold up shutdown
            let _ = thread::Builder::new()
                .name(format!("vericomp-client-{client}"))
                .spawn(move || connection_loop(stream, client, &shared));
        }
        // waits for the running sweep, refuses every later one and joins
        // the pool's workers
        let pipeline = self.shared.pipeline.lock().expect("sweep lock").take();
        drop(pipeline);
        let _ = std::fs::remove_file(&self.shared.socket);
        self.shared.recorder.record(
            0,
            0,
            "shutdown",
            format_args!("requests={}", self.shared.registry.counter("requests")),
        );
        if let Some(path) = &self.metrics_json {
            let _ = std::fs::write(path, self.shared.registry.to_json());
        }
        Ok(self.shared.snapshot())
    }
}

/// Where one unit of a wire sweep comes from.
enum Source {
    /// Its parse-cache entry.
    Cached(ParsedUnit),
    /// An uploaded body of its digest, to parse.
    Upload(Arc<String>),
}

/// Looks every unit of a wire sweep up in the parse cache. `Err` is the
/// `need` answer: the digests that are neither cached nor uploaded
/// anywhere in the request, distinct, in request order. Hits are stamped
/// with the current epoch either way, so a digest the client is about to
/// re-send with its missing bodies stays maximally recent.
fn lookup_units(wire: &WireSweep, store: &ArtifactStore) -> Result<Vec<Source>, Vec<Digest>> {
    let bodies: HashMap<Digest, &Arc<String>> = wire
        .units
        .iter()
        .filter_map(|u| u.body.as_ref().map(|body| (u.digest, body)))
        .collect();
    let mut need = Vec::new();
    let mut needed = HashSet::new();
    let mut sources = Vec::with_capacity(wire.units.len());
    for unit in &wire.units {
        if let Some(parsed) = store.parse_lookup(unit.digest) {
            sources.push(Source::Cached(parsed));
        } else if let Some(body) = bodies.get(&unit.digest) {
            sources.push(Source::Upload(Arc::clone(body)));
        } else if needed.insert(unit.digest) {
            need.push(unit.digest);
        }
    }
    if need.is_empty() {
        Ok(sources)
    } else {
        Err(need)
    }
}

/// Builds the runnable [`SweepSpec`] of a wire sweep whose units all
/// resolved: a cached unit replays its AST + canonical text without
/// touching a body, and each uploaded digest (verified against its body
/// at decode time) parses exactly once and enters the parse cache.
/// Each unit reuses the verified digest, so resolving renders and hashes
/// nothing.
fn build_spec(
    wire: &WireSweep,
    sources: Vec<Source>,
    shared: &Shared,
) -> Result<SweepSpec, String> {
    let reg = &shared.registry;
    let mut parsed_here: HashMap<Digest, ParsedUnit> = HashMap::new();
    let mut spec = SweepSpec::new();
    for (unit, source) in wire.units.iter().zip(sources) {
        if unit.body.is_some() {
            reg.incr("units_uploaded", 1);
        }
        let resolved = match source {
            Source::Cached(parsed) => {
                reg.incr("parse_hits", 1);
                parsed
            }
            Source::Upload(body) => match parsed_here.get(&unit.digest) {
                Some(parsed) => {
                    reg.incr("parse_hits", 1);
                    parsed.clone()
                }
                None => {
                    reg.incr("parse_misses", 1);
                    let ast = vericomp_minic::parse::parse(&body)
                        .map_err(|e| format!("unit `{}` failed to parse: {e}", unit.name))?;
                    let parsed = ParsedUnit {
                        canonical: body,
                        ast: Arc::new(ast),
                    };
                    shared.store.parse_insert(unit.digest, parsed.clone());
                    parsed_here.insert(unit.digest, parsed.clone());
                    parsed
                }
            },
        };
        spec = spec.unit(SweepUnit::from_parsed(
            &unit.name,
            resolved.ast,
            &unit.entry,
            resolved.canonical,
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

/// Answers one sweep request: `need` when its units do not all resolve,
/// which counts and records nothing; otherwise a request id, the parse
/// of its uploaded bodies and its sweep, each counted and recorded.
fn serve_sweep(wire: &WireSweep, client: u64, shared: &Shared) -> Response {
    let started = Instant::now();
    let sources = match lookup_units(wire, &shared.store) {
        Ok(sources) => sources,
        Err(need) => return Response::Need(need),
    };
    let request = shared.next_request.fetch_add(1, Ordering::Relaxed) + 1;
    let trace = wire.trace;
    shared.recorder.record(
        request,
        trace,
        "request",
        format_args!("client={client} units={}", wire.units.len()),
    );
    let response = match build_spec(wire, sources, shared) {
        Err(msg) => {
            shared.registry.incr("errors", 1);
            shared
                .recorder
                .record(request, trace, "error", format_args!("{msg}"));
            Response::Error(msg)
        }
        Ok(spec) => shared.sweep(&spec, request, trace),
    };
    shared
        .registry
        .observe("request_wall_ns", saturating_nanos(started.elapsed()));
    response
}

fn connection_loop(stream: UnixStream, client: u64, shared: &Arc<Shared>) {
    let mut reader = BufReader::new(stream);
    shared
        .recorder
        .record(0, 0, "accept", format_args!("client={client}"));
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
                shared.recorder.record(0, 0, "error", format_args!("{e}"));
                Response::Error(e.to_string())
            }
            Ok(Request::Stats) => Response::Stats(shared.snapshot()),
            Ok(Request::Metrics) => Response::Metrics(shared.registry.to_json()),
            Ok(Request::RecorderDump) => Response::Recorder(shared.recorder.dump_json()),
            Ok(Request::Shutdown) => {
                // acknowledge before raising the flag: once the accept
                // loop sees it the process may exit, taking an unwritten
                // `ok` with it
                let text = shared.encode(&Response::Ok);
                let _ = reader.get_mut().write_all(text.as_bytes());
                shared.shutdown.store(true, Ordering::SeqCst);
                // unblock the accept loop so it can observe the flag
                let _ = UnixStream::connect(&shared.socket);
                return;
            }
            Ok(Request::Sweep(wire)) => serve_sweep(&wire, client, shared),
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
    use crate::proto::{normalize_spec, PROTO_VERSION};
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
        assert_eq!(stats.sweeps.jobs_cached, spec.cell_count() as u64);
        assert!(stats.sweeps.hit_rate() > 0.0);

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
        let garbage = format!("vericomp-request {PROTO_VERSION}\nnonsense\nend\n");
        stream.write_all(garbage.as_bytes()).expect("writes");
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
    fn version_mismatch_is_refused_cleanly_and_runs_nothing() {
        let socket = socket_path("server-version");
        let server = Server::new(&ServerOptions::new(&socket)).expect("binds");
        let handle = thread::spawn(move || server.run().expect("serves"));

        // a v2 peer's opening `have` offer: old header, a request kind
        // this version no longer has
        let mut stream = UnixStream::connect(&socket).expect("connects");
        stream
            .write_all(
                b"vericomp-request 2\nhave 1\ndigest 0123456789abcdef0123456789abcdef\nend\n",
            )
            .expect("writes");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let doc = read_text(&mut reader).expect("frame");
        assert!(
            doc.contains("error ")
                && doc.contains("version 2")
                && doc.contains(&format!("vericomp-request {PROTO_VERSION}")),
            "a v2 hello must get a clean versioned error: {doc}"
        );
        // the connection survived: a current request on the same stream
        // works
        let spec = spec_of(0..1);
        let wire = WireSweep::from_spec(&spec, |_| true);
        let text = crate::proto::encode_request(&Request::Sweep(wire)).expect("encodes");
        stream.write_all(text.as_bytes()).expect("writes");
        let doc = read_text(&mut reader).expect("frame");
        assert!(
            matches!(crate::proto::decode_response(&doc), Ok(Response::Sweep(_))),
            "connection must survive the version mismatch"
        );

        // the other direction: a client decoding a v2 server's response
        // header gets the same clean versioned error
        let e = crate::proto::decode_response("vericomp-response 2\nok\nend\n")
            .expect_err("v2 response header");
        assert!(
            e.0.contains("version 2")
                && e.0.contains(&format!("vericomp-response {PROTO_VERSION}"))
        );

        let mut client = Client::connect(&socket).expect("connects");
        let stats = client.server_stats().expect("stats");
        // exactly the one good sweep ran — the refused v2 frame ran
        // nothing
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
        let frames_before = frames_received(&mut a);

        // a *fresh* connection's sweep is one frame of `unit-ref` lines
        // and ships zero bodies — yet its digest is still solo-identical
        let mut b = Client::connect(&socket).expect("connects");
        assert_eq!(b.run_sweep(&spec).expect("served").digest, solo.digest());
        assert_eq!(
            frames_received(&mut a) - frames_before,
            2,
            "a warm sweep from a fresh connection must cost one request frame \
             (plus the metrics request)"
        );
        let after_b = b.server_stats().expect("stats");
        assert_eq!(
            after_b.units_uploaded, after_a.units_uploaded,
            "warm client must upload zero unit bodies"
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

    /// Request frames the server has received, this `metrics` request's
    /// own frame included (the registry's `frame_rx_bytes` count).
    fn frames_received(client: &mut Client) -> u64 {
        let json = client.server_metrics().expect("metrics");
        json_number(&json, "\"frame_rx_bytes\": {", "count")
    }

    #[test]
    fn a_cold_sweep_costs_two_frames_and_its_need_answer_counts_nothing() {
        let socket = socket_path("server-cold");
        let server = Server::new(&ServerOptions::new(&socket)).expect("binds");
        let handle = thread::spawn(move || server.run().expect("serves"));

        let spec = spec_of(0..3);
        let units = spec.units().len() as u64;
        let mut client = Client::connect(&socket).expect("connects");
        let served = client.run_sweep(&spec).expect("served");
        assert_eq!(
            served.digest,
            Pipeline::in_memory()
                .run_sweep(&spec)
                .expect("solo")
                .digest()
        );
        // the `unit-ref` sweep, the sweep with the bodies, then this
        // metrics request
        let json = client.server_metrics().expect("metrics");
        assert_eq!(json_number(&json, "\"frame_rx_bytes\": {", "count"), 3);
        assert_eq!(json_number(&json, "\"counters\": {", "requests"), 1);
        assert!(
            !json.contains("\"errors\": "),
            "the `need` answer counted an error: {json}"
        );
        let stats = client.server_stats().expect("stats");
        assert_eq!(stats.requests, 1, "the `need` answer counted a request");
        assert_eq!(stats.parse_misses, units);
        assert_eq!(stats.units_uploaded, units);
        assert_eq!(stats.parse_hits, 0);
        // the flight recorder saw one request, not two
        let dump = client.recorder_dump().expect("recorder");
        assert_eq!(dump.matches("\"kind\": \"request\"").count(), 1, "{dump}");

        client.shutdown().expect("acknowledged");
        handle.join().expect("run returns");
    }

    #[test]
    fn need_names_each_missing_digest_once_in_request_order_and_parses_nothing() {
        let socket = socket_path("server-need-order");
        let server = Server::new(&ServerOptions::new(&socket)).expect("binds");
        let handle = thread::spawn(move || server.run().expect("serves"));

        // units 0 and 2 share a digest and come back uncached; unit 1's
        // body rides along, so it is not needed — but is not parsed either
        let suite = fleet::named_suite();
        let spec = normalize_spec(
            &SweepSpec::new()
                .nodes([&suite[4], &suite[3], &suite[4], &suite[2]])
                .level(OptLevel::Verified),
            &MachineConfig::mpc755(),
        );
        let digests: Vec<Digest> = spec.units().iter().map(SweepUnit::source_digest).collect();
        let wire = WireSweep::from_spec(&spec, |d| d == digests[1]);
        let text = crate::proto::encode_request(&Request::Sweep(wire)).expect("encodes");
        let mut stream = UnixStream::connect(&socket).expect("connects");
        stream.write_all(text.as_bytes()).expect("writes");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let doc = read_text(&mut reader).expect("frame");
        let Response::Need(need) = crate::proto::decode_response(&doc).expect("decodes") else {
            panic!("expected a need answer: {doc}");
        };
        assert_eq!(need, vec![digests[0], digests[3]]);

        let mut client = Client::connect(&socket).expect("connects");
        let stats = client.server_stats().expect("stats");
        assert_eq!(
            (stats.requests, stats.parse_misses, stats.units_uploaded),
            (0, 0, 0),
            "a `need` answer parsed, counted or ran something"
        );
        assert_eq!(stats.parse_resident, 0);
        client.shutdown().expect("acknowledged");
        handle.join().expect("run returns");
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
        assert_eq!(
            stats.sweeps.jobs_run,
            json_number(&json, counters, "jobs_run")
        );
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
    fn concurrent_overlapping_clients_compile_shared_cells_once_and_stay_deterministic() {
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
        // the sweeps run one at a time, so every cell of the union
        // compiles exactly once, and each response counts its own share
        let union_cells = spec_of(0..6).cell_count() as u64;
        assert_eq!(
            stats.sweeps.jobs_run, union_cells,
            "shared cells recompiled or skipped"
        );
        assert_eq!(
            served_a.stats.jobs_run + served_b.stats.jobs_run,
            stats.sweeps.jobs_run
        );
        // a shared cell is a store hit for whichever request ran second
        let shared: Vec<_> = served_a
            .cells
            .iter()
            .filter_map(|a| served_b.get(&a.unit, &a.config, &a.machine).map(|b| (a, b)))
            .collect();
        assert_eq!(shared.len(), spec_of(2..4).cell_count());
        for (a, b) in shared {
            assert!(
                a.cached != b.cached,
                "shared cell {}/{}/{} cached in both or neither response",
                a.unit,
                a.config,
                a.machine
            );
        }
        client.shutdown().expect("acknowledged");
        handle.join().expect("run returns");
    }

    #[test]
    fn one_clients_failing_unit_never_fails_another_clients_request() {
        let socket = socket_path("server-isolate");
        let server = Server::new(&ServerOptions::new(&socket)).expect("binds");
        let handle = thread::spawn(move || server.run().expect("serves"));

        // a cold 26-node × 3-level × 2-machine sweep holds the daemon
        // while the two requests below arrive
        let hold = SweepSpec::new()
            .nodes(&fleet::named_suite())
            .levels([OptLevel::PatternO0, OptLevel::Verified, OptLevel::OptFull])
            .machine("mpc755", &MachineConfig::mpc755())
            .machine("tiny", &MachineConfig::tiny_caches());
        let sock = socket.clone();
        let holder = thread::spawn(move || {
            Client::connect(&sock)
                .expect("connects")
                .run_sweep(&hold)
                .expect("served")
        });
        let mut admin = Client::connect(&socket).expect("connects");
        // the hold sweep has started once it is counted (a holder that
        // died early ends the wait too, and fails at its join below)
        while admin.server_stats().expect("stats").requests == 0 && !holder.is_finished() {
            thread::sleep(std::time::Duration::from_millis(5));
        }

        // same axes as the valid request, but its entry does not link
        let node = &fleet::named_suite()[5];
        let bad = normalize_spec(
            &SweepSpec::new()
                .unit(SweepUnit::from_source(
                    "bad_unit",
                    node.to_minic(),
                    "no_such_entry",
                ))
                .levels([OptLevel::Verified, OptLevel::OptFull]),
            &MachineConfig::mpc755(),
        );
        let good = spec_of(0..2);
        let solo = Pipeline::in_memory().run_sweep(&good).expect("solo");
        let (bad_result, good_result) = thread::scope(|s| {
            let b = s.spawn(|| Client::connect(&socket).expect("connects").run_sweep(&bad));
            let g = s.spawn(|| Client::connect(&socket).expect("connects").run_sweep(&good));
            (
                b.join().expect("bad client"),
                g.join().expect("good client"),
            )
        });
        let served = good_result.expect("the valid request is served");
        assert_eq!(served.digest, solo.digest());
        let err = bad_result.expect_err("the bad request fails").to_string();
        assert!(
            err.contains("bad_unit") && err.contains("link"),
            "error must be a link error naming the bad unit: {err}"
        );

        holder.join().expect("hold client");
        admin.shutdown().expect("acknowledged");
        handle.join().expect("run returns");
    }
}
