//! The compile-service client: a blocking request/response connection
//! over a Unix domain socket, with digest-negotiated unit upload.
//!
//! One [`Client`] is one connection. Requests are serialized with
//! [`proto::encode_request`](crate::proto::encode_request), written
//! whole, and the response frame is read back with
//! [`proto::read_frame`](crate::proto::read_frame) — the same framing
//! the server's reader threads use, so either side can be tested against
//! the other with nothing but a socket pair.
//!
//! **Negotiation.** [`run_sweep`](Client::run_sweep) never uploads a
//! unit body the server already holds: digests the server has not yet
//! acknowledged on this connection go through a `have`/`need` exchange,
//! and only the `need`ed bodies travel. Digests acknowledged earlier on
//! the same connection skip the exchange entirely — a warm repeat
//! request is a single roundtrip carrying `unit-ref` lines and **zero
//! bodies**. If the server evicted a digest between negotiation and
//! execution (its `unknown unit digest` error), the client retries once
//! with every body attached — correctness never depends on the server's
//! cache state.
//!
//! The client re-verifies every sweep response's digest against its
//! cells ([`SweepResponse::verify`]); a server (or transport) that
//! corrupts a cell is detected at the edge, not downstream.

use std::collections::HashSet;
use std::fmt;
use std::io::{self, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

use crate::hash::Digest;
use crate::proto::{
    decode_response, encode_request, read_frame, ProtoError, Request, Response, ServerStats,
    SweepResponse, WireSweep, PROTO_MINOR, PROTO_VERSION,
};
use crate::sweep::SweepSpec;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, early EOF).
    Io(io::Error),
    /// The peer sent a malformed document.
    Proto(ProtoError),
    /// The server understood the request and rejected it.
    Server(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> ClientError {
        ClientError::Proto(e)
    }
}

/// One connection to a running `vericomp_serve` daemon.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<UnixStream>,
    /// Source digests the server has acknowledged holding (negotiated
    /// `have` answers and successfully served sweeps). Purely an upload
    /// optimization: a stale entry costs one retry, never correctness.
    acknowledged: HashSet<u128>,
}

impl Client {
    /// Connects to the daemon's socket.
    ///
    /// # Errors
    ///
    /// Propagates connection failures (no daemon, stale socket, …).
    pub fn connect(path: impl AsRef<Path>) -> io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        Ok(Client {
            reader: BufReader::new(stream),
            acknowledged: HashSet::new(),
        })
    }

    /// Reads one response frame as text.
    fn read_document(&mut self) -> Result<String, ClientError> {
        match read_frame(&mut self.reader)? {
            Some(frame) => String::from_utf8(frame)
                .map_err(|_| ClientError::Proto(ProtoError("frame is not valid UTF-8".into()))),
            None => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the response",
            ))),
        }
    }

    fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        let text = encode_request(request)?;
        let stream = self.reader.get_mut();
        stream.write_all(text.as_bytes())?;
        stream.flush()?;
        let doc = self.read_document()?;
        match decode_response(&doc)? {
            Response::Error(msg) => Err(ClientError::Server(msg)),
            other => Ok(other),
        }
    }

    /// One sweep submission with a given upload set and trace id.
    fn submit(
        &mut self,
        spec: &SweepSpec,
        trace: u64,
        upload: impl Fn(Digest) -> bool,
    ) -> Result<SweepResponse, ClientError> {
        let wire = WireSweep::from_spec(spec, upload).with_trace(trace);
        match self.roundtrip(&Request::Sweep(wire))? {
            Response::Sweep(sweep) => {
                // a served sweep implies every digest is now cached
                for unit in spec.units() {
                    self.acknowledged.insert(unit.source_digest().0);
                }
                Ok(sweep)
            }
            _ => Err(ClientError::Proto(ProtoError(
                "expected a sweep response".into(),
            ))),
        }
    }

    /// Submits a sweep and waits for the served result, negotiating unit
    /// upload by digest (see the module docs). The spec's axes must be
    /// explicit — run it through
    /// [`normalize_spec`](crate::proto::normalize_spec) first so defaults
    /// match a solo `run_sweep`.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure, malformed peer output
    /// (including a digest that does not match the cells), or a
    /// server-side rejection.
    pub fn run_sweep(&mut self, spec: &SweepSpec) -> Result<SweepResponse, ClientError> {
        self.run_sweep_traced(spec, 0)
    }

    /// Like [`run_sweep`](Client::run_sweep), additionally tagging the
    /// request with a nonzero trace id (proto 2.1): the response then
    /// carries the server-side spans of exactly this request, each
    /// tagged `trace=<id>`, for merging onto the client's timeline. A
    /// server without trace support (proto 2.0) is reported as a clear
    /// versioned error instead of its raw `unknown request tag`.
    ///
    /// # Errors
    ///
    /// As [`run_sweep`](Client::run_sweep), plus the versioned
    /// capability error described above.
    pub fn run_sweep_traced(
        &mut self,
        spec: &SweepSpec,
        trace: u64,
    ) -> Result<SweepResponse, ClientError> {
        let result = self.run_sweep_inner(spec, trace);
        if trace != 0 {
            if let Err(ClientError::Server(msg)) = &result {
                if msg.contains("unknown request tag `trace`") {
                    return Err(ClientError::Server(format!(
                        "server speaks protocol {PROTO_VERSION}.0 without trace support; \
                         tracing needs {PROTO_VERSION}.{PROTO_MINOR} — upgrade the daemon \
                         or retry without --trace"
                    )));
                }
            }
        }
        result
    }

    fn run_sweep_inner(
        &mut self,
        spec: &SweepSpec,
        trace: u64,
    ) -> Result<SweepResponse, ClientError> {
        // negotiate only the digests this connection has not yet seen
        // acknowledged; a fully-warm request skips the extra roundtrip
        let mut offer: Vec<Digest> = Vec::new();
        let mut offered: HashSet<u128> = HashSet::new();
        for unit in spec.units() {
            let d = unit.source_digest();
            if !self.acknowledged.contains(&d.0) && offered.insert(d.0) {
                offer.push(d);
            }
        }
        let need: HashSet<u128> = if offer.is_empty() {
            HashSet::new()
        } else {
            match self.roundtrip(&Request::Have(offer.clone()))? {
                Response::Need(need) => {
                    // digests offered but not needed are already cached
                    for d in &offer {
                        if !need.contains(d) {
                            self.acknowledged.insert(d.0);
                        }
                    }
                    need.into_iter().map(|d| d.0).collect()
                }
                _ => {
                    return Err(ClientError::Proto(ProtoError(
                        "expected a need response".into(),
                    )))
                }
            }
        };

        match self.submit(spec, trace, |d| need.contains(&d.0)) {
            // the server can evict a digest between our negotiation and
            // the sweep landing; one full re-upload always resolves it
            Err(ClientError::Server(msg)) if msg.contains("unknown unit digest") => {
                for unit in spec.units() {
                    self.acknowledged.remove(&unit.source_digest().0);
                }
                self.submit(spec, trace, |_| true)
            }
            other => other,
        }
    }

    /// Fetches a [`ServerStats`] snapshot.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or malformed peer output.
    pub fn server_stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            _ => Err(ClientError::Proto(ProtoError(
                "expected a stats response".into(),
            ))),
        }
    }

    /// Fetches the server's metrics registry as its JSON rendering
    /// (proto 2.1; see [`Registry::to_json`](crate::metrics::Registry::to_json)
    /// for the schema).
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or malformed peer output.
    pub fn server_metrics(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(&Request::Metrics)? {
            Response::Metrics(json) => Ok(json),
            _ => Err(ClientError::Proto(ProtoError(
                "expected a metrics response".into(),
            ))),
        }
    }

    /// Fetches the server's flight-recorder ring as JSON (proto 2.1).
    /// A `--no-recorder` daemon answers with a server error.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure, malformed peer output, or
    /// a disabled recorder.
    pub fn recorder_dump(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(&Request::RecorderDump)? {
            Response::Recorder(json) => Ok(json),
            _ => Err(ClientError::Proto(ProtoError(
                "expected a recorder response".into(),
            ))),
        }
    }

    /// Asks the daemon to stop: it acknowledges, finishes the running
    /// sweep, refuses later ones and exits.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or malformed peer output.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Proto(ProtoError(
                "expected an ok response".into(),
            ))),
        }
    }
}
