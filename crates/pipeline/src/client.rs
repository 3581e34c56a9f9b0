//! The compile-service client: a blocking request/response connection
//! over a Unix domain socket, with unit bodies uploaded on demand.
//!
//! One [`Client`] is one connection. Requests are serialized with
//! [`proto::encode_request`](crate::proto::encode_request), written
//! whole, and the response frame is read back with
//! [`proto::read_frame`](crate::proto::read_frame) — the same framing
//! the server's reader threads use, so either side can be tested against
//! the other with nothing but a socket pair.
//!
//! **Upload.** [`run_sweep`](Client::run_sweep) sends every unit as a
//! `unit-ref` line, so a sweep the server's parse cache covers is one
//! request frame carrying **zero bodies**, from any connection. The
//! server answers a sweep naming digests it does not hold with `need`;
//! the client re-sends with exactly the needed bodies. Should the server
//! have evicted more digests in between, a second `need` gets every body,
//! which the server never answers with `need`, so no sweep costs more
//! than three request frames and correctness never depends on the
//! server's cache state.
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
    SweepResponse, WireSweep,
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

    /// One sweep submission with a given upload set and trace id: the
    /// served sweep or the server's `need` answer.
    fn submit(
        &mut self,
        spec: &SweepSpec,
        trace: u64,
        upload: impl Fn(Digest) -> bool,
    ) -> Result<Response, ClientError> {
        let wire = WireSweep::from_spec(spec, upload).with_trace(trace);
        match self.roundtrip(&Request::Sweep(wire))? {
            response @ (Response::Sweep(_) | Response::Need(_)) => Ok(response),
            _ => Err(ClientError::Proto(ProtoError(
                "expected a sweep or need response".into(),
            ))),
        }
    }

    /// Submits a sweep and waits for the served result, uploading unit
    /// bodies only when the server answers `need` (see the module docs).
    /// The spec's axes must be explicit — run it through
    /// [`normalize_spec`](crate::proto::normalize_spec) first so defaults
    /// match a solo `run_sweep`.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure, malformed peer output
    /// (including a digest that does not match the cells, or a `need`
    /// answer to a sweep carrying every body), or a server-side
    /// rejection.
    pub fn run_sweep(&mut self, spec: &SweepSpec) -> Result<SweepResponse, ClientError> {
        self.run_sweep_traced(spec, 0)
    }

    /// Like [`run_sweep`](Client::run_sweep), additionally tagging the
    /// request with a nonzero trace id: the response then carries the
    /// server-side spans of exactly this request, each tagged
    /// `trace=<id>`, for merging onto the client's timeline.
    ///
    /// # Errors
    ///
    /// As [`run_sweep`](Client::run_sweep).
    pub fn run_sweep_traced(
        &mut self,
        spec: &SweepSpec,
        trace: u64,
    ) -> Result<SweepResponse, ClientError> {
        let mut response = self.submit(spec, trace, |_| false)?;
        if let Response::Need(need) = response {
            let need: HashSet<Digest> = need.into_iter().collect();
            response = self.submit(spec, trace, |d| need.contains(&d))?;
        }
        if let Response::Need(_) = response {
            response = self.submit(spec, trace, |_| true)?;
        }
        match response {
            Response::Sweep(sweep) => Ok(sweep),
            _ => Err(ClientError::Proto(ProtoError(
                "server answered `need` to a sweep carrying every body".into(),
            ))),
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

    /// Fetches the server's metrics registry as its JSON rendering (see
    /// [`Registry::to_json`](crate::metrics::Registry::to_json) for the
    /// schema).
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

    /// Fetches the server's flight-recorder ring as JSON: capacity, drop
    /// count, the recorder's own time (`record_ns`) and the resident
    /// events.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or malformed peer output.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_request, encode_response, normalize_spec};
    use crate::sweep::SweepUnit;
    use std::os::unix::net::UnixListener;
    use vericomp_arch::MachineConfig;
    use vericomp_core::OptLevel;
    use vericomp_dataflow::fleet;

    /// Which units of each sweep frame a peer received carry a body.
    fn bodies_of(frame: &[u8]) -> Vec<bool> {
        let text = std::str::from_utf8(frame).expect("utf-8 frame");
        let Ok(Request::Sweep(wire)) = decode_request(text) else {
            panic!("expected a sweep request: {text}");
        };
        wire.units.iter().map(|u| u.body.is_some()).collect()
    }

    #[test]
    fn need_answers_add_the_needed_bodies_then_every_body_then_fail() {
        let suite = fleet::named_suite();
        let spec = normalize_spec(
            &SweepSpec::new()
                .nodes(&suite[..3])
                .level(OptLevel::Verified),
            &MachineConfig::mpc755(),
        );
        let digests: Vec<Digest> = spec.units().iter().map(SweepUnit::source_digest).collect();
        let socket =
            std::env::temp_dir().join(format!("vericomp-client-need-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let listener = UnixListener::bind(&socket).expect("binds");

        // a scripted peer: it answers `need` to every sweep — first for
        // unit 1, then (as if it had evicted unit 0 meanwhile) for unit
        // 0 — and records every frame until the client hangs up; it
        // hangs up itself after a fourth, so a looping client fails
        // instead of hanging
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accepts");
            let mut reader = BufReader::new(stream);
            let mut frames = Vec::new();
            while let Some(frame) = read_frame(&mut reader).expect("reads") {
                let need = vec![digests[usize::from(frames.is_empty())]];
                frames.push(bodies_of(&frame));
                if frames.len() > 3 {
                    break;
                }
                let answer = encode_response(&Response::Need(need));
                reader
                    .get_mut()
                    .write_all(answer.as_bytes())
                    .expect("answers");
            }
            frames
        });

        let mut client = Client::connect(&socket).expect("connects");
        let err = client.run_sweep(&spec).expect_err("a third `need` fails");
        assert!(
            matches!(&err, ClientError::Proto(e) if e.0.contains("every body")),
            "{err}"
        );
        drop(client);
        let frames = peer.join().expect("peer");
        let _ = std::fs::remove_file(&socket);
        assert_eq!(
            frames,
            vec![
                vec![false, false, false],
                vec![false, true, false],
                vec![true, true, true],
            ],
            "no body, then exactly the needed one, then every body"
        );
    }
}
