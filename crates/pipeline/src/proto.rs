//! Wire protocol of the compile service: the `.vcart` discipline on a
//! socket, with unit sources addressed by digest.
//!
//! Control frames are plain line-oriented text — the same format family
//! as the artifact store's `.vcart` files: a versioned header line, one
//! `tag operands…` line per field, an `end` terminator. Bulk payloads
//! (unit source bodies, the sweep-response cell table) travel as
//! **length-prefixed blobs** inside the frame, so the 10k-unit response
//! path is one `read_exact`, not ten thousand line scans. No serde, no
//! external deps, and every control line is printable, which keeps the
//! protocol greppable in transcripts and trivially testable.
//!
//! **Framing.** One message = the lines from its header through its `end`
//! line inclusive. A `blob <nbytes>` line is followed by exactly `nbytes`
//! raw bytes and a newline; [`read_frame`] consumes blobs by length, so
//! blob contents may contain anything — including a line reading `end` —
//! without confusing the framing. A closed connection mid-message is a
//! protocol error, never a partial result, and so is a frame longer than
//! [`MAX_FRAME_BYTES`], lines and blobs together.
//!
//! **One upload path.** Unit sources are identified by the digest of
//! their canonical (pretty-printed) text ([`source_digest`]). A client
//! sends every unit of a sweep as a `unit-ref` line. The server resolves
//! each digest through its bounded parse cache (digest → parsed AST +
//! canonical text, so each distinct unit is parsed once per digest
//! across requests and clients). When a digest is neither cached nor
//! uploaded in the request, the server answers `need` with those digests
//! (distinct, in request order) and parses and runs nothing. The client
//! then re-sends the sweep with exactly those bodies; should the server
//! have evicted more meanwhile, it re-sends once more with every body, to
//! which the server never answers `need`. A warm sweep is therefore one
//! request frame carrying **zero unit bodies** from any connection, and
//! a sweep with unknown digests is two.
//!
//! **Grammar** (one message per block):
//!
//! ```text
//! blob     := "blob" nbytes NL <nbytes raw bytes> NL
//!
//! request  := "vericomp-request 3" NL body "end" NL
//! body     := sweep | "stats" NL | "metrics" NL | "recorder-dump" NL
//!           | "shutdown" NL
//! sweep    := "sweep" NL trace? unit* config+ machine+
//! trace    := "trace" hex16 NL                ; nonzero client trace id
//! unit     := "unit-ref" entry hex32 name NL          ; body by digest
//!           | "unit" entry hex32 name NL blob         ; blob = canonical source
//! config   := "config" label bits10 NL        ; PassConfig, key-order bits
//! machine  := "machine" label u32{24} NL      ; machine_digest field order
//!
//! response := "vericomp-response 3" NL rbody "end" NL
//! rbody    := rsweep | need | rstats | "ok" NL | "error" message NL
//!           | "metrics" NL blob | "recorder" NL blob  ; JSON admin payloads
//! need     := "need" n NL ("digest" hex32 NL){n}      ; bodies to re-send
//! rsweep   := "sweep" NL blob                         ; blob = payload
//! payload  := "axes" nunits nconfigs nmachines NL label-lines cell* span* stats digest
//! cell     := "cell" unit config machine wcet cached vbits3 hex32 NL
//! span     := "span" cat job ts_ns dur_ns name detail? NL   ; traced requests
//! stats    := "stats" jobs_run jobs_cached compile_ns analyze_ns store_ns wall_ns NL
//! digest   := "digest" hex32 NL
//! ```
//!
//! Uploaded bodies are canonical pretty-printed MiniC and are verified
//! against their declared digest at decode time, then parsed once into
//! the server's parse cache; the parser/pretty round-trip is identity on
//! ASTs (gated by `tests/parser_roundtrip.rs`), so the server derives
//! **the same cache keys** a local run would — a client's cells hit the
//! daemon's warm store exactly when a solo run would hit its own. The
//! determinism gates assert that requests served by digest produce
//! responses bit-identical to solo `run_sweep` runs.
//!
//! Names and axis labels must be non-empty and whitespace-free — enforced
//! at encode *and* decode time, so a malformed peer cannot smuggle a
//! misframed document through.

use std::fmt;
use std::io::{self, BufRead, Read};
use std::sync::Arc;

use vericomp_arch::MachineConfig;
use vericomp_core::PassConfig;

use crate::hash::Digest;
use crate::stats::PipelineStats;
use crate::store::{source_digest, Verdict};
pub use crate::sweep::normalize_spec;
use crate::sweep::{sweep_digest, SweepCell, SweepResult, SweepSpec};
use crate::trace::{Span, SpanKind};

/// Protocol version. Bump on any grammar change — mismatched peers fail
/// loudly at the header instead of misparsing bodies.
pub const PROTO_VERSION: u32 = 3;

const REQUEST_WORD: &str = "vericomp-request";
const RESPONSE_WORD: &str = "vericomp-response";

/// Upper bound on one frame's bytes, control lines and blobs together. A
/// peer sending more — one endless line, or blobs whose total runs past
/// it — is refused at the framing layer before the excess is buffered.
pub const MAX_FRAME_BYTES: u64 = 1 << 30;

/// A malformed or out-of-protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ProtoError> {
    Err(ProtoError(msg.into()))
}

/// Checks a name/label operand: non-empty, no whitespace (they are
/// space-separated operands on the wire).
fn check_word(kind: &str, word: &str) -> Result<(), ProtoError> {
    if word.is_empty() {
        return err(format!("empty {kind}"));
    }
    if word.chars().any(char::is_whitespace) {
        return err(format!("{kind} `{word}` contains whitespace"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// framing
// ---------------------------------------------------------------------------

/// Reads one frame (header through its `end` line) off a buffered stream,
/// honoring `blob <nbytes>` length prefixes: blob contents are consumed
/// by exact length, never scanned for `end`. Returns `Ok(None)` on a
/// clean EOF at a frame boundary; EOF mid-frame (including mid-blob) is
/// an [`io::ErrorKind::UnexpectedEof`] error.
///
/// Both the client and the server's connection readers frame with this
/// one function, so either side can be tested against the other with
/// nothing but a socket pair.
///
/// # Errors
///
/// I/O errors from the stream; `InvalidData` for a frame longer than
/// [`MAX_FRAME_BYTES`].
pub fn read_frame<R: BufRead>(reader: &mut R) -> io::Result<Option<Vec<u8>>> {
    read_frame_within(reader, MAX_FRAME_BYTES)
}

/// [`read_frame`] with the frame cap as an argument, so tests can
/// exercise it without gigabytes.
fn read_frame_within<R: BufRead>(reader: &mut R, cap: u64) -> io::Result<Option<Vec<u8>>> {
    let over_cap = || {
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame exceeds the {cap} byte cap"),
        ))
    };
    let mut frame: Vec<u8> = Vec::new();
    loop {
        let start = frame.len();
        // a line may take what is left of the frame's budget, no more
        let budget = cap - start as u64;
        let n = reader.take(budget).read_until(b'\n', &mut frame)?;
        if n as u64 == budget && !frame[start..].ends_with(b"\n") {
            return over_cap();
        }
        if n == 0 {
            return if frame.is_empty() {
                Ok(None)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            };
        }
        let line = &frame[start..];
        let line = line.strip_suffix(b"\n").unwrap_or(line);
        if line == b"end" {
            return Ok(Some(frame));
        }
        if let Some(count) = line.strip_prefix(b"blob ") {
            // an unparseable count falls through to line scanning; the
            // decoder reports the malformation, framing stays safe
            let Some(nbytes) = std::str::from_utf8(count)
                .ok()
                .and_then(|w| w.parse::<u64>().ok())
            else {
                continue;
            };
            if nbytes > cap - frame.len() as u64 {
                return over_cap();
            }
            let before = frame.len();
            reader.take(nbytes).read_to_end(&mut frame)?;
            if (frame.len() - before) as u64 != nbytes {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-blob",
                ));
            }
        }
    }
}

/// Views a raw frame as text. Frames are UTF-8 by construction on the
/// encode side; a peer sending arbitrary bytes gets a protocol error,
/// never a panic.
///
/// # Errors
///
/// [`ProtoError`] when the frame is not valid UTF-8.
pub fn frame_text(frame: &[u8]) -> Result<&str, ProtoError> {
    std::str::from_utf8(frame).map_err(|_| ProtoError("frame is not valid UTF-8".into()))
}

/// A byte-offset cursor over a frame: line-at-a-time like the v1 decoder,
/// plus exact-length blob extraction that never confuses blob contents
/// with control lines.
struct Cursor<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str) -> Cursor<'a> {
        Cursor { s, pos: 0 }
    }

    /// The next line (without its newline), or `None` at end of frame.
    fn line(&mut self) -> Option<&'a str> {
        if self.pos >= self.s.len() {
            return None;
        }
        let rest = &self.s[self.pos..];
        match rest.find('\n') {
            Some(i) => {
                self.pos += i + 1;
                Some(&rest[..i])
            }
            None => {
                self.pos = self.s.len();
                Some(rest)
            }
        }
    }

    /// Exactly `nbytes` of blob content followed by its newline. Errors
    /// when the blob runs past the frame or splits a UTF-8 boundary (a
    /// hostile count can land mid-character; `str::get` refuses).
    fn blob(&mut self, nbytes: usize) -> Result<&'a str, ProtoError> {
        let end = self
            .pos
            .checked_add(nbytes)
            .ok_or_else(|| ProtoError("blob length overflows".into()))?;
        let content = self
            .s
            .get(self.pos..end)
            .ok_or_else(|| ProtoError("blob extends past the frame".into()))?;
        if self.s.as_bytes().get(end) != Some(&b'\n') {
            return err("blob not newline-terminated");
        }
        self.pos = end + 1;
        Ok(content)
    }
}

/// Parses a `blob <nbytes>` control line. The length needs no cap here:
/// [`Cursor::blob`] refuses a blob that runs past its frame.
fn blob_line(line: Option<&str>) -> Result<usize, ProtoError> {
    let line = line.ok_or_else(|| ProtoError("frame truncated before blob".into()))?;
    let count = line
        .strip_prefix("blob ")
        .ok_or_else(|| ProtoError(format!("expected a blob line, got `{line}`")))?;
    count
        .parse()
        .map_err(|_| ProtoError(format!("bad blob length `{count}`")))
}

/// Checks a `vericomp-request N` / `vericomp-response N` header line,
/// naming both versions on a mismatch so a skewed peer sees exactly what
/// to upgrade.
fn check_header(line: Option<&str>, word: &str) -> Result<(), ProtoError> {
    let Some(line) = line else {
        return err(format!("empty frame (expected `{word} {PROTO_VERSION}`)"));
    };
    let Some(rest) = line.strip_prefix(word) else {
        return err(format!(
            "bad header `{line}` (expected `{word} {PROTO_VERSION}`)"
        ));
    };
    let Some(version) = rest.strip_prefix(' ') else {
        return err(format!(
            "bad header `{line}` (expected `{word} {PROTO_VERSION}`)"
        ));
    };
    match version.parse::<u32>() {
        Ok(v) if v == PROTO_VERSION => Ok(()),
        Ok(v) => err(format!(
            "unsupported protocol version {v}: this peer speaks `{word} {PROTO_VERSION}`"
        )),
        Err(_) => err(format!("bad header `{line}`")),
    }
}

// ---------------------------------------------------------------------------
// field codecs
// ---------------------------------------------------------------------------

/// `PassConfig` as ten `0`/`1` characters in cache-key order.
#[must_use]
pub fn passes_to_bits(p: &PassConfig) -> String {
    p.flags()
        .iter()
        .map(|&b| if b { '1' } else { '0' })
        .collect()
}

/// Parses the ten-bit `PassConfig` encoding.
pub fn passes_from_bits(bits: &str) -> Result<PassConfig, ProtoError> {
    let b: Vec<bool> = bits
        .chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            _ => err(format!("bad pass bit `{c}`")),
        })
        .collect::<Result<_, _>>()?;
    let flags = b.try_into().map_err(|b: Vec<bool>| {
        ProtoError(format!(
            "expected {} pass bits, got {}",
            PassConfig::FLAG_COUNT,
            b.len()
        ))
    })?;
    Ok(PassConfig::from_flags(flags))
}

/// `MachineConfig` as 24 space-separated `u32`s in `machine_digest` order.
#[must_use]
pub fn machine_to_fields(m: &MachineConfig) -> String {
    m.fields()
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Parses the 24-field machine encoding.
pub fn machine_from_fields(text: &str) -> Result<MachineConfig, ProtoError> {
    let f: Vec<u32> = text
        .split(' ')
        .map(|w| {
            w.parse()
                .map_err(|_| ProtoError(format!("bad machine field `{w}`")))
        })
        .collect::<Result<_, _>>()?;
    let fields = f.try_into().map_err(|f: Vec<u32>| {
        ProtoError(format!(
            "expected {} machine fields, got {}",
            MachineConfig::FIELD_COUNT,
            f.len()
        ))
    })?;
    Ok(MachineConfig::from_fields(fields))
}

// ---------------------------------------------------------------------------
// requests
// ---------------------------------------------------------------------------

/// One unit of a wire sweep: identity (name, entry, canonical-source
/// digest) plus, when the server `need`ed it, the canonical body itself.
#[derive(Debug, Clone)]
pub struct WireUnit {
    /// Axis label of the unit.
    pub name: String,
    /// Entry-point function.
    pub entry: String,
    /// [`source_digest`] of the canonical pretty-printed source.
    pub digest: Digest,
    /// The canonical source body — `Some` exactly when uploaded.
    pub body: Option<Arc<String>>,
}

/// The wire form of a sweep request: units by digest (bodies attached
/// only where the server answered `need`), explicit config and machine
/// axes.
#[derive(Debug, Clone)]
pub struct WireSweep {
    /// Unit axis, in request order.
    pub units: Vec<WireUnit>,
    /// Config axis (label, passes).
    pub configs: Vec<(String, PassConfig)>,
    /// Machine axis (label, machine).
    pub machines: Vec<(String, MachineConfig)>,
    /// Client-chosen trace id (0 = untraced). A traced sweep's response
    /// carries the server-side spans of exactly this request, each
    /// tagged `trace=<id>` — how `compile_fleet --connect --trace`
    /// correlates the two processes' timelines.
    pub trace: u64,
}

impl WireSweep {
    /// Projects a (normalized) [`SweepSpec`] to its wire form, attaching
    /// a body to every unit `upload` selects — the client passes the
    /// server's `need` answer here.
    #[must_use]
    pub fn from_spec(spec: &SweepSpec, upload: impl Fn(Digest) -> bool) -> WireSweep {
        WireSweep {
            units: spec
                .units()
                .iter()
                .map(|u| {
                    let digest = u.source_digest();
                    WireUnit {
                        name: u.name.clone(),
                        entry: u.entry.clone(),
                        digest,
                        body: upload(digest).then(|| Arc::clone(u.canonical())),
                    }
                })
                .collect(),
            configs: spec.configs().to_vec(),
            machines: spec.machines().to_vec(),
            trace: 0,
        }
    }

    /// Tags the sweep with a trace id (builder-style).
    #[must_use]
    pub fn with_trace(mut self, trace: u64) -> WireSweep {
        self.trace = trace;
        self
    }
}

/// One client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Compile a sweep matrix. Axes must be explicit (use
    /// [`normalize_spec`] client-side so wire specs carry the same labels
    /// a solo `run_sweep` would default to).
    Sweep(WireSweep),
    /// Fetch a [`ServerStats`] snapshot.
    Stats,
    /// Fetch the server's metrics registry as JSON.
    Metrics,
    /// Fetch the server's flight-recorder ring as JSON.
    RecorderDump,
    /// Stop the server: it finishes the running sweep, refuses later
    /// ones and exits.
    Shutdown,
}

/// Serializes a request document.
///
/// # Errors
///
/// [`ProtoError`] when a sweep has empty config/machine axes (normalize
/// first) or a name/label is empty or contains whitespace.
pub fn encode_request(request: &Request) -> Result<String, ProtoError> {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{REQUEST_WORD} {PROTO_VERSION}");
    match request {
        Request::Stats => s.push_str("stats\n"),
        Request::Metrics => s.push_str("metrics\n"),
        Request::RecorderDump => s.push_str("recorder-dump\n"),
        Request::Shutdown => s.push_str("shutdown\n"),
        Request::Sweep(sweep) => {
            if sweep.configs.is_empty() || sweep.machines.is_empty() {
                return err("sweep request must have explicit config and machine axes");
            }
            s.push_str("sweep\n");
            if sweep.trace != 0 {
                let _ = writeln!(s, "trace {:016x}", sweep.trace);
            }
            for unit in &sweep.units {
                check_word("unit name", &unit.name)?;
                check_word("entry", &unit.entry)?;
                match &unit.body {
                    None => {
                        let _ =
                            writeln!(s, "unit-ref {} {} {}", unit.entry, unit.digest, unit.name);
                    }
                    Some(body) => {
                        let _ = writeln!(s, "unit {} {} {}", unit.entry, unit.digest, unit.name);
                        let _ = writeln!(s, "blob {}", body.len());
                        s.push_str(body);
                        s.push('\n');
                    }
                }
            }
            for (label, passes) in &sweep.configs {
                check_word("config label", label)?;
                let _ = writeln!(s, "config {} {}", label, passes_to_bits(passes));
            }
            for (label, machine) in &sweep.machines {
                check_word("machine label", label)?;
                let _ = writeln!(s, "machine {} {}", label, machine_to_fields(machine));
            }
        }
    }
    s.push_str("end\n");
    Ok(s)
}

/// Parses the `entry digest name` operands shared by `unit` and
/// `unit-ref` lines.
fn unit_operands(rest: &str) -> Result<(String, Digest, String), ProtoError> {
    let mut it = rest.splitn(3, ' ');
    let entry = it.next().unwrap_or("");
    let digest = it
        .next()
        .and_then(Digest::from_hex)
        .ok_or_else(|| ProtoError("bad unit digest".into()))?;
    let name = it.next().unwrap_or("");
    check_word("unit name", name)?;
    check_word("entry", entry)?;
    Ok((entry.to_owned(), digest, name.to_owned()))
}

/// Parses `n` `digest hex32` lines followed by `end`.
fn decode_digest_list(cursor: &mut Cursor<'_>, n: usize) -> Result<Vec<Digest>, ProtoError> {
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let line = cursor
            .line()
            .ok_or_else(|| ProtoError("digest list truncated".into()))?;
        let hex = line
            .strip_prefix("digest ")
            .ok_or_else(|| ProtoError(format!("bad digest line `{line}`")))?;
        out.push(Digest::from_hex(hex).ok_or_else(|| ProtoError(format!("bad digest `{hex}`")))?);
    }
    match cursor.line() {
        Some("end") => Ok(out),
        _ => err("digest list not terminated by `end`"),
    }
}

/// Parses a request document (header through `end`).
///
/// # Errors
///
/// [`ProtoError`] on any malformation — including an uploaded body whose
/// content does not hash to its declared digest (which would otherwise
/// poison the digest-addressed parse cache); the server maps every such
/// error to an `error` response, never a crash.
pub fn decode_request(text: &str) -> Result<Request, ProtoError> {
    let mut cursor = Cursor::new(text);
    check_header(cursor.line(), REQUEST_WORD)?;
    let first = match cursor.line() {
        Some(l) => l,
        None => return err("request lacks a body"),
    };
    let (tag, rest) = first.split_once(' ').unwrap_or((first, ""));
    let body = match (tag, rest) {
        ("stats", "") => Request::Stats,
        ("metrics", "") => Request::Metrics,
        ("recorder-dump", "") => Request::RecorderDump,
        ("shutdown", "") => Request::Shutdown,
        ("sweep", "") => {
            let mut units = Vec::new();
            let mut configs = Vec::new();
            let mut machines = Vec::new();
            let mut trace = 0u64;
            loop {
                let line = match cursor.line() {
                    Some(l) => l,
                    None => return err("request truncated before `end`"),
                };
                let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
                match tag {
                    "trace" => {
                        trace = u64::from_str_radix(rest, 16)
                            .map_err(|_| ProtoError(format!("bad trace id `{rest}`")))?;
                    }
                    "unit-ref" => {
                        let (entry, digest, name) = unit_operands(rest)?;
                        units.push(WireUnit {
                            name,
                            entry,
                            digest,
                            body: None,
                        });
                    }
                    "unit" => {
                        let (entry, digest, name) = unit_operands(rest)?;
                        let nbytes = blob_line(cursor.line())?;
                        let body = cursor.blob(nbytes)?;
                        if source_digest(body) != digest {
                            return err(format!(
                                "unit `{name}` body does not hash to its declared digest"
                            ));
                        }
                        units.push(WireUnit {
                            name,
                            entry,
                            digest,
                            body: Some(Arc::new(body.to_owned())),
                        });
                    }
                    "config" => {
                        let (label, bits) = rest
                            .split_once(' ')
                            .ok_or_else(|| ProtoError("bad config line".into()))?;
                        check_word("config label", label)?;
                        configs.push((label.to_owned(), passes_from_bits(bits)?));
                    }
                    "machine" => {
                        let (label, fields) = rest
                            .split_once(' ')
                            .ok_or_else(|| ProtoError("bad machine line".into()))?;
                        check_word("machine label", label)?;
                        machines.push((label.to_owned(), machine_from_fields(fields)?));
                    }
                    "end" => break,
                    _ => return err(format!("unknown request tag `{tag}`")),
                }
            }
            if configs.is_empty() || machines.is_empty() {
                return err("sweep request lacks config or machine axis");
            }
            return Ok(Request::Sweep(WireSweep {
                units,
                configs,
                machines,
                trace,
            }));
        }
        _ => return err(format!("unknown request kind `{first}`")),
    };
    match cursor.line() {
        Some("end") => Ok(body),
        _ => err("request not terminated by `end`"),
    }
}

// ---------------------------------------------------------------------------
// responses
// ---------------------------------------------------------------------------

/// One cell of a sweep response — the response-side projection of a
/// `SweepCell`: labels, the WCET bound, cache provenance, the validator
/// verdict, and the full output digest (everything the determinism gates
/// compare, without shipping the binary back).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSummary {
    /// Unit-axis label.
    pub unit: String,
    /// Config-axis label.
    pub config: String,
    /// Machine-axis label.
    pub machine: String,
    /// The cell's WCET bound, in cycles.
    pub wcet: u64,
    /// Whether the artifact was served from the warm store.
    pub cached: bool,
    /// The translation-validation verdict the artifact carries.
    pub verdict: Verdict,
    /// [`Artifact::output_digest`](crate::store::Artifact::output_digest).
    pub output_digest: Digest,
}

impl From<&SweepCell> for CellSummary {
    /// The one projection of an engine cell onto the wire.
    fn from(cell: &SweepCell) -> CellSummary {
        CellSummary {
            unit: cell.unit.clone(),
            config: cell.config.clone(),
            machine: cell.machine.clone(),
            wcet: cell.wcet(),
            cached: cell.outcome.cached,
            verdict: cell.outcome.artifact.verdict,
            output_digest: cell.outcome.artifact.output_digest(),
        }
    }
}

/// The digest of a cell sequence — the same function as
/// [`SweepResult::digest`], computed from the summaries instead of the
/// artifacts. Client and server both recompute it; the determinism gates
/// compare it against solo runs.
#[must_use]
pub fn cells_digest(cells: &[CellSummary]) -> Digest {
    sweep_digest(cells.iter().map(|c| {
        (
            c.unit.as_str(),
            c.config.as_str(),
            c.machine.as_str(),
            c.output_digest,
        )
    }))
}

/// A served sweep: axis labels, cells in flattening order, the request's
/// share of pipeline stats, and the digest.
#[derive(Debug, Clone)]
pub struct SweepResponse {
    /// Unit-axis labels, in request order.
    pub units: Vec<String>,
    /// Config-axis labels, in request order.
    pub configs: Vec<String>,
    /// Machine-axis labels, in request order.
    pub machines: Vec<String>,
    /// Cells in flattening order (unit-major, config, machine).
    pub cells: Vec<CellSummary>,
    /// This request's stats (cache hits count per-request, so a shared
    /// cell shows as a hit for every requester after the first).
    pub stats: PipelineStats,
    /// Server-side spans of this request (traced sweeps only): the
    /// stage/pass spans of the request's own sweep, each
    /// detail tagged with the trace and request ids, timestamps on the
    /// **server's** sweep timeline. Not part of [`cells_digest`] — spans
    /// are timing, the digest is work.
    pub spans: Vec<Span>,
    /// [`cells_digest`] as the server computed it. [`verify`](SweepResponse::verify)
    /// recomputes client-side.
    pub digest: Digest,
}

impl SweepResponse {
    /// Projects a complete solo [`SweepResult`] to its wire form — the
    /// reference the determinism gates compare daemon responses against.
    #[must_use]
    pub fn from_result(result: &SweepResult) -> SweepResponse {
        let cells: Vec<CellSummary> = result.cells().iter().map(CellSummary::from).collect();
        let digest = cells_digest(&cells);
        SweepResponse {
            units: result.unit_labels().to_vec(),
            configs: result.config_labels().to_vec(),
            machines: result.machine_labels().to_vec(),
            cells,
            stats: result.stats,
            spans: Vec::new(),
            digest,
        }
    }

    /// Recomputes the digest from the cells and checks it against the
    /// transmitted one.
    #[must_use]
    pub fn verify(&self) -> bool {
        cells_digest(&self.cells) == self.digest
    }

    /// The cell at labeled coordinates (first occurrence per axis).
    #[must_use]
    pub fn get(&self, unit: &str, config: &str, machine: &str) -> Option<&CellSummary> {
        self.cells
            .iter()
            .find(|c| c.unit == unit && c.config == config && c.machine == machine)
    }
}

impl fmt::Display for SweepResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sweep {} units × {} configs × {} machines = {} cells ({} run, {} cached)",
            self.units.len(),
            self.configs.len(),
            self.machines.len(),
            self.cells.len(),
            self.stats.jobs_run,
            self.stats.jobs_cached,
        )
    }
}

/// Server-side aggregate metrics, served to `stats` requests: a view over
/// the daemon's metrics registry plus the store's resident counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Sweep requests run (one `run_sweep` each; admin requests, `need`
    /// answers and refused sweeps not counted).
    pub requests: u64,
    /// The lifetime sum of every sweep's [`PipelineStats`]: cells run and
    /// cached, summed per-stage nanos and summed sweep wall clocks.
    pub sweeps: PipelineStats,
    /// Store entries evicted over the server's lifetime.
    pub evictions: u64,
    /// Store entries resident at snapshot time.
    pub resident: u64,
    /// Store resident bytes at snapshot time.
    pub store_bytes: u64,
    /// Request bytes received off the wire (all frames, all connections).
    pub bytes_rx: u64,
    /// Response bytes written to the wire.
    pub bytes_tx: u64,
    /// Unit bodies uploaded in sweep requests that got past `need`.
    pub units_uploaded: u64,
    /// Sweep units resolved from the parse cache without parsing.
    pub parse_hits: u64,
    /// Sweep units that had to be parsed (first sighting of a digest).
    pub parse_misses: u64,
    /// Parse-cache entries evicted over the server's lifetime.
    pub parse_evictions: u64,
    /// Parse-cache entries resident at snapshot time.
    pub parse_resident: u64,
    /// Parse-cache resident bytes (canonical text) at snapshot time.
    pub parse_bytes: u64,
    /// p50 per-request wall latency (ns) from the server's histogram.
    pub request_p50_ns: u64,
    /// p99 per-request wall latency (ns) from the server's histogram.
    pub request_p99_ns: u64,
}

/// One [`ServerStats`] field, as a place to read or write.
type StatsField = fn(&mut ServerStats) -> &mut u64;

/// Every [`ServerStats`] field with its wire name, in wire order: the
/// one list that the `server-stats` document reads and decoding writes.
const STATS_FIELDS: [(&str, StatsField); 20] = [
    ("requests", |s| &mut s.requests),
    ("jobs_run", |s| &mut s.sweeps.jobs_run),
    ("jobs_cached", |s| &mut s.sweeps.jobs_cached),
    ("evictions", |s| &mut s.evictions),
    ("resident", |s| &mut s.resident),
    ("store_bytes", |s| &mut s.store_bytes),
    ("compile_ns", |s| &mut s.sweeps.compile_ns),
    ("analyze_ns", |s| &mut s.sweeps.analyze_ns),
    ("store_ns", |s| &mut s.sweeps.store_ns),
    ("wall_ns", |s| &mut s.sweeps.wall_ns),
    ("bytes_rx", |s| &mut s.bytes_rx),
    ("bytes_tx", |s| &mut s.bytes_tx),
    ("units_uploaded", |s| &mut s.units_uploaded),
    ("parse_hits", |s| &mut s.parse_hits),
    ("parse_misses", |s| &mut s.parse_misses),
    ("parse_evictions", |s| &mut s.parse_evictions),
    ("parse_resident", |s| &mut s.parse_resident),
    ("parse_bytes", |s| &mut s.parse_bytes),
    ("request_p50_ns", |s| &mut s.request_p50_ns),
    ("request_p99_ns", |s| &mut s.request_p99_ns),
];

impl ServerStats {
    /// Lifetime parse-cache hit rate over resolved sweep units; `0.0`
    /// before any unit.
    #[must_use]
    pub fn parse_hit_rate(&self) -> f64 {
        let total = self.parse_hits + self.parse_misses;
        if total == 0 {
            0.0
        } else {
            self.parse_hits as f64 / total as f64
        }
    }

    /// Greppable text rendering, one `server:`-prefixed line per group.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "server: requests {}", self.requests);
        let _ = writeln!(
            s,
            "server: store resident {} bytes {} evictions {}",
            self.resident, self.store_bytes, self.evictions,
        );
        let _ = writeln!(
            s,
            "server: wire rx {} tx {} uploaded {}",
            self.bytes_rx, self.bytes_tx, self.units_uploaded,
        );
        let _ = writeln!(
            s,
            "server: parse-cache hits {} misses {} evictions {} resident {} bytes {} hit-rate {:.3}",
            self.parse_hits,
            self.parse_misses,
            self.parse_evictions,
            self.parse_resident,
            self.parse_bytes,
            self.parse_hit_rate(),
        );
        let sweeps = &self.sweeps;
        let _ = writeln!(
            s,
            "server: jobs run {} cached {} hit-rate {:.3}",
            sweeps.jobs_run,
            sweeps.jobs_cached,
            sweeps.hit_rate(),
        );
        let _ = writeln!(
            s,
            "server: stage compile {}ns analyze {}ns store {}ns wall {}ns",
            sweeps.compile_ns, sweeps.analyze_ns, sweeps.store_ns, sweeps.wall_ns,
        );
        let _ = writeln!(
            s,
            "server: latency request p50 {}ns p99 {}ns proto {PROTO_VERSION}",
            self.request_p50_ns, self.request_p99_ns,
        );
        s
    }

    fn fields(&self) -> [(&'static str, u64); STATS_FIELDS.len()] {
        let mut stats = self.clone();
        STATS_FIELDS.map(|(name, field)| (name, *field(&mut stats)))
    }

    fn set_field(&mut self, name: &str, value: u64) -> bool {
        match STATS_FIELDS.iter().find(|(n, _)| *n == name) {
            Some((_, field)) => {
                *field(self) = value;
                true
            }
            None => false,
        }
    }
}

/// One server response.
#[derive(Debug, Clone)]
pub enum Response {
    /// A served sweep.
    Sweep(SweepResponse),
    /// The answer to a sweep that names digests the server neither holds
    /// nor received (distinct, in request order): re-send the sweep with
    /// these bodies. Nothing was parsed or run.
    Need(Vec<Digest>),
    /// A stats snapshot.
    Stats(ServerStats),
    /// The metrics registry as one JSON object.
    Metrics(String),
    /// The flight-recorder ring as one JSON object.
    Recorder(String),
    /// Acknowledgement (shutdown).
    Ok,
    /// The request was understood as a frame but rejected (parse error,
    /// pipeline error). The connection stays usable.
    Error(String),
}

/// The line-oriented sweep payload carried inside the response blob.
fn encode_sweep_payload(sweep: &SweepResponse) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "axes {} {} {}",
        sweep.units.len(),
        sweep.configs.len(),
        sweep.machines.len()
    );
    for u in &sweep.units {
        let _ = writeln!(s, "axis-unit {u}");
    }
    for c in &sweep.configs {
        let _ = writeln!(s, "axis-config {c}");
    }
    for m in &sweep.machines {
        let _ = writeln!(s, "axis-machine {m}");
    }
    for cell in &sweep.cells {
        let _ = writeln!(
            s,
            "cell {} {} {} {} {} {}{}{} {}",
            cell.unit,
            cell.config,
            cell.machine,
            cell.wcet,
            u8::from(cell.cached),
            u8::from(cell.verdict.allocation_checked),
            u8::from(cell.verdict.tunnel_validated),
            u8::from(cell.verdict.schedule_validated),
            cell.output_digest,
        );
    }
    for span in &sweep.spans {
        let _ = write!(
            s,
            "span {} {} {} {} {}",
            span.kind.cat(),
            span.job,
            span.ts_ns,
            span.dur_ns,
            span.name,
        );
        if !span.detail.is_empty() {
            let _ = write!(s, " {}", span.detail.replace('\n', " "));
        }
        s.push('\n');
    }
    let st = &sweep.stats;
    let _ = writeln!(
        s,
        "stats {} {} {} {} {} {}",
        st.jobs_run, st.jobs_cached, st.compile_ns, st.analyze_ns, st.store_ns, st.wall_ns,
    );
    let _ = write!(s, "digest {}", sweep.digest);
    s
}

/// Serializes a response document.
#[must_use]
pub fn encode_response(response: &Response) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{RESPONSE_WORD} {PROTO_VERSION}");
    match response {
        Response::Ok => s.push_str("ok\n"),
        Response::Error(msg) => {
            let one_line = msg.replace('\n', " ");
            let _ = writeln!(s, "error {one_line}");
        }
        Response::Need(digests) => {
            let _ = writeln!(s, "need {}", digests.len());
            for d in digests {
                let _ = writeln!(s, "digest {d}");
            }
        }
        Response::Stats(stats) => {
            s.push_str("server-stats\n");
            for (name, value) in stats.fields() {
                let _ = writeln!(s, "{name} {value}");
            }
        }
        Response::Sweep(sweep) => {
            let payload = encode_sweep_payload(sweep);
            s.push_str("sweep\n");
            let _ = writeln!(s, "blob {}", payload.len());
            s.push_str(&payload);
            s.push('\n');
        }
        Response::Metrics(json) => {
            s.push_str("metrics\n");
            let _ = writeln!(s, "blob {}", json.len());
            s.push_str(json);
            s.push('\n');
        }
        Response::Recorder(json) => {
            s.push_str("recorder\n");
            let _ = writeln!(s, "blob {}", json.len());
            s.push_str(json);
            s.push('\n');
        }
    }
    s.push_str("end\n");
    s
}

/// Parses the sweep payload (the blob's contents).
fn decode_sweep_payload(payload: &str) -> Result<SweepResponse, ProtoError> {
    let mut lines = payload.lines();
    let first = lines
        .next()
        .ok_or_else(|| ProtoError("empty sweep payload".into()))?;
    let counts = first
        .strip_prefix("axes ")
        .ok_or_else(|| ProtoError(format!("bad axes line `{first}`")))?;
    let mut it = counts.split(' ');
    let mut count = || -> Result<usize, ProtoError> {
        it.next()
            .and_then(|w| w.parse().ok())
            .ok_or_else(|| ProtoError("bad sweep axis counts".into()))
    };
    let nu = count()?;
    let nc = count()?;
    let nm = count()?;
    let ncells = nu
        .checked_mul(nc)
        .and_then(|n| n.checked_mul(nm))
        .ok_or_else(|| ProtoError(format!("sweep axes {nu} × {nc} × {nm} overflow")))?;
    // the counts are untrusted: preallocate no more than a sane bound
    let mut axis = |kind: &str, n: usize| -> Result<Vec<String>, ProtoError> {
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let line = lines
                .next()
                .ok_or_else(|| ProtoError(format!("{kind} axis truncated")))?;
            let label = line
                .strip_prefix(&format!("axis-{kind} "))
                .ok_or_else(|| ProtoError(format!("bad {kind} axis line `{line}`")))?;
            check_word(&format!("{kind} label"), label)?;
            out.push(label.to_owned());
        }
        Ok(out)
    };
    let units = axis("unit", nu)?;
    let configs = axis("config", nc)?;
    let machines = axis("machine", nm)?;
    let mut cells = Vec::with_capacity(ncells.min(1 << 16));
    let mut spans = Vec::new();
    let mut stats = PipelineStats::default();
    let mut digest = None;
    for line in lines {
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        match tag {
            "cell" => {
                let w: Vec<&str> = rest.split(' ').collect();
                if w.len() != 7 {
                    return err(format!("bad cell line `{line}`"));
                }
                let vbits: Vec<char> = w[5].chars().collect();
                if vbits.len() != 3 || vbits.iter().any(|&c| c != '0' && c != '1') {
                    return err(format!("bad verdict bits `{}`", w[5]));
                }
                cells.push(CellSummary {
                    unit: w[0].to_owned(),
                    config: w[1].to_owned(),
                    machine: w[2].to_owned(),
                    wcet: w[3]
                        .parse()
                        .map_err(|_| ProtoError(format!("bad wcet `{}`", w[3])))?,
                    cached: w[4] == "1",
                    verdict: Verdict {
                        allocation_checked: vbits[0] == '1',
                        tunnel_validated: vbits[1] == '1',
                        schedule_validated: vbits[2] == '1',
                    },
                    output_digest: Digest::from_hex(w[6])
                        .ok_or_else(|| ProtoError(format!("bad digest `{}`", w[6])))?,
                });
            }
            "span" => {
                let w: Vec<&str> = rest.splitn(5, ' ').collect();
                if w.len() != 5 {
                    return err(format!("bad span line `{line}`"));
                }
                let kind = SpanKind::from_cat(w[0])
                    .ok_or_else(|| ProtoError(format!("bad span category `{}`", w[0])))?;
                let num = |v: &str| -> Result<u64, ProtoError> {
                    v.parse()
                        .map_err(|_| ProtoError(format!("bad span number `{v}`")))
                };
                let (name, detail) = w[4].split_once(' ').unwrap_or((w[4], ""));
                check_word("span name", name)?;
                let job = num(w[1])?;
                spans.push(Span {
                    name: name.to_owned(),
                    kind,
                    job: u32::try_from(job)
                        .map_err(|_| ProtoError(format!("span job `{job}` out of range")))?,
                    pid: 1,
                    ts_ns: num(w[2])?,
                    dur_ns: num(w[3])?,
                    detail: detail.to_owned(),
                });
            }
            "stats" => {
                let v: Vec<u64> = rest
                    .split(' ')
                    .map(|w| {
                        w.parse()
                            .map_err(|_| ProtoError(format!("bad stats value `{w}`")))
                    })
                    .collect::<Result<_, _>>()?;
                if v.len() != 6 {
                    return err(format!("bad stats line `{line}`"));
                }
                stats.jobs_run = v[0];
                stats.jobs_cached = v[1];
                stats.compile_ns = v[2];
                stats.analyze_ns = v[3];
                stats.store_ns = v[4];
                stats.wall_ns = v[5];
            }
            "digest" => {
                digest = Some(
                    Digest::from_hex(rest)
                        .ok_or_else(|| ProtoError(format!("bad digest `{rest}`")))?,
                );
            }
            _ => return err(format!("unknown payload tag `{tag}`")),
        }
    }
    if cells.len() != ncells {
        return err(format!("expected {ncells} cells, got {}", cells.len()));
    }
    let response = SweepResponse {
        units,
        configs,
        machines,
        cells,
        stats,
        spans,
        digest: digest.ok_or_else(|| ProtoError("sweep response lacks digest".into()))?,
    };
    if !response.verify() {
        return err("sweep response digest does not match its cells");
    }
    Ok(response)
}

/// Parses a response document (header through `end`).
///
/// # Errors
///
/// [`ProtoError`] on any malformation.
pub fn decode_response(text: &str) -> Result<Response, ProtoError> {
    let mut cursor = Cursor::new(text);
    check_header(cursor.line(), RESPONSE_WORD)?;
    let first = match cursor.line() {
        Some(l) => l,
        None => return err("response lacks a body"),
    };
    let (tag, rest) = first.split_once(' ').unwrap_or((first, ""));
    let body = match tag {
        "ok" => Response::Ok,
        "error" => Response::Error(rest.to_owned()),
        "need" => {
            let n: usize = rest
                .parse()
                .map_err(|_| ProtoError(format!("bad need count `{rest}`")))?;
            return Ok(Response::Need(decode_digest_list(&mut cursor, n)?));
        }
        "server-stats" => {
            let mut stats = ServerStats::default();
            loop {
                let line = match cursor.line() {
                    Some(l) => l,
                    None => return err("stats response truncated"),
                };
                if line == "end" {
                    return Ok(Response::Stats(stats));
                }
                let (name, value) = line
                    .split_once(' ')
                    .ok_or_else(|| ProtoError(format!("bad stats line `{line}`")))?;
                let value: u64 = value
                    .parse()
                    .map_err(|_| ProtoError(format!("bad stats value `{value}`")))?;
                if !stats.set_field(name, value) {
                    return err(format!("unknown stats field `{name}`"));
                }
            }
        }
        "sweep" => {
            let nbytes = blob_line(cursor.line())?;
            let payload = cursor.blob(nbytes)?;
            let response = decode_sweep_payload(payload)?;
            return match cursor.line() {
                Some("end") => Ok(Response::Sweep(response)),
                _ => err("response not terminated by `end`"),
            };
        }
        "metrics" | "recorder" => {
            let nbytes = blob_line(cursor.line())?;
            let payload = cursor.blob(nbytes)?.to_owned();
            let response = if tag == "metrics" {
                Response::Metrics(payload)
            } else {
                Response::Recorder(payload)
            };
            return match cursor.line() {
                Some("end") => Ok(response),
                _ => err("response not terminated by `end`"),
            };
        }
        _ => return err(format!("unknown response kind `{tag}`")),
    };
    match cursor.line() {
        Some("end") => Ok(body),
        _ => err("response not terminated by `end`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vericomp_core::OptLevel;
    use vericomp_dataflow::fleet;
    use vericomp_minic::pretty::program_to_c;

    fn sample_spec() -> SweepSpec {
        let nodes = fleet::named_suite();
        SweepSpec::new()
            .nodes(&nodes[..2])
            .levels([OptLevel::Verified, OptLevel::OptFull])
            .machine("mpc755", &MachineConfig::mpc755())
            .machine("tiny", &MachineConfig::tiny_caches())
    }

    #[test]
    fn passes_bits_roundtrip_all_presets() {
        for level in [
            OptLevel::PatternO0,
            OptLevel::OptNoRegalloc,
            OptLevel::Verified,
            OptLevel::OptFull,
        ] {
            let p = PassConfig::for_level(level);
            let bits = passes_to_bits(&p);
            assert_eq!(bits.len(), 10);
            assert_eq!(passes_from_bits(&bits).expect("parses"), p);
        }
        assert!(passes_from_bits("11111").is_err());
        assert!(passes_from_bits("111111111x").is_err());
    }

    #[test]
    fn machine_fields_roundtrip_and_reject_malformation() {
        for m in [MachineConfig::mpc755(), MachineConfig::tiny_caches()] {
            let text = machine_to_fields(&m);
            assert_eq!(machine_from_fields(&text).expect("parses"), m);
        }
        assert!(machine_from_fields("1 2 3").is_err());
        assert!(machine_from_fields("x ".repeat(24).trim_end()).is_err());
    }

    #[test]
    fn sweep_request_roundtrips_with_identical_cache_keys() {
        let spec = sample_spec();
        // uploading everything carries every body with its digest
        let wire = WireSweep::from_spec(&spec, |_| true);
        let text = encode_request(&Request::Sweep(wire)).expect("encodes");
        let Request::Sweep(back) = decode_request(&text).expect("decodes") else {
            panic!("wrong request kind");
        };
        assert_eq!(back.units.len(), spec.units().len());
        assert_eq!(back.configs, spec.configs());
        assert_eq!(back.machines, spec.machines());
        // the round-tripped bodies derive the same cache keys — the
        // property that makes the daemon's store useful to remote clients
        for (a, b) in spec.units().iter().zip(&back.units) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.entry, b.entry);
            assert_eq!(a.source_digest(), b.digest);
            let body = b.body.as_ref().expect("uploaded");
            assert_eq!(source_digest(body), b.digest);
            let verified = PassConfig::for_level(OptLevel::Verified);
            let m = MachineConfig::mpc755();
            assert_eq!(
                crate::store::artifact_key(&program_to_c(&a.source), &a.entry, &verified, &m),
                crate::store::artifact_key(body, &b.entry, &verified, &m),
                "unit `{}` changed key over the wire",
                a.name
            );
        }
    }

    #[test]
    fn unit_refs_travel_without_bodies() {
        let spec = sample_spec();
        let wire = WireSweep::from_spec(&spec, |_| false);
        let text = encode_request(&Request::Sweep(wire)).expect("encodes");
        assert!(!text.contains("blob "), "unit-ref requests carry no blobs");
        let Request::Sweep(back) = decode_request(&text).expect("decodes") else {
            panic!("wrong request kind");
        };
        for (a, b) in spec.units().iter().zip(&back.units) {
            assert_eq!(a.source_digest(), b.digest);
            assert!(b.body.is_none());
        }
    }

    /// A request document of the current version with the given body.
    fn request_doc(body: &str) -> String {
        format!("vericomp-request {PROTO_VERSION}\n{body}")
    }

    #[test]
    fn need_roundtrips_and_have_is_no_request() {
        let digests: Vec<Digest> = sample_spec()
            .units()
            .iter()
            .map(crate::sweep::SweepUnit::source_digest)
            .collect();
        let Response::Need(back) =
            decode_response(&encode_response(&Response::Need(digests.clone()))).expect("decodes")
        else {
            panic!("wrong response kind");
        };
        assert_eq!(back, digests);
        // empty lists survive too
        let Response::Need(empty) =
            decode_response(&encode_response(&Response::Need(Vec::new()))).expect("decodes")
        else {
            panic!("wrong response kind");
        };
        assert!(empty.is_empty());
        // a sweep is the only way to ask what the server needs
        let have = request_doc(&format!("have 1\ndigest {}\nend\n", digests[0]));
        let e = decode_request(&have).expect_err("`have` is gone");
        assert!(e.0.contains("unknown request kind `have 1`"), "{e}");
    }

    #[test]
    fn blob_framing_survives_end_lines_and_verifies_digests() {
        // a body containing a line reading `end` must not close the frame
        let body = "int f(void)\n{\nend\n}\n".to_owned();
        let digest = source_digest(&body);
        let wire = WireSweep {
            units: vec![WireUnit {
                name: "tricky".into(),
                entry: "f".into(),
                digest,
                body: Some(Arc::new(body.clone())),
            }],
            configs: vec![("verified".into(), PassConfig::for_level(OptLevel::Verified))],
            machines: vec![("default".into(), MachineConfig::mpc755())],
            trace: 0,
        };
        let text = encode_request(&Request::Sweep(wire)).expect("encodes");
        // the frame reader consumes the blob by length, not by scanning
        let mut reader = std::io::BufReader::new(text.as_bytes());
        let frame = read_frame(&mut reader).expect("reads").expect("one frame");
        assert_eq!(frame, text.as_bytes());
        assert!(read_frame(&mut reader).expect("eof").is_none());
        let Request::Sweep(back) = decode_request(&text).expect("decodes") else {
            panic!("wrong request kind");
        };
        assert_eq!(
            back.units[0].body.as_deref().map(String::as_str),
            Some(body.as_str())
        );
        // a body that does not hash to its declared digest is rejected —
        // the parse cache is digest-addressed, so this gate is load-bearing
        let tampered = text.replace("{\nend\n}", "{\nEND\n}");
        assert!(decode_request(&tampered).is_err());
    }

    #[test]
    fn version_mismatch_is_a_clean_versioned_error() {
        let ours = format!("vericomp-request {PROTO_VERSION}");
        for old in [1, 2] {
            let doc = format!("vericomp-request {old}\nstats\nend\n");
            let e = decode_request(&doc).expect_err("an older header must be rejected");
            assert!(
                e.0.contains(&format!("version {old}")) && e.0.contains(&ours),
                "error must name both versions: {e}"
            );
            let e = decode_response(&format!("vericomp-response {old}\nok\nend\n"))
                .expect_err("an older response header must be rejected");
            assert!(
                e.0.contains(&format!("version {old}"))
                    && e.0.contains(&format!("vericomp-response {PROTO_VERSION}"))
            );
        }
        let e = decode_request("vericomp-request 99\nstats\nend\n").expect_err("future version");
        assert!(e.0.contains("version 99"));
    }

    #[test]
    fn stats_shutdown_ok_and_error_roundtrip() {
        for req in [Request::Stats, Request::Shutdown] {
            let text = encode_request(&req).expect("encodes");
            let back = decode_request(&text).expect("decodes");
            assert_eq!(std::mem::discriminant(&back), std::mem::discriminant(&req));
        }
        let ok = decode_response(&encode_response(&Response::Ok)).expect("ok");
        assert!(matches!(ok, Response::Ok));
        let err_resp = decode_response(&encode_response(&Response::Error(
            "multi\nline message".into(),
        )))
        .expect("error");
        let Response::Error(msg) = err_resp else {
            panic!("wrong response kind");
        };
        assert_eq!(msg, "multi line message");
    }

    #[test]
    fn server_stats_roundtrip_and_render() {
        let stats = ServerStats {
            requests: 7,
            sweeps: PipelineStats {
                jobs_run: 10,
                jobs_cached: 32,
                compile_ns: 111,
                analyze_ns: 222,
                store_ns: 333,
                wall_ns: 999,
            },
            evictions: 5,
            resident: 37,
            store_bytes: 123_456,
            bytes_rx: 4_096,
            bytes_tx: 8_192,
            units_uploaded: 6,
            parse_hits: 14,
            parse_misses: 6,
            parse_evictions: 1,
            parse_resident: 5,
            parse_bytes: 2_048,
            request_p50_ns: 1_000_000,
            request_p99_ns: 8_000_000,
        };
        let back = decode_response(&encode_response(&Response::Stats(stats.clone())));
        let Response::Stats(back) = back.expect("decodes") else {
            panic!("wrong response kind");
        };
        assert_eq!(back, stats);
        assert!((stats.sweeps.hit_rate() - 32.0 / 42.0).abs() < 1e-12);
        assert!((stats.parse_hit_rate() - 0.7).abs() < 1e-12);
        let render = stats.render();
        assert!(render.contains("server: jobs run 10 cached 32 hit-rate 0.762\n"));
        assert!(render.contains("server: store resident 37 bytes 123456 evictions 5\n"));
        assert!(render.contains("wire rx 4096 tx 8192 uploaded 6\n"));
        assert!(render.contains(
            "parse-cache hits 14 misses 6 evictions 1 resident 5 bytes 2048 hit-rate 0.700"
        ));
        assert!(render.contains("stage compile 111ns analyze 222ns store 333ns wall 999ns\n"));
        assert!(render.ends_with(&format!(
            "server: latency request p50 1000000ns p99 8000000ns proto {PROTO_VERSION}\n"
        )));
    }

    #[test]
    fn stats_field_table_covers_every_field_once() {
        // every field named, each with a distinct value: the table must
        // read each field exactly once and decoding must write it back
        let stats = ServerStats {
            requests: 1,
            sweeps: PipelineStats {
                jobs_run: 2,
                jobs_cached: 3,
                compile_ns: 7,
                analyze_ns: 8,
                store_ns: 9,
                wall_ns: 10,
            },
            evictions: 4,
            resident: 5,
            store_bytes: 6,
            bytes_rx: 11,
            bytes_tx: 12,
            units_uploaded: 13,
            parse_hits: 14,
            parse_misses: 15,
            parse_evictions: 16,
            parse_resident: 17,
            parse_bytes: 18,
            request_p50_ns: 19,
            request_p99_ns: 20,
        };
        let mut read: Vec<u64> = stats.fields().iter().map(|&(_, v)| v).collect();
        read.sort_unstable();
        assert_eq!(read, (1..=20).collect::<Vec<u64>>());
        let back = decode_response(&encode_response(&Response::Stats(stats.clone())));
        let Ok(Response::Stats(back)) = back else {
            panic!("stats must decode: {back:?}");
        };
        assert_eq!(back, stats);
        // a field this version does not know is refused by name: an
        // older server's SLO threshold as much as a made-up field
        for field in ["slo_per_mille", "units_offered"] {
            let old = format!("vericomp-response {PROTO_VERSION}\nserver-stats\n{field} 3\nend\n");
            let e = decode_response(&old).expect_err("unknown field");
            assert!(
                e.0.contains(&format!("unknown stats field `{field}`")),
                "{e}"
            );
        }
    }

    #[test]
    fn sweep_response_roundtrips_through_the_blob() {
        let spec = SweepSpec::new()
            .nodes(&fleet::named_suite()[..2])
            .level(OptLevel::Verified);
        let spec = normalize_spec(&spec, &MachineConfig::mpc755());
        let result = crate::service::Pipeline::in_memory()
            .run_sweep(&spec)
            .expect("solo");
        let response = SweepResponse::from_result(&result);
        let text = encode_response(&Response::Sweep(response.clone()));
        let Response::Sweep(back) = decode_response(&text).expect("decodes") else {
            panic!("wrong response kind");
        };
        assert_eq!(back.digest, response.digest);
        assert_eq!(back.cells, response.cells);
        assert_eq!(back.units, response.units);
        assert!(back.verify());
    }

    #[test]
    fn malformed_documents_are_errors_not_panics() {
        let response_doc = |body: &str| format!("vericomp-response {PROTO_VERSION}\n{body}");
        assert!(decode_request("").is_err());
        assert!(decode_request("vericomp-request 99\nstats\nend\n").is_err());
        assert!(decode_request(&request_doc("stats\n")).is_err()); // no end
        assert!(decode_request(&request_doc("sweep\nunit f 0 n\nend\n")).is_err());
        // blob length lies: runs past the frame
        assert!(decode_request(&request_doc(
            "sweep\nunit f 00000000000000000000000000000000 n\nblob 999\nint\nend\n"
        ))
        .is_err());
        // blob length splitting a UTF-8 boundary must not panic
        let doc = request_doc(&format!(
            "sweep\nunit f {} n\nblob 1\né\nend\n",
            source_digest("é")
        ));
        assert!(decode_request(&doc).is_err());
        assert!(decode_response(&response_doc("sweep\nblob 4\nxyzw\nend\n")).is_err());
        assert!(decode_response(&response_doc("need 3\ndigest zz\nend\n")).is_err());
        // axis counts past any real sweep: neither preallocated nor
        // multiplied into an overflow
        for axes in ["1000000000000000000 1 1", "4294967296 4294967296 16"] {
            let payload = format!("axes {axes}\ndigest {}", cells_digest(&[]));
            let doc = response_doc(&format!("sweep\nblob {}\n{payload}\nend\n", payload.len()));
            assert!(decode_response(&doc).is_err(), "axes {axes}");
        }
        // whitespace in labels rejected at encode time
        let spec = SweepSpec::new()
            .level(OptLevel::Verified)
            .machine("two words", &MachineConfig::mpc755());
        let wire = WireSweep::from_spec(&spec, |_| true);
        assert!(encode_request(&Request::Sweep(wire)).is_err());
    }

    #[test]
    fn read_frame_reports_truncation_and_oversized_blobs() {
        use std::io::BufReader;
        // clean EOF at a boundary
        let mut r = BufReader::new(&b""[..]);
        assert!(read_frame(&mut r).expect("clean").is_none());
        // EOF mid-frame
        let doc = request_doc("stats\n");
        let mut r = BufReader::new(doc.as_bytes());
        assert!(read_frame(&mut r).is_err());
        // EOF mid-blob
        let doc = request_doc("sweep\nblob 100\nshort");
        let mut r = BufReader::new(doc.as_bytes());
        assert!(read_frame(&mut r).is_err());
        // oversized blob declaration rejected before allocation
        let doc = request_doc(&format!("sweep\nblob {}\n", MAX_FRAME_BYTES + 1));
        let mut r = BufReader::new(doc.as_bytes());
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn frames_past_the_cap_are_refused_and_one_at_the_cap_is_read() {
        use std::io::BufReader;
        let over_cap = |bytes: &[u8], cap: u64| {
            let e = read_frame_within(&mut BufReader::new(bytes), cap).expect_err("over the cap");
            e.kind() == io::ErrorKind::InvalidData
        };
        let doc = request_doc("sweep\nblob 5\nhello\nend\n");
        let cap = doc.len() as u64;
        // exactly at the cap: read whole
        let mut r = BufReader::new(doc.as_bytes());
        let frame = read_frame_within(&mut r, cap)
            .expect("reads")
            .expect("a frame");
        assert_eq!(frame, doc.as_bytes());
        // one byte less refuses it, wherever the excess falls
        assert!(over_cap(doc.as_bytes(), cap - 1));
        // so is a frame whose lines fill the cap without ending it
        let full = request_doc("sweep\nstats\n");
        assert!(over_cap(
            format!("{full}end\n").as_bytes(),
            full.len() as u64
        ));
        // a newline-free line is refused at the cap, never buffered whole
        let endless = vec![b'x'; 4096];
        assert!(over_cap(&endless, 64));
        // a blob declared past the remaining budget is refused before it
        // is read, however small each line is
        let doc = request_doc("sweep\nblob 40\n");
        assert!(over_cap(doc.as_bytes(), doc.len() as u64 + 39));
    }

    #[test]
    fn normalize_matches_run_sweep_defaults() {
        let m = MachineConfig::mpc755();
        let spec = SweepSpec::new();
        let n = normalize_spec(&spec, &m);
        assert_eq!(n.configs().len(), 1);
        assert_eq!(n.configs()[0].0, "verified");
        assert_eq!(n.configs()[0].1, PassConfig::for_level(OptLevel::Verified));
        assert_eq!(n.machines().len(), 1);
        assert_eq!(n.machines()[0].0, "default");
        assert_eq!(n.machines()[0].1, m);
        // explicit axes pass through untouched
        let spec = sample_spec();
        let n = normalize_spec(&spec, &m);
        assert_eq!(n.configs(), spec.configs());
        assert_eq!(n.machines(), spec.machines());
    }

    #[test]
    fn trace_id_and_admin_requests_roundtrip() {
        let spec = sample_spec();
        let wire = WireSweep::from_spec(&spec, |_| false).with_trace(0x00ab_cdef_0123_4567);
        let text = encode_request(&Request::Sweep(wire)).expect("encodes");
        assert!(text.contains("trace 00abcdef01234567\n"));
        let Request::Sweep(back) = decode_request(&text).expect("decodes") else {
            panic!("wrong request kind");
        };
        assert_eq!(back.trace, 0x00ab_cdef_0123_4567);
        // untraced sweeps carry no trace line at all
        let wire = WireSweep::from_spec(&spec, |_| false);
        let text = encode_request(&Request::Sweep(wire)).expect("encodes");
        assert!(!text.contains("trace "));
        // admin requests
        for (req, word) in [
            (Request::Metrics, "metrics"),
            (Request::RecorderDump, "recorder-dump"),
        ] {
            let text = encode_request(&req).expect("encodes");
            assert!(text.contains(&format!("{word}\n")));
            let back = decode_request(&text).expect("decodes");
            assert_eq!(std::mem::discriminant(&back), std::mem::discriminant(&req));
        }
        assert!(decode_request(&request_doc("sweep\ntrace zz\nend\n")).is_err());
    }

    #[test]
    fn metrics_and_recorder_responses_carry_json_blobs() {
        // bodies may contain `end` lines — the blob framing must hold
        let json = "{\"counters\": {\"x\": 1}}\nend\n{}".to_owned();
        for make in [Response::Metrics, Response::Recorder] {
            let text = encode_response(&make(json.clone()));
            let mut reader = std::io::BufReader::new(text.as_bytes());
            let frame = read_frame(&mut reader).expect("reads").expect("one frame");
            assert_eq!(frame, text.as_bytes());
            let back = decode_response(&text).expect("decodes");
            match back {
                Response::Metrics(body) | Response::Recorder(body) => assert_eq!(body, json),
                _ => panic!("wrong response kind"),
            }
        }
    }

    #[test]
    fn sweep_response_spans_roundtrip_outside_the_digest() {
        let spec = SweepSpec::new()
            .nodes(&fleet::named_suite()[..1])
            .level(OptLevel::Verified);
        let spec = normalize_spec(&spec, &MachineConfig::mpc755());
        let result = crate::service::Pipeline::in_memory()
            .run_sweep(&spec)
            .expect("solo");
        let mut response = SweepResponse::from_result(&result);
        response.spans = vec![
            Span::stage("compile", 0, 10, 20, "trace=00000000000000ab request=3"),
            Span::pass("mem2reg", 0, 12, 4, ""),
            Span::event("search:admitted", 1, 30, "flag=cse"),
        ];
        let text = encode_response(&Response::Sweep(response.clone()));
        let Response::Sweep(back) = decode_response(&text).expect("decodes") else {
            panic!("wrong response kind");
        };
        assert!(back.verify(), "spans must not perturb the cells digest");
        assert_eq!(back.digest, response.digest);
        assert_eq!(back.spans.len(), 3);
        assert_eq!(back.spans[0].name, "compile");
        assert_eq!(back.spans[0].kind, SpanKind::Stage);
        assert_eq!(back.spans[0].detail, "trace=00000000000000ab request=3");
        assert_eq!(back.spans[1].detail, "");
        assert_eq!(back.spans[1].dur_ns, 4);
        assert_eq!(back.spans[2].kind, SpanKind::Event);
        assert_eq!(back.spans[2].job, 1);
        // a hostile span line is an error, not a panic
        assert!(decode_sweep_payload(
            "axes 0 0 0\nspan bogus 0 0 0 x\ndigest 00000000000000000000000000000000"
        )
        .is_err());
        // a job index past u32 is rejected, not wrapped onto cell 0
        let e = decode_sweep_payload(
            "axes 0 0 0\nspan stage 4294967296 0 0 compile\ndigest 00000000000000000000000000000000",
        )
        .expect_err("job overflows u32");
        assert!(e.0.contains("4294967296"), "{}", e.0);
        let max_job = format!(
            "axes 0 0 0\nspan stage 4294967295 0 0 compile\ndigest {}",
            cells_digest(&[])
        );
        assert_eq!(
            decode_sweep_payload(&max_job).expect("u32::MAX fits").spans[0].job,
            u32::MAX
        );
    }
}
