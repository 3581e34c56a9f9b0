//! Wire-protocol robustness: hostile byte streams against a live daemon.
//!
//! The fuzz property drives the wire protocol's whole hostile-input
//! surface — truncations (including mid-`blob`-payload disconnects),
//! bit flips, corrupted blob lengths, oversized blob claims, injected
//! garbage lines, version skew and raw non-UTF-8 soup — at one shared
//! `vericomp_serve`-shaped server over its Unix socket, exactly the
//! frames a broken or malicious client could produce. The contract
//! under test:
//!
//! * the server **never panics** (its accept loop survives every case
//!   and still serves, shuts down cleanly at the end);
//! * every frame it sends back is a well-formed response document of
//!   the current version (usually `error …` or `need …`) — it never
//!   echoes garbage;
//! * a poisoned connection stays *one* connection: after the full fuzz
//!   run the shared store still serves a genuine sweep bit-identical
//!   to a solo `run_sweep` of the same spec.
//!
//! Failures append their seed to `tests/proto_fuzz.proptest-regressions`
//! (testkit prop-harness discipline) and replay with
//! `TESTKIT_SEED=<seed> TESTKIT_CASES=1 cargo test --test proto_fuzz`.

use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::time::Duration;

use vericomp::pipeline::proto::{decode_response, encode_request};
use vericomp::pipeline::{
    normalize_spec, Client, Request, Server, ServerOptions, SweepSpec, WireSweep, PROTO_VERSION,
};
use vericomp_arch::MachineConfig;
use vericomp_core::OptLevel;
use vericomp_dataflow::fleet;
use vericomp_testkit::prop::{check, gens, Config};

/// The small spec behind the valid seed documents: two suite nodes, one
/// config — cheap enough that a mutant surviving as a *valid* sweep only
/// costs one tiny batch.
fn fuzz_spec() -> SweepSpec {
    let suite = fleet::named_suite();
    normalize_spec(
        &SweepSpec::new()
            .nodes(&suite[..2])
            .level(OptLevel::Verified),
        &MachineConfig::mpc755(),
    )
}

/// The valid request documents mutations start from: a sweep with every
/// body, one by digest only, a traced one carrying the first unit's body
/// alone, and `stats`. `shutdown` is deliberately absent: a mutation
/// that leaves it intact would stop the shared server mid-run.
fn seed_documents() -> Vec<Vec<u8>> {
    let spec = fuzz_spec();
    let first = spec.units()[0].source_digest();
    [
        Request::Sweep(WireSweep::from_spec(&spec, |_| true)),
        Request::Sweep(WireSweep::from_spec(&spec, |_| false)),
        Request::Sweep(WireSweep::from_spec(&spec, |d| d == first).with_trace(0xf022)),
        Request::Stats,
    ]
    .iter()
    .map(|r| encode_request(r).expect("seed encodes").into_bytes())
    .collect()
}

/// Deterministic byte soup from two u64s (no RNG in the case body — the
/// case *is* its seed tuple, so shrinking stays meaningful).
fn soup(a: u64, b: u64, len: usize) -> Vec<u8> {
    let mut state = a ^ b.rotate_left(17) ^ 0x9E37_79B9_7F4A_7C15;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as u8
        })
        .collect()
}

/// The header line of a request document of the current version.
fn request_header() -> String {
    format!("vericomp-request {PROTO_VERSION}")
}

/// Lines a garbage-injection mutation may splice in. No `shutdown`.
fn garbage_lines() -> Vec<String> {
    [
        "sweep",
        "blob 999999999999999999",
        "blob -7",
        "blob ",
        "unit-ref step deadbeef x",
        "unit",
        "digest zz",
        "have 4000000000",
        "config verified 11111",
        "machine",
        "end",
        "stats",
        &request_header(),
        "\u{0}\u{0}\u{0}",
    ]
    .map(str::to_owned)
    .into()
}

/// Builds the hostile stream for one case: pick a valid document, apply
/// one mutation family parameterized by `(a, b)`.
fn hostile_bytes(seeds: &[Vec<u8>], which: u8, mutation: u8, a: u64, b: u64) -> Vec<u8> {
    let doc = &seeds[which as usize % seeds.len()];
    let mut bytes = doc.clone();
    match mutation % 7 {
        // truncation anywhere, including inside a blob payload — the
        // write side then disconnects mid-frame
        0 => {
            bytes.truncate((a as usize) % (doc.len() + 1));
        }
        // single flipped byte (guaranteed to differ)
        1 => {
            let pos = (a as usize) % doc.len();
            bytes[pos] ^= (b % 255) as u8 + 1;
        }
        // corrupt the first blob length, or claim an oversized one
        2 => {
            if let Ok(text) = std::str::from_utf8(doc) {
                if let Some(start) = text.find("blob ") {
                    let line_end = text[start..].find('\n').map_or(text.len(), |e| start + e);
                    let claimed = if a.is_multiple_of(2) {
                        (1u64 << 30) + 1 + (b % 1024) // over MAX_BLOB_BYTES
                    } else {
                        b % 100_000 // plain length mismatch
                    };
                    let mut out = text[..start].to_string();
                    out.push_str(&format!("blob {claimed}"));
                    out.push_str(&text[line_end..]);
                    bytes = out.into_bytes();
                }
            }
        }
        // splice a garbage line in at a line boundary
        3 => {
            let boundaries: Vec<usize> = bytes
                .iter()
                .enumerate()
                .filter_map(|(i, &c)| (c == b'\n').then_some(i + 1))
                .collect();
            let at = if boundaries.is_empty() {
                0
            } else {
                boundaries[(a as usize) % boundaries.len()]
            };
            let lines = garbage_lines();
            let line = &lines[(b as usize) % lines.len()];
            let mut injected = bytes[..at].to_vec();
            injected.extend_from_slice(line.as_bytes());
            injected.push(b'\n');
            injected.extend_from_slice(&bytes[at..]);
            bytes = injected;
        }
        // raw soup, frequently not UTF-8 at all
        4 => {
            bytes = soup(a, b, (a as usize) % 512);
        }
        // duplicated prefix: one-and-a-half documents on one stream
        5 => {
            let cut = (a as usize) % (doc.len() + 1);
            bytes.extend_from_slice(&doc[..cut]);
        }
        // version skew in the header line
        _ => {
            if let Ok(text) = std::str::from_utf8(doc) {
                bytes = text
                    .replacen(
                        &request_header(),
                        &format!("vericomp-request {}", a % 10),
                        1,
                    )
                    .into_bytes();
            }
        }
    }
    bytes
}

/// One fuzz case: write the hostile stream, half-close, drain replies.
/// Transport errors are fine (the server may drop the connection); a
/// hang or an undecodable reply frame is a property violation.
fn throw_at_server(socket: &std::path::Path, bytes: &[u8]) -> Result<(), String> {
    let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("timeout: {e}"))?;
    // a dropped connection can surface as EPIPE here — allowed
    let mut writer = &stream;
    let _ = writer.write_all(bytes);
    let _ = writer.flush();
    let _ = stream.shutdown(std::net::Shutdown::Write);

    let mut reader = BufReader::new(&stream);
    loop {
        match vericomp::pipeline::read_frame(&mut reader) {
            Ok(Some(frame)) => {
                let text = std::str::from_utf8(&frame)
                    .map_err(|_| "server sent a non-UTF-8 frame".to_string())?;
                decode_response(text)
                    .map_err(|e| format!("server sent an undecodable frame: {e}\n{text}"))?;
            }
            Ok(None) => return Ok(()), // clean EOF: connection served or dropped
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                return Err("server went silent for 60 s (hang)".to_string());
            }
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {
                return Err("server went silent for 60 s (hang)".to_string());
            }
            // reset/EPIPE mid-frame: the server dropped this connection
            Err(_) => return Ok(()),
        }
    }
}

#[test]
fn hostile_streams_never_panic_the_server_or_poison_the_store() {
    let socket = std::env::temp_dir().join(format!("vericomp-fuzz-{}.sock", std::process::id()));
    let server = Server::new(&ServerOptions::new(&socket)).expect("binds");
    let handle = std::thread::spawn(move || server.run().expect("server must survive the fuzz"));

    let spec = fuzz_spec();
    let solo = vericomp::pipeline::Pipeline::in_memory()
        .run_sweep(&spec)
        .expect("solo sweep");

    let seeds = seed_documents();
    let gen = gens::pair(
        gens::pair(gens::u8_range(0, 8), gens::u8_range(0, 7)),
        gens::pair(gens::any_u64(), gens::any_u64()),
    );
    let cfg = Config::with_cases(96).with_regressions(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/proto_fuzz.proptest-regressions"
    ));
    check(
        "hostile_streams_get_error_or_disconnect",
        &cfg,
        &gen,
        |&((which, mutation), (a, b))| {
            let bytes = hostile_bytes(&seeds, which, mutation, a, b);
            throw_at_server(&socket, &bytes)
        },
    );

    // the shared store survived every case: a genuine client still gets
    // the solo-identical digest, and the daemon still shuts down cleanly
    let mut client = Client::connect(&socket).expect("connects after the fuzz");
    let served = client.run_sweep(&spec).expect("serves after the fuzz");
    assert!(served.verify(), "post-fuzz frame fails verification");
    assert_eq!(
        served.digest,
        solo.digest(),
        "fuzzing poisoned the shared store"
    );
    client.shutdown().expect("acknowledged");
    handle.join().expect("clean shutdown after the fuzz");
    assert!(!socket.exists(), "socket must be removed on shutdown");
}
