//! The compile-as-a-service daemon.
//!
//! ```text
//! # terminal 1 — start the service
//! cargo run --release -p vericomp --bin vericomp_serve -- \
//!     --socket target/vericomp.sock --store-bytes 4000000
//!
//! # terminal 2 — any number of clients
//! cargo run --release -p vericomp --bin compile_fleet -- \
//!     --connect target/vericomp.sock --configs verified,opt-full
//! ```
//!
//! The daemon owns one warm, size-bounded artifact store and runs each
//! sweep request as one pipeline run of exactly that request, one
//! request at a time. Every response digest is bit-identical to what a
//! solo `compile_fleet` run of the same request prints — the
//! determinism gates and the CI daemon smoke compare exactly that.
//!
//! `--stats-of SOCK`, `--metrics-of SOCK`, `--recorder-of SOCK` and
//! `--shutdown SOCK` run one-shot admin requests against an
//! already-running daemon instead of starting one.

use std::process::ExitCode;

use vericomp_pipeline::{Client, ClientError, Server, ServerOptions};

const USAGE: &str = "usage: vericomp_serve --socket PATH [--jobs N] [--cache-dir DIR]
                     [--store-bytes N] [--metrics-json FILE]
       vericomp_serve --stats-of PATH | --metrics-of PATH
                    | --recorder-of PATH | --shutdown PATH
  --socket PATH     Unix socket to listen on (stale files are replaced)
  --jobs N          worker threads (default: available parallelism)
  --cache-dir DIR   persistent .vcart store directory (default: memory only)
  --store-bytes N   resident store bound in bytes; exceeding it evicts
                    the artifacts of the least-recent sweeps first,
                    deterministically (default: unbounded)
  --metrics-json FILE
                    persist the metrics registry as JSON to FILE at clean
                    shutdown
  --stats-of PATH   print a running daemon's stats and exit
  --metrics-of PATH print a running daemon's metrics registry JSON and exit
  --recorder-of PATH
                    print a running daemon's flight-recorder dump and exit
  --shutdown PATH   ask a running daemon to finish its running sweep and
                    stop, then exit";

/// One admin request: asks a running daemon and returns what to print.
type Ask = fn(&mut Client) -> Result<String, ClientError>;

enum Mode {
    Serve(ServerOptions),
    /// An admin request to the daemon listening on the socket path.
    Admin(String, Ask),
}

fn parse_args() -> Result<Mode, String> {
    let mut options = ServerOptions::new("");
    let mut socket: Option<String> = None;
    let mut admin: Option<(String, Ask)> = None;

    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs an argument"))
        };
        let ask: Ask = match flag.as_str() {
            "--stats-of" => |c| c.server_stats().map(|stats| stats.render()),
            "--metrics-of" => Client::server_metrics,
            "--recorder-of" => Client::recorder_dump,
            "--shutdown" => |c| {
                c.shutdown()
                    .map(|()| "vericomp_serve: shutdown acknowledged\n".to_owned())
            },
            "--socket" => {
                socket = Some(value("--socket")?);
                continue;
            }
            "--jobs" => {
                options.jobs = value("--jobs")?
                    .parse()
                    .map_err(|_| "--jobs needs a number".to_string())?;
                continue;
            }
            "--cache-dir" => {
                options.cache_dir = Some(value("--cache-dir")?.into());
                continue;
            }
            "--store-bytes" => {
                options.max_bytes = Some(
                    value("--store-bytes")?
                        .parse()
                        .map_err(|_| "--store-bytes needs a number".to_string())?,
                );
                continue;
            }
            "--metrics-json" => {
                options.metrics_json = Some(value("--metrics-json")?.into());
                continue;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        };
        if admin.is_some() {
            return Err(format!("one admin request per run\n{USAGE}"));
        }
        admin = Some((value(&flag)?, ask));
    }

    if let Some((path, ask)) = admin {
        return Ok(Mode::Admin(path, ask));
    }
    options.socket = socket
        .ok_or_else(|| format!("--socket is required\n{USAGE}"))?
        .into();
    Ok(Mode::Serve(options))
}

/// Connects to the daemon at `path`, asks it one admin request and
/// prints the answer.
fn admin(path: &str, ask: Ask) -> ExitCode {
    let mut client = match Client::connect(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("vericomp_serve: connecting {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match ask(&mut client) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("vericomp_serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mode = match parse_args() {
        Ok(m) => m,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let options = match mode {
        Mode::Admin(path, ask) => return admin(&path, ask),
        Mode::Serve(options) => options,
    };
    let server = match Server::new(&options) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("vericomp_serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "vericomp_serve: listening on {} ({}, cache {})",
        options.socket.display(),
        options
            .max_bytes
            .map_or("unbounded".to_string(), |b| format!("{b} byte bound")),
        options
            .cache_dir
            .as_ref()
            .map_or("(memory)".to_string(), |d| d.display().to_string()),
    );
    match server.run() {
        Ok(stats) => {
            print!("{}", stats.render());
            println!("vericomp_serve: clean shutdown");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("vericomp_serve: {e}");
            ExitCode::FAILURE
        }
    }
}
