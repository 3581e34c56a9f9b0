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

use vericomp_pipeline::{Client, Server, ServerOptions};

const USAGE: &str = "usage: vericomp_serve --socket PATH [--jobs N] [--cache-dir DIR]
                     [--store-bytes N] [--slo F] [--slo-p99-ms N]
                     [--metrics-json FILE]
       vericomp_serve --stats-of PATH | --metrics-of PATH
                    | --recorder-of PATH | --shutdown PATH
  --socket PATH     Unix socket to listen on (stale files are replaced)
  --jobs N          worker threads (default: available parallelism)
  --cache-dir DIR   persistent .vcart store directory (default: memory only)
  --store-bytes N   resident store bound in bytes; exceeding it evicts
                    the artifacts of the least-recent sweeps first,
                    deterministically (default: unbounded)
  --slo F           hit-rate SLO in 0..1 printed with the stats (default 0.9;
                    0 disables the line)
  --slo-p99-ms N    p99 per-request wall-latency SLO in milliseconds, judged
                    against the request_wall_ns histogram and printed with
                    the stats (default 0: disabled)
  --metrics-json FILE
                    persist the metrics registry as JSON to FILE at clean
                    shutdown
  --stats-of PATH   print a running daemon's stats and exit
  --metrics-of PATH print a running daemon's metrics registry JSON and exit
  --recorder-of PATH
                    print a running daemon's flight-recorder dump and exit
  --shutdown PATH   ask a running daemon to finish its running sweep and
                    stop, then exit";

enum Mode {
    Serve(Box<ServerOptions>),
    StatsOf(String),
    MetricsOf(String),
    RecorderOf(String),
    Shutdown(String),
}

fn parse_args() -> Result<Mode, String> {
    let mut socket: Option<String> = None;
    let mut stats_of: Option<String> = None;
    let mut shutdown: Option<String> = None;
    let mut jobs = 0usize;
    let mut cache_dir: Option<String> = None;
    let mut max_bytes: Option<u64> = None;
    let mut slo = 0.9f64;
    let mut slo_p99_ms = 0u64;
    let mut metrics_json: Option<String> = None;
    let mut metrics_of: Option<String> = None;
    let mut recorder_of: Option<String> = None;

    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs an argument"))
        };
        match flag.as_str() {
            "--socket" => socket = Some(value("--socket")?),
            "--stats-of" => stats_of = Some(value("--stats-of")?),
            "--metrics-of" => metrics_of = Some(value("--metrics-of")?),
            "--recorder-of" => recorder_of = Some(value("--recorder-of")?),
            "--shutdown" => shutdown = Some(value("--shutdown")?),
            "--jobs" => {
                jobs = value("--jobs")?
                    .parse()
                    .map_err(|_| "--jobs needs a number".to_string())?;
            }
            "--cache-dir" => cache_dir = Some(value("--cache-dir")?),
            "--store-bytes" => {
                max_bytes = Some(
                    value("--store-bytes")?
                        .parse()
                        .map_err(|_| "--store-bytes needs a number".to_string())?,
                );
            }
            "--slo" => {
                slo = value("--slo")?
                    .parse()
                    .map_err(|_| "--slo needs a number in 0..1".to_string())?;
                if !(0.0..=1.0).contains(&slo) {
                    return Err("--slo needs a number in 0..1".to_string());
                }
            }
            "--slo-p99-ms" => {
                slo_p99_ms = value("--slo-p99-ms")?
                    .parse()
                    .map_err(|_| "--slo-p99-ms needs a number".to_string())?;
            }
            "--metrics-json" => metrics_json = Some(value("--metrics-json")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }

    if let Some(path) = stats_of {
        return Ok(Mode::StatsOf(path));
    }
    if let Some(path) = metrics_of {
        return Ok(Mode::MetricsOf(path));
    }
    if let Some(path) = recorder_of {
        return Ok(Mode::RecorderOf(path));
    }
    if let Some(path) = shutdown {
        return Ok(Mode::Shutdown(path));
    }
    let socket = socket.ok_or_else(|| format!("--socket is required\n{USAGE}"))?;
    let mut options = ServerOptions::new(socket);
    options.jobs = jobs;
    options.cache_dir = cache_dir.map(Into::into);
    options.max_bytes = max_bytes;
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    {
        options.slo_per_mille = (slo * 1000.0).round() as u64;
    }
    options.slo_p99_ns = slo_p99_ms.saturating_mul(1_000_000);
    options.metrics_json = metrics_json.map(Into::into);
    Ok(Mode::Serve(Box::new(options)))
}

fn main() -> ExitCode {
    let mode = match parse_args() {
        Ok(m) => m,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match mode {
        Mode::StatsOf(path) => {
            let mut client = match Client::connect(&path) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("vericomp_serve: connecting {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match client.server_stats() {
                Ok(stats) => {
                    print!("{}", stats.render());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("vericomp_serve: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Mode::MetricsOf(path) => {
            let mut client = match Client::connect(&path) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("vericomp_serve: connecting {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match client.server_metrics() {
                Ok(json) => {
                    print!("{json}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("vericomp_serve: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Mode::RecorderOf(path) => {
            let mut client = match Client::connect(&path) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("vericomp_serve: connecting {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match client.recorder_dump() {
                Ok(json) => {
                    print!("{json}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("vericomp_serve: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Mode::Shutdown(path) => {
            let mut client = match Client::connect(&path) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("vericomp_serve: connecting {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match client.shutdown() {
                Ok(()) => {
                    println!("vericomp_serve: shutdown acknowledged");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("vericomp_serve: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Mode::Serve(options) => {
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
    }
}
