//! Cross-layer differential fuzz oracle for the whole compilation pipeline.
//!
//! ```text
//! cargo run --release -p vericomp-testkit --bin fuzz_pipeline -- \
//!     --cases 10000 --seed 0xCC2011
//! ```
//!
//! Each case generates a random flight-control dataflow node, compiles it
//! under all four configurations (pattern −O0, optimized w/o regalloc,
//! verified, full) with translation validators force-enabled, and
//! cross-checks: interpreter vs. MPC755 simulator bit-exactly (NaN and
//! ±inf inputs included), encode→decode round-trips, validator acceptance
//! of unmutated compilations, the four configurations compiled through one
//! shared compile session against their fresh compiles, and WCET-bound
//! domination of measured cycles. On failure the case seed is printed;
//! replay it with `--replay 0x<seed>`.

use std::process::ExitCode;

use vericomp_testkit::oracle::{self, OracleConfig};

struct Args {
    cases: u64,
    seed: u64,
    steps: u32,
    jobs: usize,
    replay: Option<u64>,
}

const USAGE: &str =
    "usage: fuzz_pipeline [--cases N] [--seed S] [--steps N] [--jobs N] [--replay S]
  --cases N    number of cases to run (default 1000)
  --seed S     base seed, decimal or 0x-hex (default 0xCC2011)
  --steps N    activations simulated per case and config (default 3)
  --jobs N     worker threads; seeds stay per-case-index, so any reported
               seed replays identically at any job count (default 1, 0 = all cores)
  --replay S   run exactly one case with this seed (as printed on failure)";

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cases: 1000,
        seed: 0xCC2011,
        steps: 3,
        jobs: 1,
        replay: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<u64, String> {
            it.next()
                .and_then(|v| parse_u64(&v))
                .ok_or_else(|| format!("{name} needs a numeric argument"))
        };
        match flag.as_str() {
            "--cases" => args.cases = value("--cases")?,
            "--seed" => args.seed = value("--seed")?,
            "--steps" => args.steps = value("--steps")?.min(u64::from(u32::MAX)) as u32,
            "--jobs" => args.jobs = value("--jobs")?.min(1024) as usize,
            "--replay" => args.replay = Some(value("--replay")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = OracleConfig {
        steps: args.steps.max(1),
        ..OracleConfig::default()
    };

    if let Some(seed) = args.replay {
        println!("replaying single case, seed 0x{seed:016x}");
        return match oracle::run_case(seed, &cfg) {
            Ok(stats) => {
                println!(
                    "case passed: {} compilations, {} activations, {} values compared, \
                     min WCET slack {} cycles",
                    stats.compilations,
                    stats.activations,
                    stats.values_compared,
                    stats.min_wcet_slack,
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("FAILURE: {e}");
                eprintln!("replay: fuzz_pipeline --replay 0x{seed:016x}");
                ExitCode::FAILURE
            }
        };
    }

    println!(
        "fuzz_pipeline: {} cases, base seed 0x{:x}, {} activations/case, 4 configs, {} job(s)",
        args.cases,
        args.seed,
        cfg.steps,
        if args.jobs == 0 {
            "all".to_string()
        } else {
            args.jobs.to_string()
        },
    );
    let tick = (args.cases / 20).max(1);
    let cases = args.cases;
    let progress = move |done: u64, stats: &oracle::OracleStats| {
        if done.is_multiple_of(tick) || done == cases {
            println!(
                "  {done}/{cases} cases ok ({} compilations, {} activations, {} values)",
                stats.compilations, stats.activations, stats.values_compared
            );
        }
    };
    let summary = if args.jobs == 1 {
        oracle::run(args.seed, args.cases, &cfg, progress)
    } else {
        oracle::run_parallel(args.seed, args.cases, &cfg, args.jobs, progress)
    };

    match summary.failure {
        None => {
            let s = &summary.stats;
            println!("all {} cases passed", summary.passed);
            println!(
                "  compilations:      {} (validators on, 0 rejections, shared session == fresh)",
                s.compilations
            );
            println!(
                "  encode/decode:     {} round-trips, 0 divergences",
                s.roundtrips
            );
            println!(
                "  interp vs sim:     {} activations, {} values compared bit-exactly, 0 divergences",
                s.activations, s.values_compared
            );
            println!(
                "  WCET:              {} bounds checked, 0 violations, min slack {} cycles",
                s.wcet_checks, s.min_wcet_slack
            );
            ExitCode::SUCCESS
        }
        Some((index, seed, failure)) => {
            eprintln!("FAILURE at case {index} (seed 0x{seed:016x}): {failure}");
            eprintln!(
                "replay: cargo run --release -p vericomp-testkit --bin fuzz_pipeline -- \
                 --replay 0x{seed:016x} --steps {}",
                cfg.steps
            );
            ExitCode::FAILURE
        }
    }
}
