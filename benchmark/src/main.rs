//! The benchmark's command line.
//!
//! ```text
//! benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//!     one run in this process; the last stdout line is the JSON result
//! benchmark run [--workload W] [--seed N] [--runs K] [--sets S] [--seconds S]
//!               [--traced] [--out FILE]
//!     K runs per workload and set, each in a fresh child process, seeds
//!     N, N+1, ...; writes a results file (default .bench_out/results.json)
//! benchmark diff OLD.json[@SET] NEW.json[@SET]
//!     one row per (workload, metric): medians, quartiles, bound, verdict;
//!     then the traced layer tables side by side
//! ```
//!
//! `run` and `diff` read `BENCHMARK.json` from the working directory (the
//! repository root) for the workload list, run length, units and bounds.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use vericomp_benchmark::json::{self, Value};
use vericomp_benchmark::stats::{median, quartiles, spread};
use vericomp_benchmark::{Params, Workload, DEFAULT_SEED};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => orchestrate(&args[1..]),
        Some("diff") => diff(&args[1..]),
        _ => single_run(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--flag value` pairs and bare `--flag`s.
fn flags(args: &[String], bare: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = if bare.contains(&name) {
            String::new()
        } else {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?
                .clone()
        };
        out.insert(name.to_owned(), value);
    }
    Ok(out)
}

fn parse_num<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    flags.get(name).map_or(Ok(default), |v| {
        v.parse().map_err(|_| format!("bad --{name} `{v}`"))
    })
}

fn single_run(args: &[String]) -> Result<(), String> {
    let f = flags(args, &[])?;
    let name = f.get("workload").ok_or("missing --workload")?;
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seconds: f64 = parse_num(&f, "seconds", 10.0)?;
    if !(0.0..=3600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    let params = Params {
        seed: parse_num(&f, "seed", DEFAULT_SEED)?,
        seconds,
        traced: match f.get("trace").map_or("0", String::as_str) {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace `{other}`")),
        },
        tasks: workload.default_tasks(),
    };
    let outcome = vericomp_benchmark::run(workload, &params)?;
    println!("{}", outcome.to_json_line());
    Ok(())
}

/// `BENCHMARK.json` from the working directory.
fn spec() -> Result<Value, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    json::parse(&text)
}

fn names(list: Option<&Value>) -> Vec<String> {
    list.and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| m.get("name").and_then(Value::as_str).map(str::to_owned))
        .collect()
}

/// One child run's metrics, or why it failed.
fn child_run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} exited with {}", out.status));
    }
    json::parse(stdout.lines().last().unwrap_or_default())
}

fn orchestrate(args: &[String]) -> Result<(), String> {
    let f = flags(args, &["traced"])?;
    let spec = spec()?;
    let workloads: Vec<String> = match f.get("workload") {
        Some(w) => vec![w.clone()],
        None => names(spec.get("workloads")),
    };
    let seed: u64 = parse_num(&f, "seed", DEFAULT_SEED)?;
    let runs: u64 = parse_num(&f, "runs", 10)?;
    let sets: usize = parse_num(&f, "sets", 1)?;
    let default_seconds = spec
        .get("run_seconds")
        .and_then(Value::as_f64)
        .unwrap_or(10.0);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let seconds: u64 = parse_num(&f, "seconds", default_seconds as u64)?;
    let out_path = f
        .get("out")
        .cloned()
        .unwrap_or_else(|| ".bench_out/results.json".into());

    // values[set][workload] = [(metric, one value per run)]. Runs go seed
    // by seed through every set and workload in turn, so that a slow
    // spell of a shared host spreads over all of them instead of landing
    // on one workload or one set.
    let mut values = vec![vec![Vec::<(String, Vec<f64>)>::new(); workloads.len()]; sets];
    let mut failed = 0.0;
    for r in 0..runs {
        for (s, set) in values.iter_mut().enumerate() {
            for (w, metrics) in workloads.iter().zip(set.iter_mut()) {
                eprintln!("benchmark: set {s} {w} run {r} seed {}", seed + r);
                let result = child_run(w, seed + r, seconds, false)?;
                failed += result.get("failed").and_then(Value::as_f64).unwrap_or(1.0);
                for (name, m) in result
                    .get("metrics")
                    .and_then(Value::as_obj)
                    .unwrap_or_default()
                {
                    let v = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                    match metrics.iter_mut().find(|(n, _)| n == name) {
                        Some((_, vs)) => vs.push(v),
                        None => metrics.push((name.clone(), vec![v])),
                    }
                }
            }
        }
    }
    let set_docs = values
        .into_iter()
        .map(|set| {
            let doc = workloads.iter().zip(set).map(|(w, metrics)| {
                let metrics = metrics
                    .into_iter()
                    .map(|(n, vs)| (n, Value::Arr(vs.into_iter().map(Value::Num).collect())))
                    .collect();
                (w.clone(), Value::Obj(metrics))
            });
            Value::Obj(doc.collect())
        })
        .collect();
    let mut traced = Vec::new();
    if f.contains_key("traced") {
        for w in &workloads {
            let result = child_run(w, seed, seconds, true)?;
            failed += result.get("failed").and_then(Value::as_f64).unwrap_or(1.0);
            let metrics = result
                .get("metrics")
                .and_then(Value::as_obj)
                .unwrap_or_default()
                .iter()
                .map(|(n, m)| (n.clone(), m.get("value").cloned().unwrap_or(Value::Null)))
                .collect();
            traced.push((w.clone(), Value::Obj(metrics)));
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    #[allow(clippy::cast_precision_loss)]
    let results = Value::Obj(vec![
        ("nproc".into(), Value::Num(nproc as f64)),
        ("seconds".into(), Value::Num(seconds as f64)),
        ("first_seed".into(), Value::Num(seed as f64)),
        ("failed".into(), Value::Num(failed)),
        (
            "end_to_end".into(),
            spec.get("end_to_end").cloned().unwrap_or(Value::Null),
        ),
        ("sets".into(), Value::Arr(set_docs)),
        ("traced".into(), Value::Obj(traced)),
    ]);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out_path, render(&results, 0) + "\n")
        .map_err(|e| format!("{out_path}: {e}"))?;
    print!("{}", summary(&results));
    println!("wrote {out_path} ({failed} failed operations)");
    Ok(())
}

/// Pretty-prints a value with one level of nesting per line, numeric
/// arrays inline.
fn render(v: &Value, depth: usize) -> String {
    let pad = "  ".repeat(depth + 1);
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => json::num(*n),
        Value::Str(s) => json::quote(s),
        Value::Arr(items) if items.iter().all(|i| matches!(i, Value::Num(_))) => {
            let inner: Vec<String> = items.iter().map(|i| render(i, depth + 1)).collect();
            format!("[{}]", inner.join(", "))
        }
        Value::Arr(items) => {
            let inner: Vec<String> = items
                .iter()
                .map(|i| format!("{pad}{}", render(i, depth + 1)))
                .collect();
            format!("[\n{}\n{}]", inner.join(",\n"), "  ".repeat(depth))
        }
        Value::Obj(members) => {
            let inner: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("{pad}{}: {}", json::quote(k), render(v, depth + 1)))
                .collect();
            format!("{{\n{}\n{}}}", inner.join(",\n"), "  ".repeat(depth))
        }
    }
}

/// Per-metric (unit, better, bound) from a results file's `end_to_end`.
fn bounds(results: &Value) -> Vec<(String, String, String, f64)> {
    results
        .get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("unit")?.as_str()?.to_owned(),
                m.get("better")?.as_str()?.to_owned(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// `(workload, metric) → values`, pooled over the selected sets.
fn pooled(results: &Value, set: Option<usize>) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let sets = results
        .get("sets")
        .and_then(Value::as_arr)
        .unwrap_or_default();
    for (i, s) in sets.iter().enumerate() {
        if set.is_some_and(|want| want != i) {
            continue;
        }
        for (w, metrics) in s.as_obj().unwrap_or_default() {
            for (m, vs) in metrics.as_obj().unwrap_or_default() {
                out.entry((w.clone(), m.clone())).or_default().extend(
                    vs.as_arr()
                        .unwrap_or_default()
                        .iter()
                        .filter_map(Value::as_f64),
                );
            }
        }
    }
    out
}

fn workload_order(results: &Value) -> Vec<String> {
    let sets = results
        .get("sets")
        .and_then(Value::as_arr)
        .unwrap_or_default();
    sets.first()
        .and_then(Value::as_obj)
        .unwrap_or_default()
        .iter()
        .map(|(w, _)| w.clone())
        .collect()
}

/// The spread table `run` prints: per (workload, metric), median,
/// quartiles and spread against a third of the bound.
fn summary(results: &Value) -> String {
    let values = pooled(results, None);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<13} {:<12} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for w in workload_order(results) {
        for (m, unit, _, bound) in bounds(results) {
            let Some(vs) = values.get(&(w.clone(), m.clone())) else {
                continue;
            };
            let (q1, q3) = quartiles(vs);
            let s = spread(vs);
            let flag = if m != "setup_s" && s >= bound / 3.0 {
                "  <-- spread ≥ bound/3"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{w:<13} {m:<12} {:>14.4} {q1:>14.4} {q3:>14.4} {:>7.2}% {:>5.0}%{flag}  {unit}",
                median(vs),
                s * 100.0,
                bound * 100.0
            );
        }
    }
    out
}

/// `FILE[@SET]`: a results file and an optional set index.
fn load(arg: &str) -> Result<(Value, Option<usize>), String> {
    let (path, set) = match arg.rsplit_once('@') {
        Some((p, s)) if !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) => {
            (p, Some(s.parse::<usize>().map_err(|e| e.to_string())?))
        }
        _ => (arg, None),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok((json::parse(&text)?, set))
}

fn diff(args: &[String]) -> Result<(), String> {
    let [old_arg, new_arg] = args else {
        return Err("usage: benchmark diff OLD.json[@SET] NEW.json[@SET]".into());
    };
    let (old, old_set) = load(old_arg)?;
    let (new, new_set) = load(new_arg)?;
    let (ov, nv) = (pooled(&old, old_set), pooled(&new, new_set));
    let mut spec = bounds(&new);
    if spec.is_empty() {
        spec = bounds(&old);
    }
    println!(
        "{:<13} {:<12} {:>30} {:>30} {:>6}  verdict",
        "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "bound"
    );
    for w in workload_order(&new) {
        for (m, _, better, bound) in &spec {
            let key = (w.clone(), m.clone());
            let (Some(o), Some(n)) = (ov.get(&key), nv.get(&key)) else {
                continue;
            };
            let show = |vs: &[f64]| {
                let (q1, q3) = quartiles(vs);
                format!("{:.4} [{q1:.4}, {q3:.4}]", median(vs))
            };
            println!(
                "{w:<13} {m:<12} {:>30} {:>30} {:>5.0}%  {}",
                show(o),
                show(n),
                bound * 100.0,
                verdict(o, n, better == "lower", *bound)
            );
        }
    }
    // traced layer tables, side by side
    let traced = |v: &Value| {
        v.get("traced")
            .and_then(Value::as_obj)
            .map(<[_]>::to_vec)
            .unwrap_or_default()
    };
    let old_traced = traced(&old);
    for (w, layers) in traced(&new) {
        let before = old_traced.iter().find(|(ow, _)| *ow == w).map(|(_, l)| l);
        println!("\nlayers: {w}");
        for (m, v) in layers.as_obj().unwrap_or_default() {
            let n = v.as_f64().unwrap_or(f64::NAN);
            let o = before.and_then(|l| l.get(m)).and_then(Value::as_f64);
            let delta = match o {
                Some(o) if o != 0.0 => format!("{:+.1}%", (n - o) / o * 100.0),
                _ => String::new(),
            };
            let old_text = o.map_or_else(|| "-".to_owned(), |o| format!("{o:.4}"));
            println!("  {m:<36} {old_text:>14} {n:>14.4} {delta:>9}");
        }
    }
    Ok(())
}

/// better / worse / unchanged / unresolved, by the rule the bound is
/// fixed for: a spread wider than the bound is unresolved unless every
/// new run beats every old run; a median worse by more than the bound is
/// worse; a median better by more than the old runs' own spread is
/// better.
fn verdict(old: &[f64], new: &[f64], lower_better: bool, bound: f64) -> &'static str {
    let (o, n) = (median(old), median(new));
    let gain = if o == 0.0 {
        0.0
    } else if lower_better {
        (o - n) / o.abs()
    } else {
        (n - o) / o.abs()
    };
    let beats = |a: f64, b: f64| if lower_better { a < b } else { a > b };
    let all_better = new.iter().all(|&x| old.iter().all(|&y| beats(x, y)));
    if spread(old).max(spread(new)) > bound {
        if all_better {
            "better"
        } else {
            "unresolved"
        }
    } else if -gain > bound {
        "worse"
    } else if gain > 0.0 && gain > spread(old) {
        "better"
    } else {
        "unchanged"
    }
}
