//! A plain-`std::time::Instant` benchmark harness (criterion stand-in).
//!
//! Each benchmark runs a caller-chosen number of iterations per batch,
//! timed over a fixed number of sample batches, so a run does the same
//! work whatever the machine's speed: any counter the benchmarked code
//! keeps repeats exactly from run to run. Results render as a table and
//! serialize to a `BENCH_<group>.json` machine-readable summary so
//! benchmark trajectories can accumulate across PRs without any external
//! crate.

use std::fmt::Write as _;
use std::fs;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Statistics of one benchmark.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Benchmark name within the group.
    pub name: String,
    /// Iterations per sample batch.
    pub iters_per_sample: u64,
    /// Number of sample batches.
    pub samples: u32,
    /// Mean nanoseconds per iteration.
    pub mean_ns: f64,
    /// Fastest batch, nanoseconds per iteration.
    pub min_ns: f64,
    /// Slowest batch, nanoseconds per iteration.
    pub max_ns: f64,
}

/// A named group of benchmarks.
#[derive(Debug)]
pub struct Bench {
    group: String,
    samples_per_bench: u32,
    results: Vec<Sample>,
    notes: Vec<(String, String)>,
}

impl Bench {
    /// Starts a group.
    #[must_use]
    pub fn group(name: &str) -> Bench {
        Bench {
            group: name.to_string(),
            samples_per_bench: 10,
            results: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Attaches a named raw-JSON annotation to the group — e.g. a
    /// representative run's `PipelineStats::to_json()` or a trace
    /// profile's `Profile::to_json()`. `raw_json` is embedded verbatim
    /// under `"notes"` in [`Bench::write_json`], so it must already be a
    /// valid JSON value.
    pub fn note(&mut self, name: &str, raw_json: &str) {
        self.notes.push((name.to_string(), raw_json.to_string()));
    }

    /// Times one closure over `iters` iterations per sample batch (at
    /// least one).
    pub fn bench<T>(&mut self, name: &str, iters: u64, mut f: impl FnMut() -> T) {
        let iters = iters.max(1);
        let mut per_iter: Vec<f64> = Vec::with_capacity(self.samples_per_bench as usize);
        for _ in 0..self.samples_per_bench {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_iter.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        let min = per_iter.iter().copied().fold(f64::INFINITY, f64::min);
        let max = per_iter.iter().copied().fold(0.0f64, f64::max);
        self.results.push(Sample {
            name: name.to_string(),
            iters_per_sample: iters,
            samples: self.samples_per_bench,
            mean_ns: mean,
            min_ns: min,
            max_ns: max,
        });
        eprintln!(
            "bench {}/{name}: mean {} (min {}, max {}, {iters} iters x {} samples)",
            self.group,
            fmt_ns(mean),
            fmt_ns(min),
            fmt_ns(max),
            self.samples_per_bench,
        );
    }

    /// Collected results.
    #[must_use]
    pub fn results(&self) -> &[Sample] {
        &self.results
    }

    /// Renders the group as an aligned table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "benchmark group `{}`:", self.group);
        let _ = writeln!(
            out,
            "{:<40} {:>12} {:>12} {:>12}",
            "benchmark", "mean", "min", "max"
        );
        for r in &self.results {
            let _ = writeln!(
                out,
                "{:<40} {:>12} {:>12} {:>12}",
                r.name,
                fmt_ns(r.mean_ns),
                fmt_ns(r.min_ns),
                fmt_ns(r.max_ns)
            );
        }
        out
    }

    /// Writes `BENCH_<group>.json` into `dir` — a flat, hand-rolled JSON
    /// document (no serde in the workspace).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_json(&self, dir: &Path) -> io::Result<std::path::PathBuf> {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"group\": \"{}\",", escape(&self.group));
        let _ = writeln!(s, "  \"unit\": \"ns_per_iter\",");
        let _ = writeln!(s, "  \"benches\": [");
        for (i, r) in self.results.iter().enumerate() {
            let comma = if i + 1 == self.results.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"mean\": {:.1}, \"min\": {:.1}, \"max\": {:.1}, \
                 \"iters_per_sample\": {}, \"samples\": {}}}{comma}",
                escape(&r.name),
                r.mean_ns,
                r.min_ns,
                r.max_ns,
                r.iters_per_sample,
                r.samples,
            );
        }
        if self.notes.is_empty() {
            let _ = writeln!(s, "  ]");
        } else {
            let _ = writeln!(s, "  ],");
            let _ = writeln!(s, "  \"notes\": {{");
            for (i, (name, raw)) in self.notes.iter().enumerate() {
                let comma = if i + 1 == self.notes.len() { "" } else { "," };
                let _ = writeln!(s, "    \"{}\": {raw}{comma}", escape(name));
            }
            let _ = writeln!(s, "  }}");
        }
        let _ = writeln!(s, "}}");
        let path = dir.join(format!("BENCH_{}.json", self.group));
        fs::write(&path, s)?;
        Ok(path)
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_the_given_work_and_serializes() {
        let mut g = Bench::group("selftest");
        let mut calls = 0u64;
        g.bench("counting", 64, || {
            calls += 1;
            // enough work per call that no batch can time as 0 ns
            (0..256u64).fold(calls, |acc, i| black_box(acc.wrapping_mul(31) ^ i))
        });
        assert_eq!(g.results().len(), 1);
        let r = &g.results()[0];
        assert_eq!(r.iters_per_sample, 64);
        assert_eq!(calls, 64 * u64::from(r.samples), "no calibration calls");
        assert!(r.mean_ns > 0.0 && r.min_ns <= r.mean_ns && r.mean_ns <= r.max_ns);

        let dir = std::env::temp_dir().join("vericomp-testkit-bench-test");
        let _ = fs::create_dir_all(&dir);
        g.note("stats", "{\"jobs_run\": 3}");
        let path = g.write_json(&dir).expect("writes");
        let text = fs::read_to_string(&path).expect("readable");
        assert!(text.contains("\"group\": \"selftest\""));
        assert!(text.contains("\"name\": \"counting\""));
        assert!(text.contains("\"notes\": {"));
        assert!(text.contains("\"stats\": {\"jobs_run\": 3}"));
        let _ = fs::remove_file(&path);
    }
}
