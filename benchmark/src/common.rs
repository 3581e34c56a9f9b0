//! Plumbing every workload shares: repeated set-up, the closed loop,
//! sampled output checks, the end-to-end metric set, and scratch space.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use vericomp_minic::ast::Program as SrcProgram;
use vericomp_pipeline::{RunTrace, SpanKind, SweepResult, SweepSpec, SweepUnit};
use vericomp_testkit::rng::{mix, Rng};
use vericomp_testkit::scenario::{ModeSpec, Scenario, ScenarioConfig};

use crate::checks::interp_matches_sim;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{Metric, Params, Workload};

/// An untraced run sets up at least this many times, and `setup_s` is
/// the median...
const SETUP_MIN_REPEATS: usize = 3;

/// ...repeating a cheap set-up until this many seconds are spent on it,
/// so that its median is not one page-fault storm...
const SETUP_MIN_S: f64 = 1.0;

/// ...but never more often than this.
const SETUP_MAX_REPEATS: usize = 25;

/// Cells per operation checked against the interpreter and simulator.
pub(crate) const CHECKED_CELLS: usize = 32;

/// Worker threads for every pipeline and the client thread cap.
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `setup` repeatedly (once when traced), returning the last state
/// and every repetition's wall time in seconds. Earlier states are
/// dropped before the next repetition starts.
pub(crate) fn setups<S>(
    params: &Params,
    tracer: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut state = None;
    let enough = |times: &[f64]| {
        params.traced
            || times.len() >= SETUP_MAX_REPEATS
            || (times.len() >= SETUP_MIN_REPEATS && times.iter().sum::<f64>() >= SETUP_MIN_S)
    };
    while times.is_empty() || !enough(&times) {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup(tracer)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one set-up ran"), times))
}

/// Results of a serial closed loop.
#[derive(Debug, Default)]
pub(crate) struct Loop {
    /// Timed-section latency of every successful operation, in ms.
    pub(crate) latencies_ms: Vec<f64>,
    /// Summed timed sections (failed operations count their wall time).
    pub(crate) window_s: f64,
    /// Operations started.
    pub(crate) attempted: u64,
    /// Operations that errored or failed an output check.
    pub(crate) failed: u64,
}

/// Runs `op(i)` back to back until the timed sections sum to `seconds`
/// (at least once). `op` returns the duration of its timed section —
/// checks it runs outside that section do not count — or a failure.
pub(crate) fn closed_loop(
    seconds: f64,
    mut op: impl FnMut(u64) -> Result<Duration, String>,
) -> Loop {
    let mut lp = Loop::default();
    while lp.attempted == 0 || lp.window_s < seconds {
        let wall = Instant::now();
        match op(lp.attempted) {
            Ok(took) => {
                lp.latencies_ms.push(took.as_secs_f64() * 1e3);
                lp.window_s += took.as_secs_f64();
            }
            Err(e) => {
                eprintln!("benchmark: operation {} failed: {e}", lp.attempted);
                lp.failed += 1;
                lp.window_s += wall.elapsed().as_secs_f64();
            }
        }
        lp.attempted += 1;
    }
    lp
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
///
/// The one timing metric is the fastest operation of the run. On a
/// shared two-core host the median and p99 move by 10-30 % between runs
/// of identical work, because neighbours slow the cores for seconds to
/// minutes at a time; the fastest operation is the one least disturbed,
/// and moves about half as much. The median, p99 and throughput are
/// printed to stderr for reading, not reported.
pub(crate) fn e2e_metrics(
    setup_s: &[f64],
    lp: &Loop,
    wcet_cycles: u64,
    code_bytes: u64,
) -> Vec<Metric> {
    let ops = lp.latencies_ms.len();
    eprintln!(
        "benchmark: {ops} operations ({} failed) in {:.2} s: min {:.3} ms, p50 {:.3} ms, \
         p99 {:.3} ms, {:.2}/s; {} set-ups, median {:.4} s",
        lp.failed,
        lp.window_s,
        percentile(&lp.latencies_ms, 0.0),
        percentile(&lp.latencies_ms, 0.5),
        percentile(&lp.latencies_ms, 0.99),
        ops as f64 / lp.window_s.max(f64::MIN_POSITIVE),
        setup_s.len(),
        median(setup_s)
    );
    vec![
        Metric::new("setup_s", median(setup_s), "s"),
        Metric::new("op_min_ms", percentile(&lp.latencies_ms, 0.0), "ms"),
        Metric::new("wcet_cycles", wcet_cycles as f64, "cycles"),
        Metric::new("code_bytes", code_bytes as f64, "bytes"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// The process's peak resident set (`VmHWM`), in MiB; 0 where `/proc`
/// is unavailable.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The first `k` indices of a seeded shuffle of `0..n`.
fn shuffled(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    let mut rng = Rng::seed_from_u64(seed);
    let k = k.min(n);
    for i in 0..k {
        let j = rng.gen_range(i..n);
        all.swap(i, j);
    }
    all.truncate(k);
    all
}

/// `k` distinct indices below `n`, seeded, in ascending order.
#[must_use]
pub(crate) fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut sample = shuffled(n, k, seed);
    sample.sort_unstable();
    sample
}

/// A seeded permutation of `0..n`.
#[must_use]
pub(crate) fn permutation(n: usize, seed: u64) -> Vec<usize> {
    shuffled(n, n, seed)
}

/// `spec`'s configurations and machines over `units`.
pub(crate) fn respec(spec: &SweepSpec, units: impl IntoIterator<Item = SweepUnit>) -> SweepSpec {
    let mut out = SweepSpec::new();
    for unit in units {
        out = out.unit(unit);
    }
    for (label, passes) in spec.configs() {
        out = out.config(label, passes);
    }
    for (label, machine) in spec.machines() {
        out = out.machine(label, machine);
    }
    out
}

/// `spec` with its units in the seeded order the run submits them in.
pub(crate) fn shuffle_units(spec: &SweepSpec, seed: u64) -> SweepSpec {
    let units = spec.units();
    respec(
        spec,
        permutation(units.len(), seed)
            .into_iter()
            .map(|i| units[i].clone()),
    )
}

/// Checks [`CHECKED_CELLS`] seeded cells of a sweep against the
/// interpreter and simulator; returns the failures.
pub(crate) fn check_sweep_cells(
    sweep: &SweepResult,
    sources: &[&SrcProgram],
    seed: u64,
) -> Vec<String> {
    let per_unit = sweep.cell_count() / sources.len().max(1);
    sample_indices(sweep.cell_count(), CHECKED_CELLS, seed)
        .into_iter()
        .filter_map(|i| {
            let cell = &sweep.cells()[i];
            interp_matches_sim(
                sources[i / per_unit.max(1)],
                &cell.outcome.artifact,
                mix(seed, i as u64),
            )
            .map_err(|e| format!("{} × {}: {e}", cell.unit, cell.config))
            .err()
        })
        .collect()
}

/// Turns a list of check failures into the operation's verdict.
pub(crate) fn verdict(took: Duration, failures: Vec<String>) -> Result<Duration, String> {
    if failures.is_empty() {
        Ok(took)
    } else {
        Err(failures.join("; "))
    }
}

/// Generates `workload`'s scenario as the `scenario.generate` layer.
pub(crate) fn generate(
    tracer: &mut Tracer,
    workload: Workload,
    tasks: usize,
    modes: Option<Vec<ModeSpec>>,
) -> Result<Scenario, String> {
    let mut builder = ScenarioConfig::builder()
        .name(workload.name())
        .tasks(tasks)
        .frames(8)
        .seed(workload.scenario_seed());
    if let Some(modes) = modes {
        builder = builder.modes(modes);
    }
    let config = builder.build().map_err(|e| e.to_string())?;
    tracer
        .time("scenario.generate", || Scenario::generate(&config))
        .map_err(|e| e.to_string())
}

/// What the traced run keeps from the workload's own sweeps: the stage
/// and pass rows of their span traces, and the counts behind the pool,
/// store and analyzer ratios.
#[derive(Debug, Default)]
pub struct SweepAgg {
    /// Durations of every `queue-wait` stage span, in ns.
    pub queue_wait_ns: Vec<u64>,
    /// Summed non-waiting stage spans (lookup, compile, analyze, store).
    pub busy_ns: u64,
    /// Summed sweep wall time × worker count.
    pub capacity_ns: u64,
    /// `cache-lookup` stage spans.
    pub lookups: u64,
    /// `compile` stage spans (store misses).
    pub compiles: u64,
    /// Function bodies the session analyzer ran fixpoints on.
    pub fixpoints: u64,
    /// Function bodies replayed from the analyzer's fact cache.
    pub reuses: u64,
    /// Profile rows `(kind, name) → (spans, ns)`, in first-seen order.
    pub rows: Vec<(String, u64, u64)>,
}

impl SweepAgg {
    /// Folds in one sweep's trace, run on `jobs` workers for `wall_ns`.
    pub fn absorb(&mut self, trace: &RunTrace, wall_ns: u64, jobs: usize) {
        for s in trace.spans() {
            match (s.kind, s.name.as_str()) {
                (SpanKind::Stage, "queue-wait") => self.queue_wait_ns.push(s.dur_ns),
                (SpanKind::Stage, name) => {
                    self.busy_ns += s.dur_ns;
                    match name {
                        "cache-lookup" => self.lookups += 1,
                        "compile" => self.compiles += 1,
                        _ => {}
                    }
                }
                (SpanKind::Event, "analyze:fixpoint") => self.fixpoints += 1,
                (SpanKind::Event, "analyze:reuse") => self.reuses += 1,
                _ => {}
            }
        }
        self.capacity_ns += wall_ns.saturating_mul(jobs as u64);
        for row in trace.profile().rows() {
            if row.kind == SpanKind::Event {
                continue;
            }
            let label = format!("{} {}", row.kind.cat(), row.name);
            match self.rows.iter_mut().find(|(l, _, _)| *l == label) {
                Some(r) => {
                    r.1 += row.count;
                    r.2 += row.total_ns;
                }
                None => self.rows.push((label, row.count, row.total_ns)),
            }
        }
    }
}

/// A per-run scratch directory under `.bench_out/` in the working
/// directory, removed (with its contents) on drop.
#[derive(Debug)]
pub(crate) struct Scratch(PathBuf);

impl Scratch {
    pub(crate) fn new(tag: &str) -> Result<Scratch, String> {
        let dir = Path::new(".bench_out").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub(crate) fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Summed WCET bounds and code bytes over a sweep's cells — the quality
/// of the generated code.
pub(crate) fn totals(sweep: &SweepResult) -> (u64, u64) {
    sweep.cells().iter().fold((0, 0), |(w, b), c| {
        (
            w + c.wcet(),
            b + c.outcome.artifact.program.code.len() as u64 * 4,
        )
    })
}
