//! # vericomp-benchmark — the end-to-end and per-layer benchmark
//!
//! Four seeded workloads drive the toolchain the way its users do (see
//! `README.md` for why each exists):
//!
//! * [`Workload::ReleaseCold`] — the release build: a generated
//!   multi-rate scenario compiled cold at `pattern-O0`, `verified` and
//!   `opt-full`, then its schedule checked;
//! * [`Workload::DevRebuild`] — the engineer's edit loop: one unit edited,
//!   a fresh process-like pipeline over the on-disk `.vcart` store,
//!   exactly one recompilation;
//! * [`Workload::ServedMix`] — the compile daemon under a closed loop of
//!   clients sending 128-unit slices, 15 % of them with one edited unit;
//! * [`Workload::WcetSearch`] — the WCET-driven lattice search.
//!
//! Each workload compiles one fixed generated scenario (from
//! [`SCENARIO_SEED`]), so the code-quality metrics are exact and every
//! run does the same amount of work. The run seed makes everything else:
//! the order units reach the pipeline, which units are edited and how,
//! the request streams, and the cells sampled for output checks and for
//! the layer replay.
//!
//! One run sets up several times (`setup_s` is the median), runs its
//! operation in a closed loop for the given number of seconds, checks
//! outputs against the reference interpreter and the simulator, and
//! reports the end-to-end metrics. A traced run instead reports
//! per-layer metrics from a serial replay of sampled cells ([`replay`]).

mod checks;
mod common;
mod dev_rebuild;
pub mod json;
mod release_cold;
mod replay;
mod served_mix;
pub mod stats;
mod trace;
mod wcet_search;

/// Seed of a run when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// Generator seed of every workload's scenario. It is fixed, not taken
/// from the run seed: a scenario's summed WCET bounds vary by ~4 % from
/// one draw of 300 tasks to the next, more than a code-quality
/// regression the benchmark must catch.
pub const SCENARIO_SEED: u64 = 0xCC_2011;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold release build of a scenario at three configurations.
    ReleaseCold,
    /// One-unit edit, rebuilt through the persistent store.
    DevRebuild,
    /// Mixed repeat/edit requests against the compile daemon.
    ServedMix,
    /// WCET-driven pass-lattice search.
    WcetSearch,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ReleaseCold,
        Workload::DevRebuild,
        Workload::ServedMix,
        Workload::WcetSearch,
    ];

    /// The workload's name on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReleaseCold => "release_cold",
            Workload::DevRebuild => "dev_rebuild",
            Workload::ServedMix => "served_mix",
            Workload::WcetSearch => "wcet_search",
        }
    }

    /// The workload named `name`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Scenario task count of a benchmark run (tests pass smaller ones),
    /// sized so one run holds several operations on a two-core machine.
    #[must_use]
    pub fn default_tasks(self) -> usize {
        match self {
            Workload::ReleaseCold => 250,
            Workload::DevRebuild => 1000,
            Workload::ServedMix => 1000,
            Workload::WcetSearch => 50,
        }
    }

    /// Seed of the workload's scenario generator.
    #[must_use]
    pub fn scenario_seed(self) -> u64 {
        let index = Workload::ALL.iter().position(|w| *w == self).unwrap_or(0);
        vericomp_testkit::rng::mix(SCENARIO_SEED, index as u64)
    }
}

/// Parameters of one run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Run seed: the same seed makes the same inputs.
    pub seed: u64,
    /// Length of the measured loop, in seconds (at least one operation
    /// always runs).
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub traced: bool,
    /// Scenario task count.
    pub tasks: usize,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose outputs failed a check.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Whether every attempted operation succeeded with correct outputs.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`,
    /// `metrics`.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(&m.name),
                    json::num(m.value),
                    json::quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one workload.
///
/// # Errors
///
/// A set-up failure (scenario generation, the first build, the server
/// socket). Failures of individual operations are counted in
/// [`Outcome::failed`] instead.
pub fn run(workload: Workload, params: &Params) -> Result<Outcome, String> {
    match workload {
        Workload::ReleaseCold => release_cold::run(params),
        Workload::DevRebuild => dev_rebuild::run(params),
        Workload::ServedMix => served_mix::run(params),
        Workload::WcetSearch => wcet_search::run(params),
    }
}
