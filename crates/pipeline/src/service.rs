//! The compilation service: schedulable, cacheable compile→analyze jobs.
//!
//! A [`Pipeline`] owns a [`ThreadPool`] and an [`ArtifactStore`]. Work
//! arrives as the cells of a [`SweepSpec`](crate::sweep::SweepSpec) —
//! (unit, config, machine) triples — and each cell becomes **one** pool
//! task: cache lookup, then on a miss compile + translation-validate,
//! WCET-analyze and store. Cells run in any order on any worker; the
//! results come back in cell order. The cells of one unit compile through
//! one [`CompileSession`], so the pass prefix their configs share runs
//! once — in whichever cell first needs it, while a sibling that needs it
//! meanwhile waits for it.
//!
//! **Incrementality falls out of content addressing**: there is no
//! explicit dirty-bit protocol. A changed node changes its generated
//! source, which changes its [`unit_key`], which misses; every
//! untouched node hits and replays its stored verdict and WCET report.
//! The dirty *cone* is exactly the set of units whose key changed —
//! shared-global rewiring shows up in the consumer node's generated
//! source, so consumers of a changed signal miss too.

use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use vericomp_arch::MachineConfig;
use vericomp_core::{CompileError, CompileSession, PassConfig};
use vericomp_wcet::AnalysisError;

use crate::pool::ThreadPool;
use crate::stats::{saturating_nanos, PipelineStats};
use crate::store::{unit_key, Artifact, ArtifactStore, Verdict};
use crate::sweep::{SweepCell, SweepUnit};
use crate::trace::{RunTrace, Span};

/// Configuration of a [`Pipeline`]. The target machine is not one of
/// them: each sweep names its machines, and one that names none compiles
/// for [`MachineConfig::mpc755`].
#[derive(Debug, Clone, Default)]
pub struct PipelineOptions {
    /// Worker threads; `0` selects the machine's available parallelism.
    pub jobs: usize,
    /// Artifact-cache directory; `None` keeps the cache in memory only.
    pub cache_dir: Option<PathBuf>,
}

impl PipelineOptions {
    /// The conventional persistent cache location, `target/vericomp-cache/`.
    #[must_use]
    pub fn default_cache_dir() -> PathBuf {
        PathBuf::from("target/vericomp-cache")
    }

    /// A validating builder over the same fields.
    #[must_use]
    pub fn builder() -> PipelineOptionsBuilder {
        PipelineOptionsBuilder {
            options: PipelineOptions::default(),
        }
    }
}

/// Hard ceiling on `jobs`: beyond this, a typo (e.g. `--jobs 80000`)
/// would exhaust address space on thread stacks, not add parallelism.
pub const MAX_JOBS: usize = 512;

/// Rejected [`PipelineOptionsBuilder`] settings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptionsError {
    /// `jobs` exceeds [`MAX_JOBS`].
    TooManyJobs(usize),
    /// The cache directory is the empty path.
    EmptyCacheDir,
}

impl fmt::Display for OptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptionsError::TooManyJobs(n) => {
                write!(f, "jobs = {n} exceeds the ceiling of {MAX_JOBS}")
            }
            OptionsError::EmptyCacheDir => write!(f, "cache directory must not be empty"),
        }
    }
}

impl std::error::Error for OptionsError {}

/// Builder for [`PipelineOptions`] that validates its settings at
/// [`build`](PipelineOptionsBuilder::build) time instead of letting bad
/// values surface as thread-spawn or I/O failures deep in a run.
#[derive(Debug, Clone)]
pub struct PipelineOptionsBuilder {
    options: PipelineOptions,
}

impl PipelineOptionsBuilder {
    /// Worker threads; `0` (the default) selects the machine's available
    /// parallelism.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.options.jobs = jobs;
        self
    }

    /// Persist the artifact cache under `dir`.
    #[must_use]
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.options.cache_dir = Some(dir.into());
        self
    }

    /// Validates and returns the options.
    ///
    /// # Errors
    ///
    /// [`OptionsError`] on a `jobs` count above [`MAX_JOBS`] or an empty
    /// cache-directory path.
    pub fn build(self) -> Result<PipelineOptions, OptionsError> {
        if self.options.jobs > MAX_JOBS {
            return Err(OptionsError::TooManyJobs(self.options.jobs));
        }
        if let Some(dir) = &self.options.cache_dir {
            if dir.as_os_str().is_empty() {
                return Err(OptionsError::EmptyCacheDir);
            }
        }
        Ok(self.options)
    }
}

/// How one sweep cell was produced.
#[derive(Debug, Clone)]
pub struct UnitOutcome {
    /// Whether the artifact came from the cache (verdict replayed).
    pub cached: bool,
    /// The validated artifact: binary + verdict + WCET report.
    pub artifact: Arc<Artifact>,
}

/// Errors of a pipeline run. Every cell still runs to completion; the
/// first failing cell in sweep (flattening) order wins, whatever the job
/// count.
#[derive(Debug)]
pub enum PipelineError {
    /// A unit failed to compile (including translation-validator
    /// rejections — nothing is cached for it).
    Compile {
        /// Unit display name.
        unit: String,
        /// The underlying compiler error.
        error: CompileError,
    },
    /// A unit compiled but its WCET analysis failed.
    Analyze {
        /// Unit display name.
        unit: String,
        /// The underlying analysis error.
        error: AnalysisError,
    },
    /// The artifact cache could not be read or written.
    Cache(io::Error),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Compile { unit, error } => write!(f, "{unit}: compile: {error}"),
            PipelineError::Analyze { unit, error } => write!(f, "{unit}: analyze: {error}"),
            PipelineError::Cache(e) => write!(f, "artifact cache: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// The parallel compilation service.
#[derive(Debug)]
pub struct Pipeline {
    pool: ThreadPool,
    store: Arc<ArtifactStore>,
    /// One WCET analyzer session shared by every run: its hash-cons arena
    /// pool and per-function fact cache stay warm across runs (the
    /// daemon keeps one `Pipeline` alive per store for exactly this).
    analyzer: Arc<vericomp_wcet::Analyzer>,
}

impl Pipeline {
    /// Builds a pipeline from options.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Cache`] when the cache directory cannot be created.
    pub fn new(options: &PipelineOptions) -> Result<Pipeline, PipelineError> {
        let store = match &options.cache_dir {
            Some(dir) => ArtifactStore::persistent(dir).map_err(PipelineError::Cache)?,
            None => ArtifactStore::in_memory(),
        };
        Ok(Pipeline {
            pool: ThreadPool::new(options.jobs),
            store: Arc::new(store),
            analyzer: Arc::new(vericomp_wcet::Analyzer::default()),
        })
    }

    /// Builds a pipeline over a caller-owned store. The daemon uses this
    /// to run every request's sweep against its one warm, bounded store;
    /// `options.cache_dir` is ignored (the store decides persistence).
    #[must_use]
    pub fn with_store(options: &PipelineOptions, store: Arc<ArtifactStore>) -> Pipeline {
        Pipeline {
            pool: ThreadPool::new(options.jobs),
            store,
            analyzer: Arc::new(vericomp_wcet::Analyzer::default()),
        }
    }

    /// An in-memory pipeline with default parallelism (the drop-in for
    /// drivers that previously compiled serially).
    #[must_use]
    pub fn in_memory() -> Pipeline {
        Pipeline::new(&PipelineOptions::default()).expect("in-memory pipeline cannot fail")
    }

    /// Worker-thread count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.pool.threads()
    }

    /// The artifact store.
    #[must_use]
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// The WCET analyzer session backing this pipeline; its fact cache
    /// stays warm across every run this pipeline executes.
    #[must_use]
    pub fn analyzer(&self) -> &vericomp_wcet::Analyzer {
        &self.analyzer
    }

    /// Runs the (units × configs × machines) cross product on the pool
    /// and returns its cells **in flattening order** (unit-major, then
    /// config, then machine) plus the aggregate run stats and the run's
    /// span trace. This is the one engine every public entry point
    /// funnels through; the axes arrive with their defaults applied.
    ///
    /// `epoch` anchors every span timestamp: single sweeps pass their own
    /// submission instant, the lattice search passes one search-wide epoch
    /// so all generations land on a single timeline.
    pub(crate) fn run_cells(
        &self,
        units: &[SweepUnit],
        configs: &[(String, PassConfig)],
        machines: &[(String, MachineConfig)],
        epoch: Instant,
    ) -> Result<(Vec<SweepCell>, PipelineStats, RunTrace), PipelineError> {
        let submitted = Instant::now();
        let (nc, nm) = (configs.len(), machines.len());
        let n = units.len() * nc * nm;
        // flat cell index → (unit, config, machine) axis positions
        let coords = |i: usize| (i / (nc * nm), i / nm % nc, i % nm);
        // the cells of a unit share it: the AST, canonical text, source
        // digest (the cache-key material) and entry are never copied per
        // cell
        let shared: Vec<Arc<SweepUnit>> = units.iter().cloned().map(Arc::new).collect();
        // ...and one compile session, which runs each pass prefix their
        // configs share once; the first of them to miss the store builds
        // it, so a unit whose cells all hit builds none
        let unit_cells: Arc<[PassConfig]> = (0..nc * nm).map(|k| configs[k / nm].1).collect();
        let sessions: Vec<Arc<OnceLock<CompileSession>>> =
            units.iter().map(|_| Arc::default()).collect();
        let tasks = (0..n)
            .map(|i| {
                let (u, c, m) = coords(i);
                let cell = CellJob {
                    job: i as u32,
                    unit: Arc::clone(&shared[u]),
                    session: Arc::clone(&sessions[u]),
                    unit_cells: Arc::clone(&unit_cells),
                    label: configs[c].0.clone(),
                    passes: configs[c].1,
                    machine: machines[m].1.clone(),
                    store: Arc::clone(&self.store),
                    analyzer: Arc::clone(&self.analyzer),
                    submitted,
                    epoch,
                };
                Box::new(move || {
                    let mut spans = Vec::new();
                    let outcome = cell.run(&mut spans);
                    (outcome, spans)
                }) as Box<dyn FnOnce() -> CellRun + Send>
            })
            .collect();
        // the tasks now hold the only references: a unit's session, and
        // the states it keeps, are freed with the unit's last cell
        drop(sessions);
        let ran = self.pool.run_all(tasks);
        let wall = submitted.elapsed();

        let mut trace = RunTrace::new();
        let mut cells = Vec::with_capacity(n);
        // results arrive in cell order: the error is the first failing
        // cell's, a pure function of the work; spans go in (cell index,
        // recording order), and their counts are pure functions of the work
        // too (which cell ran a shared pass is not)
        for (i, (outcome, spans)) in ran.into_iter().enumerate() {
            let outcome = outcome?;
            for span in spans {
                trace.push(span);
            }
            let (u, c, m) = coords(i);
            cells.push(SweepCell {
                unit: units[u].name.clone(),
                config: configs[c].0.clone(),
                machine: machines[m].0.clone(),
                outcome,
            });
        }
        let stats = PipelineStats {
            wall_ns: saturating_nanos(wall),
            ..PipelineStats::from_spans(trace.spans())
        };
        Ok((cells, stats, trace))
    }
}

/// What one cell's pool task returns: its outcome and its spans, in
/// recording order.
type CellRun = (Result<UnitOutcome, PipelineError>, Vec<Span>);

/// One sweep cell's work, moved onto a pool worker.
struct CellJob {
    /// The cell's flat index (the span `job` field).
    job: u32,
    unit: Arc<SweepUnit>,
    /// The compile session of the unit's cells, once one of them missed.
    session: Arc<OnceLock<CompileSession>>,
    /// The pass selection of each of the unit's cells.
    unit_cells: Arc<[PassConfig]>,
    label: String,
    passes: PassConfig,
    machine: MachineConfig,
    store: Arc<ArtifactStore>,
    analyzer: Arc<vericomp_wcet::Analyzer>,
    /// When the sweep was queued; the cell's queue wait starts here.
    submitted: Instant,
    /// The instant every span timestamp is relative to.
    epoch: Instant,
}

impl CellJob {
    /// Runs the cell and records its spans, in order, into `spans`: queue
    /// wait and cache lookup, then on a miss compile (with the spans of
    /// the passes this cell ran, not of those it took from the unit's
    /// session), analyze (with its fixpoint and reuse events) and store.
    /// The machine digest is part of the key, so cells targeting
    /// different machines never alias in the store, and the store inserts
    /// only after the validators accepted and the analysis succeeded.
    fn run(self, spans: &mut Vec<Span>) -> Result<UnitOutcome, PipelineError> {
        let job = self.job;
        let detail = format!("unit={} config={}", self.unit.name, self.label);
        let since_epoch = |at: Instant| saturating_nanos(at.saturating_duration_since(self.epoch));
        let stage = |name: &str, at: Instant, took: Duration| {
            Span::stage(name, job, since_epoch(at), saturating_nanos(took), &detail)
        };
        spans.push(stage(
            "queue-wait",
            self.submitted,
            self.submitted.elapsed(),
        ));
        // the unit's memoized source digest names it in the key: its text
        // is printed and hashed once per unit, not per cell, and a served
        // unit brings the digest its upload was verified against
        let key = unit_key(
            self.unit.source_digest(),
            &self.unit.entry,
            &self.passes,
            &self.machine,
        );
        let t = Instant::now();
        let hit = self.store.lookup(key, &self.machine);
        spans.push(stage("cache-lookup", t, t.elapsed()));
        if let Some(artifact) = hit {
            return Ok(UnitOutcome {
                cached: true,
                artifact,
            });
        }

        let t = Instant::now();
        let mut pass_times = PassTimes(Vec::new());
        let session = self.session.get_or_init(|| {
            CompileSession::new(
                Arc::clone(&self.unit.source),
                &self.unit.entry,
                &self.unit_cells,
            )
        });
        let compiled = session.compile(&self.passes, &self.machine, &mut pass_times);
        spans.push(stage("compile", t, t.elapsed()));
        let base = since_epoch(t);
        for (name, start, took) in pass_times.0 {
            spans.push(Span::pass(
                name,
                job,
                base.saturating_add(saturating_nanos(start)),
                saturating_nanos(took),
                &detail,
            ));
        }
        let program = compiled.map_err(|error| PipelineError::Compile {
            unit: self.unit.name.clone(),
            error,
        })?;

        let t = Instant::now();
        let analyzed = self.analyzer.analyze(&vericomp_wcet::AnalysisRequest::new(
            &program,
            &self.unit.entry,
        ));
        spans.push(stage("analyze", t, t.elapsed()));
        let analysis = analyzed.map_err(|error| PipelineError::Analyze {
            unit: self.unit.name.clone(),
            error,
        })?;
        // one provenance event per function body the session analyzer ran
        // its fixpoints on, and one per body replayed from the fact cache
        let base = since_epoch(t);
        for _ in 0..analysis.functions_analyzed {
            spans.push(Span::event("analyze:fixpoint", job, base, &detail));
        }
        for _ in 0..analysis.functions_reused {
            spans.push(Span::event("analyze:reuse", job, base, &detail));
        }

        let artifact = Artifact {
            key,
            entry: self.unit.entry.clone(),
            label: self.label,
            program,
            verdict: Verdict::from_passes(&self.passes),
            report: analysis.into_report(),
        };
        let t = Instant::now();
        let inserted = self.store.insert(artifact);
        spans.push(stage("store", t, t.elapsed()));
        Ok(UnitOutcome {
            cached: false,
            artifact: inserted.map_err(PipelineError::Cache)?,
        })
    }
}

/// Observer buffering (name, start, took) per compiled unit; the offsets
/// are rebased onto the compile span after the fact.
struct PassTimes(Vec<(&'static str, Duration, Duration)>);

impl vericomp_core::PassObserver for PassTimes {
    fn pass(&mut self, name: &'static str, start: Duration, took: Duration) {
        self.0.push((name, start, took));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanKind;
    use vericomp_core::{Compiler, OptLevel};
    use vericomp_dataflow::{fleet, Application, Node};

    fn suite_prefix(n: usize) -> Vec<Node> {
        let mut nodes = fleet::named_suite();
        nodes.truncate(n);
        nodes
    }

    #[test]
    fn fleet_compiles_and_matches_serial_compiler() {
        let nodes = suite_prefix(6);
        let pipeline = Pipeline::in_memory();
        let result = pipeline
            .run_sweep(&crate::sweep::SweepSpec::new().nodes(&nodes))
            .expect("fleet compiles");
        assert_eq!(result.cell_count(), nodes.len());
        assert_eq!(result.stats.jobs_run, nodes.len() as u64);
        assert_eq!(result.stats.jobs_cached, 0);
        for (node, cell) in nodes.iter().zip(result.cells()) {
            assert_eq!(cell.unit, node.name());
            assert!(!cell.outcome.cached);
            let serial = Compiler::new(OptLevel::Verified)
                .compile(&node.to_minic(), "step")
                .expect("serial compiles");
            assert_eq!(
                serial.encode_text(),
                cell.outcome.artifact.program.encode_text()
            );
            let report = vericomp_wcet::Analyzer::default()
                .analyze(&vericomp_wcet::AnalysisRequest::new(&serial, "step"))
                .expect("serial analyzes")
                .report;
            assert_eq!(report.wcet, cell.outcome.artifact.report.wcet);
        }
    }

    /// The session analyzer is shared across runs: its fact cache warms up,
    /// and bounds stay identical to a cold analyzer session's.
    #[test]
    fn session_analyzer_reuses_facts_without_changing_bounds() {
        let nodes = suite_prefix(5);
        let pipeline = Pipeline::in_memory();
        let passes = PassConfig::for_level(OptLevel::OptFull);
        let spec = crate::sweep::SweepSpec::new()
            .nodes(&nodes)
            .config("opt-full", &passes);
        let cold = pipeline.run_sweep(&spec).expect("cold run");
        assert_eq!(cold.stats.jobs_run, nodes.len() as u64);
        // each cell records one event per function body it ran a fixpoint on
        assert!(cold.trace().count_of(SpanKind::Event, "analyze:fixpoint") >= nodes.len() as u64);
        // the warm run is all store hits — the analyzer never runs
        let warm = pipeline.run_sweep(&spec).expect("warm run");
        assert_eq!(warm.stats.jobs_cached, nodes.len() as u64);
        assert_eq!(cold.digest(), warm.digest());
        for (kind, name) in [
            (SpanKind::Stage, "analyze"),
            (SpanKind::Event, "analyze:fixpoint"),
            (SpanKind::Event, "analyze:reuse"),
        ] {
            assert_eq!(warm.trace().count_of(kind, name), 0, "warm run: {name}");
        }
        // re-analyzing the artifacts through the warm session must replay
        // every function from the fact cache — the facts persisted —
        // bit-identically
        for cell in cold.cells() {
            let a = &cell.outcome.artifact;
            let again = pipeline
                .analyzer()
                .analyze(&vericomp_wcet::AnalysisRequest::new(&a.program, &a.entry))
                .expect("re-analysis");
            assert_eq!(again.report.wcet, a.report.wcet);
            assert_eq!(again.functions_analyzed, 0, "all facts cached");
            assert!(again.functions_reused >= 1);
        }
    }

    #[test]
    fn dirty_node_recompiles_only_its_cone() {
        let mut nodes = suite_prefix(6);
        let pipeline = Pipeline::in_memory();
        pipeline
            .run_sweep(&crate::sweep::SweepSpec::new().nodes(&nodes))
            .expect("cold run");
        // "edit" one node: swap it for a differently-shaped node under the
        // same name slot in the fleet vector.
        nodes[2] = fleet::named_suite().swap_remove(10);
        let warm = pipeline
            .run_sweep(&crate::sweep::SweepSpec::new().nodes(&nodes))
            .expect("warm run");
        // one dirty unit... unless the swapped-in node was already cached
        // under its own key from the cold run — it was not (index 10 is not
        // in the first 6).
        assert_eq!(warm.stats.jobs_run, 1);
        assert_eq!(warm.stats.jobs_cached, 5);
    }

    #[test]
    fn validator_rejection_caches_nothing() {
        // A compile failure must leave the store empty for that key.
        // `full_palette: false` with schedule+validators is fine, so force a
        // failure instead with an entry point that does not exist.
        let node = &suite_prefix(1)[0];
        let pipeline = Pipeline::in_memory();
        let spec = crate::sweep::SweepSpec::new().unit(crate::sweep::SweepUnit::from_source(
            "broken",
            node.to_minic(),
            "no_such_entry",
        ));
        let err = pipeline.run_sweep(&spec).expect_err("must fail");
        assert!(matches!(err, PipelineError::Compile { .. }));
        assert_eq!(pipeline.store().resident(), 0);
    }

    /// Every cell runs to completion and the sweep returns the first
    /// failing cell in flattening order, not the first failure in time:
    /// `u3` fails fast at compile time, yet `u1`'s slower analysis
    /// failure wins at every job count.
    #[test]
    fn sweep_error_is_the_first_failing_cell_in_sweep_order() {
        use crate::sweep::{SweepSpec, SweepUnit};

        // `n` is an unannotated global: the loop has no bound witness
        let unbounded = vericomp_minic::parse::parse(
            "int n; void step() { int i; i = 0; while (i < n) { i = (i + 1); } }",
        )
        .expect("parses");
        let alone = Pipeline::in_memory()
            .run_sweep(&SweepSpec::new().unit(SweepUnit::from_source(
                "u1",
                unbounded.clone(),
                "step",
            )))
            .expect_err("unbounded loop");
        assert!(
            matches!(
                alone,
                PipelineError::Analyze {
                    error: AnalysisError::UnboundedLoop { .. },
                    ..
                }
            ),
            "{alone}"
        );

        let good = suite_prefix(3);
        let from_node = |name: &str, node: &Node| {
            SweepUnit::from_source(name, node.to_minic(), node.step_name())
        };
        let spec = SweepSpec::new()
            .unit(from_node("u0", &good[0]))
            .unit(SweepUnit::from_source("u1", unbounded, "step"))
            .unit(from_node("u2", &good[1]))
            .unit(SweepUnit::from_source(
                "u3",
                good[2].to_minic(),
                "no_such_entry",
            ))
            .unit(from_node("u4", &good[2]));
        for jobs in [1, 2, 8] {
            for _ in 0..20 {
                let options = PipelineOptions::builder()
                    .jobs(jobs)
                    .build()
                    .expect("valid options");
                let pipeline = Pipeline::new(&options).expect("in-memory pipeline");
                let err = pipeline.run_sweep(&spec).expect_err("two cells fail");
                assert!(
                    matches!(&err, PipelineError::Analyze { unit, .. } if unit == "u1"),
                    "jobs {jobs}: {err}"
                );
                assert_eq!(pipeline.store().resident(), 3, "jobs {jobs}");
            }
        }
    }

    #[test]
    fn application_image_is_cacheable() {
        let app = Application::new("fcs-slice", suite_prefix(4)).expect("app links");
        let pipeline = Pipeline::in_memory();
        let spec = crate::sweep::SweepSpec::new()
            .application(&app)
            .expect("app links")
            .level(OptLevel::Verified);
        let cold = pipeline.run_sweep(&spec).expect("cold");
        let warm = pipeline.run_sweep(&spec).expect("warm");
        assert_eq!(warm.stats.jobs_cached, 1);
        assert_eq!(cold.digest(), warm.digest());
        assert!(cold.cells()[0].outcome.artifact.report.callees.len() >= 4);
    }

    #[test]
    fn options_builder_validates() {
        let ok = PipelineOptions::builder()
            .jobs(4)
            .cache_dir("target/t")
            .build()
            .expect("valid options");
        assert_eq!(ok.jobs, 4);
        assert_eq!(
            ok.cache_dir.as_deref(),
            Some(std::path::Path::new("target/t"))
        );
        assert!(matches!(
            PipelineOptions::builder().jobs(100_000).build(),
            Err(OptionsError::TooManyJobs(100_000))
        ));
        assert!(matches!(
            PipelineOptions::builder().cache_dir("").build(),
            Err(OptionsError::EmptyCacheDir)
        ));
    }
}
