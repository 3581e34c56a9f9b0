//! The compilation service: schedulable, cacheable compile→analyze jobs.
//!
//! A [`Pipeline`] owns a work-stealing [`ThreadPool`](crate::pool::ThreadPool)
//! and an [`ArtifactStore`]. Work arrives as the cells of a
//! [`SweepSpec`](crate::sweep::SweepSpec) — (unit, config, machine)
//! triples — and each cell becomes a two-stage chain in a [`JobGraph`]: a
//! *compile* job (cache lookup, then compile + translation-validate on a
//! miss) feeding an *analyze* job (WCET analysis + cache insert). Chains
//! of different cells are independent, so the stages of separate cells
//! overlap freely while each cell's stages stay ordered.
//!
//! **Incrementality falls out of content addressing**: there is no
//! explicit dirty-bit protocol. A changed node changes its generated
//! source, which changes its [`artifact_key`], which misses; every
//! untouched node hits and replays its stored verdict and WCET report.
//! The dirty *cone* is exactly the set of units whose key changed —
//! shared-global rewiring shows up in the consumer node's generated
//! source, so consumers of a changed signal miss too.

use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vericomp_arch::MachineConfig;
use vericomp_core::{CompileError, Compiler, OptLevel, PassConfig};
use vericomp_wcet::AnalysisError;

use crate::hash::Digest;
use crate::pool::{JobGraph, ThreadPool};
use crate::stats::{saturating_nanos, PipelineStats};
use crate::store::{artifact_key, Artifact, ArtifactStore, Verdict};
use crate::sweep::{SweepCell, SweepUnit};
use crate::trace::{RunTrace, Span, TraceSink};

/// Configuration of a [`Pipeline`].
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Worker threads; `0` selects the machine's available parallelism.
    pub jobs: usize,
    /// Artifact-cache directory; `None` keeps the cache in memory only.
    pub cache_dir: Option<PathBuf>,
    /// Target machine the units compile for (part of every cache key).
    pub machine: MachineConfig,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            jobs: 0,
            cache_dir: None,
            machine: MachineConfig::mpc755(),
        }
    }
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

    /// Persist the artifact cache under the conventional
    /// [`PipelineOptions::default_cache_dir`] location.
    #[must_use]
    pub fn default_cache_dir(self) -> Self {
        self.cache_dir(PipelineOptions::default_cache_dir())
    }

    /// Default target machine of the pipeline (sweeps may override it per
    /// cell through their machine axis).
    #[must_use]
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.options.machine = machine;
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

/// Errors of a pipeline run. The first failing unit wins; the run still
/// drains (no job is left queued).
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
    machine: MachineConfig,
    /// One WCET analyzer session shared by every run: its hash-cons arena
    /// pool and per-function fact cache stay warm across batches (the
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
            machine: options.machine.clone(),
            analyzer: Arc::new(vericomp_wcet::Analyzer::default()),
        })
    }

    /// Builds a pipeline over a caller-owned store. The daemon uses this
    /// to run every batch against its one warm, sharded store;
    /// `options.cache_dir` is ignored (the store decides persistence).
    #[must_use]
    pub fn with_store(options: &PipelineOptions, store: Arc<ArtifactStore>) -> Pipeline {
        Pipeline {
            pool: ThreadPool::new(options.jobs),
            store,
            machine: options.machine.clone(),
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

    /// The target machine configuration.
    #[must_use]
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The WCET analyzer session backing this pipeline. Its cumulative
    /// [`vericomp_wcet::AnalyzerStats`] expose fact-cache reuse across
    /// every run this pipeline executed.
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
        enum Stage1 {
            Hit(Arc<Artifact>),
            Fresh(Digest, vericomp_arch::Program),
            Failed,
        }

        /// Observer buffering (name, start, took) per compiled unit; the
        /// offsets are rebased onto the compile span after the fact.
        struct PassTimes(Vec<(&'static str, Duration, Duration)>);
        impl vericomp_core::PassObserver for PassTimes {
            fn pass(&mut self, name: &'static str, start: Duration, took: Duration) {
                self.0.push((name, start, took));
            }
        }

        let submitted = Instant::now();
        let since_epoch = move |at: Instant| saturating_nanos(at.saturating_duration_since(epoch));
        let (nc, nm) = (configs.len(), machines.len());
        let n = units.len() * nc * nm;
        // flat cell index → (unit, config, machine) axis positions
        let coords = |i: usize| (i / (nc * nm), i / nm % nc, i % nm);
        // the cells of a unit share it: the AST, canonical text (the
        // cache-key material) and entry are never copied per cell
        let shared: Vec<Arc<SweepUnit>> = units.iter().cloned().map(Arc::new).collect();
        // one span sink per cell, the only telemetry collector: each sink
        // is touched only by its own cell's two (strictly ordered) jobs,
        // so collection is contention-free, and the cell's stats are
        // derived from its spans once the job set completes
        let sinks: Arc<Vec<TraceSink>> = Arc::new((0..n).map(|_| TraceSink::new()).collect());
        let slots: Arc<Vec<Mutex<Option<(Stage1, Instant)>>>> =
            Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        let outcomes: Arc<Vec<Mutex<Option<UnitOutcome>>>> =
            Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        let first_error: Arc<Mutex<Option<PipelineError>>> = Arc::new(Mutex::new(None));

        let mut graph = JobGraph::new();
        for i in 0..n {
            let (u, c, m) = coords(i);
            let unit = Arc::clone(&shared[u]);
            let (label, passes) = (configs[c].0.clone(), configs[c].1);
            let machine = machines[m].1.clone();
            let detail = format!("unit={} config={label}", unit.name);
            let store = Arc::clone(&self.store);
            let sinks1 = Arc::clone(&sinks);
            let slots1 = Arc::clone(&slots);
            let errs1 = Arc::clone(&first_error);
            let unit1 = Arc::clone(&unit);
            let detail1 = detail.clone();
            // Stage 1: cache lookup, compile + validate on a miss. The
            // machine digest is part of `key`, so cells targeting
            // different machines never alias in the store.
            let compile = graph.add(&[], move || {
                let job = i as u32;
                let job_start = Instant::now();
                sinks1[i].push(Span::stage(
                    "queue-wait",
                    job,
                    since_epoch(submitted),
                    saturating_nanos(job_start.saturating_duration_since(submitted)),
                    &detail1,
                ));
                // the memoized canonical text *is* the key material: no
                // per-cell pretty-print on either the hit or miss path
                let key = artifact_key(unit1.canonical(), &unit1.entry, &passes, &machine);
                let t = Instant::now();
                let hit = store.lookup(key, &machine);
                let looked = t.elapsed();
                sinks1[i].push(Span::stage(
                    "cache-lookup",
                    job,
                    since_epoch(t),
                    saturating_nanos(looked),
                    &detail1,
                ));
                let stage = match hit {
                    Some(artifact) => Stage1::Hit(artifact),
                    None => {
                        let t = Instant::now();
                        let mut pass_times = PassTimes(Vec::new());
                        let compiled = Compiler::with_config(OptLevel::Verified, machine)
                            .compile_with_passes_observed(
                                &unit1.source,
                                &unit1.entry,
                                &passes,
                                &mut pass_times,
                            );
                        let took = t.elapsed();
                        let base = since_epoch(t);
                        sinks1[i].push(Span::stage(
                            "compile",
                            job,
                            base,
                            saturating_nanos(took),
                            &detail1,
                        ));
                        for (name, start, dur) in pass_times.0 {
                            sinks1[i].push(Span::pass(
                                name,
                                job,
                                base.saturating_add(saturating_nanos(start)),
                                saturating_nanos(dur),
                                &detail1,
                            ));
                        }
                        match compiled {
                            Ok(program) => Stage1::Fresh(key, program),
                            Err(error) => {
                                errs1.lock().expect("error lock").get_or_insert(
                                    PipelineError::Compile {
                                        unit: unit1.name.clone(),
                                        error,
                                    },
                                );
                                Stage1::Failed
                            }
                        }
                    }
                };
                *slots1[i].lock().expect("slot lock") = Some((stage, Instant::now()));
            });
            let sinks2 = Arc::clone(&sinks);
            let slots2 = Arc::clone(&slots);
            let outcomes2 = Arc::clone(&outcomes);
            let errs2 = Arc::clone(&first_error);
            let store2 = Arc::clone(&self.store);
            let analyzer2 = Arc::clone(&self.analyzer);
            // Stage 2: WCET analysis + cache insert (fresh units only).
            // Insertion happens strictly after stage 1 succeeded, i.e.
            // after the translation validators accepted the compilation.
            graph.add(&[compile], move || {
                let job = i as u32;
                let (stage, stage1_done) = slots2[i]
                    .lock()
                    .expect("slot lock")
                    .take()
                    .expect("stage 1 ran");
                let job_start = Instant::now();
                sinks2[i].push(Span::stage(
                    "queue-wait",
                    job,
                    since_epoch(stage1_done),
                    saturating_nanos(job_start.saturating_duration_since(stage1_done)),
                    &detail,
                ));
                let outcome = match stage {
                    Stage1::Failed => return,
                    Stage1::Hit(artifact) => UnitOutcome {
                        cached: true,
                        artifact,
                    },
                    Stage1::Fresh(key, program) => {
                        let t = Instant::now();
                        let analyzed = analyzer2
                            .analyze(&vericomp_wcet::AnalysisRequest::new(&program, &unit.entry));
                        let took = t.elapsed();
                        let base = since_epoch(t);
                        sinks2[i].push(Span::stage(
                            "analyze",
                            job,
                            base,
                            saturating_nanos(took),
                            &detail,
                        ));
                        let report = match analyzed {
                            Ok(analysis) => {
                                // one provenance event per function body the
                                // session analyzer ran its fixpoints on, and
                                // one per body replayed from the fact cache
                                for _ in 0..analysis.functions_analyzed {
                                    sinks2[i].push(Span::event(
                                        "analyze:fixpoint",
                                        job,
                                        base,
                                        &detail,
                                    ));
                                }
                                for _ in 0..analysis.functions_reused {
                                    sinks2[i].push(Span::event(
                                        "analyze:reuse",
                                        job,
                                        base,
                                        &detail,
                                    ));
                                }
                                analysis.into_report()
                            }
                            Err(error) => {
                                errs2.lock().expect("error lock").get_or_insert(
                                    PipelineError::Analyze {
                                        unit: unit.name.clone(),
                                        error,
                                    },
                                );
                                return;
                            }
                        };
                        let artifact = Artifact {
                            key,
                            entry: unit.entry.clone(),
                            label,
                            program,
                            verdict: Verdict::from_passes(&passes),
                            report,
                        };
                        let t = Instant::now();
                        let inserted = store2.insert(artifact);
                        let took = t.elapsed();
                        sinks2[i].push(Span::stage(
                            "store",
                            job,
                            since_epoch(t),
                            saturating_nanos(took),
                            &detail,
                        ));
                        match inserted {
                            Ok(artifact) => UnitOutcome {
                                cached: false,
                                artifact,
                            },
                            Err(error) => {
                                errs2
                                    .lock()
                                    .expect("error lock")
                                    .get_or_insert(PipelineError::Cache(error));
                                return;
                            }
                        }
                    }
                };
                *outcomes2[i].lock().expect("outcome lock") = Some(outcome);
            });
        }
        graph.run(&self.pool);

        if let Some(error) = first_error.lock().expect("error lock").take() {
            return Err(error);
        }
        let wall = submitted.elapsed();
        let mut aggregate = PipelineStats::default();
        let mut trace = RunTrace::new();
        let mut cells = Vec::with_capacity(n);
        // drain the sinks in cell order: span order becomes (cell index,
        // recording order), a pure function of the work
        for (i, (slot, sink)) in outcomes.iter().zip(sinks.iter()).enumerate() {
            let spans = sink.take();
            let stats = PipelineStats::from_spans(&spans);
            aggregate.merge(&stats);
            for span in spans {
                trace.push(span);
            }
            let (u, c, m) = coords(i);
            cells.push(SweepCell {
                unit: units[u].name.clone(),
                config: configs[c].0.clone(),
                machine: machines[m].0.clone(),
                outcome: slot
                    .lock()
                    .expect("outcome lock")
                    .take()
                    .expect("every unit succeeded"),
                stats,
            });
        }
        // the merge maxed per-cell walls (summed stage times); the run
        // aggregate reports the real end-to-end clock
        aggregate.wall_ns = saturating_nanos(wall);
        Ok((cells, aggregate, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let after_cold = pipeline.analyzer().stats();
        assert!(after_cold.functions_analyzed > 0);
        assert!(after_cold.facts_cached > 0, "facts must persist");
        // the warm run is all store hits — the analyzer never runs
        let warm = pipeline.run_sweep(&spec).expect("warm run");
        assert_eq!(warm.stats.jobs_cached, nodes.len() as u64);
        assert_eq!(cold.digest(), warm.digest());
        assert_eq!(pipeline.analyzer().stats(), after_cold);
        // re-analyzing the artifacts through the warm session must replay
        // every function from the fact cache, bit-identically
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
            .machine(MachineConfig::tiny_caches())
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
        let conventional = PipelineOptions::builder()
            .default_cache_dir()
            .build()
            .expect("valid");
        assert_eq!(
            conventional.cache_dir,
            Some(PipelineOptions::default_cache_dir())
        );
    }
}
