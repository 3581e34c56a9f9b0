//! # vericomp — verified optimizing compilation for flight control software
//!
//! A from-scratch Rust reproduction of *"Towards Formally Verified
//! Optimizing Compilation in Flight Control Software"* (Bedin França,
//! Favre-Félix, Leroy, Pantel, Souyris — PPES/DATE 2011). The workspace
//! rebuilds the paper's entire experimental stack:
//!
//! * [`dataflow`] — SCADE-like control-law specifications and the
//!   pattern-based automatic code generator,
//! * [`minic`] — the C-subset source language with a reference interpreter
//!   (the semantics compilers must preserve) and CompCert's
//!   `__builtin_annotation`,
//! * [`core`] — the optimizing compiler in the paper's four configurations,
//!   with translation validators standing in for CompCert's Coq proofs,
//! * [`arch`] — the PowerPC-750/755-subset ISA with real binary encodings,
//! * [`mach`] — the MPC755-like simulator (dual-issue pipeline, L1 caches,
//!   slow acquisitions) with cache/cycle performance counters,
//! * [`wcet`] — the aiT-like static WCET analyzer consuming the binary and
//!   the generated annotation file,
//! * [`pipeline`] — the parallel compilation service: std-only
//!   FIFO worker pool, content-addressed artifact cache (keyed on
//!   source, passes, machine config and toolchain stamps; populated only
//!   after translation validators accept), and incremental fleet rebuilds,
//! * [`testkit`] — hermetic test infrastructure, including the scenario
//!   suite: generated multi-rate cyclic executives with operating modes
//!   and declarative per-frame WCET-budget properties.
//!
//! The [`harness`] module glues these into the experiment pipelines used by
//! the examples, integration tests and benchmarks.
//!
//! # Quickstart
//!
//! ```
//! use vericomp::harness;
//! use vericomp::core::OptLevel;
//! use vericomp::dataflow::NodeBuilder;
//!
//! // a small control law
//! let mut b = NodeBuilder::new("demo");
//! let x = b.acquisition(0);
//! let f = b.first_order_filter(x, 0.25);
//! let s = b.saturation(f, -10.0, 10.0);
//! b.output("demo_out", s);
//! let node = b.build()?;
//!
//! // compile like CompCert, run one activation, bound its WCET
//! let binary = harness::compile_node(&node, OptLevel::Verified)?;
//! let mut sim = vericomp::mach::Simulator::new(binary.clone());
//! sim.set_io_f64(0, 3.5);
//! let outcome = sim.run(1_000_000)?;
//! let report = harness::analyze_wcet(&binary, "step")?;
//! assert!(report.wcet >= outcome.stats.cycles);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use vericomp_arch as arch;
pub use vericomp_core as core;
pub use vericomp_dataflow as dataflow;
pub use vericomp_mach as mach;
pub use vericomp_minic as minic;
pub use vericomp_pipeline as pipeline;
pub use vericomp_testkit as testkit;
pub use vericomp_wcet as wcet;

pub mod harness {
    //! Convenience pipelines tying the crates together.

    use std::fmt;

    use crate::arch::Program;
    use crate::core::{CompileError, Compiler, OptLevel};
    use crate::dataflow::Node;
    use crate::mach::Simulator;
    use crate::minic::interp::{Interp, Value};
    use crate::wcet::AnalysisError;

    pub use crate::pipeline::search::wcet_driven_candidates;
    pub use crate::testkit::oracle::traces_match;

    /// Compiles a dataflow node with the given compiler configuration.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`].
    pub fn compile_node(node: &Node, level: OptLevel) -> Result<Program, CompileError> {
        Compiler::new(level).compile(&node.to_minic(), node.step_name())
    }

    /// Bounds the WCET of `func` in `program` with a one-shot
    /// [`Analyzer`](crate::wcet::Analyzer) session. Drivers analyzing many
    /// related binaries should hold one `Analyzer` instead, so the
    /// session's fact cache and hash-cons arena amortize across calls.
    ///
    /// # Errors
    ///
    /// Any [`AnalysisError`].
    pub fn analyze_wcet(
        program: &Program,
        func: &str,
    ) -> Result<crate::wcet::WcetReport, AnalysisError> {
        crate::wcet::Analyzer::default()
            .analyze(&crate::wcet::AnalysisRequest::new(program, func))
            .map(crate::wcet::Analysis::into_report)
    }

    /// Error of the WCET-driven compilation driver.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum WcetDrivenError {
        /// A candidate failed to compile.
        Compile(CompileError),
        /// A candidate failed to analyze.
        Analyze(AnalysisError),
        /// The pipeline failed outside compile/analyze (e.g. an artifact
        /// cache layer) — rendered, so the error stays cloneable. An
        /// in-memory pipeline should degrade, not panic, if a cache layer
        /// is ever added to it.
        Pipeline(String),
    }

    impl fmt::Display for WcetDrivenError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                WcetDrivenError::Compile(e) => write!(f, "compile: {e}"),
                WcetDrivenError::Analyze(e) => write!(f, "analyze: {e}"),
                WcetDrivenError::Pipeline(msg) => write!(f, "pipeline: {msg}"),
            }
        }
    }

    impl std::error::Error for WcetDrivenError {}

    /// One evaluated candidate of the WCET-driven compilation: a seed of
    /// [`wcet_driven_candidates`] or an expanded lattice point of the
    /// [`search`](crate::pipeline::search).
    #[derive(Debug, Clone)]
    pub struct WcetCandidate {
        /// Candidate name (seed label or canonical lattice label).
        pub name: String,
        /// Its WCET bound.
        pub wcet: u64,
    }

    /// Runs the WCET-guided lattice search of one unit, seeded with
    /// [`wcet_driven_candidates`], and returns the full [`SearchResult`].
    ///
    /// [`SearchResult`]: crate::pipeline::SearchResult
    fn search_unit(
        pipeline: &crate::pipeline::Pipeline,
        unit: crate::pipeline::SweepUnit,
    ) -> Result<crate::pipeline::SearchResult, crate::pipeline::PipelineError> {
        let mut spec = crate::pipeline::SearchSpec::new().unit(unit);
        for (name, passes) in wcet_driven_candidates() {
            spec = spec.seed(name, &passes);
        }
        pipeline.search_wcet(&spec)
    }

    /// The candidate report of one completed node search: the
    /// [`wcet_driven_candidates`] seeds first (in seed order, duplicates
    /// of the same lattice point reported under each seed name), then
    /// every further lattice point the search probed, in probe order.
    fn candidate_report(search: &crate::pipeline::NodeSearch) -> Vec<WcetCandidate> {
        let seeds = wcet_driven_candidates();
        let seed_bits: Vec<u16> = seeds
            .iter()
            .map(|(_, passes)| crate::pipeline::config_bits(passes))
            .collect();
        let mut report: Vec<WcetCandidate> = seeds
            .iter()
            .map(|(name, passes)| WcetCandidate {
                name: (*name).to_owned(),
                wcet: search.wcet_of(passes).expect("every seed is probed"),
            })
            .collect();
        report.extend(
            search
                .probed
                .iter()
                .filter(|p| !seed_bits.contains(&p.bits))
                .map(|p| WcetCandidate {
                    name: p.label.clone(),
                    wcet: p.wcet,
                }),
        );
        report
    }

    /// **WCET-driven compilation** — the direction the paper's §4 sketches,
    /// after the WCC compiler of Falk et al.: "optimizations are evaluated
    /// using a WCET analysis tool and only applied when shown to be
    /// beneficial".
    ///
    /// The driver runs the pipeline's [`search_wcet`] over the `PassConfig`
    /// lattice, seeded with the fixed [`wcet_driven_candidates`] frontier
    /// (the verified baseline plus each full-optimizer extra in isolation
    /// and in combination), and returns the binary with the smallest
    /// analyzed bound together with every evaluated lattice point — the
    /// seeds first, then the search's expansions in probe order. Seeds
    /// probe before expansions and the first minimum wins ties, so
    /// whenever no expanded config strictly beats the seeds the selection
    /// is exactly the old fixed-candidate driver's. Every probe keeps the
    /// translation validators enabled, so the selection never trades
    /// correctness for time.
    ///
    /// [`search_wcet`]: crate::pipeline::Pipeline::search_wcet
    ///
    /// # Errors
    ///
    /// [`WcetDrivenError`] if any probe fails to compile or analyze (or,
    /// through [`WcetDrivenError::Pipeline`], if a pipeline cache layer
    /// fails).
    pub fn compile_wcet_driven(
        prog: &crate::minic::ast::Program,
        entry: &str,
    ) -> Result<(Program, Vec<WcetCandidate>), WcetDrivenError> {
        use crate::pipeline::{Pipeline, PipelineError, SweepUnit};

        let unit = SweepUnit::from_source("wcet-driven", prog.clone(), entry);
        let result = search_unit(&Pipeline::in_memory(), unit).map_err(|e| match e {
            PipelineError::Compile { error, .. } => WcetDrivenError::Compile(error),
            PipelineError::Analyze { error, .. } => WcetDrivenError::Analyze(error),
            e @ PipelineError::Cache(_) => WcetDrivenError::Pipeline(e.to_string()),
        })?;
        let node = result.nodes.into_iter().next().expect("one unit searched");
        let report = candidate_report(&node);
        Ok((node.artifact.program.clone(), report))
    }

    /// Error of [`compile_application_parallel`].
    #[derive(Debug)]
    pub enum ParallelBuildError {
        /// Linking the application's translation unit failed.
        Link(crate::dataflow::ApplicationError),
        /// A pipeline unit failed to compile or analyze.
        Pipeline(crate::pipeline::PipelineError),
    }

    impl fmt::Display for ParallelBuildError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                ParallelBuildError::Link(e) => write!(f, "link: {e}"),
                ParallelBuildError::Pipeline(e) => write!(f, "pipeline: {e}"),
            }
        }
    }

    impl std::error::Error for ParallelBuildError {}

    /// Result of [`compile_application_parallel`].
    #[derive(Debug)]
    pub struct ParallelBuild {
        /// The winning artifact: binary, replayable validator verdict and
        /// WCET report of the whole image.
        pub artifact: std::sync::Arc<crate::pipeline::Artifact>,
        /// Every evaluated lattice point with its WCET bound: the
        /// [`wcet_driven_candidates`] seeds first, then the search's
        /// expansions in probe order.
        pub candidates: Vec<WcetCandidate>,
        /// Pipeline run metrics (jobs run/cached, stage times, hit rate).
        pub stats: crate::pipeline::PipelineStats,
        /// The full search trace of the image: winner, probed lattice
        /// points, dominance-pruning decisions, generations.
        pub search: crate::pipeline::NodeSearch,
        /// Span telemetry of the build: per-stage and per-pass spans plus
        /// `search:*` provenance events, exportable as Chrome trace-event
        /// JSON or a deterministic profile table.
        pub trace: crate::pipeline::RunTrace,
    }

    /// WCET-driven compilation of a whole [`Application`] image on the
    /// parallel pipeline: the [`search_wcet`] lattice search of the linked
    /// image, seeded with [`wcet_driven_candidates`]. Each frontier
    /// generation's probes compile and analyze concurrently on the
    /// pipeline's worker pool, each cached content-addressed, and the binary
    /// with the smallest WCET bound wins (seeds probe first and the first
    /// minimum wins ties — the same selection rule as the serial
    /// [`compile_wcet_driven`]).
    ///
    /// [`Application`]: crate::dataflow::Application
    /// [`search_wcet`]: crate::pipeline::Pipeline::search_wcet
    ///
    /// # Errors
    ///
    /// [`ParallelBuildError`] on link, compile, analysis or cache failure.
    pub fn compile_application_parallel(
        app: &crate::dataflow::Application,
        options: &crate::pipeline::PipelineOptions,
    ) -> Result<ParallelBuild, ParallelBuildError> {
        use crate::pipeline::{Pipeline, SweepUnit};

        let pipeline = Pipeline::new(options).map_err(ParallelBuildError::Pipeline)?;
        let unit = SweepUnit::from_application(app).map_err(ParallelBuildError::Link)?;
        let result = search_unit(&pipeline, unit).map_err(ParallelBuildError::Pipeline)?;
        let trace = result.trace().clone();
        let stats = result.stats;
        let node = result.nodes.into_iter().next().expect("one unit searched");
        Ok(ParallelBuild {
            artifact: std::sync::Arc::clone(&node.artifact),
            candidates: candidate_report(&node),
            stats,
            search: node,
            trace,
        })
    }

    /// Result of [`compile_scenario`] / [`compile_scenario_with`]: the
    /// sweep over the scenario's deduplicated task variants joined with
    /// its schedulability report.
    #[derive(Debug)]
    pub struct ScenarioBuild {
        /// The full sweep result (artifacts, verdicts, WCET bounds, stats,
        /// trace) of every (unit × config × machine) cell.
        pub sweep: crate::pipeline::SweepResult,
        /// The joint property verdicts: one per (mode, frame, config,
        /// machine), with a digest that is bit-identical across job counts.
        pub report: crate::testkit::scenario::SchedReport,
    }

    /// Front-door compilation of a generated scenario on default axes
    /// (the `verified` config on the default machine): lowers the scenario
    /// through [`Scenario::to_sweep_spec`], runs the sweep on the parallel
    /// pipeline, and joins the analyzed WCET bounds back against the
    /// scenario's frame budgets.
    ///
    /// [`Scenario::to_sweep_spec`]: crate::testkit::scenario::Scenario::to_sweep_spec
    ///
    /// # Errors
    ///
    /// Any [`PipelineError`](crate::pipeline::PipelineError).
    pub fn compile_scenario(
        scenario: &crate::testkit::scenario::Scenario,
        options: &crate::pipeline::PipelineOptions,
    ) -> Result<ScenarioBuild, crate::pipeline::PipelineError> {
        let pipeline = crate::pipeline::Pipeline::new(options)?;
        compile_scenario_with(&pipeline, scenario, scenario.to_sweep_spec())
    }

    /// [`compile_scenario`] with an explicit pipeline and sweep spec —
    /// the spec must come from [`Scenario::to_sweep_spec`] (extra config /
    /// machine axes welcome; dropping units is not).
    ///
    /// [`Scenario::to_sweep_spec`]: crate::testkit::scenario::Scenario::to_sweep_spec
    ///
    /// # Errors
    ///
    /// Any [`PipelineError`](crate::pipeline::PipelineError).
    pub fn compile_scenario_with(
        pipeline: &crate::pipeline::Pipeline,
        scenario: &crate::testkit::scenario::Scenario,
        spec: crate::pipeline::SweepSpec,
    ) -> Result<ScenarioBuild, crate::pipeline::PipelineError> {
        let sweep = pipeline.run_sweep(&spec)?;
        let report = scenario.check(&sweep);
        Ok(ScenarioBuild { sweep, report })
    }

    /// A differential run of one node activation: the interpreter and the
    /// simulator execute the same step with the same inputs; outputs and
    /// annotation traces must agree.
    #[derive(Debug)]
    pub struct DiffRun {
        /// Simulator statistics of the activation.
        pub stats: crate::mach::RunStats,
    }

    /// Runs `steps` activations of `node` at `level` with per-activation
    /// inputs supplied by `inputs(step, port_or_global, is_io)` and checks
    /// interpreter/simulator agreement on every output global, actuator
    /// port and annotation trace.
    ///
    /// Returns the simulator statistics of the **last** activation.
    ///
    /// # Panics
    ///
    /// Panics (with context) on any disagreement — this is a test harness.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`] from compilation.
    pub fn differential_run(
        node: &Node,
        level: OptLevel,
        steps: u32,
        mut input_for: impl FnMut(u32, u32) -> f64,
    ) -> Result<DiffRun, CompileError> {
        let src = node.to_minic();
        let binary = compile_node(node, level)?;
        let mut interp = Interp::new(&src);
        let mut sim = Simulator::new(binary.clone());

        let io_ports: Vec<u32> = node
            .instances()
            .iter()
            .filter_map(|i| match i.kind {
                crate::dataflow::Symbol::Acquisition(p) => Some(p),
                _ => None,
            })
            .collect();
        let inputs: Vec<String> = src
            .globals
            .iter()
            .filter(|g| g.name.contains("_in") || g.name.ends_with("_cmd"))
            .map(|g| g.name.clone())
            .collect();

        let mut last_stats = None;
        for step in 0..steps {
            for (k, port) in io_ports.iter().enumerate() {
                let v = input_for(step, k as u32);
                interp.set_io(*port, v);
                sim.set_io_f64(*port, v);
            }
            for (k, name) in inputs.iter().enumerate() {
                let v = input_for(step, 100 + k as u32);
                if matches!(
                    src.global(name).map(|g| &g.def),
                    Some(crate::minic::ast::GlobalDef::ScalarF64(_))
                ) {
                    interp
                        .set_global(name, Value::F(v))
                        .expect("input global exists");
                    sim.set_global_f64(name, 0, v).expect("input global exists");
                }
            }

            interp.call(node.step_name(), &[]).unwrap_or_else(|e| {
                panic!("{} interpreter failed at step {step}: {e}", node.name())
            });
            let outcome = sim.run(10_000_000).unwrap_or_else(|e| {
                panic!(
                    "{} simulator failed at step {step} ({level}): {e}",
                    node.name()
                )
            });

            // outputs agree
            for g in &src.globals {
                match g.def {
                    crate::minic::ast::GlobalDef::ScalarF64(_) => {
                        let a = match interp.global(&g.name).expect("declared") {
                            Value::F(v) => v,
                            _ => unreachable!(),
                        };
                        let b = sim.global_f64(&g.name, 0).expect("declared");
                        assert!(
                            a.to_bits() == b.to_bits(),
                            "{} step {step} ({level}): global {} differs: {a} vs {b}",
                            node.name(),
                            g.name
                        );
                    }
                    crate::minic::ast::GlobalDef::ScalarI32(_) => {
                        let a = match interp.global(&g.name).expect("declared") {
                            Value::I(v) => v,
                            _ => unreachable!(),
                        };
                        let b = sim.global_i32(&g.name, 0).expect("declared");
                        assert_eq!(
                            a,
                            b,
                            "{} step {step} ({level}): global {} differs",
                            node.name(),
                            g.name
                        );
                    }
                    _ => {}
                }
            }
            // annotation traces agree
            let src_trace = interp.take_trace();
            assert!(
                traces_match(&outcome.annotations, &src_trace),
                "{} step {step} ({level}): annotation traces diverge",
                node.name()
            );
            last_stats = Some(outcome.stats);
        }
        Ok(DiffRun {
            stats: last_stats.expect("steps >= 1"),
        })
    }
}
