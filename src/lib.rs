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
//! The [`harness`] module holds the two one-shot calls the examples and
//! integration tests share: compile a node like CompCert, and bound a
//! binary's WCET. Everything else is the crates' own API: a WCET-driven
//! build is [`Pipeline::search_wcet`](pipeline::Pipeline::search_wcet)
//! seeded with [`pipeline::wcet_driven_candidates`], a scenario build is
//! [`Pipeline::run_sweep`](pipeline::Pipeline::run_sweep) of
//! [`Scenario::to_sweep_spec`](testkit::scenario::Scenario::to_sweep_spec)
//! then [`Scenario::check`](testkit::scenario::Scenario::check), and the
//! interpreter-vs-simulator comparison is [`testkit::oracle::Lockstep`].
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
    //! One-shot compile and WCET calls shared by the examples and tests.

    use crate::arch::Program;
    use crate::core::{CompileError, Compiler, OptLevel};
    use crate::dataflow::Node;
    use crate::wcet::AnalysisError;

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
}
