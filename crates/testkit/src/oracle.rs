//! The cross-layer differential fuzz oracle.
//!
//! One *case* is one randomly generated dataflow node pushed through the
//! entire pipeline under **all four** compiler configurations, with the
//! translation validators force-enabled, and cross-checked layer by layer:
//!
//! 1. **codegen** — the node's MiniC program typechecks (by construction);
//! 2. **compiler** — compilation succeeds and no translation validator
//!    rejects an unmutated pass result; the four configurations compiled
//!    through one shared `CompileSession` equal their fresh compiles bit
//!    for bit (the **sharing** check);
//! 3. **binary** — the emitted program round-trips bit-exactly through the
//!    real 32-bit PowerPC encoding;
//! 4. **semantics** — the MPC755-like simulator agrees with the MiniC
//!    reference interpreter on every scalar global, every I/O port
//!    (actuator commands included) and the annotation trace, bit-exactly,
//!    NaN/±inf included, over several activations with randomized inputs
//!    (a slice of which are non-finite on purpose) on every declared
//!    input;
//! 5. **WCET** — the static analyzer's bound dominates the measured cycle
//!    count of every activation.
//!
//! Any failure carries the case seed; `fuzz_pipeline --replay 0x<seed>`
//! reproduces it deterministically.
//!
//! The semantics layer is [`Lockstep`], the interpreter-vs-simulator
//! comparison the integration tests and examples share: they drive the
//! named suite and the linked application through it too.

use std::fmt;
use std::sync::Arc;

use vericomp_arch::Program;
use vericomp_core::{CompileError, CompileSession, Compiler, NoopObserver, OptLevel, PassConfig};
use vericomp_dataflow::{Node, Symbol};
use vericomp_mach::{RunOutcome, Simulator};
use vericomp_minic::ast::{self, GlobalDef};
use vericomp_minic::interp::{Interp, Value};
use vericomp_wcet as wcet;

use crate::fleet::{random_fleet, FleetConfig};
use crate::rng::{mix, Rng};

/// Shape of the generated cases.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Activations simulated per case and configuration.
    pub steps: u32,
    /// Minimum symbols per generated node.
    pub min_symbols: usize,
    /// Maximum symbols per generated node.
    pub max_symbols: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            steps: 3,
            min_symbols: 8,
            max_symbols: 40,
        }
    }
}

/// Counters accumulated over a fuzz run.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleStats {
    /// Compilations performed (case × configuration).
    pub compilations: u64,
    /// Encode/decode round-trips checked.
    pub roundtrips: u64,
    /// Interpreter-vs-simulator activations compared.
    pub activations: u64,
    /// Scalar globals + I/O ports compared bit-exactly.
    pub values_compared: u64,
    /// WCET bound vs measured-cycles checks.
    pub wcet_checks: u64,
    /// Smallest observed `wcet - cycles` slack (tightness telemetry).
    pub min_wcet_slack: u64,
}

impl OracleStats {
    fn absorb(&mut self, other: &OracleStats) {
        self.compilations += other.compilations;
        self.roundtrips += other.roundtrips;
        self.activations += other.activations;
        self.values_compared += other.values_compared;
        self.wcet_checks += other.wcet_checks;
        self.min_wcet_slack = self.min_wcet_slack.min(other.min_wcet_slack);
    }
}

/// A cross-check violation, tagged with the layer that caught it.
#[derive(Debug, Clone)]
pub enum OracleFailure {
    /// Compilation failed (non-validator error).
    Compile {
        /// Configuration.
        level: OptLevel,
        /// Compiler error text.
        error: String,
    },
    /// A translation validator rejected an unmutated compilation.
    Validator {
        /// Configuration.
        level: OptLevel,
        /// Validator error text.
        error: String,
    },
    /// Binary encode→decode did not reproduce the instruction sequence.
    Roundtrip {
        /// Configuration.
        level: OptLevel,
        /// What went wrong (decode error or first diverging index).
        detail: String,
    },
    /// Interpreter and simulator disagreed.
    Diverge {
        /// Configuration.
        level: OptLevel,
        /// Activation index.
        step: u32,
        /// What diverged (global name, `io[port]`, or `trace`).
        what: String,
    },
    /// The interpreter itself failed (generated program must not).
    Interp {
        /// Activation index.
        step: u32,
        /// Interpreter error text.
        error: String,
    },
    /// The simulator faulted or ran out of fuel.
    Sim {
        /// Configuration.
        level: OptLevel,
        /// Activation index.
        step: u32,
        /// Simulator error text.
        error: String,
    },
    /// The WCET analyzer failed on a compiled binary.
    Analysis {
        /// Configuration.
        level: OptLevel,
        /// Analyzer error text.
        error: String,
    },
    /// The level's compile through the case's shared compile session
    /// differs from its fresh compile.
    Sharing {
        /// Configuration.
        level: OptLevel,
        /// What differs.
        detail: String,
    },
    /// The WCET bound did not dominate a measured activation.
    WcetViolation {
        /// Configuration.
        level: OptLevel,
        /// Activation index.
        step: u32,
        /// The static bound.
        wcet: u64,
        /// The measured cycle count exceeding it.
        cycles: u64,
    },
}

impl fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleFailure::Compile { level, error } => write!(f, "[{level}] compile: {error}"),
            OracleFailure::Validator { level, error } => {
                write!(
                    f,
                    "[{level}] validator rejected unmutated compilation: {error}"
                )
            }
            OracleFailure::Roundtrip { level, detail } => {
                write!(f, "[{level}] encode/decode roundtrip: {detail}")
            }
            OracleFailure::Diverge { level, step, what } => {
                write!(
                    f,
                    "[{level}] step {step}: interpreter/simulator diverge on {what}"
                )
            }
            OracleFailure::Interp { step, error } => {
                write!(f, "reference interpreter failed at step {step}: {error}")
            }
            OracleFailure::Sim { level, step, error } => {
                write!(f, "[{level}] simulator failed at step {step}: {error}")
            }
            OracleFailure::Analysis { level, error } => {
                write!(f, "[{level}] WCET analysis failed: {error}")
            }
            OracleFailure::Sharing { level, detail } => {
                write!(f, "[{level}] shared-session compile differs: {detail}")
            }
            OracleFailure::WcetViolation {
                level,
                step,
                wcet,
                cycles,
            } => write!(
                f,
                "[{level}] WCET bound {wcet} < measured {cycles} cycles at step {step}"
            ),
        }
    }
}

impl std::error::Error for OracleFailure {}

/// The declared inputs of a node, or of the nodes linked into one
/// application: the I/O ports their `Symbol::Acquisition`s read and the
/// globals their `Symbol::GlobalInput`s name, each once, in first-use
/// order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeclaredInputs {
    /// Acquisition ports.
    pub ports: Vec<u32>,
    /// Global-input names.
    pub globals: Vec<String>,
}

impl DeclaredInputs {
    /// The declared inputs of `nodes`, taken in node order.
    #[must_use]
    pub fn of<'a>(nodes: impl IntoIterator<Item = &'a Node>) -> DeclaredInputs {
        let mut inputs = DeclaredInputs::default();
        for instance in nodes.into_iter().flat_map(Node::instances) {
            match &instance.kind {
                Symbol::Acquisition(port) if !inputs.ports.contains(port) => {
                    inputs.ports.push(*port);
                }
                Symbol::GlobalInput(name) if !inputs.globals.contains(name) => {
                    inputs.globals.push(name.clone());
                }
                _ => {}
            }
        }
        inputs
    }
}

/// A MiniC program and its compiled binary, activated in lockstep on the
/// reference interpreter and the simulator. State carries over from one
/// [`Lockstep::activate`] to the next on both sides.
pub struct Lockstep<'p> {
    src: &'p ast::Program,
    entry: &'p str,
    level: OptLevel,
    inputs: &'p DeclaredInputs,
    interp: Interp<'p>,
    sim: Simulator,
    step: u32,
}

impl<'p> Lockstep<'p> {
    /// Instruction budget of one simulated activation.
    const FUEL: u64 = 10_000_000;

    /// Pairs `src` with `binary`, its compilation at `level`, both
    /// entered at `entry`; `inputs` are the declared inputs the
    /// activations drive.
    #[must_use]
    pub fn new(
        src: &'p ast::Program,
        binary: Program,
        entry: &'p str,
        level: OptLevel,
        inputs: &'p DeclaredInputs,
    ) -> Lockstep<'p> {
        Lockstep {
            src,
            entry,
            level,
            inputs,
            interp: Interp::new(src),
            sim: Simulator::new(binary),
            step: 0,
        }
    }

    /// Runs one activation on both semantics and compares them bit for
    /// bit: every scalar global, I/O ports 0–15 and the annotation trace.
    /// Before it, every declared input is driven on both sides: the `k`th
    /// port with `input(step, k)`, the `k`th global with
    /// `input(step, 100 + k)`, where `step` counts this pair's
    /// activations from 0.
    ///
    /// Returns the simulator's outcome, so callers can hold a WCET bound
    /// against its cycles.
    ///
    /// # Errors
    ///
    /// [`OracleFailure::Interp`], [`OracleFailure::Sim`] or
    /// [`OracleFailure::Diverge`], tagged with the level and the step.
    pub fn activate(
        &mut self,
        mut input: impl FnMut(u32, u32) -> f64,
    ) -> Result<RunOutcome, OracleFailure> {
        let (level, step) = (self.level, self.step);
        self.step += 1;
        for (k, &port) in self.inputs.ports.iter().enumerate() {
            let v = input(step, k as u32);
            self.interp.set_io(port, v);
            self.sim.set_io_f64(port, v);
        }
        for (k, name) in self.inputs.globals.iter().enumerate() {
            let v = input(step, 100 + k as u32);
            self.interp
                .set_global(name, Value::F(v))
                .expect("input global exists");
            self.sim
                .set_global_f64(name, 0, v)
                .expect("input global exists");
        }

        if let Err(e) = self.interp.call(self.entry, &[]) {
            return Err(OracleFailure::Interp {
                step,
                error: e.to_string(),
            });
        }
        let outcome = self.sim.run(Self::FUEL).map_err(|e| OracleFailure::Sim {
            level,
            step,
            error: e.to_string(),
        })?;
        let diverge = |what: String| OracleFailure::Diverge { level, step, what };

        // scalar globals, bit-exact
        for g in &self.src.globals {
            match g.def {
                GlobalDef::ScalarF64(_) => {
                    let a = match self.interp.global(&g.name).expect("declared") {
                        Value::F(v) => v,
                        _ => unreachable!("typechecked"),
                    };
                    let b = self.sim.global_f64(&g.name, 0).expect("declared");
                    if a.to_bits() != b.to_bits() {
                        return Err(diverge(format!(
                            "global {}: interp {a:?} vs sim {b:?}",
                            g.name
                        )));
                    }
                }
                GlobalDef::ScalarI32(_) => {
                    let a = match self.interp.global(&g.name).expect("declared") {
                        Value::I(v) => v,
                        _ => unreachable!("typechecked"),
                    };
                    let b = self.sim.global_i32(&g.name, 0).expect("declared");
                    if a != b {
                        return Err(diverge(format!("global {}: interp {a} vs sim {b}", g.name)));
                    }
                }
                _ => {}
            }
        }

        // I/O ports — actuator commands included
        for port in 0..16u32 {
            let a = self.interp.io(port);
            let b = self.sim.io_f64(port);
            if a.to_bits() != b.to_bits() {
                return Err(diverge(format!("io[{port}]: interp {a:?} vs sim {b:?}")));
            }
        }

        // annotation traces — order and bit-exact values
        if !traces_match(&outcome.annotations, &self.interp.take_trace()) {
            return Err(diverge("trace".into()));
        }
        Ok(outcome)
    }

    /// Values one activation compares bit for bit: the scalar globals
    /// plus the 16 I/O ports.
    fn values_per_activation(&self) -> u64 {
        let scalars = self
            .src
            .globals
            .iter()
            .filter(|g| matches!(g.def, GlobalDef::ScalarF64(_) | GlobalDef::ScalarI32(_)))
            .count();
        scalars as u64 + 16
    }
}

/// Deterministic input for a given case, activation and input slot: mostly
/// tame finite values, with a deliberate slice of IEEE corner cases (NaN,
/// ±inf, −0.0, huge, subnormal) — the territory where compilers break.
fn input_value(case_seed: u64, step: u32, slot: u32) -> f64 {
    let h = mix(case_seed, (u64::from(step) << 32) | u64::from(slot));
    match h % 16 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 1e308,
        5 => 5e-324,
        _ => {
            let mut r = Rng::seed_from_u64(h);
            (r.f64() - 0.5) * 2.0e3
        }
    }
}

/// What differs between a compile through a shared
/// [`CompileSession`] and the fresh compile of the same cell: binary
/// words, annotation table, the rest of the linked program, or the error.
/// `None` when they are identical.
#[must_use]
pub fn sharing_mismatch(
    shared: &Result<Program, CompileError>,
    fresh: &Result<Program, CompileError>,
) -> Option<String> {
    match (shared, fresh) {
        (Ok(a), Ok(b)) if a.encode_text() != b.encode_text() => Some("binary words".into()),
        (Ok(a), Ok(b)) if a.annotations != b.annotations => Some("annotation table".into()),
        (Ok(a), Ok(b)) if format!("{a:?}") != format!("{b:?}") => Some("linked program".into()),
        (Ok(_), Ok(_)) => None,
        (Err(a), Err(b)) if a == b => None,
        (a, b) => Some(format!(
            "session {:?}, fresh {:?}",
            a.as_ref().err(),
            b.as_ref().err()
        )),
    }
}

/// Runs one oracle case. `case_seed` fully determines the node, the
/// inputs, and therefore the verdict.
///
/// # Errors
///
/// The first cross-check violation, tagged with layer and configuration.
pub fn run_case(case_seed: u64, cfg: &OracleConfig) -> Result<OracleStats, OracleFailure> {
    let node = random_fleet(&FleetConfig {
        nodes: 1,
        min_symbols: cfg.min_symbols,
        max_symbols: cfg.max_symbols,
        seed: case_seed,
    })
    .remove(0);
    let src = Arc::new(node.to_minic());
    let inputs = DeclaredInputs::of([&node]);

    let mut stats = OracleStats {
        min_wcet_slack: u64::MAX,
        ..OracleStats::default()
    };

    // validators force-enabled on every configuration: a rejection of
    // an unmutated compilation is a validator (or compiler) bug
    let levels = OptLevel::all().map(|level| {
        let passes = PassConfig {
            validators: true,
            ..PassConfig::for_level(level)
        };
        (level, passes)
    });
    // the four levels compile through one session, which must reproduce
    // each level's fresh compile bit for bit
    let session = CompileSession::new(
        Arc::clone(&src),
        node.step_name(),
        &levels.map(|(_, passes)| passes),
    );
    for (level, passes) in levels {
        let compiler = Compiler::new(level);
        let fresh = compiler.compile_with_passes(&src, node.step_name(), &passes);
        let shared = session.compile(&passes, &compiler.config, &mut NoopObserver);
        if let Some(detail) = sharing_mismatch(&shared, &fresh) {
            return Err(OracleFailure::Sharing { level, detail });
        }
        let binary = match fresh {
            Ok(b) => b,
            Err(CompileError::Validation(e)) => {
                return Err(OracleFailure::Validator {
                    level,
                    error: e.to_string(),
                })
            }
            Err(e) => {
                return Err(OracleFailure::Compile {
                    level,
                    error: e.to_string(),
                })
            }
        };
        stats.compilations += 1;

        // layer: binary encoding
        let words = binary.encode_text();
        match Program::decode_text(&binary.config, &words) {
            Ok(decoded) => {
                if decoded != binary.code {
                    let index = decoded
                        .iter()
                        .zip(&binary.code)
                        .position(|(a, b)| a != b)
                        .unwrap_or(decoded.len().min(binary.code.len()));
                    return Err(OracleFailure::Roundtrip {
                        level,
                        detail: format!("diverges at instruction {index}"),
                    });
                }
            }
            Err(e) => {
                return Err(OracleFailure::Roundtrip {
                    level,
                    detail: format!("decode failed: {e}"),
                })
            }
        }
        stats.roundtrips += 1;

        // layer: WCET bound
        let analyzed = wcet::Analyzer::default()
            .analyze(&wcet::AnalysisRequest::new(&binary, node.step_name()))
            .map(wcet::Analysis::into_report);
        let report = match analyzed {
            Ok(r) => r,
            Err(e) => {
                return Err(OracleFailure::Analysis {
                    level,
                    error: e.to_string(),
                })
            }
        };
        stats.wcet_checks += 1;

        // layer: semantics, interpreter vs simulator
        let mut pair = Lockstep::new(&src, binary, node.step_name(), level, &inputs);
        for step in 0..cfg.steps {
            let outcome = pair.activate(|step, slot| input_value(case_seed, step, slot))?;
            stats.activations += 1;
            stats.values_compared += pair.values_per_activation();

            // WCET bound must dominate every measured activation
            if report.wcet < outcome.stats.cycles {
                return Err(OracleFailure::WcetViolation {
                    level,
                    step,
                    wcet: report.wcet,
                    cycles: outcome.stats.cycles,
                });
            }
            stats.min_wcet_slack = stats.min_wcet_slack.min(report.wcet - outcome.stats.cycles);
        }
    }
    Ok(stats)
}

/// Whether a machine annotation trace equals a source-level trace
/// (formats, order, and values — `f64` compared bitwise).
#[must_use]
pub fn traces_match(
    machine: &[vericomp_mach::AnnotEvent],
    source: &[vericomp_minic::interp::TraceEvent],
) -> bool {
    use vericomp_mach::AnnotValue;
    machine.len() == source.len()
        && machine.iter().zip(source).all(|(m, s)| {
            m.format == s.format
                && m.values.len() == s.values.len()
                && m.values
                    .iter()
                    .zip(&s.values)
                    .all(|(mv, sv)| match (mv, sv) {
                        (AnnotValue::I32(a), Value::I(b)) => a == b,
                        (AnnotValue::F64(a), Value::F(b)) => a.to_bits() == b.to_bits(),
                        _ => false,
                    })
        })
}

/// Outcome of a whole fuzz run.
#[derive(Debug)]
pub struct RunSummary {
    /// Cases that passed.
    pub passed: u64,
    /// Aggregate counters.
    pub stats: OracleStats,
    /// The failing case, if any: `(case index, seed, failure)`.
    pub failure: Option<(u64, u64, OracleFailure)>,
}

/// Runs `cases` oracle cases derived from `base_seed` (case 0 = the base
/// seed itself, so a reported seed replays directly), stopping at the
/// first failure.
pub fn run(
    base_seed: u64,
    cases: u64,
    cfg: &OracleConfig,
    mut progress: impl FnMut(u64, &OracleStats),
) -> RunSummary {
    let mut stats = OracleStats {
        min_wcet_slack: u64::MAX,
        ..OracleStats::default()
    };
    for i in 0..cases {
        let case_seed = if i == 0 { base_seed } else { mix(base_seed, i) };
        match run_case(case_seed, cfg) {
            Ok(s) => stats.absorb(&s),
            Err(e) => {
                return RunSummary {
                    passed: i,
                    stats,
                    failure: Some((i, case_seed, e)),
                }
            }
        }
        progress(i + 1, &stats);
    }
    RunSummary {
        passed: cases,
        stats,
        failure: None,
    }
}

/// Runs the oracle cases on the pipeline's worker pool, one task per case.
///
/// Replayability is identical to [`run`]: every case's seed is derived
/// from its **index** (`mix(base_seed, i)`, case 0 = the base seed), never
/// from the worker executing it, so a printed seed replays with
/// `--replay` regardless of `jobs`. On failure the *minimum-index*
/// failing case is reported — cases below that index are never skipped,
/// so the report is deterministic even under racy scheduling; cases above
/// it may or may not have run, so aggregate counters can exceed the
/// serial run's (the verdict never differs).
///
/// `jobs = 0` selects the machine's available parallelism.
pub fn run_parallel(
    base_seed: u64,
    cases: u64,
    cfg: &OracleConfig,
    jobs: usize,
    progress: impl FnMut(u64, &OracleStats) + Send + 'static,
) -> RunSummary {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    use vericomp_pipeline::ThreadPool;

    let pool = ThreadPool::new(jobs);
    let cfg = *cfg;
    // Atomic-min of the failing indices: cases at or above it stop being
    // scheduled, cases below it always complete.
    let stop_at = Arc::new(AtomicU64::new(u64::MAX));
    let agg = Arc::new(Mutex::new((
        OracleStats {
            min_wcet_slack: u64::MAX,
            ..OracleStats::default()
        },
        0u64,
    )));
    let progress = Arc::new(Mutex::new(progress));

    type CaseFailure = (u64, u64, OracleFailure);
    let tasks: Vec<Box<dyn FnOnce() -> Option<CaseFailure> + Send>> = (0..cases)
        .map(|i| {
            let stop_at = Arc::clone(&stop_at);
            let agg = Arc::clone(&agg);
            let progress = Arc::clone(&progress);
            Box::new(move || {
                if i >= stop_at.load(Ordering::SeqCst) {
                    return None;
                }
                let case_seed = if i == 0 { base_seed } else { mix(base_seed, i) };
                match run_case(case_seed, &cfg) {
                    Ok(s) => {
                        let mut a = agg.lock().expect("oracle stats lock");
                        a.0.absorb(&s);
                        a.1 += 1;
                        let (stats, done) = *a;
                        drop(a);
                        (progress.lock().expect("oracle progress lock"))(done, &stats);
                        None
                    }
                    Err(e) => {
                        stop_at.fetch_min(i, Ordering::SeqCst);
                        Some((i, case_seed, e))
                    }
                }
            }) as Box<dyn FnOnce() -> Option<CaseFailure> + Send>
        })
        .collect();

    let failure = pool
        .run_all(tasks)
        .into_iter()
        .flatten()
        .min_by_key(|(i, _, _)| *i);
    let (stats, _) = *agg.lock().expect("oracle stats lock");
    match failure {
        Some((i, seed, e)) => RunSummary {
            passed: i,
            stats,
            failure: Some((i, seed, e)),
        },
        None => RunSummary {
            passed: cases,
            stats,
            failure: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_accepts_a_small_deterministic_batch() {
        let cfg = OracleConfig {
            steps: 2,
            min_symbols: 6,
            max_symbols: 18,
        };
        let summary = run(0xBEEF, 4, &cfg, |_, _| {});
        if let Some((i, seed, e)) = &summary.failure {
            panic!("case {i} (seed 0x{seed:016x}) failed: {e}");
        }
        assert_eq!(summary.passed, 4);
        assert!(summary.stats.compilations >= 16);
        assert!(summary.stats.activations >= 32);
    }

    #[test]
    fn parallel_run_matches_serial_on_passing_batch() {
        let cfg = OracleConfig {
            steps: 2,
            min_symbols: 6,
            max_symbols: 14,
        };
        let serial = run(0xBEEF, 4, &cfg, |_, _| {});
        let parallel = run_parallel(0xBEEF, 4, &cfg, 4, |_, _| {});
        assert!(serial.failure.is_none() && parallel.failure.is_none());
        assert_eq!(parallel.passed, serial.passed);
        // same per-index seeds => identical aggregate counters
        assert_eq!(parallel.stats.compilations, serial.stats.compilations);
        assert_eq!(parallel.stats.activations, serial.stats.activations);
        assert_eq!(parallel.stats.values_compared, serial.stats.values_compared);
        assert_eq!(parallel.stats.min_wcet_slack, serial.stats.min_wcet_slack);
    }

    #[test]
    fn case_verdict_is_deterministic() {
        let cfg = OracleConfig::default();
        let a = run_case(0x1234, &cfg).expect("passes");
        let b = run_case(0x1234, &cfg).expect("passes");
        assert_eq!(a.values_compared, b.values_compared);
        assert_eq!(a.min_wcet_slack, b.min_wcet_slack);
    }
}
