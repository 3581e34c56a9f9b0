//! The paper's primary contribution: an optimizing compiler from MiniC to
//! the PowerPC-subset target, structured like CompCert and driven in the
//! four configurations the paper compares (§3.3, Figure 2):
//!
//! | configuration | models | passes |
//! |---|---|---|
//! | [`OptLevel::PatternO0`] | the incumbent non-optimizing COTS compiler: fixed per-symbol code patterns, manual (scratch-pool) register allocation, every variable on the stack | lowering only |
//! | [`OptLevel::OptNoRegalloc`] | the COTS compiler "optimized without register allocation optimizations" | const-prop, CSE, DCE, tunneling — variables stay in memory |
//! | [`OptLevel::Verified`] | **CompCert**: the formally verified optimizing compiler | mem2reg + const-prop + CSE + DCE + tunneling + graph-coloring allocation, each structure-changing step re-checked by a translation validator |
//! | [`OptLevel::OptFull`] | the COTS compiler fully optimized | everything above + strength reduction, `fmadd` fusion, list scheduling, small-data-area addressing |
//!
//! # Example
//!
//! ```
//! use vericomp_core::{Compiler, OptLevel};
//! use vericomp_minic::ast::*;
//!
//! // void step(void) { out = in1 + in2; }   (globals)
//! let gf = |name: &str| Global { name: name.into(), def: GlobalDef::ScalarF64(None) };
//! let prog = Program {
//!     globals: vec![gf("in1"), gf("in2"), gf("out")],
//!     functions: vec![Function {
//!         name: "step".into(),
//!         params: vec![],
//!         ret: None,
//!         locals: vec![],
//!         body: vec![Stmt::Assign(
//!             "out".into(),
//!             Expr::binop(Binop::AddF, Expr::var("in1"), Expr::var("in2")),
//!         )],
//!     }],
//! };
//! let binary = Compiler::new(OptLevel::Verified).compile(&prog, "step")?;
//! assert!(binary.function("step").is_some());
//! # Ok::<(), vericomp_core::CompileError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod emit;
pub mod layout;
pub mod link;
pub mod liveness;
pub mod lower;
pub mod opt;
pub mod regalloc;
pub mod rtl;
pub mod sched;
pub mod validate;

use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use vericomp_arch::{MachineConfig, Program};
use vericomp_minic::ast::Program as SrcProgram;
use vericomp_minic::typeck::{self, TypeError};

pub use validate::ValidationError;

/// Canonical names of the observable compiler passes, in execution order.
/// These are the names a [`PassObserver`] receives and the per-pass rows
/// of the pipeline's trace profile. The `check-*` entries are the
/// translation validators (and the always-on allocation checker) — the
/// pipeline derives its `validate` stage row from them.
pub const PASS_NAMES: [&str; 14] = [
    "lower",
    "mem2reg",
    "constprop",
    "cse",
    "strength",
    "dce",
    "tunnel",
    "check-tunnel",
    "regalloc",
    "check-alloc",
    "emit",
    "sched",
    "check-sched",
    "link",
];

/// Observes individual compiler passes as they run — the hook the
/// pipeline's span tracer attaches to. `start` is the offset from the
/// beginning of the compile call, `took` the pass duration; both are
/// wall-clock and carry no determinism guarantee (the times vary; which
/// passes a fresh compile reports does not).
pub trait PassObserver {
    /// Called once per pass this compile call ran, in execution order.
    /// `name` is one of [`PASS_NAMES`]; per-function passes report once
    /// per function (and `check-sched` once per scheduled block). A
    /// [`CompileSession`] stage that this call took from the session
    /// instead of running it is not reported: the call that ran it was.
    fn pass(&mut self, name: &'static str, start: Duration, took: Duration);
}

/// The do-nothing observer behind the plain
/// [`Compiler::compile_with_passes`] entry point.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl PassObserver for NoopObserver {
    fn pass(&mut self, _name: &'static str, _start: Duration, _took: Duration) {}
}

/// Runs `f` and reports it to `obs` under `name`.
fn observed<T>(
    obs: &mut dyn PassObserver,
    t0: Instant,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let start = t0.elapsed();
    let out = f();
    obs.pass(name, start, t0.elapsed().saturating_sub(start));
    out
}

/// The four compiler configurations of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OptLevel {
    /// Non-optimizing pattern compiler (the certification baseline).
    PatternO0,
    /// Optimizations enabled but no register-allocation improvements.
    OptNoRegalloc,
    /// The CompCert-like verified optimizing compiler.
    Verified,
    /// The fully optimizing reference compiler.
    OptFull,
}

impl OptLevel {
    /// All four configurations, in the paper's comparison order.
    pub fn all() -> [OptLevel; 4] {
        [
            OptLevel::PatternO0,
            OptLevel::OptNoRegalloc,
            OptLevel::Verified,
            OptLevel::OptFull,
        ]
    }
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OptLevel::PatternO0 => "pattern-O0",
            OptLevel::OptNoRegalloc => "opt-no-regalloc",
            OptLevel::Verified => "verified",
            OptLevel::OptFull => "opt-full",
        };
        f.write_str(s)
    }
}

/// Fine-grained pass selection, for ablation studies. The four standard
/// [`OptLevel`]s are presets over this structure
/// ([`PassConfig::for_level`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassConfig {
    /// Promote stack slots to virtual registers (the decisive pass).
    pub mem2reg: bool,
    /// Local constant/copy propagation and folding.
    pub constprop: bool,
    /// Local common-subexpression elimination.
    pub cse: bool,
    /// Dead-code elimination.
    pub dce: bool,
    /// Branch tunneling (validated when `validators` is set).
    pub tunnel: bool,
    /// Strength reduction and `fmadd` fusion (full optimizer only).
    pub strength: bool,
    /// Post-emission list scheduling (validated when `validators` is set).
    pub schedule: bool,
    /// Small-data-area global addressing through `r13`.
    pub sda: bool,
    /// Use the full register palette (otherwise the scratch pool of the
    /// pattern compiler).
    pub full_palette: bool,
    /// Run the translation validators on tunneling and scheduling (the
    /// allocation checker always runs — it is the backend's safety net).
    pub validators: bool,
}

/// The ten flags in key order: the one list that [`PassConfig::flags`]
/// reads and [`PassConfig::from_flags`] writes. The artifact cache key,
/// the compile service's wire bits and the search lattice's coordinates
/// (the first nine; `validators` is last) all go through it.
const FLAGS: [fn(&mut PassConfig) -> &mut bool; PassConfig::FLAG_COUNT] = [
    |p| &mut p.mem2reg,
    |p| &mut p.constprop,
    |p| &mut p.cse,
    |p| &mut p.dce,
    |p| &mut p.tunnel,
    |p| &mut p.strength,
    |p| &mut p.schedule,
    |p| &mut p.sda,
    |p| &mut p.full_palette,
    |p| &mut p.validators,
];

impl PassConfig {
    /// Number of flags in a pass selection.
    pub const FLAG_COUNT: usize = 10;

    /// Every flag, in key order.
    pub fn flags(mut self) -> [bool; PassConfig::FLAG_COUNT] {
        FLAGS.map(|flag| *flag(&mut self))
    }

    /// The pass selection with these flags, in [`flags`](Self::flags)
    /// order.
    pub fn from_flags(values: [bool; PassConfig::FLAG_COUNT]) -> PassConfig {
        let mut p = PassConfig::for_level(OptLevel::PatternO0);
        for (flag, value) in FLAGS.iter().zip(values) {
            *flag(&mut p) = value;
        }
        p
    }

    /// The preset corresponding to a standard configuration.
    pub fn for_level(level: OptLevel) -> PassConfig {
        match level {
            OptLevel::PatternO0 => PassConfig {
                mem2reg: false,
                constprop: false,
                cse: false,
                dce: false,
                tunnel: false,
                strength: false,
                schedule: false,
                sda: false,
                full_palette: false,
                validators: false,
            },
            // No cross-statement CSE: without register-allocation
            // improvements there is nowhere to keep the reused values
            // (the paper's -0.5 % configuration).
            OptLevel::OptNoRegalloc => PassConfig {
                mem2reg: false,
                constprop: true,
                cse: false,
                dce: true,
                tunnel: true,
                strength: false,
                schedule: false,
                sda: false,
                full_palette: false,
                validators: false,
            },
            OptLevel::Verified => PassConfig {
                mem2reg: true,
                constprop: true,
                cse: true,
                dce: true,
                tunnel: true,
                strength: false,
                schedule: false,
                sda: false,
                full_palette: true,
                validators: true,
            },
            OptLevel::OptFull => PassConfig {
                mem2reg: true,
                constprop: true,
                cse: true,
                dce: true,
                tunnel: true,
                strength: true,
                schedule: true,
                sda: true,
                full_palette: true,
                validators: true,
            },
        }
    }
}

/// Compilation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The source program does not typecheck.
    Type(TypeError),
    /// Register allocation failed to converge.
    RegAlloc(String),
    /// A translation validator rejected a pass result (compilation fails
    /// closed — the CompCert-style guarantee).
    Validation(ValidationError),
    /// A backend limitation was hit during emission.
    Emit(String),
    /// Linking failed (unknown callee / entry).
    Link(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Type(e) => write!(f, "type error: {e}"),
            CompileError::RegAlloc(m) => write!(f, "register allocation: {m}"),
            CompileError::Validation(e) => write!(f, "translation validation failed: {e}"),
            CompileError::Emit(m) => write!(f, "emission: {m}"),
            CompileError::Link(m) => write!(f, "link: {m}"),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Type(e) => Some(e),
            CompileError::Validation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TypeError> for CompileError {
    fn from(e: TypeError) -> Self {
        CompileError::Type(e)
    }
}

impl From<ValidationError> for CompileError {
    fn from(e: ValidationError) -> Self {
        CompileError::Validation(e)
    }
}

/// The compiler driver.
#[derive(Debug, Clone)]
pub struct Compiler {
    /// Configuration (pass list) to compile with.
    pub level: OptLevel,
    /// Target machine configuration.
    pub config: MachineConfig,
}

impl Compiler {
    /// A compiler for the given level targeting the default MPC755 model.
    pub fn new(level: OptLevel) -> Self {
        Compiler {
            level,
            config: MachineConfig::mpc755(),
        }
    }

    /// A compiler with an explicit machine configuration.
    pub fn with_config(level: OptLevel, config: MachineConfig) -> Self {
        Compiler { level, config }
    }

    /// Compiles a MiniC program into a linked executable whose entry point is
    /// the function named `entry`.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`]; in the `Verified` and `OptFull` configurations a
    /// translation-validator rejection aborts compilation.
    pub fn compile(&self, prog: &SrcProgram, entry: &str) -> Result<Program, CompileError> {
        self.compile_with_passes(prog, entry, &PassConfig::for_level(self.level))
    }

    /// Compiles with an explicit pass selection (ablation studies).
    ///
    /// # Errors
    ///
    /// Any [`CompileError`]; with `passes.validators` set, a
    /// translation-validator rejection aborts compilation.
    pub fn compile_with_passes(
        &self,
        prog: &SrcProgram,
        entry: &str,
        passes: &PassConfig,
    ) -> Result<Program, CompileError> {
        self.compile_with_passes_observed(prog, entry, passes, &mut NoopObserver)
    }

    /// [`compile_with_passes`](Compiler::compile_with_passes) with a
    /// [`PassObserver`] reporting every executed pass — the entry point
    /// the pipeline's span tracer uses for nested per-pass spans. It is
    /// the one-cell case of a [`CompileSession`]: the same code path,
    /// which then retains no state and clones nothing a single compile
    /// does not need.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`]; passes that ran before the failure are still
    /// reported to the observer.
    pub fn compile_with_passes_observed(
        &self,
        prog: &SrcProgram,
        entry: &str,
        passes: &PassConfig,
        obs: &mut dyn PassObserver,
    ) -> Result<Program, CompileError> {
        Memo::new(prog.functions.len(), std::slice::from_ref(passes)).compile(
            prog,
            entry,
            passes,
            &self.config,
            obs,
        )
    }
}

/// The cells of one program and entry — several pass selections, on any
/// machines — compiled with every shared pass prefix computed once.
///
/// The per-function chain from `lower` to `check-alloc` is a fixed
/// sequence of pure passes, each optional one gated by one [`PassConfig`]
/// flag, and none of them reads the machine. So two cells hold identical
/// RTL up to the first flag on which they differ. A session arranges the
/// chains of the cells it is built for in a trie and keeps a function's
/// state only where that trie branches: where two cells part, or where two
/// cells end on the same state (one selection on two machines). The first
/// call that needs a kept state computes it and every other caller, on any
/// thread, waits for it, so each trie node runs exactly once whatever the
/// thread count. `typeck` runs once. `emit`, `sched` and `link` run in
/// every call: they read the machine, `sda` and the constant pool that the
/// functions fill in order.
///
/// [`compile`](CompileSession::compile) returns exactly what
/// [`Compiler::compile_with_passes_observed`] returns for the same
/// program, entry, passes and machine, errors included. A selection
/// outside the session's cells compiles correctly too; it shares only
/// the kept states on its way.
#[derive(Debug)]
pub struct CompileSession {
    prog: Arc<SrcProgram>,
    entry: String,
    memo: Memo,
}

impl CompileSession {
    /// A session over `prog` with entry point `entry` for the cells whose
    /// pass selections are `cells`, one entry per cell: a selection
    /// compiled for two machines is listed twice.
    #[must_use]
    pub fn new(prog: Arc<SrcProgram>, entry: &str, cells: &[PassConfig]) -> CompileSession {
        let memo = Memo::new(prog.functions.len(), cells);
        CompileSession {
            prog,
            entry: entry.to_owned(),
            memo,
        }
    }

    /// Compiles the session's program with `passes` for `machine`,
    /// reporting to `obs` the passes this call ran.
    ///
    /// # Errors
    ///
    /// The [`CompileError`] that [`Compiler::compile_with_passes_observed`]
    /// returns for the same inputs.
    pub fn compile(
        &self,
        passes: &PassConfig,
        machine: &MachineConfig,
        obs: &mut dyn PassObserver,
    ) -> Result<Program, CompileError> {
        self.memo
            .compile(&self.prog, &self.entry, passes, machine, obs)
    }
}

/// One step of the per-function chain that cells share. A step's place in
/// the trie — the steps before it — is its key: the pass plus the flags
/// that gate it and every earlier pass. `tunnel` and its validator are one
/// step, keyed by whether the check runs (it compares against the
/// pre-tunnel RTL); `regalloc` and the allocation checker are one step,
/// keyed by the palette.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Lower,
    Mem2reg,
    Constprop,
    Cse,
    Strength,
    Dce,
    Tunnel { checked: bool },
    Regalloc { full_palette: bool },
}

impl Step {
    /// The steps `passes` runs, in execution order.
    fn chain(passes: &PassConfig) -> impl Iterator<Item = Step> {
        [
            Some(Step::Lower),
            passes.mem2reg.then_some(Step::Mem2reg),
            passes.constprop.then_some(Step::Constprop),
            passes.cse.then_some(Step::Cse),
            passes.strength.then_some(Step::Strength),
            passes.dce.then_some(Step::Dce),
            passes.tunnel.then_some(Step::Tunnel {
                checked: passes.validators,
            }),
            Some(Step::Regalloc {
                full_palette: passes.full_palette,
            }),
        ]
        .into_iter()
        .flatten()
    }
}

/// A step in a cell's chain, with the slot of the state it leaves when
/// the session keeps that state.
type PathStep = (Step, Option<usize>);

/// The trie of a session's cells and the states it keeps.
#[derive(Debug)]
struct Memo {
    /// Trie nodes; node 0 is `lower`, the first step of every chain.
    nodes: Vec<TrieNode>,
    /// Number of kept trie nodes.
    kept: usize,
    /// Kept states, `kept` per function, function-major.
    slots: Vec<OnceLock<Result<FuncState, CompileError>>>,
    typeck: OnceLock<Result<(), TypeError>>,
}

#[derive(Debug)]
struct TrieNode {
    step: Step,
    children: Vec<usize>,
    /// The node's index among the kept nodes, if it is a branch point.
    kept: Option<usize>,
}

/// The child of trie node `at` that runs `step`, if any.
fn child(nodes: &[TrieNode], at: usize, step: Step) -> Option<usize> {
    nodes[at]
        .children
        .iter()
        .copied()
        .find(|&c| nodes[c].step == step)
}

/// One function after a step of the chain: its RTL, and its register
/// allocation once `regalloc` ran.
#[derive(Debug)]
struct FuncState {
    rtl: rtl::Func,
    alloc: Option<regalloc::Allocation>,
}

/// A function state handed to the next step: one this call owns, or one
/// the session keeps for its other cells.
enum Held<'a> {
    Owned(FuncState),
    Kept(&'a FuncState),
}

impl Held<'_> {
    fn get(&self) -> &FuncState {
        match self {
            Held::Owned(state) => state,
            Held::Kept(state) => state,
        }
    }
}

impl Memo {
    fn new(functions: usize, cells: &[PassConfig]) -> Memo {
        let node = |step| TrieNode {
            step,
            children: Vec::new(),
            kept: None,
        };
        let mut nodes = vec![node(Step::Lower)];
        // cells ending on each node, beside its children
        let mut ends = vec![0usize];
        for passes in cells {
            let mut at = 0;
            for step in Step::chain(passes).skip(1) {
                at = match child(&nodes, at, step) {
                    Some(child) => child,
                    None => {
                        nodes.push(node(step));
                        ends.push(0);
                        let child = nodes.len() - 1;
                        nodes[at].children.push(child);
                        child
                    }
                };
            }
            ends[at] += 1;
        }
        let mut kept = 0;
        for (node, ends) in nodes.iter_mut().zip(ends) {
            if node.children.len() + ends >= 2 {
                node.kept = Some(kept);
                kept += 1;
            }
        }
        Memo {
            nodes,
            kept,
            slots: (0..functions * kept).map(|_| OnceLock::new()).collect(),
            typeck: OnceLock::new(),
        }
    }

    /// The chain of `passes`, each step with its kept slot: the trie walk,
    /// which leaves the trie for good at the first step no cell took.
    fn path(&self, passes: &PassConfig) -> Vec<PathStep> {
        let mut at = Some(0);
        Step::chain(passes)
            .enumerate()
            .map(|(i, step)| {
                if i > 0 {
                    at = at.and_then(|n| child(&self.nodes, n, step));
                }
                (step, at.and_then(|n| self.nodes[n].kept))
            })
            .collect()
    }

    fn compile(
        &self,
        prog: &SrcProgram,
        entry: &str,
        passes: &PassConfig,
        machine: &MachineConfig,
        obs: &mut dyn PassObserver,
    ) -> Result<Program, CompileError> {
        let t0 = Instant::now();
        self.typeck.get_or_init(|| typeck::check(prog)).clone()?;
        let path = self.path(passes);
        let layout = layout::layout_globals(prog, machine);
        let mut pool = layout::ConstPool::new();
        let mut annots = Vec::new();
        let mut funcs = Vec::with_capacity(prog.functions.len());

        for f in 0..prog.functions.len() {
            let held = self.state(prog, f, &path, obs, t0)?;
            let state = held.get();
            let alloc = state
                .alloc
                .as_ref()
                .expect("every chain ends with regalloc");
            let opts = emit::EmitOptions { sda: passes.sda };
            let mut af = observed(obs, t0, "emit", || {
                emit::emit_function(
                    &state.rtl,
                    alloc,
                    &layout,
                    &mut pool,
                    &mut annots,
                    machine,
                    opts,
                )
            })?;

            if passes.schedule {
                // one `sched` span per function; the per-block validator
                // checks report as nested `check-sched` spans inside it
                let sched_start = t0.elapsed();
                for block in &mut af.blocks {
                    let scheduled = sched::schedule_block(&block.insts, machine);
                    if passes.validators {
                        observed(obs, t0, "check-sched", || {
                            validate::check_schedule(&block.insts, &scheduled)
                        })?;
                    }
                    block.insts = scheduled;
                    // Barrier semantics keep call placeholders at their
                    // original indices; double-check before linking.
                    for &(idx, _) in &block.calls {
                        debug_assert!(matches!(
                            block.insts[idx],
                            vericomp_arch::inst::Inst::Bl { .. }
                        ));
                    }
                }
                obs.pass(
                    "sched",
                    sched_start,
                    t0.elapsed().saturating_sub(sched_start),
                );
            }
            funcs.push(af);
        }

        observed(obs, t0, "link", || {
            link::link(machine, &funcs, &layout, &pool, annots, prog, entry)
        })
    }

    /// Function `f`'s state after the last step of `path`: taken from its
    /// slot when the session keeps it (computed there by the first call
    /// that needs it), otherwise computed for this call alone.
    fn state(
        &self,
        prog: &SrcProgram,
        f: usize,
        path: &[PathStep],
        obs: &mut dyn PassObserver,
        t0: Instant,
    ) -> Result<Held<'_>, CompileError> {
        let (&(step, kept), before) = path.split_last().expect("every chain starts with lower");
        let Some(slot) = kept else {
            return self.run(prog, f, step, before, obs, t0).map(Held::Owned);
        };
        match self.slots[f * self.kept + slot]
            .get_or_init(|| self.run(prog, f, step, before, obs, t0))
        {
            Ok(state) => Ok(Held::Kept(state)),
            Err(e) => Err(e.clone()),
        }
    }

    /// Runs `step` on function `f`'s state after the steps `before`.
    fn run(
        &self,
        prog: &SrcProgram,
        f: usize,
        step: Step,
        before: &[PathStep],
        obs: &mut dyn PassObserver,
        t0: Instant,
    ) -> Result<FuncState, CompileError> {
        if step == Step::Lower {
            let rtl = observed(obs, t0, "lower", || {
                lower::lower_function(prog, &prog.functions[f])
            })?;
            return Ok(FuncState { rtl, alloc: None });
        }
        // a kept input stays with the session: work on a copy of it
        let input = self.state(prog, f, before, obs, t0)?;
        let (mut rtl, kept) = match input {
            Held::Owned(state) => (state.rtl, None),
            Held::Kept(state) => (state.rtl.clone(), Some(&state.rtl)),
        };
        let alloc = match step {
            Step::Lower => unreachable!("`lower` starts every chain"),
            Step::Mem2reg => {
                observed(obs, t0, "mem2reg", || opt::mem2reg::run(&mut rtl));
                None
            }
            Step::Constprop => {
                observed(obs, t0, "constprop", || opt::constprop::run(&mut rtl));
                None
            }
            Step::Cse => {
                // the cleanup constprop rerun is part of the CSE span
                observed(obs, t0, "cse", || {
                    opt::cse::run(&mut rtl);
                    opt::constprop::run(&mut rtl);
                });
                None
            }
            Step::Strength => {
                observed(obs, t0, "strength", || {
                    opt::strength::reduce(&mut rtl);
                    opt::strength::fuse_fmadd(&mut rtl);
                    opt::constprop::run(&mut rtl);
                });
                None
            }
            Step::Dce => {
                observed(obs, t0, "dce", || opt::dce::run(&mut rtl));
                None
            }
            Step::Tunnel { checked } => {
                // the check compares against the pre-tunnel RTL, which a
                // kept input already is
                let copy = (checked && kept.is_none()).then(|| rtl.clone());
                observed(obs, t0, "tunnel", || opt::tunnel::run(&mut rtl));
                if checked {
                    let pre = kept
                        .or(copy.as_ref())
                        .expect("a checked input is kept or copied");
                    observed(obs, t0, "check-tunnel", || {
                        validate::check_tunnel(pre, &rtl)
                    })?;
                }
                None
            }
            Step::Regalloc { full_palette } => {
                let alloc = observed(obs, t0, "regalloc", || {
                    let palette = if full_palette {
                        regalloc::Palette::full()
                    } else {
                        regalloc::Palette::scratch_only()
                    };
                    regalloc::allocate(&mut rtl, &palette)
                })?;
                // The allocation checker runs for every configuration: it
                // is the safety net of the whole backend, not an
                // optimization.
                observed(obs, t0, "check-alloc", || {
                    validate::check_allocation(&rtl, &alloc)
                })?;
                Some(alloc)
            }
        };
        Ok(FuncState { rtl, alloc })
    }
}

#[cfg(test)]
mod observer_tests {
    use super::*;
    use vericomp_minic::ast::{Binop, Expr, Function, Global, GlobalDef, Program, Stmt};

    fn tiny_prog() -> Program {
        let gf = |name: &str| Global {
            name: name.into(),
            def: GlobalDef::ScalarF64(None),
        };
        Program {
            globals: vec![gf("in1"), gf("in2"), gf("out")],
            functions: vec![Function {
                name: "step".into(),
                params: vec![],
                ret: None,
                locals: vec![],
                body: vec![Stmt::Assign(
                    "out".into(),
                    Expr::binop(Binop::AddF, Expr::var("in1"), Expr::var("in2")),
                )],
            }],
        }
    }

    #[test]
    fn flag_table_covers_every_flag_once() {
        // one flag on at a time survives a round trip only if no two
        // entries of the table alias one field
        for i in 0..PassConfig::FLAG_COUNT {
            let one_hot: [bool; PassConfig::FLAG_COUNT] = std::array::from_fn(|j| j == i);
            assert_eq!(PassConfig::from_flags(one_hot).flags(), one_hot);
        }
    }

    struct Names(Vec<&'static str>);
    impl PassObserver for Names {
        fn pass(&mut self, name: &'static str, _start: Duration, _took: Duration) {
            self.0.push(name);
        }
    }

    #[test]
    fn observer_sees_every_enabled_pass_and_output_is_unchanged() {
        let prog = tiny_prog();
        let passes = PassConfig::for_level(OptLevel::OptFull);
        let compiler = Compiler::new(OptLevel::OptFull);
        let mut names = Names(Vec::new());
        let observed = compiler
            .compile_with_passes_observed(&prog, "step", &passes, &mut names)
            .expect("compiles");
        let plain = compiler
            .compile_with_passes(&prog, "step", &passes)
            .expect("compiles");
        assert_eq!(observed.encode_text(), plain.encode_text());
        for name in &names.0 {
            assert!(PASS_NAMES.contains(name), "unknown pass name `{name}`");
        }
        for expected in [
            "lower",
            "mem2reg",
            "constprop",
            "cse",
            "strength",
            "dce",
            "tunnel",
            "check-tunnel",
            "regalloc",
            "check-alloc",
            "emit",
            "check-sched",
            "sched",
            "link",
        ] {
            assert!(
                names.0.contains(&expected),
                "opt-full never reported `{expected}`: {:?}",
                names.0
            );
        }
        // the pattern compiler runs no optional passes
        let mut o0 = Names(Vec::new());
        compiler
            .compile_with_passes_observed(
                &prog,
                "step",
                &PassConfig::for_level(OptLevel::PatternO0),
                &mut o0,
            )
            .expect("compiles");
        assert_eq!(
            o0.0,
            vec!["lower", "regalloc", "check-alloc", "emit", "link"]
        );
    }
}
