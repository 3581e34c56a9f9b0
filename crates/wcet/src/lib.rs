//! Static worst-case execution-time analysis in the style of AbsInt aiT
//! (the measurement instrument of the paper's evaluation).
//!
//! The analyzer follows the classic phase structure:
//!
//! 1. **decoding & CFG reconstruction** from the binary ([`mod@cfg`]),
//! 2. **value analysis** — intervals over registers and memory cells,
//!    sharpened by the annotation file generated from the compiler's
//!    `__builtin_annotation` table ([`value`], [`annot`]),
//! 3. **loop-bound analysis** ([`bounds`]),
//! 4. **cache analysis** — LRU must-analysis plus per-loop persistence
//!    ([`cache`]),
//! 5. **pipeline analysis** — the shared anomaly-free dual-issue timing
//!    core, run abstractly with max-joined residual states,
//! 6. **path analysis** — longest path with loops collapsed by their
//!    bounds.
//!
//! The produced bound is safe with respect to the machine model of
//! `vericomp-mach`: for every input, the reported `wcet ≥` the cycle
//! count the simulator reports for `f` (a tested property).
//!
//! The entry point is the session-style [`Analyzer`]: it owns a
//! hash-consing arena and a per-function fact cache that persist across
//! calls, so re-analyzing a fleet after editing one function re-runs the
//! fixpoint only for the functions whose content digest changed.
//!
//! # Example
//!
//! ```
//! use vericomp_core::{Compiler, OptLevel};
//! use vericomp_minic::ast::*;
//! use vericomp_wcet::{Analyzer, AnalysisRequest};
//!
//! let prog = Program {
//!     globals: vec![Global { name: "x".into(), def: GlobalDef::ScalarF64(None) }],
//!     functions: vec![Function {
//!         name: "step".into(),
//!         params: vec![],
//!         ret: None,
//!         locals: vec![],
//!         body: vec![Stmt::Assign(
//!             "x".into(),
//!             Expr::binop(Binop::MulF, Expr::var("x"), Expr::FloatLit(2.0)),
//!         )],
//!     }],
//! };
//! let binary = Compiler::new(OptLevel::Verified).compile(&prog, "step")?;
//! let analyzer = Analyzer::default();
//! let request = AnalysisRequest::new(&binary, "step");
//! let analysis = analyzer.analyze(&request)?;
//! assert!(analysis.report.wcet > 0);
//! assert_eq!(analysis.functions_analyzed, 1);
//! // a second call over the same binary is served from the fact cache
//! assert_eq!(analyzer.analyze(&request)?.functions_reused, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod annot;
pub mod bounds;
pub mod cache;
pub mod cfg;
pub mod share;
pub mod value;

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};

use vericomp_arch::encode::DecodeError;
use vericomp_arch::inst::Inst;
use vericomp_arch::program::Program;
use vericomp_arch::reg::Gpr;
use vericomp_arch::timing::{MicroOp, PipeResiduals, PipeState};

use annot::AnnotationFile;
use cache::DataClass;
use cfg::Cfg;
use share::{Arena, Fingerprint, Worklist};

/// Analysis options.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisOptions {
    /// Whether to use the program's annotation table (§3.4). Disabling it
    /// reproduces the "analysis without annotations" scenario, where
    /// data-dependent loops cannot be bounded.
    pub use_annotations: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            use_annotations: true,
        }
    }
}

/// The computed WCET bound and its supporting facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WcetReport {
    /// The bound, in machine cycles.
    pub wcet: u64,
    /// Loop bounds by loop-header address (entry function only).
    pub loop_bounds: BTreeMap<u32, u64>,
    /// WCET bounds of callees, by name.
    pub callees: BTreeMap<String, u64>,
}

/// Analysis failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// The requested function is not in the symbol table.
    UnknownFunction(String),
    /// A word of the text section could not be decoded.
    Decode(DecodeError),
    /// A branch targets an address outside its function.
    BranchOutsideFunction {
        /// Branch address.
        at: u32,
        /// Branch target.
        target: u32,
    },
    /// A call targets something that is not a function entry.
    CallOutsideText {
        /// Call address.
        at: u32,
        /// Call target.
        target: u32,
    },
    /// The control flow is irreducible (cannot bound such loops —
    /// the MISRA-C discussion in the same proceedings, rules 14.4/20.7).
    IrreducibleLoop {
        /// Address in the offending region.
        at: u32,
    },
    /// No witness bounds the loop with the given header: the paper's
    /// "annotation required" situation.
    UnboundedLoop {
        /// Loop-header address.
        header: u32,
    },
    /// The stack pointer is not statically known at a call site.
    UnknownStackPointer {
        /// Call address.
        at: u32,
    },
    /// Recursion detected (forbidden upstream, double-checked here).
    CallCycle(String),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            AnalysisError::Decode(e) => write!(f, "decode failure: {e}"),
            AnalysisError::BranchOutsideFunction { at, target } => {
                write!(
                    f,
                    "branch at {at:#x} leaves its function (target {target:#x})"
                )
            }
            AnalysisError::CallOutsideText { at, target } => {
                write!(f, "call at {at:#x} targets no function entry ({target:#x})")
            }
            AnalysisError::IrreducibleLoop { at } => {
                write!(f, "irreducible control flow near {at:#x}")
            }
            AnalysisError::UnboundedLoop { header } => write!(
                f,
                "cannot bound loop with header {header:#x} (an annotation may be required)"
            ),
            AnalysisError::UnknownStackPointer { at } => {
                write!(f, "stack pointer unknown at call site {at:#x}")
            }
            AnalysisError::CallCycle(n) => write!(f, "recursion through `{n}`"),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// One analysis request: which function of which program to bound.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisRequest<'a> {
    program: &'a Program,
    function: &'a str,
}

impl<'a> AnalysisRequest<'a> {
    /// A request for `function` of `program`.
    #[must_use]
    pub fn new(program: &'a Program, function: &'a str) -> AnalysisRequest<'a> {
        AnalysisRequest { program, function }
    }

    /// The program under analysis.
    #[must_use]
    pub fn program(&self) -> &'a Program {
        self.program
    }

    /// The function to bound.
    #[must_use]
    pub fn function(&self) -> &'a str {
        self.function
    }
}

/// Result of one [`Analyzer::analyze`] call: the report plus how much of
/// the work was served from the session's incremental fact cache.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The WCET report for the requested function.
    pub report: WcetReport,
    /// Functions whose fixpoint actually ran during this call (the
    /// requested function and any callees not found in the cache).
    pub functions_analyzed: u64,
    /// Functions served from the session fact cache during this call.
    pub functions_reused: u64,
}

impl Analysis {
    /// Unwraps the report, discarding the cache counters.
    #[must_use]
    pub fn into_report(self) -> WcetReport {
        self.report
    }
}

/// Incremental-cache entry: everything one function's analysis produced,
/// plus the callee bounds it consumed (`deps`) so a hit can be validated
/// against the callees' *current* bounds before being replayed.
#[derive(Debug)]
struct FuncFacts {
    wcet: u64,
    loop_bounds: BTreeMap<u32, u64>,
    /// `(callee, callee_sp, wcet_used)` for every call this function's
    /// bound depends on.
    deps: Vec<(String, u32, u64)>,
}

/// Per-call analysis context. Owns the checked-out arena and the per-call
/// memo table; shared inputs are `Arc`s so borrows never pin the whole
/// context while the arena is threaded mutably through the fixpoints.
struct Cx<'a> {
    program: &'a Program,
    file: Option<Arc<AnnotationFile>>,
    words: Arc<Vec<u32>>,
    machine_fp: u128,
    arena: Arena,
    memo: BTreeMap<(String, u32), Arc<FuncFacts>>,
    call_stack: Vec<String>,
    analyzed: u64,
    reused: u64,
}

/// Fact-cache capacity; on overflow the whole cache is cleared (a
/// deterministic pressure valve, like the arena's). Sized above the
/// function count of the largest scenario sweep (E10: ~300k symbols):
/// mid-sweep clears forfeit the cross-mode-variant fact reuse that the
/// sweep depends on, at ~300 bytes per entry this stays under ~300 MiB.
const FACTS_CAP: usize = 1 << 20;

/// A WCET analysis session.
///
/// The analyzer holds two cross-call structures:
///
/// * a pool of hash-consing [`Arena`]s (one checked out per in-flight
///   call, so concurrent calls never contend on the intern table), and
/// * a per-function **fact cache** keyed by a content digest of everything
///   a function's bound depends on — its machine configuration, encoded
///   words, stack pointer, referenced annotation entries and callee
///   symbols. A dirty program re-analyzes only the functions whose digest
///   changed; unchanged functions replay their cached facts after their
///   callee bounds re-validate.
///
/// Results are bit-identical to a fresh analysis in every case: a cache
/// hit replays facts computed from byte-identical inputs, and the sparse
/// worklist fixpoints reproduce the dense iteration order exactly (see
/// `DESIGN.md` §11).
#[derive(Debug)]
pub struct Analyzer {
    options: AnalysisOptions,
    arenas: Mutex<Vec<Arena>>,
    facts: Mutex<HashMap<u128, Arc<FuncFacts>>>,
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer::new(AnalysisOptions::default())
    }
}

impl Analyzer {
    /// A fresh session with the given options.
    #[must_use]
    pub fn new(options: AnalysisOptions) -> Analyzer {
        Analyzer {
            options,
            arenas: Mutex::new(Vec::new()),
            facts: Mutex::new(HashMap::new()),
        }
    }

    /// The session's options.
    #[must_use]
    pub fn options(&self) -> &AnalysisOptions {
        &self.options
    }

    /// Analyzes one request.
    ///
    /// # Errors
    ///
    /// Any [`AnalysisError`].
    ///
    /// # Panics
    ///
    /// Re-raises panics from analyzer internals via poisoned locks.
    pub fn analyze(&self, request: &AnalysisRequest<'_>) -> Result<Analysis, AnalysisError> {
        let program = request.program;
        let func = request.function;
        let file = self
            .options
            .use_annotations
            .then(|| Arc::new(AnnotationFile::from_program(program)));
        let words = Arc::new(program.encode_text());
        let mut fp = Fingerprint::new();
        for field in program.config.fields() {
            fp.u32(field);
        }
        fp.bool(self.options.use_annotations);
        fp.u32(program.const_pool_base);
        fp.u32(program.sda_base);
        let machine_fp = fp.finish();

        let arena = self
            .arenas
            .lock()
            .expect("arena pool lock")
            .pop()
            .unwrap_or_default();
        let mut cx = Cx {
            program,
            file,
            words,
            machine_fp,
            arena,
            memo: BTreeMap::new(),
            call_stack: Vec::new(),
            analyzed: 0,
            reused: 0,
        };
        let sp = program.config.stack_top - 64;
        let result = self.facts_for(&mut cx, func, sp, true);
        let Cx {
            arena,
            memo,
            analyzed,
            reused,
            ..
        } = cx;
        self.arenas.lock().expect("arena pool lock").push(arena);
        let top = result?;
        // The per-call memo also holds the entry function; callees are
        // everything else, collapsed by name exactly like the historical
        // flat memo (ascending (name, sp), later sp wins).
        let callees = memo
            .iter()
            .filter(|((n, s), _)| !(n.as_str() == func && *s == sp))
            .map(|((n, _), f)| (n.clone(), f.wcet))
            .collect();
        Ok(Analysis {
            report: WcetReport {
                wcet: top.wcet,
                loop_bounds: top.loop_bounds.clone(),
                callees,
            },
            functions_analyzed: analyzed,
            functions_reused: reused,
        })
    }

    /// Content digest of everything `func`'s analysis depends on, except
    /// the callee *bounds* (those are re-validated through `deps` on every
    /// hit, so a changed callee body transparently invalidates its
    /// callers).
    fn fn_digest(
        &self,
        cx: &Cx<'_>,
        func: &str,
        sp: u32,
        top_level: bool,
    ) -> Result<u128, AnalysisError> {
        let sym = cx
            .program
            .function(func)
            .ok_or_else(|| AnalysisError::UnknownFunction(func.to_owned()))?;
        let mut h = Fingerprint::new();
        h.bytes(&cx.machine_fp.to_le_bytes());
        h.str(func);
        h.u32(sym.entry);
        h.u32(sym.len_words);
        h.u32(sp);
        h.bool(top_level);
        let start = ((sym.entry - cx.program.config.text_base) / 4) as usize;
        for i in 0..sym.len_words as usize {
            let word = cx.words[start + i];
            h.u32(word);
            let addr = sym.entry + 4 * i as u32;
            // cross-function inputs referenced from instructions: the
            // annotation entries this code consults and the identity of
            // every call target
            if let Ok(inst) = vericomp_arch::encode::decode(word, addr) {
                match inst {
                    Inst::Annot { id } => {
                        h.u64(u64::from(id));
                        let entry = cx.file.as_ref().and_then(|f| f.entries.get(&id));
                        h.str(&format!("{entry:?}"));
                    }
                    Inst::Bl { target } => {
                        h.u32(target);
                        match cx.program.function_at(target).filter(|f| f.entry == target) {
                            Some(f) => {
                                h.bool(true);
                                h.str(&f.name);
                                h.u32(f.entry);
                                h.u32(f.len_words);
                            }
                            None => {
                                h.bool(false);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        Ok(h.finish())
    }

    /// Resolves one function's facts: per-call memo, then the cross-call
    /// cache (with dep re-validation), then a fresh analysis.
    fn facts_for(
        &self,
        cx: &mut Cx<'_>,
        func: &str,
        sp: u32,
        top_level: bool,
    ) -> Result<Arc<FuncFacts>, AnalysisError> {
        if let Some(f) = cx.memo.get(&(func.to_owned(), sp)) {
            return Ok(Arc::clone(f));
        }
        if cx.call_stack.iter().any(|f| f == func) {
            return Err(AnalysisError::CallCycle(func.to_owned()));
        }
        let digest = self.fn_digest(cx, func, sp, top_level)?;
        let hit = self.facts.lock().expect("facts lock").get(&digest).cloned();
        if let Some(hit) = hit {
            // replay only if every callee bound this entry consumed still
            // holds under the current program
            cx.call_stack.push(func.to_owned());
            let verdict = (|| -> Result<bool, AnalysisError> {
                for (callee, callee_sp, used) in &hit.deps {
                    if self.facts_for(cx, callee, *callee_sp, false)?.wcet != *used {
                        return Ok(false);
                    }
                }
                Ok(true)
            })();
            cx.call_stack.pop();
            if verdict? {
                cx.reused += 1;
                cx.memo.insert((func.to_owned(), sp), Arc::clone(&hit));
                return Ok(hit);
            }
        }
        cx.call_stack.push(func.to_owned());
        let result = self.analyze_function_inner(cx, func, sp, top_level);
        cx.call_stack.pop();
        let facts = Arc::new(result?);
        cx.analyzed += 1;
        {
            let mut cache = self.facts.lock().expect("facts lock");
            if cache.len() >= FACTS_CAP {
                cache.clear();
            }
            cache.insert(digest, Arc::clone(&facts));
        }
        cx.memo.insert((func.to_owned(), sp), Arc::clone(&facts));
        Ok(facts)
    }
}

/// Residual assumed for every register at a non-top-level function entry:
/// larger than any single-instruction completion latency of the machine, so
/// values still in flight in the caller are covered.
const ENTRY_RESIDUAL: u64 = 64;

fn conservative_entry_residuals() -> PipeResiduals {
    PipeResiduals {
        regs: vericomp_arch::timing::RegResiduals::uniform(ENTRY_RESIDUAL),
        ..PipeResiduals::default()
    }
}

impl Analyzer {
    fn analyze_function_inner(
        &self,
        cx: &mut Cx<'_>,
        func: &str,
        sp: u32,
        top_level: bool,
    ) -> Result<FuncFacts, AnalysisError> {
        // Copy the shared handles out of `cx` so the arena can still be
        // borrowed mutably while they are in scope.
        let program = cx.program;
        let machine = &program.config;
        let annot_file = cx.file.clone();
        let file = annot_file.as_deref();
        let words = Arc::clone(&cx.words);

        let graph = cfg::reconstruct_with_words(program, func, &words)?;
        let va0 =
            value::analyze_with_facts_in(&mut cx.arena, &graph, machine, program, sp, file, &[]);
        let (loop_bounds, facts) = bounds::compute_with_facts(&graph, &va0, machine, file)?;
        // Feed the derived induction windows back: the refined value analysis
        // keeps indexed table accesses bounded for the cache analysis.
        let va = if facts.is_empty() {
            va0
        } else {
            value::analyze_with_facts_in(&mut cx.arena, &graph, machine, program, sp, file, &facts)
        };
        let cls = cache::analyze(&graph, machine, &va, file);

        // ---- callee costs per block ----
        let rpo = graph.rpo();
        let mut callee_cost: BTreeMap<u32, u64> = BTreeMap::new();
        let mut deps: BTreeSet<(String, u32, u64)> = BTreeSet::new();
        for &b in rpo {
            let blk = &graph.blocks[&b];
            if blk.calls.is_empty() {
                continue;
            }
            // replay the value state to each call to learn the callee's sp
            let mut vs = va.at(&graph, b).cloned().unwrap_or_default();
            let mut addr = b;
            let mut total = 0u64;
            for inst in &blk.insts {
                if let Inst::Bl { target } = inst {
                    let callee = program
                        .function_at(*target)
                        .expect("validated during reconstruction")
                        .name
                        .clone();
                    let callee_sp = vs
                        .reg(Gpr::SP)
                        .as_exact()
                        .ok_or(AnalysisError::UnknownStackPointer { at: addr })?
                        as u32;
                    let f = self.facts_for(cx, &callee, callee_sp, false)?;
                    deps.insert((callee, callee_sp, f.wcet));
                    total += f.wcet;
                }
                value::transfer(&mut vs, inst, machine, file);
                addr += 4;
            }
            callee_cost.insert(b, total);
        }

        // ---- pipeline residual fixpoint ----
        // Dense indexing by RPO position: every per-block table is a Vec,
        // so the fixpoint's inner loop does no tree lookups at all.
        let entry_res = if top_level {
            PipeResiduals::default()
        } else {
            conservative_entry_residuals()
        };
        let blocks: Vec<&cfg::Block> = rpo.iter().map(|&b| &graph.blocks[&b]).collect();
        let succ_idx = graph.succ_idx();
        let block_callee_cost: Vec<u64> = rpo
            .iter()
            .map(|b| callee_cost.get(b).copied().unwrap_or(0))
            .collect();
        let mut in_res: Vec<Option<PipeResiduals>> = vec![None; rpo.len()];
        in_res[0] = Some(entry_res);
        // the classification is fixed before this fixpoint starts, so each
        // instruction's timing inputs are resolved once per block here
        // rather than on every worklist revisit; the classification is
        // per-block in the same RPO indexing as `blocks`
        let ops: Vec<Vec<MicroOp>> = cls
            .per_block
            .iter()
            .enumerate()
            .map(|(i, entries)| {
                blocks[i]
                    .insts
                    .iter()
                    .zip(entries)
                    .filter_map(|(inst, &(addr, f_hit, dclass))| {
                        let fetch_extra = if f_hit || cls.persistent_fetch.contains(&addr) {
                            0
                        } else {
                            machine.fetch_latency
                        };
                        let mem_extra = match dclass {
                            Some(DataClass::Hit) => 0,
                            Some(DataClass::Io) => machine.io_latency,
                            Some(DataClass::Miss) => {
                                if cls.persistent_data.contains(&addr) {
                                    0
                                } else {
                                    machine.mem_latency
                                }
                            }
                            None => 0,
                        };
                        MicroOp::new(machine, inst, fetch_extra, mem_extra, inst.is_terminator())
                    })
                    .collect()
            })
            .collect();
        let block_time = |i: usize, res: &PipeResiduals| -> (u64, PipeResiduals) {
            let blk = blocks[i];
            let mut st = PipeState::from_residuals(res);
            for op in &ops[i] {
                st.advance_op(op);
            }
            let cost = if blk.is_return {
                st.drain_time() + 1
            } else {
                st.dispatch_time() + 1
            };
            (cost + block_callee_cost[i], st.residuals())
        };

        // Sparse worklist: the residual join is a pointwise max (monotone,
        // idempotent), so revisiting only changed-input blocks reaches the
        // same unique least fixpoint as the dense sweep.
        // Every input change re-queues the block, so the cost recorded at
        // its last visit is the cost under the fixpoint input state — no
        // final re-walk needed.
        let mut block_cost: Vec<Option<u64>> = vec![None; rpo.len()];
        let mut work = Worklist::seeded(0);
        while let Some(i) = work.pop() {
            let Some(res) = in_res[i as usize].clone() else {
                continue;
            };
            let (cost, out) = block_time(i as usize, &res);
            block_cost[i as usize] = Some(cost);
            for &si in &succ_idx[i as usize] {
                let merged = match &in_res[si as usize] {
                    None => out.clone(),
                    Some(old) => old.join(&out),
                };
                if in_res[si as usize].as_ref() != Some(&merged) {
                    in_res[si as usize] = Some(merged);
                    work.push(si);
                }
            }
        }
        let costs: BTreeMap<u32, u64> = rpo
            .iter()
            .zip(&block_cost)
            .filter_map(|(&b, c)| c.map(|c| (b, c)))
            .collect();

        // ---- path analysis with loop collapsing ----
        let wcet = longest_path(&graph, &costs, &loop_bounds, &cls.loop_fill_penalty)?;

        Ok(FuncFacts {
            wcet,
            loop_bounds,
            deps: deps.into_iter().collect(),
        })
    }
}

/// Longest-path computation over the loop-collapsed DAG.
fn longest_path(
    graph: &Cfg,
    costs: &BTreeMap<u32, u64>,
    bounds: &BTreeMap<u32, u64>,
    fill_penalty: &BTreeMap<u32, u64>,
) -> Result<u64, AnalysisError> {
    // loops sorted innermost-first (fewest blocks)
    let mut loops: Vec<&cfg::NaturalLoop> = graph.loops.iter().collect();
    loops.sort_by_key(|l| l.blocks.len());

    // total cost of each loop, computed innermost-first
    let mut loop_total: BTreeMap<u32, u64> = BTreeMap::new();
    for l in &loops {
        // children: maximal proper sub-loops
        let children: Vec<&cfg::NaturalLoop> = loops
            .iter()
            .filter(|c| c.header != l.header && c.blocks.is_subset(&l.blocks))
            .filter(|c| {
                !loops.iter().any(|m| {
                    m.header != c.header
                        && m.header != l.header
                        && c.blocks.is_subset(&m.blocks)
                        && m.blocks.is_subset(&l.blocks)
                })
            })
            .copied()
            .collect();
        let iter = region_longest(
            graph,
            costs,
            &loop_total,
            &l.blocks,
            &children,
            Some(l.header),
        )?;
        let b = bounds.get(&l.header).copied().unwrap_or(0);
        let total = (b + 1) * iter + fill_penalty.get(&l.header).copied().unwrap_or(0);
        loop_total.insert(l.header, total);
    }

    // function level: all reachable blocks, outermost loops as children
    let all: BTreeSet<u32> = graph.rpo().iter().copied().collect();
    let outermost: Vec<&cfg::NaturalLoop> = loops
        .iter()
        .filter(|l| {
            !loops
                .iter()
                .any(|m| m.header != l.header && l.blocks.is_subset(&m.blocks))
        })
        .copied()
        .collect();
    region_longest(graph, costs, &loop_total, &all, &outermost, None)
}

/// Longest path over a region's DAG with child loops collapsed to single
/// nodes. `skip_header` removes the region's own back edges.
///
/// All tables are dense vectors indexed by RPO position; a node is named
/// by the RPO index of its representative (a child loop's header for
/// blocks inside that child, the block itself otherwise). The relaxation
/// is a pointwise max over a DAG, so the processing order cannot affect
/// the result.
fn region_longest(
    graph: &Cfg,
    costs: &BTreeMap<u32, u64>,
    loop_total: &BTreeMap<u32, u64>,
    blocks: &BTreeSet<u32>,
    children: &[&cfg::NaturalLoop],
    skip_header: Option<u32>,
) -> Result<u64, AnalysisError> {
    let rpo = graph.rpo();
    let index_of = graph.index_of();
    let n = rpo.len();

    // representative of each region block; u32::MAX marks "not in region"
    const OUT: u32 = u32::MAX;
    let mut rep = vec![OUT; n];
    for &b in blocks {
        let i = index_of[&b];
        rep[i as usize] = i;
    }
    // earlier children win on (impossible) overlap, as in the scan order
    // of the original representative lookup
    for c in children.iter().rev() {
        let hi = index_of[&c.header];
        for &b in &c.blocks {
            let i = index_of[&b] as usize;
            if rep[i] != OUT {
                rep[i] = hi;
            }
        }
    }
    let mut is_loop_node = vec![false; n];
    for c in children {
        is_loop_node[index_of[&c.header] as usize] = true;
    }

    // node set and deduplicated edges
    let mut is_node = vec![false; n];
    let mut edges: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &b in blocks {
        let bi = index_of[&b] as usize;
        let ru = rep[bi];
        is_node[ru as usize] = true;
        for s in &graph.blocks[&b].succs {
            if Some(*s) == skip_header {
                continue; // region back edge
            }
            let Some(&sj) = index_of.get(s) else {
                continue;
            };
            let rv = rep[sj as usize];
            if rv != OUT && ru != rv {
                edges[ru as usize].push(rv);
            }
        }
    }
    for e in &mut edges {
        e.sort_unstable();
        e.dedup();
    }

    // Kahn topological order with cycle detection.
    let mut indeg = vec![0u32; n];
    for e in &edges {
        for &v in e {
            indeg[v as usize] += 1;
        }
    }
    let node_count = is_node.iter().filter(|&&x| x).count();
    let mut queue: Vec<u32> = (0..n as u32)
        .filter(|&i| is_node[i as usize] && indeg[i as usize] == 0)
        .collect();
    let node_cost = |i: u32| -> u64 {
        let addr = rpo[i as usize];
        if is_loop_node[i as usize] {
            loop_total.get(&addr).copied().unwrap_or(0)
        } else {
            costs.get(&addr).copied().unwrap_or(0)
        }
    };
    let mut dist = vec![0u64; n];
    let mut seen = 0usize;
    let mut best = 0u64;
    while let Some(u) = queue.pop() {
        seen += 1;
        let d = dist[u as usize] + node_cost(u);
        best = best.max(d);
        for &v in &edges[u as usize] {
            dist[v as usize] = dist[v as usize].max(d);
            indeg[v as usize] -= 1;
            if indeg[v as usize] == 0 {
                queue.push(v);
            }
        }
    }
    if seen != node_count {
        let at = (0..n)
            .filter(|&i| is_node[i])
            .map(|i| rpo[i])
            .min()
            .expect("non-empty region");
        return Err(AnalysisError::IrreducibleLoop { at });
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap as Map;
    use vericomp_arch::inst::{Cond, Inst as M};
    use vericomp_arch::program::FuncSym;
    use vericomp_arch::MachineConfig;

    fn g(i: u8) -> Gpr {
        Gpr::new(i)
    }

    /// One-shot convenience over the `Analyzer` session API — the only
    /// entry point since the deprecated free wrappers were removed.
    fn analyze(program: &Program, func: &str) -> Result<WcetReport, AnalysisError> {
        Analyzer::default()
            .analyze(&AnalysisRequest::new(program, func))
            .map(Analysis::into_report)
    }

    fn program(code: Vec<M>) -> Program {
        let config = MachineConfig::mpc755();
        let len_words = code.len() as u32;
        Program {
            entry: config.text_base,
            functions: vec![FuncSym {
                name: "f".into(),
                entry: config.text_base,
                len_words,
            }],
            globals: vec![],
            data: Map::new(),
            const_pool_base: config.data_base,
            sda_base: config.data_base,
            annotations: vec![],
            code,
            config,
        }
    }

    #[test]
    fn straight_line_has_positive_wcet() {
        let p = program(vec![M::li(g(3), 1), M::li(g(4), 2), M::Blr]);
        let r = analyze(&p, "f").unwrap();
        assert!(r.wcet >= 3, "{}", r.wcet);
        assert!(r.loop_bounds.is_empty());
    }

    #[test]
    fn counted_loop_bounded_and_charged() {
        let base = MachineConfig::mpc755().text_base;
        let p = program(vec![
            /* 0  */ M::li(g(4), 0),
            /* 4 head */
            M::Cmpwi {
                cr: vericomp_arch::reg::Cr::CR0,
                ra: g(4),
                imm: 10,
            },
            /* 8  */
            M::Bc {
                cond: Cond::Ge,
                cr: vericomp_arch::reg::Cr::CR0,
                target: base + 20,
            },
            /* 12 */
            M::Addi {
                rd: g(4),
                ra: g(4),
                imm: 1,
            },
            /* 16 */ M::B { target: base + 4 },
            /* 20 */ M::Blr,
        ]);
        let r = analyze(&p, "f").unwrap();
        assert_eq!(r.loop_bounds.get(&(base + 4)), Some(&10));
        // at least ten iterations of ≥ 3 cycles each
        assert!(r.wcet >= 30, "{}", r.wcet);
        // and not absurdly above (12 bounded iterations of a tiny body with
        // one cold fetch line)
        assert!(r.wcet < 40 + 11 * 20, "{}", r.wcet);
    }

    #[test]
    fn unbounded_loop_is_an_error() {
        let base = MachineConfig::mpc755().text_base;
        // while (r4 != r5) — no recognizable witness
        let p = program(vec![
            /* 0 head */
            M::Cmpw {
                cr: vericomp_arch::reg::Cr::CR0,
                ra: g(4),
                rb: g(5),
            },
            /* 4 */
            M::Bc {
                cond: Cond::Eq,
                cr: vericomp_arch::reg::Cr::CR0,
                target: base + 16,
            },
            /* 8 */
            M::Addi {
                rd: g(4),
                ra: g(6),
                imm: 1,
            }, // not an induction update
            /* 12 */ M::B { target: base },
            /* 16 */ M::Blr,
        ]);
        assert!(matches!(
            analyze(&p, "f"),
            Err(AnalysisError::UnboundedLoop { .. })
        ));
    }

    #[test]
    fn io_latency_dominates_acquisition_blocks() {
        // lfd from the I/O region must cost at least io_latency
        let cfgm = MachineConfig::mpc755();
        let io_hi = ((cfgm.io_base.wrapping_add(0x8000)) >> 16) as u16 as i16;
        let p = program(vec![
            M::Addis {
                rd: g(12),
                ra: Gpr::R0,
                imm: io_hi,
            },
            M::Lfd {
                fd: Fpr::new(1),
                d: 0,
                ra: g(12),
            },
            M::Blr,
        ]);
        let r = analyze(&p, "f").unwrap();
        assert!(r.wcet >= u64::from(cfgm.io_latency), "{}", r.wcet);
    }

    #[test]
    fn call_cost_included_and_memoized() {
        let base = MachineConfig::mpc755().text_base;
        let config = MachineConfig::mpc755();
        let code = vec![
            /* 0 f */ M::Mflr { rd: g(0) },
            /* 4 */
            M::Stwu {
                rs: Gpr::SP,
                d: -16,
                ra: Gpr::SP,
            },
            /* 8 */
            M::Stw {
                rs: g(0),
                d: 12,
                ra: Gpr::SP,
            },
            /* 12 */ M::Bl { target: base + 40 },
            /* 16 */ M::Bl { target: base + 40 },
            /* 20 */
            M::Lwz {
                rd: g(0),
                d: 12,
                ra: Gpr::SP,
            },
            /* 24 */ M::Mtlr { rs: g(0) },
            /* 28 */
            M::Addi {
                rd: Gpr::SP,
                ra: Gpr::SP,
                imm: 16,
            },
            /* 32 */ M::Blr,
            /* 36 pad */ M::Nop,
            /* 40 leaf */ M::li(g(3), 1),
            /* 44 */ M::Blr,
        ];
        let p = Program {
            entry: base,
            functions: vec![
                FuncSym {
                    name: "f".into(),
                    entry: base,
                    len_words: 10,
                },
                FuncSym {
                    name: "leaf".into(),
                    entry: base + 40,
                    len_words: 2,
                },
            ],
            globals: vec![],
            data: Map::new(),
            const_pool_base: config.data_base,
            sda_base: config.data_base,
            annotations: vec![],
            code,
            config,
        };
        let r = analyze(&p, "f").unwrap();
        let leaf_w = r.callees.get("leaf").copied().unwrap();
        assert!(leaf_w > 0);
        assert!(r.wcet >= 2 * leaf_w, "wcet {} leaf {}", r.wcet, leaf_w);
    }

    use vericomp_arch::reg::Fpr;

    #[test]
    fn diamond_takes_the_longer_arm() {
        let base = MachineConfig::mpc755().text_base;
        // one arm has a divide (19 cycles), the other a single li
        let p = program(vec![
            /* 0 */
            M::Cmpwi {
                cr: vericomp_arch::reg::Cr::CR0,
                ra: g(3),
                imm: 0,
            },
            /* 4 */
            M::Bc {
                cond: Cond::Lt,
                cr: vericomp_arch::reg::Cr::CR0,
                target: base + 20,
            },
            /* 8 */
            M::Divw {
                rd: g(4),
                ra: g(5),
                rb: g(6),
            },
            /* 12 */
            M::Divw {
                rd: g(7),
                ra: g(4),
                rb: g(6),
            },
            /* 16 */ M::B { target: base + 24 },
            /* 20 */ M::li(g(4), 1),
            /* 24 */ M::Blr,
        ]);
        let r = analyze(&p, "f").unwrap();
        // two dependent divides alone take ≥ 38 cycles
        assert!(r.wcet >= 38, "{}", r.wcet);
    }
}
