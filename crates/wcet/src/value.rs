//! Interval value analysis over registers and memory cells.
//!
//! The abstract state maps GPRs and *exactly-addressed* 32-bit memory cells
//! (stack slots, global words) to integer intervals. The stack pointer is
//! tracked exactly — the analyzer knows the startup convention, so `d(r1)`
//! accesses resolve to absolute addresses; this is how the analysis covers
//! the `-O0` code where every variable (including loop counters) lives in a
//! stack slot.
//!
//! Design choices, documented for soundness review:
//!
//! * **No branch refinement.** Conditions do not sharpen intervals — facts
//!   the analysis cannot compute must come from annotations, which is
//!   exactly the paper's §3.4 division of labour (and matches the behaviour
//!   of binary-level industrial analyzers on such patterns).
//! * **Memory cells start unknown**, including initialized globals: the
//!   WCET bound must hold for every environment state, and the harness may
//!   rewrite any global between activations.
//! * **Calls** clobber the volatile registers and every cell outside the
//!   live stack region above the current `r1`.
//! * **Widening** at loop headers guarantees termination.

use vericomp_arch::inst::Inst;
use vericomp_arch::program::{ArgLoc, Program};
use vericomp_arch::reg::Gpr;
use vericomp_arch::MachineConfig;

use crate::annot::AnnotationFile;
use crate::cfg::Cfg;
use crate::share::{Arena, PMap, Worklist};

const I32MIN: i64 = i32::MIN as i64;
const I32MAX: i64 = i32::MAX as i64;

/// An inclusive integer interval within the 32-bit signed range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Lower bound.
    pub lo: i64,
    /// Upper bound.
    pub hi: i64,
}

#[allow(clippy::should_implement_trait)] // interval arithmetic, deliberately inherent
impl Interval {
    /// The full 32-bit range (no information).
    pub fn top() -> Interval {
        Interval {
            lo: I32MIN,
            hi: I32MAX,
        }
    }

    /// A singleton.
    pub fn exact(v: i32) -> Interval {
        Interval {
            lo: i64::from(v),
            hi: i64::from(v),
        }
    }

    /// Whether the interval carries no information.
    pub fn is_top(&self) -> bool {
        self.lo <= I32MIN && self.hi >= I32MAX
    }

    /// The singleton value, if exact.
    pub fn as_exact(&self) -> Option<i32> {
        (self.lo == self.hi).then_some(self.lo as i32)
    }

    /// Convex hull.
    pub fn join(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Intersection; an empty meet keeps the (trusted) constraint.
    pub fn meet(self, c: Interval) -> Interval {
        let lo = self.lo.max(c.lo);
        let hi = self.hi.min(c.hi);
        if lo > hi {
            c
        } else {
            Interval { lo, hi }
        }
    }

    fn clamp32(lo: i64, hi: i64) -> Interval {
        if lo < I32MIN || hi > I32MAX {
            Interval::top()
        } else {
            Interval { lo, hi }
        }
    }

    /// Interval addition with wrap-to-top on overflow.
    pub fn add(self, other: Interval) -> Interval {
        Self::clamp32(self.lo + other.lo, self.hi + other.hi)
    }

    /// Interval subtraction.
    pub fn sub(self, other: Interval) -> Interval {
        Self::clamp32(self.lo - other.hi, self.hi - other.lo)
    }

    /// Interval multiplication.
    pub fn mul(self, other: Interval) -> Interval {
        let c = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ];
        Self::clamp32(
            c.iter().copied().min().expect("non-empty"),
            c.iter().copied().max().expect("non-empty"),
        )
    }

    /// Widening: bounds that grew are pushed to the extremes.
    pub fn widen(self, newer: Interval) -> Interval {
        Interval {
            lo: if newer.lo < self.lo { I32MIN } else { self.lo },
            hi: if newer.hi > self.hi { I32MAX } else { self.hi },
        }
    }
}

/// The abstract register file: one interval per GPR, ⊤ stored explicitly.
///
/// The register domain is fixed and tiny (32 GPRs), so a flat array beats
/// any tree: clones are a memcpy, joins are 32 pointwise operations, and
/// equality is a flat compare. ⊤ is an ordinary element here, which is
/// observationally identical to the absent-means-⊤ convention of the cell
/// map — [`RegFile::get`] reports an explicit ⊤ as absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegFile([Interval; 32]);

impl Default for RegFile {
    fn default() -> RegFile {
        RegFile([Interval::top(); 32])
    }
}

impl RegFile {
    /// The interval bound to register index `k`, if informative.
    #[must_use]
    pub fn get(&self, k: u32) -> Option<Interval> {
        let v = self.0[k as usize];
        if v.is_top() {
            None
        } else {
            Some(v)
        }
    }

    /// Binds register index `k`.
    pub fn insert(&mut self, k: u32, v: Interval) {
        self.0[k as usize] = v;
    }

    /// Resets register index `k` to ⊤.
    pub fn remove(&mut self, k: u32) {
        self.0[k as usize] = Interval::top();
    }

    /// Pointwise merge (⊤ entries participate as ordinary elements; both
    /// `join` and `widen` fix ⊤, so this matches the intersection-merge
    /// semantics of the cell map exactly).
    #[must_use]
    pub fn merge(&self, other: &RegFile, f: impl Fn(Interval, Interval) -> Interval) -> RegFile {
        let mut out = *self;
        for (o, b) in out.0.iter_mut().zip(&other.0) {
            *o = f(*o, *b);
        }
        out
    }
}

/// Abstract machine state: register and memory-cell intervals.
///
/// Registers live in a flat [`RegFile`]; memory cells in a persistent
/// canonical map ([`PMap`]) — cloning a state is `O(1)` on the cell side,
/// and joins/widenings of mostly-equal cell maps touch only the differing
/// entries thanks to structural sharing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AbsState {
    /// GPR intervals by register index; ⊤ = no information.
    pub regs: RegFile,
    /// 32-bit memory cells by absolute address; absent = ⊤.
    pub cells: PMap,
}

impl AbsState {
    /// The entry state of a function activation: `r1` exact, everything
    /// else unknown.
    pub fn entry(sp: u32, program: &Program) -> AbsState {
        let mut s = AbsState::default();
        s.regs.insert(1, Interval::exact(sp as i32));
        s.regs
            .insert(2, Interval::exact(program.const_pool_base as i32));
        s.regs.insert(13, Interval::exact(program.sda_base as i32));
        s
    }

    /// The interval of a register (`r0` reads as a normal register here; the
    /// literal-zero convention is applied by the transfer function at the
    /// instructions where it holds).
    pub fn reg(&self, r: Gpr) -> Interval {
        self.regs
            .get(u32::from(r.index()))
            .unwrap_or_else(Interval::top)
    }

    fn base(&self, ra: Gpr) -> Interval {
        if ra == Gpr::R0 {
            Interval::exact(0)
        } else {
            self.reg(ra)
        }
    }

    /// Sets a register interval (⊤ clears the entry).
    pub fn set(&mut self, r: Gpr, v: Interval) {
        if v.is_top() {
            self.regs.remove(u32::from(r.index()));
        } else {
            self.regs.insert(u32::from(r.index()), v);
        }
    }

    /// The interval of a 32-bit memory cell (absent = ⊤).
    pub fn cell(&self, addr: u32) -> Interval {
        self.cells.get(addr).unwrap_or_else(Interval::top)
    }

    /// Sets a memory-cell interval (⊤ clears the entry).
    pub fn set_cell(&mut self, addr: u32, v: Interval) {
        if v.is_top() {
            self.cells.remove(addr);
        } else {
            self.cells.insert(addr, v);
        }
    }

    /// Join with another state (pointwise hull; missing keys are ⊤).
    /// Shared cell subtrees are recognized by pointer and reused wholesale.
    pub fn join(&self, other: &AbsState) -> AbsState {
        AbsState {
            regs: self.regs.merge(&other.regs, Interval::join),
            cells: self.cells.merge_shared(&other.cells, Interval::join),
        }
    }

    /// Widening against a newer state.
    pub fn widen(&self, newer: &AbsState) -> AbsState {
        AbsState {
            regs: self.regs.merge(&newer.regs, Interval::widen),
            cells: self.cells.merge_shared(&newer.cells, Interval::widen),
        }
    }
}

/// A location the loop-bound analysis can track: a register or an
/// exactly-addressed 32-bit memory cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackedLoc {
    /// A general-purpose register.
    Reg(Gpr),
    /// A memory cell by absolute address.
    Cell(u32),
}

/// A fact derived by the loop-bound analysis and fed back into the value
/// analysis: at entry to `header`, `loc` lies within `range` (the induction
/// variable's reachable window). This is the analysis interplay that keeps
/// widened induction variables — and therefore indexed table accesses —
/// bounded for the cache analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderFact {
    /// The loop-header block address the fact holds at.
    pub header: u32,
    /// The constrained location.
    pub loc: TrackedLoc,
    /// Its sound enclosing interval at the header.
    pub range: Interval,
}

/// Effective address of one data access, as far as the analysis can tell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessAddr {
    /// Exactly known.
    Exact(u32),
    /// Bounded range (inclusive, byte addresses of the access base).
    Range {
        /// Lowest possible address.
        lo: u32,
        /// Highest possible address.
        hi: u32,
    },
    /// Unknown.
    Unknown,
}

/// Computes the effective address of a memory instruction in a state.
pub fn access_addr(state: &AbsState, inst: &Inst) -> Option<AccessAddr> {
    use Inst::*;
    let of = |iv: Interval| -> AccessAddr {
        // Addresses are unsigned: a signed-negative exact value (e.g. the
        // 0xF000_0000 I/O base) is a perfectly precise high address.
        if let Some(v) = iv.as_exact() {
            return AccessAddr::Exact(v as u32);
        }
        if iv.is_top() {
            return AccessAddr::Unknown;
        }
        let same_sign = (iv.lo < 0) == (iv.hi < 0);
        if same_sign {
            AccessAddr::Range {
                lo: iv.lo as i32 as u32,
                hi: iv.hi as i32 as u32,
            }
        } else {
            AccessAddr::Unknown // the unsigned range wraps
        }
    };
    match *inst {
        Lwz { d, ra, .. }
        | Stw { d, ra, .. }
        | Stwu { d, ra, .. }
        | Lfd { d, ra, .. }
        | Stfd { d, ra, .. } => Some(of(state.base(ra).add(Interval::exact(i32::from(d))))),
        Lwzx { ra, rb, .. } | Stwx { ra, rb, .. } | Lfdx { ra, rb, .. } | Stfdx { ra, rb, .. } => {
            Some(of(state.reg(ra).add(state.reg(rb))))
        }
        _ => None,
    }
}

/// Applies one instruction's transfer function.
pub fn transfer(
    state: &mut AbsState,
    inst: &Inst,
    cfg: &MachineConfig,
    annots: Option<&AnnotationFile>,
) {
    use Inst::*;
    match *inst {
        Addi { rd, ra, imm } => {
            let v = state.base(ra).add(Interval::exact(i32::from(imm)));
            state.set(rd, v);
        }
        Addis { rd, ra, imm } => {
            let v = state
                .base(ra)
                .add(Interval::exact((i32::from(imm)).wrapping_mul(65536)));
            state.set(rd, v);
        }
        Mulli { rd, ra, imm } => {
            let v = state.reg(ra).mul(Interval::exact(i32::from(imm)));
            state.set(rd, v);
        }
        Add { rd, ra, rb } => {
            let v = state.reg(ra).add(state.reg(rb));
            state.set(rd, v);
        }
        Subf { rd, ra, rb } => {
            let v = state.reg(rb).sub(state.reg(ra));
            state.set(rd, v);
        }
        Mullw { rd, ra, rb } => {
            let v = state.reg(ra).mul(state.reg(rb));
            state.set(rd, v);
        }
        Neg { rd, ra } => {
            let v = Interval::exact(0).sub(state.reg(ra));
            state.set(rd, v);
        }
        Ori { rd, ra, imm } => {
            let v = match state.reg(ra).as_exact() {
                Some(x) => Interval::exact(x | i32::from(imm)),
                None => Interval::top(),
            };
            state.set(rd, v);
        }
        Andi { rd, ra, imm } => {
            let v = match state.reg(ra).as_exact() {
                Some(x) => Interval::exact(x & i32::from(imm)),
                // masking keeps the value non-negative and bounded
                None => Interval {
                    lo: 0,
                    hi: i64::from(imm),
                },
            };
            state.set(rd, v);
        }
        Xori { rd, ra, imm } => {
            let v = match state.reg(ra).as_exact() {
                Some(x) => Interval::exact(x ^ i32::from(imm)),
                None => Interval::top(),
            };
            state.set(rd, v);
        }
        Srawi { rd, ra, sh } => {
            let r = state.reg(ra);
            let v = Interval {
                lo: r.lo >> sh,
                hi: r.hi >> sh,
            };
            state.set(rd, v);
        }
        Rlwinm { rd, ra, sh, mb, me } => {
            let r = state.reg(ra);
            let v = match r.as_exact() {
                Some(x) => Interval::exact(
                    ((x as u32).rotate_left(u32::from(sh))
                        & vericomp_arch::inst::rlwinm_mask(mb, me)) as i32,
                ),
                // the `slwi` form on a bounded non-negative interval is a
                // plain multiplication by 2^sh — this keeps scaled table
                // indices bounded for the cache analysis
                None if mb == 0 && me == 31 - sh && r.lo >= 0 => {
                    let hi = r.hi.checked_shl(u32::from(sh)).unwrap_or(i64::MAX);
                    if hi <= i64::from(i32::MAX) {
                        Interval { lo: r.lo << sh, hi }
                    } else {
                        Interval::top()
                    }
                }
                None => Interval::top(),
            };
            state.set(rd, v);
        }
        Slw { rd, .. }
        | Srw { rd, .. }
        | Sraw { rd, .. }
        | Divw { rd, .. }
        | Divwu { rd, .. }
        | Ftoi { rd, .. }
        | Mflr { rd } => {
            state.set(rd, Interval::top());
        }
        And { rd, .. } | Or { rd, .. } | Xor { rd, .. } => state.set(rd, Interval::top()),
        Lwz { rd, d, ra } => {
            let addr = state.base(ra).add(Interval::exact(i32::from(d)));
            let v = match addr.as_exact() {
                Some(a) => state.cell(a as u32),
                None => Interval::top(),
            };
            state.set(rd, v);
        }
        Lwzx { rd, .. } => state.set(rd, Interval::top()),
        Stw { rs, d, ra } => {
            let addr = state.base(ra).add(Interval::exact(i32::from(d)));
            store_cell(state, addr, Some(state.reg(rs)), 4);
        }
        Stwu { rs, d, ra } => {
            let addr = state.base(ra).add(Interval::exact(i32::from(d)));
            store_cell(state, addr, Some(state.reg(rs)), 4);
            // rA receives the effective address
            state.set(ra, addr);
        }
        Stwx { .. } => {
            // unknown word store: clobber everything
            state.cells.clear();
        }
        Stfd { d, ra, .. } => {
            let addr = state.base(ra).add(Interval::exact(i32::from(d)));
            store_cell(state, addr, None, 8);
        }
        Stfdx { .. } => state.cells.clear(),
        Lfd { .. }
        | Lfdx { .. }
        | Fadd { .. }
        | Fsub { .. }
        | Fmul { .. }
        | Fdiv { .. }
        | Fmadd { .. }
        | Fneg { .. }
        | Fabs { .. }
        | Fmr { .. }
        | Itof { .. }
        | Fcmpu { .. }
        | Cmpw { .. }
        | Cmpwi { .. }
        | Nop
        | B { .. }
        | Bc { .. }
        | Blr
        | Mtlr { .. } => {}
        Bl { .. } => {
            // volatile registers die
            for r in [0u32, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12] {
                state.regs.remove(r);
            }
            // the callee may write any global and its own (lower) frames;
            // only cells in the live stack above the current r1 survive
            let sp = state.reg(Gpr::SP).as_exact().map(|v| v as u32);
            match sp {
                Some(sp) => {
                    state.cells.range_restrict(sp, cfg.stack_top);
                }
                None => state.cells.clear(),
            }
        }
        Annot { id } => {
            if let Some(file) = annots {
                if let Some(entry) = file.entries.get(&id) {
                    for c in &entry.constraints {
                        let Some(loc) = entry.args.get(c.arg - 1) else {
                            continue;
                        };
                        let constraint = Interval {
                            lo: c.lo.max(I32MIN),
                            hi: c.hi.min(I32MAX),
                        };
                        match *loc {
                            ArgLoc::Gpr(r) => {
                                let v = state.reg(r).meet(constraint);
                                state.set(r, v);
                            }
                            ArgLoc::Stack(off, _) => {
                                if let Some(sp) = state.reg(Gpr::SP).as_exact() {
                                    let a = (sp as u32).wrapping_add(off as i32 as u32);
                                    let v = state.cell(a).meet(constraint);
                                    state.set_cell(a, v);
                                }
                            }
                            ArgLoc::Global(addr, _) => {
                                let v = state.cell(addr).meet(constraint);
                                state.set_cell(addr, v);
                            }
                            ArgLoc::Fpr(_) => {}
                        }
                    }
                }
            }
        }
    }
}

fn store_cell(state: &mut AbsState, addr: Interval, value: Option<Interval>, bytes: u32) {
    match addr.as_exact() {
        Some(a) => {
            let a = a as u32;
            match value {
                Some(v) if bytes == 4 => state.set_cell(a, v),
                _ => {
                    for k in 0..bytes / 4 {
                        state.cells.remove(a + 4 * k);
                    }
                }
            }
        }
        None => {
            // bounded-range store: clobber the range; unbounded: clobber all
            if addr.is_top() || addr.lo < 0 {
                state.cells.clear();
            } else {
                let lo = addr.lo as u32;
                let hi = addr.hi as u32 + bytes;
                // a word at `a` overlaps [lo, hi) iff a + 4 > lo && a < hi
                state.cells.range_remove(lo.saturating_sub(3), hi);
            }
        }
    }
}

/// Result of the value analysis: the abstract state at entry to every block.
#[derive(Debug, Clone)]
pub struct ValueAnalysis {
    /// Block-entry states, indexed by RPO position in the CFG the analysis
    /// ran over (`None` only for blocks the fixpoint never reached, which
    /// cannot happen for blocks in the RPO).
    pub at_entry: Vec<Option<AbsState>>,
}

impl ValueAnalysis {
    /// The entry state of the block starting at `addr`, if reachable.
    pub fn at(&self, cfg_graph: &Cfg, addr: u32) -> Option<&AbsState> {
        let &i = cfg_graph.index_of().get(&addr)?;
        self.at_entry.get(i as usize)?.as_ref()
    }
}

/// Runs the fixpoint over a function CFG, applying [`HeaderFact`]s
/// (derived by a prior loop-bound pass) whenever a state flows into a
/// loop header.
///
/// `sp` is the concrete stack-pointer value at function entry (known from
/// the startup convention and the call path).
pub fn analyze_with_facts(
    cfg_graph: &Cfg,
    machine: &MachineConfig,
    program: &Program,
    sp: u32,
    annots: Option<&AnnotationFile>,
    facts: &[HeaderFact],
) -> ValueAnalysis {
    let mut arena = Arena::new();
    analyze_with_facts_in(&mut arena, cfg_graph, machine, program, sp, annots, facts)
}

/// The sparse fixpoint, threading a caller-owned hash-consing [`Arena`] so
/// a session can share interned states across many functions and calls.
///
/// Iteration is a round-based reverse-postorder worklist ([`Worklist`]):
/// within a round blocks run in ascending RPO position, and a block is
/// revisited only when a predecessor changed its entry state. This is the
/// dense sweep's visit order restricted to productive visits, so widening
/// fires at exactly the same joins and the result is bit-identical to the
/// historical dense analyzer. Stored states are canonized in the arena,
/// making the convergence comparison a pointer check on everything seen
/// before.
pub fn analyze_with_facts_in(
    arena: &mut Arena,
    cfg_graph: &Cfg,
    machine: &MachineConfig,
    program: &Program,
    sp: u32,
    annots: Option<&AnnotationFile>,
    facts: &[HeaderFact],
) -> ValueAnalysis {
    let apply_facts = |block: u32, state: &mut AbsState| {
        for f in facts.iter().filter(|f| f.header == block) {
            match f.loc {
                TrackedLoc::Reg(r) => {
                    let v = state.reg(r).meet(f.range);
                    state.set(r, v);
                }
                TrackedLoc::Cell(a) => {
                    let v = state.cell(a).meet(f.range);
                    state.set_cell(a, v);
                }
            }
        }
    };
    let canonize = |arena: &mut Arena, s: &AbsState| AbsState {
        regs: s.regs,
        cells: arena.canonize(&s.cells),
    };
    // Dense indexing by RPO position: every per-block table is a Vec, so
    // the inner loop does no tree lookups at all. The index tables are
    // computed once at CFG reconstruction and shared by every phase.
    let rpo = cfg_graph.rpo();
    let blocks: Vec<&crate::cfg::Block> = rpo.iter().map(|&b| &cfg_graph.blocks[&b]).collect();
    let succ_idx = cfg_graph.succ_idx();
    let mut is_header = vec![false; rpo.len()];
    for l in &cfg_graph.loops {
        if let Some(&i) = cfg_graph.index_of().get(&l.header) {
            is_header[i as usize] = true;
        }
    }

    let mut at_entry: Vec<Option<AbsState>> = vec![None; rpo.len()];
    at_entry[0] = Some(canonize(arena, &AbsState::entry(sp, program)));
    let mut visits = vec![0u32; rpo.len()];
    let mut work = Worklist::seeded(0);

    while let Some(i) = work.pop() {
        let Some(in_state) = at_entry[i as usize].clone() else {
            continue;
        };
        let mut s = in_state;
        for inst in &blocks[i as usize].insts {
            transfer(&mut s, inst, machine, annots);
        }
        for &si in &succ_idx[i as usize] {
            let succ = rpo[si as usize];
            let mut merged = match &at_entry[si as usize] {
                None => s.clone(),
                Some(old) => {
                    let joined = old.join(&s);
                    if is_header[si as usize] && visits[si as usize] >= 2 {
                        old.widen(&joined)
                    } else {
                        joined
                    }
                }
            };
            apply_facts(succ, &mut merged);
            let merged = canonize(arena, &merged);
            if at_entry[si as usize].as_ref() != Some(&merged) {
                visits[si as usize] += 1;
                at_entry[si as usize] = Some(merged);
                work.push(si);
            }
        }
    }
    ValueAnalysis { at_entry }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_arithmetic() {
        let a = Interval { lo: 1, hi: 4 };
        let b = Interval { lo: -2, hi: 3 };
        assert_eq!(a.add(b), Interval { lo: -1, hi: 7 });
        assert_eq!(a.sub(b), Interval { lo: -2, hi: 6 });
        assert_eq!(a.mul(b), Interval { lo: -8, hi: 12 });
        assert_eq!(a.join(b), Interval { lo: -2, hi: 4 });
        assert_eq!(a.meet(Interval { lo: 2, hi: 9 }), Interval { lo: 2, hi: 4 });
        assert!(Interval::top().add(a).is_top());
        assert_eq!(
            Interval::exact(i32::MAX).add(Interval::exact(1)),
            Interval::top(),
            "overflow loses information, never wraps"
        );
    }

    #[test]
    fn widen_pushes_moving_bounds() {
        let old = Interval { lo: 0, hi: 3 };
        let newer = Interval { lo: 0, hi: 5 };
        let w = old.widen(newer);
        assert_eq!(w.lo, 0);
        assert_eq!(w.hi, I32MAX);
    }

    #[test]
    fn transfer_tracks_immediates_and_stack() {
        use vericomp_arch::inst::Inst as M;
        let cfg = MachineConfig::mpc755();
        let mut s = AbsState::default();
        s.regs.insert(1, Interval::exact(0x1FFF_0000));
        let g = Gpr::new;
        transfer(&mut s, &M::li(g(5), 42), &cfg, None);
        assert_eq!(s.reg(g(5)).as_exact(), Some(42));
        transfer(
            &mut s,
            &M::Stw {
                rs: g(5),
                d: 8,
                ra: g(1),
            },
            &cfg,
            None,
        );
        transfer(
            &mut s,
            &M::Lwz {
                rd: g(6),
                d: 8,
                ra: g(1),
            },
            &cfg,
            None,
        );
        assert_eq!(s.reg(g(6)).as_exact(), Some(42));
        transfer(
            &mut s,
            &M::Addi {
                rd: g(6),
                ra: g(6),
                imm: -2,
            },
            &cfg,
            None,
        );
        assert_eq!(s.reg(g(6)).as_exact(), Some(40));
    }

    #[test]
    fn call_clobbers_volatiles_and_globals_but_not_frame() {
        use vericomp_arch::inst::Inst as M;
        let cfg = MachineConfig::mpc755();
        let sp = cfg.stack_top - 64;
        let mut s = AbsState::default();
        let g = Gpr::new;
        s.regs.insert(1, Interval::exact(sp as i32));
        s.regs.insert(3, Interval::exact(7));
        s.regs.insert(14, Interval::exact(9));
        s.cells.insert(sp + 8, Interval::exact(1)); // frame slot
        s.cells.insert(cfg.data_base, Interval::exact(2)); // global
        transfer(&mut s, &M::Bl { target: 0 }, &cfg, None);
        assert!(s.reg(g(3)).is_top());
        assert_eq!(s.reg(g(14)).as_exact(), Some(9));
        assert_eq!(s.cell(sp + 8).as_exact(), Some(1));
        assert!(s.cell(cfg.data_base).is_top());
    }

    #[test]
    fn unknown_store_clobbers_range() {
        use vericomp_arch::inst::Inst as M;
        let cfg = MachineConfig::mpc755();
        let mut s = AbsState::default();
        let g = Gpr::new;
        s.cells.insert(0x1000_0000, Interval::exact(1));
        s.cells.insert(0x1000_0100, Interval::exact(2));
        // store with a bounded-range address covering only the first cell
        s.regs.insert(
            9,
            Interval {
                lo: 0x1000_0000,
                hi: 0x1000_0010,
            },
        );
        transfer(
            &mut s,
            &M::Stw {
                rs: g(5),
                d: 0,
                ra: g(9),
            },
            &cfg,
            None,
        );
        assert!(s.cell(0x1000_0000).is_top());
        assert_eq!(s.cell(0x1000_0100).as_exact(), Some(2));
        // fully unknown store kills everything
        transfer(
            &mut s,
            &M::Stwx {
                rs: g(5),
                ra: g(9),
                rb: g(10),
            },
            &cfg,
            None,
        );
        assert!(s.cells.is_empty());
    }

    #[test]
    fn access_addresses_classified() {
        use vericomp_arch::inst::Inst as M;
        let mut s = AbsState::default();
        let g = Gpr::new;
        s.regs.insert(13, Interval::exact(0x1000_8000));
        s.regs.insert(7, Interval { lo: 0, hi: 24 });
        let exact = access_addr(
            &s,
            &M::Lwz {
                rd: g(3),
                d: -16,
                ra: g(13),
            },
        )
        .unwrap();
        assert_eq!(exact, AccessAddr::Exact(0x1000_7FF0));
        let range = access_addr(
            &s,
            &M::Lwzx {
                rd: g(3),
                ra: g(13),
                rb: g(7),
            },
        )
        .unwrap();
        assert_eq!(
            range,
            AccessAddr::Range {
                lo: 0x1000_8000,
                hi: 0x1000_8018
            }
        );
        let unknown = access_addr(
            &s,
            &M::Lwzx {
                rd: g(3),
                ra: g(20),
                rb: g(7),
            },
        )
        .unwrap();
        assert_eq!(unknown, AccessAddr::Unknown);
        assert_eq!(access_addr(&s, &M::Nop), None);
    }
}
