//! Graph-coloring register allocation (Chaitin–Briggs style) with iterated
//! spilling — "register allocation by graph coloring", the CompCert pass the
//! paper credits with most of the WCET gain.
//!
//! Virtual registers that live across a call are restricted to callee-saved
//! registers; everything else may use the volatile set too. The reserved
//! registers (`r0` prologue scratch, `r1` SP, `r2` TOC, `r11`/`r12` emission
//! scratch, `r13` SDA, `f12`/`f13` emission scratch) are never allocated.
//!
//! The allocator is *untrusted*: its result is independently checked by
//! [`crate::validate::check_allocation`], our analog of CompCert's verified
//! translation validation for this pass.

use std::collections::BTreeMap;
use std::fmt;

use vericomp_arch::reg::{Fpr, Gpr};

use crate::liveness::{self, VregSet};
use crate::rtl::{Addr, Func, Inst, RegClass, Vreg};
use crate::CompileError;

/// A physical register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PReg {
    /// General-purpose register.
    G(Gpr),
    /// Floating-point register.
    F(Fpr),
}

impl PReg {
    /// The class of the register.
    pub fn class(self) -> RegClass {
        match self {
            PReg::G(_) => RegClass::I,
            PReg::F(_) => RegClass::F,
        }
    }
}

impl fmt::Display for PReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PReg::G(r) => r.fmt(f),
            PReg::F(r) => r.fmt(f),
        }
    }
}

/// The allocatable register sets.
#[derive(Debug, Clone)]
pub struct Palette {
    /// Volatile (caller-saved) GPRs, preferred.
    pub volatile_i: Vec<Gpr>,
    /// Callee-saved GPRs (cost a save/restore in the prologue).
    pub saved_i: Vec<Gpr>,
    /// Volatile FPRs.
    pub volatile_f: Vec<Fpr>,
    /// Callee-saved FPRs.
    pub saved_f: Vec<Fpr>,
}

impl Palette {
    /// The full palette used by the optimizing configurations.
    pub fn full() -> Palette {
        Palette {
            volatile_i: (3..=10).map(Gpr::new).collect(),
            saved_i: (14..=31).map(Gpr::new).collect(),
            volatile_f: (1..=11).map(Fpr::new).collect(),
            saved_f: (14..=31).map(Fpr::new).collect(),
        }
    }

    /// The small scratch palette of the pattern-based configurations: it
    /// mimics the "manual register allocation" of the incumbent process,
    /// where each code pattern only touches a handful of scratch registers.
    pub fn scratch_only() -> Palette {
        Palette {
            volatile_i: (5..=10).map(Gpr::new).collect(),
            saved_i: vec![],
            volatile_f: (5..=11).map(Fpr::new).collect(),
            saved_f: vec![],
        }
    }

    fn colors(&self, class: RegClass, across_call: bool) -> Vec<PReg> {
        match (class, across_call) {
            (RegClass::I, false) => self
                .volatile_i
                .iter()
                .chain(&self.saved_i)
                .map(|&r| PReg::G(r))
                .collect(),
            (RegClass::I, true) => self.saved_i.iter().map(|&r| PReg::G(r)).collect(),
            (RegClass::F, false) => self
                .volatile_f
                .iter()
                .chain(&self.saved_f)
                .map(|&r| PReg::F(r))
                .collect(),
            (RegClass::F, true) => self.saved_f.iter().map(|&r| PReg::F(r)).collect(),
        }
    }

    fn k(&self, class: RegClass) -> usize {
        match class {
            RegClass::I => self.volatile_i.len() + self.saved_i.len(),
            RegClass::F => self.volatile_f.len() + self.saved_f.len(),
        }
    }
}

/// The result of allocation: a total map from occurring virtual registers to
/// physical registers.
#[derive(Debug, Clone, Default)]
pub struct Allocation {
    /// Virtual → physical assignment.
    pub map: BTreeMap<Vreg, PReg>,
}

impl Allocation {
    /// The physical register of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not seen during allocation (a compiler bug).
    pub fn preg(&self, v: Vreg) -> PReg {
        self.map[&v]
    }
}

/// Interference information, exposed so the validator can rebuild and check
/// it independently.
#[derive(Debug, Clone, Default)]
pub struct Interference {
    /// Adjacency rows, indexed by `Vreg.0`. A row grows only as far as its
    /// highest neighbour, so memory follows the edges.
    pub edges: Vec<VregSet>,
    /// Virtual registers that are live across at least one call.
    pub across_call: VregSet,
    /// Every virtual register that occurs in the function.
    pub occurring: VregSet,
}

impl Interference {
    fn add_edge(&mut self, a: Vreg, b: Vreg) {
        if a != b {
            self.edges[a.0 as usize].insert(b);
            self.edges[b.0 as usize].insert(a);
        }
    }

    /// Whether `a` and `b` interfere.
    pub fn interferes(&self, a: Vreg, b: Vreg) -> bool {
        self.edges
            .get(a.0 as usize)
            .is_some_and(|row| row.contains(b))
    }
}

/// Builds the interference graph of `f` (with the standard move-source
/// refinement: a move's destination does not interfere with its source).
pub fn build_interference(f: &Func) -> Interference {
    let live = liveness::analyze(f);
    let width = f.vregs.len();
    let mut g = Interference {
        edges: vec![VregSet::new(); width],
        across_call: VregSet::with_width(width),
        occurring: VregSet::with_width(width),
    };

    for &p in &f.params {
        g.occurring.insert(p);
    }
    // Parameters are all defined at entry by the prologue moves.
    for (i, &a) in f.params.iter().enumerate() {
        for &b in &f.params[i + 1..] {
            g.add_edge(a, b);
        }
        for x in &live.live_in[f.entry.0 as usize] {
            g.add_edge(a, x);
        }
    }

    let mut live_now = VregSet::with_width(width);
    for bid in f.rpo() {
        let block = f.block(bid);
        live_now.clone_from(&live.live_out[bid.0 as usize]);
        block.term.for_each_use(|u| {
            live_now.insert(u);
            g.occurring.insert(u);
        });
        for inst in block.insts.iter().rev() {
            let def = inst.def();
            if matches!(inst, Inst::Call { .. }) {
                for v in &live_now {
                    if Some(v) != def {
                        g.across_call.insert(v);
                    }
                }
            }
            if let Some(d) = def {
                g.occurring.insert(d);
                let move_src = match inst {
                    Inst::MovI { src, .. } | Inst::MovF { src, .. } => Some(*src),
                    _ => None,
                };
                for x in &live_now {
                    if x != d && Some(x) != move_src {
                        g.add_edge(d, x);
                    }
                }
                live_now.remove(d);
            }
            inst.for_each_use(|u| {
                live_now.insert(u);
                g.occurring.insert(u);
            });
        }
    }
    g
}

/// Allocates registers, spilling to fresh stack slots until colorable.
///
/// # Errors
///
/// [`CompileError::RegAlloc`] if spilling does not converge (would indicate
/// an allocator bug — spilled ranges are single-instruction and always
/// colorable with ≥ 3 registers per class).
pub fn allocate(f: &mut Func, palette: &Palette) -> Result<Allocation, CompileError> {
    for _round in 0..16 {
        let g = build_interference(f);
        match try_color(f, palette, &g) {
            Ok(map) => return Ok(Allocation { map }),
            Err(spills) => {
                rewrite_spills(f, &spills);
            }
        }
    }
    Err(CompileError::RegAlloc(format!(
        "spilling did not converge in function `{}`",
        f.name
    )))
}

/// The bit of `p` in a 64-bit mask over both register files.
fn preg_bit(p: PReg) -> u64 {
    match p {
        PReg::G(r) => 1 << r.index(),
        PReg::F(r) => 1 << (32 + r.index()),
    }
}

/// Attempts to color; on failure returns the set of vregs to spill.
fn try_color(
    f: &Func,
    palette: &Palette,
    g: &Interference,
) -> Result<BTreeMap<Vreg, PReg>, VregSet> {
    let (k_i, k_f) = (palette.k(RegClass::I), palette.k(RegClass::F));
    let k = |v: Vreg| match f.class_of(v) {
        RegClass::I => k_i,
        RegClass::F => k_f,
    };

    // Simplify: repeatedly remove the lowest-numbered node of degree < k;
    // otherwise pick a spill candidate optimistically. `degree` counts the
    // remaining neighbours; degrees only fall, so `low` always holds
    // exactly the remaining nodes of degree < k.
    let mut degree: Vec<usize> = g.edges.iter().map(VregSet::len).collect();
    let mut remaining = g.occurring.clone();
    let mut low: VregSet = remaining
        .iter()
        .filter(|&v| degree[v.0 as usize] < k(v))
        .collect();
    let nodes = remaining.len();
    let mut stack: Vec<Vreg> = Vec::with_capacity(nodes);
    for _ in 0..nodes {
        let v = low.pop_first().unwrap_or_else(|| {
            // optimistic spill candidate: maximal degree, lowest index tiebreak
            remaining
                .iter()
                .max_by_key(|&v| (degree[v.0 as usize], std::cmp::Reverse(v.0)))
                .expect("remaining not empty")
        });
        remaining.remove(v);
        stack.push(v);
        for x in &g.edges[v.0 as usize] {
            if remaining.contains(x) {
                degree[x.0 as usize] -= 1;
                if degree[x.0 as usize] < k(x) {
                    low.insert(x);
                }
            }
        }
    }

    // Select: pop and color, reading neighbour colors from a dense table.
    let palettes = [
        [
            palette.colors(RegClass::I, false),
            palette.colors(RegClass::I, true),
        ],
        [
            palette.colors(RegClass::F, false),
            palette.colors(RegClass::F, true),
        ],
    ];
    let mut colors: Vec<Option<PReg>> = vec![None; g.edges.len()];
    let mut spills = VregSet::new();
    while let Some(v) = stack.pop() {
        let taken = g.edges[v.0 as usize]
            .iter()
            .filter_map(|n| colors[n.0 as usize])
            .fold(0, |mask, p| mask | preg_bit(p));
        let class = usize::from(f.class_of(v) == RegClass::F);
        let across = usize::from(g.across_call.contains(v));
        match palettes[class][across]
            .iter()
            .find(|&&c| taken & preg_bit(c) == 0)
        {
            Some(&c) => colors[v.0 as usize] = Some(c),
            None => {
                spills.insert(v);
            }
        }
    }
    if spills.is_empty() {
        Ok(g.occurring
            .iter()
            .map(|v| (v, colors[v.0 as usize].expect("every node colored")))
            .collect())
    } else {
        Err(spills)
    }
}

/// Rewrites spilled vregs into per-occurrence temporaries staged through
/// fresh stack slots.
fn rewrite_spills(f: &mut Func, spills: &VregSet) {
    let mut slot_of = BTreeMap::new();
    for v in spills {
        let class = f.class_of(v);
        slot_of.insert(v, f.new_slot(class, "spill"));
    }
    let mov = |load: bool, v: Vreg, slot| {
        if load {
            Inst::Load {
                dst: v,
                addr: Addr::Stack(slot),
            }
        } else {
            Inst::Store {
                src: v,
                addr: Addr::Stack(slot),
            }
        }
    };

    let param_spills: Vec<Vreg> = f
        .params
        .iter()
        .copied()
        .filter(|&p| spills.contains(p))
        .collect();

    let nblocks = f.blocks.len();
    for bi in 0..nblocks {
        let insts = std::mem::take(&mut f.blocks[bi].insts);
        let mut out = Vec::with_capacity(insts.len());
        // Parameters spilled: store them at the very top of the entry block.
        if bi == f.entry.0 as usize {
            for &p in &param_spills {
                out.push(mov(false, p, slot_of[&p]));
            }
        }
        for mut inst in insts {
            // uses first
            let mut pre = Vec::new();
            inst.map_uses(&mut |v| {
                if let Some(&slot) = slot_of.get(&v) {
                    let t = f.vregs.len() as u32;
                    f.vregs.push(f.vregs[v.0 as usize]);
                    let t = Vreg(t);
                    pre.push(mov(true, t, slot));
                    t
                } else {
                    v
                }
            });
            out.extend(pre);
            // then the def
            let mut post = Vec::new();
            inst.map_def(&mut |v| {
                if let Some(&slot) = slot_of.get(&v) {
                    let t = f.vregs.len() as u32;
                    f.vregs.push(f.vregs[v.0 as usize]);
                    let t = Vreg(t);
                    post.push(mov(false, t, slot));
                    t
                } else {
                    v
                }
            });
            out.push(inst);
            out.extend(post);
        }
        // terminator uses
        let mut pre = Vec::new();
        let mut term = f.blocks[bi].term.clone();
        term.map_uses(&mut |v| {
            if let Some(&slot) = slot_of.get(&v) {
                let t = f.vregs.len() as u32;
                f.vregs.push(f.vregs[v.0 as usize]);
                let t = Vreg(t);
                pre.push(mov(true, t, slot));
                t
            } else {
                v
            }
        });
        out.extend(pre);
        f.blocks[bi].insts = out;
        f.blocks[bi].term = term;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtl::{Block, BlockId, IBin, Term};

    fn empty_func() -> Func {
        Func {
            name: "t".into(),
            params: vec![],
            ret: None,
            vregs: vec![],
            slots: vec![],
            blocks: vec![],
            entry: BlockId(0),
        }
    }

    /// n simultaneously-live integer values, summed at the end.
    fn high_pressure(n: u32) -> Func {
        let mut f = empty_func();
        let b = f.new_block();
        f.entry = b;
        let vs: Vec<Vreg> = (0..n).map(|_| f.new_vreg(RegClass::I)).collect();
        let mut insts: Vec<Inst> = vs
            .iter()
            .enumerate()
            .map(|(i, &v)| Inst::ImmI {
                dst: v,
                value: i as i32,
            })
            .collect();
        let acc = f.new_vreg(RegClass::I);
        insts.push(Inst::ImmI { dst: acc, value: 0 });
        for &v in &vs {
            insts.push(Inst::BinI {
                op: IBin::Add,
                dst: acc,
                a: acc,
                b: v,
            });
        }
        f.blocks[0] = Block {
            insts,
            term: Term::Ret(Some(acc)),
        };
        f.ret = Some(RegClass::I);
        f
    }

    #[test]
    fn colors_respect_interference() {
        let mut f = high_pressure(6);
        let alloc = allocate(&mut f, &Palette::full()).unwrap();
        let g = build_interference(&f);
        for (a, neigh) in g.edges.iter().enumerate() {
            let a = Vreg(a as u32);
            for b in neigh {
                assert_ne!(alloc.preg(a), alloc.preg(b), "{a} and {b} interfere");
            }
        }
    }

    #[test]
    fn class_respected() {
        let mut f = empty_func();
        let b = f.new_block();
        f.entry = b;
        let i = f.new_vreg(RegClass::I);
        let x = f.new_vreg(RegClass::F);
        f.blocks[0] = Block {
            insts: vec![
                Inst::ImmI { dst: i, value: 1 },
                Inst::ImmF { dst: x, value: 1.0 },
                Inst::Store {
                    src: x,
                    addr: Addr::Io(0),
                },
            ],
            term: Term::Ret(Some(i)),
        };
        f.ret = Some(RegClass::I);
        let alloc = allocate(&mut f, &Palette::full()).unwrap();
        assert_eq!(alloc.preg(i).class(), RegClass::I);
        assert_eq!(alloc.preg(x).class(), RegClass::F);
    }

    #[test]
    fn spills_under_pressure_and_converges() {
        // 40 live values > 26 int registers: must spill yet stay correct.
        let mut f = high_pressure(40);
        let alloc = allocate(&mut f, &Palette::full()).unwrap();
        // final graph colorable and disjoint
        let g = build_interference(&f);
        for (a, neigh) in g.edges.iter().enumerate() {
            for b in neigh {
                assert_ne!(alloc.preg(Vreg(a as u32)), alloc.preg(b));
            }
        }
        assert!(
            f.slots.iter().any(|s| s.origin == "spill"),
            "expected spill slots to be created"
        );
    }

    #[test]
    fn tiny_scratch_palette_still_allocates_via_spills() {
        let mut f = high_pressure(12);
        let alloc = allocate(&mut f, &Palette::scratch_only()).unwrap();
        for p in alloc.map.values() {
            match p {
                PReg::G(r) => assert!((5..=10).contains(&r.index())),
                PReg::F(r) => assert!((5..=11).contains(&r.index())),
            }
        }
    }

    #[test]
    fn call_crossing_values_get_callee_saved_registers() {
        let mut f = empty_func();
        let b = f.new_block();
        f.entry = b;
        let v = f.new_vreg(RegClass::I);
        let r = f.new_vreg(RegClass::I);
        f.blocks[0] = Block {
            insts: vec![
                Inst::ImmI { dst: v, value: 7 },
                Inst::Call {
                    dst: Some(r),
                    callee: "h".into(),
                    args: vec![],
                },
                Inst::BinI {
                    op: IBin::Add,
                    dst: r,
                    a: r,
                    b: v,
                },
            ],
            term: Term::Ret(Some(r)),
        };
        f.ret = Some(RegClass::I);
        let alloc = allocate(&mut f, &Palette::full()).unwrap();
        match alloc.preg(v) {
            PReg::G(g) => assert!(g.index() >= 14, "v crosses the call, got {g}"),
            _ => panic!("wrong class"),
        }
    }

    #[test]
    fn move_refinement_allows_coalescable_assignment() {
        // dst = src; both live after? No: src dead after the move — they may share.
        let mut f = empty_func();
        let b = f.new_block();
        f.entry = b;
        let a = f.new_vreg(RegClass::I);
        let c = f.new_vreg(RegClass::I);
        f.blocks[0] = Block {
            insts: vec![
                Inst::ImmI { dst: a, value: 1 },
                Inst::MovI { dst: c, src: a },
            ],
            term: Term::Ret(Some(c)),
        };
        f.ret = Some(RegClass::I);
        let g = build_interference(&f);
        assert!(!g.interferes(a, c));
    }
}
