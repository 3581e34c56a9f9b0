//! Loop-bound analysis.
//!
//! For every natural loop the analyzer looks for a *counted-loop witness*:
//! an exit test in the header or a latch, comparing an induction location
//! (register **or stack slot/global cell** — the `-O0` code keeps counters
//! in memory) against a loop-invariant bound, where the induction location
//! is updated by exactly one constant-step `addi` site per iteration. The
//! trip bound follows from the interval of the initial value (value
//! analysis, possibly sharpened by annotations) and the interval of the
//! bound operand.
//!
//! Loops without a witness are reported as [`AnalysisError::UnboundedLoop`]
//! — the situation the paper's annotation mechanism exists to resolve.

use std::collections::BTreeMap;

use vericomp_arch::inst::{Cond, Inst, Reg};
use vericomp_arch::reg::Gpr;
use vericomp_arch::MachineConfig;

use crate::annot::AnnotationFile;
use crate::cfg::{dominators, Cfg, NaturalLoop};
use crate::value::{transfer, AbsState, HeaderFact, Interval, TrackedLoc as Loc, ValueAnalysis};
use crate::AnalysisError;

/// Replays the value analysis through a block up to (excluding) `upto`.
fn replay(
    cfg: &Cfg,
    va: &ValueAnalysis,
    machine: &MachineConfig,
    annots: Option<&AnnotationFile>,
    block: u32,
    upto: usize,
) -> AbsState {
    let mut s = va.at(cfg, block).cloned().unwrap_or_default();
    for inst in cfg.blocks[&block].insts.iter().take(upto) {
        transfer(&mut s, inst, machine, annots);
    }
    s
}

fn loc_interval(state: &AbsState, loc: Loc) -> Interval {
    match loc {
        Loc::Reg(r) => state.reg(r),
        Loc::Cell(a) => state.cell(a),
    }
}

/// Resolves the location a compare operand denotes: if the register was
/// last defined in this block by a stack/global load with an exact address,
/// the location is that memory cell; otherwise it is the register itself.
fn operand_loc(
    cfg: &Cfg,
    va: &ValueAnalysis,
    machine: &MachineConfig,
    annots: Option<&AnnotationFile>,
    block: u32,
    cmp_idx: usize,
    reg: Gpr,
) -> Loc {
    let insts = &cfg.blocks[&block].insts;
    for idx in (0..cmp_idx).rev() {
        let inst = &insts[idx];
        if inst.defs().contains(&Reg::G(reg)) {
            if let Inst::Lwz { rd, d, ra } = *inst {
                if rd == reg {
                    let state = replay(cfg, va, machine, annots, block, idx);
                    let base = if ra == Gpr::R0 {
                        Interval::exact(0)
                    } else {
                        state.reg(ra)
                    };
                    if let Some(b) = base.add(Interval::exact(i32::from(d))).as_exact() {
                        return Loc::Cell(b as u32);
                    }
                }
            }
            return Loc::Reg(reg);
        }
    }
    Loc::Reg(reg)
}

/// Net effect of one block on register `r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NetUpdate {
    /// The block never writes `r`.
    Untouched,
    /// At block exit, `r = r_at_entry + c` (possibly through move/temporary
    /// chains, as register allocation likes to emit).
    Step(i64),
    /// The block writes `r` in a way the witness cannot express.
    Opaque,
}

/// Symbolically scans a block: each register's value is tracked as
/// "entry value of some register plus a constant" where possible.
fn block_net_update(insts: &[Inst], r: Gpr) -> NetUpdate {
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Sym {
        EntryPlus(Gpr, i64),
        Unknown,
    }
    let mut vals: BTreeMap<u8, Sym> = BTreeMap::new();
    let get = |vals: &BTreeMap<u8, Sym>, g: Gpr| {
        vals.get(&g.index())
            .copied()
            .unwrap_or(Sym::EntryPlus(g, 0))
    };
    let mut touched = false;
    for inst in insts {
        let new_val = match *inst {
            Inst::Addi { rd, ra, imm } if ra != Gpr::R0 => {
                let v = match get(&vals, ra) {
                    Sym::EntryPlus(g, c) => Sym::EntryPlus(g, c + i64::from(imm)),
                    Sym::Unknown => Sym::Unknown,
                };
                Some((rd, v))
            }
            // `mr rd, ra` is encoded as `or rd, ra, ra`
            Inst::Or { rd, ra, rb } if ra == rb => Some((rd, get(&vals, ra))),
            _ => None,
        };
        match new_val {
            Some((rd, v)) => {
                if rd == r {
                    touched = true;
                }
                vals.insert(rd.index(), v);
            }
            None => {
                for d in inst.defs() {
                    if let Reg::G(g) = d {
                        if g == r {
                            return NetUpdate::Opaque;
                        }
                        vals.insert(g.index(), Sym::Unknown);
                    }
                }
            }
        }
    }
    if !touched {
        return NetUpdate::Untouched;
    }
    match get(&vals, r) {
        Sym::EntryPlus(g, c) if g == r => NetUpdate::Step(c),
        _ => NetUpdate::Opaque,
    }
}

/// Finds the unique `+c` update site of `loc` within the loop, verifying
/// that no other write can touch it. Returns the step and the block holding
/// the update.
fn update_site(
    cfg: &Cfg,
    va: &ValueAnalysis,
    machine: &MachineConfig,
    annots: Option<&AnnotationFile>,
    l: &NaturalLoop,
    loc: Loc,
) -> Option<(i64, u32)> {
    let mut found: Option<(i64, u32)> = None;
    for &baddr in &l.blocks {
        let insts = &cfg.blocks[&baddr].insts;
        match loc {
            Loc::Reg(r) => {
                if insts.iter().any(|i| matches!(i, Inst::Bl { .. })) && r.is_volatile() {
                    return None; // a call clobbers the induction register
                }
                match block_net_update(insts, r) {
                    NetUpdate::Untouched => {}
                    NetUpdate::Step(c) => {
                        if found.is_some() {
                            return None; // more than one update site
                        }
                        found = Some((c, baddr));
                    }
                    NetUpdate::Opaque => return None,
                }
            }
            Loc::Cell(a) => {
                // every store in the loop must either provably miss `a` or
                // be the single load-addi-store update of `a`
                for (idx, inst) in insts.iter().enumerate() {
                    let writes_mem = matches!(
                        inst,
                        Inst::Stw { .. }
                            | Inst::Stwu { .. }
                            | Inst::Stwx { .. }
                            | Inst::Stfd { .. }
                            | Inst::Stfdx { .. }
                    );
                    if matches!(inst, Inst::Bl { .. }) {
                        return None; // callee may write the cell
                    }
                    if !writes_mem {
                        continue;
                    }
                    let state = replay(cfg, va, machine, annots, baddr, idx);
                    match crate::value::access_addr(&state, inst) {
                        Some(crate::value::AccessAddr::Exact(ea)) => {
                            let width = match inst.mem_access() {
                                Some(m) => match m {
                                    vericomp_arch::inst::MemAccess::Load { bytes }
                                    | vericomp_arch::inst::MemAccess::Store { bytes } => {
                                        u32::from(bytes)
                                    }
                                },
                                None => 4,
                            };
                            if ea + width <= a || ea >= a + 4 {
                                continue; // disjoint
                            }
                            // must be the canonical update: stw rs where
                            // rs = addi(load of a) within this block
                            let Inst::Stw { rs, .. } = *inst else {
                                return None;
                            };
                            let step =
                                addi_of_load(insts, idx, rs, a, cfg, va, machine, annots, baddr)?;
                            if found.is_some() {
                                return None;
                            }
                            found = Some((step, baddr));
                        }
                        Some(crate::value::AccessAddr::Range { lo, hi }) => {
                            if hi + 8 <= a || lo >= a + 4 {
                                continue;
                            }
                            return None;
                        }
                        _ => return None,
                    }
                }
            }
        }
    }
    found
}

/// Matches the `lwz t, a; addi u, t, c; …; stw u, a` shape ending at
/// `store_idx`, returning `c`.
#[allow(clippy::too_many_arguments)]
fn addi_of_load(
    insts: &[Inst],
    store_idx: usize,
    stored: Gpr,
    cell: u32,
    cfg: &Cfg,
    va: &ValueAnalysis,
    machine: &MachineConfig,
    annots: Option<&AnnotationFile>,
    block: u32,
) -> Option<i64> {
    // find the defining addi of `stored`
    for idx in (0..store_idx).rev() {
        let inst = &insts[idx];
        if inst.defs().contains(&Reg::G(stored)) {
            let Inst::Addi { ra, imm, .. } = *inst else {
                return None;
            };
            // `ra` must hold the current value of the cell: defined by a load of `cell`
            for jdx in (0..idx).rev() {
                let j = &insts[jdx];
                if j.defs().contains(&Reg::G(ra)) {
                    let Inst::Lwz { d, ra: base, .. } = *j else {
                        return None;
                    };
                    let state = replay(cfg, va, machine, annots, block, jdx);
                    let b = if base == Gpr::R0 {
                        Interval::exact(0)
                    } else {
                        state.reg(base)
                    };
                    let ea = b.add(Interval::exact(i32::from(d))).as_exact()? as u32;
                    return (ea == cell).then_some(i64::from(imm));
                }
            }
            return None;
        }
    }
    None
}

/// Whether `loc` is invariant in the loop (never written).
fn invariant(
    cfg: &Cfg,
    va: &ValueAnalysis,
    machine: &MachineConfig,
    annots: Option<&AnnotationFile>,
    l: &NaturalLoop,
    loc: Loc,
) -> bool {
    for &baddr in &l.blocks {
        let insts = &cfg.blocks[&baddr].insts;
        for (idx, inst) in insts.iter().enumerate() {
            match loc {
                Loc::Reg(r) => {
                    if inst.defs().contains(&Reg::G(r)) {
                        return false;
                    }
                    if matches!(inst, Inst::Bl { .. }) && r.is_volatile() {
                        return false;
                    }
                }
                Loc::Cell(a) => {
                    if matches!(inst, Inst::Bl { .. }) {
                        return false;
                    }
                    if inst.mem_access().map(|m| !m.is_load()).unwrap_or(false) {
                        let state = replay(cfg, va, machine, annots, baddr, idx);
                        match crate::value::access_addr(&state, inst) {
                            Some(crate::value::AccessAddr::Exact(ea)) => {
                                if !(ea + 8 <= a || ea >= a + 4) {
                                    return false;
                                }
                            }
                            Some(crate::value::AccessAddr::Range { lo, hi }) => {
                                if !(hi + 8 <= a || lo >= a + 4) {
                                    return false;
                                }
                            }
                            _ => return false,
                        }
                    }
                }
            }
        }
    }
    true
}

/// The preheader interval of `loc`: join over entry edges into the header
/// from outside the loop.
fn entry_interval(
    cfg: &Cfg,
    va: &ValueAnalysis,
    machine: &MachineConfig,
    annots: Option<&AnnotationFile>,
    l: &NaturalLoop,
    loc: Loc,
) -> Option<Interval> {
    let preds = cfg.predecessors();
    let mut acc: Option<Interval> = None;
    for &p in preds.get(&l.header).into_iter().flatten() {
        if l.blocks.contains(&p) {
            continue;
        }
        let out = replay(cfg, va, machine, annots, p, cfg.blocks[&p].insts.len());
        let iv = loc_interval(&out, loc);
        acc = Some(match acc {
            None => iv,
            Some(a) => a.join(iv),
        });
    }
    acc
}

/// Computes a bound on the number of *body executions* of every loop,
/// together with the induction-variable window facts to feed back into
/// the value analysis ([`crate::value::analyze_with_facts`]).
///
/// # Errors
///
/// [`AnalysisError::UnboundedLoop`] naming the loop header when no witness
/// can bound a loop.
pub fn compute_with_facts(
    cfg: &Cfg,
    va: &ValueAnalysis,
    machine: &MachineConfig,
    annots: Option<&AnnotationFile>,
) -> Result<(BTreeMap<u32, u64>, Vec<HeaderFact>), AnalysisError> {
    let idom = dominators(cfg);
    let mut bounds = BTreeMap::new();
    let mut facts = Vec::new();
    for l in &cfg.loops {
        let mut best: Option<(u64, Option<HeaderFact>)> = None;
        // candidate exit tests: header and latches only (executed every
        // iteration)
        let mut candidates: Vec<u32> = Vec::new();
        if l.exits.contains(&l.header) {
            candidates.push(l.header);
        }
        candidates.extend(l.latches.iter().filter(|b| l.exits.contains(b)));

        for &e in &candidates {
            if let Some((b, fact)) = try_candidate(cfg, va, machine, annots, l, e, &idom) {
                best = Some(match best {
                    Some((cur, cf)) if cur <= b => (cur, cf),
                    _ => (b, fact),
                });
            }
        }
        match best {
            Some((b, fact)) => {
                bounds.insert(l.header, b);
                facts.extend(fact);
            }
            None => {
                return Err(AnalysisError::UnboundedLoop { header: l.header });
            }
        }
    }
    Ok((bounds, facts))
}

fn try_candidate(
    cfg: &Cfg,
    va: &ValueAnalysis,
    machine: &MachineConfig,
    annots: Option<&AnnotationFile>,
    l: &NaturalLoop,
    e: u32,
    idom: &BTreeMap<u32, u32>,
) -> Option<(u64, Option<HeaderFact>)> {
    let block = &cfg.blocks[&e];
    let Some(&Inst::Bc { cond, .. }) = block.insts.last() else {
        return None;
    };
    // continue side vs exit side
    let taken_in = l.blocks.contains(block.succs.first()?);
    let fall_in = block
        .succs
        .get(1)
        .map(|s| l.blocks.contains(s))
        .unwrap_or(false);
    let cond_continue = match (taken_in, fall_in) {
        (true, false) => cond,
        (false, true) => cond.negate(),
        _ => return None,
    };
    // the compare feeding the branch
    let cmp_idx = block
        .insts
        .iter()
        .rposition(|i| matches!(i, Inst::Cmpw { .. } | Inst::Cmpwi { .. }))?;
    let (a_reg, b_operand): (Gpr, Operand) = match block.insts[cmp_idx] {
        Inst::Cmpwi { ra, imm, .. } => (ra, Operand::Const(i64::from(imm))),
        Inst::Cmpw { ra, rb, .. } => (ra, Operand::Reg(rb)),
        _ => return None,
    };

    let a_loc = operand_loc(cfg, va, machine, annots, e, cmp_idx, a_reg);
    let mut attempts: Vec<(Loc, Operand, Cond)> = vec![(a_loc, b_operand, cond_continue)];
    if let Operand::Reg(rb) = b_operand {
        let b_loc = operand_loc(cfg, va, machine, annots, e, cmp_idx, rb);
        attempts.push((b_loc, Operand::Loc(a_loc), swap_cond(cond_continue)));
        attempts[0].1 = Operand::Loc(b_loc);
    }

    let mut best: Option<(u64, Option<HeaderFact>)> = None;
    for (ind, bound, cont) in attempts {
        let Some((step, upd_block)) = update_site(cfg, va, machine, annots, l, ind) else {
            continue;
        };
        if step == 0 {
            continue;
        }
        // the update must run every iteration: its block dominates all latches
        if !l
            .latches
            .iter()
            .all(|&lt| dominates(upd_block, lt, idom, cfg.entry))
        {
            continue;
        }
        // bound operand: loop-invariant with a known interval at the test
        let bound_iv = match bound {
            Operand::Const(c) => Interval { lo: c, hi: c },
            Operand::Reg(r) => {
                if !invariant(cfg, va, machine, annots, l, Loc::Reg(r)) {
                    continue;
                }
                replay(cfg, va, machine, annots, e, cmp_idx).reg(r)
            }
            Operand::Loc(loc) => {
                if !invariant(cfg, va, machine, annots, l, loc) {
                    continue;
                }
                loc_interval(&replay(cfg, va, machine, annots, e, cmp_idx), loc)
            }
        };
        let init_iv = entry_interval(cfg, va, machine, annots, l, ind)?;

        let b = trip_count(cont, step, init_iv, bound_iv)?;
        // the induction variable's reachable window at the header — fed back
        // into the value analysis so indexed accesses stay bounded
        let fact = induction_window(step, init_iv, bound_iv).map(|range| HeaderFact {
            header: l.header,
            loc: ind,
            range,
        });
        best = Some(match best {
            Some((cur, cf)) if cur <= b => (cur, cf),
            _ => (b, fact),
        });
    }
    best
}

/// The sound enclosing interval of the induction location at the header:
/// for a positive step the value starts at `init` and can pass the bound by
/// at most one step; symmetrically for negative steps.
fn induction_window(step: i64, init: Interval, bound: Interval) -> Option<Interval> {
    let iv = if step > 0 {
        Interval {
            lo: init.lo,
            hi: bound.hi.checked_add(step)?,
        }
    } else {
        Interval {
            lo: bound.lo.checked_add(step)?,
            hi: init.hi,
        }
    };
    (!iv.is_top() && iv.lo <= iv.hi).then_some(iv)
}

#[derive(Debug, Clone, Copy)]
enum Operand {
    Const(i64),
    Reg(Gpr),
    Loc(Loc),
}

fn swap_cond(c: Cond) -> Cond {
    c.swap()
}

fn dominates(a: u32, mut b: u32, idom: &BTreeMap<u32, u32>, entry: u32) -> bool {
    loop {
        if a == b {
            return true;
        }
        if b == entry {
            return false;
        }
        match idom.get(&b) {
            Some(&p) => b = p,
            None => return false,
        }
    }
}

/// Maximum body executions for "continue while `ind cond bound`" with step
/// `c` per iteration.
fn trip_count(cond: Cond, c: i64, init: Interval, bound: Interval) -> Option<u64> {
    let unbounded_hi = bound.hi >= i64::from(i32::MAX);
    let unbounded_lo = bound.lo <= i64::from(i32::MIN);
    let init_lo_unknown = init.lo <= i64::from(i32::MIN);
    let init_hi_unknown = init.hi >= i64::from(i32::MAX);
    let b = match (cond, c.signum()) {
        (Cond::Le, 1..) if !unbounded_hi && !init_lo_unknown => (bound.hi - init.lo) / c + 1,
        (Cond::Lt, 1..) if !unbounded_hi && !init_lo_unknown => (bound.hi - 1 - init.lo) / c + 1,
        (Cond::Ge, ..=-1) if !unbounded_lo && !init_hi_unknown => (init.hi - bound.lo) / (-c) + 1,
        (Cond::Gt, ..=-1) if !unbounded_lo && !init_hi_unknown => {
            (init.hi - 1 - bound.lo) / (-c) + 1
        }
        _ => return None,
    };
    Some(b.max(0) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trip_counts() {
        let iv = |lo, hi| Interval { lo, hi };
        // for k in 1..=10 step 1
        assert_eq!(trip_count(Cond::Le, 1, iv(1, 1), iv(10, 10)), Some(10));
        // k < 10 from 0
        assert_eq!(trip_count(Cond::Lt, 1, iv(0, 0), iv(10, 10)), Some(10));
        // downward: while k >= 0 from at most 7, step -1
        assert_eq!(trip_count(Cond::Ge, -1, iv(0, 7), iv(0, 0)), Some(8));
        // while k > 0 from 7
        assert_eq!(trip_count(Cond::Gt, -1, iv(7, 7), iv(0, 0)), Some(7));
        // step 2
        assert_eq!(trip_count(Cond::Le, 2, iv(0, 0), iv(9, 9)), Some(5));
        // already beyond the bound → zero iterations
        assert_eq!(trip_count(Cond::Lt, 1, iv(20, 20), iv(10, 10)), Some(0));
        // unknown bound → no result
        assert_eq!(trip_count(Cond::Le, 1, iv(0, 0), Interval::top()), None);
        // wrong direction → no result
        assert_eq!(trip_count(Cond::Le, -1, iv(0, 0), iv(10, 10)), None);
    }
}
