//! Translation validators — the Rust analog of CompCert's machine-checked
//! correctness argument (see `DESIGN.md`).
//!
//! Each structure-changing, untrusted transformation is re-checked by an
//! independent validator with a sound rejection criterion:
//!
//! * [`check_allocation`] — register allocation: recomputes liveness and
//!   verifies, def point by def point, that no two simultaneously-live
//!   virtual registers share a physical register (with the standard
//!   move-coalescing exception), that classes match, that reserved registers
//!   are untouched, and that values live across calls sit in callee-saved
//!   registers;
//! * [`check_tunnel`] — branch tunneling: every retargeted edge must follow
//!   a chain of *empty goto* blocks of the original function;
//! * [`check_schedule`] — post-emission list scheduling: the scheduled block
//!   must be a dependence-preserving permutation of the original block
//!   (register RAW/WAR/WAW including CR fields and LR, store ordering,
//!   calls and annotation markers pinned).
//!
//! The paper (§4) points to exactly this technique — *verified translation
//! validation* à la Tristan & Leroy — as the way to get semantic-preservation
//! guarantees for optimizations that are too hard to prove directly.

use std::collections::BTreeSet;
use std::fmt;

use vericomp_arch::inst::{Inst as MInst, Reg};

use crate::liveness::{self, VregSet};
use crate::regalloc::{Allocation, PReg};
use crate::rtl::{Func, Inst, Term, Vreg};

/// A validation failure: the transformation result is rejected and
/// compilation fails closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// Two interfering virtual registers share a physical register.
    AllocConflict {
        /// Function name.
        func: String,
        /// First virtual register.
        a: Vreg,
        /// Second virtual register.
        b: Vreg,
        /// The shared physical register (printable).
        preg: String,
    },
    /// A virtual register has no assignment or one of the wrong class.
    AllocMissing {
        /// Function name.
        func: String,
        /// The offending virtual register.
        vreg: Vreg,
    },
    /// A reserved register was allocated.
    AllocReserved {
        /// Function name.
        func: String,
        /// The offending assignment (printable).
        preg: String,
    },
    /// A value live across a call sits in a caller-saved register.
    AllocCallClobber {
        /// Function name.
        func: String,
        /// The offending virtual register.
        vreg: Vreg,
    },
    /// A tunneled branch edge does not follow empty-goto chains.
    TunnelBadEdge {
        /// Function name.
        func: String,
    },
    /// Tunneling changed instructions (it must only rewrite terminators).
    TunnelChangedCode {
        /// Function name.
        func: String,
    },
    /// The scheduled block is not a permutation of the original.
    ScheduleNotPermutation,
    /// The schedule violates a dependence.
    ScheduleDependence {
        /// Index (in the scheduled block) of the offending instruction.
        at: usize,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::AllocConflict { func, a, b, preg } => {
                write!(
                    f,
                    "allocation conflict in `{func}`: {a} and {b} both in {preg}"
                )
            }
            ValidationError::AllocMissing { func, vreg } => {
                write!(f, "no/ill-classed assignment for {vreg} in `{func}`")
            }
            ValidationError::AllocReserved { func, preg } => {
                write!(f, "reserved register {preg} allocated in `{func}`")
            }
            ValidationError::AllocCallClobber { func, vreg } => {
                write!(
                    f,
                    "{vreg} lives across a call in a volatile register in `{func}`"
                )
            }
            ValidationError::TunnelBadEdge { func } => {
                write!(f, "tunneling retargeted an edge illegally in `{func}`")
            }
            ValidationError::TunnelChangedCode { func } => {
                write!(f, "tunneling modified instructions in `{func}`")
            }
            ValidationError::ScheduleNotPermutation => {
                write!(f, "scheduled block is not a permutation of the original")
            }
            ValidationError::ScheduleDependence { at } => {
                write!(f, "schedule violates a dependence at scheduled index {at}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

fn reserved(p: PReg) -> bool {
    match p {
        PReg::G(g) => matches!(g.index(), 0 | 1 | 2 | 11 | 12 | 13),
        PReg::F(fp) => matches!(fp.index(), 0 | 12 | 13),
    }
}

fn callee_saved(p: PReg) -> bool {
    match p {
        PReg::G(g) => !g.is_volatile(),
        PReg::F(fp) => !fp.is_volatile(),
    }
}

/// Checks a register allocation against the (post-spill) RTL function.
///
/// # Errors
///
/// The first [`ValidationError`] found.
pub fn check_allocation(f: &Func, alloc: &Allocation) -> Result<(), ValidationError> {
    let live = liveness::analyze(f);
    let width = f.vregs.len();

    // Totality, class and reservation checks.
    let mut occurring: VregSet = f.params.iter().copied().collect();
    for b in f.rpo() {
        let block = f.block(b);
        for inst in &block.insts {
            inst.for_each_use(|u| {
                occurring.insert(u);
            });
            occurring.extend(inst.def());
        }
        block.term.for_each_use(|u| {
            occurring.insert(u);
        });
    }
    // The allocation, read once into a table indexed by `Vreg.0`.
    let mut table: Vec<Option<PReg>> = vec![None; width];
    for (&v, &p) in &alloc.map {
        if let Some(slot) = table.get_mut(v.0 as usize) {
            *slot = Some(p);
        }
    }
    for v in &occurring {
        match table.get(v.0 as usize).copied().flatten() {
            None => {
                return Err(ValidationError::AllocMissing {
                    func: f.name.clone(),
                    vreg: v,
                })
            }
            Some(p) => {
                if p.class() != f.class_of(v) {
                    return Err(ValidationError::AllocMissing {
                        func: f.name.clone(),
                        vreg: v,
                    });
                }
                if reserved(p) {
                    return Err(ValidationError::AllocReserved {
                        func: f.name.clone(),
                        preg: p.to_string(),
                    });
                }
            }
        }
    }
    // Every live register occurs, so from here on every lookup succeeds.
    let preg = |v: Vreg| table[v.0 as usize].expect("assignment checked above");

    let conflict = |d: Vreg, x: Vreg| ValidationError::AllocConflict {
        func: f.name.clone(),
        a: d,
        b: x,
        preg: preg(d).to_string(),
    };

    // Entry: parameters are defined simultaneously; they must be mutually
    // disjoint and disjoint from anything live at entry.
    for (i, &a) in f.params.iter().enumerate() {
        for &b in f.params.iter().skip(i + 1) {
            if preg(a) == preg(b) {
                return Err(conflict(a, b));
            }
        }
        for x in &live.live_in[f.entry.0 as usize] {
            if x != a && preg(a) == preg(x) {
                return Err(conflict(a, x));
            }
        }
    }

    // Per-definition-point disjointness.
    let mut live_now = VregSet::with_width(width);
    for b in f.rpo() {
        let block = f.block(b);
        live_now.clone_from(&live.live_out[b.0 as usize]);
        block.term.for_each_use(|u| {
            live_now.insert(u);
        });
        for inst in block.insts.iter().rev() {
            let def = inst.def();
            if matches!(inst, Inst::Call { .. }) {
                if let Some(v) = live_now
                    .iter()
                    .find(|&v| Some(v) != def && !callee_saved(preg(v)))
                {
                    return Err(ValidationError::AllocCallClobber {
                        func: f.name.clone(),
                        vreg: v,
                    });
                }
            }
            if let Some(d) = def {
                let move_src = match inst {
                    Inst::MovI { src, .. } | Inst::MovF { src, .. } => Some(*src),
                    _ => None,
                };
                let pd = preg(d);
                if let Some(x) = live_now
                    .iter()
                    .find(|&x| x != d && Some(x) != move_src && preg(x) == pd)
                {
                    return Err(conflict(d, x));
                }
                live_now.remove(d);
            }
            inst.for_each_use(|u| {
                live_now.insert(u);
            });
        }
    }
    Ok(())
}

/// Checks that `after` is `before` with only terminator retargeting through
/// empty-goto chains (and equal-arm folding).
///
/// # Errors
///
/// The first [`ValidationError`] found.
pub fn check_tunnel(before: &Func, after: &Func) -> Result<(), ValidationError> {
    if before.blocks.len() != after.blocks.len() {
        return Err(ValidationError::TunnelChangedCode {
            func: before.name.clone(),
        });
    }
    // Chain membership: the set of blocks reachable from `s` through empty
    // gotos of `before`.
    let chain = |mut s: crate::rtl::BlockId| -> BTreeSet<crate::rtl::BlockId> {
        let mut seen = BTreeSet::new();
        seen.insert(s);
        loop {
            let blk = before.block(s);
            match blk.term {
                Term::Goto(n) if blk.insts.is_empty() && !seen.contains(&n) => {
                    seen.insert(n);
                    s = n;
                }
                _ => return seen,
            }
        }
    };

    // Instruction equality must be bitwise on floating constants: folded
    // NaNs are legitimate and `NaN != NaN` under derived equality.
    fn rtl_inst_eq(a: &Inst, b: &Inst) -> bool {
        match (a, b) {
            (Inst::ImmF { dst: d1, value: v1 }, Inst::ImmF { dst: d2, value: v2 }) => {
                d1 == d2 && v1.to_bits() == v2.to_bits()
            }
            _ => a == b,
        }
    }
    for (bb, ab) in before.blocks.iter().zip(&after.blocks) {
        if bb.insts.len() != ab.insts.len()
            || !bb
                .insts
                .iter()
                .zip(&ab.insts)
                .all(|(x, y)| rtl_inst_eq(x, y))
        {
            return Err(ValidationError::TunnelChangedCode {
                func: before.name.clone(),
            });
        }
        let ok = match (&bb.term, &ab.term) {
            (Term::Goto(s), Term::Goto(t)) => chain(*s).contains(t),
            (Term::Ret(a), Term::Ret(b)) => a == b,
            (
                Term::BrI {
                    cmp: c1,
                    a: a1,
                    b: b1,
                    then_: t1,
                    else_: e1,
                },
                Term::BrI {
                    cmp: c2,
                    a: a2,
                    b: b2,
                    then_: t2,
                    else_: e2,
                },
            ) => {
                c1 == c2
                    && a1 == a2
                    && b1 == b2
                    && chain(*t1).contains(t2)
                    && chain(*e1).contains(e2)
            }
            (
                Term::BrIImm {
                    cmp: c1,
                    a: a1,
                    imm: i1,
                    then_: t1,
                    else_: e1,
                },
                Term::BrIImm {
                    cmp: c2,
                    a: a2,
                    imm: i2,
                    then_: t2,
                    else_: e2,
                },
            ) => {
                c1 == c2
                    && a1 == a2
                    && i1 == i2
                    && chain(*t1).contains(t2)
                    && chain(*e1).contains(e2)
            }
            (
                Term::BrF {
                    cmp: c1,
                    a: a1,
                    b: b1,
                    then_: t1,
                    else_: e1,
                },
                Term::BrF {
                    cmp: c2,
                    a: a2,
                    b: b2,
                    then_: t2,
                    else_: e2,
                },
            ) => {
                c1 == c2
                    && a1 == a2
                    && b1 == b2
                    && chain(*t1).contains(t2)
                    && chain(*e1).contains(e2)
            }
            // Equal-arm folding: a conditional may become a goto when both
            // chains meet the target.
            (Term::BrI { then_, else_, .. }, Term::Goto(t))
            | (Term::BrIImm { then_, else_, .. }, Term::Goto(t))
            | (Term::BrF { then_, else_, .. }, Term::Goto(t)) => {
                chain(*then_).contains(t) && chain(*else_).contains(t)
            }
            _ => false,
        };
        if !ok {
            return Err(ValidationError::TunnelBadEdge {
                func: before.name.clone(),
            });
        }
    }
    Ok(())
}

/// Dependence test between two machine instructions at original positions
/// `i < j`, used by both the scheduler and its validator.
pub(crate) fn depends(a: &MInst, b: &MInst) -> bool {
    let barrier = |i: &MInst| matches!(i, MInst::Bl { .. } | MInst::Annot { .. });
    if barrier(a) || barrier(b) {
        return true;
    }
    let (def_a, def_b) = (a.def(), b.def());
    let (uses_a, na) = a.uses_array();
    let (uses_b, nb) = b.uses_array();
    let reads = |uses: &[Reg], def: Option<Reg>| def.is_some_and(|d| uses.contains(&d));
    // RAW / WAR / WAW
    if reads(&uses_b[..usize::from(nb)], def_a)
        || reads(&uses_a[..usize::from(na)], def_b)
        || (def_a.is_some() && def_a == def_b)
    {
        return true;
    }
    // memory ordering: conservative — loads commute, everything else doesn't
    match (a.mem_access(), b.mem_access()) {
        (Some(ma), Some(mb)) => !(ma.is_load() && mb.is_load()),
        _ => false,
    }
}

/// Checks that `scheduled` is a dependence-preserving permutation of
/// `original` (both are straight-line instruction sequences of one block).
///
/// # Errors
///
/// The first [`ValidationError`] found; the validator may conservatively
/// reject exotic-but-legal schedules, never accept an illegal one.
pub fn check_schedule(original: &[MInst], scheduled: &[MInst]) -> Result<(), ValidationError> {
    if original.len() != scheduled.len() {
        return Err(ValidationError::ScheduleNotPermutation);
    }
    let mut matched = vec![false; original.len()];
    for (si, s) in scheduled.iter().enumerate() {
        // earliest unmatched original occurrence of this instruction
        let oi = original
            .iter()
            .enumerate()
            .position(|(k, o)| !matched[k] && o == s)
            .ok_or(ValidationError::ScheduleNotPermutation)?;
        // all original predecessors with a dependence must already be placed
        for k in 0..oi {
            if !matched[k] && depends(&original[k], &original[oi]) {
                return Err(ValidationError::ScheduleDependence { at: si });
            }
        }
        matched[oi] = true;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regalloc::{allocate, Palette};
    use crate::rtl::{Block, BlockId, IBin, RegClass};
    use vericomp_arch::reg::{Fpr, Gpr};

    fn two_live_func() -> Func {
        let mut f = Func {
            name: "t".into(),
            params: vec![],
            ret: Some(RegClass::I),
            vregs: vec![],
            slots: vec![],
            blocks: vec![],
            entry: BlockId(0),
        };
        let a = f.new_vreg(RegClass::I);
        let b = f.new_vreg(RegClass::I);
        let c = f.new_vreg(RegClass::I);
        let blk = f.new_block();
        f.entry = blk;
        f.blocks[0] = Block {
            insts: vec![
                Inst::ImmI { dst: a, value: 1 },
                Inst::ImmI { dst: b, value: 2 },
                Inst::BinI {
                    op: IBin::Add,
                    dst: c,
                    a,
                    b,
                },
            ],
            term: Term::Ret(Some(c)),
        };
        f
    }

    #[test]
    fn accepts_genuine_allocation() {
        let mut f = two_live_func();
        let alloc = allocate(&mut f, &Palette::full()).unwrap();
        check_allocation(&f, &alloc).unwrap();
    }

    #[test]
    fn rejects_corrupted_allocation() {
        let mut f = two_live_func();
        let mut alloc = allocate(&mut f, &Palette::full()).unwrap();
        // force a and b into the same register — they are simultaneously live
        let a = Vreg(0);
        let b = Vreg(1);
        let pa = alloc.preg(a);
        alloc.map.insert(b, pa);
        assert!(matches!(
            check_allocation(&f, &alloc),
            Err(ValidationError::AllocConflict { .. })
        ));
    }

    #[test]
    fn rejects_value_left_in_a_volatile_register_across_a_call() {
        // v = 7; r = call h(); r = r + v; ret r — v lives across the call
        let mut f = two_live_func();
        let (v, r) = (Vreg(0), Vreg(2));
        f.blocks[0].insts = vec![
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
        ];
        let mut alloc = allocate(&mut f, &Palette::full()).unwrap();
        check_allocation(&f, &alloc).unwrap();
        // r10 is volatile and holds nothing else
        alloc.map.insert(v, PReg::G(Gpr::new(10)));
        assert_eq!(
            check_allocation(&f, &alloc),
            Err(ValidationError::AllocCallClobber {
                func: "t".into(),
                vreg: v,
            })
        );
    }

    #[test]
    fn rejects_entry_conflicts_between_params_and_live_ins() {
        // t(p, q) { t = p + q; s = t + u; ret s } with `u` never defined:
        // p, q and u are all defined at entry, and no later definition
        // point sees two of them live, so only the entry check can tell
        let mut f = Func {
            name: "t".into(),
            params: vec![],
            ret: Some(RegClass::I),
            vregs: vec![],
            slots: vec![],
            blocks: vec![],
            entry: BlockId(0),
        };
        let [p, q, u, t, s] = [(); 5].map(|()| f.new_vreg(RegClass::I));
        f.params = vec![p, q];
        f.entry = f.new_block();
        f.blocks[0] = Block {
            insts: vec![
                Inst::BinI {
                    op: IBin::Add,
                    dst: t,
                    a: p,
                    b: q,
                },
                Inst::BinI {
                    op: IBin::Add,
                    dst: s,
                    a: t,
                    b: u,
                },
            ],
            term: Term::Ret(Some(s)),
        };
        let alloc = allocate(&mut f, &Palette::full()).unwrap();
        check_allocation(&f, &alloc).unwrap();
        let entry_conflict = |b: Vreg| {
            let mut bad = alloc.clone();
            bad.map.insert(b, alloc.preg(p));
            check_allocation(&f, &bad)
        };
        let expected = |b: Vreg| {
            Err(ValidationError::AllocConflict {
                func: "t".into(),
                a: p,
                b,
                preg: alloc.preg(p).to_string(),
            })
        };
        // two parameters in one register
        assert_eq!(entry_conflict(q), expected(q));
        // a parameter and a live-in register in one register
        assert_eq!(entry_conflict(u), expected(u));
    }

    #[test]
    fn rejects_reserved_register() {
        let mut f = two_live_func();
        let mut alloc = allocate(&mut f, &Palette::full()).unwrap();
        alloc.map.insert(Vreg(0), PReg::G(Gpr::SP));
        assert!(matches!(
            check_allocation(&f, &alloc),
            Err(ValidationError::AllocReserved { .. })
        ));
    }

    #[test]
    fn rejects_missing_assignment() {
        let mut f = two_live_func();
        let mut alloc = allocate(&mut f, &Palette::full()).unwrap();
        alloc.map.remove(&Vreg(2));
        assert!(matches!(
            check_allocation(&f, &alloc),
            Err(ValidationError::AllocMissing { .. })
        ));
    }

    #[test]
    fn rejects_class_mismatch() {
        let mut f = two_live_func();
        let mut alloc = allocate(&mut f, &Palette::full()).unwrap();
        alloc.map.insert(Vreg(0), PReg::F(Fpr::new(5)));
        assert!(matches!(
            check_allocation(&f, &alloc),
            Err(ValidationError::AllocMissing { .. })
        ));
    }

    #[test]
    fn tunnel_validator_accepts_pass_output() {
        let mut before = Func {
            name: "t".into(),
            params: vec![],
            ret: None,
            vregs: vec![],
            slots: vec![],
            blocks: vec![
                Block {
                    insts: vec![],
                    term: Term::Goto(BlockId(1)),
                },
                Block {
                    insts: vec![],
                    term: Term::Goto(BlockId(2)),
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(None),
                },
            ],
            entry: BlockId(0),
        };
        let mut after = before.clone();
        crate::opt::tunnel::run(&mut after);
        check_tunnel(&before, &after).unwrap();
        // a bogus retarget is rejected
        before.blocks[1].term = Term::Ret(None); // chain broken
        assert!(check_tunnel(&before, &after).is_err());
    }

    /// The dependence test's defining truth table, on ordered register
    /// sets: RAW, WAR or WAW through any register, or two memory accesses
    /// that are not both loads; calls and annotation markers are barriers.
    fn depends_by_sets(a: &MInst, b: &MInst) -> bool {
        if [a, b]
            .iter()
            .any(|i| matches!(i, MInst::Bl { .. } | MInst::Annot { .. }))
        {
            return true;
        }
        let set = |regs: Vec<Reg>| regs.into_iter().collect::<BTreeSet<Reg>>();
        let (defs_a, uses_a) = (set(a.defs()), set(a.uses()));
        let (defs_b, uses_b) = (set(b.defs()), set(b.uses()));
        if !defs_a.is_disjoint(&uses_b)
            || !uses_a.is_disjoint(&defs_b)
            || !defs_a.is_disjoint(&defs_b)
        {
            return true;
        }
        match (a.mem_access(), b.mem_access()) {
            (Some(ma), Some(mb)) => !(ma.is_load() && mb.is_load()),
            _ => false,
        }
    }

    /// Every opcode over a small register pool, so that operand pairs
    /// collide often: `r0` as a zero base and as a real register, `stwu`'s
    /// base write-back, two CR fields, LR through `bl`/`mtlr`/`mflr`/`blr`.
    fn machine_catalogue() -> Vec<MInst> {
        use vericomp_arch::inst::Cond;
        use vericomp_arch::reg::Cr;
        use MInst as M;
        let gs = [Gpr::R0, Gpr::new(3), Gpr::new(4)];
        let fs = [Fpr::new(1), Fpr::new(2)];
        let crs = [Cr::new(0), Cr::new(1)];
        let mut c = vec![
            M::B { target: 0 },
            M::Bl { target: 0 },
            M::Blr,
            M::Annot { id: 0 },
            M::Nop,
        ];
        for &rd in &gs {
            c.push(M::Mflr { rd });
            c.push(M::Mtlr { rs: rd });
            for &ra in &gs {
                c.extend([
                    M::Addi { rd, ra, imm: 1 },
                    M::Addis { rd, ra, imm: 1 },
                    M::Mulli { rd, ra, imm: 3 },
                    M::Andi { rd, ra, imm: 1 },
                    M::Ori { rd, ra, imm: 1 },
                    M::Xori { rd, ra, imm: 1 },
                    M::Neg { rd, ra },
                    M::Srawi { rd, ra, sh: 1 },
                    M::Rlwinm {
                        rd,
                        ra,
                        sh: 1,
                        mb: 0,
                        me: 30,
                    },
                    M::Lwz { rd, d: 8, ra },
                    M::Stw { rs: rd, d: 8, ra },
                    M::Stwu { rs: rd, d: -16, ra },
                ]);
                for &rb in &gs {
                    c.extend([
                        M::Add { rd, ra, rb },
                        M::Subf { rd, ra, rb },
                        M::Mullw { rd, ra, rb },
                        M::Divw { rd, ra, rb },
                        M::Divwu { rd, ra, rb },
                        M::And { rd, ra, rb },
                        M::Or { rd, ra, rb },
                        M::Xor { rd, ra, rb },
                        M::Slw { rd, ra, rb },
                        M::Srw { rd, ra, rb },
                        M::Sraw { rd, ra, rb },
                        M::Lwzx { rd, ra, rb },
                        M::Stwx { rs: rd, ra, rb },
                    ]);
                }
            }
            for &fd in &fs {
                c.extend([M::Itof { fd, ra: rd }, M::Ftoi { rd, fa: fd }]);
                for &ra in &gs {
                    c.extend([
                        M::Lfd { fd, d: 8, ra },
                        M::Stfd { fs: fd, d: 8, ra },
                        M::Lfdx { fd, ra, rb: rd },
                        M::Stfdx { fs: fd, ra, rb: rd },
                    ]);
                }
            }
        }
        for &fd in &fs {
            for &fa in &fs {
                c.extend([M::Fneg { fd, fa }, M::Fabs { fd, fa }, M::Fmr { fd, fa }]);
                for &fb in &fs {
                    c.extend([
                        M::Fadd { fd, fa, fb },
                        M::Fsub { fd, fa, fb },
                        M::Fmul { fd, fa, fc: fb },
                        M::Fdiv { fd, fa, fb },
                        M::Fmadd {
                            fd,
                            fa,
                            fc: fb,
                            fb: fa,
                        },
                    ]);
                }
            }
        }
        for &cr in &crs {
            c.push(M::Bc {
                cond: Cond::Eq,
                cr,
                target: 0,
            });
            for &ra in &gs {
                c.push(M::Cmpwi { cr, ra, imm: 0 });
                for &rb in &gs {
                    c.push(M::Cmpw { cr, ra, rb });
                }
            }
            for &fa in &fs {
                for &fb in &fs {
                    c.push(M::Fcmpu { cr, fa, fb });
                }
            }
        }
        c
    }

    #[test]
    fn depends_matches_the_register_set_definition_on_every_pair() {
        let catalogue = machine_catalogue();
        let opcodes: BTreeSet<String> = catalogue
            .iter()
            .map(|i| format!("{:?}", std::mem::discriminant(i)))
            .collect();
        assert_eq!(opcodes.len(), 50, "the catalogue covers every opcode");
        let mut outcomes = [0usize; 2];
        for a in &catalogue {
            for b in &catalogue {
                let expected = depends_by_sets(a, b);
                assert_eq!(depends(a, b), expected, "{a:?} then {b:?}");
                outcomes[usize::from(expected)] += 1;
            }
        }
        assert!(outcomes.iter().all(|&n| n > 0), "{outcomes:?}");
    }

    #[test]
    fn schedule_validator() {
        use vericomp_arch::inst::Inst as M;
        let g = Gpr::new;
        let orig = vec![
            M::Lwz {
                rd: g(3),
                d: 0,
                ra: g(13),
            },
            M::Addi {
                rd: g(4),
                ra: g(3),
                imm: 1,
            }, // RAW on r3
            M::Lwz {
                rd: g(5),
                d: 4,
                ra: g(13),
            },
        ];
        // legal: hoist the independent load
        let legal = vec![orig[0], orig[2], orig[1]];
        check_schedule(&orig, &legal).unwrap();
        // illegal: use before def
        let illegal = vec![orig[1], orig[0], orig[2]];
        assert!(matches!(
            check_schedule(&orig, &illegal),
            Err(ValidationError::ScheduleDependence { .. })
        ));
        // not a permutation
        let wrong = vec![orig[0], orig[0], orig[2]];
        assert!(matches!(
            check_schedule(&orig, &wrong),
            Err(ValidationError::ScheduleNotPermutation)
        ));
        // stores don't move past loads of possibly-same memory
        let st = M::Stw {
            rs: g(6),
            d: 0,
            ra: g(13),
        };
        let orig2 = vec![orig[0], st];
        assert!(check_schedule(&orig2, &[st, orig[0]]).is_err());
    }
}
