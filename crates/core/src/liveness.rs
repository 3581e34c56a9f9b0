//! Backward liveness dataflow analysis over RTL.
//!
//! Used by dead-code elimination, the register allocator, and the
//! register-allocation validator (each recomputes independently — the
//! validator must not trust the allocator's own analysis).
//!
//! Live sets are [`VregSet`]s: bitsets indexed by `Vreg.0` that iterate in
//! ascending order, the order an ordered set would give, so every client
//! that walks a live set visits — and reports — registers in a fixed order.
//! Each block's gen/kill pair is computed once; the fixpoint then iterates
//! `in = gen ∪ (out − kill)` over the reachable blocks only. Unreachable
//! blocks keep empty sets.

use crate::rtl::{Block, Func, Vreg};

/// A set of virtual registers: a bitset indexed by `Vreg.0`.
///
/// It grows on insertion, compares equal regardless of trailing zero
/// words, and iterates in ascending register order.
#[derive(Debug, Clone, Default)]
pub struct VregSet {
    words: Vec<u64>,
}

impl VregSet {
    /// An empty set that allocates nothing until its first insertion.
    pub fn new() -> VregSet {
        VregSet::default()
    }

    /// An empty set with room for registers `v0` to `v{width - 1}`.
    pub fn with_width(width: usize) -> VregSet {
        VregSet {
            words: vec![0; width.div_ceil(64)],
        }
    }

    fn split(v: Vreg) -> (usize, u64) {
        ((v.0 / 64) as usize, 1 << (v.0 % 64))
    }

    /// Adds `v`; returns whether it was absent.
    pub fn insert(&mut self, v: Vreg) -> bool {
        let (w, bit) = Self::split(v);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let absent = self.words[w] & bit == 0;
        self.words[w] |= bit;
        absent
    }

    /// Removes `v`; returns whether it was present.
    pub fn remove(&mut self, v: Vreg) -> bool {
        let (w, bit) = Self::split(v);
        match self.words.get_mut(w) {
            Some(word) if *word & bit != 0 => {
                *word &= !bit;
                true
            }
            _ => false,
        }
    }

    /// Whether `v` is in the set.
    pub fn contains(&self, v: Vreg) -> bool {
        let (w, bit) = Self::split(v);
        self.words.get(w).is_some_and(|word| word & bit != 0)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The number of registers in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Removes every register, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The members in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Removes and returns the smallest member.
    pub fn pop_first(&mut self) -> Option<Vreg> {
        let w = self.words.iter().position(|&w| w != 0)?;
        let bit = self.words[w].trailing_zeros();
        self.words[w] &= self.words[w] - 1;
        Some(Vreg(w as u32 * 64 + bit))
    }

    /// `self ∪= other`.
    pub fn union_with(&mut self, other: &VregSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self −= other`.
    pub fn subtract(&mut self, other: &VregSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }
}

impl PartialEq for VregSet {
    fn eq(&self, other: &VregSet) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        short == &long[..short.len()] && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for VregSet {}

impl Extend<Vreg> for VregSet {
    fn extend<I: IntoIterator<Item = Vreg>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl FromIterator<Vreg> for VregSet {
    fn from_iter<I: IntoIterator<Item = Vreg>>(iter: I) -> VregSet {
        let mut set = VregSet::new();
        set.extend(iter);
        set
    }
}

/// Ascending iterator over a [`VregSet`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    words: &'a [u64],
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = Vreg;

    fn next(&mut self) -> Option<Vreg> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.words.get(self.word)?;
        }
        let bit = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(Vreg(self.word as u32 * 64 + bit))
    }
}

impl<'a> IntoIterator for &'a VregSet {
    type Item = Vreg;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Per-block live-in/live-out sets.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Live virtual registers at block entry, indexed by block id.
    pub live_in: Vec<VregSet>,
    /// Live virtual registers at block exit, indexed by block id.
    pub live_out: Vec<VregSet>,
}

/// Adds to `gen` the registers `block` reads before writing them and to
/// `kill` the registers it writes, in one backward walk.
fn gen_kill(block: &Block, gen: &mut VregSet, kill: &mut VregSet) {
    block.term.for_each_use(|u| {
        gen.insert(u);
    });
    for inst in block.insts.iter().rev() {
        if let Some(d) = inst.def() {
            gen.remove(d);
            kill.insert(d);
        }
        inst.for_each_use(|u| {
            gen.insert(u);
        });
    }
}

/// Computes liveness by round-robin backward iteration to the least
/// fixpoint, visiting the reachable blocks in post-order.
pub fn analyze(f: &Func) -> Liveness {
    let n = f.blocks.len();
    let width = f.vregs.len();
    let order: Vec<_> = f.rpo().into_iter().rev().collect();
    let mut gen = vec![VregSet::with_width(width); n];
    let mut kill = vec![VregSet::with_width(width); n];
    for &b in &order {
        let bi = b.0 as usize;
        gen_kill(f.block(b), &mut gen[bi], &mut kill[bi]);
    }

    let mut live_in = vec![VregSet::with_width(width); n];
    let mut live_out = vec![VregSet::with_width(width); n];
    let mut scratch = VregSet::with_width(width);
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &order {
            let bi = b.0 as usize;
            scratch.clear();
            for s in f.block(b).term.successors() {
                scratch.union_with(&live_in[s.0 as usize]);
            }
            if scratch != live_out[bi] {
                live_out[bi].clone_from(&scratch);
                changed = true;
            }
            scratch.subtract(&kill[bi]);
            scratch.union_with(&gen[bi]);
            if scratch != live_in[bi] {
                live_in[bi].clone_from(&scratch);
                changed = true;
            }
        }
    }
    Liveness { live_in, live_out }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::rtl::{Block, BlockId, IBin, Inst, RegClass, Term};
    use vericomp_minic::ast::Cmp;

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

    /// The reference definition: round-robin backward iteration over
    /// ordered sets, re-walking every block's instructions per iteration.
    fn reference(f: &Func) -> (Vec<BTreeSet<Vreg>>, Vec<BTreeSet<Vreg>>) {
        let n = f.blocks.len();
        let mut live_in = vec![BTreeSet::new(); n];
        let mut live_out = vec![BTreeSet::new(); n];
        let order: Vec<_> = f.rpo().into_iter().rev().collect();
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &order {
                let bi = b.0 as usize;
                let mut out = BTreeSet::new();
                for s in f.block(b).term.successors() {
                    out.extend(live_in[s.0 as usize].iter().copied());
                }
                let mut live = out.clone();
                let block = f.block(b);
                block.term.for_each_use(|u| {
                    live.insert(u);
                });
                for inst in block.insts.iter().rev() {
                    if let Some(d) = inst.def() {
                        live.remove(&d);
                    }
                    inst.for_each_use(|u| {
                        live.insert(u);
                    });
                }
                if out != live_out[bi] {
                    live_out[bi] = out;
                    changed = true;
                }
                if live != live_in[bi] {
                    live_in[bi] = live;
                    changed = true;
                }
            }
        }
        (live_in, live_out)
    }

    /// Asserts that [`analyze`] equals the reference set for set, and
    /// that every set iterates in the reference's ascending order.
    fn assert_matches_reference(f: &Func, what: &str) {
        let l = analyze(f);
        let (live_in, live_out) = reference(f);
        let sets =
            |v: &[VregSet]| -> Vec<Vec<Vreg>> { v.iter().map(|s| s.iter().collect()).collect() };
        let refs = |v: &[BTreeSet<Vreg>]| -> Vec<Vec<Vreg>> {
            v.iter().map(|s| s.iter().copied().collect()).collect()
        };
        assert_eq!(sets(&l.live_in), refs(&live_in), "{what}: live_in");
        assert_eq!(sets(&l.live_out), refs(&live_out), "{what}: live_out");
    }

    #[test]
    fn vreg_set_behaves_like_an_ordered_set() {
        let mut rng = vericomp_testkit::rng::Rng::seed_from_u64(0x11FE);
        for _ in 0..200 {
            let mut set = VregSet::new();
            let mut reference = BTreeSet::new();
            for _ in 0..rng.gen_range(0..80usize) {
                let v = Vreg(rng.gen_range(0..300u32));
                if rng.gen_bool(0.3) {
                    assert_eq!(set.remove(v), reference.remove(&v));
                } else {
                    assert_eq!(set.insert(v), reference.insert(v));
                }
                assert_eq!(set.contains(v), reference.contains(&v));
            }
            assert_eq!(set.len(), reference.len());
            assert_eq!(set.is_empty(), reference.is_empty());
            let ascending: Vec<Vreg> = reference.iter().copied().collect();
            assert_eq!(set.iter().collect::<Vec<_>>(), ascending);
            assert_eq!(VregSet::from_iter(ascending.iter().rev().copied()), set);
            let mut popped = Vec::new();
            while let Some(v) = set.pop_first() {
                popped.push(v);
            }
            assert_eq!(popped, ascending);
        }
    }

    #[test]
    fn vreg_set_equality_ignores_width() {
        let mut wide = VregSet::with_width(1000);
        let mut narrow = VregSet::new();
        assert_eq!(wide, narrow);
        wide.insert(Vreg(3));
        assert_ne!(wide, narrow);
        narrow.insert(Vreg(3));
        assert_eq!(wide, narrow);
        wide.insert(Vreg(700));
        wide.remove(Vreg(700));
        assert_eq!(narrow, wide);
        let mut both = narrow.clone();
        both.union_with(&VregSet::from_iter([Vreg(130)]));
        both.subtract(&wide);
        assert_eq!(both.iter().collect::<Vec<_>>(), vec![Vreg(130)]);
    }

    #[test]
    fn straight_line() {
        let mut f = empty_func();
        let a = f.new_vreg(RegClass::I);
        let b = f.new_vreg(RegClass::I);
        let c = f.new_vreg(RegClass::I);
        let b0 = f.new_block();
        f.entry = b0;
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
        let l = analyze(&f);
        assert!(l.live_in[0].is_empty());
        assert!(l.live_out[0].is_empty());
    }

    #[test]
    fn loop_keeps_induction_variable_live() {
        // b0: i = 0 -> b1 ; b1: if i < 10 -> b2 else b3 ; b2: i = i + 1 -> b1 ; b3: ret
        let mut f = empty_func();
        let i = f.new_vreg(RegClass::I);
        let b0 = f.new_block();
        let b1 = f.new_block();
        let b2 = f.new_block();
        let b3 = f.new_block();
        f.entry = b0;
        f.blocks[b0.0 as usize] = Block {
            insts: vec![Inst::ImmI { dst: i, value: 0 }],
            term: Term::Goto(b1),
        };
        f.blocks[b1.0 as usize] = Block {
            insts: vec![],
            term: Term::BrIImm {
                cmp: Cmp::Lt,
                a: i,
                imm: 10,
                then_: b2,
                else_: b3,
            },
        };
        f.blocks[b2.0 as usize] = Block {
            insts: vec![Inst::BinIImm {
                op: IBin::Add,
                dst: i,
                a: i,
                imm: 1,
            }],
            term: Term::Goto(b1),
        };
        f.blocks[b3.0 as usize] = Block {
            insts: vec![],
            term: Term::Ret(None),
        };
        let l = analyze(&f);
        assert!(l.live_in[b1.0 as usize].contains(i));
        assert!(l.live_out[b2.0 as usize].contains(i));
        assert!(l.live_in[b2.0 as usize].contains(i));
        assert!(!l.live_in[b3.0 as usize].contains(i));
        assert!(!l.live_in[b0.0 as usize].contains(i));
        assert_matches_reference(&f, "loop");
    }

    #[test]
    fn branch_operands_are_live() {
        let mut f = empty_func();
        let x = f.new_vreg(RegClass::I);
        let y = f.new_vreg(RegClass::I);
        let b0 = f.new_block();
        let b1 = f.new_block();
        let b2 = f.new_block();
        f.entry = b0;
        f.blocks[b0.0 as usize] = Block {
            insts: vec![],
            term: Term::BrI {
                cmp: Cmp::Eq,
                a: x,
                b: y,
                then_: b1,
                else_: b2,
            },
        };
        f.blocks[b1.0 as usize] = Block {
            insts: vec![],
            term: Term::Ret(None),
        };
        f.blocks[b2.0 as usize] = Block {
            insts: vec![],
            term: Term::Ret(None),
        };
        let l = analyze(&f);
        assert!(l.live_in[0].contains(x));
        assert!(l.live_in[0].contains(y));
    }

    #[test]
    fn unreachable_blocks_and_undefined_uses_match_the_reference() {
        // b0: t = u + 1 ; if t < 0 -> b1 else b2
        // b1: ret t        b2: goto b1
        // b3 (unreachable): w = 5 ; ret w + u — its sets stay empty,
        // and `u`, used but never defined, is live into the entry
        let mut f = empty_func();
        let u = f.new_vreg(RegClass::I);
        let t = f.new_vreg(RegClass::I);
        let w = f.new_vreg(RegClass::I);
        let r = f.new_vreg(RegClass::I);
        let b0 = f.new_block();
        let b1 = f.new_block();
        let b2 = f.new_block();
        let b3 = f.new_block();
        f.entry = b0;
        f.blocks[b0.0 as usize] = Block {
            insts: vec![Inst::BinIImm {
                op: IBin::Add,
                dst: t,
                a: u,
                imm: 1,
            }],
            term: Term::BrIImm {
                cmp: Cmp::Lt,
                a: t,
                imm: 0,
                then_: b1,
                else_: b2,
            },
        };
        f.blocks[b1.0 as usize] = Block {
            insts: vec![],
            term: Term::Ret(Some(t)),
        };
        f.blocks[b2.0 as usize] = Block {
            insts: vec![],
            term: Term::Goto(b1),
        };
        f.blocks[b3.0 as usize] = Block {
            insts: vec![
                Inst::ImmI { dst: w, value: 5 },
                Inst::BinI {
                    op: IBin::Add,
                    dst: r,
                    a: w,
                    b: u,
                },
            ],
            term: Term::Ret(Some(r)),
        };
        let l = analyze(&f);
        assert_eq!(l.live_in[b0.0 as usize].iter().collect::<Vec<_>>(), [u]);
        assert!(l.live_in[b3.0 as usize].is_empty());
        assert!(l.live_out[b3.0 as usize].is_empty());
        assert_matches_reference(&f, "unreachable block");
    }

    #[test]
    fn scratch_palette_spill_rounds_match_the_reference() {
        use crate::regalloc::{allocate, Palette};

        // b0: v_i = i (twelve of them), acc = 0 -> b1
        // b1: acc += v_0 .. v_11 ; if acc < 1000 -> b1 else b2 ; b2: ret acc
        // twelve values live around the loop overflow the six scratch GPRs
        let mut f = empty_func();
        let vs: Vec<Vreg> = (0..12).map(|_| f.new_vreg(RegClass::I)).collect();
        let acc = f.new_vreg(RegClass::I);
        let b0 = f.new_block();
        let b1 = f.new_block();
        let b2 = f.new_block();
        f.entry = b0;
        let mut init: Vec<Inst> = (0..)
            .zip(&vs)
            .map(|(value, &dst)| Inst::ImmI { dst, value })
            .collect();
        init.push(Inst::ImmI { dst: acc, value: 0 });
        f.blocks[b0.0 as usize] = Block {
            insts: init,
            term: Term::Goto(b1),
        };
        f.blocks[b1.0 as usize] = Block {
            insts: vs
                .iter()
                .map(|&b| Inst::BinI {
                    op: IBin::Add,
                    dst: acc,
                    a: acc,
                    b,
                })
                .collect(),
            term: Term::BrIImm {
                cmp: Cmp::Lt,
                a: acc,
                imm: 1000,
                then_: b1,
                else_: b2,
            },
        };
        f.blocks[b2.0 as usize] = Block {
            insts: vec![],
            term: Term::Ret(Some(acc)),
        };
        assert_matches_reference(&f, "before allocation");
        allocate(&mut f, &Palette::scratch_only()).expect("allocates");
        assert!(
            f.slots.iter().any(|s| s.origin == "spill"),
            "no spill round ran"
        );
        assert_matches_reference(&f, "after scratch-palette spill rounds");
    }

    #[test]
    fn every_suite_function_matches_the_reference_after_each_pass() {
        use crate::opt;
        use crate::regalloc::{allocate, Palette};
        use vericomp_arch::reg::{Fpr, Gpr};
        type Pass = fn(&mut Func);

        let tight = Palette {
            volatile_i: (5..=7).map(Gpr::new).collect(),
            saved_i: vec![],
            volatile_f: (5..=7).map(Fpr::new).collect(),
            saved_f: vec![],
        };
        let mut spilled = 0;
        for node in vericomp_dataflow::fleet::named_suite() {
            let prog = node.to_minic();
            vericomp_minic::typeck::check(&prog).expect("suite typechecks");
            for func in &prog.functions {
                let what = |pass: &str| format!("{}/{}: after {pass}", node.name(), func.name);
                let mut f = crate::lower::lower_function(&prog, func).expect("lowers");
                assert_matches_reference(&f, &what("lower"));
                let passes: [(&str, Pass); 6] = [
                    ("mem2reg", opt::mem2reg::run),
                    ("constprop", opt::constprop::run),
                    ("cse", |f| {
                        opt::cse::run(f);
                        opt::constprop::run(f);
                    }),
                    ("strength", |f| {
                        opt::strength::reduce(f);
                        opt::strength::fuse_fmadd(f);
                        opt::constprop::run(f);
                    }),
                    ("dce", |f| {
                        opt::dce::run(f);
                    }),
                    ("tunnel", opt::tunnel::run),
                ];
                for (pass, run) in passes {
                    run(&mut f);
                    assert_matches_reference(&f, &what(pass));
                }
                // spill rounds rewrite the function the allocation checker
                // then re-analyzes; the scratch palette is too roomy for
                // the suite to spill, a three-register one is not
                for (palette, name) in [
                    (Palette::scratch_only(), "scratch-palette allocation"),
                    (tight.clone(), "three-register spill rounds"),
                    (Palette::full(), "full-palette allocation"),
                ] {
                    let mut g = f.clone();
                    allocate(&mut g, &palette).expect("allocates");
                    spilled += usize::from(g.slots.iter().any(|s| s.origin == "spill"));
                    assert_matches_reference(&g, &what(name));
                }
            }
        }
        assert!(spilled > 0, "no suite function spilled");
    }
}
