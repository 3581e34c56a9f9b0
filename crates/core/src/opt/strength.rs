//! Strength reduction and fused-multiply-add formation.
//!
//! These passes belong to the *fully optimizing* reference configuration
//! only — they go beyond what the paper's CompCert version performed:
//!
//! * multiplications by powers of two become shifts; algebraic identities
//!   (`x+0`, `x*1`, `x*0`, `x&0`, …) are simplified;
//! * `a*b + c` chains where the product has a single use fuse into the
//!   machine's `fmadd`. Because our machine defines `fmadd` with an
//!   intermediate rounding of the product (see `DESIGN.md`), the fusion is
//!   exactly semantics-preserving, unlike on hardware with a true FMA.

use std::collections::BTreeMap;

use crate::rtl::{FBin, Func, IBin, Inst, Vreg};

/// Simplifies integer immediates: shifts for power-of-two multiplies and
/// algebraic identities. Returns the number of rewrites.
pub fn reduce(f: &mut Func) -> usize {
    let mut n = 0;
    for block in &mut f.blocks {
        for inst in &mut block.insts {
            let new = match *inst {
                Inst::BinIImm {
                    op: IBin::Mul,
                    dst,
                    a,
                    imm: 1,
                } => Some(Inst::MovI { dst, src: a }),
                Inst::BinIImm {
                    op: IBin::Mul,
                    dst,
                    a,
                    imm,
                } if imm > 1 && imm.count_ones() == 1 => Some(Inst::BinIImm {
                    op: IBin::Shl,
                    dst,
                    a,
                    imm: imm.trailing_zeros() as i32,
                }),
                Inst::BinIImm {
                    op: IBin::Mul,
                    dst,
                    imm: 0,
                    ..
                } => Some(Inst::ImmI { dst, value: 0 }),
                Inst::BinIImm {
                    op: IBin::Add,
                    dst,
                    a,
                    imm: 0,
                }
                | Inst::BinIImm {
                    op: IBin::Or,
                    dst,
                    a,
                    imm: 0,
                }
                | Inst::BinIImm {
                    op: IBin::Xor,
                    dst,
                    a,
                    imm: 0,
                }
                | Inst::BinIImm {
                    op: IBin::Shl,
                    dst,
                    a,
                    imm: 0,
                }
                | Inst::BinIImm {
                    op: IBin::Shr,
                    dst,
                    a,
                    imm: 0,
                }
                | Inst::BinIImm {
                    op: IBin::Sar,
                    dst,
                    a,
                    imm: 0,
                } => Some(Inst::MovI { dst, src: a }),
                Inst::BinIImm {
                    op: IBin::And,
                    dst,
                    imm: 0,
                    ..
                } => Some(Inst::ImmI { dst, value: 0 }),
                _ => None,
            };
            if let Some(rew) = new {
                if *inst != rew {
                    *inst = rew;
                    n += 1;
                }
            }
        }
    }
    n
}

/// Fuses `t = a *f b; d = t +f c` into `d = fmadd a, b, c` when `t` is used
/// exactly once, defined in the same block, and not redefined in between.
/// Returns the number of fusions (the dead multiply is left for DCE).
///
/// The commuted form `d = c +f t` is deliberately *not* fused: `fmadd`
/// evaluates the product as the first addend, and addition is not bitwise
/// commutative when both operands are NaN (the first NaN's payload
/// propagates). Fusing the commuted form was observed to flip NaN bit
/// patterns between the reference interpreter and the machine, so only the
/// order-preserving case — which is bit-exact by construction — is taken.
pub fn fuse_fmadd(f: &mut Func) -> usize {
    // Global use counts.
    let mut uses: BTreeMap<Vreg, usize> = BTreeMap::new();
    let mut count = |u| *uses.entry(u).or_insert(0) += 1;
    for b in &f.blocks {
        for i in &b.insts {
            i.for_each_use(&mut count);
        }
        b.term.for_each_use(&mut count);
    }

    let mut fused = 0;
    for block in &mut f.blocks {
        // Most recent in-block multiply producing each vreg, invalidated on
        // operand or destination redefinition.
        let mut muls: BTreeMap<Vreg, (Vreg, Vreg)> = BTreeMap::new();
        for idx in 0..block.insts.len() {
            let inst = block.insts[idx].clone();
            if let Inst::BinF {
                op: FBin::Add,
                dst,
                a,
                b,
            } = inst
            {
                // Only the product-first form: see the NaN note above.
                let pick = if muls.contains_key(&a) && uses.get(&a) == Some(&1) {
                    Some((a, b))
                } else {
                    None
                };
                if let Some((prod, addend)) = pick {
                    let (ma, mb) = muls[&prod];
                    block.insts[idx] = Inst::MaddF {
                        dst,
                        a: ma,
                        b: mb,
                        c: addend,
                    };
                    fused += 1;
                }
            }
            let inst = &block.insts[idx];
            if let Some(d) = inst.def() {
                // redefinition of an operand or of the product invalidates
                muls.retain(|prod, (a, b)| *prod != d && *a != d && *b != d);
            }
            if let Inst::BinF {
                op: FBin::Mul,
                dst,
                a,
                b,
            } = *inst
            {
                if dst != a && dst != b {
                    muls.insert(dst, (a, b));
                }
            }
        }
    }
    fused
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtl::{Block, BlockId, RegClass, Term};

    fn func(insts: Vec<Inst>, vregs: Vec<RegClass>, ret: Option<Vreg>) -> Func {
        Func {
            name: "t".into(),
            params: vec![],
            ret: ret.map(|_| RegClass::F),
            vregs,
            slots: vec![],
            blocks: vec![Block {
                insts,
                term: Term::Ret(ret),
            }],
            entry: BlockId(0),
        }
    }

    #[test]
    fn mul_by_power_of_two_becomes_shift() {
        let (a, d) = (Vreg(0), Vreg(1));
        let mut f = func(
            vec![Inst::BinIImm {
                op: IBin::Mul,
                dst: d,
                a,
                imm: 8,
            }],
            vec![RegClass::I; 2],
            None,
        );
        assert_eq!(reduce(&mut f), 1);
        assert_eq!(
            f.blocks[0].insts[0],
            Inst::BinIImm {
                op: IBin::Shl,
                dst: d,
                a,
                imm: 3
            }
        );
    }

    #[test]
    fn identities_simplify() {
        let (a, d) = (Vreg(0), Vreg(1));
        let mut f = func(
            vec![
                Inst::BinIImm {
                    op: IBin::Add,
                    dst: d,
                    a,
                    imm: 0,
                },
                Inst::BinIImm {
                    op: IBin::Mul,
                    dst: d,
                    a,
                    imm: 1,
                },
                Inst::BinIImm {
                    op: IBin::And,
                    dst: d,
                    a,
                    imm: 0,
                },
            ],
            vec![RegClass::I; 2],
            None,
        );
        assert_eq!(reduce(&mut f), 3);
        assert_eq!(f.blocks[0].insts[0], Inst::MovI { dst: d, src: a });
        assert_eq!(f.blocks[0].insts[1], Inst::MovI { dst: d, src: a });
        assert_eq!(f.blocks[0].insts[2], Inst::ImmI { dst: d, value: 0 });
    }

    #[test]
    fn fmadd_fusion_single_use() {
        let (a, b, c, t, d) = (Vreg(0), Vreg(1), Vreg(2), Vreg(3), Vreg(4));
        let mut f = func(
            vec![
                Inst::BinF {
                    op: FBin::Mul,
                    dst: t,
                    a,
                    b,
                },
                Inst::BinF {
                    op: FBin::Add,
                    dst: d,
                    a: t,
                    b: c,
                },
            ],
            vec![RegClass::F; 5],
            Some(d),
        );
        assert_eq!(fuse_fmadd(&mut f), 1);
        assert_eq!(f.blocks[0].insts[1], Inst::MaddF { dst: d, a, b, c });
    }

    #[test]
    fn no_fusion_when_product_is_second_addend() {
        // `d = c + t` must stay an add: fmadd would compute `t + c`, and
        // when both are NaN the first operand's payload wins, so the
        // commuted fusion is not bit-exact.
        let (a, b, c, t, d) = (Vreg(0), Vreg(1), Vreg(2), Vreg(3), Vreg(4));
        let mut f = func(
            vec![
                Inst::BinF {
                    op: FBin::Mul,
                    dst: t,
                    a,
                    b,
                },
                Inst::BinF {
                    op: FBin::Add,
                    dst: d,
                    a: c,
                    b: t,
                },
            ],
            vec![RegClass::F; 5],
            Some(d),
        );
        assert_eq!(fuse_fmadd(&mut f), 0);
        assert_eq!(
            f.blocks[0].insts[1],
            Inst::BinF {
                op: FBin::Add,
                dst: d,
                a: c,
                b: t
            }
        );
    }

    #[test]
    fn no_fusion_when_product_reused() {
        let (a, b, c, t, d, e) = (Vreg(0), Vreg(1), Vreg(2), Vreg(3), Vreg(4), Vreg(5));
        let mut f = func(
            vec![
                Inst::BinF {
                    op: FBin::Mul,
                    dst: t,
                    a,
                    b,
                },
                Inst::BinF {
                    op: FBin::Add,
                    dst: d,
                    a: t,
                    b: c,
                },
                Inst::BinF {
                    op: FBin::Sub,
                    dst: e,
                    a: t,
                    b: c,
                }, // t used twice
            ],
            vec![RegClass::F; 6],
            Some(d),
        );
        assert_eq!(fuse_fmadd(&mut f), 0);
    }

    #[test]
    fn no_fusion_across_operand_redefinition() {
        let (a, b, c, t, d) = (Vreg(0), Vreg(1), Vreg(2), Vreg(3), Vreg(4));
        let mut f = func(
            vec![
                Inst::BinF {
                    op: FBin::Mul,
                    dst: t,
                    a,
                    b,
                },
                Inst::ImmF { dst: a, value: 0.0 }, // `a` changed — fusion would still be
                // correct (operands captured), but the window is invalidated
                // conservatively; what matters is no miscompile:
                Inst::BinF {
                    op: FBin::Add,
                    dst: d,
                    a: t,
                    b: c,
                },
            ],
            vec![RegClass::F; 5],
            Some(d),
        );
        assert_eq!(fuse_fmadd(&mut f), 0);
    }
}
