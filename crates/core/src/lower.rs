//! Lowering from MiniC to RTL.
//!
//! The lowering is deliberately naive — it produces exactly the `-O0`
//! pattern style of the paper's incumbent process (Listing 1): every source
//! variable lives in a stack slot, every operand is loaded before use and
//! every result stored back. Booleans are materialized as 0/1 integers
//! through compare-branch diamonds (the PowerPC has no cheap set-on-compare).
//!
//! All later improvement is the business of the optimization passes; this
//! keeps the four compiler configurations differing only in their pass
//! lists.

use std::collections::BTreeMap;

use vericomp_minic::ast::{Binop, Expr, Function, Program, Stmt, Unop};

use crate::rtl::{Addr, AnnotArg, BlockId, Func, IBin, IUnop, Inst, RegClass, SlotId, Term, Vreg};
use crate::CompileError;

/// Where a scalar name lives.
#[derive(Clone)]
enum Place {
    Slot(SlotId, RegClass),
    Global(String, RegClass),
}

struct Lowerer<'p> {
    prog: &'p Program,
    func: Func,
    places: BTreeMap<String, Place>,
    cur: BlockId,
}

/// Lowers one function.
///
/// # Errors
///
/// Returns [`CompileError`] for constructs the backend cannot express (none
/// today for typechecked programs; the error type keeps the interface
/// honest).
pub fn lower_function(prog: &Program, f: &Function) -> Result<Func, CompileError> {
    let mut func = Func {
        name: f.name.clone(),
        params: Vec::new(),
        ret: f.ret.map(RegClass::of_ty),
        vregs: Vec::new(),
        slots: Vec::new(),
        blocks: Vec::new(),
        entry: BlockId(0),
    };
    let entry = func.new_block();
    func.entry = entry;

    let mut places = BTreeMap::new();
    // Parameters: value arrives in a register, is stored to its slot.
    let mut param_stores = Vec::new();
    for (name, ty) in &f.params {
        let class = RegClass::of_ty(*ty);
        let v = func.new_vreg(class);
        func.params.push(v);
        let slot = func.new_slot(class, "param");
        places.insert(name.clone(), Place::Slot(slot, class));
        param_stores.push(Inst::Store {
            src: v,
            addr: Addr::Stack(slot),
        });
    }
    func.block_mut(entry).insts = param_stores;
    // MiniC locals are zero-initialized, but materializing the
    // initialization is only necessary when a local can be read before its
    // first definite (top-level) assignment — the pattern code generator
    // assigns every wire temporary before use, so almost no store is
    // emitted here (the incumbent compiler does not zero-initialize
    // either).
    let needs_init = locals_read_before_assignment(f);
    for (name, ty) in &f.locals {
        let class = RegClass::of_ty(*ty);
        let slot = func.new_slot(class, "local");
        places.insert(name.clone(), Place::Slot(slot, class));
        if needs_init.contains(name.as_str()) {
            let zero = func.new_vreg(class);
            let init = match class {
                RegClass::I => Inst::ImmI {
                    dst: zero,
                    value: 0,
                },
                RegClass::F => Inst::ImmF {
                    dst: zero,
                    value: 0.0,
                },
            };
            func.block_mut(entry).insts.push(init);
            func.block_mut(entry).insts.push(Inst::Store {
                src: zero,
                addr: Addr::Stack(slot),
            });
        }
    }

    let mut lw = Lowerer {
        prog,
        func,
        places,
        cur: entry,
    };
    let done = lw.stmts(&f.body)?;
    if done {
        // fell off the end of a void function
        lw.func.block_mut(lw.cur).term = Term::Ret(None);
    }
    Ok(lw.func)
}

/// Locals that may be read before a definite assignment (and therefore need
/// their zero initialization materialized). Conservative: only a *top-level*
/// assignment counts as definite; any read — including inside nested
/// statements and annotation arguments — before that point marks the local.
fn locals_read_before_assignment(f: &Function) -> std::collections::BTreeSet<&str> {
    fn reads<'a>(e: &'a Expr, out: &mut Vec<&'a str>) {
        match e {
            Expr::Var(n) => out.push(n),
            Expr::Index(_, i) => reads(i, out),
            Expr::Unop(_, a) => reads(a, out),
            Expr::Binop(_, a, b) => {
                reads(a, out);
                reads(b, out);
            }
            Expr::Call(_, args) => {
                for a in args {
                    reads(a, out);
                }
            }
            Expr::IntLit(_) | Expr::FloatLit(_) | Expr::BoolLit(_) | Expr::IoRead(_) => {}
        }
    }
    fn stmt_reads<'a>(s: &'a Stmt, out: &mut Vec<&'a str>) {
        match s {
            Stmt::Assign(_, e) | Stmt::IoWrite(_, e) | Stmt::Return(Some(e)) => reads(e, out),
            Stmt::Return(None) => {}
            Stmt::StoreIndex(_, i, e) => {
                reads(i, out);
                reads(e, out);
            }
            Stmt::If(c, a, b) => {
                reads(c, out);
                for s in a.iter().chain(b) {
                    stmt_reads(s, out);
                }
            }
            Stmt::While(c, body) => {
                reads(c, out);
                for s in body {
                    stmt_reads(s, out);
                }
            }
            Stmt::Annot(_, args) | Stmt::CallStmt(_, args) => {
                for a in args {
                    reads(a, out);
                }
            }
        }
    }
    // nested assignments also count as reads of nothing, but they are not
    // definite; only track top-level assignment order
    let locals: std::collections::BTreeSet<&str> =
        f.locals.iter().map(|(n, _)| n.as_str()).collect();
    let mut assigned: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    let mut need = std::collections::BTreeSet::new();
    for s in &f.body {
        let mut r = Vec::new();
        stmt_reads(s, &mut r);
        for n in r {
            if locals.contains(n) && !assigned.contains(n) {
                need.insert(n);
            }
        }
        if let Stmt::Assign(x, _) = s {
            if let Some(&name) = locals.get(x.as_str()) {
                assigned.insert(name);
            }
        }
    }
    need
}

impl<'p> Lowerer<'p> {
    fn emit(&mut self, inst: Inst) {
        self.func.block_mut(self.cur).insts.push(inst);
    }

    fn place(&self, name: &str) -> Place {
        if let Some(p) = self.places.get(name) {
            return p.clone();
        }
        let g = self
            .prog
            .global(name)
            .unwrap_or_else(|| unreachable!("typechecked var `{name}` must resolve"));
        Place::Global(name.to_owned(), RegClass::of_ty(g.def.elem_ty()))
    }

    fn place_addr(&self, p: &Place) -> Addr {
        match p {
            Place::Slot(s, _) => Addr::Stack(*s),
            Place::Global(n, _) => Addr::Global {
                name: n.clone(),
                offset: 0,
            },
        }
    }

    /// Lowers an expression to a virtual register holding its value.
    fn expr(&mut self, e: &Expr) -> Result<Vreg, CompileError> {
        match e {
            Expr::IntLit(v) => {
                let t = self.func.new_vreg(RegClass::I);
                self.emit(Inst::ImmI { dst: t, value: *v });
                Ok(t)
            }
            Expr::BoolLit(v) => {
                let t = self.func.new_vreg(RegClass::I);
                self.emit(Inst::ImmI {
                    dst: t,
                    value: i32::from(*v),
                });
                Ok(t)
            }
            Expr::FloatLit(v) => {
                let t = self.func.new_vreg(RegClass::F);
                self.emit(Inst::ImmF { dst: t, value: *v });
                Ok(t)
            }
            Expr::Var(name) => {
                let p = self.place(name);
                let class = match &p {
                    Place::Slot(_, c) | Place::Global(_, c) => *c,
                };
                let t = self.func.new_vreg(class);
                let addr = self.place_addr(&p);
                self.emit(Inst::Load { dst: t, addr });
                Ok(t)
            }
            Expr::Index(name, idx) => {
                let i = self.expr(idx)?;
                let g = self
                    .prog
                    .global(name)
                    .unwrap_or_else(|| unreachable!("typechecked array `{name}`"));
                let class = RegClass::of_ty(g.def.elem_ty());
                let scale = match class {
                    RegClass::I => 4,
                    RegClass::F => 8,
                };
                let t = self.func.new_vreg(class);
                self.emit(Inst::Load {
                    dst: t,
                    addr: Addr::GlobalIndex {
                        name: name.clone(),
                        index: i,
                        scale,
                    },
                });
                Ok(t)
            }
            Expr::IoRead(port) => {
                let t = self.func.new_vreg(RegClass::F);
                self.emit(Inst::Load {
                    dst: t,
                    addr: Addr::Io(*port),
                });
                Ok(t)
            }
            Expr::Unop(op, a) => {
                let va = self.expr(a)?;
                let (class, inst) = match op {
                    Unop::NegI => {
                        let t = self.func.new_vreg(RegClass::I);
                        (
                            t,
                            Inst::UnI {
                                op: IUnop::Neg,
                                dst: t,
                                a: va,
                            },
                        )
                    }
                    Unop::NotB => {
                        let t = self.func.new_vreg(RegClass::I);
                        (
                            t,
                            Inst::BinIImm {
                                op: IBin::Xor,
                                dst: t,
                                a: va,
                                imm: 1,
                            },
                        )
                    }
                    Unop::NegF => {
                        let t = self.func.new_vreg(RegClass::F);
                        (
                            t,
                            Inst::UnF {
                                op: crate::rtl::FUn::Neg,
                                dst: t,
                                a: va,
                            },
                        )
                    }
                    Unop::AbsF => {
                        let t = self.func.new_vreg(RegClass::F);
                        (
                            t,
                            Inst::UnF {
                                op: crate::rtl::FUn::Abs,
                                dst: t,
                                a: va,
                            },
                        )
                    }
                    Unop::I2F => {
                        let t = self.func.new_vreg(RegClass::F);
                        (t, Inst::Itof { dst: t, src: va })
                    }
                    Unop::F2I => {
                        let t = self.func.new_vreg(RegClass::I);
                        (t, Inst::Ftoi { dst: t, src: va })
                    }
                };
                self.emit(inst);
                Ok(class)
            }
            Expr::Binop(op, a, b) => self.binop(*op, a, b),
            Expr::Call(name, args) => {
                let argv = args
                    .iter()
                    .map(|a| self.expr(a))
                    .collect::<Result<Vec<_>, _>>()?;
                let ret_ty = self
                    .prog
                    .function(name)
                    .and_then(|f| f.ret)
                    .unwrap_or_else(|| unreachable!("typechecked call `{name}`"));
                let t = self.func.new_vreg(RegClass::of_ty(ret_ty));
                self.emit(Inst::Call {
                    dst: Some(t),
                    callee: name.clone(),
                    args: argv,
                });
                Ok(t)
            }
        }
    }

    fn binop(&mut self, op: Binop, a: &Expr, b: &Expr) -> Result<Vreg, CompileError> {
        use crate::rtl::FBin;
        let ibin = |op| match op {
            Binop::AddI => Some(IBin::Add),
            Binop::SubI => Some(IBin::Sub),
            Binop::MulI => Some(IBin::Mul),
            Binop::DivI => Some(IBin::Div),
            Binop::AndB => Some(IBin::And),
            Binop::OrB => Some(IBin::Or),
            Binop::XorB => Some(IBin::Xor),
            _ => None,
        };
        let fbin = |op| match op {
            Binop::AddF => Some(FBin::Add),
            Binop::SubF => Some(FBin::Sub),
            Binop::MulF => Some(FBin::Mul),
            Binop::DivF => Some(FBin::Div),
            _ => None,
        };
        if let Some(iop) = ibin(op) {
            // Immediate-operand selection: even the pattern compiler uses
            // `addi`-style forms for small literal operands (and the WCET
            // analyzer's counted-loop witness relies on `addi` updates).
            let small = |e: &Expr| match e {
                Expr::IntLit(v) if i16::try_from(*v).is_ok() => Some(*v),
                _ => None,
            };
            match (iop, small(a), small(b)) {
                (IBin::Add, _, Some(imm)) => {
                    let va = self.expr(a)?;
                    let t = self.func.new_vreg(RegClass::I);
                    self.emit(Inst::BinIImm {
                        op: IBin::Add,
                        dst: t,
                        a: va,
                        imm,
                    });
                    return Ok(t);
                }
                (IBin::Add, Some(imm), _) => {
                    let vb = self.expr(b)?;
                    let t = self.func.new_vreg(RegClass::I);
                    self.emit(Inst::BinIImm {
                        op: IBin::Add,
                        dst: t,
                        a: vb,
                        imm,
                    });
                    return Ok(t);
                }
                (IBin::Sub, _, Some(imm)) if i16::try_from(-imm).is_ok() => {
                    let va = self.expr(a)?;
                    let t = self.func.new_vreg(RegClass::I);
                    self.emit(Inst::BinIImm {
                        op: IBin::Add,
                        dst: t,
                        a: va,
                        imm: -imm,
                    });
                    return Ok(t);
                }
                _ => {}
            }
            let va = self.expr(a)?;
            let vb = self.expr(b)?;
            let t = self.func.new_vreg(RegClass::I);
            self.emit(Inst::BinI {
                op: iop,
                dst: t,
                a: va,
                b: vb,
            });
            return Ok(t);
        }
        if let Some(fop) = fbin(op) {
            let va = self.expr(a)?;
            let vb = self.expr(b)?;
            let t = self.func.new_vreg(RegClass::F);
            self.emit(Inst::BinF {
                op: fop,
                dst: t,
                a: va,
                b: vb,
            });
            return Ok(t);
        }
        // Comparison: materialize 0/1 through a diamond.
        let va = self.expr(a)?;
        let vb = self.expr(b)?;
        let t = self.func.new_vreg(RegClass::I);
        let then_b = self.func.new_block();
        let else_b = self.func.new_block();
        let join = self.func.new_block();
        let term = match op {
            Binop::CmpI(c) => Term::BrI {
                cmp: c,
                a: va,
                b: vb,
                then_: then_b,
                else_: else_b,
            },
            Binop::CmpF(c) => Term::BrF {
                cmp: c,
                a: va,
                b: vb,
                then_: then_b,
                else_: else_b,
            },
            _ => unreachable!("all binops covered"),
        };
        self.func.block_mut(self.cur).term = term;
        self.func
            .block_mut(then_b)
            .insts
            .push(Inst::ImmI { dst: t, value: 1 });
        self.func.block_mut(then_b).term = Term::Goto(join);
        self.func
            .block_mut(else_b)
            .insts
            .push(Inst::ImmI { dst: t, value: 0 });
        self.func.block_mut(else_b).term = Term::Goto(join);
        self.cur = join;
        Ok(t)
    }

    /// Lowers a condition directly into a branch between two blocks.
    fn branch_on(
        &mut self,
        cond: &Expr,
        then_b: BlockId,
        else_b: BlockId,
    ) -> Result<(), CompileError> {
        let term = match cond {
            Expr::Binop(Binop::CmpI(c), a, b) => {
                let va = self.expr(a)?;
                // compare-against-immediate when the rhs is a small literal
                if let Expr::IntLit(imm) = **b {
                    if i16::try_from(imm).is_ok() {
                        Term::BrIImm {
                            cmp: *c,
                            a: va,
                            imm,
                            then_: then_b,
                            else_: else_b,
                        }
                    } else {
                        let vb = self.expr(b)?;
                        Term::BrI {
                            cmp: *c,
                            a: va,
                            b: vb,
                            then_: then_b,
                            else_: else_b,
                        }
                    }
                } else {
                    let vb = self.expr(b)?;
                    Term::BrI {
                        cmp: *c,
                        a: va,
                        b: vb,
                        then_: then_b,
                        else_: else_b,
                    }
                }
            }
            Expr::Binop(Binop::CmpF(c), a, b) => {
                let va = self.expr(a)?;
                let vb = self.expr(b)?;
                Term::BrF {
                    cmp: *c,
                    a: va,
                    b: vb,
                    then_: then_b,
                    else_: else_b,
                }
            }
            Expr::Unop(Unop::NotB, inner) => {
                return self.branch_on(inner, else_b, then_b);
            }
            _ => {
                let v = self.expr(cond)?;
                Term::BrIImm {
                    cmp: vericomp_minic::ast::Cmp::Ne,
                    a: v,
                    imm: 0,
                    then_: then_b,
                    else_: else_b,
                }
            }
        };
        self.func.block_mut(self.cur).term = term;
        Ok(())
    }

    /// Lowers a statement list. Returns `false` if control definitely left
    /// (every path returned), `true` if execution can fall through.
    fn stmts(&mut self, body: &[Stmt]) -> Result<bool, CompileError> {
        for s in body {
            if !self.stmt(s)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn stmt(&mut self, s: &Stmt) -> Result<bool, CompileError> {
        match s {
            Stmt::Assign(name, e) => {
                let v = self.expr(e)?;
                let p = self.place(name);
                let addr = self.place_addr(&p);
                self.emit(Inst::Store { src: v, addr });
                Ok(true)
            }
            Stmt::StoreIndex(name, idx, e) => {
                let i = self.expr(idx)?;
                let v = self.expr(e)?;
                let g = self
                    .prog
                    .global(name)
                    .unwrap_or_else(|| unreachable!("typechecked array `{name}`"));
                let scale = match RegClass::of_ty(g.def.elem_ty()) {
                    RegClass::I => 4,
                    RegClass::F => 8,
                };
                self.emit(Inst::Store {
                    src: v,
                    addr: Addr::GlobalIndex {
                        name: name.clone(),
                        index: i,
                        scale,
                    },
                });
                Ok(true)
            }
            Stmt::If(c, then_s, else_s) => {
                let then_b = self.func.new_block();
                let else_b = self.func.new_block();
                self.branch_on(c, then_b, else_b)?;

                self.cur = then_b;
                let t_falls = self.stmts(then_s)?;
                let t_end = self.cur;

                self.cur = else_b;
                let e_falls = self.stmts(else_s)?;
                let e_end = self.cur;

                if !t_falls && !e_falls {
                    return Ok(false);
                }
                let join = self.func.new_block();
                if t_falls {
                    self.func.block_mut(t_end).term = Term::Goto(join);
                }
                if e_falls {
                    self.func.block_mut(e_end).term = Term::Goto(join);
                }
                self.cur = join;
                Ok(true)
            }
            Stmt::While(c, body) => {
                let head = self.func.new_block();
                let body_b = self.func.new_block();
                let exit = self.func.new_block();
                self.func.block_mut(self.cur).term = Term::Goto(head);
                self.cur = head;
                self.branch_on(c, body_b, exit)?;
                self.cur = body_b;
                if self.stmts(body)? {
                    let end = self.cur;
                    self.func.block_mut(end).term = Term::Goto(head);
                }
                self.cur = exit;
                Ok(true)
            }
            Stmt::Return(None) => {
                self.func.block_mut(self.cur).term = Term::Ret(None);
                Ok(false)
            }
            Stmt::Return(Some(e)) => {
                let v = self.expr(e)?;
                self.func.block_mut(self.cur).term = Term::Ret(Some(v));
                Ok(false)
            }
            Stmt::Annot(format, args) => {
                let mut lowered = Vec::new();
                for a in args {
                    // Simple variables are observed in place — no load is
                    // forced, so the final location may be a stack slot or a
                    // global (paper §3.4), and becomes a register only after
                    // promotion.
                    if let Expr::Var(name) = a {
                        let p = self.place(name);
                        let class = match &p {
                            Place::Slot(_, c) | Place::Global(_, c) => *c,
                        };
                        lowered.push(AnnotArg::Mem(self.place_addr(&p), class));
                    } else {
                        let v = self.expr(a)?;
                        lowered.push(AnnotArg::Reg(v));
                    }
                }
                self.emit(Inst::Annot {
                    format: format.clone(),
                    args: lowered,
                });
                Ok(true)
            }
            Stmt::IoWrite(port, e) => {
                let v = self.expr(e)?;
                self.emit(Inst::Store {
                    src: v,
                    addr: Addr::Io(*port),
                });
                Ok(true)
            }
            Stmt::CallStmt(name, args) => {
                let argv = args
                    .iter()
                    .map(|a| self.expr(a))
                    .collect::<Result<Vec<_>, _>>()?;
                self.emit(Inst::Call {
                    dst: None,
                    callee: name.clone(),
                    args: argv,
                });
                Ok(true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vericomp_minic::ast::{Cmp, Global, GlobalDef, Ty};

    fn lower_src(globals: Vec<Global>, f: Function) -> Func {
        let p = Program {
            globals,
            functions: vec![f],
        };
        vericomp_minic::typeck::check(&p).expect("test source must typecheck");
        lower_function(&p, p.function_by_index(0)).expect("lowering must succeed")
    }

    // Helper on Program for tests
    trait ByIndex {
        fn function_by_index(&self, i: usize) -> &Function;
    }
    impl ByIndex for Program {
        fn function_by_index(&self, i: usize) -> &Function {
            &self.functions[i]
        }
    }

    #[test]
    fn assignment_produces_load_op_store() {
        // x = x + y  (both f64 locals)
        let f = Function {
            name: "f".into(),
            params: vec![],
            ret: None,
            locals: vec![("x".into(), Ty::F64), ("y".into(), Ty::F64)],
            body: vec![Stmt::Assign(
                "x".into(),
                Expr::binop(Binop::AddF, Expr::var("x"), Expr::var("y")),
            )],
        };
        let func = lower_src(vec![], f);
        let entry = func.block(func.entry);
        // zero-init of 2 locals = 4 insts, then: load, load, fadd, store
        let tail: Vec<_> = entry.insts[4..].iter().collect();
        assert_eq!(tail.len(), 4);
        assert!(matches!(tail[0], Inst::Load { .. }));
        assert!(matches!(tail[1], Inst::Load { .. }));
        assert!(matches!(tail[2], Inst::BinF { .. }));
        assert!(matches!(tail[3], Inst::Store { .. }));
    }

    #[test]
    fn while_becomes_loop_with_header() {
        let f = Function {
            name: "f".into(),
            params: vec![],
            ret: None,
            locals: vec![("i".into(), Ty::I32)],
            body: vec![Stmt::While(
                Expr::binop(Binop::CmpI(Cmp::Lt), Expr::var("i"), Expr::IntLit(8)),
                vec![Stmt::Assign(
                    "i".into(),
                    Expr::binop(Binop::AddI, Expr::var("i"), Expr::IntLit(1)),
                )],
            )],
        };
        let func = lower_src(vec![], f);
        // Header ends with a compare-immediate branch.
        let has_brimm = func.rpo().iter().any(|&b| {
            matches!(
                func.block(b).term,
                Term::BrIImm {
                    cmp: Cmp::Lt,
                    imm: 8,
                    ..
                }
            )
        });
        assert!(has_brimm, "{func}");
        // There is a back edge (some block jumps to an earlier RPO block).
        let rpo = func.rpo();
        let pos: BTreeMap<_, _> = rpo.iter().enumerate().map(|(i, b)| (*b, i)).collect();
        let back = rpo
            .iter()
            .any(|&b| func.block(b).term.successors().any(|s| pos[&s] <= pos[&b]));
        assert!(back, "expected a back edge:\n{func}");
    }

    #[test]
    fn bool_materializes_via_diamond() {
        let f = Function {
            name: "f".into(),
            params: vec![],
            ret: None,
            locals: vec![("b".into(), Ty::Bool), ("x".into(), Ty::F64)],
            body: vec![Stmt::Assign(
                "b".into(),
                Expr::binop(Binop::CmpF(Cmp::Lt), Expr::var("x"), Expr::FloatLit(1.0)),
            )],
        };
        let func = lower_src(vec![], f);
        let has_brf = func
            .rpo()
            .iter()
            .any(|&b| matches!(func.block(b).term, Term::BrF { cmp: Cmp::Lt, .. }));
        assert!(has_brf, "{func}");
    }

    #[test]
    fn annotation_var_args_observed_in_place() {
        let f = Function {
            name: "f".into(),
            params: vec![],
            ret: None,
            locals: vec![("x".into(), Ty::I32)],
            body: vec![Stmt::Annot("0 <= %1".into(), vec![Expr::var("x")])],
        };
        let func = lower_src(vec![], f);
        let entry = func.block(func.entry);
        let annot = entry
            .insts
            .iter()
            .find_map(|i| match i {
                Inst::Annot { args, .. } => Some(args.clone()),
                _ => None,
            })
            .expect("annotation must be lowered");
        assert!(matches!(
            annot[0],
            AnnotArg::Mem(Addr::Stack(_), RegClass::I)
        ));
        // and no load was emitted for it
        assert!(!entry.insts.iter().any(|i| matches!(i, Inst::Load { .. })));
    }

    #[test]
    fn global_array_access_lowered_indexed() {
        let f = Function {
            name: "f".into(),
            params: vec![("i".into(), Ty::I32)],
            ret: Some(Ty::F64),
            locals: vec![],
            body: vec![Stmt::Return(Some(Expr::Index(
                "tab".into(),
                Box::new(Expr::var("i")),
            )))],
        };
        let func = lower_src(
            vec![Global {
                name: "tab".into(),
                def: GlobalDef::ArrayF64(vec![0.0; 4]),
            }],
            f,
        );
        let found = func.rpo().iter().any(|&b| {
            func.block(b).insts.iter().any(|i| {
                matches!(
                    i,
                    Inst::Load {
                        addr: Addr::GlobalIndex { scale: 8, .. },
                        ..
                    }
                )
            })
        });
        assert!(found, "{func}");
    }

    #[test]
    fn if_without_else_joins() {
        let f = Function {
            name: "f".into(),
            params: vec![],
            ret: None,
            locals: vec![("x".into(), Ty::I32)],
            body: vec![
                Stmt::If(
                    Expr::binop(Binop::CmpI(Cmp::Gt), Expr::var("x"), Expr::IntLit(0)),
                    vec![Stmt::Assign("x".into(), Expr::IntLit(0))],
                    vec![],
                ),
                Stmt::Assign("x".into(), Expr::IntLit(1)),
            ],
        };
        let func = lower_src(vec![], f);
        // both sides reach the join; the function ends with Ret
        let rets = func
            .rpo()
            .iter()
            .filter(|&&b| matches!(func.block(b).term, Term::Ret(_)))
            .count();
        assert_eq!(rets, 1, "{func}");
    }
}
