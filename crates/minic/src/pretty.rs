//! C-like pretty printer for MiniC programs.
//!
//! Renders a program as the C translation unit a developer would review —
//! useful for inspecting what the automatic code generator produced and for
//! the examples that reproduce the paper's listings.
//!
//! The rendering is also the compile pipeline's canonical source text: it
//! is what cache keys and source digests hash, so its bytes are pinned.
//! Every node writes straight into the one output `String`, allocating
//! nothing else, and [`program_to_c`] returns the text at its exact
//! length (it is often kept for a whole run).

use std::fmt::Write as _;

use crate::ast::{Binop, Cmp, Expr, Function, Global, GlobalDef, Program, Stmt, Ty, Unop};

fn ty_name(ty: Ty) -> &'static str {
    match ty {
        Ty::I32 => "int",
        Ty::F64 => "double",
        Ty::Bool => "bool",
    }
}

fn cmp_op(c: Cmp) -> &'static str {
    match c {
        Cmp::Eq => "==",
        Cmp::Ne => "!=",
        Cmp::Lt => "<",
        Cmp::Le => "<=",
        Cmp::Gt => ">",
        Cmp::Ge => ">=",
    }
}

fn binop_str(op: Binop) -> &'static str {
    match op {
        Binop::AddI | Binop::AddF => "+",
        Binop::SubI | Binop::SubF => "-",
        Binop::MulI | Binop::MulF => "*",
        Binop::DivI | Binop::DivF => "/",
        Binop::CmpI(c) | Binop::CmpF(c) => cmp_op(c),
        Binop::AndB => "&&",
        Binop::OrB => "||",
        Binop::XorB => "^",
    }
}

/// Writes `indent` levels of four-space padding.
fn pad(indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("    ");
    }
}

/// Writes `items` separated by `", "`.
fn comma_list<T>(items: &[T], out: &mut String, mut item: impl FnMut(&T, &mut String)) {
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        item(x, out);
    }
}

fn expr(e: &Expr, out: &mut String) {
    match e {
        Expr::IntLit(v) => {
            let _ = write!(out, "{v}");
        }
        Expr::FloatLit(v) => {
            if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                let _ = write!(out, "{v:.1}");
            } else {
                let _ = write!(out, "{v}");
            }
        }
        Expr::BoolLit(v) => out.push_str(if *v { "true" } else { "false" }),
        Expr::Var(n) => out.push_str(n),
        Expr::Index(n, i) => {
            out.push_str(n);
            out.push('[');
            expr(i, out);
            out.push(']');
        }
        Expr::Unop(op, a) => {
            out.push_str(match op {
                Unop::NegI | Unop::NegF => "-",
                Unop::NotB => "!",
                Unop::AbsF => "__builtin_fabs",
                Unop::I2F => "(double)",
                Unop::F2I => "(int)",
            });
            out.push('(');
            expr(a, out);
            out.push(')');
        }
        Expr::Binop(op, a, b) => {
            out.push('(');
            expr(a, out);
            out.push(' ');
            out.push_str(binop_str(*op));
            out.push(' ');
            expr(b, out);
            out.push(')');
        }
        Expr::Call(n, args) => call(n, args, out),
        Expr::IoRead(port) => {
            let _ = write!(out, "__io_read({port})");
        }
    }
}

fn call(name: &str, args: &[Expr], out: &mut String) {
    out.push_str(name);
    out.push('(');
    comma_list(args, out, expr);
    out.push(')');
}

/// Writes a braced block's statements and its padded closing brace.
fn block(body: &[Stmt], indent: usize, out: &mut String) {
    for s in body {
        stmt(s, indent + 1, out);
    }
    pad(indent, out);
    out.push('}');
}

fn stmt(s: &Stmt, indent: usize, out: &mut String) {
    match s {
        Stmt::Assign(n, e) => {
            pad(indent, out);
            out.push_str(n);
            out.push_str(" = ");
            expr(e, out);
            out.push_str(";\n");
        }
        Stmt::StoreIndex(n, i, e) => {
            pad(indent, out);
            out.push_str(n);
            out.push('[');
            expr(i, out);
            out.push_str("] = ");
            expr(e, out);
            out.push_str(";\n");
        }
        Stmt::If(c, then, els) => {
            pad(indent, out);
            out.push_str("if (");
            expr(c, out);
            out.push_str(") {\n");
            block(then, indent, out);
            if !els.is_empty() {
                out.push_str(" else {\n");
                block(els, indent, out);
            }
            out.push('\n');
        }
        Stmt::While(c, body) => {
            pad(indent, out);
            out.push_str("while (");
            expr(c, out);
            out.push_str(") {\n");
            block(body, indent, out);
            out.push('\n');
        }
        Stmt::Return(None) => {
            pad(indent, out);
            out.push_str("return;\n");
        }
        Stmt::Return(Some(e)) => {
            pad(indent, out);
            out.push_str("return ");
            expr(e, out);
            out.push_str(";\n");
        }
        Stmt::Annot(f, args) => {
            pad(indent, out);
            let _ = write!(out, "__builtin_annotation({f:?}");
            for a in args {
                out.push_str(", ");
                expr(a, out);
            }
            out.push_str(");\n");
        }
        Stmt::IoWrite(port, e) => {
            pad(indent, out);
            let _ = write!(out, "__io_write({port}, ");
            expr(e, out);
            out.push_str(");\n");
        }
        Stmt::CallStmt(n, args) => {
            pad(indent, out);
            call(n, args, out);
            out.push_str(";\n");
        }
    }
}

/// Writes a scalar global: `ty name;` or `ty name = init;`.
fn scalar<T: std::fmt::Display>(ty: &str, name: &str, init: Option<T>, out: &mut String) {
    let _ = match init {
        Some(v) => writeln!(out, "{ty} {name} = {v};"),
        None => writeln!(out, "{ty} {name};"),
    };
}

/// Writes an array global: `ty name[N] = {v0, v1, ...};`.
fn array<T: std::fmt::Display>(ty: &str, name: &str, vals: &[T], out: &mut String) {
    let _ = write!(out, "{ty} {name}[{}] = {{", vals.len());
    comma_list(vals, out, |v, out| {
        let _ = write!(out, "{v}");
    });
    out.push_str("};\n");
}

fn global(g: &Global, out: &mut String) {
    match &g.def {
        GlobalDef::ScalarI32(init) => scalar("int", &g.name, *init, out),
        GlobalDef::ScalarF64(init) => scalar("double", &g.name, *init, out),
        GlobalDef::ScalarBool(init) => scalar("bool", &g.name, *init, out),
        GlobalDef::ArrayI32(vals) => array("int", &g.name, vals, out),
        GlobalDef::ArrayF64(vals) => array("double", &g.name, vals, out),
    }
}

fn function(f: &Function, out: &mut String) {
    out.push_str(f.ret.map_or("void", ty_name));
    out.push(' ');
    out.push_str(&f.name);
    out.push('(');
    comma_list(&f.params, out, |(n, t), out| {
        out.push_str(ty_name(*t));
        out.push(' ');
        out.push_str(n);
    });
    out.push_str(") {\n");
    for (n, t) in &f.locals {
        out.push_str("    ");
        out.push_str(ty_name(*t));
        out.push(' ');
        out.push_str(n);
        out.push_str(";\n");
    }
    block(&f.body, 0, out);
    out.push('\n');
}

/// Renders one function as C.
pub fn function_to_c(f: &Function) -> String {
    let mut out = String::new();
    function(f, &mut out);
    out
}

/// Renders a whole program as a C translation unit, at its exact length.
pub fn program_to_c(p: &Program) -> String {
    let mut out = String::new();
    for g in &p.globals {
        global(g, &mut out);
    }
    if !p.globals.is_empty() {
        out.push('\n');
    }
    for (i, f) in p.functions.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        function(f, &mut out);
    }
    out.shrink_to_fit();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;

    #[test]
    fn renders_readable_c() {
        let p = Program {
            globals: vec![
                Global {
                    name: "k".into(),
                    def: GlobalDef::ScalarF64(Some(2.5)),
                },
                Global {
                    name: "tab".into(),
                    def: GlobalDef::ArrayI32(vec![1, 2, 3]),
                },
            ],
            functions: vec![Function {
                name: "step".into(),
                params: vec![("x".into(), Ty::F64)],
                ret: Some(Ty::F64),
                locals: vec![("y".into(), Ty::F64)],
                body: vec![
                    Stmt::Annot("0 <= %1".into(), vec![Expr::var("x")]),
                    Stmt::Assign(
                        "y".into(),
                        Expr::binop(Binop::MulF, Expr::var("k"), Expr::var("x")),
                    ),
                    Stmt::If(
                        Expr::binop(Binop::CmpF(Cmp::Lt), Expr::var("y"), Expr::FloatLit(0.0)),
                        vec![Stmt::Assign("y".into(), Expr::FloatLit(0.0))],
                        vec![],
                    ),
                    Stmt::Return(Some(Expr::var("y"))),
                ],
            }],
        };
        let c = program_to_c(&p);
        assert!(c.contains("double k = 2.5;"), "{c}");
        assert!(c.contains("int tab[3] = {1, 2, 3};"), "{c}");
        assert!(c.contains("double step(double x) {"), "{c}");
        assert!(c.contains("__builtin_annotation(\"0 <= %1\", x);"), "{c}");
        assert!(c.contains("y = (k * x);"), "{c}");
        assert!(c.contains("if ((y < 0.0)) {"), "{c}");
        assert!(c.contains("return y;"), "{c}");
    }

    #[test]
    fn renders_control_flow_and_io() {
        let f = Function {
            name: "n".into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body: vec![
                Stmt::While(Expr::BoolLit(true), vec![Stmt::Return(None)]),
                Stmt::IoWrite(2, Expr::IoRead(1)),
                Stmt::CallStmt("helper".into(), vec![Expr::IntLit(3)]),
            ],
        };
        let c = function_to_c(&f);
        assert!(c.contains("while (true) {"), "{c}");
        assert!(c.contains("__io_write(2, __io_read(1));"), "{c}");
        assert!(c.contains("helper(3);"), "{c}");
    }
}
