//! Dataflow nodes: typed symbol graphs and the automatic code generator.
//!
//! A node is a DAG of symbol instances connected by wires (cycles are legal
//! when broken by a unit delay). [`Node::to_minic`] is the qualified-ACG
//! analog: it emits a `step` function evaluating every symbol once, in
//! topological order, as a flat sequence of small per-symbol statement
//! patterns — plus the state/input/output/table globals.
//!
//! Generated `while` conditions are always a *single comparison* (the shape
//! the WCET analyzer's loop-bound pattern matcher understands), and the only
//! data-dependent loop — the breakpoint-table scan — carries a
//! `__builtin_annotation` bounding its scan length, reproducing the paper's
//! §3.4 scenario.

use std::collections::BTreeSet;
use std::fmt;

use vericomp_minic::ast::{Binop, Cmp, Expr, Function, Global, GlobalDef, Program, Stmt, Ty, Unop};

use crate::symbol::Symbol;

/// Identifier of a symbol instance within a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymId(pub usize);

/// A typed `double` wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FWire(pub(crate) SymId);

/// A typed boolean wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BWire(pub(crate) SymId);

/// One placed symbol with its input wires.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolInstance {
    /// The symbol kind.
    pub kind: Symbol,
    /// Producers of the inputs, in order.
    pub inputs: Vec<SymId>,
}

/// Errors detected when building a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeError {
    /// A wire references a non-existent instance.
    UnknownWire {
        /// The referencing instance index.
        at: usize,
    },
    /// Wrong number of inputs for a symbol.
    Arity {
        /// The offending instance index.
        at: usize,
    },
    /// A wire's type does not match the consuming port.
    TypeMismatch {
        /// The consuming instance index.
        at: usize,
        /// The input port index.
        port: usize,
    },
    /// A sink (no output) used as a producer.
    SinkAsProducer {
        /// The consuming instance index.
        at: usize,
    },
    /// A combinational cycle not broken by a delay.
    CombinationalCycle,
    /// A symbol parameter is invalid (table too short, inverted bounds, …).
    BadSymbol {
        /// The offending instance index.
        at: usize,
        /// Description.
        why: String,
    },
    /// The node has no instances.
    Empty,
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::UnknownWire { at } => write!(f, "instance {at} references unknown wire"),
            NodeError::Arity { at } => write!(f, "instance {at} has wrong input count"),
            NodeError::TypeMismatch { at, port } => {
                write!(f, "instance {at} input {port} has the wrong wire type")
            }
            NodeError::SinkAsProducer { at } => {
                write!(f, "instance {at} consumes a sink's (nonexistent) output")
            }
            NodeError::CombinationalCycle => {
                write!(f, "combinational cycle (must be broken by a delay)")
            }
            NodeError::BadSymbol { at, why } => write!(f, "instance {at}: {why}"),
            NodeError::Empty => write!(f, "node has no symbols"),
        }
    }
}

impl std::error::Error for NodeError {}

/// A validated dataflow node.
#[derive(Debug, Clone)]
pub struct Node {
    name: String,
    instances: Vec<SymbolInstance>,
    order: Vec<SymId>,
}

/// Builder for [`Node`]s with wire-type safety at the Rust level.
#[derive(Debug)]
pub struct NodeBuilder {
    name: String,
    instances: Vec<SymbolInstance>,
}

impl NodeBuilder {
    /// Starts a new node.
    pub fn new(name: impl Into<String>) -> Self {
        NodeBuilder {
            name: name.into(),
            instances: Vec::new(),
        }
    }

    /// Adds an arbitrary symbol with untyped inputs (used by the random
    /// fleet generator; typing is checked at [`NodeBuilder::build`]).
    pub fn raw(&mut self, kind: Symbol, inputs: Vec<SymId>) -> SymId {
        self.instances.push(SymbolInstance { kind, inputs });
        SymId(self.instances.len() - 1)
    }

    fn addf(&mut self, kind: Symbol, inputs: Vec<SymId>) -> FWire {
        FWire(self.raw(kind, inputs))
    }

    fn addb(&mut self, kind: Symbol, inputs: Vec<SymId>) -> BWire {
        BWire(self.raw(kind, inputs))
    }

    /// Hardware acquisition from I/O port `port`.
    pub fn acquisition(&mut self, port: u32) -> FWire {
        self.addf(Symbol::Acquisition(port), vec![])
    }

    /// Input read from the named global.
    pub fn global_input(&mut self, name: impl Into<String>) -> FWire {
        self.addf(Symbol::GlobalInput(name.into()), vec![])
    }

    /// Constant source.
    pub fn constant(&mut self, v: f64) -> FWire {
        self.addf(Symbol::Const(v), vec![])
    }

    /// `k * x`.
    pub fn gain(&mut self, x: FWire, k: f64) -> FWire {
        self.addf(Symbol::Gain(k), vec![x.0])
    }

    /// `a + b`.
    pub fn sum(&mut self, a: FWire, b: FWire) -> FWire {
        self.addf(Symbol::Sum2, vec![a.0, b.0])
    }

    /// `a - b`.
    pub fn sub(&mut self, a: FWire, b: FWire) -> FWire {
        self.addf(Symbol::Sub2, vec![a.0, b.0])
    }

    /// `a * b`.
    pub fn mul(&mut self, a: FWire, b: FWire) -> FWire {
        self.addf(Symbol::Mul2, vec![a.0, b.0])
    }

    /// `a / b`.
    pub fn div(&mut self, a: FWire, b: FWire) -> FWire {
        self.addf(Symbol::Div2, vec![a.0, b.0])
    }

    /// `min(a, b)`.
    pub fn min(&mut self, a: FWire, b: FWire) -> FWire {
        self.addf(Symbol::Min2, vec![a.0, b.0])
    }

    /// `max(a, b)`.
    pub fn max(&mut self, a: FWire, b: FWire) -> FWire {
        self.addf(Symbol::Max2, vec![a.0, b.0])
    }

    /// `|x|`.
    pub fn abs(&mut self, x: FWire) -> FWire {
        self.addf(Symbol::Abs, vec![x.0])
    }

    /// `-x`.
    pub fn neg(&mut self, x: FWire) -> FWire {
        self.addf(Symbol::Neg, vec![x.0])
    }

    /// Clamp into `[lo, hi]`.
    pub fn saturation(&mut self, x: FWire, lo: f64, hi: f64) -> FWire {
        self.addf(Symbol::Saturation(lo, hi), vec![x.0])
    }

    /// First-order low-pass filter.
    pub fn first_order_filter(&mut self, x: FWire, alpha: f64) -> FWire {
        self.addf(Symbol::FirstOrderFilter(alpha), vec![x.0])
    }

    /// Unit delay (breaks combinational cycles).
    pub fn delay(&mut self, x: FWire) -> FWire {
        self.addf(Symbol::Delay1, vec![x.0])
    }

    /// Rate limiter with maximum per-cycle slew `step`.
    pub fn rate_limiter(&mut self, x: FWire, step: f64) -> FWire {
        self.addf(Symbol::RateLimiter(step), vec![x.0])
    }

    /// Saturating integrator.
    pub fn integrator(&mut self, x: FWire, dt: f64, lo: f64, hi: f64) -> FWire {
        self.addf(Symbol::Integrator { dt, lo, hi }, vec![x.0])
    }

    /// PID controller on the error signal.
    pub fn pid(&mut self, e: FWire, kp: f64, ki: f64, kd: f64) -> FWire {
        self.addf(Symbol::Pid { kp, ki, kd }, vec![e.0])
    }

    /// First-order IIR section with a zero (`y = b0*x + b1*x' - a1*y'`).
    pub fn second_order_filter(&mut self, x: FWire, b0: f64, b1: f64, a1: f64) -> FWire {
        self.addf(Symbol::SecondOrderFilter { b0, b1, a1 }, vec![x.0])
    }

    /// Deadband of half-width `width` around zero.
    pub fn deadband(&mut self, x: FWire, width: f64) -> FWire {
        self.addf(Symbol::Deadband(width), vec![x.0])
    }

    /// Confirmation: true after `cycles` consecutive true inputs.
    pub fn debounce(&mut self, b: BWire, cycles: u32) -> BWire {
        self.addb(Symbol::Debounce(cycles), vec![b.0])
    }

    /// Set/reset latch with reset priority.
    pub fn sr_latch(&mut self, set: BWire, reset: BWire) -> BWire {
        self.addb(Symbol::SrLatch, vec![set.0, reset.0])
    }

    /// Uniform-grid interpolation table.
    pub fn lookup1d(&mut self, x: FWire, table: Vec<f64>, x0: f64, dx: f64) -> FWire {
        self.addf(Symbol::Lookup1d { table, x0, dx }, vec![x.0])
    }

    /// Breakpoint interpolation table with an annotated data-dependent scan.
    pub fn lookup_search(&mut self, x: FWire, breakpoints: Vec<f64>, values: Vec<f64>) -> FWire {
        self.addf(
            Symbol::Lookup1dSearch {
                breakpoints,
                values,
            },
            vec![x.0],
        )
    }

    /// Compare against a constant.
    pub fn cmp_const(&mut self, x: FWire, cmp: Cmp, k: f64) -> BWire {
        self.addb(Symbol::CmpConst(cmp, k), vec![x.0])
    }

    /// Schmitt trigger.
    pub fn hysteresis(&mut self, x: FWire, lo: f64, hi: f64) -> BWire {
        self.addb(Symbol::Hysteresis { lo, hi }, vec![x.0])
    }

    /// Boolean and.
    pub fn and(&mut self, a: BWire, b: BWire) -> BWire {
        self.addb(Symbol::And2, vec![a.0, b.0])
    }

    /// Boolean or.
    pub fn or(&mut self, a: BWire, b: BWire) -> BWire {
        self.addb(Symbol::Or2, vec![a.0, b.0])
    }

    /// Boolean xor.
    pub fn xor(&mut self, a: BWire, b: BWire) -> BWire {
        self.addb(Symbol::Xor2, vec![a.0, b.0])
    }

    /// Boolean not.
    pub fn not(&mut self, a: BWire) -> BWire {
        self.addb(Symbol::Not, vec![a.0])
    }

    /// `cond ? a : b`.
    pub fn switch_if(&mut self, cond: BWire, a: FWire, b: FWire) -> FWire {
        self.addf(Symbol::SwitchIf, vec![cond.0, a.0, b.0])
    }

    /// Write to a named output global.
    pub fn output(&mut self, name: impl Into<String>, x: FWire) {
        self.raw(Symbol::Output(name.into()), vec![x.0]);
    }

    /// Write a boolean to a named output global.
    pub fn output_b(&mut self, name: impl Into<String>, b: BWire) {
        self.raw(Symbol::OutputB(name.into()), vec![b.0]);
    }

    /// Actuator command to an I/O port.
    pub fn actuator(&mut self, port: u32, x: FWire) {
        self.raw(Symbol::Actuator(port), vec![x.0]);
    }

    /// Validates and finalizes the node.
    ///
    /// # Errors
    ///
    /// Any [`NodeError`] found.
    pub fn build(self) -> Result<Node, NodeError> {
        Node::validated(self.name, self.instances)
    }
}

impl Node {
    /// Validates instances and computes the evaluation order.
    ///
    /// # Errors
    ///
    /// Any [`NodeError`] found.
    pub fn validated(name: String, instances: Vec<SymbolInstance>) -> Result<Node, NodeError> {
        if instances.is_empty() {
            return Err(NodeError::Empty);
        }
        for (at, inst) in instances.iter().enumerate() {
            let want = inst.kind.input_types();
            if want.len() != inst.inputs.len() {
                return Err(NodeError::Arity { at });
            }
            for (port, (&src, &ty)) in inst.inputs.iter().zip(&want).enumerate() {
                let producer = instances.get(src.0).ok_or(NodeError::UnknownWire { at })?;
                match producer.kind.output_type() {
                    None => return Err(NodeError::SinkAsProducer { at }),
                    Some(t) if t != ty => return Err(NodeError::TypeMismatch { at, port }),
                    Some(_) => {}
                }
            }
            // parameter sanity
            match &inst.kind {
                Symbol::Lookup1d { table, dx, .. } => {
                    if table.len() < 2 {
                        return Err(NodeError::BadSymbol {
                            at,
                            why: "interpolation table needs ≥ 2 samples".into(),
                        });
                    }
                    if *dx <= 0.0 {
                        return Err(NodeError::BadSymbol {
                            at,
                            why: "grid spacing must be positive".into(),
                        });
                    }
                }
                Symbol::Lookup1dSearch {
                    breakpoints,
                    values,
                } => {
                    if breakpoints.len() < 2 || breakpoints.len() != values.len() {
                        return Err(NodeError::BadSymbol {
                            at,
                            why: "breakpoint table needs ≥ 2 matching samples".into(),
                        });
                    }
                    if !breakpoints.windows(2).all(|w| w[0] < w[1]) {
                        return Err(NodeError::BadSymbol {
                            at,
                            why: "breakpoints must be strictly increasing".into(),
                        });
                    }
                }
                Symbol::Saturation(lo, hi) if lo > hi => {
                    return Err(NodeError::BadSymbol {
                        at,
                        why: "inverted saturation".into(),
                    });
                }
                Symbol::Integrator { lo, hi, .. } if lo > hi => {
                    return Err(NodeError::BadSymbol {
                        at,
                        why: "inverted integrator".into(),
                    });
                }
                Symbol::Hysteresis { lo, hi } if lo > hi => {
                    return Err(NodeError::BadSymbol {
                        at,
                        why: "inverted hysteresis".into(),
                    });
                }
                Symbol::Debounce(0) => {
                    return Err(NodeError::BadSymbol {
                        at,
                        why: "debounce needs at least one cycle".into(),
                    });
                }
                Symbol::Deadband(w) if *w < 0.0 => {
                    return Err(NodeError::BadSymbol {
                        at,
                        why: "negative deadband width".into(),
                    });
                }
                _ => {}
            }
        }

        // Kahn's algorithm over feedthrough edges only.
        let n = instances.len();
        let mut indegree = vec![0usize; n];
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, inst) in instances.iter().enumerate() {
            if inst.kind.is_feedthrough() {
                for &src in &inst.inputs {
                    indegree[i] += 1;
                    consumers[src.0].push(i);
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let i = queue[head];
            head += 1;
            order.push(SymId(i));
            for &c in &consumers[i] {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    queue.push(c);
                }
            }
        }
        if order.len() != n {
            return Err(NodeError::CombinationalCycle);
        }
        Ok(Node {
            name,
            instances,
            order,
        })
    }

    /// The node's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The symbol instances.
    pub fn instances(&self) -> &[SymbolInstance] {
        &self.instances
    }

    /// Number of symbol instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the node is empty (never true for validated nodes).
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// The name of the generated step function (`"step"` for every node —
    /// each node compiles to its own program).
    pub fn step_name(&self) -> &'static str {
        "step"
    }

    /// Runs the automatic code generator, producing the node's MiniC
    /// translation unit.
    pub fn to_minic(&self) -> Program {
        self.to_minic_named(self.step_name())
    }

    /// Like [`Node::to_minic`], but names the step function explicitly —
    /// used when several nodes are linked into one application image.
    pub fn to_minic_named(&self, fn_name: &str) -> Program {
        Codegen::new(self).run(fn_name)
    }
}

struct Codegen<'n> {
    node: &'n Node,
    globals: Vec<Global>,
    declared: BTreeSet<String>,
    locals: Vec<(String, Ty)>,
    body: Vec<Stmt>,
    finalizers: Vec<Stmt>,
}

impl<'n> Codegen<'n> {
    fn new(node: &'n Node) -> Self {
        Codegen {
            node,
            globals: Vec::new(),
            declared: BTreeSet::new(),
            locals: Vec::new(),
            body: Vec::new(),
            finalizers: Vec::new(),
        }
    }

    fn global(&mut self, name: &str, def: GlobalDef) {
        if self.declared.insert(name.to_owned()) {
            self.globals.push(Global {
                name: name.to_owned(),
                def,
            });
        }
    }

    fn local(&mut self, name: String, ty: Ty) -> String {
        self.locals.push((name.clone(), ty));
        name
    }

    fn temp(&mut self, id: usize, ty: Ty) -> String {
        self.local(format!("t{id}"), ty)
    }

    fn state_name(&self, id: usize, suffix: &str) -> String {
        format!("{}__s{id}{suffix}", self.node.name)
    }

    fn run(mut self, fn_name: &str) -> Program {
        let order = self.node.order.clone();
        for sid in order {
            self.symbol(sid);
        }
        let mut body = std::mem::take(&mut self.body);
        body.append(&mut self.finalizers);
        let step = Function {
            name: fn_name.into(),
            params: vec![],
            ret: None,
            locals: self.locals,
            body,
        };
        Program {
            globals: self.globals,
            functions: vec![step],
        }
    }

    fn in_temp(&self, sid: SymId, port: usize) -> Expr {
        Expr::Var(format!("t{}", self.node.instances[sid.0].inputs[port].0))
    }

    fn assign(&mut self, name: &str, e: Expr) {
        self.body.push(Stmt::Assign(name.into(), e));
    }

    #[allow(clippy::too_many_lines)]
    fn symbol(&mut self, sid: SymId) {
        let id = sid.0;
        let kind = self.node.instances[id].kind.clone();
        match kind {
            Symbol::Acquisition(port) => {
                let t = self.temp(id, Ty::F64);
                self.assign(&t, Expr::IoRead(port));
            }
            Symbol::GlobalInput(name) => {
                self.global(&name, GlobalDef::ScalarF64(None));
                let t = self.temp(id, Ty::F64);
                self.assign(&t, Expr::var(name));
            }
            Symbol::Const(v) => {
                let t = self.temp(id, Ty::F64);
                self.assign(&t, Expr::FloatLit(v));
            }
            Symbol::ConstB(v) => {
                let t = self.temp(id, Ty::Bool);
                self.assign(&t, Expr::BoolLit(v));
            }
            Symbol::Gain(k) => {
                let x = self.in_temp(sid, 0);
                let t = self.temp(id, Ty::F64);
                self.assign(&t, Expr::binop(Binop::MulF, Expr::FloatLit(k), x));
            }
            Symbol::Sum2 | Symbol::Sub2 | Symbol::Mul2 | Symbol::Div2 => {
                let a = self.in_temp(sid, 0);
                let b = self.in_temp(sid, 1);
                let op = match kind {
                    Symbol::Sum2 => Binop::AddF,
                    Symbol::Sub2 => Binop::SubF,
                    Symbol::Mul2 => Binop::MulF,
                    _ => Binop::DivF,
                };
                let t = self.temp(id, Ty::F64);
                self.assign(&t, Expr::binop(op, a, b));
            }
            Symbol::Min2 | Symbol::Max2 => {
                let a = self.in_temp(sid, 0);
                let b = self.in_temp(sid, 1);
                let cmp = if matches!(kind, Symbol::Min2) {
                    Cmp::Lt
                } else {
                    Cmp::Gt
                };
                let t = self.temp(id, Ty::F64);
                self.assign(&t, a);
                self.body.push(Stmt::If(
                    Expr::binop(Binop::CmpF(cmp), b.clone(), Expr::var(&t)),
                    vec![Stmt::Assign(t.clone(), b)],
                    vec![],
                ));
            }
            Symbol::Abs => {
                let x = self.in_temp(sid, 0);
                let t = self.temp(id, Ty::F64);
                self.assign(&t, Expr::unop(Unop::AbsF, x));
            }
            Symbol::Neg => {
                let x = self.in_temp(sid, 0);
                let t = self.temp(id, Ty::F64);
                self.assign(&t, Expr::unop(Unop::NegF, x));
            }
            Symbol::Saturation(lo, hi) => {
                let x = self.in_temp(sid, 0);
                let t = self.temp(id, Ty::F64);
                self.assign(&t, x);
                self.clamp(&t, lo, hi);
            }
            Symbol::FirstOrderFilter(alpha) => {
                let x = self.in_temp(sid, 0);
                let s = self.state_name(id, "");
                self.global(&s, GlobalDef::ScalarF64(None));
                let t = self.temp(id, Ty::F64);
                // t = s + alpha * (x - s); s = t;
                self.assign(
                    &t,
                    Expr::binop(
                        Binop::AddF,
                        Expr::var(&s),
                        Expr::binop(
                            Binop::MulF,
                            Expr::FloatLit(alpha),
                            Expr::binop(Binop::SubF, x, Expr::var(&s)),
                        ),
                    ),
                );
                self.assign(&s, Expr::var(&t));
            }
            Symbol::Delay1 => {
                let s = self.state_name(id, "");
                self.global(&s, GlobalDef::ScalarF64(None));
                let t = self.temp(id, Ty::F64);
                self.assign(&t, Expr::var(&s));
                // The state update runs at the end of the step so the input
                // temp exists even when the producer is later in the order
                // (delays are exactly what makes that legal).
                let x = self.in_temp(sid, 0);
                self.finalizers.push(Stmt::Assign(s, x));
            }
            Symbol::RateLimiter(step) => {
                let x = self.in_temp(sid, 0);
                let s = self.state_name(id, "");
                self.global(&s, GlobalDef::ScalarF64(None));
                let t = self.temp(id, Ty::F64);
                let up = Expr::binop(Binop::AddF, Expr::var(&s), Expr::FloatLit(step));
                let dn = Expr::binop(Binop::SubF, Expr::var(&s), Expr::FloatLit(step));
                self.assign(&t, x);
                self.body.push(Stmt::If(
                    Expr::binop(Binop::CmpF(Cmp::Gt), Expr::var(&t), up.clone()),
                    vec![Stmt::Assign(t.clone(), up)],
                    vec![],
                ));
                self.body.push(Stmt::If(
                    Expr::binop(Binop::CmpF(Cmp::Lt), Expr::var(&t), dn.clone()),
                    vec![Stmt::Assign(t.clone(), dn)],
                    vec![],
                ));
                self.assign(&s, Expr::var(&t));
            }
            Symbol::Integrator { dt, lo, hi } => {
                let x = self.in_temp(sid, 0);
                let s = self.state_name(id, "");
                self.global(&s, GlobalDef::ScalarF64(None));
                let t = self.temp(id, Ty::F64);
                self.assign(
                    &t,
                    Expr::binop(
                        Binop::AddF,
                        Expr::var(&s),
                        Expr::binop(Binop::MulF, Expr::FloatLit(dt), x),
                    ),
                );
                self.clamp(&t, lo, hi);
                self.assign(&s, Expr::var(&t));
            }
            Symbol::Pid { kp, ki, kd } => {
                let e = self.in_temp(sid, 0);
                let si = self.state_name(id, "_i");
                let sp = self.state_name(id, "_p");
                self.global(&si, GlobalDef::ScalarF64(None));
                self.global(&sp, GlobalDef::ScalarF64(None));
                let t = self.temp(id, Ty::F64);
                self.assign(&si, Expr::binop(Binop::AddF, Expr::var(&si), e.clone()));
                self.assign(
                    &t,
                    Expr::binop(
                        Binop::AddF,
                        Expr::binop(
                            Binop::AddF,
                            Expr::binop(Binop::MulF, Expr::FloatLit(kp), e.clone()),
                            Expr::binop(Binop::MulF, Expr::FloatLit(ki), Expr::var(&si)),
                        ),
                        Expr::binop(
                            Binop::MulF,
                            Expr::FloatLit(kd),
                            Expr::binop(Binop::SubF, e.clone(), Expr::var(&sp)),
                        ),
                    ),
                );
                self.assign(&sp, e);
            }
            Symbol::Lookup1d { table, x0, dx } => {
                let x = self.in_temp(sid, 0);
                let n = table.len();
                let tab = format!("{}__tab{id}", self.node.name);
                self.global(&tab, GlobalDef::ArrayF64(table));
                let u = self.local(format!("lut{id}_u"), Ty::F64);
                let i = self.local(format!("lut{id}_i"), Ty::I32);
                let fr = self.local(format!("lut{id}_f"), Ty::F64);
                let t = self.temp(id, Ty::F64);
                // u = (x - x0) / dx
                self.assign(
                    &u,
                    Expr::binop(
                        Binop::DivF,
                        Expr::binop(Binop::SubF, x, Expr::FloatLit(x0)),
                        Expr::FloatLit(dx),
                    ),
                );
                self.assign(&i, Expr::unop(Unop::F2I, Expr::var(&u)));
                self.clamp_i(&i, 0, (n - 2) as i32);
                self.assign(
                    &fr,
                    Expr::binop(
                        Binop::SubF,
                        Expr::var(&u),
                        Expr::unop(Unop::I2F, Expr::var(&i)),
                    ),
                );
                self.clamp(&fr, 0.0, 1.0);
                let at = |e: Expr| Expr::Index(tab.clone(), Box::new(e));
                let ip1 = Expr::binop(Binop::AddI, Expr::var(&i), Expr::IntLit(1));
                self.assign(
                    &t,
                    Expr::binop(
                        Binop::AddF,
                        at(Expr::var(&i)),
                        Expr::binop(
                            Binop::MulF,
                            Expr::var(&fr),
                            Expr::binop(Binop::SubF, at(ip1), at(Expr::var(&i))),
                        ),
                    ),
                );
            }
            Symbol::Lookup1dSearch {
                breakpoints,
                values,
            } => {
                let x = self.in_temp(sid, 0);
                let nbp = breakpoints.len();
                let bp = format!("{}__bp{id}", self.node.name);
                let val = format!("{}__val{id}", self.node.name);
                let scan = format!("{}__s{id}_scan", self.node.name);
                self.global(&bp, GlobalDef::ArrayF64(breakpoints));
                self.global(&val, GlobalDef::ArrayF64(values));
                // configuration global: how far the scan may go this mode;
                // defaults to the full table
                self.global(&scan, GlobalDef::ScalarI32(Some((nbp - 2) as i32)));
                let nloc = self.local(format!("lut{id}_n"), Ty::I32);
                let k = self.local(format!("lut{id}_k"), Ty::I32);
                let i = self.local(format!("lut{id}_i"), Ty::I32);
                let fr = self.local(format!("lut{id}_f"), Ty::F64);
                let t = self.temp(id, Ty::F64);
                let hi = (nbp - 2) as i32;
                self.assign(&nloc, Expr::var(&scan));
                self.clamp_i(&nloc, 1, hi);
                // The paper's §3.4 mechanism: without this annotation the
                // scan bound below is unknown to the WCET analyzer.
                self.body.push(Stmt::Annot(
                    format!("1 <= %1 <= {hi}"),
                    vec![Expr::var(&nloc)],
                ));
                self.assign(&i, Expr::IntLit(0));
                self.assign(&k, Expr::IntLit(1));
                self.body.push(Stmt::While(
                    Expr::binop(Binop::CmpI(Cmp::Le), Expr::var(&k), Expr::var(&nloc)),
                    vec![
                        Stmt::If(
                            Expr::binop(
                                Binop::CmpF(Cmp::Le),
                                Expr::Index(bp.clone(), Box::new(Expr::var(&k))),
                                x,
                            ),
                            vec![Stmt::Assign(i.clone(), Expr::var(&k))],
                            vec![],
                        ),
                        Stmt::Assign(
                            k.clone(),
                            Expr::binop(Binop::AddI, Expr::var(&k), Expr::IntLit(1)),
                        ),
                    ],
                ));
                let at = |name: &str, e: Expr| Expr::Index(name.to_owned(), Box::new(e));
                let ip1 = || Expr::binop(Binop::AddI, Expr::var(&i), Expr::IntLit(1));
                let x2 = self.in_temp(sid, 0);
                self.assign(
                    &fr,
                    Expr::binop(
                        Binop::DivF,
                        Expr::binop(Binop::SubF, x2, at(&bp, Expr::var(&i))),
                        Expr::binop(Binop::SubF, at(&bp, ip1()), at(&bp, Expr::var(&i))),
                    ),
                );
                self.clamp(&fr, 0.0, 1.0);
                self.assign(
                    &t,
                    Expr::binop(
                        Binop::AddF,
                        at(&val, Expr::var(&i)),
                        Expr::binop(
                            Binop::MulF,
                            Expr::var(&fr),
                            Expr::binop(Binop::SubF, at(&val, ip1()), at(&val, Expr::var(&i))),
                        ),
                    ),
                );
            }
            Symbol::CmpConst(cmp, kv) => {
                let x = self.in_temp(sid, 0);
                let t = self.temp(id, Ty::Bool);
                self.assign(&t, Expr::binop(Binop::CmpF(cmp), x, Expr::FloatLit(kv)));
            }
            Symbol::Hysteresis { lo, hi } => {
                let x = self.in_temp(sid, 0);
                let s = self.state_name(id, "_b");
                self.global(&s, GlobalDef::ScalarBool(None));
                let t = self.temp(id, Ty::Bool);
                self.assign(&t, Expr::var(&s));
                self.body.push(Stmt::If(
                    Expr::binop(Binop::CmpF(Cmp::Gt), x.clone(), Expr::FloatLit(hi)),
                    vec![Stmt::Assign(t.clone(), Expr::BoolLit(true))],
                    vec![],
                ));
                self.body.push(Stmt::If(
                    Expr::binop(Binop::CmpF(Cmp::Lt), x, Expr::FloatLit(lo)),
                    vec![Stmt::Assign(t.clone(), Expr::BoolLit(false))],
                    vec![],
                ));
                self.assign(&s, Expr::var(&t));
            }
            Symbol::SecondOrderFilter { b0, b1, a1 } => {
                let x = self.in_temp(sid, 0);
                let sx = self.state_name(id, "_x");
                let sy = self.state_name(id, "_y");
                self.global(&sx, GlobalDef::ScalarF64(None));
                self.global(&sy, GlobalDef::ScalarF64(None));
                let t = self.temp(id, Ty::F64);
                // t = (b0*x + b1*sx) - a1*sy; sx = x; sy = t;
                self.assign(
                    &t,
                    Expr::binop(
                        Binop::SubF,
                        Expr::binop(
                            Binop::AddF,
                            Expr::binop(Binop::MulF, Expr::FloatLit(b0), x.clone()),
                            Expr::binop(Binop::MulF, Expr::FloatLit(b1), Expr::var(&sx)),
                        ),
                        Expr::binop(Binop::MulF, Expr::FloatLit(a1), Expr::var(&sy)),
                    ),
                );
                self.assign(&sx, x);
                self.assign(&sy, Expr::var(&t));
            }
            Symbol::Deadband(w) => {
                let x = self.in_temp(sid, 0);
                let t = self.temp(id, Ty::F64);
                self.assign(&t, Expr::FloatLit(0.0));
                self.body.push(Stmt::If(
                    Expr::binop(Binop::CmpF(Cmp::Gt), x.clone(), Expr::FloatLit(w)),
                    vec![Stmt::Assign(
                        t.clone(),
                        Expr::binop(Binop::SubF, x.clone(), Expr::FloatLit(w)),
                    )],
                    vec![],
                ));
                self.body.push(Stmt::If(
                    Expr::binop(Binop::CmpF(Cmp::Lt), x.clone(), Expr::FloatLit(-w)),
                    vec![Stmt::Assign(
                        t.clone(),
                        Expr::binop(Binop::AddF, x, Expr::FloatLit(w)),
                    )],
                    vec![],
                ));
            }
            Symbol::Debounce(cycles) => {
                let b = self.in_temp(sid, 0);
                let c = self.state_name(id, "_c");
                self.global(&c, GlobalDef::ScalarI32(None));
                let t = self.temp(id, Ty::Bool);
                let n = cycles as i32;
                self.body.push(Stmt::If(
                    b,
                    vec![Stmt::Assign(
                        c.clone(),
                        Expr::binop(Binop::AddI, Expr::var(&c), Expr::IntLit(1)),
                    )],
                    vec![Stmt::Assign(c.clone(), Expr::IntLit(0))],
                ));
                self.body.push(Stmt::If(
                    Expr::binop(Binop::CmpI(Cmp::Gt), Expr::var(&c), Expr::IntLit(n)),
                    vec![Stmt::Assign(c.clone(), Expr::IntLit(n))],
                    vec![],
                ));
                self.assign(
                    &t,
                    Expr::binop(Binop::CmpI(Cmp::Ge), Expr::var(&c), Expr::IntLit(n)),
                );
            }
            Symbol::SrLatch => {
                let set = self.in_temp(sid, 0);
                let reset = self.in_temp(sid, 1);
                let st = self.state_name(id, "_b");
                self.global(&st, GlobalDef::ScalarBool(None));
                let t = self.temp(id, Ty::Bool);
                self.assign(&t, Expr::var(&st));
                self.body.push(Stmt::If(
                    set,
                    vec![Stmt::Assign(t.clone(), Expr::BoolLit(true))],
                    vec![],
                ));
                self.body.push(Stmt::If(
                    reset,
                    vec![Stmt::Assign(t.clone(), Expr::BoolLit(false))],
                    vec![],
                ));
                self.assign(&st, Expr::var(&t));
            }
            Symbol::And2 | Symbol::Or2 | Symbol::Xor2 => {
                let a = self.in_temp(sid, 0);
                let b = self.in_temp(sid, 1);
                let op = match kind {
                    Symbol::And2 => Binop::AndB,
                    Symbol::Or2 => Binop::OrB,
                    _ => Binop::XorB,
                };
                let t = self.temp(id, Ty::Bool);
                self.assign(&t, Expr::binop(op, a, b));
            }
            Symbol::Not => {
                let a = self.in_temp(sid, 0);
                let t = self.temp(id, Ty::Bool);
                self.assign(&t, Expr::unop(Unop::NotB, a));
            }
            Symbol::SwitchIf => {
                let c = self.in_temp(sid, 0);
                let a = self.in_temp(sid, 1);
                let b = self.in_temp(sid, 2);
                let t = self.temp(id, Ty::F64);
                self.assign(&t, b);
                self.body
                    .push(Stmt::If(c, vec![Stmt::Assign(t.clone(), a)], vec![]));
            }
            Symbol::Output(name) => {
                self.global(&name, GlobalDef::ScalarF64(None));
                let x = self.in_temp(sid, 0);
                self.assign(&name, x);
            }
            Symbol::OutputB(name) => {
                self.global(&name, GlobalDef::ScalarBool(None));
                let x = self.in_temp(sid, 0);
                self.assign(&name, x);
            }
            Symbol::Actuator(port) => {
                let x = self.in_temp(sid, 0);
                self.body.push(Stmt::IoWrite(port, x));
            }
        }
    }

    fn clamp(&mut self, var: &str, lo: f64, hi: f64) {
        self.body.push(Stmt::If(
            Expr::binop(Binop::CmpF(Cmp::Lt), Expr::var(var), Expr::FloatLit(lo)),
            vec![Stmt::Assign(var.into(), Expr::FloatLit(lo))],
            vec![],
        ));
        self.body.push(Stmt::If(
            Expr::binop(Binop::CmpF(Cmp::Gt), Expr::var(var), Expr::FloatLit(hi)),
            vec![Stmt::Assign(var.into(), Expr::FloatLit(hi))],
            vec![],
        ));
    }

    fn clamp_i(&mut self, var: &str, lo: i32, hi: i32) {
        self.body.push(Stmt::If(
            Expr::binop(Binop::CmpI(Cmp::Lt), Expr::var(var), Expr::IntLit(lo)),
            vec![Stmt::Assign(var.into(), Expr::IntLit(lo))],
            vec![],
        ));
        self.body.push(Stmt::If(
            Expr::binop(Binop::CmpI(Cmp::Gt), Expr::var(var), Expr::IntLit(hi)),
            vec![Stmt::Assign(var.into(), Expr::IntLit(hi))],
            vec![],
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vericomp_minic::interp::{Interp, Value};

    #[test]
    fn simple_law_generates_valid_minic() {
        let mut b = NodeBuilder::new("law");
        let x = b.global_input("x_in");
        let g = b.gain(x, 3.0);
        let f = b.first_order_filter(g, 0.5);
        let s = b.saturation(f, -1.0, 1.0);
        b.output("y_out", s);
        let node = b.build().unwrap();
        let p = node.to_minic();
        vericomp_minic::typeck::check(&p).unwrap();

        let mut it = Interp::new(&p);
        it.set_global("x_in", Value::F(1.0)).unwrap();
        it.call("step", &[]).unwrap();
        // filter: 0 + 0.5*(3 - 0) = 1.5, saturated to 1.0
        assert_eq!(it.global("y_out").unwrap(), Value::F(1.0));
        // state kept the unsaturated filter value
        it.call("step", &[]).unwrap();
        // 1.5 + 0.5*(3 - 1.5) = 2.25 → saturated 1.0
        assert_eq!(it.global("y_out").unwrap(), Value::F(1.0));
    }

    #[test]
    fn delay_breaks_cycles() {
        // y = delay(y + u): legal feedback through a delay
        let mut b = NodeBuilder::new("fb");
        let u = b.global_input("u");
        // construct the cycle with raw wires: sum consumes the delay output
        let sum_id = b.raw(Symbol::Sum2, vec![]); // patched below
        let d = b.delay(FWire(sum_id));
        b.instances[sum_id.0].inputs = vec![u.0, d.0];
        b.output("y", d);
        let node = b.build().unwrap();
        let p = node.to_minic();
        vericomp_minic::typeck::check(&p).unwrap();
        let mut it = Interp::new(&p);
        it.set_global("u", Value::F(1.0)).unwrap();
        for _ in 0..3 {
            it.call("step", &[]).unwrap();
        }
        // y accumulates u each cycle, delayed by one: after 3 steps y = 2
        assert_eq!(it.global("y").unwrap(), Value::F(2.0));
    }

    #[test]
    fn combinational_cycle_rejected() {
        let mut b = NodeBuilder::new("bad");
        let s1 = b.raw(Symbol::Gain(1.0), vec![]);
        let s2 = b.raw(Symbol::Gain(1.0), vec![s1]);
        b.instances[s1.0].inputs = vec![s2];
        assert_eq!(b.build().unwrap_err(), NodeError::CombinationalCycle);
    }

    #[test]
    fn type_errors_rejected() {
        let mut b = NodeBuilder::new("bad");
        let x = b.global_input("x");
        let c = b.cmp_const(x, Cmp::Gt, 0.0);
        // feed a bool wire into a gain via raw()
        b.raw(Symbol::Gain(1.0), vec![c.0]);
        assert!(matches!(
            b.build().unwrap_err(),
            NodeError::TypeMismatch { .. }
        ));
    }

    #[test]
    fn sink_output_cannot_be_consumed() {
        let mut b = NodeBuilder::new("bad");
        let x = b.global_input("x");
        let o = b.raw(Symbol::Output("o".into()), vec![x.0]);
        b.raw(Symbol::Gain(1.0), vec![o]);
        assert!(matches!(
            b.build().unwrap_err(),
            NodeError::SinkAsProducer { .. }
        ));
    }

    #[test]
    fn lookup_tables_interpolate() {
        let mut b = NodeBuilder::new("lut");
        let x = b.global_input("x");
        let l1 = b.lookup1d(x, vec![0.0, 10.0, 20.0], 0.0, 1.0);
        b.output("y_grid", l1);
        let l2 = b.lookup_search(x, vec![0.0, 1.0, 4.0], vec![0.0, 10.0, 40.0]);
        b.output("y_search", l2);
        let node = b.build().unwrap();
        let p = node.to_minic();
        vericomp_minic::typeck::check(&p).unwrap();
        let mut it = Interp::new(&p);
        for (input, grid, search) in [
            (0.5, 5.0, 5.0),
            (1.0, 10.0, 10.0),
            (2.5, 20.0, 25.0),
            (-3.0, 0.0, 0.0),    // clamped low
            (100.0, 20.0, 40.0), // clamped high
        ] {
            it.set_global("x", Value::F(input)).unwrap();
            it.call("step", &[]).unwrap();
            assert_eq!(
                it.global("y_grid").unwrap(),
                Value::F(grid),
                "grid at {input}"
            );
            assert_eq!(
                it.global("y_search").unwrap(),
                Value::F(search),
                "search at {input}"
            );
        }
        // the search loop carries the §3.4 annotation
        assert_eq!(it.trace().len(), 5 * 2 / 2, "one annotation per step");
        assert!(it.trace()[0].format.starts_with("1 <= %1 <="));
    }

    #[test]
    fn hysteresis_and_logic() {
        let mut b = NodeBuilder::new("logic");
        let x = b.global_input("x");
        let h = b.hysteresis(x, -1.0, 1.0);
        let c = b.cmp_const(x, Cmp::Gt, 5.0);
        let both = b.or(h, c);
        b.output_b("flag", both);
        let node = b.build().unwrap();
        let p = node.to_minic();
        vericomp_minic::typeck::check(&p).unwrap();
        let mut it = Interp::new(&p);
        let run = |it: &mut Interp, v: f64| {
            it.set_global("x", Value::F(v)).unwrap();
            it.call("step", &[]).unwrap();
            it.global("flag").unwrap()
        };
        assert_eq!(run(&mut it, 0.0), Value::B(false)); // inside band, state false
        assert_eq!(run(&mut it, 2.0), Value::B(true)); // above hi
        assert_eq!(run(&mut it, 0.0), Value::B(true)); // hysteresis holds
        assert_eq!(run(&mut it, -2.0), Value::B(false)); // below lo
    }

    #[test]
    fn pid_and_integrator_track() {
        let mut b = NodeBuilder::new("ctl");
        let e = b.global_input("err");
        let u = b.pid(e, 2.0, 0.5, 0.25);
        b.output("u", u);
        let i = b.integrator(e, 0.1, -10.0, 10.0);
        b.output("ie", i);
        let node = b.build().unwrap();
        let p = node.to_minic();
        let mut it = Interp::new(&p);
        it.set_global("err", Value::F(1.0)).unwrap();
        it.call("step", &[]).unwrap();
        // pid: i=1; u = 2*1 + 0.5*1 + 0.25*(1-0) = 2.75
        assert_eq!(it.global("u").unwrap(), Value::F(2.75));
        assert_eq!(it.global("ie").unwrap(), Value::F(0.1));
        it.call("step", &[]).unwrap();
        // i=2; u = 2 + 1 + 0 = 3
        assert_eq!(it.global("u").unwrap(), Value::F(3.0));
    }

    #[test]
    fn debounce_confirms_and_latch_holds() {
        let mut b = NodeBuilder::new("warn");
        let x = b.global_input("sig");
        let hot = b.cmp_const(x, Cmp::Gt, 1.0);
        let confirmed = b.debounce(hot, 2);
        let rst_in = b.global_input("rst");
        let rst = b.cmp_const(rst_in, Cmp::Gt, 0.5);
        let alarm = b.sr_latch(confirmed, rst);
        b.output_b("alarm", alarm);
        let node = b.build().unwrap();
        let p = node.to_minic();
        vericomp_minic::typeck::check(&p).unwrap();
        let mut it = Interp::new(&p);
        let mut run = |sig: f64, rst: f64| {
            it.set_global("sig", Value::F(sig)).unwrap();
            it.set_global("rst", Value::F(rst)).unwrap();
            it.call("step", &[]).unwrap();
            it.global("alarm").unwrap()
        };
        assert_eq!(run(2.0, 0.0), Value::B(false)); // 1st exceedance
        assert_eq!(run(2.0, 0.0), Value::B(true)); // confirmed after 2
        assert_eq!(run(0.0, 0.0), Value::B(true)); // latched
        assert_eq!(run(0.0, 1.0), Value::B(false)); // reset
        assert_eq!(run(2.0, 0.0), Value::B(false)); // must confirm again
    }

    #[test]
    fn deadband_and_second_order_shapes() {
        let mut b = NodeBuilder::new("shape");
        let x = b.global_input("x");
        let d = b.deadband(x, 1.0);
        b.output("dead_out", d);
        let f = b.second_order_filter(x, 0.5, 0.25, -0.5);
        b.output("sof_out", f);
        let node = b.build().unwrap();
        let p = node.to_minic();
        let mut it = Interp::new(&p);
        let mut run = |v: f64| {
            it.set_global("x", Value::F(v)).unwrap();
            it.call("step", &[]).unwrap();
            (
                it.global("dead_out").unwrap(),
                it.global("sof_out").unwrap(),
            )
        };
        // deadband: inside the band → 0, outside → offset removed
        let (d, s1) = run(0.5);
        assert_eq!(d, Value::F(0.0));
        // sof step 1: y = 0.5*0.5 + 0.25*0 - (-0.5)*0 = 0.25
        assert_eq!(s1, Value::F(0.25));
        let (d, s2) = run(3.0);
        assert_eq!(d, Value::F(2.0));
        // step 2: 0.5*3 + 0.25*0.5 + 0.5*0.25 = 1.75
        assert_eq!(s2, Value::F(1.75));
        let (d, _) = run(-4.0);
        assert_eq!(d, Value::F(-3.0));
    }

    #[test]
    fn builder_rejects_bad_tables() {
        let mut b = NodeBuilder::new("bad");
        let x = b.global_input("x");
        b.lookup_search(x, vec![1.0, 0.5], vec![0.0, 0.0]); // not increasing
        assert!(matches!(
            b.build().unwrap_err(),
            NodeError::BadSymbol { .. }
        ));
    }
}
