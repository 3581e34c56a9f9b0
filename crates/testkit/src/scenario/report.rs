//! Schedulability verdict report: the scenario's joint property decided
//! against the sweep's WCET bounds, rendered and digested in a fixed
//! order so the report is bit-identical across `--jobs` counts.

use std::fmt::Write as _;

use vericomp_pipeline::hash::{Digest, Hasher};

/// One frame-level schedulability verdict: does every task released in
/// `frame` of `mode`, compiled under `config` for `machine`, fit the
/// mode's minor-cycle budget?
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedVerdict {
    /// Mode name.
    pub mode: String,
    /// Minor frame index within the major cycle.
    pub frame: usize,
    /// Pass-config label of the sweep column.
    pub config: String,
    /// Machine label of the sweep column.
    pub machine: String,
    /// Tasks released in the frame under this mode.
    pub tasks: usize,
    /// Frame WCET: executive overhead plus, per task, dispatch overhead
    /// and the task's analyzed (not estimated) WCET bound.
    pub wcet: u64,
    /// The mode's minor-cycle budget.
    pub budget: u64,
}

impl SchedVerdict {
    /// Whether the frame fits its budget.
    #[must_use]
    pub fn feasible(&self) -> bool {
        self.wcet <= self.budget
    }
}

/// The scenario-level schedulability report: every [`SchedVerdict`] in
/// (mode, frame, config, machine) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedReport {
    /// Scenario name.
    pub scenario: String,
    /// Verdicts in deterministic order.
    pub verdicts: Vec<SchedVerdict>,
}

impl SchedReport {
    /// Whether every frame of every mode fits on every sweep column.
    #[must_use]
    pub fn feasible(&self) -> bool {
        self.verdicts.iter().all(SchedVerdict::feasible)
    }

    /// Number of over-budget verdicts.
    #[must_use]
    pub fn infeasible_count(&self) -> usize {
        self.verdicts.iter().filter(|v| !v.feasible()).count()
    }

    /// The over-budget verdicts, in report order.
    pub fn infeasible(&self) -> impl Iterator<Item = &SchedVerdict> {
        self.verdicts.iter().filter(|v| !v.feasible())
    }

    /// Digest over every verdict field, in report order — bit-identical
    /// across job counts because the order is a pure function of the
    /// scenario and the sweep axes.
    #[must_use]
    pub fn digest(&self) -> Digest {
        let mut h = Hasher::new();
        h.str(&self.scenario);
        for v in &self.verdicts {
            h.str(&v.mode)
                .u64(v.frame as u64)
                .str(&v.config)
                .str(&v.machine)
                .u64(v.tasks as u64)
                .u64(v.wcet)
                .u64(v.budget)
                .u64(u64::from(v.feasible()));
        }
        Digest(h.finish())
    }

    /// Renders the report as grep-friendly `sched:` lines — one per
    /// verdict plus a trailing summary — ending with a newline.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.verdicts {
            let state = if v.feasible() {
                "FITS".to_owned()
            } else {
                format!("OVER by {}", v.wcet - v.budget)
            };
            writeln!(
                out,
                "sched: {} mode={} frame={} config={} machine={} tasks={} wcet={} budget={} {state}",
                self.scenario, v.mode, v.frame, v.config, v.machine, v.tasks, v.wcet, v.budget
            )
            .expect("String write is infallible");
        }
        writeln!(
            out,
            "sched: {} verdicts={} infeasible={}",
            self.scenario,
            self.verdicts.len(),
            self.infeasible_count()
        )
        .expect("String write is infallible");
        out
    }
}
