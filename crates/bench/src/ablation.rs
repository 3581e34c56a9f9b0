//! E5 — ablation study of the compiler's design choices.
//!
//! The paper attributes most of CompCert's WCET gain to register allocation
//! ("the results of these WCET analyses emphasizes the importance of a good
//! register allocation and how other optimizations are hampered without
//! it", §3.3) and names the full optimizer's extras (scheduling, SDA) as
//! the source of the remaining gap. This experiment quantifies both claims
//! on our stack: starting from the `Verified` and `OptFull` presets, each
//! ingredient is removed in isolation and the mean WCET over the named
//! suite is recomputed.

use vericomp_core::{OptLevel, PassConfig};
use vericomp_dataflow::fleet;
use vericomp_pipeline::{Pipeline, SweepSpec};

/// One ablation row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Human-readable variant name.
    pub name: &'static str,
    /// Mean WCET over the suite, in cycles.
    pub mean_wcet: f64,
    /// Ratio against the pattern baseline.
    pub vs_baseline: f64,
}

/// The experiment result.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// Rows, baseline first.
    pub rows: Vec<AblationRow>,
}

/// Runs the ablation over the named suite.
///
/// # Panics
///
/// Panics if a variant fails to compile or analyze.
pub fn run() -> Ablation {
    let suite = fleet::named_suite();
    let variants: Vec<(&'static str, PassConfig)> = vec![
        (
            "pattern-O0 (baseline)",
            PassConfig::for_level(OptLevel::PatternO0),
        ),
        ("verified", PassConfig::for_level(OptLevel::Verified)),
        (
            "verified - mem2reg",
            PassConfig {
                mem2reg: false,
                ..PassConfig::for_level(OptLevel::Verified)
            },
        ),
        (
            "verified - CSE",
            PassConfig {
                cse: false,
                ..PassConfig::for_level(OptLevel::Verified)
            },
        ),
        (
            "verified - constprop",
            PassConfig {
                constprop: false,
                ..PassConfig::for_level(OptLevel::Verified)
            },
        ),
        (
            "verified, scratch regs",
            PassConfig {
                full_palette: false,
                ..PassConfig::for_level(OptLevel::Verified)
            },
        ),
        ("opt-full", PassConfig::for_level(OptLevel::OptFull)),
        (
            "opt-full - scheduling",
            PassConfig {
                schedule: false,
                ..PassConfig::for_level(OptLevel::OptFull)
            },
        ),
        (
            "opt-full - SDA",
            PassConfig {
                sda: false,
                ..PassConfig::for_level(OptLevel::OptFull)
            },
        ),
        (
            "opt-full - strength",
            PassConfig {
                strength: false,
                ..PassConfig::for_level(OptLevel::OptFull)
            },
        ),
    ];

    // the whole study is one sweep: suite × every variant as the config
    // axis, spread across the pool with cross-variant cache reuse
    let mut spec = SweepSpec::new().nodes(&suite);
    for (name, passes) in &variants {
        spec = spec.config(name, passes);
    }
    let sweep = Pipeline::in_memory()
        .run_sweep(&spec)
        .unwrap_or_else(|e| panic!("ablation pipeline: {e}"));
    let machine = &sweep.machine_labels()[0];
    let baseline = sweep.mean_wcet(variants[0].0, machine);
    let rows = variants
        .iter()
        .map(|&(name, _)| {
            let mean = sweep.mean_wcet(name, machine);
            AblationRow {
                name,
                mean_wcet: mean,
                vs_baseline: mean / baseline,
            }
        })
        .collect();
    Ablation { rows }
}

/// Renders the table.
pub fn render(a: &Ablation) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<26} {:>12} {:>12}",
        "variant", "mean WCET", "vs baseline"
    );
    let _ = writeln!(out, "{}", "-".repeat(52));
    for r in &a.rows {
        let _ = writeln!(
            out,
            "{:<26} {:>12.1} {:>11.3}x",
            r.name, r.mean_wcet, r.vs_baseline
        );
    }
    out
}
