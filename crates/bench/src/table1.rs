//! E1 — §3.3 code size and Table 1 cache accesses.
//!
//! The paper compiled ~2500 files and reports, relative to the
//! non-optimized default compiler: CompCert code ≈ 26 % smaller, with ≈
//! 76 % fewer cache reads and ≈ 65 % fewer cache writes (locals stay in
//! registers instead of the cache-resident stack). The same axes are
//! reported for the default compiler's optimized configurations.
//!
//! We regenerate the table over a generated fleet: every node is compiled
//! under each configuration; code size is the text-section size, and cache
//! accesses are counted by the simulator over a fixed set of activations
//! with varied inputs.

use std::collections::BTreeMap;

use vericomp_core::OptLevel;
use vericomp_mach::Simulator;
use vericomp_pipeline::{Pipeline, SweepSpec};
use vericomp_testkit::fleet::{self, FleetConfig};

/// Aggregate measurements of one compiler configuration over the fleet.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConfigTotals {
    /// Total text size in bytes.
    pub code_bytes: u64,
    /// Total data-cache read accesses.
    pub cache_reads: u64,
    /// Total data-cache write accesses.
    pub cache_writes: u64,
    /// Total executed instructions.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
}

/// The whole experiment.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Totals per configuration.
    pub totals: BTreeMap<OptLevel, ConfigTotals>,
    /// Number of nodes measured.
    pub nodes: usize,
}

impl Table1 {
    /// Ratio of a quantity against the pattern baseline.
    pub fn ratio(&self, level: OptLevel, f: impl Fn(&ConfigTotals) -> u64) -> f64 {
        f(&self.totals[&level]) as f64 / f(&self.totals[&OptLevel::PatternO0]) as f64
    }
}

/// Runs the experiment over a deterministic random fleet of `nodes` nodes,
/// `steps` activations each.
///
/// # Panics
///
/// Panics if a generated node fails to compile or run (generation is
/// correct by construction; a panic indicates a toolchain bug).
pub fn run_fleet(nodes: usize, steps: u32) -> Table1 {
    let fleet = fleet::random_fleet(&FleetConfig {
        nodes,
        ..FleetConfig::default()
    });
    let mut totals: BTreeMap<OptLevel, ConfigTotals> = crate::LEVELS
        .iter()
        .map(|&l| (l, ConfigTotals::default()))
        .collect();

    // the whole compile phase is one sweep: nodes × the four levels on
    // the default MPC755 machine (the measurement below runs serially — the
    // simulator is stateful)
    let spec = SweepSpec::new().nodes(fleet.iter()).levels(crate::LEVELS);
    let sweep = Pipeline::in_memory()
        .run_sweep(&spec)
        .unwrap_or_else(|e| panic!("table1 pipeline: {e}"));
    let machine = sweep.machine_labels()[0].clone();

    for node in &fleet {
        for &level in &crate::LEVELS {
            let bin = sweep[(node.name(), level.to_string().as_str(), machine.as_str())]
                .outcome
                .artifact
                .program
                .clone();
            let t = totals.get_mut(&level).expect("all levels present");
            t.code_bytes += u64::from(bin.text_size());
            let mut sim = Simulator::new(bin);
            for step in 0..steps {
                for port in 0..4 {
                    sim.set_io_f64(port, f64::from(step * 3 + port) * 0.71 - 2.0);
                }
                for g in sim.program().globals.clone() {
                    if g.name.contains("_in") {
                        let _ = sim.set_global_f64(&g.name, 0, f64::from(step) * 1.3 - 1.0);
                    }
                }
                let out = sim
                    .run(50_000_000)
                    .unwrap_or_else(|e| panic!("{} at {level}: {e}", node.name()));
                t.cache_reads += out.stats.dcache_reads;
                t.cache_writes += out.stats.dcache_writes;
                t.instructions += out.stats.instructions;
                t.cycles += out.stats.cycles;
            }
        }
    }
    Table1 {
        totals,
        nodes: fleet.len(),
    }
}

/// Default-size run (100 nodes, 8 activations — a laptop-scale stand-in
/// for the paper's 2500 files).
pub fn run() -> Table1 {
    run_fleet(100, 8)
}

/// Renders the table.
pub fn render(t: &Table1) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1 analog over {} generated nodes (relative to pattern-O0):",
        t.nodes
    );
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>13} {:>13} {:>13} {:>10}",
        "configuration", "code size", "cache reads", "cache writes", "instructions", "cycles"
    );
    let _ = writeln!(out, "{}", "-".repeat(84));
    for &level in &crate::LEVELS {
        let row = &t.totals[&level];
        if level == OptLevel::PatternO0 {
            let _ = writeln!(
                out,
                "{:<18} {:>10} B {:>13} {:>13} {:>13} {:>10}",
                level.to_string(),
                row.code_bytes,
                row.cache_reads,
                row.cache_writes,
                row.instructions,
                row.cycles
            );
        } else {
            let _ = writeln!(
                out,
                "{:<18} {:>12} {:>13} {:>13} {:>13} {:>10}",
                level.to_string(),
                crate::delta_pct(t.ratio(level, |x| x.code_bytes), 1.0),
                crate::delta_pct(t.ratio(level, |x| x.cache_reads), 1.0),
                crate::delta_pct(t.ratio(level, |x| x.cache_writes), 1.0),
                crate::delta_pct(t.ratio(level, |x| x.instructions), 1.0),
                crate::delta_pct(t.ratio(level, |x| x.cycles), 1.0),
            );
        }
    }
    let _ = writeln!(out, "{}", "-".repeat(84));
    let _ = writeln!(
        out,
        "paper §3.3/Table 1 (CompCert vs default -O0): code -26%, cache reads -76%, cache writes -65%"
    );
    out
}
