//! Experiment drivers regenerating the paper's evaluation artifacts.
//!
//! | id | artifact | entry point |
//! |---|---|---|
//! | E1 | §3.3 code size + Table 1 cache reads/writes | [`table1`] |
//! | E2 | Figure 2 per-node WCET, four compilers | [`figure2`] |
//! | E3 | Listings 1–2 code patterns | [`listings`] |
//! | E4 | §3.4 annotation pipeline | [`annotations`] |
//! | E5 | ablation of compiler design choices | [`ablation`] |
//! | E6 | parallel/cached fleet compilation throughput | [`pipeline`] |
//!
//! Each module computes structured results, and its `bin` target
//! (`--bin table1`, `figure2`, `listings`, `annotations`, `ablation`)
//! prints the rows/series the paper reports. The two timing benches are
//! `pipeline`, which prints E6 and checks the E6, E8 and E9 bars, and
//! `daemon`, which times the compile service (E11) and runs the E10 soak.
//! Speed across commits is judged by the repository benchmark.

pub mod ablation;
pub mod annotations;
pub mod figure2;
pub mod listings;
pub mod pipeline;
pub mod table1;

use vericomp_core::OptLevel;

/// The four configurations in the paper's presentation order, with the
/// baseline first.
pub const LEVELS: [OptLevel; 4] = [
    OptLevel::PatternO0,
    OptLevel::OptNoRegalloc,
    OptLevel::Verified,
    OptLevel::OptFull,
];

/// Formats a ratio as the paper's "-12.0%" style delta against a baseline.
pub fn delta_pct(value: f64, baseline: f64) -> String {
    let pct = (value / baseline - 1.0) * 100.0;
    format!("{pct:+.1}%")
}
