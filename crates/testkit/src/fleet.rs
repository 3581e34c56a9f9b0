//! Seeded random workload fleets for the Table 1 statistics, fuzzing and
//! soak tests (moved here from `vericomp-dataflow` so the dataflow crate
//! stays dependency-free; the curated `named_suite` remains in
//! `vericomp_dataflow::fleet`).
//!
//! The symbol census is modeled on flight-control laws: dominated by
//! gains, sums and filters, with a sprinkling of saturations, limiters,
//! lookups, comparators and boolean logic.
//!
//! # Seed → fleet stability guarantee
//!
//! Given equal [`FleetConfig`] values, [`random_fleet`] produces
//! **byte-identical generated sources** — every downstream artifact digest,
//! WCET bound and benchmark workload is a pure function of the config. Two
//! further invariants are part of the contract and pinned by the golden
//! fleet-digest test in this module (and relied on by every `BENCH_*.json`
//! trajectory):
//!
//! * **Prefix stability** — growing `nodes` never changes earlier nodes:
//!   the first *k* nodes of a `nodes = n` fleet equal the `nodes = k` fleet
//!   for every `k <= n` (each node draws from the shared stream only while
//!   it is being generated).
//! * **Pinned stream layout** — edits to the generator that change how many
//!   draws a symbol consumes shift every later symbol and are **breaking**:
//!   they must update the golden digest below and note the break in
//!   CHANGELOG.md.

use std::fmt;

use vericomp_dataflow::node::{FWire, Node, NodeBuilder};
use vericomp_minic::ast::Cmp;
use vericomp_pipeline::hash::{Digest, Hasher};

use crate::rng::Rng;

/// Configuration of the random fleet generator.
///
/// Construct with [`FleetConfig::builder`] to get validation up front, or
/// via struct-update syntax on [`FleetConfig::default`] (in which case
/// [`random_fleet`] validates and panics on nonsense bounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Minimum symbols per node.
    pub min_symbols: usize,
    /// Maximum symbols per node.
    pub max_symbols: usize,
    /// RNG seed (the fleet is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            nodes: 100,
            min_symbols: 20,
            max_symbols: 80,
            seed: 0xF11C,
        }
    }
}

/// Why a [`FleetConfig`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetConfigError {
    /// `nodes` was zero.
    NoNodes,
    /// `min_symbols` was below the generator's floor of 1.
    SymbolFloor,
    /// `min_symbols > max_symbols`.
    InvertedSymbolRange {
        /// The declared minimum.
        min: usize,
        /// The declared maximum.
        max: usize,
    },
    /// `max_symbols` beyond the supported ceiling (huge nodes make the
    /// downstream compiler quadratic corners visible long before they make
    /// interesting workloads).
    SymbolCeiling {
        /// The declared maximum.
        max: usize,
    },
}

impl fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetConfigError::NoNodes => write!(f, "fleet needs at least one node"),
            FleetConfigError::SymbolFloor => write!(f, "min_symbols must be at least 1"),
            FleetConfigError::InvertedSymbolRange { min, max } => {
                write!(f, "inverted symbol range: min {min} > max {max}")
            }
            FleetConfigError::SymbolCeiling { max } => {
                write!(
                    f,
                    "max_symbols {max} beyond the supported ceiling {MAX_SYMBOLS_CEILING}"
                )
            }
        }
    }
}

impl std::error::Error for FleetConfigError {}

/// Upper bound on `max_symbols` accepted by the validator.
pub const MAX_SYMBOLS_CEILING: usize = 10_000;

impl FleetConfig {
    /// Starts a validated builder seeded with the defaults.
    #[must_use]
    pub fn builder() -> FleetConfigBuilder {
        FleetConfigBuilder {
            cfg: FleetConfig::default(),
        }
    }

    /// Checks the config against the generator's documented domain.
    ///
    /// # Errors
    ///
    /// The first [`FleetConfigError`] found.
    pub fn validate(&self) -> Result<(), FleetConfigError> {
        if self.nodes == 0 {
            return Err(FleetConfigError::NoNodes);
        }
        if self.min_symbols < 1 {
            return Err(FleetConfigError::SymbolFloor);
        }
        if self.min_symbols > self.max_symbols {
            return Err(FleetConfigError::InvertedSymbolRange {
                min: self.min_symbols,
                max: self.max_symbols,
            });
        }
        if self.max_symbols > MAX_SYMBOLS_CEILING {
            return Err(FleetConfigError::SymbolCeiling {
                max: self.max_symbols,
            });
        }
        Ok(())
    }
}

/// Validated builder for [`FleetConfig`] — the only constructor that can't
/// hand the generator an out-of-domain config.
#[derive(Debug, Clone)]
pub struct FleetConfigBuilder {
    cfg: FleetConfig,
}

impl FleetConfigBuilder {
    /// Sets the node count.
    #[must_use]
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.cfg.nodes = nodes;
        self
    }

    /// Sets the per-node symbol-count range (inclusive on both ends).
    #[must_use]
    pub fn symbols(mut self, min: usize, max: usize) -> Self {
        self.cfg.min_symbols = min;
        self.cfg.max_symbols = max;
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    ///
    /// The first [`FleetConfigError`] found.
    pub fn build(self) -> Result<FleetConfig, FleetConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Generates a deterministic random fleet with a symbol census modeled on
/// flight-control laws (dominated by gains/sums/filters). See the module
/// docs for the seed → fleet stability guarantee.
///
/// # Panics
///
/// Panics when `cfg` fails [`FleetConfig::validate`] — construct configs
/// through [`FleetConfig::builder`] to get the error as a value instead.
pub fn random_fleet(cfg: &FleetConfig) -> Vec<Node> {
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid FleetConfig: {e}"));
    let mut rng = Rng::seed_from_u64(cfg.seed);
    (0..cfg.nodes)
        .map(|i| {
            random_node_named(
                &format!("node{i:03}"),
                &mut rng,
                cfg.min_symbols,
                cfg.max_symbols,
            )
        })
        .collect()
}

/// A digest of every node's generated source, in fleet order — the value
/// the golden-digest test pins, so a workload cannot silently shift.
#[must_use]
pub fn fleet_digest(nodes: &[Node]) -> Digest {
    let mut h = Hasher::new();
    for node in nodes {
        h.str(node.name());
        h.str(&vericomp_minic::pretty::program_to_c(&node.to_minic()));
    }
    h.finish()
}

/// One random node drawn from the shared stream — the symbol census behind
/// both [`random_fleet`] and the scenario suite's task generator.
pub(crate) fn random_node_named(
    name: &str,
    rng: &mut Rng,
    min_symbols: usize,
    max_symbols: usize,
) -> Node {
    let mut b = NodeBuilder::new(name);
    let target = rng.gen_range(min_symbols..=max_symbols);
    let mut fw: Vec<FWire> = Vec::new();
    let mut bw = Vec::new();

    // sources
    let n_inputs = rng.gen_range(1..=3);
    for k in 0..n_inputs {
        fw.push(b.global_input(format!("{name}_in{k}")));
    }
    if rng.gen_bool(0.4) {
        fw.push(b.acquisition(rng.gen_range(0..4)));
    }

    let mut count = fw.len();
    while count < target {
        let pick = |rng: &mut Rng, v: &Vec<FWire>| v[rng.gen_range(0..v.len())];
        let roll: f64 = rng.f64();
        if roll < 0.22 {
            let x = pick(rng, &fw);
            fw.push(b.gain(x, rng.gen_range(-3.0..3.0)));
        } else if roll < 0.40 {
            let x = pick(rng, &fw);
            let y = pick(rng, &fw);
            let w = match rng.gen_range(0..4) {
                0 => b.sum(x, y),
                1 => b.sub(x, y),
                2 => b.mul(x, y),
                _ => b.min(x, y),
            };
            fw.push(w);
        } else if roll < 0.60 {
            let x = pick(rng, &fw);
            fw.push(b.first_order_filter(x, rng.gen_range(0.05..0.6)));
        } else if roll < 0.70 {
            let x = pick(rng, &fw);
            let lo = rng.gen_range(-20.0..-1.0);
            let hi = rng.gen_range(1.0..20.0);
            fw.push(b.saturation(x, lo, hi));
        } else if roll < 0.76 {
            let x = pick(rng, &fw);
            fw.push(b.rate_limiter(x, rng.gen_range(0.1..2.0)));
        } else if roll < 0.82 {
            let x = pick(rng, &fw);
            fw.push(b.delay(x));
        } else if roll < 0.86 {
            let x = pick(rng, &fw);
            fw.push(b.pid(
                x,
                rng.gen_range(0.5..3.0),
                rng.gen_range(0.0..0.5),
                rng.gen_range(0.0..0.5),
            ));
        } else if roll < 0.90 {
            let x = pick(rng, &fw);
            let n = rng.gen_range(4..9);
            let table: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
            fw.push(b.lookup1d(x, table, -5.0, 10.0 / (n as f64 - 1.0)));
        } else if roll < 0.92 {
            let x = pick(rng, &fw);
            bw.push(b.cmp_const(x, Cmp::Gt, rng.gen_range(-5.0..5.0)));
        } else if roll < 0.94 {
            let x = pick(rng, &fw);
            let w = match rng.gen_range(0..3) {
                0 => b.deadband(x, rng.gen_range(0.1..2.0)),
                1 => b.second_order_filter(
                    x,
                    rng.gen_range(0.1..0.8),
                    rng.gen_range(-0.4..0.4),
                    rng.gen_range(-0.6..0.6),
                ),
                _ => b.abs(x),
            };
            fw.push(w);
        } else if roll < 0.95 && !bw.is_empty() {
            let c = bw[rng.gen_range(0..bw.len())];
            bw.push(b.debounce(c, rng.gen_range(1..5)));
        } else if roll < 0.97 && !bw.is_empty() {
            let c = bw[rng.gen_range(0..bw.len())];
            let x = pick(rng, &fw);
            let y = pick(rng, &fw);
            fw.push(b.switch_if(c, x, y));
        } else if bw.len() >= 2 {
            let c1 = bw[rng.gen_range(0..bw.len())];
            let c2 = bw[rng.gen_range(0..bw.len())];
            bw.push(match rng.gen_range(0..3) {
                0 => b.and(c1, c2),
                1 => b.or(c1, c2),
                _ => b.xor(c1, c2),
            });
        } else {
            let x = pick(rng, &fw);
            fw.push(b.abs(x));
        }
        count += 1;
    }

    // sinks: a couple of outputs and maybe an actuator
    let outs = rng.gen_range(1..=2);
    for k in 0..outs {
        let x = fw[fw.len() - 1 - k * 2 % fw.len()];
        b.output(format!("{name}_out{k}"), x);
    }
    if rng.gen_bool(0.3) {
        let x = fw[fw.len() - 1];
        b.actuator(rng.gen_range(8..12), x);
    }
    if let Some(&c) = bw.last() {
        b.output_b(format!("{name}_flag"), c);
    }
    b.build()
        .expect("generated nodes are well-formed by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vericomp_minic::interp::{Interp, Value};

    #[test]
    fn random_fleet_is_deterministic() {
        let cfg = FleetConfig {
            nodes: 5,
            ..FleetConfig::default()
        };
        let a = random_fleet(&cfg);
        let b = random_fleet(&cfg);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_minic(), y.to_minic());
        }
        let c = random_fleet(&FleetConfig { seed: 999, ..cfg });
        assert_ne!(a[0].to_minic(), c[0].to_minic());
    }

    #[test]
    fn random_fleet_typechecks_and_runs() {
        let cfg = FleetConfig {
            nodes: 20,
            min_symbols: 10,
            max_symbols: 40,
            ..Default::default()
        };
        for node in random_fleet(&cfg) {
            let p = node.to_minic();
            vericomp_minic::typeck::check(&p).unwrap_or_else(|e| panic!("{}: {e}", node.name()));
            let mut it = Interp::new(&p);
            // set declared inputs to something nonzero
            for g in &p.globals {
                if g.name.contains("_in") {
                    let _ = it.set_global(&g.name, Value::F(1.5));
                }
            }
            it.call("step", &[])
                .unwrap_or_else(|e| panic!("{}: {e}", node.name()));
        }
    }

    #[test]
    fn builder_validates_and_round_trips() {
        let cfg = FleetConfig::builder()
            .nodes(7)
            .symbols(5, 9)
            .seed(42)
            .build()
            .expect("valid config");
        assert_eq!(
            cfg,
            FleetConfig {
                nodes: 7,
                min_symbols: 5,
                max_symbols: 9,
                seed: 42
            }
        );
        assert_eq!(
            FleetConfig::builder().nodes(0).build(),
            Err(FleetConfigError::NoNodes)
        );
        assert_eq!(
            FleetConfig::builder().symbols(0, 4).build(),
            Err(FleetConfigError::SymbolFloor)
        );
        assert_eq!(
            FleetConfig::builder().symbols(9, 5).build(),
            Err(FleetConfigError::InvertedSymbolRange { min: 9, max: 5 })
        );
        assert_eq!(
            FleetConfig::builder().symbols(5, 20_000).build(),
            Err(FleetConfigError::SymbolCeiling { max: 20_000 })
        );
    }

    #[test]
    fn growing_the_fleet_is_prefix_stable() {
        let small = random_fleet(&FleetConfig::builder().nodes(5).build().unwrap());
        let large = random_fleet(&FleetConfig::builder().nodes(12).build().unwrap());
        assert_eq!(
            fleet_digest(&small),
            fleet_digest(&large[..5]),
            "first 5 nodes shifted when the fleet grew"
        );
    }

    /// The seed → fleet stability guarantee, pinned. If this digest moves,
    /// the generator's draw stream changed and every downstream bench
    /// trajectory (BENCH_*.json) and scenario budget resets — update the
    /// constant only alongside a CHANGELOG.md note.
    #[test]
    fn golden_fleet_digest_is_pinned() {
        let fleet = random_fleet(&FleetConfig::default());
        assert_eq!(
            fleet_digest(&fleet).to_string(),
            GOLDEN_DEFAULT_FLEET_DIGEST,
            "default fleet drifted from the pinned golden digest"
        );
    }

    const GOLDEN_DEFAULT_FLEET_DIGEST: &str = "2d1b7524d648962a51853e67f71ed7af";

    #[test]
    fn fleet_sizes_respect_bounds() {
        let cfg = FleetConfig {
            nodes: 10,
            min_symbols: 15,
            max_symbols: 30,
            seed: 7,
        };
        for n in random_fleet(&cfg) {
            assert!(n.len() >= 15, "{} has {}", n.name(), n.len());
        }
    }
}
