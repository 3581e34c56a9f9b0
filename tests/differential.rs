//! Differential testing: the compiled binary running on the machine model
//! must agree with the MiniC reference interpreter on outputs, actuator
//! commands and annotation traces — for every compiler configuration, over
//! generated nodes and randomized inputs (including non-finite values),
//! with every declared input of the node driven.
//!
//! This is the executable stand-in for CompCert's semantic-preservation
//! theorem (DESIGN.md, E5). Every comparison goes through the one oracle,
//! `testkit::oracle::Lockstep`; the last two tests show that it drives an
//! input no name pattern would find and that it catches a divergence only
//! an actuator port shows.

use vericomp::core::OptLevel;
use vericomp::dataflow::{fleet, Node, NodeBuilder};
use vericomp::harness::compile_node;
use vericomp_testkit::fleet::{random_fleet, FleetConfig};
use vericomp_testkit::oracle::{DeclaredInputs, Lockstep, OracleFailure};
use vericomp_testkit::prop::{check, gens, Config};

/// Runs `steps` activations of `node` compiled at `level` in lockstep
/// with its source, every declared input driven by `input(step, slot)`.
fn differential(
    node: &Node,
    level: OptLevel,
    steps: u32,
    input: impl Fn(u32, u32) -> f64,
) -> Result<(), String> {
    let src = node.to_minic();
    let binary = compile_node(node, level).map_err(|e| format!("{level}: {e}"))?;
    let inputs = DeclaredInputs::of([node]);
    let mut pair = Lockstep::new(&src, binary, node.step_name(), level, &inputs);
    for _ in 0..steps {
        pair.activate(&input).map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[test]
fn named_suite_differential_all_levels() {
    for node in fleet::named_suite() {
        for level in OptLevel::all() {
            differential(&node, level, 3, |step, k| {
                f64::from(step * 11 + 3 * k) * 0.619 - 7.0
            })
            .unwrap_or_else(|e| panic!("{}: {e}", node.name()));
        }
    }
}

#[test]
fn non_finite_inputs_preserved() {
    // NaN and infinities must flow identically through both semantics
    // (the IEEE comparison corner cases are where compilers break).
    let specials = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        1e308,
        5e-324,
    ];
    for node in fleet::named_suite().into_iter().take(8) {
        for level in [OptLevel::PatternO0, OptLevel::Verified, OptLevel::OptFull] {
            differential(&node, level, specials.len() as u32, |step, k| {
                specials[((step + k) as usize) % specials.len()]
            })
            .unwrap_or_else(|e| panic!("{}: {e}", node.name()));
        }
    }
}

#[test]
fn random_nodes_random_inputs() {
    let inputs = gens::pair(gens::any_u64(), gens::f64_range(0.01, 1000.0));
    check(
        "random_nodes_random_inputs",
        &Config::with_cases(24),
        &inputs,
        |&(seed, scale)| {
            let cfg = FleetConfig {
                nodes: 1,
                min_symbols: 10,
                max_symbols: 40,
                seed,
            };
            let node = random_fleet(&cfg).remove(0);
            for level in OptLevel::all() {
                differential(&node, level, 2, |step, k| {
                    (f64::from(step) - 0.5) * scale + f64::from(k) * 0.37
                })
                .map_err(|e| format!("node seed {seed}: {e}"))?;
            }
            Ok(())
        },
    );
}

/// A node that reads acquisition port 0 and the global input `pair_raw`,
/// writes `raw_gain × pair_raw` to the output `pair_out` and
/// `port_gain × io[0]` to actuator port 5.
fn pair_node(raw_gain: f64, port_gain: f64) -> Node {
    let mut b = NodeBuilder::new("pair");
    let x = b.acquisition(0);
    let raw = b.global_input("pair_raw");
    let out = b.gain(raw, raw_gain);
    b.output("pair_out", out);
    let command = b.gain(x, port_gain);
    b.actuator(5, command);
    b.build().expect("valid node")
}

/// One activation of `source`'s program against the binary of
/// `compiled`, which declares the same globals and inputs.
fn cross_check(source: &Node, compiled: &Node) -> Result<(), OracleFailure> {
    let src = source.to_minic();
    let binary = compile_node(compiled, OptLevel::Verified).expect("compiles");
    let inputs = DeclaredInputs::of([source]);
    Lockstep::new(
        &src,
        binary,
        source.step_name(),
        OptLevel::Verified,
        &inputs,
    )
    .activate(|_, slot| 1.5 + f64::from(slot))
    .map(drop)
}

#[test]
fn a_divergence_only_an_actuator_port_shows_is_reported() {
    let node = pair_node(1.0, 1.0);
    cross_check(&node, &node).expect("a node agrees with its own binary");
    // every global agrees; only the command written to port 5 differs
    let err = cross_check(&node, &pair_node(1.0, 2.0)).expect_err("port 5 differs");
    assert!(
        matches!(&err, OracleFailure::Diverge { what, .. } if what.starts_with("io[5]:")),
        "{err}"
    );
}

#[test]
fn an_input_outside_every_name_pattern_is_driven() {
    // `pair_raw` neither contains `_in` nor ends in `_cmd`; left at its
    // initial 0.0 it would hide the different gains
    assert_eq!(
        DeclaredInputs::of([&pair_node(1.0, 1.0)]),
        DeclaredInputs {
            ports: vec![0],
            globals: vec!["pair_raw".to_owned()],
        }
    );
    let err = cross_check(&pair_node(1.0, 1.0), &pair_node(3.0, 1.0)).expect_err("gains differ");
    assert!(
        matches!(&err, OracleFailure::Diverge { what, .. } if what.starts_with("global pair_out:")),
        "{err}"
    );
}
