//! Whole-application tests: the 26-node named suite linked into a single
//! image with a cyclic executive — the shape of the paper's actual flight
//! software (many nodes, executed every cycle, compiled together).

use vericomp::core::{Compiler, OptLevel};
use vericomp::dataflow::{fleet, Application};
use vericomp::mach::Simulator;
use vericomp::testkit::oracle::{DeclaredInputs, Lockstep};

fn suite_app() -> Application {
    Application::new("fcs", fleet::named_suite()).expect("unique node names")
}

#[test]
fn application_compiles_runs_and_is_differentially_correct() {
    let app = suite_app();
    let src = app.to_minic().expect("assembles");
    vericomp::minic::typeck::check(&src).expect("typechecks");
    // every node's acquisitions and global inputs, the inter-node wires
    // among them, are driven
    let inputs = DeclaredInputs::of(app.nodes());
    assert_eq!((inputs.ports.len(), inputs.globals.len()), (6, 30));

    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 5e-324];
    for level in OptLevel::all() {
        let binary = Compiler::new(level)
            .compile(&src, app.step_name())
            .expect("compiles");
        let mut pair = Lockstep::new(&src, binary, app.step_name(), level, &inputs);
        for _ in 0..3 {
            pair.activate(|step, slot| match (step * 7 + slot) % 4 {
                0 => specials[(step + slot) as usize % specials.len()],
                _ => f64::from(step * 5 + slot) * 0.83 - 3.0,
            })
            .unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

#[test]
fn application_wcet_is_interprocedural_and_sound() {
    let app = suite_app();
    let src = app.to_minic().expect("assembles");
    let binary = Compiler::new(OptLevel::Verified)
        .compile(&src, "step")
        .expect("compiles");
    let report = vericomp::harness::analyze_wcet(&binary, "step").expect("analyzable");

    // every node's step function was analyzed as a callee
    assert_eq!(report.callees.len(), app.nodes().len());
    // the application bound covers the sum of the work: at least the sum of
    // the callee bounds' dominating parts is within it (weak sanity), and it
    // dominates a concrete cold run (the real contract)
    let mut sim = Simulator::new(binary);
    for port in 0..8 {
        sim.set_io_f64(port, 2.5);
    }
    let out = sim.run(100_000_000).expect("runs");
    assert!(
        report.wcet >= out.stats.cycles,
        "application WCET {} < measured {}",
        report.wcet,
        out.stats.cycles
    );
    // and it should not be more than ~4x a cold run of this loop-light code
    assert!(
        report.wcet <= out.stats.cycles * 4,
        "application WCET {} looks unreasonably loose vs {}",
        report.wcet,
        out.stats.cycles
    );
}

#[test]
fn application_wcet_splits_by_node() {
    // per-callee bounds give the per-node WCET decomposition the process
    // needs for scheduling (cheap aiT-style per-task analyses)
    let app = suite_app();
    let src = app.to_minic().expect("assembles");
    let binary = Compiler::new(OptLevel::Verified)
        .compile(&src, "step")
        .expect("compiles");
    let report = vericomp::harness::analyze_wcet(&binary, "step").expect("analyzable");
    let acquisition = report
        .callees
        .get("airdata_acquisition_step")
        .copied()
        .expect("callee");
    let logic = report
        .callees
        .get("gear_logic_step")
        .copied()
        .expect("callee");
    assert!(
        acquisition > logic,
        "acquisition-bound node ({acquisition}) must dominate pure logic ({logic})"
    );
}
