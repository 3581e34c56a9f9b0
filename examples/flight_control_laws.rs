//! The paper's Figure 2 workflow on the named control-law suite: compile
//! every node under the four compiler configurations, bound each WCET
//! statically, and cross-check two activations differentially
//! (interpreter vs. simulator on every declared input, actuator ports and
//! annotation traces included).
//!
//! ```sh
//! cargo run --release --example flight_control_laws
//! ```

use vericomp::core::OptLevel;
use vericomp::dataflow::fleet;
use vericomp::harness;
use vericomp::testkit::oracle::{DeclaredInputs, Lockstep};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<24} {:>6} {:>11} {:>11} {:>11} {:>11}",
        "node", "syms", "pattern-O0", "no-regalloc", "verified", "opt-full"
    );
    println!("{}", "-".repeat(80));
    for node in fleet::named_suite() {
        let src = node.to_minic();
        let inputs = DeclaredInputs::of([&node]);
        let mut row = format!("{:<24} {:>6}", node.name(), node.len());
        let mut baseline = None;
        for level in OptLevel::all() {
            let binary = harness::compile_node(&node, level)?;
            let report = harness::analyze_wcet(&binary, "step")?;
            // two differential activations guard against miscompilation
            let mut pair = Lockstep::new(&src, binary, node.step_name(), level, &inputs);
            for _ in 0..2 {
                let outcome = pair.activate(|step, k| f64::from(step * 5 + k) * 0.73 - 2.0)?;
                assert!(report.wcet >= outcome.stats.cycles);
            }
            match baseline {
                None => {
                    baseline = Some(report.wcet as f64);
                    row.push_str(&format!(" {:>11}", report.wcet));
                }
                Some(b) => row.push_str(&format!(" {:>10.3}x", report.wcet as f64 / b)),
            }
        }
        println!("{row}");
    }
    println!("{}", "-".repeat(80));
    println!(
        "(every row differentially validated: simulator == interpreter, ports and traces equal)"
    );
    Ok(())
}
