//! Output checks independent of the compiler under test: the MiniC
//! reference interpreter against the cycle-level simulator running the
//! compiled binary, and the simulated cycle count against the binary's
//! stored WCET bound.

use vericomp_mach::Simulator;
use vericomp_minic::ast::{GlobalDef, Program as SrcProgram};
use vericomp_minic::interp::{Interp, Value};
use vericomp_pipeline::Artifact;
use vericomp_testkit::rng::{mix, Rng};

/// Activations compared per checked cell.
const STEPS: u32 = 2;

/// I/O ports driven and compared (the generator's acquisition and
/// actuator ports all live below this).
const PORTS: u32 = 16;

/// Simulator fuel per activation.
const FUEL: u64 = 10_000_000;

/// Runs `source` in the interpreter and `artifact`'s binary in the
/// simulator on the same seeded inputs for a few activations; every
/// scalar global and I/O port must agree bit for bit, and no activation
/// may take more cycles than the artifact's WCET bound.
///
/// # Errors
///
/// A description of the first disagreement.
pub fn interp_matches_sim(
    source: &SrcProgram,
    artifact: &Artifact,
    seed: u64,
) -> Result<(), String> {
    let mut interp = Interp::new(source);
    let mut sim = Simulator::new(artifact.program.clone());
    for step in 0..STEPS {
        for port in 0..PORTS {
            let mut rng = Rng::seed_from_u64(mix(seed, u64::from(step * PORTS + port)));
            let v = (rng.f64() - 0.5) * 2.0e3;
            interp.set_io(port, v);
            sim.set_io_f64(port, v);
        }
        interp
            .call(&artifact.entry, &[])
            .map_err(|e| format!("interpreter failed at step {step}: {e}"))?;
        let outcome = sim
            .run(FUEL)
            .map_err(|e| format!("simulator failed at step {step}: {e}"))?;
        for g in &source.globals {
            let same = match g.def {
                GlobalDef::ScalarF64(_) => {
                    match (interp.global(&g.name), sim.global_f64(&g.name, 0)) {
                        (Ok(Value::F(a)), Ok(b)) => a.to_bits() == b.to_bits(),
                        _ => false,
                    }
                }
                GlobalDef::ScalarI32(_) => {
                    match (interp.global(&g.name), sim.global_i32(&g.name, 0)) {
                        (Ok(Value::I(a)), Ok(b)) => a == b,
                        _ => false,
                    }
                }
                _ => true,
            };
            if !same {
                return Err(format!("step {step}: global `{}` differs", g.name));
            }
        }
        for port in 0..PORTS {
            if interp.io(port).to_bits() != sim.io_f64(port).to_bits() {
                return Err(format!("step {step}: io[{port}] differs"));
            }
        }
        if outcome.stats.cycles > artifact.report.wcet {
            return Err(format!(
                "step {step}: {} simulated cycles exceed the WCET bound {}",
                outcome.stats.cycles, artifact.report.wcet
            ));
        }
    }
    Ok(())
}
