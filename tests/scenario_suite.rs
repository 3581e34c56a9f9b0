//! Scenario suite gate: generated multi-rate applications must satisfy
//! their **joint** functional + WCET-budget properties through the front
//! door (`Scenario::to_sweep_spec` → `Pipeline::run_sweep` →
//! `Scenario::check`), over-budget modes must come back as infeasible
//! verdicts rather than panics, and the property harness must catch and
//! shrink a seeded over-budget mode switch to a minimal counterexample.

use std::panic::AssertUnwindSafe;

use vericomp::arch::MachineConfig;
use vericomp::core::OptLevel;
use vericomp::minic::interp::{Interp, Value};
use vericomp::pipeline::{Pipeline, PipelineOptions};
use vericomp::testkit::prop::{self, Config};
use vericomp::testkit::scenario::{self, Scenario, ScenarioConfig};

/// The scenario suite's joint property: every generated unit typechecks
/// and executes one activation in the reference interpreter, the sweep's
/// translation validators accept every verified cell, and every frame of
/// every mode fits its minor-cycle budget on both machines under both the
/// cheapest and the baseline config.
fn joint_property(pipeline: &Pipeline, cfg: &ScenarioConfig) -> Result<(), String> {
    let scn = Scenario::generate(cfg).map_err(|e| format!("generate: {e}"))?;

    // functional side: units are well-typed and executable at source level
    for unit in scn.units() {
        let p = unit.node.to_minic();
        vericomp::minic::typeck::check(&p).map_err(|e| format!("{}: typeck: {e}", unit.name))?;
        let mut it = Interp::new(&p);
        for g in &p.globals {
            if g.name.contains("_in") {
                let _ = it.set_global(&g.name, Value::F(1.5));
            }
        }
        it.call("step", &[])
            .map_err(|e| format!("{}: interp: {e}", unit.name))?;
    }

    // WCET side: compile through the front door on the worst supported
    // machine/config pairs the budget model is calibrated against
    let spec = scn
        .to_sweep_spec()
        .levels([OptLevel::PatternO0, OptLevel::Verified])
        .machine("mpc755", &MachineConfig::mpc755())
        .machine("tiny-caches", &MachineConfig::tiny_caches());
    let sweep = pipeline
        .run_sweep(&spec)
        .map_err(|e| format!("pipeline: {e}"))?;
    let report = scn.check(&sweep);

    for cell in sweep.cells() {
        if cell.config == "verified" && !cell.outcome.artifact.verdict.allocation_checked {
            return Err(format!(
                "{}/{}/{}: verified cell without validator evidence",
                cell.unit, cell.config, cell.machine
            ));
        }
    }
    if !report.feasible() {
        let rows: Vec<String> = report
            .infeasible()
            .map(|v| {
                format!(
                    "{} frame {} on {}/{}: wcet {} > budget {}",
                    v.mode, v.frame, v.config, v.machine, v.wcet, v.budget
                )
            })
            .collect();
        return Err(format!(
            "budget model unsound for this seed: {}",
            rows.join("; ")
        ));
    }
    Ok(())
}

#[test]
fn generated_scenarios_satisfy_their_joint_properties() {
    // one shared in-memory pipeline: shrink candidates and nearby cases
    // re-use cached artifacts, so the property stays debug-test sized
    let pipeline = Pipeline::in_memory();
    prop::check(
        "scenario_joint_property",
        &Config::with_cases(4).with_regressions("tests/scenario_suite.proptest-regressions"),
        &scenario::gens::small(),
        |cfg| joint_property(&pipeline, cfg),
    );
}

#[test]
fn over_budget_mode_is_reported_infeasible_not_panicked() {
    let cfg = ScenarioConfig::builder()
        .name("overb")
        .tasks(5)
        .symbols(6, 14)
        .frames(4)
        .seed(0xB07)
        .override_budget("degraded", 1)
        .build()
        .expect("valid config");
    let scn = Scenario::generate(&cfg).expect("generates");
    let pipeline = Pipeline::new(
        &PipelineOptions::builder()
            .jobs(4)
            .build()
            .expect("valid options"),
    )
    .expect("in-memory pipeline");
    let sweep = pipeline
        .run_sweep(&scn.to_sweep_spec())
        .expect("an over-budget mode must not fail the pipeline");
    let report = scn.check(&sweep);

    assert!(!report.feasible());
    // the executive prologue alone exceeds a 1-cycle budget, so every
    // degraded frame is over — and only degraded frames are
    assert!(report.infeasible_count() >= cfg.minor_frames);
    for v in report.infeasible() {
        assert_eq!(v.mode, "degraded", "unexpected infeasible row: {v:?}");
        assert_eq!(v.budget, 1);
        assert!(v.wcet >= scenario::EXEC_OVERHEAD);
    }
    // other modes still fit
    assert!(report
        .verdicts
        .iter()
        .filter(|v| v.mode != "degraded")
        .all(|v| v.feasible()));
    let rendered = report.render();
    assert!(rendered.contains("OVER by"), "render lost the OVER rows");
    assert!(rendered.contains("FITS"), "render lost the FITS rows");
}

#[test]
fn harness_catches_and_shrinks_a_seeded_over_budget_mode_switch() {
    // seed the generator with configs whose degraded budget is forced to
    // one cycle: every sampled scenario violates the joint property, and
    // the harness must shrink the counterexample to the structural minimum
    // (Gen::map drops the shrinker, so re-attach the structural one — the
    // shrink candidates clone the mode list and keep the sabotage)
    let inner = scenario::gens::small();
    let shrinker = scenario::gens::small();
    let sabotaged = prop::Gen::new(move |rng| {
        let mut cfg = inner.sample(rng);
        for mode in &mut cfg.modes {
            if mode.name == "degraded" {
                mode.budget_override = Some(1);
            }
        }
        cfg
    })
    .with_shrink(move |cfg| shrinker.shrink(cfg));
    let pipeline = Pipeline::in_memory();
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        prop::check(
            "over_budget_mode_switch",
            &Config {
                cases: 1,
                max_shrink_evals: 32,
                ..Config::default()
            },
            &sabotaged,
            |cfg| joint_property(&pipeline, cfg),
        );
    }));
    let msg = *result
        .expect_err("the harness must catch the over-budget mode switch")
        .downcast::<String>()
        .expect("harness panics with a String");
    assert!(
        msg.contains("minimal counterexample"),
        "no shrink report in: {msg}"
    );
    assert!(
        msg.contains("replay: TESTKIT_SEED="),
        "no replay incantation in: {msg}"
    );
    assert!(
        msg.contains("budget model unsound") || msg.contains("wcet"),
        "failure is not the budget property: {msg}"
    );
    // greedy shrinking reaches the structural minimum: a single task on a
    // single-frame major cycle (mode list still contains the sabotaged
    // degraded mode, or the property would pass)
    assert!(
        msg.contains("tasks: 1") && msg.contains("minor_frames: 1"),
        "counterexample not minimal: {msg}"
    );
}

#[test]
fn scenario_digest_is_stable_for_a_pinned_seed() {
    // the scenario analog of the golden fleet digest: task generation is
    // keyed per-task (mix(seed, i)), so this pins the whole derivation —
    // census draws, period/offset draws, mode-variant rewrites and unit
    // dedup. If it moves, budgets and every scenario bench shift too.
    let cfg = ScenarioConfig::builder()
        .tasks(6)
        .seed(0x90_1DEA)
        .build()
        .expect("valid config");
    let scn = Scenario::generate(&cfg).expect("generates");
    assert_eq!(
        scn.source_digest().to_string(),
        "4bff255332345ed6e4a82d41f4fde24d",
        "pinned scenario derivation drifted"
    );
}
