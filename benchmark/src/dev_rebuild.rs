//! `dev_rebuild` — the engineer's edit loop: one control law edited, the
//! whole scenario rebuilt at `verified` the way a new `compile_fleet
//! --cache-dir` process would: a fresh persistent store over the on-disk
//! `.vcart` directory, the spec re-lowered, exactly one recompilation and
//! every other cell decoded from disk, then the schedule re-checked.
//! Exercises hashing, `.vcart` decode, store lookup and the schedule
//! check; barely touches the compiler.

use std::path::Path;
use std::time::Instant;

use vericomp_arch::MachineConfig;
use vericomp_bench::pipeline::dirty_node;
use vericomp_core::{OptLevel, PassConfig};
use vericomp_dataflow::Node;
use vericomp_minic::ast::Program as SrcProgram;
use vericomp_pipeline::{Pipeline, PipelineOptions, SweepSpec, SweepUnit};
use vericomp_testkit::rng::mix;
use vericomp_testkit::scenario::Scenario;

use crate::common::{
    check_sweep_cells, closed_loop, e2e_metrics, generate, nproc, permutation, setups, totals,
    verdict, Scratch, SweepAgg,
};
use crate::replay::{traced_layers, Observed, ReplayCell};
use crate::trace::Tracer;
use crate::{Outcome, Params, Workload};

/// Lowers the scenario to its `verified` sweep, with unit `edit.0`'s
/// body replaced by `edit.1` under the same unit name.
fn lower(scenario: &Scenario, edit: Option<(usize, &Node)>) -> SweepSpec {
    let mut spec = SweepSpec::new();
    for (i, unit) in scenario.units().iter().enumerate() {
        let node = match edit {
            Some((at, node)) if at == i => node,
            _ => &unit.node,
        };
        spec = spec.unit(SweepUnit::from_source(&unit.name, node.to_minic(), "step"));
    }
    spec.level(OptLevel::Verified)
        .machine("mpc755", &MachineConfig::mpc755())
}

fn pipeline_over(dir: &Path) -> Result<Pipeline, String> {
    let options = PipelineOptions::builder()
        .jobs(nproc())
        .cache_dir(dir)
        .build()
        .map_err(|e| e.to_string())?;
    Pipeline::new(&options).map_err(|e| e.to_string())
}

pub(crate) fn run(params: &Params) -> Result<Outcome, String> {
    let scratch = Scratch::new("dev_rebuild")?;
    let mut tracer = Tracer::new(params.traced);
    let dir = scratch.path().join("vcart");
    // set-up is generation, lowering and the cold build into a fresh
    // `.vcart` directory
    let ((scenario, cold), setup_s) = setups(params, &mut tracer, |tracer| {
        let _ = std::fs::remove_dir_all(&dir);
        let scenario = generate(tracer, Workload::DevRebuild, params.tasks, None)?;
        let sweep = pipeline_over(&dir)?
            .run_sweep(&lower(&scenario, None))
            .map_err(|e| e.to_string())?;
        if !scenario.check(&sweep).feasible() {
            return Err("cold build: infeasible schedule".into());
        }
        Ok((scenario, totals(&sweep)))
    })?;
    let units = scenario.units().len();
    // the seed orders the edited units and offsets the edit revisions
    let edit_order = permutation(units, mix(params.seed, 1));
    let first_revision = 1 + mix(params.seed, 2) % 1_000_000;

    let mut agg = SweepAgg::default();
    let lp = closed_loop(params.seconds, |i| {
        let at = edit_order[usize::try_from(i).map_err(|e| e.to_string())? % units];
        let dirty = dirty_node(u32::try_from(first_revision + i).map_err(|e| e.to_string())?);
        let t = Instant::now();
        let pipeline = pipeline_over(&dir)?;
        let spec = lower(&scenario, Some((at, &dirty)));
        let sweep = pipeline.run_sweep(&spec).map_err(|e| e.to_string())?;
        let report = tracer.time("scenario.check", || scenario.check(&sweep));
        let took = t.elapsed();

        let mut failures = Vec::new();
        if sweep.stats.jobs_run != 1 || sweep.stats.jobs_cached != units as u64 - 1 {
            failures.push(format!(
                "expected 1 rebuilt cell, got {} run / {} cached",
                sweep.stats.jobs_run, sweep.stats.jobs_cached
            ));
        }
        if !report.feasible() {
            failures.push(format!("{} infeasible frames", report.infeasible_count()));
        }
        let sources: Vec<&SrcProgram> = spec.units().iter().map(|u| &*u.source).collect();
        failures.extend(check_sweep_cells(
            &sweep,
            &sources,
            mix(params.seed, 100 + i),
        ));
        if params.traced {
            agg.absorb(sweep.trace(), sweep.stats.wall_ns, pipeline.jobs());
        }
        verdict(took, failures)
    });

    let metrics = if params.traced {
        let verified = PassConfig::for_level(OptLevel::Verified);
        let replay_cells: Vec<ReplayCell<'_>> = scenario
            .units()
            .iter()
            .map(|u| ReplayCell {
                node: &u.node,
                passes: verified,
            })
            .collect();
        let spec = lower(&scenario, None);
        let observed = Observed {
            workload: "dev_rebuild",
            seed: params.seed,
            agg: &agg,
            served: None,
            units: spec.units(),
        };
        traced_layers(&replay_cells, &mut tracer, &observed)?
    } else {
        e2e_metrics(&setup_s, &lp, cold.0, cold.1)
    };
    Ok(Outcome {
        attempted: lp.attempted,
        failed: lp.failed,
        metrics,
    })
}
