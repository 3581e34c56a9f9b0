//! `release_cold` — the paper's release build (§2.1): every unit of a
//! generated flight-control scenario compiled and WCET-analyzed from an
//! empty store at the certification baseline, the verified compiler and
//! the full optimizer, then the schedule checked. Compile- and
//! analyze-bound, 0 % store hits; `opt-full` is the only configuration
//! that runs `strength`, `sched` and `check-sched`.

use std::time::Instant;

use vericomp_arch::MachineConfig;
use vericomp_core::{OptLevel, PassConfig};
use vericomp_minic::ast::Program as SrcProgram;
use vericomp_pipeline::{Pipeline, PipelineOptions};
use vericomp_testkit::rng::mix;

use crate::common::{
    check_sweep_cells, closed_loop, e2e_metrics, generate, nproc, setups, shuffle_units, totals,
    verdict, SweepAgg,
};
use crate::replay::{traced_layers, Observed, ReplayCell};
use crate::trace::Tracer;
use crate::{Outcome, Params, Workload};

const LEVELS: [OptLevel; 3] = [OptLevel::PatternO0, OptLevel::Verified, OptLevel::OptFull];

pub(crate) fn run(params: &Params) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(params.traced);
    // set-up is generation plus lowering to the sweep request, its units
    // in the run's seeded order
    let ((scenario, spec), setup_s) = setups(params, &mut tracer, |tracer| {
        let scenario = generate(tracer, Workload::ReleaseCold, params.tasks, None)?;
        let spec = scenario
            .to_sweep_spec()
            .levels(LEVELS)
            .machine("mpc755", &MachineConfig::mpc755());
        Ok((scenario, shuffle_units(&spec, params.seed)))
    })?;
    let sources: Vec<&SrcProgram> = spec.units().iter().map(|u| &*u.source).collect();
    let cells = spec.cell_count() as u64;
    let options = PipelineOptions::builder()
        .jobs(nproc())
        .build()
        .map_err(|e| e.to_string())?;

    let mut agg = SweepAgg::default();
    let mut first = None;
    let lp = closed_loop(params.seconds, |i| {
        let pipeline = Pipeline::new(&options).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let sweep = pipeline.run_sweep(&spec).map_err(|e| e.to_string())?;
        let report = tracer.time("scenario.check", || scenario.check(&sweep));
        let took = t.elapsed();

        let mut failures = Vec::new();
        if sweep.stats.jobs_run != cells || sweep.stats.jobs_cached != 0 {
            failures.push(format!(
                "expected {cells} fresh cells, got {} run / {} cached",
                sweep.stats.jobs_run, sweep.stats.jobs_cached
            ));
        }
        if !report.feasible() {
            failures.push(format!("{} infeasible frames", report.infeasible_count()));
        }
        let digest = sweep.digest();
        match first {
            None => first = Some((digest, totals(&sweep))),
            Some((d, _)) if d != digest => failures.push("build is not deterministic".into()),
            Some(_) => {}
        }
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
        let replay_cells: Vec<ReplayCell<'_>> = scenario
            .units()
            .iter()
            .flat_map(|u| {
                LEVELS.iter().map(|&level| ReplayCell {
                    node: &u.node,
                    passes: PassConfig::for_level(level),
                })
            })
            .collect();
        let observed = Observed {
            workload: "release_cold",
            seed: params.seed,
            agg: &agg,
            served: None,
            units: spec.units(),
        };
        traced_layers(&replay_cells, &mut tracer, &observed)?
    } else {
        let (wcet, bytes) = first.map_or((0, 0), |(_, t)| t);
        e2e_metrics(&setup_s, &lp, wcet, bytes)
    };
    Ok(Outcome {
        attempted: lp.attempted,
        failed: lp.failed,
        metrics,
    })
}
