//! `wcet_search` — WCET-driven configuration selection (paper §4):
//! `Pipeline::search_wcet` over the nominal units of a scenario, a fresh
//! pipeline per search. Covers all nine lattice flags, many
//! near-identical programs for the analyzer's fact cache, and one pool
//! barrier per search generation.

use std::collections::HashMap;
use std::time::Instant;

use vericomp_core::PassConfig;
use vericomp_pipeline::{Digest, Pipeline, PipelineOptions, SearchSpec, SweepUnit};
use vericomp_testkit::rng::mix;
use vericomp_testkit::scenario::{ModeKind, ModeSpec};

use crate::checks::interp_matches_sim;
use crate::common::{
    closed_loop, e2e_metrics, generate, nproc, permutation, sample_indices, setups, verdict,
    SweepAgg, CHECKED_CELLS,
};
use crate::replay::{traced_layers, Observed, ReplayCell};
use crate::trace::Tracer;
use crate::{Outcome, Params, Workload};

/// What the run keeps of its first search.
struct FirstSearch {
    /// The later searches must reproduce it.
    digest: Digest,
    /// Summed winner WCET bounds and code bytes.
    totals: (u64, u64),
    /// Every probed `(unit index, passes)`, the traced replay's cells.
    probed: Vec<(usize, PassConfig)>,
}

pub(crate) fn run(params: &Params) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(params.traced);
    // set-up is generation of a nominal-mode scenario plus lowering, its
    // units in the run's seeded order
    let ((scenario, order, units), setup_s) = setups(params, &mut tracer, |tracer| {
        let nominal = vec![ModeSpec::new("nominal", ModeKind::Nominal)];
        let scenario = generate(tracer, Workload::WcetSearch, params.tasks, Some(nominal))?;
        let lowered = scenario.to_sweep_spec();
        let order = permutation(lowered.units().len(), params.seed);
        let units: Vec<SweepUnit> = order.iter().map(|&i| lowered.units()[i].clone()).collect();
        Ok((scenario, order, units))
    })?;
    let mut spec = SearchSpec::new();
    for unit in &units {
        spec = spec.unit(unit.clone());
    }
    let options = PipelineOptions::builder()
        .jobs(nproc())
        .build()
        .map_err(|e| e.to_string())?;
    let configs = ["search".to_owned()];
    let machines = ["default".to_owned()];

    let mut agg = SweepAgg::default();
    let mut first: Option<FirstSearch> = None;
    let lp = closed_loop(params.seconds, |i| {
        let pipeline = Pipeline::new(&options).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let result = pipeline.search_wcet(&spec).map_err(|e| e.to_string())?;
        let winners: HashMap<&str, u64> = result
            .nodes
            .iter()
            .map(|n| (n.unit.as_str(), n.winner.wcet))
            .collect();
        let report = tracer.time("scenario.check", || {
            scenario.check_bounds(&configs, &machines, |u, _, _| winners.get(u).copied())
        });
        let took = t.elapsed();

        let mut failures = Vec::new();
        if !report.feasible() {
            failures.push(format!("{} infeasible frames", report.infeasible_count()));
        }
        for n in &result.nodes {
            let seeds = n
                .probed
                .iter()
                .filter(|p| p.generation == 0)
                .map(|p| p.wcet);
            if !n.winner.passes.validators || seeds.min().is_some_and(|s| n.winner.wcet > s) {
                failures.push(format!(
                    "{}: winner unvalidated or worse than a seed",
                    n.unit
                ));
            }
        }
        let digest = result.digest();
        match &first {
            None => {
                let totals = result.nodes.iter().fold((0, 0), |(w, b), n| {
                    (
                        w + n.winner.wcet,
                        b + n.artifact.program.code.len() as u64 * 4,
                    )
                });
                let probed = result
                    .nodes
                    .iter()
                    .enumerate()
                    .flat_map(|(j, n)| n.probed.iter().map(move |p| (j, p.passes)))
                    .collect();
                first = Some(FirstSearch {
                    digest,
                    totals,
                    probed,
                });
            }
            Some(f) if f.digest != digest => failures.push("search is not deterministic".into()),
            Some(_) => {}
        }
        for j in sample_indices(result.nodes.len(), CHECKED_CELLS, mix(params.seed, 100 + i)) {
            let n = &result.nodes[j];
            if let Err(e) =
                interp_matches_sim(&units[j].source, &n.artifact, mix(params.seed, j as u64))
            {
                failures.push(format!("{}: {e}", n.unit));
            }
        }
        if params.traced {
            agg.absorb(result.trace(), result.stats.wall_ns, pipeline.jobs());
        }
        verdict(took, failures)
    });

    let (totals, probed) = first.map(|f| (f.totals, f.probed)).unwrap_or_default();
    let metrics = if params.traced {
        let replay_cells: Vec<ReplayCell<'_>> = probed
            .iter()
            .map(|&(j, passes)| ReplayCell {
                node: &scenario.units()[order[j]].node,
                passes,
            })
            .collect();
        let observed = Observed {
            workload: "wcet_search",
            seed: params.seed,
            agg: &agg,
            served: None,
            units: &units,
        };
        traced_layers(&replay_cells, &mut tracer, &observed)?
    } else {
        e2e_metrics(&setup_s, &lp, totals.0, totals.1)
    };
    Ok(Outcome {
        attempted: lp.attempted,
        failed: lp.failed,
        metrics,
    })
}
