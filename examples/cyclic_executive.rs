//! The whole flight-control application in one image: the 26-node suite
//! linked behind a generated cyclic-executive `step`, compiled
//! WCET-driven (paper §4 / WCC-style: each optimization is kept only if
//! the analyzer proves it beneficial) by the pipeline's lattice search
//! seeded with `wcet_driven_candidates` — each generation's probes compile
//! and analyze concurrently, each cached content-addressed in
//! `target/vericomp-cache/`, so a rerun replays the stored validator
//! verdicts instead of recompiling.
//!
//! ```sh
//! cargo run --release --example cyclic_executive
//! ```

use vericomp::dataflow::{fleet, Application};
use vericomp::mach::Simulator;
use vericomp::pipeline::{wcet_driven_candidates, Pipeline, PipelineOptions, SearchSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = Application::new("fcs", fleet::named_suite())?;
    let src = app.to_minic()?;
    println!(
        "application: {} nodes, {} globals, {} functions",
        app.nodes().len(),
        src.globals.len(),
        src.functions.len()
    );

    // WCET-driven compilation on the pipeline: each generation's probes
    // evaluated concurrently, artifacts cached after validator acceptance
    let pipeline = Pipeline::new(&PipelineOptions {
        cache_dir: Some(PipelineOptions::default_cache_dir()),
        ..PipelineOptions::default()
    })?;
    let mut spec = SearchSpec::new().application(&app)?;
    for (name, passes) in wcet_driven_candidates() {
        spec = spec.seed(name, &passes);
    }
    let result = pipeline.search_wcet(&spec)?;
    let search = &result.nodes[0];
    println!("\nWCET-driven lattice search (seed frontier first):");
    for p in &search.probed {
        let marker = if p.wcet == search.winner.wcet {
            "  <- winner"
        } else {
            ""
        };
        println!("  {:<28} WCET {:>7}{marker}", p.label, p.wcet);
    }
    println!(
        "search: {} probes over {} generations, {} flags dominance-pruned, {:.1}% cache hits",
        search.probes(),
        search.generations,
        search.pruned.len(),
        search.hit_rate() * 100.0,
    );
    for d in &search.pruned {
        println!(
            "search: pruned `{}` after generation {} ({} contexts, never reduced the bound)",
            d.flag, d.generation, d.trials
        );
    }
    println!("{}", result.stats.render());

    // where the build's time went, stage by stage and pass by pass
    // (the full span trace is also exportable: `result.trace().to_chrome_json()`)
    println!();
    print!("{}", result.trace().profile().render());

    let binary = search.artifact.program.clone();
    let report = &search.artifact.report;
    println!(
        "\nchosen image: {} bytes of code, cycle WCET {}, {} ({})",
        binary.text_size(),
        report.wcet,
        search.artifact.verdict.describe(),
        if result.stats.jobs_cached > 0 {
            "replayed from cache"
        } else {
            "validated this run"
        },
    );

    println!("\nper-node WCET decomposition (callee bounds):");
    let mut callees: Vec<_> = report.callees.iter().collect();
    callees.sort_by_key(|(_, w)| std::cmp::Reverse(**w));
    for (name, wcet) in callees {
        println!("  {:<32} {:>7} cycles", name, wcet);
    }

    // one full scheduling cycle on the simulator
    let mut sim = Simulator::new(binary);
    for port in 0..8 {
        sim.set_io_f64(port, 1.0 + f64::from(port));
    }
    let out = sim.run(100_000_000)?;
    println!(
        "\none cold activation: {} instructions, {} cycles (bound {}, slack {:.1}%)",
        out.stats.instructions,
        out.stats.cycles,
        report.wcet,
        100.0 * (report.wcet as f64 / out.stats.cycles as f64 - 1.0)
    );
    assert!(report.wcet >= out.stats.cycles);
    Ok(())
}
