//! Incremental-analyzer gate: after mutating one function of a seeded
//! fleet, a warm [`Analyzer`] session must (a) re-derive bounds
//! bit-identical to a from-scratch session on the mutated fleet, and
//! (b) serve every *untouched* function from its fact cache — zero fresh
//! fixpoints, at least one cache replay per unchanged program. A program
//! relinked for another machine is a changed program too: its facts must
//! re-key, or a bound for the wrong memory latency would replay.

use vericomp::core::OptLevel;
use vericomp::harness;
use vericomp::testkit::fleet::{self, FleetConfig};
use vericomp::testkit::prop::{self, Config, Gen};
use vericomp::wcet::{AnalysisRequest, Analyzer, WcetReport};

/// One property case: a seeded fleet plus which member gets mutated.
#[derive(Debug, Clone)]
struct Case {
    seed: u64,
    nodes: usize,
    mutant: usize,
}

fn cases() -> Gen<Case> {
    Gen::new(|rng| {
        let nodes = 2 + (rng.next_u64() % 5) as usize; // 2..=6
        Case {
            seed: rng.next_u64(),
            nodes,
            mutant: (rng.next_u64() % nodes as u64) as usize,
        }
    })
    .with_shrink(|c| {
        let mut out = Vec::new();
        if c.nodes > 2 {
            out.push(Case {
                nodes: c.nodes - 1,
                mutant: c.mutant.min(c.nodes - 2),
                ..*c
            });
        }
        if c.mutant > 0 {
            out.push(Case { mutant: 0, ..*c });
        }
        if c.seed > 0 {
            out.push(Case {
                seed: c.seed / 2,
                ..*c
            });
        }
        out
    })
}

fn generate(seed: u64, nodes: usize) -> Vec<vericomp::dataflow::Node> {
    let cfg = FleetConfig::builder()
        .nodes(nodes)
        .symbols(4, 10)
        .seed(seed)
        .build()
        .expect("valid fleet config");
    fleet::random_fleet(&cfg)
}

fn property(case: &Case) -> Result<(), String> {
    let nodes = generate(case.seed, case.nodes);
    // same positional name, freshly rolled body — "one function changed"
    let donor = generate(case.seed ^ 0x5eed_d1f7, case.nodes);
    let src = |n: &vericomp::dataflow::Node| vericomp::minic::pretty::program_to_c(&n.to_minic());
    let mutated_differs = src(&donor[case.mutant]) != src(&nodes[case.mutant]);

    let compile = |n: &vericomp::dataflow::Node| {
        harness::compile_node(n, OptLevel::Verified).map_err(|e| format!("compile: {e}"))
    };
    let programs: Vec<_> = nodes.iter().map(compile).collect::<Result<_, _>>()?;
    let mut mutated = programs.clone();
    mutated[case.mutant] = compile(&donor[case.mutant])?;

    // cold pass primes the session fact cache with the original fleet
    let session = Analyzer::default();
    for p in &programs {
        session
            .analyze(&AnalysisRequest::new(p, "step"))
            .map_err(|e| format!("cold analyze: {e}"))?;
    }

    // incremental pass over the mutated fleet through the warm session
    let mut incremental: Vec<WcetReport> = Vec::new();
    for (i, p) in mutated.iter().enumerate() {
        let a = session
            .analyze(&AnalysisRequest::new(p, "step"))
            .map_err(|e| format!("incremental analyze: {e}"))?;
        if i != case.mutant {
            if a.functions_analyzed != 0 {
                return Err(format!(
                    "untouched program {i} re-ran {} fixpoints",
                    a.functions_analyzed
                ));
            }
            if a.functions_reused == 0 {
                return Err(format!("untouched program {i} reports no cache reuse"));
            }
        } else if mutated_differs && a.functions_analyzed == 0 {
            return Err("mutated program was served entirely from cache".to_string());
        }
        incremental.push(a.into_report());
    }

    // from-scratch session on the mutated fleet: bounds must be identical
    let fresh = Analyzer::default();
    for (i, p) in mutated.iter().enumerate() {
        let scratch = fresh
            .analyze(&AnalysisRequest::new(p, "step"))
            .map_err(|e| format!("scratch analyze: {e}"))?
            .into_report();
        if scratch != incremental[i] {
            return Err(format!(
                "program {i}: incremental bound diverged from scratch \
                 ({} vs {})",
                incremental[i].wcet, scratch.wcet
            ));
        }
    }
    Ok(())
}

#[test]
fn incremental_reanalysis_matches_from_scratch_bit_exactly() {
    prop::check(
        "analyzer_incremental",
        &Config::with_cases(8).with_regressions("tests/analyzer_incremental.proptest-regressions"),
        &cases(),
        property,
    );
}

#[test]
fn warm_session_replays_an_unchanged_fleet_without_any_fixpoint() {
    let nodes = generate(0xFAC7, 4);
    let session = Analyzer::default();
    let programs: Vec<_> = nodes
        .iter()
        .map(|n| harness::compile_node(n, OptLevel::Verified).expect("compiles"))
        .collect();
    let cold: Vec<_> = programs
        .iter()
        .map(|p| {
            session
                .analyze(&AnalysisRequest::new(p, "step"))
                .expect("analyzes")
        })
        .collect();
    assert!(cold.iter().map(|a| a.functions_analyzed).sum::<u64>() > 0);

    // every warm call is served by the facts the cold calls left behind
    for (p, want) in programs.iter().zip(&cold) {
        let a = session
            .analyze(&AnalysisRequest::new(p, "step"))
            .expect("analyzes");
        assert_eq!(a.functions_analyzed, 0, "warm replay ran a fixpoint");
        assert!(a.functions_reused >= 1);
        assert_eq!(a.report, want.report);
    }
}

#[test]
fn a_changed_machine_rekeys_only_that_programs_facts() {
    let programs: Vec<_> = vericomp::dataflow::fleet::named_suite()
        .iter()
        .map(|n| harness::compile_node(n, OptLevel::Verified).expect("compiles"))
        .collect();
    let session = Analyzer::default();
    for p in &programs {
        session
            .analyze(&AnalysisRequest::new(p, "step"))
            .expect("analyzes");
    }

    // facts computed for one memory latency must never bound another
    let mut relinked = programs[0].clone();
    relinked.config.mem_latency += 1;
    let a = session
        .analyze(&AnalysisRequest::new(&relinked, "step"))
        .expect("analyzes");
    assert!(
        a.functions_analyzed >= 1,
        "a new machine replayed old facts"
    );
    let fresh = Analyzer::default()
        .analyze(&AnalysisRequest::new(&relinked, "step"))
        .expect("analyzes");
    assert_eq!(a.into_report(), fresh.into_report());

    for (i, p) in programs.iter().enumerate().skip(1) {
        let a = session
            .analyze(&AnalysisRequest::new(p, "step"))
            .expect("analyzes");
        assert_eq!(a.functions_analyzed, 0, "program {i} re-ran a fixpoint");
    }
}
