//! A `CompileSession` against fresh compiles: over every lattice point
//! with the validators on, plus the four presets with them off, on two
//! machines, each session result must equal `compile_with_passes_observed`
//! of the same cell — binary words, annotation table, the whole program and
//! any error (the fuzz oracle's `sharing` check) — and each shared pass
//! must run once per distinct key.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use vericomp_arch::{MachineConfig, Program};
use vericomp_core::{
    CompileError, CompileSession, Compiler, OptLevel, PassConfig, PassObserver, PASS_NAMES,
};
use vericomp_dataflow::{fleet, Application};
use vericomp_minic::ast::Program as SrcProgram;
use vericomp_testkit::oracle::sharing_mismatch;
use vericomp_testkit::rng::Rng;

/// Nodes of the named suite the test covers.
const NODES: usize = 2;
/// Threads compiling one session's cells concurrently.
const THREADS: usize = 2;

/// How many times an observer saw each pass name.
#[derive(Default)]
struct Counts(BTreeMap<&'static str, u64>);

impl PassObserver for Counts {
    fn pass(&mut self, name: &'static str, _start: Duration, _took: Duration) {
        *self.0.entry(name).or_default() += 1;
    }
}

impl Counts {
    fn of(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    fn absorb(&mut self, other: Counts) {
        for (name, n) in other.0 {
            *self.0.entry(name).or_default() += n;
        }
    }
}

/// The 512 points of the nine-flag lattice with the validators on, then
/// the four presets with them off.
fn configs() -> Vec<PassConfig> {
    let mut configs: Vec<PassConfig> = (0..512u32)
        .map(|bits| {
            let flags = std::array::from_fn(|i| i == 9 || bits >> i & 1 == 1);
            PassConfig::from_flags(flags)
        })
        .collect();
    configs.extend(OptLevel::all().map(|level| PassConfig {
        validators: false,
        ..PassConfig::for_level(level)
    }));
    configs
}

fn machines() -> [MachineConfig; 2] {
    let mut slow_mem = MachineConfig::mpc755();
    slow_mem.mem_latency *= 4;
    [MachineConfig::mpc755(), slow_mem]
}

type Cell = (PassConfig, MachineConfig);
type Compiled = Result<Program, CompileError>;

/// What [`compile_both`] returns: per cell, in cell order, the session's
/// and the fresh compile's result, then the pass counts of each side.
type Both = (Vec<(Compiled, Compiled)>, Counts, Counts);

/// Compiles every cell through one session and afresh. The session takes
/// the cells in a seeded shuffled order, shared out to `THREADS` threads.
fn compile_both(prog: &Arc<SrcProgram>, entry: &str, cells: &[Cell]) -> Both {
    let passes: Vec<PassConfig> = cells.iter().map(|(p, _)| *p).collect();
    let session = CompileSession::new(Arc::clone(prog), entry, &passes);
    let mut order: Vec<usize> = (0..cells.len()).collect();
    let mut rng = Rng::seed_from_u64(0x5E55_1011 ^ cells.len() as u64);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let next = AtomicUsize::new(0);
    let results = Mutex::new(vec![None; cells.len()]);
    let counts = Mutex::new((Counts::default(), Counts::default()));
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                let (mut shared_counts, mut fresh_counts) = (Counts::default(), Counts::default());
                while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let (passes, machine) = &cells[i];
                    let shared = session.compile(passes, machine, &mut shared_counts);
                    let fresh = Compiler::with_config(OptLevel::Verified, machine.clone())
                        .compile_with_passes_observed(prog, entry, passes, &mut fresh_counts);
                    results.lock().expect("results")[i] = Some((shared, fresh));
                }
                let mut totals = counts.lock().expect("counts");
                totals.0.absorb(shared_counts);
                totals.1.absorb(fresh_counts);
            });
        }
    });
    let results = results.into_inner().expect("results");
    let (shared_counts, fresh_counts) = counts.into_inner().expect("counts");
    (
        results
            .into_iter()
            .map(|r| r.expect("every cell ran"))
            .collect(),
        shared_counts,
        fresh_counts,
    )
}

/// How often each pass of the shared chain runs in a session over
/// `cells`: once per function and distinct key, the key being the flags
/// that gate the pass and every earlier one (`tunnel` shares its
/// validator's key).
fn expected_shared_counts(cells: &[Cell], functions: u64) -> BTreeMap<&'static str, u64> {
    let gated = [
        ("lower", None, 0),
        ("mem2reg", Some(0), 1),
        ("constprop", Some(1), 2),
        ("cse", Some(2), 3),
        ("strength", Some(3), 4),
        ("dce", Some(4), 5),
        ("tunnel", Some(5), 7),
        ("check-tunnel", Some(6), 7),
        ("regalloc", None, 8),
        ("check-alloc", None, 8),
    ];
    gated
        .iter()
        .map(|&(name, gate, key_len)| {
            let mut keys: Vec<Vec<bool>> = cells
                .iter()
                .map(|(p, _)| {
                    [
                        p.mem2reg,
                        p.constprop,
                        p.cse,
                        p.strength,
                        p.dce,
                        p.tunnel,
                        p.tunnel && p.validators,
                        p.full_palette,
                    ]
                })
                .filter(|flags| gate.is_none_or(|g| flags[g]))
                .map(|flags| flags[..key_len].to_vec())
                .collect();
            keys.sort();
            keys.dedup();
            (name, keys.len() as u64 * functions)
        })
        .collect()
}

/// Checks every cell of one program: the session's result equals the
/// fresh one, each shared pass ran once per function and key, and the
/// per-cell passes ran in every call. Returns how many cells compiled.
fn check_program(prog: &SrcProgram, entry: &str, cells: &[Cell], what: &str) -> usize {
    let prog = Arc::new(prog.clone());
    let (results, shared_counts, fresh_counts) = compile_both(&prog, entry, cells);
    for ((passes, _), (shared, fresh)) in cells.iter().zip(&results) {
        if let Some(detail) = sharing_mismatch(shared, fresh) {
            panic!("{what}: {passes:?}: {detail}");
        }
    }
    let functions = prog.functions.len() as u64;
    for (name, expected) in expected_shared_counts(cells, functions) {
        assert_eq!(shared_counts.of(name), expected, "{what}: `{name}` runs");
    }
    for name in ["emit", "sched", "check-sched", "link"] {
        assert_eq!(
            shared_counts.of(name),
            fresh_counts.of(name),
            "{what}: `{name}` runs"
        );
    }
    assert!(shared_counts.0.keys().all(|name| PASS_NAMES.contains(name)));
    results.iter().filter(|(_, fresh)| fresh.is_ok()).count()
}

#[test]
fn session_matches_fresh_compiles_and_runs_each_shared_pass_once() {
    let cells: Vec<Cell> = configs()
        .into_iter()
        .flat_map(|p| machines().map(move |m| (p, m)))
        .collect();
    assert_eq!(cells.len(), 516 * 2);
    for node in fleet::named_suite().iter().take(NODES) {
        let compiled = check_program(&node.to_minic(), node.step_name(), &cells, node.name());
        assert_eq!(compiled, cells.len(), "{}", node.name());
    }
}

/// A linked application has a function per node, so the session keeps
/// one state per function at each branch point; a missing entry fails
/// every cell in `link`, after the shared passes ran.
#[test]
fn a_linked_application_and_a_missing_entry_match_fresh_compiles() {
    let app = Application::new(
        "fcs-slice",
        fleet::named_suite().into_iter().take(3).collect(),
    )
    .expect("links");
    let prog = app.to_minic().expect("links");
    assert!(prog.functions.len() > 3);
    let cells: Vec<Cell> = OptLevel::all()
        .into_iter()
        .flat_map(|level| {
            [true, false].map(|validators| PassConfig {
                validators,
                ..PassConfig::for_level(level)
            })
        })
        .flat_map(|p| machines().map(move |m| (p, m)))
        .collect();
    let compiled = check_program(&prog, app.step_name(), &cells, app.name());
    assert_eq!(compiled, cells.len());
    assert_eq!(
        check_program(&prog, "no_such_entry", &cells, "no_such_entry"),
        0
    );
    let missing = Compiler::new(OptLevel::Verified).compile(&prog, "no_such_entry");
    assert!(matches!(missing, Err(CompileError::Link(_))), "{missing:?}");
}
