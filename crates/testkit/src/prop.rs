//! A minimal, hermetic property-testing harness (proptest stand-in).
//!
//! Design goals, in order: **replayability** (every case is derived from a
//! printed `u64` seed), **zero dependencies**, and **useful shrinking** for
//! the shapes this repository actually tests (integers, floats, vectors,
//! and custom ASTs via an explicit shrink function).
//!
//! ```
//! use vericomp_testkit::prop::{check, gens, Config};
//!
//! let pairs = gens::pair(gens::any_i32(), gens::any_i32());
//! check("add_commutes", &Config::with_cases(200), &pairs, |&(a, b)| {
//!     if a.wrapping_add(b) == b.wrapping_add(a) {
//!         Ok(())
//!     } else {
//!         Err("not commutative".into())
//!     }
//! });
//! ```
//!
//! # Conventions
//!
//! * `TESTKIT_CASES=<n>` overrides the per-property case count (scale up
//!   for soak runs, down for smoke runs).
//! * `TESTKIT_SEED=<u64|0xhex>` overrides the base seed. Case 0 runs on
//!   the base seed itself, so `TESTKIT_SEED=<failing seed>
//!   TESTKIT_CASES=1` replays a reported failure exactly.
//! * A property configured with a regression file re-runs every `tc <seed>`
//!   entry before generating novel cases, and appends the failing seed on
//!   any new failure. The parser also ingests proptest's legacy
//!   `.proptest-regressions` format (`cc <hash> # shrinks to …` lines);
//!   those hashes are proptest-internal and not replayable here, so they
//!   are preserved but skipped — the shrunk cases they describe are pinned
//!   as explicit test cases instead (see
//!   `crates/core/tests/folding_differential.rs`).

use std::fmt::Debug;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use crate::rng::{mix, Rng};

/// Configuration of one property run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of novel cases (before `TESTKIT_CASES` override).
    pub cases: u32,
    /// Base seed; case `i` uses the base itself for `i == 0` and a derived
    /// sub-seed for `i > 0`.
    pub seed: u64,
    /// Maximum number of candidate evaluations during shrinking.
    pub max_shrink_evals: u32,
    /// Optional regression-seed file (proptest-regressions compatible).
    pub regressions: Option<PathBuf>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 256,
            seed: 0x5EED_CC20_1101_F11C,
            max_shrink_evals: 4096,
            regressions: None,
        }
    }
}

impl Config {
    /// A config with the given case count and defaults elsewhere.
    #[must_use]
    pub fn with_cases(cases: u32) -> Config {
        Config {
            cases,
            ..Config::default()
        }
    }

    /// Attaches a regression-seed file.
    #[must_use]
    pub fn with_regressions(mut self, path: impl Into<PathBuf>) -> Config {
        self.regressions = Some(path.into());
        self
    }

    fn effective_cases(&self) -> u32 {
        match std::env::var("TESTKIT_CASES") {
            Ok(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("TESTKIT_CASES={v} is not a number")),
            Err(_) => self.cases,
        }
    }

    fn effective_seed(&self) -> u64 {
        match std::env::var("TESTKIT_SEED") {
            Ok(v) => parse_seed(&v).unwrap_or_else(|| panic!("TESTKIT_SEED={v} is not a seed")),
            Err(_) => self.seed,
        }
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// A value generator with an optional shrinker.
///
/// Unlike proptest's integrated value trees, shrinking here operates on the
/// generated *value* — simpler, and sufficient for integers, vectors and
/// explicit AST shrinkers.
pub struct Gen<T> {
    sample: Rc<dyn Fn(&mut Rng) -> T>,
    shrink: Shrinker<T>,
}

/// A shared shrink function: the strictly simpler candidates of a value.
type Shrinker<T> = Rc<dyn Fn(&T) -> Vec<T>>;

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Gen {
            sample: Rc::clone(&self.sample),
            shrink: Rc::clone(&self.shrink),
        }
    }
}

impl<T: 'static> Gen<T> {
    /// A generator from a sampling function (no shrinking).
    pub fn new(f: impl Fn(&mut Rng) -> T + 'static) -> Gen<T> {
        Gen {
            sample: Rc::new(f),
            shrink: Rc::new(|_| Vec::new()),
        }
    }

    /// Attaches a shrink function producing *strictly simpler* candidates.
    #[must_use]
    pub fn with_shrink(self, s: impl Fn(&T) -> Vec<T> + 'static) -> Gen<T> {
        Gen {
            sample: self.sample,
            shrink: Rc::new(s),
        }
    }

    /// Draws one value.
    pub fn sample(&self, rng: &mut Rng) -> T {
        (self.sample)(rng)
    }

    /// Produces shrink candidates for a value.
    pub fn shrink(&self, v: &T) -> Vec<T> {
        (self.shrink)(v)
    }

    /// Maps the generated value (shrinking does not survive a map — attach
    /// a new shrinker with [`Gen::with_shrink`] if needed).
    pub fn map<U: 'static>(self, f: impl Fn(T) -> U + 'static) -> Gen<U> {
        let sample = self.sample;
        Gen::new(move |rng| f((sample)(rng)))
    }
}

/// Ready-made generators.
pub mod gens {
    use super::{shrink, Gen};
    use crate::rng::Rng;

    /// Constant generator.
    pub fn just<T: Clone + 'static>(v: T) -> Gen<T> {
        Gen::new(move |_| v.clone())
    }

    /// Any `i32` (full range), shrinking toward zero.
    pub fn any_i32() -> Gen<i32> {
        Gen::new(|rng| rng.next_u64() as i32).with_shrink(|&v| shrink::int(i64::from(v)))
    }

    /// Any `u32`, shrinking toward zero.
    pub fn any_u32() -> Gen<u32> {
        Gen::new(Rng::next_u32).with_shrink(|&v| shrink::uint(u64::from(v)))
    }

    /// Any `u64`, shrinking toward zero.
    pub fn any_u64() -> Gen<u64> {
        Gen::new(Rng::next_u64).with_shrink(|&v| shrink::uint(v))
    }

    /// Any bit pattern as `f64` — includes NaNs, infinities and subnormals
    /// with realistic probability. Shrinks toward simple finite values.
    pub fn any_f64() -> Gen<f64> {
        Gen::new(|rng| f64::from_bits(rng.next_u64())).with_shrink(|&v| shrink::float(v))
    }

    /// `i32` in `lo..hi`, shrinking toward zero within the range.
    pub fn i32_range(lo: i32, hi: i32) -> Gen<i32> {
        Gen::new(move |rng| rng.gen_range(lo..hi)).with_shrink(move |&v| {
            shrink::int_raw(i64::from(v))
                .into_iter()
                .filter(|&c| (i64::from(lo)..i64::from(hi)).contains(&c))
                .map(|c| c as i32)
                .collect()
        })
    }

    /// `u32` in `lo..hi`, shrinking toward `lo` within the range.
    pub fn u32_range(lo: u32, hi: u32) -> Gen<u32> {
        Gen::new(move |rng| rng.gen_range(lo..hi)).with_shrink(move |&v| {
            shrink::uint_raw(u64::from(v))
                .into_iter()
                .filter(|&c| (u64::from(lo)..u64::from(hi)).contains(&c))
                .map(|c| c as u32)
                .collect()
        })
    }

    /// `u8` in `lo..hi`, shrinking toward `lo` within the range.
    pub fn u8_range(lo: u8, hi: u8) -> Gen<u8> {
        Gen::new(move |rng| rng.gen_range(lo..hi)).with_shrink(move |&v| {
            shrink::uint_raw(u64::from(v))
                .into_iter()
                .filter(|&c| (u64::from(lo)..u64::from(hi)).contains(&c))
                .map(|c| c as u8)
                .collect()
        })
    }

    /// Finite `f64` in `lo..hi` (no shrinking — the range may exclude the
    /// simple values shrinking would steer toward).
    pub fn f64_range(lo: f64, hi: f64) -> Gen<f64> {
        Gen::new(move |rng| rng.gen_range(lo..hi))
    }

    /// Uniform choice among alternatives.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn one_of<T: 'static>(options: Vec<Gen<T>>) -> Gen<T> {
        assert!(!options.is_empty(), "one_of needs at least one option");
        let shrinks: Vec<Gen<T>> = options.clone();
        Gen::new(move |rng| {
            let i = rng.gen_range(0..options.len());
            options[i].sample(rng)
        })
        .with_shrink(move |v| {
            // union of the alternatives' shrinkers: candidates not derived
            // from v's actual alternative are harmless extras, because the
            // runner re-checks every candidate against the property
            shrinks.iter().flat_map(|g| g.shrink(v)).collect()
        })
    }

    /// A vector of `len_lo..len_hi` elements. Shrinks by removing chunks
    /// and elements (never below `len_lo`), then element-wise.
    ///
    /// # Panics
    ///
    /// Panics on an empty length range.
    pub fn vec_of<T: Clone + 'static>(elem: Gen<T>, len_lo: usize, len_hi: usize) -> Gen<Vec<T>> {
        assert!(len_lo < len_hi, "empty length range");
        let e = elem.clone();
        Gen::new(move |rng| {
            let n = rng.gen_range(len_lo..len_hi);
            (0..n).map(|_| e.sample(rng)).collect()
        })
        .with_shrink(move |v: &Vec<T>| shrink::vec(v, len_lo, &|x| elem.shrink(x)))
    }

    /// Pairs two generators; shrinks each side independently.
    pub fn pair<A: Clone + 'static, B: Clone + 'static>(a: Gen<A>, b: Gen<B>) -> Gen<(A, B)> {
        let (sa, sb) = (a.clone(), b.clone());
        Gen::new(move |rng| (a.sample(rng), b.sample(rng))).with_shrink(move |(x, y)| {
            let mut out: Vec<(A, B)> = sa.shrink(x).into_iter().map(|x2| (x2, y.clone())).collect();
            out.extend(sb.shrink(y).into_iter().map(|y2| (x.clone(), y2)));
            out
        })
    }

    /// Recursive generator: `depth` levels where each inner level picks the
    /// leaf or one more application of `branch` — the `prop_recursive`
    /// analog.
    pub fn recursive<T: 'static>(
        leaf: Gen<T>,
        depth: u32,
        branch: impl Fn(Gen<T>) -> Gen<T>,
    ) -> Gen<T> {
        let mut g = leaf.clone();
        for _ in 0..depth {
            let inner = branch(g);
            g = one_of(vec![leaf.clone(), inner]);
        }
        g
    }
}

/// Value-level shrink candidate producers.
pub mod shrink {
    /// Signed integers toward zero: the zero itself, halving, the
    /// off-by-one step, and the sign flip for negatives. Ordered most
    /// aggressive first — the greedy runner takes the first candidate that
    /// still fails, so ordering is what makes shrinking converge fast.
    #[must_use]
    pub fn int_raw(v: i64) -> Vec<i64> {
        let mut out: Vec<i64> = Vec::new();
        if v != 0 {
            out.push(0);
            out.push(v / 2);
            if v < 0 {
                out.push(-v); // prefer positive counterexamples
            }
            out.push(v - v.signum());
        }
        let mut seen: Vec<i64> = Vec::new();
        out.retain(|&c| {
            let fresh = c != v && !seen.contains(&c);
            seen.push(c);
            fresh
        });
        out
    }

    /// [`int_raw`] converted into any narrower integer type.
    #[must_use]
    pub fn int<T: TryFrom<i64>>(v: i64) -> Vec<T> {
        int_raw(v)
            .into_iter()
            .filter_map(|c| T::try_from(c).ok())
            .collect()
    }

    /// Unsigned integers toward zero, most aggressive candidates first.
    #[must_use]
    pub fn uint_raw(v: u64) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        if v != 0 {
            out.push(0);
            out.push(v / 2);
            out.push(v - 1);
        }
        let mut seen: Vec<u64> = Vec::new();
        out.retain(|&c| {
            let fresh = c != v && !seen.contains(&c);
            seen.push(c);
            fresh
        });
        out
    }

    /// [`uint_raw`] converted into any narrower integer type.
    #[must_use]
    pub fn uint<T: TryFrom<u64>>(v: u64) -> Vec<T> {
        uint_raw(v)
            .into_iter()
            .filter_map(|c| T::try_from(c).ok())
            .collect()
    }

    /// Floats toward simple finite values.
    #[must_use]
    pub fn float(v: f64) -> Vec<f64> {
        if v == 0.0 {
            return Vec::new();
        }
        let mut out = vec![0.0, 1.0, -1.0];
        if v.is_finite() {
            out.push(v / 2.0);
            out.push(v.trunc());
        }
        out.retain(|&c| c.to_bits() != v.to_bits());
        out.dedup_by(|a, b| a.to_bits() == b.to_bits());
        out
    }

    /// Vectors: drop the back half, drop single elements, shrink elements
    /// in place — never shrinking below `min_len`.
    #[must_use]
    pub fn vec<T: Clone>(v: &[T], min_len: usize, elem: &dyn Fn(&T) -> Vec<T>) -> Vec<Vec<T>> {
        let mut out: Vec<Vec<T>> = Vec::new();
        if v.len() > min_len {
            let half = (v.len() / 2).max(min_len);
            if half < v.len() {
                out.push(v[..half].to_vec());
            }
            // drop each element in turn (bounded for long vectors)
            for i in 0..v.len().min(16) {
                let mut w = v.to_vec();
                w.remove(i);
                if w.len() >= min_len {
                    out.push(w);
                }
            }
        }
        // shrink each element in place (bounded)
        for i in 0..v.len().min(16) {
            for cand in elem(&v[i]) {
                let mut w = v.to_vec();
                w[i] = cand;
                out.push(w);
            }
        }
        out
    }
}

/// A parsed regression file (compatible with proptest's format).
#[derive(Debug, Default, Clone)]
pub struct Regressions {
    /// Replayable testkit seeds (`tc <seed>` lines).
    pub seeds: Vec<u64>,
    /// Count of legacy proptest `cc <hash>` entries (not replayable here).
    pub legacy: usize,
}

impl Regressions {
    /// Parses the file content; unknown lines are ignored.
    #[must_use]
    pub fn parse(text: &str) -> Regressions {
        let mut r = Regressions::default();
        for line in text.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("tc ") {
                let token = rest.split_whitespace().next().unwrap_or("");
                if let Some(seed) = parse_seed(token) {
                    r.seeds.push(seed);
                }
            } else if line.starts_with("cc ") {
                r.legacy += 1;
            }
        }
        r
    }

    /// Loads a regression file, tolerating absence.
    #[must_use]
    pub fn load(path: &Path) -> Regressions {
        match fs::read_to_string(path) {
            Ok(text) => Regressions::parse(&text),
            Err(_) => Regressions::default(),
        }
    }
}

fn append_regression(path: &Path, seed: u64, name: &str) {
    let header = "\
# Seeds for failure cases the testkit property harness has found in the\n\
# past. `tc <seed>` entries are re-run before any novel cases; legacy\n\
# proptest `cc <hash>` entries are preserved but not replayable. Check\n\
# this file in to source control.\n";
    let exists = path.exists();
    let res = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| {
            if !exists {
                f.write_all(header.as_bytes())?;
            }
            writeln!(f, "tc 0x{seed:016x} # {name}")
        });
    if let Err(e) = res {
        eprintln!("testkit: could not record regression seed in {path:?}: {e}");
    }
}

/// Runs a property over generated cases; panics with a replayable seed on
/// the first (shrunk) counterexample.
///
/// # Panics
///
/// Panics when the property fails; the message contains the case seed, the
/// original and shrunk counterexamples, and replay instructions.
pub fn check<T: Debug + 'static>(
    name: &str,
    cfg: &Config,
    gen: &Gen<T>,
    prop: impl Fn(&T) -> Result<(), String>,
) {
    let cases = cfg.effective_cases();
    let base = cfg.effective_seed();

    // regression seeds first — exactly proptest's discipline
    if let Some(path) = &cfg.regressions {
        let reg = Regressions::load(path);
        for &seed in &reg.seeds {
            run_one(name, cfg, gen, &prop, seed, None, "regression");
        }
    }

    for i in 0..cases {
        // case 0 runs the base seed itself, so TESTKIT_SEED=<reported>
        // TESTKIT_CASES=1 is an exact replay
        let case_seed = if i == 0 {
            base
        } else {
            mix(base, u64::from(i))
        };
        run_one(
            name,
            cfg,
            gen,
            &prop,
            case_seed,
            cfg.regressions.as_deref(),
            "case",
        );
    }
}

/// Re-runs the single case derived from `case_seed` (the replay entry
/// point: this is what a printed failure seed reproduces).
pub fn replay<T: Debug + 'static>(
    name: &str,
    cfg: &Config,
    gen: &Gen<T>,
    prop: impl Fn(&T) -> Result<(), String>,
    case_seed: u64,
) {
    run_one(name, cfg, gen, &prop, case_seed, None, "replay");
}

fn run_one<T: Debug + 'static>(
    name: &str,
    cfg: &Config,
    gen: &Gen<T>,
    prop: &impl Fn(&T) -> Result<(), String>,
    case_seed: u64,
    record: Option<&Path>,
    kind: &str,
) {
    let mut rng = Rng::seed_from_u64(case_seed);
    let value = gen.sample(&mut rng);
    let Err(err) = prop(&value) else { return };

    // greedy shrink: take the first failing candidate, repeat
    let mut current = value;
    let mut current_err = err;
    let mut evals = 0u32;
    'outer: while evals < cfg.max_shrink_evals {
        for cand in gen.shrink(&current) {
            evals += 1;
            if evals >= cfg.max_shrink_evals {
                break 'outer;
            }
            if let Err(e) = prop(&cand) {
                current = cand;
                current_err = e;
                continue 'outer;
            }
        }
        break;
    }

    if let Some(path) = record {
        append_regression(path, case_seed, name);
    }
    panic!(
        "property `{name}` failed on {kind} seed 0x{case_seed:016x}\n\
         minimal counterexample (after {evals} shrink evals): {current:?}\n\
         error: {current_err}\n\
         replay: TESTKIT_SEED=0x{case_seed:016x} TESTKIT_CASES=1 cargo test …"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let n = std::cell::Cell::new(0u32);
        let cfg = Config::with_cases(50);
        check("count", &cfg, &gens::any_u32(), |_| {
            n.set(n.get() + 1);
            Ok(())
        });
        assert_eq!(n.get(), cfg.effective_cases());
    }

    #[test]
    fn failing_property_shrinks_to_minimal_int() {
        let res = std::panic::catch_unwind(|| {
            let cfg = Config::with_cases(200);
            check("ge100", &cfg, &gens::any_i32(), |&v| {
                if v.unsigned_abs() < 100 {
                    Ok(())
                } else {
                    Err(format!("|{v}| >= 100"))
                }
            });
        });
        let msg = *res.expect_err("must fail").downcast::<String>().unwrap();
        // greedy halving toward zero lands exactly on the boundary
        assert!(
            msg.contains("counterexample") && (msg.contains(": 100") || msg.contains(": -100")),
            "unexpected shrink result: {msg}"
        );
    }

    #[test]
    fn vec_shrinking_reaches_small_witness() {
        let res = std::panic::catch_unwind(|| {
            let cfg = Config::with_cases(100);
            let gen = gens::vec_of(gens::u32_range(0, 1000), 1, 50);
            check("no_big_elem", &cfg, &gen, |v| {
                if v.iter().all(|&x| x < 900) {
                    Ok(())
                } else {
                    Err("contains big element".into())
                }
            });
        });
        let msg = *res.expect_err("must fail").downcast::<String>().unwrap();
        // a minimal witness is a single element at the boundary
        assert!(msg.contains("[900]"), "not shrunk to [900]: {msg}");
    }

    #[test]
    fn replay_reproduces_case_deterministically() {
        // find a failing seed, then verify replay reports exactly it
        let mut failing = None;
        for i in 0..64 {
            let seed = mix(1234, i);
            let v = gens::any_u64().sample(&mut Rng::seed_from_u64(seed));
            if v.is_multiple_of(3) {
                failing = Some((seed, v));
                break;
            }
        }
        let (seed, v) = failing.expect("a third of seeds fail");
        let res = std::panic::catch_unwind(move || {
            replay(
                "mod3",
                &Config::default(),
                &gens::any_u64(),
                |&x| {
                    if x % 3 == 0 {
                        Err(format!("{x} divisible"))
                    } else {
                        Ok(())
                    }
                },
                seed,
            );
        });
        let msg = *res.expect_err("must fail").downcast::<String>().unwrap();
        assert!(msg.contains(&format!("0x{seed:016x}")), "{msg}");
        // the original (pre-shrink) value comes from the same stream
        let again = gens::any_u64().sample(&mut Rng::seed_from_u64(seed));
        assert_eq!(v, again);
    }

    #[test]
    fn regression_file_roundtrip_and_legacy_ingestion() {
        let text = "# comment\n\
                    cc a398267d86bbba07 # shrinks to e = …\n\
                    tc 0x00000000000000ff # float_folding\n\
                    tc 42 # decimal form\n";
        let r = Regressions::parse(text);
        assert_eq!(r.legacy, 1);
        assert_eq!(r.seeds, vec![0xff, 42]);
    }

    #[test]
    fn failures_append_to_regression_file() {
        let dir = std::env::temp_dir().join("vericomp-testkit-prop-test");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join(format!("reg-{}.txt", std::process::id()));
        let _ = fs::remove_file(&path);
        let res = std::panic::catch_unwind({
            let path = path.clone();
            move || {
                let cfg = Config::with_cases(5).with_regressions(path);
                check("always_fails", &cfg, &gens::any_u32(), |_| Err("no".into()));
            }
        });
        assert!(res.is_err());
        let reg = Regressions::load(&path);
        assert_eq!(reg.seeds.len(), 1, "one seed recorded");
        let _ = fs::remove_file(&path);
    }
}
