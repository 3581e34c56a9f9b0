//! Property tests for the metrics histogram: power-of-two bucketing must
//! agree with an exact sorted-reference quantile at every probed `q`,
//! across uniform, skewed and bucket-boundary-heavy distributions.
//!
//! The invariant is exact, not approximate: bucketization is monotone, so
//! the histogram's `quantile(q)` must equal `bucket_upper(bucket_index(x))`
//! where `x` is the rank-selected element of the *sorted raw data* — the
//! histogram may round a value up to its bucket ceiling, but it must land
//! in exactly the bucket the reference element lands in.
//!
//! Failures append their seed to `tests/metrics_hist.proptest-regressions`
//! and replay with `TESTKIT_SEED=<seed> TESTKIT_CASES=1`.

use vericomp::pipeline::{bucket_index, bucket_upper, Histogram, Registry};
use vericomp::testkit::prop::{self, gens, Config, Gen};

/// The exact reference: rank-select the sorted raw observations, then
/// bucket-ceil. `rank = clamp(ceil(q·n), 1, n)`, the same nearest-rank
/// definition the histogram implements over its cumulative counts.
fn reference_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
    #[allow(clippy::cast_possible_truncation)]
    let rank = ((q * sorted.len() as f64).ceil() as u64).clamp(1, sorted.len() as u64);
    let x = sorted[usize::try_from(rank - 1).expect("rank fits usize")];
    bucket_upper(bucket_index(x))
}

/// Observation generators spanning the shapes that stress the bucketing:
/// small uniforms (dense low buckets), full-range u64 (sparse high
/// buckets), and values pinned to bucket boundaries `2^k - 1 | 2^k | 2^k + 1`
/// where an off-by-one in `bucket_index` would flip the answer.
fn observation() -> Gen<u64> {
    let boundary = gens::u32_range(0, 63).map(|k| {
        let base = 1u64 << k;
        match k % 3 {
            0 => base.saturating_sub(1),
            1 => base,
            _ => base.saturating_add(1),
        }
    });
    gens::one_of(vec![
        gens::u32_range(0, 100).map(u64::from),
        gens::any_u64(),
        boundary,
        gens::just(0u64),
        gens::just(u64::MAX),
    ])
}

#[test]
fn histogram_quantiles_match_sorted_reference() {
    let cfg = Config::with_cases(300).with_regressions("tests/metrics_hist.proptest-regressions");
    let gen = gens::vec_of(observation(), 1, 200);
    prop::check(
        "histogram_quantiles_match_sorted_reference",
        &cfg,
        &gen,
        |obs| {
            let mut hist = Histogram::new();
            for &v in obs {
                hist.record(v);
            }
            let mut sorted = obs.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0] {
                let got = hist
                    .quantile(q)
                    .ok_or_else(|| "quantile on non-empty histogram returned None".to_owned())?;
                let want = reference_quantile(&sorted, q);
                if got != want {
                    return Err(format!(
                        "q={q}: histogram said {got}, sorted reference says {want} \
                     (n={}, min={}, max={})",
                        sorted.len(),
                        sorted[0],
                        sorted[sorted.len() - 1],
                    ));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn merge_equals_recording_the_concatenation() {
    let cfg = Config::with_cases(150);
    let gen = gens::pair(
        gens::vec_of(observation(), 0, 80),
        gens::vec_of(observation(), 0, 80),
    );
    prop::check(
        "merge_equals_recording_the_concatenation",
        &cfg,
        &gen,
        |(a, b)| {
            let mut ha = Histogram::new();
            for &v in a {
                ha.record(v);
            }
            let mut hb = Histogram::new();
            for &v in b {
                hb.record(v);
            }
            ha.merge(&hb);
            let mut hc = Histogram::new();
            for &v in a.iter().chain(b) {
                hc.record(v);
            }
            if ha.count() != hc.count() || ha.buckets() != hc.buckets() {
                return Err("merge(a,b) disagrees with record(a++b)".to_owned());
            }
            for q in [0.0, 0.5, 0.99, 1.0] {
                if ha.quantile(q) != hc.quantile(q) {
                    return Err(format!("merged quantile q={q} disagrees with concat"));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn counter_digest_ignores_observed_values_but_not_counts() {
    let cfg = Config::with_cases(100);
    let gen = gens::vec_of(observation(), 1, 60);
    prop::check(
        "counter_digest_ignores_observed_values_but_not_counts",
        &cfg,
        &gen,
        |obs| {
            // same histogram names and counts, wildly different values —
            // the digest hashes identities and counts, never timings
            let a = Registry::new();
            let b = Registry::new();
            for (i, &v) in obs.iter().enumerate() {
                a.observe("request_wall_ns", v);
                b.observe("request_wall_ns", u64::try_from(i).expect("index fits u64"));
            }
            a.incr("requests", 7);
            b.incr("requests", 7);
            if a.counter_digest() != b.counter_digest() {
                return Err("digest depended on observed values".to_owned());
            }
            // ...but one extra observation must change it
            b.observe("request_wall_ns", 0);
            if a.counter_digest() == b.counter_digest() {
                return Err("digest ignored the histogram count".to_owned());
            }
            Ok(())
        },
    );
}
