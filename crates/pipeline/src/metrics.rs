//! Std-only metrics registry: counters and power-of-two-bucket latency
//! histograms for the long-lived compile service.
//!
//! [`Profile`](crate::trace::Profile) aggregates one finished run;
//! [`Registry`] accumulates *across* runs — the daemon keeps one for its
//! whole lifetime and serves it over the `metrics` admin request. The
//! same discipline separates what is and is not deterministic:
//!
//! * **Counters** count work (requests, compiled cells, cache hits).
//!   For a fixed workload they are a pure function of the requests
//!   served, so [`Registry::counter_digest`] hashes them.
//! * **Histograms** bucket observations by power of two. Bucket
//!   *contents* encode timings and are excluded; the total observation
//!   *count* per histogram is work, and is hashed.
//!
//! Rendering is deterministic: the single-line JSON object lists both
//! maps in sorted [`BTreeMap`] order.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::hash::{Digest, Hasher};

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i`
/// (1 ≤ i ≤ 64) holds values in `[2^(i-1), 2^i - 1]`.
pub const HIST_BUCKETS: usize = 65;

/// The bucket index a value lands in: 0 for 0, else the position of the
/// value's highest set bit plus one (so bucket `i` covers
/// `[2^(i-1), 2^i - 1]`; bucket 64 tops out at `u64::MAX`).
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The largest value bucket `i` can hold — the value a quantile query
/// reports for any observation in the bucket (an upper bound, never an
/// underestimate).
#[must_use]
pub fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// A power-of-two-bucket histogram of `u64` observations (latencies in
/// nanoseconds, sweep sizes, frame bytes). Fixed 65 buckets, no
/// allocation per observation, ~1.5 bits of relative precision — enough
/// to tell a 2 ms p99 from a 200 ms one.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The per-bucket counts.
    #[must_use]
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// The `q`-quantile (0 < q ≤ 1) as a bucket upper bound: the value
    /// reported for the observation of rank `max(1, ceil(q·count))` in
    /// sorted order. Exact in rank — only the value is rounded up to its
    /// bucket boundary, so the estimate never understates the true
    /// quantile. `None` on an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_upper(i));
            }
        }
        Some(u64::MAX)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// The registry: named counters and histograms behind one coarse mutex
/// each. Registration is implicit — the first `incr` / `observe` of a
/// name creates it — and iteration order is the sorted name order, so
/// two registries fed the same updates render identically regardless of
/// arrival interleaving of *distinct* names.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `by` to the named counter (creating it at 0).
    pub fn incr(&self, name: &str, by: u64) {
        let mut m = self.counters.lock().expect("metrics lock");
        *m.entry(name.to_owned()).or_insert(0) += by;
    }

    /// Current value of the named counter, 0 when absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("metrics lock")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, name: &str, v: u64) {
        let mut m = self.histograms.lock().expect("metrics lock");
        m.entry(name.to_owned()).or_default().record(v);
    }

    /// A snapshot clone of the named histogram, if it exists.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.histograms
            .lock()
            .expect("metrics lock")
            .get(name)
            .cloned()
    }

    /// The `q`-quantile of the named histogram (`None` when the
    /// histogram is absent or empty).
    #[must_use]
    pub fn quantile(&self, name: &str, q: f64) -> Option<u64> {
        self.histograms
            .lock()
            .expect("metrics lock")
            .get(name)
            .and_then(|h| h.quantile(q))
    }

    /// Digest of the deterministic subset: counter (name, value) pairs
    /// and histogram (name, observation count) pairs, in sorted name
    /// order. Bucket contents are timing-dependent and are excluded —
    /// the same rule as [`Profile::counter_digest`]
    /// (crate::trace::Profile::counter_digest): identities and counts,
    /// never timings.
    #[must_use]
    pub fn counter_digest(&self) -> Digest {
        let mut h = Hasher::new();
        for (name, v) in self.counters.lock().expect("metrics lock").iter() {
            h.str("counter").str(name).u64(*v);
        }
        for (name, hist) in self.histograms.lock().expect("metrics lock").iter() {
            h.str("hist").str(name).u64(hist.count());
        }
        Digest(h.finish())
    }

    /// Single-line JSON object: `counters`, `histograms` (count, sum,
    /// p50/p90/p99 and the non-empty `[upper, count]` buckets), and the
    /// counter digest — the schema `vericomp_serve
    /// --metrics-json` persists and `BENCH_daemon.json` embeds.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\": {");
        for (i, (name, v)) in self
            .counters
            .lock()
            .expect("metrics lock")
            .iter()
            .enumerate()
        {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {v}");
        }
        out.push_str("}, \"histograms\": {");
        for (i, (name, hist)) in self
            .histograms
            .lock()
            .expect("metrics lock")
            .iter()
            .enumerate()
        {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                hist.count(),
                hist.sum(),
                hist.quantile(0.50).unwrap_or(0),
                hist.quantile(0.90).unwrap_or(0),
                hist.quantile(0.99).unwrap_or(0),
            );
            let mut first = true;
            for (b, &n) in hist.buckets().iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let _ = write!(out, "[{}, {n}]", bucket_upper(b));
            }
            out.push_str("]}");
        }
        let _ = write!(
            out,
            "}}, \"counter_digest\": \"{}\"}}",
            self.counter_digest()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
        // Every value sits at or below its bucket's upper bound.
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024, u64::MAX] {
            assert!(v <= bucket_upper(bucket_index(v)), "v={v}");
        }
    }

    #[test]
    fn quantiles_on_small_sets() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        h.record(1);
        // Single observation: every quantile is its bucket upper.
        assert_eq!(h.quantile(0.01), Some(1));
        assert_eq!(h.quantile(1.0), Some(1));
        for v in [2u64, 3, 100, 1000] {
            h.record(v);
        }
        // 5 obs sorted: 1,2,3,100,1000 → rank(0.5)=3 → value 3 → upper 3.
        assert_eq!(h.quantile(0.5), Some(3));
        // rank(0.99)=5 → value 1000 → bucket 10 upper 1023.
        assert_eq!(h.quantile(0.99), Some(1023));
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(500);
        b.record(u64::MAX);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), u64::MAX);
        assert_eq!(a.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn digest_hashes_counters_and_hist_counts_only() {
        let a = Registry::new();
        let b = Registry::new();
        a.incr("requests", 3);
        b.incr("requests", 3);
        a.observe("request_wall_ns", 1_000);
        b.observe("request_wall_ns", 9_999_999); // different timing
        assert_eq!(a.counter_digest(), b.counter_digest());
        b.incr("requests", 1); // counts do matter
        assert_ne!(a.counter_digest(), b.counter_digest());
    }

    #[test]
    fn json_shape() {
        let r = Registry::new();
        r.incr("a", 1);
        r.observe("h", 3);
        let json = r.to_json();
        assert!(json.starts_with("{\"counters\": {\"a\": 1}"));
        assert!(json.contains("{\"a\": 1}, \"histograms\": {\"h\": "));
        assert!(json.contains("\"h\": {\"count\": 1, \"sum\": 3,"));
        assert!(json.contains("\"buckets\": [[3, 1]]"));
        assert!(json.contains("\"counter_digest\": \""));
    }
}
