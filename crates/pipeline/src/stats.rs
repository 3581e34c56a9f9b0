//! Pipeline metrics: job counts, cache hit rate, per-stage wall time.
//!
//! [`PipelineStats`] is a view over the span trace, not a second
//! collector: each driver calls [`PipelineStats::from_spans`] once over
//! its run's stage spans, sets `wall_ns` to the run's own clock, and
//! prints the result with [`PipelineStats::render`].

use std::time::Duration;

use crate::trace::{Span, SpanKind};

/// Converts a [`Duration`] to whole nanoseconds, saturating at
/// `u64::MAX` instead of silently truncating the way `as_nanos() as u64`
/// does. Shared by every stats counter and trace span in the pipeline —
/// a `u64` holds ~584 years of nanoseconds, so saturation is the right
/// behavior for the pathological case, and truncation never is.
#[must_use]
pub fn saturating_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A snapshot of one pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Units compiled from scratch (compile + validate + analyze ran).
    pub jobs_run: u64,
    /// Units served from the artifact cache (verdict replayed).
    pub jobs_cached: u64,
    /// Wall time summed across workers in the compile+validate stage.
    pub compile_ns: u64,
    /// Wall time summed across workers in the WCET-analysis stage.
    pub analyze_ns: u64,
    /// Wall time summed across workers in cache lookup/insert.
    pub store_ns: u64,
    /// End-to-end wall time of the run (single clock, not summed).
    pub wall_ns: u64,
}

impl PipelineStats {
    /// Derives a run's stats from its spans. Every job records one
    /// `cache-lookup` stage and only misses go on to `compile`, so
    /// `jobs_cached` is lookups minus compiles; `jobs_run` counts the
    /// `analyze` stages; `store_ns` covers lookup and insert. `wall_ns`
    /// is the summed stage time, which a driver replaces with its run's
    /// clock (cells overlap on the pool). Pass and event spans are
    /// ignored.
    #[must_use]
    pub fn from_spans(spans: &[Span]) -> PipelineStats {
        let mut stats = PipelineStats::default();
        let (mut lookups, mut compiles) = (0u64, 0u64);
        for span in spans.iter().filter(|s| s.kind == SpanKind::Stage) {
            let slot = match span.name.as_str() {
                "cache-lookup" => {
                    lookups += 1;
                    &mut stats.store_ns
                }
                "compile" => {
                    compiles += 1;
                    &mut stats.compile_ns
                }
                "analyze" => {
                    stats.jobs_run += 1;
                    &mut stats.analyze_ns
                }
                "store" => &mut stats.store_ns,
                _ => continue,
            };
            *slot = slot.saturating_add(span.dur_ns);
        }
        stats.jobs_cached = lookups.saturating_sub(compiles);
        stats.wall_ns = stats
            .compile_ns
            .saturating_add(stats.analyze_ns)
            .saturating_add(stats.store_ns);
        stats
    }

    /// Total units processed.
    #[must_use]
    pub fn jobs_total(&self) -> u64 {
        self.jobs_run + self.jobs_cached
    }

    /// Fraction of units served from cache, in `[0, 1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.jobs_total();
        if total == 0 {
            0.0
        } else {
            self.jobs_cached as f64 / total as f64
        }
    }

    /// Multi-line human-readable report, one `pipeline:`-prefixed line per
    /// metric so driver output stays greppable.
    #[must_use]
    pub fn render(&self) -> String {
        let ms = |ns: u64| Duration::from_nanos(ns).as_secs_f64() * 1e3;
        format!(
            "pipeline: jobs {} run, {} cached ({:.1}% hit rate)\n\
             pipeline: stage wall time: compile {:.2} ms, analyze {:.2} ms, store {:.2} ms\n\
             pipeline: end-to-end {:.2} ms",
            self.jobs_run,
            self.jobs_cached,
            self.hit_rate() * 100.0,
            ms(self.compile_ns),
            ms(self.analyze_ns),
            ms(self.store_ns),
            ms(self.wall_ns),
        )
    }

    /// One-line JSON object over every field plus the derived hit rate —
    /// the one schema every `BENCH_*.json` stats block shares, so
    /// benchmark trajectories can be diffed across PRs without scraping
    /// hand-formatted text.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"jobs_run\": {}, \"jobs_cached\": {}, \"hit_rate\": {:.6}, \
             \"compile_ns\": {}, \"analyze_ns\": {}, \"store_ns\": {}, \"wall_ns\": {}}}",
            self.jobs_run,
            self.jobs_cached,
            self.hit_rate(),
            self.compile_ns,
            self.analyze_ns,
            self.store_ns,
            self.wall_ns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_and_render() {
        // three cold jobs and one cache hit
        let mut spans = Vec::new();
        for job in 0..4 {
            spans.push(Span::stage("queue-wait", job, 0, 9, ""));
            spans.push(Span::stage("cache-lookup", job, 0, 1, ""));
        }
        for job in 0..3 {
            spans.push(Span::stage("compile", job, 0, 2_000_000, ""));
            spans.push(Span::pass("lower", job, 0, 5, ""));
            spans.push(Span::stage("analyze", job, 0, 30, ""));
            spans.push(Span::event("analyze:fixpoint", job, 0, ""));
            spans.push(Span::stage("store", job, 0, 4, ""));
        }
        let stats = PipelineStats::from_spans(&spans);
        assert_eq!(stats.jobs_run, 3);
        assert_eq!(stats.jobs_cached, 1);
        assert_eq!(stats.compile_ns, 6_000_000);
        assert_eq!(stats.analyze_ns, 90);
        assert_eq!(stats.store_ns, 4 + 12);
        assert_eq!(stats.wall_ns, 6_000_000 + 90 + 16);
        assert_eq!(stats.jobs_total(), 4);
        assert!((stats.hit_rate() - 0.25).abs() < 1e-12);
        let text = stats.render();
        assert!(text.contains("3 run"));
        assert!(text.contains("1 cached"));
        assert!(text.contains("25.0% hit rate"));
        assert_eq!(PipelineStats::from_spans(&[]), PipelineStats::default());
    }

    #[test]
    fn empty_run_has_zero_hit_rate() {
        assert_eq!(PipelineStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn to_json_is_a_single_line_with_every_field() {
        let stats = PipelineStats {
            jobs_run: 3,
            jobs_cached: 1,
            compile_ns: 42,
            analyze_ns: 7,
            store_ns: 5,
            wall_ns: 60,
        };
        let json = stats.to_json();
        assert!(!json.contains('\n'));
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"jobs_run\": 3"));
        assert!(json.contains("\"jobs_cached\": 1"));
        assert!(json.contains("\"hit_rate\": 0.250000"));
        assert!(json.contains("\"compile_ns\": 42"));
        assert!(json.contains("\"analyze_ns\": 7"));
        assert!(json.contains("\"store_ns\": 5"));
        assert!(json.contains("\"wall_ns\": 60"));
    }

    #[test]
    fn nanosecond_conversion_saturates_instead_of_truncating() {
        assert_eq!(saturating_nanos(Duration::from_nanos(17)), 17);
        assert_eq!(saturating_nanos(Duration::from_nanos(u64::MAX)), u64::MAX);
        // past u64::MAX nanoseconds (~584 years) the old cast wrapped;
        // the helper pins to the ceiling
        assert_eq!(saturating_nanos(Duration::MAX), u64::MAX);
        assert_eq!(
            saturating_nanos(Duration::from_secs(u64::MAX / 1_000_000_000 + 1)),
            u64::MAX
        );
    }
}
