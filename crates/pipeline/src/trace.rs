//! Structured span tracing: where the wall time of a run actually went.
//!
//! [`PipelineStats`](crate::stats::PipelineStats) answers *how much* time a
//! run spent per stage, derived from these spans; this module answers
//! *where* — one [`Span`] per job stage (queue wait, cache lookup,
//! compile, WCET analyze, store insert), nested per-pass spans inside
//! `compile` (via the
//! [`PassObserver`](vericomp_core::PassObserver) hook in `vericomp-core`),
//! and provenance [`SpanKind::Event`]s from the lattice search (generation
//! boundaries, flag flips, admissions, prunings). A pass the cells of one
//! unit share through their compile session is recorded once, by the cell
//! that ran it. Each cell's pool task
//! records its spans into a plain `Vec<Span>` and returns it with the
//! cell's outcome; the sweep engine appends them, in cell order, to one
//! [`RunTrace`].
//!
//! Two export formats:
//!
//! * **Chrome trace-event JSON** ([`RunTrace::to_chrome_json`]) — load the
//!   file in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`
//!   to see the run on a timeline, one track per cell index.
//! * **Deterministic text profile** ([`RunTrace::profile`]) — a per-stage
//!   and per-pass table whose *counts* (not times) are digest-stable
//!   across `--jobs` values and cache states of identical work (counts
//!   are hashed, timings never are). The `validate` stage row is derived
//!   from the `check-*` pass spans (the validators run inside `compile`,
//!   so a separate stage interval would overlap the pass spans).

use std::fmt::Write as _;

use crate::hash::{Digest, Hasher};

/// The canonical stage rows of a [`Profile`], in reporting order. Five of
/// the six are recorded as real [`SpanKind::Stage`] intervals; `validate`
/// is derived from the `check-*` pass spans (validators run *inside* the
/// compile stage).
pub const STAGE_NAMES: [&str; 6] = [
    "queue-wait",
    "cache-lookup",
    "compile",
    "validate",
    "analyze",
    "store",
];

/// What a [`Span`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A pipeline job stage (one of [`STAGE_NAMES`], except `validate`).
    Stage,
    /// A compiler pass inside the compile stage (one of
    /// [`vericomp_core::PASS_NAMES`]).
    Pass,
    /// An instantaneous provenance marker (e.g. the search's
    /// `search:admitted`); `dur_ns` is 0.
    Event,
}

impl SpanKind {
    /// The Chrome trace-event category string (`cat` field).
    #[must_use]
    pub fn cat(self) -> &'static str {
        match self {
            SpanKind::Stage => "stage",
            SpanKind::Pass => "pass",
            SpanKind::Event => "event",
        }
    }

    /// Parses a category string back into the kind — the inverse of
    /// [`cat`](SpanKind::cat), used when spans travel over the wire.
    #[must_use]
    pub fn from_cat(cat: &str) -> Option<SpanKind> {
        match cat {
            "stage" => Some(SpanKind::Stage),
            "pass" => Some(SpanKind::Pass),
            "event" => Some(SpanKind::Event),
            _ => None,
        }
    }
}

/// One recorded interval (or instantaneous event) of a run. Timestamps are
/// nanoseconds since the run's epoch (the submission instant of the run,
/// or the search's start for multi-generation traces).
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name: a stage name, a pass name, or an event name.
    pub name: String,
    /// What the span measures.
    pub kind: SpanKind,
    /// The cell index the span belongs to (the Chrome `tid` track).
    pub job: u32,
    /// The process row the span renders under (the Chrome `pid` track):
    /// 1 for spans recorded in this process (the constructors' default),
    /// 2 for server-side spans a client received over the wire — so a
    /// merged `--connect --trace` timeline shows both processes.
    pub pid: u32,
    /// Start, nanoseconds since the run epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds (0 for [`SpanKind::Event`]).
    pub dur_ns: u64,
    /// Free-form context, e.g. `unit=alpha config=verified`.
    pub detail: String,
}

impl Span {
    /// A stage interval.
    #[must_use]
    pub fn stage(name: &str, job: u32, ts_ns: u64, dur_ns: u64, detail: &str) -> Span {
        Span {
            name: name.to_owned(),
            kind: SpanKind::Stage,
            job,
            ts_ns,
            dur_ns,
            pid: 1,
            detail: detail.to_owned(),
        }
    }

    /// A per-pass interval nested inside a compile stage.
    #[must_use]
    pub fn pass(name: &str, job: u32, ts_ns: u64, dur_ns: u64, detail: &str) -> Span {
        Span {
            name: name.to_owned(),
            kind: SpanKind::Pass,
            job,
            ts_ns,
            dur_ns,
            pid: 1,
            detail: detail.to_owned(),
        }
    }

    /// An instantaneous provenance event.
    #[must_use]
    pub fn event(name: &str, job: u32, ts_ns: u64, detail: &str) -> Span {
        Span {
            name: name.to_owned(),
            kind: SpanKind::Event,
            job,
            ts_ns,
            dur_ns: 0,
            pid: 1,
            detail: detail.to_owned(),
        }
    }
}

/// The merged trace of one run (or of a whole multi-generation search).
/// Spans are ordered by (cell index, per-cell recording order). The
/// *count* of each (kind, name) is a pure function of the work; the
/// timestamps are not, and neither is which cell carries a pass span: a
/// pass the cells of one unit share runs, and is recorded, in whichever
/// of them needs it first.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    spans: Vec<Span>,
}

impl RunTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> RunTrace {
        RunTrace::default()
    }

    /// The spans, in deterministic order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Appends one span.
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Appends another trace's spans (used to chain the per-generation
    /// sweeps of a search onto one timeline).
    pub fn merge(&mut self, other: RunTrace) {
        self.spans.extend(other.spans);
    }

    /// Number of spans of one (kind, name).
    #[must_use]
    pub fn count_of(&self, kind: SpanKind, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind == kind && s.name == name)
            .count() as u64
    }

    /// Serializes the trace as Chrome trace-event JSON — an object with a
    /// `traceEvents` array of complete (`"ph": "X"`) events, timestamps in
    /// microseconds. Load the file in Perfetto or `chrome://tracing`;
    /// cells render as `tid` tracks grouped under each span's `pid`
    /// process row (1 = this process, 2 = server-side spans a client
    /// merged in from a `--connect --trace` run).
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let us = |ns: u64| ns as f64 / 1e3;
        let mut out = String::with_capacity(self.spans.len() * 128 + 32);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"detail\":\"{}\"}}}}",
                escape_json(&s.name),
                s.kind.cat(),
                us(s.ts_ns),
                us(s.dur_ns),
                s.pid,
                s.job,
                escape_json(&s.detail),
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Aggregates the trace into a [`Profile`]: per-stage rows (all of
    /// [`STAGE_NAMES`], `validate` derived from the `check-*` pass spans),
    /// then per-pass rows in [`vericomp_core::PASS_NAMES`] order, then
    /// event rows sorted by name.
    #[must_use]
    pub fn profile(&self) -> Profile {
        let mut rows = Vec::new();
        for stage in STAGE_NAMES {
            let (count, total_ns) = if stage == "validate" {
                // validators run inside the compile stage; their time is
                // the sum of the check-* pass spans
                self.spans
                    .iter()
                    .filter(|s| s.kind == SpanKind::Pass && s.name.starts_with("check-"))
                    .fold((0, 0u64), |(c, t), s| (c + 1, t.saturating_add(s.dur_ns)))
            } else {
                self.sum_of(SpanKind::Stage, stage)
            };
            rows.push(ProfileRow {
                kind: SpanKind::Stage,
                name: stage.to_owned(),
                count,
                total_ns,
            });
        }
        for pass in vericomp_core::PASS_NAMES {
            let (count, total_ns) = self.sum_of(SpanKind::Pass, pass);
            rows.push(ProfileRow {
                kind: SpanKind::Pass,
                name: pass.to_owned(),
                count,
                total_ns,
            });
        }
        let mut event_names: Vec<&str> = self
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Event)
            .map(|s| s.name.as_str())
            .collect();
        event_names.sort_unstable();
        event_names.dedup();
        for name in event_names {
            let (count, total_ns) = self.sum_of(SpanKind::Event, name);
            rows.push(ProfileRow {
                kind: SpanKind::Event,
                name: name.to_owned(),
                count,
                total_ns,
            });
        }
        Profile { rows }
    }

    fn sum_of(&self, kind: SpanKind, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.kind == kind && s.name == name)
            .fold((0, 0u64), |(c, t), s| (c + 1, t.saturating_add(s.dur_ns)))
    }
}

/// One row of a [`Profile`]: a (kind, name) bucket with its span count and
/// summed duration.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// The bucket's span kind (the `validate` row reports as a stage).
    pub kind: SpanKind,
    /// Stage, pass, or event name.
    pub name: String,
    /// Number of spans in the bucket — deterministic across job counts.
    pub count: u64,
    /// Summed duration in nanoseconds — timing, **not** deterministic.
    pub total_ns: u64,
}

/// The aggregated per-stage / per-pass / per-event table of a [`RunTrace`],
/// in canonical row order: [`STAGE_NAMES`], then
/// [`vericomp_core::PASS_NAMES`], then event names sorted lexicographically.
#[derive(Debug, Clone)]
pub struct Profile {
    rows: Vec<ProfileRow>,
}

impl Profile {
    /// The rows, in canonical order. Stage and pass rows are always all
    /// present (count 0 when nothing ran); event rows only when observed.
    #[must_use]
    pub fn rows(&self) -> &[ProfileRow] {
        &self.rows
    }

    /// The count of one (kind, name) row, 0 when absent.
    #[must_use]
    pub fn count_of(&self, kind: SpanKind, name: &str) -> u64 {
        self.rows
            .iter()
            .find(|r| r.kind == kind && r.name == name)
            .map_or(0, |r| r.count)
    }

    /// Digest of the **counters only** — (kind, name, count) per row in
    /// canonical order, durations excluded. Identical work yields an
    /// identical digest at any `--jobs` value and cache temperature *of
    /// the same cache state*; the determinism gates and the CI trace smoke
    /// compare exactly this.
    ///
    /// `analyze:*` event rows are excluded: they count session-analyzer
    /// fact-cache hits and misses, and which parallel cell first analyzes
    /// a shared callee is a scheduling outcome, not a property of the
    /// work. The rows still render and export; they just don't gate.
    #[must_use]
    pub fn counter_digest(&self) -> Digest {
        let mut h = Hasher::new();
        for row in &self.rows {
            if row.kind == SpanKind::Event && row.name.starts_with("analyze:") {
                continue;
            }
            h.str(row.kind.cat()).str(&row.name).u64(row.count);
        }
        Digest(h.finish())
    }

    /// The store hit rate derivable from the counters: every job performs
    /// one `cache-lookup` stage, and only misses go on to a `compile`
    /// stage, so `(lookups - compiles) / lookups` is the fraction served
    /// from the artifact store. `None` when the trace has no lookups (an
    /// empty run, or a trace of search events only).
    #[must_use]
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let lookups = self.count_of(SpanKind::Stage, "cache-lookup");
        if lookups == 0 {
            return None;
        }
        let compiles = self.count_of(SpanKind::Stage, "compile");
        Some((lookups.saturating_sub(compiles)) as f64 / lookups as f64)
    }

    /// The aligned text table, one `profile:`-prefixed line per row, then
    /// the derived hit-rate line, then the counter-digest footer (always
    /// last — the CI smoke greps for it as the final `profile:` line) —
    /// greppable the same way the `pipeline:`/`search:` lines are.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            let ms = row.total_ns as f64 / 1e6;
            let _ = writeln!(
                out,
                "profile: {:<5} {:<26} {:>8} spans {:>10.2} ms",
                row.kind.cat(),
                row.name,
                row.count,
                ms,
            );
        }
        if let Some(rate) = self.cache_hit_rate() {
            let _ = writeln!(out, "profile: cache hit rate: {:.1}%", rate * 100.0);
        }
        let _ = writeln!(out, "profile: counter digest: {}", self.counter_digest());
        out
    }

    /// Single-line JSON object: the rows (with counts and summed
    /// durations) plus the counter digest — the per-stage breakdown the
    /// bench drivers embed into `BENCH_*.json`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"kind\": \"{}\", \"name\": \"{}\", \"count\": {}, \"total_ns\": {}}}",
                row.kind.cat(),
                escape_json(&row.name),
                row.count,
                row.total_ns,
            );
        }
        let _ = write!(
            out,
            "], \"cache_hit_rate\": {}, \"counter_digest\": \"{}\"}}",
            self.cache_hit_rate()
                .map_or("null".to_owned(), |r| format!("{r:.6}")),
            self.counter_digest()
        );
        out
    }
}

/// Minimal JSON string escaping for the hand-rolled exports (names and
/// details are internal ASCII identifiers; quotes/backslashes/control
/// bytes are escaped defensively).
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> RunTrace {
        let mut t = RunTrace::new();
        t.push(Span::stage(
            "queue-wait",
            0,
            0,
            100,
            "unit=a config=verified",
        ));
        t.push(Span::stage(
            "cache-lookup",
            0,
            100,
            50,
            "unit=a config=verified",
        ));
        t.push(Span::stage(
            "compile",
            0,
            150,
            1000,
            "unit=a config=verified",
        ));
        t.push(Span::pass("lower", 0, 150, 200, "unit=a config=verified"));
        t.push(Span::pass(
            "constprop",
            0,
            350,
            100,
            "unit=a config=verified",
        ));
        t.push(Span::pass(
            "check-alloc",
            0,
            450,
            300,
            "unit=a config=verified",
        ));
        t.push(Span::stage(
            "analyze",
            0,
            1200,
            400,
            "unit=a config=verified",
        ));
        t.push(Span::stage("store", 0, 1600, 20, "unit=a config=verified"));
        t.push(Span::event("search:admitted", 0, 1700, "unit=a flag=cse"));
        t
    }

    #[test]
    fn chrome_export_is_complete_events_with_all_required_fields() {
        let json = sample_trace().to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        // every event carries ph/ts/dur/name (the CI smoke re-validates
        // this shape on real output with a JSON parser)
        let events = json.matches("{\"name\":").count();
        assert_eq!(events, 9);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 9);
        assert_eq!(json.matches("\"ts\":").count(), 9);
        assert_eq!(json.matches("\"dur\":").count(), 9);
        // ns -> us conversion keeps sub-microsecond resolution
        assert!(json.contains("\"ts\":0.150"), "{json}");
        assert!(json.contains("\"dur\":0.020"), "{json}");
    }

    #[test]
    fn profile_has_all_stage_and_pass_rows_and_derives_validate() {
        let profile = sample_trace().profile();
        for stage in STAGE_NAMES {
            assert!(
                profile
                    .rows()
                    .iter()
                    .any(|r| r.kind == SpanKind::Stage && r.name == stage),
                "missing stage row {stage}"
            );
        }
        for pass in vericomp_core::PASS_NAMES {
            assert!(
                profile
                    .rows()
                    .iter()
                    .any(|r| r.kind == SpanKind::Pass && r.name == pass),
                "missing pass row {pass}"
            );
        }
        // validate is the aggregate of the check-* pass spans
        let validate = profile
            .rows()
            .iter()
            .find(|r| r.kind == SpanKind::Stage && r.name == "validate")
            .expect("validate row");
        assert_eq!(validate.count, 1);
        assert_eq!(validate.total_ns, 300);
        assert_eq!(profile.count_of(SpanKind::Pass, "constprop"), 1);
        assert_eq!(profile.count_of(SpanKind::Pass, "cse"), 0);
        assert_eq!(profile.count_of(SpanKind::Event, "search:admitted"), 1);
    }

    #[test]
    fn counter_digest_ignores_times_but_not_counts() {
        let a = sample_trace();
        // same counts, different timings
        let mut b = RunTrace::new();
        for s in a.spans() {
            b.push(Span {
                ts_ns: s.ts_ns * 7 + 13,
                dur_ns: s.dur_ns * 3 + 1,
                ..s.clone()
            });
        }
        assert_eq!(
            a.profile().counter_digest(),
            b.profile().counter_digest(),
            "timing leaked into the counter digest"
        );
        // one extra span must change it
        b.push(Span::stage("compile", 1, 0, 1, ""));
        assert_ne!(a.profile().counter_digest(), b.profile().counter_digest());
    }

    #[test]
    fn counter_digest_ignores_analyzer_reuse_events_but_renders_them() {
        let a = sample_trace();
        let mut b = sample_trace();
        // fact-cache reuse counts depend on cell scheduling; they must
        // not perturb the determinism gate...
        b.push(Span::event("analyze:reuse", 0, 1700, "unit=a"));
        b.push(Span::event("analyze:fixpoint", 0, 1700, "unit=a"));
        assert_eq!(a.profile().counter_digest(), b.profile().counter_digest());
        // ...but they still show up in the rendered profile and JSON
        assert!(b
            .profile()
            .render()
            .contains("profile: event analyze:reuse"));
        assert!(b.profile().to_json().contains("analyze:fixpoint"));
        // a non-analyze event still gates
        b.push(Span::event("search:pruned", 0, 1700, ""));
        assert_ne!(a.profile().counter_digest(), b.profile().counter_digest());
    }

    #[test]
    fn render_emits_one_greppable_line_per_row_plus_the_digest() {
        let text = sample_trace().profile().render();
        for stage in STAGE_NAMES {
            assert!(
                text.contains(&format!("profile: stage {stage}")),
                "missing `profile: stage {stage}` in:\n{text}"
            );
        }
        assert!(text.contains("profile: pass  lower"));
        assert!(text.contains("profile: event search:admitted"));
        assert!(text.contains("profile: cache hit rate: 0.0%"), "{text}");
        assert!(
            text.lines()
                .last()
                .expect("footer")
                .starts_with("profile: counter digest: "),
            "counter digest must stay the last profile line"
        );
    }

    #[test]
    fn cache_hit_rate_is_lookups_minus_compiles_over_lookups() {
        // the sample trace is one cold job: 1 lookup, 1 compile -> 0%
        let cold = sample_trace().profile();
        assert_eq!(cold.cache_hit_rate(), Some(0.0));

        // two more lookups that never reach compile are hits: 2/3
        let mut warm = sample_trace();
        warm.push(Span::stage("cache-lookup", 1, 0, 10, "unit=b"));
        warm.push(Span::stage("cache-lookup", 2, 0, 10, "unit=c"));
        let rate = warm.profile().cache_hit_rate().expect("rate");
        assert!((rate - 2.0 / 3.0).abs() < 1e-12, "{rate}");
        assert!(warm
            .profile()
            .render()
            .contains("profile: cache hit rate: 66.7%"));

        // no lookups at all -> no rate, no line
        let empty = RunTrace::new().profile();
        assert_eq!(empty.cache_hit_rate(), None);
        assert!(!empty.render().contains("cache hit rate"));
        assert!(empty.to_json().contains("\"cache_hit_rate\": null"));
    }

    #[test]
    fn profile_json_is_single_line_and_escaped() {
        let json = sample_trace().profile().to_json();
        assert!(!json.contains('\n'));
        assert!(json.contains("\"counter_digest\": \""));
        assert!(json.contains("\"cache_hit_rate\": 0.000000"));
        assert!(json.contains("{\"kind\": \"stage\", \"name\": \"compile\""));
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }

    #[test]
    fn merge_chains_traces() {
        let mut a = RunTrace::new();
        a.push(Span::stage("compile", 0, 0, 1, ""));
        let mut b = RunTrace::new();
        b.push(Span::stage("analyze", 0, 1, 1, ""));
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.count_of(SpanKind::Stage, "analyze"), 1);
    }
}
