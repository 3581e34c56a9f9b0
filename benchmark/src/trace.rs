//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer (name, start, end, parent). A layer's **self time** is its
//! span's duration minus the time its direct children cover. Spans stay
//! in memory until the run ends, then export as Chrome trace-event JSON
//! through the pipeline's own [`RunTrace`] writer.

use std::collections::BTreeMap;
use std::time::Instant;

use vericomp_pipeline::{RunTrace, Span as PipelineSpan};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer row the span counts towards, e.g. `core.regalloc`.
    pub name: String,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; a disabled tracer runs the same calls and
/// records nothing, which is how tracing overhead is measured.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Nanoseconds from `a` to `b`, saturating.
#[must_use]
pub fn nanos_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    /// A tracer whose epoch is now.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        nanos_between(self.epoch, Instant::now())
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Opens a span nested under the innermost open one and returns its
    /// index (`usize::MAX` when disabled).
    pub fn begin(&mut self, name: &str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the span `begin` returned (and any left open inside it).
    pub fn end(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Records an already-measured child of span `parent`.
    pub fn record(&mut self, name: &str, parent: usize, start_ns: u64, dur_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name: name.to_owned(),
                start_ns,
                end_ns: start_ns.saturating_add(dur_ns),
                parent: Some(parent),
            });
        }
    }

    /// Per-name `(self_ns, calls)`: each span's duration minus the time
    /// its direct children cover, summed by name.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<String, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] = child_ns[p].saturating_add(s.dur_ns());
            }
        }
        let mut rows: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let row = rows.entry(s.name.clone()).or_default();
            row.0 = row.0.saturating_add(s.dur_ns().saturating_sub(children));
            row.1 += 1;
        }
        rows
    }

    /// Summed duration of the root spans named `name`.
    #[must_use]
    pub fn root_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// The spans as Chrome trace-event JSON; each root span and its
    /// descendants share one track, so nesting shows as stacking.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut root_of = vec![0u32; self.spans.len()];
        let mut trace = RunTrace::new();
        for (i, s) in self.spans.iter().enumerate() {
            #[allow(clippy::cast_possible_truncation)]
            let track = match s.parent {
                Some(p) => root_of[p],
                None => i as u32,
            };
            root_of[i] = track;
            let detail = s
                .parent
                .map_or_else(String::new, |p| format!("parent={}", self.spans[p].name));
            trace.push(PipelineSpan::stage(
                &s.name,
                track,
                s.start_ns,
                s.dur_ns(),
                &detail,
            ));
        }
        trace.to_chrome_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        let root = t.begin("root");
        let mid = t.begin("mid");
        t.record("leaf", mid, t.now_ns(), 0);
        t.end(mid);
        t.end(root);
        let root_span = &t.spans[0];
        let mid_span = &t.spans[1];
        let rows = t.self_times();
        assert_eq!(rows["root"].0, root_span.dur_ns() - mid_span.dur_ns());
        assert_eq!(rows["mid"], (mid_span.dur_ns(), 1));
        assert_eq!(rows["leaf"], (0, 1));
        assert_eq!(t.root_ns("root"), root_span.dur_ns());
        assert!(t.to_chrome_json().contains("\"name\":\"leaf\""));

        let mut off = Tracer::new(false);
        assert_eq!(off.time("x", || 7), 7);
        assert!(off.spans.is_empty());
    }
}
