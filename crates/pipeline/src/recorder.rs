//! Bounded flight recorder: the daemon's black box.
//!
//! [`Registry`](crate::metrics::Registry) tells you *how much* happened
//! over the server's lifetime; the recorder tells you *what happened
//! recently*, in order — the last N structured events (connection
//! accepted, request received, sweep started/finished, parse-cache or
//! store evictions, errors) each stamped with a monotonic sequence
//! number, a nanosecond offset from the server's start, the
//! server-assigned request id, and the client-supplied trace id when the
//! request carried one. The ring is bounded: when full, the oldest event is dropped and
//! a drop counter advances, so recording cost stays O(1) and memory
//! stays fixed no matter how long the daemon runs. The recorder also
//! times itself: every [`FlightRecorder::record`] call adds its own wall
//! time, detail formatting included, to a total the dump reports as
//! `record_ns`.
//!
//! The `recorder-dump` admin request serializes the ring as JSON without
//! stopping the server; `vericomp_serve --recorder-of SOCK` prints it.

use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::saturating_nanos;

/// Default ring capacity: enough for the tail of a heavy soak while
/// staying well under a megabyte of resident event text.
pub const DEFAULT_RECORDER_CAP: usize = 4096;

/// One recorded event.
#[derive(Debug, Clone)]
pub struct RecorderEvent {
    /// Monotonic sequence number (never reused, survives drops).
    pub seq: u64,
    /// Nanoseconds since the recorder's epoch (server start).
    pub ts_ns: u64,
    /// Server-assigned request id (0 for server-scoped events such as
    /// connections, evictions and shutdown).
    pub request: u64,
    /// Client-supplied trace id (0 when the request carried none).
    pub trace: u64,
    /// Event kind: `accept`, `request`, `sweep-start`, `sweep-end`,
    /// `store-evict`, `parse-evict`, `error` or `shutdown`.
    pub kind: &'static str,
    /// Free-form context, e.g. `cells=12`.
    pub detail: String,
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<RecorderEvent>,
    seq: u64,
    dropped: u64,
}

/// The bounded ring of [`RecorderEvent`]s. One coarse mutex — recording
/// is a push + possible pop, far off the compile path's critical
/// sections, and the `daemon` bench holds the recorder's own time under
/// 3 % of a warm soak.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<Ring>,
    epoch: Instant,
    cap: usize,
    /// Nanoseconds spent inside [`FlightRecorder::record`].
    record_ns: AtomicU64,
}

impl FlightRecorder {
    /// An empty recorder holding at most `cap` events (`cap` 0 is
    /// clamped to 1).
    #[must_use]
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            ring: Mutex::new(Ring {
                events: VecDeque::new(),
                seq: 0,
                dropped: 0,
            }),
            epoch: Instant::now(),
            cap: cap.max(1),
            record_ns: AtomicU64::new(0),
        }
    }

    /// Records one event, evicting the oldest when the ring is full.
    /// `detail` is formatted here, so the call's time, which the dump's
    /// `record_ns` totals, includes it.
    pub fn record(&self, request: u64, trace: u64, kind: &'static str, detail: fmt::Arguments<'_>) {
        let started = Instant::now();
        let ts_ns = saturating_nanos(started.saturating_duration_since(self.epoch));
        let detail = detail.to_string();
        let mut ring = self.ring.lock().expect("recorder lock");
        if ring.events.len() == self.cap {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        let seq = ring.seq;
        ring.seq += 1;
        ring.events.push_back(RecorderEvent {
            seq,
            ts_ns,
            request,
            trace,
            kind,
            detail,
        });
        drop(ring);
        self.record_ns
            .fetch_add(saturating_nanos(started.elapsed()), Ordering::Relaxed);
    }

    /// Total wall time spent in [`FlightRecorder::record`] calls, detail
    /// formatting included, in nanoseconds.
    fn record_ns(&self) -> u64 {
        self.record_ns.load(Ordering::Relaxed)
    }

    /// Number of events currently resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.lock().expect("recorder lock").events.len()
    }

    /// Whether the ring is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events evicted to make room.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.ring.lock().expect("recorder lock").dropped
    }

    /// A snapshot of the resident events, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<RecorderEvent> {
        self.ring
            .lock()
            .expect("recorder lock")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Serializes the ring as one JSON object: capacity, drop count, the
    /// recorder's own time (`record_ns`) and the resident events
    /// oldest-first. Trace ids render as 16-digit hex (the wire form);
    /// zero means "request carried no trace id".
    #[must_use]
    pub fn dump_json(&self) -> String {
        let ring = self.ring.lock().expect("recorder lock");
        let mut out = String::with_capacity(ring.events.len() * 96 + 64);
        let _ = write!(
            out,
            "{{\"capacity\": {}, \"dropped\": {}, \"record_ns\": {}, \"events\": [",
            self.cap,
            ring.dropped,
            self.record_ns()
        );
        for (i, e) in ring.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"seq\": {}, \"ts_ns\": {}, \"request\": {}, \"trace\": \"{:016x}\", \
                 \"kind\": \"{}\", \"detail\": \"{}\"}}",
                e.seq,
                e.ts_ns,
                e.request,
                e.trace,
                e.kind,
                crate::trace::escape_json(&e.detail),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_when_full() {
        let r = FlightRecorder::new(3);
        for i in 0..5u64 {
            r.record(i, 0, "accept", format_args!("n={i}"));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let events = r.snapshot();
        assert_eq!(events[0].seq, 2);
        assert_eq!(events[2].seq, 4);
        assert_eq!(events[0].request, 2);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let r = FlightRecorder::new(0);
        r.record(1, 2, "accept", format_args!(""));
        r.record(2, 0, "error", format_args!("boom"));
        assert_eq!(r.len(), 1);
        assert_eq!(r.snapshot()[0].kind, "error");
    }

    #[test]
    fn dump_is_valid_shape() {
        let r = FlightRecorder::new(8);
        r.record(
            7,
            0xdead_beef,
            "sweep-start",
            format_args!("cells={} \"quoted\"", 4),
        );
        let json = r.dump_json();
        assert!(json.starts_with("{\"capacity\": 8, \"dropped\": 0, \"record_ns\": "));
        assert!(json.contains(", \"events\": [\n{\"seq\": 0,"));
        assert!(json.contains("\"request\": 7"));
        assert!(json.contains("\"trace\": \"00000000deadbeef\""));
        assert!(json.contains("\"kind\": \"sweep-start\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn record_calls_time_themselves() {
        let r = FlightRecorder::new(2);
        assert_eq!(r.record_ns(), 0);
        r.record(1, 0, "request", format_args!("units={}", 3));
        let once = r.record_ns();
        assert!(once > 0, "a record call took no time");
        r.record(1, 0, "sweep-end", format_args!("run={} cached={}", 1, 2));
        assert!(r.record_ns() > once);
        assert!(r
            .dump_json()
            .contains(&format!("\"record_ns\": {}", r.record_ns())));
    }

    #[test]
    fn timestamps_are_monotonic() {
        let r = FlightRecorder::new(16);
        for _ in 0..4 {
            r.record(0, 0, "accept", format_args!(""));
        }
        let events = r.snapshot();
        for pair in events.windows(2) {
            assert!(pair[0].ts_ns <= pair[1].ts_ns);
            assert!(pair[0].seq < pair[1].seq);
        }
    }
}
