//! Bounded ring-buffer span collection with Chrome `trace_event` export.
//!
//! When tracing is enabled (the CLI's `--trace-out FILE` flag, or
//! [`TraceCollector::enable`] directly), every phase opened through
//! [`crate::Registry::phase`] additionally records a **span** — name,
//! numeric thread id, start timestamp, duration — into a fixed-capacity
//! [`Ring`]. The buffer never grows and never blocks recorders beyond
//! one uncontended per-slot lock; once full, the oldest spans are
//! overwritten and counted as dropped. Export produces the Chrome
//! `trace_event` JSON format (complete events, `"ph": "X"`), which
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) open
//! directly — the timeline view is how the 21× rank imbalance in
//! `BENCH_kron.json` becomes *visible* rather than a number.
//!
//! Disabled tracing costs one relaxed load per phase close. Timestamps
//! are microseconds relative to the moment tracing was enabled (spans
//! whose start predates the epoch clamp to 0).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::escape_into;
use crate::ring::Ring;

/// Default ring capacity: enough for every kernel-granularity span of a
/// Table-I-scale run with room to spare, small enough to stay resident.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// One closed span, ready for export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Phase name (hierarchical, e.g. `"distsim.run/distsim.generate"`).
    pub name: String,
    /// Small dense per-thread id (0, 1, 2, … in first-span order).
    pub tid: u64,
    /// Start, microseconds since the trace epoch.
    pub ts_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
}

/// Fixed-capacity concurrent span ring. See the module docs.
pub struct TraceCollector {
    enabled: AtomicBool,
    epoch: OnceLock<Instant>,
    ring: Ring<SpanEvent>,
}

impl std::fmt::Debug for TraceCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCollector")
            .field("enabled", &self.is_enabled())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector::with_capacity(DEFAULT_CAPACITY)
    }
}

impl TraceCollector {
    /// New collector with the given ring capacity (≥ 1), initially
    /// disabled.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "trace ring needs at least one slot");
        TraceCollector {
            enabled: AtomicBool::new(false),
            epoch: OnceLock::new(),
            ring: Ring::new(capacity),
        }
    }

    /// Start collecting spans; the trace epoch (timestamp zero) is fixed
    /// on the first call and kept on subsequent ones.
    pub fn enable(&self) {
        self.epoch.get_or_init(Instant::now);
        self.enabled.store(true, Ordering::Release);
    }

    /// Stop collecting (already-recorded spans are kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Whether spans are currently being collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record a closed span from its start [`Instant`] and duration in
    /// nanoseconds. No-op while disabled. Called by
    /// [`crate::Registry::phase`] guards on drop.
    pub fn record_span(&self, name: &str, start: Instant, dur_ns: u64) {
        if !self.is_enabled() {
            return;
        }
        let epoch = self.epoch.get().copied().unwrap_or(start);
        let ts_us = start
            .checked_duration_since(epoch)
            .map_or(0, |d| d.as_micros().min(u64::MAX as u128) as u64);
        self.ring.push(SpanEvent {
            name: name.to_string(),
            tid: current_thread_id(),
            ts_us,
            dur_us: dur_ns / 1_000,
        });
    }

    /// Number of spans recorded since creation (including overwritten).
    pub fn recorded(&self) -> u64 {
        self.ring.recorded()
    }

    /// Number of spans lost to ring wraparound.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Snapshot the retained spans, sorted by `(ts_us, tid, name)` for
    /// deterministic output.
    pub fn spans(&self) -> Vec<SpanEvent> {
        let mut out = self.ring.snapshot();
        out.sort_by(|a, b| {
            (a.ts_us, a.tid, a.name.as_str()).cmp(&(b.ts_us, b.tid, b.name.as_str()))
        });
        out
    }

    /// Serialise to Chrome `trace_event` JSON: an object with a
    /// `traceEvents` array of complete (`"ph": "X"`) events, loadable by
    /// `chrome://tracing` and Perfetto. A `bikron.dropped_spans` metadata
    /// event reports ring overflow when it happened.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let mut first = true;
        for span in self.spans() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("  {\"name\": \"");
            escape_into(&mut out, &span.name);
            out.push_str(&format!(
                "\", \"cat\": \"phase\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}}}",
                span.tid, span.ts_us, span.dur_us
            ));
        }
        let dropped = self.dropped();
        if dropped > 0 {
            if !first {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "  {{\"name\": \"bikron.dropped_spans\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"args\": {{\"count\": {dropped}}}}}"
            ));
        }
        out.push_str("\n]}\n");
        out
    }

    /// Write the Chrome trace JSON to `path`.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }

    /// Drop all retained spans and reset the sequence counter. The
    /// enabled flag and epoch are kept.
    pub fn reset(&self) {
        self.ring.reset();
    }
}

/// Process-wide collector fed by [`crate::Registry::phase`] on the
/// global registry. Disabled until [`TraceCollector::enable`] is called
/// (the CLI does so when `--trace-out` is present).
pub fn tracer() -> &'static TraceCollector {
    static TRACER: OnceLock<TraceCollector> = OnceLock::new();
    TRACER.get_or_init(TraceCollector::default)
}

/// Dense numeric id of the calling thread (0, 1, 2, … in first-use
/// order) — Chrome traces want small integer `tid`s, and
/// [`std::thread::ThreadId`] has no stable numeric form.
pub fn current_thread_id() -> u64 {
    crate::profile::with_frames(|f| f.tid).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_records_nothing() {
        let t = TraceCollector::with_capacity(8);
        t.record_span("x", Instant::now(), 1_000);
        assert_eq!(t.recorded(), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn records_and_exports_spans() {
        let t = TraceCollector::with_capacity(8);
        t.enable();
        let start = Instant::now();
        t.record_span("alpha", start, 2_500);
        t.record_span("beta \"quoted\"", start, 1_000);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].dur_us.max(spans[1].dur_us), 2);
        let json = t.to_chrome_json();
        assert!(json.contains("\"traceEvents\": ["));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("beta \\\"quoted\\\""));
        assert!(!json.contains("dropped_spans"));
    }

    #[test]
    fn ring_overwrites_oldest_and_reports_drops() {
        let t = TraceCollector::with_capacity(4);
        t.enable();
        let start = Instant::now();
        for i in 0..10 {
            t.record_span(&format!("s{i}"), start, i * 1_000);
        }
        assert_eq!(t.recorded(), 10);
        assert_eq!(t.dropped(), 6);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        // The survivors are the newest four.
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        for kept in ["s6", "s7", "s8", "s9"] {
            assert!(names.contains(&kept), "missing {kept} in {names:?}");
        }
        assert!(t.to_chrome_json().contains("\"bikron.dropped_spans\""));
        t.reset();
        assert_eq!(t.recorded(), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn thread_ids_are_dense_and_distinct() {
        let mine = current_thread_id();
        assert_eq!(mine, current_thread_id());
        let other = std::thread::spawn(current_thread_id).join().unwrap();
        assert_ne!(mine, other);
    }
}
