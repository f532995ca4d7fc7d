//! Shared machinery for the `loadgen` binary: run summary, Zipf key
//! sampling, and the tiny JSON helpers its verifier uses.
//!
//! Living in the library (rather than the binary) makes the pass/fail
//! policy unit-testable: CI's `serve-smoke` job trusts `loadgen`'s exit
//! code, so [`LoadgenSummary::exit_code`] — *any* truth mismatch is a
//! hard failure — is pinned by tests here instead of being an untested
//! `if` at the bottom of `main`.

use std::time::Duration;

/// Outcome of one loadgen run: verified query count, mismatches, and the
/// latency distribution (one sample per HTTP request — a batch counts
/// once on the wire but `queries` items toward throughput).
#[derive(Debug, Clone)]
pub struct LoadgenSummary {
    /// Metric namespace label (`loadgen.{label}.rps` …); empty for the
    /// unlabelled `loadgen.rps` names.
    pub label: String,
    /// Verified queries (batch items count individually).
    pub queries: u64,
    /// Wire-level HTTP requests (a batch counts once).
    pub http_requests: u64,
    /// Responses that disagreed with the local truth replica.
    pub mismatches: u64,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
    /// Per-HTTP-request latencies, sorted ascending.
    pub latencies_ns: Vec<u64>,
}

impl LoadgenSummary {
    /// Build a summary; latencies are sorted here so percentile reads
    /// are O(1) afterwards.
    pub fn new(
        label: impl Into<String>,
        queries: u64,
        http_requests: u64,
        mismatches: u64,
        elapsed: Duration,
        mut latencies_ns: Vec<u64>,
    ) -> Self {
        latencies_ns.sort_unstable();
        LoadgenSummary {
            label: label.into(),
            queries,
            http_requests,
            mismatches,
            elapsed,
            latencies_ns,
        }
    }

    /// Verified queries per second of wall-clock.
    pub fn rps(&self) -> f64 {
        if self.elapsed.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.queries as f64 / self.elapsed.as_secs_f64()
    }

    /// Median per-request latency in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        percentile(&self.latencies_ns, 0.50)
    }

    /// 99th-percentile per-request latency in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        percentile(&self.latencies_ns, 0.99)
    }

    /// Whether every response agreed with the local truth replica.
    pub fn ok(&self) -> bool {
        self.mismatches == 0
    }

    /// The process exit code this run must map to: 0 only when *zero*
    /// responses mismatched ground truth. A wrong answer from the
    /// service is a correctness bug, never noise — CI jobs gate on this.
    pub fn exit_code(&self) -> u8 {
        if self.ok() {
            0
        } else {
            1
        }
    }

    /// Metric name under this run's label: `loadgen.rps` or
    /// `loadgen.{label}.rps`.
    pub fn metric_name(&self, key: &str) -> String {
        if self.label.is_empty() {
            format!("loadgen.{key}")
        } else {
            format!("loadgen.{}.{key}", self.label)
        }
    }

    /// Record the summary into the global metrics registry (counters for
    /// the headline numbers, the latency histogram for tails).
    pub fn emit(&self) {
        let obs = bikron_obs::global();
        obs.counter(&self.metric_name("requests")).add(self.queries);
        obs.counter(&self.metric_name("http_requests"))
            .add(self.http_requests);
        obs.counter(&self.metric_name("mismatches"))
            .add(self.mismatches);
        obs.counter(&self.metric_name("rps"))
            .add(self.rps().round() as u64);
        obs.counter(&self.metric_name("p50_ns")).add(self.p50_ns());
        obs.counter(&self.metric_name("p99_ns")).add(self.p99_ns());
        obs.counter(&self.metric_name("elapsed_ms"))
            .add(self.elapsed.as_millis() as u64);
        let hist = obs.histogram(&self.metric_name("request_ns"));
        for &ns in &self.latencies_ns {
            hist.record(ns);
        }
    }
}

/// Fold one request into a bounded leaderboard of the slowest requests
/// seen so far: keeps the `cap` largest `(latency_ns, trace_id)` pairs,
/// descending. O(cap) per call — fine for cap ≤ a few dozen.
pub fn track_slow(slowest: &mut Vec<(u64, String)>, ns: u64, trace_id: &str, cap: usize) {
    if cap == 0 {
        return;
    }
    if slowest.len() == cap && ns <= slowest[cap - 1].0 {
        return;
    }
    let at = slowest.partition_point(|&(v, _)| v > ns);
    slowest.insert(at, (ns, trace_id.to_string()));
    slowest.truncate(cap);
}

/// The "slowest requests" report: one line per tracked request at or
/// above `p99_ns`, slowest first — the trace ids to paste into
/// `bikron trace` / `/v1/admin/traces` when chasing a tail outlier.
pub fn slow_trace_lines(slowest: &[(u64, String)], p99_ns: u64) -> Vec<String> {
    slowest
        .iter()
        .filter(|&&(ns, _)| ns >= p99_ns && ns > 0)
        .map(|(ns, trace_id)| {
            format!(
                "loadgen: p99 outlier: {:.1}ms trace {trace_id}",
                *ns as f64 / 1e6
            )
        })
        .collect()
}

/// Nearest-rank percentile over an ascending-sorted slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The flat-JSON field extractors the verifier reads bodies with.
pub use bikron_obs::json::{field_f64, field_str, field_u64, field_u64_last};

/// Split a batch response array into its items' raw text — the strict
/// splitter owned by the batch format (malformed arrays are `None`).
pub use bikron_serve::batch::split_batch_items as split_json_array;

/// Zipf(s) sampler over ranks `0..n`, with ranks scattered across the
/// vertex space by a multiplicative hash so "popular" keys are not all
/// low indices. `s = 0` degenerates to uniform. Sampling is a binary
/// search over the precomputed CDF — O(log n) per draw, O(n) memory paid
/// once.
pub struct Zipf {
    cdf: Vec<f64>,
    n: usize,
}

impl Zipf {
    /// Build the sampler for `n` keys with skew exponent `s ≥ 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty key space");
        assert!(s >= 0.0, "Zipf skew must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf, n }
    }

    /// Map a uniform draw `u ∈ [0, 1)` to a key in `0..n`.
    pub fn sample(&self, u: f64) -> usize {
        let rank = self.cdf.partition_point(|&c| c < u).min(self.n - 1);
        // Scatter rank → key so hot keys spread over the vertex space.
        (rank.wrapping_mul(0x9E37_79B9) ^ (rank >> 7)) % self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(mismatches: u64) -> LoadgenSummary {
        LoadgenSummary::new(
            "t",
            100,
            25,
            mismatches,
            Duration::from_millis(500),
            vec![30, 10, 20, 40],
        )
    }

    #[test]
    fn exit_code_is_nonzero_on_any_mismatch() {
        assert_eq!(summary(0).exit_code(), 0);
        assert!(summary(0).ok());
        // The CI contract: even a single wrong answer fails the run.
        assert_eq!(summary(1).exit_code(), 1);
        assert_eq!(summary(999).exit_code(), 1);
        assert!(!summary(1).ok());
    }

    #[test]
    fn rps_counts_queries_not_wire_requests() {
        let s = summary(0);
        assert_eq!(s.rps().round() as u64, 200); // 100 queries / 0.5 s
    }

    #[test]
    fn percentiles_read_sorted_latencies() {
        let s = summary(0);
        assert_eq!(s.latencies_ns, vec![10, 20, 30, 40]);
        assert_eq!(s.p50_ns(), 30); // nearest-rank on 4 samples
        assert_eq!(s.p99_ns(), 40);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn metric_names_respect_label() {
        let labelled = summary(0);
        assert_eq!(labelled.metric_name("rps"), "loadgen.t.rps");
        let plain = LoadgenSummary::new("", 1, 1, 0, Duration::from_secs(1), vec![1]);
        assert_eq!(plain.metric_name("rps"), "loadgen.rps");
    }

    #[test]
    fn slow_tracker_keeps_the_cap_slowest() {
        let mut slowest = Vec::new();
        for (ns, id) in [(5, "a"), (50, "b"), (20, "c"), (90, "d"), (1, "e")] {
            track_slow(&mut slowest, ns, id, 3);
        }
        let ids: Vec<&str> = slowest.iter().map(|(_, id)| id.as_str()).collect();
        assert_eq!(ids, vec!["d", "b", "c"]);
        assert_eq!(slowest[0].0, 90);
        // cap 0 tracks nothing.
        let mut none = Vec::new();
        track_slow(&mut none, 10, "x", 0);
        assert!(none.is_empty());
    }

    #[test]
    fn outlier_lines_filter_below_p99() {
        let slowest = vec![
            (90_000_000, "deadbeef".to_string()),
            (50_000_000, "cafe".to_string()),
            (10_000_000, "fast".to_string()),
        ];
        let lines = slow_trace_lines(&slowest, 50_000_000);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("90.0ms trace deadbeef"), "{lines:?}");
        assert!(lines[1].contains("cafe"), "{lines:?}");
        assert!(slow_trace_lines(&[], 1).is_empty());
    }

    #[test]
    fn zipf_skews_and_stays_in_range() {
        let z = Zipf::new(1000, 1.1);
        // CDF mass of the first rank under s=1.1 is large; the mapped-to
        // key for u near 0 must always be the same and in range.
        let hot = z.sample(0.0);
        assert!(hot < 1000);
        assert_eq!(z.sample(1e-9), hot);
        for i in 0..100 {
            let u = i as f64 / 100.0;
            assert!(z.sample(u) < 1000);
        }
        // s = 0 is uniform: the CDF is linear, so u = 0.5 lands mid-rank.
        let uz = Zipf::new(100, 0.0);
        let mid_rank = uz.cdf.partition_point(|&c| c < 0.5);
        assert!((49..=51).contains(&mid_rank));
    }
}
