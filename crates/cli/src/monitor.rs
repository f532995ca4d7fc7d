//! `bikron monitor URL`: a live terminal dashboard over a running
//! `bikron serve` instance or a `bikron router` cluster front.
//!
//! The monitor polls `GET /metrics` (the `bikron-obs/4` JSON report),
//! diffs consecutive snapshots, and redraws one screen in place:
//! windowed and cumulative request rates, windowed p50/p99 latency,
//! status-code mix, cache hit-rate, in-flight requests (live + peak),
//! and the top-K hottest histograms by count. With `--once` it prints a
//! single machine-readable `key value` snapshot instead — that is what
//! CI asserts against.
//!
//! When the target identifies itself as a router (report meta
//! `tool = bikron-router`), the headline series switch from `serve.*`
//! to `router.*` and a per-shard breakdown is appended: each shard's
//! request counter, 1-minute rate, request p99, and health verdict
//! (from the `router.shard{i}.health` gauge). A shard whose scrape is
//! missing from the aggregate, or that answered zero requests in the
//! last minute, is flagged `SHARD DARK`. In `--once` mode the same
//! breakdown is emitted as `shards` plus numeric `shard{i}_*` keys.
//!
//! Everything except the socket I/O is pure (`render_frame`,
//! `render_once`), so the formatting and diffing logic is unit-testable
//! without a server.

use std::time::Duration;

use bikron_obs::Report;
use bikron_serve::http::Client;

/// Default seconds between dashboard refreshes.
pub const DEFAULT_INTERVAL_SECS: u64 = 2;
/// Default number of hottest histograms shown.
pub const DEFAULT_TOP: usize = 5;
/// Consecutive fetch failures tolerated before the loop gives up.
const MAX_CONSECUTIVE_FAILURES: u32 = 3;

/// Parsed `bikron monitor` invocation.
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Server base, `http://host:port` (scheme and trailing path
    /// optional on the command line).
    pub host: String,
    /// TCP port.
    pub port: u16,
    /// Seconds between refreshes in dashboard mode.
    pub interval_secs: u64,
    /// Print one machine-readable snapshot and exit.
    pub once: bool,
    /// How many hottest histograms to show.
    pub top: usize,
}

impl MonitorConfig {
    /// Parse `URL [--interval SEC] [--once] [--top K]`.
    pub fn parse(args: &[String]) -> Result<MonitorConfig, String> {
        let mut url: Option<String> = None;
        let mut interval_secs = DEFAULT_INTERVAL_SECS;
        let mut once = false;
        let mut top = DEFAULT_TOP;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--once" => {
                    once = true;
                    i += 1;
                }
                "--interval" | "--top" => {
                    let v = args
                        .get(i + 1)
                        .ok_or_else(|| format!("monitor: {} requires a value", args[i]))?;
                    let n: u64 = v
                        .parse()
                        .map_err(|e| format!("monitor: bad {} {v:?}: {e}", args[i]))?;
                    if args[i] == "--interval" {
                        interval_secs = n.max(1);
                    } else {
                        top = n as usize;
                    }
                    i += 2;
                }
                other if url.is_none() && !other.starts_with("--") => {
                    url = Some(other.to_string());
                    i += 1;
                }
                other => return Err(format!("monitor: unknown argument {other:?}")),
            }
        }
        let url = url.ok_or("monitor requires a server URL (e.g. http://127.0.0.1:7474)")?;
        let (host, port) = parse_host_port("monitor", &url)?;
        Ok(MonitorConfig {
            host,
            port,
            interval_secs,
            once,
            top,
        })
    }
}

/// Accepts `http://host:port[/...]`, `host:port`, or bare `host`
/// (default port 7474).
pub(crate) fn parse_host_port(command: &str, url: &str) -> Result<(String, u16), String> {
    let rest = url.strip_prefix("http://").unwrap_or(url);
    if rest.starts_with("https://") || url.starts_with("https://") {
        return Err(format!(
            "{command}: https is not supported (std-only client)"
        ));
    }
    let authority = rest.split('/').next().unwrap_or("");
    if authority.is_empty() {
        return Err(format!("{command}: bad URL {url:?}"));
    }
    match authority.rsplit_once(':') {
        Some((host, port)) => {
            let port: u16 = port
                .parse()
                .map_err(|e| format!("{command}: bad port in {url:?}: {e}"))?;
            Ok((host.to_string(), port))
        }
        None => Ok((authority.to_string(), 7474)),
    }
}

/// A keep-alive connection to `host:port` over the shared bounded
/// client, with 10 s connect and I/O timeouts.
pub(crate) fn connect(host: &str, port: u16) -> Result<Client, String> {
    let addr = format!("{host}:{port}");
    let timeout = Duration::from_secs(10);
    Client::connect(&addr, timeout, timeout).map_err(|e| format!("connect {addr}: {e}"))
}

/// One `GET {path}` over a fresh connection (shared with `bikron
/// trace`, `profile` and `replay`); returns `(status, body)`.
pub(crate) fn http_get(host: &str, port: u16, path: &str) -> Result<(u16, String), String> {
    let resp = connect(host, port)?
        .get(path)
        .map_err(|e| format!("GET {path}: {e}"))?;
    Ok((resp.status, resp.body))
}

/// One `GET /metrics` over a fresh connection; returns the parsed report.
fn fetch_report(host: &str, port: u16) -> Result<Report, String> {
    let (status, body) = http_get(host, port, "/metrics")?;
    if status != 200 {
        return Err(format!("GET /metrics returned {status}"));
    }
    Report::from_json(&body).map_err(|e| format!("parse /metrics: {e}"))
}

/// One shard's row in the cluster breakdown, assembled from the
/// `shard{i}.*` series the router merges into its aggregate report.
struct ShardRow {
    index: usize,
    /// Cumulative requests served by the shard (`shard{i}.serve.requests`).
    requests: u64,
    /// 1-minute windowed rate, `None` when the shard report lacks windows.
    rps_1m: Option<u64>,
    /// Cumulative request p99 in nanoseconds.
    p99_ns: u64,
    /// `router.shard{i}.health` gauge: 0 ok, 1 degraded, 2 down.
    health: Option<u64>,
    /// Scrape missing from the aggregate, or zero requests in the last
    /// minute — either way the shard is not visibly doing work.
    dark: bool,
}

impl ShardRow {
    fn health_str(&self) -> &'static str {
        match self.health {
            Some(0) => "ok",
            Some(1) => "degraded",
            Some(2) => "down",
            _ => "unknown",
        }
    }
}

/// Counters and windows the dashboard reads, pulled out of a [`Report`].
/// `prefix` is `serve.` for a single node and `router.` when the target
/// identifies as a cluster front, so the same accessors work for both.
struct Snapshot<'a> {
    report: &'a Report,
    prefix: &'static str,
    requests: u64,
    uptime_ms: u64,
}

impl<'a> Snapshot<'a> {
    fn new(report: &'a Report) -> Snapshot<'a> {
        let prefix = if report.meta("tool") == Some("bikron-router") {
            "router."
        } else {
            "serve."
        };
        Snapshot {
            report,
            prefix,
            requests: report.counter(&format!("{prefix}requests")).unwrap_or(0),
            uptime_ms: report
                .gauge(&format!("{prefix}uptime_ms"))
                .map_or(0, |(v, _)| v),
        }
    }

    fn name(&self, suffix: &str) -> String {
        format!("{}{suffix}", self.prefix)
    }

    /// Windowed request rate (per second), `None` when the server
    /// predates windowed metrics (v2 report).
    fn windowed_rate(&self, which: Window) -> Option<u64> {
        let w = self.report.window(&self.name("requests"))?;
        Some(match which {
            Window::OneMin => w.w1m.rate_per_sec,
            Window::FiveMin => w.w5m.rate_per_sec,
        })
    }

    fn windowed_latency(&self, which: Window) -> Option<bikron_obs::WindowStats> {
        let w = self.report.window(&self.name("request_ns"))?;
        Some(match which {
            Window::OneMin => w.w1m,
            Window::FiveMin => w.w5m,
        })
    }

    /// Shard count a router target advertises; 0 for a single node.
    fn shard_count(&self) -> usize {
        if self.prefix != "router." {
            return 0;
        }
        self.report
            .meta("shards")
            .and_then(|s| s.parse().ok())
            .or_else(|| self.report.gauge("router.shards").map(|(v, _)| v as usize))
            .unwrap_or(0)
    }

    /// Per-shard breakdown rows (empty for a single-node target).
    fn shard_rows(&self) -> Vec<ShardRow> {
        (0..self.shard_count())
            .map(|i| {
                let req = format!("shard{i}.serve.requests");
                let requests = self.report.counter(&req);
                let rps_1m = self.report.window(&req).map(|w| w.w1m.rate_per_sec);
                let p99_ns = self
                    .report
                    .histogram(&format!("shard{i}.serve.request_ns"))
                    .map_or(0, |h| h.percentile(99));
                let health = self
                    .report
                    .gauge(&format!("router.shard{i}.health"))
                    .map(|(v, _)| v);
                ShardRow {
                    index: i,
                    requests: requests.unwrap_or(0),
                    rps_1m,
                    p99_ns,
                    health,
                    dark: requests.is_none() || rps_1m.unwrap_or(0) == 0,
                }
            })
            .collect()
    }

    /// Cumulative (since-boot) requests per second, derived from the
    /// `serve.uptime_ms` gauge the server stamps at scrape time.
    fn cumulative_rps(&self) -> u64 {
        if self.uptime_ms == 0 {
            return 0;
        }
        self.requests * 1000 / self.uptime_ms
    }

    fn cache_hit_pct(&self) -> Option<u64> {
        let hits = self.report.counter("serve.cache.hits")?;
        let misses = self.report.counter("serve.cache.misses").unwrap_or(0);
        let total = hits + misses;
        if total == 0 {
            return Some(0);
        }
        Some(hits * 100 / total)
    }

    /// `(code, count)` rows for every `{prefix}status.*` counter, by
    /// count descending.
    fn status_mix(&self) -> Vec<(String, u64)> {
        let status_prefix = self.name("status.");
        let mut rows: Vec<(String, u64)> = self
            .report
            .counters()
            .filter_map(|(name, v)| {
                let code = name.strip_prefix(&status_prefix)?;
                (v > 0).then(|| (code.to_string(), v))
            })
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows
    }

    /// The `top` histograms by observation count.
    fn hottest_histograms(&self, top: usize) -> Vec<(String, u64, u64)> {
        let mut rows: Vec<(String, u64, u64)> = self
            .report
            .histograms()
            .map(|(name, h)| (name.to_string(), h.count, h.percentile(99)))
            .filter(|&(_, count, _)| count > 0)
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(top);
        rows
    }
}

#[derive(Clone, Copy)]
enum Window {
    OneMin,
    FiveMin,
}

/// Render nanoseconds as a human latency (`1.2ms`, `340µs`, `2.1s`).
pub(crate) fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{}.{}µs", ns / 1_000, ns % 1_000 / 100),
        1_000_000..=999_999_999 => format!("{}.{}ms", ns / 1_000_000, ns % 1_000_000 / 100_000),
        _ => format!(
            "{}.{}s",
            ns / 1_000_000_000,
            ns % 1_000_000_000 / 100_000_000
        ),
    }
}

/// Render one dashboard frame. `prev` (with `dt_secs` since it was
/// taken) enables the instantaneous-rate line; the windowed lines come
/// from the report itself. Pure — no I/O, no clock.
pub fn render_frame(prev: Option<&Report>, cur: &Report, dt_secs: f64, top: usize) -> String {
    let snap = Snapshot::new(cur);
    let mut out = String::new();
    out.push_str("bikron monitor — ");
    out.push_str(cur.meta("tool").unwrap_or("unknown"));
    out.push_str(&format!(
        " (schema v{}), uptime {}s\n\n",
        cur.schema_version(),
        snap.uptime_ms / 1000
    ));

    // Requests: windowed rates, since-boot rate, and the poll-diff rate.
    let rate = |w| {
        snap.windowed_rate(w)
            .map_or_else(|| "n/a".to_string(), |r| r.to_string())
    };
    out.push_str(&format!(
        "  requests   total {:<12} rps 1m {:<8} 5m {:<8} boot {}\n",
        snap.requests,
        rate(Window::OneMin),
        rate(Window::FiveMin),
        snap.cumulative_rps(),
    ));
    if let Some(prev) = prev {
        let before = prev.counter(&snap.name("requests")).unwrap_or(0);
        let delta = snap.requests.saturating_sub(before);
        let inst = if dt_secs > 0.0 {
            (delta as f64 / dt_secs).round() as u64
        } else {
            0
        };
        out.push_str(&format!(
            "             since last poll: {delta} reqs ({inst} rps)\n"
        ));
    }

    // Latency: windowed percentiles vs the cumulative distribution.
    for (label, w) in [("1m", Window::OneMin), ("5m", Window::FiveMin)] {
        if let Some(stats) = snap.windowed_latency(w) {
            out.push_str(&format!(
                "  latency {label} p50 {:<10} p90 {:<10} p99 {:<10} n={}\n",
                fmt_ns(stats.p50),
                fmt_ns(stats.p90),
                fmt_ns(stats.p99),
                stats.count
            ));
        }
    }
    if let Some(h) = cur.histogram(&snap.name("request_ns")) {
        out.push_str(&format!(
            "  latency ∞  p50 {:<10} p90 {:<10} p99 {:<10} n={}\n",
            fmt_ns(h.percentile(50)),
            fmt_ns(h.percentile(90)),
            fmt_ns(h.percentile(99)),
            h.count
        ));
    }

    // Status mix.
    let mix = snap.status_mix();
    if !mix.is_empty() {
        out.push_str("  status    ");
        for (code, n) in &mix {
            out.push_str(&format!(" {code}:{n}"));
        }
        out.push('\n');
    }

    // Cache and concurrency.
    if let Some(pct) = snap.cache_hit_pct() {
        out.push_str(&format!("  cache      hit-rate {pct}%\n"));
    }
    // Snapshot provenance: whether this process warm-started from a
    // `--snapshot-in` file, and what the restore cost/bought.
    if let Some((warm, _)) = cur.gauge("serve.snapshot.warm") {
        if warm == 1 {
            let load_ns = cur.gauge("serve.snapshot.load_ns").map_or(0, |(v, _)| v);
            let restored = cur
                .gauge("serve.snapshot.cache_entries_restored")
                .map_or(0, |(v, _)| v);
            out.push_str(&format!(
                "  snapshot   warm ({restored} cache entries restored in {})\n",
                fmt_ns(load_ns)
            ));
        } else {
            out.push_str("  snapshot   cold\n");
        }
    }
    if let Some((live, peak)) = cur.gauge(&snap.name("inflight")) {
        out.push_str(&format!("  inflight   {live} (peak {peak})\n"));
    }

    // Cluster targets: one row per shard, with dark shards flagged as
    // loudly as lossy telemetry — a shard that serves nothing is the
    // routing bug (or outage) this dashboard exists to surface.
    let shards = snap.shard_rows();
    if !shards.is_empty() {
        out.push_str(&format!("\n  shards     {}", shards.len()));
        if let Some((pct, _)) = cur.gauge("router.load_imbalance") {
            out.push_str(&format!(" — load imbalance {pct}% (100 = even)"));
        }
        out.push('\n');
        for row in &shards {
            out.push_str(&format!(
                "    shard {:<4} reqs {:<10} rps 1m {:<6} p99 {:<10} {}{}\n",
                row.index,
                row.requests,
                row.rps_1m
                    .map_or_else(|| "n/a".to_string(), |r| r.to_string()),
                fmt_ns(row.p99_ns),
                row.health_str(),
                if row.dark { "  !! SHARD DARK" } else { "" },
            ));
        }
    }

    // Tracing: capture counters, with lossy telemetry flagged loudly —
    // a nonzero drop count means the span cap or the access-log queue
    // was exceeded, i.e. the observability data itself is incomplete.
    if let Some((captured, _)) = cur.gauge("serve.trace.captured") {
        let seen = cur.gauge("serve.trace.seen").map_or(0, |(v, _)| v);
        out.push_str(&format!("  traces     captured {captured} of {seen}\n"));
    }
    // Profiling: sampler totals from the report's profile section (v4),
    // falling back to the `profile.*` counters for reports that carry
    // the counters but not the section.
    let profile_samples = cur
        .profile()
        .map(|p| p.samples)
        .or_else(|| cur.counter("profile.samples"));
    let profile_dropped = cur
        .profile()
        .map(|p| p.dropped)
        .or_else(|| cur.counter("profile.dropped_samples"))
        .unwrap_or(0);
    if let Some(samples) = profile_samples {
        out.push_str(&format!(
            "  profile    {samples} samples, {profile_dropped} dropped\n"
        ));
    }
    let dropped_spans = cur.gauge("serve.trace.dropped_spans").map_or(0, |(v, _)| v);
    let dropped_lines = cur.gauge("serve.log.dropped_lines").map_or(0, |(v, _)| v);
    if dropped_spans > 0 || dropped_lines > 0 || profile_dropped > 0 {
        out.push_str(&format!(
            "  !! LOSSY TELEMETRY  dropped spans {dropped_spans}, dropped log lines {dropped_lines}, dropped profile samples {profile_dropped}\n"
        ));
    }

    // Hottest histograms.
    let hot = snap.hottest_histograms(top);
    if !hot.is_empty() {
        out.push_str("\n  hottest histograms (by count):\n");
        for (name, count, p99) in hot {
            out.push_str(&format!(
                "    {name:<28} n={count:<10} p99={}\n",
                fmt_ns(p99)
            ));
        }
    }
    out
}

/// Render the `--once` machine-readable snapshot: one `key value` per
/// line, stable keys, no alignment — for shell pipelines and CI.
pub fn render_once(cur: &Report) -> String {
    let snap = Snapshot::new(cur);
    let w1m = snap.windowed_latency(Window::OneMin).unwrap_or_default();
    let cum_p99 = cur
        .histogram(&snap.name("request_ns"))
        .map_or(0, |h| h.percentile(99));
    let (inflight, inflight_peak) = cur.gauge(&snap.name("inflight")).unwrap_or((0, 0));
    let mut out = String::new();
    out.push_str(&format!("schema_version {}\n", cur.schema_version()));
    out.push_str(&format!("requests_total {}\n", snap.requests));
    out.push_str(&format!(
        "rps_1m {}\n",
        snap.windowed_rate(Window::OneMin).unwrap_or(0)
    ));
    out.push_str(&format!(
        "rps_5m {}\n",
        snap.windowed_rate(Window::FiveMin).unwrap_or(0)
    ));
    out.push_str(&format!("rps_cumulative {}\n", snap.cumulative_rps()));
    out.push_str(&format!("p50_1m_ns {}\n", w1m.p50));
    out.push_str(&format!("p99_1m_ns {}\n", w1m.p99));
    out.push_str(&format!("p99_cumulative_ns {cum_p99}\n"));
    out.push_str(&format!("inflight {inflight}\n"));
    out.push_str(&format!("inflight_peak {inflight_peak}\n"));
    out.push_str(&format!(
        "cache_hit_pct {}\n",
        snap.cache_hit_pct().unwrap_or(0)
    ));
    out.push_str(&format!(
        "errors_5xx_total {}\n",
        cur.counter(&snap.name("errors_5xx"))
            .or_else(|| cur.counter(&snap.name("errors")))
            .unwrap_or(0)
    ));
    let gauge = |name: &str| cur.gauge(name).map_or(0, |(v, _)| v);
    out.push_str(&format!("traces_seen {}\n", gauge("serve.trace.seen")));
    out.push_str(&format!(
        "traces_captured {}\n",
        gauge("serve.trace.captured")
    ));
    out.push_str(&format!(
        "dropped_spans {}\n",
        gauge("serve.trace.dropped_spans")
    ));
    out.push_str(&format!(
        "dropped_log_lines {}\n",
        gauge("serve.log.dropped_lines")
    ));
    out.push_str(&format!(
        "profile_samples {}\n",
        cur.profile()
            .map(|p| p.samples)
            .or_else(|| cur.counter("profile.samples"))
            .unwrap_or(0)
    ));
    out.push_str(&format!(
        "profile_dropped {}\n",
        cur.profile()
            .map(|p| p.dropped)
            .or_else(|| cur.counter("profile.dropped_samples"))
            .unwrap_or(0)
    ));
    // Snapshot provenance — only present on serve targets (the gauge is
    // always set at boot, warm or cold), so routers emit nothing here.
    if let Some((warm, _)) = cur.gauge("serve.snapshot.warm") {
        out.push_str(&format!(
            "snapshot {}\n",
            if warm == 1 { "warm" } else { "cold" }
        ));
        out.push_str(&format!(
            "snapshot_load_ns {}\n",
            gauge("serve.snapshot.load_ns")
        ));
        out.push_str(&format!(
            "cache_entries_restored {}\n",
            gauge("serve.snapshot.cache_entries_restored")
        ));
    }
    // Cluster targets: stable numeric keys per shard so CI can assert
    // "no shard went dark" without parsing the dashboard layout. A
    // shard with no health gauge reads as down (2).
    let shards = snap.shard_rows();
    if !shards.is_empty() {
        out.push_str(&format!("shards {}\n", shards.len()));
        for row in &shards {
            let i = row.index;
            out.push_str(&format!("shard{i}_requests {}\n", row.requests));
            out.push_str(&format!("shard{i}_rps_1m {}\n", row.rps_1m.unwrap_or(0)));
            out.push_str(&format!("shard{i}_p99_ns {}\n", row.p99_ns));
            out.push_str(&format!("shard{i}_health {}\n", row.health.unwrap_or(2)));
            out.push_str(&format!("shard{i}_dark {}\n", u64::from(row.dark)));
        }
    }
    out
}

/// Run the monitor until interrupted (or once, with `--once`). Returns
/// `Ok(false)` — the perf-regression exit code — when the poll loop gave
/// up after repeated fetch failures.
pub fn run(
    config: &MonitorConfig,
    out: &mut impl std::io::Write,
) -> Result<bool, Box<dyn std::error::Error>> {
    if config.once {
        let report = fetch_report(&config.host, config.port)?;
        write!(out, "{}", render_once(&report))?;
        return Ok(true);
    }
    let mut prev: Option<Report> = None;
    let mut failures = 0u32;
    loop {
        match fetch_report(&config.host, config.port) {
            Ok(report) => {
                failures = 0;
                let frame = render_frame(
                    prev.as_ref(),
                    &report,
                    config.interval_secs as f64,
                    config.top,
                );
                // Home the cursor and clear before each frame: an
                // in-place dashboard, not a scrolling log.
                write!(out, "\x1b[H\x1b[2J{frame}")?;
                out.flush()?;
                prev = Some(report);
            }
            Err(e) => {
                failures += 1;
                writeln!(out, "monitor: fetch failed ({e}) [{failures}]")?;
                if failures >= MAX_CONSECUTIVE_FAILURES {
                    writeln!(out, "monitor: giving up after {failures} failures")?;
                    return Ok(false);
                }
            }
        }
        std::thread::sleep(Duration::from_secs(config.interval_secs));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let base = bikron_obs::Registry::new();
        let win = bikron_obs::WindowRegistry::new();
        let requests = win.counter(&base, "serve.requests");
        let latency = win.histogram(&base, "serve.request_ns");
        for i in 0..120u64 {
            requests.inc();
            latency.record(1_000_000 + i * 10_000);
        }
        base.counter("serve.status.200").add(118);
        base.counter("serve.status.404").add(2);
        base.counter("serve.cache.hits").add(90);
        base.counter("serve.cache.misses").add(30);
        base.gauge("serve.uptime_ms").set(60_000);
        base.gauge("serve.snapshot.warm").set(1);
        base.gauge("serve.snapshot.load_ns").set(2_000_000);
        base.gauge("serve.snapshot.cache_entries_restored").set(42);
        let g = base.gauge("serve.inflight");
        g.raise(3);
        g.lower(2);
        let mut report = base.snapshot();
        report.set_meta("tool", "bikron-serve");
        win.snapshot_into(&mut report);
        report
    }

    /// A shard report as `bikron serve --shard` exposes it, sized so
    /// the 1-minute window rate is `events / 60` requests per second.
    fn shard_report(events: u64) -> Report {
        let base = bikron_obs::Registry::new();
        let win = bikron_obs::WindowRegistry::new();
        let requests = win.counter(&base, "serve.requests");
        let latency = win.histogram(&base, "serve.request_ns");
        for _ in 0..events {
            requests.inc();
            latency.record(1_500_000);
        }
        let mut report = base.snapshot();
        win.snapshot_into(&mut report);
        report
    }

    /// A router aggregate over two shards. With `shard1_dead` the second
    /// shard's scrape is missing and its health gauge reads down.
    fn router_report(shard1_dead: bool) -> Report {
        let base = bikron_obs::Registry::new();
        let win = bikron_obs::WindowRegistry::new();
        let requests = win.counter(&base, "router.requests");
        let latency = win.histogram(&base, "router.request_ns");
        for i in 0..180u64 {
            requests.inc();
            latency.record(2_000_000 + i * 10_000);
        }
        base.counter("router.status.200").add(178);
        base.counter("router.status.503").add(2);
        base.gauge("router.uptime_ms").set(60_000);
        base.gauge("router.shards").set(2);
        base.gauge("router.load_imbalance").set(110);
        base.gauge("router.shard0.health").set(0);
        base.gauge("router.shard1.health")
            .set(if shard1_dead { 2 } else { 0 });
        let mut report = base.snapshot();
        report.set_meta("tool", "bikron-router");
        report.set_meta("shards", "2");
        win.snapshot_into(&mut report);
        report.merge_prefixed("shard0.", &shard_report(120));
        if !shard1_dead {
            report.merge_prefixed("shard1.", &shard_report(60));
        }
        report
    }

    #[test]
    fn parse_accepts_url_forms() {
        for (input, host, port) in [
            ("http://127.0.0.1:7474", "127.0.0.1", 7474),
            ("http://localhost:8080/metrics", "localhost", 8080),
            ("10.0.0.1:9999", "10.0.0.1", 9999),
            ("myhost", "myhost", 7474),
        ] {
            let cfg = MonitorConfig::parse(&[input.to_string()]).unwrap();
            assert_eq!(cfg.host, host, "{input}");
            assert_eq!(cfg.port, port, "{input}");
            assert_eq!(cfg.interval_secs, DEFAULT_INTERVAL_SECS);
            assert!(!cfg.once);
        }
        assert!(MonitorConfig::parse(&[]).is_err());
        assert!(MonitorConfig::parse(&["https://x:1".into()]).is_err());
        assert!(MonitorConfig::parse(&["h:1".into(), "--frob".into()]).is_err());
    }

    #[test]
    fn url_errors_name_monitor() {
        let err = MonitorConfig::parse(&["https://h:1".into()]).unwrap_err();
        assert_eq!(err, "monitor: https is not supported (std-only client)");
        let err = MonitorConfig::parse(&["h:port".into()]).unwrap_err();
        assert!(err.starts_with("monitor: bad port"), "{err}");
    }

    #[test]
    fn parse_flags() {
        let cfg = MonitorConfig::parse(&[
            "http://h:1".into(),
            "--interval".into(),
            "7".into(),
            "--once".into(),
            "--top".into(),
            "2".into(),
        ])
        .unwrap();
        assert_eq!(cfg.interval_secs, 7);
        assert!(cfg.once);
        assert_eq!(cfg.top, 2);
        // Interval 0 clamps to 1 (no busy-loop).
        let cfg = MonitorConfig::parse(&["h:1".into(), "--interval".into(), "0".into()]).unwrap();
        assert_eq!(cfg.interval_secs, 1);
    }

    #[test]
    fn frame_shows_windowed_and_cumulative_signals() {
        let report = sample_report();
        let frame = render_frame(None, &report, 2.0, 5);
        assert!(frame.contains("bikron-serve"), "{frame}");
        assert!(frame.contains("total 120"), "{frame}");
        // 120 requests over a 60s window = 2/s windowed; 60s uptime = 2/s boot.
        assert!(frame.contains("rps 1m 2"), "{frame}");
        assert!(frame.contains("latency 1m"), "{frame}");
        assert!(frame.contains("latency ∞"), "{frame}");
        assert!(frame.contains("200:118"), "{frame}");
        assert!(frame.contains("404:2"), "{frame}");
        assert!(frame.contains("hit-rate 75%"), "{frame}");
        assert!(frame.contains("inflight   1 (peak 3)"), "{frame}");
        assert!(frame.contains("serve.request_ns"), "{frame}");
    }

    #[test]
    fn frame_diffs_against_previous_poll() {
        let report = sample_report();
        let mut older = sample_report();
        // Rewind the "previous" snapshot by dropping its counter.
        older = {
            let json = older
                .to_json()
                .replace("\"serve.requests\": 120", "\"serve.requests\": 100");
            Report::from_json(&json).unwrap()
        };
        let frame = render_frame(Some(&older), &report, 2.0, 5);
        assert!(
            frame.contains("since last poll: 20 reqs (10 rps)"),
            "{frame}"
        );
    }

    #[test]
    fn once_mode_is_machine_readable() {
        let report = sample_report();
        let text = render_once(&report);
        let mut keys = std::collections::BTreeSet::new();
        for line in text.lines() {
            let (k, v) = line.split_once(' ').expect("key value");
            if k == "snapshot" {
                assert!(v == "warm" || v == "cold", "{line}");
            } else {
                assert!(v.parse::<u64>().is_ok(), "{line}");
            }
            keys.insert(k.to_string());
        }
        for k in [
            "schema_version",
            "requests_total",
            "rps_1m",
            "rps_5m",
            "rps_cumulative",
            "p50_1m_ns",
            "p99_1m_ns",
            "p99_cumulative_ns",
            "inflight",
            "inflight_peak",
            "cache_hit_pct",
            "profile_samples",
            "profile_dropped",
            "snapshot",
            "snapshot_load_ns",
            "cache_entries_restored",
        ] {
            assert!(keys.contains(k), "missing {k} in {text}");
        }
        assert!(text.contains("rps_1m 2\n"), "{text}");
        assert!(text.contains("snapshot warm\n"), "{text}");
        assert!(text.contains("cache_entries_restored 42\n"), "{text}");
    }

    #[test]
    fn snapshot_state_renders_warm_and_cold() {
        // The canned report warm-started: both renderers say so.
        let frame = render_frame(None, &sample_report(), 2.0, 5);
        assert!(
            frame.contains("snapshot   warm (42 cache entries restored in 2.0ms)"),
            "{frame}"
        );
        // A cold boot (gauge present, zero) reads cold.
        let base = bikron_obs::Registry::new();
        base.counter("serve.requests").add(1);
        base.gauge("serve.snapshot.warm").set(0);
        base.gauge("serve.snapshot.load_ns").set(0);
        base.gauge("serve.snapshot.cache_entries_restored").set(0);
        let cold = base.snapshot();
        assert!(
            render_frame(None, &cold, 2.0, 5).contains("snapshot   cold"),
            "cold frame"
        );
        let once = render_once(&cold);
        assert!(once.contains("snapshot cold\n"), "{once}");
        assert!(once.contains("cache_entries_restored 0\n"), "{once}");
        // A target with no snapshot gauge at all (router, old server)
        // emits no snapshot keys.
        let bare = bikron_obs::Registry::new();
        bare.counter("router.requests").add(1);
        let none = render_once(&bare.snapshot());
        assert!(!none.contains("snapshot"), "{none}");
    }

    #[test]
    fn v2_report_renders_without_windows() {
        // A report with no windowed series (old server) must not panic
        // and must mark windowed fields n/a or 0.
        let base = bikron_obs::Registry::new();
        base.counter("serve.requests").add(10);
        let report = base.snapshot();
        let frame = render_frame(None, &report, 2.0, 5);
        assert!(frame.contains("rps 1m n/a"), "{frame}");
        let once = render_once(&report);
        assert!(once.contains("rps_1m 0"), "{once}");
    }

    #[test]
    fn lossy_telemetry_is_flagged() {
        let base = bikron_obs::Registry::new();
        base.counter("serve.requests").add(1);
        base.gauge("serve.trace.seen").set(40);
        base.gauge("serve.trace.captured").set(3);
        base.gauge("serve.trace.dropped_spans").set(2);
        base.gauge("serve.log.dropped_lines").set(5);
        let report = base.snapshot();
        let frame = render_frame(None, &report, 2.0, 5);
        assert!(frame.contains("captured 3 of 40"), "{frame}");
        assert!(frame.contains("LOSSY TELEMETRY"), "{frame}");
        assert!(
            frame.contains("dropped spans 2, dropped log lines 5"),
            "{frame}"
        );
        let once = render_once(&report);
        assert!(once.contains("traces_seen 40\n"), "{once}");
        assert!(once.contains("traces_captured 3\n"), "{once}");
        assert!(once.contains("dropped_spans 2\n"), "{once}");
        assert!(once.contains("dropped_log_lines 5\n"), "{once}");
        // A server that has dropped nothing gets no warning line.
        let clean = render_frame(None, &sample_report(), 2.0, 5);
        assert!(!clean.contains("LOSSY"), "{clean}");
    }

    #[test]
    fn profile_counters_render_and_drops_are_lossy() {
        // A report whose sampler dropped nothing: informational line,
        // no warning banner.
        let base = bikron_obs::Registry::new();
        base.counter("serve.requests").add(1);
        let mut report = base.snapshot();
        report.set_profile(bikron_obs::ProfileSnapshot {
            hz: 99,
            samples: 500,
            dropped: 0,
            idle: 20,
            stacks: [("serve;evaluate".to_string(), 500)].into_iter().collect(),
        });
        let frame = render_frame(None, &report, 2.0, 5);
        assert!(
            frame.contains("profile    500 samples, 0 dropped"),
            "{frame}"
        );
        assert!(!frame.contains("LOSSY"), "{frame}");
        let once = render_once(&report);
        assert!(once.contains("profile_samples 500\n"), "{once}");
        assert!(once.contains("profile_dropped 0\n"), "{once}");

        // Dropped samples mean the flamegraph is missing weight — that
        // joins the lossy-telemetry banner.
        let mut lossy = base.snapshot();
        lossy.set_profile(bikron_obs::ProfileSnapshot {
            hz: 99,
            samples: 500,
            dropped: 7,
            idle: 0,
            stacks: std::collections::BTreeMap::new(),
        });
        let frame = render_frame(None, &lossy, 2.0, 5);
        assert!(
            frame.contains("profile    500 samples, 7 dropped"),
            "{frame}"
        );
        assert!(frame.contains("LOSSY TELEMETRY"), "{frame}");
        assert!(frame.contains("dropped profile samples 7"), "{frame}");
        assert!(render_once(&lossy).contains("profile_dropped 7\n"));

        // Counters-only fallback (no profile section): same line.
        let counters = bikron_obs::Registry::new();
        counters.counter("serve.requests").add(1);
        counters.counter("profile.samples").add(33);
        counters.counter("profile.dropped_samples").add(0);
        let frame = render_frame(None, &counters.snapshot(), 2.0, 5);
        assert!(
            frame.contains("profile    33 samples, 0 dropped"),
            "{frame}"
        );

        // No sampler at all: no profile line.
        assert!(
            !render_frame(None, &sample_report(), 2.0, 5).contains("profile "),
            "no sampler"
        );
    }

    #[test]
    fn router_frame_switches_prefix_and_lists_shards() {
        let report = router_report(false);
        let frame = render_frame(None, &report, 2.0, 5);
        assert!(frame.contains("bikron-router"), "{frame}");
        assert!(frame.contains("total 180"), "{frame}");
        // 180 requests in the 1m window = 3/s, read from router.requests.
        assert!(frame.contains("rps 1m 3"), "{frame}");
        assert!(frame.contains("200:178"), "{frame}");
        assert!(frame.contains("503:2"), "{frame}");
        assert!(frame.contains("shards     2"), "{frame}");
        assert!(frame.contains("load imbalance 110%"), "{frame}");
        assert!(frame.contains("shard 0"), "{frame}");
        assert!(frame.contains("shard 1"), "{frame}");
        // Both shards answered traffic this window: nothing is dark.
        assert!(!frame.contains("SHARD DARK"), "{frame}");
        assert!(frame.contains("ok"), "{frame}");
    }

    #[test]
    fn dead_shard_is_flagged_dark() {
        let report = router_report(true);
        let frame = render_frame(None, &report, 2.0, 5);
        assert!(frame.contains("SHARD DARK"), "{frame}");
        assert!(frame.contains("down"), "{frame}");
        // Shard 0 is healthy; exactly one row is flagged.
        assert_eq!(frame.matches("SHARD DARK").count(), 1, "{frame}");
    }

    #[test]
    fn router_once_emits_numeric_shard_keys() {
        let text = render_once(&router_report(true));
        for line in text.lines() {
            let (_, v) = line.split_once(' ').expect("key value");
            assert!(v.parse::<u64>().is_ok(), "{line}");
        }
        assert!(text.contains("shards 2\n"), "{text}");
        assert!(text.contains("requests_total 180\n"), "{text}");
        assert!(text.contains("rps_1m 3\n"), "{text}");
        assert!(text.contains("shard0_requests 120\n"), "{text}");
        assert!(text.contains("shard0_rps_1m 2\n"), "{text}");
        assert!(text.contains("shard0_health 0\n"), "{text}");
        assert!(text.contains("shard0_dark 0\n"), "{text}");
        assert!(text.contains("shard1_requests 0\n"), "{text}");
        assert!(text.contains("shard1_health 2\n"), "{text}");
        assert!(text.contains("shard1_dark 1\n"), "{text}");
        // Router reports fold 5xx into router.errors.
        assert!(text.contains("errors_5xx_total 0\n"), "{text}");
        // A single-node report emits no shard keys at all.
        assert!(!render_once(&sample_report()).contains("shard"), "single");
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_300_000), "2.3ms");
        assert_eq!(fmt_ns(1_200_000_000), "1.2s");
    }
}
