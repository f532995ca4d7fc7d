//! Cluster-level aggregation: re-emitting scraped shard reports as
//! `shard`-labelled Prometheus families. (Batch arrays are split and
//! re-joined by [`bikron_serve::batch`], which owns their format.)

use std::collections::BTreeSet;

use bikron_obs::prom::sanitize_name;
use bikron_obs::window::WindowKind;
use bikron_obs::Report;

/// Field extractor for one exported timer family.
type TimerPick = fn(&bikron_obs::TimerSnapshot) -> u64;
/// Field extractor for one exported window-stats family.
type WindowPick = fn(&bikron_obs::WindowStats) -> u64;

fn type_line(out: &mut String, name: &str, kind: &str) {
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

fn sample(out: &mut String, name: &str, labels: &str, value: u64) {
    out.push_str(name);
    out.push_str(labels);
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// Render every scraped shard [`Report`] as one set of `shard`-labelled
/// Prometheus families, appended after the router's own unlabelled
/// exposition.
///
/// The grouping matters: exposition format allows each family exactly
/// one `# TYPE` line, and [`bikron_obs::prom::check_exposition`] (which
/// CI runs on a live cluster scrape) rejects duplicates. So this emits
/// the TYPE once per family (union of names across shards) followed by
/// one sample per shard that reports it. Shard metric names (`serve.*`)
/// sanitise to `bikron_serve_*`, disjoint from the router's own
/// `bikron_router_*` families, so the concatenation stays valid. Shard
/// report *meta* is intentionally dropped — a second
/// `bikron_report_info` TYPE would collide with the router's own.
pub fn shard_labelled_exposition(shards: &[(usize, &Report)]) -> String {
    let mut out = String::new();
    let labels = |shard: usize| format!("{{shard=\"{shard}\"}}");

    let mut names: BTreeSet<&str> = BTreeSet::new();
    names.extend(
        shards
            .iter()
            .flat_map(|(_, r)| r.counters().map(|(n, _)| n)),
    );
    for name in std::mem::take(&mut names) {
        let n = sanitize_name(name);
        type_line(&mut out, &n, "counter");
        for (shard, report) in shards {
            if let Some(v) = report.counter(name) {
                sample(&mut out, &n, &labels(*shard), v);
            }
        }
    }

    names.extend(shards.iter().flat_map(|(_, r)| r.gauges().map(|(n, _)| n)));
    for name in std::mem::take(&mut names) {
        let n = sanitize_name(name);
        type_line(&mut out, &n, "gauge");
        for (shard, report) in shards {
            if let Some((v, _)) = report.gauge(name) {
                sample(&mut out, &n, &labels(*shard), v);
            }
        }
        let peak_name = format!("{n}_peak");
        type_line(&mut out, &peak_name, "gauge");
        for (shard, report) in shards {
            if let Some((_, peak)) = report.gauge(name) {
                sample(&mut out, &peak_name, &labels(*shard), peak);
            }
        }
    }

    names.extend(shards.iter().flat_map(|(_, r)| r.timers().map(|(n, _)| n)));
    for name in std::mem::take(&mut names) {
        let n = sanitize_name(name);
        let picks: [(&str, TimerPick); 2] =
            [("_count", |t| t.count), ("_ns_total", |t| t.total_ns)];
        for (suffix, pick) in picks {
            let family = format!("{n}{suffix}");
            type_line(&mut out, &family, "counter");
            for (shard, report) in shards {
                if let Some(t) = report.timer(name) {
                    sample(&mut out, &family, &labels(*shard), pick(t));
                }
            }
        }
    }

    names.extend(
        shards
            .iter()
            .flat_map(|(_, r)| r.histograms().map(|(n, _)| n)),
    );
    for name in std::mem::take(&mut names) {
        let n = sanitize_name(name);
        type_line(&mut out, &n, "histogram");
        for (shard, report) in shards {
            let Some(h) = report.histogram(name) else {
                continue;
            };
            let mut cumulative = 0u64;
            for &(le, count) in &h.buckets {
                cumulative += count;
                sample(
                    &mut out,
                    &n,
                    &format!("_bucket{{le=\"{le}\",shard=\"{shard}\"}}"),
                    cumulative,
                );
            }
            sample(
                &mut out,
                &n,
                &format!("_bucket{{le=\"+Inf\",shard=\"{shard}\"}}"),
                h.count,
            );
            sample(&mut out, &format!("{n}_sum"), &labels(*shard), h.sum);
            sample(&mut out, &format!("{n}_count"), &labels(*shard), h.count);
        }
    }

    names.extend(shards.iter().flat_map(|(_, r)| r.windows().map(|(n, _)| n)));
    for name in std::mem::take(&mut names) {
        let n = sanitize_name(name);
        let any_histogram = shards
            .iter()
            .filter_map(|(_, r)| r.window(name))
            .any(|w| w.kind == WindowKind::Histogram);
        let mut families: Vec<(String, WindowPick)> = vec![
            (format!("{n}_rate_per_sec"), |s| s.rate_per_sec),
            (format!("{n}_window_count"), |s| s.count),
        ];
        if any_histogram {
            families.push((format!("{n}_window_p50"), |s| s.p50));
            families.push((format!("{n}_window_p90"), |s| s.p90));
            families.push((format!("{n}_window_p99"), |s| s.p99));
        }
        for (family, pick) in families {
            type_line(&mut out, &family, "gauge");
            for (shard, report) in shards {
                let Some(w) = report.window(name) else {
                    continue;
                };
                for (label, stats) in [("1m", &w.w1m), ("5m", &w.w5m)] {
                    sample(
                        &mut out,
                        &family,
                        &format!("{{window=\"{label}\",shard=\"{shard}\"}}"),
                        pick(stats),
                    );
                }
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bikron_obs::prom::check_exposition;
    use bikron_obs::window::WindowRegistry;
    use bikron_obs::Registry;

    fn shard_report(requests: u64) -> Report {
        let base = Registry::new();
        let win = WindowRegistry::new();
        base.gauge("serve.inflight").set(2);
        {
            let _t = base.phase("serve.build");
        }
        win.counter(&base, "serve.requests").add(requests);
        win.histogram(&base, "serve.request_ns").record(1000);
        let mut r = base.snapshot();
        win.snapshot_into(&mut r);
        r.set_meta("tool", "bikron-serve");
        r
    }

    #[test]
    fn labelled_exposition_passes_checker_after_router_own() {
        let (a, b) = (shard_report(10), shard_report(20));
        let own = Registry::new();
        own.counter("router.requests").inc();
        let mut own_report = own.snapshot();
        own_report.set_meta("tool", "bikron-router");
        let mut text = bikron_obs::prom::to_prometheus(&own_report);
        text.push_str(&shard_labelled_exposition(&[(0, &a), (1, &b)]));
        check_exposition(&text).unwrap();
        assert!(text.contains("bikron_serve_requests{shard=\"0\"} 10"));
        assert!(text.contains("bikron_serve_requests{shard=\"1\"} 20"));
        assert!(text.contains("bikron_serve_request_ns_bucket{le=\"+Inf\",shard=\"1\"} 1"));
        assert!(text.contains("bikron_serve_requests_rate_per_sec{window=\"1m\",shard=\"0\"}"));
        // Exactly one TYPE line per family across both shards.
        assert_eq!(
            text.matches("# TYPE bikron_serve_requests counter").count(),
            1
        );
    }
}
