//! `perfbench` — the measuring half of the bikron benchmark. `run.py`
//! builds it, starts the `bikron` processes a workload needs, and calls
//! it; it prints one JSON object as its last stdout line.
//!
//! ```text
//! perfbench gen  --seed N --seconds S --trace 0|1 [--spans-out FILE]
//! perfbench load --workload serve-uniform|cluster-batch-zipf --addr HOST:PORT
//!                [--shards HOST:PORT,...] --seed N --seconds S --trace 0|1
//!                --rate R --conns C --server-threads T
//!                [--stall-ms MS --admin-token T]
//!                [--plant-wrong] [--drop-conn] [--spans-out FILE]
//! ```

mod gen;
mod http;
mod load;
mod spans;
mod stats;

use std::fmt::Write as _;

/// Spans written to `--spans-out` at most (all are used for self time).
const MAX_SPANS_WRITTEN: usize = 250_000;

/// What one run reports back to run.py.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, String)>,
    notes: Vec<(String, String)>,
    spans: Option<Vec<spans::Span>>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} not measured yet"))
            .1
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn write_spans(&mut self, spans: Vec<spans::Span>) {
        self.spans = Some(spans);
    }

    fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (n, v, u)) in self.metrics.iter().enumerate() {
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}",
                if i > 0 { ", " } else { "" }
            );
        }
        s.push_str("}, \"notes\": {");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            let _ = write!(
                s,
                "{}\"{k}\": \"{}\"",
                if i > 0 { ", " } else { "" },
                v.replace('"', "'")
            );
        }
        s.push_str("}}");
        s
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// This process's peak resident set (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn num<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match flag(args, name) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| die(&format!("bad {name} {v:?}"))),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed: u64 = num(&args, "--seed", 1);
    let seconds: f64 = num(&args, "--seconds", 10.0);
    let trace = num::<u8>(&args, "--trace", 0) == 1;
    let mut out = match args.first().map(String::as_str) {
        Some("gen") => gen::run(seed, seconds, trace),
        Some("load") => {
            let workload = match flag(&args, "--workload") {
                Some("serve-uniform") => load::Workload::ServeUniform,
                Some("cluster-batch-zipf") => load::Workload::ClusterBatchZipf,
                other => die(&format!("unknown --workload {other:?}")),
            };
            load::run(&load::LoadArgs {
                workload,
                addr: flag(&args, "--addr")
                    .unwrap_or_else(|| die("--addr required"))
                    .to_string(),
                shards: flag(&args, "--shards")
                    .map(|s| s.split(',').map(str::to_string).collect())
                    .unwrap_or_default(),
                seed,
                seconds,
                trace,
                rate: num(&args, "--rate", 1000.0),
                conns: num(&args, "--conns", 2),
                server_threads: num(&args, "--server-threads", 2),
                stall_ms: num(&args, "--stall-ms", 0),
                admin_token: flag(&args, "--admin-token").unwrap_or("").to_string(),
                plant_wrong: args.iter().any(|a| a == "--plant-wrong"),
                drop_conn: args.iter().any(|a| a == "--drop-conn"),
            })
        }
        _ => die("usage: perfbench gen|load ... (see run.py)"),
    };
    if trace {
        let spans = out.spans.take().unwrap_or_default();
        let table = spans::self_time_table(&spans);
        let total_self: u64 = table.iter().map(|r| r.3).sum();
        eprintln!("perfbench: self time by span ({} spans)", spans.len());
        for (name, count, total, own) in table.iter().take(20) {
            eprintln!(
                "  {name:<32} n={count:<8} total={:>10.3}ms self={:>10.3}ms",
                *total as f64 / 1e6,
                *own as f64 / 1e6
            );
        }
        out.note("spans", spans.len());
        out.note(
            "top_self_span",
            table.first().map_or(String::new(), |r| {
                format!("{} {:.3}", r.0, r.3 as f64 / total_self.max(1) as f64)
            }),
        );
        if let Some(path) = flag(&args, "--spans-out") {
            // A serving run records over a million spans; the file keeps
            // the first ones so that a trace stays a few tens of MB.
            let kept = &spans[..spans.len().min(MAX_SPANS_WRITTEN)];
            out.note("spans_written", kept.len());
            if let Err(e) = spans::write_jsonl(std::path::Path::new(path), kept) {
                eprintln!("perfbench: writing spans to {path}: {e}");
            }
        }
    }
    println!("{}", out.to_json());
}
