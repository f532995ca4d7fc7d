//! Benchmark-side spans: one record per call into a crate's public
//! function, kept in memory and written out when the run ends. Nothing
//! inside the crates is instrumented; a span covers the call as seen
//! from outside.

use std::io::Write;
use std::time::Instant;

/// One timed call: name, interval (ns since the tracer's epoch), the
/// span that caused it, and the request or iteration it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder owned by one thread. A disabled tracer runs the
/// closures and records nothing.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer; `id_base` keeps ids from different threads disjoint.
    pub fn new(epoch: Instant, enabled: bool, id_base: u64) -> Tracer {
        Tracer {
            epoch,
            enabled,
            next_id: id_base,
            spans: Vec::new(),
        }
    }

    /// Open a span now; close it with [`Tracer::end`]. Returns its id.
    pub fn begin(&mut self, name: &'static str, parent: Option<u64>, req: u64) -> u64 {
        self.next_id += 1;
        if self.enabled {
            let now = self.epoch.elapsed().as_nanos() as u64;
            self.spans.push(Span {
                id: self.next_id,
                parent,
                name,
                req,
                start_ns: now,
                end_ns: now,
            });
        }
        self.next_id
    }

    /// Close span `id` now and return its duration in ns (0 when
    /// disabled).
    pub fn end(&mut self, id: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        match self.spans.iter_mut().rev().find(|s| s.id == id) {
            Some(s) => {
                s.end_ns = now;
                s.dur_ns()
            }
            None => 0,
        }
    }

    /// Time `f` as a span and return its result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, req);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Median duration (ns) of the spans called `name`. A probe that
/// recorded no such span is a fault of the benchmark, never a 0.
pub fn median_ns(spans: &[Span], name: &str) -> f64 {
    let durations: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect();
    crate::stats::median(&durations).unwrap_or_else(|| panic!("no {name} spans recorded"))
}

/// Self time of each span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.id, s.dur_ns() - covered.min(s.dur_ns()))
        })
        .collect()
}

/// Total and self time per span name, sorted by self time, descending.
pub fn self_time_table(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs: std::collections::HashMap<u64, u64> = self_times(spans).into_iter().collect();
    let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64, u64)> = Default::default();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += selfs[&s.id];
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(n, (c, t, s))| (n, c, t, s))
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.3));
    rows
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.req,
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            req: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),  // overlaps 2: union is [10, 50)
            span(4, Some(1), 90, 120), // clipped to the parent's end
            span(5, Some(3), 25, 35),
        ];
        let selfs: std::collections::HashMap<u64, u64> = self_times(&spans).into_iter().collect();
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 30 - 10);
        assert_eq!(selfs[&5], 10);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_call() {
        let mut t = Tracer::new(Instant::now(), false, 0);
        assert_eq!(t.span("a", None, 1, || 7), 7);
        assert!(t.into_spans().is_empty());
        let mut t = Tracer::new(Instant::now(), true, 100);
        let id = t.begin("a", None, 1);
        t.span("b", Some(id), 1, || ());
        t.end(id);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(101));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
