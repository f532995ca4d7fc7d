//! `gen-table1`: the in-process Table-I pipeline on `unicode_like()`
//! (seed 50), `(A+I_A) ⊗ A`, repeated for the run's duration.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bikron_core::stream::PartitionedStream;
use bikron_core::truth::squares_edge::edge_squares_at;
use bikron_core::truth::FactorStats;
use bikron_core::{GroundTruth, KroneckerProduct, SelfLoopMode};
use bikron_graph::Graph;
use bikron_sparse::semiring::Times;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spans::{median_ns, Tracer};
use crate::stats::{median, Summary};
use crate::{nproc, peak_rss_mb, Outcome};

/// Table I ground truth for `(A+I_A) ⊗ A` on the seed-50 unicode factor.
pub const TABLE1_VERTICES: usize = 753_424;
pub const TABLE1_EDGES: u64 = 4_245_280;
pub const TABLE1_SQUARES: u64 = 445_892_737;
/// Stored (directed) entries `par_for_each_edge` visits: 2 per edge.
pub const TABLE1_ENTRIES: u64 = 8_490_560;
/// Annotated edges per timed block of the block-latency stage: about
/// 1036 blocks per pass, so each pass's pooled p99 has 10 samples beyond
/// it.
const BLOCK: usize = 4096;
/// Set-ups timed before each pipeline pass. `setup_s` is their median,
/// so, like the pass figures, it spans the whole run rather than the
/// host's state during its first half second.
const SETUPS_PER_PASS: usize = 3;
/// Fewest pipeline passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 3;

struct Setup {
    a: Graph,
    sa: FactorStats,
    global: u64,
}

/// Factor build + factor statistics + ground truth: what a user pays
/// before the first edge.
fn setup(t: &mut Tracer, rep: u64) -> Setup {
    let root = t.begin("bench.setup", None, rep);
    let a = t.span(
        "generators.unicode_like",
        Some(root),
        rep,
        bikron_generators::unicode_like::unicode_like,
    );
    let sa = t.span("core.factor_stats", Some(root), rep, || {
        FactorStats::compute(&a).expect("factor stats")
    });
    let global = t.span("core.ground_truth", Some(root), rep, || {
        let prod = KroneckerProduct::new(&a, &a, SelfLoopMode::FactorA).expect("valid product");
        GroundTruth::new(prod)
            .expect("ground truth")
            .global_squares()
            .expect("global squares")
    });
    t.end(root);
    Setup { a, sa, global }
}

/// Checks: counted as attempted operations, mismatches as failures.
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: MISMATCH gen-table1 {what}");
        }
    }
}

/// One pass's stage times (s) and per-block latencies (µs).
struct Pass {
    materialize: f64,
    stream: f64,
    annotate: f64,
    blocks: f64,
    /// Block latencies, one vector per streaming thread.
    block_us: Vec<Vec<f64>>,
}

impl Pass {
    fn total(&self) -> f64 {
        self.materialize + self.stream + self.annotate + self.blocks
    }
}

fn pass(
    s: &Setup,
    prod: &KroneckerProduct<'_>,
    checks: &mut Checks,
    t: &mut Tracer,
    rep: u64,
) -> Pass {
    let root = t.begin("bench.pass", None, rep);
    let t0 = Instant::now();
    let g = t.span("core.materialize", Some(root), rep, || prod.materialize());
    let materialize = t0.elapsed().as_secs_f64();
    checks.check(
        g.num_edges() as u64 == TABLE1_EDGES,
        "materialized edge count",
    );
    drop(g);

    let streamed = AtomicU64::new(0);
    let t0 = Instant::now();
    t.span("core.par_for_each_edge", Some(root), rep, || {
        prod.par_for_each_edge(|_, _| {
            streamed.fetch_add(1, Ordering::Relaxed);
        })
    });
    let stream = t0.elapsed().as_secs_f64();
    checks.check(
        streamed.into_inner() == TABLE1_ENTRIES,
        "streamed entry count",
    );

    let t0 = Instant::now();
    let reduced = t.span("distsim.distributed_generate", Some(root), rep, || {
        bikron_distsim::distributed_generate(prod, &s.sa, &s.sa, nproc())
    });
    let annotate = t0.elapsed().as_secs_f64();
    checks.check(reduced.edges == TABLE1_EDGES, "annotated edge count");
    checks.check(
        reduced.square_mass == 4 * TABLE1_SQUARES,
        "annotated square mass",
    );

    let t0 = Instant::now();
    let (edges, mass, block_us) = t.span("core.annotated_edges", Some(root), rep, || {
        annotated_blocks(prod, &s.sa)
    });
    let blocks = t0.elapsed().as_secs_f64();
    checks.check(
        edges == TABLE1_EDGES && mass == 4 * TABLE1_SQUARES,
        "annotated stream sums",
    );
    t.end(root);
    Pass {
        materialize,
        stream,
        annotate,
        blocks,
        block_us,
    }
}

/// Stream the whole annotated edge set as `nproc` partitions, one
/// thread each, and time every block of [`BLOCK`] edges: the wait a
/// consumer of an annotated stream sees per block. Equal-sized blocks keep
/// the latency distribution free of the gaps uneven partitions would put
/// in it. Returns (edges, Σ squares, per-thread block µs).
fn annotated_blocks(prod: &KroneckerProduct<'_>, sa: &FactorStats) -> (u64, u64, Vec<Vec<f64>>) {
    let threads = nproc();
    let ps = PartitionedStream::new(prod, sa, sa, threads);
    let per_thread: Vec<(u64, u64, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|part| {
                let ps = &ps;
                scope.spawn(move || {
                    let (mut edges, mut mass, mut lat) = (0u64, 0u64, Vec::new());
                    let mut mark = Instant::now();
                    for e in ps.annotated_edges(part) {
                        edges += 1;
                        mass += e.squares;
                        if edges % BLOCK as u64 == 0 {
                            let now = Instant::now();
                            lat.push((now - mark).as_nanos() as f64 / 1e3);
                            mark = now;
                        }
                    }
                    (edges, mass, lat)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stream thread"))
            .collect()
    });
    per_thread
        .into_iter()
        .fold((0, 0, Vec::new()), |(e, m, mut l), (e2, m2, l2)| {
            l.push(l2);
            (e + e2, m + m2, l)
        })
}

/// One timed set-up, its ground truth checked.
fn timed_setup(t: &mut Tracer, checks: &mut Checks, setup_s: &mut Vec<f64>) -> Setup {
    let t0 = Instant::now();
    let s = setup(t, setup_s.len() as u64);
    setup_s.push(t0.elapsed().as_secs_f64());
    checks.check(s.global == TABLE1_SQUARES, "global squares");
    s
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let epoch = Instant::now();
    let mut t = Tracer::new(epoch, trace, 0);
    let mut checks = Checks {
        attempted: 0,
        failed: 0,
    };
    let mut setup_s = Vec::new();
    let s = timed_setup(&mut t, &mut checks, &mut setup_s);
    let prod = KroneckerProduct::new(&s.a, &s.a, SelfLoopMode::FactorA).expect("valid product");
    checks.check(
        prod.num_vertices() == TABLE1_VERTICES
            && prod.num_edges() == TABLE1_EDGES
            && prod.nnz() == TABLE1_ENTRIES,
        "product shape",
    );

    let mut out = Outcome::default();
    let mut passes = Vec::new();
    let started = Instant::now();
    // The traced run spends part of its budget on the layer probes.
    let budget = if trace { seconds / 1.5 } else { seconds };
    // The traced run alternates traced and untraced passes, so the
    // tracing cost is measured on the same run.
    let mut quiet = Tracer::new(epoch, false, 0);
    let mut untraced = Vec::new();
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < budget {
        for _ in 0..SETUPS_PER_PASS {
            timed_setup(&mut t, &mut checks, &mut setup_s);
        }
        let rep = passes.len() as u64;
        passes.push(pass(&s, &prod, &mut checks, &mut t, rep));
        if trace {
            untraced.push(pass(&s, &prod, &mut checks, &mut quiet, rep).total());
        }
    }
    let med =
        |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>()).expect("passes");
    // The median block latency is taken per streaming thread (one per
    // core) and averaged over threads, then the median over passes: a
    // pass's figure then does not depend on which core is the slower one.
    // The p99 (detail only) pools the threads' blocks of a pass.
    let pass_p50: Vec<f64> = passes
        .iter()
        .map(|p| {
            let meds: Vec<f64> = p.block_us.iter().filter_map(|v| median(v)).collect();
            meds.iter().sum::<f64>() / meds.len().max(1) as f64
        })
        .collect();
    let per_pass: Vec<Summary> = passes
        .iter()
        .map(|p| Summary::of(p.block_us.concat()).expect("block samples"))
        .collect();
    let block_p50 = median(&pass_p50).expect("passes");
    let block_p99 = median(&per_pass.iter().map(|s| s.p99).collect::<Vec<_>>()).expect("passes");

    out.note("passes", passes.len());
    out.note("block_edges", BLOCK);
    out.note(
        "block_samples",
        per_pass.iter().map(|s| s.count).sum::<usize>(),
    );
    out.note("block_samples_beyond_p99_per_pass", per_pass[0].beyond_p99);
    out.note("p99_us", block_p99);
    out.note("materialize_s", med(|p| p.materialize));
    out.note(
        "stream_edges_per_s",
        TABLE1_ENTRIES as f64 / med(|p| p.stream),
    );
    out.note(
        "annotate_edges_per_s",
        TABLE1_EDGES as f64 / med(|p| p.annotate),
    );
    out.note("blocks_s", med(|p| p.blocks));
    out.note(
        "pass_s",
        passes
            .iter()
            .map(|p| format!("{:.3}", p.total()))
            .collect::<Vec<_>>()
            .join(" "),
    );
    out.note("seed_use", "edge sample of the traced layer probes");
    out.note(
        "setup_samples_s",
        setup_s
            .iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" "),
    );

    if !trace {
        out.metric("setup_s", median(&setup_s).expect("setups"), "s");
        out.metric(
            "throughput_per_s",
            TABLE1_EDGES as f64 / med(Pass::total),
            "1/s",
        );
        out.metric("p50_us", block_p50, "us");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
        layers(&s, &prod, seed, &mut t, &mut out, &mut checks);
        let untraced = median(&untraced).expect("untraced passes");
        out.metric(
            "bench.trace_overhead_pct",
            (med(Pass::total) / untraced - 1.0) * 100.0,
            "%",
        );
        out.write_spans(t.into_spans());
    }
    out.attempted = checks.attempted;
    out.failed = checks.failed;
    out
}

/// The per-layer probes of the traced run, each timed as a span around
/// one public call.
fn layers(
    s: &Setup,
    prod: &KroneckerProduct<'_>,
    seed: u64,
    t: &mut Tracer,
    out: &mut Outcome,
    checks: &mut Checks,
) {
    let spans_so_far = |t: &Tracer| t.spans().to_vec();
    let ms_median = |spans: &[crate::spans::Span], name: &str| median_ns(spans, name) / 1e6;
    {
        let spans = spans_so_far(t);
        out.metric(
            "generators.factor_ms",
            ms_median(&spans, "generators.unicode_like"),
            "ms",
        );
        out.metric(
            "core.factor_stats_ms",
            ms_median(&spans, "core.factor_stats"),
            "ms",
        );
        out.metric(
            "core.ground_truth_ms",
            ms_median(&spans, "core.ground_truth"),
            "ms",
        );
    }

    // Materialize split into its two serial steps.
    let mut nnz = 0usize;
    let mut bytes = 0usize;
    for rep in 0..3u64 {
        let root = t.begin("bench.materialize_split", None, rep);
        let ea = prod.effective_a();
        let c = t.span("sparse.kron", Some(root), rep, || {
            bikron_sparse::kron(&Times, &ea, s.a.adjacency()).expect("kron")
        });
        nnz = c.nnz();
        bytes = nnz * (std::mem::size_of::<usize>() + std::mem::size_of::<u64>())
            + (c.nrows() + 1) * std::mem::size_of::<usize>();
        let g = t.span("graph.from_adjacency", Some(root), rep, || {
            Graph::from_adjacency(c).expect("symmetric")
        });
        checks.check(
            g.num_edges() as u64 == TABLE1_EDGES,
            "from_adjacency edge count",
        );
        t.end(root);
    }
    let spans = spans_so_far(t);
    out.metric("sparse.kron_ms", ms_median(&spans, "sparse.kron"), "ms");
    out.metric(
        "graph.from_adjacency_ms",
        ms_median(&spans, "graph.from_adjacency"),
        "ms",
    );
    out.metric("sparse.kron_nnz", nnz as f64, "count");
    out.metric("sparse.kron_bytes", bytes as f64, "bytes");

    // Serial edge walk.
    let t0 = Instant::now();
    let walked = t.span("core.edges", None, 0, || prod.edges().count() as u64);
    checks.check(walked == TABLE1_EDGES, "single-thread edge walk");
    out.metric(
        "core.edges_1t_ns",
        t0.elapsed().as_nanos() as f64 / walked as f64,
        "ns",
    );

    // Thm 5 per-edge evaluation over a seeded sample of edges.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6E6E);
    let n = prod.num_vertices();
    let sample: Vec<(usize, usize)> = (0..100_000)
        .filter_map(|_| {
            let p = rng.gen_range(0..n);
            let d = prod.degree(p);
            (d > 0).then(|| (p, prod.neighbors_page(p, rng.gen_range(0..d), 1)[0]))
        })
        .collect();
    let t0 = Instant::now();
    let mass: u64 = t.span("core.edge_squares_at", None, 0, || {
        sample
            .iter()
            .map(|&(p, q)| edge_squares_at(prod, &s.sa, &s.sa, p, q).expect("sampled edge"))
            .sum()
    });
    std::hint::black_box(mass);
    out.metric(
        "core.edge_squares_ns",
        t0.elapsed().as_nanos() as f64 / sample.len().max(1) as f64,
        "ns",
    );

    // Per-rank drain times, then the whole distsim run.
    let ranks = nproc();
    let ps = PartitionedStream::new(prod, &s.sa, &s.sa, ranks);
    let part_ms: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ranks)
            .map(|r| {
                let ps = &ps;
                scope.spawn(move || {
                    let t0 = Instant::now();
                    let mass: u64 = ps.annotated_edges(r).map(|e| e.squares).sum();
                    std::hint::black_box(mass);
                    t0.elapsed().as_secs_f64() * 1e3
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank drain"))
            .collect()
    });
    let max = part_ms.iter().copied().fold(0.0, f64::max);
    let mean = part_ms.iter().sum::<f64>() / part_ms.len() as f64;
    out.metric("core.part_ms_max", max, "ms");
    out.metric("core.part_imbalance", max / mean, "ratio");
    let spans = spans_so_far(t);
    let dg_ms = median_ns(&spans, "distsim.distributed_generate") / 1e6;
    out.metric("distsim.reduce_ms", dg_ms - max, "ms");
}
