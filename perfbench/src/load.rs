//! `serve-uniform` and `cluster-batch-zipf`: load against live `bikron`
//! processes that run.py has started. A closed-loop phase measures
//! throughput and an open-loop phase at a fixed rate measures latency
//! from each request's intended send time. Every answer is kept and
//! checked against in-process `core` truth after each timed window.

use std::io::BufReader;
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use bikron_bench::serve_load::{field_u64, field_u64_last, split_json_array, Zipf};
use bikron_core::truth::squares_edge::edge_squares_at;
use bikron_core::truth::squares_vertex::vertex_squares_at;
use bikron_core::truth::FactorStats;
use bikron_core::{KronChain, KroneckerProduct, SelfLoopMode};
use bikron_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::http::{get_request, post_request, Client};
use crate::spans::{median_ns, Span, Tracer};
use crate::stats::{median, Summary};
use crate::Outcome;

/// Items per `POST /v1/batch` on the cluster workload.
pub const BATCH: usize = 64;
/// Zipf skew of the cluster workload's keys.
pub const ZIPF_S: f64 = 1.1;
/// The cluster workload's program and bindings (run.py launches the
/// shards with the same text).
pub const CLUSTER_EXPR: &str = "(A+I)⊗B⊗C";
pub const CLUSTER_BINDINGS: [(&str, &str); 3] =
    [("A", "unicode"), ("B", "crown:6"), ("C", "kmn:3x4")];
/// Upper bound on closed-loop request rates, used to size the
/// pre-generated request pools (a pool that runs dry ends the phase
/// early; the rate is still measured over the time actually used).
const MAX_SINGLE_RPS: f64 = 150_000.0;
const MAX_BATCH_RPS: f64 = 3_000.0;
/// Measurement rounds per run. Single GETs are cheap, so serve-uniform
/// affords more, shorter rounds; a cluster round is long enough for its
/// open window to hold a few hundred batches.
fn rounds(w: Workload) -> usize {
    match w {
        Workload::ServeUniform => 24,
        Workload::ClusterBatchZipf => 12,
    }
}
/// Untimed closed-loop warm-up before the measured phases.
const WARMUP: Duration = Duration::from_secs(1);
/// Requests replayed through the in-process layers in a traced run.
const REPLAY_SINGLE: usize = 20_000;
const REPLAY_BATCH: usize = 600;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ServeUniform,
    ClusterBatchZipf,
}

pub struct LoadArgs {
    pub workload: Workload,
    pub addr: String,
    pub shards: Vec<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Open-loop rate, HTTP requests per second over all connections.
    pub rate: f64,
    pub conns: usize,
    /// `--threads` of the servers; the in-process replay of a traced run
    /// evaluates batches on as many threads.
    pub server_threads: usize,
    /// Inject one `/v1/admin/stall?ms=N` mid-way through each open window.
    pub stall_ms: u64,
    pub admin_token: String,
    /// Corrupt one received answer before checking (tests the gate).
    pub plant_wrong: bool,
    /// Shut one connection's socket down mid-window (tests that a
    /// transport error counts as a failure).
    pub drop_conn: bool,
}

/// The truth answers are checked against.
enum Model {
    Pair {
        prod: KroneckerProduct<'static>,
        sa: Box<FactorStats>,
    },
    Chain(KronChain),
}

impl Model {
    fn build(w: Workload) -> Model {
        match w {
            Workload::ServeUniform => {
                // The factor lives as long as the process; the product
                // borrows it.
                let a: &'static Graph =
                    Box::leak(Box::new(bikron_generators::unicode_like::unicode_like()));
                Model::Pair {
                    prod: KroneckerProduct::new(a, a, SelfLoopMode::FactorA)
                        .expect("valid product"),
                    sa: Box::new(FactorStats::compute(a).expect("factor stats")),
                }
            }
            Workload::ClusterBatchZipf => Model::Chain(build_chain()),
        }
    }

    fn num_vertices(&self) -> usize {
        match self {
            Model::Pair { prod, .. } => prod.num_vertices(),
            Model::Chain(c) => c.num_vertices(),
        }
    }

    fn num_edges(&self) -> u64 {
        match self {
            Model::Pair { prod, .. } => prod.num_edges(),
            Model::Chain(c) => c.num_edges(),
        }
    }

    fn degree(&self, p: usize) -> u64 {
        match self {
            Model::Pair { prod, .. } => prod.degree(p),
            Model::Chain(c) => c.degree(p),
        }
    }

    fn neighbors_page(&self, p: usize, off: u64, lim: usize) -> Vec<usize> {
        match self {
            Model::Pair { prod, .. } => prod.neighbors_page(p, off, lim),
            Model::Chain(c) => c.neighbors_page(p, off, lim),
        }
    }

    fn edge_squares(&self, p: usize, q: usize) -> Option<u64> {
        match self {
            Model::Pair { prod, sa } => edge_squares_at(prod, sa, sa, p, q),
            Model::Chain(c) => c.edge_squares_at(p, q),
        }
    }

    /// The exact `/v1/vertex/{p}` body of the model's backend.
    fn vertex_body(&self, p: usize) -> String {
        match self {
            Model::Pair { prod, sa } => {
                let (i, k) = prod.indexer().split(p);
                format!(
                    "{{\n  \"vertex\": {p},\n  \"alpha\": {i},\n  \"beta\": {k},\n  \"degree\": {},\n  \"squares\": {}\n}}\n",
                    prod.degree(p),
                    vertex_squares_at(prod, sa, sa, p),
                )
            }
            Model::Chain(c) => {
                let coords: Vec<String> = c.split(p).iter().map(|x| format!("    {x}")).collect();
                format!(
                    "{{\n  \"vertex\": {p},\n  \"coords\": [\n{}\n  ],\n  \"degree\": {},\n  \"squares\": {}\n}}\n",
                    coords.join(",\n"),
                    c.degree(p),
                    c.vertex_squares_at(p),
                )
            }
        }
    }
}

fn chain_bindings() -> Vec<(String, Graph)> {
    CLUSTER_BINDINGS
        .iter()
        .map(|(n, spec)| {
            (
                n.to_string(),
                bikron_cli::parse_factor(spec).expect("factor spec"),
            )
        })
        .collect()
}

fn chain_levels() -> Vec<(String, bool)> {
    bikron_sparse::parse_expr(CLUSTER_EXPR)
        .expect("cluster expression parses")
        .levels
        .iter()
        .map(|l| (l.name.clone(), l.plus_identity))
        .collect()
}

fn build_chain() -> KronChain {
    KronChain::new(chain_bindings(), &chain_levels()).expect("valid chain")
}

/// One query, as sent and as checked.
#[derive(Clone, Copy, Debug)]
enum Item {
    Vertex(usize),
    Edge(usize, usize),
    Neighbors(usize, u64, usize),
    Stats,
}

impl Item {
    fn line(&self) -> String {
        match *self {
            Item::Vertex(p) => format!("vertex {p}"),
            Item::Edge(p, q) => format!("edge {p} {q}"),
            Item::Neighbors(p, o, l) => format!("neighbors {p} {o} {l}"),
            Item::Stats => "stats".into(),
        }
    }

    fn path(&self) -> String {
        match *self {
            Item::Vertex(p) => format!("/v1/vertex/{p}"),
            Item::Edge(p, q) => format!("/v1/edge/{p}/{q}"),
            Item::Neighbors(p, o, l) => format!("/v1/neighbors/{p}?offset={o}&limit={l}"),
            Item::Stats => "/v1/stats".into(),
        }
    }
}

/// One HTTP request: exact bytes plus the queries it carries.
struct Req {
    bytes: Vec<u8>,
    items: Vec<Item>,
    batch: bool,
}

/// Request generator: seeded, so a seed fixes the whole request stream.
struct Gen<'m> {
    model: &'m Model,
    rng: StdRng,
    zipf: Option<Zipf>,
    n: usize,
}

impl<'m> Gen<'m> {
    fn new(model: &'m Model, w: Workload, seed: u64) -> Gen<'m> {
        let n = model.num_vertices();
        let zipf = (w == Workload::ClusterBatchZipf).then(|| Zipf::new(n, ZIPF_S));
        Gen {
            model,
            rng: StdRng::seed_from_u64(seed),
            zipf,
            n,
        }
    }

    fn key(&mut self) -> usize {
        match &self.zipf {
            Some(z) => z.sample(self.rng.gen::<f64>()),
            None => self.rng.gen_range(0..self.n),
        }
    }

    /// A random existing edge `(p, q)`, `p` drawn from the key
    /// distribution (uniform retries past isolated vertices).
    fn known_edge(&mut self) -> Item {
        let mut p = self.key();
        for _ in 0..64 {
            if self.model.degree(p) > 0 {
                break;
            }
            p = self.rng.gen_range(0..self.n);
        }
        let d = self.model.degree(p);
        if d == 0 {
            return Item::Vertex(p);
        }
        let off = self.rng.gen_range(0..d);
        Item::Edge(p, self.model.neighbors_page(p, off, 1)[0])
    }

    fn neighbors(&mut self) -> Item {
        let p = self.key();
        let d = self.model.degree(p);
        let off = if d == 0 { 0 } else { self.rng.gen_range(0..d) };
        Item::Neighbors(p, off, self.rng.gen_range(1usize..=64))
    }

    /// loadgen's single-query mix: 40% vertex, 25% known edge, 10%
    /// random pair, 20% neighbors page, 5% stats.
    fn single(&mut self) -> Req {
        let dice = self.rng.gen_range(0u32..100);
        let item = if dice < 40 {
            Item::Vertex(self.key())
        } else if dice < 65 {
            self.known_edge()
        } else if dice < 75 {
            Item::Edge(self.key(), self.key())
        } else if dice < 95 {
            self.neighbors()
        } else {
            Item::Stats
        };
        Req {
            bytes: get_request(&item.path()).into_bytes(),
            items: vec![item],
            batch: false,
        }
    }

    /// A batch of [`BATCH`] items: 60% vertex, 25% known edge, 15%
    /// neighbors page.
    fn batch(&mut self) -> Req {
        let items: Vec<Item> = (0..BATCH)
            .map(|_| {
                let dice = self.rng.gen_range(0u32..100);
                if dice < 60 {
                    Item::Vertex(self.key())
                } else if dice < 85 {
                    self.known_edge()
                } else {
                    self.neighbors()
                }
            })
            .collect();
        let body: String = items.iter().map(|i| i.line() + "\n").collect();
        Req {
            bytes: post_request("/v1/batch", &body).into_bytes(),
            items,
            batch: true,
        }
    }

    fn next(&mut self) -> Req {
        if self.zipf.is_some() {
            self.batch()
        } else {
            self.single()
        }
    }
}

/// One completed (or failed) request.
struct Sample {
    req: usize,
    /// First byte written → last body byte read.
    rtt_ns: u64,
    /// Open loop: intended send → last body byte; closed loop: = rtt.
    latency_ns: u64,
    /// Open loop: how late the request was written.
    late_ns: u64,
    /// 0 for a transport error.
    status: u16,
    body: Vec<u8>,
}

/// Send one request. A transport error fails it (status 0, the error as
/// body) and opens a fresh connection for the next request; the request
/// itself is never resent.
fn send(client: &mut Option<Client>, addr: &str, bytes: &[u8]) -> (u16, Vec<u8>) {
    let c = match client {
        Some(c) => c,
        None => match Client::connect(addr) {
            Ok(c) => client.insert(c),
            Err(e) => return (0, format!("connect: {e}").into_bytes()),
        },
    };
    match c.round_trip(bytes) {
        Ok(r) => r,
        Err(e) => {
            *client = Client::connect(addr).ok();
            (0, format!("transport error: {e}").into_bytes())
        }
    }
}

/// Connect and make one untimed round trip, so the target has accepted
/// the connection before a window's clock starts: the serve and router
/// acceptors poll every 25 ms, which would otherwise land in the first
/// requests of every window. A failure leaves the connection to the
/// first timed request, which then fails and counts.
fn connect_ready(addr: &str) -> Option<Client> {
    let mut c = Client::connect(addr).ok()?;
    match c.get("/v1/stats") {
        Ok((200, _)) => Some(c),
        other => {
            eprintln!("perfbench: connection handshake with {addr} failed: {other:?}");
            None
        }
    }
}

/// Closed loop: each connection sends its next request when the last
/// answer arrives, until `dur` elapses or its pool runs dry. With
/// `sever`, connection 0 shuts its socket down before its tenth request.
fn closed_phase(
    addr: &str,
    pools: &[Vec<Req>],
    dur: Duration,
    trace: bool,
    epoch: Instant,
    id_base: u64,
    sever: bool,
) -> (Vec<Vec<Sample>>, f64, Vec<Span>) {
    let ready = Barrier::new(pools.len());
    let start = OnceLock::new();
    let results: Vec<(Vec<Sample>, Instant, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = pools
            .iter()
            .enumerate()
            .map(|(c, pool)| {
                let (ready, start) = (&ready, &start);
                s.spawn(move || {
                    let mut t = Tracer::new(epoch, trace, id_base + ((c as u64) << 40));
                    let mut client = connect_ready(addr);
                    ready.wait();
                    let start = *start.get_or_init(Instant::now);
                    let mut out = Vec::new();
                    for (i, r) in pool.iter().enumerate() {
                        if start.elapsed() >= dur {
                            break;
                        }
                        if sever && c == 0 && i == 10 {
                            if let Some(cl) = &client {
                                cl.sever();
                            }
                        }
                        let sp = t.begin("bench.http", None, i as u64);
                        let t0 = Instant::now();
                        let (status, body) = send(&mut client, addr, &r.bytes);
                        let rtt_ns = t0.elapsed().as_nanos() as u64;
                        t.end(sp);
                        out.push(Sample {
                            req: i,
                            rtt_ns,
                            latency_ns: rtt_ns,
                            late_ns: 0,
                            status,
                            body,
                        });
                    }
                    (out, Instant::now(), t.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop connection"))
            .collect()
    });
    let start = *start.get().expect("a connection started the window");
    let end = results.iter().map(|r| r.1).max().unwrap_or(start);
    let elapsed = (end - start).as_secs_f64();
    let mut spans = Vec::new();
    let samples = results
        .into_iter()
        .map(|(s, _, sp)| {
            spans.extend(sp);
            s
        })
        .collect();
    (samples, elapsed, spans)
}

/// Open loop: connection `c` of `k` sends request `i` at
/// `start + (i·k + c) / rate`, whether or not earlier answers have
/// arrived; latency is measured from that intended time.
#[allow(clippy::too_many_arguments)]
fn open_phase(
    addr: &str,
    pools: &[Vec<Req>],
    rate: f64,
    dur: Duration,
    stall: Option<String>,
    trace: bool,
    epoch: Instant,
    id_base: u64,
) -> (Vec<Vec<Sample>>, Vec<Span>) {
    let k = pools.len();
    let ready = Barrier::new(k);
    let start = OnceLock::new();
    let results: Vec<(Vec<Sample>, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = pools
            .iter()
            .enumerate()
            .map(|(c, pool)| {
                let stall = if c == 0 { stall.clone() } else { None };
                let (ready, start) = (&ready, &start);
                s.spawn(move || {
                    let mut t = Tracer::new(epoch, trace, id_base + ((c as u64) << 40));
                    let mut client = connect_ready(addr);
                    ready.wait();
                    let start = *start.get_or_init(|| Instant::now() + Duration::from_millis(1));
                    let mut out = Vec::new();
                    let mut stall = stall.map(|path| (start + dur / 2, get_request(&path)));
                    for (i, r) in pool.iter().enumerate() {
                        let due = start + Duration::from_secs_f64((i * k + c) as f64 / rate);
                        if due >= start + dur {
                            break;
                        }
                        if let Some((at, _)) = &stall {
                            if due >= *at {
                                let (_, bytes) = stall.take().expect("stall pending");
                                let (status, body) = send(&mut client, addr, bytes.as_bytes());
                                if status != 200 {
                                    eprintln!(
                                        "perfbench: stall injection failed ({status}): {}",
                                        String::from_utf8_lossy(&body)
                                    );
                                }
                            }
                        }
                        wait_until(due);
                        let sp = t.begin("bench.http", None, i as u64);
                        let sent = Instant::now();
                        let (status, body) = send(&mut client, addr, &r.bytes);
                        let done = Instant::now();
                        t.end(sp);
                        out.push(Sample {
                            req: i,
                            rtt_ns: (done - sent).as_nanos() as u64,
                            latency_ns: (done - due).as_nanos() as u64,
                            late_ns: (sent - due).as_nanos() as u64,
                            status,
                            body,
                        });
                    }
                    (out, t.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop connection"))
            .collect()
    });
    let mut spans = Vec::new();
    let samples = results
        .into_iter()
        .map(|(s, sp)| {
            spans.extend(sp);
            s
        })
        .collect();
    (samples, spans)
}

/// Sleep until shortly before `due`, then yield until it: the schedule
/// must not inherit the kernel's timer slack, and the client must not
/// hold the CPU it shares with the servers while it waits.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

fn edge_ok(body: &str, expected: Option<u64>) -> bool {
    match expected {
        Some(s) => body.contains("\"edge\": true") && field_u64(body, "squares") == Some(s),
        None => body.contains("\"edge\": false") && body.contains("\"squares\": null"),
    }
}

fn neighbors_ok(body: &str, expect: &[usize], degree: u64) -> bool {
    let got: Option<Vec<usize>> = body.split("\"neighbors\": [").nth(1).and_then(|tail| {
        tail.split(']')
            .next()?
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().ok())
            .collect()
    });
    got.as_deref() == Some(expect)
        && field_u64(body, "degree") == Some(degree)
        && field_u64(body, "count") == Some(expect.len() as u64)
}

/// Check one answer: vertex bodies byte-exact, edge and neighbors
/// answers by value.
fn item_ok(model: &Model, item: Item, body: &str, in_batch: bool) -> bool {
    match item {
        Item::Vertex(p) => {
            let expect = model.vertex_body(p);
            body == if in_batch { expect.trim_end() } else { &expect }
        }
        Item::Edge(p, q) => edge_ok(body, model.edge_squares(p, q)),
        Item::Neighbors(p, off, lim) => {
            neighbors_ok(body, &model.neighbors_page(p, off, lim), model.degree(p))
        }
        Item::Stats => {
            field_u64_last(body, "vertices") == Some(model.num_vertices() as u64)
                && field_u64_last(body, "edges") == Some(model.num_edges())
        }
    }
}

/// Verification tally over a set of samples.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Items whose answer matched.
    verified: u64,
    verify_ns: u64,
}

fn verify(
    model: &Model,
    pools: &[Vec<Req>],
    samples: &[Vec<Sample>],
    tally: &mut Tally,
    t: &mut Tracer,
) {
    let t0 = Instant::now();
    let mut checked = 0u64;
    for (pool, conn) in pools.iter().zip(samples) {
        for s in conn {
            let req = &pool[s.req];
            let k = req.items.len() as u64;
            tally.attempted += k;
            if s.status != 200 {
                tally.failed += k;
                eprintln!(
                    "perfbench: FAILED {} → status {}: {}",
                    req.items[0].path(),
                    s.status,
                    String::from_utf8_lossy(&s.body)
                        .chars()
                        .take(200)
                        .collect::<String>()
                );
                continue;
            }
            let sp = t.begin("bench.verify", None, s.req as u64);
            let body = String::from_utf8_lossy(&s.body);
            let answers: Option<Vec<String>> = if req.batch {
                split_json_array(&body).filter(|v| v.len() == req.items.len())
            } else {
                Some(vec![body.into_owned()])
            };
            match answers {
                None => {
                    tally.failed += k;
                    eprintln!(
                        "perfbench: MISMATCH batch shape: {}",
                        String::from_utf8_lossy(&s.body)
                    );
                }
                Some(answers) => {
                    for (item, a) in req.items.iter().zip(&answers) {
                        if item_ok(model, *item, a, req.batch) {
                            tally.verified += 1;
                        } else {
                            tally.failed += 1;
                            eprintln!("perfbench: MISMATCH {}: {a}", item.line());
                        }
                    }
                }
            }
            t.end(sp);
            checked += k;
        }
    }
    tally.verify_ns += (t0.elapsed().as_nanos() as u64)
        .checked_div(checked)
        .unwrap_or(0);
}

/// Pre-generate `count` requests for each of `conns` connections, each
/// connection with its own seeded stream.
fn pools(model: &Model, w: Workload, seed: u64, conns: usize, count: usize) -> Vec<Vec<Req>> {
    (0..conns)
        .map(|c| {
            let mut g = Gen::new(
                model,
                w,
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(c as u64 + 1),
            );
            (0..count).map(|_| g.next()).collect()
        })
        .collect()
}

/// The target's `/metrics` JSON report.
fn scrape(addr: &str) -> bikron_obs::Report {
    let mut c = Client::connect(addr).expect("connect for /metrics");
    let (status, body) = c.get("/metrics").expect("GET /metrics");
    assert_eq!(status, 200, "GET /metrics: {body}");
    bikron_obs::Report::from_json(&body).expect("/metrics report parses")
}

/// Sum of the counters named `suffix` or ending in `.suffix` (a router
/// report carries one per shard, `shard{i}.`-prefixed).
fn counter_sum(r: &bikron_obs::Report, suffix: &str) -> f64 {
    r.counters()
        .filter(|(k, _)| *k == suffix || k.ends_with(&format!(".{suffix}")))
        .map(|(_, v)| v as f64)
        .sum()
}

pub fn run(args: &LoadArgs) -> Outcome {
    let epoch = Instant::now();
    let model = Model::build(args.workload);
    let conns = args.conns.max(1);
    // Each round runs a closed window, (traced runs) a traced closed
    // window, and an open window, split 1:4 (1:1:4 traced). The p50 is
    // the median over rounds of each open window's p50, so a burst of
    // outside load moves one round, not the result; throughput is the
    // rate over all closed windows together; the p99s are taken over
    // every open-loop sample of the run.
    let parts = if args.trace { 6.0 } else { 5.0 };
    let rounds = rounds(args.workload);
    let round_s = args.seconds / rounds as f64;
    let win = Duration::from_secs_f64(round_s / parts);
    let open_win = Duration::from_secs_f64(round_s * 4.0 / parts);
    let max_rps = if args.workload == Workload::ClusterBatchZipf {
        MAX_BATCH_RPS
    } else {
        MAX_SINGLE_RPS
    };
    let per_conn =
        |rate: f64, d: Duration| (rate * d.as_secs_f64() / conns as f64).ceil() as usize + 1;
    let pools_for = |salt: u64, count: usize| {
        pools(
            &model,
            args.workload,
            args.seed.wrapping_mul(1_000_003) ^ salt,
            conns,
            count,
        )
    };

    let mut out = Outcome::default();
    let mut tally = Tally::default();
    let mut vt = Tracer::new(epoch, args.trace, 1 << 60);
    let mut spans: Vec<Span> = Vec::new();

    // Warm-up: connections, server caches and page faults settle before
    // anything is timed. Its answers are checked too.
    let warm_pools = pools_for(0x3A3A_3A3A, per_conn(max_rps, WARMUP));
    let (warm, _, _) = closed_phase(&args.addr, &warm_pools, WARMUP, false, epoch, 0, false);
    verify(&model, &warm_pools, &warm, &mut tally, &mut vt);
    drop((warm, warm_pools));

    let before = args.trace.then(|| scrape(&args.addr));
    let stall = (args.stall_ms > 0).then(|| {
        format!(
            "/v1/admin/stall?ms={}&token={}",
            args.stall_ms, args.admin_token
        )
    });
    let (mut qps, mut p50) = (vec![], vec![]);
    // Every open-loop latency and lateness of the run: the tails are
    // taken over all of them, since one window holds too few.
    let (mut open_lat, mut open_late) = (Vec::new(), Vec::new());
    // Verified items and seconds, summed over the closed windows (untraced
    // and traced): throughput is their ratio, the rate over all windows.
    let (mut closed_total, mut traced_total) = ((0.0, 0.0), (0.0, 0.0));
    let (mut traced_rtt, mut verify_ns) = (Vec::new(), Vec::new());
    let mut closed_requests = 0usize;
    let mut replay_pools = Vec::new();
    for round in 0..rounds as u64 {
        let ids = round << 48;
        // Throughput: closed loop, untraced.
        let closed_pools = pools_for(round << 32, per_conn(max_rps, win));
        let sever = args.drop_conn && round == 0;
        let (mut closed, closed_s, _) =
            closed_phase(&args.addr, &closed_pools, win, false, epoch, ids, sever);
        if args.plant_wrong && round == 0 {
            plant_wrong_answer(&mut closed);
        }
        let mut t = Tally::default();
        verify(&model, &closed_pools, &closed, &mut t, &mut vt);
        qps.push(t.verified as f64 / closed_s);
        closed_total.0 += t.verified as f64;
        closed_total.1 += closed_s;
        closed_requests += closed.iter().map(Vec::len).sum::<usize>();
        verify_ns.push(t.verify_ns as f64);
        merge(&mut tally, t);
        drop(closed);
        if round == 0 {
            replay_pools = closed_pools;
        }

        // The same window with client spans on: the tracing cost.
        if args.trace {
            let traced_pools = pools_for((round << 32) ^ 0x7A7A_7A7A, per_conn(max_rps, win));
            let (tc, tc_s, sp) = closed_phase(
                &args.addr,
                &traced_pools,
                win,
                true,
                epoch,
                ids | 1 << 60,
                false,
            );
            let mut t = Tally::default();
            verify(&model, &traced_pools, &tc, &mut t, &mut vt);
            traced_total.0 += t.verified as f64;
            traced_total.1 += tc_s;
            traced_rtt.extend(tc.iter().flatten().map(|s| s.rtt_ns as f64));
            spans.extend(sp);
            merge(&mut tally, t);
        }

        // Latency: open loop at a fixed rate.
        let open_pools = pools_for((round << 32) ^ 0x0BE7_0BE7, per_conn(args.rate, open_win));
        let (open, sp) = open_phase(
            &args.addr,
            &open_pools,
            args.rate,
            open_win,
            stall.clone(),
            args.trace,
            epoch,
            ids | 1 << 61,
        );
        spans.extend(sp);
        let mut t = Tally::default();
        verify(&model, &open_pools, &open, &mut t, &mut vt);
        merge(&mut tally, t);
        let lat: Vec<f64> = open
            .iter()
            .flatten()
            .map(|s| s.latency_ns as f64 / 1e3)
            .collect();
        p50.push(Summary::of(lat.clone()).expect("open-loop samples").p50);
        open_lat.extend(lat);
        open_late.extend(open.iter().flatten().map(|s| s.late_ns as f64 / 1e3));
    }
    let lat = Summary::of(open_lat).expect("open-loop samples");
    let late = Summary::of(open_late).expect("open-loop samples");
    let after = args.trace.then(|| scrape(&args.addr));
    let med = |v: &[f64]| median(v).expect("one value per round");

    out.note("conns", conns);
    out.note("rounds", rounds);
    out.note("closed_window_s", win.as_secs_f64());
    out.note("open_window_s", open_win.as_secs_f64());
    out.note("closed_requests", closed_requests);
    out.note("open_rate_per_s", args.rate);
    out.note("open_samples", lat.count);
    out.note("open_samples_beyond_p99", lat.beyond_p99);
    out.note("late_p99_us", late.p99);
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.note("round_qps", fmt(&qps));
    out.note("round_p50_us", fmt(&p50));
    out.note(
        "items_per_request",
        if args.workload == Workload::ClusterBatchZipf {
            BATCH
        } else {
            1
        },
    );

    out.note("p99_us", lat.p99);
    if !args.trace {
        out.metric("throughput_per_s", closed_total.0 / closed_total.1, "1/s");
        out.metric("p50_us", med(&p50), "us");
    } else {
        out.metric("bench.open_p99_us", lat.p99, "us");
        out.metric("bench.verify_ns", med(&verify_ns), "ns");
        out.metric("bench.late_p99_us", late.p99, "us");
        out.metric(
            "bench.trace_overhead_pct",
            (closed_total.0 / closed_total.1 * traced_total.1 / traced_total.0 - 1.0) * 100.0,
            "%",
        );
        let (before, after) = (before.expect("scraped"), after.expect("scraped"));
        let d = |k: &str| counter_sum(&after, k) - counter_sum(&before, k);
        let (hits, misses) = (d("serve.cache.hits"), d("serve.cache.misses"));
        out.metric(
            "serve.cache.hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
        );
        out.metric("serve.cache.evictions", d("serve.cache.evictions"), "count");
        out.metric("serve.shed", d("serve.shed"), "count");
        if args.workload == Workload::ClusterBatchZipf {
            out.metric(
                "router.errors",
                d("router.errors") + d("router.shed"),
                "count",
            );
        }
        let rtt_p50_us = med(&traced_rtt) / 1e3;
        match args.workload {
            Workload::ServeUniform => replay_single(
                &model,
                &replay_pools,
                args.server_threads,
                rtt_p50_us,
                &mut vt,
                &mut out,
            ),
            Workload::ClusterBatchZipf => {
                replay_cluster(&model, &replay_pools, args, &mut vt, &mut out)
            }
        }
        spans.extend(vt.into_spans());
        out.write_spans(spans);
    }
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out
}

fn merge(into: &mut Tally, t: Tally) {
    into.attempted += t.attempted;
    into.failed += t.failed;
    into.verified += t.verified;
}

/// Flip one digit of the first answer: a server that returned a wrong
/// count, as the gate must see it.
fn plant_wrong_answer(samples: &mut [Vec<Sample>]) {
    if let Some(s) = samples.iter_mut().flatten().find(|s| s.status == 200) {
        if let Some(b) = s.body.iter_mut().rev().find(|b| b.is_ascii_digit()) {
            *b = if *b == b'9' { b'0' } else { *b + 1 };
        }
    }
}

/// Average ns per call of `f` over `items`, recorded as one span.
fn ns_per_call<T>(
    t: &mut Tracer,
    name: &'static str,
    items: &[T],
    mut f: impl FnMut(&T) -> u64,
) -> f64 {
    assert!(!items.is_empty(), "no inputs for {name}");
    let sp = t.begin(name, None, 0);
    let t0 = Instant::now();
    let mut acc = 0u64;
    for it in items {
        acc = acc.wrapping_add(f(it));
    }
    let ns = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(acc);
    t.end(sp);
    ns / items.len() as f64
}

/// Replay exact request bytes through `http::parse_request` →
/// `ServeState::handle` → `http::write_response` into a buffer.
fn replay_state(
    state: &bikron_serve::ServeState,
    reqs: &[&Req],
    t: &mut Tracer,
    out: &mut Outcome,
) {
    let mut resp_bytes = 0u64;
    for (i, r) in reqs.iter().enumerate() {
        let root = t.begin("bench.replay", None, i as u64);
        let req = t.span("serve.parse", Some(root), i as u64, || {
            bikron_serve::http::parse_request(&mut BufReader::new(&r.bytes[..]))
                .expect("recorded request parses")
        });
        let resp = t.span("serve.handle", Some(root), i as u64, || state.handle(&req));
        let mut buf = Vec::with_capacity(1024);
        let n = t.span("serve.write", Some(root), i as u64, || {
            bikron_serve::http::write_response(&mut buf, &resp, true).expect("write into memory")
        });
        resp_bytes += n;
        t.end(root);
    }
    let spans = t.spans();
    for (metric, name) in [
        ("serve.parse_ns", "serve.parse"),
        ("serve.handle_ns", "serve.handle"),
        ("serve.write_ns", "serve.write"),
    ] {
        out.metric(metric, median_ns(spans, name), "ns");
    }
    out.metric(
        "serve.resp_bytes",
        resp_bytes as f64 / reqs.len().max(1) as f64,
        "bytes",
    );
}

fn server_options(threads: usize) -> bikron_serve::ServeOptions {
    bikron_serve::ServeOptions {
        batch_threads: threads,
        ..bikron_serve::ServeOptions::default()
    }
}

fn replay_single(
    model: &Model,
    pools: &[Vec<Req>],
    server_threads: usize,
    rtt_p50_us: f64,
    t: &mut Tracer,
    out: &mut Outcome,
) {
    let Model::Pair { prod, sa } = model else {
        unreachable!("serve-uniform is a pair workload")
    };
    let a = prod.factor_a();
    let mut stats_ms = Vec::new();
    for _ in 0..5 {
        let t1 = Instant::now();
        t.span("core.factor_stats", None, 0, || {
            FactorStats::compute(a).expect("factor stats")
        });
        stats_ms.push(t1.elapsed().as_secs_f64() * 1e3);
    }
    out.metric(
        "core.factor_stats_ms",
        median(&stats_ms).expect("five set-ups"),
        "ms",
    );
    let state = bikron_serve::ServeState::build_with(
        a.clone(),
        a.clone(),
        SelfLoopMode::FactorA,
        server_options(server_threads),
    )
    .expect("serve state");
    let reqs: Vec<&Req> = pools.iter().flatten().take(REPLAY_SINGLE).collect();
    replay_state(&state, &reqs, t, out);
    let parts: f64 = ["serve.parse_ns", "serve.handle_ns", "serve.write_ns"]
        .iter()
        .map(|k| out.get(k))
        .sum();
    out.metric("serve.residual_us", rtt_p50_us - parts / 1e3, "us");
    if let Some(cache) = state.cache() {
        let (h, m) = (cache.local_hits() as f64, cache.local_misses() as f64);
        out.note("replay_cache_hit_ratio", h / (h + m).max(1.0));
    }

    let items: Vec<Item> = reqs.iter().flat_map(|r| r.items.iter().copied()).collect();
    let vertices: Vec<usize> = items
        .iter()
        .filter_map(|i| {
            if let Item::Vertex(p) = i {
                Some(*p)
            } else {
                None
            }
        })
        .collect();
    let edges: Vec<(usize, usize)> = items
        .iter()
        .filter_map(|i| {
            if let Item::Edge(p, q) = i {
                Some((*p, *q))
            } else {
                None
            }
        })
        .collect();
    let pages: Vec<(usize, u64, usize)> = items
        .iter()
        .filter_map(|i| {
            if let Item::Neighbors(p, o, l) = i {
                Some((*p, *o, *l))
            } else {
                None
            }
        })
        .collect();
    let v = ns_per_call(t, "core.vertex_squares_at", &vertices, |&p| {
        vertex_squares_at(prod, sa, sa, p)
    });
    let e = ns_per_call(t, "core.edge_squares_at", &edges, |&(p, q)| {
        edge_squares_at(prod, sa, sa, p, q).unwrap_or(0)
    });
    let n = ns_per_call(t, "core.neighbors_page", &pages, |&(p, o, l)| {
        prod.neighbors_page(p, o, l).len() as u64
    });
    out.metric("core.vertex_squares_ns", v, "ns");
    out.metric("core.edge_squares_ns", e, "ns");
    out.metric("core.neighbors_page_ns", n, "ns");
}

fn replay_cluster(
    model: &Model,
    pools: &[Vec<Req>],
    args: &LoadArgs,
    t: &mut Tracer,
    out: &mut Outcome,
) {
    let Model::Chain(chain) = model else {
        unreachable!("cluster-batch-zipf is a chain workload")
    };
    let mut stats_ms = Vec::new();
    for _ in 0..5 {
        let t1 = Instant::now();
        t.span("core.kron_chain_new", None, 0, build_chain);
        stats_ms.push(t1.elapsed().as_secs_f64() * 1e3);
    }
    out.metric(
        "core.factor_stats_ms",
        median(&stats_ms).expect("five set-ups"),
        "ms",
    );
    let reqs: Vec<&Req> = pools.iter().flatten().take(REPLAY_BATCH).collect();
    let bodies: Vec<String> = reqs
        .iter()
        .map(|r| r.items.iter().map(|i| i.line() + "\n").collect())
        .collect();

    // Shard-side layers, in process.
    let state = bikron_serve::ServeState::build_expr(
        chain_bindings(),
        &chain_levels(),
        server_options(args.server_threads),
    )
    .expect("chain state");
    replay_state(&state, &reqs, t, out);
    let parse = ns_per_call(t, "serve.batch.parse_batch", &bodies, |b| {
        bikron_serve::batch::parse_batch(b, bikron_serve::DEFAULT_BATCH_MAX)
            .map_or(0, |q| q.len() as u64)
    });
    out.metric("serve.batch.parse_ns", parse, "ns");
    let queries: Vec<Vec<bikron_serve::batch::BatchQuery>> = bodies
        .iter()
        .map(|b| {
            bikron_serve::batch::parse_batch(b, bikron_serve::DEFAULT_BATCH_MAX)
                .expect("batch parses")
        })
        .collect();
    for (i, q) in queries.iter().enumerate() {
        t.span("serve.batch.eval_batch", None, i as u64, || {
            bikron_serve::batch::eval_batch(&state, q, args.server_threads)
        });
    }
    out.metric(
        "serve.batch.eval_us",
        median_ns(t.spans(), "serve.batch.eval_batch") / 1e3,
        "us",
    );

    let items: Vec<Item> = reqs.iter().flat_map(|r| r.items.iter().copied()).collect();
    let ce = ns_per_call(t, "core.kron_chain_eval", &items, |i| match *i {
        Item::Vertex(p) => chain.vertex_squares_at(p),
        Item::Edge(p, q) => chain.edge_squares_at(p, q).unwrap_or(0),
        Item::Neighbors(p, o, l) => chain.neighbors_page(p, o, l).len() as u64,
        Item::Stats => 0,
    });
    out.metric("core.chain_eval_ns", ce, "ns");

    // Router layers against the live shards.
    let router =
        bikron_router::RouterState::connect(&args.shards, bikron_router::RouterOptions::default())
            .expect("router state over live shards");
    for (i, r) in reqs.iter().enumerate() {
        let req = bikron_serve::http::parse_request(&mut BufReader::new(&r.bytes[..]))
            .expect("recorded request parses");
        let resp = t.span("router.handle", None, i as u64, || {
            router.handle(&req, None)
        });
        if resp.status != 200 {
            eprintln!("perfbench: router replay answered {}", resp.status);
        }
    }
    out.metric(
        "router.handle_us",
        median_ns(t.spans(), "router.handle") / 1e3,
        "us",
    );

    let n = chain.num_vertices();
    let shards: Vec<bikron_router::Upstream> = args
        .shards
        .iter()
        .map(|s| {
            bikron_router::Upstream::new(s.clone(), Duration::from_secs(1), Duration::from_secs(10))
        })
        .collect();
    let mut fanout = Vec::new();
    let mut overhead = Vec::new();
    let mut shard_bodies = Vec::new();
    let mut router_client = Client::connect(&args.addr).ok();
    for (i, (r, body)) in reqs.iter().zip(&bodies).enumerate() {
        let mut groups = vec![String::new(); shards.len()];
        for (item, line) in r.items.iter().zip(body.lines()) {
            let p = match *item {
                Item::Vertex(p) | Item::Edge(p, _) | Item::Neighbors(p, _, _) => p,
                Item::Stats => 0,
            };
            let owner = bikron_core::partition::owner_of(n, shards.len(), p.min(n - 1));
            groups[owner].push_str(line);
            groups[owner].push('\n');
        }
        let mut slowest = 0u64;
        let mut involved = 0;
        for (s, g) in shards.iter().zip(&groups) {
            if g.is_empty() {
                continue;
            }
            involved += 1;
            let sp = t.begin("router.upstream_request", None, i as u64);
            let resp = s.request("POST", "/v1/batch", Some(g), None);
            slowest = slowest.max(t.end(sp));
            match resp {
                Ok(up) if up.status == 200 => shard_bodies.push(up.body),
                Ok(up) => eprintln!("perfbench: direct shard answered {}", up.status),
                Err(e) => eprintln!("perfbench: direct shard request failed: {e}"),
            }
        }
        fanout.push(involved as f64);
        let t0 = Instant::now();
        let (status, _) = send(&mut router_client, &args.addr, &r.bytes);
        let rtt = t0.elapsed().as_nanos() as f64;
        if status == 200 {
            overhead.push((rtt - slowest as f64) / 1e3);
        }
    }
    out.metric(
        "router.upstream_us",
        median_ns(t.spans(), "router.upstream_request") / 1e3,
        "us",
    );
    out.metric(
        "router.fanout",
        fanout.iter().sum::<f64>() / fanout.len().max(1) as f64,
        "count",
    );
    out.metric(
        "router.overhead_us",
        median(&overhead).expect("router answered a replayed batch"),
        "us",
    );
    let split = ns_per_call(t, "router.split_batch_items", &shard_bodies, |b| {
        bikron_router::split_batch_items(b).map_or(0, |v| v.len() as u64)
    });
    out.metric("router.split_ns", split, "ns");
}
