//! Shared server state and the request router.
//!
//! [`ServeState`] is the whole memory footprint of the service: one
//! [`KronChain`] (the factor graphs and their [`FactorStats`](bikron_core::truth::FactorStats)),
//! one cached `/v1/stats` body, and a bounded result cache. Nothing product-sized is ever built —
//! each request evaluates the closed-form theorems against factor-sized
//! state, so a server describing a graph with millions of vertices holds
//! only factor-sized state (plus the fixed-capacity cache) and each
//! request allocates at most `O(limit + Σ|factor|)` — `O(batch_max ×
//! limit)` for a batch.
//!
//! Every count comes from the chain. A **pair** server (`A⊗B` /
//! `(A+I)⊗B`, built by [`ServeState::build_with`]) is the two-level chain
//! over atoms `A`, `B`, marked at construction to keep the two-factor
//! rendering: `"alpha"`/`"beta"` instead of per-level `"coords"`, the
//! Table-I `/v1/stats` body, `?a=&b=` communities with the Cor 1–2
//! densities, and `/v1/edges` streaming. An **expression** server (any
//! program like `(A+I)⊗B⊗C`, built by [`ServeState::build_expr`])
//! answers 501 on `/v1/edges`; every other body is rendered the same way
//! on both.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bikron_core::stream::PartitionedStream;
use bikron_core::truth::community::{product_community, FactorCommunity, ProductCommunityTruth};
use bikron_core::{predict_structure, ChainError, KronChain, KroneckerProduct, SelfLoopMode};
use bikron_graph::{bipartition, Graph};
use bikron_obs::profile::{phase, ProfileGuard};
use bikron_obs::span::{RequestScope, DEFAULT_TRACE_CAPACITY};
use bikron_obs::window::{WindowedCounter, WindowedHistogram};
use bikron_obs::{
    Counter, EventLogger, Gauge, Histogram, JsonWriter, LogEvent, SpanRecorder, SpanSink,
    TraceContext, WindowRegistry,
};

use crate::cache::{CacheKey, ShardedCache};
use crate::http::{Request, Response};
use crate::pool::Handler;

/// Default page size for `/v1/neighbors` and `/v1/edges`.
pub const DEFAULT_LIMIT: usize = 100;
/// Hard cap on a single page — the "sublinear memory per request"
/// guarantee: no query can make the server materialise more than this
/// many items.
pub const MAX_LIMIT: usize = 10_000;
/// Upper bound on the partition count a client may request.
pub const MAX_PARTS: usize = 1 << 20;
/// Default cap on queries per `POST /v1/batch` request
/// (`--batch-max` overrides).
pub const DEFAULT_BATCH_MAX: usize = 256;
/// Default total result-cache capacity in entries (`--cache-entries`
/// overrides; 0 disables the cache).
pub const DEFAULT_CACHE_ENTRIES: usize = 65_536;
/// Default result-cache shard count (`--cache-shards` overrides).
pub const DEFAULT_CACHE_SHARDS: usize = 16;
/// Default windowed-p99 SLO threshold in milliseconds
/// (`--slo-p99-ms` overrides).
pub const DEFAULT_SLO_P99_MS: u64 = 500;
/// Default windowed error-rate SLO threshold in whole percent
/// (`--slo-err-pct` overrides).
pub const DEFAULT_SLO_ERR_PCT: u64 = 5;
/// Access-log queue capacity (events buffered between the request path
/// and the writer thread before drops begin).
pub const ACCESS_LOG_QUEUE: usize = 4096;
/// Upper bound on `/v1/admin/stall?ms=` — the injected stall can spike
/// windowed latency but never pin a worker for more than this.
pub const MAX_STALL_MS: u64 = 2_000;
/// Upper bound on `/v1/admin/profile?seconds=` — a capture window holds
/// a worker thread (snapshot, sleep, snapshot) for its whole duration.
pub const MAX_PROFILE_SECONDS: u64 = 30;

/// Behavioural knobs for [`ServeState::build_with`]. Transport-level
/// knobs (address, pool size, queue) stay in
/// [`ServerConfig`](crate::ServerConfig).
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Token gating `/v1/shutdown`; `None` disables admin endpoints.
    pub admin_token: Option<String>,
    /// Total result-cache entries across all shards; 0 disables caching.
    pub cache_entries: usize,
    /// Result-cache shard count (per-shard mutexes bound contention).
    pub cache_shards: usize,
    /// Maximum queries accepted per batch request.
    pub batch_max: usize,
    /// Scoped worker threads used to evaluate one batch.
    pub batch_threads: usize,
    /// Append one JSON-lines access event per request to this file
    /// (`--access-log`); `None` disables access logging.
    pub access_log: Option<String>,
    /// Keep every Nth access event per target (`--log-sample`; 1 keeps
    /// all).
    pub log_sample: u64,
    /// Serve only the owned slice of the product vertex space:
    /// `Some((index, count))` for `--shard I/N`. Ownership follows the
    /// [`bikron_core::partition::block_range`] tiling — the same
    /// arithmetic [`PartitionedStream`] and the cluster router use — and
    /// keyed endpoints answer 421 (Misdirected Request) for vertices
    /// another shard owns. `None` (the default) serves the full space.
    ///
    /// [`PartitionedStream`]: bikron_core::stream::PartitionedStream
    pub shard: Option<(usize, usize)>,
    /// `/v1/health` flips to `degraded` when a windowed p99 exceeds this
    /// many milliseconds.
    pub slo_p99_ms: u64,
    /// `/v1/health` flips to `degraded` when a windowed 5xx rate exceeds
    /// this percentage of requests.
    pub slo_err_pct: u64,
    /// Tail-sample any request slower than this many milliseconds into
    /// the span ring (`--trace-slow-ms`; 0 disables tail sampling).
    pub trace_slow_ms: u64,
    /// Additionally head-sample 1-in-N requests into the span ring
    /// (`--trace-sample`; 0 disables head sampling). Tracing is fully
    /// off — no recorder allocated per request — when both this and
    /// `trace_slow_ms` are 0.
    pub trace_sample: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            admin_token: None,
            cache_entries: DEFAULT_CACHE_ENTRIES,
            cache_shards: DEFAULT_CACHE_SHARDS,
            batch_max: DEFAULT_BATCH_MAX,
            batch_threads: 4,
            access_log: None,
            log_sample: 1,
            shard: None,
            slo_p99_ms: DEFAULT_SLO_P99_MS,
            slo_err_pct: DEFAULT_SLO_ERR_PCT,
            trace_slow_ms: 0,
            trace_sample: 0,
        }
    }
}

/// Pre-resolved handles for every metric the hot path touches, so a
/// request never takes the registry's name-lookup mutex. Requests,
/// server errors, and request latency are **windowed** wrappers: one
/// `record` call updates both the cumulative global series and this
/// state's private epoch ring, so `/metrics` and `/v1/health` can report
/// 1m/5m rates and percentiles alongside the since-boot totals.
pub struct ServeMetrics {
    requests: Arc<WindowedCounter>,
    errors_5xx: Arc<WindowedCounter>,
    bytes_out: Arc<Counter>,
    request_ns: Arc<WindowedHistogram>,
    inflight: Arc<Gauge>,
    connections: Arc<Counter>,
    shed: Arc<Counter>,
    batch_size: Arc<Histogram>,
    batch_items: Arc<Counter>,
    /// `(code, counter)` for every status the server can emit.
    status: Vec<(u16, Arc<Counter>)>,
    /// The epoch-ring registry behind the windowed handles above.
    windows: WindowRegistry,
}

impl ServeMetrics {
    fn new() -> Self {
        let obs = bikron_obs::global();
        let windows = WindowRegistry::new();
        let status = [200u16, 400, 403, 404, 405, 413, 421, 431, 500, 501, 503]
            .iter()
            .map(|&c| (c, obs.counter(&format!("serve.status.{c}"))))
            .collect();
        ServeMetrics {
            requests: windows.counter(obs, "serve.requests"),
            errors_5xx: windows.counter(obs, "serve.errors_5xx"),
            bytes_out: obs.counter("serve.bytes_out"),
            request_ns: windows.histogram(obs, "serve.request_ns"),
            inflight: obs.gauge("serve.inflight"),
            connections: obs.counter("serve.connections"),
            shed: obs.counter("serve.shed"),
            batch_size: obs.histogram("serve.batch_size"),
            batch_items: obs.counter("serve.batch.items"),
            status,
            windows,
        }
    }

    /// Record one completed request.
    pub fn record(&self, status: u16, bytes: u64, ns: u64) {
        self.requests.inc();
        if status >= 500 {
            self.errors_5xx.inc();
        }
        self.bytes_out.add(bytes);
        self.request_ns.record(ns);
        if let Some((_, c)) = self.status.iter().find(|(s, _)| *s == status) {
            c.inc();
        } else {
            bikron_obs::global()
                .counter(&format!("serve.status.{status}"))
                .inc();
        }
    }
}

/// Everything a worker needs to answer queries. Send + Sync; shared via
/// `Arc` across the pool.
pub struct ServeState {
    /// The served program; every count is evaluated here.
    chain: KronChain,
    /// Set by [`ServeState::build_with`] (and by a warm boot from a pair
    /// snapshot): the chain is `A⊗B` / `(A+I)⊗B` and keeps the pair
    /// rendering described in the module docs.
    pair: bool,
    /// Canonicalised expression string — reported in `/v1/stats` and
    /// folded into the cache's shard-hash seed. Pair servers report the
    /// implied program (`A⊗B` / `(A+I)⊗B`).
    expr: String,
    /// The `/v1/stats` body as snapshots store it; served with the boot
    /// path (`warm`) appended.
    stats_json: String,
    warm: bool,
    admin_token: Option<String>,
    cache: Option<ShardedCache>,
    batch_max: usize,
    batch_threads: usize,
    /// `--shard I/N`: serve only the owned block of the product vertex
    /// space; `None` serves everything.
    shard: Option<(usize, usize)>,
    shutdown: AtomicBool,
    metrics: ServeMetrics,
    logger: Option<EventLogger>,
    /// Captured slow/sampled request traces (per server instance, so
    /// multi-server tests and processes never cross-contaminate).
    spans: SpanSink,
    slo_p99_ms: u64,
    slo_err_pct: u64,
    started: Instant,
}

/// Collapse a request path to a bounded-cardinality shape for access
/// logs: purely numeric segments become `{n}`, so `/v1/vertex/17` and
/// `/v1/vertex/23` aggregate under one key instead of exploding the
/// log's value space.
pub fn path_shape(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    for seg in path.split('/').filter(|s| !s.is_empty()) {
        out.push('/');
        if seg.bytes().all(|b| b.is_ascii_digit()) {
            out.push_str("{n}");
        } else {
            out.push_str(seg);
        }
    }
    if out.is_empty() {
        out.push('/');
    }
    out
}

/// One request's diagnostics on a serve worker: the open frame
/// (`accept` during the read, then `write`) and the request installed on
/// the worker's frame stack, which carries the span recorder when the
/// span sink is enabled and the cache outcome for the access log.
#[derive(Default)]
pub struct ServeExchange {
    /// When the worker began reading the request; the recorder's clock
    /// starts here so the `accept` span covers the socket read.
    io_started: Option<Instant>,
    /// Declared before `request` so it closes first on every path.
    frame: Option<ProfileGuard>,
    request: Option<RequestScope>,
}

impl Handler for ServeState {
    const ROLE: &'static str = "serve";
    type Exchange = ServeExchange;

    /// Route through [`ServeState::handle`] inside the `evaluate` frame,
    /// which the cache, serialise and batch-item spans hang off.
    fn handle(&self, req: &Request, _ctx: &TraceContext) -> Response {
        let _evaluate = phase("evaluate");
        ServeState::handle(self, req)
    }

    fn shutdown_requested(&self) -> bool {
        ServeState::shutdown_requested(self)
    }

    fn connection_opened(&self) {
        self.metrics.connections.inc();
    }

    fn inflight(&self) -> &Gauge {
        &self.metrics.inflight
    }

    fn record(&self, status: u16, bytes: u64, ns: u64) {
        self.metrics.record(status, bytes, ns);
    }

    fn record_shed(&self, bytes: u64) {
        self.metrics.shed.inc();
        self.metrics.record(503, bytes, 0);
    }

    /// The profiler's `accept` frame covers the blocking read (and, on
    /// keep-alive connections, idle time between requests — the sampler
    /// attributes a quiet server to `accept`, which is true: the worker
    /// really is parked in the socket read).
    fn open(&self) -> ServeExchange {
        ServeExchange {
            io_started: Some(Instant::now()),
            frame: Some(phase("accept")),
            ..ServeExchange::default()
        }
    }

    fn begin(&self, ex: &mut ServeExchange, ctx: &TraceContext, remote_parent: u64) {
        ex.frame = None;
        let recorder = self.spans.enabled().then(|| {
            let started = ex.io_started.unwrap_or_else(Instant::now);
            let rec = SpanRecorder::with_start(*ctx, remote_parent, started);
            // `accept` retroactively covers the socket read; `parse` is a
            // zero-width marker (parsing happens inside the read).
            let accept = rec.begin_at("accept", None, 0);
            rec.end(accept);
            let parse = rec.begin("parse", None);
            rec.end(parse);
            rec
        });
        ex.request = Some(bikron_obs::span::begin_request(recorder));
    }

    fn writing(&self, ex: &mut ServeExchange) {
        ex.frame = Some(phase("write"));
    }

    /// One access-log event, and the finished span tree offered for tail
    /// capture.
    fn finish(
        &self,
        mut ex: ServeExchange,
        req: Option<&Request>,
        status: u16,
        bytes: u64,
        ns: u64,
        trace_id: &str,
    ) {
        ex.frame = None;
        let (recorder, cache) = ex.request.take().map_or((None, None), RequestScope::finish);
        if self.logger.is_none() && recorder.is_none() {
            return;
        }
        let (method, shape) = match req {
            Some(req) => (req.method.as_str(), path_shape(&req.path)),
            None => ("-", "malformed".to_string()),
        };
        self.log_access(method, &shape, status, ns, bytes, cache, Some(trace_id));
        if let Some(rec) = recorder {
            self.spans.offer(rec, method, &shape, status, bytes, ns);
        }
    }
}

/// What a warm boot restored — surfaced in the startup banner and the
/// `serve.snapshot.*` gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmInfo {
    /// Wall-clock nanoseconds spent rebuilding state from the snapshot.
    pub load_ns: u64,
    /// Result-cache entries restored (after shard-ownership filtering).
    pub cache_entries_restored: usize,
}

/// Insert `"snapshot": "warm"|"cold"` as the last member of the cached
/// `/v1/stats` body. The body is a `JsonWriter` object, so its final
/// close brace is the only `\n}` at indent zero.
fn with_snapshot_field(stats_json: &str, warm: bool) -> String {
    let state = if warm { "warm" } else { "cold" };
    match stats_json.rfind("\n}") {
        Some(at) => format!(
            "{},\n  \"snapshot\": \"{state}\"{}",
            &stats_json[..at],
            &stats_json[at..]
        ),
        None => stats_json.to_string(),
    }
}

impl ServeState {
    /// Build the service state with default [`ServeOptions`] apart from
    /// the admin token. See [`ServeState::build_with`].
    pub fn build(
        a: Graph,
        b: Graph,
        mode: SelfLoopMode,
        admin_token: Option<String>,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        Self::build_with(
            a,
            b,
            mode,
            ServeOptions {
                admin_token,
                ..ServeOptions::default()
            },
        )
    }

    /// Build a **pair** server: the two-level chain `A⊗B` / `(A+I)⊗B`
    /// (factor statistics computed once), marked for the pair rendering,
    /// with its `/v1/stats` body cached and the result cache sized.
    pub fn build_with(
        a: Graph,
        b: Graph,
        mode: SelfLoopMode,
        options: ServeOptions,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let _phase = bikron_obs::global().phase("serve.build");
        let bindings = vec![("A".to_string(), a), ("B".to_string(), b)];
        let chain = KronChain::new(bindings, &pair_levels(mode == SelfLoopMode::FactorA))?;
        let stats_json = stats_body(&pair_view(&chain), &chain);
        Self::assemble(chain, true, stats_json, options, false)
    }

    /// Build an **expression** server: an arbitrary Kronecker program
    /// over named factor graphs (`bikron serve --expr`). `levels` is the
    /// flattened chain from [`bikron_sparse::parse_expr`]; `bindings`
    /// maps each referenced name to its graph.
    pub fn build_expr(
        bindings: Vec<(String, Graph)>,
        levels: &[(String, bool)],
        options: ServeOptions,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let _phase = bikron_obs::global().phase("serve.build");
        let chain = KronChain::new(bindings, levels)?;
        let stats_json = stats_body_chain(&chain);
        Self::assemble(chain, false, stats_json, options, false)
    }

    /// Rebuild a server from a decoded snapshot: factor stats come from
    /// the file instead of `FactorStats::compute`, the `/v1/stats` body
    /// is the captured one (skipping the structure predictions and the
    /// degree histogram on pair servers), and the result cache is
    /// primed with the harvested hot entries. `/v1/stats` reports
    /// `"snapshot": "warm"` and the `serve.snapshot.*` gauges record the
    /// load cost. Callers are expected to have validated the snapshot
    /// against the requested spec first (`Snapshot::validate_pair` /
    /// `validate_expr`).
    pub fn build_from_snapshot(
        snap: crate::snapshot::Snapshot,
        options: ServeOptions,
    ) -> Result<(Self, WarmInfo), Box<dyn std::error::Error>> {
        let _phase = bikron_obs::global().phase("serve.build");
        let t0 = Instant::now();
        let chain = KronChain::with_stats(snap.bindings, &snap.levels)?;
        let state = Self::assemble(chain, snap.pair, snap.stats_json, options, true)?;
        let mut restored = 0;
        if let Some(cache) = &state.cache {
            let entries = match state.shard {
                None => snap.cache,
                Some((index, count)) => {
                    // A shard only answers keys whose primary vertex it
                    // owns (scatter pages are served anywhere), so only
                    // those entries can ever be hit again here.
                    let n = state.num_vertices();
                    snap.cache
                        .into_iter()
                        .filter(|(key, _)| match *key {
                            CacheKey::Vertex(p)
                            | CacheKey::Edge(p, _)
                            | CacheKey::Neighbors(p, _, _)
                            | CacheKey::Clustering(p, _) => {
                                bikron_core::partition::owner_of(n, count, p) == index
                            }
                            CacheKey::Scatter(_, _) => true,
                        })
                        .collect()
                }
            };
            restored = cache.restore(entries);
        }
        let info = WarmInfo {
            load_ns: t0.elapsed().as_nanos() as u64,
            cache_entries_restored: restored,
        };
        let obs = bikron_obs::global();
        obs.gauge("serve.snapshot.load_ns").set(info.load_ns);
        obs.gauge("serve.snapshot.cache_entries_restored")
            .set(restored as u64);
        Ok((state, info))
    }

    /// Capture this server's state as a [`crate::snapshot::Snapshot`],
    /// harvesting up to `top_k` of the hottest result-cache entries.
    pub fn to_snapshot(&self, top_k: usize) -> crate::snapshot::Snapshot {
        crate::snapshot::Snapshot {
            expr: self.expr.clone(),
            shard: self.shard,
            pair: self.pair,
            bindings: (0..self.chain.num_atoms())
                .map(|i| {
                    let (name, g, s) = self.chain.atom_info(i);
                    (name.to_string(), g.clone(), s.clone())
                })
                .collect(),
            levels: self.chain.level_spec(),
            stats_json: self.stats_json.clone(),
            cache: self
                .cache
                .as_ref()
                .map(|c| c.hottest(top_k))
                .unwrap_or_default(),
        }
    }

    fn assemble(
        chain: KronChain,
        pair: bool,
        stats_json: String,
        options: ServeOptions,
        warm: bool,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let expr = chain.canonical().to_string();
        // Seed the cache's shard hash with the canonical expression so a
        // key like `Vertex(7)` hashes differently under different served
        // programs (DESIGN.md §11).
        let mut seed = crate::cache::DEFAULT_HASH_SEED;
        for b in expr.as_bytes() {
            seed ^= *b as u64;
            seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let cache = (options.cache_entries > 0)
            .then(|| ShardedCache::with_seed(options.cache_entries, options.cache_shards, seed));
        let logger = match &options.access_log {
            Some(path) => Some(EventLogger::to_file(
                std::path::Path::new(path),
                ACCESS_LOG_QUEUE,
                options.log_sample,
            )?),
            None => None,
        };
        if let Some((index, count)) = options.shard {
            if count == 0 || index >= count {
                return Err(
                    format!("shard {index}/{count} is invalid (need index < count)").into(),
                );
            }
        }
        // Advertise the boot path in `/v1/stats` (appended when served,
        // so warm and cold bodies are byte-identical everywhere else) and
        // in the `serve.snapshot.warm` gauge so `monitor` can surface it.
        // Cold boots zero the companion gauges so the keys always exist
        // in a metrics report.
        let obs = bikron_obs::global();
        obs.gauge("serve.snapshot.warm").set(u64::from(warm));
        if !warm {
            obs.gauge("serve.snapshot.load_ns").set(0);
            obs.gauge("serve.snapshot.cache_entries_restored").set(0);
        }
        Ok(ServeState {
            chain,
            pair,
            expr,
            stats_json,
            warm,
            admin_token: options.admin_token,
            cache,
            batch_max: options.batch_max.max(1),
            batch_threads: options.batch_threads.max(1),
            shard: options.shard,
            shutdown: AtomicBool::new(false),
            metrics: ServeMetrics::new(),
            logger,
            spans: SpanSink::new(
                DEFAULT_TRACE_CAPACITY,
                options.trace_slow_ms,
                options.trace_sample,
            ),
            slo_p99_ms: options.slo_p99_ms.max(1),
            slo_err_pct: options.slo_err_pct.min(100),
            started: Instant::now(),
        })
    }

    /// The canonicalised expression string this server reports.
    pub fn expr(&self) -> &str {
        &self.expr
    }

    /// The hot-path metric handles.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The result cache, if enabled (`cache_entries > 0`).
    pub fn cache(&self) -> Option<&ShardedCache> {
        self.cache.as_ref()
    }

    /// The span sink capturing slow/sampled request traces.
    pub fn spans(&self) -> &SpanSink {
        &self.spans
    }

    /// The configured per-batch query cap.
    pub fn batch_max(&self) -> usize {
        self.batch_max
    }

    /// Whether shutdown has been requested (admin endpoint or signal).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || crate::signal::ctrl_c_received()
    }

    /// Request shutdown programmatically.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Product vertex count (the `n` the shard ownership map tiles).
    pub fn num_vertices(&self) -> usize {
        self.chain.num_vertices()
    }

    /// The `--shard I/N` configuration, if this backend serves only a
    /// slice of the product vertex space.
    pub fn shard(&self) -> Option<(usize, usize)> {
        self.shard
    }

    /// Ownership gate for keyed endpoints on a sharded backend: 421
    /// (Misdirected Request) when `p` belongs to another shard's block.
    /// Callers must range-check first (out-of-range stays 404, identical
    /// to an unsharded server, so a router can send such keys anywhere).
    fn check_owned(&self, p: usize) -> Result<(), Response> {
        let Some((index, count)) = self.shard else {
            return Ok(());
        };
        let n = self.num_vertices();
        let owner = bikron_core::partition::owner_of(n, count, p);
        if owner != index {
            return Err(Response::error(
                421,
                &format!("vertex {p} is owned by shard {owner}/{count}; this is shard {index}"),
            ));
        }
        Ok(())
    }

    /// Route and answer one request. Pure: no I/O, no blocking — the
    /// pool owns transport and metrics.
    pub fn handle(&self, req: &Request) -> Response {
        let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        if req.method == "POST" {
            return match segs.as_slice() {
                ["v1", "batch"] => self.batch(req),
                _ => Response::error(405, "POST is only accepted on /v1/batch"),
            };
        }
        match segs.as_slice() {
            ["metrics"] => self.metrics_response(req),
            ["v1", "stats"] => {
                Response::json(200, with_snapshot_field(&self.stats_json, self.warm))
            }
            ["v1", "health"] => self.health_response(),
            ["v1", "vertex", p] => self.indexed([p], |[p]| self.vertex_at(p)),
            ["v1", "edge", p, q] => self.indexed([p, q], |[p, q]| self.edge_at(p, q)),
            ["v1", "neighbors", p] => self.indexed([p], |[p]| match parse_page(req) {
                Ok((offset, limit)) => self.neighbors_at(p, offset, limit),
                Err(resp) => resp,
            }),
            ["v1", "edges", part, parts] => self.edges(part, parts, req),
            ["v1", "clustering", p, q] => self.indexed([p, q], |[p, q]| self.clustering_at(p, q)),
            ["v1", "community"] => self.community(req),
            ["v1", "scatter", "degree-squares"] => self.scatter_degree_squares(req),
            ["v1", "batch"] => Response::error(405, "batch requires POST"),
            ["v1", "shutdown"] => self.shutdown_endpoint(req),
            ["v1", "admin", "stall"] => self.stall_endpoint(req),
            ["v1", "admin", "traces"] => self.traces_endpoint(req),
            ["v1", "admin", "profile"] => self.profile_endpoint(req),
            _ => Response::error(404, &format!("no route for {}", req.path)),
        }
    }

    /// Parse the path's vertex indices (400 malformed, 404 out of range;
    /// the first failure answers) and answer with `at`.
    fn indexed<const K: usize>(
        &self,
        raw: [&&str; K],
        at: impl FnOnce([usize; K]) -> Response,
    ) -> Response {
        let mut idx = [0; K];
        for (slot, raw) in idx.iter_mut().zip(raw) {
            match parse_index(raw, self.num_vertices()) {
                Ok(p) => *slot = p,
                Err(resp) => return resp,
            }
        }
        at(idx)
    }

    fn batch(&self, req: &Request) -> Response {
        let body = match std::str::from_utf8(&req.body) {
            Ok(s) => s,
            Err(_) => return Response::error(400, "batch body is not valid UTF-8"),
        };
        let queries = match crate::batch::parse_batch(body, self.batch_max) {
            Ok(qs) => qs,
            Err(e) => return e.response(),
        };
        self.metrics.batch_size.record(queries.len() as u64);
        self.metrics.batch_items.add(queries.len() as u64);
        crate::batch::eval_batch(self, &queries, self.batch_threads)
    }

    /// Cache-through evaluation: serve `key` from the result cache when
    /// enabled, else compute via `f` and (for 200s) remember the body.
    /// Correctness never depends on the cache — every answer is a pure
    /// function of immutable state, so a cached body is always current.
    fn cached(&self, key: CacheKey, f: impl FnOnce() -> Response) -> Response {
        let Some(cache) = &self.cache else {
            return f();
        };
        let lookup = phase("cache");
        let hit = cache.get(&key);
        lookup.cache(hit.is_some());
        drop(lookup);
        if let Some(body) = hit {
            return Response::json(200, (*body).clone());
        }
        // On a miss the closure both evaluates the closed form and
        // serialises the body (the two are fused in each endpoint's
        // JsonWriter pass), so one `serialize` frame covers the compute.
        let serialize = phase("serialize");
        let resp = f();
        drop(serialize);
        if resp.status == 200 {
            cache.insert(key, Arc::new(resp.body.clone()));
        }
        resp
    }

    /// `GET /v1/vertex/{p}` for an already-parsed index (shared with the
    /// batch evaluator — both produce identical bytes). Pair servers
    /// report the two-factor coordinates as `"alpha"`/`"beta"`;
    /// expression servers report the per-level `"coords"` array.
    pub(crate) fn vertex_at(&self, p: usize) -> Response {
        if let Err(resp) = check_range(p, self.num_vertices()).and_then(|()| self.check_owned(p)) {
            return resp;
        }
        self.cached(CacheKey::Vertex(p), || {
            let coords = self.chain.coords(p);
            let mut w = JsonWriter::new();
            w.open_object();
            w.u64_field("vertex", p as u64);
            if self.pair {
                for (key, c) in ["alpha", "beta"].into_iter().zip(coords) {
                    w.u64_field(key, c as u64);
                }
            } else {
                w.key("coords");
                w.open_array();
                for c in coords {
                    w.u64_element(c as u64);
                }
                w.close_array();
            }
            w.u64_field("degree", self.chain.degree(p));
            w.u64_field("squares", self.chain.vertex_squares_at(p));
            w.close_object();
            Response::json(200, w.finish())
        })
    }

    /// `GET /v1/edge/{p}/{q}` for already-parsed indices.
    pub(crate) fn edge_at(&self, p: usize, q: usize) -> Response {
        let n = self.num_vertices();
        // Pair queries are routed (and therefore owned) by their first
        // index `p`; `q` may live on any shard — factor-sized state
        // answers it regardless.
        if let Err(resp) = check_range(p, n)
            .and_then(|()| check_range(q, n))
            .and_then(|()| self.check_owned(p))
        {
            return resp;
        }
        self.cached(CacheKey::Edge(p, q), || {
            let (dp, dq, squares) = self.chain.edge_at(p, q);
            let mut w = JsonWriter::new();
            w.open_object();
            w.u64_field("p", p as u64);
            w.u64_field("q", q as u64);
            w.bool_field("edge", squares.is_some());
            w.u64_field("degree_p", dp);
            w.u64_field("degree_q", dq);
            w.opt_u64_field("squares", squares);
            w.close_object();
            Response::json(200, w.finish())
        })
    }

    /// `GET /v1/neighbors/{p}?offset&limit` for already-parsed values
    /// (`limit` must respect [`MAX_LIMIT`]; both entry points enforce it).
    pub(crate) fn neighbors_at(&self, p: usize, offset: u64, limit: usize) -> Response {
        if let Err(resp) = check_range(p, self.num_vertices()).and_then(|()| self.check_owned(p)) {
            return resp;
        }
        self.cached(CacheKey::Neighbors(p, offset, limit), || {
            let degree = self.chain.degree(p);
            let page = self.chain.neighbors_page(p, offset, limit);
            let mut w = JsonWriter::new();
            w.open_object();
            w.u64_field("vertex", p as u64);
            w.u64_field("degree", degree);
            w.u64_field("offset", offset);
            w.u64_field("count", page.len() as u64);
            let next = offset + page.len() as u64;
            w.opt_u64_field(
                "next_offset",
                (next < degree && !page.is_empty()).then_some(next),
            );
            w.key("neighbors");
            w.open_array();
            for q in &page {
                w.u64_element(*q as u64);
            }
            w.close_array();
            w.close_object();
            Response::json(200, w.finish())
        })
    }

    fn edges(&self, raw_part: &str, raw_parts: &str, req: &Request) -> Response {
        let parts: usize = match raw_parts.parse() {
            Ok(v) if (1..=MAX_PARTS).contains(&v) => v,
            _ => {
                return Response::error(
                    400,
                    &format!("parts must be an integer in 1..={MAX_PARTS}, got {raw_parts:?}"),
                )
            }
        };
        let part: usize = match raw_part.parse() {
            Ok(v) if v < parts => v,
            _ => {
                return Response::error(
                    400,
                    &format!("part must be an integer below parts={parts}, got {raw_part:?}"),
                )
            }
        };
        // Sharded backend: the partition space itself is tiled across
        // shards with the same block arithmetic the vertex space uses,
        // so a shard only streams parts inside its owned slice. Without
        // this gate a shard would happily page the *full* edge set
        // (PartitionedStream always assumes the whole space) — every
        // shard would re-stream every part and a cluster would emit
        // N copies of each edge.
        if let Some((index, count)) = self.shard {
            let owner = bikron_core::partition::owner_of(parts, count, part);
            if owner != index {
                return Response::error(
                    421,
                    &format!(
                        "part {part}/{parts} is owned by shard {owner}/{count}; \
                         this is shard {index}"
                    ),
                );
            }
        }
        let (offset, limit) = match parse_page(req) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let annotate = matches!(req.query_param("annotate"), Some("1") | Some("true"));
        let Some(prod) = self.pair_product() else {
            return Response::error(
                501,
                "/v1/edges streaming is not implemented for expression servers; \
                 page adjacency via /v1/neighbors instead",
            );
        };
        let (stats_a, stats_b) = (self.chain.level_stats(0), self.chain.level_stats(1));
        let ps = PartitionedStream::new(&prod, stats_a, stats_b, parts);
        let total = ps.part_len(part);
        let page = ps.edges_page(part, offset, limit);
        let mut w = JsonWriter::new();
        w.open_object();
        w.u64_field("part", part as u64);
        w.u64_field("parts", parts as u64);
        w.u64_field("part_edges", total);
        w.u64_field("offset", offset);
        w.u64_field("count", page.len() as u64);
        let next = offset + page.len() as u64;
        w.opt_u64_field(
            "next_offset",
            (next < total && !page.is_empty()).then_some(next),
        );
        w.key("edges");
        w.open_array();
        for &(p, q) in &page {
            w.array_element();
            w.open_array();
            w.u64_element(p as u64);
            w.u64_element(q as u64);
            if annotate {
                let (dp, dq, squares) = self.chain.edge_at(p, q);
                w.u64_element(dp);
                w.u64_element(dq);
                w.u64_element(squares.expect("streamed pairs are edges"));
            }
            w.close_array();
        }
        w.close_array();
        w.close_object();
        Response::json(200, w.finish())
    }

    /// `GET /v1/clustering/{p}/{q}`: the Thm 6 surface — exact edge
    /// clustering coefficient `Γ_C(p,q)` (Eq. 5) plus the scaling-law
    /// lower bound `ψ·Γ_A·Γ_B` (Thm 6) where defined. `gamma` is exact
    /// for every served program; `bound`/`psi` are only defined on
    /// identity-free programs with all factor degrees ≥ 2 (the theorem's
    /// hypotheses), and are `null` otherwise.
    fn clustering_at(&self, p: usize, q: usize) -> Response {
        let n = self.num_vertices();
        if let Err(resp) = check_range(p, n)
            .and_then(|()| check_range(q, n))
            .and_then(|()| self.check_owned(p))
        {
            return resp;
        }
        self.cached(CacheKey::Clustering(p, q), || {
            let c = self.chain.clustering_at(p, q);
            let mut w = JsonWriter::new();
            w.open_object();
            w.u64_field("p", p as u64);
            w.u64_field("q", q as u64);
            w.bool_field("edge", c.squares.is_some());
            w.u64_field("degree_p", c.degree_p);
            w.u64_field("degree_q", c.degree_q);
            w.opt_u64_field("squares", c.squares);
            for (key, value) in [("gamma", c.gamma), ("bound", c.bound), ("psi", c.psi)] {
                w.opt_f64_field(key, value);
            }
            w.close_object();
            Response::json(200, w.finish())
        })
    }

    /// `GET /v1/community`: the Thm 7 / Cor 1–2 surface. Pair servers
    /// take `?a=<ids>&b=<ids>` (comma-separated factor-vertex sets);
    /// expression servers take one `?s{i}=<ids>` per level. `m_in` and
    /// `m_out` are **exact** for every program (Thm 7, chained); the
    /// density fields `rho_in` / `rho_in_lower_bound` (Cor 1) /
    /// `rho_out_upper_bound` (Cor 2) additionally require a pair server
    /// with bipartite factors and are `null` otherwise.
    ///
    /// Not cached: set-valued queries have unbounded key cardinality and
    /// each answer is O(Σ|S_i| + Σ deg) anyway.
    fn community(&self, req: &Request) -> Response {
        let k = self.chain.num_levels();
        let names: Vec<String> = if self.pair {
            vec!["a".into(), "b".into()]
        } else {
            (0..k).map(|i| format!("s{i}")).collect()
        };
        let usage = || {
            let detail = if self.pair {
                "community requires ?a=<ids>&b=<ids> (comma-separated factor vertices)".to_string()
            } else {
                format!(
                    "community on a {k}-level expression requires ?s0=…&s{}=<ids>",
                    k - 1
                )
            };
            Response::error(400, &detail)
        };
        // Pair servers ask for both sets before parsing either one.
        if self.pair && names.iter().any(|name| req.query_param(name).is_none()) {
            return usage();
        }
        let mut sets = Vec::with_capacity(k);
        for name in &names {
            let Some(raw) = req.query_param(name) else {
                return usage();
            };
            match parse_id_list(name, raw) {
                Ok(set) => sets.push(set),
                Err(resp) => return resp,
            }
        }
        let truth = match self.chain.community(&sets) {
            Ok(t) => t,
            Err(ChainError::OutOfRange { level, .. }) => {
                let factor = self.chain.level_info(level).0;
                let detail = format!("{} contains a vertex outside factor {factor}", names[level]);
                return Response::error(404, &detail);
            }
            Err(e) => return Response::error(404, &format!("community sets rejected: {e}")),
        };
        let density = self.pair_density(&sets);
        let mut w = JsonWriter::new();
        w.open_object();
        w.string_field("theorem", "thm7");
        w.u64_field("size", truth.size);
        w.u64_field("m_in", truth.m_in);
        w.u64_field("m_out", truth.m_out);
        let d = density.as_ref();
        w.opt_f64_field("rho_in", d.and_then(|d| d.rho_in));
        w.opt_f64_field("rho_in_lower_bound", d.and_then(|d| d.rho_in_lower_bound));
        w.opt_f64_field("rho_out_upper_bound", d.and_then(|d| d.rho_out_upper_bound));
        w.close_object();
        Response::json(200, w.finish())
    }

    /// Cor 1–2 densities for the pair community `sets[0] × sets[1]`:
    /// `None` on an expression server or when a factor is not bipartite
    /// (the corollaries need the factor bipartitions as community sides).
    fn pair_density(&self, sets: &[Vec<usize>]) -> Option<ProductCommunityTruth> {
        let prod = self.pair_product()?;
        let (a, b) = (prod.factor_a(), prod.factor_b());
        let (bip_a, bip_b) = (bipartition(a)?, bipartition(b)?);
        let com_a = FactorCommunity::measure(a, &bip_a, &sets[0]);
        let com_b = FactorCommunity::measure(b, &bip_b, &sets[1]);
        product_community(&prod, &com_a, &com_b, &bip_a, &bip_b)
    }

    /// The two-factor product view of a pair server, `None` on an
    /// expression server.
    fn pair_product(&self) -> Option<KroneckerProduct<'_>> {
        self.pair.then(|| pair_view(&self.chain))
    }

    /// `GET /v1/scatter/degree-squares?offset&limit&format=json|csv`: the
    /// Fig. 5 export — one `(vertex, degree, squares)` row per product
    /// vertex, paged under the same [`MAX_LIMIT`] bound as every other
    /// endpoint so the sublinear-memory contract holds.
    fn scatter_degree_squares(&self, req: &Request) -> Response {
        let (offset, limit) = match parse_page(req) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let n = self.num_vertices() as u64;
        let start = offset.min(n);
        let end = n.min(offset.saturating_add(limit as u64));
        let row = |p: usize| (self.chain.degree(p), self.chain.vertex_squares_at(p));
        match req.query_param("format") {
            // The JSON page is cached like every other paged endpoint
            // (the cache stores bare JSON bodies, so the CSV rendering
            // below stays uncached), which also gives scatter requests a
            // cache hit/miss outcome for access logs and span trees.
            None | Some("json") => self.cached(CacheKey::Scatter(offset, limit), || {
                let mut w = JsonWriter::new();
                w.open_object();
                w.u64_field("offset", offset);
                w.u64_field("count", end - start);
                w.opt_u64_field("next_offset", (end < n && end > start).then_some(end));
                w.key("rows");
                w.open_array();
                for p in start..end {
                    let (d, s) = row(p as usize);
                    w.array_element();
                    w.open_array();
                    w.u64_element(p);
                    w.u64_element(d);
                    w.u64_element(s);
                    w.close_array();
                }
                w.close_array();
                w.close_object();
                Response::json(200, w.finish())
            }),
            Some("csv") => {
                let mut body = String::from("vertex,degree,squares\n");
                for p in start..end {
                    let (d, s) = row(p as usize);
                    body.push_str(&format!("{p},{d},{s}\n"));
                }
                Response {
                    status: 200,
                    content_type: "text/csv; charset=utf-8",
                    body,
                }
            }
            Some(other) => {
                Response::error(400, &format!("unknown scatter format {other:?} (json|csv)"))
            }
        }
    }

    fn metrics_response(&self, req: &Request) -> Response {
        // uptime_ms lets scrapers derive the cumulative (since-boot)
        // request rate without a second endpoint.
        let obs = bikron_obs::global();
        obs.gauge("serve.uptime_ms")
            .set(self.started.elapsed().as_millis() as u64);
        // Mirror the per-instance trace/log loss counters into the
        // report so dropped telemetry is observable (monitor flags them
        // when nonzero) instead of only being countable in principle.
        obs.gauge("serve.trace.seen").set(self.spans.seen());
        obs.gauge("serve.trace.captured").set(self.spans.captured());
        obs.gauge("serve.trace.dropped_spans")
            .set(self.spans.dropped_spans());
        obs.gauge("serve.log.dropped_lines")
            .set(self.logger.as_ref().map_or(0, EventLogger::dropped));
        let mut report = bikron_obs::global().snapshot();
        report.set_meta("tool", "bikron-serve");
        report.set_meta("endpoint", "/metrics");
        self.metrics.windows.snapshot_into(&mut report);
        // Ride the cumulative profile along when a sampler is running,
        // so `--metrics-out` files and scrapes carry attribution too.
        let prof = bikron_obs::profile::profiler();
        if prof.sampler_hz() > 0 {
            report.set_profile(prof.snapshot());
        }
        match req.query_param("format") {
            None | Some("json") => Response::json(200, report.to_json()),
            Some("prometheus") => Response {
                status: 200,
                content_type: "text/plain; version=0.0.4; charset=utf-8",
                body: bikron_obs::prom::to_prometheus(&report),
            },
            Some(other) => Response::error(
                400,
                &format!("unknown metrics format {other:?} (json|prometheus)"),
            ),
        }
    }

    /// `GET /v1/health`: readiness plus windowed SLO signals. `degraded`
    /// when any window that saw traffic violates either threshold.
    fn health_response(&self) -> Response {
        let requests = self.metrics.requests.snapshot();
        let errors = self.metrics.errors_5xx.snapshot();
        let latency = self.metrics.request_ns.snapshot();
        let windows = [
            ("1m", requests.w1m, errors.w1m, latency.w1m),
            ("5m", requests.w5m, errors.w5m, latency.w5m),
        ];
        // Pre-pass: evaluate every window so `status` can lead the body.
        let rows: Vec<_> = windows
            .into_iter()
            .map(|(label, req, err, lat)| {
                let err_pct = (err.count * 100).checked_div(req.count).unwrap_or(0);
                let p99_ms = lat.p99 / 1_000_000;
                let ok =
                    req.count == 0 || (err_pct <= self.slo_err_pct && p99_ms <= self.slo_p99_ms);
                (label, req, err, err_pct, p99_ms, ok)
            })
            .collect();
        let degraded = rows.iter().any(|&(.., ok)| !ok);

        let mut w = JsonWriter::new();
        w.open_object();
        w.string_field("status", if degraded { "degraded" } else { "ok" });
        // Sharded backends self-identify so the router can verify at
        // startup that each upstream really is the shard its position in
        // `--shards` claims (a shuffled list would misroute everything).
        if let Some((index, count)) = self.shard {
            w.string_field("shard", &format!("{index}/{count}"));
            let (lo, hi) = bikron_core::partition::block_range(self.num_vertices(), count, index);
            w.u64_field("owned_lo", lo as u64);
            w.u64_field("owned_hi", hi as u64);
        }
        w.u64_field("uptime_ms", self.started.elapsed().as_millis() as u64);
        w.key("slo");
        w.open_object();
        w.u64_field("p99_ms", self.slo_p99_ms);
        w.u64_field("err_pct", self.slo_err_pct);
        w.close_object();
        w.key("windows");
        w.open_object();
        for (label, req, err, err_pct, p99_ms, ok) in rows {
            w.key(label);
            w.open_object();
            w.u64_field("requests", req.count);
            w.u64_field("rate_per_sec", req.rate_per_sec);
            w.u64_field("errors_5xx", err.count);
            w.u64_field("err_pct", err_pct);
            w.u64_field("p99_ms", p99_ms);
            w.bool_field("ok", ok);
            w.close_object();
        }
        w.close_object();
        w.close_object();
        Response::json(200, w.finish())
    }

    /// `GET /v1/admin/stall?ms=N` (token-gated): sleep `N` ms inside the
    /// request path. The debug lever behind the ISSUE's injected-stall
    /// test — latency recorded for this request spikes the windowed p99
    /// so `/v1/health` demonstrably flips to `degraded`.
    fn stall_endpoint(&self, req: &Request) -> Response {
        if let Err(resp) = self.check_admin(req) {
            return resp;
        }
        let ms: u64 = match req.query_param("ms").map(str::parse) {
            Some(Ok(v)) => v,
            _ => return Response::error(400, "stall requires ?ms=N"),
        };
        let ms = ms.min(MAX_STALL_MS);
        std::thread::sleep(std::time::Duration::from_millis(ms));
        let mut w = JsonWriter::new();
        w.open_object();
        w.u64_field("stalled_ms", ms);
        w.close_object();
        Response::json(200, w.finish())
    }

    /// `GET /v1/admin/traces[?min_ms=N]` (token-gated): the captured
    /// span trees, newest first, plus the sink's policy and counters —
    /// what `bikron trace` renders as waterfalls.
    fn traces_endpoint(&self, req: &Request) -> Response {
        if let Err(resp) = self.check_admin(req) {
            return resp;
        }
        let min_ms: u64 = match req.query_param("min_ms").map(str::parse) {
            None => 0,
            Some(Ok(v)) => v,
            Some(Err(_)) => return Response::error(400, "min_ms must be an integer"),
        };
        let traces = self.spans.snapshot(min_ms.saturating_mul(1_000_000));
        let mut w = JsonWriter::new();
        w.open_object();
        w.string_field("schema", "bikron-traces/1");
        w.bool_field("enabled", self.spans.enabled());
        w.u64_field("slow_ms", self.spans.slow_ms());
        w.u64_field("seen", self.spans.seen());
        w.u64_field("captured", self.spans.captured());
        w.u64_field("dropped_spans", self.spans.dropped_spans());
        w.u64_field("count", traces.len() as u64);
        w.key("traces");
        w.open_array();
        for t in &traces {
            w.array_element();
            t.write_json(&mut w);
        }
        w.close_array();
        w.close_object();
        Response::json(200, w.finish())
    }

    /// `GET /v1/admin/profile[?seconds=N][&format=folded]` (token-gated):
    /// a sample-on-demand window over the process-wide continuous
    /// profiler. See [`profile_response`] for the contract.
    fn profile_endpoint(&self, req: &Request) -> Response {
        if let Err(resp) = self.check_admin(req) {
            return resp;
        }
        profile_response(req)
    }

    /// Emit one access-log event for a completed request (no-op without
    /// `--access-log`). `cache` is the outcome the request's scope hands
    /// back (`None` for a batch: items own theirs); `trace_id` is the request's 32-hex-char
    /// trace id (always present on the serving path, `None` only from
    /// contexts with no trace identity), making every access line
    /// joinable against captured span trees and upstream traces.
    #[allow(clippy::too_many_arguments)]
    pub fn log_access(
        &self,
        method: &str,
        path_shape: &str,
        status: u16,
        latency_ns: u64,
        bytes: u64,
        cache: Option<bool>,
        trace_id: Option<&str>,
    ) {
        let Some(logger) = &self.logger else {
            return;
        };
        logger.publish(
            LogEvent::new("access")
                .field("method", method)
                .field("path", path_shape)
                .field("status", status as u64)
                .field("latency_ns", latency_ns)
                .field("bytes", bytes)
                .field(
                    "cache",
                    match cache {
                        Some(true) => "hit",
                        Some(false) => "miss",
                        None => "-",
                    },
                )
                .field("trace_id", trace_id.unwrap_or("-")),
        );
    }

    /// Block until all published access-log events are on disk (tests
    /// and orderly shutdown).
    pub fn flush_logs(&self) {
        if let Some(logger) = &self.logger {
            logger.flush();
        }
    }

    /// Validate the admin token on `req` (`?token=` or `x-admin-token`).
    fn check_admin(&self, req: &Request) -> Result<(), Response> {
        let Some(expected) = &self.admin_token else {
            return Err(Response::error(
                403,
                "admin endpoints are disabled; restart with --admin-token",
            ));
        };
        let presented = req
            .query_param("token")
            .or_else(|| req.header("x-admin-token"));
        if presented != Some(expected.as_str()) {
            return Err(Response::error(403, "missing or invalid admin token"));
        }
        Ok(())
    }

    fn shutdown_endpoint(&self, req: &Request) -> Response {
        if let Err(resp) = self.check_admin(req) {
            return resp;
        }
        self.request_shutdown();
        let mut w = JsonWriter::new();
        w.open_object();
        w.bool_field("shutting_down", true);
        w.close_object();
        Response::json(200, w.finish())
    }
}

/// Parse a vertex index; 400 on malformed input, 404 on out-of-range.
fn parse_index(raw: &str, n: usize) -> Result<usize, Response> {
    let p: usize = raw
        .parse()
        .map_err(|_| Response::error(400, &format!("not a vertex index: {raw:?}")))?;
    check_range(p, n)?;
    Ok(p)
}

/// 404 for an index beyond the product — the shared range gate for the
/// path-segment and batch entry points.
fn check_range(p: usize, n: usize) -> Result<(), Response> {
    if p >= n {
        return Err(Response::error(
            404,
            &format!("vertex {p} out of range (product has {n} vertices)"),
        ));
    }
    Ok(())
}

/// Parse `offset` / `limit` query params with defaults and the MAX_LIMIT
/// cap.
fn parse_page(req: &Request) -> Result<(u64, usize), Response> {
    let offset = match req.query_param("offset") {
        None => 0,
        Some(raw) => raw
            .parse()
            .map_err(|_| Response::error(400, &format!("bad offset {raw:?}")))?,
    };
    let limit = match req.query_param("limit") {
        None => DEFAULT_LIMIT,
        Some(raw) => {
            let l: usize = raw
                .parse()
                .map_err(|_| Response::error(400, &format!("bad limit {raw:?}")))?;
            if l > MAX_LIMIT {
                return Err(Response::error(
                    400,
                    &format!("limit {l} exceeds the cap of {MAX_LIMIT}"),
                ));
            }
            l
        }
    };
    Ok((offset, limit))
}

/// Parse a comma-separated factor-vertex set (`?a=0,2,5`). Bounded at
/// [`MAX_LIMIT`] members so a community query obeys the same per-request
/// memory cap as a page. Sorted and deduplicated on return.
fn parse_id_list(name: &str, raw: &str) -> Result<Vec<usize>, Response> {
    let mut out = Vec::new();
    for piece in raw.split(',').filter(|s| !s.is_empty()) {
        let v: usize = piece
            .parse()
            .map_err(|_| Response::error(400, &format!("{name} has a non-integer id {piece:?}")))?;
        out.push(v);
        if out.len() > MAX_LIMIT {
            return Err(Response::error(
                400,
                &format!("{name} exceeds the {MAX_LIMIT}-member cap"),
            ));
        }
    }
    if out.is_empty() {
        return Err(Response::error(400, &format!("{name} is an empty set")));
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

/// The level spec of a pair server: `A⊗B`, or `(A+I)⊗B` when `lifted`.
pub(crate) fn pair_levels(lifted: bool) -> Vec<(String, bool)> {
    vec![("A".to_string(), lifted), ("B".to_string(), false)]
}

/// The two-factor [`KroneckerProduct`] view of a pair server's chain.
/// O(1): the factors were validated when the chain was built.
fn pair_view(chain: &KronChain) -> KroneckerProduct<'_> {
    let (_, a, lifted) = chain.level_info(0);
    let (_, b, _) = chain.level_info(1);
    let mode = if lifted {
        SelfLoopMode::FactorA
    } else {
        SelfLoopMode::None
    };
    KroneckerProduct::new(a, b, mode).expect("pair factors validated at build")
}

/// Open a `/v1/stats` body: its schema and the metrics schemas served.
fn stats_head() -> JsonWriter {
    let mut w = JsonWriter::new();
    w.open_object();
    w.string_field("schema", "bikron-serve/1");
    w.key("metrics_schemas");
    w.open_array();
    for schema in [
        bikron_obs::SCHEMA_V1,
        bikron_obs::SCHEMA_V2,
        bikron_obs::SCHEMA_V3,
        bikron_obs::SCHEMA,
    ] {
        w.string_element(schema);
    }
    w.close_array();
    w
}

/// Build a pair server's cached Table-I-style `/v1/stats` body: the
/// structure predictions (Thms 1–2) from the product view, the counts
/// from the chain.
fn stats_body(prod: &KroneckerProduct<'_>, chain: &KronChain) -> String {
    let st = predict_structure(prod);
    let hist = bikron_core::truth::degrees::degree_histogram(prod);
    let mut w = stats_head();
    w.string_field(
        "mode",
        match prod.mode() {
            SelfLoopMode::None => "none",
            SelfLoopMode::FactorA => "loops-a",
        },
    );
    w.string_field("expr", chain.canonical());
    for (key, g) in [("factor_a", prod.factor_a()), ("factor_b", prod.factor_b())] {
        w.key(key);
        w.open_object();
        w.u64_field("vertices", g.num_vertices() as u64);
        w.u64_field("edges", g.num_edges() as u64);
        w.close_object();
    }
    w.u64_field("vertices", chain.num_vertices() as u64);
    w.u64_field("edges", chain.num_edges());
    w.bool_field("bipartite", st.bipartite);
    w.opt_u64_field("part_u", st.parts.map(|(u, _)| u as u64));
    w.opt_u64_field("part_w", st.parts.map(|(_, wn)| wn as u64));
    w.bool_field("connected", st.connected);
    w.opt_u64_field("components", st.num_components.map(|c| c as u64));
    w.u64_field("global_squares", chain.global_squares());
    w.u64_field("max_degree", chain.max_degree());
    w.u64_field("distinct_degrees", hist.len() as u64);
    w.close_object();
    w.finish()
}

/// The `/v1/stats` body for an expression server: the canonicalised
/// program, one entry per level, and the chained global counts. The
/// pair-only structure predictions (bipartiteness, connectivity — Thms
/// 1–2 are two-factor statements) are intentionally absent.
fn stats_body_chain(chain: &KronChain) -> String {
    let mut w = stats_head();
    w.string_field("expr", chain.canonical());
    w.key("levels");
    w.open_array();
    for i in 0..chain.num_levels() {
        let (name, g, plus_identity) = chain.level_info(i);
        w.array_element();
        w.open_object();
        w.string_field("name", name);
        w.u64_field("vertices", g.num_vertices() as u64);
        w.u64_field("edges", g.num_edges() as u64);
        w.bool_field("plus_identity", plus_identity);
        w.close_object();
    }
    w.close_array();
    w.u64_field("vertices", chain.num_vertices() as u64);
    w.u64_field("edges", chain.num_edges());
    w.u64_field("global_squares", chain.global_squares());
    w.u64_field("max_degree", chain.max_degree());
    w.close_object();
    w.finish()
}

/// Answer a (pre-authorised) `/v1/admin/profile` request against the
/// process-wide sampling profiler. Shared by the single-shard server and
/// the cluster router, which gate it behind their own admin tokens.
///
/// `?seconds=N` (capped at [`MAX_PROFILE_SECONDS`], default 0) scopes
/// the profile to an on-demand window: snapshot, sleep N seconds while
/// the sampler keeps running, snapshot again, return the difference.
/// `seconds=0` returns the cumulative profile since the sampler started.
/// `?format=folded` returns flamegraph-ready folded text instead of the
/// `bikron-profile/1` JSON (collapsed stacks plus a per-frame
/// self-vs-cumulative split). Answers 409 when no sampler is running —
/// the process was started with `--profile-hz 0`.
pub fn profile_response(req: &Request) -> Response {
    let prof = bikron_obs::profile::profiler();
    if prof.sampler_hz() == 0 {
        return Response::error(
            409,
            "profiling is disabled; restart with --profile-hz N (default 99)",
        );
    }
    let seconds: u64 = match req.query_param("seconds").map(str::parse) {
        None => 0,
        Some(Ok(v)) => v,
        Some(Err(_)) => return Response::error(400, "seconds must be an integer"),
    };
    let seconds = seconds.min(MAX_PROFILE_SECONDS);
    let snap = if seconds == 0 {
        prof.snapshot()
    } else {
        let base = prof.snapshot();
        std::thread::sleep(std::time::Duration::from_secs(seconds));
        prof.snapshot().since(&base)
    };
    match req.query_param("format") {
        Some("folded") => Response {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: snap.to_folded(),
        },
        None | Some("json") => {
            let mut w = JsonWriter::new();
            w.open_object();
            w.string_field("schema", bikron_obs::profile::PROFILE_SCHEMA);
            w.u64_field("hz", snap.hz);
            w.u64_field("seconds", seconds);
            w.u64_field("samples", snap.samples);
            w.u64_field("dropped_samples", snap.dropped);
            w.u64_field("idle_samples", snap.idle);
            w.key("stacks");
            w.open_object();
            for (stack, count) in &snap.stacks {
                w.u64_field(stack, *count);
            }
            w.close_object();
            w.key("frames");
            w.open_object();
            for (path, stat) in bikron_obs::profile::frame_totals(&snap.stacks) {
                w.key(&path);
                w.open_object();
                w.u64_field("self", stat.self_samples);
                w.u64_field("total", stat.total);
                w.close_object();
            }
            w.close_object();
            w.close_object();
            Response::json(200, w.finish())
        }
        Some(other) => Response::error(
            400,
            &format!("unknown profile format {other:?} (json|folded)"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bikron_core::truth::clustering::{product_gamma, scaling_law_at};
    use bikron_core::truth::squares_edge::edge_squares_at;
    use bikron_core::truth::squares_vertex::vertex_squares_at;
    use bikron_core::truth::FactorStats;
    use bikron_generators::{complete_bipartite, crown, cycle};

    fn get(path: &str) -> Request {
        let raw = format!("GET {path} HTTP/1.1\r\n\r\n");
        crate::http::parse_request(&mut std::io::BufReader::new(raw.as_bytes())).unwrap()
    }

    fn post(path: &str, body: &str) -> Request {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        crate::http::parse_request(&mut std::io::BufReader::new(raw.as_bytes())).unwrap()
    }

    fn state() -> ServeState {
        ServeState::build(
            cycle(5),
            complete_bipartite(2, 3),
            SelfLoopMode::None,
            Some("sesame".into()),
        )
        .unwrap()
    }

    fn state_no_cache() -> ServeState {
        ServeState::build_with(
            cycle(5),
            complete_bipartite(2, 3),
            SelfLoopMode::None,
            ServeOptions {
                cache_entries: 0,
                ..ServeOptions::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn vertex_response_is_byte_exact() {
        let st = state();
        let a = cycle(5);
        let b = complete_bipartite(2, 3);
        let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::None).unwrap();
        let sa = FactorStats::compute(&a).unwrap();
        let sb = FactorStats::compute(&b).unwrap();
        for p in 0..prod.num_vertices() {
            let resp = st.handle(&get(&format!("/v1/vertex/{p}")));
            assert_eq!(resp.status, 200);
            let (i, k) = prod.indexer().split(p);
            let expect = format!(
                "{{\n  \"vertex\": {p},\n  \"alpha\": {i},\n  \"beta\": {k},\n  \
                 \"degree\": {},\n  \"squares\": {}\n}}\n",
                prod.degree(p),
                vertex_squares_at(&prod, &sa, &sb, p),
            );
            assert_eq!(resp.body, expect);
        }
    }

    #[test]
    fn vertex_error_statuses() {
        let st = state();
        assert_eq!(st.handle(&get("/v1/vertex/banana")).status, 400);
        assert_eq!(st.handle(&get("/v1/vertex/25")).status, 404);
        assert_eq!(st.handle(&get("/v1/vertex/24")).status, 200);
        assert_eq!(st.handle(&get("/v2/vertex/1")).status, 404);
    }

    #[test]
    fn edge_matches_ground_truth_both_ways() {
        let st = state();
        let a = cycle(5);
        let b = complete_bipartite(2, 3);
        let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::None).unwrap();
        let sa = FactorStats::compute(&a).unwrap();
        let sb = FactorStats::compute(&b).unwrap();
        let g = prod.materialize();
        for p in 0..g.num_vertices() {
            for q in 0..g.num_vertices() {
                let resp = st.handle(&get(&format!("/v1/edge/{p}/{q}")));
                assert_eq!(resp.status, 200);
                if g.has_edge(p, q) {
                    let s = edge_squares_at(&prod, &sa, &sb, p, q).unwrap();
                    assert!(resp.body.contains("\"edge\": true"), "({p},{q})");
                    assert!(resp.body.contains(&format!("\"squares\": {s}")));
                } else {
                    assert!(resp.body.contains("\"edge\": false"), "({p},{q})");
                    assert!(resp.body.contains("\"squares\": null"));
                }
            }
        }
    }

    #[test]
    fn neighbors_pages_cover_degree() {
        let st = state();
        let a = cycle(5);
        let b = complete_bipartite(2, 3);
        let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::None).unwrap();
        let g = prod.materialize();
        let p = 7;
        let mut collected: Vec<usize> = Vec::new();
        let mut offset = 0;
        loop {
            let resp = st.handle(&get(&format!("/v1/neighbors/{p}?offset={offset}&limit=2")));
            assert_eq!(resp.status, 200);
            let body = &resp.body;
            let inside = body
                .split("\"neighbors\": [")
                .nth(1)
                .unwrap()
                .split(']')
                .next()
                .unwrap();
            let page: Vec<usize> = inside
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|s| s.parse().unwrap())
                .collect();
            if page.is_empty() {
                break;
            }
            offset += page.len();
            collected.extend(page);
            if body.contains("\"next_offset\": null") {
                break;
            }
        }
        assert_eq!(collected, g.neighbors(p));
    }

    #[test]
    fn neighbors_limit_cap_enforced() {
        let st = state();
        assert_eq!(st.handle(&get("/v1/neighbors/0?limit=10001")).status, 400);
        assert_eq!(st.handle(&get("/v1/neighbors/0?limit=banana")).status, 400);
        assert_eq!(st.handle(&get("/v1/neighbors/0?offset=-1")).status, 400);
    }

    #[test]
    fn edges_pages_are_resumable_and_complete() {
        let st = state();
        let a = cycle(5);
        let b = complete_bipartite(2, 3);
        let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::None).unwrap();
        let mut collected = 0u64;
        for part in 0..3 {
            let mut offset = 0u64;
            loop {
                let resp = st.handle(&get(&format!("/v1/edges/{part}/3?offset={offset}&limit=7")));
                assert_eq!(resp.status, 200);
                let count: u64 = resp
                    .body
                    .split("\"count\": ")
                    .nth(1)
                    .unwrap()
                    .split(',')
                    .next()
                    .unwrap()
                    .trim()
                    .parse()
                    .unwrap();
                collected += count;
                offset += count;
                if resp.body.contains("\"next_offset\": null") {
                    break;
                }
            }
        }
        assert_eq!(collected, prod.num_edges());
    }

    #[test]
    fn edges_validation() {
        let st = state();
        assert_eq!(st.handle(&get("/v1/edges/0/0")).status, 400);
        assert_eq!(st.handle(&get("/v1/edges/3/3")).status, 400);
        assert_eq!(st.handle(&get("/v1/edges/0/1")).status, 200);
        assert_eq!(
            st.handle(&get(&format!("/v1/edges/0/{}", MAX_PARTS + 1)))
                .status,
            400
        );
    }

    #[test]
    fn annotated_edges_match_truth() {
        let st = state();
        let a = cycle(5);
        let b = complete_bipartite(2, 3);
        let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::None).unwrap();
        let sa = FactorStats::compute(&a).unwrap();
        let sb = FactorStats::compute(&b).unwrap();
        let ps = PartitionedStream::new(&prod, &sa, &sb, 1);
        let resp = st.handle(&get("/v1/edges/0/1?limit=5&annotate=1"));
        assert_eq!(resp.status, 200);
        for (n, (p, q)) in ps.edges_page(0, 0, 5).into_iter().enumerate() {
            let s = edge_squares_at(&prod, &sa, &sb, p, q).unwrap();
            let row = format!(
                "[\n      {p},\n      {q},\n      {},\n      {},\n      {s}\n    ]",
                prod.degree(p),
                prod.degree(q)
            );
            assert!(resp.body.contains(&row), "row {n}: missing {row:?}");
        }
    }

    #[test]
    fn stats_is_cached_and_consistent() {
        let st = state();
        let r1 = st.handle(&get("/v1/stats"));
        let r2 = st.handle(&get("/v1/stats"));
        assert_eq!(r1, r2);
        assert!(r1.body.contains("\"vertices\": 25"));
        assert!(r1.body.contains("\"edges\": 60"));
        assert!(r1.body.contains("\"bipartite\": true"));
        assert!(r1.body.contains("\"global_squares\": "));
    }

    #[test]
    fn metrics_endpoint_returns_obs_report() {
        let st = state();
        // `record` is the pool's per-request hook; invoke it directly so the
        // windowed series carry a sample.
        st.metrics().record(200, 64, 1_000_000);
        let resp = st.handle(&get("/metrics"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"schema\": \"bikron-obs/4\""));
        assert!(resp.body.contains("\"tool\": \"bikron-serve\""));
        assert!(resp.body.contains("\"windows\""));
        let parsed = bikron_obs::Report::from_json(&resp.body).unwrap();
        assert_eq!(parsed.meta("endpoint"), Some("/metrics"));
        // The windowed series ride the same report as the cumulative ones.
        let win = parsed.window("serve.request_ns").expect("windowed latency");
        assert!(win.w1m.count >= 1, "recorded request in the 1m window");
    }

    #[test]
    fn metrics_format_param_selects_prometheus() {
        let st = state();
        st.handle(&get("/v1/vertex/3"));
        let resp = st.handle(&get("/metrics?format=prometheus"));
        assert_eq!(resp.status, 200);
        assert!(resp.content_type.starts_with("text/plain; version=0.0.4"));
        bikron_obs::prom::check_exposition(&resp.body).expect("valid exposition");
        assert!(resp.body.contains("bikron_serve_requests"));
        // Satellite: live gauge and high-water mark export as distinct series.
        assert!(resp.body.contains("bikron_serve_inflight "));
        assert!(resp.body.contains("bikron_serve_inflight_peak "));

        assert_eq!(st.handle(&get("/metrics?format=json")).status, 200);
        assert_eq!(st.handle(&get("/metrics?format=xml")).status, 400);
    }

    #[test]
    fn stats_advertises_metrics_schemas() {
        let st = state();
        let resp = st.handle(&get("/v1/stats"));
        assert!(resp.body.contains("\"metrics_schemas\""));
        for schema in [
            "bikron-obs/1",
            "bikron-obs/2",
            "bikron-obs/3",
            "bikron-obs/4",
        ] {
            assert!(resp.body.contains(&format!("\"{schema}\"")), "{schema}");
        }
    }

    #[test]
    fn health_starts_ok_and_degrades_on_slo_breach() {
        let st = ServeState::build_with(
            cycle(5),
            complete_bipartite(2, 3),
            SelfLoopMode::None,
            ServeOptions {
                slo_p99_ms: 50,
                slo_err_pct: 10,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        // No traffic yet: windows are empty, which is healthy, not degraded.
        let resp = st.handle(&get("/v1/health"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"status\": \"ok\""), "{}", resp.body);

        // Fast, successful traffic stays ok.
        for _ in 0..10 {
            st.metrics().record(200, 100, 1_000_000); // 1ms
        }
        let resp = st.handle(&get("/v1/health"));
        assert!(resp.body.contains("\"status\": \"ok\""), "{}", resp.body);

        // One 200ms outlier pushes windowed p99 past the 50ms SLO.
        st.metrics().record(200, 100, 200_000_000);
        let resp = st.handle(&get("/v1/health"));
        assert!(
            resp.body.contains("\"status\": \"degraded\""),
            "{}",
            resp.body
        );
        assert!(resp.body.contains("\"ok\": false"));
    }

    #[test]
    fn health_degrades_on_error_budget_breach() {
        let st = ServeState::build_with(
            cycle(5),
            complete_bipartite(2, 3),
            SelfLoopMode::None,
            ServeOptions {
                slo_p99_ms: 10_000,
                slo_err_pct: 5,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        for _ in 0..9 {
            st.metrics().record(200, 100, 1_000_000);
        }
        assert!(st.handle(&get("/v1/health")).body.contains("\"ok\": true"));
        // 1 error in 10 requests = 10% > the 5% budget.
        st.metrics().record(500, 100, 1_000_000);
        let resp = st.handle(&get("/v1/health"));
        assert!(
            resp.body.contains("\"status\": \"degraded\""),
            "{}",
            resp.body
        );
    }

    #[test]
    fn stall_endpoint_is_token_gated_and_validated() {
        let st = state();
        assert_eq!(st.handle(&get("/v1/admin/stall?ms=1")).status, 403);
        assert_eq!(
            st.handle(&get("/v1/admin/stall?ms=1&token=wrong")).status,
            403
        );
        assert_eq!(st.handle(&get("/v1/admin/stall?token=sesame")).status, 400);
        assert_eq!(
            st.handle(&get("/v1/admin/stall?ms=banana&token=sesame"))
                .status,
            400
        );
        let resp = st.handle(&get("/v1/admin/stall?ms=2&token=sesame"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"stalled_ms\": 2"));
    }

    #[test]
    fn profile_endpoint_is_token_gated_and_samples_on_demand() {
        let st = state();
        assert_eq!(st.handle(&get("/v1/admin/profile")).status, 403);
        assert_eq!(st.handle(&get("/v1/admin/profile?token=wrong")).status, 403);
        match bikron_obs::profile::start_sampler(500) {
            None => {
                // No sampler could start (hz race with a concurrent
                // test): the endpoint must say so, not serve zeros.
                if bikron_obs::profile::profiler().sampler_hz() == 0 {
                    let resp = st.handle(&get("/v1/admin/profile?token=sesame"));
                    assert_eq!(resp.status, 409);
                    assert!(resp.body.contains("profiling is disabled"));
                }
            }
            Some(sampler) => {
                // Generate some attributable work, then read the
                // cumulative profile (seconds=0: no capture sleep).
                for _ in 0..50 {
                    st.handle(&get("/v1/vertex/3"));
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                let resp = st.handle(&get("/v1/admin/profile?token=sesame"));
                assert_eq!(resp.status, 200);
                assert!(resp.body.contains("\"schema\": \"bikron-profile/1\""));
                assert!(resp.body.contains("\"hz\": 500"));
                assert!(resp.body.contains("\"stacks\""));
                assert!(resp.body.contains("\"frames\""));
                let folded = st.handle(&get("/v1/admin/profile?token=sesame&format=folded"));
                assert_eq!(folded.status, 200);
                assert!(folded.content_type.starts_with("text/plain"));
                assert_eq!(
                    st.handle(&get("/v1/admin/profile?token=sesame&format=svg"))
                        .status,
                    400
                );
                assert_eq!(
                    st.handle(&get("/v1/admin/profile?token=sesame&seconds=x"))
                        .status,
                    400
                );
                sampler.stop();
            }
        }
    }

    #[test]
    fn path_shape_collapses_numeric_segments() {
        assert_eq!(path_shape("/v1/vertex/17"), "/v1/vertex/{n}");
        assert_eq!(path_shape("/v1/edge/0/13"), "/v1/edge/{n}/{n}");
        assert_eq!(path_shape("/v1/stats"), "/v1/stats");
        assert_eq!(path_shape("/"), "/");
        assert_eq!(path_shape(""), "/");
        assert_eq!(path_shape("/metrics"), "/metrics");
    }

    #[test]
    fn access_log_round_trips_through_file() {
        let path = std::env::temp_dir().join(format!(
            "bikron-serve-access-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let st = ServeState::build_with(
            cycle(5),
            complete_bipartite(2, 3),
            SelfLoopMode::None,
            ServeOptions {
                access_log: Some(path.display().to_string()),
                admin_token: Some("sesame".into()),
                ..ServeOptions::default()
            },
        )
        .unwrap();
        st.log_access(
            "GET",
            "/v1/vertex/{n}",
            200,
            1_234,
            99,
            Some(true),
            Some("00f067aa0ba902b7deadbeefcafef00d"),
        );
        st.log_access("GET", "/metrics", 200, 5_678, 400, None, None);
        st.flush_logs();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"target\": \"access\""));
        assert!(lines[0].contains("\"path\": \"/v1/vertex/{n}\""));
        assert!(lines[0].contains("\"cache\": \"hit\""));
        assert!(lines[0].contains("\"trace_id\": \"00f067aa0ba902b7deadbeefcafef00d\""));
        assert!(lines[1].contains("\"cache\": \"-\""));
        assert!(lines[1].contains("\"trace_id\": \"-\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shutdown_gating() {
        let st = state();
        assert!(!st.shutdown_requested());
        assert_eq!(st.handle(&get("/v1/shutdown")).status, 403);
        assert_eq!(st.handle(&get("/v1/shutdown?token=wrong")).status, 403);
        assert!(!st.shutdown_requested());
        let resp = st.handle(&get("/v1/shutdown?token=sesame"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"shutting_down\": true"));
        assert!(st.shutdown_requested());

        let no_admin = ServeState::build(crown(3), crown(3), SelfLoopMode::FactorA, None).unwrap();
        assert_eq!(
            no_admin.handle(&get("/v1/shutdown?token=sesame")).status,
            403
        );
    }

    #[test]
    fn batch_matches_singles_cached_and_uncached() {
        for st in [state(), state_no_cache()] {
            let singles: Vec<String> = vec![
                st.handle(&get("/v1/vertex/7")).body,
                st.handle(&get("/v1/edge/0/13")).body,
                st.handle(&get("/v1/neighbors/7?offset=1&limit=2")).body,
                st.handle(&get("/v1/vertex/999")).body, // embedded 404 body
            ];
            let resp = st.handle(&post(
                "/v1/batch",
                "vertex 7\nedge 0 13\nneighbors 7 1 2\nvertex 999\n",
            ));
            assert_eq!(resp.status, 200);
            let expected = format!(
                "[\n{}\n]\n",
                singles
                    .iter()
                    .map(|b| b.trim_end())
                    .collect::<Vec<_>>()
                    .join(",\n")
            );
            assert_eq!(resp.body, expected);
        }
    }

    #[test]
    fn batch_requires_post_and_post_is_batch_only() {
        let st = state();
        assert_eq!(st.handle(&get("/v1/batch")).status, 405);
        assert_eq!(st.handle(&post("/v1/vertex/1", "")).status, 405);
        assert_eq!(st.handle(&post("/v1/stats", "x")).status, 405);
    }

    #[test]
    fn malformed_batch_is_400_with_line_index() {
        let st = state();
        let resp = st.handle(&post("/v1/batch", "vertex 1\nfrob 9\n"));
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("\"line\": 1"), "{}", resp.body);
        let resp = st.handle(&post("/v1/batch", ""));
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("\"line\": 0"));
        let resp = st.handle(&post("/v1/batch", "vertex \u{fffd}"));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let st = state();
        let cache = st.cache().expect("cache on by default");
        let first = st.handle(&get("/v1/vertex/3"));
        let before = cache.local_hits();
        let second = st.handle(&get("/v1/vertex/3"));
        assert_eq!(first, second, "cache must not change bytes");
        assert_eq!(cache.local_hits(), before + 1);
        assert!(!cache.is_empty());

        // Error responses are not cached.
        let miss_len = cache.len();
        st.handle(&get("/v1/vertex/999"));
        st.handle(&get("/v1/vertex/999"));
        assert_eq!(cache.len(), miss_len);
    }

    #[test]
    fn header_token_accepted() {
        let st = state();
        let raw = "GET /v1/shutdown HTTP/1.1\r\nX-Admin-Token: sesame\r\n\r\n";
        let req = crate::http::parse_request(&mut std::io::BufReader::new(raw.as_bytes())).unwrap();
        assert_eq!(st.handle(&req).status, 200);
    }

    /// `(A+I)⊗B` as an expression server — the program a pair server in
    /// `FactorA` mode runs, rendered with per-level coordinates.
    fn chain_state() -> ServeState {
        ServeState::build_expr(
            vec![
                ("A".into(), cycle(5)),
                ("B".into(), complete_bipartite(2, 3)),
            ],
            &[("A".into(), true), ("B".into(), false)],
            ServeOptions::default(),
        )
        .unwrap()
    }

    fn chain_truth() -> KronChain {
        KronChain::new(
            vec![
                ("A".into(), cycle(5)),
                ("B".into(), complete_bipartite(2, 3)),
            ],
            &[("A".into(), true), ("B".into(), false)],
        )
        .unwrap()
    }

    #[test]
    fn expr_vertex_reports_coords_and_matches_pair_truth() {
        let st = chain_state();
        let pair = ServeState::build(
            cycle(5),
            complete_bipartite(2, 3),
            SelfLoopMode::FactorA,
            None,
        )
        .unwrap();
        let chain = chain_truth();
        for p in 0..chain.num_vertices() {
            let resp = st.handle(&get(&format!("/v1/vertex/{p}")));
            assert_eq!(resp.status, 200);
            let coords = chain.split(p);
            let expect = format!(
                "{{\n  \"vertex\": {p},\n  \"coords\": [\n    {},\n    {}\n  ],\n  \
                 \"degree\": {},\n  \"squares\": {}\n}}\n",
                coords[0],
                coords[1],
                chain.degree(p),
                chain.vertex_squares_at(p),
            );
            assert_eq!(resp.body, expect);
            // Same program as the pair server: numbers must agree.
            let pair_body = pair.handle(&get(&format!("/v1/vertex/{p}"))).body;
            let tail = |b: &str| b.split("\"degree\"").nth(1).map(str::to_owned).unwrap();
            assert_eq!(tail(&resp.body), tail(&pair_body), "vertex {p}");
        }
        assert_eq!(st.handle(&get("/v1/vertex/25")).status, 404);
    }

    #[test]
    fn expr_stats_reports_canonical_expression() {
        let pair = state();
        assert!(
            pair.handle(&get("/v1/stats"))
                .body
                .contains("\"expr\": \"A⊗B\""),
            "pair stats expr"
        );
        let st = chain_state();
        assert_eq!(st.expr(), "(A+I)⊗B");
        let resp = st.handle(&get("/v1/stats"));
        assert!(resp.body.contains("\"expr\": \"(A+I)⊗B\""), "{}", resp.body);
        assert!(resp.body.contains("\"levels\""));
        assert!(resp.body.contains("\"plus_identity\": true"));
        let chain = chain_truth();
        assert!(resp
            .body
            .contains(&format!("\"global_squares\": {}", chain.global_squares())));
    }

    #[test]
    fn expr_edges_stream_is_501() {
        let st = chain_state();
        let resp = st.handle(&get("/v1/edges/0/2"));
        assert_eq!(resp.status, 501);
        assert!(resp.body.contains("/v1/neighbors"), "{}", resp.body);
    }

    #[test]
    fn expr_batch_matches_singles() {
        let st = chain_state();
        let singles: Vec<String> = vec![
            st.handle(&get("/v1/vertex/7")).body,
            st.handle(&get("/v1/edge/0/2")).body,
            st.handle(&get("/v1/neighbors/7?offset=1&limit=2")).body,
        ];
        let resp = st.handle(&post("/v1/batch", "vertex 7\nedge 0 2\nneighbors 7 1 2\n"));
        assert_eq!(resp.status, 200);
        let expected = format!(
            "[\n{}\n]\n",
            singles
                .iter()
                .map(|b| b.trim_end())
                .collect::<Vec<_>>()
                .join(",\n")
        );
        assert_eq!(resp.body, expected);
    }

    #[test]
    fn clustering_matches_truth_and_validates() {
        let st = state();
        let a = cycle(5);
        let b = complete_bipartite(2, 3);
        let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::None).unwrap();
        let sa = FactorStats::compute(&a).unwrap();
        let sb = FactorStats::compute(&b).unwrap();
        let g = prod.materialize();
        for p in 0..g.num_vertices() {
            for q in 0..g.num_vertices() {
                let resp = st.handle(&get(&format!("/v1/clustering/{p}/{q}")));
                assert_eq!(resp.status, 200);
                if g.has_edge(p, q) {
                    assert!(resp.body.contains("\"edge\": true"), "({p},{q})");
                    match product_gamma(&prod, &sa, &sb, p, q) {
                        Some(v) => {
                            assert!(resp.body.contains(&format!("\"gamma\": {v}")), "({p},{q})")
                        }
                        None => assert!(resp.body.contains("\"gamma\": null")),
                    }
                    match scaling_law_at(&prod, &sa, &sb, p, q) {
                        Some(s) => {
                            assert!(resp.body.contains(&format!("\"bound\": {}", s.bound)));
                            assert!(resp.body.contains(&format!("\"psi\": {}", s.psi)));
                        }
                        None => assert!(resp.body.contains("\"bound\": null")),
                    }
                } else {
                    assert!(resp.body.contains("\"edge\": false"), "({p},{q})");
                    assert!(resp.body.contains("\"squares\": null"));
                    assert!(resp.body.contains("\"gamma\": null"));
                }
            }
        }
        assert_eq!(st.handle(&get("/v1/clustering/0/banana")).status, 400);
        assert_eq!(st.handle(&get("/v1/clustering/0/25")).status, 404);
        assert_eq!(st.handle(&get("/v1/clustering/25/0")).status, 404);
    }

    #[test]
    fn clustering_chain_bound_present_only_when_thm6_applies() {
        // Bare chain of degree-≥2 factors: Thm 6 hypotheses hold, so an
        // edge must carry a non-null bound ≤ gamma.
        let bare = ServeState::build_expr(
            vec![("A".into(), cycle(3)), ("B".into(), cycle(4))],
            &[("A".into(), false), ("B".into(), false)],
            ServeOptions::default(),
        )
        .unwrap();
        // cycle(3)⊗cycle(4): (0,0)–(1,1) is an edge, i.e. 0–5.
        let resp = bare.handle(&get("/v1/clustering/0/5"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"edge\": true"), "{}", resp.body);
        assert!(!resp.body.contains("\"gamma\": null"), "{}", resp.body);
        assert!(!resp.body.contains("\"bound\": null"), "{}", resp.body);

        // A lifted level breaks the hypotheses: bound/psi must be null.
        let lifted = chain_state();
        let resp = lifted.handle(&get("/v1/clustering/0/2"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"edge\": true"), "{}", resp.body);
        assert!(resp.body.contains("\"bound\": null"), "{}", resp.body);
        assert!(resp.body.contains("\"psi\": null"), "{}", resp.body);
    }

    #[test]
    fn community_pair_matches_brute_force() {
        let st = state();
        let a = cycle(5);
        let b = complete_bipartite(2, 3);
        let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::None).unwrap();
        let g = prod.materialize();
        let set_a = [0usize, 1, 3];
        let set_b = [0usize, 2, 4];
        let member = |p: usize| {
            let (i, k) = prod.indexer().split(p);
            set_a.contains(&i) && set_b.contains(&k)
        };
        let (mut m_in, mut m_out) = (0u64, 0u64);
        for p in 0..g.num_vertices() {
            if !member(p) {
                continue;
            }
            for &q in g.neighbors(p) {
                if member(q) {
                    m_in += 1;
                } else {
                    m_out += 1;
                }
            }
        }
        m_in /= 2;
        let resp = st.handle(&get("/v1/community?a=0,1,3&b=0,2,4"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"size\": 9"), "{}", resp.body);
        assert!(
            resp.body.contains(&format!("\"m_in\": {m_in}")),
            "{}",
            resp.body
        );
        assert!(
            resp.body.contains(&format!("\"m_out\": {m_out}")),
            "{}",
            resp.body
        );
        // cycle(5) is an odd cycle — no bipartition, so Cor 1–2 are null.
        assert!(resp.body.contains("\"rho_in\": null"));
    }

    #[test]
    fn community_pair_reports_density_on_bipartite_factors() {
        let st = ServeState::build(crown(3), crown(3), SelfLoopMode::None, None).unwrap();
        // Sets straddling both sides of each crown's bipartition.
        let resp = st.handle(&get("/v1/community?a=0,3&b=1,2,4"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"theorem\": \"thm7\""));
        assert!(!resp.body.contains("\"rho_in\": null"), "{}", resp.body);
    }

    #[test]
    fn community_validation_statuses() {
        let st = state();
        assert_eq!(st.handle(&get("/v1/community")).status, 400);
        assert_eq!(st.handle(&get("/v1/community?a=0,1")).status, 400);
        assert_eq!(st.handle(&get("/v1/community?a=zero&b=0")).status, 400);
        assert_eq!(st.handle(&get("/v1/community?a=&b=0")).status, 400);
        assert_eq!(st.handle(&get("/v1/community?a=99&b=0")).status, 404);
        assert_eq!(st.handle(&get("/v1/community?a=0&b=99")).status, 404);
    }

    #[test]
    fn community_chain_matches_brute_force() {
        let st = chain_state();
        let chain = chain_truth();
        let g = chain.materialize();
        let s0 = [0usize, 2, 4];
        let s1 = [1usize, 3];
        let member = |p: usize| {
            let c = chain.split(p);
            s0.contains(&c[0]) && s1.contains(&c[1])
        };
        let (mut m_in, mut m_out) = (0u64, 0u64);
        for p in 0..g.num_vertices() {
            if !member(p) {
                continue;
            }
            for &q in g.neighbors(p) {
                if member(q) {
                    m_in += 1;
                } else {
                    m_out += 1;
                }
            }
        }
        m_in /= 2;
        let resp = st.handle(&get("/v1/community?s0=0,2,4&s1=1,3"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"size\": 6"), "{}", resp.body);
        assert!(
            resp.body.contains(&format!("\"m_in\": {m_in}")),
            "{}",
            resp.body
        );
        assert!(
            resp.body.contains(&format!("\"m_out\": {m_out}")),
            "{}",
            resp.body
        );
        // Density corollaries are pair-only statements.
        assert!(resp.body.contains("\"rho_in\": null"));

        assert_eq!(st.handle(&get("/v1/community?s0=0,2,4")).status, 400);
        assert_eq!(st.handle(&get("/v1/community?a=0&b=0")).status, 400);
        assert_eq!(st.handle(&get("/v1/community?s0=99&s1=0")).status, 404);
    }

    #[test]
    fn scatter_pages_cover_all_vertices_and_match_truth() {
        let st = state();
        let a = cycle(5);
        let b = complete_bipartite(2, 3);
        let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::None).unwrap();
        let sa = FactorStats::compute(&a).unwrap();
        let sb = FactorStats::compute(&b).unwrap();
        let mut rows = 0u64;
        let mut offset = 0u64;
        loop {
            let resp = st.handle(&get(&format!(
                "/v1/scatter/degree-squares?offset={offset}&limit=10"
            )));
            assert_eq!(resp.status, 200);
            let count: u64 = resp
                .body
                .split("\"count\": ")
                .nth(1)
                .unwrap()
                .split(',')
                .next()
                .unwrap()
                .trim()
                .parse()
                .unwrap();
            rows += count;
            offset += count;
            if resp.body.contains("\"next_offset\": null") {
                break;
            }
        }
        assert_eq!(rows, 25);

        let csv = st.handle(&get("/v1/scatter/degree-squares?format=csv&limit=25"));
        assert_eq!(csv.status, 200);
        assert!(csv.content_type.starts_with("text/csv"));
        let lines: Vec<&str> = csv.body.lines().collect();
        assert_eq!(lines[0], "vertex,degree,squares");
        assert_eq!(lines.len(), 26);
        for (p, line) in lines[1..].iter().enumerate() {
            let expect = format!(
                "{p},{},{}",
                prod.degree(p),
                vertex_squares_at(&prod, &sa, &sb, p)
            );
            assert_eq!(*line, expect);
        }

        assert_eq!(
            st.handle(&get("/v1/scatter/degree-squares?format=xml"))
                .status,
            400
        );
        assert_eq!(
            st.handle(&get("/v1/scatter/degree-squares?limit=10001"))
                .status,
            400
        );
    }

    #[test]
    fn scatter_chain_rows_match_chain_truth() {
        let st = chain_state();
        let chain = chain_truth();
        let csv = st.handle(&get("/v1/scatter/degree-squares?format=csv&limit=25"));
        assert_eq!(csv.status, 200);
        for (p, line) in csv.body.lines().skip(1).enumerate() {
            let expect = format!("{p},{},{}", chain.degree(p), chain.vertex_squares_at(p));
            assert_eq!(line, expect);
        }
    }

    /// Shard 1 of 3 over the 25-vertex fixture: owns `[9, 18)`.
    fn sharded_state(index: usize, count: usize) -> ServeState {
        ServeState::build_with(
            cycle(5),
            complete_bipartite(2, 3),
            SelfLoopMode::None,
            ServeOptions {
                shard: Some((index, count)),
                ..ServeOptions::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn sharded_state_answers_owned_keys_byte_identically() {
        let st = sharded_state(1, 3);
        let full = state();
        for p in 9..18 {
            for path in [
                format!("/v1/vertex/{p}"),
                format!("/v1/edge/{p}/24"),
                format!("/v1/neighbors/{p}?offset=1&limit=3"),
                format!("/v1/clustering/{p}/0"),
            ] {
                let sharded = st.handle(&get(&path));
                let single = full.handle(&get(&path));
                assert_eq!(sharded.status, 200, "{path}");
                assert_eq!(sharded.body, single.body, "{path}");
            }
        }
    }

    #[test]
    fn sharded_state_421s_foreign_keys_with_owner_detail() {
        let st = sharded_state(1, 3);
        let resp = st.handle(&get("/v1/vertex/3"));
        assert_eq!(resp.status, 421);
        assert!(
            resp.body
                .contains("vertex 3 is owned by shard 0/3; this is shard 1"),
            "{}",
            resp.body
        );
        // Only the first index gates: the partner vertex of an edge or
        // clustering probe may live anywhere.
        assert_eq!(st.handle(&get("/v1/edge/20/1")).status, 421);
        assert_eq!(st.handle(&get("/v1/edge/10/24")).status, 200);
        assert_eq!(st.handle(&get("/v1/neighbors/0")).status, 421);
        assert_eq!(st.handle(&get("/v1/clustering/18/10")).status, 421);
        // Range and parse errors keep their canonical status so the
        // router can send such keys to any shard and relay verbatim.
        assert_eq!(st.handle(&get("/v1/vertex/25")).status, 404);
        assert_eq!(st.handle(&get("/v1/vertex/banana")).status, 400);
        assert_eq!(st.handle(&get("/v1/edge/10/99")).status, 404);
    }

    #[test]
    fn sharded_edges_stream_gates_the_part_space() {
        // The partition space tiles over shards with the same block
        // arithmetic as the vertex space: parts 0..6 over 3 shards give
        // shard 1 parts {2, 3}. Off-slice parts must 421 — otherwise
        // every shard would stream every part and a cluster would emit
        // N copies of each edge.
        let st = sharded_state(1, 3);
        let full = state();
        for part in [2usize, 3] {
            let path = format!("/v1/edges/{part}/6?limit=50");
            let sharded = st.handle(&get(&path));
            assert_eq!(sharded.status, 200, "{path}");
            assert_eq!(sharded.body, full.handle(&get(&path)).body, "{path}");
        }
        for part in [0usize, 1, 4, 5] {
            let resp = st.handle(&get(&format!("/v1/edges/{part}/6")));
            assert_eq!(resp.status, 421, "part {part}");
        }
        let resp = st.handle(&get("/v1/edges/5/6"));
        assert!(
            resp.body
                .contains("part 5/6 is owned by shard 2/3; this is shard 1"),
            "{}",
            resp.body
        );
        // Malformed part specs keep their canonical 400 on any shard.
        assert_eq!(st.handle(&get("/v1/edges/6/6")).status, 400);
        assert_eq!(st.handle(&get("/v1/edges/x/6")).status, 400);
    }

    #[test]
    fn sharded_health_reports_owned_slice() {
        let resp = sharded_state(1, 3).handle(&get("/v1/health"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"shard\": \"1/3\""), "{}", resp.body);
        assert!(resp.body.contains("\"owned_lo\": 9"), "{}", resp.body);
        assert!(resp.body.contains("\"owned_hi\": 18"), "{}", resp.body);
        // An unsharded server advertises no slice at all.
        let single = state().handle(&get("/v1/health"));
        assert!(!single.body.contains("owned_lo"), "{}", single.body);
    }
}
