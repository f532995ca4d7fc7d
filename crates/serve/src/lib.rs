//! bikron-serve: a long-running ground-truth query service.
//!
//! The paper's closed forms (Thms 3–7, Cors 1–2) make every per-vertex
//! and per-edge statistic of a Kronecker product answerable from
//! *factor-sized* state: the factor graphs plus their
//! [`FactorStats`](bikron_core::truth::FactorStats). This crate turns
//! that into a service — `bikron serve` holds O(Σ n_i + Σ m_i) memory
//! and answers queries about the (potentially enormous,
//! never-materialised) product. Every count is evaluated by one
//! [`KronChain`](bikron_core::KronChain) with compositional ground
//! truth: the **expression server** (`--expr "(A+I)⊗B⊗C"`) serves any
//! program, and the classic **pair server** (`A B MODE` positional
//! factors) is the two-level chain `A⊗B` / `(A+I)⊗B`, rendered with the
//! two-factor surface where the table says so:
//!
//! | endpoint | cost | answer |
//! |---|---|---|
//! | `GET /v1/vertex/{p}` | O(k) | degree + butterfly count at `p` (Thm 3/4); `alpha`/`beta` on pair servers, per-level `coords` otherwise |
//! | `GET /v1/edge/{p}/{q}` | O(k log d) | existence + per-edge squares (Thm 5) |
//! | `GET /v1/neighbors/{p}` | O(Σ d_i + limit) | paged adjacency |
//! | `GET /v1/clustering/{p}/{q}` | O(k log d) | exact `Γ_C` + Thm 6 scaling-law bound |
//! | `GET /v1/community?a=…&b=…` | O(Σ\|S_i\| + Σ deg) | exact `m_in`/`m_out` (Thm 7); pair servers add the Cor 1–2 density bounds, expression servers take `?s0=…&s{k-1}=…` |
//! | `GET /v1/scatter/degree-squares` | O(limit) | Fig-5-style `(vertex, degree, squares)` rows, JSON or CSV |
//! | `POST /v1/batch` | Σ per-item cost | up to `batch_max` of vertex/edge/neighbors, one JSON array |
//! | `GET /v1/stats` | O(1), cached | canonicalised `expr` + product counts; the Table-I structure summary on pair servers, per-level sizes otherwise |
//! | `GET /v1/edges/{part}/{parts}` | O(factor + limit) | resumable edge stream, annotated from the chain (pair servers; 501 on expression servers) |
//! | `GET /metrics` | O(metrics) | live `bikron-obs/4` report (`?format=prometheus` for text exposition) |
//! | `GET /v1/health` | O(1) | `ok`/`degraded` from windowed SLO signals |
//! | `GET /v1/shutdown` | O(1) | graceful stop (token-gated) |
//! | `GET /v1/admin/stall` | O(1) | debug latency injection (token-gated) |
//! | `GET /v1/admin/traces` | O(captured) | tail-sampled span trees (`?min_ms=`, token-gated) |
//! | `GET /v1/admin/profile` | O(stacks) | sampled CPU profile (`?seconds=`, `?format=folded`, token-gated) |
//!
//! (`k` = number of chain levels; 2 for pair servers. FORMULAS.md maps
//! each endpoint to its theorem and evaluator function.)
//!
//! A sharded, bounded LRU result cache ([`cache`]) fronts the chain
//! evaluators; because every answer is a pure function of the immutable
//! factors, cached bodies can never go stale and no invalidation exists.
//!
//! Like the rest of the workspace the crate is std-only: the HTTP/1.1
//! layer ([`http`]) is hand-rolled with hard bounds on every input
//! dimension, and the thread pool ([`pool`]) sheds load with 503 instead
//! of queueing unboundedly. Both are shared with `bikron-router`: the
//! router is another [`Handler`] on the same pool, and its upstream
//! connections use the same bounded [`http::Client`]. Per-request memory is bounded by the page
//! `limit` cap (times `batch_max` for a batch), never by product size —
//! the "sublinear memory per request" in the service's name.
//!
//! For operations, every request also feeds rolling 1m/5m windows
//! (rates and windowed percentiles alongside the cumulative series) and,
//! with `--access-log`, one bounded, sampled JSON-lines access event per
//! request. `bikron monitor URL` renders the `/metrics` feed as a live
//! dashboard.
//!
//! Every request is also assigned a W3C trace context: an inbound
//! `traceparent` header is adopted (the server becomes a child span),
//! otherwise ids are generated. The trace id is echoed in the
//! `x-bikron-trace-id` response header, stamped into error bodies and
//! access-log lines, and — when `--trace-slow-ms` or `--trace-sample`
//! is set — slow requests keep their full span tree in a bounded ring,
//! retrievable via `GET /v1/admin/traces` and rendered by
//! `bikron trace URL`.

#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod http;
pub mod pool;
pub mod signal;
pub mod snapshot;
pub mod state;

pub use cache::{CacheKey, ShardedCache};
pub use pool::{Handler, Server, ServerConfig};
pub use snapshot::{Snapshot, SnapshotError};
pub use state::{
    profile_response, ServeOptions, ServeState, WarmInfo, DEFAULT_BATCH_MAX, DEFAULT_CACHE_ENTRIES,
    DEFAULT_CACHE_SHARDS, DEFAULT_LIMIT, MAX_LIMIT, MAX_PROFILE_SECONDS,
};
