//! End-to-end tests over real TCP: concurrent keep-alive clients checked
//! byte-exact against the closed-form truth, health, metrics, access log
//! and shutdown. (Load shedding, for both pool handlers, is exercised by
//! the workspace's `tests/load_shedding.rs`.)

use std::sync::Arc;
use std::time::Duration;

use bikron_core::truth::squares_edge::edge_squares_at;
use bikron_core::truth::squares_vertex::vertex_squares_at;
use bikron_core::truth::FactorStats;
use bikron_core::{KroneckerProduct, SelfLoopMode};
use bikron_generators::{complete_bipartite, cycle};
use bikron_serve::http;
use bikron_serve::{ServeOptions, ServeState, Server, ServerConfig};

/// The shared keep-alive client, answering `(status, body)`.
struct Client(http::Client);

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let timeout = Duration::from_secs(10);
        Client(http::Client::connect(&addr.to_string(), timeout, timeout).expect("connect"))
    }

    fn get(&mut self, path: &str) -> (u16, String) {
        let resp = self.0.get(path).expect("request");
        (resp.status, resp.body)
    }
}

/// Start a server on port 0 and return (address, state handle).
fn start(config: ServerConfig) -> (std::net::SocketAddr, Arc<ServeState>) {
    start_with(
        config,
        ServeOptions {
            admin_token: Some("tok".to_string()),
            ..ServeOptions::default()
        },
    )
}

/// Start a server with explicit [`ServeOptions`] (SLO thresholds, access
/// log, …) on port 0.
fn start_with(
    config: ServerConfig,
    options: ServeOptions,
) -> (std::net::SocketAddr, Arc<ServeState>) {
    let state = Arc::new(
        ServeState::build_with(
            cycle(5),
            complete_bipartite(2, 3),
            SelfLoopMode::FactorA,
            options,
        )
        .expect("build state"),
    );
    let server = Server::bind(config, Arc::clone(&state)).expect("bind");
    let addr = server.local_addr().expect("local addr");
    std::thread::spawn(move || server.run().expect("server run"));
    (addr, state)
}

#[test]
fn concurrent_clients_get_byte_exact_truth() {
    let (addr, state) = start(ServerConfig {
        threads: 4,
        ..ServerConfig::default()
    });

    // Expected bodies computed directly from the closed forms.
    let a = cycle(5);
    let b = complete_bipartite(2, 3);
    let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::FactorA).unwrap();
    let sa = FactorStats::compute(&a).unwrap();
    let sb = FactorStats::compute(&b).unwrap();
    let n = prod.num_vertices();
    let expected: Vec<String> = (0..n)
        .map(|p| {
            let (i, k) = prod.indexer().split(p);
            format!(
                "{{\n  \"vertex\": {p},\n  \"alpha\": {i},\n  \"beta\": {k},\n  \
                 \"degree\": {},\n  \"squares\": {}\n}}\n",
                prod.degree(p),
                vertex_squares_at(&prod, &sa, &sb, p),
            )
        })
        .collect();
    let edges: Vec<(usize, usize, u64)> = (0..n)
        .flat_map(|p| (0..n).map(move |q| (p, q)))
        .filter_map(|(p, q)| edge_squares_at(&prod, &sa, &sb, p, q).map(|s| (p, q, s)))
        .collect();
    let expected = Arc::new(expected);
    let edges = Arc::new(edges);

    let handles: Vec<_> = (0..8)
        .map(|t| {
            let expected = Arc::clone(&expected);
            let edges = Arc::clone(&edges);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                // Every vertex, on one keep-alive connection.
                for p in 0..expected.len() {
                    let (status, body) = client.get(&format!("/v1/vertex/{p}"));
                    assert_eq!(status, 200, "thread {t} vertex {p}");
                    assert_eq!(body, expected[p], "thread {t} vertex {p}");
                }
                // A slice of the edge set, offset by thread id.
                for (p, q, s) in edges.iter().skip(t).step_by(8) {
                    let (status, body) = client.get(&format!("/v1/edge/{p}/{q}"));
                    assert_eq!(status, 200);
                    assert!(body.contains("\"edge\": true"), "({p},{q}): {body}");
                    assert!(
                        body.contains(&format!("\"squares\": {s}")),
                        "({p},{q}): {body}"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    // Stats endpoint agrees with the product-level truth.
    let mut client = Client::connect(addr);
    let (status, body) = client.get("/v1/stats");
    assert_eq!(status, 200);
    assert!(body.contains(&format!("\"vertices\": {n}")));
    assert!(body.contains(&format!("\"edges\": {}", prod.num_edges())));
    assert!(body.contains("\"mode\": \"loops-a\""));

    // Metrics saw the traffic.
    let (status, body) = client.get("/metrics");
    assert_eq!(status, 200);
    let report = bikron_obs::Report::from_json(&body).expect("metrics parse");
    assert!(report.counter("serve.requests").unwrap_or(0) >= (8 * n) as u64);

    state.request_shutdown();
}

#[test]
fn health_flips_to_degraded_under_injected_stall() {
    let (addr, state) = start_with(
        ServerConfig::default(),
        ServeOptions {
            admin_token: Some("tok".to_string()),
            slo_p99_ms: 50,
            ..ServeOptions::default()
        },
    );
    let mut client = Client::connect(addr);

    // Fast traffic first: health is ok.
    for p in 0..5 {
        let (status, _) = client.get(&format!("/v1/vertex/{p}"));
        assert_eq!(status, 200);
    }
    let (status, body) = client.get("/v1/health");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\": \"ok\""), "{body}");

    // Inject a 200ms stall — far past the 50ms SLO. Its latency is
    // recorded like any other request's, so windowed p99 spikes.
    let (status, body) = client.get("/v1/admin/stall?ms=200&token=tok");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"stalled_ms\": 200"));

    let (status, body) = client.get("/v1/health");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\": \"degraded\""), "{body}");
    assert!(body.contains("\"ok\": false"), "{body}");

    state.request_shutdown();
}

#[test]
fn prometheus_scrape_is_valid_exposition() {
    let (addr, state) = start(ServerConfig::default());
    let mut client = Client::connect(addr);
    for p in 0..3 {
        client.get(&format!("/v1/vertex/{p}"));
    }
    let (status, body) = client.get("/metrics?format=prometheus");
    assert_eq!(status, 200);
    bikron_obs::prom::check_exposition(&body).expect("exposition validates");
    assert!(
        body.contains("# TYPE bikron_serve_requests counter"),
        "{body}"
    );
    assert!(body.contains("bikron_serve_request_ns_bucket"), "{body}");
    // Live gauge and high-water mark are distinct series.
    assert!(body.contains("\nbikron_serve_inflight "), "{body}");
    assert!(body.contains("\nbikron_serve_inflight_peak "), "{body}");
    // Windowed series carry the window label.
    assert!(body.contains("window=\"1m\""), "{body}");
    state.request_shutdown();
}

#[test]
fn access_log_captures_requests_with_cache_outcomes() {
    let log_path = std::env::temp_dir().join(format!(
        "bikron-server-test-access-{}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&log_path);
    let (addr, state) = start_with(
        ServerConfig::default(),
        ServeOptions {
            admin_token: Some("tok".to_string()),
            access_log: Some(log_path.display().to_string()),
            trace_sample: 1,
            ..ServeOptions::default()
        },
    );
    let mut client = Client::connect(addr);
    // Same vertex twice: first populates the cache (miss), second hits.
    client.get("/v1/vertex/4");
    client.get("/v1/vertex/4");
    client.get("/nope/404");
    // Each access is logged after its response is written, so the last
    // line can trail the client's read by a beat — flush and re-read
    // until it lands (bounded, so a genuine loss still fails below).
    let mut text = String::new();
    for _ in 0..50 {
        state.flush_logs();
        text = std::fs::read_to_string(&log_path).expect("access log exists");
        if text.lines().count() >= 3 {
            break;
        }
        std::thread::sleep(Duration::from_millis(40));
    }
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{text}");
    assert!(lines[0].contains("\"path\": \"/v1/vertex/{n}\""), "{text}");
    assert!(lines[0].contains("\"cache\": \"miss\""), "{text}");
    assert!(lines[1].contains("\"cache\": \"hit\""), "{text}");
    assert!(lines[2].contains("\"status\": 404"), "{text}");
    assert!(lines.iter().all(|l| l.contains("\"latency_ns\": ")));

    // Head-sampling every request, each span tree covers the whole
    // exchange, and its trace id joins the access line.
    let (status, traces) = client.get("/v1/admin/traces?token=tok");
    assert_eq!(status, 200);
    for span in ["accept", "parse", "evaluate", "cache", "serialize", "write"] {
        assert!(
            traces.contains(&format!("\"name\": \"{span}\"")),
            "{traces}"
        );
    }
    let trace_id = lines[2].split("\"trace_id\": \"").nth(1).unwrap();
    assert!(traces.contains(&trace_id[..32]), "{traces}");

    state.request_shutdown();
    let _ = std::fs::remove_file(&log_path);
}

#[test]
fn graceful_shutdown_via_admin_token() {
    let (addr, state) = start(ServerConfig::default());
    let mut client = Client::connect(addr);
    let (status, _) = client.get("/v1/shutdown");
    assert_eq!(status, 403);
    assert!(!state.shutdown_requested());
    let (status, body) = client.get("/v1/shutdown?token=tok");
    assert_eq!(status, 200);
    assert!(body.contains("\"shutting_down\": true"));
    assert!(state.shutdown_requested());
}
