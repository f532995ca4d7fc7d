//! Replay determinism, end to end: record a real access log from a live
//! server, replay it (dry-run and live), and check the two contracts the
//! `bikron replay` tool exists for:
//!
//! 1. **Multiset fidelity** — the requests a live replay issues are
//!    exactly the replayable lines of the recorded log (same path-shape
//!    multiset), verified by recording the *target* server's access log
//!    and diffing it against the source log.
//! 2. **Cache warming** — replaying a log against a server primes its
//!    result cache: under the same subsequent workload, the warmed
//!    server's hit rate beats a cold server's. (This is the CI
//!    warm-start story: snapshot restores the hot set, replay recreates
//!    it from a log when no snapshot exists.)

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use bikron_cli::replay::{parse_access_log, ReplayConfig};
use bikron_core::SelfLoopMode;
use bikron_generators::{complete_bipartite, cycle};
use bikron_serve::http;
use bikron_serve::{CacheKey, ServeOptions, ServeState, Server, ServerConfig};

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

/// Start a server on port 0, optionally recording an access log.
fn start(access_log: Option<String>) -> (std::net::SocketAddr, Arc<ServeState>) {
    let state = Arc::new(
        ServeState::build_with(
            cycle(5),
            complete_bipartite(2, 3),
            SelfLoopMode::FactorA,
            ServeOptions {
                access_log,
                ..ServeOptions::default()
            },
        )
        .expect("build state"),
    );
    let server = Server::bind(ServerConfig::default(), Arc::clone(&state)).expect("bind");
    let addr = server.local_addr().expect("local addr");
    std::thread::spawn(move || server.run().expect("server run"));
    (addr, state)
}

fn temp_log(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!(
            "bikron-replay-test-{tag}-{}.log",
            std::process::id()
        ))
        .display()
        .to_string()
}

/// Multiset of path shapes, for order-insensitive comparison.
fn shape_counts(shapes: impl IntoIterator<Item = String>) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for s in shapes {
        *counts.entry(s).or_insert(0) += 1;
    }
    counts
}

fn replay_config(log: &str, addr: std::net::SocketAddr, seed: u64) -> ReplayConfig {
    ReplayConfig::parse(&[
        log.to_string(),
        format!("{}:{}", addr.ip(), addr.port()),
        "--seed".to_string(),
        seed.to_string(),
    ])
    .expect("replay config")
}

#[test]
fn replay_reissues_the_recorded_multiset_and_warms_the_cache() {
    // ---- Record: drive a deterministic workload on the source server.
    let source_log = temp_log("source");
    let _ = std::fs::remove_file(&source_log);
    let (src_addr, src_state) = start(Some(source_log.clone()));
    let mut client = Client::connect(src_addr);
    let n = src_state.num_vertices();
    for round in 0..3 {
        for p in 0..n {
            client.get(&format!("/v1/vertex/{p}"));
        }
        if round == 0 {
            for p in 0..4 {
                client.get(&format!("/v1/edge/{p}/{}", p + 1));
                client.get(&format!("/v1/neighbors/{p}?limit=4"));
            }
        }
    }
    client.get("/v1/stats");
    client.get("/nope/missing"); // 404s replay too (they are not errors)
                                 // Access events are logged after the response is written; flush and
                                 // re-read until the tail line lands.
    let mut lines = Vec::new();
    let mut skipped = 0;
    for _ in 0..50 {
        src_state.flush_logs();
        let text = std::fs::read_to_string(&source_log).expect("source log exists");
        (lines, skipped) = parse_access_log(&text);
        if lines.len() >= 3 * n + 10 {
            break;
        }
        std::thread::sleep(Duration::from_millis(40));
    }
    // 3n vertex + 4 edge + 4 neighbors + stats + the 404 line.
    assert_eq!(lines.len(), 3 * n + 10);
    assert_eq!(skipped, 0);
    let recorded = shape_counts(lines.iter().map(|l| l.path_shape.clone()));

    // ---- Dry-run: plans without a server, reports the replayable count.
    let mut dry_cfg = replay_config(&source_log, src_addr, 7);
    dry_cfg.dry_run = true;
    let mut out = Vec::new();
    assert!(bikron_cli::replay::run(&dry_cfg, &mut out).expect("dry-run"));
    let dry = String::from_utf8(out).unwrap();
    assert!(
        dry.contains(&format!("{} replayable request(s)", lines.len())),
        "{dry}"
    );

    // ---- Live replay onto a fresh server that records its own log.
    let target_log = temp_log("target");
    let _ = std::fs::remove_file(&target_log);
    let (warm_addr, warm_state) = start(Some(target_log.clone()));
    let cfg = replay_config(&source_log, warm_addr, 7);
    let mut out = Vec::new();
    assert!(bikron_cli::replay::run(&cfg, &mut out).expect("live replay"));
    let summary = String::from_utf8(out).unwrap();
    assert!(
        summary.contains(&format!("{} replayed, 0 skipped, 0 error(s)", lines.len())),
        "{summary}"
    );
    // The worker logs each access *after* writing the response, so the
    // final line can trail the client's read by a beat — flush and
    // re-read until the log is complete (bounded, so a genuine loss
    // still fails the multiset assertion below).
    let expected_target_lines = lines.len() + 1; // + the /v1/stats handshake
    let mut target_lines = Vec::new();
    for _ in 0..50 {
        warm_state.flush_logs();
        let target_text = std::fs::read_to_string(&target_log).expect("target log exists");
        (target_lines, _) = parse_access_log(&target_text);
        if target_lines.len() >= expected_target_lines {
            break;
        }
        std::thread::sleep(Duration::from_millis(40));
    }

    // Multiset fidelity: the target saw exactly the recorded shapes,
    // plus the one /v1/stats handshake replay issues to learn the
    // vertex count.
    let mut replayed = shape_counts(target_lines.iter().map(|l| l.path_shape.clone()));
    let stats_seen = replayed.get_mut("/v1/stats").expect("handshake recorded");
    *stats_seen -= 1;
    if *stats_seen == 0 {
        replayed.remove("/v1/stats");
    }
    let mut expected = recorded.clone();
    expected.retain(|_, c| *c > 0);
    replayed.retain(|_, c| *c > 0);
    assert_eq!(replayed, expected, "replayed multiset diverged from log");

    let warm_cache = warm_state.cache().expect("cache enabled");
    // `{n}` samples span the whole product, not just factor A's |V(A)| = 5
    // vertices (the first "vertices" field in `/v1/stats`).
    let sampled: Vec<usize> = warm_cache
        .hottest(usize::MAX)
        .into_iter()
        .filter_map(|(key, _)| match key {
            CacheKey::Vertex(p) => Some(p),
            _ => None,
        })
        .collect();
    assert!(sampled.iter().all(|&p| p < n), "{sampled:?}");
    assert!(sampled.iter().any(|&p| p >= 5), "{sampled:?}");

    // ---- Cache warming: same subsequent workload (same log, same seed)
    // against the already-replayed server vs a cold one.
    let (cold_addr, cold_state) = start(None);
    let cold_cache = cold_state.cache().expect("cache enabled");
    let (h0, m0) = (warm_cache.local_hits(), warm_cache.local_misses());

    let mut out = Vec::new();
    assert!(bikron_cli::replay::run(&replay_config(&source_log, warm_addr, 7), &mut out).unwrap());
    let mut out = Vec::new();
    assert!(bikron_cli::replay::run(&replay_config(&source_log, cold_addr, 7), &mut out).unwrap());

    let warm_hits = warm_cache.local_hits() - h0;
    let warm_misses = warm_cache.local_misses() - m0;
    let (cold_hits, cold_misses) = (cold_cache.local_hits(), cold_cache.local_misses());
    let rate = |h: u64, m: u64| h * 100 / (h + m).max(1);
    assert!(
        rate(warm_hits, warm_misses) > rate(cold_hits, cold_misses),
        "warmed server hit rate {}% did not beat cold {}% \
         (warm {warm_hits}/{warm_misses}, cold {cold_hits}/{cold_misses})",
        rate(warm_hits, warm_misses),
        rate(cold_hits, cold_misses),
    );
    // The warmed pass is *entirely* hits: identical seed → identical
    // keys, all primed by the first replay.
    assert_eq!(warm_misses, 0, "warm replay re-missed primed keys");

    for path in [&source_log, &target_log] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn replay_respects_count_and_exits_nonzero_on_errors() {
    // A log whose lines all 404 on the target is replayable (404 is an
    // answer, not an error)…
    let log = temp_log("count");
    let mut lines = String::new();
    for i in 0..10 {
        lines.push_str(&format!(
            "{{\"ts_ms\": {i}, \"target\": \"access\", \"method\": \"GET\", \
             \"path\": \"/v1/vertex/{{n}}\", \"status\": 200, \"latency_ns\": 10, \
             \"bytes\": 1, \"cache\": \"miss\", \"trace_id\": \"t\"}}\n"
        ));
    }
    std::fs::write(&log, &lines).unwrap();

    let (addr, _state) = start(None);
    let mut cfg = replay_config(&log, addr, 3);
    cfg.count = 4;
    let mut out = Vec::new();
    assert!(bikron_cli::replay::run(&cfg, &mut out).expect("limited replay"));
    let summary = String::from_utf8(out).unwrap();
    assert!(summary.contains("4 replayed"), "{summary}");

    // …while a dead target is a hard error, not a silent zero-count run.
    // Grab a free port and close it again so nothing is listening there.
    let dead_addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let cfg = replay_config(&log, dead_addr, 3);
    let mut out = Vec::new();
    assert!(bikron_cli::replay::run(&cfg, &mut out).is_err());

    let _ = std::fs::remove_file(&log);
}
