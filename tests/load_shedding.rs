//! Load shedding on the shared serving pool, for both of its handlers.
//!
//! A pool with one worker and a one-slot pending queue is saturated on
//! raw sockets: one client pins the worker mid-request, a second fills
//! the queue. Every further connection must get an immediate 503 with
//! `Retry-After`, counted in the handler's `*.shed` metric, while the
//! pinned client can still finish its request. The same check runs
//! against a query server (`ServeState`) and a router (`RouterState`).

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use bikron_core::SelfLoopMode;
use bikron_generators::{complete_bipartite, cycle};
use bikron_router::{RouterOptions, RouterState};
use bikron_serve::http::{read_response, Client};
use bikron_serve::{Handler, ServeOptions, ServeState, Server, ServerConfig};

fn serve_state(shard: Option<(usize, usize)>) -> Arc<ServeState> {
    Arc::new(
        ServeState::build_with(
            cycle(5),
            complete_bipartite(2, 3),
            SelfLoopMode::FactorA,
            ServeOptions {
                shard,
                ..ServeOptions::default()
            },
        )
        .expect("build state"),
    )
}

/// Run `handler` on a pool bound to an ephemeral port.
fn start<H: Handler>(config: ServerConfig, handler: Arc<H>) -> SocketAddr {
    let server = Server::bind(config, handler).expect("bind");
    let addr = server.local_addr().expect("local addr");
    std::thread::spawn(move || server.run().expect("server run"));
    addr
}

/// Saturate a one-worker, one-slot pool at `addr` and check the shed
/// path; returns the `counter` value from `/metrics` afterwards.
fn saturate_and_count_sheds(addr: SocketAddr, counter: &str) -> u64 {
    // Occupy the single worker: a connection with a half-sent request
    // pins it in `parse_request` until we finish or the timeout fires.
    let mut slow = TcpStream::connect(addr).expect("slow connect");
    slow.write_all(b"GET /v1/stats HTTP/1.1\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(300));

    // Fill the one queue slot.
    let queued = TcpStream::connect(addr).expect("queued connect");
    std::thread::sleep(Duration::from_millis(300));

    // Every further connection must be shed with an immediate 503.
    for _ in 0..3 {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let resp = read_response(&mut BufReader::new(stream)).expect("shed response");
        assert_eq!(resp.status, 503, "expected load shed, body: {}", resp.body);
        assert!(resp.body.contains("queue is full"), "{}", resp.body);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert!(resp.wants_close());
    }

    // The pinned client can still finish its request afterwards — the
    // shed path never touches established sessions.
    slow.write_all(b"\r\n").unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let resp = read_response(&mut BufReader::new(slow)).expect("slow response");
    assert_eq!(resp.status, 200, "{}", resp.body);
    drop(queued);

    let timeout = Duration::from_secs(10);
    let mut client = Client::connect(&addr.to_string(), timeout, timeout).expect("connect");
    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    let report = bikron_obs::Report::from_json(&metrics.body).expect("metrics parse");
    report.counter(counter).unwrap_or(0)
}

fn saturating_config() -> ServerConfig {
    ServerConfig {
        threads: 1,
        queue_capacity: 1,
        read_timeout: Duration::from_secs(3),
        ..ServerConfig::default()
    }
}

#[test]
fn serve_pool_sheds_with_503_when_saturated() {
    let state = serve_state(None);
    let addr = start(saturating_config(), Arc::clone(&state));
    // `serve.*` lives in the process-wide registry, so count at least
    // this test's three sheds.
    assert!(saturate_and_count_sheds(addr, "serve.shed") >= 3);
    state.request_shutdown();
}

#[test]
fn router_pool_sheds_with_503_when_saturated() {
    let shard = serve_state(Some((0, 1)));
    let shard_addr = start(ServerConfig::default(), Arc::clone(&shard));
    let router = Arc::new(
        RouterState::connect(&[format!("http://{shard_addr}")], RouterOptions::default())
            .expect("router handshake"),
    );
    let addr = start(saturating_config(), Arc::clone(&router));
    // The router's registry is private to this state: exactly our sheds.
    assert_eq!(saturate_and_count_sheds(addr, "router.shed"), 3);
    router.request_shutdown();
    shard.request_shutdown();
}
