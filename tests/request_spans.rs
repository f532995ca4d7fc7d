//! Request span trees over a real pool server, checked against the shape
//! the request took.
//!
//! A server head-samples every request (`trace_sample: 1`). A traced
//! `POST /v1/batch` must record one `batch[i] verb` span per item under
//! `evaluate`, with the item's `cache` span (and `serialize` on a miss)
//! under the item, whether the items run on the request thread
//! (`batch_threads` 1) or on helper threads (`batch_threads` 4). A second
//! identical batch must hit where the first missed. A single query keeps
//! the `accept`, `parse`, `evaluate` → `cache` → `serialize`, `write`
//! tree, and the batch request's access-log line names no cache outcome.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use bikron_core::SelfLoopMode;
use bikron_generators::{complete_bipartite, cycle};
use bikron_obs::{parse_json, JsonValue};
use bikron_serve::http::Client;
use bikron_serve::{ServeOptions, ServeState, Server, ServerConfig};

const BATCH: &str = "vertex 3\nedge 1 2\nneighbors 4\nvertex 7\nedge 0 5\nneighbors 9\n";
const VERBS: [&str; 6] = ["vertex", "edge", "neighbors", "vertex", "edge", "neighbors"];

struct Traced {
    client: Client,
    state: Arc<ServeState>,
    log: PathBuf,
}

impl Traced {
    fn start(batch_threads: usize) -> Traced {
        let log = std::env::temp_dir().join(format!(
            "bikron-request-spans-{}-{batch_threads}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&log);
        let state = Arc::new(
            ServeState::build_with(
                cycle(5),
                complete_bipartite(2, 3),
                SelfLoopMode::FactorA,
                ServeOptions {
                    admin_token: Some("tok".to_string()),
                    access_log: Some(log.display().to_string()),
                    trace_sample: 1,
                    batch_threads,
                    ..ServeOptions::default()
                },
            )
            .expect("build state"),
        );
        let server = Server::bind(ServerConfig::default(), Arc::clone(&state)).expect("bind");
        let addr = server.local_addr().expect("local addr").to_string();
        std::thread::spawn(move || server.run().expect("server run"));
        let timeout = Duration::from_secs(10);
        let client = Client::connect(&addr, timeout, timeout).expect("connect");
        Traced { client, state, log }
    }

    /// Send one request under trace id `trace` and return its status.
    /// Requests share one keep-alive connection, so the worker has
    /// offered each trace to the sink before it reads the next request.
    fn send(&mut self, method: &str, target: &str, body: Option<&str>, trace: u128) -> u16 {
        let traceparent = format!("00-{trace:032x}-00f067aa0ba902b7-01");
        self.client
            .request(method, target, &[("traceparent", &traceparent)], body)
            .expect("request")
            .status
    }

    /// The captured trace with id `trace`.
    fn trace(&mut self, trace: u128) -> Vec<Span> {
        let resp = self
            .client
            .get("/v1/admin/traces?token=tok")
            .expect("traces");
        assert_eq!(resp.status, 200);
        let doc = parse_json(&resp.body).expect("traces JSON");
        let id = format!("{trace:032x}");
        let found = doc
            .get("traces")
            .and_then(JsonValue::as_array)
            .expect("traces array")
            .iter()
            .find(|t| t.str_of("trace_id") == Some(id.as_str()))
            .unwrap_or_else(|| panic!("trace {id} not captured: {}", resp.body));
        let root = found.str_of("root_span_id").unwrap().to_string();
        found
            .get("spans")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|s| Span {
                name: s.str_of("name").unwrap().to_string(),
                id: s.str_of("span_id").unwrap().to_string(),
                parent: match s.str_of("parent_id").unwrap() {
                    p if p == root => "root".to_string(),
                    p => p.to_string(),
                },
                cache: s.str_of("cache").map(str::to_string),
            })
            .collect()
    }

    /// Every access-log line once `expected` have landed.
    fn access_lines(&self, expected: usize) -> Vec<String> {
        let mut text = String::new();
        for _ in 0..50 {
            self.state.flush_logs();
            text = std::fs::read_to_string(&self.log).unwrap_or_default();
            if text.lines().count() >= expected {
                break;
            }
            std::thread::sleep(Duration::from_millis(40));
        }
        text.lines().map(str::to_string).collect()
    }
}

impl Drop for Traced {
    fn drop(&mut self) {
        self.state.request_shutdown();
        let _ = std::fs::remove_file(&self.log);
    }
}

#[derive(Debug)]
struct Span {
    name: String,
    id: String,
    /// The parent's span id, or `root` for the request's root span.
    parent: String,
    cache: Option<String>,
}

fn one<'a>(spans: &'a [Span], name: &str) -> &'a Span {
    let found: Vec<&Span> = spans.iter().filter(|s| s.name == name).collect();
    assert_eq!(found.len(), 1, "want exactly one {name:?} span: {spans:#?}");
    found[0]
}

fn children<'a>(spans: &'a [Span], parent: &Span) -> Vec<&'a Span> {
    spans.iter().filter(|s| s.parent == parent.id).collect()
}

/// Check a batch trace's shape and return each item's cache tag.
fn batch_item_tags(spans: &[Span]) -> Vec<String> {
    let evaluate = one(spans, "evaluate");
    assert_eq!(evaluate.parent, "root");
    let items = children(spans, evaluate);
    assert_eq!(
        items.len(),
        VERBS.len(),
        "only items under evaluate: {spans:#?}"
    );
    VERBS
        .iter()
        .enumerate()
        .map(|(i, verb)| {
            let item = one(spans, &format!("batch[{i}] {verb}"));
            assert_eq!(item.parent, evaluate.id);
            let below: Vec<&str> = children(spans, item)
                .iter()
                .map(|s| s.name.as_str())
                .collect();
            let cache = children(spans, item)
                .into_iter()
                .find(|s| s.name == "cache")
                .unwrap_or_else(|| panic!("no cache span under {}: {spans:#?}", item.name));
            let tag = cache.cache.clone().expect("cache span is tagged");
            let expected: &[&str] = if tag == "miss" {
                &["cache", "serialize"]
            } else {
                &["cache"]
            };
            assert_eq!(below, expected, "children of {}", item.name);
            assert_eq!(item.cache.as_deref(), Some(tag.as_str()));
            tag
        })
        .collect()
}

fn check_batch_spans(batch_threads: usize) {
    let mut server = Traced::start(batch_threads);
    assert_eq!(server.send("POST", "/v1/batch", Some(BATCH), 0xb1), 200);
    assert_eq!(server.send("POST", "/v1/batch", Some(BATCH), 0xb2), 200);
    let first = batch_item_tags(&server.trace(0xb1));
    let second = batch_item_tags(&server.trace(0xb2));
    assert!(first.iter().all(|t| t == "miss"), "{first:?}");
    assert!(second.iter().all(|t| t == "hit"), "{second:?}");

    // A single query keeps its tree.
    assert_eq!(server.send("GET", "/v1/vertex/2", None, 0x51), 200);
    let spans = server.trace(0x51);
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        ["accept", "parse", "evaluate", "cache", "serialize", "write"]
    );
    for top in ["accept", "parse", "evaluate", "write"] {
        assert_eq!(one(&spans, top).parent, "root", "{top}");
    }
    let evaluate = one(&spans, "evaluate");
    assert_eq!(one(&spans, "cache").parent, evaluate.id);
    assert_eq!(one(&spans, "cache").cache.as_deref(), Some("miss"));
    assert_eq!(one(&spans, "serialize").parent, evaluate.id);

    // Batch lines name no cache outcome; the single query's does. The
    // six requests are two batches, the vertex and three trace reads.
    let lines = server.access_lines(6);
    let with_path = |shape: &str| -> Vec<&String> {
        let needle = format!("\"path\": \"{shape}\"");
        lines.iter().filter(|l| l.contains(&needle)).collect()
    };
    let batches = with_path("/v1/batch");
    assert_eq!(batches.len(), 2, "{lines:?}");
    for line in batches {
        assert!(line.contains("\"cache\": \"-\""), "{line}");
    }
    let vertex = with_path("/v1/vertex/{n}");
    assert_eq!(vertex.len(), 1, "{lines:?}");
    assert!(vertex[0].contains("\"cache\": \"miss\""), "{}", vertex[0]);
}

#[test]
fn batch_items_nest_on_the_request_thread() {
    check_batch_spans(1);
}

#[test]
fn batch_items_nest_on_helper_threads() {
    check_batch_spans(4);
}
