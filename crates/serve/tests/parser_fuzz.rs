//! Robustness matrix for the hand-rolled HTTP layer: seeded
//! pseudo-random byte streams must never panic the parser, and every
//! rejection must land in the documented status set {400, 405, 413, 431}
//! (with `Closed`/`Io` reported as 400 formality by `HttpError::status`).
//!
//! Three generations of hostility, all deterministic per seed:
//! pure random bytes, random bytes with HTTP-ish framing sprinkled in,
//! and mutated copies of a valid request. A fourth matrix drives random
//! bodies through `POST /v1/batch` end-to-end: the answer is always 200
//! or a structured 400 whose body names the offending line.
//!
//! The shared response reader (`read_response`, behind every client in
//! the workspace) gets the same treatment: each hostile response shape
//! must come back as its named error, and mutated valid responses must
//! never panic. A tracking allocator checks that no case makes the
//! reader allocate more than [`ALLOC_CEILING`] at once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::BufReader;

use bikron_core::SelfLoopMode;
use bikron_generators::{complete_bipartite, cycle};
use bikron_serve::http::{
    parse_request, read_response, HttpError, MAX_HEADERS, MAX_HEADER_LINE, MAX_RESPONSE_BODY,
};
use bikron_serve::{ServeOptions, ServeState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Largest single allocation a hostile response may cause, bytes.
const ALLOC_CEILING: usize = 1 << 20;

/// Passes every allocation to [`System`], noting the largest request
/// size per thread so a test can bound what its own code allocated.
struct Tracking;

std::thread_local! {
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST_ALLOC.try_with(|c| c.set(c.get().max(size)));
}

unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// Read one response from `raw` and return the result together with the
/// largest allocation made while reading it.
fn read_tracked(raw: &[u8]) -> (Result<bikron_serve::http::ClientResponse, HttpError>, usize) {
    let mut reader = BufReader::new(raw);
    LARGEST_ALLOC.set(0);
    let result = read_response(&mut reader);
    (result, LARGEST_ALLOC.get())
}

/// Feed one byte stream to the parser; panics bubble up and fail the
/// test, error statuses outside the documented set are asserted against.
fn assert_parse_is_total(stream: &[u8]) {
    let mut reader = BufReader::new(stream);
    // Keep pulling requests until the stream errors or drains, as the
    // keep-alive connection loop would.
    for _ in 0..8 {
        match parse_request(&mut reader) {
            Ok(req) => {
                assert!(
                    req.method == "GET" || req.method == "POST",
                    "parser let through method {:?}",
                    req.method
                );
            }
            Err(e) => {
                assert!(
                    matches!(e.status(), 400 | 405 | 413 | 431),
                    "undocumented status {} for {:?}",
                    e.status(),
                    e.detail()
                );
                break;
            }
        }
    }
}

#[test]
fn random_bytes_never_panic_and_map_to_documented_statuses() {
    let mut rng = StdRng::seed_from_u64(0xF_00D);
    for _ in 0..400 {
        let len = rng.gen_range(0usize..600);
        let stream: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
        assert_parse_is_total(&stream);
    }
}

#[test]
fn http_shaped_garbage_never_panics() {
    const FRAGMENTS: &[&str] = &[
        "GET ",
        "POST ",
        "HTTP/1.1",
        "HTTP/9.9",
        "\r\n",
        "\n",
        " ",
        "/v1/vertex/",
        "/v1/batch",
        "%",
        "%zz",
        "%2f",
        "?offset=",
        "&limit=",
        "Content-Length:",
        "Content-Length: 99999999",
        "Host: x",
        ":",
        "\0",
        "vertex 1\n",
    ];
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for _ in 0..400 {
        let mut stream = Vec::new();
        for _ in 0..rng.gen_range(1usize..12) {
            if rng.gen_bool(0.8) {
                stream.extend_from_slice(FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())].as_bytes());
            } else {
                stream.push(rng.gen_range(0u32..256) as u8);
            }
        }
        assert_parse_is_total(&stream);
    }
}

/// `valid` after one to five random byte overwrites, truncations or
/// insertions.
fn mutate(rng: &mut StdRng, valid: &[u8]) -> Vec<u8> {
    let mut stream = valid.to_vec();
    for _ in 0..rng.gen_range(1usize..6) {
        match rng.gen_range(0u32..3) {
            0 => {
                let i = rng.gen_range(0..stream.len());
                stream[i] = rng.gen_range(0u32..256) as u8;
            }
            1 => {
                let i = rng.gen_range(0..stream.len());
                stream.truncate(i);
            }
            _ => {
                let i = rng.gen_range(0..=stream.len());
                stream.insert(i, rng.gen_range(0u32..256) as u8);
            }
        }
        if stream.is_empty() {
            break;
        }
    }
    stream
}

#[test]
fn mutated_valid_requests_never_panic() {
    let valid = b"POST /v1/batch HTTP/1.1\r\nHost: f\r\nContent-Length: 9\r\n\r\nvertex 1\n";
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    for _ in 0..600 {
        assert_parse_is_total(&mutate(&mut rng, valid));
    }
}

#[test]
fn random_batch_bodies_get_200_or_a_line_indexed_400() {
    let state = ServeState::build_with(
        cycle(5),
        complete_bipartite(2, 3),
        SelfLoopMode::None,
        ServeOptions::default(),
    )
    .unwrap();
    const TOKENS: &[&str] = &[
        "vertex",
        "edge",
        "neighbors",
        "vertexx",
        "",
        "0",
        "1",
        "29",
        "30",
        "9999999",
        "18446744073709551616",
        "-1",
        "1.5",
        " ",
        "\t",
        "🦀",
    ];
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    for _ in 0..500 {
        let mut body = String::new();
        for _ in 0..rng.gen_range(0usize..8) {
            let words = rng.gen_range(0usize..5);
            let line: Vec<&str> = (0..words)
                .map(|_| TOKENS[rng.gen_range(0..TOKENS.len())])
                .collect();
            body.push_str(&line.join(" "));
            body.push('\n');
        }
        let raw = format!(
            "POST /v1/batch HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let req = parse_request(&mut BufReader::new(raw.as_bytes())).unwrap();
        let resp = state.handle(&req);
        match resp.status {
            200 => {}
            400 => assert!(
                resp.body.contains("\"line\": "),
                "400 without offending line index: {}",
                resp.body
            ),
            other => panic!("batch answered {other} for body {body:?}: {}", resp.body),
        }
    }
}

#[test]
fn hostile_responses_get_named_errors() {
    let ok = "HTTP/1.1 200 OK\r\n";
    let long = "v".repeat(MAX_HEADER_LINE);
    let many = "X-H: 1\r\n".repeat(MAX_HEADERS + 1);
    let len = |n: &str| format!("{ok}Content-Length: {n}\r\n\r\n");
    let mut non_utf8 = len("2").into_bytes();
    non_utf8.extend([0xff, 0xfe]);
    let cases: Vec<(&str, Vec<u8>, &str)> = vec![
        ("empty stream", vec![], "connection closed"),
        (
            "truncated status line",
            "HTTP/1.1 200 O".into(),
            "unterminated line at EOF",
        ),
        (
            "truncated head",
            format!("{ok}Content-Length: 2\r\n").into(),
            "EOF inside headers",
        ),
        (
            "HTTP/2 status line",
            "HTTP/2 200 OK\r\n\r\n".into(),
            "not an HTTP/1.x status",
        ),
        (
            "not HTTP at all",
            "SSH-2.0-OpenSSH_9.6\r\n".into(),
            "not an HTTP/1.x status",
        ),
        (
            "non-numeric status",
            "HTTP/1.1 OK\r\n\r\n".into(),
            "not an HTTP/1.x status",
        ),
        (
            "long status line",
            format!("HTTP/1.1 200 {long}\r\n").into(),
            "status line exceeds",
        ),
        (
            "long header line",
            format!("{ok}X: {long}\r\n\r\n").into(),
            "header line exceeds",
        ),
        (
            "too many headers",
            format!("{ok}{many}\r\n").into(),
            "header count exceeds",
        ),
        (
            "header without colon",
            format!("{ok}no-colon\r\n\r\n").into(),
            "without colon",
        ),
        (
            "no Content-Length",
            format!("{ok}\r\n{{}}").into(),
            "has no content-length",
        ),
        (
            "length over the cap",
            len(&(MAX_RESPONSE_BODY + 1).to_string()).into(),
            "body exceeds",
        ),
        (
            "length over usize",
            len("99999999999999999999999").into(),
            "bad content-length",
        ),
        (
            "non-numeric length",
            len("ten").into(),
            "bad content-length",
        ),
        ("negative length", len("-1").into(), "bad content-length"),
        (
            "EOF mid-body",
            (len(&MAX_RESPONSE_BODY.to_string()) + "{").into(),
            "EOF inside body",
        ),
        ("non-UTF-8 body", non_utf8, "body is not valid UTF-8"),
    ];
    for (name, raw, expected) in cases {
        let (result, largest) = read_tracked(&raw);
        let err = result.expect_err(name);
        assert!(err.detail().contains(expected), "{name}: got {err:?}");
        assert!(
            largest <= ALLOC_CEILING,
            "{name}: allocated {largest} bytes at once"
        );
    }
}

#[test]
fn mutated_valid_responses_never_panic() {
    let valid =
        b"HTTP/1.1 200 OK\r\nContent-Length: 14\r\nConnection: close\r\n\r\n{\"vertex\": 1}\n";
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for _ in 0..600 {
        let (_, largest) = read_tracked(&mutate(&mut rng, valid));
        assert!(
            largest <= ALLOC_CEILING,
            "allocated {largest} bytes at once"
        );
    }
}
