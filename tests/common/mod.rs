//! Shared by the differential serve suites (`serve_vs_materialized`,
//! `expr_vs_materialized`, `cluster_vs_single`): request parsing through
//! the production parser, and the byte-exact bodies a materialised
//! replica predicts for the endpoints whose rendering is the same on
//! every kind of server.

// Each suite uses a different subset of these helpers.
#![allow(dead_code)]

use std::io::BufReader;

use bikron_analytics::butterfly::{butterflies_per_edge, butterflies_per_vertex, EdgeButterflies};
use bikron_graph::Graph;
use bikron_obs::JsonWriter;
use bikron_serve::http::{parse_request, Request};
use bikron_serve::ServeState;

/// Parse a GET request through the production HTTP parser.
pub fn get(path: &str) -> Request {
    let raw = format!("GET {path} HTTP/1.1\r\n\r\n");
    parse_request(&mut BufReader::new(raw.as_bytes())).unwrap()
}

/// Parse a POST request (for `/v1/batch`) through the production parser.
pub fn post(path: &str, body: &str) -> Request {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    parse_request(&mut BufReader::new(raw.as_bytes())).unwrap()
}

/// A materialised product with its directly enumerated 4-cycle counts —
/// the brute-force side of every comparison.
pub struct Replica {
    pub mat: Graph,
    /// Thm 3/4 reference: butterflies at each product vertex.
    pub squares_vertex: Vec<u64>,
    /// Thm 5 reference: butterflies through each materialised edge.
    pub squares_edge: EdgeButterflies,
}

impl Replica {
    pub fn new(mat: Graph) -> Self {
        Replica {
            squares_vertex: butterflies_per_vertex(&mat),
            squares_edge: butterflies_per_edge(&mat),
            mat,
        }
    }

    /// The exact `/v1/edge/{p}/{q}` body from materialised adjacency.
    pub fn edge_body(&self, p: usize, q: usize) -> String {
        let squares = self.squares_edge.get(p, q);
        let mut w = JsonWriter::new();
        w.open_object();
        w.u64_field("p", p as u64);
        w.u64_field("q", q as u64);
        w.bool_field("edge", squares.is_some());
        w.u64_field("degree_p", self.mat.degree(p) as u64);
        w.u64_field("degree_q", self.mat.degree(q) as u64);
        match squares {
            Some(s) => w.u64_field("squares", s),
            None => w.null_field("squares"),
        }
        w.close_object();
        w.finish()
    }

    /// The exact `/v1/neighbors/{p}` page body from the materialised rows.
    pub fn neighbors_body(&self, p: usize, offset: u64, limit: usize) -> String {
        let row = self.mat.neighbors(p);
        let degree = row.len() as u64;
        let page = &row[(offset as usize).min(row.len())..row.len().min(offset as usize + limit)];
        let mut w = JsonWriter::new();
        w.open_object();
        w.u64_field("vertex", p as u64);
        w.u64_field("degree", degree);
        w.u64_field("offset", offset);
        w.u64_field("count", page.len() as u64);
        let next = offset + page.len() as u64;
        if next < degree && !page.is_empty() {
            w.u64_field("next_offset", next);
        } else {
            w.null_field("next_offset");
        }
        w.key("neighbors");
        w.open_array();
        for &q in page {
            w.u64_element(q as u64);
        }
        w.close_array();
        w.close_object();
        w.finish()
    }

    /// The exact `/v1/scatter/degree-squares` JSON page from the replica.
    pub fn scatter_body(&self, offset: u64, limit: usize) -> String {
        let n = self.mat.num_vertices() as u64;
        let start = offset.min(n);
        let end = n.min(offset + limit as u64);
        let mut w = JsonWriter::new();
        w.open_object();
        w.u64_field("offset", offset);
        w.u64_field("count", end - start);
        if end < n && end > start {
            w.u64_field("next_offset", end);
        } else {
            w.null_field("next_offset");
        }
        w.key("rows");
        w.open_array();
        for p in start..end {
            w.array_element();
            w.open_array();
            w.u64_element(p);
            w.u64_element(self.mat.degree(p as usize) as u64);
            w.u64_element(self.squares_vertex[p as usize]);
            w.close_array();
        }
        w.close_array();
        w.close_object();
        w.finish()
    }

    /// `/v1/edge/{p}/{q}` for 100% of ordered vertex pairs.
    pub fn check_every_ordered_pair(&self, state: &ServeState, tag: &str) {
        let n = self.mat.num_vertices();
        for p in 0..n {
            for q in 0..n {
                let resp = state.handle(&get(&format!("/v1/edge/{p}/{q}")));
                assert_eq!(resp.status, 200);
                assert_eq!(
                    resp.body,
                    self.edge_body(p, q),
                    "[{tag}] edge body diverged at ({p}, {q})"
                );
            }
        }
    }

    /// Every `/v1/neighbors` page of every vertex, at three page sizes.
    pub fn check_every_neighbors_page(&self, state: &ServeState, tag: &str) {
        for p in 0..self.mat.num_vertices() {
            let degree = self.mat.degree(p) as u64;
            for limit in [1usize, 3, 100] {
                let mut offset = 0u64;
                loop {
                    let resp = state.handle(&get(&format!(
                        "/v1/neighbors/{p}?offset={offset}&limit={limit}"
                    )));
                    assert_eq!(resp.status, 200);
                    assert_eq!(
                        resp.body,
                        self.neighbors_body(p, offset, limit),
                        "[{tag}] neighbors diverged at p={p} offset={offset} limit={limit}"
                    );
                    offset += limit as u64;
                    if offset >= degree {
                        break;
                    }
                }
            }
        }
    }

    /// Every JSON scatter page at two page sizes, plus the CSV rendering.
    pub fn check_scatter_pages(&self, state: &ServeState, tag: &str) {
        let n = self.mat.num_vertices() as u64;
        for limit in [7usize, 64] {
            let mut offset = 0u64;
            loop {
                let resp = state.handle(&get(&format!(
                    "/v1/scatter/degree-squares?offset={offset}&limit={limit}"
                )));
                assert_eq!(resp.status, 200);
                assert_eq!(
                    resp.body,
                    self.scatter_body(offset, limit),
                    "[{tag}] scatter diverged at offset={offset} limit={limit}"
                );
                offset += limit as u64;
                if offset >= n {
                    break;
                }
            }
        }
        // CSV rows carry the same numbers.
        let resp = state.handle(&get("/v1/scatter/degree-squares?format=csv&limit=64"));
        assert_eq!(resp.status, 200);
        assert!(resp.content_type.starts_with("text/csv"));
        let mut expected = String::from("vertex,degree,squares\n");
        for p in 0..self.mat.num_vertices().min(64) {
            let (d, s) = (self.mat.degree(p), self.squares_vertex[p]);
            expected.push_str(&format!("{p},{d},{s}\n"));
        }
        assert_eq!(resp.body, expected, "[{tag}] csv page");
    }
}
