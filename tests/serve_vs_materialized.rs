//! Differential test: `bikron-serve`'s closed-form answers (Thms 3–7,
//! evaluated from factor-sized state) against brute force on the
//! **materialised** product `(A+I_A)⊗B` / `A⊗B`.
//!
//! The server never builds the product; `bikron_analytics` counts
//! butterflies by enumerating it. Agreement between the two — checked
//! here at the *byte* level of the HTTP bodies, for 100% of product
//! vertices, 100% of ordered vertex pairs (edge and clustering), every
//! neighbors/edge-list/scatter page, the `/v1/stats` body and a spread
//! of community sets — is end-to-end evidence that the serving path
//! (routing, cache, batch assembly, JSON encoding) preserves ground
//! truth.
//!
//! `handle()` is driven in-process (no TCP): the suite parses real HTTP
//! request bytes through the production parser, so everything except the
//! socket accept loop is exercised.

use std::collections::BTreeSet;

use bikron_analytics::butterfly::butterflies_per_edge;
use bikron_core::{KroneckerProduct, SelfLoopMode};
use bikron_generators::{complete_bipartite, crown, cycle, path, star};
use bikron_graph::{bipartition, connected_components, Graph};
use bikron_obs::JsonWriter;
use bikron_serve::{ServeOptions, ServeState};

mod common;
use bikron_obs::json::field_f64;
use common::{get, post, Replica};

/// Everything the brute-force side knows about one fixture: the served
/// state plus the materialised product and its enumerated counts.
struct Fixture {
    state: ServeState,
    truth: Replica,
    n_b: usize,
    /// The factors and mode, for the factor-level sides of Thm 6 and the
    /// Cor 1–2 applicability checks.
    a: Graph,
    b: Graph,
    mode: SelfLoopMode,
}

fn fixture(a: Graph, b: Graph, mode: SelfLoopMode, options: ServeOptions) -> Fixture {
    let mat = KroneckerProduct::new(&a, &b, mode).unwrap().materialize();
    let n_b = b.num_vertices();
    Fixture {
        state: ServeState::build_with(a.clone(), b.clone(), mode, options).unwrap(),
        truth: Replica::new(mat),
        n_b,
        a,
        b,
        mode,
    }
}

fn fixtures() -> Vec<Fixture> {
    vec![
        fixture(
            cycle(5),
            complete_bipartite(2, 3),
            SelfLoopMode::None,
            ServeOptions::default(),
        ),
        // loops-a is the paper's dense-structure mode; also run it with
        // the cache disabled so both compute paths face the brute force.
        fixture(
            cycle(5),
            complete_bipartite(2, 3),
            SelfLoopMode::FactorA,
            ServeOptions {
                cache_entries: 0,
                ..ServeOptions::default()
            },
        ),
        fixture(
            path(4),
            star(4),
            SelfLoopMode::FactorA,
            ServeOptions::default(),
        ),
        // Both factors bipartite with sides of size > 1, so a proper
        // subset can straddle both sides and every Cor 1–2 density is
        // defined; connected by Thm 2.
        fixture(
            crown(3),
            crown(3),
            SelfLoopMode::FactorA,
            ServeOptions::default(),
        ),
    ]
}

/// The exact `/v1/vertex/{p}` body, built from the *materialised* graph
/// (degree + enumerated butterfly count) instead of the closed forms.
fn expected_vertex_body(fx: &Fixture, p: usize, squares: u64) -> String {
    let mut w = JsonWriter::new();
    w.open_object();
    w.u64_field("vertex", p as u64);
    w.u64_field("alpha", (p / fx.n_b) as u64);
    w.u64_field("beta", (p % fx.n_b) as u64);
    w.u64_field("degree", fx.truth.mat.degree(p) as u64);
    w.u64_field("squares", squares);
    w.close_object();
    w.finish()
}

/// Differential comparator: serve every vertex and return the indices
/// whose body differs from the brute-force expectation. The happy path
/// asserts this is empty; the failure-injection test asserts a perturbed
/// expectation is *caught* (a comparator that can't fail proves nothing).
fn diff_vertices(fx: &Fixture, expected_squares: &[u64]) -> Vec<usize> {
    (0..fx.truth.mat.num_vertices())
        .filter(|&p| {
            let resp = fx.state.handle(&get(&format!("/v1/vertex/{p}")));
            resp.status != 200 || resp.body != expected_vertex_body(fx, p, expected_squares[p])
        })
        .collect()
}

#[test]
fn every_vertex_matches_materialized_truth() {
    for fx in fixtures() {
        assert_eq!(
            diff_vertices(&fx, &fx.truth.squares_vertex),
            Vec::<usize>::new()
        );
    }
}

#[test]
fn comparator_detects_an_injected_wrong_count() {
    // analytics::buggy-style failure injection: an off-by-one in a single
    // vertex's count must surface as exactly that vertex differing.
    let fx = &fixtures()[0];
    let victim = (0..fx.truth.squares_vertex.len())
        .max_by_key(|&p| fx.truth.squares_vertex[p])
        .unwrap();
    let mut wrong = fx.truth.squares_vertex.clone();
    wrong[victim] += 1;
    assert_eq!(diff_vertices(fx, &wrong), vec![victim]);
}

#[test]
fn every_ordered_pair_matches_materialized_truth() {
    for fx in &fixtures() {
        fx.truth
            .check_every_ordered_pair(&fx.state, fx.state.expr());
    }
}

#[test]
fn every_neighbors_page_matches_materialized_truth() {
    for fx in &fixtures() {
        fx.truth
            .check_every_neighbors_page(&fx.state, fx.state.expr());
    }
}

#[test]
fn edge_stream_pages_cover_exactly_the_materialized_edge_set() {
    for fx in fixtures() {
        for parts in [1usize, 3] {
            let mut streamed: Vec<(usize, usize)> = Vec::new();
            for part in 0..parts {
                let mut offset = 0u64;
                loop {
                    let resp = fx.state.handle(&get(&format!(
                        "/v1/edges/{part}/{parts}?offset={offset}&limit=7"
                    )));
                    assert_eq!(resp.status, 200);
                    // `edges` is the body's final field: an array of
                    // two-element arrays. Each `split('[')` piece past the
                    // first holds one pair, terminated by its inner `]`.
                    let tail = resp.body.split("\"edges\": [").nth(1).unwrap();
                    let mut count = 0u64;
                    for piece in tail.split('[').skip(1) {
                        let nums: Vec<usize> = piece
                            .split(']')
                            .next()
                            .unwrap()
                            .split(|c: char| !c.is_ascii_digit())
                            .filter(|s| !s.is_empty())
                            .map(|s| s.parse().unwrap())
                            .collect();
                        assert_eq!(nums.len(), 2, "malformed edge pair in {piece:?}");
                        streamed.push((nums[0].min(nums[1]), nums[0].max(nums[1])));
                        count += 1;
                    }
                    if resp.body.contains("\"next_offset\": null") {
                        break;
                    }
                    offset += count;
                }
            }
            streamed.sort_unstable();
            let mut expected: Vec<(usize, usize)> = fx
                .truth
                .mat
                .edges()
                .map(|(u, v)| (u.min(v), u.max(v)))
                .collect();
            expected.sort_unstable();
            assert_eq!(streamed, expected, "edge stream with {parts} part(s)");
        }
    }
}

/// Build the batch request body and the byte-expected response — the
/// single-endpoint bodies (trailing newline trimmed) as one JSON array.
fn batch_case(fx: &Fixture) -> (String, String) {
    let n = fx.truth.mat.num_vertices();
    let mut lines = Vec::new();
    let mut singles = Vec::new();
    for p in 0..n.min(6) {
        lines.push(format!("vertex {p}"));
        singles.push(expected_vertex_body(fx, p, fx.truth.squares_vertex[p]));
        lines.push(format!("edge {p} {}", (p + 1) % n));
        singles.push(fx.truth.edge_body(p, (p + 1) % n));
        lines.push(format!("neighbors {p} 0 3"));
        singles.push(fx.truth.neighbors_body(p, 0, 3));
    }
    let body = lines.join("\n") + "\n";
    let expected = format!(
        "[\n{}\n]\n",
        singles
            .iter()
            .map(|s| s.trim_end())
            .collect::<Vec<_>>()
            .join(",\n")
    );
    (body, expected)
}

#[test]
fn batch_equals_sequence_of_singles_cached_and_uncached() {
    // fixtures()[0] has the cache on, [1] has it off; run each twice so
    // the cached state answers once cold and once from the cache — all
    // four responses must be byte-identical to the materialised truth.
    for fx in fixtures().iter().take(2) {
        let (body, expected) = batch_case(fx);
        for round in 0..2 {
            let resp = fx.state.handle(&post("/v1/batch", &body));
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body, expected, "batch diverged on round {round}");
        }
    }
}

/// The exact `/v1/stats` body of a cold pair server, every product field
/// recounted on the materialised graph: sizes, bipartiteness and side
/// sizes, connectivity, components, enumerated 4-cycles, maximum degree
/// and the number of distinct degrees.
fn expected_stats_body(fx: &Fixture) -> String {
    let mat = &fx.truth.mat;
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
    let (mode, expr) = match fx.mode {
        SelfLoopMode::None => ("none", "A⊗B"),
        SelfLoopMode::FactorA => ("loops-a", "(A+I)⊗B"),
    };
    w.string_field("mode", mode);
    w.string_field("expr", expr);
    for (key, g) in [("factor_a", &fx.a), ("factor_b", &fx.b)] {
        w.key(key);
        w.open_object();
        w.u64_field("vertices", g.num_vertices() as u64);
        w.u64_field("edges", g.num_edges() as u64);
        w.close_object();
    }
    w.u64_field("vertices", mat.num_vertices() as u64);
    w.u64_field("edges", mat.num_edges() as u64);
    let bip = bipartition(mat);
    w.bool_field("bipartite", bip.is_some());
    match &bip {
        Some(bip) => {
            w.u64_field("part_u", bip.u_len() as u64);
            w.u64_field("part_w", bip.w_len() as u64);
        }
        None => {
            w.null_field("part_u");
            w.null_field("part_w");
        }
    }
    let components = connected_components(mat).count;
    w.bool_field("connected", components == 1);
    w.u64_field("components", components as u64);
    w.u64_field(
        "global_squares",
        fx.truth.squares_vertex.iter().sum::<u64>() / 4,
    );
    w.u64_field("max_degree", mat.max_degree() as u64);
    let degrees: BTreeSet<usize> = (0..mat.num_vertices()).map(|p| mat.degree(p)).collect();
    w.u64_field("distinct_degrees", degrees.len() as u64);
    w.string_field("snapshot", "cold");
    w.close_object();
    w.finish()
}

#[test]
fn stats_body_matches_materialized_recount() {
    for fx in &fixtures() {
        // Every fixture is connected, so the materialised bipartition is
        // unique up to a swap and its side sizes are a fair recount.
        assert_eq!(connected_components(&fx.truth.mat).count, 1);
        // Built once at start-up: every request gets the same body.
        for _ in 0..2 {
            let resp = fx.state.handle(&get("/v1/stats"));
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body, expected_stats_body(fx));
        }
    }
}

/// `Γ(i,j) = ◇_ij / ((d_i − 1)(d_j − 1))` on a factor edge, from a
/// direct butterfly count on the factor.
fn factor_gamma_direct(g: &Graph, i: usize, j: usize) -> f64 {
    let s = butterflies_per_edge(g).get(i, j).expect("factor edge");
    s as f64 / ((g.degree(i) as i128 - 1) * (g.degree(j) as i128 - 1)) as f64
}

/// The exact `/v1/clustering/{p}/{q}` body: Γ from the materialised
/// recount, and the Thm 6 bound `ψ·Γ_A·Γ_B` from the factors wherever
/// the theorem's hypotheses hold (mode `None`, a product edge, every
/// factor endpoint degree ≥ 2).
fn expected_clustering_body(fx: &Fixture, p: usize, q: usize) -> String {
    let squares = fx.truth.squares_edge.get(p, q);
    let (dp, dq) = (
        fx.truth.mat.degree(p) as i128,
        fx.truth.mat.degree(q) as i128,
    );
    let gamma = squares.and_then(|s| {
        let denom = (dp - 1) * (dq - 1);
        (denom > 0).then(|| s as f64 / denom as f64)
    });
    let (i, k) = (p / fx.n_b, p % fx.n_b);
    let (j, l) = (q / fx.n_b, q % fx.n_b);
    let deg = |g: &Graph, v: usize| g.degree(v) as i128;
    let (di, dj, dk, dl) = (deg(&fx.a, i), deg(&fx.a, j), deg(&fx.b, k), deg(&fx.b, l));
    let thm6 = fx.mode == SelfLoopMode::None
        && gamma.is_some()
        && [di, dj, dk, dl].iter().all(|&d| d >= 2);
    let (bound, psi) = if thm6 {
        let psi = ((di - 1) * (dk - 1) * (dj - 1) * (dl - 1)) as f64
            / ((di * dk - 1) * (dj * dl - 1)) as f64;
        let bound = psi * factor_gamma_direct(&fx.a, i, j) * factor_gamma_direct(&fx.b, k, l);
        (Some(bound), Some(psi))
    } else {
        (None, None)
    };
    let mut w = JsonWriter::new();
    w.open_object();
    w.u64_field("p", p as u64);
    w.u64_field("q", q as u64);
    w.bool_field("edge", squares.is_some());
    w.u64_field("degree_p", dp as u64);
    w.u64_field("degree_q", dq as u64);
    match squares {
        Some(s) => w.u64_field("squares", s),
        None => w.null_field("squares"),
    }
    for (key, value) in [("gamma", gamma), ("bound", bound), ("psi", psi)] {
        match value {
            Some(v) => w.f64_field(key, v),
            None => w.null_field(key),
        }
    }
    w.close_object();
    w.finish()
}

#[test]
fn every_clustering_pair_matches_materialized_truth() {
    let mut bounds = 0usize;
    for fx in &fixtures() {
        let n = fx.truth.mat.num_vertices();
        for p in 0..n {
            for q in 0..n {
                let resp = fx.state.handle(&get(&format!("/v1/clustering/{p}/{q}")));
                assert_eq!(resp.status, 200);
                let expected = expected_clustering_body(fx, p, q);
                assert_eq!(resp.body, expected, "clustering diverged at ({p}, {q})");
                bounds += usize::from(!expected.contains("\"bound\": null"));
            }
        }
    }
    // The bare fixture satisfies Thm 6's hypotheses: the bound side of
    // the comparison must actually have been exercised.
    assert!(bounds > 0, "no Thm 6 bound was compared");
}

/// Brute-force `/v1/community` counts for `S = S_A × S_B` on the
/// materialised product: `(|S|, m_in, m_out, ρ_in, ρ_out)`, the
/// densities per Def. 11 relative to the product's bipartition (`None`
/// when the product is not bipartite or a denominator vanishes).
fn community_recount(
    fx: &Fixture,
    set_a: &[usize],
    set_b: &[usize],
) -> (u64, u64, u64, Option<f64>, Option<f64>) {
    let member = |p: usize| set_a.contains(&(p / fx.n_b)) && set_b.contains(&(p % fx.n_b));
    let (mut size, mut m_in2, mut m_out) = (0u64, 0u64, 0u64);
    for p in (0..fx.truth.mat.num_vertices()).filter(|&p| member(p)) {
        size += 1;
        for &q in fx.truth.mat.neighbors(p) {
            if member(q) {
                m_in2 += 1;
            } else {
                m_out += 1;
            }
        }
    }
    let m_in = m_in2 / 2;
    let densities = bipartition(&fx.truth.mat).map(|bip| {
        let r = bip.u.iter().filter(|&&p| member(p)).count() as u64;
        let t = size - r;
        let (u, w) = (bip.u_len() as u64, bip.w_len() as u64);
        let rho_in = (r * t > 0).then(|| m_in as f64 / (r * t) as f64);
        let denom = r * w + u * t - 2 * r * t;
        let rho_out = (denom > 0).then(|| m_out as f64 / denom as f64);
        (rho_in, rho_out)
    });
    let (rho_in, rho_out) = densities.unwrap_or((None, None));
    (size, m_in, m_out, rho_in, rho_out)
}

#[test]
fn community_bodies_match_materialized_truth() {
    for fx in &fixtures() {
        let (na, nb) = (fx.a.num_vertices(), fx.b.num_vertices());
        let bipartite_factors = bipartition(&fx.a).is_some() && bipartition(&fx.b).is_some();
        let choices: Vec<(Vec<usize>, Vec<usize>)> = vec![
            (vec![0], vec![0]),
            (
                (0..na).step_by(2).collect(),
                (0..nb).skip(1).step_by(2).collect(),
            ),
            (vec![0, 3], vec![1, 2, 4]),
            ((0..na).collect(), (0..nb).collect()),
        ];
        for (set_a, set_b) in choices {
            let join = |s: &[usize]| s.iter().map(usize::to_string).collect::<Vec<_>>().join(",");
            let path = format!("/v1/community?a={}&b={}", join(&set_a), join(&set_b));
            let resp = fx.state.handle(&get(&path));
            assert_eq!(resp.status, 200, "{path}: {}", resp.body);
            let body = &resp.body;
            let (size, m_in, m_out, rho_in, rho_out) = community_recount(fx, &set_a, &set_b);
            let head = format!(
                "{{\n  \"theorem\": \"thm7\",\n  \"size\": {size},\n  \
                 \"m_in\": {m_in},\n  \"m_out\": {m_out},\n"
            );
            assert!(body.starts_with(&head), "{path}: {body}");
            let lower = field_f64(body, "rho_in_lower_bound");
            let upper = field_f64(body, "rho_out_upper_bound");
            if !bipartite_factors {
                // Cor 1–2 are statements about bipartite factors.
                assert_eq!(
                    (field_f64(body, "rho_in"), lower, upper),
                    (None, None, None),
                    "{path}: {body}"
                );
                continue;
            }
            // ρ_in is exact: the same division over recounted integers.
            assert_eq!(field_f64(body, "rho_in"), rho_in, "{path}: {body}");
            if let (Some(rho), Some(lo)) = (rho_in, lower) {
                assert!(lo <= rho + 1e-12, "Cor 1 violated on {path}: {body}");
            }
            if let (Some(rho), Some(hi)) = (rho_out, upper) {
                assert!(rho <= hi + 1e-12, "Cor 2 violated on {path}: {body}");
            }
        }
    }
    // Sets straddling both sides of two bipartite factors define every
    // density field.
    let fx = &fixtures()[3];
    let body = fx.state.handle(&get("/v1/community?a=0,3&b=1,2,4")).body;
    for key in ["rho_in", "rho_in_lower_bound", "rho_out_upper_bound"] {
        assert!(field_f64(&body, key).is_some(), "{key} is null: {body}");
    }
}

#[test]
fn community_errors_keep_their_status_and_text() {
    let fx = &fixtures()[0];
    let cases = [
        (
            "/v1/community",
            400,
            "community requires ?a=<ids>&b=<ids> (comma-separated factor vertices)",
        ),
        (
            "/v1/community?a=0,1",
            400,
            "community requires ?a=<ids>&b=<ids>",
        ),
        ("/v1/community?a=zero&b=0", 400, "a has a non-integer id"),
        ("/v1/community?a=&b=0", 400, "a is an empty set"),
        ("/v1/community?a=0&b=", 400, "b is an empty set"),
        (
            "/v1/community?a=99&b=0",
            404,
            "a contains a vertex outside factor A",
        ),
        (
            "/v1/community?a=0&b=99",
            404,
            "b contains a vertex outside factor B",
        ),
        (
            "/v1/community?a=99&b=99",
            404,
            "a contains a vertex outside factor A",
        ),
    ];
    for (path, status, text) in cases {
        let resp = fx.state.handle(&get(path));
        assert_eq!(resp.status, status, "{path}: {}", resp.body);
        assert!(resp.body.contains(text), "{path}: {}", resp.body);
    }
}

#[test]
fn scatter_pages_match_materialized_truth() {
    for fx in &fixtures() {
        fx.truth.check_scatter_pages(&fx.state, fx.state.expr());
    }
}
