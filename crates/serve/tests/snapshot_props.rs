//! Round-trip property tests for the `bikron-snap/1` snapshot format.
//!
//! Two claims carry the warm-start design:
//!
//! 1. **Codec fidelity** — `decode(encode(s))` reproduces every field of
//!    the snapshot exactly (graphs, stats, stats body, cache entries),
//!    and re-encoding the decoded value is byte-identical. Nothing in
//!    the pipeline may be lossy, or a warm boot would serve different
//!    answers than the process that wrote the file.
//! 2. **Warm ≡ cold** — a server rebuilt from a snapshot answers every
//!    `/v1/*` endpoint with bodies byte-identical to a cold boot of the
//!    same spec. The *only* sanctioned difference is the `"snapshot"`
//!    provenance field in `/v1/stats` (`warm` vs `cold`), injected at a
//!    single point at boot.
//!
//! Both are checked over random factor graphs (proptest) for the pair
//! backend, and over a fixed-but-nontrivial program for the expression
//! backend.

use std::sync::Arc;

use bikron_core::SelfLoopMode;
use bikron_graph::Graph;
use bikron_serve::snapshot::Snapshot;
use bikron_serve::{CacheKey, ServeOptions, ServeState};
use proptest::prelude::*;

/// Parse one GET into the router's request type.
fn get(path: &str) -> bikron_serve::http::Request {
    let raw = format!("GET {path} HTTP/1.1\r\n\r\n");
    bikron_serve::http::parse_request(&mut std::io::BufReader::new(raw.as_bytes())).unwrap()
}

/// A random simple graph: `n` vertices, ≥ 1 edge, no self-loops.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..7).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 1..14).prop_map(move |pairs| {
            let mut edges: Vec<(usize, usize)> =
                pairs.into_iter().filter(|(u, v)| u != v).collect();
            if edges.is_empty() {
                edges.push((0, 1));
            }
            Graph::from_edges(n, &edges).expect("edges are in range")
        })
    })
}

fn arb_mode() -> impl Strategy<Value = SelfLoopMode> {
    prop_oneof![Just(SelfLoopMode::None), Just(SelfLoopMode::FactorA)]
}

/// The endpoint sweep both servers answer; covers every read route.
fn probe_paths(n: usize) -> Vec<String> {
    let mut paths = vec![
        "/v1/stats".to_string(),
        "/v1/scatter/degree-squares?limit=16".to_string(),
        "/v1/edges/0/1?limit=32".to_string(),
        "/v1/community?a=0,1&b=0".to_string(),
        format!("/v1/vertex/{n}"), // out of range: 404 bodies must match too
    ];
    for p in 0..n.min(8) {
        paths.push(format!("/v1/vertex/{p}"));
        paths.push(format!("/v1/neighbors/{p}?limit=8"));
        paths.push(format!("/v1/edge/{p}/{}", (p + 1) % n));
        paths.push(format!("/v1/clustering/{p}/{}", (p + 1) % n));
    }
    paths
}

/// Warm `/v1/stats` bodies differ from cold ones in exactly the
/// provenance field; normalise it away before comparing.
fn normalize(body: &str) -> String {
    body.replace("\"snapshot\": \"warm\"", "\"snapshot\": \"cold\"")
}

/// Drive the full probe sweep against a state, returning `(path, status,
/// body)` rows.
fn sweep(state: &ServeState) -> Vec<(String, u16, String)> {
    probe_paths(state.num_vertices())
        .into_iter()
        .map(|p| {
            let resp = state.handle(&get(&p));
            (p, resp.status, resp.body)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Codec fidelity over random pair servers: every field survives
    /// encode→decode, and the decoded value re-encodes byte-identically.
    #[test]
    fn pair_snapshot_round_trips_exactly(
        a in arb_graph(),
        b in arb_graph(),
        mode in arb_mode(),
    ) {
        let state = ServeState::build_with(
            a.clone(), b.clone(), mode, ServeOptions::default(),
        ).expect("cold build");
        // Touch a spread of endpoints so the cache holds real entries.
        for row in sweep(&state) {
            let _ = row;
        }
        let snap = state.to_snapshot(64);
        let bytes = snap.encode();
        let decoded = Snapshot::decode(&bytes).expect("decode own encoding");

        prop_assert_eq!(&decoded.expr, &snap.expr);
        prop_assert_eq!(decoded.shard, snap.shard);
        prop_assert_eq!(&decoded.stats_json, &snap.stats_json);
        prop_assert_eq!(decoded.cache.len(), snap.cache.len());
        for ((k1, b1), (k2, b2)) in decoded.cache.iter().zip(snap.cache.iter()) {
            prop_assert_eq!(k1, k2);
            prop_assert_eq!(b1.as_str(), b2.as_str());
        }
        match (&decoded, &snap) {
            (
                Snapshot { pair: true, bindings: dbind, levels: dl, .. },
                Snapshot { pair: true, bindings: sbind, levels: sl, .. },
            ) => {
                let ([(_, da, dsa), (_, db, dsb)], [(_, sa, ssa), (_, sb, ssb)]) =
                    (&dbind[..], &sbind[..]) else { panic!("pair snapshots bind A and B") };
                let (dm, sm) = (dl[0].1, sl[0].1);
                prop_assert_eq!(da, sa);
                prop_assert_eq!(db, sb);
                prop_assert_eq!(dm, sm);
                prop_assert_eq!(dsa, ssa);
                prop_assert_eq!(dsb, ssb);
            }
            _ => prop_assert!(false, "backend kind changed in round-trip"),
        }
        // Byte-identity: the decoded snapshot re-encodes to the same file.
        prop_assert_eq!(decoded.encode(), bytes);
        // And the snapshot passes validation against its own spec.
        prop_assert!(decoded.validate_pair(&a, &b, mode).is_ok());
    }

    /// Warm ≡ cold over random pair servers: byte-identical bodies on
    /// every endpoint, modulo only the `/v1/stats` provenance field.
    #[test]
    fn warm_boot_serves_byte_identical_bodies(
        a in arb_graph(),
        b in arb_graph(),
        mode in arb_mode(),
    ) {
        let cold = ServeState::build_with(
            a, b, mode, ServeOptions::default(),
        ).expect("cold build");
        let cold_rows = sweep(&cold);

        let bytes = cold.to_snapshot(64).encode();
        let snap = Snapshot::decode(&bytes).expect("decode");
        let (warm, info) = ServeState::build_from_snapshot(snap, ServeOptions::default())
            .expect("warm build");
        prop_assert!(info.load_ns > 0);

        // The cold sweep populated the cache; the warm boot restored it.
        let restored = warm.cache().map_or(0, |c| c.len());
        prop_assert_eq!(restored, info.cache_entries_restored);
        prop_assert!(restored > 0, "warm server restored no cache entries");

        let warm_rows = sweep(&warm);
        prop_assert_eq!(cold_rows.len(), warm_rows.len());
        for ((path, cs, cb), (_, ws, wb)) in cold_rows.iter().zip(warm_rows.iter()) {
            prop_assert_eq!(cs, ws, "status diverged on {}", path);
            prop_assert_eq!(
                normalize(cb), normalize(wb),
                "body diverged on {}", path
            );
        }
        // The provenance fields themselves read as designed.
        let cold_stats = cold.handle(&get("/v1/stats")).body;
        let warm_stats = warm.handle(&get("/v1/stats")).body;
        prop_assert!(cold_stats.contains("\"snapshot\": \"cold\""));
        prop_assert!(warm_stats.contains("\"snapshot\": \"warm\""));
    }
}

/// A representative expression server for the chain-backend round trip:
/// three levels, a repeated atom, and a `+ I` lift.
fn chain_state() -> ServeState {
    let bindings = vec![
        (
            "A".to_string(),
            Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap(),
        ),
        (
            "B".to_string(),
            Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap(),
        ),
    ];
    let levels = vec![
        ("A".to_string(), true),
        ("B".to_string(), false),
        ("A".to_string(), false),
    ];
    ServeState::build_expr(bindings, &levels, ServeOptions::default()).expect("chain build")
}

#[test]
fn chain_snapshot_round_trips_and_boots_identically() {
    let cold = chain_state();
    let cold_rows = sweep(&cold);

    let snap = cold.to_snapshot(64);
    let bytes = snap.encode();
    let decoded = Snapshot::decode(&bytes).expect("decode");
    assert_eq!(decoded.expr, snap.expr);
    match (&decoded, &snap) {
        (
            Snapshot {
                pair: false,
                bindings: db,
                levels: dl,
                ..
            },
            Snapshot {
                pair: false,
                bindings: sb,
                levels: sl,
                ..
            },
        ) => {
            assert_eq!(dl, sl);
            assert_eq!(db.len(), sb.len());
            for ((n1, g1, s1), (n2, g2, s2)) in db.iter().zip(sb.iter()) {
                assert_eq!(n1, n2);
                assert_eq!(g1, g2);
                assert_eq!(s1, s2);
            }
        }
        _ => panic!("backend kind changed in round-trip"),
    }
    assert_eq!(decoded.encode(), bytes);

    let (warm, info) =
        ServeState::build_from_snapshot(decoded, ServeOptions::default()).expect("warm build");
    assert!(info.load_ns > 0);
    let warm_rows = sweep(&warm);
    for ((path, cs, cb), (_, ws, wb)) in cold_rows.iter().zip(warm_rows.iter()) {
        assert_eq!(cs, ws, "status diverged on {path}");
        assert_eq!(normalize(cb), normalize(wb), "body diverged on {path}");
    }
}

/// Sharded restore keeps only entries the shard can answer again:
/// vertex-keyed entries owned elsewhere are dropped, scatter pages kept.
#[test]
fn shard_restore_filters_foreign_entries() {
    let a = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
    let b = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    let full = ServeState::build_with(
        a.clone(),
        b.clone(),
        SelfLoopMode::None,
        ServeOptions::default(),
    )
    .unwrap();
    let n = full.num_vertices();
    let mut snap = full.to_snapshot(0);
    // Hand-build a working set covering every vertex plus a scatter page.
    snap.cache = (0..n)
        .map(|p| (CacheKey::Vertex(p), Arc::new(format!("body{p}"))))
        .chain([(CacheKey::Scatter(0, 8), Arc::new("scatter".to_string()))])
        .collect();
    snap.shard = Some((0, 2));

    let (warm, info) = ServeState::build_from_snapshot(
        snap,
        ServeOptions {
            shard: Some((0, 2)),
            ..ServeOptions::default()
        },
    )
    .expect("warm shard build");
    let cache = warm.cache().expect("cache enabled");
    // Shard 0 of 2 owns the first ⌈n/2⌉ vertices; plus the scatter page.
    let owned = (0..n)
        .filter(|&p| bikron_core::partition::owner_of(n, 2, p) == 0)
        .count();
    assert_eq!(info.cache_entries_restored, owned + 1);
    assert_eq!(cache.len(), owned + 1);
    for p in 0..n {
        let hit = cache.get(&CacheKey::Vertex(p)).is_some();
        assert_eq!(
            hit,
            bikron_core::partition::owner_of(n, 2, p) == 0,
            "vertex {p}"
        );
    }
    assert!(cache.get(&CacheKey::Scatter(0, 8)).is_some());
}

/// `write_to` / `read_from` survive the filesystem, and the temp file
/// used for atomic replacement is cleaned up.
#[test]
fn snapshot_file_round_trip() {
    let state = chain_state();
    let snap = state.to_snapshot(16);
    let dir = std::env::temp_dir().join(format!("bikron-snap-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.snap");
    let path_str = path.to_str().unwrap();

    snap.write_to(path_str).expect("write");
    assert!(!std::path::Path::new(&format!("{path_str}.tmp")).exists());
    let loaded = Snapshot::read_from(path_str).expect("read");
    assert_eq!(loaded.encode(), snap.encode());

    std::fs::remove_dir_all(&dir).unwrap();
}
