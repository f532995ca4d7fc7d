//! The `bikron-snap/1` snapshot format: persistence for warm restarts.
//!
//! A snapshot captures everything a server computed at boot that is
//! expensive or order-sensitive — the factor graphs, their
//! [`FactorStats`], the cached `/v1/stats` body (which embeds the
//! structure predictions and degree histogram on pair servers), and
//! optionally the hottest result-cache entries — so a
//! restart rebuilds [`crate::ServeState`] by *decoding* instead of
//! *recomputing*, and boots with a warm working set.
//!
//! ## Layout
//!
//! ```text
//! magic    8 bytes  b"BIKRSNAP"
//! version  u64 LE   1
//! section × 4, in fixed order:
//!   tag      u64 LE   1=META 2=FACTORS 3=STATS_JSON 4=CACHE
//!   len      u64 LE   payload byte length
//!   payload  len bytes
//!   checksum u64 LE   FNV-1a over the payload
//! ```
//!
//! Per DESIGN.md §9.1 the schema version is strict: a reader never
//! guesses at unknown versions (`UnsupportedVersion`), every section is
//! sealed by its own checksum (`ChecksumMismatch` names the section),
//! and a snapshot embeds the canonical expression it was taken for —
//! loading it under a different program is an `ExpressionMismatch`, and
//! matching expressions with different factor *graphs* (same names,
//! different edges) is a `FactorMismatch`. All decode failures are named
//! errors; none panic.

use std::fmt;
use std::sync::Arc;

use bikron_core::snap::{put_factor_stats, put_graph, read_factor_stats, read_graph};
use bikron_core::truth::FactorStats;
use bikron_core::{canonical_expr, SelfLoopMode};
use bikron_graph::Graph;
use bikron_sparse::snap::{fnv1a, put_str, put_u64, ByteReader, SnapError};

use crate::cache::CacheKey;
use crate::state::pair_levels;

/// Leading magic bytes of every snapshot file.
pub const MAGIC: &[u8; 8] = b"BIKRSNAP";
/// The schema version this build reads and writes.
pub const VERSION: u64 = 1;
/// Schema identifier advertised in logs and docs.
pub const SCHEMA: &str = "bikron-snap/1";
/// Default number of hottest cache entries harvested into a snapshot.
pub const DEFAULT_CACHE_TOP_K: usize = 4096;

const TAG_META: u64 = 1;
const TAG_FACTORS: u64 = 2;
const TAG_STATS_JSON: u64 = 3;
const TAG_CACHE: u64 = 4;

/// Why a snapshot could not be written, read, or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem failure while reading or writing the snapshot file.
    Io(String),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    WrongMagic,
    /// The file declares a schema version this build does not speak.
    UnsupportedVersion(u64),
    /// The file ended inside the named structure.
    Truncated(&'static str),
    /// The named section's FNV-1a checksum did not match its payload.
    ChecksumMismatch(&'static str),
    /// Framing was intact but the decoded content is invalid.
    Corrupt(String),
    /// The snapshot was taken for a different canonical expression.
    ExpressionMismatch {
        /// Expression recorded in the snapshot.
        snapshot: String,
        /// Expression the server was asked to boot.
        requested: String,
    },
    /// Expressions agree but a factor graph differs from the served spec.
    FactorMismatch(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            SnapshotError::WrongMagic => {
                write!(f, "not a {SCHEMA} snapshot (bad magic)")
            }
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "snapshot schema version {v} unsupported (this build reads {VERSION})"
                )
            }
            SnapshotError::Truncated(what) => {
                write!(f, "snapshot truncated while reading {what}")
            }
            SnapshotError::ChecksumMismatch(section) => {
                write!(f, "snapshot section {section} failed its checksum")
            }
            SnapshotError::Corrupt(msg) => write!(f, "snapshot corrupt: {msg}"),
            SnapshotError::ExpressionMismatch {
                snapshot,
                requested,
            } => write!(
                f,
                "snapshot was taken for '{snapshot}' but the server is booting '{requested}'"
            ),
            SnapshotError::FactorMismatch(msg) => {
                write!(f, "snapshot factor mismatch: {msg}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl SnapshotError {
    fn from_snap(e: SnapError) -> Self {
        match e {
            SnapError::Truncated { what } => SnapshotError::Truncated(what),
            SnapError::Malformed(msg) => SnapshotError::Corrupt(msg),
        }
    }
}

/// An in-memory snapshot: the decoded form of a `bikron-snap/1` file.
pub struct Snapshot {
    /// Canonical expression the snapshot was taken for.
    pub expr: String,
    /// The `--shard I/N` configuration at capture time, if any.
    pub shard: Option<(usize, usize)>,
    /// Taken on a pair server (backend kind 0 on disk): the program is
    /// `A⊗B` / `(A+I)⊗B` over atoms `A`, `B`, rendered with the pair
    /// surface. Expression servers write kind 1. When set, `levels` must
    /// be `pair_levels(lifted)`: kind 0 stores only A's lift.
    pub pair: bool,
    /// Named atoms with their precomputed stats, in binding order.
    pub bindings: Vec<(String, Graph, FactorStats)>,
    /// Ordered `(name, plus_identity)` level spec.
    pub levels: Vec<(String, bool)>,
    /// The cached `/v1/stats` body *without* its `"snapshot"` field
    /// (the boot path injects `warm`/`cold` uniformly).
    pub stats_json: String,
    /// Hottest result-cache entries, most-recently-used first.
    pub cache: Vec<(CacheKey, Arc<String>)>,
}

fn put_section(buf: &mut Vec<u8>, tag: u64, payload: &[u8]) {
    put_u64(buf, tag);
    put_u64(buf, payload.len() as u64);
    buf.extend_from_slice(payload);
    put_u64(buf, fnv1a(payload));
}

/// Read one `tag/len/payload/checksum` frame, verifying tag order and
/// the payload seal.
fn read_section<'a>(
    r: &mut ByteReader<'a>,
    expect_tag: u64,
    name: &'static str,
) -> Result<&'a [u8], SnapshotError> {
    let tag = r.u64(name).map_err(SnapshotError::from_snap)?;
    if tag != expect_tag {
        return Err(SnapshotError::Corrupt(format!(
            "expected section {name} (tag {expect_tag}), found tag {tag}"
        )));
    }
    let len = r.len(name).map_err(SnapshotError::from_snap)?;
    if len > r.remaining() {
        return Err(SnapshotError::Truncated(name));
    }
    let payload = r.take(len, name).map_err(SnapshotError::from_snap)?;
    let sum = r.u64(name).map_err(|_| SnapshotError::Truncated(name))?;
    if sum != fnv1a(payload) {
        return Err(SnapshotError::ChecksumMismatch(name));
    }
    Ok(payload)
}

fn put_cache_key(buf: &mut Vec<u8>, key: &CacheKey) {
    let (words, n) = key.words();
    for &w in &words[..n] {
        put_u64(buf, w);
    }
}

fn read_cache_key(r: &mut ByteReader<'_>) -> Result<CacheKey, SnapshotError> {
    const W: &str = "CACHE key";
    let nz = |e: SnapError| SnapshotError::from_snap(e);
    let tag = r.u64(W).map_err(nz)?;
    Ok(match tag {
        1 => CacheKey::Vertex(r.len(W).map_err(nz)?),
        2 => CacheKey::Edge(r.len(W).map_err(nz)?, r.len(W).map_err(nz)?),
        3 => CacheKey::Neighbors(
            r.len(W).map_err(nz)?,
            r.u64(W).map_err(nz)?,
            r.len(W).map_err(nz)?,
        ),
        4 => CacheKey::Clustering(r.len(W).map_err(nz)?, r.len(W).map_err(nz)?),
        5 => CacheKey::Scatter(r.u64(W).map_err(nz)?, r.len(W).map_err(nz)?),
        other => {
            return Err(SnapshotError::Corrupt(format!(
                "unknown cache key tag {other}"
            )))
        }
    })
}

impl Snapshot {
    /// Serialize to the on-disk `bikron-snap/1` byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut meta = Vec::new();
        put_str(&mut meta, &self.expr);
        match self.shard {
            Some((index, count)) => {
                put_u64(&mut meta, 1);
                put_u64(&mut meta, index as u64);
                put_u64(&mut meta, count as u64);
            }
            None => put_u64(&mut meta, 0),
        }
        if self.pair {
            // Kind 0 records only A's lift: the levels are always A, B.
            let lifted = self.levels[0].1;
            debug_assert_eq!(self.levels, pair_levels(lifted), "pair levels are A, B");
            put_u64(&mut meta, 0);
            put_u64(&mut meta, u64::from(lifted));
        } else {
            put_u64(&mut meta, 1);
            put_u64(&mut meta, self.levels.len() as u64);
            for (name, plus_identity) in &self.levels {
                put_str(&mut meta, name);
                put_u64(&mut meta, u64::from(*plus_identity));
            }
        }
        let mut factors = Vec::new();
        put_u64(&mut factors, self.bindings.len() as u64);
        for (name, g, s) in &self.bindings {
            put_str(&mut factors, name);
            put_graph(&mut factors, g);
            put_factor_stats(&mut factors, s);
        }

        let mut cache = Vec::new();
        put_u64(&mut cache, self.cache.len() as u64);
        for (key, body) in &self.cache {
            put_cache_key(&mut cache, key);
            put_str(&mut cache, body);
        }

        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u64(&mut out, VERSION);
        put_section(&mut out, TAG_META, &meta);
        put_section(&mut out, TAG_FACTORS, &factors);
        put_section(&mut out, TAG_STATS_JSON, self.stats_json.as_bytes());
        put_section(&mut out, TAG_CACHE, &cache);
        out
    }

    /// Decode and fully validate a `bikron-snap/1` byte stream.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < MAGIC.len() {
            return Err(SnapshotError::Truncated("magic"));
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::WrongMagic);
        }
        let mut r = ByteReader::new(&bytes[MAGIC.len()..]);
        let version = r.u64("version").map_err(SnapshotError::from_snap)?;
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }

        let meta = read_section(&mut r, TAG_META, "META")?;
        let factors = read_section(&mut r, TAG_FACTORS, "FACTORS")?;
        let stats_json = read_section(&mut r, TAG_STATS_JSON, "STATS_JSON")?;
        let cache_bytes = read_section(&mut r, TAG_CACHE, "CACHE")?;
        if !r.is_empty() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after the CACHE section",
                r.remaining()
            )));
        }

        // META: expr, shard, backend kind + kind-specific spec.
        let mut m = ByteReader::new(meta);
        let nz = SnapshotError::from_snap;
        let expr = m.str_("META expr").map_err(nz)?;
        let shard = match m.u64("META shard flag").map_err(nz)? {
            0 => None,
            1 => {
                let index = m.len("META shard index").map_err(nz)?;
                let count = m.len("META shard count").map_err(nz)?;
                if count == 0 || index >= count {
                    return Err(SnapshotError::Corrupt(format!(
                        "shard {index}/{count} is invalid"
                    )));
                }
                Some((index, count))
            }
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "META shard flag must be 0 or 1, found {other}"
                )))
            }
        };
        let kind = m.u64("META backend kind").map_err(nz)?;

        // FACTORS: named (graph, stats) atoms, validated on decode.
        let mut fr = ByteReader::new(factors);
        let count = fr.len("FACTORS count").map_err(nz)?;
        if count > 64 {
            return Err(SnapshotError::Corrupt(format!(
                "{count} factors exceeds the chain level bound"
            )));
        }
        let mut atoms = Vec::with_capacity(count);
        for _ in 0..count {
            let name = fr.str_("FACTORS name").map_err(nz)?;
            let g = read_graph(&mut fr, "FACTORS graph").map_err(nz)?;
            let s = read_factor_stats(&mut fr, "FACTORS stats").map_err(nz)?;
            if s.order() != g.num_vertices() {
                return Err(SnapshotError::Corrupt(format!(
                    "stats for '{name}' cover {} vertices but its graph has {}",
                    s.order(),
                    g.num_vertices()
                )));
            }
            atoms.push((name, g, s));
        }
        if !fr.is_empty() {
            return Err(SnapshotError::Corrupt(
                "trailing bytes in the FACTORS section".into(),
            ));
        }

        let levels = match kind {
            0 => {
                let lifted = match m.u64("META pair mode").map_err(nz)? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(SnapshotError::Corrupt(format!(
                            "unknown self-loop mode {other}"
                        )))
                    }
                };
                let names: Vec<&str> = atoms.iter().map(|(name, ..)| name.as_str()).collect();
                if names != ["A", "B"] {
                    return Err(SnapshotError::Corrupt(format!(
                        "pair snapshot carries factors {names:?} (expected A and B)"
                    )));
                }
                pair_levels(lifted)
            }
            1 => {
                let num_levels = m.len("META level count").map_err(nz)?;
                if num_levels == 0 || num_levels > 64 {
                    return Err(SnapshotError::Corrupt(format!(
                        "chain snapshot declares {num_levels} levels"
                    )));
                }
                let mut levels = Vec::with_capacity(num_levels);
                for _ in 0..num_levels {
                    let name = m.str_("META level name").map_err(nz)?;
                    let pi = match m.u64("META level lift flag").map_err(nz)? {
                        0 => false,
                        1 => true,
                        other => {
                            return Err(SnapshotError::Corrupt(format!(
                                "level lift flag must be 0 or 1, found {other}"
                            )))
                        }
                    };
                    levels.push((name, pi));
                }
                levels
            }
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "unknown backend kind {other}"
                )))
            }
        };
        if !m.is_empty() {
            return Err(SnapshotError::Corrupt(
                "trailing bytes in the META section".into(),
            ));
        }
        // Validation compares `expr` against the requested program, so it
        // must describe the levels that will actually be served.
        if expr != canonical_expr(&levels) {
            return Err(SnapshotError::Corrupt(format!(
                "META expr '{expr}' does not match its levels"
            )));
        }

        let stats_json = String::from_utf8(stats_json.to_vec())
            .map_err(|_| SnapshotError::Corrupt("STATS_JSON is not UTF-8".into()))?;

        let mut cr = ByteReader::new(cache_bytes);
        let cache_count = cr.len("CACHE count").map_err(nz)?;
        if cache_count > cr.remaining() / 8 {
            return Err(SnapshotError::Truncated("CACHE entries"));
        }
        let mut cache = Vec::with_capacity(cache_count);
        for _ in 0..cache_count {
            let key = read_cache_key(&mut cr)?;
            let body = cr.str_("CACHE body").map_err(nz)?;
            cache.push((key, Arc::new(body)));
        }
        if !cr.is_empty() {
            return Err(SnapshotError::Corrupt(
                "trailing bytes in the CACHE section".into(),
            ));
        }

        Ok(Snapshot {
            expr,
            shard,
            pair: kind == 0,
            bindings: atoms,
            levels,
            stats_json,
            cache,
        })
    }

    /// Write the encoded snapshot to `path` (atomically via a sibling
    /// temp file, so a crash mid-write never leaves a torn snapshot).
    pub fn write_to(&self, path: &str) -> Result<(), SnapshotError> {
        let bytes = self.encode();
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, &bytes).map_err(|e| SnapshotError::Io(format!("{tmp}: {e}")))?;
        std::fs::rename(&tmp, path).map_err(|e| SnapshotError::Io(format!("{path}: {e}")))
    }

    /// Read and decode a snapshot file.
    pub fn read_from(path: &str) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io(format!("{path}: {e}")))?;
        Self::decode(&bytes)
    }

    /// Check this snapshot against a **pair** server spec: the implied
    /// canonical expression must match and both factor graphs must be
    /// identical to the ones parsed from the command line.
    pub fn validate_pair(
        &self,
        a: &Graph,
        b: &Graph,
        mode: SelfLoopMode,
    ) -> Result<(), SnapshotError> {
        let canonical = canonical_expr(&pair_levels(mode == SelfLoopMode::FactorA));
        self.validate(true, &canonical, &[("A", a), ("B", b)])
    }

    /// Check this snapshot against an **expression** server spec:
    /// `canonical` is the `⊗`-joined spelling of the requested levels and
    /// `bindings` the graphs parsed from the command line.
    pub fn validate_expr(
        &self,
        canonical: &str,
        bindings: &[(String, Graph)],
    ) -> Result<(), SnapshotError> {
        let bindings: Vec<(&str, &Graph)> = bindings.iter().map(|(n, g)| (n.as_str(), g)).collect();
        self.validate(false, canonical, &bindings)
    }

    /// The shared check: same program, same kind of server, and every
    /// snapshot atom bound to an identical graph.
    fn validate(
        &self,
        pair: bool,
        canonical: &str,
        bindings: &[(&str, &Graph)],
    ) -> Result<(), SnapshotError> {
        if self.expr != canonical {
            return Err(SnapshotError::ExpressionMismatch {
                snapshot: self.expr.clone(),
                requested: canonical.to_string(),
            });
        }
        if self.pair != pair {
            return Err(SnapshotError::Corrupt(
                if self.pair {
                    "pair snapshot offered to an expression server"
                } else {
                    "expression snapshot offered to a pair server"
                }
                .into(),
            ));
        }
        for (name, g, _) in &self.bindings {
            match bindings.iter().find(|(n, _)| n == name) {
                Some((_, want)) if *want == g => {}
                Some(_) => {
                    return Err(SnapshotError::FactorMismatch(format!(
                        "factor {name} differs from the served spec"
                    )))
                }
                None => {
                    return Err(SnapshotError::FactorMismatch(format!(
                        "snapshot factor {name} is not bound by the served spec"
                    )))
                }
            }
        }
        Ok(())
    }
}
