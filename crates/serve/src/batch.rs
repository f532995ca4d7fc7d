//! `POST /v1/batch`: newline-delimited query parsing and concurrent
//! evaluation.
//!
//! A batch body is up to `batch_max` lines, each one query:
//!
//! ```text
//! vertex P
//! edge P Q
//! neighbors P [OFFSET [LIMIT]]
//! ```
//!
//! Parsing is strict: an unknown verb, wrong arity, non-numeric operand,
//! over-cap limit, empty line, or line count beyond `batch_max` fails the
//! *whole* request with a structured 400 naming the offending 0-based
//! line — a malformed batch is a client bug, and answering the valid
//! prefix would hide it. Well-formed lines always evaluate; semantic
//! errors (an out-of-range vertex, say) surface as that item's embedded
//! error object, exactly the body the single-query endpoint would have
//! returned, so a batch of N queries is byte-for-byte N single answers
//! joined into one JSON array.

use crate::http::Response;
use crate::state::{ServeState, DEFAULT_LIMIT, MAX_LIMIT};

/// One parsed batch query line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchQuery {
    /// `vertex P` → same answer as `GET /v1/vertex/P`.
    Vertex(usize),
    /// `edge P Q` → same answer as `GET /v1/edge/P/Q`.
    Edge(usize, usize),
    /// `neighbors P [OFFSET [LIMIT]]` → same answer as
    /// `GET /v1/neighbors/P?offset=OFFSET&limit=LIMIT`.
    Neighbors(usize, u64, usize),
}

/// A parse failure: which 0-based line, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchParseError {
    /// 0-based index of the offending line.
    pub line: usize,
    /// Human-readable reason.
    pub detail: String,
}

impl BatchParseError {
    fn new(line: usize, detail: impl Into<String>) -> Self {
        BatchParseError {
            line,
            detail: detail.into(),
        }
    }

    /// The structured 400 response for this failure, carrying the line
    /// index as a machine-readable field.
    pub fn response(&self) -> Response {
        let mut w = bikron_obs::JsonWriter::new();
        w.open_object();
        w.u64_field("error", 400);
        w.string_field("status", crate::http::status_text(400));
        w.string_field("detail", &self.detail);
        w.u64_field("line", self.line as u64);
        w.close_object();
        Response::json(400, w.finish())
    }
}

fn num<T: std::str::FromStr>(tok: &str, what: &str, line: usize) -> Result<T, BatchParseError> {
    tok.parse()
        .map_err(|_| BatchParseError::new(line, format!("{what} is not a number: {tok:?}")))
}

/// Parse a whole batch body. `batch_max` bounds the accepted line count.
pub fn parse_batch(body: &str, batch_max: usize) -> Result<Vec<BatchQuery>, BatchParseError> {
    let mut queries = Vec::new();
    for (line, text) in body.lines().enumerate() {
        if queries.len() >= batch_max {
            return Err(BatchParseError::new(
                line,
                format!("batch exceeds the configured maximum of {batch_max} queries"),
            ));
        }
        let toks: Vec<&str> = text.split_whitespace().collect();
        let q = match toks.as_slice() {
            [] => return Err(BatchParseError::new(line, "empty query line")),
            ["vertex", p] => BatchQuery::Vertex(num(p, "vertex index", line)?),
            ["edge", p, q] => {
                BatchQuery::Edge(num(p, "vertex index", line)?, num(q, "vertex index", line)?)
            }
            ["neighbors", rest @ ..] if (1..=3).contains(&rest.len()) => {
                let p = num(rest[0], "vertex index", line)?;
                let offset = match rest.get(1) {
                    Some(t) => num(t, "offset", line)?,
                    None => 0,
                };
                let limit = match rest.get(2) {
                    Some(t) => {
                        let l: usize = num(t, "limit", line)?;
                        if l > MAX_LIMIT {
                            return Err(BatchParseError::new(
                                line,
                                format!("limit {l} exceeds the cap of {MAX_LIMIT}"),
                            ));
                        }
                        l
                    }
                    None => DEFAULT_LIMIT,
                };
                BatchQuery::Neighbors(p, offset, limit)
            }
            [verb, ..] if ["vertex", "edge", "neighbors"].contains(verb) => {
                return Err(BatchParseError::new(
                    line,
                    format!("wrong argument count for {verb:?}: {text:?}"),
                ))
            }
            [verb, ..] => {
                return Err(BatchParseError::new(
                    line,
                    format!("unknown query verb {verb:?} (expected vertex|edge|neighbors)"),
                ))
            }
        };
        queries.push(q);
    }
    if queries.is_empty() {
        return Err(BatchParseError::new(0, "batch body has no queries"));
    }
    Ok(queries)
}

/// Evaluate `queries` across up to `threads` scoped worker threads
/// (answers are pure functions of shared immutable state, so the fan-out
/// needs no synchronisation beyond the result slots) and assemble the
/// single JSON-array response. Item order follows query order. Worker
/// threads adopt the request thread's context, so an item's frames and
/// spans nest under `evaluate` wherever it runs.
pub fn eval_batch(state: &ServeState, queries: &[BatchQuery], threads: usize) -> Response {
    let mut results: Vec<Option<Response>> = vec![None; queries.len()];
    let threads = threads.clamp(1, queries.len().max(1));
    let chunk = queries.len().div_ceil(threads);
    if threads == 1 {
        for (i, (q, slot)) in queries.iter().zip(results.iter_mut()).enumerate() {
            *slot = Some(eval_item(state, q, i));
        }
    } else {
        let context = bikron_obs::profile::capture();
        std::thread::scope(|s| {
            for (c, (qs, slots)) in queries
                .chunks(chunk)
                .zip(results.chunks_mut(chunk))
                .enumerate()
            {
                let context = &context;
                s.spawn(move || {
                    let _adopted = context.adopt();
                    for (i, (q, slot)) in qs.iter().zip(slots.iter_mut()).enumerate() {
                        *slot = Some(eval_item(state, q, c * chunk + i));
                    }
                });
            }
        });
    }

    Response::json(
        200,
        join_batch_items(results.iter().map(|r| {
            r.as_ref()
                .expect("every batch slot is filled")
                .body
                .as_str()
        })),
    )
}

/// Frame item bodies as the `POST /v1/batch` JSON array: `[`, then each
/// item on its own line with trailing whitespace trimmed, comma
/// separated, then `\n]\n`. The router reassembles scattered shard
/// answers with this same function, which keeps a cluster's batch body
/// byte-identical to a single node's.
pub fn join_batch_items<'a>(items: impl ExactSizeIterator<Item = &'a str>) -> String {
    let mut body = String::with_capacity(items.len() * 64);
    body.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('\n');
        body.push_str(item.trim_end());
    }
    body.push_str("\n]\n");
    body
}

/// Split a `POST /v1/batch` response body (`[\n{...},\n{...}\n]\n`)
/// into its per-line item strings, verbatim — the inverse of
/// [`join_batch_items`]. Items are separated by top-level commas; a
/// depth- and string-aware scan keeps commas inside nested objects,
/// arrays and strings intact. Returns `None` when the body is not a
/// well-formed array (truncated, unbalanced, an empty item, or junk
/// after the close), so a caller treats the answer as failed rather
/// than reassembling garbage.
pub fn split_batch_items(body: &str) -> Option<Vec<String>> {
    let trimmed = body.trim();
    let inner = trimmed.strip_prefix('[')?.strip_suffix(']')?;
    if inner.trim().is_empty() {
        return Some(Vec::new());
    }
    let mut items = Vec::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut start = 0usize;
    for (i, c) in inner.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '{' | '[' if !in_string => depth += 1,
            '}' | ']' if !in_string => depth = depth.checked_sub(1)?,
            ',' if !in_string && depth == 0 => {
                items.push(inner[start..i].trim().to_string());
                start = i + 1;
            }
            _ => {}
        }
    }
    if depth != 0 || in_string {
        return None;
    }
    items.push(inner[start..].trim().to_string());
    if items.iter().any(|s| s.is_empty()) {
        return None;
    }
    Some(items)
}

/// Evaluate one query — exactly the single-endpoint answer — inside its
/// `batch[i] verb` span, which owns the item's cache outcome (so the
/// batch request itself logs `"cache": "-"`). The answer bytes are
/// identical whether or not the request is traced.
fn eval_item(state: &ServeState, q: &BatchQuery, i: usize) -> Response {
    let verb = match q {
        BatchQuery::Vertex(_) => "vertex",
        BatchQuery::Edge(..) => "edge",
        BatchQuery::Neighbors(..) => "neighbors",
    };
    let _item = bikron_obs::span::child(format_args!("batch[{i}] {verb}"));
    match *q {
        BatchQuery::Vertex(p) => state.vertex_at(p),
        BatchQuery::Edge(p, q) => state.edge_at(p, q),
        BatchQuery::Neighbors(p, offset, limit) => state.neighbors_at(p, offset, limit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_verbs_and_defaults() {
        let qs = parse_batch(
            "vertex 3\nedge 1 2\nneighbors 7\nneighbors 7 5\nneighbors 7 5 9\n",
            16,
        )
        .unwrap();
        assert_eq!(
            qs,
            vec![
                BatchQuery::Vertex(3),
                BatchQuery::Edge(1, 2),
                BatchQuery::Neighbors(7, 0, DEFAULT_LIMIT),
                BatchQuery::Neighbors(7, 5, DEFAULT_LIMIT),
                BatchQuery::Neighbors(7, 5, 9),
            ]
        );
    }

    #[test]
    fn missing_trailing_newline_is_fine() {
        assert_eq!(parse_batch("vertex 0", 4).unwrap().len(), 1);
    }

    #[test]
    fn errors_carry_the_offending_line() {
        let cases = [
            ("vertex 1\nfrob 2\n", 1, "unknown query verb"),
            ("vertex 1\nvertex\n", 1, "wrong argument count"),
            ("edge 1\n", 0, "wrong argument count"),
            ("vertex banana\n", 0, "not a number"),
            ("vertex 1\n\nvertex 2\n", 1, "empty query line"),
            ("", 0, "no queries"),
            ("neighbors 1 2 3 4\n", 0, "wrong argument count"),
        ];
        for (body, line, needle) in cases {
            let err = parse_batch(body, 16).unwrap_err();
            assert_eq!(err.line, line, "{body:?}");
            assert!(err.detail.contains(needle), "{body:?} → {}", err.detail);
        }
    }

    #[test]
    fn oversized_batch_names_first_excess_line() {
        let body = "vertex 0\n".repeat(5);
        let err = parse_batch(&body, 3).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.detail.contains("maximum of 3"));
        let resp = err.response();
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("\"line\": 3"));
    }

    #[test]
    fn splits_what_join_frames() {
        let items = [
            "{\"index\": 1}",
            "{\"edge\": [2, 3], \"present\": true}",
            "{\"s\": \"a,b } [\"}",
            "{\n  \"nested\": {\"a\": 1}\n}",
        ];
        let body = join_batch_items(items.iter().copied());
        assert_eq!(
            body,
            "[\n{\"index\": 1},\n{\"edge\": [2, 3], \"present\": true},\n\
             {\"s\": \"a,b } [\"},\n{\n  \"nested\": {\"a\": 1}\n}\n]\n"
        );
        assert_eq!(split_batch_items(&body).unwrap(), items);
        assert_eq!(join_batch_items(std::iter::empty()), "[\n]\n");
        assert_eq!(split_batch_items("[\n]\n").unwrap().len(), 0);
        assert_eq!(split_batch_items("[]").unwrap().len(), 0);
    }

    #[test]
    fn split_rejects_malformed_arrays() {
        for bad in [
            "{}",
            "{\"not\": \"array\"}",
            "[{\"unbalanced\": 1}",
            "[{\"unbalanced\": 1]",
            "[{\"a\": 1},]",
            "[{\"open string],\"}",
            "[{\"a\": 1}] junk",
        ] {
            assert_eq!(split_batch_items(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn over_cap_limit_rejected_at_parse() {
        let err = parse_batch(&format!("neighbors 0 0 {}\n", MAX_LIMIT + 1), 4).unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.detail.contains("exceeds the cap"));
    }
}
