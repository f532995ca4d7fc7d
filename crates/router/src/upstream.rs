//! Pooled keep-alive HTTP/1.1 connections to one shard, over the
//! workspace's one bounded client ([`bikron_serve::http::Client`]).
//!
//! The router keeps a small pool of idle connections per shard and
//! reuses them across requests, so steady-state fan-out costs zero
//! connection setups. Failure policy (DESIGN.md §13): one attempt on a
//! (possibly pooled, possibly stale) connection, then exactly **one
//! retry against a freshly re-opened connection** — a pooled socket the
//! shard closed behind our back must not surface as an outage, but a
//! genuinely dead shard must fail fast so the router can scope a 503 to
//! that shard's key range. All served queries are pure reads, so the
//! retry is safe for `POST /v1/batch` too.

use std::io;
use std::sync::Mutex;
use std::time::Duration;

use bikron_serve::http::{Client, ClientResponse};

/// Idle connections pooled per shard; more concurrent checkouts than
/// this simply dial extra sockets that are dropped on check-in.
const POOL_CAP: usize = 16;

/// One upstream response: status, lower-cased headers, and the body
/// verbatim — the router relays these bytes untouched.
pub type UpstreamResponse = ClientResponse;

/// One shard's address plus its pool of idle keep-alive clients.
pub struct Upstream {
    addr: String,
    pool: Mutex<Vec<Client>>,
    connect_timeout: Duration,
    io_timeout: Duration,
}

impl Upstream {
    /// A client for `addr` (`host:port`). No connection is made until
    /// the first request.
    pub fn new(addr: String, connect_timeout: Duration, io_timeout: Duration) -> Upstream {
        Upstream {
            addr,
            pool: Mutex::new(Vec::new()),
            connect_timeout,
            io_timeout,
        }
    }

    /// The shard's `host:port`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Open a fresh connection.
    fn dial(&self) -> io::Result<Client> {
        Client::connect(&self.addr, self.connect_timeout, self.io_timeout)
    }

    /// Issue one request, reusing a pooled connection when available,
    /// with the one-retry-on-fresh-connection policy described above.
    pub fn request(
        &self,
        method: &str,
        target: &str,
        body: Option<&str>,
        traceparent: Option<&str>,
    ) -> io::Result<UpstreamResponse> {
        let first = match self.pool.lock().unwrap().pop() {
            Some(conn) => Ok(conn),
            None => self.dial(),
        };
        match first.and_then(|conn| self.round_trip(conn, method, target, body, traceparent)) {
            Ok(resp) => Ok(resp),
            Err(_) => {
                let conn = self.dial()?;
                self.round_trip(conn, method, target, body, traceparent)
            }
        }
    }

    /// Write one request and read its response; on success the
    /// connection returns to the pool (unless the shard asked to close).
    fn round_trip(
        &self,
        mut conn: Client,
        method: &str,
        target: &str,
        body: Option<&str>,
        traceparent: Option<&str>,
    ) -> io::Result<UpstreamResponse> {
        let traceparent = traceparent.map(|value| ("traceparent", value));
        let resp = conn.request(method, target, traceparent.as_slice(), body)?;
        if !resp.wants_close() {
            let mut pool = self.pool.lock().unwrap();
            if pool.len() < POOL_CAP {
                pool.push(conn);
            }
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bikron_serve::http::{parse_request, write_response, Response};
    use std::io::BufReader;
    use std::net::TcpListener;

    /// A one-connection fake shard: answers every request on one
    /// keep-alive socket with canned bodies, counting requests.
    fn fake_shard(responses: Vec<String>) -> (String, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut served = 0usize;
            for body in responses {
                if parse_request(&mut reader).is_err() {
                    return served;
                }
                write_response(&mut stream, &Response::json(200, body), true).unwrap();
                served += 1;
            }
            served
        });
        (addr, handle)
    }

    #[test]
    fn reuses_pooled_connection() {
        let (addr, handle) = fake_shard(vec!["{\"a\":1}".into(), "{\"a\":2}".into()]);
        let up = Upstream::new(addr, Duration::from_secs(1), Duration::from_secs(1));
        let r1 = up.request("GET", "/x", None, None).unwrap();
        assert_eq!(r1.status, 200);
        assert_eq!(r1.body, "{\"a\":1}");
        let r2 = up.request("GET", "/x", None, None).unwrap();
        assert_eq!(r2.body, "{\"a\":2}");
        drop(up);
        // Both requests travelled over the single accepted connection.
        assert_eq!(handle.join().unwrap(), 2);
    }

    #[test]
    fn retries_once_on_stale_pooled_connection() {
        // First server serves one request then EOFs the socket; the
        // pooled (now dead) connection must be retried on a fresh dial
        // against the second accept.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            for body in ["first", "second"] {
                let (mut stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                parse_request(&mut reader).unwrap();
                let resp = Response::json(200, body.to_string());
                write_response(&mut stream, &resp, true).unwrap();
                // Dropping `stream` here closes the connection: the
                // pooled socket is stale by the next request.
            }
        });
        let up = Upstream::new(addr, Duration::from_secs(1), Duration::from_secs(1));
        assert_eq!(up.request("GET", "/a", None, None).unwrap().body, "first");
        assert_eq!(up.request("GET", "/b", None, None).unwrap().body, "second");
        handle.join().unwrap();
    }

    #[test]
    fn dead_upstream_is_an_error() {
        // Bind then drop to find a port with nothing listening.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let up = Upstream::new(
            format!("127.0.0.1:{port}"),
            Duration::from_millis(200),
            Duration::from_millis(200),
        );
        assert!(up.request("GET", "/x", None, None).is_err());
    }
}
