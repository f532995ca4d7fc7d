//! Fixed thread-pool acceptor with a bounded pending-connection queue,
//! shared by every bikron server tier.
//!
//! One acceptor thread (the caller of [`Server::run`]) pulls connections
//! off the listener and offers them to a bounded queue; `threads` workers
//! drain it, each running a keep-alive request loop against the shared
//! [`Handler`]. When the queue is full the acceptor *sheds load*: it
//! writes a `503 Service Unavailable` (with `Retry-After`) directly on
//! the fresh socket and closes it, so clients get an immediate, explicit
//! signal instead of an unbounded accept backlog. Memory is therefore
//! bounded by `threads + queue_capacity` sockets regardless of offered
//! load.
//!
//! The pool owns everything transport-shaped: bind, accept, the queue,
//! shedding, the keep-alive read loop, `traceparent` adoption, trace-id
//! stamping on error bodies, the traced response write, and the
//! per-request metric record. A [`Handler`] supplies the answer. Two
//! handlers exist: [`ServeState`](crate::ServeState) (a query server or
//! cluster shard) and the router's `RouterState`. Dispatch is static —
//! `Server<H>` is monomorphised per handler — and serve's diagnostics
//! (span trees, profile phases, cache outcome, access log) sit behind
//! [`Handler`] hooks that default to no-ops, so a handler that keeps
//! none of them pays nothing for them.

use std::collections::VecDeque;
use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bikron_obs::{Gauge, TraceContext};

use crate::http::{
    parse_request, write_response, write_response_traced, HttpError, Request, Response,
};

/// How long the nonblocking acceptor sleeps between polls, and workers
/// wait on the queue, before re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// What a server tier plugs into the pool: the request answer, the
/// shutdown flag, and the transport metrics. The `open`/`begin`/
/// `writing`/`finish` hooks bracket one request for handlers that keep
/// per-request diagnostics; they default to no-ops.
pub trait Handler: Send + Sync + 'static {
    /// Worker thread name prefix: workers are `{ROLE}-worker-{n}`.
    const ROLE: &'static str;

    /// Per-request diagnostic state, threaded from [`Handler::open`]
    /// through [`Handler::finish`]. `()` for a handler that keeps none.
    type Exchange: Default;

    /// Answer one parsed request. `ctx` is the request's trace identity
    /// (adopted from the client's `traceparent` or freshly minted).
    fn handle(&self, req: &Request, ctx: &TraceContext) -> Response;

    /// Whether workers and the acceptor should stop.
    fn shutdown_requested(&self) -> bool;

    /// Count one accepted connection.
    fn connection_opened(&self);

    /// The in-flight request gauge, held across answer and write.
    fn inflight(&self) -> &Gauge;

    /// Record one written response: status, bytes on the wire, and
    /// latency from the end of the request read to the end of the write.
    fn record(&self, status: u16, bytes: u64, ns: u64);

    /// Record one connection shed with 503 at the accept gate.
    fn record_shed(&self, bytes: u64);

    /// Hook: a worker is about to block reading the next request.
    fn open(&self) -> Self::Exchange {
        Self::Exchange::default()
    }

    /// Hook: a request head was read (or failed to parse) and got its
    /// trace identity; `remote_parent` is the adopted span id (0 when
    /// the id was minted).
    fn begin(&self, _exchange: &mut Self::Exchange, _ctx: &TraceContext, _remote_parent: u64) {}

    /// Hook: the response is about to be written.
    fn writing(&self, _exchange: &mut Self::Exchange) {}

    /// Hook: the response was written. `req` is `None` when the request
    /// failed to parse.
    fn finish(
        &self,
        _exchange: Self::Exchange,
        _req: Option<&Request>,
        _status: u16,
        _bytes: u64,
        _ns: u64,
        _trace_id: &str,
    ) {
    }
}

/// Server configuration (transport-level knobs only; request behaviour
/// lives in the [`Handler`]).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (port 0 picks a free port).
    pub addr: String,
    /// Worker thread count (min 1).
    pub threads: usize,
    /// Bounded pending-connection queue; beyond it, connections are shed
    /// with 503.
    pub queue_capacity: usize,
    /// Per-socket read timeout — bounds how long an idle or trickling
    /// client can pin a worker.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            queue_capacity: 64,
            read_timeout: Duration::from_secs(5),
        }
    }
}

/// Bounded MPMC queue of accepted sockets: `Mutex<VecDeque>` + `Condvar`.
struct ConnQueue {
    inner: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    capacity: usize,
}

impl ConnQueue {
    fn new(capacity: usize) -> Self {
        ConnQueue {
            inner: Mutex::new(VecDeque::with_capacity(capacity)),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Non-blocking offer; returns the stream back when the queue is
    /// full so the acceptor can shed it.
    fn try_push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.inner.lock().unwrap();
        if q.len() >= self.capacity {
            return Err(stream);
        }
        q.push_back(stream);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking pop with a timeout, so workers periodically observe the
    /// shutdown flag even when idle.
    fn pop_timeout(&self, timeout: Duration) -> Option<TcpStream> {
        let q = self.inner.lock().unwrap();
        let (mut q, _) = self
            .ready
            .wait_timeout_while(q, timeout, |q| q.is_empty())
            .unwrap();
        q.pop_front()
    }
}

/// A bound, not-yet-running server.
pub struct Server<H: Handler> {
    listener: TcpListener,
    handler: Arc<H>,
    config: ServerConfig,
}

impl<H: Handler> Server<H> {
    /// Bind the listener. Fails fast (before any thread spawns) on a bad
    /// or busy address.
    pub fn bind(config: ServerConfig, handler: Arc<H>) -> io::Result<Server<H>> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            handler,
            config,
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Run the accept loop on the calling thread until shutdown is
    /// requested (admin endpoint or signal), then drain and join the
    /// workers.
    pub fn run(self) -> io::Result<()> {
        let Server {
            listener,
            handler,
            config,
        } = self;
        listener.set_nonblocking(true)?;
        let queue = Arc::new(ConnQueue::new(config.queue_capacity.max(1)));

        let workers: Vec<_> = (0..config.threads.max(1))
            .map(|n| {
                let queue = Arc::clone(&queue);
                let handler = Arc::clone(&handler);
                let read_timeout = config.read_timeout;
                std::thread::Builder::new()
                    .name(format!("{}-worker-{n}", H::ROLE))
                    .spawn(move || worker_loop(&queue, &*handler, read_timeout))
                    .expect("spawn worker thread")
            })
            .collect();

        while !handler.shutdown_requested() {
            match listener.accept() {
                Ok((stream, _)) => {
                    handler.connection_opened();
                    if let Err(shed) = queue.try_push(stream) {
                        shed_connection(shed, &*handler);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Workers observe the same flag via the handler; join gives them
        // one queue-poll interval to finish in-flight requests.
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

/// Write the 503 load-shed response on a fresh socket and close it.
fn shed_connection<H: Handler>(mut stream: TcpStream, handler: &H) {
    let resp = Response::error(503, "pending-connection queue is full; retry shortly");
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let bytes = write_response(&mut stream, &resp, false).unwrap_or(0);
    let _ = stream.flush();
    handler.record_shed(bytes);
}

/// Worker: pull connections until shutdown, serving each keep-alive
/// session to completion.
fn worker_loop<H: Handler>(queue: &ConnQueue, handler: &H, read_timeout: Duration) {
    loop {
        match queue.pop_timeout(POLL_INTERVAL) {
            Some(stream) => serve_connection(stream, handler, read_timeout),
            None if handler.shutdown_requested() => return,
            None => {}
        }
    }
}

/// One keep-alive session: parse → answer → respond, recording metrics
/// and running the handler's hooks per request, until close, error or
/// shutdown.
fn serve_connection<H: Handler>(stream: TcpStream, handler: &H, read_timeout: Duration) {
    if stream.set_read_timeout(Some(read_timeout)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    loop {
        let mut exchange = handler.open();
        let parsed = parse_request(&mut reader);
        if matches!(parsed, Err(HttpError::Closed) | Err(HttpError::Io(_))) {
            return;
        }
        // The latency clock starts once a full request has been read, so
        // keep-alive idle time between requests never pollutes the
        // windowed p99 the health endpoint alarms on.
        let started = Instant::now();
        // Held through the answer AND the response write: the live gauge
        // a dashboard polls must count requests still being flushed.
        let _inflight = handler.inflight().enter();
        // Every request gets a trace identity: adopt the client's
        // `traceparent` when one parses (our root span becomes a child
        // in the caller's trace), otherwise mint ids.
        let (ctx, remote_parent) = match parsed
            .as_ref()
            .ok()
            .and_then(|req| req.header("traceparent"))
            .and_then(TraceContext::parse_traceparent)
        {
            Some(remote) => (TraceContext::child_of(remote), remote.span_id),
            None => (TraceContext::generate(), 0),
        };
        let trace_id = ctx.trace_id_hex();
        handler.begin(&mut exchange, &ctx, remote_parent);
        let (resp, keep_alive) = match &parsed {
            Ok(req) => (handler.handle(req, &ctx), !req.wants_close()),
            // Parse failures are answered, then the connection is closed:
            // after a framing error the byte stream can't be trusted.
            Err(e) => (Response::error(e.status(), &e.detail()), false),
        };
        // Error bodies carry the trace id so a client pasting a failure
        // into a bug report hands over the lookup key; success bodies
        // stay byte-identical to the untraced answer (the id travels in
        // the `x-bikron-trace-id` header instead).
        let resp = if resp.status >= 400 {
            resp.with_trace_id(&trace_id)
        } else {
            resp
        };
        handler.writing(&mut exchange);
        let Ok(bytes) = write_response_traced(&mut writer, &resp, keep_alive, Some(&trace_id))
        else {
            return;
        };
        let ns = started.elapsed().as_nanos() as u64;
        handler.finish(
            exchange,
            parsed.as_ref().ok(),
            resp.status,
            bytes,
            ns,
            &trace_id,
        );
        handler.record(resp.status, bytes, ns);
        if !keep_alive || handler.shutdown_requested() {
            return;
        }
    }
}
