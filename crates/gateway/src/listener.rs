//! The gateway region: a bound listener, an acceptor thread, and a pool
//! of connection workers, all scoped to a body closure exactly like
//! [`rpf_serve::serve`] — when the body returns, the gateway drains and
//! every thread joins before [`serve_http`] returns.
//!
//! # Backpressure and shutdown
//!
//! Two queues bound the gateway's memory: the OS accept backlog and the
//! internal handoff queue ([`GatewayConfig::pending_conns`]). Handoff
//! overflow sheds the connection with an immediate 503 — the socket never
//! reaches a worker — while forecast-queue overflow inside `rpf-serve`
//! comes back through the submitter as [`SubmitError::QueueFull`] and
//! maps to 429. The two are deliberately distinct: 503 means "the edge
//! itself is saturated, go away", 429 means "your request was parsed and
//! the forecast queue is full, retry shortly".
//!
//! On shutdown the acceptor stops immediately; workers finish the
//! connections already handed to them, stamping `Connection: close` on
//! every in-flight response. A request that reached the backend keeps the
//! serving layer's accepted-implies-answered guarantee because the
//! gateway region nests *inside* the serving region — `serve()`'s own
//! drain starts only after the gateway has fully stopped.

use crate::conn::handle_connection;
use crate::http::HttpLimits;
use crate::metrics::GatewayMetrics;
use crate::sse::LapBus;
use rpf_obs::MetricsSnapshot;
use rpf_serve::loadgen::Submitter;
use std::io::Write;
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Mutex;
use std::time::Duration;

/// Gateway tuning. Defaults suit tests and small deployments; every field
/// is a hard bound on something a client could otherwise grow.
#[derive(Clone, Copy, Debug)]
pub struct GatewayConfig {
    /// Connection handler threads (the gateway's concurrency limit).
    pub conn_workers: usize,
    /// Slow-client read timeout: maximum wait for request bytes. A
    /// partial request hitting it gets 408 and the connection closes; an
    /// idle keep-alive connection just closes.
    pub read_timeout: Duration,
    /// Slow-client write timeout: maximum wait for the socket to accept
    /// response bytes.
    pub write_timeout: Duration,
    /// Maximum request-head bytes (431 beyond).
    pub max_header_bytes: usize,
    /// Maximum request-body bytes (413 beyond).
    pub max_body_bytes: usize,
    /// Maximum header fields per request (431 beyond).
    pub max_headers: usize,
    /// Accepted connections waiting for a worker; overflow sheds with 503.
    pub pending_conns: usize,
    /// Requests served per connection before the gateway forces a close
    /// (bounds how long one client can pin a worker via keep-alive).
    pub max_requests_per_conn: usize,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            conn_workers: 4,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            max_header_bytes: 8 * 1024,
            max_body_bytes: 64 * 1024,
            max_headers: 64,
            pending_conns: 64,
            max_requests_per_conn: 1024,
        }
    }
}

impl GatewayConfig {
    /// Clamp degenerate values to workable minimums.
    pub fn normalized(&self) -> GatewayConfig {
        let mut cfg = *self;
        cfg.conn_workers = cfg.conn_workers.max(1);
        cfg.read_timeout = cfg.read_timeout.max(Duration::from_millis(1));
        cfg.write_timeout = cfg.write_timeout.max(Duration::from_millis(1));
        cfg.max_header_bytes = cfg.max_header_bytes.max(64);
        cfg.max_headers = cfg.max_headers.max(1);
        cfg.pending_conns = cfg.pending_conns.max(1);
        cfg.max_requests_per_conn = cfg.max_requests_per_conn.max(1);
        cfg
    }

    pub(crate) fn limits(&self) -> HttpLimits {
        HttpLimits {
            max_header_bytes: self.max_header_bytes,
            max_body_bytes: self.max_body_bytes,
            max_headers: self.max_headers,
        }
    }
}

/// Everything a connection handler needs, shared across worker threads.
pub(crate) struct GatewayCtx<'g, S: Submitter> {
    pub backend: S,
    pub bus: &'g LapBus,
    pub metrics: &'g GatewayMetrics,
    /// Number of served races; SSE streams outside `0..n_races` are 404.
    pub n_races: usize,
    pub cfg: GatewayConfig,
    pub shutdown: &'g AtomicBool,
    pub metrics_source: Option<&'g (dyn Fn(MetricsSnapshot) -> MetricsSnapshot + Sync)>,
}

/// The body closure's view of a running gateway.
pub struct GatewayHandle<'g> {
    addr: SocketAddr,
    metrics: &'g GatewayMetrics,
}

impl GatewayHandle<'_> {
    /// The bound loopback address (`127.0.0.1:<os-assigned port>`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live gateway counters (for assertions and the demo's progress
    /// output; `/metrics` serves the same numbers over the wire).
    pub fn metrics(&self) -> &GatewayMetrics {
        self.metrics
    }
}

/// Run an HTTP gateway region over `backend` for the duration of `body`.
///
/// Binds `127.0.0.1:0` (the handle reports the OS-assigned port), spawns
/// the acceptor and `cfg.conn_workers` connection handlers, runs `body`,
/// then shuts down: stop accepting, serve what was already accepted with
/// `Connection: close`, join every thread. Returns the body's value and a
/// final snapshot of the gateway's own metrics registry.
///
/// `metrics_source` shapes what `GET /metrics` serves: it receives the
/// gateway's own snapshot and returns the one to render — the place to
/// merge in engine and serving-layer registries (see `examples/
/// gateway_demo.rs`), or to substitute a fixture in golden tests. `None`
/// serves the gateway's own counters.
pub fn serve_http<S, R>(
    backend: S,
    n_races: usize,
    bus: &LapBus,
    cfg: &GatewayConfig,
    metrics_source: Option<&(dyn Fn(MetricsSnapshot) -> MetricsSnapshot + Sync)>,
    body: impl FnOnce(&GatewayHandle<'_>) -> R,
) -> std::io::Result<(R, MetricsSnapshot)>
where
    S: Submitter,
{
    let cfg = cfg.normalized();
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
    let addr = listener.local_addr()?;
    let metrics = GatewayMetrics::new();
    let shutdown = AtomicBool::new(false);
    // The bounded handoff queue. The acceptor owns the only sender, so its
    // exit closes the queue; workers drain what was already handed off
    // and then see the disconnect.
    let (handoff, pending) = sync_channel::<TcpStream>(cfg.pending_conns);
    let pending = Mutex::new(pending);
    let ctx = GatewayCtx {
        backend,
        bus,
        metrics: &metrics,
        n_races,
        cfg,
        shutdown: &shutdown,
        metrics_source,
    };

    let out = std::thread::scope(|s| {
        let (listener, ctx, pending) = (&listener, &ctx, &pending);
        s.spawn(move || acceptor_loop(listener, handoff, ctx));
        for _ in 0..cfg.conn_workers {
            s.spawn(move || {
                while let Some(stream) = next_conn(pending) {
                    handle_connection(stream, ctx);
                }
            });
        }
        let handle = GatewayHandle {
            addr,
            metrics: &metrics,
        };
        // The guard initiates shutdown when dropped — including when
        // `body` panics. Without it, an unwinding body would skip the
        // shutdown sequence and `thread::scope` would join an acceptor
        // still blocked in accept(), turning the panic into a deadlock.
        let guard = ShutdownGuard {
            shutdown: &shutdown,
            addr,
        };
        let out = body(&handle);
        drop(guard);
        out
    });
    Ok((out, metrics.snapshot()))
}

/// Runs the shutdown sequence on drop so it happens on both the normal
/// and the unwinding exit path out of the body closure: raise the flag
/// and unblock the acceptor's blocking accept() with a throwaway
/// connection. The acceptor's exit drops the handoff sender, which lets
/// idle workers exit.
struct ShutdownGuard<'a> {
    shutdown: &'a AtomicBool,
    addr: SocketAddr,
}

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
    }
}

/// Next handed-off connection, blocking; `None` once the acceptor has
/// exited *and* the queue is drained, so every accepted connection still
/// gets served during shutdown. The receiver is plain data with no
/// invariant a panicking worker could break, so a poisoned lock is
/// recovered.
fn next_conn(pending: &Mutex<Receiver<TcpStream>>) -> Option<TcpStream> {
    let pending = pending.lock().unwrap_or_else(|p| p.into_inner());
    pending.recv().ok()
}

fn acceptor_loop<S: Submitter>(
    listener: &TcpListener,
    handoff: SyncSender<TcpStream>,
    ctx: &GatewayCtx<'_, S>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                if ctx.shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if ctx.shutdown.load(Ordering::Acquire) {
            // The wake-up connection (or a client racing shutdown):
            // nothing was promised, drop it.
            return;
        }
        match handoff.try_send(stream) {
            Ok(()) => ctx.metrics.conns_accepted.inc(),
            Err(TrySendError::Full(stream) | TrySendError::Disconnected(stream)) => {
                shed(stream, ctx)
            }
        }
    }
}

/// Handoff queue overflow: answer 503 from the acceptor thread and close,
/// so saturation is visible to the client instantly instead of as a hang.
fn shed<S: Submitter>(mut stream: TcpStream, ctx: &GatewayCtx<'_, S>) {
    ctx.metrics.conns_rejected.inc();
    ctx.metrics.record_status(503);
    let resp = crate::http::Response::json(
        503,
        "{\"error\":{\"kind\":\"overloaded\",\"message\":\"gateway connection queue full\"}}"
            .to_string(),
    );
    let _ = stream.set_write_timeout(Some(ctx.cfg.write_timeout));
    let _ = stream.write_all(&resp.to_bytes(true));
}
