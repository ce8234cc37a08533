//! Per-connection loop: incremental reads, keep-alive dispatch, slow-
//! client timeouts, and the SSE streaming tail.
//!
//! The loop owns a single growable buffer. Each pass either parses one
//! complete request off the front (pipelined requests are simply what is
//! left in the buffer afterwards) or reads more bytes. Timeouts split by
//! intent: a read timeout with a *partial request* buffered is a slow-
//! loris client and gets 408 before the close; a timeout on an *empty*
//! buffer is an idle keep-alive connection and closes silently.

use crate::http::{self, HttpError, Response};
use crate::listener::GatewayCtx;
use crate::routes::{self, Handled};
use crate::sse;
use rpf_serve::loadgen::Submitter;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// How often an SSE loop re-checks shutdown while waiting for lap events.
const SSE_POLL: Duration = Duration::from_millis(25);

pub(crate) fn handle_connection<S: Submitter>(mut stream: TcpStream, ctx: &GatewayCtx<'_, S>) {
    let m = ctx.metrics;
    let _ = stream.set_read_timeout(Some(ctx.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(ctx.cfg.write_timeout));
    let _ = stream.set_nodelay(true);

    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut served = 0usize;
    loop {
        match http::try_parse(&buf, &ctx.cfg.limits()) {
            Ok(Some((req, consumed))) => {
                buf.drain(..consumed);
                m.bytes_in.add(consumed as u64);
                m.requests.inc();
                served += 1;
                let started = Instant::now();
                // During drain every response closes its connection, so
                // workers finish their queue instead of idling on
                // keep-alive sockets while `serve_http` waits to join.
                let draining = ctx.shutdown.load(Ordering::Acquire);
                let keep = req.keep_alive() && !draining && served < ctx.cfg.max_requests_per_conn;
                match routes::dispatch(&req, ctx) {
                    Handled::Plain(resp) => {
                        m.record_status(resp.status);
                        let bytes = resp.to_bytes(!keep);
                        m.request_latency_ns
                            .observe(started.elapsed().as_nanos() as u64);
                        if stream.write_all(&bytes).is_err() {
                            m.client_disconnects.inc();
                            break;
                        }
                        m.bytes_out.add(bytes.len() as u64);
                        if !keep {
                            break;
                        }
                    }
                    Handled::Sse { race } => {
                        m.record_status(200);
                        m.request_latency_ns
                            .observe(started.elapsed().as_nanos() as u64);
                        stream_lap_events(&mut stream, race, ctx);
                        break;
                    }
                }
            }
            Ok(None) => match stream.read(&mut chunk) {
                Ok(0) => {
                    if !buf.is_empty() {
                        m.client_disconnects.inc();
                    }
                    break;
                }
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if is_timeout(&e) => {
                    if buf.is_empty() {
                        // Idle keep-alive expiry: nothing was promised.
                        break;
                    }
                    // Slow-loris: a request started arriving and stalled.
                    m.read_timeouts.inc();
                    m.record_status(408);
                    let resp = Response::json(
                        408,
                        "{\"error\":{\"kind\":\"read_timeout\",\"message\":\"request not completed in time\"}}"
                            .to_string(),
                    );
                    let _ = stream.write_all(&resp.to_bytes(true));
                    break;
                }
                Err(_) => {
                    m.client_disconnects.inc();
                    break;
                }
            },
            Err(parse_err) => {
                m.parse_errors.inc();
                m.record_status(parse_err.status());
                let _ = stream.write_all(&reject_response(&parse_err).to_bytes(true));
                break;
            }
        }
    }
    m.conns_closed.inc();
}

/// SO_RCVTIMEO expiry surfaces as `WouldBlock` on unix and `TimedOut` on
/// windows; treat both as the timeout.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// 400/413/431 for a request the parser refused.
fn reject_response(e: &HttpError) -> Response {
    let mut body = String::from("{\"error\":{\"kind\":\"bad_http\",\"message\":");
    rpf_obs::write_json_str(&mut body, e.message());
    body.push_str("}}");
    Response::json(e.status(), body)
}

/// The SSE tail: stream lap updates for `race` until the bus closes, the
/// gateway shuts down, or the client disappears. The connection never
/// returns to request parsing — SSE responses are unbounded, so the
/// stream is `Connection: close` by construction.
fn stream_lap_events<S: Submitter>(stream: &mut TcpStream, race: usize, ctx: &GatewayCtx<'_, S>) {
    let m = ctx.metrics;
    m.sse_clients.inc();
    let head = routes::sse_head();
    if stream.write_all(&head).is_err() {
        m.client_disconnects.inc();
        return;
    }
    m.bytes_out.add(head.len() as u64);

    let mut cursor = 0usize;
    loop {
        if ctx.shutdown.load(Ordering::Acquire) {
            // Shutdown mid-stream: best-effort terminal frame.
            let _ = stream.write_all(sse::end_frame().as_bytes());
            return;
        }
        let (fresh, next, closed) = ctx.bus.wait_after(race, cursor, SSE_POLL);
        cursor = next;
        for (seq, update) in fresh {
            let frame = sse::frame(seq, &update);
            if stream.write_all(frame.as_bytes()).is_err() {
                m.client_disconnects.inc();
                return;
            }
            m.sse_events.inc();
            m.bytes_out.add(frame.len() as u64);
        }
        if closed {
            let _ = stream.write_all(sse::end_frame().as_bytes());
            return;
        }
    }
}
