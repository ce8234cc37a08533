//! Gateway fault matrix: every row is a way a client or the backend can
//! misbehave, and the assertion is that the gateway's response, counters
//! and worker pool all stay correct.
//!
//! - slow-loris: a client that trickles a partial request past the read
//!   timeout gets a 408 and the connection back, and a worker is freed;
//! - mid-response disconnect: a client that vanishes while the gateway is
//!   streaming to it is detected, counted, and its worker freed;
//! - queue-full burst: every rejected submission maps to a 429 carrying
//!   the queue capacity and a Retry-After, with exact accounting;
//! - shutdown drain: requests accepted before shutdown are answered even
//!   when the backend is slow — accepted-implies-answered extends to the
//!   wire;
//! - expired keep-alive: a client whose idle connection the read timeout
//!   closed reconnects and resends instead of failing;
//! - oversized request: a forecast asking for more samples or a longer
//!   horizon than the wire allows gets a 400 before it reaches the engine,
//!   and the gateway keeps serving.

mod common;

use common::{
    fast_gateway_cfg, read_http_head, read_sse_frame, roomy_serve_cfg, sse_fields, valid_body,
    with_stack, EchoBackend, RejectAll, SlowBackend, SLOW_DELAY_MS,
};
use rpf_gateway::routes::{render_forecast_body, MAX_WIRE_HORIZON, MAX_WIRE_SAMPLES};
use rpf_gateway::{serve_http, GatewayConfig, HttpClient, LapBus, LapUpdate};
use rpf_serve::ServeRequest;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Poll a counter until it reaches `want` or ~3 s elapse. Worker-side
/// increments can lag the client-visible effect by a scheduling quantum,
/// so counter assertions are bounded-wait, not instantaneous.
fn wait_for(read: impl Fn() -> u64, want: u64, what: &str) -> u64 {
    for _ in 0..300 {
        let got = read();
        if got >= want {
            return got;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("{what} never reached {want} (last value {})", read());
}

#[test]
fn slow_loris_gets_408_and_frees_the_worker() {
    let bus = LapBus::new();
    serve_http(EchoBackend, 1, &bus, &fast_gateway_cfg(), None, |gw| {
        let mut loris = TcpStream::connect(gw.addr()).expect("connect");
        loris
            .set_read_timeout(Some(Duration::from_secs(3)))
            .expect("timeout");
        // A torn request head, then silence: the 300 ms read timeout must
        // fire and answer 408 rather than hold the worker forever.
        loris.write_all(b"POST /fore").expect("partial head");
        let mut raw = Vec::new();
        loris.read_to_end(&mut raw).expect("read 408 then EOF");
        let text = String::from_utf8_lossy(&raw);
        assert!(
            text.starts_with("HTTP/1.1 408 "),
            "expected 408 Request Timeout, got: {text}"
        );
        assert!(text.contains("read_timeout"), "{text}");
        assert!(
            text.contains("Connection: close"),
            "a timed-out connection must not be kept alive: {text}"
        );
        wait_for(|| gw.metrics().read_timeouts.value(), 1, "read_timeouts");
        assert_eq!(gw.metrics().status_count(408), 1);

        // The worker is free again: an ordinary request still round-trips.
        let mut client = HttpClient::connect(gw.addr(), Duration::from_secs(3)).expect("connect");
        let resp = client.post_json("/forecast", &valid_body()).expect("post");
        assert_eq!(resp.status, 200, "{}", resp.body_str());
    })
    .expect("gateway runs");
}

#[test]
fn idle_keepalive_timeout_closes_silently_without_a_408() {
    let bus = LapBus::new();
    serve_http(EchoBackend, 1, &bus, &fast_gateway_cfg(), None, |gw| {
        // A connection that goes idle *between* requests (empty parse
        // buffer) is not a slow loris: it is closed without a 408 and
        // without counting a read timeout.
        let mut idle = TcpStream::connect(gw.addr()).expect("connect");
        idle.set_read_timeout(Some(Duration::from_secs(3)))
            .expect("timeout");
        let mut raw = Vec::new();
        idle.read_to_end(&mut raw).expect("EOF");
        assert!(raw.is_empty(), "idle close must write nothing: {raw:?}");
        assert_eq!(gw.metrics().read_timeouts.value(), 0);
        assert_eq!(gw.metrics().status_count(408), 0);
    })
    .expect("gateway runs");
}

#[test]
fn client_disconnect_mid_stream_is_counted_and_frees_the_worker() {
    let bus = LapBus::new();
    let cfg = GatewayConfig {
        // 2 workers: one will be burned by the doomed subscriber; proving
        // a later request is served proves the worker came back.
        conn_workers: 2,
        ..fast_gateway_cfg()
    };
    serve_http(EchoBackend, 1, &bus, &cfg, None, |gw| {
        let mut sub = TcpStream::connect(gw.addr()).expect("connect");
        sub.set_read_timeout(Some(Duration::from_secs(3)))
            .expect("timeout");
        sub.write_all(b"GET /races/0/stream HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("subscribe");
        bus.publish(LapUpdate {
            race: 0,
            lap: 1,
            data: "{\"lap\":1}".to_string(),
        });
        // Read the response head plus the first event so the stream is
        // known-established, then vanish without a goodbye.
        let mut buf = Vec::new();
        let head = read_http_head(&mut sub, &mut buf).expect("response head");
        assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
        let frame = read_sse_frame(&mut sub, &mut buf).expect("first event");
        assert!(
            sse_fields(&frame).iter().any(|(k, _)| k == "data"),
            "{frame}"
        );
        drop(sub);

        // Keep publishing until the gateway notices the dead socket (the
        // first writes after a disconnect can land in OS buffers).
        wait_for(
            || {
                bus.publish(LapUpdate {
                    race: 0,
                    lap: 2,
                    data: "{\"lap\":2}".to_string(),
                });
                gw.metrics().client_disconnects.value()
            },
            1,
            "client_disconnects",
        );

        // The subscriber's worker is free again.
        let mut client = HttpClient::connect(gw.addr(), Duration::from_secs(3)).expect("connect");
        let resp = client.post_json("/forecast", &valid_body()).expect("post");
        assert_eq!(resp.status, 200, "{}", resp.body_str());
    })
    .expect("gateway runs");
}

#[test]
fn queue_full_burst_maps_to_429_with_exact_accounting() {
    const BURST: usize = 12;
    let bus = LapBus::new();
    serve_http(
        RejectAll { capacity: 16 },
        1,
        &bus,
        &fast_gateway_cfg(),
        None,
        |gw| {
            let addr = gw.addr();
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..BURST)
                    .map(|_| {
                        s.spawn(move || {
                            let mut client =
                                HttpClient::connect(addr, Duration::from_secs(3)).expect("connect");
                            client.post_json("/forecast", &valid_body()).expect("post")
                        })
                    })
                    .collect();
                for h in handles {
                    let resp = h.join().expect("client thread");
                    assert_eq!(resp.status, 429, "{}", resp.body_str());
                    assert_eq!(
                        resp.header("retry-after"),
                        Some("1"),
                        "429 must carry Retry-After"
                    );
                    let body = resp.body_str();
                    assert!(
                        body.contains("queue_full") && body.contains("\"capacity\":16"),
                        "429 body must name the reason and capacity: {body}"
                    );
                }
            });
            // Full accounting: every burst request was parsed, answered
            // 429, and nothing else claimed a status.
            assert_eq!(gw.metrics().requests.value(), BURST as u64);
            assert_eq!(gw.metrics().status_count(429), BURST as u64);
            assert_eq!(gw.metrics().status_count(200), 0);
            assert_eq!(gw.metrics().status_count(503), 0);
            assert_eq!(gw.metrics().parse_errors.value(), 0);
        },
    )
    .expect("gateway runs");
}

#[test]
fn shutdown_drains_accepted_requests_even_with_a_slow_backend() {
    const CLIENTS: usize = 6;
    SLOW_DELAY_MS.store(150, Ordering::Relaxed);
    let bus = LapBus::new();
    let (handles, _snap) = serve_http(SlowBackend, 1, &bus, &fast_gateway_cfg(), None, |gw| {
        let addr = gw.addr();
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client =
                        HttpClient::connect(addr, Duration::from_secs(10)).expect("connect");
                    client.post_json("/forecast", &valid_body()).expect("post")
                })
            })
            .collect();
        // Give every client time to connect and write its request —
        // the backend answers only after 150 ms, so none is done yet
        // when the region starts shutting down.
        std::thread::sleep(Duration::from_millis(60));
        handles
    })
    .expect("gateway runs");
    // serve_http has returned: the gateway is fully shut down. Every
    // request accepted before the drain must still have been answered.
    for h in handles {
        let resp = h.join().expect("client thread");
        assert_eq!(
            resp.status,
            200,
            "accepted-implies-answered violated: {}",
            resp.body_str()
        );
    }
    SLOW_DELAY_MS.store(50, Ordering::Relaxed);
}

#[test]
fn expired_keepalive_connection_is_reopened_and_the_request_resent() {
    let bus = LapBus::new();
    let cfg = GatewayConfig {
        read_timeout: Duration::from_millis(100),
        ..fast_gateway_cfg()
    };
    serve_http(EchoBackend, 1, &bus, &cfg, None, |gw| {
        let mut client = HttpClient::connect(gw.addr(), Duration::from_secs(3)).expect("connect");
        let first = client.post_json("/forecast", &valid_body()).expect("post");
        assert_eq!(first.status, 200, "{}", first.body_str());
        // Outlast the read timeout: the gateway closes the idle keep-alive
        // connection, and the next request must still be answered.
        std::thread::sleep(Duration::from_millis(400));
        let second = client
            .post_json("/forecast", &valid_body())
            .expect("resent on a fresh connection");
        assert_eq!(second.status, 200, "{}", second.body_str());
        wait_for(|| gw.metrics().conns_accepted.value(), 2, "conns_accepted");
    })
    .expect("gateway runs");
}

#[test]
fn oversized_forecast_request_is_rejected_and_the_gateway_keeps_serving() {
    let bus = LapBus::new();
    with_stack(&roomy_serve_cfg(), &fast_gateway_cfg(), &bus, |gw| {
        let mut client = HttpClient::connect(gw.addr(), Duration::from_secs(10)).expect("connect");
        for oversized in [
            "{\"race\":0,\"origin\":50,\"horizon\":2,\"n_samples\":4000000000}".to_string(),
            render_forecast_body(&ServeRequest::new(0, 50, 2, MAX_WIRE_SAMPLES + 1)),
            render_forecast_body(&ServeRequest::new(0, 50, MAX_WIRE_HORIZON + 1, 2)),
        ] {
            let resp = client.post_json("/forecast", &oversized).expect("post");
            assert_eq!(resp.status, 400, "{oversized}: {}", resp.body_str());
            assert!(
                resp.body_str().contains("bad_request"),
                "{}",
                resp.body_str()
            );
        }
        let resp = client.post_json("/forecast", &valid_body()).expect("post");
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        assert_eq!(gw.metrics().status_count(400), 3);
    });
}
