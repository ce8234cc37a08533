//! `live_wire`: keep-alive HTTP clients in a closed loop against the
//! gateway, which nests inside a default serving region over the fixture.
//!
//! Two connections (one per CPU). Connection `c` asks only about its own
//! races, the season's races `r` with `r % 2 == c`, drawing each request
//! from a pool of 8 recent origins per race at horizon 2 with 8 samples.
//! Spreading a connection over several races averages the per-request
//! work (it scales with the cars still running) over the season. The
//! pool is warmed in set-up, so the encoder cache always hits, and two
//! blocking clients with disjoint questions never give the scheduler an
//! identical pair to coalesce: the fixed per-request costs (HTTP parse,
//! JSON codec, serve handoff, covariate sampling, decode thread fan-out)
//! dominate.

use crate::fixture::Fixture;
use crate::layers::{GatewayLayer, Layers, ServeLayer, TrainLayer};
use crate::report::{ns_to_ms, percentile, sorted, steal_by_window, windowed};
use crate::{bits, forecast_errors, mean, Pass};
use ranknet_core::rank_model::ForecastSamples;
use rpf_gateway::routes::{parse_forecast_response, render_forecast_body};
use rpf_gateway::{serve_http, GatewayConfig, GatewayHandle, HttpClient, LapBus};
use rpf_nn::RngStreams;
use rpf_serve::loadgen::Submitter;
use rpf_serve::{serve, ServeConfig, ServeRequest, ServeResult, SubmitError};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 2;
const HORIZON: usize = 2;
const SAMPLES: usize = 8;
/// Besides the first answer to each pooled question, every this-many-th
/// answer of a connection is kept for the bit-equality check.
const CHECK_EVERY: u64 = 101;

/// The pooled origins: the 8 laps up to mid-race lap 128, the laps a live
/// client would be asking about. Fixed rather than seeded, because the
/// field still running at the pool's laps sets each request's work.
const POOL_ORIGINS: std::ops::RangeInclusive<usize> = 121..=128;

/// Connection `c`'s questions as `(race, origin)`.
fn pool(fx: &Fixture, c: usize) -> Vec<(usize, usize)> {
    (c..fx.races.len())
        .step_by(CONNECTIONS)
        .flat_map(|race| POOL_ORIGINS.map(move |origin| (race, origin)))
        .collect()
}

/// Warm-up for set-up: answer every pooled question once so the encoder
/// cache holds every state the workload will ask for.
pub fn warm(fx: &Fixture) {
    for c in 0..CONNECTIONS {
        for (race, origin) in pool(fx, c) {
            let out = fx
                .engine
                .try_forecast_keyed(race, &fx.races[race], origin, HORIZON, SAMPLES);
            std::hint::black_box(out.ok());
        }
    }
}

/// Serve-backend wrapper of the traced pass: times each request from
/// admission to answer and files it under the response id the wire
/// echoes back, so the client can subtract it from its round trip.
#[derive(Clone, Copy)]
struct Timed<'t, S> {
    inner: S,
    sink: &'t Mutex<HashMap<u64, u64>>,
}

impl<'t, S: Submitter + 't> Submitter for Timed<'t, S> {
    type Pending = (S::Pending, Instant, &'t Mutex<HashMap<u64, u64>>);

    fn submit(&self, req: ServeRequest) -> Result<Self::Pending, SubmitError> {
        let t0 = Instant::now();
        self.inner.submit(req).map(|p| (p, t0, self.sink))
    }

    fn wait((pending, t0, sink): Self::Pending) -> Result<ServeResult, SubmitError> {
        let out = S::wait(pending);
        let ns = t0.elapsed().as_nanos() as u64;
        if let Ok(Ok(resp)) = &out {
            sink.lock()
                .unwrap_or_else(|p| p.into_inner())
                .insert(resp.id, ns);
        }
        out
    }
}

/// One connection's closed loop.
#[derive(Default)]
struct Conn {
    attempted: u64,
    failed: u64,
    reconnects: u64,
    /// Every healthy 200.
    answered: Vec<Answered>,
    /// `((race, origin), body)` kept for the bit-equality check.
    kept: Vec<((usize, usize), Vec<u8>)>,
}

#[derive(Clone, Copy)]
struct Answered {
    /// Completion, in seconds since the pass started.
    at_s: f64,
    rtt_ns: u64,
    /// Admission id echoed by the wire, to pair with the serve time.
    id: u64,
}

fn connect(addr: SocketAddr) -> Option<HttpClient> {
    HttpClient::connect(addr, Duration::from_secs(10)).ok()
}

/// A 200 body that reports neither a fallback nor degraded trajectories.
/// The renderer writes both flags in its first ~100 bytes.
fn healthy(body: &[u8]) -> bool {
    let head = &body[..body.len().min(160)];
    let has = |pat: &[u8]| head.windows(pat.len()).any(|w| w == pat);
    has(b"\"degraded\":false") && has(b"\"fallback\":null")
}

/// The admission id at the head of a 200 body (`{"id":N,...`).
fn response_id(body: &[u8]) -> Option<u64> {
    let rest = body.strip_prefix(b"{\"id\":")?;
    let end = rest.iter().position(|b| !b.is_ascii_digit())?;
    std::str::from_utf8(&rest[..end]).ok()?.parse().ok()
}

fn client_loop(
    addr: SocketAddr,
    c: usize,
    questions: &[(usize, usize)],
    seed: u64,
    start: Instant,
    until: Instant,
) -> Conn {
    let bodies: Vec<String> = questions
        .iter()
        .map(|&(r, o)| render_forecast_body(&ServeRequest::new(r, o, HORIZON, SAMPLES)))
        .collect();
    let picks = RngStreams::new(seed).child(0xC11E ^ c as u64);
    let mut seen = vec![false; questions.len()];
    let mut out = Conn::default();
    let Some(mut http) = connect(addr) else {
        out.attempted = 1;
        out.failed = 1;
        return out;
    };
    while Instant::now() < until {
        let i = (picks.seed(out.attempted) % questions.len() as u64) as usize;
        let t0 = Instant::now();
        let res = http.post_json("/forecast", &bodies[i]);
        let rtt = t0.elapsed().as_nanos() as u64;
        out.attempted += 1;
        let close = match res {
            Ok(resp) => {
                if resp.status == 200 && healthy(&resp.body) {
                    out.answered.push(Answered {
                        at_s: start.elapsed().as_secs_f64(),
                        rtt_ns: rtt,
                        id: response_id(&resp.body).unwrap_or(u64::MAX),
                    });
                } else {
                    out.failed += 1;
                }
                let close = resp.header("connection") == Some("close");
                if !seen[i] || out.attempted % CHECK_EVERY == 0 {
                    seen[i] = true;
                    out.kept.push((questions[i], resp.body));
                }
                close
            }
            Err(_) => {
                out.failed += 1;
                true
            }
        };
        if close {
            // The gateway closes after `max_requests_per_conn`.
            match connect(addr) {
                Some(next) => http = next,
                None => {
                    out.failed += 1;
                    break;
                }
            }
            out.reconnects += 1;
        }
    }
    out
}

pub fn run(fx: &Fixture, seed: u64, seconds: f64, traced: bool) -> Pass {
    let refs: Vec<_> = fx.races.iter().collect();
    let pools: Vec<_> = (0..CONNECTIONS).map(|c| pool(fx, c)).collect();
    let bus = LapBus::new();
    let sink = Mutex::new(HashMap::new());
    let gw_cfg = GatewayConfig::default();
    fx.engine.reset_timings();
    crate::set_tracing(&fx.engine, traced);

    let ((conns, steal, gateway), serve_snap) =
        serve(&fx.engine, &refs, &ServeConfig::default(), |client| {
            let region = |gw: &GatewayHandle<'_>| {
                let start = Instant::now();
                let until = start + Duration::from_secs_f64(seconds);
                let addr = gw.addr();
                let (conns, steal) = std::thread::scope(|s| {
                    let sampler = s.spawn(move || steal_by_window(start, seconds));
                    let handles: Vec<_> = (0..CONNECTIONS)
                        .map(|c| {
                            let questions = &pools[c];
                            s.spawn(move || client_loop(addr, c, questions, seed, start, until))
                        })
                        .collect();
                    let conns: Vec<Conn> = handles
                        .into_iter()
                        .map(|h| h.join().expect("client threads do not panic"))
                        .collect();
                    (conns, sampler.join().expect("the sampler does not panic"))
                });
                let m = gw.metrics();
                let gateway = (
                    m.requests.value(),
                    m.status_count(200),
                    m.bytes_in.value() + m.bytes_out.value(),
                );
                (conns, steal, gateway)
            };
            let out = if traced {
                let timed = Timed {
                    inner: client,
                    sink: &sink,
                };
                serve_http(timed, refs.len(), &bus, &gw_cfg, None, region)
            } else {
                serve_http(client, refs.len(), &bus, &gw_cfg, None, region)
            };
            out.expect("gateway binds loopback").0
        });
    crate::set_tracing(&fx.engine, false);
    let timings = fx.engine.timings();

    let attempted: u64 = conns.iter().map(|c| c.attempted).sum();
    let mut failed: u64 = conns.iter().map(|c| c.failed).sum();
    failed += serve_snap.fallback_deadline + serve_snap.fallback_panic + serve_snap.fallback_shard;
    let answered: Vec<Answered> = conns
        .iter()
        .flat_map(|c| c.answered.iter().copied())
        .collect();
    let timed: Vec<(f64, f64)> = answered
        .iter()
        .map(|a| (a.at_s, ns_to_ms(a.rtt_ns)))
        .collect();
    let summary = windowed(&timed, seconds, &steal);
    let latency_ms = sorted(timed.iter().map(|&(_, ms)| ms).collect());

    // Bit-equality of kept wire answers with direct engine calls, then
    // the forecast error of those (verified) answers.
    let mut problems = Vec::new();
    let mut scored: HashMap<(usize, usize), ForecastSamples> = HashMap::new();
    for ((race, origin), body) in conns.iter().flat_map(|c| &c.kept) {
        let wire = match parse_forecast_response(&String::from_utf8_lossy(body)) {
            Ok(r) => r.forecast.samples,
            Err(e) => {
                problems.push(format!("unparseable wire answer: {e}"));
                continue;
            }
        };
        let direct = fx
            .engine
            .try_forecast_keyed(*race, &fx.races[*race], *origin, HORIZON, SAMPLES)
            .map(|f| f.samples);
        if direct
            .as_ref()
            .map(|d| bits(d) != bits(&wire))
            .unwrap_or(true)
        {
            problems.push(format!(
                "race {race} origin {origin}: wire answer differs from a direct engine call"
            ));
        }
        scored.entry((*race, *origin)).or_insert(wire);
    }
    let mut errors = Vec::new();
    for ((race, origin), samples) in &scored {
        errors.extend(forecast_errors(&fx.races[*race], *origin, HORIZON, samples));
    }
    let forecast_mae = mean(&errors);

    let layers = traced.then(|| {
        let serve_ns = sink.into_inner().unwrap_or_else(|p| p.into_inner());
        let self_ms = sorted(
            answered
                .iter()
                .filter_map(|a| {
                    let serve = serve_ns.get(&a.id)?;
                    Some(ns_to_ms(a.rtt_ns.saturating_sub(*serve)))
                })
                .collect(),
        );
        let serve_ms = sorted(serve_ns.values().map(|&ns| ns_to_ms(ns)).collect());
        let (requests, ok, bytes) = gateway;
        Layers {
            gateway: Some(GatewayLayer {
                requests,
                non_200: requests.saturating_sub(ok),
                bytes,
                self_ms_p50: percentile(&self_ms, 0.5),
            }),
            serve: Some(ServeLayer {
                time_ms_p50: percentile(&serve_ms, 0.5),
                snapshot: serve_snap.clone(),
                coalesced: timings.coalesced_requests,
            }),
            engine: Some(timings),
            train: TrainLayer::from_reports(&[&fx.fit]),
            late_ms_max: 0.0,
        }
    });

    let reconnects: u64 = conns.iter().map(|c| c.reconnects).sum();
    let checked: usize = conns.iter().map(|c| c.kept.len()).sum();
    Pass {
        attempted,
        failed,
        problems,
        summary,
        latency_ms,
        forecast_mae,
        layers,
        record: vec![
            ("reconnects", reconnects.to_string()),
            ("answers_checked", checked.to_string()),
        ],
    }
}
