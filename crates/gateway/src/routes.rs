//! Route dispatch and the wire schema.
//!
//! Every JSON codec here is paired with its inverse and used from both
//! sides of the socket: the server renders with `render_*`, the HTTP
//! submitter in [`crate::client`] parses with `parse_*`. The equivalence
//! tests lean on that symmetry — a forecast response rendered, shipped
//! over TCP, and parsed back must reconstruct the exact `ServeResponse`
//! bits (floats via the shortest-round-trip form, see [`crate::json`]).
//!
//! # Status mapping
//!
//! | condition                              | status |
//! |----------------------------------------|--------|
//! | forecast served (incl. fallback)       | 200    |
//! | malformed HTTP, JSON, or engine reject | 400    |
//! | `n_samples`/`horizon` over their limit | 400    |
//! | unknown path / unknown race stream     | 404    |
//! | wrong method on a known path           | 405    |
//! | read timeout mid-request (conn.rs)     | 408    |
//! | body over `max_body_bytes`             | 413    |
//! | [`SubmitError::QueueFull`]             | 429    |
//! | head over `max_header_bytes`           | 431    |
//! | [`SubmitError::ShuttingDown`]          | 503    |

use crate::http::{HttpRequest, Response};
use crate::json::{self, Json};
use crate::listener::GatewayCtx;
use crate::sse;
use ranknet_core::engine::{EngineError, EngineForecast};
use rpf_serve::loadgen::Submitter;
use rpf_serve::{FallbackReason, ServeError, ServeRequest, ServeResponse, SubmitError};
use std::time::Duration;

/// Outcome of dispatch: either a complete response, or a handoff to the
/// SSE streaming loop (which owns the socket from then on).
pub(crate) enum Handled {
    Plain(Response),
    Sse { race: usize },
}

pub(crate) fn dispatch<S: Submitter>(req: &HttpRequest, ctx: &GatewayCtx<'_, S>) -> Handled {
    let path = req.path();
    match (req.method.as_str(), path) {
        ("POST", "/forecast") => Handled::Plain(forecast(req, ctx)),
        ("GET", "/forecast") => Handled::Plain(
            Response::json(405, error_body("method_not_allowed", &[]))
                .with_header("Allow", "POST".to_string()),
        ),
        ("GET", "/metrics") => Handled::Plain(metrics(req, ctx)),
        ("GET", "/healthz") => Handled::Plain(Response::text(200, "ok\n")),
        ("GET", _) if path.starts_with("/races/") => match stream_race(path, ctx.n_races) {
            Some(race) => Handled::Sse { race },
            None => Handled::Plain(Response::json(404, error_body("unknown_race", &[]))),
        },
        _ => Handled::Plain(Response::json(404, error_body("not_found", &[]))),
    }
}

/// `/races/{race}/stream` → race index, when it names a served race.
fn stream_race(path: &str, n_races: usize) -> Option<usize> {
    let rest = path.strip_prefix("/races/")?;
    let race: usize = rest.strip_suffix("/stream")?.parse().ok()?;
    (race < n_races).then_some(race)
}

fn forecast<S: Submitter>(req: &HttpRequest, ctx: &GatewayCtx<'_, S>) -> Response {
    let serve_req = match parse_forecast_body(&req.body) {
        Ok(r) => r,
        Err(msg) => {
            return Response::json(400, error_body("bad_request", &[("message", &msg)]));
        }
    };
    match ctx.backend.submit(serve_req).and_then(S::wait) {
        Ok(Ok(resp)) => Response::json(200, render_forecast_response(&resp)),
        Ok(Err(ServeError::Invalid(e))) => Response::json(400, render_engine_error(&e)),
        Err(e) => submit_error_response(&e),
    }
}

/// 429/503 for an admission rejection, with the capacity echoed so a
/// client can size its retry behaviour.
pub(crate) fn submit_error_response(e: &SubmitError) -> Response {
    match e {
        SubmitError::QueueFull { capacity } => Response::json(
            429,
            error_body("queue_full", &[("capacity", &capacity.to_string())]),
        )
        .with_header("Retry-After", "1".to_string()),
        SubmitError::ShuttingDown => Response::json(503, error_body("shutting_down", &[])),
    }
}

fn metrics<S: Submitter>(req: &HttpRequest, ctx: &GatewayCtx<'_, S>) -> Response {
    let own = ctx.metrics.snapshot();
    let snap = match ctx.metrics_source {
        Some(source) => source(own),
        None => own,
    };
    if req.query() == Some("format=plain") {
        Response::text(200, snap.render())
    } else {
        Response::new(200, "text/plain; version=0.0.4", snap.render_prometheus())
    }
}

// ---------------------------------------------------------------------------
// Wire schema: forecast request body
// ---------------------------------------------------------------------------

/// Most Monte-Carlo samples one wire request may ask for: 100× the
/// paper's 100 samples per car. The engine allocates `cars × n_samples`
/// trajectory rows, and a failed allocation aborts the process, which no
/// `catch_unwind` contains; so an oversized request is refused at parse.
pub const MAX_WIRE_SAMPLES: usize = 10_000;

/// Longest forecast horizon one wire request may ask for, in laps: the
/// Indy500's 200, the longest race in the dataset.
pub const MAX_WIRE_HORIZON: usize = 200;

/// Parse a `POST /forecast` body into a typed [`ServeRequest`].
///
/// Numeric fields: `race`, `origin`, `horizon`, `n_samples` (required);
/// an optional deadline as `deadline_ns` (exact) or `deadline_ms`.
/// `n_samples` over [`MAX_WIRE_SAMPLES`] and `horizon` over
/// [`MAX_WIRE_HORIZON`] are rejected.
pub fn parse_forecast_body(body: &[u8]) -> Result<ServeRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    let doc = json::parse(text).map_err(|e| format!("invalid json: {e}"))?;
    let field = |name: &str| -> Result<usize, String> {
        doc.get(name)
            .and_then(Json::as_u64)
            .map(|v| v as usize)
            .ok_or_else(|| format!("missing or non-integer field '{name}'"))
    };
    let mut req = ServeRequest::new(
        field("race")?,
        field("origin")?,
        field("horizon")?,
        field("n_samples")?,
    );
    if req.n_samples > MAX_WIRE_SAMPLES {
        return Err(format!("n_samples over the limit of {MAX_WIRE_SAMPLES}"));
    }
    if req.horizon > MAX_WIRE_HORIZON {
        return Err(format!("horizon over the limit of {MAX_WIRE_HORIZON}"));
    }
    if let Some(ns) = doc.get("deadline_ns") {
        let ns = ns
            .as_u64()
            .ok_or_else(|| "non-integer deadline_ns".to_string())?;
        req.deadline = Some(Duration::from_nanos(ns));
    } else if let Some(ms) = doc.get("deadline_ms") {
        let ms = ms
            .as_u64()
            .ok_or_else(|| "non-integer deadline_ms".to_string())?;
        req.deadline = Some(Duration::from_millis(ms));
    }
    Ok(req)
}

/// Render a [`ServeRequest`] as a `POST /forecast` body (client side).
pub fn render_forecast_body(req: &ServeRequest) -> String {
    let mut out = format!(
        "{{\"race\":{},\"origin\":{},\"horizon\":{},\"n_samples\":{}",
        req.race, req.origin, req.horizon, req.n_samples
    );
    if let Some(d) = req.deadline {
        out.push_str(&format!(",\"deadline_ns\":{}", d.as_nanos()));
    }
    out.push('}');
    out
}

// ---------------------------------------------------------------------------
// Wire schema: forecast response
// ---------------------------------------------------------------------------

fn fallback_str(f: FallbackReason) -> &'static str {
    match f {
        FallbackReason::DeadlineExpired => "deadline_expired",
        FallbackReason::WorkerPanic => "worker_panic",
        FallbackReason::ShardFailure => "shard_failure",
    }
}

fn fallback_from(s: &str) -> Option<FallbackReason> {
    match s {
        "deadline_expired" => Some(FallbackReason::DeadlineExpired),
        "worker_panic" => Some(FallbackReason::WorkerPanic),
        "shard_failure" => Some(FallbackReason::ShardFailure),
        _ => None,
    }
}

/// Render a served forecast. Sample values use the shortest decimal that
/// round-trips to the same `f32` bits.
pub fn render_forecast_response(resp: &ServeResponse) -> String {
    let mut out = format!(
        "{{\"id\":{},\"model_version\":{},\"degraded\":{},\"degraded_trajectories\":{},",
        resp.id,
        resp.forecast.model_version,
        resp.forecast.degraded,
        resp.forecast.degraded_trajectories
    );
    match resp.fallback {
        Some(f) => {
            out.push_str("\"fallback\":");
            rpf_obs::write_json_str(&mut out, fallback_str(f));
            out.push(',');
        }
        None => out.push_str("\"fallback\":null,"),
    }
    out.push_str(&format!("\"batch_size\":{},\"samples\":[", resp.batch_size));
    for (c, car) in resp.forecast.samples.iter().enumerate() {
        if c > 0 {
            out.push(',');
        }
        out.push('[');
        for (s, path) in car.iter().enumerate() {
            if s > 0 {
                out.push(',');
            }
            out.push('[');
            for (i, &v) in path.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_f32(&mut out, v);
            }
            out.push(']');
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// Parse a 200 body back into the [`ServeResponse`] it was rendered from
/// (client side of the equivalence tests and the HTTP submitter).
pub fn parse_forecast_response(body: &str) -> Result<ServeResponse, String> {
    let doc = json::parse(body).map_err(|e| format!("invalid response json: {e}"))?;
    let int = |name: &str| -> Result<u64, String> {
        doc.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing field '{name}'"))
    };
    let samples = doc
        .get("samples")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing field 'samples'".to_string())?
        .iter()
        .map(|car| {
            car.as_arr()
                .ok_or_else(|| "bad car entry".to_string())?
                .iter()
                .map(|path| {
                    path.as_arr()
                        .ok_or_else(|| "bad sample path".to_string())?
                        .iter()
                        .map(|v| {
                            v.as_f64()
                                .map(|f| f as f32)
                                .ok_or_else(|| "bad sample value".to_string())
                        })
                        .collect::<Result<Vec<f32>, String>>()
                })
                .collect::<Result<Vec<Vec<f32>>, String>>()
        })
        .collect::<Result<Vec<Vec<Vec<f32>>>, String>>()?;
    let fallback = match doc.get("fallback") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_str()
                .and_then(fallback_from)
                .ok_or_else(|| "bad fallback value".to_string())?,
        ),
    };
    Ok(ServeResponse {
        id: int("id")?,
        forecast: EngineForecast {
            samples,
            degraded: doc
                .get("degraded")
                .and_then(Json::as_bool)
                .ok_or_else(|| "missing field 'degraded'".to_string())?,
            degraded_trajectories: int("degraded_trajectories")?,
            model_version: int("model_version")?,
        },
        fallback,
        batch_size: int("batch_size")? as usize,
    })
}

// ---------------------------------------------------------------------------
// Wire schema: errors
// ---------------------------------------------------------------------------

/// `{"error":{"kind":...,"message":...,<extra>}}`.
fn error_body(kind: &str, extra: &[(&str, &str)]) -> String {
    let mut out = String::from("{\"error\":{\"kind\":");
    rpf_obs::write_json_str(&mut out, kind);
    for (name, value) in extra {
        out.push(',');
        rpf_obs::write_json_str(&mut out, name);
        out.push(':');
        // Extras are numbers or plain strings; numbers pass through bare.
        if value.bytes().all(|b| b.is_ascii_digit()) && !value.is_empty() {
            out.push_str(value);
        } else {
            rpf_obs::write_json_str(&mut out, value);
        }
    }
    out.push_str("}}");
    out
}

/// Render an engine rejection with every typed field, so the client can
/// reconstruct the exact [`EngineError`].
pub fn render_engine_error(e: &EngineError) -> String {
    match e {
        EngineError::RaceOutOfRange { race, n_contexts } => error_body(
            "race_out_of_range",
            &[
                ("race", &race.to_string()),
                ("n_contexts", &n_contexts.to_string()),
                ("message", &e.to_string()),
            ],
        ),
        EngineError::BadOrigin { origin } => error_body(
            "bad_origin",
            &[("origin", &origin.to_string()), ("message", &e.to_string())],
        ),
        EngineError::BadHorizon => error_body("bad_horizon", &[("message", &e.to_string())]),
        EngineError::BadSampleCount => {
            error_body("bad_sample_count", &[("message", &e.to_string())])
        }
        EngineError::NonFiniteFeature { car, lap } => error_body(
            "non_finite_feature",
            &[
                ("car", &car.to_string()),
                ("lap", &lap.to_string()),
                ("message", &e.to_string()),
            ],
        ),
    }
}

/// Parse an error body back to its typed form, when it has one.
///
/// Returns `Ok(Err(ServeError))` for engine rejections, `Err(SubmitError)`
/// for admission rejections, mirroring the in-process submit/wait split.
pub fn parse_error_body(status: u16, body: &str) -> Result<ServeError, ParseErrorOutcome> {
    let doc = match json::parse(body) {
        Ok(d) => d,
        Err(_) => return Err(ParseErrorOutcome::Unrecognized),
    };
    let err = match doc.get("error") {
        Some(e) => e,
        None => return Err(ParseErrorOutcome::Unrecognized),
    };
    let kind = err.get("kind").and_then(Json::as_str).unwrap_or("");
    let int = |name: &str| err.get(name).and_then(Json::as_u64).unwrap_or(0) as usize;
    match (status, kind) {
        (400, "race_out_of_range") => Ok(ServeError::Invalid(EngineError::RaceOutOfRange {
            race: int("race"),
            n_contexts: int("n_contexts"),
        })),
        (400, "bad_origin") => Ok(ServeError::Invalid(EngineError::BadOrigin {
            origin: int("origin"),
        })),
        (400, "bad_horizon") => Ok(ServeError::Invalid(EngineError::BadHorizon)),
        (400, "bad_sample_count") => Ok(ServeError::Invalid(EngineError::BadSampleCount)),
        (400, "non_finite_feature") => Ok(ServeError::Invalid(EngineError::NonFiniteFeature {
            car: int("car"),
            lap: int("lap"),
        })),
        (429, _) => Err(ParseErrorOutcome::Submit(SubmitError::QueueFull {
            capacity: int("capacity"),
        })),
        (503, _) => Err(ParseErrorOutcome::Submit(SubmitError::ShuttingDown)),
        _ => Err(ParseErrorOutcome::Unrecognized),
    }
}

/// Client-side classification of a non-200 response.
pub enum ParseErrorOutcome {
    /// A typed admission rejection (429/503).
    Submit(SubmitError),
    /// Anything the wire schema does not define.
    Unrecognized,
}

/// Build one SSE preamble + streaming loop is in `conn.rs`; the response
/// head for a stream is fixed:
pub(crate) fn sse_head() -> Vec<u8> {
    b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n"
        .to_vec()
}

/// Render the default per-lap SSE payload for a forecast: mean predicted
/// rank per car at the horizon end, plus identity fields. Deployments can
/// publish richer payloads; the demo and tests use this one.
pub fn lap_payload(race: usize, lap: u64, forecast: &EngineForecast) -> sse::LapUpdate {
    let mut data = format!("{{\"race\":{race},\"lap\":{lap},\"mean_final_rank\":[");
    for (c, car) in forecast.samples.iter().enumerate() {
        if c > 0 {
            data.push(',');
        }
        let mut sum = 0.0f64;
        let mut n = 0usize;
        for path in car {
            if let Some(&last) = path.last() {
                sum += last as f64;
                n += 1;
            }
        }
        let mean = if n > 0 { sum / n as f64 } else { 0.0 };
        json::write_f32(&mut data, mean as f32);
    }
    data.push_str("]}");
    sse::LapUpdate { race, lap, data }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forecast_body_round_trips_including_deadline() {
        let req = ServeRequest::new(1, 50, 2, 4).with_deadline(Duration::from_micros(1500));
        let body = render_forecast_body(&req);
        assert_eq!(parse_forecast_body(body.as_bytes()), Ok(req));
        let plain = ServeRequest::new(0, 60, 1, 2);
        assert_eq!(
            parse_forecast_body(render_forecast_body(&plain).as_bytes()),
            Ok(plain)
        );
    }

    #[test]
    fn forecast_body_rejects_missing_fields() {
        assert!(parse_forecast_body(b"{}").is_err());
        assert!(parse_forecast_body(b"{\"race\":0}").is_err());
        assert!(parse_forecast_body(b"not json").is_err());
        assert!(
            parse_forecast_body(b"{\"race\":-1,\"origin\":5,\"horizon\":1,\"n_samples\":1}")
                .is_err()
        );
    }

    #[test]
    fn forecast_body_bounds_samples_and_horizon() {
        let body = |horizon: usize, n_samples: usize| {
            render_forecast_body(&ServeRequest::new(0, 50, horizon, n_samples))
        };
        let at_limits = ServeRequest::new(0, 50, MAX_WIRE_HORIZON, MAX_WIRE_SAMPLES);
        assert_eq!(
            parse_forecast_body(body(MAX_WIRE_HORIZON, MAX_WIRE_SAMPLES).as_bytes()),
            Ok(at_limits)
        );
        assert!(parse_forecast_body(body(1, MAX_WIRE_SAMPLES + 1).as_bytes()).is_err());
        assert!(parse_forecast_body(body(MAX_WIRE_HORIZON + 1, 1).as_bytes()).is_err());
        assert!(parse_forecast_body(
            b"{\"race\":0,\"origin\":5,\"horizon\":1,\"n_samples\":4000000000}"
        )
        .is_err());
    }

    #[test]
    fn forecast_response_round_trips_bit_exactly() {
        let resp = ServeResponse {
            id: 7,
            forecast: EngineForecast {
                samples: vec![
                    vec![vec![1.5, 2.25], vec![3.3333333, 4.0]],
                    vec![vec![0.1, f32::MAX]],
                ],
                degraded: true,
                degraded_trajectories: 1,
                model_version: 3,
            },
            fallback: Some(FallbackReason::DeadlineExpired),
            batch_size: 5,
        };
        let body = render_forecast_response(&resp);
        let back = parse_forecast_response(&body).expect("parses");
        assert_eq!(back.id, resp.id);
        assert_eq!(back.batch_size, resp.batch_size);
        assert_eq!(back.fallback, resp.fallback);
        assert_eq!(back.forecast.degraded, resp.forecast.degraded);
        assert_eq!(
            back.forecast.degraded_trajectories,
            resp.forecast.degraded_trajectories
        );
        assert_eq!(back.forecast.model_version, resp.forecast.model_version);
        let flat = |f: &EngineForecast| -> Vec<u32> {
            f.samples
                .iter()
                .flatten()
                .flatten()
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(flat(&back.forecast), flat(&resp.forecast));
    }

    #[test]
    fn engine_errors_round_trip_typed() {
        for e in [
            EngineError::RaceOutOfRange {
                race: 9,
                n_contexts: 2,
            },
            EngineError::BadOrigin { origin: 0 },
            EngineError::BadHorizon,
            EngineError::BadSampleCount,
            EngineError::NonFiniteFeature { car: 3, lap: 41 },
        ] {
            let body = render_engine_error(&e);
            match parse_error_body(400, &body) {
                Ok(ServeError::Invalid(back)) => assert_eq!(back, e),
                _ => panic!("failed to round-trip {e:?} via {body}"),
            }
        }
    }

    #[test]
    fn admission_errors_round_trip_typed() {
        let resp = submit_error_response(&SubmitError::QueueFull { capacity: 16 });
        assert_eq!(resp.status, 429);
        let body = String::from_utf8(resp.body).expect("utf8");
        match parse_error_body(429, &body) {
            Err(ParseErrorOutcome::Submit(SubmitError::QueueFull { capacity: 16 })) => {}
            _ => panic!("bad 429 round trip: {body}"),
        }
        let resp = submit_error_response(&SubmitError::ShuttingDown);
        assert_eq!(resp.status, 503);
        let body = String::from_utf8(resp.body).expect("utf8");
        match parse_error_body(503, &body) {
            Err(ParseErrorOutcome::Submit(SubmitError::ShuttingDown)) => {}
            _ => panic!("bad 503 round trip: {body}"),
        }
    }

    #[test]
    fn stream_paths_parse_and_bound_check() {
        assert_eq!(stream_race("/races/0/stream", 2), Some(0));
        assert_eq!(stream_race("/races/1/stream", 2), Some(1));
        assert_eq!(stream_race("/races/2/stream", 2), None);
        assert_eq!(stream_race("/races/x/stream", 2), None);
        assert_eq!(stream_race("/races/0", 2), None);
    }
}
