//! # rpf-gateway — the network edge of the RankNet serving stack
//!
//! A std-only, thread-pool HTTP/1.1 server fronting [`rpf_serve`]: JSON
//! forecast queries in, bit-deterministic forecasts out, plus the
//! observability and streaming surfaces a live-race deployment needs.
//! Nothing here touches the determinism contract — the gateway is a
//! transport, and the wire equivalence tests pin that a forecast served
//! over TCP reconstructs the exact bits of a direct engine call.
//!
//! ## Endpoints
//!
//! | endpoint                 | behaviour                                  |
//! |--------------------------|--------------------------------------------|
//! | `POST /forecast`         | JSON body → typed [`rpf_serve::ServeRequest`] → 200 forecast, 400 typed reject, 429 queue full, 503 shutting down |
//! | `GET /metrics`           | Prometheus exposition (`?format=plain` for the human-readable render) |
//! | `GET /races/{r}/stream`  | SSE per-lap forecast updates from a [`LapBus`] |
//! | `GET /healthz`           | liveness probe                             |
//!
//! ## Shape
//!
//! [`serve_http`] mirrors [`rpf_serve::serve`]: a scoped region that owns
//! its threads (acceptor + connection workers) and fully drains before it
//! returns. The backend is anything implementing
//! [`rpf_serve::Submitter`] — a serving region's
//! [`rpf_serve::ServeClient`] (one shard or many) or a test stub — so the
//! gateway nests directly inside a serving region:
//!
//! ```text
//! serve(&engine, &contexts, &cfg, |client| {
//!     serve_http(client, contexts.len(), &bus, &gw_cfg, None, |gw| {
//!         // gw.addr() now answers real sockets
//!     })
//! })
//! ```
//!
//! Because the gateway region nests inside the serving region, gateway
//! drain finishes first and the serving layer's accepted-implies-answered
//! guarantee extends to the wire: any request the gateway admitted to the
//! backend is answered before `serve_http` returns.
//!
//! [`HttpSubmitter`] closes the loop from the client side: it implements
//! the same [`rpf_serve::Submitter`] trait *over* the socket, so the
//! serving layer's deterministic load generators drive the full TCP stack
//! without modification.

pub mod client;
mod conn;
pub mod http;
pub mod json;
mod listener;
pub mod metrics;
pub mod routes;
pub mod sse;

pub use client::{describe, HttpClient, HttpPending, HttpSubmitter, WireResponse};
pub use listener::{serve_http, GatewayConfig, GatewayHandle};
pub use metrics::GatewayMetrics;
pub use sse::{LapBus, LapUpdate};
