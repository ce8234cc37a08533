//! Gateway-side observability: connection/request counters, per-status
//! tallies, and a request latency histogram, all on a plain
//! [`rpf_obs::Registry`] so the numbers flow through both exporters
//! (`render` / `render_prometheus` / `to_jsonl`) unchanged.
//!
//! Status tallies use the inline-label convention the Prometheus exporter
//! already understands (`gateway_responses{status="429"}`), so per-status
//! counts land as labelled samples of one metric family in the exposition
//! while staying ordinary named counters everywhere else.

use rpf_obs::{Counter, Histogram, Registry, LATENCY_EDGES_NS};

/// Status codes the gateway can emit, pre-registered so snapshot order is
/// stable regardless of which responses a run actually produced.
pub const STATUSES: [u16; 11] = [200, 400, 404, 405, 408, 413, 429, 431, 500, 501, 503];

/// All gateway metrics, registered once against an owned registry.
pub struct GatewayMetrics {
    registry: Registry,
    /// Connections the acceptor handed to a worker.
    pub conns_accepted: Counter,
    /// Connections shed with an immediate 503 because the handoff queue
    /// was full.
    pub conns_rejected: Counter,
    /// Connections fully closed (any reason).
    pub conns_closed: Counter,
    /// Complete requests parsed off a socket.
    pub requests: Counter,
    /// Requests rejected by the HTTP parser (any 4xx parse error).
    pub parse_errors: Counter,
    /// Connections that hit the read timeout mid-request (408).
    pub read_timeouts: Counter,
    /// Clients that vanished while the gateway was reading or writing.
    pub client_disconnects: Counter,
    /// Payload bytes read off sockets.
    pub bytes_in: Counter,
    /// Response bytes written to sockets.
    pub bytes_out: Counter,
    /// SSE subscriptions served.
    pub sse_clients: Counter,
    /// SSE events written to subscribers.
    pub sse_events: Counter,
    /// Wall time from request parsed to response written.
    pub request_latency_ns: Histogram,
    status: Vec<(u16, Counter)>,
}

impl Default for GatewayMetrics {
    fn default() -> GatewayMetrics {
        GatewayMetrics::new()
    }
}

impl GatewayMetrics {
    pub fn new() -> GatewayMetrics {
        let registry = Registry::new();
        let status = STATUSES
            .iter()
            .map(|&code| (code, registry.counter(status_counter_name(code))))
            .collect();
        GatewayMetrics {
            conns_accepted: registry.counter("gateway_conns_accepted"),
            conns_rejected: registry.counter("gateway_conns_rejected"),
            conns_closed: registry.counter("gateway_conns_closed"),
            requests: registry.counter("gateway_requests"),
            parse_errors: registry.counter("gateway_parse_errors"),
            read_timeouts: registry.counter("gateway_read_timeouts"),
            client_disconnects: registry.counter("gateway_client_disconnects"),
            bytes_in: registry.counter("gateway_bytes_in"),
            bytes_out: registry.counter("gateway_bytes_out"),
            sse_clients: registry.counter("gateway_sse_clients"),
            sse_events: registry.counter("gateway_sse_events"),
            request_latency_ns: registry.histogram("gateway_request_latency_ns", &LATENCY_EDGES_NS),
            status,
            registry,
        }
    }

    /// Count a response by status code.
    pub fn record_status(&self, code: u16) {
        if let Some((_, c)) = self.status.iter().find(|(s, _)| *s == code) {
            c.inc();
        }
    }

    /// Current tally for one status code.
    pub fn status_count(&self, code: u16) -> u64 {
        self.status
            .iter()
            .find(|(s, _)| *s == code)
            .map(|(_, c)| c.value())
            .unwrap_or(0)
    }

    /// Plain-data copy of every gateway metric.
    pub fn snapshot(&self) -> rpf_obs::MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// Registry name for a status tally, in the inline-label form both
/// exporters understand.
fn status_counter_name(code: u16) -> &'static str {
    match code {
        200 => "gateway_responses{status=\"200\"}",
        400 => "gateway_responses{status=\"400\"}",
        404 => "gateway_responses{status=\"404\"}",
        405 => "gateway_responses{status=\"405\"}",
        408 => "gateway_responses{status=\"408\"}",
        413 => "gateway_responses{status=\"413\"}",
        429 => "gateway_responses{status=\"429\"}",
        431 => "gateway_responses{status=\"431\"}",
        500 => "gateway_responses{status=\"500\"}",
        501 => "gateway_responses{status=\"501\"}",
        503 => "gateway_responses{status=\"503\"}",
        _ => "gateway_responses{status=\"other\"}",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_tallies_flow_through_the_prometheus_exporter() {
        let m = GatewayMetrics::new();
        m.record_status(200);
        m.record_status(200);
        m.record_status(429);
        m.requests.add(3);
        m.request_latency_ns.observe(1_000);
        assert_eq!(m.status_count(200), 2);
        assert_eq!(m.status_count(429), 1);
        assert_eq!(m.status_count(503), 0);

        // The exporter namespaces with `rpf_` and suffixes counters with
        // `_total`; the inline label must survive both rewrites.
        let prom = m.snapshot().render_prometheus();
        assert!(
            prom.contains("rpf_gateway_responses_total{status=\"200\"} 2"),
            "{prom}"
        );
        assert!(
            prom.contains("rpf_gateway_responses_total{status=\"429\"} 1"),
            "{prom}"
        );
        assert!(prom.contains("rpf_gateway_requests_total 3"), "{prom}");
        assert!(
            prom.contains("rpf_gateway_request_latency_ns_bucket"),
            "{prom}"
        );
    }

    #[test]
    fn unknown_status_is_ignored_not_a_panic() {
        let m = GatewayMetrics::new();
        m.record_status(999);
        assert_eq!(m.status_count(999), 0);
    }
}
