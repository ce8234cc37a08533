//! Client side of the wire: a small blocking HTTP/1.1 client and
//! [`HttpSubmitter`], which implements [`rpf_serve::Submitter`] over TCP
//! so the serving layer's load generators (`run_open_loop`,
//! `run_closed_loop`) drive real sockets unchanged.
//!
//! [`HttpSubmitter`] opens one connection per request: the open-loop
//! driver keeps many requests in flight at once, and a blocking client
//! cannot multiplex one keep-alive socket. Keep-alive reuse is exercised
//! through [`HttpClient`] directly (one sequential client per
//! connection), which is what the equivalence tests do.

use crate::http::reason;
use crate::routes::{self, ParseErrorOutcome};
use rpf_serve::loadgen::Submitter;
use rpf_serve::{ServeRequest, ServeResult, SubmitError};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed HTTP response as read off the socket.
#[derive(Clone, Debug)]
pub struct WireResponse {
    pub status: u16,
    /// Lowercased header names, trimmed values, document order.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl WireResponse {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

/// Blocking HTTP/1.1 client over one keep-alive connection.
pub struct HttpClient {
    stream: TcpStream,
    /// Bytes read past the previous response (keep-alive leftovers).
    buf: Vec<u8>,
    addr: SocketAddr,
    timeout: Duration,
}

impl HttpClient {
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(HttpClient {
            stream,
            buf: Vec::new(),
            addr,
            timeout,
        })
    }

    /// `GET path` and read the full response.
    pub fn get(&mut self, path: &str) -> std::io::Result<WireResponse> {
        self.round_trip("GET", path, None)
    }

    /// `POST path` with a JSON body and read the full response.
    pub fn post_json(&mut self, path: &str, body: &str) -> std::io::Result<WireResponse> {
        self.round_trip("POST", path, Some(body))
    }

    /// Send one request and read its response. When the server had closed
    /// the connection before any response byte arrived — typically a
    /// keep-alive connection its read timeout expired — reconnect to the
    /// same address and resend once. Resending is safe: a forecast is a
    /// pure function of the request.
    fn round_trip(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<WireResponse> {
        let first = self
            .send_request(method, path, body)
            .and_then(|()| self.read_response());
        match first {
            Err(e) if self.buf.is_empty() && closed_by_peer(&e) => {
                *self = HttpClient::connect(self.addr, self.timeout)?;
                self.send_request(method, path, body)?;
                self.read_response()
            }
            other => other,
        }
    }

    /// Write one request head (+ optional body) without reading anything.
    pub fn send_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<()> {
        let mut req = format!("{method} {path} HTTP/1.1\r\nHost: rpf\r\n");
        match body {
            Some(b) => {
                req.push_str(&format!(
                    "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{b}",
                    b.len()
                ));
            }
            None => req.push_str("\r\n"),
        }
        self.stream.write_all(req.as_bytes())
    }

    /// Read one complete response (head + `Content-Length` body). Bytes
    /// beyond it stay buffered for the next call, so a keep-alive
    /// connection can read back-to-back responses.
    pub fn read_response(&mut self) -> std::io::Result<WireResponse> {
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed before response head",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad status line {status_line:?}"),
                )
            })?;
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                let name = name.to_ascii_lowercase();
                let value = value.trim().to_string();
                if name == "content-length" {
                    content_length = value.parse().unwrap_or(0);
                }
                headers.push((name, value));
            }
        }
        let body_start = head_end + 4;
        while self.buf.len() < body_start + content_length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[body_start..body_start + content_length].to_vec();
        self.buf.drain(..body_start + content_length);
        Ok(WireResponse {
            status,
            headers,
            body,
        })
    }

    /// The underlying socket (raw writes and SSE reads in tests).
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}

/// Did the peer close the connection (EOF, reset, or a write into a
/// closed socket)?
fn closed_by_peer(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::{BrokenPipe, ConnectionReset, UnexpectedEof};
    matches!(e.kind(), UnexpectedEof | ConnectionReset | BrokenPipe)
}

/// One-line summary of a response for demos: `200 OK (123 bytes)`.
pub fn describe(resp: &WireResponse) -> String {
    format!(
        "{} {} ({} bytes)",
        resp.status,
        reason(resp.status),
        resp.body.len()
    )
}

/// [`Submitter`] over HTTP: `submit` connects and writes the request,
/// `wait` reads and classifies the response, so admission rejections the
/// gateway mapped to 429/503 come back as the original typed
/// [`SubmitError`] — load reports over the wire line up with in-process
/// ones. Transport failures (gateway gone, timeout) also surface as
/// [`SubmitError::ShuttingDown`], the closest admission verdict.
#[derive(Clone, Copy, Debug)]
pub struct HttpSubmitter {
    pub addr: SocketAddr,
    pub timeout: Duration,
}

impl HttpSubmitter {
    pub fn new(addr: SocketAddr) -> HttpSubmitter {
        HttpSubmitter {
            addr,
            timeout: Duration::from_secs(10),
        }
    }
}

/// An in-flight HTTP submission: the socket with the request written.
pub struct HttpPending {
    client: HttpClient,
}

impl Submitter for HttpSubmitter {
    type Pending = HttpPending;

    fn submit(&self, req: ServeRequest) -> Result<HttpPending, SubmitError> {
        let mut client =
            HttpClient::connect(self.addr, self.timeout).map_err(|_| SubmitError::ShuttingDown)?;
        let body = routes::render_forecast_body(&req);
        client
            .send_request("POST", "/forecast", Some(&body))
            .map_err(|_| SubmitError::ShuttingDown)?;
        Ok(HttpPending { client })
    }

    fn wait(mut pending: HttpPending) -> Result<ServeResult, SubmitError> {
        let resp = pending
            .client
            .read_response()
            .map_err(|_| SubmitError::ShuttingDown)?;
        if resp.status == 200 {
            return routes::parse_forecast_response(&resp.body_str())
                .map(Ok)
                .map_err(|_| SubmitError::ShuttingDown);
        }
        match routes::parse_error_body(resp.status, &resp.body_str()) {
            Ok(serve_err) => Ok(Err(serve_err)),
            Err(ParseErrorOutcome::Submit(e)) => Err(e),
            Err(ParseErrorOutcome::Unrecognized) => Err(SubmitError::ShuttingDown),
        }
    }
}
