//! Minimal `/metrics` + `/health` HTTP endpoint over
//! `std::net::TcpListener`.
//!
//! Scope is deliberately tiny: GET only, `Connection: close`, one
//! short-lived thread per connection with read/write timeouts so a
//! stalled scraper can never delay the next accept — and the endpoint
//! shares no locks with the serving hot path, so it can never block
//! the worker pool. Shutdown sets a flag and self-connects to wake
//! the blocking accept loop.

use crate::registry::Registry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const IO_TIMEOUT: Duration = Duration::from_secs(2);
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// A running metrics endpoint. Stops (and joins its accept thread) on
/// [`MetricsServer::stop`] or drop.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (port 0 picks a free port — read it back via
    /// [`local_addr`]) and serve every registry in `sources`,
    /// concatenated in order, at `/metrics`.
    ///
    /// [`local_addr`]: MetricsServer::local_addr
    pub fn start(addr: SocketAddr, sources: Vec<Arc<Registry>>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let sources = Arc::new(sources);
        let accept = std::thread::Builder::new()
            .name("metrics-http".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if flag.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let sources = Arc::clone(&sources);
                    let _ = std::thread::Builder::new()
                        .name("metrics-conn".into())
                        .spawn(move || handle(stream, &sources));
                }
            })?;
        Ok(Self {
            addr: local,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept thread. In-flight responses
    /// finish on their own threads.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if let Some(handle) = self.accept.take() {
            self.stop.store(true, Ordering::Relaxed);
            // Wake the blocking accept; any error means it is already gone.
            let _ = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT);
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

fn handle(mut stream: TcpStream, sources: &[Arc<Registry>]) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    // Read until end of headers; we only need the request line.
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > MAX_REQUEST_BYTES {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n",
        );
        return;
    }
    match path {
        "/metrics" => {
            let body: String = sources.iter().map(|r| r.render()).collect();
            respond(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            );
        }
        "/health" => respond(&mut stream, "200 OK", "text/plain", "ok\n"),
        _ => respond(&mut stream, "404 Not Found", "text/plain", "not found\n"),
    }
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        let (head, body) = out.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_metrics_and_health() {
        let registry = Arc::new(Registry::new());
        registry.counter("up_total", "Up.").inc(3);
        let server =
            MetricsServer::start("127.0.0.1:0".parse().unwrap(), vec![Arc::clone(&registry)])
                .unwrap();
        let addr = server.local_addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("version=0.0.4"));
        assert!(body.contains("up_total 3"));
        crate::expo::parse(&body).expect("scrape must parse");

        let (head, body) = get(addr, "/health");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert_eq!(body, "ok\n");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        server.stop();
    }

    #[test]
    fn concatenates_multiple_sources() {
        let a = Arc::new(Registry::new());
        a.counter("a_total", "A.").inc(1);
        let b = Arc::new(Registry::new());
        b.counter("b_total", "B.").inc(2);
        let server = MetricsServer::start("127.0.0.1:0".parse().unwrap(), vec![a, b]).unwrap();
        let (_, body) = get(server.local_addr(), "/metrics");
        assert!(body.contains("a_total 1"));
        assert!(body.contains("b_total 2"));
        crate::expo::parse(&body).expect("concatenated scrape must parse");
        server.stop();
    }

    #[test]
    fn stop_is_idempotent_and_drop_safe() {
        let server = MetricsServer::start(
            "127.0.0.1:0".parse().unwrap(),
            vec![Arc::new(Registry::new())],
        )
        .unwrap();
        let addr = server.local_addr();
        server.stop();
        // Port is released: a fresh bind to the same port succeeds.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok());
    }
}
