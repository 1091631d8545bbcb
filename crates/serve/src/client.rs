//! A tiny blocking HTTP/1.1 client for the daemon's own surface.
//!
//! Exists so the CLI smoke tests, the integration suite, and the
//! `serve_qps` load bench can talk to the server without shelling out to
//! `curl`. [`Conn`] keeps one connection alive across requests (the serving
//! hot path); [`request_once`] opens, asks, and closes.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One HTTP response: status code and body (headers are consumed, not kept).
#[derive(Debug)]
pub struct Response {
    /// The status code, e.g. `200`.
    pub status: u16,
    /// The response body as text.
    pub body: String,
}

/// A persistent client connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects to the server, with Nagle's algorithm off: each request
    /// goes out in one write, which Nagle could still hold for the
    /// server's delayed ACK.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request and reads its response. `body` is sent with
    /// `Content-Length` framing (pass `None` for body-less methods).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<Response> {
        let body = body.unwrap_or("");
        let message = format!(
            "{method} {path} HTTP/1.1\r\nHost: gopher\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(message.as_bytes())?;
        self.stream.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {status_line:?}"),
                )
            })?;
        let mut content_length = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                    })?;
                }
            }
        }
        let mut body: Vec<u8> = self.buf[head_end + 4..].to_vec();
        self.buf.clear();
        while body.len() < content_length {
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-body",
                ));
            }
            body.extend_from_slice(&chunk[..n]);
        }
        self.buf = body.split_off(content_length);
        Ok(Response {
            status,
            body: String::from_utf8_lossy(&body).into_owned(),
        })
    }
}

/// One-shot request: connect, ask, close.
pub fn request_once(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<Response> {
    Conn::connect(addr)?.request(method, path, body)
}
