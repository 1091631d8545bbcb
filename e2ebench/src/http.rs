//! The load generator's HTTP/1.1 client: one keep-alive connection, each
//! request sent with a single write, responses framed by `Content-Length`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A bound on any one exchange, so a stuck server fails the operation
/// instead of hanging the run.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// Byte offset just past the first `\r\n\r\n` in `buf`.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Status code and `Content-Length` of a response head.
fn parse_head(head: &str) -> io::Result<(u16, usize)> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = 0;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad Content-Length"))?;
            }
        }
    }
    Ok((status, length))
}

impl Conn {
    /// Opens a connection to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request (head and body in one write) and reads the
    /// response: status code and body.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let message = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(message.as_bytes())?;
        let mut chunk = [0u8; 16 * 1024];
        let split = loop {
            if let Some(end) = head_end(&self.buf) {
                break end;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let (status, length) = parse_head(&String::from_utf8_lossy(&self.buf[..split]))?;
        while self.buf.len() < split + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8_lossy(&self.buf[split..split + length]).into_owned();
        self.buf.drain(..split + length);
        Ok((status, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_length() {
        let head =
            "HTTP/1.1 201 Created\r\nContent-Type: application/json\r\ncontent-length: 12\r\n\r\n";
        assert_eq!(parse_head(head).expect("valid"), (201, 12));
        assert_eq!(head_end(head.as_bytes()), Some(head.len()));
        assert!(parse_head("garbage").is_err());
    }
}
