//! Minimal keep-alive HTTP/1.1 client. The caller times a round trip
//! from the first byte written to the last body byte read; nothing else
//! (request building, answer checking) happens inside that window. It is
//! deliberately separate from the clients in the crates under test, so a
//! change to those cannot move the measuring side.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            reader: BufReader::with_capacity(64 * 1024, stream),
        })
    }

    /// Send one complete request and read the response: status and body.
    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.reader.get_mut().write_all(request)?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad status line {line:?}")))?;
        let mut content_length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof in headers",
                ));
            }
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((k, v)) = h.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    content_length = v
                        .trim()
                        .parse()
                        .map_err(|e| io::Error::other(format!("bad content-length: {e}")))?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }

    /// Shut the socket down, as a reset connection would leave it (the
    /// benchmark's own tests use it).
    pub fn sever(&self) {
        let _ = self.reader.get_ref().shutdown(Shutdown::Both);
    }

    /// `GET path` (convenience for probes outside timed windows).
    pub fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        let (status, body) = self.round_trip(get_request(path).as_bytes())?;
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

pub fn get_request(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n")
}

pub fn post_request(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}
