//! The newline-JSON transport shared by every line server: bulkd itself,
//! the router in front of it, and a warm standby's control port.
//!
//! [`serve`] owns everything between the socket and a server's request
//! handling: the accept loop with one thread per connection, framing
//! under arbitrary chunking ([`LineFramer`], bounded by
//! [`MAX_LINE_BYTES`]), request parsing, single-write replies, and the
//! stop ordering.  A server implements [`LineService`] — its
//! per-connection state plus one `handle_line` per parsed request — and
//! so answers wire-level faults exactly as every other server does:
//!
//! - blank lines are skipped;
//! - a line that does not parse is answered with a `protocol` error and
//!   the connection stays open;
//! - a line that cannot be framed (over-long, or not UTF-8) is answered
//!   with one `protocol` error and the connection closes —
//!   resynchronizing a byte stream with no trustworthy framing is
//!   guesswork.

use crate::protocol::{resp_error, Request};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Longest accepted protocol line, in bytes (a submit's inputs dominate;
/// anything bigger is a protocol error, not an allocation bomb).
pub const MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

/// Bytes requested per socket read.
const READ_CHUNK: usize = 64 * 1024;

/// Incremental line framer: the byte-source seam between a transport
/// (real TCP socket or simulated connection) and the protocol parser.
///
/// Bytes arrive in arbitrary chunks — partial lines, several lines
/// coalesced into one segment, one-byte dribble — and `next_line`
/// yields each complete LF-terminated line exactly once, with the
/// terminator (and any preceding CR) stripped.  Both [`serve`] and the
/// simulator's connection actors drive this same type, so framing
/// behaviour under adversarial chunking is a single code path.
#[derive(Debug)]
pub struct LineFramer {
    buf: Vec<u8>,
    limit: usize,
}

impl LineFramer {
    /// A framer that rejects unterminated lines longer than `limit` bytes.
    #[must_use]
    pub fn new(limit: usize) -> Self {
        LineFramer { buf: Vec::new(), limit }
    }

    /// Feed a chunk of received bytes, in arrival order.
    pub fn push(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes buffered but not yet yielded as a complete line.  Non-zero
    /// at EOF means the peer disconnected mid-line.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pop the next complete line, if one has been framed.
    ///
    /// # Errors
    ///
    /// Non-UTF-8 lines and unterminated lines exceeding the length
    /// limit are protocol errors; the connection should be dropped.
    pub fn next_line(&mut self) -> Result<Option<String>, String> {
        let Some(nl) = self.buf.iter().position(|&b| b == b'\n') else {
            if self.buf.len() > self.limit {
                return Err(format!(
                    "line exceeds {} bytes without a terminator ({} buffered)",
                    self.limit,
                    self.buf.len()
                ));
            }
            return Ok(None);
        };
        let mut line: Vec<u8> = self.buf.drain(..=nl).collect();
        line.pop(); // the LF
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        match String::from_utf8(line) {
            Ok(s) => Ok(Some(s)),
            Err(e) => Err(format!("line is not valid UTF-8: {e}")),
        }
    }
}

/// What the transport does with a handled request.
#[derive(Debug)]
pub enum Reply {
    /// Write the line and keep reading.
    Line(String),
    /// Write the line, then release the accept loop so [`serve`]
    /// returns.  `close` also hangs up this connection; other open
    /// connections keep being served either way.
    Stop {
        /// The reply line.
        line: String,
        /// Hang up this connection after the reply.
        close: bool,
    },
    /// Hang up without answering.
    Hangup,
}

/// A server speaking the line protocol over [`serve`].
pub trait LineService: Send + Sync + 'static {
    /// State one connection carries from request to request.
    type Conn;

    /// Create a freshly accepted connection's state.
    fn open(&self) -> Self::Conn;

    /// Answer one parsed request; `line` is its raw text.
    fn handle_line(&self, conn: &mut Self::Conn, req: Request, line: &str) -> Reply;

    /// The connection ended; its state is dropped after this returns.
    fn close(&self, _conn: Self::Conn) {}

    /// A line was answered with a `protocol` error (unframeable or
    /// unparseable).
    fn on_protocol_error(&self) {}

    /// The peer went away abnormally.  `phase` is `"mid-line"` (EOF with
    /// a partial request buffered), `"mid-reply"` (the reply write
    /// failed under the peer), or `"read-error"`; `buffered` counts the
    /// unframed bytes.  Clean EOFs between requests are not reported.
    /// Returns the line the connection thread logs for it, if any.
    fn on_disconnect(
        &self,
        _phase: &'static str,
        _buffered: usize,
        _detail: &str,
    ) -> Option<String> {
        None
    }
}

/// Accept connections on `listener`, each served on its own thread named
/// `thread_name`, until a [`Reply::Stop`] is on the wire.  Connection
/// threads outlive the return: they keep answering their peers until
/// those hang up.
///
/// # Errors
///
/// The listener's local address (the stop's self-connect target) cannot
/// be read.
pub fn serve<S: LineService>(
    listener: &TcpListener,
    service: &Arc<S>,
    thread_name: &str,
) -> std::io::Result<()> {
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let (service, stop) = (Arc::clone(service), Arc::clone(&stop));
        let _ = std::thread::Builder::new().name(thread_name.into()).spawn(move || {
            let mut conn = service.open();
            serve_conn(stream, &*service, &mut conn, &stop, addr);
            service.close(conn);
        });
    }
    Ok(())
}

/// One connection: raw reads feed a [`LineFramer`], so a request frames
/// identically however the transport chunks it.
fn serve_conn<S: LineService>(
    mut stream: TcpStream,
    service: &S,
    conn: &mut S::Conn,
    stop: &AtomicBool,
    addr: SocketAddr,
) {
    let mut framer = LineFramer::new(MAX_LINE_BYTES);
    let mut chunk = vec![0u8; READ_CHUNK];
    loop {
        // Answer every framed line before reading more bytes, so a
        // coalesced segment is answered in request order.
        loop {
            let line = match framer.next_line() {
                Ok(Some(line)) => line,
                Ok(None) => break,
                Err(e) => {
                    service.on_protocol_error();
                    let _ = send(&mut stream, resp_error("protocol", &e).to_compact());
                    return;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            let reply = match Request::parse_line(&line) {
                Ok(req) => service.handle_line(conn, req, &line),
                Err(e) => {
                    service.on_protocol_error();
                    Reply::Line(resp_error("protocol", &e).to_compact())
                }
            };
            let (text, stops, close) = match reply {
                Reply::Line(text) => (text, false, false),
                Reply::Stop { line, close } => (line, true, close),
                Reply::Hangup => return,
            };
            // A stopping reply must be on the wire *before* the accept
            // loop is released: the server may return (and the process
            // exit) the moment it pops, killing this thread mid-write.
            let wrote = send(&mut stream, text);
            if stops {
                stop.store(true, Ordering::SeqCst);
                // Self-connect to pop the accept loop out of `incoming()`.
                let _ = TcpStream::connect(addr);
            }
            if let Err(e) = wrote {
                disconnected(service, "mid-reply", framer.buffered(), &e.to_string());
                return;
            }
            if close {
                return;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if framer.buffered() > 0 {
                    disconnected(service, "mid-line", framer.buffered(), "");
                }
                return;
            }
            Ok(n) => framer.push(&chunk[..n]),
            Err(e) => {
                disconnected(service, "read-error", framer.buffered(), &e.to_string());
                return;
            }
        }
    }
}

/// Report an abnormal connection end and log the service's line for it.
fn disconnected<S: LineService>(service: &S, phase: &'static str, buffered: usize, detail: &str) {
    if let Some(line) = service.on_disconnect(phase, buffered, detail) {
        eprintln!("{line}");
    }
}

/// Write `line` and its terminator as one buffer: split writes let Nagle
/// hold the terminator until the peer's delayed ACK.
fn send(stream: &mut TcpStream, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    stream.write_all(line.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framer_handles_dribble_coalescing_and_crlf() {
        let mut f = LineFramer::new(1024);
        // One-byte dribble across many pushes.
        for b in b"{\"cmd\":\"status\"}\n" {
            f.push(&[*b]);
        }
        assert_eq!(f.next_line().unwrap().as_deref(), Some("{\"cmd\":\"status\"}"));
        assert_eq!(f.next_line().unwrap(), None);
        // Two lines coalesced into one chunk, plus a partial third.
        f.push(b"a\r\nb\nc");
        assert_eq!(f.next_line().unwrap().as_deref(), Some("a"));
        assert_eq!(f.next_line().unwrap().as_deref(), Some("b"));
        assert_eq!(f.next_line().unwrap(), None);
        assert_eq!(f.buffered(), 1, "partial line stays buffered");
        f.push(b"\n");
        assert_eq!(f.next_line().unwrap().as_deref(), Some("c"));
        assert_eq!(f.buffered(), 0);
    }

    #[test]
    fn framer_rejects_oversized_and_non_utf8_lines() {
        let mut f = LineFramer::new(4);
        f.push(b"abcdef");
        assert!(f.next_line().unwrap_err().contains("exceeds 4 bytes"));
        let mut f = LineFramer::new(1024);
        f.push(&[0xff, 0xfe, b'\n']);
        assert!(f.next_line().unwrap_err().contains("UTF-8"));
    }
}
