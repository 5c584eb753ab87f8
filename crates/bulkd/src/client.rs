//! A small blocking client for the bulkd wire protocol.

use crate::protocol::{read_words, submit_line, JobKey, Request};
use obs::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Transport tuning for [`Client::connect_with`].
///
/// The defaults (both `None`) reproduce the historical behavior: block
/// until the OS gives up on the dial, and forever on a read.  Anything
/// probing servers that may be dead or wedged — the router's health
/// checker above all — must set both, or a single hung backend stalls the
/// caller indefinitely.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClientConfig {
    /// Give up dialing after this long (`None` = the OS default).
    pub connect_timeout: Option<Duration>,
    /// Fail any reply read that stalls longer than this (`None` = block
    /// forever).  Submits block for a full queue-wait + execution, so
    /// leave headroom well above the server's `flush_after_ms` cap.
    pub read_timeout: Option<Duration>,
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, or server hangup).
    Io(std::io::Error),
    /// The response did not parse or lacked the documented shape.
    Protocol(String),
    /// The server's admission control turned the submit away.
    Overloaded {
        /// Suggested backoff before retrying.
        retry_after_ms: u64,
    },
    /// The node is a standby and refuses primary-only work (submit,
    /// drain).  Redial the hinted leader.
    NotPrimary {
        /// The primary's serving address, as the standby learned it over
        /// the replication handshake (empty when unknown).
        leader_hint: String,
    },
    /// The server rejected the request for a stated reason.
    Rejected {
        /// Error kind (`"draining"`, `"bad-request"`, `"exec"`, …).
        kind: String,
        /// Human-readable detail.
        detail: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Overloaded { retry_after_ms } => {
                write!(f, "overloaded (retry after {retry_after_ms} ms)")
            }
            ClientError::NotPrimary { leader_hint } => {
                write!(f, "not primary (leader hint: {leader_hint})")
            }
            ClientError::Rejected { kind, detail } => write!(f, "{kind}: {detail}"),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A successful submit: per-instance outputs plus batch observability.
#[derive(Debug)]
pub struct SubmitOk {
    /// Per-instance output words (bit patterns), in submission order.
    pub outputs: Vec<Vec<u64>>,
    /// The executed batch's total instance count.
    pub batch_p: u64,
    /// Microseconds the job waited in the queue.
    pub queue_us: u64,
    /// Microseconds the batch spent executing.
    pub exec_us: u64,
    /// The per-stage latency breakdown, echoed when the submit opted in
    /// with `timing: true` (`None` otherwise).
    pub timing: Option<Json>,
}

/// A blocking connection to a bulkd server.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to `addr` with no timeouts (see [`ClientConfig`]).
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Self::connect_with(addr, &ClientConfig::default())
    }

    /// Connect to `addr` under `cfg`'s connect/read timeouts.
    ///
    /// With a connect timeout, every resolved address is tried in turn
    /// (mirroring [`TcpStream::connect`]); the last dial error wins.
    ///
    /// # Errors
    ///
    /// Propagates connect failures, resolution failures, and rejected
    /// socket options (a zero timeout is invalid).
    pub fn connect_with(addr: impl ToSocketAddrs, cfg: &ClientConfig) -> std::io::Result<Client> {
        let writer = match cfg.connect_timeout {
            None => TcpStream::connect(&addr)?,
            Some(timeout) => {
                let mut last: Option<std::io::Error> = None;
                let mut stream = None;
                for resolved in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, timeout) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                match stream {
                    Some(s) => s,
                    None => {
                        return Err(last.unwrap_or_else(|| {
                            std::io::Error::new(
                                std::io::ErrorKind::InvalidInput,
                                "address resolved to no candidates",
                            )
                        }))
                    }
                }
            }
        };
        writer.set_read_timeout(cfg.read_timeout)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Send one raw protocol line and return the raw reply line, its
    /// terminator stripped.  The line and its terminator leave in a
    /// single write: split writes let Nagle hold the terminator until
    /// the server's delayed ACK.
    ///
    /// # Errors
    ///
    /// Transport failures, including the server closing the connection
    /// before replying.
    pub fn roundtrip_line(&mut self, line: &str) -> std::io::Result<String> {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        self.writer.write_all(buf.as_bytes())?;
        let mut resp = String::new();
        if self.reader.read_line(&mut resp)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        resp.truncate(resp.trim_end().len());
        Ok(resp)
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Json, ClientError> {
        let resp = self.roundtrip_line(&req.to_line())?;
        Json::parse(&resp).map_err(ClientError::Protocol)
    }

    /// Check a response's `ok` flag, converting failures to typed errors.
    fn expect_ok(resp: Json) -> Result<Json, ClientError> {
        match resp.get("ok") {
            Some(&Json::Bool(true)) => Ok(resp),
            Some(&Json::Bool(false)) => {
                let kind = resp.get("error").and_then(Json::as_str).unwrap_or("unknown");
                if kind == "overloaded" {
                    let retry_after_ms =
                        resp.get("retry_after_ms").and_then(Json::as_i64).unwrap_or(1).max(1)
                            as u64;
                    Err(ClientError::Overloaded { retry_after_ms })
                } else if kind == "not_primary" {
                    let leader_hint =
                        resp.get("leader_hint").and_then(Json::as_str).unwrap_or("").to_owned();
                    Err(ClientError::NotPrimary { leader_hint })
                } else {
                    let detail = resp.get("detail").and_then(Json::as_str).unwrap_or("").to_owned();
                    Err(ClientError::Rejected { kind: kind.to_owned(), detail })
                }
            }
            _ => Err(ClientError::Protocol(format!(
                "response lacks an \"ok\" flag: {}",
                resp.to_compact()
            ))),
        }
    }

    /// Submit `inputs` (one inner vector of word bit patterns per
    /// instance) under `key` and block until the coalesced batch executes.
    ///
    /// # Errors
    ///
    /// [`ClientError::Overloaded`] under backpressure,
    /// [`ClientError::Rejected`] on draining/bad-request/execution errors.
    pub fn submit(
        &mut self,
        key: &JobKey,
        inputs: &[Vec<u64>],
        timing: bool,
    ) -> Result<SubmitOk, ClientError> {
        let line = self.roundtrip_line(&submit_line(key, inputs, timing))?;
        let (resp, outputs) =
            Json::parse_with(&line, "outputs", read_words).map_err(ClientError::Protocol)?;
        let resp = Self::expect_ok(resp)?;
        let outputs = outputs
            .ok_or_else(|| ClientError::Protocol("submit response lacks \"outputs\"".into()))?;
        let field = |name: &str| resp.get(name).and_then(Json::as_i64).unwrap_or(0).max(0) as u64;
        Ok(SubmitOk {
            outputs,
            batch_p: field("batch_p"),
            queue_us: field("queue_us"),
            exec_us: field("exec_us"),
            timing: resp.get("timing").cloned(),
        })
    }

    /// Fetch the lightweight queue-depth probe.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn status(&mut self) -> Result<Json, ClientError> {
        Self::expect_ok(self.roundtrip(&Request::Status)?)
    }

    /// Fetch the full observability snapshot.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        Self::expect_ok(self.roundtrip(&Request::Stats)?)
    }

    /// Fetch the live Prometheus text exposition.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures, or a response without the
    /// documented `metrics` string.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let resp = Self::expect_ok(self.roundtrip(&Request::Metrics)?)?;
        resp.get("metrics")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| ClientError::Protocol("metrics response lacks \"metrics\"".into()))
    }

    /// Trigger a flight-recorder dump; returns the response (recorded /
    /// overwritten counts, the text tail, and the dump path if one is
    /// configured).
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn dump(&mut self) -> Result<Json, ClientError> {
        Self::expect_ok(self.roundtrip(&Request::Dump)?)
    }

    /// Ask the server to drain and shut down; blocks until every accepted
    /// job has executed and returns the final stats snapshot.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures, or [`ClientError::NotPrimary`]
    /// when the target is a warm standby.
    pub fn drain(&mut self) -> Result<Json, ClientError> {
        Self::expect_ok(self.roundtrip(&Request::Drain)?)
    }

    /// Ask a warm standby to take over as the serving primary; returns
    /// its acknowledgement (role, replicated high-water mark).
    ///
    /// # Errors
    ///
    /// Transport or protocol failures, or a `not_standby` rejection when
    /// the target is not a standby.
    pub fn promote(&mut self) -> Result<Json, ClientError> {
        Self::expect_ok(self.roundtrip(&Request::Promote)?)
    }
}
