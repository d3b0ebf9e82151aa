//! The wire protocol: length-prefixed single-line JSON frames.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON. The asymmetric size caps encode who is allowed
//! to be big: requests are tiny ([`MAX_REQUEST_FRAME`]), response
//! documents can be a full points-to dump ([`MAX_RESPONSE_FRAME`]).
//!
//! Decoding is *fail-closed per connection*: an oversized, truncated or
//! non-JSON frame yields a typed [`FrameError`], the server answers with
//! an `error` response when the socket still works, and the connection —
//! only that connection — is dropped. There is no resynchronization
//! inside a stream, by design: after a malformed length prefix the byte
//! stream has no trustworthy framing left.

use std::io::{Read, Write};

use crate::json::{self, Value};

/// Size cap for request frames (1 MiB): a query document is small.
pub const MAX_REQUEST_FRAME: usize = 1 << 20;

/// Size cap for response frames (64 MiB): a `dump` document over a big
/// benchmark is not.
pub const MAX_RESPONSE_FRAME: usize = 64 << 20;

/// Why a frame could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Clean end-of-stream before the first header byte.
    Closed,
    /// End-of-stream in the middle of a header or payload.
    Truncated {
        /// Bytes that did arrive before the stream ended.
        got: usize,
        /// Bytes the frame header promised (0 while still in the header).
        want: usize,
    },
    /// The header announced a payload over the size cap.
    Oversized {
        /// The announced payload length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// Any other transport error.
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated { got, want } => {
                write!(f, "truncated frame: got {got} of {want} byte(s)")
            }
            FrameError::Oversized { len, max } => {
                write!(
                    f,
                    "oversized frame: {len} byte(s) exceeds the {max}-byte cap"
                )
            }
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

/// Writes one frame: the 4-byte big-endian length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame, enforcing the `max` payload cap. Blocking: the
/// server wraps this in its own polling loop (see `server`), the client
/// calls it directly.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 4];
    read_full(r, &mut header, 0)?;
    let len = u32::from_be_bytes(header) as usize;
    if len > max {
        return Err(FrameError::Oversized { len, max });
    }
    let mut payload = vec![0u8; len];
    read_full(r, &mut payload, len).map_err(|e| match e {
        // EOF after a complete header is truncation, not a clean close.
        FrameError::Closed => FrameError::Truncated { got: 0, want: len },
        other => other,
    })?;
    Ok(payload)
}

fn read_full(r: &mut impl Read, buf: &mut [u8], want: usize) -> Result<(), FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(if got == 0 {
                    FrameError::Closed
                } else {
                    FrameError::Truncated {
                        got,
                        want: want.max(buf.len()),
                    }
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    Ok(())
}

/// The rendering of a response document: the batch CLI's text report or
/// its machine-readable JSON document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DocFormat {
    /// The human-readable report (`--format text`, the default).
    #[default]
    Text,
    /// The machine-readable document (`--format json`).
    Json,
}

impl DocFormat {
    /// Parses a `--format` value or the wire `format` field: `text` or
    /// `json`.
    pub fn parse(s: &str) -> Option<DocFormat> {
        match s {
            "text" => Some(DocFormat::Text),
            "json" => Some(DocFormat::Json),
            _ => None,
        }
    }
}

/// Per-request resource limits, all optional (absent = unlimited).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BudgetSpec {
    /// Derivation cap (`--budget`).
    pub derivations: Option<u64>,
    /// Wall-clock cap in milliseconds (`--timeout`, watchdog-enforced).
    pub ms: Option<u64>,
    /// Modeled-memory cap in bytes (`--max-bytes`).
    pub bytes: Option<u64>,
}

/// One analysis query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryRequest {
    /// What to compute: `stats`, `dump`, `pts`, `taint`, `races`, or an
    /// extension kind registered by the daemon (e.g. `lints`).
    pub kind: String,
    /// The variable for `pts` queries.
    pub var: Option<String>,
    /// Document rendering.
    pub format: DocFormat,
    /// Per-request ladder override (a [`crate::supervisor::LadderSpec`]).
    pub ladder: Option<String>,
    /// Per-request budgets.
    pub budget: BudgetSpec,
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Orderly daemon stop (acknowledged before the listener closes).
    Shutdown,
    /// An analysis query.
    Query(QueryRequest),
}

/// A response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Acknowledgement for `ping` / `shutdown`.
    Ok,
    /// The request was shed by admission control. Retry no sooner than
    /// `retry_after_ms` — the hint is part of the contract, and the
    /// bundled client's backoff floors at it.
    Busy {
        /// Backoff floor for the retry.
        retry_after_ms: u64,
    },
    /// The request failed (bad request, unknown kind, missing spec, …).
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// The query ran. `status` mirrors the supervisor verdict and
    /// `exit_code` its 0/3/4 contract; `doc` is byte-identical to the
    /// batch CLI's stdout for the same query.
    Doc {
        /// `complete`, `degraded`, or `exhausted`.
        status: String,
        /// 0 complete / 3 degraded / 4 exhausted.
        exit_code: u8,
        /// The analysis name that produced the document, if any rung
        /// completed.
        analysis: Option<String>,
        /// The rendered document.
        doc: String,
    },
}

impl Request {
    /// Renders the request as its single-line JSON wire form.
    pub fn render(&self) -> String {
        match self {
            Request::Ping => "{\"op\":\"ping\"}".to_owned(),
            Request::Shutdown => "{\"op\":\"shutdown\"}".to_owned(),
            Request::Query(q) => {
                let mut out = String::from("{\"op\":\"query\",\"kind\":");
                out.push_str(&json::escape(&q.kind));
                if let Some(var) = &q.var {
                    out.push_str(",\"var\":");
                    out.push_str(&json::escape(var));
                }
                if q.format == DocFormat::Json {
                    out.push_str(",\"format\":\"json\"");
                }
                if let Some(ladder) = &q.ladder {
                    out.push_str(",\"ladder\":");
                    out.push_str(&json::escape(ladder));
                }
                if let Some(n) = q.budget.derivations {
                    out.push_str(&format!(",\"budget_derivations\":{n}"));
                }
                if let Some(n) = q.budget.ms {
                    out.push_str(&format!(",\"budget_ms\":{n}"));
                }
                if let Some(n) = q.budget.bytes {
                    out.push_str(&format!(",\"budget_bytes\":{n}"));
                }
                out.push('}');
                out
            }
        }
    }

    /// Parses a request frame payload.
    pub fn parse(payload: &[u8]) -> Result<Request, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "frame is not UTF-8".to_owned())?;
        let value = json::parse(text)?;
        let op = value
            .get("op")
            .and_then(Value::as_str)
            .ok_or("request has no \"op\"")?;
        match op {
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "query" => {
                let kind = value
                    .get("kind")
                    .and_then(Value::as_str)
                    .ok_or("query has no \"kind\"")?
                    .to_owned();
                let format = match value.get("format").and_then(Value::as_str) {
                    None => DocFormat::Text,
                    Some(s) => {
                        DocFormat::parse(s).ok_or_else(|| format!("unknown format {s:?}"))?
                    }
                };
                let u64_field = |key: &str| -> Result<Option<u64>, String> {
                    match value.get(key) {
                        None | Some(Value::Null) => Ok(None),
                        Some(v) => v
                            .as_u64()
                            .map(Some)
                            .ok_or_else(|| format!("{key} is not a non-negative integer")),
                    }
                };
                Ok(Request::Query(QueryRequest {
                    kind,
                    var: value.get("var").and_then(Value::as_str).map(str::to_owned),
                    format,
                    ladder: value
                        .get("ladder")
                        .and_then(Value::as_str)
                        .map(str::to_owned),
                    budget: BudgetSpec {
                        derivations: u64_field("budget_derivations")?,
                        ms: u64_field("budget_ms")?,
                        bytes: u64_field("budget_bytes")?,
                    },
                }))
            }
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

impl Response {
    /// Renders the response as its single-line JSON wire form.
    pub fn render(&self) -> String {
        match self {
            Response::Ok => "{\"status\":\"ok\"}".to_owned(),
            Response::Busy { retry_after_ms } => {
                format!("{{\"status\":\"busy\",\"retry_after_ms\":{retry_after_ms}}}")
            }
            Response::Error { message } => {
                format!(
                    "{{\"status\":\"error\",\"error\":{}}}",
                    json::escape(message)
                )
            }
            Response::Doc {
                status,
                exit_code,
                analysis,
                doc,
            } => {
                let analysis = match analysis {
                    Some(name) => json::escape(name),
                    None => "null".to_owned(),
                };
                format!(
                    "{{\"status\":{},\"exit_code\":{exit_code},\"analysis\":{analysis},\"doc\":{}}}",
                    json::escape(status),
                    json::escape(doc)
                )
            }
        }
    }

    /// Parses a response frame payload.
    pub fn parse(payload: &[u8]) -> Result<Response, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "frame is not UTF-8".to_owned())?;
        let value = json::parse(text)?;
        let status = value
            .get("status")
            .and_then(Value::as_str)
            .ok_or("response has no \"status\"")?;
        match status {
            "ok" => Ok(Response::Ok),
            "busy" => Ok(Response::Busy {
                retry_after_ms: value
                    .get("retry_after_ms")
                    .and_then(Value::as_u64)
                    .ok_or("busy response has no retry_after_ms")?,
            }),
            "error" => Ok(Response::Error {
                message: value
                    .get("error")
                    .and_then(Value::as_str)
                    .ok_or("error response has no error message")?
                    .to_owned(),
            }),
            "complete" | "degraded" | "exhausted" => Ok(Response::Doc {
                status: status.to_owned(),
                exit_code: value
                    .get("exit_code")
                    .and_then(Value::as_u64)
                    .ok_or("doc response has no exit_code")? as u8,
                analysis: value
                    .get("analysis")
                    .and_then(Value::as_str)
                    .map(str::to_owned),
                doc: value
                    .get("doc")
                    .and_then(Value::as_str)
                    .ok_or("doc response has no doc")?
                    .to_owned(),
            }),
            other => Err(format!("unknown status {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        assert_eq!(buf.len(), 9);
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r, 16).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 16), Err(FrameError::Closed));
    }

    #[test]
    fn truncated_and_oversized_frames_are_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(7);
        assert_eq!(
            read_frame(&mut buf.as_slice(), 16),
            Err(FrameError::Truncated { got: 3, want: 5 })
        );
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 32]).unwrap();
        assert_eq!(
            read_frame(&mut buf.as_slice(), 16),
            Err(FrameError::Oversized { len: 32, max: 16 })
        );
        // Truncated mid-header.
        assert!(matches!(
            read_frame(&mut [0u8, 0].as_slice(), 16),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Ping,
            Request::Shutdown,
            Request::Query(QueryRequest {
                kind: "taint".into(),
                var: None,
                format: DocFormat::Json,
                ladder: Some("introB:2objH,insens".into()),
                budget: BudgetSpec {
                    derivations: Some(100_000),
                    ms: Some(2_000),
                    bytes: None,
                },
            }),
            Request::Query(QueryRequest {
                kind: "pts".into(),
                var: Some("Main.main::x".into()),
                format: DocFormat::Text,
                ladder: None,
                budget: BudgetSpec::default(),
            }),
        ];
        for req in reqs {
            let parsed = Request::parse(req.render().as_bytes()).unwrap();
            assert_eq!(parsed, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Ok,
            Response::Busy { retry_after_ms: 50 },
            Response::Error {
                message: "bad \"thing\"\n".into(),
            },
            Response::Doc {
                status: "degraded".into(),
                exit_code: 3,
                analysis: Some("insens".into()),
                doc: "a -> {Object}\n".into(),
            },
        ];
        for resp in resps {
            let parsed = Response::parse(resp.render().as_bytes()).unwrap();
            assert_eq!(parsed, resp);
        }
    }

    #[test]
    fn garbage_payloads_are_rejected() {
        assert!(Request::parse(b"\xff\xfe").is_err());
        assert!(Request::parse(b"{\"op\":12}").is_err());
        assert!(Request::parse(b"{\"op\":\"query\"}").is_err());
        assert!(Response::parse(b"{}").is_err());
    }
}
