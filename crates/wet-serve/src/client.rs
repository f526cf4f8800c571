//! Client side of the serve protocol: framing, deadlines, and retry
//! with capped exponential backoff.
//!
//! Retry policy: only errors the server marked `retriable` (shed under
//! overload, deadline exceeded when the caller asked for retries) are
//! retried, with exponential backoff capped at [`BACKOFF_CAP_MS`] and
//! full jitter — retrying a shed request immediately would just re-join
//! the stampede that caused the shedding.

use crate::json::{self, Value};
use crate::proto::{self, FrameReader, Poll};
use crate::server::{connect, Stream};
use std::io;
use std::time::{Duration, Instant};
use wet_core::fault::FaultRng;

/// First backoff step.
pub const BACKOFF_BASE_MS: u64 = 10;
/// Backoff ceiling: retries never sleep longer than this.
pub const BACKOFF_CAP_MS: u64 = 640;

/// One decoded server reply.
#[derive(Debug, Clone)]
pub enum Reply {
    Ok(Value),
    Err {
        kind: String,
        retriable: bool,
        message: String,
        /// The server's backoff hint: how long it suggests waiting
        /// before retrying, derived from its live pressure state.
        retry_after_ms: Option<u64>,
    },
}

impl Reply {
    pub fn is_ok(&self) -> bool {
        matches!(self, Reply::Ok(_))
    }

    pub fn kind(&self) -> &str {
        match self {
            Reply::Ok(_) => "ok",
            Reply::Err { kind, .. } => kind,
        }
    }
}

/// A connected protocol client.
pub struct Client {
    stream: Stream,
    reader: FrameReader,
    next_id: u64,
    rng: FaultRng,
    /// Longest we will wait for any single reply; `None` blocks
    /// indefinitely (long queries from interactive callers).
    reply_budget: Option<Duration>,
}

impl Client {
    /// Connects to `addr` (`:`-containing means TCP, else unix socket).
    /// No connect or reply deadline — long interactive queries block as
    /// long as they need; use [`connect_with`](Client::connect_with)
    /// for unattended callers that must not wedge.
    pub fn connect(addr: &str) -> io::Result<Client> {
        Ok(Client {
            stream: connect(addr)?,
            reader: FrameReader::new(),
            next_id: 1,
            rng: FaultRng::new(0x5eed_c11e),
            reply_budget: None,
        })
    }

    /// Connects with a bounded TCP connect and a per-reply wait budget:
    /// if the server accepts but never answers, calls fail with
    /// `TimedOut` instead of hanging. Unix sockets connect locally (no
    /// connect deadline needed) but still honour the reply budget.
    pub fn connect_with(
        addr: &str,
        connect_timeout: Duration,
        reply_budget: Duration,
    ) -> io::Result<Client> {
        let stream = if addr.contains(':') {
            use std::net::ToSocketAddrs;
            let mut last = io::Error::new(
                io::ErrorKind::NotFound,
                format!("no addresses resolved for {addr}"),
            );
            let mut conn = None;
            for sock in addr.to_socket_addrs()? {
                match std::net::TcpStream::connect_timeout(&sock, connect_timeout) {
                    Ok(c) => {
                        conn = Some(c);
                        break;
                    }
                    Err(e) => last = e,
                }
            }
            Stream::Tcp(conn.ok_or(last)?)
        } else {
            connect(addr)?
        };
        // A short socket read timeout turns blocked reads into
        // `Poll::Pending` ticks, letting `read_reply` check its
        // budget; the budget, not this tick, is the caller's deadline.
        stream.set_read_timeout(Duration::from_millis(100))?;
        Ok(Client {
            stream,
            reader: FrameReader::new(),
            next_id: 1,
            rng: FaultRng::new(0x5eed_c11e),
            reply_budget: Some(reply_budget),
        })
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Sends one request object (an `id` is filled in) and blocks for
    /// the matching response.
    pub fn call(&mut self, mut pairs: Vec<(&str, Value)>) -> io::Result<Reply> {
        let id = self.fresh_id();
        pairs.insert(0, ("id", Value::Int(id as i64)));
        let payload = json::obj(pairs).render().into_bytes();
        proto::write_frame(&mut self.stream, &payload)?;
        self.read_reply(id)
    }

    /// Reads frames until the one answering `id` arrives (the server
    /// multiplexes responses; cancel acks may interleave).
    fn read_reply(&mut self, id: u64) -> io::Result<Reply> {
        let start = Instant::now();
        loop {
            if let Some(budget) = self.reply_budget {
                if start.elapsed() > budget {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("no reply within {}ms", budget.as_millis()),
                    ));
                }
            }
            match self.reader.poll(&mut self.stream)? {
                Poll::Frame(payload) => {
                    let text = String::from_utf8(payload)
                        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response"))?;
                    let v = json::parse(&text)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response JSON: {e}")))?;
                    if v.get("id").and_then(Value::as_u64) != Some(id) {
                        continue;
                    }
                    return Ok(decode_reply(v));
                }
                Poll::Eof => {
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection"))
                }
                Poll::Pending => continue,
            }
        }
    }

    /// [`call`](Client::call) with up to `retries` additional attempts
    /// on retriable errors, sleeping `min(cap, base·2^attempt)` with
    /// full jitter between attempts. When the server's rejection
    /// carries a `retry_after_ms` hint, the hint is the *floor* of the
    /// sleep: jitter still spreads retries out, but no client comes
    /// back sooner than the overloaded server asked it to.
    pub fn call_with_retries(&mut self, pairs: Vec<(&str, Value)>, retries: u32) -> io::Result<Reply> {
        let mut attempt = 0u32;
        loop {
            let reply = self.call(pairs.clone())?;
            let (retriable, hint) = match &reply {
                Reply::Err { retriable: true, retry_after_ms, .. } => (true, *retry_after_ms),
                _ => (false, None),
            };
            if !retriable || attempt >= retries {
                return Ok(reply);
            }
            let exp = BACKOFF_BASE_MS.saturating_mul(1u64 << attempt.min(16));
            let cap = exp.min(BACKOFF_CAP_MS);
            // Full jitter: uniform in [0, cap] decorrelates retry storms.
            let sleep = self.rng.below(cap + 1).max(hint.unwrap_or(0));
            std::thread::sleep(Duration::from_millis(sleep));
            attempt += 1;
        }
    }

    /// Fire-and-forget cancel for an in-flight request id.
    pub fn cancel(&mut self, target: u64) -> io::Result<()> {
        let id = self.fresh_id();
        let payload = json::obj(vec![
            ("id", Value::Int(id as i64)),
            ("op", Value::Str("cancel".into())),
            ("target", Value::Int(target as i64)),
        ])
        .render()
        .into_bytes();
        proto::write_frame(&mut self.stream, &payload)
    }

    /// Sends a request without waiting, returning its id so a later
    /// [`cancel`](Client::cancel) or [`wait`](Client::wait) can refer
    /// to it.
    pub fn send(&mut self, mut pairs: Vec<(&str, Value)>) -> io::Result<u64> {
        let id = self.fresh_id();
        pairs.insert(0, ("id", Value::Int(id as i64)));
        let payload = json::obj(pairs).render().into_bytes();
        proto::write_frame(&mut self.stream, &payload)?;
        Ok(id)
    }

    /// Blocks for the response to a previously [`send`](Client::send)t
    /// request.
    pub fn wait(&mut self, id: u64) -> io::Result<Reply> {
        self.read_reply(id)
    }

    /// Opens a trace from `path` (relative to the server's store root)
    /// under id `trace` for `tenant` (both optional).
    pub fn open(&mut self, path: &str, trace: Option<&str>, tenant: Option<&str>) -> io::Result<Reply> {
        let mut pairs = vec![
            ("op", Value::Str("open".into())),
            ("path", Value::Str(path.into())),
        ];
        if let Some(t) = trace {
            pairs.push(("trace", Value::Str(t.into())));
        }
        if let Some(t) = tenant {
            pairs.push(("tenant", Value::Str(t.into())));
        }
        self.call(pairs)
    }

    /// Lists the server's open traces with residency detail.
    pub fn list(&mut self) -> io::Result<Reply> {
        self.call(vec![("op", Value::Str("list".into()))])
    }

    /// Closes an open trace by id.
    pub fn close(&mut self, trace: &str) -> io::Result<Reply> {
        self.call(vec![
            ("op", Value::Str("close".into())),
            ("trace", Value::Str(trace.into())),
        ])
    }
}

/// Decodes a response document into a [`Reply`].
pub fn decode_reply(v: Value) -> Reply {
    if v.get("ok").and_then(Value::as_bool) == Some(true) {
        // Moved out, not cloned: a large result is held once.
        let result = match v {
            Value::Obj(pairs) => pairs.into_iter().find(|(k, _)| k == "result").map(|(_, r)| r),
            _ => None,
        };
        return Reply::Ok(result.unwrap_or(Value::Null));
    }
    let err = v.get("error");
    Reply::Err {
        kind: err
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string(),
        retriable: err
            .and_then(|e| e.get("retriable"))
            .and_then(Value::as_bool)
            .unwrap_or(false),
        message: err
            .and_then(|e| e.get("message"))
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
        retry_after_ms: err.and_then(|e| e.get("retry_after_ms")).and_then(Value::as_u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A server that accepts but never answers: with a reply budget the
    /// call fails `TimedOut` instead of blocking forever.
    #[test]
    fn budgeted_client_times_out_on_unanswered_call() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let hold = std::thread::spawn(move || {
            let conn = listener.accept().map(|(c, _)| c);
            std::thread::sleep(Duration::from_secs(2));
            drop(conn);
        });
        let mut client = Client::connect_with(
            &addr,
            Duration::from_secs(1),
            Duration::from_millis(300),
        )
        .unwrap();
        let start = Instant::now();
        let err = client
            .call(vec![("op", Value::Str("stats".into()))])
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "got {err}");
        assert!(start.elapsed() < Duration::from_secs(2));
        drop(hold);
    }
}
