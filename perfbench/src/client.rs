//! A single closed-loop client driving [`brevald::Server::serve`] through
//! in-memory transport.
//!
//! The serve loop reads one request, answers it, flushes, and only then
//! asks for the next line, so the reader's "next request" moment is the
//! client sending after the previous reply arrived. The reader stamps
//! each request as it is handed out; the writer stamps the reply line
//! that completes it. Request bytes are generated before the stamp, so
//! generating the transcript is not timed.

use crate::transcript::{Request, Transcript};
use brevald::SnapshotStore;
use std::cell::RefCell;
use std::io::{BufRead, Read, Write};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// What one serve session measured.
#[derive(Debug, Default)]
pub struct Session {
    /// Per single-line query: ns from send to reply.
    pub single_ns: Vec<u64>,
    /// Per `batch`: ns from sending `batch` to its last reply line.
    pub batch_ns: Vec<u64>,
    /// Per landed reload: ns from sending `reload` until the next request
    /// is sent against the new generation.
    pub reload_ns: Vec<u64>,
    /// Queries sent (single-line plus batched).
    pub queries: u64,
    /// Requests of every kind sent.
    pub requests: u64,
    /// Reloads issued.
    pub reloads_issued: u64,
    /// Reply lines starting `ok `.
    pub replies_ok: u64,
    /// Reply lines that did not.
    pub replies_err: u64,
    /// The first few non-`ok` replies, for the log.
    pub err_examples: Vec<String>,
    /// Replies that arrived with no request in flight, or requests sent
    /// before the previous one was fully answered.
    pub protocol_faults: u64,
}

struct InFlight {
    request: Request,
    sent: Instant,
    replies_left: usize,
}

struct State {
    store: Arc<SnapshotStore>,
    in_flight: Option<InFlight>,
    /// (sent, generation that marks it landed) of the pending reload.
    pending_reload: Option<(Instant, u64)>,
    session: Session,
    /// Bytes of the reply line being received (only its head is kept).
    line_head: Vec<u8>,
}

impl State {
    fn reply_line_done(&mut self) {
        if self.line_head.starts_with(b"ok ") {
            self.session.replies_ok += 1;
        } else {
            self.session.replies_err += 1;
            if self.session.err_examples.len() < 5 {
                let text = String::from_utf8_lossy(&self.line_head).into_owned();
                self.session.err_examples.push(text);
            }
        }
        self.line_head.clear();
        let Some(flight) = self.in_flight.as_mut() else {
            self.session.protocol_faults += 1;
            return;
        };
        flight.replies_left = flight.replies_left.saturating_sub(1);
        if flight.replies_left > 0 {
            return;
        }
        let ns = flight.sent.elapsed().as_nanos() as u64;
        match &flight.request {
            Request::Single { .. } => self.session.single_ns.push(ns),
            Request::Batch(_) => self.session.batch_ns.push(ns),
            _ => {}
        }
        self.in_flight = None;
    }
}

/// The client's request side, handed to the server as its input.
pub struct Reader {
    transcript: Transcript,
    state: Rc<RefCell<State>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Reader {
    fn send_next(&mut self) {
        self.buf.clear();
        self.pos = 0;
        let Some(request) = self.transcript.next() else {
            return;
        };
        request.write_to(&mut self.buf);
        let mut state = self.state.borrow_mut();
        if let Some((sent, landed_at)) = state.pending_reload {
            if state.store.current().generation() >= landed_at {
                state
                    .session
                    .reload_ns
                    .push(sent.elapsed().as_nanos() as u64);
                state.pending_reload = None;
            }
        }
        if state.in_flight.is_some() {
            state.session.protocol_faults += 1;
        }
        let now = Instant::now();
        state.session.requests += 1;
        match &request {
            Request::Single { .. } | Request::Batch(_) => {
                state.session.queries += request.replies() as u64;
            }
            Request::Reload => {
                state.session.reloads_issued += 1;
                // A drain precedes every reload, so this one publishes the
                // next generation.
                let landed_at = state.store.current().generation() + 1;
                state.pending_reload = Some((now, landed_at));
            }
            _ => {}
        }
        state.in_flight = Some(InFlight {
            replies_left: request.replies(),
            request,
            sent: now,
        });
    }
}

impl Read for Reader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Reader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            self.send_next();
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.buf.len());
    }
}

/// The client's reply side, handed to the server as its output.
pub struct Writer {
    state: Rc<RefCell<State>>,
}

impl Write for Writer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut state = self.state.borrow_mut();
        let mut rest = buf;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            let keep = 64usize.saturating_sub(state.line_head.len()).min(nl);
            state.line_head.extend_from_slice(&rest[..keep]);
            state.reply_line_done();
            rest = &rest[nl + 1..];
        }
        let keep = 64usize
            .saturating_sub(state.line_head.len())
            .min(rest.len());
        state.line_head.extend_from_slice(&rest[..keep]);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs `server` over `transcript` and returns what the session measured.
pub fn run(server: &mut brevald::Server, transcript: Transcript) -> std::io::Result<Session> {
    let state = Rc::new(RefCell::new(State {
        store: Arc::clone(server.store()),
        in_flight: None,
        pending_reload: None,
        session: Session::default(),
        line_head: Vec::with_capacity(64),
    }));
    let reader = Reader {
        transcript,
        state: Rc::clone(&state),
        buf: Vec::new(),
        pos: 0,
    };
    let writer = Writer {
        state: Rc::clone(&state),
    };
    server.serve(reader, writer)?;
    let mut state = state.borrow_mut();
    if state.in_flight.is_some() {
        state.session.protocol_faults += 1;
    }
    Ok(std::mem::take(&mut state.session))
}
