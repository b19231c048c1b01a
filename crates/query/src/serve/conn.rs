//! One client connection's socket work: nonblocking reads feed the
//! connection's [`Session`] (which frames, batch-executes and renders
//! into the connection's write buffer), and the buffer drains as the
//! socket accepts bytes. Also here: FIN after the final flush, the
//! discard linger of a closing connection, and the accept-to-first-byte
//! latency.
//!
//! Partial reads and partial writes are normal states, not errors: a
//! query split across two TCP segments reassembles in the session's
//! framer, and a response the peer is slow to read simply stays
//! buffered (until the event loop's backpressure cap stops further
//! reads, and eventually the idle timeout sheds the connection).

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use crate::engine::QueryEngine;
use crate::serve::session::{push_line, End, Session};

/// What one read-and-process step observed.
#[derive(Debug, Default)]
pub(crate) struct ReadOutcome {
    /// Bytes consumed from the socket.
    pub bytes_in: u64,
    /// A `shutdown` control line arrived: stop the whole server.
    pub shutdown: bool,
}

/// One client connection.
pub(crate) struct Conn {
    stream: TcpStream,
    session: Session,
    wbuf: Vec<u8>,
    wpos: usize,
    /// After `quit`/`shutdown`/EOF: stop reading, flush, then close.
    pub(crate) closing: bool,
    /// Whether this connection is counted in the shared live-session
    /// total (set at admission, cleared exactly once on the closing
    /// transition or the drop — whichever the shard sees first).
    pub(crate) counted_live: bool,
    /// Write side half-closed (FIN sent after the final flush).
    fin_sent: bool,
    /// Last instant any byte moved in either direction.
    pub(crate) last_activity: Instant,
    /// When the listener handed us this socket — the start of the
    /// accept-to-first-byte latency measurement.
    accepted_at: Instant,
    /// Whether the first request byte has been seen (the latency above
    /// is recorded exactly once, on that byte).
    saw_first_byte: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, max_line_len: usize) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        // Responses are written in one buffered burst per batch; disabling
        // Nagle keeps pipelined round trips from waiting on delayed ACKs.
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            session: Session::new(max_line_len),
            wbuf: Vec::new(),
            wpos: 0,
            closing: false,
            counted_live: false,
            fin_sent: false,
            last_activity: Instant::now(),
            accepted_at: Instant::now(),
            saw_first_byte: false,
        })
    }

    /// Half-closes the write side once (after the final flush), so the
    /// peer sees the last response followed by FIN.
    pub(crate) fn send_fin(&mut self) {
        if !self.fin_sent {
            let _ = self.stream.shutdown(std::net::Shutdown::Write);
            self.fin_sent = true;
        }
    }

    /// Drains and discards whatever the peer is still sending to a
    /// closing connection. Dropping a socket with unread bytes queued
    /// turns the close into a RST, which can destroy the final in-flight
    /// responses (including the `server full` rejection notice) — so a
    /// closing connection lingers, discarding input, until the peer
    /// closes too (`Ok(true)`: safe to drop) or the idle timeout sheds
    /// it.
    pub(crate) fn discard_input(&mut self, rbuf: &mut [u8]) -> io::Result<bool> {
        loop {
            match self.stream.read(rbuf) {
                Ok(0) => return Ok(true),
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Bytes queued but not yet accepted by the socket.
    pub(crate) fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// The raw fd the readiness backend keys on (unused by the sweep
    /// backend, which is the only one off unix).
    pub(crate) fn raw_fd(&self) -> i32 {
        crate::serve::poll::fd_of(&self.stream)
    }

    /// `true` once the connection is done and fully flushed.
    pub(crate) fn wants_close(&self) -> bool {
        self.closing && self.pending_write() == 0
    }

    /// Writes as much buffered output as the socket accepts right now.
    /// Returns the bytes written; `WouldBlock` is a normal partial write.
    pub(crate) fn flush(&mut self) -> io::Result<u64> {
        let mut written = 0u64;
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wpos += n;
                    written += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > 64 * 1024 {
            // Reclaim the drained prefix so a long-lived slow reader does
            // not hold its whole history in memory.
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        Ok(written)
    }

    /// One nonblocking read, handed to the session. All the read's
    /// parseable queries go through the engine as a single batch, so a
    /// client that writes N lines per segment gets the planner's
    /// shard-parallel execution for free.
    pub(crate) fn read_and_process(
        &mut self,
        engine: &QueryEngine,
        rbuf: &mut [u8],
    ) -> io::Result<ReadOutcome> {
        let mut out = ReadOutcome::default();
        let end = match self.stream.read(rbuf) {
            Ok(0) => {
                // The peer half-closed: flush what remains, then close.
                self.closing = true;
                self.session
                    .finish(engine, &mut self.wbuf, &mut spell_error)
            }
            Ok(n) => {
                out.bytes_in = n as u64;
                if !self.saw_first_byte {
                    self.saw_first_byte = true;
                    engine
                        .metrics()
                        .serve_accept_to_first_byte_seconds
                        .record(self.accepted_at.elapsed());
                }
                self.session
                    .feed(engine, &rbuf[..n], &mut self.wbuf, &mut spell_error)
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(out),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(out),
            Err(e) => return Err(e),
        };
        if let Some(end) = end {
            self.closing = true;
            out.shutdown = end == End::Shutdown;
        }
        Ok(out)
    }

    /// Queues a server-originated notice (used for overload rejection).
    pub(crate) fn push_notice(&mut self, text: &str) {
        push_line(&mut self.wbuf, text);
    }
}

/// The TCP spelling of a failed line: an in-band response naming it.
fn spell_error(out: &mut Vec<u8>, line: usize, msg: &str) {
    push_line(out, &format!("error line {line}: {msg}"));
}
