//! Closed-loop TCP clients for the serve front end. Every query sent is
//! counted as attempted; error responses, mismatches against the
//! expected answer, short reads, timeouts and refused connects are
//! counted as failed.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::sys::sample_ns;
use crate::trace::Tracer;
use crate::Tally;

/// How long a client waits for an answer before counting a timeout.
pub const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// One connection: a writer and a buffered reader over the same socket.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects to `addr`, counting the attempt (and its failure).
    pub fn open(addr: SocketAddr, tally: &mut Tally) -> Option<Conn> {
        tally.attempt(1);
        let setup = || -> std::io::Result<Conn> {
            let s = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(READ_TIMEOUT))?;
            s.set_write_timeout(Some(READ_TIMEOUT))?;
            Ok(Conn {
                writer: s.try_clone()?,
                reader: BufReader::with_capacity(1 << 16, s),
            })
        };
        match setup() {
            Ok(c) => Some(c),
            Err(e) => {
                tally.fail(1, format!("connect {addr}: {e}"));
                None
            }
        }
    }

    /// Reads one response line (without its newline). A closed
    /// connection is a short read.
    fn read_line(&mut self, buf: &mut String) -> Result<(), String> {
        buf.clear();
        match self.reader.read_line(buf) {
            Ok(0) => Err("short read: server closed the connection".to_string()),
            Ok(_) => {
                if buf.ends_with('\n') {
                    buf.pop();
                }
                Ok(())
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Sends `quit` and waits for the server to close the connection.
    pub fn close(mut self) {
        if self.writer.write_all(b"quit\n").is_ok() {
            let mut rest = String::new();
            while matches!(self.reader.read_line(&mut rest), Ok(n) if n > 0) {
                rest.clear();
            }
        }
    }

    /// Sends one REPL listing and returns its lines, reading up to the
    /// `pong` of a `ping` sent behind it.
    pub fn listing(&mut self, command: &str) -> Result<Vec<String>, String> {
        self.writer
            .write_all(format!("{command}\nping\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut lines = Vec::new();
        let mut buf = String::new();
        loop {
            self.read_line(&mut buf)?;
            if buf == "pong" {
                return Ok(lines);
            }
            lines.push(buf.clone());
        }
    }
}

/// What a pipelined client saw.
#[derive(Debug, Default)]
pub struct PipeResult {
    /// The longest wait between two consecutive responses.
    pub max_gap: Duration,
    /// Attempts and failures.
    pub tally: Tally,
}

/// Keeps `depth` single-line queries in flight on each of `conns`
/// connections, all driven from the calling thread, until `stop`: each
/// round writes one block per connection, then reads every block's
/// answers, so the server works on one connection's block while the
/// client reads the other's. Each answer must not be an error and, when
/// `expected` is given, must equal it byte for byte. Connection `c`
/// starts at line `c * lines.len() / conns` and cycles; slices are
/// counted from `t0`.
#[allow(clippy::too_many_arguments)]
pub fn pipelined(
    addr: SocketAddr,
    conns: usize,
    lines: &[String],
    expected: Option<&[String]>,
    depth: usize,
    stop: &AtomicBool,
    tr: &Tracer,
) -> PipeResult {
    let mut res = PipeResult::default();
    let mut open: Vec<(Conn, usize)> = (0..conns)
        .filter_map(|c| {
            Conn::open(addr, &mut res.tally).map(|conn| (conn, c * lines.len() / conns))
        })
        .collect();
    let mut block = String::new();
    let mut buf = String::new();
    let mut last_rx: Option<Instant> = None;
    'run: while !open.is_empty() && !stop.load(Ordering::Acquire) {
        let _span = tr.span("client.round", 0);
        for (conn, cursor) in open.iter_mut() {
            block.clear();
            for k in 0..depth {
                block.push_str(&lines[(*cursor + k) % lines.len()]);
                block.push('\n');
            }
            res.tally.attempt(depth as u64);
            if let Err(e) = conn.writer.write_all(block.as_bytes()) {
                res.tally.fail(depth as u64, format!("send: {e}"));
                break 'run;
            }
        }
        let n = open.len();
        for (i, (conn, cursor)) in open.iter_mut().enumerate() {
            for k in 0..depth {
                if let Err(e) = conn.read_line(&mut buf) {
                    let unread = depth - k + depth * (n - 1 - i);
                    res.tally.fail(unread as u64, e);
                    break 'run;
                }
                let now = Instant::now();
                if let Some(prev) = last_rx {
                    res.max_gap = res.max_gap.max(now - prev);
                }
                last_rx = Some(now);
                let idx = (*cursor + k) % lines.len();
                if buf.starts_with("error") {
                    res.tally
                        .fail(1, format!("'{}' answered '{buf}'", lines[idx]));
                } else if let Some(exp) = expected {
                    if buf != exp[idx] {
                        let want = &exp[idx];
                        res.tally.fail(
                            1,
                            format!("'{}' answered '{buf}', expected '{want}'", lines[idx]),
                        );
                    }
                }
            }
            *cursor = (*cursor + depth) % lines.len();
        }
    }
    for (conn, _) in open {
        conn.close();
    }
    res
}

/// What an interactive client saw.
#[derive(Debug, Default)]
pub struct InteractiveResult {
    /// `(kind, latency)` of every answered query; `kind` indexes the
    /// caller's query classes.
    pub samples: Vec<(u8, u32)>,
    /// Attempts and failures.
    pub tally: Tally,
}

/// One query in flight at a time until `stop`: send a line, read every
/// line of its expected answer, compare, repeat. Follows `schedule` (line
/// indices) from position `start`; `kinds[i]` classifies line `i`.
#[allow(clippy::too_many_arguments)]
pub fn interactive(
    addr: SocketAddr,
    lines: &[String],
    expected: &[String],
    kinds: &[u8],
    schedule: &[usize],
    start: usize,
    stop: &AtomicBool,
    tr: &Tracer,
) -> InteractiveResult {
    let mut res = InteractiveResult::default();
    let Some(mut conn) = Conn::open(addr, &mut res.tally) else {
        return res;
    };
    let mut pos = start % schedule.len();
    let mut answer = String::new();
    let mut buf = String::new();
    while !stop.load(Ordering::Acquire) {
        let i = schedule[pos];
        pos = (pos + 1) % schedule.len();
        let _span = tr.span("client.query", 0);
        res.tally.attempt(1);
        let sent = Instant::now();
        if let Err(e) = conn.writer.write_all(format!("{}\n", lines[i]).as_bytes()) {
            res.tally.fail(1, format!("send: {e}"));
            break;
        }
        answer.clear();
        let mut failed = None;
        for k in 0..expected[i].lines().count().max(1) {
            if let Err(e) = conn.read_line(&mut buf) {
                failed = Some(e);
                break;
            }
            if k > 0 {
                answer.push('\n');
            }
            answer.push_str(&buf);
        }
        if let Some(e) = failed {
            res.tally.fail(1, e);
            break;
        }
        res.samples.push((kinds[i], sample_ns(sent.elapsed())));
        if answer != expected[i] {
            res.tally.fail(
                1,
                format!(
                    "'{}' answered '{answer}', expected '{}'",
                    lines[i], expected[i]
                ),
            );
        }
    }
    conn.close();
    res
}
