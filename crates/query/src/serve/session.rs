//! One session for every front end.
//!
//! A "session" is a stream of grammar lines — the stdin REPL, a
//! `--queries` file, or one TCP connection. [`Session`] is the whole
//! transport-agnostic state machine: it frames arbitrarily chunked bytes
//! into lines ([`LineFramer`]), gives each line its meaning
//! ([`classify_line`]), executes every REPL-free run of a chunk's
//! queries as one engine batch, and renders the answers in input order
//! into the caller's buffer. REPL listings render through
//! [`repl_reply`]. The transport only moves bytes and spells errors, so
//! the daemon's stdin path and the [`serve`](crate::serve) front end
//! produce **byte-identical** output for the same lines and count
//! queries and errors in the same metrics.

use std::time::Instant;

use rpi_store::SegmentKind;

use crate::engine::QueryEngine;
use crate::proto::{
    parse, parse_control, render_response, Control, Frame, LineFramer, ParseError, QueryRequest,
    GRAMMAR,
};
use crate::snapshot::{SnapshotId, VantageKind};

/// Which control line ended a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// `quit` / `exit`: this session is over.
    Quit,
    /// `shutdown`: this session is over, and a server should stop too.
    Shutdown,
}

/// How a transport spells one failed line into its output: the buffer
/// rendered so far, the failed line's 1-based number, and the message.
pub type OnError<'a> = dyn FnMut(&mut Vec<u8>, usize, &str) + 'a;

/// The per-session state machine: framing → classify → batch-execute →
/// render. Feed it bytes as they arrive, in any chunking; the rendered
/// output is the same bytes either way, because REPL listings split a
/// chunk's batches exactly where a line-by-line session would observe
/// the engine.
#[derive(Debug)]
pub struct Session {
    framer: LineFramer,
    max_line_len: usize,
    ended: Option<End>,
}

impl Session {
    /// A fresh session refusing lines longer than `max_line_len` bytes
    /// (they become one in-band error each).
    pub fn new(max_line_len: usize) -> Session {
        Session {
            framer: LineFramer::new(max_line_len),
            max_line_len,
            ended: None,
        }
    }

    /// Processes one chunk of the byte stream against `engine`: every
    /// line it completes is answered into `out`, errors are spelled by
    /// `on_error`. Returns the control line that ended the session, if
    /// one has arrived; after it, further input is ignored (lines after
    /// `quit` are never executed).
    pub fn feed(
        &mut self,
        engine: &QueryEngine,
        bytes: &[u8],
        out: &mut Vec<u8>,
        on_error: &mut OnError<'_>,
    ) -> Option<End> {
        if self.ended.is_none() {
            let frames = self.framer.push(bytes);
            self.process(engine, frames, out, on_error);
        }
        self.ended
    }

    /// The end of the stream: answers a final unterminated line, the
    /// way `str::lines` yields one — a TCP peer that half-closes after
    /// an unterminated query gets what a file would.
    pub fn finish(
        &mut self,
        engine: &QueryEngine,
        out: &mut Vec<u8>,
        on_error: &mut OnError<'_>,
    ) -> Option<End> {
        if self.ended.is_none() {
            let tail: Vec<Frame> = self.framer.finish().into_iter().collect();
            self.process(engine, tail, out, on_error);
        }
        self.ended
    }

    /// Classifies the completed frames (stopping at a session-ending
    /// control), batch-executes the queries among them, and renders
    /// every output line *in input order*.
    fn process(
        &mut self,
        engine: &QueryEngine,
        frames: Vec<Frame>,
        out: &mut Vec<u8>,
        on_error: &mut OnError<'_>,
    ) {
        // The raw text rides along so a slow segment can quote its first
        // query verbatim in the slowlog.
        let mut items: Vec<(usize, Line, String)> = Vec::with_capacity(frames.len());
        for frame in frames {
            match frame {
                Frame::Line { line, text } => {
                    let class = classify_line(&text);
                    let end = match class {
                        Line::Control(Control::Quit) => Some(End::Quit),
                        Line::Control(Control::Shutdown) => Some(End::Shutdown),
                        _ => None,
                    };
                    items.push((line, class, text));
                    if end.is_some() {
                        // Lines after a quit are not executed.
                        self.ended = end;
                        break;
                    }
                }
                Frame::Oversized { line, length } => items.push((
                    line,
                    Line::Bad(format!(
                        "line too long ({length}+ bytes, cap {})",
                        self.max_line_len
                    )),
                    String::new(),
                )),
            }
        }

        // Pipelining: every REPL-free run of this chunk's queries is one
        // engine batch. REPL listings split the runs: a listing reports
        // live engine counters (ROV cache stats, per-verb counts), so it
        // must observe the engine exactly where a line-by-line session
        // would — queries *after* it in the same chunk execute only
        // after its reply is rendered.
        let mut start = 0;
        loop {
            let end = items[start..]
                .iter()
                .position(|(_, l, _)| matches!(l, Line::Repl(_)))
                .map_or(items.len(), |p| start + p);
            run_segment(engine, &items[start..end], out, on_error);
            let Some((_, Line::Repl(cmd), _)) = items.get(end) else {
                break;
            };
            push_line(out, &repl_reply(engine, *cmd));
            start = end + 1;
        }
    }
}

/// Executes one REPL-free run of classified lines — its queries as a
/// single engine batch (a lone query skips the batch planner's thread
/// scaffolding) — rendering every output line in input order.
fn run_segment(
    engine: &QueryEngine,
    segment: &[(usize, Line, String)],
    out: &mut Vec<u8>,
    on_error: &mut OnError<'_>,
) {
    let reqs: Vec<_> = segment
        .iter()
        .filter_map(|(_, l, _)| match l {
            Line::Query(req) => Some(req.clone()),
            _ => None,
        })
        .collect();
    // Latency is the whole segment — execute *and* render — because
    // that is what the client observes between its last pipelined byte
    // and the first response byte being queued. Every query in the
    // segment is attributed the segment's wall time.
    let seg_start = (!reqs.is_empty()).then(Instant::now);
    let mut answers = if reqs.len() > 1 {
        engine.execute_batch(&reqs).into_iter()
    } else {
        reqs.iter()
            .map(|r| engine.execute(r))
            .collect::<Vec<_>>()
            .into_iter()
    };

    let m = engine.metrics();
    let mut fail = |out: &mut Vec<u8>, line: usize, msg: &str| {
        m.serve_errors_total.inc();
        on_error(out, line, msg);
    };
    for (line_no, item, _) in segment {
        match item {
            Line::Skip | Line::Control(Control::Quit) | Line::Control(Control::Shutdown) => {}
            Line::Control(Control::Ping) => push_line(out, "pong"),
            Line::Repl(_) => unreachable!("segments are split at REPL commands"),
            Line::Query(req) => match answers.next().expect("one answer per batched query") {
                Ok(resp) => push_line(out, &render_response(req, &resp)),
                Err(e) => fail(out, *line_no, &e.to_string()),
            },
            Line::Bad(msg) => fail(out, *line_no, msg),
        }
    }

    if let Some(t0) = seg_start {
        let elapsed = t0.elapsed();
        for req in &reqs {
            let v = req.query.verb_index();
            m.serve_queries_total[v].inc();
            m.serve_query_seconds[v].record(elapsed);
        }
        if m.slow_threshold().is_some_and(|thr| elapsed >= thr) {
            let first = segment
                .iter()
                .find_map(|(_, l, text)| matches!(l, Line::Query(_)).then_some(text.trim()))
                .unwrap_or("");
            m.push_slow(elapsed, reqs.len() as u64, first);
        }
    }
}

/// Appends one newline-terminated output line.
pub(crate) fn push_line(out: &mut Vec<u8>, text: &str) {
    out.extend_from_slice(text.as_bytes());
    out.push(b'\n');
}

/// What the REPL line said, beyond the query grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplCmd {
    /// `help` — the grammar plus the session commands.
    Help,
    /// `snapshots` — one line per ingested snapshot (label, vantage
    /// count, trie sharing, on-disk cost).
    Snapshots,
    /// `archive` — the on-disk segment listing, if the engine was
    /// loaded from (or saved to) an `rpi-store` archive.
    Archive,
    /// `vantages` — every vantage AS and its kind.
    Vantages,
    /// `metrics` — the full Prometheus-style exposition of the engine's
    /// metrics registry (sorted, deterministic key set).
    Metrics,
    /// `metrics names` — just the `name kind` schema of the registry,
    /// value-free so goldens can pin it.
    MetricsNames,
    /// `stats` — per-verb counts and latency percentiles plus the
    /// per-stage timing table, human-shaped.
    Stats,
    /// `slowlog` — the bounded ring of recent slow query segments
    /// (requires `--slow-query-ms`).
    Slowlog,
}

/// The meaning of one session line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Line {
    /// Blank or `#` comment: no output.
    Skip,
    /// A control verb (`ping` / `quit` / `shutdown`).
    Control(Control),
    /// A REPL listing command.
    Repl(ReplCmd),
    /// A grammar query, parsed and ready for the engine.
    Query(QueryRequest),
    /// An unparseable line, with the message a front end should report.
    Bad(String),
}

/// Classifies one line the way the daemon's REPL always has: blank and
/// comment lines are skipped, control and listing verbs are recognized
/// first, everything else goes through the shared protocol grammar.
pub fn classify_line(line: &str) -> Line {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Line::Skip;
    }
    if let Some(c) = parse_control(trimmed) {
        return Line::Control(c);
    }
    match trimmed {
        "help" => return Line::Repl(ReplCmd::Help),
        "snapshots" => return Line::Repl(ReplCmd::Snapshots),
        "archive" => return Line::Repl(ReplCmd::Archive),
        "vantages" => return Line::Repl(ReplCmd::Vantages),
        "metrics" => return Line::Repl(ReplCmd::Metrics),
        "metrics names" => return Line::Repl(ReplCmd::MetricsNames),
        "stats" => return Line::Repl(ReplCmd::Stats),
        "slowlog" => return Line::Repl(ReplCmd::Slowlog),
        _ => {}
    }
    match parse(trimmed) {
        Ok(req) => Line::Query(req),
        // The Display of an unknown-query error lists the whole grammar.
        Err(e @ ParseError::UnknownQuery(_)) => Line::Bad(e.to_string()),
        Err(e) => Line::Bad(format!("{e} (type 'help' for the grammar)")),
    }
}

/// `123 B` / `1.2 KiB` / `3.4 MiB` — the size spelling every listing
/// shares (and the goldens pin).
pub fn fmt_bytes(bytes: u64) -> String {
    if bytes < 1024 {
        format!("{bytes} B")
    } else if bytes < 1024 * 1024 {
        format!("{:.1} KiB", bytes as f64 / 1024.0)
    } else {
        format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
    }
}

/// Renders a listing command's reply (no trailing newline; the
/// [`Session`] adds the line framing).
pub fn repl_reply(engine: &QueryEngine, cmd: ReplCmd) -> String {
    match cmd {
        ReplCmd::Help => format!(
            "{GRAMMAR}\nrepl: snapshots (list snapshots), vantages (list vantages), \
             archive (list on-disk segments), stats (per-verb latency percentiles), \
             metrics (Prometheus-style exposition; 'metrics names' for the schema), \
             slowlog (recent slow segments, needs --slow-query-ms), \
             ping, quit, shutdown (stop the whole server)\n\
             serve scale (daemon flags): --backend sweep|epoll|auto picks the \
             readiness backend, --serve-threads N shards connections across N \
             event-loop threads, --idle-timeout SECS tunes connection shedding"
        ),
        ReplCmd::Snapshots => {
            // A tier-attached engine lists residency instead of trie
            // sharing (cold snapshots have no hydrated tries to share,
            // and counting their vantages must not hydrate them).
            let tiered = engine.tier_stats().is_some();
            let mut lines: Vec<String> = engine
                .labels()
                .into_iter()
                .enumerate()
                .map(|(i, l)| {
                    let id = SnapshotId(i as u32);
                    let disk = match engine.segment_meta(id) {
                        Some(meta) => {
                            format!(", disk {} ({})", fmt_bytes(meta.bytes), meta.kind.name())
                        }
                        None => ", disk -".to_string(),
                    };
                    if tiered {
                        let residency = match engine.residency(id) {
                            Some(crate::tier::Residency::Hot) => "hot",
                            _ => "cold",
                        };
                        format!("{i}: {l} ({residency}{disk})")
                    } else {
                        let n = engine.vantages_in(id).len();
                        let sharing = match engine.sharing_with_prev(id) {
                            Some((shared, total)) if shared > 0 => {
                                format!(", {shared}/{total} trie nodes shared with prev")
                            }
                            _ => String::new(),
                        };
                        // Storage next to sharing: what the snapshot
                        // costs on disk when the engine lives in an
                        // archive.
                        format!("{i}: {l} ({n} vantages{sharing}{disk})")
                    }
                })
                .collect();
            if let Some(t) = engine.tier_stats() {
                lines.push(format!(
                    "tier: {}/{} hot (cap {}), {} attaches, {} hydrations, \
                     {} evictions, {} cold hits",
                    t.hot, t.snapshots, t.hot_cap, t.attaches, t.hydrations, t.evictions,
                    t.cold_hits,
                ));
            }
            // Security state rides along: the loaded ROA table and the
            // engine-lifetime ROV/detection counters.
            let cache = engine.rov_cache_stats();
            let (rov, hijacks, leaks) = engine.sec_query_counts();
            lines.push(format!(
                "sec: {} ROAs, rov cache {} hits / {} misses, \
                 queries rov {rov} / hijacks {hijacks} / leaks {leaks}",
                engine.roa_table().len(),
                cache.hits,
                cache.misses,
            ));
            lines.join("\n")
        }
        ReplCmd::Archive => match engine.archive_info() {
            None => "no archive: engine built in memory (load one with --archive, write one with --save)".to_string(),
            Some(info) => {
                let mut lines = vec![format!(
                    "archive {} ({} segments, {} on disk)",
                    info.dir.display(),
                    1 + info.snapshots.len() + usize::from(info.roas.is_some()),
                    fmt_bytes(info.total_bytes() as u64),
                )];
                // Chain structure: each snapshot's replay distance from
                // the nearest keyframe (a self-contained full segment a
                // cold reader can attach to). Pre-keyframe archives have
                // no flagged segments and print no suffixes.
                let mut depths: Vec<Option<usize>> = Vec::with_capacity(info.snapshots.len());
                for meta in &info.snapshots {
                    let depth = if meta.keyframe {
                        Some(0)
                    } else {
                        depths.last().copied().flatten().map(|d| d + 1)
                    };
                    depths.push(depth);
                }
                let mut snap_idx = 0usize;
                let all = std::iter::once(&info.symbols)
                    .chain(&info.snapshots)
                    .chain(&info.roas);
                for meta in all {
                    let label = if meta.label.is_empty() {
                        String::new()
                    } else {
                        format!(" label {}", meta.label)
                    };
                    let chain = match meta.kind {
                        SegmentKind::Full | SegmentKind::Delta => {
                            let d = depths[snap_idx];
                            snap_idx += 1;
                            match d {
                                Some(0) => " [keyframe]".to_string(),
                                Some(d) => format!(" [chain {d}]"),
                                None => String::new(),
                            }
                        }
                        _ => String::new(),
                    };
                    lines.push(format!(
                        "  {}: {} {} {} crc 0x{:08x}{label}{chain}",
                        meta.index,
                        meta.file,
                        meta.kind.name(),
                        fmt_bytes(meta.bytes),
                        meta.crc32,
                    ));
                }
                let keyframes: Vec<String> = info
                    .snapshots
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| m.keyframe)
                    .map(|(i, _)| i.to_string())
                    .collect();
                if !keyframes.is_empty() {
                    let longest = depths.iter().flatten().max().copied().unwrap_or(0);
                    lines.push(format!(
                        "  keyframes at snapshot {{{}}}; longest replay chain {longest}",
                        keyframes.join(", "),
                    ));
                }
                lines.join("\n")
            }
        },
        ReplCmd::Vantages => {
            let lines: Vec<String> = engine
                .vantages()
                .into_iter()
                .map(|(a, k)| {
                    let kind = match k {
                        VantageKind::LookingGlass => "looking-glass",
                        VantageKind::CollectorPeer => "collector-peer",
                    };
                    format!("{a} ({kind})")
                })
                .collect();
            lines.join("\n")
        }
        // Derived gauges (ROA count, cache ratio, tier residency, epoch
        // age) are synced from engine state at render time so every
        // front end scrapes the same freshness.
        ReplCmd::Metrics => {
            engine.sync_obs();
            // The registry renders newline-terminated; this reply's
            // framing is the caller's (same as every other listing).
            engine.metrics().registry().render().trim_end().to_string()
        }
        ReplCmd::MetricsNames => engine.metrics().registry().schema().trim_end().to_string(),
        ReplCmd::Stats => {
            engine.sync_obs();
            engine.metrics().render_stats()
        }
        ReplCmd::Slowlog => engine.metrics().render_slowlog(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_every_shape() {
        assert_eq!(classify_line("  "), Line::Skip);
        assert_eq!(classify_line("# comment"), Line::Skip);
        assert_eq!(classify_line("ping"), Line::Control(Control::Ping));
        assert_eq!(classify_line("exit"), Line::Control(Control::Quit));
        assert_eq!(classify_line("snapshots"), Line::Repl(ReplCmd::Snapshots));
        assert_eq!(classify_line("metrics"), Line::Repl(ReplCmd::Metrics));
        assert_eq!(
            classify_line("metrics names"),
            Line::Repl(ReplCmd::MetricsNames)
        );
        assert_eq!(classify_line("stats"), Line::Repl(ReplCmd::Stats));
        assert_eq!(classify_line("slowlog"), Line::Repl(ReplCmd::Slowlog));
        assert!(matches!(
            classify_line("route AS1 1.0.0.0/8"),
            Line::Query(_)
        ));
        assert!(matches!(classify_line("frobnicate AS1"), Line::Bad(_)));
    }

    /// Runs `text` through one session, returning the rendered output
    /// and every (line, message) error report.
    fn run(engine: &QueryEngine, text: &str) -> (String, Vec<(usize, String)>, Option<End>) {
        let mut session = Session::new(64);
        let mut out = Vec::new();
        let mut errors = Vec::new();
        let mut on_error = |_: &mut Vec<u8>, line: usize, msg: &str| {
            errors.push((line, msg.to_string()));
        };
        session.feed(engine, text.as_bytes(), &mut out, &mut on_error);
        let end = session.finish(engine, &mut out, &mut on_error);
        (String::from_utf8(out).unwrap(), errors, end)
    }

    #[test]
    fn errors_are_located_by_line() {
        let engine = QueryEngine::new(2);
        let (out, errors, end) = run(&engine, "# header\nroute AS1 10.0.0.0/8\n\nbogus AS1\nping");
        assert_eq!(out, "pong\n");
        assert_eq!(end, None);
        assert_eq!(errors.len(), 2, "{errors:?}");
        // Line 2 parses but has nothing to answer from; line 4 does not
        // parse. Blank and comment lines still count toward numbering.
        assert_eq!(errors[0], (2, "no snapshots ingested".to_string()));
        assert_eq!(errors[1].0, 4);
        assert!(errors[1].1.starts_with("unknown query 'bogus'"));
        assert_eq!(engine.metrics().serve_errors_total.get(), 2);
        let (out, errors, _) = run(&engine, "# only comments\n\n");
        assert!(out.is_empty() && errors.is_empty());
    }

    #[test]
    fn lines_after_an_ending_control_are_not_executed() {
        let engine = QueryEngine::new(2);
        let (out, errors, end) = run(&engine, "ping\nquit\nping\nbogus\n");
        assert_eq!(
            (out.as_str(), errors.len(), end),
            ("pong\n", 0, Some(End::Quit))
        );
        let (out, _, end) = run(&engine, "shutdown\nping\n");
        assert_eq!((out.as_str(), end), ("", Some(End::Shutdown)));
    }
}
