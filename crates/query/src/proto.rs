//! The observatory's one query protocol: a typed [`Query`] AST paired
//! with a snapshot [`Scope`], a typed [`Response`], and the shared text
//! grammar that the `rpi-queryd` REPL, batch query files, the tests and
//! any future TCP front end all speak.
//!
//! [`parse`] and [`render`] round-trip: `parse(&render(&req)) == Ok(req)`
//! for every representable request, so query logs can be replayed and
//! goldens diffed byte-for-byte. (Two shapes are unrepresentable on the
//! wire: a [`Scope::Label`] containing whitespace — the grammar is line-
//! and word-oriented, so ingest labels must be whitespace-free to be
//! addressable — and a reversed [`Scope::Range`] on anything but `diff`,
//! which the engine rejects anyway.)
//!
//! ## The grammar
//!
//! ```text
//! route <vantage> <prefix> [@scope]        exact best-route lookup
//! resolve <vantage> <prefix> [@scope]      longest-prefix-match lookup
//! sa <vantage> <prefix> [@scope]           Fig. 4 SA status
//! rel <a> <b> [@scope]                     oracle relationship (b is a's …)
//! summary <asn> [@scope]                   per-AS policy digest
//! diff @<from>..<to>                       what changed between snapshots
//! sa-history <vantage> <prefix> [@scope]   SA status across snapshots
//! uptime <vantage> [@scope]                Fig. 7 uptime histogram
//! top-sa <vantage> <k> [@scope]            top-K SA origins
//! persistence <vantage> <prefix> [@scope]  per-prefix persistence class
//! ```
//!
//! A scope is one token: `@latest`, `@3` (snapshot id), `@label:day-07`
//! (or bare `@day-07` when the label is not a number or keyword), `@all`,
//! or `@0..3` (inclusive id range, ascending: a reversed or half-open
//! range like `@7..3` or `@3..` is a grammar error, never a silently
//! empty scope). Point queries default to `@latest`, history queries to
//! `@all`; `diff` needs an explicit range (the legacy `diff 0 2`
//! spelling is accepted and means `diff @0..2`; a *reverse* diff is
//! spelled `diff 2 0`, which is also how [`render`] canonicalizes it).
//!
//! ```
//! use rpi_query::{parse, render, Query, Scope};
//! use bgp_types::Asn;
//!
//! let req = parse("uptime AS64512").unwrap();
//! assert_eq!(req.query, Query::UptimeHistogram { vantage: Asn(64512) });
//! assert_eq!(req.scope, Scope::All); // history queries default to @all
//! assert_eq!(render(&req), "uptime AS64512 @all");
//! assert_eq!(parse(&render(&req)).unwrap(), req);
//! ```

use std::fmt;

use bgp_types::{Asn, Ipv4Prefix, Relationship};
use rpi_core::persistence::{PersistenceClass, UptimeHistogram};
use rpi_sec::{Roa, RovValidity};

use crate::engine::{PolicySummary, RouteAnswer, SaStatus};
use crate::snapshot::SnapshotId;
use crate::SnapshotDiff;

/// Which snapshots a [`Query`] runs against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scope {
    /// The most recently ingested snapshot (`@latest`).
    Latest,
    /// One snapshot by id (`@3`).
    Id(SnapshotId),
    /// One snapshot by its ingest label (`@label:day-07`). Labels with
    /// whitespace cannot be spoken in the word-oriented wire grammar.
    Label(String),
    /// Every ingested snapshot, in id order (`@all`).
    All,
    /// An inclusive id range (`@0..3`). The wire grammar only speaks
    /// ascending ranges; a programmatically built reversed range is
    /// still meaningful for `diff` (from→to in either order, rendered as
    /// the legacy `diff <from> <to>` spelling) and an
    /// [`InvertedRange`](crate::QueryError::InvertedRange) error for
    /// history queries.
    Range(SnapshotId, SnapshotId),
}

/// One question for the observatory, minus its snapshot scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Exact best-route lookup at a vantage.
    Route {
        /// The vantage whose table is consulted.
        vantage: Asn,
        /// The exact table prefix.
        prefix: Ipv4Prefix,
    },
    /// Longest-prefix-match lookup: how would the vantage route traffic
    /// for this (possibly more-specific) prefix?
    Resolve {
        /// The vantage whose table is consulted.
        vantage: Asn,
        /// The destination prefix to resolve.
        prefix: Ipv4Prefix,
    },
    /// Fig. 4 status of a prefix as seen from a vantage.
    SaStatus {
        /// The observing vantage.
        vantage: Asn,
        /// The prefix under question.
        prefix: Ipv4Prefix,
    },
    /// The oracle relationship `b is a's …`.
    Relationship {
        /// The perspective AS.
        a: Asn,
        /// The neighbor.
        b: Asn,
    },
    /// Per-AS policy digest.
    PolicySummary {
        /// The AS to summarize.
        asn: Asn,
    },
    /// What changed between the two snapshots of the request's
    /// [`Scope::Range`].
    Diff,
    /// The prefix's SA status in every scoped snapshot (Fig 6's raw
    /// series, per prefix).
    SaHistory {
        /// The observing vantage.
        vantage: Asn,
        /// The prefix to follow.
        prefix: Ipv4Prefix,
    },
    /// Fig. 7 uptime histogram of the vantage's ever-SA prefixes over
    /// the scoped snapshots.
    UptimeHistogram {
        /// The observing vantage.
        vantage: Asn,
    },
    /// The origins with the most distinct SA prefixes at the vantage
    /// over the scoped snapshots.
    TopKSaOrigins {
        /// The observing vantage.
        vantage: Asn,
        /// How many origins to return.
        k: usize,
    },
    /// How one prefix's SA behaviour persists over the scoped snapshots.
    PersistenceClass {
        /// The observing vantage.
        vantage: Asn,
        /// The prefix to classify.
        prefix: Ipv4Prefix,
    },
    /// RFC 6811 route-origin validation of the vantage's best route for
    /// the prefix against the engine's ROA table.
    Rov {
        /// The vantage whose best route supplies the origin.
        vantage: Asn,
        /// The exact table prefix to validate.
        prefix: Ipv4Prefix,
    },
    /// Origin-hijack / MOAS events across the scoped snapshots: prefixes
    /// picking up an origin outside every owner's customer cone, and
    /// multi-origin conflicts.
    Hijacks,
    /// Valley-free violations visible in the scoped snapshot: routes
    /// whose AS path sends provider- or peer-learned traffic back up.
    Leaks,
}

impl Query {
    /// The grammar verb of this query.
    pub fn verb(&self) -> &'static str {
        match self {
            Query::Route { .. } => "route",
            Query::Resolve { .. } => "resolve",
            Query::SaStatus { .. } => "sa",
            Query::Relationship { .. } => "rel",
            Query::PolicySummary { .. } => "summary",
            Query::Diff => "diff",
            Query::SaHistory { .. } => "sa-history",
            Query::UptimeHistogram { .. } => "uptime",
            Query::TopKSaOrigins { .. } => "top-sa",
            Query::PersistenceClass { .. } => "persistence",
            Query::Rov { .. } => "rov",
            Query::Hijacks => "hijacks",
            Query::Leaks => "leaks",
        }
    }

    /// This verb's index into the per-verb metric families
    /// ([`crate::metrics::VERBS`] — declaration order).
    pub fn verb_index(&self) -> usize {
        match self {
            Query::Route { .. } => 0,
            Query::Resolve { .. } => 1,
            Query::SaStatus { .. } => 2,
            Query::Relationship { .. } => 3,
            Query::PolicySummary { .. } => 4,
            Query::Diff => 5,
            Query::SaHistory { .. } => 6,
            Query::UptimeHistogram { .. } => 7,
            Query::TopKSaOrigins { .. } => 8,
            Query::PersistenceClass { .. } => 9,
            Query::Rov { .. } => 10,
            Query::Hijacks => 11,
            Query::Leaks => 12,
        }
    }

    /// `true` for the multi-snapshot history queries (whose default
    /// scope is `@all`).
    pub fn is_history(&self) -> bool {
        matches!(
            self,
            Query::SaHistory { .. }
                | Query::UptimeHistogram { .. }
                | Query::TopKSaOrigins { .. }
                | Query::PersistenceClass { .. }
                | Query::Hijacks
        )
    }

    /// Pairs the query with a scope.
    pub fn at(self, scope: Scope) -> QueryRequest {
        QueryRequest { query: self, scope }
    }

    /// Pairs the query with its default scope (`@latest` for point
    /// queries, `@all` for history queries).
    pub fn with_default_scope(self) -> QueryRequest {
        let scope = if self.is_history() {
            Scope::All
        } else {
            Scope::Latest
        };
        self.at(scope)
    }
}

/// A [`Query`] plus the [`Scope`] it runs against — the unit the engine
/// executes and the wire grammar encodes, one per line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest {
    /// The question.
    pub query: Query,
    /// The snapshots it is asked of.
    pub scope: Scope,
}

/// One point of a [`Response::SaHistory`] answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaHistoryPoint {
    /// The snapshot.
    pub snapshot: SnapshotId,
    /// Its ingest label.
    pub label: String,
    /// The prefix's Fig. 4 status there.
    pub status: SaStatus,
}

/// One row of a [`Response::TopSaOrigins`] answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaOriginCount {
    /// The originating customer.
    pub origin: Asn,
    /// Distinct prefixes of that origin that were SA in at least one
    /// scoped snapshot.
    pub prefixes: usize,
}

/// The answer to a `persistence` query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistenceAnswer {
    /// Snapshots in scope.
    pub snapshots: usize,
    /// Snapshots in which the prefix was in the vantage's table.
    pub present: usize,
    /// Snapshots in which it was selectively announced.
    pub sa: usize,
    /// The resulting class.
    pub class: PersistenceClass,
}

/// The answer to a `rov` query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RovAnswer {
    /// The named vantage has no table in the scoped snapshot.
    UnknownVantage,
    /// The vantage has no best route for the exact prefix — there is no
    /// origin to validate.
    NoRoute,
    /// The route's origin was validated against the ROA table.
    Validated {
        /// The origin AS of the vantage's best route.
        origin: Asn,
        /// Its RFC 6811 validity.
        validity: RovValidity,
        /// The longest covering ROA that decided the verdict (`None` for
        /// [`RovValidity::Unknown`]: nothing covers the prefix).
        covering: Option<Roa>,
    },
}

/// What kind of event a [`HijackEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HijackKind {
    /// A prefix originated by an AS outside every owner's customer cone.
    Origin,
    /// A more-specific of an owned prefix, originated outside the
    /// owners' cones.
    Subprefix,
    /// The same prefix originated by multiple ASes in one snapshot.
    Moas,
}

impl HijackKind {
    /// Stable lowercase name, as printed on the wire.
    pub fn name(&self) -> &'static str {
        match self {
            HijackKind::Origin => "origin-hijack",
            HijackKind::Subprefix => "subprefix-hijack",
            HijackKind::Moas => "moas",
        }
    }
}

/// One row of a [`Response::Hijacks`] answer: the first scoped snapshot
/// in which the suspicious (prefix, origin) pairing appeared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HijackEvent {
    /// The snapshot where the event first appears.
    pub snapshot: SnapshotId,
    /// Its ingest label.
    pub label: String,
    /// What happened.
    pub kind: HijackKind,
    /// The announced prefix.
    pub prefix: Ipv4Prefix,
    /// The suspect origin.
    pub origin: Asn,
    /// The baseline owners of the (covering) prefix, ascending.
    pub owners: Vec<Asn>,
}

/// One row of a [`Response::Leaks`] answer: a stored path that violates
/// the valley-free rule under the relationship oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakEvent {
    /// The vantage whose table holds the leaked route.
    pub vantage: Asn,
    /// The routed prefix.
    pub prefix: Ipv4Prefix,
    /// The AS that forwarded a provider- or peer-learned route upward —
    /// the valley's turning point.
    pub leaker: Asn,
    /// The full speaker-first AS path (vantage included).
    pub path: Vec<Asn>,
}

/// The typed answer to a [`QueryRequest`]; variants mirror [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to `route` and `resolve` (`None`: no (covering) route).
    Route(Option<RouteAnswer>),
    /// Answer to `sa`.
    Sa(SaStatus),
    /// Answer to `rel` (`None`: not adjacent in the oracle).
    Relationship(Option<Relationship>),
    /// Answer to `summary` (`None`: AS never seen at ingest time).
    Summary(Option<PolicySummary>),
    /// Answer to `diff`.
    Diff(SnapshotDiff),
    /// Answer to `sa-history`, one point per scoped snapshot.
    SaHistory(Vec<SaHistoryPoint>),
    /// Answer to `uptime` — the same [`UptimeHistogram`] that
    /// [`rpi_core::persistence::uptime_histogram`] computes directly.
    Uptime(UptimeHistogram),
    /// Answer to `top-sa`, descending by prefix count (ties by ASN).
    TopSaOrigins(Vec<SaOriginCount>),
    /// Answer to `persistence`.
    Persistence(PersistenceAnswer),
    /// Answer to `rov`.
    Rov(RovAnswer),
    /// Answer to `hijacks`, ordered by (snapshot, prefix, origin).
    Hijacks(Vec<HijackEvent>),
    /// Answer to `leaks`, ordered by (vantage, prefix, path).
    Leaks(Vec<LeakEvent>),
}

/// Why a line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The verb is not part of the grammar; [`fmt::Display`] lists the
    /// valid queries.
    UnknownQuery(String),
    /// The verb is known but its operands or scope are malformed.
    Malformed(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::UnknownQuery(verb) => {
                write!(f, "unknown query '{verb}'; valid queries:\n{GRAMMAR}")
            }
            ParseError::Malformed(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// The grammar table, one query form per line (what `help` prints and
/// unknown-query errors append).
pub const GRAMMAR: &str = "\
route <vantage> <prefix> [@scope]        exact best-route lookup
resolve <vantage> <prefix> [@scope]      longest-prefix-match lookup
sa <vantage> <prefix> [@scope]           Fig. 4 SA status of the prefix
rel <a> <b> [@scope]                     oracle relationship (b is a's ...)
summary <asn> [@scope]                   per-AS policy digest
diff @<from>..<to>                       what changed between snapshots
sa-history <vantage> <prefix> [@scope]   SA status across snapshots
uptime <vantage> [@scope]                Fig. 7 uptime histogram
top-sa <vantage> <k> [@scope]            top-K SA origins
persistence <vantage> <prefix> [@scope]  per-prefix persistence class
rov <vantage> <prefix> [@scope]          RFC 6811 route-origin validation
hijacks [@scope]                         origin-hijack / MOAS events across snapshots
leaks [@scope]                           valley-free violations in one snapshot
scopes: @latest  @<id>  @label:<name>  @all  @<from>..<to>   (point queries default to @latest, history queries to @all)";

fn parse_asn(s: &str) -> Result<Asn, ParseError> {
    let digits = s.strip_prefix("AS").unwrap_or(s);
    digits
        .parse::<u32>()
        .map(Asn)
        .map_err(|_| ParseError::Malformed(format!("bad ASN '{s}'")))
}

fn parse_prefix(s: &str) -> Result<Ipv4Prefix, ParseError> {
    s.parse::<Ipv4Prefix>()
        .map_err(|e| ParseError::Malformed(format!("bad prefix '{s}': {e}")))
}

fn parse_snap(s: &str) -> Result<SnapshotId, ParseError> {
    s.parse::<u32>()
        .map(SnapshotId)
        .map_err(|_| ParseError::Malformed(format!("bad snapshot id '{s}'")))
}

/// Parses one scope token, *without* its leading `@`.
fn parse_scope_body(body: &str) -> Result<Scope, ParseError> {
    if body == "latest" {
        return Ok(Scope::Latest);
    }
    if body == "all" {
        return Ok(Scope::All);
    }
    if let Some(label) = body.strip_prefix("label:") {
        return Ok(Scope::Label(label.to_string()));
    }
    if let Some((from, to)) = body.split_once("..") {
        if from.is_empty() || to.is_empty() {
            return Err(ParseError::Malformed(format!(
                "empty scope range '@{body}': both endpoints are required (@<from>..<to>)"
            )));
        }
        let from = parse_snap(from)
            .map_err(|_| ParseError::Malformed(format!("bad scope range '@{body}'")))?;
        let to = parse_snap(to)
            .map_err(|_| ParseError::Malformed(format!("bad scope range '@{body}'")))?;
        if from > to {
            return Err(ParseError::Malformed(format!(
                "scope range '@{body}' runs backwards: use '@{}..{}' (a reverse diff is spelled 'diff {} {}')",
                to.0, from.0, from.0, to.0
            )));
        }
        return Ok(Scope::Range(from, to));
    }
    if body.bytes().all(|b| b.is_ascii_digit()) && !body.is_empty() {
        return Ok(Scope::Id(parse_snap(body)?));
    }
    if body.is_empty() {
        return Err(ParseError::Malformed("empty scope '@'".into()));
    }
    // Anything else is a bare label (`@day-07`).
    Ok(Scope::Label(body.to_string()))
}

/// Renders a scope as its canonical token.
pub fn render_scope(scope: &Scope) -> String {
    match scope {
        Scope::Latest => "@latest".into(),
        Scope::Id(id) => format!("@{}", id.0),
        Scope::Label(l) => format!("@label:{l}"),
        Scope::All => "@all".into(),
        Scope::Range(a, b) => format!("@{}..{}", a.0, b.0),
    }
}

/// Parses one query line into a request. Leading/trailing whitespace is
/// ignored; the line must not be empty or a `#` comment (callers skip
/// those — a [`Session`](crate::serve::session::Session) does).
pub fn parse(line: &str) -> Result<QueryRequest, ParseError> {
    let mut words: Vec<&str> = line.split_whitespace().collect();
    let scope = match words.last() {
        Some(last) if last.starts_with('@') => {
            let s = parse_scope_body(&last[1..])?;
            words.pop();
            Some(s)
        }
        _ => None,
    };
    let Some((&verb, args)) = words.split_first() else {
        return Err(ParseError::Malformed("empty query".into()));
    };

    let wrong_arity = |want: &str| {
        ParseError::Malformed(format!(
            "'{verb}' wants {want}, got {} operand{}",
            args.len(),
            if args.len() == 1 { "" } else { "s" }
        ))
    };

    let query = match verb {
        "route" | "resolve" | "sa" | "sa-history" | "persistence" | "rov" => {
            let [v, p] = args else {
                return Err(wrong_arity("<vantage> <prefix>"));
            };
            let vantage = parse_asn(v)?;
            let prefix = parse_prefix(p)?;
            match verb {
                "route" => Query::Route { vantage, prefix },
                "resolve" => Query::Resolve { vantage, prefix },
                "sa" => Query::SaStatus { vantage, prefix },
                "sa-history" => Query::SaHistory { vantage, prefix },
                "rov" => Query::Rov { vantage, prefix },
                _ => Query::PersistenceClass { vantage, prefix },
            }
        }
        "hijacks" | "leaks" => {
            let [] = args else {
                return Err(wrong_arity("no operands (only an optional @scope)"));
            };
            if verb == "hijacks" {
                Query::Hijacks
            } else {
                Query::Leaks
            }
        }
        "rel" => {
            let [a, b] = args else {
                return Err(wrong_arity("<a> <b>"));
            };
            Query::Relationship {
                a: parse_asn(a)?,
                b: parse_asn(b)?,
            }
        }
        "summary" => {
            let [a] = args else {
                return Err(wrong_arity("<asn>"));
            };
            Query::PolicySummary { asn: parse_asn(a)? }
        }
        "diff" => match (args, &scope) {
            // Legacy spelling: `diff 0 2` ≡ `diff @0..2`.
            ([from, to], None) => {
                let range = Scope::Range(parse_snap(from)?, parse_snap(to)?);
                return Ok(Query::Diff.at(range));
            }
            ([], Some(_)) => Query::Diff,
            _ => {
                return Err(ParseError::Malformed(
                    "'diff' wants a snapshot range: diff @<from>..<to> (or: diff <from> <to>)"
                        .into(),
                ))
            }
        },
        "uptime" => {
            let [v] = args else {
                return Err(wrong_arity("<vantage>"));
            };
            Query::UptimeHistogram {
                vantage: parse_asn(v)?,
            }
        }
        "top-sa" => {
            let [v, k] = args else {
                return Err(wrong_arity("<vantage> <k>"));
            };
            let k: usize = k
                .parse()
                .map_err(|_| ParseError::Malformed(format!("top-sa wants a count, got '{k}'")))?;
            Query::TopKSaOrigins {
                vantage: parse_asn(v)?,
                k,
            }
        }
        other => return Err(ParseError::UnknownQuery(other.to_string())),
    };

    Ok(match scope {
        Some(scope) => query.at(scope),
        None => query.with_default_scope(),
    })
}

/// A session control verb — not a query, but part of the wire grammar:
/// control lines steer the connection (or REPL session) itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// `ping` — liveness probe; the peer answers `pong`.
    Ping,
    /// `quit` (or `exit`) — end this session/connection. Over TCP the
    /// server flushes pending responses and closes the connection.
    Quit,
    /// `shutdown` — stop the whole server (SIGINT-free shutdown): the
    /// listener closes, every connection is flushed and closed, and the
    /// serve loop returns its final stats snapshot. In the stdin REPL
    /// this is equivalent to `quit`.
    Shutdown,
}

/// Recognizes a control verb. Controls are whole lines, not prefixes:
/// `ping extra` is *not* a control (it falls through to query parsing
/// and fails there, like any other malformed line).
pub fn parse_control(line: &str) -> Option<Control> {
    match line.trim() {
        "ping" => Some(Control::Ping),
        "quit" | "exit" => Some(Control::Quit),
        "shutdown" => Some(Control::Shutdown),
        _ => None,
    }
}

/// One complete frame extracted from a connection's byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A complete line (terminator stripped, `\r\n` tolerated), with its
    /// 1-based line number within the stream.
    Line {
        /// 1-based position of this line in the connection's stream.
        line: usize,
        /// The line text, without its terminator.
        text: String,
    },
    /// A line that exceeded the framer's cap before its newline arrived.
    /// The rest of the oversized line is discarded up to the next
    /// terminator; the connection itself stays usable.
    Oversized {
        /// 1-based position of the oversized line.
        line: usize,
        /// How many bytes had accumulated when the cap tripped (the line
        /// was at least this long).
        length: usize,
    },
}

/// Reassembles newline-delimited frames from an arbitrarily-chunked byte
/// stream — the framing layer under the TCP front end. A query split
/// across two (or ten) reads comes out as one [`Frame::Line`]; a line
/// longer than the cap comes out as one [`Frame::Oversized`] and is then
/// skipped to its terminator instead of growing the buffer without
/// bound.
#[derive(Debug)]
pub struct LineFramer {
    buf: Vec<u8>,
    max_line: usize,
    discarding: bool,
    next_line: usize,
}

impl LineFramer {
    /// A framer refusing to buffer more than `max_line` bytes for any
    /// single unterminated line.
    pub fn new(max_line: usize) -> LineFramer {
        LineFramer {
            buf: Vec::new(),
            max_line: max_line.max(1),
            discarding: false,
            next_line: 1,
        }
    }

    /// Bytes currently buffered for a not-yet-terminated line (bounded
    /// by the cap).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Flushes the buffered unterminated tail as one final frame — what
    /// EOF means for a line stream (`str::lines` yields a final line
    /// without its `\n`; a TCP session that half-closes after an
    /// unterminated query must get the same answer the stdin path would
    /// give). Returns `None` when nothing is buffered or the tail is the
    /// discarded remainder of an oversized line (already reported).
    pub fn finish(&mut self) -> Option<Frame> {
        if self.discarding {
            self.discarding = false;
            return None;
        }
        if self.buf.is_empty() {
            return None;
        }
        let line = std::mem::take(&mut self.buf);
        let frame = Frame::Line {
            line: self.next_line,
            text: String::from_utf8_lossy(&line).into_owned(),
        };
        self.next_line += 1;
        Some(frame)
    }

    /// Feeds one read's worth of bytes, returning every frame it
    /// completes. Non-UTF-8 lines are lossily decoded (they fail query
    /// parsing downstream like any other garbage).
    pub fn push(&mut self, bytes: &[u8]) -> Vec<Frame> {
        let mut out = Vec::new();
        for &b in bytes {
            if self.discarding {
                if b == b'\n' {
                    self.discarding = false;
                }
                continue;
            }
            if b == b'\n' {
                let mut line = std::mem::take(&mut self.buf);
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                out.push(Frame::Line {
                    line: self.next_line,
                    text: String::from_utf8_lossy(&line).into_owned(),
                });
                self.next_line += 1;
                continue;
            }
            self.buf.push(b);
            // One byte of grace for a trailing '\r': a line of exactly
            // `max_line` bytes must be accepted from CRLF clients too
            // (the '\r' is stripped at the terminator, so it never
            // counts toward the line's length).
            let over = self.buf.len() > self.max_line + 1
                || (self.buf.len() > self.max_line && b != b'\r');
            if over {
                out.push(Frame::Oversized {
                    line: self.next_line,
                    length: self.buf.len(),
                });
                self.next_line += 1;
                self.buf.clear();
                self.discarding = true;
            }
        }
        out
    }
}

/// Renders a request as its canonical grammar line (scope always
/// explicit). Round-trips through [`parse`].
pub fn render(req: &QueryRequest) -> String {
    let scope = render_scope(&req.scope);
    match &req.query {
        Query::Route { vantage, prefix } => format!("route {vantage} {prefix} {scope}"),
        Query::Resolve { vantage, prefix } => format!("resolve {vantage} {prefix} {scope}"),
        Query::SaStatus { vantage, prefix } => format!("sa {vantage} {prefix} {scope}"),
        Query::Relationship { a, b } => format!("rel {a} {b} {scope}"),
        Query::PolicySummary { asn } => format!("summary {asn} {scope}"),
        // A reverse diff (meaningful: undo-reading a churn report) cannot
        // be spoken as a scope token — `@3..1` is a grammar error — so its
        // canonical wire form is the two-operand spelling.
        Query::Diff => match &req.scope {
            Scope::Range(a, b) if a > b => format!("diff {} {}", a.0, b.0),
            _ => format!("diff {scope}"),
        },
        Query::SaHistory { vantage, prefix } => format!("sa-history {vantage} {prefix} {scope}"),
        Query::UptimeHistogram { vantage } => format!("uptime {vantage} {scope}"),
        Query::TopKSaOrigins { vantage, k } => format!("top-sa {vantage} {k} {scope}"),
        Query::PersistenceClass { vantage, prefix } => {
            format!("persistence {vantage} {prefix} {scope}")
        }
        Query::Rov { vantage, prefix } => format!("rov {vantage} {prefix} {scope}"),
        Query::Hijacks => format!("hijacks {scope}"),
        Query::Leaks => format!("leaks {scope}"),
    }
}

/// Describes one SA status. `scope` is echoed when the status stands
/// alone (the `sa` answer); `sa-history` points pass `None` because each
/// line already names its snapshot.
fn describe_sa(vantage: Asn, prefix: Ipv4Prefix, scope: Option<&str>, status: &SaStatus) -> String {
    let tail = scope.map(|s| format!(" {s}")).unwrap_or_default();
    match status {
        SaStatus::UnknownVantage => format!("{vantage} is not a vantage{tail}"),
        SaStatus::NotInTable => format!("{prefix} not in {vantage}'s table{tail}"),
        SaStatus::NotCustomerRoute => {
            format!("{prefix} at {vantage}{tail}: origin outside customer cone")
        }
        SaStatus::CustomerExported { origin } => {
            format!("{prefix} at {vantage}{tail}: exported normally by customer {origin}")
        }
        SaStatus::SelectivelyAnnounced { origin } => {
            format!("{prefix} at {vantage}{tail}: SELECTIVELY ANNOUNCED by {origin}")
        }
    }
}

fn path_words(path: &[Asn]) -> String {
    path.iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Renders a response for its request as stable, line-oriented text —
/// what `rpi-queryd` prints and the CI golden smoke diffs.
pub fn render_response(req: &QueryRequest, resp: &Response) -> String {
    let scope = render_scope(&req.scope);
    match (&req.query, resp) {
        (Query::Route { vantage, prefix }, Response::Route(ans)) => match ans {
            Some(r) => format!(
                "{prefix} at {vantage} {scope}: via {} path {}",
                r.next_hop,
                path_words(&r.path)
            ),
            None => format!("{prefix} at {vantage} {scope}: no route"),
        },
        (Query::Resolve { vantage, prefix }, Response::Route(ans)) => match ans {
            Some(r) => format!(
                "{prefix} at {vantage} {scope}: matched {} via {} (origin {})",
                r.prefix,
                r.next_hop,
                r.origin()
            ),
            None => format!("{prefix} at {vantage} {scope}: no covering route"),
        },
        (Query::SaStatus { vantage, prefix }, Response::Sa(status)) => {
            describe_sa(*vantage, *prefix, Some(&scope), status)
        }
        (Query::Relationship { a, b }, Response::Relationship(rel)) => match rel {
            Some(r) => format!("{b} is {a}'s {r:?} {scope}"),
            None => format!("{a} and {b} are not adjacent in the oracle {scope}"),
        },
        (Query::PolicySummary { asn }, Response::Summary(s)) => match s {
            Some(s) => {
                let (prov, cust, peer, sib) = s.neighbor_counts;
                let typicality = s
                    .typicality_percent()
                    .map(|p| format!("{p:.1}%"))
                    .unwrap_or_else(|| "n/a".into());
                format!(
                    "{asn} {scope}: {} routes, {} customer prefixes, {} SA ({:.1}%), \
                     typicality {typicality}, {} tagged neighbors, \
                     neighbors {prov} providers / {cust} customers / {peer} peers / {sib} siblings",
                    s.routes,
                    s.customer_prefixes,
                    s.sa_count,
                    s.sa_percent(),
                    s.tagged_neighbors,
                )
            }
            None => format!("{asn} {scope}: unknown AS"),
        },
        (Query::Diff, Response::Diff(d)) => format!(
            "{} -> {}: {} new SA, {} gone SA, {} relationship flips, {} churned routes",
            d.from_label,
            d.to_label,
            d.new_sa.len(),
            d.gone_sa.len(),
            d.flips.len(),
            d.churned_routes()
        ),
        (Query::SaHistory { vantage, prefix }, Response::SaHistory(points)) => {
            let mut out = format!(
                "sa-history {prefix} at {vantage} {scope} ({} snapshots):",
                points.len()
            );
            for p in points {
                out.push_str(&format!(
                    "\n  {} {}: {}",
                    p.snapshot.0,
                    p.label,
                    describe_sa(*vantage, *prefix, None, &p.status)
                ));
            }
            out
        }
        (Query::UptimeHistogram { vantage }, Response::Uptime(h)) => {
            let remaining: usize = h.remaining.values().sum();
            let shifted: usize = h.shifted.values().sum();
            let mut out = format!(
                "uptime {vantage} {scope}: {} ever-SA prefixes, {remaining} remaining / {shifted} shifted ({:.1}% shifted)",
                h.total(),
                100.0 * h.shifted_fraction(),
            );
            for (&u, &n) in &h.remaining {
                out.push_str(&format!("\n  remaining, uptime {u}: {n}"));
            }
            for (&u, &n) in &h.shifted {
                out.push_str(&format!("\n  shifted, uptime {u}: {n}"));
            }
            out
        }
        (Query::TopKSaOrigins { vantage, k }, Response::TopSaOrigins(rows)) => {
            let mut out = format!("top-sa {vantage} {k} {scope}:");
            if rows.is_empty() {
                out.push_str(" no SA origins");
            }
            for (i, row) in rows.iter().enumerate() {
                out.push_str(&format!(
                    "\n  {}. {}: {} SA prefix{}",
                    i + 1,
                    row.origin,
                    row.prefixes,
                    if row.prefixes == 1 { "" } else { "es" }
                ));
            }
            out
        }
        (Query::PersistenceClass { vantage, prefix }, Response::Persistence(p)) => format!(
            "persistence {prefix} at {vantage} {scope}: present {}/{}, SA {} -> {}",
            p.present,
            p.snapshots,
            p.sa,
            p.class.describe()
        ),
        (Query::Rov { vantage, prefix }, Response::Rov(ans)) => match ans {
            RovAnswer::UnknownVantage => {
                format!("rov {prefix} at {vantage} {scope}: {vantage} is not a vantage")
            }
            RovAnswer::NoRoute => {
                format!("rov {prefix} at {vantage} {scope}: no route, nothing to validate")
            }
            RovAnswer::Validated {
                origin,
                validity,
                covering,
            } => {
                let roa = match covering {
                    Some(r) => format!(" (covering ROA {r})"),
                    None => " (no covering ROA)".to_string(),
                };
                format!(
                    "rov {prefix} at {vantage} {scope}: origin {origin} {}{roa}",
                    validity.name()
                )
            }
        },
        (Query::Hijacks, Response::Hijacks(events)) => {
            let mut out = format!(
                "hijacks {scope}: {} event{}",
                events.len(),
                if events.len() == 1 { "" } else { "s" }
            );
            for e in events {
                let owners = e
                    .owners
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                out.push_str(&format!(
                    "\n  {} {}: {} {} by {} (owners {})",
                    e.snapshot.0,
                    e.label,
                    e.kind.name(),
                    e.prefix,
                    e.origin,
                    if owners.is_empty() {
                        "none".into()
                    } else {
                        owners
                    }
                ));
            }
            out
        }
        (Query::Leaks, Response::Leaks(events)) => {
            let mut out = format!(
                "leaks {scope}: {} leaked route{}",
                events.len(),
                if events.len() == 1 { "" } else { "s" }
            );
            for e in events {
                out.push_str(&format!(
                    "\n  {} at {}: leaked by {} path {}",
                    e.prefix,
                    e.vantage,
                    e.leaker,
                    path_words(&e.path)
                ));
            }
            out
        }
        // A response that does not match its request can only come from a
        // caller pairing the wrong values; show both rather than guess.
        (_, resp) => format!("{resp:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_legacy_diff_spelling() {
        assert_eq!(parse("route AS1 10.0.0.0/8").unwrap().scope, Scope::Latest);
        assert_eq!(parse("uptime AS1").unwrap().scope, Scope::All);
        assert_eq!(
            parse("diff 0 2").unwrap(),
            Query::Diff.at(Scope::Range(SnapshotId(0), SnapshotId(2)))
        );
        assert_eq!(parse("diff 0 2"), parse("diff @0..2"));
        assert!(parse("diff").is_err());
    }

    #[test]
    fn scope_tokens_parse() {
        assert_eq!(
            parse("sa AS1 1.0.0.0/8 @latest").unwrap().scope,
            Scope::Latest
        );
        assert_eq!(
            parse("sa AS1 1.0.0.0/8 @7").unwrap().scope,
            Scope::Id(SnapshotId(7))
        );
        assert_eq!(
            parse("sa AS1 1.0.0.0/8 @day-07").unwrap().scope,
            Scope::Label("day-07".into())
        );
        assert_eq!(
            parse("sa AS1 1.0.0.0/8 @label:day-07").unwrap().scope,
            Scope::Label("day-07".into())
        );
        assert_eq!(
            parse("sa-history AS1 1.0.0.0/8 @all").unwrap().scope,
            Scope::All
        );
        assert!(parse("sa AS1 1.0.0.0/8 @").is_err());
        assert!(parse("sa AS1 1.0.0.0/8 @3..x").is_err());
    }

    #[test]
    fn reversed_and_empty_ranges_are_grammar_errors() {
        // Backwards ranges must fail loudly — in both query classes —
        // instead of resolving to an empty scope.
        for line in [
            "sa-history AS1 1.0.0.0/8 @7..3",
            "uptime AS1 @7..3",
            "sa AS1 1.0.0.0/8 @7..3",
            "diff @7..3",
        ] {
            let err = parse(line).unwrap_err();
            assert!(
                err.to_string().contains("runs backwards"),
                "'{line}' → {err}"
            );
            assert!(
                err.to_string().contains("@3..7"),
                "the error must name the fix: {err}"
            );
        }
        // Half-open / empty forms are rejected with their own message.
        for line in ["uptime AS1 @3..", "uptime AS1 @..3", "uptime AS1 @.."] {
            let err = parse(line).unwrap_err();
            assert!(
                err.to_string().contains("empty scope range"),
                "'{line}' → {err}"
            );
        }
        // The ascending forms all still parse.
        assert_eq!(
            parse("uptime AS1 @3..7").unwrap().scope,
            Scope::Range(SnapshotId(3), SnapshotId(7))
        );
        assert_eq!(
            parse("uptime AS1 @3..3").unwrap().scope,
            Scope::Range(SnapshotId(3), SnapshotId(3))
        );
    }

    #[test]
    fn reverse_diffs_speak_the_legacy_spelling() {
        // Programmatic reverse diffs stay wire-representable: render
        // falls back to the two-operand form, which parses back exactly.
        let req = Query::Diff.at(Scope::Range(SnapshotId(3), SnapshotId(1)));
        assert_eq!(render(&req), "diff 3 1");
        assert_eq!(parse("diff 3 1").unwrap(), req);
        assert_eq!(parse(&render(&req)).unwrap(), req);
        // Forward diffs keep the scope-token canonical form.
        let fwd = Query::Diff.at(Scope::Range(SnapshotId(1), SnapshotId(3)));
        assert_eq!(render(&fwd), "diff @1..3");
    }

    #[test]
    fn unknown_verbs_list_the_grammar() {
        let err = parse("frobnicate AS1").unwrap_err();
        assert_eq!(err, ParseError::UnknownQuery("frobnicate".into()));
        assert!(err.to_string().contains("route <vantage> <prefix>"));
    }

    #[test]
    fn control_verbs_are_whole_lines() {
        assert_eq!(parse_control("ping"), Some(Control::Ping));
        assert_eq!(parse_control("  quit "), Some(Control::Quit));
        assert_eq!(parse_control("exit"), Some(Control::Quit));
        assert_eq!(parse_control("shutdown"), Some(Control::Shutdown));
        assert_eq!(parse_control("ping now"), None);
        assert_eq!(parse_control("route AS1 1.0.0.0/8"), None);
    }

    #[test]
    fn framer_reassembles_split_frames() {
        let mut f = LineFramer::new(64);
        assert!(f.push(b"route AS1 4.").is_empty());
        assert!(f.push(b"0.0.0/13").is_empty());
        let frames = f.push(b"\nsa AS1 2.0.0.0/8\r\npart");
        assert_eq!(
            frames,
            vec![
                Frame::Line {
                    line: 1,
                    text: "route AS1 4.0.0.0/13".into()
                },
                Frame::Line {
                    line: 2,
                    text: "sa AS1 2.0.0.0/8".into()
                },
            ]
        );
        assert_eq!(f.buffered(), 4);
        assert_eq!(
            f.push(b"ial\n"),
            vec![Frame::Line {
                line: 3,
                text: "partial".into()
            }]
        );
    }

    #[test]
    fn framer_finish_flushes_the_unterminated_tail() {
        let mut f = LineFramer::new(64);
        assert!(f.push(b"route AS1 4.0.0.0/13").is_empty());
        assert_eq!(
            f.finish(),
            Some(Frame::Line {
                line: 1,
                text: "route AS1 4.0.0.0/13".into()
            })
        );
        assert_eq!(f.finish(), None, "the tail flushes exactly once");
        // The discarded remainder of an oversized line is not a frame —
        // it was already reported when the cap tripped.
        let mut f = LineFramer::new(4);
        assert_eq!(
            f.push(b"abcdefgh"),
            vec![Frame::Oversized { line: 1, length: 5 }]
        );
        assert_eq!(f.finish(), None);
    }

    #[test]
    fn framer_caps_oversized_lines_without_losing_the_stream() {
        let mut f = LineFramer::new(8);
        let frames = f.push(b"0123456789abcdef more garbage\nping\n");
        assert_eq!(
            frames,
            vec![
                Frame::Oversized { line: 1, length: 9 },
                Frame::Line {
                    line: 2,
                    text: "ping".into()
                },
            ]
        );
        // The discarded tail never accumulated.
        assert_eq!(f.buffered(), 0);
    }

    #[test]
    fn framer_cap_treats_lf_and_crlf_clients_alike() {
        // An exactly-at-cap line is fine with either terminator: the
        // '\r' is stripped, so it must not count toward the cap.
        for terminator in ["\n", "\r\n"] {
            let mut f = LineFramer::new(8);
            assert_eq!(
                f.push(format!("01234567{terminator}").as_bytes()),
                vec![Frame::Line {
                    line: 1,
                    text: "01234567".into()
                }],
                "terminator {terminator:?}"
            );
        }
        // One byte over the cap trips it for both, and a '\r' that is
        // *not* a terminator gets no grace.
        let mut f = LineFramer::new(8);
        assert_eq!(
            f.push(b"012345678\n"),
            vec![Frame::Oversized { line: 1, length: 9 }]
        );
        let mut f = LineFramer::new(8);
        assert_eq!(
            f.push(b"01234567\rX\n"),
            vec![Frame::Oversized {
                line: 1,
                length: 10
            }]
        );
    }
}
