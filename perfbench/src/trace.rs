//! The traced run: spans around the benchmark's calls into each layer,
//! plus per-layer samples (counts and per-item costs), kept in memory
//! and written out as JSON lines when the run ends. The per-layer
//! metrics are derived from the written file, so what the file holds is
//! what the metrics say.
//!
//! File format, one flat JSON object per line, every line carrying the
//! run id:
//!
//! ```text
//! {"run":"…","kind":"header","nproc":"2",…}
//! {"run":"…","kind":"span","id":3,"parent":1,"name":"bgp_sim.engine","start_ns":…,"end_ns":…}
//! {"run":"…","kind":"sample","name":"bgp_sim.engine.sweeps","value":6106}
//! ```

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::sys::{json_escape, median, Provenance};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The enclosing span's id; 0 for a root.
    pub parent: u64,
    /// The layer (or benchmark phase) the span covers.
    pub name: String,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans and samples while enabled; does nothing while off.
#[derive(Debug)]
pub struct Tracer {
    on: AtomicBool,
    run_id: String,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    samples: Mutex<Vec<(String, f64)>>,
}

/// An open span; it closes (and is recorded) when dropped.
#[must_use = "a span closes when its guard drops"]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    start: Option<Instant>,
}

impl SpanGuard<'_> {
    /// This span's id, the parent of spans opened inside it (0 while the
    /// tracer is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let end = Instant::now();
            let t = self.tracer;
            let span = Span {
                id: self.id,
                parent: self.parent,
                name: self.name.to_string(),
                start_ns: (start - t.epoch).as_nanos() as u64,
                end_ns: (end - t.epoch).as_nanos() as u64,
            };
            if let Ok(mut spans) = t.spans.lock() {
                spans.push(span);
            }
        }
    }
}

impl Tracer {
    /// A tracer for run `run_id`, recording from the start if `on`.
    pub fn new(run_id: String, on: bool) -> Tracer {
        Tracer {
            on: AtomicBool::new(on),
            run_id,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            samples: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that records nothing.
    pub fn quiet() -> Tracer {
        Tracer::new(String::new(), false)
    }

    /// Whether spans and samples are being recorded.
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (the traced run measures part of its
    /// window untraced to report the tracing overhead).
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Opens a span named `name` under `parent` (0 for a root).
    pub fn span(&self, name: &'static str, parent: u64) -> SpanGuard<'_> {
        let on = self.enabled();
        SpanGuard {
            tracer: self,
            id: if on {
                self.next_id.fetch_add(1, Ordering::Relaxed)
            } else {
                0
            },
            parent,
            name,
            start: on.then(Instant::now),
        }
    }

    /// Records one per-layer sample (a count or a per-item cost).
    pub fn sample(&self, name: &str, value: f64) {
        if self.enabled() {
            self.samples
                .lock()
                .expect("trace samples poisoned")
                .push((name.to_string(), value));
        }
    }

    /// Writes the header, every span and every sample to `path`.
    pub fn write(&self, path: &Path, header: &Provenance) -> std::io::Result<()> {
        let run = json_escape(&self.run_id);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let fields: Vec<String> = header
            .fields()
            .iter()
            .map(|(k, v)| format!(",\"{k}\":\"{}\"", json_escape(v)))
            .collect();
        writeln!(
            out,
            "{{\"run\":\"{run}\",\"kind\":\"header\"{}}}",
            fields.concat()
        )?;
        for s in self.spans.lock().expect("trace spans poisoned").iter() {
            writeln!(
                out,
                "{{\"run\":\"{run}\",\"kind\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                json_escape(&s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        for (name, value) in self.samples.lock().expect("trace samples poisoned").iter() {
            writeln!(
                out,
                "{{\"run\":\"{run}\",\"kind\":\"sample\",\"name\":\"{}\",\"value\":{value}}}",
                json_escape(name)
            )?;
        }
        out.flush()
    }
}

/// A trace file read back.
#[derive(Debug, Default)]
pub struct TraceData {
    /// The run id every line carried.
    pub run_id: String,
    /// Every span.
    pub spans: Vec<Span>,
    /// Every sample, in recording order.
    pub samples: Vec<(String, f64)>,
}

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Num(f64),
}

/// Parses one flat JSON object whose values are strings or numbers —
/// the only shape [`Tracer::write`] produces.
fn parse_flat(line: &str) -> Result<BTreeMap<String, Value>, String> {
    let mut chars = line.trim().chars().peekable();
    let mut map = BTreeMap::new();
    let bad = |what: &str| format!("malformed trace line ({what}): {line}");
    let string = |chars: &mut std::iter::Peekable<std::str::Chars>| -> Result<String, String> {
        if chars.next() != Some('"') {
            return Err(bad("expected string"));
        }
        let mut s = String::new();
        loop {
            match chars.next().ok_or_else(|| bad("unterminated string"))? {
                '"' => return Ok(s),
                '\\' => match chars.next().ok_or_else(|| bad("dangling escape"))? {
                    'n' => s.push('\n'),
                    'u' => {
                        let hex: String = chars.by_ref().take(4).collect();
                        let code = u32::from_str_radix(&hex, 16).map_err(|_| bad("escape"))?;
                        s.push(char::from_u32(code).ok_or_else(|| bad("escape"))?);
                    }
                    c => s.push(c),
                },
                c => s.push(c),
            }
        }
    };
    if chars.next() != Some('{') {
        return Err(bad("expected object"));
    }
    loop {
        let key = string(&mut chars)?;
        if chars.next() != Some(':') {
            return Err(bad("expected ':'"));
        }
        let value = if chars.peek() == Some(&'"') {
            Value::Str(string(&mut chars)?)
        } else {
            let mut num = String::new();
            while let Some(&c) = chars.peek() {
                if c == ',' || c == '}' {
                    break;
                }
                num.push(c);
                chars.next();
            }
            Value::Num(num.trim().parse().map_err(|_| bad("number"))?)
        };
        map.insert(key, value);
        match chars.next() {
            Some(',') => continue,
            Some('}') => return Ok(map),
            _ => return Err(bad("expected ',' or '}'")),
        }
    }
}

/// Reads a trace file written by [`Tracer::write`]. Every line must
/// parse and carry the same run id.
pub fn read(path: &Path) -> Result<TraceData, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut data = TraceData::default();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let map = parse_flat(line)?;
        let s = |k: &str| match map.get(k) {
            Some(Value::Str(v)) => Ok(v.clone()),
            _ => Err(format!("trace line lacks string '{k}': {line}")),
        };
        let n = |k: &str| match map.get(k) {
            Some(Value::Num(v)) => Ok(*v),
            _ => Err(format!("trace line lacks number '{k}': {line}")),
        };
        let run = s("run")?;
        if data.run_id.is_empty() {
            data.run_id = run;
        } else if run != data.run_id {
            return Err(format!("trace mixes runs '{}' and '{run}'", data.run_id));
        }
        match s("kind")?.as_str() {
            "header" => {}
            "span" => data.spans.push(Span {
                id: n("id")? as u64,
                parent: n("parent")? as u64,
                name: s("name")?,
                start_ns: n("start_ns")? as u64,
                end_ns: n("end_ns")? as u64,
            }),
            "sample" => data.samples.push((s("name")?, n("value")?)),
            other => return Err(format!("unknown trace line kind '{other}'")),
        }
    }
    Ok(data)
}

/// How a per-layer metric is derived from the trace.
#[derive(Debug, Clone, Copy)]
pub enum Rule {
    /// Median wall time, in seconds, of the spans with this name.
    Wall(&'static str),
    /// Median self time, in seconds (wall time minus the part its child
    /// spans cover), of the spans with this name.
    SelfTime(&'static str),
    /// Median of the samples recorded under the metric's own name.
    Sample,
}

/// Every per-layer metric: name, unit, derivation. A layer a workload
/// leaves idle has no spans or samples and reads 0.
pub const PER_LAYER: &[(&str, &str, Rule)] = &[
    ("net_topology.wall_s", "s", Rule::Wall("net_topology")),
    ("bgp_sim.policy.wall_s", "s", Rule::Wall("bgp_sim.policy")),
    ("bgp_sim.engine.wall_s", "s", Rule::Wall("bgp_sim.engine")),
    ("bgp_sim.engine.cpu_s", "s", Rule::Sample),
    ("bgp_sim.engine.sweeps", "count", Rule::Sample),
    ("bgp_sim.engine.classes", "count", Rule::Sample),
    ("bgp_sim.engine.non_converged", "count", Rule::Sample),
    (
        "as_relationships.wall_s",
        "s",
        Rule::Wall("as_relationships"),
    ),
    ("as_relationships.paths", "count", Rule::Sample),
    ("rpi_core.wall_s", "s", Rule::Wall("rpi_core")),
    (
        "query.engine.ingest_s",
        "s",
        Rule::Wall("query.engine.ingest"),
    ),
    ("query.engine.routes", "count", Rule::Sample),
    (
        "query.archive.save_s",
        "s",
        Rule::Wall("query.archive.save"),
    ),
    ("query.archive.bytes", "bytes", Rule::Sample),
    ("query.tier.attach_s", "s", Rule::Wall("query.tier.attach")),
    ("world_build.self_s", "s", Rule::SelfTime("world_build")),
    ("query.proto.frame_ns", "ns", Rule::Sample),
    ("query.proto.parse_ns", "ns", Rule::Sample),
    ("query.proto.render_ns", "ns", Rule::Sample),
    ("query.plan.batch_ns", "ns", Rule::Sample),
    ("query.plan.execute_ns", "ns", Rule::Sample),
    ("query.plan.batch1_us", "us", Rule::Sample),
    ("query.plan.execute_us", "us", Rule::Sample),
    ("query.serve.batch_queries", "count", Rule::Sample),
    ("query.serve.bytes_in_per_query", "bytes", Rule::Sample),
    ("query.serve.bytes_out_per_query", "bytes", Rule::Sample),
    ("query.serve.cpu_ms_per_kquery", "ms", Rule::Sample),
    ("query.tier.hydrations", "count", Rule::Sample),
    ("query.tier.evictions", "count", Rule::Sample),
    ("query.tier.cold_hits", "count", Rule::Sample),
    (
        "query.tier.hydrations_per_history_query",
        "ratio",
        Rule::Sample,
    ),
    ("verb.route.p50_us", "us", Rule::Sample),
    ("verb.route_cold.p50_us", "us", Rule::Sample),
    ("verb.sa-history.p50_us", "us", Rule::Sample),
    ("verb.persistence.p50_us", "us", Rule::Sample),
    ("verb.uptime.p50_us", "us", Rule::Sample),
    ("verb.diff.p50_us", "us", Rule::Sample),
    ("bgp_sim.stream.decode_ms", "ms", Rule::Sample),
    ("query.live.publish_ms", "ms", Rule::Sample),
    ("query.engine.ingest_incremental_ms", "ms", Rule::Sample),
    ("query.archive.spill_bytes", "bytes", Rule::Sample),
    ("query.live.reader_gap_max_ms", "ms", Rule::Sample),
    ("trace.overhead_pct", "%", Rule::Sample),
];

/// Self time of each span: its duration minus the union of its
/// children's intervals (children may overlap when they run on
/// different threads).
fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Derives every [`PER_LAYER`] metric from a trace: `(name, unit, value)`.
pub fn derive(data: &TraceData) -> Vec<(&'static str, &'static str, f64)> {
    let selfs = self_times(&data.spans);
    let spans_named = |name: &'static str| data.spans.iter().filter(move |s| s.name == name);
    PER_LAYER
        .iter()
        .map(|&(metric, unit, rule)| {
            let values: Vec<f64> = match rule {
                Rule::Wall(span) => spans_named(span).map(|s| s.dur_ns() as f64 / 1e9).collect(),
                Rule::SelfTime(span) => spans_named(span)
                    .map(|s| selfs.get(&s.id).copied().unwrap_or(0) as f64 / 1e9)
                    .collect(),
                Rule::Sample => data
                    .samples
                    .iter()
                    .filter(|(n, _)| n == metric)
                    .map(|&(_, v)| v)
                    .collect(),
            };
            (metric, unit, median(&values))
        })
        .collect()
}

/// One row per span name: calls, total wall and total self time (s).
pub fn layer_table(data: &TraceData) -> Vec<(String, usize, f64, f64)> {
    let selfs = self_times(&data.spans);
    let mut rows: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    for s in &data.spans {
        let row = rows.entry(&s.name).or_default();
        row.0 += 1;
        row.1 += s.dur_ns() as f64 / 1e9;
        row.2 += selfs.get(&s.id).copied().unwrap_or(0) as f64 / 1e9;
    }
    rows.into_iter()
        .map(|(n, (c, w, s))| (n.to_string(), c, w, s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, a, b| Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns: a,
            end_ns: b,
        };
        // Root 0..100 with overlapping children 10..40 and 30..50, and a
        // grandchild that must not count against the root.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            span(4, 2, 12, 20),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 60);
        assert_eq!(s[&2], 22);
        assert_eq!(s[&4], 8);
    }

    #[test]
    fn flat_objects_round_trip_escapes() {
        let m = parse_flat(r#"{"a":"x\"y\\z\n","b":-1.5e3,"c":7}"#).expect("parses");
        assert_eq!(m["a"], Value::Str("x\"y\\z\n".to_string()));
        assert_eq!(m["b"], Value::Num(-1500.0));
        assert_eq!(m["c"], Value::Num(7.0));
        assert!(parse_flat(r#"{"a":}"#).is_err());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
