//! Query inputs generated from the seed, their expected answers, and the
//! in-process replays behind the query-path per-layer metrics.

use std::time::Instant;

use bgp_sim::SimOutput;
use bgp_types::{Asn, Ipv4Prefix};
use rpi_query::{
    parse, render, render_response, LineFramer, Query, QueryEngine, QueryRequest, Scope, SnapshotId,
};

use crate::sys::median;
use crate::trace::Tracer;
use crate::world::World;

/// A small deterministic generator (splitmix64): inputs depend on the
/// seed alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Every `(vantage, prefix)` pair a snapshot of `out` can answer: each
/// Looking Glass's table prefixes and each collector peer's rows.
pub fn vantage_prefixes(out: &SimOutput) -> Vec<(Asn, Ipv4Prefix)> {
    let mut pairs: Vec<(Asn, Ipv4Prefix)> = Vec::new();
    for (&asn, view) in &out.lgs {
        pairs.extend(view.rows.keys().map(|&p| (asn, p)));
    }
    for (&p, rows) in &out.collector.rows {
        pairs.extend(rows.iter().map(|r| (r.peer, p)));
    }
    pairs
}

/// The rendered answer to `req`, or the error the engine gave.
pub fn render_answer(engine: &QueryEngine, req: &QueryRequest) -> String {
    match engine.execute(req) {
        Ok(resp) => render_response(req, &resp),
        Err(e) => format!("error: {e}"),
    }
}

/// `n` single-line point queries at `scope` drawn from the world: route,
/// sa and resolve over vantage prefixes, rel over links, summary over
/// ASes.
pub fn point_queries(w: &World, seed: u64, n: usize, scope: &Scope) -> Vec<QueryRequest> {
    let pairs = vantage_prefixes(&w.output);
    let ases: Vec<Asn> = w.graph.ases().collect();
    let mut rng = Rng::new(seed, 1);
    (0..n)
        .map(|i| {
            let (vantage, prefix) = pairs[rng.below(pairs.len())];
            let q = match i % 10 {
                0..=2 => Query::Route { vantage, prefix },
                3..=5 => Query::SaStatus { vantage, prefix },
                6 | 7 => Query::Resolve { vantage, prefix },
                8 => {
                    let a = ases[rng.below(ases.len())];
                    let b = w.graph.neighbors(a).next().map_or(vantage, |(b, _)| b);
                    Query::Relationship { a, b }
                }
                _ => Query::PolicySummary {
                    asn: ases[rng.below(ases.len())],
                },
            };
            q.at(scope.clone())
        })
        .collect()
}

/// The `world_build` probe set: every verb of the grammar over the
/// world, point queries first.
pub fn probe_set(w: &World, seed: u64, minimal: bool) -> Vec<QueryRequest> {
    let n_points = if minimal { 200 } else { 2000 };
    let mut reqs = point_queries(w, seed, n_points, &Scope::Latest);
    let pairs = vantage_prefixes(&w.output);
    let mut rng = Rng::new(seed, 2);
    for i in 0..64 {
        let (vantage, prefix) = pairs[rng.below(pairs.len())];
        reqs.push(match i % 4 {
            0 => Query::Rov { vantage, prefix }.at(Scope::Latest),
            1 => Query::SaHistory { vantage, prefix }.at(Scope::All),
            2 => Query::PersistenceClass { vantage, prefix }.at(Scope::All),
            _ => Query::TopKSaOrigins { vantage, k: 5 }.at(Scope::All),
        });
    }
    for &lg in w.spec.lg_ases.iter().take(4) {
        reqs.push(Query::UptimeHistogram { vantage: lg }.at(Scope::All));
    }
    reqs.push(Query::Hijacks.at(Scope::All));
    reqs.push(Query::Leaks.at(Scope::Latest));
    reqs.push(Query::Diff.at(Scope::Range(SnapshotId(0), SnapshotId(0))));
    reqs
}

/// Workload lines and their expected answers, keeping only queries the
/// engine answers without error (so a correct system fails none).
pub fn lines_with_expected(
    engine: &QueryEngine,
    reqs: &[QueryRequest],
) -> (Vec<String>, Vec<String>) {
    let mut lines = Vec::with_capacity(reqs.len());
    let mut expected = Vec::with_capacity(reqs.len());
    for req in reqs {
        let answer = render_answer(engine, req);
        if !answer.starts_with("error") {
            lines.push(render(req));
            expected.push(answer);
        }
    }
    (lines, expected)
}

/// Per-query costs of each stage of the pipelined query path, measured
/// in process over `lines`: framing, parsing and rendering (`proto`),
/// and batched planning at the pipeline's segment size against a serial
/// `execute` loop (the floor). Medians over five rounds.
pub fn replay_pipeline(engine: &QueryEngine, lines: &[String], segment: usize, tr: &Tracer) {
    let n = lines.len().max(1) as f64;
    let wire: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let reqs: Vec<QueryRequest> = lines.iter().filter_map(|l| parse(l).ok()).collect();
    let resps: Vec<_> = reqs.iter().filter_map(|r| engine.execute(r).ok()).collect();
    let per_req = reqs.len().max(1) as f64;
    let mut samples: [Vec<f64>; 5] = Default::default();
    for _ in 0..REPLAY_ROUNDS {
        let _round = tr.span("query.replay", 0);
        let t = Instant::now();
        let mut framer = LineFramer::new(16 * 1024);
        let mut frames = 0usize;
        for chunk in wire.as_bytes().chunks(64 * 1024) {
            frames += framer.push(chunk).len();
        }
        std::hint::black_box(frames);
        samples[0].push(t.elapsed().as_nanos() as f64 / n);

        let t = Instant::now();
        for l in lines {
            std::hint::black_box(parse(l).ok());
        }
        samples[1].push(t.elapsed().as_nanos() as f64 / n);

        let t = Instant::now();
        for (req, resp) in reqs.iter().zip(&resps) {
            std::hint::black_box(render_response(req, resp));
        }
        samples[2].push(t.elapsed().as_nanos() as f64 / resps.len().max(1) as f64);

        let t = Instant::now();
        for seg in reqs.chunks(segment) {
            std::hint::black_box(engine.execute_batch(seg));
        }
        samples[3].push(t.elapsed().as_nanos() as f64 / per_req);

        let t = Instant::now();
        for r in &reqs {
            std::hint::black_box(engine.execute(r).ok());
        }
        samples[4].push(t.elapsed().as_nanos() as f64 / per_req);
    }
    let names = [
        "query.proto.frame_ns",
        "query.proto.parse_ns",
        "query.proto.render_ns",
        "query.plan.batch_ns",
        "query.plan.execute_ns",
    ];
    for (name, s) in names.iter().zip(&samples) {
        tr.sample(name, median(s));
    }
}

/// The fixed cost of a one-request batch against one `execute`, per
/// request, over the first 200 of `lines`: medians over five rounds.
pub fn replay_single(engine: &QueryEngine, lines: &[String], tr: &Tracer) {
    let reqs: Vec<QueryRequest> = lines
        .iter()
        .take(200)
        .filter_map(|l| parse(l).ok())
        .collect();
    let (mut batch1, mut execute) = (Vec::new(), Vec::new());
    for _ in 0..REPLAY_ROUNDS {
        let _round = tr.span("query.replay", 0);
        for r in &reqs {
            let t = Instant::now();
            std::hint::black_box(engine.execute_batch(std::slice::from_ref(r)));
            batch1.push(t.elapsed().as_nanos() as f64 / 1e3);
            let t = Instant::now();
            std::hint::black_box(engine.execute(r).ok());
            execute.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    tr.sample("query.plan.batch1_us", median(&batch1));
    tr.sample("query.plan.execute_us", median(&execute));
}

/// Rounds of each in-process replay.
const REPLAY_ROUNDS: usize = 5;
