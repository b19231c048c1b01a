//! Serving through `rpi_query::serve::Server`: the `serve_interactive`
//! workload (a tier-attached archive, one query in flight per
//! connection) and the pipelined probe its traced run adds (a hot
//! engine, deep pipelines).

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bgp_sim::churn::simulate_series;
use bgp_sim::ChurnConfig;
use rpi_query::serve::{EngineSource, ServeConfig, Server};
use rpi_query::{
    render, Query, QueryEngine, SaveOptions, Scope, ServeStats, ServerHandle, SnapshotId,
};

use crate::client::{self, Conn, PipeResult};
use crate::queries::{self, lines_with_expected, point_queries, Rng};
use crate::sys::{median, quantile_us, thread_cpu_s};
use crate::trace::Tracer;
use crate::world;
use crate::{note_overhead, timed, Config, EndToEnd, Outcome, Tally, SHARDS, WORLD_SEED};

/// Set-ups per `serve_interactive` run.
const SETUP_REPS: usize = 5;
/// Client connections per serving workload, and the most client threads
/// any uses: at most `nproc` = 2.
const CONNS: usize = 2;
/// Queries each pipelined connection keeps in flight.
const PIPELINE_DEPTH: usize = 512;

/// A server running on its own thread; dropping it shuts the server
/// down and waits for its thread.
pub struct Served {
    /// Where the server listens.
    pub addr: SocketAddr,
    handle: ServerHandle,
    join: Option<JoinHandle<()>>,
    /// The serve loop's thread id, for its CPU time.
    pub tid: Option<u32>,
}

impl Served {
    /// Binds a loopback server over `source` with the daemon's default
    /// configuration (one serve thread) and starts it.
    pub fn start(source: EngineSource) -> Result<Served, String> {
        let server = Server::bind_source(source, "127.0.0.1:0", ServeConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("bound address: {e}"))?;
        let handle = server.handle();
        let (tx, rx) = std::sync::mpsc::channel();
        let join = std::thread::spawn(move || {
            let _ = tx.send(crate::sys::current_tid());
            if let Err(e) = server.run() {
                eprintln!("serve loop failed: {e}");
            }
        });
        let tid = rx.recv().ok().flatten();
        Ok(Served {
            addr,
            handle,
            join: Some(join),
            tid,
        })
    }

    /// The server's live counters.
    pub fn stats(&self) -> ServeStats {
        self.handle.stats()
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// Runs the pipelined client over [`CONNS`] connections against `addr`
/// for `secs` and returns what it saw.
fn pipelined_window(
    addr: SocketAddr,
    lines: &[String],
    expected: &[String],
    depth: usize,
    secs: f64,
    tr: &Tracer,
) -> PipeResult {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let stop = &stop;
        let client =
            s.spawn(move || client::pipelined(addr, CONNS, lines, Some(expected), depth, stop, tr));
        std::thread::sleep(Duration::from_secs_f64(secs));
        stop.store(true, Ordering::Release);
        client.join().expect("pipelined client panicked")
    })
}

/// Reads the mean queries per `execute_batch` the server ran from the
/// `metrics` verb: served queries over planned batches.
fn batch_queries(addr: SocketAddr, tally: &mut Tally) -> Option<f64> {
    let mut conn = Conn::open(addr, tally)?;
    tally.attempt(1);
    let lines = match conn.listing("metrics") {
        Ok(l) => l,
        Err(e) => {
            tally.fail(1, format!("metrics verb: {e}"));
            return None;
        }
    };
    conn.close();
    let value = |l: &str| l.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok());
    let queries: f64 = lines
        .iter()
        .filter(|l| l.starts_with("rpi_serve_queries_total"))
        .filter_map(|l| value(l))
        .sum();
    let batches = lines
        .iter()
        .find(|l| l.starts_with("rpi_plan_batch_seconds_count"))
        .and_then(|l| value(l))?;
    (batches > 0.0).then(|| queries / batches)
}

struct PipeSetup {
    engine: Arc<QueryEngine>,
    lines: Vec<String>,
    expected: Vec<String>,
    served: Served,
}

fn pipelined_setup(cfg: &Config, tr: &Tracer) -> Result<PipeSetup, String> {
    let root = tr.span("pipelined.setup", 0);
    // The world is built untraced, so that the set-up layers' metrics
    // describe the workload's own set-up only.
    let w = world::build(
        cfg.workload.world(cfg.minimal),
        WORLD_SEED,
        &Tracer::quiet(),
        0,
    );
    let mut engine = QueryEngine::new(SHARDS);
    engine.ingest_output(&w.output, &w.inferred_graph, "t0");
    let n = if cfg.minimal { 512 } else { 8192 };
    let reqs = point_queries(&w, cfg.seed, n, &Scope::Latest);
    let (lines, mut expected) = lines_with_expected(&engine, &reqs);
    if cfg.corrupt_expected {
        expected[0].push_str(" [corrupted]");
    }
    let engine = Arc::new(engine);
    let served = Served::start(EngineSource::Frozen(Arc::clone(&engine)))?;
    drop(root);
    Ok(PipeSetup {
        engine,
        lines,
        expected,
        served,
    })
}

/// What one set-up measured.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Seed to a queryable engine.
    pub world_build_s: f64,
    /// Snapshots simulated, indexed, saved and attached per second.
    pub epochs_per_s: f64,
    /// Gao inference accuracy on the world.
    pub accuracy: f64,
    /// The whole set-up.
    pub setup_s: f64,
}

/// Runs `setup` `reps` times, dropping each result but the last before
/// the next starts, and fills the set-up metrics of `e2e`: `setup_s` is
/// the median repetition; the world build and its ingest rate are the
/// best repetition's — the same deterministic work each time, which
/// outside load can only slow, so the best one is the steadiest reading
/// of it.
pub fn repeat_setup<T>(
    e2e: &mut EndToEnd,
    reps: usize,
    mut setup: impl FnMut() -> Result<(T, SetupTimes), String>,
) -> Result<T, String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let (t, st) = setup()?;
        times.push(st);
        last = Some(t);
    }
    let med = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    e2e.world_build_s = times
        .iter()
        .map(|t| t.world_build_s)
        .fold(f64::INFINITY, f64::min);
    e2e.epochs_per_s = times.iter().map(|t| t.epochs_per_s).fold(0.0, f64::max);
    e2e.gao_accuracy = med(|t| t.accuracy);
    e2e.setup_s = med(|t| t.setup_s);
    Ok(last.expect("at least one set-up"))
}

/// The outcome of a run whose set-up failed.
pub fn setup_failed(e: String) -> Outcome {
    let mut tally = Tally::default();
    tally.attempt(1);
    tally.fail(1, format!("set-up: {e}"));
    Outcome {
        e2e: EndToEnd::default(),
        tally,
    }
}

/// The pipelined probe of `serve_interactive`'s traced run: a hot
/// Small-world engine behind the server, one client thread keeping a
/// 512-deep pipeline of point queries on each of two connections for
/// `secs`, every answer byte-compared to in-process `execute` +
/// `render_response`. Records the serve path's per-layer samples, the
/// in-process query-path replays at the pipeline's segment size, and
/// runs the live-ingest probe. Returns the probes' operations and checks.
///
/// Not a workload of its own: with client and serve loop both busy on
/// two shared cores, its qps and latency percentiles moved by 30–60%
/// between runs whenever other load appeared on the host.
pub fn pipelined_probe(cfg: &Config, tr: &Tracer, work: &Path, secs: f64) -> Tally {
    let mut tally = Tally::default();
    let s = match pipelined_setup(cfg, tr) {
        Ok(s) => s,
        Err(e) => {
            tally.attempt(1);
            tally.fail(1, format!("pipelined set-up: {e}"));
            return tally;
        }
    };
    let depth = if cfg.minimal { 64 } else { PIPELINE_DEPTH };
    let stats0 = s.served.stats();
    let cpu0 = thread_cpu_s(s.served.tid);
    let res = pipelined_window(s.served.addr, &s.lines, &s.expected, depth, secs, tr);
    let cpu1 = thread_cpu_s(s.served.tid);
    let stats1 = s.served.stats();
    tally.absorb(res.tally);
    let served = (stats1.queries - stats0.queries).max(1) as f64;
    let per_query = |a: u64, b: u64| (b - a) as f64 / served;
    tr.sample(
        "query.serve.bytes_in_per_query",
        per_query(stats0.bytes_in, stats1.bytes_in),
    );
    tr.sample(
        "query.serve.bytes_out_per_query",
        per_query(stats0.bytes_out, stats1.bytes_out),
    );
    tr.sample(
        "query.serve.cpu_ms_per_kquery",
        (cpu1 - cpu0) * 1e3 / (served / 1e3),
    );
    if let Some(b) = batch_queries(s.served.addr, &mut tally) {
        tr.sample("query.serve.batch_queries", b);
    }
    queries::replay_pipeline(&s.engine, &s.lines, depth, tr);
    drop(s);
    tally.absorb(crate::live::probe(cfg, tr, work, secs));
    tally
}

/// Query classes of `serve_interactive`, for per-verb latency.
const KIND_ROUTE: u8 = 0;
const KIND_POINT: u8 = 1;
const KIND_ROUTE_COLD: u8 = 2;
const HISTORY_KINDS: [(u8, &str); 4] = [
    (3, "verb.sa-history.p50_us"),
    (4, "verb.persistence.p50_us"),
    (5, "verb.uptime.p50_us"),
    (6, "verb.diff.p50_us"),
];

/// Snapshots in the interactive archive, and how many stay hydrated.
const SERIES_SNAPSHOTS: usize = 6;
const HOT_CAP: usize = 2;
/// One history query per this many queries: p50 lands on a point query
/// and p99 on a history query.
const HISTORY_EVERY: usize = 50;
/// Cold point queries per [`HISTORY_EVERY`] queries.
const COLD_PER_PERIOD: usize = 5;

struct InteractiveSetup {
    engine: Arc<QueryEngine>,
    lines: Vec<String>,
    expected: Vec<String>,
    kinds: Vec<u8>,
    schedule: Vec<usize>,
    replay_lines: Vec<String>,
    served: Served,
}

fn interactive_setup(
    cfg: &Config,
    tr: &Tracer,
    work: &Path,
) -> Result<(InteractiveSetup, SetupTimes), String> {
    let t0 = Instant::now();
    let root = tr.span("setup", 0);
    let w = world::build(cfg.workload.world(cfg.minimal), WORLD_SEED, tr, root.id());
    let snapshots = if cfg.minimal { 4 } else { SERIES_SNAPSHOTS };
    // The series journey, timed for the snapshot rate: simulation alone
    // would not show indexing, and the ingest alone (about 0.1 s) reads
    // up to 1.5x apart between processes.
    let t_series = Instant::now();
    let series = {
        let _s = tr.span("bgp_sim.churn", root.id());
        let churn = ChurnConfig {
            steps: snapshots,
            ..ChurnConfig::daily(WORLD_SEED ^ 0xD417)
        };
        simulate_series(&w.graph, &w.truth, &w.spec, &churn)
    };
    let mut mem = QueryEngine::new(SHARDS);
    {
        let _s = tr.span("query.engine.ingest", root.id());
        mem.ingest_series_incremental(&series, &w.inferred_graph);
    }
    let routes: usize = series.snapshots.iter().map(world::route_count).sum();
    tr.sample("query.engine.routes", routes as f64);
    let dir = work.join("archive");
    {
        let _s = tr.span("query.archive.save", root.id());
        let opts = SaveOptions {
            keyframe_every: Some(4),
        };
        mem.save_archive_with(&dir, true, opts)
            .map_err(|e| format!("archive save: {e}"))?;
    }
    tr.sample(
        "query.archive.bytes",
        mem.archive_info().map_or(0, |a| a.total_bytes()) as f64,
    );
    let tiered = {
        let _s = tr.span("query.tier.attach", root.id());
        QueryEngine::load_archive_tiered(&dir, HOT_CAP)
            .map_err(|e| format!("tiered attach: {e}"))?
    };
    let world_build_s = t0.elapsed().as_secs_f64();
    let series_s = t_series.elapsed().as_secs_f64();

    // The query mix: latest points, points at snapshots outside the hot
    // set (answered zero-copy off the mapping), and history verbs that
    // hydrate every snapshot.
    let n_points = if cfg.minimal { 256 } else { 4096 };
    let latest = point_queries(&w, cfg.seed, n_points, &Scope::Latest);
    let pairs = queries::vantage_prefixes(&w.output);
    let mut rng = Rng::new(cfg.seed, 3);
    // Keyframes outside the hot set answer point queries zero-copy off
    // their mapping; delta segments would hydrate instead.
    let cold_ids: Vec<u32> = (0..(snapshots - HOT_CAP) as u32)
        .filter(|&i| {
            tiered
                .segment_meta(SnapshotId(i))
                .is_some_and(|m| m.keyframe)
        })
        .collect();
    if cold_ids.is_empty() {
        return Err("the archive has no keyframe outside the hot set".to_string());
    }
    let cold: Vec<_> = (0..512)
        .map(|_| {
            let (vantage, prefix) = pairs[rng.below(pairs.len())];
            let id = SnapshotId(cold_ids[rng.below(cold_ids.len())]);
            Query::Route { vantage, prefix }.at(Scope::Id(id))
        })
        .collect();
    let mut history = Vec::new();
    for i in 0..64 {
        let (vantage, prefix) = pairs[rng.below(pairs.len())];
        let lg = w.spec.lg_ases[rng.below(w.spec.lg_ases.len())];
        let a = rng.below(snapshots - 1) as u32;
        history.push(match i % 4 {
            0 => Query::SaHistory { vantage, prefix }.at(Scope::All),
            1 => Query::PersistenceClass { vantage, prefix }.at(Scope::All),
            2 => Query::UptimeHistogram { vantage: lg }.at(Scope::All),
            _ => Query::Diff.at(Scope::Range(
                SnapshotId(a),
                SnapshotId(snapshots as u32 - 1),
            )),
        });
    }
    let kind_of = |q: &Query, scope: &Scope| match (q, scope) {
        (Query::Route { .. }, Scope::Latest) => KIND_ROUTE,
        (Query::Route { .. }, _) => KIND_ROUTE_COLD,
        (Query::SaHistory { .. }, _) => 3,
        (Query::PersistenceClass { .. }, _) => 4,
        (Query::UptimeHistogram { .. }, _) => 5,
        (Query::Diff, _) => 6,
        _ => KIND_POINT,
    };
    let all: Vec<_> = latest
        .iter()
        .chain(&cold)
        .chain(&history)
        .cloned()
        .collect();
    let (mut lines, mut expected, mut kinds) = (Vec::new(), Vec::new(), Vec::new());
    let (mut latest_ix, mut cold_ix, mut history_ix) = (Vec::new(), Vec::new(), Vec::new());
    for req in &all {
        let answer = queries::render_answer(&mem, req);
        if answer.starts_with("error") {
            continue;
        }
        let kind = kind_of(&req.query, &req.scope);
        match kind {
            KIND_ROUTE | KIND_POINT => latest_ix.push(lines.len()),
            KIND_ROUTE_COLD => cold_ix.push(lines.len()),
            _ => history_ix.push(lines.len()),
        }
        lines.push(render(req));
        expected.push(answer);
        kinds.push(kind);
    }
    if latest_ix.is_empty() || cold_ix.is_empty() || history_ix.is_empty() {
        return Err("the world yields no query of some class".to_string());
    }
    if cfg.corrupt_expected {
        let first = latest_ix[0];
        expected[first].push_str(" [corrupted]");
    }
    let replay_lines: Vec<String> = latest_ix.iter().map(|&i| lines[i].clone()).collect();
    let periods = 64;
    let mut schedule = Vec::with_capacity(periods * HISTORY_EVERY);
    let (mut l, mut c) = (0usize, 0usize);
    for p in 0..periods {
        schedule.push(history_ix[p % history_ix.len()]);
        for k in 1..HISTORY_EVERY {
            if k <= COLD_PER_PERIOD {
                schedule.push(cold_ix[c % cold_ix.len()]);
                c += 1;
            } else {
                schedule.push(latest_ix[l % latest_ix.len()]);
                l += 1;
            }
        }
    }
    let engine = Arc::new(tiered);
    let served = Served::start(EngineSource::Frozen(Arc::clone(&engine)))?;
    drop(root);
    let times = SetupTimes {
        world_build_s,
        epochs_per_s: snapshots as f64 / series_s.max(1e-9),
        accuracy: w.accuracy,
        setup_s: t0.elapsed().as_secs_f64(),
    };
    Ok((
        InteractiveSetup {
            engine,
            lines,
            expected,
            kinds,
            schedule,
            replay_lines,
            served,
        },
        times,
    ))
}

/// The `serve_interactive` workload.
pub fn run_interactive(cfg: &Config, tr: &Tracer, work: &Path) -> Outcome {
    let mut tally = Tally::default();
    let mut e2e = EndToEnd::default();
    let s = match repeat_setup(&mut e2e, SETUP_REPS, || interactive_setup(cfg, tr, work)) {
        Ok(s) => s,
        Err(e) => return setup_failed(e),
    };

    let mut tier0 = None;
    let ((res, window), untraced) = timed(cfg, tr, |secs| {
        tier0 = s.engine.tier_stats();
        let stop = AtomicBool::new(false);
        let t0 = Instant::now();
        let results: Vec<client::InteractiveResult> = std::thread::scope(|sc| {
            let stop = &stop;
            let s = &s;
            let clients: Vec<_> = (0..CONNS)
                .map(|c| {
                    sc.spawn(move || {
                        client::interactive(
                            s.served.addr,
                            &s.lines,
                            &s.expected,
                            &s.kinds,
                            &s.schedule,
                            c * s.schedule.len() / CONNS,
                            stop,
                            tr,
                        )
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_secs_f64(secs));
            stop.store(true, Ordering::Release);
            clients
                .into_iter()
                .map(|c| c.join().expect("interactive client panicked"))
                .collect()
        });
        let window = t0.elapsed().as_secs_f64();
        let mut merged = client::InteractiveResult::default();
        for r in results {
            merged.samples.extend(r.samples);
            merged.tally.absorb(r.tally);
        }
        (merged, window)
    });
    e2e.peak_rss_mb = crate::sys::peak_rss_mb();
    let all_ns: Vec<u32> = res.samples.iter().map(|&(_, ns)| ns).collect();
    e2e.qps = all_ns.len() as f64 / window;
    e2e.latency_p50_us = quantile_us(&all_ns, 0.5);
    e2e.latency_p99_us = quantile_us(&all_ns, 0.99);
    e2e.latency_samples = all_ns.len();
    tally.absorb(res.tally);
    if let Some((u, _)) = &untraced {
        tally.absorb(u.tally.clone());
    }

    if cfg.trace {
        if let Some((u, uw)) = &untraced {
            note_overhead(tr, u.samples.len() as f64 / uw, e2e.qps, true);
        }
        let of_kind = |k: u8| -> Vec<u32> {
            res.samples
                .iter()
                .filter(|&&(kind, _)| kind == k)
                .map(|&(_, ns)| ns)
                .collect()
        };
        tr.sample("verb.route.p50_us", quantile_us(&of_kind(KIND_ROUTE), 0.5));
        tr.sample(
            "verb.route_cold.p50_us",
            quantile_us(&of_kind(KIND_ROUTE_COLD), 0.5),
        );
        let mut history_queries = 0usize;
        for (k, name) in HISTORY_KINDS {
            let v = of_kind(k);
            history_queries += v.len();
            tr.sample(name, quantile_us(&v, 0.5));
        }
        if let (Some(a), Some(b)) = (tier0, s.engine.tier_stats()) {
            let hydrations = (b.hydrations - a.hydrations) as f64;
            tr.sample("query.tier.hydrations", hydrations);
            tr.sample("query.tier.evictions", (b.evictions - a.evictions) as f64);
            tr.sample("query.tier.cold_hits", (b.cold_hits - a.cold_hits) as f64);
            tr.sample(
                "query.tier.hydrations_per_history_query",
                hydrations / history_queries.max(1) as f64,
            );
        }
        queries::replay_single(&s.engine, &s.replay_lines, tr);
        let probe_secs = (cfg.seconds / 4.0).clamp(0.5, 4.0);
        tally.absorb(pipelined_probe(cfg, tr, work, probe_secs));
    }
    Outcome { e2e, tally }
}
