//! The live-ingest probe: a `LiveWriter` publishes `RPLIVE01` frames as
//! fast as it can while one connection pipelines `@latest` reads at the
//! `LiveHandle`-backed server — writes sharing the engine with reads. It
//! runs inside `serve_interactive`'s traced run and feeds the live path's
//! per-layer metrics and the live ≡ offline check. It is not a workload
//! of its own: with three busy threads on two cores its reader figures
//! swung by 25–60% (p99 by up to 2x) between runs of the same code.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bgp_sim::churn::simulate_series;
use bgp_sim::stream::{next_step, read_header, StreamFrame, StreamStep, StreamWriter};
use bgp_sim::{ChurnConfig, SimOutput};
use net_topology::AsGraph;
use rpi_query::serve::EngineSource;
use rpi_query::{LiveHandle, LiveOptions, LiveWriter, Query, QueryEngine, Scope, SnapshotId};

use crate::client;
use crate::queries::{self, lines_with_expected, point_queries, render_answer, Rng};
use crate::serving::Served;
use crate::sys::{dir_bytes, median};
use crate::trace::Tracer;
use crate::world;
use crate::{Config, Tally, SHARDS, WORLD_SEED};

/// Distinct simulated snapshots behind the stream.
const SERIES_SNAPSHOTS: usize = 4;
/// Queries the reader keeps in flight.
const READ_DEPTH: usize = 256;
/// The writer's hot window and spill keyframe cadence (the daemon's
/// defaults).
const LIVE_OPTIONS: LiveOptions = LiveOptions {
    window: 4,
    keyframe_every: 4,
};

/// Encodes `snapshots` as an `RPLIVE01` stream under `oracle`, followed
/// by a frame that returns to the first snapshot, so the frames after
/// the first can be replayed in a cycle.
fn encode_stream(oracle: &AsGraph, labels: &[String], snapshots: &[SimOutput]) -> Vec<u8> {
    let (mut w, mut bytes) = StreamWriter::open(oracle);
    for (label, out) in labels.iter().zip(snapshots) {
        bytes.extend_from_slice(&w.frame(label, out, None));
    }
    bytes.extend_from_slice(&w.frame("wrap", &snapshots[0], None));
    bytes.extend_from_slice(&w.end());
    bytes
}

/// Decodes a complete stream into its oracle and frames.
fn decode_stream(bytes: &[u8]) -> Result<(AsGraph, Vec<StreamFrame>), String> {
    let (oracle, mut offset) = read_header(bytes)
        .map_err(|e| format!("stream header: {e:?}"))?
        .ok_or("stream header incomplete")?;
    let mut frames = Vec::new();
    loop {
        match next_step(bytes, offset).map_err(|e| format!("stream frame: {e:?}"))? {
            StreamStep::Frame(f, next) => {
                frames.push(*f);
                offset = next;
            }
            StreamStep::End(_) => return Ok((oracle, frames)),
            StreamStep::NeedMore => return Err(format!("stream truncated at byte {offset}")),
        }
    }
}

/// Frame `k` of the endless publication sequence: frame 0 carries the
/// whole world; after it, the remaining frames (whose last returns to
/// the first snapshot) repeat, relabelled so every epoch is distinct.
fn frame_at(frames: &[StreamFrame], k: usize) -> StreamFrame {
    let i = if k == 0 {
        0
    } else {
        1 + (k - 1) % (frames.len() - 1)
    };
    let mut f = frames[i].clone();
    f.label = format!("epoch-{k:05}");
    f
}

struct LiveSetup {
    oracle: AsGraph,
    frames: Vec<StreamFrame>,
    handle: Arc<LiveHandle>,
    writer: LiveWriter,
    served: Served,
    lines: Vec<String>,
    pairs: Vec<(bgp_types::Asn, bgp_types::Ipv4Prefix)>,
    spill: std::path::PathBuf,
}

fn live_setup(cfg: &Config, tr: &Tracer, work: &Path) -> Result<LiveSetup, String> {
    let root = tr.span("live.setup", 0);
    // The world is built untraced, so that the set-up layers' metrics
    // describe the workload's own set-up only.
    let w = world::build(
        cfg.workload.world(cfg.minimal),
        WORLD_SEED,
        &Tracer::quiet(),
        0,
    );
    let series = {
        let _s = tr.span("bgp_sim.churn", root.id());
        let churn = ChurnConfig {
            seed: WORLD_SEED ^ 0x11FE,
            steps: if cfg.minimal { 3 } else { SERIES_SNAPSHOTS },
            flip_prob: 0.3,
            link_failure_prob: 0.15,
            label: "live",
        };
        simulate_series(&w.graph, &w.truth, &w.spec, &churn)
    };
    let bytes = {
        let _s = tr.span("bgp_sim.stream.encode", root.id());
        encode_stream(&w.inferred_graph, &series.labels, &series.snapshots)
    };
    let t_decode = Instant::now();
    let (oracle, frames) = {
        let _s = tr.span("bgp_sim.stream.decode", root.id());
        decode_stream(&bytes)?
    };
    tr.sample(
        "bgp_sim.stream.decode_ms",
        t_decode.elapsed().as_secs_f64() * 1e3 / frames.len() as f64,
    );

    let spill = work.join("spill");
    let handle = LiveHandle::new(QueryEngine::new(SHARDS));
    let served = Served::start(EngineSource::Live(Arc::clone(&handle)))?;
    let mut writer = LiveWriter::open(Arc::clone(&handle), oracle.clone(), &spill, LIVE_OPTIONS)
        .map_err(|e| format!("live writer: {e}"))?;
    {
        let _s = tr.span("query.live.publish", root.id());
        writer
            .publish_frame(&frame_at(&frames, 0))
            .map_err(|e| format!("first publish: {e}"))?;
    }
    let n = if cfg.minimal { 256 } else { 4096 };
    let reqs = point_queries(&w, cfg.seed, n, &Scope::Latest);
    let (lines, _) = lines_with_expected(&handle.current(), &reqs);
    drop(root);
    let pairs = queries::vantage_prefixes(&series.snapshots[series.snapshots.len() - 1]);
    Ok(LiveSetup {
        oracle,
        frames,
        handle,
        writer,
        served,
        lines,
        pairs,
        spill,
    })
}

/// The live ≡ offline check: an offline engine built from the same
/// frames through the incremental ingest path renders a probe set
/// byte-identically to the last published epoch.
fn check_live_equals_offline(
    cfg: &Config,
    s: &LiveSetup,
    published: usize,
    tr: &Tracer,
    tally: &mut Tally,
) {
    let mut offline = QueryEngine::new(SHARDS);
    let mut prev = SimOutput::default();
    for k in 0..published {
        let f = frame_at(&s.frames, k);
        let out = f.apply(&prev);
        if k == 0 {
            offline.ingest_output(&out, &s.oracle, &f.label);
        } else {
            let t = Instant::now();
            offline.ingest_output_incremental(&prev, &out, &s.oracle, &f.label);
            tr.sample(
                "query.engine.ingest_incremental_ms",
                t.elapsed().as_secs_f64() * 1e3,
            );
        }
        prev = out;
    }
    let live = s.handle.current();
    let mut probes: Vec<_> = s
        .lines
        .iter()
        .take(512)
        .filter_map(|l| rpi_query::parse(l).ok())
        .collect();
    let mut rng = Rng::new(cfg.seed, 4);
    // Points at earlier epochs, most of them spilled: each hydrates its
    // delta chain on the live side, so keep these few.
    for _ in 0..16 {
        let (vantage, prefix) = s.pairs[rng.below(s.pairs.len())];
        let id = SnapshotId(rng.below(published) as u32);
        probes.push(Query::Route { vantage, prefix }.at(Scope::Id(id)));
    }
    for (i, req) in probes.iter().enumerate() {
        let mut expected = render_answer(&offline, req);
        if cfg.corrupt_expected && i == 0 {
            expected.push_str(" [corrupted]");
        }
        let actual = render_answer(&live, req);
        tally.check(actual == expected, || {
            format!(
                "live differs from offline for '{}': '{actual}' vs '{expected}'",
                rpi_query::render(req)
            )
        });
    }
}

/// Runs the live-ingest probe for `secs`: set up a stream, a live
/// server and its writer, publish frames back to back while one
/// connection pipelines reads, record the live path's per-layer samples,
/// then check live ≡ offline. Returns the probe's operations and checks.
pub fn probe(cfg: &Config, tr: &Tracer, work: &Path, secs: f64) -> Tally {
    let mut tally = Tally::default();
    let mut s = match live_setup(cfg, tr, work) {
        Ok(s) => s,
        Err(e) => {
            tally.attempt(1);
            tally.fail(1, format!("live set-up: {e}"));
            return tally;
        }
    };
    let depth = if cfg.minimal { 32 } else { READ_DEPTH };
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let mut publish_ms = Vec::new();
    let mut published = 1usize;
    let (addr, lines) = (s.served.addr, &s.lines);
    let reads = std::thread::scope(|sc| {
        let stop = &stop;
        let reader = sc.spawn(move || client::pipelined(addr, 1, lines, None, depth, stop, tr));
        while t0.elapsed().as_secs_f64() < secs {
            let frame = frame_at(&s.frames, published);
            tally.attempt(1);
            let t = Instant::now();
            let res = {
                let _span = tr.span("query.live.publish", 0);
                s.writer.publish_frame(&frame)
            };
            if let Err(e) = res {
                tally.fail(1, format!("publish {}: {e}", frame.label));
                break;
            }
            publish_ms.push(t.elapsed().as_secs_f64() * 1e3);
            published += 1;
        }
        stop.store(true, Ordering::Release);
        reader.join().expect("live reader panicked")
    });
    s.writer.end();
    tr.sample("query.live.publish_ms", median(&publish_ms));
    tr.sample(
        "query.live.reader_gap_max_ms",
        reads.max_gap.as_secs_f64() * 1e3,
    );
    tr.sample(
        "query.archive.spill_bytes",
        dir_bytes(&s.spill) as f64 / published as f64,
    );
    tally.absorb(reads.tally);
    check_live_equals_offline(cfg, &s, published, tr, &mut tally);
    tally
}
