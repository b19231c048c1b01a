//! The transport-agnostic [`Session`]: in process, the committed smoke
//! script renders the same bytes however its input is chunked — whole,
//! line by line, or one byte at a time — and those bytes are the golden
//! every front end (`--queries`, the stdin REPL, TCP) is diffed against.

use std::path::Path;

use bgp_sim::churn::simulate_series;
use bgp_sim::ChurnConfig;
use net_topology::InternetSize;
use rpi_core::Experiment;
use rpi_query::serve::session::Session;
use rpi_query::QueryEngine;

/// The smoke world of `tests/smoke.rs`: tiny seed 11, 4 daily
/// snapshots, 4 shards, the smoke ROA table — built the way
/// `rpi-queryd --size tiny --seed 11 --snapshots 4 --shards 4` does.
fn smoke_engine(data: &Path) -> QueryEngine {
    let exp = Experiment::standard(InternetSize::Tiny, 11);
    let cfg = ChurnConfig {
        steps: 4,
        ..ChurnConfig::daily(11 ^ 0xC0FFEE)
    };
    let series = simulate_series(&exp.graph, &exp.truth, &exp.spec, &cfg);
    let mut engine = QueryEngine::new(4);
    engine.ingest_series(&series, &exp.inferred_graph);
    let roas = std::fs::read_to_string(data.join("smoke.roas")).expect("roas committed");
    engine.set_roas(rpi_sec::RoaTable::parse(&roas).expect("smoke roas parse"));
    engine
}

/// Feeds `chunks` through one fresh session, then ends the stream.
fn render<'a>(engine: &QueryEngine, chunks: impl IntoIterator<Item = &'a [u8]>) -> String {
    let mut session = Session::new(16 * 1024);
    let mut out = Vec::new();
    let mut on_error = |_: &mut Vec<u8>, line: usize, msg: &str| {
        panic!("smoke line {line} failed: {msg}");
    };
    for chunk in chunks {
        session.feed(engine, chunk, &mut out, &mut on_error);
    }
    session.finish(engine, &mut out, &mut on_error);
    String::from_utf8(out).expect("utf-8 output")
}

#[test]
fn smoke_script_renders_identically_however_it_is_chunked() {
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let script = std::fs::read(data.join("smoke.q")).expect("script committed");
    let golden = std::fs::read_to_string(data.join("smoke.golden")).expect("golden committed");

    // A fresh engine per run: the `snapshots` listing reports live
    // engine counters, so every run must start from the same state.
    let whole = render(&smoke_engine(&data), [script.as_slice()]);
    assert_eq!(
        whole, golden,
        "whole-script session diverged from the golden"
    );

    let by_line = render(
        &smoke_engine(&data),
        script.split_inclusive(|&b| b == b'\n'),
    );
    assert_eq!(by_line, whole, "line-by-line feeding changed the output");

    let by_byte = render(&smoke_engine(&data), script.chunks(1));
    assert_eq!(by_byte, whole, "byte-by-byte feeding changed the output");
}
