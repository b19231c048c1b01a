//! A minimal-size run of every workload: every named metric appears with
//! a unit, the trace file parses and yields every per-layer metric, and
//! every output check fails when fed a wrong expected value.

use std::path::PathBuf;
use std::time::Instant;

use perfbench::live;
use perfbench::trace::{self, Tracer, PER_LAYER};
use perfbench::{check_archive, pipelined_probe, run, Config, EndToEnd, Report, Tally, Workload};
use rpi_query::{Query, Scope};

fn minimal(workload: Workload, trace: bool, corrupt_expected: bool, tag: &str) -> Report {
    let out_dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{tag}-{}", workload.name()));
    let _ = std::fs::remove_dir_all(&out_dir);
    let cfg = Config {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        minimal: true,
        corrupt_expected,
        out_dir,
        started: Instant::now(),
    };
    run(&cfg).unwrap_or_else(|e| panic!("{} failed to run: {e}", workload.name()))
}

#[test]
fn every_workload_reports_every_end_to_end_metric_with_a_unit() {
    let names: Vec<&str> = EndToEnd::default().metrics().iter().map(|m| m.0).collect();
    for w in Workload::ALL {
        let r = minimal(w, false, false, "e2e");
        assert!(r.correct(), "{}: {:?}", w.name(), r.tally.failures);
        let metrics = r.metrics();
        assert_eq!(metrics.iter().map(|m| m.0).collect::<Vec<_>>(), names);
        for (name, unit, value) in metrics {
            assert!(!unit.is_empty(), "{}: {name} has no unit", w.name());
            assert!(
                value.is_finite() && value > 0.0,
                "{}: {name} = {value}",
                w.name()
            );
        }
        let line = r.result_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        for name in &names {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{line}"
            );
        }
    }
}

#[test]
fn traced_runs_write_a_trace_that_yields_every_per_layer_metric() {
    // The layer each workload loads must read nonzero in its trace.
    let loaded = [
        (Workload::WorldBuild, "bgp_sim.engine.wall_s"),
        (Workload::WorldBuild, "query.tier.attach_s"),
        (Workload::ServeInteractive, "verb.sa-history.p50_us"),
        (Workload::ServeInteractive, "query.tier.hydrations"),
        (Workload::ServeInteractive, "query.engine.routes"),
        // The pipelined and live-ingest probes of its traced run.
        (Workload::ServeInteractive, "query.serve.batch_queries"),
        (Workload::ServeInteractive, "query.proto.parse_ns"),
        (Workload::ServeInteractive, "query.live.publish_ms"),
        (
            Workload::ServeInteractive,
            "query.engine.ingest_incremental_ms",
        ),
    ];
    for w in Workload::ALL {
        let r = minimal(w, true, false, "trace");
        assert!(r.correct(), "{}: {:?}", w.name(), r.tally.failures);
        let path = r
            .trace_file
            .as_ref()
            .expect("traced runs write a trace file");
        let data = trace::read(path).expect("the trace file parses");
        assert!(!data.spans.is_empty(), "{}: no spans", w.name());
        let derived = trace::derive(&data);
        let names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(derived.iter().map(|m| m.0).collect::<Vec<_>>(), names);
        assert_eq!(
            r.metrics(),
            derived,
            "{}: reported metrics come from the file",
            w.name()
        );
        for (name, unit, _) in &derived {
            assert!(!unit.is_empty(), "{name} has no unit");
        }
        for (_, metric) in loaded.iter().filter(|(lw, _)| *lw == w) {
            let v = derived.iter().find(|m| m.0 == *metric).map(|m| m.2);
            assert!(v.is_some_and(|v| v > 0.0), "{}: {metric} = {v:?}", w.name());
        }
    }
}

#[test]
fn every_output_check_fails_on_a_wrong_expected_value() {
    for w in Workload::ALL {
        let r = minimal(w, false, true, "corrupt");
        assert!(!r.correct(), "{}: a corrupted expectation passed", w.name());
        assert!(r.tally.failed >= 1 && r.tally.failed < r.tally.attempted);
        assert!(
            r.tally.failures.iter().any(|f| f.contains("[corrupted]")),
            "{}: {:?}",
            w.name(),
            r.tally.failures
        );
        assert!(r.result_line().starts_with("{\"correct\": false"));
    }
    // The checks of the traced run's probes, each on its own.
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("corrupt-probes");
    let _ = std::fs::remove_dir_all(&work);
    let cfg = Config {
        workload: Workload::ServeInteractive,
        seed: 7,
        seconds: 1.0,
        trace: false,
        minimal: true,
        corrupt_expected: true,
        out_dir: work.clone(),
        started: Instant::now(),
    };
    let quiet = Tracer::quiet();
    let pipelined = pipelined_probe(&cfg, &quiet, &work.join("pipelined"), 0.5);
    let live = live::probe(&cfg, &quiet, &work.join("live"), 0.5);
    for (tally, what) in [
        (pipelined, "expected '"),
        (live, "live differs from offline"),
    ] {
        assert!(tally.failed >= 1 && tally.failed < tally.attempted);
        assert!(
            tally
                .failures
                .iter()
                .any(|f| f.contains(what) && f.contains("[corrupted]")),
            "{what}: {:?}",
            tally.failures
        );
    }
    // `world_build`'s check on a verb whose only probe answers an error
    // in memory: the archive giving the same error does not cover it.
    let error = "error: no such snapshot".to_string();
    let answered = "ok".to_string();
    let mut tally = Tally::default();
    check_archive(
        &[
            (Query::Diff.at(Scope::Latest), error.clone(), error),
            (Query::Hijacks.at(Scope::All), answered.clone(), answered),
        ],
        &mut tally,
    );
    assert!(tally.failed == 1 && tally.failed < tally.attempted);
    assert!(
        tally.failures.iter().any(|f| f.contains("'diff'")),
        "{:?}",
        tally.failures
    );
}
