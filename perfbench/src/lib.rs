//! # perfbench — the repository's benchmark
//!
//! One command runs one of two workloads against the system's public
//! API, times it end to end, checks its outputs, and (in a separate
//! traced run) derives per-layer metrics from spans the benchmark
//! records around its own calls into each layer:
//!
//! * `world_build` — the offline journey on the Paper world: topology →
//!   policies → simulation → Gao inference → the `rpi_core` analyses →
//!   ingest → archive save → tiered attach ([`world`]).
//! * `serve_interactive` — a tier-attached churn-series archive whose
//!   working set exceeds the hot set, two connections with one query in
//!   flight each, mixing latest, cold and history queries ([`serving`]).
//!
//! The traced run of `serve_interactive` also runs two probes that feed
//! per-layer metrics only: the pipelined probe ([`pipelined_probe`]: a
//! hot Small-world engine, two connections keeping 512-deep pipelines of
//! point queries) and the live-ingest probe ([`live`]: a `LiveWriter`
//! publishing `RPLIVE01` frames as fast as it can while one connection
//! pipelines reads).
//!
//! The seed is a benchmark argument; the system only receives the inputs
//! generated from it (the worlds themselves are fixed, see
//! [`WORLD_SEED`]). All client loops are closed: each caller waits for
//! its answers before sending more.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::time::Instant;

use net_topology::InternetSize;

mod client;
pub mod live;
mod queries;
mod serving;
mod sys;
pub mod trace;
mod world;

pub use serving::pipelined_probe;
pub use world::check_archive;

use sys::Provenance;
use trace::Tracer;

/// Shards per vantage table — the daemon's default.
pub const SHARDS: usize = 8;

/// The seed of every workload's world — topology, policies, simulated
/// views and churn series — fixed so that runs with different `--seed`s
/// measure the same world: across seeds, Small worlds differ by up to
/// 40% in build time, Paper worlds by about 20% and churn series by
/// about 2x in hydration cost, more than any bound a regression check
/// could use. `--seed` generates each workload's traffic: the probe
/// sets and query mixes.
pub const WORLD_SEED: u64 = 2003;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Seed to attached archive on the Paper world.
    WorldBuild,
    /// One query in flight per connection against a tiered archive.
    ServeInteractive,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::WorldBuild, Workload::ServeInteractive];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WorldBuild => "world_build",
            Workload::ServeInteractive => "serve_interactive",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The world the workload runs on (`minimal` shrinks every workload
    /// to the Tiny world for the benchmark's own tests).
    pub fn world(self, minimal: bool) -> InternetSize {
        match (self, minimal) {
            (_, true) => InternetSize::Tiny,
            (Workload::WorldBuild, false) => InternetSize::Paper,
            (_, false) => InternetSize::Small,
        }
    }
}

/// One benchmark run's parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// What to run.
    pub workload: Workload,
    /// The seed every input is generated from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny worlds and short series, for the benchmark's own tests.
    pub minimal: bool,
    /// Corrupts one expected value before the output check, so tests can
    /// prove each check fails when it should.
    pub corrupt_expected: bool,
    /// Where scratch archives, spill segments and trace files go.
    pub out_dir: PathBuf,
    /// When the process started, for `world_build`'s `setup_s`.
    pub started: Instant,
}

/// Operations attempted and failed. Failures are error responses, short
/// reads, timeouts, refused connects and failed output checks; every one
/// also counts as attempted, so nothing leaves the denominator.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Marks `n` already-attempted operations failed.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        self.failed += n;
        if self.failures.len() < 8 {
            self.failures.push(why.into());
        }
    }

    /// Counts one output check, failed unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempt(1);
        if !ok {
            self.fail(1, why());
        }
    }

    /// Adds `other`'s counts to this tally.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

/// The end-to-end metrics every workload reports. Where a journey is not
/// the workload's timed phase, the value comes from the workload's own
/// set-up (see `perfbench/README.md` for each definition).
#[derive(Debug, Default, Clone)]
pub struct EndToEnd {
    /// Seed to an attached, queryable engine or archive (median).
    pub world_build_s: f64,
    /// Gao inference accuracy against the ground truth.
    pub gao_accuracy: f64,
    /// Queries answered per second.
    pub qps: f64,
    /// Client-side per-query latency, median.
    pub latency_p50_us: f64,
    /// Client-side per-query latency, 99th percentile.
    pub latency_p99_us: f64,
    /// Latency samples behind the percentiles.
    pub latency_samples: usize,
    /// Snapshots indexed into a queryable engine per second.
    pub epochs_per_s: f64,
    /// Median duration of one set-up (everything before the clock).
    pub setup_s: f64,
    /// The process's peak resident set when the timed phase ends.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// `(name, unit, value)` for every end-to-end metric.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        vec![
            ("world_build_s", "s", self.world_build_s),
            ("gao_accuracy", "ratio", self.gao_accuracy),
            ("qps", "1/s", self.qps),
            ("latency_p50_us", "us", self.latency_p50_us),
            ("latency_p99_us", "us", self.latency_p99_us),
            ("epochs_per_s", "1/s", self.epochs_per_s),
            ("setup_s", "s", self.setup_s),
            ("peak_rss_mb", "MB", self.peak_rss_mb),
        ]
    }
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Its end-to-end metrics.
    pub e2e: EndToEnd,
    /// Its operation and check counts.
    pub tally: Tally,
}

/// A finished run.
#[derive(Debug)]
pub struct Report {
    /// Machine and run header.
    pub provenance: Provenance,
    /// End-to-end metrics (meaningful in untraced runs).
    pub e2e: EndToEnd,
    /// Operations and checks.
    pub tally: Tally,
    /// Per-layer metrics derived from the trace file (traced runs).
    pub layers: Vec<(&'static str, &'static str, f64)>,
    /// Per span name: calls, total wall, total self time (traced runs).
    pub layer_table: Vec<(String, usize, f64, f64)>,
    /// The trace file written (traced runs).
    pub trace_file: Option<PathBuf>,
    /// Whether this was the traced run.
    pub traced: bool,
}

impl Report {
    /// Every output check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The metrics this run reports: end-to-end untraced, per-layer
    /// traced.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        if self.traced {
            self.layers.clone()
        } else {
            self.e2e.metrics()
        }
    }

    /// The one-line JSON result.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics()
            .iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit the measurement has.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Runs the timed phase `measure` for `seconds`; in a traced run, half
/// the window untraced and half traced. Returns the (last) phase result
/// and, when traced, the untraced half's result for the overhead.
pub fn timed<T>(cfg: &Config, tr: &Tracer, mut measure: impl FnMut(f64) -> T) -> (T, Option<T>) {
    if !cfg.trace {
        return (measure(cfg.seconds), None);
    }
    tr.set_enabled(false);
    let untraced = measure(cfg.seconds / 2.0);
    tr.set_enabled(true);
    (measure(cfg.seconds / 2.0), Some(untraced))
}

/// Records the tracing overhead: how much worse the traced half's
/// primary metric reads than the untraced half's, in percent.
pub fn note_overhead(tr: &Tracer, untraced: f64, traced: f64, higher_is_better: bool) {
    if untraced > 0.0 && traced > 0.0 {
        let worse = if higher_is_better {
            (untraced - traced) / untraced
        } else {
            (traced - untraced) / untraced
        };
        tr.sample("trace.overhead_pct", 100.0 * worse);
    }
}

/// Runs one workload and, for a traced run, writes the trace file and
/// derives the per-layer metrics from it.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let name = cfg.workload.name();
    let world = format!("{:?}", cfg.workload.world(cfg.minimal)).to_lowercase();
    let provenance = Provenance::collect(name, cfg.seed, &world, cfg.seconds, cfg.trace);
    let pid = std::process::id();
    let run_id = format!("{name}-s{}-p{pid}", cfg.seed);
    let tracer = Tracer::new(run_id.clone(), cfg.trace);
    let work = cfg.out_dir.join(format!("work-{run_id}"));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let outcome = match cfg.workload {
        Workload::WorldBuild => world::run(cfg, &tracer, &work),
        Workload::ServeInteractive => serving::run_interactive(cfg, &tracer, &work),
    };
    let _ = std::fs::remove_dir_all(&work);

    let mut report = Report {
        provenance,
        e2e: outcome.e2e,
        tally: outcome.tally,
        layers: Vec::new(),
        layer_table: Vec::new(),
        trace_file: None,
        traced: cfg.trace,
    };
    if cfg.trace {
        let path = cfg.out_dir.join(format!("trace-{run_id}.jsonl"));
        tracer
            .write(&path, &report.provenance)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let data = trace::read(&path)?;
        report.layers = trace::derive(&data);
        report.layer_table = trace::layer_table(&data);
        report.trace_file = Some(path);
    }
    Ok(report)
}
