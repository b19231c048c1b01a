//! The offline journey: topology → policies → simulation → Gao
//! inference → the `rpi_core` analyses → ingest → archive save → tiered
//! attach. [`build`] is also every serving workload's set-up.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use as_relationships::{infer, AccuracyReport, InferenceParams};
use bgp_sim::{GroundTruth, PolicyParams, SimOutput, Simulation, VantageSpec};
use bgp_types::Asn;
use net_topology::{AsGraph, InternetConfig, InternetSize};
use rpi_core::atoms::{atom_stats, policy_atoms};
use rpi_core::community::{infer_communities, CommunityParams};
use rpi_core::export_policy::sa_prefixes;
use rpi_core::import_policy::lg_typicality;
use rpi_core::nexthop::lg_consistency;
use rpi_core::sa_verification::{active_customer_set, verify_sa};
use rpi_core::{BestTable, Experiment};
use rpi_query::{Query, QueryEngine, QueryRequest};

use crate::queries::{self, render_answer};
use crate::sys::{median, process_cpu_s, quantile_us};
use crate::trace::Tracer;
use crate::{note_overhead, timed, Config, EndToEnd, Outcome, Tally, SHARDS, WORLD_SEED};

/// A simulated and inferred world.
pub struct World {
    /// The true topology.
    pub graph: AsGraph,
    /// Ground-truth policies.
    pub truth: GroundTruth,
    /// Collector peers and Looking-Glass ASes.
    pub spec: VantageSpec,
    /// The simulated vantage views.
    pub output: SimOutput,
    /// The Gao-inferred relationships as a graph: the oracle every
    /// engine indexes with, as the paper's analyses use.
    pub inferred_graph: AsGraph,
    /// Inference accuracy against the true topology.
    pub accuracy: f64,
    /// Wall time of the simulation, in seconds.
    pub sim_s: f64,
}

/// Builds the world of `size` for `seed` — each layer a span under
/// `parent` — with the seeding `rpi_core::Experiment::standard` uses.
pub fn build(size: InternetSize, seed: u64, tr: &Tracer, parent: u64) -> World {
    let graph = {
        let _s = tr.span("net_topology", parent);
        InternetConfig::of_size(size).with_seed(seed).build()
    };
    let (n_collector, n_lg) = Experiment::vantage_counts(size);
    let (spec, truth) = {
        let _s = tr.span("bgp_sim.policy", parent);
        let spec = VantageSpec::paper_like(&graph, n_collector, n_lg);
        let params = PolicyParams {
            seed: seed ^ 0x5EED_0001,
            override_ases: spec.lg_ases.clone(),
            ..Default::default()
        };
        let truth = GroundTruth::generate(&graph, &params);
        (spec, truth)
    };
    let cpu0 = process_cpu_s();
    let t_sim = Instant::now();
    let output = {
        let _s = tr.span("bgp_sim.engine", parent);
        Simulation::new(&graph, &truth, &spec).run()
    };
    let sim_s = t_sim.elapsed().as_secs_f64();
    tr.sample("bgp_sim.engine.cpu_s", process_cpu_s() - cpu0);
    let d = &output.diagnostics;
    tr.sample("bgp_sim.engine.sweeps", d.sweeps_total as f64);
    tr.sample("bgp_sim.engine.classes", d.classes as f64);
    tr.sample("bgp_sim.engine.non_converged", d.non_converged as f64);

    // The inference input, as the paper combines it (§3): the
    // collector's paths plus every Looking-Glass candidate path prefixed
    // by the view owner.
    let mut lg_paths: Vec<Vec<Asn>> = Vec::new();
    for lg in output.lgs.values() {
        for routes in lg.rows.values() {
            for r in routes {
                let mut p = Vec::with_capacity(r.path.len() + 1);
                p.push(lg.asn);
                p.extend_from_slice(&r.path);
                lg_paths.push(p);
            }
        }
    }
    let paths: Vec<&[Asn]> = output
        .collector
        .all_paths()
        .map(|row| row.path.as_slice())
        .chain(lg_paths.iter().map(Vec::as_slice))
        .collect();
    tr.sample("as_relationships.paths", paths.len() as f64);
    let (inferred, inferred_graph) = {
        let _s = tr.span("as_relationships", parent);
        let inferred = infer(paths, &InferenceParams::default());
        let g = inferred.to_graph();
        (inferred, g)
    };
    let accuracy = AccuracyReport::compute(&graph, &inferred).accuracy();
    World {
        graph,
        truth,
        spec,
        output,
        inferred_graph,
        accuracy,
        sim_s,
    }
}

/// The `rpi_core` analyses behind the paper's tables, on the inferred
/// oracle: import typicality and next-hop consistency per Looking Glass
/// (Table 2, Fig. 2a), SA prefixes per measured AS (Table 5), SA
/// verification for the three headline providers (Table 7), and policy
/// atoms. Returns a digest of the results so none is optimised away.
pub fn paper_analyses(w: &World) -> u64 {
    let oracle = &w.inferred_graph;
    let out = &w.output;
    let table_of = |asn: Asn| match out.lg(asn) {
        Some(v) => BestTable::from_lg(v),
        None => BestTable::from_collector(&out.collector, asn),
    };
    let mut digest = 0u64;
    for &lg in &w.spec.lg_ases {
        if let Some(view) = out.lg(lg) {
            digest += lg_typicality(view, oracle).typical as u64;
            digest += lg_consistency(view).consistent as u64;
        }
    }
    let mut measured: Vec<Asn> = Vec::new();
    for &a in w.spec.lg_ases.iter().chain(&w.spec.collector_peers) {
        if measured.len() < 16 && !measured.contains(&a) {
            measured.push(a);
        }
    }
    for &asn in &measured {
        digest += sa_prefixes(&table_of(asn), oracle).sa.len() as u64;
    }
    let tier1s: Vec<BestTable> = w
        .spec
        .lg_ases
        .iter()
        .take(3)
        .map(|&a| table_of(a))
        .collect();
    let refs: Vec<&BestTable> = tier1s.iter().collect();
    for t in &tier1s {
        let report = sa_prefixes(t, oracle);
        let active = active_customer_set(oracle, &out.collector, &refs, t.asn);
        let comm = out
            .lg(t.asn)
            .map(|v| infer_communities(v, &CommunityParams::default()).neighbor_class)
            .unwrap_or_default();
        digest += verify_sa(t, &report, oracle, &active, &comm).sa_total as u64;
    }
    digest + atom_stats(&policy_atoms(&out.collector)).count as u64
}

/// Routes the engine indexes from `out`: every collector row plus every
/// Looking-Glass best route.
pub fn route_count(out: &SimOutput) -> usize {
    let collector: usize = out.collector.rows.values().map(Vec::len).sum();
    let lg: usize = out.lgs.values().map(|v| v.rows.len()).sum();
    collector + lg
}

/// Rounds over the point probes after each journey's check, and the
/// probes timed per clock read: a point query takes about a microsecond,
/// so timed one by one, the clock reads and single interrupts would make
/// up much of each sample.
const PROBE_ROUNDS: usize = 32;
const PROBE_BLOCK: usize = 64;

/// One pass of the journey, its output check, and the probe timings.
struct Pass {
    build_s: f64,
    /// The snapshot's journey: simulation, ingest, save and attach.
    snapshot_s: f64,
    accuracy: f64,
    /// Point probes per second over every round.
    probe_qps: f64,
    /// Per-query time of each block of [`PROBE_BLOCK`] probes, ns.
    block_ns: Vec<u32>,
}

/// The archive ≡ memory check over `(request, memory answer, archive
/// answer)` triples. A probe the in-memory engine answers with an error
/// checks nothing, so it is skipped; a verb of the probe set left without
/// a probe that answers fails the check.
pub fn check_archive(answers: &[(QueryRequest, String, String)], tally: &mut Tally) {
    let mut answered: BTreeMap<String, usize> = BTreeMap::new();
    for (req, expected, actual) in answers {
        let line = rpi_query::render(req);
        let verb = line.split_whitespace().next().unwrap_or_default();
        let n = answered.entry(verb.to_string()).or_default();
        if expected.starts_with("error") {
            continue;
        }
        *n += 1;
        tally.check(actual == expected, || {
            format!("archive differs from memory for '{line}': '{actual}' vs '{expected}'")
        });
    }
    for (verb, n) in answered {
        tally.check(n > 0, || {
            format!("no '{verb}' probe answers without an error in memory")
        });
    }
}

fn one_pass(
    cfg: &Config,
    tr: &Tracer,
    work: &Path,
    iter: usize,
    tally: &mut Tally,
) -> Option<Pass> {
    let size = cfg.workload.world(cfg.minimal);
    let root = tr.span("world_build", 0);
    let t0 = Instant::now();
    let w = build(size, WORLD_SEED, tr, root.id());
    let digest = {
        let _s = tr.span("rpi_core", root.id());
        paper_analyses(&w)
    };
    std::hint::black_box(digest);
    let t_ingest = Instant::now();
    let mut mem = QueryEngine::new(SHARDS);
    {
        let _s = tr.span("query.engine.ingest", root.id());
        mem.ingest_output(&w.output, &w.inferred_graph, "t0");
    }
    tr.sample("query.engine.routes", route_count(&w.output) as f64);
    let dir = work.join(format!("archive-{iter}"));
    let saved = {
        let _s = tr.span("query.archive.save", root.id());
        mem.save_archive(&dir, true)
    };
    tally.attempt(1);
    if let Err(e) = saved {
        tally.fail(1, format!("archive save: {e}"));
        return None;
    }
    tr.sample(
        "query.archive.bytes",
        mem.archive_info().map_or(0, |a| a.total_bytes()) as f64,
    );
    let tiered = {
        let _s = tr.span("query.tier.attach", root.id());
        QueryEngine::load_archive_tiered(&dir, 1)
    };
    let tiered = match tiered {
        Ok(t) => t,
        Err(e) => {
            tally.fail(1, format!("tiered attach: {e}"));
            return None;
        }
    };
    let build_s = t0.elapsed().as_secs_f64();
    // Ingest to attach alone (about 0.8 s) reads up to 1.4x apart
    // between processes; with the simulation it is steadier.
    let snapshot_s = w.sim_s + t_ingest.elapsed().as_secs_f64();
    drop(root);

    // The output check: the attached archive answers every probe
    // byte-identically to the in-memory engine it was saved from.
    let probes = queries::probe_set(&w, cfg.seed, cfg.minimal);
    let answers: Vec<_> = probes
        .iter()
        .enumerate()
        .map(|(i, req)| {
            let mut expected = render_answer(&mem, req);
            if cfg.corrupt_expected && i == 0 {
                expected.push_str(" [corrupted]");
            }
            (req.clone(), expected, render_answer(&tiered, req))
        })
        .collect();
    check_archive(&answers, tally);
    // Then the archive's point-query speed: rounds over the point
    // probes, timed in blocks (the history probes take milliseconds each
    // and would swamp the microsecond ones).
    let points: Vec<_> = probes
        .iter()
        .filter(|r| !r.query.is_history() && !matches!(r.query, Query::Leaks | Query::Diff))
        .collect();
    let mut block_ns = Vec::new();
    let mut total_ns = 0u64;
    for _ in 0..PROBE_ROUNDS {
        for block in points.chunks(PROBE_BLOCK) {
            let t = Instant::now();
            for req in block {
                std::hint::black_box(tiered.execute(req).ok());
            }
            let ns = t.elapsed().as_nanos() as u64;
            total_ns += ns;
            block_ns.push(u32::try_from(ns / block.len() as u64).unwrap_or(u32::MAX));
        }
    }
    drop(tiered);
    let _ = std::fs::remove_dir_all(&dir);
    Some(Pass {
        build_s,
        snapshot_s,
        accuracy: w.accuracy,
        probe_qps: (points.len() * PROBE_ROUNDS) as f64 / (total_ns.max(1) as f64 / 1e9),
        block_ns,
    })
}

/// The least of `f` over `passes` (`f64::INFINITY` when there is none).
fn least(passes: &[Pass], f: fn(&Pass) -> f64) -> f64 {
    passes.iter().map(f).fold(f64::INFINITY, f64::min)
}

/// The `world_build` workload: whole journeys back to back for the run
/// length, each followed by its archive ≡ memory check. Every pass does
/// the same deterministic work, which outside load can only slow, so each
/// metric is the best pass's reading, as `serve_interactive` reads its
/// set-up.
pub fn run(cfg: &Config, tr: &Tracer, work: &Path) -> Outcome {
    let mut tally = Tally::default();
    let mut iter = 0usize;
    let mut setup_s = None;
    let (passes, untraced) = timed(cfg, tr, |secs| {
        setup_s.get_or_insert_with(|| cfg.started.elapsed().as_secs_f64());
        let start = Instant::now();
        let mut passes = Vec::new();
        loop {
            iter += 1;
            if let Some(p) = one_pass(cfg, tr, work, iter, &mut tally) {
                passes.push(p);
            }
            if start.elapsed().as_secs_f64() >= secs {
                return passes;
            }
        }
    });
    let peak_rss_mb = crate::sys::peak_rss_mb();
    if let Some(u) = &untraced {
        note_overhead(
            tr,
            least(u, |p| p.build_s),
            least(&passes, |p| p.build_s),
            false,
        );
    }
    let e2e = EndToEnd {
        world_build_s: least(&passes, |p| p.build_s),
        gao_accuracy: median(&passes.iter().map(|p| p.accuracy).collect::<Vec<_>>()),
        qps: passes.iter().map(|p| p.probe_qps).fold(0.0, f64::max),
        latency_p50_us: least(&passes, |p| quantile_us(&p.block_ns, 0.5)),
        latency_p99_us: least(&passes, |p| quantile_us(&p.block_ns, 0.99)),
        latency_samples: passes.iter().map(|p| p.block_ns.len()).sum(),
        epochs_per_s: 1.0 / least(&passes, |p| p.snapshot_s).max(1e-9),
        setup_s: setup_s.unwrap_or_default(),
        peak_rss_mb,
    };
    Outcome { e2e, tally }
}
