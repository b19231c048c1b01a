//! Cache coherence of the serving layer: every answer the `rpi-query`
//! observatory serves from its precomputed indexes — asked through
//! `execute`, its one query entry point — must agree with the direct
//! `rpi_core` analysis it caches.

use internet_routing_policies::prelude::*;
use rpi_query::{PolicySummary, RouteAnswer, VantageKind};

fn world() -> (Experiment, QueryEngine) {
    let exp = Experiment::standard(InternetSize::Tiny, 11);
    let mut engine = QueryEngine::new(4);
    engine.ingest_experiment(&exp, "t0");
    (exp, engine)
}

fn route(
    engine: &QueryEngine,
    scope: Scope,
    vantage: Asn,
    prefix: Ipv4Prefix,
) -> Option<RouteAnswer> {
    match engine.execute(&Query::Route { vantage, prefix }.at(scope)) {
        Ok(Response::Route(ans)) => ans,
        other => panic!("route {prefix} at {vantage}: {other:?}"),
    }
}

fn sa(engine: &QueryEngine, vantage: Asn, prefix: Ipv4Prefix) -> SaStatus {
    match engine.execute(&Query::SaStatus { vantage, prefix }.at(Scope::Latest)) {
        Ok(Response::Sa(status)) => status,
        other => panic!("sa {prefix} at {vantage}: {other:?}"),
    }
}

fn rel(engine: &QueryEngine, a: Asn, b: Asn) -> Option<Relationship> {
    match engine.execute(&Query::Relationship { a, b }.at(Scope::Latest)) {
        Ok(Response::Relationship(rel)) => rel,
        other => panic!("rel {a} {b}: {other:?}"),
    }
}

fn summary(engine: &QueryEngine, asn: Asn) -> Option<PolicySummary> {
    match engine.execute(&Query::PolicySummary { asn }.at(Scope::Latest)) {
        Ok(Response::Summary(s)) => s,
        other => panic!("summary {asn}: {other:?}"),
    }
}

#[test]
fn routes_agree_with_best_tables() {
    let (exp, engine) = world();
    // Looking-Glass vantages against their direct BestTable…
    for &lg in &exp.spec.lg_ases {
        let table = exp.lg_table(lg).unwrap();
        assert!(!table.rows.is_empty());
        for (&prefix, row) in &table.rows {
            let ans = route(&engine, Scope::Latest, lg, prefix)
                .unwrap_or_else(|| panic!("missing route for {prefix} at {lg}"));
            assert_eq!(ans.next_hop, row.next_hop, "{prefix} at {lg}");
            assert_eq!(ans.path, row.path, "{prefix} at {lg}");
            assert_eq!(ans.prefix, prefix);
        }
    }
    // …and a collector peer that is not also a Looking-Glass AS.
    let peer = *exp
        .spec
        .collector_peers
        .iter()
        .find(|p| !exp.spec.lg_ases.contains(p))
        .expect("some collector-only peer");
    let table = exp.collector_table(peer);
    for (&prefix, row) in &table.rows {
        let ans = route(&engine, Scope::Latest, peer, prefix).unwrap();
        assert_eq!(ans.next_hop, row.next_hop);
        assert_eq!(ans.path, row.path);
    }
    // A vantage the world has never heard of answers nothing.
    assert!(route(
        &engine,
        Scope::Latest,
        Asn(999_999),
        "10.0.0.0/8".parse().unwrap()
    )
    .is_none());
}

#[test]
fn sa_status_agrees_with_fig4_reports() {
    let (exp, engine) = world();
    for &lg in &exp.spec.lg_ases {
        let table = exp.lg_table(lg).unwrap();
        let report = sa_prefixes(&table, &exp.inferred_graph);
        let mut sa_seen = 0;
        let mut exported_seen = 0;
        for &prefix in table.rows.keys() {
            match sa(&engine, lg, prefix) {
                SaStatus::SelectivelyAnnounced { origin } => {
                    sa_seen += 1;
                    assert!(
                        report.sa.contains(&prefix),
                        "{prefix} at {lg} not SA directly"
                    );
                    assert_eq!(report.sa_origin[&prefix], origin);
                }
                SaStatus::CustomerExported { origin } => {
                    exported_seen += 1;
                    assert!(!report.sa.contains(&prefix));
                    assert!(
                        report.per_origin.contains_key(&origin),
                        "{origin} must be a customer origin of {lg}"
                    );
                }
                SaStatus::NotCustomerRoute => {
                    assert!(!report.sa.contains(&prefix), "{prefix} at {lg}");
                }
                other => panic!("unexpected status {other:?} for {prefix} at {lg}"),
            }
        }
        assert_eq!(sa_seen, report.sa.len(), "SA count at {lg}");
        assert_eq!(
            exported_seen + sa_seen,
            report.customer_prefixes,
            "customer prefix accounting at {lg}"
        );
    }
}

#[test]
fn relationships_agree_with_inferred_graph() {
    let (exp, engine) = world();
    let mut compared = 0;
    for a in exp.inferred_graph.ases() {
        for (b, r) in exp.inferred_graph.neighbors(a) {
            assert_eq!(rel(&engine, a, b), Some(r), "{a} – {b}");
            compared += 1;
        }
    }
    assert!(compared > 50, "a Tiny world still has many edges");
    // Non-adjacent pairs answer None.
    let mut ases = exp.inferred_graph.ases();
    let a = ases.next().unwrap();
    assert_eq!(rel(&engine, a, Asn(424_242)), None);
}

#[test]
fn summaries_agree_with_direct_analyses() {
    let (exp, engine) = world();
    for &lg in &exp.spec.lg_ases {
        let s = summary(&engine, lg).expect("LG vantages have summaries");
        assert_eq!(s.kind, Some(VantageKind::LookingGlass));
        let table = exp.lg_table(lg).unwrap();
        assert_eq!(s.routes, table.rows.len());
        let report = sa_prefixes(&table, &exp.inferred_graph);
        assert_eq!(s.customer_prefixes, report.customer_prefixes);
        assert_eq!(s.sa_count, report.sa.len());
        assert!((s.sa_percent() - report.percent()).abs() < 1e-9);
        let t = lg_typicality(exp.output.lg(lg).unwrap(), &exp.inferred_graph);
        assert_eq!(s.typicality, Some((t.prefixes_compared, t.typical)));
        assert!((s.typicality_percent().unwrap() - t.percent()).abs() < 1e-9);
        let (prov, cust, peers, sib) = s.neighbor_counts;
        assert_eq!(prov, exp.inferred_graph.providers_of(lg).count());
        assert_eq!(cust, exp.inferred_graph.customers_of(lg).count());
        assert_eq!(peers, exp.inferred_graph.peers_of(lg).count());
        assert_eq!(sib, exp.inferred_graph.siblings_of(lg).count());
    }
}

#[test]
fn batched_answers_equal_single_answers() {
    let (exp, engine) = world();
    let mut queries: Vec<(Asn, bgp_types::Ipv4Prefix)> = Vec::new();
    for &lg in &exp.spec.lg_ases {
        for &p in exp.lg_table(lg).unwrap().rows.keys() {
            queries.push((lg, p));
        }
    }
    // Mix in misses.
    queries.push((Asn(999_999), "10.0.0.0/8".parse().unwrap()));
    queries.push((exp.spec.lg_ases[0], "203.0.113.0/24".parse().unwrap()));

    let routes: Vec<QueryRequest> = queries
        .iter()
        .map(|&(vantage, prefix)| Query::Route { vantage, prefix }.at(Scope::Latest))
        .collect();
    let batched = engine.execute_batch(&routes);
    assert_eq!(batched.len(), queries.len());
    for (i, &(v, p)) in queries.iter().enumerate() {
        let single: Option<RouteAnswer> = route(&engine, Scope::Latest, v, p);
        assert_eq!(
            batched[i],
            Ok(Response::Route(single)),
            "query {i}: {p} at {v}"
        );
    }

    let sas: Vec<QueryRequest> = queries
        .iter()
        .map(|&(vantage, prefix)| Query::SaStatus { vantage, prefix }.at(Scope::Latest))
        .collect();
    let sa_batched = engine.execute_batch(&sas);
    for (i, &(v, p)) in queries.iter().enumerate() {
        assert_eq!(
            sa_batched[i],
            Ok(Response::Sa(sa(&engine, v, p))),
            "sa query {i}"
        );
    }
}

#[test]
fn lpm_resolve_answers_more_specific_queries() {
    let (exp, engine) = world();
    let lg = exp.spec.lg_ases[0];
    let table = exp.lg_table(lg).unwrap();
    let (&prefix, row) = table
        .rows
        .iter()
        .find(|(p, _)| p.len() < 30)
        .expect("some splittable prefix");
    // A more-specific query prefix must resolve to the covering route.
    let (lo, _) = prefix.split().unwrap();
    let Ok(Response::Route(Some(ans))) = engine.execute(
        &Query::Resolve {
            vantage: lg,
            prefix: lo,
        }
        .at(Scope::Latest),
    ) else {
        panic!("{lo} must resolve to its covering route at {lg}");
    };
    // The match is `prefix` itself unless the table holds something even
    // more specific that still covers `lo`.
    assert!(ans.prefix.covers(lo));
    assert!(ans.prefix.len() >= prefix.len());
    if ans.prefix == prefix {
        assert_eq!(ans.next_hop, row.next_hop);
    }
}

#[test]
fn mrt_ingest_serves_collector_routes() {
    let exp = Experiment::standard(InternetSize::Tiny, 11);
    let dump = bgp_sim::export::collector_to_mrt(&exp.output.collector, 1_015_000_000);
    let bytes = dump.encode(1_015_000_000);

    let mut engine = QueryEngine::new(2);
    let id = engine
        .ingest_mrt_bytes(&bytes, "mrt-0")
        .expect("valid MRT image");
    assert_eq!(engine.snapshot_count(), 1);

    for &peer in &exp.output.collector.peers {
        let table = rpi_core::view::BestTable::from_collector(&exp.output.collector, peer);
        for (&prefix, row) in &table.rows {
            let ans = route(&engine, Scope::Id(id), peer, prefix).unwrap();
            assert_eq!(ans.next_hop, row.next_hop, "{prefix} at {peer}");
            assert_eq!(ans.path, row.path);
        }
    }

    // Garbage bytes fail cleanly, not by panic.
    assert!(engine
        .ingest_mrt_bytes(&[0xde, 0xad, 0xbe, 0xef], "junk")
        .is_err());
}
