//! Property-based tests for the wire grammar: `parse(render(req))`
//! round-trips for every query variant and scope shape, and garbage
//! never panics the parser.
//!
//! The build environment is offline, so instead of proptest these use a
//! seeded [`rand::rngs::StdRng`] driving many random cases per property —
//! deterministic across runs, same invariants checked (the harness style
//! of `bgp-types/tests/props.rs`).

use rand::prelude::*;

use bgp_types::{Asn, Ipv4Prefix};
use rpi_query::serve::session::Session;
use rpi_query::{parse, render, Query, QueryEngine, QueryRequest, Scope, SnapshotId};

const CASES: usize = 512;

fn arb_prefix(rng: &mut StdRng) -> Ipv4Prefix {
    Ipv4Prefix::canonical(rng.gen::<u32>(), rng.gen_range(0..=32u8))
}

fn arb_asn(rng: &mut StdRng) -> Asn {
    if rng.gen_bool(0.75) {
        Asn(rng.gen_range(1..70_000u32))
    } else {
        Asn(rng.gen_range(70_000u32..=u32::MAX))
    }
}

/// Any whitespace-free label round-trips through the explicit
/// `@label:…` form, including ones that look like other scopes.
fn arb_label(rng: &mut StdRng) -> String {
    const POOL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-._:@";
    let len = rng.gen_range(1..=16usize);
    (0..len)
        .map(|_| *POOL.as_ref().choose(rng).unwrap() as char)
        .collect()
}

fn arb_scope(rng: &mut StdRng) -> Scope {
    match rng.gen_range(0..5u8) {
        0 => Scope::Latest,
        1 => Scope::Id(SnapshotId(rng.gen_range(0..100u32))),
        2 => Scope::Label(arb_label(rng)),
        3 => Scope::All,
        _ => {
            // Only ascending ranges are wire-representable: `@7..3` is a
            // grammar error (a reversed range is meaningful solely for
            // `diff`, whose render uses the legacy `diff 7 3` spelling —
            // covered by `reversed_diffs_roundtrip_via_legacy_spelling`).
            let a = rng.gen_range(0..100u32);
            let b = rng.gen_range(0..100u32);
            Scope::Range(SnapshotId(a.min(b)), SnapshotId(a.max(b)))
        }
    }
}

fn arb_query(rng: &mut StdRng) -> Query {
    match rng.gen_range(0..13u8) {
        0 => Query::Route {
            vantage: arb_asn(rng),
            prefix: arb_prefix(rng),
        },
        1 => Query::Resolve {
            vantage: arb_asn(rng),
            prefix: arb_prefix(rng),
        },
        2 => Query::SaStatus {
            vantage: arb_asn(rng),
            prefix: arb_prefix(rng),
        },
        3 => Query::Relationship {
            a: arb_asn(rng),
            b: arb_asn(rng),
        },
        4 => Query::PolicySummary { asn: arb_asn(rng) },
        5 => Query::Diff,
        6 => Query::SaHistory {
            vantage: arb_asn(rng),
            prefix: arb_prefix(rng),
        },
        7 => Query::UptimeHistogram {
            vantage: arb_asn(rng),
        },
        8 => Query::TopKSaOrigins {
            vantage: arb_asn(rng),
            k: rng.gen_range(0..1000usize),
        },
        9 => Query::PersistenceClass {
            vantage: arb_asn(rng),
            prefix: arb_prefix(rng),
        },
        10 => Query::Rov {
            vantage: arb_asn(rng),
            prefix: arb_prefix(rng),
        },
        11 => Query::Hijacks,
        _ => Query::Leaks,
    }
}

fn arb_request(rng: &mut StdRng) -> QueryRequest {
    arb_query(rng).at(arb_scope(rng))
}

/// A mildly adversarial random string over the grammar's alphabet.
fn arb_garbage(rng: &mut StdRng, max_len: usize) -> String {
    const POOL: &[u8] = b"0123456789./ ,:;-_abcXYZ{}()<>!?*\t\"'@AS";
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| *POOL.as_ref().choose(rng).unwrap() as char)
        .collect()
}

#[test]
fn render_parse_roundtrips_every_variant() {
    let mut rng = StdRng::seed_from_u64(0x6001);
    let mut seen = [false; 13];
    for _ in 0..CASES {
        let req = arb_request(&mut rng);
        seen[match req.query {
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
        }] = true;
        let line = render(&req);
        let back =
            parse(&line).unwrap_or_else(|e| panic!("rendered line must parse: '{line}' → {e}"));
        assert_eq!(back, req, "round trip through '{line}'");
    }
    assert!(seen.iter().all(|&s| s), "generator covered every variant");
}

#[test]
fn render_is_a_fixed_point_of_parse() {
    let mut rng = StdRng::seed_from_u64(0x6002);
    for _ in 0..CASES {
        let req = arb_request(&mut rng);
        let line = render(&req);
        assert_eq!(render(&parse(&line).unwrap()), line);
    }
}

#[test]
fn default_scopes_match_query_class() {
    let mut rng = StdRng::seed_from_u64(0x6003);
    for _ in 0..CASES {
        let query = arb_query(&mut rng);
        if query == Query::Diff {
            continue; // diff has no default scope
        }
        // Strip the scope token off the canonical line and re-parse.
        let line = render(&query.clone().with_default_scope());
        let bare = line
            .rsplit_once(" @")
            .expect("canonical lines end in a scope token")
            .0;
        let req = parse(bare).unwrap();
        assert_eq!(req.query, query);
        assert_eq!(
            req.scope,
            if query.is_history() {
                Scope::All
            } else {
                Scope::Latest
            },
            "default scope for '{bare}'"
        );
    }
}

#[test]
fn reversed_diffs_roundtrip_via_legacy_spelling() {
    let mut rng = StdRng::seed_from_u64(0x6006);
    for _ in 0..CASES {
        let a = rng.gen_range(0..100u32);
        let b = rng.gen_range(0..100u32);
        let req = Query::Diff.at(Scope::Range(SnapshotId(a), SnapshotId(b)));
        let line = render(&req);
        assert_eq!(parse(&line).unwrap(), req, "round trip through '{line}'");
        if a > b {
            assert_eq!(
                line,
                format!("diff {a} {b}"),
                "reverse diffs use the legacy spelling"
            );
        }
    }
}

#[test]
fn reversed_ranges_never_parse_on_history_or_point_queries() {
    let mut rng = StdRng::seed_from_u64(0x6007);
    for _ in 0..CASES {
        let query = arb_query(&mut rng);
        if query == Query::Diff {
            continue;
        }
        let a = rng.gen_range(1..100u32);
        let b = rng.gen_range(0..a);
        let req = query.at(Scope::Range(SnapshotId(a), SnapshotId(b)));
        let line = render(&req);
        let err = parse(&line).expect_err("reversed ranges are grammar errors");
        assert!(
            err.to_string().contains("runs backwards"),
            "'{line}' → {err}"
        );
    }
}

#[test]
fn parser_never_panics_on_garbage() {
    let mut rng = StdRng::seed_from_u64(0x6004);
    for _ in 0..CASES {
        let s = arb_garbage(&mut rng, 60);
        let _ = parse(&s);
    }
}

#[test]
fn scripts_report_the_right_line() {
    let mut rng = StdRng::seed_from_u64(0x6005);
    for _ in 0..64 {
        // A script of valid rendered lines with one garbage line spliced in.
        let n = rng.gen_range(1..8usize);
        let mut lines: Vec<String> = (0..n).map(|_| render(&arb_request(&mut rng))).collect();
        let bad_at = rng.gen_range(0..=lines.len());
        lines.insert(bad_at, "definitely-not-a-query x y".into());
        let text = lines.join("\n");
        // The session reads the script; on an empty engine every valid
        // line fails to execute, so pick out the parse error.
        let engine = QueryEngine::new(2);
        let mut session = Session::new(1 << 14);
        let mut bad_lines = Vec::new();
        let mut on_error = |_: &mut Vec<u8>, line: usize, msg: &str| {
            if msg.starts_with("unknown query 'definitely-not-a-query'") {
                bad_lines.push(line);
            }
        };
        session.feed(&engine, text.as_bytes(), &mut Vec::new(), &mut on_error);
        session.finish(&engine, &mut Vec::new(), &mut on_error);
        assert_eq!(bad_lines, vec![bad_at + 1], "in script:\n{text}");
    }
}
