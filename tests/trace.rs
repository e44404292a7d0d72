//! Trace invariants: span nesting, parenting and breakdown projection.
//! Every span timestamp is derived from the simulated clock and spans are
//! emitted in script order.

use xdb::core::{GlobalCatalog, PhaseBreakdown, Xdb, XdbOptions};
use xdb::engine::cluster::Cluster;
use xdb::engine::profile::EngineProfile;
use xdb::net::{params, Scenario};
use xdb::obs::{QueryTrace, Span, SpanKind};
use xdb::tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};

const SF: f64 = 0.002;

fn federation(td: TableDist) -> (Cluster, GlobalCatalog) {
    let cluster = build_cluster(
        td,
        SF,
        Scenario::OnPremise,
        &ProfileAssignment::uniform(EngineProfile::postgres()),
    )
    .unwrap();
    let catalog = GlobalCatalog::discover(&cluster).unwrap();
    (cluster, catalog)
}

/// The spans of one kind, in emission order.
fn spans_of(trace: &QueryTrace, kind: SpanKind) -> impl Iterator<Item = &Span> {
    trace.spans.iter().filter(move |s| s.kind == kind)
}

fn traced_submit(td: TableDist, q: TpchQuery) -> QueryTrace {
    let (cluster, catalog) = federation(td);
    let xdb = Xdb::new(&cluster, &catalog).with_options(XdbOptions {
        trace_operators: true,
        ..Default::default()
    });
    xdb.submit(q.sql()).unwrap().trace
}

#[test]
fn spans_are_properly_nested() {
    let trace = traced_submit(TableDist::Td3, TpchQuery::Q8);
    assert!(!trace.spans.is_empty());
    for s in &trace.spans {
        let Some(p) = s.parent else { continue };
        let parent = &trace.spans[p as usize];
        // A span's parent is always emitted before it…
        assert!(p < s.id, "span {} precedes its parent {}", s.id, p);
        // …and contains it on the timeline (tiny slack for f64 sums).
        assert!(
            s.start_ms >= parent.start_ms - 1e-6,
            "span {} ({}) starts at {} before parent {} ({}) at {}",
            s.id,
            s.name,
            s.start_ms,
            p,
            parent.name,
            parent.start_ms
        );
        assert!(
            s.end_ms() <= parent.end_ms() + 1e-6,
            "span {} ({}) ends at {} after parent {} ({}) at {}",
            s.id,
            s.name,
            s.end_ms(),
            p,
            parent.name,
            parent.end_ms()
        );
    }
}

#[test]
fn every_task_span_is_parented_to_the_exec_phase() {
    let trace = traced_submit(TableDist::Td2, TpchQuery::Q5);
    let exec_phase = trace
        .spans
        .iter()
        .find(|s| s.kind == SpanKind::Phase && s.name == "exec")
        .expect("exec phase span");
    let tasks: Vec<_> = spans_of(&trace, SpanKind::Task).collect();
    assert!(!tasks.is_empty(), "no task spans in trace");
    for t in &tasks {
        assert_eq!(
            t.parent,
            Some(exec_phase.id),
            "task span {:?} not under the exec phase",
            t.name
        );
    }
    // And every DDL span sits under some task span.
    for d in spans_of(&trace, SpanKind::Ddl) {
        let p = d.parent.expect("ddl span has a parent");
        assert_eq!(trace.spans[p as usize].kind, SpanKind::Task);
    }
}

#[test]
fn plan_and_submit_consult_accounting_agree() {
    // Two identically-seeded federations: planning alone must account the
    // same consult roundtrips and cache hits/misses as the full submit.
    let (c1, g1) = federation(TableDist::Td1);
    let (c2, g2) = federation(TableDist::Td1);
    for q in TpchQuery::ALL {
        // Each submit on `c2` feeds its cost observation back into the
        // learned profiles, re-pricing later plans. Mirror that state into
        // the plan-only federation so both planners price identically.
        g1.set_profiles(g2.profiles_snapshot());
        let (_, _, plan_b, plan_consults) = Xdb::new(&c1, &g1).plan(q.sql()).unwrap();
        let out = Xdb::new(&c2, &g2).submit(q.sql()).unwrap();
        assert_eq!(plan_consults, out.consult_roundtrips, "{}", q.name());
        assert_eq!(
            plan_b.consult_cache_hits,
            out.breakdown.consult_cache_hits,
            "{}: hits diverge between plan and submit",
            q.name()
        );
        assert_eq!(
            plan_b.consult_cache_misses,
            out.breakdown.consult_cache_misses,
            "{}: misses diverge between plan and submit",
            q.name()
        );
        // Both clients advance their caches identically: keep them in
        // lockstep by planning/submitting the same sequence.
    }
}

#[test]
fn concurrent_queries_do_not_pollute_each_others_cache_counts() {
    // The regression this guards: hit/miss accounting used to be computed
    // as deltas of the process-wide cache counters, so concurrent queries
    // bled into each other's breakdowns. Per-query counting is stable.
    let (cluster, catalog) = federation(TableDist::Td1);
    let xdb = Xdb::new(&cluster, &catalog);
    // Warm everything: after this, Q3 planning is all cache hits.
    let warm = xdb.submit(TpchQuery::Q3.sql()).unwrap();
    let expect_hits = warm.breakdown.consult_cache_hits + warm.breakdown.consult_cache_misses;
    let breakdowns: Vec<PhaseBreakdown> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let xdb = Xdb::new(&cluster, &catalog);
                s.spawn(move || xdb.submit(TpchQuery::Q3.sql()).unwrap().breakdown)
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for b in breakdowns {
        assert_eq!(b.consult_cache_misses, 0, "warmed run should not miss");
        assert_eq!(
            b.consult_cache_hits, expect_hits,
            "hit count polluted by concurrent queries"
        );
    }
}

#[test]
fn breakdown_is_a_projection_of_the_trace() {
    let (cluster, catalog) = federation(TableDist::Td1);
    let xdb = Xdb::new(&cluster, &catalog);
    let out = xdb.submit(TpchQuery::Q5.sql()).unwrap();
    assert_eq!(PhaseBreakdown::from_trace(&out.trace), out.breakdown);
    // ann is exactly the paid consulting roundtrips…
    assert_eq!(
        out.breakdown.ann_ms,
        out.consult_roundtrips as f64 * params::CONSULT_ROUNDTRIP_MS
    );
    // …and the Consult spans under the ann phase sum to the same time.
    let ann_phase = out
        .trace
        .spans
        .iter()
        .find(|s| s.kind == SpanKind::Phase && s.name == "ann")
        .unwrap();
    let consult_sum: f64 = spans_of(&out.trace, SpanKind::Consult)
        .filter(|s| s.parent == Some(ann_phase.id))
        .map(|s| s.dur_ms)
        .sum();
    assert_eq!(consult_sum, out.breakdown.ann_ms);
    // The query root covers the whole breakdown.
    assert_eq!(out.trace.root().unwrap().dur_ms, out.breakdown.total_ms());
    // The text report renders without panicking and mentions the phases.
    let report = out.report();
    for phase in ["prep", "lopt", "ann", "exec"] {
        assert!(report.contains(phase), "{report}");
    }
}

/// The trace keeps time and nothing the outcome already holds: what moved
/// is `QueryOutcome::transfers`, what was chosen `QueryOutcome::cost`. Over
/// TD1–TD3 × the six queries no span sits on a network lane, every
/// placement Consult span is a bare interval (and the ann Consult spans
/// still sum to `ann_ms`), and the counters are the consult accounting
/// and each engine's statement work.
#[test]
fn the_trace_keeps_time() {
    for td in [TableDist::Td1, TableDist::Td2, TableDist::Td3] {
        let (cluster, catalog) = federation(td);
        let xdb = Xdb::new(&cluster, &catalog);
        for q in TpchQuery::ALL {
            let what = format!("{} on {td:?}", q.name());
            let out = xdb.submit(q.sql()).unwrap();
            let trace = &out.trace;
            assert!(!out.transfers.is_empty(), "{what}");
            assert!(
                trace.spans.iter().all(|s| s.lane != "net"),
                "{what}: {:?}",
                trace.lanes()
            );
            let ann = trace
                .spans
                .iter()
                .find(|s| s.kind == SpanKind::Phase && s.name == "ann")
                .unwrap();
            let consults: Vec<&Span> = spans_of(trace, SpanKind::Consult)
                .filter(|s| s.parent == Some(ann.id))
                .collect();
            assert_eq!(consults.len(), out.cost.decisions.len(), "{what}");
            for s in &consults {
                assert!(s.name.starts_with("placement "), "{what}: {}", s.name);
                assert_eq!(s.attrs, [], "{what}: {}", s.name);
            }
            let ann_ms: f64 = consults.iter().map(|s| s.dur_ms).sum();
            assert_eq!(ann_ms, out.breakdown.ann_ms, "{what}");
            let mut expected: Vec<String> =
                ["consults", "consult.cache_hits", "consult.cache_misses"]
                    .map(String::from)
                    .into();
            for task in &out.delegation.tasks {
                expected.push(format!("node.{}.work_ms", task.dbms.as_str()));
            }
            expected.sort();
            expected.dedup();
            let keys: Vec<&String> = trace.counters.keys().collect();
            assert_eq!(keys, expected.iter().collect::<Vec<_>>(), "{what}");
        }
    }
}
