//! Streamed-edge determinism: chunking the inter-engine dataflow into
//! transport morsels is an implementation detail of the wire, so results,
//! ledgers, simulated timings, traces, and the deterministic telemetry
//! snapshot must be bit-identical across chunk sizes (1 row, the default
//! 4096, unbounded).

#[path = "common/canonical.rs"]
mod canonical;

use canonical::canonical;
use xdb_core::scenario::{self, ScenarioConfig};
use xdb_core::{GlobalCatalog, Xdb, XdbOptions};
use xdb_engine::cluster::Cluster;
use xdb_engine::profile::EngineProfile;
use xdb_engine::StatementOptions;
use xdb_sql::value::DataType;

fn setup() -> (Cluster, GlobalCatalog) {
    scenario::build(ScenarioConfig::default()).unwrap()
}

/// One full submission at the given transport chunk size; returns the
/// query id and the complete observable fingerprint of the run.
fn run(chunk: usize) -> (u64, String) {
    let (cluster, catalog) = setup();
    let xdb = Xdb::new(&cluster, &catalog).with_options(XdbOptions {
        stream_chunk_rows: chunk,
        ..Default::default()
    });
    let outcome = xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
    let mut fp = String::new();
    // Result rows, in order, every value bit-rendered.
    for i in 0..outcome.relation.len() {
        for c in 0..outcome.relation.width() {
            fp.push_str(&format!("{:?}|", outcome.relation.value(i, c)));
        }
        fp.push('\n');
    }
    // Simulated timings.
    fp.push_str(&format!("{:?}\n", outcome.breakdown));
    // Ledger: every transfer, raw and encoded bytes included.
    for t in cluster.ledger.snapshot() {
        fp.push_str(&format!("{t:?}\n"));
    }
    // Trace and deterministic telemetry.
    fp.push_str(&canonical(&outcome.trace));
    let metrics = &cluster.telemetry().metrics;
    fp.push_str(&metrics.deterministic_snapshot().render());
    (outcome.query_id, fp)
}

/// A foreign relation with no rows, read whole (`SELECT *`, the build side
/// of a hash join, a CTAS) and in chunks (under a filter): every read gives
/// 0 rows with the declared fields. Returns the relations (column layouts
/// included), reports, ledger and simulated times at the given chunk size.
fn zero_row_edge(chunk: usize) -> String {
    let c = Cluster::lan(&["db_r", "db_s"], EngineProfile::postgres());
    c.execute("db_r", "CREATE TABLE e (x BIGINT, y VARCHAR)")
        .unwrap();
    c.execute_script(
        "db_s",
        "CREATE TABLE s (x BIGINT, z VARCHAR);
         INSERT INTO s VALUES (2, 'beta'), (3, 'gamma');
         CREATE FOREIGN TABLE e_ft (x BIGINT, y VARCHAR) SERVER db_r OPTIONS (remote 'e');",
    )
    .unwrap();
    let declared = |names: [&str; 2], types: [DataType; 2]| -> Vec<(String, DataType)> {
        names.iter().map(|n| n.to_string()).zip(types).collect()
    };
    let xy = declared(["x", "y"], [DataType::Int, DataType::Str]);
    let join = "SELECT s.z, e_ft.y FROM s, e_ft WHERE s.x = e_ft.x";
    let mut fp = String::new();
    for (sql, fields) in [
        ("SELECT * FROM e_ft", Some(xy.clone())),
        (
            join,
            Some(declared(["z", "y"], [DataType::Str, DataType::Str])),
        ),
        ("SELECT * FROM e_ft WHERE x > 1", Some(xy.clone())),
        ("CREATE TABLE e_copy AS SELECT * FROM e_ft", None),
        ("SELECT * FROM e_copy", Some(xy)),
    ] {
        let opts = StatementOptions {
            trace_ops: true,
            chunk_rows: chunk,
        };
        let out = c.execute_with("db_s", sql, opts).unwrap();
        if let Some(rel) = &out.relation {
            assert_eq!(
                (rel.len(), Some(&rel.fields)),
                (0, fields.as_ref()),
                "{sql}"
            );
            fp.push_str(&format!("{:?}\n", rel.columns()));
        }
        if sql == join {
            // The join builds on the empty edge and probes the local table.
            let ops = &out.report.profile.as_ref().expect("tracing is on").ops;
            assert!(ops
                .iter()
                .any(|o| o.op == "hash join" && (o.build_rows, o.probe_rows) == (0, 2)));
        }
        fp.push_str(&format!("{sql}\n{:?}\n", out.report));
    }
    for t in c.ledger.snapshot() {
        fp.push_str(&format!("{t:?}\n"));
    }
    fp
}

#[test]
fn chunk_size_is_unobservable() {
    // Unbounded (0) is the reference; 1-row morsels and the 4096 default
    // must match it on every observable surface.
    for chunk in [1usize, 4096] {
        assert_eq!(run(0), run(chunk), "chunk {chunk} observable");
        let (reference, chunked) = (zero_row_edge(0), zero_row_edge(chunk));
        assert_eq!(
            reference, chunked,
            "chunk {chunk} observable on a zero-row edge"
        );
    }
}

#[test]
fn encoded_bytes_never_exceed_raw() {
    let (cluster, catalog) = setup();
    let xdb = Xdb::new(&cluster, &catalog);
    xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
    let transfers = cluster.ledger.snapshot();
    assert!(!transfers.is_empty());
    for t in &transfers {
        assert!(
            t.encoded_bytes <= t.bytes,
            "codec inflated {} -> {} on {:?}",
            t.bytes,
            t.encoded_bytes,
            t.purpose
        );
    }
    let encoded: u64 = transfers.iter().map(|t| t.encoded_bytes).sum();
    assert!(encoded < cluster.ledger.total_bytes());
}
