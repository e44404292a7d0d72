//! The system under test and its oracle: a TPC-H federation built through
//! the library's public functions, a single engine holding every table,
//! and the checks made on every result.

use crate::workload::{Workload, QUERIES};
use std::collections::HashSet;
use std::time::Instant;
use xdb_core::{GlobalCatalog, XdbOptions};
use xdb_engine::cluster::Cluster;
use xdb_engine::error::Result;
use xdb_engine::profile::EngineProfile;
use xdb_engine::relation::Relation;
use xdb_net::{Movement, NodeId, Purpose, Scenario, Transfer};
use xdb_sql::value::Value;
use xdb_tpch::{build_cluster, ProfileAssignment, TpchGen, TpchTable};

/// The node the middleware (and its clients) sit on, as in `repro`.
pub const CLIENT_NODE: &str = "cloud";
const ORACLE_NODE: &str = "solo";

pub struct Federation {
    pub cluster: Cluster,
    pub catalog: GlobalCatalog,
    /// One engine holding every table: the correctness oracle and the
    /// "localized tables" comparison of the paper.
    pub oracle: Cluster,
    pub options: XdbOptions,
    pub build_cluster_s: f64,
    pub rows_loaded: u64,
}

impl Federation {
    pub fn build(w: &Workload) -> Result<Federation> {
        let t = Instant::now();
        let profiles = ProfileAssignment::uniform(EngineProfile::postgres());
        let mut cluster = build_cluster(w.dist, w.sf, Scenario::OnPremise, &profiles)?;
        let build_cluster_s = t.elapsed().as_secs_f64();
        cluster.topology.add_cloud_node(NodeId::new(CLIENT_NODE));
        let catalog = GlobalCatalog::discover(&cluster)?;
        let oracle = Cluster::lan(&[ORACLE_NODE], EngineProfile::postgres());
        xdb_tpch::distributions::load_all_on(&oracle, ORACLE_NODE, w.sf)?;
        let gen = TpchGen::new(w.sf);
        let rows_loaded = TpchTable::ALL.iter().map(|t| gen.row_count(*t)).sum();
        let mut options = XdbOptions::default();
        if w.explicit {
            options.annotate.force_movement = Some(Movement::Explicit);
        }
        Ok(Federation {
            cluster,
            catalog,
            oracle,
            options,
            build_cluster_s,
            rows_loaded,
        })
    }

    /// The query on the oracle engine.
    pub fn local(&self, query: usize) -> Result<Relation> {
        self.oracle
            .query(ORACLE_NODE, QUERIES[query].sql())
            .map(|(rel, _)| rel)
    }

    /// Short-lived `xdb_q*` objects still present on any engine.
    pub fn leaked_objects(&self) -> u64 {
        let mut leaked = 0;
        for node in self.cluster.node_names() {
            if let Ok(engine) = self.cluster.engine(&node) {
                leaked += engine.with_catalog(|c| {
                    c.names().iter().filter(|n| n.starts_with("xdb_q")).count() as u64
                });
            }
        }
        leaked
    }
}

/// The repo's stable hash (FNV-1a) over every cell of a result, in row
/// order.
pub fn digest(rel: &Relation) -> String {
    use std::fmt::Write as _;
    let mut cells = String::new();
    for row in 0..rel.len() {
        for col in 0..rel.width() {
            let _ = write!(cells, "{:?}|", rel.value(row, col));
        }
        cells.push('\n');
    }
    xdb_core::annotate::stable_hash_hex(cells.as_bytes())
}

/// Same fields and the same rows in the same order, floats within the
/// tolerance `Relation::same_bag` uses (summation order differs between
/// a decentralised and a single-engine plan).
fn same_rows_in_order(a: &Relation, b: &Relation) -> bool {
    if a.len() != b.len() || a.width() != b.width() {
        return false;
    }
    (0..a.len()).all(|row| {
        (0..a.width()).all(|col| match (a.value(row, col), b.value(row, col)) {
            (Value::Float(x), Value::Float(y)) => {
                (x - y).abs() <= 1e-6 * x.abs().max(y.abs()).max(1.0)
            }
            (x, y) => x == y,
        })
    })
}

/// Compares results with the oracle's. All six queries have an ORDER BY,
/// so a result must equal the oracle's as a bag *and* in row order. A
/// result whose digest was already verified needs no second look.
pub struct Verifier {
    expected: Vec<Relation>,
    verified: Vec<HashSet<String>>,
}

impl Verifier {
    pub fn new(fed: &Federation) -> Result<Verifier> {
        let expected = (0..QUERIES.len())
            .map(|q| fed.local(q))
            .collect::<Result<Vec<_>>>()?;
        Ok(Verifier {
            verified: vec![HashSet::new(); expected.len()],
            expected,
        })
    }

    /// Full comparison (every warm-up result, and any new digest).
    pub fn check_full(&mut self, query: usize, rel: &Relation) -> bool {
        let expected = &self.expected[query];
        let ok = rel.same_bag(expected) && same_rows_in_order(rel, expected);
        if ok {
            self.verified[query].insert(digest(rel));
        }
        ok
    }

    pub fn check(&mut self, query: usize, rel: &Relation) -> bool {
        self.verified[query].contains(&digest(rel)) || self.check_full(query, rel)
    }
}

/// Bytes on the transfer ledger, by what they are.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerTotals {
    /// Raw payload bytes of data transfers.
    pub raw: u64,
    /// Encoded payload bytes of data transfers: pipelines,
    /// materialisations and final results. Control messages are left out:
    /// their size depends on the decimal width of query ids.
    pub encoded: u64,
    pub implicit: u64,
    pub explicit: u64,
    pub control: u64,
    pub transfers: u64,
}

impl LedgerTotals {
    pub fn add(&mut self, records: &[Transfer]) {
        for t in records {
            self.transfers += 1;
            if t.purpose == Purpose::ControlMessage {
                self.control += t.bytes;
                continue;
            }
            self.raw += t.bytes;
            self.encoded += t.encoded_bytes;
            match t.purpose {
                Purpose::InterDbmsPipeline => self.implicit += t.encoded_bytes,
                Purpose::Materialization => self.explicit += t.encoded_bytes,
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    fn transfer(purpose: Purpose, bytes: u64, encoded_bytes: u64) -> Transfer {
        Transfer {
            from: NodeId::new("a"),
            to: NodeId::new("b"),
            bytes,
            encoded_bytes,
            rows: 1,
            purpose,
            codec_bytes: Vec::new(),
        }
    }

    #[test]
    fn control_messages_stay_out_of_the_payload() {
        let mut totals = LedgerTotals::default();
        totals.add(&[
            transfer(Purpose::ControlMessage, 90, 90),
            transfer(Purpose::InterDbmsPipeline, 1000, 400),
            transfer(Purpose::Materialization, 500, 300),
            transfer(Purpose::FinalResult, 100, 80),
        ]);
        assert_eq!(
            totals,
            LedgerTotals {
                raw: 1600,
                encoded: 780,
                implicit: 400,
                explicit: 300,
                control: 90,
                transfers: 4,
            }
        );
    }

    #[test]
    fn verifier_accepts_the_federation_and_rejects_a_wrong_result() {
        let w = workload::find("td3_overhead").unwrap();
        let fed = Federation::build(w).unwrap();
        let mut verifier = Verifier::new(&fed).unwrap();
        let xdb = xdb_core::Xdb::new(&fed.cluster, &fed.catalog).with_client_node(CLIENT_NODE);
        let q3 = xdb.submit(QUERIES[0].sql()).unwrap().relation;
        assert!(verifier.check_full(0, &q3));
        assert!(verifier.check(0, &q3), "digest fast path");
        let q5 = fed.local(1).unwrap();
        assert!(!verifier.check(0, &q5), "Q5's rows are not Q3's");
        assert_eq!(fed.leaked_objects(), 0);
        assert!(fed.rows_loaded > 6000);
    }
}
