//! The parser's output on the statements the system actually sends, held
//! to a constant: the six TPC-H queries and every statement of their
//! TD1–TD3 delegation scripts, cost-chosen and with every edge forced
//! explicit. A rewrite of the lexer or parser that changes any AST node,
//! or of the renderer that changes any statement, moves the hash. Each
//! federation numbers its queries from 1, so the `xdb_q<id>_` names are
//! pinned too.

use std::hash::Hasher;
use xdb::core::{GlobalCatalog, Xdb, XdbOptions};
use xdb::engine::profile::EngineProfile;
use xdb::net::{Movement, Scenario};
use xdb::sql::hash::Fnv;
use xdb::sql::{parse_statement, Statement};
use xdb::tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};

fn ast(sql: &str) -> Statement {
    parse_statement(sql).unwrap_or_else(|e| panic!("{sql}: {e}"))
}

#[test]
fn asts_are_pinned() {
    let mut hash = Fnv::default();
    let mut statements = 0usize;
    for q in TpchQuery::ALL {
        hash.write(format!("{:?}", ast(q.sql())).as_bytes());
        statements += 1;
    }
    for td in [TableDist::Td1, TableDist::Td2, TableDist::Td3] {
        let cluster = build_cluster(
            td,
            0.001,
            Scenario::OnPremise,
            &ProfileAssignment::uniform(EngineProfile::postgres()),
        )
        .unwrap();
        let catalog = GlobalCatalog::discover(&cluster).unwrap();
        for explicit in [false, true] {
            let mut options = XdbOptions::default();
            if explicit {
                options.annotate.force_movement = Some(Movement::Explicit);
            }
            let xdb = Xdb::new(&cluster, &catalog).with_options(options);
            for q in TpchQuery::ALL {
                let (_, script, _, _) = xdb.plan(q.sql()).unwrap();
                let sent = script
                    .steps
                    .iter()
                    .map(|s| &s.sql)
                    .chain(script.cleanup.iter().map(|(_, sql)| sql))
                    .chain([&script.xdb_query]);
                for sql in sent {
                    hash.write(format!("{:?}", ast(sql)).as_bytes());
                    statements += 1;
                }
            }
        }
    }
    assert_eq!(
        (statements, hash.finish()),
        (804, 15_938_859_224_091_993_844),
        "the AST of a statement the system sends changed"
    );
}
