//! Plan once: the schema a plan node carries is the one a from-scratch
//! recomputation gives, at every stage of planning the paper's six TPC-H
//! queries on TD1–TD3.

mod common;

use xdb_core::{AnnotateOptions, GlobalCatalog};
use xdb_engine::profile::EngineProfile;
use xdb_net::{Movement, Scenario};
use xdb_sql::optimize::OptimizeOptions;
use xdb_tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};

#[test]
fn tpch_plans_carry_the_oracle_schema_at_every_stage() {
    for dist in TableDist::ALL {
        let cluster = build_cluster(
            dist,
            0.001,
            Scenario::OnPremise,
            &ProfileAssignment::uniform(EngineProfile::postgres()),
        )
        .unwrap();
        let catalog = GlobalCatalog::discover(&cluster).unwrap();
        for table in catalog.table_names() {
            catalog.consult(&cluster, &table).unwrap();
        }
        for query in TpchQuery::ALL {
            for force_movement in [None, Some(Movement::Explicit)] {
                common::assert_staged_schemas(
                    &cluster,
                    &catalog,
                    query.sql(),
                    OptimizeOptions::default(),
                    AnnotateOptions {
                        force_movement,
                        ..Default::default()
                    },
                );
            }
        }
    }
}
