//! Reproduction runners — one function per table/figure of the paper's
//! evaluation (see DESIGN.md §4 for the index).
//!
//! Scale factors are laptop-scale (default 0.1 ≈ the paper's mid-scale
//! setting, proportionally); the *shapes* — who wins, by what factor,
//! where crossovers fall — are the reproduction target, not absolute
//! seconds.

use crate::report::Figure;
use std::sync::Arc;
use xdb_baselines::{Mediator, MediatorConfig, Sclera};
use xdb_core::annotate::AnnotateOptions;
use xdb_core::{GlobalCatalog, Xdb, XdbOptions};
use xdb_engine::cluster::Cluster;
use xdb_engine::error::Result;
use xdb_engine::profile::EngineProfile;
use xdb_net::{Movement, NodeId, Purpose, Scenario};
use xdb_obs::history::EdgeObs;
use xdb_obs::{HistoryRecord, Telemetry};
use xdb_tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};

/// Name of the managed-cloud node hosting the middleware/mediator.
pub const CLOUD: &str = "cloud";

/// A loaded federation ready for experiments.
pub struct Env {
    pub cluster: Cluster,
    pub catalog: GlobalCatalog,
    pub sf: f64,
}

/// Build a TPC-H federation with the middleware/mediator on a metered
/// cloud node, reporting into `telemetry`.
pub fn env(
    td: TableDist,
    sf: f64,
    scenario: Scenario,
    profiles: &ProfileAssignment,
    telemetry: &Arc<Telemetry>,
) -> Result<Env> {
    let mut cluster = build_cluster(td, sf, scenario, profiles)?;
    cluster.set_telemetry(Arc::clone(telemetry));
    cluster.topology.add_cloud_node(NodeId::new(CLOUD));
    let catalog = GlobalCatalog::discover(&cluster)?;
    Ok(Env {
        cluster,
        catalog,
        sf,
    })
}

impl Env {
    /// XDB on this federation under `options`, the middleware on [`CLOUD`].
    pub(crate) fn xdb(&self, options: XdbOptions) -> Xdb<'_> {
        Xdb::new(&self.cluster, &self.catalog)
            .with_client_node(CLOUD)
            .with_options(options)
    }
}

/// Every engine a PostgreSQL.
pub fn pg() -> ProfileAssignment {
    ProfileAssignment::uniform(EngineProfile::postgres())
}

/// An on-premise, all-PostgreSQL [`env`]: the federation most runners use.
pub fn onprem(td: TableDist, sf: f64, telemetry: &Arc<Telemetry>) -> Result<Env> {
    env(td, sf, Scenario::OnPremise, &pg(), telemetry)
}

/// A system a workload submit runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    Xdb,
    Garlic,
    /// Presto with this many workers.
    Presto(usize),
    Sclera,
}

impl Deployment {
    /// The name its history records carry (`presto4` for four workers).
    pub fn name(self) -> String {
        match self {
            Deployment::Xdb => "xdb".to_string(),
            Deployment::Garlic => MediatorConfig::garlic(CLOUD).deployment(),
            Deployment::Presto(workers) => MediatorConfig::presto(CLOUD, workers).deployment(),
            Deployment::Sclera => "sclera".to_string(),
        }
    }
}

/// [`run_workload`] of the six-query workload under XDB with `options`,
/// each query submitted `runs` times in a row.
pub(crate) fn xdb_workload(
    env: &Env,
    options: &XdbOptions,
    runs: usize,
    labelled: bool,
) -> Result<Vec<HistoryRecord>> {
    let submits: Vec<_> = TpchQuery::ALL
        .into_iter()
        .flat_map(|q| std::iter::repeat_n((q, Deployment::Xdb), runs))
        .collect();
    run_workload(env, options, &submits, labelled)
}

/// Submit `submits` on `env` in order, XDB under `options`, the
/// middleware or mediator on [`CLOUD`]: the history record each submit
/// returned, in submit order. With `labelled` each record carries its
/// query's name; otherwise its label stays empty.
///
/// Each record is also appended to the env's history sink, which writes
/// it only when `repro --history dir/` opened a directory.
pub fn run_workload(
    env: &Env,
    options: &XdbOptions,
    submits: &[(TpchQuery, Deployment)],
    labelled: bool,
) -> Result<Vec<HistoryRecord>> {
    let (cluster, catalog) = (&env.cluster, &env.catalog);
    let xdb = env.xdb(options.clone());
    let submit = |&(q, deployment): &(TpchQuery, Deployment)| {
        cluster.ledger.clear();
        let sql = q.sql();
        let mediator = |config| Mediator::new(cluster, catalog, config).submit(sql);
        let mut record = match deployment {
            Deployment::Xdb => xdb.submit(sql)?.record(sql),
            Deployment::Garlic => mediator(MediatorConfig::garlic(CLOUD))?.record,
            Deployment::Presto(n) => mediator(MediatorConfig::presto(CLOUD, n))?.record,
            Deployment::Sclera => Sclera::new(cluster, catalog, CLOUD).submit(sql)?.record,
        };
        if labelled {
            record.label = q.name().to_string();
        }
        cluster.telemetry().history.append(&record);
        Ok(record)
    };
    submits.iter().map(submit).collect()
}

/// The record of each of `submits` ([`run_workload`] with default options
/// and no labels), for a figure runner to project.
fn records<const N: usize>(
    env: &Env,
    submits: [(TpchQuery, Deployment); N],
) -> Result<[HistoryRecord; N]> {
    let records = run_workload(env, &XdbOptions::default(), &submits, false)?;
    Ok(records.try_into().expect("one record per submit"))
}

/// [`records`] of the six queries in workload order, each under every one
/// of `deployments` in turn.
fn per_query<const N: usize>(
    env: &Env,
    deployments: [Deployment; N],
) -> Result<Vec<(TpchQuery, [HistoryRecord; N])>> {
    TpchQuery::ALL
        .into_iter()
        .map(|q| Ok((q, records(env, deployments.map(|d| (q, d)))?)))
        .collect()
}

/// "Actual" execution time of a query with localized tables: one engine
/// holding everything (the paper's methodology for estimating the
/// data-movement share, Section VI-A).
pub fn localized_exec_ms(sf: f64, sql: &str) -> Result<f64> {
    let cluster = Cluster::lan(&["solo"], EngineProfile::postgres());
    xdb_tpch::distributions::load_all_on(&cluster, "solo", sf)?;
    let (_, report) = cluster.query("solo", sql)?;
    Ok(report.finish_ms)
}

// ------------------------------------------------------------- trace sink

/// Run all six TPC-H queries on TD1 with per-operator profiling enabled
/// and concatenate their traces onto one timeline — the payload behind
/// `repro --trace out.json`. Span timestamps come from the simulated
/// clock, not the host, so the emitted trace is the same on every run.
pub fn trace_workload(sf: f64, telemetry: &Arc<Telemetry>) -> Result<xdb_obs::QueryTrace> {
    let env = onprem(TableDist::Td1, sf, telemetry)?;
    let mut merged = xdb_obs::QueryTrace::default();
    let mut offset = 0.0f64;
    for q in TpchQuery::ALL {
        env.cluster.ledger.clear();
        let xdb = env.xdb(XdbOptions {
            trace_operators: true,
            ..Default::default()
        });
        let out = xdb.submit(q.sql())?;
        telemetry.history.append(&out.record(q.sql()));
        let mut trace = out.trace;
        // The root span of every submission is named "query"; label it
        // with the TPC-H query so the merged timeline reads Q3, Q5, …
        if let Some(root) = trace.spans.iter_mut().find(|s| s.parent.is_none()) {
            root.name = q.name().to_string();
        }
        trace.shift_ms(offset);
        offset = trace.end_ms();
        merged.merge(trace);
    }
    Ok(merged)
}

// ------------------------------------------------------------------ Fig 1

/// Fig 1: the introduction experiment — total vs actual execution time of
/// TPC-H Q3 for Garlic and Presto (and XDB) at two scale factors.
pub fn fig01(sf_small: f64, sf_large: f64, telemetry: &Arc<Telemetry>) -> Result<Figure> {
    let mut fig = Figure::new(
        "Fig 1",
        "MW overhead on Q3: total vs actual execution",
        "sim seconds",
    );
    for sf in [sf_small, sf_large] {
        let env = onprem(TableDist::Td1, sf, telemetry)?;
        let q3 = TpchQuery::Q3;
        let actual = localized_exec_ms(sf, q3.sql())? / 1000.0;
        let [garlic, presto, xdb] = records(
            &env,
            [
                (q3, Deployment::Garlic),
                (q3, Deployment::Presto(4)),
                (q3, Deployment::Xdb),
            ],
        )?;
        let x = format!("sf {sf}");
        fig.series_mut("garlic total")
            .push(&x, garlic.total_ms / 1000.0);
        fig.series_mut("garlic actual")
            .push(&x, (garlic.total_ms - garlic.phase_ms("transfer")) / 1000.0);
        fig.series_mut("presto total")
            .push(&x, presto.total_ms / 1000.0);
        fig.series_mut("presto actual")
            .push(&x, (presto.total_ms - presto.phase_ms("transfer")) / 1000.0);
        fig.series_mut("xdb total")
            .push(&x, xdb.phase_ms("exec") / 1000.0);
        fig.series_mut("localized").push(&x, actual);
    }
    fig.note("paper: actual ≈ 15% of Garlic's and ≈ 3% of Presto's total; XDB ≈ actual");
    Ok(fig)
}

// --------------------------------------------------------------- Fig 9a-c

/// Fig 9a–c: overall runtime of the six queries for XDB / Garlic /
/// Presto-4 / Sclera under one table distribution.
pub fn fig09(td: TableDist, sf: f64, telemetry: &Arc<Telemetry>) -> Result<Figure> {
    let env = onprem(td, sf, telemetry)?;
    let mut fig = Figure::new(
        format!("Fig 9 ({})", td.name()),
        format!("overall runtime, {} sf {sf}", td.name()),
        "sim seconds",
    );
    let deployments = [
        Deployment::Xdb,
        Deployment::Garlic,
        Deployment::Presto(4),
        Deployment::Sclera,
    ];
    for (q, [xdb, garlic, presto, sclera]) in per_query(&env, deployments)? {
        fig.series_mut("xdb")
            .push(q.name(), xdb.phase_ms("exec") / 1000.0);
        fig.series_mut("garlic")
            .push(q.name(), garlic.total_ms / 1000.0);
        fig.series_mut("presto4")
            .push(q.name(), presto.total_ms / 1000.0);
        fig.series_mut("sclera")
            .push(q.name(), sclera.total_ms / 1000.0);
        fig.series_mut("garlic µ")
            .push(q.name(), garlic.phase_ms("transfer") / 1000.0);
        fig.series_mut("presto µ")
            .push(q.name(), presto.phase_ms("transfer") / 1000.0);
    }
    fig.note("paper: XDB up to 4x vs Garlic, 6x vs Presto, 30x vs Sclera");
    Ok(fig)
}

// ----------------------------------------------------------------- Fig 10

/// Fig 10: heterogeneous engines (MariaDB@db2, Hive@db3), XDB vs Presto-4.
pub fn fig10(sf: f64, telemetry: &Arc<Telemetry>) -> Result<Figure> {
    let env = env(
        TableDist::Td1,
        sf,
        Scenario::OnPremise,
        &ProfileAssignment::heterogeneous(),
        telemetry,
    )?;
    let mut fig = Figure::new(
        "Fig 10",
        format!("heterogeneous DBMSes (TD1, sf {sf})"),
        "sim seconds",
    );
    for (q, [xdb, presto]) in per_query(&env, [Deployment::Xdb, Deployment::Presto(4)])? {
        let xdb_exec = xdb.phase_ms("exec");
        fig.series_mut("xdb").push(q.name(), xdb_exec / 1000.0);
        fig.series_mut("presto4")
            .push(q.name(), presto.total_ms / 1000.0);
        fig.series_mut("speedup")
            .push(q.name(), presto.total_ms / xdb_exec);
    }
    fig.note("paper: XDB outperforms Presto by ~2x on average here");
    Ok(fig)
}

// ----------------------------------------------------------------- Fig 11

/// Fig 11: scaling Presto's workers (2/4/10) vs XDB, TD1.
pub fn fig11(sf: f64, telemetry: &Arc<Telemetry>) -> Result<Figure> {
    let env = onprem(TableDist::Td1, sf, telemetry)?;
    let mut fig = Figure::new(
        "Fig 11",
        format!("scaled-out mediator vs decentralized execution (TD1, sf {sf})"),
        "sim seconds",
    );
    let deployments = [
        Deployment::Xdb,
        Deployment::Presto(2),
        Deployment::Presto(4),
        Deployment::Presto(10),
    ];
    for (q, [xdb, prestos @ ..]) in per_query(&env, deployments)? {
        fig.series_mut("xdb")
            .push(q.name(), xdb.phase_ms("exec") / 1000.0);
        for presto in prestos {
            let name = &presto.deployment;
            fig.series_mut(name)
                .push(q.name(), presto.total_ms / 1000.0);
            fig.series_mut(&format!("{name} actual")).push(
                q.name(),
                (presto.total_ms - presto.phase_ms("transfer")) / 1000.0,
            );
        }
    }
    fig.note("paper: adding workers shrinks the actual processing, not the total");
    Ok(fig)
}

// ---------------------------------------------------------------- Table 4

/// Table IV: delegation plan analysis — the `t_i --x--> t_j` edges of
/// Q3/Q5/Q8 under TD1/TD2 with *measured* moved row counts, read off each
/// submit's own transfers.
pub fn table4(sf: f64, telemetry: &Arc<Telemetry>) -> Result<String> {
    let mut out =
        String::from("== Table IV: delegation plans with measured inter-DBMS movements ==\n");
    for td in [TableDist::Td1, TableDist::Td2] {
        let env = onprem(td, sf, telemetry)?;
        for q in [TpchQuery::Q3, TpchQuery::Q5, TpchQuery::Q8] {
            let xdb = env.xdb(XdbOptions::default());
            let outcome = xdb.submit(q.sql())?;
            telemetry.history.append(&outcome.record(q.sql()));
            let transfers = &outcome.transfers;
            out.push_str(&format!("\n{} {} (sf {sf}):\n", td.name(), q.name()));
            let mut used = vec![false; transfers.len()];
            let mut total_rows = 0u64;
            for e in &outcome.delegation.edges {
                let from = outcome.delegation.task(e.from);
                let to = outcome.delegation.task(e.to);
                let want = match e.movement {
                    Movement::Implicit => Purpose::InterDbmsPipeline,
                    Movement::Explicit => Purpose::Materialization,
                };
                let rows = transfers
                    .iter()
                    .enumerate()
                    .find(|(i, t)| {
                        !used[*i] && t.purpose == want && t.from == from.dbms && t.to == to.dbms
                    })
                    .map(|(i, t)| {
                        used[i] = true;
                        t.rows
                    })
                    .unwrap_or(0);
                total_rows += rows;
                out.push_str(&format!(
                    "  {}:{} --{}--> {}:{}   {} rows\n",
                    from.dbms,
                    from.plan.compact_notation(),
                    e.movement,
                    to.dbms,
                    to.plan.compact_notation(),
                    rows
                ));
            }
            out.push_str(&format!(
                "  Σ moved: {} rows across {} movements ({} tasks)\n",
                total_rows,
                outcome.delegation.edges.len(),
                outcome.delegation.tasks.len()
            ));
        }
    }
    Ok(out)
}

// -------------------------------------------------------------- Fig 12/13

/// Fig 12: runtime scaling over data size for Q3 / Q9 / Q8 (TD1).
pub fn fig12(sfs: &[f64], telemetry: &Arc<Telemetry>) -> Result<Vec<Figure>> {
    let mut figures = Vec::new();
    for q in [TpchQuery::Q3, TpchQuery::Q9, TpchQuery::Q8] {
        let mut fig = Figure::new(
            format!("Fig 12 ({})", q.name()),
            format!("data scalability of {} (TD1)", q.name()),
            "sim seconds",
        );
        for &sf in sfs {
            let env = onprem(TableDist::Td1, sf, telemetry)?;
            let x = format!("sf {sf}");
            let [xdb, garlic, presto] = records(
                &env,
                [
                    (q, Deployment::Xdb),
                    (q, Deployment::Garlic),
                    (q, Deployment::Presto(4)),
                ],
            )?;
            fig.series_mut("xdb")
                .push(&x, xdb.phase_ms("exec") / 1000.0);
            fig.series_mut("garlic").push(&x, garlic.total_ms / 1000.0);
            fig.series_mut("presto4").push(&x, presto.total_ms / 1000.0);
        }
        fig.note("paper: XDB outperforms at every scale; growth tracks intermediate data");
        figures.push(fig);
    }
    Ok(figures)
}

/// Fig 13: average runtime over all six queries vs scale factor (TD1).
pub fn fig13(sfs: &[f64], telemetry: &Arc<Telemetry>) -> Result<Figure> {
    let mut fig = Figure::new(
        "Fig 13",
        "average runtime over all queries (TD1)",
        "sim seconds",
    );
    for &sf in sfs {
        let env = onprem(TableDist::Td1, sf, telemetry)?;
        let x = format!("sf {sf}");
        let deployments = [Deployment::Xdb, Deployment::Garlic, Deployment::Presto(4)];
        let (mut sx, mut sg, mut sp, mut bytes) = (0.0, 0.0, 0.0, 0u64);
        for (_, [xdb, garlic, presto]) in per_query(&env, deployments)? {
            sx += xdb.phase_ms("exec");
            bytes += xdb.moved_bytes().0;
            sg += garlic.total_ms;
            sp += presto.total_ms;
        }
        let n = TpchQuery::ALL.len() as f64;
        fig.series_mut("xdb").push(&x, sx / n / 1000.0);
        fig.series_mut("garlic").push(&x, sg / n / 1000.0);
        fig.series_mut("presto4").push(&x, sp / n / 1000.0);
        fig.series_mut("xdb MB moved")
            .push(&x, bytes as f64 / 1e6 / n);
    }
    fig.note("paper: 3x avg speedup vs Garlic, 4x vs Presto; runtime ∝ intermediate data");
    Ok(fig)
}

// ----------------------------------------------------------------- Fig 14

/// Fig 14: data transferred during execution — XDB on-premise, XDB
/// geo-distributed, Garlic, Presto (mediator in the cloud).
pub fn fig14(td: TableDist, sf: f64, telemetry: &Arc<Telemetry>) -> Result<Figure> {
    let mut fig = Figure::new(
        format!("Fig 14 ({})", td.name()),
        format!("bytes moved over metered links ({}, sf {sf})", td.name()),
        "MB",
    );
    // On-premise: DBMSes on a LAN, middleware in the cloud. Metered
    // traffic = anything touching the cloud node.
    let onp = onprem(td, sf, telemetry)?;
    // Geo-distributed: every DBMS in its own DC; every link is metered.
    let geo = env(td, sf, Scenario::GeoDistributed, &pg(), telemetry)?;
    let mb = |bytes: u64| bytes as f64 / 1e6;
    for q in TpchQuery::ALL {
        let [xdb_onp] = records(&onp, [(q, Deployment::Xdb)])?;
        let [xdb_geo] = records(&geo, [(q, Deployment::Xdb)])?;
        let [garlic, presto] =
            records(&onp, [(q, Deployment::Garlic), (q, Deployment::Presto(4))])?;
        let cloud = |e: &&EdgeObs| e.from == CLOUD || e.to == CLOUD;
        let onp_bytes = xdb_onp.edges.iter().filter(cloud).map(|e| e.bytes).sum();
        fig.series_mut("xdb (ONP)").push(q.name(), mb(onp_bytes));
        fig.series_mut("xdb (GEO)")
            .push(q.name(), mb(xdb_geo.edges.iter().map(|e| e.bytes).sum()));
        fig.series_mut("garlic")
            .push(q.name(), mb(garlic.moved_bytes().0));
        fig.series_mut("presto")
            .push(q.name(), mb(presto.moved_bytes().0));
    }
    fig.note("paper: XDB(ONP) sends only results+control to the cloud — up to 3 orders of magnitude less");
    Ok(fig)
}

// ----------------------------------------------------------------- Fig 15

/// Fig 15: XDB query-processing phase breakdown (prep / lopt / ann / exec)
/// across scale factors.
pub fn fig15(
    q: TpchQuery,
    td: TableDist,
    sfs: &[f64],
    telemetry: &Arc<Telemetry>,
) -> Result<Figure> {
    let mut fig = Figure::new(
        format!("Fig 15 ({} {})", q.name(), td.name()),
        format!("phase breakdown of {} on {}", q.name(), td.name()),
        "sim seconds",
    );
    for &sf in sfs {
        let env = onprem(td, sf, telemetry)?;
        let [xdb] = records(&env, [(q, Deployment::Xdb)])?;
        let x = format!("sf {sf}");
        let [prep, lopt, ann, exec] = ["prep", "lopt", "ann", "exec"].map(|p| xdb.phase_ms(p));
        fig.series_mut("prep").push(&x, prep / 1000.0);
        fig.series_mut("lopt").push(&x, lopt / 1000.0);
        fig.series_mut("ann").push(&x, ann / 1000.0);
        fig.series_mut("exec").push(&x, exec / 1000.0);
        fig.series_mut("overhead %")
            .push(&x, 100.0 * (prep + lopt + ann) / xdb.total_ms);
    }
    fig.note("paper: prep+lopt+ann stay <10s and sf-independent; exec dominates at scale");
    Ok(fig)
}

// -------------------------------------------------------------- ablations

/// Ablation: movement-type choice — cost-based vs all-implicit vs
/// all-explicit (design-choice study beyond the paper's figures).
pub fn ablation_movement(sf: f64, telemetry: &Arc<Telemetry>) -> Result<Figure> {
    let env = onprem(TableDist::Td1, sf, telemetry)?;
    let mut fig = Figure::new(
        "Ablation A1",
        format!("movement-type policy (TD1, sf {sf})"),
        "sim seconds",
    );
    for (name, force) in [
        ("cost-based", None),
        ("all-implicit", Some(Movement::Implicit)),
        ("all-explicit", Some(Movement::Explicit)),
    ] {
        let options = XdbOptions {
            annotate: AnnotateOptions {
                force_movement: force,
                ..Default::default()
            },
            ..Default::default()
        };
        let records = xdb_workload(&env, &options, 1, false)?;
        for (q, r) in TpchQuery::ALL.into_iter().zip(records) {
            fig.series_mut(name)
                .push(q.name(), r.phase_ms("exec") / 1000.0);
        }
    }
    let note = format!(
        "all-implicit beats cost-based on {}; all-explicit beats it on {}",
        fig.lower("all-implicit", "cost-based"),
        fig.lower("all-explicit", "cost-based"),
    );
    fig.note(note);
    Ok(fig)
}

/// Ablation: annotation search-space pruning on/off — consulting
/// round-trips and resulting runtime.
pub fn ablation_pruning(sf: f64, telemetry: &Arc<Telemetry>) -> Result<Figure> {
    let env = onprem(TableDist::Td3, sf, telemetry)?;
    let mut fig = Figure::new(
        "Ablation A2",
        format!("annotation candidate pruning (TD3, sf {sf})"),
        "value",
    );
    for (name, no_pruning) in [("pruned", false), ("exhaustive", true)] {
        let options = XdbOptions {
            annotate: AnnotateOptions {
                no_pruning,
                ..Default::default()
            },
            ..Default::default()
        };
        let records = xdb_workload(&env, &options, 1, false)?;
        for (q, r) in TpchQuery::ALL.into_iter().zip(records) {
            fig.series_mut(&format!("{name} consults"))
                .push(q.name(), r.consult_roundtrips as f64);
            fig.series_mut(&format!("{name} exec s"))
                .push(q.name(), r.phase_ms("exec") / 1000.0);
        }
    }
    let note = format!(
        "pruning (4 options per cross-db op) cuts consults on {}; \
         exhaustive search runs faster on {} and slower on {}",
        fig.lower("pruned consults", "exhaustive consults"),
        fig.lower("exhaustive exec s", "pruned exec s"),
        fig.lower("pruned exec s", "exhaustive exec s"),
    );
    fig.note(note);
    Ok(fig)
}

/// Ablation: logical-optimizer contributions (join reordering and
/// projection pushdown) measured by data moved and runtime.
pub fn ablation_logical(sf: f64, telemetry: &Arc<Telemetry>) -> Result<Figure> {
    let env = onprem(TableDist::Td1, sf, telemetry)?;
    let mut fig = Figure::new(
        "Ablation A3",
        format!("logical optimizations (TD1, sf {sf})"),
        "value",
    );
    for (name, no_reorder, no_prune) in [
        ("full", false, false),
        ("no-reorder", true, false),
        ("no-pruning", false, true),
    ] {
        let options = XdbOptions {
            no_join_reorder: no_reorder,
            no_column_pruning: no_prune,
            ..Default::default()
        };
        let records = xdb_workload(&env, &options, 1, false)?;
        for (q, r) in TpchQuery::ALL.into_iter().zip(records) {
            fig.series_mut(&format!("{name} MB"))
                .push(q.name(), r.moved_bytes().0 as f64 / 1e6);
            fig.series_mut(&format!("{name} s"))
                .push(q.name(), r.phase_ms("exec") / 1000.0);
        }
    }
    let moved = |rewrite: &str, without: &str| {
        let (shrinks, grows) = (fig.lower("full MB", without), fig.lower(without, "full MB"));
        format!("{rewrite} shrinks inter-DBMS movement on {shrinks} and grows it on {grows}")
    };
    let note = format!(
        "{}; {} (Section IV-B1)",
        moved("join reordering", "no-reorder MB"),
        moved("column pruning", "no-pruning MB")
    );
    fig.note(note);
    Ok(fig)
}

/// Ablation: left-deep vs bushy join trees (the paper's future-work
/// extension, footnote 5: bushy plans expose pipeline parallelism that
/// decentralized execution exploits).
pub fn ablation_bushy(sf: f64, telemetry: &Arc<Telemetry>) -> Result<Figure> {
    let env = onprem(TableDist::Td3, sf, telemetry)?;
    let mut fig = Figure::new(
        "Ablation A4",
        format!("left-deep vs bushy join trees (TD3, sf {sf})"),
        "sim seconds",
    );
    for (name, bushy) in [("left-deep", false), ("bushy", true)] {
        let options = XdbOptions {
            bushy_joins: bushy,
            ..Default::default()
        };
        let records = xdb_workload(&env, &options, 1, false)?;
        for (q, r) in TpchQuery::ALL.into_iter().zip(records) {
            fig.series_mut(name)
                .push(q.name(), r.phase_ms("exec") / 1000.0);
            if bushy {
                fig.series_mut("bushy tasks").push(q.name(), r.tasks as f64);
            }
        }
    }
    fig.note("bushy subtrees pipeline in parallel across DBMSes (paper footnote 5)");
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdb_core::CostProfiles;

    const TEST_SF: f64 = 0.002;

    #[test]
    fn fig01_runs_and_orders_correctly() {
        let fig = fig01(TEST_SF, TEST_SF * 2.0, &Telemetry::new_handle()).unwrap();
        let r = fig.render();
        assert!(r.contains("garlic total"), "{r}");
        // Actual ≤ total for both MW systems.
        for sys in ["garlic", "presto"] {
            for x in [format!("sf {TEST_SF}"), format!("sf {}", TEST_SF * 2.0)] {
                let total = fig
                    .series
                    .iter()
                    .find(|s| s.name == format!("{sys} total"))
                    .unwrap()
                    .get(&x)
                    .unwrap();
                let actual = fig
                    .series
                    .iter()
                    .find(|s| s.name == format!("{sys} actual"))
                    .unwrap()
                    .get(&x)
                    .unwrap();
                assert!(actual <= total, "{sys} {x}: {actual} > {total}");
            }
        }
    }

    /// The `--trace` payload parses as Chrome-trace JSON, and every lane it
    /// names (each engine node, the client, the network) carries at least
    /// one complete (`X`) event.
    #[test]
    fn trace_workload_gives_every_lane_a_span() {
        use xdb_obs::json::{self, Value};
        let trace = trace_workload(TEST_SF, &Telemetry::new_handle()).unwrap();
        let doc = json::parse(&trace.to_chrome_json()).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        // The string at `path` of `e`, if there is one.
        let at = |e: &Value, path: &[&str]| {
            path.iter()
                .try_fold(e, |v, k| v.get(k))
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        let lanes: Vec<(f64, String)> = events
            .iter()
            .filter(|e| at(e, &["ph"]).as_deref() == Some("M"))
            .filter(|e| at(e, &["name"]).as_deref() == Some("thread_name"))
            .map(|e| (e.f64("tid").unwrap(), at(e, &["args", "name"]).unwrap()))
            .collect();
        let x_tids: Vec<f64> = events
            .iter()
            .filter(|e| at(e, &["ph"]).as_deref() == Some("X"))
            .map(|e| e.f64("tid").unwrap())
            .collect();
        assert!(lanes.len() > 2, "{lanes:?}");
        for (tid, name) in &lanes {
            assert!(
                x_tids.contains(tid),
                "lane {name:?} (tid {tid}) has no spans"
            );
        }
    }

    #[test]
    fn fig09_has_all_queries_and_systems() {
        let fig = fig09(TableDist::Td1, TEST_SF, &Telemetry::new_handle()).unwrap();
        assert_eq!(fig.series.len(), 6);
        for s in &fig.series {
            assert_eq!(s.points.len(), 6, "{} missing queries", s.name);
        }
    }

    #[test]
    fn baseline_records_leave_learned_state_and_drift_alone() {
        // The records are read back from the file the runner appended
        // them to, as `repro --history dir/ fig9` writes it.
        let dir = std::env::temp_dir().join(format!("xdb_fig9_history_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let telemetry = Telemetry::new_handle();
        telemetry.history.enable_dir(&dir).unwrap();
        for td in TableDist::ALL {
            fig09(td, TEST_SF, &telemetry).unwrap();
        }
        let all = xdb_obs::history::load_history_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let xdb: Vec<HistoryRecord> = all
            .iter()
            .filter(|r| r.deployment == "xdb")
            .cloned()
            .collect();
        assert_eq!(all.len(), 4 * xdb.len(), "four deployments per query");
        // The baselines' records carry no cost bundle and no statements:
        // the store the whole history builds is the one XDB's records do,
        // and so is what it prices.
        let learned = CostProfiles::from_history(&all);
        assert!(!learned.is_empty());
        assert_eq!(learned, CostProfiles::from_history(&xdb));
        assert_eq!(
            learned.describe(),
            CostProfiles::from_history(&xdb).describe()
        );
        let env = onprem(TableDist::Td1, TEST_SF, &Telemetry::new_handle()).unwrap();
        env.catalog.set_profiles(learned);
        let xdb_only = onprem(TableDist::Td1, TEST_SF, &Telemetry::new_handle()).unwrap();
        xdb_only
            .catalog
            .set_profiles(CostProfiles::from_history(&xdb));
        let options = XdbOptions {
            learned_costs: true,
            freeze_profiles: true,
            ..Default::default()
        };
        for q in TpchQuery::ALL {
            let fingerprint = |e: &Env| {
                let xdb = e.xdb(options.clone());
                xdb_core::annotate::plan_fingerprint(&xdb.plan(q.sql()).unwrap().0)
            };
            assert_eq!(fingerprint(&env), fingerprint(&xdb_only), "{}", q.name());
        }
        // Drift groups by (sql_fnv, deployment): the history against
        // itself finds nothing.
        let report = crate::drift::compare(&all, &all, crate::drift::DEFAULT_NOISE_PCT, None);
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.compared, 4 * TpchQuery::ALL.len());
    }

    #[test]
    fn table4_reports_rows() {
        let t = table4(TEST_SF, &Telemetry::new_handle()).unwrap();
        assert!(t.contains("TD1 Q3"), "{t}");
        assert!(t.contains("rows"), "{t}");
        assert!(t.contains("--i-->") || t.contains("--e-->"), "{t}");
    }

    #[test]
    fn fig14_xdb_onp_is_smallest() {
        let fig = fig14(TableDist::Td1, TEST_SF, &Telemetry::new_handle()).unwrap();
        for q in TpchQuery::ALL {
            let onp = fig.series[0].get(q.name()).unwrap();
            let garlic = fig
                .series
                .iter()
                .find(|s| s.name == "garlic")
                .unwrap()
                .get(q.name())
                .unwrap();
            assert!(
                onp < garlic,
                "{}: xdb_onp {onp} >= garlic {garlic}",
                q.name()
            );
        }
    }

    #[test]
    fn ablation_bushy_runs_and_matches() {
        let fig = ablation_bushy(TEST_SF, &Telemetry::new_handle()).unwrap();
        assert!(fig.series.len() >= 2, "{}", fig.render());
    }

    #[test]
    fn trace_workload_concatenates_all_queries() {
        let trace = trace_workload(TEST_SF, &Telemetry::new_handle()).unwrap();
        let roots = trace.spans.iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, TpchQuery::ALL.len());
        // One lane per engine node plus the client.
        let lanes = trace.lanes();
        for lane in ["client", "db1", "db2", "db3"] {
            assert!(
                lanes.iter().any(|l| l == lane),
                "missing lane {lane}: {lanes:?}"
            );
        }
        assert!(trace.counter("consults") > 0.0);
        assert!(trace.end_ms() > 0.0);
    }

    #[test]
    fn fig15_overhead_sf_independent() {
        let fig = fig15(
            TpchQuery::Q3,
            TableDist::Td1,
            &[TEST_SF, TEST_SF * 4.0],
            &Telemetry::new_handle(),
        )
        .unwrap();
        let ann = fig.series.iter().find(|s| s.name == "ann").unwrap();
        let a = ann.points[0].1;
        let b = ann.points[1].1;
        assert!(
            (a - b).abs() < 1e-9,
            "ann should not depend on sf: {a} vs {b}"
        );
    }
}
