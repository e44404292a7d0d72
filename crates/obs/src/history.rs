//! The query history store: an append-only JSON-lines record of every
//! query run — exactly the series a feedback-driven cost model consumes.
//!
//! Each [`HistoryRecord`] captures one submission: a canonical **plan
//! fingerprint** (stable hash of the annotated task DAG — placements,
//! movement choices, fragment keys — computed by `xdb-core`) and the
//! plan's task count, a digest of the result rows, per-phase timings, the
//! critical-path attribution, per-edge wire observations (raw vs encoded
//! bytes and the per-codec split), per-engine statement work, consult
//! cache counts and the annotator's round trips. Everything is taken off
//! the simulated clock and script-order-deterministic state, so records
//! are bit-identical on any number of executor threads, across
//! stream-chunk sizes, and across fresh federations, which number their
//! queries alike.
//!
//! Every deployment makes this one record, and the submit that made it
//! returns it: XDB's is `QueryOutcome::record`, a projection of the
//! outcome built only when a caller asks for it; the Garlic, Presto and
//! Sclera baselines build theirs in their shared submit tail and return
//! it on their report (fingerprint and task count of the decomposed plan,
//! result digest, total and transfer time, consult counts and edges; no
//! critical path, statements or cost bundle). The reports are projections
//! of these records: `repro monitor`, the figure and ablation runners,
//! `profile`, `calibrate`, `replay` and `drift`.
//!
//! The [`HistorySink`] lives on [`crate::Telemetry`] and has one mode: a
//! directory or none. The runner that holds a record stamps its label and
//! appends it; only after `repro --history dir/` opened a directory does
//! an append write, one line of `<dir>/history.jsonl`. The sink keeps no
//! record in memory and lends no label, so clients sharing a telemetry
//! handle cannot stamp or collect each other's records.

use crate::costmodel::CostObservation;
use crate::json;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Version of the record layout, and the only one read: every baseline is
/// checked in here (`BENCH_history/`) and re-recorded when the layout
/// changes, so a record of any other version is an error naming its line,
/// not a guess at what its missing fields meant.
pub const HISTORY_SCHEMA_VERSION: u64 = 4;

/// File name of the JSON-lines store inside a history directory.
pub const HISTORY_FILE: &str = "history.jsonl";

/// One observed wire edge of a query run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EdgeObs {
    pub from: String,
    pub to: String,
    /// Variant name of the transfer's `xdb_net::Purpose`
    /// (`InterDbmsPipeline`, `SubqueryResult`, …).
    pub purpose: String,
    /// Raw (pre-codec) payload bytes.
    pub bytes: u64,
    /// Post-codec bytes — `encoded/bytes` is the observed wire ratio the
    /// cost model's Eq. 1–3 terms will calibrate against.
    pub encoded_bytes: u64,
    pub rows: u64,
    /// Per-codec byte split of the encoded payload (`dict`, `forpack`,
    /// `rle`, `raw`), deterministic per edge.
    pub codecs: Vec<(String, u64)>,
}

/// One query run, as persisted to the history store.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistoryRecord {
    /// Workload label (e.g. `Q3`), stamped by the runner that submitted
    /// the query; empty for unlabelled runs and ad-hoc submissions.
    /// Display only — drift groups by `sql_fnv`.
    pub label: String,
    /// Deployment that produced the run: `xdb`, `garlic`,
    /// `presto{workers}` (`presto4`) or `sclera`. Drift groups by it with
    /// `sql_fnv`; `repro monitor` and the figure runners read it to place a
    /// run in its column.
    pub deployment: String,
    /// Stable FNV-1a hash of the SQL text (hex) — the grouping key.
    pub sql_fnv: String,
    /// Canonical plan fingerprint: stable hash of the annotated task DAG
    /// (placements, movement choices, fragment keys). A changed
    /// fingerprint for the same `sql_fnv` is a plan flip.
    pub fingerprint: String,
    /// Tasks of that plan (Ablation A4's bushy task count).
    pub tasks: u64,
    /// Stable digest of the ordered result cells (`result_digest` of
    /// `xdb-core`): `replay` compares its arms by it, and drift flags a
    /// group whose answers differ.
    pub result_digest: String,
    /// The federation's correlation id (`Cluster::next_query_id`); 0 for
    /// a baseline, which takes none. Informational only: it counts every
    /// query the federation ran before this one, so drift comparison
    /// ignores it.
    pub query_id: u64,
    pub total_ms: f64,
    /// `(phase name, simulated ms)` in pipeline order: `prep`, `lopt`,
    /// `ann`, `exec` for XDB; `transfer` (the μ of Fig 1 and Fig 9) for a
    /// baseline.
    pub phases: Vec<(String, f64)>,
    /// Consultation-cache hits and misses over the whole submission,
    /// prep's metadata fetches included.
    pub consult_hits: u64,
    pub consult_misses: u64,
    /// The annotator's EXPLAIN round trips alone (`QueryOutcome::
    /// consult_roundtrips`, what Ablation A2 counts): the misses of the
    /// annotation, without prep's metadata fetches.
    pub consult_roundtrips: u64,
    /// Critical-path length in spans.
    pub crit_spans: u64,
    /// Critical-path attribution: `(category, location, simulated ms)`,
    /// largest first.
    pub critical: Vec<(String, String, f64)>,
    pub edges: Vec<EdgeObs>,
    /// Per-engine statement work (`engine -> simulated work ms`).
    pub statements: Vec<(String, f64)>,
    /// Cost-model observatory bundle: predicted-vs-observed accounting
    /// per placement decision. Empty for runs without cross-database
    /// decisions.
    pub cost: CostObservation,
    /// Whether the run was priced through learned cost profiles (`false`
    /// for static-cost runs).
    pub learned_costs: bool,
}

impl HistoryRecord {
    /// Simulated ms of phase `name`; 0 when the run has no such phase.
    pub fn phase_ms(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .find(|(phase, _)| phase == name)
            .map_or(0.0, |(_, ms)| *ms)
    }

    /// Raw and encoded bytes the run moved between systems: its
    /// `InterDbmsPipeline`, `Materialization` and `SubqueryResult` edges.
    /// That is XDB's streamed and materialized edges, a mediator's
    /// fetches, and both of Sclera's hops; control messages, final
    /// results and worker exchange are left out.
    pub fn moved_bytes(&self) -> (u64, u64) {
        self.edges
            .iter()
            .filter(|e| {
                matches!(
                    e.purpose.as_str(),
                    "InterDbmsPipeline" | "Materialization" | "SubqueryResult"
                )
            })
            .fold((0, 0), |(raw, enc), e| {
                (raw + e.bytes, enc + e.encoded_bytes)
            })
    }

    /// Encoded bytes per wire codec, summed over every edge of the run.
    pub fn codec_bytes(&self) -> BTreeMap<&str, u64> {
        let mut split = BTreeMap::new();
        for (codec, bytes) in self.edges.iter().flat_map(|e| &e.codecs) {
            *split.entry(codec.as_str()).or_insert(0) += bytes;
        }
        split
    }

    /// Per-category critical-path totals, in ms, largest first. A total
    /// that overflowed to `inf` (a damaged line) sorts first, not a panic.
    pub fn critical_by_category(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = Vec::new();
        for (cat, _, ms) in &self.critical {
            match out.iter_mut().find(|(c, _)| c == cat) {
                Some((_, v)) => *v += ms,
                None => out.push((cat.clone(), *ms)),
            }
        }
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// One JSON object (no trailing newline): the only way a record is
    /// written.
    pub fn to_json(&self) -> String {
        let named = |items: &[(String, f64)]| {
            json::object(items.iter().map(|(k, ms)| (k.as_str(), (*ms).into())))
        };
        let critical = self.critical.iter().map(|(cat, loc, ms)| {
            json::object([
                ("category", cat.as_str().into()),
                ("location", loc.as_str().into()),
                ("ms", (*ms).into()),
            ])
        });
        let edges = self.edges.iter().map(|e| {
            json::object([
                ("from", e.from.as_str().into()),
                ("to", e.to.as_str().into()),
                ("purpose", e.purpose.as_str().into()),
                ("bytes", e.bytes.into()),
                ("encoded_bytes", e.encoded_bytes.into()),
                ("rows", e.rows.into()),
                (
                    "codecs",
                    json::object(e.codecs.iter().map(|(c, b)| (c.as_str(), (*b).into()))),
                ),
            ])
        });
        json::object([
            ("schema_version", HISTORY_SCHEMA_VERSION.into()),
            ("label", self.label.as_str().into()),
            ("deployment", self.deployment.as_str().into()),
            ("sql_fnv", self.sql_fnv.as_str().into()),
            ("fingerprint", self.fingerprint.as_str().into()),
            ("tasks", self.tasks.into()),
            ("result_digest", self.result_digest.as_str().into()),
            ("query_id", self.query_id.into()),
            ("total_ms", self.total_ms.into()),
            ("phases", named(&self.phases)),
            ("consult_hits", self.consult_hits.into()),
            ("consult_misses", self.consult_misses.into()),
            ("consult_roundtrips", self.consult_roundtrips.into()),
            ("crit_spans", self.crit_spans.into()),
            ("critical", json::Value::Array(critical.collect())),
            ("edges", json::Value::Array(edges.collect())),
            ("statements", named(&self.statements)),
            ("cost", self.cost.to_value()),
            ("learned_costs", self.learned_costs.into()),
        ])
        .to_json()
    }

    /// Read one record back. Every field is required: a missing or
    /// mistyped one is an error naming it, and a record of any schema
    /// version but [`HISTORY_SCHEMA_VERSION`] is refused.
    pub(crate) fn from_json(v: &json::Value) -> Result<HistoryRecord, String> {
        let version = v.u64("schema_version")?;
        if version != HISTORY_SCHEMA_VERSION {
            return Err(format!(
                "schema_version {version} (this build reads {HISTORY_SCHEMA_VERSION})"
            ));
        }
        let text = |v: &json::Value, key: &str| v.str(key).map(str::to_string);
        Ok(HistoryRecord {
            label: text(v, "label")?,
            deployment: text(v, "deployment")?,
            sql_fnv: text(v, "sql_fnv")?,
            fingerprint: text(v, "fingerprint")?,
            tasks: v.u64("tasks")?,
            result_digest: text(v, "result_digest")?,
            query_id: v.u64("query_id")?,
            total_ms: v.f64("total_ms")?,
            phases: v.members("phases", "a number", json::Value::as_f64)?,
            consult_hits: v.u64("consult_hits")?,
            consult_misses: v.u64("consult_misses")?,
            consult_roundtrips: v.u64("consult_roundtrips")?,
            crit_spans: v.u64("crit_spans")?,
            critical: v.each("critical", |c| {
                Ok((text(c, "category")?, text(c, "location")?, c.f64("ms")?))
            })?,
            edges: v.each("edges", |e| {
                Ok(EdgeObs {
                    from: text(e, "from")?,
                    to: text(e, "to")?,
                    purpose: text(e, "purpose")?,
                    bytes: e.u64("bytes")?,
                    encoded_bytes: e.u64("encoded_bytes")?,
                    rows: e.u64("rows")?,
                    codecs: e.members("codecs", "a count", json::Value::as_u64)?,
                })
            })?,
            statements: v.members("statements", "a number", json::Value::as_f64)?,
            cost: CostObservation::from_json(v.object("cost")?)
                .map_err(|e| format!("cost: {e}"))?,
            learned_costs: v.bool("learned_costs")?,
        })
    }
}

/// Parse a JSON-lines history export. A record of any schema version but
/// [`HISTORY_SCHEMA_VERSION`] is an error naming the line, not a silent
/// mis-parse.
pub fn parse_history_jsonl(text: &str) -> Result<Vec<HistoryRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("history line {}: {e}", i + 1))?;
        out.push(HistoryRecord::from_json(&v).map_err(|e| format!("history line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// The append-only history sink attached to [`crate::Telemetry`]: a
/// directory or none. Without one (the default) an append writes nothing;
/// `repro --history dir/` opens one, and every record appended after is
/// one line of `<dir>/history.jsonl`. The sink keeps no record itself:
/// the runner that appends a record holds it.
#[derive(Debug, Default)]
pub struct HistorySink {
    dir: Mutex<Option<PathBuf>>,
}

impl HistorySink {
    /// Append each later record to `<dir>/history.jsonl` (the directory is
    /// created if missing).
    pub fn enable_dir(&self, dir: impl AsRef<Path>) -> std::io::Result<()> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        *self.dir.lock() = Some(dir);
        Ok(())
    }

    /// Append one record as one JSON line (no-op without a directory).
    /// The lock is held while the line is written, so records appended
    /// from several threads stay whole lines. A failed write is reported
    /// to stderr rather than failing the query.
    pub fn append(&self, record: &HistoryRecord) {
        let dir = self.dir.lock();
        let Some(dir) = dir.as_ref() else {
            return;
        };
        use std::io::Write as _;
        let path = dir.join(HISTORY_FILE);
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{}", record.to_json()));
        if let Err(e) = written {
            eprintln!("history: cannot append to {}: {e}", path.display());
        }
    }
}

/// Read `<dir>/history.jsonl` back into records.
pub fn load_history_dir(dir: impl AsRef<Path>) -> Result<Vec<HistoryRecord>, String> {
    let path = dir.as_ref().join(HISTORY_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_history_jsonl(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HistoryRecord {
        HistoryRecord {
            label: "Q3".to_string(),
            deployment: "xdb".to_string(),
            sql_fnv: "00fe12ab34cd56ef".to_string(),
            fingerprint: "0123456789abcdef".to_string(),
            tasks: 3,
            result_digest: "fedcba9876543210".to_string(),
            query_id: 42,
            total_ms: 123.456,
            phases: vec![
                ("prep".to_string(), 15.0),
                ("lopt".to_string(), 10.0),
                ("ann".to_string(), 30.0),
                ("exec".to_string(), 68.456),
            ],
            consult_hits: 3,
            consult_misses: 1,
            consult_roundtrips: 1,
            crit_spans: 7,
            critical: vec![
                ("transfer".to_string(), "cdb->hdb".to_string(), 61.0),
                ("compute".to_string(), "hdb".to_string(), 40.0),
                ("transfer".to_string(), "vdb->hdb".to_string(), 12.5),
            ],
            edges: vec![EdgeObs {
                from: "cdb".to_string(),
                to: "hdb".to_string(),
                purpose: "inter_dbms_pipeline".to_string(),
                bytes: 1000,
                encoded_bytes: 400,
                rows: 10,
                codecs: vec![("dict".to_string(), 300), ("raw".to_string(), 100)],
            }],
            statements: vec![("cdb".to_string(), 12.5), ("hdb".to_string(), 30.25)],
            cost: crate::costmodel::CostObservation {
                decisions: vec![crate::costmodel::DecisionObs {
                    index: 0,
                    dbms: "hdb".to_string(),
                    consult_ms: 24.0,
                    predicted_ms: 61.5,
                    observed_ms: 55.25,
                    best_rejected_ms: 70.0,
                    regret_ms: -14.75,
                    candidates: vec![crate::costmodel::CandidateObs {
                        dbms: "hdb".to_string(),
                        left_move: "implicit".to_string(),
                        right_move: "implicit".to_string(),
                        predicted_ms: 61.5,
                        calib_factor: 1.0,
                        chosen: true,
                        ..Default::default()
                    }],
                    edges: vec![crate::costmodel::EdgeJoin {
                        from: "cdb".to_string(),
                        to: "hdb".to_string(),
                        movement: "implicit".to_string(),
                        engine: "hdb".to_string(),
                        codec: "dict".to_string(),
                        pred_rows: 10,
                        pred_bytes: 1000,
                        pred_wire_ms: 8.0,
                        obs_rows: 10,
                        obs_bytes: 1000,
                        obs_encoded_bytes: 400,
                        obs_wire_ms: 3.2,
                        matched: true,
                    }],
                }],
                pred_compute_ms: 30.0,
                obs_compute_ms: 42.75,
                pred_transfer_ms: 8.0,
                obs_transfer_ms: 3.2,
                consult_ms: 24.0,
            },
            learned_costs: true,
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let r = sample();
        let v = json::parse(&r.to_json()).unwrap();
        let back = HistoryRecord::from_json(&v).unwrap();
        assert_eq!(back, r);
        // The three fields schema v4 added survive the trip.
        assert_eq!(
            (
                back.tasks,
                back.consult_roundtrips,
                back.result_digest.as_str()
            ),
            (3, 1, "fedcba9876543210")
        );
        let cats = r.critical_by_category();
        assert_eq!(cats[0], ("transfer".to_string(), 73.5));
    }

    #[test]
    fn projections_read_phases_moved_bytes_and_codecs() {
        let edge = |purpose: &str, bytes, codec: &str| EdgeObs {
            purpose: purpose.to_string(),
            bytes,
            encoded_bytes: bytes / 2,
            codecs: vec![(codec.to_string(), bytes / 2)],
            ..EdgeObs::default()
        };
        let r = HistoryRecord {
            phases: vec![("transfer".to_string(), 12.5)],
            edges: vec![
                edge("InterDbmsPipeline", 1000, "dict"),
                edge("Materialization", 100, "raw"),
                edge("SubqueryResult", 10, "dict"),
                edge("ControlMessage", 4000, "raw"),
                edge("FinalResult", 2000, "raw"),
                edge("WorkerExchange", 6000, "raw"),
            ],
            ..HistoryRecord::default()
        };
        assert_eq!(r.phase_ms("transfer"), 12.5);
        assert_eq!(r.phase_ms("exec"), 0.0);
        assert_eq!(r.moved_bytes(), (1110, 555));
        let codecs: Vec<_> = r.codec_bytes().into_iter().collect();
        assert_eq!(codecs, [("dict", 505), ("raw", 6050)]);
    }

    #[test]
    fn checked_in_baseline_rewrites_byte_identically() {
        // The one writer reproduces every line of `BENCH_history/` from
        // what the strict reader made of it.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_history/",
            "history.jsonl"
        );
        let text = std::fs::read_to_string(path).unwrap();
        let records = parse_history_jsonl(&text).unwrap();
        assert!(!records.is_empty());
        for (line, r) in text.lines().zip(&records) {
            assert_eq!(r.to_json(), line);
        }
    }

    #[test]
    fn jsonl_reads_one_schema_version() {
        let line = sample().to_json();
        let ok = parse_history_jsonl(&format!("{line}\n")).unwrap();
        assert_eq!(ok.len(), 1);
        let version = format!("\"schema_version\":{HISTORY_SCHEMA_VERSION}");
        for other in [HISTORY_SCHEMA_VERSION + 1, HISTORY_SCHEMA_VERSION - 1, 1] {
            let stale = line.replace(&version, &format!("\"schema_version\":{other}"));
            let err = parse_history_jsonl(&format!("{line}\n{stale}\n")).unwrap_err();
            assert!(err.contains("history line 2"), "{err}");
            assert!(err.contains(&format!("schema_version {other}")), "{err}");
        }
        assert!(parse_history_jsonl("not json").is_err());
    }

    #[test]
    fn jsonl_rejects_a_record_missing_a_field_of_its_version() {
        let full = sample().to_json();
        for (damage, field) in [
            (",\"learned_costs\":true", "learned_costs"),
            (",\"tasks\":3", "tasks"),
            (",\"result_digest\":\"fedcba9876543210\"", "result_digest"),
            (",\"consult_roundtrips\":1", "consult_roundtrips"),
            (",\"exec_ms\":0", "exec_ms"),
            (",\"obs_encoded_bytes\":400", "obs_encoded_bytes"),
            (",\"ms\":40", "ms"),
        ] {
            let damaged = full.replacen(damage, "", 1);
            assert_ne!(damaged, full, "{damage}");
            let err = parse_history_jsonl(&damaged).unwrap_err();
            assert!(err.starts_with("history line 1: "), "{err}");
            assert!(err.contains(&format!("{field:?}")), "{err}");
        }
        let mistyped = full.replacen("\"bytes\":1000", "\"bytes\":\"12\"", 1);
        assert_ne!(mistyped, full);
        let err = parse_history_jsonl(&mistyped).unwrap_err();
        assert!(err.starts_with("history line 1: edges[0]: "), "{err}");
        assert!(err.contains("\"bytes\" is not a count"), "{err}");
    }

    #[test]
    fn a_sink_without_a_dir_writes_nothing() {
        let dir = std::env::temp_dir().join(format!(
            "xdb_history_off_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let sink = HistorySink::default();
        sink.append(&sample());
        assert!(load_history_dir(&dir).is_err(), "nothing was written");
        sink.enable_dir(&dir).unwrap();
        let unread = load_history_dir(&dir).unwrap_err();
        assert!(unread.contains("cannot read"), "{unread}");
        sink.append(&sample());
        assert_eq!(load_history_dir(&dir).unwrap(), [sample()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dir_sink_appends_jsonl() {
        let dir = std::env::temp_dir().join(format!(
            "xdb_history_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let sink = HistorySink::default();
        sink.enable_dir(&dir).unwrap();
        sink.append(&sample());
        sink.append(&sample());
        let loaded = load_history_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0], sample());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
