//! Source censuses: rules about the library's source text that no
//! behavioural test can see, read with `std::fs` so that `cargo test`
//! enforces them. Each but the thread and knob censuses reads only a
//! file's non-test part: everything before its first line starting with
//! `#[cfg(test)]`. Each census is a function of the text it reads, and a
//! second test shows it rejecting the code it forbids.

use std::path::Path;

/// The non-test part of a source file, by its path from the repository
/// root.
fn non_test_source(path: &str) -> String {
    let file = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    let text = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
    non_test(&text)
}

fn non_test(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines().take_while(|l| !l.starts_with("#[cfg(test)]")) {
        out.push_str(line);
        out.push('\n');
    }
    out
}

// ------------------------------------------------------- statistics census

const CATALOG: &str = "crates/engine/src/catalog.rs";

/// Statistics census: a stored column's statistics are computed on first
/// read and kept (DESIGN.md §18 "Engine catalogs"), so storing data
/// computes none. In non-test `catalog.rs` code the free function
/// `column_stats(` is called from one line, the per-column cell's
/// initializer, so that `TableData::new`, `create_table_from` and
/// `insert_rows` do not call it; `crates/engine/tests/props_stats.rs`
/// counts the cells a `CREATE TABLE AS` fills (none).
fn statistics_census(src: &str) -> Result<(), String> {
    let calls: Vec<&str> = src
        .lines()
        .filter(|l| !l.contains("fn column_stats(") && calls_free_column_stats(l))
        .collect();
    match calls[..] {
        [line] if line.contains("get_or_init(") => Ok(()),
        _ => Err(format!(
            "{CATALOG}: column statistics are computed outside their cell: {calls:?}"
        )),
    }
}

/// Whether `line` calls the free function `column_stats(`: no method call
/// (`.column_stats(`), no path (`::column_stats(`) and no longer name
/// (`all_column_stats(`).
fn calls_free_column_stats(line: &str) -> bool {
    line.match_indices("column_stats(").any(|(at, _)| {
        line[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !(c == '.' || c == ':' || c == '_' || c.is_alphanumeric()))
    })
}

#[test]
fn statistics_are_computed_only_in_their_cell() {
    statistics_census(&non_test_source(CATALOG)).unwrap();
}

#[test]
fn statistics_census_rejects_an_eager_computation() {
    let src = non_test_source(CATALOG);
    // A second call, as an eager `TableData::new` would make.
    let eager = format!("{src}\nfn eager(c: &Column) {{ let _ = column_stats(c); }}\n");
    assert!(statistics_census(&eager).is_err());
    // The one call moved out of the cell's initializer.
    let uncelled = src.replace("get_or_init(", "get_or_insert(");
    assert!(statistics_census(&uncelled).is_err());
    // Method calls and longer names are not the free function.
    assert!(!calls_free_column_stats("t.column_stats(column)"));
    assert!(!calls_free_column_stats("let m = all_column_stats(x);"));
    assert!(calls_free_column_stats("(column_stats(&c))"));
}

// ------------------------------------------------------------ probe census

const ANNOTATE: &str = "crates/core/src/annotate.rs";

/// Probe census: the consultation cache keys an EXPLAIN probe by its
/// structure, so a cache hit lowers and renders nothing (DESIGN.md §9). No
/// non-test line of `Annotator::price` may lower or render the probe.
fn probe_census(src: &str) -> Result<(), String> {
    let price = method_body(src, " fn price(")
        .ok_or_else(|| format!("{ANNOTATE}: no `fn price(` found"))?;
    match price
        .lines()
        .find(|l| l.contains("plan_to_select") || l.contains("render_select_string"))
    {
        Some(line) => Err(format!("{ANNOTATE}: price renders its probe: {line}")),
        None => Ok(()),
    }
}

/// The lines of the method whose signature line contains `signature`, up
/// to the line that closes an `impl` item (four spaces and `}`).
fn method_body<'a>(src: &'a str, signature: &str) -> Option<&'a str> {
    let start = src.find(signature)?;
    let start = src[..start].rfind('\n').map_or(0, |i| i + 1);
    let len = src[start..]
        .find("\n    }\n")
        .map_or(src.len() - start, |i| i + 6);
    Some(&src[start..start + len])
}

#[test]
fn price_neither_lowers_nor_renders_its_probe() {
    probe_census(&non_test_source(ANNOTATE)).unwrap();
}

#[test]
fn probe_census_rejects_a_rendered_probe() {
    let src = non_test_source(ANNOTATE);
    let price = method_body(&src, " fn price(").expect("`fn price(` is found");
    for call in ["plan_to_select(&plan)", "render_select_string(&select)"] {
        let rendering = price.replacen('{', &format!("{{\n        let _ = {call};"), 1);
        assert!(
            probe_census(&src.replace(price, &rendering)).is_err(),
            "{call}"
        );
    }
    // A call after `price` ends is not inside it.
    let after = format!("{src}\nfn later() {{ plan_to_select(&p); }}\n");
    assert!(probe_census(&after).is_ok());
    assert!(probe_census("fn other() {}\n").is_err());
}

// -------------------------------------------------- materialisation census

const EXEC: &str = "crates/engine/src/exec.rs";

/// What gathers rows: a column's gather, the appends of a concatenating
/// builder, and a whole relation's materialisation.
const GATHERS: [&str; 4] = [
    ".gather(",
    "append_gather(",
    "append_range(",
    ".materialize()",
];

/// Materialisation census: a relation flows between operators as stored
/// relations read through row selections, and each column an operator
/// reads is gathered by one method, `Part::column`, one column at a time
/// (DESIGN.md §10 "Late materialisation"). A relation's every column is
/// gathered only by `ExecRel::materialize`, which only `Execution::run`
/// calls: the boundary whose result feeds `CREATE TABLE AS`, the fetch
/// encoder and the root result. The morsels of a stream read whole are
/// laid end to end only by `Concat::append`. No other non-test line of
/// `exec.rs` gathers or materializes.
fn materialisation_census(src: &str) -> Result<(), String> {
    let column = method_body(src, "    fn column(&self, c: usize, pick: Option<&[u32]>)")
        .ok_or_else(|| format!("{EXEC}: no `Part::column` found"))?;
    let append = method_body(src, "    fn append(&self, many: &mut Laid, m: ExecRel)")
        .ok_or_else(|| format!("{EXEC}: no `Concat::append` found"))?;
    let run = method_body(src, "    pub fn run(&mut self, plan: &LogicalPlan)")
        .ok_or_else(|| format!("{EXEC}: no `Execution::run` found"))?;
    if !run.contains(".materialize()") {
        return Err(format!("{EXEC}: `Execution::run` does not materialize"));
    }
    let rest = [column, append, run]
        .iter()
        .fold(src.to_string(), |rest, body| rest.replacen(body, "", 1));
    match rest.lines().find(|l| GATHERS.iter().any(|g| l.contains(g))) {
        Some(line) => Err(format!(
            "{EXEC}: gathers outside `Part::column`, `Concat::append` and `run`: {line}"
        )),
        None => Ok(()),
    }
}

#[test]
fn columns_are_gathered_only_by_their_reader_and_at_the_run_boundary() {
    materialisation_census(&non_test_source(EXEC)).unwrap();
}

#[test]
fn materialisation_census_rejects_a_filter_that_gathers() {
    let src = non_test_source(EXEC);
    let filter = method_body(&src, "    fn filter(").expect("`Execution::filter` is found");
    let arm = "let sel = pred.select(&rel)?;";
    assert!(filter.contains(arm), "the filter's selection is found");
    for gathering in [
        "let rel = ExecRel::owned(rel.materialize());",
        "let cols: Vec<Column> = rel.whole().unwrap().columns().iter().map(|c| c.gather(&sel)).collect();",
        "let mut out = Column::empty_of(DataType::Int); out.append_gather(&rel.column(0), &sel);",
    ] {
        let gathers = filter.replacen(arm, &format!("{arm}\n        {gathering}"), 1);
        let src = src.replacen(filter, &gathers, 1);
        assert!(materialisation_census(&src).is_err(), "{gathering}");
    }
    // `run` materializes; a `run` that does not is caught too.
    let lazy = src.replacen("self.run_rel(plan)?.materialize()", "todo!()", 1);
    assert!(materialisation_census(&lazy).is_err());
    assert!(materialisation_census("fn other() {}\n").is_err());
}

// ---------------------------------------------------------- one-join census

/// The functions of `exec.rs` that evaluate an expression a row at a time:
/// the fallbacks of the vectorized kernels, for what those decline.
const ROW_AT_A_TIME: [&str; 2] = ["fn filter_selection(", "fn expr_column("];

/// The functions of `exec.rs` that walk a join's chains.
const CHAIN_WALKS: [&str; 2] = ["fn build_chain<", "fn probe_chain<"];

/// One-join census: every join, inner, cross, semi or anti, is the one
/// hash join, and its residual runs vectorized over blocks of candidate
/// pairs (DESIGN.md §10 "One join"). So no non-test code line of `exec.rs`
/// but the row-at-a-time fallbacks `filter_selection` and `expr_column`
/// evaluates an expression (`eval_predicate`, `.eval(`), and only
/// `build_chain` and `probe_chain` touch a chain (`next[`). Comment lines
/// are not code.
fn one_join_census(src: &str) -> Result<(), String> {
    let rules: [(&[&str], &[&str]); 2] = [
        (&ROW_AT_A_TIME, &["eval_predicate", ".eval("]),
        (&CHAIN_WALKS, &["next["]),
    ];
    for (allowed, forbidden) in rules {
        let mut rest = src.to_string();
        for signature in allowed {
            let body =
                fn_body(src, signature).ok_or_else(|| format!("{EXEC}: no `{signature}` found"))?;
            rest = rest.replacen(body, "", 1);
        }
        let code = rest.lines().filter(|l| !l.trim_start().starts_with("//"));
        if let Some(line) = code
            .into_iter()
            .find(|l| forbidden.iter().any(|f| l.contains(f)))
        {
            return Err(format!("{EXEC}: outside {allowed:?}: {line}"));
        }
    }
    Ok(())
}

/// The lines of the free function whose signature line contains
/// `signature`, up to the line that closes it (`}` in the first column).
fn fn_body<'a>(src: &'a str, signature: &str) -> Option<&'a str> {
    let start = src.find(signature)?;
    let start = src[..start].rfind('\n').map_or(0, |i| i + 1);
    let len = src[start..]
        .find("\n}\n")
        .map_or(src.len() - start, |i| i + 2);
    Some(&src[start..start + len])
}

#[test]
fn every_join_is_the_one_hash_join() {
    one_join_census(&non_test_source(EXEC)).unwrap();
}

#[test]
fn one_join_census_rejects_a_row_wise_residual_and_a_second_chain_walk() {
    let src = non_test_source(EXEC);
    // The semi join's own residual, a joined row at a time.
    let row_wise = "let mut residual_fn = |li: usize, ri: usize| -> Result<bool> {\n        \
                    let mut combined = lrel.row(li);\n        combined.extend(rrel.row(ri));\n        \
                    res.eval_predicate(&combined)\n    };";
    // The semi join's own probe, walking a chain of its own.
    let walk = "loop {\n        if f(i, j as usize)? { break; }\n        \
                j = next[j as usize];\n        if j == NO_NEXT { break; }\n    }";
    for forbidden in [row_wise, walk, "let v = e.eval(&row)?;"] {
        let extra = format!("{src}\nfn semi_matches() {{\n    {forbidden}\n}}\n");
        assert!(one_join_census(&extra).is_err(), "{forbidden}");
    }
    // Inside the allowed functions, the same lines are theirs.
    let probe = fn_body(&src, "fn probe_chain<").expect("`probe_chain` is found");
    let inside = probe.replacen('{', "{\n    let _ = next[0];", 1);
    assert!(one_join_census(&src.replacen(probe, &inside, 1)).is_ok());
    // A comment that names a chain is not a walk.
    assert!(one_join_census(&format!("{src}\n/// `next[i]` follows row `i`.\n")).is_ok());
    assert!(one_join_census("fn other() {}\n").is_err());
}

// ------------------------------------------------------- plan-once census

const CORE_SRC: &str = "crates/core/src";
const CLIENT: &str = "crates/core/src/client.rs";

/// The middleware's front end: what the logical plan cache saves.
const FRONT_END: [&str; 3] = ["parse_statement(", "bind_select(", "optimize("];

/// The logical plan cache's fill path: the methods of `client.rs` that
/// parse a text, and bind and optimise it into the kept plan.
const FILL_PATH: [&str; 2] = ["    fn parse_query(", "    fn fill_plan("];

/// Plan-once census: the middleware parses, binds and optimises a query
/// text only to fill the catalog's logical plan cache (DESIGN.md §18
/// "Logical plan cache"), so a repeated text runs none of it. No non-test
/// code line of `crates/core/src` outside `Xdb::parse_query` and
/// `Xdb::fill_plan` calls `parse_statement`, `bind_select` or `optimize`.
/// Comment lines are not code.
fn plan_once_census(files: &[(String, String)]) -> Result<(), String> {
    let mut fill = 0;
    for (path, src) in files {
        let mut rest = src.clone();
        if path == CLIENT {
            for signature in FILL_PATH {
                let body = method_body(src, signature)
                    .ok_or_else(|| format!("{CLIENT}: no `{signature}` found"))?;
                rest = rest.replacen(body, "", 1);
                fill += 1;
            }
        }
        let code = rest.lines().filter(|l| !l.trim_start().starts_with("//"));
        if let Some(line) = code
            .into_iter()
            .find(|l| FRONT_END.iter().any(|f| l.contains(f)))
        {
            return Err(format!("{path}: outside the fill path: {line}"));
        }
    }
    match fill {
        0 => Err(format!("{CLIENT} was not read")),
        _ => Ok(()),
    }
}

/// The non-test part of every source file of `crates/core/src`.
fn core_sources() -> Vec<(String, String)> {
    sources_of(CORE_SRC)
}

/// The non-test part of every source file of the directory `src_dir`.
fn sources_of(src_dir: &str) -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(src_dir);
    let mut paths: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".rs"))
        .map(|name| format!("{src_dir}/{name}"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let src = non_test_source(&path);
            (path, src)
        })
        .collect()
}

#[test]
fn the_middleware_plans_a_text_once() {
    plan_once_census(&core_sources()).unwrap();
}

#[test]
fn plan_once_census_rejects_a_stray_bind() {
    let files = core_sources();
    let stray = "    let bound = bind_select(&select, self.catalog)?;";
    // A bind in the planning path, outside the fill path.
    let mut bound = files.clone();
    let client = bound.iter_mut().find(|(p, _)| p == CLIENT).unwrap();
    let plan = method_body(&client.1, "    pub(crate) fn plan_internal(")
        .expect("`plan_internal` is found")
        .to_string();
    let rebinding = plan.replacen('{', &format!("{{\n{stray}"), 1);
    client.1 = client.1.replacen(&plan, &rebinding, 1);
    assert!(plan_once_census(&bound).is_err());
    // And one in another file.
    let mut elsewhere = files.clone();
    elsewhere[0]
        .1
        .push_str(&format!("\nfn replan() {{\n{stray}\n}}\n"));
    assert!(plan_once_census(&elsewhere).is_err());
    // Inside the fill path the same line is its own.
    let mut inside = files.clone();
    let client = inside.iter_mut().find(|(p, _)| p == CLIENT).unwrap();
    let fill = method_body(&client.1, FILL_PATH[1]).unwrap().to_string();
    let rebinding = fill.replacen('{', &format!("{{\n{stray}"), 1);
    client.1 = client.1.replacen(&fill, &rebinding, 1);
    assert!(plan_once_census(&inside).is_ok());
    // A comment that names the binder is not a call.
    let mut comment = files;
    comment[0]
        .1
        .push_str("\n/// `bind_select(select)` resolves names.\n");
    assert!(plan_once_census(&comment).is_ok());
    assert!(plan_once_census(&[]).is_err());
}

// ----------------------------------------------------------- ledger census

const BASELINES_SRC: &str = "crates/baselines/src";

/// What reads a query's state back from the shared ledger: where it
/// stands, and its tail from there.
const LEDGER_READS: [&str; 2] = ["ledger.len()", "ledger.since("];

/// Ledger census: a query never reads its state back from the shared
/// ledger. Every statement returns the transfers it caused, and XDB and
/// the baselines assemble a query's own from its statements (DESIGN.md §6
/// "What a client shares, what it owns"), so no non-test code line of
/// `crates/core/src` or `crates/baselines/src` asks where the ledger
/// stands (`ledger.len()`) or reads its tail (`ledger.since(`). Comment
/// lines are not code.
fn ledger_census(files: &[(String, String)]) -> Result<(), String> {
    match first_code_line(files, &LEDGER_READS)? {
        Some((path, line)) => Err(format!("{path}: reads the shared ledger back: {line}")),
        None => Ok(()),
    }
}

/// The path and the first code line (comment lines are not code) of
/// `files` that contains one of `needles`; an error when no file was read.
fn first_code_line<'a>(
    files: &'a [(String, String)],
    needles: &[&str],
) -> Result<Option<(&'a str, &'a str)>, String> {
    if files.is_empty() {
        return Err("no source was read".to_string());
    }
    Ok(files.iter().find_map(|(path, src)| {
        let mut code = src.lines().filter(|l| !l.trim_start().starts_with("//"));
        let line = code.find(|l| needles.iter().any(|n| l.contains(n)))?;
        Some((path.as_str(), line))
    }))
}

/// The non-test part of every source file of the crates that run queries.
fn query_sources() -> Vec<(String, String)> {
    let mut files = core_sources();
    files.extend(sources_of(BASELINES_SRC));
    files
}

#[test]
fn a_query_never_reads_its_state_back_from_the_shared_ledger() {
    ledger_census(&query_sources()).unwrap();
}

#[test]
fn ledger_census_rejects_a_mark_and_a_tail_read() {
    let files = query_sources();
    // A mark at the start of the stage that runs a planned query.
    let mut marked = files.clone();
    let client = marked.iter_mut().find(|(p, _)| p == CLIENT).unwrap();
    let run = method_body(&client.1, "    pub(crate) fn run_planned(")
        .expect("`run_planned` is found")
        .to_string();
    let mark = "        let ledger_mark = self.cluster.ledger.len();";
    let marking = run.replacen('{', &format!("{{\n{mark}"), 1);
    client.1 = client.1.replacen(&run, &marking, 1);
    assert!(ledger_census(&marked).is_err());
    // A tail read in a baseline.
    let mut tail = files.clone();
    let baseline = tail.iter_mut().find(|(p, _)| p.starts_with(BASELINES_SRC));
    let baseline = baseline.expect("a baseline source is read");
    let read = "\nfn edges(c: &Cluster) -> Vec<Transfer> {\n    c.ledger.since(0)\n}\n";
    baseline.1.push_str(read);
    assert!(ledger_census(&tail).is_err());
    // A comment that names a mark is not a read.
    let mut comment = files;
    comment[0].1.push_str("\n// `ledger.len()` was the mark.\n");
    assert!(ledger_census(&comment).is_ok());
    assert!(ledger_census(&[]).is_err());
}

// ---------------------------------------------------------- history census

/// History census: a submit returns its own history record, and the runner
/// that holds it stamps its label and appends it (DESIGN.md §14 "Query
/// history store"), so no non-test code line of `crates/core/src` or
/// `crates/baselines/src` writes or reads the history sink
/// (`.history.`). Comment lines are not code.
fn history_census(files: &[(String, String)]) -> Result<(), String> {
    match first_code_line(files, &[".history."])? {
        Some((path, line)) => Err(format!("{path}: touches the history sink: {line}")),
        None => Ok(()),
    }
}

#[test]
fn a_query_neither_writes_nor_reads_the_history_sink() {
    history_census(&query_sources()).unwrap();
}

#[test]
fn history_census_rejects_an_append_and_a_label_read() {
    let files = query_sources();
    // An append at the start of `Xdb::submit`.
    let mut appended = files.clone();
    let client = appended.iter_mut().find(|(p, _)| p == CLIENT).unwrap();
    let submit = method_body(&client.1, "    pub fn submit(")
        .expect("`Xdb::submit` is found")
        .to_string();
    let append = "        self.cluster.telemetry().history.append(&HistoryRecord::default());";
    let appending = submit.replacen('{', &format!("{{\n{append}"), 1);
    client.1 = client.1.replacen(&submit, &appending, 1);
    assert!(history_census(&appended).is_err());
    // A label read in a baseline.
    let mut labelled = files.clone();
    let baseline = labelled
        .iter_mut()
        .find(|(p, _)| p.starts_with(BASELINES_SRC));
    let baseline = baseline.expect("a baseline source is read");
    let read = "\nfn label(c: &Cluster) -> String {\n    c.telemetry().history.label()\n}\n";
    baseline.1.push_str(read);
    assert!(history_census(&labelled).is_err());
    // A comment that names the sink is not a use of it.
    let mut comment = files;
    comment[0]
        .1
        .push_str("\n// `telemetry.history.append(record)` was the write.\n");
    assert!(history_census(&comment).is_ok());
    assert!(history_census(&[]).is_err());
}

// ------------------------------------------------------------- copy census

const LEXER_AND_PARSER: [&str; 2] = ["crates/sql/src/lexer.rs", "crates/sql/src/parser.rs"];

/// Copy census: the lexer and the parser compare a word where it lies in
/// the statement and copy it once, into the AST node that keeps it
/// (DESIGN.md §18 "What is interned, and by whom"). No upper-cased copy to
/// compare against and no cloned token may come back into their non-test
/// code.
fn copy_census(path: &str, src: &str) -> Result<(), String> {
    match src
        .lines()
        .find(|l| l.contains("to_ascii_uppercase") || l.contains(".clone()"))
    {
        Some(line) => Err(format!(
            "{path}: a name is copied in order to be compared: {line}"
        )),
        None => Ok(()),
    }
}

#[test]
fn the_lexer_and_the_parser_copy_no_name_to_compare_it() {
    for path in LEXER_AND_PARSER {
        copy_census(path, &non_test_source(path)).unwrap();
    }
}

#[test]
fn copy_census_rejects_a_copied_name() {
    for path in LEXER_AND_PARSER {
        let src = non_test_source(path);
        for copy in [
            "let up = word.to_ascii_uppercase();",
            "let t = tok.clone();",
        ] {
            let copied = format!("{src}\nfn f() {{ {copy} }}\n");
            assert!(copy_census(path, &copied).is_err(), "{path}: {copy}");
        }
    }
    // Test code may copy: the census reads only what precedes it.
    let with_tests = "fn f() {}\n#[cfg(test)]\nmod tests { fn g() { x.clone(); } }\n";
    assert!(copy_census("t.rs", &non_test(with_tests)).is_ok());
}

// -------------------------------------------------------- read-path census

/// The codec itself, the one file that may decode a whole frame.
const CODEC: &str = "crates/net/src/wire.rs";

/// Read-path census: an edge reaches its consumer through the one
/// `Cluster::fetch`, which decodes it morsel by morsel; a whole read is its
/// one-morsel case (DESIGN.md §10 "One input protocol"). Outside the codec
/// itself, no non-test library code may decode a frame in one piece.
fn read_path_census(path: &str, src: &str) -> Result<(), String> {
    if path == CODEC {
        return Ok(());
    }
    match src
        .lines()
        .find(|l| l.contains("wire::decode") || l.contains("decode_chunked"))
    {
        Some(line) => Err(format!(
            "{path}: an edge is decoded outside Cluster::fetch: {line}"
        )),
        None => Ok(()),
    }
}

/// Every `.rs` file under `crates/*/src`, by its path from the repository
/// root.
fn library_sources() -> Vec<String> {
    fn walk(dir: &Path, out: &mut Vec<String>) {
        let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        for entry in entries {
            let path = entry.expect("a directory entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|x| x == "rs") {
                out.push(path.display().to_string());
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ is readable");
    for krate in crates {
        let src = krate.expect("a directory entry").path().join("src");
        if src.is_dir() {
            walk(&src, &mut out);
        }
    }
    let prefix = format!("{}/", root.display());
    out.iter_mut().for_each(|p| *p = p.replacen(&prefix, "", 1));
    out.sort();
    out
}

#[test]
fn edges_are_decoded_only_inside_cluster_fetch() {
    let sources = library_sources();
    assert!(sources.iter().any(|p| p == CODEC), "{CODEC} is found");
    assert!(sources.len() > 50, "{} library sources", sources.len());
    for path in &sources {
        read_path_census(path, &non_test_source(path)).unwrap();
    }
}

#[test]
fn read_path_census_rejects_a_whole_frame_decode() {
    let cluster = "crates/engine/src/cluster.rs";
    let src = non_test_source(cluster);
    for decode in ["wire::decode(&enc)", "wire::decode_chunked(&enc, 4096)"] {
        let whole = format!("{src}\nfn f() {{ let _ = {decode}; }}\n");
        assert!(read_path_census(cluster, &whole).is_err(), "{decode}");
        // The codec decodes its own frames.
        assert!(read_path_census(CODEC, &whole).is_ok());
    }
}

// ------------------------------------------------------------- miss census

/// Miss census: a test for a name asks `PlanSchema::lookup` (or the
/// binder's `resolves`), which builds no text; `resolve` and
/// `validate_expr` name the column in an error and are for callers that
/// return it (DESIGN.md §18 "What is interned, and by whom"). No non-test
/// library code may build an error message only to throw it away.
fn miss_census(path: &str, src: &str) -> Result<(), String> {
    match src.lines().find(|l| throws_away_a_miss(l)) {
        Some(line) => Err(format!(
            "{path}: a lookup builds an error message it throws away: {line}"
        )),
        None => Ok(()),
    }
}

/// Whether `line` asks a `.resolve(`, `validate_expr(` or `.execute(`
/// call only whether it succeeded: `).is_ok()` or `).is_err()` follows the
/// call before the statement's `;`. (A statement that fails is reported by
/// the one teardown, see the teardown census below.)
fn throws_away_a_miss(line: &str) -> bool {
    [".resolve(", "validate_expr(", ".execute("]
        .iter()
        .any(|call| {
            line.match_indices(call).any(|(at, _)| {
                let rest = &line[at + call.len()..];
                let statement = &rest[..rest.find(';').unwrap_or(rest.len())];
                statement.contains(").is_ok()") || statement.contains(").is_err()")
            })
        })
}

#[test]
fn no_lookup_builds_a_message_it_throws_away() {
    for path in &library_sources() {
        miss_census(path, &non_test_source(path)).unwrap();
    }
}

#[test]
fn miss_census_rejects_a_thrown_away_message() {
    let bind = "crates/sql/src/bind.rs";
    let src = non_test_source(bind);
    for miss in [
        "schema.resolve(q, &name).is_ok()",
        "schema.resolve(None, name).is_err()",
        "validate_expr(&e, &schema).is_ok()",
        "if cluster.execute(node.as_str(), sql).is_ok() { dropped += 1; }",
    ] {
        let thrown = format!("{src}\nfn f() -> bool {{ {miss} }}\n");
        assert!(miss_census(bind, &thrown).is_err(), "{miss}");
    }
    // A result that is returned, or a test after the statement ends, is no
    // miss thrown away.
    assert!(miss_census(bind, "let c = s.resolve(q, n)?; done.is_ok();\n").is_ok());
    assert!(miss_census(bind, "let r = s.resolve(q, n);\n").is_ok());
}

// ---------------------------------------------------------- teardown census

const CLUSTER: &str = "crates/engine/src/cluster.rs";

/// Teardown census: the short-lived objects of a query, a folding window
/// and a baseline's temp tables are dropped by one loop,
/// `Cluster::teardown`, which returns the drops that failed (DESIGN.md §6
/// "Failure rule"). No other non-test library code runs a statement and
/// goes on when it fails: no `let _ =`, `if let Err(`/`Ok(`, `.ok()`,
/// `.is_ok()` or `.is_err()` around an `.execute(`, `.execute_with(` or
/// `.execute_sql(` call, also across lines.
fn teardown_census(path: &str, src: &str) -> Result<(), String> {
    let mut src = src.to_string();
    if path == CLUSTER {
        let teardown = method_body(&src, " fn teardown<")
            .ok_or_else(|| format!("{CLUSTER}: no `fn teardown<` found"))?;
        src = src.replace(teardown, "");
    }
    match src
        .split([';', '{', '}'])
        .find(|statement| tolerates_a_failure(statement))
    {
        Some(statement) => Err(format!(
            "{path}: a statement's failure is dropped outside Cluster::teardown: {}",
            statement.trim()
        )),
        None => Ok(()),
    }
}

fn tolerates_a_failure(statement: &str) -> bool {
    let runs = [".execute(", ".execute_with(", ".execute_sql("]
        .iter()
        .any(|call| statement.contains(call));
    let drops = [
        "let _ =",
        "if let Err(",
        "if let Ok(",
        ").ok()",
        ").is_ok()",
        ").is_err()",
    ];
    runs && drops.iter().any(|d| statement.contains(d))
}

#[test]
fn one_teardown_drops_what_a_failure_left() {
    for path in &library_sources() {
        teardown_census(path, &non_test_source(path)).unwrap();
    }
}

#[test]
fn teardown_census_rejects_a_second_teardown_loop() {
    let sclera = "crates/baselines/src/sclera.rs";
    let src = non_test_source(sclera);
    for thrown in [
        "let _ = self\n            .cluster\n            .execute(node.as_str(), &drop);",
        "if let Err(e) = cluster.execute(node, sql) { failed.push(e); }",
        "cluster.execute_with(node, sql, opts).ok();",
        "if cluster.execute(node.as_str(), sql).is_ok() { dropped += 1; }",
    ] {
        let looped = format!("{src}\nfn f() {{ for (node, sql) in drops {{ {thrown} }} }}\n");
        assert!(teardown_census(sclera, &looped).is_err(), "{thrown}");
    }
    // The one teardown may; a second one in the cluster may not; a
    // statement whose error is returned is no failure dropped.
    let cluster = non_test_source(CLUSTER);
    assert!(teardown_census(CLUSTER, &cluster).is_ok());
    let second = format!("{cluster}\nfn g() {{ let _ = c.execute(n, s); }}\n");
    assert!(teardown_census(CLUSTER, &second).is_err());
    assert!(teardown_census(sclera, "let r = c.execute(n, s)?;\n").is_ok());
}

// ---------------------------------------------------- knob and environment

/// Knob census: nothing reads an `XDB_*` variable (README "Environment
/// variables"). Neither the library and `repro` sources (their tests
/// included), the scripts nor a row of README's tables names one, so that
/// no knob gets in unnoticed.
fn knob_census(path: &str, text: &str) -> Result<(), String> {
    let named = |line: &str| {
        line.match_indices("XDB_").any(|(at, _)| {
            let next = line[at + 4..].chars().next();
            next.is_some_and(|c| c.is_ascii_uppercase() || c == '_')
        })
    };
    let row = |line: &str| path == "README.md" && line.starts_with("| `XDB_");
    match text.lines().find(|l| {
        if path == "README.md" {
            row(l)
        } else {
            named(l)
        }
    }) {
        Some(line) => Err(format!("{path}: an XDB_* variable is named: {line}")),
        None => Ok(()),
    }
}

/// Every file under `scripts/`, by its path from the repository root.
fn scripts() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let entries = std::fs::read_dir(root.join("scripts")).expect("scripts/ is readable");
    let mut out: Vec<String> = entries
        .map(|e| {
            format!(
                "scripts/{}",
                e.expect("an entry").file_name().to_string_lossy()
            )
        })
        .collect();
    out.sort();
    out
}

fn whole_file(path: &str) -> String {
    let file = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{}: {e}", file.display()))
}

#[test]
fn no_xdb_variable_is_named() {
    let mut paths = library_sources();
    paths.extend(scripts());
    paths.push("README.md".to_string());
    for path in &paths {
        knob_census(path, &whole_file(path)).unwrap();
    }
}

#[test]
fn knob_census_rejects_a_named_variable() {
    let knob = ["XDB", "CHUNK_ROWS"].join("_");
    let read = format!("let rows = std::env::var(\"{knob}\");\n");
    assert!(knob_census("crates/engine/src/cluster.rs", &read).is_err());
    assert!(knob_census("scripts/tier1.sh", &format!("export {knob}=1\n")).is_err());
    let row = format!("| `{knob}` | chunk rows |\n");
    assert!(knob_census("README.md", &row).is_err());
    // A prose mention in README is no table row; `XDB_` alone names none.
    assert!(knob_census("README.md", &format!("no `{knob}` is read\n")).is_ok());
    assert!(knob_census("scripts/x.sh", "echo XDB_\n").is_ok());
}

/// The library crates: the environment census reads their `src`.
const LIBRARY_CRATES: [&str; 7] = ["sql", "engine", "net", "obs", "core", "baselines", "tpch"];

/// Environment census: the library is configured through its options
/// alone (README "Environment variables"). No non-test code of the library
/// crates reads the environment, directly or through a helper.
fn environment_census(path: &str, src: &str) -> Result<(), String> {
    match src
        .lines()
        .find(|l| l.contains("std::env") || l.contains("env_number("))
    {
        Some(line) => Err(format!(
            "{path}: library code reads the environment: {line}"
        )),
        None => Ok(()),
    }
}

#[test]
fn the_library_reads_no_environment() {
    let library: Vec<String> = library_sources()
        .into_iter()
        .filter(|p| {
            LIBRARY_CRATES
                .iter()
                .any(|c| p.starts_with(&format!("crates/{c}/")))
        })
        .collect();
    assert!(library.iter().any(|p| p == CLUSTER), "{CLUSTER} is read");
    for path in &library {
        environment_census(path, &non_test_source(path)).unwrap();
    }
}

#[test]
fn environment_census_rejects_a_read() {
    let src = non_test_source(CLUSTER);
    for read in [
        "let v = std::env::var(\"CHUNK\");",
        "let rows = env_number(\"CHUNK\", 4096);",
    ] {
        let reading = format!("{src}\nfn f() {{ {read} }}\n");
        assert!(environment_census(CLUSTER, &reading).is_err(), "{read}");
    }
    // A test module may read it.
    let in_tests = format!("{src}\n#[cfg(test)]\nmod tests {{ use std::env; }}\n");
    assert!(environment_census(CLUSTER, &non_test(&in_tests)).is_ok());
}

/// Dependency census: the parser logs nothing (DESIGN.md §11 "Telemetry
/// handle", "Parse failures"), so the SQL crate depends on no telemetry.
fn parser_dependency_census(manifest: &str) -> Result<(), String> {
    match manifest.lines().find(|l| l.contains("xdb-obs")) {
        Some(line) => Err(format!(
            "crates/sql/Cargo.toml: the parser depends on the telemetry crate: {line}"
        )),
        None => Ok(()),
    }
}

#[test]
fn the_parser_depends_on_no_telemetry() {
    parser_dependency_census(&whole_file("crates/sql/Cargo.toml")).unwrap();
}

#[test]
fn parser_dependency_census_rejects_the_telemetry_crate() {
    let manifest = whole_file("crates/sql/Cargo.toml");
    let logging = format!("{manifest}\nxdb-obs.workspace = true\n");
    assert!(parser_dependency_census(&logging).is_err());
}

// ----------------------------------------------------------- thread census

/// The crates that stand in for dependencies; the thread and static
/// censuses do not count them.
const SHIMS: [&str; 3] = [
    "crates/parking_lot/",
    "crates/criterion/",
    "crates/proptest/",
];

/// Thread census: nothing in the library starts a thread (DESIGN.md §6
/// "Threads"). A server's parallelism comes from its concurrent clients,
/// and every streamed edge is decoded on the thread that consumes it. No
/// library file, its tests included, calls `thread::spawn` or
/// `thread::scope`.
fn thread_census(path: &str, src: &str) -> Result<(), String> {
    match src
        .lines()
        .find(|l| l.contains("thread::spawn") || l.contains("thread::scope"))
    {
        Some(line) => Err(format!("{path}: library code starts a thread: {line}")),
        None => Ok(()),
    }
}

/// Every library source but the shims', by its path from the repository
/// root.
fn counted_sources() -> Vec<String> {
    let mut sources = library_sources();
    sources.retain(|p| !SHIMS.iter().any(|shim| p.starts_with(shim)));
    sources
}

#[test]
fn the_library_starts_no_thread() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for path in &counted_sources() {
        let src = std::fs::read_to_string(root.join(path)).expect("a readable source");
        thread_census(path, &src).unwrap();
    }
}

#[test]
fn thread_census_rejects_a_spawned_thread() {
    let cluster = "crates/engine/src/cluster.rs";
    let src = non_test_source(cluster);
    for spawn in [
        "std::thread::spawn(move || decode(enc))",
        "std::thread::scope(|s| { s.spawn(f); })",
    ] {
        let threaded = format!("{src}\nfn f() {{ {spawn}; }}\n");
        assert!(thread_census(cluster, &threaded).is_err(), "{spawn}");
    }
    // A test module counts too.
    let in_tests =
        format!("{src}\n#[cfg(test)]\nmod tests {{ fn t() {{ std::thread::spawn(f); }} }}\n");
    assert!(thread_census(cluster, &in_tests).is_err());
}

// ----------------------------------------------------------- static census

/// The `static` items the library's non-test code may hold.
const STATICS: [&str; 1] = ["crates/sql/src/algebra.rs EMPTY"];

/// Static census: a federation owns its telemetry, its query ids and its
/// tracing (DESIGN.md §11 "Telemetry handle"), so no process-wide state may
/// stand in for them. The `static` items of non-test library code (shim
/// crates excepted, `repro`'s crate included) are exactly `PlanSchema`'s
/// empty schema, as `path NAME` lines.
fn statics(path: &str, src: &str) -> Vec<String> {
    src.lines()
        .filter_map(|line| {
            let item = line.trim_start();
            let item = match item.strip_prefix("pub") {
                Some(rest) => match rest.strip_prefix('(') {
                    Some(scoped) => scoped.split_once(") ")?.1,
                    None => rest.strip_prefix(' ')?,
                },
                None => item,
            };
            let name = item.strip_prefix("static ")?;
            let end = name
                .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(name.len());
            let name = &name[..end];
            name.starts_with(|c: char| c.is_ascii_uppercase() || c == '_')
                .then(|| format!("{path} {name}"))
        })
        .collect()
}

fn static_census(sources: &[(String, String)]) -> Result<(), String> {
    let found: Vec<String> = sources.iter().flat_map(|(p, s)| statics(p, s)).collect();
    if found == STATICS {
        Ok(())
    } else {
        Err(format!(
            "the library's statics are {found:?}, not {STATICS:?}"
        ))
    }
}

fn counted_non_test_sources() -> Vec<(String, String)> {
    counted_sources()
        .into_iter()
        .map(|p| {
            let src = non_test_source(&p);
            (p, src)
        })
        .collect()
}

#[test]
fn the_library_holds_no_process_wide_state() {
    static_census(&counted_non_test_sources()).unwrap();
}

#[test]
fn static_census_rejects_a_process_wide_pool() {
    let sources = counted_non_test_sources();
    for item in [
        "static POOL: OnceLock<Pool> = OnceLock::new();",
        "    pub(crate) static NEXT_ID: AtomicU64 = AtomicU64::new(1);",
        "pub static PARALLELISM: usize = 1;",
    ] {
        let mut pooled = sources.clone();
        pooled[0].1.push_str(&format!("{item}\n"));
        assert!(static_census(&pooled).is_err(), "{item}");
    }
    // A lifetime is no static item; a test module is not read.
    assert!(statics("a.rs", "fn f(s: &'static str) {}\n").is_empty());
    let with_tests = "#[cfg(test)]\nmod tests { static SEEN: u8 = 0; }\n";
    assert!(statics("a.rs", &non_test(with_tests)).is_empty());
}
