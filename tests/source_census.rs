//! Source censuses: rules about the library's source text that no
//! behavioural test can see, read with `std::fs` so that `cargo test`
//! enforces them. Like the censuses left in `scripts/tier1.sh`, each reads
//! only a file's non-test part: everything before its first line starting
//! with `#[cfg(test)]`. Each census is a function of the text it reads, and
//! a second test shows it rejecting the code it forbids.

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
