//! Seeded mutation fuzz of the text round trip: small edits of valid
//! statements must never panic the lexer or parser, and whatever still
//! parses must render and re-parse to an equal AST in every dialect.

use proptest::test_runner::TestRng;
use xdb_sql::display::{render_statement, Dialect};
use xdb_sql::parse_statement;

const SEEDS: &[&str] = &[
    "SELECT a, b AS bee FROM t WHERE a > 1 ORDER BY b DESC LIMIT 5",
    "SELECT DISTINCT t.a, u.* FROM t JOIN u ON t.a = u.a INNER JOIN v ON u.b = v.b",
    "SELECT x FROM (SELECT a AS x FROM t WHERE a > 0) AS d, \"Weird Col\" w",
    "SELECT o_year, sum(CASE WHEN nation = 'BRAZIL' THEN volume ELSE 0 END) / sum(volume) \
     FROM all_nations GROUP BY o_year HAVING count(*) > 1",
    "SELECT EXTRACT(YEAR FROM d), CAST(x AS VARCHAR(10)), d + INTERVAL '3' MONTH FROM t",
    "SELECT a FROM t WHERE d BETWEEN DATE '1995-01-01' AND DATE '1996-12-31' \
     AND p NOT LIKE '%it''s%' AND k IN (1, 2.5, -3) AND n IS NOT NULL",
    "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.a = t.a) \
     AND b NOT IN (SELECT b FROM v) OR NOT (a = 1 AND TRUE)",
    "SELECT count(DISTINCT a), -a * (b - c) / d % 2, a || 'x', \"select\", `from` FROM t",
    "EXPLAIN SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue \
     FROM customer, orders, lineitem WHERE c_custkey = o_custkey GROUP BY l_orderkey",
    "CREATE OR REPLACE VIEW xdb_q7_t2 AS SELECT n1.n_name AS supp_nation FROM nation n1",
    "CREATE TABLE IF NOT EXISTS t (a BIGINT, b VARCHAR(25), c DATE, d DOUBLE, e BOOLEAN)",
    "CREATE TABLE m AS SELECT * FROM v",
    "CREATE FOREIGN TABLE xdb_q7_f1 (a BIGINT, \"b c\" VARCHAR) SERVER db2 OPTIONS (remote 'xdb_q7_t1')",
    "INSERT INTO t VALUES (1, 'a', DATE '1995-01-01', NULL), (2, 'b''c', NULL, FALSE)",
    "DROP VIEW IF EXISTS xdb_q7_t2",
    "DROP FOREIGN TABLE ft; ",
];

/// What an edit inserts: quotes, NUL, a multi-byte character, punctuation
/// the lexer splits on, comment openers and keyword fragments.
const ALPHABET: &[&str] = &[
    "'", "\"", "`", "\0", "é", "(", ")", ",", ".", ";", "*", "-", "/", "!", "|", "?", " ", "=",
    "<", "0", "9", "e", "a", "_", "''", "--", "/*", "*/", "AS", "NOT", "IN", "IS", "OR", "AND",
    "BY", "CAST", "DATE", "CASE", "END", "FROM", "NULL", "LEFT", "EXISTS", "INTERVAL", " x", " 1",
    "q", "Z", "7", "  ", "\n", "\t", " AS y", " t2", "+ 1", "* 2", "cast", "extract", "if",
];

const DIALECTS: [Dialect; 4] = [
    Dialect::Generic,
    Dialect::PostgresLike,
    Dialect::MariaDbLike,
    Dialect::HiveLike,
];

/// One to three edits of `seed`, each at a character boundary: insert a
/// fragment, delete a character, or replace a character by a fragment.
fn mutate(seed: &str, rng: &mut TestRng) -> String {
    let mut text = seed.to_string();
    // One edit half the time, two or three otherwise.
    for _ in 0..=rng.below(4).saturating_sub(1) {
        let boundaries: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
        let at = boundaries[rng.below(boundaries.len() as u64) as usize];
        let width = text[at..].chars().next().map_or(0, char::len_utf8);
        let fragment = ALPHABET[rng.below(ALPHABET.len() as u64) as usize];
        match rng.below(3) {
            0 => text.insert_str(at, fragment),
            1 => text.replace_range(at..at + width, ""),
            _ => text.replace_range(at..at + width, fragment),
        }
        if text.is_empty() {
            break;
        }
    }
    text
}

#[test]
fn edits_never_panic_and_what_parses_round_trips() {
    const INPUTS: u64 = 100_000;
    let mut parsed = 0u64;
    for case in 0..INPUTS {
        let mut rng = TestRng::deterministic(case);
        let input = mutate(SEEDS[(case % SEEDS.len() as u64) as usize], &mut rng);
        let Ok(ast) = parse_statement(&input) else {
            continue;
        };
        parsed += 1;
        for dialect in DIALECTS {
            let rendered = render_statement(&ast, dialect);
            let again = parse_statement(&rendered).unwrap_or_else(|e| {
                panic!("case {case}: {input:?} rendered as {rendered:?} ({dialect:?}): {e}")
            });
            assert_eq!(
                again, ast,
                "case {case}: {input:?} rendered as {rendered:?} ({dialect:?})"
            );
        }
    }
    // The edits are small, so a fair share still parses; far fewer would
    // mean the fuzz stopped reaching the renderer.
    assert!(parsed > INPUTS / 10, "only {parsed} of {INPUTS} parsed");
}
