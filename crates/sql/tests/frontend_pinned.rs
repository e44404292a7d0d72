//! The parser's failures, held to the messages and byte offsets they have
//! always had: a rewrite of the lexer or parser that words an error
//! differently, or blames a different byte, fails here.

use xdb_sql::{parse_expr, parse_script, parse_statement};

#[derive(Debug, Clone, Copy)]
enum Entry {
    Statement,
    Script,
    Expression,
}
use Entry::*;

/// (entry point, input, message, offset), as recorded before the lexer
/// and parser were rewritten over borrowed tokens.
#[rustfmt::skip]
const MALFORMED: &[(Entry, &str, &str, usize)] = &[
    (Statement, "SELECT 'abc", "unterminated '-quoted token", 7),
    (Statement, "SELECT 'it''s", "unterminated '-quoted token", 7),
    (Statement, "SELECT \"abc FROM t", "unterminated \"-quoted token", 7),
    (Statement, "SELECT \"we\"\"ird FROM t", "unterminated \"-quoted token", 7),
    (Statement, "SELECT `abc FROM t", "unterminated `-quoted token", 7),
    (Statement, "SELECT a /* open FROM t", "unterminated block comment", 9),
    (Statement, "SELECT a ! b FROM t", "unexpected character '!'", 9),
    (Statement, "SELECT a | b FROM t", "unexpected character '|'", 9),
    (Statement, "SELECT a # b FROM t", "unexpected character '#'", 9),
    (Statement, "SELECT é FROM t", "unexpected character 'Ã'", 7),
    (Statement, "SELECT a\0 FROM t", "unexpected character '\\0'", 8),
    (Statement, "SELECT FROM t", "unexpected keyword FROM in expression", 7),
    (Statement, "SELECT a, FROM t", "unexpected keyword FROM in expression", 10),
    (Statement, "SELECT a FROM t WHERE", "expected expression, found <eof>", 21),
    (Statement, "SELECT a FROM t WHERE a = 'x' AND", "expected expression, found <eof>", 33),
    (Statement, "SELECT a FROM t WHERE group = 1", "unexpected keyword GROUP in expression", 22),
    (Statement, "SELECT (a + 1 FROM t", "expected ), found FROM", 14),
    (Statement, "SELECT count(* FROM t", "expected ), found FROM", 15),
    (Statement, "SELECT d + INTERVAL '1' fortnight FROM t", "unknown interval unit \"FORTNIGHT\"", 34),
    (Statement, "SELECT INTERVAL 'x' DAY FROM t", "invalid interval quantity \"x\"", 20),
    (Statement, "SELECT INTERVAL 3 FROM t", "unknown interval unit \"FROM\"", 23),
    (Statement, "SELECT DATE 'not-a-date' FROM t", "invalid date literal \"not-a-date\"", 25),
    (Statement, "SELECT a FROM t LIMIT x", "expected LIMIT count, found x", 23),
    (Statement, "SELECT a FROM t LIMIT -1", "expected LIMIT count, found -", 23),
    (Statement, "SELECT a FROM t LIMIT 1.5", "expected LIMIT count, found 1.5", 25),
    (Statement, "SELECT a FROM t LIMIT 'ten'", "expected LIMIT count, found 'ten'", 27),
    (Statement, "SELECT a FROM t LIMIT \"ten\"", "expected LIMIT count, found \"ten\"", 27),
    (Statement, "SELECT a FROM t LIMIT", "expected LIMIT count, found <eof>", 21),
    (Statement, "SELECT a FROM t garbage more", "unexpected trailing input: more", 24),
    (Statement, "SELECT a FROM t; SELECT b FROM u", "unexpected trailing input: SELECT", 17),
    (Statement, "SELECT a FROM t)", "unexpected trailing input: )", 15),
    (Statement, "", "expected statement, found <eof>", 0),
    (Statement, "   -- only a comment", "expected statement, found <eof>", 20),
    (Statement, ";", "expected statement, found ;", 0),
    (Statement, "FROB x", "expected statement, found FROB", 0),
    (Statement, "42", "expected statement, found 42", 0),
    (Statement, "SELECT a FROM", "expected identifier, found <eof>", 13),
    (Statement, "SELECT a FROM (SELECT b FROM u)", "derived table requires an alias", 31),
    (Statement, "SELECT a FROM (SELECT b FROM u) WHERE a = 1", "derived table requires an alias", 32),
    (Statement, "SELECT a FROM t JOIN u", "expected keyword ON, found <eof>", 22),
    (Statement, "SELECT a FROM t INNER u ON a = b", "unexpected trailing input: INNER", 16),
    (Statement, "SELECT a FROM t ORDER a", "expected keyword BY, found a", 22),
    (Statement, "SELECT a FROM t GROUP a", "expected keyword BY, found a", 22),
    (Statement, "SELECT t.* x FROM t", "unexpected trailing input: x", 11),
    (Statement, "SELECT CASE END FROM t", "unexpected keyword END in expression", 12),
    (Statement, "SELECT CASE a END FROM t", "CASE requires at least one WHEN branch", 14),
    (Statement, "SELECT CASE WHEN a THEN 1 FROM t", "expected keyword END, found FROM", 26),
    (Statement, "SELECT CASE WHEN a 1 END FROM t", "expected keyword THEN, found 1", 19),
    (Statement, "SELECT EXTRACT(century FROM d) FROM t", "unknown EXTRACT field \"CENTURY\"", 23),
    (Statement, "SELECT EXTRACT(year d) FROM t", "expected keyword FROM, found d", 20),
    (Statement, "SELECT EXTRACT year FROM t", "expected (, found year", 15),
    (Statement, "SELECT CAST(a AS blob) FROM t", "unknown type \"blob\"", 21),
    (Statement, "SELECT CAST(a blob) FROM t", "expected keyword AS, found blob", 14),
    (Statement, "SELECT CAST(a AS VARCHAR(10) FROM t", "expected ), found FROM", 29),
    (Statement, "SELECT a LIKE 5 FROM t", "expected LIKE pattern string, found 5", 16),
    (Statement, "SELECT a NOT LIKE b FROM t", "expected LIKE pattern string, found b", 20),
    (Statement, "SELECT a IS 5 FROM t", "expected keyword NULL, found 5", 12),
    (Statement, "SELECT a IS NOT 5 FROM t", "expected keyword NULL, found 5", 16),
    (Statement, "SELECT a BETWEEN 1 OR 2 FROM t", "expected keyword AND, found OR", 19),
    (Statement, "SELECT a IN 1 FROM t", "expected (, found 1", 12),
    (Statement, "SELECT a IN (1, 2 FROM t", "expected ), found FROM", 18),
    (Statement, "SELECT a IN (SELECT b FROM u FROM t", "expected ), found FROM", 29),
    (Statement, "SELECT EXISTS (DROP TABLE t) FROM t", "expected keyword SELECT, found DROP", 15),
    (Statement, "SELECT a NOT 5 FROM t", "unexpected trailing input: 5", 13),
    (Statement, "SELECT a = FROM t", "unexpected keyword FROM in expression", 11),
    (Statement, "SELECT - FROM t", "unexpected keyword FROM in expression", 9),
    (Statement, "SELECT a AS FROM t", "unexpected trailing input: t", 17),
    (Statement, "SELECT a AS 5 FROM t", "expected identifier, found 5", 12),
    (Statement, "SELECT f(a, FROM t", "unexpected keyword FROM in expression", 12),
    (Statement, "SELECT ? ? FROM t", "expected expression, found ?", 7),
    (Statement, "EXPLAIN DROP TABLE t", "expected keyword SELECT, found DROP", 8),
    (Statement, "CREATE VIEW v SELECT 1", "expected keyword AS, found SELECT", 14),
    (Statement, "CREATE VIEW AS SELECT 1", "expected keyword AS, found SELECT", 15),
    (Statement, "CREATE OR VIEW v AS SELECT 1", "expected keyword REPLACE, found VIEW", 10),
    (Statement, "CREATE INDEX i", "expected keyword TABLE, found INDEX", 7),
    (Statement, "CREATE TABLE IF EXISTS t (a BIGINT)", "expected keyword NOT, found EXISTS", 16),
    (Statement, "CREATE TABLE t (a blob)", "unknown type \"blob\"", 22),
    (Statement, "CREATE TABLE t (a BIGINT b VARCHAR)", "expected ), found b", 25),
    (Statement, "CREATE TABLE t a BIGINT", "expected (, found a", 15),
    (Statement, "CREATE TABLE t ()", "expected identifier, found )", 16),
    (Statement, "CREATE FOREIGN f (a BIGINT) SERVER s", "expected keyword TABLE, found f", 15),
    (Statement, "CREATE FOREIGN TABLE f (a BIGINT) s", "expected keyword SERVER, found s", 34),
    (Statement, "CREATE FOREIGN TABLE f (a BIGINT) SERVER s OPTIONS (remote 5)", "expected string option value, found 5", 60),
    (Statement, "CREATE FOREIGN TABLE f (a BIGINT) SERVER s OPTIONS remote 'r'", "expected (, found remote", 51),
    (Statement, "CREATE FOREIGN TABLE f (a BIGINT) SERVER s OPTIONS (remote 'r'", "expected ), found <eof>", 62),
    (Statement, "DROP INDEX i", "expected keyword TABLE, found INDEX", 5),
    (Statement, "DROP FOREIGN VIEW v", "expected keyword TABLE, found VIEW", 13),
    (Statement, "DROP TABLE IF v", "expected keyword EXISTS, found v", 14),
    (Statement, "DROP TABLE", "expected identifier, found <eof>", 10),
    (Statement, "INSERT t VALUES (1)", "expected keyword INTO, found t", 7),
    (Statement, "INSERT INTO t (1)", "expected keyword VALUES, found (", 14),
    (Statement, "INSERT INTO t VALUES 1", "expected (, found 1", 21),
    (Statement, "INSERT INTO t VALUES (1, )", "expected expression, found )", 25),
    (Statement, "INSERT INTO t VALUES (1", "expected ), found <eof>", 23),
    (Script, "SELECT a FROM t; SELECT", "expected expression, found <eof>", 23),
    (Script, "SELECT a FROM t SELECT b FROM u", "unexpected trailing input: SELECT", 16),
    (Script, ";; FROB", "expected statement, found FROB", 3),
    (Script, "SELECT 1; 'open", "unterminated '-quoted token", 10),
    (Expression, "", "expected expression, found <eof>", 0),
    (Expression, "a +", "expected expression, found <eof>", 3),
    (Expression, "a b", "unexpected trailing input: b", 2),
    (Expression, "(a", "expected ), found <eof>", 2),
    (Expression, "a)", "unexpected trailing input: )", 1),
    (Expression, "a AND OR b", "unexpected keyword OR in expression", 6),
    (Expression, "NOT", "expected expression, found <eof>", 3),
    (Expression, "select", "unexpected keyword SELECT in expression", 0),
    (Expression, "x IN ()", "expected expression, found )", 6),
    (Expression, "1 2", "unexpected trailing input: 2", 2),
    (Expression, "'a' 'b'", "unexpected trailing input: 'b'", 4),
    (Expression, "a <> <> b", "expected expression, found <>", 5),
    (Expression, "a || ", "expected expression, found <eof>", 5),
    (Expression, "a.b.c", "unexpected trailing input: .", 3),
    (Expression, "99999999999999999999999999999999999999 x", "unexpected trailing input: x", 39),
];

#[test]
fn errors_are_pinned() {
    assert!(MALFORMED.len() >= 30);
    for &(entry, input, message, offset) in MALFORMED {
        let err = match entry {
            Statement => parse_statement(input).map(drop),
            Script => parse_script(input).map(drop),
            Expression => parse_expr(input).map(drop),
        }
        .expect_err(input);
        assert_eq!(
            (err.message.as_str(), err.offset),
            (message, offset),
            "{entry:?} {input:?}"
        );
    }
    // The parser alone logs nothing: the crate depends on no telemetry.
    // The federation's entry points log a failure on their own handle.
    assert!(!include_str!("../Cargo.toml").contains("xdb-obs"));
}

/// Nesting is bounded: 64 levels deep the parser answers with an error
/// where it used to run off the end of the stack.
#[test]
fn nesting_is_bounded() {
    let too_deep = |err: xdb_sql::ParseError| {
        assert_eq!(err.message, "expression nested too deeply", "{err}");
        err.offset
    };
    let wrap = |open: &str, core: &str, close: &str, n: usize| {
        format!("{}{core}{}", open.repeat(n), close.repeat(n))
    };
    let derived = |n| wrap("SELECT * FROM (", "SELECT 1 AS x", ") AS d", n);
    let joined = |n| format!("SELECT * FROM {}", wrap("(", "t", ")", n));
    let searched = |n| wrap("CASE WHEN ", "a", " THEN 1 END", n);
    let probed = |n| wrap("x IN (SELECT y FROM t WHERE ", "a", ")", n);
    // Just inside the bound every recursive construct still parses, on
    // this test thread's 2 MB stack in an unoptimized build.
    parse_expr(&wrap("(", "1", ")", 63)).unwrap();
    parse_expr(&wrap("NOT ", "a", "", 63)).unwrap();
    parse_expr(&wrap("- ", "a", "", 63)).unwrap();
    parse_expr(&wrap("f(", "a", ")", 63)).unwrap();
    parse_expr(&searched(63)).unwrap();
    parse_expr(&probed(63)).unwrap();
    parse_statement(&derived(63)).unwrap();
    parse_statement(&joined(64)).unwrap();
    // Past it, the error names the token that went one level too deep.
    let deep = 100_000;
    assert_eq!(
        too_deep(parse_expr(&wrap("(", "1", ")", deep)).unwrap_err()),
        64
    );
    assert_eq!(
        too_deep(parse_expr(&wrap("NOT ", "a", "", deep)).unwrap_err()),
        4 * 64
    );
    assert_eq!(
        too_deep(parse_expr(&wrap("- ", "a", "", deep)).unwrap_err()),
        2 * 64
    );
    too_deep(parse_expr(&wrap("+ ", "a", "", deep)).unwrap_err());
    too_deep(parse_expr(&wrap("f(", "a", ")", deep)).unwrap_err());
    too_deep(parse_expr(&searched(deep)).unwrap_err());
    too_deep(parse_expr(&probed(deep)).unwrap_err());
    too_deep(parse_statement(&derived(deep)).unwrap_err());
    too_deep(parse_statement(&joined(deep)).unwrap_err());
}

/// `VARCHAR(` with no closing parenthesis used to spin forever on `<eof>`.
#[test]
fn unclosed_type_modifier_is_an_error() {
    for sql in [
        "CREATE TABLE t (a VARCHAR(10",
        "SELECT CAST(a AS VARCHAR(10 FROM t",
    ] {
        let err = parse_statement(sql).unwrap_err();
        assert_eq!(err.message, "expected ), found <eof>", "{sql}");
        assert_eq!(err.offset, sql.len(), "{sql}");
    }
}
