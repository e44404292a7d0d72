//! The one table of words the parser treats specially where a name could
//! also stand. The parser reads a word's role from it and the renderer
//! quotes every word in it, so the two cannot disagree: a name the parser
//! would take for a keyword always travels quoted.
//!
//! Words the parser tests only where no name can stand (`EXPLAIN`,
//! `REPLACE`, `FOREIGN`, `SERVER`, `OPTIONS`, `INTO`, `DESC`, `ASC`) are
//! ordinary names everywhere else and are not listed.

/// What a bare word does at the start of an expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InExpr {
    /// A clause keyword: it cannot start an expression.
    Reserved,
    /// The word opens a construct of its own (`EXISTS`, `DATE` and
    /// `INTERVAL` only when the next token fits; otherwise a name).
    Case,
    Exists,
    Extract,
    Cast,
    True,
    False,
    Null,
    Date,
    Interval,
    /// An ordinary name there.
    Name,
}

#[derive(Debug)]
pub struct Keyword {
    /// Upper-case spelling.
    pub word: &'static str,
    pub in_expr: InExpr,
    /// A bare word after an expression or a table is an alias unless it is
    /// one of these.
    pub stops_alias: bool,
}

const fn kw(word: &'static str, in_expr: InExpr, stops_alias: bool) -> Keyword {
    Keyword {
        word,
        in_expr,
        stops_alias,
    }
}

pub const KEYWORDS: &[Keyword] = &[
    kw("SELECT", InExpr::Reserved, true),
    kw("FROM", InExpr::Reserved, true),
    kw("WHERE", InExpr::Reserved, true),
    kw("GROUP", InExpr::Reserved, true),
    kw("HAVING", InExpr::Reserved, true),
    kw("ORDER", InExpr::Reserved, true),
    kw("LIMIT", InExpr::Reserved, true),
    kw("ON", InExpr::Reserved, true),
    kw("JOIN", InExpr::Reserved, true),
    kw("AND", InExpr::Reserved, true),
    kw("OR", InExpr::Reserved, true),
    kw("AS", InExpr::Reserved, true),
    kw("BY", InExpr::Reserved, false),
    kw("WHEN", InExpr::Reserved, false),
    kw("THEN", InExpr::Reserved, false),
    kw("ELSE", InExpr::Reserved, false),
    kw("END", InExpr::Reserved, false),
    kw("INNER", InExpr::Name, true),
    kw("LEFT", InExpr::Name, true),
    kw("RIGHT", InExpr::Name, true),
    kw("CROSS", InExpr::Name, true),
    kw("UNION", InExpr::Name, true),
    kw("CASE", InExpr::Case, false),
    kw("EXISTS", InExpr::Exists, false),
    kw("EXTRACT", InExpr::Extract, false),
    kw("CAST", InExpr::Cast, false),
    kw("TRUE", InExpr::True, false),
    kw("FALSE", InExpr::False, false),
    kw("NULL", InExpr::Null, false),
    kw("DATE", InExpr::Date, false),
    kw("INTERVAL", InExpr::Interval, false),
    // Postfix operators, and statement words a table name could follow.
    kw("NOT", InExpr::Name, false),
    kw("IN", InExpr::Name, false),
    kw("BETWEEN", InExpr::Name, false),
    kw("LIKE", InExpr::Name, false),
    kw("IS", InExpr::Name, false),
    kw("DISTINCT", InExpr::Name, false),
    kw("CREATE", InExpr::Name, false),
    kw("TABLE", InExpr::Name, false),
    kw("VIEW", InExpr::Name, false),
    kw("DROP", InExpr::Name, false),
    kw("INSERT", InExpr::Name, false),
    kw("VALUES", InExpr::Name, false),
    kw("IF", InExpr::Name, false),
];

/// Length range of the table's words: the quick reject of [`keyword`].
const WORD_LEN: std::ops::RangeInclusive<usize> = 2..=8;

/// The table entry `word` spells, in any case. Most names are rejected by
/// their length or by a digit or `_` in them before any comparison.
pub(crate) fn keyword(word: &str) -> Option<&'static Keyword> {
    if !WORD_LEN.contains(&word.len()) || !word.bytes().all(|b| b.is_ascii_alphabetic()) {
        return None;
    }
    KEYWORDS.iter().find(|k| k.word.eq_ignore_ascii_case(word))
}

/// The value `table` gives for `word`, spelled in any case.
pub(crate) fn lookup<T: Copy>(table: &[(&str, T)], word: &str) -> Option<T> {
    table
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case(word))
        .map(|&(_, value)| value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_upper_case_unique_and_within_the_quick_reject() {
        for (i, k) in KEYWORDS.iter().enumerate() {
            assert!(k.word.bytes().all(|b| b.is_ascii_uppercase()), "{k:?}");
            assert!(WORD_LEN.contains(&k.word.len()), "{k:?}");
            assert!(KEYWORDS[..i].iter().all(|o| o.word != k.word), "{k:?}");
        }
        let lens = KEYWORDS.iter().map(|k| k.word.len());
        assert_eq!(lens.clone().min(), Some(*WORD_LEN.start()));
        assert_eq!(lens.max(), Some(*WORD_LEN.end()));
    }

    #[test]
    fn lookup_ignores_case_and_rejects_names() {
        assert_eq!(keyword("select").unwrap().word, "SELECT");
        assert_eq!(keyword("Cast").unwrap().in_expr, InExpr::Cast);
        assert!(keyword("inner").unwrap().stops_alias);
        for name in [
            "l_orderkey",
            "xdb_q12_t3",
            "o_year",
            "nation",
            "n1",
            "",
            "é",
        ] {
            assert!(keyword(name).is_none(), "{name}");
        }
    }
}
