//! Recursive-descent SQL parser for the federation dialect.
//!
//! Covers the analytical subset needed by the paper's workload (TPC-H Q3,
//! Q5, Q7, Q8, Q9, Q10 and the motivating vaccination query) plus the DDL
//! statements the delegation engine emits (CREATE VIEW / CREATE FOREIGN
//! TABLE / CREATE TABLE AS / DROP).

use crate::ast::*;
use crate::keywords::{keyword, lookup, InExpr, Keyword};
use crate::lexer::{tokenize, LexError, Spanned, Token};
use crate::value::{date, DataType, Value};
use std::fmt;

/// Parse error carrying a human-readable message and a byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub message: String,
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            offset: e.offset,
        }
    }
}

type Result<T> = std::result::Result<T, ParseError>;

/// Parse a single SQL statement (a trailing semicolon is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser::new(&tokens);
    let stmt = p.statement()?;
    p.eat(&Token::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a semicolon-separated script into statements.
pub fn parse_script(sql: &str) -> Result<Vec<Statement>> {
    let tokens = tokenize(sql)?;
    let mut p = Parser::new(&tokens);
    let mut out = Vec::new();
    loop {
        while p.eat(&Token::Semicolon) {}
        if p.peek() == &Token::Eof {
            break;
        }
        out.push(p.statement()?);
        if !p.eat(&Token::Semicolon) {
            break;
        }
    }
    p.expect_eof()?;
    Ok(out)
}

/// Parse just a SELECT statement.
pub fn parse_select(sql: &str) -> Result<SelectStmt> {
    match parse_statement(sql)? {
        Statement::Select(s) => Ok(*s),
        other => Err(ParseError {
            message: format!("expected SELECT statement, got {other:?}"),
            offset: 0,
        }),
    }
}

/// Parse a scalar expression (used by tests and plan rewriting).
pub fn parse_expr(sql: &str) -> Result<Expr> {
    let tokens = tokenize(sql)?;
    let mut p = Parser::new(&tokens);
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// How deep expressions, sub-queries and parenthesized joins may nest. The
/// TPC-H statements and their scripts nest a handful of levels. One level
/// of the recursive descent takes up to 18 KB of stack in an unoptimized
/// build (a `CASE` inside a `WHEN`; 3 KB optimized), so this bound keeps
/// the deepest statement accepted within 1.2 MB of a 2 MB thread stack,
/// and every recursive walk of the AST after it shallower still.
const MAX_DEPTH: usize = 64;

/// A cursor over the statement's tokens. The tokens are read in place:
/// what `peek` and `advance` hand out borrows the token slice, not the
/// parser, and stepping only moves `pos`.
struct Parser<'t, 'a> {
    tokens: &'t [Spanned<'a>],
    pos: usize,
    depth: usize,
}

impl<'t, 'a> Parser<'t, 'a> {
    /// `tokens` ends with `Eof` (as [`tokenize`] guarantees).
    fn new(tokens: &'t [Spanned<'a>]) -> Parser<'t, 'a> {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    fn peek(&self) -> &'t Token<'a> {
        &self.tokens[self.pos].token
    }

    fn peek2(&self) -> &'t Token<'a> {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].token
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    /// Step over the current token (`Eof` stays current) and hand it out.
    fn advance(&mut self) -> &'t Token<'a> {
        let t = self.peek();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.error(format!("expected {t}, found {}", self.peek())))
        }
    }

    fn error(&self, message: String) -> ParseError {
        ParseError {
            message,
            offset: self.offset(),
        }
    }

    /// Run `f` one nesting level down, refusing past [`MAX_DEPTH`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_DEPTH {
            return Err(self.error("expression nested too deeply".into()));
        }
        self.depth += 1;
        let result = f(self);
        self.depth -= 1;
        result
    }

    /// Is the current token the given keyword (case-insensitive)?
    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().is_kw(kw)
    }

    fn peek2_kw(&self, kw: &str) -> bool {
        self.peek2().is_kw(kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected keyword {kw}, found {}", self.peek())))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.peek() == &Token::Eof {
            Ok(())
        } else {
            Err(self.error(format!("unexpected trailing input: {}", self.peek())))
        }
    }

    /// Accept an identifier (bare or quoted). The caller copies it into the
    /// AST node that keeps it.
    fn identifier(&mut self) -> Result<&'t str> {
        match self.peek() {
            Token::Ident(s) => {
                self.advance();
                Ok(s)
            }
            Token::QuotedIdent(s) => {
                self.advance();
                Ok(s)
            }
            other => Err(self.error(format!("expected identifier, found {other}"))),
        }
    }

    /// The keyword-table entry of the current token, if it is a bare word
    /// the table lists.
    fn peek_keyword(&self) -> Option<&'static Keyword> {
        match self.peek() {
            Token::Ident(word) => keyword(word),
            _ => None,
        }
    }

    fn name(&mut self) -> Result<String> {
        self.identifier().map(str::to_string)
    }

    /// Swallow an optional length/precision like the `(25)` of `VARCHAR(25)`.
    fn skip_type_modifier(&mut self) -> Result<()> {
        if self.eat(&Token::LParen) {
            while !matches!(self.peek(), Token::RParen | Token::Eof) {
                self.advance();
            }
            self.expect(&Token::RParen)?;
        }
        Ok(())
    }

    // ---------------------------------------------------------- statements

    fn statement(&mut self) -> Result<Statement> {
        if self.peek_kw("SELECT") {
            return Ok(Statement::Select(Box::new(self.select()?)));
        }
        if self.eat_kw("EXPLAIN") {
            return Ok(Statement::Explain(Box::new(self.select()?)));
        }
        if self.peek_kw("CREATE") {
            return self.create();
        }
        if self.peek_kw("INSERT") {
            return self.insert();
        }
        if self.peek_kw("DROP") {
            return self.drop_stmt();
        }
        Err(self.error(format!("expected statement, found {}", self.peek())))
    }

    fn create(&mut self) -> Result<Statement> {
        self.expect_kw("CREATE")?;
        let or_replace = if self.eat_kw("OR") {
            self.expect_kw("REPLACE")?;
            true
        } else {
            false
        };
        if self.eat_kw("VIEW") {
            let name = self.name()?;
            self.expect_kw("AS")?;
            let query = self.select()?;
            return Ok(Statement::CreateView {
                name,
                query: Box::new(query),
                or_replace,
            });
        }
        if self.eat_kw("FOREIGN") {
            self.expect_kw("TABLE")?;
            let name = self.name()?;
            let columns = self.column_defs()?;
            self.expect_kw("SERVER")?;
            let server = self.name()?;
            let mut remote_name = None;
            if self.eat_kw("OPTIONS") {
                self.expect(&Token::LParen)?;
                loop {
                    let key = self.identifier()?;
                    let val = match self.advance() {
                        Token::StringLit(s) => s,
                        other => {
                            return Err(
                                self.error(format!("expected string option value, found {other}"))
                            )
                        }
                    };
                    if key.eq_ignore_ascii_case("remote") || key.eq_ignore_ascii_case("table_name")
                    {
                        remote_name = Some(val.to_string());
                    }
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
            }
            return Ok(Statement::CreateForeignTable {
                name,
                columns,
                server,
                remote_name,
            });
        }
        self.expect_kw("TABLE")?;
        let if_not_exists = if self.eat_kw("IF") {
            self.expect_kw("NOT")?;
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.name()?;
        if self.eat_kw("AS") {
            let query = self.select()?;
            return Ok(Statement::CreateTableAs {
                name,
                query: Box::new(query),
            });
        }
        let columns = self.column_defs()?;
        Ok(Statement::CreateTable {
            name,
            columns,
            if_not_exists,
        })
    }

    fn column_defs(&mut self) -> Result<Vec<ColumnDef>> {
        self.expect(&Token::LParen)?;
        let mut cols = Vec::new();
        loop {
            let name = self.name()?;
            let ty_name = self.identifier()?;
            self.skip_type_modifier()?;
            let data_type = DataType::parse(ty_name)
                .ok_or_else(|| self.error(format!("unknown type {ty_name:?}")))?;
            cols.push(ColumnDef { name, data_type });
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(cols)
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.name()?;
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            rows.push(row);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn drop_stmt(&mut self) -> Result<Statement> {
        self.expect_kw("DROP")?;
        let kind = if self.eat_kw("VIEW") {
            ObjectKind::View
        } else if self.eat_kw("FOREIGN") {
            self.expect_kw("TABLE")?;
            ObjectKind::ForeignTable
        } else {
            self.expect_kw("TABLE")?;
            ObjectKind::Table
        };
        let if_exists = if self.eat_kw("IF") {
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.name()?;
        Ok(Statement::Drop {
            kind,
            name,
            if_exists,
        })
    }

    // -------------------------------------------------------------- select

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let mut projection = Vec::new();
        loop {
            projection.push(self.select_item()?);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let mut from = Vec::new();
        if self.eat_kw("FROM") {
            loop {
                from.push(self.table_ref()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let selection = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderByExpr { expr, desc });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.advance() {
                Token::IntLit(n) if *n >= 0 => Some(*n as u64),
                other => return Err(self.error(format!("expected LIMIT count, found {other}"))),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            distinct,
            projection,
            from,
            selection,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*`
        if matches!(self.peek(), Token::Ident(_) | Token::QuotedIdent(_))
            && self.peek2() == &Token::Dot
        {
            let save = self.pos;
            let q = self.identifier()?;
            self.expect(&Token::Dot)?;
            if self.eat(&Token::Star) {
                return Ok(SelectItem::QualifiedWildcard(q.to_string()));
            }
            self.pos = save;
        }
        let expr = self.expr()?;
        let alias = self.optional_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    /// `[AS] alias`, where a bare identifier is only taken as an alias if
    /// the keyword table does not say it stops one.
    fn optional_alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw("AS") {
            return Ok(Some(self.name()?));
        }
        let alias = match self.peek() {
            Token::Ident(s) if !keyword(s).is_some_and(|k| k.stops_alias) => s,
            Token::QuotedIdent(s) => &**s,
            _ => return Ok(None),
        };
        self.advance();
        Ok(Some(alias.to_string()))
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.table_primary()?;
        loop {
            let is_join = self.peek_kw("JOIN") || (self.peek_kw("INNER") && self.peek2_kw("JOIN"));
            if !is_join {
                break;
            }
            self.eat_kw("INNER");
            self.expect_kw("JOIN")?;
            let right = self.table_primary()?;
            self.expect_kw("ON")?;
            let on = self.expr()?;
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                on: Box::new(on),
            };
        }
        Ok(left)
    }

    fn table_primary(&mut self) -> Result<TableRef> {
        if self.eat(&Token::LParen) {
            return self.nested(|p| {
                if p.peek_kw("SELECT") {
                    let query = p.select()?;
                    p.expect(&Token::RParen)?;
                    let alias = p
                        .optional_alias()?
                        .ok_or_else(|| p.error("derived table requires an alias".into()))?;
                    return Ok(TableRef::Derived {
                        query: Box::new(query),
                        alias,
                    });
                }
                let inner = p.table_ref()?;
                p.expect(&Token::RParen)?;
                Ok(inner)
            });
        }
        let name = self.name()?;
        let alias = self.optional_alias()?;
        Ok(TableRef::Table { name, alias })
    }

    // --------------------------------------------------------- expressions

    fn expr(&mut self) -> Result<Expr> {
        self.nested(Self::or_expr)
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::binary(BinaryOp::Or, left, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::binary(BinaryOp::And, left, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            let inner = self.nested(Self::not_expr)?;
            // Fold NOT over subquery predicates into their negated forms.
            return Ok(match inner {
                Expr::Exists { query, negated } => Expr::Exists {
                    query,
                    negated: !negated,
                },
                Expr::InSubquery {
                    expr,
                    query,
                    negated,
                } => Expr::InSubquery {
                    expr,
                    query,
                    negated: !negated,
                },
                other => Expr::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(other),
                },
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // Postfix predicates: IS [NOT] NULL, [NOT] BETWEEN/LIKE/IN.
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let negated = if self.peek_kw("NOT")
            && (self.peek2_kw("BETWEEN") || self.peek2_kw("LIKE") || self.peek2_kw("IN"))
        {
            self.advance();
            true
        } else {
            false
        };
        if self.eat_kw("BETWEEN") {
            let low = self.additive()?;
            self.expect_kw("AND")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("LIKE") {
            let pattern = match self.advance() {
                Token::StringLit(s) => s.to_string(),
                other => {
                    return Err(self.error(format!("expected LIKE pattern string, found {other}")))
                }
            };
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern,
                negated,
            });
        }
        if self.eat_kw("IN") {
            self.expect(&Token::LParen)?;
            if self.peek_kw("SELECT") {
                let query = self.select()?;
                self.expect(&Token::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    query: Box::new(query),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        let op = match self.peek() {
            Token::Eq => BinaryOp::Eq,
            Token::NotEq => BinaryOp::NotEq,
            Token::Lt => BinaryOp::Lt,
            Token::LtEq => BinaryOp::LtEq,
            Token::Gt => BinaryOp::Gt,
            Token::GtEq => BinaryOp::GtEq,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.additive()?;
        Ok(Expr::binary(op, left, right))
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinaryOp::Plus,
                Token::Minus => BinaryOp::Minus,
                Token::Concat => BinaryOp::Concat,
                _ => break,
            };
            self.advance();
            let right = self.multiplicative()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinaryOp::Mul,
                Token::Slash => BinaryOp::Div,
                Token::Percent => BinaryOp::Mod,
                _ => break,
            };
            self.advance();
            let right = self.unary()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat(&Token::Minus) {
            let inner = self.nested(Self::unary)?;
            // Fold negation of numeric literals for cleaner ASTs.
            return Ok(match inner {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Float(f)) => Expr::Literal(Value::Float(-f)),
                other => Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        if self.eat(&Token::Plus) {
            return self.nested(Self::unary);
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek() {
            Token::IntLit(i) => {
                self.advance();
                Ok(Expr::lit(Value::Int(*i)))
            }
            Token::FloatLit(f) => {
                self.advance();
                Ok(Expr::lit(Value::Float(*f)))
            }
            Token::StringLit(s) => {
                self.advance();
                Ok(Expr::lit(Value::str(s)))
            }
            Token::LParen => {
                self.advance();
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(_) | Token::QuotedIdent(_) => self.ident_led_expr(),
            other => Err(self.error(format!("expected expression, found {other}"))),
        }
    }

    /// Expressions that start with an identifier: keyword-led constructs
    /// (CASE, EXTRACT, DATE, INTERVAL, CAST, TRUE/FALSE/NULL), function
    /// calls, and column references.
    fn ident_led_expr(&mut self) -> Result<Expr> {
        // Keyword-led constructs only trigger on bare identifiers.
        if let Some(kw) = self.peek_keyword() {
            match kw.in_expr {
                // Reserved clause keywords cannot start an expression;
                // quoting them is required to use them as column names.
                InExpr::Reserved => {
                    let word = kw.word;
                    return Err(self.error(format!("unexpected keyword {word} in expression")));
                }
                InExpr::Case => return self.case_expr(),
                InExpr::Exists if self.peek2() == &Token::LParen => {
                    self.advance();
                    self.expect(&Token::LParen)?;
                    let query = self.select()?;
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::Exists {
                        query: Box::new(query),
                        negated: false,
                    });
                }
                InExpr::Extract => return self.extract_expr(),
                InExpr::Cast => return self.cast_expr(),
                InExpr::True => {
                    self.advance();
                    return Ok(Expr::lit(Value::Bool(true)));
                }
                InExpr::False => {
                    self.advance();
                    return Ok(Expr::lit(Value::Bool(false)));
                }
                InExpr::Null => {
                    self.advance();
                    return Ok(Expr::lit(Value::Null));
                }
                InExpr::Date => {
                    if let Token::StringLit(s) = self.peek2() {
                        self.advance();
                        self.advance();
                        let days = date::parse(s)
                            .ok_or_else(|| self.error(format!("invalid date literal {s:?}")))?;
                        return Ok(Expr::lit(Value::Date(days)));
                    }
                }
                InExpr::Interval => {
                    let quantity = match self.peek2() {
                        Token::IntLit(i) => Some(Ok(*i)),
                        Token::StringLit(s) => Some(s.trim().parse::<i64>().map_err(|_| s)),
                        _ => None,
                    };
                    if let Some(quantity) = quantity {
                        self.advance();
                        self.advance();
                        let n = quantity
                            .map_err(|s| self.error(format!("invalid interval quantity {s:?}")))?;
                        let unit = self.identifier()?;
                        const UNITS: &[(&str, IntervalUnit)] = &[
                            ("YEAR", IntervalUnit::Year),
                            ("YEARS", IntervalUnit::Year),
                            ("MONTH", IntervalUnit::Month),
                            ("MONTHS", IntervalUnit::Month),
                            ("DAY", IntervalUnit::Day),
                            ("DAYS", IntervalUnit::Day),
                        ];
                        let unit = lookup(UNITS, unit).ok_or_else(|| {
                            let shown = upper_for_message(unit);
                            self.error(format!("unknown interval unit {shown:?}"))
                        })?;
                        return Ok(Expr::Interval { n, unit });
                    }
                }
                InExpr::Exists | InExpr::Name => {}
            }
        }
        let first = self.identifier()?;
        // Function call.
        if self.peek() == &Token::LParen {
            self.advance();
            if first.eq_ignore_ascii_case("count") && self.eat(&Token::Star) {
                self.expect(&Token::RParen)?;
                return Ok(Expr::CountStar);
            }
            let distinct = self.eat_kw("DISTINCT");
            let mut args = Vec::new();
            if self.peek() != &Token::RParen {
                loop {
                    args.push(self.expr()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::Function {
                name: first.to_ascii_lowercase(),
                args,
                distinct,
            });
        }
        // Qualified column.
        if self.eat(&Token::Dot) {
            let name = self.identifier()?;
            return Ok(Expr::qcol(first, name));
        }
        Ok(Expr::col(first))
    }

    fn case_expr(&mut self) -> Result<Expr> {
        self.expect_kw("CASE")?;
        let operand = if !self.peek_kw("WHEN") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        let mut branches = Vec::new();
        while self.eat_kw("WHEN") {
            let when = self.expr()?;
            self.expect_kw("THEN")?;
            let then = self.expr()?;
            branches.push((when, then));
        }
        if branches.is_empty() {
            return Err(self.error("CASE requires at least one WHEN branch".into()));
        }
        let else_expr = if self.eat_kw("ELSE") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_kw("END")?;
        Ok(Expr::Case {
            operand,
            branches,
            else_expr,
        })
    }

    fn extract_expr(&mut self) -> Result<Expr> {
        self.expect_kw("EXTRACT")?;
        self.expect(&Token::LParen)?;
        let field = self.identifier()?;
        const FIELDS: &[(&str, DateField)] = &[
            ("YEAR", DateField::Year),
            ("MONTH", DateField::Month),
            ("DAY", DateField::Day),
        ];
        let field = lookup(FIELDS, field).ok_or_else(|| {
            let shown = upper_for_message(field);
            self.error(format!("unknown EXTRACT field {shown:?}"))
        })?;
        self.expect_kw("FROM")?;
        let expr = self.expr()?;
        self.expect(&Token::RParen)?;
        Ok(Expr::Extract {
            field,
            expr: Box::new(expr),
        })
    }

    fn cast_expr(&mut self) -> Result<Expr> {
        self.expect_kw("CAST")?;
        self.expect(&Token::LParen)?;
        let expr = self.expr()?;
        self.expect_kw("AS")?;
        let ty_name = self.identifier()?;
        self.skip_type_modifier()?;
        let data_type = DataType::parse(ty_name)
            .ok_or_else(|| self.error(format!("unknown type {ty_name:?}")))?;
        self.expect(&Token::RParen)?;
        Ok(Expr::Cast {
            expr: Box::new(expr),
            data_type,
        })
    }
}

/// A rejected unit or field name as the error messages have always shown
/// it: in upper case.
fn upper_for_message(word: &str) -> String {
    let mut shown = word.to_string();
    shown.make_ascii_uppercase();
    shown
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_select() {
        let s = parse_select("SELECT a, b AS bee FROM t WHERE a > 1").unwrap();
        assert_eq!(s.projection.len(), 2);
        assert!(matches!(
            &s.projection[1],
            SelectItem::Expr { alias: Some(a), .. } if a == "bee"
        ));
        assert_eq!(s.from.len(), 1);
        assert!(s.selection.is_some());
    }

    #[test]
    fn implicit_alias_without_as() {
        let s = parse_select("SELECT c.id FROM Citizen c, Vaccines v").unwrap();
        assert_eq!(s.from.len(), 2);
        let aliases: Vec<_> = s
            .from
            .iter()
            .map(|t| match t {
                TableRef::Table { alias, .. } => alias.as_deref(),
                _ => None,
            })
            .collect();
        assert_eq!(aliases, [Some("c"), Some("v")]);
    }

    #[test]
    fn join_syntax() {
        let s =
            parse_select("SELECT * FROM a JOIN b ON a.x = b.x INNER JOIN c ON b.y = c.y").unwrap();
        assert_eq!(s.from.len(), 1);
        assert!(matches!(&s.from[0], TableRef::Join { .. }));
    }

    #[test]
    fn derived_table() {
        let s = parse_select(
            "SELECT nation, sum(amount) FROM (SELECT n_name AS nation, 1 AS amount FROM nation) AS profit GROUP BY nation",
        )
        .unwrap();
        assert!(matches!(&s.from[0], TableRef::Derived { alias, .. } if alias == "profit"));
        assert_eq!(s.group_by.len(), 1);
    }

    #[test]
    fn case_when() {
        let e = parse_expr(
            "case when c.age between 20 and 30 then '20-30' when c.age between 30 and 40 then '30-40' else 'other' end",
        )
        .unwrap();
        match e {
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                assert!(operand.is_none());
                assert_eq!(branches.len(), 2);
                assert!(else_expr.is_some());
            }
            other => panic!("expected CASE, got {other:?}"),
        }
    }

    #[test]
    fn date_and_interval() {
        let e = parse_expr("o_orderdate < date '1995-03-15' + interval '1' year").unwrap();
        let cols = crate::ast::tests::referenced_columns(&e);
        assert_eq!(cols, vec![(None, "o_orderdate")]);
        // DATE used as a plain identifier still works.
        let e2 = parse_expr("date + 1").unwrap();
        assert!(matches!(
            e2,
            Expr::Binary {
                op: BinaryOp::Plus,
                ..
            }
        ));
    }

    #[test]
    fn extract_year() {
        let e = parse_expr("extract(year from l_shipdate)").unwrap();
        assert!(matches!(
            e,
            Expr::Extract {
                field: DateField::Year,
                ..
            }
        ));
    }

    #[test]
    fn like_between_in_not() {
        assert!(matches!(
            parse_expr("p_name like '%green%'").unwrap(),
            Expr::Like { negated: false, .. }
        ));
        assert!(matches!(
            parse_expr("p_name not like '%green%'").unwrap(),
            Expr::Like { negated: true, .. }
        ));
        assert!(matches!(
            parse_expr("x not between 1 and 2").unwrap(),
            Expr::Between { negated: true, .. }
        ));
        assert!(matches!(
            parse_expr("x in (1, 2, 3)").unwrap(),
            Expr::InList { negated: false, .. }
        ));
        assert!(matches!(
            parse_expr("x is not null").unwrap(),
            Expr::IsNull { negated: true, .. }
        ));
    }

    #[test]
    fn aggregates() {
        let s = parse_select(
            "SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue FROM lineitem GROUP BY l_orderkey ORDER BY revenue DESC, l_orderkey LIMIT 10",
        )
        .unwrap();
        assert_eq!(s.order_by.len(), 2);
        assert!(s.order_by[0].desc);
        assert!(!s.order_by[1].desc);
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn count_star_and_distinct() {
        assert_eq!(parse_expr("count(*)").unwrap(), Expr::CountStar);
        assert!(matches!(
            parse_expr("count(distinct x)").unwrap(),
            Expr::Function { distinct: true, .. }
        ));
    }

    #[test]
    fn operator_precedence() {
        // a + b * c parses as a + (b * c)
        let e = parse_expr("a + b * c").unwrap();
        match e {
            Expr::Binary {
                op: BinaryOp::Plus,
                right,
                ..
            } => assert!(matches!(
                *right,
                Expr::Binary {
                    op: BinaryOp::Mul,
                    ..
                }
            )),
            other => panic!("bad precedence: {other:?}"),
        }
        // OR binds looser than AND.
        let e = parse_expr("a = 1 or b = 2 and c = 3").unwrap();
        assert!(matches!(
            e,
            Expr::Binary {
                op: BinaryOp::Or,
                ..
            }
        ));
    }

    #[test]
    fn qualified_wildcard() {
        let s = parse_select("SELECT t.* FROM t").unwrap();
        assert!(matches!(
            &s.projection[0],
            SelectItem::QualifiedWildcard(q) if q == "t"
        ));
    }

    #[test]
    fn ddl_create_view() {
        let stmt = parse_statement("CREATE VIEW vvn AS SELECT v.type FROM Vaccines v").unwrap();
        assert!(matches!(stmt, Statement::CreateView { .. }));
        let stmt = parse_statement("CREATE OR REPLACE VIEW v2 AS SELECT 1 AS one").unwrap();
        assert!(matches!(
            stmt,
            Statement::CreateView {
                or_replace: true,
                ..
            }
        ));
    }

    #[test]
    fn ddl_foreign_table() {
        let stmt = parse_statement(
            "CREATE FOREIGN TABLE vvn (type VARCHAR, c_id BIGINT) SERVER vdb OPTIONS (remote 'xdb_vvn')",
        )
        .unwrap();
        match stmt {
            Statement::CreateForeignTable {
                name,
                columns,
                server,
                remote_name,
            } => {
                assert_eq!(name, "vvn");
                assert_eq!(columns.len(), 2);
                assert_eq!(server, "vdb");
                assert_eq!(remote_name.as_deref(), Some("xdb_vvn"));
            }
            other => panic!("expected foreign table, got {other:?}"),
        }
    }

    #[test]
    fn ddl_create_table_as_and_drop() {
        assert!(matches!(
            parse_statement("CREATE TABLE m AS SELECT * FROM v").unwrap(),
            Statement::CreateTableAs { .. }
        ));
        assert!(matches!(
            parse_statement("DROP VIEW IF EXISTS v").unwrap(),
            Statement::Drop {
                kind: ObjectKind::View,
                if_exists: true,
                ..
            }
        ));
        assert!(matches!(
            parse_statement("DROP FOREIGN TABLE ft").unwrap(),
            Statement::Drop {
                kind: ObjectKind::ForeignTable,
                ..
            }
        ));
    }

    #[test]
    fn insert_values() {
        let stmt =
            parse_statement("INSERT INTO t VALUES (1, 'a', date '1995-01-01'), (2, 'b', null)")
                .unwrap();
        match stmt {
            Statement::Insert { table, rows } => {
                assert_eq!(table, "t");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0].len(), 3);
            }
            other => panic!("expected insert, got {other:?}"),
        }
    }

    #[test]
    fn script_parsing() {
        let stmts =
            parse_script("CREATE TABLE a (x BIGINT); INSERT INTO a VALUES (1); SELECT * FROM a;")
                .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn explain() {
        assert!(matches!(
            parse_statement("EXPLAIN SELECT * FROM t").unwrap(),
            Statement::Explain(_)
        ));
    }

    #[test]
    fn negative_numbers_folded() {
        assert_eq!(parse_expr("-5").unwrap(), Expr::lit(Value::Int(-5)));
        assert_eq!(parse_expr("-2.5").unwrap(), Expr::lit(Value::Float(-2.5)));
    }

    #[test]
    fn errors_have_offsets() {
        let err = parse_select("SELECT FROM").unwrap_err();
        assert!(err.offset > 0);
        assert!(parse_statement("FROB x").is_err());
        assert!(parse_expr("a +").is_err());
    }

    #[test]
    fn tpch_q3_parses() {
        let q3 = "select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as revenue, o_orderdate, o_shippriority \
                  from customer, orders, lineitem \
                  where c_mktsegment = 'BUILDING' and c_custkey = o_custkey and l_orderkey = o_orderkey \
                    and o_orderdate < date '1995-03-15' and l_shipdate > date '1995-03-15' \
                  group by l_orderkey, o_orderdate, o_shippriority \
                  order by revenue desc, o_orderdate limit 10";
        let s = parse_select(q3).unwrap();
        assert_eq!(s.from.len(), 3);
        assert_eq!(s.group_by.len(), 3);
    }

    #[test]
    fn tpch_q8_parses() {
        let q8 = "select o_year, sum(case when nation = 'BRAZIL' then volume else 0 end) / sum(volume) as mkt_share \
                  from (select extract(year from o_orderdate) as o_year, l_extendedprice * (1 - l_discount) as volume, n2.n_name as nation \
                        from part, supplier, lineitem, orders, customer, nation n1, nation n2, region \
                        where p_partkey = l_partkey and s_suppkey = l_suppkey and l_orderkey = o_orderkey \
                          and o_custkey = c_custkey and c_nationkey = n1.n_nationkey and n1.n_regionkey = r_regionkey \
                          and r_name = 'AMERICA' and s_nationkey = n2.n_nationkey \
                          and o_orderdate between date '1995-01-01' and date '1996-12-31' \
                          and p_type = 'ECONOMY ANODIZED STEEL') as all_nations \
                  group by o_year order by o_year";
        let s = parse_select(q8).unwrap();
        match &s.from[0] {
            TableRef::Derived { query, .. } => assert_eq!(query.from.len(), 8),
            other => panic!("expected derived table, got {other:?}"),
        }
    }
}
